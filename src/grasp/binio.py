"""Little-endian binary file helpers shared by the on-disk formats."""

from __future__ import annotations

import struct

import numpy as np

from .config import write_text_atomic
from .errors import FormatError


class Reader:
    """Sequential reader that reports byte offsets in error messages."""

    def __init__(self, data: bytes, path=""):
        self.data = data
        self.pos = 0
        self.path = str(path)

    def _advance(self, n: int) -> int:
        """Move past ``n`` bytes, checking the length first; returns their offset."""
        if self.pos + n > len(self.data):
            raise FormatError(
                f"{self.path}: truncated at byte {self.pos} (needed {n} more bytes)"
            )
        start = self.pos
        self.pos += n
        return start

    def _take(self, n: int) -> bytes:
        start = self._advance(n)
        return self.data[start : start + n]

    def magic(self, expected: bytes) -> None:
        offset = self.pos
        got = self._take(len(expected))
        if got != expected:
            raise FormatError(
                f"{self.path}: bad magic at byte {offset}: "
                f"expected {expected!r}, got {got!r}"
            )

    def u8(self) -> int:
        return self._take(1)[0]

    def u16(self) -> int:
        return struct.unpack("<H", self._take(2))[0]

    def u32(self) -> int:
        return struct.unpack("<I", self._take(4))[0]

    def u64(self) -> int:
        return struct.unpack("<Q", self._take(8))[0]

    def f32(self) -> float:
        return struct.unpack("<f", self._take(4))[0]

    def f32_array(self, count: int) -> np.ndarray:
        offset = self.pos
        raw = self._take(4 * count)
        arr = np.frombuffer(raw, dtype="<f4").astype(np.float64)
        if not np.isfinite(arr).all():
            bad = int(np.flatnonzero(~np.isfinite(arr))[0])
            raise FormatError(
                f"{self.path}: non-finite value at byte {offset + 4 * bad}"
            )
        return arr

    def records(self, dtype: np.dtype, count: int) -> np.ndarray:
        """``count`` packed records of a structured dtype, as a read-only view."""
        start = self._advance(dtype.itemsize * count)
        return np.frombuffer(self.data, dtype=dtype, count=count, offset=start)

    def expect_field(self, name: str, got, want) -> None:
        """A header field read from the file must equal what the model needs."""
        if got != want:
            raise FormatError(f"{self.path}: header {name}={got} but the model expects {want}")

    def expect_eof(self) -> None:
        if self.pos != len(self.data):
            raise FormatError(
                f"{self.path}: {len(self.data) - self.pos} trailing bytes at byte {self.pos}"
            )


class Writer:
    """File parts in order; arrays are kept by reference until ``save`` writes them."""

    def __init__(self):
        self.parts: list = []

    def magic(self, m: bytes):
        self.parts.append(m)

    def u8(self, v: int):
        self.parts.append(struct.pack("<B", v))

    def u16(self, v: int):
        self.parts.append(struct.pack("<H", v))

    def u32(self, v: int):
        self.parts.append(struct.pack("<I", v))

    def u64(self, v: int):
        self.parts.append(struct.pack("<Q", v))

    def f32(self, v: float):
        self.parts.append(struct.pack("<f", v))

    def f32_array(self, arr: np.ndarray):
        self.parts.append(np.ascontiguousarray(arr, dtype="<f4"))

    def records(self, arr: np.ndarray):
        self.parts.append(np.ascontiguousarray(arr))

    def save(self, path) -> None:
        write_text_atomic(path, *self.parts)


def read_file(path) -> Reader:
    with open(path, "rb") as fh:
        return Reader(fh.read(), path=path)
