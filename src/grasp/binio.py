"""Little-endian binary file helpers shared by the on-disk formats.

Each format declares its layout once, as packed NumPy structured dtypes: a
header record that starts with ``magic S4`` and ``version <u2``, and a body
of records.  ``save`` writes and ``Reader`` reads through that one
declaration, so a field cannot be written one way and read another.  Reads
check every length before they touch the data and refuse non-finite floats,
so a loader can check a whole file before it assigns anything.
"""

from __future__ import annotations

import numpy as np

from .config import write_text_atomic
from .errors import FormatError


def save(path, header_dtype: np.dtype, values, *bodies: np.ndarray) -> None:
    """Write the header record ``values`` (every field, in order), then each body, atomically.

    Each body is a C-contiguous array, written as its bytes.
    """
    write_text_atomic(path, np.array(tuple(values), dtype=header_dtype).tobytes(), *bodies)


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

    def header(self, dtype: np.dtype, magic: bytes, versions) -> dict:
        """The header record's fields as Python values, once its magic and version check out."""
        start = self.pos
        got = self.data[start : start + len(magic)]
        if len(got) == len(magic) and got != magic:
            raise FormatError(
                f"{self.path}: bad magic at byte {start}: expected {magic!r}, got {got!r}"
            )
        record = self.records(dtype, 1)[0]
        fields = {name: record[name].item() for name in dtype.names}
        if fields["version"] not in versions:
            raise FormatError(
                f"{self.path}: unsupported version {fields['version']} "
                f"at byte {start + dtype.fields['version'][1]}"
            )
        return fields

    def records(self, dtype, count: int) -> np.ndarray:
        """``count`` packed records of a structured dtype, as a read-only view.

        ``dtype`` is anything ``np.dtype`` takes; a field shape too large for
        NumPy is a record no file holds, so it reads as truncated.  The first
        non-finite float of any field is refused at its byte.
        """
        try:
            dtype = np.dtype(dtype)
        except ValueError:
            raise FormatError(
                f"{self.path}: truncated at byte {self.pos} (record too large)"
            ) from None
        start = self._advance(dtype.itemsize * count)
        records = np.frombuffer(self.data, dtype=dtype, count=count, offset=start)
        bad_offsets = []
        for name, (field, offset, *_) in dtype.fields.items():
            if field.base.kind != "f":
                continue
            bad = ~np.isfinite(records[name])
            if bad.any():
                i = int(bad.argmax())  # flat index in file order: record, then element
                per_record = bad[0].size
                bad_offsets.append(start + i // per_record * dtype.itemsize + offset
                                   + i % per_record * field.base.itemsize)
        if bad_offsets:
            raise FormatError(f"{self.path}: non-finite value at byte {min(bad_offsets)}")
        return records

    def expect_field(self, name: str, got, want) -> None:
        """A header field read from the file must equal what the model needs."""
        if got != want:
            raise FormatError(f"{self.path}: header {name}={got} but the model expects {want}")

    def expect_eof(self) -> None:
        if self.pos != len(self.data):
            raise FormatError(
                f"{self.path}: {len(self.data) - self.pos} trailing bytes at byte {self.pos}"
            )


def read_file(path) -> Reader:
    with open(path, "rb") as fh:
        return Reader(fh.read(), path=path)
