"""Frozen semantic embedding matrices and exact top-k cosine retrieval.

Matrices are immutable once constructed (the backing arrays are marked
read-only) so that nothing downstream -- training included -- can mutate
the semantic databases.  Retrieval has brute-force semantics: the k most
cosine-similar rows excluding the query row itself, in (-cosine, index)
order over float64 cosines that ``pair_cosines`` computes from each pair
of rows alone, so identical rows tie exactly.  A float32 GEMM only
bounds which columns can qualify: it is within ``e = (d + 2) * 2**-24``
of the float64 cosine, so each row ranks just its band, the columns at
or above its k-th largest group maximum minus ``4 * e``, which holds
every column of the exact top-k (``build_neighbor_cache``).  Neighbor
means are pooled from the rows of the matrix as given (similarity is
measured on internally normalized copies); zero-norm rows have
similarity 0 to everything but remain queryable.

On-disk formats:

* ``GEMB`` matrix file (``GEMB_HEADER``, then one ``_gemb_row`` per row):
  magic ``GEMB`` | version u16 LE = 1 | dtype u8 = 1 (32-bit IEEE-754) |
  reserved u8 = 0 | rows u64 | dim u64 | payload rows x dim float32 LE
  row-major.  TSV alternative: ``dense_id<TAB>space-separated decimals``.
* ``GNBC`` neighbor cache (``GNBC_HEADER``, then one ``_gnbc_record`` per
  row): magic ``GNBC`` | version u16 | k u32 | rows u64 | dim u64 | per
  row: k neighbor ids u64 then dim pooled-mean float32.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import binio
from .config import decode_text, write_text_atomic
from .dataset import InteractionDataset
from .errors import DataError, FormatError

GEMB_MAGIC = b"GEMB"
GNBC_MAGIC = b"GNBC"
FORMAT_VERSION = 1
DTYPE_F32 = 1

GEMB_HEADER = np.dtype([("magic", "S4"), ("version", "<u2"), ("dtype", "u1"),
                        ("reserved", "u1"), ("rows", "<u8"), ("dim", "<u8")])
GNBC_HEADER = np.dtype([("magic", "S4"), ("version", "<u2"), ("k", "<u4"),
                        ("rows", "<u8"), ("dim", "<u8")])


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class EmbeddingMatrix:
    """Immutable row-major matrix of semantic embeddings; ``rows`` and ``dim`` read its shape."""

    values: np.ndarray

    def __post_init__(self):
        if self.values.ndim != 2:
            raise ValueError(f"expected a 2-d array, got shape {self.values.shape}")
        if self.rows and not np.isfinite(self.values).all():
            raise ValueError("embedding matrix contains non-finite values")
        object.__setattr__(self, "values", _frozen(self.values))

    @property
    def rows(self) -> int:
        return self.values.shape[0]

    @property
    def dim(self) -> int:
        return self.values.shape[1]


def matrix_from_array(values: np.ndarray) -> EmbeddingMatrix:
    return EmbeddingMatrix(np.asarray(values, dtype=np.float64))


def normalize_rows(m: EmbeddingMatrix) -> np.ndarray:
    """``m``'s rows scaled to unit L2 norm; zero rows stay zero."""
    norms = np.linalg.norm(m.values, axis=1, keepdims=True)
    return m.values / np.where(norms == 0.0, 1.0, norms)


# Column groups of the band floor: column j belongs to group j % GROUPS,
# so a block's group maxima are one elementwise max over contiguous
# slices.  The k-th largest maximum bounds the k-th value from above; with
# more groups fewer of the k best columns share one, so the bound is
# tighter, and with fewer the maxima are cheaper to rank.
GROUPS = 256

# Pairs per gather of ``pair_cosines``: bounds its two (pairs, dim)
# temporaries, which a row with a wide band (a zero row) would otherwise
# make as large as the whole matrix.
PAIR_CHUNK = 1024


def pair_cosines(unit: np.ndarray, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Float64 dot product of each row pair ``(unit[left[p]], unit[right[p]])``.

    Each value is computed from its two rows alone, so it depends only on
    their values: identical rows get identical values, whatever their
    position, the block or the BLAS.  These are the values the top-k
    selection ranks.
    """
    out = np.empty(len(left))
    for start in range(0, len(left), PAIR_CHUNK):
        part = slice(start, start + PAIR_CHUNK)
        np.einsum("pd,pd->p", unit[left[part]], unit[right[part]], out=out[part])
    return out


def _select_topk(sims: np.ndarray, unit: np.ndarray, rows: np.ndarray, k: int) -> np.ndarray:
    """Ids of each query row's k best columns, by (-cosine, index).

    ``sims`` is the float32 product of the query rows ``unit[rows]`` with
    every row of ``unit``; its self column is set to -inf in place.  Only
    the band is ranked, on ``pair_cosines`` (see ``build_neighbor_cache``).
    With fewer than 2 * GROUPS columns, or k >= GROUPS, every column is
    its own group.
    """
    b, n = sims.shape
    sims[np.arange(b), rows] = -np.inf
    g = GROUPS if n >= 2 * GROUPS and k < GROUPS else n
    span = n - n % g
    gmax = sims[:, :span].reshape(b, span // g, g).max(axis=1) if g < n else sims
    tol = 4 * (unit.shape[1] + 2) * 2.0**-24  # 4 * e, subtracted in float32 like the maxima
    floor = np.partition(gmax, g - k, axis=1)[:, g - k, None] - tol
    # Row-major order: r ascends, as searchsorted needs.
    r, c = np.divmod(np.flatnonzero(sims >= floor), n)
    order = np.lexsort((c, -pair_cosines(unit, rows[r], c), r))
    return c[order][np.searchsorted(r, np.arange(b))[:, None] + np.arange(k)]


@dataclass(frozen=True)
class NeighborCache:
    """Precomputed top-k neighbor ids and pooled means for every row."""

    k: int
    neighbor_ids: np.ndarray
    pooled_means: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "neighbor_ids", _frozen(self.neighbor_ids))
        object.__setattr__(self, "pooled_means", _frozen(self.pooled_means))

    @property
    def rows(self) -> int:
        return self.neighbor_ids.shape[0]

    @property
    def dim(self) -> int:
        return self.pooled_means.shape[1]


# Query rows per similarity GEMM: a small block keeps the selection's and
# the pooling's temporaries small.
BLOCK_ROWS = 64


def build_neighbor_cache(m: EmbeddingMatrix, k: int) -> NeighborCache:
    """Top-k neighbor ids plus the mean of each row's k neighbors.

    Each row's neighbors are the first k in (-cosine, index) order over
    ``pair_cosines``, with the row itself excluded.  Rows are normalized
    in float64 and cast to float32 once, and one float32 GEMM per
    ``BLOCK_ROWS`` query rows, into one reused buffer, gives each cosine
    to within ``e = (d + 2) * 2**-24`` (2 * 2**-24 from rounding the
    inputs, d * 2**-24 from the float32 sum).  So at most k - 1 of a row's
    ``GROUPS`` group maxima exceed its k-th float64 cosine by more than e,
    and the k-th largest maximum is at most that cosine plus e.  Each
    row's band is the columns at or above that maximum minus ``4 * e``;
    every column of the exact top-k and every tie at its k-th value is at
    least the k-th cosine minus e, so it is in the band, and only the band
    is ranked in float64 (``_select_topk``).  Identical rows get identical
    float64 values, so copies tie whatever the BLAS tile, thread count or
    block size; a zero row or a run of copies just gets a wide band.
    Distinct rows that are tied mathematically (proportional rows, say)
    may still differ in the last bit; their order follows that rounding,
    which depends on the two rows only.  With one OpenBLAS thread on an
    Intel Xeon, at dim 64 and k=10, 2048 rows take 0.03-0.04 s, 8192 rows
    0.25-0.38 s and 32,768 rows 4.2-5.4 s.  Pooled means average the rows
    of ``m`` as given, so callers pooling raw embeddings simply pass the
    raw matrix.
    """
    if not (1 <= k <= m.rows - 1):
        raise ValueError(f"k={k} out of range: need 1 <= k <= rows-1 = {m.rows - 1}")
    unit = normalize_rows(m)
    # The columns as one contiguous (dim, rows) float32 copy: a GEMM
    # against it ran faster than against the transposed view.
    cols = np.ascontiguousarray(unit.T, dtype=np.float32)
    ids = np.empty((m.rows, k), dtype=np.int64)
    pooled = np.empty((m.rows, m.dim), dtype=np.float64)
    # One buffer for every block: a fresh block-sized array per GEMM is a
    # new mmap whose pages fault in each time, which cost about a third of
    # an 8k build.
    sims = np.empty((min(BLOCK_ROWS, m.rows), m.rows), dtype=np.float32)
    for start in range(0, m.rows, BLOCK_ROWS):
        stop = min(start + BLOCK_ROWS, m.rows)
        np.matmul(cols[:, start:stop].T, cols, out=sims[: stop - start])
        ids[start:stop] = _select_topk(sims[: stop - start], unit, np.arange(start, stop), k)
        pooled[start:stop] = m.values[ids[start:stop]].mean(axis=1)
    return NeighborCache(k=k, neighbor_ids=ids, pooled_means=pooled)


# ---------------------------------------------------------------------------
# Matrix / cache persistence


def _gemb_row(dim: int) -> list:
    return [("values", "<f4", (dim,))]


def save_embedding_matrix(m: EmbeddingMatrix, path) -> None:
    body = np.empty(m.rows, _gemb_row(m.dim))
    body["values"] = m.values
    binio.save(path, GEMB_HEADER, (GEMB_MAGIC, FORMAT_VERSION, DTYPE_F32, 0, m.rows, m.dim), body)


def _load_binary_matrix(r: binio.Reader) -> EmbeddingMatrix:
    head = r.header(GEMB_HEADER, GEMB_MAGIC, (FORMAT_VERSION,))
    if head["dtype"] != DTYPE_F32:
        raise FormatError(f"{r.path}: unsupported dtype code {head['dtype']} "
                          f"at byte {GEMB_HEADER.fields['dtype'][1]}")
    rows, dim = head["rows"], head["dim"]
    if dim == 0:
        raise FormatError(f"{r.path}: dim must be positive")
    values = r.records(_gemb_row(dim), rows)["values"]
    r.expect_eof()
    return EmbeddingMatrix(values.astype(np.float64))


def _load_tsv_matrix(r: binio.Reader) -> EmbeddingMatrix:
    try:
        text = decode_text(r.data, r.path)
    except DataError as exc:
        raise FormatError(str(exc)) from None
    rows: list[np.ndarray] = []
    width = None
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise FormatError(f"{r.path}:{lineno}: expected dense_id<TAB>values")
        try:
            dense_id = int(parts[0])
        except ValueError:
            raise FormatError(f"{r.path}:{lineno}: non-integer dense id") from None
        if dense_id != len(rows):
            raise FormatError(f"{r.path}:{lineno}: dense ids must be contiguous from 0")
        try:
            vec = np.array([float(v) for v in parts[1].split()], dtype=np.float64)
        except ValueError:
            raise FormatError(f"{r.path}:{lineno}: non-numeric value") from None
        if width is None:
            width = len(vec)
        elif len(vec) != width:
            raise FormatError(f"{r.path}:{lineno}: row width {len(vec)} != {width}")
        if not np.isfinite(vec).all():
            raise FormatError(f"{r.path}:{lineno}: non-finite value")
        rows.append(vec)
    if not rows:
        raise FormatError(f"{r.path}: no embedding rows found")
    return matrix_from_array(np.stack(rows))


def load_embedding_matrix(path) -> EmbeddingMatrix:
    """Load a GEMB binary file or the TSV alternative (sniffed by magic), reading it once."""
    r = binio.read_file(path)
    return _load_binary_matrix(r) if r.data.startswith(GEMB_MAGIC) else _load_tsv_matrix(r)


def _gnbc_record(k: int, dim: int) -> list:
    return [("ids", "<u8", (k,)), ("mean", "<f4", (dim,))]


def save_neighbor_cache(cache: NeighborCache, path) -> None:
    records = np.empty(cache.rows, dtype=_gnbc_record(cache.k, cache.dim))
    records["ids"] = cache.neighbor_ids
    records["mean"] = cache.pooled_means
    binio.save(path, GNBC_HEADER,
               (GNBC_MAGIC, FORMAT_VERSION, cache.k, cache.rows, cache.dim), records)


def load_neighbor_cache(path) -> NeighborCache:
    r = binio.read_file(path)
    head = r.header(GNBC_HEADER, GNBC_MAGIC, (FORMAT_VERSION,))
    k, rows, dim = head["k"], head["rows"], head["dim"]
    if k == 0 or dim == 0:
        raise FormatError(f"{path}: k and dim must be positive")
    records = r.records(_gnbc_record(k, dim), rows)
    r.expect_eof()
    ids = records["ids"].astype(np.int64)
    if rows and (ids.min() < 0 or ids.max() >= rows):
        raise FormatError(f"{path}: neighbor id out of range")
    if (ids == np.arange(rows)[:, None]).any():
        raise FormatError(f"{path}: a row lists itself among its neighbors")
    return NeighborCache(k=k, neighbor_ids=ids, pooled_means=records["mean"].astype(np.float64))


def as_gnbc(cache: NeighborCache) -> NeighborCache:
    """``cache`` as a GNBC file returns it: pooled means rounded to float32, held as float64."""
    return replace(cache, pooled_means=cache.pooled_means.astype(np.float32).astype(np.float64))


# ---------------------------------------------------------------------------
# Synthetic cluster-structured corpus


def synth_corpus(
    n_users: int, m_items: int, n_clusters: int, dim: int, noise: float, seed: int
) -> tuple[InteractionDataset, EmbeddingMatrix, EmbeddingMatrix]:
    """Generate a desk-scale corpus with known cluster structure.

    Items are assigned round-robin to clusters whose centroids are
    orthogonal unit vectors; item embeddings are centroid + Gaussian noise.
    Each user picks a home cluster and draws a geometric-length sequence
    (mean 8, clamped to [3, 50]) of 80% in-cluster items; within a cluster
    item popularity falls off harmonically (weight 1/(1+rank)) so the
    corpus has a head/tail frequency profile.  User embeddings are the mean
    of their items' embeddings + noise.  Fully deterministic for a seed.
    """
    if n_clusters > m_items:
        raise ValueError(f"n_clusters={n_clusters} exceeds m_items={m_items}")
    if dim < n_clusters:
        raise ValueError(f"dim={dim} must be >= n_clusters={n_clusters}")
    if n_users < 1 or m_items < 2 or n_clusters < 1:
        raise ValueError("need at least 1 user, 2 items and 1 cluster")

    rng = np.random.default_rng(np.random.SeedSequence(seed))
    centroids = np.eye(dim, dtype=np.float64)[:n_clusters]
    clusters = np.arange(m_items, dtype=np.int64) % n_clusters
    item_values = centroids[clusters] + noise * rng.standard_normal((m_items, dim))

    cluster_members = [np.flatnonzero(clusters == c) for c in range(n_clusters)]
    member_weights = []
    for members in cluster_members:
        w = 1.0 / (1.0 + np.arange(len(members), dtype=np.float64))
        member_weights.append(w / w.sum())

    sequences = []
    for user in range(n_users):
        home = int(rng.integers(n_clusters))
        length = int(np.clip(rng.geometric(1.0 / 8.0), 3, 50))
        seq = []
        for _ in range(length):
            if rng.random() < 0.8 or n_clusters == 1:
                item = int(rng.choice(cluster_members[home], p=member_weights[home]))
            else:
                item = int(rng.integers(m_items))
                while clusters[item] == home:
                    item = int(rng.integers(m_items))
            seq.append(item)
        sequences.append(seq)

    user_values = np.array([item_values[seq].mean(axis=0) for seq in sequences])
    user_values += noise * rng.standard_normal((n_users, dim))
    user_freq = np.array([len(seq) for seq in sequences], dtype=np.int64)
    flat = np.concatenate(sequences, dtype=np.int64)

    ds = InteractionDataset(
        user_count=n_users,
        item_count=m_items,
        items=flat,
        offsets=np.r_[0, np.cumsum(user_freq)],
        item_frequency=np.bincount(flat, minlength=m_items),
        user_frequency=user_freq,
        user_raw_ids=[str(u) for u in range(n_users)],
        item_raw_ids=[str(i) for i in range(m_items)],
    )
    return ds, matrix_from_array(user_values), matrix_from_array(item_values)


def write_interaction_log(ds: InteractionDataset, path) -> None:
    """Write a dataset back out in the standard log format (timestamp = position)."""
    users, items, bounds = ds.user_raw_ids, ds.item_raw_ids, ds.offsets.tolist()
    write_text_atomic(path, "".join(
        f"{users[user]}\t{items[item]}\t{ts}\n"
        for user in range(ds.user_count)
        for ts, item in enumerate(ds.items[bounds[user] : bounds[user + 1]].tolist())
    ))
