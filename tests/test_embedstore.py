import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from grasp import embedstore as es
from grasp.errors import FormatError
from helpers import brute_force_topk, sequence


def pack_gemb(values: np.ndarray) -> bytes:
    """A GEMB file packed field by field with ``struct``, independent of numpy I/O."""
    rows, dim = values.shape
    out = [b"GEMB", struct.pack("<HBBQQ", 1, 1, 0, rows, dim)]
    out += [struct.pack(f"<{dim}f", *row.tolist()) for row in values]
    return b"".join(out)


class TestMatrixIO:
    def test_binary_round_trip(self, tmp_path):
        m = es.matrix_from_array(np.arange(6, dtype=np.float64).reshape(2, 3))
        path = tmp_path / "m.gemb"
        es.save_embedding_matrix(m, path)
        loaded = es.load_embedding_matrix(path)
        assert loaded.rows == 2 and loaded.dim == 3
        np.testing.assert_array_equal(loaded.values, m.values)

    def test_tsv_identity(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text("0\t1.0 0.0\n1\t0.0 1.0\n", encoding="utf-8")
        loaded = es.load_embedding_matrix(path)
        np.testing.assert_array_equal(loaded.values, np.eye(2))

    def test_tsv_inconsistent_width(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text("0\t1.0 2.0\n1\t1.0 2.0 3.0\n", encoding="utf-8")
        with pytest.raises(FormatError, match=r"m\.tsv:2: row width 3 != 2$"):
            es.load_embedding_matrix(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.gemb"
        m = es.matrix_from_array(np.ones((2, 2)))
        es.save_embedding_matrix(m, path)
        data = bytearray(path.read_bytes())
        data[:4] = b"XXXX"
        path.write_bytes(bytes(data))
        # a corrupted magic falls through to the TSV parser and fails there
        with pytest.raises(FormatError):
            es.load_embedding_matrix(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "m.gemb"
        es.save_embedding_matrix(es.matrix_from_array(np.ones((2, 2))), path)
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(FormatError, match="byte"):
            es.load_embedding_matrix(path)

    def test_non_finite_payload(self, tmp_path):
        path = tmp_path / "m.gemb"
        es.save_embedding_matrix(es.matrix_from_array(np.ones((1, 2))), path)
        data = bytearray(path.read_bytes())
        data[-4:] = np.array([np.nan], dtype="<f4").tobytes()
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match=f"non-finite value at byte {len(data) - 4}$"):
            es.load_embedding_matrix(path)

    def test_save_matches_struct_packing(self, tmp_path):
        values = np.random.default_rng(3).standard_normal((3, 5))
        path = tmp_path / "m.gemb"
        es.save_embedding_matrix(es.matrix_from_array(values), path)
        assert path.read_bytes() == pack_gemb(values)

    @pytest.mark.parametrize("rows,dim", [(1, 2**31), (2**62, 2**40)])
    def test_huge_shape_is_format_error(self, tmp_path, rows, dim):
        path = tmp_path / "m.gemb"
        path.write_bytes(b"GEMB" + struct.pack("<HBBQQ", 1, 1, 0, rows, dim))
        with pytest.raises(FormatError, match="truncated at byte 24"):
            es.load_embedding_matrix(path)

    @settings(max_examples=100, deadline=None)
    @given(arrays(np.float32, st.tuples(st.integers(1, 6), st.integers(1, 5)),
                  elements=st.floats(width=32, allow_nan=False, allow_infinity=False)))
    def test_binary_round_trip_generated(self, tmp_path_factory, values):
        path = tmp_path_factory.mktemp("gemb") / "m.gemb"
        es.save_embedding_matrix(es.matrix_from_array(values), path)
        loaded = es.load_embedding_matrix(path)
        assert loaded.values.dtype == np.float64
        np.testing.assert_array_equal(loaded.values, values.astype(np.float64))
        data = path.read_bytes()
        es.save_embedding_matrix(loaded, path)
        assert path.read_bytes() == data

    def test_truncation_at_every_offset(self, tmp_path):
        # Cuts inside the magic fall through to the TSV reader, which refuses them too.
        path = tmp_path / "m.gemb"
        es.save_embedding_matrix(es.matrix_from_array(np.arange(6.0).reshape(2, 3)), path)
        data = path.read_bytes()
        for cut in range(len(data)):
            path.write_bytes(data[:cut])
            want = "truncated" if cut >= 4 else r"no embedding rows|m\.gemb:1: "
            with pytest.raises(FormatError, match=want):
                es.load_embedding_matrix(path)

    def test_values_are_read_only(self):
        m = es.matrix_from_array(np.ones((2, 2)))
        with pytest.raises(ValueError):
            m.values[0, 0] = 5.0


class TestNormalize:
    def test_three_four_five(self):
        m = es.matrix_from_array(np.array([[3.0, 4.0]]))
        np.testing.assert_allclose(es.normalize_rows(m), [[0.6, 0.8]], atol=1e-12)

    def test_unit_row_unchanged(self):
        m = es.matrix_from_array(np.array([[1.0, 0.0]]))
        np.testing.assert_allclose(es.normalize_rows(m), m.values, atol=1e-12)

    def test_zero_row_stays_zero(self):
        m = es.matrix_from_array(np.array([[0.0, 0.0], [1.0, 1.0]]))
        n = es.normalize_rows(m)
        np.testing.assert_array_equal(n[0], [0.0, 0.0])
        np.testing.assert_allclose(n[1], [2 ** -0.5] * 2, atol=1e-12)


def neighbor_ids(values, k: int) -> np.ndarray:
    return es.build_neighbor_cache(es.matrix_from_array(values), k).neighbor_ids


class TestTopK:
    """Each row's neighbors in the built cache, against hand-worked cases and the oracle."""

    def test_duplicate_beats_orthogonal(self):
        assert neighbor_ids([[1.0, 0], [1.0, 0], [0, 1.0]], 1)[0].tolist() == [1]

    def test_only_candidate(self):
        assert neighbor_ids([[1.0, 0], [0, 1.0]], 1)[0].tolist() == [1]

    def test_tie_broken_by_ascending_index(self):
        rows = np.array([
            [1.0, 0.0], [0.0, 1.0], [0.5, 0.5],
            [1.0, 0.0],  # duplicate of the query at index 3
            [0.3, 0.9],
            [1.0, 0.0],  # and at index 5
        ])
        assert neighbor_ids(rows, 2)[0].tolist() == [3, 5]

    def test_k_out_of_range(self):
        m = es.matrix_from_array(np.eye(3))
        for k in (0, 3):
            with pytest.raises(ValueError):
                es.build_neighbor_cache(m, k)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(123)
        for trial in range(8):
            rows = int(rng.integers(5, 40))
            dim = int(rng.integers(2, 16))
            values = rng.standard_normal((rows, dim))
            k = int(rng.integers(1, rows))
            cache = es.build_neighbor_cache(es.matrix_from_array(values), k)
            for row in range(0, rows, 3):
                expected = [i for i, _ in brute_force_topk(values, row, k)]
                assert cache.neighbor_ids[row].tolist() == expected
                np.testing.assert_allclose(
                    cache.pooled_means[row], values[expected].mean(axis=0), rtol=0, atol=1e-12
                )

    def test_self_exclusion_property(self):
        rng = np.random.default_rng(9)
        ids = neighbor_ids(rng.standard_normal((30, 6)), 10)
        for row in range(30):
            assert row not in ids[row]

    def test_permutation_equivariance(self):
        # neighbors of the permuted query map back through the permutation
        # (random data is tie-free, so order is preserved too)
        rng = np.random.default_rng(17)
        values = rng.standard_normal((12, 5))
        perm = rng.permutation(12)
        base, permuted = neighbor_ids(values, 4), neighbor_ids(values[perm], 4)
        inverse = np.argsort(perm)
        for row in range(12):
            assert perm[permuted[inverse[row]]].tolist() == base[row].tolist()

    def test_zero_row_query_gets_smallest_indices(self):
        values = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        assert neighbor_ids(values, 2)[0].tolist() == [1, 2]

    def test_copies_tie_whatever_the_blas_tile(self):
        # Eleven copies of one row: a float64 GEMM can round the copies in
        # its tail tile differently from the rest, which put copy 8 first.
        values = np.array([[1.0, -1.0]] + [[1.0, 1.0]] * 11)
        assert neighbor_ids(values, 1)[0].tolist() == [1]


class TestNeighborCache:
    def test_identical_rows_pool_to_themselves(self):
        v = np.array([2.0, -1.0, 0.5])
        m = es.matrix_from_array(np.stack([v, v, v]))
        cache = es.build_neighbor_cache(m, 2)
        for row in range(3):
            np.testing.assert_allclose(cache.pooled_means[row], v, atol=1e-12)

    def test_pool_of_orthogonal_neighbors(self):
        rows = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0] / np.sqrt(2)])
        cache = es.build_neighbor_cache(es.matrix_from_array(rows), 2)
        np.testing.assert_allclose(cache.pooled_means[2], [0.5, 0.5], atol=1e-12)

    def test_pooled_mean_matches_definition(self):
        rng = np.random.default_rng(31)
        values = rng.standard_normal((25, 7)) * 3.0
        m = es.matrix_from_array(values)
        cache = es.build_neighbor_cache(m, 4)
        for row in range(25):
            np.testing.assert_allclose(
                cache.pooled_means[row], values[cache.neighbor_ids[row]].mean(axis=0),
                atol=1e-6,
            )
            assert row not in cache.neighbor_ids[row]

    def test_pooling_scales_linearly(self):
        rng = np.random.default_rng(4)
        values = rng.standard_normal((10, 3))
        base = es.build_neighbor_cache(es.matrix_from_array(values), 3)
        scaled = es.build_neighbor_cache(es.matrix_from_array(values * 2.5), 3)
        np.testing.assert_array_equal(base.neighbor_ids, scaled.neighbor_ids)
        np.testing.assert_allclose(scaled.pooled_means, base.pooled_means * 2.5, atol=1e-9)

    def test_block_size_is_output_invisible(self, monkeypatch):
        rng = np.random.default_rng(77)
        m = es.matrix_from_array(rng.standard_normal((40, 6)))
        monkeypatch.setattr(es, "BLOCK_ROWS", 3)
        a = es.build_neighbor_cache(m, 5)
        monkeypatch.setattr(es, "BLOCK_ROWS", 512)
        b = es.build_neighbor_cache(m, 5)
        np.testing.assert_array_equal(a.neighbor_ids, b.neighbor_ids)
        np.testing.assert_array_equal(a.pooled_means, b.pooled_means)

    def test_cache_file_round_trip_and_determinism(self, tmp_path):
        rng = np.random.default_rng(55)
        m = es.matrix_from_array(rng.standard_normal((20, 4)))
        cache = es.build_neighbor_cache(m, 3)
        p1, p2 = tmp_path / "a.gnbc", tmp_path / "b.gnbc"
        es.save_neighbor_cache(cache, p1)
        es.save_neighbor_cache(es.build_neighbor_cache(m, 3), p2)
        assert p1.read_bytes() == p2.read_bytes()
        loaded = es.load_neighbor_cache(p1)
        assert loaded.k == 3
        np.testing.assert_array_equal(loaded.neighbor_ids, cache.neighbor_ids)
        np.testing.assert_allclose(
            loaded.pooled_means, cache.pooled_means.astype(np.float32), atol=0
        )

    def test_cache_bad_magic(self, tmp_path):
        path = tmp_path / "bad.gnbc"
        path.write_bytes(b"NOPE" + b"\x00" * 30)
        with pytest.raises(FormatError, match="bad magic at byte 0: expected b'GNBC', got b'NOPE'"):
            es.load_neighbor_cache(path)

    def test_k_bounds(self):
        m = es.matrix_from_array(np.eye(3))
        with pytest.raises(ValueError):
            es.build_neighbor_cache(m, 3)


def lexsort_topk(sims: np.ndarray, row: int, k: int) -> list[int]:
    """Per-row (-sim, index) order of one similarity row, self excluded."""
    s = sims.copy()
    s[row] = -np.inf
    return np.lexsort((np.arange(len(s)), -s))[:k].tolist()


def all_pair_cosines(m) -> np.ndarray:
    """The (rows, rows) table of ``pair_cosines`` the build ranks."""
    left, right = np.divmod(np.arange(m.rows * m.rows), m.rows)
    return es.pair_cosines(es.normalize_rows(m), left, right).reshape(m.rows, m.rows)


# Integer entries in {-1, 0, 1}: many exact ties, zero rows, duplicates.
tie_heavy = st.tuples(st.integers(2, 24), st.integers(1, 5)).flatmap(
    lambda shape: arrays(np.float64, shape, elements=st.sampled_from([-1.0, 0.0, 1.0]))
)


class TestSelectionProperties:
    """The selection equals a full per-row lexsort of the values it ranks:
    ``pair_cosines`` over every pair of rows."""

    @settings(max_examples=150, deadline=None)
    @given(tie_heavy)
    @example(np.zeros((6, 3)))
    @example(np.array([[1.0, 0.0]] * 5 + [[0.0, 0.0]] * 3))
    def test_build_equals_per_row_lexsort(self, values):
        m = es.matrix_from_array(values)
        sims = all_pair_cosines(m)
        rows = len(values)
        for k in range(1, rows):
            ids = es.build_neighbor_cache(m, k).neighbor_ids
            assert ids.tolist() == [lexsort_topk(sims[row], row, k) for row in range(rows)]

    @settings(max_examples=150, deadline=None)
    @given(st.integers(2, 4).flatmap(lambda groups: st.tuples(
        st.just(groups),
        st.tuples(st.integers(2 * groups, 24), st.integers(1, 5)).flatmap(
            lambda shape: arrays(np.float64, shape, elements=st.sampled_from([-1.0, 0.0, 1.0]))
        ),
    )))
    @example((3, np.zeros((7, 2))))
    @example((4, np.array([[1.0, 0.0]] * 9 + [[0.0, 1.0]] * 2)))
    def test_grouped_prefilter_equals_per_row_lexsort(self, case):
        # A few groups reach the prefilter (n >= 2 * GROUPS, k < GROUPS) on
        # small matrices, with n % GROUPS tail columns and k up to GROUPS - 1;
        # larger k takes the one-column-per-group path.
        groups, values = case
        m = es.matrix_from_array(values)
        sims = all_pair_cosines(m)
        rows = len(values)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(es, "GROUPS", groups)
            for k in range(1, rows):
                ids = es.build_neighbor_cache(m, k).neighbor_ids
                assert ids.tolist() == [lexsort_topk(sims[row], row, k) for row in range(rows)]

    def test_grouped_prefilter_matches_brute_force_oracle(self):
        # Enough rows for the default GROUPS to prefilter, a tail of 37
        # columns, exact duplicates and zero rows.
        rng = np.random.default_rng(2024)
        rows = 2 * es.GROUPS + 37
        values = rng.standard_normal((rows, 8))
        values[rng.choice(rows, 60, replace=False)] = values[rng.choice(rows, 60)]
        values[[5, 300, rows - 1]] = 0.0
        k = 10
        cache = es.build_neighbor_cache(es.matrix_from_array(values), k)
        _, inverse, counts = np.unique(values, axis=0, return_inverse=True, return_counts=True)
        checked = np.union1d(np.flatnonzero(counts[inverse.reshape(-1)] > 1),
                             np.arange(0, rows, 9))
        for row in checked:
            expected = [i for i, _ in brute_force_topk(values, row, k)]
            assert cache.neighbor_ids[row].tolist() == expected

    def test_copies_in_the_last_rows_match_brute_force_oracle(self):
        # Copies in the last n % 8 rows of an odd-sized matrix, where a
        # BLAS kernel's tail tile rounds them unlike their originals.  Every
        # row whose k + 2 nearest by a float64 product (itself included)
        # name a copied row is checked, and a sample of the rest.
        rng = np.random.default_rng(1)
        rows, k = 1005, 10
        values = rng.standard_normal((rows, 64))
        tail = rows % 8
        originals = rng.choice(rows - tail, tail, replace=False)
        values[rows - tail:] = values[originals]
        copied = np.concatenate([originals, np.arange(rows - tail, rows)])
        unit = es.normalize_rows(es.matrix_from_array(values))
        near = np.argsort(-(unit @ unit.T), axis=1, kind="stable")[:, : k + 2]
        checked = np.union1d(np.flatnonzero(np.isin(near, copied).any(axis=1)),
                             np.arange(0, rows, 25))
        ids = neighbor_ids(values, k)
        for row in checked:
            assert ids[row].tolist() == [i for i, _ in brute_force_topk(values, row, k)], row

    def test_band_spanning_every_column(self):
        # Copies fill every group, so each copy's band is all the copies, and
        # the zero row's cosines are all 0, so its band is every column.
        rows = 2 * es.GROUPS + 1
        values = np.zeros((rows, 3))
        values[:-1] = [1.0, 2.0, -0.5]
        for k in (1, 10, es.GROUPS - 1):
            ids = neighbor_ids(values, k)
            for row in range(rows - 1):
                assert ids[row].tolist() == [j for j in range(rows) if j != row][:k]
            assert ids[-1].tolist() == list(range(k))


GNBC_HEADER = 26  # magic 4 | version 2 | k 4 | rows 8 | dim 8


def pack_gnbc(ids: np.ndarray, means: np.ndarray, rows=None) -> bytes:
    """A GNBC file packed field by field with ``struct``, independent of numpy I/O."""
    k, dim = ids.shape[1], means.shape[1]
    out = [b"GNBC", struct.pack("<HIQQ", 1, k, len(ids) if rows is None else rows, dim)]
    for row_ids, mean in zip(ids, means):
        out.append(struct.pack(f"<{k}Q", *row_ids.tolist()))
        out.append(struct.pack(f"<{dim}f", *mean.tolist()))
    return b"".join(out)


class TestGnbcFile:
    @pytest.fixture
    def cache(self):
        rng = np.random.default_rng(8)
        return es.build_neighbor_cache(es.matrix_from_array(rng.standard_normal((6, 3))), 2)

    def _load(self, tmp_path, data: bytes):
        path = tmp_path / "c.gnbc"
        path.write_bytes(data)
        return es.load_neighbor_cache(path)

    def test_save_matches_struct_packing(self, cache, tmp_path):
        path = tmp_path / "c.gnbc"
        es.save_neighbor_cache(cache, path)
        assert path.read_bytes() == pack_gnbc(cache.neighbor_ids, cache.pooled_means)

    def test_truncation_at_every_offset(self, cache, tmp_path):
        data = pack_gnbc(cache.neighbor_ids, cache.pooled_means)
        for cut in range(len(data)):
            with pytest.raises(FormatError, match="truncated|magic"):
                self._load(tmp_path, data[:cut])

    def test_huge_row_count_is_format_error(self, cache, tmp_path):
        data = pack_gnbc(cache.neighbor_ids, cache.pooled_means, rows=2**40)
        with pytest.raises(FormatError, match="truncated at byte 26"):
            self._load(tmp_path, data)

    @pytest.mark.parametrize("k,dim", [(2**31, 3), (2, 2**31), (2, 2**40)])
    def test_huge_record_is_format_error(self, cache, tmp_path, k, dim):
        data = b"GNBC" + struct.pack("<HIQQ", 1, k, 6, dim)
        with pytest.raises(FormatError, match="truncated at byte 26"):
            self._load(tmp_path, data)

    def test_trailing_bytes_refused(self, cache, tmp_path):
        data = pack_gnbc(cache.neighbor_ids, cache.pooled_means)
        with pytest.raises(FormatError, match=f"1 trailing bytes at byte {len(data)}"):
            self._load(tmp_path, data + b"\0")

    def test_self_neighbor_refused(self, cache, tmp_path):
        ids = cache.neighbor_ids.copy()
        ids[4, 1] = 4
        with pytest.raises(FormatError, match="lists itself"):
            self._load(tmp_path, pack_gnbc(ids, cache.pooled_means))

    def test_out_of_range_id_refused(self, cache, tmp_path):
        ids = cache.neighbor_ids.copy()
        ids[2, 0] = 6
        with pytest.raises(FormatError, match="out of range"):
            self._load(tmp_path, pack_gnbc(ids, cache.pooled_means))

    @pytest.mark.parametrize("k,dim", [(0, 3), (2, 0), (0, 0)])
    def test_empty_record_fields_refused(self, tmp_path, k, dim):
        data = pack_gnbc(np.zeros((4, k), dtype=np.uint64), np.zeros((4, dim)))
        with pytest.raises(FormatError, match="k and dim must be positive"):
            self._load(tmp_path, data)

    def test_nan_mean_reported_at_its_byte(self, cache, tmp_path):
        means = cache.pooled_means.copy()
        means[3, 2] = np.nan
        offset = GNBC_HEADER + 3 * (8 * 2 + 4 * 3) + 8 * 2 + 4 * 2
        with pytest.raises(FormatError, match=f"non-finite value at byte {offset}$"):
            self._load(tmp_path, pack_gnbc(cache.neighbor_ids, means))


class TestSynthCorpus:
    def test_zero_noise_exact_centroids(self):
        _, _, items = es.synth_corpus(20, 12, 4, dim=4, noise=0.0, seed=1)
        eye = np.eye(4)
        for i in range(12):
            np.testing.assert_array_equal(items.values[i], eye[i % 4])

    def test_zero_noise_in_cluster_retrieval(self):
        _, _, items = es.synth_corpus(10, 16, 4, dim=6, noise=0.0, seed=2)
        cache = es.build_neighbor_cache(items, 3)  # cluster size 4 -> k=3
        for row in range(16):
            cluster = row % 4
            assert (cache.neighbor_ids[row] % 4 == cluster).all()
            np.testing.assert_array_equal(cache.pooled_means[row], items.values[row])

    def test_seed_determinism(self):
        a = es.synth_corpus(30, 20, 4, dim=8, noise=0.2, seed=9)
        b = es.synth_corpus(30, 20, 4, dim=8, noise=0.2, seed=9)
        np.testing.assert_array_equal(a[0].items, b[0].items)
        np.testing.assert_array_equal(a[0].offsets, b[0].offsets)
        np.testing.assert_array_equal(a[1].values, b[1].values)
        np.testing.assert_array_equal(a[2].values, b[2].values)

    def test_sequence_lengths_clamped(self):
        ds, _, _ = es.synth_corpus(200, 40, 4, dim=8, noise=0.1, seed=3)
        lengths = ds.user_frequency
        assert lengths.min() >= 3 and lengths.max() <= 50

    def test_infeasible_parameters(self):
        with pytest.raises(ValueError):
            es.synth_corpus(10, 4, 8, dim=16, noise=0.0, seed=0)
        with pytest.raises(ValueError):
            es.synth_corpus(10, 20, 8, dim=4, noise=0.0, seed=0)

    def test_log_round_trip(self, tmp_path):
        from grasp.dataset import load_interactions

        ds, _, _ = es.synth_corpus(25, 15, 3, dim=4, noise=0.1, seed=6)
        path = tmp_path / "log.tsv"
        es.write_interaction_log(ds, path)
        loaded = load_interactions(path, min_user_len=1, min_item_freq=1)
        assert loaded.interaction_count == ds.interaction_count
        for u in range(loaded.user_count):
            raw_u = int(loaded.user_raw_ids[u])
            raw_items = [int(loaded.item_raw_ids[i]) for i in sequence(loaded, u)]
            assert raw_items == sequence(ds, raw_u)
