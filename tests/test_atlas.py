"""Atlas retrieval: exact-search guarantees, credibility, BiLRP of retrieved
pairs, and the index file format."""

import tracemalloc

import numpy as np
import pytest

from relguide import atlas
from relguide.atlas import (
    AtlasIndex,
    build_index,
    credibility,
    load_index,
    query_knn,
    query_knn_vector,
    save_index,
)
from relguide.bilrp import bilrp, similarity
from relguide.data import LabeledSample
from relguide.errors import DimensionError, FormatError
from relguide.lrp import LRPRuleConfig
from relguide.network import LayerSpec, build_model, embed, forward_with_trace

from helpers import random_conv_net

EPS = LRPRuleConfig.uniform("epsilon", epsilon=1e-6)


def _samples_from(model, rng, n=8):
    c, h, w = model.input_shape
    out = []
    for i in range(n):
        img = np.abs(rng.normal(size=(c, h, w))).astype(np.float32)
        lesion = np.zeros((h, w), dtype=np.uint8)
        lesion[1:3, 1:3] = 1
        obj = np.ones((h, w), dtype=np.uint8)
        out.append(LabeledSample(img, obj, lesion, i % 2, i))
    return out


def _vector_index(rng, n=10, dim=6, metric="euclidean"):
    return AtlasIndex(
        layer_index=0,
        vectors=rng.normal(size=(n, dim)).astype(np.float32),
        ids=np.arange(n, dtype=np.uint32),
        labels=(np.arange(n) % 2).astype(np.uint8),
        metric=metric,
    )


def brute_force_knn(index, q, k):
    """Independent exhaustive oracle: per-row float64 distances, stable
    sort by (distance, id). Cosine distance is half the squared distance
    of the normalized vectors (== 1 - cos)."""
    q64 = np.asarray(q, dtype=np.float64).reshape(-1)
    rows = []
    for i in range(len(index)):
        v = index.vectors[i].astype(np.float64)
        if index.metric == "euclidean":
            d = float(np.sqrt(((v - q64) ** 2).sum()))
        else:
            nv = float(np.sqrt((v**2).sum()))
            nq = float(np.sqrt((q64**2).sum()))
            if nv == 0 and nq == 0:
                d = 0.0
            elif nv == 0 or nq == 0:
                d = 1.0
            else:
                d = float(0.5 * (((v / nv) - (q64 / nq)) ** 2).sum())
        rows.append((int(index.ids[i]), d, int(index.labels[i])))
    rows.sort(key=lambda r: (r[1], r[0]))
    return rows[:k]


class TestBuildIndex:
    def test_one_vector_per_sample(self, rng):
        model, _ = random_conv_net(rng)
        samples = _samples_from(model, rng, n=5)
        for position in (0, 2):
            idx = build_index(model, samples, position)
            assert len(idx) == 5 and idx.layer_index == position

    def test_deterministic(self, rng):
        model, _ = random_conv_net(rng)
        samples = _samples_from(model, rng, n=4)
        a = build_index(model, samples, 1)
        b = build_index(model, samples, 1)
        np.testing.assert_array_equal(a.vectors, b.vectors)

    def test_vectors_equal_embed(self, rng):
        model, _ = random_conv_net(rng)
        samples = _samples_from(model, rng, n=4)
        idx = build_index(model, samples, 2)
        for i, s in enumerate(samples):
            np.testing.assert_array_equal(idx.vectors[i], embed(model, s.image, 2))

    def test_empty_set_rejected(self, rng):
        model, _ = random_conv_net(rng)
        with pytest.raises(ValueError):
            build_index(model, [], 0)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_vectors_equal_stacked_trace(self, rng, dtype):
        """At every trace position, from the input to the logits, `embed`
        gives the trace entry of the full graph-building pass bit for bit,
        and the index stacks those entries cast to float32. The net has a
        stride-2 unpadded conv, an overlapping 3/2 pool, a padded conv,
        dropout (off in inference) and dense layers."""
        layers = [
            LayerSpec("conv", channels=3, kernel=3, stride=2, padding=0),
            LayerSpec("relu"),
            LayerSpec("maxpool", window=3, stride=2),
            LayerSpec("dropout", rate=0.5),
            LayerSpec("conv", channels=4, kernel=3, stride=1, padding=1),
            LayerSpec("relu"),
            LayerSpec("flatten"),
            LayerSpec("dense", units=5),
            LayerSpec("relu"),
            LayerSpec("dropout", rate=0.25),
            LayerSpec("dense", units=2),
        ]
        model = build_model(layers, (2, 15, 15), seed=int(rng.integers(2**31))).astype(dtype)
        for name in model.param_names():
            if name.endswith(".bias"):
                model.params[name].data[:] = rng.normal(0, 0.1, model.params[name].data.shape)
        samples = _samples_from(model, rng, n=5)
        traces = [forward_with_trace(model, s.image)[1] for s in samples]
        for position in range(len(layers) + 1):
            entries = [t.tensors[position].data.reshape(-1) for t in traces]
            for s, entry in zip(samples, entries):
                got = embed(model, s.image, position)
                assert (got.dtype, got.shape) == (entry.dtype, entry.shape)
                assert got.tobytes() == entry.tobytes()
            idx = build_index(model, samples, position)
            assert idx.layer_index == position
            expected = np.stack(entries).astype(np.float32)
            assert idx.vectors.dtype == np.float32
            assert idx.vectors.tobytes() == expected.tobytes()
            np.testing.assert_array_equal(idx.ids, [s.sample_id for s in samples])
            np.testing.assert_array_equal(idx.labels, [s.label for s in samples])
        # the refusals of forward_with_trace, in its order
        n = len(layers)
        for stop in (-1, n + 1):
            with pytest.raises(IndexError, match=rf"out of range \(0\.\.{n}\)"):
                embed(model, np.zeros((2, 3, 3)), stop)
        with pytest.raises(DimensionError, match="does not match model"):
            embed(model, np.zeros((2, 15, 14)), 3)


class TestQuery:
    def test_atlas_member_is_own_first_neighbor(self, rng):
        model, _ = random_conv_net(rng)
        samples = _samples_from(model, rng, n=6)
        idx = build_index(model, samples, 2)
        got = query_knn(idx, samples[3].image, model, 3)
        assert got[0] == (3, 0.0, samples[3].label)

    def test_full_ranking(self, rng):
        idx = _vector_index(rng)
        got = query_knn_vector(idx, rng.normal(size=6).astype(np.float32), len(idx))
        assert len(got) == len(idx)
        dists = [d for _, d, _ in got]
        assert dists == sorted(dists)

    @pytest.mark.parametrize("metric", ["euclidean", "cosine"])
    def test_matches_brute_force_oracle(self, rng, metric):
        idx = _vector_index(rng, n=10, metric=metric)
        for _ in range(10):
            q = rng.normal(size=6).astype(np.float32)
            assert query_knn_vector(idx, q, 3) == brute_force_knn(idx, q, 3)

    def test_tie_broken_by_smaller_id(self, rng):
        v = rng.normal(size=(1, 4)).astype(np.float32)
        idx = AtlasIndex(
            0,
            np.concatenate([v, v, v]),
            ids=np.array([7, 2, 5], dtype=np.uint32),
            labels=np.array([0, 1, 0], dtype=np.uint8),
        )
        got = query_knn_vector(idx, v[0], 3)
        assert [g[0] for g in got] == [2, 5, 7]

    def test_k_out_of_range(self, rng):
        idx = _vector_index(rng, n=4)
        with pytest.raises(ValueError):
            query_knn_vector(idx, np.zeros(6, dtype=np.float32), 5)
        with pytest.raises(ValueError):
            query_knn_vector(idx, np.zeros(6, dtype=np.float32), 0)

    @pytest.mark.parametrize("metric", ["euclidean", "cosine"])
    def test_metric_axioms(self, rng, metric):
        for _ in range(5):
            x = rng.normal(size=4).astype(np.float32)
            y = rng.normal(size=4).astype(np.float32)
            ix = AtlasIndex(0, x[None], np.array([0], dtype=np.uint32),
                            np.array([0], dtype=np.uint8), metric)
            iy = AtlasIndex(0, y[None], np.array([0], dtype=np.uint32),
                            np.array([0], dtype=np.uint8), metric)
            assert query_knn_vector(ix, x, 1)[0][1] == 0.0
            d_xy = query_knn_vector(iy, x, 1)[0][1]
            d_yx = query_knn_vector(ix, y, 1)[0][1]
            assert d_xy == pytest.approx(d_yx, rel=1e-12)


def whole_array_distances(index, q):
    """The distance formula over the whole index in one float64 copy, the
    reference for the row-blocked version."""
    v = index.vectors.astype(np.float64)
    q = q.astype(np.float64)
    if index.metric == "euclidean":
        return np.sqrt(((v - q[None, :]) ** 2).sum(axis=1))
    qn = np.sqrt((q**2).sum())
    vn = np.sqrt((v**2).sum(axis=1))
    uq = q / qn if qn > 0 else q
    uv = v / np.where(vn > 0, vn, 1)[:, None]
    d = 0.5 * ((uv - uq[None, :]) ** 2).sum(axis=1)
    if qn == 0:
        return np.where(vn == 0, 0.0, 1.0)
    return np.where(vn > 0, d, 1.0)


class TestBlockedDistances:
    @pytest.mark.parametrize("metric", ["euclidean", "cosine"])
    def test_bit_identical_to_whole_array(self, rng, metric):
        dim = 1000
        rows = atlas._BLOCK_BYTES // (8 * dim)
        n = 2 * rows + 7  # three blocks, the last one short
        v = rng.normal(size=(n, dim)).astype(np.float32)
        v[rows + 3] = 0
        idx = AtlasIndex(0, v, np.arange(n, dtype=np.uint32), np.zeros(n, dtype=np.uint8), metric)
        for q in (v[5], v[rows + 3], rng.normal(size=dim).astype(np.float32),
                  rng.normal(size=dim)):
            got = atlas._distances(idx, q)
            assert got.tobytes() == whole_array_distances(idx, q).tobytes()

    @pytest.mark.parametrize("metric", ["euclidean", "cosine"])
    def test_query_memory_below_one_float64_copy(self, rng, metric):
        n, dim = 512, 4096
        idx = AtlasIndex(0, rng.standard_normal((n, dim), dtype=np.float32),
                         np.arange(n, dtype=np.uint32), np.zeros(n, dtype=np.uint8), metric)
        q = rng.standard_normal(dim, dtype=np.float32)
        tracemalloc.start()
        try:
            query_knn_vector(idx, q, 5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * dim * 8


class TestCredibility:
    def test_all_agree(self):
        assert credibility([(0, 0.1, 1), (1, 0.2, 1)], 1) == 1.0

    def test_none_agree(self):
        assert credibility([(0, 0.1, 0), (1, 0.2, 0)], 1) == 0.0

    def test_three_of_four(self):
        neighbors = [(0, 0.1, 1), (1, 0.2, 1), (2, 0.3, 0), (3, 0.4, 1)]
        assert credibility(neighbors, 1) == 0.75

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            credibility([], 0)


class TestExplainPair:
    def test_self_pair_total_is_self_similarity(self, rng):
        model, _ = random_conv_net(rng, input_hw=8, with_bias=False)
        samples = _samples_from(model, rng, n=2)
        s = samples[0]
        joint = bilrp(model, s.image, s.image, 2, EPS, grid=4)
        sim = similarity(model, s.image, s.image, 2)
        assert joint.total() == pytest.approx(sim, rel=1e-3)

    def test_shared_bright_patch_is_top_connection(self, rng):
        """Two images sharing one bright patch at layer 0 link exactly
        those patches."""
        model, _ = random_conv_net(rng, input_hw=8)
        h = 8
        a = np.full((2, h, h), 0.01, dtype=np.float32)
        b = np.full((2, h, h), 0.01, dtype=np.float32)
        a[:, 2:4, 4:6] = 1.0  # patch (1, 2) on a 4x4 grid of 2x2 patches
        b[:, 2:4, 4:6] = 1.0
        joint = bilrp(model, a, b, 0, EPS, grid=4)
        from relguide.bilrp import top_connections

        p, q, w = top_connections(joint, 1)[0]
        assert (p // 4, p % 4) == (1, 2)
        assert (q // 4, q % 4) == (1, 2)
        assert w > 0


class TestPersistence:
    def test_round_trip_byte_identical(self, tmp_path, rng):
        idx = _vector_index(rng, metric="cosine")
        idx.layer_index = 3
        p1 = tmp_path / "a.rgta"
        p2 = tmp_path / "b.rgta"
        save_index(idx, p1)
        loaded = load_index(p1)
        assert loaded.metric == "cosine"
        assert loaded.layer_index == 3
        np.testing.assert_array_equal(loaded.vectors, idx.vectors)
        np.testing.assert_array_equal(loaded.ids, idx.ids)
        np.testing.assert_array_equal(loaded.labels, idx.labels)
        save_index(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic(self, tmp_path, rng):
        p = tmp_path / "a.rgta"
        save_index(_vector_index(rng), p)
        blob = bytearray(p.read_bytes())
        blob[:4] = b"NOPE"
        p.write_bytes(bytes(blob))
        with pytest.raises(FormatError):
            load_index(p)

    def test_truncated(self, tmp_path, rng):
        p = tmp_path / "a.rgta"
        save_index(_vector_index(rng), p)
        blob = p.read_bytes()
        p.write_bytes(blob[:-3])
        with pytest.raises(FormatError):
            load_index(p)
