"""Joint (second-order) similarity explanation: factorization oracle,
conservation of the matrix total, symmetry, and the export format."""

import json

import numpy as np
import pytest

import relguide.bilrp
import relguide.lrp as lrp_module
from relguide.bilrp import (
    bilrp,
    embed,
    export_json,
    similarity,
    top_connections,
    unit_relevance,
)
from relguide.errors import ConfigError
from relguide.lrp import LRPRuleConfig, relevance_transpose
from relguide.network import LayerSpec, build_model, default_layers, forward_with_trace

from helpers import bilrp_reference, random_conv_net

EPS0 = LRPRuleConfig.uniform("epsilon", epsilon=0.0)
EPS = LRPRuleConfig.uniform("epsilon", epsilon=1e-6)


def test_submodules_are_package_attributes():
    # the package binds no function over the names of its submodules
    assert callable(lrp_module.relevance_graph)
    assert callable(relguide.bilrp.bilrp)


def _image(rng, shape=(1, 4, 4)):
    return rng.random(shape, dtype=np.float64).astype(np.float32)


class TestEmbedAndSimilarity:
    def test_layer_zero_is_flattened_input(self, rng):
        model, x = random_conv_net(rng)
        np.testing.assert_array_equal(embed(model, x, 0), x.reshape(-1))

    def test_embedding_length_matches_activation(self, rng):
        model, x = random_conv_net(rng)
        _, trace = forward_with_trace(model, x)
        for li, t in enumerate(trace.tensors):
            assert embed(model, x, li).shape == (t.data.size,)

    def test_embedding_matches_trace_bitwise(self, rng):
        model, x = random_conv_net(rng)
        _, trace = forward_with_trace(model, x)
        np.testing.assert_array_equal(embed(model, x, 2), trace.tensors[2].data.reshape(-1))

    def test_self_similarity_nonnegative_after_relu(self, rng):
        model, x = random_conv_net(rng)
        relu_positions = [li + 1 for li, spec in enumerate(model.layers) if spec.kind == "relu"]
        for li in relu_positions:
            assert similarity(model, x, x, li) >= 0

    def test_orthogonal_inputs_layer_zero(self, rng):
        model, _ = random_conv_net(rng, input_hw=6, in_channels=2)
        a = np.zeros((2, 6, 6), dtype=np.float32)
        b = np.zeros((2, 6, 6), dtype=np.float32)
        a[0, 0, 0] = 1.0
        b[0, 1, 1] = 1.0
        assert similarity(model, a, b, 0) == 0.0

    def test_similarity_is_dot_of_embeddings(self, rng):
        model, x = random_conv_net(rng)
        y = np.abs(x[::-1]).copy()
        ea = embed(model, x, 3).astype(np.float64)
        eb = embed(model, y, 3).astype(np.float64)
        assert similarity(model, x, y, 3) == pytest.approx(float(ea @ eb), rel=1e-12)

    def test_index_out_of_range(self, rng):
        model, x = random_conv_net(rng)
        with pytest.raises(IndexError):
            embed(model, x, 99)


def _identity_image_model():
    layers = [LayerSpec("flatten"), LayerSpec("dense", units=2)]
    return build_model(layers, (1, 4, 4), seed=0)


class TestBilrp:
    def test_identity_embedding_is_diagonal(self, rng):
        model = _identity_image_model()
        a, b = _image(rng), _image(rng)
        joint = bilrp(model, a, b, 0, EPS0, grid=4)
        g2 = 16
        assert joint.matrix.shape == (g2, g2)
        off = joint.matrix - np.diag(np.diag(joint.matrix))
        np.testing.assert_allclose(off, 0, atol=1e-12)
        np.testing.assert_allclose(
            np.diag(joint.matrix), (a[0] * b[0]).reshape(-1), rtol=1e-6
        )

    def test_identity_embedding_pooled_patches(self, rng):
        model = _identity_image_model()
        a, b = _image(rng), _image(rng)
        joint = bilrp(model, a, b, 0, EPS0, grid=2)
        # per-unit maps hit one pixel each, so pooling leaves a diagonal of
        # per-patch dot products
        prod = (a[0] * b[0]).astype(np.float64)
        patch_dots = prod.reshape(2, 2, 2, 2).sum(axis=(1, 3)).reshape(-1)
        np.testing.assert_allclose(joint.matrix, np.diag(patch_dots), rtol=1e-5, atol=1e-7)

    def test_transpose_symmetry_exact(self, rng):
        model, _ = random_conv_net(rng, input_hw=8)
        a = np.abs(rng.normal(size=(2, 8, 8))).astype(np.float32)
        b = np.abs(rng.normal(size=(2, 8, 8))).astype(np.float32)
        for layer in (2, len(model.layers)):
            jab = bilrp(model, a, b, layer, EPS, grid=4)
            jba = bilrp(model, b, a, layer, EPS, grid=4)
            np.testing.assert_array_equal(jab.matrix, jba.matrix.T)

    def test_one_hidden_layer_factorization_oracle(self, rng):
        """Joint matrix equals the sum over embedding units of outer
        products of hand-computed per-unit relevance maps."""
        layers = [LayerSpec("flatten"), LayerSpec("dense", units=2)]
        model = build_model(layers, (1, 2, 2), seed=0)
        w = np.array(
            [[0.5, -1.0, 2.0, 0.25], [1.5, 0.5, -0.5, 1.0]], dtype=np.float32
        )
        model.params["layer1.weight"].data[:] = w
        model.params["layer1.bias"].data[:] = 0
        a, b = _image(rng, (1, 2, 2)), _image(rng, (1, 2, 2))
        layer = 2  # embedding after the dense layer
        joint = bilrp(model, a, b, layer, EPS0, grid=2)

        af, bf = a.reshape(-1).astype(np.float64), b.reshape(-1).astype(np.float64)
        expect = np.zeros((4, 4))
        for m in range(2):
            za, zb = float(w[m].astype(np.float64) @ af), float(w[m].astype(np.float64) @ bf)
            ra = af * w[m] * (za / za)  # epsilon rule, eps=0, seed = z_m
            rb = bf * w[m] * (zb / zb)
            expect += np.outer(ra, rb)
        np.testing.assert_allclose(joint.matrix, expect, rtol=1e-5, atol=1e-7)
        assert joint.total() == pytest.approx(similarity(model, a, b, layer), rel=1e-5)

    def test_sum_rule(self, rng):
        # per-unit conservation composes over the factorization only when
        # no relevance is absorbed by biases
        for _ in range(4):
            model, _ = random_conv_net(rng, input_hw=8, with_bias=False)
            a = np.abs(rng.normal(size=(2, 8, 8))).astype(np.float32)
            b = np.abs(rng.normal(size=(2, 8, 8))).astype(np.float32)
            layer = int(rng.integers(1, len(model.layers) + 1))
            joint = bilrp(model, a, b, layer, EPS, grid=4)
            sim = joint.similarity
            if abs(sim) < 1e-3:
                continue
            assert abs(joint.total() - sim) / abs(sim) < 1e-3

    def test_pooling_invariance_of_total(self, rng):
        model, _ = random_conv_net(rng, input_hw=8)  # biases fine: same total
        a = np.abs(rng.normal(size=(2, 8, 8))).astype(np.float32)
        b = np.abs(rng.normal(size=(2, 8, 8))).astype(np.float32)
        totals = [bilrp(model, a, b, 3, EPS, grid=g).total() for g in (1, 2, 4, 8)]
        np.testing.assert_allclose(totals, totals[0], rtol=1e-6)

    def test_grid_must_divide(self, rng):
        model, x = random_conv_net(rng, input_hw=6)
        with pytest.raises(ConfigError):
            bilrp(model, x, x, 0, EPS, grid=4)

    @pytest.mark.parametrize("rules", [
        EPS, LRPRuleConfig(), LRPRuleConfig.uniform("alphabeta", alpha=2.0, beta=1.0),
    ], ids=["epsilon", "composite", "alpha2beta1"])
    def test_matches_per_unit_backward_reference(self, rng, rules):
        """One transposed pass per input gives the joint matrix that one
        backward map per embedding unit gives, at every trace position."""
        for _ in range(2):
            model, _ = random_conv_net(rng, input_hw=8, with_pool=True)
            a = np.abs(rng.normal(size=(2, 8, 8))).astype(np.float32)
            b = np.abs(rng.normal(size=(2, 8, 8))).astype(np.float32)
            for layer in range(len(model.layers) + 1):
                got = bilrp(model, a, b, layer, rules, grid=4)
                ref = bilrp_reference(model, a, b, layer, rules, grid=4, chunk=5)
                scale = max(np.abs(ref).max(), 1e-30)
                assert np.abs(got.matrix - ref).max() <= 1e-5 * scale, layer
                assert got.units_used == got.units_total == embed(model, a, layer).size
                assert got.coverage == 1.0

    def test_precomputed_unit_relevance_reused(self, rng):
        model, _ = random_conv_net(rng, input_hw=8)
        a = np.abs(rng.normal(size=(2, 8, 8))).astype(np.float32)
        b = np.abs(rng.normal(size=(2, 8, 8))).astype(np.float32)
        _, trace = forward_with_trace(model, a)
        ua = unit_relevance(model, trace, 3, EPS, grid=4)
        direct = bilrp(model, a, b, 3, EPS, grid=4)
        np.testing.assert_array_equal(bilrp(model, ua, b, 3, EPS, grid=4).matrix, direct.matrix)
        np.testing.assert_array_equal(bilrp(model, b, ua, 3, EPS, grid=4).matrix, direct.matrix.T)
        for layer, rules, grid in ((2, EPS, 4), (3, EPS0, 4), (3, EPS, 2)):
            with pytest.raises(ConfigError):
                bilrp(model, ua, b, layer, rules, grid=grid)


class TestUnitRelevanceRows:
    @pytest.mark.parametrize(
        "rules", [LRPRuleConfig(), LRPRuleConfig.uniform("alphabeta", alpha=2.0, beta=1.0)]
    )
    def test_rows_equal_one_pass_over_all_patches(self, rng, rules):
        """One transposed pass per grid row gives the bits of one pass over
        all g*g patch tangents."""
        model = build_model(default_layers((4, 8, 8, 8), 8), (3, 32, 32), 2)
        x = rng.random((3, 32, 32)).astype(np.float32)
        _, trace = forward_with_trace(model, x)
        grid = 8
        g2 = grid * grid
        tangents = np.zeros((g2, 3, grid, 4, grid, 4))
        for p in range(g2):
            tangents[p, :, p // grid, :, p % grid, :] = 1.0
        for layer in (3, 7, len(model.layers)):
            t = relevance_transpose(model, trace, layer, tangents.reshape(g2, 3, 32, 32), rules)
            emb = trace.tensors[layer].data.reshape(-1)
            want = np.ascontiguousarray(t.reshape(g2, -1).T) * emb[:, None]
            got = unit_relevance(model, trace, layer, rules, grid).pooled
            assert got.tobytes() == want.tobytes(), layer

    def test_rule_terms_computed_once_per_call(self, rng, monkeypatch):
        """The grid rows share one computation of each layer's rule terms,
        and sharing them leaves the bytes as they are."""
        model = build_model(default_layers((4, 8, 8, 8), 8), (3, 32, 32), 2)
        x = rng.random((3, 32, 32)).astype(np.float32)
        _, trace = forward_with_trace(model, x)
        rules = LRPRuleConfig.uniform("alphabeta", alpha=2.0, beta=1.0)
        layer = len(model.layers)
        grid, g2 = 8, 64
        tangents = np.zeros((g2, 3, grid, 4, grid, 4))
        for p in range(g2):
            tangents[p, :, p // grid, :, p % grid, :] = 1.0
        rows = [  # each row's pass computing its own terms
            relevance_transpose(model, trace, layer, row.reshape(grid, 3, 32, 32), rules)
            for row in np.split(tangents, grid)
        ]
        emb = trace.tensors[layer].data.reshape(-1)
        fresh = np.ascontiguousarray(np.concatenate(rows).reshape(g2, -1).T) * emb[:, None]
        calls = []
        rule_terms = lrp_module._rule_terms
        monkeypatch.setattr(lrp_module, "_rule_terms",
                            lambda *a: calls.append(a[2]) or rule_terms(*a))
        shared = unit_relevance(model, trace, layer, rules, grid).pooled
        linear = [li for li, spec in enumerate(model.layers) if spec.kind in ("conv", "dense")]
        assert sorted(calls) == linear
        assert shared.tobytes() == fresh.tobytes()


class TestTopConnections:
    def test_diagonal_matrix_gives_self_pairs(self, rng):
        model = _identity_image_model()
        a, b = _image(rng), _image(rng)
        joint = bilrp(model, a, b, 0, EPS0, grid=4)
        for p, q, _ in top_connections(joint, 5):
            assert p == q

    def test_k_larger_than_entries(self, rng):
        model = _identity_image_model()
        joint = bilrp(model, _image(rng), _image(rng), 0, EPS0, grid=2)
        assert len(top_connections(joint, 1000)) == 16

    def test_matches_exhaustive_sort_oracle(self, rng):
        model = _identity_image_model()
        joint = bilrp(model, _image(rng), _image(rng), 0, EPS0, grid=2)
        joint.matrix = rng.normal(size=(4, 4))
        got = top_connections(joint, 16)
        expect = sorted(
            ((p, q, float(joint.matrix[p, q])) for p in range(4) for q in range(4)),
            key=lambda e: (-abs(e[2]), e[0], e[1]),
        )
        assert got == expect

    def test_tie_break_lexicographic(self, rng):
        model = _identity_image_model()
        joint = bilrp(model, _image(rng), _image(rng), 0, EPS0, grid=2)
        joint.matrix = np.full((4, 4), 2.0)
        got = top_connections(joint, 3)
        assert [(p, q) for p, q, _ in got] == [(0, 0), (0, 1), (0, 2)]

    def test_ties_of_opposite_sign_and_k_past_the_end(self, rng):
        """Equal |w| of either sign stay in (p, q) order, k beyond g**4
        returns every entry, and the entries are Python ints and floats."""
        model = _identity_image_model()
        joint = bilrp(model, _image(rng), _image(rng), 0, EPS0, grid=2)
        joint.matrix = rng.choice([-2.0, -0.5, 0.0, -0.0, 0.5, 2.0], size=(4, 4))
        joint.matrix[1, 2], joint.matrix[3, 0] = -2.0, 2.0
        got = top_connections(joint, 1000)
        expect = sorted(
            ((p, q, float(joint.matrix[p, q])) for p in range(4) for q in range(4)),
            key=lambda e: (-abs(e[2]), e[0], e[1]),
        )
        assert got == expect
        assert [np.signbit(w) for _, _, w in got] == [np.signbit(w) for _, _, w in expect]
        assert all(type(v) is t for e in got for v, t in zip(e, (int, int, float)))


class TestExport:
    def test_json_schema_and_order(self, tmp_path, rng):
        model, _ = random_conv_net(rng, input_hw=8)
        a = np.abs(rng.normal(size=(2, 8, 8))).astype(np.float32)
        b = np.abs(rng.normal(size=(2, 8, 8))).astype(np.float32)
        joint = bilrp(model, a, b, 2, EPS, grid=4, pair=(7, 9))
        path = tmp_path / "joint.json"
        export_json(joint, path, top_k=10)
        payload = json.loads(path.read_text())
        assert payload["layer"] == 2
        assert payload["grid"] == 4
        assert payload["similarity"] == pytest.approx(similarity(model, a, b, 2), rel=1e-6)
        assert len(payload["connections"]) == 10
        weights = [c["w"] for c in payload["connections"]]
        assert weights == sorted(weights, key=abs, reverse=True)
        for c in payload["connections"]:
            assert 0 <= c["a"][0] < 4 and 0 <= c["a"][1] < 4
            assert 0 <= c["b"][0] < 4 and 0 <= c["b"][1] < 4
        assert payload["pair"] == [7, 9]
