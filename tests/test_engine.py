"""Autodiff engine: primitive forward values, gradients, and graph rules."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relguide import engine as E
from relguide.engine import Tensor
from relguide.lrp import LRPRuleConfig, relevance_graph
from relguide.network import Model, forward_with_trace

from helpers import (
    central_diff,
    check_gradients,
    matmul_t,
    naive_conv2d,
    naive_maxpool,
    naive_softmax_ce,
    params_of,
    random_conv_net,
    sample_smooth_net,
)


class TestConv2d:
    def test_scaling_identity(self):
        x = Tensor(np.ones((1, 3, 3)))
        w = Tensor(np.full((1, 1, 1, 1), 2.0))
        b = Tensor(np.zeros(1))
        out = E.conv2d(x, w, b)[0]
        assert out.data.shape == (1, 3, 3)
        np.testing.assert_array_equal(out.data, np.full((1, 3, 3), 2.0, dtype=np.float32))

    def test_direct_summation(self):
        x = np.array([[[1.0, 2.0], [3.0, 4.0]]])
        w = np.array([[[[1.0, 0.0], [0.0, 1.0]]]])
        b = np.array([1.0])
        out = E.conv2d(Tensor(x), Tensor(w), Tensor(b))[0]
        expected = naive_conv2d(x, w, b)
        assert out.data.shape == (1, 1, 1)
        assert out.data[0, 0, 0] == pytest.approx(6.0)
        np.testing.assert_allclose(out.data, expected, rtol=1e-6)

    def test_output_shape(self, rng):
        x = Tensor(rng.normal(size=(3, 64, 64)).astype(np.float32))
        w = Tensor(rng.normal(size=(16, 3, 3, 3)).astype(np.float32))
        b = Tensor(np.zeros(16))
        assert E.conv2d(x, w, b, stride=1, padding=1)[0].data.shape == (16, 64, 64)

    def test_random_against_oracle(self, rng):
        for stride, padding in [(1, 0), (1, 1), (2, 0), (2, 1)]:
            x = rng.normal(size=(2, 7, 7)).astype(np.float32)
            w = rng.normal(size=(3, 2, 3, 3)).astype(np.float32)
            b = rng.normal(size=3).astype(np.float32)
            out = E.conv2d(Tensor(x), Tensor(w), Tensor(b), stride, padding)[0]
            np.testing.assert_allclose(out.data, naive_conv2d(x, w, b, stride, padding), rtol=1e-4, atol=1e-5)


class TestRelu:
    def test_definition(self):
        out = E.relu(Tensor(np.array([-1.0, 0.0, 2.0])))
        np.testing.assert_array_equal(out.data, [0.0, 0.0, 2.0])

    def test_all_negative(self):
        out = E.relu(Tensor(np.full((3, 3), -5.0)))
        assert (out.data == 0).all()

    def test_backward_subgradient_zero_at_zero(self):
        x = Tensor(np.array([-1.0, 0.0, 2.0]))
        y = E.relu(x)
        loss = E.sum_all(E.mul(y, Tensor(np.array([5.0, 5.0, 5.0]))))
        grads = E.backward(loss)
        np.testing.assert_array_equal(grads[x], [0.0, 0.0, 5.0])


class TestMaxpool:
    def test_single_window(self):
        out, _ = E.maxpool2d(Tensor(np.array([[[1.0, 2.0], [3.0, 4.0]]])), 2, 2)
        np.testing.assert_array_equal(out.data, [[[4.0]]])

    def test_tie_gradient_first_position(self):
        x = Tensor(np.ones((1, 2, 2)))
        loss = E.sum_all(E.maxpool2d(x, 2, 2)[0])
        grads = E.backward(loss)
        np.testing.assert_array_equal(grads[x], [[[1.0, 0.0], [0.0, 0.0]]])

    def test_ascending_against_oracle(self):
        x = np.arange(16, dtype=np.float32).reshape(1, 4, 4)
        out, _ = E.maxpool2d(Tensor(x), 2, 2)
        np.testing.assert_array_equal(out.data, [[[5.0, 7.0], [13.0, 15.0]]])
        np.testing.assert_array_equal(out.data, naive_maxpool(x, 2, 2))

    def test_overlapping_windows_against_oracle(self, rng):
        x = rng.normal(size=(2, 5, 5)).astype(np.float32)
        out, _ = E.maxpool2d(Tensor(x), 3, 1)
        np.testing.assert_array_equal(out.data, naive_maxpool(x, 3, 1).astype(np.float32))


class TestDense:
    def test_identity(self):
        x = np.array([3.0, -1.0], dtype=np.float32)
        out = E.dense(Tensor(x), Tensor(np.eye(2)), Tensor(np.zeros(2)))
        np.testing.assert_array_equal(out.data, x)

    def test_matvec_oracle(self):
        w = np.array([[1.0, 2.0], [3.0, 4.0]])
        x = np.array([1.0, 1.0])
        out = E.dense(Tensor(x), Tensor(w), Tensor(np.zeros(2)))
        np.testing.assert_allclose(out.data, w.astype(np.float64) @ x)
        np.testing.assert_array_equal(out.data, [3.0, 7.0])

    def test_zero_input_gives_bias(self):
        b = np.array([0.5, -0.5], dtype=np.float32)
        out = E.dense(Tensor(np.zeros(3)), Tensor(np.zeros((2, 3))), Tensor(b))
        np.testing.assert_array_equal(out.data, b)


class TestSoftmaxCrossEntropy:
    def test_uniform(self):
        loss = E.softmax_cross_entropy(Tensor(np.array([0.0, 0.0])), 0)
        assert loss.item() == pytest.approx(np.log(2), rel=1e-6)

    def test_stabilized_no_overflow(self):
        loss = E.softmax_cross_entropy(Tensor(np.array([1000.0, 0.0])), 0)
        assert np.isfinite(loss.data)
        assert loss.item() == pytest.approx(0.0, abs=1e-6)

    def test_direct_formula_oracle(self):
        logits = np.array([1.0, 2.0, 3.0])
        loss = E.softmax_cross_entropy(Tensor(logits), 2)
        assert loss.item() == pytest.approx(naive_softmax_ce(logits, 2), rel=1e-6)
        assert loss.item() == pytest.approx(0.40761, abs=5e-6)

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            E.softmax_cross_entropy(Tensor(np.zeros(3)), 3)

    def test_gradient_is_softmax_minus_onehot(self, rng):
        logits = Tensor(rng.normal(size=5).astype(np.float32))
        loss = E.softmax_cross_entropy(logits, 1)
        grads = E.backward(loss)
        z = np.exp(logits.data - logits.data.max())
        p = z / z.sum()
        p[1] -= 1
        np.testing.assert_allclose(grads[logits], p, rtol=1e-6)


class TestDropout:
    def test_rate_zero_identity(self, rng):
        x = Tensor(rng.normal(size=(4, 4)).astype(np.float32))
        out = E.dropout(x, 0.0, np.random.default_rng(0))
        assert out is x

    def test_inference_identity(self, rng):
        x = Tensor(rng.normal(size=(4, 4)).astype(np.float32))
        assert E.dropout(x, 0.9, None) is x

    def test_monte_carlo_zero_fraction(self):
        x = Tensor(np.ones(100_000))
        out = E.dropout(x, 0.5, np.random.default_rng(1234))
        zero_frac = float((out.data == 0).mean())
        assert abs(zero_frac - 0.5) < 0.01
        survivors = out.data[out.data != 0]
        np.testing.assert_allclose(survivors, 2.0, rtol=1e-6)

    def test_gradient_matches_mask(self):
        x = Tensor(np.ones(64))
        out = E.dropout(x, 0.25, np.random.default_rng(7))
        grads = E.backward(E.sum_all(out))
        np.testing.assert_array_equal(grads[x], out.data)


class TestBackward:
    def test_square(self):
        x = Tensor(np.array(3.0))
        grads = E.backward(E.mul(x, x))
        assert grads[x] == pytest.approx(6.0)

    def test_constant_graph_zero_grads(self):
        x = Tensor(np.array([1.0, 2.0]))
        unused = Tensor(np.array([5.0]))
        grads = E.backward(E.sum_all(x))
        np.testing.assert_array_equal(E.grad_for(grads, unused), [0.0])

    def test_non_scalar_rejected(self):
        x = Tensor(np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            E.backward(x)

    def test_shared_node_accumulates(self):
        x = Tensor(np.array(2.0))
        y = E.add(E.mul(x, x), x)  # x^2 + x -> 2x + 1 = 5
        grads = E.backward(y)
        assert grads[x] == pytest.approx(5.0)

    def test_shared_gradient_array_summed_by_value(self):
        """add's backward hands one array to both parents, and each parent
        then gets a further contribution: the sums stay apart, and no array
        a backward returned is changed."""
        a = Tensor(np.array([1.0, 2.0]), dtype=None)
        b = Tensor(np.array([3.0, 5.0]), dtype=None)
        c = Tensor(np.array([13.0, 17.0]), dtype=None)
        shared, square, scaled = E.add(a, b), E.mul(a, a), E.mul(b, c)
        returned = {}  # node -> (array, its copy) for each array its backward returns
        for node in (shared, square, scaled):
            node.bwd = _recording(node.bwd, returned.setdefault(node, []))
        w = Tensor(np.array([7.0, 11.0]), dtype=None)
        loss = E.sum_all(E.add(E.mul(shared, w), E.add(square, scaled)))
        grads = E.backward(loss)
        np.testing.assert_array_equal(grads[a], [7.0 + 2 * 1.0, 11.0 + 2 * 2.0])
        np.testing.assert_array_equal(grads[b], [7.0 + 13.0, 11.0 + 17.0])
        (ga, _), (gb, _) = returned[shared]
        assert ga is gb  # one array for both parents of the add
        for arr, before in sum(returned.values(), []):
            np.testing.assert_array_equal(arr, before)

    def test_seed_scaling(self):
        x = Tensor(np.array(3.0))
        grads = E.backward(E.mul(x, x), seed=0.5)
        assert grads[x] == pytest.approx(3.0)

    def test_three_layer_cnn_finite_differences(self, rng):
        model, x = sample_smooth_net(
            rng, lambda r: random_conv_net(r, depth=2, with_pool=True)
        )
        m64 = model.astype(np.float64)
        x64 = x.astype(np.float64)

        def run():
            logits, _ = forward_with_trace(m64, Tensor(x64, dtype=None))
            return E.softmax_cross_entropy(logits, 1)

        loss = run()
        grads = E.backward(loss)
        arrays = [p.data for p in params_of(m64)]
        analytic = [E.grad_for(grads, p) for p in params_of(m64)]
        check_gradients(lambda: run().item(), arrays, analytic, h=1e-3)


def _recording(bwd, returned):
    def spy(g):
        out = bwd(g)
        returned.extend((arr, arr.copy()) for arr in out)
        return out
    return spy


def _rel_err(got, want):
    return float(np.abs(got - want).max() / np.abs(want).max())


def _two_path_loss(model, x, probe):
    """Cross-entropy plus a probe of the epsilon-rule input relevance: every
    dense weight feeds a forward matvec and a transposed product."""
    logits, trace = forward_with_trace(model, Tensor(x, dtype=None))
    rel = relevance_graph(model, trace, 0, LRPRuleConfig.uniform("epsilon", epsilon=1e-6))
    probed = E.sum_all(E.mul(rel[0], Tensor(probe, dtype=None)))
    return E.add(E.softmax_cross_entropy(logits, 1), probed)


class TestFactoredGradients:
    """A parameter matrix reached through matrix-vector products gets its
    gradient as factor pairs; grad_for and GradientSum form it."""

    def test_matvec_and_transposed_product_by_hand(self, rng):
        w = Tensor(rng.normal(size=(3, 5)), dtype=None)
        x = Tensor(rng.normal(size=5), dtype=None)
        k, probe = rng.normal(size=3), rng.normal(size=5)
        s = E.mul(E.matmul(w, x), Tensor(k, dtype=None))
        c = matmul_t(w, s)
        np.testing.assert_allclose(c.data, w.data.T @ s.data, rtol=1e-14)
        grads = E.backward(E.sum_all(E.mul(c, Tensor(probe, dtype=None))))
        assert isinstance(grads[w], E.FactorPairs) and len(grads[w].us) == 2
        # c = W^T s gives outer(s, probe); s = k * (W x) gives outer(k * (W probe), x)
        want = np.outer(s.data, probe) + np.outer(k * (w.data @ probe), x.data)
        got = E.grad_for(grads, w)
        assert got.shape == w.data.shape and got.flags.c_contiguous
        assert _rel_err(got, want) <= 1e-12

    def test_two_path_net_equals_outer_products(self, rng):
        """The same graph with every parameter behind a reshape (a non-leaf,
        so each product forms np.outer) gives the same gradients."""
        model, x = random_conv_net(rng, depth=1, with_pool=True)
        m64 = model.astype(np.float64)
        x64, probe = x.astype(np.float64), rng.normal(size=x.shape)
        factored = E.backward(_two_path_loss(m64, x64, probe))
        behind = {k: E.reshape(t, t.data.shape) for k, t in m64.params.items()}
        outer = E.backward(_two_path_loss(
            Model(m64.layers, behind, m64.input_shape), x64, probe))
        weight = m64.params["layer4.weight"]
        assert isinstance(factored[weight], E.FactorPairs)
        for name, t in m64.params.items():
            got, want = E.grad_for(factored, t), E.grad_for(outer, t)
            assert got.shape == t.data.shape and got.flags.c_contiguous, name
            assert _rel_err(got, want) <= 1e-12, name

    def test_batch_sum(self, rng):
        """Factored weights sum to the per-sample dense sum; every other
        parameter sums to the bits of a sequential sum."""
        model, _ = random_conv_net(rng, depth=2, with_pool=True)
        m64 = model.astype(np.float64)
        samples = [
            E.backward(_two_path_loss(m64, rng.normal(size=model.input_shape),
                                      rng.normal(size=model.input_shape)), seed=0.25)
            for _ in range(4)
        ]
        batch = E.GradientSum(m64.params)
        for grads in samples:
            batch.add(grads)
        total = batch.total()
        kinds = set()
        for name, t in m64.params.items():
            per_sample = [E.grad_for(grads, t) for grads in samples]
            factored = isinstance(samples[0][t], E.FactorPairs)
            kinds.add(factored)
            if factored:
                assert _rel_err(total[name], sum(per_sample)) <= 1e-12, name
            else:
                want = per_sample[0]
                for g in per_sample[1:]:
                    want = want + g
                assert total[name].tobytes() == want.tobytes(), name
        assert kinds == {True, False}

    def test_backward_returns_leaves_only(self, rng):
        """No graph node but a leaf is a key, so a held result keeps no
        graph alive through the root's parents."""
        model, x = random_conv_net(rng, depth=1, with_pool=True)
        root = _two_path_loss(model, x, rng.normal(size=x.shape))
        grads = E.backward(root)
        assert root not in grads
        assert grads and all(not t.parents for t in grads)
        assert set(model.params.values()) <= set(grads)

    def test_batch_sum_of_unreached_parameter_is_zero(self):
        used, unused = Tensor(np.ones((2, 3))), Tensor(np.ones(4))
        batch = E.GradientSum({"used": used, "unused": unused})
        batch.add(E.backward(E.sum_all(E.matmul(used, Tensor(np.arange(3.0))))))
        total = batch.total()
        np.testing.assert_array_equal(total["unused"], np.zeros(4, dtype=np.float32))
        np.testing.assert_array_equal(total["used"], [[0.0, 1.0, 2.0]] * 2)


class TestBroadcasting:
    def test_add_broadcast_gradient(self, rng):
        a64 = rng.normal(size=(3, 4))
        b64 = rng.normal(size=(3, 1))
        a, b = Tensor(a64, dtype=None), Tensor(b64, dtype=None)
        w = Tensor(rng.normal(size=(3, 4)), dtype=None)
        loss = E.sum_all(E.mul(E.add(a, b), w))
        grads = E.backward(loss)
        np.testing.assert_allclose(grads[a], w.data)
        np.testing.assert_allclose(grads[b], w.data.sum(axis=1, keepdims=True))

    def test_mul_scalar_broadcast(self, rng):
        a = Tensor(rng.normal(size=(2, 3)), dtype=None)
        s = Tensor(np.array(2.0), dtype=None)
        grads = E.backward(E.sum_all(E.mul(a, s)))
        np.testing.assert_allclose(grads[s], a.data.sum())

    def test_elementwise_ops_finite_differences(self, rng):
        a = Tensor(rng.normal(size=(3, 2)) + 3.0, dtype=None)
        b = Tensor(rng.normal(size=(3, 2)) + 3.0, dtype=None)

        def run():
            t = E.div(E.mul(a, b), E.add(a, b))
            t = E.pow_const(t, 1.5)
            return E.sum_all(E.sub(t, b))

        grads = E.backward(run())
        check_gradients(
            lambda: run().item(), [a.data, b.data], [grads[a], grads[b]], h=1e-5
        )


class TestDeterminism:
    def test_dropout_same_seed_bit_identical(self, rng):
        x = Tensor(rng.normal(size=(8, 8)).astype(np.float32))
        a = E.dropout(x, 0.3, np.random.default_rng(99))
        b = E.dropout(x, 0.3, np.random.default_rng(99))
        np.testing.assert_array_equal(a.data, b.data)

    def test_forward_bit_identical(self, rng):
        model, x = random_conv_net(rng)
        l1, _ = forward_with_trace(model, x)
        l2, _ = forward_with_trace(model, x)
        np.testing.assert_array_equal(l1.data, l2.data)


class TestShapeAlgebra:
    @settings(max_examples=40, deadline=None)
    @given(
        hw=st.integers(5, 12),
        cin=st.integers(1, 3),
        cout=st.integers(1, 4),
        k=st.integers(1, 3),
        stride=st.integers(1, 2),
        padding=st.integers(0, 1),
    )
    def test_conv_output_shape_formula(self, hw, cin, cout, k, stride, padding):
        x = Tensor(np.zeros((cin, hw, hw)))
        w = Tensor(np.zeros((cout, cin, k, k)))
        out = E.conv2d(x, w, Tensor(np.zeros(cout)), stride, padding)[0]
        expect = (hw + 2 * padding - k) // stride + 1
        assert out.data.shape == (cout, expect, expect)

    @settings(max_examples=20, deadline=None)
    @given(hw=st.integers(4, 10), window=st.integers(2, 3), stride=st.integers(1, 3))
    def test_pool_output_shape_formula(self, hw, window, stride):
        x = Tensor(np.zeros((2, hw, hw)))
        out, _ = E.maxpool2d(x, window, stride)
        expect = (hw - window) // stride + 1
        assert out.data.shape == (2, expect, expect)
