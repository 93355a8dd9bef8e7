"""Relevance propagation: conservation, hand-unrolled oracles, the
differentiability contract, and heatmap output."""

import numpy as np
import pytest

from relguide import engine as E
from relguide import lrp as lrp_module
from relguide.engine import Tensor
from relguide.errors import ConfigError, NumericalError
from relguide.lrp import (
    LRPRuleConfig,
    input_relevance,
    lrp,
    read_heatmap_csv,
    relevance_graph,
    relevance_stack,
    relevance_transpose,
    render_heatmap,
    _safe_ratio,
)
from relguide.network import LayerSpec, build_model, default_layers, forward_with_trace

from helpers import (
    check_gradients,
    params_of,
    random_conv_net,
    random_dense_net,
    relevance_graph_reference,
)

EPS0 = LRPRuleConfig.uniform("epsilon", epsilon=0.0)
EPS = LRPRuleConfig.uniform("epsilon", epsilon=1e-6)
AB10 = LRPRuleConfig.uniform("alphabeta", epsilon=0.0, alpha=1.0, beta=0.0)
# the stabilized rule sets a guided step can use: epsilon, alpha1beta0 (the
# default composite's conv rule), the composite itself, and alpha2beta1
GRAPH_RULES = {
    "epsilon": EPS,
    "alpha1beta0": LRPRuleConfig.uniform("alphabeta", epsilon=1e-6),
    "composite": LRPRuleConfig(),
    "alpha2beta1": LRPRuleConfig.uniform("alphabeta", epsilon=1e-6, alpha=2.0, beta=1.0),
}


def _zero_biases(model):
    for name in model.param_names():
        if name.endswith(".bias"):
            model.params[name].data[:] = 0
    return model


class TestEpsilonRule:
    @pytest.mark.parametrize("kw", [
        {"epsilon": float("nan")},
        {"alpha": float("nan"), "beta": float("nan")},
        {"alpha": float("nan"), "beta": 0.0},
    ])
    def test_rule_config_rejects_nan(self, kw):
        with pytest.raises(ConfigError):
            LRPRuleConfig(**kw)

    def test_single_dense_layer_w_times_x(self):
        model = build_model([LayerSpec("dense", units=1)], (3,), seed=0)
        _zero_biases(model)
        w = np.array([[2.0, -1.0, 0.5]], dtype=np.float32)
        model.params["layer0.weight"].data[:] = w
        x = np.array([1.0, 2.0, 4.0], dtype=np.float32)
        rel = lrp(model, x, 0, EPS0)
        np.testing.assert_allclose(rel.input_relevance, w[0] * x, rtol=1e-6)
        y = float(w[0] @ x)
        assert rel.input_relevance.sum() == pytest.approx(y, rel=1e-6)

    def test_dead_relu_path_gets_zero(self):
        layers = [LayerSpec("dense", units=2), LayerSpec("relu"), LayerSpec("dense", units=1)]
        model = build_model(layers, (2,), seed=0)
        _zero_biases(model)
        model.params["layer0.weight"].data[:] = np.array([[1.0, 0.0], [0.0, -1.0]])
        model.params["layer2.weight"].data[:] = np.array([[1.0, 1.0]])
        x = np.array([1.0, 1.0], dtype=np.float32)
        for rules in (EPS0, AB10):
            rel = lrp(model, x, 0, rules)
            np.testing.assert_allclose(rel.relevances[1], [1.0, 0.0], atol=1e-7)
            np.testing.assert_allclose(rel.input_relevance, [1.0, 0.0], atol=1e-7)

    def test_two_layer_hand_unrolled(self):
        """dense(2->2) -> relu -> dense(2->1), unrolled epsilon rule."""
        layers = [LayerSpec("dense", units=2), LayerSpec("relu"), LayerSpec("dense", units=1)]
        model = build_model(layers, (2,), seed=0)
        _zero_biases(model)
        w1 = np.array([[1.5, -0.5], [0.25, 1.0]], dtype=np.float32)
        w2 = np.array([[2.0, -1.0]], dtype=np.float32)
        model.params["layer0.weight"].data[:] = w1
        model.params["layer2.weight"].data[:] = w2
        x = np.array([1.0, 0.5], dtype=np.float32)

        z1 = w1 @ x
        a1 = np.maximum(z1, 0)
        y = w2 @ a1
        # one epsilon-rule step per dense layer, relevance through relu unchanged
        r_a1 = a1 * (w2[0] * (y[0] / y[0]))
        s1 = r_a1 / np.where(z1 == 0, 1, z1) * (z1 != 0)
        r_x = x * (w1.T @ s1)

        rel = lrp(model, x, 0, EPS0)
        np.testing.assert_allclose(rel.relevances[1], r_a1, rtol=1e-6)
        np.testing.assert_allclose(rel.input_relevance, r_x, rtol=1e-6)


class TestConservation:
    def test_bias_free_networks_conserve(self, rng):
        for _ in range(8):
            if rng.integers(0, 2):
                model, x = random_conv_net(rng, with_bias=False)
            else:
                model, x = random_dense_net(rng, with_bias=False)
            logits = forward_with_trace(model, x)[0].data
            target = int(np.argmax(np.abs(logits)))
            if abs(logits[target]) < 1e-3:
                continue
            rel = lrp(model, x, target, EPS)
            total = rel.input_relevance.sum()
            assert abs(total - logits[target]) / abs(logits[target]) < 1e-3

    def test_bias_absorption_accounting(self, rng):
        """With biases, the conservation deficit equals the analytically
        computed bias-absorbed relevance, layer by layer."""
        for _ in range(6):
            model, x = random_dense_net(rng, widths=[5, 4], with_bias=True)
            logits, trace = forward_with_trace(model, x)
            logits = logits.data
            target = int(np.argmax(np.abs(logits)))
            if abs(logits[target]) < 1e-2:
                continue
            rel = lrp(model, x, target, EPS0)
            absorbed = 0.0
            for li, spec in enumerate(model.layers):
                if spec.kind != "dense":
                    continue
                b = model.params[f"layer{li}.bias"].data.astype(np.float64)
                z = trace.tensors[li + 1].data.astype(np.float64)
                r_out = rel.relevances[li + 1].astype(np.float64)
                ok = z != 0
                absorbed += float((r_out[ok] * b[ok] / z[ok]).sum())
            deficit = float(logits[target]) - float(rel.input_relevance.sum())
            assert deficit == pytest.approx(absorbed, rel=1e-3, abs=1e-5)


class TestAlphaBeta:
    def test_positive_relevance_everywhere(self, rng):
        for _ in range(6):
            model, x = random_conv_net(rng)
            x = np.abs(x)  # nonnegative input, like images
            logits = forward_with_trace(model, x)[0].data
            target = int(np.argmax(logits))
            if logits[target] <= 0:
                # flip the readout so the seed relevance is positive
                for name in model.param_names():
                    if model.params[name].data.ndim == 2:
                        model.params[name].data *= -1
                logits = forward_with_trace(model, x)[0].data
                target = int(np.argmax(logits))
            if logits[target] <= 0:
                continue
            rel = lrp(model, x, target, AB10)
            for r in rel.relevances:
                assert r.min() >= 0

    def test_alpha2_beta1_single_layer_conserves(self, rng):
        # alpha-beta conserves per unit when both signed parts are present;
        # a dense layer on a strictly positive input guarantees that
        rules = LRPRuleConfig.uniform("alphabeta", epsilon=0.0, alpha=2.0, beta=1.0)
        for _ in range(4):
            model, x = random_dense_net(rng, widths=[], with_bias=False)
            x = np.abs(x) + 0.1
            w = model.params["layer0.weight"]
            w.data[:] = np.abs(w.data)
            w.data[:, ::2] *= -1  # both signs present in every row
            logits = forward_with_trace(model, x)[0].data
            target = int(np.argmax(np.abs(logits)))
            if abs(logits[target]) < 1e-2:
                continue
            rel = lrp(model, x, target, rules)
            total = rel.input_relevance.sum()
            assert abs(total - logits[target]) / abs(logits[target]) < 1e-3

    def test_alpha1_beta0_conserves_on_conv_net(self, rng):
        rules = LRPRuleConfig.uniform("alphabeta", epsilon=0.0, alpha=1.0, beta=0.0)
        for _ in range(4):
            model, x = random_conv_net(rng, with_bias=False)
            x = np.abs(x)
            logits = forward_with_trace(model, x)[0].data
            target = int(np.argmax(np.abs(logits)))
            if abs(logits[target]) < 1e-2:
                continue
            rel = lrp(model, x, target, rules)
            total = rel.input_relevance.sum()
            assert abs(total - logits[target]) / abs(logits[target]) < 1e-3


class TestGraphVsStack:
    def test_routes_agree(self, rng):
        for rules in (EPS, AB10, LRPRuleConfig()):
            for _ in range(3):
                model, x = random_conv_net(rng, with_pool=True)
                logits, trace = forward_with_trace(model, x)
                target = int(np.argmax(np.abs(logits.data)))
                rel_graph = relevance_graph(model, trace, target, rules)
                fast = input_relevance(model, trace, target, rules)
                np.testing.assert_array_equal(fast, rel_graph[0].data)

    def test_stack_is_linear_in_seeds(self, rng):
        model, x = random_conv_net(rng)
        _, trace = forward_with_trace(model, x)
        seeds = np.zeros((3, 2), dtype=np.float32)
        seeds[0, 0] = 1.0
        seeds[1, 1] = 1.0
        seeds[2] = [1.0, 1.0]
        out = relevance_stack(model, trace, len(model.layers), seeds, EPS)
        np.testing.assert_allclose(out[2], out[0] + out[1], rtol=1e-4, atol=1e-6)


class TestSeedStack:
    @pytest.mark.parametrize("rules", [EPS, AB10, LRPRuleConfig()],
                             ids=["epsilon", "alpha1beta0", "composite"])
    def test_stack_equals_one_seed_calls(self, rng, rules):
        """M stacked seeds give the M one-seed results bit for bit, from
        every trace position."""
        model, x = random_conv_net(rng, input_hw=8, with_pool=True)
        _, trace = forward_with_trace(model, x)
        for start in range(len(model.layers) + 1):
            seeds = rng.normal(size=(4,) + trace.tensors[start].data.shape).astype(np.float32)
            stacked = relevance_stack(model, trace, start, seeds, rules)
            assert stacked.shape == (4,) + x.shape
            for seed, got in zip(seeds, stacked):
                want = relevance_stack(model, trace, start, seed[None], rules)[0]
                assert got.tobytes() == want.tobytes()

    def test_empty_stack(self, rng):
        model, x = random_conv_net(rng, with_pool=True)
        _, trace = forward_with_trace(model, x)
        for start in (0, 1, len(model.layers)):
            seeds = np.zeros((0,) + trace.tensors[start].data.shape, dtype=np.float32)
            out = relevance_stack(model, trace, start, seeds, EPS)
            assert out.shape == (0,) + x.shape and out.dtype == np.float32


def _conv(channels, k, stride, padding):
    return LayerSpec("conv", channels=channels, kernel=k, stride=stride, padding=padding)


# nets whose conv and pool layers move a tangent's row band in every way the
# transposed walk handles: stride 2, no padding (the stride-2 conv misses the
# bottom input row), and overlapping 3/2 pooling
BAND_NETS = {
    "stride2": [_conv(3, 3, 2, 0), LayerSpec("relu"), _conv(2, 3, 1, 1), LayerSpec("relu")],
    "padding0": [_conv(3, 3, 1, 0), LayerSpec("relu"), LayerSpec("maxpool", window=2, stride=2)],
    "pool3_2": [_conv(3, 3, 1, 1), LayerSpec("relu"), LayerSpec("maxpool", window=3, stride=2),
                _conv(2, 2, 2, 0)],
}


def _band_net(rng, name):
    """A random 10x10 net of BAND_NETS with random biases, and an input."""
    layers = BAND_NETS[name] + [LayerSpec("flatten"), LayerSpec("dense", units=2)]
    model = build_model(layers, (2, 10, 10), seed=int(rng.integers(0, 2**31)))
    for n in model.param_names():
        if n.endswith(".bias"):
            model.params[n].data[:] = rng.normal(0, 0.1, model.params[n].data.shape)
    return model, rng.normal(size=(2, 10, 10))


def _band_tangents(rng, shape):
    """Tangents nonzero in one row, the top and the bottom row, none, three
    rows, every row, and one pixel of the first one's row, in random order."""
    c, h, w = shape
    t = np.zeros((7,) + shape)
    row = int(rng.integers(1, h - 1))
    t[0, :, row] = rng.normal(size=(c, w))
    t[1, :, 0] = rng.normal(size=(c, w))
    t[2, :, h - 1] = rng.normal(size=(c, w))
    t[4, :, 2:5] = rng.normal(size=(c, 3, w))
    t[5] = rng.normal(size=shape)
    t[6, 1, row, 3] = 1.0
    return t[rng.permutation(len(t))]


class TestTranspose:
    @pytest.mark.parametrize("rules", [
        EPS, AB10, LRPRuleConfig.uniform("alphabeta", epsilon=1e-6, alpha=2.0, beta=1.0),
    ], ids=["epsilon", "alpha1beta0", "alpha2beta1"])
    def test_adjoint_of_stack(self, rng, rules):
        """<relevance_stack(s), t> == <s, relevance_transpose(t)> in float64,
        from every trace position of conv/pool/dense and dense nets."""
        def dots(x, y):
            return x.reshape(len(x), -1) @ y.reshape(len(y), -1).T

        for make in (lambda: random_conv_net(rng, input_hw=8, with_pool=True),
                     lambda: random_conv_net(rng, input_hw=8, depth=2),
                     lambda: random_dense_net(rng, widths=[5, 4])):
            model, x = make()
            model = model.astype(np.float64)
            _, trace = forward_with_trace(model, x)
            for start in range(len(model.layers) + 1):
                s = rng.normal(size=(3,) + trace.tensors[start].data.shape)
                t = rng.normal(size=(3,) + trace.tensors[0].data.shape)
                lhs = dots(relevance_stack(model, trace, start, s, rules), t)
                rhs = dots(s, relevance_transpose(model, trace, start, t, rules))
                np.testing.assert_allclose(rhs, lhs, rtol=0, atol=1e-9 * np.abs(lhs).max())

    def test_shape_checks(self, rng):
        model, x = random_conv_net(rng)
        _, trace = forward_with_trace(model, x)
        with pytest.raises(IndexError):
            relevance_transpose(model, trace, len(trace), np.zeros((1,) + x.shape))
        with pytest.raises(ConfigError):
            relevance_transpose(model, trace, 1, np.zeros((1, 1) + x.shape[1:]))

    @pytest.mark.parametrize("net", BAND_NETS)
    @pytest.mark.parametrize("rules", [
        EPS, AB10, LRPRuleConfig.uniform("alphabeta", epsilon=1e-6, alpha=2.0, beta=1.0),
    ], ids=["epsilon", "alpha1beta0", "alpha2beta1"])
    def test_adjoint_for_row_band_tangents(self, rng, net, rules):
        """The dot-product test of test_adjoint_of_stack for tangents that
        reach a band of rows, from every trace position."""
        def dots(x, y):
            return x.reshape(len(x), -1) @ y.reshape(len(y), -1).T

        model, x = _band_net(rng, net)
        model = model.astype(np.float64)
        _, trace = forward_with_trace(model, x)
        t = _band_tangents(rng, x.shape)
        for start in range(len(model.layers) + 1):
            s = rng.normal(size=(3,) + trace.tensors[start].data.shape)
            lhs = dots(relevance_stack(model, trace, start, s, rules), t)
            rhs = dots(s, relevance_transpose(model, trace, start, t, rules))
            np.testing.assert_allclose(rhs, lhs, rtol=0, atol=1e-9 * np.abs(lhs).max())

    @pytest.mark.parametrize("net", BAND_NETS)
    def test_mixed_bands_equal_one_call_per_tangent(self, rng, net):
        """A stack of tangents with different row bands gives, in input
        order, the bits of one call per tangent (float32 net, float64
        tangents, as BiLRP runs it)."""
        model, x = _band_net(rng, net)
        _, trace = forward_with_trace(model, x.astype(np.float32))
        t = _band_tangents(rng, x.shape)
        for start in range(len(model.layers) + 1):
            stacked = relevance_transpose(model, trace, start, t)
            for one, got in zip(t, stacked):
                want = relevance_transpose(model, trace, start, one[None])[0]
                assert got.tobytes() == want.tobytes(), start

    def test_empty_and_all_zero_stacks(self, rng):
        """No tangents give an empty stack shaped like the trace entry, and
        all-zero tangents give +0.0 without sign bits."""
        model = build_model(default_layers((4, 8, 8, 8), 8), (3, 32, 32), 2)
        x = rng.random((3, 32, 32)).astype(np.float32) - 0.5
        dense, v = random_dense_net(rng, widths=[5, 4])
        for net, inp, starts in ((model, x, (0, 3, 7, len(model.layers))), (dense, v, (0, 2, 4))):
            _, trace = forward_with_trace(net, inp)
            for start in starts:
                shape = trace.tensors[start].data.shape
                empty = relevance_transpose(net, trace, start, np.zeros((0,) + inp.shape))
                assert empty.shape == (0,) + shape
                zero = relevance_transpose(net, trace, start, np.zeros((2,) + inp.shape))
                assert zero.shape == (2,) + shape
                assert not zero.any() and not np.signbit(zero).any()


class TestDifferentiability:
    @pytest.mark.parametrize("rules", GRAPH_RULES.values(), ids=GRAPH_RULES.keys())
    def test_gradient_through_relevance(self, rng, rules):
        """d/dtheta of a scalar function of the input relevance matches
        finite differences through the whole two-pass graph."""
        model, x = random_conv_net(rng, depth=1, with_pool=True)
        m64 = model.astype(np.float64)
        x64 = x.astype(np.float64)
        probe = np.random.default_rng(3).normal(size=x.shape)

        def run():
            _, trace = forward_with_trace(m64, Tensor(x64, dtype=None))
            rel = relevance_graph(m64, trace, 0, rules)
            return E.sum_all(E.mul(rel[0], Tensor(probe, dtype=None)))

        out = run()
        grads = E.backward(out)
        arrays = [p.data for p in params_of(m64)]
        analytic = [E.grad_for(grads, p) for p in params_of(m64)]
        check_gradients(
            lambda: run().item(), arrays, analytic, h=1e-5, rel_tol=1e-2, abs_cutoff=1e-5
        )

    def test_gradient_through_alphabeta(self, rng):
        """alpha1-beta0 and alpha2-beta1 on a dense net. The rule node's
        masked weight gradient is an ndarray; the weight's own forward
        matvec gives factor pairs that meet it."""
        model, x = random_dense_net(rng, widths=[4])
        m64 = model.astype(np.float64)
        x64 = x.astype(np.float64)
        probe = np.random.default_rng(5).normal(size=x.shape)
        for alpha, beta in ((1.0, 0.0), (2.0, 1.0)):
            rules = LRPRuleConfig.uniform("alphabeta", epsilon=1e-6, alpha=alpha, beta=beta)

            def run():
                _, trace = forward_with_trace(m64, Tensor(x64, dtype=None))
                rel = relevance_graph(m64, trace, 1, rules)
                return E.sum_all(E.mul(rel[0], Tensor(probe, dtype=None)))

            out = run()
            grads = E.backward(out)
            arrays = [p.data for p in params_of(m64)]
            analytic = [E.grad_for(grads, p) for p in params_of(m64)]
            check_gradients(
                lambda: run().item(), arrays, analytic, h=1e-5, rel_tol=1e-2, abs_cutoff=1e-5
            )


def _probed_loss(route, model, x, probes, rules):
    """Cross-entropy plus a probe of the relevance at every trace position,
    so each rule node's gradient reaches the parameters both directly and
    through the nodes below it."""
    logits, trace = forward_with_trace(model, Tensor(x, dtype=None))
    rel = route(model, trace, 1, rules)
    loss = E.softmax_cross_entropy(logits, 0)
    for r, probe in zip(rel, probes):
        loss = E.add(loss, E.sum_all(E.mul(r, Tensor(probe, dtype=None))))
    return loss, trace


class TestRuleStep:
    """Each conv or dense rule step is one graph node with a hand-written
    backward, checked against the same rules built from autodiff
    primitives."""

    NETS = {
        "conv_pool": lambda rng: random_conv_net(rng, depth=1, with_pool=True),
        "conv": lambda rng: random_conv_net(rng, depth=2, with_pool=False),
        "dense": lambda rng: random_dense_net(rng, widths=[5, 4]),
    }

    @pytest.mark.parametrize("net", NETS.keys())
    @pytest.mark.parametrize("rules", [*GRAPH_RULES.values(), EPS0], ids=[*GRAPH_RULES, "eps0"])
    def test_gradients_equal_primitive_route(self, rng, net, rules):
        model, x = self.NETS[net](rng)
        m64, x64 = model.astype(np.float64), x.astype(np.float64)
        for name in m64.param_names():  # W == 0 belongs to the W<=0 part
            m64.params[name].data.reshape(-1)[0] = 0
        _, trace = forward_with_trace(m64, x64)
        probes = [rng.normal(size=t.data.shape) for t in trace.tensors]
        got_loss, got_trace = _probed_loss(relevance_graph, m64, x64, probes, rules)
        want_loss, want_trace = _probed_loss(relevance_graph_reference, m64, x64, probes, rules)
        assert got_loss.item() == pytest.approx(want_loss.item(), rel=1e-12)
        got, want = E.backward(got_loss), E.backward(want_loss)
        pairs = [(E.grad_for(got, p), E.grad_for(want, p)) for p in params_of(m64)]
        pairs.append((got[got_trace.tensors[0]], want[want_trace.tensors[0]]))
        for g, w in pairs:
            assert g.shape == w.shape
            np.testing.assert_allclose(g, w, rtol=0, atol=1e-8 * np.abs(w).max())

    def test_one_node_per_layer(self, rng):
        """Above the forward graph, relevance_graph adds the seed's onehot
        product and one node per conv, dense, pool and flatten layer."""
        model, x = random_conv_net(rng, depth=2, with_pool=True)
        logits, trace = forward_with_trace(model, x)
        rel = relevance_graph(model, trace, 0, LRPRuleConfig())
        forward = {id(n) for n in E._toposort(logits)}
        added = [n for n in E._toposort(rel[0]) if id(n) not in forward and n.parents]
        steps = [li for li, spec in enumerate(model.layers) if spec.kind not in ("relu", "dropout")]
        assert len(added) == 1 + len(steps)
        for li in steps:
            assert rel[li].parents[0] is rel[li + 1]
            if model.layers[li].kind in ("conv", "dense"):
                assert len(rel[li].parents) == 5

    @pytest.mark.parametrize("rules", [EPS0, AB10], ids=["eps0", "alpha1beta0"])
    def test_zero_denominator(self, rules):
        """A hidden unit with z == 0 (zero weights and bias, no stabilizer)
        gets 0 relevance, and the node passes a finite zero gradient
        through it."""
        layers = [LayerSpec("dense", units=2), LayerSpec("relu"), LayerSpec("dense", units=1)]
        model = build_model(layers, (3,), seed=0).astype(np.float64)
        model.params["layer0.weight"].data[1] = 0
        model.params["layer0.bias"].data[:] = [0.1, 0.0]
        x = np.array([1.0, 0.5, 2.0])
        _, trace = forward_with_trace(model, Tensor(x, dtype=None))
        assert trace.tensors[1].data[1] == 0
        rel = relevance_graph(model, trace, 0, rules)
        assert rel[1].data[1] == 0 and rel[2].data[1] == 0
        grads = E.backward(E.sum_all(E.mul(rel[0], Tensor([1.0, -2.0, 3.0], dtype=None))))
        for p in params_of(model):
            assert np.isfinite(E.grad_for(grads, p)).all()
        assert (E.grad_for(grads, model.params["layer0.weight"])[1] == 0).all()
        assert E.grad_for(grads, model.params["layer0.bias"])[1] == 0

    @pytest.mark.parametrize("rules", [EPS0, AB10], ids=["eps0", "alpha1beta0"])
    def test_zero_denominators_in_some_units(self, rng, rules, monkeypatch):
        """With no stabilizer, a dead conv channel (zero weights and bias)
        has zero denominators and the other channels have none: the masked
        route runs, and the gradients still equal the primitive route's."""
        model, x = random_conv_net(rng, depth=2, with_pool=True)
        m64, x64 = model.astype(np.float64), x.astype(np.float64)
        m64.params["layer0.weight"].data[1] = 0
        m64.params["layer0.bias"].data[1] = 0
        ratio, masks = lrp_module._safe_ratio, []

        def spy(r, denom):
            out = ratio(r, denom)
            masks.append(out[0])  # None: no zero denominator
            return out

        monkeypatch.setattr(lrp_module, "_safe_ratio", spy)
        _, trace = forward_with_trace(m64, x64)
        probes = [rng.normal(size=t.data.shape) for t in trace.tensors]
        got_loss, got_trace = _probed_loss(relevance_graph, m64, x64, probes, rules)
        assert any(m is not None and m.any() for m in masks)  # some units zero, not all
        want_loss, want_trace = _probed_loss(relevance_graph_reference, m64, x64, probes, rules)
        assert got_loss.item() == pytest.approx(want_loss.item(), rel=1e-12)
        got, want = E.backward(got_loss), E.backward(want_loss)
        pairs = [(E.grad_for(got, p), E.grad_for(want, p)) for p in params_of(m64)]
        pairs.append((got[got_trace.tensors[0]], want[want_trace.tensors[0]]))
        for g, w in pairs:
            assert g.shape == w.shape
            np.testing.assert_allclose(g, w, rtol=0, atol=1e-8 * np.abs(w).max())

    def test_cancelled_logit_passes_no_gradient(self, rng):
        """A target logit that is exactly 0 by cancellation (epsilon rule, no
        stabilizer) has a zero denominator while its share g_s is not 0, so
        only the masked backward passes it no gradient, as the primitive
        route does. All values are small dyadic numbers: exact in any order."""
        layers = [LayerSpec("dense", units=3), LayerSpec("relu"), LayerSpec("dense", units=2)]
        model = build_model(layers, (2,), seed=0).astype(np.float64)
        model.params["layer0.weight"].data[:] = [[1, 0], [0, 1], [1, 1]]
        model.params["layer2.weight"].data[:] = [[1, 1, 1], [2, -1, 0]]  # logits (6, 0)
        for name in ("layer0.bias", "layer2.bias"):
            model.params[name].data[:] = 0
        x = np.array([1.0, 2.0])
        _, trace = forward_with_trace(model, x)
        assert trace.tensors[-1].data[1] == 0  # _probed_loss seeds class 1
        probes = [rng.normal(size=t.data.shape) for t in trace.tensors]
        got_loss, _ = _probed_loss(relevance_graph, model, x, probes, EPS0)
        want_loss, _ = _probed_loss(relevance_graph_reference, model, x, probes, EPS0)
        got, want = E.backward(got_loss), E.backward(want_loss)
        for p in params_of(model):
            np.testing.assert_allclose(E.grad_for(got, p), E.grad_for(want, p), rtol=1e-12, atol=0)


class TestSafeRatio:
    """``_safe_ratio`` skips the masking passes when no denominator is zero;
    either way its ratio has the bits of the masked formula."""

    @pytest.mark.parametrize("zeros", ["none", "zero", "negative_zero"])
    @pytest.mark.parametrize("r_kind", ["map", "ones"])  # ones: the transposed walk's scale
    def test_bits_of_masked_formula(self, rng, zeros, r_kind):
        denom = rng.normal(size=(4, 50)).astype(np.float32)
        if zeros != "none":
            denom[1, ::3] = 0.0 if zeros == "zero" else -0.0
        r = (rng.normal(size=denom.shape).astype(np.float32) if r_kind == "map"
             else np.ones((), dtype=np.float64))
        nz = denom != 0
        want = np.where(nz, r / np.where(nz, denom, 1), 0)
        nonzero, _, got = _safe_ratio(r, denom)
        assert (nonzero is None) == (zeros == "none")
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


class TestNumericalGuard:
    def test_overflow_raises(self):
        model = build_model([LayerSpec("dense", units=2)], (2,), seed=0)
        model.params["layer0.weight"].data[:] = 1e30
        x = np.array([1e30, 1e30], dtype=np.float32)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalError):
                lrp(model, x, 0, EPS)


class TestHeatmap:
    def test_all_zero(self, tmp_path):
        path = tmp_path / "h.pgm"
        render_heatmap(np.zeros((3, 4, 4), dtype=np.float32), path)
        blob = path.read_bytes()
        assert blob.startswith(b"P5\n4 4\n255\n")
        assert set(blob[len(b"P5\n4 4\n255\n") :]) == {0}

    def test_single_hot_pixel(self, tmp_path):
        rel = np.zeros((1, 4, 4), dtype=np.float32)
        rel[0, 2, 1] = 7.0
        path = tmp_path / "h.pgm"
        render_heatmap(rel, path)
        pixels = np.frombuffer(path.read_bytes()[len(b"P5\n4 4\n255\n") :], dtype=np.uint8)
        assert (pixels == 255).sum() == 1
        assert pixels.reshape(4, 4)[2, 1] == 255

    def test_header_64(self, tmp_path):
        path = tmp_path / "h.pgm"
        render_heatmap(np.zeros((3, 64, 64), dtype=np.float32), path)
        assert path.read_bytes().startswith(b"P5\n64 64\n255\n")

    def test_csv_round_trip(self, tmp_path, rng):
        rel = rng.normal(size=(3, 5, 5)).astype(np.float32)
        path = tmp_path / "h.pgm"
        render_heatmap(rel, path)
        parsed = read_heatmap_csv(tmp_path / "h.csv")
        np.testing.assert_array_equal(parsed, rel.sum(axis=0))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_csv_bytes_equal_per_value_format(self, tmp_path, rng, dtype):
        info = np.finfo(dtype)
        edges = [0.0, -0.0, info.smallest_subnormal, -info.smallest_subnormal, info.tiny,
                 np.finfo(np.float32).max, -np.finfo(np.float32).max, np.inf, -np.inf, np.nan]
        rel = rng.normal(size=(3, 6)).astype(dtype)
        rel.flat[: len(edges)] = edges
        with np.errstate(all="ignore"):  # the PGM of inf/nan is not under test
            render_heatmap(rel, tmp_path / "h.pgm")
        want = "".join(",".join(f"{float(v):.9g}" for v in row) + "\n" for row in rel)
        assert (tmp_path / "h.csv").read_text() == want
