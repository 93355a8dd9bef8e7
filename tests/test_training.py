"""Guided loss, attention score, Adam, the training loop, and evaluation."""

import numpy as np
import pytest

from relguide import engine as E
from relguide import training
from relguide.data import GeneratorConfig, LabeledSample, generate
from relguide.engine import Tensor
from relguide.errors import ConfigError, ScoreError
from relguide.lrp import LRPRuleConfig, relevance_graph
from relguide.network import LayerSpec, build_model, forward_with_trace
from relguide.training import (
    Adam,
    LossConfig,
    TrainConfig,
    _score_graph,
    evaluate,
    guided_loss,
    lesion_relevance_score,
    read_metrics_csv,
    train,
    weighted_f1,
    write_metrics_csv,
)

from helpers import central_diff, check_gradients, naive_softmax_ce, params_of


def hold_score_at_one(monkeypatch):
    """Make the guided loss's score the constant 1 (a leaf, so no gradient
    reaches the relevance path), whatever the relevance is."""
    monkeypatch.setattr(training, "_score_graph",
                        lambda rel, *args: E.Tensor(np.ones((), dtype=rel.data.dtype), dtype=None))


def oracle_score(relevance, lesion, obj, variant="unnormalized", floor=1e-3):
    """Direct-summation scoring oracle with negative clipping, float64."""
    rel2d = np.maximum(np.asarray(relevance, dtype=np.float64).sum(axis=0), 0)
    lesion = np.asarray(lesion, dtype=bool)
    rest = np.asarray(obj, dtype=bool) & ~lesion
    r_mask = sum(rel2d[i, j] for i, j in np.argwhere(lesion))
    r_rest = sum(rel2d[i, j] for i, j in np.argwhere(rest))
    if variant == "area_normalized":
        r_mask /= lesion.sum()
        r_rest /= max(rest.sum(), 1)
    den = r_mask + r_rest
    return max(r_mask / den if den > 0 else 0.0, floor)


class TestLesionRelevanceScore:
    def test_all_relevance_inside_lesion(self):
        rel = np.zeros((3, 4, 4), dtype=np.float32)
        rel[:, 1, 1] = 1.0
        lesion = np.zeros((4, 4), dtype=np.uint8)
        lesion[1, 1] = 1
        obj = np.ones((4, 4), dtype=np.uint8)
        assert lesion_relevance_score(rel, lesion, obj) == 1.0

    def test_uniform_relevance_half_lesion(self):
        rel = np.ones((1, 4, 4), dtype=np.float32)
        obj = np.ones((4, 4), dtype=np.uint8)
        lesion = np.zeros((4, 4), dtype=np.uint8)
        lesion[:, :2] = 1
        assert lesion_relevance_score(rel, lesion, obj, "unnormalized") == pytest.approx(0.5)
        assert lesion_relevance_score(rel, lesion, obj, "area_normalized") == pytest.approx(0.5)

    def test_negative_clipping_after_channel_sum(self):
        rel = np.array([[[2.0, -1.0], [1.0, 1.0]]], dtype=np.float32)
        lesion = np.array([[1, 0], [0, 0]], dtype=np.uint8)
        obj = np.ones((2, 2), dtype=np.uint8)
        got = lesion_relevance_score(rel, lesion, obj)
        assert got == pytest.approx(0.5)
        assert got == pytest.approx(oracle_score(rel, lesion, obj))

    def test_empty_lesion_raises(self):
        rel = np.ones((1, 2, 2), dtype=np.float32)
        with pytest.raises(ScoreError):
            lesion_relevance_score(rel, np.zeros((2, 2), dtype=np.uint8),
                                   np.ones((2, 2), dtype=np.uint8))

    @pytest.mark.parametrize("which", ["lesion", "object"])
    @pytest.mark.parametrize("bad", [2, 0.5, np.nan])
    def test_non_binary_masks_refused(self, which, bad):
        rel = np.ones((1, 3, 3), dtype=np.float32)
        masks = {"lesion": np.ones((3, 3)), "object": np.ones((3, 3))}
        masks[which][1, 2] = bad
        with pytest.raises(ScoreError, match="masks must be binary"):
            lesion_relevance_score(rel, masks["lesion"], masks["object"])
        with pytest.raises(ScoreError, match="masks must be binary"):
            _score_graph(Tensor(rel), masks["lesion"], masks["object"], "unnormalized", 1e-3)

    @pytest.mark.parametrize("dtype", [bool, np.uint8, np.float32, np.float64])
    def test_binary_masks_of_any_dtype_accepted(self, dtype):
        rel = np.arange(9, dtype=np.float32).reshape(1, 3, 3)
        lesion = np.zeros((3, 3), dtype=dtype)
        lesion[0] = 1
        obj = np.ones((3, 3), dtype=dtype)
        want = rel[0, 0].sum() / rel.sum()
        assert lesion_relevance_score(rel, lesion, obj) == pytest.approx(want)
        graph = _score_graph(Tensor(rel), lesion, obj, "unnormalized", 1e-3)
        assert float(graph.data) == pytest.approx(want)

    def test_all_outside_clamps_to_floor(self):
        rel = np.zeros((1, 4, 4), dtype=np.float32)
        rel[0, 0, 0] = 5.0  # outside the object entirely
        obj = np.zeros((4, 4), dtype=np.uint8)
        obj[2:, 2:] = 1
        lesion = np.zeros((4, 4), dtype=np.uint8)
        lesion[3, 3] = 1
        assert lesion_relevance_score(rel, lesion, obj, floor=1e-3) == 1e-3

    def test_random_against_oracle(self, rng):
        for _ in range(30):
            rel = rng.normal(size=(3, 6, 6)).astype(np.float32)
            obj = (rng.random((6, 6)) < 0.7).astype(np.uint8)
            lesion = ((rng.random((6, 6)) < 0.3) & obj.astype(bool)).astype(np.uint8)
            if not lesion.any():
                continue
            for variant in ("unnormalized", "area_normalized"):
                got = lesion_relevance_score(rel, lesion, obj, variant)
                assert got == pytest.approx(oracle_score(rel, lesion, obj, variant), abs=1e-6)

    def test_graph_twin_matches(self, rng):
        for _ in range(10):
            rel = rng.normal(size=(3, 5, 5)).astype(np.float32)
            obj = np.ones((5, 5), dtype=np.uint8)
            lesion = np.zeros((5, 5), dtype=np.uint8)
            lesion[1:3, 1:3] = 1
            for variant in ("unnormalized", "area_normalized"):
                graph = _score_graph(Tensor(rel), lesion, obj, variant, 1e-3)
                plain = lesion_relevance_score(rel, lesion, obj, variant)
                assert float(graph.data) == pytest.approx(plain, rel=1e-6)

    def test_bounds_property(self, rng):
        for _ in range(50):
            rel = rng.normal(size=(1, 4, 4)).astype(np.float32)
            obj = np.ones((4, 4), dtype=np.uint8)
            lesion = np.zeros((4, 4), dtype=np.uint8)
            lesion[rng.integers(4), rng.integers(4)] = 1
            s = lesion_relevance_score(rel, lesion, obj, floor=1e-3)
            assert 1e-3 <= s <= 1.0


class TestGuidedLoss:
    def test_score_one_equals_cross_entropy(self, rng):
        logits = rng.normal(size=3).astype(np.float32)
        ce = E.softmax_cross_entropy(Tensor(logits), 1)
        loss = guided_loss(logits, 1, 1.0, 3.0)
        assert float(loss.data) == float(ce.data)

    def test_ratio_arithmetic(self):
        # logits chosen so the cross-entropy is exactly representable
        logits = np.array([0.0, 0.0], dtype=np.float32)
        ce = naive_softmax_ce(logits, 0)
        loss1 = guided_loss(logits, 0, 0.5, 1.0)
        loss3 = guided_loss(logits, 0, 0.5, 3.0)
        assert float(loss1.data) == pytest.approx(ce / 0.5, rel=1e-6)
        assert float(loss3.data) == pytest.approx(ce / 0.5**3, rel=1e-6)

    def test_frozen_values(self):
        # CE 0.6 at score 0.5: p=1 -> 1.2, p=3 -> 4.8
        p_target = float(np.exp(-0.6))
        logits = np.log(np.array([p_target, 1.0 - p_target])).astype(np.float32)
        assert float(guided_loss(logits, 0, 0.5, 1.0).data) == pytest.approx(1.2, abs=1e-5)
        assert float(guided_loss(logits, 0, 0.5, 3.0).data) == pytest.approx(4.8, abs=1e-5)

    def test_below_floor_clamped(self):
        logits = np.array([0.0, 0.0], dtype=np.float32)
        loss = guided_loss(logits, 0, 1e-9, 1.0, floor=1e-3)
        assert float(loss.data) == pytest.approx(naive_softmax_ce(logits, 0) / 1e-3, rel=1e-5)

    def test_monotone_decreasing_in_score(self):
        logits = np.array([0.2, -0.1], dtype=np.float32)
        for p in (1.0, 2.0, 3.0):
            values = [float(guided_loss(logits, 1, s, p).data) for s in (0.2, 0.5, 0.9)]
            assert values[0] > values[1] > values[2]

    def test_power_zero_reduces_to_ce(self):
        logits = np.array([1.0, -1.0], dtype=np.float32)
        assert float(guided_loss(logits, 0, 0.37, 0.0).data) == pytest.approx(
            naive_softmax_ce(logits, 0), rel=1e-6
        )


class TestAdam:
    def test_single_step_closed_form(self):
        model = build_model([LayerSpec("dense", units=2)], (1,), seed=0)
        w0 = model.params["layer0.weight"].data.copy()
        b0 = model.params["layer0.bias"].data.copy()
        opt = Adam(model, lr=0.01, beta1=0.9, beta2=0.999, eps=1e-8)
        gw = np.array([[0.4], [-0.2]], dtype=np.float32)
        gb = np.array([0.1, 0.0], dtype=np.float32)
        opt.step({"layer0.weight": gw, "layer0.bias": gb})
        # t=1: m_hat = g, v_hat = g^2 -> theta - lr * g / (|g| + eps)
        np.testing.assert_allclose(
            model.params["layer0.weight"].data,
            w0 - 0.01 * gw / (np.abs(gw) + 1e-8),
            rtol=1e-6,
        )
        np.testing.assert_allclose(
            model.params["layer0.bias"].data,
            b0 - 0.01 * gb / (np.abs(gb) + 1e-8),
            rtol=1e-6,
        )

    def test_two_steps_bias_correction(self):
        model = build_model([LayerSpec("dense", units=1)], (1,), seed=0)
        model.params["layer0.weight"].data[:] = 0
        model.params["layer0.bias"].data[:] = 0
        opt = Adam(model, lr=0.5, beta1=0.9, beta2=0.999, eps=1e-8)
        g = np.array([[1.0]], dtype=np.float32)
        m = v = 0.0
        theta = 0.0
        for t in (1, 2):
            opt.step({"layer0.weight": g, "layer0.bias": np.zeros(1, dtype=np.float32)})
            m = 0.9 * m + 0.1 * 1.0
            v = 0.999 * v + 0.001 * 1.0
            theta -= 0.5 * (m / (1 - 0.9**t)) / (np.sqrt(v / (1 - 0.999**t)) + 1e-8)
        assert model.params["layer0.weight"].data[0, 0] == pytest.approx(theta, rel=1e-5)


def _toy_sets(n_train=6, n_val=4, seed=11):
    cfg_t = GeneratorConfig(height=32, width=32, samples_per_class=n_train // 2, seed=seed)
    cfg_v = GeneratorConfig(height=32, width=32, samples_per_class=n_val // 2, seed=seed)
    return generate(cfg_t), generate(cfg_v, id_offset=500)


def _toy_model(seed=0):
    layers = [
        LayerSpec("conv", channels=4, kernel=3, stride=1, padding=1),
        LayerSpec("relu"),
        LayerSpec("maxpool", window=2, stride=2),
        LayerSpec("flatten"),
        LayerSpec("dense", units=2),
    ]
    return build_model(layers, (3, 32, 32), seed=seed)


class TestTrain:
    def test_zero_learning_rate_is_noop(self):
        train_set, val_set = _toy_sets()
        model = _toy_model()
        before = {k: v.data.copy() for k, v in model.params.items()}
        _, records = train(
            model, train_set, val_set,
            LossConfig(mode="original"),
            TrainConfig(epochs=2, batch_size=4, learning_rate=0.0, seed=1),
        )
        for k, v in model.params.items():
            np.testing.assert_array_equal(v.data, before[k])
        assert records[0].accuracy == records[1].accuracy
        assert records[0].score_class0 == records[1].score_class0

    def test_constant_score_one_matches_original_bitwise(self, monkeypatch):
        train_set, val_set = _toy_sets()
        m1, m2 = _toy_model(3), _toy_model(3)
        cfg = dict(epochs=2, batch_size=4, learning_rate=1e-3, seed=9)
        train(m1, train_set, val_set, LossConfig(mode="original"), TrainConfig(**cfg))
        hold_score_at_one(monkeypatch)
        train(
            m2, train_set, val_set,
            LossConfig(mode="penalization", power=2.0),
            TrainConfig(**cfg),
        )
        for k in m1.param_names():
            np.testing.assert_array_equal(m1.params[k].data, m2.params[k].data)

    def test_bit_reproducible(self):
        train_set, val_set = _toy_sets()
        m1, m2 = _toy_model(7), _toy_model(7)
        cfg = dict(epochs=2, batch_size=4, learning_rate=1e-3, seed=4)
        _, r1 = train(m1, train_set, val_set,
                      LossConfig(mode="penalization", power=1.0), TrainConfig(**cfg))
        _, r2 = train(m2, train_set, val_set,
                      LossConfig(mode="penalization", power=1.0), TrainConfig(**cfg))
        for k in m1.param_names():
            np.testing.assert_array_equal(m1.params[k].data, m2.params[k].data)
        assert r1 == r2

    def test_empty_train_set_rejected(self):
        _, val_set = _toy_sets()
        with pytest.raises(ValueError):
            train(_toy_model(), [], val_set)

    def test_empty_lesion_rejected_in_penalization_mode(self):
        train_set, val_set = _toy_sets()
        bad = LabeledSample(
            train_set[0].image,
            train_set[0].object_mask,
            np.zeros_like(train_set[0].lesion_mask),
            0,
            999,
        )
        with pytest.raises(ScoreError):
            train(_toy_model(), train_set + [bad], val_set,
                  LossConfig(mode="penalization"), TrainConfig(epochs=1, seed=0))

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            TrainConfig(epochs=0)
        with pytest.raises(ConfigError):
            TrainConfig(learning_rate=-1e-3)
        with pytest.raises(ConfigError):
            LossConfig(mode="nonsense")
        with pytest.raises(ConfigError):
            LossConfig(score_floor=0.0)

    @pytest.mark.parametrize("config, kw", [
        (TrainConfig, {"learning_rate": float("nan")}),
        (TrainConfig, {"beta1": float("nan")}),
        (TrainConfig, {"adam_eps": float("nan")}),
        (LossConfig, {"power": float("nan")}),
        (LossConfig, {"score_floor": float("nan")}),
    ])
    def test_config_validation_nan(self, config, kw):
        with pytest.raises(ConfigError):
            config(**kw)


class TestTwoPathGradient:
    def test_matches_finite_differences(self, rng):
        """The full penalization-step gradient (cross-entropy divided by the
        differentiable score) agrees with finite differences."""
        layers = [
            LayerSpec("conv", channels=3, kernel=3, stride=1, padding=1),
            LayerSpec("relu"),
            LayerSpec("flatten"),
            LayerSpec("dense", units=2),
        ]
        model = build_model(layers, (2, 6, 6), seed=1).astype(np.float64)
        x = rng.random((2, 6, 6)).astype(np.float64)
        lesion = np.zeros((6, 6), dtype=np.uint8)
        lesion[2:4, 2:4] = 1
        obj = np.ones((6, 6), dtype=np.uint8)
        rules = LRPRuleConfig.uniform("epsilon", epsilon=1e-6)

        def run():
            logits, trace = forward_with_trace(model, Tensor(x, dtype=None))
            rel = relevance_graph(model, trace, 1, rules)
            score = _score_graph(rel[0], lesion, obj, "unnormalized", 1e-3)
            return guided_loss(logits, 1, score, 1.0)

        loss = run()
        grads = E.backward(loss)
        arrays = [p.data for p in params_of(model)]
        analytic = [E.grad_for(grads, p) for p in params_of(model)]
        check_gradients(
            lambda: run().item(), arrays, analytic, h=1e-5, rel_tol=1e-2, abs_cutoff=1e-5
        )


class TestEvaluate:
    @staticmethod
    def _pixel_dataset(labels):
        samples = []
        for i, label in enumerate(labels):
            img = np.zeros((1, 4, 4), dtype=np.float32)
            img[0, 0, 0] = float(label)
            lesion = np.zeros((4, 4), dtype=np.uint8)
            lesion[2, 2] = 1
            obj = np.ones((4, 4), dtype=np.uint8)
            samples.append(LabeledSample(img, obj, lesion, label, i))
        return samples

    @staticmethod
    def _readout_model(w_row0, w_row1, b=(0.0, 0.0)):
        model = build_model(
            [LayerSpec("flatten"), LayerSpec("dense", units=2)], (1, 4, 4), seed=0
        )
        model.params["layer1.weight"].data[:] = 0
        model.params["layer1.weight"].data[0, 0] = w_row0
        model.params["layer1.weight"].data[1, 0] = w_row1
        model.params["layer1.bias"].data[:] = b
        return model

    def test_perfect_predictions(self):
        dataset = self._pixel_dataset([0, 1, 0, 1])
        model = self._readout_model(-10.0, 10.0)
        acc, f1w, _, _ = evaluate(model, dataset)
        assert acc == 1.0
        assert f1w == 1.0

    def test_single_class_collapse_weighted_f1(self):
        dataset = self._pixel_dataset([0, 1, 0, 1, 0, 1])
        model = self._readout_model(0.0, 0.0, b=(0.0, 1.0))  # always predicts 1
        acc, f1w, _, _ = evaluate(model, dataset)
        assert acc == pytest.approx(0.5)
        assert f1w == pytest.approx(0.5 * (2.0 / 3.0), abs=1e-6)

    def test_weighted_f1_hand_case(self):
        true_l = [0, 0, 1, 1]
        pred_l = [0, 1, 1, 1]
        # class0: tp=1 fp=0 fn=1 -> F1 2/3; class1: tp=2 fp=1 fn=0 -> F1 4/5
        assert weighted_f1(true_l, pred_l) == pytest.approx(0.5 * (2 / 3) + 0.5 * (4 / 5))

    def test_input_size_mismatch_raises(self, tiny_dataset):
        train_set, _ = tiny_dataset
        model = _toy_model()  # takes 32x32, dataset is 64x64
        with pytest.raises(Exception):
            evaluate(model, train_set)

    def test_score_means_per_class(self):
        dataset = self._pixel_dataset([0, 1])
        model = self._readout_model(-1.0, 1.0)
        _, _, s0, s1 = evaluate(model, dataset)
        assert 1e-3 <= s0 <= 1.0 and 1e-3 <= s1 <= 1.0


class TestMetricsCsv:
    def test_round_trip_and_header(self, tmp_path):
        from relguide.training import METRICS_HEADER, MetricsRecord

        records = [
            MetricsRecord(1, 1.25, 0.5, 0.333333333, 0.25, 0.125),
            MetricsRecord(2, 0.75, 0.875, 0.8, 0.5, 0.625),
        ]
        path = tmp_path / "m.csv"
        write_metrics_csv(records, path)
        text = path.read_text()
        assert text.splitlines()[0] == METRICS_HEADER
        assert "." in text.splitlines()[1]
        loaded = read_metrics_csv(path)
        assert loaded == records
