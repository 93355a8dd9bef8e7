"""Acceptance suite: one test per release criterion, each printing a
PASS line with its measured numbers once its assertions hold.

Run with `pytest tests/test_acceptance.py -v -s`.
"""

import json
import time

import numpy as np
import pytest

from relguide import engine as E
from relguide.atlas import AtlasIndex, load_index, query_knn_vector, save_index
from relguide.bilrp import bilrp, similarity
from relguide.cli import main as cli_main
from relguide.cli import DEFAULTS, run_experiment1, run_experiment2
from relguide.data import GeneratorConfig, generate, load_dataset, save_dataset
from relguide.engine import Tensor
from relguide.errors import ScoreError
from relguide.lrp import LRPRuleConfig, lrp
from relguide.network import (
    LayerSpec,
    build_model,
    forward_with_trace,
    load_weights,
    save_weights,
)
from relguide.training import LossConfig, TrainConfig, lesion_relevance_score, train

from helpers import (
    central_diff,
    grad_mismatches,
    params_of,
    random_conv_net,
    random_dense_net,
    sample_smooth_net,
)
from test_atlas import brute_force_knn
from test_training import oracle_score


def _report(criterion, detail):
    print(f"\nPASS criterion {criterion}: {detail}")


# -- shared full-scale fixtures ---------------------------------------------

EXP_SEED = 12


@pytest.fixture(scope="module")
def default_task():
    """The default synthetic task: rho=0.9, 64x64, 400/100 per class."""
    train_set = generate(GeneratorConfig(seed=7))
    val_set = generate(GeneratorConfig(samples_per_class=100, seed=7), id_offset=1_000_000)
    return train_set, val_set


class TestCriterion1GradientOracle:
    def test_gradients_match_finite_differences(self, rng):
        started = time.time()
        checked = 0
        nets = 0
        while nets < 20:
            if nets % 2 == 0:
                model, x = sample_smooth_net(
                    rng, lambda r: random_conv_net(r, depth=int(r.integers(1, 3)))
                )
            else:
                model, x = sample_smooth_net(
                    rng, lambda r: random_dense_net(r, widths=[int(r.integers(3, 8))])
                )
            m64 = model.astype(np.float64)
            x64 = x.astype(np.float64)
            label = int(rng.integers(0, 2))

            def run():
                logits, _ = forward_with_trace(m64, Tensor(x64, dtype=None))
                return E.softmax_cross_entropy(logits, label)

            grads = E.backward(run())
            for p in params_of(m64):
                fd = central_diff(lambda: run().item(), p.data, h=1e-3)
                fd_half = central_diff(lambda: run().item(), p.data, h=5e-4)
                bad = grad_mismatches(E.grad_for(grads, p), fd, fd_half,
                                      rel_tol=1e-3, abs_tol=1e-5)
                assert bad.size == 0, f"net {nets}, param {p.name}: mismatch at {bad[:3]}"
                checked += p.data.size
            nets += 1
        elapsed = time.time() - started
        assert elapsed < 60, f"gradient oracle took {elapsed:.1f}s"
        _report(1, f"{nets} networks, {checked} parameter gradients vs central "
                   f"finite differences (h=1e-3, rel<=1e-3) in {elapsed:.1f}s")


class TestCriterion2LrpConservation:
    def test_bias_free_conservation_and_bias_accounting(self, rng):
        rules = LRPRuleConfig.uniform("epsilon", epsilon=1e-6)
        conserved = 0
        while conserved < 20:
            if conserved % 2 == 0:
                model, x = random_conv_net(rng, with_bias=False)
            else:
                model, x = random_dense_net(rng, with_bias=False,
                                            widths=[int(rng.integers(3, 7))])
            logits = forward_with_trace(model, x)[0].data
            target = int(np.argmax(np.abs(logits)))
            if abs(logits[target]) < 1e-2:
                continue
            rel = lrp(model, x, target, rules)
            dev = abs(float(rel.input_relevance.sum()) - float(logits[target]))
            assert dev / abs(float(logits[target])) <= 1e-3
            conserved += 1

        # with biases: deviation equals the analytically absorbed relevance
        accounted = 0
        while accounted < 8:
            model, x = random_dense_net(rng, with_bias=True,
                                        widths=[int(rng.integers(3, 7))])
            logits, trace = forward_with_trace(model, x)
            logits = logits.data
            target = int(np.argmax(np.abs(logits)))
            if abs(logits[target]) < 1e-2:
                continue
            rel = lrp(model, x, target, LRPRuleConfig.uniform("epsilon", epsilon=0.0))
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
            accounted += 1
        _report(2, f"{conserved} bias-free nets conserve (rel<=1e-3); "
                   f"{accounted} biased nets match absorbed-relevance accounting")


class TestCriterion3BilrpSumRule:
    def test_sum_rule_symmetry_and_factorization(self, rng):
        rules = LRPRuleConfig.uniform("epsilon", epsilon=1e-6)
        done = 0
        while done < 10:
            units = int(rng.integers(3, 9))
            layers = [
                LayerSpec("flatten"),
                LayerSpec("dense", units=units),
                LayerSpec("relu"),
                LayerSpec("dense", units=int(rng.integers(2, 6))),
            ]
            model = build_model(layers, (1, 4, 4), seed=int(rng.integers(0, 2**31)))
            for name in model.param_names():
                if name.endswith(".bias"):
                    model.params[name].data[:] = 0
            a = rng.random((1, 4, 4)).astype(np.float32)
            b = rng.random((1, 4, 4)).astype(np.float32)
            layer = len(model.layers)
            joint = bilrp(model, a, b, layer, rules, grid=4)
            sim = joint.similarity
            if abs(sim) < 1e-3:
                continue
            assert abs(joint.total() - sim) / abs(sim) <= 1e-3
            jba = bilrp(model, b, a, layer, rules, grid=4)
            np.testing.assert_array_equal(joint.matrix, jba.matrix.T)
            done += 1

        # elementwise factorization oracle on a <=16-unit embedding
        layers = [LayerSpec("flatten"), LayerSpec("dense", units=16)]
        model = build_model(layers, (1, 4, 4), seed=5)
        model.params["layer1.bias"].data[:] = 0
        w = model.params["layer1.weight"].data.astype(np.float64)
        a = rng.random((1, 4, 4)).astype(np.float32)
        b = rng.random((1, 4, 4)).astype(np.float32)
        joint = bilrp(model, a, b, 2, LRPRuleConfig.uniform("epsilon", epsilon=0.0), grid=4)
        af, bf = a.reshape(-1).astype(np.float64), b.reshape(-1).astype(np.float64)
        expect = np.zeros((16, 16))
        for m in range(16):
            ra = af * w[m]  # seed z_m, epsilon 0: relevance = x_i w_mi z_m / z_m
            rb = bf * w[m]
            expect += np.outer(ra, rb)
        np.testing.assert_allclose(joint.matrix, expect, atol=1e-4)
        _report(3, f"{done} random 2-layer embeddings: sum rule rel<=1e-3, transpose "
                   "symmetry exact; 16-unit factorization oracle elementwise <=1e-4")


class TestCriterion4ScoreOracle:
    def test_100_random_configurations(self, rng):
        done = 0
        while done < 100:
            c = int(rng.integers(1, 4))
            h = int(rng.integers(3, 8))
            w = int(rng.integers(3, 8))
            rel = rng.normal(scale=2.0, size=(c, h, w)).astype(np.float32)
            obj = (rng.random((h, w)) < 0.75).astype(np.uint8)
            lesion = ((rng.random((h, w)) < 0.35) & obj.astype(bool)).astype(np.uint8)
            if not lesion.any():
                continue
            variant = ("unnormalized", "area_normalized")[done % 2]
            got = lesion_relevance_score(rel, lesion, obj, variant)
            want = oracle_score(rel, lesion, obj, variant)
            assert got == pytest.approx(want, abs=1e-6)
            done += 1

        # boundary cases, exact
        rel = np.zeros((1, 4, 4), dtype=np.float32)
        rel[0, 1, 1] = 3.0
        obj = np.ones((4, 4), dtype=np.uint8)
        lesion = np.zeros((4, 4), dtype=np.uint8)
        lesion[1, 1] = 1
        assert lesion_relevance_score(rel, lesion, obj) == 1.0
        outside = np.zeros((1, 4, 4), dtype=np.float32)
        outside[0, 0, 0] = 3.0
        obj2 = np.zeros((4, 4), dtype=np.uint8)
        obj2[2:, 2:] = 1
        lesion2 = np.zeros((4, 4), dtype=np.uint8)
        lesion2[3, 3] = 1
        assert lesion_relevance_score(outside, lesion2, obj2, floor=1e-3) == 1e-3
        _report(4, "100 random relevance/mask configurations within 1e-6 of the "
                   "direct-summation oracle; boundary cases exact")


class TestCriterion5KnnExactness:
    def test_200_queries_both_metrics(self, rng):
        n, dim = 500, 12
        vectors = rng.normal(size=(n, dim)).astype(np.float32)
        # duplicate some rows to force distance ties
        vectors[50] = vectors[10]
        vectors[51] = vectors[10]
        ids = rng.permutation(n).astype(np.uint32)
        labels = (rng.random(n) < 0.5).astype(np.uint8)
        checked = 0
        for metric in ("euclidean", "cosine"):
            index = AtlasIndex(0, vectors, ids, labels, metric)
            for _ in range(100):
                q = rng.normal(size=dim).astype(np.float32)
                k = int(rng.integers(1, 20))
                got = query_knn_vector(index, q, k)
                want = brute_force_knn(index, q, k)
                assert got == want
                checked += 1
        _report(5, f"{checked} queries against a {n}-vector atlas match the "
                   "exhaustive oracle exactly (ids and distances, both metrics)")


@pytest.mark.slow
class TestCriterion6TrendReproduction:
    def test_experiment1_trend(self, default_task, tmp_path):
        train_set, val_set = default_task
        # the runner as it ships: its documented defaults plus the seed
        cfg = dict(DEFAULTS["experiment1"], seed=EXP_SEED)
        started = time.time()
        rows = run_experiment1(train_set, val_set, cfg, str(tmp_path))
        elapsed = time.time() - started
        by_name = {r[0]: r for r in rows}
        _, acc_o, _, s0_o, s1_o = by_name["Original"]
        _, acc_1, _, s0_1, s1_1 = by_name["Penalization 1"]
        assert s0_1 >= s0_o + 0.05, f"class-0 score {s0_1:.3f} vs original {s0_o:.3f}"
        assert s1_1 >= s1_o + 0.05, f"class-1 score {s1_1:.3f} vs original {s1_o:.3f}"
        scores = [
            (by_name[f"Penalization {p}"][3], by_name[f"Penalization {p}"][4])
            for p in (1, 2, 3)
        ]
        for i in (0, 1):
            assert scores[1][i] >= scores[0][i] - 0.03, f"p=2 dropped class {i}"
            assert scores[2][i] >= scores[1][i] - 0.03, f"p=3 dropped class {i}"
        assert acc_1 >= acc_o - 0.05
        assert elapsed <= 1200, f"experiment 1 took {elapsed:.0f}s"
        _report(6, "guided scores exceed original by >=0.05 on both classes "
                   f"(orig {s0_o:.2f}/{s1_o:.2f}, pen1 {s0_1:.2f}/{s1_1:.2f}), "
                   f"non-decreasing in p, accuracy {acc_o:.2f}->{acc_1:.2f}, "
                   f"runtime {elapsed:.0f}s <= 1200s")


@pytest.mark.slow
class TestCriterion7EarlyAdvantage:
    def test_guided_run_leads_early(self):
        # default task parameters at reduced sample count and horizon to
        # keep the three-seed comparison inside a test budget
        final_conv, final_guided, early_conv, early_guided = [], [], [], []
        for seed in (1, 2, 3):
            train_set = generate(GeneratorConfig(samples_per_class=150, seed=40 + seed))
            val_set = generate(
                GeneratorConfig(samples_per_class=40, seed=40 + seed), id_offset=1_000_000
            )
            cfg = dict(DEFAULTS["experiment2"], seed=seed, iterations=8)
            conventional, guided = run_experiment2(train_set, val_set, cfg)
            mask = lambda r: 0.5 * (r.score_class0 + r.score_class1)
            early_conv.append(np.mean([mask(r) for r in conventional[:5]]))
            early_guided.append(np.mean([mask(r) for r in guided[:5]]))
            final_conv.append(conventional[-1].accuracy)
            final_guided.append(guided[-1].accuracy)
        assert np.mean(early_guided) > np.mean(early_conv), (
            f"guided early mask score {np.mean(early_guided):.3f} "
            f"<= conventional {np.mean(early_conv):.3f}"
        )
        # the guided loss may cost at most the accuracy criterion 6 allows it
        assert np.mean(final_guided) >= np.mean(final_conv) - 0.05, (
            f"guided final accuracy {np.mean(final_guided):.3f} {final_guided} is more "
            f"than 0.05 below conventional {np.mean(final_conv):.3f} {final_conv}"
        )
        _report(7, f"3 seeds: early mask score {np.mean(early_guided):.3f} vs "
                   f"{np.mean(early_conv):.3f}; final accuracy guided "
                   f"{np.mean(final_guided):.3f} vs conventional {np.mean(final_conv):.3f} "
                   f"(allowance 0.05)")


class TestCriterion8ReductionIdentity:
    def test_three_epoch_bitwise_trajectory(self):
        train_set = generate(GeneratorConfig(height=32, width=32, samples_per_class=8, seed=33))
        val_set = generate(
            GeneratorConfig(height=32, width=32, samples_per_class=4, seed=33), id_offset=900
        )
        layers = [
            LayerSpec("conv", channels=6, kernel=3, stride=1, padding=1),
            LayerSpec("relu"),
            LayerSpec("maxpool", window=2, stride=2),
            LayerSpec("dropout", rate=0.25),
            LayerSpec("flatten"),
            LayerSpec("dense", units=2),
        ]
        m_orig = build_model(layers, (3, 32, 32), seed=17)
        m_pen = build_model(layers, (3, 32, 32), seed=17)
        tc = dict(epochs=3, batch_size=8, learning_rate=1e-3, seed=5)
        train(m_orig, train_set, val_set, LossConfig(mode="original"), TrainConfig(**tc))
        train(
            m_pen, train_set, val_set,
            LossConfig(mode="penalization", power=2.0, constant_score=1.0),
            TrainConfig(**tc),
        )
        for name in m_orig.param_names():
            np.testing.assert_array_equal(
                m_orig.params[name].data, m_pen.params[name].data,
                err_msg=f"trajectory diverged at {name}",
            )
        _report(8, "3-epoch parameter trajectory bit-identical between original mode "
                   "and penalization with the score held at 1")


class TestCriterion9RoundTrips:
    def test_all_formats_and_exit_codes(self, tmp_path, rng):
        # weights
        model, _ = random_conv_net(rng)
        w1, w2 = tmp_path / "a.rgtw", tmp_path / "b.rgtw"
        save_weights(model, w1)
        save_weights(load_weights(w1, template=model), w2)
        assert w1.read_bytes() == w2.read_bytes()

        # dataset
        samples = generate(GeneratorConfig(height=32, width=32, samples_per_class=3, seed=2))
        d1, d2 = tmp_path / "a.rgtd", tmp_path / "b.rgtd"
        save_dataset(samples, d1)
        save_dataset(load_dataset(d1), d2)
        assert d1.read_bytes() == d2.read_bytes()

        # atlas index
        index = AtlasIndex(
            2,
            rng.normal(size=(5, 7)).astype(np.float32),
            np.arange(5, dtype=np.uint32),
            np.zeros(5, dtype=np.uint8),
            "cosine",
        )
        a1, a2 = tmp_path / "a.rgta", tmp_path / "b.rgta"
        save_index(index, a1)
        save_index(load_index(a1), a2)
        assert a1.read_bytes() == a2.read_bytes()

        # corrupted headers must exit with code 2 through the CLI
        bad = tmp_path / "bad.rgtd"
        blob = bytearray(d1.read_bytes())
        blob[:4] = b"EVIL"
        bad.write_bytes(bytes(blob))
        code = cli_main(
            ["train", "--data", str(bad), "--out", str(tmp_path / "out"), "--seed", "1"]
        )
        assert code == 2
        bad_w = tmp_path / "bad.rgtw"
        blob = bytearray(w1.read_bytes())
        blob[:4] = b"EVIL"
        bad_w.write_bytes(bytes(blob))
        code = cli_main(
            ["evaluate", "--weights", str(bad_w), "--data", str(d1), "--out", str(tmp_path / "o2")]
        )
        assert code == 2
        _report(9, "weight/dataset/atlas files round-trip byte-identically; corrupted "
                   "headers exit with code 2")
