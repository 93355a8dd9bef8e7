"""The benchmark's own test: each workload end to end at a tiny size, and
each output check shown to reject a wrong output.

Run from the root of the repository: ``python3 -m pytest perfbench``.
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402  (fixes the BLAS thread count before numpy does work)
import checks  # noqa: E402
import refnet  # noqa: E402
import tracing  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as _f:
    SPEC = json.load(_f)


def bench_command(cwd, *args):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_reports_every_metric(workload, trace):
    proc = bench_command(run.ROOT, "--workload", workload, "--seed", "3", "--seconds", "0",
                         "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stderr
    assert result["failed"] == 0 and result["attempted"] > 0
    group = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in group}
    values = {k: v["value"] for k, v in result["metrics"].items()}
    if trace:
        assert (values["lrp.relevance_graph.calls"] == 0) == (workload == "plain")
        assert values["engine.backward.nodes"] > 0 and values["bilrp.bilrp.ms"] > 0
        assert values["trace.missing_functions"] == 0
    else:
        assert all(v > 0 for v in values.values())


def test_benchmark_json_matches_the_metric_tables():
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == \
        [row[:3] for row in run.PER_LAYER]


def _traced_attribute(key):
    mod_name, qual = key.split(".", 1)
    owner = sys.modules[f"relguide.{mod_name}"]
    for part in qual.split("."):
        owner = getattr(owner, part)
    return owner


def test_every_traced_function_is_wrapped():
    sys.path.insert(0, run.SRC)
    import relguide.cli  # noqa: F401

    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
        assert {row[3] for row in tracing.PER_LAYER} == set(tracer.stats)
        for t in tracing.TRACED:
            assert hasattr(_traced_attribute(t.key), "__wrapped__"), t.key
    finally:
        tracer.uninstall()
    assert not any(hasattr(_traced_attribute(t.key), "__wrapped__") for t in tracing.TRACED)


def test_missing_traced_function_is_reported(monkeypatch, capsys):
    sys.path.insert(0, run.SRC)
    import relguide.cli  # noqa: F401

    monkeypatch.setattr(tracing, "TRACED", (tracing.Traced("data.no_such_function"),))
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.missing == ["data.no_such_function"]
    assert "data.no_such_function not found" in capsys.readouterr().err


def test_figures_come_from_the_fastest_call(tmp_path):
    sys.path.insert(0, run.SRC)
    sizes = run.SIZES["tiny"]
    bench = run.Bench("plain", 1, sizes, str(tmp_path))
    bench.times = {"train": [0.3, 0.1, 0.2], "evaluate": [0.5, 0.4], "explain": [0.02, 0.01], "retrieve": []}
    figures = bench._fastest()
    assert figures["train_samples_per_s"] == pytest.approx(sizes.epochs * 2 * sizes.train_per_class / 0.1)
    assert figures["evaluate_samples_per_s"] == pytest.approx(2 * sizes.val_per_class / 0.4)
    assert figures["explain_ms"] == pytest.approx(10.0)
    assert figures["retrieve_s"] is None  # no call succeeded


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench_command(str(tmp_path), "--workload", "plain", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""


# ---------------------------------------------------------------------------
# the checks reject wrong outputs
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def guided_round(tmp_path_factory):
    sys.path.insert(0, run.SRC)
    bench = run.Bench("guided", 5, run.SIZES["tiny"], str(tmp_path_factory.mktemp("bench")))
    bench.prepare()
    rounds = [bench.round(0), bench.round(1)]
    bench.finish(rounds)
    assert bench.failed == 0
    assert bench.check(rounds) == []
    return bench, rounds[0]


def _copy(src, dst):
    shutil.copytree(src, dst)
    return str(dst)


def _edit_json(path, edit):
    with open(path) as f:
        payload = json.load(f)
    edit(payload)
    with open(path, "w") as f:
        json.dump(payload, f)


def _params(out):
    return refnet.as_float64(refnet.read_weights(os.path.join(out["dir"], "train", "weights.rgtw")))


def test_wrong_neighbour_order_rejected(guided_round, tmp_path):
    bench, out = guided_round
    atlas = refnet.read_dataset(bench.dataset("full/train"))
    params = _params(out)
    emb = checks.atlas_embeddings(params, atlas, bench.sizes.layer)
    wrong = _copy(os.path.join(out["dir"], "retrieve"), tmp_path / "retrieve")

    def swap(payload):
        nb = payload["neighbors"]
        nb[0], nb[1] = nb[1], nb[0]

    _edit_json(os.path.join(wrong, "neighbors.json"), swap)
    args = (params, atlas, emb, out["query_id"], bench.sizes.k, bench.sizes.layer)
    assert checks.check_retrieve(os.path.join(out["dir"], "retrieve"), *args) == []
    assert checks.check_retrieve(wrong, *args)


def test_perturbed_score_rejected(guided_round, tmp_path):
    bench, out = guided_round
    val = refnet.read_dataset(bench.dataset("full/val"))
    params = _params(out)
    name, sid = out["explains"][0]
    explain = _copy(os.path.join(out["dir"], name), tmp_path / "explain")
    _edit_json(os.path.join(explain, "explain.json"), lambda p: p.update(score_true=p["score_true"] + 0.01))
    assert checks.check_explain(explain, params, val, sid)
    evaluate = _copy(os.path.join(out["dir"], "evaluate"), tmp_path / "evaluate")
    _edit_json(os.path.join(evaluate, "evaluation.json"),
               lambda p: p.update(score_class1=p["score_class1"] + 0.01))
    assert checks.check_evaluate([evaluate], params, val)


def test_map_off_the_reference_rejected(guided_round, tmp_path):
    """A map twice the right one keeps its own score and PGM (both are
    scale-free), so only the comparison with the reference map rejects it."""
    bench, out = guided_round
    val = refnet.read_dataset(bench.dataset("full/val"))
    params = _params(out)
    name, sid = out["explains"][0]
    explain = _copy(os.path.join(out["dir"], name), tmp_path / "explain")
    assert checks.check_explain(explain, params, val, sid) == []
    with open(os.path.join(explain, "explain.json")) as f:
        got = json.load(f)
    for tag, target in (("pred", got["predicted_label"]), ("true", got["true_label"])):
        csv = os.path.join(explain, f"heatmap_{tag}_class{target}.csv")
        np.savetxt(csv, 2 * np.loadtxt(csv, delimiter=",", ndmin=2), delimiter=",", fmt="%.9g")
    errors = checks.check_explain(explain, params, val, sid)
    assert errors and all("off the reference map" in e for e in errors), errors


@pytest.mark.parametrize("decision", ["dense", "pool"])
def test_unresolved_decisions_are_fitted(guided_round, decision):
    """A map that takes a near-zero hidden unit's ratio or a near-tied
    max-pool route the other way, as float32 may, passes the reference
    comparison; the same map doubled does not."""
    bench, out = guided_round
    params = _params(out)
    val = refnet.read_dataset(bench.dataset("full/val"))
    acts, pool_idx = refnet.forward(params, val.images[:1])
    target = int(acts[-1][0].argmax())
    prog_pools = {k: v.copy() for k, v in pool_idx.items()}
    if decision == "dense":
        # the hidden unit with the largest weight to the target, at z = 0 in
        # the reference and at a ratio of 3/4 in the program
        dense = checks.HIDDEN_DENSE
        j = int(np.abs(params[f"layer{dense + 2}.weight"][target]).argmax())
        eps = refnet.EPS_SCALE * np.abs(acts[dense + 1]).mean()
        acts[dense + 1][0, j] = acts[dense + 2][0, j] = 0.0
        prog_acts = [a.copy() for a in acts]
        prog_acts[dense + 1][0, j] = prog_acts[dense + 2][0, j] = 3 * eps
    else:
        # the first window of the last pool with a positive maximum, given a
        # tied runner-up that the program routes to
        pool = len(refnet.LAYERS) - 1 - refnet.LAYERS[::-1].index("pool")
        win = tuple(np.argwhere(acts[pool + 1][0] > 0)[0])
        ch, y, x = win
        other = (pool_idx[pool][0][win] + 1) % 4
        acts[pool][0, ch, 2 * y + other // 2, 2 * x + other % 2] = acts[pool + 1][0][win]
        prog_acts = acts
        prog_pools[pool][0][win] = other
    rel = refnet.input_relevance(params, prog_acts, prog_pools, [target]).sum(axis=1)[0]
    ref = refnet.input_relevance(params, acts, pool_idx, [target]).sum(axis=1)[0]
    assert np.abs(rel - ref).sum() > 10 * checks.RELEVANCE_RTOL * np.abs(ref).sum()
    off, mass = checks.relevance_off_reference(rel, params, acts, pool_idx, target)
    assert off <= checks.RELEVANCE_RTOL * mass
    off, mass = checks.relevance_off_reference(2 * rel, params, acts, pool_idx, target)
    assert off > checks.RELEVANCE_RTOL * mass


def test_non_conserving_relevance_rejected(guided_round, tmp_path):
    bench, out = guided_round
    val = refnet.read_dataset(bench.dataset("full/val"))
    bias_free = refnet.as_float64(refnet.read_weights(bench.path("checks", "bias_free.rgtw")))
    sid = out["explains"][0][1]
    explain = _copy(bench.path("checks", "explain_bias_free"), tmp_path / "explain")
    assert checks.check_conservation(explain, bias_free, val, sid) == []
    with open(os.path.join(explain, "explain.json")) as f:
        true_label = json.load(f)["true_label"]
    csv = os.path.join(explain, f"heatmap_true_class{true_label}.csv")
    rel = np.loadtxt(csv, delimiter=",", ndmin=2)
    rel[rel.shape[0] // 2, rel.shape[1] // 2] += 0.01 * np.abs(rel).sum()
    np.savetxt(csv, rel, delimiter=",", fmt="%.9g")
    assert checks.check_conservation(explain, bias_free, val, sid)


def test_wrong_gradient_and_unequal_weights_rejected(guided_round, tmp_path):
    bench, out = guided_round
    before = refnet.read_weights(bench.path("checks", "grad_init", "weights.rgtw"))
    after = refnet.read_weights(bench.path("checks", "grad_step", "weights.rgtw"))
    grads = checks.adam_first_step_gradient(before, after, run.GRAD_LR, run.GRAD_EPS)
    train = refnet.read_dataset(bench.dataset("small/train"))
    i = bench.grad_row
    sample = (train.images[i].astype(np.float64), train.lesion_masks[i], train.object_masks[i],
              int(train.labels[i]))
    wl = run.WORKLOADS["guided"]

    def check(g):
        return checks.check_gradient(g, refnet.as_float64(before), sample, wl["power"], wl["score_floor"],
                                     np.random.default_rng(0))

    assert check(grads) == []
    assert check({k: -v for k, v in grads.items()})
    trained = os.path.join(out["dir"], "train")
    other = _copy(trained, tmp_path / "train")
    weights = refnet.read_weights(os.path.join(other, "weights.rgtw"))
    weights["layer17.bias"][0] += 1e-3
    refnet.write_weights(weights, os.path.join(other, "weights.rgtw"))
    assert checks.check_training([trained, other], bench.sizes.epochs)
