"""Command-line surface: artifacts, manifests, exit codes, and the
recomputation contracts between printed values and written files."""

import inspect
import json
import math
import os
import re
import struct
from pathlib import Path

import numpy as np
import pytest

from relguide import cli
from relguide.atlas import AtlasIndex, load_index, save_index
from relguide.cli import DEFAULTS, build_parser, main, resolve_config
from relguide.data import GeneratorConfig, LabeledSample, generate, load_dataset, save_dataset
from relguide.lrp import LRPRuleConfig, input_relevance, read_heatmap_csv, render_heatmap
from relguide.errors import ConfigError, FormatError, UsageError
from relguide.network import (
    build_model,
    default_layers,
    forward_with_trace,
    load_weights,
    read_weight_tensors,
    save_weights,
)
from relguide.bilrp import similarity
from relguide.training import (
    LossConfig,
    TrainConfig,
    evaluate,
    lesion_relevance_score,
    read_metrics_csv,
)


def run_cli(*argv):
    return main(list(argv))


def write_config(tmp_path, name="cfg.json", **kw):
    path = tmp_path / name
    path.write_text(json.dumps(kw))
    return str(path)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One generated dataset and one short penalization training run,
    shared by the read-only CLI tests."""
    root = tmp_path_factory.mktemp("cliws")
    data_dir = root / "data"
    cfg = root / "gen.json"
    cfg.write_text(json.dumps({
        "seed": 5, "samples_per_class": 8, "val_per_class": 4,
        "height": 32, "width": 32,
    }))
    assert run_cli("generate", "--config", str(cfg), "--out", str(data_dir)) == 0
    run_dir = root / "run"
    tcfg = root / "train.json"
    tcfg.write_text(json.dumps({
        "seed": 3, "epochs": 2, "batch_size": 8,
        "conv_channels": [4, 4], "dense_units": 8,
    }))
    code = run_cli(
        "train", "--data", str(data_dir / "train.rgtd"), "--val", str(data_dir / "val.rgtd"),
        "--out", str(run_dir), "--config", str(tcfg), "--loss", "penalization", "--power", "1",
    )
    assert code == 0
    return root


class TestGenerate:
    def test_writes_loadable_files_and_manifest(self, workspace):
        train = load_dataset(workspace / "data" / "train.rgtd")
        val = load_dataset(workspace / "data" / "val.rgtd")
        assert len(train) == 16 and len(val) == 8
        manifest = json.loads((workspace / "data" / "manifest.json").read_text())
        assert manifest["command"] == "generate"
        assert manifest["seed"] == 5
        assert sorted(manifest["artifacts"]) == ["train.rgtd", "val.rgtd"]

    def test_same_seed_identical_files(self, tmp_path):
        cfg = write_config(tmp_path, seed=9, samples_per_class=3, val_per_class=2)
        assert run_cli("generate", "--config", cfg, "--out", str(tmp_path / "a")) == 0
        assert run_cli("generate", "--config", cfg, "--out", str(tmp_path / "b")) == 0
        a = (tmp_path / "a" / "train.rgtd").read_bytes()
        b = (tmp_path / "b" / "train.rgtd").read_bytes()
        assert a == b

    def test_missing_seed_is_usage_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, samples_per_class=3, val_per_class=2)
        assert run_cli("generate", "--config", cfg, "--out", str(tmp_path / "x")) == 1
        assert "seed" in capsys.readouterr().err

    def test_unknown_config_key_listed(self, tmp_path, capsys):
        cfg = write_config(tmp_path, seed=1, bogus_key=3, other_bad=1)
        assert run_cli("generate", "--config", cfg, "--out", str(tmp_path / "x")) == 1
        err = capsys.readouterr().err
        assert "bogus_key" in err and "other_bad" in err

    def test_manifest_replay_reproduces_bytes(self, workspace, tmp_path):
        manifest = workspace / "data" / "manifest.json"
        out = tmp_path / "replay"
        assert run_cli("generate", "--config", str(manifest), "--out", str(out)) == 0
        assert (out / "train.rgtd").read_bytes() == (workspace / "data" / "train.rgtd").read_bytes()
        assert (out / "val.rgtd").read_bytes() == (workspace / "data" / "val.rgtd").read_bytes()


class TestTrain:
    def test_artifacts_and_metrics_columns(self, workspace):
        run_dir = workspace / "run"
        assert (run_dir / "weights.rgtw").exists()
        records = read_metrics_csv(run_dir / "metrics.csv")
        assert len(records) == 2
        for r in records:
            assert 0.0 <= r.accuracy <= 1.0
            assert 0.0 <= r.f1_weighted <= 1.0
            assert 0.0 < r.score_class0 <= 1.0
            assert 0.0 < r.score_class1 <= 1.0
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["config"]["loss"] == "penalization"
        assert manifest["config"]["power"] == 1.0

    def test_original_mode_scores_still_measured(self, workspace, tmp_path):
        out = tmp_path / "orig"
        code = run_cli(
            "train", "--data", str(workspace / "data" / "train.rgtd"),
            "--out", str(out), "--seed", "2",
            "--config", write_config(tmp_path, epochs=1, batch_size=8,
                                     conv_channels=[4, 4], dense_units=8),
        )
        assert code == 0
        records = read_metrics_csv(out / "metrics.csv")
        assert records[0].score_class0 > 0.0
        assert records[0].score_class1 > 0.0

    @pytest.mark.parametrize("threads", [1, 2])
    def test_manifest_with_retired_threads_key_replays(self, workspace, tmp_path, threads):
        # manifests written before the training thread pool was removed
        # record a "threads" key; it is dropped, and the run reproduces
        manifest = json.loads((workspace / "run" / "manifest.json").read_text())
        assert "threads" not in manifest["config"]
        manifest["config"]["threads"] = threads
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest))
        out = tmp_path / "replay"
        code = run_cli(
            "train", "--data", str(workspace / "data" / "train.rgtd"),
            "--val", str(workspace / "data" / "val.rgtd"),
            "--out", str(out), "--config", str(path),
        )
        assert code == 0
        assert (out / "weights.rgtw").read_bytes() == (workspace / "run" / "weights.rgtw").read_bytes()

    def test_manifest_with_removed_detach_score_key(self, workspace, tmp_path, capsys):
        # manifests written while the option existed record it as false, and
        # replay; a run with it on can no longer be reproduced, and is refused
        manifest = json.loads((workspace / "run" / "manifest.json").read_text())
        assert "detach_score" not in manifest["config"]
        data = workspace / "data"
        for value, code in ((False, 0), (True, 1)):
            manifest["config"]["detach_score"] = value
            path = tmp_path / f"manifest_{value}.json"
            path.write_text(json.dumps(manifest))
            assert run_cli("train", "--data", str(data / "train.rgtd"), "--val",
                           str(data / "val.rgtd"), "--out", str(tmp_path / str(value)),
                           "--config", str(path)) == code
        for name in ("weights.rgtw", "metrics.csv"):
            assert (tmp_path / "False" / name).read_bytes() == (workspace / "run" / name).read_bytes()
        assert not (tmp_path / "True").exists()
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "detach_score" in err

    def test_zero_epochs_rejected(self, workspace, tmp_path, capsys):
        code = run_cli(
            "train", "--data", str(workspace / "data" / "train.rgtd"),
            "--out", str(tmp_path / "z"), "--seed", "1",
            "--config", write_config(tmp_path, epochs=0),
        )
        assert code == 1

    def test_missing_dataset_is_data_error(self, tmp_path):
        code = run_cli(
            "train", "--data", str(tmp_path / "nope.rgtd"),
            "--out", str(tmp_path / "o"), "--seed", "1",
        )
        assert code == 2

    def test_corrupt_dataset_is_data_error(self, workspace, tmp_path):
        bad = tmp_path / "bad.rgtd"
        blob = bytearray((workspace / "data" / "train.rgtd").read_bytes())
        blob[:4] = b"EVIL"
        bad.write_bytes(bytes(blob))
        code = run_cli("train", "--data", str(bad), "--out", str(tmp_path / "o"), "--seed", "1")
        assert code == 2


class TestEvaluate:
    def test_matches_library_call(self, workspace, tmp_path):
        out = tmp_path / "ev"
        code = run_cli(
            "evaluate", "--weights", str(workspace / "run" / "weights.rgtw"),
            "--data", str(workspace / "data" / "val.rgtd"), "--out", str(out),
        )
        assert code == 0
        got = json.loads((out / "evaluation.json").read_text())
        model = load_weights(workspace / "run" / "weights.rgtw")
        val = load_dataset(workspace / "data" / "val.rgtd")
        acc, f1w, s0, s1 = evaluate(model, val)
        assert got["accuracy"] == pytest.approx(acc)
        assert got["f1_weighted"] == pytest.approx(f1w)
        assert got["score_class0"] == pytest.approx(s0)
        assert got["score_class1"] == pytest.approx(s1)


class TestExplain:
    def test_outputs_and_score_recomputation(self, workspace, tmp_path):
        val = load_dataset(workspace / "data" / "val.rgtd")
        sample = val[0]
        out = tmp_path / "ex"
        code = run_cli(
            "explain", "--weights", str(workspace / "run" / "weights.rgtw"),
            "--data", str(workspace / "data" / "val.rgtd"),
            "--sample-id", str(sample.sample_id), "--out", str(out),
        )
        assert code == 0
        summary = json.loads((out / "explain.json").read_text())
        pgms = sorted(p.name for p in out.glob("*.pgm"))
        assert len(pgms) == 2
        assert any("pred" in p for p in pgms) and any("true" in p for p in pgms)
        # printed/recorded score must equal a recomputation from the CSV
        true_csv = next(out.glob("heatmap_true_*.csv"))
        rel2d = read_heatmap_csv(true_csv)
        recomputed = lesion_relevance_score(rel2d, sample.lesion_mask, sample.object_mask)
        assert summary["score_true"] == pytest.approx(recomputed, abs=1e-6)

    def test_correct_prediction_gives_identical_heatmaps(self, workspace, tmp_path):
        model = load_weights(workspace / "run" / "weights.rgtw")
        val = load_dataset(workspace / "data" / "val.rgtd")
        matching = next(
            s for s in val if int(np.argmax(forward_with_trace(model, s.image)[0].data)) == s.label
        )
        out = tmp_path / "ex2"
        code = run_cli(
            "explain", "--weights", str(workspace / "run" / "weights.rgtw"),
            "--data", str(workspace / "data" / "val.rgtd"),
            "--sample-id", str(matching.sample_id), "--out", str(out),
        )
        assert code == 0
        pred_pgm = next(out.glob("heatmap_pred_*.pgm")).read_bytes()
        true_pgm = next(out.glob("heatmap_true_*.pgm")).read_bytes()
        assert pred_pgm == true_pgm

    def test_misprediction_gives_two_distinct_maps(self, workspace, tmp_path):
        model = load_weights(workspace / "run" / "weights.rgtw")
        sample = load_dataset(workspace / "data" / "val.rgtd")[0]
        if int(np.argmax(forward_with_trace(model, sample.image)[0].data)) == sample.label:
            last = f"layer{len(model.layers) - 1}"  # swapped output rows flip the prediction
            for name in (f"{last}.weight", f"{last}.bias"):
                model.params[name].data = model.params[name].data[::-1].copy()
        weights = tmp_path / "w.rgtw"
        save_weights(model, weights)
        out = tmp_path / "ex"
        code = run_cli("explain", "--weights", str(weights), "--data",
                       str(workspace / "data" / "val.rgtd"),
                       "--sample-id", str(sample.sample_id), "--out", str(out))
        assert code == 0
        pred, true = 1 - sample.label, sample.label
        _, trace = forward_with_trace(model, sample.image)
        maps = {}
        for tag, target in (("pred", pred), ("true", true)):
            rel = input_relevance(model, trace, target, LRPRuleConfig())
            render_heatmap(rel, tmp_path / f"ref{target}.pgm")
            for ext in ("pgm", "csv"):
                got = (out / f"heatmap_{tag}_class{target}.{ext}").read_bytes()
                assert got == (tmp_path / f"ref{target}.{ext}").read_bytes()
                maps[tag, ext] = got
        assert maps["pred", "csv"] != maps["true", "csv"]
        summary = json.loads((out / "explain.json").read_text())
        assert (summary["predicted_label"], summary["true_label"]) == (pred, true)
        assert summary["score_pred"] != summary["score_true"]

    def test_unknown_sample_id(self, workspace, tmp_path):
        code = run_cli(
            "explain", "--weights", str(workspace / "run" / "weights.rgtw"),
            "--data", str(workspace / "data" / "val.rgtd"),
            "--sample-id", "424242", "--out", str(tmp_path / "x"),
        )
        assert code == 1
        assert not (tmp_path / "x").exists()


class TestRetrieve:
    def test_self_neighbor_credibility_and_similarity(self, workspace, tmp_path):
        out = tmp_path / "ret"
        code = run_cli(
            "retrieve", "--weights", str(workspace / "run" / "weights.rgtw"),
            "--atlas", str(workspace / "data" / "train.rgtd"),
            "--query-id", "3", "--layer", "4", "--k", "3", "--grid", "4",
            "--out", str(out),
        )
        assert code == 0
        payload = json.loads((out / "neighbors.json").read_text())
        assert payload["neighbors"][0]["id"] == 3
        assert payload["neighbors"][0]["distance"] == 0.0
        assert 0.0 <= payload["credibility"] <= 1.0
        assert len(payload["neighbors"]) == 3
        # each joint-relevance JSON must carry a similarity that recomputes
        model = load_weights(workspace / "run" / "weights.rgtw")
        atlas = {s.sample_id: s for s in load_dataset(workspace / "data" / "train.rgtd")}
        for n in payload["neighbors"]:
            joint = json.loads((out / f"bilrp_3_{n['id']}.json").read_text())
            expect = similarity(model, atlas[3].image, atlas[n["id"]].image, 4)
            assert joint["similarity"] == pytest.approx(expect, rel=1e-6)
            assert joint["layer"] == 4

    def test_layer_required(self, workspace, tmp_path):
        code = run_cli(
            "retrieve", "--weights", str(workspace / "run" / "weights.rgtw"),
            "--atlas", str(workspace / "data" / "train.rgtd"),
            "--query-id", "3", "--out", str(tmp_path / "r"),
        )
        assert code == 1
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("layer", ["99", "-1"])
    def test_layer_out_of_range(self, workspace, tmp_path, capsys, layer):
        code = run_cli(
            "retrieve", "--weights", str(workspace / "run" / "weights.rgtw"),
            "--atlas", str(workspace / "data" / "train.rgtd"),
            "--query-id", "3", "--layer", layer, "--out", str(tmp_path / "r"),
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        n_layers = len(load_weights(workspace / "run" / "weights.rgtw").layers)
        assert err.count("\n") == 1 and f"0..{n_layers}" in err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("flag, value", [
        ("--k", "0"), ("--k", "-1"), ("--grid", "0"), ("--grid", "-4"), ("--grid", "3"),
    ])
    def test_range_checked_before_index_build(self, workspace, tmp_path, capsys, monkeypatch,
                                              flag, value):
        def no_index(*args, **kwargs):
            raise AssertionError("index built before the range check")

        monkeypatch.setattr("relguide.cli.build_index", no_index)
        code = run_cli(
            "retrieve", "--weights", str(workspace / "run" / "weights.rgtw"),
            "--atlas", str(workspace / "data" / "train.rgtd"),
            "--query-id", "3", "--layer", "4", flag, value, "--out", str(tmp_path / "r"),
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.count("\n") == 1 and flag in err
        assert not (tmp_path / "r").exists()

    def test_manifest_with_retired_unit_cap_replays(self, workspace, tmp_path):
        # retrieve manifests written while BiLRP capped its units record
        # "unit_cap"; it is dropped, and every unit is explained
        first = tmp_path / "first"
        argv = ["retrieve", "--weights", str(workspace / "run" / "weights.rgtw"),
                "--atlas", str(workspace / "data" / "train.rgtd"), "--query-id", "3"]
        assert run_cli(*argv, "--layer", "4", "--k", "2", "--grid", "4", "--out", str(first)) == 0
        manifest = json.loads((first / "manifest.json").read_text())
        assert "unit_cap" not in manifest["config"]
        manifest["config"]["unit_cap"] = 512
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest))
        replay = tmp_path / "replay"
        assert run_cli(*argv, "--config", str(path), "--out", str(replay)) == 0
        assert (replay / "neighbors.json").read_bytes() == (first / "neighbors.json").read_bytes()
        for n in json.loads((replay / "neighbors.json").read_text())["neighbors"]:
            name = f"bilrp_3_{n['id']}.json"
            joint = json.loads((replay / name).read_text())
            assert joint["coverage"] == 1.0
            assert joint["units_used"] == joint["units_total"]
            assert (replay / name).read_bytes() == (first / name).read_bytes()

    def test_k_beyond_atlas_size(self, workspace, tmp_path):
        code = run_cli(
            "retrieve", "--weights", str(workspace / "run" / "weights.rgtw"),
            "--atlas", str(workspace / "data" / "train.rgtd"),
            "--query-id", "3", "--layer", "4", "--k", "100", "--out", str(tmp_path / "r"),
        )
        assert code == 1


@pytest.fixture(scope="module")
def experiment1_out(workspace, tmp_path_factory):
    """One short experiment-1 run on the shared dataset."""
    root = tmp_path_factory.mktemp("e1")
    code = run_cli(
        "experiment1", "--data", str(workspace / "data" / "train.rgtd"),
        "--val", str(workspace / "data" / "val.rgtd"), "--out", str(root / "out"), "--seed", "3",
        "--config", write_config(root, epochs=1, batch_size=8,
                                 conv_channels=[4, 4], dense_units=8),
    )
    assert code == 0
    return root / "out"


class TestExperiments:
    def test_experiment1_table_shape_and_consistency(self, workspace, experiment1_out):
        out = experiment1_out
        lines = (out / "table.csv").read_text().strip().splitlines()
        assert lines[0] == "loss_function,accuracy,f1_weighted,score_class0,score_class1"
        assert len(lines) == 5
        names = [ln.split(",")[0] for ln in lines[1:]]
        assert names == ["Original", "Penalization 1", "Penalization 2", "Penalization 3"]
        for ln in lines[1:]:
            vals = [float(v) for v in ln.split(",")[1:]]
            assert len(vals) == 4
        # the Original row must equal evaluate() on the saved original model
        model = load_weights(out / "weights_original.rgtw")
        val = load_dataset(workspace / "data" / "val.rgtd")
        acc, f1w, s0, s1 = evaluate(model, val, LRPRuleConfig())
        row0 = [float(v) for v in lines[1].split(",")[1:]]
        assert row0 == pytest.approx([acc, f1w, s0, s1])

    def test_experiment1_rows_are_final_epoch_metrics(self, experiment1_out):
        rows = (experiment1_out / "table.csv").read_text().splitlines()[1:]
        assert len(rows) == len(cli.EXPERIMENT1_ROWS)
        for row in rows:
            name, *values = row.split(",")
            tag = name.lower().replace(" ", "")
            last = (experiment1_out / f"metrics_{tag}.csv").read_text().splitlines()[-1]
            assert values == last.split(",")[2:]  # past epoch and loss

    def test_experiment2_default_20_aligned_rows(self, workspace, tmp_path):
        out = tmp_path / "e2"
        code = run_cli(
            "experiment2", "--data", str(workspace / "data" / "train.rgtd"),
            "--val", str(workspace / "data" / "val.rgtd"), "--out", str(out), "--seed", "3",
            "--config", write_config(
                tmp_path, batch_size=8, conv_channels=[4], dense_units=4,
            ),
        )
        assert code == 0
        for name in ("conventional.csv", "guided.csv"):
            lines = (out / name).read_text().strip().splitlines()
            assert lines[0] == "iteration,accuracy,mask_score,score_class0,score_class1"
            assert len(lines) == 21
            iterations = [int(ln.split(",")[0]) for ln in lines[1:]]
            assert iterations == list(range(1, 21))


README = Path(__file__).resolve().parents[1] / "README.md"


class TestDocumentedDefaults:
    """The defaults README states, which the slow acceptance criteria run
    under; drift fails here in seconds instead of in a full experiment."""

    def test_experiment_runner_defaults(self):
        assert DEFAULTS["experiment1"]["epochs"] == 6
        for command in ("experiment1", "experiment2"):
            assert DEFAULTS[command]["score_floor"] == 0.1, command
            assert DEFAULTS[command]["beta2"] == 0.99, command

    def test_generator_defaults(self):
        for source in (DEFAULTS["generate"], vars(GeneratorConfig())):
            assert source["texture_contrast"] == 0.35
            assert source["noise_sigma"] == 0.05

    def test_defaults_match_the_library(self):
        """Each CLI default equals its library twin, so a command and a
        library call that leave a setting out use the same value."""
        layers = {k: p.default for k, p in inspect.signature(default_layers).parameters.items()}
        loss = {("loss" if k == "mode" else k): v for k, v in vars(LossConfig()).items() if k != "rules"}
        twins = {**vars(TrainConfig()), **loss, **vars(LRPRuleConfig()), **vars(GeneratorConfig()),
                 **layers, "conv_channels": list(layers["conv_channels"])}
        runner_choices = {"epochs", "score_floor", "beta2"}  # pinned above
        pinned = set()
        for command, defaults in DEFAULTS.items():
            for key, value in defaults.items():
                if key in twins and not (key in runner_choices and command.startswith("experiment")):
                    assert value == twins[key], (command, key)
                    pinned.add(key)
            if "rule" in defaults:  # null: the library's default composite
                assert cli.rules_from_config(defaults) == LRPRuleConfig(), command
        # the library settings no command exposes as a key
        assert set(twins) - pinned == {"seed", "dense_rule", "conv_rule", "n_classes"}

    def test_readme_states_these_values(self):
        text = README.read_text()
        assert "`epochs=6` (experiment 1),\n`score_floor=0.1` and `beta2=0.99`" in text
        assert "`texture_contrast` (0.35)" in text
        assert "`noise_sigma` (0.05)" in text

    def test_readme_config_table_matches_defaults(self):
        # every key README's config table lists, with the default it gives
        table = README.read_text().split("### Config keys", 1)[1].split("\n\n")[1]
        keys, given = set(), {}
        for key, note in re.findall(r"`(\w+)` \(([^)]*)\)", table):
            keys.add(key)
            # a bare value, a value with an explanation ("1e-6, scale of ..."),
            # or no default at all ("required")
            for text in (note, note.split(" ")[0].rstrip(",")):
                try:
                    given[key] = json.loads(text)
                    break
                except json.JSONDecodeError:
                    pass
        assert keys == set().union(*DEFAULTS.values()) | {"seed"}
        runner_choices = {"epochs", "score_floor", "beta2"}  # pinned above
        for key, value in given.items():
            for command, defaults in DEFAULTS.items():
                if key in defaults and not (key in runner_choices and command.startswith("experiment")):
                    assert defaults[key] == value, (command, key)

    # the values at and next to each boundary of a range README states,
    # and whether the range holds them
    BOUNDARIES = {
        "in [0, 1)": [(0.0, True), (-5e-324, False), (float(np.nextafter(1.0, 0.0)), True),
                      (1.0, False)],
        "> 0": [(0.0, False), (5e-324, True), (-5e-324, False)],
    }

    def test_readme_config_ranges_hold_at_their_boundaries(self, tmp_path):
        table = README.read_text().split("### Config keys", 1)[1].split("\n\n")[1]
        # a key's range follows its default after "; " and runs to the end of the entry
        stated = dict(re.findall(r"`(\w+)` \([^;()]*; (.*?)\)(?=, `| \|)", table))
        assert stated == {"beta1": "in [0, 1)", "beta2": "in [0, 1)", "adam_eps": "> 0",
                          "score_floor": "> 0, also for evaluate/explain"}
        training = ["train", "experiment1", "experiment2"]
        serving = ", also for evaluate/explain"
        for key, note in stated.items():
            commands = training + (["evaluate", "explain"] if note.endswith(serving) else [])
            for command in commands:
                for value, holds in self.BOUNDARIES[note.removesuffix(serving)]:
                    got = _config_accepted(tmp_path, command, {key: value})
                    assert got == holds, (command, key, value)

    def test_manifest_values_win_over_defaults(self, tmp_path):
        # a manifest records the full resolved config, so one written under
        # other defaults replays with its own values
        recorded = dict(DEFAULTS["experiment2"], seed=4, score_floor=1e-3, beta2=0.999)
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"command": "experiment2", "config": recorded}))
        args = build_parser().parse_args(
            ["experiment2", "--data", "unused.rgtd", "--config", str(manifest)]
        )
        assert resolve_config(args, "experiment2") == recorded


# the arguments each command needs to reach config resolution, which runs
# before any file is read
_REQUIRED_ARGS = {
    "generate": [],
    "train": ["--data", "unused.rgtd"],
    "evaluate": ["--weights", "unused.rgtw", "--data", "unused.rgtd"],
    "retrieve": ["--weights", "unused.rgtw", "--atlas", "unused.rgtd", "--query-id", "0"],
    "experiment2": ["--data", "unused.rgtd"],
    "explain": ["--weights", "unused.rgtw", "--data", "unused.rgtd", "--sample-id", "0"],
    "experiment1": ["--data", "unused.rgtd"],
}


def _config_accepted(tmp_path, command, values) -> bool:
    """Whether `command` takes these config values through the checks it
    makes before it reads a file: the type table, then the settings a
    training command builds from its config."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"seed": 1, **values}))
    args = build_parser().parse_args([command, *_REQUIRED_ARGS[command], "--config", str(path)])
    try:
        cfg = resolve_config(args, command)
        if "beta1" in cfg:
            cli.train_config_from(cfg, epochs=1)
            cli.loss_config_from(cfg, mode="penalization", power=1.0)
    except (UsageError, ConfigError):
        return False
    return True


# every float key of every command, set to NaN and to Infinity
_NON_FINITE = [
    (command, {key: value}, key)
    for command, defaults in DEFAULTS.items()
    for key, default in defaults.items() if isinstance(default, float)
    for value in (math.nan, math.inf, -math.inf)
]


class TestConfigValues:
    @pytest.mark.parametrize("command, config, named", [
        ("train", {"epochs": "x"}, "epochs"),
        ("train", {"epochs": 1.7}, "epochs"),
        ("train", {"epochs": True}, "epochs"),
        ("train", {"augment": "no"}, "augment"),
        ("train", {"learning_rate": "1e-3"}, "learning_rate"),
        ("train", {"loss": 1}, "loss"),
        ("train", {"conv_channels": [16, "32"]}, "conv_channels"),
        ("train", {"conv_channels": 16}, "conv_channels"),
        ("train", {"seed": 1.5}, "seed"),
        ("generate", {"seed": 1, "texture_contrast": True}, "texture_contrast"),
        ("evaluate", {"rule": 3}, "rule"),
        ("retrieve", {"layer": "7"}, "layer"),
        ("experiment2", {"seed": 1, "epochs": 3}, "epochs"),
        ("train", [1, 2], "JSON object"),
        ("train", {"conv_channels": []}, "conv_channels"),
        ("experiment2", {"seed": 1, "conv_channels": [8, 0]}, "conv_channels"),
        # counts are named by the key the user wrote
        ("experiment2", {"iterations": 0}, "iterations"),
        ("generate", {"val_per_class": 0}, "val_per_class"),
        ("train", {"dense_units": 0}, "dense_units"),
        ("train", {"seed": -1}, "seed"),
        ("evaluate", {"alpha": math.nan, "beta": math.nan}, "alpha"),
        ("train", {"power": math.nan, "loss": "penalization"}, "power"),
        ("train", {"learning_rate": 10**400}, "learning_rate"),  # no float holds it
    ] + _NON_FINITE)
    def test_bad_value_is_usage_error(self, tmp_path, capsys, command, config, named):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        code = run_cli(command, *_REQUIRED_ARGS[command], "--config", str(path),
                       "--out", str(tmp_path / "o"))
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and named in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command, argv", [("train", ["--loss", "penalization"]),
                                               ("experiment2", [])])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_power_flag(self, tmp_path, capsys, command, argv, value):
        code = run_cli(command, *_REQUIRED_ARGS[command], *argv, "--power", value,
                       "--out", str(tmp_path / "o"))
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "power" in err
        assert not (tmp_path / "o").exists()

    def test_accepted_values(self, tmp_path):
        # a float key takes an integer, rule takes null, and flags still override
        config = {"seed": 2, "learning_rate": 1, "rule": None, "conv_channels": [4, 4],
                  "augment": False, "loss": "penalization"}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        args = build_parser().parse_args(
            ["train", "--data", "unused.rgtd", "--config", str(path), "--power", "2"]
        )
        assert resolve_config(args, "train") == dict(DEFAULTS["train"], **config, power=2.0)


class TestExitCodes:
    def test_no_command_usage(self):
        assert run_cli() == 1

    def test_threads_flag_removed(self, tmp_path):
        assert run_cli("train", "--data", "unused.rgtd", "--seed", "1", "--threads", "2") == 1

    def test_bad_json_config(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run_cli("generate", "--config", str(bad), "--out", str(tmp_path / "o")) == 1

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as e:
            run_cli("--version")
        assert e.value.code == 0

    def test_parser_built_once(self, monkeypatch):
        built = []

        def counting_build_parser():
            built.append(1)
            return build_parser()

        monkeypatch.setattr(cli, "build_parser", counting_build_parser)
        assert run_cli() == 1
        first = len(built)
        assert run_cli() == 1
        assert len(built) == first <= 1


class TestErrorTable:
    """One bad argument per row, over all seven subcommands: exit 1 for a
    bad flag or value, 2 for a missing or corrupt file, 3 for a file that
    holds a NaN; exactly one stderr line, no traceback, and no --out
    directory left behind."""

    @pytest.fixture(scope="class")
    def paths(self, workspace, tmp_path_factory):
        root = tmp_path_factory.mktemp("table")
        data = workspace / "data"
        (root / "corrupt.rgtd").write_bytes(b"EVIL" + (data / "val.rgtd").read_bytes()[4:])
        (root / "corrupt.rgtw").write_bytes((workspace / "run" / "weights.rgtw").read_bytes()[:-3])
        small = generate(GeneratorConfig(height=16, width=16, samples_per_class=1))
        save_dataset(small, root / "small.rgtd")  # another image size than the workspace's 32x32
        save_dataset([LabeledSample(s.image[:, :8], s.object_mask[:8], s.lesion_mask[:8],
                                    s.label, s.sample_id) for s in small], root / "wide.rgtd")
        # one NaN in a dense weight, and in one pixel of the second sample
        model = load_weights(workspace / "run" / "weights.rgtw")
        dense = next(n for n in model.param_names() if model.params[n].data.ndim == 2)
        model.params[dense].data[0, 0] = np.nan
        save_weights(model, root / "nan.rgtw")
        nan_set = load_dataset(data / "val.rgtd")
        nan_set[1].image[0, 0, 0] = np.nan
        save_dataset(nan_set, root / "nan.rgtd")
        repeated_set = load_dataset(data / "val.rgtd")
        repeated_set[2].sample_id = repeated_set[1].sample_id  # the query's id stays unique
        save_dataset(repeated_set, root / "repeated.rgtd")
        # the second record with label 7, or with one lesion mask byte 2
        blob = (data / "val.rgtd").read_bytes()
        size = (len(blob) - 24) // len(nan_set)  # bytes per record, after the 24-byte header
        for name, offset, value in (("label", 24 + size + 4, 7), ("mask", 24 + 2 * size - 1, 2)):
            (root / f"bad_{name}.rgtd").write_bytes(blob[:offset] + bytes([value]) + blob[offset + 1:])
        # a side that four pooling halvings do not divide
        save_dataset(generate(GeneratorConfig(height=36, width=36, samples_per_class=1)),
                     root / "side36.rgtd")
        (root / "a_directory").mkdir()
        return {"train": data / "train.rgtd", "val": data / "val.rgtd", "small": root / "small.rgtd",
                "weights": workspace / "run" / "weights.rgtw", "missing": root / "missing.rgtd",
                "corrupt": root / "corrupt.rgtd", "corrupt_weights": root / "corrupt.rgtw",
                "wide": root / "wide.rgtd", "nan_weights": root / "nan.rgtw",
                "nan": root / "nan.rgtd", "repeated": root / "repeated.rgtd",
                "bad_label": root / "bad_label.rgtd", "bad_mask": root / "bad_mask.rgtd",
                "side36": root / "side36.rgtd", "dir": root / "a_directory"}

    TRAIN = ["--data", "{train}", "--val", "{val}", "--seed", "1"]
    SERVE = ["--weights", "{weights}", "--data", "{val}"]
    RETRIEVE = ["--weights", "{weights}", "--atlas", "{val}", "--query-id", "1000000", "--layer", "3"]
    ROWS = [  # subcommand, arguments, config file contents (None: no --config), exit code
        ("generate", ["--seed", "1"], {"height": 8}, 1),
        ("generate", [], {"samples_per_class": 2}, 1),  # no seed
        ("generate", ["--seed", "-1"], None, 1),
        ("generate", ["--seed", "1"], {"lesion_area_min": 0.9, "lesion_area_max": 0.99}, 1),
        ("train", TRAIN, {"epochs": 0}, 1),
        ("train", TRAIN, {"conv_channels": [4] * 7}, 1),  # too deep for 32x32
        ("train", TRAIN, {"dense_units": 0}, 1),
        ("train", TRAIN, {"dropout_rate": 1.5}, 1),
        ("train", TRAIN + ["--power", "-1", "--loss", "penalization"], None, 1),
        ("train", ["--data", "{missing}", "--seed", "1"], None, 2),
        ("evaluate", SERVE + ["--rule", "bogus"], None, 1),
        ("evaluate", SERVE, {"alpha": 0.5}, 1),
        ("evaluate", SERVE, {"score_variant": "x"}, 1),
        ("evaluate", ["--weights", "{weights}", "--data", "{corrupt}"], None, 2),
        ("evaluate", ["--weights", "{corrupt_weights}", "--data", "{val}"], None, 2),
        ("explain", SERVE + ["--sample-id", "424242"], None, 1),
        ("explain", SERVE + ["--sample-id", "1000000"], {"score_variant": "x"}, 1),
        ("explain", SERVE + ["--sample-id", "1000000"], {"rule": "x"}, 1),
        ("explain", ["--weights", "{weights}", "--data", "{corrupt}", "--sample-id", "1"], None, 2),
        ("explain", ["--weights", "{missing}", "--data", "{val}", "--sample-id", "1000000"], None, 2),
        ("retrieve", RETRIEVE + ["--k", "0"], None, 1),
        ("retrieve", RETRIEVE + ["--grid", "5"], None, 1),
        ("retrieve", RETRIEVE, {"metric": "x"}, 1),
        ("retrieve", ["--weights", "{corrupt_weights}", "--atlas", "{val}", "--query-id",
                      "1000000", "--layer", "3"], None, 2),
        ("experiment1", TRAIN, {"epochs": 0}, 1),
        ("experiment1", TRAIN, {"dropout_rate": -0.5}, 1),
        ("experiment1", ["--data", "{corrupt}", "--seed", "1"], None, 2),
        ("experiment2", TRAIN, {"iterations": 0}, 1),
        ("experiment2", TRAIN, {"dense_units": -1}, 1),
        ("experiment2", TRAIN + ["--power", "-2"], None, 1),
        ("experiment2", ["--data", "{train}", "--val", "{missing}", "--seed", "1"], None, 2),
        ("train", TRAIN, {"beta1": 2.0}, 1),
        ("train", TRAIN, {"beta2": 1.0}, 1),
        ("train", TRAIN, {"beta1": -0.1}, 1),
        ("train", TRAIN, {"adam_eps": 0.0}, 1),
        ("evaluate", SERVE, {"score_floor": -1.0}, 1),
        ("explain", SERVE + ["--sample-id", "1000000"], {"score_floor": 0.0}, 1),
        ("experiment1", TRAIN, {"beta2": 1.5}, 1),
        ("experiment2", TRAIN, {"adam_eps": -1e-8}, 1),
        # data of another image size than the weights, or than --data
        ("evaluate", ["--weights", "{weights}", "--data", "{small}"], None, 2),
        ("explain", ["--weights", "{weights}", "--data", "{small}", "--sample-id", "0"], None, 2),
        ("retrieve", ["--weights", "{weights}", "--atlas", "{small}", "--query-id", "0",
                      "--layer", "3"], None, 2),
        ("train", ["--data", "{train}", "--val", "{small}", "--seed", "1"], None, 2),
        ("experiment1", ["--data", "{train}", "--val", "{small}", "--seed", "1"], None, 2),
        ("experiment2", ["--data", "{train}", "--val", "{small}", "--seed", "1"], None, 2),
        # images that are not square: 32x48 is refused by generate, an 8x16 --data by training
        ("generate", ["--seed", "1"], {"height": 32, "width": 48}, 1),
        ("train", ["--data", "{wide}", "--seed", "1"], None, 2),
        ("train", ["--data", "{wide}", "--seed", "1"], {"augment": False}, 2),
        ("experiment1", ["--data", "{wide}", "--seed", "1"], None, 2),
        ("experiment2", ["--data", "{wide}", "--seed", "1"], None, 2),
        # a weight or an image that is NaN: exit 3 naming it, before any pass runs
        ("evaluate", ["--weights", "{nan_weights}", "--data", "{val}"], None, 3),
        ("explain", ["--weights", "{nan_weights}", "--data", "{val}", "--sample-id", "1000000"],
         None, 3),
        ("retrieve", ["--weights", "{nan_weights}", "--atlas", "{val}", "--query-id", "1000000",
                      "--layer", "7"], None, 3),
        ("evaluate", ["--weights", "{weights}", "--data", "{nan}"], None, 3),
        ("explain", ["--weights", "{weights}", "--data", "{nan}", "--sample-id", "1000001"],
         None, 3),
        ("retrieve", ["--weights", "{weights}", "--atlas", "{nan}", "--query-id", "1000000",
                      "--layer", "1"], None, 3),
        ("train", ["--data", "{train}", "--val", "{nan}", "--seed", "1"], None, 3),
        # a directory where an input file belongs
        ("evaluate", ["--weights", "{dir}", "--data", "{val}"], None, 2),
        ("explain", ["--weights", "{weights}", "--data", "{dir}", "--sample-id", "1000000"],
         None, 2),
        ("retrieve", ["--weights", "{weights}", "--atlas", "{dir}", "--query-id", "1000000",
                      "--layer", "3"], None, 2),
        ("train", TRAIN + ["--config", "{dir}"], None, 2),
        # an atlas that holds one sample id twice
        ("retrieve", ["--weights", "{weights}", "--atlas", "{repeated}", "--query-id", "1000000",
                      "--layer", "3"], None, 2),
        # a dataset that holds the sample id to explain twice
        ("explain", ["--weights", "{weights}", "--data", "{repeated}", "--sample-id", "1000001"],
         None, 2),
        # a record whose label or mask byte is not 0 or 1
        *(row for bad in ("{bad_label}", "{bad_mask}") for row in (
            ("evaluate", ["--weights", "{weights}", "--data", bad], None, 2),
            ("explain", ["--weights", "{weights}", "--data", bad, "--sample-id", "1000001"], None, 2),
            ("retrieve", ["--weights", "{weights}", "--atlas", bad, "--query-id", "1000000",
                          "--layer", "3"], None, 2),
            ("train", ["--data", bad, "--seed", "1"], None, 2),
        )),
        # a side whose weights no command could read: 36 over four pooling halvings
        ("train", ["--data", "{side36}", "--seed", "1"], {"conv_channels": [4, 4, 4, 4]}, 2),
        ("experiment1", ["--data", "{side36}", "--seed", "1"], {"conv_channels": [4, 4, 4, 4]}, 2),
        ("experiment2", ["--data", "{side36}", "--seed", "1"], {"conv_channels": [4, 4, 4, 4]}, 2),
    ]

    @pytest.mark.parametrize("command, argv, config, code", ROWS,
                             ids=[f"{row[0]}-{i}" for i, row in enumerate(ROWS)])
    def test_exit_code_one_line_no_out(self, paths, tmp_path, capsys, command, argv, config, code):
        argv = [a.format(**paths) for a in argv]
        if config is not None:
            argv += ["--config", write_config(tmp_path, **config)]
        out = tmp_path / "out"
        assert run_cli(command, *argv, "--out", str(out)) == code
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not out.exists()
        if code == 3:  # the line names the tensor or the sample that holds the NaN
            assert re.search(r"weight tensor layer\d+\.weight |dataset sample 1000001 ", err)
        if str(paths["repeated"]) in argv:  # the line names the repeated id
            kind = "atlas" if command == "retrieve" else "dataset"
            assert f"{kind} sample id 1000001 appears more than once" in err
        if {str(paths["bad_label"]), str(paths["bad_mask"])} & set(argv):  # it names the record
            assert "dataset sample 1000001 has " in err

    def test_out_naming_a_file(self, paths, tmp_path, capsys):
        """An --out that is a regular file is a path error: exit 2, one
        stderr line, and the file is left as it was."""
        out = tmp_path / "taken"
        out.write_bytes(b"keep me\n")
        argv = [a.format(**paths) for a in self.SERVE]
        assert run_cli("evaluate", *argv, "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert out.read_bytes() == b"keep me\n"


U32_MAX = 2**32 - 1


def _weight_header_fields(blob):
    """Offsets of the u32 header fields of a weight file: version, tensor
    count, and the rank and each dim of its first rank-4 tensor."""
    fields = {"version": 4, "count": 8}
    pos = 12
    while True:
        (nlen,) = struct.unpack_from("<H", blob, pos)
        pos += 2 + nlen
        (rank,) = struct.unpack_from("<I", blob, pos)
        dims = struct.unpack_from(f"<{rank}I", blob, pos + 4)
        if rank == 4:
            fields["rank"] = pos
            fields.update({f"dim{i}": pos + 4 + 4 * i for i in range(rank)})
            return fields
        pos += 4 + 4 * rank + 4 * int(np.prod(dims))


class TestCorruptHeaders:
    """Every u32 size or version field of a file header, set to 0 or to the
    largest u32, is a FormatError, and no read is sized by an unchecked
    field; through the CLI, exit 2 with one line on stderr."""

    @pytest.fixture(scope="class")
    def files(self, workspace, tmp_path_factory):
        root = tmp_path_factory.mktemp("headers")
        index = AtlasIndex(4, np.ones((3, 5), dtype=np.float32), np.arange(3, dtype=np.uint32),
                           np.zeros(3, dtype=np.uint8))
        save_index(index, root / "index.rgta")
        return {
            "dataset": (workspace / "data" / "val.rgtd").read_bytes(),
            "weights": (workspace / "run" / "weights.rgtw").read_bytes(),
            "atlas": (root / "index.rgta").read_bytes(),
        }

    CASES = (
        [("dataset", f, o) for f, o in (("version", 4), ("n", 8), ("c", 12), ("h", 16), ("w", 20))]
        + [("weights", f, None) for f in ("version", "count", "rank", "dim0", "dim1", "dim2", "dim3")]
        + [("atlas", f, o) for f, o in (("version", 4), ("n", 13), ("dim", 17))]
    )

    @pytest.mark.parametrize("value", [0, U32_MAX])
    @pytest.mark.parametrize("fmt, field, offset", CASES)
    def test_field_rejected(self, workspace, files, tmp_path, capsys, fmt, field, offset, value):
        blob = bytearray(files[fmt])
        if offset is None:
            offset = _weight_header_fields(blob)[field]
        struct.pack_into("<I", blob, offset, value)
        path = tmp_path / f"bad.{fmt}"
        path.write_bytes(bytes(blob))
        reader = {"dataset": load_dataset, "weights": read_weight_tensors, "atlas": load_index}[fmt]
        with pytest.raises(FormatError):
            reader(path)
        if fmt == "atlas":
            return  # no command reads index files
        weights = path if fmt == "weights" else workspace / "run" / "weights.rgtw"
        data = path if fmt == "dataset" else workspace / "data" / "val.rgtd"
        code = run_cli("evaluate", "--weights", str(weights), "--data", str(data),
                       "--out", str(tmp_path / "o"))
        err = capsys.readouterr().err
        assert code == 2 and err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("n_classes", [1, 3])
    def test_weights_without_two_outputs(self, workspace, tmp_path, capsys, n_classes):
        model = build_model(default_layers((4, 4), 8, n_classes=n_classes), (3, 32, 32), 1)
        path = tmp_path / "bad.rgtw"
        save_weights(model, path)
        with pytest.raises(FormatError, match=f"{n_classes} outputs"):
            load_weights(path)
        code = run_cli("evaluate", "--weights", str(path), "--data",
                       str(workspace / "data" / "val.rgtd"), "--out", str(tmp_path / "o"))
        err = capsys.readouterr().err
        assert code == 2 and err.count("\n") == 1 and "Traceback" not in err

    def test_sizes_that_wrap_in_fixed_width(self, workspace, files, tmp_path, capsys):
        # N=1, C=H=W=2^32-1: the sample size overflows any machine integer
        blob = bytearray(files["dataset"])
        struct.pack_into("<IIII", blob, 8, 1, U32_MAX, U32_MAX, U32_MAX)
        (tmp_path / "bad.rgtd").write_bytes(bytes(blob))
        # every dim of a rank-4 tensor 2^32-1: the int64 product wraps
        blob = bytearray(files["weights"])
        dims = _weight_header_fields(blob)["dim0"]
        struct.pack_into("<4I", blob, dims, *([U32_MAX] * 4))
        (tmp_path / "bad.rgtw").write_bytes(bytes(blob))
        for argv in (
            ["--weights", str(workspace / "run" / "weights.rgtw"), "--data", str(tmp_path / "bad.rgtd")],
            ["--weights", str(tmp_path / "bad.rgtw"), "--data", str(workspace / "data" / "val.rgtd")],
        ):
            assert run_cli("evaluate", *argv, "--out", str(tmp_path / "o")) == 2
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and "truncated" in err
