"""Command-line surface: dataset generation, training, evaluation,
explanation, retrieval, and the two comparison experiments.

Every command resolves one flat JSON config (file keys, overridden by
flags), writes its artifacts plus a run manifest into --out, and never
mutates its inputs. A manifest file can be passed back as --config to
reproduce a run. Exit codes: 0 success, 1 usage error, 2 data/format
error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import shutil
import sys
import time

import numpy as np

from . import __version__
from .atlas import METRICS, build_index, credibility, query_knn_vector
from .bilrp import bilrp, export_json, unit_relevance
from .data import GeneratorConfig, generate, load_dataset, load_sample, save_dataset
from .errors import ConfigError, DimensionError, FormatError, NumericalError, ScoreError, UsageError
from .lrp import LRPRuleConfig, input_relevance, render_heatmap
from .network import (
    build_model,
    default_layers,
    forward_with_trace,
    infer_shapes,
    load_weights,
    save_weights,
)
from .training import (
    SCORE_VARIANTS,
    LossConfig,
    TrainConfig,
    evaluate,
    lesion_relevance_score,
    train,
    write_metrics_csv,
)

VAL_ID_OFFSET = 1_000_000

DEFAULTS = {
    "generate": {
        "height": 64, "width": 64, "samples_per_class": 400, "val_per_class": 100,
        "lesion_area_min": 0.05, "lesion_area_max": 0.15, "texture_contrast": 0.35,
        "distractor_rho": 0.9, "noise_sigma": 0.05,
    },
    "train": {
        "epochs": 20, "batch_size": 16, "learning_rate": 1e-3, "beta1": 0.9,
        "beta2": 0.999, "adam_eps": 1e-8, "augment": True,
        "loss": "original", "power": 1.0, "score_floor": 1e-3,
        "score_variant": "unnormalized",
        "rule": None, "epsilon": 1e-6, "alpha": 1.0, "beta": 0.0,
        "conv_channels": [16, 32, 64, 128], "dense_units": 256, "dropout_rate": 0.25,
    },
    "evaluate": {
        "rule": None, "epsilon": 1e-6, "alpha": 1.0, "beta": 0.0,
        "score_variant": "unnormalized", "score_floor": 1e-3,
    },
    "explain": {
        "rule": None, "epsilon": 1e-6, "alpha": 1.0, "beta": 0.0,
        "score_variant": "unnormalized", "score_floor": 1e-3,
    },
    "retrieve": {
        "rule": None, "epsilon": 1e-6, "alpha": 1.0, "beta": 0.0,
        "k": 5, "grid": 8, "metric": "euclidean", "layer": None,
    },
}
DEFAULTS["experiment1"] = {
    k: v for k, v in DEFAULTS["train"].items() if k not in ("loss", "power")
}
# the runners' own choices (see README): a higher score floor caps the
# penalization factor of samples whose relevance is still mostly negative, and a
# shorter second-moment horizon lets Adam recover from their loss spikes
DEFAULTS["experiment1"].update({"epochs": 6, "score_floor": 0.1, "beta2": 0.99})
DEFAULTS["experiment2"] = dict(DEFAULTS["experiment1"])
DEFAULTS["experiment2"].update({"iterations": 20, "power": 1.0})
del DEFAULTS["experiment2"]["epochs"]

_SEED_REQUIRED = {"generate", "train", "experiment1", "experiment2"}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v) -> bool:
    """A finite float, or an integer that converts to one (NaN compares false)."""
    return (_is_int(v) or isinstance(v, float)) and abs(v) <= sys.float_info.max


_TYPE_CHECKS = {
    "an integer": _is_int,
    "an integer >= 0": lambda v: _is_int(v) and v >= 0,
    "an integer >= 1": lambda v: _is_int(v) and v >= 1,
    "a finite number": _is_number,
    "a finite number > 0": lambda v: _is_number(v) and v > 0,
    "true or false": lambda v: isinstance(v, bool),
    "a string": lambda v: isinstance(v, str),
    "a string or null": lambda v: v is None or isinstance(v, str),
    "a non-empty list of integers >= 1":
        lambda v: isinstance(v, list) and v != [] and all(_is_int(c) and c >= 1 for c in v),
}
# keys whose value must be one of these
_CHOICES = {"score_variant": SCORE_VARIANTS, "metric": METRICS}
# keys whose default does not show the type their values must have; every
# other integer key is a count. `retrieve` checks k, grid and layer itself,
# against the atlas and the model.
_KEY_TYPES = {
    "seed": "an integer >= 0", "layer": "an integer", "k": "an integer", "grid": "an integer",
    "rule": "a string or null", "score_floor": "a finite number > 0",
    "conv_channels": "a non-empty list of integers >= 1",
}
_FLAG_KEYS = ("seed", "loss", "power", "rule", "layer", "k", "grid")


def _expected_type(key: str, default) -> str:
    if key in _KEY_TYPES:
        return _KEY_TYPES[key]
    if isinstance(default, bool):
        return "true or false"
    if isinstance(default, int):
        return "an integer >= 1"
    if isinstance(default, float):
        return "a finite number"
    return "a string"


def resolve_config(args, command: str) -> dict:
    """DEFAULTS[command], updated from --config (a flat JSON object or a
    manifest to replay) and then from flags. A loaded key must be one of the
    command's defaults or `seed`, and every value the user gives, from the
    file or a flag, must have its key's type."""
    cfg = dict(DEFAULTS[command])
    given = {}
    if getattr(args, "config", None):
        with open(args.config) as f:
            given = json.load(f)
        if isinstance(given, dict) and "command" in given and "config" in given:
            given = given["config"]  # manifest replay
        if not isinstance(given, dict):
            raise UsageError("a config must be a JSON object")
        for retired in ("threads", "unit_cap"):  # keys that older manifests record
            given.pop(retired, None)
        if given.pop("detach_score", False) is not False:  # the removed option was never on
            raise UsageError("config key 'detach_score' was removed: only false can be replayed")
        unknown = sorted(set(given) - set(cfg) - {"seed"})
        if unknown:
            raise UsageError(f"unknown config keys for {command}: {', '.join(unknown)}")
    given.update({k: getattr(args, k) for k in _FLAG_KEYS if getattr(args, k, None) is not None})
    for key, value in given.items():
        expected = _expected_type(key, cfg.get(key))
        if not _TYPE_CHECKS[expected](value):
            raise UsageError(f"config key {key!r} must be {expected}, got {json.dumps(value)}")
    cfg.update(given)
    if command in _SEED_REQUIRED and cfg.get("seed") is None:
        raise UsageError(f'missing required key "seed" for {command} (config or --seed)')
    for key, choices in _CHOICES.items():
        if key in cfg and cfg[key] not in choices:
            raise UsageError(f"config key {key!r} must be one of {', '.join(choices)}, "
                             f"got {json.dumps(cfg[key])}")
    return cfg


def rules_from_config(cfg: dict) -> LRPRuleConfig:
    kw = {"epsilon": cfg["epsilon"], "alpha": cfg["alpha"], "beta": cfg["beta"]}
    if cfg["rule"] is None:
        return LRPRuleConfig(**kw)
    return LRPRuleConfig.uniform(cfg["rule"], **kw)


def loss_config_from(cfg: dict, mode=None, power=None) -> LossConfig:
    return LossConfig(
        mode=mode if mode is not None else cfg["loss"],
        power=power if power is not None else cfg["power"],
        rules=rules_from_config(cfg),
        score_floor=cfg["score_floor"],
        score_variant=cfg["score_variant"],
    )


def train_config_from(cfg: dict, epochs=None) -> TrainConfig:
    return TrainConfig(
        epochs=epochs if epochs is not None else int(cfg["epochs"]),
        batch_size=int(cfg["batch_size"]),
        learning_rate=float(cfg["learning_rate"]),
        beta1=float(cfg["beta1"]),
        beta2=float(cfg["beta2"]),
        adam_eps=float(cfg["adam_eps"]),
        seed=int(cfg["seed"]),
        augment=bool(cfg["augment"]),
    )


def layers_from_config(cfg: dict) -> list:
    return default_layers(
        conv_channels=tuple(cfg["conv_channels"]),
        dense_units=int(cfg["dense_units"]),
        dropout_rate=float(cfg["dropout_rate"]),
    )


def model_from_config(cfg: dict, input_shape, seed: int):
    return build_model(layers_from_config(cfg), input_shape, seed)


def write_manifest(out_dir, command, cfg, artifacts, started, extra=None) -> str:
    payload = {
        "tool": "relguide",
        "version": __version__,
        "command": command,
        "seed": cfg.get("seed"),
        "config": cfg,
        "artifacts": sorted(artifacts),
        "duration_seconds": round(time.time() - started, 3),
    }
    if extra:
        payload.update(extra)
    path = os.path.join(out_dir, "manifest.json")
    with open(path, "w") as f:
        json.dump(payload, f, indent=1, sort_keys=True)
    return path


def _ensure_out(args) -> str:
    out = args.out or "."
    os.makedirs(out, exist_ok=True)
    return out


def _check_input_shape(shape, model_shape) -> None:
    """The error the forward pass would raise, before --out exists."""
    if shape != model_shape:
        raise DimensionError(f"input {shape} does not match model {model_shape}")


def _load_sets(args):
    train_set = load_dataset(args.data)
    _, h, w = train_set[0].image.shape
    if h != w:  # augmentation rotates by 90 degrees, and weight files record one side
        raise DimensionError(f"training images must be square, {args.data} has {h}x{w}")
    val_set = load_dataset(args.val) if args.val else train_set
    _check_input_shape(val_set[0].image.shape, train_set[0].image.shape)
    return train_set, val_set


def _check_run_config(cfg: dict, train_set, epochs=None) -> None:
    """Build each setting of a training run once, so that a bad value ends
    an experiment before --out exists (the runners build them per run)."""
    infer_shapes(layers_from_config(cfg), train_set[0].image.shape)
    train_config_from(cfg, epochs)
    # experiment 1 has no power key: each of its rows sets its own
    loss_config_from(cfg, mode="penalization", power=cfg.get("power", 0.0))


def _sample_by_id(samples, sample_id: int):
    for s in samples:
        if s.sample_id == sample_id:
            return s
    raise UsageError(f"sample id {sample_id} not found in dataset")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_generate(args) -> int:
    started = time.time()
    cfg = resolve_config(args, "generate")
    gen_keys = (
        "height", "width", "lesion_area_min", "lesion_area_max",
        "texture_contrast", "distractor_rho", "noise_sigma", "seed",
    )
    base = {k: cfg[k] for k in gen_keys}
    train_cfg = GeneratorConfig(samples_per_class=int(cfg["samples_per_class"]), **base)
    val_cfg = GeneratorConfig(samples_per_class=int(cfg["val_per_class"]), **base)
    train_set, val_set = generate(train_cfg), generate(val_cfg, id_offset=VAL_ID_OFFSET)
    out = _ensure_out(args)
    train_path = os.path.join(out, "train.rgtd")
    val_path = os.path.join(out, "val.rgtd")
    save_dataset(train_set, train_path)
    save_dataset(val_set, val_path)
    write_manifest(out, "generate", cfg, ["train.rgtd", "val.rgtd"], started)
    print(f"wrote {train_path} ({2 * train_cfg.samples_per_class} samples) and "
          f"{val_path} ({2 * val_cfg.samples_per_class} samples)")
    return 0


def cmd_train(args) -> int:
    started = time.time()
    cfg = resolve_config(args, "train")
    train_set, val_set = _load_sets(args)
    model = model_from_config(cfg, train_set[0].image.shape, int(cfg["seed"]))
    loss_cfg = loss_config_from(cfg)
    train_cfg = train_config_from(cfg)
    out = _ensure_out(args)
    model, records = train(model, train_set, val_set, loss_cfg, train_cfg)
    weights_path = os.path.join(out, "weights.rgtw")
    metrics_path = os.path.join(out, "metrics.csv")
    save_weights(model, weights_path)
    write_metrics_csv(records, metrics_path)
    write_manifest(out, "train", cfg, ["weights.rgtw", "metrics.csv"], started)
    last = records[-1]
    print(f"trained {len(records)} epochs: accuracy {last.accuracy:.4f}, "
          f"f1 {last.f1_weighted:.4f}, scores {last.score_class0:.4f}/{last.score_class1:.4f}")
    return 0


def cmd_evaluate(args) -> int:
    started = time.time()
    cfg = resolve_config(args, "evaluate")
    rules = rules_from_config(cfg)
    dataset = load_dataset(args.data)
    model = load_weights(args.weights)
    _check_input_shape(dataset[0].image.shape, model.input_shape)
    out = _ensure_out(args)
    acc, f1w, s0, s1 = evaluate(model, dataset, rules, cfg["score_variant"], cfg["score_floor"])
    result = {"accuracy": acc, "f1_weighted": f1w, "score_class0": s0, "score_class1": s1}
    with open(os.path.join(out, "evaluation.json"), "w") as f:
        json.dump(result, f, indent=1)
    write_manifest(out, "evaluate", cfg, ["evaluation.json"], started)
    print(json.dumps(result))
    return 0


def cmd_explain(args) -> int:
    started = time.time()
    cfg = resolve_config(args, "explain")
    rules = rules_from_config(cfg)
    sample = load_sample(args.data, args.sample_id)
    if sample is None:
        raise UsageError(f"sample id {args.sample_id} not found in dataset")
    model = load_weights(args.weights)
    _check_input_shape(sample.image.shape, model.input_shape)
    out = _ensure_out(args)
    logits, trace = forward_with_trace(model, sample.image)
    pred = int(np.argmax(logits.data))
    artifacts = []
    scores = {}
    rendered = {}  # target class -> (pgm, csv) paths; a correct prediction reuses its maps
    for tag, target in (("pred", pred), ("true", sample.label)):
        name = f"heatmap_{tag}_class{target}.pgm"
        paths = (os.path.join(out, name), os.path.join(out, name.replace(".pgm", ".csv")))
        if target in rendered:
            for src, dst in zip(rendered[target], paths):
                shutil.copyfile(src, dst)
            scores[tag] = scores["pred"]
        else:
            rel = input_relevance(model, trace, target, rules)
            render_heatmap(rel, paths[0])
            rendered[target] = paths
            scores[tag] = lesion_relevance_score(
                rel, sample.lesion_mask, sample.object_mask,
                cfg["score_variant"], cfg["score_floor"],
            )
        artifacts += [name, name.replace(".pgm", ".csv")]
    summary = {
        "sample_id": sample.sample_id,
        "true_label": sample.label,
        "predicted_label": pred,
        "score_pred": scores["pred"],
        "score_true": scores["true"],
        "rule": {"dense": rules.dense_rule, "conv": rules.conv_rule,
                 "epsilon": rules.epsilon, "alpha": rules.alpha, "beta": rules.beta},
    }
    with open(os.path.join(out, "explain.json"), "w") as f:
        json.dump(summary, f, indent=1)
    artifacts.append("explain.json")
    write_manifest(out, "explain", cfg, artifacts, started)
    print(f"sample {sample.sample_id}: predicted {pred} (true {sample.label}), "
          f"score_pred {scores['pred']:.6g}, score_true {scores['true']:.6g}")
    return 0


def cmd_retrieve(args) -> int:
    started = time.time()
    cfg = resolve_config(args, "retrieve")
    if cfg.get("layer") is None:
        raise UsageError("retrieve requires --layer (trace position of the embedding)")
    atlas_set = load_dataset(args.atlas)
    query = _sample_by_id(atlas_set, args.query_id)
    model = load_weights(args.weights)
    _check_input_shape(query.image.shape, model.input_shape)
    rules = rules_from_config(cfg)
    layer = int(cfg["layer"])
    if not 0 <= layer <= len(model.layers):
        raise UsageError(f"--layer {layer} out of range: trace positions are 0..{len(model.layers)}")
    k = int(cfg["k"])
    if not 1 <= k <= len(atlas_set):
        raise UsageError(f"--k {k} out of range: the atlas has {len(atlas_set)} samples")
    grid = int(cfg["grid"])
    _, h, w = model.input_shape
    if grid < 1 or h % grid or w % grid:
        raise UsageError(f"--grid {grid} must be >= 1 and divide the input size {h}x{w}")
    out = _ensure_out(args)
    index = build_index(model, atlas_set, layer, metric=cfg["metric"])
    # one forward pass of the query serves the search, the prediction and
    # its half of every neighbour's joint relevance
    logits, trace = forward_with_trace(model, query.image)
    neighbors = query_knn_vector(index, trace.tensors[layer].data, k)
    pred = int(np.argmax(logits.data))
    cred = credibility(neighbors, pred)
    query_units = unit_relevance(model, trace, layer, rules, grid)
    artifacts = []
    by_id = {s.sample_id: s for s in atlas_set}
    for nid, _, _ in neighbors:
        joint = bilrp(model, query_units, by_id[nid].image, layer, rules, grid=grid,
                      pair=(query.sample_id, nid))
        name = f"bilrp_{query.sample_id}_{nid}.json"
        export_json(joint, os.path.join(out, name))
        artifacts.append(name)
    payload = {
        "query_id": query.sample_id,
        "layer": layer,
        "k": k,
        "metric": index.metric,
        "predicted_label": pred,
        "credibility": cred,
        "neighbors": [
            {"id": nid, "distance": dist, "label": label} for nid, dist, label in neighbors
        ],
    }
    with open(os.path.join(out, "neighbors.json"), "w") as f:
        json.dump(payload, f, indent=1)
    artifacts.append("neighbors.json")
    write_manifest(out, "retrieve", cfg, artifacts, started)
    print(f"query {query.sample_id}: {len(neighbors)} neighbors, credibility {cred:.3f}")
    return 0


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

EXPERIMENT1_ROWS = (
    ("Original", "original", 0.0),
    ("Penalization 1", "penalization", 1.0),
    ("Penalization 2", "penalization", 2.0),
    ("Penalization 3", "penalization", 3.0),
)
TABLE_HEADER = "loss_function,accuracy,f1_weighted,score_class0,score_class1"


def run_experiment1(train_set, val_set, cfg: dict, out_dir: str) -> list:
    """Train the four loss configurations from identical seeds and return
    [(row name, accuracy, f1, score0, score1)]."""
    rows = []
    seed = int(cfg["seed"])
    for name, mode, power in EXPERIMENT1_ROWS:
        model = model_from_config(cfg, train_set[0].image.shape, seed)
        loss_cfg = loss_config_from(cfg, mode=mode, power=power)
        model, records = train(model, train_set, val_set, loss_cfg, train_config_from(cfg))
        last = records[-1]  # train's own evaluation of the final model on val_set
        rows.append((name, last.accuracy, last.f1_weighted, last.score_class0, last.score_class1))
        tag = name.lower().replace(" ", "")
        save_weights(model, os.path.join(out_dir, f"weights_{tag}.rgtw"))
        write_metrics_csv(records, os.path.join(out_dir, f"metrics_{tag}.csv"))
    return rows


def format_table(rows) -> str:
    lines = [f"{'loss_function':<16}{'accuracy':>10}{'f1_weighted':>13}"
             f"{'score_class0':>14}{'score_class1':>14}"]
    for name, acc, f1w, s0, s1 in rows:
        lines.append(f"{name:<16}{acc:>10.4f}{f1w:>13.4f}{s0:>14.4f}{s1:>14.4f}")
    return "\n".join(lines)


def cmd_experiment1(args) -> int:
    started = time.time()
    cfg = resolve_config(args, "experiment1")
    train_set, val_set = _load_sets(args)
    _check_run_config(cfg, train_set)
    out = _ensure_out(args)
    rows = run_experiment1(train_set, val_set, cfg, out)
    with open(os.path.join(out, "table.csv"), "w") as f:
        f.write(TABLE_HEADER + "\n")
        for name, acc, f1w, s0, s1 in rows:
            f.write(f"{name},{acc:.9g},{f1w:.9g},{s0:.9g},{s1:.9g}\n")
    table = format_table(rows)
    with open(os.path.join(out, "table.txt"), "w") as f:
        f.write(table + "\n")
    artifacts = ["table.csv", "table.txt"]
    for name, _, _ in EXPERIMENT1_ROWS:
        tag = name.lower().replace(" ", "")
        artifacts += [f"weights_{tag}.rgtw", f"metrics_{tag}.csv"]
    write_manifest(out, "experiment1", cfg, artifacts, started)
    print(table)
    return 0


ITER_HEADER = "iteration,accuracy,mask_score,score_class0,score_class1"


def run_experiment2(train_set, val_set, cfg: dict):
    """Two aligned runs sharing seed and data order: conventional
    cross-entropy vs the guided loss. Returns (conventional records,
    guided records), one per iteration."""
    iterations = int(cfg["iterations"])
    out = []
    for mode, power in (("original", 0.0), ("penalization", float(cfg["power"]))):
        model = model_from_config(cfg, train_set[0].image.shape, int(cfg["seed"]))
        loss_cfg = loss_config_from(cfg, mode=mode, power=power)
        _, records = train(
            model, train_set, val_set, loss_cfg, train_config_from(cfg, epochs=iterations)
        )
        out.append(records)
    return out[0], out[1]


def write_iteration_csv(records, path) -> None:
    with open(path, "w") as f:
        f.write(ITER_HEADER + "\n")
        for r in records:
            mask_score = 0.5 * (r.score_class0 + r.score_class1)
            f.write(f"{r.epoch},{r.accuracy:.9g},{mask_score:.9g},"
                    f"{r.score_class0:.9g},{r.score_class1:.9g}\n")


def cmd_experiment2(args) -> int:
    started = time.time()
    cfg = resolve_config(args, "experiment2")
    train_set, val_set = _load_sets(args)
    _check_run_config(cfg, train_set, epochs=int(cfg["iterations"]))
    out = _ensure_out(args)
    conventional, guided = run_experiment2(train_set, val_set, cfg)
    write_iteration_csv(conventional, os.path.join(out, "conventional.csv"))
    write_iteration_csv(guided, os.path.join(out, "guided.csv"))
    write_manifest(out, "experiment2", cfg, ["conventional.csv", "guided.csv"], started)
    for name, recs in (("conventional", conventional), ("guided", guided)):
        last = recs[-1]
        print(f"{name}: final accuracy {last.accuracy:.4f}, "
              f"mask score {(last.score_class0 + last.score_class1) / 2:.4f}")
    return 0


# ---------------------------------------------------------------------------
# parser / entry point
# ---------------------------------------------------------------------------

def build_parser() -> _Parser:
    p = _Parser(prog="relguide", description=__doc__)
    p.add_argument("--version", action="version", version=f"relguide {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", help="flat JSON config (or a manifest to replay)")
        sp.add_argument("--out", help="output directory (default: current)")
        sp.add_argument("--seed", type=int)

    sp = sub.add_parser("generate", help="write synthetic train/val datasets")
    common(sp)
    sp.set_defaults(fn=cmd_generate)

    sp = sub.add_parser("train", help="train one model")
    common(sp)
    sp.add_argument("--data", required=True, help="training dataset (.rgtd)")
    sp.add_argument("--val", help="validation dataset (.rgtd), defaults to --data")
    sp.add_argument("--loss", choices=["original", "penalization"])
    sp.add_argument("--power", type=float)
    sp.add_argument("--rule", choices=["epsilon", "alphabeta"])
    sp.set_defaults(fn=cmd_train)

    sp = sub.add_parser("evaluate", help="metrics of saved weights on a dataset")
    common(sp)
    sp.add_argument("--weights", required=True)
    sp.add_argument("--data", required=True)
    sp.add_argument("--rule", choices=["epsilon", "alphabeta"])
    sp.set_defaults(fn=cmd_evaluate)

    sp = sub.add_parser("explain", help="relevance heatmaps for one sample")
    common(sp)
    sp.add_argument("--weights", required=True)
    sp.add_argument("--data", required=True)
    sp.add_argument("--sample-id", type=int, required=True)
    sp.add_argument("--rule", choices=["epsilon", "alphabeta"])
    sp.set_defaults(fn=cmd_explain)

    sp = sub.add_parser("retrieve", help="nearest atlas cases plus joint explanations")
    common(sp)
    sp.add_argument("--weights", required=True)
    sp.add_argument("--atlas", required=True, help="atlas dataset (.rgtd)")
    sp.add_argument("--query-id", type=int, required=True)
    sp.add_argument("--layer", type=int)
    sp.add_argument("--k", type=int)
    sp.add_argument("--grid", type=int)
    sp.add_argument("--rule", choices=["epsilon", "alphabeta"])
    sp.set_defaults(fn=cmd_retrieve)

    sp = sub.add_parser("experiment1", help="four-loss comparison table")
    common(sp)
    sp.add_argument("--data", required=True)
    sp.add_argument("--val", help="defaults to --data")
    sp.add_argument("--rule", choices=["epsilon", "alphabeta"])
    sp.set_defaults(fn=cmd_experiment1)

    sp = sub.add_parser("experiment2", help="conventional vs guided training curves")
    common(sp)
    sp.add_argument("--data", required=True)
    sp.add_argument("--val", help="defaults to --data")
    sp.add_argument("--power", type=float)
    sp.add_argument("--rule", choices=["epsilon", "alphabeta"])
    sp.set_defaults(fn=cmd_experiment2)
    return p


@functools.lru_cache(maxsize=1)
def _parser() -> _Parser:
    """The parser, built once per process."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.fn(args)
    except (UsageError, ConfigError, json.JSONDecodeError) as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except (FormatError, OSError, ScoreError, ValueError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return 2
    except NumericalError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
