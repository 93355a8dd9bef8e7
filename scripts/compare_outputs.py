#!/usr/bin/env python3
"""Byte-compare the command outputs of two relguide source trees.

    python3 scripts/compare_outputs.py SRC_A SRC_B

SRC_A and SRC_B are roots of relguide checkouts. With each tree (its
``src/`` first on PYTHONPATH, one BLAS thread), the script runs the same
commands into a temporary directory of its own:

* ``generate`` of a small 64x64 task (48 training, 24 validation samples);
* plain and guided (penalization, p=1) ``train`` for two epochs, the
  guided one also with the alpha2-beta1 rule and with the epsilon rule;
* ``evaluate`` of both weight files, the guided one also with the
  alpha2-beta1 rule;
* ``explain`` of two validation samples, one also with the epsilon rule;
* ``retrieve`` at trace positions 0 (the input), 3, 7, 16 (past the
  flatten layer) and 18 (the logits), and at 7 with the cosine metric, with
  grid 4, with the epsilon rule and with the alpha2-beta1 rule on conv
  layers;
* ``experiment1`` for one epoch and ``experiment2`` for two iterations.

It then lists every output file that differs between the two trees, or
exists under one only. Manifests are compared with ``duration_seconds``
removed. For a weight file or ``metrics.csv`` that differs, it prints the
largest |difference| of each tensor or column, relative to that tensor's or
column's largest |entry| under SRC_A (training curves of the experiments
included).

A second pass separates training from serving: SRC_B runs the
``evaluate``, ``explain`` and ``retrieve`` commands again on SRC_A's
dataset and weight files, and those outputs are compared with SRC_A's.

Exit status: 0 when nothing differs in either pass, 1 when a file differs,
2 when a command fails.
"""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile

import numpy as np

BLAS_ENV = {v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
VAL = 1_000_000  # first validation sample id (relguide.cli.VAL_ID_OFFSET)
# training curves: CSV files of numeric columns under a header
CURVES = re.compile(r"metrics(_\w+)?\.csv|conventional\.csv|guided\.csv")

CONFIGS = {
    "generate.json": {"samples_per_class": 24, "val_per_class": 12},
    "plain.json": {"epochs": 2},
    "guided.json": {"epochs": 2, "score_floor": 0.1, "beta2": 0.99},
    "alpha2beta1.json": {"alpha": 2.0, "beta": 1.0},
    "guided_ab.json": {"epochs": 2, "score_floor": 0.1, "beta2": 0.99,
                       "rule": "alphabeta", "alpha": 2, "beta": 1},
    "cosine.json": {"metric": "cosine"},
    "epsilon.json": {"rule": "epsilon"},
    "experiment1.json": {"epochs": 1},
    "experiment2.json": {"iterations": 2},
}

COMMANDS = [
    ["generate", "--config", "generate.json", "--seed", "7", "--out", "data"],
    ["train", "--data", "data/train.rgtd", "--val", "data/val.rgtd", "--config", "plain.json",
     "--seed", "12", "--loss", "original", "--out", "plain"],
    ["train", "--data", "data/train.rgtd", "--val", "data/val.rgtd", "--config", "guided.json",
     "--seed", "12", "--loss", "penalization", "--power", "1", "--out", "guided"],
    ["train", "--data", "data/train.rgtd", "--val", "data/val.rgtd", "--config", "guided_ab.json",
     "--seed", "12", "--loss", "penalization", "--power", "1", "--out", "guided_ab"],
    ["train", "--data", "data/train.rgtd", "--val", "data/val.rgtd", "--config", "guided.json",
     "--seed", "12", "--loss", "penalization", "--power", "1", "--rule", "epsilon",
     "--out", "guided_eps"],
    ["evaluate", "--weights", "plain/weights.rgtw", "--data", "data/val.rgtd", "--out", "evaluate_plain"],
    ["evaluate", "--weights", "guided/weights.rgtw", "--data", "data/val.rgtd", "--out", "evaluate_guided"],
    ["evaluate", "--weights", "guided/weights.rgtw", "--data", "data/val.rgtd",
     "--config", "alpha2beta1.json", "--rule", "alphabeta", "--out", "evaluate_ab"],
    ["explain", "--weights", "guided/weights.rgtw", "--data", "data/val.rgtd",
     "--sample-id", str(VAL), "--out", "explain0"],
    ["explain", "--weights", "guided/weights.rgtw", "--data", "data/val.rgtd",
     "--sample-id", str(VAL + 1), "--out", "explain1"],
    ["explain", "--weights", "plain/weights.rgtw", "--data", "data/val.rgtd",
     "--sample-id", str(VAL + 1), "--rule", "epsilon", "--out", "explain_eps"],
    ["retrieve", "--weights", "guided/weights.rgtw", "--atlas", "data/train.rgtd",
     "--query-id", "5", "--layer", "3", "--k", "3", "--out", "retrieve3"],
    ["retrieve", "--weights", "guided/weights.rgtw", "--atlas", "data/train.rgtd",
     "--query-id", "5", "--layer", "7", "--k", "3", "--out", "retrieve7"],
    ["retrieve", "--weights", "guided/weights.rgtw", "--atlas", "data/train.rgtd",
     "--query-id", "5", "--layer", "7", "--k", "3", "--config", "cosine.json",
     "--out", "retrieve7_cosine"],
    ["retrieve", "--weights", "guided/weights.rgtw", "--atlas", "data/train.rgtd",
     "--query-id", "5", "--layer", "7", "--k", "3", "--grid", "4", "--out", "retrieve7_grid4"],
    ["retrieve", "--weights", "guided/weights.rgtw", "--atlas", "data/train.rgtd",
     "--query-id", "5", "--layer", "7", "--k", "3", "--config", "epsilon.json",
     "--out", "retrieve7_eps"],
    ["retrieve", "--weights", "guided/weights.rgtw", "--atlas", "data/train.rgtd",
     "--query-id", "5", "--layer", "7", "--k", "3", "--config", "alpha2beta1.json",
     "--out", "retrieve7_ab"],
    ["retrieve", "--weights", "guided/weights.rgtw", "--atlas", "data/train.rgtd",
     "--query-id", "5", "--layer", "16", "--k", "3", "--out", "retrieve16"],
    ["retrieve", "--weights", "guided/weights.rgtw", "--atlas", "data/train.rgtd",
     "--query-id", "5", "--layer", "0", "--k", "3", "--out", "retrieve0"],
    ["retrieve", "--weights", "guided/weights.rgtw", "--atlas", "data/train.rgtd",
     "--query-id", "5", "--layer", "18", "--k", "3", "--out", "retrieve18"],
    ["experiment1", "--data", "data/train.rgtd", "--val", "data/val.rgtd",
     "--config", "experiment1.json", "--seed", "12", "--out", "experiment1"],
    ["experiment2", "--data", "data/train.rgtd", "--val", "data/val.rgtd",
     "--config", "experiment2.json", "--seed", "12", "--out", "experiment2"],
]


SERVING = [argv for argv in COMMANDS if argv[0] in ("evaluate", "explain", "retrieve")]
# what the serving commands read of the other commands' outputs
SERVING_INPUTS = ["data/train.rgtd", "data/val.rgtd", "plain/weights.rgtw", "guided/weights.rgtw"]


def run_tree(tree: str, work: str, commands=COMMANDS) -> None:
    """Run `commands` with the relguide package under `tree`/src."""
    env = dict(os.environ, **BLAS_ENV, PYTHONPATH=os.path.join(os.path.abspath(tree), "src"))
    for name, cfg in CONFIGS.items():
        with open(os.path.join(work, name), "w") as f:
            json.dump(cfg, f)
    for argv in commands:
        proc = subprocess.run([sys.executable, "-m", "relguide", *argv], cwd=work, env=env,
                              capture_output=True, text=True)
        if proc.returncode != 0:
            print(f"{tree}: relguide {' '.join(argv)} exited {proc.returncode}: "
                  f"{proc.stderr.strip()}", file=sys.stderr)
            sys.exit(2)


def outputs(work: str) -> dict:
    """Relative path -> comparable content of every file the commands wrote."""
    found = {}
    for root, _, files in os.walk(work):
        for name in files:
            path = os.path.join(root, name)
            rel = os.path.relpath(path, work)
            if rel in CONFIGS:
                continue
            if name == "manifest.json":
                with open(path) as f:
                    manifest = json.load(f)
                manifest.pop("duration_seconds", None)
                found[rel] = manifest
            else:
                with open(path, "rb") as f:
                    found[rel] = f.read()
    return found


def read_weights(blob: bytes) -> dict:
    """Tensor name -> float32 array of a .rgtw file: magic, u32 version and
    count, then per tensor a u16-length name, u32 rank, u32 dims, f32 data."""
    count = int(np.frombuffer(blob, "<u4", 1, 8)[0])
    tensors, pos = {}, 12
    for _ in range(count):
        nlen = int(np.frombuffer(blob, "<u2", 1, pos)[0])
        name = blob[pos + 2 : pos + 2 + nlen].decode()
        pos += 2 + nlen
        rank = int(np.frombuffer(blob, "<u4", 1, pos)[0])
        dims = [int(d) for d in np.frombuffer(blob, "<u4", rank, pos + 4)]
        pos += 4 + 4 * rank
        size = int(np.prod(dims))
        tensors[name] = np.frombuffer(blob, "<f4", size, pos)
        pos += 4 * size
    return tensors


def read_columns(blob: bytes) -> dict:
    """Column name -> float64 array of a metrics CSV."""
    header, *rows = blob.decode().split()
    values = np.array([[float(v) for v in row.split(",")] for row in rows])
    return dict(zip(header.split(","), values.T))


def drift(path: str, a: bytes, b: bytes) -> list:
    """'name: |d|/max' lines for each tensor or column of a differing weight
    file or training curve, relative to its largest |entry| under SRC_A."""
    if path.endswith(".rgtw"):
        ta, tb = read_weights(a), read_weights(b)
    elif CURVES.fullmatch(os.path.basename(path)):
        ta, tb = read_columns(a), read_columns(b)
    else:
        return []
    lines = []
    for name in ta:
        if name in tb and ta[name].shape == tb[name].shape:
            delta = np.abs(ta[name].astype(np.float64) - tb[name]).max()
            peak = np.abs(ta[name]).max()
            rel = delta / peak if peak else delta
            lines.append(f"  {name}: max |d| {delta:.3g}, {rel:.3g} of max |entry|")
    return lines


def compare(a: dict, b: dict, title: str) -> int:
    """Print the files that differ between two output sets; return their count."""
    differing = sorted(p for p in set(a) | set(b) if a.get(p) != b.get(p))
    for path in differing:
        side = "" if path in a and path in b else f" (only under {'SRC_A' if path in a else 'SRC_B'})"
        print(f"differs: {path}{side}")
        for line in drift(path, a[path], b[path]) if not side else ():
            print(line)
    print(f"{title}: {len(set(a) | set(b))} files compared, {len(differing)} differ")
    return len(differing)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("src_a", help="root of the first relguide checkout")
    ap.add_argument("src_b", help="root of the second relguide checkout")
    args = ap.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        found = []
        for i, tree in enumerate((args.src_a, args.src_b)):
            work = os.path.join(tmp, str(i))
            os.makedirs(work)
            run_tree(tree, work)
            found.append(outputs(work))
        shared = os.path.join(tmp, "shared")
        for rel in SERVING_INPUTS:
            os.makedirs(os.path.dirname(os.path.join(shared, rel)), exist_ok=True)
            shutil.copyfile(os.path.join(tmp, "0", rel), os.path.join(shared, rel))
        run_tree(args.src_b, shared, SERVING)
        served = outputs(shared)
    a, b = found
    differing = compare(a, b, "all commands")
    out_dirs = {argv[argv.index("--out") + 1] for argv in SERVING}
    a_served = {p: v for p, v in a.items() if p.split(os.sep)[0] in out_dirs}
    served = {p: v for p, v in served.items() if p.split(os.sep)[0] in out_dirs}
    differing += compare(a_served, served, "serving on SRC_A's weights")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
