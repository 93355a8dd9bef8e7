#!/usr/bin/env python3
"""relguide's benchmark: train a model, then serve evaluation, heatmaps and
case retrieval from it, every operation a call of `relguide.cli.main`.

Run it from the root of a relguide checkout:

    python3 perfbench/run.py --workload guided --seed 1 --seconds 55 --trace 0

Workloads (README.md in this directory has the details):

* ``plain``  trains with plain cross-entropy, then runs evaluate, explain and
  retrieve on the weights it trained;
* ``guided`` does the same with the guided loss (penalization, p=1, the
  experiment runners' score_floor 0.1 and beta2 0.99).

A run sets up its datasets, then repeats whole rounds of operations (each
also times one more set-up) for as long as the next round should end within
``--seconds``, then checks every output. The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end figures with ``--trace 0``, per-module figures
with ``--trace 1``.
"""

import os

BLAS_THREADS = 1  # fixed before numpy loads; one process, one BLAS thread
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from typing import Optional  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import refnet  # noqa: E402
import tracing  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")

WORKLOADS = {
    "plain": {"loss": "original"},
    "guided": {"loss": "penalization", "power": 1.0, "score_floor": 0.1, "beta2": 0.99},
}
BATCH_SIZE = 16  # relguide's default
# one Adam step from zero moments moves each weight by lr*g/(|g|+eps):
# a large lr makes that move large against float32 rounding of the weights
GRAD_LR, GRAD_EPS = 1000.0, 1.0


@dataclass(frozen=True)
class Sizes:
    atlas_per_class: int = 400  # the default training set, searched by retrieve
    val_per_class: int = 100  # the default validation set, for evaluate and explain
    train_per_class: int = 32  # the training set of each train operation
    train_val_per_class: int = 16  # its per-epoch validation set
    epochs: int = 2
    explains: int = 8  # explain requests per round, two after each other operation
    k: int = 5
    layer: int = 7  # trace position of the retrieval embedding
    unit_cap: Optional[int] = None  # BiLRP unit cap; None keeps the CLI default


SIZES = {
    "full": Sizes(),
    # for the benchmark's own test: every operation and check, in seconds
    "tiny": Sizes(atlas_per_class=6, val_per_class=3, train_per_class=3, train_val_per_class=2,
                  epochs=1, explains=4, k=3, unit_cap=32),
}


class Bench:
    """One workload at one seed inside a scratch directory."""

    def __init__(self, workload: str, seed: int, sizes: Sizes, work: str, tracer=None):
        from relguide.cli import main

        self.main = main
        self.loss_cfg = WORKLOADS[workload]
        self.sizes = sizes
        self.work = work
        self.tracer = tracer
        self.rng = np.random.default_rng(seed)
        self.gen_seed = int(self.rng.integers(2**31))
        self.train_seed = int(self.rng.integers(2**31))  # every train operation of the run
        self.attempted = self.failed = 0
        self.times = {"train": [], "evaluate": [], "explain": [], "retrieve": []}
        self.setup_times = []
        self.data = None
        self.grad_row = 0  # the gradient-check sample, a row of the training set
        self.grad_ok = self.bias_free_ok = False  # the check operations succeeded

    def path(self, *parts) -> str:
        return os.path.join(self.work, *parts)

    def write_config(self, path: str, cfg: dict) -> str:
        with open(path, "w") as f:
            json.dump(cfg, f)
        return path

    def cli(self, argv, timed: Optional[str] = None) -> bool:
        """One operation; `timed` names the metric its wall time feeds."""
        argv = [str(a) for a in argv]
        self.attempted += 1
        release_free_memory()
        recording = self.tracer is not None and timed is not None
        if recording:
            self.tracer.recording = True
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                rc = self.main(argv)
        except Exception:
            traceback.print_exc()
            rc = None
        finally:
            elapsed = time.perf_counter() - start
            print(f"{argv[0]:>9} {elapsed:8.3f} s", file=sys.stderr)
            if recording:
                self.tracer.recording = False
        if rc != 0:
            self.failed += 1
            print(f"failed ({rc}): relguide {' '.join(argv)}", file=sys.stderr)
            return False
        if timed:
            self.times[timed].append(elapsed)
        return True

    # -- set-up -------------------------------------------------------------

    def setup(self, keep: bool) -> None:
        """Generate the default task (the atlas and the validation set) and
        the smaller training sets, timed into `setup_times`. The operations
        read the files of the set-up made with `keep`; the others are timed
        only, at other moments of the run, and deleted."""
        out = self.path(f"setup{len(self.setup_times)}")
        os.makedirs(out)
        s = self.sizes
        jobs = (
            ("full", {"samples_per_class": s.atlas_per_class, "val_per_class": s.val_per_class}),
            ("small", {"samples_per_class": s.train_per_class, "val_per_class": s.train_val_per_class}),
        )
        configs = [self.write_config(os.path.join(out, f"{name}.json"), cfg) for name, cfg in jobs]
        start = time.perf_counter()
        for (name, _), cfg in zip(jobs, configs):
            argv = ["generate", "--config", cfg, "--seed", str(self.gen_seed), "--out", os.path.join(out, name)]
            with contextlib.redirect_stdout(io.StringIO()):
                rc = self.main(argv)
            if rc != 0:
                raise RuntimeError(f"set-up failed ({rc}): relguide {' '.join(argv)}")
        self.setup_times.append(time.perf_counter() - start)
        if keep:
            self.data = out
        else:
            shutil.rmtree(out)

    def dataset(self, name: str) -> str:
        return os.path.join(self.data, *name.split("/")) + ".rgtd"

    def prepare(self) -> None:
        """The set-up every operation reads, then the untimed operations of
        the gradient check, which also warm up the training path: one Adam
        step on one sample, no augmentation or dropout, whose weight change
        gives the gradient (checks.adam_first_step_gradient); a first call
        with learning rate 0 writes the initial weights."""
        self.setup(keep=True)
        self.train_cfg = self.write_config(self.path("train.json"), {"epochs": self.sizes.epochs, **self.loss_cfg})
        self.val_ids = refnet.read_ids(self.dataset("full/val"))
        self.atlas_ids = refnet.read_ids(self.dataset("full/train"))
        os.makedirs(self.path("checks"))
        train = refnet.read_dataset(self.dataset("small/train"))
        cfg = {"epochs": 1, "batch_size": 1, "augment": False, "dropout_rate": 0.0, "adam_eps": GRAD_EPS,
               **self.loss_cfg}
        for tag, lr in (("grad_init", 0.0), ("grad_step", GRAD_LR)):
            if tag == "grad_step":
                self.grad_row = self.gradient_sample(train, self.path("checks", "grad_init", "weights.rgtw"))
            refnet.write_dataset(train, [self.grad_row], self.path("checks", f"{tag}.rgtd"))
            config = self.write_config(self.path("checks", f"{tag}.json"), dict(cfg, learning_rate=lr))
            self.grad_ok = self.cli(["train", "--config", config, "--seed", self.train_seed, "--data",
                                     self.path("checks", f"{tag}.rgtd"), "--out", self.path("checks", tag)])
            if not self.grad_ok:
                break

    def gradient_sample(self, train, init_weights: str) -> int:
        """The sample, of a few, whose initial attention score sits highest
        above the floor, so the score's own gradient is part of the check."""
        rows = self.rng.permutation(len(train))[:8]
        if not self.loss_cfg.get("power"):
            return int(rows[0])
        params = refnet.as_float64(refnet.read_weights(init_weights))
        acts, pool_idx = refnet.forward(params, train.images[rows])
        maps = refnet.input_relevance(params, acts, pool_idx, train.labels[rows]).sum(axis=1)
        scores = [refnet.attention_score(m, train.lesion_masks[r], train.object_masks[r], 0.0)
                  for m, r in zip(maps, rows)]
        return int(rows[int(np.argmax(scores))])

    # -- one round ------------------------------------------------------------

    def round(self, r: int) -> dict:
        """One of each timed operation, with explain requests between them:
        train, evaluate and retrieve on the weights this round trained (every
        round trains alike), then one timed set-up. Short rounds repeated
        through the run make each figure sample the whole run, not one
        stretch of a machine whose speed drifts."""
        s = self.sizes
        rd = self.path(f"round{r}")
        os.makedirs(rd)
        out = {"dir": rd, "ok": {}, "explains": [], "query_id": int(self.rng.choice(self.atlas_ids))}
        ok = out["ok"]
        weights = os.path.join(rd, "train", "weights.rgtw")
        explains = iter(self.rng.choice(self.val_ids, s.explains, replace=False))
        per_slot = s.explains // 4
        ok["train"] = self.cli(["train", "--config", self.train_cfg, "--seed", self.train_seed,
                                "--data", self.dataset("small/train"), "--val", self.dataset("small/val"),
                                "--out", os.path.join(rd, "train")], "train")
        self.explain(rd, weights, explains, per_slot, out)
        ok["evaluate"] = self.cli(["evaluate", "--weights", weights, "--data", self.dataset("full/val"),
                                   "--out", os.path.join(rd, "evaluate")], "evaluate")
        self.explain(rd, weights, explains, per_slot, out)
        argv = ["retrieve", "--weights", weights, "--atlas", self.dataset("full/train"), "--query-id",
                out["query_id"], "--layer", s.layer, "--k", s.k, "--out", os.path.join(rd, "retrieve")]
        if s.unit_cap is not None:
            cap = self.write_config(os.path.join(rd, "retrieve.json"), {"unit_cap": s.unit_cap})
            argv += ["--config", cap]
        ok["retrieve"] = self.cli(argv, "retrieve")
        self.explain(rd, weights, explains, per_slot, out)
        self.setup(keep=False)
        self.explain(rd, weights, explains, per_slot, out)
        return out

    def explain(self, rd: str, weights: str, sample_ids, n: int, out: dict) -> None:
        for sid in itertools.islice(sample_ids, n):
            name = f"explain{len(out['explains'])}"
            out["explains"].append((name, int(sid)))
            out["ok"][name] = self.cli(["explain", "--weights", weights, "--data", self.dataset("full/val"),
                                        "--sample-id", sid, "--out", os.path.join(rd, name)], "explain")

    def finish(self, rounds: list) -> None:
        """The untimed explain request of the conservation check, on a
        bias-free copy of the first round's weights."""
        first = rounds[0]
        if first["ok"]["train"]:
            weights = refnet.read_weights(os.path.join(first["dir"], "train", "weights.rgtw"))
            bias_free = {k: (v if k.endswith(".weight") else np.zeros_like(v)) for k, v in weights.items()}
            refnet.write_weights(bias_free, self.path("checks", "bias_free.rgtw"))
            self.bias_free_ok = self.cli(["explain", "--weights", self.path("checks", "bias_free.rgtw"),
                                          "--data", self.dataset("full/val"), "--sample-id",
                                          first["explains"][0][1], "--out", self.path("checks", "explain_bias_free")])

    # -- checks -----------------------------------------------------------------

    def check(self, rounds) -> list:
        """Every output of the rounds and of the check operations. Every
        round trains with one seed, so the references come from the first
        round's weights, once; the training check shows the weights equal."""
        s = self.sizes
        val = refnet.read_dataset(self.dataset("full/val"))
        atlas = refnet.read_dataset(self.dataset("full/train"))
        train = refnet.read_dataset(self.dataset("small/train"))
        power = self.loss_cfg.get("power", 0.0)
        floor = self.loss_cfg.get("score_floor", 1e-3)
        trained = [os.path.join(out["dir"], "train") for out in rounds if out["ok"]["train"]]
        if not trained:
            return []
        errors = checks.check_training(trained, s.epochs)
        params = refnet.as_float64(refnet.read_weights(os.path.join(trained[0], "weights.rgtw")))
        evaluated = [os.path.join(out["dir"], "evaluate") for out in rounds if out["ok"]["evaluate"]]
        if evaluated:
            errors += checks.check_evaluate(evaluated, params, val)
        for out in rounds:
            for name, sid in out["explains"]:
                if out["ok"][name]:
                    errors += checks.check_explain(os.path.join(out["dir"], name), params, val, sid)
        if self.bias_free_ok:
            bias_free = refnet.as_float64(refnet.read_weights(self.path("checks", "bias_free.rgtw")))
            errors += checks.check_conservation(self.path("checks", "explain_bias_free"), bias_free, val,
                                                rounds[0]["explains"][0][1])
        retrieved = [out for out in rounds if out["ok"]["retrieve"]]
        if retrieved:
            emb = checks.atlas_embeddings(params, atlas, s.layer)
            for out in retrieved:
                errors += checks.check_retrieve(os.path.join(out["dir"], "retrieve"), params, atlas, emb,
                                                out["query_id"], s.k, s.layer)
        if self.grad_ok:
            before = refnet.read_weights(self.path("checks", "grad_init", "weights.rgtw"))
            after = refnet.read_weights(self.path("checks", "grad_step", "weights.rgtw"))
            grads = checks.adam_first_step_gradient(before, after, GRAD_LR, GRAD_EPS)
            i = self.grad_row
            sample = (train.images[i].astype(np.float64), train.lesion_masks[i], train.object_masks[i],
                      int(train.labels[i]))
            errors += checks.check_gradient(grads, refnet.as_float64(before), sample, power, floor, self.rng)
        return errors

    # -- the run ------------------------------------------------------------------

    def run(self, seconds: float) -> dict:
        self.prepare()
        rounds = []
        start = time.perf_counter()
        # whole rounds, each started only if it should end within `seconds`
        while not rounds or (time.perf_counter() - start) * (len(rounds) + 1) / len(rounds) <= seconds:
            rounds.append(self.round(len(rounds)))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        measured = time.perf_counter() - start
        self.finish(rounds)
        checked = time.perf_counter()
        errors = self.check(rounds)
        print(f"{len(rounds)} round(s) in {measured:.1f} s, checks in {time.perf_counter() - checked:.1f} s",
              file=sys.stderr)
        for e in errors:
            print(f"check failed: {e}", file=sys.stderr)
        if self.tracer is None:
            metrics = self.end_to_end(peak_rss_mb)
        else:
            metrics = self.per_layer(len(rounds))
        return {"correct": not errors, "attempted": self.attempted, "failed": self.failed, "metrics": metrics}

    def _fastest(self) -> dict:
        """Each timed operation's figure from its fastest call in the run.
        On a shared machine whose speed drifts by up to half within a
        minute, the median call followed the drift and the fastest call
        far less (README.md, Steadiness)."""
        s = self.sizes
        best = {k: min(v, default=None) for k, v in self.times.items()}  # None: no call succeeded

        def per_second(key, amount):
            return None if best[key] is None else amount / best[key]

        return {
            "train_samples_per_s": per_second("train", s.epochs * 2 * s.train_per_class),
            "evaluate_samples_per_s": per_second("evaluate", 2 * s.val_per_class),
            "explain_ms": None if best["explain"] is None else 1e3 * best["explain"],
            "retrieve_s": best["retrieve"],
        }

    def end_to_end(self, peak_rss_mb) -> dict:
        values = dict(self._fastest(), setup_s=statistics.median(self.setup_times), peak_rss_mb=peak_rss_mb)
        return {name: {"value": values[name], "unit": unit} for name, unit, _ in END_TO_END}

    def per_layer(self, rounds: int) -> dict:
        s = self.sizes
        trains = len(self.times["train"])
        norm = {
            "round": rounds,
            "training sample": trains * s.epochs * 2 * s.train_per_class,
            "mini-batch": trains * s.epochs * math.ceil(2 * s.train_per_class / BATCH_SIZE),
        }
        values = {row[0]: self.tracer.value(row, norm) for row in tracing.PER_LAYER}
        values.update({f"trace.{k}": v for k, v in self._fastest().items()})
        values["trace.wrapped_calls"] = sum(st.calls for st in self.tracer.stats.values()) / rounds
        values["trace.missing_functions"] = len(self.tracer.missing)
        return {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}


# name, unit, better; BENCHMARK.json holds the same rows with their bounds
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("train_samples_per_s", "samples/s", "higher"),
    ("evaluate_samples_per_s", "samples/s", "higher"),
    ("explain_ms", "ms", "lower"),
    ("retrieve_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)


# figures of the traced run itself, after tracing.PER_LAYER: its end-to-end
# figures (their difference from the untraced run is the tracing overhead),
# its wrapped calls per round, and the traced functions the program lacks
TRACE_ROWS = (
    ("trace.train_samples_per_s", "samples/s", "higher"),
    ("trace.evaluate_samples_per_s", "samples/s", "higher"),
    ("trace.explain_ms", "ms", "lower"),
    ("trace.retrieve_s", "s", "lower"),
    ("trace.wrapped_calls", "count", "lower"),
    ("trace.missing_functions", "count", "lower"),
)
PER_LAYER = tuple(row[:3] for row in tracing.PER_LAYER) + TRACE_ROWS


def _libc_malloc_trim():
    try:
        return ctypes.CDLL(None).malloc_trim
    except (OSError, AttributeError):
        return None


_MALLOC_TRIM = _libc_malloc_trim()


def release_free_memory() -> None:
    """Start each operation from the heap a fresh `relguide` process would
    have: collect garbage cycles and hand freed heap pages back to the
    system, so peak_rss_mb does not depend on how earlier operations left
    the allocator."""
    gc.collect()
    if _MALLOC_TRIM is not None:
        _MALLOC_TRIM(0)


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__, "blas": blas,
            "blas_threads": BLAS_THREADS, "cpus": os.cpu_count()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="measure whole rounds for at least this long")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=sorted(SIZES), default="full")
    args = p.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "relguide")):
        print(f"perfbench: no relguide sources under {SRC}; run from the root of a relguide checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import relguide.cli  # noqa: F401  (every module loaded before the tracer looks for names)

    print(json.dumps({"environment": environment(), "workload": args.workload, "seed": args.seed}),
          file=sys.stderr)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    os.makedirs(WORK_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT)
    try:
        bench = Bench(args.workload, args.seed, SIZES[args.size], work, tracer)
        result = bench.run(args.seconds)
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK_ROOT)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
