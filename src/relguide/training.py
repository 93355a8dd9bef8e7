"""Mask-guided training: cross-entropy divided by a relevance attention
score, plus Adam, evaluation metrics and the metrics CSV format.

In penalization mode every training step runs two coupled paths: the usual
forward pass producing the cross-entropy, and a relevance propagation from
the true-label neuron producing the input relevance map. The fraction of
positive relevance falling inside the lesion mask (relative to the rest of
the object) becomes a score in (0, 1], and the step loss is
``ce / score**p``. Both paths are part of one autodiff graph, so the
optimizer receives gradients through the score as well — low attention on
the lesion raises the loss and pushes relevance into the mask.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import engine
from .data import LabeledSample, augment
from .engine import Tensor
from .errors import ConfigError, NumericalError, ScoreError
from .lrp import LRPRuleConfig, input_relevance, relevance_graph
from .network import Model, forward_with_trace

_DENOM_GUARD = 1e-30  # keeps 0/0 at 0 so the floor clamp handles it

# reported score metrics always use this floor; the training floor in
# LossConfig only shapes the loss
METRICS_FLOOR = 1e-3

SCORE_VARIANTS = ("unnormalized", "area_normalized")
LOSS_MODES = ("original", "penalization")


@dataclass
class LossConfig:
    mode: str = "original"
    power: float = 1.0
    rules: LRPRuleConfig = field(default_factory=LRPRuleConfig)
    score_floor: float = 1e-3
    score_variant: str = "unnormalized"

    def __post_init__(self):
        if self.mode not in LOSS_MODES:
            raise ConfigError(f"unknown loss mode {self.mode!r}")
        if not self.power >= 0:
            raise ConfigError("power must be >= 0")
        if not self.score_floor > 0:
            raise ConfigError("score_floor must be > 0")
        if self.score_variant not in SCORE_VARIANTS:
            raise ConfigError(f"unknown score variant {self.score_variant!r}")


@dataclass
class TrainConfig:
    epochs: int = 20
    batch_size: int = 16
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    seed: int = 0
    augment: bool = True

    def __post_init__(self):
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if not self.learning_rate >= 0:
            raise ConfigError("learning_rate must be >= 0")
        for name in ("beta1", "beta2"):
            if not 0 <= getattr(self, name) < 1:
                raise ConfigError(f"{name} must be in [0, 1), got {getattr(self, name)}")
        if not self.adam_eps > 0:
            raise ConfigError(f"adam_eps must be > 0, got {self.adam_eps}")


@dataclass
class MetricsRecord:
    epoch: int
    loss: float
    accuracy: float
    f1_weighted: float
    score_class0: float
    score_class1: float


# ---------------------------------------------------------------------------
# attention score
# ---------------------------------------------------------------------------

def _check_masks(lesion_mask, object_mask, spatial):
    lesion = np.asarray(lesion_mask)
    obj = np.asarray(object_mask)
    if lesion.shape != spatial or obj.shape != spatial:
        raise ScoreError(
            f"masks {lesion.shape}/{obj.shape} do not match relevance {spatial}"
        )
    for m in (lesion, obj):
        if not ((m == 0) | (m == 1)).all():
            raise ScoreError("masks must be binary")
    if not lesion.any():
        raise ScoreError("lesion mask is empty; exclude this sample upstream")
    return lesion.astype(bool), obj.astype(bool)


def lesion_relevance_score(
    relevance: np.ndarray,
    lesion_mask: np.ndarray,
    object_mask: np.ndarray,
    variant: str = "unnormalized",
    floor: float = 1e-3,
) -> float:
    """Share of positive input relevance inside the lesion, against the
    rest of the object: r_lesion / (r_lesion + r_rest), clamped at `floor`.

    Relevance is channel-summed and then clipped at zero; relevance outside
    the object counts in neither term. The area-normalized variant divides
    each sum by its region's pixel count.
    """
    rel = np.asarray(relevance)
    if rel.ndim == 3:
        rel2d = np.maximum(rel.sum(axis=0), 0)
    elif rel.ndim == 2:
        rel2d = np.maximum(rel, 0)
    else:
        raise ScoreError(f"expected (C,H,W) or (H,W) relevance, got {rel.shape}")
    lesion, obj = _check_masks(lesion_mask, object_mask, rel2d.shape)
    rest = obj & ~lesion
    r_mask = float((rel2d * lesion).sum())
    r_rest = float((rel2d * rest).sum())
    if variant == "area_normalized":
        r_mask /= lesion.sum()
        r_rest /= max(int(rest.sum()), 1)
    elif variant != "unnormalized":
        raise ScoreError(f"unknown score variant {variant!r}")
    denom = r_mask + r_rest
    score = r_mask / denom if denom > _DENOM_GUARD else 0.0
    return max(score, floor)


def _score_graph(
    rel: Tensor, lesion_mask, object_mask, variant: str, floor: float
) -> Tensor:
    """Graph twin of :func:`lesion_relevance_score` over a (C,H,W) relevance
    tensor; differentiable except at the clamps."""
    lesion, obj = _check_masks(lesion_mask, object_mask, rel.data.shape[1:])
    rest = obj & ~lesion
    dtype = rel.data.dtype
    pos = engine.relu(engine.sum_axis(rel, 0))
    r_mask = engine.sum_all(engine.mul(pos, Tensor(lesion.astype(dtype), dtype=None)))
    r_rest = engine.sum_all(engine.mul(pos, Tensor(rest.astype(dtype), dtype=None)))
    if variant == "area_normalized":
        r_mask = engine.mul(r_mask, Tensor(1.0 / lesion.sum(), dtype=dtype))
        r_rest = engine.mul(r_rest, Tensor(1.0 / max(int(rest.sum()), 1), dtype=dtype))
    denom = engine.clamp_min(engine.add(r_mask, r_rest), _DENOM_GUARD)
    return engine.clamp_min(engine.div(r_mask, denom), floor)


def guided_loss(logits, label: int, score, power: float, floor: float = 1e-3):
    """Cross-entropy divided by score**power; the score is clamped at
    `floor` first, so the loss never divides by zero."""
    if not isinstance(logits, Tensor):
        logits = Tensor(logits)
    ce = engine.softmax_cross_entropy(logits, label)
    if not isinstance(score, Tensor):
        score = Tensor(np.asarray(score, dtype=ce.data.dtype), dtype=None)
    return engine.div(ce, engine.pow_const(engine.clamp_min(score, floor), power))


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

class Adam:
    """Adam with bias correction, state keyed by parameter name."""

    def __init__(self, model: Model, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.model = model
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = {k: np.zeros_like(v.data) for k, v in model.params.items()}
        self.v = {k: np.zeros_like(v.data) for k, v in model.params.items()}

    def step(self, grads: dict) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for name in self.model.param_names():
            g = grads[name]
            p = self.model.params[name]
            self.m[name] = b1 * self.m[name] + (1 - b1) * g
            self.v[name] = b2 * self.v[name] + (1 - b2) * (g * g)
            m_hat = self.m[name] / (1 - b1**self.t)
            v_hat = self.v[name] / (1 - b2**self.t)
            p.data = (p.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)).astype(
                p.data.dtype
            )


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

def _sample_loss_and_grads(model, sample, loss_cfg, dropout_seed, grad_scale, batch_grads):
    """Build the per-sample graph (one or two paths), add its parameter
    gradients to the :class:`engine.GradientSum` `batch_grads` and return
    (loss_value, score_value). The graph is freed on return."""
    rng = np.random.default_rng(np.random.SeedSequence([dropout_seed]))
    logits, trace = forward_with_trace(model, sample.image, rng=rng)
    score_value = 1.0
    if loss_cfg.mode == "penalization":
        rel = relevance_graph(model, trace, sample.label, loss_cfg.rules)
        score = _score_graph(
            rel[0], sample.lesion_mask, sample.object_mask,
            loss_cfg.score_variant, loss_cfg.score_floor,
        )
        score_value = float(score.data)
        loss = guided_loss(
            logits, sample.label, score, loss_cfg.power, loss_cfg.score_floor
        )
    else:
        loss = engine.softmax_cross_entropy(logits, sample.label)
    if not np.isfinite(loss.data):
        raise NumericalError(
            f"non-finite loss on sample {sample.sample_id} (score {score_value:.6g})"
        )
    batch_grads.add(engine.backward(loss, seed=grad_scale))
    return float(loss.data), score_value


def train(
    model: Model,
    train_set,
    val_set,
    loss_cfg: Optional[LossConfig] = None,
    train_cfg: Optional[TrainConfig] = None,
):
    """Train in place; returns (model, [MetricsRecord per epoch]).

    All randomness (data order, augmentation, dropout) derives from
    train_cfg.seed through separate streams, so runs that differ only in
    the loss mode consume identical data and dropout draws.
    """
    loss_cfg = loss_cfg or LossConfig()
    train_cfg = train_cfg or TrainConfig()
    train_set = list(train_set)
    if not train_set:
        raise ValueError("training set is empty")
    if loss_cfg.mode == "penalization":
        for s in train_set:
            if not s.lesion_mask.any():
                raise ScoreError(f"sample {s.sample_id} has an empty lesion mask")

    order_rng = np.random.default_rng(np.random.SeedSequence([train_cfg.seed, 0x0DDE]))
    aug_rng = np.random.default_rng(np.random.SeedSequence([train_cfg.seed, 0xA46]))
    drop_rng = np.random.default_rng(np.random.SeedSequence([train_cfg.seed, 0xD0]))

    opt = Adam(
        model, train_cfg.learning_rate, train_cfg.beta1, train_cfg.beta2, train_cfg.adam_eps
    )
    records = []
    for epoch in range(1, train_cfg.epochs + 1):
        order = order_rng.permutation(len(train_set))
        losses = []
        for start in range(0, len(order), train_cfg.batch_size):
            batch_idx = order[start : start + train_cfg.batch_size]
            scale = 1.0 / len(batch_idx)
            batch_grads = engine.GradientSum(model.params)
            for i in batch_idx:  # fixed-order reduction
                s = train_set[int(i)]
                if train_cfg.augment:
                    s = augment(s, aug_rng)
                dseed = int(drop_rng.integers(0, 2**63 - 1))
                loss_val, _ = _sample_loss_and_grads(model, s, loss_cfg, dseed, scale, batch_grads)
                losses.append(loss_val)
            opt.step(batch_grads.total())
        acc, f1w, s0, s1 = evaluate(
            model, val_set, loss_cfg.rules, loss_cfg.score_variant, METRICS_FLOOR
        )
        records.append(MetricsRecord(epoch, float(np.mean(losses)), acc, f1w, s0, s1))
    return model, records


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def weighted_f1(true_labels, pred_labels, n_classes: int = 2) -> float:
    """Sum of per-class F1 weighted by true-class frequency; a class F1 is 0
    when its precision+recall denominator is 0."""
    true_labels = np.asarray(true_labels)
    pred_labels = np.asarray(pred_labels)
    total = len(true_labels)
    out = 0.0
    for c in range(n_classes):
        tp = int(((pred_labels == c) & (true_labels == c)).sum())
        fp = int(((pred_labels == c) & (true_labels != c)).sum())
        fn = int(((pred_labels != c) & (true_labels == c)).sum())
        denom = 2 * tp + fp + fn
        f1 = (2 * tp / denom) if denom > 0 else 0.0
        out += (true_labels == c).sum() / total * f1
    return float(out)


def evaluate(
    model: Model,
    dataset,
    rules: Optional[LRPRuleConfig] = None,
    score_variant: str = "unnormalized",
    score_floor: float = 1e-3,
):
    """(accuracy, weighted F1, mean score class 0, mean score class 1).

    Scores propagate relevance from the true-label neuron in inference
    mode; samples with an empty lesion mask are skipped in the score means.
    """
    dataset = list(dataset)
    if not dataset:
        raise ValueError("evaluation set is empty")
    rules = rules or LRPRuleConfig()
    trues, preds = [], []
    per_class_scores = {0: [], 1: []}
    for s in dataset:
        logits, trace = forward_with_trace(model, s.image)
        pred = int(np.argmax(logits.data))
        trues.append(s.label)
        preds.append(pred)
        if not s.lesion_mask.any():
            continue
        rel = input_relevance(model, trace, s.label, rules)
        score = lesion_relevance_score(
            rel, s.lesion_mask, s.object_mask, score_variant, score_floor
        )
        per_class_scores.setdefault(s.label, []).append(score)
    acc = float(np.mean(np.asarray(trues) == np.asarray(preds)))
    f1w = weighted_f1(trues, preds, model.n_classes)
    s0 = float(np.mean(per_class_scores[0])) if per_class_scores[0] else 0.0
    s1 = float(np.mean(per_class_scores[1])) if per_class_scores[1] else 0.0
    return acc, f1w, s0, s1


# ---------------------------------------------------------------------------
# metrics CSV
# ---------------------------------------------------------------------------

METRICS_HEADER = "epoch,loss,accuracy,f1_weighted,score_class0,score_class1"


def write_metrics_csv(records, path) -> None:
    with open(path, "w") as f:
        f.write(METRICS_HEADER + "\n")
        for r in records:
            f.write(
                f"{r.epoch},{r.loss:.9g},{r.accuracy:.9g},{r.f1_weighted:.9g},"
                f"{r.score_class0:.9g},{r.score_class1:.9g}\n"
            )


def read_metrics_csv(path) -> list:
    records = []
    with open(path) as f:
        header = f.readline().strip()
        if header != METRICS_HEADER:
            raise ConfigError(f"unexpected metrics header {header!r}")
        for line in f:
            if not line.strip():
                continue
            e, loss, acc, f1, s0, s1 = line.strip().split(",")
            records.append(
                MetricsRecord(int(e), float(loss), float(acc), float(f1), float(s0), float(s1))
            )
    return records
