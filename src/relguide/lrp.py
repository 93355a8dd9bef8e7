"""Layer-wise relevance propagation and heatmap export.

Relevance is redistributed from an output neuron back through the layer
stack. Two propagation rules are provided per linear/conv layer:

* epsilon rule: each input unit j receives ``a_j * w_jk / (z_k + eps*sign(z_k))``
  of the relevance at output unit k, with a scale-adaptive stabilizer
  ``eps = eps_scale * mean|z|``.
* alpha/beta rule: positive and negative pre-activation contributions are
  redistributed separately with weights alpha and -beta (alpha - beta = 1).
  The split is by weight sign, which identifies contribution sign when the
  layer's inputs are nonnegative — true for every conv layer here (images
  in [0,1], then post-ReLU/pool activations), the setting this rule is
  meant for.

ReLU and dropout pass relevance through unchanged, max pooling routes it to
the recorded argmax (winner-take-all), flatten reshapes. Biases absorb
their share of relevance rather than redistributing it, so conservation is
exact only on bias-free networks.

Each rule is written once, as the terms :func:`_rule_terms` builds for a
layer: a term passes relevance r down as ``coef * rho(W)^T (r / denom)``
times the layer input (Montavon et al., "Layer-Wise Relevance Propagation:
An Overview", 2019). Its ratio r / denom is formed once per rule step, with
no masking pass when no denominator is zero. A conv is a dense layer over
image patches: its terms act on the trace's patch matrix, and
:func:`_backshare` folds their share back with col2im. Two walks run them:

* Down: :func:`relevance_graph` adds the propagation to a traced forward
  graph, one node per conv or dense rule step with a hand-written backward.
  That makes the input relevance — and anything derived from it, such as a
  mask-attention score inside a loss — a differentiable function of the
  model parameters. Training uses it. :func:`relevance_stack` runs the same
  walk from any trace position, once per seed, and keeps only the values;
  evaluation and explanation use it, through :func:`input_relevance`.
* Up: :func:`relevance_transpose` is the adjoint of the down walk for the
  same activations: it carries a stack of input-shaped tangents up to a
  hidden position through the transposed rules, each over only the band of
  rows it reaches, which gives the values of the full-height pass. BiLRP
  uses it to get every unit's relevance pooled to input patches.

The test suite checks the down walk's gradients against finite differences
and against a reference built from autodiff primitives, and the up walk
against the down walk by a dot-product test.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from . import engine, kernels
from .engine import Tensor
from .errors import ConfigError, NumericalError
from .network import ActivationTrace, Model, forward_with_trace

DEFAULT_EPS_SCALE = 1e-6


@dataclass
class LRPRuleConfig:
    """Which propagation rule applies to dense and conv layers.

    The default composite uses the epsilon rule on dense layers and
    alpha1/beta0 on conv layers. ``epsilon`` is a scale: the effective
    stabilizer is ``epsilon * mean|z|`` per layer.
    """

    dense_rule: str = "epsilon"
    conv_rule: str = "alphabeta"
    epsilon: float = DEFAULT_EPS_SCALE
    alpha: float = 1.0
    beta: float = 0.0

    def __post_init__(self):
        for rule in (self.dense_rule, self.conv_rule):
            if rule not in ("epsilon", "alphabeta"):
                raise ConfigError(f"unknown LRP rule {rule!r}")
        if not self.epsilon >= 0:
            raise ConfigError("epsilon must be >= 0")
        if not abs(self.alpha - self.beta - 1.0) <= 1e-9:
            raise ConfigError(f"alpha - beta must equal 1, got {self.alpha} - {self.beta}")
        if not self.alpha >= 1:
            raise ConfigError("alpha must be >= 1")

    def rule_for(self, kind: str) -> str:
        return self.dense_rule if kind == "dense" else self.conv_rule

    @classmethod
    def uniform(cls, rule: str, **kw) -> "LRPRuleConfig":
        return cls(dense_rule=rule, conv_rule=rule, **kw)


@dataclass
class RelevanceMap:
    """Per-trace-position relevance arrays (entry 0 is the input relevance,
    shaped like the input) plus the class the propagation started from."""

    relevances: list
    target_class: int

    @property
    def input_relevance(self) -> np.ndarray:
        return self.relevances[0]


# ---------------------------------------------------------------------------
# down: the top-down walk (differentiable)
# ---------------------------------------------------------------------------

def relevance_graph(
    model: Model, trace: ActivationTrace, target_class: int, rules: Optional[LRPRuleConfig] = None
) -> list:
    """Relevance tensors (graph nodes) for every trace position, seeded with
    the onehot-masked logit of `target_class`."""
    logits = trace.tensors[-1]
    k = logits.data.shape[0]
    if not 0 <= target_class < k:
        raise ValueError(f"target class {target_class} out of range for {k} outputs")
    onehot = np.zeros(k, dtype=logits.data.dtype)
    onehot[target_class] = 1
    seed = engine.mul(logits, Tensor(onehot, dtype=None))
    return _walk(model, trace, len(model.layers), seed, rules)


def _walk(model: Model, trace: ActivationTrace, start: int, r: Tensor, rules) -> list:
    """The top-down walk: relevance `r` at trace position `start` carried
    down to the input. Returns the relevance tensor of every position up to
    `start`, input first."""
    rules = rules or LRPRuleConfig()
    rel = [None] * start + [r]
    for li in reversed(range(start)):
        spec = model.layers[li]
        if spec.kind in ("conv", "dense"):
            r = _rule_step(model, trace, li, r, rules)
        elif spec.kind == "maxpool":
            in_hw = trace.tensors[li].data.shape[1:]
            r = engine.pool_route(r, trace.caches[li], in_hw, spec.window, spec.stride)
        elif spec.kind == "flatten":
            r = engine.reshape(r, trace.tensors[li].data.shape)
        # relu / dropout: relevance passes through unchanged
        if not np.isfinite(r.data).all():
            raise NumericalError(
                f"non-finite relevance at layer {li} ({spec.kind}); stabilizer too small"
            )
        rel[li] = r
    return rel


def _rule_step(model, trace, li, r: Tensor, rules) -> Tensor:
    """The rule at conv or dense layer li as one graph node, of value
    ``a * sum(coef * w^T (r / denom))``, with a hand-written vector-Jacobian
    product with respect to the upper relevance r, the layer input a, the
    linear input x (the patch-matrix node the trace saves for conv), the
    weight and the bias.

    The backward works in matrix form, one column per output position (a
    single column for dense), with the kernel flattened to one row per
    output channel; its gradient is reshaped back to the kernel's. Per term,
    with the value's s = r / denom (:func:`_safe_ratio`, formed once):
    ``g_s = w (coef g a)``, ``g_r = g_s / denom`` and
    ``g_z = -g_s s / denom`` plus the stabilizer's ``mean|z|`` coupling;
    then ``g_w = s (coef g a)^T + g_z x^T``, ``g_x = w^T g_z`` and
    ``g_b = sum(g_z)``, masked to W>0 / W<=0 for the alpha/beta parts. A
    zero denominator passes no gradient.
    """
    spec = model.layers[li]
    terms = _rule_terms(model, trace, li, rules)
    a = trace.tensors[li]
    weight, bias = model.params[f"layer{li}.weight"], model.params[f"layer{li}.bias"]
    conv = spec.kind == "conv"
    k, stride, padding = spec.kernel, spec.stride, spec.padding
    x = trace.caches[li] if conv else a
    fold = (lambda m: kernels.col2im(m, *a.data.shape, k, stride, padding)) if conv else None
    rm = r.data.reshape(bias.data.shape[0], -1)
    ratios = [_safe_ratio(rm, t.denom.reshape(rm.shape)) for t in terms]
    c = _backshare([s for _, _, s in ratios], terms, fold)
    out = Tensor(c * a.data, (r, a, x, weight, bias), dtype=None)
    xm = x.data.reshape(x.data.shape[0], -1)
    wm = weight.data.reshape(len(weight.data), -1)

    def bwd(g):
        ga = g * a.data
        gc = kernels.im2col(ga, k, stride, padding) if conv else ga.reshape(xm.shape)
        parts = []  # g_r, g_x, g_w, g_b of each term
        for t, (nonzero, safe, s) in zip(terms, ratios):
            gct = gc if t.coef == 1 else t.coef * gc
            g_s = t.w @ gct
            g_z = _masked(nonzero, -g_s * s / safe)
            if rules.epsilon > 0:  # d eps/dz_j = epsilon * sign(z_j) / N couples every element
                z = t.z.reshape(rm.shape)
                along = (float(g_z.sum()) * t.sign if t.sign
                         else float((g_z * kernels.stable_sign(z)).sum()))
                g_z = g_z + along * rules.epsilon / z.size * np.sign(z)
            g_bt = g_z.sum(axis=1)
            if t.sign == 0 and not conv and not weight.parents:  # a dense leaf keeps rank-1 pairs
                g_wt = engine.FactorPairs([s[:, 0], g_z[:, 0]], [gct[:, 0], xm[:, 0]])
            else:  # (x g_z^T)^T order: the same product, faster at the conv shapes
                g_wt = np.ascontiguousarray((gct @ s.T + xm @ g_z.T).T)
            if t.sign != 0:
                keep_w = wm > 0 if t.sign > 0 else wm <= 0
                keep_b = bias.data > 0 if t.sign > 0 else bias.data <= 0
                g_wt, g_bt = g_wt * keep_w, g_bt * keep_b
            parts.append((_masked(nonzero, g_s / safe), t.w.T @ g_z, g_wt, g_bt))
        g_r, g_x, g_w, g_b = (sum(p[1:], p[0]) for p in zip(*parts))  # from the first term on
        if conv:
            g_w = g_w.reshape(weight.data.shape)
        return g_r.reshape(r.data.shape), g * c, g_x.reshape(x.data.shape), g_w, g_b

    out.bwd = bwd
    return out


def lrp(model: Model, x, target_class: int, rules: Optional[LRPRuleConfig] = None) -> RelevanceMap:
    """Full relevance map for one input, propagated from `target_class`."""
    if not 0 <= target_class < model.n_classes:
        raise ValueError(f"target class {target_class} out of range")
    _, trace = forward_with_trace(model, x)
    rel = relevance_graph(model, trace, target_class, rules)
    return RelevanceMap([r.data.copy() for r in rel], target_class)


def _safe_ratio(r: np.ndarray, denom: np.ndarray) -> tuple:
    """``(nonzero, safe, r / safe)``: the mask of nonzero denominators, denom
    with 1 for each zero, and the ratio with 0 for each. With no zero
    denominator, nonzero is None and no masking pass runs (the same bits)."""
    if denom.all():
        return None, denom, r / denom
    nonzero = denom != 0
    safe = np.where(nonzero, denom, 1)
    return nonzero, safe, np.where(nonzero, r / safe, 0)


def _masked(nonzero, v: np.ndarray) -> np.ndarray:
    """`v` with 0 where `nonzero` (from :func:`_safe_ratio`) is False."""
    return v if nonzero is None else np.where(nonzero, v, 0)


def relevance_stack(
    model: Model,
    trace: ActivationTrace,
    start_index: int,
    seeds: np.ndarray,
    rules: Optional[LRPRuleConfig] = None,
) -> np.ndarray:
    """Propagate `seeds` (M stacked relevance maps at trace position
    `start_index`) down to the input. Returns (M, C, H, W).

    Each seed takes the walk of :func:`relevance_graph` on its own, and only
    the ndarray value of its input relevance is kept.
    """
    if not 0 <= start_index < len(trace):
        raise IndexError(f"trace index {start_index} out of range")
    start_shape = trace.tensors[start_index].data.shape
    if seeds.shape[1:] != start_shape:
        raise ConfigError(
            f"seed shape {seeds.shape[1:]} does not match trace entry {start_shape}"
        )
    maps = [_walk(model, trace, start_index, Tensor(s, dtype=None), rules)[0].data for s in seeds]
    in_shape = trace.tensors[0].data.shape
    return np.stack(maps) if maps else np.empty((0,) + in_shape, dtype=seeds.dtype)


def input_relevance(
    model: Model, trace: ActivationTrace, target_class: int, rules: Optional[LRPRuleConfig] = None
) -> np.ndarray:
    """Input relevance of a traced forward pass, seeded with the logit of
    `target_class`, as an ndarray."""
    logits = trace.tensors[-1].data
    seeds = np.zeros((1,) + logits.shape, dtype=logits.dtype)
    seeds[0, target_class] = logits[target_class]
    return relevance_stack(model, trace, len(model.layers), seeds, rules)[0]


def _backshare(ratios, terms, fold=None):
    """``sum(coef * w^T s)``, given each term's ratio ``s = r / denom`` of a
    relevance map r (:func:`_safe_ratio`): the rule at a conv or dense layer,
    before the product with the layer input. For a conv, `fold` is the
    col2im that takes the patch matrix back to (C, H, W)."""
    out = None
    for t, s in zip(terms, ratios):
        share = t.w.T @ s.reshape(t.denom.shape)
        share = share if fold is None else fold(share)
        term = share if t.coef == 1 else t.coef * share
        out = term if out is None else out + term
    return out


class _Term(NamedTuple):
    """One term of the rule at a conv or dense layer. It passes relevance r
    down as ``coef * w^T (r / denom)``, times the layer input. ``z`` is the
    term's pre-activation, and ``denom`` is z stabilized in direction
    ``sign``: sign(z) for the epsilon rule (sign 0), +1 or -1 for the
    alpha/beta parts, whose weights are those of W>0 or W<=0."""

    w: np.ndarray
    coef: np.ndarray
    denom: np.ndarray
    z: np.ndarray
    sign: int


def _rule_terms(model, trace, li, rules) -> list:
    """The :class:`_Term` list of the rule at conv or dense layer li."""
    kind = model.layers[li].kind
    w = model.params[f"layer{li}.weight"].data
    lin_in, z = trace.tensors[li].data, trace.tensors[li + 1].data
    if kind == "conv":  # weights act on the patch matrix, one column per output position
        w, lin_in, z = w.reshape(len(w), -1), trace.caches[li].data, z.reshape(len(w), -1)
    if rules.rule_for(kind) == "epsilon":
        denom = kernels.stab_denominator(z, rules.epsilon)
        return [_Term(w, np.asarray(1, dtype=w.dtype), denom, z, 0)]
    bias = model.params[f"layer{li}.bias"].data
    terms = []
    for w_part, b_part, sign, coef in _split_parts(w, bias, rules):
        z_part = w_part @ lin_in + b_part.reshape((-1,) + (1,) * (lin_in.ndim - 1))
        denom = kernels.stab_denominator(z_part, rules.epsilon, sign)
        terms.append(_Term(w_part, coef, denom, z_part, sign))
    return terms


def _split_parts(w, bias, rules):
    w_pos = np.maximum(w, 0)
    b_pos = np.maximum(bias, 0)
    parts = []
    if rules.alpha != 0.0:
        parts.append((w_pos, b_pos, 1, np.asarray(rules.alpha, dtype=w.dtype)))
    if rules.beta != 0.0:
        parts.append((w - w_pos, bias - b_pos, -1, np.asarray(-rules.beta, dtype=w.dtype)))
    return parts


# ---------------------------------------------------------------------------
# up: the transposed walk
# ---------------------------------------------------------------------------

def relevance_transpose(
    model: Model,
    trace: ActivationTrace,
    stop_index: int,
    tangents: np.ndarray,
    rules: Optional[LRPRuleConfig] = None,
) -> np.ndarray:
    """Adjoint of :func:`relevance_stack`: carry `tangents` (M stacked maps
    shaped like the input) up to trace position `stop_index` through the
    transposed rules. Returns (M,) + the shape of that trace entry, with
    ``<relevance_stack(s), t> == <s, relevance_transpose(t)>`` for every
    seed stack s.

    Seeding relevance_stack with one unit at a time costs one map per unit;
    a tangent that marks one input region gives that region's share of every
    unit's relevance at once. The pass keeps the tangents' dtype, so float64
    tangents give a float64 pass over the float32 activations. The rule
    terms of each layer are built once per call and shared by its passes.

    A (C, H, W) tangent that is nonzero only in input rows [lo, hi) reaches
    only a band of rows at each conv or pool layer. The pass works on that
    band alone and fills the rest with +0.0 where the map is flattened and
    at the end: the values of the full-height pass, whose zeros may be -0.0.
    Tangents with the same band share one pass, so one call over a stack
    gives the bits of one call per band. An all-zero tangent gives +0.0.
    """
    rules = rules or LRPRuleConfig()
    if not 0 <= stop_index < len(trace):
        raise IndexError(f"trace index {stop_index} out of range")
    in_shape = trace.tensors[0].data.shape
    if tangents.shape[1:] != in_shape:
        raise ConfigError(f"tangent shape {tangents.shape[1:]} does not match input {in_shape}")
    terms = {li: _rule_terms(model, trace, li, rules)
             for li in range(stop_index) if model.layers[li].kind in ("conv", "dense")}
    top = trace.tensors[stop_index].data
    out = np.zeros((len(tangents),) + top.shape, dtype=np.result_type(tangents, top))
    live = tangents != 0
    if live.ndim != 4:  # a tangent not shaped (C, H, W) is one row
        live = live.reshape(len(live), 1, 1, math.prod(in_shape))
    rows = live.any(axis=(1, 3))  # the input rows each tangent reaches
    reached = rows.any(axis=1)  # an all-zero tangent gets the empty band [0, 0)
    ends = reached * (rows.shape[1] - rows[:, ::-1].argmax(axis=1))
    bands = np.stack([rows.argmax(axis=1), ends], axis=1)
    for lo, hi in np.unique(bands[reached], axis=0):
        pick = (bands == (lo, hi)).all(axis=1)
        out[pick] = _transpose_band(model, trace, stop_index, tangents[pick, :, lo:hi]
                                    if tangents.ndim == 4 else tangents[pick], lo, terms)
    return out


def _transpose_band(model, trace, stop_index, t, lo, terms):
    """The transposed walk for tangents `t` that hold rows [lo, lo + rows)
    of (C, H, W) maps, zero elsewhere, or whole stacks of another rank;
    0.0 when the band reaches no row of some layer on the way."""
    hi = lo + (t.shape[2] if t.ndim == 4 else 0)
    for li in range(stop_index):
        spec = model.layers[li]
        a = trace.tensors[li].data
        if spec.kind in ("conv", "maxpool"):  # a pool is a window without padding
            conv = spec.kind == "conv"
            k, padding = (spec.kernel, spec.padding) if conv else (spec.window, 0)
            stride = spec.stride
            n_out, wo = trace.tensors[li + 1].data.shape[1:]
            olo, ohi = _reach(lo, hi, k, stride, padding, n_out)
            if olo >= ohi:
                return 0.0
            slab = _slab(t * a[None, :, lo:hi] if conv else t, lo, olo * stride - padding,
                         (ohi - 1) * stride - padding + k, padding)
            if conv:
                cols = kernels.im2col(slab.reshape((-1,) + slab.shape[2:]), k, stride, 0)
                cols = cols.reshape(len(t), -1, cols.shape[1])  # (M, Ckk, band columns)
                t = _apply_terms(cols, terms[li], slice(olo * wo, ohi * wo))
                t = t.reshape(len(t), -1, ohi - olo, wo)
            else:
                t = kernels.pool_gather(slab, trace.caches[li][:, olo:ohi], k, stride)
            lo, hi = olo, ohi
        elif spec.kind == "dense":
            t = _apply_terms((t * a[None])[..., None], terms[li])[..., 0]
        elif spec.kind == "flatten":
            t = _unband(t, lo, a.shape).reshape(len(t), -1)
        # relu / dropout pass relevance unchanged, so their transpose does too
        if not np.isfinite(t).all():
            raise NumericalError(
                f"non-finite relevance at layer {li} ({spec.kind}); stabilizer too small"
            )
    return _unband(t, lo, trace.tensors[stop_index].data.shape)


def _reach(lo, hi, k, stride, padding, n_out):
    """The output rows [lo, hi) of a k-row window at this stride and
    padding reach from input rows [lo, hi), clipped to [0, n_out)."""
    return max(0, -((k - 1 - padding - lo) // stride)), min(n_out, -(-(hi + padding) // stride))


def _slab(t, lo, r0, r1, padding):
    """Rows [r0, r1) of maps whose rows [lo, lo + rows) are `t` and whose
    other rows, and `padding` columns on either side, are +0.0."""
    m, c, rows, w = t.shape
    slab = np.zeros((m, c, r1 - r0, w + 2 * padding), dtype=t.dtype)
    a, b = max(lo, r0), min(lo + rows, r1)  # never empty: each row of the slab reaches t
    slab[:, :, a - r0 : b - r0, padding : padding + w] = t[:, :, a - lo : b - lo]
    return slab


def _unband(t, lo, shape):
    """Full (C, H, W) maps from a band, +0.0 outside it; other ranks pass."""
    return _slab(t, lo, 0, shape[1], 0) if t.ndim == 4 else t


def _apply_terms(x, terms, cols=slice(None)):
    """Sum over the rule's terms of ``coef * (w_part @ x) / denom`` for a
    stack x of layer inputs, with the zero-denominator convention of the
    backward route; `cols` picks the output columns x holds. The
    per-output scale is computed once for the stack and applied in place,
    so a term holds one stack-sized array."""
    out = None
    for t in terms:
        term = t.w @ x
        denom = t.denom.reshape(term.shape[-2], -1)[:, cols]
        term *= t.coef * _safe_ratio(np.ones((), dtype=term.dtype), denom)[2]
        out = term if out is None else out + term
    return out


# ---------------------------------------------------------------------------
# heatmap export
# ---------------------------------------------------------------------------

def render_heatmap(relevance: np.ndarray, path) -> None:
    """Write an 8-bit grayscale PGM (P5) of the positive relevance plus a CSV
    of the raw channel-summed values (one image row per line)."""
    rel = np.asarray(relevance)
    if rel.ndim == 3:
        rel2d = rel.sum(axis=0)
    elif rel.ndim == 2:
        rel2d = rel
    else:
        raise ConfigError(f"expected (C,H,W) or (H,W) relevance, got {rel.shape}")
    h, w = rel2d.shape
    pos = np.maximum(rel2d, 0)
    peak = pos.max()
    if peak > 0:
        img = np.round(255.0 * pos / peak).astype(np.uint8)
    else:
        img = np.zeros((h, w), dtype=np.uint8)
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        f.write(img.tobytes())
    csv_path = os.path.splitext(str(path))[0] + ".csv"
    row = ",".join(["%.9g"] * w) + "\n"  # "%.9g" % v is f"{float(v):.9g}", -0/inf/nan too
    with open(csv_path, "w") as f:
        f.write((row * h) % tuple(rel2d.ravel().tolist()))


def read_heatmap_csv(path) -> np.ndarray:
    rows = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line:
                rows.append([np.float32(v) for v in line.split(",")])
    return np.asarray(rows, dtype=np.float32)
