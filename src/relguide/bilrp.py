"""Second-order explanation of dot-product similarity between two inputs.

The similarity of two inputs at a hidden layer is the dot product of their
flattened activations. It decomposes over embedding units m into
``sum_m phi_m(a) * phi_m(b)``, and each term factorizes into an outer
product of the two per-unit relevance maps. Accumulating those outer
products over units (after pooling each map to a coarse grid) yields a
joint matrix whose entry (p, q) states how much patch p of the first image
and patch q of the second jointly contribute to the similarity.

Per-unit maps are propagated as one stacked pass per chunk of units
(relevance propagation is linear in the relevance), and the accumulation
order over units is fixed, so results are reproducible and the transpose
symmetry between (a, b) and (b, a) is exact.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError
from .lrp import LRPRuleConfig, relevance_stack
from .network import Model, forward_with_trace


@dataclass
class JointRelevance:
    """Joint patch-pair relevance for one input pair at one layer.

    `matrix` has shape (g*g, g*g): entry (p, q) links patch p of input A to
    patch q of input B, patches in row-major grid order. `coverage` is the
    fraction of |per-unit similarity contribution| retained when the unit
    cap truncated the embedding."""

    pair: tuple
    layer_index: int
    grid: int
    similarity: float
    matrix: np.ndarray
    units_used: int
    units_total: int
    coverage: float

    def total(self) -> float:
        return float(self.matrix.sum())


def embed(model: Model, x: np.ndarray, layer_index: int) -> np.ndarray:
    """Flattened activation at a trace position (0 = the input itself)."""
    _, trace = forward_with_trace(model, x)
    if not 0 <= layer_index < len(trace):
        raise IndexError(f"layer index {layer_index} out of range (0..{len(trace) - 1})")
    return trace.tensors[layer_index].data.reshape(-1).copy()


def similarity(model: Model, a: np.ndarray, b: np.ndarray, layer_index: int) -> float:
    """Dot product of the two embeddings at `layer_index`."""
    ea = embed(model, a, layer_index)
    eb = embed(model, b, layer_index)
    return float(np.dot(ea.astype(np.float64), eb.astype(np.float64)))


def _pool_to_grid(rel: np.ndarray, grid: int) -> np.ndarray:
    """(M, C, H, W) input relevance -> (M, g*g) patch sums (channel-summed)."""
    m, c, h, w = rel.shape
    r2d = rel.sum(axis=1)
    return (
        r2d.reshape(m, grid, h // grid, grid, w // grid)
        .sum(axis=(2, 4))
        .reshape(m, grid * grid)
    )


def _select_units(ea: np.ndarray, eb: np.ndarray, unit_cap: Optional[int]):
    """Units ranked by |phi_m(a)*phi_m(b)|, i.e. by their share of the
    similarity magnitude; returns (ascending unit indices, coverage)."""
    contrib = np.abs(ea.astype(np.float64) * eb.astype(np.float64))
    total = float(contrib.sum())
    n = len(ea)
    if unit_cap is None or n <= unit_cap:
        return np.arange(n), 1.0
    top = np.argpartition(contrib, n - unit_cap)[n - unit_cap :]
    kept = float(contrib[top].sum())
    return np.sort(top), (kept / total if total > 0 else 1.0)


def bilrp(
    model: Model,
    a: np.ndarray,
    b: np.ndarray,
    layer_index: int,
    rules: Optional[LRPRuleConfig] = None,
    grid: int = 8,
    unit_cap: Optional[int] = 512,
    allow_truncation: bool = True,
    chunk: int = 64,
    pair: tuple = (-1, -1),
) -> JointRelevance:
    """Joint relevance matrix for inputs a and b at a trace position.

    For each embedding unit m, a relevance map seeded with the unit's
    activation is propagated to each input separately, pooled to a g x g
    grid, and the outer products are summed over units.
    """
    rules = rules or LRPRuleConfig()
    if len(model.input_shape) != 3:
        raise ConfigError(f"bilrp needs (C,H,W) inputs, model takes {model.input_shape}")
    _, h, w = model.input_shape
    if grid < 1 or h % grid or w % grid:
        raise ConfigError(f"grid {grid} must divide input size {h}x{w}")
    _, trace_a = forward_with_trace(model, a)
    _, trace_b = forward_with_trace(model, b)
    if not 0 <= layer_index < len(trace_a):
        raise IndexError(f"layer index {layer_index} out of range")
    feat_shape = trace_a.tensors[layer_index].data.shape
    ea = trace_a.tensors[layer_index].data.reshape(-1)
    eb = trace_b.tensors[layer_index].data.reshape(-1)
    if unit_cap is not None and len(ea) > unit_cap and not allow_truncation:
        raise ConfigError(
            f"embedding has {len(ea)} units, above the cap {unit_cap}; "
            "raise unit_cap or allow truncation"
        )
    units, coverage = _select_units(ea, eb, unit_cap)
    sim = float(np.dot(ea.astype(np.float64), eb.astype(np.float64)))

    g2 = grid * grid
    joint = np.zeros((g2, g2), dtype=np.float64)
    for lo in range(0, len(units), chunk):
        sel = units[lo : lo + chunk]
        pooled = []
        for emb, trace in ((ea, trace_a), (eb, trace_b)):
            seeds = np.zeros((len(sel),) + feat_shape, dtype=emb.dtype)
            flat = seeds.reshape(len(sel), -1)
            flat[np.arange(len(sel)), sel] = emb[sel]
            rel = relevance_stack(model, trace, layer_index, seeds, rules)
            pooled.append(_pool_to_grid(rel, grid).astype(np.float64))
        # plain-loop einsum keeps the unit-accumulation order identical for
        # (a,b) and (b,a), making transpose symmetry exact
        joint += np.einsum("mp,mq->pq", pooled[0], pooled[1], optimize=False)
    return JointRelevance(
        pair=tuple(pair),
        layer_index=layer_index,
        grid=grid,
        similarity=sim,
        matrix=joint,
        units_used=len(units),
        units_total=len(ea),
        coverage=coverage,
    )


def top_connections(joint: JointRelevance, k: int) -> list:
    """k largest-|weight| entries as (patch_a, patch_b, weight), descending
    by magnitude, ties in (p, q) lexicographic order."""
    if k < 1:
        raise ValueError("k must be >= 1")
    mat = joint.matrix
    entries = [
        (p, q, float(mat[p, q])) for p in range(mat.shape[0]) for q in range(mat.shape[1])
    ]
    entries.sort(key=lambda e: (-abs(e[2]), e[0], e[1]))
    return entries[:k]


def export_json(joint: JointRelevance, path, top_k: int = 100) -> dict:
    """Write the connection list with its context; returns the payload."""
    g = joint.grid
    payload = {
        "layer": joint.layer_index,
        "grid": g,
        "similarity": joint.similarity,
        "connections": [
            {"a": [p // g, p % g], "b": [q // g, q % g], "w": w}
            for p, q, w in top_connections(joint, top_k)
        ],
        "units_used": joint.units_used,
        "units_total": joint.units_total,
        "coverage": joint.coverage,
        "pair": list(joint.pair),
    }
    with open(path, "w") as f:
        json.dump(payload, f, indent=1)
    return payload
