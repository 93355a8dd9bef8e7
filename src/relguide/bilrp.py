"""Second-order explanation of dot-product similarity between two inputs.

The similarity of two inputs at a hidden layer is the dot product of their
flattened activations. It decomposes over embedding units m into
``sum_m phi_m(a) * phi_m(b)``, and each term factorizes into an outer
product of the two per-unit relevance maps. Accumulating those outer
products over units (after pooling each map to a coarse grid) yields a
joint matrix whose entry (p, q) states how much patch p of the first image
and patch q of the second jointly contribute to the similarity.

For fixed activations, relevance propagation from the embedding down to the
input is a linear map L, and pooling to the grid is linear too. Unit m's
pooled map is therefore row m of ``P[m, p] = phi_m * (L^T 1_p)[m]``, where
1_p marks patch p on every channel: the transposed rules
(:func:`relguide.lrp.relevance_transpose`) with the g*g patch markers as
tangents give P for every unit, exactly, in one call. The g markers of a
grid row reach the same band of rows at each conv and pool layer, so the
call runs one pass per grid row, over that band alone. The joint matrix
is ``P_a^T P_b``; its accumulation order over units is fixed, so results
are reproducible and the transpose symmetry between (a, b) and (b, a) is
exact.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError
from .lrp import LRPRuleConfig, relevance_transpose
from .network import ActivationTrace, Model, embed, forward_with_trace


@dataclass
class JointRelevance:
    """Joint patch-pair relevance for one input pair at one layer.

    `matrix` has shape (g*g, g*g): entry (p, q) links patch p of input A to
    patch q of input B, patches in row-major grid order. Every embedding
    unit contributes: `units_used` equals `units_total` and `coverage` (the
    share of the per-unit similarity magnitude kept) is 1.0, fields kept so
    the exported format stays stable."""

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


@dataclass
class UnitRelevance:
    """Pooled per-unit relevance of one input at one trace position: row m
    of `pooled` (units, g*g), float64, is the input relevance seeded with
    unit m's activation, summed over channels and over each grid patch.
    `embedding` is the flattened activation."""

    layer_index: int
    grid: int
    rules: LRPRuleConfig
    embedding: np.ndarray
    pooled: np.ndarray


def similarity(model: Model, a: np.ndarray, b: np.ndarray, layer_index: int) -> float:
    """Dot product of the two embeddings at `layer_index`."""
    ea = embed(model, a, layer_index)
    eb = embed(model, b, layer_index)
    return float(np.dot(ea.astype(np.float64), eb.astype(np.float64)))


def unit_relevance(
    model: Model,
    trace: ActivationTrace,
    layer_index: int,
    rules: Optional[LRPRuleConfig] = None,
    grid: int = 8,
) -> UnitRelevance:
    """Pooled relevance of every unit at `layer_index` for one traced input
    (traced at least that far), from one transposed call over the g*g patch
    markers."""
    rules = rules or LRPRuleConfig()
    if len(model.input_shape) != 3:
        raise ConfigError(f"bilrp needs (C,H,W) inputs, model takes {model.input_shape}")
    c, h, w = model.input_shape
    if grid < 1 or h % grid or w % grid:
        raise ConfigError(f"grid {grid} must divide input size {h}x{w}")
    if not 0 <= layer_index < len(trace):
        raise IndexError(f"layer index {layer_index} out of range")
    g2 = grid * grid
    markers = np.eye(g2).reshape(g2, 1, grid, grid).repeat(h // grid, 2).repeat(w // grid, 3)
    # a view over channels: a materialized (g*g, C, H, W) stack would be C times the size
    tangents = np.broadcast_to(markers, (g2, c, h, w))
    t = relevance_transpose(model, trace, layer_index, tangents, rules)
    emb = trace.tensors[layer_index].data.reshape(-1)
    pooled = np.ascontiguousarray(t.reshape(g2, -1).T) * emb[:, None]
    return UnitRelevance(layer_index, grid, rules, emb, pooled)


def bilrp(
    model: Model,
    a,
    b,
    layer_index: int,
    rules: Optional[LRPRuleConfig] = None,
    grid: int = 8,
    pair: tuple = (-1, -1),
) -> JointRelevance:
    """Joint relevance matrix for inputs a and b at a trace position.

    For each embedding unit m, the relevance map seeded with the unit's
    activation is taken to each input separately, pooled to a g x g grid,
    and the outer products are summed over units. Each of `a` and `b` is an
    input array or its :class:`UnitRelevance` for this layer, grid and rules
    (retrieval computes the query's once for all its neighbours).
    """
    rules = rules or LRPRuleConfig()
    ua, ub = (_unit_relevance_of(model, x, layer_index, rules, grid) for x in (a, b))
    sim = float(np.dot(ua.embedding.astype(np.float64), ub.embedding.astype(np.float64)))
    # plain-loop einsum keeps the unit-accumulation order identical for
    # (a,b) and (b,a), making transpose symmetry exact
    joint = np.einsum("mp,mq->pq", ua.pooled, ub.pooled, optimize=False)
    n = len(ua.embedding)
    return JointRelevance(
        pair=tuple(pair),
        layer_index=layer_index,
        grid=grid,
        similarity=sim,
        matrix=joint,
        units_used=n,
        units_total=n,
        coverage=1.0,
    )


def _unit_relevance_of(model, x, layer_index, rules, grid) -> UnitRelevance:
    if isinstance(x, UnitRelevance):
        if (x.layer_index, x.grid, x.rules) != (layer_index, grid, rules):
            raise ConfigError("unit relevance was computed for another layer, grid or rule")
        return x
    _, trace = forward_with_trace(model, x, stop=layer_index)
    return unit_relevance(model, trace, layer_index, rules, grid)


def top_connections(joint: JointRelevance, k: int) -> list:
    """k largest-|weight| entries as (patch_a, patch_b, weight), descending
    by magnitude, ties in (p, q) lexicographic order."""
    if k < 1:
        raise ValueError("k must be >= 1")
    weights = joint.matrix.reshape(-1)
    # a stable sort keeps ties in row-major, that is (p, q), order
    order = np.argsort(-np.abs(weights), kind="stable")[:k]
    n = joint.matrix.shape[1]
    return [(int(i) // n, int(i) % n, float(weights[i])) for i in order]


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
