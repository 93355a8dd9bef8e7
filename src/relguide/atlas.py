"""Similar-case retrieval over hidden activations.

An atlas index stores the flattened inference-mode activation of every
reference sample at one trace position, each from a graph-free pass that
stops there (:func:`relguide.network.embed`). Queries run exhaustive exact
nearest-neighbor search (atlas sizes here are small) one block of index
rows at a time, so a query's temporaries stay a few MB at any index size.
The label homogeneity among the returned neighbors serves as a credibility
value for a prediction. Retrieved pairs can be explained with the joint
relevance decomposition from :mod:`relguide.bilrp`.
"""

from __future__ import annotations

import functools
import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import FormatError, read_exact
from .network import Model, embed

ATLAS_MAGIC = b"RGTA"
ATLAS_VERSION = 1
METRICS = ("euclidean", "cosine")


@dataclass
class AtlasIndex:
    layer_index: int
    vectors: np.ndarray  # (N, dim) float32
    ids: np.ndarray  # (N,) uint32
    labels: np.ndarray  # (N,) uint8
    metric: str = "euclidean"

    def __post_init__(self):
        if self.metric not in METRICS:
            raise ValueError(f"unknown metric {self.metric!r}")
        n = self.vectors.shape[0]
        if len(self.ids) != n or len(self.labels) != n:
            raise ValueError("vector/id/label counts differ")

    def __len__(self):
        return self.vectors.shape[0]


def build_index(model: Model, samples, layer_index: int, metric="euclidean") -> AtlasIndex:
    """The index of `samples` at one trace position; vectors are
    inference-mode activations (dropout off) of graph-free passes that stop
    there, cast to float32. A position outside the trace is an IndexError."""
    samples = list(samples)
    if not samples:
        raise ValueError("cannot build an index from an empty sample set")
    n = len(samples)
    vectors = None  # (N, dim) float32, filled as the passes run
    ids = np.empty(n, dtype=np.uint32)
    labels = np.empty(n, dtype=np.uint8)
    for i, s in enumerate(samples):
        a = embed(model, s.image, layer_index)
        if vectors is None:
            vectors = np.empty((n, a.size), dtype=np.float32)
        vectors[i] = a
        ids[i] = s.sample_id
        labels[i] = s.label
    return AtlasIndex(layer_index, vectors, ids, labels, metric)


# float64 bytes of one block of index rows in _distances: a query's
# temporaries stay near this size, whatever the size of the index
_BLOCK_BYTES = 1 << 20


def _distances(index: AtlasIndex, q: np.ndarray) -> np.ndarray:
    """Exact float64 distances of every index row to `q`, computed one block
    of rows at a time; each row's arithmetic is that of the whole array."""
    n, dim = index.vectors.shape
    q = q.astype(np.float64)
    rows = max(1, _BLOCK_BYTES // (8 * dim))
    d = np.empty(n)
    if index.metric == "cosine":
        qn = np.sqrt((q**2).sum())
        uq = q / qn if qn > 0 else q
    for start in range(0, n, rows):
        block = slice(start, start + rows)
        v = index.vectors[block].astype(np.float64)
        if index.metric == "euclidean":
            d[block] = np.sqrt(((v - q[None, :]) ** 2).sum(axis=1))
            continue
        # cosine distance as 0.5*|u_v - u_q|^2 == 1 - cos: exactly 0 for
        # identical vectors, symmetric, never negative
        vn = np.sqrt((v**2).sum(axis=1))
        if qn == 0:
            # a zero vector has no direction: identical to another zero, else 1
            d[block] = np.where(vn == 0, 0.0, 1.0)
        else:
            uv = v / np.where(vn > 0, vn, 1)[:, None]
            d[block] = np.where(vn > 0, 0.5 * ((uv - uq[None, :]) ** 2).sum(axis=1), 1.0)
    return d


def query_knn_vector(index: AtlasIndex, q: np.ndarray, k: int) -> list:
    """Exact k nearest neighbors of a raw embedding vector, as
    (sample_id, distance, label) ascending by distance, ties broken by
    smaller sample id."""
    n = len(index)
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    q = np.asarray(q).reshape(-1)
    if q.shape[0] != index.vectors.shape[1]:
        raise ValueError(
            f"query embedding length {q.shape[0]} does not match index {index.vectors.shape[1]}"
        )
    d = _distances(index, q)
    order = np.lexsort((index.ids, d))[:k]
    return [(int(index.ids[i]), float(d[i]), int(index.labels[i])) for i in order]


def query_knn(index: AtlasIndex, x: np.ndarray, model: Model, k: int) -> list:
    """k nearest atlas samples to an input, embedded at the index's layer."""
    return query_knn_vector(index, embed(model, x, index.layer_index), k)


def credibility(neighbors, predicted_label: int) -> float:
    """Fraction of neighbors whose label matches the prediction."""
    if not neighbors:
        raise ValueError("credibility needs at least one neighbor")
    agree = sum(1 for _, _, label in neighbors if label == predicted_label)
    return agree / len(neighbors)


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def save_index(index: AtlasIndex, path) -> None:
    n, dim = index.vectors.shape
    with open(path, "wb") as f:
        f.write(ATLAS_MAGIC)
        f.write(
            struct.pack(
                "<IIBII",
                ATLAS_VERSION,
                index.layer_index,
                METRICS.index(index.metric),
                n,
                dim,
            )
        )
        f.write(np.ascontiguousarray(index.ids, dtype="<u4").tobytes())
        f.write(np.ascontiguousarray(index.labels, dtype="u1").tobytes())
        f.write(np.ascontiguousarray(index.vectors, dtype="<f4").tobytes())


_read_exact = functools.partial(read_exact, kind="atlas")


def load_index(path) -> AtlasIndex:
    with open(path, "rb") as f:
        if _read_exact(f, 4, "magic") != ATLAS_MAGIC:
            raise FormatError("bad magic: not an atlas index file")
        version, layer, metric_code, n, dim = struct.unpack(
            "<IIBII", _read_exact(f, 17, "header")
        )
        if version != ATLAS_VERSION:
            raise FormatError(f"unsupported atlas file version {version}")
        if metric_code >= len(METRICS):
            raise FormatError(f"unknown metric code {metric_code}")
        need = n * (4 + 1 + 4 * dim)
        left = os.fstat(f.fileno()).st_size - f.tell()
        if need > left:
            raise FormatError(f"truncated atlas file: header declares {need} bytes, {left} left")
        ids = np.frombuffer(_read_exact(f, 4 * n, "ids"), dtype="<u4").copy()
        labels = np.frombuffer(_read_exact(f, n, "labels"), dtype="u1").copy()
        vectors = (
            np.frombuffer(_read_exact(f, 4 * n * dim, "vectors"), dtype="<f4")
            .reshape(n, dim)
            .copy()
        )
        if f.read(1):
            raise FormatError("trailing bytes after atlas payload")
    return AtlasIndex(int(layer), vectors, ids, labels, METRICS[metric_code])
