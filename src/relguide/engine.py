"""Dense tensors with reverse-mode automatic differentiation.

The graph is built eagerly: every op returns a new :class:`Tensor` that
remembers its parent tensors and a closure mapping its output gradient to
parent gradients. :func:`backward` walks the graph once in reverse
topological order and returns gradients in a dict keyed by tensor, so
independent graphs over shared parameter tensors never mutate shared state.
Gradients are summed by value: a sum is a new array, so a backward may
hand one array to several parents, or return an array it keeps.

Values are float32 by default. Ops preserve the dtype of their inputs, so a
float64 replica of a model can be pushed through the same code when an
oracle needs extra precision.

Relevance propagation runs in the same graph (see ``relguide.lrp``: one
node per conv or dense rule step, with a hand-written backward), which is
what makes a relevance-dependent loss term trainable: one ``backward`` call
differentiates through the whole two-path graph.

The gradient of a parameter matrix that meets a vector in a product (a
dense layer's ``W @ x``, or the relevance path's ``W.T @ s``) is a rank-1
outer product. ``backward`` keeps such gradients as :class:`FactorPairs`
rather than forming them, and :class:`GradientSum` sums a mini-batch's
pairs with one GEMM per weight; :func:`grad_for` returns them dense.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from . import kernels
from .errors import DimensionError


class Tensor:
    """A node in the computation graph.

    Leaf tensors (parameters, inputs, constants) have no parents. Non-leaf
    tensors carry a ``bwd`` closure returning one gradient array per parent
    (or None for a blocked path).
    """

    __slots__ = ("data", "parents", "bwd", "name")

    def __init__(self, data, parents=(), bwd=None, name=None, dtype=np.float32):
        arr = np.asarray(data) if dtype is None else np.asarray(data, dtype=dtype)
        if arr.ndim and not arr.flags.c_contiguous:
            arr = np.ascontiguousarray(arr)
        self.data = arr
        self.parents: tuple = tuple(parents)
        self.bwd: Optional[Callable] = bwd
        self.name = name

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, name={self.name})"


def const(x, dtype=np.float32) -> Tensor:
    """A leaf tensor that never receives a gradient entry of interest."""
    return Tensor(x, dtype=dtype)


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce a broadcast gradient back to `shape`."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# elementwise arithmetic
# ---------------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data + b.data, (a, b), dtype=None)
    out.bwd = lambda g: (_unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape))
    return out


def sub(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data - b.data, (a, b), dtype=None)
    out.bwd = lambda g: (_unbroadcast(g, a.data.shape), _unbroadcast(-g, b.data.shape))
    return out


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data * b.data, (a, b), dtype=None)
    out.bwd = lambda g: (
        _unbroadcast(g * b.data, a.data.shape),
        _unbroadcast(g * a.data, b.data.shape),
    )
    return out


def div(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data / b.data, (a, b), dtype=None)
    out.bwd = lambda g: (
        _unbroadcast(g / b.data, a.data.shape),
        _unbroadcast(-g * out.data / b.data, b.data.shape),
    )
    return out


def pow_const(a: Tensor, p: float) -> Tensor:
    out = Tensor(a.data**p, (a,), dtype=None)
    out.bwd = lambda g: (g * p * a.data ** (p - 1.0),)
    return out


def relu(a: Tensor) -> Tensor:
    # the bits of np.where(x > 0, x, 0): fmax maps NaN to 0, + 0 turns -0.0 into +0.0
    out = Tensor(np.fmax(a.data, 0) + 0, (a,), dtype=None)
    out.bwd = lambda g: (g * (a.data > 0),)
    return out


def clamp_min(a: Tensor, lo: float) -> Tensor:
    out = Tensor(np.maximum(a.data, lo), (a,), dtype=None)
    passthru = a.data > lo
    out.bwd = lambda g: (g * passthru,)
    return out


# ---------------------------------------------------------------------------
# shape & reduction
# ---------------------------------------------------------------------------

def reshape(a: Tensor, shape) -> Tensor:
    return Tensor(a.data.reshape(shape), (a,), lambda g: (g.reshape(a.data.shape),), dtype=None)


def flatten(a: Tensor) -> Tensor:
    return reshape(a, (a.data.size,))


def sum_all(a: Tensor) -> Tensor:
    out = Tensor(a.data.sum(), (a,), dtype=None)
    out.bwd = lambda g: (np.full(a.data.shape, g, dtype=a.data.dtype),)
    return out


def sum_axis(a: Tensor, axis: int) -> Tensor:
    out = Tensor(a.data.sum(axis=axis), (a,), dtype=None)

    def bwd(g):
        return (np.broadcast_to(np.expand_dims(g, axis), a.data.shape),)

    out.bwd = bwd
    return out


# ---------------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------------

class FactorPairs:
    """A matrix gradient kept as rank-1 factor pairs: the sum over k of
    ``np.outer(us[k], vs[k])``. Only leaves (parameters) receive these;
    every other node's gradient is an ndarray."""

    __slots__ = ("us", "vs")

    def __init__(self, us: list, vs: list):
        self.us = us
        self.vs = vs

    def materialize(self) -> np.ndarray:
        """U @ V with U = (out, K) and V = (K, in): one GEMM for all pairs."""
        return np.array(self.us).T @ np.array(self.vs)


def _outer(u: np.ndarray, v: np.ndarray, leaf: bool):
    return FactorPairs([u], [v]) if leaf else np.outer(u, v)


def _check_matmul(name: str, ad: np.ndarray, bd: np.ndarray, inner: int) -> None:
    if ad.ndim != 2 or bd.ndim not in (1, 2):
        raise DimensionError(f"{name} supports 2-D and 1/2-D operands, got {ad.shape}, {bd.shape}")
    if ad.shape[inner] != bd.shape[0]:
        raise DimensionError(f"{name} inner dims differ: {ad.shape}, {bd.shape}")


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """2-D @ 2-D or 2-D @ 1-D matrix product."""
    ad, bd = a.data, b.data
    _check_matmul("matmul", ad, bd, 1)
    out = Tensor(ad @ bd, (a, b), dtype=None)
    if bd.ndim == 1:
        leaf = not a.parents
        out.bwd = lambda g: (_outer(g, bd, leaf), ad.T @ g)
    else:
        out.bwd = lambda g: (g @ bd.T, ad.T @ g)
    return out


def dense(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """y = W @ x + b for a 1-D input."""
    if x.data.ndim != 1 or weight.data.ndim != 2:
        raise DimensionError(f"dense expects vector input, got {x.data.shape}")
    if weight.data.shape[1] != x.data.shape[0]:
        raise DimensionError(
            f"dense weight {weight.data.shape} does not match input {x.data.shape}"
        )
    if bias.data.shape != (weight.data.shape[0],):
        raise DimensionError(f"dense bias {bias.data.shape} does not match {weight.data.shape}")
    return add(matmul(weight, x), bias)


# ---------------------------------------------------------------------------
# convolution / pooling
# ---------------------------------------------------------------------------

def im2col_op(x: Tensor, k: int, stride: int, padding: int) -> Tensor:
    c, h, w = x.data.shape
    out = Tensor(kernels.im2col(x.data, k, stride, padding), (x,), dtype=None)
    out.bwd = lambda g: (kernels.col2im(g, c, h, w, k, stride, padding),)
    return out


def conv2d(x: Tensor, kernel: Tensor, bias: Tensor, stride: int = 1, padding: int = 0):
    """Cross-correlation conv; returns (out, cols), the patch-matrix node
    that relevance propagation reads, as maxpool2d returns its argmax."""
    if x.data.ndim != 3 or kernel.data.ndim != 4:
        raise DimensionError(
            f"conv2d expects (C,H,W) input and (Co,Ci,k,k) kernel, got {x.data.shape}, {kernel.data.shape}"
        )
    c_out, c_in, kh, kw = kernel.data.shape
    if kh != kw:
        raise DimensionError("conv2d kernels must be square")
    c, h, w = x.data.shape
    if c != c_in:
        raise DimensionError(f"kernel expects {c_in} input channels, input has {c}")
    if stride < 1:
        raise DimensionError("stride must be >= 1")
    if kh > h + 2 * padding or kw > w + 2 * padding:
        raise DimensionError("kernel larger than padded input")
    if bias.data.shape != (c_out,):
        raise DimensionError(f"conv bias {bias.data.shape} does not match {c_out} channels")
    ho = kernels.conv_out_size(h, kh, stride, padding)
    wo = kernels.conv_out_size(w, kw, stride, padding)
    cols = im2col_op(x, kh, stride, padding)
    zmat = add(matmul(reshape(kernel, (c_out, c_in * kh * kw)), cols), reshape(bias, (c_out, 1)))
    return reshape(zmat, (c_out, ho, wo)), cols


def maxpool2d(x: Tensor, window: int, stride: int):
    """Max pooling; returns (out, idx), the argmax index of each window that
    routes both the gradient and the winner-take-all relevance."""
    c, h, w = x.data.shape
    if window > h or window > w:
        raise DimensionError(f"pool window {window} exceeds input {x.data.shape}")
    data, idx = kernels.maxpool_forward(x.data, window, stride)
    out = Tensor(data, (x,), dtype=None)
    out.bwd = lambda g: (kernels.pool_scatter(g, idx, h, w, window, stride),)
    return out, idx


def pool_route(r: Tensor, idx: np.ndarray, in_hw, window: int, stride: int) -> Tensor:
    """Scatter per-window values to their recorded argmax positions.

    Forward is the winner-take-all redistribution used by relevance
    propagation; backward gathers at the same (fixed) positions.
    """
    h, w = in_hw
    out = Tensor(kernels.pool_scatter(r.data, idx, h, w, window, stride), (r,), dtype=None)
    out.bwd = lambda g: (kernels.pool_gather(g, idx, window, stride),)
    return out


def dropout(x: Tensor, rate: float, training: bool, rng: Optional[np.random.Generator]) -> Tensor:
    if not 0 <= rate < 1:
        raise ValueError(f"dropout rate must be in [0,1), got {rate}")
    if not training or rate == 0.0:
        return x
    keep = (rng.random(x.data.shape) >= rate).astype(x.data.dtype)
    scale = np.asarray(1.0 / (1.0 - rate), dtype=x.data.dtype)
    mask = keep * scale
    out = Tensor(x.data * mask, (x,), dtype=None)
    out.bwd = lambda g: (g * mask,)
    return out


# ---------------------------------------------------------------------------
# loss
# ---------------------------------------------------------------------------

def softmax_cross_entropy(logits: Tensor, label: int) -> Tensor:
    """-log softmax(logits)[label], max-subtraction stabilized."""
    k = logits.data.shape[0]
    if logits.data.ndim != 1:
        raise DimensionError("softmax_cross_entropy expects a 1-D logit vector")
    if not 0 <= label < k:
        raise ValueError(f"label {label} out of range for {k} classes")
    m = logits.data.max()
    z = logits.data - m
    e = np.exp(z)
    total = e.sum()
    p = e / total
    loss = np.log(total) - z[label]
    out = Tensor(loss, (logits,), dtype=None)

    def bwd(g):
        grad = p.copy()
        grad[label] -= 1
        return (grad * g,)

    out.bwd = bwd
    return out


# ---------------------------------------------------------------------------
# backward driver
# ---------------------------------------------------------------------------

def _toposort(root: Tensor) -> list:
    order: list = []
    visited: set = set()
    stack: list = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        nid = id(node)
        if nid in visited:
            continue
        visited.add(nid)
        stack.append((node, True))
        for p in node.parents:
            if id(p) not in visited:
                stack.append((p, False))
    return order


def backward(root: Tensor, seed: float = 1.0) -> dict:
    """Gradients of a scalar `root` w.r.t. every leaf tensor in its graph.

    Returns {leaf tensor: gradient}; no other node is a key, so the result
    does not keep the graph alive. A gradient is an ndarray, except that a
    leaf matrix reached only through matrix-vector products gets
    :class:`FactorPairs` (the pairs of every product, concatenated; a pair
    that meets an ndarray is formed and added). :func:`grad_for` and
    :class:`GradientSum` form them. Intermediate gradients are dropped as
    soon as their parents are served. Leaves that do not influence `root`
    are simply absent (i.e. zero).
    """
    if root.data.size != 1:
        raise ValueError(f"backward requires a scalar output, got shape {root.data.shape}")
    order = _toposort(root)
    grads: dict = {root: np.asarray(seed, dtype=root.data.dtype).reshape(root.data.shape)}
    for node in reversed(order):
        if not node.parents:
            continue
        g = grads.pop(node, None)
        if g is None or node.bwd is None:
            continue
        for p, pg in zip(node.parents, node.bwd(g)):
            if pg is not None:
                _accumulate(grads, p, pg)
    return grads


def _accumulate(grads: dict, key, g) -> None:
    """``grads[key]`` becomes the sum of itself and gradient `g`, a new
    value: an entry may alias op internals or a caller's result, so no array
    or pair list is changed in place. Factor pairs concatenate; a pair that
    meets an ndarray is formed."""
    acc = grads.get(key)
    if acc is None:
        grads[key] = g
    elif isinstance(acc, FactorPairs) and isinstance(g, FactorPairs):
        grads[key] = FactorPairs(acc.us + g.us, acc.vs + g.vs)
    else:
        grads[key] = _materialize(acc) + _materialize(g)


def _materialize(g) -> np.ndarray:
    return g.materialize() if isinstance(g, FactorPairs) else g


def grad_for(grads: dict, t: Tensor) -> np.ndarray:
    """Gradient of `t` from a backward() result as an ndarray, zero if
    unused."""
    g = grads.get(t)
    if g is None:
        return np.zeros_like(t.data)
    return _materialize(g)


class GradientSum:
    """Sum of per-sample gradients over a mini-batch, by parameter name.

    :meth:`add` takes one backward() result and accumulates it as backward
    does: ndarray gradients in sample order, so their sum has the bits of a
    sequential one, and factor pairs concatenated. :meth:`total` forms each
    factored weight with one GEMM. A parameter a sample does not reach adds
    zero.
    """

    def __init__(self, params: dict):
        self.params = params  # name -> leaf Tensor
        self.sums: dict = {}

    def add(self, grads: dict) -> None:
        for name, t in self.params.items():
            if t in grads:
                _accumulate(self.sums, name, grads[t])

    def total(self) -> dict:
        """{name: ndarray} for every parameter."""
        return {
            name: _materialize(self.sums[name]) if name in self.sums else np.zeros_like(t.data)
            for name, t in self.params.items()
        }
