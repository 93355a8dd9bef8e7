"""Raw numpy compute kernels shared by the autodiff ops and the stacked
relevance route.

Everything here is a pure function of ndarrays.

Convolution is implemented as patch extraction (im2col) followed by a
matmul; the k*k Python loop touches whole strided slices at a time, so the
cost is dominated by BLAS, not interpreter overhead.
"""

from __future__ import annotations

import functools

import numpy as np


def conv_out_size(size: int, k: int, stride: int, padding: int) -> int:
    return (size + 2 * padding - k) // stride + 1


def im2col(x: np.ndarray, k: int, stride: int, padding: int) -> np.ndarray:
    """(C,H,W) -> (C*k*k, Ho*Wo) patch matrix, zero padded."""
    c, h, w = x.shape
    ho = conv_out_size(h, k, stride, padding)
    wo = conv_out_size(w, k, stride, padding)
    if padding:
        xp = np.zeros((c, h + 2 * padding, w + 2 * padding), dtype=x.dtype)
        xp[:, padding : padding + h, padding : padding + w] = x
        x = xp
    cols = np.empty((c, k, k, ho, wo), dtype=x.dtype)
    for i in range(k):
        for j in range(k):
            cols[:, i, j] = x[:, i : i + stride * ho : stride, j : j + stride * wo : stride]
    return cols.reshape(c * k * k, ho * wo)


def col2im(
    cols: np.ndarray, c: int, h: int, w: int, k: int, stride: int, padding: int
) -> np.ndarray:
    """Adjoint of im2col: scatter-add (C*k*k, Ho*Wo) back to (C,H,W)."""
    return col2im_stack(cols[None], c, h, w, k, stride, padding)[0]


def col2im_stack(
    cols: np.ndarray, c: int, h: int, w: int, k: int, stride: int, padding: int
) -> np.ndarray:
    """col2im with a leading stack axis: (M, C*k*k, L) -> (M, C, H, W)."""
    m = cols.shape[0]
    ho = conv_out_size(h, k, stride, padding)
    wo = conv_out_size(w, k, stride, padding)
    colsr = cols.reshape(m, c, k, k, ho, wo)
    xp = np.zeros((m, c, h + 2 * padding, w + 2 * padding), dtype=cols.dtype)
    for i in range(k):
        for j in range(k):
            xp[:, :, i : i + stride * ho : stride, j : j + stride * wo : stride] += colsr[
                :, :, i, j
            ]
    if padding:
        return xp[:, :, padding : padding + h, padding : padding + w].copy()
    return xp


def maxpool_values(x: np.ndarray, window: int, stride: int):
    """Returns (out, slices): the window's strided slices of `x`, one view
    per offset in row-major order, and `out`, their running maximum, the
    max over each window. A window holding NaN gives NaN."""
    c, h, w = x.shape
    ho = (h - window) // stride + 1
    wo = (w - window) // stride + 1
    slices = [x[:, i : i + stride * ho : stride, j : j + stride * wo : stride]
              for i in range(window) for j in range(window)]
    return functools.reduce(np.maximum, slices), slices


def maxpool_forward(x: np.ndarray, window: int, stride: int):
    """Returns (out, idx): :func:`maxpool_values`' max over each window and
    the flat row-major index of its first occurrence, as argmax gives it,
    which fixes both the gradient route and the winner-take-all relevance
    route. `idx` is the count of leading slices that miss the maximum."""
    out, slices = maxpool_values(x, window, stride)
    miss = slices[0] != out
    idx = miss.astype(np.intp)
    for s in slices[1:-1]:
        miss &= s != out
        idx += miss
    return out, idx


def pool_scatter(
    vals: np.ndarray, idx: np.ndarray, h: int, w: int, window: int, stride: int
) -> np.ndarray:
    """Route per-window values back to their argmax positions.

    `vals` may carry leading stack axes; `idx` is (C,Ho,Wo) and broadcasts.
    Overlapping windows accumulate.
    """
    c, ho, wo = idx.shape
    out_shape = vals.shape[:-3] + (c, h, w)
    out = np.zeros(out_shape, dtype=vals.dtype)
    for i in range(window):
        for j in range(window):
            mask = idx == i * window + j
            out[..., i : i + stride * ho : stride, j : j + stride * wo : stride] += (
                vals * mask
            )
    return out


def pool_gather(
    x: np.ndarray, idx: np.ndarray, window: int, stride: int
) -> np.ndarray:
    """Adjoint of pool_scatter: pick the argmax position out of each window,
    by flat index; ``+ 0`` turns -0.0 into +0.0, as a sum of masked terms."""
    c, ho, wo = idx.shape
    h, w = x.shape[-2:]
    offsets = (np.arange(window)[:, None] * w + np.arange(window)).ravel()
    corners = (np.arange(c)[:, None, None] * h + np.arange(ho)[:, None] * stride) * w
    flat = offsets[idx] + corners + np.arange(wo) * stride
    return np.take(x.reshape(x.shape[:-3] + (-1,)), flat, axis=-1) + 0


def stable_sign(z: np.ndarray) -> np.ndarray:
    """sign(z) with sign(0) := +1, so a stabilizer never vanishes at zero."""
    return np.where(z >= 0, np.asarray(1, dtype=z.dtype), np.asarray(-1, dtype=z.dtype))


def stab_denominator(z: np.ndarray, eps_scale: float, sign: int = 0) -> np.ndarray:
    """z plus a scale-adaptive stabilizer eps_scale * mean|z|.

    sign=0 pushes away from zero via sign(z); sign=+/-1 shifts in a fixed
    direction (used for single-signed pre-activation parts).
    """
    if eps_scale > 0:
        eps = np.asarray(eps_scale * float(np.abs(z).mean()), dtype=z.dtype)
    else:
        eps = np.asarray(0, dtype=z.dtype)
    if sign == 0:
        return z + eps * stable_sign(z)
    return z + (eps if sign > 0 else -eps)
