"""Pooling and activation kernels against their definitions: first-occurrence
argmax, the masked-sum gather and ``np.where`` ReLU, bit for bit."""

import numpy as np
import pytest

from relguide import engine, kernels
from relguide.engine import Tensor

from helpers import naive_maxpool, naive_pool_windows

POOLS = [(2, 2), (3, 1), (3, 2)]


def after_relu(rng, shape):
    """Integer-valued with about 70% zeros, so most windows hold ties."""
    x = rng.integers(-7, 4, size=shape).astype(np.float32)
    return np.maximum(x, 0)


class TestMaxpoolForward:
    @pytest.mark.parametrize("window, stride", POOLS)
    def test_first_occurrence_wins_ties(self, rng, window, stride):
        x = after_relu(rng, (5, 13, 11))
        out, idx = kernels.maxpool_forward(x, window, stride)
        win = naive_pool_windows(x, window, stride)
        np.testing.assert_array_equal(idx, win.argmax(axis=-1))
        assert out.dtype == x.dtype
        np.testing.assert_array_equal(out, naive_maxpool(x, window, stride))
        assert (idx > 0).any() and (win == win.max(axis=-1, keepdims=True)).sum(-1).max() > 1

    def test_window_with_nan_gives_nan(self):
        x = np.zeros((1, 4, 4), dtype=np.float32)
        x[0, 1, 0] = np.nan
        x[0, 2, 3] = 5.0
        out, _ = kernels.maxpool_forward(x, 2, 2)
        assert np.isnan(out[0, 0, 0])
        np.testing.assert_array_equal(out[0].ravel()[1:], [0.0, 0.0, 5.0])


class TestRelu:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bytes_equal_where(self, dtype):
        info = np.finfo(dtype)
        a = np.array(
            [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, info.smallest_subnormal,
             -info.smallest_subnormal, info.tiny / 2, -info.tiny / 2, 1.5, -1.5, info.max],
            dtype=dtype,
        )
        out = engine.relu(Tensor(a, dtype=None)).data
        assert out.dtype == a.dtype
        assert out.tobytes() == np.where(a > 0, a, 0).tobytes()


def masked_gather(x, idx, window, stride):
    """The gather as a zero-initialised sum of one masked term per offset."""
    c, ho, wo = idx.shape
    out = np.zeros(x.shape[:-3] + (c, ho, wo), dtype=x.dtype)
    for i in range(window):
        for j in range(window):
            mask = idx == i * window + j
            out += x[..., i : i + stride * ho : stride, j : j + stride * wo : stride] * mask
    return out


class TestPoolGather:
    @pytest.mark.parametrize("lead", [(), (3,), (2, 3)])
    @pytest.mark.parametrize("window, stride", POOLS)
    def test_equals_masked_sum(self, rng, lead, window, stride):
        _, idx = kernels.maxpool_forward(after_relu(rng, (4, 9, 10)), window, stride)
        x = rng.normal(size=lead + (4, 9, 10))
        x[rng.random(x.shape) < 0.3] = -0.0
        got = kernels.pool_gather(x, idx, window, stride)
        assert got.shape == lead + idx.shape
        assert got.tobytes() == masked_gather(x, idx, window, stride).tobytes()
