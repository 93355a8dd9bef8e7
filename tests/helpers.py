"""Shared test oracles: finite differences, naive layer implementations,
and random small-network builders.

The oracles here deliberately avoid the library's compute paths: naive
loops and direct formulas only, in float64. Two exceptions:
`bilrp_reference` builds BiLRP by its per-unit definition on the backward
relevance route (itself checked against the graph route and hand-unrolled
rules) to check the transposed route BiLRP uses, and
`relevance_graph_reference` builds the graph route out of autodiff
primitives, so the backward of its fused rule nodes has a second
derivation to agree with. `matmul_t`, the transposed product that
reference is built with, is an autodiff op that only the tests use.
"""

import numpy as np

from relguide import engine as E
from relguide import kernels
from relguide.engine import Tensor
from relguide.lrp import LRPRuleConfig, relevance_stack
from relguide.network import LayerSpec, Model, build_model, forward_with_trace


# ---------------------------------------------------------------------------
# finite differences
# ---------------------------------------------------------------------------

def central_diff(f, arr, h=1e-3):
    """Central-difference gradient of scalar f() w.r.t. every element of
    `arr` (mutated in place and restored)."""
    g = np.zeros(arr.shape, dtype=np.float64)
    flat = arr.reshape(-1)
    out = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        up = f()
        flat[i] = orig - h
        dn = f()
        flat[i] = orig
        out[i] = (up - dn) / (2 * h)
    return g


def grad_mismatches(analytic, fd, fd_half, rel_tol=1e-3, abs_tol=1e-5, abs_cutoff=1e-6):
    """Indices where the analytic gradient disagrees with central
    differences at both step sizes.

    Elements with |analytic| < abs_cutoff are compared absolutely at
    abs_tol, the rest relatively at rel_tol. Matching either step size
    passes (a kink between h/2 and h invalidates only the larger step),
    and elements where the two estimates disagree with each other by >1%
    are excluded outright: the step crossed a ReLU/maxpool kink and finite
    differences cannot adjudicate there.
    """
    analytic = np.asarray(analytic, dtype=np.float64)

    def bad_vs(est):
        small = np.abs(analytic) < abs_cutoff
        bad_small = small & (np.abs(analytic - est) > abs_tol)
        denom = np.maximum(np.abs(est), 1e-300)
        bad_rel = ~small & (np.abs(analytic - est) / denom > rel_tol)
        return bad_small | bad_rel

    scale = np.maximum(np.abs(fd), np.abs(fd_half))
    unstable = np.abs(fd - fd_half) > 0.01 * np.maximum(scale, 1e-4)
    return np.argwhere(bad_vs(fd) & bad_vs(fd_half) & ~unstable)


def check_gradients(f, arrays, analytic, h=1e-3, rel_tol=1e-3, abs_tol=1e-5, abs_cutoff=1e-6):
    """Assert every array's analytic gradient matches central differences.

    `arrays` and `analytic` are parallel lists; f() re-evaluates the scalar
    after each perturbation.
    """
    for arr, ana in zip(arrays, analytic):
        fd = central_diff(f, arr, h)
        fd_half = central_diff(f, arr, h / 2)
        bad = grad_mismatches(ana, fd, fd_half, rel_tol, abs_tol, abs_cutoff)
        assert bad.size == 0, (
            f"gradient mismatch at {bad[:5].tolist()}: "
            f"analytic {np.asarray(ana).reshape(-1)[:5]}, fd {fd.reshape(-1)[:5]}"
        )


# ---------------------------------------------------------------------------
# naive layer oracles
# ---------------------------------------------------------------------------

def naive_conv2d(x, w, b, stride=1, padding=0):
    """Direct summation cross-correlation in float64."""
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    c_out, c_in, k, _ = w.shape
    if padding:
        x = np.pad(x, ((0, 0), (padding, padding), (padding, padding)))
    _, h, wd = x.shape
    ho = (h - k) // stride + 1
    wo = (wd - k) // stride + 1
    out = np.zeros((c_out, ho, wo))
    for co in range(c_out):
        for i in range(ho):
            for j in range(wo):
                acc = 0.0
                for ci in range(c_in):
                    for di in range(k):
                        for dj in range(k):
                            acc += x[ci, i * stride + di, j * stride + dj] * w[co, ci, di, dj]
                out[co, i, j] = acc + b[co]
    return out


def naive_maxpool(x, window, stride):
    """Exhaustive window max in float64."""
    x = np.asarray(x, dtype=np.float64)
    c, h, w = x.shape
    ho = (h - window) // stride + 1
    wo = (w - window) // stride + 1
    out = np.zeros((c, ho, wo))
    for ci in range(c):
        for i in range(ho):
            for j in range(wo):
                out[ci, i, j] = x[ci, i * stride : i * stride + window, j * stride : j * stride + window].max()
    return out


def naive_pool_windows(x, window, stride):
    """(C,H,W) -> (C, Ho, Wo, window*window): each window's contents in
    row-major order, copied window by window."""
    c, h, w = x.shape
    ho = (h - window) // stride + 1
    wo = (w - window) // stride + 1
    out = np.empty((c, ho, wo, window * window), dtype=x.dtype)
    for i in range(ho):
        for j in range(wo):
            patch = x[:, i * stride : i * stride + window, j * stride : j * stride + window]
            out[:, i, j] = patch.reshape(c, -1)
    return out


def naive_softmax_ce(logits, label):
    logits = np.asarray(logits, dtype=np.float64)
    m = logits.max()
    z = np.exp(logits - m)
    return float(np.log(z.sum()) - (logits[label] - m))


def bilrp_reference(model, a, b, layer_index, rules, grid, chunk=64):
    """Joint BiLRP matrix by its definition: one backward relevance map per
    embedding unit, seeded with the unit's activation (stacked `chunk` units
    to a relevance_stack pass), channel-summed and pooled to the grid; the
    outer products of the two inputs' pooled maps summed over all units."""
    traces = [forward_with_trace(model, x)[1] for x in (a, b)]
    shape = traces[0].tensors[layer_index].data.shape
    _, h, w = model.input_shape
    n = int(np.prod(shape))
    joint = np.zeros((grid * grid, grid * grid))
    for lo in range(0, n, chunk):
        units = np.arange(lo, min(lo + chunk, n))
        pooled = []
        for trace in traces:
            emb = trace.tensors[layer_index].data.reshape(-1)
            seeds = np.zeros((len(units), n), dtype=emb.dtype)
            seeds[np.arange(len(units)), units] = emb[units]
            rel = relevance_stack(model, trace, layer_index, seeds.reshape((-1,) + shape), rules)
            patches = rel.sum(axis=1).reshape(-1, grid, h // grid, grid, w // grid).sum(axis=(2, 4))
            pooled.append(patches.reshape(len(units), -1).astype(np.float64))
        joint += pooled[0].T @ pooled[1]
    return joint


# ---------------------------------------------------------------------------
# relevance graph out of autodiff primitives
# ---------------------------------------------------------------------------

def stabilized_ratio(r, z, eps_scale, sign=0):
    """r / (z + eps*dir(z)) with eps = eps_scale * mean|z|, differentiated
    including the dependence of eps on z. A zero denominator yields 0.
    ``sign`` forces the stabilizer direction (+1/-1); 0 uses sign(z) with
    sign(0) := +1."""
    zd = z.data
    denom = kernels.stab_denominator(zd, eps_scale, sign)
    nonzero = denom != 0
    safe = np.where(nonzero, denom, 1)
    out_data = np.where(nonzero, r.data / safe, 0)
    out = Tensor(out_data, (r, z), dtype=None)
    direction = kernels.stable_sign(zd) if sign == 0 else np.asarray(float(sign), dtype=zd.dtype)

    def bwd(g):
        gr = np.where(nonzero, g / safe, 0)
        core = np.where(nonzero, g * out_data / safe, 0)
        gz = -core
        if eps_scale > 0:
            coupling = float((core * direction).sum()) * eps_scale / zd.size
            gz = gz - coupling * np.sign(zd)
        return gr, gz

    out.bwd = bwd
    return out


def matmul_t(a, b):
    """a.T @ b for a 2-D `a` and a 1-D or 2-D `b`, reading `a` in its own
    layout: no transposed copy, and `a`'s gradient comes in `a`'s shape (as
    factor pairs when `a` is a leaf and `b` a vector, like `engine.matmul`)."""
    ad, bd = a.data, b.data
    E._check_matmul("matmul_t", ad, bd, 0)
    if bd.ndim == 1:
        out = Tensor(bd @ ad, (a, b), dtype=None)
        leaf = not a.parents
        out.bwd = lambda g: (E._outer(bd, g, leaf), ad @ g)
    else:
        out = Tensor(ad.T @ bd, (a, b), dtype=None)
        out.bwd = lambda g: (bd @ g.T, ad @ g)
    return out


def col2im_node(cols, geom):
    c, h, w, k, stride, padding = geom
    out = Tensor(kernels.col2im(cols.data, c, h, w, k, stride, padding), (cols,), dtype=None)
    out.bwd = lambda g: (kernels.im2col(g, k, stride, padding),)
    return out


def _rule_graph(r, a, x, weight, bias, z, rules, rule, conv_geom=None):
    """a * sum(coef * rho(W)^T (r / stab(rho(W) x + rho(b)))) as a chain of
    primitive nodes; `z` is the layer's own pre-activation (epsilon rule)."""
    if rule == "epsilon":
        parts = [(weight, z, 0, 1.0)]
    else:
        w_pos, b_pos = E.relu(weight), E.relu(bias)
        parts = []
        for w_part, b_part, sign, coef in (
            (w_pos, b_pos, 1, rules.alpha),
            (E.sub(weight, w_pos), E.sub(bias, b_pos), -1, -rules.beta),
        ):
            if coef == 0.0:
                continue
            if conv_geom is not None:
                b_part = E.reshape(b_part, (b_part.data.shape[0], 1))
            parts.append((w_part, E.add(E.matmul(w_part, x), b_part), sign, coef))
    c = None
    for w_part, z_part, sign, coef in parts:
        term = matmul_t(w_part, stabilized_ratio(r, z_part, rules.epsilon, sign))
        if conv_geom is not None:
            term = col2im_node(term, conv_geom)
        if coef != 1.0:
            term = E.mul(E.const(np.asarray(coef, dtype=term.data.dtype), dtype=None), term)
        c = term if c is None else E.add(c, term)
    return E.mul(a, c)


def relevance_graph_reference(model, trace, target_class, rules=None):
    """`relguide.lrp.relevance_graph` built from autodiff primitives: the
    stabilized ratio, the transposed product and col2im are separate nodes,
    and the alpha/beta weight split is relu(W) and W - relu(W)."""
    rules = rules or LRPRuleConfig()
    logits = trace.tensors[-1]
    onehot = np.zeros(logits.data.shape, dtype=logits.data.dtype)
    onehot[target_class] = 1
    r = E.mul(logits, Tensor(onehot, dtype=None))
    rel = [None] * len(trace.tensors)
    rel[-1] = r
    for li in reversed(range(len(model.layers))):
        spec, cache, a = model.layers[li], trace.caches[li], trace.tensors[li]
        bias = model.params.get(f"layer{li}.bias")
        if spec.kind == "conv":  # the rule over the patch matrix: one column per output position
            wm = E.reshape(model.params[f"layer{li}.weight"], (spec.channels, -1))
            zmat = E.reshape(trace.tensors[li + 1], (spec.channels, -1))
            geom = (*a.data.shape, spec.kernel, spec.stride, spec.padding)
            r = _rule_graph(E.reshape(r, zmat.data.shape), a, cache, wm, bias, zmat,
                            rules, rules.conv_rule, geom)
        elif spec.kind == "dense":
            r = _rule_graph(r, a, a, model.params[f"layer{li}.weight"], bias,
                            trace.tensors[li + 1], rules, rules.dense_rule)
        elif spec.kind == "maxpool":
            r = E.pool_route(r, cache, a.data.shape[1:], spec.window, spec.stride)
        elif spec.kind == "flatten":
            r = E.reshape(r, a.data.shape)
        rel[li] = r
    return rel


# ---------------------------------------------------------------------------
# random model builders
# ---------------------------------------------------------------------------

def random_conv_net(rng, with_bias=True, n_classes=2, input_hw=6, in_channels=2,
                    depth=None, with_pool=None):
    """A small random conv/relu[/pool]/flatten/dense stack plus a matching
    random input; parameter count stays in the hundreds."""
    depth = depth if depth is not None else int(rng.integers(1, 3))
    with_pool = bool(rng.integers(0, 2)) if with_pool is None else with_pool
    layers = []
    ch = in_channels
    hw = input_hw
    for _ in range(depth):
        out_ch = int(rng.integers(2, 5))
        layers.append(LayerSpec("conv", channels=out_ch, kernel=3, stride=1, padding=1))
        layers.append(LayerSpec("relu"))
        ch = out_ch
    if with_pool and hw >= 4:
        layers.append(LayerSpec("maxpool", window=2, stride=2))
        hw //= 2
    layers.append(LayerSpec("flatten"))
    layers.append(LayerSpec("dense", units=n_classes))
    model = build_model(layers, (in_channels, input_hw, input_hw),
                        seed=int(rng.integers(0, 2**31)))
    if not with_bias:
        for name in model.param_names():
            if name.endswith(".bias"):
                model.params[name].data[:] = 0
    else:
        for name in model.param_names():
            if name.endswith(".bias"):
                model.params[name].data[:] = rng.normal(0, 0.1, model.params[name].data.shape)
    x = rng.normal(0, 1.0, (in_channels, input_hw, input_hw)).astype(np.float32)
    return model, x


def random_dense_net(rng, widths=None, input_len=4, with_bias=True, n_classes=2):
    widths = widths if widths is not None else [int(rng.integers(3, 7))]
    layers = []
    for wdt in widths:
        layers.append(LayerSpec("dense", units=wdt))
        layers.append(LayerSpec("relu"))
    layers.append(LayerSpec("dense", units=n_classes))
    model = build_model(layers, (input_len,), seed=int(rng.integers(0, 2**31)))
    for name in model.param_names():
        if name.endswith(".bias"):
            if with_bias:
                model.params[name].data[:] = rng.normal(0, 0.1, model.params[name].data.shape)
            else:
                model.params[name].data[:] = 0
    x = rng.normal(0, 1.0, input_len).astype(np.float32)
    return model, x


def params_of(model):
    return [model.params[n] for n in model.param_names()]


def min_kink_margin(model, x) -> float:
    """Distance of the forward pass from the nearest ReLU/maxpool
    nondifferentiability: the smallest |pre-activation| at any ReLU and the
    smallest live top-2 gap in any pool window. Finite differences are only
    meaningful when the step stays below this margin."""
    acts = [t.data for t in forward_with_trace(model, x)[1].tensors]
    margin = np.inf
    for li, spec in enumerate(model.layers):
        if spec.kind == "relu":
            margin = min(margin, float(np.abs(acts[li]).min()))
        elif spec.kind == "maxpool":
            srt = np.sort(naive_pool_windows(acts[li], spec.window, spec.stride), axis=-1)
            top, second = srt[..., -1], srt[..., -2]
            live = top > 0  # all-zero windows are flat, hence stable
            if live.any():
                margin = min(margin, float((top[live] - second[live]).min()))
    return margin


def sample_smooth_net(rng, make, margin=5e-3, tries=40):
    """Draw (model, x) from `make` until the forward pass keeps a safe
    distance from every kink."""
    for _ in range(tries):
        model, x = make(rng)
        if min_kink_margin(model, x) > margin:
            return model, x
    raise AssertionError(f"no kink-free sample found in {tries} tries")
