"""Float64 reference of relguide's default network, written apart from the
program, for checking what the program writes.

It holds the forward pass, the default composite LRP rule (epsilon on dense
layers, alpha1/beta0 on conv layers, stabilizer ``1e-6 * mean|z|``), the
attention score, the guided loss, and readers and writers for the dataset
(`.rgtd`) and weight (`.rgtw`) files as README documents them. The forward
pass and the relevance take a batch axis first. Convolutions multiply a
window view of the padded input by the flattened kernel, and pooling is a
reshape, so none of the program's kernels is used.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

EPS_SCALE = 1e-6  # relguide's default stabilizer scale (`epsilon` config key)
DENOM_GUARD = 1e-30  # the score is 0 when r_lesion + r_rest is below this

# relguide's default network, one entry per layer index: four conv/relu/pool
# blocks with dropout after the first and last pooling stage, then two dense
LAYERS = (
    "conv", "relu", "pool", "dropout",
    "conv", "relu", "pool",
    "conv", "relu", "pool",
    "conv", "relu", "pool", "dropout",
    "flatten", "dense", "relu", "dense",
)
PARAM_LAYERS = tuple(i for i, kind in enumerate(LAYERS) if kind in ("conv", "dense"))


# ---------------------------------------------------------------------------
# files
# ---------------------------------------------------------------------------

@dataclass
class Dataset:
    ids: np.ndarray  # (N,) int64
    labels: np.ndarray  # (N,) int64
    images: np.ndarray  # (N, C, H, W) float32
    object_masks: np.ndarray  # (N, H, W) bool
    lesion_masks: np.ndarray  # (N, H, W) bool
    records: np.ndarray  # the raw file records, for writing subsets

    def __len__(self):
        return len(self.ids)

    def index_of(self, sample_id: int) -> int:
        hits = np.flatnonzero(self.ids == sample_id)
        if len(hits) != 1:
            raise ValueError(f"sample id {sample_id} occurs {len(hits)} times")
        return int(hits[0])


def _record_dtype(c, h, w):
    return np.dtype([
        ("id", "<u4"), ("label", "u1"), ("image", "<f4", (c, h, w)),
        ("object", "u1", (h, w)), ("lesion", "u1", (h, w)),
    ])


def read_dataset(path) -> Dataset:
    with open(path, "rb") as f:
        buf = f.read()
    if buf[:4] != b"RGTD":
        raise ValueError(f"{path}: not a dataset file")
    _, n, c, h, w = struct.unpack_from("<IIIII", buf, 4)
    dtype = _record_dtype(c, h, w)
    if len(buf) != 24 + n * dtype.itemsize:
        raise ValueError(f"{path}: {len(buf)} bytes, expected {24 + n * dtype.itemsize}")
    rec = np.frombuffer(buf, dtype=dtype, count=n, offset=24)
    return Dataset(
        rec["id"].astype(np.int64), rec["label"].astype(np.int64),
        rec["image"].copy(), rec["object"] == 1, rec["lesion"] == 1, rec,
    )


def read_ids(path) -> np.ndarray:
    """The sample ids of a dataset file, touching little more than the ids."""
    with open(path, "rb") as f:
        _, n, c, h, w = struct.unpack_from("<IIIII", f.read(24), 4)
    rec = np.memmap(path, dtype=_record_dtype(c, h, w), mode="r", offset=24, shape=(n,))
    return rec["id"].astype(np.int64)


def write_dataset(ds: Dataset, rows, path) -> None:
    rec = ds.records[np.asarray(rows)]
    c, h, w = ds.images.shape[1:]
    with open(path, "wb") as f:
        f.write(b"RGTD" + struct.pack("<IIIII", 1, len(rec), c, h, w))
        f.write(rec.tobytes())


def read_weights(path) -> dict:
    params = {}
    with open(path, "rb") as f:
        buf = f.read()
    if buf[:4] != b"RGTW":
        raise ValueError(f"{path}: not a weight file")
    _, count = struct.unpack_from("<II", buf, 4)
    pos = 12
    for _ in range(count):
        (nlen,) = struct.unpack_from("<H", buf, pos)
        name = buf[pos + 2 : pos + 2 + nlen].decode("utf-8")
        pos += 2 + nlen
        (rank,) = struct.unpack_from("<I", buf, pos)
        dims = struct.unpack_from(f"<{rank}I", buf, pos + 4)
        pos += 4 + 4 * rank
        size = int(np.prod(dims))
        params[name] = np.frombuffer(buf, "<f4", size, pos).reshape(dims).copy()
        pos += 4 * size
    if pos != len(buf):
        raise ValueError(f"{path}: {len(buf) - pos} trailing bytes")
    return params


def write_weights(params: dict, path) -> None:
    with open(path, "wb") as f:
        f.write(b"RGTW" + struct.pack("<II", 1, len(params)))
        for name in sorted(params):
            data = np.ascontiguousarray(params[name], dtype="<f4")
            nb = name.encode("utf-8")
            f.write(struct.pack("<H", len(nb)) + nb)
            f.write(struct.pack(f"<I{data.ndim}I", data.ndim, *data.shape))
            f.write(data.tobytes())


def as_float64(params: dict) -> dict:
    expected = {f"layer{i}.{p}" for i in PARAM_LAYERS for p in ("weight", "bias")}
    if set(params) != expected:
        raise ValueError(f"weights {sorted(params)} are not the default network's")
    return {k: v.astype(np.float64) for k, v in params.items()}


# ---------------------------------------------------------------------------
# forward
# ---------------------------------------------------------------------------

def conv3x3(x, w, b):
    """(N,C,H,W) cross-correlation with a (O,C,3,3) kernel, padding 1."""
    n, c, h, wd = x.shape
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    cols = sliding_window_view(xp, (3, 3), axis=(2, 3)).transpose(0, 2, 3, 1, 4, 5)
    out = cols.reshape(n * h * wd, c * 9) @ w.reshape(len(w), -1).T
    return out.reshape(n, h, wd, -1).transpose(0, 3, 1, 2) + b[None, :, None, None]


def conv3x3_transpose(s, w):
    """Adjoint of conv3x3 without bias, (N,O,H,W) -> (N,C,H,W): the same
    convolution with the kernel flipped and its channel axes swapped."""
    flipped = w.transpose(1, 0, 2, 3)[:, :, ::-1, ::-1]
    return conv3x3(s, flipped, np.zeros(len(flipped)))


def pool2x2(x):
    """2x2/2 max pooling; returns (out, argmax) with the row-major window
    position of the first maximum."""
    n, c, h, w = x.shape
    win = x.reshape(n, c, h // 2, 2, w // 2, 2).transpose(0, 1, 2, 4, 3, 5).reshape(n, c, h // 2, w // 2, 4)
    idx = win.argmax(axis=-1)
    return np.take_along_axis(win, idx[..., None], axis=-1)[..., 0], idx


def unpool2x2(r, idx):
    """Route (N,C,h,w) values to the recorded argmax of each window."""
    n, c, h, w = r.shape
    win = np.zeros((n, c, h, w, 4))
    np.put_along_axis(win, idx[..., None], r[..., None], axis=-1)
    return win.reshape(n, c, h, w, 2, 2).transpose(0, 1, 2, 4, 3, 5).reshape(n, c, 2 * h, 2 * w)


def forward(params: dict, x, stop: int = len(LAYERS)):
    """Eval-mode forward pass of the first `stop` layers. Returns the trace:
    `acts[i]` is the input of layer i (acts[0] the images), plus the pool
    argmax indices keyed by layer index."""
    h = np.asarray(x, dtype=np.float64)
    acts, pool_idx = [h], {}
    for li, kind in enumerate(LAYERS[:stop]):
        if kind == "conv":
            h = conv3x3(h, params[f"layer{li}.weight"], params[f"layer{li}.bias"])
        elif kind == "relu":
            h = np.maximum(h, 0)
        elif kind == "pool":
            h, pool_idx[li] = pool2x2(h)
        elif kind == "flatten":
            h = h.reshape(len(h), -1)
        elif kind == "dense":
            h = h @ params[f"layer{li}.weight"].T + params[f"layer{li}.bias"]
        acts.append(h)
    return acts, pool_idx


def embeddings(params: dict, x, position: int) -> np.ndarray:
    """Flattened activations at a trace position, one row per input."""
    acts, _ = forward(params, x, stop=position)
    return acts[position].reshape(len(acts[position]), -1)


# ---------------------------------------------------------------------------
# relevance
# ---------------------------------------------------------------------------

def _per_sample_mean_abs(z):
    return np.abs(z).reshape(len(z), -1).mean(axis=1).reshape((-1,) + (1,) * (z.ndim - 1))


def _ratio(r, denom):
    nonzero = denom != 0
    return np.where(nonzero, r / np.where(nonzero, denom, 1), 0)


def dense_ratio(r, z):
    """The epsilon rule's stabilized ratio r / (z + eps sign z) of a dense layer."""
    eps = EPS_SCALE * _per_sample_mean_abs(z)
    return _ratio(r, z + eps * np.where(z >= 0, 1.0, -1.0))


def relevance_below(params: dict, acts, pool_idx, r, top: int, bottom: int = 0) -> np.ndarray:
    """Composite-rule LRP of relevance `r` on `acts[top]`, the output of
    layer top-1, down to `acts[bottom]` (the input by default)."""
    for li in reversed(range(bottom, top)):
        kind, a = LAYERS[li], acts[li]
        if kind == "dense":
            r = a * (dense_ratio(r, acts[li + 1]) @ params[f"layer{li}.weight"])
        elif kind == "conv":
            wp = np.maximum(params[f"layer{li}.weight"], 0)
            zp = conv3x3(a, wp, np.maximum(params[f"layer{li}.bias"], 0))
            s = _ratio(r, zp + EPS_SCALE * _per_sample_mean_abs(zp))
            r = a * conv3x3_transpose(s, wp)
        elif kind == "pool":
            r = unpool2x2(r, pool_idx[li])
        elif kind == "flatten":
            r = r.reshape(a.shape)
    return r


def input_relevance(params: dict, acts, pool_idx, targets) -> np.ndarray:
    """Composite-rule LRP from the logit of `targets[n]` down to the input;
    returns (N, C, H, W)."""
    logits = acts[-1]
    rows = np.arange(len(logits))
    r = np.zeros_like(logits)
    r[rows, targets] = logits[rows, targets]
    return relevance_below(params, acts, pool_idx, r, len(LAYERS))


def attention_score(rel2d, lesion, obj, floor: float) -> float:
    """r_lesion / (r_lesion + r_rest) over the positive channel-summed
    relevance, clamped below at `floor` (README, "The guided loss")."""
    pos = np.maximum(rel2d, 0)
    r_mask = float(pos[lesion].sum())
    r_rest = float(pos[obj & ~lesion].sum())
    denom = r_mask + r_rest
    return max(r_mask / denom if denom > DENOM_GUARD else 0.0, floor)


def cross_entropy(logits, label: int) -> float:
    m = logits.max()
    return float(m + np.log(np.exp(logits - m).sum()) - logits[label])


def guided_loss(params: dict, image, lesion, obj, label: int, power: float, floor: float):
    """CE / score**power for one sample; power 0 is plain cross-entropy.
    Returns (loss, kink state): the state holds every on/off decision of the
    computation, so a finite difference whose two ends share it is smooth."""
    acts, pool_idx = forward(params, image[None])
    state = [acts[li + 1] > 0 for li, k in enumerate(LAYERS) if k in ("conv", "dense")]
    state += list(pool_idx.values())
    loss = cross_entropy(acts[-1][0], label)
    if power:
        rel2d = input_relevance(params, acts, pool_idx, np.array([label]))[0].sum(axis=0)
        score = attention_score(rel2d, lesion, obj, floor)
        state += [rel2d > 0, np.array(score > floor)]
        loss /= score**power
    return loss, state
