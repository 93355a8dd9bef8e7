"""Sequential CNN classifier: layer specs, parameter init, the forward
passes, and binary weight persistence.

``forward_with_trace`` is the one pass that builds an autodiff graph and a
trace (each activation, plus a conv's patch matrix and a pool's argmax),
which training and differentiable relevance propagation need; evaluation,
explanation, the retrieval query and each BiLRP neighbour read the ndarray
values of that trace. ``embed`` serves the atlas index: it runs
the same kernels on ndarrays alone to one trace position and returns only
that activation, with the bits of the trace entry.
"""

from __future__ import annotations

import functools
import math
import os
import re
import struct
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import engine, kernels
from .engine import Tensor
from .errors import ConfigError, DimensionError, FormatError, NumericalError, read_exact

WEIGHT_MAGIC = b"RGTW"
WEIGHT_VERSION = 1


@dataclass
class LayerSpec:
    """One layer of a sequential model. `kind` selects which hyperparameters
    apply: conv(channels,kernel,stride,padding), maxpool(window,stride),
    dropout(rate), dense(units); relu/flatten take none."""

    kind: str
    channels: int = 0
    kernel: int = 0
    stride: int = 1
    padding: int = 0
    window: int = 0
    rate: float = 0.0
    units: int = 0

    KINDS = ("conv", "relu", "maxpool", "dropout", "flatten", "dense")


@dataclass
class Model:
    layers: list
    params: dict
    input_shape: tuple

    @property
    def n_classes(self) -> int:
        """The width of the last layer: one logit per class."""
        return infer_shapes(self.layers, self.input_shape)[-1][0]

    def param_names(self) -> list:
        return sorted(self.params.keys())

    def astype(self, dtype) -> "Model":
        """Copy with parameters cast (float64 replicas for oracles)."""
        params = {k: Tensor(v.data.astype(dtype), dtype=None) for k, v in self.params.items()}
        return Model(list(self.layers), params, self.input_shape)

    @property
    def dtype(self):
        return self.params[self.param_names()[0]].data.dtype


@dataclass
class ActivationTrace:
    """Activations per trace position: entry 0 is the input, entry i is the
    output of layer i-1. `caches[i]` holds the one other value of layer i
    that relevance propagation reads: a conv's patch-matrix node, a pool's
    argmax indices, None for any other layer."""

    tensors: list
    caches: list = field(default_factory=list)

    def __len__(self):
        return len(self.tensors)


def infer_shapes(layers, input_shape) -> list:
    """Propagate shapes through the spec list; raises ConfigError on any
    incompatibility. Returns the shape after every layer (input first)."""
    shapes = [tuple(input_shape)]
    cur = tuple(input_shape)
    for li, spec in enumerate(layers):
        if spec.kind == "conv":
            if len(cur) != 3:
                raise ConfigError(f"layer {li}: conv needs (C,H,W) input, has {cur}")
            c, h, w = cur
            k, s, p = spec.kernel, spec.stride, spec.padding
            if k > h + 2 * p or k > w + 2 * p:
                raise ConfigError(f"layer {li}: kernel {k} exceeds padded input {cur}")
            cur = (spec.channels, kernels.conv_out_size(h, k, s, p), kernels.conv_out_size(w, k, s, p))
        elif spec.kind == "maxpool":
            c, h, w = cur
            if spec.window > h or spec.window > w:
                raise ConfigError(f"layer {li}: pool window {spec.window} exceeds input {cur}")
            cur = (
                c,
                (h - spec.window) // spec.stride + 1,
                (w - spec.window) // spec.stride + 1,
            )
            if cur[1] < 1 or cur[2] < 1:
                raise ConfigError(f"layer {li}: input too small for pooling, shape {cur}")
        elif spec.kind == "flatten":
            cur = (int(np.prod(cur)),)
        elif spec.kind == "dense":
            if len(cur) != 1:
                raise ConfigError(f"layer {li}: dense needs flat input, has {cur}")
            if spec.units < 1:
                raise ConfigError(f"layer {li}: dense needs >= 1 units, has {spec.units}")
            cur = (spec.units,)
        elif spec.kind == "dropout":
            if not 0 <= spec.rate < 1:
                raise ConfigError(f"layer {li}: dropout rate must be in [0,1), got {spec.rate}")
        elif spec.kind == "relu":
            pass
        else:
            raise ConfigError(f"layer {li}: unknown kind {spec.kind!r}")
        shapes.append(cur)
    return shapes


def default_layers(
    conv_channels=(16, 32, 64, 128), dense_units=256, n_classes=2, dropout_rate=0.25
) -> list:
    """Four conv/relu/pool blocks with dropout after the first and last
    pooling stage, then two dense layers."""
    layers = []
    for bi, ch in enumerate(conv_channels):
        layers.append(LayerSpec("conv", channels=ch, kernel=3, stride=1, padding=1))
        layers.append(LayerSpec("relu"))
        layers.append(LayerSpec("maxpool", window=2, stride=2))
        if bi in (0, len(conv_channels) - 1):
            layers.append(LayerSpec("dropout", rate=dropout_rate))
    layers.append(LayerSpec("flatten"))
    layers.append(LayerSpec("dense", units=dense_units))
    layers.append(LayerSpec("relu"))
    layers.append(LayerSpec("dense", units=n_classes))
    return layers


def param_shapes(layers, input_shape) -> dict:
    """Name -> dims of every parameter tensor, in layer order, weight first."""
    shapes = infer_shapes(layers, input_shape)
    out = {}
    for li, spec in enumerate(layers):
        if spec.kind == "conv":
            out[f"layer{li}.weight"] = (spec.channels, shapes[li][0], spec.kernel, spec.kernel)
            out[f"layer{li}.bias"] = (spec.channels,)
        elif spec.kind == "dense":
            out[f"layer{li}.weight"] = (spec.units, shapes[li][0])
            out[f"layer{li}.bias"] = (spec.units,)
    return out


def init_params(layers, input_shape, seed) -> dict:
    """He-style fan-in-scaled normal init for weights, zero biases."""
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0x1217]))
    params = {}
    for name, shape in param_shapes(layers, input_shape).items():
        if name.endswith(".weight"):
            w = rng.normal(0.0, np.sqrt(2.0 / math.prod(shape[1:])), shape)
        else:
            w = np.zeros(shape)
        params[name] = Tensor(w.astype(np.float32), name=name)
    return params


def build_model(layers, input_shape, seed=0) -> Model:
    """A model with fresh parameters."""
    return Model(layers, init_params(layers, input_shape, seed), tuple(input_shape))


def build_default_model(
    input_shape=(3, 64, 64),
    seed=0,
    conv_channels=(16, 32, 64, 128),
    dense_units=256,
    n_classes=2,
    dropout_rate=0.25,
) -> Model:
    layers = default_layers(conv_channels, dense_units, n_classes, dropout_rate)
    return build_model(layers, input_shape, seed)


# ---------------------------------------------------------------------------
# forward pass
# ---------------------------------------------------------------------------

def forward_with_trace(
    model: Model,
    x,
    training: bool = False,
    rng: Optional[np.random.Generator] = None,
    stop: Optional[int] = None,
):
    """Graph-building forward pass. Returns (output, ActivationTrace).

    The trace holds graph tensors, so any entry can serve as a relevance
    starting point or as a feature source while staying differentiable.
    An ndarray input takes the model's parameter dtype. With a trace position
    `stop`, the pass ends there and outputs its activation, not the logits.
    """
    if not isinstance(x, Tensor):
        x = Tensor(x, dtype=model.dtype)
    _check_pass(model, x.data.shape, stop)
    if training and rng is None:
        rng = np.random.default_rng(0)
    h = x
    tensors = [x]
    caches = []
    for li, spec in enumerate(model.layers[:stop]):
        cache = None
        if spec.kind == "conv":
            h, cache = engine.conv2d(
                h, model.params[f"layer{li}.weight"], model.params[f"layer{li}.bias"],
                spec.stride, spec.padding,
            )
        elif spec.kind == "relu":
            h = engine.relu(h)
        elif spec.kind == "maxpool":
            h, cache = engine.maxpool2d(h, spec.window, spec.stride)
        elif spec.kind == "dropout":
            h = engine.dropout(h, spec.rate, training, rng)
        elif spec.kind == "flatten":
            h = engine.flatten(h)
        elif spec.kind == "dense":
            h = engine.dense(h, model.params[f"layer{li}.weight"], model.params[f"layer{li}.bias"])
        tensors.append(h)
        caches.append(cache)
    return h, ActivationTrace(tensors, caches)


def embed(model: Model, x, stop: int) -> np.ndarray:
    """The flattened inference-mode activation at trace position `stop`
    (0 = the input itself), a new array with the bits of
    ``forward_with_trace(model, x)[1].tensors[stop].data``.

    The pass runs the trace's kernels in the same order on ndarrays alone:
    it builds no graph and no trace, and it skips the max-pool argmax."""
    h = np.ascontiguousarray(x, dtype=model.dtype)
    _check_pass(model, h.shape, stop)
    for li, spec in enumerate(model.layers[:stop]):
        if spec.kind in ("conv", "dense"):
            w = model.params[f"layer{li}.weight"].data
            b = model.params[f"layer{li}.bias"].data
        if spec.kind == "conv":
            k, s, p = spec.kernel, spec.stride, spec.padding
            z = w.reshape(len(w), -1) @ kernels.im2col(h, k, s, p) + b.reshape(len(b), 1)
            h = z.reshape(len(w), *(kernels.conv_out_size(n, k, s, p) for n in h.shape[1:]))
        elif spec.kind == "relu":
            h = np.fmax(h, 0) + 0
        elif spec.kind == "maxpool":
            h = kernels.maxpool_values(h, spec.window, spec.stride)[0]
        elif spec.kind == "flatten":
            h = h.reshape(-1)
        elif spec.kind == "dense":
            h = w @ h + b
    return h.reshape(-1).copy()


def _check_pass(model: Model, shape: tuple, stop: Optional[int]) -> None:
    """Both passes' refusals: a stop outside the trace, then a wrong input shape."""
    if stop is not None and not 0 <= stop <= len(model.layers):
        raise IndexError(f"layer index {stop} out of range (0..{len(model.layers)})")
    if shape != model.input_shape:
        raise DimensionError(f"input {shape} does not match model {model.input_shape}")


# ---------------------------------------------------------------------------
# weight persistence
# ---------------------------------------------------------------------------

def save_weights(model: Model, path) -> None:
    """Binary little-endian format: magic, version, tensor count, then per
    tensor name (u16 length + UTF-8), rank u32, dims u32*rank, f32 payload."""
    names = model.param_names()
    with open(path, "wb") as f:
        f.write(WEIGHT_MAGIC)
        f.write(struct.pack("<II", WEIGHT_VERSION, len(names)))
        for name in names:
            data = np.ascontiguousarray(model.params[name].data, dtype="<f4")
            nb = name.encode("utf-8")
            f.write(struct.pack("<H", len(nb)))
            f.write(nb)
            f.write(struct.pack("<I", data.ndim))
            f.write(struct.pack(f"<{data.ndim}I", *data.shape))
            f.write(data.tobytes())


_read_exact = functools.partial(read_exact, kind="weight")


def read_weight_tensors(path) -> dict:
    """Read the raw name -> ndarray mapping from a weight file. A malformed
    file is a FormatError; a well-formed one holding a NaN or an infinity
    is a NumericalError naming the first such tensor."""
    tensors = {}
    with open(path, "rb") as f:
        if _read_exact(f, 4, "magic") != WEIGHT_MAGIC:
            raise FormatError("bad magic: not a weight file")
        version, count = struct.unpack("<II", _read_exact(f, 8, "header"))
        if version != WEIGHT_VERSION:
            raise FormatError(f"unsupported weight file version {version}")
        for _ in range(count):
            (nlen,) = struct.unpack("<H", _read_exact(f, 2, "name length"))
            try:
                name = _read_exact(f, nlen, "name").decode("utf-8")
            except UnicodeDecodeError:
                raise FormatError("tensor name is not UTF-8") from None
            (rank,) = struct.unpack("<I", _read_exact(f, 4, "rank"))
            if rank > 8:
                raise FormatError(f"implausible tensor rank {rank}")
            dims = struct.unpack(f"<{rank}I", _read_exact(f, 4 * rank, "dims"))
            nbytes = 4 * math.prod(dims)
            left = os.fstat(f.fileno()).st_size - f.tell()
            if nbytes > left:
                raise FormatError(
                    f"truncated weight file: tensor {name} declares {nbytes} bytes, {left} left"
                )
            data = np.empty(dims, dtype="<f4")  # read in place: no bytes object, no copy
            if f.readinto(data.reshape(-1).view(np.uint8)) != nbytes:
                raise FormatError(f"truncated weight file while reading tensor {name}")
            tensors[name] = data
        if f.read(1):
            raise FormatError("trailing bytes after last tensor")
    for name, data in tensors.items():
        if not np.isfinite(data).all():
            raise NumericalError(f"weight tensor {name} holds a non-finite value")
    return tensors


def load_weights(path, template: Optional[Model] = None) -> Model:
    """Rebuild a model from a weight file; its tensors become the parameters.

    With a `template`, the file must provide exactly the template's tensors
    with matching dims. Without one, the default conv/pool/dense layout is
    reconstructed from the stored tensor shapes (spatial size from the
    first dense fan-in).
    """
    tensors = read_weight_tensors(path)
    if template is None:
        layers, input_shape = _layout_from_tensor_shapes(tensors)
    else:
        layers, input_shape = template.layers, template.input_shape
    try:
        want = param_shapes(layers, input_shape)
    except ConfigError as e:  # only an inferred layout can fail
        raise FormatError(f"weight file dims describe no valid model: {e}") from None
    names = sorted(want)
    if sorted(tensors.keys()) != names:
        raise FormatError(
            f"weight file tensors {sorted(tensors.keys())} do not match model {names}"
        )
    params = {}
    for name in names:
        if tensors[name].shape != want[name]:
            raise FormatError(f"tensor {name} has dims {tensors[name].shape}, expected {want[name]}")
        params[name] = Tensor(tensors[name], name=name)
    return Model(list(layers), params, tuple(input_shape))


def _layer_of(name: str) -> int:
    match = re.fullmatch(r"layer(\d+)\.(weight|bias)", name)
    if match is None:
        raise FormatError(f"tensor name {name!r} is not layer<N>.weight or layer<N>.bias")
    return int(match.group(1))


def _layout_from_tensor_shapes(tensors: dict) -> tuple:
    """(layers, input shape) of the default family that the stored weight
    dims describe."""
    conv_shapes = []
    dense_shapes = []
    for name in sorted(tensors, key=_layer_of):
        if not name.endswith(".weight"):
            continue
        shape = tensors[name].shape
        if len(shape) == 4:
            conv_shapes.append(shape)
        elif len(shape) == 2:
            dense_shapes.append(shape)
        else:
            raise FormatError(f"cannot infer a layer from tensor {name} with dims {shape}")
    if not conv_shapes or len(dense_shapes) != 2:
        raise FormatError("weight file does not match the default architecture family")
    channels = tuple(s[0] for s in conv_shapes)
    in_channels = conv_shapes[0][1]
    dense_units, flat = dense_shapes[0]
    n_classes = dense_shapes[1][0]
    if n_classes != 2:  # evaluate, the score means and the metrics CSV are two-class
        raise FormatError(f"weight file has {n_classes} outputs; relguide models have 2 classes")
    spatial = flat // channels[-1]
    side = int(round(np.sqrt(spatial))) * (2 ** len(channels))
    return default_layers(channels, dense_units, n_classes), (in_channels, side, side)
