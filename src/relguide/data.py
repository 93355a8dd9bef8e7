"""Deterministic synthetic lesion-classification data.

Each sample is a 3-channel image holding an elliptical "object" (the
tissue analog) with a smooth low-frequency texture, and an elliptical
"lesion" inside it whose texture is the only causal class signal: class 0
lesions are a smooth intensity plateau (+delta), class 1 lesions are
high-frequency +/-delta speckle. A bright corner blob outside the object
acts as a spurious distractor: it appears with probability rho for class 1
and 1-rho for class 0, so at rho=1 it predicts the label perfectly while
carrying no causal information about the lesion.

Generation is keyed per sample id, so datasets are reproducible and
order-independent.
"""

from __future__ import annotations

import functools
import math
import os
import struct
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError, FormatError, NumericalError, read_exact

DATASET_MAGIC = b"RGTD"
DATASET_VERSION = 1

_PLACEMENT_RETRIES = 60


@dataclass
class LabeledSample:
    image: np.ndarray  # (3,H,W) float32 in [0,1]
    object_mask: np.ndarray  # (H,W) uint8
    lesion_mask: np.ndarray  # (H,W) uint8
    label: int
    sample_id: int


@dataclass
class GeneratorConfig:
    height: int = 64
    width: int = 64
    samples_per_class: int = 400
    lesion_area_min: float = 0.05
    lesion_area_max: float = 0.15
    texture_contrast: float = 0.35
    distractor_rho: float = 0.9
    noise_sigma: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if self.height < 16 or self.width < 16:
            raise ConfigError("images must be at least 16x16")
        if self.height != self.width:
            raise ConfigError(f"images must be square, got {self.height}x{self.width}")
        if not 0 < self.lesion_area_min <= self.lesion_area_max < 1:
            raise ConfigError("need 0 < lesion_area_min <= lesion_area_max < 1")
        if not 0 <= self.distractor_rho <= 1:
            raise ConfigError("distractor_rho must be in [0,1]")
        if self.samples_per_class < 1:
            raise ConfigError("samples_per_class must be >= 1")
        if not (self.noise_sigma >= 0 and self.texture_contrast >= 0):
            raise ConfigError("noise_sigma and texture_contrast must be >= 0")


@functools.lru_cache(maxsize=8)
def _grid(h, w):
    """Read-only float64 row and column coordinates of an h x w image."""
    yy, xx = np.mgrid[0:h, 0:w].astype(np.float64)
    yy.flags.writeable = xx.flags.writeable = False
    return yy, xx


def _ellipse_mask(h, w, cy, cx, ry, rx, theta) -> np.ndarray:
    yy, xx = _grid(h, w)
    y = yy - cy
    x = xx - cx
    ct, st = np.cos(theta), np.sin(theta)
    u = (x * ct + y * st) / rx
    v = (-x * st + y * ct) / ry
    return u * u + v * v <= 1.0


def _lowfreq_field(mask, rng) -> np.ndarray:
    """A smooth texture at the pixels of `mask`, in row-major order."""
    h, w = mask.shape
    yy, xx = _grid(h, w)
    yy, xx = yy[mask], xx[mask]
    field = np.zeros(yy.shape)
    for _ in range(3):
        amp = rng.uniform(0.02, 0.08)
        fy, fx = rng.uniform(0.5, 2.0, 2)
        phase = rng.uniform(0, 2 * np.pi)
        field += amp * np.cos(2 * np.pi * (fy * yy / h + fx * xx / w) + phase)
    return field


def _place_lesion(rng, object_mask, ry_obj, rx_obj, center, cfg):
    h, w = object_mask.shape
    area_obj = int(object_mask.sum())
    lo = cfg.lesion_area_min * area_obj
    hi = cfg.lesion_area_max * area_obj
    span = cfg.lesion_area_max - cfg.lesion_area_min
    for _ in range(_PLACEMENT_RETRIES):
        # draw the target area away from the range edges so that
        # rasterization cannot push the pixel count out of range
        frac = cfg.lesion_area_min + span * rng.uniform(0.2, 0.8)
        area = frac * area_obj
        aspect = rng.uniform(0.7, 1.4)
        ry = np.sqrt(area * aspect / np.pi)
        rx = np.sqrt(area / (aspect * np.pi))
        margin_y = max(ry_obj - ry - 2, 1.0)
        margin_x = max(rx_obj - rx - 2, 1.0)
        cy = center[0] + rng.uniform(-0.6, 0.6) * margin_y
        cx = center[1] + rng.uniform(-0.6, 0.6) * margin_x
        theta = rng.uniform(0, np.pi)
        lesion = _ellipse_mask(h, w, cy, cx, ry, rx, theta)
        count = int(lesion.sum())
        if count == 0 or (lesion & ~object_mask).any():
            continue
        if lo <= count <= hi:
            return lesion
    raise ConfigError(
        f"could not place a lesion of fraction [{cfg.lesion_area_min}, "
        f"{cfg.lesion_area_max}] inside the object after {_PLACEMENT_RETRIES} attempts"
    )


def make_sample(cfg: GeneratorConfig, sample_id: int, label: int) -> LabeledSample:
    rng = np.random.default_rng(np.random.SeedSequence([int(cfg.seed), int(sample_id), 0x5A11]))
    h, w = cfg.height, cfg.width

    cy = h / 2 + rng.uniform(-0.05, 0.05) * h
    cx = w / 2 + rng.uniform(-0.05, 0.05) * w
    ry = rng.uniform(0.30, 0.38) * h
    rx = rng.uniform(0.30, 0.38) * w
    theta = rng.uniform(0, np.pi)
    object_mask = _ellipse_mask(h, w, cy, cx, ry, rx, theta)

    base = np.full((h, w), 0.05)
    base[object_mask] = 0.45 + _lowfreq_field(object_mask, rng)
    chan_offsets = rng.uniform(-0.04, 0.04, 3)
    image = base[None, :, :] + chan_offsets[:, None, None]

    lesion_mask = _place_lesion(rng, object_mask, ry, rx, (cy, cx), cfg)
    if label == 0:
        image[:, lesion_mask] += cfg.texture_contrast
    else:
        speckle = cfg.texture_contrast * rng.choice([-1.0, 1.0], size=(h, w))
        image[:, lesion_mask] += speckle[lesion_mask]

    present = rng.random() < (cfg.distractor_rho if label == 1 else 1 - cfg.distractor_rho)
    if present:
        corner = int(rng.integers(4))
        dy = rng.uniform(6, 10)
        dx = rng.uniform(6, 10)
        cy_d = dy if corner in (0, 1) else h - 1 - dy
        cx_d = dx if corner in (0, 2) else w - 1 - dx
        r_d = rng.uniform(3.5, 5.5)
        blob = _ellipse_mask(h, w, cy_d, cx_d, r_d, r_d, 0.0) & ~object_mask
        # bright speckled blob: statistically a lesion look-alike placed
        # outside the object, so it competes for the same features
        blob_speckle = cfg.texture_contrast * rng.choice([-1.0, 1.0], size=(h, w))
        image[:, blob] += 0.35 + blob_speckle[blob]

    image = image + rng.normal(0, cfg.noise_sigma, image.shape)
    image = np.clip(image, 0.0, 1.0).astype(np.float32)
    return LabeledSample(
        image=np.ascontiguousarray(image),
        object_mask=object_mask.astype(np.uint8),
        lesion_mask=lesion_mask.astype(np.uint8),
        label=int(label),
        sample_id=int(sample_id),
    )


def generate(cfg: GeneratorConfig, id_offset: int = 0) -> list:
    """A balanced dataset: ids are contiguous from `id_offset`, labels
    alternate, exactly samples_per_class per class."""
    samples = []
    for i in range(2 * cfg.samples_per_class):
        samples.append(make_sample(cfg, id_offset + i, i % 2))
    return samples


# ---------------------------------------------------------------------------
# rigid augmentation
# ---------------------------------------------------------------------------

def rigid_transform(sample: LabeledSample, quarter_turns: int, flip_h: bool, flip_v: bool) -> LabeledSample:
    """Rotate by quarter_turns * 90 degrees then apply flips; image and both
    masks move together."""
    img = sample.image
    if quarter_turns % 2 and img.shape[1] != img.shape[2]:
        raise ConfigError("90-degree rotations need square images")

    def tf(a, plane):
        out = np.rot90(a, quarter_turns, axes=plane)
        if flip_h:
            out = np.flip(out, axis=plane[1])
        if flip_v:
            out = np.flip(out, axis=plane[0])
        return np.ascontiguousarray(out)

    return LabeledSample(
        image=tf(img, (1, 2)),
        object_mask=tf(sample.object_mask, (0, 1)),
        lesion_mask=tf(sample.lesion_mask, (0, 1)),
        label=sample.label,
        sample_id=sample.sample_id,
    )


def augment(sample: LabeledSample, rng: np.random.Generator) -> LabeledSample:
    """One random rigid transform: rotation from {0,90,180,270} plus
    independent horizontal/vertical flips."""
    k = int(rng.integers(0, 4))
    flip_h = bool(rng.random() < 0.5)
    flip_v = bool(rng.random() < 0.5)
    return rigid_transform(sample, k, flip_h, flip_v)


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def save_dataset(samples, path) -> None:
    samples = list(samples)
    if not samples:
        raise ValueError("refusing to write an empty dataset")
    c, h, w = samples[0].image.shape
    with open(path, "wb") as f:
        f.write(DATASET_MAGIC)
        f.write(struct.pack("<IIIII", DATASET_VERSION, len(samples), c, h, w))
        for s in samples:
            if s.image.shape != (c, h, w):
                raise ValueError("all samples in a dataset must share one shape")
            f.write(struct.pack("<IB", s.sample_id, s.label))
            f.write(np.ascontiguousarray(s.image, dtype="<f4").tobytes())
            f.write(np.ascontiguousarray(s.object_mask, dtype="u1").tobytes())
            f.write(np.ascontiguousarray(s.lesion_mask, dtype="u1").tobytes())


_read_exact = functools.partial(read_exact, kind="dataset")


def _record_size(c, h, w) -> int:
    """Bytes per sample: id u32, label u8, f32 image, two u8 masks."""
    return 5 + 4 * math.prod((c, h, w)) + 2 * h * w


def _read_header(f) -> tuple:
    """Check the header and that the file holds exactly the records it
    declares; returns (n, c, h, w)."""
    if _read_exact(f, 4, "magic") != DATASET_MAGIC:
        raise FormatError("bad magic: not a dataset file")
    version, n, c, h, w = struct.unpack("<IIIII", _read_exact(f, 20, "header"))
    if version != DATASET_VERSION:
        raise FormatError(f"unsupported dataset version {version}")
    if n == 0 or c == 0 or h == 0 or w == 0:
        raise FormatError("dataset header with zero dimension")
    need = n * _record_size(c, h, w)
    left = os.fstat(f.fileno()).st_size - f.tell()
    if need > left:
        raise FormatError(f"truncated dataset file: header declares {need} bytes, {left} left")
    if need < left:
        raise FormatError("trailing bytes after last sample")
    return n, c, h, w


def _read_sample(f, c, h, w) -> LabeledSample:
    sid, label = struct.unpack("<IB", _read_exact(f, 5, "sample header"))
    img = np.frombuffer(_read_exact(f, 4 * c * h * w, "image"), dtype="<f4").reshape(c, h, w).copy()
    obj = np.frombuffer(_read_exact(f, h * w, "object mask"), dtype="u1").reshape(h, w).copy()
    les = np.frombuffer(_read_exact(f, h * w, "lesion mask"), dtype="u1").reshape(h, w).copy()
    if not np.isfinite(img).all():
        raise NumericalError(f"dataset sample {sid} holds a non-finite pixel value")
    return LabeledSample(img, obj, les, int(label), int(sid))


def load_dataset(path) -> list:
    """Every sample of a dataset file. A malformed file is a FormatError; a
    pixel that is NaN or infinite is a NumericalError naming its sample."""
    with open(path, "rb") as f:
        n, c, h, w = _read_header(f)
        return [_read_sample(f, c, h, w) for _ in range(n)]


def load_sample(path, sample_id: int) -> Optional[LabeledSample]:
    """The sample of a dataset file with `sample_id`, or None. Reads every
    record's id, then the one match; refuses the malformed files `load_dataset`
    refuses, an id held twice, and a non-finite pixel of the sample it reads."""
    with open(path, "rb") as f:
        n, c, h, w = _read_header(f)
        fd, start, size = f.fileno(), f.tell(), _record_size(c, h, w)
        ids = [struct.unpack("<I", os.pread(fd, 4, start + i * size))[0] for i in range(n)]
        if sample_id not in ids:
            return None
        if ids.count(sample_id) > 1:
            raise FormatError(f"dataset sample id {sample_id} appears more than once")
        f.seek(start + ids.index(sample_id) * size)
        return _read_sample(f, c, h, w)
