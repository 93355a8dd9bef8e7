"""Corrupt files: every reader ends a truncated, byte-flipped or
header-mangled file in FormatError and nothing else, except that a flipped
payload byte may make a weight or a pixel NaN or infinite, which the
weight and dataset readers refuse with NumericalError."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relguide.atlas import AtlasIndex, load_index, save_index
from relguide.data import GeneratorConfig, generate, load_dataset, load_sample, save_dataset
from relguide.errors import FormatError, NumericalError
from relguide.network import build_model, default_layers, load_weights, save_weights

U32_MAX = 2**32 - 1


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    save_dataset(generate(GeneratorConfig(height=16, width=16, samples_per_class=1, seed=3)),
                 root / "a.rgtd")
    save_weights(build_model(default_layers((2, 2), 4), (3, 16, 16), 1), root / "a.rgtw")
    save_index(AtlasIndex(4, np.ones((3, 5), dtype=np.float32), np.arange(3, dtype=np.uint32),
                          np.zeros(3, dtype=np.uint8)), root / "a.rgta")
    readers = {  # name: (file extension, reader)
        "rgtd": ("rgtd", load_dataset),
        "rgtd_sample": ("rgtd", lambda path: load_sample(path, 1)),  # the last of the two ids
        "rgtw": ("rgtw", load_weights),
        "rgta": ("rgta", load_index),
    }
    return root, {name: ((root / f"a.{ext}").read_bytes(), ext, fn)
                  for name, (ext, fn) in readers.items()}


@st.composite
def corruptions(draw):
    """(kind, position in [0, 1), value): a truncation, a flipped byte, or a
    u32 set to 0 or 2^32-1."""
    kind = draw(st.sampled_from(["truncate", "flip", "u32"]))
    value = draw(st.integers(1, 255) if kind == "flip" else st.sampled_from([0, U32_MAX]))
    return kind, draw(st.floats(0, 1, exclude_max=True)), value


def _corrupt(blob, kind, where, value):
    blob = bytearray(blob)
    if kind == "truncate":
        return bytes(blob[: int(where * len(blob))])
    if kind == "flip":
        blob[int(where * len(blob))] ^= value
        return bytes(blob)
    struct.pack_into("<I", blob, int(where * (len(blob) - 3)), value)
    return bytes(blob)


@pytest.mark.parametrize("reader_name", ["rgtd", "rgtd_sample", "rgtw", "rgta"])
@settings(max_examples=300, deadline=None)
@given(case=corruptions())
def test_only_format_errors(files, reader_name, case):
    root, blobs = files
    blob, ext, reader = blobs[reader_name]
    path = root / f"case.{ext}"
    path.write_bytes(_corrupt(blob, *case))
    try:
        reader(path)
    except FormatError:
        pass
    except NumericalError:
        assert reader_name != "rgta"  # no index reader checks values
