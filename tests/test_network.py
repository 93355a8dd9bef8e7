"""Model building, traced forward passes, and weight persistence."""

import numpy as np
import pytest

import hashlib
import re

from relguide import kernels, network
from relguide.engine import Tensor
from relguide.errors import ConfigError, DimensionError, FormatError, NumericalError
from relguide.network import (
    LayerSpec,
    Model,
    build_model,
    build_default_model,
    default_layers,
    forward_with_trace,
    infer_shapes,
    init_params,
    load_weights,
    param_shapes,
    save_weights,
)

from helpers import naive_conv2d, naive_maxpool, random_conv_net


class TestBuildDefaultModel:
    def test_final_dense_fan_in(self):
        model = build_default_model((3, 64, 64), seed=0)
        shapes = infer_shapes(model.layers, model.input_shape)
        flat = [s for s in shapes if len(s) == 1]
        assert flat[0] == (128 * 4 * 4,)
        dense_weights = [
            model.params[n] for n in model.param_names()
            if n.endswith(".weight") and model.params[n].data.ndim == 2
        ]
        assert dense_weights[0].data.shape == (256, 2048)

    def test_same_seed_bit_identical(self):
        a = build_default_model((3, 64, 64), seed=42)
        b = build_default_model((3, 64, 64), seed=42)
        for name in a.param_names():
            np.testing.assert_array_equal(a.params[name].data, b.params[name].data)

    def test_different_seed_differs(self):
        a = build_default_model((3, 64, 64), seed=1)
        b = build_default_model((3, 64, 64), seed=2)
        assert any(
            not np.array_equal(a.params[n].data, b.params[n].data)
            for n in a.param_names() if n.endswith(".weight")
        )

    def test_too_small_input_rejected(self):
        with pytest.raises(ConfigError):
            build_default_model((3, 8, 8), seed=0)

    def test_init_draws_unchanged(self):
        model = build_default_model((3, 32, 32), seed=9, conv_channels=(4, 6), dense_units=16)
        digest = hashlib.sha256()
        for name in model.param_names():
            digest.update(name.encode())
            digest.update(model.params[name].data.tobytes())
        # pinned: every saved run and manifest replay rests on these draws
        assert digest.hexdigest() == "05f30f7b0a9c5df74e0636218b0871e4545dafc36c1379b6cfe0d238d06486d7"

    def test_param_shapes_are_init_order_and_dims(self):
        layers = default_layers((4, 6), 16)
        params = init_params(layers, (3, 32, 32), seed=1)
        assert param_shapes(layers, (3, 32, 32)) == {k: v.data.shape for k, v in params.items()}
        assert list(param_shapes(layers, (3, 32, 32))) == list(params)

    def test_n_classes_is_last_layer_width(self):
        """A model's class count is the width of its last layer, and follows
        the layers: a model cannot state another."""
        for units in (1, 2, 5):
            layers = [LayerSpec("dense", units=4), LayerSpec("relu"),
                      LayerSpec("dense", units=units)]
            model = build_model(layers, (3,))
            assert model.n_classes == units == infer_shapes(layers, (3,))[-1][0]
            assert model.astype(np.float64).n_classes == units
            model.layers.append(LayerSpec("relu"))
            assert model.n_classes == units
        model = build_default_model((3, 16, 16), conv_channels=(4,), dense_units=8, n_classes=3)
        assert model.n_classes == 3

    def test_layer_count(self):
        model = build_default_model((3, 64, 64), seed=0)
        assert len(model.layers) == 18


class TestForward:
    def test_zero_input_zero_biases_gives_last_bias(self):
        model = build_default_model((3, 32, 32), seed=0, conv_channels=(4, 4, 4, 4), dense_units=8)
        last_dense = max(
            int(n.split(".")[0][5:]) for n in model.param_names() if n.endswith(".bias")
        )
        model.params[f"layer{last_dense}.bias"].data[:] = [0.5, -0.25]
        logits, _ = forward_with_trace(model, np.zeros((3, 32, 32), dtype=np.float32))
        np.testing.assert_array_equal(logits.data, [0.5, -0.25])

    def test_trace_length(self, rng):
        model, x = random_conv_net(rng)
        _, trace = forward_with_trace(model, x)
        assert len(trace) == len(model.layers) + 1

    def test_trace_matches_traceless_forward(self, rng):
        """Every trace entry of a float64 model against a forward pass built
        from the naive layer oracles; a float32 ndarray input takes the
        model's dtype."""
        model, x = random_conv_net(rng, with_pool=True)
        m64 = model.astype(np.float64)
        _, trace = forward_with_trace(m64, x)
        h = x.astype(np.float64)
        expected = [h]
        for li, spec in enumerate(m64.layers):
            if spec.kind in ("conv", "dense"):
                w = m64.params[f"layer{li}.weight"].data
                b = m64.params[f"layer{li}.bias"].data
            if spec.kind == "conv":
                h = naive_conv2d(h, w, b, spec.stride, spec.padding)
            elif spec.kind == "relu":
                h = np.maximum(h, 0)
            elif spec.kind == "maxpool":
                h = naive_maxpool(h, spec.window, spec.stride)
            elif spec.kind == "flatten":
                h = h.reshape(-1)
            elif spec.kind == "dense":
                h = w @ h + b
            expected.append(h)
        assert len(trace) == len(expected)
        for t, e in zip(trace.tensors, expected):
            assert t.data.dtype == np.float64
            np.testing.assert_allclose(t.data, e, rtol=1e-10, atol=1e-12)

    def test_stop_position_truncates_trace(self, rng):
        """A pass stopped at trace position s gives the first s+1 entries
        (and s caches) of the full trace, bit for bit, and the entry at s
        as its output; a position outside 0..len(layers) is refused before
        any layer runs."""
        model = build_default_model((3, 32, 32), seed=4, conv_channels=(4, 4, 4, 4), dense_units=8)
        x = rng.random((3, 32, 32)).astype(np.float32)
        n = len(model.layers)
        _, full = forward_with_trace(model, x)
        for stop in (0, 7, n):
            out, trace = forward_with_trace(model, x, stop=stop)
            assert len(trace) == stop + 1 and len(trace.caches) == stop
            assert out is trace.tensors[-1]
            for got, want in zip(trace.tensors, full.tensors[: stop + 1]):
                assert got.data.tobytes() == want.data.tobytes()
            for got, want in zip(trace.caches, full.caches):
                assert (got is None) == (want is None)
                if want is not None:
                    assert got.data.tobytes() == want.data.tobytes()
        # each layer saves one thing besides its output: a conv its patch-matrix
        # node, a pool its argmax, every other layer nothing
        assert len(full.caches) == n
        for li, (spec, cache) in enumerate(zip(model.layers, full.caches)):
            a = full.tensors[li].data
            if spec.kind == "conv":
                want = kernels.im2col(a, spec.kernel, spec.stride, spec.padding)
                assert isinstance(cache, Tensor) and cache.parents == (full.tensors[li],)
                assert cache.data.dtype == want.dtype and cache.data.shape == want.shape
                assert cache.data.tobytes() == want.tobytes()
            elif spec.kind == "maxpool":
                values, idx = kernels.maxpool_forward(a, spec.window, spec.stride)
                assert isinstance(cache, np.ndarray) and cache.dtype == idx.dtype
                np.testing.assert_array_equal(cache, idx)
                assert values.tobytes() == full.tensors[li + 1].data.tobytes()
            else:
                assert cache is None
        for stop in (-1, n + 1):
            with pytest.raises(IndexError, match=rf"out of range \(0\.\.{n}\)"):
                forward_with_trace(model, np.zeros((1, 3, 3), dtype=np.float32), stop=stop)

    def test_shape_mismatch(self, rng):
        model, _ = random_conv_net(rng)
        with pytest.raises(DimensionError):
            forward_with_trace(model, np.zeros((1, 3, 3), dtype=np.float32))

    def test_dropout_only_in_training_mode(self):
        model = build_default_model((3, 32, 32), seed=3, conv_channels=(4, 4, 4, 4), dense_units=8)
        x = np.random.default_rng(0).random((3, 32, 32)).astype(np.float32)
        inference1, _ = forward_with_trace(model, x, training=False)
        inference2, _ = forward_with_trace(model, x, training=False)
        np.testing.assert_array_equal(inference1.data, inference2.data)
        t1, _ = forward_with_trace(model, x, training=True, rng=np.random.default_rng(5))
        t2, _ = forward_with_trace(model, x, training=True, rng=np.random.default_rng(5))
        t3, _ = forward_with_trace(model, x, training=True, rng=np.random.default_rng(6))
        np.testing.assert_array_equal(t1.data, t2.data)
        assert not np.array_equal(t1.data, t3.data)


class TestWeightPersistence:
    def test_round_trip_bit_exact(self, tmp_path, rng):
        model, _ = random_conv_net(rng)
        path = tmp_path / "w.rgtw"
        save_weights(model, path)
        loaded = load_weights(path, template=model)
        for name in model.param_names():
            np.testing.assert_array_equal(loaded.params[name].data, model.params[name].data)
        path2 = tmp_path / "w2.rgtw"
        save_weights(loaded, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_template_free_load_of_default_family(self, tmp_path):
        model = build_default_model((3, 32, 32), seed=9, conv_channels=(4, 6, 8, 10), dense_units=16)
        path = tmp_path / "w.rgtw"
        save_weights(model, path)
        loaded = load_weights(path)
        assert loaded.input_shape == (3, 32, 32)
        for name in model.param_names():
            np.testing.assert_array_equal(loaded.params[name].data, model.params[name].data)

    def test_template_free_load_draws_nothing(self, tmp_path, monkeypatch):
        model = build_default_model((3, 32, 32), seed=9, conv_channels=(4, 6), dense_units=16)
        path = tmp_path / "w.rgtw"
        save_weights(model, path)

        def no_draws(*args):
            raise AssertionError("load_weights drew init parameters")

        monkeypatch.setattr(network, "init_params", no_draws)
        for loaded in (load_weights(path), load_weights(path, template=model)):
            assert loaded.layers == model.layers
            assert (loaded.input_shape, loaded.n_classes) == ((3, 32, 32), 2)
            assert loaded.param_names() == model.param_names()
            for name in model.param_names():
                assert loaded.params[name].data.dtype == np.float32
                np.testing.assert_array_equal(loaded.params[name].data, model.params[name].data)

    def test_template_dims_checked(self, tmp_path):
        path = tmp_path / "w.rgtw"
        save_weights(build_default_model((3, 32, 32), seed=1, conv_channels=(4, 6), dense_units=16), path)
        other = build_default_model((3, 32, 32), seed=1, conv_channels=(4, 6), dense_units=8)
        with pytest.raises(FormatError, match=r"layer11.weight has dims \(2, 16\), expected \(2, 8\)"):
            load_weights(path, template=other)

    def test_inferred_layout_without_a_model_is_format_error(self, tmp_path):
        # a dense fan-in smaller than the last conv's channels infers a 0x0 input
        shapes = {"layer0": (4, 3, 3, 3), "layer4": (4, 4, 3, 3), "layer9": (8, 2), "layer11": (2, 8)}
        params = {}
        for layer, shape in shapes.items():
            params[f"{layer}.weight"] = Tensor(np.zeros(shape))
            params[f"{layer}.bias"] = Tensor(np.zeros(shape[0]))
        path = tmp_path / "w.rgtw"
        save_weights(Model([], params, (3, 4, 4)), path)
        with pytest.raises(FormatError, match="no valid model"):
            load_weights(path)

    def test_corrupted_magic(self, tmp_path, rng):
        model, _ = random_conv_net(rng)
        path = tmp_path / "w.rgtw"
        save_weights(model, path)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"XXXX"
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError):
            load_weights(path, template=model)

    def test_wrong_tensor_count(self, tmp_path, rng):
        model, _ = random_conv_net(rng)
        path = tmp_path / "w.rgtw"
        save_weights(model, path)
        blob = bytearray(path.read_bytes())
        # header: magic u32 version u32 count -> bump the tensor count
        count = int.from_bytes(blob[8:12], "little")
        blob[8:12] = (count + 1).to_bytes(4, "little")
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError):
            load_weights(path, template=model)

    def test_truncated_file(self, tmp_path, rng):
        model, _ = random_conv_net(rng)
        path = tmp_path / "w.rgtw"
        save_weights(model, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 7])
        with pytest.raises(FormatError):
            load_weights(path, template=model)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_names_its_tensor(self, tmp_path, rng, value):
        model, _ = random_conv_net(rng)
        name = model.param_names()[-1]
        model.params[name].data.reshape(-1)[-1] = value
        path = tmp_path / "w.rgtw"
        save_weights(model, path)
        with pytest.raises(NumericalError, match=rf"^weight tensor {re.escape(name)} holds"):
            load_weights(path, template=model)
        with pytest.raises(NumericalError, match=rf"^weight tensor {re.escape(name)} holds"):
            load_weights(path)
