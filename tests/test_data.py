"""Synthetic dataset generator: determinism, mask invariants, the spurious
distractor contract, augmentation, and the file format."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relguide.data import (
    GeneratorConfig,
    LabeledSample,
    augment,
    generate,
    load_dataset,
    load_sample,
    make_sample,
    rigid_transform,
    save_dataset,
)
from relguide.errors import ConfigError, FormatError, NumericalError


def _has_distractor(sample: LabeledSample) -> bool:
    """Bright pixels outside the object are the distractor's signature."""
    mean_img = sample.image.mean(axis=0)
    outside = mean_img[sample.object_mask == 0]
    return bool((outside > 0.35).any())


SMALL = GeneratorConfig(samples_per_class=8, seed=42)


class TestGenerate:
    def test_same_seed_bit_identical(self):
        a = generate(SMALL)
        b = generate(SMALL)
        for sa, sb in zip(a, b):
            np.testing.assert_array_equal(sa.image, sb.image)
            np.testing.assert_array_equal(sa.object_mask, sb.object_mask)
            np.testing.assert_array_equal(sa.lesion_mask, sb.lesion_mask)
            assert (sa.label, sa.sample_id) == (sb.label, sb.sample_id)

    def test_different_seed_differs(self):
        a = generate(SMALL)
        b = generate(GeneratorConfig(samples_per_class=8, seed=43))
        assert any(not np.array_equal(sa.image, sb.image) for sa, sb in zip(a, b))

    def test_balanced_classes(self):
        samples = generate(SMALL)
        labels = [s.label for s in samples]
        assert labels.count(0) == 8 and labels.count(1) == 8

    def test_rho_one_distractor_iff_label_one(self):
        cfg = GeneratorConfig(samples_per_class=12, seed=7, distractor_rho=1.0)
        for s in generate(cfg):
            assert _has_distractor(s) == (s.label == 1), f"sample {s.sample_id}"

    def test_rho_zero_distractor_iff_label_zero(self):
        cfg = GeneratorConfig(samples_per_class=12, seed=7, distractor_rho=0.0)
        for s in generate(cfg):
            assert _has_distractor(s) == (s.label == 0), f"sample {s.sample_id}"

    def test_lesion_area_within_range_by_pixel_count(self):
        cfg = GeneratorConfig(samples_per_class=20, seed=3)
        for s in generate(cfg):
            frac = s.lesion_mask.sum() / s.object_mask.sum()
            assert cfg.lesion_area_min <= frac <= cfg.lesion_area_max

    def test_lesion_inside_object_and_nonempty(self):
        for s in generate(SMALL):
            assert s.lesion_mask.any()
            assert not (s.lesion_mask.astype(bool) & ~s.object_mask.astype(bool)).any()

    def test_values_in_unit_interval(self):
        for s in generate(SMALL):
            assert s.image.min() >= 0.0 and s.image.max() <= 1.0
            assert s.image.dtype == np.float32

    def test_impossible_lesion_raises(self):
        cfg = GeneratorConfig(samples_per_class=1, seed=0,
                              lesion_area_min=0.97, lesion_area_max=0.98)
        with pytest.raises(ConfigError):
            generate(cfg)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            GeneratorConfig(lesion_area_min=0.2, lesion_area_max=0.1)
        with pytest.raises(ConfigError):
            GeneratorConfig(distractor_rho=1.5)
        with pytest.raises(ConfigError):
            GeneratorConfig(height=8)

    def test_non_square_refused_after_size_check(self):
        with pytest.raises(ConfigError, match="square, got 32x48"):
            GeneratorConfig(height=32, width=48)
        with pytest.raises(ConfigError, match="at least 16x16"):
            GeneratorConfig(height=8, width=48)

    @pytest.mark.parametrize("key", [
        "lesion_area_min", "lesion_area_max", "texture_contrast", "distractor_rho", "noise_sigma",
    ])
    def test_config_validation_nan(self, key):
        with pytest.raises(ConfigError):
            GeneratorConfig(**{key: float("nan")})


class TestAugment:
    def test_identity_transform(self):
        s = make_sample(SMALL, 0, 0)
        t = rigid_transform(s, 0, False, False)
        np.testing.assert_array_equal(t.image, s.image)
        np.testing.assert_array_equal(t.lesion_mask, s.lesion_mask)

    def test_half_turn_is_involution(self):
        s = make_sample(SMALL, 1, 1)
        t = rigid_transform(rigid_transform(s, 2, False, False), 2, False, False)
        np.testing.assert_array_equal(t.image, s.image)
        np.testing.assert_array_equal(t.object_mask, s.object_mask)

    @settings(max_examples=32, deadline=None)
    @given(k=st.integers(0, 3), fh=st.booleans(), fv=st.booleans(), sid=st.integers(0, 5))
    def test_masks_move_with_image(self, k, fh, fv, sid):
        s = make_sample(SMALL, sid, sid % 2)
        t = rigid_transform(s, k, fh, fv)
        assert t.lesion_mask.sum() == s.lesion_mask.sum()
        assert t.object_mask.sum() == s.object_mask.sum()
        assert not (t.lesion_mask.astype(bool) & ~t.object_mask.astype(bool)).any()
        # the image content moves identically: transformed lesion pixels
        # carry the same multiset of values
        orig_vals = np.sort(s.image[0][s.lesion_mask.astype(bool)])
        new_vals = np.sort(t.image[0][t.lesion_mask.astype(bool)])
        np.testing.assert_array_equal(orig_vals, new_vals)

    def test_augment_draws_cover_identity(self):
        s = make_sample(SMALL, 0, 0)
        seen_unchanged = False
        rng = np.random.default_rng(0)
        for _ in range(64):
            t = augment(s, rng)
            if np.array_equal(t.image, s.image):
                seen_unchanged = True
                break
        assert seen_unchanged

    def test_non_square_rotation_rejected(self):
        img = np.zeros((3, 4, 6), dtype=np.float32)
        mask = np.zeros((4, 6), dtype=np.uint8)
        mask[1, 1] = 1
        s = LabeledSample(img, mask, mask, 0, 0)
        with pytest.raises(ConfigError):
            rigid_transform(s, 1, False, False)

    def test_label_and_id_preserved(self):
        s = make_sample(SMALL, 4, 0)
        t = rigid_transform(s, 3, True, True)
        assert (t.label, t.sample_id) == (s.label, s.sample_id)


class TestPersistence:
    def test_round_trip_bit_exact(self, tmp_path):
        samples = generate(SMALL)
        p1 = tmp_path / "d.rgtd"
        p2 = tmp_path / "d2.rgtd"
        save_dataset(samples, p1)
        loaded = load_dataset(p1)
        assert len(loaded) == len(samples)
        for a, b in zip(samples, loaded):
            np.testing.assert_array_equal(a.image, b.image)
            np.testing.assert_array_equal(a.object_mask, b.object_mask)
            np.testing.assert_array_equal(a.lesion_mask, b.lesion_mask)
            assert (a.label, a.sample_id) == (b.label, b.sample_id)
        save_dataset(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_truncated_file(self, tmp_path):
        p = tmp_path / "d.rgtd"
        save_dataset(generate(SMALL), p)
        p.write_bytes(p.read_bytes()[:-10])
        with pytest.raises(FormatError):
            load_dataset(p)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "d.rgtd"
        save_dataset(generate(SMALL), p)
        blob = bytearray(p.read_bytes())
        blob[:4] = b"ZZZZ"
        p.write_bytes(bytes(blob))
        with pytest.raises(FormatError):
            load_dataset(p)

    def test_header_count_matches(self, tmp_path):
        p = tmp_path / "d.rgtd"
        samples = generate(SMALL)
        save_dataset(samples, p)
        import struct

        with open(p, "rb") as f:
            f.read(4)
            _, n, c, h, w = struct.unpack("<IIIII", f.read(20))
        assert n == len(samples) == len(load_dataset(p))
        assert (c, h, w) == samples[0].image.shape


def _same_sample(a, b):
    assert (a.label, a.sample_id) == (b.label, b.sample_id)
    for field in ("image", "object_mask", "lesion_mask"):
        x, y = getattr(a, field), getattr(b, field)
        assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes())


class TestLoadSample:
    @pytest.fixture(scope="class")
    def path(self, tmp_path_factory):
        samples = generate(SMALL, id_offset=1_000_000)
        # a repeated id, which load_sample refuses; the other ids stay readable
        samples.insert(5, LabeledSample(samples[9].image[:, ::-1], samples[9].object_mask,
                                        samples[9].lesion_mask, 1 - samples[9].label,
                                        samples[2].sample_id))
        p = tmp_path_factory.mktemp("sample") / "d.rgtd"
        save_dataset(samples, p)
        return p

    def test_equals_pick_from_full_load(self, path):
        dataset = load_dataset(path)
        ids = [s.sample_id for s in dataset]
        assert ids.count(ids[5]) == 2
        for sid in (ids[0], ids[len(ids) // 2], ids[-1], ids[6]):
            _same_sample(load_sample(path, sid), next(s for s in dataset if s.sample_id == sid))

    def test_repeated_id_refused(self, path):
        """A file that holds the id twice names it, whichever record comes
        first, instead of reading one of them."""
        sid = load_dataset(path)[5].sample_id
        with pytest.raises(FormatError, match=f"^dataset sample id {sid} appears more than once$"):
            load_sample(path, sid)

    def test_missing_id(self, path):
        assert load_sample(path, 424242) is None
        assert load_sample(path, -1) is None

    @pytest.mark.parametrize("edit", ["truncate", "trailing", "magic"])
    def test_refuses_what_load_dataset_refuses(self, path, tmp_path, edit):
        blob = path.read_bytes()
        bad = tmp_path / "bad.rgtd"
        bad.write_bytes({"truncate": blob[:-1], "trailing": blob + b"\0",
                         "magic": b"ZZZZ" + blob[4:]}[edit])
        with pytest.raises(FormatError) as full:
            load_dataset(bad)
        with pytest.raises(FormatError) as one:
            load_sample(bad, 1_000_000)  # the first record: no scan would reach the tail
        assert str(one.value) == str(full.value)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_pixel_refused_by_sample_id(self, path, tmp_path, value):
        samples = load_dataset(path)
        samples[3].image[2, 5, 7] = value
        bad = tmp_path / "bad.rgtd"
        save_dataset(samples, bad)
        sid = samples[3].sample_id
        with pytest.raises(NumericalError, match=f"^dataset sample {sid} holds a non-finite"):
            load_dataset(bad)
        with pytest.raises(NumericalError, match=f"^dataset sample {sid} holds a non-finite"):
            load_sample(bad, sid)
        # load_sample reads one record: the others' pixels are not its to check
        _same_sample(load_sample(bad, samples[0].sample_id), samples[0])
