import dataclasses
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from winmix import data
from winmix.data import (
    DatasetSpec,
    dataset_from_wdat,
    gen_dataset,
    nearest_centroid_accuracy,
)
from winmix.io import CheckpointError, load_wdat, save_wdat


class TestGeneration:
    def test_same_seed_bit_identical(self):
        a = gen_dataset(DatasetSpec(seed=5))
        b = gen_dataset(DatasetSpec(seed=5))
        np.testing.assert_array_equal(a.train_images, b.train_images)
        np.testing.assert_array_equal(a.val_images, b.val_images)
        np.testing.assert_array_equal(a.train_labels, b.train_labels)

    def test_different_seed_differs(self):
        a = gen_dataset(DatasetSpec(seed=5, n_train=64, n_val=8))
        b = gen_dataset(DatasetSpec(seed=6, n_train=64, n_val=8))
        assert np.abs(a.train_images - b.train_images).max() > 0

    def test_class_balance_and_disjoint_split(self):
        ds = gen_dataset(DatasetSpec(n_train=64, n_val=32))
        for labels, n in [(ds.train_labels, 64), (ds.val_labels, 32)]:
            counts = np.bincount(labels, minlength=4)
            assert (counts == n // 4).all()
        # splits come from disjoint draws: no identical images across them
        flat_t = ds.train_images.reshape(64, -1)
        flat_v = ds.val_images.reshape(32, -1)
        assert not any((flat_t == v).all(axis=1).any() for v in flat_v)

    def test_zero_noise_zero_jitter_collapses_within_class(self, monkeypatch):
        for name, value in [("PHASE_JITTER", 0.0), ("ORIENT_JITTER", 0.0),
                            ("AMP_MIN", 0.4), ("AMP_MAX", 0.4)]:
            monkeypatch.setattr(data, name, value)
        ds = gen_dataset(DatasetSpec(n_train=16, n_val=8, noise=0.0))
        for c in range(4):
            imgs = ds.train_images[ds.train_labels == c]
            np.testing.assert_array_equal(imgs, np.broadcast_to(imgs[0], imgs.shape))

    def test_nearest_centroid_above_chance_below_90(self):
        ds = gen_dataset(DatasetSpec())
        acc = nearest_centroid_accuracy(ds)
        assert 0.3 < acc < 0.9

    def test_quadrant_parity_layout(self):
        spec = DatasetSpec(seed=3, mode="quadrant-parity", classes=2, size=16,
                           n_train=32, n_val=8)
        ds, again = gen_dataset(spec), gen_dataset(spec)
        np.testing.assert_array_equal(ds.train_images, again.train_images)
        np.testing.assert_array_equal(ds.val_images, again.val_images)
        assert ds.train_images.shape == (32, 16, 16, 3)
        assert ds.val_images.shape == (8, 16, 16, 3)
        for labels, n in [(ds.train_labels, 32), (ds.val_labels, 8)]:
            assert (np.bincount(labels, minlength=2) == n // 2).all()
        # only the diagonal quadrants carry gratings; the others are grey plus noise
        x = ds.train_images
        off = np.concatenate([x[:, :8, 8:], x[:, 8:, :8]])
        on = np.concatenate([x[:, :8, :8], x[:, 8:, 8:]])
        assert abs(off.mean() - 0.5) < 0.01
        assert off.std() < 1.05 * spec.noise < 2 * spec.noise < on.std()
        flat = gen_dataset(dataclasses.replace(spec, noise=0.0)).train_images
        assert (flat[:, :8, 8:] == 0.5).all() and (flat[:, 8:, :8] == 0.5).all()

    def test_unbalanced_count_rejected(self):
        with pytest.raises(ValueError):
            gen_dataset(DatasetSpec(n_train=63))

    def test_bad_mode_and_classes(self):
        with pytest.raises(ValueError):
            gen_dataset(DatasetSpec(mode="stripes"))
        with pytest.raises(ValueError):
            gen_dataset(DatasetSpec(mode="seam-phase", classes=4))
        with pytest.raises(ValueError):
            gen_dataset(DatasetSpec(classes=1, n_train=64, n_val=8))
        for mode in ("textures", "quadrant-parity"):  # only seam-phase takes a height
            with pytest.raises(ValueError):
                gen_dataset(DatasetSpec(mode=mode, classes=2, size=16, height=8,
                                        n_train=4, n_val=2))

    def test_seam_phase_halves_individually_uninformative(self):
        for size, height in ((32, None), (128, 8)):
            ds = gen_dataset(DatasetSpec(mode="seam-phase", classes=2, size=size,
                                         height=height, n_train=512, n_val=256))
            # nearest centroid on raw pixels stays at chance: the label lives in
            # the relative phase, not in either half's marginal content
            acc = nearest_centroid_accuracy(ds)
            assert abs(acc - 0.5) < 0.08, (size, height, acc)

    def test_seam_phase_height_sets_rows(self):
        ds = gen_dataset(DatasetSpec(mode="seam-phase", classes=2, size=128,
                                     height=8, n_train=4, n_val=2))
        assert ds.train_images.shape == (4, 8, 128, 3)
        assert ds.val_images.shape == (2, 8, 128, 3)

    def test_spec_round_trip(self):
        spec = DatasetSpec(seed=2, mode="quadrant-parity", classes=2)
        assert DatasetSpec.from_dict(spec.to_dict()) == spec
        wide = DatasetSpec(mode="seam-phase", classes=2, size=128, height=8)
        assert DatasetSpec.from_dict(wide.to_dict()) == wide

    def test_spec_from_dict_names_unknown_keys(self):
        with pytest.raises(ValueError, match=r"\['bogus'\]"):
            DatasetSpec.from_dict({"n_train": 16, "bogus": 3})
        with pytest.raises(ValueError, match="JSON object"):
            DatasetSpec.from_dict("n_train")

    def test_spec_from_dict_checks_value_types(self):
        spec = DatasetSpec.from_dict({"noise": 0, "height": None, "mode": "seam-phase"})
        assert (spec.noise, spec.height) == (0, None)
        for bad in ({"n_train": "16"}, {"n_train": False}, {"height": "8"}, {"mode": 2},
                    {"noise": "0.1"}):
            with pytest.raises(ValueError, match=f"'{next(iter(bad))}' must be"):
                DatasetSpec.from_dict(bad)

    def test_spec_without_height_loads_square(self):
        d = DatasetSpec(seed=2).to_dict()
        del d["height"]
        spec = DatasetSpec.from_dict(d)
        assert spec.height is None
        assert gen_dataset(dataclasses.replace(spec, n_train=4, n_val=4)
                           ).train_images.shape == (4, 32, 32, 3)

    # the grating fields a spec had before they became constants, at the one
    # value every earlier spec file could hold
    RETIRED_SPEC_FIELDS = {"phase_jitter": 2.0, "orient_jitter": 0.08, "amp_min": 0.3,
                           "amp_max": 0.45, "base_freq": 2.0, "freq_step": 1.5}

    def test_old_spec_with_every_retired_field_loads(self):
        spec = DatasetSpec(seed=3, mode="quadrant-parity", classes=2, size=16)
        assert DatasetSpec.from_dict(spec.to_dict() | self.RETIRED_SPEC_FIELDS) == spec
        assert DatasetSpec.from_dict({"base_freq": 2}) == DatasetSpec()  # a JSON int fits

    @pytest.mark.parametrize("key", sorted(RETIRED_SPEC_FIELDS))
    def test_retired_field_loads_at_old_value_only(self, key):
        old = self.RETIRED_SPEC_FIELDS[key]
        assert DatasetSpec.from_dict({key: old, "seed": 4}) == DatasetSpec(seed=4)
        for bad in (old + 1.0, -old, str(old), True, None, [old], float("nan"),
                    float("inf")):
            with pytest.raises(ValueError, match=f"retired dataset spec field '{key}' "
                                                 f"must be {old}"):
                DatasetSpec.from_dict({key: bad})

    @pytest.mark.parametrize("noise", [-1.0, -1e-9, float("nan"), float("inf")])
    def test_bad_noise_rejected(self, noise):
        with pytest.raises(ValueError, match="noise must be finite and >= 0"):
            DatasetSpec(noise=noise)
        with pytest.raises(ValueError, match="noise must be finite and >= 0"):
            DatasetSpec.from_dict({"noise": noise})

    @pytest.mark.parametrize("size", [15, 33])
    def test_quadrant_parity_odd_size_rejected(self, size):
        with pytest.raises(ValueError, match="quadrant-parity mode needs an even size"):
            DatasetSpec(mode="quadrant-parity", classes=2, size=size)
        # the other modes take odd sizes
        assert gen_dataset(DatasetSpec(size=size, n_train=4, n_val=4)
                           ).train_images.shape == (4, size, size, 3)


    # sha256 over the train/val images and labels of each spec; a change to
    # the generators' formulas or RNG draw order changes the digest
    FROZEN_DATASET_DIGESTS = [
        (dict(mode="textures", seed=0, n_train=64, n_val=32, classes=4, size=32),
         "6c57711c57eb2030d966f02c0ae46793bba4c15711658dd5560c2e52bb49cb6e"),
        (dict(mode="textures", seed=3, n_train=48, n_val=24, classes=8, size=24, noise=0.3),
         "c494c64eaa6a7a18a157950dde6fe849aedf84aebfb1727518330042d38e9ced"),
        (dict(mode="quadrant-parity", seed=0, n_train=64, n_val=32, classes=2, size=32),
         "31b8e6f779c0216450bb9c064a69bb99e06fc050e78d87936a366e95efa1d338"),
        (dict(mode="quadrant-parity", seed=3, n_train=32, n_val=16, classes=2, size=16),
         "fbadb31aaed2b3c3696dbb1829282f4435dc736996d7cbb75079fff92ba17ca7"),
        (dict(mode="seam-phase", seed=0, n_train=32, n_val=16, classes=2, size=128, height=8),
         "428f08d9caf8d47b28ded79474a209e699a14e4bca1adb35844120804d7ae927"),
        (dict(mode="seam-phase", seed=3, n_train=32, n_val=16, classes=2, size=32),
         "0c7ecbeca3acd72fc7e444494d2ac36022ad6bf76d5b1561da273e2ed1babe83"),
    ]

    @pytest.mark.parametrize("kw, digest", FROZEN_DATASET_DIGESTS,
                             ids=[f"{kw['mode']}-{kw['seed']}" for kw, _ in FROZEN_DATASET_DIGESTS])
    def test_dataset_digest_frozen(self, kw, digest):
        ds = gen_dataset(DatasetSpec(**kw))
        h = hashlib.sha256()
        for a in (ds.train_images, ds.train_labels, ds.val_images, ds.val_labels):
            h.update(a.tobytes())
        assert h.hexdigest() == digest


class TestWdat:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        images = rng.integers(0, 256, size=(10, 8, 8, 3)).astype(np.uint8)
        labels = rng.integers(0, 4, size=10).astype(np.uint16)
        path = tmp_path / "d.wdat"
        save_wdat(path, images, labels)
        loaded_images, loaded_labels = load_wdat(path)
        np.testing.assert_allclose(loaded_images, images / 255.0, atol=1e-7)
        np.testing.assert_array_equal(loaded_labels, labels)

    def test_header_layout(self, tmp_path):
        import struct
        path = tmp_path / "d.wdat"
        save_wdat(path, np.zeros((2, 4, 6, 3), dtype=np.uint8),
                  np.zeros(2, dtype=np.uint16))
        raw = path.read_bytes()
        assert raw[:4] == b"WDAT"
        assert struct.unpack_from("<IHHH", raw, 4) == (2, 4, 6, 3)
        assert len(raw) == 14 + 2 * 4 * 6 * 3 + 2 * 2

    def test_dataset_pair_loader(self, tmp_path):
        ds = gen_dataset(DatasetSpec(n_train=16, n_val=8))
        ds.save_wdat(tmp_path / "train.wdat", tmp_path / "val.wdat")
        loaded = dataset_from_wdat(tmp_path / "train.wdat", tmp_path / "val.wdat")
        assert loaded.train_images.shape == ds.train_images.shape
        np.testing.assert_array_equal(loaded.train_labels, ds.train_labels)
        # u8 quantization bounds the round-trip error
        assert np.abs(loaded.train_images - ds.train_images).max() <= 0.5 / 255

    def test_failed_save_keeps_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "d.wdat"
        save_wdat(path, np.zeros((2, 4, 4, 3), dtype=np.uint8), np.zeros(2, dtype=np.uint16))
        good = path.read_bytes()

        def fail(fd):
            raise OSError("disk full")

        monkeypatch.setattr("os.fsync", fail)  # every byte is written, then the sync fails
        with pytest.raises(OSError, match="disk full"):
            save_wdat(path, np.ones((3, 4, 4, 3), dtype=np.uint8), np.ones(3, dtype=np.uint16))
        assert path.read_bytes() == good
        assert [p.name for p in tmp_path.iterdir()] == ["d.wdat"]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64, np.uint16, np.int64])
    def test_images_other_than_uint8_rejected_before_writing(self, tmp_path, dtype):
        # float images in load_wdat's [0, 1] form used to be written as 0 or 1
        images = np.full((2, 4, 4, 3), 0.5, dtype=dtype)
        with pytest.raises(CheckpointError, match=f"images must be uint8, got {np.dtype(dtype)}"):
            save_wdat(tmp_path / "d.wdat", images, np.zeros(2, dtype=np.uint16))
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("bad", [-1, 65536, 70000])
    def test_label_outside_u16_rejected_before_writing(self, tmp_path, bad):
        # -1 and 70000 used to come back as 65535 and 4464
        labels = np.array([0, bad, 1])
        with pytest.raises(CheckpointError, match=f"label {bad} outside"):
            save_wdat(tmp_path / "d.wdat", np.zeros((3, 4, 4, 3), dtype=np.uint8), labels)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("labels", [
        np.array([0.0, 1.5, 2.9]),  # used to be written as [0, 1, 2]
        np.array([0.0, np.nan, 1.0]),  # NaN passed the range check
        np.array([True, False, True]),
        np.array([0, 1, 2], dtype=np.float32),
    ], ids=["fractional", "nan", "bool", "whole-float"])
    def test_non_integer_labels_rejected_before_writing(self, tmp_path, labels):
        with pytest.raises(CheckpointError, match=f"labels must be integers, got {labels.dtype}"):
            save_wdat(tmp_path / "d.wdat", np.zeros((3, 4, 4, 3), dtype=np.uint8), labels)
        assert list(tmp_path.iterdir()) == []

    def test_dataset_labels_checked_uncast(self, tmp_path):
        ds = gen_dataset(DatasetSpec(n_train=16, n_val=8))
        ds.val_labels[2] = 70000
        with pytest.raises(CheckpointError, match="label 70000 outside"):
            ds.save_wdat(tmp_path / "train.wdat", tmp_path / "val.wdat")

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "d.wdat"
        save_wdat(path, np.zeros((2, 4, 4, 3), dtype=np.uint8),
                  np.zeros(2, dtype=np.uint16))
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(CheckpointError):
            load_wdat(path)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 3), st.integers(1, 5), st.integers(1, 5), st.integers(1, 3), st.data())
    def test_every_strict_prefix_rejected(self, tmp_path_factory, n, h, w, c, data):
        path = tmp_path_factory.mktemp("cut") / "d.wdat"
        save_wdat(path, np.zeros((n, h, w, c), dtype=np.uint8), np.zeros(n, dtype=np.uint16))
        raw = path.read_bytes()
        boundaries = [0, 4, 14, 14 + n * h * w * c]  # magic, header, pixels, labels
        drawn = data.draw(st.integers(0, len(raw) - 1), label="cut")
        for cut in sorted({b for b in boundaries if b < len(raw)} | {drawn}):
            path.write_bytes(raw[:cut])
            with pytest.raises(CheckpointError):
                load_wdat(path)

    @pytest.mark.parametrize("size", [4, 7, 13])
    def test_short_header_rejected(self, tmp_path, size):
        path = tmp_path / "d.wdat"
        save_wdat(path, np.zeros((2, 4, 4, 3), dtype=np.uint8),
                  np.zeros(2, dtype=np.uint16))
        path.write_bytes(path.read_bytes()[:size])
        with pytest.raises(CheckpointError, match="truncated header"):
            load_wdat(path)

    @pytest.mark.parametrize("extra", [1, 2, 100])
    def test_trailing_bytes_rejected(self, tmp_path, extra):
        path = tmp_path / "d.wdat"
        save_wdat(path, np.zeros((2, 4, 4, 3), dtype=np.uint8),
                  np.zeros(2, dtype=np.uint16))
        path.write_bytes(path.read_bytes() + b"\x00" * extra)
        with pytest.raises(CheckpointError, match=f"{extra} trailing bytes"):
            load_wdat(path)
