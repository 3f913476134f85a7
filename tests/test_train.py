import dataclasses
import importlib
import json
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from winmix.aggregators import AGGREGATOR_KINDS
from winmix.analytics import count_params
from winmix.data import DatasetSpec, gen_dataset
from winmix.io import CheckpointError, load_checkpoint, save_checkpoint
from winmix.model import ModelConfig, build_model, forward, load_model, preset, save_model
from winmix.tensor import Tensor
from winmix.train import (
    DivergenceError,
    Hyperparams,
    TrainState,
    evaluate,
    load_state,
    lr_at,
    save_state,
    smoothed_cross_entropy,
    train,
)

from oracles import adamw_step_ref

CFG = ModelConfig(width=8, depths=(1, 1, 1, 1), window=2, classes=4, groups=4)
# hyperparameters retired for being fixed by the training recipe, at the one
# value every earlier file could hold
RETIRED_HP = {"beta1": 0.9, "beta2": 0.999, "eps": 1e-8, "label_smoothing": 0.1}


@pytest.fixture(scope="module")
def small_data():
    return gen_dataset(DatasetSpec(n_train=128, n_val=32, size=16))


class TestSchedule:
    def test_warmup_then_cosine_to_zero(self):
        hp = Hyperparams(lr=1e-3, steps=200, warmup_frac=0.1)
        assert lr_at(hp, 1) == pytest.approx(1e-3 / 20)
        assert lr_at(hp, 20) == pytest.approx(1e-3)
        assert lr_at(hp, 110) == pytest.approx(1e-3 / 2)
        assert lr_at(hp, 200) == pytest.approx(0.0, abs=1e-12)

    def test_monotone_after_warmup(self):
        hp = Hyperparams(steps=100, warmup_frac=0.05)
        rates = [lr_at(hp, t) for t in range(5, 101)]
        assert all(a >= b for a, b in zip(rates, rates[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            Hyperparams(lr=-1.0)
        with pytest.raises(ValueError):
            Hyperparams(warmup_frac=1.5)
        with pytest.raises(ValueError, match="label_smoothing"):
            Hyperparams.from_dict({"label_smoothing": 1.0})
        with pytest.raises(ValueError):
            Hyperparams(steps=0)

    @pytest.mark.parametrize("key, value", [
        ("beta1", 1.0), ("beta1", -0.1), ("beta2", 1.5), ("eps", 0.0), ("eps", -1e-8),
        ("lr", math.nan), ("lr", math.inf), ("weight_decay", math.nan)])
    def test_optimizer_constants_validated(self, key, value):
        # each of these used to train a step and then fail or run silently;
        # beta1, beta2 and eps are constants, which a file may name only at
        # their values
        with pytest.raises(ValueError, match=key):
            Hyperparams.from_dict(json.loads(json.dumps({key: value})))
        if key in RETIRED_HP:
            with pytest.raises(TypeError, match=key):
                Hyperparams(**{key: value})
        else:
            with pytest.raises(ValueError, match=f"^{key} must be finite and >= 0, got {value}$"):
                Hyperparams(**{key: value})

    @pytest.mark.parametrize("key, value", [
        ("lr", -1.0), ("weight_decay", -0.5), ("warmup_frac", 1.5), ("steps", 0),
        ("batch_size", 0), ("batch_size", -4), ("eval_every", 0), ("target_accuracy", 2.0)])
    def test_each_error_names_one_field_and_value(self, key, value):
        # a message that names several fields leaves the culprit open
        with pytest.raises(ValueError, match=f"^{key} must .*, got {value}$"):
            Hyperparams(**{key: value})

    def test_old_dict_with_every_retired_field_loads(self):
        old = json.loads(json.dumps(Hyperparams(steps=7).to_dict() | RETIRED_HP))
        assert len(old) == 11
        assert Hyperparams.from_dict(old) == Hyperparams(steps=7)
        assert len(Hyperparams().to_dict()) == 7

    @pytest.mark.parametrize("key", sorted(RETIRED_HP))
    def test_retired_field_loads_at_old_value_only(self, key):
        old = RETIRED_HP[key]
        assert Hyperparams.from_dict({key: old, "steps": 3}) == Hyperparams(steps=3)
        for bad in (old * 2, -old, 0, 1, str(old), True, None, [old], math.nan, math.inf):
            with pytest.raises(ValueError, match=f"retired hyperparameter field '{key}' "
                                                 f"must be {old}, got"):
                Hyperparams.from_dict(json.loads(json.dumps({key: bad})))

    @pytest.mark.parametrize("value", [2.0, 1.0001, -0.1, math.nan, math.inf])
    def test_target_accuracy_outside_unit_interval_rejected(self, value):
        # an accuracy can never reach these, so early stopping would never fire
        with pytest.raises(ValueError, match="target_accuracy must be finite"):
            Hyperparams(target_accuracy=value)
        with pytest.raises(ValueError, match="target_accuracy must be finite"):
            Hyperparams.from_dict(json.loads(json.dumps({"target_accuracy": value})))
        assert Hyperparams(target_accuracy=0).target_accuracy == 0
        assert Hyperparams(target_accuracy=1.0).target_accuracy == 1.0

    def test_from_dict_names_unknown_keys(self):
        assert Hyperparams.from_dict({"steps": 2}) == Hyperparams(steps=2)
        with pytest.raises(ValueError, match=r"\['bogus'\]"):
            Hyperparams.from_dict({"steps": 2, "bogus": 1})
        with pytest.raises(ValueError, match="JSON object"):
            Hyperparams.from_dict([2])

    def test_from_dict_checks_value_types(self):
        # a JSON int fits a float field; a bool is not an int
        assert Hyperparams.from_dict({"lr": 1, "target_accuracy": None}).lr == 1
        assert Hyperparams.from_dict({"target_accuracy": 0.5}).target_accuracy == 0.5
        for bad in ({"steps": "2"}, {"steps": True}, {"steps": 2.0},
                    {"lr": "0.1"}, {"target_accuracy": "high"}):
            with pytest.raises(ValueError, match=f"'{next(iter(bad))}' must be"):
                Hyperparams.from_dict(bad)


class TestLoss:
    def test_uniform_logits_loss_is_log_k(self):
        logits = Tensor(np.zeros((6, 4), dtype=np.float64))
        loss = smoothed_cross_entropy(logits, np.arange(6) % 4, smoothing=0.1)
        assert loss.item() == pytest.approx(np.log(4))

    def test_smoothing_floor(self):
        # confident correct logits: loss approaches the smoothing entropy floor
        logits = np.full((4, 4), -30.0)
        logits[np.arange(4), np.arange(4)] = 30.0
        loss = smoothed_cross_entropy(Tensor(logits, dtype=np.float64),
                                      np.arange(4), smoothing=0.1).item()
        assert 0 < loss < 5.0
        hard = smoothed_cross_entropy(Tensor(logits, dtype=np.float64),
                                      np.arange(4), smoothing=0.0).item()
        assert hard < loss


class TestTraining:
    @pytest.mark.parametrize("bad", [-1, 4, 7])
    def test_out_of_range_training_label_rejected_before_step_1(self, small_data, bad,
                                                                 monkeypatch):
        labels = small_data.train_labels.copy()
        labels[[5, 9]] = bad, 9
        data = dataclasses.replace(small_data, train_labels=labels)

        def no_steps(*args):
            raise AssertionError("a training step ran")

        monkeypatch.setattr(importlib.import_module("winmix.train"), "forward", no_steps)
        with pytest.raises(ValueError, match=f"training label {bad} out of range for 4"):
            train(CFG, data, Hyperparams(steps=2), seed=0)

    def test_empty_validation_split_rejected_before_first_step(self, small_data,
                                                               monkeypatch, tmp_path):
        data = dataclasses.replace(small_data, val_images=small_data.val_images[:0],
                                   val_labels=small_data.val_labels[:0])

        def no_steps(*args):
            raise AssertionError("a training step ran")

        monkeypatch.setattr(importlib.import_module("winmix.train"), "forward", no_steps)
        with pytest.raises(ValueError, match="validation split is empty"):
            train(CFG, data, Hyperparams(steps=2), seed=0, out_dir=tmp_path)
        assert not (tmp_path / "last_good.wmix").exists()

    @pytest.mark.parametrize("split, n_images, n_labels",
                             [("training", 8, 4), ("validation", 4, 8)])
    def test_count_mismatch_rejected_before_step_1(self, small_data, split, n_images,
                                                   n_labels, monkeypatch):
        # 8 training images with 4 labels died in the first batch with an
        # IndexError; 4 validation images with 8 labels trained up to the
        # first eval before evaluate raised
        prefix = "train" if split == "training" else "val"
        data = dataclasses.replace(small_data, **{
            f"{prefix}_images": getattr(small_data, f"{prefix}_images")[:n_images],
            f"{prefix}_labels": getattr(small_data, f"{prefix}_labels")[:n_labels]})

        def no_steps(*args):
            raise AssertionError("a training step ran")

        monkeypatch.setattr(importlib.import_module("winmix.train"), "forward", no_steps)
        with pytest.raises(ValueError,
                           match=f"{split} split has {n_images} images but {n_labels} labels"):
            train(CFG, data, Hyperparams(steps=2, batch_size=4, eval_every=2), seed=0)

    def test_lr_zero_keeps_parameters(self, small_data):
        hp = Hyperparams(lr=0.0, steps=5, eval_every=5)
        before = {k: t.numpy().copy() for k, t in build_model(CFG, seed=0).params.items()}
        state = train(CFG, small_data, hp, seed=0)
        for k, arr in before.items():
            np.testing.assert_array_equal(state.model.params[k].numpy(), arr)
        losses = state.step_losses
        assert max(losses) - min(losses) < 0.5  # flat-ish: only batch noise

    def test_loss_decreases(self, small_data):
        hp = Hyperparams(steps=60, eval_every=60)
        state = train(CFG, small_data, hp, seed=0)
        assert state.step_losses[-1] < state.step_losses[0]

    def test_metric_history_reproducible(self, small_data):
        hp = Hyperparams(steps=12, eval_every=4)
        a = train(CFG, small_data, hp, seed=3)
        b = train(CFG, small_data, hp, seed=3)
        assert a.step_losses == b.step_losses
        assert a.evals == b.evals

    def test_divergence_aborts_with_checkpoint(self, small_data, tmp_path):
        hp = Hyperparams(lr=1e18, steps=50, eval_every=50, warmup_frac=0.0)
        with pytest.raises(DivergenceError) as info, \
                pytest.warns(RuntimeWarning, match="overflow"):
            train(CFG, small_data, hp, seed=0, out_dir=tmp_path)
        assert info.value.checkpoint is not None
        restored = load_state(info.value.checkpoint)
        assert restored.step < 50

    def test_overfits_eight_samples(self):
        ds = gen_dataset(DatasetSpec(n_train=8, n_val=8, size=16))
        sub = dataclasses.replace(ds)
        sub.val_images, sub.val_labels = ds.train_images, ds.train_labels
        hp = Hyperparams(steps=150, eval_every=25, batch_size=8,
                         weight_decay=0.0, target_accuracy=1.0)
        state = train(CFG, sub, hp, seed=1)
        acc, _ = evaluate(state.model, ds.train_images, ds.train_labels)
        assert acc == 1.0


class TestEvaluate:
    def test_chance_level_for_random_model(self):
        rng = np.random.default_rng(0)
        images = rng.random((2000, 8, 8, 3)).astype(np.float32)
        labels = np.tile(np.arange(4), 500)
        model = build_model(CFG, seed=7)
        acc, loss = evaluate(model, images, labels)
        assert abs(acc - 0.25) < 0.03
        assert loss == pytest.approx(np.log(4), rel=0.2)

    @pytest.mark.parametrize("bad", [-1, 4])
    def test_out_of_range_label_rejected(self, bad):
        # a negative label would silently index the last class's log-prob
        images = np.zeros((3, 8, 8, 3), dtype=np.float32)
        model = build_model(CFG, seed=0)
        with pytest.raises(ValueError, match=f"label {bad} out of range for 4 classes"):
            evaluate(model, images, [0, 1, bad])

    def test_empty_split_rejected(self):
        # it used to divide by the zero example count
        model = build_model(CFG, seed=0)
        with pytest.raises(ValueError, match="evaluated split is empty"):
            evaluate(model, np.zeros((0, 8, 8, 3), dtype=np.float32), np.zeros(0, dtype=np.int64))

    @pytest.mark.parametrize("batch_size", [0, -4])
    def test_batch_size_below_1_rejected(self, batch_size, monkeypatch):
        # -4 used to skip the loop and return the mean of an unfilled array
        monkeypatch.setattr(importlib.import_module("winmix.train"), "forward", None)
        model = build_model(CFG, seed=0)
        with pytest.raises(ValueError, match=f"batch_size must be >= 1, got {batch_size}"):
            evaluate(model, np.zeros((8, 8, 8, 3), np.float32), np.zeros(8, np.int64),
                     batch_size=batch_size)

    @pytest.mark.parametrize("n_images, n_labels", [(8, 4), (4, 8)])
    def test_count_mismatch_rejected(self, n_images, n_labels, monkeypatch):
        # 8 images with 4 labels ended in a numpy broadcast error; 4 with 8
        # at batch_size 4 silently scored the first 4 labels only
        monkeypatch.setattr(importlib.import_module("winmix.train"), "forward", None)
        model = build_model(CFG, seed=0)
        with pytest.raises(ValueError, match=f"{n_images} images but {n_labels} labels"):
            evaluate(model, np.zeros((n_images, 8, 8, 3), np.float32),
                     np.zeros(n_labels, np.int64), batch_size=4)

    def test_batch_size_invariance(self, small_data):
        model = build_model(CFG, seed=2)
        accs, losses = zip(*[
            evaluate(model, small_data.val_images, small_data.val_labels, batch_size=bs)
            for bs in (1, 7, 32)
        ])
        assert len(set(accs)) == 1
        assert max(losses) - min(losses) <= 1e-5 * max(abs(l) for l in losses)


class TestCheckpointResume:
    def test_round_trip_bit_exact(self, small_data, tmp_path):
        hp = Hyperparams(steps=10, eval_every=5)
        state = train(CFG, small_data, hp, seed=4)
        path = tmp_path / "state.wmix"
        save_state(path, state)
        loaded = load_state(path)
        assert loaded.step == state.step
        assert loaded.rng_state == state.rng_state
        assert loaded.step_losses == state.step_losses
        assert loaded.evals == state.evals
        for k in state.model.params:
            assert state.model.params[k].numpy().tobytes() == \
                loaded.model.params[k].numpy().tobytes()
        for k in state.m:
            assert state.m[k].tobytes() == loaded.m[k].tobytes()
            assert state.v[k].tobytes() == loaded.v[k].tobytes()

    def test_resume_matches_uninterrupted(self, small_data, tmp_path):
        hp = Hyperparams(steps=16, eval_every=4)
        full = train(CFG, small_data, hp, seed=5)

        half = train(CFG, small_data, hp, seed=5, until=8)
        path = tmp_path / "half.wmix"
        save_state(path, half)
        resumed = train(CFG, small_data, hp, seed=5, state=load_state(path))

        assert resumed.step_losses == full.step_losses
        for k in full.model.params:
            assert full.model.params[k].numpy().tobytes() == \
                resumed.model.params[k].numpy().tobytes()

    @pytest.mark.parametrize("every,saved", [(2, [2, 4]), (3, [3, 4]), (None, [4])])
    def test_each_step_checkpointed_once(self, small_data, tmp_path, monkeypatch,
                                         every, saved):
        steps = []
        monkeypatch.setattr(importlib.import_module("winmix.train"), "save_state",
                            lambda path, st: steps.append(st.step))
        train(CFG, small_data, Hyperparams(steps=4, eval_every=2), seed=1,
              out_dir=tmp_path, checkpoint_every=every)
        assert steps == saved

    def test_resume_from_file_with_retired_config_fields(self, small_data, tmp_path):
        # earlier files spell out all twelve config fields, the four now
        # fixed ones at their one value; they load and resume bit-exactly
        cfg = dataclasses.replace(CFG, comm="MSG", depths=(2, 1, 1, 1))
        hp = Hyperparams(steps=8, eval_every=4)
        full = train(cfg, small_data, hp, seed=5)
        save_state(tmp_path / "half.wmix", train(cfg, small_data, hp, seed=5, until=4))
        blob, tensors = load_checkpoint(tmp_path / "half.wmix")
        blob["model"] |= {"ffn_ratio": 4, "mlp_ratio": 4, "messenger_count": 1,
                          "messenger_region": 2}
        assert len(blob["model"]) == 12
        save_checkpoint(tmp_path / "old.wmix", blob, tensors)
        state = load_state(tmp_path / "old.wmix")
        assert state.model.config == cfg
        assert load_model(tmp_path / "old.wmix").config == cfg
        resumed = train(cfg, small_data, hp, seed=5, state=state)
        assert resumed.step_losses == full.step_losses
        for k in full.model.params:
            assert full.model.params[k].numpy().tobytes() == \
                resumed.model.params[k].numpy().tobytes()

    def test_resume_from_file_with_retired_hyperparameters(self, small_data, tmp_path):
        # earlier training states spell out all eleven hyperparameters, the
        # four now fixed ones at their one value; they load and resume
        # bit-exactly, and any other value of one names the file and key
        hp = Hyperparams(steps=8, eval_every=4)
        full = train(CFG, small_data, hp, seed=5)
        save_state(tmp_path / "half.wmix", train(CFG, small_data, hp, seed=5, until=4))
        blob, tensors = load_checkpoint(tmp_path / "half.wmix")
        blob["train"]["hp"] |= RETIRED_HP
        assert len(blob["train"]["hp"]) == 11
        save_checkpoint(tmp_path / "old.wmix", blob, tensors)
        state = load_state(tmp_path / "old.wmix")
        assert state.hp == hp
        resumed = train(CFG, small_data, hp, seed=5, state=state)
        assert resumed.step_losses == full.step_losses and resumed.evals == full.evals
        for k in full.model.params:
            assert full.model.params[k].numpy().tobytes() == \
                resumed.model.params[k].numpy().tobytes()
            assert full.m[k].tobytes() == resumed.m[k].tobytes()
            assert full.v[k].tobytes() == resumed.v[k].tobytes()
        for key, old in RETIRED_HP.items():
            for bad in (old / 2, str(old)):
                blob["train"]["hp"] = hp.to_dict() | {key: bad}
                save_checkpoint(tmp_path / "edited.wmix", blob, tensors)
                with pytest.raises(CheckpointError, match=f"edited.wmix: train state 'hp': "
                                                          f"retired hyperparameter field '{key}'"):
                    load_state(tmp_path / "edited.wmix")

    def test_resume_rejects_config_mismatch(self, small_data, tmp_path):
        hp = Hyperparams(steps=4, eval_every=4)
        state = train(CFG, small_data, hp, seed=6)
        other = dataclasses.replace(CFG, width=16)
        with pytest.raises(ValueError):
            train(other, small_data, hp, seed=6, state=state)


class TestFlatAdamW:
    # train runs AdamW in place over one flat buffer per dtype; each step
    # must give the per-tensor reference's table and moments bit for bit

    @staticmethod
    def _checked_steps(monkeypatch) -> list[int]:
        """Wrap the flat step so that each call is checked against the
        reference run from a copy of the same table, moments and gradients;
        returns the list of checked steps."""
        tr = importlib.import_module("winmix.train")
        flat_step, checked = tr._adamw_step, []

        def step(state, *args):
            params = state.model.params
            table = {k: Tensor(p.data.copy(), requires_grad=True) for k, p in params.items()}
            ref = dataclasses.replace(state, model=dataclasses.replace(state.model, params=table),
                                      m={k: a.copy() for k, a in state.m.items()},
                                      v={k: a.copy() for k, a in state.v.items()})
            grads = {k: np.zeros_like(p.data) if p.grad is None else p.grad
                     for k, p in params.items()}
            adamw_step_ref(ref, grads, args[-1])
            flat_step(state, *args)
            for k, p in params.items():
                for what, got, want in (("param", p.data, ref.model.params[k].data),
                                        ("m", state.m[k], ref.m[k]), ("v", state.v[k], ref.v[k])):
                    assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), \
                        f"step {state.step}: {what} {k}"
            checked.append(state.step)

        monkeypatch.setattr(tr, "_adamw_step", step)
        return checked

    @pytest.mark.parametrize("lr", [0.0, 3e-3])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kind", AGGREGATOR_KINDS)
    def test_matches_per_tensor_reference(self, small_data, tmp_path, monkeypatch,
                                          kind, dtype, lr):
        cfg = dataclasses.replace(preset("toy-desk"), aggregator=kind)
        hp = Hyperparams(lr=lr, weight_decay=0.05, steps=30, batch_size=4, eval_every=10)
        state = None
        if dtype is np.float64:  # train builds float32 tables; start one by hand
            model = build_model(cfg, seed=2, dtype=dtype)
            state = TrainState(model=model, m={}, v={}, step=0, seed=2, hp=hp,
                               rng_state=np.random.PCG64(3).state)
            for k, t in model.params.items():
                state.m[k], state.v[k] = np.zeros_like(t.data), np.zeros_like(t.data)
        checked = self._checked_steps(monkeypatch)
        train(cfg, small_data, hp, seed=2, state=state, out_dir=tmp_path, until=20)
        resumed = load_state(tmp_path / "last_good.wmix")
        assert resumed.model.dtype == dtype
        final = train(cfg, small_data, hp, state=resumed)
        assert checked == list(range(1, 31))
        assert final.m["head.w"].dtype == dtype
        if lr == 0.0:
            start = build_model(cfg, seed=2, dtype=dtype).params
            assert all(final.model.params[k].data.tobytes() == t.data.tobytes()
                       for k, t in start.items())

    def test_held_model_sees_the_trained_table(self, small_data, tmp_path):
        # the table is updated in place, on views that persist across steps
        hp = Hyperparams(steps=6, eval_every=6)
        save_state(tmp_path / "half.wmix", train(CFG, small_data, hp, seed=1, until=3))
        state = load_state(tmp_path / "half.wmix")
        model, before = state.model, state.model.params["head.w"].data.copy()
        final = train(CFG, small_data, hp, state=state)
        assert final.model is model
        assert not np.array_equal(model.params["head.w"].data, before)


@pytest.fixture(scope="module")
def toy_checkpoint(small_data, tmp_path_factory):
    """A 3-step toy-desk training run and its save_state file."""
    state = train(preset("toy-desk"), small_data,
                  Hyperparams(steps=3, batch_size=4, eval_every=3), seed=0)
    path = tmp_path_factory.mktemp("ckpt") / "state.wmix"
    save_state(path, state)
    return state, path


def _layout(raw: bytes) -> tuple[int, list[int]]:
    """End of the config blob and the end offset of every tensor record."""
    off = 12 + struct.unpack_from("<I", raw, 8)[0]
    json_end, ends = off, []
    while off < len(raw):
        off += 4 + struct.unpack_from("<I", raw, off)[0]
        code, rank = struct.unpack_from("<BB", raw, off)
        dims = struct.unpack_from(f"<{rank}Q", raw, off + 2)
        off += 2 + 8 * rank + math.prod(dims) * (4 if code == 0 else 8)
        ends.append(off)
    return json_end, ends


def _assert_cut_rejected(prefix: bytes, path) -> None:
    path.write_bytes(prefix)
    for load in (load_state, load_model):
        with pytest.raises(CheckpointError):
            load(path)


class TestCheckpointFiles:
    def test_training_checkpoint_loads_as_model(self, toy_checkpoint):
        state, path = toy_checkpoint
        model = load_model(path)
        assert model.config == state.model.config
        assert list(model.params) == list(state.model.params)
        for k, t in state.model.params.items():
            assert model.params[k].numpy().tobytes() == t.numpy().tobytes()
        assert model.param_count() == count_params(model.config).total_params == 282_148

    def test_truncation_raises_checkpoint_error(self, toy_checkpoint, tmp_path):
        # a cut on a record boundary parses; the config's records reject it,
        # also in load_model, as a training file's moments are records too
        raw = toy_checkpoint[1].read_bytes()
        json_end, ends = _layout(raw)
        rng = np.random.default_rng(0)
        cuts = set(range(json_end + 16)) | {e + d for e in ends for d in (-1, 0, 1)}
        cuts |= set(rng.integers(json_end, len(raw), 64).tolist())
        for n in sorted(c for c in cuts if c < len(raw)):
            _assert_cut_rejected(raw[:n], tmp_path / "cut.wmix")

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_drawn_cut_raises_checkpoint_error(self, toy_checkpoint, data):
        raw = toy_checkpoint[1].read_bytes()
        json_end, ends = _layout(raw)
        boundary = st.sampled_from([json_end, *ends[:-1]])
        in_header = boundary.flatmap(lambda b: st.integers(b, min(b + 24, len(raw) - 1)))
        n = data.draw(st.integers(0, len(raw) - 1) | boundary | in_header, label="cut")
        _assert_cut_rejected(raw[:n], toy_checkpoint[1].with_name("drawn.wmix"))

    def test_garbled_headers_raise_checkpoint_error(self, toy_checkpoint, tmp_path):
        raw = toy_checkpoint[1].read_bytes()
        json_end, _ = _layout(raw)
        name_len = struct.unpack_from("<I", raw, json_end)[0]
        code_at = json_end + 4 + name_len

        def garbled(offset, value):
            return raw[:offset] + value + raw[offset + len(value):]

        cases = {
            "config length past EOF": garbled(8, struct.pack("<I", 2 ** 32 - 1)),
            "config not UTF-8": garbled(12, b"\xff\xfe"),
            "config not JSON": garbled(12, b"["),
            "name length past EOF": garbled(json_end, struct.pack("<I", 2 ** 31)),
            "bad dtype code": garbled(code_at, b"\x07"),
            "dims past EOF": garbled(code_at + 2, struct.pack("<Q", 2 ** 40)),
        }
        path = tmp_path / "bad.wmix"
        for what, data in cases.items():
            path.write_bytes(data)
            try:
                load_state(path)
            except CheckpointError:
                continue
            pytest.fail(f"no CheckpointError for a file with {what}")

    def test_moment_names_must_match_parameters(self, toy_checkpoint, tmp_path):
        state = toy_checkpoint[0]
        short = dataclasses.replace(state, v=dict(list(state.v.items())[1:]))
        save_state(tmp_path / "short.wmix", short)
        with pytest.raises(CheckpointError, match=r"short\.wmix: record 'opt\.v\.stem\.proj\.w': "
                           r"the file has none, the config needs \(16, 48\)"):
            load_state(tmp_path / "short.wmix")

    def test_transposed_moment_names_file_and_record(self, toy_checkpoint, tmp_path):
        state = toy_checkpoint[0]
        m = dict(state.m)
        m["stage0.block0.ffn.w1"] = m["stage0.block0.ffn.w1"].T  # (64, 16) -> (16, 64)
        save_state(tmp_path / "transposed.wmix", dataclasses.replace(state, m=m))
        with pytest.raises(CheckpointError, match=r"transposed\.wmix: record "
                           r"'opt\.m\.stage0\.block0\.ffn\.w1': the file has \(16, 64\), "
                           r"the config needs \(64, 16\)"):
            load_state(tmp_path / "transposed.wmix")

    def test_square_moment_swapped_with_another_record(self, toy_checkpoint, tmp_path):
        state = toy_checkpoint[0]
        v = dict(state.v)
        a, b = "stage0.block0.agg.w_h", "stage0.block0.agg.w_p"  # (4, 4) and (16, 16)
        v[a], v[b] = v[b], v[a]
        save_state(tmp_path / "swapped.wmix", dataclasses.replace(state, v=v))
        with pytest.raises(CheckpointError, match=r"swapped\.wmix: record "
                           r"'opt\.v\.stage0\.block0\.agg\.w_h': the file has \(16, 16\), "
                           r"the config needs \(4, 4\)"):
            load_state(tmp_path / "swapped.wmix")

    def test_moment_of_another_dtype_names_file_and_record(self, toy_checkpoint, tmp_path):
        # one flat buffer per dtype cannot hold a float64 moment of a float32
        # parameter; save_state never writes one
        blob, tensors = load_checkpoint(toy_checkpoint[1])
        tensors["opt.v.head.w"] = tensors["opt.v.head.w"].astype(np.float64)
        save_checkpoint(tmp_path / "wide.wmix", blob, tensors)
        with pytest.raises(CheckpointError, match=r"wide\.wmix: record 'opt\.v\.head\.w' is "
                           r"float64, the table's first record is float32"):
            load_state(tmp_path / "wide.wmix")

    def test_mixed_dtype_table_names_file_and_record(self, toy_checkpoint, tmp_path):
        # head.b and its moments agree with each other, not with the table
        blob, tensors = load_checkpoint(toy_checkpoint[1])
        for name in ("head.b", "opt.m.head.b", "opt.v.head.b"):
            tensors[name] = tensors[name].astype(np.float64)
        save_checkpoint(tmp_path / "mixed.wmix", blob, tensors)
        with pytest.raises(CheckpointError, match=r"mixed\.wmix: record 'head\.b' is float64, "
                           r"the table's first record is float32"):
            load_state(tmp_path / "mixed.wmix")
        assert load_model(tmp_path / "mixed.wmix").params["head.b"].dtype == np.float64

    def test_model_file_is_not_a_training_checkpoint(self, toy_checkpoint, tmp_path):
        save_model(tmp_path / "m.wmix", toy_checkpoint[0].model)
        with pytest.raises(CheckpointError, match="not a training checkpoint"):
            load_state(tmp_path / "m.wmix")

    def test_failed_save_keeps_previous_file(self, toy_checkpoint, tmp_path):
        path = tmp_path / "state.wmix"
        save_state(path, toy_checkpoint[0])
        good = path.read_bytes()
        records = {"a": np.zeros(3, np.float32), "b": np.zeros(3, np.int32)}
        with pytest.raises(CheckpointError, match="unsupported dtype int32"):
            save_checkpoint(path, {"model": {}}, records)  # raises after writing "a"
        assert path.read_bytes() == good
        assert [p.name for p in tmp_path.iterdir()] == ["state.wmix"]


def _without(key):
    return lambda tr: {k: v for k, v in tr.items() if k != key}


def _with(key, value):
    return lambda tr: {**tr, key: value}


TRAIN_BLOB_DEFECTS = {
    "step missing": (_without("step"), "'step' must be int, got nothing"),
    "rng_state missing": (_without("rng_state"), "'rng_state' must be dict, got nothing"),
    "train a list": (lambda tr: list(tr), "must be a JSON object, got list"),
    "step_losses an int": (_with("step_losses", 3), "'step_losses' must be list"),
    "step a string": (_with("step", "1"), "'step' must be int, got str"),
    "step negative": (_with("step", -3), "'step' must be >= 0, got -3$"),
    "seed a string": (_with("seed", "0"), "'seed' must be int, got str"),
    "evals a string": (_with("evals", "x"), "'evals' must be list"),
    "rng_state empty": (_with("rng_state", {}),
                        "'rng_state.bit_generator' must be str, got nothing"),
    "rng_state inc missing": (
        lambda tr: {**tr, "rng_state": {**tr["rng_state"], "state": {"state": "1"}}},
        "'rng_state.state.inc' must be str, got nothing"),
    "rng_state uinteger negative": (
        lambda tr: {**tr, "rng_state": {**tr["rng_state"], "uinteger": -1}}, "'rng_state': "),
    "rng_state state not a number": (
        lambda tr: {**tr, "rng_state": {**tr["rng_state"], "state": {"state": "x", "inc": "1"}}},
        "'rng_state': invalid literal"),
    "hp steps 0": (lambda tr: {**tr, "hp": {**tr["hp"], "steps": 0}},
                   r"'hp': steps must be >= 1, got 0$"),
    "hp beta1 1": (lambda tr: {**tr, "hp": {**tr["hp"], "beta1": 1.0}},
                   r"'hp': retired hyperparameter field 'beta1' must be 0\.9, got float 1\.0$"),
    "evals of empty objects": (_with("evals", [{}]),
                               r"'evals' entry 0 needs numeric \['step', 'lr', "),
    "eval accuracy a string": (
        lambda tr: {**tr, "evals": [{**tr["evals"][0], "val_acc": "0.5"}]},
        r"'evals' entry 0 needs numeric \['val_acc'\]"),
}


@pytest.mark.parametrize("defect", TRAIN_BLOB_DEFECTS)
def test_train_blob_defect_names_file_and_key(toy_checkpoint, tmp_path, defect):
    edit, message = TRAIN_BLOB_DEFECTS[defect]
    blob, tensors = load_checkpoint(toy_checkpoint[1])
    blob["train"] = edit(blob["train"])
    path = tmp_path / "edited.wmix"
    save_checkpoint(path, blob, tensors)
    with pytest.raises(CheckpointError, match="edited.wmix: .*" + message):
        load_state(path)
