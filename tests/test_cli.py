import dataclasses
import json

import numpy as np
import pytest

from winmix.analytics import MASK_BUDGET
from winmix.cli import cli_main
from winmix.data import DatasetSpec, gen_dataset
from winmix.io import load_checkpoint, save_checkpoint
from winmix.model import PRESETS, build_model, preset, save_model
from winmix.train import load_state, save_state


def run_cli(capsys, *argv):
    code = cli_main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestDescribe:
    def test_preset(self, capsys):
        code, out, _ = run_cli(capsys, "describe", "swin-linmapper-tiny")
        assert code == 0
        blob = json.loads(out)
        assert blob["config"]["width"] == 64
        assert blob["config"]["depths"] == [2, 4, 22, 4]

    def test_unknown_preset_exits_1_and_lists(self, capsys):
        code, _, err = run_cli(capsys, "describe", "no-such-preset")
        assert code == 1
        assert "swin-linmapper-tiny" in err

    def test_config_file(self, capsys, tmp_path):
        cfg = preset("toy-desk").to_dict()
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code, out, _ = run_cli(capsys, "describe", str(path))
        assert code == 0
        assert json.loads(out)["config"]["width"] == 16


@pytest.mark.parametrize("cmd", ["describe", "count"])
def test_config_value_of_wrong_type_exits_1(capsys, tmp_path, cmd):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(preset("toy-desk").to_dict() | {"width": "8"}))
    code, out, err = run_cli(capsys, cmd, str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "'width' must be int" in err


def test_config_missing_field_exits_1(capsys, tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"width": 8}))
    code, out, err = run_cli(capsys, "describe", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "missing config fields: ['depths']" in err


def test_checkpoint_config_missing_field_exits_1(capsys, tmp_path):
    model = build_model(preset("toy-desk"), seed=0)
    cfg = model.config.to_dict()
    del cfg["depths"]
    tensors = {k: t.numpy() for k, t in model.params.items()}
    save_checkpoint(tmp_path / "bad.wmix", {"model": cfg}, tensors)
    (tmp_path / "data.json").write_text(json.dumps(DatasetSpec(n_val=8).to_dict()))
    code, out, err = run_cli(capsys, "eval", "--ckpt", str(tmp_path / "bad.wmix"),
                             "--data", str(tmp_path / "data.json"))
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "bad.wmix: missing config fields: ['depths']" in err


class TestCount:
    def test_tiny_lands_near_paper_value(self, capsys):
        code, out, _ = run_cli(capsys, "count", "swin-linmapper-tiny")
        assert code == 0
        total = json.loads(out)["totals"]["params"]
        assert abs(total - 24.6e6) <= 0.01 * 24.6e6

    def test_table_mode(self, capsys):
        code, out, _ = run_cli(capsys, "count", "toy-desk", "--table")
        assert code == 0
        assert out.splitlines()[-1].startswith("TOTAL")


class TestFlops:
    def test_resolution_flag(self, capsys):
        code, out, _ = run_cli(capsys, "flops", "toy-desk", "--res", "32")
        assert code == 0
        blob = json.loads(out)
        assert blob["resolution"] == [32, 32]
        assert blob["totals"]["flops"] > 0


class TestConnectivity:
    def test_reports_full_connectivity_layer(self, capsys):
        code, out, _ = run_cli(capsys, "connectivity", "swin-linmapper-tiny",
                               "--grid", "14")
        assert code == 0
        blob = json.loads(out)
        assert blob["first_full"] is not None

    @pytest.mark.parametrize("grid", ["0", "-3"])
    def test_empty_grid_exits_1(self, capsys, grid):
        code, out, err = run_cli(capsys, "connectivity", "toy-desk", "--grid", grid)
        assert code == 1
        assert out == ""
        assert err.startswith("error: grid must be positive")

    def test_grid_over_mask_budget_exits_1_before_allocating(self, capsys):
        # 32 blocks of (112*112)^2 one-byte masks would need about 5 GB
        import tracemalloc

        tracemalloc.start()
        try:
            code, out, err = run_cli(capsys, "connectivity", "swin-linmapper-tiny",
                                     "--grid", "112")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out) == (1, "")
        assert err.startswith("error: a 112x112 grid needs 5,035,261,952 bytes of masks, "
                              f"over the {MASK_BUDGET:,}-byte budget")
        assert peak < 1 << 20
        # the 56x56 stage-0 grid of a 224 px image still fits on every preset
        assert max(sum(cfg.depths) for cfg in PRESETS.values()) * (56 * 56) ** 2 <= MASK_BUDGET

    def test_pgm_dump(self, capsys, tmp_path):
        out_dir = tmp_path / "pgms"
        code, _, _ = run_cli(capsys, "connectivity", "toy-desk", "--grid", "8",
                             "--pgm-dir", str(out_dir))
        assert code == 0
        files = sorted(out_dir.glob("*.pgm"))
        assert len(files) == sum(preset("toy-desk").depths)
        assert files[0].read_bytes().startswith(b"P5")


class TestGradcheck:
    def test_passes_on_sound_model(self, capsys):
        code, out, _ = run_cli(capsys, "gradcheck", "--seed", "0", "--samples", "1")
        assert code == 0
        blob = json.loads(out)
        assert blob["passed"] is True
        assert blob["max_rel_error"] < 1e-4

    @pytest.mark.parametrize("samples", ["0", "-1"])
    def test_no_samples_exits_1(self, capsys, samples):
        code, out, err = run_cli(capsys, "gradcheck", "--samples", samples)
        assert (code, out) == (1, "")
        assert err.startswith("error: samples_per_leaf must be >= 1")

    def test_numeric_failure_exits_2(self, capsys, monkeypatch):
        import winmix.cli as cli_mod
        monkeypatch.setattr(cli_mod, "model_gradcheck", lambda *a, **k: 1.0)
        code, out, _ = run_cli(capsys, "gradcheck", "--seed", "0")
        assert code == 2


def test_retired_layout_faithful_true_exits_1(capsys, tmp_path):
    cfg = preset("toy-desk").to_dict() | {"layout_faithful": True}
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    code, out, err = run_cli(capsys, "describe", str(tmp_path / "cfg.json"))
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "'layout_faithful' must be false" in err
    model = build_model(preset("toy-desk"), seed=0)
    save_checkpoint(tmp_path / "old.wmix", {"model": cfg},
                    {k: t.numpy() for k, t in model.params.items()})
    code, out, err = run_cli(capsys, "bench", "--ckpt", str(tmp_path / "old.wmix"),
                             "--res", "16")
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "old.wmix" in err and "'layout_faithful'" in err


def test_retired_config_field_at_other_value_exits_1(capsys, tmp_path):
    cfg = preset("toy-desk").to_dict() | {"ffn_ratio": 2}
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    for cmd in (["describe"], ["count"], ["flops", "--res", "16"]):
        code, out, err = run_cli(capsys, *cmd, str(tmp_path / "cfg.json"))
        assert (code, out) == (1, "")
        assert err.startswith("error: retired config field 'ffn_ratio' must be 4, got int 2")
    (tmp_path / "cfg.json").write_text(json.dumps(cfg | {"ffn_ratio": 4}))
    code, out, _ = run_cli(capsys, "describe", str(tmp_path / "cfg.json"))
    assert code == 0 and json.loads(out)["config"] == preset("toy-desk").to_dict()


class TestTrainEvalBench:
    @pytest.fixture(scope="class")
    def artifacts(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("cli")
        spec = DatasetSpec(n_train=64, n_val=32, size=16)
        (tmp / "data.json").write_text(json.dumps(spec.to_dict()))
        cfg = preset("toy-desk").to_dict()
        (tmp / "cfg.json").write_text(json.dumps(cfg))
        hp = {"steps": 6, "eval_every": 3, "batch_size": 8}
        (tmp / "hp.json").write_text(json.dumps(hp))
        return tmp

    def test_train_then_eval_then_bench(self, capsys, artifacts):
        code, out, _ = run_cli(capsys, "train",
                               "--config", str(artifacts / "cfg.json"),
                               "--hp", str(artifacts / "hp.json"),
                               "--data", str(artifacts / "data.json"),
                               "--out", str(artifacts / "run"),
                               "--seed", "1")
        assert code == 0
        blob = json.loads(out)
        assert blob["steps"] == 6
        ckpt = blob["checkpoint"]

        code, out, _ = run_cli(capsys, "eval", "--ckpt", ckpt,
                               "--data", str(artifacts / "data.json"))
        assert code == 0
        assert 0.0 <= json.loads(out)["accuracy"] <= 1.0

        code, out, _ = run_cli(capsys, "bench", "--ckpt", ckpt,
                               "--batch", "2", "--repeats", "2", "--res", "16")
        assert code == 0
        assert json.loads(out)["images_per_second"] > 0

    @pytest.mark.parametrize("flag,value", [("--batch", "0"), ("--batch", "-2"),
                                            ("--repeats", "0")])
    def test_bench_bad_argument_exits_1(self, capsys, tmp_path, flag, value):
        save_model(tmp_path / "m.wmix", build_model(preset("toy-desk"), seed=0))
        code, out, err = run_cli(capsys, "bench", "--ckpt", str(tmp_path / "m.wmix"),
                                 "--res", "16", flag, value)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {flag[2:]} must be >= 1")

    def test_resume_with_different_hp_exits_1(self, capsys, artifacts):
        run = artifacts / "resume-hp"
        common = ["train", "--config", str(artifacts / "cfg.json"),
                  "--data", str(artifacts / "data.json"), "--out", str(run)]
        code, _, _ = run_cli(capsys, *common, "--hp", str(artifacts / "hp.json"))
        assert code == 0
        ckpt = str(run / "last_good.wmix")
        other = artifacts / "hp-other.json"
        other.write_text(json.dumps({"steps": 12, "eval_every": 3, "batch_size": 8}))
        code, out, err = run_cli(capsys, *common, "--hp", str(other), "--resume", ckpt)
        assert code == 1
        assert out == ""
        assert err.startswith("error: --hp")
        code, _, _ = run_cli(capsys, *common, "--hp", str(artifacts / "hp.json"),
                             "--resume", ckpt)
        assert code == 0

    def test_resume_with_misshapen_moment_exits_1(self, capsys, artifacts, tmp_path):
        common = ["train", "--config", str(artifacts / "cfg.json"),
                  "--data", str(artifacts / "data.json"), "--hp", str(artifacts / "hp.json"),
                  "--out", str(tmp_path / "run")]
        code, _, _ = run_cli(capsys, *common)
        assert code == 0
        state = load_state(tmp_path / "run" / "last_good.wmix")
        state.m["stage0.block0.ffn.w1"] = state.m["stage0.block0.ffn.w1"].T
        save_state(tmp_path / "bad.wmix", state)
        code, out, err = run_cli(capsys, *common, "--resume", str(tmp_path / "bad.wmix"))
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and "'opt.m.stage0.block0.ffn.w1'" in err

    def test_resume_with_bad_train_blob_exits_1(self, capsys, artifacts, tmp_path):
        common = ["train", "--config", str(artifacts / "cfg.json"),
                  "--data", str(artifacts / "data.json"), "--hp", str(artifacts / "hp.json"),
                  "--out", str(tmp_path / "run")]
        code, _, _ = run_cli(capsys, *common)
        assert code == 0
        blob, tensors = load_checkpoint(tmp_path / "run" / "last_good.wmix")
        blob["train"]["step"] = "1"
        save_checkpoint(tmp_path / "bad.wmix", blob, tensors)
        code, out, err = run_cli(capsys, *common, "--resume", str(tmp_path / "bad.wmix"))
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and "bad.wmix: train state 'step' must be int" in err

    def test_hp_file_with_retired_keys_trains_as_without(self, capsys, artifacts, tmp_path):
        # an --hp file of the eleven keys hyperparameters once had, the four
        # now fixed at their one value, trains exactly as the seven do
        hp = json.loads((artifacts / "hp.json").read_text())
        old = hp | {"beta1": 0.9, "beta2": 0.999, "eps": 1e-8, "label_smoothing": 0.1}
        for name, d in (("new", hp), ("old", old)):
            (tmp_path / f"{name}.json").write_text(json.dumps(d))
            code, out, _ = run_cli(capsys, "train", "--config", str(artifacts / "cfg.json"),
                                   "--hp", str(tmp_path / f"{name}.json"),
                                   "--data", str(artifacts / "data.json"),
                                   "--out", str(tmp_path / name))
            assert code == 0
        new, old = (load_state(tmp_path / n / "last_good.wmix") for n in ("new", "old"))
        assert new.hp == old.hp and new.step_losses == old.step_losses
        assert all(new.model.params[k].numpy().tobytes() == old.model.params[k].numpy().tobytes()
                   for k in new.model.params)
        (tmp_path / "bad.json").write_text(json.dumps(hp | {"label_smoothing": 0.2}))
        code, out, err = run_cli(capsys, "train", "--config", str(artifacts / "cfg.json"),
                                 "--hp", str(tmp_path / "bad.json"),
                                 "--data", str(artifacts / "data.json"),
                                 "--out", str(tmp_path / "bad"))
        assert (code, out) == (1, "")
        assert err.startswith("error: retired hyperparameter field 'label_smoothing' "
                              "must be 0.1, got float 0.2")
        assert not (tmp_path / "bad").exists()

    def test_unknown_hp_key_exits_1(self, capsys, artifacts, tmp_path):
        hp = tmp_path / "hp.json"
        hp.write_text(json.dumps({"steps": 2, "bogus": 1}))
        code, out, err = run_cli(capsys, "train", "--config", str(artifacts / "cfg.json"),
                                 "--hp", str(hp), "--data", str(artifacts / "data.json"),
                                 "--out", str(tmp_path / "run"))
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and "bogus" in err

    def test_unknown_data_key_exits_1(self, capsys, tmp_path):
        save_model(tmp_path / "m.wmix", build_model(preset("toy-desk"), seed=0))
        (tmp_path / "data.json").write_text(json.dumps({"n_train": 16, "bogus": 3}))
        code, out, err = run_cli(capsys, "eval", "--ckpt", str(tmp_path / "m.wmix"),
                                 "--data", str(tmp_path / "data.json"))
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and "bogus" in err

    def test_hp_value_of_wrong_type_exits_1(self, capsys, artifacts, tmp_path):
        hp = tmp_path / "hp.json"
        hp.write_text(json.dumps({"steps": "2"}))
        code, out, err = run_cli(capsys, "train", "--config", str(artifacts / "cfg.json"),
                                 "--hp", str(hp), "--data", str(artifacts / "data.json"),
                                 "--out", str(tmp_path / "run"))
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and "'steps' must be int" in err

    def test_data_value_of_wrong_type_exits_1(self, capsys, tmp_path):
        save_model(tmp_path / "m.wmix", build_model(preset("toy-desk"), seed=0))
        (tmp_path / "data.json").write_text(json.dumps({"n_train": "16"}))
        code, out, err = run_cli(capsys, "eval", "--ckpt", str(tmp_path / "m.wmix"),
                                 "--data", str(tmp_path / "data.json"))
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and "'n_train' must be int" in err

    @pytest.mark.parametrize("value", [2.0, -0.5, float("nan")])
    def test_hp_target_accuracy_outside_unit_interval_exits_1(self, capsys, artifacts,
                                                              tmp_path, value):
        hp = tmp_path / "hp.json"
        hp.write_text(json.dumps({"steps": 2, "target_accuracy": value}))
        code, out, err = run_cli(capsys, "train", "--config", str(artifacts / "cfg.json"),
                                 "--hp", str(hp), "--data", str(artifacts / "data.json"),
                                 "--out", str(tmp_path / "run"))
        assert (code, out) == (1, "")
        assert err.startswith("error: target_accuracy must be finite and lie in [0, 1]")
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("spec, message", [
        ({"noise": float("nan")}, "noise must be finite and >= 0"),
        ({"noise": -1}, "noise must be finite and >= 0"),
        ({"mode": "quadrant-parity", "classes": 2, "size": 15},
         "quadrant-parity mode needs an even size"),
        ({"base_freq": 3}, "retired dataset spec field 'base_freq' must be 2.0, got int 3"),
        ({"n_train": 0}, "n_train must be >= 1, got 0"),
        ({"n_train": -4}, "n_train must be >= 1, got -4"),
        ({"n_val": 0}, "n_val must be >= 1, got 0"),
        ({"size": 0}, "size must be >= 1, got 0"),
        ({"size": -8}, "size must be >= 1, got -8"),
        ({"mode": "seam-phase", "classes": 2, "height": 0}, "height must be >= 1, got 0")])
    def test_bad_data_spec_exits_1(self, capsys, artifacts, tmp_path, spec, message):
        (tmp_path / "data.json").write_text(json.dumps({"n_train": 16, "n_val": 8} | spec))
        code, out, err = run_cli(capsys, "train", "--config", str(artifacts / "cfg.json"),
                                 "--hp", str(artifacts / "hp.json"),
                                 "--data", str(tmp_path / "data.json"),
                                 "--out", str(tmp_path / "run"))
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {message}")
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("defect", ["truncated header", "trailing bytes",
                                        "training label 5"])
    def test_bad_training_wdat_exits_1(self, capsys, artifacts, tmp_path, defect):
        ds = gen_dataset(DatasetSpec(n_train=16, n_val=8, size=16))
        if defect == "training label 5":
            ds.train_labels[3] = 5  # toy-desk has 4 classes
        ds.save_wdat(tmp_path / "train.wdat", tmp_path / "val.wdat")
        raw = (tmp_path / "train.wdat").read_bytes()
        if defect == "truncated header":
            raw = raw[:7]
        elif defect == "trailing bytes":
            raw += b"\x00\x00\x00"
        (tmp_path / "train.wdat").write_bytes(raw)
        code, out, err = run_cli(capsys, "train", "--config", "toy-desk",
                                 "--hp", str(artifacts / "hp.json"),
                                 "--data", str(tmp_path / "train.wdat"),
                                 "--val-data", str(tmp_path / "val.wdat"),
                                 "--out", str(tmp_path / "run"))
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and defect in err
        assert not (tmp_path / "run" / "last_good.wmix").exists()

    @pytest.mark.parametrize("edit", ["renamed", "transposed"])
    def test_model_table_mismatch_exits_1(self, capsys, tmp_path, edit):
        from winmix.io import save_checkpoint
        model = build_model(preset("toy-desk"), seed=0)
        tensors = {k: t.numpy() for k, t in model.params.items()}
        if edit == "renamed":
            record = "stage2.block0.agg.w_p"
            tensors["stage2.block0.agg.w_z"] = tensors.pop(record)
        else:
            record = "stage0.block0.ffn.w1"
            tensors[record] = np.ascontiguousarray(tensors[record].T)
        save_checkpoint(tmp_path / "bad.wmix", {"model": model.config.to_dict()}, tensors)
        (tmp_path / "data.json").write_text(json.dumps(DatasetSpec(n_val=8).to_dict()))
        code, out, err = run_cli(capsys, "eval", "--ckpt", str(tmp_path / "bad.wmix"),
                                 "--data", str(tmp_path / "data.json"))
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and "bad.wmix" in err and repr(record) in err

    def test_model_file_cut_on_record_boundary_exits_1(self, capsys, tmp_path):
        model = build_model(preset("toy-desk"), seed=0)
        save_model(tmp_path / "m.wmix", model)
        # the same file cut after its first four records (the stem)
        head = dict(list(model.params.items())[:4])
        save_model(tmp_path / "cut.wmix", dataclasses.replace(model, params=head))
        assert (tmp_path / "m.wmix").read_bytes().startswith(
            (tmp_path / "cut.wmix").read_bytes())
        (tmp_path / "data.json").write_text(json.dumps(DatasetSpec(n_val=8).to_dict()))
        code, out, err = run_cli(capsys, "eval", "--ckpt", str(tmp_path / "cut.wmix"),
                                 "--data", str(tmp_path / "data.json"))
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and "cut.wmix" in err and "config needs" in err

    @pytest.mark.parametrize("size", [10, 13, 200, 5000])
    @pytest.mark.parametrize("cmd", ["eval", "bench"])
    def test_truncated_checkpoint_exits_1(self, capsys, tmp_path, cmd, size):
        save_model(tmp_path / "m.wmix", build_model(preset("toy-desk"), seed=0))
        cut = tmp_path / "cut.wmix"
        cut.write_bytes((tmp_path / "m.wmix").read_bytes()[:size])
        (tmp_path / "data.json").write_text(json.dumps(DatasetSpec(n_val=8).to_dict()))
        extra = ["--data", str(tmp_path / "data.json")] if cmd == "eval" else []
        code, out, err = run_cli(capsys, cmd, "--ckpt", str(cut), *extra)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "truncated" in err

    def test_eval_on_wdat_pair(self, capsys, tmp_path):
        ds = gen_dataset(DatasetSpec(n_train=16, n_val=8, size=16))
        ds.save_wdat(tmp_path / "train.wdat", tmp_path / "val.wdat")
        model = build_model(preset("toy-desk"), seed=0)
        save_model(tmp_path / "m.wmix", model)
        code, out, _ = run_cli(capsys, "eval", "--ckpt", str(tmp_path / "m.wmix"),
                               "--data", str(tmp_path / "train.wdat"),
                               "--val-data", str(tmp_path / "val.wdat"))
        assert code == 0

    def test_eval_on_empty_wdat_split_exits_1(self, capsys, tmp_path):
        from winmix.io import save_wdat
        gen_dataset(DatasetSpec(n_train=8, n_val=8, size=16)).save_wdat(
            tmp_path / "train.wdat", tmp_path / "full.wdat")
        save_wdat(tmp_path / "val.wdat", np.zeros((0, 16, 16, 3), dtype=np.uint8),
                  np.zeros(0, dtype=np.int64))
        save_model(tmp_path / "m.wmix", build_model(preset("toy-desk"), seed=0))
        code, out, err = run_cli(capsys, "eval", "--ckpt", str(tmp_path / "m.wmix"),
                                 "--data", str(tmp_path / "train.wdat"),
                                 "--val-data", str(tmp_path / "val.wdat"))
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and "split is empty" in err

    @pytest.mark.parametrize("hp", [{"beta1": 1.0}, {"beta2": 1.5}, {"eps": 0},
                                    {"lr": float("nan")}])
    def test_out_of_range_optimizer_constant_exits_1(self, capsys, artifacts, tmp_path, hp):
        (tmp_path / "hp.json").write_text(json.dumps({"steps": 2} | hp))
        code, out, err = run_cli(capsys, "train", "--config", str(artifacts / "cfg.json"),
                                 "--hp", str(tmp_path / "hp.json"),
                                 "--data", str(artifacts / "data.json"),
                                 "--out", str(tmp_path / "run"))
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and next(iter(hp)) in err
        assert not (tmp_path / "run").exists()

    def test_label_beyond_model_classes_exits_1(self, capsys, tmp_path):
        # a 10-class dataset against the 4-class toy-desk model
        ds = gen_dataset(DatasetSpec(n_train=20, n_val=40, size=16, classes=10))
        ds.save_wdat(tmp_path / "train.wdat", tmp_path / "val.wdat")
        save_model(tmp_path / "m.wmix", build_model(preset("toy-desk"), seed=0))
        code, out, err = run_cli(capsys, "eval", "--ckpt", str(tmp_path / "m.wmix"),
                                 "--data", str(tmp_path / "train.wdat"),
                                 "--val-data", str(tmp_path / "val.wdat"))
        assert code == 1
        assert out == ""
        assert "out of range for 4 classes" in err

    def test_wdat_without_val_is_validation_error(self, capsys, tmp_path):
        ds = gen_dataset(DatasetSpec(n_train=16, n_val=8, size=16))
        ds.save_wdat(tmp_path / "t.wdat", tmp_path / "v.wdat")
        model = build_model(preset("toy-desk"), seed=0)
        save_model(tmp_path / "m.wmix", model)
        code, _, err = run_cli(capsys, "eval", "--ckpt", str(tmp_path / "m.wmix"),
                               "--data", str(tmp_path / "t.wdat"))
        assert code == 1


class TestArgErrors:
    def test_unknown_flag_exits_1_with_usage(self, capsys):
        with pytest.raises(SystemExit) as e:
            cli_main(["count", "toy-desk", "--bogus"])
        assert e.value.code == 1
        assert "usage" in capsys.readouterr().err

    def test_missing_subcommand_exits_1(self, capsys):
        with pytest.raises(SystemExit) as e:
            cli_main([])
        assert e.value.code == 1
