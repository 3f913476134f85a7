import dataclasses
import json

import numpy as np
import pytest

from winmix import analytics as AN
from winmix import geometry as geo
from winmix import model as M
from winmix import tensor as T
from winmix.analytics import (
    connectivity,
    count_flops,
    count_params,
    flops_oracle,
    write_pgm,
)
from winmix.geometry import FeatureMap
from winmix.model import ModelConfig, build_model, preset
from winmix.tensor import Tensor

DESK = preset("toy-desk")
TINY8 = ModelConfig(width=8, depths=(1, 1, 1, 1), window=2, classes=4, groups=4)


def dense_connectivity(cfg: ModelConfig, grid_h: int, grid_w: int):
    """Reference propagation with dense (N, N) token patterns.

    Token i draws from token j when both lie in one window (MHSA) or on one
    row or column of one window (axial aggregators); messengers pool each
    window through a (windows, N) membership matrix. Returns the per-block
    masks and the 1-based first full block, as ``connectivity`` reports them.
    """
    ws = cfg.window
    hp, wp = -(-grid_h // ws) * ws, -(-grid_w // ws) * ws
    gh, gw = hp // ws, wp // ws
    n = hp * wp
    rows, cols = np.divmod(np.arange(n), wp)
    wid = (rows // ws) * gw + cols // ws
    real_idx = np.flatnonzero((rows < grid_h) & (cols < grid_w))
    r = np.zeros((n, real_idx.size), dtype=bool)
    r[real_idx, np.arange(real_idx.size)] = True

    pattern = wid[:, None] == wid[None, :]
    if cfg.aggregator != "MHSA":
        pattern &= (rows[:, None] == rows[None, :]) | (cols[:, None] == cols[None, :])
    pattern = pattern.astype(np.uint8)
    win_rows = np.zeros((gh * gw, n), dtype=np.uint8)
    win_rows[wid, np.arange(n)] = 1

    shift = ws // 2
    perms = {
        "Shift": AN._perm_from_featuremap_op(
            hp, wp, lambda f: geo.cyclic_shift(f, -shift, -shift)),
        "Shuffle": AN._perm_from_featuremap_op(
            hp, wp, lambda f: geo.spatial_shuffle(f, ws)),
    }
    layers, first_full, block_no = [], None, 0
    for s in range(4):
        msg = None
        if cfg.comm == "MSG" and M.stage_has_comm(cfg, s):
            msg = np.zeros((gh * gw, real_idx.size), dtype=bool)
            region = M.choose_messenger_region(gh, gw, M.stage_channels(cfg, s),
                                               cfg.messenger_region)
        for i in range(cfg.depths[s]):
            block_no += 1
            active = M.comm_active(cfg, i)
            perm = perms.get(cfg.comm) if active else None
            if perm is not None:
                r = r[perm]
            if active and msg is not None:
                msg = msg | (win_rows @ r.astype(np.uint8) > 0)
                msg = AN._region_union(msg, gh, gw, region)
                r = r | msg[wid]
            r = r | (pattern @ r.astype(np.uint8) > 0)
            if perm is not None:
                inv = np.empty_like(perm)
                inv[perm] = np.arange(n)
                r = r[inv]
            layers.append(r[real_idx])
            if first_full is None and layers[-1].all():
                first_full = block_no
    return layers, first_full


def random_config(rng) -> ModelConfig:
    width = int(rng.choice([8, 12, 16, 24, 32]))
    return ModelConfig(
        width=width,
        depths=tuple(int(d) for d in rng.integers(1, 4, size=4)),
        window=int(rng.choice([2, 3, 4])),
        aggregator=str(rng.choice(["Linear", "DWLinear", "MLP", "MHSA"])),
        comm=str(rng.choice(["Shift", "Shuffle", "MSG", "None"])),
        ffn_ratio=int(rng.choice([2, 4])),
        classes=int(rng.choice([2, 4, 10])),
        groups=int(rng.choice([4, 8, 16, 32])),
        mlp_ratio=int(rng.choice([1, 2, 4])),
    )


class TestCountParams:
    @pytest.mark.parametrize("name", sorted(M.PRESETS))
    def test_matches_built_table_for_presets(self, name):
        cfg = preset(name)
        if max(cfg.width, *cfg.depths) > 64:  # keep build cost sane: small ones built fully
            pytest.skip("built in acceptance suite instead")
        m = build_model(cfg, seed=0)
        assert m.param_count() == count_params(cfg).total_params

    @pytest.mark.parametrize("seed", range(25))
    def test_matches_built_table_random_configs(self, seed):
        cfg = random_config(np.random.default_rng(seed))
        m = build_model(cfg, seed=seed)
        assert m.param_count() == count_params(cfg).total_params, cfg

    def test_totals_equal_row_sum(self):
        rep = count_params(DESK)
        assert rep.total_params == sum(r.params for r in rep.rows)

    def test_params_independent_of_resolution(self):
        a = count_flops(DESK, 32)
        b = count_flops(DESK, 64)
        assert [(r.path, r.params) for r in a.rows] == [(r.path, r.params) for r in b.rows]


class TestCountFlops:
    def test_doubling_resolution_quadruples_window_local_rows(self):
        # pad-free geometry at both resolutions, so scaling is exact
        a = count_flops(TINY8, 64)
        b = count_flops(TINY8, 128)
        for ra, rb in zip(a.rows, b.rows):
            if ra.flops and ra.path != "head.linear":
                assert rb.flops == 4 * ra.flops, ra.path
        head_a = [r for r in a.rows if r.path == "head.linear"][0]
        head_b = [r for r in b.rows if r.path == "head.linear"][0]
        assert head_a.flops == head_b.flops

    def test_non_block_rows_closed_form(self):
        cfg = TINY8
        rep = count_flops(cfg, 16)
        by_path = {r.path: r.flops for r in rep.rows}
        assert by_path["stem.proj"] == 48 * 8 * 4 * 4
        assert by_path["head.linear"] == 64 * 4
        # merges: grid 4 -> 2 -> 1 -> 1 with channel doubling
        assert by_path["merge0.reduce"] == 8 * 8 * 8 * 2 * 2
        assert by_path["merge1.reduce"] == 8 * 16 * 16 * 1 * 1
        assert by_path["merge2.reduce"] == 8 * 32 * 32 * 1 * 1

    def test_permutation_ops_cost_nothing(self):
        for comm in ["Shift", "Shuffle", "None"]:
            cfg = dataclasses.replace(DESK, comm=comm)
            assert count_flops(cfg, 32).total_flops == \
                count_flops(dataclasses.replace(DESK, comm="None"), 32).total_flops

    def test_dw_and_shared_have_equal_flops(self):
        a = count_flops(dataclasses.replace(DESK, aggregator="Linear"), 32)
        b = count_flops(dataclasses.replace(DESK, aggregator="DWLinear"), 32)
        assert a.total_flops == b.total_flops

    def test_bad_resolution(self):
        with pytest.raises(ValueError):
            count_flops(DESK, 0)


class TestFlopsOracle:
    @pytest.mark.parametrize("agg", ["Linear", "DWLinear", "MLP", "MHSA"])
    @pytest.mark.parametrize("comm", ["Shift", "Shuffle", "MSG", "None"])
    def test_oracle_equals_closed_form(self, agg, comm):
        cfg = dataclasses.replace(DESK, aggregator=agg, comm=comm)
        assert flops_oracle(cfg, 32) == count_flops(cfg, 32).total_flops

    @pytest.mark.parametrize("agg", ["Linear", "DWLinear", "MLP", "MHSA"])
    @pytest.mark.parametrize("comm", ["Shift", "Shuffle", "MSG", "None"])
    def test_oracle_with_ragged_resolution(self, agg, comm):
        # padded positions count for .agg and .msg but not for .ffn
        cfg = dataclasses.replace(TINY8, aggregator=agg, comm=comm, depths=(2, 1, 1, 1))
        res = (30, 44)  # forces stem and window padding
        assert flops_oracle(cfg, res) == count_flops(cfg, res).total_flops

    @pytest.mark.parametrize("agg", ["Linear", "DWLinear", "MLP", "MHSA"])
    def test_oracle_draws_no_weights(self, agg, monkeypatch):
        # MACs depend only on shapes; the oracle runs on a zero table
        def no_draws(*args, **kwargs):
            raise AssertionError("flops_oracle drew a weight")

        monkeypatch.setattr("winmix.aggregators.trunc_normal", no_draws)
        cfg = dataclasses.replace(DESK, aggregator=agg, comm="MSG")
        assert flops_oracle(cfg, 32) == count_flops(cfg, 32).total_flops

    def test_single_axial_layer_hand_count(self):
        # one window, ws=2, gs=1, C=2: axial 2*(C/gs)*ws*(gs*ws)^2, proj C^2*ws^2
        from winmix.aggregators import aggregate, param_shapes
        p = {n: Tensor(np.zeros(s, np.float32)) for n, s in param_shapes("Linear", 2, 2).items()}
        x = Tensor(np.random.default_rng(0).standard_normal((1, 4, 2)).astype(np.float32))
        with T.count_macs() as macs:
            aggregate("Linear", x, p)
        # 2 * (gs*ws)^2 * ws * (C/gs) axial + C^2 * ws^2 projection
        assert macs[0] == 2 * 4 * 2 * 2 + 4 * 4 == 48

    @pytest.mark.parametrize("name", sorted(M.PRESETS))
    def test_oracle_equals_closed_form_on_presets_at_224(self, name):
        cfg = preset(name)
        assert flops_oracle(cfg, 224) == count_flops(cfg, 224).total_flops

    @pytest.mark.parametrize("res", [0, (0, 5), -3])
    def test_non_positive_resolution_rejected(self, res):
        with pytest.raises(ValueError, match="resolution must be positive"):
            flops_oracle(DESK, res)
        with pytest.raises(ValueError, match="resolution must be positive"):
            count_flops(DESK, res)


class TestConnectivity:
    @pytest.mark.parametrize("seed", range(48))
    def test_matches_dense_oracle(self, seed):
        # every (aggregator, comm) pair three times, on non-square grids that
        # mostly need padding; MSG grids tile into its 1-3 messenger regions
        # (width 36 is divisible by 2*2 and 3*3, so no region falls back)
        rng = np.random.default_rng(seed)
        comm = ("Shift", "Shuffle", "MSG", "None")[seed // 4 % 4]
        region = int(rng.integers(1, 4))
        ws = int(rng.choice([2, 3, 4] if comm == "MSG" else [2, 3, 4, 7]))
        cfg = ModelConfig(
            width=36,
            depths=tuple(int(d) for d in rng.integers(1, 4, size=4)),
            window=ws,
            aggregator=("Linear", "DWLinear", "MLP", "MHSA")[seed % 4],
            comm=comm,
            classes=2,
            groups=4,
            messenger_region=region,
        )
        windows = region * rng.integers(1, 3, size=2) if comm == "MSG" \
            else rng.integers(1, 4, size=2)
        pads = rng.integers(0, ws, size=2)
        if windows[0] == windows[1] and pads[0] == pads[1]:
            pads[1] = (pads[0] + 1) % ws
        grid_h, grid_w = (int(g) for g in windows * ws - pads)
        rep = connectivity(cfg, grid_h, grid_w)
        layers, first_full = dense_connectivity(cfg, grid_h, grid_w)
        assert rep.first_full == first_full, (cfg, grid_h, grid_w)
        assert len(rep.layers) == len(layers)
        for got, want in zip(rep.layers, layers):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("comm, frozen", [("Shift", 16), ("Shuffle", 6)])
    def test_paper_scale_stage0_grid(self, comm, frozen):
        # the 56x56 token grid of a 224 px image; one report holds 32 masks
        # of 3136x3136 bools (about 315 MB), so only one is alive at a time
        cfg = dataclasses.replace(preset("swin-linmapper-tiny"), comm=comm)
        assert connectivity(cfg, 56, 56).first_full == frozen

    @pytest.mark.parametrize("grid", [(0, 0), (0, 4), (4, 0), (-3, -3)])
    def test_empty_grid_rejected(self, grid):
        with pytest.raises(ValueError, match="grid must be positive"):
            connectivity(TINY8, *grid)

    def test_none_caps_at_window_diagonal(self):
        rep = connectivity(dataclasses.replace(preset("swin-linmapper-tiny"),
                                               comm="None"), 14, 14)
        assert rep.first_full is None
        # influence never exceeds one 7x7 window per token
        assert rep.layers[-1].sum(axis=1).max() <= 49

    def test_monotone_growth(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            cfg = random_config(rng)
            grid = cfg.window * int(rng.integers(2, 4))
            rep = connectivity(cfg, grid, grid)
            prev = rep.layers[0]
            for layer in rep.layers[1:]:
                assert (layer | prev == layer).all()
                prev = layer

    def test_identity_floor(self):
        rep = connectivity(dataclasses.replace(TINY8, comm="None"), 4, 4)
        for layer in rep.layers:
            assert layer.diagonal().all()

    @pytest.mark.parametrize("comm", ["Shift", "Shuffle", "MSG"])
    def test_comm_reaches_full_on_14_grid(self, comm):
        cfg = dataclasses.replace(preset("swin-linmapper-tiny"), comm=comm)
        rep = connectivity(cfg, 14, 14)
        assert rep.first_full is not None

    def test_report_serialization(self):
        rep = connectivity(dataclasses.replace(TINY8, comm="Shift", depths=(2, 1, 1, 1)), 4, 4)
        d = rep.to_dict()
        assert d["schema_version"] == 1
        assert len(d["layers"]) == 5
        json.dumps(d)  # JSON-serializable

    @pytest.mark.parametrize("agg", ["Linear", "MLP", "DWLinear", "MHSA"])
    @pytest.mark.parametrize("comm", ["Shift", "Shuffle", "MSG", "None"])
    def test_symbolic_matches_numeric_probe(self, agg, comm):
        # the boolean propagation must match real token-to-token influence of
        # a block stack on a fixed grid, measured by input perturbation
        cfg = ModelConfig(width=8, depths=(3, 1, 1, 1), window=3, classes=2,
                          aggregator=agg, comm=comm, groups=4)
        grid = 6
        rep = connectivity(cfg, grid, grid)
        symbolic = rep.layers[cfg.depths[0] - 1]

        m = build_model(cfg, seed=0, dtype=np.float64)
        rng = np.random.default_rng(1)
        base_vals = rng.standard_normal((1, grid, grid, 8))

        def run(vals):
            fm = FeatureMap(Tensor(vals, dtype=np.float64))
            msg = M._init_messengers(m, 0, fm)
            with T.no_grad():
                for i in range(cfg.depths[0]):
                    fm, msg = M.block_forward(m, fm, 0, i, msg)
            return fm.values.numpy()

        base = run(base_vals)
        n = grid * grid
        numeric = np.zeros((n, n), dtype=bool)
        for j in range(n):
            probe = base_vals.copy()
            # single-channel bump: a uniform one would be erased by the norms
            probe[0, j // grid, j % grid, 0] += 0.01
            delta = np.abs(run(probe) - base).sum(axis=3)[0]
            numeric[:, j] = (delta > 0).reshape(-1)
        np.testing.assert_array_equal(numeric, symbolic)


class TestBench:
    def test_single_repeat_has_zero_iqr(self):
        m = build_model(TINY8, seed=0)
        rep = AN.bench_throughput(m, batch=2, repeats=1, resolution=16, warmup=1)
        assert rep["iqr"] == 0.0
        assert rep["images_per_second"] > 0

    def test_outputs_deterministic_across_timed_runs(self):
        from winmix.model import forward
        m = build_model(TINY8, seed=0)
        imgs = Tensor(np.random.default_rng(2).standard_normal((2, 16, 16, 3)).astype(np.float32))
        AN.bench_throughput(m, batch=2, repeats=2, resolution=16, warmup=1)
        a = forward(m, imgs).numpy()
        AN.bench_throughput(m, batch=2, repeats=2, resolution=16, warmup=1)
        b = forward(m, imgs).numpy()
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("arg,value", [("batch", 0), ("batch", -2), ("repeats", 0),
                                           ("warmup", -1)])
    def test_bad_argument_rejected(self, arg, value):
        m = build_model(TINY8, seed=0)
        kwargs = dict(batch=2, repeats=1, resolution=16, warmup=0) | {arg: value}
        with pytest.raises(ValueError, match=f"{arg} must be >= "):
            AN.bench_throughput(m, **kwargs)

    def test_bigger_model_is_slower(self):
        small = build_model(TINY8, seed=0)
        big = build_model(dataclasses.replace(TINY8, width=32, depths=(2, 2, 2, 2)), seed=0)
        rs = AN.bench_throughput(small, batch=4, repeats=3, resolution=16, warmup=1)
        rb = AN.bench_throughput(big, batch=4, repeats=3, resolution=16, warmup=1)
        assert rs["images_per_second"] > rb["images_per_second"]


class TestReports:
    def test_cost_report_json_schema(self):
        rep = count_flops(DESK, 32)
        d = rep.to_dict()
        assert d["schema_version"] == 1
        assert d["totals"]["params"] == rep.total_params
        assert d["totals"]["flops"] == rep.total_flops
        json.dumps(d)

    def test_cost_report_table_alignment(self):
        txt = count_params(DESK).to_table()
        lines = txt.splitlines()
        assert lines[0].split() == ["layer", "params", "flops"]
        assert lines[-1].startswith("TOTAL")

    def test_pgm_round_trip(self, tmp_path):
        mat = np.random.default_rng(3).random((5, 8)) > 0.5
        path = tmp_path / "m.pgm"
        write_pgm(path, mat)
        raw = path.read_bytes()
        assert raw.startswith(b"P5\n8 5\n255\n")
        pixels = np.frombuffer(raw.split(b"255\n", 1)[1], dtype=np.uint8).reshape(5, 8)
        np.testing.assert_array_equal(pixels == 255, mat)
