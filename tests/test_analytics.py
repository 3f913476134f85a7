import dataclasses
import hashlib
import json

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

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
    window through a (windows, N) membership matrix. Padded positions are
    cleared after each block, as the model crops them and re-pads with zeros.
    Returns the per-block masks and the 1-based first full block, as
    ``connectivity`` reports them.
    """
    ws = cfg.window
    hp, wp = -(-grid_h // ws) * ws, -(-grid_w // ws) * ws
    gh, gw = hp // ws, wp // ws
    n = hp * wp
    rows, cols = np.divmod(np.arange(n), wp)
    wid = (rows // ws) * gw + cols // ws
    real = (rows < grid_h) & (cols < grid_w)
    real_idx = np.flatnonzero(real)
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
        "Shift": geo.trace_permutation(
            hp, wp, lambda f: geo.cyclic_shift(f, -shift, -shift)),
        "Shuffle": geo.trace_permutation(
            hp, wp, lambda f: geo.spatial_shuffle(f, ws)),
    }
    layers, first_full, block_no = [], None, 0
    for s in range(4):
        # messengers start empty each stage; the exchange region is the
        # largest side <= 2 tiling the window grid whose area divides C
        msg = np.zeros((gh * gw, real_idx.size), dtype=bool)
        region = 2 if gh % 2 == gw % 2 == (cfg.width << s) % 4 == 0 else 1
        for i in range(cfg.depths[s]):
            block_no += 1
            active = cfg.comm != "None" and i % 2 == 1
            perm = perms.get(cfg.comm) if active else None
            if perm is not None:
                r = r[perm]
            if active and cfg.comm == "MSG":
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
            r = r & real[:, None]
    return layers, first_full


def probe_connectivity(model, grid_h: int, grid_w: int, rng) -> list[np.ndarray]:
    """Token influence measured on the forward pass of stage 0's blocks.

    Batch element j bumps one channel of input token j (a uniform bump would
    be erased by the norms); mask[i, j] after a block is whether output token
    i of element j differs from an unbumped batch run through the same
    shapes, so only a real dependence moves it. One mask per stage-0 block.
    """
    n, c = grid_h * grid_w, model.config.width
    base = np.broadcast_to(rng.standard_normal((1, grid_h, grid_w, c)), (n, grid_h, grid_w, c))
    bumped = base.copy()
    bumped.reshape(n, n, c)[np.arange(n), np.arange(n), 0] += 0.01

    def run(vals):
        fm = FeatureMap(Tensor(vals, dtype=np.float64))
        msg, outs = None, []
        with T.no_grad():
            for i in range(model.config.depths[0]):
                fm, msg = M.block_forward(model, fm, 0, i, msg)
                outs.append(fm.values.numpy().reshape(n, n, c))
        return outs

    return [(np.abs(p - b).sum(axis=2) > 0).T for p, b in zip(run(bumped), run(base.copy()))]


def random_config(rng) -> ModelConfig:
    width = int(rng.choice([8, 12, 16, 24, 32]))
    return ModelConfig(
        width=width,
        depths=tuple(int(d) for d in rng.integers(1, 4, size=4)),
        window=int(rng.choice([2, 3, 4])),
        aggregator=str(rng.choice(["Linear", "DWLinear", "MLP", "MHSA"])),
        comm=str(rng.choice(["Shift", "Shuffle", "MSG", "None"])),
        classes=int(rng.choice([2, 4, 10])),
        groups=int(rng.choice([4, 8, 16, 32])),
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
    @pytest.mark.parametrize("comm", ["Shift", "Shuffle", "MSG", "None"])
    def test_oracle_on_single_window_stages(self, agg, comm):
        # stage grids that pad to one window compute .agg at their real
        # tokens only: 32 px gives 2x2 and 1x1, 36x28 3x2 and 2x1, 20x44 2x3
        # and 1x2, 12 px a 3x3 stage 0, 4x28 a 1x4 stage 1
        cfg = dataclasses.replace(DESK, aggregator=agg, comm=comm)
        for res in (32, (36, 28), (20, 44), 12, (4, 28)):
            assert flops_oracle(cfg, res) == count_flops(cfg, res).total_flops, res

    @pytest.mark.parametrize("agg, total", [("Linear", 909_824), ("DWLinear", 909_824),
                                            ("MLP", 1_163_776), ("MHSA", 1_888_768)])
    def test_desk_totals_at_32(self, agg, total):
        assert count_flops(dataclasses.replace(DESK, aggregator=agg), 32).total_flops == total

    def test_single_window_agg_hand_count(self):
        # toy-desk stage 3 at 32 px: C=128, one real token of a 4x4 window,
        # groups 32 of gs 4 (k = 16). Each axial map runs once, to gs
        # outputs: 2 * 32 * 16 * 4; w_p once: 128^2
        row = {r.path: r.flops for r in count_flops(DESK, 32).rows}
        assert row["stage3.block0.agg"] == 2 * 32 * 16 * 4 + 128 * 128

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

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(("Linear", "DWLinear", "MLP", "MHSA")),
           st.sampled_from(("Shift", "Shuffle", "MSG", "None")),
           st.integers(1, 5), st.integers(1, 12), st.integers(1, 6), st.integers(1, 6),
           st.tuples(*[st.integers(1, 2)] * 4), st.integers(2, 5),
           st.integers(1, 48), st.integers(1, 48))
    # window 5 at 20x12: stage 0 is 5x3 and every stage pads to one window;
    # window 3 at 44x28: stage 0 has partial edge windows, stage 2 pads to one
    @example("MLP", "MSG", 5, 12, 4, 3, (2, 2, 1, 1), 3, 20, 12)
    @example("MHSA", "Shift", 3, 8, 4, 2, (2, 2, 2, 1), 4, 44, 28)
    def test_oracle_and_table_on_random_configs(self, agg, comm, window, width, groups,
                                                heads_divisor, depths, classes, h, w):
        # the closed forms against the real forward pass and the built table
        cfg = ModelConfig(width=width, depths=depths, window=window, aggregator=agg,
                          comm=comm, classes=classes, groups=groups,
                          heads_divisor=heads_divisor)
        assert flops_oracle(cfg, (h, w)) == count_flops(cfg, (h, w)).total_flops
        assert sum(int(np.prod(s)) for s in M.table_shapes(cfg).values()) \
            == count_params(cfg).total_params

    @pytest.mark.parametrize("res", [0, (0, 5), -3])
    def test_non_positive_resolution_rejected(self, res):
        with pytest.raises(ValueError, match="resolution must be positive"):
            flops_oracle(DESK, res)
        with pytest.raises(ValueError, match="resolution must be positive"):
            count_flops(DESK, res)


def frozen_cost_cases():
    """(id, config, resolutions) of the frozen cost tables: every preset at
    224 px, and toy-desk over 4 aggregators x 4 comms at 32 px and at a
    ragged 37x29 px that pads the stem, the windows and the merges."""
    for name in sorted(M.PRESETS):
        yield name, preset(name), (224,)
    for agg in ("Linear", "DWLinear", "MLP", "MHSA"):
        for comm in ("Shift", "Shuffle", "MSG", "None"):
            yield (f"toy-desk-{agg}-{comm}", dataclasses.replace(DESK, aggregator=agg, comm=comm),
                   (32, (37, 29)))


class TestFrozenCostTables:
    # sha256 over the JSON of each config's parameter table (names, shapes
    # and order), its count_params report and its count_flops reports; any
    # change to a row's path, order or value changes the digest
    FROZEN = {
        "msg-linmapper-tiny":
            "993f390958db7ca3499a3da2da04e52ddd9e909fb6bf67a312a72a759e673644",
        "shuffle-linmapper-tiny":
            "559e4dadb274fb9518f0cf85b12c7353cad59aadaeade0db2d7967a24c3a6c74",
        "swin-linmapper-base":
            "f9952af4f3f0b90271b9f014af4b6aa45989a9caaa12a7604ce4375a34d7e798",
        "swin-linmapper-small":
            "06d3c584e64fcddf6bbc66fcd490b6c533b818086a472d25ade9daad2b26c3ad",
        "swin-linmapper-tiny":
            "559e4dadb274fb9518f0cf85b12c7353cad59aadaeade0db2d7967a24c3a6c74",
        "swin-linmapper-tiny-baseline":
            "973341a14f84fe798a3859dc206a115809c2aaf612d495dddc3790b6428629d5",
        "swin-linmapper-tiny-deep":
            "559e4dadb274fb9518f0cf85b12c7353cad59aadaeade0db2d7967a24c3a6c74",
        "swin-linmapper-tiny-wide":
            "c9ba2ac2cb19b2a3a0c1f90eb01d857c506b64c6b4990f84eeecb5ac1864e829",
        "swin-t-mhsa":
            "1f8c28d9f9cf7bd7b006c377ec48f22c8946400102419818e073322625a3eaa6",
        "toy-desk":
            "3d675287ef056e3aa1d96507cabce65f3bd3431ea3d788946fa33374db14066b",
        "toy-desk-Linear-Shift":
            "7ab891a7115e52b232a43ecd4da12cb84c982c130294e04160206c1280eb78c7",
        "toy-desk-Linear-Shuffle":
            "7ab891a7115e52b232a43ecd4da12cb84c982c130294e04160206c1280eb78c7",
        "toy-desk-Linear-MSG":
            "c16538f3f5812a8abdbcc43d53fd954b8858b63e9954fdb9f9296b9038b23c1c",
        "toy-desk-Linear-None":
            "7ab891a7115e52b232a43ecd4da12cb84c982c130294e04160206c1280eb78c7",
        "toy-desk-DWLinear-Shift":
            "c6f5703d1de4aec9379333349a2f16806090255097fc55a7b25e256b861eb0d7",
        "toy-desk-DWLinear-Shuffle":
            "c6f5703d1de4aec9379333349a2f16806090255097fc55a7b25e256b861eb0d7",
        "toy-desk-DWLinear-MSG":
            "f7977301e7d84a81594ba96e88bcfd0745b26456462feab2c1940caa450e4f6a",
        "toy-desk-DWLinear-None":
            "c6f5703d1de4aec9379333349a2f16806090255097fc55a7b25e256b861eb0d7",
        "toy-desk-MLP-Shift":
            "67be4f00a8d9bbd491ea5c7a3f5b0c7d0521dd635a85121b1b8a76cad1568249",
        "toy-desk-MLP-Shuffle":
            "67be4f00a8d9bbd491ea5c7a3f5b0c7d0521dd635a85121b1b8a76cad1568249",
        "toy-desk-MLP-MSG":
            "fc857417d7d846bff8a55b74f283197725ff807ca2753e72dcba8e0317a182fe",
        "toy-desk-MLP-None":
            "67be4f00a8d9bbd491ea5c7a3f5b0c7d0521dd635a85121b1b8a76cad1568249",
        "toy-desk-MHSA-Shift":
            "2340e0a34b1be5b86521a79358b2bc8596048b91b4eb62b1ebd067d28e4c7b4c",
        "toy-desk-MHSA-Shuffle":
            "2340e0a34b1be5b86521a79358b2bc8596048b91b4eb62b1ebd067d28e4c7b4c",
        "toy-desk-MHSA-MSG":
            "85ca1edef31e8f816eb2e378c09058a0864e7349279ccc8ecd190eaacb9cb73a",
        "toy-desk-MHSA-None":
            "2340e0a34b1be5b86521a79358b2bc8596048b91b4eb62b1ebd067d28e4c7b4c",
    }

    @pytest.mark.parametrize("case", list(frozen_cost_cases()), ids=lambda c: c[0])
    def test_cost_tables_frozen(self, case):
        name, cfg, resolutions = case
        tables = {"table": list(M.table_shapes(cfg).items()),
                  "params": count_params(cfg).to_dict(),
                  "flops": [count_flops(cfg, r).to_dict() for r in resolutions]}
        digest = hashlib.sha256(json.dumps(tables).encode()).hexdigest()
        assert digest == self.FROZEN[name], name


def dense_oracle_case(seed: int) -> tuple[ModelConfig, int, int]:
    """Every (aggregator, comm) pair three times over seeds 0-47, on
    non-square grids that mostly need padding. MSG window grids are 1 or 2
    windows a side, or twice that, so they exchange over 1x1 and 2x2 regions
    (width 36 is divisible by 2*2 at every stage)."""
    rng = np.random.default_rng(seed)
    comm = ("Shift", "Shuffle", "MSG", "None")[seed // 4 % 4]
    region = int(rng.integers(1, 3))
    ws = int(rng.choice([2, 3, 4] if comm == "MSG" else [2, 3, 4, 7]))
    cfg = ModelConfig(
        width=36,
        depths=tuple(int(d) for d in rng.integers(1, 4, size=4)),
        window=ws,
        aggregator=("Linear", "DWLinear", "MLP", "MHSA")[seed % 4],
        comm=comm,
        classes=2,
        groups=4,
    )
    windows = region * rng.integers(1, 3, size=2) if comm == "MSG" \
        else rng.integers(1, 4, size=2)
    pads = rng.integers(0, ws, size=2)
    if windows[0] == windows[1] and pads[0] == pads[1]:
        pads[1] = (pads[0] + 1) % ws
    grid_h, grid_w = (int(g) for g in windows * ws - pads)
    return cfg, grid_h, grid_w


class TestConnectivity:
    def test_dense_oracle_msg_cases_cover_regions_1_and_2(self):
        regions = set()
        for seed in range(48):
            cfg, grid_h, grid_w = dense_oracle_case(seed)
            if cfg.comm == "MSG":
                regions.add(M.block_layout(cfg, 0, 1, grid_h, grid_w)[3])
        assert regions == {1, 2}

    @pytest.mark.parametrize("seed", range(48))
    def test_matches_dense_oracle(self, seed):
        cfg, grid_h, grid_w = dense_oracle_case(seed)
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
        m = build_model(cfg, seed=0, dtype=np.float64)
        probed = probe_connectivity(m, grid, grid, np.random.default_rng(1))
        for numeric, symbolic in zip(probed, rep.layers):
            np.testing.assert_array_equal(numeric, symbolic)

    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from(("Linear", "DWLinear", "MLP", "MHSA")),
           st.sampled_from(("Shift", "Shuffle", "MSG", "None")),
           st.integers(2, 3), st.integers(1, 8), st.integers(1, 3), st.integers(1, 3),
           st.integers(1, 7), st.integers(1, 7), st.integers(0, 2 ** 32 - 1))
    # MSG on a 2x2 window grid of width 4 (region 2), and on 2x3 (region 1)
    @example("Linear", "MSG", 2, 2, 2, 3, 3, 4, 0)
    @example("MHSA", "MSG", 3, 1, 3, 3, 4, 7, 1)
    def test_padded_grids_match_numeric_probe(self, agg, comm, ws, gs, groups, depth,
                                              grid_h, grid_w, seed):
        # generic weights and nonzero biases, so no path cancels by accident,
        # at std 0.5 so no softmax saturates; a norm over 1 or 2 channels
        # erases a small bump, so 3 or more
        assume(gs * groups >= 3)
        cfg = ModelConfig(width=gs * groups, depths=(depth, 1, 1, 1), window=ws,
                          aggregator=agg, comm=comm, classes=2, groups=groups,
                          heads_divisor=2)
        rng = np.random.default_rng(seed)
        m = build_model(cfg, seed=0, dtype=np.float64)
        m = dataclasses.replace(m, params={k: Tensor(0.5 * rng.standard_normal(t.shape))
                                           for k, t in m.params.items()})
        rep = connectivity(cfg, grid_h, grid_w)
        probed = probe_connectivity(m, grid_h, grid_w, rng)
        for block, (numeric, symbolic) in enumerate(zip(probed, rep.layers)):
            np.testing.assert_array_equal(numeric, symbolic, err_msg=f"block {block}")


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
