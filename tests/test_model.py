import dataclasses
import hashlib
import json

import numpy as np
import pytest

from winmix import model as M
from winmix import tensor as T
from winmix.analytics import count_params
from winmix.model import PRESETS, ConfigError, ModelConfig, build_model, forward, preset
from winmix.tensor import Tensor


TINY = ModelConfig(width=8, depths=(1, 1, 1, 1), window=2, classes=4, groups=4)


def rand_images(rng, b, h, w):
    return Tensor(rng.standard_normal((b, h, w, 3)).astype(np.float32))


class TestPresets:
    def test_deep_tiny(self):
        cfg = preset("swin-linmapper-tiny")
        assert cfg.width == 64
        assert cfg.depths == (2, 4, 22, 4)
        assert cfg.aggregator == "Linear"
        assert cfg.comm == "Shift"

    def test_swin_t_mhsa(self):
        cfg = preset("swin-t-mhsa")
        assert cfg.width == 96
        assert cfg.depths == (2, 2, 6, 2)
        assert cfg.aggregator == "MHSA"
        assert cfg.comm == "Shift"

    def test_shuffle_and_msg_variants(self):
        assert preset("shuffle-linmapper-tiny").comm == "Shuffle"
        msg = preset("msg-linmapper-tiny")
        assert msg.comm == "MSG"
        assert msg.width == 64 and msg.depths == (2, 4, 22, 4)

    def test_scaled_presets(self):
        assert preset("swin-linmapper-small").width == 96
        assert preset("swin-linmapper-base").width == 128
        assert preset("swin-linmapper-tiny-wide").width == 112

    def test_unknown_name_lists_presets(self):
        with pytest.raises(ConfigError, match="swin-linmapper-tiny"):
            preset("no-such-preset")

    def test_heads_rule(self):
        cfg = preset("swin-t-mhsa")
        assert [M.stage_heads(cfg, s) for s in range(4)] == [3, 6, 12, 24]

    def test_group_rule_divisor_fallback(self):
        cfg = preset("swin-linmapper-tiny")  # width 64 -> 32 divides
        assert [M.stage_groups(cfg, s)[0] for s in range(4)] == [32, 32, 32, 32]
        odd = dataclasses.replace(cfg, width=112, groups=32)
        # largest divisor of 112 that is <= 32 is 28; later stages divide by 32
        assert [M.stage_groups(odd, s)[0] for s in range(4)] == [28, 32, 32, 32]


class TestConfigValidation:
    def test_bad_depths(self):
        with pytest.raises(ConfigError):
            ModelConfig(width=8, depths=(1, 1, 1))
        with pytest.raises(ConfigError):
            ModelConfig(width=8, depths=(1, 0, 1, 1))

    def test_bad_kinds(self):
        with pytest.raises(ConfigError):
            ModelConfig(width=8, depths=(1, 1, 1, 1), aggregator="Conv")
        with pytest.raises(ConfigError):
            ModelConfig(width=8, depths=(1, 1, 1, 1), comm="Halo")

    def test_round_trip_dict(self):
        cfg = preset("msg-linmapper-tiny")
        assert ModelConfig.from_dict(cfg.to_dict()) == cfg
        with pytest.raises(ConfigError):
            ModelConfig.from_dict({"width": 8, "depths": [1, 1, 1, 1], "bogus": 1})

    @pytest.mark.parametrize("key, value", [
        ("width", "8"), ("width", True), ("width", 8.0), ("depths", [1, "1", 1, 1]),
        ("depths", 4), ("aggregator", 1), ("layout_faithful", 1)])
    def test_from_dict_checks_value_types(self, key, value):
        d = preset("toy-desk").to_dict() | {key: value}
        with pytest.raises(ConfigError, match=f"'{key}' must be"):
            ModelConfig.from_dict(d)

    def test_retired_layout_faithful_false_loads_true_rejected(self):
        # every file written while the field existed holds "layout_faithful": false
        cfg = preset("toy-desk")
        assert ModelConfig.from_dict(cfg.to_dict() | {"layout_faithful": False}) == cfg
        for value in (True, 0, None):
            with pytest.raises(ConfigError, match="'layout_faithful' must be false"):
                ModelConfig.from_dict(cfg.to_dict() | {"layout_faithful": value})
        with pytest.raises(ConfigError, match="must be a JSON object"):
            ModelConfig.from_dict([("layout_faithful", True)])

    # config fields retired for being fixed by the architecture, at the one
    # value every earlier file could hold
    RETIRED_FIELDS = {"layout_faithful": False, "ffn_ratio": 4, "mlp_ratio": 4,
                      "messenger_count": 1, "messenger_region": 2}

    @pytest.mark.parametrize("key", sorted(RETIRED_FIELDS))
    def test_retired_field_loads_at_old_value_only(self, key):
        cfg, old = preset("msg-linmapper-tiny"), self.RETIRED_FIELDS[key]
        assert ModelConfig.from_dict(cfg.to_dict() | {key: old}) == cfg
        wrong = [not old] if key == "layout_faithful" else [old + 1, old - 1, float(old), True]
        for bad in [*wrong, str(old), None, [old]]:
            with pytest.raises(ConfigError, match=f"retired config field '{key}' must be "
                                                  f"{json.dumps(old)}, got"):
                ModelConfig.from_dict(cfg.to_dict() | {key: bad})

    def test_old_config_with_every_retired_field_loads(self):
        for name, cfg in PRESETS.items():
            assert ModelConfig.from_dict(cfg.to_dict() | self.RETIRED_FIELDS) == cfg, name
        with pytest.raises(ConfigError, match="'messenger_count' must be 1, got bool True"):
            ModelConfig.from_dict(preset("toy-desk").to_dict() | {"messenger_count": True})
        with pytest.raises(ConfigError, match="'ffn_ratio' must be 4, got float 4.0"):
            ModelConfig.from_dict(preset("toy-desk").to_dict() | {"ffn_ratio": 4.0})


class TestBuild:
    def test_same_seed_bit_identical(self):
        a = build_model(TINY, seed=3)
        b = build_model(TINY, seed=3)
        assert list(a.params) == list(b.params)
        for k in a.params:
            np.testing.assert_array_equal(a.params[k].numpy(), b.params[k].numpy())

    def test_different_seed_differs(self):
        a = build_model(TINY, seed=3)
        b = build_model(TINY, seed=4)
        assert any(np.abs(a.params[k].numpy() - b.params[k].numpy()).max() > 0
                   for k in a.params)

    def test_msg_params_only_on_comm_blocks(self):
        cfg = dataclasses.replace(TINY, comm="MSG", depths=(1, 2, 2, 1))
        m = build_model(cfg, seed=0)
        names = list(m.params)
        assert "stage1.msg_init" in names
        assert "stage1.block1.msg.collect.w" in names
        assert "stage0.msg_init" not in names  # depth-1 stage has no odd block
        assert not any(n.startswith("stage0.block0.msg") for n in names)

    # sha256 over (name, shape, bytes) of each toy-desk table at seed 0; a
    # change to the parameter names, shapes or draw order changes the digest.
    # MSG is the only comm scheme that adds weights (messenger init, collect
    # and distribute maps), so it gets its own digests.
    FROZEN_TABLE_DIGESTS = {
        ("Linear", "Shift"): "bee7d20d23f5cdd79ed62e9c4f70a7c55fabd4a168b587fbbf74dcb5df14ac0f",
        ("DWLinear", "Shift"): "b27e071e04200c3a330eb3131e28aed82ba69479ef36a1e0a78fa3a5804a510d",
        ("MLP", "Shift"): "1e60d9410cd963e5149aa197d8f44a9db6f275d2e3fd507a4e57c1c358120b14",
        ("MHSA", "Shift"): "e2ba8faffb0b82c849c7d65a67d3cac0d4440cd5c9c1d883889cd2fad0d98b6c",
        ("Linear", "MSG"): "887a46c10bd7674450c40af0bdab645787b1116f1cb03a895e87b9097fc2fe55",
        ("DWLinear", "MSG"): "b13b8216e38b99a5c4f14701567a3911bcf6906a1b110ec408eaf4e695b31f7a",
        ("MLP", "MSG"): "4fba39d82245ce2ec789d165b6e1816df260bdd9700de43bc47c25b5854622f6",
        ("MHSA", "MSG"): "2cc13eee30685f1ffbc15d485bf2aa63f109ff6070dbb824845b3fb7722f1208",
    }

    @pytest.mark.parametrize("kind, comm", [
        pytest.param(kind, comm, id=kind if comm == "Shift" else f"{kind}-{comm}")
        for kind, comm in sorted(FROZEN_TABLE_DIGESTS)])
    def test_init_digest_frozen(self, kind, comm):
        cfg = dataclasses.replace(preset("toy-desk"), aggregator=kind, comm=comm)
        m = build_model(cfg, seed=0)
        h = hashlib.sha256()
        for name, t in m.params.items():
            h.update(name.encode())
            h.update(repr(t.shape).encode())
            h.update(t.numpy().tobytes())
        assert h.hexdigest() == self.FROZEN_TABLE_DIGESTS[kind, comm]


class TestTableShapes:
    @pytest.mark.parametrize("name", sorted(M.PRESETS))
    def test_total_equals_count_params(self, name):
        # no model is built, so the paper-scale presets are covered too
        cfg = preset(name)
        total = sum(int(np.prod(shape)) for shape in M.table_shapes(cfg).values())
        assert total == count_params(cfg).total_params

    @pytest.mark.parametrize("comm", M.COMM_KINDS)
    @pytest.mark.parametrize("kind", ["Linear", "DWLinear", "MLP", "MHSA"])
    def test_names_shapes_and_order_match_built_table(self, kind, comm):
        cfg = dataclasses.replace(preset("toy-desk"), aggregator=kind, comm=comm)
        built = build_model(cfg, seed=0).params
        assert list(M.table_shapes(cfg).items()) == [(k, t.shape) for k, t in built.items()]


class TestPatchEmbed:
    def test_224_gives_56_grid(self):
        cfg = dataclasses.replace(TINY, window=7)
        m = build_model(cfg, seed=0)
        fm = M.patch_embed(m, rand_images(np.random.default_rng(0), 1, 224, 224))
        assert (fm.height, fm.width) == (56, 56)

    def test_zero_image_gives_norm_beta(self):
        m = build_model(TINY, seed=1)
        fm = M.patch_embed(m, Tensor(np.zeros((1, 8, 8, 3), dtype=np.float32)))
        beta = m.params["stem.norm.b"].numpy()
        np.testing.assert_allclose(fm.values.numpy(),
                                   np.broadcast_to(beta, fm.values.shape), atol=1e-6)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(2)
        m = build_model(TINY, seed=2)
        img = rng.standard_normal((1, 8, 8, 3))
        fm = M.patch_embed(m, Tensor(img.astype(np.float32)))
        w = m.params["stem.proj.w"].numpy().astype(np.float64)
        b = m.params["stem.proj.b"].numpy().astype(np.float64)
        g = m.params["stem.norm.g"].numpy().astype(np.float64)
        bb = m.params["stem.norm.b"].numpy().astype(np.float64)
        for (i, j) in [(0, 0), (1, 0), (0, 1), (1, 1)]:
            patch = img[0, 4 * i:4 * i + 4, 4 * j:4 * j + 4, :].reshape(-1)
            pre = w @ patch + b
            mu, var = pre.mean(), pre.var()
            want = (pre - mu) / np.sqrt(var + 1e-5) * g + bb
            np.testing.assert_allclose(fm.values.numpy()[0, i, j], want, atol=1e-4)


class TestPatchMerge:
    def test_halves_grid_doubles_channels(self):
        m = build_model(TINY, seed=0)
        fm = M.patch_embed(m, rand_images(np.random.default_rng(1), 2, 32, 32))
        out = M.patch_merge(m, fm, stage=0)
        assert (out.batch, out.height, out.width, out.channels) == (2, 4, 4, 16)

    def test_identity_selecting_weights_pick_quadrant(self):
        m = build_model(TINY, seed=0)
        c = TINY.width
        # select the (0, 0) neighbor channels, undo the norm affine
        w = np.zeros((2 * c, 4 * c), dtype=np.float32)
        w[:c, :c] = np.eye(c)
        m.params["merge0.reduce.w"] = Tensor(w)
        rng = np.random.default_rng(3)
        vals = rng.standard_normal((1, 4, 4, c)).astype(np.float32)
        from winmix.geometry import FeatureMap
        out = M.patch_merge(m, FeatureMap(Tensor(vals)), stage=0)
        # with gamma=1, beta=0 the normed (0,0) quadrant appears in channels :c
        from oracles import layer_norm_ref
        cat = np.concatenate([vals[0, 0::2, 0::2], vals[0, 0::2, 1::2],
                              vals[0, 1::2, 0::2], vals[0, 1::2, 1::2]], axis=-1)
        normed = layer_norm_ref(cat, np.ones(4 * c), np.zeros(4 * c), 1e-5)
        np.testing.assert_allclose(out.values.numpy()[0, :, :, :c],
                                   normed[..., :c], atol=1e-4)
        assert np.abs(out.values.numpy()[0, :, :, c:]).max() == 0.0

    def test_odd_grid_pads(self):
        m = build_model(TINY, seed=0)
        from winmix.geometry import FeatureMap
        vals = Tensor(np.random.default_rng(4).standard_normal((1, 5, 3, 8)).astype(np.float32))
        out = M.patch_merge(m, FeatureMap(vals), stage=0)
        assert (out.height, out.width) == (3, 2)


class TestBlocksAndForward:
    @pytest.mark.parametrize("comm", ["None", "Shift", "Shuffle", "MSG"])
    @pytest.mark.parametrize("ws", [2, 3, 4, 7])
    def test_real_positions_are_distinct_window_positions(self, comm, ws):
        # the single-window gathers assign their gradients, which needs
        # distinct rows and distinct cols, each in [0, ws); a map that fills
        # its one window keeps no positions
        cfg = dataclasses.replace(TINY, window=ws, comm=comm)
        assert M.block_layout(cfg, 0, 1, ws, ws)[4] is None
        for h in range(1, ws + 1):
            for w in range(1, ws + 1):
                if (h, w) == (ws, ws):
                    continue
                rows, cols = M.block_layout(cfg, 0, 1, h, w)[4]
                assert (len(set(rows.tolist())), len(set(cols.tolist()))) == (h, w) \
                    == (len(rows), len(cols))
                assert 0 <= min(rows.min(), cols.min()) and max(rows.max(), cols.max()) < ws

    def test_identity_at_zero(self):
        # zero aggregator/FFN weights and affine-neutral norms make every
        # block the identity; logits depend only on the head
        cfg = dataclasses.replace(TINY, comm="Shift", depths=(2, 2, 2, 2))
        m = build_model(cfg, seed=5)
        for name, t in list(m.params.items()):
            if ".agg." in name or ".ffn." in name or ".msg" in name:
                m.params[name] = Tensor(np.zeros_like(t.numpy()))
        rng = np.random.default_rng(6)
        from winmix.geometry import FeatureMap
        vals = Tensor(rng.standard_normal((2, 8, 8, 8)).astype(np.float32))
        fm = FeatureMap(vals)
        for i in range(2):
            fm, _ = M.block_forward(m, fm, stage=0, index=i)
        np.testing.assert_allclose(fm.values.numpy(), vals.numpy(), atol=1e-6)

    @pytest.mark.parametrize("comm", M.COMM_KINDS)
    @pytest.mark.parametrize("hw", [(32, 32), (37, 29)])
    def test_bare_block_stack_reproduces_forward(self, comm, hw):
        # the public pieces are the whole model: each stage threads its
        # messengers from msg=None, and the head is a norm, a mean and a linear
        m = build_model(dataclasses.replace(preset("toy-desk"), comm=comm), seed=0)
        images = rand_images(np.random.default_rng(22), 2, *hw)
        fm = M.patch_embed(m, images)
        for s in range(4):
            msg = None
            for i in range(m.config.depths[s]):
                fm, msg = M.block_forward(m, fm, s, i, msg)
            if s < 3:
                fm = M.patch_merge(m, fm, s)
        v = T.layer_norm(fm.values, m.params["head.norm.g"], m.params["head.norm.b"])
        logits = T.linear(T.tmean(v, axis=(1, 2)), m.params["head.w"], m.params["head.b"])
        np.testing.assert_array_equal(logits.numpy(), forward(m, images).numpy())

    def test_even_blocks_do_not_shift(self):
        assert M.block_layout(TINY, 0, 0, 8, 8)[0] == "None"
        assert M.block_layout(TINY, 0, 1, 8, 8)[0] == "Shift"
        assert M.block_layout(dataclasses.replace(TINY, comm="None"), 0, 1, 8, 8)[0] == "None"

    def test_block_matches_composition_of_parts(self):
        # a block must equal the hand-composed pipeline of tested pieces
        from winmix import aggregators as A
        from winmix import geometry as G

        cfg = dataclasses.replace(TINY, width=8, window=2, comm="Shift",
                                  depths=(2, 1, 1, 1))
        m = build_model(cfg, seed=7)
        rng = np.random.default_rng(8)
        vals = Tensor(rng.standard_normal((1, 4, 4, 8)).astype(np.float32))
        got, _ = M.block_forward(m, G.FeatureMap(vals), stage=0, index=1)

        shifted = G.cyclic_shift(G.FeatureMap(vals), -1, -1)
        win = G.window_partition(shifted, 2)
        normed = T.layer_norm(win, m.params["stage0.block1.norm1.g"],
                              m.params["stage0.block1.norm1.b"])
        win = win + A.aggregate("Linear", normed, M._agg_params(m, "stage0.block1"))
        back = G.cyclic_shift(G.window_reverse(win, 4, 4), 1, 1).values
        normed = T.layer_norm(back, m.params["stage0.block1.norm2.g"],
                              m.params["stage0.block1.norm2.b"])
        want = (back + M._ffn(m, "stage0.block1", normed)).numpy()
        np.testing.assert_array_equal(got.values.numpy(), want)

    @pytest.mark.parametrize("agg", ["Linear", "DWLinear", "MLP", "MHSA"])
    @pytest.mark.parametrize("comm", ["Shift", "Shuffle", "MSG", "None"])
    @pytest.mark.parametrize("hw", [(5, 7), (6, 10), (1, 1), (2, 2), (3, 2), (4, 3), (3, 3)])
    def test_cropped_ffn_matches_windowed_ffn(self, agg, comm, hw):
        # norm2 and the FFN act per token, so running them on the cropped
        # map instead of the padded windows changes no real-token output and
        # no gradient; 5x7 pads to a 2x2 window grid (MSG region 2), 6x10 to
        # a 2x3 one (region 1). Random biases make the padded tokens nonzero.
        # The grids from 1x1 to 4x3 pad to one window, where the block
        # computes the aggregator only at the real tokens; padded tokens stay
        # inputs, so that too changes nothing (3x3 under Shift sits at window
        # rows and columns {2, 3, 0}).
        from oracles import block_forward_windowed_ffn
        from winmix.geometry import FeatureMap

        cfg = ModelConfig(width=8, depths=(2, 1, 1, 1), window=4, aggregator=agg,
                          comm=comm, classes=4, groups=4, heads_divisor=4)
        rng = np.random.default_rng(21)
        table = {k: 0.5 * rng.standard_normal(s) for k, s in M.table_shapes(cfg).items()}
        vals = rng.standard_normal((2, *hw, 8))
        probe = rng.standard_normal((2, *hw, 8))

        def run(block):
            params = {k: Tensor(a, requires_grad=True) for k, a in table.items()}
            model = M.Model(cfg, params, np.dtype(np.float64))
            x = Tensor(vals, requires_grad=True)
            fm, msg = FeatureMap(x), None
            for i in range(2):
                fm, msg = block(model, fm, 0, i, msg)
            loss = T.tsum(fm.values * Tensor(probe))
            T.backward(loss)
            grads = {k: t.grad for k, t in params.items() if t.grad is not None}
            return fm.values.numpy(), x.grad, grads

        def assert_close(a, b, scale, name):
            # relative to the largest entry of its kind: summation order
            # differs between the two routes, so an entry near cancellation
            # (MHSA's key-bias gradient is exactly zero in exact arithmetic)
            # may differ by more than 1e-12 of itself
            assert np.abs(a - b).max() <= 1e-12 * scale, name

        got, want = run(M.block_forward), run(block_forward_windowed_ffn)
        assert_close(got[0], want[0], np.abs(want[0]).max(), "output")
        assert_close(got[1], want[1], np.abs(want[1]).max(), "input gradient")
        assert got[2].keys() == want[2].keys()
        scale = max(np.abs(g).max() for g in want[2].values())
        for name in want[2]:
            assert_close(got[2][name], want[2][name], scale, name)

    def test_zero_head_gives_zero_logits(self):
        m = build_model(TINY, seed=9)
        m.params["head.w"] = Tensor(np.zeros_like(m.params["head.w"].numpy()))
        m.params["head.b"] = Tensor(np.zeros_like(m.params["head.b"].numpy()))
        logits = forward(m, rand_images(np.random.default_rng(10), 2, 16, 16))
        np.testing.assert_array_equal(logits.numpy(), 0.0)

    def test_batch_permutation_equivariance(self):
        m = build_model(dataclasses.replace(TINY, comm="Shuffle", depths=(2, 1, 1, 1)),
                        seed=11)
        rng = np.random.default_rng(12)
        imgs = rng.standard_normal((4, 16, 16, 3)).astype(np.float32)
        perm = np.array([2, 0, 3, 1])
        a = forward(m, Tensor(imgs)).numpy()
        b = forward(m, Tensor(imgs[perm])).numpy()
        np.testing.assert_allclose(b, a[perm], atol=1e-5)

    @pytest.mark.parametrize("comm", ["Shift", "Shuffle", "MSG", "None"])
    def test_resolution_robustness(self, comm):
        cfg = dataclasses.replace(TINY, comm=comm, depths=(2, 2, 1, 1))
        m = build_model(cfg, seed=13)
        rng = np.random.default_rng(14)
        for hw in [(8, 8), (37, 61), (16, 40)]:
            logits = forward(m, rand_images(rng, 1, *hw))
            assert logits.shape == (1, 4)
            assert np.isfinite(logits.numpy()).all()

    def test_stage_grids_at_224(self):
        cfg = dataclasses.replace(TINY, window=7)
        m = build_model(cfg, seed=15)
        fm = M.patch_embed(m, rand_images(np.random.default_rng(16), 1, 224, 224))
        sizes = [(fm.height, fm.width)]
        for s in range(3):
            fm, _ = M.block_forward(m, fm, stage=s, index=0)
            fm = M.patch_merge(m, fm, stage=s)
            sizes.append((fm.height, fm.width))
        assert sizes == [(56, 56), (28, 28), (14, 14), (7, 7)]

    def test_full_forward_matches_numpy_reference(self):
        # independent plain-numpy reimplementation of the whole forward pass
        cfg = dataclasses.replace(TINY, comm="Shift", depths=(2, 1, 1, 1))
        m = build_model(cfg, seed=17, dtype=np.float64)
        rng = np.random.default_rng(18)
        img = rng.standard_normal((2, 16, 16, 3))
        got = forward(m, Tensor(img, dtype=np.float64)).numpy()
        want = _numpy_reference_forward(m, img)
        assert np.abs(got - want).max() <= 1e-4


def _numpy_reference_forward(m, img):
    """Loop-based reimplementation used as the end-to-end oracle."""
    from oracles import gelu_ref, layer_norm_ref, linmapper_loops

    cfg = m.config
    p = {k: v.numpy().astype(np.float64) for k, v in m.params.items()}
    ws = cfg.window
    b = img.shape[0]

    # stem: 4x4 patches -> linear -> norm
    gh, gw = img.shape[1] // 4, img.shape[2] // 4
    x = np.zeros((b, gh, gw, cfg.width))
    for bi in range(b):
        for i in range(gh):
            for j in range(gw):
                patch = img[bi, 4 * i:4 * i + 4, 4 * j:4 * j + 4, :].reshape(-1)
                x[bi, i, j] = p["stem.proj.w"] @ patch + p["stem.proj.b"]
    x = layer_norm_ref(x, p["stem.norm.g"], p["stem.norm.b"], 1e-5)

    for s in range(4):
        c = x.shape[-1]
        gs = M.stage_groups(cfg, s)[1]
        for blk in range(cfg.depths[s]):
            pre = f"stage{s}.block{blk}"
            active = cfg.comm != "None" and blk % 2 == 1
            h, w = x.shape[1], x.shape[2]
            ph, pw = -h % ws, -w % ws
            xp = np.pad(x, [(0, 0), (0, ph), (0, pw), (0, 0)])
            if active and cfg.comm == "Shift":
                xp = np.roll(xp, (-(ws // 2), -(ws // 2)), axis=(1, 2))
            hp, wp = xp.shape[1], xp.shape[2]
            # windows, one at a time
            out = np.zeros_like(xp)
            for bi in range(b):
                for wi in range(hp // ws):
                    for wj in range(wp // ws):
                        win = xp[bi, wi * ws:(wi + 1) * ws, wj * ws:(wj + 1) * ws, :]
                        toks = win.reshape(ws * ws, c)
                        normed = layer_norm_ref(toks, p[f"{pre}.norm1.g"],
                                                p[f"{pre}.norm1.b"], 1e-5)
                        agg = linmapper_loops(
                            normed.T[None], p[f"{pre}.agg.w_h"], p[f"{pre}.agg.b_h"],
                            p[f"{pre}.agg.w_w"], p[f"{pre}.agg.b_w"],
                            p[f"{pre}.agg.w_p"], p[f"{pre}.agg.b_p"], gs, ws)[0].T
                        toks = toks + agg
                        normed = layer_norm_ref(toks, p[f"{pre}.norm2.g"],
                                                p[f"{pre}.norm2.b"], 1e-5)
                        ffn = gelu_ref(normed @ p[f"{pre}.ffn.w1"].T + p[f"{pre}.ffn.b1"]) \
                            @ p[f"{pre}.ffn.w2"].T + p[f"{pre}.ffn.b2"]
                        toks = toks + ffn
                        out[bi, wi * ws:(wi + 1) * ws, wj * ws:(wj + 1) * ws, :] = \
                            toks.reshape(ws, ws, c)
            if active and cfg.comm == "Shift":
                out = np.roll(out, (ws // 2, ws // 2), axis=(1, 2))
            x = out[:, :h, :w, :]
        if s < 3:
            h, w = x.shape[1], x.shape[2]
            xp = np.pad(x, [(0, 0), (0, h % 2), (0, w % 2), (0, 0)])
            cat = np.concatenate([xp[:, 0::2, 0::2], xp[:, 0::2, 1::2],
                                  xp[:, 1::2, 0::2], xp[:, 1::2, 1::2]], axis=-1)
            cat = layer_norm_ref(cat, p[f"merge{s}.norm.g"], p[f"merge{s}.norm.b"], 1e-5)
            x = cat @ p[f"merge{s}.reduce.w"].T

    x = layer_norm_ref(x, p["head.norm.g"], p["head.norm.b"], 1e-5)
    pooled = x.mean(axis=(1, 2))
    return pooled @ p["head.w"].T + p["head.b"]


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        m = build_model(dataclasses.replace(TINY, comm="MSG", depths=(1, 2, 1, 1)),
                        seed=19)
        path = tmp_path / "model.wmix"
        M.save_model(path, m)
        loaded = M.load_model(path)
        assert loaded.config == m.config
        assert list(loaded.params) == list(m.params)
        for k in m.params:
            assert m.params[k].numpy().tobytes() == loaded.params[k].numpy().tobytes()

    def test_file_with_extra_key_loads(self, tmp_path):
        from winmix.io import save_checkpoint
        m = build_model(TINY, seed=21)
        path = tmp_path / "extra.wmix"
        save_checkpoint(path, {"schema_version": 1, "model": m.config.to_dict(),
                               "extra": {"note": "x"}},
                        {k: t.numpy() for k, t in m.params.items()})
        loaded = M.load_model(path)
        assert list(loaded.params) == list(m.params)
        assert loaded.param_count() == m.param_count()

    @pytest.mark.parametrize("edit", ["renamed", "transposed"])
    def test_table_mismatch_names_file_and_record(self, tmp_path, edit):
        # both edits keep the element count, so only the table check sees them
        from winmix.io import CheckpointError, save_checkpoint
        m = build_model(preset("toy-desk"), seed=0)
        tensors = {k: t.numpy() for k, t in m.params.items()}
        if edit == "renamed":
            record = "stage2.block0.agg.w_p"
            tensors = {("stage2.block0.agg.w_q" if k == record else k): v
                       for k, v in tensors.items()}
        else:
            record = "stage0.block0.ffn.w1"
            tensors[record] = np.ascontiguousarray(tensors[record].T)
        path = tmp_path / f"{edit}.wmix"
        save_checkpoint(path, {"model": m.config.to_dict()}, tensors)
        with pytest.raises(CheckpointError, match=rf"{edit}\.wmix: record '{record}'"):
            M.load_model(path)

    def test_duplicate_record_names_record_and_offset(self, tmp_path):
        # a second record of one name used to replace the first silently
        import struct
        from winmix.io import CheckpointError
        m = build_model(TINY, seed=22)
        path = tmp_path / "dup.wmix"
        M.save_model(path, m)
        raw = path.read_bytes()
        zeros = np.zeros_like(m.params["stem.proj.w"].numpy())
        name = b"stem.proj.w"
        path.write_bytes(raw + struct.pack("<I", len(name)) + name
                         + struct.pack("<BB2Q", 0, 2, *zeros.shape) + zeros.tobytes())
        with pytest.raises(CheckpointError,
                           match=f"duplicate tensor record 'stem.proj.w' at byte {len(raw)}"):
            M.load_model(path)

    def test_magic_checked(self, tmp_path):
        from winmix.io import CheckpointError
        bad = tmp_path / "bad.wmix"
        bad.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(CheckpointError):
            M.load_model(bad)

    def test_format_layout(self, tmp_path):
        # magic, version u32, json length u32 prefix
        import struct
        m = build_model(TINY, seed=20)
        path = tmp_path / "m.wmix"
        M.save_model(path, m)
        raw = path.read_bytes()
        assert raw[:4] == b"WMIX"
        assert struct.unpack_from("<I", raw, 4)[0] == 1
        jlen = struct.unpack_from("<I", raw, 8)[0]
        import json
        blob = json.loads(raw[12:12 + jlen])
        assert blob["model"]["width"] == TINY.width
