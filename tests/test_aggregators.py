import numpy as np
import pytest

from winmix import aggregators as A
from winmix import tensor as T
from winmix.tensor import ShapeError, Tensor

from oracles import agg_params, gelu_ref, linmapper_loops, mhsa_loops

# every window here is token-major (B, ws*ws, C), as ``aggregate`` takes it;
# the scalar-loop oracles stay channel-major, so calls into them transpose


def t64(arr):
    return Tensor(np.asarray(arr, dtype=np.float64))


def linear_params(rng, c, ws, gs, w_h=None, w_w=None, w_p=None, zeros_bias=True):
    k = gs * ws
    def pick(given, shape):
        return np.asarray(given, dtype=np.float64) if given is not None \
            else rng.standard_normal(shape)
    return dict(
        w_h=t64(pick(w_h, (k, k))), b_h=t64(np.zeros(k) if zeros_bias else rng.standard_normal(k)),
        w_w=t64(pick(w_w, (k, k))), b_w=t64(np.zeros(k) if zeros_bias else rng.standard_normal(k)),
        w_p=t64(pick(w_p, (c, c))), b_p=t64(np.zeros(c)))


def axial_loop_oracle(kind, x, p, gs, ws, layout_faithful):
    """``linmapper_loops`` on token-major windows ``x`` for an axial kind."""
    n = {name: t.numpy() for name, t in p.items()}
    layer = "1" if kind == "MLP" else ""
    maps = [n[f"{wb}{layer}_{axis}"] for axis in "hw" for wb in "wb"]
    extra = {}
    if kind == "MLP":
        extra = dict(activation=gelu_ref,
                     second=((n["w2_h"], n["b2_h"]), (n["w2_w"], n["b2_w"])))
    out = linmapper_loops(x.transpose(0, 2, 1), *maps, n["w_p"], n["b_p"], gs, ws,
                          layout_faithful=layout_faithful, **extra)
    return out.transpose(0, 2, 1)


def assert_matches_loop_oracle(kind, p, rng, c, ws, gs, layout_faithful, atol):
    x = rng.standard_normal((2, ws * ws, c))
    got = A.aggregate(kind, t64(x), p, layout_faithful).numpy()
    want = axial_loop_oracle(kind, x, p, gs, ws, layout_faithful)
    assert np.abs(got - want).max() <= atol


class TestLinMapper:
    def test_zero_weights_annihilate(self):
        rng = np.random.default_rng(0)
        p = linear_params(rng, 4, 2, 2, w_h=np.zeros((4, 4)), w_w=np.zeros((4, 4)),
                          w_p=np.eye(4))
        x = t64(rng.standard_normal((3, 4, 4)))
        out = A.aggregate("Linear", x, p)
        np.testing.assert_array_equal(out.numpy(), 0.0)

    def test_identity_maps_with_half_projection(self):
        rng = np.random.default_rng(1)
        k = 6
        p = linear_params(rng, 3, 2, 3, w_h=np.eye(k), w_w=np.eye(k),
                          w_p=0.5 * np.eye(3))
        x = t64(rng.standard_normal((2, 4, 3)))
        out = A.aggregate("Linear", x, p)
        np.testing.assert_allclose(out.numpy(), x.numpy(), rtol=1e-12)

    def test_height_swap_window(self):
        # ws=2, gs=1, C=1: swapping the height axis flips the window rows
        p = linear_params(np.random.default_rng(2), 1, 2, 1,
                          w_h=[[0, 1], [1, 0]], w_w=np.zeros((2, 2)), w_p=[[1.0]])
        x = t64(np.array([1.0, 2.0, 3.0, 4.0]).reshape(1, 4, 1))  # window [[1,2],[3,4]]
        out = A.aggregate("Linear", x, p).numpy()
        np.testing.assert_array_equal(out.reshape(-1), [3.0, 4.0, 1.0, 2.0])

    @pytest.mark.parametrize("layout", [False, True])
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_scalar_loop_oracle(self, layout, seed):
        rng = np.random.default_rng(10 + seed)
        c, ws, gs = 6, 3, 2
        p = linear_params(rng, c, ws, gs, zeros_bias=False)
        assert_matches_loop_oracle("Linear", p, rng, c, ws, gs, layout, atol=1e-10)

    def test_layout_mode_differs_from_symmetric_when_gs_gt_1(self):
        rng = np.random.default_rng(20)
        p = linear_params(rng, 4, 2, 2, zeros_bias=False)
        x = t64(rng.standard_normal((1, 4, 4)))
        sym = A.aggregate("Linear", x, p, layout_faithful=False).numpy()
        lit = A.aggregate("Linear", x, p, layout_faithful=True).numpy()
        assert np.abs(sym - lit).max() > 1e-6

    def test_layout_mode_equal_when_gs_1(self):
        # with one channel per group the row-major chunk is exactly a row
        rng = np.random.default_rng(21)
        p = linear_params(rng, 3, 2, 1, zeros_bias=False)
        x = t64(rng.standard_normal((2, 4, 3)))
        sym = A.aggregate("Linear", x, p, layout_faithful=False).numpy()
        lit = A.aggregate("Linear", x, p, layout_faithful=True).numpy()
        np.testing.assert_allclose(sym, lit, rtol=1e-12)

    def test_group_divisibility_enforced(self):
        with pytest.raises(ShapeError):
            A.aggregate("Linear", t64(np.zeros((1, 4, 5))),
                        linear_params(np.random.default_rng(22), 4, 2, 2))

    def test_axial_cross_jacobian_sparsity_ws7(self):
        # perturbing input token (h, w) moves only outputs in row h or col w
        rng = np.random.default_rng(23)
        ws, gs, c = 7, 2, 4
        p = linear_params(rng, c, ws, gs, zeros_bias=False)
        x = rng.standard_normal((1, ws * ws, c))
        base = A.aggregate("Linear", t64(x), p).numpy()
        for (h, w) in [(0, 0), (3, 5), (6, 2)]:
            probe = x.copy()
            probe[0, h * ws + w] += 1.0
            moved = A.aggregate("Linear", t64(probe), p).numpy()
            delta = np.abs(moved - base).sum(axis=2).reshape(ws, ws)
            affected = delta > 1e-12
            cross = np.zeros((ws, ws), dtype=bool)
            cross[h, :] = True
            cross[:, w] = True
            assert (affected <= cross).all()
            assert affected[h, w]


class TestDWLinMapper:
    def dw_params(self, rng, c, ws, gs):
        g = c // gs
        k = gs * ws
        return dict(
            w_h=t64(rng.standard_normal((g, k, k))), b_h=t64(rng.standard_normal((g, k))),
            w_w=t64(rng.standard_normal((g, k, k))), b_w=t64(rng.standard_normal((g, k))),
            w_p=t64(rng.standard_normal((c, c))), b_p=t64(rng.standard_normal(c)))

    def test_identical_groups_degenerate_to_shared(self):
        rng = np.random.default_rng(30)
        c, ws, gs = 6, 2, 2
        shared = linear_params(rng, c, ws, gs, zeros_bias=False)
        g = c // gs
        dw = dict(
            w_h=t64(np.stack([shared["w_h"].numpy()] * g)), b_h=t64(np.stack([shared["b_h"].numpy()] * g)),
            w_w=t64(np.stack([shared["w_w"].numpy()] * g)), b_w=t64(np.stack([shared["b_w"].numpy()] * g)),
            w_p=shared["w_p"], b_p=shared["b_p"])
        x = t64(rng.standard_normal((2, ws * ws, c)))
        np.testing.assert_array_equal(A.aggregate("DWLinear", x, dw).numpy(),
                                      A.aggregate("Linear", x, shared).numpy())

    def test_group_selective_weights(self):
        # group 0 passes through (identity + half projection), group 1 zeroed
        ws, gs, c = 2, 1, 2
        k = gs * ws
        dw = dict(
            w_h=t64(np.stack([np.eye(k), np.zeros((k, k))])), b_h=t64(np.zeros((2, k))),
            w_w=t64(np.stack([np.eye(k), np.zeros((k, k))])), b_w=t64(np.zeros((2, k))),
            w_p=t64(0.5 * np.eye(c)), b_p=t64(np.zeros(c)))
        rng = np.random.default_rng(31)
        x = rng.standard_normal((1, ws * ws, c))
        out = A.aggregate("DWLinear", t64(x), dw).numpy()
        np.testing.assert_allclose(out[0, :, 0], x[0, :, 0], rtol=1e-12)
        np.testing.assert_array_equal(out[0, :, 1], 0.0)

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_scalar_loop_oracle(self, seed):
        rng = np.random.default_rng(40 + seed)
        c, ws, gs = 4, 2, 2
        p = self.dw_params(rng, c, ws, gs)
        for layout in (False, True):
            assert_matches_loop_oracle("DWLinear", p, rng, c, ws, gs, layout, atol=1e-10)

    def test_same_flops_as_shared(self):
        rng = np.random.default_rng(50)
        c, ws, gs = 8, 2, 2
        x = t64(rng.standard_normal((3, ws * ws, c)))
        with T.count_macs() as shared_macs:
            A.aggregate("Linear", x, linear_params(rng, c, ws, gs))
        with T.count_macs() as dw_macs:
            A.aggregate("DWLinear", x, self.dw_params(rng, c, ws, gs))
        assert shared_macs[0] == dw_macs[0] > 0


class TestWindowMlp:
    def mlp_params(self, rng, c, ws, gs, rho):
        k = gs * ws
        hid = rho * k
        return dict(
            w1_h=t64(rng.standard_normal((hid, k))), b1_h=t64(rng.standard_normal(hid)),
            w2_h=t64(rng.standard_normal((k, hid))), b2_h=t64(rng.standard_normal(k)),
            w1_w=t64(rng.standard_normal((hid, k))), b1_w=t64(rng.standard_normal(hid)),
            w2_w=t64(rng.standard_normal((k, hid))), b2_w=t64(rng.standard_normal(k)),
            w_p=t64(rng.standard_normal((c, c))), b_p=t64(np.zeros(c)))

    def test_zero_second_layers_zero_branches(self):
        rng = np.random.default_rng(60)
        p = self.mlp_params(rng, 4, 2, 2, rho=2)
        p["w2_h"] = t64(np.zeros_like(p["w2_h"].numpy()))
        p["b2_h"] = t64(np.zeros_like(p["b2_h"].numpy()))
        p["w2_w"] = t64(np.zeros_like(p["w2_w"].numpy()))
        p["b2_w"] = t64(np.zeros_like(p["b2_w"].numpy()))
        p["w_p"] = t64(np.eye(4))
        p["b_p"] = t64(np.zeros(4))
        out = A.aggregate("MLP", t64(rng.standard_normal((2, 4, 4))), p)
        np.testing.assert_array_equal(out.numpy(), 0.0)

    def test_identity_layers_reduce_to_gelu(self):
        # identity maps leave each branch at gelu(x); half projection sums them
        rng = np.random.default_rng(61)
        c, ws, gs = 3, 2, 3
        k = gs * ws
        p = dict(
            w1_h=t64(np.eye(k)), b1_h=t64(np.zeros(k)),
            w2_h=t64(np.eye(k)), b2_h=t64(np.zeros(k)),
            w1_w=t64(np.eye(k)), b1_w=t64(np.zeros(k)),
            w2_w=t64(np.eye(k)), b2_w=t64(np.zeros(k)),
            w_p=t64(0.5 * np.eye(c)), b_p=t64(np.zeros(c)))
        x = rng.standard_normal((2, ws * ws, c))
        out = A.aggregate("MLP", t64(x), p)
        np.testing.assert_allclose(out.numpy(), gelu_ref(x), rtol=1e-12)

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_scalar_loop_oracle(self, seed):
        rng = np.random.default_rng(70 + seed)
        c, ws, gs, rho = 4, 2, 2, 2
        p = self.mlp_params(rng, c, ws, gs, rho)
        for layout in (False, True):
            assert_matches_loop_oracle("MLP", p, rng, c, ws, gs, layout, atol=1e-5)


class TestWindowMhsa:
    def test_zero_value_projection_broadcasts_output_bias(self):
        rng = np.random.default_rng(80)
        c, ws, heads = 4, 2, 2
        p = agg_params("MHSA", c, ws, heads=heads, seed=0, dtype=np.float64)
        p["w_v"] = t64(np.zeros((c, c)))
        p["b_v"] = t64(np.zeros(c))
        p["b_o"] = t64(rng.standard_normal(c))
        x = t64(rng.standard_normal((3, ws * ws, c)))
        out = A.aggregate("MHSA", x, p).numpy()
        np.testing.assert_allclose(out, np.broadcast_to(p["b_o"].numpy(), out.shape),
                                   atol=1e-12)

    def test_single_token_window(self):
        rng = np.random.default_rng(81)
        c = 4
        p = agg_params("MHSA", c, 1, heads=2, seed=1, dtype=np.float64)
        for name in ("w_q", "w_k", "w_v", "w_o"):
            p[name] = t64(rng.standard_normal((c, c)))
        for name in ("b_q", "b_k", "b_v", "b_o"):
            p[name] = t64(rng.standard_normal(c))
        x = rng.standard_normal((2, 1, c))
        out = A.aggregate("MHSA", t64(x), p).numpy()
        want = (x @ p["w_v"].numpy().T + p["b_v"].numpy()) @ p["w_o"].numpy().T + p["b_o"].numpy()
        np.testing.assert_allclose(out, want, rtol=1e-12)

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_direct_loop_evaluation(self, seed):
        rng = np.random.default_rng(90 + seed)
        c, ws = 6, 2
        # heads 1, 2, 3 reach the forward only through the shape of rel_bias
        p = agg_params("MHSA", c, ws, heads=1 + seed, seed=seed, dtype=np.float64)
        p["rel_bias"] = t64(rng.standard_normal(p["rel_bias"].shape))
        x = rng.standard_normal((2, ws * ws, c))
        got = A.aggregate("MHSA", t64(x), p).numpy()
        assert np.abs(got - mhsa_loops(x, p)).max() <= 1e-5

    def test_head_divisibility(self):
        p = agg_params("MHSA", 6, 2, heads=2, seed=0)
        with pytest.raises(ShapeError):
            agg_params("MHSA", 6, 2, heads=4, seed=0)
        with pytest.raises(ShapeError):
            A.aggregate("MHSA", Tensor(np.zeros((1, 4, 8), dtype=np.float32)), p)


class TestInit:
    def test_deterministic_per_seed(self):
        a = agg_params("Linear", 8, 2, gs=2, seed=7)
        b = agg_params("Linear", 8, 2, gs=2, seed=7)
        for (na, ta), (nb, tb) in zip(a.items(), b.items()):
            assert na == nb
            np.testing.assert_array_equal(ta.numpy(), tb.numpy())

    def test_different_seed_differs(self):
        a = agg_params("Linear", 8, 2, gs=2, seed=7)
        b = agg_params("Linear", 8, 2, gs=2, seed=8)
        assert np.abs(a["w_h"].numpy() - b["w_h"].numpy()).max() > 0

    def test_trunc_normal_bounded(self):
        p = agg_params("MLP", 16, 4, gs=4, rho=4, seed=3)
        for t in p.values():
            assert np.abs(t.numpy()).max() <= 2 * 0.02 + 1e-9

    @pytest.mark.parametrize("kind,count_fn", [
        ("Linear", lambda c, ws, gs, heads, rho: 2 * ((gs * ws) ** 2 + gs * ws) + c * c + c),
        ("DWLinear", lambda c, ws, gs, heads, rho:
            (c // gs) * 2 * ((gs * ws) ** 2 + gs * ws) + c * c + c),
        ("MLP", lambda c, ws, gs, heads, rho:
            2 * (rho * (gs * ws) ** 2 + rho * gs * ws + rho * (gs * ws) ** 2 + gs * ws)
            + c * c + c),
        ("MHSA", lambda c, ws, gs, heads, rho:
            3 * c * c + 3 * c + c * c + c + heads * (2 * ws - 1) ** 2),
    ])
    def test_parameter_count_closed_form(self, kind, count_fn):
        c, ws, gs, heads, rho = 8, 2, 2, 2, 4
        p = agg_params(kind, c, ws, gs=gs, heads=heads, rho=rho, seed=0)
        total = sum(t.size for t in p.values())
        assert total == count_fn(c, ws, gs, heads, rho)

    def test_linmapper_96_7_3_example(self):
        p = agg_params("Linear", 96, 7, gs=3, seed=0)
        assert sum(t.size for t in p.values()) == 10236

    def test_shared_vs_dw_parameter_delta(self):
        c, ws, gs = 12, 2, 3
        shared = agg_params("Linear", c, ws, gs=gs, seed=0)
        dw = agg_params("DWLinear", c, ws, gs=gs, seed=0)
        n_shared = sum(t.size for t in shared.values())
        n_dw = sum(t.size for t in dw.values())
        assert n_dw - n_shared == (c // gs - 1) * 2 * ((gs * ws) ** 2 + gs * ws)


class TestWindowEquivariance:
    @pytest.mark.parametrize("kind", A.AGGREGATOR_KINDS)
    def test_permuting_windows_permutes_outputs(self, kind):
        rng = np.random.default_rng(99)
        c, ws = 8, 2
        p = agg_params(kind, c, ws, gs=2, heads=2, seed=5, dtype=np.float64)
        x = rng.standard_normal((6, ws * ws, c))
        perm = rng.permutation(6)
        out = A.aggregate(kind, t64(x), p).numpy()
        out_perm = A.aggregate(kind, t64(x[perm]), p).numpy()
        np.testing.assert_allclose(out_perm, out[perm], atol=1e-12)


class TestAggregatorGradients:
    @pytest.mark.parametrize("kind", A.AGGREGATOR_KINDS)
    @pytest.mark.parametrize("seed", range(10))
    def test_analytic_vs_central_difference(self, kind, seed):
        rng = np.random.default_rng(1000 + seed)
        c, ws = 4, 2
        # non-trivial parameter values so interactions are exercised
        p = {name: Tensor(rng.standard_normal(shape) * 0.5, requires_grad=True)
             for name, shape in A.param_shapes(kind, c, ws, gs=2, heads=2, rho=2).items()}
        x = Tensor(rng.standard_normal((2, ws * ws, c)), requires_grad=True)
        probe = Tensor(rng.standard_normal((2, ws * ws, c)))

        def loss_of(xt):
            return T.tsum(T.mul(A.aggregate(kind, xt, p), probe))

        T.backward(loss_of(x))
        fd = T.finite_difference_gradient(loss_of, Tensor(x.numpy()), h=1e-4).numpy()
        denom = np.maximum(1.0, np.maximum(np.abs(fd), np.abs(x.grad)))
        assert (np.abs(x.grad - fd) / denom).max() < 1e-4


class TestAggregateEntry:
    def test_kind_must_match_params(self):
        x = Tensor(np.zeros((1, 4, 4), dtype=np.float32))
        with pytest.raises(ValueError, match="MLP"):
            A.aggregate("MLP", x, agg_params("Linear", 4, 2, gs=2, seed=0))
        with pytest.raises(ValueError, match="Linear"):
            A.aggregate("Linear", x, agg_params("MHSA", 4, 2, heads=2, seed=0))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="Conv"):
            A.aggregate("Conv", Tensor(np.zeros((1, 4, 4), dtype=np.float32)), {})
        with pytest.raises(ValueError):
            A.param_shapes("Conv", 4, 2)

    @pytest.mark.parametrize("kind", A.AGGREGATOR_KINDS)
    def test_missing_or_extra_name_rejected(self, kind):
        p = agg_params(kind, 4, 2, gs=2, heads=2)
        x = Tensor(np.zeros((1, 4, 4), dtype=np.float32))
        with pytest.raises(ValueError, match="b_p|b_o"):
            A.aggregate(kind, x, {n: t for n, t in p.items() if n not in ("b_p", "b_o")})
        with pytest.raises(ValueError, match="extra"):
            A.aggregate(kind, x, p | {"extra": p["rel_bias" if kind == "MHSA" else "w_p"]})


class TestInferredSizes:
    # ws, gs and heads are read from the shapes of the windows and weights;
    # a shape that fits none of them ends in ShapeError, not a numpy error

    @pytest.mark.parametrize("kind", A.AGGREGATOR_KINDS)
    def test_token_axis_not_square(self, kind):
        p = agg_params(kind, 4, 2, gs=2, heads=2)
        with pytest.raises(ShapeError, match="not a square window"):
            A.aggregate(kind, Tensor(np.zeros((1, 5, 4), dtype=np.float32)), p)

    @pytest.mark.parametrize("kind", ["Linear", "DWLinear", "MLP"])
    def test_weight_width_not_a_multiple_of_ws(self, kind):
        p = agg_params(kind, 4, 3, gs=1)  # width 3 against ws 2
        with pytest.raises(ShapeError, match="multiple of ws"):
            A.aggregate(kind, Tensor(np.zeros((1, 4, 4), dtype=np.float32)), p)

    @pytest.mark.parametrize("kind", ["Linear", "DWLinear", "MLP"])
    def test_channels_not_divisible_by_group_size(self, kind):
        p = agg_params(kind, 4, 2, gs=2)  # gs 2 against 3 channels
        with pytest.raises(ShapeError, match="group size 2"):
            A.aggregate(kind, Tensor(np.zeros((1, 4, 3), dtype=np.float32)), p)

    def test_channels_not_divisible_by_heads(self):
        p = agg_params("MHSA", 4, 2, heads=2)  # 2 heads against 3 channels
        with pytest.raises(ShapeError, match="heads 2"):
            A.aggregate("MHSA", Tensor(np.zeros((1, 4, 3), dtype=np.float32)), p)

    def test_rel_bias_for_another_window_side(self):
        p = agg_params("MHSA", 4, 3, heads=2)  # a ws 3 table against ws 2 windows
        with pytest.raises(ShapeError, match="window side 2"):
            A.aggregate("MHSA", Tensor(np.zeros((1, 4, 4), dtype=np.float32)), p)
