import dataclasses

import numpy as np
import pytest

from winmix import geometry as G
from winmix import tensor as T
from winmix.geometry import FeatureMap, MessengerState
from winmix.tensor import ShapeError, Tensor

from oracles import spatial_shuffle_indices


def fmap(arr):
    return FeatureMap(Tensor(np.asarray(arr, dtype=np.float64)))


def random_fmap(rng, b, h, w, c):
    return fmap(rng.standard_normal((b, h, w, c)))


class TestPadding:
    def test_already_divisible(self):
        x = random_fmap(np.random.default_rng(0), 1, 56, 56, 3)
        padded, rec = G.pad_to_multiple(x, 7)
        assert (padded.height, padded.width) == (56, 56)
        assert (rec.pad_h, rec.pad_w) == (0, 0)
        assert padded.values is x.values

    def test_pads_bottom_right_only(self):
        x = random_fmap(np.random.default_rng(1), 2, 57, 56, 3)
        padded, rec = G.pad_to_multiple(x, 7)
        assert (padded.height, padded.width) == (63, 56)
        assert (rec.pad_h, rec.pad_w) == (6, 0)
        np.testing.assert_array_equal(padded.values.numpy()[:, :57], x.values.numpy())
        assert (padded.values.numpy()[:, 57:] == 0).all()

    def test_round_trip_crop_recovers_values(self):
        x = random_fmap(np.random.default_rng(2), 1, 50, 50, 4)
        padded, rec = G.pad_to_multiple(x, 7)
        assert (padded.height, padded.width) == (56, 56)
        cropped = T.crop_hw(padded.values, rec.orig_h, rec.orig_w)
        np.testing.assert_array_equal(cropped.numpy(), x.values.numpy())


class TestWindowPartition:
    def test_single_window_is_flattened_input(self):
        x = random_fmap(np.random.default_rng(3), 1, 4, 4, 2)
        ws = G.window_partition(x, 4)
        np.testing.assert_array_equal(
            ws.windows.numpy(), x.values.numpy().reshape(1, 16, 2))

    def test_one_token_windows_row_major(self):
        vals = np.arange(4, dtype=np.float64).reshape(1, 2, 2, 1)
        ws = G.window_partition(fmap(vals), 1)
        np.testing.assert_array_equal(ws.windows.numpy().reshape(-1), [0, 1, 2, 3])

    def test_round_trip(self):
        x = random_fmap(np.random.default_rng(4), 2, 14, 14, 3)
        back = G.window_reverse(G.window_partition(x, 7))
        np.testing.assert_array_equal(back.values.numpy(), x.values.numpy())

    def test_round_trip_with_padding(self):
        x = random_fmap(np.random.default_rng(5), 1, 5, 6, 2)
        padded, rec = G.pad_to_multiple(x, 4)
        back = G.window_reverse(G.window_partition(padded, 4))
        cropped = T.crop_hw(back.values, rec.orig_h, rec.orig_w)
        np.testing.assert_array_equal(cropped.numpy(), x.values.numpy())

    def test_divisibility_enforced(self):
        with pytest.raises(ShapeError):
            G.window_partition(random_fmap(np.random.default_rng(6), 1, 6, 6, 1), 4)

    def test_inconsistent_origin_rejected(self):
        x = random_fmap(np.random.default_rng(7), 1, 8, 8, 2)
        ws = G.window_partition(x, 4)
        bad = dataclasses.replace(ws, grid_h=16)
        with pytest.raises(ShapeError):
            G.window_reverse(bad)

    def test_window_count_invariant(self):
        x = random_fmap(np.random.default_rng(8), 3, 12, 8, 2)
        ws = G.window_partition(x, 4)
        assert ws.num_windows == 3 * (12 // 4) * (8 // 4)


class TestCyclicShift:
    def test_zero_shift_identity(self):
        x = random_fmap(np.random.default_rng(9), 1, 5, 5, 2)
        assert G.cyclic_shift(x, 0, 0).values is x.values

    def test_2x2_diagonal_swap(self):
        vals = np.arange(4, dtype=np.float64).reshape(1, 2, 2, 1)
        out = G.cyclic_shift(fmap(vals), 1, 1).values.numpy().reshape(2, 2)
        np.testing.assert_array_equal(out, [[3, 2], [1, 0]])

    def test_round_trip(self):
        x = random_fmap(np.random.default_rng(10), 2, 9, 11, 3)
        back = G.cyclic_shift(G.cyclic_shift(x, 3, 5), -3, -5)
        np.testing.assert_array_equal(back.values.numpy(), x.values.numpy())

    def test_commutes_with_per_token_channel_op(self):
        rng = np.random.default_rng(11)
        x = random_fmap(rng, 1, 6, 6, 4)
        w = Tensor(rng.standard_normal((4, 4)))

        def channel_op(f):
            return FeatureMap(T.matmul(f.values, T.transpose(w, (1, 0))))

        a = G.cyclic_shift(channel_op(x), 2, 1).values.numpy()
        b = channel_op(G.cyclic_shift(x, 2, 1)).values.numpy()
        np.testing.assert_array_equal(a, b)


class TestSpatialShuffle:
    def test_identity_when_single_window(self):
        x = random_fmap(np.random.default_rng(12), 1, 4, 4, 2)
        out = G.spatial_shuffle(x, 4)
        np.testing.assert_array_equal(out.values.numpy(), x.values.numpy())

    def test_index_formula(self):
        # every token lands where (a*(H/ws)+b, c*(W/ws)+d) -> (b*ws+a, d*ws+c) says
        h = w = 6
        ws = 2
        vals = np.arange(h * w, dtype=np.float64).reshape(1, h, w, 1)
        out = G.spatial_shuffle(fmap(vals), ws).values.numpy().reshape(h, w)
        dest = spatial_shuffle_indices(h, w, ws)
        for i in range(h):
            for j in range(w):
                di, dj = dest[i, j]
                assert out[di, dj] == vals[0, i, j, 0]

    def test_first_window_collects_strided_tokens(self):
        vals = np.arange(16, dtype=np.float64).reshape(1, 4, 4, 1)
        out = G.spatial_shuffle(fmap(vals), 2)
        first = G.window_partition(out, 2).windows.numpy()[0].reshape(-1)
        # tokens (0,0), (0,2), (2,0), (2,2) of the original grid
        np.testing.assert_array_equal(sorted(first), [0, 2, 8, 10])

    def test_round_trip(self):
        for seed, (h, w, ws) in enumerate([(6, 6, 2), (9, 9, 3), (14, 14, 7), (8, 12, 4)]):
            x = random_fmap(np.random.default_rng(13 + seed), 2, h, w, 3)
            back = G.spatial_unshuffle(G.spatial_shuffle(x, ws), ws)
            np.testing.assert_array_equal(back.values.numpy(), x.values.numpy())

    def test_involution_on_square_window_count_grid(self):
        # H = ws^2 makes the axis map an involution
        ws = 3
        x = random_fmap(np.random.default_rng(20), 1, ws * ws, ws * ws, 2)
        twice = G.spatial_shuffle(G.spatial_shuffle(x, ws), ws)
        np.testing.assert_array_equal(twice.values.numpy(), x.values.numpy())

    def test_divisibility_enforced(self):
        with pytest.raises(ShapeError):
            G.spatial_shuffle(random_fmap(np.random.default_rng(21), 1, 5, 4, 1), 2)


def make_state(rng, b, gh, gw, m, c, region):
    tokens = Tensor(rng.standard_normal((b * gh * gw, m, c)))
    return MessengerState(tokens=tokens, batch=b, win_h=gh, win_w=gw, region=region)


class TestMessengers:
    def test_exchange_region_one_is_identity(self):
        rng = np.random.default_rng(25)
        state = make_state(rng, 1, 3, 3, 1, 8, region=1)
        out = G.messenger_exchange(state)
        np.testing.assert_array_equal(out.tokens.numpy(), state.tokens.numpy())

    def test_exchange_quarter_slices(self):
        # r=2, m=1: window 0 ends up with one quarter-channel slice per window
        c = 8
        tokens = np.zeros((4, 1, c))
        for win in range(4):
            tokens[win] = win          # constant per source window
        state = MessengerState(tokens=Tensor(tokens), batch=1, win_h=2, win_w=2, region=2)
        out = G.messenger_exchange(state).tokens.numpy()
        q = c // 4
        for win in range(4):
            for chunk in range(4):
                piece = out[win, 0, chunk * q:(chunk + 1) * q]
                np.testing.assert_array_equal(piece, chunk)

    def test_exchange_is_its_own_inverse(self):
        rng = np.random.default_rng(26)
        state = make_state(rng, 2, 4, 4, 2, 16, region=2)
        twice = G.messenger_exchange(G.messenger_exchange(state))
        np.testing.assert_array_equal(twice.tokens.numpy(), state.tokens.numpy())

    def test_exchange_preserves_multiset(self):
        rng = np.random.default_rng(27)
        state = make_state(rng, 1, 2, 2, 1, 4, region=2)
        out = G.messenger_exchange(state)
        np.testing.assert_array_equal(np.sort(out.tokens.numpy(), axis=None),
                                      np.sort(state.tokens.numpy(), axis=None))

    def test_exchange_divisibility_errors(self):
        rng = np.random.default_rng(28)
        with pytest.raises(ShapeError):
            G.messenger_exchange(make_state(rng, 1, 3, 2, 1, 8, region=2))
        with pytest.raises(ShapeError):
            G.messenger_exchange(make_state(rng, 1, 2, 2, 1, 6, region=2))


class TestPermutationProperties:
    """All geometry ops preserve the value multiset and are exactly invertible."""

    @pytest.mark.parametrize("seed", range(5))
    def test_multiset_preserved(self, seed):
        rng = np.random.default_rng(100 + seed)
        x = random_fmap(rng, 2, 8, 8, 4)
        flat = np.sort(x.values.numpy(), axis=None)
        for out in [
            G.cyclic_shift(x, 3, -2).values,
            G.spatial_shuffle(x, 4).values,
            G.window_partition(x, 4).windows,
        ]:
            np.testing.assert_array_equal(np.sort(out.numpy(), axis=None), flat)

    def test_geometry_contributes_zero_macs(self):
        rng = np.random.default_rng(200)
        x = random_fmap(rng, 1, 8, 8, 4)
        with T.count_macs() as macs:
            ws = G.window_partition(G.spatial_shuffle(G.cyclic_shift(x, 1, 1), 4), 4)
            G.window_reverse(ws)
        assert macs[0] == 0

    def test_gradients_flow_through_permutations(self):
        rng = np.random.default_rng(201)
        vals = Tensor(rng.standard_normal((1, 4, 4, 2)), requires_grad=True)
        x = FeatureMap(vals)
        out = G.window_reverse(G.window_partition(G.spatial_shuffle(x, 2), 2))
        T.backward(T.tsum(T.mul(out.values, out.values)))
        np.testing.assert_allclose(vals.grad, 2 * vals.numpy(), rtol=1e-12)
