import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from winmix import geometry as G
from winmix import tensor as T
from winmix.geometry import FeatureMap
from winmix.tensor import ShapeError, Tensor

from oracles import spatial_shuffle_indices


def fmap(arr):
    return FeatureMap(Tensor(np.asarray(arr, dtype=np.float64)))


def random_fmap(rng, b, h, w, c):
    return fmap(rng.standard_normal((b, h, w, c)))


class TestPadding:
    def test_already_divisible(self):
        x = random_fmap(np.random.default_rng(0), 1, 56, 56, 3)
        padded = G.pad_to_multiple(x, 7)
        assert (padded.height, padded.width) == (56, 56)
        assert padded.values is x.values

    def test_pads_bottom_right_only(self):
        x = random_fmap(np.random.default_rng(1), 2, 57, 56, 3)
        padded = G.pad_to_multiple(x, 7)
        assert (padded.height, padded.width) == (63, 56)  # pads 6 rows, 0 columns
        np.testing.assert_array_equal(padded.values.numpy()[:, :57], x.values.numpy())
        assert (padded.values.numpy()[:, 57:] == 0).all()

    def test_round_trip_crop_recovers_values(self):
        x = random_fmap(np.random.default_rng(2), 1, 50, 50, 4)
        padded = G.pad_to_multiple(x, 7)
        assert (padded.height, padded.width) == (56, 56)
        cropped = T.crop_hw(padded.values, x.height, x.width)
        np.testing.assert_array_equal(cropped.numpy(), x.values.numpy())


class TestWindowPartition:
    def test_single_window_is_flattened_input(self):
        x = random_fmap(np.random.default_rng(3), 1, 4, 4, 2)
        win = G.window_partition(x, 4)
        np.testing.assert_array_equal(win.numpy(), x.values.numpy().reshape(1, 16, 2))

    def test_one_token_windows_row_major(self):
        vals = np.arange(4, dtype=np.float64).reshape(1, 2, 2, 1)
        win = G.window_partition(fmap(vals), 1)
        np.testing.assert_array_equal(win.numpy().reshape(-1), [0, 1, 2, 3])

    def test_round_trip(self):
        x = random_fmap(np.random.default_rng(4), 2, 14, 14, 3)
        back = G.window_reverse(G.window_partition(x, 7), 14, 14)
        np.testing.assert_array_equal(back.values.numpy(), x.values.numpy())

    def test_round_trip_with_padding(self):
        x = random_fmap(np.random.default_rng(5), 1, 5, 6, 2)
        padded = G.pad_to_multiple(x, 4)
        assert (padded.height, padded.width) == (8, 8)
        back = G.window_reverse(G.window_partition(padded, 4), 8, 8)
        cropped = T.crop_hw(back.values, x.height, x.width)
        np.testing.assert_array_equal(cropped.numpy(), x.values.numpy())

    def test_divisibility_enforced(self):
        with pytest.raises(ShapeError):
            G.window_partition(random_fmap(np.random.default_rng(6), 1, 6, 6, 1), 4)

    def test_non_tiling_grid_rejected(self):
        x = random_fmap(np.random.default_rng(7), 1, 8, 8, 2)
        win = G.window_partition(x, 4)  # 4 windows of 4x4
        for h, w in [(16, 16), (8, 12), (6, 8), (2, 2)]:
            with pytest.raises(ShapeError, match="do not tile"):
                G.window_reverse(win, h, w)
        with pytest.raises(ShapeError, match="do not tile"):  # 8 tokens: no square
            G.window_reverse(Tensor(np.zeros((4, 8, 2))), 8, 8)

    def test_window_count_invariant(self):
        x = random_fmap(np.random.default_rng(8), 3, 12, 8, 2)
        win = G.window_partition(x, 4)
        assert win.shape == (3 * (12 // 4) * (8 // 4), 16, 2)
        assert G.window_reverse(win, 12, 8).batch == 3


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
        first = G.window_partition(out, 2).numpy()[0].reshape(-1)
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


def make_tokens(rng, b, gh, gw, m, c):
    return Tensor(rng.standard_normal((b * gh * gw, m, c)))


class TestMessengers:
    def test_exchange_region_one_is_identity(self):
        rng = np.random.default_rng(25)
        tokens = make_tokens(rng, 1, 3, 3, 1, 8)
        out = G.messenger_exchange(tokens, 3, 3, 1)
        np.testing.assert_array_equal(out.numpy(), tokens.numpy())

    def test_exchange_quarter_slices(self):
        # r=2, m=1: window 0 ends up with one quarter-channel slice per window
        c = 8
        tokens = np.zeros((4, 1, c))
        for win in range(4):
            tokens[win] = win          # constant per source window
        out = G.messenger_exchange(Tensor(tokens), 2, 2, 2).numpy()
        q = c // 4
        for win in range(4):
            for chunk in range(4):
                piece = out[win, 0, chunk * q:(chunk + 1) * q]
                np.testing.assert_array_equal(piece, chunk)

    def test_exchange_is_its_own_inverse(self):
        rng = np.random.default_rng(26)
        tokens = make_tokens(rng, 2, 4, 4, 2, 16)
        twice = G.messenger_exchange(G.messenger_exchange(tokens, 4, 4, 2), 4, 4, 2)
        np.testing.assert_array_equal(twice.numpy(), tokens.numpy())

    def test_exchange_preserves_multiset(self):
        rng = np.random.default_rng(27)
        tokens = make_tokens(rng, 1, 2, 2, 1, 4)
        out = G.messenger_exchange(tokens, 2, 2, 2)
        np.testing.assert_array_equal(np.sort(out.numpy(), axis=None),
                                      np.sort(tokens.numpy(), axis=None))

    def test_exchange_divisibility_errors(self):
        rng = np.random.default_rng(28)
        with pytest.raises(ShapeError):
            G.messenger_exchange(make_tokens(rng, 1, 3, 2, 1, 8), 3, 2, 2)
        with pytest.raises(ShapeError):
            G.messenger_exchange(make_tokens(rng, 1, 2, 2, 1, 6), 2, 2, 2)


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
            G.window_partition(x, 4),
        ]:
            np.testing.assert_array_equal(np.sort(out.numpy(), axis=None), flat)

    def test_geometry_contributes_zero_macs(self):
        rng = np.random.default_rng(200)
        x = random_fmap(rng, 1, 8, 8, 4)
        with T.count_macs() as macs:
            win = G.window_partition(G.spatial_shuffle(G.cyclic_shift(x, 1, 1), 4), 4)
            G.window_reverse(win, 8, 8)
        assert macs[0] == 0

    def test_gradients_flow_through_permutations(self):
        rng = np.random.default_rng(201)
        vals = Tensor(rng.standard_normal((1, 4, 4, 2)), requires_grad=True)
        x = FeatureMap(vals)
        out = G.window_reverse(G.window_partition(G.spatial_shuffle(x, 2), 2), 4, 4)
        T.backward(T.tsum(T.mul(out.values, out.values)))
        np.testing.assert_allclose(vals.grad, 2 * vals.numpy(), rtol=1e-12)


class TestRandomShapes:
    """Round trips over random (B, H, W, C, ws) drawn by hypothesis."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 3), st.integers(1, 13), st.integers(1, 13), st.integers(1, 3),
           st.integers(1, 6), st.integers(0, 2 ** 32 - 1))
    def test_pad_partition_reverse_crop_is_identity(self, b, h, w, c, ws, seed):
        x = random_fmap(np.random.default_rng(seed), b, h, w, c)
        padded = G.pad_to_multiple(x, ws)
        assert (padded.height, padded.width) == (h + (-h) % ws, w + (-w) % ws)
        win = G.window_partition(padded, ws)
        assert win.shape == (b * padded.height * padded.width // (ws * ws), ws * ws, c)
        back = G.window_reverse(win, padded.height, padded.width)
        cropped = T.crop_hw(back.values, h, w)
        np.testing.assert_array_equal(cropped.numpy(), x.values.numpy())

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 3), st.integers(1, 4), st.integers(1, 4), st.integers(1, 3),
           st.integers(1, 4), st.integers(0, 2 ** 32 - 1))
    def test_unshuffle_inverts_shuffle(self, b, gh, gw, c, ws, seed):
        x = random_fmap(np.random.default_rng(seed), b, gh * ws, gw * ws, c)
        back = G.spatial_unshuffle(G.spatial_shuffle(x, ws), ws)
        np.testing.assert_array_equal(back.values.numpy(), x.values.numpy())

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3), st.integers(1, 3),
           st.integers(1, 3), st.integers(1, 3), st.integers(0, 2 ** 32 - 1))
    def test_messenger_exchange_is_its_own_inverse(self, b, rh, rw, m, r, k, seed):
        gh, gw, c = rh * r, rw * r, k * r * r
        tokens = make_tokens(np.random.default_rng(seed), b, gh, gw, m, c)
        once = G.messenger_exchange(tokens, gh, gw, r)
        twice = G.messenger_exchange(once, gh, gw, r)
        np.testing.assert_array_equal(twice.numpy(), tokens.numpy())
        np.testing.assert_array_equal(np.sort(once.numpy(), axis=None),
                                      np.sort(tokens.numpy(), axis=None))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 3), st.integers(1, 4), st.integers(1, 4), st.integers(1, 4),
           st.integers(1, 12), st.integers(1, 12))
    def test_reverse_rejects_grid_its_windows_do_not_tile(self, b, gh, gw, ws, h, w):
        win = Tensor(np.zeros((b * gh * gw, ws * ws, 2)))
        per_image = (h // ws) * (w // ws)
        if h % ws == 0 and w % ws == 0 and per_image and (b * gh * gw) % per_image == 0:
            assert G.window_reverse(win, h, w).values.shape == (
                b * gh * gw // per_image, h, w, 2)
        else:
            with pytest.raises(ShapeError, match="do not tile"):
                G.window_reverse(win, h, w)
