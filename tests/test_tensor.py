import math
import os
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from winmix import tensor as T
from winmix.tensor import (
    GraphError,
    NumericError,
    ShapeError,
    Tensor,
    backward,
    finite_difference_gradient,
    gradients,
)

from oracles import (
    gelu_grad_composed,
    gelu_ref,
    layer_norm_composed,
    layer_norm_ref,
    matmul_loops,
    pad_hw_np,
    softmax_ref,
)


def t64(arr, grad=False):
    return Tensor(np.asarray(arr, dtype=np.float64), requires_grad=grad)


class TestMatmul:
    def test_identity(self):
        out = T.matmul(t64([[1, 0], [0, 1]]), t64([[3, 4], [5, 6]]))
        np.testing.assert_array_equal(out.numpy(), [[3, 4], [5, 6]])

    def test_hand_computed(self):
        out = T.matmul(t64([[1, 2]]), t64([[3], [4]]))
        np.testing.assert_array_equal(out.numpy(), [[11]])

    def test_against_triple_loop(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((5, 7))
        b = rng.standard_normal((7, 3))
        got = T.matmul(t64(a), t64(b)).numpy()
        want = matmul_loops(a, b)
        assert np.abs(got - want).max() <= 1e-6 * np.abs(want).max()

    def test_shape_mismatch_reports_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            T.matmul(t64(np.zeros((2, 3))), t64(np.zeros((2, 3))))

    def test_batch_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            T.matmul(t64(np.zeros((2, 3, 4))), t64(np.zeros((3, 4, 5))))

    def test_batched_matches_per_slice(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((4, 3, 5))
        b = rng.standard_normal((4, 5, 2))
        got = T.matmul(t64(a), t64(b)).numpy()
        for i in range(4):
            np.testing.assert_allclose(got[i], a[i] @ b[i], rtol=1e-12)


class TestLinear:
    @pytest.mark.parametrize("lead", [(5,), (2, 3), (2, 3, 2)], ids=["rank2", "rank3", "rank4"])
    @pytest.mark.parametrize("with_bias", [True, False], ids=["bias", "no_bias"])
    def test_gradcheck_float64(self, lead, with_bias):
        rng = np.random.default_rng(len(lead))
        arrays = [rng.standard_normal(lead + (4,)), rng.standard_normal((3, 4))]
        if with_bias:
            arrays.append(rng.standard_normal(3))

        def fn(*ts):
            return T.tsum(T.gelu(T.linear(*ts)))

        tensors = [t64(a, grad=True) for a in arrays]
        backward(fn(*tensors))
        for i, base in enumerate(arrays):
            def scalar_fn(t):
                probe = [t64(a) for a in arrays]
                probe[i] = t
                return fn(*probe)

            fd = finite_difference_gradient(scalar_fn, t64(base), h=1e-5).numpy()
            np.testing.assert_allclose(tensors[i].grad, fd, rtol=1e-6, atol=1e-8)

    def test_matches_numpy_as_one_node(self):
        rng = np.random.default_rng(11)
        x, w, b = (t64(rng.standard_normal(s), grad=True) for s in ((2, 3, 4), (5, 4), (5,)))
        y = T.linear(x, w, b)
        assert y.shape == (2, 3, 5)
        np.testing.assert_allclose(y.numpy(), x.numpy() @ w.numpy().T + b.numpy(), rtol=1e-12)
        assert len(T.topo_order(y)) == 4  # x, w, b and the one linear node

    def test_counts_rows_k_n_macs(self):
        x = t64(np.ones((2, 3, 7, 4)))
        with T.count_macs() as macs:
            T.linear(x, t64(np.ones((5, 4))), t64(np.zeros(5)))
        assert macs[0] == (2 * 3 * 7) * 4 * 5

    def test_inner_extent_mismatch(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(5, 4\)"):
            T.linear(t64(np.zeros((2, 3))), t64(np.zeros((5, 4))))
        with pytest.raises(ShapeError):
            T.linear(t64(np.zeros((2, 4))), t64(np.zeros((5, 4))), t64(np.zeros(4)))

    def test_float32_overflow_raises(self):
        x = Tensor(np.full((2, 4), 1e20, dtype=np.float32))
        w = Tensor(np.full((3, 4), 1e20, dtype=np.float32))
        with pytest.raises(NumericError, match="linear"), \
                pytest.warns(RuntimeWarning, match="overflow"):
            T.linear(x, w)


class TestSoftmax:
    def test_uniform(self):
        out = T.softmax_last_axis(t64([0.0, 0.0, 0.0])).numpy()
        np.testing.assert_allclose(out, [1 / 3] * 3, atol=1e-12)

    def test_no_overflow(self):
        out = T.softmax_last_axis(t64([1000.0, 0.0])).numpy()
        np.testing.assert_allclose(out, [1.0, 0.0], atol=1e-12)

    def test_matches_direct_float64(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            x = rng.standard_normal((4, 9)) * 3
            got = T.softmax_last_axis(t64(x)).numpy()
            np.testing.assert_allclose(got, softmax_ref(x), atol=1e-12)
            assert np.all(got >= 0)
            np.testing.assert_allclose(got.sum(axis=-1), 1.0, atol=1e-6)


class TestLayerNorm:
    def test_constant_input_gives_zero(self):
        x = t64(np.full((3, 5), 2.7))
        out = T.layer_norm(x, t64(np.ones(5)), t64(np.zeros(5)))
        np.testing.assert_allclose(out.numpy(), 0.0, atol=1e-6)

    def test_zero_gamma_gives_beta(self):
        rng = np.random.default_rng(3)
        x = t64(rng.standard_normal((2, 4)))
        beta = rng.standard_normal(4)
        out = T.layer_norm(x, t64(np.zeros(4)), t64(beta))
        np.testing.assert_allclose(out.numpy(), np.broadcast_to(beta, (2, 4)))

    def test_statistics(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((6, 64)) * 3 + 1
        out = T.layer_norm(t64(x), t64(np.ones(64)), t64(np.zeros(64)), eps=1e-5).numpy()
        assert np.abs(out.mean(axis=-1)).max() < 1e-6
        assert np.abs(out.var(axis=-1) - 1.0).max() < 1e-4

    def test_matches_reference(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((3, 4, 8))
        g = rng.standard_normal(8)
        b = rng.standard_normal(8)
        got = T.layer_norm(t64(x), t64(g), t64(b), eps=1e-5).numpy()
        np.testing.assert_allclose(got, layer_norm_ref(x, g, b, 1e-5), atol=1e-12)

    def test_bad_eps(self):
        with pytest.raises(ShapeError):
            T.layer_norm(t64(np.zeros((1, 2))), t64(np.ones(2)), t64(np.zeros(2)), eps=0.0)


class TestGelu:
    def test_zero(self):
        assert T.gelu(t64([0.0])).numpy()[0] == 0.0

    def test_one(self):
        assert abs(T.gelu(t64([1.0])).numpy()[0] - 0.841345) <= 1e-5

    def test_deep_negative_tail(self):
        val = T.gelu(t64([-10.0])).numpy()[0]
        assert -1e-22 < val < 0
        np.testing.assert_allclose(val, gelu_ref(-10.0), rtol=1e-6)

    def test_matches_reference(self):
        x = np.linspace(-5, 5, 101)
        np.testing.assert_allclose(T.gelu(t64(x)).numpy(), gelu_ref(x), atol=1e-12)


class TestReshape:
    def test_round_trip_is_identity(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((3, 4, 5))
        t = t64(x)
        back_again = T.reshape(T.reshape(t, (5, 12)), (3, 4, 5))
        np.testing.assert_array_equal(back_again.numpy(), x)

    def test_element_count_mismatch(self):
        with pytest.raises(ShapeError):
            T.reshape(t64(np.zeros((2, 3))), (4, 2))

    @pytest.mark.parametrize("shape", [(np.int64(4), np.int64(2)), (np.intp(7),),
                                       (np.int32(2), 3, np.int64(2))],
                             ids=["int64", "intp", "mixed"])
    def test_element_count_mismatch_with_numpy_ints(self, shape):
        with pytest.raises(ShapeError):
            T.reshape(t64(np.zeros((2, 3))), shape)

    def test_zero_copy_reinterpretation(self):
        t = t64(np.zeros((4, 6)))
        v = T.reshape(t, (2, 12))
        assert v.data.base is t.data or v.data.base is t.data.base


class TestTranspose:
    def test_negative_axes_match_non_negative_gradient(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((2, 3, 4))
        w = t64(rng.standard_normal((2, 4, 3)))
        grads = []
        for axes in ((0, -1, 1), (0, 2, 1)):
            leaf = t64(x, grad=True)
            loss = T.tsum(T.mul(T.transpose(leaf, axes), w))
            grads.append(gradients(loss, [leaf])[0].numpy())
        assert grads[0].shape == x.shape
        np.testing.assert_array_equal(grads[0], grads[1])


class TestFiniteChecks:
    def test_nan_surfaces_as_error(self):
        big = Tensor(np.array([1e38], dtype=np.float32))
        with pytest.raises(NumericError), pytest.warns(RuntimeWarning, match="overflow"):
            T.mul(big, big)  # overflows float32 to inf

    def test_log_softmax_is_stable(self):
        out = T.log_softmax_last_axis(t64([1000.0, 0.0]))
        assert np.isfinite(out.numpy()).all()

    @pytest.mark.parametrize("op,name", [
        (lambda t: T.layer_norm(t, t64(np.ones(4)), t64(np.zeros(4))), "layer_norm"),
        (T.gelu, "gelu"),
    ], ids=["layer_norm", "gelu"])
    def test_nan_input_raises_naming_the_op(self, op, name):
        x = np.zeros((2, 4))
        x[1, 3] = np.nan
        with pytest.raises(NumericError, match=f"'{name}'"):
            op(t64(x))


class TestDataMovementNotScanned:
    """Ops that only move elements skip the scan; the next arithmetic op
    still raises on a NaN that came in from outside."""

    @pytest.mark.parametrize("move", [
        lambda t: T.reshape(t, (4, 3)),
        lambda t: T.transpose(t, (3, 2, 1, 0)),
        lambda t: T.pad_hw(t, 1, 2),
        lambda t: T.crop_hw(t, 2, 3),
    ], ids=["reshape", "transpose", "pad_hw", "crop_hw"])
    def test_nan_caught_by_next_arithmetic_op(self, move):
        x = np.zeros((1, 3, 4, 1))
        x[0, 1, 2, 0] = np.nan
        moved = move(t64(x))
        assert np.isnan(moved.numpy()).sum() == 1
        with pytest.raises(NumericError, match="'add'"):
            T.add(moved, 1.0)


def _same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _pull_back(fn, arrays, g):
    """``fn`` on leaves of ``arrays`` and their gradients for upstream ``g``;
    the loss sum(out * g) hands ``g`` to ``fn``'s backward unchanged."""
    leaves = [Tensor(a, requires_grad=True) for a in arrays]
    out = fn(*leaves)
    backward(T.tsum(T.mul(out, Tensor(g))))
    return out.numpy(), [t.grad for t in leaves]


DTYPES = pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])


class TestBitIdenticalToComposedFormulas:
    """The fast paths give the same bytes as the composed numpy expressions
    in oracles.py, not only values within a tolerance."""

    @DTYPES
    @pytest.mark.parametrize("rank", [2, 3, 4])
    @pytest.mark.parametrize("channels", [1, 3, 16, 96])
    def test_layer_norm(self, dtype, rank, channels):
        rng = np.random.default_rng(channels * 10 + rank)
        shape = (2, 3, 5)[:rank - 1] + (channels,)
        x = (rng.standard_normal(shape) * 3 + 1).astype(dtype)
        gamma, beta = (rng.standard_normal(channels).astype(dtype) for _ in range(2))
        g = rng.standard_normal(shape).astype(dtype)
        out, grads = _pull_back(T.layer_norm, [x, gamma, beta], g)
        want = layer_norm_composed(x, gamma, beta, 1e-5, g)
        for got, ref in zip([out, *grads], want):
            _same_bits(got, ref)

    @DTYPES
    def test_gelu(self, dtype):
        rng = np.random.default_rng(12)
        x = np.concatenate([np.linspace(-9, 9, 181), rng.standard_normal(300) * 3]).astype(dtype)
        g = rng.standard_normal(x.shape).astype(dtype)
        out, (dx,) = _pull_back(T.gelu, [x], g)
        _same_bits(out, gelu_ref(x).astype(dtype))
        _same_bits(dx, gelu_grad_composed(x, g))

    @DTYPES
    @pytest.mark.parametrize("ph,pw", [(0, 3), (2, 0), (1, 2)])
    def test_pad_and_crop(self, dtype, ph, pw):
        rng = np.random.default_rng(ph * 4 + pw)
        x = rng.standard_normal((2, 3, 5, 4)).astype(dtype)
        x[0, 0, 0, 0] = -0.0
        g = rng.standard_normal((2, 3 + ph, 5 + pw, 4)).astype(dtype)
        out, (dx,) = _pull_back(lambda t: T.pad_hw(t, ph, pw), [x], g)
        _same_bits(out, pad_hw_np(x, ph, pw))
        _same_bits(dx, g[:, :3, :5])
        big = pad_hw_np(x, ph, pw) + 1
        out, (dbig,) = _pull_back(lambda t: T.crop_hw(t, 3, 5), [big], g[:, :3, :5])
        _same_bits(out, big[:, :3, :5])
        _same_bits(dbig, pad_hw_np(g[:, :3, :5], ph, pw))


@pytest.fixture
def three_workers(monkeypatch):
    """``gelu`` splits in three whatever the machine, on a two-thread pool of
    the test's own whose threads are named ``split-test``."""
    monkeypatch.setattr(T, "WORKERS", 3)
    monkeypatch.setattr(T, "_pool", ThreadPoolExecutor(2, thread_name_prefix="split-test"))
    yield
    T._pool.shutdown()


def _pool_threads():
    return [t for t in threading.enumerate() if t.name.startswith("split-test")]


# 36,491 elements: three chunks of at least _MIN_CHUNK, and neither 2 nor 3 divides it
SPLIT_SHAPE = (7, 13, 401)


class TestSplitGelu:
    """Above the floor, gelu's forward runs in chunks on a thread pool and
    must give the bytes of one whole-array call."""

    def _pull_back_both(self, x, g, monkeypatch):
        split = _pull_back(T.gelu, [x], g)
        assert _pool_threads()  # the split path ran
        monkeypatch.setattr(T, "WORKERS", 1)
        whole = _pull_back(T.gelu, [x], g)
        monkeypatch.setattr(T, "WORKERS", 3)
        return split, whole

    @DTYPES
    def test_grad_mode_matches_oracles_and_one_worker(self, three_workers, monkeypatch, dtype):
        assert math.prod(SPLIT_SHAPE) >= 3 * T._MIN_CHUNK
        rng = np.random.default_rng(28)
        x = (rng.standard_normal(SPLIT_SHAPE) * 3).astype(dtype)
        g = rng.standard_normal(SPLIT_SHAPE).astype(dtype)
        (out, (dx,)), (out1, (dx1,)) = self._pull_back_both(x, g, monkeypatch)
        _same_bits(out, gelu_ref(x).astype(dtype))
        _same_bits(dx, gelu_grad_composed(x, g))
        _same_bits(out, out1)
        _same_bits(dx, dx1)

    @DTYPES
    def test_no_grad_matches_oracle_and_one_worker(self, three_workers, monkeypatch, dtype):
        x = np.random.default_rng(29).standard_normal(SPLIT_SHAPE).astype(dtype)
        with T.no_grad():
            out = T.gelu(Tensor(x))
            monkeypatch.setattr(T, "WORKERS", 1)
            out1 = T.gelu(Tensor(x))
        assert _pool_threads() and not out.requires_grad
        _same_bits(out.numpy(), gelu_ref(x).astype(dtype))
        _same_bits(out.numpy(), out1.numpy())

    @DTYPES
    def test_non_contiguous_input(self, three_workers, monkeypatch, dtype):
        rng = np.random.default_rng(30)
        base = rng.standard_normal((13, 7, 802)).astype(dtype)
        x = base.transpose(1, 0, 2)[:, :, ::2]  # SPLIT_SHAPE, strided on every axis
        assert x.shape == SPLIT_SHAPE and not x.flags.c_contiguous
        g = rng.standard_normal(SPLIT_SHAPE).astype(dtype)
        (out, (dx,)), (out1, (dx1,)) = self._pull_back_both(x, g, monkeypatch)
        _same_bits(out, gelu_ref(x).astype(dtype))
        _same_bits(dx, gelu_grad_composed(x, g))
        _same_bits(out, out1)
        _same_bits(dx, dx1)

    def test_nan_in_last_chunk_raises_naming_gelu(self, three_workers):
        x = np.zeros(SPLIT_SHAPE, dtype=np.float32)
        x.reshape(-1)[-5] = np.nan
        with pytest.raises(NumericError, match="'gelu'"):
            T.gelu(Tensor(x))
        assert _pool_threads()

    def test_below_the_floor_starts_no_thread(self, three_workers):
        T.gelu(Tensor(np.ones(2 * T._MIN_CHUNK - 1, dtype=np.float32)))
        assert not _pool_threads()

    def test_one_worker_starts_no_thread(self, three_workers, monkeypatch):
        monkeypatch.setattr(T, "WORKERS", 1)
        before = threading.active_count()
        T.gelu(Tensor(np.ones(SPLIT_SHAPE, dtype=np.float32)))
        assert not _pool_threads() and threading.active_count() == before

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs sched_setaffinity")
    def test_single_cpu_affinity_starts_no_thread(self):
        code = ("import os, threading\n"
                "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
                "import numpy as np\n"
                "from winmix import tensor as T\n"
                "T.gelu(T.Tensor(np.ones(1 << 20, dtype=np.float32)))\n"
                "assert T.WORKERS == 1, T.WORKERS\n"
                "assert threading.active_count() == 1\n")
        src = str(Path(T.__file__).parents[1])
        run = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                             capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr

    def test_split_waits_for_every_chunk_after_an_error(self, three_workers):
        done = []

        def fn(lo, hi):
            if lo == 0:
                raise ValueError("first chunk")
            time.sleep(0.05)
            done.append(lo)

        with pytest.raises(ValueError, match="first chunk"):
            T._split(fn, 3 * T._MIN_CHUNK)
        assert sorted(done) == [T._MIN_CHUNK, 2 * T._MIN_CHUNK]

    def test_split_reraises_a_worker_error(self, three_workers):
        def fn(lo, hi):
            if hi == 3 * T._MIN_CHUNK:
                raise ValueError("last chunk")

        with pytest.raises(ValueError, match="last chunk"):
            T._split(fn, 3 * T._MIN_CHUNK)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_splits_on_a_fresh_pool(self, three_workers):
        x = np.random.default_rng(31).standard_normal(SPLIT_SHAPE).astype(np.float32)
        want = gelu_ref(x).astype(np.float32).tobytes()
        assert T.gelu(Tensor(x)).numpy().tobytes() == want and _pool_threads()
        parent_pool = T._pool
        pid = os.fork()
        if pid == 0:  # child: the pool's threads did not survive the fork
            code = 1
            try:
                fresh = T._pool is not parent_pool
                code = int(not (fresh and T.gelu(Tensor(x)).numpy().tobytes() == want))
            finally:
                os._exit(code)
        deadline = time.monotonic() + 30
        while (status := os.waitpid(pid, os.WNOHANG))[0] == 0:
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                pytest.fail("child hung in its first split gelu")
            time.sleep(0.01)
        assert os.waitstatus_to_exitcode(status[1]) == 0


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 6).flatmap(lambda r: st.tuples(
    st.lists(st.integers(1, 3), min_size=r, max_size=r), st.permutations(range(r)))))
def test_transpose_gradient_round_trips(shape_perm):
    shape, perm = shape_perm
    x = np.arange(np.prod(shape), dtype=np.float64).reshape(shape)
    t = t64(x, grad=True)
    y = T.transpose(t, tuple(perm))
    inv = tuple(int(i) for i in np.argsort(perm))
    np.testing.assert_array_equal(T.transpose(y, inv).numpy(), x)
    g = np.random.default_rng(len(shape)).standard_normal(y.shape)
    backward(T.tsum(T.mul(y, Tensor(g))))
    _same_bits(t.grad, np.transpose(g, inv))


class TestBackward:
    def test_sum_gradient_is_ones(self):
        x = t64(np.arange(6.0).reshape(2, 3), grad=True)
        backward(T.tsum(x))
        np.testing.assert_array_equal(x.grad, np.ones((2, 3)))

    def test_linear_loss_outer_product_structure(self):
        rng = np.random.default_rng(7)
        w = t64(rng.standard_normal((3, 4)), grad=True)
        x = t64(rng.standard_normal((4, 2)))
        backward(T.tsum(T.matmul(w, x)))
        # d/dW sum(Wx) = outer(1_m, row-sums of x)
        np.testing.assert_allclose(w.grad, np.outer(np.ones(3), x.numpy().sum(axis=1)),
                                   rtol=1e-12)

    def test_loss_must_be_scalar(self):
        x = t64(np.zeros((2, 2)), grad=True)
        with pytest.raises(GraphError):
            backward(T.mul(x, x))

    def test_unreachable_leaf_rejected(self):
        x = t64(np.zeros(3), grad=True)
        y = t64(np.ones(3), grad=True)
        with pytest.raises(GraphError):
            gradients(T.tsum(x), [y])

    def test_gradient_accumulates_over_reuse(self):
        x = t64([2.0], grad=True)
        backward(T.tsum(T.add(T.mul(x, x), x)))
        np.testing.assert_allclose(x.grad, [5.0])

    def test_deterministic_repeat(self):
        rng = np.random.default_rng(8)
        x = t64(rng.standard_normal((5, 5)), grad=True)

        def run():
            x.grad = None
            backward(T.tsum(T.gelu(T.matmul(x, x))))
            return x.grad.copy()

        np.testing.assert_array_equal(run(), run())


class TestFiniteDifference:
    def test_sum_of_squares(self):
        g = finite_difference_gradient(lambda t: T.tsum(T.mul(t, t)), t64([1.0, 2.0]))
        np.testing.assert_allclose(g.numpy(), [2.0, 4.0], atol=1e-7)

    def test_linear_function_exact_for_any_h(self):
        w = np.array([3.0, -1.0, 2.0])
        for h in (1e-2, 1e-4):
            g = finite_difference_gradient(
                lambda t: T.tsum(T.mul(t, Tensor(w, dtype=np.float64))),
                t64([0.5, 0.5, 0.5]), h=h)
            np.testing.assert_allclose(g.numpy(), w, atol=1e-9)

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError):
            finite_difference_gradient(lambda t: T.tsum(t), t64([1.0]), h=0.0)

    @pytest.mark.parametrize("samples", [0, -1])
    def test_sampled_checks_reject_no_samples(self, samples):
        # zero samples would compare no coordinate and report a pass
        from winmix.gradcheck import model_gradcheck, sampled_check
        from winmix.model import preset

        def never(arrays):
            raise AssertionError("loss evaluated")

        with pytest.raises(ValueError, match="samples_per_leaf must be >= 1"):
            sampled_check(never, {"w": np.ones(3)}, np.random.default_rng(0), samples)
        with pytest.raises(ValueError, match="samples_per_leaf must be >= 1"):
            model_gradcheck(preset("toy-desk"), samples_per_leaf=samples)

    @pytest.mark.parametrize("resolution", [0, -4])
    def test_model_gradcheck_rejects_non_positive_resolution(self, resolution, monkeypatch):
        # 0 ended in the model's ShapeError and -4 in numpy's "negative dimensions"
        from winmix import gradcheck
        from winmix.model import preset

        monkeypatch.setattr(gradcheck, "build_model", None)
        with pytest.raises(ValueError, match="resolution must be positive"):
            gradcheck.model_gradcheck(preset("toy-desk"), resolution=resolution)


OPS = [
    ("matmul", lambda rng: (rng.standard_normal((3, 4)), rng.standard_normal((4, 2))),
     lambda a, b: T.tsum(T.gelu(T.matmul(a, b)))),
    ("layer_norm", lambda rng: (rng.standard_normal((2, 6)), rng.standard_normal(6),
                                rng.standard_normal(6)),
     lambda x, g, b: T.tsum(T.mul(T.layer_norm(x, g, b), T.layer_norm(x, g, b)))),
    ("softmax", lambda rng: (rng.standard_normal((3, 5)),),
     lambda x: T.tsum(T.mul(T.softmax_last_axis(x), x))),
    ("gelu", lambda rng: (rng.standard_normal((4, 4)),),
     lambda x: T.tsum(T.gelu(T.mul(x, x)))),
    ("log_softmax", lambda rng: (rng.standard_normal((2, 7)),),
     lambda x: T.tsum(T.mul(T.log_softmax_last_axis(x), x))),
    # [roll(x) | x] concatenated along the width, from pad_hw and roll
    ("roll_concat", lambda rng: (rng.standard_normal((2, 3, 3, 2)),),
     lambda x: T.tsum(T.gelu(T.add(T.pad_hw(T.roll(x, (1, 2), (1, 2)), 0, 3),
                                   T.roll(T.pad_hw(x, 0, 3), (3,), (2,)))))),
    ("index_select", lambda rng: (rng.standard_normal((5, 3)),),
     lambda x: T.tsum(T.gelu(T.index_select(x, np.array([0, 2, 2, 4]))))),
    ("index_select_axis", lambda rng: (rng.standard_normal((2, 5, 3)),),
     lambda x: T.tsum(T.gelu(T.index_select(x, np.array([[4, 1], [1, 3]]), axis=1)))),
    ("index_select_last_axis", lambda rng: (rng.standard_normal((2, 3, 4)),),
     lambda x: T.tsum(T.gelu(T.index_select(x, np.array([3, 0, 1]), axis=-1)))),
    # -1 names the same entry as 3, so both gradients land on it
    ("index_select_negative", lambda rng: (rng.standard_normal((2, 4)),),
     lambda x: T.tsum(T.gelu(T.index_select(x, np.array([3, 0, -1]), axis=1)))),
    ("mean_broadcast", lambda rng: (rng.standard_normal((3, 4)),),
     lambda x: T.tsum(T.mul(T.broadcast_to(T.tmean(x, axis=1, keepdims=True), (3, 4)), x))),
    ("pad_crop", lambda rng: (rng.standard_normal((1, 3, 3, 2)),),
     lambda x: T.tsum(T.gelu(T.crop_hw(T.pad_hw(x, 2, 1), 2, 2)))),
]


@pytest.mark.parametrize("name,make,fn", OPS, ids=[o[0] for o in OPS])
@pytest.mark.parametrize("seed", range(10))
def test_analytic_gradient_matches_central_differences(name, make, fn, seed):
    rng = np.random.default_rng(seed)
    arrays = make(rng)
    tensors = [t64(a, grad=True) for a in arrays]
    backward(fn(*tensors))
    for i, base in enumerate(arrays):
        def scalar_fn(t):
            probe = [t64(a) for a in arrays]
            probe[i] = t
            return fn(*probe)

        fd = finite_difference_gradient(scalar_fn, t64(base), h=1e-4).numpy()
        an = tensors[i].grad
        denom = np.maximum(1.0, np.maximum(np.abs(fd), np.abs(an)))
        assert (np.abs(an - fd) / denom).max() < 1e-4


INDEX_CASES = {
    "unique": lambda n: [n - 1, 0, 2],
    "unique_2d": lambda n: [[2, 0], [n - 1, 1]],
    "repeated": lambda n: [1, 1, 3, 1],
    "repeated_2d": lambda n: [[0, 2], [2, 0]],
    "aliasing": lambda n: [n - 1, 0, -1],  # -1 and n - 1 name one entry
}


@pytest.mark.parametrize("case", INDEX_CASES)
@pytest.mark.parametrize("axis", [0, 1, 2, -1])
def test_index_select_backward_equals_add_at(case, axis):
    # bit for bit, signed zeros included: assigning g would keep a -0.0 where
    # add.at into zeros gives 0.0 + -0.0 = +0.0
    rng = np.random.default_rng(11)
    x = Tensor(rng.standard_normal((4, 5, 6)), requires_grad=True)
    indices = np.array(INDEX_CASES[case](x.shape[axis]))
    flags = [False, True] if case.startswith("unique") else [False]
    for unique in flags:
        out = T.index_select(x, indices, axis=axis, unique=unique)
        g = rng.standard_normal(out.shape)
        g.reshape(-1)[::3] = -0.0
        x.grad = None
        backward(T.tsum(out * Tensor(g)))
        want = np.zeros(x.shape)
        np.add.at(want, (slice(None),) * (axis % 3) + (indices,), g)
        assert np.signbit(g).any() and not np.signbit(want[want == 0]).any()
        assert x.grad.tobytes() == want.tobytes(), f"unique={unique}"


def test_forward_ops_are_pure():
    rng = np.random.default_rng(9)
    x = t64(rng.standard_normal((4, 4)))
    a = T.gelu(T.matmul(x, x)).numpy()
    b = T.gelu(T.matmul(x, x)).numpy()
    np.testing.assert_array_equal(a, b)


def test_dtype_preserved():
    x32 = Tensor(np.zeros((2, 2), dtype=np.float32))
    assert T.gelu(x32).dtype == np.float32
    x64 = Tensor(np.zeros((2, 2), dtype=np.float64))
    assert T.layer_norm(x64, Tensor(np.ones(2, dtype=np.float64)),
                        Tensor(np.zeros(2, dtype=np.float64))).dtype == np.float64
