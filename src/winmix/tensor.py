"""Dense float tensors with reverse-mode automatic differentiation.

Values live in numpy arrays (row-major, float32 or float64). Every op is a
pure function returning a fresh ``Tensor``; when gradients are enabled the op
records its parents and a backward closure, and ``backward`` replays the tape
in reverse topological order.

``linear`` is one op and one 2-D GEMM: all leading axes of the input fold
into the rows, so a shared-weight map costs one graph node and its weight
gradient is one product, not a per-batch stack.

Forward results are checked for NaN/Inf so a numeric blow-up raises instead
of propagating silently. Ops that only move, copy or zero-fill elements
(``reshape``, ``transpose``, ``roll``, ``index_select``, ``broadcast_to``,
``pad_hw``, ``crop_hw``) are not scanned: they cannot turn finite inputs
into NaN or Inf, and a NaN passed through them is caught by the next
arithmetic op.

Ops run once per layer forward and again backward, mostly on small arrays,
so hot ops keep per-call overhead down: shape arithmetic stays in plain
Python (``math.prod``, a Python inverse permutation), they call ndarray
methods and ufuncs instead of numpy's wrapper functions (``np.pad``,
``np.transpose``, ``x.var``), and they do not copy a result whose dtype
already matches. Each such shortcut computes the same bits as the wrapper it
replaces, in the same order.

``gelu``'s forward is the one op that runs on more than one thread. Its
``scipy.special.ndtr`` costs about 20 ns an element and releases the GIL,
and every element of the output depends on its own input alone, so
``_split`` hands contiguous chunks of the flattened array to a thread pool:
each chunk is computed by the same loop as a single call, and the bits do
not change. The pool has one thread fewer than the CPUs in the process's
affinity, read once at import (``WORKERS``), and starts them at the first
split; run under ``taskset`` to restrict it. BLAS takes its thread count
from its own environment and is not affected. Arrays below
``2 * _MIN_CHUNK`` elements, and every array when ``WORKERS`` is 1, are
computed by one call on the calling thread.
"""

from __future__ import annotations

import contextlib
import math
import os
from concurrent.futures import ThreadPoolExecutor, wait
from typing import Callable, Iterable, Sequence

import numpy as np
from scipy import special as _sp

__all__ = [
    "Tensor",
    "ShapeError",
    "NumericError",
    "GraphError",
    "no_grad",
    "count_macs",
    "add",
    "mul",
    "matmul",
    "linear",
    "reshape",
    "transpose",
    "roll",
    "index_select",
    "broadcast_to",
    "pad_hw",
    "crop_hw",
    "tsum",
    "tmean",
    "gelu",
    "softmax_last_axis",
    "log_softmax_last_axis",
    "layer_norm",
    "topo_order",
    "backward",
    "gradients",
    "finite_difference_gradient",
]

_ALLOWED_DTYPES = (np.float32, np.float64)

# CPUs this process may run on, read once; gelu's forward splits across them
WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
# smallest chunk worth a thread handoff: on a 2-core x86 VM a handoff cost about
# 100 us, and a split GELU broke even at 8,192 elements and won from 12,288
_MIN_CHUNK = 8192
_pool: ThreadPoolExecutor  # made by _new_pool


class ShapeError(ValueError):
    """Operand shapes are incompatible with the requested op."""


class NumericError(ArithmeticError):
    """A forward op produced NaN or Inf from finite inputs."""


class GraphError(RuntimeError):
    """The autodiff graph cannot satisfy the request (bad loss/leaf)."""


_grad_enabled = True
_mac_counters: list[list] = []


@contextlib.contextmanager
def no_grad():
    """Disable tape recording inside the block (forward-only evaluation)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


@contextlib.contextmanager
def count_macs():
    """Count multiply-accumulates of every matmul and linear executed in the block.

    Yields a one-element list; entry 0 holds the running MAC total. Only
    dot-product kernels count. Elementwise work, norms, softmax and GELU
    contribute nothing, matching the cost-model convention in analytics.
    """
    counter = [0]
    _mac_counters.append(counter)
    try:
        yield counter
    finally:
        _mac_counters.remove(counter)


def _record_macs(n: int) -> None:
    for counter in _mac_counters:
        counter[0] += n


class Tensor:
    """Dense array plus optional autodiff bookkeeping. No op writes into an
    operand; only the optimizer updates a leaf's array, in place, between
    training steps."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, data, dtype=None, requires_grad: bool = False):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
            arr = arr.astype(np.float32 if dtype is None else dtype)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], Sequence[np.ndarray]] | None = None

    # -- introspection --------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def numpy(self) -> np.ndarray:
        return self.data

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype.name}, grad={self.requires_grad})"

    # -- operator sugar ---------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    def __mul__(self, other):
        return mul(self, other)


def _lift(x, like: Tensor) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=like.data.dtype))


# outputs not scanned for NaN/Inf (see the module docstring)
_DATA_MOVEMENT_OPS = frozenset(
    {"reshape", "transpose", "roll", "index_select", "broadcast_to", "pad_hw", "crop_hw"})


def _make(
    data: np.ndarray,
    parents: tuple[Tensor, ...],
    backward_fn: Callable[[np.ndarray], Sequence[np.ndarray]],
    op: str,
) -> Tensor:
    if op not in _DATA_MOVEMENT_OPS and not np.isfinite(data).all():
        raise NumericError(f"non-finite values produced by op '{op}'")
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward = backward_fn
    else:
        out.requires_grad = False
        out._parents = ()
        out._backward = None
    return out


def _new_pool() -> None:
    """Make the pool for ``_split``. It starts no thread until the first split.
    A forked child gets a new pool: its parent's threads do not exist there."""
    global _pool
    _pool = ThreadPoolExecutor(max(WORKERS - 1, 1), thread_name_prefix="winmix")


_new_pool()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_new_pool)


def _split(fn: Callable[[int, int], None], n: int) -> None:
    """Run ``fn(lo, hi)`` over contiguous chunks of ``[0, n)``: one chunk per
    CPU, none smaller than ``_MIN_CHUNK``. The calling thread runs the first
    chunk and the pool the rest. Returns once every chunk has finished, also
    when one raised, and then re-raises the error of the first chunk that
    failed."""
    chunks = min(WORKERS, n // _MIN_CHUNK)
    if chunks <= 1:
        fn(0, n)
        return
    edges = [n * i // chunks for i in range(chunks + 1)]
    rest = [_pool.submit(fn, lo, hi) for lo, hi in zip(edges[1:-1], edges[2:])]
    try:
        fn(0, edges[1])
    finally:
        wait(rest)
    for f in rest:
        f.result()


def _reduce_to(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` (inverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (g, s) in enumerate(zip(grad.shape, shape)) if s == 1 and g != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


# -- elementwise ----------------------------------------------------------


def add(a: Tensor, b) -> Tensor:
    b = _lift(b, a)
    out = a.data + b.data

    def back(g):
        return _reduce_to(g, a.shape), _reduce_to(g, b.shape)

    return _make(out, (a, b), back, "add")


def mul(a: Tensor, b) -> Tensor:
    b = _lift(b, a)
    out = a.data * b.data

    def back(g):
        return _reduce_to(g * b.data, a.shape), _reduce_to(g * a.data, b.shape)

    return _make(out, (a, b), back, "mul")


# -- linear algebra --------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Batched matrix product ``a[..., m, k] @ b[..., k, n]``.

    Leading batch extents must match exactly, or one operand may be a plain
    2-D matrix (shared across the batch). Raises ShapeError otherwise.
    """
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs rank >= 2 operands, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner extents differ: {a.shape} @ {b.shape}")
    la, lb = a.shape[:-2], b.shape[:-2]
    if la and lb and la != lb:
        raise ShapeError(f"matmul batch extents differ: {a.shape} @ {b.shape}")
    out = np.matmul(a.data, b.data)
    if _mac_counters:
        m, k = a.shape[-2], a.shape[-1]
        n = b.shape[-1]
        _record_macs(math.prod(out.shape[:-2]) * m * k * n)

    def back(g):
        ga = _reduce_to(np.matmul(g, np.swapaxes(b.data, -1, -2)), a.shape)
        gb = _reduce_to(np.matmul(np.swapaxes(a.data, -1, -2), g), b.shape)
        return ga, gb

    return _make(out, (a, b), back, "matmul")


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """Affine map on the last axis: ``x @ weight.T + bias``, as one op.

    ``weight`` is (out_features, in_features), matching the column-vector
    convention ``y = W x + b``. Every leading axis of ``x`` folds into the
    rows of one 2-D GEMM, so the weight gradient is one product
    ``g2.T @ x2`` instead of a per-batch stack summed afterwards.
    """
    if x.ndim < 1 or weight.ndim != 2 or x.shape[-1] != weight.shape[1]:
        raise ShapeError(f"linear inner extents differ: {x.shape} @ {weight.shape}.T")
    n, k = weight.shape
    if bias is not None and bias.shape != (n,):
        raise ShapeError(f"linear bias {bias.shape} does not match {n} output features")
    x2 = x.data.reshape(-1, k)
    out = x2 @ weight.data.T
    if bias is not None:
        out += bias.data
    if _mac_counters:
        _record_macs(x2.shape[0] * k * n)

    def back(g):
        g2 = g.reshape(-1, n)
        gx = (g2 @ weight.data).reshape(x.shape)
        gw = g2.T @ x2
        return (gx, gw) if bias is None else (gx, gw, g2.sum(axis=0))

    parents = (x, weight) if bias is None else (x, weight, bias)
    return _make(out.reshape(x.shape[:-1] + (n,)), parents, back, "linear")


# -- shape manipulation ----------------------------------------------------


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    if math.prod(shape) != a.size:
        raise ShapeError(f"reshape {a.shape} -> {shape} changes element count")
    new = a.data.reshape(shape)  # view when layout permits
    old_shape = a.shape

    def back(g):
        return (g.reshape(old_shape),)

    return _make(new, (a,), back, "reshape")


def transpose(a: Tensor, axes: tuple[int, ...]) -> Tensor:
    out = a.data.transpose(axes)  # numpy rejects bad axes before the inverse is taken
    inv = [0] * len(axes)
    for i, ax in enumerate(axes):
        inv[ax] = i  # a negative axis counts from the end, as numpy reads it

    def back(g):
        return (g.transpose(inv),)

    return _make(out, (a,), back, "transpose")


def roll(a: Tensor, shifts: tuple[int, ...], axes: tuple[int, ...]) -> Tensor:
    def back(g):
        return (np.roll(g, tuple(-s for s in shifts), axis=axes),)

    return _make(np.roll(a.data, shifts, axis=axes), (a,), back, "roll")


def index_select(a: Tensor, indices: np.ndarray, axis: int = 0, unique: bool = False) -> Tensor:
    """Gather ``a.take(indices, axis)``: the entries at the integer ``indices``
    along ``axis``, which is replaced by the axes of ``indices``.

    Backward sums the gradients of a repeated index, and of a negative index
    and the positive one it aliases, with ``np.add.at``. A caller whose
    indices are distinct and non-negative by construction passes
    ``unique=True``, and backward assigns them instead: the same bits, 4-9x
    faster on the model's gathers (an x86 VM, numpy 2.4).
    """
    indices = np.asarray(indices)
    out = a.data.take(indices, axis=axis)  # numpy rejects a bad axis or index here
    shape = a.shape
    where = (slice(None),) * (axis % a.ndim) + (indices,)

    def back(g):
        full = np.zeros(shape, dtype=g.dtype)
        if unique:
            full[where] = g + 0.0  # 0 + g, as add.at sums it: -0.0 becomes +0.0
        else:
            np.add.at(full, where, g)
        return (full,)

    return _make(out, (a,), back, "index_select")


def broadcast_to(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    out = np.broadcast_to(a.data, shape).copy()

    def back(g):
        return (_reduce_to(g, a.shape),)

    return _make(out, (a,), back, "broadcast_to")


def pad_hw(a: Tensor, pad_h: int, pad_w: int) -> Tensor:
    """Zero-pad axes 1 (height) and 2 (width) of a (B, H, W, C) tensor."""
    if pad_h == 0 and pad_w == 0:
        return a
    b, h, w, c = a.shape
    out = np.zeros((b, h + pad_h, w + pad_w, c), dtype=a.data.dtype)
    out[:, :h, :w] = a.data

    def back(g):
        return (g[:, :h, :w, :],)

    return _make(out, (a,), back, "pad_hw")


def crop_hw(a: Tensor, h: int, w: int) -> Tensor:
    """Keep the top-left (h, w) region of a (B, H, W, C) tensor."""
    if h == a.shape[1] and w == a.shape[2]:
        return a
    shape = a.shape

    def back(g):
        full = np.zeros(shape, dtype=g.dtype)
        full[:, :h, :w] = g
        return (full,)

    return _make(a.data[:, :h, :w, :].copy(), (a,), back, "crop_hw")


# -- reductions -------------------------------------------------------------


def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = a.data.sum(axis=axis, keepdims=keepdims)
    shape = a.shape

    def back(g):
        g = np.asarray(g)
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, shape).copy(),)

    return _make(np.asarray(out), (a,), back, "sum")


def tmean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    if axis is None:
        count = a.size
    else:
        axes = axis if isinstance(axis, tuple) else (axis,)
        count = math.prod(a.shape[ax] for ax in axes)
    out = a.data.mean(axis=axis, keepdims=keepdims)
    shape = a.shape

    def back(g):
        g = np.asarray(g)
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, shape) / count,)

    return _make(np.asarray(out), (a,), back, "mean")


# -- nonlinearities ----------------------------------------------------------

_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)


def gelu(a: Tensor) -> Tensor:
    """Exact Gaussian-CDF GELU: x * Phi(x).

    The forward writes ``ndtr(x)`` and ``x * phi`` chunk by chunk into
    preallocated arrays through ``_split``, so an array of at least
    ``2 * _MIN_CHUNK`` elements is computed on every CPU of the process. Each
    element goes through the same ufunc loop as one whole-array call, so the
    bits are the same at any thread count. The backward stays on the calling
    thread: its ``exp`` costs about 3 ns an element, and splitting it lost to
    the handoff at every desk size measured (66 -> 209 us at 32,768 elements,
    201 -> 244 us at 131,072).
    """
    x = a.data
    flat = x.reshape(-1)
    phi = np.empty_like(flat)
    out = np.empty_like(flat)

    def chunk(lo, hi):
        np.multiply(flat[lo:hi], _sp.ndtr(flat[lo:hi], out=phi[lo:hi]), out=out[lo:hi])

    _split(chunk, flat.size)
    phi = phi.reshape(x.shape)

    def back(g):
        # g * (phi + x * pdf) on one temporary; each product and sum keeps
        # its operands, so the bits match the out-of-place expression
        t = -0.5 * x
        t *= x
        np.exp(t, out=t)
        t *= _INV_SQRT2PI
        t *= x
        t += phi
        t *= g
        return (t.astype(x.dtype, copy=False),)

    return _make(out.reshape(x.shape), (a,), back, "gelu")


def softmax_last_axis(a: Tensor) -> Tensor:
    """Probability vectors along the last axis, max-shifted for stability."""
    x = a.data
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=-1, keepdims=True)

    def back(g):
        dot = (g * out).sum(axis=-1, keepdims=True)
        return ((g - dot) * out,)

    return _make(out.astype(x.dtype, copy=False), (a,), back, "softmax")


def log_softmax_last_axis(a: Tensor) -> Tensor:
    x = a.data
    shifted = x - x.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    out = shifted - lse
    soft = np.exp(out)

    def back(g):
        return (g - soft * g.sum(axis=-1, keepdims=True),)

    return _make(out.astype(x.dtype, copy=False), (a,), back, "log_softmax")


def _mean_last(a: np.ndarray) -> np.ndarray:
    """``a.mean(axis=-1, keepdims=True)`` as numpy's ``_mean`` computes it:
    one add-reduce, then an unsafe-cast divide by the count as ``intp``."""
    s = np.add.reduce(a, axis=-1, keepdims=True)
    return np.true_divide(s, np.intp(a.shape[-1]), out=s, casting="unsafe")


def layer_norm(a: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last (channel) axis to zero mean / unit variance, then
    apply the affine pair (gamma, beta)."""
    if eps <= 0:
        raise ShapeError("layer_norm eps must be > 0")
    x = a.data
    d = x - _mean_last(x)  # x.var squares this same difference
    inv = 1.0 / np.sqrt(_mean_last(np.square(d)) + eps)
    xhat = d * inv
    out = (xhat * gamma.data + beta.data).astype(x.dtype, copy=False)
    n = x.shape[-1]

    def back(g):
        dgamma = (g * xhat).reshape(-1, n).sum(axis=0)
        dbeta = g.reshape(-1, n).sum(axis=0)
        dxhat = g * gamma.data
        dx = inv * (dxhat - _mean_last(dxhat) - xhat * _mean_last(dxhat * xhat))
        return tuple(t.astype(x.dtype, copy=False) for t in (dx, dgamma, dbeta))

    return _make(out, (a, gamma, beta), back, "layer_norm")


# -- graph traversal and reverse pass ----------------------------------------


def topo_order(root: Tensor) -> list[Tensor]:
    """Parents-before-children ordering of the graph reachable from root."""
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))
    return order


def backward(loss: Tensor) -> None:
    """Reverse-mode pass from a scalar loss; fills ``.grad`` on every
    requires_grad tensor in the graph. Accumulation follows one fixed
    topological order, so repeated runs are bit-identical."""
    if loss.data.shape != ():
        raise GraphError(f"backward needs a scalar loss, got shape {loss.data.shape}")
    order = topo_order(loss)
    grads: dict[int, np.ndarray] = {id(loss): np.ones((), dtype=loss.data.dtype)}
    for node in reversed(order):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node.requires_grad and not node._parents:
            node.grad = g if node.grad is None else node.grad + g
        if node._backward is None:
            continue
        parent_grads = node._backward(g)
        for parent, pg in zip(node._parents, parent_grads):
            if not parent.requires_grad and parent._backward is None:
                continue
            acc = grads.get(id(parent))
            grads[id(parent)] = pg if acc is None else acc + pg


def gradients(loss: Tensor, leaves: Iterable[Tensor]) -> list[Tensor]:
    """Gradient of ``loss`` for each leaf, as tensors of the leaf's shape.

    Raises GraphError if a leaf is not part of the loss graph.
    """
    leaves = list(leaves)
    for leaf in leaves:
        leaf.grad = None
    backward(loss)
    out = []
    for leaf in leaves:
        if leaf.grad is None:
            raise GraphError("leaf tensor is not reachable from the loss graph")
        if leaf.grad.shape != leaf.data.shape:
            raise GraphError("gradient shape drifted from leaf shape")
        out.append(Tensor(leaf.grad))
    return out


def finite_difference_gradient(f: Callable[[Tensor], Tensor], x: Tensor, h: float = 1e-4) -> Tensor:
    """Central-difference gradient of a scalar function, one coordinate at a
    time: (f(x + h e_i) - f(x - h e_i)) / 2h. Use float64 inputs."""
    if h <= 0:
        raise ValueError("step h must be positive")
    base = x.data.astype(np.float64)
    grad = np.zeros_like(base)
    flat = grad.reshape(-1)
    for i in range(base.size):
        bumped = base.copy().reshape(-1)
        bumped[i] += h
        hi = f(Tensor(bumped.reshape(base.shape))).item()
        bumped[i] -= 2 * h
        lo = f(Tensor(bumped.reshape(base.shape))).item()
        flat[i] = (hi - lo) / (2.0 * h)
    return Tensor(grad)
