"""Intra-window content aggregation layers.

Four interchangeable ways to mix the ws*ws tokens of a window. Three of them
are one axial pipeline:

    split the C channels into groups of gs
    -> height map on each (gs*ws)-vector of a width column
    -> width map on each (gs*ws)-vector of a height row
    -> add the two branches -> point-wise C x C projection

and differ only in the map:

* ``Linear``: one dense (gs*ws) x (gs*ws) matrix shared by all groups;
* ``DWLinear``: a separate matrix per channel group;
* ``MLP``: linear -> GELU -> linear with hidden width rho*gs*ws.

The fourth, ``MHSA``, is multi-head self-attention with a learned relative
position bias.

``param_shapes`` is the one place where parameter names, shapes and order
are written; the model's table, init draws and checkpoint records follow it.
A layer's parameters are a plain dict keyed by those names, and its sizes
are read from shapes: ws from the token count, gs from the axial weight
width, heads from ``rel_bias``. ``init_param`` is the model's one init rule,
and ``window_macs`` the one count of a window's multiplies.
``aggregate`` is the one entry point; every kind takes and returns
token-major windows (B, ws*ws, C), tokens flattened row-major, and can
compute its outputs at a product of kept rows and columns only.
"""

from __future__ import annotations

import functools
import math
from types import MappingProxyType

import numpy as np
from scipy import special as _sp

from . import tensor as T
from .tensor import ShapeError, Tensor

__all__ = [
    "param_shapes",
    "init_param",
    "aggregate",
    "kept_positions",
    "AGGREGATOR_KINDS",
]

AGGREGATOR_KINDS = ("Linear", "DWLinear", "MLP", "MHSA")
MLP_RATIO = 4  # the MLP map's hidden width over its gs*ws input


@functools.lru_cache(maxsize=256)
def param_shapes(kind: str, c: int, ws: int, gs: int = 1, heads: int = 1,
                 rho: int = MLP_RATIO) -> MappingProxyType[str, tuple[int, ...]]:
    """Ordered name -> shape of one aggregation layer's parameters.

    The order is both the init draw order and the checkpoint record order;
    ``init_param`` gives each name its initial value. The mapping is cached
    and read-only: every block forward reads a kind's names, and
    ``model.layers`` a stage's shapes.
    """
    if kind not in AGGREGATOR_KINDS:
        raise ValueError(f"unknown aggregator kind {kind!r}; expected one of {AGGREGATOR_KINDS}")
    if kind == "MHSA":
        if heads < 1 or c % heads:
            raise ShapeError(f"channels {c} not divisible by heads {heads}")
        shapes = {}
        for t in "qkvo":
            shapes |= {f"w_{t}": (c, c), f"b_{t}": (c,)}
        return MappingProxyType(shapes | {"rel_bias": (heads, (2 * ws - 1) ** 2)})
    g = _check_groups(c, gs)
    k = gs * ws
    shapes = {}
    for axis in "hw":
        if kind == "MLP":
            shapes |= {f"w1_{axis}": (rho * k, k), f"b1_{axis}": (rho * k,),
                       f"w2_{axis}": (k, rho * k), f"b2_{axis}": (k,)}
        else:
            lead = (g,) if kind == "DWLinear" else ()
            shapes |= {f"w_{axis}": (*lead, k, k), f"b_{axis}": (*lead, k)}
    return MappingProxyType(shapes | {"w_p": (c, c), "b_p": (c,)})


def window_macs(kind: str, c: int, ws: int, gs: int, rows: int, cols: int) -> int:
    """Multiply-accumulates of one window's layer with outputs at rows x cols
    of its positions; every ws x ws position is an input."""
    n, m = ws * ws, rows * cols
    if kind == "MHSA":
        return 2 * c * c * (m + n) + 2 * m * n * c
    k = gs * ws
    # the height map runs once per kept column to gs*rows outputs, the width
    # map once per kept row to gs*cols; MLP's hidden layer keeps its full width
    axial = 2 * k * gs * m
    if kind == "MLP":
        axial = MLP_RATIO * k * ((rows + cols) * k + 2 * gs * m)
    return c // gs * axial + c * c * m


def _check_groups(c: int, gs: int) -> int:
    if gs < 1 or c % gs:
        raise ShapeError(f"channels {c} not divisible by group size {gs}")
    return c // gs


def _window_side(n: int) -> int:
    """ws of a window of n tokens."""
    ws = math.isqrt(n)
    if ws * ws != n:
        raise ShapeError(f"token axis {n} is not a square window")
    return ws


# per-axis (into, back) transposes of the (B, G, gs, ws, ws) windows: the
# height branch maps one (gs*ws)-vector per width column, the width branch
# one per height row
_AXIS_PERMS = {"h": ((0, 1, 4, 2, 3), (0, 1, 3, 4, 2)),
               "w": ((0, 1, 3, 2, 4), (0, 1, 3, 2, 4))}


def _grouped_linear(v: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Apply per-group weights: v (B, G, rows, i) @ w[g] (o, i) + b[g]."""
    bsz, g, rows, i = v.shape
    vt = T.reshape(T.transpose(v, (1, 0, 2, 3)), (g, bsz * rows, i))
    out = T.matmul(vt, T.transpose(w, (0, 2, 1)))
    out = out + T.reshape(b, (g, 1, b.shape[1]))
    out = T.transpose(T.reshape(out, (g, bsz, rows, out.shape[2])), (1, 0, 2, 3))
    return out


def _branch(kind: str, p: dict[str, Tensor], axis: str, x5: Tensor,
            keep: tuple[np.ndarray, np.ndarray] | None) -> Tensor:
    """The kind's map along one axis of (B, G, gs, ws, ws) windows, in that
    layout; with ``keep`` = (rows, cols), (B, G, gs, |rows|, |cols|) outputs
    at those positions only.

    The height branch then maps only the kept columns and the width branch
    only the kept rows, and the output rows of the last weight and bias are
    gathered; every input position is still read.
    """
    b, g, gs, ws, _ = x5.shape
    into, back = _AXIS_PERMS[axis]
    layer = "2" if kind == "MLP" else ""
    w, bias = p[f"w{layer}_{axis}"], p[f"b{layer}_{axis}"]
    if keep is not None:
        lines, outs = keep[::-1] if axis == "h" else keep
        x5 = T.index_select(x5, lines, axis=4 if axis == "h" else 3, unique=True)
        w_rows = (np.arange(gs)[:, None] * ws + outs).reshape(-1)
        w = T.index_select(w, w_rows, axis=-2, unique=True)
        bias = T.index_select(bias, w_rows, axis=-1, unique=True)
    v = T.transpose(x5, into)
    v = T.reshape(v, v.shape[:3] + (gs * ws,))
    if kind == "MLP":
        v = T.linear(T.gelu(T.linear(v, p[f"w1_{axis}"], p[f"b1_{axis}"])), w, bias)
    else:
        v = (_grouped_linear if kind == "DWLinear" else T.linear)(v, w, bias)
    return T.transpose(T.reshape(v, v.shape[:3] + (gs, v.shape[3] // gs)), back)


def _axial_forward(x: Tensor, kind: str, p: dict[str, Tensor],
                   keep: tuple[np.ndarray, np.ndarray] | None) -> Tensor:
    """Grouped axial mixing of token-major windows (Linear, DWLinear, MLP).

    The height branch maps (group-channels x heights) per width column, the
    width branch (group-channels x widths) per height row, so an output token
    depends exactly on the tokens of its window row and column. gs is the
    axial weight width over ws.
    """
    b, n, c = x.shape
    ws = _window_side(n)
    k = p["w1_h" if kind == "MLP" else "w_h"].shape[-1]
    if k % ws:
        raise ShapeError(f"axial weight width {k} is not a multiple of ws {ws}")
    gs = k // ws
    x5 = T.reshape(T.transpose(x, (0, 2, 1)), (b, _check_groups(c, gs), gs, ws, ws))
    y = _branch(kind, p, "h", x5, keep) + _branch(kind, p, "w", x5, keep)
    y = T.reshape(y, (b, c, y.shape[3] * y.shape[4]))
    return T.linear(T.transpose(y, (0, 2, 1)), p["w_p"], p["b_p"])


@functools.cache
def relative_position_index(ws: int) -> np.ndarray:
    """(ws^2, ws^2) lookup into the (2ws-1)^2 relative-bias table.

    Cached, as building it costs about 28 us at ws 4, five times per toy-desk
    MHSA forward; the array is read-only.
    """
    coords = np.stack(np.meshgrid(np.arange(ws), np.arange(ws), indexing="ij"))
    flat = coords.reshape(2, -1)
    rel = flat[:, :, None] - flat[:, None, :] + ws - 1
    index = rel[0] * (2 * ws - 1) + rel[1]
    index.flags.writeable = False
    return index


def kept_positions(keep: tuple[np.ndarray, np.ndarray], ws: int) -> np.ndarray:
    """Flat window positions of rows x cols, ``keep`` = (rows, cols), row-major;
    distinct, as rows and cols each are."""
    return (keep[0][:, None] * ws + keep[1]).reshape(-1)


def _window_mhsa_forward(x: Tensor, p: dict[str, Tensor],
                         keep: tuple[np.ndarray, np.ndarray] | None) -> Tensor:
    """Scaled dot-product attention inside each window.

    ``x`` is token-major (B, ws*ws, C); the learned relative position bias is
    added to the logits before softmax; scale is (C/heads)^(-1/2), with heads
    the leading dimension of ``rel_bias``. With ``keep``, only the queries at
    the kept positions run; every token stays a key and a value.
    """
    b, n, c = x.shape
    ws, heads = _window_side(n), p["rel_bias"].shape[0]
    if heads < 1 or c % heads:
        raise ShapeError(f"channels {c} not divisible by heads {heads}")
    if p["rel_bias"].shape[1:] != ((2 * ws - 1) ** 2,):
        raise ShapeError(f"rel_bias {p['rel_bias'].shape} does not fit window side {ws}")
    dh = c // heads
    scale = dh ** -0.5

    def split_heads(t):
        return T.transpose(T.reshape(t, (b, t.shape[1], heads, dh)), (0, 2, 1, 3))

    index = relative_position_index(ws)
    queries = x
    if keep is not None:
        kept = kept_positions(keep, ws)
        queries, index = T.index_select(x, kept, axis=1, unique=True), index[kept]
    m = queries.shape[1]
    q = split_heads(T.linear(queries, p["w_q"], p["b_q"]))
    k = split_heads(T.linear(x, p["w_k"], p["b_k"]))
    v = split_heads(T.linear(x, p["w_v"], p["b_v"]))

    logits = T.matmul(q * scale, T.transpose(k, (0, 1, 3, 2)))
    bias = T.index_select(T.transpose(p["rel_bias"], (1, 0)), index.reshape(-1))
    bias = T.transpose(T.reshape(bias, (m, n, heads)), (2, 0, 1))
    attn = T.softmax_last_axis(logits + bias)

    out = T.matmul(attn, v)
    out = T.reshape(T.transpose(out, (0, 2, 1, 3)), (b, m, c))
    return T.linear(out, p["w_o"], p["b_o"])


# -- initialization -----------------------------------------------------------

_TRUNC_LO = _sp.ndtr(-2.0)
_TRUNC_HI = _sp.ndtr(2.0)


def trunc_normal(rng: np.random.Generator, shape, std: float = 0.02, dtype=np.float32) -> Tensor:
    """Normal(0, std) truncated to [-2 std, 2 std], via inverse-CDF sampling."""
    u = rng.uniform(_TRUNC_LO, _TRUNC_HI, size=shape)
    return Tensor((_sp.ndtri(u) * std).astype(dtype), requires_grad=True)


def init_param(leaf: str, shape, rng: np.random.Generator, dtype=np.float32) -> Tensor:
    """The one init rule, by a parameter's last name part: weights (``w*``
    and ``msg_init``) truncated normal at std 0.02, norm gains ``g`` one,
    the rest (biases, ``rel_bias``) zero. Only weights draw from ``rng``."""
    if leaf.startswith("w") or leaf == "msg_init":
        return trunc_normal(rng, shape, dtype=dtype)
    fill = np.ones if leaf == "g" else np.zeros
    return Tensor(fill(shape, dtype=dtype), requires_grad=True)


def aggregate(kind: str, windows: Tensor, params: dict[str, Tensor],
              keep: tuple[np.ndarray, np.ndarray] | None = None) -> Tensor:
    """Uniform entry point: token-major windows (B, ws*ws, C) in and out.

    ``params`` maps exactly the ``param_shapes`` names of ``kind`` to
    tensors; a missing or extra name raises ValueError. ``kind`` comes
    first, as it names the layer for callers that wrap this function.

    ``keep`` = (rows, cols), two integer arrays of distinct window positions
    in [0, ws), limits the output to the tokens at rows x cols:
    (B, |rows|*|cols|, C), row-major in the order given. The gathers that
    read them assign their gradients, which a repeated position would drop.
    Every token is still an input, so those outputs equal the matching ones
    of the full call. The model passes the real tokens of a padded
    single-window stage, whose padded outputs it would crop.
    """
    names = param_shapes(kind, 1, 1)  # a kind's names do not depend on sizes
    if params.keys() != names.keys():
        raise ValueError(f"aggregator {kind!r} takes parameters {sorted(names)}, "
                         f"got {sorted(params)}")
    if kind == "MHSA":
        return _window_mhsa_forward(windows, params, keep)
    return _axial_forward(windows, kind, params, keep)
