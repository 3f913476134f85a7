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
width, heads from ``rel_bias``. ``init_param`` is the model's one init rule.
``aggregate`` is the one entry point; every kind takes and returns
token-major windows (B, ws*ws, C), tokens flattened row-major.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special as _sp

from . import tensor as T
from .tensor import ShapeError, Tensor

__all__ = [
    "param_shapes",
    "init_param",
    "aggregate",
    "AGGREGATOR_KINDS",
]

AGGREGATOR_KINDS = ("Linear", "DWLinear", "MLP", "MHSA")


def param_shapes(kind: str, c: int, ws: int, gs: int = 1, heads: int = 1,
                 rho: int = 4) -> dict[str, tuple[int, ...]]:
    """Ordered name -> shape of one aggregation layer's parameters.

    The order is both the init draw order and the checkpoint record order;
    ``init_param`` gives each name its initial value.
    """
    if kind not in AGGREGATOR_KINDS:
        raise ValueError(f"unknown aggregator kind {kind!r}; expected one of {AGGREGATOR_KINDS}")
    if kind == "MHSA":
        if heads < 1 or c % heads:
            raise ShapeError(f"channels {c} not divisible by heads {heads}")
        shapes = {}
        for t in "qkvo":
            shapes |= {f"w_{t}": (c, c), f"b_{t}": (c,)}
        return shapes | {"rel_bias": (heads, (2 * ws - 1) ** 2)}
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
    return shapes | {"w_p": (c, c), "b_p": (c,)}


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


def _branch(kind: str, p: dict[str, Tensor], axis: str, x5: Tensor) -> Tensor:
    """The kind's map along one axis of (B, G, gs, ws, ws) windows, in that layout."""
    b, g, gs, ws, _ = x5.shape
    into, back = _AXIS_PERMS[axis]
    v = T.reshape(T.transpose(x5, into), (b, g, ws, gs * ws))
    v = T.reshape(_axial_map(kind, p, axis, v), (b, g, ws, gs, ws))
    return T.transpose(v, back)


def _grouped_linear(v: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Apply per-group weights: v (B, G, rows, i) @ w[g] (o, i) + b[g]."""
    bsz, g, rows, i = v.shape
    vt = T.reshape(T.transpose(v, (1, 0, 2, 3)), (g, bsz * rows, i))
    out = T.matmul(vt, T.transpose(w, (0, 2, 1)))
    out = out + T.reshape(b, (g, 1, b.shape[1]))
    out = T.transpose(T.reshape(out, (g, bsz, rows, out.shape[2])), (1, 0, 2, 3))
    return out


def _axial_map(kind: str, p: dict[str, Tensor], axis: str, v: Tensor) -> Tensor:
    """The kind's map on every (gs*ws)-vector of one axis (``h`` or ``w``)."""
    if kind == "MLP":
        hidden = T.gelu(T.linear(v, p[f"w1_{axis}"], p[f"b1_{axis}"]))
        return T.linear(hidden, p[f"w2_{axis}"], p[f"b2_{axis}"])
    affine = _grouped_linear if kind == "DWLinear" else T.linear
    return affine(v, p[f"w_{axis}"], p[f"b_{axis}"])


def _axial_forward(x: Tensor, kind: str, p: dict[str, Tensor],
                   layout_faithful: bool) -> Tensor:
    """Grouped axial mixing of token-major windows (Linear, DWLinear, MLP).

    The default reading maps (group-channels x heights) per width column and
    (group-channels x widths) per height row. With ``layout_faithful`` the
    width branch instead maps raw row-major (gs*ws)-chunks of each group's
    flattened (channels x tokens) window, which interleaves channel and
    height indices. gs is the axial weight width over ws.
    """
    b, n, c = x.shape
    ws = _window_side(n)
    k = p["w1_h" if kind == "MLP" else "w_h"].shape[-1]
    if k % ws:
        raise ShapeError(f"axial weight width {k} is not a multiple of ws {ws}")
    gs = k // ws
    xc = T.transpose(x, (0, 2, 1))
    x5 = T.reshape(xc, (b, _check_groups(c, gs), gs, ws, ws))
    hf = _branch(kind, p, "h", x5)
    if layout_faithful:
        wv = T.reshape(xc, (b, c // gs, ws, gs * ws))
        wf = T.reshape(_axial_map(kind, p, "w", wv), x5.shape)
    else:
        wf = _branch(kind, p, "w", x5)
    y = T.reshape(hf + wf, (b, c, n))
    return T.linear(T.transpose(y, (0, 2, 1)), p["w_p"], p["b_p"])


def relative_position_index(ws: int) -> np.ndarray:
    """(ws^2, ws^2) lookup into the (2ws-1)^2 relative-bias table."""
    coords = np.stack(np.meshgrid(np.arange(ws), np.arange(ws), indexing="ij"))
    flat = coords.reshape(2, -1)
    rel = flat[:, :, None] - flat[:, None, :] + ws - 1
    return rel[0] * (2 * ws - 1) + rel[1]


def _window_mhsa_forward(x: Tensor, p: dict[str, Tensor]) -> Tensor:
    """Scaled dot-product attention inside each window.

    ``x`` is token-major (B, ws*ws, C); the learned relative position bias is
    added to the logits before softmax; scale is (C/heads)^(-1/2), with heads
    the leading dimension of ``rel_bias``.
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
        return T.transpose(T.reshape(t, (b, n, heads, dh)), (0, 2, 1, 3))

    q = split_heads(T.linear(x, p["w_q"], p["b_q"]))
    k = split_heads(T.linear(x, p["w_k"], p["b_k"]))
    v = split_heads(T.linear(x, p["w_v"], p["b_v"]))

    logits = T.matmul(q * scale, T.transpose(k, (0, 1, 3, 2)))
    bias = T.index_select(T.transpose(p["rel_bias"], (1, 0)), relative_position_index(ws).reshape(-1))
    bias = T.transpose(T.reshape(bias, (n, n, heads)), (2, 0, 1))
    attn = T.softmax_last_axis(logits + bias)

    out = T.matmul(attn, v)
    out = T.reshape(T.transpose(out, (0, 2, 1, 3)), (b, n, c))
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
              layout_faithful: bool = False) -> Tensor:
    """Uniform entry point: token-major windows (B, ws*ws, C) in and out.

    ``params`` maps exactly the ``param_shapes`` names of ``kind`` to
    tensors; a missing or extra name raises ValueError. ``kind`` comes
    first, as it names the layer for callers that wrap this function.
    """
    names = param_shapes(kind, 1, 1)  # a kind's names do not depend on sizes
    if set(params) != set(names):
        raise ValueError(f"aggregator {kind!r} takes parameters {sorted(names)}, "
                         f"got {sorted(params)}")
    if kind == "MHSA":
        return _window_mhsa_forward(windows, params)
    return _axial_forward(windows, kind, params, layout_faithful)
