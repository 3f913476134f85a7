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
are written: ``init_aggregator``, the model's parameter lookup and the
checkpoint records all follow it. Axial inputs are (B, C, ws*ws) with tokens
flattened row-major; attention inputs, and ``aggregate``'s windows, are
token-major (B, ws*ws, C).
"""

from __future__ import annotations

import numpy as np
from scipy import special as _sp

from . import tensor as T
from .tensor import ShapeError, Tensor

__all__ = [
    "AggParams",
    "param_shapes",
    "axial_forward",
    "window_mhsa_forward",
    "init_aggregator",
    "aggregate",
    "AGGREGATOR_KINDS",
]

AGGREGATOR_KINDS = ("Linear", "DWLinear", "MLP", "MHSA")


def _check_kind(kind: str) -> None:
    if kind not in AGGREGATOR_KINDS:
        raise ValueError(f"unknown aggregator kind {kind!r}; expected one of {AGGREGATOR_KINDS}")


def param_shapes(kind: str, c: int, ws: int, gs: int = 1, heads: int = 1,
                 rho: int = 4) -> dict[str, tuple[int, ...]]:
    """Ordered name -> shape of one aggregation layer's parameters.

    The order is both the init draw order and the checkpoint record order.
    Names starting with ``w`` are weights (truncated normal at init); the
    rest, biases and ``rel_bias``, start at zero.
    """
    _check_kind(kind)
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


class AggParams:
    """Parameters of one aggregation layer.

    Holds the layer's ``kind`` and hyperparameters (``ws``, ``gs``,
    ``heads``, ``rho``) plus one tensor attribute per ``param_shapes`` name.
    """

    def __init__(self, kind: str, ws: int, gs: int = 1, heads: int = 1, rho: int = 4,
                 **tensors: Tensor):
        _check_kind(kind)
        self.kind, self.ws, self.gs, self.heads, self.rho = kind, ws, gs, heads, rho
        self.names = tuple(tensors)
        for name, t in tensors.items():
            setattr(self, name, t)

    def tensors(self) -> list[tuple[str, Tensor]]:
        """(name, tensor) pairs in the order they were given."""
        return [(name, getattr(self, name)) for name in self.names]


def _check_groups(c: int, gs: int) -> int:
    if gs < 1 or c % gs:
        raise ShapeError(f"channels {c} not divisible by group size {gs}")
    return c // gs


def _axial_split(x: Tensor, gs: int, ws: int) -> Tensor:
    """(B, C, ws*ws) -> (B, groups, gs, h, w)."""
    b, c, n = x.shape
    if n != ws * ws:
        raise ShapeError(f"token axis {n} != ws*ws = {ws * ws}")
    g = _check_groups(c, gs)
    return T.reshape(x, (b, g, gs, ws, ws))


def _axial_join(x: Tensor) -> Tensor:
    b, g, gs, h, w = x.shape
    return T.reshape(x, (b, g * gs, h * w))


def _height_vectors(x5: Tensor) -> Tensor:
    """(B, G, gs, h, w) -> (B, G, w, gs*h): one vector per width column."""
    b, g, gs, h, w = x5.shape
    v = T.transpose(x5, (0, 1, 4, 2, 3))
    return T.reshape(v, (b, g, w, gs * h))


def _height_restore(v: Tensor, gs: int, ws: int) -> Tensor:
    b, g, w, _ = v.shape
    v = T.reshape(v, (b, g, w, gs, ws))
    return T.transpose(v, (0, 1, 3, 4, 2))


def _width_vectors(x5: Tensor) -> Tensor:
    """(B, G, gs, h, w) -> (B, G, h, gs*w): one vector per height row."""
    b, g, gs, h, w = x5.shape
    v = T.transpose(x5, (0, 1, 3, 2, 4))
    return T.reshape(v, (b, g, h, gs * w))


def _width_restore(v: Tensor, gs: int, ws: int) -> Tensor:
    b, g, h, _ = v.shape
    v = T.reshape(v, (b, g, h, gs, ws))
    return T.transpose(v, (0, 1, 3, 2, 4))


def _pointwise(x: Tensor, w_p: Tensor, b_p: Tensor) -> Tensor:
    """(B, C, N) per-token channel projection."""
    y = T.transpose(x, (0, 2, 1))
    y = T.linear(y, w_p, b_p)
    return T.transpose(y, (0, 2, 1))


def _grouped_linear(v: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Apply per-group weights: v (B, G, rows, i) @ w[g] (o, i) + b[g]."""
    bsz, g, rows, i = v.shape
    vt = T.reshape(T.transpose(v, (1, 0, 2, 3)), (g, bsz * rows, i))
    out = T.matmul(vt, T.transpose(w, (0, 2, 1)))
    out = out + T.reshape(b, (g, 1, b.shape[1]))
    out = T.transpose(T.reshape(out, (g, bsz, rows, out.shape[2])), (1, 0, 2, 3))
    return out


def _axial_map(p: AggParams, axis: str, v: Tensor) -> Tensor:
    """The kind's map on every (gs*ws)-vector of one axis (``h`` or ``w``)."""
    if p.kind == "MLP":
        hidden = T.gelu(T.linear(v, getattr(p, f"w1_{axis}"), getattr(p, f"b1_{axis}")))
        return T.linear(hidden, getattr(p, f"w2_{axis}"), getattr(p, f"b2_{axis}"))
    affine = _grouped_linear if p.kind == "DWLinear" else T.linear
    return affine(v, getattr(p, f"w_{axis}"), getattr(p, f"b_{axis}"))


def axial_forward(x: Tensor, p: AggParams, layout_faithful: bool = False) -> Tensor:
    """Grouped axial mixing of one batch of windows (Linear, DWLinear, MLP).

    ``x`` is (B, C, ws*ws). The default reading maps (group-channels x
    heights) per width column and (group-channels x widths) per height row.
    With ``layout_faithful`` the width branch instead maps raw row-major
    (gs*ws)-chunks of the flattened window, which interleaves channel and
    height indices.
    """
    if p.kind == "MHSA":
        raise ValueError("MHSA is not an axial aggregator; use window_mhsa_forward")
    gs, ws = p.gs, p.ws
    x5 = _axial_split(x, gs, ws)
    hf = _axial_join(_height_restore(_axial_map(p, "h", _height_vectors(x5)), gs, ws))
    if layout_faithful:
        b, c, n = x.shape
        wv = T.reshape(x, (b, c // gs, ws, gs * ws))
        wf = T.reshape(_axial_map(p, "w", wv), (b, c, n))
    else:
        wf = _axial_join(_width_restore(_axial_map(p, "w", _width_vectors(x5)), gs, ws))
    return _pointwise(hf + wf, p.w_p, p.b_p)


def relative_position_index(ws: int) -> np.ndarray:
    """(ws^2, ws^2) lookup into the (2ws-1)^2 relative-bias table."""
    coords = np.stack(np.meshgrid(np.arange(ws), np.arange(ws), indexing="ij"))
    flat = coords.reshape(2, -1)
    rel = flat[:, :, None] - flat[:, None, :] + ws - 1
    return rel[0] * (2 * ws - 1) + rel[1]


def window_mhsa_forward(x: Tensor, p: AggParams) -> Tensor:
    """Scaled dot-product attention inside each window.

    ``x`` is token-major (B, ws*ws, C); the learned relative position bias is
    added to the logits before softmax; scale is (C/heads)^(-1/2).
    """
    b, n, c = x.shape
    heads, ws = p.heads, p.ws
    if c % heads:
        raise ShapeError(f"channels {c} not divisible by heads {heads}")
    if n != ws * ws:
        raise ShapeError(f"token count {n} != ws*ws = {ws * ws}")
    dh = c // heads
    scale = dh ** -0.5

    def split_heads(t):
        return T.transpose(T.reshape(t, (b, n, heads, dh)), (0, 2, 1, 3))

    q = split_heads(T.linear(x, p.w_q, p.b_q))
    k = split_heads(T.linear(x, p.w_k, p.b_k))
    v = split_heads(T.linear(x, p.w_v, p.b_v))

    logits = T.matmul(q * scale, T.transpose(k, (0, 1, 3, 2)))
    bias = T.index_select(T.transpose(p.rel_bias, (1, 0)), relative_position_index(ws).reshape(-1))
    bias = T.transpose(T.reshape(bias, (n, n, heads)), (2, 0, 1))
    attn = T.softmax_last_axis(logits + bias)

    out = T.matmul(attn, v)
    out = T.reshape(T.transpose(out, (0, 2, 1, 3)), (b, n, c))
    return T.linear(out, p.w_o, p.b_o)


# -- initialization -----------------------------------------------------------

_TRUNC_LO = _sp.ndtr(-2.0)
_TRUNC_HI = _sp.ndtr(2.0)


def trunc_normal(rng: np.random.Generator, shape, std: float = 0.02, dtype=np.float32) -> Tensor:
    """Normal(0, std) truncated to [-2 std, 2 std], via inverse-CDF sampling."""
    u = rng.uniform(_TRUNC_LO, _TRUNC_HI, size=shape)
    return Tensor((_sp.ndtri(u) * std).astype(dtype), requires_grad=True)


def zeros_param(shape, dtype=np.float32) -> Tensor:
    return Tensor(np.zeros(shape, dtype=dtype), requires_grad=True)


def init_aggregator(kind: str, c: int, ws: int, gs: int = 1, heads: int = 1,
                    rho: int = 4, seed: int = 0, dtype=np.float32) -> AggParams:
    """Build freshly initialized parameters for one aggregation layer.

    Weights are truncated-normal (std 0.02), biases and the relative bias
    table zero, drawn in ``param_shapes`` order. The same seed always yields
    bit-identical parameters.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    shapes = param_shapes(kind, c, ws, gs, heads, rho)
    return AggParams(kind, ws, gs, heads, rho, **{
        name: trunc_normal(rng, shape, dtype=dtype) if name.startswith("w")
        else zeros_param(shape, dtype)
        for name, shape in shapes.items()})


def aggregate(kind: str, windows: Tensor, params: AggParams,
              layout_faithful: bool = False) -> Tensor:
    """Uniform entry point: token-major windows (B, ws*ws, C) in and out.

    ``kind`` must equal ``params.kind``; it names the layer for callers that
    wrap this function.
    """
    if kind != params.kind:
        raise ValueError(f"aggregate kind {kind!r} does not match parameters of kind "
                         f"{params.kind!r}")
    if kind == "MHSA":
        return window_mhsa_forward(windows, params)
    x = T.transpose(windows, (0, 2, 1))
    return T.transpose(axial_forward(x, params, layout_faithful), (0, 2, 1))
