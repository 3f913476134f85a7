"""Spatial bookkeeping for window-based token mixing.

Everything here is a pure permutation of token-grid values (plus zero
padding): window partition and its inverse, bottom/right zero padding,
cyclic shifts, the strided spatial shuffle, and the messenger exchange.
None of these ops carries parameters or multiply FLOPs, and every one is
exactly invertible; ``trace_permutation`` reads a token permutation as an
index array.

Feature maps are (batch, height, width, channels) tensors. Windows are a
plain (batch*H/ws*W/ws, ws*ws, channels) tensor, windows enumerated
row-major over (batch, window_row, window_col) and tokens row-major over
(h, w) inside a window; ``window_reverse`` infers the window size and the
batch from that shape and the target grid. Messenger tokens are a plain
(windows, m, channels) tensor in the same window order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import tensor as T
from .tensor import ShapeError, Tensor

__all__ = [
    "FeatureMap",
    "pad_to_multiple",
    "window_partition",
    "window_reverse",
    "cyclic_shift",
    "spatial_shuffle",
    "spatial_unshuffle",
    "messenger_exchange",
    "trace_permutation",
]


@dataclass(frozen=True)
class FeatureMap:
    """A (B, H, W, C) token grid."""

    values: Tensor

    def __post_init__(self):
        if self.values.ndim != 4:
            raise ShapeError(f"feature map must be rank 4, got {self.values.shape}")

    @property
    def batch(self) -> int:
        return self.values.shape[0]

    @property
    def height(self) -> int:
        return self.values.shape[1]

    @property
    def width(self) -> int:
        return self.values.shape[2]

    @property
    def channels(self) -> int:
        return self.values.shape[3]


def pad_to_multiple(x: FeatureMap, ws: int) -> FeatureMap:
    """Zero-pad bottom/right so height and width divide by ``ws``; crop back
    to ``x.height`` x ``x.width`` with ``tensor.crop_hw``."""
    if ws < 1:
        raise ShapeError(f"window size must be >= 1, got {ws}")
    pad_h, pad_w = (-x.height) % ws, (-x.width) % ws
    if pad_h == 0 and pad_w == 0:
        return x
    return FeatureMap(T.pad_hw(x.values, pad_h, pad_w))


def _window_grid(h: int, w: int, ws: int) -> tuple[int, int]:
    if h % ws or w % ws:
        raise ShapeError(f"grid {h}x{w} not divisible by window size {ws}")
    return h // ws, w // ws


def window_partition(x: FeatureMap, ws: int) -> Tensor:
    """Split the grid into ws*ws windows; pad it first with pad_to_multiple
    and crop after window_reverse when it does not divide."""
    b, h, w, c = x.values.shape
    gh, gw = _window_grid(h, w, ws)
    v = T.reshape(x.values, (b, gh, ws, gw, ws, c))
    v = T.transpose(v, (0, 1, 3, 2, 4, 5))
    return T.reshape(v, (b * gh * gw, ws * ws, c))


def window_reverse(windows: Tensor, h: int, w: int) -> FeatureMap:
    """Exact inverse of window_partition onto an h x w grid."""
    n, tokens, c = windows.shape
    ws = math.isqrt(tokens)
    if (ws < 1 or ws * ws != tokens or min(h, w) < ws or h % ws or w % ws
            or n % ((h // ws) * (w // ws))):
        raise ShapeError(f"windows {windows.shape} do not tile a {h}x{w} grid")
    gh, gw = h // ws, w // ws
    b = n // (gh * gw)
    v = T.reshape(windows, (b, gh, gw, ws, ws, c))
    v = T.transpose(v, (0, 1, 3, 2, 4, 5))
    return FeatureMap(T.reshape(v, (b, h, w, c)))


def cyclic_shift(x: FeatureMap, dy: int, dx: int) -> FeatureMap:
    """Torus roll: the token at (i, j) moves to ((i+dy) mod H, (j+dx) mod W)."""
    if dy == 0 and dx == 0:
        return x
    return FeatureMap(T.roll(x.values, (dy, dx), (1, 2)))


def _swap_factors(x: FeatureMap, fh: int, fw: int) -> FeatureMap:
    """Split H into (fh, H/fh) and W into (fw, W/fw) and swap each pair."""
    b, h, w, c = x.values.shape
    v = T.reshape(x.values, (b, fh, h // fh, w, c))
    v = T.transpose(v, (0, 2, 1, 3, 4))
    v = T.reshape(v, (b, h, fw, w // fw, c))
    v = T.transpose(v, (0, 1, 3, 2, 4))
    return FeatureMap(T.reshape(v, (b, h, w, c)))


def spatial_shuffle(x: FeatureMap, ws: int) -> FeatureMap:
    """Strided token shuffle across windows.

    Along each axis, index a*(H/ws) + b moves to b*ws + a, so each shuffled
    window gathers exactly one token from every original window (the spatial
    analogue of channel shuffle).
    """
    _window_grid(x.height, x.width, ws)
    return _swap_factors(x, ws, ws)


def spatial_unshuffle(x: FeatureMap, ws: int) -> FeatureMap:
    """Inverse permutation of spatial_shuffle."""
    return _swap_factors(x, *_window_grid(x.height, x.width, ws))


def messenger_exchange(tokens: Tensor, win_h: int, win_w: int, region: int) -> Tensor:
    """Interleave messenger channel-groups across each r x r window region.

    ``tokens`` is (B*win_h*win_w, m, C), one bundle of m messengers per
    window of a win_h x win_w window grid. Channels split into r*r groups;
    after the exchange, window p's messenger carries group q of window q's
    messenger for every q in its region, so each window holds one slice from
    every window of the region. The map is a fixed permutation and its own
    inverse.
    """
    r = region
    if r == 1:
        return tokens
    n, m, c = tokens.shape
    gh, gw = win_h, win_w
    if gh % r or gw % r:
        raise ShapeError(f"window grid {gh}x{gw} not divisible by region {r}")
    if c % (r * r):
        raise ShapeError(f"channels {c} not divisible by region area {r * r}")
    b, rh, rw = n // (gh * gw), gh // r, gw // r
    cq = c // (r * r)
    t = T.reshape(tokens, (b, rh, r, rw, r, m, c))
    t = T.transpose(t, (0, 1, 3, 2, 4, 5, 6))
    t = T.reshape(t, (b, rh, rw, r * r, m, r * r, cq))
    t = T.transpose(t, (0, 1, 2, 5, 4, 3, 6))
    t = T.reshape(t, (b, rh, rw, r, r, m, c))
    t = T.transpose(t, (0, 1, 3, 2, 4, 5, 6))
    return T.reshape(t, (n, m, c))


def trace_permutation(hp: int, wp: int, op: Callable[[FeatureMap], FeatureMap]) -> np.ndarray:
    """Trace an index grid through a token permutation of an hp x wp map.

    Returns ``perm`` with perm[p] = flat source position of the token that
    ``op`` moves to flat position p.
    """
    idx = np.arange(hp * wp, dtype=np.float64).reshape(1, hp, wp, 1)
    moved = op(FeatureMap(Tensor(idx, dtype=np.float64)))
    return moved.values.data.reshape(-1).astype(np.int64)
