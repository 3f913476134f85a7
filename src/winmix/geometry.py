"""Spatial bookkeeping for window-based token mixing.

Everything here is a pure permutation of token-grid values (plus zero
padding): window partition and its inverse, bottom/right zero padding,
cyclic shifts, the strided spatial shuffle, and the messenger exchange.
None of these ops carries parameters or multiply FLOPs, and every one is
exactly invertible.

Feature maps are (batch, height, width, channels) tensors; windows are
(num_windows_total, ws*ws, channels) with windows enumerated row-major over
(batch, window_row, window_col) and tokens row-major over (h, w) inside a
window.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from . import tensor as T
from .tensor import ShapeError, Tensor

__all__ = [
    "FeatureMap",
    "Padding",
    "WindowSet",
    "MessengerState",
    "pad_to_multiple",
    "window_partition",
    "window_reverse",
    "cyclic_shift",
    "spatial_shuffle",
    "spatial_unshuffle",
    "messenger_exchange",
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


@dataclass(frozen=True)
class Padding:
    """Bottom/right zero padding applied to a feature map."""

    orig_h: int
    orig_w: int
    pad_h: int
    pad_w: int


@dataclass(frozen=True)
class WindowSet:
    """Non-overlapped windows plus the origin record needed to invert.

    ``windows`` is (batch * grid_h/ws * grid_w/ws, ws*ws, channels); the
    origin stores the grid extents.
    """

    windows: Tensor
    batch: int
    grid_h: int
    grid_w: int
    ws: int

    @property
    def num_windows(self) -> int:
        return self.windows.shape[0]

    @property
    def channels(self) -> int:
        return self.windows.shape[2]

    def with_windows(self, windows: Tensor) -> "WindowSet":
        if windows.shape != self.windows.shape:
            raise ShapeError(
                f"replacement windows {windows.shape} != {self.windows.shape}"
            )
        return dataclasses.replace(self, windows=windows)


@dataclass(frozen=True)
class MessengerState:
    """One bundle of m messenger tokens per window.

    ``tokens`` is (num_windows_total, m, channels); ``win_h``/``win_w`` are
    the window-grid extents of each batch element and ``region`` is the side
    length r of the square window-region over which messengers are exchanged.
    """

    tokens: Tensor
    batch: int
    win_h: int
    win_w: int
    region: int

    @property
    def per_window(self) -> int:
        return self.tokens.shape[1]

    @property
    def channels(self) -> int:
        return self.tokens.shape[2]


def pad_to_multiple(x: FeatureMap, ws: int) -> tuple[FeatureMap, Padding]:
    """Zero-pad bottom/right so height and width divide by ``ws``."""
    if ws < 1:
        raise ShapeError(f"window size must be >= 1, got {ws}")
    h, w = x.height, x.width
    pad_h = (-h) % ws
    pad_w = (-w) % ws
    rec = Padding(orig_h=h, orig_w=w, pad_h=pad_h, pad_w=pad_w)
    if pad_h == 0 and pad_w == 0:
        return x, rec
    return FeatureMap(T.pad_hw(x.values, pad_h, pad_w)), rec


def window_partition(x: FeatureMap, ws: int) -> WindowSet:
    """Split the grid into ws*ws windows; pad it first with pad_to_multiple
    and crop after window_reverse when it does not divide."""
    b, h, w, c = x.values.shape
    if h % ws or w % ws:
        raise ShapeError(f"grid {h}x{w} not divisible by window size {ws}")
    gh, gw = h // ws, w // ws
    v = T.reshape(x.values, (b, gh, ws, gw, ws, c))
    v = T.transpose(v, (0, 1, 3, 2, 4, 5))
    v = T.reshape(v, (b * gh * gw, ws * ws, c))
    return WindowSet(windows=v, batch=b, grid_h=h, grid_w=w, ws=ws)


def window_reverse(wset: WindowSet) -> FeatureMap:
    """Exact inverse of window_partition."""
    b, h, w, ws = wset.batch, wset.grid_h, wset.grid_w, wset.ws
    gh, gw = h // ws, w // ws
    expected = (b * gh * gw, ws * ws, wset.windows.shape[2])
    if wset.windows.shape != expected:
        raise ShapeError(
            f"window set {wset.windows.shape} inconsistent with origin {expected}"
        )
    c = wset.channels
    v = T.reshape(wset.windows, (b, gh, gw, ws, ws, c))
    v = T.transpose(v, (0, 1, 3, 2, 4, 5))
    return FeatureMap(T.reshape(v, (b, h, w, c)))


def cyclic_shift(x: FeatureMap, dy: int, dx: int) -> FeatureMap:
    """Torus roll: the token at (i, j) moves to ((i+dy) mod H, (j+dx) mod W)."""
    if dy == 0 and dx == 0:
        return x
    return FeatureMap(T.roll(x.values, (dy, dx), (1, 2)))


def spatial_shuffle(x: FeatureMap, ws: int) -> FeatureMap:
    """Strided token shuffle across windows.

    Along each axis, index a*(H/ws) + b moves to b*ws + a, so each shuffled
    window gathers exactly one token from every original window (the spatial
    analogue of channel shuffle).
    """
    b, h, w, c = x.values.shape
    if h % ws or w % ws:
        raise ShapeError(f"grid {h}x{w} not divisible by window size {ws}")
    gh, gw = h // ws, w // ws
    v = T.reshape(x.values, (b, ws, gh, w, c))
    v = T.transpose(v, (0, 2, 1, 3, 4))
    v = T.reshape(v, (b, h, ws, gw, c))
    v = T.transpose(v, (0, 1, 3, 2, 4))
    v = T.reshape(v, (b, h, w, c))
    return FeatureMap(v)


def spatial_unshuffle(x: FeatureMap, ws: int) -> FeatureMap:
    """Inverse permutation of spatial_shuffle."""
    b, h, w, c = x.values.shape
    if h % ws or w % ws:
        raise ShapeError(f"grid {h}x{w} not divisible by window size {ws}")
    gh, gw = h // ws, w // ws
    v = T.reshape(x.values, (b, gh, ws, w, c))
    v = T.transpose(v, (0, 2, 1, 3, 4))
    v = T.reshape(v, (b, h, gw, ws, c))
    v = T.transpose(v, (0, 1, 3, 2, 4))
    v = T.reshape(v, (b, h, w, c))
    return FeatureMap(v)


def messenger_exchange(state: MessengerState) -> MessengerState:
    """Interleave messenger channel-groups across each r x r window region.

    Channels split into r*r groups; after the exchange, window p's messenger
    carries group q of window q's messenger for every q in its region, so
    each window holds one slice from every window of the region. The map is
    a fixed permutation and its own inverse.
    """
    r = state.region
    if r == 1:
        return state
    b, gh, gw = state.batch, state.win_h, state.win_w
    m, c = state.per_window, state.channels
    if gh % r or gw % r:
        raise ShapeError(f"window grid {gh}x{gw} not divisible by region {r}")
    if c % (r * r):
        raise ShapeError(f"channels {c} not divisible by region area {r * r}")
    rh, rw = gh // r, gw // r
    cq = c // (r * r)
    t = T.reshape(state.tokens, (b, rh, r, rw, r, m, c))
    t = T.transpose(t, (0, 1, 3, 2, 4, 5, 6))
    t = T.reshape(t, (b, rh, rw, r * r, m, r * r, cq))
    t = T.transpose(t, (0, 1, 2, 5, 4, 3, 6))
    t = T.reshape(t, (b, rh, rw, r, r, m, c))
    t = T.transpose(t, (0, 1, 3, 2, 4, 5, 6))
    t = T.reshape(t, (b * gh * gw, m, c))
    return dataclasses.replace(state, tokens=t)
