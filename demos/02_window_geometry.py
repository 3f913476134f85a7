#!/usr/bin/env python3
"""Window partition, cyclic shift, spatial shuffle, and messenger exchange.

All of these are pure permutations of the token grid: invertible, value
preserving, parameter-free. They are shown here on a small labeled grid so
the index motion is visible.
"""

import numpy as np

from winmix import (
    FeatureMap,
    Tensor,
    cyclic_shift,
    messenger_exchange,
    spatial_shuffle,
    window_partition,
    window_reverse,
)

def show(name, fm):
    print(f"{name}:")
    print(fm.values.numpy()[0, :, :, 0].astype(int))

grid = np.arange(16, dtype=np.float64).reshape(1, 4, 4, 1)
x = FeatureMap(Tensor(grid))
show("original 4x4 grid", x)

# --- partition into 2x2 windows --------------------------------------------
windows = window_partition(x, 2)
print("windows (row-major, tokens row-major):")
print(windows.numpy()[:, :, 0].astype(int))
assert (window_reverse(windows, 4, 4).values.numpy() == grid).all()

# --- cyclic shift: the token at (i, j) moves to (i+dy, j+dx) mod size ------
show("shift by (1, 1)", cyclic_shift(x, 1, 1))

# --- spatial shuffle: each new window collects one token per old window ----
shuffled = spatial_shuffle(x, 2)
show("spatial shuffle (ws=2)", shuffled)
print("first shuffled window:",
      window_partition(shuffled, 2).numpy()[0, :, 0].astype(int))

# --- messenger tokens: exchange channel slices across a window region -----
c = 4
tokens = np.zeros((4, 1, c))
for win in range(4):
    tokens[win] = 10 + win            # tag each window's messenger
# a 2x2 window grid, exchanged over one region of side 2
after = messenger_exchange(Tensor(tokens), 2, 2, 2)
print("window 0 messenger after exchange (one quarter-slice per window):")
print(after.numpy()[0, 0])
assert (messenger_exchange(after, 2, 2, 2).numpy() == tokens).all()  # involution
print("exchange twice restores the original tokens")
