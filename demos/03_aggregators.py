#!/usr/bin/env python3
"""The four intra-window aggregation layers, side by side.

Each layer maps a batch of windows (tokens x channels) to the same shape.
Linear, DWLinear and MLP are one axial pipeline (height map, width map,
point-wise projection) with a different map; MHSA is window attention.
``param_shapes`` lists each layer's parameters in init and checkpoint order.
The axial map touches only the row and column of each output token; the
attention layer touches the whole window.
"""

import numpy as np

from winmix import Tensor, init_param, param_shapes
from winmix.aggregators import aggregate

ws, c = 7, 12
rng = np.random.default_rng(0)
windows = Tensor(rng.standard_normal((5, ws * ws, c)), dtype=np.float64)

for kind, kwargs in [
    ("Linear", dict(gs=3)),
    ("DWLinear", dict(gs=3)),
    ("MLP", dict(gs=3, rho=4)),
    ("MHSA", dict(heads=4)),
]:
    spec = param_shapes(kind, c, ws, **kwargs)
    init_rng = np.random.default_rng(1)
    params = {name: init_param(name, shape, init_rng, np.float64) for name, shape in spec.items()}
    out = aggregate(kind, windows, params)
    n_params = sum(t.size for t in params.values())
    print(f"{kind:9s} out {out.shape}  params {n_params:6d}")
    print("          " + ", ".join(f"{n}{list(s)}" for n, s in spec.items()))

# --- influence pattern: perturb one token, watch which outputs move --------
print("\ninfluence of token (2, 4) inside one window:")
for kind, kwargs in [("Linear", dict(gs=3)), ("MHSA", dict(heads=4))]:
    # random values, so no weight is accidentally zero
    params = {name: Tensor(rng.standard_normal(shape), dtype=np.float64)
              for name, shape in param_shapes(kind, c, ws, **kwargs).items()}
    base = aggregate(kind, windows, params).numpy()
    moved = windows.numpy().copy()
    moved[0, 2 * ws + 4, :] += 1.0
    delta = np.abs(aggregate(kind, Tensor(moved, dtype=np.float64), params).numpy()
                   - base)[0].sum(axis=1).reshape(ws, ws)
    print(f"{kind}: affected tokens (X = moved)")
    for row in (delta > 1e-12):
        print("   " + "".join("X" if v else "." for v in row))
