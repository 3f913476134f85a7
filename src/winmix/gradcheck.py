"""Analytic-vs-numeric gradient verification.

``finite_difference_gradient`` in the tensor module is the exhaustive
per-coordinate oracle; for whole models the helpers here probe a sampled
subset of coordinates per parameter (float64, central differences) and
report the worst relative error, normalized by max(1, |analytic|, |numeric|).
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .analytics import _as_hw
from .model import Model, ModelConfig, build_model, forward
from .tensor import Tensor
from .train import LABEL_SMOOTHING, smoothed_cross_entropy

__all__ = ["sampled_check", "model_gradcheck"]


def rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(a), abs(b))


def sampled_check(loss_fn, arrays: dict[str, np.ndarray], rng: np.random.Generator,
                  samples_per_leaf: int = 3) -> float:
    """Worst relative error between analytic and central-difference gradients.

    ``loss_fn(arrays) -> (loss Tensor, leaves dict)`` must rebuild the graph
    from the given float64 arrays so each probe re-runs the true forward.
    ``samples_per_leaf`` below 1 raises ValueError: it would compare nothing.
    """
    if samples_per_leaf < 1:
        raise ValueError(f"samples_per_leaf must be >= 1, got {samples_per_leaf}")
    h = 1e-4  # central-difference step
    loss, leaves = loss_fn(arrays)
    for t in leaves.values():
        t.grad = None
    T.backward(loss)
    worst = 0.0
    for name, arr in arrays.items():
        grad = leaves[name].grad
        if grad is None:
            raise T.GraphError(f"parameter {name!r} unreachable from the loss")
        k = min(samples_per_leaf, arr.size)
        coords = rng.choice(arr.size, size=k, replace=False)
        for c in coords:
            bumped = {n: (a.copy() if n == name else a) for n, a in arrays.items()}
            bumped[name].reshape(-1)[c] += h
            hi = loss_fn(bumped)[0].item()
            bumped[name].reshape(-1)[c] -= 2 * h
            lo = loss_fn(bumped)[0].item()
            fd = (hi - lo) / (2 * h)
            worst = max(worst, rel_err(float(grad.reshape(-1)[c]), fd))
    return worst


def model_gradcheck(cfg: ModelConfig, seed: int = 0, samples_per_leaf: int = 2,
                    resolution: int | None = None) -> float:
    """End-to-end check of a full model's loss gradients (float64) on
    images of side ``resolution``, 4 windows by default; a resolution below
    1 raises ValueError."""
    h, w = _as_hw(resolution if resolution is not None else 4 * cfg.window)
    rng = np.random.Generator(np.random.PCG64(seed))
    images = rng.standard_normal((2, h, w, 3))
    labels = rng.integers(0, cfg.classes, 2)
    template = build_model(cfg, seed=seed, dtype=np.float64)
    arrays = {k: t.data.copy() for k, t in template.params.items()}

    def loss_fn(arrs):
        params = {k: Tensor(a, dtype=np.float64, requires_grad=True)
                  for k, a in arrs.items()}
        model = Model(config=cfg, params=params, dtype=np.float64)
        logits = forward(model, Tensor(images, dtype=np.float64))
        return smoothed_cross_entropy(logits, labels, LABEL_SMOOTHING), params

    return sampled_check(loss_fn, arrays, rng, samples_per_leaf)
