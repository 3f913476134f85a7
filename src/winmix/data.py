"""Deterministic synthetic image classification data.

Three generators:

* ``textures``: each class is an oriented sinusoidal grating with its own
  spatial frequency and orientation, plus per-sample phase/orientation/
  amplitude jitter and pixel noise. Every window of the image sees the
  class pattern, so the task is locally solvable.
* ``quadrant-parity``: two diagonally opposite quadrants each carry one of
  two orientations; the (binary) label is whether they match. No single
  window carries the label, so solving it needs cross-window evidence.
* ``seam-phase``: a vertical grating whose right half is either in phase or
  anti-phase with the left half; the phase itself is uniform per sample, so
  each half alone is uninformative and the label lives in the relation
  across the center seam. The seam lies on a window boundary at every stage
  of a window-``ws`` model (4 px stem, three 2x2 merges) only when the width
  is a multiple of 64 * ws px; at narrower widths some stage holds a window,
  or a merge, that spans the seam. The label also shows in pooled phase
  statistics: in-phase halves add up and anti-phase halves cancel, so a
  mean-pooled model can leave chance without linking the halves. This is
  the only mode that takes a ``height`` other than ``size``, so wide, short
  images keep the seam aligned at a small pixel count (8 rows by 128
  columns at ws=2).

Everything is reproducible from (seed, spec); train/val splits are disjoint
and class-balanced by construction.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .io import dataclass_from_dict, load_wdat, save_wdat

__all__ = [
    "DatasetSpec",
    "SyntheticDataset",
    "gen_dataset",
    "nearest_centroid_accuracy",
    "dataset_from_wdat",
]

# every grating: per-sample phase and orientation jitter (radians), amplitude
# range, and the class-0 frequency and per-class step (cycles per image side)
PHASE_JITTER, ORIENT_JITTER = 2.0, 0.08
AMP_MIN, AMP_MAX = 0.3, 0.45
BASE_FREQ, FREQ_STEP = 2.0, 1.5


@dataclass(frozen=True)
class DatasetSpec:
    """What to generate; ``gen_dataset`` makes the same data for equal specs.

    The gratings' jitter, amplitude and frequencies are the module constants
    above; ``from_dict`` reads old files that name them as fields, at those
    values only. A count, ``size`` or ``height`` below 1, a negative or
    non-finite ``noise``, or an odd ``size`` in quadrant-parity mode, raises
    ValueError naming the field.
    """

    seed: int = 0
    n_train: int = 2048
    n_val: int = 512
    classes: int = 4
    size: int = 32  # image width, and height unless ``height`` is set
    mode: str = "textures"  # textures | quadrant-parity | seam-phase
    noise: float = 0.12
    height: int | None = None  # image rows; None means square (size x size)

    def __post_init__(self):
        for name in ("n_train", "n_val", "size", "height"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
        if not 0.0 <= self.noise < np.inf:
            raise ValueError(f"noise must be finite and >= 0, got {self.noise}")
        if self.mode == "quadrant-parity" and self.size % 2:
            raise ValueError(f"quadrant-parity mode needs an even size, got {self.size}")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @staticmethod
    def from_dict(d: dict) -> "DatasetSpec":
        return dataclass_from_dict(DatasetSpec, d, "dataset spec", retired={
            "phase_jitter": PHASE_JITTER, "orient_jitter": ORIENT_JITTER, "amp_min": AMP_MIN,
            "amp_max": AMP_MAX, "base_freq": BASE_FREQ, "freq_step": FREQ_STEP})


@dataclass
class SyntheticDataset:
    train_images: np.ndarray
    train_labels: np.ndarray
    val_images: np.ndarray
    val_labels: np.ndarray

    @property
    def classes(self) -> int:
        return int(max(self.train_labels.max(), self.val_labels.max())) + 1

    def save_wdat(self, train_path, val_path) -> None:
        save_wdat(train_path, np.clip(self.train_images * 255.0, 0, 255).round().astype(np.uint8),
                  self.train_labels)
        save_wdat(val_path, np.clip(self.val_images * 255.0, 0, 255).round().astype(np.uint8),
                  self.val_labels)


def _balanced_labels(n: int, classes: int) -> np.ndarray:
    if n % classes:
        raise ValueError(f"sample count {n} not divisible by {classes} classes")
    return np.tile(np.arange(classes), n // classes)


def _grating(rng, theta, freq, side: int) -> np.ndarray:
    """(n, side, side) sinusoidal gratings at base orientations ``theta`` (n,)
    and frequency ``freq`` (scalar or (n,)), with jittered orientation,
    phase and amplitude drawn in that order."""
    n = theta.size
    grid = (np.arange(side) + 0.5) / side
    u, v = np.meshgrid(grid, grid, indexing="ij")
    theta = theta + rng.uniform(-ORIENT_JITTER, ORIENT_JITTER, n)
    phase = rng.uniform(-PHASE_JITTER, PHASE_JITTER, n)
    amp = rng.uniform(AMP_MIN, AMP_MAX, n)
    arg = (2.0 * np.pi * np.reshape(freq, (-1, 1, 1))
           * (u[None] * np.cos(theta)[:, None, None]
              + v[None] * np.sin(theta)[:, None, None])
           + phase[:, None, None])
    return 0.5 + amp[:, None, None] * np.sin(arg)


def _rgb(rng, gray: np.ndarray, noise: float) -> np.ndarray:
    """(n, h, w) gray -> (n, h, w, 3) float32 with pixel noise, clipped to [0, 1]."""
    images = np.repeat(gray[..., None], 3, axis=-1)
    images = images + rng.normal(0.0, noise, images.shape)
    return np.clip(images, 0.0, 1.0).astype(np.float32)


def _gratings(rng, labels, spec: DatasetSpec) -> np.ndarray:
    theta = np.pi * (labels + 0.5) / spec.classes
    freq = BASE_FREQ + FREQ_STEP * labels
    return _rgb(rng, _grating(rng, theta, freq, spec.size), spec.noise)


def _parity_images(rng, labels, spec: DatasetSpec) -> np.ndarray:
    n = labels.size
    s = spec.size
    half = s // 2
    first = rng.integers(0, 2, n)
    second = first ^ labels  # parity: label 0 = same orientation, 1 = different
    images = np.full((n, s, s), 0.5)
    for bits, quadrant in ((first, np.s_[:, :half, :half]), (second, np.s_[:, half:, half:])):
        theta = np.where(bits == 0, np.pi / 4, 3 * np.pi / 4)
        images[quadrant] = _grating(rng, theta, BASE_FREQ + FREQ_STEP, half)
    return _rgb(rng, images, spec.noise)


def _seam_phase_images(rng, labels, spec: DatasetSpec) -> np.ndarray:
    n = labels.size
    s = spec.size
    h = s if spec.height is None else spec.height
    cols = np.arange(s)
    phase = rng.uniform(0.0, 2.0 * np.pi, n)
    flip = np.where(labels == 1, np.pi, 0.0)
    period = 4.0  # pixels; one full cycle per stem patch
    left = np.sin(2 * np.pi * cols[None, : s // 2] / period + phase[:, None])
    right = np.sin(2 * np.pi * cols[None, s // 2:] / period
                   + phase[:, None] + flip[:, None])
    rows = np.concatenate([left, right], axis=1)
    return _rgb(rng, 0.5 + 0.4 * np.broadcast_to(rows[:, None, :], (n, h, s)), 0.05)


def gen_dataset(spec: DatasetSpec) -> SyntheticDataset:
    """Build the full train/val dataset for a spec, deterministically."""
    if spec.classes < 2:
        raise ValueError(f"need at least 2 classes, got {spec.classes}")
    makers = {
        "textures": _gratings,
        "quadrant-parity": _parity_images,
        "seam-phase": _seam_phase_images,
    }
    if spec.mode not in makers:
        raise ValueError(f"unknown mode {spec.mode!r}")
    if spec.mode != "textures" and spec.classes != 2:
        raise ValueError(f"{spec.mode} mode is a 2-class task")
    if spec.mode != "seam-phase" and spec.height not in (None, spec.size):
        raise ValueError(f"{spec.mode} mode makes square images; "
                         f"height {spec.height} != size {spec.size}")
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    make = makers[spec.mode]

    train_labels = _balanced_labels(spec.n_train, spec.classes)
    train_images = make(rng, train_labels, spec)
    val_labels = _balanced_labels(spec.n_val, spec.classes)
    val_images = make(rng, val_labels, spec)
    return SyntheticDataset(train_images=train_images,
                            train_labels=train_labels.astype(np.int64),
                            val_images=val_images,
                            val_labels=val_labels.astype(np.int64))


def dataset_from_wdat(train_path, val_path) -> SyntheticDataset:
    """Load an external dataset pair from WDAT files."""
    ti, tl = load_wdat(train_path)
    vi, vl = load_wdat(val_path)
    return SyntheticDataset(train_images=ti, train_labels=tl,
                            val_images=vi, val_labels=vl)


def nearest_centroid_accuracy(ds: SyntheticDataset) -> float:
    """Raw-pixel nearest-centroid baseline on the validation split."""
    classes = ds.classes
    flat_train = ds.train_images.reshape(ds.train_images.shape[0], -1)
    flat_val = ds.val_images.reshape(ds.val_images.shape[0], -1)
    centroids = np.stack([
        flat_train[ds.train_labels == c].mean(axis=0) for c in range(classes)
    ])
    d2 = ((flat_val[:, None, :] - centroids[None]) ** 2).sum(axis=2)
    pred = d2.argmin(axis=1)
    return float((pred == ds.val_labels).mean())
