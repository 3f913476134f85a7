"""Cost accounting, token-connectivity analysis, and micro-benchmarks.

Parameter and FLOP counts sum the records of ``model.layers``, the one walk
of the architecture, which also names the parameter table: no model is
instantiated, and a row's parameter count is the summed size of its shapes.
FLOPs are multiply-accumulates at batch size 1 for a given input resolution;
norms, softmax, GELU, pooling and plain additions count zero, and
permutation ops (partition, shift, shuffle, messenger exchange) are free.
``flops_oracle`` cross-checks the counts by running the real forward pass
with an instrumented matmul kernel and must agree exactly; since MACs depend
only on shapes, it runs on a zero table from ``table_shapes``.

Connectivity propagates boolean token-influence masks through the block
sequence on a fixed token grid, using each aggregator's intra-window pattern
(axial cross for the linear/MLP family, full window for attention; both are
exact) and the exact communication permutations, traced through the model's
own geometry ops, with each block laid out by ``model.block_layout`` as in the
forward pass; padded positions start every block empty. The masks live
on the window grid, so a block costs ``any`` reductions over the window
axes, O(N * M) boolean work for N tokens and M sources, rather than a dense
(N, N) product; the 56x56 stage-0 grid of a 224 px image is feasible. Stage
transitions are treated as influence-preserving so the analysis isolates the
mixing/communication mechanism itself.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .model import (
    Model,
    ModelConfig,
    block_layout,
    comm_permutation,
    forward,
    layers,
    table_shapes,
)
from .tensor import Tensor

__all__ = [
    "CostRow",
    "CostReport",
    "ConnectivityReport",
    "count_params",
    "count_flops",
    "flops_oracle",
    "connectivity",
    "bench_throughput",
    "write_pgm",
]

SCHEMA_VERSION = 1
MASK_BUDGET = 2 ** 29  # bytes of (M, M) masks that one connectivity report may hold


@dataclass
class CostRow:
    path: str
    params: int
    flops: int | None = None


@dataclass
class CostReport:
    rows: list[CostRow]
    resolution: tuple[int, int] | None = None

    @property
    def total_params(self) -> int:
        return sum(r.params for r in self.rows)

    @property
    def total_flops(self) -> int | None:
        if any(r.flops is None for r in self.rows):
            return None
        return sum(r.flops for r in self.rows)

    def to_dict(self) -> dict:
        d = {
            "schema_version": SCHEMA_VERSION,
            "rows": [
                {"path": r.path, "params": r.params, "flops": r.flops}
                for r in self.rows
            ],
            "totals": {"params": self.total_params, "flops": self.total_flops},
        }
        if self.resolution is not None:
            d["resolution"] = list(self.resolution)
        return d

    def to_table(self) -> str:
        width = max(len(r.path) for r in self.rows + [CostRow("TOTAL", 0)])
        lines = [f"{'layer':<{width}}  {'params':>12}  {'flops':>16}"]
        for r in self.rows:
            f = "-" if r.flops is None else str(r.flops)
            lines.append(f"{r.path:<{width}}  {r.params:>12}  {f:>16}")
        tf = self.total_flops
        lines.append(f"{'TOTAL':<{width}}  {self.total_params:>12}  "
                     f"{'-' if tf is None else tf:>16}")
        return "\n".join(lines)


def _cost_rows(cfg: ModelConfig, resolution: tuple[int, int], flops: bool) -> list[CostRow]:
    """The records of ``layers`` summed per cost row, in first-seen order."""
    rows: dict[str, CostRow] = {}
    for path, _, _, params, macs in layers(cfg, resolution):
        row = rows.get(path)
        if row is None:
            rows[path] = CostRow(path, params, macs if flops else None)
        else:
            row.params += params
            if flops:
                row.flops += macs
    return list(rows.values())


def count_params(cfg: ModelConfig) -> CostReport:
    """Per-layer parameter counts, each the summed size of the layer's
    shapes in the parameter table; no model is built."""
    return CostReport(rows=_cost_rows(cfg, (1, 1), flops=False))


def _as_hw(resolution) -> tuple[int, int]:
    """``resolution`` as a positive (height, width) pair; raises ValueError."""
    h, w = (resolution, resolution) if isinstance(resolution, int) else resolution
    if h < 1 or w < 1:
        raise ValueError(f"resolution must be positive, got {resolution}")
    return int(h), int(w)


def count_flops(cfg: ModelConfig, resolution) -> CostReport:
    """Per-layer multiply-accumulate counts at batch 1 for a resolution."""
    hw = _as_hw(resolution)
    return CostReport(rows=_cost_rows(cfg, hw, flops=True), resolution=hw)


def flops_oracle(cfg: ModelConfig, resolution, seed: int = 0) -> int:
    """Count every matmul multiply of one real forward pass (batch 1) on a
    zero table from ``table_shapes``: MACs depend only on shapes, so no weight
    is drawn and ``seed`` fixes only the images. The result must equal
    ``count_flops`` exactly; a non-positive resolution raises ValueError.
    """
    hw = _as_hw(resolution)
    model = Model(cfg, {k: Tensor(np.zeros(s, np.float32)) for k, s in table_shapes(cfg).items()})
    rng = np.random.Generator(np.random.PCG64(seed))
    images = Tensor(rng.standard_normal((1, hw[0], hw[1], 3)).astype(np.float32))
    with T.no_grad(), T.count_macs() as macs:
        forward(model, images)
    return macs[0]


# -- connectivity -------------------------------------------------------------


@dataclass
class ConnectivityReport:
    """Boolean influence masks after every block on a fixed token grid.

    ``layers[l][i, j]`` is True when output token i after block l can be
    influenced by input token j. ``first_full`` is the 1-based index of the
    first block after which every pair is connected (None if never).
    """

    grid: tuple[int, int]
    layers: list[np.ndarray] = field(repr=False, default_factory=list)
    labels: list[str] = field(default_factory=list)
    first_full: int | None = None

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "grid": list(self.grid),
            "first_full": self.first_full,
            "layers": [
                {
                    "label": lab,
                    "full": bool(mat.all()),
                    "density": float(mat.mean()),
                }
                for lab, mat in zip(self.labels, self.layers)
            ],
        }


def connectivity(cfg: ModelConfig, grid_h: int, grid_w: int) -> ConnectivityReport:
    """Propagate boolean token influence through every block at a fixed grid.

    The grid is padded to the window size if needed; padded positions are
    excluded from the report and cleared after each block, as the model crops
    them and the next block pads with fresh zeros. Influence spreads via
    the aggregator's intra-window pattern, the residual path, and the exact
    comm permutations; per-token ops (norms, FFN) preserve it.

    The influence array (tokens, sources) is viewed as (window row, row in
    window, window col, col in window, sources), so each block is a handful
    of ``any`` reductions and broadcasts: O(blocks * N * M) boolean work for
    N padded tokens and M real ones, never an (N, N) pattern. The 56x56
    stage-0 grid of a 224 px image is feasible; there each (M, M) mask holds
    about 10 MB, so a report for the 32-block tiny presets is about 315 MB.
    A grid whose masks would exceed ``MASK_BUDGET`` bytes (blocks * M * M)
    raises ValueError before anything is allocated.

    Limit: the grid never shrinks and stage transitions are treated as
    influence-preserving, so the report cannot tell whether a model joins
    two regions through patch merging. A comm-free model at 32 px with
    window 2 reports ``first_full=None`` although merge2 folds its whole map
    into one token; only a forward-pass perturbation (change one region's
    pixels, compare the other region's features) settles such a question.
    """
    if grid_h < 1 or grid_w < 1:
        raise ValueError(f"grid must be positive, got {grid_h}x{grid_w}")
    need = sum(cfg.depths) * (grid_h * grid_w) ** 2
    if need > MASK_BUDGET:
        raise ValueError(f"a {grid_h}x{grid_w} grid needs {need:,} bytes of masks, "
                         f"over the {MASK_BUDGET:,}-byte budget")
    ws = cfg.window
    _, gh, gw, _, _ = block_layout(cfg, 0, 0, grid_h, grid_w)  # alike in every block
    hp, wp = gh * ws, gw * ws
    n = hp * wp
    real = (np.arange(n) // wp < grid_h) & (np.arange(n) % wp < grid_w)
    m = int(real.sum())
    pad = np.flatnonzero(~real)

    r = np.zeros((n, m), dtype=bool)
    r[real, np.arange(m)] = True

    perm = comm_permutation(cfg.comm, hp, wp, ws) if cfg.comm in ("Shift", "Shuffle") else None
    inv = None if perm is None else np.argsort(perm)

    report = ConnectivityReport(grid=(grid_h, grid_w))
    block_no = 0
    for s in range(4):
        msg: np.ndarray | None = None  # the stage's messengers, from its first MSG block
        for i in range(cfg.depths[s]):
            block_no += 1
            comm, _, _, region, _ = block_layout(cfg, s, i, grid_h, grid_w)
            moved = comm in ("Shift", "Shuffle")
            if moved:
                r = r[perm]
            v = r.reshape(gh, ws, gw, ws, m)
            if comm == "MSG":
                seen = v.any(axis=(1, 3)).reshape(gh * gw, m)
                msg = _region_union(seen if msg is None else msg | seen, gh, gw, region)
                v = v | msg.reshape(gh, 1, gw, 1, m)
            if cfg.aggregator == "MHSA":
                v = v | v.any(axis=(1, 3), keepdims=True)  # a writable full-size array
            else:
                # axial cross; every token lies on its own row, so the
                # residual path is already covered
                v = v.any(axis=1, keepdims=True) | v.any(axis=3, keepdims=True)
            r = v.reshape(n, m)
            if moved:
                r = r[inv]
            snapshot = r[real]
            report.layers.append(snapshot)
            report.labels.append(f"stage{s}.block{i}")
            if report.first_full is None and snapshot.all():
                report.first_full = block_no
            r[pad] = False  # the next block pads with fresh zeros
    return report


def _region_union(msg: np.ndarray, gh: int, gw: int, r: int) -> np.ndarray:
    """OR messenger masks over each r x r region of the window grid."""
    if r == 1:
        return msg
    m = msg.reshape(gh // r, r, gw // r, r, -1)
    u = m.any(axis=(1, 3), keepdims=True)
    return np.broadcast_to(u, m.shape).reshape(msg.shape).copy()


# -- micro-benchmark ----------------------------------------------------------


def bench_throughput(model: Model, batch: int = 8, repeats: int = 5,
                     resolution=32, warmup: int = 2, seed: int = 0) -> dict:
    """Images/second of the forward pass: warmup, then timed repeats.

    Returns median and inter-quartile range over the repeats. Model outputs
    are unaffected by timing; only wall-clock numbers vary between runs.
    ``batch`` or ``repeats`` below 1, or ``warmup`` below 0, raises
    ValueError naming the argument.
    """
    for name, value, least in (("batch", batch, 1), ("repeats", repeats, 1),
                               ("warmup", warmup, 0)):
        if value < least:
            raise ValueError(f"{name} must be >= {least}, got {value}")
    hw = _as_hw(resolution)
    rng = np.random.Generator(np.random.PCG64(seed))
    images = Tensor(rng.standard_normal((batch, hw[0], hw[1], 3)).astype(np.float32))
    with T.no_grad():
        for _ in range(warmup):
            forward(model, images)
        rates = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            forward(model, images)
            rates.append(batch / (time.perf_counter() - t0))
    rates = np.asarray(rates)
    q1, med, q3 = np.percentile(rates, [25, 50, 75])
    return {
        "schema_version": SCHEMA_VERSION,
        "batch": batch,
        "repeats": int(repeats),
        "resolution": list(hw),
        "images_per_second": float(med),
        "iqr": float(q3 - q1),
        "samples": [float(x) for x in rates],
    }


def write_pgm(path, matrix: np.ndarray) -> None:
    """Dump a boolean matrix as a binary PGM bitmap (True = white)."""
    mat = np.asarray(matrix, dtype=bool)
    h, w = mat.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        f.write((mat.astype(np.uint8) * 255).tobytes())
