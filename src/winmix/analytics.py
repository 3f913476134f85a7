"""Cost accounting, token-connectivity analysis, and micro-benchmarks.

Parameter and FLOP counts are closed-form functions of the config: no model
is instantiated. FLOPs are multiply-accumulates at batch size 1 for a given
input resolution; norms, softmax, GELU, pooling and plain additions count
zero, and permutation ops (partition, shift, shuffle, messenger exchange)
are free. ``flops_oracle`` cross-checks the closed form by running the real
forward pass with an instrumented matmul kernel and must agree exactly; since
MACs depend only on shapes, it runs on a zero table from ``table_shapes``.

Connectivity propagates boolean token-influence masks through the block
sequence on a fixed token grid, using each aggregator's intra-window pattern
(axial cross for the linear/MLP family, full window for attention) and the
exact communication permutations, traced through the model's own geometry
ops. The masks live on the window grid, so a block costs ``any``
reductions over the window axes, O(N * M) boolean work for N tokens and M
sources, rather than a dense (N, N) product; the 56x56 stage-0 grid of a
224 px image is feasible. Stage transitions are treated as
influence-preserving so the analysis isolates the mixing/communication
mechanism itself.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import geometry as geo
from . import tensor as T
from .model import (
    Model,
    ModelConfig,
    choose_messenger_region,
    comm_active,
    forward,
    stage_channels,
    stage_groups,
    stage_has_comm,
    stage_heads,
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


def _agg_param_count(cfg: ModelConfig, stage: int) -> int:
    c = stage_channels(cfg, stage)
    ws = cfg.window
    if cfg.aggregator == "MHSA":
        heads = stage_heads(cfg, stage)
        return 4 * c * c + 4 * c + heads * (2 * ws - 1) ** 2
    groups, gs = stage_groups(cfg, stage)
    k = gs * ws
    if cfg.aggregator == "Linear":
        return 2 * (k * k + k) + c * c + c
    if cfg.aggregator == "DWLinear":
        return groups * 2 * (k * k + k) + c * c + c
    rho = cfg.mlp_ratio
    return 2 * (2 * rho * k * k + rho * k + k) + c * c + c


def _agg_flops_per_window(cfg: ModelConfig, stage: int) -> int:
    c = stage_channels(cfg, stage)
    ws = cfg.window
    n = ws * ws
    if cfg.aggregator == "MHSA":
        return 4 * c * c * n + 2 * n * n * c
    groups, gs = stage_groups(cfg, stage)
    k = gs * ws
    axial = 2 * groups * ws * k * k
    if cfg.aggregator == "MLP":
        axial = 2 * groups * ws * 2 * cfg.mlp_ratio * k * k
    return axial + c * c * n


def _ceil_to(x: int, m: int) -> int:
    return -(-x // m) * m


def _enumerate_layers(cfg: ModelConfig, resolution: tuple[int, int]):
    """Yield CostRow per layer at a resolution; paths and parameter counts
    do not depend on it.

    The grid bookkeeping mirrors the forward pass exactly: the stem pads the
    image to a multiple of 4, blocks pad to the window size for ``.agg`` and
    ``.msg`` and crop before ``.ffn``, and patch merging pads to even extents.
    """
    ws = cfg.window
    h = _ceil_to(resolution[0], 4) // 4
    w = _ceil_to(resolution[1], 4) // 4

    c0 = cfg.width
    yield CostRow("stem.proj", 48 * c0 + c0, 48 * c0 * h * w)
    yield CostRow("stem.norm", 2 * c0, 0)

    for s in range(4):
        c = stage_channels(cfg, s)
        if cfg.comm == "MSG" and stage_has_comm(cfg, s):
            yield CostRow(f"stage{s}.msg_init", cfg.messenger_count * c, 0)
        windows = _ceil_to(h, ws) * _ceil_to(w, ws) // (ws * ws)
        agg = (_agg_param_count(cfg, s), windows * _agg_flops_per_window(cfg, s))
        ffn = (2 * cfg.ffn_ratio * c * c + (cfg.ffn_ratio + 1) * c,
               2 * cfg.ffn_ratio * c * c * h * w)
        for i in range(cfg.depths[s]):
            prefix = f"stage{s}.block{i}"
            yield CostRow(f"{prefix}.norms", 4 * c, 0)
            yield CostRow(f"{prefix}.agg", *agg)
            yield CostRow(f"{prefix}.ffn", *ffn)
            if cfg.comm == "MSG" and comm_active(cfg, i):
                yield CostRow(f"{prefix}.msg", 2 * c * c + 2 * c, 2 * c * c * windows)
        if s < 3:
            h, w = _ceil_to(h, 2) // 2, _ceil_to(w, 2) // 2
            yield CostRow(f"merge{s}.norm", 8 * c, 0)
            yield CostRow(f"merge{s}.reduce", 8 * c * c, 8 * c * c * h * w)

    c3 = stage_channels(cfg, 3)
    yield CostRow("head.norm", 2 * c3, 0)
    yield CostRow("head.linear", c3 * cfg.classes + cfg.classes, c3 * cfg.classes)


def count_params(cfg: ModelConfig) -> CostReport:
    """Closed-form per-layer parameter counts; equals the built model's
    parameter table total exactly."""
    return CostReport(rows=[CostRow(r.path, r.params) for r in _enumerate_layers(cfg, (1, 1))])


def _as_hw(resolution) -> tuple[int, int]:
    """``resolution`` as a positive (height, width) pair; raises ValueError."""
    h, w = (resolution, resolution) if isinstance(resolution, int) else resolution
    if h < 1 or w < 1:
        raise ValueError(f"resolution must be positive, got {resolution}")
    return int(h), int(w)


def count_flops(cfg: ModelConfig, resolution) -> CostReport:
    """Closed-form multiply-accumulate counts at batch 1 for a resolution."""
    hw = _as_hw(resolution)
    return CostReport(rows=list(_enumerate_layers(cfg, hw)), resolution=hw)


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


def _perm_from_featuremap_op(hp: int, wp: int, op) -> np.ndarray:
    """Trace an index grid through a geometry op to get its permutation.

    Returns ``perm`` with perm[p] = source position of the token now at p.
    """
    idx = np.arange(hp * wp, dtype=np.float64).reshape(1, hp, wp, 1)
    moved = op(geo.FeatureMap(Tensor(idx, dtype=np.float64)))
    return moved.values.data.reshape(-1).astype(np.int64)


def connectivity(cfg: ModelConfig, grid_h: int, grid_w: int) -> ConnectivityReport:
    """Propagate boolean token influence through every block at a fixed grid.

    The grid is padded to the window size if needed; padded positions are
    excluded from the report (as the model crops them). Influence spreads via
    the aggregator's intra-window pattern, the residual path, and the exact
    comm permutations; per-token ops (norms, FFN) preserve it.

    The influence array (tokens, sources) is viewed as (window row, row in
    window, window col, col in window, sources), so each block is a handful
    of ``any`` reductions and broadcasts: O(blocks * N * M) boolean work for
    N padded tokens and M real ones, never an (N, N) pattern. The 56x56
    stage-0 grid of a 224 px image is feasible; there each (M, M) mask holds
    about 10 MB, so a report for the 32-block tiny presets is about 315 MB.

    Limit: the grid never shrinks and stage transitions are treated as
    influence-preserving, so the report cannot tell whether a model joins
    two regions through patch merging. A comm-free model at 32 px with
    window 2 reports ``first_full=None`` although merge2 folds its whole map
    into one token; only a forward-pass perturbation (change one region's
    pixels, compare the other region's features) settles such a question.
    """
    if grid_h < 1 or grid_w < 1:
        raise ValueError(f"grid must be positive, got {grid_h}x{grid_w}")
    ws = cfg.window
    hp, wp = _ceil_to(grid_h, ws), _ceil_to(grid_w, ws)
    gh, gw = hp // ws, wp // ws
    n = hp * wp
    real_idx = np.flatnonzero((np.arange(n) // wp < grid_h) & (np.arange(n) % wp < grid_w))
    m = real_idx.size

    r = np.zeros((n, m), dtype=bool)
    r[real_idx, np.arange(m)] = True

    perm = None
    if cfg.comm == "Shift":
        perm = _perm_from_featuremap_op(
            hp, wp, lambda f: geo.cyclic_shift(f, -(ws // 2), -(ws // 2)))
    elif cfg.comm == "Shuffle":
        perm = _perm_from_featuremap_op(hp, wp, lambda f: geo.spatial_shuffle(f, ws))
    inv = None if perm is None else np.argsort(perm)

    report = ConnectivityReport(grid=(grid_h, grid_w))
    block_no = 0
    for s in range(4):
        msg: np.ndarray | None = None
        if cfg.comm == "MSG" and stage_has_comm(cfg, s):
            msg = np.zeros((gh * gw, m), dtype=bool)
            region = choose_messenger_region(gh, gw, stage_channels(cfg, s),
                                             cfg.messenger_region)
        for i in range(cfg.depths[s]):
            block_no += 1
            active = comm_active(cfg, i)
            moved = active and perm is not None
            if moved:
                r = r[perm]
            v = r.reshape(gh, ws, gw, ws, m)
            if active and msg is not None:
                msg = _region_union(msg | v.any(axis=(1, 3)).reshape(gh * gw, m),
                                    gh, gw, region)
                v = v | msg.reshape(gh, 1, gw, 1, m)
            if cfg.aggregator == "MHSA":
                v = np.broadcast_to(v.any(axis=(1, 3), keepdims=True), v.shape)
            else:
                # axial cross; every token lies on its own row, so the
                # residual path is already covered
                v = v.any(axis=1, keepdims=True) | v.any(axis=3, keepdims=True)
            r = v.reshape(n, m)
            if moved:
                r = r[inv]
            snapshot = r[real_idx]
            report.layers.append(snapshot)
            report.labels.append(f"stage{s}.block{i}")
            if report.first_full is None and snapshot.all():
                report.first_full = block_no
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
