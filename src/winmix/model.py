"""Full-model assembly: stem, four stages of mixing blocks, patch merging,
classifier head, and the named presets.

A model is a declarative ``ModelConfig`` plus a flat named-parameter table;
``forward`` is a pure function of (table, images). Each block runs

    pad -> [comm-in] -> partition -> norm -> aggregator -> +residual
        -> reverse -> [comm-out] -> crop -> norm -> per-token FFN -> +residual

where the cross-window communication (cyclic shift, spatial shuffle, or
messenger exchange) runs on odd-indexed blocks of each stage only.
``block_layout`` decides each block's comm, window grid and messenger region;
a stage's messengers start from ``msg_init`` at its first MSG block. The second
norm and the FFN act per token, so they run on the cropped map, not on padding.
When the padded map is a single window, the aggregator computes its outputs
only at the real tokens, which the comm's traced permutation places, and
emits them in crop order, so reverse, comm-out and crop drop out:

    pad -> [comm-in] -> partition -> norm -> aggregator at the real tokens
        -> +real tokens -> norm -> per-token FFN -> +residual

Padded tokens still enter norm1 and the aggregator as inputs.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass
from math import prod

import numpy as np

from . import aggregators as agg
from . import geometry as geo
from . import tensor as T
from .geometry import FeatureMap
from .io import CheckpointError, dataclass_from_dict, load_checkpoint, save_checkpoint
from .tensor import Tensor

__all__ = [
    "ModelConfig",
    "Model",
    "ConfigError",
    "preset",
    "PRESETS",
    "build_model",
    "table_shapes",
    "forward",
    "patch_embed",
    "patch_merge",
    "stage_channels",
    "stage_groups",
    "stage_heads",
    "block_layout",
    "save_model",
    "load_model",
]

COMM_KINDS = ("Shift", "Shuffle", "MSG", "None")
FFN_RATIO = 4  # FFN hidden width over block width, as in Swin


class ConfigError(ValueError):
    """A model configuration contradicts itself."""


@dataclass(frozen=True)
class ModelConfig:
    """Architectural description of one model.

    ``width`` is the channel count of stage 1; stage s has width * 2^(s-1)
    channels. ``groups`` is the target channel-group count for the axial
    aggregators (per stage, the largest divisor of the stage width that does
    not exceed it). ``heads_divisor`` sets attention heads to roughly
    C_stage / heads_divisor, adjusted down to a divisor of C_stage.
    Construction (``from_dict`` and ``dataclasses.replace`` included)
    checks every field and raises ConfigError on a bad one.
    ``FFN_RATIO``, ``aggregators.MLP_RATIO``, MSG's one messenger per window
    and its region cap of 2 are fixed; ``from_dict`` reads old files that
    name them as fields, at those values only.
    """

    width: int
    depths: tuple[int, int, int, int]
    window: int = 7
    aggregator: str = "Linear"
    comm: str = "Shift"
    classes: int = 1000
    groups: int = 32
    heads_divisor: int = 32

    def __post_init__(self):
        object.__setattr__(self, "depths", tuple(int(d) for d in self.depths))
        if self.width < 1:
            raise ConfigError(f"width must be >= 1, got {self.width}")
        if len(self.depths) != 4 or any(d < 1 for d in self.depths):
            raise ConfigError(f"depths must be 4 counts >= 1, got {self.depths}")
        if self.window < 1:
            raise ConfigError(f"window must be >= 1, got {self.window}")
        if self.aggregator not in agg.AGGREGATOR_KINDS:
            raise ConfigError(
                f"aggregator {self.aggregator!r} not in {agg.AGGREGATOR_KINDS}")
        if self.comm not in COMM_KINDS:
            raise ConfigError(f"comm {self.comm!r} not in {COMM_KINDS}")
        if self.classes < 2:
            raise ConfigError(f"classes must be >= 2, got {self.classes}")
        if self.groups < 1 or self.heads_divisor < 1:
            raise ConfigError("groups and heads_divisor must be >= 1")

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["depths"] = list(d["depths"])
        return d

    @staticmethod
    def from_dict(d: dict) -> "ModelConfig":
        return dataclass_from_dict(ModelConfig, d, "config", ConfigError, retired={
            "layout_faithful": False, "ffn_ratio": FFN_RATIO, "mlp_ratio": agg.MLP_RATIO,
            "messenger_count": 1, "messenger_region": 2})


def _largest_divisor_leq(n: int, cap: int) -> int:
    for d in range(min(cap, n), 0, -1):
        if n % d == 0:
            return d
    return 1


def stage_channels(cfg: ModelConfig, stage: int) -> int:
    return cfg.width * (2 ** stage)


def stage_groups(cfg: ModelConfig, stage: int) -> tuple[int, int]:
    """(group count, group size gs) for a stage."""
    c = stage_channels(cfg, stage)
    g = _largest_divisor_leq(c, cfg.groups)
    return g, c // g


def stage_heads(cfg: ModelConfig, stage: int) -> int:
    c = stage_channels(cfg, stage)
    return _largest_divisor_leq(c, max(1, c // cfg.heads_divisor))


# -- presets ------------------------------------------------------------------

PRESETS: dict[str, ModelConfig] = {
    "swin-linmapper-tiny": ModelConfig(width=64, depths=(2, 4, 22, 4)),
    "shuffle-linmapper-tiny": ModelConfig(width=64, depths=(2, 4, 22, 4), comm="Shuffle"),
    "msg-linmapper-tiny": ModelConfig(width=64, depths=(2, 4, 22, 4), comm="MSG"),
    "swin-linmapper-small": ModelConfig(width=96, depths=(2, 4, 22, 4)),
    "swin-linmapper-base": ModelConfig(width=128, depths=(2, 4, 22, 4)),
    "swin-t-mhsa": ModelConfig(width=96, depths=(2, 2, 6, 2), aggregator="MHSA"),
    "swin-linmapper-tiny-baseline": ModelConfig(width=96, depths=(2, 2, 6, 2), groups=16),
    "swin-linmapper-tiny-wide": ModelConfig(width=112, depths=(2, 2, 6, 2), groups=16),
    "swin-linmapper-tiny-deep": ModelConfig(width=64, depths=(2, 4, 22, 4)),
    "toy-desk": ModelConfig(width=16, depths=(1, 1, 2, 1), window=4, classes=4),
}


def preset(name: str) -> ModelConfig:
    """Look up a named configuration; unknown names list what exists."""
    try:
        return PRESETS[name]
    except KeyError:
        raise ConfigError(
            f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}"
        ) from None


# -- construction -------------------------------------------------------------


@dataclass
class Model:
    config: ModelConfig
    params: dict[str, Tensor]
    dtype: object = np.dtype(np.float32)

    def param_count(self) -> int:
        return sum(t.size for t in self.params.values())


def _norm(c: int) -> dict[str, tuple[int, ...]]:
    return {"g": (c,), "b": (c,)}


def _size(leaves: dict[str, tuple[int, ...]]) -> int:
    return sum(map(prod, leaves.values()))


def _layer(row: str, leaves: dict[str, tuple[int, ...]], macs: int, prefix: str | None = None):
    return row, prefix or row, leaves, _size(leaves), macs


def layers(cfg: ModelConfig, resolution: tuple[int, int] = (1, 1)):
    """The one walk of the architecture: stem, four stages of blocks, the
    merges between them and the head, in parameter-table order.

    Yields ``(row, prefix, leaves, params, macs)`` per layer. ``row`` is its
    ``count_flops`` row; a block's two norms share one row, as do its
    messenger's two maps, and the cost tables sum them in first-seen order.
    The layer's table names are ``f"{prefix}.{leaf}"`` for each
    ``leaf, shape`` in ``leaves``, ``params`` is their summed size, and
    ``macs`` is what the layer multiplies at batch 1 for an image of
    ``resolution`` (height, width). A stage builds its blocks' leaf tables
    and sizes once. The grid follows the forward pass: the stem pads the
    image to a multiple of 4, blocks pad to the window for ``.agg`` and
    ``.msg`` and crop before ``.ffn``, and merges pad to even sides. ``.agg``
    reads padded positions as inputs everywhere, but a stage padded to one
    window computes its outputs only at its h x w real tokens.
    """
    ws, c = cfg.window, cfg.width
    h, w = -(-resolution[0] // 4), -(-resolution[1] // 4)
    yield _layer("stem.proj", {"w": (c, 48), "b": (c,)}, 48 * c * h * w)
    yield _layer("stem.norm", _norm(c), 0)
    for s in range(4):
        c = stage_channels(cfg, s)
        hidden, gs = FFN_RATIO * c, stage_groups(cfg, s)[1]
        comms = [block_layout(cfg, s, i, h, w)[0] for i in range(cfg.depths[s])]
        _, gh, gw, _, _ = block_layout(cfg, s, 0, h, w)
        windows = gh * gw
        rows, cols = (h, w) if windows == 1 else (ws, ws)
        norm = _norm(c)
        mixer = agg.param_shapes(cfg.aggregator, c, ws, gs, stage_heads(cfg, s))
        ffn = {"w1": (hidden, c), "b1": (hidden,), "w2": (c, hidden), "b2": (c,)}
        norm_n, mixer_n, ffn_n = _size(norm), _size(mixer), _size(ffn)
        mixer_macs = windows * agg.window_macs(cfg.aggregator, c, ws, gs, rows, cols)
        ffn_macs = 2 * hidden * c * h * w
        if "MSG" in comms:
            msg = {"w": (c, c), "b": (c,)}
            msg_n, msg_macs = _size(msg), c * c * windows
            yield _layer(f"stage{s}.msg_init", {"msg_init": (1, c)}, 0, f"stage{s}")
        for i, comm in enumerate(comms):
            block = f"stage{s}.block{i}"
            norms, mixer_row, ffn_row = block + ".norms", block + ".agg", block + ".ffn"
            yield norms, block + ".norm1", norm, norm_n, 0
            yield mixer_row, mixer_row, mixer, mixer_n, mixer_macs
            yield norms, block + ".norm2", norm, norm_n, 0
            yield ffn_row, ffn_row, ffn, ffn_n, ffn_macs
            if comm == "MSG":
                for part in ("collect", "distribute"):
                    yield block + ".msg", f"{block}.msg.{part}", msg, msg_n, msg_macs
        if s < 3:
            h, w = -(-h // 2), -(-w // 2)
            yield _layer(f"merge{s}.norm", _norm(4 * c), 0)
            yield _layer(f"merge{s}.reduce", {"w": (2 * c, 4 * c)}, 8 * c * c * h * w)
    yield _layer("head.norm", _norm(c), 0)
    yield _layer("head.linear", {"w": (cfg.classes, c), "b": (cfg.classes,)}, c * cfg.classes,
                 "head")


def table_shapes(cfg: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Ordered name -> shape of the whole parameter table, read off
    ``layers``, the walk that also gives the cost rows: checkpoints record in
    this order, ``load_model`` checks files against it and ``flops_oracle``
    runs the forward pass on its zero table.
    """
    return {f"{prefix}.{leaf}": shape for _, prefix, leaves, _, _ in layers(cfg)
            for leaf, shape in leaves.items()}


def build_model(cfg: ModelConfig, seed: int = 0, dtype=np.float32) -> Model:
    """Instantiate every parameter of the configured model by
    ``aggregators.init_param``, walking ``layers`` in table order from one
    seeded generator, so identical (config, seed) pairs give bit-identical
    tables. Each aggregator draws from its own generator seeded by the main
    one.
    """
    rng = np.random.default_rng(seed)
    params: dict[str, Tensor] = {}
    for row, prefix, leaves, _, _ in layers(cfg):
        draw = np.random.default_rng(int(rng.integers(2 ** 63))) if row.endswith(".agg") else rng
        for leaf, shape in leaves.items():
            params[f"{prefix}.{leaf}"] = agg.init_param(leaf, shape, draw, dtype)
    return Model(config=cfg, params=params, dtype=np.dtype(dtype))


def _agg_params(model: Model, prefix: str) -> dict[str, Tensor]:
    """The block's aggregator parameters, keyed by their ``param_shapes`` names."""
    return {name: model.params[f"{prefix}.agg.{name}"]
            for name in agg.param_shapes(model.config.aggregator, 1, 1)}


# -- forward pieces -----------------------------------------------------------


def _space_to_depth(x: FeatureMap, k: int) -> Tensor:
    """Zero-pad to multiples of k, then concatenate each k x k token patch
    row-major into one token: (B, H, W, C) -> (B, ceil(H/k), ceil(W/k), k*k*C)."""
    v = geo.pad_to_multiple(x, k).values
    b, h, w, c = v.shape
    v = T.transpose(T.reshape(v, (b, h // k, k, w // k, k, c)), (0, 1, 3, 2, 4, 5))
    return T.reshape(v, (b, h // k, w // k, k * k * c))


def patch_embed(model: Model, images: Tensor) -> FeatureMap:
    """Non-overlapping 4x4 patch linear embedding followed by layer norm, on
    (B, H, W, 3) images; the token grid is ceil(H/4) x ceil(W/4)."""
    v = _space_to_depth(FeatureMap(images), 4)
    v = T.linear(v, model.params["stem.proj.w"], model.params["stem.proj.b"])
    v = T.layer_norm(v, model.params["stem.norm.g"], model.params["stem.norm.b"])
    return FeatureMap(v)


def patch_merge(model: Model, x: FeatureMap, stage: int) -> FeatureMap:
    """Concatenate each 2x2 token neighborhood, norm, reduce 4C -> 2C."""
    v = _space_to_depth(x, 2)
    v = T.layer_norm(v, model.params[f"merge{stage}.norm.g"],
                     model.params[f"merge{stage}.norm.b"])
    v = T.linear(v, model.params[f"merge{stage}.reduce.w"])
    return FeatureMap(v)


def _ffn(model: Model, prefix: str, x: Tensor) -> Tensor:
    h = T.linear(x, model.params[f"{prefix}.ffn.w1"], model.params[f"{prefix}.ffn.b1"])
    return T.linear(T.gelu(h), model.params[f"{prefix}.ffn.w2"], model.params[f"{prefix}.ffn.b2"])


def _comm_in(comm: str, ws: int, fm: FeatureMap) -> FeatureMap:
    """The permutation an active block's comm applies to its padded map."""
    if comm == "Shift":
        return geo.cyclic_shift(fm, -(ws // 2), -(ws // 2))
    if comm == "Shuffle":
        return geo.spatial_shuffle(fm, ws)
    return fm


def comm_permutation(comm: str, hp: int, wp: int, ws: int) -> np.ndarray:
    """``perm`` of an active block's comm on a padded hp x wp map: perm[p] is
    the flat source position of the token moved to p."""
    return geo.trace_permutation(hp, wp, lambda fm: _comm_in(comm, ws, fm))


def block_layout(cfg: ModelConfig, stage: int, index: int, h: int, w: int):
    """The one place that lays out block ``index`` of ``stage`` on an h x w
    map: ``(comm, gh, gw, region, keep)``.

    ``comm`` is ``cfg.comm`` on odd blocks and "None" on even ones. The map
    pads to a gh x gw window grid. ``region`` is the side of an MSG block's
    messenger exchange, the largest r <= 2 that tiles the grid and whose
    area divides the stage's channels, and 1 (no exchange) elsewhere. When
    the map pads to one window that it does not fill, ``keep`` = (rows,
    cols) is where its tokens land after the comm, in crop order: a comm
    permutes each axis on its own, so rows and cols are each distinct, in
    [0, ws), as ``aggregate``'s ``keep`` needs. Otherwise ``keep`` is None.
    """
    return _layout(cfg.comm if index % 2 else "None", cfg.window, stage_channels(cfg, stage), h, w)


# keyed on what decides a layout, so the cache grows with layouts, not configs;
# tracing ``keep`` costs 17-44 us on a 2-core x86 VM, about 2% of a batch-1
# toy-desk forward at 32 px, and the cached arrays are read-only
@functools.lru_cache(maxsize=1024)
def _layout(comm: str, ws: int, c: int, h: int, w: int):
    gh, gw = -(-h // ws), -(-w // ws)
    region = 1
    if comm == "MSG":
        region = next(r for r in (2, 1) if gh % r == gw % r == c % (r * r) == 0)
    keep = None
    if gh == gw == 1 and (h, w) != (ws, ws):
        where = np.argsort(comm_permutation(comm, ws, ws, ws)).reshape(ws, ws)[:h, :w]
        keep = where[:, 0] // ws, where[0] % ws
        keep[0].flags.writeable = keep[1].flags.writeable = False
    return comm, gh, gw, region, keep


def block_forward(model: Model, x: FeatureMap, stage: int, index: int,
                  msg: Tensor | None = None) -> tuple[FeatureMap, Tensor | None]:
    """One mixing block, laid out by ``block_layout``; returns the new map and
    the messenger tokens to thread into the stage's next block. The first
    MSG block of a stage, given ``msg=None``, starts them from ``msg_init``."""
    cfg = model.config
    ws = cfg.window
    prefix = f"stage{stage}.block{index}"
    comm, gh, gw, region, keep = block_layout(cfg, stage, index, x.height, x.width)

    fm = _comm_in(comm, ws, geo.pad_to_multiple(x, ws))
    win = geo.window_partition(fm, ws)

    if comm == "MSG":
        if msg is None:
            init = T.reshape(model.params[f"stage{stage}.msg_init"], (1, 1, x.channels))
            msg = T.broadcast_to(init, (win.shape[0], 1, x.channels))
        pooled = T.tmean(win, axis=1)
        upd = T.linear(pooled, model.params[f"{prefix}.msg.collect.w"],
                       model.params[f"{prefix}.msg.collect.b"])
        msg = msg + T.reshape(upd, (upd.shape[0], 1, upd.shape[1]))
        msg = geo.messenger_exchange(msg, gh, gw, region)
        dist = T.linear(T.tmean(msg, axis=1),
                        model.params[f"{prefix}.msg.distribute.w"],
                        model.params[f"{prefix}.msg.distribute.b"])
        win = win + T.reshape(dist, (dist.shape[0], 1, dist.shape[1]))

    normed = T.layer_norm(win, model.params[f"{prefix}.norm1.g"],
                          model.params[f"{prefix}.norm1.b"])
    params = _agg_params(model, prefix)
    if keep is not None:
        # one padded window: compute only the real tokens, straight in crop order
        v = (T.index_select(win, agg.kept_positions(keep, ws), axis=1, unique=True)
             + agg.aggregate(cfg.aggregator, normed, params, keep))
        v = T.reshape(v, x.values.shape)
    else:
        win = win + agg.aggregate(cfg.aggregator, normed, params)
        fm = geo.window_reverse(win, fm.height, fm.width)
        if comm == "Shift":
            fm = geo.cyclic_shift(fm, ws // 2, ws // 2)
        elif comm == "Shuffle":
            fm = geo.spatial_unshuffle(fm, ws)
        v = T.crop_hw(fm.values, x.height, x.width)
    normed = T.layer_norm(v, model.params[f"{prefix}.norm2.g"],
                          model.params[f"{prefix}.norm2.b"])
    return FeatureMap(v + _ffn(model, prefix, normed)), msg


def forward(model: Model, images: Tensor) -> Tensor:
    """Full model: stem, 4 stages with merges, norm, pooled linear head."""
    fm = patch_embed(model, images)
    cfg = model.config
    for s in range(4):
        msg = None
        for i in range(cfg.depths[s]):
            fm, msg = block_forward(model, fm, s, i, msg)
        if s < 3:
            fm = patch_merge(model, fm, s)
    v = T.layer_norm(fm.values, model.params["head.norm.g"], model.params["head.norm.b"])
    pooled = T.tmean(v, axis=(1, 2))
    return T.linear(pooled, model.params["head.w"], model.params["head.b"])


# -- persistence --------------------------------------------------------------

# record-name prefixes of a training file's AdamW moments m and v
_MOMENT_PREFIXES = ("opt.m.", "opt.v.")


def save_model(path, model: Model) -> None:
    """Write a WMIX file holding the config and the parameter table."""
    blob = {"schema_version": 1, "model": model.config.to_dict()}
    save_checkpoint(path, blob, {k: v.data for k, v in model.params.items()})


def load_model(path) -> Model:
    """Read the model of any WMIX file, a ``save_model`` or a training one.

    The config's ``table_shapes`` decide the records the file must hold:
    its parameters and, in a training file (one whose blob has ``train``),
    both optimizer moment sets, ``opt.m.*`` and ``opt.v.*``. A missing, unknown
    or reshaped record, such as in a file cut on a record boundary, raises
    CheckpointError naming the file and the record. Moments are checked but
    not returned; other ``opt.*`` records and JSON keys are ignored.
    """
    return _model_from_checkpoint(path, *load_checkpoint(path))


def _model_from_checkpoint(path, blob: dict, tensors: dict[str, np.ndarray]) -> Model:
    if "model" not in blob:
        raise CheckpointError(f"{path}: no model config in checkpoint")
    try:
        cfg = ModelConfig.from_dict(blob["model"])
    except ConfigError as exc:
        raise CheckpointError(f"{path}: {exc}") from None
    shapes = table_shapes(cfg)
    moments = _MOMENT_PREFIXES if "train" in blob else ()
    expected = {p + k: s for p in ("", *moments) for k, s in shapes.items()}
    got = {k: v.shape for k, v in tensors.items()
           if not k.startswith("opt.") or k.startswith(moments)}
    for name in [*expected, *got]:
        if got.get(name) != expected.get(name):
            raise CheckpointError(f"{path}: record {name!r}: the file has "
                                  f"{got.get(name, 'none')}, the config needs "
                                  f"{expected.get(name, 'none')}")
    params = {k: Tensor(v, requires_grad=True) for k, v in tensors.items() if k in shapes}
    return Model(config=cfg, params=params, dtype=next(iter(params.values())).data.dtype)
