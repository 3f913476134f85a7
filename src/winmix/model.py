"""Full-model assembly: stem, four stages of mixing blocks, patch merging,
classifier head, and the named presets.

A model is a declarative ``ModelConfig`` plus a flat named-parameter table;
``forward`` is a pure function of (table, images). Each block runs

    pad -> [comm-in] -> partition -> norm -> aggregator -> +residual
        -> reverse -> [comm-out] -> crop -> norm -> per-token FFN -> +residual

where the cross-window communication (cyclic shift, spatial shuffle, or
messenger exchange) runs on odd-indexed blocks of each stage only. The second
norm and the FFN act per token, so they run on the cropped map, not on padding.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

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
    "comm_active",
    "save_model",
    "load_model",
]

COMM_KINDS = ("Shift", "Shuffle", "MSG", "None")


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
    """

    width: int
    depths: tuple[int, int, int, int]
    window: int = 7
    aggregator: str = "Linear"
    comm: str = "Shift"
    ffn_ratio: int = 4
    classes: int = 1000
    groups: int = 32
    heads_divisor: int = 32
    mlp_ratio: int = 4
    messenger_count: int = 1
    messenger_region: int = 2
    layout_faithful: bool = False

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
        if self.ffn_ratio < 1 or self.mlp_ratio < 1:
            raise ConfigError("ffn_ratio and mlp_ratio must be >= 1")
        if self.classes < 2:
            raise ConfigError(f"classes must be >= 2, got {self.classes}")
        if self.groups < 1 or self.heads_divisor < 1:
            raise ConfigError("groups and heads_divisor must be >= 1")
        if self.messenger_count < 1 or self.messenger_region < 1:
            raise ConfigError("messenger fields must be >= 1")

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["depths"] = list(d["depths"])
        return d

    @staticmethod
    def from_dict(d: dict) -> "ModelConfig":
        return dataclass_from_dict(ModelConfig, d, "config", ConfigError)


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


def comm_active(cfg: ModelConfig, block_index: int) -> bool:
    """Cross-window communication runs on odd-indexed blocks of a stage."""
    return cfg.comm != "None" and block_index % 2 == 1


def stage_has_comm(cfg: ModelConfig, stage: int) -> bool:
    return any(comm_active(cfg, i) for i in range(cfg.depths[stage]))


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

    def replace_params(self, params: dict[str, Tensor]) -> "Model":
        return Model(config=self.config, params=params, dtype=self.dtype)


def table_shapes(cfg: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Ordered name -> shape of the whole parameter table.

    The one walk of the parameter names: ``build_model`` draws in this
    order, checkpoints record in it, ``load_model`` checks files against it
    and ``flops_oracle`` runs the forward pass on its zero table.
    """
    def norm(prefix, c):
        return {f"{prefix}.g": (c,), f"{prefix}.b": (c,)}

    c0 = cfg.width
    shapes = {"stem.proj.w": (c0, 48), "stem.proj.b": (c0,), **norm("stem.norm", c0)}
    for s in range(4):
        c, hidden = stage_channels(cfg, s), cfg.ffn_ratio * stage_channels(cfg, s)
        agg_shapes = agg.param_shapes(cfg.aggregator, c, cfg.window, stage_groups(cfg, s)[1],
                                      stage_heads(cfg, s), cfg.mlp_ratio)
        if cfg.comm == "MSG" and stage_has_comm(cfg, s):
            shapes[f"stage{s}.msg_init"] = (cfg.messenger_count, c)
        for i in range(cfg.depths[s]):
            prefix = f"stage{s}.block{i}"
            shapes |= norm(f"{prefix}.norm1", c)
            shapes |= {f"{prefix}.agg.{name}": shape for name, shape in agg_shapes.items()}
            shapes |= norm(f"{prefix}.norm2", c)
            shapes |= {f"{prefix}.ffn.w1": (hidden, c), f"{prefix}.ffn.b1": (hidden,),
                       f"{prefix}.ffn.w2": (c, hidden), f"{prefix}.ffn.b2": (c,)}
            if cfg.comm == "MSG" and comm_active(cfg, i):
                for part in ("collect", "distribute"):
                    shapes |= {f"{prefix}.msg.{part}.w": (c, c),
                               f"{prefix}.msg.{part}.b": (c,)}
        if s < 3:
            shapes |= norm(f"merge{s}.norm", 4 * c)
            shapes[f"merge{s}.reduce.w"] = (2 * c, 4 * c)
    c3 = stage_channels(cfg, 3)
    return shapes | norm("head.norm", c3) | {"head.w": (cfg.classes, c3),
                                             "head.b": (cfg.classes,)}


def build_model(cfg: ModelConfig, seed: int = 0, dtype=np.float32) -> Model:
    """Instantiate every parameter of the configured model by
    ``aggregators.init_param``, in ``table_shapes`` order from one seeded
    generator, so identical (config, seed) pairs give bit-identical tables.
    Each aggregator draws from its own generator seeded by the main one.
    """
    rng = np.random.default_rng(seed)
    params: dict[str, Tensor] = {}
    agg_prefix = None
    for name, shape in table_shapes(cfg).items():
        prefix, _, leaf = name.rpartition(".")
        if prefix.endswith(".agg") and prefix != agg_prefix:
            agg_prefix, agg_rng = prefix, np.random.default_rng(int(rng.integers(2 ** 63)))
        params[name] = agg.init_param(leaf, shape, agg_rng if prefix == agg_prefix else rng,
                                      dtype)
    return Model(config=cfg, params=params, dtype=np.dtype(dtype))


def _agg_params(model: Model, prefix: str) -> dict[str, Tensor]:
    """The block's aggregator parameters, keyed by their ``param_shapes`` names."""
    return {name: model.params[f"{prefix}.agg.{name}"]
            for name in agg.param_shapes(model.config.aggregator, 1, 1)}


# -- forward pieces -----------------------------------------------------------


def patch_embed(model: Model, images: Tensor) -> FeatureMap:
    """Non-overlapping 4x4 patch linear embedding followed by layer norm.

    Images are (B, H, W, 3); H and W are zero-padded up to multiples of 4.
    The token grid comes out as ceil(H/4) x ceil(W/4).
    """
    v = geo.pad_to_multiple(FeatureMap(images), 4).values
    b, h, w, c = v.shape
    gh, gw = h // 4, w // 4
    v = T.reshape(v, (b, gh, 4, gw, 4, c))
    v = T.transpose(v, (0, 1, 3, 2, 4, 5))
    v = T.reshape(v, (b, gh, gw, 16 * c))
    v = T.linear(v, model.params["stem.proj.w"], model.params["stem.proj.b"])
    v = T.layer_norm(v, model.params["stem.norm.g"], model.params["stem.norm.b"])
    return FeatureMap(v)


def patch_merge(model: Model, x: FeatureMap, stage: int) -> FeatureMap:
    """Concatenate each 2x2 token neighborhood, norm, reduce 4C -> 2C."""
    v = geo.pad_to_multiple(x, 2).values
    b, h, w, c = v.shape
    v = T.reshape(v, (b, h // 2, 2, w // 2, 2, c))
    v = T.transpose(v, (0, 1, 3, 2, 4, 5))
    v = T.reshape(v, (b, h // 2, w // 2, 4 * c))
    v = T.layer_norm(v, model.params[f"merge{stage}.norm.g"],
                     model.params[f"merge{stage}.norm.b"])
    v = T.linear(v, model.params[f"merge{stage}.reduce.w"])
    return FeatureMap(v)


def choose_messenger_region(gh: int, gw: int, c: int, target: int) -> int:
    """Largest region side <= target that tiles the window grid and whose
    area divides the channel count (1 disables the exchange)."""
    for r in range(min(target, gh, gw), 0, -1):
        if gh % r == 0 and gw % r == 0 and c % (r * r) == 0:
            return r
    return 1


def _init_messengers(model: Model, stage: int, x: FeatureMap) -> Tensor | None:
    """The stage's (windows, m, C) messenger tokens, or None without MSG."""
    cfg = model.config
    if cfg.comm != "MSG" or not stage_has_comm(cfg, stage):
        return None
    windows = x.batch * -(-x.height // cfg.window) * -(-x.width // cfg.window)
    m, c = cfg.messenger_count, x.channels
    init = model.params[f"stage{stage}.msg_init"]
    return T.broadcast_to(T.reshape(init, (1, m, c)), (windows, m, c))


def _ffn(model: Model, prefix: str, x: Tensor) -> Tensor:
    h = T.linear(x, model.params[f"{prefix}.ffn.w1"], model.params[f"{prefix}.ffn.b1"])
    return T.linear(T.gelu(h), model.params[f"{prefix}.ffn.w2"], model.params[f"{prefix}.ffn.b2"])


def block_forward(model: Model, x: FeatureMap, stage: int, index: int,
                  msg: Tensor | None = None) -> tuple[FeatureMap, Tensor | None]:
    """One mixing block; returns the new map and the threaded messenger tokens."""
    cfg = model.config
    ws = cfg.window
    prefix = f"stage{stage}.block{index}"
    active = comm_active(cfg, index)
    shift = ws // 2

    fm = geo.pad_to_multiple(x, ws)
    if active and cfg.comm == "Shift":
        fm = geo.cyclic_shift(fm, -shift, -shift)
    elif active and cfg.comm == "Shuffle":
        fm = geo.spatial_shuffle(fm, ws)

    win = geo.window_partition(fm, ws)

    if active and cfg.comm == "MSG" and msg is not None:
        pooled = T.tmean(win, axis=1)
        upd = T.linear(pooled, model.params[f"{prefix}.msg.collect.w"],
                       model.params[f"{prefix}.msg.collect.b"])
        gh, gw = fm.height // ws, fm.width // ws
        region = choose_messenger_region(gh, gw, x.channels, cfg.messenger_region)
        msg = msg + T.reshape(upd, (upd.shape[0], 1, upd.shape[1]))
        msg = geo.messenger_exchange(msg, gh, gw, region)
        dist = T.linear(T.tmean(msg, axis=1),
                        model.params[f"{prefix}.msg.distribute.w"],
                        model.params[f"{prefix}.msg.distribute.b"])
        win = win + T.reshape(dist, (dist.shape[0], 1, dist.shape[1]))

    normed = T.layer_norm(win, model.params[f"{prefix}.norm1.g"],
                          model.params[f"{prefix}.norm1.b"])
    win = win + agg.aggregate(cfg.aggregator, normed, _agg_params(model, prefix),
                              cfg.layout_faithful)

    fm = geo.window_reverse(win, fm.height, fm.width)
    if active and cfg.comm == "Shift":
        fm = geo.cyclic_shift(fm, shift, shift)
    elif active and cfg.comm == "Shuffle":
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
        msg = _init_messengers(model, s, fm)
        for i in range(cfg.depths[s]):
            fm, msg = block_forward(model, fm, s, i, msg)
        if s < 3:
            fm = patch_merge(model, fm, s)
    v = T.layer_norm(fm.values, model.params["head.norm.g"], model.params["head.norm.b"])
    pooled = T.tmean(v, axis=(1, 2))
    return T.linear(pooled, model.params["head.w"], model.params["head.b"])


# -- persistence --------------------------------------------------------------


def save_model(path, model: Model) -> None:
    """Write a WMIX file holding the config and the parameter table."""
    blob = {"schema_version": 1, "model": model.config.to_dict()}
    save_checkpoint(path, blob, {k: v.data for k, v in model.params.items()})


def load_model(path) -> Model:
    """Read the model of any WMIX file, a ``save_model`` or a training one.

    Training checkpoints also hold optimizer moments (``opt.*`` records);
    they are skipped. Other JSON keys (``train``, ``extra``) are ignored.
    A parameter record that is missing, unknown or of the wrong shape for
    ``table_shapes`` of the config, such as in a file cut on a record
    boundary, raises CheckpointError naming the file and the record.
    """
    return _model_from_checkpoint(path, *load_checkpoint(path))


def _model_from_checkpoint(path, blob: dict, tensors: dict[str, np.ndarray]) -> Model:
    if "model" not in blob:
        raise CheckpointError(f"{path}: no model config in checkpoint")
    try:
        cfg = ModelConfig.from_dict(blob["model"])
    except ConfigError as exc:
        raise CheckpointError(f"{path}: {exc}") from None
    params = {k: Tensor(v, requires_grad=True) for k, v in tensors.items()
              if not k.startswith("opt.")}
    expected, got = table_shapes(cfg), {k: v.shape for k, v in params.items()}
    for name in [*expected, *got]:
        if got.get(name) != expected.get(name):
            raise CheckpointError(f"{path}: record {name!r}: the file has "
                                  f"{got.get(name, 'none')}, the config needs "
                                  f"{expected.get(name, 'none')}")
    return Model(config=cfg, params=params, dtype=next(iter(params.values())).data.dtype)
