"""Span recording for the traced run, from outside the library.

The tracer replaces public functions of the winmix modules with wrappers
that record one span (name, start, end, parent) per call. A function that
another module imported by name (``from .model import forward``) is the same
object in both namespaces, so every module attribute bound to it is patched.
Spans stay in memory and are written out once, after the run.

A span's self time is its duration minus the durations of its direct
children; calls are strictly nested because the run is single-threaded.
"""

from __future__ import annotations

import contextlib
import json
import os
import sys
import time

AGGREGATORS = ("Linear", "DWLinear", "MLP", "MHSA")
CONNECTIVITY_SCHEMES = ("Shift", "Shuffle", "MSG", "None", "MHSA")


def connectivity_scheme(cfg) -> str:
    """Label of a connectivity run: the comm scheme, or MHSA for attention."""
    return "MHSA" if cfg.aggregator == "MHSA" else cfg.comm


# (module, function, span name or namer(args, kwargs)).
# Functions a layer calls through another layer's module attribute are
# reached here too: model code calls ``T.linear`` and ``geo.cyclic_shift``.
WRAPPED = [
    ("winmix.tensor", "matmul", "tensor.matmul"),
    ("winmix.tensor", "linear", "tensor.linear"),
    ("winmix.tensor", "gelu", "tensor.gelu"),
    ("winmix.tensor", "layer_norm", "tensor.layer_norm"),
    ("winmix.tensor", "softmax_last_axis", "tensor.softmax"),
    ("winmix.tensor", "backward", "tensor.backward"),
    ("winmix.geometry", "pad_to_multiple", "geometry.pad"),
    ("winmix.geometry", "window_partition", "geometry.partition"),
    ("winmix.geometry", "window_reverse", "geometry.partition"),
    ("winmix.geometry", "cyclic_shift", "geometry.shift"),
    ("winmix.geometry", "spatial_shuffle", "geometry.shuffle"),
    ("winmix.geometry", "spatial_unshuffle", "geometry.shuffle"),
    ("winmix.geometry", "messenger_exchange", "geometry.messenger"),
    ("winmix.aggregators", "aggregate", lambda a, k: f"aggregators.{a[0]}"),
    ("winmix.model", "build_model", "model.build"),
    ("winmix.model", "forward", "model.forward"),
    ("winmix.model", "patch_embed", "model.stem"),
    ("winmix.model", "block_forward",
     lambda a, k: f"model.stage{k['stage'] if 'stage' in k else a[2]}"),
    ("winmix.model", "patch_merge", "model.merge"),
    ("winmix.train", "train", "train.train"),
    ("winmix.train", "evaluate", "train.eval"),
    ("winmix.train", "save_state", "train.save_state"),
    ("winmix.train", "load_state", "train.load_state"),
    ("winmix.io", "save_checkpoint", "io.save"),
    ("winmix.io", "load_checkpoint", "io.load"),
    ("winmix.data", "gen_dataset", "data.gen"),
    ("winmix.analytics", "count_params", "analytics.count"),
    ("winmix.analytics", "count_flops", "analytics.count"),
    ("winmix.analytics", "connectivity",
     lambda a, k: f"analytics.connectivity.{connectivity_scheme(a[0])}"),
    ("winmix.analytics", "flops_oracle", "analytics.flops_oracle"),
]


class Tracer:
    """Records spans of the patched functions while installed."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[list] = []  # [name id, start, end, parent index]
        self._stack: list[int] = []
        self._patched: list[tuple] = []
        self.tag = None  # set by the workload, e.g. the aggregator being trained
        self.graph_nodes: dict[str, int] = {}
        self.checkpoint_bytes: list[int] = []
        self.macs = 0
        self.agg_macs = dict.fromkeys(AGGREGATORS, 0)
        self._flops_rows: dict = {}

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself (one op of a workload)."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([self._name_id(name), time.perf_counter(), 0.0, parent])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name, after):
        namer = name if callable(name) else (lambda a, k: name)

        def wrapper(*args, **kwargs):
            idx = self._open(namer(args, kwargs))
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, wm) -> None:
        self._count_flops = wm.analytics.count_flops
        self._topo_order = wm.tensor.topo_order
        after = {
            "model.forward": self._after_forward,
            "tensor.backward": self._after_backward,
            "io.save": self._after_save,
        }
        modules = [m for n, m in sys.modules.items()
                   if n == "winmix" or n.startswith("winmix.")]
        for modname, attr, name in WRAPPED:
            orig = getattr(sys.modules[modname], attr)
            wrapper = self._wrap(orig, name, after.get(name) if isinstance(name, str) else None)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapper)
                        self._patched.append((mod, key, orig))

    def uninstall(self) -> None:
        for mod, key, orig in reversed(self._patched):
            setattr(mod, key, orig)
        self._patched.clear()

    # -- counts taken at the layer boundaries (outside the span) -------------

    def _flops(self, cfg, h: int, w: int) -> tuple[int, int]:
        """(all matmul MACs, aggregator MACs) of one image, from count_flops."""
        key = (cfg, h, w)
        if key not in self._flops_rows:
            rows = self._count_flops(cfg, (h, w)).rows
            self._flops_rows[key] = (sum(r.flops for r in rows),
                                     sum(r.flops for r in rows if r.path.endswith(".agg")))
        return self._flops_rows[key]

    def _after_forward(self, args, kwargs, result) -> None:
        model, images = args[0], args[1] if len(args) > 1 else kwargs["images"]
        b, h, w = images.shape[:3]
        total, agg = self._flops(model.config, h, w)
        self.macs += b * total
        self.agg_macs[model.config.aggregator] += b * agg

    def _after_backward(self, args, kwargs, result) -> None:
        if self.tag is not None and self.tag not in self.graph_nodes:
            self.graph_nodes[self.tag] = len(self._topo_order(args[0]))

    def _after_save(self, args, kwargs, result) -> None:
        self.checkpoint_bytes.append(os.path.getsize(args[0]))

    # -- analysis ------------------------------------------------------------

    def summary(self, skip_root: str | None = None) -> dict[str, dict]:
        """Per span name: calls, inclusive seconds, self seconds; spans under
        a top-level span named ``skip_root`` are left out."""
        dur = [s[2] - s[1] for s in self.spans]
        child = [0.0] * len(self.spans)
        root = list(range(len(self.spans)))
        for i, s in enumerate(self.spans):
            if s[3] >= 0:
                child[s[3]] += dur[i]
                root[i] = root[s[3]]  # parents precede their children
        skip = self._name_ids.get(skip_root)
        out: dict[str, dict] = {}
        for i, s in enumerate(self.spans):
            if self.spans[root[i]][0] == skip:
                continue
            row = out.setdefault(self.names[s[0]], {"calls": 0, "incl": 0.0, "self": 0.0})
            row["calls"] += 1
            row["incl"] += dur[i]
            row["self"] += dur[i] - child[i]
        return out

    def under(self, prefix: str, parent: str) -> tuple[int, float]:
        """(calls, inclusive seconds) of spans whose name starts with
        ``prefix`` and whose direct parent is named ``parent``."""
        pid = self._name_ids.get(parent)
        durs = [s[2] - s[1] for s in self.spans
                if s[3] >= 0 and self.spans[s[3]][0] == pid
                and self.names[s[0]].startswith(prefix)]
        return len(durs), sum(durs)

    def write(self, path, meta: dict) -> None:
        with open(path, "w") as f:
            json.dump({**meta, "names": self.names, "spans": self.spans}, f)


def layer_metrics(tr: Tracer, n_ops: int, wall_s: float, workload: str,
                  scale: float) -> dict[str, float]:
    """Per-layer metrics of a traced phase.

    Hot-path times are milliseconds per op of the workload (training step,
    request or analytics pass): self time for tensor, geometry and aggregator
    spans, inclusive time for model parts. Build, data, io and analytics
    times are milliseconds per call. ``scale`` converts wall-clock time to
    the reference speed; ``wall_s`` is the wall-clock time of the ops.
    """
    s = tr.summary(skip_root="bench.setup")
    s_all = tr.summary()

    def get(name, key="incl"):
        return s.get(name, {}).get(key, 0.0)

    def per_op(seconds):
        return 1000.0 * scale * seconds / n_ops

    def per_call(name):
        row = s_all.get(name)
        return 1000.0 * scale * row["incl"] / row["calls"] if row else 0.0

    m: dict[str, float] = {"tensor.backward_ms": per_op(get("tensor.backward"))}
    for op in ("matmul", "linear", "gelu", "layer_norm", "softmax"):
        m[f"tensor.{op}_ms"] = per_op(get(f"tensor.{op}", "self"))
    mm = get("tensor.matmul", "self")
    m["tensor.matmul_gmacs_per_s"] = tr.macs / mm / 1e9 if mm else 0.0
    for agg in AGGREGATORS:
        m[f"tensor.graph_nodes.{agg}"] = float(tr.graph_nodes.get(agg, 0))

    for part in ("pad", "partition", "shift", "messenger"):
        m[f"geometry.{part}_ms"] = per_op(get(f"geometry.{part}", "self"))

    for agg in AGGREGATORS:
        name = f"aggregators.{agg}"
        m[f"{name}.ms"] = per_op(get(name, "self"))
        m[f"{name}.gmacs_per_s"] = tr.agg_macs[agg] / get(name) / 1e9 if get(name) else 0.0

    stages = sum(get(f"model.stage{i}") for i in range(4))
    head = tr.under("tensor.", "model.forward")[1]
    m["model.stem_ms"] = per_op(get("model.stem"))
    for i in range(4):
        m[f"model.stage{i}_ms"] = per_op(get(f"model.stage{i}"))
    m["model.merge_ms"] = per_op(get("model.merge"))
    m["model.head_ms"] = per_op(head)
    m["model.build_ms"] = per_call("model.build")

    fwd = tr.under("model.forward", "train.train")[1]
    bwd = get("tensor.backward")
    evl = get("train.eval")
    ckpt = get("train.save_state") + get("train.load_state")
    opt = (get("train.train") - fwd - bwd - tr.under("train.eval", "train.train")[1]
           - tr.under("train.save_state", "train.train")[1]
           - tr.under("model.build", "train.train")[1]
           - tr.under("bench.calibrate", "train.train")[1])
    m["train.forward_ms"] = per_op(fwd)
    m["train.optimizer_ms"] = per_op(opt)
    m["train.eval_ms"] = per_op(evl)
    m["train.checkpoint_ms"] = per_op(ckpt)

    m["io.save_ms"] = per_call("io.save")
    m["io.load_ms"] = per_call("io.load")
    m["io.checkpoint_bytes"] = (sum(tr.checkpoint_bytes) / len(tr.checkpoint_bytes)
                                if tr.checkpoint_bytes else 0.0)
    m["data.gen_ms"] = per_call("data.gen")

    # count_params also runs inside flops_oracle; count only the suite's calls
    calls, seconds = tr.under("analytics.count", "bench.pass")
    m["analytics.count_ms"] = 1000.0 * scale * seconds / calls if calls else 0.0
    for scheme in CONNECTIVITY_SCHEMES:
        m[f"analytics.connectivity_ms.{scheme}"] = per_call(f"analytics.connectivity.{scheme}")
    m["analytics.flops_oracle_ms"] = per_call("analytics.flops_oracle")

    # Share of the op wall time that the blocking-path spans account for.
    if workload == "desk-train":
        covered = fwd + bwd + opt + evl + ckpt
    elif workload == "paper-infer":
        covered = get("model.stem") + stages + get("model.merge") + head
    else:
        covered = tr.under("analytics.", "bench.pass")[1]
    m["trace.accounted_pct"] = 100.0 * covered / wall_s
    return m


def format_table(tr: Tracer, n_ops: int, wall_s: float, scale: float) -> str:
    """Self-time table of the timed ops, in ref-ms per op: one row per span
    name, then one row per layer."""
    s = tr.summary(skip_root="bench.setup")
    ms = 1000.0 * scale / n_ops
    width = max([len(n) for n in s] + [12])
    lines = [f"{'span':<{width}} {'calls':>8} {'incl/op':>10} {'self/op':>10} {'self %':>7}"]
    layers: dict[str, float] = {}
    for name, row in sorted(s.items(), key=lambda kv: -kv[1]["self"]):
        layers[name.split(".")[0]] = layers.get(name.split(".")[0], 0.0) + row["self"]
        lines.append(f"{name:<{width}} {row['calls']:>8} {ms * row['incl']:>10.3f} "
                     f"{ms * row['self']:>10.3f} {100 * row['self'] / wall_s:>7.2f}")
    lines.append("")
    lines.append(f"{'layer':<{width}} {'self/op':>10} {'self %':>7}")
    for layer, sec in sorted(layers.items(), key=lambda kv: -kv[1]):
        lines.append(f"{layer:<{width}} {ms * sec:>10.3f} {100 * sec / wall_s:>7.2f}")
    return "\n".join(lines)


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name == "trace.host_slowdown":
        return "ratio"
    if name.endswith("_ms") or ".ms" in name or "_ms." in name:
        return "ref-ms"
    if name.endswith("gmacs_per_s") or name.endswith("peak_gmacs"):
        return "GMAC/s"
    if name.endswith("_gbs"):
        return "GB/s"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"
