"""Training loop: decoupled-weight-decay Adam, warmup + cosine schedule,
label-smoothed cross-entropy, deterministic batching, and bit-exact
checkpoint/resume.

The loop is a pure function of (config, data, hyperparams, seed): batches are
drawn from a dedicated PCG64 stream whose state is checkpointed, and metric
history is recorded as plain floats, so identical seeds reproduce identical
histories.

AdamW updates the table in place between steps. Once per ``train`` call the
parameters and both moments move onto one flat buffer per dtype, and the
table and the moment dicts hold views into it that persist across steps, so
a ``Model`` held across a ``train`` call sees the new values.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .data import SyntheticDataset
from .io import CheckpointError, _fits, dataclass_from_dict, load_checkpoint, save_checkpoint
from .model import (_MOMENT_PREFIXES, Model, ModelConfig, _model_from_checkpoint, build_model,
                    forward)
from .tensor import NumericError, Tensor

__all__ = [
    "Hyperparams",
    "TrainState",
    "DivergenceError",
    "train",
    "evaluate",
    "save_state",
    "load_state",
    "lr_at",
]


class DivergenceError(RuntimeError):
    """Training hit a non-finite loss; carries the last-good checkpoint path."""

    def __init__(self, step: int, checkpoint: str | None):
        self.step = step
        self.checkpoint = checkpoint
        where = f", last-good checkpoint at {checkpoint}" if checkpoint else ""
        super().__init__(f"non-finite loss at step {step}{where}")


# Swin's training recipe, which LinMapper keeps: AdamW's moment decays and
# epsilon, and the label smoothing. Old files may name them, at these values.
BETA1, BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
LABEL_SMOOTHING = 0.1


@dataclass(frozen=True)
class Hyperparams:
    lr: float = 1e-3
    weight_decay: float = 0.05
    warmup_frac: float = 0.05
    steps: int = 2000
    batch_size: int = 32
    eval_every: int = 100
    target_accuracy: float | None = None  # early-stop threshold on val accuracy

    def __post_init__(self):
        for name, ok, rule in (
                ("lr", 0 <= self.lr < np.inf, "be finite and >= 0"),
                ("weight_decay", 0 <= self.weight_decay < np.inf, "be finite and >= 0"),
                ("warmup_frac", 0 <= self.warmup_frac <= 1, "lie in [0, 1]"),
                ("steps", self.steps >= 1, "be >= 1"),
                ("batch_size", self.batch_size >= 1, "be >= 1"),
                ("eval_every", self.eval_every >= 1, "be >= 1"),
                ("target_accuracy", self.target_accuracy is None
                 or 0 <= self.target_accuracy <= 1, "be finite and lie in [0, 1]")):
            if not ok:
                raise ValueError(f"{name} must {rule}, got {getattr(self, name)}")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @staticmethod
    def from_dict(d: dict) -> "Hyperparams":
        return dataclass_from_dict(Hyperparams, d, "hyperparameter", retired={
            "beta1": BETA1, "beta2": BETA2, "eps": ADAM_EPS, "label_smoothing": LABEL_SMOOTHING})


@dataclass
class TrainState:
    model: Model
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int
    seed: int
    hp: Hyperparams
    rng_state: dict
    step_losses: list[float] = field(default_factory=list)
    evals: list[dict] = field(default_factory=list)

    @property
    def final_val_accuracy(self) -> float | None:
        return self.evals[-1]["val_acc"] if self.evals else None


def lr_at(hp: Hyperparams, step: int) -> float:
    """Learning rate for 1-based step: linear warmup then cosine to zero."""
    warmup = int(round(hp.warmup_frac * hp.steps))
    if warmup > 0 and step <= warmup:
        return hp.lr * step / warmup
    span = max(1, hp.steps - warmup)
    t = (step - warmup) / span
    return hp.lr * 0.5 * (1.0 + float(np.cos(np.pi * min(t, 1.0))))


def _decays(name: str, t: Tensor) -> bool:
    return t.ndim >= 2 and not name.endswith("rel_bias")


def smoothed_cross_entropy(logits: Tensor, labels: np.ndarray, smoothing: float) -> Tensor:
    """Mean of -sum(q * log p) with q the smoothed one-hot targets."""
    k = logits.shape[-1]
    q = np.full((labels.size, k), smoothing / k, dtype=logits.data.dtype)
    q[np.arange(labels.size), labels] += 1.0 - smoothing
    logp = T.log_softmax_last_axis(logits)
    return T.tmean(T.tsum(Tensor(q) * logp, axis=1)) * -1.0


def _pack(state: TrainState) -> tuple[list[tuple], dict[str, np.ndarray]]:
    """Move the parameter table and both moments onto flat buffers, one set
    per dtype, and return the sets and the per-name gradient views.

    Each dtype gets one (6, n) array: parameters, gradients, m, v and two
    scratch rows. ``state.model.params``, ``state.m`` and ``state.v`` then
    hold views into it, in their own order, so ``_adamw_step`` updates the
    table in place. Decaying tensors come first in the buffer, so weight
    decay covers one prefix of it.
    """
    params = state.model.params
    by_dtype: dict[np.dtype, list[str]] = {}
    for name in sorted(params, key=lambda k: not _decays(k, params[k])):  # stable
        by_dtype.setdefault(params[name].data.dtype, []).append(name)
    sets, grads = [], {}
    for dtype, names in by_dtype.items():
        flat = np.zeros((6, sum(params[k].size for k in names)), dtype)
        off = decay = 0
        for k in names:
            shape, end = params[k].shape, off + params[k].size
            p, grads[k], m, v = (row[off:end].reshape(shape) for row in flat[:4])
            p[...], m[...], v[...] = params[k].data, state.m[k], state.v[k]
            params[k], state.m[k], state.v[k] = Tensor(p, requires_grad=True), m, v
            if _decays(k, params[k]):
                decay = end
            off = end
        sets.append((*flat, decay))
    return sets, grads


def _adamw_step(state: TrainState, sets: list[tuple], lr: float) -> None:
    """One AdamW update over the flat buffers of ``_pack``, in place.

    Per element, in this order of operations: m = BETA1 * m + (1 - BETA1) * g,
    v = BETA2 * v + (1 - BETA2) * g * g, update = (m / c1) / (sqrt(v / c2) +
    ADAM_EPS) plus weight_decay * p where p decays, then p - lr * update.
    Each in-place ufunc rounds as the expression's own step does, so the
    bits match a per-tensor evaluation of the same formula.
    """
    t = state.step
    c1 = 1.0 - BETA1 ** t
    c2 = 1.0 - BETA2 ** t
    for p, g, m, v, tmp, update, decay in sets:
        m *= BETA1
        np.multiply(g, 1 - BETA1, out=tmp)
        m += tmp
        v *= BETA2
        np.multiply(g, 1 - BETA2, out=tmp)
        tmp *= g
        v += tmp
        np.divide(v, c2, out=tmp)
        np.sqrt(tmp, out=tmp)
        tmp += ADAM_EPS
        np.divide(m, c1, out=update)
        update /= tmp
        np.multiply(p[:decay], state.hp.weight_decay, out=tmp[:decay])
        update[:decay] += tmp[:decay]
        update *= lr
        p -= update


def _check_split(images: np.ndarray, labels: np.ndarray, classes: int, split: str) -> None:
    """Raise ValueError naming a split whose image and label counts differ,
    an empty split, or its first label outside [0, classes)."""
    if len(images) != len(labels):
        raise ValueError(f"{split} split has {len(images)} images but {len(labels)} labels")
    if labels.size == 0:
        raise ValueError(f"{split} split is empty")
    bad = labels[(labels < 0) | (labels >= classes)]
    if bad.size:
        raise ValueError(f"{split} label {int(bad[0])} out of range for {classes} classes")


def evaluate(model: Model, images: np.ndarray, labels: np.ndarray,
             batch_size: int = 64) -> tuple[float, float]:
    """Top-1 accuracy and mean cross-entropy over a dataset split.

    Raises ValueError when it is empty, the image and label counts differ,
    a label lies outside [0, classes), or ``batch_size`` is below 1.
    """
    labels = np.asarray(labels)
    _check_split(images, labels, model.config.classes, "evaluated")
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    n = images.shape[0]
    correct = 0
    losses = np.empty(n, dtype=np.float64)
    with T.no_grad():
        for start in range(0, n, batch_size):
            xb = Tensor(images[start:start + batch_size])
            yb = labels[start:start + batch_size]
            logits = forward(model, xb)
            logp = T.log_softmax_last_axis(logits).data
            correct += int((logp.argmax(axis=1) == yb).sum())
            losses[start:start + batch_size] = -logp[np.arange(yb.size), yb]
    return correct / n, float(losses.mean())


def train(cfg: ModelConfig, data: SyntheticDataset, hp: Hyperparams,
          seed: int = 0, state: TrainState | None = None,
          out_dir=None, checkpoint_every: int | None = None,
          until: int | None = None) -> TrainState:
    """Run (or resume) the training loop up to hp.steps.

    Pass ``state`` from load_state to continue a run bit-exactly; ``until``
    pauses earlier than hp.steps while keeping the full-run schedule (the
    warmup/cosine shape depends on hp.steps, not on where you pause). A
    non-finite loss aborts with DivergenceError after writing the last-good
    checkpoint (when out_dir is given). An empty training or validation
    split, one whose image and label counts differ, or a label outside
    [0, classes), raises ValueError before the first step.

    The table is updated in place: ``state.model.params``, ``state.m`` and
    ``state.v`` (of the given state, or of a new one) hold views into flat
    buffers from the first step on, and each step writes the new values
    into them.
    """
    _check_split(data.train_images, data.train_labels, cfg.classes, "training")
    _check_split(data.val_images, data.val_labels, cfg.classes, "validation")
    if state is None:
        model = build_model(cfg, seed=seed)
        rng = np.random.Generator(np.random.PCG64(seed + 1))
        state = TrainState(
            model=model,
            m={k: np.zeros_like(t.data) for k, t in model.params.items()},
            v={k: np.zeros_like(t.data) for k, t in model.params.items()},
            step=0, seed=seed, hp=hp, rng_state=rng.bit_generator.state,
        )
    else:
        if state.model.config != cfg:
            raise ValueError("resumed state was trained with a different config")
        rng = np.random.Generator(np.random.PCG64())
        rng.bit_generator.state = state.rng_state
        hp = state.hp

    n = data.train_images.shape[0]
    out_path = None
    if out_dir is not None:
        import pathlib

        out_dir = pathlib.Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        out_path = out_dir / "last_good.wmix"

    stop = hp.steps if until is None else min(until, hp.steps)
    saved_step = None
    sets, grads = _pack(state)
    params = state.model.params
    while state.step < stop:
        idx = rng.integers(0, n, hp.batch_size)
        xb = Tensor(data.train_images[idx])
        yb = data.train_labels[idx]
        try:
            logits = forward(state.model, xb)
            loss = smoothed_cross_entropy(logits, yb, LABEL_SMOOTHING)
            for p in params.values():
                p.grad = None
            T.backward(loss)
        except NumericError:
            if out_path is not None:
                save_state(out_path, state)
            raise DivergenceError(state.step + 1, str(out_path) if out_path else None)
        for k, p in params.items():
            grads[k][...] = 0 if p.grad is None else p.grad
        state.step += 1
        state.step_losses.append(loss.item())
        _adamw_step(state, sets, lr_at(hp, state.step))
        state.rng_state = rng.bit_generator.state

        done = state.step >= hp.steps
        if state.step % hp.eval_every == 0 or done:
            acc, vloss = evaluate(state.model, data.val_images, data.val_labels)
            state.evals.append(dict(zip(_EVAL_KEYS, (
                state.step, lr_at(hp, state.step), state.step_losses[-1], acc, vloss))))
            if hp.target_accuracy is not None and acc >= hp.target_accuracy:
                break
        if checkpoint_every and state.step % checkpoint_every == 0 and out_path is not None:
            save_state(out_path, state)
            saved_step = state.step

    if out_path is not None and saved_step != state.step:
        save_state(out_path, state)
    return state


# -- persistence --------------------------------------------------------------


def save_state(path, state: TrainState) -> None:
    """Checkpoint the full training state (bit-exact round trip)."""
    blob = {
        "schema_version": 1,
        "model": state.model.config.to_dict(),
        "train": {
            "step": state.step,
            "seed": state.seed,
            "hp": state.hp.to_dict(),
            "rng_state": _encode_rng(state.rng_state),
            "step_losses": state.step_losses,
            "evals": state.evals,
        },
    }
    tensors = {k: t.data for k, t in state.model.params.items()}
    for prefix, moments in zip(_MOMENT_PREFIXES, (state.m, state.v)):
        tensors.update({prefix + k: a for k, a in moments.items()})
    save_checkpoint(path, blob, tensors)


# JSON type of each key of a checkpoint's ``train`` blob; a dotted key
# names a key of the object checked before it
_TRAIN_BLOB = {"step": int, "seed": int, "hp": dict, "rng_state": dict,
               "rng_state.bit_generator": str, "rng_state.state": dict,
               "rng_state.state.state": str, "rng_state.state.inc": str,
               "rng_state.has_uint32": int, "rng_state.uinteger": int,
               "step_losses": list[float], "evals": list[dict]}
# the numbers of each ``evals`` entry, in the order ``train`` records them
_EVAL_KEYS = ("step", "lr", "train_loss", "val_acc", "val_loss")


def load_state(path) -> TrainState:
    """Read a ``save_state`` checkpoint back; raises CheckpointError when the
    file holds no training state, a ``train`` key (down to the ``rng_state``
    fields and each eval's numbers) is missing or has the wrong JSON type,
    its ``step`` is negative, its ``hp`` or ``rng_state`` values are invalid,
    a parameter or moment record is missing, unknown or reshaped (the one
    record check of ``load_model``), or a record's dtype is not the table's
    first record's. ``train`` copies each moment into its parameter's flat
    buffer, which would cast a moment of another dtype without a word;
    ``save_state`` never writes one, nor a table that mixes dtypes."""
    blob, tensors = load_checkpoint(path)
    model = _model_from_checkpoint(path, blob, tensors)
    if "train" not in blob:
        raise CheckpointError(f"{path}: not a training checkpoint (no train state)")
    tr = blob["train"]
    if not isinstance(tr, dict):
        raise CheckpointError(f"{path}: train state must be a JSON object, "
                              f"got {type(tr).__name__}")
    for key, tp in _TRAIN_BLOB.items():
        *outer, leaf = key.split(".")
        obj = functools.reduce(dict.__getitem__, outer, tr)
        if not _fits(obj.get(leaf), tp):
            got = f"{type(obj[leaf]).__name__} {obj[leaf]!r:.40}" if leaf in obj else "nothing"
            raise CheckpointError(f"{path}: train state {key!r} must be "
                                  f"{tp.__name__ if isinstance(tp, type) else tp}, got {got}")
    for i, ev in enumerate(tr["evals"]):
        bad = [k for k in _EVAL_KEYS if not _fits(ev.get(k), float)]
        if bad:
            raise CheckpointError(f"{path}: train state 'evals' entry {i} needs numeric {bad}")
    if tr["step"] < 0:
        raise CheckpointError(f"{path}: train state 'step' must be >= 0, got {tr['step']}")
    try:
        hp = Hyperparams.from_dict(tr["hp"])
    except ValueError as exc:
        raise CheckpointError(f"{path}: train state 'hp': {exc}") from None
    try:  # the generator that train restores it into checks the values
        rng_state = _decode_rng(tr["rng_state"])
        np.random.PCG64().state = rng_state
    except (ValueError, TypeError, OverflowError) as exc:
        raise CheckpointError(f"{path}: train state 'rng_state': {exc}") from None
    for name in (p + k for p in ("", *_MOMENT_PREFIXES) for k in model.params):
        if tensors[name].dtype != model.dtype:
            raise CheckpointError(f"{path}: record {name!r} is {tensors[name].dtype}, the "
                                  f"table's first record is {model.dtype}; a trained table "
                                  f"has one dtype")
    m, v = ({k[len(p):]: a for k, a in tensors.items() if k.startswith(p)}
            for p in _MOMENT_PREFIXES)
    return TrainState(
        model=model,
        m=m,
        v=v,
        step=tr["step"],
        seed=tr["seed"],
        hp=hp,
        rng_state=rng_state,
        step_losses=list(tr["step_losses"]),
        evals=list(tr["evals"]),
    )


def _encode_rng(rs: dict) -> dict:
    return {
        "bit_generator": rs["bit_generator"],
        "state": {"state": str(rs["state"]["state"]), "inc": str(rs["state"]["inc"])},
        "has_uint32": rs["has_uint32"],
        "uinteger": rs["uinteger"],
    }


def _decode_rng(enc: dict) -> dict:
    return {
        "bit_generator": enc["bit_generator"],
        "state": {"state": int(enc["state"]["state"]), "inc": int(enc["state"]["inc"])},
        "has_uint32": enc["has_uint32"],
        "uinteger": enc["uinteger"],
    }
