"""Acceptance suite: one test per acceptance criterion, each printing a
PASS/FAIL line (run with ``pytest -s tests/test_acceptance.py -v`` to watch).

Criterion 3 trains the full 4 aggregator x 3 communication matrix at desk
scale and takes the longest (minutes to ~30 min worst case on CPU); all
other criteria finish in seconds to a couple of minutes.
"""

import dataclasses
import sys

import numpy as np
import pytest

import winmix as wm
from winmix import model as M
from winmix import tensor as T
from winmix.aggregators import AGGREGATOR_KINDS, aggregate, param_shapes
from winmix.analytics import connectivity, count_flops, count_params, flops_oracle
from winmix.data import DatasetSpec, gen_dataset
from winmix.geometry import (
    FeatureMap,
    cyclic_shift,
    messenger_exchange,
    spatial_shuffle,
    spatial_unshuffle,
    window_partition,
    window_reverse,
)
from winmix.gradcheck import model_gradcheck, sampled_check
from winmix.model import ModelConfig, build_model, preset
from winmix.tensor import Tensor
from winmix.train import Hyperparams, evaluate, load_state, save_state, train


def report(criterion: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    line = f"[criterion {criterion}] {status}: {name}"
    if detail:
        line += f" ({detail})"
    print(line, file=sys.stderr, flush=True)
    assert ok, line


def within(value, target, rel):
    return abs(value - target) <= rel * target


# -- criterion 1: parameter-count reproduction --------------------------------

PARAM_TARGETS = [
    # (label, config, millions, tolerance)
    ("tiny", preset("swin-linmapper-tiny"), 24.6, 0.01),
    ("msg-tiny", preset("msg-linmapper-tiny"), 30.6, 0.20),
    ("shuffle-tiny", preset("shuffle-linmapper-tiny"), 24.6, 0.01),
    ("small", preset("swin-linmapper-small"), 54.9, 0.01),
    ("base", preset("swin-linmapper-base"), 97.3, 0.01),
    ("swin-t-mhsa", preset("swin-t-mhsa"), 28.3, 0.01),
    ("w96-baseline-g16", preset("swin-linmapper-tiny-baseline"), 22.6, 0.01),
    ("wide", preset("swin-linmapper-tiny-wide"), 30.6, 0.01),
    ("deep", preset("swin-linmapper-tiny-deep"), 24.6, 0.01),
    ("w96-g32-linear", dataclasses.replace(preset("swin-linmapper-tiny-baseline"),
                                           groups=32), 22.0, 0.01),
    ("w96-g32-dw", dataclasses.replace(preset("swin-linmapper-tiny-baseline"),
                                       groups=32, aggregator="DWLinear"), 28.4, 0.01),
    ("w96-g48-linear", dataclasses.replace(preset("swin-linmapper-tiny-baseline"),
                                           groups=48), 21.8, 0.01),
    ("w96-g48-dw", dataclasses.replace(preset("swin-linmapper-tiny-baseline"),
                                       groups=48, aggregator="DWLinear"), 26.2, 0.01),
    ("w96-g96-linear", dataclasses.replace(preset("swin-linmapper-tiny-baseline"),
                                           groups=96), 21.8, 0.01),
    ("w96-g8-linear", dataclasses.replace(preset("swin-linmapper-tiny-baseline"),
                                          groups=8), 25.0, 0.01),
]


def test_criterion_1_parameter_counts():
    failures = []
    for label, cfg, millions, tol in PARAM_TARGETS:
        total = count_params(cfg).total_params
        if not within(total, millions * 1e6, tol):
            failures.append(f"{label}: {total / 1e6:.3f}M vs {millions}M +-{tol:.0%}")
    report(1, "parameter-count reproduction",
           not failures, "; ".join(failures) or f"{len(PARAM_TARGETS)} targets")


def test_criterion_1_counts_match_built_tables():
    # closed form == instantiated table, including the largest preset
    ok = True
    for name in ("toy-desk", "swin-t-mhsa", "msg-linmapper-tiny", "swin-linmapper-base"):
        cfg = preset(name)
        ok = ok and build_model(cfg, seed=0).param_count() == count_params(cfg).total_params
    report(1, "closed form equals built parameter tables", ok)


# -- criterion 2: FLOP reproduction --------------------------------------------

FLOP_TARGETS = [
    ("tiny", preset("swin-linmapper-tiny"), 4.0, 0.03),
    ("small", preset("swin-linmapper-small"), 8.9, 0.03),
    ("base", preset("swin-linmapper-base"), 15.9, 0.03),
    ("swin-t-mhsa", preset("swin-t-mhsa"), 4.5, 0.03),
]


def test_criterion_2_flop_targets():
    failures = []
    for label, cfg, gigs, tol in FLOP_TARGETS:
        total = count_flops(cfg, 224).total_flops
        if not within(total, gigs * 1e9, tol):
            failures.append(f"{label}: {total / 1e9:.3f}G vs {gigs}G")
    # width-96 #Groups=32 default lands inside the 3.3-3.4G baseline band
    baseline = dataclasses.replace(preset("swin-linmapper-tiny-baseline"), groups=32)
    total = count_flops(baseline, 224).total_flops
    if not (3.3e9 * 0.97 <= total <= 3.4e9 * 1.03):
        failures.append(f"baseline-g32: {total / 1e9:.3f}G outside [3.20, 3.50]G")
    report(2, "FLOP reproduction at 224^2", not failures, "; ".join(failures) or "5 targets")


def test_criterion_2_oracle_exact_on_desk_configs():
    mismatches = []
    for agg in AGGREGATOR_KINDS:
        for comm in ("Shift", "Shuffle", "MSG", "None"):
            cfg = dataclasses.replace(preset("toy-desk"), aggregator=agg, comm=comm)
            closed = count_flops(cfg, 32).total_flops
            oracle = flops_oracle(cfg, 32)
            if closed != oracle:
                mismatches.append(f"{agg}/{comm}: {closed} != {oracle}")
    report(2, "count_flops == flops_oracle exactly", not mismatches,
           "; ".join(mismatches) or "16 desk configs")


# -- criterion 3: desk-scale accuracy matrix -----------------------------------

def test_criterion_3_matrix_reaches_95():
    data = gen_dataset(DatasetSpec())
    hp = Hyperparams(steps=2000, eval_every=50, target_accuracy=0.95)
    finals = {}
    for agg in AGGREGATOR_KINDS:
        for comm in ("Shift", "Shuffle", "MSG"):
            cfg = dataclasses.replace(preset("toy-desk"), aggregator=agg, comm=comm)
            state = train(cfg, data, hp, seed=0)
            finals[f"{agg}/{comm}"] = state.evals[-1]["val_acc"]
    spread = max(finals.values()) - min(finals.values())
    ok = min(finals.values()) >= 0.95 and spread <= 0.05
    detail = ", ".join(f"{k}={v:.3f}" for k, v in finals.items()) + f"; spread={spread:.3f}"
    report(3, "4x3 aggregator x comm matrix >= 95% within 2000 steps", ok, detail)


def _right_half_change(model, images: np.ndarray, perturbed: np.ndarray) -> float:
    """Largest change in the pre-pool features of the right-half tokens
    between two image batches (the final token grid is split at its middle
    column). Exactly 0.0 means no path reaches them from where the batches
    differ: identical inputs give bit-identical outputs. Messengers are not
    run, so the model must not use comm="MSG"."""
    def prepool(x):
        fm = M.patch_embed(model, Tensor(x))
        for s in range(4):
            for i in range(model.config.depths[s]):
                fm, _ = M.block_forward(model, fm, s, i)
            if s < 3:
                fm = M.patch_merge(model, fm, s)
        return fm.values.numpy()

    a, b = prepool(images), prepool(perturbed)
    half = a.shape[2] // 2
    return float(np.abs(a[:, :, half:] - b[:, :, half:]).max())


def test_criterion_3_comm_none_control():
    # seam-phase task: the label is the relative phase of the two image
    # halves. With a 4 px stem and three 2x2 merges the seam stays on a
    # window boundary at every stage only when the width is a multiple of
    # 64 * window px; at 32 px, stage 2 is one window and merge2 folds the
    # map into one token, so comm=None joins the halves before the pool.
    # An 8-row, 128-column image keeps the seam aligned at the pixel count
    # of a 32 px square. The premise is checked through the real forward
    # pass: changing only the left-half pixels leaves comm=None's right-half
    # pre-pool features bit-identical and moves Shift's. comm=None then stays
    # below the 0.90 "solved" threshold at the pause; pooled phase statistics
    # alone can move it off 0.5, but not that far. Shift's accuracy carries
    # no bound: with the seam aligned no comm scheme learns seam-phase
    # within this budget.
    spec = DatasetSpec(mode="seam-phase", classes=2, size=128, height=8)
    data = gen_dataset(spec)
    cfg = ModelConfig(width=16, depths=(2, 2, 2, 1), window=2, classes=2)
    hp = Hyperparams(steps=600, eval_every=100)
    none = train(dataclasses.replace(cfg, comm="None"), data, hp, seed=0, until=300)
    acc = none.evals[-1]["val_acc"]

    images = data.val_images[:8]
    perturbed = images.copy()
    perturbed[:, :, : spec.size // 2] = 1.0 - perturbed[:, :, : spec.size // 2]
    none_change = _right_half_change(none.model, images, perturbed)
    shift_change = _right_half_change(
        build_model(dataclasses.replace(cfg, comm="Shift"), seed=0), images, perturbed)

    ok = none_change == 0.0 and shift_change > 0.0 and acc < 0.90
    report(3, "comm=None blind across the seam and below 0.90", ok,
           f"none acc={acc:.3f}; left-half change moves right-half features: "
           f"none by {none_change:.2e} (want 0), shift by {shift_change:.2e} (want > 0)")


# -- criterion 4: gradient suite ------------------------------------------------

def _agg_loss_fn(kind, probe):
    def loss_fn(arrays):
        leaves = {name: Tensor(a, dtype=np.float64, requires_grad=True)
                  for name, a in arrays.items()}
        params = {name: t for name, t in leaves.items() if name != "__x"}
        out = aggregate(kind, leaves["__x"], params)
        return T.tsum(T.mul(out, Tensor(probe, dtype=np.float64))), leaves

    return loss_fn


def test_criterion_4_aggregator_gradients():
    worst = {}
    c, ws = 4, 2
    for kind in AGGREGATOR_KINDS:
        errs = []
        for seed in range(10):
            rng = np.random.default_rng(seed)
            arrays = {name: rng.standard_normal(shape) * 0.5 for name, shape
                      in param_shapes(kind, c, ws, gs=2, heads=2, rho=2).items()}
            arrays["__x"] = rng.standard_normal((2, ws * ws, c))
            probe = rng.standard_normal((2, ws * ws, c))
            fn = _agg_loss_fn(kind, probe)
            errs.append(sampled_check(fn, arrays, rng, samples_per_leaf=2))
        worst[kind] = max(errs)
    ok = all(e < 1e-4 for e in worst.values())
    report(4, "aggregator gradients vs central differences",
           ok, ", ".join(f"{k}={v:.2e}" for k, v in worst.items()))


def test_criterion_4_block_gradients():
    worst = {}
    for kind in AGGREGATOR_KINDS:
        cfg = ModelConfig(width=8, depths=(2, 1, 1, 1), window=2, classes=2,
                          aggregator=kind, comm="Shift", groups=4)
        errs = []
        for seed in range(10):
            rng = np.random.default_rng(100 + seed)
            model = build_model(cfg, seed=seed, dtype=np.float64)
            arrays = {k: t.numpy().copy() for k, t in model.params.items()
                      if k.startswith("stage0.")}
            x_np = rng.standard_normal((1, 4, 4, 8))
            probe = rng.standard_normal((1, 4, 4, 8))

            def loss_fn(arrs):
                params = dict(model.params)
                leaves = {}
                for k, a in arrs.items():
                    leaves[k] = params[k] = Tensor(a, dtype=np.float64,
                                                   requires_grad=True)
                m2 = model.replace_params(params)
                fm = FeatureMap(Tensor(x_np, dtype=np.float64))
                for i in range(cfg.depths[0]):
                    fm, _ = M.block_forward(m2, fm, 0, i)
                return T.tsum(T.mul(fm.values, Tensor(probe, dtype=np.float64))), leaves

            errs.append(sampled_check(loss_fn, arrays, rng, samples_per_leaf=1))
        worst[kind] = max(errs)
    ok = all(e < 1e-4 for e in worst.values())
    report(4, "block gradients vs central differences",
           ok, ", ".join(f"{k}={v:.2e}" for k, v in worst.items()))


def test_criterion_4_end_to_end_gradients():
    cfg = ModelConfig(width=8, depths=(2, 1, 1, 1), window=2, classes=4, groups=4)
    errs = [model_gradcheck(cfg, seed=s, samples_per_leaf=1, resolution=16)
            for s in range(10)]
    report(4, "end-to-end tiny-model gradients", max(errs) < 1e-4,
           f"max rel err {max(errs):.2e} over 10 seeds")


# -- criterion 5: geometry suite -------------------------------------------------

def test_criterion_5_round_trips_bit_exact():
    rng = np.random.default_rng(0)
    ok = True
    for seed in range(20):
        r = np.random.default_rng(seed)
        h, w = 7 * r.integers(1, 4), 7 * r.integers(1, 4)
        x = FeatureMap(Tensor(r.standard_normal((2, h, w, 8))))
        raw = x.values.numpy()

        part = window_reverse(window_partition(x, 7), h, w).values.numpy()
        shift = cyclic_shift(cyclic_shift(x, 3, -2), -3, 2).values.numpy()
        shuf = spatial_unshuffle(spatial_shuffle(x, 7), 7).values.numpy()
        ok = ok and (part == raw).all() and (shift == raw).all() and (shuf == raw).all()

        gh, gw = h // 7, w // 7
        tokens = Tensor(r.standard_normal((2 * gh * gw, 1, 8)))
        if gh % 2 == 0 and gw % 2 == 0:
            twice = messenger_exchange(messenger_exchange(tokens, gh, gw, 2), gh, gw, 2)
            ok = ok and (twice.numpy() == tokens.numpy()).all()
    report(5, "partition/shift/shuffle/messenger round trips bit-exact", ok)


def test_criterion_5_axial_cross_jacobian_ws7():
    rng = np.random.default_rng(1)
    ws, gs, c = 7, 3, 6
    p = {name: Tensor(rng.standard_normal(shape), dtype=np.float64)
         for name, shape in param_shapes("Linear", c, ws, gs=gs).items()}
    x = rng.standard_normal((1, ws * ws, c))
    base = aggregate("Linear", Tensor(x, dtype=np.float64), p).numpy()
    ok = True
    for (h, w) in [(0, 0), (2, 6), (3, 3), (6, 1)]:
        probe = x.copy()
        probe[0, h * ws + w] += 1.0
        delta = np.abs(aggregate("Linear", Tensor(probe, dtype=np.float64), p).numpy()
                       - base).sum(axis=2).reshape(ws, ws)
        cross = np.zeros((ws, ws), dtype=bool)
        cross[h, :] = True
        cross[:, w] = True
        ok = ok and ((delta > 1e-12) == cross).all()
    report(5, "axial-cross Jacobian sparsity on ws=7 window", ok)


# -- criterion 6: connectivity ----------------------------------------------------

# block indices frozen from the boolean brute-force oracle on a 14x14 grid
FROZEN_FULL_LAYER = {"Shift": 4, "Shuffle": 4, "MSG": 2}


def test_criterion_6_connectivity():
    tiny = preset("swin-linmapper-tiny")
    failures = []
    rep = connectivity(dataclasses.replace(tiny, comm="None"), 14, 14)
    if rep.first_full is not None:
        failures.append("comm=None unexpectedly reached full connectivity")
    for comm, frozen in FROZEN_FULL_LAYER.items():
        rep = connectivity(dataclasses.replace(tiny, comm=comm), 14, 14)
        if rep.first_full != frozen:
            failures.append(f"{comm}: first full layer {rep.first_full} != {frozen}")
    report(6, "connectivity on 14x14 grid", not failures,
           "; ".join(failures) or f"None=never, {FROZEN_FULL_LAYER}")


def test_criterion_6_monotone_on_random_configs():
    rng = np.random.default_rng(7)
    bad = 0
    for _ in range(100):
        cfg = ModelConfig(
            width=int(rng.choice([8, 16])),
            depths=tuple(int(d) for d in rng.integers(1, 4, size=4)),
            window=int(rng.choice([2, 3])),
            aggregator=str(rng.choice(list(AGGREGATOR_KINDS))),
            comm=str(rng.choice(["Shift", "Shuffle", "MSG", "None"])),
            classes=2,
            groups=int(rng.choice([4, 8])),
        )
        grid = cfg.window * int(rng.integers(2, 5))
        rep = connectivity(cfg, grid, grid)
        prev = rep.layers[0]
        for layer in rep.layers[1:]:
            if not (layer | prev == layer).all():
                bad += 1
                break
            prev = layer
    report(6, "influence monotone over 100 random configs", bad == 0,
           f"{bad} violations")


# -- criterion 7: determinism ------------------------------------------------------

def test_criterion_7_training_determinism(tmp_path):
    data = gen_dataset(DatasetSpec(n_train=128, n_val=32, size=16))
    cfg = ModelConfig(width=8, depths=(1, 2, 1, 1), window=2, classes=4,
                      groups=4, comm="MSG")
    hp = Hyperparams(steps=20, eval_every=5)

    a = train(cfg, data, hp, seed=11)
    b = train(cfg, data, hp, seed=11)
    histories_equal = a.step_losses == b.step_losses and a.evals == b.evals

    path = tmp_path / "ck.wmix"
    save_state(path, a)
    loaded = load_state(path)
    round_trip = all(
        a.model.params[k].numpy().tobytes() == loaded.model.params[k].numpy().tobytes()
        for k in a.model.params
    ) and loaded.rng_state == a.rng_state and loaded.evals == a.evals

    half = train(cfg, data, hp, seed=11, until=10)
    save_state(path, half)
    resumed = train(cfg, data, hp, seed=11, state=load_state(path))
    resume_exact = resumed.step_losses == a.step_losses and all(
        resumed.model.params[k].numpy().tobytes() == a.model.params[k].numpy().tobytes()
        for k in a.model.params
    )

    report(7, "determinism: histories, checkpoint round trip, resume",
           histories_equal and round_trip and resume_exact,
           f"histories={histories_equal} round_trip={round_trip} resume={resume_exact}")
