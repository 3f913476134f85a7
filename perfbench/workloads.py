"""The three workloads: desk-train, paper-infer and analytics.

Every workload is one client in a closed loop: the next op starts only after
the previous one returned. An op is a training step (desk-train), a forward
request (paper-infer) or one pass over the analytics suite (analytics).
Inputs come from the seed alone. ``setup`` may run several times; ``run``
times ops for about the requested seconds; ``check`` verifies the outputs
after timing and returns how many ops it found wrong.
"""

from __future__ import annotations

import contextlib
import dataclasses
import importlib
import math
import sys
import time
import traceback

import numpy as np
from scipy import special

from spans import AGGREGATORS


class Calibrator:
    """Fixed reference kernels, timed next to every op.

    The host's speed swings by a fifth within seconds as other tenants share
    its cores, and different kinds of work swing differently. Each workload
    names the kernels that mirror its own mix; ``__call__`` returns how much
    slower they ran than their nominal (quiet-host) times, and an op's time
    divided by that factor is its time at the reference speed ("ref-ms").
    Over 20 s windows of one process this cut the spread of the median op
    time from 10-20% to 2-4% on every workload.
    """

    # nominal seconds on a quiet host; fixed, since every ref-ms depends on them
    NOMINAL = {"cpu": 0.003, "int": 0.0035, "mem": 0.028}

    def __init__(self, parts: tuple[str, ...]):
        rng = np.random.default_rng(0)
        self._a = rng.random((192, 192), dtype=np.float32)
        self._b = rng.random(200_000, dtype=np.float32)
        self._u = (rng.random((96, 96)) > 0.5).astype(np.uint8)
        self._x = rng.standard_normal((3136, 64), dtype=np.float32)
        self._w = rng.standard_normal((64, 256), dtype=np.float32)
        self._parts = [getattr(self, f"_{p}") for p in parts]
        self._nominal = sum(self.NOMINAL[p] for p in parts)

    def _cpu(self) -> None:
        """Interpreted loop, small sgemm and vector exp: small-op training."""
        s = 0
        for i in range(20_000):
            s += i * i
        for _ in range(10):
            self._a @ self._a
        for _ in range(5):
            np.exp(self._b)

    def _int(self) -> None:
        """numpy's own integer matmul loop, as ``connectivity`` runs it."""
        for _ in range(4):
            self._u @ self._u

    def _mem(self) -> None:
        """A stage-0 FFN at 224 px: sgemm, exact GELU and a permutation over
        megabyte arrays, larger than L2."""
        h = self._x @ self._w
        g = special.ndtr(h) * h
        y = np.ascontiguousarray(g.reshape(56, 56, 256).transpose(1, 0, 2))
        y.reshape(3136, 256) @ self._w.T

    def __call__(self) -> float:
        t0 = time.perf_counter()
        for part in self._parts:
            part()
        return (time.perf_counter() - t0) / self._nominal


class Phase:
    """Timings of one timed loop."""

    def __init__(self):
        self.latencies: list[float] = []  # seconds per op
        self.slowdown: list[float] = []  # host slowdown around each op
        self.ref_latencies: list[float] = []  # seconds per op at reference speed
        self.groups: list[str] = []  # aggregator, preset or "pass" of each op
        self.units = 0  # images (or passes) completed
        self.attempted = 0
        self.failed = 0

    def add(self, seconds: float, slow: float, units: int, group: str) -> None:
        self.latencies.append(seconds)
        self.slowdown.append(slow)
        self.ref_latencies.append(seconds / slow)
        self.groups.append(group)
        self.units += units

    def typical(self, values: list[float]) -> float:
        """Mean over groups of each group's median.

        Op times cluster by group (an MLP step costs twice a DWLinear one),
        so the pooled median sits in a gap between clusters and jumps
        between them from run to run; the group medians do not.
        """
        by_group: dict[str, list[float]] = {}
        for g, v in zip(self.groups, values):
            by_group.setdefault(g, []).append(v)
        return float(np.mean([np.median(v) for v in by_group.values()]))

    @staticmethod
    def tail_mean(values: list[float], q: float) -> float:
        """Mean of the values at or above the q-th percentile: steadier than
        the percentile itself, which falls on a cluster edge."""
        v = np.asarray(values)
        return float(v[v >= np.percentile(v, q)].mean())


class StepClock:
    """Marks training steps: ``train`` calls ``T.backward`` once per step and
    nowhere else. Each return records the time, runs the calibration kernel
    and records the time again, so steps are timed without the kernel."""

    def __init__(self, tensor_module, calibrate: Calibrator, tracer=None):
        self.marks: list[tuple[float, float, float]] = []  # (returned, slowdown, resumed)
        self._module = tensor_module
        self._orig = orig = tensor_module.backward

        def backward(loss):
            orig(loss)
            t = time.perf_counter()
            with _span(tracer, "bench.calibrate"):
                cal = calibrate()
            self.marks.append((t, cal, time.perf_counter()))

        tensor_module.backward = backward

    def close(self) -> None:
        self._module.backward = self._orig


def _span(tracer, name):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


def _report(what: str) -> None:
    print(f"perfbench: {what} failed", file=sys.stderr)
    traceback.print_exc(limit=3, file=sys.stderr)


def _same(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# Quality guard: 30 steps reach 0.70-0.84 validation accuracy on four
# classes (chance is 0.25) for every aggregator and seed tried.
MIN_VAL_ACC = 0.5


def _states_equal(a, b) -> bool:
    """Two training states agree bit for bit."""
    fields = ("step", "hp", "step_losses", "evals", "rng_state")
    if a.model.config != b.model.config or any(getattr(a, f) != getattr(b, f) for f in fields):
        return False
    if not a.model.params.keys() == b.model.params.keys() == a.m.keys() == b.m.keys() \
            == a.v.keys() == b.v.keys():
        return False
    return all(_same(a.model.params[k].data, b.model.params[k].data)
               and _same(a.m[k], b.m[k]) and _same(a.v[k], b.v[k]) for k in a.m)


class DeskTrain:
    """toy-desk training once per aggregator, paused and resumed midway."""

    tail_percentile = 90
    calibration = ("cpu",)
    batch = 32

    def __init__(self, wm, seed: int, smoke: bool, workdir):
        self.wm = wm
        # ``winmix.train`` on the package is the train function, not the module
        self.tr = importlib.import_module("winmix.train")
        self.seed = seed
        self.steps, self.pause, self.every = (4, 2, 2) if smoke else (30, 15, 15)
        self.hp = wm.Hyperparams(steps=self.steps, batch_size=self.batch,
                                 eval_every=self.every)
        toy = wm.preset("toy-desk")
        self.cfgs = {a: dataclasses.replace(toy, aggregator=a) for a in AGGREGATORS}
        self.workdir = workdir
        self.smoke = smoke
        self.rounds = {a: 0 for a in AGGREGATORS}
        self.final: dict = {}  # aggregator -> final TrainState of the last round
        self.histories: dict = {a: [] for a in AGGREGATORS}

    def setup(self) -> None:
        # 256 validation images keep evaluation near a tenth of the loop
        self.data = self.wm.gen_dataset(self.wm.DatasetSpec(seed=self.seed, n_val=256))

    def run(self, seconds: float, cal: Calibrator, tracer) -> Phase:
        phase = Phase()
        clock = StepClock(self.wm.tensor, cal, tracer)
        try:
            t0 = time.perf_counter()
            self._round(phase, clock, cal, tracer)
            # whole rounds keep the aggregator mix fixed
            rounds = max(1, round(seconds / (time.perf_counter() - t0)))
            for _ in range(rounds - 1):
                self._round(phase, clock, cal, tracer)
        finally:
            clock.close()
        return phase

    def _round(self, phase: Phase, clock: StepClock, cal: Calibrator, tracer) -> None:
        for agg in AGGREGATORS:
            self._train_one(agg, phase, clock, cal, tracer)

    def _segment(self, phase: Phase, clock: StepClock, cal_before: float, steps: int,
                 group: str, fn):
        """Run ``fn`` (one ``train`` call) and add its steps to ``phase``.

        A step runs from the previous step's backward to its own; the first
        also holds the call's set-up (or the resume), the last the final
        update, evaluation and save.
        """
        clock.marks.clear()
        t0 = time.perf_counter()
        result = fn()
        t1 = time.perf_counter()
        marks = clock.marks
        if len(marks) != steps:
            raise RuntimeError(f"{len(marks)} backward calls for {steps} steps")
        starts = [t0] + [resumed for _, _, resumed in marks[:-1]]
        ends = [returned for returned, _, _ in marks[:-1]]
        ends.append(t1 - (marks[-1][2] - marks[-1][0]))
        cals = [cal_before] + [c for _, c, _ in marks]
        for k in range(steps):
            phase.add(ends[k] - starts[k], (cals[k] + cals[k + 1]) / 2, self.batch, group)
        return result, cals[-1]

    def _train_one(self, agg: str, phase: Phase, clock: StepClock, cal: Calibrator,
                   tracer) -> None:
        tr, cfg, data = self.tr, self.cfgs[agg], self.data
        out = self.workdir / agg
        if tracer is not None:
            tracer.tag = agg
        phase.attempted += self.steps
        done = len(phase.latencies)
        try:
            with _span(tracer, "bench.train"):
                _, c = self._segment(phase, clock, cal(), self.pause, agg, lambda: tr.train(
                    cfg, data, self.hp, seed=self.seed, out_dir=out,
                    checkpoint_every=self.every, until=self.pause))
                final, _ = self._segment(phase, clock, c, self.steps - self.pause, agg, lambda: tr.train(
                    cfg, data, self.hp, state=tr.load_state(out / "last_good.wmix"),
                    out_dir=out, checkpoint_every=self.every))
        except Exception:
            _report(f"desk-train {agg}")
            phase.failed += self.steps
            phase.units -= self.batch * (len(phase.latencies) - done)
            del phase.latencies[done:], phase.slowdown[done:]
            del phase.ref_latencies[done:], phase.groups[done:]
            return
        self.rounds[agg] += 1
        self.final[agg] = final
        self.histories[agg].append(list(final.step_losses))

    # -- output checks -------------------------------------------------------

    def check(self) -> int:
        tr = self.tr
        # the uninterrupted reference costs a whole training, so each run
        # checks one aggregator (all four across consecutive seeds)
        resumed = AGGREGATORS if self.smoke else (AGGREGATORS[self.seed % 4],)
        failed = 0
        for agg, state in self.final.items():
            try:
                acc, loss = tr.evaluate(state.model, self.data.val_images, self.data.val_labels)
                ok = (all(math.isfinite(x) for x in state.step_losses)
                      and state.step == self.steps
                      and (self.smoke or acc >= MIN_VAL_ACC)
                      and state.evals[-1]["val_acc"] == acc
                      and state.evals[-1]["val_loss"] == loss
                      and all(h == self.histories[agg][0] for h in self.histories[agg]))
                path = self.workdir / f"roundtrip-{agg}.wmix"
                tr.save_state(path, state)
                ok = ok and _states_equal(state, tr.load_state(path))
                if agg in resumed:
                    ref = tr.train(self.cfgs[agg], self.data, self.hp, seed=self.seed)
                    ok = ok and _states_equal(state, ref)
            except Exception:
                _report(f"desk-train check {agg}")
                ok = False
            if not ok:
                print(f"perfbench: desk-train {agg} output check failed", file=sys.stderr)
                failed += self.rounds[agg] * self.steps
        return failed

    def notes(self) -> dict:
        accs = {a: s.final_val_accuracy for a, s in self.final.items()}
        return {"train_val_acc": sum(accs.values()) / len(accs) if accs else None,
                "val_acc": accs,
                "steps_per_training": self.steps, "rounds": self.rounds}


PAPER_PRESETS = ("swin-linmapper-tiny", "msg-linmapper-tiny", "swin-t-mhsa")
# float32 logits against a float64 forward of the same (cast) parameters:
# largest absolute difference over the largest float64 logit magnitude
PAPER_RTOL = 1e-3


class PaperInfer:
    """Batch-1, 224 px forward requests cycling through three presets."""

    tail_percentile = 75
    calibration = ("cpu", "mem")

    def __init__(self, wm, seed: int, smoke: bool, workdir):
        self.wm = wm
        self.mdl = importlib.import_module("winmix.model")
        self.seed = seed
        self.n_images = 1 if smoke else 2
        self.models = self.refs = None
        self.first: dict = {}  # (preset, image) -> first logits
        self.requests: dict = {}  # (preset, image) -> request count
        self.max_rel_err = None

    def setup(self) -> None:
        wm = self.wm
        self.models = self.refs = None  # free the previous set-up first
        data = wm.gen_dataset(wm.DatasetSpec(seed=self.seed, size=224, n_train=4, n_val=4))
        self.images = [wm.Tensor(data.train_images[i:i + 1]) for i in range(self.n_images)]
        self.models = [self.mdl.build_model(wm.preset(p), seed=self.seed) for p in PAPER_PRESETS]
        self.refs = [wm.Model(config=m.config, dtype=np.dtype(np.float64),
                              params={k: wm.Tensor(t.data.astype(np.float64))
                                      for k, t in m.params.items()})
                     for m in self.models]

    def run(self, seconds: float, cal: Calibrator, tracer) -> Phase:
        phase = Phase()
        start = time.perf_counter()
        c_prev = cal()
        i = 0
        while True:
            key = (i % len(PAPER_PRESETS), (i // len(PAPER_PRESETS)) % self.n_images)
            phase.attempted += 1
            self.requests[key] = self.requests.get(key, 0) + 1
            t0 = time.perf_counter()
            try:
                with _span(tracer, "bench.request"), self.wm.no_grad():
                    logits = self.mdl.forward(self.models[key[0]], self.images[key[1]]).data
                t1 = time.perf_counter()
                c_next = cal()
                phase.add(t1 - t0, (c_prev + c_next) / 2, 1, PAPER_PRESETS[key[0]])
                c_prev = c_next
                ok = logits.shape == (1, self.models[key[0]].config.classes) and bool(
                    np.isfinite(logits).all())
                if key not in self.first:
                    self.first[key] = logits.copy()
                ok = ok and _same(logits, self.first[key])
            except Exception:
                _report(f"paper-infer request {key}")
                ok = False
            phase.failed += not ok
            i += 1
            if i % len(PAPER_PRESETS) == 0 and time.perf_counter() - start >= seconds:
                return phase

    def check(self) -> int:
        failed, errs = 0, []
        for key, logits in self.first.items():
            try:
                with self.wm.no_grad():
                    x = self.wm.Tensor(self.images[key[1]].data.astype(np.float64))
                    ref = self.mdl.forward(self.refs[key[0]], x).data
                err = float(np.abs(logits - ref).max() / np.abs(ref).max())
                errs.append(err)
                ok = err <= PAPER_RTOL
            except Exception:
                _report(f"paper-infer float64 reference {key}")
                ok = False
            if not ok:
                print(f"perfbench: paper-infer {PAPER_PRESETS[key[0]]} image {key[1]} "
                      "differs from its float64 reference", file=sys.stderr)
                failed += self.requests[key]
        self.max_rel_err = max(errs) if errs else None
        return failed

    def notes(self) -> dict:
        return {"presets": list(PAPER_PRESETS), "images": self.n_images,
                "max_rel_err_vs_float64": self.max_rel_err, "rtol": PAPER_RTOL}


CONNECTIVITY_COMMS = ("Shift", "Shuffle", "MSG", "None")


class Analytics:
    """Cost tables for every preset, connectivity per comm scheme, and the
    MAC-counting oracle on toy-desk per aggregator."""

    tail_percentile = 75
    calibration = ("cpu", "int")
    resolution = 224

    def __init__(self, wm, seed: int, smoke: bool, workdir):
        self.wm = wm
        self.an = importlib.import_module("winmix.analytics")
        self.mdl = importlib.import_module("winmix.model")
        self.seed = seed
        # grids from 15 to 21 pad to 21 (about 2 s a call); 14 keeps a pass
        # near one second, so a run holds enough passes for a median
        self.grid = 7 if smoke else 14
        self.reference = None
        self.results = None
        self.passes = 0
        self.oracle_res = 32

    def setup(self) -> None:
        wm = self.wm
        tiny = wm.preset("swin-linmapper-tiny")
        toy = wm.preset("toy-desk")
        self.count_cfgs = [wm.preset(n) for n in sorted(wm.PRESETS)]
        self.conn_cfgs = ([dataclasses.replace(tiny, comm=c) for c in CONNECTIVITY_COMMS]
                          + [wm.preset("swin-t-mhsa")])
        self.oracle_cfgs = [dataclasses.replace(toy, aggregator=a) for a in AGGREGATORS]

    def _calls(self):
        """The suite, one call per item; a pass runs them in order."""
        an = self.an
        yield lambda: [(an.count_params(c).total_params,
                        an.count_flops(c, self.resolution).total_flops) for c in self.count_cfgs]
        for c in self.conn_cfgs:
            yield lambda c=c: an.connectivity(c, self.grid, self.grid)
        for c in self.oracle_cfgs:
            yield lambda c=c: an.flops_oracle(c, self.oracle_res, seed=self.seed)

    def run(self, seconds: float, cal: Calibrator, tracer) -> Phase:
        phase = Phase()
        start = time.perf_counter()
        slow = cal()
        while True:
            phase.attempted += 1
            self.passes += 1
            out, wall, ref = [], 0.0, 0.0
            try:
                # a pass is long, so the kernel runs between its calls too
                with _span(tracer, "bench.pass"):
                    for call in self._calls():
                        t0 = time.perf_counter()
                        out.append(call())
                        took = time.perf_counter() - t0
                        with _span(tracer, "bench.calibrate"):
                            after = cal()
                        wall += took
                        ref += took / ((slow + after) / 2)
                        slow = after
                phase.add(wall, wall / ref, 1, "pass")
                k = 1 + len(self.conn_cfgs)
                counts, reps, oracle = out[0], out[1:k], out[k:]
                summary = (counts, [(r.first_full, [m.tobytes() for m in r.layers]) for r in reps],
                           oracle)
                if self.reference is None:
                    self.reference = summary
                    self.results = (counts, reps, oracle)
                ok = summary == self.reference
            except Exception:
                _report("analytics pass")
                ok = False
            phase.failed += not ok
            if time.perf_counter() - start >= seconds:
                return phase

    def _probe_matches(self, agg: str, comm: str) -> bool:
        """Token influence measured by perturbing a real forward pass equals
        the boolean connectivity after the first stage."""
        wm, mdl = self.wm, self.mdl
        grid, depth = 6, 3
        cfg = wm.ModelConfig(width=8, depths=(depth, 1, 1, 1), window=3, classes=2,
                             aggregator=agg, comm=comm, groups=4)
        symbolic = self.an.connectivity(cfg, grid, grid).layers[depth - 1]
        model = mdl.build_model(cfg, seed=self.seed, dtype=np.float64)
        base_vals = np.random.default_rng(self.seed).standard_normal((1, grid, grid, 8))

        def run(vals):
            fm = wm.FeatureMap(wm.Tensor(vals, dtype=np.float64))
            with wm.no_grad():
                for i in range(depth):
                    fm, _ = mdl.block_forward(model, fm, 0, i, None)
            return fm.values.data

        base = run(base_vals)
        numeric = np.zeros((grid * grid, grid * grid), dtype=bool)
        for j in range(grid * grid):
            probe = base_vals.copy()
            # one channel only: a uniform bump would be erased by the norms
            probe[0, j // grid, j % grid, 0] += 0.01
            numeric[:, j] = (np.abs(run(probe) - base).sum(axis=3)[0] > 0).reshape(-1)
        return bool((numeric == symbolic).all())

    def check(self) -> int:
        wm = self.wm
        try:
            oracle = self.results[2]
            ok = all(o == self.an.count_flops(c, self.oracle_res).total_flops
                     for o, c in zip(oracle, self.oracle_cfgs))
            names = sorted(wm.PRESETS)
            built = self.oracle_cfgs + [wm.preset(names[self.seed % len(names)])]
            ok = ok and all(self.an.count_params(c).total_params
                            == self.mdl.build_model(c, seed=self.seed).param_count()
                            for c in built)
            # messenger state is set up by a private helper, so the probe
            # covers the schemes a bare block stack can run
            agg = AGGREGATORS[self.seed % len(AGGREGATORS)]
            ok = ok and all(self._probe_matches(agg, comm) for comm in ("Shift", "Shuffle", "None"))
        except Exception:
            _report("analytics check")
            ok = False
        if not ok:
            print("perfbench: analytics output check failed", file=sys.stderr)
        return 0 if ok else self.passes

    def notes(self) -> dict:
        return {"grid": self.grid, "resolution": self.resolution,
                "first_full": {f"{c.aggregator}/{c.comm}": r.first_full
                               for c, r in zip(self.conn_cfgs, self.results[1])}
                if self.results else None}


WORKLOADS = {"desk-train": DeskTrain, "paper-infer": PaperInfer, "analytics": Analytics}
