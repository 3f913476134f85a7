"""Command-line surface.

Subcommands: describe, count, flops, connectivity, gradcheck, train, eval,
bench. Reports go to stdout as JSON (or aligned text with --table). Exit
codes: 0 success, 1 validation error, 2 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import analytics
from .data import DatasetSpec, SyntheticDataset, dataset_from_wdat, gen_dataset
from .gradcheck import model_gradcheck
from .io import CheckpointError
from .model import ConfigError, ModelConfig, PRESETS, load_model, preset
from .tensor import NumericError, Tensor
from .train import DivergenceError, Hyperparams, evaluate, load_state, train

__all__ = ["main", "cli_main"]


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _load_config(spec: str) -> ModelConfig:
    if spec in PRESETS:
        return preset(spec)
    path = Path(spec)
    if path.suffix == ".json" and path.exists():
        return ModelConfig.from_dict(json.loads(path.read_text()))
    return preset(spec)  # raises with the available-preset list


def _load_data(data: str, val: str | None) -> SyntheticDataset:
    path = Path(data)
    if path.suffix == ".wdat":
        if not val:
            raise ConfigError("--val-data is required when --data is a .wdat file")
        return dataset_from_wdat(path, val)
    if path.suffix == ".json" and path.exists():
        return gen_dataset(DatasetSpec.from_dict(json.loads(path.read_text())))
    raise ConfigError(f"--data must be a .json spec or .wdat file, got {data!r}")


def _emit(report, table: bool) -> None:
    if table and hasattr(report, "to_table"):
        print(report.to_table())
    else:
        d = report.to_dict() if hasattr(report, "to_dict") else report
        print(json.dumps(d, indent=2))


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="winmix", description=__doc__)
    sub = p.add_subparsers(dest="cmd", required=True)

    d = sub.add_parser("describe", help="print a resolved model configuration")
    d.add_argument("config")

    c = sub.add_parser("count", help="closed-form parameter counts")
    c.add_argument("config")
    c.add_argument("--table", action="store_true")

    f = sub.add_parser("flops", help="closed-form multiply-accumulate counts")
    f.add_argument("config")
    f.add_argument("--res", type=int, default=224)
    f.add_argument("--table", action="store_true")

    k = sub.add_parser("connectivity", help="token influence analysis on a fixed grid")
    k.add_argument("config")
    k.add_argument("--grid", type=int, default=14)
    k.add_argument("--pgm-dir", default=None,
                   help="also dump one PGM bitmap per block into this directory")

    g = sub.add_parser("gradcheck", help="analytic vs central-difference gradients")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--config", default="toy-desk")
    g.add_argument("--tol", type=float, default=1e-4)
    g.add_argument("--samples", type=int, default=2)

    t = sub.add_parser("train", help="run the training loop")
    t.add_argument("--config", required=True)
    t.add_argument("--hp", default=None, help="JSON file of hyperparameters")
    t.add_argument("--data", required=True, help="dataset spec .json or train .wdat")
    t.add_argument("--val-data", default=None)
    t.add_argument("--out", required=True)
    t.add_argument("--seed", type=int, default=0)
    t.add_argument("--resume", default=None, help="checkpoint to continue from")

    e = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    e.add_argument("--ckpt", required=True)
    e.add_argument("--data", required=True)
    e.add_argument("--val-data", default=None)

    b = sub.add_parser("bench", help="forward-pass throughput micro-benchmark")
    b.add_argument("--ckpt", required=True)
    b.add_argument("--batch", type=int, default=8)
    b.add_argument("--repeats", type=int, default=5)
    b.add_argument("--res", type=int, default=32)
    return p


def cli_main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.cmd == "describe":
            cfg = _load_config(args.config)
            print(json.dumps({"schema_version": analytics.SCHEMA_VERSION,
                              "config": cfg.to_dict()}, indent=2))
        elif args.cmd == "count":
            _emit(analytics.count_params(_load_config(args.config)), args.table)
        elif args.cmd == "flops":
            _emit(analytics.count_flops(_load_config(args.config), args.res), args.table)
        elif args.cmd == "connectivity":
            rep = analytics.connectivity(_load_config(args.config), args.grid, args.grid)
            if args.pgm_dir:
                out = Path(args.pgm_dir)
                out.mkdir(parents=True, exist_ok=True)
                for i, (label, mat) in enumerate(zip(rep.labels, rep.layers)):
                    analytics.write_pgm(out / f"{i:03d}_{label}.pgm", mat)
            _emit(rep, False)
        elif args.cmd == "gradcheck":
            err = model_gradcheck(_load_config(args.config), seed=args.seed,
                                  samples_per_leaf=args.samples)
            ok = err < args.tol
            print(json.dumps({"schema_version": analytics.SCHEMA_VERSION,
                              "max_rel_error": err, "tolerance": args.tol,
                              "passed": ok}, indent=2))
            if not ok:
                return 2
        elif args.cmd == "train":
            cfg = _load_config(args.config)
            hp = Hyperparams.from_dict(json.loads(Path(args.hp).read_text())) \
                if args.hp else Hyperparams()
            data = _load_data(args.data, args.val_data)
            state = load_state(args.resume) if args.resume else None
            if state is not None and args.hp and hp != state.hp:
                raise ConfigError(f"--hp {args.hp} differs from the hyperparameters of "
                                  f"--resume {args.resume}; a resumed run keeps its own")
            state = train(cfg, data, hp, seed=args.seed, state=state, out_dir=args.out)
            print(json.dumps({"schema_version": analytics.SCHEMA_VERSION,
                              "steps": state.step,
                              "final": state.evals[-1] if state.evals else None,
                              "checkpoint": str(Path(args.out) / "last_good.wmix")},
                             indent=2))
        elif args.cmd == "eval":
            model = load_model(args.ckpt)
            data = _load_data(args.data, args.val_data)
            acc, loss = evaluate(model, data.val_images, data.val_labels)
            print(json.dumps({"schema_version": analytics.SCHEMA_VERSION,
                              "accuracy": acc, "loss": loss}, indent=2))
        elif args.cmd == "bench":
            model = load_model(args.ckpt)
            print(json.dumps(analytics.bench_throughput(
                model, batch=args.batch, repeats=args.repeats,
                resolution=args.res), indent=2))
    except (ConfigError, CheckpointError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (NumericError, DivergenceError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2
    return 0


def main() -> None:
    raise SystemExit(cli_main())


if __name__ == "__main__":
    main()
