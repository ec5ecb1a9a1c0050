"""Command-line interface.

Subcommands: esd, density, spike-curve, epsilon-sweep, validate,
derivative-check. Flags can also come from a JSON config file
(--config FILE); explicit flags override file values.

Exit codes: 0 success, 1 usage/config error, 2 validation failure,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path

from . import experiments
from .experiments import ExperimentConfig, ValidationFailure
from .rank_one import ConvergenceError, DegeneratePointError
from .rmt_theory import FixedPointError, OutsideSupportError
from .tensor_core import Shape3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parse_triple(text, cast):
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected three comma-separated values: {text}")
    return tuple(cast(p) for p in parts)


def _parse_grid(text):
    """start:stop:step or a comma-separated list."""
    if ":" in text:
        start, stop, step = (float(p) for p in text.split(":"))
        if step <= 0:
            raise argparse.ArgumentTypeError("grid step must be positive")
        values = []
        x = start
        while x <= stop + 1e-12:
            values.append(round(x, 12))
            x += step
        return tuple(values)
    return tuple(float(p) for p in text.split(","))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="punctured-tensor")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=Path, help="JSON config file")
    common.add_argument("--shape", type=lambda s: _parse_triple(s, int),
                        help="n1,n2,n3")
    common.add_argument("--ratios", type=lambda s: _parse_triple(s, float),
                        help="c1,c2,c3")
    common.add_argument("--n-total", type=int, help="N when using --ratios")
    common.add_argument("--beta", type=float)
    common.add_argument("--epsilon", type=float)
    common.add_argument("--trials", type=int)
    common.add_argument("--seed", type=int, dest="base_seed")
    common.add_argument("--init", choices=("planted", "random"))
    common.add_argument("--out", type=Path, help="output directory")
    common.add_argument("--bins", type=int)
    common.add_argument("--eta", type=float)
    common.add_argument("--grid-points", type=int)
    common.add_argument("--tol", type=float)
    common.add_argument("--max-iter", type=int,
                        help="solver budget: each solve streams the tensor "
                             "at most 2 MAX_ITER + 1 times")
    common.add_argument("--restarts", type=int,
                        help="random-init restarts; the scan's top sigma is polished")
    common.add_argument("--scan-sweeps", type=int,
                        help="joint sweeps used to rank restarts")

    sub.add_parser("esd", parents=[common])
    sub.add_parser("density", parents=[common])

    pc = sub.add_parser("spike-curve", parents=[common])
    pc.add_argument("--beta-grid", type=_parse_grid, help="start:stop:step or list")
    pc.add_argument("--empirical", action="store_true", default=None)

    pe = sub.add_parser("epsilon-sweep", parents=[common])
    pe.add_argument("--epsilon-grid", type=_parse_grid, help="start:stop:step or list")

    pv = sub.add_parser("validate", parents=[common])
    pv.add_argument("--perturb-sigma", type=float,
                    help="negative-control offset added to sigma in the "
                         "structural checks")

    pd = sub.add_parser("derivative-check", parents=[common])
    pd.add_argument("--entries", type=int, default=20)
    return parser


# Every config key is also the dest of the flag that sets it.
_CONFIG_KEYS = frozenset(f.name for f in fields(ExperimentConfig))


def config_from_args(args) -> ExperimentConfig:
    values = {}
    if getattr(args, "config", None):
        with open(args.config) as fh:
            file_cfg = json.load(fh)
        unknown = set(file_cfg) - _CONFIG_KEYS
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        values.update(file_cfg)
    for key in _CONFIG_KEYS:
        val = getattr(args, key, None)
        if val is not None:
            values[key] = val
    if "shape" in values and values["shape"] is not None:
        values["shape"] = Shape3(*values["shape"])
    if "ratios" in values and values["ratios"] is not None:
        values["ratios"] = tuple(values["ratios"])
    for key in ("beta_grid", "epsilon_grid"):
        if key in values and values[key] is not None:
            grid = tuple(float(x) for x in values[key])
            if any(b <= a for a, b in zip(grid, grid[1:])):
                raise ValueError(f"{key} must be strictly increasing")
            values[key] = grid
    if "out" in values and values["out"] is not None:
        values["out"] = Path(values["out"])
    return ExperimentConfig(**values)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = config_from_args(args)
    except (ValueError, TypeError, OSError, json.JSONDecodeError) as exc:
        # TypeError: a config value of the wrong type, such as "trials": "3".
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    try:
        if args.command == "esd":
            result = experiments.run_esd(cfg)
        elif args.command == "density":
            result = experiments.run_density(cfg)
        elif args.command == "spike-curve":
            result = experiments.run_spike_curve(cfg)
        elif args.command == "epsilon-sweep":
            result = experiments.run_epsilon_sweep(cfg)
        elif args.command == "derivative-check":
            result = experiments.run_derivative_check(cfg, n_entries=args.entries)
        elif args.command == "validate":
            entries, ok = experiments.run_validate(cfg)
            for entry in entries:
                status = "PASS" if entry["pass"] else "FAIL"
                print(
                    f"{status} {entry['name']}: residual={entry['residual']:.3e} "
                    f"tolerance={entry['tolerance']:.3e}"
                )
            if not ok:
                return 2
            return 0
        else:  # pragma: no cover - argparse enforces the choices
            return 1
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (
        ConvergenceError,
        DegeneratePointError,
        FixedPointError,
        OutsideSupportError,
    ) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3

    print(json.dumps(result, indent=2, default=str))
    return 0


if __name__ == "__main__":
    sys.exit(main())
