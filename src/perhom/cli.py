"""Command-line front end.

Subcommands: gen-env (write a sampled field snapshot), hbar (reference
constant), hbar-l (single periodized constant), fbar / fbar-l (elliptic
analogues), study (full sweep from a JSON config), rate-fit (slope from a
result CSV), validate (built-in fixture suite).

Exit codes: 0 success, 1 usage error, 2 solver non-convergence, 3 I/O
error.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .environment import EnvSpec, eval_potential_grid, sample_env
from .harness import (
    StudyConfig,
    compute_row,
    emit_csv,
    emit_json,
    load_csv,
    rate_report,
    reference_constants,
    run_convergence_study,
)
from .hjb_solver import GridField, NonConvergenceError, make_grid, save_field
from .validation import run_validation

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NONCONVERGENCE = 2
EXIT_IO = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with code 2
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="perhom",
                     description="Periodic approximations of ergodic constants "
                                 "in random media.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=(name != "validate"),
                       help="JSON config path (CSV path for rate-fit)")
        p.add_argument("--seed", type=int, default=None, help="seed override")
        p.add_argument("--out", default=None, help="output path")
        p.add_argument("--tol", type=float, default=None,
                       help="solver tolerance override")
        return p

    add("gen-env", "sample a medium and write the potential field snapshot")
    add("hbar", "reference ergodic constant of the HJB family")
    add("hbar-l", "periodized ergodic constant of the HJB family")
    add("fbar", "reference ergodic constant of the elliptic family")
    add("fbar-l", "periodized ergodic constant of the elliptic family")
    add("study", "run a full convergence sweep from a JSON config")
    add("rate-fit", "fit a log-log rate to a study CSV")
    add("validate", "run the built-in structural fixture suite")
    return parser


def _load_json(path) -> dict:
    with open(path) as f:
        return json.load(f)


def _study_config(obj: dict, args) -> StudyConfig:
    cfg = StudyConfig.from_json(obj)
    if args.seed is not None:
        cfg.seeds = [int(args.seed)]
    if args.tol is not None:
        cfg.solver = dict(cfg.solver, tol=args.tol)
    return cfg


def _cmd_gen_env(args) -> int:
    obj = _load_json(args.config)
    spec = EnvSpec.from_json(obj["env"])
    seed = args.seed if args.seed is not None else int(obj.get("seed", 0))
    env = sample_env(spec, seed)
    box = float(obj.get("box", 8.0))
    n = int(obj.get("n", 256))
    grid = make_grid(spec.dimension, box, n)
    values = eval_potential_grid(env, grid.axes())
    out = args.out or obj.get("out")
    if not out:
        raise _UsageError("gen-env needs --out")
    save_field(GridField(grid=grid, values=values), out)
    print(f"wrote {out}: d={spec.dimension}, n={n}, box={box}, seed={seed}")
    return EXIT_OK


def _single_shot(args, kind: str, periodized: bool) -> int:
    obj = _load_json(args.config)
    cfg = _study_config(obj, args)
    if cfg.model.get("type", "hjb") != kind:
        raise _UsageError(f"{args.command} needs a model of type {kind!r}")
    seed = cfg.seeds[0]
    p = cfg.p_list[0]
    if not periodized:
        (value,) = reference_constants(cfg, seed, [p])
    else:
        L = float(obj.get("L", cfg.L_list[0]))
        row = compute_row(cfg, seed, L, p, float("nan"))
        if not np.isfinite(row.constant_L):
            print(f"solver did not converge: residual {row.residual:.3e}",
                  file=sys.stderr)
            return EXIT_NONCONVERGENCE
        print(f"residual={row.residual:.3e} iterations={row.iterations} "
              f"eta={row.eta_used}", file=sys.stderr)
        value = row.constant_L
    print(repr(float(value)))
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"value": float(value), "seed": seed}, f)
    return EXIT_OK


def _cmd_study(args) -> int:
    cfg = _study_config(_load_json(args.config), args)
    result = run_convergence_study(cfg)
    csv_path = args.out or cfg.out_csv
    if csv_path:
        emit_csv(result, csv_path)
        print(f"wrote {csv_path} ({len(result.rows)} rows)")
    if cfg.out_json:
        emit_json(result, cfg.out_json)
        print(f"wrote {cfg.out_json}")
    if not csv_path and not cfg.out_json:
        sys.stdout.write(emit_csv(result))
    bad = sum(1 for r in result.rows if not np.isfinite(r.constant_L))
    if bad:
        print(f"warning: {bad} non-converged rows", file=sys.stderr)
    return EXIT_OK


def _cmd_rate_fit(args) -> int:
    rows = load_csv(args.config)
    if not rows:
        raise _UsageError("empty CSV")
    report = rate_report(rows)
    for label, fit in report.items():
        if "error" in fit:
            print(f"p={label}: no fit: {fit['error']}", file=sys.stderr)
        else:
            print(f"p={label}: slope={fit['slope']:.6f} intercept="
                  f"{fit['intercept']:.6f} r2={fit['r_squared']:.6f}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=2)
    return EXIT_USAGE if any("error" in f for f in report.values()) else EXIT_OK


def _cmd_validate(args) -> int:
    results = run_validation()
    all_ok = True
    for name, passed, detail in results:
        status = "PASS" if passed else "FAIL"
        print(f"[{status}] {name}: {detail}")
        all_ok = all_ok and passed
    if args.out:
        with open(args.out, "w") as f:
            json.dump([{"name": n, "passed": p, "detail": d}
                       for n, p, d in results], f, indent=2)
    return EXIT_OK if all_ok else EXIT_NONCONVERGENCE


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "gen-env":
            return _cmd_gen_env(args)
        if args.command == "hbar":
            return _single_shot(args, "hjb", periodized=False)
        if args.command == "hbar-l":
            return _single_shot(args, "hjb", periodized=True)
        if args.command == "fbar":
            return _single_shot(args, "elliptic", periodized=False)
        if args.command == "fbar-l":
            return _single_shot(args, "elliptic", periodized=True)
        if args.command == "study":
            return _cmd_study(args)
        if args.command == "rate-fit":
            return _cmd_rate_fit(args)
        if args.command == "validate":
            return _cmd_validate(args)
        raise _UsageError(f"unknown command {args.command!r}")
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (KeyError, ValueError, TypeError, json.JSONDecodeError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NonConvergenceError as exc:
        print(f"solver did not converge: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
