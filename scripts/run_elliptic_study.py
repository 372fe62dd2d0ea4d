#!/usr/bin/env python3
"""Convergence study of the periodized elliptic ergodic constant for the
linear family a(x) = 1/(1 + 0.5 cos 2 pi x) with a cosine source, using
the shrinking cutoff schedule eta_L = lambda(L)^{1/3}, lambda(L) = L^{-6}.

Writes the study config, result CSV/JSON and the per-P rate fit.
"""

import argparse
import json
from pathlib import Path

from perhom import StudyConfig, emit_csv, emit_json, rate_report, run_convergence_study


def build_config(out_dir: Path) -> StudyConfig:
    return StudyConfig.from_json({
        "env": {"kind": "constant", "dimension": 1, "value_range": [1.0, 1.0]},
        "model": {"type": "elliptic", "family": "linear",
                  "a": {"inv_cos": [0.5]}, "f": {"cos": [0.5, 0.2]},
                  "constants": {"c_struct": 3.0, "gamma": 2.0, "c_corr": 1.0,
                                "lambda_bar": 0.5, "Lambda_bar": 2.5}},
        "p_list": [-1.0, 0.0, 2.0],
        "L_list": [4.0, 8.0, 16.0],
        "seeds": [0],
        "eta_mode": {"mode": "elliptic_schedule", "a_bar": 6.0},
        "solver": {"tol": 1e-8},
        "reference": {"box": 1.0, "quad_N": 512},
        "nodes_per_unit": 256,
        "out_csv": str(out_dir / "elliptic_inv_cos.csv"),
        "out_json": str(out_dir / "elliptic_inv_cos.json"),
    })


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", default="results", help="output directory")
    args = ap.parse_args()

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    cfg = build_config(out_dir)
    (out_dir / "elliptic_inv_cos.config.json").write_text(
        json.dumps(cfg.to_json(), indent=2))

    result = run_convergence_study(cfg)
    emit_csv(result, cfg.out_csv)
    emit_json(result, cfg.out_json)
    print(f"wrote {cfg.out_csv} ({len(result.rows)} rows)")

    report = rate_report(result.rows)
    for label, fit in report.items():
        if "error" in fit:
            print(f"P={label}: no fit: {fit['error']}")
        else:
            print(f"P={label}: slope={fit['slope']:+.4f} r2={fit['r_squared']:.4f}")
    (out_dir / "elliptic_inv_cos.rates.json").write_text(
        json.dumps(report, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
