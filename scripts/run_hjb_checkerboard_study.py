#!/usr/bin/env python3
"""Convergence study of the periodized HJB ergodic constant on a mollified
random checkerboard: sweeps seeds x L x p, writes the study config, the
result CSV/JSON and a log-log rate fit of the median error per momentum.

Resumable: rerunning with the same --out-dir skips rows already present in
the CSV.
"""

import argparse
import json
from pathlib import Path

from perhom import StudyConfig, emit_csv, emit_json, rate_report, run_convergence_study


def build_config(out_dir: Path, seeds: int, eta: float) -> StudyConfig:
    return StudyConfig.from_json({
        "env": {"kind": "checkerboard", "dimension": 1,
                "value_range": [0.0, 3.0], "cell_size": 1.0,
                "mollify_radius": 0.25},
        "model": {"type": "hjb", "c1": 1.0, "gamma": 2.0,
                  "constants": {"c_struct": 4.0, "gamma": 2.0,
                                "c_corr": 2.0}},
        "p_list": [0.0, 1.0, 2.0],
        "L_list": [8.0, 16.0, 32.0, 64.0],
        "seeds": list(range(seeds)),
        "eta_mode": {"mode": "fixed", "value": eta},
        "solver": {"tol": 1e-8},
        "reference": {"method": "oracle", "box": 256.0, "quad_N": 2048},
        "nodes_per_unit": 16,
        "out_csv": str(out_dir / "hjb_checkerboard.csv"),
        "out_json": str(out_dir / "hjb_checkerboard.json"),
    })


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", default="results", help="output directory")
    ap.add_argument("--seeds", type=int, default=16, help="number of seeds")
    ap.add_argument("--eta", type=float, default=0.1, help="cutoff width")
    args = ap.parse_args()

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    cfg = build_config(out_dir, args.seeds, args.eta)
    (out_dir / "hjb_checkerboard.config.json").write_text(
        json.dumps(cfg.to_json(), indent=2))

    result = run_convergence_study(cfg)
    emit_csv(result, cfg.out_csv)
    emit_json(result, cfg.out_json)
    print(f"wrote {cfg.out_csv} ({len(result.rows)} rows)")

    report = rate_report(result.rows)
    for label, fit in report.items():
        if "error" in fit:
            print(f"p={label}: no fit: {fit['error']}")
        else:
            print(f"p={label}: slope={fit['slope']:+.4f} r2={fit['r_squared']:.4f}")
    (out_dir / "hjb_checkerboard.rates.json").write_text(
        json.dumps(report, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
