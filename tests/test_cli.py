import json
import math

import numpy as np
import pytest

from perhom import (StudyConfig, hbar_1d_first_order, load_field,
                    run_convergence_study)
from perhom.cli import main


def _write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def _hjb_config(tmp_path, **overrides):
    obj = {
        "env": {"kind": "cosine", "dimension": 1, "value_range": [1.0, 3.0]},
        "model": {"type": "hjb", "c1": 1.0, "gamma": 2.0,
                  "constants": {"c_struct": 7.0, "gamma": 2.0,
                                "c_corr": 2.0}},
        "p_list": [2.5],
        "L_list": [4.0],
        "seeds": [0],
        "eta_mode": {"mode": "fixed", "value": 0.25},
        "solver": {"tol": 1e-8},
        "reference": {"method": "oracle", "box": 1.0, "quad_N": 1024},
        "nodes_per_unit": 64,
    }
    obj.update(overrides)
    return _write(tmp_path, "cfg.json", obj)


def _elliptic_config(tmp_path, **overrides):
    obj = {
        "env": {"kind": "constant", "dimension": 1, "value_range": [1.0, 1.0]},
        "model": {"type": "elliptic", "family": "linear",
                  "a": {"inv_cos": [0.5]}, "f": {"const": 0.0},
                  "dimension": 1,
                  "constants": {"lambda_bar": 0.4, "Lambda_bar": 3.0}},
        "p_list": [0.5],
        "L_list": [4.0],
        "seeds": [0],
        "eta_mode": {"mode": "fixed", "value": 0.25},
        "solver": {"tol": 1e-8},
        "reference": {"box": 1.0, "quad_N": 512},
        "nodes_per_unit": 64,
    }
    obj.update(overrides)
    return _write(tmp_path, "ecfg.json", obj)


def test_usage_errors_exit_1(capsys, tmp_path):
    assert main([]) == 1
    assert main(["not-a-command"]) == 1
    assert main(["study"]) == 1  # missing required --config
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["study", "--config", str(bad)]) == 1
    capsys.readouterr()


def test_missing_file_exit_3(capsys, tmp_path):
    assert main(["study", "--config", str(tmp_path / "nope.json")]) == 3
    assert "I/O" in capsys.readouterr().err


def test_gen_env_writes_loadable_field(capsys, tmp_path):
    cfg = _write(tmp_path, "env.json", {
        "env": {"kind": "checkerboard", "dimension": 1,
                "value_range": [0.0, 3.0], "mollify_radius": 0.25},
        "box": 4.0, "n": 64})
    out = tmp_path / "field.phf"
    assert main(["gen-env", "--config", cfg, "--seed", "7",
                 "--out", str(out)]) == 0
    fld = load_field(out)
    assert fld.grid.ns == (64,)
    assert fld.grid.periods == (4.0,)
    assert np.all((fld.values >= 0.0) & (fld.values <= 3.0))


def test_hbar_prints_oracle_value(capsys, tmp_path):
    cfg = _hjb_config(tmp_path)
    assert main(["hbar", "--config", cfg]) == 0
    out = capsys.readouterr().out.strip()
    V = lambda x: 2.0 + math.cos(2.0 * math.pi * x)
    assert float(out) == pytest.approx(
        hbar_1d_first_order(V, 1.0, 2.0, 2.5), abs=1e-9)


def test_hbar_l_value_and_json_out(capsys, tmp_path):
    # blend toward H0 = |p|^2 - 2 (the mid-level of the cosine potential)
    # so the boundary layer perturbs the small cell only mildly; the
    # default family member has a much larger constant and at L = 4 the
    # layer would dominate the cell
    cfg = _hjb_config(tmp_path, model={
        "type": "hjb", "c1": 1.0, "gamma": 2.0,
        "H0_constant": 2.0, "H0_c1": 1.0,
        "constants": {"c_struct": 7.0, "gamma": 2.0, "c_corr": 2.0}})
    out_json = tmp_path / "v.json"
    assert main(["hbar-l", "--config", cfg, "--out", str(out_json)]) == 0
    cap = capsys.readouterr()
    value = float(cap.out.strip())
    assert "residual=" in cap.err
    saved = json.loads(out_json.read_text())
    assert saved["value"] == value
    # cosine medium, 4-periodic cell: near the 1-periodic constant up to
    # the O(eta) boundary-layer perturbation
    V = lambda x: 2.0 + math.cos(2.0 * math.pi * x)
    assert abs(value - hbar_1d_first_order(V, 1.0, 2.0, 2.5)) <= 0.3


def test_hbar_l_prints_the_study_row(capsys, tmp_path):
    # hbar-l and a study row share one row path, dissipation extrapolation
    # included
    cfg = _hjb_config(tmp_path, solver={"tol": 1e-8,
                                        "dissipation_extrapolation": True})
    assert main(["hbar-l", "--config", cfg]) == 0
    value = float(capsys.readouterr().out.strip())
    with open(cfg) as f:
        (row,) = run_convergence_study(StudyConfig.from_json(json.load(f))).rows
    assert value == row.constant_L


def test_fbar_and_fbar_l(capsys, tmp_path):
    cfg = _elliptic_config(tmp_path)
    assert main(["fbar", "--config", cfg]) == 0
    ref = float(capsys.readouterr().out.strip())
    # harmonic mean of a is 1, f = 0: reference constant is -P
    assert ref == pytest.approx(-0.5, abs=1e-8)
    assert main(["fbar-l", "--config", cfg]) == 0
    per = float(capsys.readouterr().out.strip())
    assert abs(per - ref) <= 0.1
    assert main(["hbar-l", "--config", cfg]) == 1  # not an HJB model


def test_tol_flag_forces_nonconvergence_exit_2(capsys, tmp_path):
    cfg = _hjb_config(tmp_path, solver={"tol": 1e-8, "max_iter": 3})
    assert main(["hbar-l", "--config", cfg, "--tol", "1e-15"]) == 2
    assert "converge" in capsys.readouterr().err


def test_study_writes_csv_and_rate_fit_reads_it(capsys, tmp_path):
    csv_path = tmp_path / "study.csv"
    cfg = _hjb_config(tmp_path, L_list=[2.0, 4.0, 8.0],
                      nodes_per_unit=32, p_list=[2.5])
    assert main(["study", "--config", cfg, "--out", str(csv_path)]) == 0
    cap = capsys.readouterr()
    assert "3 rows" in cap.out
    text = csv_path.read_text()
    assert text.startswith("seed,L,eta_used,p,")
    assert len(text.splitlines()) == 4
    fit_json = tmp_path / "fit.json"
    assert main(["rate-fit", "--config", str(csv_path),
                 "--out", str(fit_json)]) == 0
    cap = capsys.readouterr()
    assert "slope=" in cap.out
    rep = json.loads(fit_json.read_text())
    assert "2.5" in rep
    assert {"slope", "intercept", "r_squared"} <= set(rep["2.5"])


def test_study_stdout_when_no_out(capsys, tmp_path):
    cfg = _hjb_config(tmp_path)
    assert main(["study", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert out.startswith("seed,L,eta_used,p,")


def test_seed_override(capsys, tmp_path):
    cfg = _hjb_config(
        tmp_path,
        env={"kind": "checkerboard", "dimension": 1,
             "value_range": [0.5, 2.5], "mollify_radius": 0.25},
        reference={"method": "oracle", "box": 8.0, "quad_N": 1024})
    assert main(["hbar", "--config", cfg, "--seed", "11"]) == 0
    a = capsys.readouterr().out.strip()
    assert main(["hbar", "--config", cfg, "--seed", "12"]) == 0
    b = capsys.readouterr().out.strip()
    assert main(["hbar", "--config", cfg, "--seed", "11"]) == 0
    c = capsys.readouterr().out.strip()
    assert a == c
    assert a != b  # different media give different constants


def test_rate_fit_rejects_empty_csv(capsys, tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("seed,L,eta_used,p,constant_L,constant_ref,abs_err,"
                    "residual,iterations,lipschitz_estimate,wall_time\n")
    assert main(["rate-fit", "--config", str(path)]) == 1


def test_validate_passes(capsys, tmp_path):
    out = tmp_path / "val.json"
    assert main(["validate", "--out", str(out)]) == 0
    cap = capsys.readouterr()
    assert "[PASS]" in cap.out
    assert "[FAIL]" not in cap.out
    results = json.loads(out.read_text())
    assert all(r["passed"] for r in results)
    assert len(results) >= 6
