import csv
import io
import json
import math
import warnings

import numpy as np
import pytest

from perhom import (
    EnvSpec,
    StructuralConstants,
    StudyConfig,
    StudyResult,
    check_sandwich,
    emit_csv,
    emit_json,
    fit_rate,
    run_convergence_study,
)
from perhom.harness import ROW_FIELDS, ResultRow, load_csv


def _tiny_config(**overrides):
    obj = {
        "env": {"kind": "checkerboard", "dimension": 1,
                "value_range": [0.5, 2.5], "cell_size": 1.0,
                "mollify_radius": 0.25},
        "model": {"type": "hjb", "c1": 1.0, "gamma": 2.0,
                  "constants": {"c_struct": 7.0, "gamma": 2.0,
                                "c_corr": 2.0}},
        "p_list": [1.0],
        "L_list": [4.0, 8.0],
        "seeds": [1, 2],
        "eta_mode": {"mode": "fixed", "value": 0.25},
        "solver": {"tol": 1e-7},
        "reference": {"method": "oracle", "box": 16.0, "quad_N": 1024},
        "nodes_per_unit": 8,
    }
    obj.update(overrides)
    return StudyConfig.from_json(obj)


def _row(seed=0, L=4.0, eta=0.1, p="1.0", cL=0.0, cref=0.0, err=0.0):
    return ResultRow(seed=seed, L=L, eta_used=eta, p=p, constant_L=cL,
                     constant_ref=cref, abs_err=err, residual=1e-9,
                     iterations=10, lipschitz_estimate=1.0, wall_time=0.01)


def test_fit_rate_exact_power_laws():
    Ls = [2.0 ** k for k in range(2, 9)]
    slope, intercept, r2 = fit_rate([(L, L ** -0.5) for L in Ls])
    assert slope == pytest.approx(-0.5, abs=1e-12)
    assert r2 == pytest.approx(1.0, abs=1e-12)
    slope, intercept, r2 = fit_rate([(L, 3.0 * L ** (-1.0 / 12.0)) for L in Ls])
    assert slope == pytest.approx(-1.0 / 12.0, abs=1e-10)
    assert intercept == pytest.approx(math.log(3.0), abs=1e-10)
    assert r2 == pytest.approx(1.0, abs=1e-12)


def test_fit_rate_constant_errors():
    slope, _, _ = fit_rate([(4.0, 0.5), (8.0, 0.5), (16.0, 0.5)])
    assert slope == pytest.approx(0.0, abs=1e-12)


def test_fit_rate_drops_nonpositive_with_warning():
    pairs = [(4.0, 0.1), (8.0, 0.05), (16.0, 0.025), (32.0, 0.0)]
    with pytest.warns(UserWarning):
        slope, _, _ = fit_rate(pairs)
    assert slope == pytest.approx(-1.0, abs=1e-10)


def test_fit_rate_too_few_points():
    with pytest.raises(ValueError):
        fit_rate([(4.0, 0.1), (8.0, 0.0), (16.0, -1.0)])


def test_check_sandwich_reports_minimal_constant():
    cst = StructuralConstants(c_struct=2.0, gamma=2.0, c_corr=1.0)
    rows = [
        # ref - cL = 0.2 with (p^2+1) eta = 2 * 0.1: needs C >= 1
        _row(L=4.0, eta=0.1, p="1.0", cL=-1.2, cref=-1.0),
        # ref - cL = 0.05: needs C >= 0.25, weaker
        _row(L=8.0, eta=0.1, p="1.0", cL=-1.05, cref=-1.0),
    ]
    rep = check_sandwich(StudyResult(config={}, rows=rows), cst, tol_margin=0.0)
    assert rep["C_report"] == pytest.approx(1.0, rel=1e-12)
    assert rep["per_L"][4.0] == {"upper_pass": 1, "lower_pass": 1, "total": 1}
    assert rep["per_L"][8.0]["lower_pass"] == 1
    assert rep["dropped"] == 0


def test_check_sandwich_upper_violation_counted():
    cst = StructuralConstants()
    rows = [_row(cL=-0.5, cref=-1.0)]  # constant_L above the reference
    rep = check_sandwich(StudyResult(config={}, rows=rows), cst,
                         tol_margin=1e-6)
    assert rep["per_L"][4.0]["upper_pass"] == 0
    assert rep["per_L"][4.0]["lower_pass"] == 1


def test_check_sandwich_drops_nan_rows():
    cst = StructuralConstants()
    rows = [_row(), _row(seed=1, cL=float("nan"))]
    rep = check_sandwich(StudyResult(config={}, rows=rows), cst)
    assert rep["dropped"] == 1


def test_emit_csv_header_only():
    text = emit_csv(StudyResult(config={}, rows=[]))
    assert text == ",".join(ROW_FIELDS) + "\n"


def test_emit_csv_shortest_round_trip_floats(tmp_path):
    r = _row(cL=0.1, cref=-1.0 / 3.0)
    text = emit_csv(StudyResult(config={}, rows=[r]))
    lines = text.splitlines()
    assert len(lines) == 2
    rec = lines[1].split(",")
    # shortest decimal that round-trips, not a fixed-width format
    assert rec[ROW_FIELDS.index("constant_L")] == "0.1"
    assert float(rec[ROW_FIELDS.index("constant_ref")]) == -1.0 / 3.0
    path = tmp_path / "r.csv"
    emit_csv(StudyResult(config={}, rows=[r]), path)
    (back,) = load_csv(path)
    assert back == r


def test_emit_csv_rfc4180_quoting(tmp_path):
    # vector p labels contain commas and must be quoted
    r = _row(p=json.dumps([1.0, 2.0]))
    text = emit_csv(StudyResult(config={}, rows=[r]))
    assert '"[1.0, 2.0]"' in text
    parsed = list(csv.reader(io.StringIO(text)))
    assert parsed[1][ROW_FIELDS.index("p")] == "[1.0, 2.0]"
    path = tmp_path / "r.csv"
    emit_csv(StudyResult(config={}, rows=[r]), path)
    (back,) = load_csv(path)
    assert back.p == "[1.0, 2.0]"


def test_emit_json_contains_config_and_rows():
    cfg = _tiny_config()
    res = StudyResult(config=cfg.to_json(), rows=[_row()])
    obj = json.loads(emit_json(res))
    assert obj["config"]["p_list"] == [1.0]
    assert obj["rows"][0]["seed"] == 0
    assert set(obj["rows"][0]) == set(ROW_FIELDS)


def test_config_round_trip_and_validation():
    cfg = _tiny_config()
    assert StudyConfig.from_json(cfg.to_json()) == cfg
    with pytest.raises(ValueError):
        _tiny_config(L_list=[8.0, 4.0])
    with pytest.raises(ValueError):
        _tiny_config(seeds=[1, 1])
    with pytest.raises(ValueError):
        _tiny_config(p_list=[])


def test_study_runs_and_columns_sane(tmp_path):
    cfg = _tiny_config()
    res = run_convergence_study(cfg)
    assert len(res.rows) == 4  # 2 seeds x 2 L x 1 p
    for r in res.rows:
        assert math.isfinite(r.constant_L)
        assert r.residual <= 1e-7
        assert r.abs_err == pytest.approx(abs(r.constant_L - r.constant_ref))
        assert r.eta_used == 0.25
    # sorted by (seed, L, p)
    keys = [(r.seed, r.L, r.p) for r in res.rows]
    assert keys == sorted(keys)


def test_study_threaded_matches_serial():
    cfg = _tiny_config()
    a = run_convergence_study(cfg, threads=1)
    b = run_convergence_study(cfg, threads=2)
    for ra, rb in zip(a.rows, b.rows):
        assert ra.key() == rb.key()
        assert ra.constant_L == rb.constant_L
        assert ra.constant_ref == rb.constant_ref


def test_study_resume_skips_existing(tmp_path):
    path = tmp_path / "study.csv"
    cfg = _tiny_config(out_csv=str(path))
    full = run_convergence_study(cfg)
    emit_csv(full, path)
    # drop half the rows; the rerun must recompute exactly those
    partial = StudyResult(config=full.config, rows=full.rows[:2])
    emit_csv(partial, path)
    resumed = run_convergence_study(cfg)
    assert emit_csv(resumed) == emit_csv(full) or [
        (r.key(), r.constant_L, r.constant_ref) for r in resumed.rows
    ] == [(r.key(), r.constant_L, r.constant_ref) for r in full.rows]


def test_study_resume_complete_is_byte_identical(tmp_path):
    path = tmp_path / "study.csv"
    cfg = _tiny_config(out_csv=str(path))
    full = run_convergence_study(cfg)
    emit_csv(full, path)
    resumed = run_convergence_study(cfg)
    assert emit_csv(resumed) == emit_csv(full)


def test_eta_schedule_modes():
    cfg = _tiny_config(eta_mode={"mode": "hjb_schedule", "a_bar": 0.5})
    from perhom.harness import _eta_for
    assert _eta_for(cfg, 2.0 ** 36) == pytest.approx(0.125)
    cfg2 = _tiny_config(eta_mode={"mode": "elliptic_schedule", "a_bar": 6.0})
    # lambda(L) = L^-6, d = 1: eta = L^-2
    assert _eta_for(cfg2, 8.0) == pytest.approx(8.0 ** -2.0, rel=1e-12)
    cfg3 = _tiny_config(eta_mode={"mode": "bogus"})
    with pytest.raises(ValueError):
        _eta_for(cfg3, 4.0)


def test_nonconvergence_produces_flagged_row():
    cfg = _tiny_config(solver={"tol": 1e-13, "max_iter": 5})
    res = run_convergence_study(cfg)
    assert any(math.isnan(r.constant_L) and r.iterations == -1
               for r in res.rows)


def _checkerboard_study(seeds, L_list, p_list):
    """The criterion-4 study config, restricted to some of its cells."""
    return StudyConfig.from_json({
        "env": {"kind": "checkerboard", "dimension": 1,
                "value_range": [0.0, 3.0], "cell_size": 1.0,
                "mollify_radius": 0.25},
        "model": {"type": "hjb", "c1": 1.0, "gamma": 2.0,
                  "constants": {"c_struct": 4.0, "gamma": 2.0,
                                "c_corr": 2.0}},
        "p_list": p_list, "L_list": L_list, "seeds": seeds,
        "eta_mode": {"mode": "fixed", "value": 0.1},
        "solver": {"tol": 1e-8, "dissipation_extrapolation": True},
        "reference": {"method": "oracle", "box": 256.0, "quad_N": 2048},
        "nodes_per_unit": 16,
    })


@pytest.mark.parametrize("seeds, L_list, p_list", [
    ([4, 6], [64.0], [1.0]),  # NaN rows under the former explicit marching
    ([0], [8.0, 16.0, 32.0, 64.0], [0.0]),  # its overflow warnings
])
def test_checkerboard_cells_converge_inside_node_bracket(
        monkeypatch, seeds, L_list, p_list):
    from perhom import harness
    from perhom.hjb_solver import _discretize, _gradient_cap
    cells = []
    solve = harness.ergodic_constant_periodic

    def spy(spec, p, grid, params):
        est = solve(spec, p, grid, params)
        cells.append((spec, p, grid, params, est))
        return est

    monkeypatch.setattr(harness, "ergodic_constant_periodic", spy)
    cfg = _checkerboard_study(seeds, L_list, p_list)
    tol = cfg.solver["tol"]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rows = run_convergence_study(cfg).rows
    assert len(rows) == len(seeds) * len(L_list)
    for r in rows:
        assert math.isfinite(r.constant_L) and r.residual <= tol
    # a monotone scheme's constant lies between min and max over the nodes
    # of H_L(p, x), for the theta and the 2 theta solve alike
    assert len(cells) == 2 * len(rows)
    for spec, p, grid, params, est in cells:
        prob = _discretize(spec, grid)
        H = prob.c1 * abs(p) ** prob.gamma - prob.V
        assert H.min() - 10 * tol <= est.value <= H.max() + 10 * tol
        # the cap lies at or past the first-order gradient bound, so the
        # extension changes H only where H(p + q, x) > max_y H(p, y), and
        # the continuum cell constant is that of H itself
        bound = ((prob.V + H.max()) / prob.c1) ** (1.0 / prob.gamma)
        assert np.all(_gradient_cap(prob, params.lf_theta) >= bound)
