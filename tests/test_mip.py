"""Model container and the scipy backend: rows, points, LP text, solving."""

import numpy as np
import pytest

from mipsynth.errors import BackendError
from mipsynth.mip import MipModel
from mipsynth.solvers import (DEFAULT_GAP_TOL, ORACLE_BACKEND_NAMES,
                              ScipyHighsBackend, get_backend, is_oracle_backend)

from util import beta_interval as _beta_interval


def test_product_binary_truth_table():
    m = MipModel()
    w = m.add_var("w", 0.0, 1.0)
    z1, z2 = m.add_binary("z1"), m.add_binary("z2")
    m.add_product_binary(w, z1, z2)
    for a in (0.0, 1.0):
        for b in (0.0, 1.0):
            lo, hi = _beta_interval(m, w, {z1: a, z2: b})
            assert abs(lo - a * b) <= 1e-12 and abs(hi - a * b) <= 1e-12


def test_model_bookkeeping():
    m = MipModel("demo")
    v = m.add_var("v", 0.0, 2.0)
    b = m.add_binary("b")
    assert m.num_vars == 2 and m.var_name(v) == "v"
    m.add_constr({v: 1.0, b: 1.0}, "<=", 2.0, family="caps")
    m.add_constr({v: 1.0}, ">=", 0.5, family="caps")
    m.add_constr({b: 1.0}, "==", 1.0)
    assert m.num_rows == 3
    assert m.family_rows == {"caps": 2}
    with pytest.raises(ValueError):
        m.add_constr({v: 1.0}, "!!", 0.0)
    with pytest.raises(ValueError):
        m.add_var("bad", 1.0, 0.0)
    m.fix_var(b, 1.0)
    arr = m.to_arrays()
    assert arr.lb[b] == arr.ub[b] == 1.0


def test_check_point_reports_worst_violation():
    m = MipModel()
    v = m.add_var("v", 0.0, 1.0)
    b = m.add_binary("b")
    m.add_constr({v: 1.0, b: 1.0}, "<=", 1.0)
    assert max(m.check_point(np.array([0.5, 0.0])).values()) == 0.0
    assert max(m.check_point(np.array([0.5, 1.0])).values()) == pytest.approx(0.5)
    # fractional binary
    assert max(m.check_point(np.array([0.2, 0.4])).values()) == pytest.approx(0.4)
    with pytest.raises(ValueError):
        m.check_point(np.zeros(3))


def test_violations_by_family():
    m = MipModel()
    v = m.add_var("v", 0.0, 1.0)
    b = m.add_binary("b")
    m.add_constr({v: 1.0, b: 1.0}, "<=", 1.0, family="cap")
    m.add_constr({v: 1.0}, ">=", 0.25)
    assert m.check_point(np.array([0.5, 0.0])) == {
        "bounds": 0.0, "integrality": 0.0, "cap": 0.0, "other": 0.0}
    got = m.check_point(np.array([0.125, 1.5]))
    assert got == {"bounds": 0.5, "integrality": 0.5, "cap": 0.625,
                   "other": 0.125}
    assert max(got.values()) == 0.625
    assert m.check_point(np.array([np.nan, 0.0]))["cap"] == np.inf
    assert list(m.integer_vars()) == [b]


def _spy_milp(monkeypatch, results: list | None = None) -> list[dict]:
    """Record the options of every milp call.

    When `results` is given, each call's raw result is appended to it.
    """
    import scipy.optimize

    seen = []
    real_milp = scipy.optimize.milp

    def spy(*args, options=None, **kw):
        seen.append(dict(options))
        res = real_milp(*args, options=options, **kw)
        if results is not None:
            results.append(res)
        return res

    monkeypatch.setattr(scipy.optimize, "milp", spy)
    return seen


def test_scipy_backend_passes_its_gap(monkeypatch):
    seen = _spy_milp(monkeypatch)
    m = MipModel()
    x = m.add_var("x", 0.0, 4.0, integer=True)
    m.set_objective({x: 1.0}, sense="max")
    assert get_backend("scipy").solve(m).status == "optimal"
    assert seen[-1]["mip_rel_gap"] == DEFAULT_GAP_TOL == 1e-4


def test_solver_writes_nothing_to_stdout(monkeypatch, capfd):
    import os

    import scipy.optimize

    inner = scipy.optimize.milp

    def noisy(*args, **kwargs):
        os.write(1, b"solver diagnostics on fd 1\n")
        return inner(*args, **kwargs)

    monkeypatch.setattr(scipy.optimize, "milp", noisy)
    print("before")  # still buffered: the solve must flush it first
    sol = get_backend("scipy").solve(_infeasible_model())
    print("after")
    assert sol.status == "infeasible"
    assert capfd.readouterr().out == "before\nafter\n"


def test_objective_evaluation():
    m = MipModel()
    x = m.add_var("x", -1.0, 1.0)
    m.add_var("y", -1.0, 1.0)
    m.set_objective({x: 2.0})
    assert m.objective_value(np.array([0.5, 0.3])) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        m.set_objective({x: 1.0}, sense="sideways")


def test_lp_text_sections():
    m = MipModel("tiny")
    x = m.add_var("x", 0.0, 2.5)
    b = m.add_binary("b")
    m.add_constr({x: 1.0, b: -1.0}, "<=", 1.5)
    m.add_constr({x: 1.0}, "==", 2.0)
    m.set_objective({x: 1.0, b: 3.0})
    text = m.to_lp()
    assert text.startswith("\\ tiny\nMinimize")
    assert "Subject To" in text and "Bounds" in text and "Binaries" in text
    assert " c0: " in text and "= 2" in text
    assert text.rstrip().endswith("End")


def test_scipy_backend_solves_small_mip():
    m = MipModel()
    x = m.add_var("x", 0.0, 10.0)
    b = m.add_binary("b")
    # min x + b subject to x + 2 b >= 3: optimum x=1, b=1
    m.add_constr({x: 1.0, b: 2.0}, ">=", 3.0)
    m.set_objective({x: 1.0, b: 1.0})
    sol = get_backend("scipy").solve(m)
    assert sol.status == "optimal" and sol.x is not None
    assert sol.objective == pytest.approx(2.0, abs=1e-9)
    assert max(m.check_point(sol.x).values()) <= 1e-6


def test_scipy_backend_detects_infeasible():
    m = MipModel()
    b = m.add_binary("b")
    m.add_constr({b: 1.0}, ">=", 2.0)
    sol = get_backend("scipy").solve(m)
    assert sol.status == "infeasible" and sol.x is None


def test_scipy_backend_maximize():
    m = MipModel()
    x = m.add_var("x", 0.0, 4.0)
    m.set_objective({x: 1.0}, sense="max")
    sol = get_backend("scipy").solve(m)
    assert sol.objective == pytest.approx(4.0, abs=1e-9)


def test_backend_maps_every_milp_status(monkeypatch):
    # HiGHS's status codes: 1 is a limit hit, with or without an incumbent
    import scipy.optimize
    from scipy.optimize import OptimizeResult

    m = MipModel()
    x = m.add_var("x", 0.0, 4.0, integer=True)
    m.set_objective({x: 1.0}, sense="max")

    def solve_as(status, point):
        res = OptimizeResult(status=status, message=f"code {status}",
                             x=None if point is None else np.array(point),
                             mip_dual_bound=-4.0, mip_gap=0.25, mip_node_count=7)
        monkeypatch.setattr(scipy.optimize, "milp", lambda *a, **kw: res)
        return get_backend("scipy").solve(m)

    sol = solve_as(1, [3.0])
    # the model is maximized as min -x, so the bound comes back with its sign
    assert (sol.status, sol.objective, sol.bound, sol.gap, sol.nodes) == (
        "feasible", 3.0, 4.0, 0.25, 7)
    sol = solve_as(1, None)
    assert (sol.status, sol.x, sol.objective, sol.bound, sol.gap, sol.nodes) == (
        "time_limit", None, None, 4.0, 0.25, 7)
    with pytest.raises(BackendError, match="unbounded"):
        solve_as(3, None)
    with pytest.raises(BackendError, match="solver failed: code 4"):
        solve_as(4, None)


def test_backend_registry():
    assert is_oracle_backend("oracle") and is_oracle_backend("Exhaustive")
    assert not is_oracle_backend("scipy")
    assert isinstance(get_backend("SciPy"), ScipyHighsBackend)
    with pytest.raises(BackendError):
        get_backend("oracle")  # dispatched by the driver, not a MIP backend
    for name in ("gurobi_cloud", "highs"):
        with pytest.raises(BackendError, match="unknown backend"):
            get_backend(name)
    assert set(ORACLE_BACKEND_NAMES) == {"oracle", "exhaustive"}


def test_solution_carries_the_node_count(monkeypatch):
    results: list = []
    _spy_milp(monkeypatch, results=results)
    m = MipModel()
    x = m.add_var("x", 0.0, 4.0, integer=True)
    y = m.add_var("y", 0.0, 4.0, integer=True)
    m.add_constr({x: 2.0, y: 2.0}, "<=", 5.0)
    m.set_objective({x: 1.0, y: 1.0}, sense="max")
    sol = get_backend("scipy").solve(m)
    assert sol.status == "optimal" and sol.objective == 2.0
    assert len(results) == 1
    assert sol.nodes == results[0].mip_node_count
    assert isinstance(sol.nodes, int) and sol.nodes >= 0


def _infeasible_model() -> MipModel:
    m = MipModel()
    b = m.add_binary("b")
    m.add_constr({b: 1.0}, ">=", 2.0)
    return m


def test_infeasible_verdict_is_one_solver_run(monkeypatch):
    seen = _spy_milp(monkeypatch)
    sol = get_backend("scipy").solve(_infeasible_model(), time_limit=10.0)
    assert sol.status == "infeasible" and sol.x is None
    # HiGHS gets the budget less the array export's time
    assert len(seen) == 1 and 9.0 < seen[0]["time_limit"] < 10.0
    assert "presolve" not in seen[0]
    # the array export alone takes longer than a nanosecond: no HiGHS run
    sol = get_backend("scipy").solve(_infeasible_model(), time_limit=1e-9)
    assert sol.status == "time_limit" and sol.x is None
    assert len(seen) == 1
