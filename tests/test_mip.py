"""Model container and the scipy backend: rows, points, LP text, solving."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from mipsynth import solvers
from mipsynth.cuts import CutSelection
from mipsynth.errors import BackendError
from mipsynth.fixtures import oracle_corpus
from mipsynth.formulation import SynthesisProblem, build_model
from mipsynth.mip import MipModel
from mipsynth.solvers import (DEFAULT_GAP_TOL, ORACLE_BACKEND_NAMES, PRESOLVE_AGGREGATOR,
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


def _row_store_model() -> tuple[MipModel, list]:
    """A small model and its rows as added: (coefs, lo, hi, family)."""
    m = MipModel()
    x, y, b = m.add_var("x", 0.0, 3.0), m.add_var("y", -1.0, 1.0), m.add_binary("b")
    rows = [({y: 2.0, x: -1.0}, -math.inf, 1.0, "caps"),
            ({b: 1.0}, 0.5, math.inf, None),
            ({x: 1.0, y: 1.0, b: -4.0}, 0.0, 0.0, "links"),
            ({}, -math.inf, 0.0, None),
            ({b: 3.5, x: 0.25}, 1.0, math.inf, "caps")]
    for coefs, lo, hi, family in rows:
        sense = "==" if lo == hi else "<=" if lo == -math.inf else ">="
        m.add_constr(coefs, sense, hi if sense == "<=" else lo, family=family)
    return m, rows


def test_rows_come_back_as_they_were_added():
    m, rows = _row_store_model()
    arr = m.to_arrays()
    assert arr.num_rows == m.num_rows == len(rows)
    assert list(arr.a_start) == [0, 2, 3, 6, 6, 8]
    for r, (coefs, lo, hi, _) in enumerate(rows):
        s, e = arr.a_start[r], arr.a_start[r + 1]
        assert list(arr.a_cols[s:e]) == list(coefs)
        assert list(arr.a_vals[s:e]) == list(coefs.values())
        assert (arr.row_lb[r], arr.row_ub[r]) == (lo, hi)
    # the per-family tally skips rows added without a family
    tally: dict[str, int] = {}
    for *_, family in rows:
        if family is not None:
            tally[family] = tally.get(family, 0) + 1
    assert m.family_rows == tally == {"caps": 2, "links": 1}
    assert list(m.check_point(np.zeros(3))) == [
        "bounds", "integrality", "caps", "other", "links"]


def test_highs_loads_the_rows_as_stored(monkeypatch):
    seen = _spy_highs(monkeypatch)
    m, rows = _row_store_model()
    m.set_objective({0: 1.0})
    get_backend("scipy").solve(m)
    fmt, start, index, value = seen[0].matrix
    assert fmt == solvers.highs_core().MatrixFormat.kRowwise
    assert start == [0, 2, 3, 6, 6, 8]
    assert index == [c for coefs, *_ in rows for c in coefs]
    assert value == [v for coefs, *_ in rows for v in coefs.values()]


def test_highs_never_sees_a_fixed_integer(monkeypatch):
    seen = _spy_highs(monkeypatch)
    m = MipModel()
    x = m.add_var("x", 2.0, 2.0, integer=True)
    y, b = m.add_binary("y"), m.add_binary("b")
    v = m.add_var("v", 0.0, 0.0)
    m.fix_var(b, 1.0)
    m.add_constr({x: 1.0, y: 1.0, b: -1.0, v: 1.0}, "<=", 1.5)
    m.set_objective({x: 3.0, y: 1.0}, sense="max")
    sol = get_backend("scipy").solve(m)
    # HiGHS gets y and the fixed continuous v, and the row y + v <= 0.5
    assert seen[0].matrix[1:] == ([0, 2], [0, 1], [1.0, 1.0])
    assert (sol.status, list(sol.x), sol.objective, sol.bound) == (
        "optimal", [2.0, 0.0, 1.0, 0.0], 6.0, 6.0)


def test_a_model_of_fixed_integers_is_decided_at_its_point(monkeypatch):
    # HiGHS reads a model without columns as empty and decides nothing
    seen = _spy_highs(monkeypatch)
    sols = []
    for cap in (1.0, 0.5):
        m = MipModel()
        b = m.add_binary("b")
        m.fix_var(b, 1.0)
        m.add_constr({b: 1.0}, "<=", cap)
        m.set_objective({b: 2.0})
        sols.append(get_backend("scipy").solve(m))
    assert [(s.status, s.objective, s.bound) for s in sols] == [
        ("optimal", 2.0, 2.0), ("infeasible", None, None)]
    assert list(sols[0].x) == [1.0] and seen == []


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


def _spy_highs(monkeypatch) -> list:
    """Record every HiGHS object a solve makes: its options, matrix and runs."""
    core = solvers.highs_core()
    real = core._Highs
    seen = []

    class Spy:
        def __init__(self):
            self.highs, self.options, self.runs = real(), {}, 0
            seen.append(self)

        def setOptionValue(self, name, value):
            self.options[name] = value
            return self.highs.setOptionValue(name, value)

        def run(self):
            self.runs += 1
            return self.highs.run()

        def passModel(self, lp):
            a = lp.a_matrix_
            self.matrix = (a.format_, list(a.start_), list(a.index_), list(a.value_))
            return self.highs.passModel(lp)

        def __getattr__(self, name):
            return getattr(self.highs, name)

    monkeypatch.setattr(core, "_Highs", Spy)
    return seen


def test_highs_bindings_are_where_the_backend_reads_them():
    core = solvers.highs_core()
    for name in solvers.HIGHS_NAMES:
        assert hasattr(core, name), (
            f"scipy moved {solvers.HIGHS_MODULE}.{name}; update HIGHS_MODULE and "
            "HIGHS_NAMES in mipsynth/solvers.py")
    lp = core.HighsLp()
    for field in ("num_col_", "num_row_", "col_cost_", "col_lower_", "col_upper_",
                  "row_lower_", "row_upper_", "a_matrix_", "integrality_"):
        assert hasattr(lp, field), f"scipy's HighsLp has no {field} any more"


def test_moved_highs_bindings_fail_clearly(monkeypatch):
    core = solvers.highs_core()
    monkeypatch.delattr(core, "HighsLp")
    with pytest.raises(BackendError, match=r"_core has no HighsLp"):
        get_backend("scipy").solve(_infeasible_model())
    monkeypatch.setattr(solvers, "HIGHS_MODULE", "scipy.optimize._no_such_module")
    with pytest.raises(BackendError, match=r"this scipy has no scipy\.optimize\._no_such"):
        get_backend("scipy").solve(_infeasible_model())


def test_scipy_backend_passes_its_gap(monkeypatch):
    seen = _spy_highs(monkeypatch)
    m = MipModel()
    x = m.add_var("x", 0.0, 4.0, integer=True)
    m.set_objective({x: 1.0}, sense="max")
    assert get_backend("scipy").solve(m).status == "optimal"
    assert seen[-1].options["mip_rel_gap"] == DEFAULT_GAP_TOL == 1e-4
    assert seen[-1].options["output_flag"] is False


def test_solver_writes_nothing_to_stdout(monkeypatch, capfd):
    # with output_flag off HiGHS still prints some MIP diagnostics straight
    # to file descriptor 1; this stand-in does the same on every run
    import os

    seen = _spy_highs(monkeypatch)
    spy = solvers.highs_core()._Highs

    class Noisy(spy):
        def run(self):
            os.write(1, b"solver diagnostics on fd 1\n")
            return super().run()

    monkeypatch.setattr(solvers.highs_core(), "_Highs", Noisy)
    print("before")  # still buffered: the solve must flush it first
    sol = get_backend("scipy").solve(_infeasible_model())
    print("after")
    assert sol.status == "infeasible" and seen[0].runs == 1
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


def test_backend_maps_every_highs_status(monkeypatch):
    core = solvers.highs_core()
    status, ok, error = core.HighsModelStatus, core.HighsStatus.kOk, core.HighsStatus.kError
    real = core._Highs()

    m = MipModel()
    x = m.add_var("x", 0.0, 4.0, integer=True)
    m.set_objective({x: 1.0}, sense="max")

    def solve_as(verdict, point, loaded=ok, ran=ok):
        class Stub:
            def setOptionValue(self, name, value):
                return ok

            def passModel(self, lp):
                return loaded

            def run(self):
                return ran

            def getModelStatus(self):
                return verdict

            def modelStatusToString(self, s):
                return real.modelStatusToString(s)

            def getInfo(self):
                return SimpleNamespace(
                    mip_node_count=7, mip_dual_bound=-4.0, mip_gap=0.25,
                    objective_function_value=math.inf if point is None else -point[0])

            def getSolution(self):
                return SimpleNamespace(col_value=point)

        monkeypatch.setattr(core, "_Highs", Stub)
        return get_backend("scipy").solve(m)

    sol = solve_as(status.kOptimal, [4.0])
    assert (sol.status, sol.objective, sol.bound, sol.gap, sol.nodes) == (
        "optimal", 4.0, 4.0, 0.25, 7)
    # a limit hit, with or without an incumbent; the model is maximized as
    # min -x, so the bound comes back with its sign
    for limit in (status.kTimeLimit, status.kIterationLimit):
        sol = solve_as(limit, [3.0])
        assert (sol.status, sol.objective, sol.bound, sol.gap, sol.nodes) == (
            "feasible", 3.0, 4.0, 0.25, 7)
        sol = solve_as(limit, None)
        assert (sol.status, sol.x, sol.objective, sol.bound, sol.gap, sol.nodes) == (
            "time_limit", None, None, 4.0, 0.25, 7)
    sol = solve_as(status.kInfeasible, None)
    assert (sol.status, sol.x, sol.nodes) == ("infeasible", None, 7)
    with pytest.raises(BackendError, match="unbounded"):
        solve_as(status.kUnbounded, None)
    for failed in (status.kUnboundedOrInfeasible, status.kModelError, status.kSolveError,
                   status.kInterrupt):
        with pytest.raises(BackendError, match="solver failed: "):
            solve_as(failed, None)
    # a model HiGHS will not load, or a run that fails, is never a verdict
    with pytest.raises(BackendError, match="HiGHS will not load the model"):
        solve_as(status.kInfeasible, None, loaded=error)
    with pytest.raises(BackendError, match="HiGHS fails: "):
        solve_as(status.kInfeasible, None, ran=error)


def test_a_coefficient_highs_refuses_raises():
    # HiGHS's large_matrix_value is 1e15: passModel fails on the model, and
    # that failure must not read as an infeasible verdict
    m = MipModel()
    b = m.add_binary("b")
    m.add_constr({b: 1e16}, "<=", 1.0)
    with pytest.raises(BackendError, match=r"largest row coefficient 1e\+16"):
        get_backend("scipy").solve(m)


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
    seen = _spy_highs(monkeypatch)
    m = MipModel()
    x = m.add_var("x", 0.0, 4.0, integer=True)
    y = m.add_var("y", 0.0, 4.0, integer=True)
    m.add_constr({x: 2.0, y: 2.0}, "<=", 5.0)
    m.set_objective({x: 1.0, y: 1.0}, sense="max")
    sol = get_backend("scipy").solve(m)
    assert sol.status == "optimal" and sol.objective == 2.0
    assert len(seen) == 1 and seen[0].runs == 1
    assert sol.nodes == seen[0].getInfo().mip_node_count
    assert isinstance(sol.nodes, int) and sol.nodes >= 0


def test_a_model_without_integers_has_no_node_count():
    m = MipModel()
    x = m.add_var("x", 0.0, 4.0)
    m.set_objective({x: 1.0}, sense="max")
    sol = get_backend("scipy").solve(m)
    assert (sol.status, sol.objective, sol.bound, sol.gap, sol.nodes) == (
        "optimal", 4.0, 4.0, 0.0, None)


def _infeasible_model() -> MipModel:
    m = MipModel()
    b = m.add_binary("b")
    m.add_constr({b: 1.0}, ">=", 2.0)
    return m


def test_infeasible_verdict_is_one_solver_run(monkeypatch):
    seen = _spy_highs(monkeypatch)
    sol = get_backend("scipy").solve(_infeasible_model(), time_limit=10.0)
    assert sol.status == "infeasible" and sol.x is None and sol.nodes == 0
    # HiGHS gets the budget less the array export's time
    assert len(seen) == 1 and seen[0].runs == 1
    assert 9.0 < seen[0].options["time_limit"] < 10.0
    assert "presolve" not in seen[0].options
    assert seen[0].options["presolve_rule_off"] == 0
    # the array export alone takes longer than a nanosecond: no HiGHS run
    sol = get_backend("scipy").solve(_infeasible_model(), time_limit=1e-9)
    assert sol.status == "time_limit" and sol.x is None
    assert len(seen) == 1


def test_presolve_rule_mask_reaches_highs(monkeypatch):
    seen = _spy_highs(monkeypatch)
    sol = get_backend("scipy").solve(_infeasible_model(),
                                     presolve_rule_off=PRESOLVE_AGGREGATOR)
    assert sol.status == "infeasible"
    assert seen[0].options["presolve_rule_off"] == PRESOLVE_AGGREGATOR == 1 << 12


def test_time_limit_verdict_without_incumbent_carries_nodes_and_bound():
    # the padded global-phase magic_small model finds its first word after
    # 0.25 s or more of root cuts and heuristics
    f = next(f for f in oracle_corpus() if f.name == "magic_small")
    p = SynthesisProblem(f.target, f.gate_set, P=f.P, phase_mode="global_phase",
                         cuts=CutSelection.from_names("identity"))
    model, _ = build_model(p)
    sol = get_backend("scipy").solve(model, time_limit=0.05)
    assert (sol.status, sol.x, sol.objective) == ("time_limit", None, None)
    assert isinstance(sol.nodes, int) and sol.nodes >= 0
    # a dual bound, once HiGHS has a finite one, lies at or below the 4-gate optimum
    assert sol.bound is None or sol.bound <= 4.0 + 1e-9
