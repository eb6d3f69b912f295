"""The MIP solve path: HiGHS through the object scipy ships for it.

`get_backend("scipy")` is the one MIP solver.  It runs HiGHS through
scipy's private bindings (HIGHS_MODULE), which give what
`scipy.optimize.milp` hides: single presolve rules, the dual bound and node
count of every verdict, and load errors apart from verdicts.  A verdict
(optimal, feasible, infeasible or out of time) is what a single HiGHS run
reports; nothing is re-solved.  HiGHS never sees a fixed integer column:
each is substituted out first, and a model with nothing left to choose is
decided at its one point.  Names in ORACLE_BACKEND_NAMES route to
exhaustive search, which the synthesis driver dispatches itself.
"""

from __future__ import annotations

import importlib
import math
import os
import sys
import time
from dataclasses import dataclass, replace

import numpy as np

from .errors import BackendError
from .mip import MipModel, ModelArrays

#: Relative MIP gap HiGHS closes before it reports an optimum; this is its
#: own default `mip_rel_gap`, passed explicitly.  The claimed objective may
#: differ from the verified one by this much.
DEFAULT_GAP_TOL = 1e-4

#: HiGHS's default primal_feasibility_tolerance: how far a row may be off at
#: a point HiGHS calls feasible.
PRIMAL_FEASIBILITY_TOL = 1e-7

#: Backend names routed to exhaustive search instead of a MIP solver.
ORACLE_BACKEND_NAMES = frozenset({"oracle", "exhaustive"})

#: HiGHS's presolve rule bit of the aggregator (kPresolveRuleAggregator), for
#: `solve`'s presolve_rule_off.  Confirmed on HiGHS 1.12.0: with
#: presolve_rule_logging and log_dev_level 1, a rung's LP relaxation logs an
#: "Aggregator" row in its presolve rule table, and this bit alone removes it.
PRESOLVE_AGGREGATOR = 1 << 12

#: scipy's private HiGHS bindings and the names `solve` reads from them.  The
#: module is imported on first use, not with mipsynth: the import takes about
#: half a second.
HIGHS_MODULE = "scipy.optimize._highspy._core"
HIGHS_NAMES = ("_Highs", "HighsLp", "HighsModelStatus", "HighsStatus",
               "HighsVarType", "MatrixFormat")


def highs_core():
    """The module of HIGHS_MODULE, or BackendError if scipy moved a name."""
    try:
        core = importlib.import_module(HIGHS_MODULE)
    except ImportError as exc:
        raise BackendError(f"this scipy has no {HIGHS_MODULE}, the HiGHS bindings "
                           "the MIP backend runs") from exc
    missing = [name for name in HIGHS_NAMES if not hasattr(core, name)]
    if missing:
        raise BackendError(f"{HIGHS_MODULE} has no {', '.join(missing)}; "
                           "the MIP backend needs a scipy that ships them")
    return core


@dataclass
class Solution:
    """Outcome of one solve: HiGHS's verdict from a single run."""

    status: str  # optimal | feasible | infeasible | time_limit
    x: np.ndarray | None = None
    objective: float | None = None
    bound: float | None = None
    gap: float | None = None
    solve_seconds: float = 0.0
    #: branch-and-bound nodes HiGHS explored (its mip_node_count); None for
    #: a model without integer variables
    nodes: int | None = None


def _finite(value: float) -> float | None:
    return float(value) if math.isfinite(value) else None


def _without_fixed_integers(arr: ModelArrays) -> tuple[ModelArrays, np.ndarray, np.ndarray]:
    """The model with its fixed integer columns substituted out.

    HiGHS can crash on a fixed binary with the presolve aggregator off: a
    ladder rung's identity selections (z = 0) made run() end in SIGSEGV on
    {X[1], S[2], H[1], X[1] S[2] as one gate}.  Each fixed integer column's
    value moves into the row bounds, and its objective term into HiGHS's
    offset.  Fixed continuous columns, such as the span rows' structural
    zeros, stay: substituting them too took the padded linearized-fidelity
    model of T on the weaves at P = 5 from 0.43-0.51 s to 0.68-0.94 s on a
    2-vCPU machine.  Returns
    the reduced arrays, the ids of the columns kept and the full point with
    every fixed integer at its value (0 elsewhere).
    """
    fixed = (arr.integrality != 0) & (arr.lb == arr.ub)
    x0 = np.where(fixed, arr.lb, 0.0)
    rows = np.repeat(np.arange(arr.num_rows), np.diff(arr.a_start))
    kept = ~fixed[arr.a_cols]
    shift = np.bincount(rows, weights=arr.a_vals * x0[arr.a_cols], minlength=arr.num_rows)
    free = np.flatnonzero(~fixed)
    reduced = replace(
        arr, c=arr.c[free], lb=arr.lb[free], ub=arr.ub[free],
        integrality=arr.integrality[free],
        a_start=np.concatenate([[0], np.cumsum(np.bincount(rows[kept],
                                                           minlength=arr.num_rows))]),
        a_cols=(np.cumsum(~fixed) - 1)[arr.a_cols[kept]], a_vals=arr.a_vals[kept],
        row_lb=arr.row_lb - shift, row_ub=arr.row_ub - shift)
    return reduced, free, x0


def _fixed_point_verdict(model: MipModel, x0: np.ndarray) -> Solution:
    """The verdict on a model whose every column is a fixed integer.

    HiGHS reads a model without columns as empty and decides nothing, so
    the one point x0 is checked here: optimal when every row holds within
    HiGHS's primal feasibility tolerance, infeasible otherwise.
    """
    if max(model.check_point(x0).values()) > PRIMAL_FEASIBILITY_TOL:
        return Solution(status="infeasible", nodes=0)
    obj = model.objective_value(x0)
    return Solution(status="optimal", x=x0, objective=obj, bound=obj, gap=0.0, nodes=0)


class ScipyHighsBackend:
    """HiGHS branch and bound on the model's rows, less its fixed integers.

    Deterministic and single-threaded, on linear objectives.  Each solve is
    one HiGHS run at relative gap DEFAULT_GAP_TOL, and its verdict,
    infeasible included, is that run's.
    """

    def solve(self, model: MipModel, time_limit: float | None = None, *,
              presolve_rule_off: int = 0) -> Solution:
        """One HiGHS run; `time_limit` covers the array export and the run.

        With no time left after the export, the verdict is time_limit and
        HiGHS is not called.  `presolve_rule_off` is HiGHS's option of that
        name: a bit mask of presolve reductions left out.  A model HiGHS
        will not load or a run that fails raises BackendError; it is never
        read as a verdict.
        """
        core = highs_core()
        start = time.perf_counter()
        arr = model.to_arrays()
        if time_limit is not None:
            time_limit -= time.perf_counter() - start
            if time_limit <= 0:
                return Solution(status="time_limit")
        sign = -1.0 if arr.sense == "max" else 1.0
        arr, free, x0 = _without_fixed_integers(arr)
        if not free.size:
            return _fixed_point_verdict(model, x0)
        n, m = free.size, arr.num_rows
        lp = core.HighsLp()
        lp.num_col_, lp.num_row_ = n, m
        lp.col_cost_, lp.col_lower_, lp.col_upper_ = sign * arr.c, arr.lb, arr.ub
        lp.offset_ = sign * model.objective_value(x0)
        lp.row_lower_, lp.row_upper_ = arr.row_lb, arr.row_ub
        mat = lp.a_matrix_
        mat.format_ = core.MatrixFormat.kRowwise
        mat.num_col_, mat.num_row_ = n, m
        mat.start_, mat.index_, mat.value_ = arr.a_start, arr.a_cols, arr.a_vals
        lp.integrality_ = [core.HighsVarType(int(k)) for k in arr.integrality]

        highs = core._Highs()
        highs.setOptionValue("output_flag", False)
        highs.setOptionValue("mip_rel_gap", DEFAULT_GAP_TOL)
        highs.setOptionValue("presolve_rule_off", presolve_rule_off)
        if time_limit is not None:
            highs.setOptionValue("time_limit", time_limit)

        t0 = time.perf_counter()
        # HiGHS writes some diagnostics straight to file descriptor 1 even
        # with output_flag off; keep them out of output printed on stdout.
        sys.stdout.flush()
        saved, devnull = os.dup(1), os.open(os.devnull, os.O_WRONLY)
        try:
            os.dup2(devnull, 1)
            loaded = highs.passModel(lp) != core.HighsStatus.kError
            ran = loaded and highs.run() != core.HighsStatus.kError
        finally:
            os.dup2(saved, 1)
            os.close(saved)
            os.close(devnull)
        dt = time.perf_counter() - t0
        if not loaded:
            largest = np.abs(arr.a_vals).max(initial=0.0)
            raise BackendError(f"HiGHS will not load the model (largest row "
                               f"coefficient {largest:g})")
        verdict = highs.getModelStatus()
        if not ran:
            raise BackendError(f"HiGHS fails: {highs.modelStatusToString(verdict)}")

        info = highs.getInfo()
        nodes = bound = gap = None
        if arr.integrality.any():
            nodes = int(info.mip_node_count)
            bound, gap = _finite(sign * info.mip_dual_bound), _finite(info.mip_gap)
        x = obj = None
        if math.isfinite(info.objective_function_value):
            x = x0.copy()
            x[free] = highs.getSolution().col_value
            obj = float(model.objective_value(x))

        codes = core.HighsModelStatus
        if verdict == codes.kOptimal:
            status = "optimal"
            gap = 0.0 if gap is None else gap
            bound = obj if bound is None else bound
        elif verdict in (codes.kTimeLimit, codes.kIterationLimit):
            status = "feasible" if x is not None else "time_limit"
        elif verdict == codes.kInfeasible:
            status = "infeasible"
        elif verdict == codes.kUnbounded:
            raise BackendError("solver reports an unbounded model; "
                               "every synthesis variable should carry finite bounds")
        else:
            raise BackendError(f"solver failed: {highs.modelStatusToString(verdict)}")
        return Solution(status=status, x=x, objective=obj, bound=bound, gap=gap,
                        solve_seconds=dt, nodes=nodes)


def is_oracle_backend(name: str) -> bool:
    return name.lower() in ORACLE_BACKEND_NAMES


def get_backend(name: str) -> ScipyHighsBackend:
    if is_oracle_backend(name):
        raise BackendError(
            f"backend {name!r} performs exhaustive search and is dispatched by the "
            "synthesis driver, not through the MIP solver interface")
    if name.lower() != "scipy":
        raise BackendError(
            f"unknown backend {name!r}; available: exhaustive, oracle, scipy")
    return ScipyHighsBackend()


__all__ = [
    "Solution", "ScipyHighsBackend", "get_backend", "is_oracle_backend",
    "ORACLE_BACKEND_NAMES", "DEFAULT_GAP_TOL", "PRESOLVE_AGGREGATOR",
]
