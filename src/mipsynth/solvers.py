"""The MIP solve path: HiGHS through scipy.optimize.milp.

`get_backend("scipy")` is the one MIP solver.  Names in
ORACLE_BACKEND_NAMES route to exhaustive search, which the synthesis driver
dispatches itself.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .errors import BackendError
from .mip import MipModel

#: Relative MIP gap the scipy/HiGHS backend closes before it reports an
#: optimum; this is HiGHS's own default `mip_rel_gap`, passed explicitly.
DEFAULT_GAP_TOL = 1e-4

#: Backend names routed to exhaustive search instead of a MIP solver.
ORACLE_BACKEND_NAMES = frozenset({"oracle", "exhaustive"})


@dataclass
class Solution:
    """Outcome of one solve."""

    status: str  # optimal | feasible | infeasible | time_limit
    x: np.ndarray | None = None
    objective: float | None = None
    bound: float | None = None
    gap: float | None = None
    solve_seconds: float = 0.0
    message: str = ""
    #: relative gap the solver was allowed to leave open; the claimed
    #: objective may differ from the verified one by this much
    gap_tol: float = 0.0
    #: whether an infeasibility claim was re-checked without presolve
    presolve_retry: bool = False

    @property
    def has_point(self) -> bool:
        return self.x is not None


@dataclass
class BackendLimits:
    gap_tol: float = DEFAULT_GAP_TOL


class ScipyHighsBackend:
    """HiGHS branch-and-bound through scipy.optimize.milp.

    Deterministic and single-threaded, on linear objectives.
    """

    def __init__(self) -> None:
        self.limits = BackendLimits()

    def solve(self, model: MipModel, time_limit: float | None = None) -> Solution:
        from scipy.optimize import Bounds, LinearConstraint, milp
        from scipy.sparse import coo_matrix

        arr = model.to_arrays()
        sign = -1.0 if arr.sense == "max" else 1.0
        constraints = None
        if arr.num_rows:
            a = coo_matrix((arr.a_vals, (arr.a_rows, arr.a_cols)),
                           shape=(arr.num_rows, model.num_vars))
            constraints = LinearConstraint(a, arr.row_lb, arr.row_ub)
        gap_tol = float(self.limits.gap_tol)
        options: dict = {"disp": False, "mip_rel_gap": gap_tol}
        if time_limit is not None:
            options["time_limit"] = float(time_limit)

        def run(opts: dict):
            return milp(sign * arr.c, constraints=constraints,
                        integrality=arr.integrality,
                        bounds=Bounds(arr.lb, arr.ub), options=opts)

        t0 = time.perf_counter()
        res = run(options)
        retried = False
        if res.status == 2:
            # The bundled HiGHS presolve can misreport tight feasible models
            # as infeasible; accept an infeasibility claim only when it
            # survives a presolve-free retry inside the same time budget.
            retry = {**options, "presolve": False}
            if time_limit is not None:
                retry["time_limit"] = options["time_limit"] - (time.perf_counter() - t0)
                if retry["time_limit"] <= 0:
                    return Solution(status="time_limit",
                                    solve_seconds=time.perf_counter() - t0,
                                    message="no time left to confirm infeasibility "
                                            "without presolve", gap_tol=gap_tol)
            res = run(retry)
            retried = True
        dt = time.perf_counter() - t0

        bound = getattr(res, "mip_dual_bound", None)
        if bound is not None:
            bound = sign * float(bound) + arr.constant
        gap = getattr(res, "mip_gap", None)
        if gap is not None:
            gap = float(gap)
        x = None if res.x is None else np.asarray(res.x, dtype=float)
        obj = None if x is None else float(model.objective_value(x))

        if res.status == 0:
            status = "optimal"
            if gap is None:
                gap = 0.0
            if bound is None and obj is not None:
                bound = obj
        elif res.status == 1:
            status = "feasible" if x is not None else "time_limit"
        elif res.status == 2:
            status = "infeasible"
        elif res.status == 3:
            raise BackendError("solver reports an unbounded model; "
                               "every synthesis variable should carry finite bounds")
        else:
            raise BackendError(f"solver failed: {res.message}")
        return Solution(status=status, x=x, objective=obj, bound=bound, gap=gap,
                        solve_seconds=dt, message=str(res.message), gap_tol=gap_tol,
                        presolve_retry=retried)


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
    "ORACLE_BACKEND_NAMES", "DEFAULT_GAP_TOL",
]
