"""The MIP solve path: HiGHS through scipy.optimize.milp.

`get_backend("scipy")` is the one MIP solver.  A verdict (optimal, feasible,
infeasible or out of time) is what a single HiGHS run reports; nothing is
re-solved.  Names in ORACLE_BACKEND_NAMES route to exhaustive search, which
the synthesis driver dispatches itself.
"""

from __future__ import annotations

import os
import sys
import time
from dataclasses import dataclass

import numpy as np

from .errors import BackendError
from .mip import MipModel

#: Relative MIP gap HiGHS closes before it reports an optimum; this is its
#: own default `mip_rel_gap`, passed explicitly.  The claimed objective may
#: differ from the verified one by this much.
DEFAULT_GAP_TOL = 1e-4

#: Backend names routed to exhaustive search instead of a MIP solver.
ORACLE_BACKEND_NAMES = frozenset({"oracle", "exhaustive"})


@dataclass
class Solution:
    """Outcome of one solve: HiGHS's verdict from a single run."""

    status: str  # optimal | feasible | infeasible | time_limit
    x: np.ndarray | None = None
    objective: float | None = None
    bound: float | None = None
    gap: float | None = None
    solve_seconds: float = 0.0
    #: branch-and-bound nodes HiGHS explored (its mip_node_count)
    nodes: int | None = None


class ScipyHighsBackend:
    """HiGHS branch-and-bound through scipy.optimize.milp.

    Deterministic and single-threaded, on linear objectives.  Each solve is
    one `milp` call at relative gap DEFAULT_GAP_TOL, and its verdict,
    infeasible included, is that run's.
    """

    def solve(self, model: MipModel, time_limit: float | None = None) -> Solution:
        """One HiGHS run; `time_limit` covers the array export and the run.

        With no time left after the export, the verdict is time_limit and
        HiGHS is not called.
        """
        from scipy.optimize import Bounds, LinearConstraint, milp
        from scipy.sparse import coo_matrix

        start = time.perf_counter()
        arr = model.to_arrays()
        if time_limit is not None:
            time_limit -= time.perf_counter() - start
            if time_limit <= 0:
                return Solution(status="time_limit")
        sign = -1.0 if arr.sense == "max" else 1.0
        constraints = None
        if arr.num_rows:
            a = coo_matrix((arr.a_vals, (arr.a_rows, arr.a_cols)),
                           shape=(arr.num_rows, model.num_vars))
            constraints = LinearConstraint(a, arr.row_lb, arr.row_ub)
        options: dict = {"disp": False, "mip_rel_gap": DEFAULT_GAP_TOL}
        if time_limit is not None:
            options["time_limit"] = time_limit

        t0 = time.perf_counter()
        # HiGHS writes some diagnostics straight to file descriptor 1 even
        # with disp=False; keep them out of output printed on stdout.
        sys.stdout.flush()
        saved, devnull = os.dup(1), os.open(os.devnull, os.O_WRONLY)
        try:
            os.dup2(devnull, 1)
            res = milp(sign * arr.c, constraints=constraints,
                       integrality=arr.integrality,
                       bounds=Bounds(arr.lb, arr.ub), options=options)
        finally:
            os.dup2(saved, 1)
            os.close(saved)
            os.close(devnull)
        dt = time.perf_counter() - t0

        bound = getattr(res, "mip_dual_bound", None)
        if bound is not None:
            bound = sign * float(bound)
        gap = getattr(res, "mip_gap", None)
        if gap is not None:
            gap = float(gap)
        nodes = getattr(res, "mip_node_count", None)
        if nodes is not None:
            nodes = int(nodes)
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
    "ORACLE_BACKEND_NAMES", "DEFAULT_GAP_TOL",
]
