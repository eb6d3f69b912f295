"""Backend layer: turn a MipModel into a Solution via a concrete solver.

A backend declares capabilities; models carrying features outside those
capabilities come back with status "unsupported" so the caller can pick a
fallback route instead of crashing.  Time limits can be overridden globally
through the MIPSYNTH_TIME_LIMIT environment variable.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import BackendError
from .mip import MipModel

#: Environment variable that, when set, overrides every solve's time limit.
TIME_LIMIT_ENV = "MIPSYNTH_TIME_LIMIT"

#: Relative MIP gap the scipy/HiGHS backend closes before it reports an
#: optimum; this is HiGHS's own default `mip_rel_gap`, passed explicitly.
DEFAULT_GAP_TOL = 1e-4

#: Backend names routed to exhaustive search instead of a MIP solver.
ORACLE_BACKEND_NAMES = frozenset({"oracle", "exhaustive"})


@dataclass
class Solution:
    """Outcome of one solve."""

    status: str  # optimal | feasible | infeasible | time_limit | unsupported
    x: np.ndarray | None = None
    objective: float | None = None
    bound: float | None = None
    gap: float | None = None
    solve_seconds: float = 0.0
    message: str = ""
    #: relative gap the solver was allowed to leave open; the claimed
    #: objective may differ from the verified one by this much
    gap_tol: float = 0.0

    @property
    def has_point(self) -> bool:
        return self.x is not None


@dataclass(frozen=True)
class BackendCapabilities:
    supports_quadratic_objective: bool = False


@dataclass
class BackendLimits:
    time_limit_s: float | None = None
    gap_tol: float = DEFAULT_GAP_TOL


class SolverBackend:
    """Interface every MIP backend implements."""

    name: str = "abstract"
    capabilities: BackendCapabilities = BackendCapabilities()

    def __init__(self) -> None:
        self.limits = BackendLimits()

    def solve(self, model: MipModel, time_limit: float | None = None,
              verbose: bool = False) -> Solution:
        raise NotImplementedError


def effective_time_limit(time_limit: float | None) -> float | None:
    env = os.environ.get(TIME_LIMIT_ENV)
    if env is None:
        return time_limit
    try:
        return float(env)
    except ValueError:
        raise BackendError(f"{TIME_LIMIT_ENV} must be a number, got {env!r}") from None


class ScipyHighsBackend(SolverBackend):
    """HiGHS branch-and-bound through scipy.optimize.milp.

    Deterministic and single-threaded.  Linear objectives only; quadratic
    models are reported as unsupported.
    """

    name = "scipy"
    capabilities = BackendCapabilities()

    def solve(self, model: MipModel, time_limit: float | None = None,
              verbose: bool = False) -> Solution:
        from scipy.optimize import Bounds, LinearConstraint, milp
        from scipy.sparse import coo_matrix

        if model.has_quadratic_objective:
            return Solution(status="unsupported",
                            message="quadratic objective not supported by scipy backend")
        arr = model.to_arrays()
        sign = -1.0 if arr.sense == "max" else 1.0
        constraints = None
        if arr.num_rows:
            a = coo_matrix((arr.a_vals, (arr.a_rows, arr.a_cols)),
                           shape=(arr.num_rows, model.num_vars))
            constraints = LinearConstraint(a, arr.row_lb, arr.row_ub)
        options: dict = {"disp": bool(verbose)}
        limit = effective_time_limit(time_limit if time_limit is not None
                                     else self.limits.time_limit_s)
        if limit is not None:
            options["time_limit"] = float(limit)
        gap_tol = float(self.limits.gap_tol)
        options["mip_rel_gap"] = gap_tol
        t0 = time.perf_counter()
        res = milp(sign * arr.c, constraints=constraints,
                   integrality=arr.integrality,
                   bounds=Bounds(arr.lb, arr.ub), options=options)
        if res.status == 2:
            # The bundled HiGHS presolve can misreport tight feasible models
            # as infeasible; accept an infeasibility claim only when it
            # survives a presolve-free retry.
            res = milp(sign * arr.c, constraints=constraints,
                       integrality=arr.integrality,
                       bounds=Bounds(arr.lb, arr.ub),
                       options={**options, "presolve": False})
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
                        solve_seconds=dt, message=str(res.message), gap_tol=gap_tol)


_REGISTRY: dict[str, type[SolverBackend]] = {
    "scipy": ScipyHighsBackend,
    "highs": ScipyHighsBackend,
}


def available_backends() -> list[str]:
    return sorted(set(_REGISTRY) | set(ORACLE_BACKEND_NAMES))


def is_oracle_backend(name: str) -> bool:
    return name.lower() in ORACLE_BACKEND_NAMES


def get_backend(name: str) -> SolverBackend:
    key = name.lower()
    if is_oracle_backend(key):
        raise BackendError(
            f"backend {name!r} performs exhaustive search and is dispatched by the "
            "synthesis driver, not through the MIP solver interface")
    cls = _REGISTRY.get(key)
    if cls is None:
        raise BackendError(
            f"unknown backend {name!r}; available: {', '.join(available_backends())}")
    return cls()


def register_backend(name: str, cls: type[SolverBackend]) -> None:
    _REGISTRY[name.lower()] = cls


__all__ = [
    "Solution", "SolverBackend", "ScipyHighsBackend",
    "get_backend", "register_backend", "available_backends",
    "is_oracle_backend", "effective_time_limit",
    "TIME_LIMIT_ENV", "ORACLE_BACKEND_NAMES", "DEFAULT_GAP_TOL",
]
