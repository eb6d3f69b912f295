"""Solver-agnostic mixed-integer model container.

Variables, linear constraints, and the objective live here as plain arrays;
each row is stored once, row-wise (row starts, column ids, coefficients),
with its family, and backends consume the store via `to_arrays`.  The
container also measures a candidate point's violation of every bound and
row, family by family (used to re-verify solver output independently), and
serializes itself to LP format for debugging.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass

import numpy as np

_INF = math.inf
#: Family under which `check_point` reports rows added without one.
UNNAMED_FAMILY = "other"


@dataclass
class ModelArrays:
    """Dense vectors and the CSR matrix of a model: row r is at a_start[r]:a_start[r + 1]."""

    c: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    integrality: np.ndarray
    a_start: np.ndarray
    a_cols: np.ndarray
    a_vals: np.ndarray
    row_lb: np.ndarray
    row_ub: np.ndarray
    sense: str
    num_rows: int


class MipModel:
    """Incrementally built MIP: binaries, bounded continuous vars, linear rows."""

    def __init__(self, name: str = "model") -> None:
        self.name = name
        self.sense = "min"
        self._names: list[str] = []
        self._lb: list[float] = []
        self._ub: list[float] = []
        self._int: list[bool] = []
        self._start: list[int] = [0]
        self._cols: list[int] = []
        self._vals: list[float] = []
        self._row_lb: list[float] = []
        self._row_ub: list[float] = []
        self._row_family: list[str | None] = []
        self._obj: dict[int, float] = {}

    # -- variables ---------------------------------------------------------

    @property
    def num_vars(self) -> int:
        return len(self._names)

    @property
    def num_rows(self) -> int:
        return len(self._row_lb)

    @property
    def family_rows(self) -> dict[str, int]:
        """Rows per family, in order of first use; unnamed rows are left out."""
        return dict(Counter(f for f in self._row_family if f is not None))

    def add_var(self, name: str, lb: float = -_INF, ub: float = _INF,
                integer: bool = False) -> int:
        if lb > ub:
            raise ValueError(f"variable {name}: lb {lb} > ub {ub}")
        self._names.append(name)
        self._lb.append(float(lb))
        self._ub.append(float(ub))
        self._int.append(bool(integer))
        return len(self._names) - 1

    def add_binary(self, name: str) -> int:
        return self.add_var(name, 0.0, 1.0, integer=True)

    def integer_vars(self) -> np.ndarray:
        """Ids of the integer variables, ascending."""
        return np.flatnonzero(np.array(self._int, dtype=bool))

    def var_name(self, idx: int) -> str:
        return self._names[idx]

    def fix_var(self, idx: int, value: float) -> None:
        self._lb[idx] = float(value)
        self._ub[idx] = float(value)

    # -- constraints ---------------------------------------------------------

    def add_constr(self, coefs: dict[int, float], sense: str, rhs: float,
                   family: str | None = None) -> int:
        """One linear row.  `sense` is '<=', '>=', or '=='."""
        if sense == "<=":
            lo, hi = -_INF, float(rhs)
        elif sense == ">=":
            lo, hi = float(rhs), _INF
        elif sense == "==":
            lo = hi = float(rhs)
        else:
            raise ValueError(f"unknown sense {sense!r}")
        self._cols.extend(coefs)
        self._vals.extend(float(v) for v in coefs.values())
        self._start.append(len(self._cols))
        self._row_lb.append(lo)
        self._row_ub.append(hi)
        self._row_family.append(family)
        return len(self._row_lb) - 1

    def add_product_binary(self, w: int, z1: int, z2: int,
                           family: str | None = None) -> None:
        """Rows forcing w = z1*z2 for binaries (w bounded in [0,1])."""
        self.add_constr({w: 1.0, z1: -1.0}, "<=", 0.0, family)
        self.add_constr({w: 1.0, z2: -1.0}, "<=", 0.0, family)
        self.add_constr({w: 1.0, z1: -1.0, z2: -1.0}, ">=", -1.0, family)

    # -- objective -----------------------------------------------------------

    def set_objective(self, coefs: dict[int, float], sense: str = "min") -> None:
        if sense not in ("min", "max"):
            raise ValueError(f"objective sense must be min or max, got {sense!r}")
        self.sense = sense
        self._obj = {int(k): float(v) for k, v in coefs.items()}

    def add_objective_cutoff(self, value: float, family: str) -> int:
        """Row objective <= value of a minimization: worse points are cut off."""
        if self.sense != "min":
            raise ValueError("an objective cutoff needs a minimization")
        return self.add_constr(self._obj, "<=", value, family=family)

    def objective_value(self, x: np.ndarray) -> float:
        return float(sum(c * x[i] for i, c in self._obj.items()))

    # -- export / checking -----------------------------------------------------

    def to_arrays(self) -> ModelArrays:
        n = self.num_vars
        c = np.zeros(n)
        for i, v in self._obj.items():
            c[i] = v
        return ModelArrays(
            c=c,
            lb=np.array(self._lb),
            ub=np.array(self._ub),
            integrality=np.array(self._int, dtype=np.int64),
            a_start=np.array(self._start, dtype=np.int64),
            a_cols=np.array(self._cols, dtype=np.int64),
            a_vals=np.array(self._vals, dtype=float),
            row_lb=np.array(self._row_lb),
            row_ub=np.array(self._row_ub),
            sense=self.sense,
            num_rows=self.num_rows,
        )

    def check_point(self, x: np.ndarray) -> dict[str, float]:
        """Worst violation at point x, by row family.

        Variable bounds are reported under "bounds", integrality under
        "integrality", and rows added without a family under "other".  A
        satisfied family reads 0; a NaN entry reads as an infinite violation.
        """
        x = np.asarray(x, dtype=float)
        if x.shape != (self.num_vars,):
            raise ValueError(f"point has shape {x.shape}, expected ({self.num_vars},)")

        def worst(v: np.ndarray) -> float:
            return float(np.where(np.isnan(v), _INF, v).max(initial=0.0))

        out = {
            "bounds": worst(np.maximum(np.array(self._lb) - x, x - np.array(self._ub))),
            "integrality": worst(np.abs(x - np.round(x))[self.integer_vars()]),
        }
        rows = np.repeat(np.arange(self.num_rows), np.diff(self._start))
        terms = np.array(self._vals, dtype=float) * x[np.array(self._cols, dtype=np.int64)]
        ax = np.bincount(rows, weights=terms, minlength=self.num_rows)
        row_v = np.maximum(np.array(self._row_lb) - ax, ax - np.array(self._row_ub))
        fams = np.array([UNNAMED_FAMILY if f is None else f for f in self._row_family],
                        dtype=object)
        for fam in dict.fromkeys(fams):
            out[fam] = worst(row_v[fams == fam])
        return out

    def to_lp(self) -> str:
        """CPLEX-style LP text."""

        def nm(i: int) -> str:
            return re.sub(r"[^A-Za-z0-9_().,]", "_", self._names[i])

        def term(c: float, i: int) -> str:
            s = "+" if c >= 0 else "-"
            return f"{s} {abs(c):.17g} {nm(i)}"

        out = [f"\\ {self.name}"]
        out.append("Maximize" if self.sense == "max" else "Minimize")
        obj_terms = " ".join(term(c, i) for i, c in sorted(self._obj.items())) or "0 " + (
            nm(0) if self.num_vars else "x0")
        out.append(" obj: " + obj_terms)
        out.append("Subject To")
        for r, (s, e) in enumerate(zip(self._start, self._start[1:])):
            body = " ".join(term(v, c) for c, v in zip(self._cols[s:e], self._vals[s:e]))
            lo, hi = self._row_lb[r], self._row_ub[r]
            if lo == hi:
                out.append(f" c{r}: {body} = {lo:.17g}")
            elif hi < _INF:
                out.append(f" c{r}: {body} <= {hi:.17g}")
            else:
                out.append(f" c{r}: {body} >= {lo:.17g}")
        out.append("Bounds")
        for i in range(self.num_vars):
            lo, hi = self._lb[i], self._ub[i]
            if self._int[i] and lo == 0.0 and hi == 1.0:
                continue
            left = f"{lo:.17g}" if lo > -_INF else "-inf"
            right = f"{hi:.17g}" if hi < _INF else "+inf"
            out.append(f" {left} <= {nm(i)} <= {right}")
        bins = [nm(i) for i in range(self.num_vars)
                if self._int[i] and self._lb[i] == 0.0 and self._ub[i] == 1.0]
        gens = [nm(i) for i in range(self.num_vars)
                if self._int[i] and not (self._lb[i] == 0.0 and self._ub[i] == 1.0)]
        if bins:
            out.append("Binaries")
            out.append(" " + " ".join(bins))
        if gens:
            out.append("Generals")
            out.append(" " + " ".join(gens))
        out.append("End")
        return "\n".join(out) + "\n"


__all__ = ["MipModel", "ModelArrays"]
