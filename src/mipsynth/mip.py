"""Solver-agnostic mixed-integer model container.

Variables, linear constraints, and the objective live here as plain arrays;
backends consume them via `to_arrays`.  The container also knows how to
measure a candidate point's violation of every bound and row, family by
family (used to re-verify solver output independently), and how to serialize
itself to LP format for debugging.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

_INF = math.inf
#: Family under which `violations` reports rows added without one.
UNNAMED_FAMILY = "other"


@dataclass
class ModelArrays:
    """Dense/COO view of a model, ready for any array-based backend."""

    c: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    integrality: np.ndarray
    a_rows: np.ndarray
    a_cols: np.ndarray
    a_vals: np.ndarray
    row_lb: np.ndarray
    row_ub: np.ndarray
    sense: str
    constant: float
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
        self._row_cols: list[list[int]] = []
        self._row_vals: list[list[float]] = []
        self._row_lb: list[float] = []
        self._row_ub: list[float] = []
        self._row_family: list[str] = []
        self._obj: dict[int, float] = {}
        self._constant = 0.0
        self.family_rows: dict[str, int] = {}

    # -- variables ---------------------------------------------------------

    @property
    def num_vars(self) -> int:
        return len(self._names)

    @property
    def num_rows(self) -> int:
        return len(self._row_lb)

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
        cols = list(coefs.keys())
        vals = [float(coefs[c]) for c in cols]
        if sense == "<=":
            lo, hi = -_INF, float(rhs)
        elif sense == ">=":
            lo, hi = float(rhs), _INF
        elif sense == "==":
            lo = hi = float(rhs)
        else:
            raise ValueError(f"unknown sense {sense!r}")
        self._row_cols.append(cols)
        self._row_vals.append(vals)
        self._row_lb.append(lo)
        self._row_ub.append(hi)
        self._row_family.append(UNNAMED_FAMILY if family is None else family)
        if family is not None:
            self.family_rows[family] = self.family_rows.get(family, 0) + 1
        return len(self._row_lb) - 1

    def add_mccormick(self, beta: int, x: int, z: int, bound: float = 1.0,
                      family: str | None = None) -> None:
        """Rows forcing beta = z*x for binary z and x in [-bound, bound]."""
        u = float(bound)
        self.add_constr({beta: 1.0, z: -u}, "<=", 0.0, family)
        self.add_constr({beta: 1.0, z: u}, ">=", 0.0, family)
        self.add_constr({beta: 1.0, x: -1.0, z: u}, "<=", u, family)
        self.add_constr({beta: 1.0, x: -1.0, z: -u}, ">=", -u, family)

    def add_product_binary(self, w: int, z1: int, z2: int,
                           family: str | None = None) -> None:
        """Rows forcing w = z1*z2 for binaries (w bounded in [0,1])."""
        self.add_constr({w: 1.0, z1: -1.0}, "<=", 0.0, family)
        self.add_constr({w: 1.0, z2: -1.0}, "<=", 0.0, family)
        self.add_constr({w: 1.0, z1: -1.0, z2: -1.0}, ">=", -1.0, family)

    # -- objective -----------------------------------------------------------

    def set_objective(self, coefs: dict[int, float], sense: str = "min",
                      constant: float = 0.0) -> None:
        if sense not in ("min", "max"):
            raise ValueError(f"objective sense must be min or max, got {sense!r}")
        self.sense = sense
        self._obj = {int(k): float(v) for k, v in coefs.items()}
        self._constant = float(constant)

    def objective_value(self, x: np.ndarray) -> float:
        v = self._constant
        v += sum(c * x[i] for i, c in self._obj.items())
        return float(v)

    # -- export / checking -----------------------------------------------------

    def _coo(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Row ids, column ids and values of every nonzero, row by row."""
        lengths = [len(cols) for cols in self._row_cols]
        rows = np.repeat(np.arange(self.num_rows, dtype=np.int64), lengths)
        cols = np.fromiter((c for cs in self._row_cols for c in cs),
                           dtype=np.int64, count=len(rows))
        vals = np.fromiter((v for vs in self._row_vals for v in vs),
                           dtype=float, count=len(rows))
        return rows, cols, vals

    def to_arrays(self) -> ModelArrays:
        n = self.num_vars
        c = np.zeros(n)
        for i, v in self._obj.items():
            c[i] = v
        rows, cols, vals = self._coo()
        return ModelArrays(
            c=c,
            lb=np.array(self._lb),
            ub=np.array(self._ub),
            integrality=np.array(self._int, dtype=np.int64),
            a_rows=rows,
            a_cols=cols,
            a_vals=vals,
            row_lb=np.array(self._row_lb),
            row_ub=np.array(self._row_ub),
            sense=self.sense,
            constant=self._constant,
            num_rows=self.num_rows,
        )

    def violations(self, x: np.ndarray) -> dict[str, float]:
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
        rows, cols, vals = self._coo()
        ax = np.bincount(rows, weights=vals * x[cols], minlength=self.num_rows)
        row_v = np.maximum(np.array(self._row_lb) - ax, ax - np.array(self._row_ub))
        fams = np.array(self._row_family, dtype=object)
        for fam in dict.fromkeys(self._row_family):
            out[fam] = worst(row_v[fams == fam])
        return out

    def check_point(self, x: np.ndarray) -> float:
        """Max violation of bounds, integrality, and rows at x."""
        return max(self.violations(x).values())

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
        if self._constant:
            obj_terms += f" + {self._constant:.17g}"
        out.append(" obj: " + obj_terms)
        out.append("Subject To")
        for r, (cols, vals) in enumerate(zip(self._row_cols, self._row_vals)):
            body = " ".join(term(v, c) for c, v in zip(cols, vals))
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
