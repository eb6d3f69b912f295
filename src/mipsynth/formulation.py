"""Synthesis model: gate selection, cumulative products, targets, objectives.

A circuit of at most P gates is encoded by one-hot binaries z[g,p].  The
cumulative product Ghat_p = G_{g_1} ... G_{g_p} is stored by its real and
imaginary parts, 2n^2 continuous variables per position for n = 2^Q, and
every row that pins a chain position to data (the first step, the target,
the hindsight cuts) is written by ModelHandles.pin_rows.  Ghat_1 is the
selected gate, sum_g z[g,1] G_g.  Every copy step uses the disaggregated
(convex-hull) form of the one-hot product: each gate g gets a copy V[p,g]
of the product the step starts from, with -z[g,p] <= V[p,g] <= z[g,p], the
copies sum to that product, and the product the step defines is
sum_g V[p,g] M_g in complex arithmetic, split into real and imaginary rows.
For binary z the copy of the chosen gate is the product and every other
copy is zero, so each step is exact; its relaxation is never weaker than
per-gate McCormick rows (Balas 1985; Jeroslow and Lowe 1984).

Objectives with a target T meet it halfway, as the exhaustive search's meet
in the middle does (Amy, Maslov, Mosca and Roetteler 2013).  The chain runs
forward from I to Ghat_m, m = ceil(P/2), with M_g = G_g, and backward from
the target to Ghat_m, with M_g = G_g^dag: Ghat_{P-1} = sum_g z[g,P] T G_g^dag,
then Ghat_{p-1} = sum_g V[p,g] G_g^dag for P > p > m.  Ghat_m gets both
definitions, and that pair links the halves; Ghat_P is pinned to T.  Every
position has exactly one step, so P - 2 steps carry copies.  In global
phase mode the backward first step is Ghat_{P-1} = sum_g (r_g + i s_g) T
G_g^dag with sum_g r_g = r, sum_g s_g = s and |r_g|, |s_g| <= z[g,P]: the
phase (r + i s) split the way the copies split the product, the convex hull
of rows switched on the last gate, with no big-M (Balas 1985).  At every
integer point Ghat_p is the product of the first p gates on both halves.
Objectives without a target run the chain forward to Ghat_P.

Four objectives share that base: weighted gate count, depth, and two
approximate-compilation objectives that drop the target equality.  The
fifth, exact fidelity, is quadratic and non-convex; it is always answered by
exhaustive search.  Depth adds one binary per position that marks where a
new layer opens.  Layers are contiguous runs of positions whose gates act
on disjoint qubits, the greedy rule gates.next_layer applies in time order,
so the fewest breaks for a fixed gate choice is that circuit's depth, 0 for
a circuit with no gate on any qubit.

Extraction never trusts the solver.  It reads only the integer choices from
the solver point, recomputes every continuous variable exactly from the
chosen gates (the polished point), checks every model row there, and compares
the solver's claimed objective with the polished one before a result is
returned.
"""

from __future__ import annotations

import itertools
import time
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from . import oracle as oracle_mod
from .cuts import CutSelection, apply_cuts
from .encoding import fidelity, require_unitary, su_normalize
from .errors import ConfigError, DimensionError, ModelIntegrityError
from .gates import (GateSet, GateSpec, effective_gate_set, next_layer,
                    sequence_product)
from .mip import MipModel
from .oracle import checked_time_limit
from .solvers import DEFAULT_GAP_TOL, Solution, get_backend, is_oracle_backend

OBJECTIVES = ("weighted_gate_count", "depth", "linearized_fidelity",
              "frobenius_oa", "exact_fidelity")
PHASE_MODES = ("exact", "global_phase")
#: Objectives that constrain the final product to the target.
TARGET_OBJECTIVES = ("weighted_gate_count", "depth")
#: How far an integer variable may sit from an integer at the solver point
#: (HiGHS's default mip_feasibility_tolerance).
INTEGRALITY_TOL = 1e-6
#: Rows that polishing makes true by construction must hold this tightly.
POLISH_TOL = 1e-9
#: Row families that tie the circuit to input data: the target equality and
#: the backward chain's first step from the target (both `target`), the
#: hindsight cuts that restate it, and the Frobenius epsilon-box.  They hold at
#: the polished point only as tightly as the data and HiGHS's feasibility
#: tolerance allow, so they are held to that tolerance and the residual is
#: recorded in the certificate.
DATA_FAMILIES = ("target", "frobenius_box", "cut_hc2")
DATA_TOL = 1e-6


@dataclass
class SynthesisProblem:
    """One synthesis instance: target, library, budgets, objective, options."""

    target: np.ndarray
    gate_set: GateSet
    P: int
    D: int | None = None
    objective: str = "weighted_gate_count"
    weights: np.ndarray | None = None
    phase_mode: str = "exact"
    cuts: CutSelection = field(default_factory=CutSelection)
    epsilon: float = 0.125
    K: int = 5

    def __post_init__(self) -> None:
        self.target = np.asarray(self.target, dtype=complex)
        require_unitary(self.target)
        if self.target.shape != (self.gate_set.dim, self.gate_set.dim):
            raise DimensionError(
                f"target is {self.target.shape[0]}x{self.target.shape[1]} but the "
                f"gate set acts on dimension {self.gate_set.dim}")
        if self.P < 1:
            raise ConfigError("P must be >= 1")
        if self.D is None:
            self.D = self.P
        if not 1 <= self.D <= self.P:
            raise ConfigError(f"D must be in [1, P], got D={self.D}, P={self.P}")
        if self.objective not in OBJECTIVES:
            raise ConfigError(f"objective must be one of {OBJECTIVES}, "
                              f"got {self.objective!r}")
        if self.phase_mode not in PHASE_MODES:
            raise ConfigError(f"phase_mode must be one of {PHASE_MODES}, "
                              f"got {self.phase_mode!r}")
        w = np.ones(len(self.gate_set)) if self.weights is None else np.asarray(
            self.weights, dtype=float).copy()
        if w.shape != (len(self.gate_set),):
            raise ConfigError(f"weights needs one entry per gate "
                              f"({len(self.gate_set)}), got shape {w.shape}")
        if np.any(w < 0):
            raise ConfigError("gate weights must be non-negative")
        w[self.gate_set.identity_index] = 0.0
        self.weights = w
        if not 0.0 < self.epsilon <= 1.0:
            raise ConfigError(f"epsilon must lie in (0, 1], got {self.epsilon}")
        if self.K < 2:
            raise ConfigError(f"K must be >= 2, got {self.K}")
        # order-sensitive cuts cannot survive a depth objective
        if self.objective == "depth" and (self.cuts.commuting_pairs
                                          or self.cuts.equivalent_patterns):
            warnings.warn("commuting/equivalent-pattern cuts are invalid under the "
                          "depth objective and were disabled", stacklevel=2)
            self.cuts = replace(self.cuts, commuting_pairs=False,
                                equivalent_patterns=False)

    @property
    def num_qubits(self) -> int:
        return self.gate_set.num_qubits

    def targets_equality(self) -> bool:
        return self.objective in TARGET_OBJECTIVES


@dataclass
class ModelHandles:
    """Variable ids of one built model, by meaning."""

    z: np.ndarray  # (|G|, P) binaries
    ghat: np.ndarray  # (P, 2, n, n) Re (index 0) and Im (1) of Ghat_p
    # (P+1, |G|, 2, n, n) Re/Im copies V[p,g] of the step at gate position p:
    # of Ghat_{p-1} for 2 <= p <= meet, of Ghat_p for meet < p < P
    v: np.ndarray | None
    # Ghat_meet is where the forward and backward halves link; P when the
    # chain runs forward only (no target)
    meet: int
    eff_target: np.ndarray  # complex target the model constrains against
    eff_gate_mats: np.ndarray  # (|G|, n, n) complex effective gate matrices
    su_applied: bool
    breaks: np.ndarray | None = None  # (P,) binaries, 1 where a layer opens
    r: int | None = None
    s: int | None = None
    rs_split: np.ndarray | None = None  # (|G|, 2) ids of r_g and s_g
    alpha: int | None = None
    e: np.ndarray | None = None  # (2, n, n) Re/Im deviations from the target
    ehat: np.ndarray | None = None  # (2, n, n) squared-deviation estimators

    def pin_rows(self, model: MipModel, pos0: int,
                 terms: list[tuple[int | None, np.ndarray]], family: str) -> None:
        """Rows Ghat after pos0 + 1 gates = sum_k x[var_k] M_k, one per Re/Im entry.

        `terms` pairs a variable id, or None for a constant, with a complex
        matrix M_k; pos0 = -1 addresses the empty product, the identity.
        """
        n = self.eff_target.shape[0]
        parts = [(var, _parts(m)) for var, m in terms]
        consts = [m for var, m in parts if var is None] or [np.zeros((2, n, n))]
        rhs = sum(consts[1:], consts[0])  # not 0 + ...: a -0.0 entry stays -0.0
        if pos0 < 0:
            rhs = rhs - _parts(np.eye(n))
        for idx in np.ndindex(2, n, n):
            coefs = {} if pos0 < 0 else {int(self.ghat[pos0][idx]): 1.0}
            for var, m in parts:
                if var is not None and abs(m[idx]) > 1e-14:
                    coefs[var] = coefs.get(var, 0.0) - float(m[idx])
            model.add_constr(coefs, "==", float(rhs[idx]), family=family)


@dataclass
class SynthesisResult:
    """Verified outcome of one synthesis run."""

    status: str  # optimal | feasible | infeasible | time_limit
    sequence: list[GateSpec] = field(default_factory=list)
    gate_indices: list[int] = field(default_factory=list)
    objective_value: float | None = None
    realized_unitary: np.ndarray | None = None
    fidelity_to_target: float | None = None
    alpha: float | None = None
    beta: float | None = None
    error_fro_sq: float | None = None
    depth_schedule: dict[int, int] | None = None
    depth: int | None = None
    certificate: dict = field(default_factory=dict)
    solve_seconds: float = 0.0
    phase_factor: complex | None = None  # realized global phase in GP mode

    @property
    def feasible(self) -> bool:
        return self.status in ("optimal", "feasible")


def effective_instance(problem: SynthesisProblem) -> tuple[np.ndarray, np.ndarray, bool]:
    """Target and gate matrices the model actually constrains.

    Exact-phase target matching is only meaningful inside the special unitary
    group, so both sides are determinant-normalized there; every other mode
    uses the inputs as given.
    """
    mats = problem.gate_set.matrices()
    if problem.phase_mode == "exact" and problem.targets_equality():
        eff_t = su_normalize(problem.target)
        eff_g = np.stack([su_normalize(m) for m in mats])
        changed = (np.abs(eff_t - problem.target).max() > 1e-12
                   or np.abs(eff_g - mats).max() > 1e-12)
        if changed:
            warnings.warn("exact phase mode: target and gates were normalized to "
                          "unit determinant", stacklevel=3)
        return eff_t, eff_g, True
    return problem.target.copy(), mats, False


def _parts(a: np.ndarray) -> np.ndarray:
    """(2, n, n) real and imaginary parts of a complex matrix."""
    return np.stack([a.real, a.imag])


def _complex_vars(model: MipModel, name: str, n: int) -> np.ndarray:
    """(2, n, n) ids of new Re/Im variables in [-1, 1]."""
    ids = np.empty((2, n, n), dtype=np.int64)
    for c, i, j in np.ndindex(ids.shape):
        ids[c, i, j] = model.add_var(f"{name}({('Re', 'Im')[c]},{i},{j})", -1.0, 1.0)
    return ids


def _bound_by(model: MipModel, ids: np.ndarray, switch: int) -> None:
    """-switch <= x <= switch for each variable id: zero unless the binary is on."""
    for vid in np.ravel(ids):
        model.add_constr({int(vid): 1.0, switch: -1.0}, "<=", 0.0,
                         family="disjunctive")
        model.add_constr({int(vid): 1.0, switch: 1.0}, ">=", 0.0,
                         family="disjunctive")


def _right_parts(mats: np.ndarray) -> np.ndarray:
    """(|G|, 2, 2, n, n) parts with Y = X M_g as Y[c] = sum_d X[d] @ out[g, d, c]."""
    return np.array([[[m.real, m.imag], [-m.imag, m.real]] for m in mats])


def build_base(problem: SynthesisProblem) -> tuple[MipModel, ModelHandles]:
    """One-hot selection plus the disaggregated cumulative-product chain.

    The chain meets the target halfway for target objectives, at
    m = ceil(P/2), and runs forward to P otherwise (see the module
    docstring).  Rows: P one-hot; 2n^2 pinning Ghat_1 to the first gate
    (family cumulative); and for each copy step, 4n^2 per gate bounding its
    copy by z plus 2n^2 summing the copies (family disjunctive) and 2n^2
    defining the next product (family cumulative).  There are P - 1 copy
    steps on the forward chain and P - 2 on the two-ended one, which adds
    2n^2 rows pinning Ghat_{P-1} to the target pulled back through the last
    gate (family target).  In global phase mode that pull-back splits the
    phase: 2 rows sum the r_g and s_g and 4|G| bound them by z[g,P] (family
    disjunctive).
    """
    gs = problem.gate_set
    P, G, n = problem.P, len(gs), gs.dim
    eff_t, eff_g, su_applied = effective_instance(problem)
    model = MipModel(name=f"synth_{problem.objective}_Q{gs.num_qubits}_P{P}")

    z = np.empty((G, P), dtype=np.int64)
    for p in range(P):
        for g in range(G):
            z[g, p] = model.add_binary(f"z({gs.label(g)},{p + 1})")
    for p in range(P):
        model.add_constr({int(z[g, p]): 1.0 for g in range(G)}, "==", 1.0,
                         family="one_hot")

    ghat = np.stack([_complex_vars(model, f"Ghat({p + 1})", n) for p in range(P)])
    meet = (P + 1) // 2 if problem.targets_equality() else P
    forward = range(2, meet + 1)  # Ghat_p from Ghat_{p-1} through G_p
    backward = range(P - 1, meet, -1)  # Ghat_{p-1} from Ghat_p through G_p^dag
    v = (np.empty((P + 1, G, 2, n, n), dtype=np.int64)
         if len(forward) + len(backward) else None)
    handles = ModelHandles(z=z, ghat=ghat, v=v, meet=meet, eff_target=eff_t,
                           eff_gate_mats=eff_g, su_applied=su_applied)
    handles.pin_rows(model, 0, [(int(z[g, 0]), m) for g, m in enumerate(eff_g)],
                     "cumulative")

    def copy_step(p: int, src: int, dst: int, right: np.ndarray) -> None:
        """Ghat[dst] = sum_g V[p,g] M_g, the V[p,g] copies of Ghat[src] (0-based)."""
        for g in range(G):
            v[p, g] = _complex_vars(model, f"V({p},{gs.label(g)})", n)
            _bound_by(model, v[p, g], int(z[g, p - 1]))
        for idx in np.ndindex(2, n, n):
            coefs = {int(v[p, g][idx]): 1.0 for g in range(G)}
            coefs[int(ghat[src][idx])] = -1.0
            model.add_constr(coefs, "==", 0.0, family="disjunctive")
        for c, i, j in np.ndindex(2, n, n):
            coefs = {int(ghat[dst, c, i, j]): -1.0}
            for g in range(G):
                for d in range(2):
                    for k in range(n):
                        val = right[g, d, c, k, j]
                        if abs(val) > 1e-14:
                            coefs[int(v[p, g, d, i, k])] = val
            model.add_constr(coefs, "==", 0.0, family="cumulative")

    right = _right_parts(eff_g)
    for p in forward:
        copy_step(p, p - 2, p - 1, right)
    right = _right_parts(eff_g.conj().transpose(0, 2, 1))
    for p in backward:
        copy_step(p, p - 1, p - 2, right)

    if problem.targets_equality() and problem.phase_mode == "global_phase":
        handles.r = model.add_var("r", -1.0, 1.0)
        handles.s = model.add_var("s", -1.0, 1.0)
    if meet < P:
        pulled = [eff_t @ m.conj().T for m in eff_g]  # T G_g^dag
        last = [int(k) for k in z[:, P - 1]]
        if handles.r is None:
            terms = list(zip(last, pulled))
        else:
            split = np.array([[model.add_var(f"{c}({gs.label(g)})", -1.0, 1.0)
                               for c in "rs"] for g in range(G)], dtype=np.int64)
            handles.rs_split = split
            for g in range(G):
                _bound_by(model, split[g], last[g])
            for c, whole in enumerate((handles.r, handles.s)):
                coefs = {int(k): 1.0 for k in split[:, c]}
                coefs[whole] = -1.0
                model.add_constr(coefs, "==", 0.0, family="disjunctive")
            terms = [term for g, m in enumerate(pulled)
                     for term in ((int(split[g, 0]), m), (int(split[g, 1]), 1j * m))]
        handles.pin_rows(model, P - 2, terms, "target")
    return model, handles


def add_target(problem: SynthesisProblem, model: MipModel,
               handles: ModelHandles) -> None:
    """Pin the final cumulative product to the target, exactly or up to phase.

    In global phase mode Ghat_P = (r + i s) T, one row per Re/Im entry, with
    the phase variables build_base made.
    """
    t = handles.eff_target
    terms = ([(None, t)] if handles.r is None
             else [(handles.r, t), (handles.s, 1j * t)])
    handles.pin_rows(model, problem.P - 1, terms, "target")


def add_objective_gate_count(problem: SynthesisProblem, model: MipModel,
                             handles: ModelHandles) -> None:
    coefs: dict[int, float] = {}
    for g in problem.gate_set.non_identity_indices():
        w = float(problem.weights[g])
        if w == 0.0:
            continue
        for p in range(problem.P):
            coefs[int(handles.z[g, p])] = w
    model.set_objective(coefs, "min")


def add_depth_scheduling(problem: SynthesisProblem, model: MipModel,
                         handles: ModelHandles) -> None:
    """Layer breaks: breaks[p] = 1 when position p opens a new layer; min their sum.

    A layer is a contiguous run of positions whose gates act on disjoint
    qubits, the rule gates.next_layer applies in time order.  Rows: every
    gate on some qubit has a break at or before it; two gates sharing a
    qubit have a break after the first and at or before the second; at most
    D breaks.  For fixed z the fewest breaks meeting these rows is the depth
    schedule_depth computes: next_layer opens a layer at position e only
    when the gate there shares a qubit with the run opened at e' < e, so the
    rows force a break in (e', e]; those intervals are disjoint, and the
    first gate that acts on any qubit forces one more at or before it.
    Gates on no qubit, the identity among them, need no layer, so an empty
    circuit has depth 0.
    """
    gs = problem.gate_set
    P, z = problem.P, handles.z
    breaks = np.array([model.add_binary(f"break({p + 1})") for p in range(P)],
                      dtype=np.int64)
    handles.breaks = breaks
    acting = [g for g in range(len(gs)) if gs[g].support]
    for p in range(P):
        coefs = {int(breaks[k]): 1.0 for k in range(p + 1)}
        coefs.update({int(z[g, p]): -1.0 for g in acting})
        model.add_constr(coefs, ">=", 0.0, family="depth")
    for q in range(1, gs.num_qubits + 1):
        touching = [g for g in acting if q in gs[g].support]
        if not touching:
            continue
        for p, p2 in itertools.combinations(range(P), 2):
            coefs = {int(breaks[k]): 1.0 for k in range(p + 1, p2 + 1)}
            for g in touching:
                coefs[int(z[g, p])] = -1.0
                coefs[int(z[g, p2])] = -1.0
            model.add_constr(coefs, ">=", -1.0, family="depth")
    every = {int(k): 1.0 for k in breaks}
    model.add_constr(every, "<=", float(problem.D), family="depth")
    model.set_objective(every, "min")


def _alpha_coefs(handles: ModelHandles, P: int) -> dict[int, float]:
    """alpha = Re tr(T^dag Ghat_P) / n on the Re/Im parts."""
    rt = _parts(handles.eff_target)
    scale = 1.0 / rt.shape[1]  # 1 / 2^Q
    gP = handles.ghat[P - 1]
    return {int(gP[idx]): float(rt[idx]) * scale
            for idx in np.ndindex(rt.shape) if abs(rt[idx]) > 1e-14}


def add_objective_linearized_fidelity(problem: SynthesisProblem, model: MipModel,
                                      handles: ModelHandles) -> None:
    a = model.add_var("alpha", -1.0, 1.0)
    handles.alpha = a
    coefs = _alpha_coefs(handles, problem.P)
    coefs[a] = coefs.get(a, 0.0) - 1.0
    model.add_constr(coefs, "==", 0.0, family="objective")
    model.set_objective({a: 1.0}, "max")


def _tangent_grid(problem: SynthesisProblem) -> np.ndarray:
    """Points of [-epsilon, epsilon] where the square is under-estimated."""
    eps = float(problem.epsilon)
    return np.linspace(-eps, eps, int(problem.K))


def add_objective_frobenius_oa(problem: SynthesisProblem, model: MipModel,
                               handles: ModelHandles) -> None:
    """Entrywise deviation box plus tangent under-estimators of its square.

    Each Re/Im deviation weighs 2 in the objective, since every complex entry
    appears twice in R(Ghat_P) - R(T), whose squared norm is the error.
    """
    eps = float(problem.epsilon)
    rt = _parts(handles.eff_target)
    gP = handles.ghat[problem.P - 1]
    e = np.empty(rt.shape, dtype=np.int64)
    ehat = np.empty(rt.shape, dtype=np.int64)
    grid = _tangent_grid(problem)
    for idx in np.ndindex(rt.shape):
        name = "({},{},{})".format(*idx)
        e[idx] = model.add_var(f"E{name}", -eps, eps)
        ehat[idx] = model.add_var(f"Ehat{name}", -eps * eps, eps * eps)
        model.add_constr({int(gP[idx]): 1.0, int(e[idx]): -1.0}, "==",
                         float(rt[idx]), family="frobenius_box")
        for a_k in grid:
            model.add_constr({int(ehat[idx]): 1.0, int(e[idx]): -2.0 * a_k},
                             ">=", -(a_k * a_k), family="objective")
    handles.e, handles.ehat = e, ehat
    model.set_objective({int(k): 2.0 for k in ehat.ravel()}, "min")


def build_model(problem: SynthesisProblem) -> tuple[MipModel, ModelHandles]:
    """Base, target (when the objective has one), objective, and cuts."""
    if problem.objective == "exact_fidelity":
        raise ConfigError("exact_fidelity is a quadratic objective with no linear "
                          "model; solve it with the oracle backend")
    model, handles = build_base(problem)
    if problem.targets_equality():
        add_target(problem, model, handles)
    if problem.objective == "weighted_gate_count":
        add_objective_gate_count(problem, model, handles)
    elif problem.objective == "depth":
        add_depth_scheduling(problem, model, handles)
    elif problem.objective == "linearized_fidelity":
        add_objective_linearized_fidelity(problem, model, handles)
    else:
        add_objective_frobenius_oa(problem, model, handles)
    apply_cuts(model, handles, problem)
    return model, handles


def schedule_depth(sequence) -> tuple[int, dict[int, int]]:
    """Earliest-possible monotone layering of a fixed gate order.

    Each gate is given by the qubits it acts on (its support) and placed by
    gates.next_layer.  Returns the depth and each gate's 1-based layer; a
    gate on no qubits adds no depth and is listed in the current layer
    (layer 1 before any other gate).
    """
    depth, layer = 0, frozenset()
    assignment: dict[int, int] = {}
    for idx, gate in enumerate(sequence, start=1):
        depth, layer = next_layer(depth, layer, frozenset(gate))
        assignment[idx] = max(depth, 1)
    return depth, assignment


def verify_sequence(problem: SynthesisProblem, gate_indices: list[int],
                    eff_target: np.ndarray, eff_gate_mats: np.ndarray) -> SynthesisResult:
    """Everything a chosen gate sequence determines, computed from the gates.

    The realized unitary and its fidelity use the library's own matrices;
    alpha, beta, the squared Frobenius error and the phase factor use the
    effective instance the model constrains (see effective_instance).  The
    phase factor is alpha + i*beta, the value the phase variables (r, s)
    take, in global-phase mode with a target.  Depth and schedule come from
    the gates' supports.  Both synthesis routes build their results here and
    add only their own objective value and certificate.
    """
    gs = problem.gate_set
    realized = sequence_product(gs.matrices()[gate_indices], gs.dim)
    eff_prod = sequence_product(eff_gate_mats[gate_indices], gs.dim)
    overlap = np.vdot(eff_target, eff_prod) / gs.dim  # tr(T^dag U) / n
    alpha, beta = float(overlap.real), float(overlap.imag)
    depth, schedule = schedule_depth([gs[g].support for g in gate_indices])
    phase = None
    if problem.phase_mode == "global_phase" and problem.targets_equality():
        phase = complex(alpha, beta)
    return SynthesisResult(
        status="optimal",
        sequence=[gs[g].spec for g in gate_indices],
        gate_indices=list(gate_indices),
        realized_unitary=realized,
        fidelity_to_target=fidelity(realized, problem.target),
        alpha=alpha,
        beta=beta,
        error_fro_sq=float(np.sum(np.abs(eff_prod - eff_target) ** 2) * 2.0),
        depth_schedule=schedule,
        depth=depth,
        phase_factor=phase,
    )


def polish_point(problem: SynthesisProblem, model: MipModel,
                 handles: ModelHandles, x: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """The exact model point of the circuit a solver point selects.

    Only the integer variables are read from `x`: each must be integral
    within INTEGRALITY_TOL and every position must select exactly one gate.
    Every continuous variable is then recomputed from the rounded choices:
    the Re/Im parts of each cumulative product Ghat_p, the product of the
    first p gates on both halves of the chain; the copies V[p,g], which for
    the chosen gate hold the product their step starts from (Ghat_{p-1} on
    the forward half, Ghat_p on the backward half) and zero for the others;
    the phase (r, s) and its split (r_g, s_g), the phase for the last gate
    and zero for the others; alpha; and the deviations E (clipped into the
    epsilon-box, so any excess shows up in the box rows) with their tangent
    estimators.
    Returns the polished point and the chosen gate per position.
    """
    ints = model.integer_vars()
    frac = np.abs(x[ints] - np.round(x[ints]))
    if frac.size and frac.max() > INTEGRALITY_TOL:
        worst = int(ints[np.argmax(frac)])
        raise ModelIntegrityError(
            f"integer variable {model.var_name(worst)} is {x[worst]!r} "
            "at the solver point")
    xp = np.full(model.num_vars, np.nan)
    xp[ints] = np.round(x[ints])

    z = xp[handles.z]
    chosen: list[int] = []
    for p in range(problem.P):
        sel = np.flatnonzero(z[:, p] == 1.0)
        if len(sel) != 1:
            raise ModelIntegrityError(
                f"position {p + 1} selects {len(sel)} gates after rounding")
        chosen.append(int(sel[0]))

    mats = handles.eff_gate_mats
    chain = [mats[chosen[0]]]
    for g in chosen[1:]:
        chain.append(chain[-1] @ mats[g])
    xp[handles.ghat] = np.stack([_parts(c) for c in chain])
    meet = handles.meet
    for p in range(2, problem.P + 1):
        if p <= meet or p < problem.P:  # the last gate has no copies past meet
            held = chain[p - 2] if p <= meet else chain[p - 1]
            xp[handles.v[p]] = z[:, p - 1, None, None, None] * _parts(held)

    final = chain[-1]
    # the target rows make r + i*s the phase, alpha + i*beta = tr(T^dag U) / n
    phase = np.vdot(handles.eff_target, final) / len(final)
    for var, val in ((handles.r, phase.real), (handles.s, phase.imag),
                     (handles.alpha, phase.real)):
        if var is not None:
            xp[var] = val
    if handles.rs_split is not None:
        xp[handles.rs_split] = z[:, -1, None] * [phase.real, phase.imag]
    if handles.e is not None:
        eps = float(problem.epsilon)
        dev = np.clip(_parts(final - handles.eff_target), -eps, eps)
        xp[handles.e] = dev
        grid = _tangent_grid(problem)
        g = grid[:, None, None, None]
        xp[handles.ehat] = np.max(2.0 * g * dev - g * g, axis=0)

    unset = np.flatnonzero(np.isnan(xp))
    if unset.size:
        raise ModelIntegrityError(
            f"polishing leaves {model.var_name(int(unset[0]))} without a value")
    return xp, chosen


def extract_and_verify(problem: SynthesisProblem, model: MipModel,
                       handles: ModelHandles, solution: Solution) -> SynthesisResult:
    """Turn a solver point into a verified circuit; distrust the solver.

    The circuit is read off the integer variables and every check runs at
    its polished point (see polish_point): rows true by construction must
    hold within POLISH_TOL, rows tied to the input data within DATA_TOL, and
    the solver's claimed objective must match the polished one within the
    relative gap the solver was given.  Any failure raises
    ModelIntegrityError.
    """
    if solution.x is None:
        raise ModelIntegrityError("solution carries no point to extract")
    x = np.asarray(solution.x, dtype=float)
    xp, chosen = polish_point(problem, model, handles, x)

    viol = model.violations(xp)
    data_viol = {f: viol.pop(f) for f in DATA_FAMILIES if f in viol}
    worst = max(viol, key=viol.get)
    if viol[worst] > POLISH_TOL:
        raise ModelIntegrityError(
            f"the polished point violates {worst} by {viol[worst]:.3e}")
    data_residual = max(data_viol.values(), default=0.0)
    if data_residual > DATA_TOL:
        worst = max(data_viol, key=data_viol.get)
        raise ModelIntegrityError(
            f"the chosen circuit misses the {worst} rows by {data_residual:.3e}")

    polished = model.objective_value(xp)
    claimed = (solution.objective if solution.objective is not None
               else model.objective_value(x))
    allowed = max(DEFAULT_GAP_TOL, POLISH_TOL) * max(1.0, abs(claimed))
    if abs(claimed - polished) > allowed:
        raise ModelIntegrityError(
            f"the solver claims objective {claimed:.8f} but the chosen circuit "
            f"gives {polished:.8f} (allowed gap {allowed:.1e})")

    seq_idx = [g for g in chosen if g != problem.gate_set.identity_index]
    result = verify_sequence(problem, seq_idx, handles.eff_target,
                             handles.eff_gate_mats)
    # a time-limited incumbent may carry more breaks than its depth
    return replace(
        result, status=solution.status,
        objective_value=(float(result.depth) if problem.objective == "depth"
                         else polished),
        certificate={"status": solution.status, "bound": solution.bound,
                     "gap": solution.gap, "gap_tol": DEFAULT_GAP_TOL,
                     "claim_discrepancy": claimed - polished,
                     "data_residual": data_residual},
        solve_seconds=solution.solve_seconds)


def _oracle_route(problem: SynthesisProblem, time_limit: float | None) -> SynthesisResult:
    eff_t, eff_g, su_applied = effective_instance(problem)
    eff_gs = effective_gate_set(problem.gate_set, eff_g, su_applied)
    obj_map = {"weighted_gate_count": "gate_count", "depth": "depth",
               "linearized_fidelity": "alpha", "exact_fidelity": "fidelity",
               "frobenius_oa": "alpha"}
    mode = problem.phase_mode if problem.targets_equality() else "exact"
    res = oracle_mod.exhaustive_synthesize(
        eff_t, eff_gs, problem.P, objective=obj_map[problem.objective],
        phase_mode=mode, weights=problem.weights, time_limit=time_limit)
    if res.status == "infeasible":
        return SynthesisResult(status="infeasible",
                               certificate={"status": "infeasible", "bound": None,
                                            "gap": None, "nodes": res.nodes},
                               solve_seconds=res.seconds)
    result = verify_sequence(problem, res.sequence, eff_t, eff_g)
    fid = result.fidelity_to_target
    if problem.targets_equality() and fid < 1 - 1e-9:
        raise ModelIntegrityError(
            f"exhaustive search returned a sequence with fidelity {fid:.12f}")
    if problem.objective in TARGET_OBJECTIVES:
        obj_val = float(res.objective)
    elif problem.objective == "linearized_fidelity":
        obj_val = result.alpha
    elif problem.objective == "exact_fidelity":
        obj_val = result.alpha ** 2 + result.beta ** 2
    else:  # frobenius_oa: the enumeration minimizes the true squared error
        obj_val = result.error_fro_sq
    return replace(result, objective_value=obj_val,
                   certificate={"status": "optimal", "bound": obj_val, "gap": 0.0,
                                "nodes": res.nodes},
                   solve_seconds=res.seconds)


def synthesize(problem: SynthesisProblem, backend: str = "scipy",
               time_limit: float | None = None) -> SynthesisResult:
    """Solve one synthesis instance end to end and verify the outcome.

    `time_limit` is in seconds; None means no limit.
    """
    time_limit = checked_time_limit(time_limit)
    t0 = time.perf_counter()
    if is_oracle_backend(backend):
        return _oracle_route(problem, time_limit)

    be = get_backend(backend)
    if problem.objective == "exact_fidelity":
        warnings.warn("the MIP backend cannot handle the quadratic fidelity "
                      "objective; falling back to exhaustive search", stacklevel=2)
        return _oracle_route(problem, time_limit)
    model, handles = build_model(problem)
    sol = be.solve(model, time_limit=time_limit)
    solver_info = {"row_families": dict(model.family_rows), "nodes": sol.nodes}
    if sol.status in ("optimal", "feasible"):
        result = extract_and_verify(problem, model, handles, sol)
        result.solve_seconds = time.perf_counter() - t0
        result.certificate.update(solver_info)
        return result
    return SynthesisResult(
        status=sol.status,
        certificate={"status": sol.status, "bound": sol.bound, "gap": sol.gap,
                     **solver_info},
        solve_seconds=time.perf_counter() - t0)


__all__ = [
    "SynthesisProblem", "ModelHandles", "SynthesisResult",
    "build_base", "build_model", "add_target", "add_objective_gate_count",
    "add_depth_scheduling", "add_objective_linearized_fidelity",
    "add_objective_frobenius_oa",
    "extract_and_verify", "polish_point", "schedule_depth", "verify_sequence",
    "synthesize",
    "OBJECTIVES", "PHASE_MODES",
]
