"""Synthesis model: gate selection, cumulative products, targets, objectives.

A circuit of at most P gates is encoded by one-hot binaries z[g,p]; the
cumulative product lives in the real block encoding where it is linear up to
binary-times-continuous products, which McCormick rows make exact.  Four
objectives share that base: weighted gate count, depth, and two
approximate-compilation objectives that drop the target equality.  The
fifth, exact fidelity, is quadratic and non-convex; it is always answered by
exhaustive search.

Extraction never trusts the solver.  It reads only the integer choices from
the solver point, recomputes every continuous variable exactly from the
chosen gates (the polished point), checks every model row there, and compares
the solver's claimed objective with the polished one before a result is
returned.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from . import oracle as oracle_mod
from .cuts import CutSelection, apply_cuts
from .encoding import (alpha_beta, encode_real, fidelity, require_unitary,
                       su_normalize)
from .errors import ConfigError, DimensionError, ModelIntegrityError
from .gates import GateSet, GateSpec, sequence_product
from .mip import MipModel
from .solvers import Solution, get_backend, is_oracle_backend

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
#: Row families that tie the circuit to input data: the target equality, the
#: hindsight cuts that restate it, and the Frobenius epsilon-box.  They hold at
#: the polished point only as tightly as the data and HiGHS's feasibility
#: tolerance allow, so they are held to that tolerance and the residual is
#: recorded in the certificate.
DATA_FAMILIES = ("target", "frobenius_box", "cut_hc1", "cut_hc2",
                 "cut_hc1_global_phase")
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
    ghat: np.ndarray  # (P, 2n, 2n) cumulative-product entries
    v: np.ndarray | None  # (P+1, |G|, 2n, 2n) McCormick blocks, rows p >= 2
    real_gates: np.ndarray  # (|G|, 2n, 2n) constant R(g) blocks (effective gates)
    eff_target: np.ndarray  # complex target the model constrains against
    eff_gate_mats: np.ndarray  # (|G|, n, n) complex effective gate matrices
    su_applied: bool
    b: np.ndarray | None = None  # (P, D) depth binaries
    r: int | None = None
    s: int | None = None
    alpha: int | None = None
    e: np.ndarray | None = None  # (2n, 2n) deviation entries
    ehat: np.ndarray | None = None  # (2n, 2n) squared-deviation estimators


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


def build_base(problem: SynthesisProblem) -> tuple[MipModel, ModelHandles]:
    """One-hot selection plus the linearized cumulative-product chain."""
    gs = problem.gate_set
    P, G = problem.P, len(gs)
    eff_t, eff_g, su_applied = effective_instance(problem)
    rg = np.stack([encode_real(m) for m in eff_g])
    m2 = rg.shape[1]  # real dimension 2*2^Q
    model = MipModel(name=f"synth_{problem.objective}_Q{gs.num_qubits}_P{P}")

    z = np.empty((G, P), dtype=np.int64)
    for p in range(P):
        for g in range(G):
            z[g, p] = model.add_binary(f"z({gs.label(g)},{p + 1})")
    for p in range(P):
        model.add_constr({int(z[g, p]): 1.0 for g in range(G)}, "==", 1.0,
                         family="one_hot")

    ghat = np.empty((P, m2, m2), dtype=np.int64)
    for p in range(P):
        for i in range(m2):
            for j in range(m2):
                ghat[p, i, j] = model.add_var(f"Ghat({p + 1},{i},{j})", -1.0, 1.0)

    # position 1: the cumulative product is the selected gate itself
    for i in range(m2):
        for j in range(m2):
            coefs = {int(ghat[0, i, j]): -1.0}
            for g in range(G):
                c = rg[g, i, j]
                if abs(c) > 1e-14:
                    coefs[int(z[g, 0])] = coefs.get(int(z[g, 0]), 0.0) + c
            model.add_constr(coefs, "==", 0.0, family="cumulative")

    v = None
    if P > 1:
        v = np.empty((P + 1, G, m2, m2), dtype=np.int64)
        for p in range(2, P + 1):
            for g in range(G):
                for i in range(m2):
                    for k in range(m2):
                        vid = model.add_var(f"V({p},{gs.label(g)},{i},{k})", -1.0, 1.0)
                        v[p, g, i, k] = vid
                        model.add_mccormick(int(vid), int(ghat[p - 2, i, k]),
                                            int(z[g, p - 1]), family="mccormick")
            for i in range(m2):
                for j in range(m2):
                    coefs = {int(ghat[p - 1, i, j]): -1.0}
                    for g in range(G):
                        col = rg[g, :, j]
                        for k in range(m2):
                            c = col[k]
                            if abs(c) > 1e-14:
                                key = int(v[p, g, i, k])
                                coefs[key] = coefs.get(key, 0.0) + c
                    model.add_constr(coefs, "==", 0.0, family="cumulative")

    handles = ModelHandles(z=z, ghat=ghat, v=v, real_gates=rg, eff_target=eff_t,
                           eff_gate_mats=eff_g, su_applied=su_applied)
    return model, handles


def add_target(problem: SynthesisProblem, model: MipModel,
               handles: ModelHandles) -> None:
    """Pin the final cumulative product to the target, exactly or up to phase."""
    rt = encode_real(handles.eff_target)
    rti = encode_real(1j * handles.eff_target)
    m2 = rt.shape[0]
    gP = handles.ghat[problem.P - 1]
    if problem.phase_mode == "exact":
        for i in range(m2):
            for j in range(m2):
                model.add_constr({int(gP[i, j]): 1.0}, "==", float(rt[i, j]),
                                 family="target")
        return
    handles.r = model.add_var("r", -1.0, 1.0)
    handles.s = model.add_var("s", -1.0, 1.0)
    for i in range(m2):
        for j in range(m2):
            coefs = {int(gP[i, j]): 1.0}
            if abs(rt[i, j]) > 1e-14:
                coefs[handles.r] = -float(rt[i, j])
            if abs(rti[i, j]) > 1e-14:
                coefs[handles.s] = -float(rti[i, j])
            model.add_constr(coefs, "==", 0.0, family="target")


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
    """Depth binaries, monotone layering, per-qubit disjointness, min final depth."""
    gs = problem.gate_set
    P, D = problem.P, int(problem.D)
    b = np.empty((P, D), dtype=np.int64)
    for p in range(P):
        for d in range(D):
            b[p, d] = model.add_binary(f"b({p + 1},{d + 1})")
    handles.b = b
    for p in range(P):
        model.add_constr({int(b[p, d]): 1.0 for d in range(D)}, "==", 1.0,
                         family="depth")
    model.fix_var(int(b[0, 0]), 1.0)
    for p in range(1, P):
        coefs: dict[int, float] = {}
        for d in range(D):
            coefs[int(b[p, d])] = float(d + 1)
            coefs[int(b[p - 1, d])] = coefs.get(int(b[p - 1, d]), 0.0) - float(d + 1)
        model.add_constr(coefs, ">=", 0.0, family="depth")
        model.add_constr(coefs, "<=", 1.0, family="depth")

    # w[g,p,d] = z[g,p] * b[p,d] for gates that occupy qubits
    prod: dict[tuple[int, int, int], int] = {}
    for g in gs.non_identity_indices():
        if not gs[g].support:
            continue
        for p in range(P):
            for d in range(D):
                w = model.add_binary(f"zb({gs.label(g)},{p + 1},{d + 1})")
                model.add_product_binary(w, int(handles.z[g, p]), int(b[p, d]),
                                         family="depth")
                prod[(g, p, d)] = w
    for q in range(1, gs.num_qubits + 1):
        touching = [g for g in gs.non_identity_indices() if q in gs[g].support]
        if not touching:
            continue
        for d in range(D):
            coefs = {prod[(g, p, d)]: 1.0 for g in touching for p in range(P)}
            model.add_constr(coefs, "<=", 1.0, family="depth")
    model.set_objective({int(b[P - 1, d]): float(d + 1) for d in range(D)}, "min")


def _alpha_coefs(handles: ModelHandles, P: int) -> dict[int, float]:
    rt = encode_real(handles.eff_target)
    m2 = rt.shape[0]
    scale = 1.0 / m2  # 1 / 2^(Q+1)
    gP = handles.ghat[P - 1]
    return {int(gP[i, j]): float(rt[i, j]) * scale
            for i in range(m2) for j in range(m2) if abs(rt[i, j]) > 1e-14}


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
    """Entrywise deviation box plus tangent under-estimators of its square."""
    eps = float(problem.epsilon)
    rt = encode_real(handles.eff_target)
    m2 = rt.shape[0]
    gP = handles.ghat[problem.P - 1]
    e = np.empty((m2, m2), dtype=np.int64)
    ehat = np.empty((m2, m2), dtype=np.int64)
    grid = _tangent_grid(problem)
    for i in range(m2):
        for j in range(m2):
            e[i, j] = model.add_var(f"E({i},{j})", -eps, eps)
            ehat[i, j] = model.add_var(f"Ehat({i},{j})", -eps * eps, eps * eps)
            model.add_constr({int(gP[i, j]): 1.0, int(e[i, j]): -1.0}, "==",
                             float(rt[i, j]), family="frobenius_box")
            for a_k in grid:
                model.add_constr({int(ehat[i, j]): 1.0, int(e[i, j]): -2.0 * a_k},
                                 ">=", -(a_k * a_k), family="objective")
    handles.e, handles.ehat = e, ehat
    model.set_objective({int(ehat[i, j]): 1.0 for i in range(m2) for j in range(m2)},
                        "min")


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


def schedule_depth(sequence, num_qubits: int) -> tuple[int, dict[int, int]]:
    """Earliest-possible monotone layering of a fixed gate order.

    Each gate lands either in the current layer or opens the next one; a gate
    joins the current layer only when its qubits are disjoint from everything
    already there.  For the fixed order this greedy choice is optimal.
    Gates may be ExtendedGate objects or bare qubit collections.
    """
    depth = 0
    layer: frozenset[int] = frozenset()
    assignment: dict[int, int] = {}
    for idx, gate in enumerate(sequence, start=1):
        qubits = gate.support if hasattr(gate, "support") else frozenset(gate)
        if not qubits:
            assignment[idx] = max(depth, 1)
            continue
        if depth == 0 or (qubits & layer):
            depth += 1
            layer = qubits
        else:
            layer = layer | qubits
        assignment[idx] = depth
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
    alpha, beta = alpha_beta(encode_real(eff_prod), eff_target)
    depth, schedule = schedule_depth([gs[g] for g in gate_indices], gs.num_qubits)
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
    the cumulative products, the McCormick blocks, the phase (r, s), alpha,
    and the deviations E (clipped into the epsilon-box, so any
    excess shows up in the box rows) with their tangent estimators.
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

    chain = [handles.real_gates[chosen[0]]]
    for g in chosen[1:]:
        chain.append(chain[-1] @ handles.real_gates[g])
    xp[handles.ghat] = np.stack(chain)
    for p in range(2, problem.P + 1):
        xp[handles.v[p]] = z[:, p - 1, None, None] * chain[p - 2]

    final = chain[-1]
    a_re, b_re = alpha_beta(final, handles.eff_target)
    # the target rows make r + i*s the phase, which is alpha + i*beta
    for var, val in ((handles.r, a_re), (handles.s, b_re), (handles.alpha, a_re)):
        if var is not None:
            xp[var] = val
    if handles.e is not None:
        eps = float(problem.epsilon)
        dev = np.clip(final - encode_real(handles.eff_target), -eps, eps)
        xp[handles.e] = dev
        grid = _tangent_grid(problem)
        xp[handles.ehat] = np.max(2.0 * grid[:, None, None] * dev
                                  - (grid * grid)[:, None, None], axis=0)

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
    allowed = max(solution.gap_tol, POLISH_TOL) * max(1.0, abs(claimed))
    if abs(claimed - polished) > allowed:
        raise ModelIntegrityError(
            f"the solver claims objective {claimed:.8f} but the chosen circuit "
            f"gives {polished:.8f} (allowed gap {allowed:.1e})")

    seq_idx = [g for g in chosen if g != problem.gate_set.identity_index]
    result = verify_sequence(problem, seq_idx, handles.eff_target,
                             handles.eff_gate_mats)
    return replace(
        result, status=solution.status,
        objective_value=(float(result.depth) if problem.objective == "depth"
                         else polished),
        certificate={"status": solution.status, "bound": solution.bound,
                     "gap": solution.gap, "gap_tol": solution.gap_tol,
                     "claim_discrepancy": claimed - polished,
                     "data_residual": data_residual},
        solve_seconds=solution.solve_seconds)


def _oracle_route(problem: SynthesisProblem, time_limit: float | None) -> SynthesisResult:
    eff_t, eff_g, su_applied = effective_instance(problem)
    eff_gs = _effective_gate_set(problem.gate_set, eff_g, su_applied)
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


def _effective_gate_set(gs: GateSet, eff_mats: np.ndarray, su_applied: bool) -> GateSet:
    if not su_applied or np.abs(eff_mats - gs.matrices()).max() <= 1e-14:
        return gs
    from .gates import ExtendedGate
    new_gates = []
    for i, g in enumerate(gs):
        spec = GateSpec(name=g.spec.name, qubits=g.spec.qubits,
                        matrix=su_normalize(g.spec.matrix), angle=g.spec.angle)
        new_gates.append(ExtendedGate(spec=spec, num_qubits=gs.num_qubits,
                                      full=eff_mats[i], support=g.support))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # duplicate-matrix warnings are expected here
        return GateSet(gs.num_qubits, new_gates)


def synthesize(problem: SynthesisProblem, backend: str = "scipy",
               time_limit: float | None = None) -> SynthesisResult:
    """Solve one synthesis instance end to end and verify the outcome."""
    t0 = time.perf_counter()
    if problem.objective == "depth":
        eff_t, eff_g, _ = effective_instance(problem)
        empty = verify_sequence(problem, [], eff_t, eff_g)
        if problem.phase_mode == "exact":
            trivial = bool(np.abs(eff_t - empty.realized_unitary).max() <= 1e-12)
        else:
            trivial = empty.fidelity_to_target >= 1 - 1e-12
        if trivial:
            return replace(empty, objective_value=0.0,
                           certificate={"status": "optimal", "bound": 0.0, "gap": 0.0},
                           solve_seconds=time.perf_counter() - t0)

    if is_oracle_backend(backend):
        return _oracle_route(problem, time_limit)

    be = get_backend(backend)
    if problem.objective == "exact_fidelity":
        warnings.warn("the MIP backend cannot handle the quadratic fidelity "
                      "objective; falling back to exhaustive search", stacklevel=2)
        return _oracle_route(problem, time_limit)
    model, handles = build_model(problem)
    sol = be.solve(model, time_limit=time_limit)
    solver_info = {"row_families": dict(model.family_rows),
                   "presolve_retry": sol.presolve_retry}
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
