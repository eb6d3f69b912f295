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
in the middle does (Amy, Maslov, Mosca and Roetteler 2013), and the target
enters the model in one place.  The chain runs forward from I to Ghat_m,
m = min(ceil(P/2), P - 1), with M_g = G_g, and backward from the target to
Ghat_m, with M_g = G_g^dag: Ghat_{P-1} = sum_g z[g,P] T G_g^dag (row family
`target`, the only row that reads T), then Ghat_{p-1} = sum_g V[p,g] G_g^dag
for P > p > m.  Ghat_m gets both definitions, and that pair links the halves;
there is no Ghat_P.  At P = 1 the target row is written onto the identity,
sum_g z[g,1] T G_g^dag = I.  Every position has exactly one step, so
max(P - 2, 0) steps carry copies.  In global phase mode the target row is
Ghat_{P-1} = sum_g (r_g + i s_g) T G_g^dag with |r_g|, |s_g| <= z[g,P]: the
phase split the way the copies split the product, the convex hull of rows
switched on the last gate, with no big-M (Balas 1985).  At every integer
point Ghat_p is the product of the first p gates on both halves, and the
last gate's (r_g, s_g) is the phase of the circuit against T.
Objectives without a target run the chain forward to Ghat_P.

A forward chain also carries its reachable spans.  Let L_p be the real
span of the Re/Im parts of every product of at most p gates; the identity
is a gate, so L_{p-1} lies in L_p, and L_p = L_{p-1} + N_{p-1} G, where
N_{p-1} holds the directions step p - 1 added (reachable_spans).  At every
integer point Ghat_p lies in L_p and each copy V[p,g] in L_{p-1}, so each
coordinate outside a set of pivots is a fixed combination of the pivots:
one row per dependent coordinate (family `span`), or a bound fixed to 0 when
the combination is empty, a structural zero.  The rows hold exactly at the
polished point.  A library inside SU(2), such as the weaves, keeps every
product in the 4-dimensional span of the quaternions; the targets H and X
are orthogonal to that span, and the relaxation proves alpha <= 0 at its
root, where at P = 5 HiGHS branched about 550 nodes without the rows.
Target chains carry no span rows.  Measured on the oracle corpus in both
modes at a 10 s cap, the summed solve time rose from 5.2-7.2 s to
12.6-12.9 s with rows on the forward half (iswap_small exact from 1.0-1.4 s
to 5.4 s), and rows on both halves were no better (5.3-6.6 s to 8.7-10.0 s;
the registry's iswap in global phase from 7 s to 21 s).

Four objectives share that base: weighted gate count, depth, and two
approximate-compilation objectives that drop the target equality, alpha and
the squared Frobenius error, exact and linear in the box deviations since
Ghat_P is unitary at every integer point.  The fifth, exact fidelity, is
quadratic and non-convex; it is always answered by exhaustive search.  Depth
adds one binary per position that marks where a new layer opens.  Layers are
contiguous runs of positions whose gates act on disjoint qubits, the greedy
rule schedule_depth applies in time order, so the fewest breaks for a
fixed gate choice is that circuit's depth, 0 for a circuit with no gate on
any qubit.

Extraction never trusts the solver.  It reads only the integer choices from
the solver point, recomputes every continuous variable exactly from the
chosen gates (the polished point), checks every model row there, and compares
the solver's claimed objective with the polished one before a result is
returned.
"""

from __future__ import annotations

import functools
import itertools
import numbers
import time
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from . import oracle as oracle_mod
from .cuts import CutSelection, apply_cuts
from .encoding import require_unitary, su_normalize
from .errors import ConfigError, DimensionError, ModelIntegrityError
from .gates import GateSet, GateSpec, sequence_product
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
#: Row families that tie the circuit to input data: the backward chain's first
#: step from the target (`target`), the hindsight cuts that restate it, and
#: the Frobenius epsilon-box.  They hold at the polished point only as tightly
#: as the data and HiGHS's feasibility tolerance allow, so they are held to
#: that tolerance and the residual is recorded in the certificate.
DATA_FAMILIES = ("target", "frobenius_box", "cut_hc2")
DATA_TOL = 1e-6
#: HiGHS reads a cost at or above this as infinite; gate weights stay below it.
WEIGHT_CAP = 1e20
#: A new direction enters a reachable span when its singular value exceeds
#: this share of the candidates' norm; span-row coefficients at or below it
#: are dropped.  Both errors stay far inside POLISH_TOL.
SPAN_TOL = 1e-12


def checked_integer(value, name: str) -> int:
    """value as an int; ConfigError for a bool or a value that is not integral."""
    if not isinstance(value, (bool, np.bool_)):
        try:
            if value == int(value):
                return int(value)
        except (TypeError, ValueError, OverflowError):
            pass
    raise ConfigError(f"{name} must be an integer, got {value!r:.40}")


@dataclass
class SynthesisProblem:
    """One synthesis instance: target, library, budgets, objective, options.

    Both routes read the question from here: the model (build_model) and
    the exhaustive search (oracle.exhaustive_synthesize).  Fields are
    checked and normalized once, at construction, and the effective
    instance is computed once, on first use; to change a field, build a new
    problem with dataclasses.replace rather than assigning to it.
    """

    target: np.ndarray
    gate_set: GateSet
    P: int
    D: int | None = None
    objective: str = "weighted_gate_count"
    weights: np.ndarray | None = None
    phase_mode: str = "exact"
    cuts: CutSelection = field(default_factory=CutSelection)
    epsilon: float = 0.125
    K: int = 5  # read by nothing; the benchmark's objectives_mip still passes it

    def __post_init__(self) -> None:
        self.target = require_unitary(self.target)
        if self.target.shape != (self.gate_set.dim, self.gate_set.dim):
            raise DimensionError(
                f"target is {self.target.shape[0]}x{self.target.shape[1]} but the "
                f"gate set acts on dimension {self.gate_set.dim}")
        for name in ("P", "D", "K"):
            if getattr(self, name) is not None:
                setattr(self, name, checked_integer(getattr(self, name), name))
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
        bad = np.flatnonzero(~((w >= 0) & (w < WEIGHT_CAP)))
        if bad.size:
            raise ConfigError(f"weight of gate {self.gate_set.label(bad[0])} must lie "
                              f"in [0, {WEIGHT_CAP:g}), got {w[bad[0]]:g}")
        w[self.gate_set.identity_index] = 0.0
        self.weights = w
        if (isinstance(self.epsilon, bool) or not isinstance(self.epsilon, numbers.Real)
                or not 0.0 < self.epsilon <= 1.0):
            raise ConfigError(f"epsilon must lie in (0, 1], got {self.epsilon!r:.40}")
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

    @property
    def up_to_phase(self) -> bool:
        """Whether the target is matched up to a global phase: in global
        phase mode, and only for objectives that constrain to the target."""
        return self.phase_mode == "global_phase" and self.targets_equality()

    @functools.cached_property
    def effective_instance(self) -> tuple[np.ndarray, GateSet]:
        """Target and gate set the model and both routes' verification read.

        Exact-phase target matching is only meaningful inside the special
        unitary group, so both sides are determinant-normalized there; every
        other mode uses the inputs as given.  The gate set is the library
        itself unless normalization moves a matrix by more than 1e-14;
        otherwise it is a copy with the normalized matrices and the library's
        supports, in which the relations between gates are read as the model
        sees them (Z.Z == I, say, stops being true).  A gate other than the
        identity that normalizes to the identity, a pure phase such as i*I,
        raises ConfigError.
        """
        gs = self.gate_set
        if self.phase_mode != "exact" or not self.targets_equality():
            return self.target.copy(), gs
        eff_t = su_normalize(self.target)
        mats = gs.matrices()
        eff_g = np.stack([su_normalize(m) for m in mats])
        for g in gs.non_identity_indices():
            if replace(gs[g], full=eff_g[g]).is_identity:
                raise ConfigError(
                    f"exact phase mode: gate {gs.label(g)} is a pure phase and "
                    "normalizes to the identity; drop it or use global phase mode")
        moved = np.abs(eff_g - mats).max()
        if np.abs(eff_t - self.target).max() > 1e-12 or moved > 1e-12:
            warnings.warn("exact phase mode: target and gates were normalized to "
                          "unit determinant", stacklevel=3)
        if moved <= 1e-14:
            return eff_t, gs
        gates = [replace(g, spec=replace(g.spec, matrix=su_normalize(g.spec.matrix)),
                         full=m) for g, m in zip(gs, eff_g)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # duplicate-matrix warnings are expected here
            return eff_t, GateSet(gs.num_qubits, gates)


@dataclass
class ModelHandles:
    """Variable ids of one built model, by meaning."""

    z: np.ndarray  # (|G|, P) binaries
    # (P, 2, n, n) Re (index 0) and Im (1) of Ghat_p; P - 1 under a target
    ghat: np.ndarray
    # (P+1, |G|, 2, n, n) Re/Im copies V[p,g] of the step at gate position p:
    # of Ghat_{p-1} for 2 <= p <= meet, of Ghat_p for meet < p < P
    v: np.ndarray | None
    # Ghat_meet is where the forward and backward halves link, 0 (the
    # identity) at P = 1; P when the chain runs forward only (no target)
    meet: int
    # (|G|, 2) ids of r_g and s_g, the last gate's phase against the target
    rs_split: np.ndarray | None = None
    alpha: int | None = None
    e: np.ndarray | None = None  # (2, n, n) Re/Im deviations from the target

    def pin_rows(self, model: MipModel, pos0: int,
                 terms: list[tuple[int, np.ndarray]], family: str) -> None:
        """Rows Ghat after pos0 + 1 gates = sum_k x[var_k] M_k, one per Re/Im entry.

        `terms` pairs distinct variable ids with complex matrices M_k;
        pos0 = -1 addresses the empty product, the identity.
        """
        n = self.ghat.shape[-1]
        parts = [(var, _parts(m)) for var, m in terms]
        rhs = np.zeros((2, n, n))
        if pos0 < 0:
            rhs -= _parts(np.eye(n))
        for idx in np.ndindex(2, n, n):
            coefs = {} if pos0 < 0 else {int(self.ghat[pos0][idx]): 1.0}
            for var, m in parts:
                if abs(m[idx]) > 1e-14:
                    coefs[var] = -float(m[idx])
            model.add_constr(coefs, "==", float(rhs[idx]), family=family)


@dataclass
class SynthesisResult:
    """Verified outcome of one synthesis run."""

    status: str  # optimal | feasible | infeasible | time_limit
    sequence: list[GateSpec] = field(default_factory=list)
    gate_indices: list[int] = field(default_factory=list)
    objective_value: float | None = None
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


def reachable_spans(mats: np.ndarray, P: int) -> list[np.ndarray]:
    """Orthonormal bases of L_0, ..., L_P, one (dim L_p, 2n^2) array each.

    L_p is the real span of the Re/Im parts, flattened as a (2, n, n) array,
    of every product of at most p of the matrices; `mats` holds the identity.
    Step p multiplies only the directions step p - 1 added, N_{p-1}, by each
    matrix, and keeps what is new beyond L_{p-1} by an SVD rank test at
    SPAN_TOL.  The candidates are unit vectors, since a unitary on the right
    keeps the Frobenius norm.  Once a step adds nothing, or the span is the
    whole space, every later span is the same.
    """
    n = mats.shape[1]
    d = 2 * n * n
    new = _parts(np.eye(n)).reshape(1, d) / np.sqrt(n)
    spans = [new]
    for _ in range(P):
        basis = spans[-1]
        if len(new) and len(basis) < d:
            held = new.reshape(-1, 2, n, n)
            prods = (held[:, 0] + 1j * held[:, 1])[:, None] @ mats
            cand = np.stack([prods.real, prods.imag], axis=2).reshape(-1, d)
            cand -= cand @ basis.T @ basis
            _, s, vt = np.linalg.svd(cand, full_matrices=False)
            new = vt[s > SPAN_TOL]
            basis = np.vstack([basis, new])
        spans.append(basis)
    return spans


def span_relations(basis: np.ndarray) -> list[tuple[int, list[tuple[int, float]]]]:
    """Each coordinate outside the pivots, as a combination of the pivots.

    Pivoted Gram-Schmidt on the columns of the orthonormal `basis` picks
    one pivot coordinate per dimension; every point x of the span then has
    x_j = sum_k R_jk x_k over the pivots k for each other coordinate j.
    Returns (j, [(k, R_jk), ...]) with the R_jk above SPAN_TOL; an empty
    list marks a structural zero.
    """
    r, d = basis.shape
    rest, piv = basis.copy(), []
    for _ in range(r):
        k = int(np.argmax(np.einsum("ij,ij->j", rest, rest)))
        q = rest[:, k] / np.linalg.norm(rest[:, k])
        rest -= np.outer(q, q @ rest)
        piv.append(k)
    dep = np.setdiff1d(np.arange(d), piv)
    coef = np.linalg.solve(basis[:, piv], basis[:, dep])  # x_dep = x_piv @ coef
    return [(int(j), [(k, float(c)) for k, c in zip(piv, col) if abs(c) > SPAN_TOL])
            for j, col in zip(dep, coef.T)]


def _span_rows(model: MipModel, ids: np.ndarray, relations) -> None:
    """Confine the variables `ids`, flattened like the span, to its relations."""
    flat = np.ravel(ids)
    for j, terms in relations:
        if terms:
            coefs = {int(flat[j]): 1.0}
            coefs.update((int(flat[k]), -c) for k, c in terms)
            model.add_constr(coefs, "==", 0.0, family="span")
        else:
            model.fix_var(int(flat[j]), 0.0)


def build_base(problem: SynthesisProblem) -> tuple[MipModel, ModelHandles]:
    """One-hot selection plus the disaggregated cumulative-product chain.

    The chain meets the target halfway for target objectives, at
    m = min(ceil(P/2), P - 1), and runs forward to P otherwise (see the
    module docstring).  Rows: P one-hot; 2n^2 pinning Ghat_1 to the first
    gate (family cumulative) when the chain has a Ghat_1; and for each copy
    step, 4n^2 per gate bounding its copy by z plus 2n^2 summing the copies
    (family disjunctive) and 2n^2 defining the next product (family
    cumulative).  There are P - 1 copy steps on the forward chain and
    max(P - 2, 0) on the two-ended one, which adds 2n^2 rows pinning
    Ghat_{P-1}, or I at P = 1, to the target pulled back through the last
    gate (family target).  In global phase mode that pull-back splits the
    phase: 4|G| rows bound the r_g and s_g by z[g,P] (family disjunctive).
    The forward chain of an objective without a target adds the span rows
    (family span): 2n^2 - dim L_p for Ghat_p and 2n^2 - dim L_{p-1} for each
    copy V[p,g], less the structural zeros, whose bounds are fixed to 0.
    """
    P, n = problem.P, problem.gate_set.dim
    eff_t, gs = problem.effective_instance
    G, mats = len(gs), gs.matrices()
    model = MipModel(name=f"synth_{problem.objective}_Q{gs.num_qubits}_P{P}")

    z = np.empty((G, P), dtype=np.int64)
    for p in range(P):
        for g in range(G):
            z[g, p] = model.add_binary(f"z({gs.label(g)},{p + 1})")
    for p in range(P):
        model.add_constr({int(z[g, p]): 1.0 for g in range(G)}, "==", 1.0,
                         family="one_hot")

    target = problem.targets_equality()
    ghat = np.array([_complex_vars(model, f"Ghat({p + 1})", n)
                     for p in range(P - target)], dtype=np.int64).reshape(-1, 2, n, n)
    meet = min((P + 1) // 2, P - 1) if target else P
    forward = range(2, meet + 1)  # Ghat_p from Ghat_{p-1} through G_p
    backward = range(P - 1, meet, -1)  # Ghat_{p-1} from Ghat_p through G_p^dag
    v = (np.empty((P + 1, G, 2, n, n), dtype=np.int64)
         if len(forward) + len(backward) else None)
    handles = ModelHandles(z=z, ghat=ghat, v=v, meet=meet)
    if meet:
        handles.pin_rows(model, 0, [(int(z[g, 0]), m) for g, m in enumerate(mats)],
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

    right = _right_parts(mats)
    for p in forward:
        copy_step(p, p - 2, p - 1, right)
    right = _right_parts(mats.conj().transpose(0, 2, 1))
    for p in backward:
        copy_step(p, p - 1, p - 2, right)

    if not target:
        rel = [span_relations(b) for b in reachable_spans(mats, P)]
        for p in range(1, P + 1):
            _span_rows(model, ghat[p - 1], rel[p])
            if p > 1:
                for copy in v[p]:
                    _span_rows(model, copy, rel[p - 1])
        return model, handles
    pulled = [eff_t @ m.conj().T for m in mats]  # T G_g^dag
    last = [int(k) for k in z[:, P - 1]]
    if not problem.up_to_phase:
        terms = list(zip(last, pulled))
    else:
        split = np.array([[model.add_var(f"{c}({gs.label(g)})", -1.0, 1.0)
                           for c in "rs"] for g in range(G)], dtype=np.int64)
        handles.rs_split = split
        for g in range(G):
            _bound_by(model, split[g], last[g])
        terms = [term for g, m in enumerate(pulled)
                 for term in ((int(split[g, 0]), m), (int(split[g, 1]), 1j * m))]
    handles.pin_rows(model, P - 2, terms, "target")
    return model, handles


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
    qubits, the rule schedule_depth applies in time order.  Rows: every
    gate on some qubit has a break at or before it; two gates sharing a
    qubit have a break after the first and at or before the second; at most
    D breaks.  For fixed z the fewest breaks meeting these rows is the depth
    schedule_depth computes: it opens a layer at position e only when the
    gate there shares a qubit with the run opened at e' < e, so the
    rows force a break in (e', e]; those intervals are disjoint, and the
    first gate that acts on any qubit forces one more at or before it.
    Gates on no qubit, the identity among them, need no layer, so an empty
    circuit has depth 0.
    """
    gs = problem.gate_set
    P, z = problem.P, handles.z
    breaks = np.array([model.add_binary(f"break({p + 1})") for p in range(P)],
                      dtype=np.int64)
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


def _alpha_coefs(problem: SynthesisProblem, handles: ModelHandles) -> dict[int, float]:
    """alpha = Re tr(T^dag Ghat_P) / n on the Re/Im parts."""
    rt = _parts(problem.effective_instance[0])
    scale = 1.0 / rt.shape[1]  # 1 / 2^Q
    gP = handles.ghat[problem.P - 1]
    return {int(gP[idx]): float(rt[idx]) * scale
            for idx in np.ndindex(rt.shape) if abs(rt[idx]) > 1e-14}


def add_objective_linearized_fidelity(problem: SynthesisProblem, model: MipModel,
                                      handles: ModelHandles) -> None:
    a = model.add_var("alpha", -1.0, 1.0)
    handles.alpha = a
    coefs = _alpha_coefs(problem, handles)
    coefs[a] = coefs.get(a, 0.0) - 1.0
    model.add_constr(coefs, "==", 0.0, family="objective")
    model.set_objective({a: 1.0}, "max")


def add_objective_frobenius_oa(problem: SynthesisProblem, model: MipModel,
                               handles: ModelHandles) -> None:
    """Deviations E = Ghat_P - T boxed in [-epsilon, epsilon]; min the error.

    The error counts each complex entry twice, as R(Ghat_P) - R(T) does:
    2 ||U - T||^2 = 4n - 4 Re tr(T^dag U) for unitary U and T.  On the Re/Im
    parts rt of T, Re tr(T^dag U) = sum_k rt_k (rt_k + E_k) with
    sum_k rt_k^2 = n, so the error is -4 sum_k rt_k E_k, exactly, at every
    integer point; the oracle's ranking by alpha rests on the same identity.
    """
    eps = float(problem.epsilon)
    rt = _parts(problem.effective_instance[0])
    gP = handles.ghat[problem.P - 1]
    e = np.empty(rt.shape, dtype=np.int64)
    for idx in np.ndindex(rt.shape):
        e[idx] = model.add_var("E({},{},{})".format(*idx), -eps, eps)
        model.add_constr({int(gP[idx]): 1.0, int(e[idx]): -1.0}, "==",
                         float(rt[idx]), family="frobenius_box")
    handles.e = e
    model.set_objective({int(e[idx]): -4.0 * float(rt[idx])
                         for idx in np.ndindex(rt.shape) if abs(rt[idx]) > 1e-14}, "min")


def build_model(problem: SynthesisProblem) -> tuple[MipModel, ModelHandles]:
    """Base (with the target, when the objective has one), objective, and cuts."""
    if problem.objective == "exact_fidelity":
        raise ConfigError("exact_fidelity is a quadratic objective with no linear "
                          "model; solve it with the oracle backend")
    model, handles = build_base(problem)
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

    Each gate, given by the qubits it acts on (its support), joins the
    current layer when those are disjoint from everything there and opens
    the next layer otherwise, which gives the least depth for that order.
    Returns the depth and each gate's 1-based layer; a gate on no qubits
    adds no depth and is listed in the current layer (layer 1 before any
    other gate).
    """
    depth, layer = 0, set()
    assignment: dict[int, int] = {}
    for idx, gate in enumerate(sequence, start=1):
        if gate and (depth == 0 or layer.intersection(gate)):
            depth, layer = depth + 1, set()
        layer.update(gate)
        assignment[idx] = max(depth, 1)
    return depth, assignment


def verify_sequence(problem: SynthesisProblem, gate_indices: list[int]) -> SynthesisResult:
    """Everything a chosen gate sequence determines, computed from the gates.

    The word is multiplied once, in the problem's effective instance;
    normalization rescales each matrix by a phase, so the fidelity is the
    library's.  The phase factor is alpha + i*beta, in global-phase mode
    with a target: the value of the last gate's phase split (r_g + i s_g).
    Depth and schedule come from the gates' supports.  Both synthesis routes
    build their results here, and a word that misses the target of a target
    objective raises ModelIntegrityError.
    """
    gs = problem.gate_set
    eff_t, eff_gs = problem.effective_instance
    eff_prod = sequence_product(eff_gs.matrices()[gate_indices], gs.dim)
    overlap = np.vdot(eff_t, eff_prod) / gs.dim  # tr(T^dag U) / n
    alpha, beta = float(overlap.real), float(overlap.imag)
    fid = alpha ** 2 + beta ** 2
    if problem.targets_equality() and fid < 1 - 1e-9:
        raise ModelIntegrityError(
            f"the chosen circuit reaches the target with fidelity {fid:.12f}")
    depth, schedule = schedule_depth([gs[g].support for g in gate_indices])
    return SynthesisResult(
        status="optimal",
        sequence=[gs[g].spec for g in gate_indices],
        gate_indices=list(gate_indices),
        fidelity_to_target=fid,
        alpha=alpha,
        beta=beta,
        error_fro_sq=float(np.sum(np.abs(eff_prod - eff_t) ** 2) * 2.0),
        depth_schedule=schedule,
        depth=depth,
        phase_factor=complex(alpha, beta) if problem.up_to_phase else None,
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
    the phase split (r_g, s_g), the circuit's phase against the target for
    the last gate and zero for the others; alpha; and the deviations E
    (clipped into the epsilon-box, so any excess shows up in the box rows).
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

    eff_t, eff_gs = problem.effective_instance
    mats = eff_gs.matrices()
    chain = [mats[chosen[0]]]
    for g in chosen[1:]:
        chain.append(chain[-1] @ mats[g])
    xp[handles.ghat] = np.reshape([_parts(c) for c in chain[:len(handles.ghat)]],
                                  handles.ghat.shape)
    meet = handles.meet
    for p in range(2, problem.P + 1):
        if p <= meet or p < problem.P:  # the last gate has no copies past meet
            held = chain[p - 2] if p <= meet else chain[p - 1]
            xp[handles.v[p]] = z[:, p - 1, None, None, None] * _parts(held)

    final = chain[-1]
    # the target row makes the last gate's split the phase, tr(T^dag U) / n
    phase = np.vdot(eff_t, final) / len(final)
    if handles.alpha is not None:
        xp[handles.alpha] = phase.real
    if handles.rs_split is not None:
        xp[handles.rs_split] = z[:, -1, None] * [phase.real, phase.imag]
    if handles.e is not None:
        eps = float(problem.epsilon)
        xp[handles.e] = np.clip(_parts(final - eff_t), -eps, eps)

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

    viol = model.check_point(xp)
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
    result = verify_sequence(problem, seq_idx)
    # as verified: extra breaks of an incumbent and E's box clipping do not count
    verified = {"depth": float(result.depth), "frobenius_oa": result.error_fro_sq}
    return replace(
        result, status=solution.status,
        objective_value=verified.get(problem.objective, polished),
        certificate={"status": solution.status, "bound": solution.bound,
                     "gap": solution.gap, "gap_tol": DEFAULT_GAP_TOL,
                     "claim_discrepancy": claimed - polished,
                     "data_residual": data_residual},
        solve_seconds=solution.solve_seconds)


def _oracle_route(problem: SynthesisProblem, time_limit: float | None) -> SynthesisResult:
    """Solve by exhaustive search over every word of at most P gates."""
    res = oracle_mod.exhaustive_synthesize(problem, time_limit)
    if res.status == "infeasible":
        return SynthesisResult(status="infeasible",
                               certificate={"status": "infeasible", "bound": None,
                                            "gap": None, "nodes": res.nodes},
                               solve_seconds=res.seconds)
    result = verify_sequence(problem, res.sequence)
    scores = {"linearized_fidelity": result.alpha,
              "exact_fidelity": result.fidelity_to_target,
              "frobenius_oa": result.error_fro_sq}
    obj_val = float(scores.get(problem.objective, res.objective))
    return replace(result, objective_value=obj_val,
                   certificate={"status": "optimal", "bound": obj_val, "gap": 0.0,
                                "nodes": res.nodes},
                   solve_seconds=res.seconds)


def synthesize(problem: SynthesisProblem, backend: str = "scipy",
               time_limit: float | None = None) -> SynthesisResult:
    """Solve one synthesis instance end to end and verify the outcome.

    `time_limit` is in seconds and covers building the model too; None
    means no limit.  A MIP certificate records what was left of it for the
    solver as `solver_time_limit`.
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
    if time_limit is not None:
        time_limit -= time.perf_counter() - t0
    sol = be.solve(model, time_limit=time_limit)
    solver_info = {"row_families": dict(model.family_rows), "nodes": sol.nodes,
                   "solver_time_limit": time_limit}
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
    "build_base", "build_model", "add_objective_gate_count",
    "add_depth_scheduling", "add_objective_linearized_fidelity",
    "add_objective_frobenius_oa",
    "extract_and_verify", "polish_point", "schedule_depth", "verify_sequence",
    "synthesize",
    "OBJECTIVES", "PHASE_MODES",
]
