"""Valid inequalities layered onto the base synthesis model.

Four families break symmetry or remove provably dominated choices
(identity placement, commuting order, equivalent patterns, collapsible
windows); the hindsight families propagate the target equality one or two
positions backward.  Every cut keeps at least one optimal solution feasible,
and families that reorder gates are rejected under the depth objective,
where order changes the objective value.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING

import numpy as np

from .encoding import encode_real
from .errors import ConfigError
from .gates import effective_gate_set
from .relations import RelationCatalog, detect_relations

if TYPE_CHECKING:
    from .formulation import ModelHandles, SynthesisProblem
    from .mip import MipModel

WEIGHT_TOL = 1e-12
CUT_FAMILIES = ("identity_symmetry", "commuting", "equivalent", "redundancy", "hc")


@dataclass(frozen=True)
class CutSelection:
    """Which cut families to emit.  Identity placement is on by default."""

    identity_symmetry: bool = True
    commuting_pairs: bool = False
    equivalent_patterns: bool = False
    redundancy: bool = False
    hc1: bool = False
    hc2: bool = False
    hc1_global_phase: bool = False
    redundancy_k_max: int = 3

    @classmethod
    def none(cls) -> "CutSelection":
        return cls(identity_symmetry=False)

    @classmethod
    def all(cls) -> "CutSelection":
        return cls(identity_symmetry=True, commuting_pairs=True,
                   equivalent_patterns=True, redundancy=True,
                   hc1=True, hc2=True, hc1_global_phase=True)

    @classmethod
    def from_names(cls, names) -> "CutSelection":
        """Build a selection from comma-style tokens (CLI `--cuts`).

        `hc` enables every hindsight variant; the applicable one is picked
        at emission time from the phase mode.  `none` and `all` behave as
        expected; unknown tokens raise.
        """
        if isinstance(names, str):
            names = [t.strip() for t in names.split(",") if t.strip()]
        on = {
            "identity_symmetry": False, "commuting_pairs": False,
            "equivalent_patterns": False, "redundancy": False,
            "hc1": False, "hc2": False, "hc1_global_phase": False,
        }
        alias = {
            "identity": "identity_symmetry",
            "identity_symmetry": "identity_symmetry",
            "commuting": "commuting_pairs",
            "commuting_pairs": "commuting_pairs",
            "equivalent": "equivalent_patterns",
            "equivalent_patterns": "equivalent_patterns",
            "redundancy": "redundancy",
            "hc1": "hc1", "hc2": "hc2",
            "hc1_global_phase": "hc1_global_phase",
        }
        for tok in names:
            t = tok.lower()
            if t == "none" or t == "base":
                continue
            if t == "all":
                for k in on:
                    on[k] = True
            elif t == "hc":
                on["hc1"] = on["hc2"] = on["hc1_global_phase"] = True
            elif t in alias:
                on[alias[t]] = True
            else:
                raise ConfigError(f"unknown cut family {tok!r}; known: "
                                  f"{sorted(set(alias) | {'hc', 'all', 'none'})}")
        return cls(**on)

    def wants_patterns(self) -> bool:
        return self.commuting_pairs or self.equivalent_patterns or self.redundancy

    def active_names(self) -> list[str]:
        return [f.name for f in fields(self)
                if f.type == "bool" and getattr(self, f.name)]


def _pattern_weight(weights: np.ndarray, pattern) -> float:
    return float(sum(weights[i] for i in pattern))


def add_identity_symmetry_cuts(model: "MipModel", z: np.ndarray,
                               identity_index: int, P: int) -> None:
    """Identity selections form a suffix: z[id,p] <= z[id,p+1]."""
    for p in range(1, P):
        model.add_constr({int(z[identity_index, p - 1]): 1.0,
                          int(z[identity_index, p]): -1.0},
                         "<=", 0.0, family="cut_identity_symmetry")


def add_commuting_cuts(model: "MipModel", z: np.ndarray,
                       catalog: RelationCatalog, P: int, objective: str) -> None:
    """Adjacent commuting gates appear in index order: forbid (j then i)."""
    if objective == "depth":
        raise ConfigError("commuting-order cuts reorder gates and are invalid "
                          "under the depth objective")
    for i, j in catalog.commuting_pairs:
        for p in range(P - 1):
            model.add_constr({int(z[j, p]): 1.0, int(z[i, p + 1]): 1.0},
                             "<=", 1.0, family="cut_commuting")


def add_equivalent_pattern_cuts(model: "MipModel", z: np.ndarray,
                                catalog: RelationCatalog, weights: np.ndarray,
                                P: int, objective: str) -> None:
    """Forbid the larger of two equal-product patterns when no heavier.

    A forbidden pattern is only cut when the kept representative weighs no
    more, so a weighted-count optimum always survives.
    """
    if objective == "depth":
        raise ConfigError("equivalent-pattern cuts reorder gates and are invalid "
                          "under the depth objective")
    for forbidden, kept in catalog.equivalent_pairs:
        if _pattern_weight(weights, kept) > _pattern_weight(weights, forbidden) + WEIGHT_TOL:
            continue
        a1, a2 = forbidden
        for p in range(P - 1):
            model.add_constr({int(z[a1, p]): 1.0, int(z[a2, p + 1]): 1.0},
                             "<=", 1.0, family="cut_equivalent")
    for forbidden, kept in catalog.equivalent_triplets:
        if _pattern_weight(weights, kept) > _pattern_weight(weights, forbidden) + WEIGHT_TOL:
            continue
        a1, a2, a3 = forbidden
        for p in range(P - 2):
            model.add_constr({int(z[a1, p]): 1.0, int(z[a2, p + 1]): 1.0,
                              int(z[a3, p + 2]): 1.0},
                             "<=", 2.0, family="cut_equivalent")


def add_redundancy_cuts(model: "MipModel", z: np.ndarray,
                        catalog: RelationCatalog, weights: np.ndarray,
                        P: int) -> None:
    """Forbid windows whose product collapses to one no-heavier gate."""
    for seq, g in catalog.redundancies:
        k = len(seq)
        if k > P:
            continue
        if weights[g] > _pattern_weight(weights, seq) + WEIGHT_TOL:
            continue
        for p in range(P - k + 1):
            coefs: dict[int, float] = {}
            for off, a in enumerate(seq):
                key = int(z[a, p + off])
                coefs[key] = coefs.get(key, 0.0) + 1.0
            model.add_constr(coefs, "<=", float(k - 1), family="cut_redundancy")


def _entry_coefs(handles: "ModelHandles", pos0: int, i: int,
                 j: int) -> tuple[dict[int, float], float]:
    """Row coefficients and constant of R(Ghat) entry (i, j) after pos0 + 1 gates."""
    var, sign, const = handles.chain_entry(pos0, i, j)
    return ({} if var is None else {var: sign}), const


def add_hc1_cuts(problem: "SynthesisProblem", model: "MipModel",
                 handles: "ModelHandles") -> None:
    """Propagate the exact target one position back through the last gate."""
    gs = problem.gate_set
    P = problem.P
    z = handles.z
    m2 = 2 * gs.dim
    back = np.stack([encode_real(handles.eff_target @ g.conj().T)
                     for g in handles.eff_gate_mats])
    for i in range(m2):
        for j in range(0, m2, 2):  # the independent entries of R(.)
            coefs, const = _entry_coefs(handles, P - 2, i, j)
            for g in range(len(gs)):
                c = float(back[g, i, j])
                if abs(c) > 1e-14:
                    key = int(z[g, P - 1])
                    coefs[key] = coefs.get(key, 0.0) - c
            model.add_constr(coefs, "==", -const, family="cut_hc1")


def add_hc2_cuts(problem: "SynthesisProblem", model: "MipModel",
                 handles: "ModelHandles") -> None:
    """Propagate the exact target two positions back through the last pair."""
    gs = problem.gate_set
    P = problem.P
    if P < 2:
        return
    z = handles.z
    G = len(gs)
    m2 = 2 * gs.dim
    w = np.empty((G, G), dtype=np.int64)
    for g in range(G):
        for h in range(G):
            wid = model.add_binary(f"hc2({gs.label(g)},{gs.label(h)})")
            w[g, h] = wid
            model.add_product_binary(wid, int(z[g, P - 2]), int(z[h, P - 1]),
                                     family="cut_hc2")
    back = np.empty((G, G, m2, m2))
    for g in range(G):
        for h in range(G):
            m = handles.eff_target @ handles.eff_gate_mats[h].conj().T \
                @ handles.eff_gate_mats[g].conj().T
            back[g, h] = encode_real(m)
    for i in range(m2):
        for j in range(0, m2, 2):  # the independent entries of R(.)
            coefs, const = _entry_coefs(handles, P - 3, i, j)
            for g in range(G):
                for h in range(G):
                    c = float(back[g, h, i, j])
                    if abs(c) > 1e-14:
                        key = int(w[g, h])
                        coefs[key] = coefs.get(key, 0.0) - c
            model.add_constr(coefs, "==", -const, family="cut_hc2")


def add_hc1_global_phase_cuts(problem: "SynthesisProblem", model: "MipModel",
                              handles: "ModelHandles") -> None:
    """Conditional backward propagation when the phase is a model variable.

    If gate g sits at the last position then the preceding cumulative
    product equals the phase combination of the target pulled through g.
    The products of the phase variables with gate entries stay linear by
    switching the rows with a big-M of 2, which the variable bounds make
    valid.
    """
    gs = problem.gate_set
    P = problem.P
    z = handles.z
    if handles.r is None or handles.s is None:
        raise ConfigError("phase-aware hindsight cuts need the phase-variable "
                          "target rows")
    r, s = handles.r, handles.s
    n = gs.dim
    for g in range(len(gs)):
        zc = int(z[g, P - 1])
        c = handles.eff_target @ handles.eff_gate_mats[g].conj().T
        a_mat, b_mat = c.real, c.imag
        for a in range(n):
            for b in range(n):
                for (i, rc, sc) in ((2 * a, -a_mat[a, b], b_mat[a, b]),
                                    (2 * a + 1, -b_mat[a, b], -a_mat[a, b])):
                    base, const = _entry_coefs(handles, P - 2, i, 2 * b)
                    if abs(rc) > 1e-14:
                        base[r] = base.get(r, 0.0) + float(rc)
                    if abs(sc) > 1e-14:
                        base[s] = base.get(s, 0.0) + float(sc)
                    up = dict(base)
                    up[zc] = up.get(zc, 0.0) + 2.0
                    model.add_constr(up, "<=", 2.0 - const,
                                     family="cut_hc1_global_phase")
                    lo = dict(base)
                    lo[zc] = lo.get(zc, 0.0) - 2.0
                    model.add_constr(lo, ">=", -2.0 - const,
                                     family="cut_hc1_global_phase")


def apply_cuts(model: "MipModel", handles: "ModelHandles",
               problem: "SynthesisProblem",
               catalog: RelationCatalog | None = None) -> None:
    """Emit every selected and applicable family.

    Hindsight families silently skip when the phase mode or objective makes
    them meaningless (with a warning), so a single selection like `hc` works
    across modes.
    """
    sel = problem.cuts
    gs = problem.gate_set

    if sel.identity_symmetry and problem.P > 1:
        add_identity_symmetry_cuts(model, handles.z, gs.identity_index, problem.P)

    if sel.wants_patterns():
        if catalog is None:
            # Patterns must hold for the matrices the model constrains: under
            # exact phase matching those are determinant-normalized, and raw
            # relations like Z.Z == I stop being true there.
            rel_gs = effective_gate_set(gs, handles.eff_gate_mats,
                                        handles.su_applied)
            up = (problem.phase_mode == "global_phase"
                  and problem.targets_equality())
            catalog = detect_relations(rel_gs, k_max=sel.redundancy_k_max,
                                       up_to_phase=up)
        if sel.commuting_pairs and problem.P > 1:
            add_commuting_cuts(model, handles.z, catalog, problem.P, problem.objective)
        if sel.equivalent_patterns and problem.P > 1:
            add_equivalent_pattern_cuts(model, handles.z, catalog, problem.weights,
                                        problem.P, problem.objective)
        if sel.redundancy:
            add_redundancy_cuts(model, handles.z, catalog, problem.weights, problem.P)

    wants_hc = sel.hc1 or sel.hc2 or sel.hc1_global_phase
    if wants_hc and not problem.targets_equality():
        warnings.warn("hindsight cuts need a target-equality objective; skipped",
                      stacklevel=2)
    elif problem.phase_mode == "exact":
        if sel.hc1:
            add_hc1_cuts(problem, model, handles)
        if sel.hc2:
            add_hc2_cuts(problem, model, handles)
        if sel.hc1_global_phase and not (sel.hc1 or sel.hc2):
            warnings.warn("phase-aware hindsight cuts need global phase mode; "
                          "skipped", stacklevel=2)
    else:
        if sel.hc1_global_phase:
            add_hc1_global_phase_cuts(problem, model, handles)
        if (sel.hc1 or sel.hc2) and not sel.hc1_global_phase:
            warnings.warn("exact-phase hindsight cuts need exact phase mode; "
                          "skipped", stacklevel=2)


__all__ = [
    "CutSelection", "apply_cuts", "CUT_FAMILIES",
    "add_identity_symmetry_cuts", "add_commuting_cuts",
    "add_equivalent_pattern_cuts", "add_redundancy_cuts",
    "add_hc1_cuts", "add_hc2_cuts", "add_hc1_global_phase_cuts",
]
