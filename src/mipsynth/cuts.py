"""Valid inequalities layered onto the base synthesis model.

Four families break symmetry or remove provably dominated choices
(identity placement, commuting order, equivalent patterns, collapsible
windows); the hindsight family propagates the target equality backward
through the last gates.  The base chain already runs backward from the
target (see formulation.build_base): its first backward step,
Ghat_{P-1} = sum_g z[g,P] T G_g^dag, is the row the one-position hindsight
cut wrote, and in global phase mode its phase split is the convex hull of
that cut's big-M rows switched on the last gate, so it implies them.  What
is left of the family is the two-position pull-back in exact mode, through
a product binary per gate pair at the last two positions; in global phase
mode `hc` emits nothing.  Every cut keeps at least one optimal solution
feasible, and families that reorder gates are rejected under the depth
objective, where order changes the objective value.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConfigError
from .gates import effective_gate_set
from .relations import RelationCatalog, detect_relations

if TYPE_CHECKING:
    from .formulation import ModelHandles, SynthesisProblem
    from .mip import MipModel

WEIGHT_TOL = 1e-12
CUT_FAMILIES = ("identity_symmetry", "commuting", "equivalent", "redundancy", "hc")
#: Longest gate window the redundancy family collapses.
REDUNDANCY_K_MAX = 3
_TOKENS = {
    "identity": "identity_symmetry", "identity_symmetry": "identity_symmetry",
    "commuting": "commuting_pairs", "commuting_pairs": "commuting_pairs",
    "equivalent": "equivalent_patterns",
    "equivalent_patterns": "equivalent_patterns",
    "redundancy": "redundancy", "hc": "hindsight",
}


@dataclass(frozen=True)
class CutSelection:
    """Which cut families to emit.  Identity placement is on by default."""

    identity_symmetry: bool = True
    commuting_pairs: bool = False
    equivalent_patterns: bool = False
    redundancy: bool = False
    hindsight: bool = False

    @classmethod
    def none(cls) -> "CutSelection":
        return cls(identity_symmetry=False)

    @classmethod
    def all(cls) -> "CutSelection":
        return cls(**{f.name: True for f in fields(cls)})

    @classmethod
    def from_names(cls, names) -> "CutSelection":
        """Build a selection from comma-style tokens (CLI `--cuts`).

        `hc` selects the hindsight family, which emits rows in exact phase
        mode only.  `none` and `all` behave as expected; unknown
        tokens raise.
        """
        if isinstance(names, str):
            names = [t.strip() for t in names.split(",") if t.strip()]
        on = {f.name: False for f in fields(cls)}
        for tok in names:
            t = tok.lower()
            if t == "none" or t == "base":
                continue
            if t == "all":
                on = dict.fromkeys(on, True)
            elif t in _TOKENS:
                on[_TOKENS[t]] = True
            else:
                raise ConfigError(f"unknown cut family {tok!r}; known: "
                                  f"{sorted(set(_TOKENS) | {'all', 'none'})}")
        return cls(**on)

    def wants_patterns(self) -> bool:
        return self.commuting_pairs or self.equivalent_patterns or self.redundancy

    def active_names(self) -> list[str]:
        return [f.name for f in fields(self) if getattr(self, f.name)]


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


def add_hc2_cuts(problem: "SynthesisProblem", model: "MipModel",
                 handles: "ModelHandles") -> None:
    """Propagate the exact target two positions back through the last pair."""
    gs = problem.gate_set
    P = problem.P
    if P < 2:
        return
    z, t, mats = handles.z, handles.eff_target, handles.eff_gate_mats
    terms = []
    for g in range(len(gs)):
        for h in range(len(gs)):
            wid = model.add_binary(f"hc2({gs.label(g)},{gs.label(h)})")
            model.add_product_binary(wid, int(z[g, P - 2]), int(z[h, P - 1]),
                                     family="cut_hc2")
            terms.append((wid, t @ mats[h].conj().T @ mats[g].conj().T))
    handles.pin_rows(model, P - 3, terms, "cut_hc2")


def apply_cuts(model: "MipModel", handles: "ModelHandles",
               problem: "SynthesisProblem") -> None:
    """Emit every selected and applicable family.

    The hindsight family emits its exact-mode rows only, and skips with a
    warning under objectives that drop the target equality, so one
    selection like `hc` works everywhere.
    """
    sel = problem.cuts
    gs = problem.gate_set

    if sel.identity_symmetry and problem.P > 1:
        add_identity_symmetry_cuts(model, handles.z, gs.identity_index, problem.P)

    if sel.wants_patterns():
        # Patterns must hold for the matrices the model constrains: under
        # exact phase matching those are determinant-normalized, and raw
        # relations like Z.Z == I stop being true there.
        rel_gs = effective_gate_set(gs, handles.eff_gate_mats, handles.su_applied)
        up = problem.phase_mode == "global_phase" and problem.targets_equality()
        catalog = detect_relations(rel_gs, k_max=REDUNDANCY_K_MAX, up_to_phase=up)
        if sel.commuting_pairs and problem.P > 1:
            add_commuting_cuts(model, handles.z, catalog, problem.P, problem.objective)
        if sel.equivalent_patterns and problem.P > 1:
            add_equivalent_pattern_cuts(model, handles.z, catalog, problem.weights,
                                        problem.P, problem.objective)
        if sel.redundancy:
            add_redundancy_cuts(model, handles.z, catalog, problem.weights, problem.P)

    if not sel.hindsight:
        return
    if not problem.targets_equality():
        warnings.warn("hindsight cuts need a target-equality objective; skipped",
                      stacklevel=2)
    elif problem.phase_mode == "exact":
        add_hc2_cuts(problem, model, handles)


__all__ = [
    "CutSelection", "apply_cuts", "CUT_FAMILIES",
    "add_identity_symmetry_cuts", "add_commuting_cuts",
    "add_equivalent_pattern_cuts", "add_redundancy_cuts",
    "add_hc2_cuts",
]
