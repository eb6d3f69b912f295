"""Valid inequalities layered onto the base synthesis model.

Four families break symmetry or remove provably dominated choices
(identity placement, commuting order, equivalent patterns, collapsible
windows); the hindsight family propagates the target equality backward
through the last gates.

The commuting, equivalent and redundancy families each forbid a set of
words (relations.RelationCatalog.forbidden_words), and one writer,
add_pattern_rows, emits them all.  The words that share a prefix a_1..a_k
and end in a gate of F = F(a_1..a_k) get one row per position p:

    z[a_1,p] + ... + z[a_k,p+k-1] + sum_{c in F} z[c,p+k] <= k.

One-hot selection puts at most one gate of F at position p+k, so at an
integer point the row is violated exactly when the prefix is followed by
a gate of F: it allows the same circuits as one row per forbidden word.
Its relaxation is never weaker, since with z >= 0 it implies every
per-word row z[a_1,p] + ... + z[c,p+k] <= k, and it is strictly tighter
when |F| > 1: at k = 1, z[a,p] = z[c_1,p+1] = z[c_2,p+1] = 1/2 meets both
per-word rows and violates this one.  This is the clique aggregation of
conflict rows (Atamtürk, Nemhauser and Savelsbergh 2000).  Every forbidden
word keeps a no-heavier word of equal product allowed, so each family keeps
an optimum.  Families that reorder gates are switched off under the depth
objective (SynthesisProblem.__post_init__), where order changes the
objective value.

The base chain already runs backward from the target (see
formulation.build_base): its first backward step,
Ghat_{P-1} = sum_g z[g,P] T G_g^dag, is the row the one-position hindsight
cut wrote, and in global phase mode its phase split is the convex hull of
that cut's big-M rows switched on the last gate, so it implies them.  What
is left of the family is the two-position pull-back in exact mode, through
a product binary per gate pair at the last two positions; in global phase
mode `hc` emits nothing.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConfigError
from .relations import detect_relations

if TYPE_CHECKING:
    from .formulation import ModelHandles, SynthesisProblem
    from .mip import MipModel

CUT_FAMILIES = ("identity_symmetry", "commuting", "equivalent", "redundancy", "hc")
#: Longest word the commuting, equivalent and redundancy families read.
WORD_K_MAX = 3
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


def add_identity_symmetry_cuts(model: "MipModel", z: np.ndarray,
                               identity_index: int, P: int) -> None:
    """Identity selections form a suffix: z[id,p] <= z[id,p+1]."""
    for p in range(1, P):
        model.add_constr({int(z[identity_index, p - 1]): 1.0,
                          int(z[identity_index, p]): -1.0},
                         "<=", 0.0, family="cut_identity_symmetry")


def add_pattern_rows(model: "MipModel", z: np.ndarray, words, P: int,
                     family: str) -> None:
    """Forbid `words` at every position, one row per forbidden prefix.

    With F(prefix) the last gates of the forbidden words that start with
    `prefix`, each position p gets
    z[prefix at p] + sum_{c in F(prefix)} z[c, p + |prefix|] <= |prefix|.
    """
    successors: dict[tuple[int, ...], list[int]] = {}
    for word in sorted(words):
        successors.setdefault(word[:-1], []).append(word[-1])
    for prefix, last in successors.items():
        k = len(prefix)
        for p in range(P - k):
            coefs = {int(z[a, p + off]): 1.0 for off, a in enumerate(prefix)}
            coefs.update((int(z[c, p + k]), 1.0) for c in last)
            model.add_constr(coefs, "<=", float(k), family=family)


def add_hc2_cuts(problem: "SynthesisProblem", model: "MipModel",
                 handles: "ModelHandles") -> None:
    """Propagate the exact target two positions back through the last pair."""
    t, gs = problem.effective_instance
    P = problem.P
    if P < 2:
        return
    z, mats = handles.z, gs.matrices()
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
    gs = problem.effective_instance[1]

    if sel.identity_symmetry and problem.P > 1:
        add_identity_symmetry_cuts(model, handles.z, gs.identity_index, problem.P)

    if sel.wants_patterns():
        # patterns must hold for the matrices the model constrains
        catalog = detect_relations(gs, k_max=WORD_K_MAX, up_to_phase=problem.up_to_phase)
        for family in ("commuting", "equivalent", "redundancy"):
            if getattr(sel, _TOKENS[family]):
                add_pattern_rows(model, handles.z,
                                 catalog.forbidden_words(family, problem.weights),
                                 problem.P, f"cut_{family}")

    if not sel.hindsight:
        return
    if not problem.targets_equality():
        warnings.warn("hindsight cuts need a target-equality objective; skipped",
                      stacklevel=2)
    elif not problem.up_to_phase:
        add_hc2_cuts(problem, model, handles)


__all__ = [
    "CutSelection", "apply_cuts", "CUT_FAMILIES",
    "add_identity_symmetry_cuts", "add_pattern_rows", "add_hc2_cuts",
]
