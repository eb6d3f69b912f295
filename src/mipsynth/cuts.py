"""Valid inequalities layered onto the base synthesis model.

Four families break symmetry or remove provably dominated choices
(identity placement, commuting order, equivalent patterns, collapsible
windows); the hindsight family `hc` propagates the target equality
backward through the last gates.  A family's CUT_FAMILIES name is its
CutSelection field, and its rows' family is `cut_<name>` (`cut_hc2` for hc).

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
an optimum.

Target objectives run the ladder: one model per exact length L with the
identity excluded (formulation.synthesize).  Under the weighted gate count
each family stays valid in rung L: the lexicographically least of the
lightest words rung L admits avoids every forbidden word.  It avoids the
commuting and equivalent words, since replacing one gives a
lexicographically smaller word of the same length and product and no more
weight.  A redundant word of k gates collapses to one gate or to the
identity, so a rung-L word that holds one collapses to a no-heavier word of
L - k + 1 or L - k gates, which lies in a shorter rung.  The ladder reaches
rung L only once every shorter rung is decided.  Before any word is found,
each was proved infeasible, so the shorter word cannot exist.  After, none
holds a word under rung L's cutoff: each was proved infeasible under a
cutoff no lower, or solved to an optimum no lighter than the incumbent.  So
the rung-L word is not under the cutoff either, and rung L's cutoff row
already excludes it.  A rung that ends out of time proves neither, which is
why the ladder stops there instead of going on to L + 1.  Identity
placement holds trivially in a rung, and `hc` restates the target.

Under depth, reordering gates changes the layers, so the commuting and
equivalent families do not apply, and a collapsed word can be deeper:
H[2] X[1] S[2] H[1] has two layers, {H[2], X[1]} and {S[2], H[1]}, and with
a library gate XS[1,2] equal to X[1] S[2] the collapsed H[2] XS[1,2] H[1]
has three.  A redundant word that collapses to the identity, or to a gate
whose qubits are all among those of one of the word's gates, keeps its
layers: put the gate where that one was and drop the rest, and no layer
gains a clash, since dropping gates never adds one.  The collapsed word is
then shorter and no deeper, so the argument above holds for these words
with depth in place of weight, and redundancy forbids only them under
depth.

apply_cuts alone decides where a selected family applies, and skips the
others silently: the commuting and equivalent families and the
layer-changing redundant words under the depth objective, and `hc`
without a target.

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

from dataclasses import dataclass
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
#: Every token `from_names` reads: the families, aliases of three, none, all.
_ALIASES = {"identity": "identity_symmetry", "commuting_pairs": "commuting",
            "equivalent_patterns": "equivalent"}
CUT_NAMES = (*CUT_FAMILIES, *_ALIASES, "none", "base", "all")


@dataclass(frozen=True)
class CutSelection:
    """Which cut families to emit.  Identity placement is on by default."""

    identity_symmetry: bool = True
    commuting: bool = False
    equivalent: bool = False
    redundancy: bool = False
    hc: bool = False

    @classmethod
    def from_names(cls, names) -> "CutSelection":
        """Build a selection from comma-style tokens (CLI `--cuts`).

        Each token is a family of CUT_FAMILIES or an alias of one; `hc` emits
        rows in exact phase mode only.  `none` (or `base`) and `all` behave
        as expected; unknown tokens raise.
        """
        if isinstance(names, str):
            names = [t.strip() for t in names.split(",") if t.strip()]
        on = dict.fromkeys(CUT_FAMILIES, False)
        for tok in names:
            t = _ALIASES.get(tok.lower(), tok.lower())
            if t == "all":
                on = dict.fromkeys(on, True)
            elif t in on:
                on[t] = True
            elif t not in ("none", "base"):
                raise ConfigError(f"unknown cut family {tok!r}; known: "
                                  f"{', '.join(CUT_NAMES)}")
        return cls(**on)


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
    t, mats = problem.effective_instance
    gs, P = problem.gate_set, problem.P
    if P < 2:
        return
    z = handles.z
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
    """Emit every selected family where it applies; skip the rest silently.

    Under the depth objective the families that reorder gates (commuting,
    equivalent) are skipped, and redundancy keeps only the words whose
    collapse keeps the layers; `hc` emits its exact-mode rows only, and
    nothing without a target, so one selection like `all` works everywhere.
    """
    sel, id_index = problem.cuts, problem.gate_set.identity_index

    if sel.identity_symmetry and problem.P > 1:
        add_identity_symmetry_cuts(model, handles.z, id_index, problem.P)

    # reordering gates changes the depth
    depth = problem.objective == "depth"
    families = ("redundancy",) if depth else ("commuting", "equivalent", "redundancy")
    families = [f for f in families if getattr(sel, f)]
    if families:
        # patterns must hold for the matrices the model constrains
        catalog = detect_relations(problem.effective_instance[1], id_index, WORD_K_MAX,
                                   problem.up_to_phase)
        gs = problem.gate_set
        for family in families:
            words = catalog.forbidden_words(family, problem.weights)
            if depth:  # only the collapses that keep the layers (module docstring)
                words &= {seq for seq, g in catalog.redundancies
                          if any(set(gs[g].support) <= set(gs[a].support) for a in seq)}
            add_pattern_rows(model, handles.z, words, problem.P, f"cut_{family}")

    if sel.hc and problem.targets_equality() and not problem.up_to_phase:
        add_hc2_cuts(problem, model, handles)


__all__ = [
    "CutSelection", "apply_cuts", "CUT_FAMILIES", "CUT_NAMES",
    "add_identity_symmetry_cuts", "add_pattern_rows", "add_hc2_cuts",
]
