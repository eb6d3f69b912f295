"""Detection of algebraic relations inside a gate set.

The catalog drives the symmetry-breaking and redundancy cuts: commuting
pairs, pairs/triplets of index patterns with equal products, and short
sequences whose product collapses to a single library gate.  Equality is
either exact or up to a global phase, depending on how the synthesis model
treats phases; every cataloged relation is re-verified in exact arithmetic
(hash grouping is only a pre-filter), so false positives cannot occur.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass, field

import numpy as np

from .gates import GateSet, sequence_product

#: Entrywise tolerance for relation equality checks.
RELATION_TOL = 1e-8


def equal_matrices(a: np.ndarray, b: np.ndarray, up_to_phase: bool,
                   tol: float = RELATION_TOL) -> bool:
    """Equality of two same-shaped matrices, optionally up to a global phase.

    The phase test |Tr(a^dag b)| = n is exact for unitaries and tolerant for
    near-unitaries at our scales.
    """
    if not up_to_phase:
        return bool(np.abs(a - b).max() <= tol)
    n = a.shape[0]
    return bool(abs(abs(np.trace(a.conj().T @ b)) - n) <= tol * n)


def _phase_canonical(m: np.ndarray) -> np.ndarray:
    flat = m.ravel()
    k = int(np.argmax(np.abs(flat)))
    v = flat[k]
    if abs(v) < 1e-12:
        return m
    return m * (abs(v) / v)


def _round_key(m: np.ndarray, up_to_phase: bool) -> bytes:
    if up_to_phase:
        m = _phase_canonical(m)
    q = np.round(m * 1e6)
    return (q.real.astype(np.int64).tobytes() + q.imag.astype(np.int64).tobytes())


@dataclass
class RelationCatalog:
    """Relations among the gates of one GateSet, by canonical gate index."""

    up_to_phase: bool
    k_max: int
    commuting_pairs: list[tuple[int, int]] = field(default_factory=list)
    equivalent_pairs: list[tuple[tuple[int, int], tuple[int, int]]] = field(default_factory=list)
    equivalent_triplets: list[tuple[tuple[int, int, int], tuple[int, int, int]]] = field(
        default_factory=list)
    redundancies: list[tuple[tuple[int, ...], int]] = field(default_factory=list)

    def to_dict(self, gs: GateSet) -> dict:
        lab = gs.label
        return {
            "up_to_phase": self.up_to_phase,
            "k_max": self.k_max,
            "commuting_pairs": [[lab(i), lab(j)] for i, j in self.commuting_pairs],
            "equivalent_pairs": [
                {"kept": [lab(a) for a in kept], "forbidden": [lab(a) for a in forb]}
                for forb, kept in self.equivalent_pairs
            ],
            "equivalent_triplets": [
                {"kept": [lab(a) for a in kept], "forbidden": [lab(a) for a in forb]}
                for forb, kept in self.equivalent_triplets
            ],
            "redundancies": [
                {"sequence": [lab(a) for a in seq], "collapses_to": lab(g)}
                for seq, g in self.redundancies
            ],
        }


def detect_relations(gs: GateSet, k_max: int = 3, up_to_phase: bool = False,
                     enumeration_limit: int = 200_000,
                     tol: float = RELATION_TOL) -> RelationCatalog:
    """Catalog commuting pairs, equivalent patterns, and redundant sequences.

    Identity never participates: its placement is fully handled by the
    identity-suffix symmetry cut, and an identity-containing commuting cut
    would contradict that cut.  Redundancy sequences run over non-identity
    gates of length 2..k_max; k_max is reduced with a warning when the
    enumeration would exceed `enumeration_limit` sequences.

    In every equivalent pair/triplet the lexicographically smaller pattern is
    the kept side and the larger is recorded as forbidden, so a cut on the
    forbidden side always leaves a representative solution intact.
    """
    mats = gs.matrices()
    ni = gs.non_identity_indices()
    cat = RelationCatalog(up_to_phase=up_to_phase, k_max=k_max)

    for i, j in itertools.combinations(ni, 2):
        ab = mats[i] @ mats[j]
        ba = mats[j] @ mats[i]
        if equal_matrices(ab, ba, up_to_phase, tol):
            cat.commuting_pairs.append((i, j))
    commuting = set(cat.commuting_pairs)

    # group pair products by rounded key, verify within groups
    pair_groups: dict[bytes, list[tuple[tuple[int, int], np.ndarray]]] = {}
    for i in ni:
        for j in ni:
            p = mats[i] @ mats[j]
            pair_groups.setdefault(_round_key(p, up_to_phase), []).append(((i, j), p))
    for group in pair_groups.values():
        for (pat_a, prod_a), (pat_b, prod_b) in itertools.combinations(group, 2):
            if pat_a == pat_b:
                continue
            swapped = pat_a == (pat_b[1], pat_b[0])
            if swapped and (min(pat_a), max(pat_a)) in commuting:
                continue
            if not equal_matrices(prod_a, prod_b, up_to_phase, tol):
                continue
            kept, forbidden = sorted((pat_a, pat_b))
            cat.equivalent_pairs.append((forbidden, kept))

    if len(ni) ** 3 <= enumeration_limit:
        trip_groups: dict[bytes, list[tuple[tuple[int, int, int], np.ndarray]]] = {}
        for i in ni:
            for j in ni:
                pij = mats[i] @ mats[j]
                for k in ni:
                    p = pij @ mats[k]
                    trip_groups.setdefault(_round_key(p, up_to_phase), []).append(((i, j, k), p))
        for group in trip_groups.values():
            for (pat_a, prod_a), (pat_b, prod_b) in itertools.combinations(group, 2):
                if pat_a == pat_b or not equal_matrices(prod_a, prod_b, up_to_phase, tol):
                    continue
                kept, forbidden = sorted((pat_a, pat_b))
                cat.equivalent_triplets.append((forbidden, kept))
    else:
        warnings.warn(
            f"triplet pattern detection skipped: {len(ni)}^3 exceeds limit {enumeration_limit}",
            stacklevel=2,
        )

    eff_k_max = k_max
    while eff_k_max > 1 and sum(len(ni) ** k for k in range(2, eff_k_max + 1)) > enumeration_limit:
        eff_k_max -= 1
    if eff_k_max != k_max:
        warnings.warn(
            f"redundancy enumeration reduced from k_max={k_max} to {eff_k_max} "
            f"to stay within {enumeration_limit} sequences",
            stacklevel=2,
        )
    cat.k_max = eff_k_max

    gate_groups: dict[bytes, list[int]] = {}
    for g in range(len(gs)):
        gate_groups.setdefault(_round_key(mats[g], up_to_phase), []).append(g)
    for k in range(2, eff_k_max + 1):
        for seq in itertools.product(ni, repeat=k):
            p = sequence_product(mats[list(seq)], gs.dim)
            for g in gate_groups.get(_round_key(p, up_to_phase), []):
                if equal_matrices(p, mats[g], up_to_phase, tol):
                    cat.redundancies.append((seq, g))
                    break
    return cat


__all__ = ["RelationCatalog", "detect_relations", "equal_matrices", "RELATION_TOL"]
