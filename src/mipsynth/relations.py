"""Relations inside a gate set, read off one table of short words.

The table holds every library gate as a word of length 1, the identity
included, and every word of length 2..k_max over the non-identity gates,
each multiplied out once (gate 1 is the leftmost factor).  Words are
bucketed by their product rounded at 1e-6, after fixing the global phase
when equality is up to phase, and each bucket is split into equal-product
classes by checking every member against the first word of its class in
exact arithmetic (`equal_matrices`), so a rounding collision never joins
two words.  Three relations are read off the classes:

- commuting pairs: gates i < j whose words ij and ji share a class;
- equivalent groups: the words of one length >= 2 that share a class,
  in lexicographic order;
- redundancies: a word of length >= 2 that shares a class with a single
  gate, the lowest-indexed one.

`RelationCatalog.forbidden_words` turns them into the words each cut
family forbids; cuts.add_pattern_rows writes the rows.  Identity never
appears in a forbidden word: its placement is handled by the
identity-suffix cut, which an identity-containing pattern could contradict.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .gates import GateSet

#: Entrywise tolerance for relation equality checks.
RELATION_TOL = 1e-8
#: Most letters (k per word of length k) the word table holds; k_max shrinks to fit.
ENUMERATION_LIMIT = 200_000
#: Slack when comparing the weights of two words.
WEIGHT_TOL = 1e-12


def equal_matrices(a: np.ndarray, b: np.ndarray, up_to_phase: bool,
                   tol: float = RELATION_TOL):
    """Equality of same-shaped matrices, optionally up to a global phase.

    Either side may be a stack; the last two axes are compared and the rest
    broadcast.  The phase test |Tr(a^dag b)| = n is exact for unitaries and
    tolerant for near-unitaries at our scales.
    """
    if not up_to_phase:
        return np.abs(a - b).max(axis=(-2, -1)) <= tol
    n = a.shape[-1]
    return np.abs(np.abs((a.conj() * b).sum(axis=(-2, -1))) - n) <= tol * n


def canonical_phase(stack: np.ndarray) -> np.ndarray:
    """Each matrix of a stack (k, n, n) rotated by the global phase that makes
    its defining entry real and positive.

    The defining entry is the first one of largest magnitude, with magnitudes
    rounded at 1e-6 before they are compared: many gates have several entries
    of equal magnitude, and a raw argmax lets float noise pick different
    entries for matrices that are equal up to phase.
    """
    flat = stack.reshape(-1, stack.shape[-2] * stack.shape[-1])
    mag = np.round(np.abs(flat) * 1e6)
    v = flat[np.arange(flat.shape[0]), mag.argmax(axis=1)]
    return (flat * (np.abs(v) / v)[:, None]).reshape(stack.shape)


Word = tuple[int, ...]


@dataclass
class RelationCatalog:
    """Relations among the gates of one GateSet, by canonical gate index."""

    up_to_phase: bool
    k_max: int
    commuting_pairs: list[tuple[int, int]] = field(default_factory=list)
    equivalent_groups: list[tuple[Word, ...]] = field(default_factory=list)
    redundancies: list[tuple[Word, int]] = field(default_factory=list)

    def forbidden_words(self, family: str, weights: np.ndarray) -> set[Word]:
        """The words one cut family forbids, under gate weights `weights`.

        - ``commuting``: ji for every commuting pair i < j.
        - ``equivalent``: a word with a lexicographically smaller word of
          equal product that weighs no more; for length 2 the swap of a
          commuting pair does not count, the commuting family orders it.
        - ``redundancy``: a word whose product is a gate that weighs no more.

        Each forbidden word keeps a no-heavier word of equal product
        allowed, so a weighted-count optimum survives the family alone.
        """
        w = weights.tolist()

        def weight(word) -> float:
            return sum(w[a] for a in word)

        if family == "commuting":
            return {(j, i) for i, j in self.commuting_pairs}
        if family == "redundancy":
            return {seq for seq, g in self.redundancies
                    if w[g] <= weight(seq) + WEIGHT_TOL}
        if family != "equivalent":
            raise ConfigError(f"no pattern family {family!r}")
        out = set()
        for group in self.equivalent_groups:
            ws = [weight(word) for word in group]
            for r, word in enumerate(group):
                if any(ws[q] <= ws[r] + WEIGHT_TOL for q in range(r)
                       if len(word) > 2 or group[q] != word[::-1]):
                    out.add(word)
        return out

    def to_dict(self, gs: GateSet) -> dict:
        def labels(word) -> list[str]:
            return [gs.label(a) for a in word]

        return {
            "up_to_phase": self.up_to_phase,
            "k_max": self.k_max,
            "commuting_pairs": [labels(pair) for pair in self.commuting_pairs],
            "equivalent_groups": [[labels(w) for w in group]
                                  for group in self.equivalent_groups],
            "redundancies": [{"sequence": labels(seq), "collapses_to": gs.label(g)}
                             for seq, g in self.redundancies],
        }


def detect_relations(gs: GateSet, k_max: int = 3,
                     up_to_phase: bool = False) -> RelationCatalog:
    """Catalog commuting pairs, equivalent groups and redundancies.

    Words run over the non-identity gates with lengths 2..k_max (k_max >= 2);
    k_max is reduced, with a warning, to the largest one whose words hold at
    most ENUMERATION_LIMIT letters, but not below 2, and to 2 without a
    non-identity gate.  Products are equal within RELATION_TOL.
    """
    if k_max < 2:
        raise ConfigError(f"k_max must be >= 2, got {k_max}")
    mats = gs.matrices()
    ni = gs.non_identity_indices()
    limit = ENUMERATION_LIMIT
    eff_k_max, letters = 2, 2 * len(ni) ** 2
    while ni and eff_k_max < k_max:
        letters += (eff_k_max + 1) * len(ni) ** (eff_k_max + 1)
        if letters > limit:
            break
        eff_k_max += 1
    if eff_k_max != k_max:
        warnings.warn(
            f"word enumeration reduced from k_max={k_max} to {eff_k_max} "
            f"to stay within {limit} letters",
            stacklevel=2,
        )

    words: list[Word] = [(g,) for g in range(len(gs))]
    prods = [mats]
    level = mats[ni]
    for k in range(2, eff_k_max + 1):
        level = (level[:, None] @ mats[ni][None]).reshape(-1, gs.dim, gs.dim)
        words += itertools.product(ni, repeat=k)
        prods.append(level)
    table = np.concatenate(prods)

    keyed = canonical_phase(table) if up_to_phase else table
    q = np.round(keyed.reshape(len(words), -1) * 1e6)
    keys = np.concatenate([q.real, q.imag], axis=1).astype(np.int64)
    buckets: dict[bytes, list[int]] = {}
    for i, key in enumerate(keys):
        buckets.setdefault(key.tobytes(), []).append(i)

    cat = RelationCatalog(up_to_phase=up_to_phase, k_max=eff_k_max)
    for members in map(np.array, buckets.values()):
        while len(members) > 1:
            same = equal_matrices(table[members], table[members[0]], up_to_phase, RELATION_TOL)
            same[0] = True
            _read_class([words[i] for i in members[same]], cat)
            members = members[~same]
    cat.commuting_pairs.sort()
    cat.equivalent_groups.sort(key=lambda group: (len(group[0]), group))
    cat.redundancies.sort(key=lambda r: (len(r[0]), r))
    return cat


def _read_class(cls: list[Word], cat: RelationCatalog) -> None:
    """Add the relations of one equal-product class, its words in table order."""
    members = set(cls)
    gates = [w[0] for w in cls if len(w) == 1]
    for length, same in itertools.groupby((w for w in cls if len(w) > 1), len):
        same = list(same)
        if gates:
            cat.redundancies += [(w, gates[0]) for w in same]
        if len(same) > 1:
            cat.equivalent_groups.append(tuple(same))
        if length == 2:
            cat.commuting_pairs += [w for w in same if w[0] < w[1] and w[::-1] in members]


__all__ = ["RelationCatalog", "detect_relations", "equal_matrices", "canonical_phase",
           "RELATION_TOL", "WEIGHT_TOL"]
