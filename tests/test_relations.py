"""Relation discovery on small gate sets, pinned against hand algebra."""

import itertools
import time

import numpy as np
import pytest

from mipsynth import relations
from mipsynth.encoding import equal_matrices
from mipsynth.errors import ConfigError
from mipsynth.fixtures import benchmark_registry
from mipsynth.gates import GateSet, builtin_gate, gate_spec, sequence_product
from mipsynth.relations import WEIGHT_TOL, RelationCatalog, detect_relations


def _set1(*names: str) -> GateSet:
    return GateSet.from_specs(1, [gate_spec(n, (1,)) for n in names])


def _labels(gs, pairs):
    return sorted((gs.label(i), gs.label(j)) for i, j in pairs)


def _equivalent_pairs(cat):
    """(larger, smaller) for every two words of one equivalent group, less
    the swaps of a commuting pair."""
    return {(b, a) for group in cat.equivalent_groups
            for a, b in itertools.combinations(group, 2)
            if not (len(a) == 2 and a == b[::-1])}


def test_equal_matrices_phase_handling():
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    assert equal_matrices(x, x, up_to_phase=False)
    assert not equal_matrices(x, 1j * x, up_to_phase=False)
    assert equal_matrices(x, 1j * x, up_to_phase=True)
    assert not equal_matrices(x, np.eye(2), up_to_phase=True)
    for theta in (0.1, 1.0, np.pi / 2, 2.5, np.pi, -2.0):
        assert equal_matrices(x, np.exp(1j * theta) * x, up_to_phase=True)
        assert not equal_matrices(x, np.exp(1j * theta) * x, up_to_phase=False)
    # first order: entries 5e-8 off fail in both modes, where a trace test
    # moves by 1e-15 and would accept them up to phase
    rz, near = builtin_gate("RZ", 0.6), builtin_gate("RZ", 0.6 + 1e-7)
    for up_to_phase in (False, True):
        assert not equal_matrices(rz, near, up_to_phase)
        assert equal_matrices(rz, builtin_gate("RZ", 0.6 + 1e-10), up_to_phase)
    # a stack against one matrix broadcasts, in either order
    stack = np.stack([x, 1j * x, np.eye(2), near])
    assert equal_matrices(stack, x, up_to_phase=True).tolist() == [True, True, False, False]
    assert equal_matrices(x, stack, up_to_phase=False).tolist() == [True, False, False, False]


def test_pauli_set_exact_phase():
    gs = _set1("X", "Y", "Z")
    cat = detect_relations(gs.matrices(), gs.identity_index, k_max=2)
    # XY = -YX exactly, so nothing commutes at exact phase
    assert cat.commuting_pairs == []
    # all three squares hit the identity
    reds = {(tuple(gs.label(a) for a in seq), gs.label(g))
            for seq, g in cat.redundancies}
    assert reds == {(("X[1]", "X[1]"), "I"), (("Y[1]", "Y[1]"), "I"),
                    (("Z[1]", "Z[1]"), "I")}
    # the three squares are one group of pairwise equivalent patterns
    assert [[tuple(gs.label(a) for a in w) for w in group]
            for group in cat.equivalent_groups] == [
        [("X[1]", "X[1]"), ("Y[1]", "Y[1]"), ("Z[1]", "Z[1]")]]
    assert len(_equivalent_pairs(cat)) == 3


def test_pauli_set_up_to_phase():
    gs = _set1("X", "Y", "Z")
    cat = detect_relations(gs.matrices(), gs.identity_index, k_max=2, up_to_phase=True)
    # XY = iZ ~ -iZ = YX, so every Pauli pair commutes up to phase
    assert _labels(gs, cat.commuting_pairs) == [
        ("X[1]", "Y[1]"), ("X[1]", "Z[1]"), ("Y[1]", "Z[1]")]
    reds = {(tuple(gs.label(a) for a in seq), gs.label(g))
            for seq, g in cat.redundancies}
    assert (("X[1]", "Y[1]"), "Z[1]") in reds
    assert (("Y[1]", "Z[1]"), "X[1]") in reds
    assert len(cat.redundancies) == 9


def test_clifford_t_relations():
    gs = _set1("H", "T", "S")
    cat = detect_relations(gs.matrices(), gs.identity_index, k_max=3)
    # diagonal gates commute; T^2 = S; HH cancels
    assert _labels(gs, cat.commuting_pairs) == [("T[1]", "S[1]")] or \
        _labels(gs, cat.commuting_pairs) == [("S[1]", "T[1]")]
    reds = {(tuple(gs.label(a) for a in seq), gs.label(g))
            for seq, g in cat.redundancies}
    assert (("T[1]", "T[1]"), "S[1]") in reds
    assert (("H[1]", "H[1]"), "I") in reds
    # length-3 collapses through the HH cancellation are found too
    assert (("H[1]", "H[1]", "T[1]"), "T[1]") in reds
    assert len(cat.redundancies) == 7


def test_identity_never_participates():
    gs = _set1("H", "T", "S")
    cat = detect_relations(gs.matrices(), gs.identity_index, k_max=3)
    ident = gs.identity_index
    assert all(ident not in pair for pair in cat.commuting_pairs)
    for seq, g in cat.redundancies:
        assert ident not in seq
    assert cat.equivalent_groups
    for group in cat.equivalent_groups:
        assert all(ident not in word for word in group)


def test_two_qubit_commuting_and_kept_side():
    gs = GateSet.from_specs(2, [gate_spec("CNOT", (1, 2)), gate_spec("H", (1,)),
                                gate_spec("H", (2,)), gate_spec("CZ", (1, 2))])
    cat = detect_relations(gs.matrices(), gs.identity_index, k_max=2)
    assert _labels(gs, cat.commuting_pairs) == [("H[1]", "H[2]")]
    # the kept pattern, first in its group, is the lexicographically smallest
    for group in cat.equivalent_groups:
        assert list(group) == sorted(group) and len(set(map(len, group))) == 1
    assert len(_equivalent_pairs(cat)) == 8
    reds = {tuple(gs.label(a) for a in seq) for seq, _ in cat.redundancies}
    assert ("CNOT[1,2]", "CNOT[1,2]") in reds and ("CZ[1,2]", "CZ[1,2]") in reds


def test_k_max_shrinks_under_enumeration_limit(monkeypatch):
    gs = _set1("X", "Y", "Z")
    monkeypatch.setattr(relations, "ENUMERATION_LIMIT", 50)
    with pytest.warns(UserWarning, match="k_max"):
        cat = detect_relations(gs.matrices(), gs.identity_index, k_max=9)
    assert cat.k_max < 9
    with pytest.raises(ConfigError, match="k_max"):
        detect_relations(gs.matrices(), gs.identity_index, k_max=1)


def test_huge_k_max_shrinks_at_once():
    """The letter bound stops the table at k = 4 on csx's library, at k = 631
    on one gate and at 2 on none, without summing word counts once per k."""
    for gs, want in ((benchmark_registry()["csx"].gate_set, 4), (_set1("H"), 631),
                     (_set1(), 2)):
        t0 = time.perf_counter()
        with pytest.warns(UserWarning, match="k_max"):
            cat = detect_relations(gs.matrices(), gs.identity_index, k_max=10 ** 9)
        assert cat.k_max == want
        assert time.perf_counter() - t0 < 1.0


def test_catalog_to_dict_round_trips_labels():
    gs = _set1("H", "T", "S")
    cat = detect_relations(gs.matrices(), gs.identity_index, k_max=2)
    doc = cat.to_dict(gs)
    assert doc["k_max"] == 2 and doc["up_to_phase"] is False
    assert {"sequence": ["T[1]", "T[1]"], "collapses_to": "S[1]"} in doc["redundancies"]
    assert isinstance(cat, RelationCatalog)


def test_phase_pairs_match_brute_force():
    # many entries of these gates share a magnitude, so the phase-defining
    # entry must not depend on float noise
    gs = benchmark_registry()["single_excitation_hadamard"].gate_set
    mats, ni = gs.matrices(), gs.non_identity_indices()
    cat = detect_relations(gs.matrices(), gs.identity_index, k_max=2, up_to_phase=True)
    commuting = set(cat.commuting_pairs)
    assert commuting
    brute = set()
    for a, b in itertools.combinations(itertools.product(ni, repeat=2), 2):
        if a == b[::-1] and (min(a), max(a)) in commuting:
            continue
        if equal_matrices(mats[a[0]] @ mats[a[1]], mats[b[0]] @ mats[b[1]], True):
            kept, forbidden = sorted((a, b))
            brute.add((forbidden, kept))
    assert _equivalent_pairs(cat) == brute and len(brute) == 69


def _brute_forbidden(gs, up_to_phase, weights):
    """Each family's forbidden words by the pairwise definition, one
    sequence product per word and no bucketing."""
    mats, ni = gs.matrices(), gs.non_identity_indices()

    def weight(word):
        return float(sum(weights[a] for a in word))

    out = {"commuting": {(j, i) for i, j in itertools.combinations(ni, 2)
                         if equal_matrices(mats[i] @ mats[j], mats[j] @ mats[i],
                                           up_to_phase)},
           "equivalent": set(), "redundancy": set()}
    for k in (2, 3):
        words = list(itertools.product(ni, repeat=k))
        prods = np.array([sequence_product(mats[list(w)], gs.dim) for w in words])
        for r, b in enumerate(words):
            # a lexicographically smaller word, equal product, no heavier
            same = np.flatnonzero(equal_matrices(prods[:r], prods[r], up_to_phase))
            if any(weight(words[q]) <= weight(b) + WEIGHT_TOL
                   and not (k == 2 and words[q] == b[::-1]) for q in same):
                out["equivalent"].add(b)
            # the first library gate with the same product, if no heavier
            gates = np.flatnonzero(equal_matrices(mats, prods[r], up_to_phase))
            if gates.size and weights[gates[0]] <= weight(b) + WEIGHT_TOL:
                out["redundancy"].add(b)
    return out


@pytest.mark.parametrize("up_to_phase", [False, True])
@pytest.mark.parametrize("name", ["csx", "toffoli2q", "single_excitation_hadamard"])
def test_forbidden_words_match_pairwise_definition(name, up_to_phase):
    gs = benchmark_registry()[name].gate_set
    cat = detect_relations(gs.matrices(), gs.identity_index, k_max=3,
                           up_to_phase=up_to_phase)
    rng = np.random.default_rng(7)
    for weights in (np.ones(len(gs)), rng.integers(1, 4, len(gs)).astype(float)):
        weights[gs.identity_index] = 0.0
        brute = _brute_forbidden(gs, up_to_phase, weights)
        assert brute["equivalent"] and brute["redundancy"]
        for family, words in brute.items():
            assert cat.forbidden_words(family, weights) == words, family
