"""Exhaustive search checked against plain enumeration at tiny sizes."""

import itertools

import numpy as np
import pytest

from mipsynth.errors import (DimensionError, OracleInconclusiveError,
                             UnitarityError)
from mipsynth.formulation import schedule_depth
from mipsynth.gates import GateSet, builtin_gate, gate_spec, weave_gate_set
from mipsynth.oracle import (OracleResult, clear_oracle_cache,
                             exhaustive_synthesize)
from mipsynth.relations import equal_matrices

from util import SEED, random_unitary


def one_qubit_set(*names: str) -> GateSet:
    return GateSet.from_specs(1, [gate_spec(n, (1,)) for n in names])


def line_set() -> GateSet:
    specs = [gate_spec("H", (1,)), gate_spec("H", (2,)), gate_spec("CNOT", (1, 2))]
    return GateSet.from_specs(2, specs)


def product_of(gs: GateSet, indices) -> np.ndarray:
    u = np.eye(gs.dim, dtype=complex)
    for i in indices:
        u = u @ gs[i].full
    return u


def brute_min_length(gs: GateSet, target: np.ndarray, max_length: int,
                     up_to_phase: bool) -> int | None:
    gens = gs.non_identity_indices()
    for m in range(max_length + 1):
        for seq in itertools.product(gens, repeat=m):
            if equal_matrices(product_of(gs, seq), target, up_to_phase):
                return m
    return None


@pytest.mark.parametrize("phase_mode", ["exact", "global_phase"])
def test_min_length_matches_enumeration(rng, phase_mode):
    gs = one_qubit_set("H", "T")
    up = phase_mode == "global_phase"
    targets = [builtin_gate("S"), builtin_gate("Z"),
               builtin_gate("H") @ builtin_gate("T") @ builtin_gate("H"),
               np.eye(2, dtype=complex), random_unitary(2, rng)]
    for t in targets:
        want = brute_min_length(gs, t, 4, up)
        res = exhaustive_synthesize(t, gs, 4, phase_mode=phase_mode)
        if want is None:
            assert res.status == "infeasible" and res.sequence is None
        else:
            assert res.status == "optimal" and res.length == want
            assert equal_matrices(product_of(gs, res.sequence), t, up)
            assert res.objective == pytest.approx(float(want))


def test_phase_only_target_splits_modes():
    gs = one_qubit_set("H", "T")
    t = np.exp(1j * np.pi / 4) * np.eye(2)
    assert exhaustive_synthesize(t, gs, 3, phase_mode="exact").status == "infeasible"
    res = exhaustive_synthesize(t, gs, 3, phase_mode="global_phase")
    assert res.status == "optimal" and res.sequence == []


def test_weighted_search_prefers_cheap_detour():
    gs = one_qubit_set("T", "Tdg", "Z")
    s = builtin_gate("S")
    uniform = exhaustive_synthesize(s, gs, 3)
    assert uniform.length == 2 and uniform.objective == pytest.approx(2.0)
    # pricing T out of reach makes Z Tdg Tdg the optimum
    w = np.zeros(len(gs))
    w[gs.index_of("T")] = 5.0
    w[gs.index_of("Tdg")] = 1.0
    w[gs.index_of("Z")] = 1.0
    res = exhaustive_synthesize(s, gs, 3, weights=w)
    assert res.length == 3 and res.objective == pytest.approx(3.0)
    assert equal_matrices(product_of(gs, res.sequence), s, False)
    doubled = exhaustive_synthesize(s, gs, 3, weights=np.full(len(gs), 2.0))
    assert doubled.length == 2 and doubled.objective == pytest.approx(4.0)


def test_depth_objective_parallelizes():
    gs = line_set()
    hh = np.kron(builtin_gate("H"), builtin_gate("H"))
    res = exhaustive_synthesize(hh, gs, 3, objective="depth")
    assert res.objective == pytest.approx(1.0)
    assert schedule_depth([gs[i] for i in res.sequence], gs.num_qubits)[0] == 1
    layered = product_of(gs, [gs.index_of("H", (1,)), gs.index_of("H", (2,)),
                              gs.index_of("CNOT", (1, 2))])
    res = exhaustive_synthesize(layered, gs, 4, objective="depth")
    assert res.objective == pytest.approx(2.0)
    assert equal_matrices(product_of(gs, res.sequence), layered, False)


@pytest.mark.parametrize("objective,phase_mode", [
    ("alpha", "exact"), ("alpha", "global_phase"),
    ("fidelity", "exact"), ("fidelity", "global_phase"),
])
def test_score_objectives_match_enumeration(rng, objective, phase_mode):
    gs = weave_gate_set()
    target = random_unitary(2, rng)
    gens = gs.non_identity_indices()
    best = -np.inf
    for m in range(4):
        for seq in itertools.product(gens, repeat=m):
            tr = np.trace(target.conj().T @ product_of(gs, seq))
            if objective == "fidelity":
                val = abs(tr) ** 2 / 4
            elif phase_mode == "global_phase":
                val = abs(tr) / 2
            else:
                val = tr.real / 2
            best = max(best, val)
    res = exhaustive_synthesize(target, gs, 3, objective=objective,
                                phase_mode=phase_mode)
    assert res.status == "optimal"
    assert res.objective == pytest.approx(best, abs=1e-9)
    tr = np.trace(target.conj().T @ product_of(gs, res.sequence))
    achieved = (abs(tr) ** 2 / 4 if objective == "fidelity"
                else abs(tr) / 2 if phase_mode == "global_phase" else tr.real / 2)
    assert achieved == pytest.approx(res.objective, abs=1e-9)


def test_sequence_depth_rules():
    specs = [gate_spec("H", (1,)), gate_spec("H", (2,)), gate_spec("CNOT", (1, 2))]
    gs = GateSet.from_specs(2, specs)
    h1 = gs.index_of("H", (1,))
    h2 = gs.index_of("H", (2,))
    cx = gs.index_of("CNOT", (1, 2))
    ident = gs.identity_index

    def depth(seq):
        return schedule_depth([gs[i] for i in seq], gs.num_qubits)[0]

    assert depth([]) == 0
    assert depth([ident, ident]) == 0
    assert depth([h1, ident, h2]) == 1
    assert depth([h1, h2, cx]) == 2
    assert depth([h1, cx, h2]) == 3


def test_budget_exhaustion_raises():
    gs = one_qubit_set("H", "T")
    with pytest.raises(OracleInconclusiveError):
        exhaustive_synthesize(builtin_gate("X"), gs, 6, node_budget=3)


def test_input_validation(rng):
    gs = one_qubit_set("H", "T")
    t = builtin_gate("S")
    with pytest.raises(ValueError):
        exhaustive_synthesize(t, gs, -1)
    with pytest.raises(ValueError):
        exhaustive_synthesize(t, gs, 2, objective="elegance")
    with pytest.raises(ValueError):
        exhaustive_synthesize(t, gs, 2, phase_mode="local")
    with pytest.raises(DimensionError):
        exhaustive_synthesize(random_unitary(4, rng), gs, 2)
    with pytest.raises(UnitarityError):
        exhaustive_synthesize(np.ones((2, 2), dtype=complex), gs, 2)
    with pytest.raises(ValueError):
        exhaustive_synthesize(t, gs, 2, weights=np.ones(2))
    with pytest.raises(ValueError):
        exhaustive_synthesize(t, gs, 2, weights=-np.ones(len(gs)))


def test_cache_survives_clear():
    gs = one_qubit_set("H", "T")
    t = builtin_gate("Z")
    first = exhaustive_synthesize(t, gs, 4)
    clear_oracle_cache()
    second = exhaustive_synthesize(t, gs, 4)
    assert isinstance(first, OracleResult)
    assert first.length == second.length == 4
    assert first.sequence == second.sequence
