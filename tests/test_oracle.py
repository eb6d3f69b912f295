"""Exhaustive search checked against plain enumeration at tiny sizes."""

import functools
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mipsynth import oracle
from mipsynth.errors import (ConfigError, DimensionError,
                             OracleInconclusiveError, UnitarityError)
from mipsynth.formulation import SynthesisProblem, schedule_depth, synthesize
from mipsynth.gates import GateSet, builtin_gate, gate_spec, weave_gate_set
from mipsynth.oracle import (LevelTables, OracleResult, clear_oracle_cache,
                             exhaustive_synthesize)
from mipsynth.relations import equal_matrices
from mipsynth.rho import window_gate_set

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
    assert schedule_depth([gs[i].support for i in res.sequence])[0] == 1
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
        return schedule_depth([gs[i].support for i in seq])[0]

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


def test_bad_time_limits_fail_before_any_table(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("a level table was built for a bad time limit")

    monkeypatch.setattr(oracle, "_tables_for", never)
    gs = one_qubit_set("H", "T")
    for bad in (float("nan"), 0, -1.0, float("inf"), 10 ** 400):
        with pytest.raises(ConfigError, match="time_limit"):
            exhaustive_synthesize(builtin_gate("S"), gs, 2, time_limit=bad)


def test_cache_survives_clear():
    gs = one_qubit_set("H", "T")
    t = builtin_gate("Z")
    first = exhaustive_synthesize(t, gs, 4)
    clear_oracle_cache()
    second = exhaustive_synthesize(t, gs, 4)
    assert isinstance(first, OracleResult)
    assert first.length == second.length == 4
    assert first.sequence == second.sequence


@pytest.mark.filterwarnings("ignore:.*normalized to unit determinant")
def test_depth_of_empty_support_gate_agrees_across_routes():
    # NEG = -I acts on no qubit, so it opens no layer on either route
    neg = gate_spec("NEG", (1,), matrix=-np.eye(2))
    gs = GateSet.from_specs(1, [gate_spec("H", (1,)), neg])
    for backend in ("oracle", "scipy"):
        p = SynthesisProblem(target=-np.eye(2), gate_set=gs, P=2, objective="depth")
        res = synthesize(p, backend=backend)
        assert res.status == "optimal", backend
        assert res.objective_value == pytest.approx(0.0), backend
        assert res.certificate["bound"] == pytest.approx(0.0, abs=1e-9), backend


def test_table_cache_is_lru_within_byte_budget(monkeypatch):
    sets = [one_qubit_set("H", "T"), one_qubit_set("H", "S"), line_set(),
            one_qubit_set("T", "Tdg", "Z")]
    target = [builtin_gate("Z"), builtin_gate("Z"),
              product_of(sets[2], [1, 3, 2]), builtin_gate("S")]
    calls = [0, 1, 2, 3, 0, 2, 1, 3, 0]

    def run_all():
        out = []
        for i in calls:
            res = exhaustive_synthesize(target[i], sets[i], 4)
            total = sum(t.stored_bytes for t in oracle._TABLE_CACHE.values())
            out.append((res.status, res.sequence, total, len(oracle._TABLE_CACHE)))
        return out

    clear_oracle_cache()
    free = run_all()
    sizes = [t.stored_bytes for t in oracle._TABLE_CACHE.values()]
    assert len(sizes) == len(sets)
    budget = max(sizes) + min(sizes)
    assert budget < sum(sizes)
    monkeypatch.setattr(oracle, "CACHE_BUDGET_BYTES", budget)
    clear_oracle_cache()
    bounded = run_all()
    assert [r[:2] for r in bounded] == [r[:2] for r in free]
    assert all(r[2] <= budget for r in bounded)
    assert min(r[3] for r in bounded[len(sets):]) < len(sets)  # it did evict
    # a budget below one table still keeps the table just used
    monkeypatch.setattr(oracle, "CACHE_BUDGET_BYTES", 0)
    res = exhaustive_synthesize(target[2], sets[2], 4)
    (kept,) = oracle._TABLE_CACHE.values()
    assert kept.stored_bytes > 0 and res.sequence == free[2][1]
    clear_oracle_cache()


_TRIPLE_SET = window_gate_set(("CNOT", "H", "S"), 3)
#: Fits levels 0-2 of _TRIPLE_SET (116472 bytes) but not the 668 matrices of
#: level 3, so levels 3 and up keep keys and pointers only.
_SMALL_BUDGET = 200_000


@functools.cache
def triple_tables(phase_mode: str, budgeted: bool) -> LevelTables:
    if budgeted:
        return LevelTables(_TRIPLE_SET, phase_mode, matrix_budget_bytes=_SMALL_BUDGET)
    return LevelTables(_TRIPLE_SET, phase_mode)


def test_gemm_kernels_match_einsum(rng):
    gs = _TRIPLE_SET
    n = gs.dim
    parents = np.stack([random_unitary(n, rng) for _ in range(7)])
    target = random_unitary(n, rng)
    y = np.einsum("cji,jk->cik", parents.conj(), target)
    assert np.abs(oracle._right_factors(parents, target) - y).max() <= 1e-12
    dirs = oracle._directions(n)
    assert np.allclose(np.linalg.norm(dirs.reshape(len(dirs), -1), axis=1), 1.0)
    for phase_mode in ("exact", "global_phase"):
        tab = LevelTables(gs, phase_mode)
        children = np.einsum("cij,gjk->cgik", parents, tab.gen).reshape(-1, n, n)
        rights = np.einsum("gji,cjk->cgik", tab.gen.conj(), y).reshape(-1, n, n)
        for stack, sketch_map, formed in ((parents, tab.child_map, children),
                                          (y, tab.query_map, rights)):
            want = np.einsum("dij,cij->cd", dirs.conj(), formed)  # <C_d, X>
            assert np.abs(tab._sketch(formed, tab.key_map) - want).max() <= 1e-12
            got = tab._sketch(stack, sketch_map)
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-12
            assert np.array_equal(tab._hash(got), tab.keys_of(formed))
        phased = np.exp(0.7j) * children
        assert np.array_equal(tab.keys_of(phased) == tab.keys_of(children),
                              np.full(len(children), phase_mode == "global_phase"))
    # a pointer-only level rebuilds exactly parent @ generator at its pointers
    tab = triple_tables("exact", budgeted=True)
    tab.ensure_level(3, oracle._Budget(10 ** 9, None))
    lev, g_count = tab.levels[3], len(tab.gen)
    assert lev.mats is None and tab.levels[2].mats is not None
    want = np.einsum("cij,cjk->cik", tab.levels[2].mats[lev.src // g_count],
                     tab.gen[lev.src % g_count])
    got = np.concatenate(list(tab.iter_level_matrices(3)))
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-12


@pytest.mark.parametrize("phase_mode", ["exact", "global_phase"])
def test_pointer_only_level_yields_each_member_once(phase_mode):
    tab = triple_tables(phase_mode, budgeted=True)
    budget = oracle._Budget(10 ** 9, None)
    tab.ensure_level(4, budget)
    assert [lev.mats is None for lev in tab.levels[:5]] == [False] * 3 + [True] * 2
    full = triple_tables(phase_mode, budgeted=False)
    full.ensure_level(4, budget)
    assert [lev.count for lev in tab.levels] == [lev.count for lev in full.levels]
    for l in (3, 4):
        lev = tab.levels[l]
        got = np.concatenate(list(tab.iter_level_matrices(l)))
        assert len(got) == lev.count
        keys = tab.keys_of(got)
        assert len(np.unique(keys)) == lev.count
        assert lev.keys.contains(keys).all()
        assert np.array_equal(np.sort(keys), np.sort(full.keys_of(full.levels[l].mats)))


@settings(max_examples=25, derandomize=True, deadline=None, database=None)
@given(word=st.lists(st.sampled_from(_TRIPLE_SET.non_identity_indices()), max_size=7))
def test_pointer_only_tables_answer_like_stored_ones(word):
    target = product_of(_TRIPLE_SET, word)
    for phase_mode in ("exact", "global_phase"):
        answers = []
        for budgeted in (True, False):
            tab = triple_tables(phase_mode, budgeted)
            seq = oracle._mitm_min_length(tab, target, 7, oracle._Budget(10 ** 9, None))
            assert seq is not None and len(seq) <= len(word)
            assert tab.equal(product_of(_TRIPLE_SET, [tab.ni[p] for p in seq]), target)
            answers.append(seq)
        assert answers[0] == answers[1]


def test_stored_bytes_count_keys_and_pointers():
    tab = LevelTables(_TRIPLE_SET, "exact", matrix_budget_bytes=_SMALL_BUDGET)
    budget = oracle._Budget(10 ** 9, None)
    tab.ensure_level(2, budget)
    before = tab.stored_bytes
    lev2 = tab.levels[2]
    # one uint64 key, one int64 pointer and one complex 8x8 matrix per member
    assert lev2.nbytes == lev2.count * (8 + 8 + 64 * 16)
    tab.ensure_level(3, budget)
    lev3 = tab.levels[3]
    assert lev3.mats is None and lev3.count == 668
    assert tab.stored_bytes - before == lev3.count * (8 + 8)


def independent_level_counts(gs: GateSet, up_to_phase: bool, lmax: int) -> list[int]:
    """Level sizes by dedup on every rounded entry, phase fixed by hand."""
    gens = gs.matrices()[gs.non_identity_indices()]

    def rows(stack):
        flat = stack.reshape(len(stack), -1)
        if up_to_phase:
            first = np.argmax(np.abs(flat) > 1e-3, axis=1)
            v = flat[np.arange(len(flat)), first]
            flat = flat * (np.abs(v) / v)[:, None]
        return np.round(np.concatenate([flat.real, flat.imag], axis=1) * 1e6).astype(np.int64)

    frontier = np.eye(gs.dim, dtype=complex)[None]
    seen = {r.tobytes() for r in rows(frontier)}
    counts = [1]
    for _ in range(lmax):
        prods = np.stack([a @ g for a in frontier for g in gens])
        uniq, first = np.unique(rows(prods), axis=0, return_index=True)
        fresh = [i for r, i in zip(uniq, first) if r.tobytes() not in seen]
        seen.update(r.tobytes() for r in uniq)
        frontier = prods[fresh]
        counts.append(len(fresh))
    return counts


@pytest.mark.parametrize("phase_mode", ["exact", "global_phase"])
def test_level_counts_match_independent_dedup(phase_mode):
    gs = window_gate_set(("CNOT", "H", "S"), 3)
    tab = LevelTables(gs, phase_mode)
    tab.ensure_level(4, oracle._Budget(10 ** 9, None))
    want = independent_level_counts(gs, phase_mode == "global_phase", 4)
    assert [lev.count for lev in tab.levels] == want


def test_four_qubit_level_counts_pinned():
    tab = LevelTables(window_gate_set(("CNOT", "H", "S"), 4), "exact")
    tab.ensure_level(4, oracle._Budget(10 ** 9, None))
    assert [lev.count for lev in tab.levels] == [1, 20, 264, 2820, 26166]


_PAIR_SET = window_gate_set(("CNOT", "H", "S"), 2)


@settings(max_examples=30, derandomize=True, deadline=None, database=None)
@given(word=st.lists(st.sampled_from(_PAIR_SET.non_identity_indices()), max_size=3))
def test_random_words_reach_brute_force_minimum(word):
    target = product_of(_PAIR_SET, word)
    for phase_mode in ("exact", "global_phase"):
        want = brute_min_length(_PAIR_SET, target, len(word), phase_mode == "global_phase")
        res = exhaustive_synthesize(target, _PAIR_SET, 3, phase_mode=phase_mode)
        assert res.status == "optimal" and res.length == want
        assert equal_matrices(product_of(_PAIR_SET, res.sequence), target,
                              phase_mode == "global_phase")
