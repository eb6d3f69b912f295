"""Exhaustive search checked against plain enumeration at tiny sizes."""

import functools
import itertools
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mipsynth import fixtures, oracle
from mipsynth.encoding import equal_matrices
from mipsynth.errors import ConfigError, OracleInconclusiveError
from mipsynth.formulation import (PHASE_MODES, SynthesisProblem, schedule_depth,
                                  synthesize)
from mipsynth.gates import (GateSet, builtin_gate, gate_spec, sequence_product,
                            weave_gate_set)
from mipsynth.oracle import (LevelTables, OracleResult, clear_oracle_cache,
                             exhaustive_synthesize)
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


def realizes(problem: SynthesisProblem, indices) -> bool:
    """Whether the word meets the problem's effective target."""
    target, mats = problem.effective_instance
    return equal_matrices(sequence_product(mats[list(indices)], len(target)), target,
                          problem.up_to_phase)


def brute_min_length(problem: SynthesisProblem) -> int | None:
    """Fewest gates of a word of at most P that meets the effective target."""
    gens = problem.gate_set.non_identity_indices()
    for m in range(problem.P + 1):
        for seq in itertools.product(gens, repeat=m):
            if realizes(problem, seq):
                return m
    return None


def assert_min_length(problem: SynthesisProblem, res: OracleResult) -> None:
    want = brute_min_length(problem)
    if want is None:
        assert res.status == "infeasible" and res.sequence is None
    else:
        assert res.status == "optimal" and len(res.sequence) == want
        assert realizes(problem, res.sequence)
        assert res.objective == pytest.approx(float(want))


@pytest.mark.parametrize("phase_mode", PHASE_MODES)
def test_min_length_matches_enumeration(rng, phase_mode):
    gs = one_qubit_set("H", "T")
    targets = [builtin_gate("S"), builtin_gate("Z"),
               builtin_gate("H") @ builtin_gate("T") @ builtin_gate("H"),
               np.eye(2, dtype=complex), random_unitary(2, rng)]
    for t in targets:
        p = SynthesisProblem(t, gs, P=4, phase_mode=phase_mode)
        assert_min_length(p, exhaustive_synthesize(p))


def test_phase_only_target_agrees_across_routes():
    # e^{i pi/4} I normalizes to I in exact mode and is I up to a phase
    gs = one_qubit_set("H", "T")
    t = np.exp(1j * np.pi / 4) * np.eye(2)
    for mode in PHASE_MODES:
        p = SynthesisProblem(t, gs, P=3, phase_mode=mode)
        res = exhaustive_synthesize(p)
        assert res.status == "optimal" and res.sequence == [], mode
        for backend in ("oracle", "scipy"):
            r = synthesize(p, backend=backend)
            assert r.status == "optimal" and r.gate_indices == [], (mode, backend)
            assert r.objective_value == pytest.approx(0.0, abs=1e-9), (mode, backend)


def test_library_of_more_than_256_gates_agrees_across_routes():
    gs = GateSet.from_specs(1, [gate_spec("RZ", (1,), angle=0.001 * k)
                                for k in range(1, 301)])
    p = SynthesisProblem(builtin_gate("RZ", 0.003), gs, P=1, phase_mode="global_phase")
    for backend in ("oracle", "scipy"):
        r = synthesize(p, backend=backend)
        assert r.status == "optimal" and r.gate_indices == [3], backend


def test_weighted_search_prefers_cheap_detour():
    gs = one_qubit_set("T", "Tdg", "Z")
    p = SynthesisProblem(builtin_gate("S"), gs, P=3)
    uniform = exhaustive_synthesize(p)
    assert len(uniform.sequence) == 2 and uniform.objective == pytest.approx(2.0)
    # pricing T out of reach makes Z Tdg Tdg the optimum
    w = np.zeros(len(gs))
    w[gs.index_of("T")] = 5.0
    w[gs.index_of("Tdg")] = 1.0
    w[gs.index_of("Z")] = 1.0
    res = exhaustive_synthesize(replace(p, weights=w))
    assert len(res.sequence) == 3 and res.objective == pytest.approx(3.0)
    assert realizes(p, res.sequence)
    doubled = exhaustive_synthesize(replace(p, weights=np.full(len(gs), 2.0)))
    assert len(doubled.sequence) == 2 and doubled.objective == pytest.approx(4.0)


def test_depth_objective_parallelizes():
    gs = line_set()
    hh = np.kron(builtin_gate("H"), builtin_gate("H"))
    res = exhaustive_synthesize(SynthesisProblem(hh, gs, P=3, objective="depth"))
    assert res.objective == pytest.approx(1.0)
    assert schedule_depth([gs[i].support for i in res.sequence])[0] == 1
    layered = product_of(gs, [gs.index_of("H", (1,)), gs.index_of("H", (2,)),
                              gs.index_of("CNOT", (1, 2))])
    p = SynthesisProblem(layered, gs, P=4, objective="depth")
    res = exhaustive_synthesize(p)
    assert res.objective == pytest.approx(2.0)
    assert realizes(p, res.sequence)
    # a least depth above D is infeasible
    assert exhaustive_synthesize(replace(p, D=1)).status == "infeasible"


@pytest.mark.parametrize("objective,phase_mode", [
    ("alpha", "exact"), ("fidelity", "exact"), ("fidelity", "global_phase"),
])
def test_score_objectives_match_enumeration(rng, objective, phase_mode):
    p = SynthesisProblem(random_unitary(2, rng), weave_gate_set(), P=3,
                         objective={"alpha": "linearized_fidelity",
                                    "fidelity": "exact_fidelity"}[objective],
                         phase_mode=phase_mode)
    target, mats = p.effective_instance

    def score(seq) -> float:
        tr = np.trace(target.conj().T @ sequence_product(mats[list(seq)], 2))
        return abs(tr) ** 2 / 4 if objective == "fidelity" else tr.real / 2

    gens = p.gate_set.non_identity_indices()
    best = max(score(seq) for m in range(4) for seq in itertools.product(gens, repeat=m))
    res = exhaustive_synthesize(p)
    assert res.status == "optimal"
    assert res.objective == pytest.approx(best, abs=1e-9)
    assert score(res.sequence) == pytest.approx(res.objective, abs=1e-9)


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


def test_budget_exhaustion_raises(monkeypatch):
    gs = one_qubit_set("H", "T")
    monkeypatch.setattr(oracle, "NODE_BUDGET", 3)
    with pytest.raises(OracleInconclusiveError):
        exhaustive_synthesize(SynthesisProblem(builtin_gate("X"), gs, P=6))


def test_searches_stop_at_the_first_empty_level():
    """{H} reaches I and H only, so level 2 is empty and a huge P ends at once."""
    gs = one_qubit_set("H")
    clear_oracle_cache()
    t0 = time.perf_counter()
    r = exhaustive_synthesize(SynthesisProblem(builtin_gate("X"), gs, P=10 ** 6),
                              time_limit=0.5)
    assert (r.status, r.nodes) == ("infeasible", 8)
    r = exhaustive_synthesize(SynthesisProblem(builtin_gate("X"), gs, P=10 ** 6,
                                               objective="linearized_fidelity"))
    assert r.status == "optimal"
    assert time.perf_counter() - t0 < 1.0
    # depth and unequal weights answer at a large P too, without recursing
    t0 = time.perf_counter()
    r = exhaustive_synthesize(SynthesisProblem(builtin_gate("X"), gs, P=5000,
                                               objective="depth"), time_limit=2)
    assert r.status == "infeasible"
    ht = one_qubit_set("H", "T")
    w = np.zeros(len(ht))
    w[ht.index_of("H")], w[ht.index_of("T")] = 1.0, 2.0
    p = SynthesisProblem(builtin_gate("X"), ht, P=5000, weights=w)
    r = exhaustive_synthesize(p, time_limit=2)
    assert r.status == "optimal" and realizes(p, r.sequence)
    assert r.objective == pytest.approx(w[r.sequence].sum())
    assert time.perf_counter() - t0 < 1.0


def test_bad_time_limits_fail_before_any_table(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("a level table was built for a bad time limit")

    monkeypatch.setattr(oracle, "_tables_for", never)
    p = SynthesisProblem(builtin_gate("S"), one_qubit_set("H", "T"), P=2)
    for bad in (float("nan"), 0, -1.0, float("inf"), 10 ** 400, True, "1"):
        with pytest.raises(ConfigError, match="time_limit"):
            exhaustive_synthesize(p, time_limit=bad)


def test_cache_survives_clear():
    p = SynthesisProblem(builtin_gate("Z"), one_qubit_set("H", "T"), P=4)
    first = exhaustive_synthesize(p)
    clear_oracle_cache()
    second = exhaustive_synthesize(p)
    assert isinstance(first, OracleResult)
    assert len(first.sequence) == len(second.sequence) == 4
    assert first.sequence == second.sequence


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
    # W = i*I on two qubits has unit determinant, so exact mode keeps it, and
    # -X[1] needs W twice: both ride the one layer X[1] opens
    gs = GateSet.from_specs(2, [gate_spec("X", (1,)),
                                gate_spec("W", (1, 2), matrix=1j * np.eye(4))])
    target = -gs[gs.index_of("X", (1,))].full
    for backend in ("oracle", "scipy"):
        p = SynthesisProblem(target, gs, P=2, objective="depth")
        assert synthesize(p, backend=backend).status == "infeasible", backend
        res = synthesize(replace(p, P=3), backend=backend)
        assert res.status == "optimal", backend
        assert (res.objective_value, res.depth) == (1.0, 1), backend
        assert len(res.gate_indices) == 3, backend


#: Least depth (gates of the word) of every registry row, exact and global
#: phase; None is infeasible within the row's P.
REGISTRY_DEPTHS = {
    "toffoli2q": (None, (5, 5)), "cnot13": ((4, 4), (4, 4)),
    "fredkin": (None, (7, 7)), "cnot41": ((5, 9), (5, 9)),
    "csx": (None, (6, 7)), "ch": ((3, 3), (3, 3)),
    "iswap": ((7, 8), (4, 4)), "single_excitation_hadamard": (None, (5, 5)),
}


def test_registry_depths_are_decided():
    t0 = time.perf_counter()
    rows = fixtures.benchmark_registry()
    assert set(rows) == set(REGISTRY_DEPTHS)
    for name, fx in rows.items():
        for mode, want in zip(PHASE_MODES, REGISTRY_DEPTHS[name]):
            p = SynthesisProblem(fx.target, fx.gate_set, fx.P, objective="depth",
                                 phase_mode=mode)
            res = synthesize(p, backend="oracle", time_limit=30)
            if want is None:
                assert res.status == "infeasible", (name, mode)
                continue
            assert res.status == "optimal", (name, mode)
            assert (res.depth, len(res.gate_indices)) == want, (name, mode)
            assert res.objective_value == res.depth and len(res.gate_indices) <= fx.P
            assert res.fidelity_to_target == pytest.approx(1.0, abs=1e-9), (name, mode)
    assert time.perf_counter() - t0 < 30


def test_layer_alphabet_past_the_budget_is_inconclusive(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("a level table was built for an alphabet past the budget")

    monkeypatch.setattr(oracle, "_tables_for", never)
    gs = window_gate_set(("CNOT", "H", "S"), 6)
    t0 = time.perf_counter()
    with pytest.raises(OracleInconclusiveError, match="layers"):
        exhaustive_synthesize(SynthesisProblem(np.eye(gs.dim), gs, P=3, objective="depth"))
    assert time.perf_counter() - t0 < 1.0


def test_identity_depth_query_builds_no_sketch_map():
    # the sketch maps for children and queries are built on first use
    clear_oracle_cache()
    gs = window_gate_set(("CNOT", "H", "S"), 5)
    t0 = time.perf_counter()
    res = exhaustive_synthesize(SynthesisProblem(np.eye(gs.dim), gs, P=3, objective="depth"))
    assert time.perf_counter() - t0 < 1.5
    assert res.status == "optimal" and res.sequence == []
    tab = list(oracle._TABLE_CACHE.values())[-1]
    assert "child_map" not in vars(tab) and "query_map" not in vars(tab)
    clear_oracle_cache()


def test_table_cache_is_lru_within_byte_budget(monkeypatch):
    sets = [one_qubit_set("H", "T"), one_qubit_set("H", "S"), line_set(),
            one_qubit_set("T", "Tdg", "Z")]
    target = [builtin_gate("Z"), builtin_gate("Z"),
              product_of(sets[2], [1, 3, 2]), builtin_gate("S")]
    calls = [0, 1, 2, 3, 0, 2, 1, 3, 0]

    def solve(i):
        return exhaustive_synthesize(SynthesisProblem(target[i], sets[i], P=4))

    def run_all():
        out = []
        for i in calls:
            res = solve(i)
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
    res = solve(2)
    (kept,) = oracle._TABLE_CACHE.values()
    assert kept.stored_bytes > 0 and res.sequence == free[2][1]
    clear_oracle_cache()


def gate_tables(gs: GateSet, up_to_phase: bool) -> LevelTables:
    """Level tables whose letters are the non-identity gates of gs at unit cost."""
    ni = gs.non_identity_indices()
    return LevelTables(gs.matrices()[ni], np.ones(len(ni)), up_to_phase)


_TRIPLE_SET = window_gate_set(("CNOT", "H", "S"), 3)
_PAIR_SET = window_gate_set(("CNOT", "H", "S"), 2)
#: Fits levels 0-2 of _TRIPLE_SET (116472 bytes) but not the 668 matrices of
#: level 3, so levels 3 and up keep keys and pointers only.
_SMALL_BUDGET = 200_000


@functools.cache
def triple_tables(phase_mode: str, budgeted: bool) -> LevelTables:
    """Levels 0-4 of _TRIPLE_SET, built under _SMALL_BUDGET when budgeted.
    Budgeted tables also build in chunks of 50 parents, so a member can
    recur across chunks."""
    tab = gate_tables(_TRIPLE_SET, phase_mode == "global_phase")
    with pytest.MonkeyPatch.context() as mp:
        if budgeted:
            mp.setattr(oracle, "_MATRIX_BUDGET_BYTES", _SMALL_BUDGET)
            tab.chunk_rows = 50
        tab.ensure_level(4, oracle._Budget(10 ** 9, None))
    return tab


def test_gemm_kernels_match_einsum(rng):
    gs = _TRIPLE_SET
    n = gs.dim
    parents = np.stack([random_unitary(n, rng) for _ in range(7)])
    target = random_unitary(n, rng)
    y = np.einsum("cji,jk->cik", parents.conj(), target)
    assert np.abs(oracle._right_factors(parents, target) - y).max() <= 1e-12
    dirs = oracle._directions(n)
    assert np.allclose(np.linalg.norm(dirs.reshape(len(dirs), -1), axis=1), 1.0)
    for phase_mode in PHASE_MODES:
        tab = gate_tables(gs, phase_mode == "global_phase")
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
    got = np.concatenate([mats for _, mats in tab.iter_level_matrices(3)])
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
        got = np.concatenate([mats for _, mats in tab.iter_level_matrices(l)])
        assert len(got) == lev.count
        keys = tab.keys_of(got)
        assert len(np.unique(keys)) == lev.count
        assert (lev.members(keys) >= 0).all()
        assert np.array_equal(np.sort(keys), np.sort(full.keys_of(full.levels[l].mats)))


@pytest.mark.parametrize("budgeted", [False, True])
@pytest.mark.parametrize("phase_mode", ["exact", "global_phase"])
def test_level_pointers_spell_each_member_and_keys_find_it(phase_mode, budgeted):
    tab = triple_tables(phase_mode, budgeted)
    for l in range(5):
        lev = tab.levels[l]
        assert np.all(lev.keys[1:] > lev.keys[:-1])
        for lo, mats in tab.iter_level_matrices(l):
            members = np.arange(lo, lo + len(mats))
            words = [tab.peel(l, i) for i in members]
            assert all(len(w) == l for w in words)
            spelled = np.stack([sequence_product(tab.gen[w], tab.n) for w in words])
            assert np.abs(spelled - mats).max() <= 1e-12
            keys = tab.keys_of(mats)
            assert np.array_equal(lev.order[np.searchsorted(lev.keys, keys)], members)


@settings(max_examples=25, derandomize=True, deadline=None, database=None)
@given(word=st.lists(st.sampled_from(_TRIPLE_SET.non_identity_indices()), max_size=7))
def test_pointer_only_tables_answer_like_stored_ones(word):
    target = product_of(_TRIPLE_SET, word)
    for phase_mode in ("exact", "global_phase"):
        answers = []
        for budgeted in (True, False):
            tab = triple_tables(phase_mode, budgeted)
            seq = oracle._mitm(tab, target, 7, oracle._Budget(10 ** 9, None))[0]
            assert seq is not None and len(seq) <= len(word)
            ni = _TRIPLE_SET.non_identity_indices()
            assert tab.equal(product_of(_TRIPLE_SET, [ni[p] for p in seq]), target)
            answers.append(seq)
        assert answers[0] == answers[1]


def test_stored_bytes_count_keys_and_pointers(monkeypatch):
    monkeypatch.setattr(oracle, "_MATRIX_BUDGET_BYTES", _SMALL_BUDGET)
    tab = gate_tables(_TRIPLE_SET, False)
    budget = oracle._Budget(10 ** 9, None)
    tab.ensure_level(2, budget)
    before = tab.stored_bytes
    lev2 = tab.levels[2]
    # one uint64 key, one int64 member index of a key, one int64 pointer, one
    # float64 cost and one complex 8x8 matrix per member
    assert lev2.nbytes == lev2.count * (8 + 8 + 8 + 8 + 64 * 16)
    tab.ensure_level(3, budget)
    lev3 = tab.levels[3]
    assert lev3.mats is None and lev3.count == 668
    assert tab.stored_bytes - before == lev3.count * (8 + 8 + 8 + 8)


def test_key_set_agrees_with_python_set(rng):
    pool = rng.integers(0, 2 ** 63, size=30_000, dtype=np.uint64) * np.uint64(2)
    query = np.concatenate([pool, pool + np.uint64(1), [np.uint64(2 ** 64 - 1)]])
    for size in (0, 1, 5, 1_000, 20_000):
        want = set(rng.choice(pool, size=size).tolist())  # drawn with repeats
        keys = np.array(sorted(want), dtype=np.uint64)
        order = rng.permutation(len(keys))
        lev = oracle._Level(keys=keys, order=order, src=np.empty(0, dtype=np.int64),
                            cost=np.zeros(len(keys)))
        got = lev.members(query)
        assert (got >= 0).tolist() == [q in want for q in query.tolist()]
        index = dict(zip(keys.tolist(), order.tolist()))
        assert got.tolist() == [index.get(q, -1) for q in query.tolist()]


def test_each_left_level_is_scanned_once_per_query(monkeypatch):
    tab = gate_tables(_PAIR_SET, False)
    budget = oracle._Budget(10 ** 9, None)
    tab.ensure_level(5, budget)
    word = tab.peel(5, tab.levels[5].count // 2)
    ni = _PAIR_SET.non_identity_indices()
    target = product_of(_PAIR_SET, [ni[p] for p in word])
    scanned = []

    def spy(chunk, target):
        scanned.append(chunk.tobytes())
        return right_factors(chunk, target)

    right_factors = oracle._right_factors
    monkeypatch.setattr(oracle, "_right_factors", spy)
    seq = oracle._mitm(tab, target, 5, budget)[0]
    assert seq is not None and len(seq) == 5  # lengths 4 and 5 share left level 2
    assert tab.equal(product_of(_PAIR_SET, [ni[p] for p in seq]), target)
    assert len(scanned) >= 2 and len(set(scanned)) == len(scanned)


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
    tab = gate_tables(gs, phase_mode == "global_phase")
    tab.ensure_level(4, oracle._Budget(10 ** 9, None))
    want = independent_level_counts(gs, phase_mode == "global_phase", 4)
    assert [lev.count for lev in tab.levels] == want


def test_four_qubit_level_counts_pinned():
    tab = gate_tables(window_gate_set(("CNOT", "H", "S"), 4), False)
    tab.ensure_level(4, oracle._Budget(10 ** 9, None))
    assert [lev.count for lev in tab.levels] == [1, 20, 264, 2820, 26166]


@settings(max_examples=30, derandomize=True, deadline=None, database=None)
@given(word=st.lists(st.sampled_from(_PAIR_SET.non_identity_indices()), max_size=3))
def test_random_words_reach_brute_force_minimum(word):
    target = product_of(_PAIR_SET, word)
    for phase_mode in PHASE_MODES:
        p = SynthesisProblem(target, _PAIR_SET, P=3, phase_mode=phase_mode)
        assert_min_length(p, exhaustive_synthesize(p))
