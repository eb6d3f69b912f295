"""Model assembly and the end-to-end synthesis driver on small instances."""

import itertools
import time
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mipsynth import formulation
from mipsynth.cuts import CUT_FAMILIES, CutSelection
from mipsynth.encoding import su_normalize
from mipsynth.errors import (ConfigError, DimensionError, ModelIntegrityError,
                             UnitarityError)
from mipsynth.fixtures import oracle_corpus
from mipsynth.formulation import (DATA_FAMILIES, DATA_TOL, OBJECTIVES,
                                  PHASE_MODES, POLISH_TOL, TARGET_OBJECTIVES,
                                  SynthesisProblem, build_base, build_model,
                                  extract_and_verify, polish_point,
                                  schedule_depth, synthesize, verify_sequence)
from mipsynth.gates import (GateSet, builtin_gate, extend_gate, gate_spec,
                            sequence_product, weave_gate_set)
from mipsynth.solvers import DEFAULT_GAP_TOL, get_backend

from util import random_unitary


def gs1(*names: str) -> GateSet:
    return GateSet.from_specs(1, [gate_spec(n, (1,)) for n in names])


def fixed_zeros(model) -> int:
    """Continuous variables whose bounds are fixed to 0."""
    arr = model.to_arrays()
    return int(np.sum((arr.lb == 0.0) & (arr.ub == 0.0) & (arr.integrality == 0)))


def su_warned(fn):
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        out = fn()
    return out, any("unit determinant" in str(w.message) for w in rec)


def test_objective_name_contract():
    assert OBJECTIVES == ("weighted_gate_count", "depth", "linearized_fidelity",
                          "frobenius_oa", "exact_fidelity")
    assert TARGET_OBJECTIVES == ("weighted_gate_count", "depth")


def test_problem_validation():
    gs = gs1("H", "T")
    t = builtin_gate("S")
    with pytest.raises(ConfigError):
        SynthesisProblem(t, gs, P=0)
    with pytest.raises(ConfigError):
        SynthesisProblem(t, gs, P=2, D=3)
    with pytest.raises(ConfigError):
        SynthesisProblem(t, gs, P=2, D=0)
    with pytest.raises(ConfigError):
        SynthesisProblem(t, gs, P=2, objective="speed")
    with pytest.raises(ConfigError):
        SynthesisProblem(t, gs, P=2, phase_mode="local")
    with pytest.raises(ConfigError):
        SynthesisProblem(t, gs, P=2, weights=np.ones(2))
    with pytest.raises(ConfigError):
        SynthesisProblem(t, gs, P=2, weights=-np.ones(len(gs)))
    with pytest.raises(ConfigError):
        SynthesisProblem(t, gs, P=2, epsilon=0.0)
    with pytest.raises(ConfigError):
        SynthesisProblem(t, gs, P=2, epsilon=1.5)
    for bad in (True, np.True_, "0.5", None, float("nan")):
        with pytest.raises(ConfigError, match="epsilon"):
            SynthesisProblem(t, gs, P=2, epsilon=bad)
    with pytest.raises(ConfigError):
        SynthesisProblem(t, gs, P=2, K=1)
    for budgets in ({"P": 2.5}, {"P": True}, {"P": "2"}, {"P": 3, "D": 1.5},
                    {"P": 2, "D": np.True_}, {"P": 2, "K": 2.5}, {"P": 2, "K": True}):
        with pytest.raises(ConfigError, match="must be an integer"):
            SynthesisProblem(t, gs, **budgets)
    p = SynthesisProblem(t, gs, P=np.int64(3), D=np.int32(2), K=np.uint8(4))
    assert (p.P, p.D, p.K) == (3, 2, 4)
    with pytest.raises(DimensionError):
        SynthesisProblem(np.eye(4), gs, P=2)
    with pytest.raises(UnitarityError):
        SynthesisProblem(np.ones((2, 2)), gs, P=2)
    # identity never counts toward the objective
    p = SynthesisProblem(t, gs, P=2, weights=np.full(len(gs), 3.0))
    assert p.weights[gs.identity_index] == 0.0
    assert p.D == p.P


def test_depth_objective_disables_order_cuts():
    gs = gs1("H", "T")
    sel = CutSelection(commuting_pairs=True, equivalent_patterns=True)
    with pytest.warns(UserWarning, match="depth objective"):
        p = SynthesisProblem(builtin_gate("S"), gs, P=2, objective="depth", cuts=sel)
    assert not p.cuts.commuting_pairs and not p.cuts.equivalent_patterns
    assert p.cuts.identity_symmetry


def test_effective_instance_scope():
    gs = gs1("H", "T")
    t = builtin_gate("S")
    (eff_t, eff_gs), warned = su_warned(
        lambda: SynthesisProblem(t, gs, P=2).effective_instance)
    assert warned and eff_gs is not gs
    assert np.linalg.det(eff_t) == pytest.approx(1.0, abs=1e-12)
    assert all(abs(np.linalg.det(m) - 1) < 1e-12 for m in eff_gs.matrices())
    assert [g.support for g in eff_gs] == [g.support for g in gs]
    assert eff_gs.identity_index == gs.identity_index

    (eff_t, eff_gs), warned = su_warned(lambda: SynthesisProblem(
        t, gs, P=2, phase_mode="global_phase").effective_instance)
    assert eff_gs is gs and not warned and np.array_equal(eff_t, t)

    (eff_t, eff_gs), warned = su_warned(lambda: SynthesisProblem(
        t, gs, P=2, objective="linearized_fidelity").effective_instance)
    assert eff_gs is gs and not warned and np.array_equal(eff_t, t)

    # an already-special instance is left alone, quietly
    rz = GateSet.from_specs(1, [gate_spec("RZ", (1,), angle=0.7)])
    (eff_t, eff_gs), warned = su_warned(lambda: SynthesisProblem(
        builtin_gate("RZ", 0.3), rz, P=2).effective_instance)
    assert eff_gs is rz and not warned



@pytest.mark.filterwarnings("ignore:.*normalized to unit determinant")
def test_verify_sequence_rejects_a_word_that_misses_the_target():
    gs = gs1("H", "T")
    h, t = gs.index_of("H"), gs.index_of("T")
    for mode in PHASE_MODES:
        p = SynthesisProblem(builtin_gate("S"), gs, P=2, phase_mode=mode)
        assert verify_sequence(p, [t, t]).fidelity_to_target == pytest.approx(1.0)
        with pytest.raises(ModelIntegrityError, match="fidelity"):
            verify_sequence(p, [h, t])
    # an objective without the target equality scores any word
    p = SynthesisProblem(builtin_gate("S"), gs, P=2, objective="linearized_fidelity")
    assert verify_sequence(p, [h, t]).fidelity_to_target < 0.9

def test_build_base_counts():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        p2 = SynthesisProblem(builtin_gate("T"), weave_gate_set(), P=2,
                              objective="linearized_fidelity")
        m, h = build_base(p2)
    # no target: the chain runs forward to P, with P - 1 copy steps.
    # n = 2, |G| = 5, P = 2.  z: |G|*P; Ghat: P*2n^2; V: (P-1)*|G|*2n^2
    assert m.num_vars == 10 + 16 + 40
    # one-hot: P; cumulative: P*2n^2;
    # disjunctive: (P-1)*(|G|*4n^2 copy bounds + 2n^2 aggregate rows);
    # span: 2n^2 - dim L_p dependent coordinates of Ghat_p and
    # 2n^2 - dim L_{p-1} of each copy V[p,g], less the structural zeros.
    # The weaves span dim L_1 = 3 with 2 structural zeros and dim L_2 = 4
    # with none: Ghat_1 (5 - 2) + Ghat_2 4 + |G| copies (5 - 2) rows, and
    # Ghat_1 2 + |G| copies 2 zeros fixed
    assert m.family_rows == {"one_hot": 2, "cumulative": 16,
                             "disjunctive": 5 * 16 + 8,
                             "span": 3 + 4 + 5 * 3}
    assert fixed_zeros(m) == 2 + 5 * 2
    assert h.z.shape == (5, 2) and h.ghat.shape == (2, 2, 2, 2)
    assert h.v.shape == (3, 5, 2, 2, 2) and h.meet == 2

    p1 = SynthesisProblem(builtin_gate("T"), weave_gate_set(), P=1,
                          objective="linearized_fidelity")
    m, h = build_base(p1)
    assert m.num_vars == 5 + 8 and h.v is None
    # span: Ghat_1 in L_1, 5 - 2 rows and 2 zeros fixed
    assert m.family_rows == {"one_hot": 1, "cumulative": 8, "span": 3}
    assert fixed_zeros(m) == 2

    # a target: forward to meet = min(ceil(5/2), 4) = 3 (copy steps at
    # p = 2, 3), backward from T (copy step at p = 4), P - 2 = 3 copy steps
    # in all, and no Ghat_P.
    # n = 2, |G| = 3, P = 5.  z: |G|*P; Ghat: (P-1)*2n^2; V: (P-2)*|G|*2n^2
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        exact = SynthesisProblem(builtin_gate("S"), gs1("H", "T"), P=5)
        m, h = build_base(exact)
    assert h.meet == 3 and h.ghat.shape == (4, 2, 2, 2)
    assert m.num_vars == 15 + 32 + 72
    # one-hot: P; cumulative: 2n^2 for Ghat_1 plus 2n^2 per copy step;
    # disjunctive: (P-2)*(|G|*4n^2 + 2n^2); target: 2n^2 for Ghat_{P-1}
    assert m.family_rows == {"one_hot": 5, "cumulative": 8 + 3 * 8,
                             "disjunctive": 3 * (3 * 16 + 8), "target": 8}
    # global phase adds the split (r_g, s_g) per gate: 2|G| variables and
    # 4|G| bounds
    gp = SynthesisProblem(builtin_gate("S"), gs1("H", "T"), P=5,
                          phase_mode="global_phase")
    m, h = build_base(gp)
    assert m.num_vars == 15 + 32 + 72 + 2 * 3
    assert m.family_rows == {"one_hot": 5, "cumulative": 8 + 3 * 8,
                             "disjunctive": 3 * (3 * 16 + 8) + 4 * 3,
                             "target": 8}
    assert h.rs_split.shape == (3, 2)

    # P = 1 with a target: meet = 0 and no Ghat at all; the target row is
    # written onto the identity, sum_g z[g,1] T G_g^dag = I.
    # exact: z: |G| variables; one-hot 1; target 2n^2
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        m, h = build_base(SynthesisProblem(builtin_gate("S"), gs1("H", "T"), P=1))
    assert h.meet == 0 and h.ghat.shape == (0, 2, 2, 2) and h.v is None
    assert m.num_vars == 3
    assert m.family_rows == {"one_hot": 1, "target": 8}
    # global phase: z plus (r_g, s_g), 3|G| variables; 4|G| bounds
    m, h = build_base(SynthesisProblem(builtin_gate("S"), gs1("H", "T"), P=1,
                                       phase_mode="global_phase"))
    assert m.num_vars == 3 * 3
    assert m.family_rows == {"one_hot": 1, "target": 8, "disjunctive": 4 * 3}


def span_residual(p: SynthesisProblem, words) -> float:
    """Worst span-row or bound violation at the polished points of `words`.

    Each word fills all P positions; the identity pads shorter circuits.
    """
    m, h = build_base(p)
    assert "span" in m.family_rows
    worst = 0.0
    for word in words:
        x = np.zeros(m.num_vars)
        x[h.z[list(word), np.arange(p.P)]] = 1.0
        xp, chosen = polish_point(p, m, h, x)
        assert chosen == list(word)
        viol = m.check_point(xp)
        worst = max(worst, viol["span"], viol["bounds"])
    return worst


def test_span_rows_hold_on_every_weave_word():
    # every word of at most 5 weaves, and each of its prefixes in the copies
    p = SynthesisProblem(builtin_gate("T"), weave_gate_set(), P=5,
                         objective="linearized_fidelity")
    words = itertools.product(range(len(p.gate_set)), repeat=p.P)
    assert span_residual(p, words) <= 1e-12


@pytest.mark.parametrize("special", [True, False], ids=["SU2", "U2"])
def test_span_rows_hold_on_random_libraries(special):
    rng = np.random.default_rng(20261019 + special)
    for size in (1, 2, 3):
        mats = [random_unitary(2, rng) for _ in range(size)]
        gs = GateSet.from_specs(1, [
            gate_spec(f"U{k}", (1,), matrix=su_normalize(u) if special else u)
            for k, u in enumerate(mats)])
        p = SynthesisProblem(random_unitary(2, rng), gs, P=4,
                             objective="linearized_fidelity")
        words = rng.integers(len(gs), size=(40, p.P))
        assert span_residual(p, words) <= 1e-12, size


def test_target_models_carry_no_span_rows():
    for f, mode, objective in itertools.product(oracle_corpus(), PHASE_MODES,
                                                TARGET_OBJECTIVES):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            m, _ = build_base(SynthesisProblem(f.target, f.gate_set, P=f.P,
                                               objective=objective, phase_mode=mode))
        assert "span" not in m.family_rows, (f.name, mode, objective)
        assert fixed_zeros(m) == 0, (f.name, mode, objective)


def test_full_model_adds_objective_and_cuts():
    p = SynthesisProblem(builtin_gate("T"), weave_gate_set(), P=2,
                         objective="linearized_fidelity")
    m, _ = build_model(p)
    assert m.family_rows["objective"] == 1
    assert m.family_rows["cut_identity_symmetry"] == 1


def test_frobenius_model_adds_only_the_box():
    """The exact error needs no estimator: 2n^2 box rows over 2n^2 deviations."""
    p = SynthesisProblem(builtin_gate("T"), weave_gate_set(), P=3,
                         objective="frobenius_oa", epsilon=1.0)
    base, _ = build_base(p)
    m, h = build_model(p)
    n = p.gate_set.dim
    assert m.family_rows["frobenius_box"] == 2 * n * n
    assert "objective" not in m.family_rows
    assert m.num_vars - base.num_vars == 2 * n * n == h.e.size
    assert len(m.integer_vars()) == len(base.integer_vars())


def test_exact_solve_small():
    with pytest.warns(UserWarning, match="unit determinant"):
        p = SynthesisProblem(builtin_gate("S"), gs1("H", "T"), P=2)
        r = synthesize(p, backend="scipy")
    assert r.status == "optimal" and r.feasible
    assert [s.name for s in r.sequence] == ["T", "T"]
    assert r.objective_value == pytest.approx(2.0)
    assert r.fidelity_to_target == pytest.approx(1.0, abs=1e-9)
    assert r.certificate["bound"] == pytest.approx(2.0)
    assert r.certificate["gap"] == pytest.approx(0.0)
    # P = 2 meets the target at Ghat_1 and has no copy step (P - 2 = 0):
    # one-hot P; cumulative 2n^2 for Ghat_1; target 2n^2 for Ghat_{P-1};
    # P - 1 identity-placement rows; n = 2
    assert r.certificate["row_families"] == {
        "one_hot": 2, "cumulative": 8, "target": 8,
        "cut_identity_symmetry": 1}
    assert "presolve_retry" not in r.certificate
    assert isinstance(r.certificate["nodes"], int)


@pytest.mark.filterwarnings("ignore:exact phase mode")
@pytest.mark.parametrize("phase_mode", PHASE_MODES)
@pytest.mark.parametrize("objective", TARGET_OBJECTIVES)
def test_single_position_target(phase_mode, objective):
    """P = 1 has only the target row, written onto the identity."""
    gs = gs1("H", "T")
    r = synthesize(SynthesisProblem(builtin_gate("T"), gs, P=1, objective=objective,
                                    phase_mode=phase_mode), backend="scipy")
    assert r.status == "optimal"
    assert [s.name for s in r.sequence] == ["T"]
    assert r.objective_value == pytest.approx(1.0)
    assert r.fidelity_to_target == pytest.approx(1.0, abs=1e-9)
    r = synthesize(SynthesisProblem(builtin_gate("S"), gs, P=1, objective=objective,
                                    phase_mode=phase_mode), backend="scipy")
    assert r.status == "infeasible"


def test_exact_solve_infeasible():
    with pytest.warns(UserWarning, match="unit determinant"):
        p = SynthesisProblem(builtin_gate("Sdg"), gs1("T"), P=2)
        r = synthesize(p, backend="scipy")
    assert r.status == "infeasible" and not r.feasible
    assert r.sequence == [] and r.objective_value is None
    assert r.certificate["status"] == "infeasible"
    assert "presolve_retry" not in r.certificate


def test_global_phase_solve():
    p = SynthesisProblem(builtin_gate("X"), gs1("H", "Z"), P=3,
                         phase_mode="global_phase")
    r = synthesize(p, backend="scipy")
    assert r.status == "optimal"
    assert [s.name for s in r.sequence] == ["H", "Z", "H"]
    assert r.fidelity_to_target == pytest.approx(1.0, abs=1e-9)
    assert r.phase_factor == pytest.approx(1.0 + 0.0j, abs=1e-6)


@pytest.mark.parametrize("P", [3, 4, 5, 6])
def test_near_unitary_library_solves_in_global_phase(P):
    # gates accepted with a unitarity defect of 8e-10 are projected onto
    # the unitaries; unprojected, their products leave the chain's [-1, 1]
    # box by more than POLISH_TOL, and P = 3 even reads as infeasible
    scale = 1 + 4e-10
    mats = [builtin_gate("H") * scale, builtin_gate("T") * scale]
    gs = GateSet.from_specs(1, [gate_spec(n, (1,), matrix=m)
                                for n, m in zip("AB", mats)])
    target = sequence_product([mats[p % 2] for p in range(P)], 2) / scale ** P
    r = synthesize(SynthesisProblem(target, gs, P=P, phase_mode="global_phase"),
                   backend="scipy")
    assert r.status == "optimal"
    assert r.objective_value == pytest.approx(P, abs=1e-6)


def test_depth_solve_single_qubit():
    with pytest.warns(UserWarning, match="unit determinant"):
        p = SynthesisProblem(builtin_gate("S"), gs1("H", "T"), P=2, D=2,
                             objective="depth")
        r = synthesize(p, backend="scipy")
    assert r.status == "optimal" and r.objective_value == pytest.approx(2.0)
    assert r.depth == 2 and r.depth_schedule == {1: 1, 2: 2}


def test_depth_solve_parallel_layer():
    specs = [gate_spec("H", (1,)), gate_spec("H", (2,)), gate_spec("CNOT", (1, 2))]
    gs = GateSet.from_specs(2, specs)
    hh = np.kron(builtin_gate("H"), builtin_gate("H"))
    with pytest.warns(UserWarning, match="unit determinant"):
        p = SynthesisProblem(hh, gs, P=2, D=2, objective="depth")
        r = synthesize(p, backend="scipy")
    assert r.status == "optimal" and r.objective_value == pytest.approx(1.0)
    assert r.depth == 1 and r.depth_schedule == {1: 1, 2: 1}


def test_depth_zero_is_certified_by_the_solver():
    p = SynthesisProblem(np.eye(2), gs1("H", "T"), P=3, objective="depth")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        r = synthesize(p, backend="scipy")
    assert r.status == "optimal" and r.objective_value == 0.0
    assert r.depth == 0 and r.sequence == []
    # the model itself answers depth 0: a solver run, not a shortcut
    assert r.certificate["nodes"] is not None
    assert r.certificate["bound"] == pytest.approx(0.0, abs=1e-9)


@pytest.mark.parametrize("phase_mode", PHASE_MODES)
@pytest.mark.parametrize("D", [1, 2, 3])
def test_depth_budget_binds_on_both_routes(D, phase_mode):
    # H[1].CNOT[1,2].H[1] needs three layers: below D = 3 both routes refuse
    hch = [gate_spec("H", (1,)), gate_spec("CNOT", (1, 2)), gate_spec("H", (1,))]
    target = sequence_product([extend_gate(s, 2).full for s in hch], 4)
    gs = GateSet.from_specs(2, [hch[0], gate_spec("H", (2,)), hch[1]])
    p = SynthesisProblem(target, gs, P=3, D=D, objective="depth",
                         phase_mode=phase_mode)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        milp = synthesize(p, backend="scipy")
        brute = synthesize(p, backend="oracle")
    assert milp.status == brute.status == ("optimal" if D == 3 else "infeasible")
    assert milp.depth == brute.depth == (3 if D == 3 else None)


def test_linearized_fidelity_matches_oracle():
    p = SynthesisProblem(builtin_gate("T"), weave_gate_set(), P=2,
                         objective="linearized_fidelity")
    milp = synthesize(p, backend="scipy")
    brute = synthesize(p, backend="oracle")
    assert milp.status == brute.status == "optimal"
    assert milp.objective_value == pytest.approx(brute.objective_value, abs=1e-6)
    assert milp.alpha == pytest.approx(brute.alpha, abs=1e-6)
    assert milp.fidelity_to_target is not None
    assert brute.certificate["nodes"] > 0


def test_frobenius_oa_bounds_true_error():
    p = SynthesisProblem(builtin_gate("T"), weave_gate_set(), P=2,
                         objective="frobenius_oa", epsilon=1.0, K=5)
    r = synthesize(p, backend="scipy")
    assert r.status == "optimal"
    # the model objective is the squared error, reported as verified
    assert r.objective_value == r.error_fro_sq
    assert r.error_fro_sq == pytest.approx(1.1715728752538097, abs=1e-6)
    assert r.alpha == pytest.approx(0.8535533905932737, abs=1e-6)
    brute = synthesize(p, backend="oracle")
    assert brute.objective_value == pytest.approx(r.error_fro_sq, abs=1e-6)
    assert brute.error_fro_sq == pytest.approx(
        2 ** (p.num_qubits + 2) * (1 - brute.alpha), abs=1e-9)


def test_exact_fidelity_falls_back_to_search(monkeypatch):
    def no_model(problem):
        raise AssertionError("exact_fidelity must not build a MIP model")

    monkeypatch.setattr(formulation, "build_model", no_model)
    p = SynthesisProblem(builtin_gate("T"), weave_gate_set(), P=3,
                         objective="exact_fidelity")
    with pytest.warns(UserWarning, match="falling back to exhaustive search"):
        r = synthesize(p, backend="scipy")
    assert r.status == "optimal"
    assert r.objective_value == pytest.approx(0.9455032620941832, abs=1e-9)
    assert r.fidelity_to_target == pytest.approx(r.objective_value, abs=1e-9)


def test_build_model_refuses_exact_fidelity():
    p = SynthesisProblem(builtin_gate("T"), weave_gate_set(), P=2,
                         objective="exact_fidelity")
    with pytest.raises(ConfigError, match="exact_fidelity"):
        build_model(p)


@pytest.mark.filterwarnings("ignore:exact phase mode")
@pytest.mark.parametrize("phase_mode", PHASE_MODES)
def test_identity_only_library_routes_agree(phase_mode):
    gs = GateSet.from_specs(1, [])
    for backend in ("scipy", "oracle"):
        r = synthesize(SynthesisProblem(np.eye(2), gs, P=2, phase_mode=phase_mode),
                       backend=backend)
        assert r.status == "optimal" and r.gate_indices == []
        assert r.objective_value == 0.0
        r = synthesize(SynthesisProblem(builtin_gate("X"), gs, P=2,
                                        phase_mode=phase_mode), backend=backend)
        assert r.status == "infeasible"


def test_schedule_depth_cases():
    assert schedule_depth([]) == (0, {})
    depth, sched = schedule_depth([(1,), (2,), (1, 2)])
    assert depth == 2 and sched == {1: 1, 2: 1, 3: 2}
    depth, sched = schedule_depth([(1,), (1, 2), (2,)])
    assert depth == 3 and sched == {1: 1, 2: 2, 3: 3}
    # empty-support entries ride along in the current layer
    depth, sched = schedule_depth([(1,), (), (2,)])
    assert depth == 1 and sched == {1: 1, 2: 1, 3: 1}
    specs = [gate_spec("CNOT", (1, 3)), gate_spec("H", (3,))]
    assert schedule_depth([s.qubits for s in specs])[0] == 2
    # a gate's support counts, not its declared qubits
    gs = GateSet.from_specs(2, [gate_spec("H", (2,))])
    h2 = gs[gs.index_of("H", (2,))]
    h_on_1 = extend_gate(gate_spec("HI", (1, 2), matrix=np.kron(
        builtin_gate("H"), np.eye(2))), 2)
    assert h_on_1.support == {1}
    assert schedule_depth([h_on_1.support, h2.support])[0] == 1


@pytest.mark.parametrize("name, phase_mode, cuts", [
    pytest.param(name, mode, cuts, id=f"{name}-{mode}" + ("-hc" if "hc" in cuts else ""))
    for name in ("t2_s", "hh_i", "y_from_xz", "rz2", "w1w2")
    for mode in PHASE_MODES for cuts in ("identity", "identity,hc")])
def test_mip_and_oracle_verify_alike(name, phase_mode, cuts):
    """Both routes reach one optimum and verify one circuit alike.

    The free MIP solve may return another optimal word than the oracle, so
    the fields are compared on the oracle's word: the MIP with its z fixed
    to that word, padded with trailing identities.  With the hindsight
    family on, that fixed solve also shows its rows hold at the optimum.
    """
    fx = next(f for f in oracle_corpus() if f.name == name)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        p = SynthesisProblem(fx.target, fx.gate_set, fx.P, phase_mode=phase_mode,
                             cuts=CutSelection.from_names(cuts))
        free = synthesize(p, backend="scipy")
        brute = synthesize(p, backend="oracle")
        model, handles = build_model(p)
    assert free.status == brute.status == "optimal"
    assert len(free.gate_indices) == len(brute.gate_indices)
    assert free.objective_value == pytest.approx(brute.objective_value, abs=1e-9)

    gs = p.gate_set
    word = brute.gate_indices + [gs.identity_index] * (p.P - len(brute.gate_indices))
    for pos, chosen in enumerate(word):
        for g in range(len(gs)):
            model.fix_var(int(handles.z[g, pos]), 1.0 if g == chosen else 0.0)
    milp = extract_and_verify(p, model, handles, get_backend("scipy").solve(model))
    assert milp.status == "optimal"
    assert milp.gate_indices == brute.gate_indices
    for f in ("fidelity_to_target", "alpha", "beta", "error_fro_sq"):
        assert abs(getattr(milp, f) - getattr(brute, f)) <= 1e-9, f
    if phase_mode == "exact":
        assert milp.phase_factor is None and brute.phase_factor is None
    else:
        assert abs(milp.phase_factor - brute.phase_factor) <= 1e-9
    assert milp.depth == brute.depth
    assert milp.depth_schedule == brute.depth_schedule


ONE_QUBIT_GATES = ("H", "T", "S", "X", "Y", "Z", "Sdg", "Tdg")


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_mip_and_oracle_agree_on_random_words(data):
    """Differential check: same status and optimum on both routes.

    The target is a random word over a small library, at most one gate
    longer than the budget P, so some instances are infeasible; exact mode
    compares determinant-normalized matrices, which can also rule a word
    out.  The MIP carries a random subset of the cut families.
    """
    names = data.draw(st.lists(st.sampled_from(ONE_QUBIT_GATES), min_size=1,
                               max_size=3, unique=True), label="library")
    gs = gs1(*names)
    # from P = 4 on the chain has copy steps on both sides of its meet
    P = data.draw(st.integers(1, 5), label="P")
    word = data.draw(st.lists(st.sampled_from(gs.non_identity_indices()),
                              max_size=P + 1), label="word")
    tokens = data.draw(st.lists(st.sampled_from(CUT_FAMILIES), unique=True),
                       label="cuts")
    target = sequence_product(gs.matrices()[word], gs.dim)
    for mode in PHASE_MODES:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            p = SynthesisProblem(target, gs, P, phase_mode=mode,
                                 cuts=CutSelection.from_names(tokens or "none"))
            milp = synthesize(p, backend="scipy")
            brute = synthesize(p, backend="oracle")
        assert milp.status == brute.status, mode
        assert milp.status in ("optimal", "infeasible"), mode
        if milp.feasible:
            assert milp.objective_value == pytest.approx(brute.objective_value,
                                                         abs=1e-6), mode
            assert milp.fidelity_to_target == pytest.approx(1.0, abs=1e-9), mode


@pytest.mark.parametrize("backend", ["scipy", "oracle"])
def test_bad_time_limits_fail_before_any_model(monkeypatch, backend):
    def never(*args, **kwargs):
        raise AssertionError("a model or table was built for a bad time limit")

    monkeypatch.setattr(formulation, "build_model", never)
    monkeypatch.setattr(formulation.oracle_mod, "exhaustive_synthesize", never)
    p = SynthesisProblem(builtin_gate("S"), gs1("H", "T"), P=2)
    for objective in ("weighted_gate_count", "depth"):
        p = replace(p, objective=objective)
        for bad in (float("nan"), 0, -1.0, float("inf"), 10 ** 400, True, "1"):
            with pytest.raises(ConfigError, match="time_limit"):
                synthesize(p, backend=backend, time_limit=bad)


@pytest.mark.parametrize("backend", ["scipy", "oracle"])
def test_bad_weights_fail_before_any_model(monkeypatch, backend):
    def never(*args, **kwargs):
        raise AssertionError("a model or table was built for bad weights")

    monkeypatch.setattr(formulation, "build_model", never)
    monkeypatch.setattr(formulation.oracle_mod, "exhaustive_synthesize", never)
    gs = gs1("H", "T")
    for bad in (float("nan"), float("inf"), -1.0, 1e20, 1e300):
        w = np.ones(len(gs))
        w[gs.index_of("T")] = bad
        with pytest.raises(ConfigError, match=r"weight of gate T\[1\]"):
            synthesize(SynthesisProblem(builtin_gate("S"), gs, P=3, weights=w),
                       backend=backend)


@pytest.mark.filterwarnings("ignore:.*normalized to unit determinant")
@pytest.mark.parametrize("backend", ["scipy", "oracle"])
def test_weights_just_below_the_cap_solve(backend):
    gs = gs1("H", "T")
    w = np.ones(len(gs))
    w[gs.index_of("T")] = 0.999 * formulation.WEIGHT_CAP
    r = synthesize(SynthesisProblem(builtin_gate("S"), gs, P=3, weights=w),
                   backend=backend)
    assert r.status == "optimal" and [g.name for g in r.sequence] == ["T", "T"]
    assert r.objective_value == pytest.approx(2 * w[gs.index_of("T")])


def test_certificate_records_the_solver_time_limit():
    p = SynthesisProblem(builtin_gate("S"), gs1("H", "T"), P=2,
                         phase_mode="global_phase")
    left = synthesize(p, backend="scipy", time_limit=5).certificate["solver_time_limit"]
    assert 0 < left <= 5
    assert synthesize(p, backend="scipy").certificate["solver_time_limit"] is None


@pytest.mark.parametrize("backend", ["scipy", "oracle"])
def test_pure_phase_gate_fails_clearly_in_exact_mode(backend):
    # i*I normalizes to I in exact mode: a second identity
    gs = GateSet.from_specs(1, [gate_spec("H", (1,)),
                                gate_spec("W", (1,), matrix=1j * np.eye(2))])
    p = SynthesisProblem(builtin_gate("H"), gs, P=2)
    with pytest.raises(ConfigError, match=r"gate W\[1\] is a pure phase"):
        synthesize(p, backend=backend)
    r = synthesize(replace(p, phase_mode="global_phase"), backend=backend)
    assert r.status == "optimal" and [s.name for s in r.sequence] == ["H"]


def test_time_limit_covers_the_model_build(monkeypatch):
    import scipy.optimize

    build = formulation.build_model

    def slow_build(problem):
        time.sleep(0.3)
        return build(problem)

    def no_milp(*args, **kwargs):
        raise AssertionError("HiGHS ran with no time left")

    monkeypatch.setattr(formulation, "build_model", slow_build)
    monkeypatch.setattr(scipy.optimize, "milp", no_milp)
    p = SynthesisProblem(builtin_gate("S"), gs1("H", "T"), P=2,
                         phase_mode="global_phase")
    r = synthesize(p, backend="scipy", time_limit=0.2)
    assert r.status == "time_limit" and r.sequence == []
    assert r.certificate["status"] == "time_limit"


TWO_QUBIT_GATES = tuple((n, (q,)) for n in ("H", "T", "S", "X") for q in (1, 2)) + (
    ("CNOT", (1, 2)), ("CNOT", (2, 1)), ("CZ", (1, 2)))


@pytest.mark.parametrize("objective", ["depth", "weighted_gate_count"])
@settings(max_examples=30, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_mip_and_oracle_agree_on_two_qubit_words(objective, data):
    """Differential check on two-qubit libraries: same status and optimum.

    The library holds 2-3 gates on a two-qubit register, so layers can hold
    two gates; the target is a random word at most one gate longer than P.
    Gate counts are weighted, with zero and tied weights drawn.
    """
    picks = data.draw(st.lists(st.sampled_from(TWO_QUBIT_GATES), min_size=2,
                               max_size=3, unique=True), label="library")
    gs = GateSet.from_specs(2, [gate_spec(n, q) for n, q in picks])
    P = data.draw(st.integers(1, 3), label="P")
    word = data.draw(st.lists(st.sampled_from(gs.non_identity_indices()),
                              max_size=P + 1), label="word")
    weights = None
    if objective == "weighted_gate_count":
        weights = data.draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.5]),
                                     min_size=len(gs), max_size=len(gs)), label="weights")
    target = sequence_product(gs.matrices()[word], gs.dim)
    for mode in PHASE_MODES:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            p = SynthesisProblem(target, gs, P, objective=objective, weights=weights,
                                 phase_mode=mode)
            milp = synthesize(p, backend="scipy")
            brute = synthesize(p, backend="oracle")
        assert milp.status == brute.status, mode
        assert milp.status in ("optimal", "infeasible"), mode
        if not milp.feasible:
            continue
        if objective == "depth":
            assert milp.depth == brute.depth, mode
            assert milp.objective_value == brute.objective_value == milp.depth, mode
        else:
            assert milp.objective_value == pytest.approx(brute.objective_value,
                                                         abs=1e-6), mode


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_mip_and_oracle_agree_on_random_unitaries(data):
    """Differential check on Haar-random targets: same status and optimum.

    The target is a seeded Haar-random one- or two-qubit unitary, a dense
    matrix that no word over the drawn library reaches, so the backward
    chain starts from data with no zero entry.  Half the draws add a dense
    gate U = T W^dag for a random word W of at most P - 1 library gates,
    which makes the target reachable in at most |W| + 1 gates.
    """
    num_qubits = data.draw(st.integers(1, 2), label="qubits")
    if num_qubits == 1:
        picks = [(n, (1,)) for n in data.draw(st.lists(
            st.sampled_from(ONE_QUBIT_GATES), min_size=1, max_size=3, unique=True),
            label="library")]
    else:
        picks = data.draw(st.lists(st.sampled_from(TWO_QUBIT_GATES), min_size=2,
                                   max_size=3, unique=True), label="library")
    seed = data.draw(st.integers(0, 2 ** 32 - 1), label="seed")
    target = random_unitary(2 ** num_qubits, np.random.default_rng(seed))
    specs = [gate_spec(n, q) for n, q in picks]
    P = data.draw(st.integers(1, 4), label="P")
    if data.draw(st.booleans(), label="reachable"):
        lib = GateSet.from_specs(num_qubits, specs)
        word = data.draw(st.lists(st.sampled_from(lib.non_identity_indices()),
                                  max_size=P - 1), label="word")
        w = sequence_product(lib.matrices()[word], lib.dim)
        specs.append(gate_spec("U", tuple(range(1, num_qubits + 1)),
                               matrix=target @ w.conj().T))
    gs = GateSet.from_specs(num_qubits, specs)
    objective = data.draw(st.sampled_from(TARGET_OBJECTIVES), label="objective")
    for mode in PHASE_MODES:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            p = SynthesisProblem(target, gs, P, objective=objective, phase_mode=mode)
            milp = synthesize(p, backend="scipy")
            brute = synthesize(p, backend="oracle")
        assert milp.status == brute.status, mode
        assert milp.status in ("optimal", "infeasible"), mode
        if milp.feasible:
            assert milp.objective_value == pytest.approx(brute.objective_value,
                                                         abs=1e-6), mode
            assert milp.fidelity_to_target == pytest.approx(1.0, abs=1e-9), mode


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_fidelity_objectives_agree_with_search_on_random_libraries(data):
    """Differential check of the forward chain and its span rows.

    A seeded library of 1-3 random one-qubit gates, special (SU(2), where
    the span rows bite) or not.  Linearized fidelity must reach the
    oracle's alpha.  The Frobenius model must be feasible exactly when some
    word of at most P gates lies in the epsilon-box, and its optimum must be
    the least squared error over those words, both by enumeration.  The
    oracle route must be feasible just as often, with the same error.
    """
    seed = data.draw(st.integers(0, 2 ** 32 - 1), label="seed")
    size = data.draw(st.integers(1, 3), label="gates")
    special = data.draw(st.booleans(), label="special")
    P = data.draw(st.integers(1, 4), label="P")
    rng = np.random.default_rng(seed)
    mats = [random_unitary(2, rng) for _ in range(size)]
    gs = GateSet.from_specs(1, [
        gate_spec(f"U{k}", (1,), matrix=su_normalize(u) if special else u)
        for k, u in enumerate(mats)])
    target = random_unitary(2, rng)

    p = SynthesisProblem(target, gs, P, objective="linearized_fidelity")
    milp = synthesize(p, backend="scipy")
    brute = synthesize(p, backend="oracle")
    assert milp.status == brute.status == "optimal"
    # HiGHS stops within its relative gap of the optimum
    assert milp.alpha == pytest.approx(brute.alpha, abs=DEFAULT_GAP_TOL)

    eps = data.draw(st.sampled_from([0.5, 1.0]), label="epsilon")
    p = SynthesisProblem(target, gs, P, objective="frobenius_oa", epsilon=eps, K=5)
    milp = synthesize(p, backend="scipy")
    brute = synthesize(p, backend="oracle")
    errors = []
    for word in itertools.product(range(len(gs)), repeat=P):
        d = sequence_product(gs.matrices()[list(word)], gs.dim) - target
        dev = np.stack([d.real, d.imag])
        if np.abs(dev).max() <= eps:
            errors.append(2.0 * np.sum(dev ** 2))
    assert milp.feasible == brute.feasible == bool(errors)
    if errors:
        assert milp.objective_value == pytest.approx(min(errors), rel=DEFAULT_GAP_TOL,
                                                     abs=DEFAULT_GAP_TOL)
        assert milp.error_fro_sq == pytest.approx(brute.error_fro_sq,
                                                  abs=DEFAULT_GAP_TOL)
        assert brute.error_fro_sq == pytest.approx(min(errors), abs=1e-9)
        assert brute.objective_value == brute.error_fro_sq


# T on the weave library, P=2, maximising alpha: the true optimum.
WEAVE_T_ALPHA = 0.8535533905932737


def solved_weave_t(cuts: str = "hc"):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        p = SynthesisProblem(builtin_gate("T"), weave_gate_set(), P=2,
                             objective="linearized_fidelity",
                             cuts=CutSelection.from_names(cuts))
        m, h = build_model(p)
    sol = get_backend("scipy").solve(m)
    assert sol.status == "optimal"
    return p, m, h, sol


def reclaim(model, sol, x):
    """The solution as if the solver had returned point x."""
    sol.x = x
    sol.objective = model.objective_value(x)
    return sol


def test_verification_accepts_alpha_row_slop():
    # HiGHS may satisfy the alpha-defining row only to its 1e-6 feasibility
    # tolerance and report the inflated alpha; the answer is still right.
    p, m, h, sol = solved_weave_t()
    x = sol.x.copy()
    x[h.alpha] += 1e-6
    r = extract_and_verify(p, m, h, reclaim(m, sol, x))
    assert r.objective_value == pytest.approx(WEAVE_T_ALPHA, abs=1e-12)
    assert r.alpha == pytest.approx(WEAVE_T_ALPHA, abs=1e-12)
    assert r.certificate["gap_tol"] == DEFAULT_GAP_TOL
    assert r.certificate["claim_discrepancy"] == pytest.approx(
        x[h.alpha] - r.objective_value, abs=1e-12)
    assert r.certificate["claim_discrepancy"] >= 1e-6 - 1e-12


def test_polished_point_satisfies_every_row():
    """Every row holds at the polished point, on both halves of the chain.

    The forward-only chain of a fidelity objective holds to 1e-12.  Under
    a target the solver runs with z fixed to a word of P gates whose
    product is the target, so the point carries its hc2 product binaries;
    polishing it must satisfy the forward and backward copy steps and the
    link between them within POLISH_TOL, and the rows tied to the target
    within DATA_TOL.
    """
    p, m, h, sol = solved_weave_t()
    xp, chosen = polish_point(p, m, h, sol.x)
    assert max(m.check_point(xp).values()) <= 1e-12
    assert xp[h.alpha] == pytest.approx(WEAVE_T_ALPHA, abs=1e-12)
    assert len(chosen) == p.P

    gs = gs1("H", "T")
    h1, t1 = gs.index_of("H", (1,)), gs.index_of("T", (1,))
    # unit-determinant gates keep the word feasible in exact mode too
    mats = np.stack([su_normalize(u) for u in gs.matrices()])
    for P, mode, objective in itertools.product(range(1, 6), PHASE_MODES,
                                                TARGET_OBJECTIVES):
        word = [h1, t1, t1, h1, t1][:P]
        target = sequence_product(mats[word], gs.dim)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            p = SynthesisProblem(target, gs, P, phase_mode=mode, objective=objective,
                                 cuts=CutSelection.from_names("identity,hc"))
            m, h = build_model(p)
        for pos, chosen in enumerate(word):
            for g in range(len(gs)):
                m.fix_var(int(h.z[g, pos]), 1.0 if g == chosen else 0.0)
        sol = get_backend("scipy").solve(m)
        assert sol.status == "optimal", (P, mode, objective)
        xp, chosen = polish_point(p, m, h, sol.x)
        assert chosen == word
        viol = m.check_point(xp)
        assert "target" in viol
        assert ("disjunctive" in viol) == (P > 2 or mode != "exact")
        for fam, worst in viol.items():
            tol = DATA_TOL if fam in DATA_FAMILIES else POLISH_TOL
            assert worst <= tol, (P, mode, objective, fam, worst)


def test_verification_rejects_inflated_alpha():
    p, m, h, sol = solved_weave_t()
    x = sol.x.copy()
    x[h.alpha] += 10 * DEFAULT_GAP_TOL
    with pytest.raises(ModelIntegrityError, match="claims objective"):
        extract_and_verify(p, m, h, reclaim(m, sol, x))


def test_verification_rejects_worse_circuit_under_same_claim():
    p, m, h, sol = solved_weave_t()
    mats = p.gate_set.matrices()
    worst = int(np.argmin([np.vdot(p.target, u).real for u in mats]))
    x = sol.x.copy()
    x[h.z] = 0.0
    x[h.z[worst, 0]] = 1.0
    x[h.z[p.gate_set.identity_index, 1]] = 1.0
    sol.x = x  # the claimed objective stays the optimum's
    with pytest.raises(ModelIntegrityError, match="claims objective"):
        extract_and_verify(p, m, h, sol)


def test_verification_rejects_fractional_selection():
    p, m, h, sol = solved_weave_t()
    x = sol.x.copy()
    x[h.z[:, 0]] = 0.0
    x[h.z[1, 0]] = x[h.z[2, 0]] = 0.5
    with pytest.raises(ModelIntegrityError, match="integer variable z"):
        extract_and_verify(p, m, h, reclaim(m, sol, x))


def test_verification_rejects_circuit_that_misses_the_target():
    with pytest.warns(UserWarning, match="unit determinant"):
        p = SynthesisProblem(builtin_gate("S"), gs1("H", "T"), P=2)
        m, h = build_model(p)
    sol = get_backend("scipy").solve(m)
    hadamard = [p.gate_set.label(g) for g in range(len(p.gate_set))].index("H[1]")
    x = sol.x.copy()
    x[h.z] = 0.0
    x[h.z[hadamard]] = 1.0  # H.H: the same gate count, but not S
    with pytest.raises(ModelIntegrityError, match="misses the target rows"):
        extract_and_verify(p, m, h, reclaim(m, sol, x))
