"""Model assembly and the end-to-end synthesis driver on small instances."""

import warnings

import numpy as np
import pytest

from mipsynth import formulation
from mipsynth.cuts import CutSelection
from mipsynth.encoding import alpha_beta, encode_real
from mipsynth.errors import (ConfigError, DimensionError, ModelIntegrityError,
                             UnitarityError)
from mipsynth.fixtures import oracle_corpus
from mipsynth.formulation import (OBJECTIVES, PHASE_MODES, TARGET_OBJECTIVES,
                                  SynthesisProblem, build_base, build_model,
                                  effective_instance, extract_and_verify,
                                  polish_point, schedule_depth, synthesize)
from mipsynth.gates import (GateSet, builtin_gate, extend_gate, gate_spec,
                            weave_gate_set)
from mipsynth.solvers import DEFAULT_GAP_TOL, get_backend


def gs1(*names: str) -> GateSet:
    return GateSet.from_specs(1, [gate_spec(n, (1,)) for n in names])


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
    with pytest.raises(ConfigError):
        SynthesisProblem(t, gs, P=2, K=1)
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
    (eff_t, eff_g, su), warned = su_warned(
        lambda: effective_instance(SynthesisProblem(t, gs, P=2)))
    assert su and warned
    assert np.linalg.det(eff_t) == pytest.approx(1.0, abs=1e-12)
    assert all(abs(np.linalg.det(m) - 1) < 1e-12 for m in eff_g)

    (eff_t, eff_g, su), warned = su_warned(lambda: effective_instance(
        SynthesisProblem(t, gs, P=2, phase_mode="global_phase")))
    assert not su and not warned and np.array_equal(eff_t, t)

    (eff_t, _, su), warned = su_warned(lambda: effective_instance(
        SynthesisProblem(t, gs, P=2, objective="linearized_fidelity")))
    assert not su and not warned and np.array_equal(eff_t, t)

    # an already-special instance is left alone, quietly
    rz = GateSet.from_specs(1, [gate_spec("RZ", (1,), angle=0.7)])
    (eff_t, _, su), warned = su_warned(lambda: effective_instance(
        SynthesisProblem(builtin_gate("RZ", 0.3), rz, P=2)))
    assert su and not warned


def test_build_base_counts():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        p2 = SynthesisProblem(builtin_gate("T"), weave_gate_set(), P=2,
                              objective="linearized_fidelity")
        m, h = build_base(p2)
    # z: 5*2, Ghat: 2*16, V: 1*5*16
    assert m.num_vars == 10 + 32 + 80
    assert m.family_rows == {"one_hot": 2, "cumulative": 32, "mccormick": 320}
    assert h.z.shape == (5, 2) and h.ghat.shape == (2, 4, 4)
    assert h.v.shape == (3, 5, 4, 4)

    p1 = SynthesisProblem(builtin_gate("T"), weave_gate_set(), P=1,
                          objective="linearized_fidelity")
    m, h = build_base(p1)
    assert m.num_vars == 5 + 16 and h.v is None
    assert m.family_rows == {"one_hot": 1, "cumulative": 16}


def test_full_model_adds_objective_and_cuts():
    p = SynthesisProblem(builtin_gate("T"), weave_gate_set(), P=2,
                         objective="linearized_fidelity")
    m, _ = build_model(p)
    assert m.family_rows["objective"] == 1
    assert m.family_rows["cut_identity_symmetry"] == 1


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
    assert r.certificate["row_families"]["mccormick"] == 4 * 1 * 3 * 16
    assert r.certificate["presolve_retry"] is False


def test_exact_solve_infeasible():
    with pytest.warns(UserWarning, match="unit determinant"):
        p = SynthesisProblem(builtin_gate("Sdg"), gs1("T"), P=2)
        r = synthesize(p, backend="scipy")
    assert r.status == "infeasible" and not r.feasible
    assert r.sequence == [] and r.objective_value is None
    assert r.certificate["status"] == "infeasible"
    assert r.certificate["presolve_retry"] is True


def test_global_phase_solve():
    p = SynthesisProblem(builtin_gate("X"), gs1("H", "Z"), P=3,
                         phase_mode="global_phase")
    r = synthesize(p, backend="scipy")
    assert r.status == "optimal"
    assert [s.name for s in r.sequence] == ["H", "Z", "H"]
    assert r.fidelity_to_target == pytest.approx(1.0, abs=1e-9)
    assert r.phase_factor == pytest.approx(1.0 + 0.0j, abs=1e-6)


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


def test_depth_identity_shortcut():
    p = SynthesisProblem(np.eye(2), gs1("H", "T"), P=3, objective="depth")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        r = synthesize(p, backend="scipy")
    assert r.status == "optimal" and r.objective_value == 0.0
    assert r.depth == 0 and r.sequence == []


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
    # piecewise rows only underestimate the squared error
    assert r.objective_value <= r.error_fro_sq + 1e-9
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
    assert schedule_depth([], 3) == (0, {})
    depth, sched = schedule_depth([(1,), (2,), (1, 2)], 2)
    assert depth == 2 and sched == {1: 1, 2: 1, 3: 2}
    depth, sched = schedule_depth([(1,), (1, 2), (2,)], 2)
    assert depth == 3 and sched == {1: 1, 2: 2, 3: 3}
    # empty-support entries ride along in the current layer
    depth, sched = schedule_depth([(1,), (), (2,)], 2)
    assert depth == 1 and sched == {1: 1, 2: 1, 3: 1}
    specs = [gate_spec("CNOT", (1, 3)), gate_spec("H", (3,))]
    assert schedule_depth([s.qubits for s in specs], 3)[0] == 2
    # a gate's support counts, not its declared qubits
    gs = GateSet.from_specs(2, [gate_spec("H", (2,))])
    h2 = gs[gs.index_of("H", (2,))]
    h_on_1 = extend_gate(gate_spec("HI", (1, 2), matrix=np.kron(
        builtin_gate("H"), np.eye(2))), 2)
    assert h_on_1.support == {1} and schedule_depth([h_on_1, h2], 2)[0] == 1


@pytest.mark.parametrize("phase_mode", PHASE_MODES)
@pytest.mark.parametrize("name", ["t2_s", "hh_i", "y_from_xz", "rz2", "w1w2"])
def test_mip_and_oracle_verify_alike(name, phase_mode):
    fx = next(f for f in oracle_corpus() if f.name == name)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        p = SynthesisProblem(fx.target, fx.gate_set, fx.P, phase_mode=phase_mode)
        milp = synthesize(p, backend="scipy")
        brute = synthesize(p, backend="oracle")
    assert milp.status == brute.status == "optimal"
    assert milp.gate_indices == brute.gate_indices
    for f in ("fidelity_to_target", "alpha", "beta", "error_fro_sq"):
        assert abs(getattr(milp, f) - getattr(brute, f)) <= 1e-9, f
    if phase_mode == "exact":
        assert milp.phase_factor is None and brute.phase_factor is None
    else:
        assert abs(milp.phase_factor - brute.phase_factor) <= 1e-9
    assert milp.depth == brute.depth
    assert milp.depth_schedule == brute.depth_schedule


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
    p, m, h, sol = solved_weave_t()
    xp, chosen = polish_point(p, m, h, sol.x)
    assert m.check_point(xp) <= 1e-12
    assert xp[h.alpha] == pytest.approx(WEAVE_T_ALPHA, abs=1e-12)
    assert len(chosen) == p.P


def test_verification_rejects_inflated_alpha():
    p, m, h, sol = solved_weave_t()
    x = sol.x.copy()
    x[h.alpha] += 10 * DEFAULT_GAP_TOL
    with pytest.raises(ModelIntegrityError, match="claims objective"):
        extract_and_verify(p, m, h, reclaim(m, sol, x))


def test_verification_rejects_worse_circuit_under_same_claim():
    p, m, h, sol = solved_weave_t()
    mats = p.gate_set.matrices()
    worst = int(np.argmin([alpha_beta(encode_real(u), p.target)[0] for u in mats]))
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
