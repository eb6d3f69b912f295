"""End-to-end acceptance checks, one test per contract item.

Each test is a self-contained pass/fail line under `pytest -v`.  Values
marked as frozen below were produced by the exhaustive-search oracle or by
closed-form references in this repository and cross-checked against the
scipy MILP backend before being pinned.
"""

import itertools
import time
import warnings

import numpy as np
import pytest

from mipsynth.cli import main as cli_main
from mipsynth.cli import circuit_doc
from mipsynth.cuts import CutSelection
from mipsynth.encoding import (alpha_beta, decode_complex, encode_real,
                               fidelity, j_matrix, trace_parts)
from mipsynth.fixtures import (brickwork_circuit, criterion_phase_instance,
                               depth_corpus, golden_weave_circuit,
                               k4_parity_seed, k5_parity_seed, oracle_corpus)
from mipsynth.formulation import SynthesisProblem, synthesize
from mipsynth.gates import builtin_gate, weave_gate_set
from mipsynth.mip import MipModel
from mipsynth.rho import RhoConfig, find_first_block, rolling_horizon

from util import SEED, beta_interval, random_complex, random_unitary

pytestmark = pytest.mark.filterwarnings("ignore:exact phase mode")


def _count(result):
    return None if not result.feasible else round(result.objective_value)


def _solve_counts(fixture, mode, backend, **kw):
    p = SynthesisProblem(target=fixture.target, gate_set=fixture.gate_set,
                         P=fixture.P, phase_mode=mode, **kw)
    return synthesize(p, backend=backend)


def test_criterion_01_encoding_algebra(rng):
    t0 = time.perf_counter()
    worst = 0.0
    checked = 0
    for dim in range(1, 9):
        for _ in range(25):
            u = random_unitary(dim, rng)
            a = random_complex(dim, rng)
            b = random_complex(dim, rng)
            ra, rb, ru = encode_real(a), encode_real(b), encode_real(u)
            worst = max(worst, np.abs(encode_real(a @ b) - ra @ rb).max())
            worst = max(worst, np.abs(encode_real(a.conj().T) - ra.T).max())
            det_want = abs(np.linalg.det(a)) ** 2
            det_got = np.linalg.det(ra)
            worst = max(worst, abs(det_got - det_want) / max(1.0, det_want))
            tr_re, tr_im = trace_parts(ra)
            tr = np.trace(a)
            worst = max(worst, abs(tr_re - tr.real), abs(tr_im - tr.imag))
            worst = max(worst, np.abs(decode_complex(ra) - a).max())
            worst = max(worst, np.abs(ru.T @ ru - np.eye(2 * dim)).max())
            j = j_matrix(dim)
            worst = max(worst, np.abs(encode_real(1j * a) - j @ ra).max())
            checked += 1
    wall = time.perf_counter() - t0
    assert checked == 200
    assert worst <= 1e-10, f"encoding algebra drift {worst:.3e}"
    assert wall < 5.0, f"encoding property sweep took {wall:.1f}s"


def test_criterion_02_mccormick_exactness():
    for u in (1.0, 0.5, 2.0):
        m = MipModel()
        beta = m.add_var("beta", -u, u)
        x = m.add_var("x", -u, u)
        z = m.add_binary("z")
        m.add_mccormick(beta, x, z, bound=u)
        grid = np.concatenate([np.linspace(-u, u, 41), [-u, u, 0.0]])
        for zv in (0.0, 1.0):
            for xv in grid:
                lo, hi = beta_interval(m, beta, {x: float(xv), z: zv})
                want = zv * float(xv)
                assert abs(lo - want) <= 1e-12, (u, zv, xv, lo)
                assert abs(hi - want) <= 1e-12, (u, zv, xv, hi)


# fixture:mode -> provably optimal gate count (None = infeasible), frozen
# from the exhaustive oracle and matched by the scipy MILP
EXACT_COUNTS = {
    "t2_s": 2, "t4_z": 4, "s3_sdg": None, "x_hzh": None, "x_parity5": 5,
    "h_direct": 1, "hh_i": 0, "y_from_xz": 2, "rz2": 2, "ht_gp": None,
    "w1w2": 2, "w1_square": 2, "w1_inverse": 1, "hch_cz": 3,
    "ct_reversal": 5, "swap_3cnot": None, "cz_direct": 1, "x2_parallel": 2,
    "t_commute": 2, "z_xy": None, "magic_small": None, "iswap_small": None,
}
PHASE_COUNTS = {
    **{k: v for k, v in EXACT_COUNTS.items()},
    "s3_sdg": 3, "x_hzh": 3, "x_parity5": 3, "ht_gp": 3, "swap_3cnot": 3,
    "z_xy": 2, "magic_small": 4, "iswap_small": 4,
}


def test_criterion_03_oracle_equivalence():
    t0 = time.perf_counter()
    corpus = oracle_corpus()
    assert len(corpus) >= 20
    frozen = {"exact": EXACT_COUNTS, "global_phase": PHASE_COUNTS}
    for f in corpus:
        for mode in ("exact", "global_phase"):
            milp = _solve_counts(f, mode, "scipy")
            brute = _solve_counts(f, mode, "oracle")
            assert milp.feasible == brute.feasible, (f.name, mode)
            assert _count(milp) == _count(brute), (f.name, mode)
            assert _count(milp) == frozen[mode][f.name], (f.name, mode)
            if milp.feasible:
                assert milp.fidelity_to_target == pytest.approx(1.0, abs=1e-9)
    wall = time.perf_counter() - t0
    assert wall < 600.0, f"corpus sweep took {wall:.1f}s"


# measured per-solve cost on the two-ended chain (HiGHS, 1 BLAS thread,
# 2 vCPUs) keeps two pairs out of the 32-subset sweep: iswap_small takes
# 2.1 s (exact) and 2.2 s (global phase) per solve on average over the 32
# subsets, up to 4.6 and 5.3 s, about 140 s together; magic_small exact,
# 0.09 s on average and 0.8 s at most, is in the sweep.  The two left out
# are covered with the default cuts by the equivalence sweep above
SLOW_PAIRS = {("iswap_small", "exact"), ("iswap_small", "global_phase")}
FAMILY_TOKENS = ("identity", "commuting", "equivalent", "redundancy", "hc")


def test_criterion_04_cut_soundness():
    pairs = [(f, mode) for f in oracle_corpus()
             for mode in ("exact", "global_phase")
             if (f.name, mode) not in SLOW_PAIRS]
    subset_seconds: dict[tuple, float] = {}
    base: dict[tuple, tuple] = {}
    for bits in itertools.product((False, True), repeat=len(FAMILY_TOKENS)):
        names = [t for t, on in zip(FAMILY_TOKENS, bits) if on]
        sel = CutSelection.from_names(names or "none")
        times = []
        for f, mode in pairs:
            t0 = time.perf_counter()
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                r = _solve_counts(f, mode, "scipy", cuts=sel)
            times.append(time.perf_counter() - t0)
            key = (f.name, mode)
            if not any(bits):
                base[key] = (r.status, r.objective_value)
                continue
            b_status, b_obj = base[key]
            assert r.status == b_status, (key, names)
            if r.feasible:
                assert r.objective_value == pytest.approx(b_obj, abs=1e-6), \
                    (key, names)
        subset_seconds[bits] = float(np.median(times))
    best = min(subset_seconds.values())
    assert best <= subset_seconds[(False,) * 5], \
        f"no cut subset matched the base median {subset_seconds[(False,) * 5]:.4f}s"


def test_criterion_05_global_phase_semantics():
    f = criterion_phase_instance()
    gp = SynthesisProblem(f.target, f.gate_set, P=f.P, phase_mode="global_phase")
    r = synthesize(gp, backend="scipy")
    assert r.status == "optimal"
    assert r.objective_value == pytest.approx(3.0)
    assert abs(r.phase_factor) ** 2 == pytest.approx(1.0, abs=1e-6)
    assert r.fidelity_to_target == pytest.approx(1.0, abs=1e-9)
    exact = SynthesisProblem(f.target, f.gate_set, P=f.P, phase_mode="exact")
    assert synthesize(exact, backend="scipy").status == "infeasible"
    brute = synthesize(gp, backend="oracle")
    assert brute.objective_value == pytest.approx(3.0)
    assert abs(brute.phase_factor) ** 2 == pytest.approx(1.0, abs=1e-6)


DEPTHS = {"remark2": 2, "remark2_pad": 2, "chain_w3": 3, "chain_w4": 4,
          "parallel_tt": 1, "cz_h_depth": 2, "identity_depth": 0}


def test_criterion_06_depth_optimization():
    t0 = time.perf_counter()
    for f in depth_corpus():
        for mode in ("exact", "global_phase"):
            milp = _solve_counts(f, mode, "scipy", objective="depth")
            brute = _solve_counts(f, mode, "oracle", objective="depth")
            assert milp.status == brute.status == "optimal", (f.name, mode)
            assert _count(milp) == _count(brute) == DEPTHS[f.name], (f.name, mode)
            if f.name == "remark2":
                # certified, not just found: bound meets the optimum
                assert milp.certificate["bound"] == pytest.approx(2.0, abs=1e-6)
    wall = time.perf_counter() - t0
    assert wall < 300.0, f"depth sweep took {wall:.1f}s"


GOLDEN_FIDELITIES = {"H": 0.999957, "X": 0.999990, "T": 0.999917}


def test_criterion_07_golden_weave_fidelities(tmp_path, capsys):
    total = 0.0
    for name, want in GOLDEN_FIDELITIES.items():
        circ = golden_weave_circuit(name)
        cpath = tmp_path / f"weave_{name.lower()}.json"
        rpath = tmp_path / f"verify_{name.lower()}.json"
        import json
        cpath.write_text(json.dumps(circuit_doc(circ, 1)))
        t0 = time.perf_counter()
        code = cli_main(["verify", str(cpath), "--target", name,
                         "--report", str(rpath), "--quiet"])
        total += time.perf_counter() - t0
        capsys.readouterr()
        assert code == 0
        got = json.loads(rpath.read_text())["fidelity"]
        assert abs(got - want) <= 1e-6, (name, got)
    assert total < 1.0, f"verification took {total:.2f}s"


def test_criterion_08_approximate_objectives():
    gs = weave_gate_set()
    mats = [gs[i].full for i in gs.non_identity_indices()]

    def brute_alpha(t, P):
        best = 0.5 * np.trace(t.conj().T @ np.eye(2)).real
        for m in range(1, P + 1):
            for seq in itertools.product(mats, repeat=m):
                u = np.eye(2, dtype=complex)
                for g in seq:
                    u = u @ g
                best = max(best, 0.5 * np.trace(t.conj().T @ u).real)
        return best

    for name in ("H", "X", "T"):
        t = builtin_gate(name)
        for P in (3, 5):
            r = synthesize(SynthesisProblem(t, gs, P=P,
                                            objective="linearized_fidelity"),
                           backend="scipy")
            assert r.status == "optimal"
            assert abs(r.alpha - brute_alpha(t, P)) <= 1e-8, (name, P)

    feasible_seen = 0
    for name in ("H", "X", "T"):
        t = builtin_gate(name)
        for P in (2, 3):
            r = synthesize(SynthesisProblem(t, gs, P=P, objective="frobenius_oa",
                                            epsilon=1.0, K=5), backend="scipy")
            if not r.feasible:
                continue
            feasible_seen += 1
            assert r.objective_value <= r.error_fro_sq + 1e-9, (name, P)
            lb = max(0.0, 1.0 - r.error_fro_sq / 8.0) ** 2
            assert r.fidelity_to_target >= lb - 1e-8, (name, P)
            assert abs(r.error_fro_sq - 8.0 * (1.0 - r.alpha)) <= 1e-8, (name, P)
    assert feasible_seen >= 5


def test_criterion_09_rho_savings():
    """Window rewriting on the parity seeds, with oracle-backed windows.

    The 4-qubit windows of the 5-qubit seed are beyond the scipy MILP
    backend within any 30-minute budget (a single first-window model, 21
    gates at P=10, produced no incumbent under a 240 s solver cap and 399 s
    of wall time), so the gate-count bound is asserted on the 4-qubit seed
    while the 5-qubit seed must still be preserved semantically at full
    scale.  Frozen 5-qubit trajectory here: 50 -> 39 -> 36 (fixpoint).
    """
    cfg = RhoConfig(window_length=10, accept_window=5, max_qubits=4,
                    window_gates=("CNOT", "H", "S"), backend="oracle")

    k4 = rolling_horizon(k4_parity_seed(), cfg)
    assert k4.fidelity_to_input == pytest.approx(1.0, abs=1e-9)
    assert k4.pass_lengths[0] == 20
    assert k4.pass_lengths[1] <= 16  # >= 4 gates saved in the first pass
    assert all(b <= a for a, b in zip(k4.pass_lengths, k4.pass_lengths[1:]))

    k5 = rolling_horizon(k5_parity_seed(), cfg)
    assert k5.fidelity_to_input == pytest.approx(1.0, abs=1e-9)
    assert k5.pass_lengths[0] == 50
    assert all(b <= a for a, b in zip(k5.pass_lengths, k5.pass_lengths[1:]))
    assert k5.pass_lengths[1] <= 39
    assert len(k5.circuit) <= 36


def test_criterion_10_rho_window_walkthrough():
    bw = brickwork_circuit()
    idx = find_first_block(bw, 12, 4)
    assert len(idx) == 11
    qubits = {q for p in idx for q in bw[p].qubits}
    assert len(qubits) <= 4
    # closure: nothing before the block's end touches its qubits from outside
    outside = [p for p in range(max(idx) + 1) if p not in idx]
    assert all(not (set(bw[p].qubits) & qubits) for p in outside)
