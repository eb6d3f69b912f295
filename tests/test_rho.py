"""Rolling-horizon rewriting: block extraction, windows, and whole runs."""

import numpy as np
import pytest
from scipy.linalg import expm

from mipsynth.encoding import fidelity
from mipsynth.errors import BackendError, ConfigError
from mipsynth.fixtures import brickwork_circuit, k4_parity_seed, k5_parity_seed
from mipsynth.gates import MAX_QUBITS, GateSpec, gate_spec
from mipsynth import rho as rho_mod
from mipsynth.rho import (RhoConfig, RhoResult, circuit_qubits,
                          circuit_unitary, find_first_block, retarget,
                          rolling_horizon, rolling_horizon_pass,
                          window_gate_set)

from util import SEED


def _triples(circuit):
    return [(g.name, g.qubits, g.angle) for g in circuit]


def parity_ladder_zzz(theta: float, qubits: tuple[int, int, int]) -> list[GateSpec]:
    """Three-body parity phase: CNOTs fold the parity onto the last wire,
    a Z rotation applies the phase, and the CNOTs unfold."""
    a, b, c = qubits
    return [
        gate_spec("CNOT", (a, c)),
        gate_spec("CNOT", (b, c)),
        gate_spec("RZ", (c,), angle=theta),
        gate_spec("CNOT", (b, c)),
        gate_spec("CNOT", (a, c)),
    ]


def test_circuit_unitary_order():
    circ = [gate_spec("H", (1,)), gate_spec("CNOT", (1, 2))]
    h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    want = np.kron(h, np.eye(2)) @ np.eye(4)[:, [0, 1, 3, 2]]
    assert np.abs(circuit_unitary(circ) - want).max() <= 1e-14
    assert circuit_qubits(circ) == 2
    assert circuit_qubits([]) == 0
    # explicit register padding
    assert circuit_unitary(circ, 3).shape == (8, 8)


def _closed(circuit, idx):
    qs = {q for p in idx for q in circuit[p].qubits}
    prefix = max(idx) + 1
    outside = [p for p in range(prefix) if p not in idx]
    return all(qs.isdisjoint(circuit[p].qubits) for p in outside)


def test_find_first_block_brickwork():
    bw = brickwork_circuit()
    idx = find_first_block(bw, 12, 4)
    assert idx == [0, 1, 2, 3, 7, 8, 10, 11, 12, 13, 17]
    assert _closed(bw, idx)
    small = find_first_block(bw, 5, 3)
    assert small == [0, 1, 7, 10, 11] and _closed(bw, small)
    assert find_first_block([], 5, 3) == []
    # a first gate that alone busts the qubit budget still moves the scan
    wide = [gate_spec("CNOT", (1, 2)), gate_spec("H", (3,))]
    assert find_first_block(wide, 5, 1) == [0]


def test_find_first_block_random_closure():
    rng = np.random.default_rng(SEED)
    for _ in range(40):
        n = int(rng.integers(4, 30))
        circ = []
        for _k in range(n):
            if rng.random() < 0.5:
                circ.append(gate_spec("H", (int(rng.integers(1, 7)),)))
            else:
                a, b = rng.choice(np.arange(1, 7), size=2, replace=False)
                circ.append(gate_spec("CNOT", (int(a), int(b))))
        wl = int(rng.integers(1, 8))
        mq = int(rng.integers(1, 5))
        idx = find_first_block(circ, wl, mq)
        assert idx and idx[0] == 0 and len(idx) <= max(wl, 1)
        assert _closed(circ, idx)
        qs = {q for p in idx for q in circ[p].qubits}
        assert len(idx) == 1 or len(qs) <= mq


def test_retarget_helpers():
    circ = [gate_spec("H", (1,)), gate_spec("CNOT", (1, 2)), gate_spec("S", (2,))]
    rest = retarget(circ, [0, 2])
    assert _triples(rest) == [("CNOT", (1, 2), None)]


def test_window_gate_set_instantiation():
    labels = [window_gate_set(("CNOT", "H", "S"), 2).label(i) for i in range(7)]
    assert labels == ["I", "H[1]", "H[2]", "S[1]", "S[2]", "CNOT[1,2]", "CNOT[2,1]"]
    assert len(window_gate_set(("CNOT", "H", "S"), 3)) == 13
    assert len(window_gate_set(("CNOT", "H", "S"), 4)) == 21
    # two-qubit prototypes drop off a one-wire window
    assert [window_gate_set(("CNOT", "H", "S"), 1).label(i) for i in range(3)] == \
        ["I", "H[1]", "S[1]"]
    # symmetric gates appear once per unordered pair
    assert [window_gate_set(("CZ", "H"), 2).label(i) for i in range(4)] == \
        ["I", "H[1]", "H[2]", "CZ[1,2]"]
    angled = window_gate_set((("RZ", 0.5), "H"), 1)
    assert angled[2].spec.angle == 0.5


def test_rho_config_validation():
    with pytest.raises(ConfigError):
        RhoConfig(window_length=0)
    with pytest.raises(ConfigError):
        RhoConfig(accept_window=0)
    with pytest.raises(ConfigError):
        RhoConfig(max_qubits=0)
    with pytest.raises(ConfigError, match="max_qubits"):
        RhoConfig(max_qubits=MAX_QUBITS + 1)
    assert RhoConfig(max_qubits=MAX_QUBITS).max_qubits == MAX_QUBITS
    with pytest.raises(ConfigError):
        RhoConfig(passes=0)
    for bad in (float("nan"), 0.0, -1.0, float("inf"), 10 ** 400):
        with pytest.raises(ConfigError, match="time_limit_per_window"):
            RhoConfig(time_limit_per_window=bad)
    assert RhoConfig(time_limit_per_window=2).time_limit_per_window == 2.0


def test_rho_config_rejects_bad_window_gates():
    bad = [(), ("FOO",), ("H", "FOO"), (("RZ", None),), (("H", 0.5),),
           (("RZ", float("nan")),), (("CNOT", 1.0),), (("RZ", "x"),)]
    for gates in bad:
        with pytest.raises(ConfigError, match="window_gates"):
            RhoConfig(window_gates=gates)
    assert RhoConfig(window_gates=("CNOT", ("RZ", 0.5))).window_gates[1] == ("RZ", 0.5)
    # a seed whose blocks are all skipped never builds a window, so only the
    # config can catch the bad name
    seed = [gate_spec("H", (1,)), gate_spec("T", (1,)), gate_spec("H", (2,))]
    assert [e["action"] for e in rolling_horizon(seed).window_log] == ["skipped"] * 2
    with pytest.raises(ConfigError, match="FOO"):
        rolling_horizon(seed, RhoConfig(window_gates=("FOO",)))


def test_parity_ladder_matches_exponential():
    theta = np.pi / 2
    z = np.diag([1.0, -1.0]).astype(complex)
    zzz = np.kron(np.kron(z, z), z)
    got = circuit_unitary(parity_ladder_zzz(theta, (1, 2, 3)), 3)
    assert np.abs(got - expm(-1j * theta / 2 * zzz)).max() <= 1e-12


def test_unrepresentable_window_passes_through():
    lad = parity_ladder_zzz(0.73, (1, 2, 3))
    cfg = RhoConfig(window_length=5, accept_window=3, max_qubits=3, passes=2)
    res = rolling_horizon(lad, cfg)
    assert _triples(res.circuit) == _triples(lad)
    assert res.fidelity_to_input == pytest.approx(1.0, abs=1e-12)
    assert res.windows_passed_through == 1 and res.windows_optimized == 0
    assert [e["action"] for e in res.window_log] == ["kept"]


def test_rolling_horizon_compresses_parity_seed():
    seed = k4_parity_seed()
    assert len(seed) == 20 and len(k5_parity_seed()) == 50
    cfg = RhoConfig(window_length=10, accept_window=5, max_qubits=4)
    res = rolling_horizon(seed, cfg)
    assert res.input_length == 20 and res.num_qubits == 4
    assert res.pass_lengths[0] == 20
    assert all(b <= a for a, b in zip(res.pass_lengths, res.pass_lengths[1:]))
    assert res.pass_lengths[1] == 15
    assert len(res.circuit) == res.pass_lengths[-1] <= 14
    assert res.fidelity_to_input == pytest.approx(1.0, abs=1e-9)
    assert res.windows_optimized >= 2
    for e in res.window_log:
        assert e["action"] in ("optimized", "kept", "skipped")
        assert e["gates_in"] >= 1 and e["pass"] >= 1
        assert e["qubits"] == sorted(e["qubits"])
        if e["action"] == "optimized":
            assert e["saved"] == e["gates_in"] - e["gates_out"]
        else:
            assert e["gates_out"] == e["gates_in"]


def test_wide_windows_compress_k5_seed_to_22():
    # 12-gate windows keeping 6 gates: 50 -> 36 -> 33 -> 25 -> 23 -> 22 -> 22,
    # against 36 at the criterion 09 setting (10 / 5)
    cfg = RhoConfig(window_length=12, accept_window=6, max_qubits=4, passes=8,
                    window_gates=("CNOT", "H", "S"), backend="oracle")
    res = rolling_horizon(k5_parity_seed(), cfg)
    assert res.pass_lengths[0] == 50
    assert all(b <= a for a, b in zip(res.pass_lengths, res.pass_lengths[1:]))
    assert len(res.circuit) <= 22
    assert res.fidelity_to_input == pytest.approx(1.0, abs=1e-9)


def test_single_pass_preserves_unitary():
    seed = k4_parity_seed()
    cfg = RhoConfig(window_length=10, accept_window=5, max_qubits=4)
    out = rolling_horizon_pass(seed, cfg)
    assert len(out) < len(seed)
    fid = fidelity(circuit_unitary(out, 4), circuit_unitary(seed, 4))
    assert fid == pytest.approx(1.0, abs=1e-9)


def test_verification_catches_wrong_rewrites(monkeypatch):
    def bogus(block, cfg):
        return [gate_spec("X", (1,))]

    monkeypatch.setattr(rho_mod, "_optimize_window", bogus)
    circ = [gate_spec("H", (1,)), gate_spec("CNOT", (1, 2)),
            gate_spec("CNOT", (1, 2)), gate_spec("H", (1,))]
    with pytest.raises(BackendError, match="fidelity"):
        rolling_horizon(circ, RhoConfig(window_length=4, accept_window=2,
                                        max_qubits=2, passes=1))


def test_empty_circuit_run():
    res = rolling_horizon([], RhoConfig(passes=2))
    assert isinstance(res, RhoResult)
    assert res.circuit == [] and res.input_length == 0
    assert res.fidelity_to_input is None
