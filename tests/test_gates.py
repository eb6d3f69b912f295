"""Gate library: builtins, register embedding, gate sets, JSON wire format."""

import numpy as np
import pytest
from scipy.linalg import expm

from mipsynth.errors import DimensionError, GateSetError
from mipsynth.gates import (GateSet, GateSpec, acts_trivially, builtin_gate,
                            builtin_names, extend_gate, fibonacci_generators,
                            front_permutation, gate_set_from_dict,
                            gate_set_to_dict, gate_spec, identity_spec,
                            spec_from_dict, spec_to_dict,
                            weave_gate_set)

X = builtin_gate("X")
Y = builtin_gate("Y")
Z = builtin_gate("Z")
H = builtin_gate("H")
S = builtin_gate("S")
T = builtin_gate("T")


def close(a, b, tol=1e-12):
    return np.abs(np.asarray(a) - np.asarray(b)).max() <= tol


def test_builtin_single_qubit_algebra():
    assert close(T @ T, S)
    assert close(S @ S, Z)
    assert close(H @ H, np.eye(2))
    assert close(H @ X @ H, Z)
    assert close(X @ Y, 1j * Z)
    assert close(builtin_gate("Sdg") @ S, np.eye(2))
    assert close(builtin_gate("Tdg") @ T, np.eye(2))


def test_builtin_two_qubit_matrices():
    cnot = builtin_gate("CNOT")
    # control is the first qubit: |10> -> |11>, |11> -> |10>
    assert close(cnot, np.eye(4)[[0, 1, 3, 2]])
    assert close(builtin_gate("CZ"), np.diag([1, 1, 1, -1]))
    iswap = builtin_gate("iSWAP")
    want = np.eye(4, dtype=complex)
    want[1:3, 1:3] = [[0, 1j], [1j, 0]]
    assert close(iswap, want)


def test_rotation_gates_match_exponentials():
    for name, gen in (("RX", X), ("RY", Y), ("RZ", Z)):
        for theta in (0.3, -1.1, np.pi / 2):
            assert close(builtin_gate(name, theta), expm(-0.5j * theta * gen), 1e-10)


def test_builtin_gate_angle_handling():
    with pytest.raises(GateSetError):
        builtin_gate("H", angle=0.5)
    with pytest.raises(GateSetError):
        builtin_gate("RZ")
    with pytest.raises(GateSetError):
        builtin_gate("NOPE")
    assert "CNOT" in builtin_names() and "RZ" in builtin_names()


def test_fibonacci_braid_relation():
    sig1 = builtin_gate("SIGMA1")
    sig2 = builtin_gate("SIGMA2")
    assert close(sig1 @ sig2 @ sig1, sig2 @ sig1 @ sig2, 1e-12)
    assert close(builtin_gate("WEAVE1"), sig1 @ sig1)
    assert close(builtin_gate("WEAVE2"), sig2 @ sig2)
    for name in ("SIGMA1", "SIGMA2", "WEAVE1", "WEAVE2"):
        u = builtin_gate(name)
        assert close(u.conj().T @ u, np.eye(2), 1e-12)
        assert close(builtin_gate(name + "DG"), u.conj().T)


def test_gate_spec_validation():
    with pytest.raises(GateSetError):
        gate_spec("CNOT", (1, 1))  # repeated qubit
    with pytest.raises(GateSetError):
        gate_spec("H", (0,))  # labels are 1-based
    with pytest.raises(DimensionError):
        GateSpec(name="H", qubits=(1, 2), matrix=H)  # arity mismatch
    sp = gate_spec("RZ", (3,), angle=0.25)
    assert sp.angle == 0.25 and sp.qubits == (3,)


def test_front_permutation_is_permutation():
    perm = front_permutation((2,), 3)
    assert sorted(perm) == list(range(8))
    # moving qubit 1 to the front of a 1..Q register changes nothing
    assert list(front_permutation((1, 2), 3)) == list(range(8))


def test_extend_gate_against_kron():
    eg = extend_gate(gate_spec("H", (2,)), 3)
    i2 = np.eye(2)
    assert close(eg.full, np.kron(np.kron(i2, H), i2))
    assert eg.support == frozenset({2})

    eg = extend_gate(gate_spec("CNOT", (1, 3)), 3)
    want = np.zeros((8, 8), dtype=complex)
    for b in range(8):
        ctrl, mid, tgt = (b >> 2) & 1, (b >> 1) & 1, b & 1
        out = (ctrl << 2) | (mid << 1) | (tgt ^ ctrl)
        want[out, b] = 1.0
    assert close(eg.full, want)
    assert eg.support == frozenset({1, 3})


def test_extend_gate_reversed_wires():
    # CNOT with control 2, target 1 on two qubits
    eg = extend_gate(gate_spec("CNOT", (2, 1)), 2)
    assert close(eg.full, np.eye(4)[[0, 3, 2, 1]])


def test_support_and_trivial_action():
    eg = extend_gate(gate_spec("CZ", (1, 2)), 3)
    u = eg.full
    assert eg.support == frozenset({1, 2})
    assert acts_trivially(u, 3, 3)
    assert not acts_trivially(u, 1, 3)


def test_gate_set_identity_bookkeeping():
    gs = GateSet.from_specs(1, [gate_spec("H", (1,)), gate_spec("T", (1,))])
    assert len(gs) == 3  # identity was added
    assert gs[gs.identity_index].is_identity
    assert gs.non_identity_indices() == [i for i in range(3) if i != gs.identity_index]
    assert gs.index_of("H", (1,)) >= 0
    with pytest.raises(GateSetError):
        gs.index_of("X")
    labels = [gs.label(i) for i in range(len(gs))]
    assert "H[1]" in labels and "I" in labels


def test_gate_set_rejects_double_identity():
    specs = [identity_spec(), gate_spec("I", (1,))]
    with pytest.raises(GateSetError):
        GateSet.from_specs(1, specs)


def test_gate_set_warns_on_duplicate_matrices():
    with pytest.warns(UserWarning, match="identical matrices"):
        GateSet.from_specs(2, [gate_spec("CZ", (1, 2)), gate_spec("CZ", (2, 1))])


def test_gate_set_dimension_consistency():
    gs = GateSet.from_specs(2, [gate_spec("CNOT", (1, 2))])
    assert gs.dim == 4
    assert gs.matrices().shape == (len(gs), 4, 4)
    with pytest.raises(GateSetError):
        GateSet(2, [extend_gate(identity_spec(), 1)])


def test_weave_gate_set_contents():
    gs = weave_gate_set()
    names = sorted(g.name for g in gs)
    assert names == ["I", "WEAVE1", "WEAVE1DG", "WEAVE2", "WEAVE2DG"]
    gens = fibonacci_generators()
    assert [g.name for g in gens[:4]] == ["SIGMA1", "SIGMA1DG", "SIGMA2", "SIGMA2DG"]


def test_spec_json_round_trip():
    sp = gate_spec("RZ", (2,), angle=1.25)
    back = spec_from_dict(spec_to_dict(sp))
    assert back.name == "RZ" and back.qubits == (2,) and back.angle == 1.25
    assert close(back.matrix, sp.matrix)
    # non-builtin names must carry their matrix through the wire format
    custom = GateSpec(name="SQRTX", qubits=(1,),
                      matrix=0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]]))
    doc = spec_to_dict(custom)
    assert "matrix" in doc
    assert close(spec_from_dict(doc).matrix, custom.matrix)


def test_gate_set_json_round_trip():
    gs = GateSet.from_specs(2, [gate_spec("CNOT", (1, 2)), gate_spec("H", (1,)),
                                gate_spec("RY", (2,), angle=-0.5)])
    back = gate_set_from_dict(gate_set_to_dict(gs))
    assert len(back) == len(gs)
    assert close(back.matrices(), gs.matrices())
    with pytest.raises(GateSetError):
        gate_set_from_dict({"gates": []})
