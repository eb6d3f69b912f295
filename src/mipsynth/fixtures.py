"""Built-in synthesis instances: benchmark targets, test corpora, seed circuits.

The registry rows pair a named target with a concrete gate library and a gate
budget so batch runs are reproducible from a name alone.  The corpora are
small instances sized for exhaustive cross-checking; the seed circuits are
GateSpec lists on a register, the input of the rolling-horizon optimizer.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import GateSetError
from .gates import GateSet, GateSpec, builtin_gate, extend_gate, gate_spec

SQRT_X = 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]])


def controlled(u: np.ndarray) -> np.ndarray:
    """Block embedding |0><0| x I + |1><1| x U, control on the first qubit."""
    u = np.asarray(u, dtype=complex)
    n = u.shape[0]
    out = np.eye(2 * n, dtype=complex)
    out[n:, n:] = u
    return out


def csx_spec(qubits, dagger: bool = False) -> GateSpec:
    """Controlled square root of X on (control, target)."""
    m = controlled(SQRT_X.conj().T if dagger else SQRT_X)
    return gate_spec("CSXDG" if dagger else "CSX", qubits, matrix=m)


def _magic_matrix() -> np.ndarray:
    return np.array([
        [1, 1j, 0, 0],
        [0, 0, 1j, 1],
        [0, 0, 1j, -1],
        [1, -1j, 0, 0],
    ], dtype=complex) / np.sqrt(2.0)


def _single_excitation_h() -> np.ndarray:
    r = 1.0 / np.sqrt(2.0)
    return np.array([
        [1, 0, 0, 0],
        [0, r, r, 0],
        [0, r, -r, 0],
        [0, 0, 0, 1],
    ], dtype=complex)


def standard_target(name: str) -> np.ndarray:
    """Benchmark unitary by name; raises GateSetError on unknown names."""
    builders = {
        "toffoli": lambda: controlled(builtin_gate("CNOT")),
        "fredkin": lambda: controlled(_swap()),
        "cnot13": lambda: extend_gate(gate_spec("CNOT", (1, 3)), 3).full,
        "cnot41": lambda: extend_gate(gate_spec("CNOT", (4, 1)), 4).full,
        "csx": lambda: controlled(SQRT_X),
        "ch": lambda: controlled(builtin_gate("H")),
        "iswap": lambda: builtin_gate("iSWAP"),
        "magic": _magic_matrix,
        "single_excitation_hadamard": _single_excitation_h,
    }
    if name not in builders:
        raise GateSetError(f"unknown standard target {name!r}; "
                           f"known: {sorted(builders)}")
    return builders[name]()


def standard_target_names() -> list[str]:
    return ["toffoli", "fredkin", "cnot13", "cnot41", "csx", "ch", "iswap",
            "magic", "single_excitation_hadamard"]


def _swap() -> np.ndarray:
    s = np.eye(4, dtype=complex)
    s[[1, 2]] = s[[2, 1]]
    return s


@dataclass(frozen=True)
class Fixture:
    """One synthesis instance: target, library, gate budget."""

    name: str
    target: np.ndarray
    gate_set: GateSet
    P: int
    description: str = ""

    @property
    def num_qubits(self) -> int:
        return self.gate_set.num_qubits


def _gs(num_qubits: int, *specs: GateSpec) -> GateSet:
    return GateSet.from_specs(num_qubits, list(specs))


def _g1(name: str, q: int, angle: float | None = None) -> GateSpec:
    return gate_spec(name, (q,), angle=angle)


def _g2(name: str, a: int, b: int) -> GateSpec:
    return gate_spec(name, (a, b))


# ---------------------------------------------------------------------------
# Benchmark registry: named target + library + budget rows
# ---------------------------------------------------------------------------


def benchmark_registry() -> dict[str, Fixture]:
    """Named benchmark instances with fixed libraries and budgets.

    Library sizes below count non-identity gates; the identity used for
    padding is always present on top of those.
    """
    rows: dict[str, Fixture] = {}

    def add(name: str, target_name: str, num_qubits: int, specs, P: int,
            description: str) -> None:
        rows[name] = Fixture(name=name, target=standard_target(target_name),
                             gate_set=_gs(num_qubits, *specs), P=P,
                             description=description)

    add("toffoli2q", "toffoli", 3, [
        _g2("CNOT", 1, 2), _g2("CNOT", 2, 1), _g2("CNOT", 2, 3),
        csx_spec((1, 3)), csx_spec((2, 3)), csx_spec((1, 2)),
        csx_spec((1, 3), dagger=True), csx_spec((2, 3), dagger=True),
        csx_spec((1, 2), dagger=True),
    ], 5, "Toffoli from two-qubit gates, 9 gates, budget 5")

    add("cnot13", "cnot13", 3, [
        _g2("CNOT", 1, 2), _g2("CNOT", 2, 1), _g2("CNOT", 2, 3), _g2("CNOT", 3, 2),
        _g1("H", 1), _g1("H", 2), _g1("H", 3),
        _g1("T", 1), _g1("T", 2), _g1("T", 3),
        _g1("Tdg", 1), _g1("Tdg", 2), _g1("Tdg", 3),
        _g1("S", 2),
    ], 8, "long-range CNOT over a 3-qubit line, 14 gates, budget 8")

    add("fredkin", "fredkin", 3, [
        _g2("CNOT", 1, 2), _g2("CNOT", 2, 1), _g2("CNOT", 1, 3),
        _g2("CNOT", 3, 1), _g2("CNOT", 2, 3), _g2("CNOT", 3, 2),
        csx_spec((2, 3)), csx_spec((2, 3), dagger=True),
        csx_spec((1, 3)), csx_spec((1, 3), dagger=True), csx_spec((1, 2)),
    ], 7, "controlled swap from two-qubit gates, 11 gates, budget 7")

    add("cnot41", "cnot41", 4, [
        _g2("CNOT", 1, 2), _g2("CNOT", 2, 1), _g2("CNOT", 2, 3),
        _g2("CNOT", 3, 2), _g2("CNOT", 3, 4), _g2("CNOT", 4, 3),
    ], 10, "long-range CNOT over a 4-qubit line, 6 gates, budget 10")

    add("csx", "csx", 2, [
        _g1("H", 1), _g1("H", 2), _g1("T", 1), _g1("T", 2),
        _g1("Tdg", 1), _g1("Tdg", 2), _g1("S", 1), _g1("S", 2),
        _g2("CNOT", 1, 2),
    ], 7, "controlled square root of X, 9 gates, budget 7")

    add("ch", "ch", 2, [
        *[_g1(n, q) for n in ("X", "Y", "Z", "H", "S", "Sdg", "T", "Tdg")
          for q in (1, 2)],
        *[_g1(n, q, angle=a) for n in ("RX", "RY", "RZ")
          for a in (np.pi / 4, -np.pi / 4) for q in (1, 2)],
        _g2("CNOT", 1, 2), _g2("CNOT", 2, 1), _g2("CZ", 1, 2),
        _g2("iSWAP", 1, 2),
    ], 5, "controlled Hadamard, 32 gates, budget 5")

    add("iswap", "iswap", 2, [
        _g1("S", 1), _g1("S", 2), _g1("H", 1), _g1("H", 2),
        _g2("CNOT", 1, 2), _g2("CNOT", 2, 1), _g2("CZ", 1, 2),
        _g1("T", 1), _g1("T", 2),
    ], 10, "iSWAP from a Clifford+T library, 9 gates, budget 10")

    add("single_excitation_hadamard", "single_excitation_hadamard", 2, [
        _g1("H", 1), _g1("H", 2), _g1("S", 1), _g1("S", 2),
        _g1("T", 1), _g1("T", 2), _g1("X", 1), _g1("X", 2),
        _g1("RY", 2, angle=np.pi / 4), _g1("RY", 2, angle=-np.pi / 4),
        _g2("CNOT", 1, 2), _g2("CNOT", 2, 1), _g2("CZ", 1, 2),
        _g1("Tdg", 2),
    ], 5, "Hadamard inside the single-excitation block, 14 gates, budget 5")

    return rows


# ---------------------------------------------------------------------------
# Exhaustive-check corpus: small instances for oracle cross-validation
# ---------------------------------------------------------------------------


def oracle_corpus() -> list[Fixture]:
    """Small instances (Q <= 2, at most 7 non-identity gates, P <= 5).

    Chosen to cover relation-rich libraries, determinant-normalization
    phase effects in both directions (feasible and infeasible), parallel
    versus serial structure, angled gates, and the anyonic generators.
    """
    H, T, S, X, Z = (builtin_gate(n) for n in ("H", "T", "S", "X", "Z"))
    fx: list[Fixture] = []

    def add(name, target, gs, P, description=""):
        fx.append(Fixture(name=name, target=np.asarray(target, dtype=complex),
                          gate_set=gs, P=P, description=description))

    # single-qubit
    add("t2_s", S, _gs(1, _g1("T", 1)), 2, "two T gates make an S")
    add("t4_z", Z, _gs(1, _g1("T", 1)), 4, "four T gates make a Z up to phase")
    add("s3_sdg", S.conj().T, _gs(1, _g1("S", 1)), 4, "S cubed is S dagger")
    add("x_hzh", X, _gs(1, _g1("H", 1), _g1("Z", 1)), 3, "basis change of Z")
    add("x_parity5", X, _gs(1, _g1("H", 1), _g1("Z", 1)), 5,
        "same target, room for the phase-matching longer word")
    add("h_direct", H, _gs(1, _g1("H", 1), _g1("T", 1)), 3, "already elementary")
    add("hh_i", np.eye(2), _gs(1, _g1("H", 1), _g1("T", 1)), 3, "empty word")
    add("y_from_xz", builtin_gate("Y"), _gs(1, _g1("X", 1), _g1("Z", 1)), 3,
        "product of X and Z up to the determinant phases")
    add("rz2", builtin_gate("RZ", 0.6), _gs(1, _g1("RZ", 1, angle=0.3)), 3,
        "angle doubling")
    add("ht_gp", H @ T @ H, _gs(1, _g1("H", 1), _g1("T", 1)), 3,
        "conjugated T")
    w1 = builtin_gate("WEAVE1")
    w2 = builtin_gate("WEAVE2")
    weaves = _gs(1, _g1("WEAVE1", 1), _g1("WEAVE1DG", 1),
                 _g1("WEAVE2", 1), _g1("WEAVE2DG", 1))
    add("w1w2", w1 @ w2, weaves, 3, "anyonic two-letter word")
    add("w1_square", w1 @ w1, weaves, 3, "anyonic letter squared")
    add("w1_inverse", w1.conj().T, weaves, 2, "single inverse letter")

    # two-qubit
    cnot12 = _g2("CNOT", 1, 2)
    add("hch_cz", builtin_gate("CZ"), _gs(2, _g1("H", 2), cnot12), 3,
        "CZ by conjugating a CNOT")
    add("ct_reversal", extend_gate(_g2("CNOT", 2, 1), 2).full,
        _gs(2, cnot12, _g1("H", 1), _g1("H", 2)), 5,
        "control and target exchanged by Hadamards")
    add("swap_3cnot", _swap(), _gs(2, cnot12, _g2("CNOT", 2, 1)), 3,
        "three alternating CNOTs")
    add("cz_direct", builtin_gate("CZ"), _gs(2, _g2("CZ", 1, 2), _g1("H", 1)), 2,
        "already elementary")
    add("x2_parallel", np.kron(X, X), _gs(2, _g1("X", 1), _g1("X", 2)), 3,
        "disjoint single-qubit gates")
    add("t_commute", np.kron(T, T), _gs(2, _g1("T", 1), _g1("T", 2)), 3,
        "parallel T gates, determinant phases differ")
    add("z_xy", np.kron(np.eye(2), Z), _gs(2, _g1("X", 2), _g1("Y", 2)), 3,
        "Z from X and Y up to phase")
    add("magic_small", _magic_matrix(),
        _gs(2, _g1("S", 1), _g1("S", 2), _g1("H", 1), _g1("H", 2),
            cnot12, _g2("CNOT", 2, 1)), 4,
        "Bell-basis change")
    add("iswap_small", builtin_gate("iSWAP"),
        _gs(2, _g1("S", 1), _g1("S", 2), _g1("H", 1), _g1("H", 2),
            cnot12, _g2("CNOT", 2, 1)), 5,
        "iSWAP from a small Clifford library")
    return fx


def depth_corpus() -> list[Fixture]:
    """Instances for depth scheduling, Q <= 2 and P <= 4."""
    from .encoding import su_normalize

    fx: list[Fixture] = []
    T = builtin_gate("T")
    cnot = su_normalize(extend_gate(_g2("CNOT", 1, 2), 2).full)
    t1 = su_normalize(extend_gate(_g1("T", 1), 2).full)
    t2 = su_normalize(extend_gate(_g1("T", 2), 2).full)
    h1 = extend_gate(_g1("H", 1), 2).full
    h2 = extend_gate(_g1("H", 2), 2).full
    cz = extend_gate(_g2("CZ", 1, 2), 2).full
    w1 = builtin_gate("WEAVE1")
    w2 = builtin_gate("WEAVE2")

    def add(name, target, gs, P, description=""):
        fx.append(Fixture(name=name, target=np.asarray(target, dtype=complex),
                          gate_set=gs, P=P, description=description))

    two_q = _gs(2, _g2("CNOT", 1, 2), _g1("T", 1), _g1("T", 2))
    add("remark2", cnot @ t1 @ t2, two_q, 3,
        "entangler then two disjoint rotations; the rotations share a layer")
    add("remark2_pad", cnot @ t1 @ t2, two_q, 4, "same with padding room")
    weaves = _gs(1, _g1("WEAVE1", 1), _g1("WEAVE1DG", 1),
                 _g1("WEAVE2", 1), _g1("WEAVE2DG", 1))
    add("chain_w3", w1 @ w2 @ w1, weaves, 3, "serial chain, depth equals length")
    add("chain_w4", w1 @ w2 @ w1 @ w2, weaves, 4, "longer serial chain")
    add("parallel_tt", np.kron(T, T), _gs(2, _g1("T", 1), _g1("T", 2)), 4,
        "two disjoint gates in one layer")
    add("cz_h_depth", cz @ h1 @ h2, _gs(2, _g2("CZ", 1, 2), _g1("H", 1), _g1("H", 2)), 4,
        "entangler then a parallel rotation layer")
    add("identity_depth", np.eye(4), two_q, 3, "empty circuit has depth zero")
    return fx


def criterion_phase_instance() -> Fixture:
    """A target reachable only up to a global phase from its library.

    The raw word for CZ carries determinant phase e^{i pi/4}; multiplying
    the target by i moves it off every reachable exact phase within budget,
    while phase-variable matching recovers it at length 3.
    """
    target = 1j * builtin_gate("CZ")
    return Fixture(name="phase_gap", target=target,
                   gate_set=_gs(2, _g1("H", 2), _g2("CNOT", 1, 2)), P=3,
                   description="feasible up to phase, infeasible exactly")


# ---------------------------------------------------------------------------
# Seed circuits for the rolling-horizon optimizer
# ---------------------------------------------------------------------------


def parity_ladder_phase(qubits: tuple[int, int, int]) -> list[GateSpec]:
    """Parity ladder with an S phase in the center (Clifford variant)."""
    a, b, c = qubits
    return [
        _g2("CNOT", a, c),
        _g2("CNOT", b, c),
        _g1("S", c),
        _g2("CNOT", b, c),
        _g2("CNOT", a, c),
    ]


def hypergraph_parity_seed(num_qubits: int) -> list[GateSpec]:
    """One phase ladder per 3-qubit hyperedge, lexicographic edge order."""
    circuit: list[GateSpec] = []
    for edge in itertools.combinations(range(1, num_qubits + 1), 3):
        circuit.extend(parity_ladder_phase(edge))
    return circuit


def k5_parity_seed() -> list[GateSpec]:
    """All ten 3-subsets of five qubits: 50 gates."""
    return hypergraph_parity_seed(5)


def k4_parity_seed() -> list[GateSpec]:
    """All four 3-subsets of four qubits: 20 gates."""
    return hypergraph_parity_seed(4)


def brickwork_circuit() -> list[GateSpec]:
    """Seven-qubit rotation/entangler brickwork, 27 gates in 5 layers.

    A rotation on every wire, entanglers on (1,2) (3,4) (5,6), rotations
    again, entanglers on the offset pairs (2,3) (4,5) (6,7), and a final
    rotation layer.
    """
    circuit: list[GateSpec] = []
    for q in range(1, 8):
        circuit.append(_g1("RY", q, angle=0.1 * q))
    for a, b in ((1, 2), (3, 4), (5, 6)):
        circuit.append(_g2("CZ", a, b))
    for q in range(1, 8):
        circuit.append(_g1("RY", q, angle=0.2 * q + 0.05))
    for a, b in ((2, 3), (4, 5), (6, 7)):
        circuit.append(_g2("CZ", a, b))
    for q in range(1, 8):
        circuit.append(_g1("RY", q, angle=0.3 * q + 0.1))
    return circuit


# ---------------------------------------------------------------------------
# Certified anyonic weave words
# ---------------------------------------------------------------------------

#: Depth-15 (H, T) and depth-10 (X) weave approximations; letters apply
#: left to right.
GOLDEN_WEAVES: dict[str, list[str]] = {
    "H": ["WEAVE1DG", "WEAVE1DG", "WEAVE2", "WEAVE1DG", "WEAVE2", "WEAVE1DG",
          "WEAVE2DG", "WEAVE1", "WEAVE2DG", "WEAVE2DG", "WEAVE1DG", "WEAVE2",
          "WEAVE1", "WEAVE2DG", "WEAVE1DG"],
    "X": ["WEAVE2", "WEAVE1DG", "WEAVE1DG", "WEAVE2", "WEAVE1DG", "WEAVE1DG",
          "WEAVE2", "WEAVE1DG", "WEAVE1DG", "WEAVE2"],
    "T": ["WEAVE1", "WEAVE2DG", "WEAVE1", "WEAVE2", "WEAVE2", "WEAVE1DG",
          "WEAVE2", "WEAVE1DG", "WEAVE2DG", "WEAVE2DG", "WEAVE1", "WEAVE2DG",
          "WEAVE1DG", "WEAVE1DG", "WEAVE2DG"],
}


def golden_weave_circuit(target_name: str) -> list[GateSpec]:
    if target_name not in GOLDEN_WEAVES:
        raise GateSetError(f"no stored weave for {target_name!r}; "
                           f"known: {sorted(GOLDEN_WEAVES)}")
    return [_g1(letter, 1) for letter in GOLDEN_WEAVES[target_name]]


__all__ = [
    "Fixture", "SQRT_X", "controlled", "csx_spec",
    "standard_target", "standard_target_names",
    "benchmark_registry", "oracle_corpus", "depth_corpus",
    "criterion_phase_instance",
    "parity_ladder_phase", "hypergraph_parity_seed",
    "k5_parity_seed", "k4_parity_seed", "brickwork_circuit",
    "GOLDEN_WEAVES", "golden_weave_circuit",
]
