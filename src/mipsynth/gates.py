"""Gate specifications, register extension, and built-in gate matrices.

A GateSpec is a base matrix acting on an ordered tuple of named qubits.
extend_gate embeds it into a Q-qubit register by conjugating with the
permutation that moves the addressed qubits (in ascending order) to the
front while preserving the relative order of the rest.  Qubit labels are
1-based and qubit 1 is the most significant bit of a basis index.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .encoding import VERIFY_TOL, equal_matrices, require_unitary
from .errors import DimensionError, GateSetError, checked_integer

_SQ2 = 1.0 / np.sqrt(2.0)

#: Largest register extend_gate embeds a gate into: each embedded gate is one
#: dense 2^Q x 2^Q complex matrix, 256 MiB at 12 qubits.
MAX_QUBITS = 12
_PHI = (1.0 + np.sqrt(5.0)) / 2.0
_FIB_R = np.diag([np.exp(-4j * np.pi / 5), np.exp(3j * np.pi / 5)])
_FIB_F = np.array([[1 / _PHI, 1 / np.sqrt(_PHI)], [1 / np.sqrt(_PHI), -1 / _PHI]], dtype=complex)
_SIGMA1 = np.exp(1j * np.pi / 10) * _FIB_R
_SIGMA2 = np.exp(1j * np.pi / 10) * (_FIB_F @ _FIB_R @ _FIB_F)


def _fixed_builtins() -> dict[str, np.ndarray]:
    i2 = np.eye(2, dtype=complex)
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    y = np.array([[0, -1j], [1j, 0]], dtype=complex)
    z = np.diag([1, -1]).astype(complex)
    h = _SQ2 * np.array([[1, 1], [1, -1]], dtype=complex)
    s = np.diag([1, 1j]).astype(complex)
    t = np.diag([1, np.exp(1j * np.pi / 4)]).astype(complex)
    cnot = np.eye(4, dtype=complex)[[0, 1, 3, 2]]
    cz = np.diag([1, 1, 1, -1]).astype(complex)
    iswap = np.eye(4, dtype=complex)
    iswap[1:3, 1:3] = np.array([[0, 1j], [1j, 0]])
    return {
        "I": i2,
        "X": x,
        "Y": y,
        "Z": z,
        "H": h,
        "S": s,
        "Sdg": s.conj().T,
        "T": t,
        "Tdg": t.conj().T,
        "CNOT": cnot,
        "CZ": cz,
        "iSWAP": iswap,
        "SIGMA1": _SIGMA1,
        "SIGMA1DG": _SIGMA1.conj().T,
        "SIGMA2": _SIGMA2,
        "SIGMA2DG": _SIGMA2.conj().T,
        "WEAVE1": _SIGMA1 @ _SIGMA1,
        "WEAVE1DG": (_SIGMA1 @ _SIGMA1).conj().T,
        "WEAVE2": _SIGMA2 @ _SIGMA2,
        "WEAVE2DG": (_SIGMA2 @ _SIGMA2).conj().T,
    }


_FIXED = _fixed_builtins()


def _rx(theta: float) -> np.ndarray:
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array([[c, -1j * s], [-1j * s, c]])


def _ry(theta: float) -> np.ndarray:
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def _rz(theta: float) -> np.ndarray:
    return np.diag([np.exp(-1j * theta / 2), np.exp(1j * theta / 2)])


_ANGLED = {"RX": _rx, "RY": _ry, "RZ": _rz}


def builtin_gate(name: str, angle: float | None = None) -> np.ndarray:
    """Base matrix of a built-in gate, by name."""
    if name in _FIXED:
        if angle is not None:
            raise GateSetError(f"gate {name} takes no angle")
        return _FIXED[name].copy()
    if name in _ANGLED:
        if angle is None:
            raise GateSetError(f"gate {name} requires an angle")
        return _ANGLED[name](float(angle))
    raise GateSetError(f"unknown built-in gate {name!r}")


def builtin_names() -> list[str]:
    return sorted(_FIXED) + sorted(_ANGLED)


@dataclass(frozen=True)
class GateSpec:
    """A base unitary acting on an ordered tuple of 1-based qubit labels."""

    name: str
    qubits: tuple[int, ...]
    matrix: np.ndarray
    angle: float | None = None

    def __post_init__(self):
        m = require_unitary(self.matrix, name=f"gate {self.name}")
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "qubits", tuple(
            checked_integer(q, f"gate {self.name}: a qubit label") for q in self.qubits))
        k = len(self.qubits)
        if len(set(self.qubits)) != k:
            raise GateSetError(f"gate {self.name}: repeated qubit in {self.qubits}")
        if any(q < 1 for q in self.qubits):
            raise GateSetError(f"gate {self.name}: qubit labels are 1-based")
        if m.shape[0] != 2 ** k:
            raise DimensionError(
                f"gate {self.name}: matrix dim {m.shape[0]} does not match {k} qubit(s)"
            )


def gate_spec(name: str, qubits: Sequence[int], angle: float | None = None,
              matrix: np.ndarray | None = None) -> GateSpec:
    """Build a GateSpec from a built-in name or an explicit matrix."""
    if matrix is None:
        matrix = builtin_gate(name, angle)
    return GateSpec(name=name, qubits=tuple(qubits), matrix=np.asarray(matrix, dtype=complex),
                    angle=angle)


def identity_spec() -> GateSpec:
    return gate_spec("I", (1,))


def front_permutation(qubits: Sequence[int], num_qubits: int) -> np.ndarray:
    """Basis permutation moving `qubits` (in given order) to the front.

    Returns perm with P|x> = |perm[x]> undone by fancy indexing; the
    remaining qubits keep their relative order.
    """
    rest = [q for q in range(1, num_qubits + 1) if q not in qubits]
    order = list(qubits) + rest
    dim = 2 ** num_qubits
    perm = np.zeros(dim, dtype=np.int64)
    xs = np.arange(dim)
    for q in order:
        perm = (perm << 1) | ((xs >> (num_qubits - q)) & 1)
    return perm


@dataclass(frozen=True)
class ExtendedGate:
    """A GateSpec embedded into a Q-qubit register."""

    spec: GateSpec
    num_qubits: int
    full: np.ndarray
    support: frozenset[int] = field(default=frozenset())

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def qubits(self) -> tuple[int, ...]:
        return self.spec.qubits

    @property
    def is_identity(self) -> bool:
        return not self.support and bool(equal_matrices(self.full, np.eye(len(self.full))))


def extend_gate(spec: GateSpec, num_qubits: int) -> ExtendedGate:
    """Embed `spec` into a register of `num_qubits` qubits.

    The embedding is P^dag (U x 1) P with P the front_permutation of the
    addressed qubits sorted ascending; the base matrix is reindexed
    accordingly when the declared qubit order is not ascending.  A register
    above MAX_QUBITS raises DimensionError before anything is allocated.
    """
    if num_qubits > MAX_QUBITS:
        raise DimensionError(f"a register of {num_qubits} qubits is above the "
                             f"{MAX_QUBITS} a gate can be embedded into")
    if any(q > num_qubits for q in spec.qubits):
        raise DimensionError(
            f"gate {spec.name} on qubits {spec.qubits} does not fit {num_qubits} qubit(s)"
        )
    k = len(spec.qubits)
    asc = tuple(sorted(spec.qubits))
    base = spec.matrix
    if asc != spec.qubits:
        # reorder the base matrix so it addresses its qubits in ascending order
        inner = front_permutation([spec.qubits.index(q) + 1 for q in asc], k)
        base = base[np.ix_(inner, inner)]
    perm = front_permutation(asc, num_qubits)
    big = np.kron(base, np.eye(2 ** (num_qubits - k), dtype=complex))
    full = big[np.ix_(perm, perm)]
    supp = frozenset(q for q in asc if not acts_trivially(full, q, num_qubits))
    return ExtendedGate(spec=spec, num_qubits=num_qubits, full=full, support=supp)


def sequence_product(mats: Iterable[np.ndarray], dim: int) -> np.ndarray:
    """Unitary of a gate sequence: the identity times each matrix in turn.

    Gate 1 is applied first and is the leftmost factor, as everywhere in
    this package.
    """
    u = np.eye(dim, dtype=complex)
    for m in mats:
        u = u @ m
    return u


def acts_trivially(u: np.ndarray, qubit: int, num_qubits: int) -> bool:
    """True when `u` factors as identity on `qubit` times some matrix on the
    rest, within VERIFY_TOL entrywise."""
    u = np.asarray(u)
    dim = 2 ** num_qubits
    if u.shape != (dim, dim):
        raise DimensionError(f"expected {dim}x{dim} matrix for {num_qubits} qubit(s)")
    # front_permutation maps original indices to qubit-fronted ones, so the
    # fronted view of u is indexed by its inverse
    inv = np.argsort(front_permutation((qubit,), num_qubits))
    v = u[np.ix_(inv, inv)]
    h = dim // 2
    if np.abs(v[:h, h:]).max() > VERIFY_TOL or np.abs(v[h:, :h]).max() > VERIFY_TOL:
        return False
    return bool(equal_matrices(v[:h, :h], v[h:, h:]))


class GateSet:
    """An ordered gate library on a fixed register.

    Canonical gate order is insertion order.  Exactly one gate must be the
    exact identity; it is the padding gate of every synthesis model.
    """

    def __init__(self, num_qubits: int, gates: Sequence[ExtendedGate]):
        if num_qubits < 1:
            raise GateSetError("num_qubits must be >= 1")
        self.num_qubits = int(num_qubits)
        self.gates = list(gates)
        if any(g.num_qubits != self.num_qubits for g in self.gates):
            raise GateSetError("all gates must be extended to the same register")
        id_idx = [i for i, g in enumerate(self.gates) if g.is_identity]
        if len(id_idx) != 1:
            raise GateSetError(
                f"gate set must contain exactly one identity gate, found {len(id_idx)}"
            )
        self.identity_index = id_idx[0]
        mats = self.matrices()
        for i in range(len(self.gates)):
            for j in i + 1 + np.flatnonzero(equal_matrices(mats[i + 1:], mats[i])):
                warnings.warn(
                    f"gates {self.gates[i].name}@{self.gates[i].qubits} and "
                    f"{self.gates[j].name}@{self.gates[j].qubits} have identical matrices",
                    stacklevel=2,
                )

    @classmethod
    def from_specs(cls, num_qubits: int, specs: Iterable[GateSpec]) -> "GateSet":
        """Extend `specs` to the register; the identity is added when absent."""
        ext = [extend_gate(s, num_qubits) for s in specs]
        if not any(g.is_identity for g in ext):
            ext.insert(0, extend_gate(identity_spec(), num_qubits))
        return cls(num_qubits, ext)

    def __len__(self) -> int:
        return len(self.gates)

    def __iter__(self):
        return iter(self.gates)

    def __getitem__(self, i: int) -> ExtendedGate:
        return self.gates[i]

    @property
    def dim(self) -> int:
        return 2 ** self.num_qubits

    def matrices(self) -> np.ndarray:
        """Stacked full matrices, shape (len, dim, dim)."""
        return np.stack([g.full for g in self.gates])

    def non_identity_indices(self) -> list[int]:
        return [i for i in range(len(self.gates)) if i != self.identity_index]

    def label(self, i: int) -> str:
        g = self.gates[i]
        qs = ",".join(str(q) for q in g.qubits)
        return f"{g.name}[{qs}]" if g.spec.name != "I" else "I"

    def index_of(self, name: str, qubits: Sequence[int] | None = None) -> int:
        for i, g in enumerate(self.gates):
            if g.name == name and (qubits is None or g.qubits == tuple(qubits)):
                return i
        raise GateSetError(f"no gate {name!r} on qubits {qubits} in set")


def fibonacci_generators() -> list[GateSpec]:
    """Fibonacci anyon braid generators followed by their weave squares.

    sigma1 is diagonal, sigma2 = F sigma1 F with the golden-ratio F matrix;
    both are single-qubit gates in the two-dimensional fusion space and
    satisfy sigma1 sigma2 sigma1 = sigma2 sigma1 sigma2.
    """
    names = ["SIGMA1", "SIGMA1DG", "SIGMA2", "SIGMA2DG",
             "WEAVE1", "WEAVE1DG", "WEAVE2", "WEAVE2DG"]
    return [gate_spec(n, (1,)) for n in names]


def weave_gate_set() -> GateSet:
    """Identity plus the four weave squares, on one qubit."""
    return GateSet.from_specs(1, fibonacci_generators()[4:])


# ---------------------------------------------------------------------------
# JSON wire format for gates, gate sets and circuits
# ---------------------------------------------------------------------------


def _matrix_to_json(m: np.ndarray) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in np.asarray(m, dtype=complex)]


def _matrix_from_json(data) -> np.ndarray:
    arr = np.asarray(data, dtype=float)
    if arr.ndim != 3 or arr.shape[2] != 2 or arr.shape[0] != arr.shape[1]:
        raise GateSetError("matrix literals must be square arrays of [re, im] pairs")
    return arr[..., 0] + 1j * arr[..., 1]


def spec_from_dict(entry: dict) -> GateSpec:
    """A gate from its wire form {"name", "qubits"[, "angle"][, "matrix"]}."""
    if not (isinstance(entry, dict) and "name" in entry and "qubits" in entry):
        raise GateSetError(f"gate entry {entry!r:.60} needs 'name' and 'qubits'")
    try:
        matrix = _matrix_from_json(entry["matrix"]) if "matrix" in entry else None
        return gate_spec(entry["name"], tuple(entry["qubits"]),
                         angle=entry.get("angle"), matrix=matrix)
    except TypeError as exc:
        raise GateSetError(f"gate entry {entry!r:.60}: {exc}") from exc


def spec_to_dict(spec: GateSpec) -> dict:
    """Wire form of a gate; the matrix is written for non-built-in gates only."""
    out: dict = {"name": spec.name, "qubits": list(spec.qubits)}
    if spec.angle is not None:
        out["angle"] = float(spec.angle)
    if spec.name not in _FIXED and spec.name not in _ANGLED:
        out["matrix"] = _matrix_to_json(spec.matrix)
    return out


def circuit_from_doc(doc: dict) -> tuple[list[GateSpec], int]:
    """Gate list and register of a gate-list document {"qubits": Q, "gates": [...]}.

    Gate-set files, circuit files, RHO seeds and reports share this format;
    a report's document sits under "circuit".  The register must hold at
    least one qubit and every qubit a gate names.
    """
    try:
        if "circuit" in doc and "gates" not in doc:
            doc = doc["circuit"]
        num_qubits = checked_integer(doc["qubits"], "gate-list document 'qubits'")
        entries = doc["gates"]
        if not isinstance(entries, list):
            raise TypeError(f"'gates' must be a list, got {type(entries).__name__}")
    except (KeyError, TypeError) as exc:
        raise GateSetError(f"gate-list document needs 'qubits' and 'gates': {exc}") from exc
    specs = [spec_from_dict(e) for e in entries]
    needed = max((q for s in specs for q in s.qubits), default=1)
    if num_qubits < needed:
        raise GateSetError(f"gate-list document declares {num_qubits} qubit(s) "
                           f"but needs at least {needed}")
    return specs, num_qubits


def circuit_doc(specs: Iterable[GateSpec], num_qubits: int) -> dict:
    """The gate-list document circuit_from_doc reads back."""
    return {"qubits": num_qubits, "gates": [spec_to_dict(s) for s in specs]}


def gate_set_from_dict(data: dict) -> GateSet:
    """Gate set of a gate-list document; the identity is added if absent."""
    specs, num_qubits = circuit_from_doc(data)
    return GateSet.from_specs(num_qubits, specs)


def gate_set_to_dict(gs: GateSet) -> dict:
    return circuit_doc((g.spec for g in gs), gs.num_qubits)


__all__ = [
    "MAX_QUBITS",
    "GateSpec",
    "ExtendedGate",
    "GateSet",
    "builtin_gate",
    "builtin_names",
    "gate_spec",
    "identity_spec",
    "front_permutation",
    "extend_gate",
    "sequence_product",
    "acts_trivially",
    "fibonacci_generators",
    "weave_gate_set",
    "spec_from_dict",
    "spec_to_dict",
    "circuit_from_doc",
    "circuit_doc",
    "gate_set_from_dict",
    "gate_set_to_dict",
]
