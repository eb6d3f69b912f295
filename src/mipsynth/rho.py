"""Rolling-horizon optimization of long circuits through small resynthesis windows.

A circuit is a list of GateSpecs on 1-based register qubits, gate 1 applied
first; its gates may be builtins or matrix literals.  The circuit is consumed
front to back.  Each step grows a block from the first remaining gate by
closing over shared qubits inside an ever longer prefix, stops before the
block exceeds the window's gate or qubit budget, re-synthesizes the block on
its own qubits from the builtin window gates, accepts a fixed number of the
optimized gates, and pushes the remainder back onto the unprocessed tail.
Gates skipped over by a block share no qubit with it, so commuting the block
to the front never changes the circuit's unitary.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .cuts import CutSelection
from .encoding import fidelity
from .errors import BackendError, ConfigError, OracleInconclusiveError
from .formulation import SynthesisProblem, synthesize
from .gates import (GateSet, GateSpec, builtin_gate, extend_gate, gate_spec,
                    sequence_product)
from .oracle import checked_time_limit

#: Largest register (in qubits) on which the final unitary check runs.
VERIFY_MAX_QUBITS = 9


def circuit_qubits(circuit: list[GateSpec]) -> int:
    return max((q for g in circuit for q in g.qubits), default=0)


def circuit_unitary(circuit: list[GateSpec], num_qubits: int | None = None) -> np.ndarray:
    """Full-register unitary, gate 1 applied first."""
    nq = circuit_qubits(circuit) if num_qubits is None else num_qubits
    return sequence_product((extend_gate(g, nq).full for g in circuit), 2 ** nq)


def gates_on_qubits_up_to(circuit: list[GateSpec], qubits: set[int],
                          prefix_len: int) -> list[int]:
    """Indices within the first prefix_len gates that touch any given qubit."""
    end = min(prefix_len, len(circuit))
    return [p for p in range(end) if not qubits.isdisjoint(circuit[p].qubits)]


def recursive_gates_on_qubits_up_to(circuit: list[GateSpec], qubits: set[int],
                                    prefix_len: int) -> tuple[list[int], set[int]]:
    """Close the qubit set under shared-qubit contact inside a prefix.

    Gates touching the set pull their own qubits in, which may pull further
    gates, until nothing changes.  Returns the touched gate indices in
    circuit order together with the final qubit set.
    """
    q = set(qubits)
    idx = gates_on_qubits_up_to(circuit, q, prefix_len)
    while True:
        q_next: set[int] = set()
        for p in idx:
            q_next.update(circuit[p].qubits)
        if q_next == q:
            return idx, q
        q = q_next
        idx = gates_on_qubits_up_to(circuit, q, prefix_len)


def find_first_block(circuit: list[GateSpec], window_length: int,
                     max_qubits: int) -> list[int]:
    """Largest closed block from the front within the gate and qubit budgets.

    The prefix bound grows one gate at a time; the block is the last closed
    set seen before either budget broke or the input ran out.  A first gate
    that alone breaks the qubit budget (or touches no qubit) still makes a
    single-gate block, so the caller always progresses.
    """
    if not circuit:
        return []
    q = set(circuit[0].qubits)
    best: list[int] = []
    i = 1
    while True:
        idx, q = recursive_gates_on_qubits_up_to(circuit, q, i)
        if i > len(circuit) or len(idx) > window_length or len(q) > max_qubits:
            break
        if len(idx) == window_length:
            return idx
        best = idx
        i += 1
    if not best:
        return [0]
    return best


def retarget(circuit: list[GateSpec], block: list[int]) -> list[GateSpec]:
    """Remaining circuit after removing the block's gate instances."""
    drop = set(block)
    return [g for p, g in enumerate(circuit) if p not in drop]


def window_gate_set(prototypes, num_qubits: int) -> GateSet:
    """Instantiate library prototypes on every qubit assignment of a window.

    Prototypes are builtin names, or (name, angle) pairs for angled gates.
    One-qubit prototypes land on each wire, two-qubit ones on each ordered
    pair; exact duplicate matrices (symmetric gates) are emitted once.
    """
    import itertools

    specs = []
    for proto in prototypes:
        name, angle = proto if isinstance(proto, tuple) else (proto, None)
        base = builtin_gate(name, angle)
        arity = int(round(np.log2(base.shape[0])))
        if arity > num_qubits:
            continue
        for qs in itertools.permutations(range(1, num_qubits + 1), arity):
            specs.append(gate_spec(name, qs, angle=angle))

    def key(sp):
        return (len(sp.qubits), sp.name, sp.qubits)

    # stable, readable ordering: 1-qubit gates first, then by name and wires
    ordered = sorted(specs, key=key)
    # dedupe is on full extended matrices too: symmetric 2-qubit gates
    eg = [extend_gate(sp, num_qubits) for sp in ordered]
    kept, full_seen = [], []
    for g in eg:
        if any(np.abs(f - g.full).max() <= 1e-12 for f in full_seen):
            continue
        full_seen.append(g.full)
        kept.append(g.spec)
    return GateSet.from_specs(num_qubits, kept, add_identity=True)


@dataclass
class RhoConfig:
    """Window budgets and the resynthesis engine for rolling-horizon runs."""

    window_length: int = 10
    accept_window: int = 5
    max_qubits: int = 3
    window_gates: tuple = ("CNOT", "H", "S")
    backend: str = "oracle"
    time_limit_per_window: float | None = None
    passes: int = 4
    cuts: CutSelection = field(default_factory=CutSelection)

    def __post_init__(self) -> None:
        if self.window_length < 1:
            raise ConfigError("window_length must be >= 1")
        if self.accept_window < 1:
            raise ConfigError("accept_window must be >= 1")
        if self.max_qubits < 1:
            raise ConfigError("max_qubits must be >= 1")
        if self.passes < 1:
            raise ConfigError("passes must be >= 1")
        self.time_limit_per_window = checked_time_limit(self.time_limit_per_window,
                                                        "time_limit_per_window")


@dataclass
class RhoResult:
    circuit: list[GateSpec]
    input_length: int
    pass_lengths: list[int]
    fidelity_to_input: float | None
    num_qubits: int
    seconds: float
    window_log: list = field(default_factory=list)

    @property
    def windows_optimized(self) -> int:
        return sum(e["action"] == "optimized" for e in self.window_log)

    @property
    def windows_passed_through(self) -> int:
        return sum(e["action"] == "kept" for e in self.window_log)


def _optimize_window(block: list[GateSpec], cfg: RhoConfig) -> list[GateSpec] | None:
    """Resynthesize one block on its own qubits; None means keep it as is."""
    wires = sorted({q for g in block for q in g.qubits})
    local = {q: x + 1 for x, q in enumerate(wires)}
    k = len(wires)
    target = circuit_unitary(
        [replace(g, qubits=tuple(local[q] for q in g.qubits)) for g in block], k)
    gs = window_gate_set(cfg.window_gates, k)

    m = len(block)
    problem = SynthesisProblem(target=target, gate_set=gs, P=m,
                               objective="weighted_gate_count",
                               phase_mode="exact", cuts=cfg.cuts)
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", message=".*normalized to unit determinant.*")
            result = synthesize(problem, backend=cfg.backend,
                                time_limit=cfg.time_limit_per_window)
    except (OracleInconclusiveError, BackendError) as exc:
        warnings.warn(f"window resynthesis gave up ({exc}); keeping the original "
                      f"{m}-gate block", stacklevel=2)
        return None
    if not result.feasible:
        if result.status == "time_limit":
            warnings.warn(f"window resynthesis timed out; keeping the original "
                          f"{m}-gate block", stacklevel=2)
        return None
    return [replace(spec, qubits=tuple(wires[q - 1] for q in spec.qubits))
            for spec in result.sequence]


def rolling_horizon_pass(circuit: list[GateSpec], cfg: RhoConfig,
                         log: list | None = None,
                         pass_index: int = 0) -> list[GateSpec]:
    """One front-to-back sweep of block extraction and resynthesis.

    When `log` is given, one entry per window is appended to it.
    """
    t = list(circuit)
    out: list[GateSpec] = []

    def record(entry: dict) -> None:
        if log is not None:
            log.append({**entry, "pass": pass_index})

    while t:
        idx = find_first_block(t, cfg.window_length, cfg.max_qubits)
        block = [t[p] for p in idx]
        t = retarget(t, idx)
        block_qubits = {q for g in block for q in g.qubits}
        entry = {"positions": list(idx), "qubits": sorted(block_qubits),
                 "gates_in": len(block)}
        if len(block_qubits) <= 1 or len(block) == 1:
            record({**entry, "action": "skipped", "gates_out": len(block)})
            out.extend(block)
            continue
        optimized = _optimize_window(block, cfg)
        if optimized is None:
            record({**entry, "action": "kept", "gates_out": len(block)})
            out.extend(block)
            continue
        record({**entry, "action": "optimized", "gates_out": len(optimized),
                "saved": len(block) - len(optimized)})
        if not t:
            out.extend(optimized)
        elif len(optimized) >= cfg.accept_window:
            out.extend(optimized[:cfg.accept_window])
            t = optimized[cfg.accept_window:] + t
        else:
            out.extend(optimized)
    return out


def rolling_horizon(circuit: list[GateSpec], cfg: RhoConfig | None = None) -> RhoResult:
    """Multi-pass rolling-horizon compression of a circuit.

    Passes repeat on the previous output until one fails to shorten it or
    the pass budget runs out.  When the register has at most
    VERIFY_MAX_QUBITS qubits the final circuit is checked against the input
    up to a global phase.
    """
    cfg = cfg or RhoConfig()
    t0 = time.perf_counter()
    current = list(circuit)
    lengths = [len(current)]
    log: list = []
    for k in range(cfg.passes):
        new = rolling_horizon_pass(current, cfg, log, pass_index=k + 1)
        lengths.append(len(new))
        improved = len(new) < len(current)
        current = new
        if not improved:
            break
    nq = max(circuit_qubits(circuit), circuit_qubits(current))
    fid = None
    if nq <= VERIFY_MAX_QUBITS and circuit:
        u_in = circuit_unitary(circuit, nq)
        u_out = circuit_unitary(current, nq)
        fid = fidelity(u_out, u_in)
        if fid < 1 - 1e-9:
            raise BackendError(
                f"rolling horizon changed the circuit's unitary: fidelity {fid!r}")
    return RhoResult(circuit=current, input_length=len(circuit),
                     pass_lengths=lengths, fidelity_to_input=fid, num_qubits=nq,
                     seconds=time.perf_counter() - t0, window_log=log)


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


__all__ = [
    "RhoConfig", "RhoResult", "VERIFY_MAX_QUBITS",
    "circuit_qubits", "circuit_unitary",
    "gates_on_qubits_up_to", "recursive_gates_on_qubits_up_to",
    "find_first_block", "retarget", "window_gate_set",
    "rolling_horizon_pass", "rolling_horizon", "parity_ladder_zzz",
]
