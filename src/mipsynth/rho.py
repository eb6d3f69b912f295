"""Rolling-horizon optimization of long circuits through small resynthesis windows.

A circuit is a list of GateSpecs on 1-based register qubits, gate 1 applied
first; its gates may be builtins or matrix literals.  The circuit is consumed
front to back.  Each step grows a block from the first remaining gate by
closing over shared qubits inside an ever longer prefix, stops before the
block exceeds the window's gate or qubit budget, re-synthesizes the block on
its own qubits from the builtin window gates, accepts a fixed number of the
optimized gates, and pushes the remainder back onto the unprocessed tail.
Gates skipped over by a block share no qubit with it, so commuting the block
to the front never changes the circuit's unitary.  A pass builds the window
gate set once per window qubit count and reuses it for every window of that
width.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .cuts import CutSelection
from .encoding import VERIFY_TOL, equal_matrices, fidelity
from .errors import BackendError, ConfigError, OracleInconclusiveError, checked_integer
from .formulation import SynthesisProblem, synthesize
from .gates import (MAX_QUBITS, GateSet, GateSpec, builtin_gate, extend_gate,
                    gate_spec, sequence_product)
from .oracle import checked_time_limit

#: Largest register (in qubits) on which the final unitary check runs.
VERIFY_MAX_QUBITS = 9


def circuit_qubits(circuit: list[GateSpec]) -> int:
    return max((q for g in circuit for q in g.qubits), default=0)


def circuit_unitary(circuit: list[GateSpec], num_qubits: int | None = None) -> np.ndarray:
    """Full-register unitary, gate 1 applied first."""
    nq = circuit_qubits(circuit) if num_qubits is None else num_qubits
    return sequence_product((extend_gate(g, nq).full for g in circuit), 2 ** nq)


def find_first_block(circuit: list[GateSpec], window_length: int,
                     max_qubits: int) -> list[int]:
    """Largest closed block from the front within the gate and qubit budgets.

    The prefix bound grows one gate at a time, and inside it gates touching
    the qubit set pull their qubits in until the set is closed; the block is
    the last closed set seen before either budget broke or the input ran
    out.  A first gate that alone breaks the qubit budget (or touches no
    qubit) still makes a single-gate block, so the caller always progresses.
    """
    if not circuit:
        return []
    qubits = set(circuit[0].qubits)
    best: list[int] = []
    for end in range(1, len(circuit) + 1):
        while True:
            idx = [p for p in range(end) if not qubits.isdisjoint(circuit[p].qubits)]
            grown = {q for p in idx for q in circuit[p].qubits}
            if grown == qubits:
                break
            qubits = grown
        if len(idx) > window_length or len(qubits) > max_qubits:
            break
        if len(idx) == window_length:
            return idx
        best = idx
    return best or [0]


def retarget(circuit: list[GateSpec], block: list[int]) -> list[GateSpec]:
    """Remaining circuit after removing the block's gate instances."""
    drop = set(block)
    return [g for p, g in enumerate(circuit) if p not in drop]


def window_gate_set(prototypes, num_qubits: int) -> GateSet:
    """Instantiate library prototypes on every qubit assignment of a window.

    Prototypes are builtin names, or [name, angle] pairs (any two-item
    sequence) for angled gates.
    One-qubit prototypes land on each wire, two-qubit ones on each ordered
    pair; duplicate matrices (symmetric gates) are emitted once.
    """
    import itertools

    specs = []
    for proto in prototypes:
        name, angle = (proto, None) if isinstance(proto, str) else proto
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
        if any(equal_matrices(f, g.full) for f in full_seen):
            continue
        full_seen.append(g.full)
        kept.append(g.spec)
    return GateSet.from_specs(num_qubits, kept)


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
        for name in ("window_length", "accept_window", "max_qubits", "passes"):
            setattr(self, name, checked_integer(getattr(self, name), name))
        if self.window_length < 1:
            raise ConfigError("window_length must be >= 1")
        if self.accept_window < 1:
            raise ConfigError("accept_window must be >= 1")
        if not 1 <= self.max_qubits <= MAX_QUBITS:
            raise ConfigError(f"max_qubits must lie in [1, {MAX_QUBITS}], "
                              f"got {self.max_qubits}")
        if self.passes < 1:
            raise ConfigError("passes must be >= 1")
        if not self.window_gates:
            raise ConfigError("window_gates must name at least one gate")
        try:
            # every prototype is built, two-qubit ones before they are dropped
            window_gate_set(self.window_gates, 1)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"window_gates {self.window_gates!r}: {exc}") from exc
        self.time_limit_per_window = checked_time_limit(self.time_limit_per_window,
                                                        "time_limit_per_window")


@dataclass
class RhoResult:
    circuit: list[GateSpec]
    input_length: int
    pass_lengths: list[int]
    fidelity_to_input: float | None
    num_qubits: int
    window_log: list = field(default_factory=list)

    @property
    def windows_optimized(self) -> int:
        return sum(e["action"] == "optimized" for e in self.window_log)

    @property
    def windows_passed_through(self) -> int:
        return sum(e["action"] == "kept" for e in self.window_log)


def _optimize_window(block: list[GateSpec], cfg: RhoConfig,
                     gate_sets: dict[int, GateSet]
                     ) -> tuple[list[GateSpec] | None, int | None, float | None]:
    """Resynthesize one block on its own qubits.

    Returns the new gates, None to keep the block as is; the search nodes
    of the answer (None when the engine gave up without one); and the new
    gates' deviation from the block, sqrt(error_fro_sq / 2), the Frobenius
    distance of the two in the window's exact-mode instance (None for a
    kept block).  `gate_sets` holds the window gate set of each qubit count
    built so far.
    """
    wires = sorted({q for g in block for q in g.qubits})
    local = {q: x + 1 for x, q in enumerate(wires)}
    k = len(wires)
    target = circuit_unitary(
        [replace(g, qubits=tuple(local[q] for q in g.qubits)) for g in block], k)
    if k not in gate_sets:
        gate_sets[k] = window_gate_set(cfg.window_gates, k)
    gs = gate_sets[k]

    m = len(block)
    problem = SynthesisProblem(target=target, gate_set=gs, P=m,
                               objective="weighted_gate_count",
                               phase_mode="exact", cuts=cfg.cuts)
    try:
        result = synthesize(problem, backend=cfg.backend,
                            time_limit=cfg.time_limit_per_window)
    except (OracleInconclusiveError, BackendError) as exc:
        warnings.warn(f"window resynthesis gave up ({exc}); keeping the original "
                      f"{m}-gate block", stacklevel=2)
        return None, None, None
    nodes = result.certificate.get("nodes")
    if not result.feasible:
        if result.status == "time_limit":
            warnings.warn(f"window resynthesis timed out; keeping the original "
                          f"{m}-gate block", stacklevel=2)
        return None, nodes, None
    return ([replace(spec, qubits=tuple(wires[q - 1] for q in spec.qubits))
             for spec in result.sequence], nodes, float(np.sqrt(result.error_fro_sq / 2)))


def rolling_horizon_pass(circuit: list[GateSpec], cfg: RhoConfig,
                         log: list | None = None,
                         pass_index: int = 0) -> list[GateSpec]:
    """One front-to-back sweep of block extraction and resynthesis.

    When `log` is given, one entry per window is appended to it; a
    resynthesized window's entry carries its wall time in `seconds` and the
    search nodes of its answer in `nodes`, and an optimized window's entry
    its deviation from the block in `deviation` (see _optimize_window).
    """
    t = list(circuit)
    out: list[GateSpec] = []
    gate_sets: dict[int, GateSet] = {}

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
        t0 = time.perf_counter()
        optimized, nodes, deviation = _optimize_window(block, cfg, gate_sets)
        entry.update(seconds=time.perf_counter() - t0, nodes=nodes)
        if optimized is None:
            record({**entry, "action": "kept", "gates_out": len(block)})
            out.extend(block)
            continue
        record({**entry, "action": "optimized", "gates_out": len(optimized),
                "saved": len(block) - len(optimized), "deviation": deviation})
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
    VERIFY_MAX_QUBITS qubits, fidelity_to_input is reported and the final
    circuit must equal the input up to a global phase within the errors
    the windows add up to.  Each optimized window is within its `deviation`
    d_i of the block it replaced, up to a phase, in the Frobenius norm and
    so in the operator norm.  Products of unitaries add operator-norm
    errors, so the output U is within e = sum_i d_i of c*V, V the input,
    for one phase c.  The check rotates U by the phase of tr(V^dag U), as
    equal_matrices does, and that phase is at most 2e off c, which gives
    3e per entry: every entry must be within VERIFY_TOL + 3e.  For exact
    words e is rounding, and the bound stays within about 1e-14 of
    VERIFY_TOL.
    """
    cfg = cfg or RhoConfig()
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
        bound = VERIFY_TOL + 3 * sum(e.get("deviation", 0.0) for e in log)
        off = np.abs(u_in - u_out * np.exp(-1j * np.angle(np.vdot(u_in, u_out)))).max()
        if not off <= bound:
            raise BackendError(
                f"rolling horizon changed the circuit's unitary: fidelity {fid!r}, "
                f"entries off by {off:.3e}, more than the windows' {bound:.3e}")
    return RhoResult(circuit=current, input_length=len(circuit),
                     pass_lengths=lengths, fidelity_to_input=fid, num_qubits=nq,
                     window_log=log)


__all__ = [
    "RhoConfig", "RhoResult", "VERIFY_MAX_QUBITS",
    "circuit_qubits", "circuit_unitary",
    "find_first_block", "retarget", "window_gate_set",
    "rolling_horizon_pass", "rolling_horizon",
]
