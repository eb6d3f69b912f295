"""Command-line front end: synthesis runs, reports, and circuit files.

Subcommands map onto the library pipeline: ``synthesize`` and ``approx``
build and solve one MILP instance, ``oracle`` routes the same instance
through exhaustive search, ``rho`` compresses a long circuit window by
window, ``verify`` recomputes everything checkable about a circuit file
without any solving, and ``relations`` prints the detected gate-set
relations.  Configuration comes from a JSON file, command-line flags, or
both; flags win.  Every run can emit a machine-readable JSON report whose
embedded circuit is itself a valid ``verify`` input.

Exit codes: 0 optimal, 2 feasible but not proven optimal, 3 infeasible,
4 budget exhausted with no solution, 64 bad configuration, 70 backend
failure.
"""

from __future__ import annotations

import argparse
import ast
import concurrent.futures
import json
import math
import operator
import os
import re
import sys
import time
from collections import Counter

import jsonschema
import numpy as np

from .cuts import CutSelection
from .encoding import fidelity
from .errors import (BackendError, ConfigError, DimensionError, GateSetError,
                     ModelIntegrityError, OracleInconclusiveError)
from .fixtures import (benchmark_registry, brickwork_circuit,
                       golden_weave_circuit, k4_parity_seed, k5_parity_seed,
                       standard_target, standard_target_names)
from .formulation import (OBJECTIVES, TARGET_OBJECTIVES, SynthesisProblem,
                          SynthesisResult, build_model, schedule_depth,
                          synthesize)
from .gates import (GateSet, GateSpec, _matrix_from_json, builtin_gate,
                    builtin_names, extend_gate, gate_set_from_dict, gate_spec,
                    spec_from_dict, spec_to_dict, weave_gate_set)
from .relations import detect_relations
from .rho import RhoConfig, circuit_unitary, rolling_horizon

EXIT_OPTIMAL = 0
EXIT_FEASIBLE = 2
EXIT_INFEASIBLE = 3
EXIT_NO_SOLUTION = 4
EXIT_SCHEMA = 64
EXIT_BACKEND = 70

_STATUS_CODE = {"optimal": EXIT_OPTIMAL, "feasible": EXIT_FEASIBLE,
                "infeasible": EXIT_INFEASIBLE, "time_limit": EXIT_NO_SOLUTION}

APPROX_OBJECTIVES = ("linearized_fidelity", "frobenius_oa", "exact_fidelity")

# ---------------------------------------------------------------------------
# RunConfig schema
# ---------------------------------------------------------------------------

_MATRIX_LITERAL = {
    "type": "array",
    "items": {"type": "array",
              "items": {"type": "array", "items": {"type": "number"},
                        "minItems": 2, "maxItems": 2}},
}

_TARGET_SCHEMA = {
    "oneOf": [
        {"type": "string"},
        {"type": "object", "properties": {"name": {"type": "string"}},
         "required": ["name"], "additionalProperties": False},
        {"type": "object", "properties": {"file": {"type": "string"}},
         "required": ["file"], "additionalProperties": False},
        {"type": "object", "properties": {"matrix": _MATRIX_LITERAL},
         "required": ["matrix"], "additionalProperties": False},
    ]
}

_GATE_ENTRY = {
    "type": "object",
    "properties": {"name": {"type": "string"},
                   "qubits": {"type": "array", "items": {"type": "integer"}},
                   "angle": {"type": "number"},
                   "matrix": _MATRIX_LITERAL},
    "required": ["name", "qubits"],
    "additionalProperties": False,
}

_GATESET_SCHEMA = {
    "oneOf": [
        {"type": "string"},
        {"type": "object", "properties": {"file": {"type": "string"}},
         "required": ["file"], "additionalProperties": False},
        {"type": "object",
         "properties": {"qubits": {"type": "integer", "minimum": 1},
                        "gates": {"type": "array", "items": _GATE_ENTRY}},
         "required": ["qubits", "gates"], "additionalProperties": False},
    ]
}

_RHO_SCHEMA = {
    "type": "object",
    "properties": {
        "seed": {"oneOf": [{"type": "string"},
                           {"type": "object"}]},
        "window_length": {"type": "integer", "minimum": 1},
        "accept_window": {"type": "integer", "minimum": 1},
        "max_qubits": {"type": "integer", "minimum": 1},
        "window_gates": {"type": "array",
                         "items": {"oneOf": [{"type": "string"},
                                             {"type": "array", "minItems": 2,
                                              "maxItems": 2}]}},
        "passes": {"type": "integer", "minimum": 1},
        "time_limit_per_window": {"type": "number", "exclusiveMinimum": 0},
    },
    "additionalProperties": False,
}

#: Everything a run may be configured with.  Unknown keys are rejected.
CONFIG_SCHEMA = {
    "type": "object",
    "properties": {
        "fixture": {"type": "string"},
        "target": _TARGET_SCHEMA,
        "gate_set": _GATESET_SCHEMA,
        "P": {"type": "integer", "minimum": 1},
        "D": {"type": "integer", "minimum": 1},
        "objective": {"enum": list(OBJECTIVES)},
        "phase_mode": {"enum": ["exact", "global", "global_phase"]},
        "weights": {"type": "array", "items": {"type": "number"}},
        "epsilon": {"type": "number"},
        "K": {"type": "integer"},
        "cuts": {"oneOf": [{"type": "string"},
                           {"type": "array", "items": {"type": "string"}}]},
        "backend": {"type": "string"},
        "time_limit": {"type": "number", "exclusiveMinimum": 0},
        "rho": _RHO_SCHEMA,
        "report": {"type": "string"},
    },
    "additionalProperties": False,
}


def validate_config(cfg: dict) -> dict:
    """Schema-check a run configuration; returns it unchanged on success."""
    jsonschema.validate(instance=cfg, schema=CONFIG_SCHEMA)
    return cfg


# ---------------------------------------------------------------------------
# Circuit files
# ---------------------------------------------------------------------------


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


_QASM_NAMES = {"h": "H", "x": "X", "y": "Y", "z": "Z", "s": "S", "sdg": "Sdg",
               "t": "T", "tdg": "Tdg", "cx": "CNOT", "cnot": "CNOT",
               "cz": "CZ", "id": "I", "rx": "RX", "ry": "RY", "rz": "RZ"}
_QASM_SKIP = ("openqasm", "include", "barrier", "//")
#: Statements that are not gate applications: declarations, measurement,
#: classical control and gate definitions.
_QASM_STATEMENTS = {"creg", "measure", "reset", "if", "gate", "opaque"}
_ANGLE_OPS = {ast.Add: operator.add, ast.Sub: operator.sub,
              ast.Mult: operator.mul, ast.Div: operator.truediv}


def _eval_angle(expr: str) -> float:
    """Angle expressions over numbers and `pi` with + - * / and unary minus.

    The expression is parsed, never evaluated as Python, so no input can run
    code or start an unbounded computation.
    """
    def value(node: ast.AST) -> float:
        if isinstance(node, ast.Constant) and type(node.value) in (int, float):
            return float(node.value)
        if isinstance(node, ast.Name) and node.id == "pi":
            return math.pi
        if isinstance(node, ast.BinOp) and type(node.op) in _ANGLE_OPS:
            return _ANGLE_OPS[type(node.op)](value(node.left), value(node.right))
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return -value(node.operand)
        raise ConfigError(f"cannot parse angle expression {expr!r}: only "
                          "numbers, pi, + - * / and unary minus are allowed")

    try:
        angle = value(ast.parse(expr.strip(), mode="eval").body)
    except (SyntaxError, RecursionError, ZeroDivisionError, OverflowError) as exc:
        raise ConfigError(f"cannot parse angle expression {expr!r}: {exc}") from exc
    if not math.isfinite(angle):
        raise ConfigError(f"angle expression {expr!r} is not finite")
    return angle


def parse_qasm(text: str) -> tuple[list[GateSpec], int]:
    """Named-gate subset of OPENQASM 2.0; no classical control.

    One quantum register, the gates of `_QASM_NAMES`, and rotation angles
    as arithmetic over `pi`.  Anything else is rejected.
    """
    num_qubits = 0
    specs: list[GateSpec] = []
    for raw in text.split(";"):
        line = raw.strip()
        if not line or any(line.lower().startswith(p) for p in _QASM_SKIP):
            continue
        m = re.match(r"^qreg\s+(\w+)\s*\[\s*(\d+)\s*\]$", line)
        if m:
            if num_qubits:
                raise GateSetError("only one quantum register is supported")
            num_qubits = int(m.group(2))
            continue
        m = re.match(r"^(\w+)\s*(?:\(([^)]*)\))?\s+(.+)$", line)
        if not m or m.group(1).lower() in _QASM_STATEMENTS:
            raise GateSetError(f"QASM statement is not supported: {line!r}")
        name, angle_expr, args = m.group(1).lower(), m.group(2), m.group(3)
        if name not in _QASM_NAMES:
            raise GateSetError(f"QASM gate {name!r} is not supported")
        qubits = tuple(int(q) + 1 for q in re.findall(r"\[\s*(\d+)\s*\]", args))
        if not qubits:
            raise GateSetError(f"could not read qubit arguments in {line!r}")
        angle = _eval_angle(angle_expr) if angle_expr else None
        specs.append(gate_spec(_QASM_NAMES[name], qubits, angle=angle))
    if not num_qubits:
        num_qubits = max((q for s in specs for q in s.qubits), default=1)
    return specs, num_qubits


def circuit_from_doc(doc: dict) -> tuple[list[GateSpec], int]:
    """Gate list from a circuit document or from a report embedding one."""
    if "circuit" in doc and "gates" not in doc:
        doc = doc["circuit"]
    try:
        num_qubits = int(doc["qubits"])
        entries = doc["gates"]
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"circuit document needs 'qubits' and 'gates': {exc}") from exc
    return [spec_from_dict(e) for e in entries], num_qubits


def load_circuit(path: str) -> tuple[list[GateSpec], int]:
    if path.endswith(".qasm"):
        with open(path, "r", encoding="utf-8") as fh:
            return parse_qasm(fh.read())
    return circuit_from_doc(_load_json(path))


def circuit_doc(specs: list[GateSpec], num_qubits: int) -> dict:
    return {"qubits": num_qubits,
            "gates": [spec_to_dict(s) for s in specs]}


# ---------------------------------------------------------------------------
# Config resolution
# ---------------------------------------------------------------------------

_NAMED_SEEDS = {
    "k5_parity": k5_parity_seed,
    "k4_parity": k4_parity_seed,
    "brickwork": brickwork_circuit,
    "weave_h": lambda: golden_weave_circuit("H"),
    "weave_x": lambda: golden_weave_circuit("X"),
    "weave_t": lambda: golden_weave_circuit("T"),
}

_ANGLED_TARGET = re.compile(r"^([A-Za-z_]\w*)\((.+)\)$")


def _matrix_from_file(path: str) -> np.ndarray:
    if path.endswith(".qasm"):
        return circuit_unitary(*load_circuit(path))
    doc = _load_json(path)
    if isinstance(doc, list):
        return _matrix_from_json(doc)
    if "matrix" in doc:
        return _matrix_from_json(doc["matrix"])
    if "gates" in doc or "circuit" in doc:
        specs, nq = circuit_from_doc(doc)
        return circuit_unitary(specs, nq)
    raise ConfigError(f"{path}: no matrix, circuit, or report content found")


def resolve_target(cfg: dict, registry: dict, dim_hint: int | None) -> np.ndarray:
    """Target by fixture, name, file, or matrix literal."""
    t = cfg.get("target")
    if t is None:
        fx = cfg.get("fixture")
        if fx is not None:
            if fx not in registry:
                raise ConfigError(f"unknown fixture {fx!r}; known: "
                                  f"{sorted(registry)}")
            return registry[fx].target
        raise ConfigError("no target given (use target or fixture)")
    if isinstance(t, dict):
        if "matrix" in t:
            return _matrix_from_json(t["matrix"])
        if "file" in t:
            return _matrix_from_file(t["file"])
        t = t["name"]
    if t in ("identity", "1"):
        if dim_hint is None:
            raise ConfigError("identity target needs a gate set to fix the dimension")
        return np.eye(dim_hint, dtype=complex)
    if t in standard_target_names():
        return standard_target(t)
    if t in registry:
        return registry[t].target
    m = _ANGLED_TARGET.match(t)
    if m and m.group(1) in ("RX", "RY", "RZ"):
        return builtin_gate(m.group(1), _eval_angle(m.group(2)))
    if t in builtin_names():
        return builtin_gate(t)
    if os.path.exists(t):
        return _matrix_from_file(t)
    raise ConfigError(f"unknown target {t!r}: not a standard target, fixture, "
                      f"builtin gate, or readable file")


def resolve_gate_set(cfg: dict, registry: dict) -> GateSet:
    g = cfg.get("gate_set")
    if g is None:
        fx = cfg.get("fixture")
        if fx is not None:
            if fx not in registry:
                raise ConfigError(f"unknown fixture {fx!r}; known: "
                                  f"{sorted(registry)}")
            return registry[fx].gate_set
        raise ConfigError("no gate set given (use gate_set or fixture)")
    if isinstance(g, dict):
        if "file" in g:
            return gate_set_from_dict(_load_json(g["file"]))
        return gate_set_from_dict(g)
    if g == "weaves":
        return weave_gate_set()
    if g in registry:
        return registry[g].gate_set
    if os.path.exists(g):
        return gate_set_from_dict(_load_json(g))
    raise ConfigError(f"unknown gate set {g!r}: not a fixture name or readable file")


def _phase_mode(cfg: dict) -> str:
    mode = cfg.get("phase_mode", "exact")
    return "global_phase" if mode == "global" else mode


def build_problem(cfg: dict, allowed_objectives: tuple[str, ...]) -> SynthesisProblem:
    registry = benchmark_registry()
    gs = resolve_gate_set(cfg, registry)
    target = resolve_target(cfg, registry, gs.dim)
    fx = cfg.get("fixture")
    p = cfg.get("P", registry[fx].P if fx in registry else None)
    if p is None:
        raise ConfigError("no gate budget given (use P or fixture)")
    objective = cfg.get("objective", allowed_objectives[0])
    if objective not in allowed_objectives:
        raise ConfigError(f"objective {objective!r} is not valid here; "
                          f"choose from {allowed_objectives}")
    weights = cfg.get("weights")
    kwargs = dict(
        target=target, gate_set=gs, P=int(p), D=cfg.get("D"),
        objective=objective, phase_mode=_phase_mode(cfg),
        weights=None if weights is None else np.asarray(weights, dtype=float),
        cuts=CutSelection.from_names(cfg.get("cuts", "identity")),
    )
    if "epsilon" in cfg:
        kwargs["epsilon"] = float(cfg["epsilon"])
    if "K" in cfg:
        kwargs["K"] = int(cfg["K"])
    return SynthesisProblem(**kwargs)


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


def sequence_counts(specs: list[GateSpec]) -> dict:
    per_gate = Counter(s.name for s in specs)
    return {
        "total": len(specs),
        "per_gate": dict(sorted(per_gate.items())),
        "entangling": sum(1 for s in specs if len(s.qubits) >= 2),
        "t_count": sum(1 for s in specs if s.name.upper() in ("T", "TDG")),
    }


def _jsonable(value):
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.integer):
        return int(value)
    return value


def make_report(command: str, cfg: dict, problem: SynthesisProblem,
                result: SynthesisResult, wall: float) -> dict:
    """Assemble the machine-readable outcome of one solve.

    Fidelity, depth and schedule are the verified ones the synthesis result
    carries (formulation.verify_sequence); the ``verify`` subcommand rechecks
    a report's circuit independently.
    """
    nq = problem.num_qubits
    cert = result.certificate
    report = {
        "command": command,
        "config": cfg,
        "status": result.status,
        "sequence": [spec_to_dict(s) for s in result.sequence],
        "counts": sequence_counts(result.sequence),
        "depth": result.depth,
        "schedule": {str(k): int(v)
                     for k, v in (result.depth_schedule or {}).items()},
        "objective": _jsonable(result.objective_value),
        "bound": _jsonable(cert.get("bound")),
        "gap": _jsonable(cert.get("gap")),
        "nodes": _jsonable(cert.get("nodes")),
        "fidelity": result.fidelity_to_target,
        "alpha": _jsonable(result.alpha),
        "beta": _jsonable(result.beta),
        "error_fro_sq": _jsonable(result.error_fro_sq),
        "phase_factor": _jsonable(result.phase_factor),
        "wall_seconds": wall,
        "solve_seconds": result.solve_seconds,
        "row_families": cert.get("row_families", {}),
        "circuit": circuit_doc(result.sequence, nq),
    }
    if result.error_fro_sq is not None:
        lb = max(0.0, 1.0 - result.error_fro_sq / 2 ** (nq + 2)) ** 2
        report["fidelity_lower_bound"] = lb
    return report


def _write_report(report: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")


def _summary(report: dict) -> str:
    bits = [f"status={report['status']}"]
    if report.get("counts"):
        bits.append(f"gates={report['counts']['total']}")
    if report.get("depth") is not None:
        bits.append(f"depth={report['depth']}")
    if report.get("objective") is not None:
        bits.append(f"objective={report['objective']:.6g}")
    if report.get("fidelity") is not None:
        bits.append(f"fidelity={report['fidelity']:.9f}")
    bits.append(f"time={report.get('wall_seconds', 0.0):.2f}s")
    return " ".join(bits)


def _sequence_line(specs: list[GateSpec]) -> str:
    if not specs:
        return "sequence: (empty)"
    return "sequence: " + " ".join(
        f"{s.name}[{','.join(str(q) for q in s.qubits)}]" for s in specs)


# ---------------------------------------------------------------------------
# Subcommand runners.  Each returns (exit_code, report, summary_lines).
# ---------------------------------------------------------------------------


def run_solve(command: str, cfg: dict, dump_lp: str | None = None) -> tuple[int, dict, list[str]]:
    allowed = {"synthesize": TARGET_OBJECTIVES,
               "approx": APPROX_OBJECTIVES,
               "oracle": OBJECTIVES}[command]
    t0 = time.perf_counter()
    problem = build_problem(cfg, allowed)
    backend = "oracle" if command == "oracle" else cfg.get("backend", "scipy")
    if dump_lp:
        model, _ = build_model(problem)
        with open(dump_lp, "w", encoding="utf-8") as fh:
            fh.write(model.to_lp())
    result = synthesize(problem, backend=backend,
                        time_limit=cfg.get("time_limit"))
    report = make_report(command, cfg, problem, result,
                         time.perf_counter() - t0)
    lines = [_summary(report)]
    if result.feasible:
        lines.append(_sequence_line(result.sequence))
    return _STATUS_CODE[result.status], report, lines


def _rho_seed(cfg: dict) -> tuple[list[GateSpec], int, dict]:
    """Seed circuit, its declared register (0 for named seeds) and RHO options."""
    rc = dict(cfg.get("rho", {}))
    seed = rc.pop("seed", None)
    if seed is None:
        raise ConfigError("rho needs a seed circuit (rho.seed or --seed-circuit)")
    if isinstance(seed, str) and seed in _NAMED_SEEDS:
        return _NAMED_SEEDS[seed](), 0, rc
    specs, nq = load_circuit(seed) if isinstance(seed, str) else circuit_from_doc(seed)
    return specs, nq, rc


def run_rho(cfg: dict) -> tuple[int, dict, list[str]]:
    t0 = time.perf_counter()
    circuit, declared_qubits, rc = _rho_seed(cfg)
    gates = rc.pop("window_gates", None)
    if gates is not None:
        rc["window_gates"] = tuple(
            (g[0], float(g[1])) if isinstance(g, (list, tuple)) else g
            for g in gates)
    if rc.get("time_limit_per_window") is None:
        rc["time_limit_per_window"] = cfg.get("time_limit")
    rho_cfg = RhoConfig(backend=cfg.get("backend", "oracle"),
                        cuts=CutSelection.from_names(cfg.get("cuts", "identity")),
                        **rc)
    result = rolling_horizon(circuit, rho_cfg)
    report = {
        "command": "rho",
        "config": cfg,
        "status": "ok",
        "input_gates": result.input_length,
        "output_gates": len(result.circuit),
        "pass_lengths": result.pass_lengths,
        "fidelity_to_input": result.fidelity_to_input,
        "windows_optimized": result.windows_optimized,
        "windows_passed_through": result.windows_passed_through,
        "window_log": result.window_log,
        "counts": sequence_counts(result.circuit),
        "wall_seconds": time.perf_counter() - t0,
        "circuit": circuit_doc(result.circuit,
                               max(declared_qubits, result.num_qubits)),
    }
    fid = ("n/a" if result.fidelity_to_input is None
           else f"{result.fidelity_to_input:.9f}")
    lines = [f"gates {result.input_length} -> {len(result.circuit)} "
             f"passes={result.pass_lengths} fidelity={fid} "
             f"time={report['wall_seconds']:.2f}s"]
    return EXIT_OPTIMAL, report, lines


def run_verify(cfg: dict, circuit_file: str) -> tuple[int, dict, list[str]]:
    t0 = time.perf_counter()
    specs, nq = load_circuit(circuit_file)
    registry = benchmark_registry()
    target = resolve_target(cfg, registry, 2 ** nq)
    if target.shape[0] != 2 ** nq:
        raise DimensionError(f"target is {target.shape[0]}-dimensional but the "
                             f"circuit acts on {nq} qubit(s)")
    produced = circuit_unitary(specs, nq)
    fid = fidelity(produced, target)
    depth, schedule = schedule_depth([extend_gate(s, nq).support for s in specs])
    report = {
        "command": "verify",
        "config": cfg,
        "circuit_file": circuit_file,
        "qubits": nq,
        "counts": sequence_counts(specs),
        "depth": depth,
        "schedule": {str(k): int(v) for k, v in schedule.items()},
        "fidelity": fid,
        "wall_seconds": time.perf_counter() - t0,
        "circuit": circuit_doc(specs, nq),
    }
    lines = [f"gates={len(specs)} depth={depth} fidelity={fid:.9f}"]
    return EXIT_OPTIMAL, report, lines


def run_relations(cfg: dict, k_max: int, up_to_phase: bool) -> tuple[int, dict, list[str]]:
    t0 = time.perf_counter()
    registry = benchmark_registry()
    gs = resolve_gate_set(cfg, registry)
    cat = detect_relations(gs, k_max=k_max, up_to_phase=up_to_phase)
    doc = cat.to_dict(gs)
    report = {
        "command": "relations",
        "config": cfg,
        "catalog": doc,
        "counts": {
            "commuting_pairs": len(cat.commuting_pairs),
            "equivalent_pairs": len(cat.equivalent_pairs),
            "equivalent_triplets": len(cat.equivalent_triplets),
            "redundancies": len(cat.redundancies),
        },
        "wall_seconds": time.perf_counter() - t0,
    }
    c = report["counts"]
    lines = [f"commuting={c['commuting_pairs']} equivalent="
             f"{c['equivalent_pairs'] + c['equivalent_triplets']} "
             f"redundant={c['redundancies']}"]
    return EXIT_OPTIMAL, report, lines


# ---------------------------------------------------------------------------
# Argument handling
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Argparse with the config-error exit code instead of its default."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_SCHEMA)


def _add_common(p: argparse.ArgumentParser, phase: bool = True) -> None:
    p.add_argument("--config", action="append", default=[],
                   help="JSON run configuration (repeatable for batch runs)")
    p.add_argument("--backend", help="solver backend name")
    p.add_argument("--time-limit", type=float, help="solve budget in seconds")
    p.add_argument("--cuts", help="comma list of cut families (none|all|hc|...)")
    if phase:
        p.add_argument("--phase-mode", choices=["exact", "global"],
                       help="match the target exactly or up to global phase")
    p.add_argument("--report", help="write a JSON report here")
    p.add_argument("--jobs", type=int, default=1,
                   help="run multiple --config files concurrently")
    p.add_argument("--quiet", action="store_true", help="suppress the summary")


def _add_problem_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--fixture", help="built-in benchmark fixture name")
    p.add_argument("--target", help="target name, file, or RX/RY/RZ(angle)")
    p.add_argument("--gate-set", dest="gate_set",
                   help="gate set file, fixture name, or 'weaves'")
    p.add_argument("-P", "--max-gates", dest="P", type=int,
                   help="gate budget (model positions)")
    p.add_argument("-D", "--max-depth", dest="D", type=int, help="depth budget")
    p.add_argument("--objective", help="objective function")
    p.add_argument("--epsilon", type=float, help="deviation box half-width")
    p.add_argument("-K", "--segments", dest="K", type=int,
                   help="outer-approximation tangent count")
    p.add_argument("--dump-lp", help="debug: write the LP-format model here")


def build_arg_parser() -> _Parser:
    ap = _Parser(prog="mipsynth",
                 description="Quantum circuit synthesis via mixed-integer "
                             "programming")
    sub = ap.add_subparsers(dest="command", required=True, parser_class=_Parser)

    for name, desc in (("synthesize", "exact synthesis (gate count or depth)"),
                       ("approx", "approximate synthesis objectives"),
                       ("oracle", "exhaustive provably-optimal search")):
        p = sub.add_parser(name, help=desc)
        _add_common(p)
        _add_problem_flags(p)

    p = sub.add_parser("rho", help="rolling-horizon circuit compression")
    _add_common(p, phase=False)
    p.add_argument("--seed-circuit", dest="seed_circuit",
                   help="seed circuit: any circuit file (JSON circuit or "
                        "report, or .qasm), or a named seed "
                        f"({', '.join(sorted(_NAMED_SEEDS))})")
    p.add_argument("--window-length", type=int, help="max gates per window")
    p.add_argument("--accept-window", type=int, help="accepted prefix length")
    p.add_argument("--max-qubits", type=int, help="max qubits per window")
    p.add_argument("--window-gates", help="comma list of resynthesis gates")
    p.add_argument("--passes", type=int, help="max optimization passes")

    p = sub.add_parser("verify", help="recompute circuit facts, no solving")
    p.add_argument("circuit", help="circuit or report JSON (or .qasm)")
    p.add_argument("--target", help="target name or file")
    p.add_argument("--fixture", help="take the target from this fixture")
    p.add_argument("--config", action="append", default=[])
    p.add_argument("--report", help="write a JSON report here")
    p.add_argument("--quiet", action="store_true")

    p = sub.add_parser("relations", help="catalog gate-set relations")
    p.add_argument("--gate-set", dest="gate_set")
    p.add_argument("--fixture", help="take the gate set from this fixture")
    p.add_argument("--config", action="append", default=[])
    p.add_argument("--k-max", type=int, default=3)
    p.add_argument("--up-to-phase", action="store_true")
    p.add_argument("--report", help="write a JSON report here")
    p.add_argument("--quiet", action="store_true")
    return ap


_FLAG_KEYS = ("fixture", "target", "gate_set", "P", "D", "objective",
              "epsilon", "K", "backend", "time_limit", "cuts")


def merge_config(args: argparse.Namespace, file_cfg: dict) -> dict:
    """File config plus flag overrides; flags win key by key."""
    cfg = dict(file_cfg)
    for key in _FLAG_KEYS:
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    mode = getattr(args, "phase_mode", None)
    if mode is not None:
        cfg["phase_mode"] = mode
    if args.command == "rho":
        rc = dict(cfg.get("rho", {}))
        for flag, key in (("seed_circuit", "seed"),
                          ("window_length", "window_length"),
                          ("accept_window", "accept_window"),
                          ("max_qubits", "max_qubits"),
                          ("passes", "passes")):
            val = getattr(args, flag, None)
            if val is not None:
                rc[key] = val
        gates = getattr(args, "window_gates", None)
        if gates is not None:
            rc["window_gates"] = [g.strip() for g in gates.split(",") if g.strip()]
        if rc:
            cfg["rho"] = rc
    return validate_config(cfg)


def _dispatch(args: argparse.Namespace, cfg: dict) -> tuple[int, dict, list[str]]:
    if args.command in ("synthesize", "approx", "oracle"):
        return run_solve(args.command, cfg, dump_lp=getattr(args, "dump_lp", None))
    if args.command == "rho":
        return run_rho(cfg)
    if args.command == "verify":
        return run_verify(cfg, args.circuit)
    if args.command == "relations":
        return run_relations(cfg, args.k_max, args.up_to_phase)
    raise ConfigError(f"unknown command {args.command!r}")


def _run_one(args: argparse.Namespace, file_cfg: dict,
             report_path: str | None) -> tuple[int, list[str]]:
    cfg = merge_config(args, file_cfg)
    code, report, lines = _dispatch(args, cfg)
    report["exit_code"] = code
    path = report_path or cfg.get("report")
    if path:
        _write_report(report, path)
    return code, lines


#: Exit code of each failure a run may end in; every configuration, gate-set
#: and matrix error is a ValueError, and an OverflowError is a number in the
#: input too large for a float.
_FAILURE_CODES = (
    ((jsonschema.ValidationError, ValueError, OverflowError, FileNotFoundError,
      NotADirectoryError), EXIT_SCHEMA),
    ((OracleInconclusiveError,), EXIT_NO_SOLUTION),
    ((BackendError, ModelIntegrityError), EXIT_BACKEND),
)
_FAILURES = tuple(t for types, _ in _FAILURE_CODES for t in types)


def _failure_code(exc: Exception) -> int:
    """Report a failed run on stderr and return its exit code."""
    if isinstance(exc, jsonschema.ValidationError):
        where = "/".join(str(p) for p in exc.absolute_path) or "(top level)"
        exc = ConfigError(f"config schema: {exc.message} at {where}")
    print(f"mipsynth: error: {exc}", file=sys.stderr)
    return next(code for types, code in _FAILURE_CODES if isinstance(exc, types))


def _batch_worker(job) -> tuple[int, list[str]]:
    """One batch entry; its failure becomes its exit code, not the batch's."""
    argv, path = job
    try:
        return _run_one(build_arg_parser().parse_args(argv),
                        validate_config(_load_json(path)), None)
    except _FAILURES as exc:
        return _failure_code(exc), ["failed"]


def _run_batch(args: argparse.Namespace, argv: list[str]) -> int:
    """Every config is an independent run; the batch exits with the worst code."""
    if getattr(args, "report", None):
        raise SystemExit(_failure_code(ConfigError(
            "--report is per-run; put a 'report' key in each batch config instead")))
    work = [(argv, p) for p in args.config]
    jobs = getattr(args, "jobs", 1)
    if jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as ex:
            results = list(ex.map(_batch_worker, work))
    else:
        results = [_batch_worker(job) for job in work]
    if not args.quiet:
        for path, (_, lines) in zip(args.config, results):
            for ln in lines:
                print(f"[{path}] {ln}")
    return max(code for code, _ in results)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_arg_parser().parse_args(argv)
    if len(args.config) > 1:
        return _run_batch(args, argv)
    try:
        file_cfg = validate_config(_load_json(args.config[0])) if args.config else {}
        code, lines = _run_one(args, file_cfg, getattr(args, "report", None))
    except _FAILURES as exc:
        raise SystemExit(_failure_code(exc)) from exc
    if not args.quiet:
        for ln in lines:
            print(ln)
    return code


if __name__ == "__main__":
    sys.exit(main())
