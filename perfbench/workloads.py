"""The four benchmark workloads: inputs, one measured pass, and answer checks.

Every workload is built from public `mipsynth` calls only.  Its constructor
is the set-up the benchmark times as `setup_s`; `prepare()` computes what the checks
need but a user would not pay for (oracle references of random targets);
`run_pass()` is one measured pass over every instance of the workload, and
checks each answer against `reference.json` outside the timed sections.

An instance that raises a library error, or whose verdict or optimum differs
from the reference, is recorded as failed; the caller then fails the run.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from mipsynth import errors, fixtures, formulation, gates, oracle, rho, solvers
from mipsynth.cuts import CutSelection
from mipsynth.encoding import fidelity
from mipsynth.formulation import SynthesisProblem

REFERENCE = json.loads((Path(__file__).parent / "reference.json").read_text())

MODES = ("exact", "global_phase")
#: Per-instance solver caps in seconds.  Each sits outside a factor 1.5 of
#: every verdict time measured on the 2-CPU reference machine, so a verdict
#: does not flip between decided and undecided from run to run.
CAPS = {"corpus_mip": 0.5, "objectives_mip": 15.0}
LIBRARY_ERRORS = (errors.ModelIntegrityError, errors.BackendError,
                  errors.OracleInconclusiveError, errors.ConfigError,
                  errors.DimensionError, errors.UnitarityError,
                  errors.GateSetError, errors.MalformedEncodingError)
FIDELITY_TOL = 1e-9


@dataclass
class Outcome:
    """One instance's verdict in one pass."""

    name: str
    seconds: float
    decided: bool = False
    gates: int = 0  # charged to gates_out when the instance is counted
    counted: bool = True
    error: str | None = None


@dataclass
class PassResult:
    seconds: float
    outcomes: list[Outcome]
    samples: list[float]  # per-verdict times for the percentiles
    gates_out: int
    layer: dict[str, float] = field(default_factory=dict)


@dataclass
class Instance:
    name: str
    problem: SynthesisProblem
    expected: object  # reference value; its meaning depends on `kind`
    kind: str = "count"
    counted: bool = True
    certified: int | None = None  # registry: gate count the LP check confirmed


def cold_start() -> None:
    """Drop the library's lazily built caches, as a fresh process would have."""
    oracle.clear_oracle_cache()
    cache = getattr(formulation, "_EFF_GS_CACHE", None)
    if cache is not None:
        cache.clear()


def _solve_timed(tracer, problem: SynthesisProblem, backend: str,
                 time_limit: float | None):
    t0 = time.perf_counter()
    with tracer.recording():
        try:
            result = formulation.synthesize(problem, backend=backend,
                                            time_limit=time_limit)
        except LIBRARY_ERRORS as exc:
            result = exc
    return result, time.perf_counter() - t0


def check_count(result, expected: int | None, P: int) -> tuple[bool, int, str | None]:
    """Judge a gate-count answer: (decided, charged gates, error or None).

    A proven optimum is charged its length, a proven infeasibility 0 and an
    undecided instance its whole budget P.
    """
    status = result.status
    if status == "optimal":
        got = len(result.gate_indices)
        if expected is None:
            return True, got, f"optimum {got} but the reference is infeasible"
        if got != expected or round(result.objective_value) != expected:
            return True, got, f"optimum {got} but the reference is {expected}"
        if result.fidelity_to_target < 1 - FIDELITY_TOL:
            return True, got, f"fidelity {result.fidelity_to_target!r} below 1"
        return True, got, None
    if status == "infeasible":
        if expected is not None:
            return True, 0, f"infeasible but the reference optimum is {expected}"
        return True, 0, None
    if status == "feasible":
        got = len(result.gate_indices)
        if expected is None or got < expected:
            return False, P, f"incumbent of {got} gates contradicts reference {expected}"
    return False, P, None


def check_objective(inst: Instance, result) -> tuple[bool, int, str | None]:
    """Judge depth, linearized-fidelity and Frobenius answers."""
    P = inst.problem.P
    if result.status in ("feasible", "time_limit"):
        return False, P, None
    gates_n = len(result.gate_indices)
    if inst.kind == "depth":
        if result.status != "optimal" or result.depth != inst.expected:
            return True, gates_n, f"depth {result.depth} ({result.status}) " \
                                  f"but the reference is {inst.expected}"
        return True, gates_n, None
    if inst.kind == "alpha":
        if result.status != "optimal" or abs(result.alpha - inst.expected) > 1e-8:
            return True, gates_n, f"alpha {result.alpha!r} ({result.status}) " \
                                  f"but the reference is {inst.expected!r}"
        return True, gates_n, None
    # frobenius_oa: feasibility is pinned; the model objective may only
    # under-estimate the squared error of the circuit it returns
    if result.status == "infeasible":
        if inst.expected:
            return True, 0, "infeasible but a word within epsilon exists"
        return True, 0, None
    if not inst.expected:
        return True, gates_n, "feasible but no word lies within epsilon"
    if result.objective_value > result.error_fro_sq + 1e-9:
        return True, gates_n, (f"outer approximation {result.objective_value!r} "
                               f"exceeds the squared error {result.error_fro_sq!r}")
    return True, gates_n, None


class Workload:
    """Built from the run's seed; only corpus_mip draws inputs from it."""

    name = ""
    cap: float | None = None

    def prepare(self) -> None:
        """Reference work outside set-up and measurement."""

    def run_pass(self, tracer) -> PassResult:
        raise NotImplementedError


class _SolveWorkload(Workload):
    """Solve every instance with the scipy/HiGHS backend under the cap."""

    instances: list[Instance]

    def judge(self, inst: Instance, result):
        raise NotImplementedError

    def run_pass(self, tracer) -> PassResult:
        outcomes = []
        for inst in self.instances:
            result, dt = _solve_timed(tracer, inst.problem, "scipy", self.cap)
            out = Outcome(inst.name, dt, counted=inst.counted)
            if isinstance(result, Exception):
                out.error = f"{type(result).__name__}: {result}"
            else:
                out.decided, out.gates, out.error = self.judge(inst, result)
            outcomes.append(out)
        # percentiles and gates_out cover the fixed instances, which the
        # seed does not change; seed-drawn ones count in suite_s and checks
        return PassResult(seconds=sum(o.seconds for o in outcomes),
                          outcomes=outcomes,
                          samples=[o.seconds for o in outcomes if o.counted],
                          gates_out=sum(o.gates for o in outcomes if o.counted))


class CorpusMip(_SolveWorkload):
    """oracle_corpus() x both modes, plus one seed-drawn word per small library."""

    name = "corpus_mip"
    cap = CAPS["corpus_mip"]

    def __init__(self, seed: int) -> None:
        cuts = CutSelection.from_names("identity")
        corpus = fixtures.oracle_corpus()
        ref = REFERENCE["corpus"]
        self.instances = [
            Instance(f"{f.name}/{mode}",
                     SynthesisProblem(f.target, f.gate_set, P=f.P,
                                      phase_mode=mode, cuts=cuts),
                     ref[mode][f.name])
            for f in corpus for mode in MODES]
        # one random word per small library: every one-qubit fixture, and the
        # two-qubit ones with P <= 3; only the words change with the seed
        small = [f for f in corpus
                 if f.num_qubits == 1 or (f.num_qubits == 2 and f.P <= 3)]
        rng = np.random.default_rng(seed)
        for f in small:
            ni = f.gate_set.non_identity_indices()
            mats = f.gate_set.matrices()
            target = np.eye(f.gate_set.dim, dtype=complex)
            for k in rng.integers(len(ni), size=int(rng.integers(1, f.P + 1))):
                target = target @ mats[ni[int(k)]]
            for mode in MODES:
                self.instances.append(Instance(
                    f"word_{f.name}/{mode}",
                    SynthesisProblem(target, f.gate_set, P=f.P, phase_mode=mode,
                                     cuts=cuts),
                    None, counted=False))

    def prepare(self) -> None:
        for inst in self.instances:
            if inst.counted:
                continue
            r = formulation.synthesize(inst.problem, backend="oracle")
            inst.expected = len(r.gate_indices) if r.feasible else None
        cold_start()

    def judge(self, inst: Instance, result):
        return check_count(result, inst.expected, inst.problem.P)


class ObjectivesMip(_SolveWorkload):
    """Depth objective on depth_corpus(), and the criterion-08 weave instances."""

    name = "objectives_mip"
    cap = CAPS["objectives_mip"]

    def __init__(self, seed: int) -> None:
        cuts = CutSelection.from_names("identity")
        self.instances = [
            Instance(f"{f.name}/{mode}",
                     SynthesisProblem(f.target, f.gate_set, P=f.P, phase_mode=mode,
                                      objective="depth", cuts=cuts),
                     REFERENCE["depth"][f.name], kind="depth")
            for f in fixtures.depth_corpus() for mode in MODES]
        weaves = gates.weave_gate_set()
        for name in ("H", "X", "T"):
            t = gates.builtin_gate(name)
            for P in (3, 5):
                self.instances.append(Instance(
                    f"lin_{name}{P}",
                    SynthesisProblem(t, weaves, P=P, objective="linearized_fidelity",
                                     cuts=cuts),
                    REFERENCE["linearized_alpha"][f"{name}{P}"], kind="alpha"))
            for P in (2, 3):
                self.instances.append(Instance(
                    f"fro_{name}{P}",
                    SynthesisProblem(t, weaves, P=P, objective="frobenius_oa",
                                     epsilon=1.0, K=5, cuts=cuts),
                    REFERENCE["frobenius_feasible"][f"{name}{P}"], kind="frobenius"))

    def judge(self, inst: Instance, result):
        return check_objective(inst, result)


class RegistryModels(Workload):
    """build_model plus to_arrays for benchmark_registry() x both modes."""

    name = "registry_models"

    def __init__(self, seed: int) -> None:
        cuts = CutSelection.from_names("identity,hc")
        self.instances = [
            Instance(f"{name}/{mode}",
                     SynthesisProblem(f.target, f.gate_set, P=f.P, phase_mode=mode,
                                      cuts=cuts),
                     REFERENCE["registry"][name][mode])
            for name, f in fixtures.benchmark_registry().items() for mode in MODES]
        self.errors: dict[str, str | None] = {}

    def run_pass(self, tracer) -> PassResult:
        outcomes = []
        for inst in self.instances:
            t0 = time.perf_counter()
            with tracer.recording():
                model, handles = formulation.build_model(inst.problem)
                model.to_arrays()
            out = Outcome(inst.name, time.perf_counter() - t0, decided=True)
            # the first pass certifies each row on the model it just built
            if inst.name not in self.errors:
                self.errors[inst.name] = self.certify(inst, model, handles)
            out.error = self.errors[inst.name]
            out.gates = inst.certified or 0
            outcomes.append(out)
            del model, handles
        return PassResult(seconds=sum(o.seconds for o in outcomes),
                          outcomes=outcomes,
                          samples=[o.seconds for o in outcomes],
                          gates_out=sum(o.gates for o in outcomes))

    @staticmethod
    def certify(inst: Instance, model, handles) -> str | None:
        """Oracle verdict against the reference; then the LP at that optimum.

        The oracle's optimum, padded with trailing identities, fixes every z
        binary; the remaining LP must be feasible with the gate count as its
        objective.  Rows the reference calls infeasible are recorded as such.
        """
        p = inst.problem
        try:
            found = formulation.synthesize(p, backend="oracle")
        except LIBRARY_ERRORS as exc:
            return f"oracle: {type(exc).__name__}: {exc}"
        got = len(found.gate_indices) if found.feasible else None
        if got != inst.expected:
            return f"oracle optimum {got} but the reference is {inst.expected}"
        if got is None:
            inst.certified = 0
            return None
        gs = p.gate_set
        seq = list(found.gate_indices) + [gs.identity_index] * (p.P - got)
        for pos, chosen in enumerate(seq):
            for g in range(len(gs)):
                model.fix_var(int(handles.z[g, pos]), 1.0 if g == chosen else 0.0)
        try:
            sol = solvers.get_backend("scipy").solve(model)
        except errors.BackendError as exc:
            return f"LP at the oracle optimum: {exc}"
        if sol.status != "optimal" or abs(sol.objective - got) > 1e-6:
            return (f"LP at the oracle optimum is {sol.status} with objective "
                    f"{sol.objective!r}, expected {got}")
        inst.certified = got
        return None


class RhoK5(Workload):
    """rolling_horizon on the 50-gate k5 parity seed with oracle windows."""

    name = "rho_k5"

    def __init__(self, seed: int) -> None:
        self.circuit = fixtures.k5_parity_seed()
        self.config = rho.RhoConfig(window_length=10, accept_window=5, max_qubits=4,
                                    window_gates=("CNOT", "H", "S"),
                                    backend="oracle")

    def run_pass(self, tracer) -> PassResult:
        window_times: list[float] = []
        inner = rho.synthesize

        def timed_window(*args, **kwargs):
            t = time.perf_counter()
            try:
                return inner(*args, **kwargs)
            finally:
                window_times.append(time.perf_counter() - t)

        rho.synthesize = timed_window
        t0 = time.perf_counter()
        try:
            with tracer.recording():
                result = rho.rolling_horizon(self.circuit, self.config)
        except LIBRARY_ERRORS as exc:
            out = Outcome(self.name, time.perf_counter() - t0,
                          error=f"{type(exc).__name__}: {exc}")
            return PassResult(out.seconds, [out], [out.seconds], 0)
        finally:
            rho.synthesize = inner
        seconds = time.perf_counter() - t0

        actions = [w["action"] for w in result.window_log]
        resynthesized = [a for a in actions if a != "skipped"]
        outcomes = [Outcome(f"window{i}", t, decided=(a == "optimized"))
                    for i, (a, t) in enumerate(zip(resynthesized, window_times))]
        error = self.check(result)
        if error is None and len(resynthesized) != len(window_times):
            error = (f"{len(resynthesized)} windows resynthesized but "
                     f"{len(window_times)} synthesize calls timed")
        if error is not None:
            outcomes.append(Outcome(self.name, seconds, error=error))
        layer = {"rho.windows": len(actions),
                 "rho.windows_optimized": actions.count("optimized"),
                 "rho.windows_kept": actions.count("kept")}
        return PassResult(seconds, outcomes, window_times, len(result.circuit), layer)

    def check(self, result) -> str | None:
        lengths = result.pass_lengths
        if lengths[0] != len(self.circuit) or len(result.circuit) != lengths[-1]:
            return f"pass lengths {lengths} disagree with the circuits"
        if any(b > a for a, b in zip(lengths, lengths[1:])):
            return f"a pass lengthened the circuit: {lengths}"
        nq = max(rho.circuit_qubits(self.circuit), rho.circuit_qubits(result.circuit))
        fid = fidelity(rho.circuit_unitary(result.circuit, nq),
                       rho.circuit_unitary(self.circuit, nq))
        if fid < 1 - FIDELITY_TOL:
            return f"compressed circuit has fidelity {fid!r} to the input"
        return None


WORKLOADS = {w.name: w for w in (CorpusMip, ObjectivesMip, RegistryModels, RhoK5)}

