"""Benchmark command for mipsynth.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the package is imported from its
`src/` directory and nowhere else.  Workloads (see workloads.py):

  corpus_mip       gate-count MIP on oracle_corpus() x both modes, plus a
                   seed-drawn word per small library, 0.5 s cap per solve
  objectives_mip   depth, linearized-fidelity and Frobenius MIP objectives
  registry_models  build_model + to_arrays of the benchmark registry rows
  rho_k5           rolling horizon on the k5 parity seed, oracle windows

A run is one process and starts cold.  It repeats whole passes over the
workload until `--seconds` of measured time have passed (at least one pass),
clearing the oracle's level tables before each pass.  Every answer is checked
against reference.json; any failure prints no metrics and exits 1.

Every end-to-end metric is printed by name and unit; the last line carries
the ones BENCHMARK.json lists, with `--trace 0`.  With `--trace 1` the run
first measures untraced, then again with spans around the library's entry
points, and the last line carries the per-layer metrics, including the
tracing overhead (traced minus untraced suite_s).

BENCHMARK.json leaves out registry_models, verdict_s_p50 and verdict_s_tail:
on a 2-vCPU VM their run-to-run spread (interquartile range of ten runs as a
share of the median) reached 0.2-0.34, more than the largest regression
bound (0.25) a metric there may have.
"""

from __future__ import annotations

import os

# Fix thread pools before numpy loads: BLAS single-threaded, as HiGHS is in
# scipy.optimize.milp.  Solver caps are the benchmark's, not the caller's.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
os.environ.pop("MIPSYNTH_TIME_LIMIT", None)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

from spans import Tracer, self_time_by_name, tail  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("corpus_mip", "objectives_mip", "registry_models", "rho_k5")
#: Extra cold set-ups, each in its own interpreter, for the setup_s median.
SETUP_PROBES = 4

END_TO_END_UNITS = {
    "setup_s": "s", "suite_s": "s", "verdict_s_p50": "s", "verdict_s_tail": "s",
    "decided_frac": "fraction", "gates_out": "count", "peak_rss_mb": "MB",
}
#: Span name -> per-layer metric of that span's self time.
SELF_TIME_METRICS = {
    "formulation.synthesize": "formulation.synthesize_self_s",
    "formulation.build_model": "formulation.build_model_s",
    "formulation.build_base": "formulation.build_base_s",
    "formulation.apply_cuts": "cuts.apply_s",
    "formulation.extract_and_verify": "formulation.extract_verify_s",
    "MipModel.check_point": "mip.check_point_s",
    "MipModel.to_arrays": "mip.to_arrays_s",
    "ScipyHighsBackend.solve": "solvers.solve_s",
    "oracle.exhaustive_synthesize": "oracle.exhaustive_self_s",
    "LevelTables.ensure_level": "oracle.ensure_level_s",
    "LevelTables.keys_of": "oracle.keys_of_s",
    "LevelTables.peel": "oracle.peel_s",
    "rho.find_first_block": "rho.find_block_s",
    "rho.circuit_unitary": "rho.verify_s",
}
ROW_FAMILIES = ("one_hot", "cumulative", "mccormick", "target", "objective", "depth",
                "cut_identity_symmetry", "cut_commuting", "cut_equivalent",
                "cut_redundancy", "cut_hc1", "cut_hc2", "cut_hc1_global_phase")
COUNT_METRICS = (
    "solvers.verdicts.optimal", "solvers.verdicts.infeasible",
    "solvers.verdicts.feasible", "solvers.verdicts.time_limit",
    "mip.vars", "mip.rows", "mip.nnz",
    *(f"mip.rows.{f}" for f in ROW_FAMILIES), "mip.rows.other",
    "oracle.keys_hashed", "oracle.nodes", "oracle.level_matrices",
    "rho.windows", "rho.windows_optimized", "rho.windows_kept", "trace.spans",
)
PER_LAYER_UNITS = {
    **{m: "s" for m in SELF_TIME_METRICS.values()},
    "solvers.infeasible_s": "s", "rho.window_s_p50": "s", "rho.window_s_max": "s",
    **{m: "count" for m in COUNT_METRICS},
    "oracle.stored_mb": "MB", "trace.overhead_s": "s", "trace.overhead_frac": "fraction",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_library():
    """Import mipsynth from this checkout's src/ only; returns import seconds."""
    if not (SRC / "mipsynth" / "__init__.py").is_file():
        raise SystemExit(f"no mipsynth sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import mipsynth
    import workloads  # noqa: F401  (imports the library modules it patches)
    seconds = time.perf_counter() - t0
    if Path(mipsynth.__file__).resolve().parent != SRC / "mipsynth":
        raise SystemExit(f"mipsynth was imported from {mipsynth.__file__}, not {SRC}")
    return seconds


def setup_probe_seconds(workload: str, seed: int) -> float:
    """One cold set-up in a fresh interpreter."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--setup-probe"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                          check=True)
    return float(done.stdout.strip().splitlines()[-1])


def install_spans(tracer: Tracer, tables: dict) -> None:
    """Spans around the entry points the library's callers look up."""
    from mipsynth import formulation, mip, oracle, rho, solvers

    def on_solve(args, sol, sp):
        tracer.count(f"solvers.verdicts.{sol.status}")
        if sol.status == "infeasible":
            tracer.count("solvers.infeasible_s", sp.end - sp.start)

    def on_arrays(args, arr, sp):
        model = args[0]
        tracer.count("mip.vars", len(arr.c))
        tracer.count("mip.rows", arr.num_rows)
        tracer.count("mip.nnz", len(arr.a_vals))
        named = 0
        for fam, n in model.family_rows.items():
            if fam in ROW_FAMILIES:
                tracer.count(f"mip.rows.{fam}", n)
                named += n
        tracer.count("mip.rows.other", arr.num_rows - named)

    def on_level(args, _, sp):
        tables[id(args[0])] = args[0]

    for name in ("synthesize", "build_model", "build_base", "apply_cuts",
                 "extract_and_verify"):
        tracer.patch(formulation, name, f"formulation.{name}")
    tracer.patch(solvers.ScipyHighsBackend, "solve", "ScipyHighsBackend.solve", on_solve)
    tracer.patch(mip.MipModel, "to_arrays", "MipModel.to_arrays", on_arrays)
    tracer.patch(mip.MipModel, "check_point", "MipModel.check_point")
    tracer.patch(oracle, "exhaustive_synthesize", "oracle.exhaustive_synthesize",
                 lambda a, res, sp: tracer.count("oracle.nodes", res.nodes))
    tracer.patch(oracle.LevelTables, "ensure_level", "LevelTables.ensure_level", on_level)
    tracer.patch(oracle.LevelTables, "keys_of", "LevelTables.keys_of",
                 lambda a, keys, sp: tracer.count("oracle.keys_hashed", len(keys)))
    tracer.patch(oracle.LevelTables, "peel", "LevelTables.peel")
    for name in ("synthesize", "find_first_block", "circuit_unitary"):
        tracer.patch(rho, name, f"rho.{name}")


def harvest_tables(tracer: Tracer, tables: dict) -> None:
    """Level-table sizes of one pass, read before the next cold start drops them."""
    for tab in tables.values():
        tracer.count("oracle.level_matrices", sum(lev.count for lev in tab.levels))
        tracer.count("oracle.stored_mb", tab.stored_bytes / 2 ** 20)
    tables.clear()


def measure(wl, seconds: float, tracer: Tracer, tables=None):
    """Whole passes until `seconds` of measured time have passed."""
    from workloads import cold_start

    passes = []
    while not passes or sum(p.seconds for p in passes) < seconds:
        cold_start()
        passes.append(wl.run_pass(tracer))
        if tables is not None:
            harvest_tables(tracer, tables)
    return passes


def end_to_end(passes, setup_s: float, peak_rss_mb: float) -> dict:
    outcomes = [o for p in passes for o in p.outcomes]
    samples = [s for p in passes for s in p.samples]
    tail_value, tail_pct, n = tail(samples)
    print(f"verdict_s_tail is p{tail_pct:.1f} of {n} samples")
    return {
        "setup_s": setup_s,
        "suite_s": statistics.median(p.seconds for p in passes),
        "verdict_s_p50": statistics.median(samples),
        "verdict_s_tail": tail_value,
        "decided_frac": sum(o.decided for o in outcomes) / len(outcomes),
        "gates_out": statistics.median(p.gates_out for p in passes),
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(passes, tracer: Tracer, untraced_suite_s: float):
    k = len(passes)
    metrics = {name: 0.0 for name in PER_LAYER_UNITS}
    for span, t in self_time_by_name(tracer.spans).items():
        if span in SELF_TIME_METRICS:
            metrics[SELF_TIME_METRICS[span]] += t / k
    for name, v in tracer.counts.items():
        metrics[name] = v / k
    for p in passes:
        for name, v in p.layer.items():
            metrics[name] += v / k
    windows = [sp.end - sp.start for sp in tracer.spans if sp.name == "rho.synthesize"]
    if windows:
        metrics["rho.window_s_p50"] = statistics.median(windows)
        metrics["rho.window_s_max"] = max(windows)
    metrics["trace.spans"] = len(tracer.spans) / k
    traced = statistics.median(p.seconds for p in passes)
    metrics["trace.overhead_s"] = traced - untraced_suite_s
    metrics["trace.overhead_frac"] = traced / untraced_suite_s - 1.0
    return metrics


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "mipsynth").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit() -> str | None:
    """HEAD of the checkout, or None when it is not a git work tree."""
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def stamp(args, wl, passes: int) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "traced": bool(args.trace), "passes": passes, "cap_s": wl.cap,
        "git_commit": git_commit(), "source_digest": source_digest(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS, "highs_threads": 1,
    }


def listed(kind: str) -> list[str]:
    """Names of the metrics BENCHMARK.json lists under `kind`."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in bench[kind]]


def result_line(correct: bool, attempted: int, failed: int, metrics: dict,
                units: dict) -> str:
    return json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    })


def finish(outcomes, metrics_fn, units: dict, reported: list[str], out=sys.stdout,
           err=sys.stderr) -> int:
    """Print failures or the metrics, then the result line; return the exit code.

    Every metric in `units` is printed; the result line carries `reported`.
    Any failed instance fails the run, and no timing is reported for it.
    """
    ctypes.CDLL(None).fflush(None)  # solver chatter must not follow the result
    failed = [o for o in outcomes if o.error]
    print(f"failed_frac {len(failed) / len(outcomes):.6g} fraction", file=out)
    if failed:
        for o in failed:
            print(f"FAILED {o.name}: {o.error}", file=err)
        print(result_line(False, len(outcomes), len(failed), {}, {}), file=out)
        return 1
    metrics = metrics_fn()
    for name, unit in units.items():
        print(f"{name} {metrics[name]:.6g} {unit}", file=out)
    print(result_line(True, len(outcomes), 0, {k: metrics[k] for k in reported}, units),
          file=out)
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    warnings.simplefilter("ignore")
    import_s = import_library()
    import workloads

    t0 = time.perf_counter()
    wl = workloads.WORKLOADS[args.workload](args.seed)
    setup_s = import_s + time.perf_counter() - t0
    if args.setup_probe:
        print(repr(setup_s))
        return 0
    setups = [setup_s] + [setup_probe_seconds(args.workload, args.seed)
                          for _ in range(SETUP_PROBES)]
    wl.prepare()

    untraced = measure(wl, args.seconds, Tracer())
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    outcomes = [o for p in untraced for o in p.outcomes]
    passes = untraced
    if args.trace and not any(o.error for o in outcomes):
        tracer, tables = Tracer(), {}
        install_spans(tracer, tables)
        passes = measure(wl, args.seconds, tracer, tables=tables)
        tracer.unpatch()
        outcomes += [o for p in passes for o in p.outcomes]

    print(f"# perfbench {args.workload} seed={args.seed} trace={args.trace}")
    print("stamp " + json.dumps({**stamp(args, wl, len(passes)),
                                 "setup_samples_s": setups}))
    if not args.trace:
        return finish(outcomes, lambda: end_to_end(untraced, statistics.median(setups),
                                                   rss_mb),
                      END_TO_END_UNITS, listed("end_to_end"))

    def layer_metrics():
        e2e = end_to_end(untraced, statistics.median(setups), rss_mb)
        for name, unit in END_TO_END_UNITS.items():
            print(f"untraced {name} {e2e[name]:.6g} {unit}")
        return per_layer(passes, tracer, e2e["suite_s"])

    return finish(outcomes, layer_metrics, PER_LAYER_UNITS, listed("per_layer"))


if __name__ == "__main__":
    sys.exit(main())
