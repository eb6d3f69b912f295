"""Tests of the benchmark's own logic: percentiles, self time, failing exits.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from spans import Span, Tracer, self_time_by_name, self_times, tail  # noqa: E402


# -- tail percentile ---------------------------------------------------------

def test_tail_leaves_exactly_ten_samples_beyond():
    samples = [float(i) for i in range(100)]
    value, pct, n = tail(samples)
    assert (value, pct, n) == (89.0, 90.0, 100)
    assert sum(s > value for s in samples) == 10


def test_tail_on_few_samples_is_a_low_percentile():
    samples = [float(i) for i in reversed(range(22))]
    value, pct, n = tail(samples)
    assert value == 11.0 and n == 22
    assert pct == pytest.approx(100 * 12 / 22)


def test_tail_needs_more_than_ten_samples():
    assert tail([1.0] * 11)[0] == 1.0
    with pytest.raises(ValueError):
        tail([1.0] * 10)


# -- self time ---------------------------------------------------------------

def test_self_time_subtracts_children_not_grandchildren():
    spans = [
        Span("root", 0.0, 10.0, None),
        Span("a", 1.0, 4.0, 0),
        Span("a.inner", 2.0, 3.0, 1),
        Span("b", 5.0, 9.0, 0),
    ]
    assert self_times(spans) == pytest.approx([10 - 3 - 4, 3 - 1, 1, 4])
    assert sum(self_times(spans)) == pytest.approx(10.0)


def test_self_time_sums_by_name_across_recursion():
    spans = [
        Span("peel", 0.0, 6.0, None),
        Span("peel", 1.0, 5.0, 0),
        Span("keys", 2.0, 3.0, 1),
    ]
    by_name = self_time_by_name(spans)
    assert by_name == pytest.approx({"peel": 2.0 + 3.0, "keys": 1.0})


def test_patched_calls_nest_and_unpatch_restores():
    class Lib:
        @staticmethod
        def outer(x):
            return Lib.inner(x) + 1

        @staticmethod
        def inner(x):
            return 2 * x

    originals = (Lib.outer, Lib.inner)
    tracer = Tracer()
    seen = []
    tracer.patch(Lib, "outer", "outer")
    tracer.patch(Lib, "inner", "inner", lambda args, res, sp: seen.append((args, res)))
    assert Lib.outer(3) == 7 and tracer.spans == []  # off until recording
    with tracer.recording():
        assert Lib.outer(3) == 7
    assert [(s.name, s.parent) for s in tracer.spans] == [("outer", None), ("inner", 0)]
    assert seen == [((3,), 6)]
    tracer.unpatch()
    assert (Lib.outer, Lib.inner) == originals


# -- verdict checks and the failing exit ---------------------------------------

def _result(status, gates=(), objective=None, fid=1.0):
    return SimpleNamespace(status=status, gate_indices=list(gates),
                           objective_value=objective, fidelity_to_target=fid)


def test_check_count_accepts_the_reference_and_charges_budget_when_undecided():
    assert workloads.check_count(_result("optimal", [1, 2], 2.0), 2, 5) == (True, 2, None)
    assert workloads.check_count(_result("infeasible"), None, 5) == (True, 0, None)
    assert workloads.check_count(_result("time_limit"), None, 5) == (False, 5, None)


@pytest.mark.parametrize("result, expected", [
    (_result("optimal", [1, 2, 3], 3.0), 2),
    (_result("optimal", [1], 1.0), None),
    (_result("infeasible"), 4),
    (_result("feasible", [1], 1.0), 3),
    (_result("optimal", [1, 2], 2.0, fid=0.5), 2),
])
def test_check_count_flags_wrong_verdicts(result, expected):
    assert workloads.check_count(result, expected, 5)[2] is not None


def test_a_failed_instance_fails_the_run_without_metrics():
    outcomes = [workloads.Outcome("good", 0.1, decided=True),
                workloads.Outcome("bad", 0.2, error="optimum 3 but the reference is 2")]
    out, err = io.StringIO(), io.StringIO()

    def never():
        raise AssertionError("metrics must not be computed for a failed run")

    code = run.finish(outcomes, never, run.END_TO_END_UNITS, run.listed("end_to_end"),
                      out=out, err=err)
    assert code == 1
    last = json.loads(out.getvalue().strip().splitlines()[-1])
    assert last == {"correct": False, "attempted": 2, "failed": 1, "metrics": {}}
    assert "bad" in err.getvalue()


def _copy_bench(dest: Path, with_sources: bool) -> None:
    shutil.copytree(BENCH, dest / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", dest / "BENCHMARK.json")
    if with_sources:
        shutil.copytree(ROOT / "src" / "mipsynth", dest / "src" / "mipsynth",
                        ignore=shutil.ignore_patterns("__pycache__"))


def _bench(cwd: Path):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "corpus_mip", "--seed", "1",
         "--seconds", "0.1", "--trace", "0"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def test_wrong_reference_verdict_exits_nonzero(tmp_path):
    _copy_bench(tmp_path, with_sources=True)
    ref_path = tmp_path / "perfbench" / "reference.json"
    ref = json.loads(ref_path.read_text())
    ref["corpus"]["exact"]["t2_s"] = 3  # the true optimum is 2
    ref_path.write_text(json.dumps(ref))
    done = _bench(tmp_path)
    assert done.returncode == 1
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert last["correct"] is False and last["failed"] == 1 and last["metrics"] == {}
    assert "t2_s/exact" in done.stderr


def test_benchmark_without_sources_exits_nonzero_without_result(tmp_path):
    _copy_bench(tmp_path, with_sources=False)
    done = _bench(tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
