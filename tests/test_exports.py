"""Every exported name resolves, so a deletion cannot leave a dangling export;
no definition outlives its callers without a stated reason; and every entry
point the benchmark traces is still called on the paths it times."""

import ast
import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import mipsynth

MODULES = ["mipsynth"] + [f"mipsynth.{m.name}"
                          for m in pkgutil.iter_modules(mipsynth.__path__)]


@pytest.mark.parametrize("module_name", MODULES)
def test_all_names_resolve(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    missing = [name for name in exported if not hasattr(module, name)]
    assert missing == []


def test_import_leaves_scipy_unloaded():
    # scipy costs about 0.3 s to import; only the solver and tests load it
    src = str(Path(mipsynth.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = ("import sys, mipsynth; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    assert out.strip() == "[]"


#: Definitions in src/mipsynth that no other code there references, each with
#: the reason it stays.  A helper only tests call belongs in the tests.
UNREFERENCED_ALLOWED = {
    "cli._Parser.error": "argparse calls it on a usage error",
    "encoding.decode_complex": "criterion 01 checks the encoding round trip",
    "encoding.j_matrix": "criterion 01 checks J = R(i)",
    "encoding.trace_parts": "criterion 01 checks the trace read off R(.)",
    "encoding.alpha_beta": "criterion 01 checks the overlap read off R(.)",
    "fixtures.oracle_corpus": "the oracle corpus, read by criterion 03 and the bench",
    "fixtures.depth_corpus": "the depth corpus, read by criterion 06 and the bench",
    "fixtures.criterion_phase_instance": "the global-phase instance of criterion 05",
    "gates.gate_set_to_dict": "writes the gate-set wire format the CLI reads",
    "gates.GateSet.index_of": "public lookup of a gate by name and wires",
    "mip.MipModel.add_mccormick": "criterion 02 checks the McCormick envelope",
    "mip.MipModel.check_point": "independent row check; the bench traces it",
    "oracle.clear_oracle_cache": "public reset of the level-table cache",
}


def unreferenced_definitions(root: Path) -> list[str]:
    """module.name (or module.Class.method) of every non-dunder function,
    method and class that no Name or attribute access in `root` mentions."""
    defs, used = [], set()
    for path in sorted(root.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                owner = getattr(node, "owner", "")
                for child in node.body:
                    child.owner = f"{owner}{node.name}."
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    defs.append((node.name, f"{path.stem}.{owner}{node.name}"))
    return [qual for name, qual in defs if name not in used]


def test_every_unreferenced_definition_has_a_reason():
    root = Path(mipsynth.__file__).resolve().parent
    assert sorted(unreferenced_definitions(root)) == sorted(UNREFERENCED_ALLOWED)


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
#: Spans the benchmark installs that no library path records: verification
#: checks rows with MipModel.violations, never check_point.
UNRECORDED_SPANS = {"MipModel.check_point"}
#: Loads perfbench/run.py, installs its spans on a throwaway Tracer, solves a
#: feasible corpus instance on both backends and runs a small RHO pass, then
#: prints the recorded span names and the names the benchmark times.
_SPAN_PROBE = """
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("perfbench_run", sys.argv[1])
run = importlib.util.module_from_spec(spec)
spec.loader.exec_module(run)
from spans import Tracer
from mipsynth import fixtures, formulation, rho
tracer = Tracer()
run.install_spans(tracer, {})
fix = next(f for f in fixtures.oracle_corpus() if f.name == "hch_cz")
problem = formulation.SynthesisProblem(fix.target, fix.gate_set, P=fix.P,
                                       phase_mode="global_phase")
with tracer.recording():
    for backend in ("scipy", "oracle"):
        assert formulation.synthesize(problem, backend=backend).status == "optimal"
    rho.rolling_horizon(fixtures.k4_parity_seed()[:8],
                        rho.RhoConfig(window_length=4, max_qubits=2, passes=1))
tracer.unpatch()
print(json.dumps({"recorded": sorted({sp.name for sp in tracer.spans}),
                  "timed": sorted(run.SELF_TIME_METRICS)}))
"""


def test_perfbench_spans_are_recorded():
    src = str(Path(mipsynth.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, str(PERFBENCH), os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", _SPAN_PROBE, str(PERFBENCH / "run.py")],
                          env=env, check=True, capture_output=True, text=True,
                          timeout=300)
    names = json.loads(done.stdout.strip().splitlines()[-1])
    assert UNRECORDED_SPANS <= set(names["timed"])
    missing = set(names["timed"]) - UNRECORDED_SPANS - set(names["recorded"])
    assert missing == set()
