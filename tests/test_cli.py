"""Command-line surface: configs, formats, exit codes, report closure."""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from mipsynth.cli import (EXIT_INFEASIBLE, EXIT_NO_SOLUTION, EXIT_OPTIMAL,
                          EXIT_SCHEMA, circuit_doc, circuit_from_doc,
                          main, parse_qasm, resolve_target,
                          sequence_counts, validate_config)
from mipsynth.errors import ConfigError, GateSetError
from mipsynth.fixtures import (benchmark_registry, csx_spec, oracle_corpus,
                               standard_target)
from mipsynth.formulation import SynthesisProblem, synthesize
import mipsynth
from mipsynth import gates
from mipsynth.gates import MAX_QUBITS, builtin_gate, gate_spec
from mipsynth.rho import circuit_unitary, window_gate_set

BIG = "1" + "0" * 400  # an integer no float can hold
BELL_QASM = """OPENQASM 2.0;
include "qelib1.inc";
qreg q[2];
h q[0];
cx q[0], q[1];
"""
#: The same circuit with comments, one of them inside a statement's line.
COMMENTED_BELL_QASM = """OPENQASM 2.0; // Bell pair
include "qelib1.inc";
// the register
qreg q[2];
h q[0]; // note
cx q[0],q[1];
"""


def test_validate_config_accepts_and_rejects():
    good = {"fixture": "iswap", "backend": "scipy", "P": 4,
            "cuts": "identity,redundancy", "phase_mode": "global",
            "rho": {"seed": "k4_parity", "passes": 2}}
    assert validate_config(good) is good
    with pytest.raises(jsonschema.ValidationError):
        validate_config({"fixture": "iswap", "budget": 4})
    with pytest.raises(jsonschema.ValidationError):
        validate_config({"P": "four"})
    with pytest.raises(jsonschema.ValidationError):
        validate_config({"rho": {"window": 3}})
    with pytest.raises(jsonschema.ValidationError):
        validate_config({"phase_mode": "approximate"})


def test_parse_qasm_bell():
    for text in (BELL_QASM, COMMENTED_BELL_QASM):
        specs, nq = parse_qasm(text)
        assert nq == 2
        assert [(s.name, s.qubits) for s in specs] == [("H", (1,)), ("CNOT", (1, 2))]
    # a comment line before the declaration keeps the register's width
    assert parse_qasm("// three wires\nqreg q[3];\nh q[0];")[1] == 3


def test_parse_qasm_angles_and_inference():
    specs, nq = parse_qasm("rz(pi/2) q[0]; rx(-pi/4) q[2];")
    assert nq == 3  # inferred from the largest index
    assert specs[0].name == "RZ" and specs[0].angle == pytest.approx(np.pi / 2)
    assert specs[1].angle == pytest.approx(-np.pi / 4)


def test_parse_qasm_rejections():
    with pytest.raises(GateSetError, match="QASM gate 'ccx' is not supported"):
        parse_qasm("qreg q[3]; ccx q[0], q[1], q[2];")
    with pytest.raises(GateSetError, match="QASM statement is not supported: 'creg c"):
        parse_qasm("qreg q[1]; creg c[1]; measure q[0] -> c[0];")
    with pytest.raises(GateSetError, match="QASM statement is not supported: 'measure"):
        parse_qasm("qreg q[1]; measure q[0] -> c[0];")
    with pytest.raises(GateSetError, match="one quantum register"):
        parse_qasm("qreg a[1]; qreg b[1];")
    with pytest.raises(ConfigError, match="angle expression"):
        parse_qasm("rz(two*pi) q[0];")
    # angles are parsed, never evaluated: a power is refused at once
    for expr in ("9**9**9", "2**10", "pi.real", "1/0", "1e999", BIG):
        with pytest.raises(ConfigError, match="angle expression"):
            parse_qasm(f"rz({expr}) q[0];")


def test_circuit_doc_round_trip():
    specs = [gate_spec("H", (1,)), csx_spec((1, 2)), gate_spec("RZ", (2,), angle=0.3)]
    doc = circuit_doc(specs, 2)
    assert doc["qubits"] == 2 and len(doc["gates"]) == 3
    assert "matrix" in doc["gates"][1]  # non-builtin gates carry their matrix
    back, nq = circuit_from_doc(doc)
    assert nq == 2
    u0 = circuit_unitary(specs, 2)
    u1 = circuit_unitary(back, 2)
    assert np.abs(u0 - u1).max() <= 1e-12
    # reports embed the same document under "circuit"
    back2, _ = circuit_from_doc({"status": "optimal", "circuit": doc})
    assert [s.name for s in back2] == ["H", "CSX", "RZ"]
    with pytest.raises(GateSetError, match="'qubits' and 'gates'"):
        circuit_from_doc({"gates": "nope"})


MALFORMED_DOCS = {"entry_without_qubits": {"qubits": 1, "gates": [{"name": "H"}]},
                  "gates_not_a_list": {"qubits": 1, "gates": 5},
                  "entry_not_an_object": {"qubits": 1, "gates": ["H"]},
                  "qubits_not_a_list": {"qubits": 1,
                                        "gates": [{"name": "H", "qubits": 1}]},
                  "register_below_one": {"qubits": -1, "gates": []},
                  "gate_above_register": {"qubits": 1, "gates": [
                      {"name": "CNOT", "qubits": [1, 2]}]}}


@pytest.mark.parametrize("entry", ["verify", "gate_set", "rho_seed_file",
                                   "rho_inline_seed"])
@pytest.mark.parametrize("doc", sorted(MALFORMED_DOCS))
def test_malformed_gate_list_documents_exit_64(tmp_path, capsys, doc, entry):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(MALFORMED_DOCS[doc]))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"rho": {"seed": MALFORMED_DOCS[doc]}}))
    argv = {"verify": ["verify", str(path), "--target", "H"],
            "gate_set": ["synthesize", "--gate-set", str(path), "--target", "H",
                         "-P", "1"],
            "rho_seed_file": ["rho", "--seed-circuit", str(path)],
            "rho_inline_seed": ["rho", "--config", str(cfg)]}[entry]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_SCHEMA
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.count("\n") == 1 and err.startswith("mipsynth: error:")



def test_oversized_registers_exit_64_before_allocating(tmp_path, capsys, monkeypatch):
    permutation = gates.front_permutation

    def guarded(qubits, num_qubits):
        assert num_qubits <= MAX_QUBITS, "a register above MAX_QUBITS was allocated"
        return permutation(qubits, num_qubits)

    monkeypatch.setattr(gates, "front_permutation", guarded)
    path = tmp_path / "gs.json"
    path.write_text(json.dumps({"qubits": 30, "gates": [{"name": "H", "qubits": [1]}]}))
    for argv in (["synthesize", "--gate-set", str(path), "--target", "identity",
                  "-P", "1"],
                 ["rho", "--seed-circuit", "k4_parity",
                  "--max-qubits", str(MAX_QUBITS + 1)]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_SCHEMA
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("mipsynth: error:")
        assert str(MAX_QUBITS) in err


def test_resolve_target_forms(tmp_path):
    reg = benchmark_registry()
    assert np.array_equal(resolve_target({"target": "toffoli"}, reg, None),
                          standard_target("toffoli"))
    assert np.array_equal(resolve_target({"target": "identity"}, reg, 4), np.eye(4))
    with pytest.raises(ConfigError, match="needs a gate set"):
        resolve_target({"target": "1"}, reg, None)
    rz = resolve_target({"target": "RZ(pi/2)"}, reg, None)
    assert np.abs(rz - builtin_gate("RZ", np.pi / 2)).max() <= 1e-12
    assert np.array_equal(resolve_target({"target": "X"}, reg, None),
                          builtin_gate("X"))
    mfile = tmp_path / "m.json"
    mfile.write_text(json.dumps({"matrix": [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]}))
    assert np.array_equal(resolve_target({"target": str(mfile)}, reg, None),
                          builtin_gate("X"))
    qfile = tmp_path / "bell.qasm"
    qfile.write_text(BELL_QASM)
    bell = resolve_target({"target": {"file": str(qfile)}}, reg, None)
    specs, _ = parse_qasm(BELL_QASM)
    assert np.abs(bell - circuit_unitary(specs, 2)).max() <= 1e-12
    with pytest.raises(ConfigError, match="unknown target"):
        resolve_target({"target": "warp_drive"}, reg, None)
    with pytest.raises(ConfigError, match="unknown fixture"):
        resolve_target({"fixture": "warp_drive"}, reg, None)
    with pytest.raises(ConfigError, match="no target"):
        resolve_target({}, reg, None)


def test_sequence_counts():
    specs = [gate_spec("T", (1,)), gate_spec("Tdg", (1,)),
             gate_spec("CNOT", (1, 2)), gate_spec("H", (2,))]
    c = sequence_counts(specs)
    assert c["total"] == 4 and c["t_count"] == 2 and c["entangling"] == 1
    assert c["per_gate"] == {"T": 1, "Tdg": 1, "CNOT": 1, "H": 1}


def test_main_solve_report_verify_closure(tmp_path, capsys):
    report = tmp_path / "iswap.json"
    code = main(["synthesize", "--fixture", "iswap", "--backend", "oracle",
                 "--phase-mode", "global", "--report", str(report)])
    assert code == EXIT_OPTIMAL
    out = capsys.readouterr().out
    assert "status=optimal" in out and "sequence:" in out
    doc = json.loads(report.read_text())
    assert doc["exit_code"] == 0 and doc["status"] == "optimal"
    assert doc["counts"]["total"] == 4
    assert doc["fidelity"] == pytest.approx(1.0, abs=1e-9)
    assert doc["command"] == "synthesize"
    assert doc["circuit"]["qubits"] == 2
    assert doc["nodes"] > 0 and "presolve_retry" not in doc  # oracle route

    # the embedded circuit is a loadable circuit document
    code = main(["verify", str(report), "--target", "iswap"])
    assert code == EXIT_OPTIMAL
    out = capsys.readouterr().out
    assert "fidelity=1.000000000" in out


def test_main_infeasible_and_schema_errors(tmp_path, capsys):
    cfg = tmp_path / "bad_budget.json"
    cfg.write_text(json.dumps({"fixture": "iswap", "P": 1,
                               "phase_mode": "global", "backend": "oracle"}))
    assert main(["synthesize", "--config", str(cfg)]) == EXIT_INFEASIBLE
    capsys.readouterr()

    unknown = tmp_path / "unknown_key.json"
    unknown.write_text(json.dumps({"fixture": "iswap", "budget": 3}))
    with pytest.raises(SystemExit) as exc:
        main(["synthesize", "--config", str(unknown)])
    assert exc.value.code == EXIT_SCHEMA
    assert "config schema" in capsys.readouterr().err

    with pytest.raises(SystemExit) as exc:
        main(["synthesize", "--fixture", "iswap", "--cuts", "magic"])
    assert exc.value.code == EXIT_SCHEMA
    capsys.readouterr()

    with pytest.raises(SystemExit) as exc:
        main(["synthesize", "--fixture", "nope", "--backend", "oracle"])
    assert exc.value.code == EXIT_SCHEMA
    capsys.readouterr()


def test_main_unwritable_report_exits_64(tmp_path, capsys):
    # the run solves, then cannot write its report: a directory is in the way
    with pytest.raises(SystemExit) as exc:
        main(["synthesize", "--fixture", "iswap", "--phase-mode", "global",
              "--backend", "oracle", "--report", str(tmp_path)])
    assert exc.value.code == EXIT_SCHEMA
    assert "Is a directory" in capsys.readouterr().err


def test_main_budget_exhaustion_exit(tmp_path, capsys):
    cfg = tmp_path / "tiny_budget.json"
    cfg.write_text(json.dumps({"target": "X", "gate_set": "weaves", "P": 6}))
    with pytest.raises(SystemExit) as exc:
        main(["oracle", "--config", str(cfg), "--time-limit", "1e-9"])
    assert exc.value.code == EXIT_NO_SOLUTION
    capsys.readouterr()


@pytest.mark.parametrize("command", ["synthesize", "oracle"])
def test_main_pure_phase_gate_exits_64(tmp_path, capsys, command):
    cfg = tmp_path / "phase.json"
    cfg.write_text(json.dumps({"target": "H", "P": 2, "gate_set": {
        "qubits": 1, "gates": [
            {"name": "H", "qubits": [1]},
            {"name": "W", "qubits": [1],
             "matrix": [[[0, 1], [0, 0]], [[0, 0], [0, 1]]]}]}}))
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", str(cfg)])
    assert exc.value.code == EXIT_SCHEMA
    assert "W[1] is a pure phase" in capsys.readouterr().err


def test_default_exact_run_does_not_warn():
    # exact phase mode normalizes target and gates to determinant 1 quietly
    src = str(Path(mipsynth.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-W", "error::UserWarning", "-m",
                           "mipsynth.cli", "synthesize", "--fixture", "csx", "-P", "3",
                           "--time-limit", "5"], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == EXIT_INFEASIBLE, done.stderr
    fix = next(f for f in oracle_corpus() if f.name == "t2_s")
    for backend in ("scipy", "oracle"):
        with warnings.catch_warnings(record=True) as rec:
            warnings.simplefilter("always")
            r = synthesize(SynthesisProblem(fix.target, fix.gate_set, fix.P),
                           backend=backend)
        assert r.status == "optimal" and rec == [], backend


def test_main_oracle_answers_large_budgets_and_huge_layer_sets(tmp_path, capsys):
    h_set = tmp_path / "h.json"
    h_set.write_text(json.dumps({"qubits": 1, "gates": [{"name": "H", "qubits": [1]}]}))
    assert main(["oracle", "--target", "X", "--gate-set", str(h_set), "-P", "5000",
                 "--objective", "depth", "--time-limit", "2"]) == EXIT_INFEASIBLE
    # six qubits of CNOT/H/S have 4898 layers, whose sketch maps need gigabytes
    wide = tmp_path / "wide.json"
    wide.write_text(json.dumps(gates.gate_set_to_dict(
        window_gate_set(("CNOT", "H", "S"), 6))))
    with pytest.raises(SystemExit) as exc:
        main(["oracle", "--target", "identity", "--gate-set", str(wide), "-P", "3",
              "--objective", "depth"])
    assert exc.value.code == EXIT_NO_SOLUTION
    assert "layers" in capsys.readouterr().err


def test_main_reports_the_solver_time_limit(tmp_path, capsys):
    rep = tmp_path / "approx.json"
    assert main(["approx", "--target", "T", "--gate-set", "weaves", "-P", "2",
                 "--time-limit", "5", "--report", str(rep)]) == EXIT_OPTIMAL
    capsys.readouterr()
    assert 0 < json.loads(rep.read_text())["solver_time_limit"] <= 5


def test_main_report_lists_the_rungs(tmp_path, capsys):
    hz = tmp_path / "hz.json"
    hz.write_text(json.dumps({"qubits": 1, "gates": [{"name": "H", "qubits": [1]},
                                                     {"name": "Z", "qubits": [1]}]}))
    rep = tmp_path / "x.json"
    assert main(["synthesize", "--target", "X", "--gate-set", str(hz), "-P", "4",
                 "--phase-mode", "global", "--report", str(rep)]) == EXIT_OPTIMAL
    capsys.readouterr()
    doc = json.loads(rep.read_text())
    assert doc["counts"]["total"] == 3
    assert [(r["L"], r["verdict"]) for r in doc["rungs"]] == [
        (0, "infeasible"), (1, "infeasible"), (2, "infeasible"), (3, "optimal")]
    assert all(r["seconds"] >= 0 and set(r) == {"L", "verdict", "seconds", "nodes"}
               for r in doc["rungs"])


def test_main_dump_lp_writes_the_last_rung(tmp_path, capsys):
    hz = tmp_path / "hz.json"
    hz.write_text(json.dumps({"qubits": 1, "gates": [{"name": "H", "qubits": [1]},
                                                     {"name": "Z", "qubits": [1]}]}))
    lp = tmp_path / "x.lp"
    for objective in ("weighted_gate_count", "depth"):
        assert main(["synthesize", "--target", "X", "--gate-set", str(hz), "-P", "4",
                     "--phase-mode", "global", "--objective", objective,
                     "--dump-lp", str(lp)]) == EXIT_OPTIMAL
        capsys.readouterr()
        text = lp.read_text()
        # rung 3 answered, and its identity columns are fixed to 0
        assert text.startswith(f"\\ synth_{objective}_Q1_P3\n")
        bounds = text.split("\nBounds\n")[1].split("\nBinaries\n")[0]
        assert [ln for ln in bounds.splitlines() if "z(I," in ln] == [
            f" 0 <= z(I,{p}) <= 0" for p in (1, 2, 3)]


def test_main_dump_lp_keeps_the_forbidden_word(tmp_path, capsys):
    """RZ(0.3).RZ(0.3) misses RZ(0.6 + 1e-8) in exact mode, so rung 2 forbids
    that word and ends infeasible; the dump of rung 2 holds the forbidding
    row, as the model solved and its row families in the report do."""
    rz = tmp_path / "rz.json"
    rz.write_text(json.dumps({"qubits": 1, "gates": [
        {"name": "RZ", "qubits": [1], "angle": 0.3}]}))
    lp, rep = tmp_path / "x.lp", tmp_path / "x.json"
    assert main(["synthesize", "--target", "RZ(0.60000001)", "--gate-set", str(rz),
                 "-P", "2", "--phase-mode", "exact", "--dump-lp", str(lp),
                 "--report", str(rep)]) == EXIT_INFEASIBLE
    capsys.readouterr()
    doc = json.loads(rep.read_text())
    assert [r.get("forbidden") for r in doc["rungs"]] == [None, None, [[1, 1]]]
    assert doc["row_families"]["forbidden_word"] == 1
    rows = lp.read_text().split("\nSubject To\n")[1].split("\nBounds\n")[0].splitlines()
    assert len(rows) == sum(doc["row_families"].values())
    assert rows[-1].endswith(": + 1 z(RZ_1_,1) + 1 z(RZ_1_,2) <= 1")


@pytest.mark.parametrize("argv, code", [
    (["oracle", "--target", "T", "--gate-set", "weaves", "-P", "2",
      "--objective", "linearized_fidelity"], EXIT_OPTIMAL),
    (["synthesize", "--backend", "oracle", "--target", "S", "--gate-set", "weaves",
      "-P", "3", "--objective", "depth"], EXIT_INFEASIBLE),
], ids=["oracle", "synthesize_oracle_backend"])
def test_main_dump_lp_writes_nothing_for_the_oracle(tmp_path, capsys, argv, code):
    """An oracle solves no model, so there is no model to dump."""
    lp = tmp_path / "x.lp"
    assert main([*argv, "--dump-lp", str(lp), "--quiet"]) == code
    assert not lp.exists()


#: Input files of test_main_input_paths, by name under its tmp_path.
_INPUT_FILES = {
    "noargs.qasm": "qreg q[1]; h q;",
    "one.qasm": "qreg q[1]; h q[0];",
    "bare.json": json.dumps([[[0, 0], [1, 0]], [[1, 0], [0, 0]]]),
    "foo.json": json.dumps({"foo": 1}),
    "hz.json": json.dumps({"qubits": 1, "gates": [{"name": "H", "qubits": [1]},
                                                  {"name": "Z", "qubits": [1]}]}),
    "named.json": json.dumps({"target": {"name": "X"}, "gate_set": "weaves", "P": 1,
                              "backend": "oracle"}),
    "float_register.json": json.dumps({"qubits": 2.9, "gates": []}),
    "bool_register.json": json.dumps({"qubits": True, "gates": []}),
    "string_labels.json": json.dumps({"qubits": 2,
                                      "gates": [{"name": "CNOT", "qubits": "12"}]}),
    "float_label.json": json.dumps({"qubits": 2,
                                    "gates": [{"name": "H", "qubits": [1.7]}]}),
}


@pytest.mark.parametrize("argv, code, err", [
    (["verify", "{tmp}/noargs.qasm", "--target", "H"], EXIT_SCHEMA,
     "could not read qubit arguments"),
    (["oracle", "--target", "{tmp}/bare.json", "--gate-set", "{tmp}/hz.json", "-P", "3",
      "--phase-mode", "global"], EXIT_OPTIMAL, None),
    (["oracle", "--target", "{tmp}/foo.json", "--gate-set", "weaves", "-P", "2"],
     EXIT_SCHEMA, "no matrix, circuit, or report content found"),
    (["oracle", "--config", "{tmp}/named.json"], EXIT_INFEASIBLE, None),
    (["oracle", "--target", "toffoli2q", "--gate-set", "toffoli2q", "-P", "1"],
     EXIT_INFEASIBLE, None),
    (["oracle", "--target", "X", "--gate-set", "nosuch", "-P", "2"], EXIT_SCHEMA,
     "unknown gate set 'nosuch'"),
    (["oracle", "--target", "X", "--gate-set", "weaves"], EXIT_SCHEMA,
     "no gate budget given"),
    (["synthesize", "--target", "X", "--gate-set", "weaves", "-P", "2",
      "--objective", "linearized_fidelity"], EXIT_SCHEMA, "not valid here"),
    (["rho"], EXIT_SCHEMA, "rho needs a seed circuit"),
    (["verify", "{tmp}/one.qasm", "--target", "CNOT"], EXIT_SCHEMA,
     "target is 4-dimensional but the circuit acts on 1 qubit(s)"),
    (["verify", "{tmp}/float_register.json", "--target", "identity"], EXIT_SCHEMA,
     "'qubits' must be an integer, got 2.9"),
    (["verify", "{tmp}/bool_register.json", "--target", "identity"], EXIT_SCHEMA,
     "'qubits' must be an integer, got True"),
    (["verify", "{tmp}/string_labels.json", "--target", "identity"], EXIT_SCHEMA,
     "qubit label must be an integer, got '1'"),
    (["verify", "{tmp}/float_label.json", "--target", "identity"], EXIT_SCHEMA,
     "qubit label must be an integer, got 1.7"),
], ids=["qasm_gate_without_qubits", "bare_matrix_target_file", "target_file_without_matrix",
        "config_target_by_name", "registry_target_and_gate_set", "unknown_gate_set",
        "no_budget", "objective_not_valid_here", "rho_without_seed",
        "verify_dimension_mismatch", "verify_float_register", "verify_bool_register",
        "verify_string_qubit_labels", "verify_float_qubit_label"])
def test_main_input_paths(tmp_path, capsys, argv, code, err):
    for name, text in _INPUT_FILES.items():
        (tmp_path / name).write_text(text)
    try:
        got = main([a.replace("{tmp}", str(tmp_path)) for a in argv] + ["--quiet"])
    except SystemExit as exc:
        got = exc.code
    assert got == code
    stderr = capsys.readouterr().err
    if err is None:
        assert stderr == ""
    else:
        assert stderr.startswith("mipsynth: error: ") and err in stderr


def test_default_cuts_are_the_library_default(monkeypatch):
    """A config without cuts takes CutSelection() on the solve and rho paths."""
    from mipsynth import cli
    from mipsynth.cuts import CutSelection

    cfg = {"target": "T", "gate_set": "weaves", "P": 2}
    assert cli.build_problem(cfg, cli.TARGET_OBJECTIVES).cuts == CutSelection()
    seen = []

    class Stop(Exception):
        pass

    def capture(circuit, rho_cfg):
        seen.append(rho_cfg.cuts)
        raise Stop

    monkeypatch.setattr(cli, "rolling_horizon", capture)
    with pytest.raises(Stop):
        cli.run_rho({"rho": {"seed": "k4_parity"}})
    assert seen == [CutSelection()]


def test_main_identity_target(capsys):
    code = main(["synthesize", "--target", "identity", "--gate-set", "weaves",
                 "-P", "2", "--backend", "oracle", "--quiet"])
    assert code == EXIT_OPTIMAL
    capsys.readouterr()


def test_main_approx_and_dump_lp(tmp_path, capsys):
    lp = tmp_path / "model.lp"
    rep = tmp_path / "approx.json"
    code = main(["approx", "--target", "T", "--gate-set", "weaves", "-P", "2",
                 "--objective", "linearized_fidelity", "--dump-lp", str(lp),
                 "--report", str(rep)])
    assert code == EXIT_OPTIMAL
    capsys.readouterr()
    text = lp.read_text()
    assert text.startswith("\\ synth_linearized_fidelity_Q1_P2")
    assert "Binaries" in text
    doc = json.loads(rep.read_text())
    assert doc["alpha"] == pytest.approx(doc["objective"], abs=1e-9)
    assert 0.0 <= doc["fidelity"] <= 1.0
    # the MIP route reports HiGHS's node count from its single run
    assert isinstance(doc["nodes"], int) and doc["nodes"] >= 0
    assert "presolve_retry" not in doc
    # exact fidelity has no linear model: the run searches and writes no file
    none = tmp_path / "none.lp"
    with pytest.warns(UserWarning, match="falling back to exhaustive search"):
        code = main(["approx", "--target", "T", "--gate-set", "weaves", "-P", "2",
                     "--objective", "exact_fidelity", "--dump-lp", str(none)])
    assert code == EXIT_OPTIMAL and not none.exists()
    capsys.readouterr()


def test_main_qasm_verify(tmp_path, capsys):
    qfile = tmp_path / "bell.qasm"
    qfile.write_text(BELL_QASM)
    code = main(["verify", str(qfile), "--target", str(qfile)])
    assert code == EXIT_OPTIMAL
    assert "fidelity=1.000000000" in capsys.readouterr().out


def test_main_rho_small_seed(tmp_path, capsys):
    qfile = tmp_path / "bell.qasm"
    qfile.write_text(BELL_QASM)
    rep = tmp_path / "rho.json"
    code = main(["rho", "--seed-circuit", str(qfile), "--window-length", "2",
                 "--max-qubits", "2", "--passes", "1", "--report", str(rep)])
    assert code == EXIT_OPTIMAL
    capsys.readouterr()
    doc = json.loads(rep.read_text())
    assert doc["command"] == "rho"
    assert doc["pass_lengths"][0] == 2
    assert doc["fidelity_to_input"] == pytest.approx(1.0, abs=1e-9)
    assert doc["circuit"]["qubits"] == 2
    windows = [e for e in doc["window_log"] if e["action"] != "skipped"]
    assert windows
    assert all(e["seconds"] >= 0 and e["nodes"] >= 0 for e in windows)


def test_main_rho_rejects_unknown_window_gates(tmp_path, capsys):
    # every block of this seed is skipped, so no window would ever be built
    qfile = tmp_path / "skipped.qasm"
    qfile.write_text("qreg q[2]; h q[0]; t q[0]; h q[1];")
    with pytest.raises(SystemExit) as exc:
        main(["rho", "--seed-circuit", str(qfile), "--window-gates", "CNOT,FOO"])
    assert exc.value.code == EXIT_SCHEMA
    assert "FOO" in capsys.readouterr().err


def test_verify_depth_follows_gate_support(tmp_path, capsys):
    # IX = I (x) X is declared on qubits (1, 2) but acts on qubit 2 only, so
    # it shares a layer with X on qubit 1 in the solve and in verify alike
    one, zero = [1, 0], [0, 0]
    ix = [[one if i == j ^ 1 else zero for j in range(4)] for i in range(4)]
    xx = [[one if i == 3 - j else zero for j in range(4)] for i in range(4)]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "target": {"matrix": xx}, "P": 2, "objective": "depth",
        "gate_set": {"qubits": 2, "gates": [
            {"name": "IX", "qubits": [1, 2], "matrix": ix},
            {"name": "X", "qubits": [1]}]}}))
    rep = tmp_path / "report.json"
    code = main(["synthesize", "--config", str(cfg), "--report", str(rep)])
    assert code == EXIT_OPTIMAL
    assert json.loads(rep.read_text())["depth"] == 1
    capsys.readouterr()
    checked = tmp_path / "verify.json"
    assert main(["verify", str(rep), "--target", str(rep),
                 "--report", str(checked)]) == EXIT_OPTIMAL
    assert "depth=1 fidelity=1.000000000" in capsys.readouterr().out
    assert json.loads(checked.read_text())["schedule"] == {"1": 1, "2": 1}


def test_main_rho_matrix_literal_seed(tmp_path, capsys):
    x = [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]
    # X on the target commutes with the CNOT and H.H is the identity
    gates = [{"name": "MYX", "qubits": [2], "matrix": x},
             {"name": "CNOT", "qubits": [1, 2]}, {"name": "MYX", "qubits": [2], "matrix": x},
             {"name": "H", "qubits": [1]}, {"name": "H", "qubits": [1]}]
    seed = tmp_path / "seed.json"
    seed.write_text(json.dumps({"qubits": 2, "gates": gates}))
    rep = tmp_path / "rho.json"
    code = main(["rho", "--seed-circuit", str(seed), "--window-length", "5",
                 "--max-qubits", "2", "--report", str(rep)])
    assert code == EXIT_OPTIMAL
    capsys.readouterr()
    doc = json.loads(rep.read_text())
    assert doc["fidelity_to_input"] == pytest.approx(1.0, abs=1e-9)
    assert doc["pass_lengths"][0] == 5
    assert doc["circuit"]["gates"] == [{"name": "CNOT", "qubits": [1, 2]}]


def test_main_rho_keeps_the_declared_register(tmp_path, capsys):
    # qubit 3 is idle, but the seed declares it, so the report keeps it
    gates = [{"name": "H", "qubits": [1]}, {"name": "H", "qubits": [1]},
             {"name": "CNOT", "qubits": [1, 2]}]
    seed = tmp_path / "seed.json"
    seed.write_text(json.dumps({"qubits": 3, "gates": gates}))
    rep = tmp_path / "rho.json"
    code = main(["rho", "--seed-circuit", str(seed), "--window-length", "3",
                 "--max-qubits", "2", "--report", str(rep)])
    assert code == EXIT_OPTIMAL
    doc = json.loads(rep.read_text())
    assert doc["circuit"]["qubits"] == 3
    assert main(["verify", str(rep), "--target", str(seed)]) == EXIT_OPTIMAL
    assert "fidelity=1.000000000" in capsys.readouterr().out


def test_main_approx_prints_only_its_summary(capfd):
    code = main(["approx", "--target", "H", "--gate-set", "weaves", "-P", "5",
                 "--objective", "linearized_fidelity", "--cuts", "identity"])
    assert code == EXIT_OPTIMAL
    lines = capfd.readouterr().out.splitlines()
    assert [ln.split()[0] for ln in lines] == ["status=optimal", "sequence:"]


def test_main_relations(capsys):
    code = main(["relations", "--gate-set", "weaves", "--k-max", "2"])
    assert code == EXIT_OPTIMAL
    assert "redundant=" in capsys.readouterr().out


def test_main_batch_sequential(tmp_path, capsys):
    r1, r2 = tmp_path / "a.json", tmp_path / "b.json"
    c1 = tmp_path / "c1.json"
    c2 = tmp_path / "c2.json"
    c1.write_text(json.dumps({"fixture": "iswap", "phase_mode": "global",
                              "backend": "oracle", "report": str(r1)}))
    c2.write_text(json.dumps({"fixture": "iswap", "P": 1, "phase_mode": "global",
                              "backend": "oracle", "report": str(r2)}))
    code = main(["synthesize", "--config", str(c1), "--config", str(c2)])
    assert code == EXIT_INFEASIBLE  # max over per-run codes
    out = capsys.readouterr().out
    assert str(c1) in out and str(c2) in out
    assert json.loads(r1.read_text())["exit_code"] == 0
    assert json.loads(r2.read_text())["exit_code"] == EXIT_INFEASIBLE
    with pytest.raises(SystemExit) as exc:
        main(["synthesize", "--config", str(c1), "--config", str(c2),
              "--report", str(tmp_path / "x.json")])
    assert exc.value.code == EXIT_SCHEMA
    capsys.readouterr()


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_main_batch_survives_a_bad_config(tmp_path, capsys, jobs):
    bad, good = tmp_path / "bad.json", tmp_path / "good.json"
    unwritable = tmp_path / "unwritable.json"
    report = tmp_path / "good_report.json"
    bad.write_text(json.dumps({"fixture": "nope", "backend": "oracle"}))
    unwritable.write_text(json.dumps({"fixture": "iswap", "phase_mode": "global",
                                      "backend": "oracle", "report": str(tmp_path)}))
    good.write_text(json.dumps({"fixture": "iswap", "phase_mode": "global",
                                "backend": "oracle", "report": str(report)}))
    code = main(["synthesize", "--jobs", jobs, "--config", str(bad),
                 "--config", str(unwritable), "--config", str(good)])
    assert code == EXIT_SCHEMA  # max over per-run codes
    assert json.loads(report.read_text())["exit_code"] == EXIT_OPTIMAL
    out = capsys.readouterr().out
    assert f"[{bad}] failed" in out and f"[{unwritable}] failed" in out


def test_batch_jobs_are_capped_by_the_runs(tmp_path, capsys, monkeypatch):
    import concurrent.futures

    pools = []

    class InlinePool:
        """Records its worker count and runs every job in this process."""

        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    cfgs = []
    for P in (1, 2):
        cfg = tmp_path / f"c{P}.json"
        cfg.write_text(json.dumps({"fixture": "iswap", "P": P, "phase_mode": "global",
                                   "backend": "oracle"}))
        cfgs += ["--config", str(cfg)]
    assert main(["synthesize", "--jobs", "500", *cfgs]) == EXIT_INFEASIBLE
    assert pools == [2]
    assert main(["synthesize", "--jobs", "1", *cfgs]) == EXIT_INFEASIBLE
    assert pools == [2]  # one job runs in this process, with no pool
    for bad in ("0", "-3", "two"):
        with pytest.raises(SystemExit) as exc:
            main(["synthesize", "--jobs", bad, *cfgs])
        assert exc.value.code == EXIT_SCHEMA
    assert pools == [2]
    capsys.readouterr()


def test_bad_time_limits_exit_64_before_solving(tmp_path, capsys, monkeypatch):
    from mipsynth import formulation

    def never(*args, **kwargs):
        raise AssertionError("a model or table was built for a bad time limit")

    monkeypatch.setattr(formulation, "build_model", never)
    monkeypatch.setattr(formulation.oracle_mod, "exhaustive_synthesize", never)
    big = int(BIG)  # 401 digits: json keeps it an int, float() overflows
    t_cfg = {"target": "S", "P": 2,
             "gate_set": {"qubits": 1, "gates": [{"name": "T", "qubits": [1]}]}}
    runs = [("synthesize", {**t_cfg, "time_limit": big}),
            ("oracle", {**t_cfg, "time_limit": big}),
            ("rho", {"rho": {"seed": "k4_parity"}, "time_limit": big}),
            ("rho", {"rho": {"seed": "k4_parity", "time_limit_per_window": big}})]
    for i, (command, cfg) in enumerate(runs):
        path = tmp_path / f"{i}.json"
        path.write_text(json.dumps(cfg))
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", str(path)])
        assert exc.value.code == EXIT_SCHEMA, command
        assert "positive, finite number of seconds" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["synthesize", "oracle"])
@pytest.mark.parametrize("bad", [float("nan"), 1e20])
def test_bad_weights_exit_64_before_solving(tmp_path, capsys, monkeypatch, command, bad):
    from mipsynth import formulation

    def never(*args, **kwargs):
        raise AssertionError("a model or table was built for bad weights")

    monkeypatch.setattr(formulation, "build_model", never)
    monkeypatch.setattr(formulation.oracle_mod, "exhaustive_synthesize", never)
    path = tmp_path / "weights.json"
    path.write_text(json.dumps({
        "target": "S", "P": 3, "weights": [0, bad, 1],
        "gate_set": {"qubits": 1, "gates": [{"name": "H", "qubits": [1]},
                                            {"name": "T", "qubits": [1]}]}}))
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", str(path)])
    assert exc.value.code == EXIT_SCHEMA
    assert "weight of gate H[1]" in capsys.readouterr().err


def test_usage_errors_exit_64(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["synthesizer"])
    assert exc.value.code == EXIT_SCHEMA
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == EXIT_SCHEMA
    capsys.readouterr()

    # numbers too large for a float are input errors, not tracebacks
    qasm = tmp_path / "big.qasm"
    qasm.write_text(f"qreg q[1]; rz({BIG}) q[0];")
    big = int(BIG)
    t_cfg = {"target": "S", "phase_mode": "global", "P": 2,
             "gate_set": {"qubits": 1, "gates": [{"name": "T", "qubits": [1]}]}}
    configs = {
        "angle": {"target": "S", "P": 2, "gate_set": {"qubits": 1, "gates": [
            {"name": "RZ", "qubits": [1], "angle": big}]}},
        "epsilon": {"target": "T", "gate_set": "weaves", "P": 2,
                    "objective": "frobenius_oa", "epsilon": big},
        "weights": {**t_cfg, "weights": [big, 1]},
        "time_limit": {**t_cfg, "time_limit": big},
    }
    runs = [["verify", str(qasm), "--target", "X"]]
    for name, cfg in configs.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(cfg))
        runs.append(["approx" if name == "epsilon" else "synthesize",
                     "--config", str(path)])
    for argv in runs:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_SCHEMA, argv
        assert "mipsynth: error:" in capsys.readouterr().err

    # an unknown fixture is refused even when nothing is taken from it
    good = tmp_path / "h.qasm"
    good.write_text("qreg q[1]; h q[0];")
    for argv in (["synthesize", "--fixture", "nonsense", "--target", "H",
                  "--gate-set", "weaves", "-P", "2", "--backend", "oracle"],
                 ["relations", "--fixture", "nonsense", "--gate-set", "weaves"],
                 ["verify", str(good), "--fixture", "nonsense", "--target", "H"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_SCHEMA, argv
        assert "unknown fixture 'nonsense'" in capsys.readouterr().err
