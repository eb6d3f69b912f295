"""Cut families: name parsing, emission rules, and optimum preservation."""

import itertools
import warnings

import numpy as np
import pytest

from mipsynth.cuts import CUT_FAMILIES, CutSelection, add_pattern_rows
from mipsynth.errors import ConfigError
from mipsynth.formulation import SynthesisProblem, synthesize
from mipsynth.gates import GateSet, builtin_gate, gate_spec, weave_gate_set
from mipsynth.mip import MipModel
from mipsynth.relations import detect_relations


def gs1(*names: str) -> GateSet:
    return GateSet.from_specs(1, [gate_spec(n, (1,)) for n in names])


def solve(sel: CutSelection, **kw):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return synthesize(SynthesisProblem(cuts=sel, **kw), backend="scipy")


def cut_rows(result) -> dict[str, int]:
    return {k: v for k, v in result.certificate["row_families"].items()
            if k.startswith("cut_")}


def test_family_name_contract():
    assert CUT_FAMILIES == ("identity_symmetry", "commuting", "equivalent",
                            "redundancy", "hc")


def test_from_names_aliases():
    assert CutSelection.from_names("identity") == CutSelection()
    assert CutSelection.from_names("hc") == CutSelection(identity_symmetry=False,
                                                         hindsight=True)
    assert CutSelection.from_names("all") == CutSelection(
        identity_symmetry=True, commuting_pairs=True, equivalent_patterns=True,
        redundancy=True, hindsight=True)
    for spelled in ("none", "base", ""):
        assert CutSelection.from_names(spelled) == CutSelection(identity_symmetry=False)
    sel = CutSelection.from_names(" identity , redundancy ")
    assert sel.identity_symmetry and sel.redundancy
    sel = CutSelection.from_names(["commuting", "equivalent"])
    assert sel.commuting_pairs and sel.equivalent_patterns
    assert CutSelection.from_names("HC").hindsight
    for unknown in ("identity,magic", "hc1", "hc2", "hc1_global_phase"):
        with pytest.raises(ConfigError, match="unknown cut family"):
            CutSelection.from_names(unknown)


EXACT_CASE = dict(P=3)
GP_CASE = dict(P=3, phase_mode="global_phase")


# The hc2 row family alone: in exact mode the `hc` selection emits nothing
# else, since the chain's first backward step already is the one-position
# pull-back that hc1 used to write.
HINDSIGHT_ALONE = {"hc2": "hc"}


@pytest.mark.parametrize("names", ["identity", "redundancy", "hc2", "hc",
                                   "all"])
def test_exact_families_preserve_optimum(names):
    kw = dict(target=builtin_gate("S"), gate_set=gs1("H", "T"), **EXACT_CASE)
    base = solve(CutSelection.from_names("none"), **kw)
    cut = solve(CutSelection.from_names(HINDSIGHT_ALONE.get(names, names)),
                **kw)
    if names in HINDSIGHT_ALONE:
        assert set(cut_rows(cut)) == {f"cut_{names}"}
    assert base.status == cut.status == "optimal"
    assert cut.objective_value == pytest.approx(base.objective_value, abs=1e-6)
    assert cut.fidelity_to_target == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("names", ["identity", "commuting", "equivalent",
                                   "redundancy", "hc", "all"])
def test_phase_families_preserve_optimum(names):
    kw = dict(target=builtin_gate("X"), gate_set=gs1("H", "Z"), **GP_CASE)
    base = solve(CutSelection.from_names("none"), **kw)
    cut = solve(CutSelection.from_names(names), **kw)
    if names == "hc":
        # the chain's phase split implies every global-phase hindsight row
        assert cut_rows(cut) == {}
    assert base.status == cut.status == "optimal"
    assert cut.objective_value == pytest.approx(3.0, abs=1e-6)
    assert cut.objective_value == pytest.approx(base.objective_value, abs=1e-6)


def test_emitted_row_counts():
    kw = dict(target=builtin_gate("S"), gate_set=gs1("H", "T"), **EXACT_CASE)
    r = solve(CutSelection.from_names("identity"), **kw)
    assert cut_rows(r) == {"cut_identity_symmetry": 2}  # P - 1 ordering rows
    r = solve(CutSelection.from_names("hc"), **kw)
    # one row per Re/Im entry of the chain (2n^2 = 8) plus 3 product rows
    # for each of the |G|^2 = 9 gate pairs at the last two positions
    assert cut_rows(r) == {"cut_hc2": 8 + 27}
    kw = dict(target=builtin_gate("X"), gate_set=gs1("H", "Z"), **GP_CASE)
    r = solve(CutSelection.from_names("hc"), **kw)
    assert cut_rows(r) == {}
    r = solve(CutSelection.from_names("none"), **kw)
    assert cut_rows(r) == {}


def test_hindsight_cuts_skip_on_mode_mismatch():
    p = SynthesisProblem(builtin_gate("T"), weave_gate_set(), P=2,
                         objective="linearized_fidelity",
                         cuts=CutSelection.from_names("hc"))
    with pytest.warns(UserWarning, match="target-equality"):
        r = synthesize(p, backend="scipy")
    assert cut_rows(r) == {}


@pytest.mark.parametrize("family", ["commuting", "equivalent", "redundancy"])
def test_prefix_rows_forbid_exactly_their_words(family):
    gs, P = gs1("H", "T", "S"), 3
    words = detect_relations(gs).forbidden_words(family, np.ones(len(gs)))
    model = MipModel()
    z = np.array([[model.add_binary(f"z{g},{p}") for p in range(P)]
                  for g in range(len(gs))])
    for p in range(P):
        model.add_constr({int(k): 1.0 for k in z[:, p]}, "==", 1.0, "one_hot")
    add_pattern_rows(model, z, words, P, f"cut_{family}")
    # one row per forbidden prefix and position
    prefixes = {w[:-1] for w in words}
    assert model.family_rows[f"cut_{family}"] == sum(P - len(a) for a in prefixes)
    # {H, T, S} has one commuting pair; the other families share prefixes
    assert len(prefixes) < len(words) or family == "commuting"
    for circuit in itertools.product(range(len(gs)), repeat=P):
        x = np.zeros(model.num_vars)
        x[z[list(circuit), range(P)]] = 1.0
        meets_rows = max(model.violations(x).values()) <= 1e-9
        has_forbidden = any(circuit[p:p + len(w)] == w
                            for w in words for p in range(P))
        assert meets_rows != has_forbidden, circuit
