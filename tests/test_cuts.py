"""Cut families: name parsing, emission rules, and optimum preservation."""

import itertools
import warnings
from dataclasses import fields

import numpy as np
import pytest

from mipsynth.cuts import CUT_FAMILIES, CUT_NAMES, CutSelection, add_pattern_rows
from mipsynth.errors import ConfigError
from mipsynth.formulation import (OBJECTIVES, PHASE_MODES, TARGET_OBJECTIVES,
                                  SynthesisProblem, build_model, synthesize)
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
    return {k: v for k, v in result.model.family_rows.items()
            if k.startswith("cut_")}


def test_family_name_contract():
    assert CUT_FAMILIES == ("identity_symmetry", "commuting", "equivalent",
                            "redundancy", "hc")
    # a family's selection field is its name, and its rows are cut_<name>
    assert tuple(f.name for f in fields(CutSelection)) == CUT_FAMILIES


def test_from_names_aliases():
    assert CutSelection.from_names("identity") == CutSelection()
    assert CutSelection.from_names("hc") == CutSelection(identity_symmetry=False,
                                                         hc=True)
    assert CutSelection.from_names("all") == CutSelection(
        identity_symmetry=True, commuting=True, equivalent=True,
        redundancy=True, hc=True)
    for spelled in ("none", "base", ""):
        assert CutSelection.from_names(spelled) == CutSelection(identity_symmetry=False)
    sel = CutSelection.from_names(" identity , redundancy ")
    assert sel.identity_symmetry and sel.redundancy
    sel = CutSelection.from_names(["commuting", "equivalent"])
    assert sel.commuting and sel.equivalent
    assert CutSelection.from_names("commuting_pairs,equivalent_patterns") == sel
    assert CutSelection.from_names("HC").hc
    for unknown in ("identity,magic", "hc1", "hc2", "hc1_global_phase"):
        with pytest.raises(ConfigError, match="unknown cut family") as err:
            CutSelection.from_names(unknown)
        assert all(name in str(err.value) for name in CUT_NAMES)
    assert CUT_NAMES == CUT_FAMILIES + ("identity", "commuting_pairs",
                                        "equivalent_patterns", "none", "base", "all")
    for name in CUT_NAMES:
        CutSelection.from_names(name)


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
    def model_cut_rows(names, **kw):
        model, _ = build_model(SynthesisProblem(cuts=CutSelection.from_names(names), **kw))
        return {k: v for k, v in model.family_rows.items() if k.startswith("cut_")}

    kw = dict(target=builtin_gate("S"), gate_set=gs1("H", "T"), **EXACT_CASE)
    assert model_cut_rows("identity", **kw) == {"cut_identity_symmetry": 2}  # P - 1 rows
    # one row per Re/Im entry of the chain (2n^2 = 8) plus 3 product rows
    # for each of the |G|^2 = 9 gate pairs at the last two positions
    assert model_cut_rows("hc", **kw) == {"cut_hc2": 8 + 27}
    kw = dict(target=builtin_gate("X"), gate_set=gs1("H", "Z"), **GP_CASE)
    assert model_cut_rows("hc", **kw) == {}
    assert model_cut_rows("none", **kw) == {}
    # the patterns are read off the matrices the model constrains: Z.Z = I and
    # H.H = I, but normalized to determinant 1 both square to -I
    kw = dict(target=builtin_gate("X"), gate_set=gs1("Z", "H"), P=3)
    assert model_cut_rows("redundancy", phase_mode="global_phase", **kw) == {
        "cut_redundancy": 8}
    assert model_cut_rows("redundancy", phase_mode="exact", **kw) == {}


@pytest.mark.parametrize("phase_mode", PHASE_MODES)
def test_weighted_ladder_under_all_cuts_matches_oracle(phase_mode):
    """A longer word is lighter: Z is S.S (weight 6), S.T.T (5) or T^4 (4).

    The ladder goes on past the first feasible rung under a cutoff row, with
    every pattern family on, and ends where 5 gates of weight 1 reach 4.
    """
    gs = gs1("H", "T", "S")
    w = np.ones(len(gs))
    w[gs.index_of("S")] = 3.0
    p = SynthesisProblem(builtin_gate("Z"), gs, P=6, weights=w, phase_mode=phase_mode,
                         cuts=CutSelection.from_names("all"))
    milp = synthesize(p, backend="scipy")
    brute = synthesize(p, backend="oracle")
    assert milp.status == brute.status == "optimal"
    assert milp.objective_value == pytest.approx(brute.objective_value, abs=1e-6)
    assert milp.objective_value == pytest.approx(4.0, abs=1e-6)
    rungs = milp.certificate["rungs"]
    assert [(g["L"], g["verdict"]) for g in rungs] == [
        (0, "infeasible"), (1, "infeasible"), (2, "optimal"), (3, "optimal"),
        (4, "optimal")]
    assert milp.model.family_rows["cutoff"] == 1


def test_hindsight_cuts_skip_on_mode_mismatch():
    p = SynthesisProblem(builtin_gate("T"), weave_gate_set(), P=2,
                         objective="linearized_fidelity",
                         cuts=CutSelection.from_names("hc"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r = synthesize(p, backend="scipy")
    assert cut_rows(r) == {}


@pytest.mark.parametrize("phase_mode", PHASE_MODES)
@pytest.mark.parametrize("objective", [o for o in OBJECTIVES if o != "exact_fidelity"])
def test_apply_cuts_writes_only_the_families_that_apply(objective, phase_mode):
    sel = CutSelection.from_names("all")
    p = SynthesisProblem(builtin_gate("Z"), gs1("H", "T", "S"), P=3,
                         objective=objective, phase_mode=phase_mode, cuts=sel)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        model, _ = build_model(p)
    assert p.cuts == sel
    # reordering changes the depth; hindsight needs an exact-mode target
    want = {"cut_identity_symmetry", "cut_redundancy"}
    if objective != "depth":
        want |= {"cut_commuting", "cut_equivalent"}
    if objective in TARGET_OBJECTIVES and phase_mode == "exact":
        want.add("cut_hc2")
    assert {f for f in model.family_rows if f.startswith("cut_")} == want


def test_depth_forbids_only_the_collapses_that_keep_the_layers():
    """X[1].S[2] collapses to XS[1,2], and H[2].X[1].S[2].H[1] (two layers)
    to H[2].XS[1,2].H[1] (three), so depth keeps X[1].S[2]; X[1].X[1]
    collapses to the identity, and H[1].H[1] too, under both objectives."""
    specs = [gate_spec("X", (1,)), gate_spec("S", (2,)), gate_spec("H", (1,)),
             gate_spec("H", (2,)),
             gate_spec("XS", (1, 2), matrix=np.kron(builtin_gate("X"), builtin_gate("S")))]
    gs = GateSet.from_specs(2, specs)
    x, s, h = (gs.index_of(n, q) for n, q in (("X", (1,)), ("S", (2,)), ("H", (1,))))
    for objective in TARGET_OBJECTIVES:
        p = SynthesisProblem(np.eye(4), gs, P=2, objective=objective,
                             phase_mode="global_phase",
                             cuts=CutSelection.from_names("redundancy"))
        model, handles = build_model(p)
        for word, cut in (((x, s), objective != "depth"), ((x, x), True), ((h, h), True)):
            point = np.zeros(model.num_vars)
            point[handles.z[list(word), [0, 1]]] = 1.0
            assert (model.check_point(point)["cut_redundancy"] > 0) == cut, (objective, word)


@pytest.mark.parametrize("family", ["commuting", "equivalent", "redundancy"])
def test_prefix_rows_forbid_exactly_their_words(family):
    gs, P = gs1("H", "T", "S"), 3
    words = detect_relations(gs.matrices(), gs.identity_index).forbidden_words(
        family, np.ones(len(gs)))
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
        meets_rows = max(model.check_point(x).values()) <= 1e-9
        has_forbidden = any(circuit[p:p + len(w)] == w
                            for w in words for p in range(P))
        assert meets_rows != has_forbidden, circuit
