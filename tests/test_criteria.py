"""Absence criteria: every check's certifying branch and its refusals."""

import json
from pathlib import Path

import pytest

from specrange import criteria
from specrange.cli import main
from specrange.criteria import CriteriaParams, Target, evaluate_all
from specrange.model import (Alternating1DPotential, ConstantPotential,
                             GeometricDecayPotential, LatticeBox,
                             PowerDecayPotential, SeededRandomPotential,
                             SumPotential, TablePotential)
from specrange.onedim import shooting_l2_test
from specrange.scenario import load_scenario

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
ABSENT = "absence_guaranteed"
INCONCLUSIVE = "inconclusive"

PAIR_POT = PowerDecayPotential(amplitude=0.3 + 0.4j, exponent=3.0)


# ---------------------------------------------------------------------------
# targets


def test_target_kinds_and_matching():
    # the report's form of each kind: a value only for "im" and "re"
    assert Target("all").to_json_dict() == {"kind": "all"}
    assert Target("nonreal").to_json_dict() == {"kind": "nonreal"}
    assert Target("im", 1.0).to_json_dict() == {"kind": "im", "value": 1.0}
    assert Target("re", -2.5).to_json_dict() == {"kind": "re", "value": -2.5}
    with pytest.raises(ValueError):
        Target("spectral")
    with pytest.raises(ValueError):
        Target("im")
    with pytest.raises(ValueError):
        Target("all", 3.0)


# ---------------------------------------------------------------------------
# level set / halfspace


def pick(pot, criterion, target=None, nu=1, params=CriteriaParams(),
         **detail):
    """The entries of evaluate_all(pot, nu, params) for criterion, and for
    target and the detail items when given, in report order."""
    rep = evaluate_all(pot, nu=nu, params=params)
    return [e for e in rep.entries if e.criterion == criterion
            and target in (None, e.target)
            and detail.items() <= e.detail.items()]


def levels(*b_values):
    return CriteriaParams(b_values=b_values)


def test_level_set_empty_certifies_with_gap():
    [res] = pick(ConstantPotential(0.5j), "level_set_empty",
                 params=levels(2.0))
    assert res.verdict == ABSENT
    assert res.target == Target("im", 2.0)


def test_level_set_hit_is_inconclusive():
    [res] = pick(ConstantPotential(0.5j), "level_set_empty",
                 params=levels(0.5))
    assert res.verdict == INCONCLUSIVE
    assert "nonempty" in res.witness


def test_level_set_needs_usable_tail_certificate():
    # table support beyond the scan-site cap: certificate unusable
    pot = TablePotential({(1_500_001,): 1.0j})
    [res] = pick(pot, "level_set_empty", params=levels(2.0))
    assert res.verdict == INCONCLUSIVE
    assert "tail certificate" in res.witness


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_distance_beyond_the_float64_range_is_said_in_words():
    # |Im d - b| = 3.4e308 is beyond the float64 range: no overflow warning,
    # and the witness says so instead of printing inf
    rep = evaluate_all(ConstantPotential(1.7e308j), nu=1,
                       params=levels(-1.7e308))
    by_name = {e.criterion: e for e in rep.entries
               if e.target == Target("im", -1.7e308)}
    level = by_name["level_set_empty"]
    assert level.verdict == ABSENT
    assert level.witness == (
        "min |Im d(k) - b| exceeds the float64 range over the scan (radius "
        f"{level.detail['scan_radius']}); beyond it |Im d - b| exceeds the "
        "float64 range by the tail certificate: the level set is empty")
    assert by_name["halfspace_support"].verdict == ABSENT
    assert by_name["pair_condition"].verdict == ABSENT
    assert not any("= inf" in e.witness for e in rep.entries)


def test_halfspace_confines_finite_level_set():
    pot = TablePotential({(-2,): 0.7j, (3,): 0.7j, (4,): 0.1 + 0.2j})
    sup, inf = pick(pot, "halfspace_support", Target("im", 0.7),
                    params=levels(0.7))
    assert sup.detail["side"] == "sup_finite"
    assert sup.verdict == ABSENT and "= 3" in sup.witness
    assert inf.detail["side"] == "inf_finite"
    assert inf.verdict == ABSENT and "= -2" in inf.witness


def test_halfspace_without_separating_tail_is_inconclusive():
    # Im d = 0 on odd sites forever: at b = 0 the level set is unbounded
    pot = PowerDecayPotential(amplitude=0.4j, exponent=2.0, parity="even")
    [res] = pick(pot, "halfspace_support", params=levels(0.0),
                 side="sup_finite")
    assert res.verdict == INCONCLUSIVE


def test_halfspace_validates_arguments():
    with pytest.raises(ValueError):
        evaluate_all(PAIR_POT, nu=1,
                     params=CriteriaParams(b_values=(0.4,), axes=(1,)))


# ---------------------------------------------------------------------------
# decay criteria


def test_direction_and_full_decay_certify_for_decaying_im():
    for criterion in ("direction_decay", "full_decay"):
        for res in pick(PAIR_POT, criterion):
            assert res.verdict == ABSENT
            assert res.target == Target("nonreal")
    assert len(pick(PAIR_POT, "direction_decay")) == 2


def test_decay_refused_for_constant_imaginary_part():
    [res] = pick(ConstantPotential(0.5j), "full_decay")
    assert res.verdict == INCONCLUSIVE
    [res] = pick(ConstantPotential(0.5j), "direction_decay", direction="-")
    assert res.verdict == INCONCLUSIVE


# ---------------------------------------------------------------------------
# pair condition


def test_pair_condition_finds_adjacent_witness():
    [res] = pick(PAIR_POT, "pair_condition", Target("im", 0.0))
    assert res.verdict == ABSENT
    assert "witness m" in res.witness
    assert "witness_site" in res.detail


def test_pair_condition_fails_when_every_pair_is_hit():
    alt = Alternating1DPotential(b_even=0.0, b_odd=1.0)
    for b in (0.0, 1.0):
        [res] = pick(alt, "pair_condition", Target("im", b),
                     params=levels(0.0, 1.0))
        assert res.verdict == INCONCLUSIVE


def test_pair_condition_is_1d_only():
    [res] = pick(PAIR_POT, "pair_condition", Target("im", 0.0), nu=2)
    assert res.verdict == INCONCLUSIVE
    assert "one dimension" in res.witness


# ---------------------------------------------------------------------------
# alternating / real window / summability


def test_alternating_certifies_distinct_two_value_pattern():
    [res] = pick(Alternating1DPotential(b_even=0.0, b_odd=1.0), "alternating")
    assert res.verdict == ABSENT
    assert res.target == Target("all")


def test_alternating_refuses_constant_pattern_and_other_kinds():
    [res] = pick(Alternating1DPotential(b_even=0.5, b_odd=0.5), "alternating")
    assert res.verdict == INCONCLUSIVE
    [res] = pick(PAIR_POT, "alternating")
    assert res.verdict == INCONCLUSIVE


def real_window(pot, a):
    [res] = pick(pot, "real_window", Target("re", a),
                 params=CriteriaParams(a_values=(a,)))
    return res


def test_real_window_excludes_levels_outside_the_band():
    res = real_window(PAIR_POT, -3.0)
    assert res.verdict == ABSENT
    assert res.target == Target("re", -3.0)


def test_real_window_refusals():
    assert real_window(PAIR_POT, 1.5).verdict == INCONCLUSIVE
    assert real_window(ConstantPotential(0.5), -3.0).verdict == INCONCLUSIVE
    # real finite table: no way to miss every level infinitely often
    assert real_window(TablePotential({(0,): 1.0}),
                       -3.0).verdict == INCONCLUSIVE


def summability(pot):
    [res] = pick(pot, "summability", Target("all"))
    return res


def test_summability_needs_parity_gap_and_first_moment():
    good = PowerDecayPotential(amplitude=0.8j, exponent=2.5, parity="even")
    assert summability(good).verdict == ABSENT
    no_parity = PowerDecayPotential(amplitude=0.8j, exponent=2.5)
    assert summability(no_parity).verdict == INCONCLUSIVE
    heavy_re = PowerDecayPotential(amplitude=0.3 + 0.8j, exponent=1.5,
                                   parity="even")
    res = summability(heavy_re)
    assert res.verdict == INCONCLUSIVE
    geometric = GeometricDecayPotential(amplitude=0.2 + 0.9j, ratio=0.5,
                                        parity="odd")
    assert summability(geometric).verdict == ABSENT


# ---------------------------------------------------------------------------
# aggregation


def test_evaluate_all_keeps_fixed_entry_order():
    params = CriteriaParams(b_values=(0.4,), a_values=(-2.5,))
    rep = evaluate_all(PAIR_POT, nu=1, params=params)
    ids = [e.criterion for e in rep.entries]
    assert ids == ["level_set_empty",
                   "halfspace_support", "halfspace_support",
                   "direction_decay", "direction_decay",
                   "full_decay",
                   "pair_condition", "pair_condition",
                   "alternating",
                   "real_window",
                   "summability"]


def test_evaluate_all_combines_nonreal_and_level_zero():
    rep = evaluate_all(PAIR_POT, nu=1, params=CriteriaParams())
    assert rep.nonreal_excluded
    assert 0.0 in rep.im_excluded
    assert rep.no_boundary_eigenvalues
    kinds = {(t.kind, t.value) for t in rep.guaranteed_targets()}
    assert ("all", None) in kinds and ("nonreal", None) in kinds


def test_evaluate_all_does_not_overclaim_for_the_counterexample():
    ce = SumPotential((TablePotential({(-1,): -2.0, (0,): -1.0j, (1,): -2.0}),
                       ConstantPotential(1.0j)))
    rep = evaluate_all(ce, nu=1, params=CriteriaParams(b_values=(1.0,)))
    assert not rep.no_boundary_eigenvalues
    assert not rep.nonreal_excluded
    assert 1.0 not in rep.im_excluded


def test_potential_declared_on_another_dimension_is_refused():
    # a table on Z^2 read on Z has no entries there: the criteria would
    # find the level set Im d = 1 empty and certify Im lambda = 1 absent,
    # and shooting would answer for the free chain
    params = CriteriaParams(b_values=(1.0,))
    with pytest.raises(ValueError, match="declared on nu=2"):
        evaluate_all(TablePotential({(0, 0): 1j}), 1, params)
    with pytest.raises(ValueError, match="declared on nu=1"):
        evaluate_all(SumPotential((Alternating1DPotential(1.0, -1.0),
                                   ConstantPotential(0.5))), 2, params)
    with pytest.raises(ValueError, match="declared on nu=2"):
        shooting_l2_test(TablePotential({(0, 0): 1}), 3.0, 20)
    # on its own dimension the same table is scanned, site (0, 0) included
    rep = evaluate_all(TablePotential({(0, 0): 1j}), 2, params)
    assert [e.absent for e in rep.entries
            if e.criterion == "level_set_empty"] == [False]


def test_evaluate_all_notes_selfadjoint_degeneracy():
    rep = evaluate_all(PowerDecayPotential(amplitude=0.5, exponent=1.5),
                       nu=1, params=CriteriaParams(b_values=(0.5,)))
    assert any("selfadjoint" in n for n in rep.notes)
    assert rep.nonreal_excluded
    assert not rep.no_boundary_eigenvalues


# The classes of boundary eigenvalues each bundled absence scenario is built
# to exclude.  The JSON files are the corpus; this pins what they claim.
ABSENCE_CLAIMS = {
    "power_decay_pair_all": [Target("all"), Target("nonreal"),
                             Target("im", 0.0), Target("im", 0.4)],
    "alternating_01_all": [Target("all")],
    "geometric_pair_all": [Target("all"), Target("nonreal"),
                           Target("im", 0.0), Target("im", 0.5)],
    "table_bump_pair_all": [Target("all"), Target("nonreal"),
                            Target("im", 0.0), Target("im", 0.7)],
    "real_power_nonreal": [Target("nonreal"), Target("im", 0.5)],
    "seeded_box_pair_all": [Target("all"), Target("nonreal"),
                            Target("im", 0.0)],
    "halfspace_table_im07": [Target("im", 0.7), Target("nonreal"),
                             Target("all")],
    "levelset_gap_im2": [Target("im", 2.0)],
    "summability_even_all": [Target("all")],
    "pair_b1_table": [Target("im", 1.0), Target("nonreal")],
    "real_window_am3": [Target("re", -3.0), Target("nonreal"), Target("all")],
    "summability_geometric_all": [Target("all")],
}


@pytest.mark.parametrize("name", ABSENCE_CLAIMS)
def test_bundled_scenario_guarantees_its_absence_claims(name):
    sc = load_scenario(str(SCENARIO_DIR / f"{name}.json"))
    rep = evaluate_all(sc.potential, sc.box.nu, sc.criteria)
    guaranteed = rep.guaranteed_targets()
    assert [t for t in ABSENCE_CLAIMS[name] if t not in guaranteed] == []


CARRIER = LatticeBox(1, ((-4, 4),))


# (real-valued instance, complex-valued instance) of each kind
@pytest.mark.parametrize("real,complex_", [
    (TablePotential({(0,): 0.5, (2,): -0.3}), TablePotential({(0,): 0.5j})),
    (ConstantPotential(0.7), ConstantPotential(0.7 + 0.1j)),
    (PowerDecayPotential(0.5, 1.5), PowerDecayPotential(0.5 + 0.2j, 1.5)),
    (GeometricDecayPotential(0.5, -0.6), GeometricDecayPotential(0.5j, 0.6)),
    (Alternating1DPotential(0.0, 0.0), Alternating1DPotential(0.25, -1.0)),
    (SeededRandomPotential(3, CARRIER, (-0.5, 0.5), (0.0, 0.0)),
     SeededRandomPotential(3, CARRIER, (-0.5, 0.5), (0.0, 0.5))),
    (SumPotential((ConstantPotential(1.0), TablePotential({(0,): -0.5}))),
     SumPotential((ConstantPotential(1j), TablePotential({(0,): -1j})))),
], ids=lambda pot: pot.kind)
def test_selfadjoint_note_follows_the_parity_certificate(real, complex_):
    params = CriteriaParams(b_values=(0.5,), scan_radius=20)
    for pot, noted in ((real, True), (complex_, False)):
        rep = evaluate_all(pot, nu=1, params=params)
        assert any("selfadjoint" in n for n in rep.notes) == noted, pot


def test_report_json_shape():
    rep = evaluate_all(PAIR_POT, nu=1,
                       params=CriteriaParams(b_values=(0.4,), a_values=(-3.0,)))
    doc = rep.to_json_dict()
    assert set(doc) == {"nu", "parameters", "entries", "combined", "notes"}
    assert set(doc["combined"]) == {"no_boundary_eigenvalues",
                                    "nonreal_excluded", "im_excluded",
                                    "re_excluded"}
    for entry in doc["entries"]:
        assert set(entry) == {"criterion", "target", "verdict", "witness",
                              "detail"}


def test_evaluate_all_evaluates_the_potential_once_per_grid(monkeypatch):
    grids = []
    values = type(PAIR_POT).values

    def spy(self, sites):
        if self is PAIR_POT:
            grids.append(sites.shape)
        return values(self, sites)

    monkeypatch.setattr(type(PAIR_POT), "values", spy)
    params = CriteriaParams(b_values=(0.4, 0.0, 1.0), scan_radius=10)
    for nu in (1, 2):
        grids.clear()
        rep = evaluate_all(PAIR_POT, nu=nu, params=params)
        radius = rep.entries[0].detail["scan_radius"]
        # level sets, half-spaces, pairs and summability share one scan
        assert grids == [((2 * radius + 1) ** nu, nu)]



def criteria_entries(tmp_path, verb, doc):
    """The criteria entries that main() writes for doc: in the report of
    run, or in the file of the criteria verb."""
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main([verb, str(path), "--out-dir", str(out)]) == 0
    if verb == "run":
        report = json.loads((out / f"{doc['name']}.report.json").read_text())
        return report["results"]["criteria"]["entries"]
    report = json.loads((out / f"{doc['name']}.criteria.json").read_text())
    return report["criteria"]["entries"]


@pytest.mark.parametrize("nu", [14, 16])
@pytest.mark.parametrize("verb", ["run", "criteria"])
def test_scan_over_the_cap_is_inconclusive_and_builds_no_grid(
        monkeypatch, tmp_path, verb, nu):
    # the scan radius never goes below 1, whose grid has 3^nu sites: over
    # MAX_SCAN_SITES from nu = 14 on (43 M sites at nu = 16)
    scan_grid = criteria._scan_grid

    def guarded(grid_nu, radius):
        sites = (2 * radius + 1) ** grid_nu
        assert sites <= criteria.MAX_SCAN_SITES, f"grid of {sites} sites"
        return scan_grid(grid_nu, radius)

    monkeypatch.setattr(criteria, "_scan_grid", guarded)
    doc = {"name": "cap", "box": {"nu": nu, "ranges": [[0, 0]] * nu},
           "potential": {"kind": "table",
                         "params": {"entries": [{"site": [0] * nu,
                                                 "value": [0.0, 1.0]}]}},
           "analysis": ["spectrum", "numrange", "classify", "criteria"],
           "params": {"criteria": {"b_values": [0.5]}}}
    scans = [e for e in criteria_entries(tmp_path, verb, doc)
             if e["criterion"] in ("level_set_empty", "halfspace_support")]
    assert len(scans) == 1 + 2 * nu
    for e in scans:
        assert e["verdict"] == INCONCLUSIVE
        assert f"{3 ** nu} sites, over the scan cap of 2000000" in e["witness"]


@pytest.mark.parametrize("verb", ["run", "criteria"])
def test_zero_alternating_potential_certifies_its_decay(tmp_path, verb):
    # b_even = b_odd = 0 is the zero potential: its imaginary part decays,
    # and the decay checks read the kind's exact zero tail (there was none)
    doc = {"name": "zero", "box": {"nu": 1, "ranges": [[-3, 3]]},
           "potential": {"kind": "alternating_1d",
                         "params": {"b_even": 0.0, "b_odd": 0.0}},
           "analysis": ["numrange", "criteria"]}
    decay = [e for e in criteria_entries(tmp_path, verb, doc)
             if e["criterion"] in ("direction_decay", "full_decay")]
    assert len(decay) == 3 and all(e["verdict"] == ABSENT for e in decay)
