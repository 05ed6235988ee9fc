"""Regenerate the bundled scenario corpus.

Each absence scenario is checked on the spot: it must parse under the strict
schema and evaluate_all must guarantee the class named in EXPECT.  Run from
the repository root: python3 tools/gen_scenarios.py
"""

import pathlib
import sys

sys.path.insert(0, "src")

from specrange.criteria import evaluate_all  # noqa: E402
from specrange.scenario import dumps_canonical, parse_scenario  # noqa: E402

OUT = pathlib.Path(__file__).resolve().parent.parent / "scenarios"

BOX40 = {"nu": 1, "ranges": [[-20, 19]]}
ANALYSIS = ["spectrum", "numrange", "classify", "criteria"]


def scen(name, potential, b_values=(), a_values=(), box=None, analysis=None,
         n_angles=360, scan_radius=60, seed=None):
    params = {"n_angles": n_angles,
              "criteria": {"b_values": list(b_values),
                           "a_values": list(a_values),
                           "scan_radius": scan_radius}}
    if seed is not None:
        params["seed"] = seed
    return {
        "name": name,
        "box": box or BOX40,
        "potential": potential,
        "analysis": analysis or ANALYSIS,
        "params": params,
    }


# (scenario, expected guaranteed classes) -- class: ("all",) / ("im", b) / ...
CORPUS = [
    (scen("power_decay_pair_all",
          {"kind": "decay_power",
           "params": {"amplitude": [0.3, 0.4], "exponent": 3.0}},
          b_values=[0.4]),
     [("all",), ("nonreal",), ("im", 0.0), ("im", 0.4)]),

    (scen("alternating_01_all",
          {"kind": "alternating_1d", "params": {"b_even": 0.0, "b_odd": 1.0}},
          b_values=[0.0, 1.0]),
     [("all",)]),

    (scen("geometric_pair_all",
          {"kind": "decay_geometric",
           "params": {"amplitude": [0.2, 0.5], "ratio": 0.6}},
          b_values=[0.5]),
     [("all",), ("nonreal",), ("im", 0.0), ("im", 0.5)]),

    (scen("table_bump_pair_all",
          {"kind": "table", "params": {"entries": [
              {"site": [-2], "value": [0.1, 0.3]},
              {"site": [-1], "value": [0.0, 0.7]},
              {"site": [0], "value": [-0.2, 0.5]},
              {"site": [1], "value": [0.0, 0.7]},
              {"site": [2], "value": [0.1, 0.3]},
          ]}},
          b_values=[0.7]),
     [("all",), ("nonreal",), ("im", 0.0), ("im", 0.7)]),

    (scen("real_power_nonreal",
          {"kind": "decay_power",
           "params": {"amplitude": [0.5, 0.0], "exponent": 1.5}},
          b_values=[0.5]),
     [("nonreal",), ("im", 0.5)]),

    (scen("seeded_box_pair_all",
          {"kind": "seeded_random",
           "params": {"seed": 20260819,
                      "box": {"nu": 1, "ranges": [[-8, 8]]},
                      "re_range": [-0.3, 0.3],
                      "im_range": [0.1, 0.6]}},
          b_values=[], seed=20260819),
     [("all",), ("nonreal",), ("im", 0.0)]),

    (scen("halfspace_table_im07",
          {"kind": "table", "params": {"entries": [
              {"site": [-2], "value": [0.0, 0.7]},
              {"site": [3], "value": [0.0, 0.7]},
              {"site": [4], "value": [0.1, 0.2]},
          ]}},
          b_values=[0.7]),
     [("im", 0.7), ("nonreal",), ("all",)]),

    (scen("levelset_gap_im2",
          {"kind": "constant", "params": {"c": [0.0, 0.5]}},
          b_values=[2.0]),
     [("im", 2.0)]),

    (scen("summability_even_all",
          {"kind": "decay_power",
           "params": {"amplitude": [0.0, 0.8], "exponent": 2.5,
                      "parity": "even"}},
          b_values=[]),
     [("all",)]),

    (scen("pair_b1_table",
          {"kind": "table", "params": {"entries": [
              {"site": [0], "value": [0.0, 1.0]},
          ]}},
          b_values=[1.0]),
     [("im", 1.0), ("nonreal",)]),

    (scen("real_window_am3",
          {"kind": "decay_power",
           "params": {"amplitude": [0.4, 0.3], "exponent": 2.2}},
          b_values=[], a_values=[-3.0]),
     [("re", -3.0), ("nonreal",), ("all",)]),

    (scen("summability_geometric_all",
          {"kind": "decay_geometric",
           "params": {"amplitude": [0.15, 0.9], "ratio": 0.55,
                      "parity": "odd"}},
          b_values=[]),
     [("all",)]),
]

EXTRA = [
    scen("free_1d", {"kind": "table", "params": {"entries": []}},
         b_values=[], box={"nu": 1, "ranges": [[-100, 99]]},
         analysis=["spectrum", "numrange", "classify"]),
    scen("counterexample_a-2.5_b1",
         {"kind": "sum", "params": {"terms": [
             {"kind": "table", "params": {"entries": [
                 {"site": [-1], "value": [-2.0, 0.0]},
                 {"site": [0], "value": [0.0, -1.0]},
                 {"site": [1], "value": [-2.0, 0.0]},
             ]}},
             {"kind": "constant", "params": {"c": [0.0, 1.0]}},
         ]}},
         b_values=[1.0], a_values=[-2.5],
         box={"nu": 1, "ranges": [[-50, 50]]}),
]


def has_class(report, want):
    for t in report.guaranteed_targets():
        if t.kind == want[0]:
            if t.value is None or abs(t.value - want[1]) < 1e-12:
                return True
    return False


def main():
    OUT.mkdir(exist_ok=True)
    ok = True
    for doc, expect in CORPUS:
        sc = parse_scenario(doc)
        rep = evaluate_all(sc.potential, sc.box.nu, sc.criteria)
        got = [(t.kind,) if t.value is None else (t.kind, t.value)
               for t in rep.guaranteed_targets()]
        missing = [w for w in expect if not has_class(rep, w)]
        mark = "ok " if not missing else "FAIL"
        print(f"{mark} {sc.name:28s} guaranteed={got}"
              + (f"  MISSING={missing}" if missing else ""))
        ok = ok and not missing
        (OUT / f"{sc.name}.json").write_text(dumps_canonical(doc))
    for doc in EXTRA:
        sc = parse_scenario(doc)
        print(f"ok  {sc.name:28s} (bundled, no absence claim checked)")
        (OUT / f"{sc.name}.json").write_text(dumps_canonical(doc))
    if not ok:
        raise SystemExit(1)
    print(f"wrote {len(CORPUS) + len(EXTRA)} scenarios to {OUT}")


if __name__ == "__main__":
    main()
