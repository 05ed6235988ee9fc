"""Scenario schema round-trips, validation failures, canonical output, and
the command-line verbs."""

import ast
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import specrange
from specrange import scenario
from specrange.cli import analyse, main
from specrange.config import MAX_N_ANGLES
from specrange.exceptions import SchemaError
from specrange.model import LatticeOperator, SeededRandomPotential
from specrange.scenario import (atomic_write_text, dumps_canonical,
                                encode_scenario, parse_scenario)

BOX = {"nu": 1, "ranges": [[-8, 7]]}
ANALYSIS = ["spectrum", "numrange", "classify", "criteria"]

KIND_DOCS = {
    "table": {"kind": "table",
              "params": {"entries": [{"site": [0], "value": [0.0, 0.5]},
                                     {"site": [2], "value": [-0.3, 0.0]}]}},
    "constant": {"kind": "constant", "params": {"c": [0.1, 0.4]}},
    "decay_power": {"kind": "decay_power",
                    "params": {"amplitude": [0.3, 0.4], "exponent": 2.5}},
    "decay_geometric": {"kind": "decay_geometric",
                        "params": {"amplitude": [0.2, 0.1], "ratio": 0.6,
                                   "parity": "even"}},
    "alternating_1d": {"kind": "alternating_1d",
                       "params": {"b_even": 0.25, "b_odd": -1.0}},
    "seeded_random": {"kind": "seeded_random",
                      "params": {"seed": 11,
                                 "box": {"nu": 1, "ranges": [[-6, 6]]},
                                 "re_range": [-0.2, 0.2],
                                 "im_range": [0.0, 0.5]}},
    "sum": {"kind": "sum",
            "params": {"terms": [
                {"kind": "constant", "params": {"c": [0.0, 1.0]}},
                {"kind": "table",
                 "params": {"entries": [{"site": [0], "value": [0.0, -1.0]}]}}]}},
}


def doc_for(kind: str) -> dict:
    return {"name": f"rt_{kind}", "box": dict(BOX),
            "potential": json.loads(json.dumps(KIND_DOCS[kind])),
            "analysis": list(ANALYSIS)}


def test_codec_covers_every_kind():
    # a kind added to the model needs a round-trip document here
    assert set(KIND_DOCS) == set(scenario.KINDS)


@pytest.mark.parametrize("kind", sorted(KIND_DOCS))
def test_round_trip_preserves_every_kind(kind):
    sc = parse_scenario(doc_for(kind))
    encoded = encode_scenario(sc)
    sc2 = parse_scenario(encoded)
    assert encode_scenario(sc2) == encoded
    sites = np.array([[-3], [0], [1], [5]], dtype=np.int64)
    assert np.array_equal(sc.potential.values(sites), sc2.potential.values(sites))


def test_params_block_round_trips():
    doc = doc_for("constant")
    doc["params"] = {"n_angles": 90, "seed": 7,
                     "tolerances": {"boundary_abs": 1e-6, "cert_abs": 1e-3},
                     "criteria": {"b_values": [0.4], "a_values": [-3.0],
                                  "scan_radius": 40}}
    sc = parse_scenario(doc)
    assert sc.n_angles == 90 and sc.seed == 7
    assert sc.tolerance_dict() == {"boundary_abs": 1e-6, "cert_abs": 1e-3}
    assert sc.criteria.b_values == (0.4,)
    assert sc.criteria.scan_radius == 40
    again = parse_scenario(encode_scenario(sc))
    assert encode_scenario(again) == encode_scenario(sc)


@pytest.mark.parametrize("mutate,fragment", [
    (lambda d: d.update(extra=1), "$"),
    (lambda d: d["box"].update(shape="cube"), "$.box"),
    (lambda d: d["potential"]["params"].update(mystery=2), "$.potential"),
    (lambda d: d.setdefault("params", {}).update(angles=9), "$.params"),
])
def test_unknown_fields_rejected_with_path(mutate, fragment):
    doc = doc_for("constant")
    mutate(doc)
    with pytest.raises(SchemaError) as e:
        parse_scenario(doc)
    assert fragment in str(e.value)


@pytest.mark.parametrize("mutate,path", [
    (lambda d: d["box"].update(ranges=[[3, 2]]), "$.box.ranges[0]"),
    (lambda d: d["potential"]["params"].update(c=[0.1]),
     "$.potential.params.c"),
    (lambda d: d.update(analysis=["spectrum", "spectrum"]), "$.analysis[1]"),
])
def test_schema_errors_name_their_path_once(mutate, path):
    doc = doc_for("constant")
    mutate(doc)
    with pytest.raises(SchemaError) as e:
        parse_scenario(doc)
    assert e.value.path == path
    assert str(e.value).count(path) == 1


def test_complex_values_must_be_two_element_arrays():
    doc = doc_for("constant")
    doc["potential"]["params"]["c"] = 0.5
    with pytest.raises(SchemaError):
        parse_scenario(doc)
    doc["potential"]["params"]["c"] = [0.1, 0.2, 0.3]
    with pytest.raises(SchemaError):
        parse_scenario(doc)


def test_kind_errors_are_reported_at_the_offending_params():
    seeded = {"seed": 1, "box": {"nu": 1, "ranges": [[0, 3]]},
              "re_range": [0.0, 1.0], "im_range": [0.0, 1.0]}
    cases = [
        # constructor ValueErrors: at the kind's params
        ("table", {"entries": [{"site": [0], "value": [1.0, 0.0]},
                               {"site": [0], "value": [0.0, 1.0]}]},
         "$.potential.params"),
        ("decay_power", {"amplitude": [1.0, 0.0], "exponent": 0.0},
         "$.potential.params"),
        ("decay_geometric", {"amplitude": [1.0, 0.0], "ratio": 1.5},
         "$.potential.params"),
        ("decay_geometric", {"amplitude": [1.0, 0.0], "ratio": 0.5,
                             "parity": "odds"}, "$.potential.params"),
        ("seeded_random", dict(seeded, re_range=[1.0, 0.0]),
         "$.potential.params"),
        # a malformed range: at that range
        ("seeded_random", dict(seeded, re_range=[1.0]),
         "$.potential.params.re_range"),
    ]
    for kind, params, path in cases:
        doc = doc_for(kind)
        doc["potential"] = {"kind": kind, "params": params}
        with pytest.raises(SchemaError) as e:
            parse_scenario(doc)
        assert e.value.path == path, (kind, params)


def test_tolerance_keys_are_validated():
    doc = doc_for("constant")
    doc["params"] = {"tolerances": {"bogus": 1e-9}}
    with pytest.raises(SchemaError):
        parse_scenario(doc)


@pytest.mark.parametrize("key", scenario.TOLERANCE_KEYS)
def test_negative_tolerances_exit_two_with_their_path(tmp_path, capsys, key):
    doc = small_run_doc()
    doc["params"]["tolerances"] = {key: -1.0}
    out = tmp_path / "out"
    assert main(["run", write_scenario(tmp_path, doc),
                 "--out-dir", str(out)]) == 2
    assert f"at $.params.tolerances.{key}:" in capsys.readouterr().err
    assert not out.exists()
    doc["params"]["tolerances"] = {key: 0.0}
    parse_scenario(doc)  # zero is a tolerance


def test_analysis_names_checked_and_unique():
    doc = doc_for("constant")
    doc["analysis"] = ["spectrum", "sorcery"]
    with pytest.raises(SchemaError):
        parse_scenario(doc)
    doc["analysis"] = ["spectrum", "spectrum"]
    with pytest.raises(SchemaError):
        parse_scenario(doc)
    doc["analysis"] = []
    with pytest.raises(SchemaError):
        parse_scenario(doc)


def test_dumps_canonical_is_sorted_and_newline_terminated():
    text = dumps_canonical({"b": 1, "a": [2.5, {"z": 0, "m": 1}]})
    assert text.endswith("\n") and not text.endswith("\n\n")
    assert text.index('"a"') < text.index('"b"')
    assert text.index('"m"') < text.index('"z"')
    with pytest.raises(ValueError):
        dumps_canonical({"x": math.nan})


def stdlib_canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False,
                      allow_nan=False) + "\n"


# text with non-ASCII characters, quotes, backslashes and control characters
TEXT = st.text(st.sampled_from('az "\\/\b\f\n\r\t\x00\x1f\x7f\u2028é€😀'),
               max_size=6)
JSON_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.sampled_from([10 ** 40, -(2 ** 70)]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 1e-05, 1e16, 0.1, 5e-324]),
    st.floats(allow_nan=False, allow_infinity=False).map(np.float64),
    TEXT)
JSON_VALUES = st.recursive(JSON_LEAVES, lambda inner: st.one_of(
    st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
    st.dictionaries(TEXT, inner, max_size=4)), max_leaves=20)


@given(JSON_VALUES)
@settings(max_examples=300, deadline=None)
def test_dumps_canonical_is_the_stdlib_canonical_form(obj):
    assert dumps_canonical(obj) == stdlib_canonical(obj)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf,
                                 np.float64("nan"), np.float64("-inf")])
def test_dumps_canonical_refuses_non_finite_floats(bad):
    for obj in (bad, [1.0, bad], {"a": {"b": (bad,)}}):
        with pytest.raises(ValueError):
            stdlib_canonical(obj)
        with pytest.raises(ValueError):
            dumps_canonical(obj)


def test_atomic_write_replaces_and_leaves_no_droppings(tmp_path):
    target = tmp_path / "out.json"
    atomic_write_text(str(target), "first\n")
    atomic_write_text(str(target), "second\n")
    assert target.read_text() == "second\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.json"]


# ---------------------------------------------------------------------------
# command line


def write_scenario(tmp_path, doc, name="case.json"):
    path = tmp_path / name
    path.write_text(dumps_canonical(doc))
    return str(path)


def small_run_doc():
    doc = doc_for("table")
    doc["name"] = "small"
    doc["params"] = {"n_angles": 60, "criteria": {"b_values": [0.5]}}
    return doc


def test_run_verb_writes_report_and_csvs(tmp_path):
    path = write_scenario(tmp_path, small_run_doc())
    out = tmp_path / "out"
    assert main(["run", path, "--out-dir", str(out)]) == 0
    report = json.loads((out / "small.report.json").read_text())
    assert set(report) == {"tool", "scenario", "results"}
    assert report["tool"]["name"] == "specrange"
    res = report["results"]
    assert res["spectrum"]["count"] == 16
    assert res["numrange"]["n_angles"] == 60
    assert "certified_boundary_count" in res["classify"]
    assert "criteria" in res
    for name in ("small.hull.csv", "small.spectrum.csv"):
        header, *rows = (out / name).read_text().splitlines()
        assert rows
        for row in rows:
            for cell in row.split(","):
                float(cell)  # plain numbers, no numpy scalar reprs


def count_calls(monkeypatch, names=("assemble", "compute_hull",
                                      "eig_general", "hildebrandt_certificate",
                                      "split_certificate")):
    """Count calls of the named functions through every specrange module
    namespace that binds them."""
    counts = dict.fromkeys(names, 0)
    originals = {}
    for module in ("specrange.model", "specrange.numrange",
                   "specrange.linalg", "specrange.classify"):
        for name in names:
            if hasattr(sys.modules[module], name):
                originals[name] = getattr(sys.modules[module], name)

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for modname, module in list(sys.modules.items()):
        if modname != "specrange" and not modname.startswith("specrange."):
            continue
        for name, fn in originals.items():
            if vars(module).get(name) is fn:
                monkeypatch.setattr(module, name, counting(name, fn))
    return counts


# verb -> (argv, calls of assemble, compute_hull and eig_general, classify
# records); each certificate runs once per record
COUNTED = {
    "run_spectrum_only": (["run", "{path}"], (1, 0, 1, 0)),
    "run": (["run", "{path}"], (1, 1, 1, 16)),
    "construct": (["construct", "--a", "-2.5", "--b", "1.0", "--n", "41",
                   "--angles", "120"], (1, 1, 1, 41)),
    "sweep": (["sweep", "{path}", "--param", "potential.params.b_odd",
               "--from", "0.0", "--to", "1.0", "--steps", "3"],
              (3, 3, 3, 48)),
}


@pytest.mark.parametrize("verb", sorted(COUNTED))
def test_each_verb_assembles_sweeps_and_eigensolves_once(
        tmp_path, monkeypatch, verb):
    argv, per_run = COUNTED[verb]
    doc = doc_for("alternating_1d")
    doc["name"] = "counted"
    doc["params"] = {"n_angles": 60}
    doc["analysis"] = (["spectrum"] if verb == "run_spectrum_only"
                       else ["spectrum", "numrange", "classify"])
    path = write_scenario(tmp_path, doc)
    out = tmp_path / "out"
    counts = count_calls(monkeypatch)
    argv = [a.format(path=path) for a in argv]
    assert main([*argv, "--out-dir", str(out)]) == 0
    assert (counts["assemble"], counts["compute_hull"], counts["eig_general"],
            counts["hildebrandt_certificate"]) == per_run
    assert counts["split_certificate"] == per_run[-1]
    if verb.startswith("run"):
        report = json.loads((out / "counted.report.json").read_text())
        assert report["results"]["spectrum"]["count"] == 16
        csv = (out / "counted.spectrum.csv").read_text().splitlines()
        assert len(csv) == 1 + 16
    if verb == "run":
        spectrum = report["results"]["spectrum"]["eigenvalues"]
        records = report["results"]["classify"]["records"]
        assert [e["value"] for e in spectrum] == [r["value"] for r in records]
        assert [e["residual"] for e in spectrum] == \
            [r["residual"] for r in records]


def seeded_doc(seed=None, potential_seed=11):
    doc = doc_for("seeded_random")
    doc["name"] = "seeded"
    doc["potential"]["params"]["seed"] = potential_seed
    doc["params"] = {"n_angles": 60, "criteria": {"b_values": [0.25]}}
    if seed is not None:
        doc["params"]["seed"] = seed
    return doc


SEED_VERBS = {
    "run": ["run"],
    "criteria": ["criteria"],
    "sweep": ["sweep", "--param", "potential.params.im_range.1",
              "--from", "0.5", "--to", "1.0", "--steps", "2"],
}


def outputs(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("verb", sorted(SEED_VERBS))
def test_seed_override_reaches_the_potential(tmp_path, verb):
    """--seed and params.seed both replace the seed of seeded_random terms,
    so the outputs equal those of a file that names that seed itself."""
    cmd, *rest = SEED_VERBS[verb]

    def run(doc, name, *flags):
        path = write_scenario(tmp_path, doc, f"{name}.json")
        out = tmp_path / name
        assert main([cmd, path, *rest, *flags, "--out-dir", str(out)]) == 0
        return outputs(out)

    reference = {seed: run(seeded_doc(seed, potential_seed=seed), f"ref{seed}")
                 for seed in (1, 2)}
    assert reference[1] != reference[2]
    for seed in (1, 2):
        assert run(seeded_doc(), f"flag{seed}", "--seed", str(seed)) == \
            reference[seed]
        assert run(seeded_doc(seed), f"params{seed}") == reference[seed]


def test_run_verb_is_byte_identical(tmp_path):
    path = write_scenario(tmp_path, small_run_doc())
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["run", path, "--out-dir", str(a)]) == 0
    assert main(["run", path, "--out-dir", str(b)]) == 0
    for name in ("small.report.json", "small.hull.csv", "small.spectrum.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_angles_flag_overrides_scenario(tmp_path):
    path = write_scenario(tmp_path, small_run_doc())
    out = tmp_path / "out"
    assert main(["run", path, "--angles", "48", "--out-dir", str(out)]) == 0
    report = json.loads((out / "small.report.json").read_text())
    assert report["results"]["numrange"]["n_angles"] == 48
    assert report["scenario"]["params"]["n_angles"] == 48


@pytest.mark.parametrize("argv", [
    ["run", "{path}", "--angles", "2"],
    ["construct", "--a", "-2.5", "--b", "1.0", "--n", "41", "--angles", "2"]],
    ids=["run", "construct"])
def test_angles_below_three_exit_two(tmp_path, capsys, argv):
    path = write_scenario(tmp_path, small_run_doc())
    out = tmp_path / "out"
    assert main([a.format(path=path) for a in argv]
                + ["--out-dir", str(out)]) == 2
    assert "--angles" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("where", ["document", "flag"])
def test_angles_above_the_cap_exit_two(tmp_path, capsys, where):
    # 2^70 angles passed the schema, and the hull's angle list then grew
    # until memory ran out
    doc = small_run_doc()
    flags = []
    if where == "document":
        doc.setdefault("params", {})["n_angles"] = 2 ** 70
    else:
        flags = ["--angles", str(2 ** 70)]
    out = tmp_path / "out"
    assert main(["run", write_scenario(tmp_path, doc), *flags,
                 "--out-dir", str(out)]) == 2
    assert str(MAX_N_ANGLES) in capsys.readouterr().err
    assert not out.exists()


TABLE_2D = {"kind": "table",
            "params": {"entries": [{"site": [1], "value": [0.0, 0.5]},
                                   {"site": [0, 0], "value": [0.0, 1.0]}]}}
SEEDED_2D = {"kind": "seeded_random",
             "params": {"seed": 3, "box": {"nu": 2, "ranges": [[0, 1], [0, 1]]},
                        "re_range": [0.0, 0.0], "im_range": [0.5, 1.0]}}


@pytest.mark.parametrize("potential,box,where", [
    (TABLE_2D, BOX, "$.potential.params"),  # mixed site dimensions
    ({"kind": "table", "params": {"entries": TABLE_2D["params"]["entries"][1:]}},
     BOX, "$.potential.params.entries"),
    (SEEDED_2D, BOX, "$.potential.params.box.nu"),
    (KIND_DOCS["alternating_1d"], {"nu": 2, "ranges": [[0, 2], [0, 2]]},
     "$.potential.kind"),
    ({"kind": "sum", "params": {"terms": [KIND_DOCS["constant"], SEEDED_2D]}},
     BOX, "$.potential.params.terms[1].params.box.nu"),
    ({"kind": "sum", "params": {"terms": [
        KIND_DOCS["seeded_random"], {"kind": "sum", "params": {"terms": [
            KIND_DOCS["alternating_1d"]]}}]}},
     {"nu": 2, "ranges": [[0, 2], [0, 2]]},
     "$.potential.params.terms[0].params.box.nu"),
])
@pytest.mark.parametrize("verb", ["run", "criteria"])
def test_site_dimension_mismatch_exits_two_with_its_path(
        tmp_path, capsys, potential, box, where, verb):
    doc = dict(small_run_doc(), box=box, potential=potential)
    path = write_scenario(tmp_path, doc)
    out = tmp_path / "out"
    assert main([verb, path, "--out-dir", str(out)]) == 2
    assert f"at {where}: " in capsys.readouterr().err
    assert not out.exists()


DECAY = {"vanishes_outside_radius": 2}


@pytest.mark.parametrize("potential,where", [
    (dict(KIND_DOCS["table"], decay=DECAY), "$.potential.decay"),
    ({"kind": "sum", "params": {"terms": [
        KIND_DOCS["constant"], dict(KIND_DOCS["table"], decay=DECAY)]}},
     "$.potential.params.terms[1].decay"),
])
@pytest.mark.parametrize("verb", ["run", "criteria"])
def test_a_decay_block_is_an_unknown_field(tmp_path, capsys, potential,
                                           where, verb):
    # a kind's tail certificate is its one statement of decay: a scenario
    # has nothing to declare
    doc = dict(small_run_doc(), potential=potential)
    path = write_scenario(tmp_path, doc)
    out = tmp_path / "out"
    assert main([verb, path, "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"at {where}: unknown field" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("seed,flags,where", [
    (-1, [], "$.potential.params"),
    (2 ** 128, [], "$.potential.params"),
    (11, ["--seed", "-4"], "--seed"),
    ("params", [], "$.params.seed"),
])
def test_seed_outside_the_philox_key_range_exits_two(tmp_path, capsys, seed,
                                                     flags, where):
    doc = dict(small_run_doc(), potential=doc_for("seeded_random")["potential"])
    if seed == "params":
        doc["params"]["seed"] = -2
    else:
        doc["potential"]["params"]["seed"] = seed
    path = write_scenario(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["run", path, *flags, "--out-dir", str(out)]) == 2
    assert f"at {where}: " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("ranges", [
    [[2 ** 63, 2 ** 63]],  # beyond int64
    [[2 ** 62, 2 ** 62 + 3]],
])
def test_box_coordinates_beyond_the_site_range_exit_two(tmp_path, capsys,
                                                        ranges):
    doc = dict(small_run_doc(), box={"nu": 1, "ranges": ranges})
    doc["potential"] = doc_for("constant")["potential"]
    path = write_scenario(tmp_path, doc)
    assert main(["run", path, "--out-dir", str(tmp_path / "out")]) == 2
    assert "at $.box.ranges: " in capsys.readouterr().err


def test_readme_scenario_example_runs(tmp_path):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("## Scenario files", 1)[1].split("\n## ", 1)[0]
    (example,) = re.findall(r"```json\n(.*?)```", section, re.S)
    doc = json.loads(example)
    parse_scenario(doc)
    out = tmp_path / "out"
    assert main(["run", write_scenario(tmp_path, doc), "--out-dir",
                 str(out)]) == 0
    assert (out / f"{doc['name']}.report.json").exists()


def where_tags():
    """(file, line, tag) of every string given as `where=` in the package,
    and of every `where` parameter default."""
    for path in sorted(Path(specrange.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                values = [k.value for k in node.keywords if k.arg == "where"]
            elif isinstance(node, ast.FunctionDef):
                a = node.args
                defaults = [*zip(a.args[::-1], a.defaults[::-1]),
                            *zip(a.kwonlyargs, a.kw_defaults)]
                # an empty default is a message without a tag
                values = [d for arg, d in defaults if arg.arg == "where"
                          and d is not None and getattr(d, "value", 0) != ""]
            else:
                continue
            for v in values:
                # a name passes a tag on; anything else would hide one
                assert isinstance(v, (ast.Constant, ast.Name)), (path, v.lineno)
                if isinstance(v, ast.Constant):
                    yield path.name, v.lineno, v.value


def test_error_tags_name_a_module_of_the_package():
    # a message is tagged "[module.operation]" by the module it comes from
    stems = {p.stem for p in Path(specrange.__file__).parent.glob("*.py")}
    tags = list(where_tags())
    assert len(tags) > 40
    assert [(name, line, tag) for name, line, tag in tags
            if tag.partition(".")[0] not in stems] == []


def test_exit_code_two_for_schema_problems(tmp_path):
    missing = str(tmp_path / "nope.json")
    assert main(["run", missing, "--out-dir", str(tmp_path)]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text('{"name": "x"}\n')
    assert main(["run", str(bad), "--out-dir", str(tmp_path)]) == 2
    for text in ("]]]", "1" + "0" * 5000, "[" * 100000):
        notjson = tmp_path / "notjson.json"
        notjson.write_text(text + "\n")
        assert main(["run", str(notjson), "--out-dir", str(tmp_path)]) == 2
    # a file that is not UTF-8, and a directory, cannot be read
    undecodable = tmp_path / "undecodable.json"
    undecodable.write_bytes(b"\xff\xfe{")
    for unreadable in (undecodable, tmp_path):
        assert main(["run", str(unreadable), "--out-dir", str(tmp_path)]) == 2


@pytest.mark.parametrize("field,literal", [
    ("c", "[NaN, 0.0]"), ("c", "[0.0, -Infinity]"), ("exponent", "Infinity"),
    pytest.param("exponent", "1" + "0" * 400, id="exponent-int-beyond-float")])
def test_non_finite_numbers_exit_two_with_their_path(tmp_path, capsys, field,
                                                     literal):
    doc = doc_for("constant" if field == "c" else "decay_power")
    doc["potential"]["params"][field] = "@"
    path = tmp_path / "nonfinite.json"
    path.write_text(dumps_canonical(doc).replace('"@"', literal))
    assert main(["run", str(path), "--out-dir", str(tmp_path / "out")]) == 2
    assert f"$.potential.params.{field}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_all_zero_table_runs_as_the_free_chain(tmp_path):
    doc = small_run_doc()
    doc["potential"] = {"kind": "table", "params": {
        "entries": [{"site": [0], "value": [0.0, 0.0]}]}}
    free = dict(doc, name="free",
                potential={"kind": "table", "params": {"entries": []}})
    results = {}
    for d in (doc, free):
        path = write_scenario(tmp_path, d, f"{d['name']}.json")
        out = tmp_path / d["name"]
        assert main(["run", path, "--out-dir", str(out)]) == 0
        assert main(["criteria", path, "--out-dir", str(out)]) == 0
        report = json.loads((out / f"{d['name']}.report.json").read_text())
        results[d["name"]] = report["results"]
    for analysis in ("spectrum", "numrange", "classify"):
        assert results["small"][analysis] == results["free"][analysis]


def test_non_integer_max_dim_variable_exits_two(tmp_path, monkeypatch,
                                                capsys):
    monkeypatch.setenv("SPECRANGE_MAX_DIM", "abc")
    path = write_scenario(tmp_path, small_run_doc())
    assert main(["run", path, "--out-dir", str(tmp_path / "out")]) == 2
    assert "SPECRANGE_MAX_DIM" in capsys.readouterr().err


SWEEP_ARGS = ["--param", "potential.params.entries.0.value.1",
              "--from", "0.5", "--to", "0.5", "--steps", "1"]
CONSTRUCT = ["construct", "--a", "-2.5", "--b", "1.0", "--n", "41",
             "--angles", "120"]


@pytest.mark.parametrize("argv,where", [
    (["run", "{path}", "--tol-boundary", "nan"], "--tol-boundary"),
    (["criteria", "{path}", "--tol-cert", "inf"], "--tol-cert"),
    (["run", "{path}", "--tol-boundary", "-1"], "--tol-boundary"),
    (["sweep", "{path}", *SWEEP_ARGS, "--tol-cert", "-0.001"], "--tol-cert"),
    (["construct", "--a", "nan", "--b", "1"], "--a"),
    (["construct", "--a", "inf", "--b", "1"], "--a"),
    (["construct", "--a", "-2.5", "--b", "nan"], "--b"),
    (["construct", "--a", "-2.5", "--b", "inf"], "--b"),
    ([*CONSTRUCT, "--tol-cert", "nan"], "--tol-cert"),
    ([*CONSTRUCT, "--tol-boundary", "-1"], "--tol-boundary"),
    ([*CONSTRUCT[:-4], "--n", "0"], "--n"),
    ([*CONSTRUCT[:-4], "--n", "-5"], "--n"),
    (["run", "{path}", "--max-dim", "-1"], "--max-dim"),
    ([*CONSTRUCT, "--max-dim", "0"], "--max-dim"),
    (["sweep", "{path}", *SWEEP_ARGS, "--from", "nan"], "--from"),
    (["sweep", "{path}", *SWEEP_ARGS, "--to", "inf"], "--to"),
    (["sweep", "{path}", *SWEEP_ARGS, "--to=-inf"], "--to"),
    # each bound is finite, their difference is not
    (["sweep", "{path}", *SWEEP_ARGS, "--from=-1e308", "--to", "1e308",
      "--steps", "3"], "--to"),
], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_flags_are_held_to_their_schema_fields(tmp_path, capsys, argv, where):
    path = write_scenario(tmp_path, small_run_doc())
    out = tmp_path / "out"
    assert main([a.format(path=path) for a in argv]
                + ["--out-dir", str(out)]) == 2
    assert f"at {where}:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["0", "-3"])
def test_max_dim_variable_below_one_exits_two(tmp_path, monkeypatch, capsys,
                                              value):
    monkeypatch.setenv("SPECRANGE_MAX_DIM", value)
    path = write_scenario(tmp_path, small_run_doc())
    out = tmp_path / "out"
    assert main(["run", path, "--out-dir", str(out)]) == 2
    assert "at SPECRANGE_MAX_DIM:" in capsys.readouterr().err
    assert not out.exists()


def tree(root):
    return sorted(p.relative_to(root) for p in root.rglob("*"))


@pytest.mark.parametrize("name", ["../escaped", "/abs", "sub/dir", "nul\0"],
                         ids=["parent", "absolute", "subdir", "nul"])
@pytest.mark.parametrize("verb", ["run", "criteria", "sweep", "construct"])
def test_output_names_stay_inside_the_out_dir(tmp_path, capsys, verb, name):
    if name == "/abs":
        name = str(tmp_path / "abs")
    out = tmp_path / "nested" / "out"
    if verb == "construct":
        argv, where = [*CONSTRUCT, "--name", name], "--name"
    else:
        doc = dict(small_run_doc(), name=name)
        path = write_scenario(tmp_path, doc)
        argv = [verb, path, *(SWEEP_ARGS if verb == "sweep" else [])]
        where = "$.name"
    before = tree(tmp_path)
    assert main([*argv, "--out-dir", str(out)]) == 2
    assert f"at {where}:" in capsys.readouterr().err
    assert tree(tmp_path) == before


@pytest.mark.parametrize("verb", ["run", "criteria", "construct", "sweep"])
def test_names_that_are_not_utf8_exit_two_and_write_nothing(tmp_path, capsys,
                                                            verb):
    # a JSON "\ud800" in the document, or an argv byte that is not UTF-8
    # (which Python decodes to a lone surrogate): no output file could
    # hold the name, nor a sweep row's error cell, which repeats --param
    out = tmp_path / "out"
    if verb == "construct":
        argv, where = [*CONSTRUCT, "--name", "bad\udc80"], "--name"
    elif verb == "sweep":
        path = write_scenario(tmp_path, small_run_doc())
        argv = ["sweep", path, "--param", "potential.x\udc80", "--from", "0",
                "--to", "1", "--steps", "2"]
        where = "--param"
    else:
        path = tmp_path / "case.json"
        path.write_text(json.dumps(dict(small_run_doc(), name="ok\ud800x")))
        argv, where = [verb, str(path)], "$.name"
    assert main([*argv, "--out-dir", str(out)]) == 2
    assert f"at {where}: " in capsys.readouterr().err
    assert not out.exists()


# verb -> (argv, the suffixes of its files in write order)
WRITTEN = {
    "run": (["run", "{path}"], ["report.json", "hull.csv", "spectrum.csv"]),
    "criteria": (["criteria", "{path}"], ["criteria.json"]),
    "construct": ([*CONSTRUCT, "--name", "small"],
                  ["scenario.json", "report.json", "hull.csv",
                   "spectrum.csv"]),
    "sweep": (["sweep", "{path}", *SWEEP_ARGS], ["sweep.csv"]),
}


@pytest.mark.parametrize("verb", sorted(WRITTEN))
def test_each_verb_prints_exactly_the_paths_it_writes(tmp_path, monkeypatch,
                                                      capsys, verb):
    # stdout lists the written paths in write order, the output directory
    # holds nothing else, and construct's certificate line comes last
    from specrange import cli
    argv, suffixes = WRITTEN[verb]
    path = write_scenario(tmp_path, small_run_doc())
    out = tmp_path / "out"
    written = []

    def spy(target, text):
        atomic_write_text(target, text)
        written.append(target)

    monkeypatch.setattr(cli, "atomic_write_text", spy)
    assert main([a.format(path=path) for a in argv]
                + ["--out-dir", str(out)]) == 0
    printed = capsys.readouterr().out.splitlines()
    if verb == "construct":
        assert printed.pop().startswith("certified boundary eigenvalue ")
    assert printed == written == [str(out / f"small.{s}") for s in suffixes]
    assert sorted(os.listdir(out)) == sorted(f"small.{s}" for s in suffixes)


@pytest.mark.parametrize("below", ["", "sub"], ids=["file", "under_a_file"])
@pytest.mark.parametrize("verb", sorted(WRITTEN))
def test_out_dir_that_cannot_be_created_exits_two(tmp_path, capsys, verb,
                                                  below):
    # --out-dir names a file, or a directory under one: nothing is written
    # and nothing is printed, construct's certificate line included
    argv, _ = WRITTEN[verb]
    path = write_scenario(tmp_path, small_run_doc())
    blocker = tmp_path / "file"
    blocker.write_text("")
    before = tree(tmp_path)
    assert main([a.format(path=path) for a in argv]
                + ["--out-dir", str(blocker / below)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "at --out-dir: " in err
    assert tree(tmp_path) == before


@pytest.mark.parametrize("verb", sorted(WRITTEN))
def test_output_path_that_is_a_directory_exits_two_and_writes_nothing(
        tmp_path, capsys, verb):
    # the last file of the verb names a directory: refused before the first
    # write, so none of the files before it is left behind
    argv, suffixes = WRITTEN[verb]
    path = write_scenario(tmp_path, small_run_doc())
    out = tmp_path / "out"
    (out / f"small.{suffixes[-1]}").mkdir(parents=True)
    before = tree(tmp_path)
    assert main([a.format(path=path) for a in argv]
                + ["--out-dir", str(out)]) == 2
    printed, err = capsys.readouterr()
    assert printed == "" and "at --out-dir: " in err and "is a directory" in err
    assert tree(tmp_path) == before


@pytest.mark.skipif(os.name != "posix", reason="file modes are POSIX")
@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o027, 0o640)],
                         ids=["umask_022", "umask_027"])
def test_written_files_take_the_mode_the_umask_gives(tmp_path, umask, mode):
    # a new file and one that exists already, whatever its mode, both get
    # 0o666 less the umask, as a file opened for writing would
    path = write_scenario(tmp_path, small_run_doc())
    out = tmp_path / "out"
    out.mkdir()
    (out / "small.report.json").write_text("")
    (out / "small.report.json").chmod(0o600)
    old = os.umask(umask)
    try:
        assert main(["run", path, "--out-dir", str(out)]) == 0
    finally:
        os.umask(old)
    modes = {f.name: f.stat().st_mode & 0o777 for f in out.iterdir()}
    assert modes == {f"small.{s}": mode for s in WRITTEN["run"][1]}


def test_construct_takes_no_seed_flag(tmp_path, capsys):
    # construct builds no seeded potential, so --seed is not one of its flags
    with pytest.raises(SystemExit) as e:
        main(["construct", "--a", "-2.5", "--b", "1.0", "--n", "41",
              "--angles", "120", "--seed", "3", "--out-dir", str(tmp_path)])
    assert e.value.code == 2
    assert "--seed" in capsys.readouterr().err


def test_deeply_nested_sum_exits_two(tmp_path, capsys):
    # Shallow enough for json.loads, too deep for the recursive parser,
    # which needs about five Python frames per level of sum terms.
    depth = 250
    potential = ('{"kind": "sum", "params": {"terms": [' * depth
                 + '{"kind": "constant", "params": {"c": [0.0, 1.0]}}'
                 + "]}}" * depth)
    doc = doc_for("constant")
    doc["potential"] = "@"
    path = tmp_path / "deep.json"
    path.write_text(dumps_canonical(doc).replace('"@"', potential))
    assert main(["run", str(path), "--out-dir", str(tmp_path / "out")]) == 2
    assert "nests too deeply" in capsys.readouterr().err


def test_exit_code_three_for_dimension_cap(tmp_path):
    path = write_scenario(tmp_path, small_run_doc())
    assert main(["run", path, "--max-dim", "4",
                 "--out-dir", str(tmp_path / "o")]) == 3


def test_exit_code_four_for_impossible_design(tmp_path):
    assert main(["construct", "--a", "-1.0", "--b", "1.0",
                 "--out-dir", str(tmp_path)]) == 4


@pytest.mark.parametrize("a", ["1e10", "-1e10", "1e150"])
def test_construct_with_large_a_exits_four(tmp_path, capsys, a):
    # the tail ratio r ~ 1/a is nonzero, and so is every neighbour ratio
    # u(n -+ 1) / u(n) ~ a of the sharp design, which exceeds the ratio cap
    out = tmp_path / "out"
    assert main(["construct", f"--a={a}", "--b", "1",
                 "--out-dir", str(out)]) == 4
    assert "certification error" in capsys.readouterr().err
    assert not out.exists()


def test_construct_window_follows_a_far_zero(tmp_path, capsys):
    # the design window grows to hold the zero: [-10, 16] inside [-50, 50]
    assert main(["construct", "--a", "-2.5", "--b", "1", "--zeros", "15",
                 "--n", "101", "--angles", "360",
                 "--out-dir", str(tmp_path)]) == 0
    assert "certified boundary eigenvalue" in capsys.readouterr().out


@pytest.mark.parametrize("args, code, message", [
    (["--zeros", "2000"], 4,
     "truncation [-50, 50] must strictly contain the design window "
     "[-10, 2001]"),
    (["--n", "3001", "--zeros", "1100"], 4, "not representable in float64"),
    (["--n", "3001", "--zeros=-1100"], 4, "not representable in float64"),
    # the box meets the dimension cap before the design runs
    (["--n", "100001", "--zeros", "2000"], 3, "exceeding the dimension cap"),
])
def test_construct_refuses_a_zero_the_box_or_float64_cannot_hold(
        tmp_path, capsys, args, code, message):
    assert main(["construct", "--a", "-2.5", "--b", "1", *args,
                 "--out-dir", str(tmp_path)]) == code
    assert message in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_criteria_verb_writes_combined_verdicts(tmp_path):
    doc = doc_for("decay_power")
    doc["name"] = "crit"
    doc["params"] = {"criteria": {"b_values": [0.4]}}
    path = write_scenario(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["criteria", path, "--out-dir", str(out)]) == 0
    blob = json.loads((out / "crit.criteria.json").read_text())
    combined = blob["criteria"]["combined"]
    assert combined["no_boundary_eigenvalues"] is True
    assert combined["nonreal_excluded"] is True
    assert isinstance(blob["criteria"]["entries"], list)


def test_construct_verb_emits_scenario_and_certificate(tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["construct", "--a", "-2.5", "--b", "1.0", "--zeros", "0",
               "--n", "61", "--angles", "360", "--out-dir", str(out)])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "certified boundary eigenvalue" in printed
    scen = json.loads((out / "counterexample_a-2.5_b1.scenario.json").read_text())
    rerun = parse_scenario(scen)
    assert rerun.box.ranges == ((-30, 30),)
    report = json.loads((out / "counterexample_a-2.5_b1.report.json").read_text())
    target = min(report["results"]["spectrum"]["eigenvalues"],
                 key=lambda e: abs(complex(*e["value"]) - (-2.5 + 1j)))
    assert abs(complex(*target["value"]) - (-2.5 + 1j)) < 1e-6


def test_construct_forwards_max_dim_to_its_single_assemble(
        tmp_path, monkeypatch):
    from specrange import model
    monkeypatch.setattr(model, "DEFAULT_MAX_DIM", 20)
    monkeypatch.delenv("SPECRANGE_MAX_DIM", raising=False)
    argv = ["construct", "--a", "-2.5", "--b", "1.0", "--n", "41",
            "--angles", "120"]
    counts = count_calls(monkeypatch)
    assert main([*argv, "--max-dim", "64",
                 "--out-dir", str(tmp_path / "raised")]) == 0
    assert counts["assemble"] == 1 and counts["compute_hull"] == 1
    # a box past the cap is refused before the design, so before any assemble
    assert main([*argv, "--max-dim", "40",
                 "--out-dir", str(tmp_path / "lowered")]) == 3
    assert counts["assemble"] == 1 and counts["compute_hull"] == 1
    assert not (tmp_path / "lowered").exists()


def test_sweep_verb_emits_csv_rows(tmp_path):
    doc = doc_for("alternating_1d")
    doc["name"] = "sweepcase"
    doc["analysis"] = ["spectrum", "numrange", "classify"]
    doc["params"] = {"n_angles": 60}
    path = write_scenario(tmp_path, doc)
    out = tmp_path / "out"
    rc = main(["sweep", path, "--param", "potential.params.b_odd",
               "--from", "0.0", "--to", "1.0", "--steps", "3",
               "--out-dir", str(out)])
    assert rc == 0
    lines = (out / "sweepcase.sweep.csv").read_text().splitlines()
    assert lines[0] == ("param,status,n_eigenvalues,eigenvalues,"
                        "boundary_flags,certified_flags,error")
    assert len(lines) == 4
    for line in lines[1:]:
        cells = line.split(",")
        assert cells[1] == "ok"
        assert int(cells[2]) == 16
        assert cells[6] == ""
    assert lines[1].startswith("0.0,")
    assert lines[3].startswith("1.0,")


@pytest.mark.parametrize("steps", ["-1", "65537"])
def test_sweep_steps_outside_their_range_exit_two_before_any_analysis(
        tmp_path, monkeypatch, capsys, steps):
    # the cap itself would start 2**16 analyses, so only values past it run
    def refuse(*args, **kwargs):
        raise AssertionError("analyse ran")

    monkeypatch.setattr("specrange.cli.analyse", refuse)
    path = write_scenario(tmp_path, small_run_doc())
    out = tmp_path / "out"
    assert main(["sweep", path, "--param",
                 "potential.params.entries.0.value.1",
                 "--from", "0", "--to", "1", "--steps", steps,
                 "--out-dir", str(out)]) == 2
    assert "at --steps:" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_bad_path_is_reported_per_row(tmp_path):
    doc = doc_for("alternating_1d")
    doc["name"] = "badsweep"
    path = write_scenario(tmp_path, doc)
    out = tmp_path / "out"
    rc = main(["sweep", path, "--param", "potential.params.missing",
               "--from", "0.0", "--to", "1.0", "--steps", "2",
               "--out-dir", str(out)])
    assert rc == 0
    lines = (out / "badsweep.sweep.csv").read_text().splitlines()
    assert len(lines) == 3
    for line in lines[1:]:
        assert ",error,0,,,," in line


def test_module_entry_point_runs_in_subprocess(tmp_path):
    path = write_scenario(tmp_path, small_run_doc())
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "specrange", "run", path,
         "--out-dir", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert (out / "small.report.json").exists()


def test_chain_with_entries_near_the_float_limit_runs_its_sweep(tmp_path):
    # ?stebz finds no eigenvalue on this chain at most angles (its bounds
    # overflow) unless the chain is scaled, as the sweep does
    doc = {"name": "huge", "box": {"nu": 1, "ranges": [[-3, 3]]},
           "potential": {"kind": "constant", "params": {"c": [1e308, 1e308]}},
           "analysis": ["numrange"]}
    path = write_scenario(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["run", path, "--out-dir", str(out)]) == 0
    report = json.loads((out / "huge.report.json").read_text())
    _, *rows = (out / "huge.hull.csv").read_text().splitlines()
    assert len(rows) == report["results"]["numrange"]["n_angles"]
    assert all(math.isfinite(float(cell))
               for row in rows for cell in row.split(","))


HUGE_TABLE = {"kind": "table",
              "params": {"entries": [{"site": [0], "value": [1e160, 1e160]}]}}
HUGE_CONSTANT = {"kind": "constant", "params": {"c": [1e308, 1e308]}}


@pytest.mark.parametrize("box, potential, code", [
    # ||A||_F is finite, but its plain sum of squares overflows, and so did
    # the chain's ?stein vectors (NaN witnesses)
    pytest.param([[-3, 3]], HUGE_TABLE, 0, id="table_1e160"),
    # ||A||_F itself is beyond the float64 range: no tolerance exists
    pytest.param([[-3, 3]], HUGE_CONSTANT, 3, id="constant_1e308"),
    pytest.param([[-3, 3], [-3, 3]], HUGE_CONSTANT, 3, id="constant_1e308_2d"),
])
def test_entries_beyond_the_square_root_of_the_float_range(tmp_path, box,
                                                           potential, code):
    doc = {"name": "huge", "box": {"nu": len(box), "ranges": box},
           "potential": potential, "analysis": ["numrange", "classify"]}
    out = tmp_path / "out"
    assert main(["run", write_scenario(tmp_path, doc), "--out-dir",
                 str(out)]) == code
    if code == 0:
        res = json.loads((out / "huge.report.json").read_text())["results"]
        assert math.isfinite(res["classify"]["tol_cert"])
        assert res["classify"]["tol_cert"] == pytest.approx(
            1e-6 * (1.0 + math.hypot(1e160, 1e160)), rel=1e-12)
        assert all(math.isfinite(x) for v in res["numrange"]["polygon"]
                   for x in v)


def huge_table(site, value):
    return {"kind": "table",
            "params": {"entries": [{"site": site, "value": [value, value]}]}}


@pytest.mark.parametrize("box, potential, analysis, code", [
    # ||A||_F is finite, but the residuals' plain sums of squares overflowed
    # (a breached residual contract, exit 3): they are formed on A scaled by
    # a power of two
    pytest.param([[-3, 3]], huge_table([0], 1e200), ANALYSIS, 0,
                 id="table_1e200"),
    pytest.param([[-3, 3], [-3, 3]], huge_table([0, 0], 1e200), ANALYSIS, 0,
                 id="table_1e200_2d"),
    # ?stevd failed on this chain (info = 3); the chain is swept scaled
    pytest.param([[-3, 3]], huge_table([0], 1e300), ["numrange"], 0,
                 id="table_1e300"),
    # s(theta) reaches |1.7e308 (1 + i)| = 2.4e308 once unscaled
    pytest.param([[-3, 3]], huge_table([0], 1.7e308), ["numrange"], 3,
                 id="table_1.7e308"),
    pytest.param([[-3, 3], [-3, 3]], huge_table([0, 0], 1.7e308),
                 ["numrange"], 3, id="table_1.7e308_2d"),
    # two finite terms whose sum overflows: a traceback before
    pytest.param([[-3, 3]], {"kind": "sum", "params": {"terms": [
        HUGE_CONSTANT, HUGE_CONSTANT]}}, ["numrange"], 3, id="sum_to_inf"),
    pytest.param([[-3, 3]], {"kind": "sum", "params": {"terms": [
        HUGE_CONSTANT, HUGE_CONSTANT]}}, ["spectrum"], 3,
        id="sum_to_inf_spectrum"),
    # the criteria's tail envelope 1 / (1 + s**1e150) raised OverflowError
    pytest.param([[0, 0]], {"kind": "decay_power", "params": {
        "amplitude": [0.3, 0.4], "exponent": 1e150}}, ANALYSIS, 0,
        id="power_exponent_1e150"),
    # the other end: the operator's scale was the subnormal 2^-1074, whose
    # reciprocal overflows, so the sweep's witnesses left the float64 range
    # (exit 3) and the residuals came out NaN
    pytest.param([[0, 0]], huge_table([0], 5e-324), ANALYSIS, 0,
                 id="table_5e-324"),
    # numpy's complex product warned of an overflow on stderr, although the
    # values it gave were finite
    pytest.param([[-3, 3]], {"kind": "decay_geometric", "params": {
        "amplitude": [1.7976931348623157e308, 1.7976931348623157e308],
        "ratio": 0.5}}, ANALYSIS, 3, id="geometric_1.8e308"),
])
def test_entries_near_the_float_limit_run_or_exit_three(
        tmp_path, box, potential, analysis, code):
    doc = {"name": "huge", "box": {"nu": len(box), "ranges": box},
           "potential": potential, "analysis": analysis}
    out = tmp_path / "out"
    path = write_scenario(tmp_path, doc)
    # overflow is the intended result here, not a numerical accident to
    # report on stderr
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["run", path, "--out-dir", str(out)]) == code
    if code == 0:
        res = json.loads((out / "huge.report.json").read_text())["results"]
        assert all(math.isfinite(x) for v in res["numrange"]["polygon"]
                   for x in v)


def box_doc(ranges):
    doc = doc_for("decay_geometric")
    doc.update(name="box", box={"nu": len(ranges), "ranges": ranges},
               analysis=ANALYSIS, params={"n_angles": 32})
    doc["potential"]["params"].pop("parity")
    return doc


@pytest.mark.parametrize("ranges", [[[-8, 7]], [[-3, 4], [-2, 3]]])
def test_run_path_never_reads_the_dense_matrix(tmp_path, monkeypatch,
                                               ranges):
    # an assembled operator is the box and d: the one dense copy of A is
    # the buffer eig_general hands to ?geev, written by fill
    def no_matrix(self):
        raise AssertionError("the dense matrix was read")

    fills = []
    fill = LatticeOperator.fill
    monkeypatch.setattr(LatticeOperator, "matrix", property(no_matrix))
    monkeypatch.setattr(LatticeOperator, "fill",
                        lambda self, buf: fills.append(1) or fill(self, buf))
    path = write_scenario(tmp_path, box_doc(ranges))
    assert main(["run", path, "--out-dir", str(tmp_path / "out")]) == 0
    assert fills == [1]


def test_analysis_peak_memory_is_two_dense_arrays(tmp_path):
    # the ?geev buffer and the eigenvector block; the parent's assembled
    # matrix and np.linalg.eig's copies read 3.2 n x n arrays here
    sc = parse_scenario(box_doc([[0, 23], [0, 23]]))
    n = sc.box.site_count
    analyse(sc)
    tracemalloc.start()
    try:
        analyse(sc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * 16 * n * n


@pytest.mark.parametrize("verb", ["run", "criteria"])
def test_carrier_beyond_the_dimension_cap_exits_two_at_once(
        tmp_path, capsys, monkeypatch, verb):
    def no_draws(self, site):
        raise AssertionError("a carrier value was drawn")

    monkeypatch.setattr(SeededRandomPotential, "_site_value", no_draws)
    carrier = dict(KIND_DOCS["seeded_random"], params=dict(
        KIND_DOCS["seeded_random"]["params"],
        box={"nu": 1, "ranges": [[0, 10000000]]}))
    out = tmp_path / "out"
    for potential, where in [
            ({"kind": "sum", "params": {"terms": [
                KIND_DOCS["constant"], carrier]}},
             "$.potential.params.terms[1]"),
            ({"kind": "sum", "params": {"terms": [
                KIND_DOCS["constant"], {"kind": "sum", "params": {"terms": [
                    KIND_DOCS["table"], carrier]}}]}},
             "$.potential.params.terms[1].params.terms[1]")]:
        doc = dict(small_run_doc(), potential=potential)
        path = write_scenario(tmp_path, doc)
        assert main([verb, path, "--out-dir", str(out)]) == 2
        assert f"at {where}.params.box: " in capsys.readouterr().err
        assert not out.exists()
        # the cap is the run's: --max-dim raises it for every verb
        assert main([verb, path, "--max-dim", "5", "--out-dir",
                     str(out)]) == 2
    # a 13-site carrier on a 13-site box
    doc.update(potential=KIND_DOCS["seeded_random"],
               box={"nu": 1, "ranges": [[-6, 6]]})
    path = write_scenario(tmp_path, doc)
    monkeypatch.undo()
    assert main([verb, path, "--max-dim", "12", "--out-dir", str(out)]) == 2
    assert main([verb, path, "--max-dim", "13", "--out-dir", str(out)]) == 0


def test_single_site_chain_runs_every_analysis(tmp_path):
    doc = {"name": "one", "box": {"nu": 1, "ranges": [[0, 0]]},
           "potential": json.loads(json.dumps(KIND_DOCS["alternating_1d"])),
           "analysis": list(ANALYSIS), "params": {"n_angles": 3}}
    path = write_scenario(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["run", path, "--out-dir", str(out)]) == 0
    res = json.loads((out / "one.report.json").read_text())["results"]
    # one site with d(0) = i b_even: the spectrum, and the whole hull
    assert res["spectrum"]["count"] == 1
    assert res["numrange"]["polygon"] == [[0.0, 0.25]]
    assert res["classify"]["certified_boundary_count"] == 1
