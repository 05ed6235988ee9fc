"""Property: every scenario document either runs or fails with a
path-qualified error, exit code 2, 3 or 4; none ends in a traceback.

Documents are drawn from the round-trip documents of every kind, with
each kind's value fields (c, amplitude, exponent, b_even/b_odd, the ranges
and table values) drawn moderate or huge, then mutated: values of the wrong
type or range, non-finite numbers, finite magnitudes up to the float64
limit (whose squares, sums and rotations overflow), sites and carrier boxes
of the wrong dimension, dropped and unknown fields, and sums of kinds.
Every box has at most 12 sites, so each example runs in milliseconds: boxes
on one or two axes, and single sites on 14 to 16 axes, whose radius-1
criteria scan (3^nu sites) is over the scan cap.  Carriers have at most 12
sites too, or more than the dimension cap, which exit 2 before any of their
sites is drawn.
"""

import json
import math
from functools import partial

from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from specrange.cli import main
from test_scenario_cli import KIND_DOCS

ANALYSES = ["spectrum", "numrange", "classify", "criteria"]

# finite magnitudes whose squares (1e150 on), sums or rotations (1.7e308)
# leave the float64 range
HUGE = st.sampled_from([1e150, 1e200, 1e300, 1.7e308]).flatmap(
    lambda x: st.sampled_from([x, -x]))

# a number of a potential: moderate or huge
VALUE = st.floats(-2.0, 2.0) | HUGE
COMPLEX = st.lists(VALUE, min_size=2, max_size=2)

# seeded_random carriers over the dimension cap (4096 sites), built afresh
# for each document since mutations change them in place
BIG_CARRIER = st.sampled_from([((0, 4096),), ((-5000, 5000),),
                               ((0, 64), (0, 63))]).map(
    lambda ranges: {"nu": len(ranges), "ranges": [list(r) for r in ranges]})

# values that a field of some other type, range or finiteness may receive;
# the integers stay small or beyond int64, never large enough to allocate
JUNK = st.one_of(
    st.none(), st.booleans(), st.sampled_from(["", "even", "x", "sum"]),
    st.integers(-8, 8), st.sampled_from([2 ** 70, -(2 ** 70), 10 ** 400]),
    st.floats(-50.0, 50.0), HUGE,
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0]),
    st.builds(list), st.builds(dict), st.lists(st.integers(-3, 3), max_size=3),
)


@st.composite
def small_box(draw, nu=None):
    nu = draw(st.integers(1, 3)) if nu is None else nu
    budget, ranges = 12, []
    for _ in range(nu):
        side = draw(st.integers(1, max(1, budget)))
        budget //= side
        lo = draw(st.integers(-6, 6))
        ranges.append([lo, lo + side - 1])
    return {"nu": nu, "ranges": ranges}


@st.composite
def single_site_box(draw):
    nu = draw(st.integers(14, 16))
    return {"nu": nu, "ranges": [[k, k] for k in
                                 draw(st.lists(st.integers(-6, 6),
                                               min_size=nu, max_size=nu))]}


@st.composite
def potential(draw, nu, depth=0):
    # the kinds declared on one lattice dimension only are drawn on the
    # small boxes, where a mismatch with the box is a case of its own
    kinds = [k for k in sorted(KIND_DOCS)
             if nu <= 2 or k not in ("alternating_1d", "seeded_random")]
    kind = draw(st.sampled_from(kinds))
    doc = json.loads(json.dumps(KIND_DOCS[kind]))
    params = doc["params"]
    if kind == "constant":
        params["c"] = draw(COMPLEX)
    elif kind in ("decay_power", "decay_geometric"):
        params["amplitude"] = draw(COMPLEX)
        if kind == "decay_power":
            params["exponent"] = draw(st.floats(0.5, 4.0) | HUGE)
    elif kind == "alternating_1d":
        params["b_even"], params["b_odd"] = draw(VALUE), draw(VALUE)
    elif kind == "seeded_random":
        params["box"] = draw(small_box() | BIG_CARRIER)
        params["re_range"] = sorted(draw(COMPLEX))
        params["im_range"] = sorted(draw(COMPLEX))
    elif kind == "table":
        dim = draw(st.integers(1, 3) | st.just(nu))
        params["entries"] = [
            {"site": [draw(st.integers(-6, 6)) for _ in range(dim)],
             "value": draw(COMPLEX)}
            for _ in range(draw(st.integers(0, 3)))]
    elif kind == "sum" and depth < 2:
        params["terms"] = draw(st.lists(potential(nu, depth + 1),
                                        min_size=1, max_size=3))
    return doc


def leaves(node, path=()):
    """Paths of every scalar in a JSON document."""
    if isinstance(node, dict):
        for k, v in node.items():
            yield from leaves(v, path + (k,))
    elif isinstance(node, list):
        for i, v in enumerate(node):
            yield from leaves(v, path + (i,))
    else:
        yield path


def containers(node, path=()):
    """Paths of every object in a JSON document."""
    if isinstance(node, dict):
        yield path
        for k, v in node.items():
            yield from containers(v, path + (k,))
    elif isinstance(node, list):
        for i, v in enumerate(node):
            yield from containers(v, path + (i,))


def at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@st.composite
def mutated_document(draw):
    box = draw(small_box(draw(st.integers(1, 2))) | single_site_box())
    doc = {"name": "prop", "box": box, "potential": draw(potential(box["nu"])),
           "analysis": draw(st.lists(st.sampled_from(ANALYSES), min_size=1,
                                     max_size=4, unique=True)),
           "params": {"n_angles": draw(st.integers(1, 24)),
                      "criteria": {"b_values": [0.5], "a_values": [-2.5],
                                   "scan_radius": draw(st.integers(1, 30))}}}
    for _ in range(draw(st.integers(0, 3))):
        how = draw(st.sampled_from(["replace", "drop", "add", "huge"]))
        if how == "replace":
            path = draw(st.sampled_from(list(leaves(doc))))
            if path:
                at(doc, path[:-1])[path[-1]] = draw(JUNK)
        elif how == "huge":
            # a number of the document (a potential value, a range, a
            # criteria target) made huge
            floats = [p for p in leaves(doc) if isinstance(at(doc, p), float)]
            if floats:
                path = draw(st.sampled_from(floats))
                at(doc, path[:-1])[path[-1]] = draw(HUGE)
        else:
            obj = at(doc, draw(st.sampled_from(list(containers(doc)))))
            if how == "drop" and obj:
                obj.pop(draw(st.sampled_from(sorted(obj))))
            elif how == "add":
                obj["unexpected"] = draw(JUNK)
    return doc


@settings(max_examples=300, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(doc=mutated_document(), verb=st.sampled_from(["run", "criteria"]))
def test_every_document_runs_or_exits_with_a_code(tmp_path, doc, verb):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))  # NaN and Infinity as JSON literals
    code = main([verb, str(path), "--out-dir", str(tmp_path / "out")])
    event(f"exit code {code}")
    if any(abs(x) >= 1e150 for x in map(partial(at, doc), leaves(doc))
           if isinstance(x, float)):
        event("a number of 1e150 or more")
    assert code in (0, 2, 3, 4)
