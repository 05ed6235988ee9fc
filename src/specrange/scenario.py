"""Scenario files: the strict JSON schema tying the CLI to the model.

Parsing is a whitelist walk: every object's keys are checked against the
schema and an unknown, ill-typed or non-finite field fails with the exact
JSON path (e.g. "$.potential.params.entries[3].site").  The potential
kinds are declared once, by the model's dataclasses: `KINDS` maps each
kind to its class, a kind's `params` are exactly the class's init fields
(required unless they have a default), and each field goes through one
reader and one writer keyed by its name.  A potential is a kind and its
params only: its decay is the kind's own tail certificate, which the
criteria read, so a document declares none.  Serialization inverts parsing
losslessly, and `dumps_canonical` fixes the byte-level format
(sorted keys, two-space indent, shortest round-trip floats) so identical
inputs yield byte-identical reports.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import tempfile
from dataclasses import dataclass, field
from json.encoder import encode_basestring as _encode_string

from .config import DEFAULT_N_ANGLES, MAX_N_ANGLES, Tolerances
from .criteria import CriteriaParams
from .exceptions import SchemaError
from .model import (Alternating1DPotential, ConstantPotential,
                    GeometricDecayPotential, LatticeBox, PotentialSpec,
                    PowerDecayPotential, SEED_LIMIT, SeededRandomPotential,
                    SumPotential, TablePotential)

ANALYSES = ("spectrum", "numrange", "classify", "criteria")
TOLERANCE_KEYS = tuple(f.name for f in dataclasses.fields(Tolerances))


# ---------------------------------------------------------------------------
# low-level checked readers


def _fail(path: str, msg: str) -> SchemaError:
    return SchemaError(msg, path=path, where="scenario.parse")


def _object(data, path: str, required: tuple[str, ...],
            optional: tuple[str, ...] = ()) -> dict:
    if not isinstance(data, dict):
        raise _fail(path, f"expected an object, got {type(data).__name__}")
    for key in data:
        if key not in required and key not in optional:
            raise _fail(f"{path}.{key}", "unknown field")
    for key in required:
        if key not in data:
            raise _fail(path, f"missing required field {key!r}")
    return data


def _array(data, path: str, min_len: int = 0):
    if not isinstance(data, list):
        raise _fail(path, f"expected an array, got {type(data).__name__}")
    if len(data) < min_len:
        raise _fail(path, f"expected at least {min_len} elements")
    return data


def _int(data, path: str) -> int:
    if isinstance(data, bool) or not isinstance(data, int):
        raise _fail(path, f"expected an integer, got {type(data).__name__}")
    return data


def check_real(data, path: str) -> float:
    """A finite number; also the reader of the CLI's real-valued flags."""
    if isinstance(data, bool) or not isinstance(data, (int, float)):
        raise _fail(path, f"expected a number, got {type(data).__name__}")
    try:
        value = float(data)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise _fail(path, f"expected a finite number, got {data!r}")
    return value


def check_string(data, path: str) -> str:
    """A string that encodes as UTF-8, as every output file is written: a
    lone surrogate (a JSON "\\ud800", or an argv byte that is not UTF-8)
    fails here, at its path.  Also the reader of sweep's --param, which
    every sweep row's error cell may repeat."""
    if not isinstance(data, str):
        raise _fail(path, f"expected a string, got {type(data).__name__}")
    try:
        data.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise _fail(path, f"expected UTF-8 text, got {exc.reason} at "
                          f"index {exc.start}")
    return data


def _items(data, path: str, read, min_len: int = 0) -> tuple:
    return tuple(read(v, f"{path}[{i}]")
                 for i, v in enumerate(_array(data, path, min_len)))


def _pair(data, path: str, form: str, read=check_real) -> tuple:
    arr = _array(data, path)
    if len(arr) != 2:
        raise _fail(path, f"expected {form}")
    return read(arr[0], f"{path}[0]"), read(arr[1], f"{path}[1]")


def _complex(data, path: str) -> complex:
    return complex(*_pair(data, path, "[re, im]"))


def _encode_complex(z: complex) -> list[float]:
    return [z.real, z.imag]


# ---------------------------------------------------------------------------
# box


def parse_box(data, path: str = "$.box") -> LatticeBox:
    obj = _object(data, path, required=("nu", "ranges"))
    nu = _int(obj["nu"], f"{path}.nu")
    if nu < 1:
        raise _fail(f"{path}.nu", "nu must be >= 1")
    ranges = []
    arr = _array(obj["ranges"], f"{path}.ranges")
    if len(arr) != nu:
        raise _fail(f"{path}.ranges", f"expected {nu} intervals, got {len(arr)}")
    for j, pair in enumerate(arr):
        lo, hi = _pair(pair, f"{path}.ranges[{j}]", "[lo, hi]", _int)
        if lo > hi:
            raise _fail(f"{path}.ranges[{j}]", f"lo = {lo} exceeds hi = {hi}")
        ranges.append((lo, hi))
    try:
        return LatticeBox(nu=nu, ranges=tuple(ranges))
    except ValueError as exc:
        raise _fail(f"{path}.ranges", str(exc))


def check_n_angles(n_angles: int, path: str) -> int:
    """An angle count, held to 3 <= n_angles <= MAX_N_ANGLES."""
    if not 3 <= n_angles <= MAX_N_ANGLES:
        raise _fail(path, f"n_angles must be between 3 and {MAX_N_ANGLES}")
    return n_angles


def check_seed(seed: int, path: str) -> int:
    """A seed override, held to the Philox key range of seeded_random."""
    if not 0 <= seed < SEED_LIMIT:
        raise _fail(path, "seed must be >= 0 and < 2**128")
    return seed


def check_tolerance(value, path: str) -> float:
    """A tolerance or tolerance override: finite and >= 0."""
    value = check_real(value, path)
    if value < 0.0:
        raise _fail(path, f"a tolerance must be >= 0, got {value!r}")
    return value


def check_name(name, path: str) -> str:
    """An output basename: a nonempty plain file name, without '/' or NUL,
    so that every output file lands in the output directory."""
    name = check_string(name, path)
    if not name:
        raise _fail(path, "name must be nonempty")
    if "/" in name or "\0" in name:
        raise _fail(path, "name must be a plain file name, without '/' or NUL")
    return name


def encode_box(box: LatticeBox) -> dict:
    return {"nu": box.nu, "ranges": [[lo, hi] for lo, hi in box.ranges]}


# ---------------------------------------------------------------------------
# potentials: one codec over the model's dataclasses


KINDS: dict[str, type[PotentialSpec]] = {cls.kind: cls for cls in (
    TablePotential, ConstantPotential, PowerDecayPotential,
    GeometricDecayPotential, Alternating1DPotential, SeededRandomPotential,
    SumPotential)}


def _params(cls) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The kind's `params`: its init fields without and with a default, in
    declaration order (dataclasses put defaulted fields last)."""
    init = [f for f in dataclasses.fields(cls) if f.init]
    return (tuple(f.name for f in init if f.default is dataclasses.MISSING),
            tuple(f.name for f in init if f.default is not dataclasses.MISSING))


def _entry(data, path: str) -> tuple:
    obj = _object(data, path, required=("site", "value"))
    return (_items(obj["site"], f"{path}.site", _int, 1),
            _complex(obj["value"], f"{path}.value"))


# field name -> reader(value, path) and writer(value); a field without a
# writer is written as it is stored
_READ = {
    "entries": lambda v, path: _items(v, path, _entry),
    "c": _complex, "amplitude": _complex,
    "exponent": check_real, "ratio": check_real,
    "b_even": check_real, "b_odd": check_real,
    "parity": lambda v, path: None if v is None else check_string(v, path),
    "seed": _int,
    "box": parse_box,
    "re_range": lambda v, path: _pair(v, path, "[lo, hi]"),
    "im_range": lambda v, path: _pair(v, path, "[lo, hi]"),
    "terms": lambda v, path: _items(v, path, parse_potential, 1),
}
_WRITE = {
    "entries": lambda entries: [{"site": list(site), "value": _encode_complex(v)}
                                for site, v in entries],
    "c": _encode_complex, "amplitude": _encode_complex,
    "box": encode_box,
    "re_range": list, "im_range": list,
    "terms": lambda terms: [encode_potential(t) for t in terms],
}


def parse_potential(data, path: str = "$.potential") -> PotentialSpec:
    obj = _object(data, path, required=("kind",), optional=("params",))
    kind = check_string(obj["kind"], f"{path}.kind")
    cls = KINDS.get(kind)
    if cls is None:
        raise _fail(f"{path}.kind", f"unknown potential kind {kind!r}")
    ppath = f"{path}.params"
    required, optional = _params(cls)
    p = _object(obj.get("params", {}), ppath, required, optional)
    kwargs = {k: _READ[k](p[k], f"{ppath}.{k}")
              for k in required + optional if k in p}
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise _fail(ppath, str(exc))


def _parts(spec: PotentialSpec, path: str = "$.potential"):
    """(part, path) for the potential itself, or for every term of a sum
    at any depth, with the part's path in the document."""
    if isinstance(spec, SumPotential):
        for i, term in enumerate(spec.terms):
            yield from _parts(term, f"{path}.params.terms[{i}]")
    else:
        yield spec, path


def check_site_dim(spec: PotentialSpec, nu: int) -> None:
    """Fail at the offending part of the potential unless every kind in it,
    sum terms included, is declared on the box's dimension nu."""
    for part, path in _parts(spec):
        if part.site_dim not in (None, nu):
            where = {"table": ".params.entries",
                     "seeded_random": ".params.box.nu"}.get(part.kind, ".kind")
            raise _fail(path + where, f"{part.kind!r} is declared on nu = "
                                      f"{part.site_dim}, the box has nu = {nu}")


def check_carrier_size(spec: PotentialSpec, max_dim: int) -> None:
    """Fail at any seeded_random carrier box, sum terms included, with more
    sites than the dimension cap max_dim: the carrier's values are drawn
    site by site on first use, whatever the size of the box analysed."""
    for part, path in _parts(spec):
        if (isinstance(part, SeededRandomPotential)
                and part.box.site_count > max_dim):
            raise _fail(f"{path}.params.box",
                        f"the carrier box has {part.box.site_count} sites, "
                        f"exceeding the dimension cap {max_dim}")


def encode_potential(spec: PotentialSpec) -> dict:
    if KINDS.get(spec.kind) is not type(spec):
        raise TypeError(f"cannot encode potential of type {type(spec).__name__}")
    required, optional = _params(type(spec))
    values = {k: getattr(spec, k) for k in required + optional}
    return {"kind": spec.kind,
            "params": {k: _WRITE.get(k, lambda v: v)(v)
                       for k, v in values.items() if v is not None}}


# ---------------------------------------------------------------------------
# scenario


@dataclass(frozen=True)
class Scenario:
    name: str
    box: LatticeBox
    potential: PotentialSpec
    analysis: tuple[str, ...]
    n_angles: int = DEFAULT_N_ANGLES
    tolerance_overrides: tuple[tuple[str, float], ...] = ()
    criteria: CriteriaParams = field(default_factory=CriteriaParams)
    seed: int | None = None

    def tolerance_dict(self) -> dict[str, float]:
        return dict(self.tolerance_overrides)


def parse_scenario(data) -> Scenario:
    obj = _object(data, "$", required=("name", "box", "potential", "analysis"),
                  optional=("params",))
    name = check_name(obj["name"], "$.name")
    box = parse_box(obj["box"])
    potential = parse_potential(obj["potential"])
    check_site_dim(potential, box.nu)
    analysis = []
    for i, a in enumerate(_array(obj["analysis"], "$.analysis", 1)):
        s = check_string(a, f"$.analysis[{i}]")
        if s not in ANALYSES:
            raise _fail(f"$.analysis[{i}]",
                        f"unknown analysis {s!r}; expected one of {ANALYSES}")
        if s in analysis:
            raise _fail(f"$.analysis[{i}]", f"duplicate analysis {s!r}")
        analysis.append(s)

    n_angles = DEFAULT_N_ANGLES
    overrides: list[tuple[str, float]] = []
    crit = CriteriaParams()
    seed = None
    if "params" in obj:
        p = _object(obj["params"], "$.params", required=(),
                    optional=("n_angles", "tolerances", "criteria", "seed"))
        if "n_angles" in p:
            n_angles = check_n_angles(_int(p["n_angles"], "$.params.n_angles"),
                                      "$.params.n_angles")
        if "tolerances" in p:
            t = _object(p["tolerances"], "$.params.tolerances", required=(),
                        optional=TOLERANCE_KEYS)
            for key in TOLERANCE_KEYS:
                if key in t:
                    overrides.append((key, check_tolerance(
                        t[key], f"$.params.tolerances.{key}")))
        if "criteria" in p:
            cpath = "$.params.criteria"
            c = _object(p["criteria"], cpath, required=(),
                        optional=("b_values", "a_values", "axes",
                                  "scan_radius"))
            bs = _items(c.get("b_values", []), f"{cpath}.b_values", check_real)
            as_ = _items(c.get("a_values", []), f"{cpath}.a_values", check_real)
            axes = None
            if c.get("axes") is not None:
                axes = _items(c["axes"], f"{cpath}.axes", _int)
                for i, j in enumerate(axes):
                    if not 0 <= j < box.nu:
                        raise _fail(f"{cpath}.axes[{i}]",
                                    f"axis {j} out of range for nu = {box.nu}")
            radius = None
            if c.get("scan_radius") is not None:
                radius = _int(c["scan_radius"], f"{cpath}.scan_radius")
                if radius < 1:
                    raise _fail(f"{cpath}.scan_radius", "must be >= 1")
            crit = CriteriaParams(b_values=bs, a_values=as_, axes=axes,
                                  scan_radius=radius)
        if "seed" in p and p["seed"] is not None:
            seed = check_seed(_int(p["seed"], "$.params.seed"),
                              "$.params.seed")

    return Scenario(name=name, box=box, potential=potential,
                    analysis=tuple(analysis), n_angles=n_angles,
                    tolerance_overrides=tuple(overrides), criteria=crit,
                    seed=seed)


def encode_scenario(sc: Scenario) -> dict:
    out: dict = {
        "name": sc.name,
        "box": encode_box(sc.box),
        "potential": encode_potential(sc.potential),
        "analysis": list(sc.analysis),
    }
    params: dict = {}
    if sc.n_angles != DEFAULT_N_ANGLES:
        params["n_angles"] = sc.n_angles
    if sc.tolerance_overrides:
        params["tolerances"] = dict(sc.tolerance_overrides)
    c = sc.criteria
    if c != CriteriaParams():
        crit: dict = {}
        if c.b_values:
            crit["b_values"] = list(c.b_values)
        if c.a_values:
            crit["a_values"] = list(c.a_values)
        if c.axes is not None:
            crit["axes"] = list(c.axes)
        if c.scan_radius is not None:
            crit["scan_radius"] = c.scan_radius
        params["criteria"] = crit
    if sc.seed is not None:
        params["seed"] = sc.seed
    if params:
        out["params"] = params
    return out


def loads_scenario(text: str) -> Scenario:
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError included
        raise SchemaError(f"invalid JSON: {exc}", path="$",
                          where="scenario.loads_scenario")
    try:
        return parse_scenario(data)
    except RecursionError:  # sum terms nested past the interpreter's limit
        raise SchemaError("potential nests too deeply", path="$.potential",
                          where="scenario.loads_scenario")


def load_scenario(path: str) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise SchemaError(f"cannot read the scenario file: "
                          f"{getattr(exc, 'strerror', None) or exc}",
                          path=os.fspath(path), where="scenario.load_scenario")
    return loads_scenario(text)


# ---------------------------------------------------------------------------
# canonical output


def dumps_canonical(obj) -> str:
    """Deterministic JSON text: sorted keys, 2-space indent, LF, trailing
    newline, shortest round-trip float repr, no NaN/inf.

    The text is exactly json.dumps(obj, sort_keys=True, indent=2,
    ensure_ascii=False, allow_nan=False) + "\n" for str keys, written
    directly: json's indenting encoder is pure Python, a generator per
    nesting level."""
    out: list[str] = []
    _encode(obj, "\n", out)
    out.append("\n")
    return "".join(out)


def _encode(o, newline: str, out: list[str]) -> None:
    """Append o's canonical text to out; newline is a line break followed
    by o's own indent.  Types are tested in json's order."""
    if isinstance(o, str):
        out.append(_encode_string(o))
    elif o is None:
        out.append("null")
    elif o is True:
        out.append("true")
    elif o is False:
        out.append("false")
    elif isinstance(o, int):
        out.append(int.__repr__(o))
    elif isinstance(o, float):
        if not math.isfinite(o):
            raise ValueError(f"Out of range float values are not JSON "
                             f"compliant: {o!r}")
        out.append(float.__repr__(o))
    elif isinstance(o, (list, tuple)):
        if not o:
            out.append("[]")
            return
        inner = newline + "  "
        out.append("[")
        for v in o:
            out.append(inner)
            _encode(v, inner, out)
            out.append(",")
        out[-1] = newline + "]"
    elif isinstance(o, dict):
        if not o:
            out.append("{}")
            return
        inner = newline + "  "
        out.append("{")
        for key in sorted(o):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not "
                                f"{key.__class__.__name__}")
            out.append(inner)
            out.append(_encode_string(key))
            out.append(": ")
            _encode(o[key], inner, out)
            out.append(",")
        out[-1] = newline + "}"
    else:
        raise TypeError(f"Object of type {o.__class__.__name__} is not JSON "
                        f"serializable")


def _umask() -> int:
    """The process's umask, which can only be read by setting it."""
    mask = os.umask(0)
    os.umask(mask)
    return mask


def atomic_write_text(path: str, text: str) -> None:
    """Write text to path through a temporary file in its directory and
    one rename, with the mode a new file gets under the umask (mkstemp's
    file is private to its owner)."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.chmod(tmp, 0o666 & ~_umask())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
