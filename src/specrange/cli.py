"""Command-line front door: scenario files in, JSON/CSV reports out.

Verbs: run, construct, sweep, criteria.  Exit codes: 0 success, 2 schema
error, 3 numerical failure, 4 certification or design failure.  All output
files are written atomically and only after the whole computation has
succeeded, so a failing run leaves no partial artifacts.

Every verb takes one path: `analyse` applies the scenario's seed, then
assembles, sweeps the hull and classifies the eigenpairs, each at most
once, and `build_report` writes the result up as the report dict.  A verb
forms every text it outputs first; `_write` then writes them in order, by
file suffix, and prints each path.  The spectrum is the classify records'
pairs when classify runs.  `sweep` analyses each grid
point with classify alone; `construct` reports the operator, hull and
records that `build_counterexample` computed.  Every output reads what a
classify record decided and decides nothing again: the report copies the
record fields, certified_boundary_count and the sweep's certified_flags
count the records whose `certified` is true, and the construct
certificate is the designed record's verdicts.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
from dataclasses import dataclass

from . import __version__
from .classify import EigenClassification, classify
from .config import (DEFAULT_MAX_DIM, DEFAULT_N_ANGLES, DEFAULT_TOLERANCES,
                     MAX_DIM_ENV, MAX_SWEEP_STEPS, Tolerances)
from .construct import build_counterexample
from .criteria import CriteriaParams, evaluate_all
from .exceptions import (CertificationError, DesignError, SchemaError,
                         SpecrangeError)
from .linalg import EigenPair, eig_general
from .model import (Operator, PotentialSpec, SeededRandomPotential,
                    SumPotential, assemble)
from .numrange import NumericalRangeHull, compute_hull
from .scenario import (Scenario, atomic_write_text, check_carrier_size,
                       check_n_angles, check_name, check_real, check_seed,
                       check_string, check_tolerance, dumps_canonical,
                       encode_potential, encode_scenario, load_scenario,
                       parse_scenario)


def resolve_max_dim(flag: int | None) -> int:
    """The dimension cap: --max-dim, else $SPECRANGE_MAX_DIM, else the
    default; at least 1."""
    path, value = "--max-dim", flag
    if flag is None:
        path, env = MAX_DIM_ENV, os.environ.get(MAX_DIM_ENV)
        if env is None:
            return DEFAULT_MAX_DIM
        try:
            value = int(env)
        except ValueError:
            raise SchemaError(f"{MAX_DIM_ENV} must be an integer, got {env!r}",
                              path=MAX_DIM_ENV, where="cli.resolve_max_dim")
    if value < 1:
        raise SchemaError(f"{path} must be >= 1, got {value}", path=path,
                          where="cli.resolve_max_dim")
    return value


def _override_seed(spec: PotentialSpec, seed: int) -> PotentialSpec:
    if isinstance(spec, SeededRandomPotential):
        return dataclasses.replace(spec, seed=seed)
    if isinstance(spec, SumPotential):
        return SumPotential(tuple(_override_seed(t, seed) for t in spec.terms))
    return spec


def _angles_flag(args) -> int | None:
    """The --angles value, held to the schema's n_angles range."""
    n = getattr(args, "angles", None)
    return None if n is None else check_n_angles(n, "--angles")


def _tolerance_flags(args) -> dict[str, float]:
    """The --tol-boundary and --tol-cert overrides given, each held to the
    schema's tolerance range, by their tolerance keys."""
    flags = {"boundary_abs": (args.tol_boundary, "--tol-boundary"),
             "cert_abs": (args.tol_cert, "--tol-cert")}
    return {key: check_tolerance(v, path)
            for key, (v, path) in flags.items() if v is not None}


def _apply_flags(sc: Scenario, args) -> Scenario:
    changes: dict = {}
    if _angles_flag(args) is not None:
        changes["n_angles"] = args.angles
    if getattr(args, "seed", None) is not None:
        changes["seed"] = check_seed(args.seed, "--seed")
    overrides = {**dict(sc.tolerance_overrides), **_tolerance_flags(args)}
    if overrides != dict(sc.tolerance_overrides):
        changes["tolerance_overrides"] = tuple(sorted(overrides.items()))
    return dataclasses.replace(sc, **changes) if changes else sc


def _tolerances(sc: Scenario) -> Tolerances:
    return DEFAULT_TOLERANCES.with_overrides(**sc.tolerance_dict())


# ---------------------------------------------------------------------------
# the analysis path


@dataclass
class Analysis:
    """What one scenario's analyses computed, each stage at most once.

    pairs are the eig_general pairs.  The classify records carry them, one
    per record in the same order, so given records they default to those.
    """

    scenario: Scenario
    stages: tuple[str, ...]
    tol: Tolerances
    op: Operator | None = None
    hull: NumericalRangeHull | None = None
    records: list[EigenClassification] | None = None
    pairs: list[EigenPair] | None = None

    def __post_init__(self):
        if self.pairs is None and self.records is not None:
            self.pairs = [c.pair for c in self.records]


def analyse(sc: Scenario, max_dim: int = DEFAULT_MAX_DIM,
            stages: tuple[str, ...] | None = None) -> Analysis:
    """Run the stages (default: the scenario's analyses) on the scenario with
    its seed applied: assemble, sweep, eigensolve and classify once each."""
    if sc.seed is not None:
        sc = dataclasses.replace(
            sc, potential=_override_seed(sc.potential, sc.seed))
    check_carrier_size(sc.potential, max_dim)
    stages = sc.analysis if stages is None else stages
    tol = _tolerances(sc)
    op = hull = records = pairs = None
    if any(a in stages for a in ("spectrum", "numrange", "classify")):
        op = assemble(sc.box, sc.potential, max_dim=max_dim)
    if "numrange" in stages or "classify" in stages:
        hull = compute_hull(op, n_angles=sc.n_angles)
    if "classify" in stages:
        records = classify(op, hull, tol)
    elif "spectrum" in stages:
        pairs = eig_general(op, tol)
    return Analysis(sc, stages, tol, op, hull, records, pairs)


# ---------------------------------------------------------------------------
# report assembly


def _spectrum_json(pairs: list[EigenPair]) -> dict:
    return {
        "count": len(pairs),
        "eigenvalues": [
            {"value": [p.value.real, p.value.imag], "residual": p.residual}
            for p in pairs
        ],
    }


def _spectrum_csv(pairs: list[EigenPair]) -> str:
    lines = ["index,eig_re,eig_im,residual"]
    for i, p in enumerate(pairs):
        lines.append(f"{i},{p.value.real!r},{p.value.imag!r},{p.residual!r}")
    return "\n".join(lines) + "\n"


def _hull_json(hull: NumericalRangeHull) -> dict:
    poly = hull.polygon
    return {
        "n_angles": hull.n_angles,
        "polygon": [list(z) for z in zip(poly.real.tolist(),
                                         poly.imag.tolist())],
        "support_min": float(hull.supports.min()),
        "support_max": float(hull.supports.max()),
    }


def _classify_json(op: Operator, records: list[EigenClassification],
                   tol: Tolerances) -> dict:
    out = [{
        "value": [cls.pair.value.real, cls.pair.value.imag],
        "residual": cls.pair.residual,
        "boundary_distance": cls.boundary_distance,
        "is_boundary": cls.is_boundary,
        "normality_residual": cls.normality_residual,
        "normality": cls.normality.value,
        "split_residual_re": cls.split_residual_re,
        "split_residual_im": cls.split_residual_im,
        "split": cls.split.value,
        "support_size": int(len(cls.support_indices)),
        "support_extent": cls.support_extent,
        "box_limited": cls.box_limited,
    } for cls in records]
    return {
        "tol_boundary": tol.boundary(op.frobenius),
        "tol_cert": tol.cert(op.frobenius),
        "certified_boundary_count": sum(cls.certified for cls in records),
        "records": out,
    }


def _hull_csv(hull: NumericalRangeHull) -> str:
    rows = zip(hull.thetas.tolist(), hull.supports.tolist(),
               hull.witnesses.real.tolist(), hull.witnesses.imag.tolist())
    return "theta,support,witness_re,witness_im\n" + "".join(
        f"{t!r},{s!r},{wr!r},{wi!r}\n" for t, s, wr, wi in rows)


def build_report(an: Analysis) -> dict:
    """The report of an analysis, one section per stage; the criteria need
    no operator and are evaluated here."""
    sc = an.scenario
    results: dict = {}
    if "spectrum" in an.stages:
        results["spectrum"] = _spectrum_json(an.pairs)
    if "numrange" in an.stages:
        results["numrange"] = _hull_json(an.hull)
    if "classify" in an.stages:
        results["classify"] = _classify_json(an.op, an.records, an.tol)
    if "criteria" in an.stages:
        crit = evaluate_all(sc.potential, sc.box.nu, sc.criteria)
        results["criteria"] = crit.to_json_dict(encode_potential(sc.potential))
    return {
        "tool": {"name": "specrange", "version": __version__},
        "scenario": encode_scenario(sc),
        "results": results,
    }


def _csv_files(an: Analysis) -> dict[str, str]:
    """The CSVs of the stages that have one, by file suffix."""
    files = {}
    if "numrange" in an.stages:
        files["hull.csv"] = _hull_csv(an.hull)
    if "spectrum" in an.stages:
        files["spectrum.csv"] = _spectrum_csv(an.pairs)
    return files


def _write(out_dir: str, name: str, files: dict[str, str]) -> None:
    """Write each text of files (suffix -> text) to out_dir/name.suffix,
    atomically and in order, printing each path once it is written."""
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise SchemaError(f"cannot create the output directory {out_dir}: "
                          f"{exc.strerror or exc}", path="--out-dir",
                          where="cli.write")
    for suffix, text in files.items():
        path = os.path.join(out_dir, f"{name}.{suffix}")
        atomic_write_text(path, text)
        print(path)


# ---------------------------------------------------------------------------
# verbs


def _cmd_run(args) -> int:
    sc = _apply_flags(load_scenario(args.scenario), args)
    an = analyse(sc, resolve_max_dim(args.max_dim))
    report, csvs = build_report(an), _csv_files(an)
    del an  # its eigenvectors are freed before the report is serialised
    _write(args.out_dir, sc.name,
           {"report.json": dumps_canonical(report), **csvs})
    return 0


def _cmd_criteria(args) -> int:
    sc = _apply_flags(load_scenario(args.scenario), args)
    an = analyse(sc, resolve_max_dim(args.max_dim), stages=("criteria",))
    report = build_report(an)
    doc = {
        "tool": report["tool"],
        "scenario": report["scenario"],
        "criteria": report["results"]["criteria"],
    }
    _write(args.out_dir, sc.name, {"criteria.json": dumps_canonical(doc)})
    return 0


def _parse_zeros(text: str) -> list[int]:
    text = text.strip()
    if not text:
        return []
    try:
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise SchemaError(f"--zeros must be comma-separated integers, got "
                          f"{text!r}", path="--zeros", where="cli.construct")


def _cmd_construct(args) -> int:
    zeros = _parse_zeros(args.zeros)
    check_real(args.a, "--a")
    check_real(args.b, "--b")
    if args.n < 1:
        raise SchemaError("--n must be >= 1", path="--n",
                          where="cli.construct")
    overrides = _tolerance_flags(args)
    tol = DEFAULT_TOLERANCES.with_overrides(**overrides)
    name = check_name(args.name or f"counterexample_a{args.a:g}_b{args.b:g}",
                      "--name")
    n_angles = _angles_flag(args) or DEFAULT_N_ANGLES
    build = build_counterexample(
        a=args.a, b=args.b, zero_sites=zeros, n_sites=args.n,
        n_angles=n_angles, tol=tol, max_dim=resolve_max_dim(args.max_dim))
    sc = Scenario(
        name=name, box=build.operator.box, potential=build.potential,
        analysis=("spectrum", "numrange", "classify", "criteria"),
        n_angles=n_angles,
        tolerance_overrides=tuple(sorted(overrides.items())),
        criteria=CriteriaParams(b_values=(args.b,), a_values=(args.a,)),
    )
    an = Analysis(scenario=sc, stages=sc.analysis, tol=tol,
                  op=build.operator, hull=build.hull, records=build.records)
    _write(args.out_dir, name,
           {"scenario.json": dumps_canonical(encode_scenario(sc)),
            "report.json": dumps_canonical(build_report(an)),
            **_csv_files(an)})
    lam = build.classification.pair.value
    print(f"certified boundary eigenvalue {lam.real!r} + {lam.imag!r}i "
          f"(target {args.a:g} + {args.b:g}i)")
    return 0


def _set_path(doc, dotted: str, value: float) -> None:
    parts = dotted.split(".")
    cur = doc
    for i, part in enumerate(parts):
        last = i == len(parts) - 1
        key: object = int(part) if part.lstrip("-").isdigit() else part
        try:
            if last:
                cur[key]  # must already exist: sweeps modify, never extend
                cur[key] = value
            else:
                cur = cur[key]
        except (KeyError, IndexError, TypeError):
            raise SchemaError(
                f"sweep parameter path {dotted!r} does not resolve at "
                f"segment {part!r}", path=dotted, where="cli.sweep")


def _cmd_sweep(args) -> int:
    check_real(args.start, "--from")
    check_real(args.stop, "--to")
    check_string(args.param, "--param")
    sc0 = _apply_flags(load_scenario(args.scenario), args)
    raw = encode_scenario(sc0)
    steps = args.steps
    if not 0 <= steps <= MAX_SWEEP_STEPS:
        raise SchemaError(f"--steps must be in [0, {MAX_SWEEP_STEPS}], got "
                          f"{steps}", path="--steps", where="cli.sweep")
    if steps == 0:
        values = []
    elif steps == 1:
        values = [args.start]
    else:
        span = args.stop - args.start
        if not math.isfinite(span):
            raise SchemaError(
                f"the span --to - --from = {args.stop!r} - {args.start!r} "
                "overflows float64", path="--to", where="cli.sweep")
        h = span / (steps - 1)
        values = [args.start + i * h for i in range(steps)]

    max_dim = resolve_max_dim(args.max_dim)
    header = ("param,status,n_eigenvalues,eigenvalues,boundary_flags,"
              "certified_flags,error")
    lines = [header]
    for v in values:
        doc = json.loads(json.dumps(raw))
        try:
            _set_path(doc, args.param, v)
            an = analyse(parse_scenario(doc), max_dim, stages=("classify",))
            recs = an.records
            eigs = ";".join(
                f"{c.pair.value.real!r} {c.pair.value.imag!r}" for c in recs)
            bflags = ";".join("1" if c.is_boundary else "0" for c in recs)
            cflags = ";".join("1" if c.certified else "0" for c in recs)
            lines.append(f"{v!r},ok,{len(recs)},{eigs},{bflags},{cflags},")
        except SpecrangeError as exc:
            msg = str(exc).replace("\n", " ").replace(",", ";")
            lines.append(f"{v!r},error,0,,,,{msg}")
    _write(args.out_dir, sc0.name, {"sweep.csv": "\n".join(lines) + "\n"})
    return 0


# ---------------------------------------------------------------------------
# argument parsing


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and shared by every call
    after it in the process (parsing does not change it)."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol-boundary", type=float, default=None,
                        help="absolute boundary-distance tolerance override")
    common.add_argument("--tol-cert", type=float, default=None,
                        help="absolute certification tolerance override")
    common.add_argument("--angles", type=int, default=None,
                        help="number of support-function angles")
    common.add_argument("--max-dim", type=int, default=None,
                        help=f"matrix dimension cap (default {DEFAULT_MAX_DIM}; "
                             f"env {MAX_DIM_ENV})")
    common.add_argument("--out-dir", default=".",
                        help="directory for output files (default: .)")

    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=None,
                        help="override the seed of seeded_random potentials")

    parser = argparse.ArgumentParser(
        prog="specrange",
        description="Spectra, numerical ranges, and boundary-eigenvalue "
                    "certificates for truncated lattice operators with "
                    "complex potentials.")
    parser.add_argument("--version", action="version",
                        version=f"specrange {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", parents=[common, seeded],
                           help="run a scenario file, writing report files")
    p_run.add_argument("scenario", help="path to a scenario JSON file")
    p_run.set_defaults(func=_cmd_run)

    p_con = sub.add_parser("construct", parents=[common],
                           help="build a certified boundary-eigenvalue "
                                "counterexample and its replay scenario")
    p_con.add_argument("--a", type=float, required=True,
                       help="real part of the target eigenvalue (|a| > 2)")
    p_con.add_argument("--b", type=float, required=True,
                       help="imaginary part of the target eigenvalue (b > 0)")
    p_con.add_argument("--zeros", default="0",
                       help="comma-separated zero sites, anywhere inside "
                            "the --n box that float64 amplitudes reach "
                            "(default: 0)")
    p_con.add_argument("--n", type=int, default=101,
                       help="truncation site count (default: 101)")
    p_con.add_argument("--name", default=None, help="output basename")
    p_con.set_defaults(func=_cmd_construct)

    p_swp = sub.add_parser("sweep", parents=[common, seeded],
                           help="grid-sweep one scalar scenario parameter")
    p_swp.add_argument("scenario", help="path to a scenario JSON file")
    p_swp.add_argument("--param", required=True,
                       help="dotted path into the scenario JSON, e.g. "
                            "potential.params.b_odd or potential.params.c.1")
    p_swp.add_argument("--from", dest="start", type=float, required=True)
    p_swp.add_argument("--to", dest="stop", type=float, required=True)
    p_swp.add_argument("--steps", type=int, required=True)
    p_swp.set_defaults(func=_cmd_sweep)

    p_cri = sub.add_parser("criteria", parents=[common, seeded],
                           help="evaluate the absence criteria only")
    p_cri.add_argument("scenario", help="path to a scenario JSON file")
    p_cri.set_defaults(func=_cmd_criteria)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return 2
    except (DesignError, CertificationError) as exc:
        print(f"certification error: {exc}", file=sys.stderr)
        return 4
    except SpecrangeError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    raise SystemExit(main())
