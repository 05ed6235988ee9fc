"""Output checks for one CLI item; any problem makes the item count as failed.

Each item writes into a directory of its own, so the check can demand
exactly the expected file set.  The numerical checks re-derive facts the
reports must satisfy: the spectrum has one eigenvalue per box site, each
hull sample's witness attains its support line, the designed
counterexample is certified at its target, and every sweep row is `ok`.
"""

from __future__ import annotations

import cmath
import csv
import hashlib
import json
import math
import os
import re

from specrange.config import DEFAULT_TOLERANCES

from workloads import CONSTRUCT_TARGET, SWEEP_STEPS, Item

_CERTIFIED = re.compile(
    r"certified boundary eigenvalue (\S+) \+ (\S+)i")
# hull.csv writes its witness columns with repr() of numpy scalars, which
# numpy >= 2 renders as "np.float64(x)".  That is a defect of the report
# format (NOTES.md); such a cell is read through the wrapper, so that the
# numbers are still checked, and the file is reported as a format defect
# rather than counted as a failed item.
_NUMPY_REPR = re.compile(r"np\.float64\((.*)\)")


def expected_files(item: Item) -> set[str]:
    if item.verb == "criteria":
        return {f"{item.name}.criteria.json"}
    if item.verb == "sweep":
        return {f"{item.name}.sweep.csv"}
    if item.verb == "construct":
        analysis = ("spectrum", "numrange")
        extra = {f"{item.name}.scenario.json"}
    else:
        with open(item.argv[1], encoding="utf-8") as fh:
            analysis = json.load(fh)["analysis"]
        extra = set()
    files = {f"{item.name}.report.json"} | extra
    if "numrange" in analysis:
        files.add(f"{item.name}.hull.csv")
    if "spectrum" in analysis:
        files.add(f"{item.name}.spectrum.csv")
    return files


def _rows(path: str) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _site_count(box: dict) -> int:
    return math.prod(hi - lo + 1 for lo, hi in box["ranges"])


def _hull_tol(scenario: dict) -> float:
    return scenario.get("params", {}).get("tolerances", {}).get(
        "hull", DEFAULT_TOLERANCES.hull)


def _witness(row: dict, wrapped: list[str]) -> complex:
    parts = []
    for key in ("witness_re", "witness_im"):
        m = _NUMPY_REPR.fullmatch(row[key])
        if m:
            wrapped.append(row[key])
        parts.append(float(m.group(1) if m else row[key]))
    return complex(*parts)


def _check_report(path: str, base: str, problems: list[str],
                  defects: list[str]) -> None:
    with open(path, encoding="utf-8") as fh:
        report = json.load(fh)
    scenario = report["scenario"]
    results = report["results"]
    if "spectrum" in results:
        sites = _site_count(scenario["box"])
        spectrum = results["spectrum"]
        rows = _rows(f"{base}.spectrum.csv")
        if not spectrum["count"] == len(spectrum["eigenvalues"]) \
                == len(rows) == sites:
            problems.append(
                f"spectrum count {spectrum['count']} ({len(rows)} csv rows)"
                f" != {sites} box sites")
    if "numrange" in results:
        rows = _rows(f"{base}.hull.csv")
        tol = _hull_tol(scenario)
        if len(rows) != results["numrange"]["n_angles"]:
            problems.append(f"hull.csv has {len(rows)} rows, expected "
                            f"{results['numrange']['n_angles']}")
        wrapped: list[str] = []
        for r in rows:
            s = float(r["support"])
            w = _witness(r, wrapped)
            gap = abs((cmath.exp(1j * float(r["theta"])) * w).real - s)
            if gap > tol * (1.0 + abs(s)):
                problems.append(f"hull witness misses its support line by "
                                f"{gap:.3e} at theta={r['theta']}")
                break
        if wrapped:
            defects.append(f"{os.path.basename(base)}.hull.csv: "
                           f"{len(wrapped)} witness cells like {wrapped[0]}")


def check_item(item: Item, out_dir: str, rc, stdout: str,
               defects: list[str]) -> list[str]:
    """Problems found with one finished item; empty when it passed.
    Report-format defects that do not fail the item go to `defects`."""
    if rc != 0:
        return [f"exit {rc}"]
    expected = expected_files(item)
    found = set(os.listdir(out_dir))
    if found != expected:
        return [f"wrote {sorted(found)}, expected {sorted(expected)}"]
    problems: list[str] = []
    base = os.path.join(out_dir, item.name)
    try:
        for name in sorted(found):
            if name.endswith(".json"):
                with open(os.path.join(out_dir, name), encoding="utf-8") as fh:
                    json.load(fh)
            else:
                _rows(os.path.join(out_dir, name))
        if os.path.exists(f"{base}.report.json"):
            _check_report(f"{base}.report.json", base, problems, defects)
        if item.verb == "construct":
            m = _CERTIFIED.search(stdout)
            lam = complex(float(m.group(1)), float(m.group(2))) if m else None
            match = DEFAULT_TOLERANCES.match
            if lam is None or abs(lam - CONSTRUCT_TARGET) > match:
                problems.append(f"certified eigenvalue {lam} is not within "
                                f"{match} of {CONSTRUCT_TARGET}")
        if item.verb == "sweep":
            rows = _rows(f"{base}.sweep.csv")
            bad = [r["param"] for r in rows if r["status"] != "ok"]
            if len(rows) != SWEEP_STEPS or bad:
                problems.append(f"sweep has {len(rows)} rows, not ok at "
                                f"{bad}")
    except (OSError, ValueError, KeyError, TypeError) as exc:
        problems.append(f"unreadable output: {exc!r}")
    return problems


def digests(top: str) -> dict[str, str]:
    """SHA-256 of each file under `top`, by path relative to it."""
    out = {}
    for dirpath, _, names in os.walk(top):
        for name in names:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, top)] = hashlib.sha256(
                    fh.read()).hexdigest()
    return dict(sorted(out.items()))


def combined_digest(per_file: dict[str, str]) -> str:
    text = "".join(f"{d}  {n}\n" for n, d in sorted(per_file.items()))
    return hashlib.sha256(text.encode()).hexdigest()
