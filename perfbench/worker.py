"""Workload process: drives `specrange.cli.main` in-process, item by item.

Started by run.py with the workload's BLAS thread variables already in its
environment (they only take effect before numpy loads) and with the
checkout's `src` on PYTHONPATH.  It writes one JSON document to `--result`.

One client in one process runs a closed loop: each item starts when the
previous one has returned.  Before timing, the first item runs twice into
separate directories; the two outputs must be byte-identical, and the runs
also let lazy imports and first-call set-up finish.  Then whole passes
run until the next one would end after `--seconds`, at least one.  With
`--trace 1` each round is an untraced pass followed by a traced one, whose
ratio gives the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time

import checks
import tracing
import workloads


def _load_cli(root: str):
    import specrange.cli
    src = os.path.join(root, "src") + os.sep
    if not os.path.abspath(specrange.cli.__file__).startswith(src):
        raise ImportError(f"specrange was imported from "
                          f"{specrange.cli.__file__}, not from {src}")
    return specrange.cli


def environment(workload: str, seed: int) -> dict:
    """What the result depends on besides the code: versions, BLAS, CPU."""
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": workload, "seed": seed,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_thread_env": {k: os.environ.get(k)
                            for k in workloads.BLAS_THREAD_VARS},
        "nproc": os.cpu_count(), "cpu": cpu,
    }


def run_item(cli, item: workloads.Item, out_dir: str, tracer=None):
    """Run one item; returns (exit code or exception text, stdout, seconds)."""
    os.makedirs(out_dir)
    buf = io.StringIO()
    span = tracer.item(item.id) if tracer else contextlib.nullcontext()
    t0 = time.perf_counter()
    try:
        with span, contextlib.redirect_stdout(buf), \
                contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main([*item.argv, "--out-dir", out_dir])
    except Exception as exc:  # a traceback is a failed item, not a crash
        rc = f"raised {exc!r}"
    return rc, buf.getvalue(), time.perf_counter() - t0


def run_pass(cli, items, out_dir: str, tracer=None) -> dict:
    """One pass over `items`; outputs are checked after the clock stops."""
    shutil.rmtree(out_dir, ignore_errors=True)
    dirs = [os.path.join(out_dir, f"{k:02d}") for k in range(len(items))]
    if tracer is not None:
        tracer.install()
    try:
        t0 = time.perf_counter()
        runs = [run_item(cli, item, d, tracer) for item, d in zip(items, dirs)]
        wall = time.perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.uninstall()
    failures, defects = {}, []
    for item, d, (rc, stdout, _) in zip(items, dirs, runs):
        problems = checks.check_item(item, d, rc, stdout, defects)
        if problems:
            failures[item.id] = problems
    return {"pass_s": wall, "item_s": [r[2] for r in runs],
            "failures": failures, "format_defects": defects}


def determinism_check(cli, item, work: str) -> list[str]:
    """Run `item` twice; both runs must pass and write identical bytes."""
    problems: list[str] = []
    dirs = [os.path.join(work, "determinism", x) for x in "ab"]
    for d in dirs:
        rc, stdout, _ = run_item(cli, item, d)
        problems += checks.check_item(item, d, rc, stdout, [])
    if not problems and checks.digests(dirs[0]) != checks.digests(dirs[1]):
        problems.append("two runs of the first item wrote different bytes")
    return problems


def layer_metrics(per_item: dict, n_items: int) -> dict:
    """Per-layer metrics of one traced pass."""
    totals: dict[str, dict] = {}
    for rec in per_item.values():
        for layer, values in rec["layers"].items():
            acc = totals.setdefault(layer, {})
            for key, value in values.items():
                acc[key] = acc.get(key, 0.0) + value

    def get(layer, key):
        return totals.get(layer, {}).get(key, 0.0)

    m = {}
    for layer, keys in (
            ("numrange.compute_hull", ("calls", "busy_s")),
            ("linalg.eig_general", ("calls", "busy_s")),
            ("construct.build_counterexample", ("calls", "busy_s", "self_s")),
            ("classify.classify", ("calls", "busy_s", "self_s")),
            ("classify.certificates", ("calls", "busy_s")),
            ("criteria.evaluate_all", ("calls", "busy_s")),
            ("model.assemble", ("calls", "busy_s"))):
        for key in keys:
            m[f"{layer}.{key}"] = get(layer, key)
    for layer in ("numrange.compute_hull", "linalg.eig_general"):
        m[f"{layer}.calls_per_item"] = get(layer, "calls") / n_items
    m["numrange.support_evals"] = get("numrange.compute_hull", "support_evals")
    evals = m["numrange.support_evals"]
    m["numrange.support_eval_us"] = (
        1e6 * get("numrange.compute_hull", "busy_s") / evals if evals else 0.0)
    m["classify.pairs"] = get("classify.classify", "pairs")
    m["criteria.entries"] = get("criteria.evaluate_all", "entries")
    m["criteria.scan_sites"] = get("criteria.evaluate_all", "scan_sites")
    for short in ("load", "dumps_canonical", "write"):
        m[f"scenario.{short}.busy_s"] = get(f"scenario.{short}", "busy_s")
    m["scenario.bytes_written"] = get("scenario.write", "bytes_written")
    m["model.assemble.bytes"] = get("model.assemble", "bytes")
    m["cli.self_s"] = get(tracing.ROOT, "self_s")
    return m


def self_time_gaps(per_item: dict) -> list[str]:
    """Items whose layer self times do not add up to the item's time."""
    bad = []
    for item_id, rec in per_item.items():
        total = sum(v["self_s"] for v in rec["layers"].values())
        if abs(total - rec["item_s"]) > 1e-9 * max(1.0, rec["item_s"]):
            bad.append(f"{item_id}: self times sum to {total!r}, item took "
                       f"{rec['item_s']!r}")
    return bad


def count_record(per_item: dict) -> dict:
    """Exact per-item counts, which must repeat between runs of one seed."""
    keep = {"calls", "support_evals", "pairs", "entries", "scan_sites",
            "bytes", "bytes_written"}
    return {item_id: {layer: {k: int(v) for k, v in values.items()
                              if k in keep}
                      for layer, values in sorted(rec["layers"].items())}
            for item_id, rec in per_item.items()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--root", required=True)
    p.add_argument("--work", required=True)
    p.add_argument("--result", required=True)
    args = p.parse_args(argv)

    cli = _load_cli(args.root)
    items = workloads.items_for(args.workload, args.seed, args.root,
                                os.path.join(args.work, "inputs"))
    determinism = determinism_check(cli, items[0], args.work)

    plain, traced, per_item = [], [], []
    t0 = time.perf_counter()
    while True:
        plain.append(run_pass(cli, items, os.path.join(args.work, "out")))
        if args.trace:
            tracer = tracing.Tracer()
            traced.append(run_pass(cli, items, os.path.join(args.work, "out"),
                                   tracer))
            per_item.append(tracer.per_item())
        rounds = len(plain)
        elapsed = time.perf_counter() - t0
        if elapsed + elapsed / rounds > args.seconds:
            break

    passes = plain + traced
    attempted = 2 + len(items) * len(passes)
    failed = (1 if determinism else 0) + sum(
        len(p["failures"]) for p in passes)
    item_s = [t for p in plain for t in p["item_s"]]
    digests = checks.digests(os.path.join(args.work, "out"))
    result = {
        "passes": len(plain),
        "items_per_pass": len(items),
        "attempted": attempted,
        "failed": failed,
        "failures": ([{"determinism": determinism}] if determinism else [])
        + [p["failures"] for p in passes if p["failures"]],
        "pass_s": statistics.median(p["pass_s"] for p in plain),
        "items_per_s": sum(len(items) - len(p["failures"]) for p in plain)
        / sum(p["pass_s"] for p in plain),
        "item_s": item_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "format_defects": plain[0]["format_defects"],
        "digests": digests,
        "digest": checks.combined_digest(digests),
        "environment": environment(args.workload, args.seed),
    }
    if args.trace:
        layers = [layer_metrics(x, len(items)) for x in per_item]
        result["layers"] = {k: statistics.median(m[k] for m in layers)
                            for k in layers[0]}
        result["layers"]["trace.overhead_share"] = statistics.median(
            t["pass_s"] for t in traced) / result["pass_s"] - 1.0
        result["self_time_gaps"] = [g for x in per_item
                                    for g in self_time_gaps(x)]
        result["counts"] = count_record(per_item[0])
        result["counts_repeat"] = all(count_record(x) == result["counts"]
                                      for x in per_item)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
