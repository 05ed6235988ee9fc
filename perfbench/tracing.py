"""Per-layer spans recorded from outside the package.

`Tracer.install` replaces each public function named in `LAYERS` by a
timing wrapper in every `specrange` module namespace that binds it, which
is where the CLI and the other modules look it up (`cli.compute_hull`,
`construct.compute_hull`, the `eig_general` name inside
`specrange.classify`, ...).  Modules are reached through `sys.modules`:
the package attribute `specrange.classify` is the function, because the
package `__init__` rebinds the name.  `uninstall` puts the originals back.

Every span records its layer name, start, end, parent span and item id;
the item itself is the root span, named `cli`.  A span's self time is its
duration minus the durations of its children, so the self times of an
item's spans add up to the item's duration, and the self time of the root
is the CLI orchestration that no layer covers (`cli.self_s`).
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field


def _hull_counts(args, kwargs, hull) -> dict:
    return {"support_evals": len(hull.thetas)}


def _assemble_counts(args, kwargs, op) -> dict:
    return {"bytes": 16 * op.dim * op.dim}  # one dense complex128 matrix


def _classify_counts(args, kwargs, records) -> dict:
    return {"pairs": len(records)}


def _criteria_counts(args, kwargs, report) -> dict:
    radii = [e.detail["scan_radius"] for e in report.entries
             if "scan_radius" in e.detail]
    return {"entries": len(report.entries),
            "scan_sites": sum((2 * r + 1) ** report.nu for r in radii)}


def _write_counts(args, kwargs, _result) -> dict:
    text = args[1] if len(args) > 1 else kwargs["text"]
    return {"bytes_written": len(text.encode("utf-8"))}


# (defining module, public function) -> (layer name, counts from the call)
LAYERS = {
    ("specrange.model", "assemble"): ("model.assemble", _assemble_counts),
    ("specrange.linalg", "eig_general"): ("linalg.eig_general", None),
    ("specrange.numrange", "compute_hull"):
        ("numrange.compute_hull", _hull_counts),
    ("specrange.classify", "classify"):
        ("classify.classify", _classify_counts),
    ("specrange.classify", "hildebrandt_certificate"):
        ("classify.certificates", None),
    ("specrange.classify", "split_certificate"):
        ("classify.certificates", None),
    ("specrange.criteria", "evaluate_all"):
        ("criteria.evaluate_all", _criteria_counts),
    ("specrange.construct", "build_counterexample"):
        ("construct.build_counterexample", None),
    ("specrange.scenario", "load_scenario"): ("scenario.load", None),
    ("specrange.scenario", "dumps_canonical"):
        ("scenario.dumps_canonical", None),
    ("specrange.scenario", "atomic_write_text"):
        ("scenario.write", _write_counts),
}
LAYER_NAMES = tuple(dict.fromkeys(name for name, _ in LAYERS.values()))
ROOT = "cli"


@dataclass
class Span:
    name: str
    item: str
    parent: int | None
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        targets = {}
        for (module, fn), (layer, counts) in LAYERS.items():
            original = getattr(sys.modules[module], fn)
            targets[id(original)] = (original, self._wrap(layer, counts,
                                                          original))
        for name, module in list(sys.modules.items()):
            if name != "specrange" and not name.startswith("specrange."):
                continue
            for attr, value in list(vars(module).items()):
                hit = targets.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # -- spans -------------------------------------------------------------

    def _begin(self, name: str, item: str | None = None) -> int:
        parent = self._open[-1] if self._open else None
        if item is None:
            item = self.spans[parent].item
        self.spans.append(Span(name, item, parent, time.perf_counter()))
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def _finish(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._open.pop()

    def _wrap(self, layer, counts, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._open:  # called outside an item: not measured
                return fn(*args, **kwargs)
            index = self._begin(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._finish(index)
            if counts is not None:
                self.spans[index].counts = counts(args, kwargs, result)
            return result
        return traced

    @contextlib.contextmanager
    def item(self, item_id: str):
        """Mark one CLI invocation as the root span."""
        index = self._begin(ROOT, item_id)
        try:
            yield
        finally:
            self._finish(index)

    # -- aggregation -------------------------------------------------------

    def self_times(self) -> list[float]:
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        return own

    def per_item(self) -> dict[str, dict]:
        """Per item: duration, and per layer calls, busy, self and counts."""
        own = self.self_times()
        out: dict[str, dict] = {}
        for s, self_s in zip(self.spans, own):
            rec = out.setdefault(s.item, {"item_s": 0.0, "layers": {}})
            if s.name == ROOT:
                rec["item_s"] += s.end - s.start
            layer = rec["layers"].setdefault(s.name, defaultdict(float))
            layer["calls"] += 1
            layer["busy_s"] += s.end - s.start
            layer["self_s"] += self_s
            for key, value in s.counts.items():
                layer[key] += value
        return out
