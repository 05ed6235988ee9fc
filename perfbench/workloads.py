"""The three workloads: their BLAS thread setting and their list of CLI items.

An item is one `specrange.cli.main` invocation, given as the argv it would
get from the shell plus what the output checks need to know about it.  A
pass runs a workload's items once, in order.  Only `hull_1d` and
`lattice_2d` depend on the seed; their scenario documents are written by
`generate` through the package's public scenario schema, so the program
sees nothing but the generated files.
"""

from __future__ import annotations

import glob
import json
import os
import random
from dataclasses import dataclass

# Every variable a BLAS build may read for its thread count.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS")

# `corpus` runs what a user gets with no tuning: the variables unset, so
# OpenBLAS starts one thread per core.  The generated workloads pin one
# thread to measure the plain single-thread cost.
BLAS_THREADS = {"corpus": None, "hull_1d": "1", "lattice_2d": "1"}
WORKLOADS = tuple(BLAS_THREADS)

CONSTRUCT_TARGET = complex(-2.5, 1.0)
SWEEP_STEPS = 11
HULL_1D_SITES = (100, 200, 300)
HULL_1D_ANGLES = 720
LATTICE_SIDES = (8, 16, 24)
LATTICE_ANGLES = 32


@dataclass(frozen=True)
class Item:
    """One CLI invocation; `argv` lacks only `--out-dir`."""

    id: str
    verb: str
    argv: tuple[str, ...]
    name: str  # output basename


def blas_env(workload: str, base: dict[str, str]) -> dict[str, str]:
    """`base` with the workload's BLAS thread variables applied."""
    env = {k: v for k, v in base.items() if k not in BLAS_THREAD_VARS}
    threads = BLAS_THREADS[workload]
    if threads is not None:
        env.update({k: threads for k in BLAS_THREAD_VARS})
    return env


def _scenario_name(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["name"]


def corpus_items(root: str) -> list[Item]:
    paths = sorted(glob.glob(os.path.join(root, "scenarios", "*.json")))
    if not paths:
        raise FileNotFoundError(f"no bundled scenarios under {root}/scenarios")
    items = []
    for verb in ("run", "criteria"):
        for p in paths:
            stem = os.path.splitext(os.path.basename(p))[0]
            items.append(Item(f"{verb}:{stem}", verb, (verb, p),
                              _scenario_name(p)))
    a, b = CONSTRUCT_TARGET.real, CONSTRUCT_TARGET.imag
    items.append(Item("construct", "construct",
                      ("construct", "--a", f"{a:g}", "--b", f"{b:g}",
                       "--zeros", "0"),
                      f"counterexample_a{a:g}_b{b:g}"))
    alt = os.path.join(root, "scenarios", "alternating_01_all.json")
    items.append(Item("sweep:alternating_01_all", "sweep",
                      ("sweep", alt, "--param", "potential.params.b_odd",
                       "--from", "0.5", "--to", "1.5",
                       "--steps", str(SWEEP_STEPS)),
                      _scenario_name(alt)))
    return items


def generate(workload: str, seed: int, in_dir: str) -> list[Item]:
    """Write the seeded scenario files of `workload` and return its items."""
    from specrange.criteria import CriteriaParams
    from specrange.model import (GeometricDecayPotential, LatticeBox,
                                 SeededRandomPotential, SumPotential)
    from specrange.scenario import (Scenario, atomic_write_text,
                                    dumps_canonical, encode_scenario,
                                    load_scenario)

    rng = random.Random(f"{workload}:{seed}")

    def centred_box(nu: int, side: int) -> LatticeBox:
        lo = -(side // 2)
        return LatticeBox(nu=nu, ranges=((lo, lo + side - 1),) * nu)

    def decaying(scale: float = 1.0) -> GeometricDecayPotential:
        # Complex amplitude with Im > 0, so the operator is non-selfadjoint.
        return GeometricDecayPotential(
            amplitude=complex(round(scale * rng.uniform(-1.0, 1.0), 6),
                              round(scale * rng.uniform(0.2, 1.0), 6)),
            ratio=round(rng.uniform(0.5, 0.9), 6))

    scenarios = []
    if workload == "hull_1d":
        for n in HULL_1D_SITES:
            scenarios.append(Scenario(
                name=f"hull_1d_n{n}", box=centred_box(1, n),
                potential=decaying(),
                analysis=("numrange", "classify"), n_angles=HULL_1D_ANGLES))
    elif workload == "lattice_2d":
        analysis = ("spectrum", "numrange", "classify", "criteria")
        for side in LATTICE_SIDES:
            box = centred_box(2, side)
            b_values = tuple(sorted(round(rng.uniform(0.1, 1.0), 3)
                                    for _ in range(2)))
            # The seeded_random field gives one shared value to every site
            # with a coordinate >= 0.  When that value is the extreme of
            # Im V, Re(e^{i theta} A) at theta = pi/2 or 3 pi/2 has a top
            # eigenvalue of multiplicity >= 48, on which compute_hull
            # raises IndexError.  A decaying background splits that tie
            # down to the two mirror corners, which the solver handles.
            fields = (
                ("geometric", decaying()),
                ("field", SumPotential((
                    SeededRandomPotential(
                        seed=rng.randrange(2 ** 31), box=box,
                        re_range=(-0.5, 0.5), im_range=(0.0, 1.0)),
                    decaying(scale=0.3)))),
            )
            for label, potential in fields:
                scenarios.append(Scenario(
                    name=f"lattice_2d_L{side}_{label}", box=box,
                    potential=potential, analysis=analysis,
                    n_angles=LATTICE_ANGLES,
                    criteria=CriteriaParams(b_values=b_values)))
    else:
        raise ValueError(f"workload {workload!r} has no generator")

    items = []
    os.makedirs(in_dir, exist_ok=True)
    for sc in scenarios:
        path = os.path.join(in_dir, f"{sc.name}.json")
        atomic_write_text(path, dumps_canonical(encode_scenario(sc)))
        if load_scenario(path) != sc:
            raise ValueError(f"{path} does not round-trip the scenario schema")
        items.append(Item(f"run:{sc.name}", "run", ("run", path), sc.name))
    return items


def items_for(workload: str, seed: int, root: str, in_dir: str) -> list[Item]:
    if workload == "corpus":
        return corpus_items(root)
    return generate(workload, seed, in_dir)
