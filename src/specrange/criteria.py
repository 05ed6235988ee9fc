"""Absence criteria: decidable predicates on potential descriptions.

Each criterion certifies, from the declared structure of the potential
alone, that boundary eigenvalues of a given class cannot exist for the
operator on the full lattice.  Verdicts are two-valued: absence_guaranteed
carries a witness, inconclusive carries the reason; existence is never
claimed here (that is the construct module's job, with residual
certificates).

`evaluate_all` is the one entry point.  Its checks are steps over one scan
per report, which derives the scan radius, reads the potential's tail
certificate, evaluates Im d on the scan grid and locates each level b in
it once each.
Infinite-lattice quantifiers are decided by that finite scan plus the tail
certificate; without a certificate the checks stay inconclusive rather
than trusting any finite window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import NamedTuple

import numpy as np

from .config import SCAN_RADIUS_1D, SCAN_RADIUS_ND
from .model import PotentialSpec

ABSENT = "absence_guaranteed"
INCONCLUSIVE = "inconclusive"

# matching a level set in floating point: treat values this close to b as
# hits, so uncertainty only ever pushes a verdict toward inconclusive
NEAR_EQ = 1e-9
ESS_LO, ESS_HI = -2.0, 2.0
MAX_SCAN_SITES = 2_000_000


@dataclass(frozen=True)
class Target:
    """Class of boundary eigenvalues a verdict speaks about.

    kind "all": every boundary eigenvalue; "im": those with imaginary part
    equal to value; "nonreal": those with nonzero imaginary part; "re":
    those with real part equal to value.
    """

    kind: str
    value: float | None = None

    def __post_init__(self):
        if self.kind not in ("all", "im", "nonreal", "re"):
            raise ValueError(f"unknown target kind {self.kind!r}")
        if (self.kind in ("im", "re")) != (self.value is not None):
            raise ValueError("targets 'im'/'re' carry a value; others do not")

    def to_json_dict(self) -> dict:
        out: dict = {"kind": self.kind}
        if self.value is not None:
            out["value"] = self.value
        return out


@dataclass(frozen=True)
class CriterionResult:
    criterion: str
    target: Target
    verdict: str
    witness: str
    detail: dict = field(default_factory=dict)

    @property
    def absent(self) -> bool:
        return self.verdict == ABSENT

    def to_json_dict(self) -> dict:
        return {
            "criterion": self.criterion,
            "target": self.target.to_json_dict(),
            "verdict": self.verdict,
            "witness": self.witness,
            "detail": dict(sorted(self.detail.items())),
        }


def _scan_grid(nu: int, radius: int) -> np.ndarray:
    """The (m, nu) sites of the cube [-radius, radius]^nu in lexicographic
    order, first axis most significant."""
    grid = np.indices((2 * radius + 1,) * nu, dtype=np.int64).reshape(nu, -1)
    grid -= radius
    return grid.T


def _margin(b: float) -> float:
    return NEAR_EQ * max(1.0, abs(b))


def _distance(im: np.ndarray, b: float) -> np.ndarray:
    """|im - b|, inf where it exceeds the float64 range."""
    with np.errstate(over="ignore"):
        return np.abs(im - b)


def _relation(relation: str, x: float) -> str:
    """'relation x' for a distance x, or words when x is beyond the float64
    range."""
    return (f"{relation} {x:.3e}" if x < math.inf
            else "exceeds the float64 range")


class _Level(NamedTuple):
    """Where the level b sits in Im d on the scan grid."""

    nearest_site: np.ndarray  # a grid site of the least |Im d - b|
    nearest_dist: float
    hit_sites: np.ndarray  # the sites with |Im d - b| <= _margin(b)


class _Scan:
    """What every check of one report reads: the potential and nu, its tail
    certificate, the scan radius, Im d on the grid of that radius and, once
    per level b, where b sits in it."""

    def __init__(self, potential: PotentialSpec, nu: int,
                 scan_radius: int | None):
        self.potential, self.nu = potential, nu
        self.tail = potential.tail_info()
        r = int(scan_radius) if scan_radius is not None else (
            SCAN_RADIUS_1D if nu == 1 else SCAN_RADIUS_ND)
        if self.tail is not None:
            r = max(r, self.tail.radius)
        # the largest radius whose grid has at most MAX_SCAN_SITES sites,
        # and 1 at the least
        if r > 1 and (2 * r + 1) ** nu > MAX_SCAN_SITES:
            r = int(((MAX_SCAN_SITES ** (1.0 / nu)) - 1.0) // 2)
        self.radius = max(r, 1)
        # even radius 1 has 3^nu sites, over the cap once nu >= 14
        sites = (2 * self.radius + 1) ** nu
        self.over_cap = None if sites <= MAX_SCAN_SITES else (
            f"the scan grid of radius {self.radius} in nu = {nu} has {sites} "
            f"sites, over the scan cap of {MAX_SCAN_SITES}")
        self.one_dim_only = f"only available in one dimension (nu = {nu})"
        self._levels: dict[float, _Level] = {}

    def gap(self, b: float) -> float | None:
        """Certified lower bound on |Im d(k) - b| over ||k||_1 > radius, or
        None when no tail certificate exists or the scan cannot reach it."""
        if self.tail is None or self.tail.radius > self.radius:
            return None
        base, sup = self.tail.base.imag, self.tail.im_sup_beyond(
            self.radius + 1)
        dist = abs(b - base)
        if dist == math.inf:  # b - base overflowed: halve, then double
            return 2.0 * (abs(b / 2.0 - base / 2.0) - sup / 2.0)
        return dist - sup

    @cached_property
    def grid(self) -> tuple[np.ndarray, np.ndarray]:
        """(sites, Im d(sites)) on the grid of _scan_grid(nu, radius)."""
        sites = _scan_grid(self.nu, self.radius)
        return sites, self.potential.values(sites).imag

    def level(self, b: float) -> _Level:
        """The level b on the grid, computed once for all checks of b."""
        if b not in self._levels:
            sites, im = self.grid
            dist = _distance(im, b)
            nearest = int(np.argmin(dist))
            self._levels[b] = _Level(sites[nearest], float(dist[nearest]),
                                     sites[dist <= _margin(b)])
        return self._levels[b]


def _level_set_empty(scan: _Scan, b: float) -> CriterionResult:
    """Absence for imaginary part b when Im d(k) = b has no solution at
    all: empty on the scan and excluded beyond it by the tail."""
    radius = scan.radius
    result = partial(CriterionResult, "level_set_empty", Target("im", b),
                     detail={"b": b, "scan_radius": radius})
    gap = scan.gap(b)
    if gap is None:
        return result(
            INCONCLUSIVE,
            "no usable tail certificate (missing, or its radius exceeds "
            "the scan cap): the level set is undecidable beyond any finite "
            "scan")
    if scan.over_cap is not None:
        return result(INCONCLUSIVE, scan.over_cap)
    level = scan.level(b)
    if level.nearest_dist <= _margin(b):
        site = tuple(int(c) for c in level.nearest_site)
        return result(INCONCLUSIVE,
                      f"Im d{site} = b = {b} (level set nonempty)")
    if gap <= _margin(b):
        return result(
            INCONCLUSIVE,
            f"level set empty within scan radius {radius}, but the tail "
            f"certificate cannot separate Im d from b = {b} beyond it")
    return result(
        ABSENT,
        f"min |Im d(k) - b| {_relation('=', level.nearest_dist)} over the "
        f"scan (radius {radius}); beyond it |Im d - b| "
        f"{_relation('>=', gap)} by the tail certificate: the level set is "
        "empty")


def _halfspace_support(scan: _Scan, b: float, axis: int,
                       side: str) -> CriterionResult:
    """Absence for imaginary part b when {k : Im d(k) = b} is bounded
    above (sup_finite) or below (inf_finite) in coordinate `axis`."""
    radius = scan.radius
    result = partial(CriterionResult, "halfspace_support", Target("im", b),
                     detail={"b": b, "axis": axis, "side": side,
                             "scan_radius": radius})
    gap = scan.gap(b)
    if gap is None:
        return result(
            INCONCLUSIVE,
            "no usable tail certificate (missing, or its radius exceeds "
            "the scan cap): the level set cannot be confined to any "
            "half-space")
    if gap <= _margin(b):
        return result(
            INCONCLUSIVE,
            f"the tail certificate cannot separate Im d from b = {b}, so "
            "the level set may extend to infinity on both sides")
    if scan.over_cap is not None:
        return result(INCONCLUSIVE, scan.over_cap)
    hit_sites = scan.level(b).hit_sites
    word = "sup" if side == "sup_finite" else "inf"
    if not len(hit_sites):
        extent = "-infinity" if side == "sup_finite" else "+infinity"
        return result(
            ABSENT,
            f"level set is empty ({word} over the empty set = {extent}); "
            f"excluded beyond scan radius {radius} by the tail certificate")
    coords = hit_sites[:, axis]
    bound = int(coords.max() if side == "sup_finite" else coords.min())
    return result(
        ABSENT,
        f"{word} {{k_{axis} : Im d(k) = b}} = {bound} is finite: hits are "
        f"confined to the scan (radius {radius}) since the tail certificate "
        f"gives |Im d - b| {_relation('>=', gap)} beyond it")


def _decay(scan: _Scan, axes: tuple[int, ...]) -> list[CriterionResult]:
    """Absence of every non-real boundary eigenvalue when Im d tends to 0:
    along each coordinate direction (direction_decay: the slice sups of
    |Im d|), then as ||k||_1 -> infinity (full_decay).  Both read the one
    certificate that Im d -> 0 and its envelope at radius + 1."""
    radius = scan.radius
    decays = scan.potential.im_decays_to_zero()
    env = scan.tail.im_sup_beyond(radius + 1) if decays else None
    verdict = ABSENT if decays else INCONCLUSIVE
    out = []
    for axis in axes:
        for direction in ("+", "-"):
            witness = (
                f"slice sup of |Im d| along axis {axis} ({direction}) is "
                f"certified to tend to 0 (tail base has zero imaginary part; "
                f"envelope at distance {radius + 1} is {env:.3e})" if decays
                else f"no certificate that sup of |Im d| over the slice "
                f"k_{axis} = n tends to 0 as n -> {direction}infinity")
            out.append(CriterionResult(
                "direction_decay", Target("nonreal"), verdict, witness,
                {"axis": axis, "direction": direction, "scan_radius": radius}))
    witness = (
        f"Im d(k) -> 0 as ||k||_1 -> infinity is certified by the declared "
        f"kind (envelope at distance {radius + 1} is {env:.3e})" if decays
        else "no certificate that Im d(k) -> 0 as ||k||_1 -> infinity")
    out.append(CriterionResult("full_decay", Target("nonreal"), verdict,
                               witness, {"scan_radius": radius}))
    return out


def _pair_condition(scan: _Scan, b: float) -> CriterionResult:
    """Absence for imaginary part b witnessed by one adjacent pair with
    Im d(m) != b and Im d(m+1) != b (1D)."""
    detail = {"b": b}
    result = partial(CriterionResult, "pair_condition", Target("im", b),
                     detail=detail)
    if scan.nu != 1:
        return result(INCONCLUSIVE, scan.one_dim_only)
    radius = detail["scan_radius"] = scan.radius
    sites, im = scan.grid
    away = _distance(im, b) > _margin(b)
    both = away[:-1] & away[1:]
    if not both.any():
        return result(
            INCONCLUSIVE,
            f"no adjacent pair with Im d != b on both sites within scan "
            f"radius {radius}")
    i = int(np.argmax(both))
    m, dm, dm1 = int(sites[i, 0]), float(im[i]), float(im[i + 1])
    detail["witness_site"] = m
    return result(
        ABSENT,
        f"witness m = {m}: Im d({m}) = {dm!r} and Im d({m + 1}) = {dm1!r} "
        f"both differ from b = {b}")


def _alternating(scan: _Scan) -> CriterionResult:
    """Absence of all boundary eigenvalues for an exactly 2-periodic
    imaginary part taking two distinct values (1D)."""
    result = partial(CriterionResult, "alternating", Target("all"))
    if scan.nu != 1:
        return result(INCONCLUSIVE, scan.one_dim_only)
    alt = scan.potential.im_alternating()
    if alt is None:
        return result(INCONCLUSIVE,
                      "imaginary part is not declared exactly 2-periodic")
    b_even, b_odd = alt
    result = partial(result, detail={"b_even": b_even, "b_odd": b_odd})
    if b_even == b_odd:
        return result(
            INCONCLUSIVE,
            f"pattern values coincide (both {b_even}): imaginary part is "
            "constant, not a two-value alternation")
    return result(
        ABSENT,
        f"Im d alternates between {b_even} (even sites) and {b_odd} (odd "
        "sites) on the whole lattice with distinct values")


def _real_window(scan: _Scan, a: float) -> CriterionResult:
    """Absence for real part a outside [-2, 2] when Re d decays (pinning
    the essential window) and Im d misses every level infinitely often."""
    pot = scan.potential
    result = partial(CriterionResult, "real_window", Target("re", a),
                     detail={"a": a})
    if scan.nu != 1:
        return result(INCONCLUSIVE, scan.one_dim_only)
    if not pot.re_decays_to_zero():
        return result(
            INCONCLUSIVE,
            "Re d is not certified to decay to 0, so the essential window "
            "is not pinned to [-2, 2]")
    if ESS_LO <= a <= ESS_HI:
        return result(
            INCONCLUSIVE,
            f"a = {a} lies inside the essential window [{ESS_LO}, {ESS_HI}]")
    alt = pot.im_alternating()
    alt_ok = alt is not None and alt[0] != alt[1]
    if not (alt_ok or (pot.im_decays_to_zero()
                       and pot.im_nonzero_infinite())):
        return result(
            INCONCLUSIVE,
            "cannot certify that Im d(n) != b at infinitely many n for "
            "every level b")
    how = ("2-periodic alternation with distinct values" if alt_ok
           else "Im d -> 0 with infinitely many nonzero sites")
    return result(
        ABSENT,
        f"Re d -> 0 pins the essential window to [{ESS_LO}, {ESS_HI}], "
        f"which excludes a = {a}; every level b is missed infinitely "
        f"often ({how})")


def _summability(scan: _Scan) -> CriterionResult:
    """Absence of all boundary eigenvalues for decaying d with a gap in
    every adjacent pair of Im d, infinitely many nonzero Im sites, and a
    convergent first moment of |Re d| (1D)."""
    pot = scan.potential
    detail: dict = {}
    result = partial(CriterionResult, "summability", Target("all"),
                     detail=detail)
    if scan.nu != 1:
        return result(INCONCLUSIVE, scan.one_dim_only)
    detail["scan_radius"] = scan.radius
    if not (pot.re_decays_to_zero() and pot.im_decays_to_zero()):
        return result(INCONCLUSIVE,
                      "d is not certified to vanish at infinity")
    if not pot.im_nonzero_infinite():
        return result(INCONCLUSIVE,
                      "cannot certify infinitely many sites with Im d != 0")
    parity = pot.im_support_parity()
    if parity not in ("even", "odd"):
        return result(
            INCONCLUSIVE,
            "adjacent-pair gap not certified: Im d is not declared to "
            "vanish off one parity class")
    if not pot.re_weighted_summable():
        return result(
            INCONCLUSIVE,
            "sum over k of |k| |Re d(k)| is not certified convergent")
    sites, im = scan.grid
    nz = im != 0.0
    both = nz[:-1] & nz[1:]
    if both.any():
        m = int(sites[int(np.argmax(both)), 0])
        return result(
            INCONCLUSIVE,
            f"adjacent sites {m}, {m + 1} both have Im d != 0, "
            "contradicting the declared parity support")
    detail["parity"] = parity
    return result(
        ABSENT,
        f"d -> 0; Im d is supported on {parity} sites only (every adjacent "
        "pair has a zero) with infinitely many nonzero sites; "
        "sum |k| |Re d(k)| converges by the declared kind")


# ---------------------------------------------------------------------------
# aggregation


@dataclass(frozen=True)
class CriteriaParams:
    b_values: tuple[float, ...] = ()
    a_values: tuple[float, ...] = ()
    axes: tuple[int, ...] | None = None
    scan_radius: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "b_values",
                           tuple(float(b) for b in self.b_values))
        object.__setattr__(self, "a_values",
                           tuple(float(a) for a in self.a_values))
        if self.axes is not None:
            object.__setattr__(self, "axes",
                               tuple(int(j) for j in self.axes))

    def to_json_dict(self) -> dict:
        return {
            "b_values": list(self.b_values),
            "a_values": list(self.a_values),
            "axes": None if self.axes is None else list(self.axes),
            "scan_radius": self.scan_radius,
        }


@dataclass(frozen=True)
class CriteriaReport:
    entries: tuple[CriterionResult, ...]
    nu: int
    params: CriteriaParams
    no_boundary_eigenvalues: bool
    nonreal_excluded: bool
    im_excluded: tuple[float, ...]
    re_excluded: tuple[float, ...]
    notes: tuple[str, ...]

    def guaranteed_targets(self) -> list[Target]:
        """Deduplicated targets with at least one absence_guaranteed entry,
        widened by the aggregate conclusions."""
        out: list[Target] = []
        if self.no_boundary_eigenvalues:
            out.append(Target("all"))
        if self.nonreal_excluded:
            out.append(Target("nonreal"))
        for b in self.im_excluded:
            out.append(Target("im", b))
        for a in self.re_excluded:
            out.append(Target("re", a))
        return out

    def to_json_dict(self, potential_json: dict | None = None) -> dict:
        out = {
            "nu": self.nu,
            "parameters": self.params.to_json_dict(),
            "entries": [e.to_json_dict() for e in self.entries],
            "combined": {
                "no_boundary_eigenvalues": self.no_boundary_eigenvalues,
                "nonreal_excluded": self.nonreal_excluded,
                "im_excluded": list(self.im_excluded),
                "re_excluded": list(self.re_excluded),
            },
            "notes": list(self.notes),
        }
        if potential_json is not None:
            out["potential"] = potential_json
        return out


def evaluate_all(potential: PotentialSpec, nu: int,
                 params: CriteriaParams | None = None) -> CriteriaReport:
    """Run every applicable criterion and merge the strongest conclusions.

    Non-real exclusion plus an adjacent-pair witness at level 0 jointly
    exclude every boundary eigenvalue; alternating and summability do so
    directly.  Entries keep a fixed deterministic order.  The checks share
    one scan, so the potential is evaluated at most once on its grid.
    """
    if params is None:
        params = CriteriaParams()
    nu = int(nu)
    axes = params.axes if params.axes is not None else tuple(range(nu))
    for axis in axes:
        if not 0 <= axis < nu:
            raise ValueError(f"axis {axis} out of range for nu = {nu}")
    scan = _Scan(potential, nu, params.scan_radius)
    bs = params.b_values
    entries = [_level_set_empty(scan, b) for b in bs]
    entries += [_halfspace_support(scan, b, axis, side) for b in bs
                for axis in axes for side in ("sup_finite", "inf_finite")]
    entries += _decay(scan, axes)
    entries += [_pair_condition(scan, b)
                for b in bs + (() if 0.0 in bs else (0.0,))]
    entries.append(_alternating(scan))
    entries += [_real_window(scan, a) for a in params.a_values]
    entries.append(_summability(scan))

    absent = {(e.target.kind, e.target.value) for e in entries if e.absent}
    nonreal_excluded = ("nonreal", None) in absent
    no_boundary = ("all", None) in absent or (
        nonreal_excluded and ("im", 0.0) in absent)
    im_excluded = tuple(sorted(v for kind, v in absent if kind == "im"))
    re_excluded = tuple(sorted(v for kind, v in absent if kind == "re"))

    notes: list[str] = []
    if potential.im_support_parity() == "zero":
        notes.append(
            "imaginary part is identically zero: the operator is "
            "selfadjoint, its numerical range degenerates to a real "
            "segment, and every eigenvalue lies on the boundary; the "
            "absence criteria target genuinely non-selfadjoint structure")
    if no_boundary:
        notes.append("combined verdict: no boundary eigenvalues at all")
    elif nonreal_excluded:
        notes.append("combined verdict: no non-real boundary eigenvalues")

    return CriteriaReport(
        entries=tuple(entries), nu=nu, params=params,
        no_boundary_eigenvalues=no_boundary,
        nonreal_excluded=nonreal_excluded,
        im_excluded=im_excluded, re_excluded=re_excluded,
        notes=tuple(notes),
    )
