"""Absence criteria: decidable predicates on potential descriptions.

Each check certifies, from the declared structure of the potential alone,
that boundary eigenvalues of a given class cannot exist for the operator
on the full lattice.  Verdicts are two-valued: absence_guaranteed carries
a witness, inconclusive carries the reason; existence is never claimed
here (that is the construct module's job, with residual certificates).

Infinite-lattice quantifiers are decided by a finite scan plus the
potential's declared tail certificate; without a certificate the checks
stay inconclusive rather than trusting any finite window.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import default_scan_radius
from .model import PotentialSpec

ABSENT = "absence_guaranteed"
INCONCLUSIVE = "inconclusive"

CRITERION_IDS = (
    "level_set_empty",
    "halfspace_support",
    "direction_decay",
    "full_decay",
    "pair_condition",
    "alternating",
    "real_window",
    "summability",
)

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


def _capped_radius(nu: int, radius: int) -> int:
    """Largest usable scan radius with at most MAX_SCAN_SITES grid sites,
    and 1 at the least: a check that scans refuses that grid too when it is
    over the cap (_over_scan_cap)."""
    r = int(radius)
    while r > 1 and (2 * r + 1) ** nu > MAX_SCAN_SITES:
        r = int(((MAX_SCAN_SITES ** (1.0 / nu)) - 1.0) // 2)
    return max(r, 1)


def _over_scan_cap(nu: int, radius: int) -> str | None:
    """Why the grid of _scan_grid(nu, radius) is not built, or None: even
    radius 1 has 3^nu sites, over MAX_SCAN_SITES once nu >= 14."""
    sites = (2 * radius + 1) ** nu
    if sites <= MAX_SCAN_SITES:
        return None
    return (f"the scan grid of radius {radius} in nu = {nu} has {sites} "
            f"sites, over the scan cap of {MAX_SCAN_SITES}")


def _scan_grid(nu: int, radius: int) -> np.ndarray:
    axes = [np.arange(-radius, radius + 1)] * nu
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1).astype(np.int64)


class ImScan:
    """Im d of one potential on the scan grids, each grid evaluated once.

    evaluate_all shares one ImScan between its checks, which scan the same
    grid for every level b; a check called on its own makes its own."""

    def __init__(self, potential: PotentialSpec):
        self.potential = potential
        self._grids: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}

    def __call__(self, nu: int, radius: int) -> tuple[np.ndarray, np.ndarray]:
        """(sites, Im d(sites)) on the grid of _scan_grid(nu, radius)."""
        key = (nu, radius)
        if key not in self._grids:
            sites = _scan_grid(nu, radius)
            self._grids[key] = sites, self.potential.values(sites).imag
        return self._grids[key]


def _resolve_radius(potential: PotentialSpec, nu: int,
                    scan_radius: int | None) -> int:
    base = default_scan_radius(nu) if scan_radius is None else int(scan_radius)
    tail = potential.tail_info()
    if tail is not None:
        base = max(base, tail.radius)
    return _capped_radius(nu, base)


def _tail_gap(potential: PotentialSpec, b: float, radius: int) -> float | None:
    """Certified lower bound on |Im d(k) - b| over ||k||_1 > radius, or
    None when no tail certificate exists or the scan cannot reach it."""
    tail = potential.tail_info()
    if tail is None or tail.radius > radius:
        return None
    return abs(b - tail.base.imag) - tail.im_sup_beyond(radius + 1)


def check_level_set_empty(potential: PotentialSpec, b: float, nu: int = 1,
                          scan_radius: int | None = None,
                          im_scan: ImScan | None = None) -> CriterionResult:
    """Absence for imaginary part b when Im d(k) = b has no solution at
    all: empty on the scan and excluded beyond it by the tail."""
    b = float(b)
    target = Target("im", b)
    radius = _resolve_radius(potential, nu, scan_radius)
    detail = {"b": b, "scan_radius": radius}
    margin = NEAR_EQ * max(1.0, abs(b))
    gap = _tail_gap(potential, b, radius)
    if gap is None:
        return CriterionResult(
            "level_set_empty", target, INCONCLUSIVE,
            "no usable tail certificate (missing, or its radius exceeds "
            "the scan cap): the level set is undecidable beyond any finite "
            "scan", detail)
    over = _over_scan_cap(nu, radius)
    if over is not None:
        return CriterionResult("level_set_empty", target, INCONCLUSIVE,
                               over, detail)
    sites, im = (im_scan or ImScan(potential))(nu, radius)
    dist = np.abs(im - b)
    hit = int(np.argmin(dist))
    if dist[hit] <= margin:
        site = tuple(int(c) for c in sites[hit])
        return CriterionResult(
            "level_set_empty", target, INCONCLUSIVE,
            f"Im d{site} = b = {b} (level set nonempty)", detail)
    if gap <= margin:
        return CriterionResult(
            "level_set_empty", target, INCONCLUSIVE,
            f"level set empty within scan radius {radius}, but the tail "
            f"certificate cannot separate Im d from b = {b} beyond it",
            detail)
    return CriterionResult(
        "level_set_empty", target, ABSENT,
        f"min |Im d(k) - b| = {dist[hit]:.3e} over the scan (radius "
        f"{radius}); beyond it |Im d - b| >= {gap:.3e} by the tail "
        "certificate: the level set is empty", detail)


def check_halfspace_support(potential: PotentialSpec, b: float, axis: int = 0,
                            side: str = "sup_finite", nu: int = 1,
                            scan_radius: int | None = None,
                            im_scan: ImScan | None = None) -> CriterionResult:
    """Absence for imaginary part b when {k : Im d(k) = b} is bounded
    above (sup_finite) or below (inf_finite) in coordinate `axis`."""
    b = float(b)
    if side not in ("sup_finite", "inf_finite"):
        raise ValueError("side must be 'sup_finite' or 'inf_finite'")
    if not 0 <= axis < nu:
        raise ValueError(f"axis {axis} out of range for nu = {nu}")
    target = Target("im", b)
    radius = _resolve_radius(potential, nu, scan_radius)
    detail = {"b": b, "axis": axis, "side": side, "scan_radius": radius}
    margin = NEAR_EQ * max(1.0, abs(b))
    gap = _tail_gap(potential, b, radius)
    if gap is None:
        return CriterionResult(
            "halfspace_support", target, INCONCLUSIVE,
            "no usable tail certificate (missing, or its radius exceeds "
            "the scan cap): the level set cannot be confined to any "
            "half-space", detail)
    if gap <= margin:
        return CriterionResult(
            "halfspace_support", target, INCONCLUSIVE,
            f"the tail certificate cannot separate Im d from b = {b}, so "
            "the level set may extend to infinity on both sides", detail)
    over = _over_scan_cap(nu, radius)
    if over is not None:
        return CriterionResult("halfspace_support", target, INCONCLUSIVE,
                               over, detail)
    sites, im = (im_scan or ImScan(potential))(nu, radius)
    hits = np.abs(im - b) <= margin
    word = "sup" if side == "sup_finite" else "inf"
    if not hits.any():
        extent = "-infinity" if side == "sup_finite" else "+infinity"
        return CriterionResult(
            "halfspace_support", target, ABSENT,
            f"level set is empty ({word} over the empty set = {extent}); "
            f"excluded beyond scan radius {radius} by the tail certificate",
            detail)
    coords = sites[hits, axis]
    bound = int(coords.max() if side == "sup_finite" else coords.min())
    return CriterionResult(
        "halfspace_support", target, ABSENT,
        f"{word} {{k_{axis} : Im d(k) = b}} = {bound} is finite: hits are "
        f"confined to the scan (radius {radius}) since the tail certificate "
        f"gives |Im d - b| >= {gap:.3e} beyond it", detail)


def check_direction_decay(potential: PotentialSpec, axis: int = 0,
                          direction: str = "+", nu: int = 1,
                          scan_radius: int | None = None) -> CriterionResult:
    """Absence of every non-real boundary eigenvalue when the slice sups
    of |Im d| tend to 0 along one coordinate direction."""
    if direction not in ("+", "-"):
        raise ValueError("direction must be '+' or '-'")
    if not 0 <= axis < nu:
        raise ValueError(f"axis {axis} out of range for nu = {nu}")
    target = Target("nonreal")
    radius = _resolve_radius(potential, nu, scan_radius)
    detail = {"axis": axis, "direction": direction, "scan_radius": radius}
    if not potential.im_decays_to_zero():
        return CriterionResult(
            "direction_decay", target, INCONCLUSIVE,
            f"no certificate that sup of |Im d| over the slice k_{axis} = n "
            f"tends to 0 as n -> {direction}infinity", detail)
    tail = potential.tail_info()
    env = tail.im_sup_beyond(radius + 1)
    return CriterionResult(
        "direction_decay", target, ABSENT,
        f"slice sup of |Im d| along axis {axis} ({direction}) is certified "
        f"to tend to 0 (tail base has zero imaginary part; envelope at "
        f"distance {radius + 1} is {env:.3e})", detail)


def check_full_decay(potential: PotentialSpec, nu: int = 1,
                     scan_radius: int | None = None) -> CriterionResult:
    """Absence of every non-real boundary eigenvalue when Im d(k) -> 0 as
    ||k||_1 -> infinity."""
    target = Target("nonreal")
    radius = _resolve_radius(potential, nu, scan_radius)
    detail = {"scan_radius": radius}
    if not potential.im_decays_to_zero():
        return CriterionResult(
            "full_decay", target, INCONCLUSIVE,
            "no certificate that Im d(k) -> 0 as ||k||_1 -> infinity",
            detail)
    tail = potential.tail_info()
    env = tail.im_sup_beyond(radius + 1)
    return CriterionResult(
        "full_decay", target, ABSENT,
        f"Im d(k) -> 0 as ||k||_1 -> infinity is certified by the declared "
        f"kind (envelope at distance {radius + 1} is {env:.3e})", detail)


def check_pair_condition(potential: PotentialSpec, b: float, nu: int = 1,
                         scan_radius: int | None = None,
                         im_scan: ImScan | None = None) -> CriterionResult:
    """Absence for imaginary part b witnessed by one adjacent pair with
    Im d(m) != b and Im d(m+1) != b (1D)."""
    b = float(b)
    target = Target("im", b)
    if nu != 1:
        return CriterionResult(
            "pair_condition", target, INCONCLUSIVE,
            f"only available in one dimension (nu = {nu})", {"b": b})
    radius = _resolve_radius(potential, 1, scan_radius)
    detail = {"b": b, "scan_radius": radius}
    margin = NEAR_EQ * max(1.0, abs(b))
    sites, im = (im_scan or ImScan(potential))(1, radius)
    away = np.abs(im - b) > margin
    both = away[:-1] & away[1:]
    if not both.any():
        return CriterionResult(
            "pair_condition", target, INCONCLUSIVE,
            f"no adjacent pair with Im d != b on both sites within scan "
            f"radius {radius}", detail)
    m = int(sites[int(np.argmax(both)), 0])
    dm = potential.value((m,)).imag
    dm1 = potential.value((m + 1,)).imag
    detail["witness_site"] = m
    return CriterionResult(
        "pair_condition", target, ABSENT,
        f"witness m = {m}: Im d({m}) = {dm!r} and Im d({m + 1}) = {dm1!r} "
        f"both differ from b = {b}", detail)


def check_alternating(potential: PotentialSpec, nu: int = 1) -> CriterionResult:
    """Absence of all boundary eigenvalues for an exactly 2-periodic
    imaginary part taking two distinct values (1D)."""
    target = Target("all")
    if nu != 1:
        return CriterionResult(
            "alternating", target, INCONCLUSIVE,
            f"only available in one dimension (nu = {nu})")
    alt = potential.im_alternating()
    if alt is None:
        return CriterionResult(
            "alternating", target, INCONCLUSIVE,
            "imaginary part is not declared exactly 2-periodic")
    b_even, b_odd = alt
    detail = {"b_even": b_even, "b_odd": b_odd}
    if b_even == b_odd:
        return CriterionResult(
            "alternating", target, INCONCLUSIVE,
            f"pattern values coincide (both {b_even}): imaginary part is "
            "constant, not a two-value alternation", detail)
    return CriterionResult(
        "alternating", target, ABSENT,
        f"Im d alternates between {b_even} (even sites) and {b_odd} (odd "
        "sites) on the whole lattice with distinct values", detail)


def check_real_window(potential: PotentialSpec, a: float, nu: int = 1,
                      scan_radius: int | None = None) -> CriterionResult:
    """Absence for real part a outside [-2, 2] when Re d decays (pinning
    the essential window) and Im d misses every level infinitely often."""
    a = float(a)
    target = Target("re", a)
    detail = {"a": a}
    if nu != 1:
        return CriterionResult(
            "real_window", target, INCONCLUSIVE,
            f"only available in one dimension (nu = {nu})", detail)
    if not potential.re_decays_to_zero():
        return CriterionResult(
            "real_window", target, INCONCLUSIVE,
            "Re d is not certified to decay to 0, so the essential window "
            "is not pinned to [-2, 2]", detail)
    if ESS_LO <= a <= ESS_HI:
        return CriterionResult(
            "real_window", target, INCONCLUSIVE,
            f"a = {a} lies inside the essential window [{ESS_LO}, {ESS_HI}]",
            detail)
    alt = potential.im_alternating()
    alt_ok = alt is not None and alt[0] != alt[1]
    if not (alt_ok or (potential.im_decays_to_zero()
                       and potential.im_nonzero_infinite())):
        return CriterionResult(
            "real_window", target, INCONCLUSIVE,
            "cannot certify that Im d(n) != b at infinitely many n for "
            "every level b", detail)
    how = ("2-periodic alternation with distinct values" if alt_ok
           else "Im d -> 0 with infinitely many nonzero sites")
    return CriterionResult(
        "real_window", target, ABSENT,
        f"Re d -> 0 pins the essential window to [{ESS_LO}, {ESS_HI}], "
        f"which excludes a = {a}; every level b is missed infinitely "
        f"often ({how})", detail)


def check_summability(potential: PotentialSpec, nu: int = 1,
                      scan_radius: int | None = None,
                      im_scan: ImScan | None = None) -> CriterionResult:
    """Absence of all boundary eigenvalues for decaying d with a gap in
    every adjacent pair of Im d, infinitely many nonzero Im sites, and a
    convergent first moment of |Re d| (1D)."""
    target = Target("all")
    if nu != 1:
        return CriterionResult(
            "summability", target, INCONCLUSIVE,
            f"only available in one dimension (nu = {nu})")
    radius = _resolve_radius(potential, 1, scan_radius)
    detail = {"scan_radius": radius}
    if not (potential.re_decays_to_zero() and potential.im_decays_to_zero()):
        return CriterionResult(
            "summability", target, INCONCLUSIVE,
            "d is not certified to vanish at infinity", detail)
    if not potential.im_nonzero_infinite():
        return CriterionResult(
            "summability", target, INCONCLUSIVE,
            "cannot certify infinitely many sites with Im d != 0", detail)
    parity = potential.im_support_parity()
    if parity not in ("even", "odd"):
        return CriterionResult(
            "summability", target, INCONCLUSIVE,
            "adjacent-pair gap not certified: Im d is not declared to "
            "vanish off one parity class", detail)
    if not potential.re_weighted_summable():
        return CriterionResult(
            "summability", target, INCONCLUSIVE,
            "sum over k of |k| |Re d(k)| is not certified convergent",
            detail)
    sites, im = (im_scan or ImScan(potential))(1, radius)
    nz = im != 0.0
    both = nz[:-1] & nz[1:]
    if both.any():
        m = int(sites[int(np.argmax(both)), 0])
        return CriterionResult(
            "summability", target, INCONCLUSIVE,
            f"adjacent sites {m}, {m + 1} both have Im d != 0, "
            "contradicting the declared parity support", detail)
    detail["parity"] = parity
    return CriterionResult(
        "summability", target, ABSENT,
        f"d -> 0; Im d is supported on {parity} sites only (every adjacent "
        "pair has a zero) with infinitely many nonzero sites; "
        "sum |k| |Re d(k)| converges by the declared kind", detail)


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
    directly.  Entries keep a fixed deterministic order.  The potential is
    evaluated at most once per scan grid.
    """
    if params is None:
        params = CriteriaParams()
    nu = int(nu)
    axes = params.axes if params.axes is not None else tuple(range(nu))
    radius = params.scan_radius
    scan = ImScan(potential)
    entries: list[CriterionResult] = []

    for b in params.b_values:
        entries.append(check_level_set_empty(potential, b, nu, radius, scan))
    for b in params.b_values:
        for axis in axes:
            for side in ("sup_finite", "inf_finite"):
                entries.append(check_halfspace_support(
                    potential, b, axis, side, nu, radius, scan))
    for axis in axes:
        for direction in ("+", "-"):
            entries.append(check_direction_decay(
                potential, axis, direction, nu, radius))
    entries.append(check_full_decay(potential, nu, radius))
    pair_levels = list(params.b_values)
    if not any(b == 0.0 for b in pair_levels):
        pair_levels.append(0.0)
    for b in pair_levels:
        entries.append(check_pair_condition(potential, b, nu, radius, scan))
    entries.append(check_alternating(potential, nu))
    for a in params.a_values:
        entries.append(check_real_window(potential, a, nu, radius))
    entries.append(check_summability(potential, nu, radius, scan))

    nonreal_excluded = any(
        e.absent and e.target.kind == "nonreal" for e in entries)
    zero_excluded = any(
        e.absent and e.target.kind == "im" and e.target.value == 0.0
        for e in entries)
    direct_all = any(e.absent and e.target.kind == "all" for e in entries)
    no_boundary = direct_all or (nonreal_excluded and zero_excluded)
    im_excluded = tuple(sorted({
        e.target.value for e in entries
        if e.absent and e.target.kind == "im"}))
    re_excluded = tuple(sorted({
        e.target.value for e in entries
        if e.absent and e.target.kind == "re"}))

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
