"""Lattice boxes, complex potentials, and assembly of truncated lattice operators.

The operator of interest is nearest-neighbor hopping on Z^nu plus a complex
diagonal potential, cut down to a finite box with Dirichlet truncation
(hops leaving the box are dropped).  Potentials are specified symbolically
so that infinite-lattice facts (decay, level-set structure, parity of the
imaginary part's support) remain certifiable after truncation; each kind
implements a small certificate protocol consumed by the criteria module.

Operators (the Operator interface) are read through their box (None for
an explicit matrix), diagonal, norm, products A f and A* f of blocks of
vectors, and dense entries written into a caller's buffers by one method,
`fill_blocks`: A's blocks on the even and odd vectors of an exchange of
sites that A commutes with.  That is `swap` for a LatticeOperator whose d
is invariant under exchanging two axes of a square box, and otherwise the
trivial exchange (`trivial_swap`), whose even block is A itself and whose
odd block is empty.  A LatticeOperator whose Im d is constant is normal
(`normal_shift`), and `fill_blocks` writes Re A's blocks alone into real
buffers.  `assemble` returns a LatticeOperator, which stores the box and
the diagonal d alone (A = J + diag(d), O(n) memory, stencil products);
explicit matrices, the only storage for input that was not assembled on a
box, are OperatorMatrix and keep their dense array.  Re A and Im A are not
stored: the sweep in numrange forms them, and the certificates read them
through the products.
"""

from __future__ import annotations

import abc
import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .config import DEFAULT_MAX_DIM
from .exceptions import DimensionLimitError

# Sites are int64 arrays: keeping ||k||_1 <= 2**62 on a box leaves room for
# the norms, offsets and 2 r + 1 scan widths computed from its coordinates.
MAX_NORM1 = 2 ** 62


# ---------------------------------------------------------------------------
# lattice box


@dataclass(frozen=True)
class LatticeBox:
    """Axis-aligned box in Z^nu with lexicographic site enumeration.

    ranges[j] = (lo_j, hi_j) inclusive on both ends.  Enumeration order is
    lexicographic in the coordinates, first axis most significant, which
    fixes the site <-> index bijection used everywhere downstream.
    """

    nu: int
    ranges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "ranges", tuple((int(lo), int(hi)) for lo, hi in self.ranges))
        if self.nu < 1:
            raise ValueError("nu must be >= 1")
        if len(self.ranges) != self.nu:
            raise ValueError(f"expected {self.nu} ranges, got {len(self.ranges)}")
        for lo, hi in self.ranges:
            if lo > hi:
                raise ValueError(f"empty axis range ({lo}, {hi})")
        if sum(max(-lo, hi) for lo, hi in self.ranges) > MAX_NORM1:
            raise ValueError("box coordinates reach ||k||_1 > 2**62")

    @cached_property
    def shape(self) -> tuple[int, ...]:
        return tuple(hi - lo + 1 for lo, hi in self.ranges)

    @cached_property
    def site_count(self) -> int:
        return math.prod(self.shape)

    @cached_property
    def strides(self) -> tuple[int, ...]:
        strides = [1] * self.nu
        for j in range(self.nu - 2, -1, -1):
            strides[j] = strides[j + 1] * self.shape[j + 1]
        return tuple(strides)

    @cached_property
    def sites(self) -> np.ndarray:
        """(site_count, nu) int64 array in enumeration order."""
        axes = [np.arange(lo, hi + 1, dtype=np.int64) for lo, hi in self.ranges]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)


# ---------------------------------------------------------------------------
# decay certificates


@dataclass(frozen=True)
class DecayBound:
    """Monotone envelope g(s) decreasing to 0, bounding a tail deviation.

    form "power":      g(s) = amplitude / (1 + s**rate)
    form "geometric":  g(s) = amplitude * rate**s      (0 <= rate < 1)
    """

    form: str
    amplitude: float
    rate: float

    def at(self, s: float) -> float:
        if self.amplitude == 0.0:
            return 0.0
        if self.form == "power":
            try:
                return self.amplitude / (1.0 + s ** self.rate)
            except OverflowError:  # s**rate beyond the float64 range
                return 0.0
        return self.amplitude * self.rate ** s


def _dev(form: str, amplitude: float, rate: float) -> tuple[DecayBound, ...]:
    if amplitude == 0.0:
        return ()
    return (DecayBound(form, float(amplitude), float(rate)),)


@dataclass(frozen=True)
class TailInfo:
    """Certified tail model, the one statement of a kind's decay: for
    ||k||_1 > radius, d(k) = base + dev(k) with |Re dev| and |Im dev| below
    the respective envelopes.  `re_dev` is what makes `base.real` the limit
    of Re d, which `re_decays_to_zero` and the shooting test rely on.
    """

    radius: int
    base: complex
    re_dev: tuple[DecayBound, ...] = ()
    im_dev: tuple[DecayBound, ...] = ()

    def im_sup_beyond(self, s: float) -> float:
        return sum(b.at(s) for b in self.im_dev)


# ---------------------------------------------------------------------------
# potential kinds


def _norm1(sites: np.ndarray) -> np.ndarray:
    return np.abs(sites).sum(axis=1)


class PotentialSpec(abc.ABC):
    """Symbolic complex potential d on Z^nu.

    Subclasses provide pointwise evaluation plus the certificate protocol
    used by the absence criteria; every certificate method is conservative
    (returns the weaker answer when the structure cannot be established
    from the declared kind alone).
    """

    kind: str = ""

    @abc.abstractmethod
    def values(self, sites: np.ndarray) -> np.ndarray:
        """Evaluate on an (m, nu) int array of sites; returns complex128 (m,)."""

    def value(self, site: Sequence[int]) -> complex:
        return complex(self.values(np.asarray([site], dtype=np.int64))[0])

    @property
    def site_dim(self) -> int | None:
        """The lattice dimension nu the kind is declared on, or None when it
        is defined on Z^nu for every nu."""
        return None

    # --- certificate protocol (conservative defaults) ---

    def tail_info(self) -> TailInfo | None:
        return None

    def im_alternating(self) -> tuple[float, float] | None:
        """Exact global 2-periodic imaginary part (value on even, on odd), 1D."""
        return None

    def im_support_parity(self) -> str | None:
        """'even'/'odd' if Im d vanishes off that parity class, 'zero' if
        Im d is identically zero, None if unconstrained.  1D notion."""
        return None

    def im_nonzero_infinite(self) -> bool:
        """Certified: Im d(k) != 0 at infinitely many sites."""
        return False

    def re_weighted_summable(self) -> bool:
        """Certified: sum_k |k| |Re d(k)| < infinity (1D)."""
        return False

    def re_decays_to_zero(self) -> bool:
        t = self.tail_info()
        return t is not None and t.base.real == 0.0

    def im_decays_to_zero(self) -> bool:
        t = self.tail_info()
        return t is not None and t.base.imag == 0.0


INT64_MIN, INT64_MAX = -2 ** 63, 2 ** 63 - 1


def _row_keys(rows) -> np.ndarray:
    """One void scalar per row of (m, nu) int64 coordinates, whose bytes
    order as the rows do lexicographically: big-endian, sign bit flipped."""
    keys = np.array(rows, dtype=">i8", order="C")
    keys.view(np.uint8).reshape(*keys.shape, 8)[..., 0] ^= 0x80
    return keys.view(np.dtype((np.void, 8 * keys.shape[1]))).ravel()


def _parity_mask(sites: np.ndarray, parity: str | None) -> np.ndarray | None:
    if parity is None:
        return None
    rem = 0 if parity == "even" else 1
    return (np.mod(sites[:, 0], 2) == rem)


@dataclass(frozen=True)
class TablePotential(PotentialSpec):
    """Finite table of site -> complex values; identically zero elsewhere."""

    entries: tuple[tuple[tuple[int, ...], complex], ...]
    kind: str = field(default="table", init=False)

    def __post_init__(self):
        raw = self.entries.items() if isinstance(self.entries, dict) else self.entries
        norm = tuple(
            (tuple(int(c) for c in site), complex(v)) for site, v in raw
        )
        norm = tuple(sorted(norm, key=lambda e: e[0]))
        seen = set()
        for site, _ in norm:
            if site in seen:
                raise ValueError(f"duplicate table site {site}")
            seen.add(site)
        if len({len(site) for site in seen}) > 1:
            raise ValueError("table sites must all have the same number of "
                             "coordinates")
        object.__setattr__(self, "entries", norm)

    @property
    def site_dim(self) -> int | None:
        return len(self.entries[0][0]) if self.entries else None

    @cached_property
    def _lookup(self) -> tuple[np.ndarray, np.ndarray]:
        """(row keys, values) of the entries whose sites are int64, in key
        order: the entries' site order (__post_init__).  An entry beyond
        int64 matches no site of an int64 array."""
        inside = [(site, v) for site, v in self.entries
                  if all(INT64_MIN <= c <= INT64_MAX for c in site)]
        if not inside:
            return np.empty(0, dtype=np.void), np.empty(0, np.complex128)
        return (_row_keys([site for site, _ in inside]),
                np.array([v for _, v in inside], dtype=np.complex128))

    @cached_property
    def support_radius(self) -> int:
        return max((sum(abs(c) for c in site) for site, v in self.entries if v != 0),
                   default=0)

    def values(self, sites: np.ndarray) -> np.ndarray:
        keys, vals = self._lookup
        out = np.zeros(len(sites), dtype=np.complex128)
        if not len(keys) or keys.dtype.itemsize != 8 * sites.shape[1]:
            return out
        query = _row_keys(sites)
        first = np.searchsorted(keys, query, side="left")
        hit = np.searchsorted(keys, query, side="right") > first
        out[hit] = vals[first[hit]]
        return out

    def tail_info(self):
        return TailInfo(radius=self.support_radius, base=0j)

    def im_support_parity(self):
        im_sites = [site for site, v in self.entries if v.imag != 0.0]
        if not im_sites:
            return "zero"
        if any(len(site) != 1 for site in im_sites):
            return None
        pars = {site[0] % 2 for site in im_sites}
        if pars == {0}:
            return "even"
        if pars == {1}:
            return "odd"
        return None

    def re_weighted_summable(self):
        return True


@dataclass(frozen=True)
class ConstantPotential(PotentialSpec):
    c: complex
    kind: str = field(default="constant", init=False)

    def __post_init__(self):
        object.__setattr__(self, "c", complex(self.c))

    def values(self, sites):
        return np.full(len(sites), self.c, dtype=np.complex128)

    def tail_info(self):
        return TailInfo(radius=0, base=self.c)

    def im_support_parity(self):
        return "zero" if self.c.imag == 0.0 else None

    def im_nonzero_infinite(self):
        return self.c.imag != 0.0

    def re_weighted_summable(self):
        return self.c.real == 0.0


def _check_parity(parity):
    if parity not in (None, "even", "odd"):
        raise ValueError(f"parity must be 'even', 'odd' or None, got {parity!r}")


@dataclass(frozen=True)
class PowerDecayPotential(PotentialSpec):
    """d(k) = amplitude / (1 + ||k||_1**exponent), optionally masked to one
    parity class of the first coordinate (zero on the other class)."""

    amplitude: complex
    exponent: float
    parity: str | None = None
    kind: str = field(default="decay_power", init=False)

    def __post_init__(self):
        object.__setattr__(self, "amplitude", complex(self.amplitude))
        object.__setattr__(self, "exponent", float(self.exponent))
        if self.exponent <= 0:
            raise ValueError("exponent must be positive")
        _check_parity(self.parity)

    def values(self, sites):
        # |n|^exponent beyond the float64 range makes the term 0, as in
        # DecayBound.at
        with np.errstate(over="ignore"):
            power = _norm1(sites).astype(np.float64) ** self.exponent
        out = self.amplitude / (1.0 + power)
        mask = _parity_mask(sites, self.parity)
        if mask is not None:
            out = np.where(mask, out, 0.0)
        return out.astype(np.complex128)

    def tail_info(self):
        a = self.amplitude
        return TailInfo(
            radius=0,
            base=0j,
            re_dev=_dev("power", abs(a.real), self.exponent),
            im_dev=_dev("power", abs(a.imag), self.exponent),
        )

    def im_support_parity(self):
        if self.amplitude.imag == 0.0:
            return "zero"
        return self.parity

    def im_nonzero_infinite(self):
        return self.amplitude.imag != 0.0

    def re_weighted_summable(self):
        return self.amplitude.real == 0.0 or self.exponent > 2.0


@dataclass(frozen=True)
class GeometricDecayPotential(PotentialSpec):
    """d(k) = amplitude * ratio**||k||_1 with |ratio| < 1, optional parity mask."""

    amplitude: complex
    ratio: float
    parity: str | None = None
    kind: str = field(default="decay_geometric", init=False)

    def __post_init__(self):
        object.__setattr__(self, "amplitude", complex(self.amplitude))
        object.__setattr__(self, "ratio", float(self.ratio))
        if not abs(self.ratio) < 1.0:
            raise ValueError("|ratio| must be < 1")
        _check_parity(self.parity)

    def values(self, sites):
        power = np.power(self.ratio, _norm1(sites).astype(np.float64))
        # numpy's complex product warns of an overflow for parts near
        # 1.8e308, although the values it returns are finite and exact
        with np.errstate(over="ignore"):
            out = self.amplitude * power
        mask = _parity_mask(sites, self.parity)
        if mask is not None:
            out = np.where(mask, out, 0.0)
        return out.astype(np.complex128)

    def tail_info(self):
        a, r = self.amplitude, abs(self.ratio)
        return TailInfo(
            radius=0,
            base=0j,
            re_dev=_dev("geometric", abs(a.real), r),
            im_dev=_dev("geometric", abs(a.imag), r),
        )

    def im_support_parity(self):
        if self.amplitude.imag == 0.0:
            return "zero"
        return self.parity

    def im_nonzero_infinite(self):
        return self.amplitude.imag != 0.0

    def re_weighted_summable(self):
        return True


@dataclass(frozen=True)
class Alternating1DPotential(PotentialSpec):
    """Purely imaginary 2-periodic potential on Z: Im d(n) = b_even on even n,
    b_odd on odd n; real part identically zero."""

    b_even: float
    b_odd: float
    kind: str = field(default="alternating_1d", init=False)
    site_dim = 1

    def __post_init__(self):
        object.__setattr__(self, "b_even", float(self.b_even))
        object.__setattr__(self, "b_odd", float(self.b_odd))

    def values(self, sites):
        if sites.shape[1] != 1:
            raise ValueError("alternating_1d only defined for nu=1")
        even = np.mod(sites[:, 0], 2) == 0
        return 1j * np.where(even, self.b_even, self.b_odd).astype(np.float64)

    def im_alternating(self):
        return (self.b_even, self.b_odd)

    def im_support_parity(self):
        if self.b_even == 0.0 and self.b_odd == 0.0:
            return "zero"
        if self.b_odd == 0.0:
            return "even"
        if self.b_even == 0.0:
            return "odd"
        return None

    def im_nonzero_infinite(self):
        return self.b_even != 0.0 or self.b_odd != 0.0

    def re_weighted_summable(self):
        return True

    def re_decays_to_zero(self):
        return True

    def tail_info(self):
        # with both values zero d is identically zero: the exact zero tail
        if self.b_even == 0.0 and self.b_odd == 0.0:
            return TailInfo(radius=0, base=0j)
        return None


SEED_LIMIT = 2 ** 128


def _draw(lo: float, hi: float, u: float) -> float:
    """lo + u (hi - lo) for u in [0, 1); where hi - lo overflows, a form
    with no infinite term, which stays in [lo, hi]."""
    if math.isfinite(hi - lo):
        return lo + u * (hi - lo)
    return lo * (1.0 - u) + hi * u


@dataclass(frozen=True)
class SeededRandomPotential(PotentialSpec):
    """Counter-based random values on a finite carrier box, zero outside.

    Each site's value depends only on (seed, site) via a Philox stream, so
    evaluation order, box shape, and vectorization cannot change it.
    """

    seed: int
    box: LatticeBox
    re_range: tuple[float, float]
    im_range: tuple[float, float]
    kind: str = field(default="seeded_random", init=False)

    def __post_init__(self):
        object.__setattr__(self, "seed", int(self.seed))
        object.__setattr__(self, "re_range", (float(self.re_range[0]), float(self.re_range[1])))
        object.__setattr__(self, "im_range", (float(self.im_range[0]), float(self.im_range[1])))
        if self.re_range[0] > self.re_range[1] or self.im_range[0] > self.im_range[1]:
            raise ValueError("ranges must be (lo, hi) with lo <= hi")
        if self.box.nu > 4:
            raise ValueError("seeded_random supports nu <= 4 (Philox counter width)")
        if not 0 <= self.seed < SEED_LIMIT:
            raise ValueError("seed must be >= 0 and < 2**128 (Philox key width)")

    def _site_value(self, site: tuple[int, ...]) -> complex:
        # an unsigned array: numpy turns a list holding ints >= 2**63 into
        # floats, which would round every such counter to 2**63
        counter = np.zeros(4, dtype=np.uint64)
        for j, c in enumerate(site):
            counter[j] = int(c) + (1 << 63)
        gen = np.random.Generator(np.random.Philox(key=self.seed, counter=counter))
        u = gen.random(2)
        return complex(_draw(*self.re_range, u[0]), _draw(*self.im_range, u[1]))

    @cached_property
    def _carrier_values(self) -> np.ndarray:
        """The carrier's values in box.shape: site k at k - (lo_0, lo_1, ...)."""
        box = self.box
        vals = np.array([self._site_value(s) for s in map(tuple, box.sites)],
                        dtype=np.complex128).reshape(box.shape)
        vals.setflags(write=False)
        return vals

    @property
    def site_dim(self) -> int:
        return self.box.nu

    def values(self, sites):
        sites = np.asarray(sites)
        if sites.ndim != 2 or sites.shape[1] != self.box.nu:
            raise ValueError(f"sites of shape {sites.shape} given, the carrier "
                             f"box has nu={self.box.nu}")
        lo, hi = np.array(self.box.ranges, dtype=np.int64).T
        inside = ((sites >= lo) & (sites <= hi)).all(axis=1)
        out = np.zeros(len(sites), dtype=np.complex128)
        out[inside] = self._carrier_values[tuple((sites[inside] - lo).T)]
        return out

    @cached_property
    def support_radius(self) -> int:
        corners = self.box.sites
        return int(np.abs(corners).sum(axis=1).max()) if len(corners) else 0

    def tail_info(self):
        return TailInfo(radius=self.support_radius, base=0j)

    def im_support_parity(self):
        nonzero = np.flatnonzero(self._carrier_values.imag != 0.0)
        if not len(nonzero):
            return "zero"
        if self.box.nu != 1:
            return None
        pars = set(((nonzero + self.box.ranges[0][0]) % 2).tolist())
        return {frozenset({0}): "even", frozenset({1}): "odd"}.get(frozenset(pars))

    def re_weighted_summable(self):
        return True


@dataclass(frozen=True)
class SumPotential(PotentialSpec):
    terms: tuple[PotentialSpec, ...]
    kind: str = field(default="sum", init=False)

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))
        if not self.terms:
            raise ValueError("sum potential needs at least one term")
        if len({t.site_dim for t in self.terms} - {None}) > 1:
            raise ValueError("sum terms are declared on lattices of different "
                             "dimensions")

    @property
    def site_dim(self) -> int | None:
        return next((t.site_dim for t in self.terms
                     if t.site_dim is not None), None)

    def values(self, sites):
        out = np.zeros(len(sites), dtype=np.complex128)
        for t in self.terms:
            term = t.values(sites)
            # an infinite sum of finite terms is refused downstream (exit 3)
            with np.errstate(over="ignore"):
                out += term
        return out

    def tail_info(self):
        tails = [t.tail_info() for t in self.terms]
        if any(t is None for t in tails):
            return None
        radius = max(t.radius for t in tails)
        base = sum((t.base for t in tails), 0j)
        re_dev = tuple(b for t in tails for b in t.re_dev)
        im_dev = tuple(b for t in tails for b in t.im_dev)
        return TailInfo(radius=radius, base=base, re_dev=re_dev, im_dev=im_dev)

    def im_alternating(self):
        alt = None
        shift = 0.0
        for t in self.terms:
            if isinstance(t, Alternating1DPotential):
                if alt is not None:
                    return None
                alt = t.im_alternating()
            elif isinstance(t, ConstantPotential):
                shift += t.c.imag
            elif t.im_support_parity() == "zero":
                continue
            else:
                return None
        if alt is None:
            return None
        return (alt[0] + shift, alt[1] + shift)

    def im_support_parity(self):
        pars = {p for p in (t.im_support_parity() for t in self.terms) if p != "zero"}
        if not pars:
            return "zero"
        if None in pars or len(pars) > 1:
            return None
        return pars.pop()

    def im_nonzero_infinite(self):
        alt = self.im_alternating()
        if alt is not None and (alt[0] != 0.0 or alt[1] != 0.0):
            return True
        live = [t for t in self.terms if t.im_support_parity() != "zero"]
        if len(live) == 1:
            return live[0].im_nonzero_infinite()
        return False

    def re_weighted_summable(self):
        return all(t.re_weighted_summable() for t in self.terms)

    def re_decays_to_zero(self):
        return all(t.re_decays_to_zero() for t in self.terms)

    def im_decays_to_zero(self):
        return all(t.im_decays_to_zero() for t in self.terms)


# ---------------------------------------------------------------------------
# assembled operator


# Operators whose scale lies in this range are handed to LAPACK as they are.
LAPACK_UNSCALED = (2.0 ** -64, 2.0 ** 64)


class Operator(abc.ABC):
    """A square complex matrix A as the rest of the package reads it: its
    size, diagonal and norm, the products A f and A* f of blocks of vectors,
    and its dense blocks written into a caller's buffers.  `diagonal` is A's
    diagonal (complex128, n), `matrix` is A as an n x n array and `box`
    the lattice box A was assembled on (None for an explicit matrix).
    `swap` is None, or the exchange of two axes of the box that A commutes
    with, with its even and odd sites (LatticeOperator.swap).
    `normal_shift` is None, or the constant c = Im a_kk of an operator
    whose type makes it normal with Im A = c I (LatticeOperator.normal_shift):
    no entries are scanned to find it."""

    box: LatticeBox | None
    diagonal: np.ndarray
    swap = None
    normal_shift = None

    @property
    @abc.abstractmethod
    def dim(self) -> int:
        """n, the number of rows and columns."""

    @property
    @abc.abstractmethod
    def frobenius(self) -> float:
        """||A||_F, inf only when the norm itself exceeds the float64 range."""

    @property
    @abc.abstractmethod
    def finite(self) -> bool:
        """Every entry of A is finite."""

    @property
    @abc.abstractmethod
    def scale(self) -> float:
        """The power of two s with max |Re a_ij|, |Im a_ij| over A in
        [s, 2 s) (pow2_floor; 2^-1022 when that max is subnormal): A / s
        has no entry part beyond 2 and f / s is finite for |f| <= 1, so no
        product or norm formed on them overflows while ||A||_F is finite,
        and dividing by s is exact."""

    @property
    def lapack_scale(self) -> float:
        """The power of two that linalg.eig_general divides A by before
        LAPACK's ?geev: 1 while scale lies in [2^-64, 2^64], so its answers
        keep the bits of A's own solve, scale itself beyond.  ?geev scales a
        matrix whose largest entry lies outside about [1e-138, 1e138] by
        itself, and the ?geev of the OpenBLAS 0.3.30 that scipy bundles does
        not undo it (it returns the eigenvalues of 1e160 as 1.5e138)."""
        s = self.scale
        return 1.0 if LAPACK_UNSCALED[0] <= s <= LAPACK_UNSCALED[1] else s

    @abc.abstractmethod
    def apply(self, f: np.ndarray) -> np.ndarray:
        """A f_j as rows, for the rows f_j of the (k, n) block f: the first
        of products(f), with the same bits."""

    @abc.abstractmethod
    def products(self, f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(A f_j, A* f_j) as rows, for the rows f_j of the (k, n) block f."""

    @abc.abstractmethod
    def fill_blocks(self, swap, even: np.ndarray, odd: np.ndarray) -> None:
        """Write A's blocks on the even and odd vectors of the exchange swap
        (self.swap, or trivial_swap(n), on which even is A itself and odd
        is empty) into the square complex128 arrays even and odd."""


@dataclass(frozen=True)
class OperatorMatrix(Operator):
    """Explicit dense complex matrix: the storage of every operator that is
    not assembled on a box."""

    matrix: np.ndarray
    box = None

    def __post_init__(self):
        m = np.array(self.matrix, dtype=np.complex128, order="C")
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("matrix must be square")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def diagonal(self) -> np.ndarray:
        return np.diagonal(self.matrix)

    @cached_property
    def frobenius(self) -> float:
        return frobenius_norm(self.matrix)

    @cached_property
    def finite(self) -> bool:
        return bool(np.isfinite(self.matrix).all())

    @cached_property
    def scale(self) -> float:
        return pow2_floor(float(np.abs(self.matrix.view(np.float64)).max()))

    def apply(self, f):
        return f @ self.matrix.T

    def products(self, f):
        # A* f without copying A
        return self.apply(f), (f.conj() @ self.matrix).conj()

    def fill_blocks(self, swap, even, odd):
        # an explicit matrix has no swap: its one block is A
        even[...] = self.matrix


@dataclass(frozen=True)
class LatticeOperator(Operator):
    """A = J + diag(d) on a box, stored as the box and d alone: J is the
    box's nearest-neighbour hopping (entry 1 for each pair of sites at
    l1-distance one, hops leaving the box dropped), real and symmetric, so
    A* = J + diag(conj d).  Products are a stencil over box.shape, O(n nu)
    per vector; `matrix` is built on each read and not kept."""

    box: LatticeBox
    diagonal: np.ndarray

    def __post_init__(self):
        d = np.array(self.diagonal, dtype=np.complex128)
        if d.shape != (self.box.site_count,):
            raise ValueError(f"diagonal of shape {d.shape} given, the box "
                             f"has {self.box.site_count} sites")
        d.setflags(write=False)
        object.__setattr__(self, "diagonal", d)

    @property
    def dim(self) -> int:
        return self.box.site_count

    @cached_property
    def edges(self) -> int:
        """The number of hopping pairs: n (L_j - 1) / L_j along axis j."""
        n = self.dim
        return sum(n // side * (side - 1) for side in self.box.shape)

    @cached_property
    def frobenius(self) -> float:
        return frobenius_norm(np.concatenate([self.diagonal,
                                              np.ones(2 * self.edges)]))

    @cached_property
    def finite(self) -> bool:
        return bool(np.isfinite(self.diagonal).all())

    @cached_property
    def scale(self) -> float:
        d = float(np.abs(self.diagonal.view(np.float64)).max())
        return pow2_floor(max(d, 1.0) if self.edges else d)

    @cached_property
    def bandwidth(self) -> int:
        """The largest |i - j| over the hopping pairs (i, j): the largest
        stride among the axes longer than 1 (0 for a single site), so an
        L x 1 box is a chain."""
        return max((s for s, side in zip(self.box.strides, self.box.shape)
                    if side > 1), default=0)

    def hops(self):
        """(stride, i) per axis longer than 1: i are the sites whose
        neighbour i + stride along that axis is in the box."""
        idx = np.arange(self.dim).reshape(self.box.shape)
        for axis, (stride, side) in enumerate(zip(self.box.strides,
                                                  self.box.shape)):
            if side > 1:
                yield stride, np.moveaxis(idx, axis, 0)[:-1].ravel()

    def _hop(self, f):
        """J f_j as rows, a new array: the stencil over box.shape."""
        g = f.reshape((len(f),) + self.box.shape)
        jf = np.zeros_like(g)
        for axis in range(1, g.ndim):
            head = (slice(None),) * axis
            jf[head + (slice(None, -1),)] += g[head + (slice(1, None),)]
            jf[head + (slice(1, None),)] += g[head + (slice(None, -1),)]
        return jf.reshape(f.shape)

    def apply(self, f):
        af = self._hop(f)
        af += self.diagonal * f
        return af

    def products(self, f):
        jf = self._hop(f)
        return jf + self.diagonal * f, jf + self.diagonal.conj() * f

    @cached_property
    def normal_shift(self) -> float | None:
        """c when Im d is the constant c on the box (+0.0 for c = -0.0),
        else None.  [Re A, Im A] = [J, diag(Im d)] has the entry
        Im d(j) - Im d(i) at each hop (i, j), and the hops connect the box,
        so A is normal exactly then: its eigenpairs are (mu + i c, u) for
        the eigenpairs (mu, u) of the real symmetric Re A = J + diag(Re d),
        every eigenvector reducing A."""
        im = self.diagonal.imag
        c = float(im[0])
        return c + 0.0 if np.all(im == c) else None

    @cached_property
    def swap(self) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
        """(sigma, even, odd) for the first two axes of the box that have
        the same range, longer than one site, and whose exchange leaves d
        exactly as it is; None when no two axes do.  sigma[k] is the index
        of site k with those two coordinates exchanged: the box and its
        hops are symmetric under sigma, so A commutes with it.  even holds
        the sites k <= sigma[k] and odd the sites k < sigma[k], ascending:
        the sites that index the blocks of fill_blocks."""
        box, d = self.box, self.diagonal
        k = np.arange(self.dim)
        for a, b in itertools.combinations(range(box.nu), 2):
            if box.ranges[a] != box.ranges[b] or box.shape[a] == 1:
                continue
            sigma = np.swapaxes(k.reshape(box.shape), a, b).ravel()
            if np.array_equal(d[sigma], d):
                return (sigma, np.flatnonzero(sigma >= k),
                        np.flatnonzero(sigma > k))
        return None

    def fill_blocks(self, swap, even, odd):
        """Write A's blocks on the even and odd vectors of the exchange swap
        into the square arrays even and odd (Re A's into float64 ones), one
        row and column per even and odd site of swap.  Column j of even is
        A u_j in the basis u_j = e_k + e_sigma(k) (e_k when k = sigma(k)),
        k the j-th even site, read off at the even sites; odd is the same
        in the basis e_k - e_sigma(k) at the odd sites.  Every entry is
        d(k) or a sum of at most two hops (+1 or -1), since no hop joins k
        and sigma(k), so it is exact; on trivial_swap(n) even is A (Re A)
        entry for entry, and odd is empty."""
        sigma, ev, od = swap
        n = self.dim
        k = np.arange(n)
        rep = np.minimum(k, sigma)
        # the sign of site k in the odd basis vector of its pair: +1 at the
        # odd sites, -1 at their images, 0 at the fixed points
        sign = np.sign(sigma - k).astype(np.float64)
        # A[row, col] = 1 over the hops (i, j), both directions; a single
        # site has none
        hops = list(self.hops())
        i = np.concatenate([k[:0]] + [lo for _, lo in hops])
        j = np.concatenate([k[:0]] + [lo + s for s, lo in hops])
        row, col = np.concatenate([i, j]), np.concatenate([j, i])
        for buf, sites, value in ((even, ev, np.ones(len(col))),
                                  (odd, od, sign[col])):
            # at[k]: the row and column of basis site k, -1 off the basis
            at = np.full(n, -1)
            at[sites] = np.arange(len(sites))
            r, c = at[row], at[rep[col]]
            keep = (r >= 0) & (c >= 0)
            buf[...] = 0.0
            np.add.at(buf, (r[keep], c[keep]), value[keep])
            j = np.arange(len(sites))
            d = self.diagonal if buf.dtype.kind == "c" else self.diagonal.real
            buf[j, j] = d[sites]

    @property
    def matrix(self) -> np.ndarray:
        m = np.empty((self.dim, self.dim), dtype=np.complex128)
        self.fill_blocks(trivial_swap(self.dim), m, m[:0, :0])
        m.setflags(write=False)
        return m


def trivial_swap(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(sigma, even, odd) of the identity exchange on n sites: every site
    is fixed, so the even block is A itself and the odd block is empty."""
    k = np.arange(n)
    return k, k, k[:0]


def pow2_floor(x: float) -> float:
    """The power of two s with s <= x < 2 s, for finite x >= 2^-1022 (0.5
    at 0).  A subnormal x gets 2^-1022, the smallest normal power of two,
    whose reciprocal is finite: 1 / x overflows for x below 2^-1024."""
    return float(np.ldexp(1.0, max(int(np.frexp(x)[1]) - 1, -1022)))


def frobenius_norm(m: np.ndarray) -> float:
    """The 2-norm of m's entries (||m||_F for a matrix), inf only when the
    norm itself exceeds the float64 range.  The plain sum of squares
    overflows once an entry passes about 1e154; the norm of m scaled by its
    largest modulus does not."""
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(m))
    if norm == np.inf:
        scale = float(np.abs(m).max())
        if scale < np.inf:
            norm = scale * float(np.linalg.norm(m / scale))
    return norm


def as_operator(op) -> Operator:
    """op itself if it is an Operator, else an explicit OperatorMatrix of
    the array-like op."""
    return op if isinstance(op, Operator) else OperatorMatrix(op)


def check_dimension(box: LatticeBox, max_dim: int | None = None) -> None:
    """Refuse boxes of more than max_dim sites (default DEFAULT_MAX_DIM)."""
    limit = DEFAULT_MAX_DIM if max_dim is None else int(max_dim)
    n = box.site_count
    if n > limit:
        raise DimensionLimitError(
            f"box has {n} sites, exceeding the dimension cap {limit}; "
            f"raise max_dim explicitly to proceed",
            where="model.check_dimension",
        )


def assemble(box: LatticeBox, potential: PotentialSpec,
             max_dim: int | None = None) -> LatticeOperator:
    """Dirichlet truncation of hopping + diagonal potential to the box.

    Off-diagonal entries are 1 exactly for site pairs at l1-distance one
    inside the box; hops leaving the box are dropped.  The operator keeps
    the box and the potential's values d on it, O(n) storage; no n x n
    array is formed.  Refuses boxes of more than max_dim sites.
    """
    if potential.site_dim not in (None, box.nu):
        raise ValueError(f"{potential.kind} potential is declared on "
                         f"nu={potential.site_dim}, the box has nu={box.nu}")
    check_dimension(box, max_dim)
    return LatticeOperator(box, potential.values(box.sites))
