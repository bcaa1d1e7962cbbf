"""Star bodies and star-shaped sets in the three model spaces.

A body is a space plus a radial profile on the direction sphere.  Profiles
are immutable.  Indicator-type profiles (cones, radial steps) carry an
analytic base so that their volumes and great-subsphere sections are
computed exactly, never by smoothing a discontinuous integrand through a
polynomial quadrature rule.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import (
    ApplicabilityError,
    DomainError,
    PitchSelectionError,
    RadiusRangeError,
    ResourceLimitError,
    SolverError,
)
from .harmonics import ZonalHarmonic, zonal_harmonic
from .quadrature import gauss_jacobi, polar_rule
from .spaces import (
    HEMISPHERE_MAX_RADIUS,
    SpaceSpec,
    as_direction,
    basis_vector,
    brent_root,
    phi,
    read_only,
    sphere_surface_area,
)

TWO_PI = 2.0 * math.pi

# The format of every JSON document and CSV table the library writes.
FORMAT_VERSION = "2"


# ---------------------------------------------------------------------------
# analytic band measures on spheres


def _band_primitive(q: float, t):
    """Antiderivative of (1 - u^2)^q vanishing at 0, for q in {-1/2, 0, 1/2, 1, ...}
    and t in [-1, 1].  At q = 0 it is t itself, not a copy."""
    t = np.asarray(t, dtype=float)
    if q == 0.0:
        return t
    p = np.empty_like(t)
    _primitive_in_place(q, t, p, np.empty_like(t) if q > 0 else None)
    return p


def _primitive_in_place(q: float, t: np.ndarray, p: np.ndarray, scratch) -> None:
    """Write _band_primitive(q, t) into p by its own float operations, in
    place: the arcsine or the copy at the base, then one recursion step per
    unit of q.  t is kept unless p is t, which q <= 0 allows; scratch is
    used when q > 0."""
    base = -0.5 if q % 1.0 else 0.0
    if base:
        np.arcsin(t, out=p)
    elif p is not t:
        np.copyto(p, t)
    for i in range(int(q - base)):
        qi = base + 1.0 + i
        np.square(t, out=scratch)
        np.subtract(1.0, scratch, out=scratch)
        scratch **= qi
        scratch *= t
        p *= 2.0 * qi
        p += scratch
        p /= 2.0 * qi + 1.0


def sphere_band_measure(m: int, lo, hi):
    """Measure of the band {x in S^m : lo <= <x, u> <= hi} for any unit u.

    Exact in closed form.  ``lo``/``hi`` may be arrays (broadcast together).
    m = 0 is the two-point sphere with counting measure.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if m == 0:
        inside = lambda t: (lo <= t) & (t <= hi)  # noqa: E731
        out = inside(1.0) * 1.0 + inside(-1.0) * 1.0
        return out if out.ndim else float(out)
    # np.clip's values at a fraction of its call overhead, which would dominate
    # on the chunk-sized arrays of BandsBase.section_measures
    lo_c = np.minimum(np.maximum(lo, -1.0), 1.0)
    hi_c = np.minimum(np.maximum(hi, -1.0), 1.0)
    q = (m - 2) / 2.0
    out = sphere_surface_area(m - 1) * np.maximum(
        _band_primitive(q, hi_c) - _band_primitive(q, lo_c), 0.0
    )
    return out if out.ndim else float(out)


def spherical_cap_measure(sphere_dim: int, height: float) -> float:
    """Measure of the cap {x in S^m : <x, u> >= height}."""
    return float(sphere_band_measure(sphere_dim, height, 1.0))


# ---------------------------------------------------------------------------
# cone bases, BandsBase and ArcsBase: subsets of S^{n-1} with exact measures


def _band_chunk(m: int) -> int:
    """How many bands one partial sum on S^m adds, and how many band values
    a small base's sections take at once.  The chunks fix the order of the
    sum, so the values do not depend on how many chunks a numpy pass
    evaluates (see _band_block).  sphere_band_measure keeps at most
    m // 2 + 8 arrays of its input's size alive at once; at a chunk each
    they stay under 128 KB together (16384 floats)."""
    return 16384 // (m // 2 + 8)


def _band_block(m: int) -> tuple[int, int]:
    """How many buffers a band sum on S^m, m >= 1, evaluates in place, and how
    many bands (whole chunks) each holds.  q = (m - 2) / 2 <= 0 takes the
    two edge arrays, which become their primitives; q > 0 takes the two
    primitives, the edges and a scratch array.  Together the buffers stay
    under 16384 floats less one chunk, glibc's default mmap and trim
    threshold of 128 KB less room for the sums: no sum maps, unmaps or trims
    memory, and the timing does not depend on what else the process holds."""
    chunk = _band_chunk(m)
    buffers = 2 if m <= 2 else 4
    return buffers, (16384 // chunk - 1) // buffers * chunk


class BandsBase:
    """Disjoint union of bands {lo_k <= <x, axis> <= hi_k} on S^{n-1}.

    A base whose bands are exactly their own mirror image (the band (-hi, -lo)
    of each band, as floats) is mirrored: the flag is decided once, from the
    arrays, and the measure and every section sum add only the upper half.
    So a mirrored base of K bands keeps only that half, the bands from K // 2
    on: when K is odd, the middle band, its own mirror, comes first.  ``los``
    and ``his`` are the whole union, built read-only each time they are read;
    only ``descriptor``, ``contains``, a small base's sections and
    ``bands_to_arcs`` read them.  Any other base keeps its bands as given,
    sorted.  ``len`` is the number of bands K.
    """

    axis: np.ndarray
    meta: dict

    def __init__(self, axis, los, his, meta=None):
        axis = as_direction(axis).copy()
        los = np.asarray(los, dtype=float)
        his = np.asarray(his, dtype=float)
        if los.shape != his.shape or los.ndim != 1:
            raise DomainError("band bounds must be matching 1-d arrays")
        if not np.all(los <= his):
            raise DomainError("band upper bounds must dominate lower bounds, and no edge may be NaN")
        if np.any(los[1:] < los[:-1]):
            order = np.argsort(los)
            los, his = los[order], his[order]
        if np.any(los[1:] < his[:-1] - 1e-15):
            raise DomainError("bands must be disjoint")
        # the running maximum of the upper edges, which bounds the section
        # windows; bands may overlap by the disjointness tolerance, so the
        # upper edges themselves need not be sorted
        his_max = np.maximum.accumulate(his) if np.any(his[1:] < his[:-1]) else his
        # every edge lies between the lowest lower edge and the highest upper one
        if len(los) and not (math.isfinite(los[0]) and math.isfinite(his_max[-1])):
            raise DomainError("band edges must be finite")
        count = len(los)
        # -A has bands [-hi, -lo] in reverse order.  A = -A as floats when
        # -his[::-1] == los; read backwards, that is also -los[::-1] == his,
        # so the upper edges ascend and are their own running maximum
        mirrored = bool(np.array_equal(-his[::-1], los))
        # the upper half rebuilds the lower one bit for bit unless an edge
        # there is a zero of the other sign than its mirror's; such a base
        # keeps every band
        lower = count // 2
        if mirrored and np.array_equal(np.signbit(los[:lower]), ~np.signbit(his[::-1][:lower])) \
                and np.array_equal(np.signbit(his[:lower]), ~np.signbit(los[::-1][:lower])):
            los, his = los[lower:], his[lower:]
        self._keep(axis, los.copy(), his.copy(), None, count, mirrored, {} if meta is None else meta)

    @classmethod
    def _kept(cls, axis, los, his, count, mirrored, meta) -> "BandsBase":
        """The base of count bands that keeps los and his, ascending, as they
        are: every band, or the upper half of a mirrored base.  No check."""
        base = object.__new__(cls)
        base._keep(axis, los, his, his, count, mirrored, meta)
        return base

    def _keep(self, axis, los, his, his_max, count, mirrored, meta) -> None:
        if his_max is None:
            his_max = np.maximum.accumulate(his) if np.any(his[1:] < his[:-1]) else his
        self.axis, self.meta = axis, meta
        self._los, self._his, self._his_max = los, his, his_max
        # the kept bands are [_offset, count) of the union
        self._count, self._offset, self._mirrored = count, count - len(los), mirrored
        for arr in (axis, los, his, his_max):
            arr.setflags(write=False)

    def __len__(self) -> int:
        return self._count

    @property
    def los(self) -> np.ndarray:
        return self._union(self._los, self._his)

    @property
    def his(self) -> np.ndarray:
        return self._union(self._his, self._los)

    def _union(self, kept, mirror) -> np.ndarray:
        """One edge array of the whole union: kept itself, or below it the
        negated other edges of the upper half, read backwards."""
        lower = self._offset
        if not lower:
            return kept
        out = np.empty(self._count)
        np.negative(mirror[::-1][:lower], out=out[:lower])
        out[lower:] = kept
        return read_only(out)

    @property
    def ambient_dim(self) -> int:
        return self.axis.shape[0]

    @property
    def measure(self) -> float:
        return self._window_sum(self.ambient_dim - 1, 0, len(self))

    def contains(self, dirs) -> np.ndarray:
        dirs = np.atleast_2d(np.asarray(dirs, dtype=float))
        t = dirs @ self.axis
        edges = np.empty(2 * len(self))
        edges[0::2] = self.los
        edges[1::2] = self.his
        idx = np.searchsorted(edges, t, side="right")
        return idx % 2 == 1

    def section_measures(self, c) -> np.ndarray:
        """The measures of the sections by xi-perp, one per element of the
        1-d array c = <xi, axis>: a section depends on xi through c alone."""
        c = np.atleast_1d(np.asarray(c, dtype=float))
        m_sub = self.ambient_dim - 2
        s = np.sqrt(np.maximum(0.0, 1.0 - c ** 2))
        out = np.empty(len(c))
        degenerate = s < 1e-15
        if np.any(degenerate):
            start, stop = self._windows(np.zeros(1))
            out[degenerate] = sphere_surface_area(m_sub) if start[0] < stop[0] else 0.0
        rows = np.flatnonzero(~degenerate)
        chunk = _band_chunk(m_sub)
        k = len(self)
        if k <= chunk:
            # a small base: all its bands against a block of rows at once
            block = chunk // max(1, k)
            los, his = self.los[None, :], self.his[None, :]
            for start in range(0, len(rows), block):
                todo = rows[start : start + block]
                sv = s[todo, None]
                vals = sphere_band_measure(m_sub, los / sv, his / sv)
                out[todo] = np.sum(vals, axis=1)
        else:
            # a large base: only the window of bands that meets [-s, s] adds
            # anything (every other band adds exactly 0)
            for i, start, stop in zip(rows, *self._windows(s[rows])):
                out[i] = self._window_sum(m_sub, int(start), int(stop), s[i])
        return out

    def _window_sum(self, m: int, start: int, stop: int, s=1.0) -> float:
        """The measures on S^m of the bands [start, stop), edges divided by s,
        summed in chunks whose sums math.fsum adds; _chunk_sums evaluates a
        block of chunks per numpy pass, in buffers allocated once per call.

        The windows of a mirrored base of K bands are symmetric (start =
        K - stop, as every section window and the whole base are), so it sums
        only their upper half and doubles it, and adds a middle band, its own
        mirror, once.
        """
        if not self._mirrored:
            return math.fsum(self._chunk_sums(m, s, (start, stop))[0])
        k = len(self)
        half = (k + 1) // 2     # the upper half; band k // 2 is the middle when k is odd
        middle, upper = self._chunk_sums(m, s, (max(start, k // 2), min(stop, half)),
                                         (max(start, half), stop))
        return math.fsum(middle + [2.0 * v for v in upper])

    def _chunk_sums(self, m: int, s, *spans) -> list[list[float]]:
        """For each span [a, b) of bands the base keeps, the sum of each of its
        chunks of _band_chunk(m) bands on S^m, edges divided by s.

        A numpy pass evaluates a block of whole chunks: the edges are divided
        into buffers allocated once per call (_band_block), clipped to
        [-1, 1] only where the block's extreme edges, los[j] and the running
        maximum of the upper edges, fall outside it, and taken through
        sphere_band_measure's float operations in place.  Each chunk's sum is
        one row of a (rows, chunk) view, so every sum is bit for bit the
        chunk's own sphere_band_measure(...).sum().  m = 0, the two-point
        sphere, takes sphere_band_measure per chunk.

        At q = 0 the primitives are the edges themselves, divided and
        clipped, which keep the order his >= los: their difference needs no
        np.maximum.  (A band [0.0, -0.0] gives -0.0 where np.maximum gave
        0.0; numpy's sum of a chunk gives 0.0 for it all the same.)  At
        s = 1.0 with no clip, the stored edges are subtracted directly.
        """
        chunk = _band_chunk(m)
        los, his, his_max = self._los, self._his, self._his_max
        spans = [(a - self._offset, b - self._offset) for a, b in spans]
        if m == 0:
            return [[float(sphere_band_measure(m, los[j : min(j + chunk, b)] / s,
                                               his[j : min(j + chunk, b)] / s).sum())
                     for j in range(a, b, chunk)] for a, b in spans]
        q = (m - 2) / 2.0
        area = sphere_surface_area(m - 1)
        buffers, block = _band_block(m)
        bufs = np.empty((buffers, max(0, min(block, max(b - a for a, b in spans)))))
        # rows: the primitives at the upper and lower edges, then (q > 0) the
        # edges and the scratch array; at q <= 0 the edges become their primitives
        p_hi, p_lo = bufs[0], bufs[1]
        t_hi, t_lo, scratch = (bufs[2], bufs[2], bufs[3]) if buffers == 4 else (p_hi, p_lo, None)
        out = []
        for a, b in spans:
            sums = []
            for j in range(a, b, block):
                e = min(j + block, b)
                n = e - j
                clip = los[j] / s < -1.0 or his_max[e - 1] / s > 1.0
                vals = p_hi[:n]
                if q == 0.0 and s == 1.0 and not clip:
                    # the edges are their own primitives, and x / 1.0 is x
                    np.subtract(his[j:e], los[j:e], out=vals)
                else:
                    for edges, t, p in ((his, t_hi, p_hi), (los, t_lo, p_lo)):
                        t, p = t[:n], p[:n]
                        np.divide(edges[j:e], s, out=t)
                        if clip:
                            np.maximum(t, -1.0, out=t)
                            np.minimum(t, 1.0, out=t)
                        _primitive_in_place(q, t, p, None if scratch is None else scratch[:n])
                    np.subtract(vals, p_lo[:n], out=vals)
                    if q:
                        np.maximum(vals, 0.0, out=vals)
                vals *= area
                whole = n - n % chunk
                sums += vals[:whole].reshape(-1, chunk).sum(axis=1).tolist()
                if whole < n:
                    sums.append(float(vals[whole:].sum()))
            out.append(sums)
        return out

    def _windows(self, svals):
        """For each s, the bands [start, stop) that meet [-s, s]: those before
        start lie below -s and those from stop on lie above s.  A mirrored
        base's window is symmetric, start = K - stop: a band lies below -s
        exactly when its mirror lies above s."""
        stop = self._offset + np.searchsorted(self._los, svals, side="right")
        if self._mirrored:
            return len(self) - stop, stop
        return np.searchsorted(self._his_max, -svals, side="left"), stop

    def is_origin_symmetric(self) -> bool:
        return self._mirrored

    def descriptor(self) -> dict:
        return {
            "kind": "bands",
            "axis": self.axis.tolist(),
            "los": self.los.tolist(),
            "his": self.his.tolist(),
        }


def cap_base(axis, height: float) -> BandsBase:
    """The spherical cap {<x, axis> >= height} as a one-band base."""
    if not -1.0 < height < 1.0:
        raise DomainError("cap height must lie in (-1, 1)")
    return BandsBase(np.asarray(axis, dtype=float), np.array([height]), np.array([1.0]))


def full_sphere_base(n: int) -> BandsBase:
    axis = basis_vector(n)
    return BandsBase(axis, np.array([-1.0]), np.array([1.0]))


def equality_cone_base(n: int, height: float) -> BandsBase:
    """Base realizing the sharp-minimum equality type in dimension n >= 3.

    Takes the cap {t >= height} together with the reflection of its
    complement within the upper half {0 < t < height}, i.e. the band
    {-height < t < 0}.  For almost every direction exactly one of u, -u
    belongs to the base, so all its great-subsphere sections have measure
    |S^{n-2}| / 2.
    """
    if not 0.0 < height < 1.0:
        raise DomainError("height must lie in (0, 1)")
    return BandsBase(basis_vector(n), np.array([-height, height]), np.array([0.0, 1.0]))


def _normalize_arcs(arcs) -> list[tuple[float, float]]:
    out = []
    for a, b in arcs:
        a = float(a)
        b = float(b)
        if not a < b:
            raise DomainError("arc endpoints must satisfy a < b")
        if b - a > TWO_PI + 1e-12:
            raise DomainError("arc longer than the whole circle")
        a_mod = a % TWO_PI
        shift = a_mod - a
        b_mod = b + shift
        if b_mod <= TWO_PI:
            out.append((a_mod, b_mod))
        else:
            out.append((a_mod, TWO_PI))
            out.append((0.0, b_mod - TWO_PI))
    out.sort()
    for (a1, b1), (a2, _) in zip(out, out[1:]):
        if a2 < b1 - 1e-12:
            raise DomainError("arcs must be disjoint")
    return out


def _joined(arcs) -> list[tuple[float, float]]:
    """Sorted arcs with those that meet or overlap, as floats, made one."""
    out = []
    for a, b in arcs:
        if out and a <= out[-1][1]:
            out[-1] = (out[-1][0], max(b, out[-1][1]))
        else:
            out.append((a, b))
    return out


@dataclass(frozen=True)
class ArcsBase:
    """Union of disjoint arcs of S^1, given as angle intervals in [0, 2pi)."""

    arcs: tuple

    def __post_init__(self):
        object.__setattr__(self, "arcs", tuple(_normalize_arcs(self.arcs)))

    ambient_dim = 2

    @property
    def measure(self) -> float:
        return float(sum(b - a for a, b in self.arcs))

    def _contains_angle(self, theta):
        theta = np.asarray(theta, dtype=float) % TWO_PI
        hit = np.zeros(theta.shape, dtype=bool)
        for a, b in self.arcs:
            hit |= (theta >= a - 1e-14) & (theta <= b + 1e-14)
        return hit

    def contains(self, dirs) -> np.ndarray:
        dirs = np.atleast_2d(np.asarray(dirs, dtype=float))
        return self._contains_angle(np.arctan2(dirs[:, 1], dirs[:, 0]))

    def section_measures(self, xis) -> np.ndarray:
        # the subsphere of xi is the two points at its polar angle +- pi/2
        xis = np.atleast_2d(np.asarray(xis, dtype=float))
        theta = np.arctan2(xis[:, 1], xis[:, 0])
        hits = self._contains_angle(np.stack([theta + math.pi / 2, theta - math.pi / 2]))
        return np.sum(hits, axis=0).astype(float)

    def reflected(self) -> "ArcsBase":
        return ArcsBase(tuple((a + math.pi, b + math.pi) for a, b in self.arcs))

    def intersection_measure(self, other: "ArcsBase") -> float:
        total = 0.0
        for a1, b1 in self.arcs:
            for a2, b2 in other.arcs:
                total += max(0.0, min(b1, b2) - max(a1, a2))
        return total

    def is_origin_symmetric(self) -> bool:
        """Whether the arcs equal their mirror as floats.  Cut at pi, the arcs
        below it must pair off, in order, with those above it.  An end x below
        and an end y above pair when y = x + pi, x = y + pi - 2 pi or
        y = x + 2 pi + pi - 2 pi, each rounded as written: the ends that arcs
        written as (a, b) and (a + pi, b + pi), with a in [0, 2 pi), have once
        normalized."""
        lower = _joined([(a, min(b, math.pi)) for a, b in self.arcs if a < math.pi])
        upper = _joined([(max(a, math.pi), b) for a, b in self.arcs if b > math.pi])

        def mirrored(x, y):
            return (x + math.pi == y or y + math.pi - TWO_PI == x
                    or x + TWO_PI + math.pi - TWO_PI == y)
        return len(lower) == len(upper) and all(
            mirrored(a, c) and mirrored(b, d) for (a, b), (c, d) in zip(lower, upper))

    def descriptor(self) -> dict:
        return {"kind": "arcs", "arcs": [list(ab) for ab in self.arcs]}


def base_from_descriptor(d: dict) -> BandsBase | ArcsBase:
    if d["kind"] == "bands":
        return BandsBase(_json_floats(d, "axis", 1), _json_floats(d, "los", 1), _json_floats(d, "his", 1))
    if d["kind"] == "arcs":
        arcs = _json_floats(d, "arcs", 2)
        if len(arcs) and arcs.shape[1] != 2:
            raise DomainError(f"the document's 'arcs' must be a list of [a, b] pairs, got {d['arcs']!r}")
        return ArcsBase(tuple(map(tuple, arcs.tolist())))
    raise DomainError(f"unknown base kind {d['kind']!r}")


# ---------------------------------------------------------------------------
# radial profiles


class RadialProfile:
    """Radial function rho on the direction sphere; vectorized evaluation.

    ``symmetric`` says whether rho(-u) = rho(u) for every direction u.  Each
    profile decides it exactly from its own data; one that cannot says False.
    ``convex`` says whether the body is convex, and is True for the kinds that
    are convex by construction alone: balls, lunes and strip polygons.

    Every profile but an indicator reads a direction u only through its
    readings t = reads @ u, for a read-only (k, n) array ``reads``:
    ``rho_of`` is its formula on an (N, k) array of readings in either
    memory order, and ``rho`` takes them by one matrix-vector product each,
    stacked in one call.
    """

    kind: str = "abstract"
    symmetric: bool = False
    convex: bool = False
    reads: np.ndarray

    def rho(self, dirs: np.ndarray) -> np.ndarray:
        # a stack of (N, n) @ (n, 1) products is the BLAS call of dirs @ c
        # for each reading c, and so rounds as it does
        t = np.matmul(np.atleast_2d(dirs), self.reads[:, :, None])
        return self.rho_of(t[:, :, 0].T)

    def rho_of(self, t: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def descriptor(self) -> dict:
        raise NotImplementedError

    def zonal_axis(self, n: int) -> np.ndarray | None:
        """Unit axis in R^n about which rho is rotationally symmetric, or None.
        A profile with an axis reads u only through c = <u, axis>: ``rho_of``
        of an (N, 1) array of c is rho there (a band base reads c instead)."""
        return None

    def plane_corners(self):
        """Angles t in the plane at which rho(cos t, sin t) may fail to be
        smooth; the plane path starts its panels cut there."""
        return np.empty(0)


@dataclass(frozen=True)
class ConstantProfile(RadialProfile):
    r: float
    kind = "ball"
    symmetric = True
    convex = True

    reads = read_only(np.empty((0, 0)))   # nothing, in any dimension

    def rho(self, dirs):
        return self.rho_of(np.empty((len(np.atleast_2d(dirs)), 0)))

    def rho_of(self, t):
        return np.full(len(t), self.r)

    def zonal_axis(self, n):
        # every axis works; take e_1
        return basis_vector(n)

    def descriptor(self):
        return {"kind": "ball", "r": self.r}


@dataclass(frozen=True)
class EllipsoidProfile(RadialProfile):
    semiaxes: np.ndarray
    kind = "ellipsoid"
    symmetric = True

    def __post_init__(self):
        ax = np.asarray(self.semiaxes, dtype=float)
        object.__setattr__(self, "semiaxes", read_only(ax))
        object.__setattr__(self, "reads", read_only(np.eye(len(ax))))

    def rho(self, dirs):
        # the readings are the coordinates
        return self.rho_of(np.atleast_2d(dirs))

    def rho_of(self, t):
        return 1.0 / np.sqrt((t ** 2) @ (1.0 / self.semiaxes ** 2))

    def descriptor(self):
        return {"kind": "ellipsoid", "semiaxes": self.semiaxes.tolist()}


@dataclass(frozen=True)
class LuneProfile(RadialProfile):
    """Origin-symmetric lune of half-width w: tan(rho) = tan(w) / |<u, axis>|."""

    w: float
    axis: np.ndarray
    kind = "lune"
    symmetric = True
    convex = True

    def __post_init__(self):
        object.__setattr__(self, "axis", read_only(as_direction(self.axis, 2).copy()))
        object.__setattr__(self, "reads", self.axis[None])

    def rho_of(self, t):
        c = np.abs(t[:, 0])
        out = np.full(len(c), HEMISPHERE_MAX_RADIUS)
        pos = c > 1e-300
        # arctan(tan w / c) written pole-safe
        out[pos] = HEMISPHERE_MAX_RADIUS - np.arctan(c[pos] / math.tan(self.w))
        return out

    def plane_corners(self):
        # |<u, axis>| has its kinks where u is orthogonal to the axis
        t = math.atan2(self.axis[1], self.axis[0])
        return np.array([t - math.pi / 2, t + math.pi / 2]) % TWO_PI

    def descriptor(self):
        return {"kind": "lune", "w": self.w, "axis": self.axis.tolist()}


@dataclass(frozen=True)
class HarmonicPerturbedProfile(RadialProfile):
    """rho = r + alpha + beta * H_k with H_k a unit-norm zonal harmonic."""

    r: float
    alpha: float
    beta: float
    harmonic: ZonalHarmonic
    kind = "perturbed_ball"

    @property
    def symmetric(self) -> bool:
        # H_k(-u) = (-1)^k H_k(u)
        return self.harmonic.degree % 2 == 0

    @property
    def reads(self):
        return self.harmonic.axis[None]

    def rho_of(self, t):
        return self.r + self.alpha + self.beta * self.harmonic.at(t[:, 0])

    def zonal_axis(self, n):
        return self.harmonic.axis

    def descriptor(self):
        return {
            "kind": "perturbed_ball",
            "r": self.r,
            "alpha": self.alpha,
            "beta": self.beta,
            "degree": self.harmonic.degree,
            "axis": self.harmonic.axis.tolist(),
        }


@dataclass(frozen=True)
class IndicatorProfile(RadialProfile):
    """rho = height on the base set, 0 elsewhere (cones and radial steps).

    These are star-shaped sets, not star bodies: rho vanishes off the base.
    """

    base: BandsBase | ArcsBase
    height: float
    kind = "cone"

    @cached_property
    def symmetric(self) -> bool:
        return self.base.is_origin_symmetric()

    def rho(self, dirs):
        dirs = np.atleast_2d(dirs)
        return self.height * self.base.contains(dirs).astype(float)

    def zonal_axis(self, n):
        # a band base is rotationally symmetric about its axis; arcs have none
        return self.base.axis if isinstance(self.base, BandsBase) else None

    def descriptor(self):
        return {"kind": "cone", "height": self.height, "base": self.base.descriptor()}


# the largest s and s |c| of an antipodal bump pair that BumpyProfile sums as
# one cosh: cosh(700) ~ 5e303 is finite, and e^{-700} ~ 1e-304 is normal
_COSH_ARG_MAX = 700.0


def _is_own_mirror(profile) -> bool:
    """Whether a bumpy profile's bumps (c, a, s), as a multiset, equal their
    mirrors (-c, a, s): both lists sorted, then compared exactly."""
    bumps = sorted(zip(map(tuple, profile.centers.tolist()), profile.amplitudes.tolist(),
                       profile.sharpness.tolist()))
    return bumps == sorted((tuple(-x for x in c), a, s) for c, a, s in bumps)


@dataclass(frozen=True)
class BumpyProfile(RadialProfile):
    """Ball radius plus smooth zonal bumps: r0 + sum a_j exp(s_j (<u, c_j> - 1)).

    When the second half of the bumps is the first half with negated centers
    (as ``make_bumpy_ball(symmetric=True)`` builds them), each antipodal pair
    sums to 2 a e^{-s} cosh(s <u, c>): one projection and one cosh per pair.
    That form is taken where e^{-s} and cosh(s <u, c>) stay finite and normal
    for every unit u (0 < s, s <= ``_COSH_ARG_MAX`` and s |c| <=
    ``_COSH_ARG_MAX``); every other bump is summed on its own.

    The profile is symmetric when its bumps (c, a, s), as a multiset, are
    their own mirror (-c, a, s), in any order.
    """

    r0: float
    centers: np.ndarray      # (k, n)
    amplitudes: np.ndarray   # (k,)
    sharpness: np.ndarray    # (k,)
    lo: float = 0.0
    hi: float = math.inf
    kind = "bumpy"

    def __post_init__(self):
        for name in ("centers", "amplitudes", "sharpness"):
            object.__setattr__(self, name, read_only(np.asarray(getattr(self, name), dtype=float)))
        k = len(self.centers)
        half = k // 2
        antipodal = (k > 0 and k % 2 == 0
                     and np.array_equal(self.centers[half:], -self.centers[:half])
                     and np.array_equal(self.amplitudes[half:], self.amplitudes[:half])
                     and np.array_equal(self.sharpness[half:], self.sharpness[:half]))
        s = self.sharpness[:half]
        paired = np.zeros(k, dtype=bool)
        if antipodal:
            scale = np.maximum(np.linalg.norm(self.centers[:half], axis=1), 1.0)
            paired[:half] = (s > 0) & (s * scale <= _COSH_ARG_MAX)
            paired[half:] = paired[:half]
        lead = paired[:half]
        # each pair's coefficient 2 a e^{-s}, the bumps summed one by one, and
        # the readings: each pair's scaled center s c, then each single center
        single = np.flatnonzero(~paired)
        for name, arr in (("_pair_coefs", 2.0 * self.amplitudes[:half][lead] * np.exp(-s[lead])),
                          ("_single", single),
                          ("reads", np.concatenate([s[lead, None] * self.centers[:half][lead],
                                                    self.centers[single]]))):
            object.__setattr__(self, name, read_only(arr))
        object.__setattr__(self, "symmetric", bool(antipodal) or _is_own_mirror(self))

    def rho_of(self, t):
        readings, pairs = t.T, len(self._pair_coefs)
        if pairs:
            # r0 plus the first pair's term, the sum's operands swapped
            vals = np.cosh(readings[0])
            vals *= self._pair_coefs[0]
            vals += self.r0
        else:
            vals = np.full(len(t), self.r0)
        term = np.empty_like(vals)
        for c, coef in zip(readings[1:pairs], self._pair_coefs[1:]):
            np.cosh(c, out=term)
            term *= coef
            vals += term
        for c, j in zip(readings[pairs:], self._single):
            np.subtract(c, 1.0, out=term)
            term *= self.sharpness[j]
            np.exp(term, out=term)
            term *= self.amplitudes[j]
            vals += term
        # np.clip's values at a fraction of its call overhead
        np.maximum(vals, self.lo, out=vals)
        return np.minimum(vals, self.hi, out=vals)

    def descriptor(self):
        return {
            "kind": "bumpy",
            "r0": self.r0,
            "centers": self.centers.tolist(),
            "amplitudes": self.amplitudes.tolist(),
            "sharpness": self.sharpness.tolist(),
            "lo": self.lo,
            "hi": None if math.isinf(self.hi) else self.hi,
        }


@dataclass(frozen=True)
class PolygonProfile(RadialProfile):
    """Symmetric convex hemisphere body: gnomonic image is a strip intersection.

    tan(rho(u)) = min_i c_i / |<u, w_i>| over unit normals w_i with offsets
    c_i > 0.  Always origin-symmetric and convex.
    """

    normals: np.ndarray   # (k, 2)
    offsets: np.ndarray   # (k,)
    kind = "polygon"
    symmetric = True
    convex = True

    def __post_init__(self):
        for name in ("normals", "offsets"):
            object.__setattr__(self, name, read_only(np.asarray(getattr(self, name), dtype=float)))
        object.__setattr__(self, "reads", self.normals)

    def rho(self, dirs):
        # every reading by one matrix product, whose bits rho has always had
        return self.rho_of(np.atleast_2d(dirs) @ self.normals.T)

    def rho_of(self, t):
        # the divisor is at least 1e-300, so no division is by zero
        gnomonic = np.min(self.offsets[None, :] / np.maximum(np.abs(t), 1e-300), axis=1)
        return np.arctan(gnomonic)

    def plane_corners(self):
        """Where the active strip switches.  1 / tan rho(u) is the largest
        <u, p> over the 2k points p = +-w_i / c_i, and its maximizer changes
        where u is the outer normal of an edge of their convex hull (for one
        strip, or parallel ones, where u is orthogonal to w): at most 2k
        angles, however many strips are never active."""
        p = self.normals / self.offsets[:, None]
        points = sorted(set(map(tuple, np.concatenate([p, -p]).tolist())))

        def chain(seq):
            # Andrew's monotone chain: one half of the hull, as left turns
            out = []
            for q in seq:
                while len(out) > 1 and ((out[-1][0] - out[-2][0]) * (q[1] - out[-2][1])
                                        - (out[-1][1] - out[-2][1]) * (q[0] - out[-2][0])) <= 0:
                    out.pop()
                out.append(q)
            return out[:-1]

        ring = np.array(chain(points) + chain(points[::-1]))
        dx, dy = (np.roll(ring, -1, axis=0) - ring).T
        # the outer normal of the counter-clockwise edge (dx, dy) is (dy, -dx)
        return np.arctan2(-dx, dy) % TWO_PI

    def descriptor(self):
        return {
            "kind": "polygon",
            "normals": self.normals.tolist(),
            "offsets": self.offsets.tolist(),
        }


@dataclass(frozen=True)
class GridProfile(RadialProfile):
    """Order-1 interpolation of rho over a hyperspherical angle grid.

    Polar angles use clamped linear interpolation on uniform [0, pi] grids;
    the azimuth is periodic.  Order 1 preserves star-shapedness and min/max
    bounds, which is what the shape search needs.  DomainError for a grid
    without an axis or with an empty one.
    """

    values: np.ndarray   # shape (N_1, ..., N_{n-1})
    kind = "grid"

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=float)
        if arr.ndim == 0 or 0 in arr.shape:
            raise DomainError(f"a grid needs at least one value on each angle axis, got shape {arr.shape}")
        object.__setattr__(self, "values", read_only(arr))
        object.__setattr__(self, "reads", read_only(np.eye(arr.ndim + 1)))

    @cached_property
    def symmetric(self) -> bool:
        """u -> -u takes each polar angle t to pi - t and the azimuth p to
        p + pi: on the grid, a flip of every polar axis and a roll of the
        azimuth by half its count, which must be even."""
        count = self.values.shape[-1]
        if count % 2:
            return False
        mirror = np.roll(np.flip(self.values, axis=tuple(range(self.values.ndim - 1))), count // 2, axis=-1)
        return bool(np.array_equal(self.values, mirror))

    @property
    def ambient_dim(self) -> int:
        return self.values.ndim + 1

    def _angles(self, dirs):
        n = dirs.shape[1]
        angs = []
        rem = np.ones(dirs.shape[0])
        for i in range(n - 2):
            c = np.clip(dirs[:, i] / np.maximum(rem, 1e-300), -1.0, 1.0)
            angs.append(np.arccos(c))
            rem = rem * np.sqrt(np.maximum(0.0, 1.0 - c ** 2))
        angs.append(np.arctan2(dirs[:, -1], dirs[:, -2]) % TWO_PI)
        return angs

    def rho(self, dirs):
        # the readings are the coordinates
        return self.rho_of(np.atleast_2d(dirs))

    def rho_of(self, dirs):
        if dirs.shape[1] != self.ambient_dim:
            raise DomainError("direction dimension does not match the grid")
        angs = self._angles(dirs)
        shape = self.values.shape
        idx_lo, idx_hi, fracs = [], [], []
        for axis, theta in enumerate(angs):
            ncells = shape[axis]
            periodic = axis == len(shape) - 1
            if periodic:
                pos = theta / TWO_PI * ncells
                i0 = np.floor(pos).astype(int) % ncells
                i1 = (i0 + 1) % ncells
                frac = pos - np.floor(pos)
            else:
                pos = theta / math.pi * (ncells - 1)
                i0 = np.clip(np.floor(pos).astype(int), 0, ncells - 2)
                i1 = i0 + 1
                frac = np.clip(pos - i0, 0.0, 1.0)
            idx_lo.append(i0)
            idx_hi.append(i1)
            fracs.append(frac)
        out = np.zeros(dirs.shape[0])
        ndim = len(shape)
        for corner in range(2 ** ndim):
            weight = np.ones(dirs.shape[0])
            sel = []
            for axis in range(ndim):
                if corner >> axis & 1:
                    weight = weight * fracs[axis]
                    sel.append(idx_hi[axis])
                else:
                    weight = weight * (1.0 - fracs[axis])
                    sel.append(idx_lo[axis])
            out += weight * self.values[tuple(sel)]
        return out

    def plane_corners(self):
        # linear in the angle between the nodes of the periodic axis
        if self.ambient_dim != 2:
            return np.empty(0)
        return TWO_PI * np.arange(len(self.values)) / len(self.values)

    def descriptor(self):
        return {"kind": "grid", "shape": list(self.values.shape), "values": self.values.ravel().tolist()}


# ---------------------------------------------------------------------------
# star bodies


@dataclass(frozen=True)
class StarBody:
    """A space and a radial profile."""

    space: SpaceSpec
    profile: RadialProfile

    @property
    def symmetric(self) -> bool:
        """Whether rho(-u) = rho(u) for every direction u, as the profile
        decides it exactly.  Left sides rely on it: the product and plane
        paths sum each antipodal pair of a subsphere rule from rho at one of
        its two nodes."""
        return self.profile.symmetric

    def rho(self, dirs) -> np.ndarray:
        """The profile clamped to the space's radius range [0, max_radius]."""
        return self._clamped(self.profile.rho(dirs))

    def rho_of(self, t) -> np.ndarray:
        """``rho`` from the readings t of directions, as ``profile.rho_of``."""
        return self._clamped(self.profile.rho_of(t))

    def _clamped(self, radii):
        # in place: every profile returns a float array of its own
        np.maximum(radii, 0.0, out=radii)
        return np.minimum(radii, self.space.max_radius, out=radii)

    @property
    def is_indicator(self) -> bool:
        """Whether rho is a height on a cone base and 0 elsewhere, whose left
        sides are exact."""
        return isinstance(self.profile, IndicatorProfile)

    def to_json_dict(self) -> dict:
        return {
            "format_version": FORMAT_VERSION,
            "space": {"delta": self.space.delta, "dim": self.space.dim},
            "profile": self.profile.descriptor(),
            "symmetric": self.symmetric,
        }


def _json_integer(value, name: str, low: int | None = None) -> int:
    """A document field that must be an integer (a JSON number without a
    fraction, not a boolean), at least ``low`` if given; DomainError, naming
    the field, for anything else."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise DomainError(f"the document's {name!r} must be an integer, got {value!r}")
    if low is not None and value < low:
        raise DomainError(f"the document's {name!r} must be at least {low}, got {value!r}")
    return int(value)


def _is_json_number(value) -> bool:
    """Whether value is a JSON number: a real number, not a boolean."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _json_number(doc: dict, name: str) -> float:
    """A document field that must be a JSON number, as a float; DomainError,
    naming the field, for a boolean, a string, a list or anything else."""
    value = doc[name]
    if not _is_json_number(value):
        raise DomainError(f"the document's {name!r} must be a number, got {value!r}")
    return float(value)


def _json_object(doc: dict, name: str) -> dict:
    """A document field that must be a JSON object; DomainError, naming the
    field, for anything else."""
    value = doc[name]
    if not isinstance(value, dict):
        raise DomainError(f"the document's {name!r} must be an object, got {value!r}")
    return value


def _json_floats(doc: dict, name: str, ndim: int) -> np.ndarray:
    """A document field that must be a list of JSON numbers (ndim 1) or of
    equally long lists of them (ndim 2), as floats; DomainError, naming the
    field, for any other shape or entry."""
    value = doc[name]
    rows = value if ndim == 2 and isinstance(value, list) else [value]
    if not (all(isinstance(row, list) and all(map(_is_json_number, row)) for row in rows)
            and len(set(map(len, rows))) <= 1):
        noun = "a list of numbers" if ndim == 1 else "a list of lists of numbers"
        raise DomainError(f"the document's {name!r} must be {noun}, got {value!r}")
    return np.array(value, dtype=float)


def body_from_json_dict(doc: dict) -> StarBody:
    """The body a ``to_json_dict`` document describes.  Each kind passes its
    builder's checks, and the document's space must be the one the profile
    implies.  The symmetry flag is the profile's own; a bumpy or grid
    document that claims a symmetry its profile lacks is refused, and any
    other kind's claim is ignored.  DomainError for a document that fails any
    of these, whose ``symmetric`` is not a boolean, or whose integer fields
    (the space's ``delta`` and ``dim``, a harmonic's ``degree``, a grid's
    ``shape`` entries, which must be positive) are not integers.  A document
    that is not an object, or whose ``space``, ``profile`` or cone ``base`` is
    not one, whose grid ``shape`` is not a list, whose number fields hold
    anything but JSON numbers (a boolean or a string among them), or whose
    arrays have the wrong number of axes, is refused with DomainError naming
    the field."""
    if not isinstance(doc, dict):
        raise DomainError(f"a body document must be an object, got {type(doc).__name__}")
    space_doc = _json_object(doc, "space")
    space = SpaceSpec(_json_integer(space_doc["delta"], "delta"),
                      _json_integer(space_doc["dim"], "dim"))
    p = _json_object(doc, "profile")
    kind = p["kind"]
    claim = doc.get("symmetric", False)
    if not isinstance(claim, bool):
        raise DomainError(f"the document's 'symmetric' must be true or false, got {claim!r}")
    if kind == "ball":
        body = make_ball(space, _json_number(p, "r"))
    elif kind == "ellipsoid":
        body = make_ellipsoid(_json_floats(p, "semiaxes", 1))
    elif kind == "lune":
        body = make_lune(_json_number(p, "w"), _json_floats(p, "axis", 1))
    elif kind == "cone":
        body = _indicator_body(space, base_from_descriptor(_json_object(p, "base")),
                               _json_number(p, "height"))
    elif kind == "perturbed_ball":
        r, alpha, beta = (_json_number(p, name) for name in ("r", "alpha", "beta"))
        h, span = _perturbation(space, r, beta, _json_integer(p["degree"], "degree"),
                                _json_floats(p, "axis", 1))
        if not abs(alpha) <= span:
            raise DomainError(f"the volume shift alpha must lie in [-{span!r}, {span!r}], got {alpha!r}")
        body = StarBody(space, HarmonicPerturbedProfile(r, alpha, beta, h))
    elif kind == "polygon":
        body = _polygon_body(_json_floats(p, "normals", 2), _json_floats(p, "offsets", 1))
    elif kind == "bumpy":
        r0, centers = _json_number(p, "r0"), _json_floats(p, "centers", 2)
        amplitudes, sharpness = _json_floats(p, "amplitudes", 1), _json_floats(p, "sharpness", 1)
        _check_bumps(space, r0, centers, amplitudes, sharpness)
        profile = BumpyProfile(r0, centers, amplitudes, sharpness,
                               lo=_json_number(p, "lo") if "lo" in p else 0.0,
                               hi=math.inf if p.get("hi") is None else _json_number(p, "hi"))
        if not (math.isfinite(profile.lo) and profile.lo <= profile.hi):
            raise DomainError("a bumpy profile's clip range needs a finite lo <= hi")
        body = StarBody(space, profile)
    elif kind == "grid":
        if not isinstance(p["shape"], list):
            raise DomainError(f"the document's 'shape' must be a list of integers, got {p['shape']!r}")
        shape = [_json_integer(size, "shape", 1) for size in p["shape"]]
        profile = GridProfile(_json_floats(p, "values", 1).reshape(shape))
        if not np.all(np.isfinite(profile.values)):
            raise DomainError("grid values must be finite")
        if profile.ambient_dim != space.dim:
            raise DomainError(f"a grid of {profile.values.ndim} angles does not describe dim {space.dim}")
        body = StarBody(space, profile)
    else:
        raise DomainError(f"unknown profile kind {kind!r}")
    if body.space != space:
        raise DomainError(f"a {kind} document on {space} describes a body on {body.space}")
    if kind in ("bumpy", "grid") and claim and not body.symmetric:
        raise DomainError(f"the {kind} profile is not origin-symmetric, though the document says so")
    return body


# ---------------------------------------------------------------------------
# constructors


def make_ball(space: SpaceSpec, r: float) -> StarBody:
    if not r > 0:
        raise DomainError("ball radius must be positive")
    space.check_radius(r)
    return StarBody(space, ConstantProfile(float(r)))


def make_ellipsoid(semiaxes) -> StarBody:
    ax = np.asarray(semiaxes, dtype=float)
    if not np.all((ax > 0) & np.isfinite(ax)):
        raise DomainError("all semiaxes must be positive and finite")
    with np.errstate(divide="ignore", over="ignore"):   # rho reads 1 / a^2
        if not np.all(np.isfinite(1.0 / ax ** 2)):
            raise DomainError(f"all semiaxes must exceed about 7.46e-155: a smaller one's inverse "
                              f"square overflows, got {ax.tolist()!r}")
    space = SpaceSpec(0, ax.shape[0])
    return StarBody(space, EllipsoidProfile(ax))


def bands_to_arcs(base: BandsBase) -> ArcsBase:
    """Rewrite a circle band base as explicit arcs (exact plane functionals).
    The band [lo, hi] about the axis at angle phi0 is the two arcs
    phi0 +- [acos hi, acos lo], one arc when it holds the axis or its
    antipode, and the whole circle when it holds both.  A mirrored base is
    written as its arcs below pi and those arcs turned by pi, which
    ``ArcsBase.is_origin_symmetric`` reads as symmetric exactly."""
    if base.ambient_dim != 2:
        raise DomainError("arc conversion applies to circle bases")
    phi0 = math.atan2(base.axis[1], base.axis[0])
    arcs = []
    for lo, hi in zip(base.los, base.his):
        a_hi = math.acos(max(-1.0, min(1.0, hi)))
        a_lo = math.acos(max(-1.0, min(1.0, lo)))
        if not a_lo > a_hi:
            continue
        if a_hi == 0.0 and a_lo == math.pi:
            arcs.append((0.0, TWO_PI))
        elif a_hi == 0.0:
            arcs.append((phi0 - a_lo, phi0 + a_lo))
        elif a_lo == math.pi:
            arcs.append((phi0 + a_hi, phi0 + TWO_PI - a_hi))
        else:
            arcs += [(phi0 + a_hi, phi0 + a_lo), (phi0 - a_lo, phi0 - a_hi)]
    if base.is_origin_symmetric():
        below = _joined([(a, min(b, math.pi)) for a, b in _normalize_arcs(arcs) if a < math.pi])
        arcs = below + [(a + math.pi, b + math.pi) for a, b in below]
    return ArcsBase(tuple(arcs))


def _indicator_body(space: SpaceSpec, base: BandsBase | ArcsBase, height: float) -> StarBody:
    """The one builder of indicator bodies: rho = height on the base, 0 elsewhere.

    A circle band base becomes arcs, so that plane left sides take the exact
    ``arcs`` path.
    """
    if base.ambient_dim != space.dim:
        raise DomainError("base dimension does not match the space")
    if not height > 0:
        raise DomainError(f"the height must be positive, got {height!r}")
    space.check_radius(height, name="height")
    if space.dim == 2 and isinstance(base, BandsBase):
        base = bands_to_arcs(base)
    return StarBody(space, IndicatorProfile(base, height))


def make_cone(space: SpaceSpec, base: BandsBase | ArcsBase) -> StarBody:
    """Spherical cone: rho = pi/2 on the base, 0 elsewhere (star-shaped set)."""
    if space.delta != 1:
        raise DomainError("cones live on the hemisphere (delta = +1)")
    return _indicator_body(space, base, HEMISPHERE_MAX_RADIUS)


def make_lune(w: float, axis=(1.0, 0.0)) -> StarBody:
    if not 0.0 < w < HEMISPHERE_MAX_RADIUS:
        raise DomainError("lune half-width must lie in (0, pi/2)")
    space = SpaceSpec(1, 2)
    return StarBody(space, LuneProfile(float(w), np.asarray(axis, dtype=float)))


def _check_bumps(space: SpaceSpec, r0: float, centers, amplitudes, sharpness):
    """DomainError unless each bump has a center in R^n, an amplitude and a
    sharpness, and r0 and every one of these is finite."""
    if (amplitudes.ndim != 1 or centers.shape != (len(amplitudes), space.dim)
            or sharpness.shape != amplitudes.shape):
        raise DomainError(f"each bump needs a center in R^{space.dim}, an amplitude and a sharpness")
    if not all(np.all(np.isfinite(x)) for x in (r0, centers, amplitudes, sharpness)):
        raise DomainError("a bumpy profile's r0, centers, amplitudes and sharpness must be finite")


def make_bumpy_ball(space: SpaceSpec, r0: float, centers, amplitudes, sharpness,
                    symmetric: bool = False) -> StarBody:
    """Ball plus smooth zonal bumps, clipped to the valid radius range less a
    margin of 0.05 at either end.  ``symmetric=True`` adds the mirror of each
    bump, which makes the body origin-symmetric."""
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    amplitudes = np.asarray(amplitudes, dtype=float)
    sharpness = np.asarray(sharpness, dtype=float)
    _check_bumps(space, r0, centers, amplitudes, sharpness)
    if symmetric:
        centers = np.vstack([centers, -centers])
        amplitudes = np.concatenate([amplitudes, amplitudes])
        sharpness = np.concatenate([sharpness, sharpness])
    margin = 0.05
    hi = HEMISPHERE_MAX_RADIUS - margin if space.delta == 1 else math.inf
    profile = BumpyProfile(float(r0), centers, amplitudes, sharpness, lo=margin, hi=hi)
    return StarBody(space, profile)


def make_symmetric_polygon_body(offsets, angles) -> StarBody:
    """Origin-symmetric convex body in the 2-hemisphere from gnomonic strips."""
    angles = np.asarray(angles, dtype=float)
    return _polygon_body(np.column_stack([np.cos(angles), np.sin(angles)]),
                         np.asarray(offsets, dtype=float))


def _polygon_body(normals, offsets) -> StarBody:
    """The polygon body of at least one strip, each a unit normal in the plane
    and a positive offset."""
    if not np.all((offsets > 0) & np.isfinite(offsets)):
        raise DomainError("strip offsets must be positive and finite")
    if (len(offsets) == 0 or normals.shape != (len(offsets), 2)
            or not np.all(np.abs(np.linalg.norm(normals, axis=1) - 1.0) <= 1e-12)):
        raise DomainError("a polygon needs at least one strip, and a unit normal in the plane per offset")
    return StarBody(SpaceSpec(1, 2), PolygonProfile(normals, offsets))


@lru_cache(maxsize=16)
def _harmonic_extrema(n: int, k: int) -> np.ndarray:
    """The t in [-1, 1] where alpha + beta H_k(t) takes its extrema: +-1 and the
    zeros of H_k' ~ C_{k-1}^{lam+1}, lam = (n - 2) / 2, which are the nodes of
    the Gauss rule for the weight (1 - t^2)^{(n-1)/2}.  Cached, read-only."""
    return read_only(np.concatenate([[-1.0, 1.0], gauss_jacobi(k - 1, (n - 1) / 2.0)[0]]))


def _perturbation(space: SpaceSpec, r: float, beta: float, k: int, axis):
    """The harmonic H_k about the axis, and the bound span on |beta H_k| that
    brackets alpha, for a perturbed ball whose radii r + alpha + beta H_k, with
    |alpha| <= span, stay in (0, pi/2); DomainError otherwise."""
    if space.delta != 1:
        raise DomainError("perturbed balls are hemisphere constructions")
    if k < 2 or k % 2 != 0:
        raise DomainError("the harmonic degree must be even and >= 2")
    if not math.isfinite(beta):
        raise DomainError(f"the perturbation amplitude beta must be finite, got {beta}")
    space.check_radius(r)
    harmonic = zonal_harmonic(space.dim, k, axis)
    span = abs(beta) * float(np.max(np.abs(harmonic.at(_harmonic_extrema(space.dim, k))))) + 1e-9
    if not (r - 2 * span > 0 and r + 2 * span < HEMISPHERE_MAX_RADIUS):
        raise RadiusRangeError("perturbation leaves the open radius range (0, pi/2)")
    return harmonic, span


def make_perturbed_ball(space: SpaceSpec, r: float, beta: float, k: int) -> StarBody:
    """Volume-matched harmonic perturbation of a centered hemisphere ball.

    rho = r + alpha + beta * H_k, H_k zonal about the last coordinate axis,
    with alpha solved so that the volume, by the polar rule in <u, axis>,
    equals the ball volume to 1e-10 relative.  The
    exact root solve is used rather than the first-order expansion of alpha:
    the sign experiment downstream needs the volumes matched to machine
    precision.
    """
    n = space.dim
    harmonic, span = _perturbation(space, r, beta, k, basis_vector(n, -1))

    # against a degree-801 rule, degree max(63, 8k + 15) leaves at most 4e-15
    # relative for n <= 8, k <= 32 at r = 0.7; a fixed degree 23 left up to
    # 6e-5 there for k <= 8, and 63 up to 4e-5 at k = 32
    t, w = polar_rule(n - 1, max(63, 8 * k + 15))
    hvals = harmonic.at(t)
    ball_vol = float(np.dot(w, phi(space, n, np.full(len(t), r))))

    def vol_gap(alpha):
        return float(np.dot(w, phi(space, n, r + alpha + beta * hvals))) - ball_vol

    if beta == 0.0:
        alpha = 0.0
    else:
        try:
            alpha = brent_root(vol_gap, -span, span, xtol=1e-15, rtol=1e-15)
        except ValueError as exc:
            raise SolverError(f"volume-matching alpha not bracketed: {exc}") from exc
    body = StarBody(space, HarmonicPerturbedProfile(float(r), float(alpha), float(beta), harmonic))
    gap = abs(vol_gap(alpha))
    if gap > 1e-10 * ball_vol:
        raise SolverError(f"volume matching achieved only {gap:.2e}")
    return body


def perturbation_norms(body: StarBody):
    """(L2, sup) norms of the radial perturbation f = rho - r = alpha + beta H_k:
    the L2 norm by the polar rule, exact at degree 2k, and the sup over the
    points where f takes its extrema."""
    profile = body.profile
    if not isinstance(profile, HarmonicPerturbedProfile):
        raise ApplicabilityError("norms are defined for perturbed-ball bodies")
    n, k = body.space.dim, profile.harmonic.degree

    def f(t):
        return profile.alpha + profile.beta * profile.harmonic.at(t)

    t, w = polar_rule(n - 1, 2 * k)
    return math.sqrt(float(np.dot(w, f(t) ** 2))), float(np.max(np.abs(f(_harmonic_extrema(n, k)))))


# ---------------------------------------------------------------------------
# the alternating-strip subset of a cap


# The most strips a striped base may have.  A striped cone keeps A, its upper
# half: two arrays of as many floats, 16 bytes a strip.  Its build allocates
# no more, but for scratch arrays of at most _STRIP_BLOCK strips.  The
# densest base the tests build has 6,433,983 bands.
STRIP_CAP = 1 << 24

# The strips are built and checked this many at a time.  The first block's
# strip numbers and tops are kept through the root solve.
_STRIP_BLOCK = 1 << 14


def _check_strips(los, his) -> None:
    """The checks that BandsBase runs on the strips A = (los, his), and those
    that A union -A, with -A below A, needs on top: lo <= hi and no edge
    NaN, both edges ascending (across the junction with -A too), the bands
    disjoint within 1e-15 (A's lowest band and its mirror too), and every
    edge finite.  DomainError otherwise.  Each check runs over all strips
    before the next, _STRIP_BLOCK strips at a time, so that its temporaries
    stay small."""
    block = _STRIP_BLOCK

    def anywhere(test, count):
        # whether test(a, b) holds on any block [a, b) of range(count)
        return any(test(a, min(a + block, count)) for a in range(0, count, block))

    n = len(los)
    if anywhere(lambda a, b: not np.all(los[a:b] <= his[a:b]), n):
        raise DomainError("band upper bounds must dominate lower bounds, and no edge may be NaN")
    # the pairs of neighbours (i, i + 1), i < n - 1
    if (anywhere(lambda a, b: bool(np.any(los[a + 1 : b + 1] < los[a:b])
                                   or np.any(his[a + 1 : b + 1] < his[a:b])), n - 1)
            or -his[0] > los[0]):
        raise DomainError("strip edges must ascend")
    if (anywhere(lambda a, b: bool(np.any(los[a + 1 : b + 1] < his[a:b] - 1e-15)), n - 1)
            or los[0] < -los[0] - 1e-15):
        raise DomainError("bands must be disjoint")
    if not (math.isfinite(los[0]) and math.isfinite(his[-1])):
        raise DomainError("band edges must be finite")


def _striped_union(axis, alpha: float, delta: float, lam: float, cap_measure: float) -> BandsBase:
    """A union -A, where A is the strips of pitch delta inside the cap with the
    keep fraction gamma tuned so that |A| = lam * cap_measure.  The base is
    mirrored and keeps A alone, its upper half; -A is never written.

    The root solve keeps one array, the strip measures, whose np.sum over
    the kept strips it compares with the target.  The strips are built
    _STRIP_BLOCK at a time in small scratch arrays, their numbers
    k = 1, 2, ... from the index range: the tops min(alpha + k delta, 1), the
    lower edges alpha + (k - gamma) delta, and at n >= 4 the primitives of
    both, by the float operations of sphere_band_measure.  The lower edges
    rise with k, so the kept strips (lo < 1) are a prefix.  Every edge lies
    in [alpha, 1], where clipping changes nothing, so each measure is bit for
    bit that of sphere_band_measure on the kept strips; at n = 3 the
    primitive is the edge itself, and top - lo >= 0 needs no np.maximum,
    since fl(k - gamma) <= k and rounding is monotone.

    No work is done whose bits are already known:
    - at gamma = 0 every kept strip has lo = top, fl(fl(k delta) + alpha)
      both, so every measure is 0 and the gap is 0.0 - lam * cap_measure;
      nothing is measured, and the next evaluation measures every strip;
    - only the strips whose edges moved are measured again.  Index 0 (k = 1)
      is a group of its own, measured at every evaluation; each further
      group is the indices [2^j, 2^(j+1)), j >= 0, whose strip numbers k in
      (2^j, 2^(j+1)] put k - gamma, gamma in [0, 1], in the binade
      [2^j, 2^(j+1)].  There fl(k - gamma) is k minus gamma rounded to the
      binade's grid, the same rounding for every k, since each k is a
      multiple of twice the grid.  So the group's last k - gamma is equal to
      the previous evaluation's exactly when all of them are, and then every
      edge and measure of the group is the same to the bit and is kept.
      Consecutive groups to be measured again take one pass.
    The sum is still one np.sum over the kept prefix, so gamma and the bands
    do not depend on what was skipped.

    Once gamma is known, A's lower edges are written over the measures and
    its tops into a second array, the two arrays the base keeps, and A
    passes _check_strips.  ResourceLimitError for more than STRIP_CAP
    strips, before any allocation.
    """
    axis = as_direction(axis).copy()
    n = len(axis)
    count = int(math.floor((1.0 - alpha) / delta)) + 1
    if count > STRIP_CAP:
        raise ResourceLimitError(f"a pitch of {delta:.3g} would need {count} strips, cap is {STRIP_CAP}")
    q = (n - 3) / 2.0
    area = sphere_surface_area(n - 2)
    block = min(_STRIP_BLOCK, count)
    # a block's strip numbers, then its lower edges; at q > 0 also its tops,
    # their primitive and the primitives' scratch
    lo_buf = np.empty(block)
    top_buf, primitive_buf, tmp_buf = (None,) * 3 if q == 0.0 else np.empty((3, block))
    measures = np.empty(count)

    def tops(k, out):
        # alpha + k * delta, the sum's operands swapped, which leaves its bits
        np.multiply(k, delta, out=out)
        out += alpha
        return np.minimum(out, 1.0, out=out)

    def top_primitive(k, out):
        """The primitive of the tops of the strip numbers k, into out; at q = 0
        the tops are their own primitive."""
        if q == 0.0:
            return tops(k, out)
        top = tops(k, top_buf[: len(k)])
        _primitive_in_place(q, top, out, tmp_buf[: len(k)])
        return out

    def lower_edges(k, gamma, out):
        np.subtract(k, gamma, out=out)
        np.multiply(out, delta, out=out)
        return np.add(out, alpha, out=out)

    # the first block, whose groups are measured most often, keeps its strip
    # numbers 1, 2, ... (exact integers, which give every other block's too)
    # and its tops' primitive, neither of which depends on gamma
    first_k = np.arange(1.0, block + 1.0)
    first_top = top_primitive(first_k, np.empty(block))

    def numbers(j, out):
        """The strip numbers of the strips from index j on, into out."""
        return np.add(first_k[: len(out)], j, out=out)

    def measure(a, b, gamma) -> int:
        """Measure the strips [a, b) with lo < 1 at gamma, a block at a time
        (blocks start at multiples of block); how many they are."""
        j = a
        while j < b:
            e = min(b, (j // block + 1) * block)
            size = e - j
            if j < block:
                k, top = first_k[j:e], first_top[j:e]
            else:
                k = numbers(j, lo_buf[:size])
                # at q = 0 the tops go where their measures go
                top = top_primitive(k, measures[j:e] if q == 0.0 else primitive_buf[:size])
            lo = lower_edges(k, gamma, lo_buf[:size])
            kept = int(np.searchsorted(lo, 1.0))
            vals, lo = measures[j : j + kept], lo[:kept]
            # the lower edges' primitive: the edges themselves at q = 0
            primitive = lo if q == 0.0 else vals
            _primitive_in_place(q, lo, primitive, None if q == 0.0 else tmp_buf[:kept])
            np.subtract(top[:kept], primitive, out=vals)
            if q:
                np.maximum(vals, 0.0, out=vals)
            vals *= area
            if kept < size:
                return j - a + kept
            j = e
        return b - a

    # the groups: index 0, then [2^j, 2^(j+1)) for j >= 0
    starts = [0]
    while (start := max(1, 2 * starts[-1])) < count:
        starts.append(start)
    groups = list(zip(starts, starts[1:] + [count]))
    # per group: its last k - gamma when it was measured (nan equals nothing;
    # index 0 has none), and how many of its leading strips have lo < 1,
    # each of them measured
    probes = [math.nan] * len(groups)
    below = [0] * len(groups)

    def measure_gap(gamma):
        if gamma == 0.0:
            return 0.0 - lam * cap_measure
        runs = []   # [first, last) of each run of consecutive groups to measure
        for g, (a, b) in enumerate(groups):
            if g:
                probe = b - gamma
                if probe == probes[g]:
                    continue
                probes[g] = probe
            if runs and runs[-1][1] == g:
                runs[-1][1] = g + 1
            else:
                runs.append([g, g + 1])
        # each run is one pass, and its count of strips at lo < 1 is split
        # among its groups
        for first, last in runs:
            a, b = groups[first][0], groups[last - 1][1]
            m = measure(a, b, gamma)
            for g in range(first, last):
                start, stop = groups[g]
                below[g] = min(max(m - (start - a), 0), stop - start)
        # the kept prefix ends in the first group with a strip at lo >= 1
        for (a, b), m in zip(groups, below):
            if m < b - a:
                break
        return float(np.sum(measures[: a + m])) - lam * cap_measure

    gamma = brent_root(measure_gap, 0.0, 1.0, xtol=1e-15, rtol=1e-15)
    del lo_buf, top_buf, primitive_buf, tmp_buf, first_top
    # A's lower edges over the measures, then its tops
    for j in range(0, count, block):
        k = numbers(j, measures[j : j + block])
        lower_edges(k, gamma, k)
    kept = int(np.searchsorted(measures, 1.0))
    los, his = measures[:kept], np.empty(kept)
    for j in range(0, kept, block):
        tops(numbers(j, his[j : j + block]), his[j : j + block])
    del first_k
    _check_strips(los, his)
    return BandsBase._kept(axis, los, his, 2 * kept, True,
                           {"alpha": alpha, "delta": delta, "gamma": gamma, "lam": lam,
                            "cap_measure": cap_measure})


def _strip_pitch(n: int, alpha: float, lam: float, eps: float) -> tuple[float, float]:
    """The strip pitch delta that the error budget of striped_cap_subset
    allows on S^{n-1}, and the measure of the cap of height alpha."""
    if n < 3:
        raise DomainError("strip subsets require ambient dimension >= 3")
    if not 0.0 < alpha < 1.0:
        raise DomainError("cap height must lie in (0, 1)")
    if not 0.0 < lam < 1.0:
        raise DomainError("the fraction lam must lie in (0, 1)")
    if not eps > 0.0:
        raise DomainError("eps must be positive")

    cap = spherical_cap_measure(n - 1, alpha)
    f_alpha = sphere_surface_area(n - 2) * (1.0 - alpha ** 2) ** ((n - 3) / 2.0)
    c2 = 2.0 * lam * f_alpha / cap * sphere_surface_area(n - 2)

    def budget_ok(delta):
        extra = 2.0 * math.acos(max(-1.0, 1.0 - delta / alpha)) if n == 3 else 0.0
        return c2 * delta + extra <= eps

    delta = min((1.0 - alpha) / 4.0, alpha / 2.0, cap / (2.0 * f_alpha), eps / (2.0 * c2))
    while not budget_ok(delta):
        delta /= 2.0
        if delta < 1e-12:
            raise PitchSelectionError("eps is below float-resolvable strip pitch")
    return delta, cap


def striped_cap_subset(alpha: float, axis, lam: float, eps: float) -> BandsBase:
    """Subset A of the cap C = {<x, u> >= alpha} with |A| = lam |C| whose
    great-subsphere sections satisfy |A cut xi| <= lam |C cut xi| + eps.

    The construction partitions the cap into narrow strips of pitch delta and
    keeps a tuned fraction of each.  The pitch is chosen from the explicit
    error budget: c2 * delta (+ an arcsine edge term when n = 3) <= eps.  A is
    the half that the striped cone's base A union -A keeps, from the same
    solve and already checked: its arrays themselves, with no copy.
    """
    axis = as_direction(np.asarray(axis, dtype=float))
    delta, cap = _strip_pitch(len(axis), alpha, lam, eps)
    both = _striped_union(axis, alpha, delta, lam, cap)
    return BandsBase._kept(both.axis, both._los, both._his, len(both._los), False, both.meta)


def make_striped_cone(space: SpaceSpec, t: float, alpha: float, eps: float) -> StarBody:
    """Origin-symmetric cone over A union -A, A an alternating-strip cap subset,
    of volume t * vol(hemisphere)."""
    if space.delta != 1:
        raise DomainError("striped cones live on the hemisphere")
    if not 0.0 < t < 1.0:
        raise DomainError("the volume fraction t must lie in (0, 1)")
    n = space.dim
    sphere = sphere_surface_area(n - 1)
    cap = spherical_cap_measure(n - 1, alpha)
    if cap <= t / 2.0 * sphere:
        raise DomainError("cap too small: need |C_alpha| > (t/2) |S^{n-1}|")
    lam = t * sphere / (2.0 * cap)
    delta, cap = _strip_pitch(n, alpha, lam, eps)
    return make_cone(space, _striped_union(basis_vector(n), alpha, delta, lam, cap))


def make_vanishing_body(space: SpaceSpec, volume: float, eta: float) -> StarBody:
    """Origin-symmetric star-shaped set of the given volume in R^n or H^n whose
    section functional is at most eta.

    rho = r on A union -A and 0 otherwise, with A an alternating-strip subset
    of the cap of height 0.6 at pitch 1e-4; r grows until the exactly-computed
    functional drops below eta (the section-to-volume primitive ratio decays
    to 0 in r).
    """
    if space.delta not in (0, -1):
        raise DomainError("the vanishing construction lives in R^n or H^n")
    if space.dim < 3:
        raise DomainError("dimension must be >= 3")
    if not (volume > 0 and eta > 0):
        raise DomainError("volume and eta must be positive")
    n = space.dim
    sphere = sphere_surface_area(n - 1)
    cap_height, pitch = 0.6, 1e-4
    cap = spherical_cap_measure(n - 1, cap_height)
    axis = basis_vector(n)
    # a function-level import: functionals imports this module
    from .functionals import busemann_functional

    r = 1.0
    while True:
        if phi(space, n, r) > volume / (2.0 * cap):
            lam = volume / (2.0 * phi(space, n, r) * cap)
            body = _indicator_body(space, _striped_union(axis, cap_height, pitch, lam, cap), r)
            if busemann_functional(body) <= eta:
                return body
            # the next base is built without this one alive
            del body
        r *= 1.6
        if r > 320.0:
            raise ResourceLimitError("radius cap reached before the functional fell below eta")
