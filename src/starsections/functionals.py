"""Volumes, hyperplane-section volumes, the section-power functional, and the
closed forms that the right-hand sides of ``verify.THEOREMS`` are built from:
the comparison functions G, H, F and Psi, ``bound_constants`` and
``lune_bound``.

Left sides are always quadrature over the direction sphere; right sides are
always closed forms (possibly with bracketed inversions, or with a 1-d rule
of their own, as ``lune_bound``'s tanh-sinh levels), which take the body's
volume as a number and compute no left side.  Every left side of a body
takes the one evaluation path that ``_path`` chooses, an object of one of
five private classes: ``_Product``, ``_Zonal``, ``_Indicator``, ``_Arcs`` or
``_Plane``.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .bodies import StarBody
from .errors import (
    ApplicabilityError,
    ConvergenceError,
    DomainError,
    InversionRangeError,
    ResourceLimitError,
)
from .quadrature import (
    build_sphere_rule,
    check_frames,
    default_degree,
    gauss_jacobi,
    integrate_vectorized,
    polar_rule,
    rule_size,
    subsphere_frames,
)
from .spaces import (
    SpaceSpec,
    as_direction,
    metric_sine,
    monotone_inverse,
    phi,
    phi_inverse,
    read_only,
    sin_power_primitive_full,
    sphere_surface_area,
    unit_ball_volume,
)

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# quadrature configuration


# the plane path's Gauss-Kronrod tolerance, relative to max(1, 2 pi max |row|)
# on the first round
ANGULAR_TOL = 1e-11


@dataclass(frozen=True)
class QuadratureConfig:
    """Degrees used by the functional evaluators.

    ``outer_degree`` drives the xi-integration on S^{n-1}; ``inner_degree``
    the subsphere integration.  In the plane the angular integrals are done
    by default with adaptive Gauss-Kronrod 10/21 bisection (section profiles
    there often have corners), each row of the one integrand (volume,
    section power) to ``ANGULAR_TOL``; ``plane_adaptive=False`` takes the
    product path's circle rule instead.
    """

    outer_degree: int | None = None
    inner_degree: int | None = None
    plane_adaptive: bool = True

    def outer(self, n: int) -> int:
        return self.outer_degree if self.outer_degree is not None else default_degree(n - 1)

    def inner(self, n: int) -> int:
        return self.inner_degree if self.inner_degree is not None else default_degree(n - 2)

    def describe(self, n: int) -> dict:
        return {"outer_degree": self.outer(n), "inner_degree": self.inner(n)}


DEFAULT_CONFIG = QuadratureConfig()


def _inner_pairs(n: int, inner_degree: int):
    """One node of each antipodal pair of the inner rule on S^{n-2}, and the
    weight of each node of its pair: the rule that ``_Product.sections`` sums."""
    nodes, weights = build_sphere_rule(n - 2, inner_degree).antipodal_half
    return nodes, weights / 2.0


@lru_cache(maxsize=3)
def _section_grid(n: int, outer_degree: int, inner_degree: int):
    """Outer weights and the frames of the product path's normals, one of each
    antipodal pair of the outer rule, as ``subsphere_frames`` lays them out
    (s+:4 at the default degrees is 180 KB, s+:5 3.5 MB); the sections read
    the body through them, and no point on a subsphere is built."""
    # the normals' frames are refused from the rule's node count, before any
    # rule is built
    check_frames(rule_size(n - 1, outer_degree) // 2, n)
    normals, weights = build_sphere_rule(n - 1, outer_degree).antipodal_half
    return weights, read_only(subsphere_frames(normals))


# ---------------------------------------------------------------------------
# radially symmetric measures


# the density integrals' fixed panels [jP, (j+1)P] and the nodes per panel
_PANEL = 0.5
_PANEL_NODES = 12
_erf = np.frompyfunc(math.erf, 1, 1)


def _gaussian_moment(m: int, u):
    """The integral of t^{m-1} exp(-t^2/2) over [0, u], elementwise for u >= 0.

    It starts from sqrt(pi/2) erf(u / sqrt 2) (m odd) or 1 - exp(-u^2/2)
    (m even) and steps up with I_m = (m-2) I_{m-2} - u^{m-2} exp(-u^2/2).  For
    u^2 < m that difference cancels, and the series of positive terms
    I_m = exp(-u^2/2) u^m sum_k u^{2k} / (m (m+2) ... (m+2k)) is used instead.
    """
    u = np.asarray(u, dtype=float)
    e = np.exp(-u * u / 2.0)
    if m % 2:
        out, start = math.sqrt(math.pi / 2.0) * _erf(u / math.sqrt(2.0)).astype(float), 1
    else:
        out, start = -np.expm1(-u * u / 2.0), 2
    for j in range(start, m - 1, 2):
        out = j * out - u ** j * e
    small = u * u < m
    if m >= 3 and np.any(small):
        us = u[small]
        term = total = np.full_like(us, 1.0 / m)
        k = 1
        while np.any(term > 1e-17 * total):
            term = term * (us * us) / (m + 2 * k)
            total = total + term
            k += 1
        out[small] = e[small] * us ** m * total
    return out


@dataclass(frozen=True)
class RadialDensityMeasure:
    """A measure with radially symmetric decreasing density.

    ``profile`` is the radial shape of the density; ``dim_weight(m)`` the
    normalizing constant used for m-dimensional integrals.  For the standard
    Gaussian the weight is (2 pi)^{-m/2}: the density on a hyperplane section
    differs from the ambient one by a factor sqrt(2 pi) per dimension.
    """

    name: str
    profile: object
    dim_weight: Callable = lambda m: 1.0

    def __post_init__(self):
        grid = np.linspace(0.0, 10.0, 1000)
        vals = np.asarray(self.profile(grid), dtype=float)
        if np.any(vals <= 0):
            raise DomainError("density must be positive")
        if np.any(np.diff(vals) > 1e-12 * vals[0]):
            raise DomainError("density must be radially decreasing")

    def radial_integral(self, space: SpaceSpec, m: int, upper):
        """Vectorized integral of profile(t) s_delta(t)^{m-1} dt over [0, upper],
        times the dimension weight.  The panel rule takes the points in blocks
        of ``_BLOCK_POINTS // _PANEL_NODES``, so that its node arrays stay as
        small as the product path's other temporaries."""
        upper = np.asarray(upper, dtype=float)
        scalar = upper.ndim == 0
        up = np.atleast_1d(upper)
        if self.profile is _gaussian_profile and space.delta == 0:
            out = _gaussian_moment(m, up)
        else:
            out = np.empty(len(up))
            step = max(1, _BLOCK_POINTS // _PANEL_NODES)
            for start in range(0, len(up), step):
                out[start:start + step] = self._panel_integral(space, m, up[start:start + step])
        out = self.dim_weight(m) * out
        return float(out[0]) if scalar else out

    def _panel_integral(self, space: SpaceSpec, m: int, up):
        """The integral of profile(t) s_delta(t)^{m-1} over [0, u] for each u of
        the 1-d array up: the whole panels below u, each summed once per call
        and prefix-summed, plus one rule over [floor(u / P) P, u].  One profile
        and one metric_sine call take every node.  A panel's value depends only
        on its index, and every row is summed on its own (not by a
        matrix-vector product, whose rounding of a row depends on the rows
        beside it), so a point's value does not depend on the batch."""
        x01, w01 = _panel_rule()
        k = np.floor(space.check_radius(up, name="upper") / _PANEL)
        panels = int(np.max(k, initial=0.0))
        lo = k * _PANEL
        width = up - lo
        # the nodes, filled in place: panel j's at (j + x01) P, then each
        # point's at lo + width x01
        t = np.empty((panels + len(up), len(x01)))
        np.add(np.arange(panels)[:, None], x01, out=t[:panels])
        t[:panels] *= _PANEL
        np.multiply(width[:, None], x01, out=t[panels:])
        t[panels:] += lo[:, None]
        # the products are taken in place, and each array is dropped once
        # used, which keeps the peak at three arrays of nodes
        f = np.asarray(self.profile(t), dtype=float)
        sm = metric_sine(space, t)
        del t
        sm **= m - 1
        sm *= f
        del f
        sm *= w01
        sums = np.sum(sm, axis=1)
        prefix = np.concatenate([[0.0], np.cumsum(_PANEL * sums[:panels])])
        return prefix[k.astype(np.intp)] + width * sums[panels:]


@lru_cache(maxsize=1)
def _panel_rule():
    """The ``_PANEL_NODES``-point Gauss-Legendre rule on [0, 1]."""
    t, w = gauss_jacobi(_PANEL_NODES, 0.0)
    return (t + 1.0) / 2.0, w / 2.0


def _gaussian_profile(r):
    """The standard Gaussian's radial shape; ``radial_integral`` knows its
    moments in closed form on e:n."""
    return np.exp(-np.asarray(r, dtype=float) ** 2 / 2.0)


def gaussian_measure() -> RadialDensityMeasure:
    return RadialDensityMeasure("gaussian", _gaussian_profile, lambda m: (2.0 * math.pi) ** (-m / 2.0))


def _radial(space: SpaceSpec, m: int, upper, mu: RadialDensityMeasure | None):
    if mu is None:
        return phi(space, m, upper)
    return mu.radial_integral(space, m, upper)


# ---------------------------------------------------------------------------
# evaluation paths, volume and sections


# the most points whose rho and radial primitive are evaluated at once: a
# float64 temporary of 16,000 points stays under glibc's 128 KB mmap threshold,
# so the block's temporaries reuse the heap instead of being mapped afresh
_BLOCK_POINTS = 16_000


class _Product:
    """The product path: the outer rule on S^{n-1} times the inner rule on each
    normal's subsphere.

    Every path holds one body and one config.  It has the volume, the
    ``point`` that stands for a normal xi, the ``sections`` at such points, and
    the ``rule()``: the outer weights with the points of the normals they
    weight.  xi and -xi cut the same section, so each rule takes one normal of
    each antipodal pair at twice its weight.  The functional sums the rule's
    section powers unless a path overrides it, and ``with_error`` estimates
    its error by the change at degrees + 8.  ``volume_and_functional`` is the
    two calls, unless a path can share their work.
    """

    def __init__(self, body: StarBody, config: QuadratureConfig):
        self.body, self.config, self.n = body, config, body.space.dim

    def volume(self, mu) -> float:
        # a symmetric body sums one node of each antipodal pair, at twice its weight
        rule = build_sphere_rule(self.n - 1, self.config.outer(self.n))
        nodes, weights = rule.antipodal_half if self.body.symmetric else (rule.nodes, rule.weights)
        return float(np.dot(weights, self._body_radial(mu, self.n, nodes)))

    def point(self, xi):
        """xi's frame, laid out as the rule's frames are."""
        return subsphere_frames(xi)

    def sections(self, mu, frames):
        """The inner rule on the subsphere of each normal in frames, summed by
        antipodal pairs, from the body's readings alone: <F v, c> = <v, F^T c>
        for a node v and a reading c, so no point is built.  One product takes
        every normal's F^T c; a block of normals' readings is written
        normal-major, one product per reading, into a reused array (negated in
        place for an asymmetric body's -u half), and its pair sums are one
        matrix-vector product: from rows at multiples of 16, each row rounds
        as in the whole matrix."""
        nodes, pair_weights = _inner_pairs(self.n, self.config.inner(self.n))
        if self.body.symmetric:
            # a node stands for both of its pair: twice the weight, which
            # rounds each product as doubling the radial value did
            pair_weights = 2.0 * pair_weights
        n, count, size_n = self.n, frames.shape[1] // self.n, len(nodes)
        reads = self.body.profile.reads
        # a ball's (0, 0) reads nothing in any dimension
        reads = reads if len(reads) else reads.reshape(0, n)
        k = len(reads)
        # the (k, n - 1, count) array of each reading's F^T c
        carried = np.matmul(reads, frames.reshape(-1, n).T).reshape(k, n - 1, count)
        rows = max(16, _BLOCK_POINTS // size_n // 16 * 16)
        out = np.empty(count)
        work = np.empty(k * size_n * min(rows, count))
        for start in range(0, count, rows):
            size = min(rows, count - start)
            readings = work[:k * size * size_n].reshape(k, size, size_n)
            for c, block in zip(carried, readings):
                np.matmul(c[:, start:start + size].T, nodes.T, out=block)
            t = readings.reshape(k, size * size_n).T
            radial = self._body_radial(mu, n - 1, t, self.body.rho_of)
            if not self.body.symmetric:
                np.negative(t, out=t)
                radial += self._body_radial(mu, n - 1, t, self.body.rho_of)
            np.matmul(radial.reshape(size, size_n), pair_weights, out=out[start:start + size])
        return out

    def rule(self):
        return _section_grid(self.n, self.config.outer(self.n), self.config.inner(self.n))

    def functional(self, mu, p: int) -> float:
        """The integral of section^p over the normals, not normalized."""
        weights, points = self.rule()
        return float(np.dot(weights, self.sections(mu, points) ** p))

    def volume_and_functional(self, mu, p: int):
        # the functional first: a grid whose frames are too many is refused
        # before the volume's rule is built
        functional = self.functional(mu, p)
        return self.volume(mu), functional

    def with_error(self, mu, p: int, norm: float):
        n, config = self.n, self.config
        val = _finite("functional", self.functional(mu, p) / norm)
        finer = replace(config, outer_degree=config.outer(n) + 8, inner_degree=config.inner(n) + 8)
        val2 = _finite("functional", _path(self.body, finer).functional(mu, p) / norm)
        return val2, abs(val2 - val) + 1e-15 * abs(val2)

    def _body_radial(self, mu, m: int, x, rho=None):
        """Radial primitives (of dimension m) of a non-indicator body at the
        unit directions along the last axis of x, or at the readings along
        it when rho is ``body.rho_of``: shape x.shape[:-1].  Every left side
        is a weighted sum of these.  More than ``_BLOCK_POINTS`` rows are
        evaluated a block at a time into one output."""
        rho = rho or self.body.rho
        flat = x if x.ndim == 2 else x.reshape(-1, x.shape[-1])
        if len(flat) <= _BLOCK_POINTS:
            return _radial(self.body.space, m, rho(flat), mu).reshape(x.shape[:-1])
        out = np.empty(len(flat))
        for start in range(0, len(flat), _BLOCK_POINTS):
            block = flat[start:start + _BLOCK_POINTS]
            out[start:start + len(block)] = _radial(self.body.space, m, rho(block), mu)
        return out.reshape(x.shape[:-1])


class _Zonal(_Product):
    """A body with a zonal axis in n >= 3, read at <u, axis> alone: c for the
    volume, sqrt(1 - c^2) t on xi-perp.  A section depends on c = <xi, axis>
    alone (Funk-Hecke), so 1-d polar rules take both; a point is c."""

    def volume(self, mu) -> float:
        c, w = polar_rule(self.n - 1, self.config.outer(self.n))
        return float(np.dot(w, self._body_radial(mu, self.n, c[:, None], self.body.rho_of)))

    def point(self, xi):
        return np.array([xi @ self.body.profile.zonal_axis(self.n)])

    def sections(self, mu, c):
        """On xi-perp, <u, axis> = sqrt(1 - c^2) t with t the polar coordinate
        of the subsphere, so one polar rule on S^{n-2} gives each section."""
        t, w = polar_rule(self.n - 2, self.config.inner(self.n))
        scale = np.sqrt(np.maximum(1.0 - c * c, 0.0))
        # the readings are taken a block of rows at a time, so a fine grid
        # never holds its (C, T) array; a small grid is one block
        rows = max(1, _BLOCK_POINTS // len(t))
        out = np.empty(len(scale))
        for start in range(0, len(scale), rows):
            s = scale[start:start + rows, None] * t
            # each of the few sections carries a large share of the weight, so
            # its rounding does not average out as over the product rule's many
            # nodes: sum the rows pairwise, more accurately than a matrix-vector
            # product
            out[start:start + len(s)] = np.sum(
                self._body_radial(mu, self.n - 1, s[..., None], self.body.rho_of) * w, axis=1)
        return out

    def rule(self):
        """The c >= 0 of the outer polar rule, each at twice its weight except
        c = 0: xi and -xi share |c|."""
        c, w = polar_rule(self.n - 1, self.config.outer(self.n))
        keep = c >= 0.0
        return np.where(c[keep] > 0.0, 2.0, 1.0) * w[keep], c[keep]


class _Indicator(_Zonal):
    """An indicator body over a band base, which has an axis: exact sections,
    the radial primitive of the height times the base's section measures at
    c, on the zonal path's outer rule."""

    # The base comes first: in a huge dimension its measure is the resource
    # refusal, and the height's radial primitive takes O(n) steps.  So the
    # volume, the base's measure, comes before the functional here.

    def volume_and_functional(self, mu, p: int):
        return self.volume(mu), self.functional(mu, p)

    def volume(self, mu) -> float:
        measure = self.body.profile.base.measure
        return float(self._height(mu, self.n)) * measure

    def sections(self, mu, points):
        measures = self.body.profile.base.section_measures(points)
        return float(self._height(mu, self.n - 1)) * measures

    def _height(self, mu, m: int):
        return _radial(self.body.space, m, self.body.profile.height, mu)


class _Arcs(_Indicator):
    """An indicator body over arcs of the circle, which have no axis: a point
    is the normal itself.  Its sections take the values 0, h and 2h on arcs,
    so the functional is a closed form that needs no outer rule, and the
    degree + 8 error estimate is 1e-15 relative."""

    def point(self, xi):
        return xi[None]

    def functional(self, mu, p: int) -> float:
        base = self.body.profile.base
        h = float(self._height(mu, 1))
        both = base.intersection_measure(base.reflected())
        single = 2.0 * (base.measure - both)
        return h ** p * single + (2.0 * h) ** p * both


class _Plane(_Product):
    """A plane body while ``plane_adaptive``: profiles in the plane may have
    corners (lunes, grid profiles), so the volume and the functional integrate
    the normal's polar angle by adaptive Gauss-Kronrod instead of the fixed
    circle rule, both in one run, and the error estimate is Gauss-Kronrod's,
    from the functional's own run.  Single sections are the product path's."""

    def volume(self, mu) -> float:
        return float(self._integrals(mu, None, volume=True)[0][0])

    def functional(self, mu, p: int) -> float:
        return float(self._integrals(mu, p)[0][0])

    def volume_and_functional(self, mu, p: int):
        values, _ = self._integrals(mu, p, volume=True)
        return float(values[0]), float(values[1])

    def with_error(self, mu, p: int, norm: float):
        values, errors = self._integrals(mu, p)
        return float(values[0]) / norm, float(errors[0]) / norm

    def _integrals(self, mu, p: int | None, volume: bool = False):
        """Values and error estimates of the rows asked for, from one
        Gauss-Kronrod run over the polar angle theta of the normal xi: the
        volume's (if ``volume``), then that of section^p (unless p is None).
        The subsphere of xi is the two points at theta +- pi/2, so rho is taken
        at theta + pi/2, and at theta - pi/2 as well for an asymmetric body; the
        volume integrates phi_2(rho) at the same points, and every row has its
        corners a quarter turn from the profile's.  Points are taken in blocks
        of ``_BLOCK_POINTS``."""
        space, rho = self.body.space, self.body.rho
        count = int(volume) + int(p is not None)

        def integrand(theta):
            out = np.empty((count, len(theta)))
            for start in range(0, len(theta), _BLOCK_POINTS):
                a = theta[start:start + _BLOCK_POINTS] + math.pi / 2
                dirs = np.empty((len(a), 2))
                np.cos(a, out=dirs[:, 0])
                np.sin(a, out=dirs[:, 1])
                radii = rho(dirs)
                rows = out[:, start:start + len(a)]
                if volume:
                    rows[0] = _radial(space, 2, radii, mu)
                if p is not None:
                    section = _radial(space, 1, radii, mu)
                    if self.body.symmetric:
                        section *= 2.0
                    else:
                        section += _radial(space, 1, rho(-dirs), mu)
                    rows[-1] = section ** p
            return out

        corners = self.body.profile.plane_corners()
        breaks = (np.concatenate([corners - math.pi / 2, corners + math.pi / 2]) % TWO_PI
                  if len(corners) else ())
        return integrate_vectorized(integrand, 0.0, TWO_PI, ANGULAR_TOL, breaks)


def _path(body: StarBody, config: QuadratureConfig) -> _Product:
    """The one path that every left side of this body takes under this config."""
    n = body.space.dim
    if body.is_indicator:
        # a band base has an axis, and arcs of the circle have none
        return (_Arcs if body.profile.zonal_axis(n) is None else _Indicator)(body, config)
    if n == 2:
        return (_Plane if config.plane_adaptive else _Product)(body, config)
    return (_Zonal if body.profile.zonal_axis(n) is not None else _Product)(body, config)


def _finite(name: str, value: float) -> float:
    """The value of a left side, which every public left side returns through
    here: ResourceLimitError when it is not a finite float, as when a large
    hyperbolic body's functional overflows."""
    if not math.isfinite(value):
        raise ResourceLimitError(f"the {name} is {value!r}, not a finite float")
    return value


def volume(body: StarBody, mu: RadialDensityMeasure | None = None,
           config: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """Volume (or mu-measure) of a star body, by sphere rule times radial primitive."""
    return _finite("volume", _path(body, config).volume(mu))


def section_volume(body: StarBody, xi, mu: RadialDensityMeasure | None = None,
                   config: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """Volume (or mu-measure) of the section by the hyperplane through the
    origin with unit normal xi; DomainError for any other xi.  It is the
    functional's section operator at one point."""
    path = _path(body, config)
    section = path.sections(mu, path.point(as_direction(xi, body.space.dim)))[0]
    return _finite("section volume", float(section))


def _power_and_norm(body: StarBody, normalized: bool, exponent: int | None):
    """The section power p (n by default) and the divisor, |S^{n-1}| or 1."""
    n = body.space.dim
    return (n if exponent is None else exponent), (sphere_surface_area(n - 1) if normalized else 1.0)


def busemann_functional(body: StarBody, mu: RadialDensityMeasure | None = None,
                        normalized: bool = False, exponent: int | None = None,
                        config: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """The section-power functional: integral over xi of section_volume^exponent.

    The exponent defaults to the ambient dimension n (the interesting case
    throughout); ``normalized`` divides by |S^{n-1}| so the xi-measure has
    total mass 1.
    """
    p, norm = _power_and_norm(body, normalized, exponent)
    return _finite("functional", _path(body, config).functional(mu, p) / norm)


def volume_and_functional(body: StarBody, mu: RadialDensityMeasure | None = None,
                          normalized: bool = False, exponent: int | None = None,
                          config: QuadratureConfig = DEFAULT_CONFIG):
    """``(volume(body, mu, config), busemann_functional(body, mu, normalized,
    exponent, config))``, the same bits, from one evaluation on the paths that
    can share it: the plane path takes both from one Gauss-Kronrod run, which
    evaluates rho once per node."""
    p, norm = _power_and_norm(body, normalized, exponent)
    vol, functional = _path(body, config).volume_and_functional(mu, p)
    return _finite("volume", vol), _finite("functional", functional / norm)


def busemann_functional_with_error(body: StarBody, mu=None, normalized: bool = False,
                                   exponent: int | None = None,
                                   config: QuadratureConfig = DEFAULT_CONFIG):
    """Functional value plus an error estimate: Gauss-Kronrod's on the plane
    path, the difference from degrees + 8 on the others (1e-15 relative for
    the arcs closed form, which no degree changes)."""
    value, error = _path(body, config).with_error(mu, *_power_and_norm(body, normalized, exponent))
    return _finite("functional", value), _finite("error estimate", error)


# ---------------------------------------------------------------------------
# special functions of the gnomonic radial coordinate


def g_hyperbolic(n: int, t):
    """G(t) = [F_{n-1}(F_n^{-1}(t))]^{n/(n-1)}; increasing and strictly concave.

    F_m(t) is the integral of r^{m-1} / (1 - r^2)^m over [0, t], t in [0, 1).
    The substitution r = tanh(s/2) makes it phi on h:m at s = 2 artanh t,
    divided by 2^m, so G is computed in the geodesic radius s.
    """
    if n < 2:
        raise DomainError("G requires n >= 2")
    arr = np.asarray(t, dtype=float)
    if np.any(arr < 0):
        raise DomainError("G is defined on [0, inf)")
    space = SpaceSpec(-1, max(n, 2))
    x = phi_inverse(space, n, 2.0 ** n * arr)
    inner = phi(space, n - 1, x) / 2.0 ** (n - 1)
    out = inner ** (n / (n - 1))
    return out if np.ndim(t) else float(out)


def h_hyperbolic(n: int, t):
    """H(t) = [G(t / (2^n |S^{n-1}|))]^{n-1}."""
    arr = np.asarray(t, dtype=float)
    out = np.asarray(g_hyperbolic(n, arr / (2.0 ** n * sphere_surface_area(n - 1)))) ** (n - 1)
    return out if np.ndim(t) else float(out)


def f_spherical_limit(n: int) -> float:
    """Supremum of the argument of the spherical comparison function."""
    return sin_power_primitive_full(n, math.pi) / 2.0 ** n


def f_spherical(n: int, v):
    """The concave spherical comparison function F, defined by
    F(integral of r^{n-1}/(1+r^2)^n) = integral of r^{n-2}/(1+r^2)^{n-1}.

    Both integrals reduce to sine-power primitives through r = tan(s/2); the
    inner one is inverted by a bracketed root solve.
    """
    arr = np.asarray(v, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    limit = f_spherical_limit(n)
    # written so that NaN fails it, as in SpaceSpec.check_radius
    if not np.all((arr >= 0) & (arr <= limit * (1 + 1e-12))):
        raise DomainError(f"argument must lie in [0, {limit!r}]")
    x = monotone_inverse(lambda s: sin_power_primitive_full(n, s), 2.0 ** n * np.minimum(arr, limit),
                         math.pi)
    # one point at a time: numpy's power of a 0-d array and of a longer one
    # may differ in the last bit
    out = np.array([sin_power_primitive_full(n - 1, xi) for xi in x]) / 2.0 ** (n - 1)
    return float(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# measures of centered balls and the concave comparison function


def psi(mu: RadialDensityMeasure, space: SpaceSpec, m: int, x):
    """mu-measure of the centered ball of radius x in the m-dimensional space."""
    return sphere_surface_area(m - 1) * mu.radial_integral(space, m, x)


def psi_inverse(mu: RadialDensityMeasure, space: SpaceSpec, m: int, y) -> float:
    if y < 0:
        raise DomainError("ball measures are nonnegative")
    out = monotone_inverse(lambda x: psi(mu, space, m, x), y, 1.0, 1e6,
                           InversionRangeError("value outside the range of the ball-measure function"))
    return float(out[0])


def big_psi(mu: RadialDensityMeasure, space: SpaceSpec, n: int, t) -> float:
    """The concave composite psi_{n-1}^{n/(n-1)} after psi_n^{-1}."""
    x = psi_inverse(mu, space, n, t)
    return psi(mu, space, n - 1, x) ** (n / (n - 1))


# ---------------------------------------------------------------------------
# closed-form constants and right-hand sides


def bound_constants(kind: str, n: int) -> float:
    """Closed-form constants of the main inequalities."""
    kappa = unit_ball_volume
    if kind == "busemann":
        if n < 2:
            raise DomainError("n >= 2 required")
        return n * kappa(n - 1) ** n / kappa(n) ** (n - 2)
    if kind == "hyperbolic":
        if n < 2:
            raise DomainError("n >= 2 required")
        return (
            sphere_surface_area(n - 1) ** (n - 1)
            * n ** 2
            * 2.0 ** (n * (n - 1))
            * (1.0 - 1.0 / n) ** n
            * kappa(n - 1) ** n
            / kappa(n) ** (n - 2)
        )
    if kind == "spherical-nonoptimal":
        if n < 2:
            raise DomainError("n >= 2 required")
        return 2.0 ** (n - 1) * n * kappa(n - 1) ** n / kappa(n) ** (n - 2)
    if kind == "spherical-min":
        if n < 3:
            raise DomainError("the sharp spherical minimum needs n >= 3")
        return 2.0 * math.exp(n * math.lgamma((n + 1) / 2.0) - (n + 1) * math.lgamma(n / 2.0))
    raise ApplicabilityError(f"unknown constant kind {kind!r}")


def stable_arccos_one_minus(u: float) -> float:
    """arccos(1 - u) with a series guard for tiny u (the direct form loses
    half the significant digits near u = 0)."""
    if u < 0:
        raise DomainError("u must be nonnegative")
    if u < 1e-8:
        return math.sqrt(2.0 * u) * (1.0 + u / 12.0 + 3.0 * u ** 2 / 160.0)
    return math.acos(max(-1.0, 1.0 - u))


_TANH_SINH_T_MAX = 3.5   # the weight at t = 3.5 is 3e-21
_TANH_SINH_H0 = 0.5
_TANH_SINH_LEVELS = 10


@lru_cache(maxsize=1)
def _tanh_sinh_levels():
    """The nested tanh-sinh rules on [-1, 1] (Takahasi & Mori, 1974), by level.

    Level L has step h = 0.5 / 2^L on t in [-3.5, 3.5] and node x = tanh(u),
    u = (pi/2) sinh t, with weight (pi/2) cosh t / cosh^2 u (times h); it
    reuses the nodes of level L - 1, so each level lists only its new t >= 0.
    A node is given by its distance 1 - |x| = 1 / (e^u cosh u) to the nearer
    end, which keeps the integrand's argument exact next to the endpoints.
    On [0, pi/2] that distance is the angle d = (pi/4) (1 - |x|) from either
    end, and a level keeps cos d and sin d, the cosines of its nodes next to
    0 and next to pi/2, with its step and weights.
    """
    levels = []
    for level in range(_TANH_SINH_LEVELS):
        h = _TANH_SINH_H0 / 2 ** level
        k = np.arange(round(_TANH_SINH_T_MAX / h) + 1)
        t = h * (k if level == 0 else k[k % 2 == 1])
        u = math.pi / 2.0 * np.sinh(t)
        d = math.pi / 4.0 * (1.0 / (np.exp(u) * np.cosh(u)))
        levels.append((h, read_only(np.cos(d)), read_only(np.sin(d)),
                       read_only(math.pi / 2.0 * np.cosh(t) / np.cosh(u) ** 2)))
    return levels


def lune_bound(vol: float) -> float:
    """16 * integral over [0, pi/2] of arctan^2(tan(vol/4) / cos(theta)).

    The integral has its own rule, not the left sides' quadrature: nested
    tanh-sinh levels, stopped from level 3 on when two successive levels
    agree to 1e-12 relative, which leaves an error near 1e-16 (the error
    squares from one level to the next).  The integrand turns over within
    tan(vol/4) of pi/2, where the rule's nodes cluster.
    """
    if not 0.0 < vol < TWO_PI:
        raise DomainError("lune volumes lie in (0, 2 pi)")
    tw = math.tan(vol / 4.0)

    def integrand(cos_theta):
        # arctan(tw / cos) = pi/2 - arctan(cos / tw), smooth up to the endpoint
        return (math.pi / 2.0 - np.arctan(cos_theta / tw)) ** 2

    total = previous = 0.0
    for level, (h, cos_d, sin_d, weights) in enumerate(_tanh_sinh_levels()):
        # theta = d next to 0 and pi/2 - d next to pi/2
        values = weights * (integrand(cos_d) + integrand(sin_d))
        if level == 0:
            values[0] /= 2.0   # t = 0 is one node, theta = pi/4
        total = total / 2.0 + h * float(np.sum(values))
        if level >= 3 and abs(total - previous) <= 1e-12 * abs(total):
            return 16.0 * (math.pi / 4.0) * total
        previous = total
    raise ConvergenceError("the tanh-sinh levels of the lune bound did not settle")

