"""Constant-curvature model spaces and their elementary metric functions.

The three spaces are encoded by the curvature sign ``delta``:
``-1`` the hyperbolic space, ``0`` the Euclidean space, ``+1`` the closed
hemisphere.  Geodesic radii live in ``[0, pi/2]`` on the hemisphere and in
``[0, inf)`` otherwise.  Everything here is a pure function of its inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InversionRangeError, ResourceLimitError, SolverError

HEMISPHERE_MAX_RADIUS = math.pi / 2

# sinh overflows near 710; keep a wide safety margin for phi/phi_inverse.
RADIUS_SAFETY_CAP = 350.0


@dataclass(frozen=True)
class SpaceSpec:
    """Curvature sign ``delta`` in {-1, 0, +1} plus dimension ``dim >= 2``."""

    delta: int
    dim: int

    def __post_init__(self):
        if self.delta not in (-1, 0, 1):
            raise DomainError(f"delta must be -1, 0 or +1, got {self.delta}")
        if int(self.dim) != self.dim or self.dim < 2:
            raise DomainError(f"dim must be an integer >= 2, got {self.dim}")

    @property
    def max_radius(self) -> float:
        return HEMISPHERE_MAX_RADIUS if self.delta == 1 else math.inf

    def check_radius(self, r, *, name: str = "r"):
        """Validate geodesic radii (scalar or array), returning them as ndarray.
        Each bound is written so that NaN fails it.

        A scalar comes back as a 0-d array, not a float: phi's Euclidean
        ``arr ** m`` then takes numpy's power ufunc, while a numpy float64
        would take libm's ``pow`` through numpy's scalar arithmetic, which
        differs in the last bit on some inputs."""
        arr = np.asarray(r, dtype=float)
        lo, hi = _extent(arr)
        if not lo >= 0:
            raise DomainError(f"{name} must be nonnegative")
        if self.delta == 1 and not hi <= HEMISPHERE_MAX_RADIUS + 1e-12:
            raise DomainError(f"{name} exceeds pi/2 on the hemisphere")
        if self.delta != 1 and not hi <= RADIUS_SAFETY_CAP:
            raise ResourceLimitError(f"{name} exceeds the float-safety radius cap")
        return arr


def _extent(arr: np.ndarray) -> tuple[float, float]:
    """The least and the greatest element of a float array, as floats, so that
    range checks are float comparisons: one conversion for a 0-d array, and
    min/max reductions, with no boolean temporaries, for a longer one.  NaN
    makes both NaN, so a bound written as ``not lo >= a`` or ``not hi <= b``
    fails it; an empty array gives (inf, -inf), which passes every bound."""
    if not arr.ndim:
        value = float(arr)
        return value, value
    return float(arr.min(initial=math.inf)), float(arr.max(initial=-math.inf))


def basis_vector(n: int, index: int = 0) -> np.ndarray:
    """The coordinate unit vector of R^n with its 1 at ``index`` (-1 for the
    last), built without the n x n identity: a huge n costs n floats."""
    e = np.zeros(n)
    e[index] = 1.0
    return e


def read_only(arr: np.ndarray) -> np.ndarray:
    """arr, made read-only."""
    arr.setflags(write=False)
    return arr


def as_direction(v, dim: int | None = None) -> np.ndarray:
    """Validate a unit vector (a point of the direction sphere S^{n-1})."""
    u = np.asarray(v, dtype=float)
    if u.ndim != 1:
        raise DomainError("direction must be a 1-d vector")
    if dim is not None and u.shape[0] != dim:
        raise DomainError(f"direction must have {dim} components, got {u.shape[0]}")
    norm = float(np.linalg.norm(u))
    if not abs(norm - 1.0) <= 1e-12:
        raise DomainError(f"direction must be unit length, |v| = {norm!r}")
    return u


def sphere_surface_area(m: int) -> float:
    """Surface measure of the unit sphere S^m in R^{m+1}; ResourceLimitError
    past m = 342, where Gamma((m + 1) / 2) overflows a float."""
    if m < 0:
        raise DomainError("sphere dimension must be >= 0")
    try:
        return 2.0 * math.pi ** ((m + 1) / 2) / math.gamma((m + 1) / 2)
    except OverflowError:
        raise ResourceLimitError(f"the area of S^{m} needs Gamma({(m + 1) / 2}), "
                                 "which overflows a float") from None


def unit_ball_volume(n: int) -> float:
    """Volume of the unit Euclidean ball in R^n; ResourceLimitError past
    n = 341, where Gamma(n / 2 + 1) overflows a float."""
    if n < 0:
        raise DomainError("dimension must be >= 0")
    try:
        return math.pi ** (n / 2) / math.exp(math.lgamma(n / 2 + 1))
    except OverflowError:
        raise ResourceLimitError(f"the volume of the unit ball in R^{n} needs Gamma({n / 2 + 1}), "
                                 "which overflows a float") from None


def metric_sine(space: SpaceSpec, r):
    """The metric coefficient s_delta(r): sin r, r or sinh r."""
    arr = space.check_radius(r)
    if space.delta == 1:
        out = np.sin(arr)
    elif space.delta == 0:
        out = arr.copy()
    else:
        out = np.sinh(arr)
    return out if out.ndim else float(out)


def _power(s, k: int):
    """s ** k with the bits an array's ** gives, for an array or a float64:
    s itself at k = 1, its square at k = 2, and numpy's power ufunc above,
    where a float64's ** would take libm's pow, which rounds otherwise."""
    return s if k == 1 else s * s if k == 2 else np.power(s, k)


def _sin_power_primitive(m: int, x):
    """Antiderivative of sin^{m-1} on [0, pi], vanishing at 0, by power reduction
    phi_j = (-sin^{j-2} x cos x + (j-2) phi_{j-2}) / (j-1) from phi_1 or phi_2,
    with sin x and cos x taken once.  phi_3 = (x - sin(2x) / 2) / 2 takes one
    sine, and is no less accurate than its step from phi_1.  A scalar is
    taken as a numpy float64, the type its first ufunc would return anyway."""
    x = np.asarray(x, dtype=float)[()]
    if m == 1:
        return x.copy()
    if m == 2:
        return 1.0 - np.cos(x)
    if m == 3:
        return (x - 0.5 * np.sin(2.0 * x)) / 2.0
    s, c = np.sin(x), np.cos(x)
    out = x.copy() if m % 2 else 1.0 - c
    for j in range(3 if m % 2 else 4, m + 1, 2):
        out = (-_power(s, j - 2) * c + (j - 2) * out) / (j - 1)
    return out


def _sinh_power_primitive(m: int, x):
    """The hyperbolic twin of ``_sin_power_primitive``:
    phi_j = (sinh^{j-2} x cosh x - (j-2) phi_{j-2}) / (j-1)."""
    x = np.asarray(x, dtype=float)[()]
    if m == 1:
        return x.copy()
    if m == 2:
        return np.cosh(x) - 1.0
    s, c = np.sinh(x), np.cosh(x)
    out = x.copy() if m % 2 else c - 1.0
    for j in range(3 if m % 2 else 4, m + 1, 2):
        out = (_power(s, j - 2) * c - (j - 2) * out) / (j - 1)
    return out


def phi(space: SpaceSpec, m: int, x):
    """Radial volume primitive: the integral of s_delta(t)^{m-1} for t in [0, x].

    Strictly increasing in ``x`` with ``phi(space, m, 0) == 0``.  Exact
    closed forms (power-reduction recursion) are used for every ``m``.
    """
    if m < 1:
        raise DomainError("m must be >= 1")
    arr = space.check_radius(x, name="x")
    if space.delta == 0:
        out = arr ** m / m
    elif space.delta == 1:
        out = _sin_power_primitive(m, arr)
    else:
        out = _sinh_power_primitive(m, arr)
    return out if out.ndim else float(out)


def sin_power_primitive_full(m: int, x):
    """phi for the sphere on the extended domain [0, pi].

    Needed by the gnomonic-coordinate special functions, which integrate past
    the hemisphere rim; not subject to the pi/2 radius check.
    """
    arr = np.asarray(x, dtype=float)
    lo, hi = _extent(arr)
    # written so that NaN fails it, as in SpaceSpec.check_radius
    if not (lo >= -1e-15 and hi <= math.pi + 1e-12):
        raise DomainError("x must lie in [0, pi]")
    out = _sin_power_primitive(m, arr)
    return out if out.ndim else float(out)


# Step cap of the Brent solver (scipy's ``brentq`` default).
_BRENT_MAXITER = 100


def brent_root(f, a: float, b: float, xtol: float, rtol: float) -> float:
    """A root of the scalar function f in [a, b] by Brent's method (Brent,
    *Algorithms for Minimization without Derivatives*, 1973, ch. 4).

    The steps and the stopping rule are those of scipy's ``brentq.c``,
    operation for operation, so the root is the same float that
    ``scipy.optimize.brentq(f, a, b, xtol=xtol, rtol=rtol)`` returns: the
    iterate is accepted once the bracket's half-width is below
    (xtol + rtol |x|) / 2.  Raises ValueError when f(a) and f(b) have the same
    sign or f returns NaN, and SolverError after ``_BRENT_MAXITER`` steps.
    """
    def value(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"the function value at {x!r} is NaN")
        return fx

    xpre, xcur = float(a), float(b)
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(_BRENT_MAXITER):
        if fpre != 0.0 and fcur != 0.0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate (inverse quadratic)
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = value(xcur)
    raise SolverError(f"Brent's method did not converge in {_BRENT_MAXITER} steps")


def monotone_inverse(f, y, hi: float, cap: float | None = None, error: Exception | None = None):
    """For each element of y, the x in [0, hi] with f(x) = y, f increasing with
    f(0) = 0; y = 0 gives 0.  Given a cap, hi doubles while f(hi) < y, and
    ``error`` is raised once it passes the cap.  Brent's method at xtol 1e-14,
    rtol 1e-15; returns a 1-d array.
    """
    arr = np.atleast_1d(np.asarray(y, dtype=float))
    out = np.empty_like(arr)
    for i, yi in enumerate(arr):
        if yi == 0.0:
            out[i] = 0.0
            continue
        top = hi
        while cap is not None and f(top) < yi:
            top *= 2.0
            if top > cap:
                raise error
        out[i] = brent_root(lambda x: f(x) - yi, 0.0, top, xtol=1e-14, rtol=1e-15)
    return out


def phi_inverse(space: SpaceSpec, m: int, y):
    """Inverse of ``phi`` in its first radial argument, by bracketed root solve."""
    arr = np.asarray(y, dtype=float)
    lo, hi = _extent(arr)
    if not lo >= 0:
        raise DomainError("phi values are nonnegative")
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    if space.delta == 1 and not hi <= phi(space, m, HEMISPHERE_MAX_RADIUS) * (1 + 1e-12):
        raise InversionRangeError("value exceeds phi at the hemisphere rim")

    # Closed-form inverses for the hot m = 2 case.
    if m == 2 and space.delta == 1:
        out = np.arccos(np.clip(1.0 - arr, -1.0, 1.0))
    elif m == 2 and space.delta == -1:
        out = np.arccosh(1.0 + arr)
    elif space.delta == 0:
        out = (m * arr) ** (1.0 / m)
    elif space.delta == 1:
        out = monotone_inverse(lambda t: phi(space, m, t), arr, HEMISPHERE_MAX_RADIUS)
    else:
        out = monotone_inverse(lambda t: phi(space, m, t), arr, 1.0, RADIUS_SAFETY_CAP,
                               ResourceLimitError("phi inverse exceeds the radius cap"))
    return float(out[0]) if scalar else out
