"""Quadrature on unit spheres, on great subspheres, and on radial intervals.

Sphere rules are products of Gauss-Jacobi rules in the polar coordinate with
a recursive lower-dimensional rule, bottoming out at a uniform rule on the
circle.  Exactness is by construction: a rule of declared degree d integrates
every polynomial of total degree <= d restricted to the sphere.  Functions of
<u, e> alone integrate over the polar factor only (``polar_rule``).

Rules are immutable after construction.  Summation over nodes goes through
``numpy`` dot/sum reductions, which use pairwise summation over the fixed
node ordering, so repeated evaluations are bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import ConvergenceError, DomainError, ResourceLimitError
from .spaces import read_only, sphere_surface_area

# The most nodes a sphere rule may have, and the most entries of the dense
# Jacobi matrix that ``gauss_jacobi`` builds (2000 nodes, 32 MB).
NODE_CAP = 4_000_000

# Default polynomial degrees: high on the circle where nodes are cheap,
# moderate on S^2 and S^3 to keep nested outer/inner loops fast.
DEFAULT_DEGREES = {1: 47}
DEFAULT_DEGREE_HIGHER = 23


def default_degree(m: int) -> int:
    return DEFAULT_DEGREES.get(m, DEFAULT_DEGREE_HIGHER)


@dataclass(frozen=True)
class SphereRule:
    """Nodes and positive weights on S^dim, exact for the polynomials of the
    degree ``build_sphere_rule`` was given."""

    dim: int
    nodes: np.ndarray      # (N, dim + 1), unit rows
    weights: np.ndarray    # (N,)

    def __post_init__(self):
        self.nodes.setflags(write=False)
        self.weights.setflags(write=False)

    def __len__(self) -> int:
        return self.nodes.shape[0]

    @cached_property
    def antipodal_half(self):
        """(nodes, weights): one node of each antipodal pair {x, -x}, the one
        whose first nonzero coordinate is positive, at twice its weight; the
        rule on even functions at half the nodes.

        Every rule that ``build_sphere_rule`` makes is antipodal to the bit (the
        circle rule's second half negates its first, the polar Gauss-Jacobi
        factor is symmetric), so the pair's weights agree exactly.
        """
        first = self.nodes[np.arange(len(self)), np.argmax(self.nodes != 0.0, axis=1)]
        keep = first > 0.0
        return read_only(self.nodes[keep]), read_only(2.0 * self.weights[keep])


def gauss_jacobi(npts: int, a: float):
    """Nodes and weights of the npts-point Gauss rule for the weight
    (1 - t^2)^a on [-1, 1], a > -1/2 (a = 0 is Gauss-Legendre).

    The orthogonal polynomials are the Gegenbauer C_k^lam, lam = a + 1/2.
    The nodes start as the eigenvalues of their Jacobi matrix (Golub & Welsch,
    *Math. Comp.* 23, 1969) and take one Newton step on the three-term
    recurrence; the weights are w_i ~ 1 / ((1 - t_i^2) C_npts'(t_i)^2), scaled
    to the weight's total mass.  Both run in ``numpy.longdouble``: in doubles
    the recurrence's rounding and the rounding of the nodes put errors of up to
    1e-13 into the weights next to +-1 (eigenvector weights are off by 1e-12).
    ResourceLimitError, before anything is allocated, when npts^2 exceeds
    ``NODE_CAP``, and when the weight's mass overflows a float (a >= 85).
    """
    if npts * npts > NODE_CAP:
        raise ResourceLimitError(f"a {npts}-point Gauss-Jacobi rule needs a {npts} x {npts} matrix, "
                                 f"cap is {NODE_CAP} entries")
    try:
        mass = 2.0 ** (2 * a + 1) * math.gamma(a + 1) ** 2 / math.gamma(2 * a + 2)
    except OverflowError:
        raise ResourceLimitError(f"the mass of the weight (1 - t^2)^{a} overflows a float") from None
    lam = a + 0.5
    k = np.arange(1.0, npts)
    offdiag = np.sqrt(k * (k + 2 * lam - 1) / (4 * (k + lam) * (k + lam - 1)))
    t = np.linalg.eigvalsh(np.diag(offdiag, -1)).astype(np.longdouble)

    def value_and_derivative(t):
        """(C_npts(t), C_npts'(t)) by the upward recurrence."""
        prev, cur = np.ones_like(t), 2 * lam * t
        for j in range(2, npts + 1):
            prev, cur = cur, (2 * (j + lam - 1) * t * cur - (j + 2 * lam - 2) * prev) / j
        return cur, (-npts * t * cur + (npts + 2 * lam - 1) * prev) / (1 - t * t)

    top, dtop = value_and_derivative(t)
    t = t - top / dtop
    _, dtop = value_and_derivative(t)
    w = 1.0 / ((1 - t * t) * dtop * dtop)
    x, w = t.astype(float), w.astype(float)
    w = (w + w[::-1]) / 2
    x = (x - x[::-1]) / 2
    return x, w * (mass / w.sum())


def _circle_count(degree: int) -> int:
    """The node count of ``_circle_rule(degree)``."""
    return max(degree + 2 - degree % 2, 4)


def _circle_rule(degree: int) -> SphereRule:
    """degree + 1 equally spaced nodes, rounded up to an even count (at least 4),
    the second half the exact negation of the first.  ResourceLimitError,
    before anything is allocated, for more than ``NODE_CAP`` nodes."""
    n = _circle_count(degree)
    if n > NODE_CAP:
        raise ResourceLimitError(f"rule would need {n} nodes, cap is {NODE_CAP}")
    angles = 2 * math.pi * np.arange(n // 2) / n
    half = np.column_stack([np.cos(angles), np.sin(angles)])
    nodes = np.concatenate([half, -half])
    weights = np.full(n, 2 * math.pi / n)
    return SphereRule(1, nodes, weights)


_POINT_PAIR = SphereRule(0, np.array([[1.0], [-1.0]]), np.array([1.0, 1.0]))


def rule_size(m: int, degree: int) -> int:
    """The node count of ``build_sphere_rule(m, degree)``, m >= 1, found
    without building the rule."""
    return ((degree + 2) // 2) ** (m - 1) * _circle_count(degree)


@lru_cache(maxsize=None)
def build_sphere_rule(m: int, degree: int) -> SphereRule:
    """Construct a quadrature rule on S^m exact for polynomials of degree <= degree.

    m = 0 is the two-point sphere (needed for sections in the plane),
    m = 1 the uniform circle rule, and m >= 2 a polar Gauss-Jacobi rule of
    weight (1 - t^2)^{(m-2)/2} producted with a recursive S^{m-1} rule.
    ResourceLimitError for a rule of more than ``NODE_CAP`` nodes.
    """
    if m < 0:
        raise DomainError("sphere dimension must be >= 0")
    if m == 0:
        return _POINT_PAIR
    if degree < 1:
        raise DomainError("degree must be >= 1")
    if m == 1:
        return _circle_rule(degree)

    npolar = (degree + 2) // 2
    # the count is checked before the S^{m-1} factor is built and cached
    count = rule_size(m, degree)
    if count > NODE_CAP:
        raise ResourceLimitError(f"rule would need {count} nodes, cap is {NODE_CAP}")
    sub = build_sphere_rule(m - 1, degree)
    t, wt = gauss_jacobi(npolar, (m - 2) / 2.0)

    s = np.sqrt(1.0 - t ** 2)
    nodes = np.empty((count, m + 1))
    nodes[:, 0] = np.repeat(t, len(sub))
    nodes[:, 1:] = np.repeat(s, len(sub))[:, None] * np.tile(sub.nodes, (npolar, 1))
    weights = np.repeat(wt, len(sub)) * np.tile(sub.weights, npolar)
    return SphereRule(m, nodes, weights)


@lru_cache(maxsize=None)
def polar_rule(m: int, degree: int):
    """Read-only nodes t and weights w on [-1, 1] with sum w f(t) equal to the
    integral of f(<u, e>) over u in S^m, for any unit e and every polynomial f
    of degree <= degree.

    For m >= 2 this is the polar factor of ``build_sphere_rule(m, degree)``
    times |S^{m-1}|, so degrees map to node counts as there; for m = 1 (whose
    weight (1 - t^2)^{-1/2} ``gauss_jacobi`` refuses) the first coordinates of
    the circle rule.  ResourceLimitError past ``gauss_jacobi``'s cap of 2000
    nodes for m >= 2 (degree 3998), and past ``NODE_CAP`` nodes for m = 1.
    """
    if m < 1:
        raise DomainError("polar rules need sphere dimension >= 1")
    if degree < 1:
        raise DomainError("degree must be >= 1")
    if m == 1:
        rule = _circle_rule(degree)
        t, w = rule.nodes[:, 0].copy(), rule.weights.copy()
    else:
        t, w = gauss_jacobi((degree + 2) // 2, (m - 2) / 2.0)
        w = w * sphere_surface_area(m - 1)
    return read_only(t), read_only(w)


def check_frames(count: int, n: int) -> None:
    """ResourceLimitError when ``householder_frames`` of count normals in R^n
    would hold more than ``NODE_CAP`` entries in its n x n reflections."""
    if count * n * n > NODE_CAP:
        raise ResourceLimitError(f"{count} frames in R^{n} need {count * n * n} entries, cap is {NODE_CAP}")


def householder_frames(xis: np.ndarray) -> np.ndarray:
    """Orthonormal bases of xi-perp, shape (D, n, n - 1) for D unit normals: the
    first n - 1 columns of the reflection I - 2 v v^T / |v|^2, v = xi - e_n,
    which sends e_n to xi.

    Deterministic completion: for xi = e_n it returns (e_1, ..., e_{n-1}).
    Only the kept columns are built, each entry delta_ij - (2 v_i v_j) / |v|^2
    in one pass per column, into an (n - 1, D, n) array of which the result
    is a view; no n x n reflection exists.  ResourceLimitError, before
    anything is allocated, when the D n x n reflections would hold more than
    ``NODE_CAP`` entries.
    """
    xis = np.asarray(xis, dtype=float)
    count, n = xis.shape
    check_frames(count, n)
    v = xis.copy()
    v[:, -1] -= 1.0
    norm2 = np.einsum("ij,ij->i", v, v)
    identity = ~(norm2 >= 1e-28)
    norm2[identity] = 1.0       # those columns are the identity's
    columns = np.empty((n - 1, count, n))
    eye = np.eye(n)
    for j, column in enumerate(columns):
        np.multiply(v, v[:, j, None], out=column)
        column *= 2.0
        column /= norm2[:, None]
        np.subtract(eye[j], column, out=column)
        column[identity] = eye[j]
    return columns.transpose(1, 2, 0)


def subsphere_frames(xis) -> np.ndarray:
    """The frames of D unit normals xi in R^n laid side by side, one (n - 1, D n)
    matrix: column d n + j holds row j of xi_d's frame F, whose columns span
    xi_d-perp, so F carries a node v on S^{n-2} onto the great subsphere of
    S^{n-1} orthogonal to xi_d.  A reading <F v, c> of that point is
    <v, F^T c>, and frames.reshape(n - 1, D, n) @ c holds every F^T c at once,
    so the product path reads the subspheres without building their points.

    The frames are refused, as ``householder_frames`` refuses them, before
    anything of the size of the nodes' image is allocated; the matrix is the
    array that ``householder_frames`` writes, reshaped without a copy.
    """
    xis = np.atleast_2d(np.asarray(xis, dtype=float))
    if not np.all(np.abs(np.linalg.norm(xis, axis=1) - 1.0) <= 1e-12):
        raise DomainError("subsphere normals must be unit vectors")
    return householder_frames(xis).transpose(2, 0, 1).reshape(xis.shape[1] - 1, -1)


# Gauss-Kronrod 10/21 rule on [-1, 1] (QUADPACK dqk21): Kronrod nodes from the
# left end to the centre, their weights, and the 10-point Gauss weights of the
# nodes it shares (every second node); the right half mirrors the left.
_GK21_HALF_NODES = np.array([
    -0.995657163025808080735527280689003, -0.973906528517171720077964012084452,
    -0.930157491355708226001207180059508, -0.865063366688984510732096688423493,
    -0.780817726586416897063717578345042, -0.679409568299024406234327365114874,
    -0.562757134668604683339000099272694, -0.433395394129247190799265943165784,
    -0.294392862701460198131126603103866, -0.148874338981631210884826001129720,
    0.0,
])
_GK21_HALF_WEIGHTS = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
])
_G10_HALF_WEIGHTS = np.array([
    0.0, 0.066671344308688137593568809893332, 0.0, 0.149451349150580593145776339657697,
    0.0, 0.219086362515982043995534934228163, 0.0, 0.269266719309996355091226921569469,
    0.0, 0.295524224714752870173892994651338, 0.0,
])
_GK21_NODES = np.concatenate([_GK21_HALF_NODES, -_GK21_HALF_NODES[-2::-1]])
_GK21_WEIGHTS = np.concatenate([_GK21_HALF_WEIGHTS, _GK21_HALF_WEIGHTS[-2::-1]])
_G10_WEIGHTS = np.concatenate([_G10_HALF_WEIGHTS, _G10_HALF_WEIGHTS[-2::-1]])
_GK_PANELS = 8
_GK_MAX_INTERVALS = 4000
_EPS = float(np.finfo(float).eps)


@lru_cache(maxsize=8)
def _panel_edges(a: float, b: float) -> np.ndarray:
    """The edges of the 8 equal starting panels of [a, b], read-only."""
    return read_only(np.linspace(a, b, _GK_PANELS + 1))


class _Row:
    """One integrand of ``integrate_vectorized``: its scaled tolerance, and
    its accepted intervals' count, Kronrod values and error estimates."""

    __slots__ = ("tol", "accepted", "values", "errors")

    def __init__(self, tol):
        self.tol, self.accepted, self.values, self.errors = tol, 0, [], []

    def round(self, y, half, a, b, floor):
        """Accept or bisect each pending interval from its 21 values y and its
        half-length; returns the mask of those to bisect."""
        kronrod = half * (y @ _GK21_WEIGHTS)
        err = np.abs(kronrod - half * (y @ _G10_WEIGHTS))
        # a NaN error stops refinement at once; the final check rejects it
        split = (err > self.tol * (2.0 * half) / (b - a)) & (2.0 * half > floor)
        more = np.count_nonzero(split)
        if more and self.accepted + len(half) + more > _GK_MAX_INTERVALS:
            split[:] = more = False
        self.accepted += len(half) - more
        done = ~split if more else slice(None)   # every interval accepted: no copies
        self.values.append(kronrod[done])
        self.errors.append(err[done])
        return split

    def result(self, index: int):
        """(value, error estimate); ConvergenceError, naming the row, past the
        tolerance."""
        values, errors = ((self.values[0], self.errors[0]) if len(self.values) == 1
                          else (np.concatenate(self.values), np.concatenate(self.errors)))
        value = math.fsum(values.tolist())
        err_total = math.fsum(errors.tolist()) + 50.0 * _EPS * math.fsum(np.abs(values).tolist())
        if not err_total <= max(50.0 * self.tol, 1e-9 * abs(value)):
            raise ConvergenceError(f"adaptive quadrature stalled in row {index}: estimated error "
                                   f"{err_total:.3e} > tol {self.tol:.3e}")
        return value, err_total


def integrate_vectorized(f, a: float, b: float, tol: float = 1e-12, breaks=()):
    """Adaptive Gauss-Kronrod 10/21 integrals of a vectorized f over [a, b],
    a < b.

    ``f`` maps a 1-d array of N points to a (k, N) array: k integrands on the
    same points, its rows.  The first intervals
    are 8 equal ones, cut further at each point of ``breaks`` (known corners
    of f, as QUADPACK's qagp takes them) that lies strictly inside (a, b) and
    farther than 1e-12 (b - a) from their edges and from the break before it.
    ``tol`` is relative to the integral's magnitude as the first round sees
    it: each row runs to tol * max(1, (b - a) * max |f|), the maximum taken
    over that row's values on the first round's nodes (as QUADPACK's qag
    scales by a magnitude its rule already holds, with no separate pass).  An
    interval is accepted when |K21 - G10| <= that tolerance * length / (b - a)
    and bisected otherwise.  Intervals shorter than 1e-12 (b - a), and every
    pending interval once 4000 intervals would be exceeded, are accepted as
    they stand.

    Each row keeps its own scale, cap and final check.  The rows share one
    list of pending intervals, with a (rows x intervals) mask of the rows
    that hold each; a round evaluates the 21 Kronrod nodes of every listed
    interval in one call of ``f``, and rounds go on while any row bisects
    one.  The next list holds the left halves of the intervals that any row
    bisects, then their right halves: restricted to one row, that is the
    order its run alone would hold them.  A row sums the values of its own
    intervals in that order (a matrix-vector product may round a row by its
    place in the batch), so each row's value and estimate equal that row
    integrated alone, bit for bit.

    Returns arrays ``(values, errors)`` of length k: each row's exactly
    rounded sum of its accepted Kronrod values, and the sum of their
    |K21 - G10| plus QUADPACK's roundoff floor 50 eps * sum of |K21|.  Raises
    :class:`ConvergenceError` when a row's estimate exceeds max(50 tolerance,
    1e-9 |value|).
    """
    floor = 1e-12 * (b - a)
    edges = _panel_edges(a, b)
    if len(breaks):
        cuts = np.sort(np.asarray(breaks, dtype=float).ravel())
        cuts = cuts[(cuts > a) & (cuts < b)]
        cuts = cuts[np.min(np.abs(cuts[:, None] - edges), axis=1) > floor]
        cuts = cuts[np.diff(cuts, prepend=-np.inf) > floor]
        edges = np.sort(np.concatenate([edges, cuts]))
    rows = []
    lo, hi = edges[:-1], edges[1:]
    # the rows still bisecting, and a (live rows x intervals) mask of the rows
    # that hold each interval: None while each holds every one, as one row does
    live, held = [], None
    while True:
        centre, half = (lo + hi) / 2.0, (hi - lo) / 2.0
        x = centre[:, None] + half[:, None] * _GK21_NODES
        y = np.asarray(f(x.ravel()), dtype=float).reshape(-1, *x.shape)
        if not rows:
            rows = [_Row(tol * max(1.0, (b - a) * float(np.max(np.abs(yr))))) for yr in y]
            live = list(enumerate(rows))
        if held is None:
            split = [row.round(y[r], half, a, b, floor) for r, row in live]
        else:
            split = np.zeros_like(held)
            for s, h, (r, row) in zip(split, held, live):
                s[h] = row.round(y[r][h], half[h], a, b, floor)
        if not any(map(np.count_nonzero, split)):
            break
        bisect = split[0] if len(live) == 1 else np.any(split, axis=0)
        mid = centre[bisect]
        lo, hi = np.concatenate([lo[bisect], mid]), np.concatenate([mid, hi[bisect]])
        if len(live) > 1:
            keep = np.asarray(split)[:, bisect]
            going = keep.any(axis=1)
            live, keep = [lr for lr, g in zip(live, going) if g], keep[going]
            held = None if keep.all() else np.concatenate([keep, keep], axis=1)
    values, errors = np.array([row.result(r) for r, row in enumerate(rows)]).T
    return values, errors
