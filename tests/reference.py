"""Reference computations that only tests use: the quadrature side of the
great-subsphere Radon transform, zonal harmonics at single directions, and a
frozen copy of the adaptive Gauss-Kronrod integrator.  None of them calls the
library's quadrature module."""

import math

import numpy as np

from starsections.errors import ConvergenceError
from starsections.spaces import as_direction


def subsphere_basis(xi) -> np.ndarray:
    """An orthonormal basis of xi-perp, shape (n, n - 1), from the definition:
    the first n - 1 columns of the reflection H = I - 2 v v^T / (v^T v),
    v = xi - e_n, which sends e_n to xi; for xi = e_n, H = I."""
    xi = as_direction(xi)
    n = len(xi)
    v = xi.copy()
    v[-1] -= 1.0
    house = np.eye(n)
    if v @ v >= 1e-28:
        house -= 2.0 * np.outer(v, v) / (v @ v)
    return house[:, : n - 1]


def radon_quadrature(f, rule, xi) -> float:
    """Quadrature estimate of Rf(xi): the rule on S^{n-2} carried onto the great
    subsphere orthogonal to xi."""
    vals = np.asarray(f(rule.nodes @ subsphere_basis(xi).T), dtype=float)
    return float(np.dot(rule.weights, vals))


def eval_zonal(h, u):
    """A zonal harmonic at one unit vector (a float) or at many (an array),
    read at <u, axis>."""
    out = h.at(np.atleast_2d(np.asarray(u, dtype=float)) @ h.axis)
    return float(out[0]) if np.asarray(u).ndim == 1 else out


# ---------------------------------------------------------------------------
# The adaptive Gauss-Kronrod integrator as it stood before its bookkeeping was
# done once per round: ``_Row`` and ``integrate_vectorized`` copied verbatim,
# in numpy and math alone (the starting panels' edges are built in place of
# the library's cached ones).  The library's integrator must return the same
# bits, and raise the same errors, as this one.

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
    edges = np.linspace(a, b, _GK_PANELS + 1)
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
