"""Reference computations that only tests use: the quadrature side of the
great-subsphere Radon transform, and zonal harmonics at single directions.
Neither calls the library's quadrature module."""

import numpy as np

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
    """A zonal harmonic at one unit vector (a float) or at many (an array)."""
    out = h(np.atleast_2d(np.asarray(u, dtype=float)))
    return float(out[0]) if np.asarray(u).ndim == 1 else out
