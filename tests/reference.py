"""Reference computations that only tests use: the quadrature side of the
great-subsphere Radon transform, and zonal harmonics at single directions."""

import numpy as np

from starsections.quadrature import subsphere_nodes
from starsections.spaces import as_direction


def radon_quadrature(f, rule, xi) -> float:
    """Quadrature estimate of Rf(xi): the rule on S^{n-2} carried onto the great
    subsphere orthogonal to xi."""
    vals = np.asarray(f(subsphere_nodes(rule.nodes, as_direction(xi)[None])[0]), dtype=float)
    return float(np.dot(rule.weights, vals))


def eval_zonal(h, u):
    """A zonal harmonic at one unit vector (a float) or at many (an array)."""
    out = h(np.atleast_2d(np.asarray(u, dtype=float)))
    return float(out[0]) if np.asarray(u).ndim == 1 else out
