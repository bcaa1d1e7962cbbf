"""Zonal spherical harmonics and the great-subsphere (Funk) Radon transform.

The transform R maps a function f on S^{n-1} to its integrals over great
subspheres, Rf(xi) = integral of f over S^{n-1} cut by xi-perp.  On spherical
harmonics of even degree k it acts as multiplication by an eigenvalue
lambda_k; odd degrees are annihilated.  Only zonal harmonics are provided:
zonality is preserved by R and suffices for every check in this library.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import DomainError, UnsupportedDimensionError
from .quadrature import polar_rule
from .spaces import as_direction, read_only


def gegenbauer(k: int, lam: float, t):
    """Gegenbauer polynomial C_k^lam(t) by upward recurrence (stable for small k)."""
    t = np.asarray(t, dtype=float)
    prev = np.ones_like(t)
    if k == 0:
        return prev
    cur = 2.0 * lam * t
    for j in range(2, k + 1):
        prev, cur = cur, (2.0 * t * (j + lam - 1.0) * cur - (j + 2.0 * lam - 2.0) * prev) / j
    return cur


@lru_cache(maxsize=None)
def _zonal_scale(n: int, k: int) -> float:
    """1 / L2-norm of the raw zonal polynomial on S^{n-1}, computed by quadrature.

    Quadrature (the polar rule, exact at degree >= 2k) rather than a closed
    form: the scale is then self-consistent with the rules used downstream,
    and a whole class of constant-factor bugs disappears.
    """
    t, w = polar_rule(n - 1, max(2 * k + 2, 8))
    norm_sq = float(np.dot(w, gegenbauer(k, (n - 2) / 2.0, t) ** 2))
    return 1.0 / math.sqrt(norm_sq)


@dataclass(frozen=True)
class ZonalHarmonic:
    """Degree-k zonal harmonic on S^{n-1} about ``axis``, unit L2 norm."""

    ambient_dim: int
    degree: int
    axis: np.ndarray
    _scale: float = field(init=False, repr=False)

    def __post_init__(self):
        if self.ambient_dim < 3:
            raise UnsupportedDimensionError("zonal harmonics require ambient dimension >= 3")
        if self.degree < 0:
            raise DomainError("degree must be >= 0")
        object.__setattr__(self, "axis", read_only(as_direction(self.axis, self.ambient_dim).copy()))
        object.__setattr__(self, "_scale", _zonal_scale(self.ambient_dim, self.degree))

    def at(self, t):
        """The harmonic at every unit u with <u, axis> = t."""
        return self._scale * gegenbauer(self.degree, (self.ambient_dim - 2) / 2.0, t)


def radon_multiplier(n: int, k: int) -> float:
    """Eigenvalue lambda_k of the transform R on degree-k harmonics on S^{n-1}.

    lambda_k = (-1)^{k/2} 2 pi^{(n-2)/2} Gamma((k+1)/2) / Gamma((n+k-1)/2)
    for even k, and 0 for odd k.  The normalization (integration against raw
    subsphere arclength) is anchored by lambda_0 = |S^{n-2}|.
    """
    if n == 2:
        raise UnsupportedDimensionError(
            "n = 2 sections are two-point evaluations, not integrals; multipliers undefined"
        )
    if n < 3:
        raise UnsupportedDimensionError("ambient dimension must be >= 3")
    if k < 0:
        raise DomainError("degree must be >= 0")
    if k % 2 == 1:
        return 0.0
    log_mag = (
        math.log(2.0)
        + (n - 2) / 2.0 * math.log(math.pi)
        + math.lgamma((k + 1) / 2.0)
        - math.lgamma((n + k - 1) / 2.0)
    )
    sign = -1.0 if (k // 2) % 2 else 1.0
    return sign * math.exp(log_mag)
