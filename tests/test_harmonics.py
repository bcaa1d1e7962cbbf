import math

import numpy as np
import pytest

from starsections.errors import UnsupportedDimensionError
from starsections.harmonics import ZonalHarmonic, radon_multiplier
from starsections.quadrature import build_sphere_rule
from starsections.spaces import sphere_surface_area

from reference import eval_zonal, radon_quadrature

EZ = np.array([0.0, 0.0, 1.0])


def l2_bound_sides(f, outer_rule, inner_rule):
    """Both sides of ||Rf||_{L2} <= |S^{n-2}| ||f||_{L2}, by quadrature."""
    rf = np.array([radon_quadrature(f, inner_rule, xi) for xi in outer_rule.nodes])
    lhs = math.sqrt(float(np.dot(outer_rule.weights, rf ** 2)))
    fv = np.asarray(f(outer_rule.nodes), dtype=float)
    rhs = sphere_surface_area(outer_rule.dim - 1) * math.sqrt(float(np.dot(outer_rule.weights, fv ** 2)))
    return lhs, rhs


class TestZonalHarmonics:
    def test_constant(self):
        h = ZonalHarmonic(3, 0, EZ)
        # normalized constant on S^2 is 1 / sqrt(4 pi)
        assert eval_zonal(h, np.array([1.0, 0.0, 0.0])) == pytest.approx(
            1 / math.sqrt(4 * math.pi), abs=1e-12
        )

    def test_degree_two_at_equator(self):
        h = ZonalHarmonic(3, 2, EZ)
        # normalized Legendre P2 at t = 0: -(1/2) sqrt(5 / 4 pi)
        assert eval_zonal(h, np.array([0.0, 1.0, 0.0])) == pytest.approx(
            -0.5 * math.sqrt(5 / (4 * math.pi)), abs=1e-12
        )

    def test_even_parity(self):
        h = ZonalHarmonic(3, 2, EZ)
        u = np.array([0.48, -0.6, math.sqrt(1 - 0.48 ** 2 - 0.36)])
        assert eval_zonal(h, u) == pytest.approx(eval_zonal(h, -u), abs=1e-14)

    @pytest.mark.parametrize("n,k", [(3, 2), (3, 6), (4, 2), (4, 4), (5, 4)])
    def test_unit_norm_and_zero_mean(self, n, k):
        h = ZonalHarmonic(n, k, np.eye(n)[-1])
        rule = build_sphere_rule(n - 1, 2 * k + 1)
        norm_sq = float(np.dot(rule.weights, h.at(rule.nodes @ h.axis) ** 2))
        assert abs(math.sqrt(norm_sq) - 1.0) < 1e-8
        assert abs(rule.weights @ h.at(rule.nodes @ h.axis)) < 1e-9

    def test_zonality(self):
        # the value depends on the direction only through its axis component
        rng = np.random.default_rng(0)
        h = ZonalHarmonic(4, 4, np.eye(4)[-1])
        for _ in range(20):
            t = rng.uniform(-1.0, 1.0)
            s = math.sqrt(1.0 - t * t)
            w1, w2 = rng.normal(size=(2, 3))
            u = np.concatenate([w1 / np.linalg.norm(w1) * s, [t]])
            v = np.concatenate([w2 / np.linalg.norm(w2) * s, [t]])
            assert eval_zonal(h, u) == pytest.approx(eval_zonal(h, v), abs=1e-12)


class TestMultipliers:
    def test_anchors(self):
        assert radon_multiplier(3, 0) == pytest.approx(2 * math.pi, rel=1e-14)
        assert radon_multiplier(3, 2) == pytest.approx(-math.pi, rel=1e-14)
        assert radon_multiplier(3, 1) == 0.0
        assert radon_multiplier(3, 4) == pytest.approx(3 * math.pi / 4, rel=1e-14)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_lambda0_is_subsphere_area(self, n):
        assert radon_multiplier(n, 0) == pytest.approx(sphere_surface_area(n - 2), rel=1e-13)

    @pytest.mark.parametrize("n", [3, 4])
    def test_strict_decay_through_30(self, n):
        mags = [abs(radon_multiplier(n, k)) for k in range(0, 31, 2)]
        assert all(a > b for a, b in zip(mags, mags[1:]))
        assert mags[-1] < mags[0] / 3

    def test_odd_zero(self):
        assert all(radon_multiplier(4, k) == 0.0 for k in range(1, 16, 2))

    def test_plane_unsupported(self):
        with pytest.raises(UnsupportedDimensionError):
            radon_multiplier(2, 2)


class TestRadonQuadrature:
    def test_constant_gives_subsphere_measure(self):
        rule = build_sphere_rule(1, 23)
        for xi in (np.array([0.0, 0.0, 1.0]), np.array([0.6, 0.8, 0.0])):
            val = radon_quadrature(lambda u: np.ones(len(u)), rule, xi)
            assert val == pytest.approx(2 * math.pi, rel=1e-12)

    def test_odd_function_annihilated(self):
        rule = build_sphere_rule(1, 23)
        f = lambda u: u[:, 0] * (1.0 + u[:, 2] ** 2)  # noqa: E731
        for xi in build_sphere_rule(2, 7).nodes:
            assert abs(radon_quadrature(f, rule, xi)) < 1e-12

    @pytest.mark.parametrize("n", [3, 4])
    def test_multiplier_identity(self, n):
        rng = np.random.default_rng(n)
        worst = 0.0
        for k in range(0, 9, 2):
            rule = build_sphere_rule(n - 2, 2 * k + 12)
            h = ZonalHarmonic(n, k, np.eye(n)[-1])
            lam = radon_multiplier(n, k)
            for _ in range(50):
                xi = rng.normal(size=n)
                xi /= np.linalg.norm(xi)
                transform = radon_quadrature(lambda u: h.at(u @ h.axis), rule, xi)
                worst = max(worst, abs(transform - lam * eval_zonal(h, xi)))
        assert worst <= 1e-6


class TestL2Bound:
    def setup_method(self):
        self.outer = build_sphere_rule(2, 23)
        self.inner = build_sphere_rule(1, 23)

    def test_constants_saturate(self):
        f = lambda u: np.full(len(u), 1.7)  # noqa: E731
        lhs, rhs = l2_bound_sides(f, self.outer, self.inner)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_degree_four_ratio(self):
        h4 = ZonalHarmonic(3, 4, EZ)
        lhs, rhs = l2_bound_sides(lambda u: h4.at(u @ h4.axis), self.outer, self.inner)
        assert lhs / rhs == pytest.approx(3.0 / 8.0, abs=1e-10)

    def test_random_trig_polynomials(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            a = rng.normal(size=3)
            b = rng.normal(size=3)
            f = lambda u: 0.3 + (u @ a) ** 2 + 0.5 * np.sin(u @ b)  # noqa: E731
            lhs, rhs = l2_bound_sides(f, self.outer, self.inner)
            assert lhs <= rhs + 1e-10
