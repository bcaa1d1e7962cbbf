import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import brentq

from starsections import spaces
from starsections.errors import (
    DomainError,
    GeometryError,
    InversionRangeError,
    ResourceLimitError,
    SolverError,
)
from starsections.spaces import (
    SpaceSpec,
    as_direction,
    basis_vector,
    brent_root,
    metric_sine,
    phi,
    phi_inverse,
    sin_power_primitive_full,
    sphere_surface_area,
    unit_ball_volume,
)

SPHERE = SpaceSpec(1, 3)
PLANE = SpaceSpec(0, 3)
HYPER = SpaceSpec(-1, 3)


class TestSpaceSpec:
    def test_valid(self):
        assert SpaceSpec(0, 2).max_radius == math.inf
        assert SpaceSpec(1, 4).max_radius == pytest.approx(math.pi / 2)

    @pytest.mark.parametrize("delta,dim", [(2, 3), (-1, 1), (0, 0)])
    def test_invalid(self, delta, dim):
        with pytest.raises(DomainError):
            SpaceSpec(delta, dim)

    def test_direction_validation(self):
        as_direction([0.6, 0.8])
        with pytest.raises(DomainError):
            as_direction([0.6, 0.9])
        with pytest.raises(DomainError):
            as_direction([math.nan, 0.0])


class TestMetricSine:
    def test_examples(self):
        assert metric_sine(SPHERE, 0.0) == 0.0
        assert metric_sine(SPHERE, math.pi / 2) == pytest.approx(1.0, abs=1e-15)
        # high-precision series value of sinh 1
        assert metric_sine(HYPER, 1.0) == pytest.approx(1.1752011936438014, abs=1e-15)
        assert metric_sine(PLANE, 1.7) == 1.7

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            metric_sine(SPHERE, -0.1)
        with pytest.raises(DomainError):
            metric_sine(SPHERE, math.pi / 2 + 1e-6)

    @given(st.floats(min_value=1e-9, max_value=math.pi / 2))
    @settings(max_examples=200, deadline=None)
    def test_positive_off_zero(self, r):
        for space in (SPHERE, PLANE, HYPER):
            assert metric_sine(space, r) > 0.0


class TestPhi:
    def test_examples(self):
        assert phi(SpaceSpec(1, 2), 2, math.pi / 2) == pytest.approx(1.0, abs=1e-15)
        # closed-form antiderivative x/2 - sin(2x)/4, cross-checked by quadrature below
        assert phi(SPHERE, 3, math.pi / 2) == pytest.approx(math.pi / 4, abs=1e-15)
        assert phi(PLANE, 3, 2.0) == pytest.approx(8.0 / 3.0, abs=1e-14)
        assert phi(HYPER, 2, 0.0) == 0.0

    def test_against_adaptive_quadrature(self):
        from scipy.integrate import quad

        for space, upper in ((SPHERE, 1.3), (HYPER, 2.1), (PLANE, 1.7)):
            for m in (2, 3, 4, 5, 7):
                ref, _ = quad(lambda t: metric_sine(space, t) ** (m - 1), 0.0, upper, epsabs=1e-13, epsrel=1e-13)
                assert phi(space, m, upper) == pytest.approx(ref, rel=1e-11)

    def test_monotone_random_pairs(self):
        rng = np.random.default_rng(0)
        for space in (SPHERE, PLANE, HYPER):
            hi = math.pi / 2 if space.delta == 1 else 3.0
            for _ in range(100):
                x1, x2 = np.sort(rng.uniform(0.0, hi, size=2))
                if x1 == x2:
                    continue
                assert phi(space, 3, x1) < phi(space, 3, x2)

    def test_flat_space_taylor_consistency(self):
        # |phi(delta, m, x) - x^m / m| <= C x^{m+2} for small x; the leading
        # correction coefficient is (m-1) / (6 (m+2)), allow 1.5x plus float noise
        xs = np.linspace(1e-4, 0.1, 50)
        for space in (SPHERE, HYPER):
            for m in (2, 3, 4, 5):
                c_m = 1.5 * (m - 1) / (6.0 * (m + 2))
                err = np.abs(phi(space, m, xs) - xs ** m / m)
                assert np.all(err <= c_m * xs ** (m + 2) + 5e-16)

    def test_inverse_round_trip(self):
        for space in (SPHERE, PLANE, HYPER):
            hi = math.pi / 2 if space.delta == 1 else 4.0
            xs = np.linspace(0.0, hi, 25)
            for m in (2, 3, 5):
                back = phi_inverse(space, m, phi(space, m, xs))
                assert np.max(np.abs(back - xs)) < 1e-10


def _sine_levels(m, x):
    """phi_m on the sphere by the power-reduction step from phi_1 or phi_2,
    each level taking its own sin x and cos x."""
    if m == 1:
        return x.copy()
    if m == 2:
        return 1.0 - np.cos(x)
    return (-np.sin(x) ** (m - 2) * np.cos(x) + (m - 2) * _sine_levels(m - 2, x)) / (m - 1)


def _sinh_levels(m, x):
    """The same in hyperbolic space."""
    if m == 1:
        return x.copy()
    if m == 2:
        return np.cosh(x) - 1.0
    return (np.sinh(x) ** (m - 2) * np.cosh(x) - (m - 2) * _sinh_levels(m - 2, x)) / (m - 1)


class TestPowerReduction:
    X = np.linspace(1e-3, math.pi / 2, 997)

    @pytest.mark.parametrize("m", range(4, 13))
    def test_sphere_takes_each_level_bit_for_bit(self, m):
        # sin x and cos x are taken once per call, with the same float steps
        assert np.array_equal(phi(SpaceSpec(1, m), m, self.X),
                              _sine_levels(m, self.X))

    @pytest.mark.parametrize("m", range(1, 13))
    def test_hyperbolic_space_takes_each_level_bit_for_bit(self, m):
        x = 4.0 * self.X
        assert np.array_equal(phi(SpaceSpec(-1, max(m, 2)), m, x),
                              _sinh_levels(m, x))

    def test_phi3_takes_one_sine(self):
        assert np.array_equal(phi(SPHERE, 3, self.X), (self.X - 0.5 * np.sin(2.0 * self.X)) / 2.0)

    def test_phi3_against_a_40_digit_reference(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 40
        x = np.linspace(0.3, math.pi / 2, 1201)
        expected = np.array([float((mp.mpf(t) - mp.sin(mp.mpf(t)) * mp.cos(mp.mpf(t))) / 2) for t in x])
        err = np.abs(phi(SPHERE, 3, x) - expected) / expected
        assert np.max(err[x >= 0.5]) <= 5e-16
        # below 0.5 the one rounding of sin 2x / 2 is amplified by its
        # cancellation against x (smaller x belongs to the series of item 9)
        half_sine = np.sin(2.0 * x) / 2.0
        assert np.all(err <= 2.3e-16 * (1.0 + half_sine / (x - half_sine)))


class TestNaN:
    """NaN fails every radius and value check, as a DomainError."""

    @pytest.mark.parametrize("space", [SPHERE, PLANE, HYPER], ids=str)
    def test_phi_and_metric_sine(self, space):
        for value in (math.nan, np.array([0.2, math.nan])):
            with pytest.raises(DomainError):
                metric_sine(space, value)
            with pytest.raises(DomainError):
                phi(space, 3, value)
            with pytest.raises(DomainError):
                space.check_radius(value)

    def test_sin_power_primitive_full(self):
        for value in (math.nan, np.array([0.2, math.nan])):
            with pytest.raises(DomainError, match=r"x must lie in \[0, pi\]"):
                sin_power_primitive_full(3, value)

    @pytest.mark.parametrize("m", [2, 3, 4])
    @pytest.mark.parametrize("space", [SPHERE, PLANE, HYPER], ids=str)
    def test_phi_inverse_is_a_geometry_error(self, space, m):
        # m = 4 once reached brent_root, which raised a plain ValueError
        for value in (math.nan, np.array([0.2, math.nan])):
            with pytest.raises(GeometryError, match="phi values are nonnegative"):
                phi_inverse(space, m, value)

    def test_the_bounds_still_hold(self):
        with pytest.raises(DomainError, match="nonnegative"):
            phi(HYPER, 3, -1e-300)
        with pytest.raises(DomainError, match="exceeds pi/2"):
            phi(SPHERE, 3, math.pi / 2 + 1e-9)
        with pytest.raises(ResourceLimitError):
            phi(HYPER, 3, math.inf)
        with pytest.raises(InversionRangeError):
            phi_inverse(SPHERE, 4, math.inf)


def _as_types(value):
    """value as a float, an int, a numpy float64, a 0-d array and a 1-element
    array; the int only where it holds the same number."""
    forms = {"float": float(value), "float64": np.float64(value),
             "0-d": np.array(float(value)), "1-element": np.array([float(value)])}
    if math.isfinite(value) and int(value) == value and not math.copysign(1.0, value) < 0:
        forms["int"] = int(value)
    return forms


RADIUS_ERRORS = [
    (SPHERE, math.nan, DomainError, "r must be nonnegative"),
    (SPHERE, -1e-300, DomainError, "r must be nonnegative"),
    (HYPER, -1.0, DomainError, "r must be nonnegative"),
    (SPHERE, math.pi / 2 + 2e-12, DomainError, "r exceeds pi/2 on the hemisphere"),
    (SPHERE, 2.0, DomainError, "r exceeds pi/2 on the hemisphere"),
    (HYPER, 2 * spaces.RADIUS_SAFETY_CAP, ResourceLimitError, "r exceeds the float-safety radius cap"),
    (PLANE, 2 * spaces.RADIUS_SAFETY_CAP, ResourceLimitError, "r exceeds the float-safety radius cap"),
]


class TestScalarContract:
    """Every input type, scalar or array, meets the same range checks with
    the same exception and message; a scalar in gives a Python float out."""

    @pytest.mark.parametrize("space, value, error, message", RADIUS_ERRORS,
                             ids=lambda v: str(v) if isinstance(v, SpaceSpec) else None)
    def test_check_radius_errors_for_every_type(self, space, value, error, message):
        for form in _as_types(value).values():
            with pytest.raises(GeometryError) as info:
                space.check_radius(form)
            assert type(info.value) is error and str(info.value) == message

    @pytest.mark.parametrize("value", [math.nan, -2e-15, -1.0, math.pi + 2e-12, 4.0])
    def test_sin_power_primitive_full_errors_for_every_type(self, value):
        for form in _as_types(value).values():
            with pytest.raises(GeometryError) as info:
                sin_power_primitive_full(3, form)
            assert type(info.value) is DomainError and str(info.value) == "x must lie in [0, pi]"

    @pytest.mark.parametrize("space", [SPHERE, PLANE, HYPER], ids=str)
    def test_zero_and_the_rim_pass_for_every_type(self, space):
        for value in (-0.0, 0.0, space.max_radius if space.delta == 1 else spaces.RADIUS_SAFETY_CAP):
            for form in _as_types(value).values():
                # a scalar stays a 0-d array: see test_euclidean_phi_takes_the_power_ufunc
                out = space.check_radius(form)
                assert type(out) is np.ndarray and out.shape == np.shape(form)
                assert np.array_equal(out, np.asarray(form, dtype=float))

    def test_sin_power_primitive_full_takes_zero_and_pi_for_every_type(self):
        for value in (-0.0, 0.0, math.pi):
            for form in _as_types(value).values():
                out = sin_power_primitive_full(3, form)
                assert np.shape(out) == np.shape(form) and out == sin_power_primitive_full(3, value)

    def test_an_empty_array_passes(self):
        for space in (SPHERE, PLANE, HYPER):
            assert space.check_radius(np.empty(0)).shape == (0,)
        assert sin_power_primitive_full(3, np.empty((0, 2))).shape == (0, 2)

    @pytest.mark.parametrize("space", [SPHERE, PLANE, HYPER], ids=str)
    def test_a_scalar_gives_a_python_float(self, space):
        scalars = {name: form for name, form in _as_types(1.0).items() if name != "1-element"}
        for name, form in scalars.items():
            results = [phi(space, 3, form), metric_sine(space, form), sin_power_primitive_full(3, form),
                       phi_inverse(space, 1, form), phi_inverse(space, 2, form / 2)]
            assert all(type(value) is float for value in results), name
            assert results == [phi(space, 3, 1.0), metric_sine(space, 1.0), sin_power_primitive_full(3, 1.0),
                               phi_inverse(space, 1, 1.0), phi_inverse(space, 2, 0.5)], name

    @pytest.mark.parametrize("m", range(1, 9))
    @pytest.mark.parametrize("delta", [1, 0, -1])
    def test_a_scalar_keeps_the_bits_of_a_one_element_array(self, delta, m):
        # a scalar takes numpy's ufuncs as an array does, never Python's math
        # (whose sinh, cosh, exp and expm1 round otherwise on many inputs)
        space = SpaceSpec(delta, max(m, 2))
        for x in np.linspace(0.0, math.pi / 2 if delta == 1 else 10.0, 1001).tolist():
            assert phi(space, m, x) == phi(space, m, np.array([x]))[0], x
            assert metric_sine(space, x) == metric_sine(space, np.array([x]))[0], x

    @pytest.mark.parametrize("m", range(1, 9))
    def test_euclidean_phi_takes_the_power_ufunc(self, m):
        # numpy's power ufunc on a 0-d array and libm's pow (numpy's scalar
        # arithmetic on a float64) differ in the last bit on some inputs;
        # phi keeps the ufunc's bits
        space = SpaceSpec(0, max(m, 2))
        for x in np.random.default_rng(m).uniform(0.0, 10.0, 500):
            assert phi(space, m, float(x)) == float(np.asarray(x) ** m / m)


class TestConstants:
    def test_sphere_areas(self):
        assert sphere_surface_area(0) == pytest.approx(2.0)
        assert sphere_surface_area(1) == pytest.approx(2 * math.pi)
        assert sphere_surface_area(2) == pytest.approx(4 * math.pi)
        assert sphere_surface_area(3) == pytest.approx(2 * math.pi ** 2)

    def test_ball_volumes(self):
        assert unit_ball_volume(1) == pytest.approx(2.0)
        assert unit_ball_volume(2) == pytest.approx(math.pi)
        assert unit_ball_volume(3) == pytest.approx(4 * math.pi / 3)

    def test_past_the_float_range_is_a_resource_limit(self):
        # Gamma overflows a float at 171.62: |S^342| and kappa_341 are the last
        assert sphere_surface_area(342) > 0.0 and unit_ball_volume(341) > 0.0
        with pytest.raises(ResourceLimitError, match="overflows a float"):
            sphere_surface_area(343)
        with pytest.raises(ResourceLimitError, match="overflows a float"):
            unit_ball_volume(342)

    @pytest.mark.parametrize("n, index", [(1, 0), (4, 0), (4, 2), (4, -1)])
    def test_basis_vectors(self, n, index):
        assert np.array_equal(basis_vector(n, index), np.eye(n)[index])

    def test_a_basis_vector_of_a_huge_space_takes_n_floats(self):
        e = basis_vector(1_000_000)
        assert e.shape == (1_000_000,) and e[0] == 1.0 and np.count_nonzero(e) == 1


class TestBrentRoot:
    """brent_root follows scipy's brentq step for step, so the roots are the
    same floats; scipy is the reference."""

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    @pytest.mark.parametrize("delta", [-1, 1])
    def test_phi_roots_bit_identical(self, n, delta):
        space = SpaceSpec(delta, n)
        hi = math.pi / 2 if delta == 1 else 4.0
        for y in np.random.default_rng(n).uniform(0.0, 1.0, 50) * phi(space, n, hi):
            f = lambda t: phi(space, n, t) - y  # noqa: E731
            assert brent_root(f, 0.0, hi, 1e-14, 1e-15) == brentq(f, 0.0, hi, xtol=1e-14, rtol=1e-15)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_sine_power_roots_bit_identical(self, n):
        top = sin_power_primitive_full(n, math.pi)
        for v in np.random.default_rng(n).uniform(0.0, 1.0, 50) * top:
            f = lambda s: sin_power_primitive_full(n, s) - v  # noqa: E731
            assert (brent_root(f, 0.0, math.pi, 1e-14, 1e-15)
                    == brentq(f, 0.0, math.pi, xtol=1e-14, rtol=1e-15))

    def test_phi_inverse_uses_the_same_roots(self):
        space = SpaceSpec(-1, 4)
        y = 0.2   # below phi(space, 4, 1.0) = 0.348, so phi_inverse brackets with [0, 1]
        expected = brentq(lambda t: phi(space, 4, t) - y, 0.0, 1.0, xtol=1e-14, rtol=1e-15)
        assert phi_inverse(space, 4, y) == expected

    def test_endpoint_root(self):
        assert brent_root(lambda x: x, 0.0, 1.0, 1e-14, 1e-15) == 0.0

    def test_unbracketed_raises_value_error(self):
        with pytest.raises(ValueError, match="different signs"):
            brent_root(lambda x: x * x + 1.0, -1.0, 1.0, 1e-14, 1e-15)

    def test_nan_raises_value_error(self):
        with pytest.raises(ValueError, match="NaN"):
            brent_root(lambda x: math.nan if x > 0 else -1.0, -1.0, 1.0, 1e-14, 1e-15)

    def test_step_cap(self, monkeypatch):
        monkeypatch.setattr(spaces, "_BRENT_MAXITER", 2)
        with pytest.raises(SolverError, match="2 steps"):
            brent_root(lambda x: math.exp(x) - 2.0, 0.0, 1.0, 1e-14, 1e-15)


def _loop_phi_inverse(space, m, y):
    """The per-element Brent loop phi_inverse ran before ``monotone_inverse``
    took it over: the reference its roots must equal."""
    out = np.empty_like(y)
    hi0 = math.pi / 2 if space.delta == 1 else 1.0
    for i, yi in enumerate(y):
        if yi == 0.0:
            out[i] = 0.0
            continue
        hi = hi0
        while space.delta != 1 and phi(space, m, hi) < yi:
            hi *= 2.0
            if hi > spaces.RADIUS_SAFETY_CAP:
                raise ResourceLimitError("phi inverse exceeds the radius cap")
        out[i] = brent_root(lambda t: phi(space, m, t) - yi, 0.0, hi, xtol=1e-14, rtol=1e-15)
    return out


class TestMonotoneInverse:
    @pytest.mark.parametrize("m", [3, 4, 5, 6])
    @pytest.mark.parametrize("delta", [1, -1])
    def test_phi_inverse_roots_equal_the_loop(self, delta, m):
        space = SpaceSpec(delta, m)
        # radii from 1e-3 to the rim on s+; on h to 100, where phi of every
        # m here is still finite and the bracket doubles seven times
        top = math.pi / 2 if delta == 1 else 100.0
        y = np.concatenate([[0.0], phi(space, m, np.geomspace(1e-3, top, 40))])
        # phi's power reduction cancels near 0: at m = 6 it is negative at 1e-3
        y = y[y >= 0.0]
        expected = _loop_phi_inverse(space, m, y)
        assert np.array_equal(phi_inverse(space, m, y), expected)
        assert all(phi_inverse(space, m, float(v)) == e for v, e in zip(y, expected))

    def test_range_errors_keep_their_types_and_messages(self):
        hyper = SpaceSpec(-1, 3)
        y = np.array([phi(hyper, 3, 300.0)])
        with pytest.raises(ResourceLimitError, match="phi inverse exceeds the radius cap"):
            _loop_phi_inverse(hyper, 3, y)
        with pytest.raises(ResourceLimitError, match="phi inverse exceeds the radius cap"):
            phi_inverse(hyper, 3, y)
        with pytest.raises(InversionRangeError, match="hemisphere rim"):
            phi_inverse(SPHERE, 3, 1.01 * phi(SPHERE, 3, math.pi / 2))

    def test_zero_and_the_cap(self):
        f = lambda x: x ** 3  # noqa: E731
        assert np.array_equal(spaces.monotone_inverse(f, [0.0, 8.0], 1.0, 4.0, DomainError("x")),
                              [0.0, brent_root(lambda x: f(x) - 8.0, 0.0, 2.0, 1e-14, 1e-15)])
        with pytest.raises(DomainError, match="past the cap"):
            spaces.monotone_inverse(f, 125.0, 1.0, 4.0, DomainError("past the cap"))
        # without a cap the bracket stays put, and a root outside it is unbracketed
        with pytest.raises(ValueError):
            spaces.monotone_inverse(f, 8.0, 1.0)
