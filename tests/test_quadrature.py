import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import roots_jacobi, roots_legendre

from starsections.errors import ConvergenceError, DomainError, ResourceLimitError
from starsections.harmonics import ZonalHarmonic
from starsections.quadrature import (
    _GK21_NODES,
    build_sphere_rule,
    gauss_jacobi,
    householder_frames,
    integrate_vectorized,
    polar_rule,
    rule_size,
    sphere_rule_node,
    subsphere_frames,
)
from starsections.spaces import basis_vector, sphere_surface_area

from reference import _Row as FrozenRow
from reference import integrate_vectorized as frozen_integrate
from reference import radon_quadrature


def random_rotation(n, rng):
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    return q


# with a wider long double the rule's weights are good to a few ulp;
# without one, the recurrence's rounding limits them to about 1e-13
EXTENDED = np.finfo(np.longdouble).eps < np.finfo(float).eps


def reference_gauss_rule(npts, a, mp):
    """40-digit nodes and weights for the weight (1 - t^2)^a: Newton on the
    Gegenbauer recurrence from scipy's nodes, then the Christoffel formula."""
    mp.mp.dps = 40
    lam = mp.mpf(a) + mp.mpf(1) / 2

    def value_and_derivative(t):
        prev, cur = mp.mpf(1), 2 * lam * t
        for j in range(2, npts + 1):
            prev, cur = cur, (2 * (j + lam - 1) * t * cur - (j + 2 * lam - 2) * prev) / j
        return cur, (-npts * t * cur + (npts + 2 * lam - 1) * prev) / (1 - t * t)

    nodes, weights = [], []
    for guess in roots_jacobi(npts, a, a)[0]:
        t = mp.mpf(float(guess))
        for _ in range(5):
            value, slope = value_and_derivative(t)
            t -= value / slope
        _, slope = value_and_derivative(t)
        nodes.append(t)
        weights.append(1 / ((1 - t * t) * slope ** 2))
    mass = 2 ** (2 * mp.mpf(a) + 1) * mp.gamma(a + 1) ** 2 / mp.gamma(2 * mp.mpf(a) + 2)
    scale = mass / mp.fsum(weights)
    return (np.array([float(t) for t in nodes]), np.array([float(w * scale) for w in weights]))


class TestGaussJacobi:
    @pytest.mark.parametrize("a", [0.0, 0.5, 1.0, 1.5])
    def test_against_scipy(self, a):
        for npts in range(1, 65):
            x, w = gauss_jacobi(npts, a)
            xs, ws = roots_legendre(npts) if a == 0 else roots_jacobi(npts, a, a)
            # 4 ulp of 1: the nodes lie in (-1, 1)
            assert np.max(np.abs(x - xs)) <= 4 * np.finfo(float).eps
            # scipy takes C_n' at the eigenvalues before its Newton step, which
            # leaves its own weights up to 3.4e-12 off next to +-1 (n = 61,
            # a = 0; the reference test below shows the error is scipy's)
            np.testing.assert_allclose(w, ws, rtol=5e-12, atol=0)

    @pytest.mark.parametrize("a", [0.0, 0.5, 1.0, 1.5])
    @pytest.mark.parametrize("npts", [1, 12, 48, 61, 64])
    def test_against_a_40_digit_reference(self, a, npts):
        mp = pytest.importorskip("mpmath")
        x, w = gauss_jacobi(npts, a)
        xr, wr = reference_gauss_rule(npts, a, mp)
        if EXTENDED:
            assert np.all(np.abs(x - xr) <= np.spacing(np.abs(xr)))
            np.testing.assert_allclose(w, wr, rtol=2e-15, atol=0)
        else:
            assert np.max(np.abs(x - xr)) <= 4 * np.finfo(float).eps
            np.testing.assert_allclose(w, wr, rtol=1e-12, atol=0)

    def test_symmetric_with_a_zero_middle_node(self):
        x, w = gauss_jacobi(13, 0.5)
        assert np.array_equal(x, -x[::-1]) and x[6] == 0.0
        assert np.array_equal(w, w[::-1])


class TestSphereRules:
    def test_circle_rule(self):
        rule = build_sphere_rule(1, 7)
        assert len(rule) == 8
        assert np.allclose(rule.weights, math.pi / 4)

    @pytest.mark.parametrize("m,degree", [(1, 47), (2, 11), (2, 23), (3, 23)])
    def test_weight_sum_and_nodes(self, m, degree):
        rule = build_sphere_rule(m, degree)
        assert abs(np.sum(rule.weights) - sphere_surface_area(m)) < 1e-10
        assert np.max(np.abs(np.linalg.norm(rule.nodes, axis=1) - 1.0)) < 1e-12
        assert np.all(rule.weights > 0)

    def test_harmonic_orthogonality(self):
        # degree-4 zonal harmonic integrates to zero on S^2
        rule = build_sphere_rule(2, 11)
        h4 = ZonalHarmonic(3, 4, np.array([0.0, 0.0, 1.0]))
        assert abs(rule.weights @ h4.at(rule.nodes @ h4.axis)) < 1e-9
        for k in (1, 2, 3, 5, 6):
            hk = ZonalHarmonic(3, k, np.array([0.0, 0.0, 1.0]))
            rule_hi = build_sphere_rule(2, 2 * k + 3)
            assert abs(rule_hi.weights @ hk.at(rule_hi.nodes @ hk.axis)) < 1e-9

    def test_refinement_convergence(self):
        # exact: integral of exp(a . u) over S^2 is 4 pi sinh|a| / |a|
        a = np.array([0.4, -0.3, 0.55])
        na = np.linalg.norm(a)
        exact = 4 * math.pi * math.sinh(na) / na
        errors = []
        for degree in (5, 11, 23):
            rule = build_sphere_rule(2, degree)
            errors.append(abs(rule.weights @ np.exp(rule.nodes @ a) - exact))
        for coarse, fine in zip(errors, errors[1:]):
            assert fine < coarse / 10 or fine < 1e-12

    def test_rotational_invariance(self):
        rng = np.random.default_rng(1)
        a = np.array([0.8, 0.1, -0.2])
        rule = build_sphere_rule(2, 23)
        rule_hi = build_sphere_rule(2, 31)
        base = rule.weights @ np.cosh(rule.nodes @ a)
        declared = abs(base - rule_hi.weights @ np.cosh(rule_hi.nodes @ a)) + 1e-13
        for _ in range(5):
            q = random_rotation(3, rng)
            rotated = rule.weights @ np.cosh((rule.nodes @ q.T) @ a)
            assert abs(rotated - base) <= 10 * declared

    def test_node_cap(self):
        with pytest.raises(ResourceLimitError):
            build_sphere_rule(3, 301)

    @pytest.mark.parametrize("build, args", [
        (polar_rule, (2, 100_000)),   # a 50,001-point Gauss-Jacobi matrix: 18.6 GB
        (polar_rule, (1, 10 ** 9)),   # a circle rule of 1e9 nodes
        (build_sphere_rule, (1, 10 ** 9)),
    ], ids=["polar-s2", "polar-s1", "sphere-s1"])
    def test_rules_past_the_cap_are_refused_before_they_allocate(self, build, args):
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError):
                build(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6

    def test_node_count_is_checked_before_the_polar_factor(self):
        # 5e9 nodes: neither the 100,002-node circle factor nor the
        # 50,001-point polar factor is built, and nothing is cached
        cached = build_sphere_rule.cache_info().currsize
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError, match="nodes, cap is"):
                build_sphere_rule(2, 100_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert build_sphere_rule.cache_info().currsize == cached
        assert peak < 1e6

    def test_a_gauss_jacobi_mass_past_the_float_range_is_a_resource_limit(self):
        # the weight of S^171's polar factor is the last whose mass is finite
        assert gauss_jacobi(3, 84.5)[1].sum() > 0.0
        with pytest.raises(ResourceLimitError, match="overflows a float"):
            gauss_jacobi(3, 85.0)

    def test_gauss_jacobi_cap_is_2000_nodes(self):
        assert len(gauss_jacobi(2000, 0.0)[0]) == 2000
        with pytest.raises(ResourceLimitError):
            gauss_jacobi(2001, 0.0)

    def test_point_pair(self):
        rule = build_sphere_rule(0, 1)
        assert len(rule) == 2
        assert np.sum(rule.weights) == pytest.approx(sphere_surface_area(0))


def sorted_rows(a):
    return a[np.lexsort(a.T[::-1])]


class TestAntipodalHalf:
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    @pytest.mark.parametrize("degree", [6, 7, 10, 11])
    def test_representatives_and_negations_are_the_rule(self, m, degree):
        rule = build_sphere_rule(m, degree)
        nodes, weights = rule.antipodal_half
        assert 2 * len(nodes) == len(rule)
        assert np.array_equal(sorted_rows(np.concatenate([nodes, -nodes])), sorted_rows(rule.nodes))
        # each representative carries its own weight and its antipode's, which agree exactly
        weight_of = {tuple(x): w for x, w in zip(rule.nodes, rule.weights)}
        for x, w in zip(nodes, weights):
            assert w == 2.0 * weight_of[tuple(x)] == 2.0 * weight_of[tuple(-x)]

    def test_even_degree_adds_one_circle_node(self):
        assert [len(build_sphere_rule(1, d)) for d in (2, 3, 7, 8, 46, 47)] == [4, 4, 8, 10, 48, 48]

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    @pytest.mark.parametrize("degree", [6, 7, 11])
    def test_integrates_even_polynomials_exactly(self, m, degree):
        # the integral of (u . a)^(2j) over S^m for a unit a is
        # |S^m| Gamma(j + 1/2) Gamma((m + 1)/2) / (Gamma(1/2) Gamma(j + (m + 1)/2))
        rng = np.random.default_rng(m * 100 + degree)
        nodes, weights = build_sphere_rule(m, degree).antipodal_half
        for j in range(degree // 2 + 1):
            a = rng.normal(size=m + 1)
            a /= np.linalg.norm(a)
            exact = sphere_surface_area(m) * math.exp(
                math.lgamma(j + 0.5) + math.lgamma((m + 1) / 2)
                - math.lgamma(0.5) - math.lgamma(j + (m + 1) / 2))
            value = float(np.dot(weights, (nodes @ a) ** (2 * j)))
            assert value == pytest.approx(exact, rel=1e-13, abs=0.0), j


def carried(nodes, xis):
    """The nodes carried onto each normal's subsphere, (D, N, n)."""
    xis = np.atleast_2d(xis)
    return (nodes @ subsphere_frames(xis)).reshape(len(nodes), len(xis), -1).transpose(1, 0, 2)


def reflection_frames(xis):
    """The frames as the first n - 1 columns of the D n x n reflections
    I - 2 v v^T / |v|^2, v = xi - e_n, or of the identity where |v|^2 < 1e-28."""
    n = xis.shape[1]
    v = xis.copy()
    v[:, -1] -= 1.0
    norm2 = np.einsum("ij,ij->i", v, v)
    reflect = norm2 >= 1e-28
    house = np.broadcast_to(np.eye(n), (len(xis), n, n)).copy()
    house[reflect] -= 2.0 * (v[reflect, :, None] * v[reflect, None, :]) / norm2[reflect, None, None]
    return house[:, :, : n - 1]


class TestSubsphereNodes:
    """``subsphere_frames``: the frames that carry a rule's nodes onto the
    subspheres of a batch of normals, by one matrix product."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 8])
    def test_frames_are_the_reflections_columns(self, n):
        # bit for bit, at random normals, at e_n and -e_n, near e_n, and at a
        # normal whose |v|^2 falls below 1e-28 (the identity's columns)
        rng = np.random.default_rng(n)
        xis = rng.normal(size=(300, n))
        e = basis_vector(n, n - 1)
        near = e + 10.0 ** rng.uniform(-12.0, -3.0, size=(20, 1)) * rng.normal(size=(20, n))
        barely = e.copy()
        barely[: min(2, n - 1)] = 5e-15      # |v|^2 = 5e-29 at n >= 3
        xis = np.vstack([xis, near, [e, -e, barely]])
        xis /= np.linalg.norm(xis, axis=1, keepdims=True)
        frames = householder_frames(xis)
        assert frames.shape == (len(xis), n, n - 1)
        assert frames.tobytes() == reflection_frames(xis).tobytes()
        assert np.array_equal(frames[-1], np.eye(n)[:, : n - 1])
        flat = subsphere_frames(xis)
        assert flat.flags.c_contiguous
        assert flat.tobytes() == reflection_frames(xis).transpose(2, 0, 1).tobytes()

    def test_s5_frames_peak_under_one_and_a_half_times_their_size(self):
        # no (D, n, n) reflection, outer product or copy of one: the columns
        # are written where the frames matrix keeps them
        xis = build_sphere_rule(4, 23).antipodal_half[0]
        subsphere_frames(xis)       # warm any lazy numpy state
        tracemalloc.start()
        try:
            frames = subsphere_frames(xis)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * frames.nbytes

    def test_identity_frame(self):
        n = 4
        xi = np.zeros(n)
        xi[-1] = 1.0
        frame = householder_frames(xi[None])[0]
        assert np.allclose(frame, np.eye(n)[:, : n - 1])
        assert np.array_equal(subsphere_frames(xi), frame.T)

    def test_invariants(self):
        rng = np.random.default_rng(3)
        base = build_sphere_rule(1, 15)
        for _ in range(10):
            xi = rng.normal(size=3)
            xi /= np.linalg.norm(xi)
            f = householder_frames(xi[None])[0]
            assert np.max(np.abs(f.T @ f - np.eye(2))) < 1e-12
            assert np.max(np.abs(f.T @ xi)) < 1e-12
            nodes = carried(base.nodes, xi)[0]
            assert np.max(np.abs(np.linalg.norm(nodes, axis=1) - 1.0)) < 1e-12
            assert np.max(np.abs(nodes @ xi)) < 1e-12
            assert np.sum(base.weights) == pytest.approx(sphere_surface_area(1))

    def test_e1_axis_circle(self):
        base = build_sphere_rule(1, 7)
        nodes = carried(base.nodes, np.array([1.0, 0.0, 0.0]))[0]
        assert np.max(np.abs(nodes @ np.array([1.0, 0.0, 0.0]))) < 1e-12

    def test_dimension_mismatch(self):
        # the frames of normals in R^3 carry nodes of S^1, not of S^2
        base = build_sphere_rule(2, 5)
        with pytest.raises(ValueError):
            carried(base.nodes, np.array([[1.0, 0.0, 0.0]]))

    def test_batch_rows_equal_single_rows(self):
        # a block of normals' columns, as the product path takes them, gives
        # each normal's points bit for bit, and so does the per-normal product
        rng = np.random.default_rng(4)
        base = build_sphere_rule(2, 9)
        xis = rng.normal(size=(7, 4))
        xis /= np.linalg.norm(xis, axis=1, keepdims=True)
        batch = carried(base.nodes, xis)
        assert batch.shape == (7, len(base), 4)
        frames = householder_frames(xis)
        for i, xi in enumerate(xis):
            assert np.array_equal(batch[i], carried(base.nodes, xi)[0])
            assert np.array_equal(batch[i], base.nodes @ frames[i].T)

    def test_non_unit_normal(self):
        for normal in ([1.0, 1.0, 0.0], [np.nan, 0.0, 0.0]):
            with pytest.raises(DomainError):
                subsphere_frames(np.array([normal]))

    @pytest.mark.parametrize("xis", [
        lambda: basis_vector(1_000_000, -1)[None],         # one frame of 10^12 entries
        lambda: np.tile(basis_vector(3, 0), (444_445, 1)),  # 9 entries each, 4,000,005 in all
    ], ids=["huge-n", "many-normals"])
    def test_frames_past_the_cap_are_refused_before_they_allocate(self, xis):
        xis = xis()
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError, match="frames"):
                householder_frames(xis)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6

    def test_a_grid_past_the_frames_cap_is_refused_before_it_allocates(self):
        # 444,445 normals: the frames are refused before any array of them,
        # or of points on their subspheres, is allocated
        xis = np.tile(basis_vector(3, 0), (444_445, 1))
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError, match="frames"):
                subsphere_frames(xis)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * xis.nbytes

    @pytest.mark.parametrize("m, degree", [(1, 7), (1, 8), (2, 23), (3, 5), (4, 23), (5, 9)])
    def test_rule_size_is_the_built_count(self, m, degree):
        # the product path checks its frames on half this count, the antipodal pairs
        rule = build_sphere_rule(m, degree)
        assert rule_size(m, degree) == len(rule) == 2 * len(rule.antipodal_half[0])

    @pytest.mark.parametrize("m, degree", [(1, 7), (1, 8), (2, 11), (3, 5), (3, 11), (4, 6)])
    def test_a_node_from_its_index_is_the_built_node(self, m, degree):
        rule = build_sphere_rule(m, degree)
        nodes = np.array([sphere_rule_node(m, degree, i) for i in range(len(rule))])
        assert nodes.tobytes() == rule.nodes.tobytes()

    def test_frames_at_the_cap_are_built(self):
        frames = householder_frames(np.tile(basis_vector(3, 0), (444_444, 1)))
        assert frames.shape == (444_444, 3, 2)


class TestSelfAdjointness:
    @pytest.mark.parametrize("n", [3, 4])
    def test_average_of_subsphere_integrals(self, n):
        # integral over xi of Rg equals |S^{n-2}| times the integral of g
        rng = np.random.default_rng(n)
        outer = build_sphere_rule(n - 1, 23)
        inner = build_sphere_rule(n - 2, 23)
        s = sphere_surface_area(n - 2)
        for _ in range(20):
            a = rng.normal(size=n) * 0.7
            b = rng.normal(size=n)
            g = lambda u: np.exp(u @ a) + (u @ b) ** 2  # noqa: E731
            lhs = float(np.dot(outer.weights,
                               [radon_quadrature(g, inner, xi) for xi in outer.nodes]))
            rhs = s * (outer.weights @ g(outer.nodes))
            gmax = float(np.max(np.abs(g(outer.nodes))))
            assert abs(lhs - rhs) <= 1e-6 * s * gmax


class TestPolarRule:
    @pytest.mark.parametrize("m", [1, 2, 3, 5, 10])
    @pytest.mark.parametrize("degree", [7, 8, 23])
    def test_moments_exact(self, m, degree):
        # the integral of <u, e>^j over S^m is |S^{m-1}| B((j + 1) / 2, m / 2) for
        # even j and 0 for odd j
        t, w = polar_rule(m, degree)
        for j in range(degree + 1):
            exact = 0.0 if j % 2 else sphere_surface_area(m - 1) * math.exp(
                math.lgamma((j + 1) / 2) + math.lgamma(m / 2) - math.lgamma((j + m + 1) / 2))
            assert abs(np.dot(w, t ** j) - exact) <= 1e-13 * sphere_surface_area(m)

    @pytest.mark.parametrize("m,degree", [(1, 7), (1, 8), (2, 23), (3, 23), (3, 31)])
    def test_is_the_sphere_rule_polar_coordinate(self, m, degree):
        # the distinct first coordinates of the sphere rule, with their summed weights
        rule = build_sphere_rule(m, degree)
        t, w = polar_rule(m, degree)
        c, which = np.unique(rule.nodes[:, 0], return_inverse=True)
        summed = np.bincount(which, weights=rule.weights)
        ours, inverse = np.unique(t, return_inverse=True)
        np.testing.assert_array_equal(ours, c)
        np.testing.assert_allclose(np.bincount(inverse, weights=w), summed, rtol=1e-14)

    def test_read_only_and_domain(self):
        t, w = polar_rule(2, 11)
        assert not t.flags.writeable and not w.flags.writeable
        with pytest.raises(DomainError):
            polar_rule(0, 11)
        with pytest.raises(DomainError):
            polar_rule(2, 0)


def integrate_row(f, a, b, tol=1e-12, breaks=()):
    """``integrate_vectorized`` of the one-row integrand of f, a function of
    the points alone: (value, error estimate)."""
    values, errors = integrate_vectorized(lambda t: f(t)[None], a, b, tol, breaks)
    return values[0], errors[0]


class TestIntegrateVectorized:
    def test_polynomials_exact_on_one_panel(self):
        # tol = 1 accepts every starting panel, so each is one 21-point Kronrod rule
        for degree in range(32):
            val, _ = integrate_row(lambda t: t ** degree, 0.0, 1.0, 1.0)
            assert abs(val - 1.0 / (degree + 1)) <= 1e-14, degree

    # the 0.3 shift keeps the kinks off the starting panel edges
    @pytest.mark.parametrize("f,exact", [
        (lambda t: np.abs(np.sin(t - 0.3)), 4.0),
        (lambda t: np.minimum(np.abs(np.cos(t - 0.3)), np.abs(np.sin(t - 0.3))),
         8.0 - 4.0 * math.sqrt(2.0)),
    ])
    def test_kinked_integrands(self, f, exact):
        val, err = integrate_row(f, 0.0, 2 * math.pi, 1e-12)
        assert abs(val - exact) <= 1e-13
        assert err >= abs(val - exact)

    def test_bit_reproducible(self):
        f = lambda t: np.abs(np.sin(3.0 * t - 0.3)) * np.exp(np.cos(t))  # noqa: E731
        assert integrate_row(f, 0.0, 2 * math.pi) == integrate_row(f, 0.0, 2 * math.pi)

    def test_convergence_error(self):
        with pytest.raises(ConvergenceError):
            integrate_row(lambda t: 1.0 / np.abs(t - 1.0), 0.0, 2 * math.pi, 1e-12)

    @pytest.mark.parametrize("nan_at", [slice(None), slice(5, 6)], ids=["every-node", "one-node"])
    def test_a_nan_first_round_is_a_convergence_error(self, nan_at):
        # the first round sets the tolerance's scale; its NaN must not pass
        calls = []

        def f(t):
            y = np.abs(np.sin(t - 0.3))
            if not calls:
                y[nan_at] = np.nan
            calls.append(len(t))
            return y

        with pytest.raises(ConvergenceError):
            integrate_row(f, 0.0, 2 * math.pi, 1e-12)


def _counting(f):
    """f, and the list that each call of it appends its point count to."""
    calls = []

    def counted(x):
        calls.append(len(x))
        return f(x)

    return counted, calls


class TestIntegrateVectorizedBreaks:
    """``breaks`` cut the first panels at known corners of the integrand."""

    A, B, C = 0.0, 2 * math.pi, 1.234567   # C lies off the 8 starting panels' edges

    @pytest.mark.parametrize("f,exact", [
        (lambda t: np.abs(t - 1.234567), (1.234567 ** 2 + (2 * math.pi - 1.234567) ** 2) / 2),
        (lambda t: np.maximum(t - 1.234567, 0.0) ** 3, (2 * math.pi - 1.234567) ** 4 / 4),
    ], ids=["abs", "cubic-kink"])
    def test_a_kink_at_a_break_is_exact_in_one_round(self, f, exact):
        counted, calls = _counting(f)
        val, err = integrate_row(counted, self.A, self.B, 1e-12, breaks=[self.C])
        assert len(calls) == 1 and calls[0] == 9 * 21
        assert val == pytest.approx(exact, rel=1e-15, abs=0.0)
        assert err >= abs(val - exact)
        # without the break, the panel holding the kink is bisected round after
        # round, at the absolute threshold 1e-12: tol is relative to the first
        # round's scale (b - a) max |f| over the 8 equal panels' Kronrod nodes
        edges = np.linspace(self.A, self.B, 9)
        first = ((edges[:-1] + edges[1:]) / 2)[:, None] + (np.diff(edges) / 2)[:, None] * _GK21_NODES
        scale = max(1.0, (self.B - self.A) * float(np.max(np.abs(f(first)))))
        counted, calls = _counting(f)
        integrate_row(counted, self.A, self.B, 1e-12 / scale)
        assert len(calls) > 5

    def test_a_square_root_end_converges_no_slower_at_a_break(self):
        # a square-root end is not polynomial on either side, so the panels next
        # to it are still bisected: the break puts it on an edge, where the
        # Kronrod nodes never meet it
        f = lambda t: np.sqrt(np.abs(t - self.C))  # noqa: E731
        exact = 2.0 / 3.0 * (self.C ** 1.5 + (self.B - self.C) ** 1.5)
        cut, cut_calls = _counting(f)
        val, err = integrate_row(cut, self.A, self.B, 1e-12, breaks=[self.C])
        plain, plain_calls = _counting(f)
        integrate_row(plain, self.A, self.B, 1e-12)
        assert val == pytest.approx(exact, rel=1e-14, abs=0.0)
        assert err >= abs(val - exact)
        assert len(cut_calls) <= len(plain_calls)

    @pytest.mark.parametrize("breaks", [
        [-1.0, 0.0, 2 * math.pi, 7.0],                               # outside (a, b) or on its ends
        [math.pi / 4 + 5e-13, math.pi - 5e-13, 0.5e-12, 2 * math.pi - 0.5e-12],   # within the floor of an edge
        [math.pi / 2] * 3,                                           # an edge, thrice
    ])
    def test_breaks_that_change_nothing(self, breaks):
        f = lambda t: np.abs(np.sin(t - 0.3)) * np.exp(np.cos(t))  # noqa: E731
        assert integrate_row(f, self.A, self.B, 1e-12, breaks) == integrate_row(
            f, self.A, self.B, 1e-12)

    def test_a_repeated_break_counts_once(self):
        f = lambda t: np.abs(t - self.C)  # noqa: E731
        once = integrate_row(f, self.A, self.B, 1e-12, [self.C])
        assert integrate_row(f, self.A, self.B, 1e-12, [self.C, self.C, self.C + 1e-13]) == once
        assert integrate_row(f, self.A, self.B, 1e-12, np.array([[self.C], [self.C]])) == once

    def test_a_smooth_integrand_is_unchanged_by_no_breaks(self):
        f = lambda t: np.exp(np.sin(3.0 * t)) / (2.0 + np.cos(t))  # noqa: E731
        assert integrate_row(f, self.A, self.B, 1e-12, breaks=()) == integrate_row(
            f, self.A, self.B, 1e-12)


class TestIntegrateVectorizedRows:
    """A (k, N) integrand is k integrals in one run: each row equals its run
    alone, bit for bit, and one call of f per round takes every row."""

    A, B = 0.0, 2 * math.pi
    SMOOTH = staticmethod(lambda t: np.exp(np.sin(t)))                   # one round
    KINKED = staticmethod(lambda t: np.abs(np.sin(3.0 * t - 0.3)))       # many rounds
    ROOT = staticmethod(lambda t: np.sqrt(np.abs(t - 1.234567)))         # many rounds

    def _rows(self, fs, breaks=()):
        stacked, calls = _counting(lambda t: np.array([f(t) for f in fs]))
        values, errors = integrate_vectorized(stacked, self.A, self.B, 1e-12, breaks)
        solo = []
        for f in fs:
            counted, solo_calls = _counting(f)
            solo.append((integrate_row(counted, self.A, self.B, 1e-12, breaks), len(solo_calls)))
        return values, errors, len(calls), solo

    @pytest.mark.parametrize("breaks", [(), (1.234567,)], ids=["no-breaks", "a-break"])
    @pytest.mark.parametrize("names", [("SMOOTH", "KINKED"), ("KINKED", "SMOOTH"),
                                       ("ROOT", "KINKED", "SMOOTH")])
    def test_each_row_is_its_run_alone(self, names, breaks):
        values, errors, rounds, solo = self._rows([getattr(self, name) for name in names], breaks)
        assert values.shape == errors.shape == (len(names),)
        for value, error, ((solo_value, solo_error), _) in zip(values, errors, solo):
            assert (value, error) == (solo_value, solo_error)
        # the rows need different numbers of rounds, and the run takes the most
        assert len({count for _, count in solo}) > 1
        assert rounds == max(count for _, count in solo)

    def test_rows_of_the_first_round_alone_take_one_call(self):
        values, errors, rounds, solo = self._rows([self.SMOOTH, lambda t: 2.0 * np.cos(t) ** 2])
        assert rounds == 1 and [count for _, count in solo] == [1, 1]
        assert [(v, e) for v, e in zip(values, errors)] == [result for result, _ in solo]

    @pytest.mark.parametrize("row", [0, 1])
    def test_a_nan_row_raises(self, row):
        def f(t):
            y = np.array([self.KINKED(t), self.SMOOTH(t)])
            y[row, 3] = np.nan
            return y

        with pytest.raises(ConvergenceError, match=f"in row {row}"):
            integrate_vectorized(f, self.A, self.B, 1e-12)


def _noise(t):
    """A deterministic function of t with no smoothness at any scale, in [0, 1)."""
    return np.modf(np.abs(np.sin(t * 12.9898)) * 43758.5453)[0]


def _seeded_row(rng):
    """One integrand on [0, 2 pi] of a seeded kind, place and magnitude
    (1e-12 to 1e6), and the corner it has (None for a smooth one)."""
    scale, c = 10.0 ** rng.uniform(-12.0, 6.0), rng.uniform(0.0, 2 * math.pi)
    kind = int(rng.integers(4))
    if kind == 0:       # one round
        return (lambda t: scale * np.exp(np.sin(t - c))), None
    if kind == 1:       # a kink: a few rounds
        return (lambda t: scale * np.abs(np.sin(t - c))), c
    if kind == 2:       # a square-root end: many rounds
        return (lambda t: scale * np.sqrt(np.abs(t - c))), c
    return (lambda t: scale * np.maximum(t - c, 0.0) ** 3), c


class TestTheFrozenIntegrator:
    """``integrate_vectorized`` returns the bits of the frozen copy in
    ``tests/reference.py``, and raises its errors, on seeded integrands."""

    A, B = 0.0, 2 * math.pi
    EDGES = [k * math.pi / 4 for k in range(1, 8)]

    @staticmethod
    def _both(f, a, b, tol=1e-12, breaks=()):
        """Each integrator's (values, errors) as bytes, or its error's type
        and message."""
        outcomes = []
        for integrate in (integrate_vectorized, frozen_integrate):
            try:
                values, errors = integrate(f, a, b, tol, breaks)
                outcomes.append((values.tobytes(), errors.tobytes()))
            except ConvergenceError as exc:
                outcomes.append((type(exc), str(exc)))
        return outcomes

    @pytest.mark.parametrize("seed", range(48))
    def test_seeded_rows_and_breaks(self, seed):
        rng = np.random.default_rng([seed, 40])
        rows = [_seeded_row(rng) for _ in range(1 + seed % 3)]
        corners = [c for _, c in rows if c is not None]
        breaks = [(), self.EDGES, corners * 3 + [c + 1e-13 for c in corners], corners][seed // 3 % 4]
        f = lambda t: np.array([g(t) for g, _ in rows])  # noqa: E731
        mine, frozen = self._both(f, self.A, self.B, breaks=breaks)
        assert mine == frozen

    @pytest.mark.parametrize("breaks", [(), (1.234567,), (math.pi / 2,) * 3])
    def test_rows_that_stop_at_different_rounds(self, breaks):
        # one round, a kink's few and a square root's many: the later rounds
        # hold masks of the rows still bisecting
        f, calls = _counting(lambda t: np.array([np.exp(np.sin(t)), np.abs(np.sin(3.0 * t - 0.3)),
                                                 1e-9 * np.sqrt(np.abs(t - 1.234567))]))
        mine, frozen = self._both(f, self.A, self.B, breaks=breaks)
        assert mine == frozen
        assert len(set(calls)) > 2

    def test_a_row_at_the_interval_cap(self):
        # noise 1e-9 on a smooth row bisects every interval until 4000 would
        # be passed; all are accepted then, and the kinked row runs on alone
        f, calls = _counting(lambda t: np.array([np.exp(np.sin(t)) + 1e-9 * _noise(t),
                                                 np.abs(np.sin(t - 0.3))]))
        mine, frozen = self._both(f, self.A, self.B)
        assert mine == frozen and isinstance(mine[0], bytes)
        assert max(calls) >= 2000 * 21 and calls[-1] < 21 * 8

    def test_a_row_past_the_interval_cap_raises_as_the_frozen_one(self):
        f = lambda t: np.array([np.exp(np.sin(t)), 1e3 * _noise(t)])  # noqa: E731
        mine, frozen = self._both(f, self.A, self.B)
        assert mine == frozen and mine[0] is ConvergenceError and "in row 1" in mine[1]

    def test_errors_at_the_threshold_split_as_the_frozen_ones(self):
        # tol * width / (b - a) and tol * (width / (b - a)) can differ in the
        # last bit.  For kinks of 40 heights, the tols within 8 ulps of the
        # kinked panel's first-round threshold that put its error on either
        # side of the two: there only the frozen order of operations matches
        edges = np.linspace(self.A, self.B, 9)
        half = (edges[1:] - edges[:-1]) / 2.0
        width = 2.0 * half[0]     # the kink at 0.3 is in panel 0
        x = ((edges[:-1] + edges[1:]) / 2.0)[:, None] + half[:, None] * _GK21_NODES
        cases = []
        for height in 0.1 + 0.001 * np.arange(40):    # max |f| (b - a) < 1: tol unscaled
            f = lambda t, height=height: height * np.abs(np.sin(t - 0.3))  # noqa: E731
            first = FrozenRow(1.0)    # accepts every panel, keeping its error
            first.round(f(x), half, self.A, self.B, 1e-12 * (self.B - self.A))
            err = first.errors[0][0]
            for direction in (np.inf, -np.inf):
                tol = err * (self.B - self.A) / width
                for _ in range(8):
                    if (err > tol * width / (self.B - self.A)) != (err > tol * (width / (self.B - self.A))):
                        cases.append((f, tol))
                    tol = np.nextafter(tol, direction)
        assert len(cases) >= 2
        for f, tol in cases:
            mine, frozen = self._both(lambda t, f=f: f(t)[None], self.A, self.B, tol)
            assert mine == frozen

    @pytest.mark.parametrize("row", [0, 1, 2])
    def test_a_nan_row(self, row):
        def f(t):
            y = np.array([np.abs(np.sin(t - 0.3)), np.exp(np.cos(t)), 1e6 * np.sqrt(np.abs(t - 2.0))])
            y[row, 7] = np.nan
            return y

        mine, frozen = self._both(f, self.A, self.B)
        assert mine == frozen and mine[0] is ConvergenceError and f"in row {row}" in mine[1]
