import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gammainc, gammaln

from starsections import functionals, quadrature
from starsections import verify as verify_module
from starsections.bodies import (
    ArcsBase,
    BandsBase,
    EllipsoidProfile,
    GridProfile,
    HarmonicPerturbedProfile,
    RadialProfile,
    StarBody,
    cap_base,
    equality_cone_base,
    make_ball,
    make_bumpy_ball,
    make_cone,
    make_ellipsoid,
    make_lune,
    make_perturbed_ball,
    make_striped_cone,
    make_symmetric_polygon_body,
)
from starsections.errors import (
    ApplicabilityError, ConvergenceError, DomainError, InversionRangeError, ResourceLimitError,
)
from starsections.functionals import (
    THEOREMS,
    InequalityReport,
    QuadratureConfig,
    RadialDensityMeasure,
    big_psi,
    bound_constants,
    busemann_functional,
    busemann_functional_with_error,
    f_spherical,
    f_spherical_limit,
    g_hyperbolic,
    gaussian_measure,
    h_hyperbolic,
    lune_bound,
    psi,
    psi_inverse,
    rhs_bound,
    section_volume,
    stable_arccos_one_minus,
    volume,
    volume_and_functional,
)
from starsections.harmonics import zonal_harmonic
from starsections.quadrature import (
    build_sphere_rule, householder_frames, integrate_vectorized, subsphere_frames,
)
from starsections.spaces import SpaceSpec, brent_root, phi, sin_power_primitive_full, sphere_surface_area
from starsections.verify import (
    perturbation_sign_experiment,
    run_theorem_suite,
    random_star_body,
    random_symmetric_convex_body,
    suite_bodies,
)

S2 = SpaceSpec(1, 2)
S3 = SpaceSpec(1, 3)
E2 = SpaceSpec(0, 2)
E3 = SpaceSpec(0, 3)
H2 = SpaceSpec(-1, 2)
H3 = SpaceSpec(-1, 3)
DEFAULT = QuadratureConfig()


class TestVolume:
    def test_unit_ball(self):
        assert volume(make_ball(E3, 1.0)) == pytest.approx(4 * math.pi / 3, abs=1e-9)

    def test_hemisphere(self):
        assert volume(make_ball(S2, math.pi / 2)) == pytest.approx(2 * math.pi, rel=1e-12)

    def test_gaussian_ball(self):
        mu = gaussian_measure()
        for r in (0.5, 1.2):
            got = volume(make_ball(E2, r), mu)
            assert got == pytest.approx(1 - math.exp(-r * r / 2), rel=1e-12)

    def test_monotone_under_nested_profiles(self):
        inner = make_bumpy_ball(E3, 0.8, [[0, 0, 1.0]], [0.1], [3.0])
        outer = make_bumpy_ball(E3, 0.95, [[0, 0, 1.0]], [0.15], [3.0])
        assert volume(inner) < volume(outer)
        xi = np.array([1.0, 0.0, 0.0])
        assert section_volume(inner, xi) < section_volume(outer, xi)


class TestSectionVolume:
    def test_plane_hemisphere_ball(self):
        body = make_ball(S2, 0.7)
        for xi in (np.array([1.0, 0.0]), np.array([0.6, 0.8])):
            assert section_volume(body, xi) == pytest.approx(1.4, rel=1e-14)

    def test_euclidean_disk(self):
        body = make_ball(E3, 1.0)
        assert section_volume(body, np.array([0.0, 0.0, 1.0])) == pytest.approx(math.pi, rel=1e-12)

    def test_gaussian_erf(self):
        mu = gaussian_measure()
        body = make_ball(E2, 1.3)
        expected = math.erf(1.3 / math.sqrt(2))
        assert section_volume(body, np.array([1.0, 0.0]), mu) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("body", [make_bumpy_ball(S3, 0.8, [[0.0, 0.0, 1.0]], [0.2], [3.0]),
                                      make_cone(S3, equality_cone_base(3, 0.4))],
                             ids=["bumpy", "cone"])
    @pytest.mark.parametrize("xi", [[0.0, 1.2, 1.6], [0.0, 0.0, 0.0], [0.6, 0.8]],
                             ids=["scaled", "zero", "wrong-length"])
    def test_rejects_a_normal_that_is_not_a_unit_vector(self, body, xi):
        assert section_volume(body, [0.0, 0.6, 0.8]) > 0.0
        with pytest.raises(DomainError):
            section_volume(body, xi)


class TestBusemannFunctional:
    def test_euclidean_plane_ball(self):
        # sections have length 2, so the functional is 8 pi = c_2 |K|
        body = make_ball(E2, 1.0)
        assert busemann_functional(body) == pytest.approx(8 * math.pi, rel=1e-11)

    def test_hemisphere_value(self):
        body = make_ball(S2, math.pi / 2)
        assert busemann_functional(body) == pytest.approx(2 * math.pi ** 3, rel=1e-11)

    def test_cone_identity(self):
        base = ArcsBase(((0.2, 0.9), (0.2 + math.pi, 0.9 + math.pi)))
        body = make_cone(S2, base)
        assert busemann_functional(body) == pytest.approx(math.pi ** 2 * volume(body), rel=1e-13)

    def test_exponent_override(self):
        body = make_ball(S3, 0.6)
        lhs = busemann_functional(body, exponent=1)
        expected = 4 * math.pi * section_volume(body, np.array([0.0, 0.0, 1.0]))
        assert lhs == pytest.approx(expected, rel=1e-12)

    def test_normalized(self):
        body = make_ball(E2, 1.0)
        assert busemann_functional(body, normalized=True) == pytest.approx(4.0, rel=1e-11)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
class TestFiniteLeftSides:
    """A left side past the float range is refused with ResourceLimitError,
    not returned as inf, or as the NaN of inf - inf."""

    def test_an_overflowing_volume(self):
        body = make_ball(SpaceSpec(-1, 4), 300.0)
        for left_side in (volume, busemann_functional, volume_and_functional,
                          busemann_functional_with_error):
            with pytest.raises(ResourceLimitError, match="the (volume|functional) is inf"):
                left_side(body)
        with pytest.raises(ResourceLimitError, match="the volume is inf"):
            rhs_bound("hyperbolic", body)

    def test_an_overflowing_functional(self):
        body = make_ball(H3, 300.0)
        assert math.isfinite(volume(body))
        for left_side in (busemann_functional, volume_and_functional, busemann_functional_with_error):
            with pytest.raises(ResourceLimitError, match="the functional is inf"):
                left_side(body)

    def test_an_overflowing_section(self):
        with pytest.raises(ResourceLimitError, match="the section volume is inf"):
            section_volume(make_ball(SpaceSpec(-1, 5), 300.0), [1.0, 0.0, 0.0, 0.0, 0.0])


def seeded_polygons(count, seed=12345):
    rng = np.random.default_rng(seed)
    return [random_symmetric_convex_body(rng) for _ in range(count)]


class TestPlaneAdaptive:
    def test_one_rho_call_per_refinement_round(self, monkeypatch):
        body = make_symmetric_polygon_body([0.7, 1.3, 0.9], [0.2, 1.1, 2.3])
        calls = []
        rho = StarBody.rho

        def counted(self, dirs):
            calls.append(len(dirs))
            return rho(self, dirs)

        monkeypatch.setattr(StarBody, "rho", counted)
        busemann_functional(body)
        volume(body)
        assert len(calls) <= 200

    def test_polygon_matches_piecewise_reference(self):
        # reference: QUADPACK on each smooth piece between the corner directions
        offsets = np.array([0.9195839238831847, 0.6785268068085492])
        angles = np.array([1.3913619942340814, 1.8473126265054933])
        body = make_symmetric_polygon_body(offsets, angles)
        normals = np.column_stack([np.cos(angles), np.sin(angles)])
        corners = [np.linalg.solve(normals, [s1 * offsets[0], s2 * offsets[1]])
                   for s1 in (1, -1) for s2 in (1, -1)]
        edges = [0.0] + sorted(math.atan2(y, x) % (2 * math.pi) for x, y in corners) + [2 * math.pi]

        def rho(theta):
            return float(body.rho(np.array([[math.cos(theta), math.sin(theta)]]))[0])

        def piecewise(f):
            return sum(quad(f, a, b, epsabs=1e-14, epsrel=1e-13, limit=500)[0]
                       for a, b in zip(edges, edges[1:]))

        vol = piecewise(lambda t: 1.0 - math.cos(rho(t)))
        # symmetric body: the section normal to xi is twice the radius along xi-perp
        functional = 4.0 * piecewise(lambda t: rho(t) ** 2)
        assert volume(body) == pytest.approx(vol, rel=1e-13)
        assert busemann_functional(body) == pytest.approx(functional, rel=1e-13)

    @pytest.mark.parametrize("body", seeded_polygons(12) + [make_lune(w) for w in (0.2, 0.5, 1.0, 1.4)])
    def test_error_estimate_covers_refinement(self, body, monkeypatch):
        val, err = busemann_functional_with_error(body)
        monkeypatch.setattr(functionals, "ANGULAR_TOL", 1e-14)
        fine = busemann_functional(body)
        assert abs(val - fine) <= err


def _strips(body):
    """(normals, offsets) with tan rho(u) = min_i c_i / |<u, w_i>|: a polygon's
    strips, or a lune's one strip of offset tan w."""
    profile = body.profile
    if profile.kind == "lune":
        return profile.axis[None, :], np.array([math.tan(profile.w)])
    return profile.normals, profile.offsets


def _corners_by_bisection(body, samples=20000):
    """The angles where rho(cos t, sin t) changes its formula, found without
    ``plane_corners``: where the active strip or the sign of <u, w> on it
    changes between dense samples, then bisected to the last bit."""
    normals, offsets = _strips(body)

    def piece(t):
        t = np.atleast_1d(t)
        dots = np.column_stack([np.cos(t), np.sin(t)]) @ normals.T
        active = np.argmin(offsets / np.maximum(np.abs(dots), 1e-300), axis=1)
        return 2 * active + (dots[np.arange(len(t)), active] > 0)

    t = np.linspace(0.0, 2 * math.pi, samples + 1)
    labels = piece(t)
    corners = []
    for k in np.flatnonzero(labels[1:] != labels[:-1]):
        lo, hi = t[k], t[k + 1]
        for _ in range(60):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if piece(mid)[0] == labels[k] else (lo, mid)
        corners.append((lo + hi) / 2)
    return corners


def _piecewise_quad(f, corners):
    edges = [0.0, *sorted(corners), 2 * math.pi]
    return math.fsum(quad(f, a, b, epsabs=1e-14, epsrel=1e-13, limit=200)[0]
                     for a, b in zip(edges, edges[1:]) if b > a)


def _random_polygon(k, lo, hi, seed=0):
    """k strips of random directions and offsets in [lo, hi]."""
    rng = np.random.default_rng(seed)
    return make_symmetric_polygon_body(rng.uniform(lo, hi, k), rng.uniform(0.0, math.pi, k))


CORNERED_BODIES = {
    "polygon2": make_symmetric_polygon_body([0.92, 0.68], [1.39, 1.85]),
    "polygon2-wide": make_symmetric_polygon_body([1.0, 0.8], [0.4, 1.5]),
    "polygon3": make_symmetric_polygon_body([0.7, 1.3, 0.9], [0.2, 1.1, 2.3]),
    "polygon3-thin": make_symmetric_polygon_body([0.3, 1.9, 0.5], [0.05, 1.6, 2.9]),
    "polygon50": _random_polygon(50, 0.9, 1.1),
    "lune-tilted": make_lune(0.4, (0.6, 0.8)),
    "lune-wide": make_lune(1.3, (math.cos(2.0), math.sin(2.0))),
    "lune-thin": make_lune(0.15, (math.cos(-0.3), math.sin(-0.3))),
}


def _grid_body(space, symmetric, seed=0, nodes=64):
    lo, hi = {1: (0.2, 1.4), 0: (0.5, 2.0), -1: (0.3, 1.5)}[space.delta]
    values = np.random.default_rng(seed).uniform(lo, hi, nodes)
    if symmetric:
        values[nodes // 2:] = values[:nodes // 2]
    body = StarBody(space, GridProfile(values))
    assert body.symmetric == symmetric
    return body


def _plane_rounds(body, monkeypatch):
    """Rounds (calls of the integrand) of each Gauss-Kronrod integral that the
    plane path makes for the volume, the functional, its first power and the
    normalized functional with error, with the uniform and the Gaussian
    measure."""
    rounds = []
    integrate = functionals.integrate_vectorized

    def counted(f, *args):
        calls = [0]

        def g(x):
            calls[0] += 1
            return f(x)

        result = integrate(g, *args)
        rounds.append(calls[0])
        return result

    with monkeypatch.context() as patch:
        patch.setattr(functionals, "integrate_vectorized", counted)
        for mu in (None, gaussian_measure()):
            volume(body, mu)
            busemann_functional(body, mu)
            busemann_functional(body, mu, exponent=1)
            busemann_functional_with_error(body, mu, normalized=True)
    return rounds


class TestPlaneCorners:
    """Plane integrals start cut at the profile's own corners."""

    def test_declared_corners(self):
        assert len(make_ball(S2, 0.7).profile.plane_corners()) == 0
        assert np.allclose(np.sort(make_lune(0.4, (0.6, 0.8)).profile.plane_corners()),
                           [math.atan2(0.8, 0.6) + math.pi / 2, math.atan2(0.8, 0.6) + 3 * math.pi / 2])
        grid = GridProfile(np.full(8, 0.7))
        assert np.array_equal(grid.plane_corners(), 2 * math.pi * np.arange(8) / 8)
        assert len(GridProfile(np.full((4, 8), 0.7)).plane_corners()) == 0

    @pytest.mark.parametrize("k", [1, 2, 3, 50, 300])
    def test_a_polygon_declares_only_its_hull_edges(self, k):
        # one corner per edge of the hull of the 2k points +-w_i / c_i, however
        # many strips are never active; a strip's u-orthogonal-to-w kink only
        # when every strip is parallel to it
        for lo, hi in ((0.3, 2.0), (0.9, 1.1)):
            assert len(_random_polygon(k, lo, hi, seed=k).profile.plane_corners()) <= 2 * k
        parallel = make_symmetric_polygon_body([0.9, 1.4, 1.1], [0.7, 0.7, 0.7 + math.pi])
        close = np.isclose(parallel.profile.plane_corners()[:, None],
                           [0.7 + math.pi / 2, 0.7 + 3 * math.pi / 2], rtol=0.0, atol=1e-12)
        assert close.any(axis=0).all() and close.any(axis=1).all()

    @pytest.mark.parametrize("name", CORNERED_BODIES)
    def test_declared_corners_hold_the_bisected_ones(self, name):
        body = CORNERED_BODIES[name]
        declared = body.profile.plane_corners()
        for corner in _corners_by_bisection(body):
            gap = np.abs(declared - corner)
            assert np.min(np.minimum(gap, 2 * math.pi - gap)) <= 1e-12

    @pytest.mark.parametrize("name", CORNERED_BODIES)
    def test_against_a_piecewise_reference(self, name):
        # QUADPACK on each smooth piece between corners found by bisection
        body = CORNERED_BODIES[name]
        corners = _corners_by_bisection(body)

        def rho(t):
            return float(body.rho(np.array([[math.cos(t), math.sin(t)]]))[0])

        vol = _piecewise_quad(lambda t: 1.0 - math.cos(rho(t)), corners)
        # symmetric body: the section normal to xi is twice the radius along xi-perp
        functional = 4.0 * _piecewise_quad(lambda t: rho(t) ** 2, corners)
        value, err = busemann_functional_with_error(body)
        assert volume(body) == pytest.approx(vol, rel=1e-12, abs=0.0)
        assert value == pytest.approx(functional, rel=1e-12, abs=0.0)
        assert abs(value - functional) <= err

    @pytest.mark.parametrize("body", [
        *(b for name, b in CORNERED_BODIES.items() if name.startswith("polygon")), *seeded_polygons(6),
        *(_grid_body(space, symmetric) for space in (S2, E2, H2) for symmetric in (True, False)),
    ])
    def test_polygon_and_grid_integrals_take_at_most_two_rounds(self, body, monkeypatch):
        rounds = _plane_rounds(body, monkeypatch)
        # per measure: volume, two functionals, and the value and error passes
        # of the functional with error
        assert len(rounds) == 10 and max(rounds) <= 2

    @pytest.mark.parametrize("w", [0.15, 0.2, 0.4, 1.3])
    @pytest.mark.parametrize("angle", [-0.3, 1.0, 2.0])
    def test_a_tilted_lune_takes_the_rounds_of_its_axis_e1_twin(self, w, angle, monkeypatch):
        # the axis-e1 lune has its corners on the starting panels' edges, so
        # what refinement it needs comes from the curvature beside them
        # (3 rounds at w = 0.15 and 0.2, which the cuts do not change)
        tilted = _plane_rounds(make_lune(w, (math.cos(angle), math.sin(angle))), monkeypatch)
        twin = _plane_rounds(make_lune(w), monkeypatch)
        assert max(tilted) <= max(2, max(twin))
        if w >= 0.4:
            assert max(tilted) <= 2

    @pytest.mark.parametrize("symmetric", [True, False], ids=["symmetric", "asymmetric"])
    @pytest.mark.parametrize("space", [S2, E2, H2], ids=str)
    def test_grid_bodies_match_the_search_closed_forms(self, space, symmetric):
        # the profile is linear in the angle between its nodes, which are its corners
        body = _grid_body(space, symmetric, seed=space.delta + 5)
        values = body.profile.values
        assert busemann_functional(body) == pytest.approx(
            verify_module._plane_objective(values), rel=1e-13, abs=0.0)
        assert volume(body) == pytest.approx(
            verify_module._plane_volume(space, values), rel=1e-13, abs=0.0)


def _rho_calls_by_round(body, mu, monkeypatch):
    """The point count of each Gauss-Kronrod round that the volume, the
    functional and the functional with error make, each with the point counts
    of the ``StarBody.rho`` calls made inside it; and every ``rho`` call's
    point count."""
    rounds, points = [], []
    rho, integrate = StarBody.rho, functionals.integrate_vectorized

    def spied_rho(self, dirs):
        points.append(len(dirs))
        return rho(self, dirs)

    def counted(f, *args):
        def g(x):
            start = len(points)
            out = f(x)
            rounds.append((len(x), points[start:]))
            return out

        return integrate(g, *args)

    with monkeypatch.context() as patch:
        patch.setattr(StarBody, "rho", spied_rho)
        patch.setattr(functionals, "integrate_vectorized", counted)
        volume(body, mu)
        busemann_functional(body, mu)
        busemann_functional_with_error(body, mu)
        volume_and_functional(body, mu)
    return rounds, points


class TestPlaneRoundsOnly:
    """The plane path scales its tolerance by Gauss-Kronrod's own first round,
    so rho is evaluated at round nodes and nowhere else."""

    @pytest.mark.parametrize("mu", [None, gaussian_measure()], ids=["uniform", "gaussian"])
    @pytest.mark.parametrize("body", [
        make_ball(S2, 0.7), make_lune(0.4, (0.6, 0.8)),
        make_symmetric_polygon_body([0.7, 1.3, 0.9], [0.2, 1.1, 2.3]),
        make_bumpy_ball(S2, 0.8, [[0.6, 0.8]], [0.2], [3.0], symmetric=True),
        make_bumpy_ball(S2, 0.8, [[0.6, 0.8]], [0.2], [3.0]),
    ], ids=["ball", "lune", "polygon", "bumpy", "bumpy-asymmetric"])
    def test_rho_sees_only_round_nodes(self, body, mu, monkeypatch):
        rounds, points = _rho_calls_by_round(body, mu, monkeypatch)
        # no rho call outside a round, and no 97-point probe
        assert sum(len(calls) for _, calls in rounds) == len(points)
        assert 97 not in points
        for size, calls in rounds:
            assert size % 21 == 0
            # a functional round of an asymmetric body adds rho at -dirs
            assert calls == [size] or (not body.symmetric and calls == [size, size])


def _integrals_per_body(theorem_id, bodies, mu, monkeypatch):
    """The ``integrate_vectorized`` calls that ``run_theorem_suite`` makes for
    each body, one body at a time."""
    calls = []
    integrate = functionals.integrate_vectorized

    def counted(*args):
        calls[-1] += 1
        return integrate(*args)

    with monkeypatch.context() as patch:
        patch.setattr(functionals, "integrate_vectorized", counted)
        for body in bodies:
            calls.append(0)
            run_theorem_suite(theorem_id, [body], mu)
    return calls


_SYMMETRIC_PLANE = [make_ball(S2, 0.7), make_lune(0.4, (0.6, 0.8)),
                    make_symmetric_polygon_body([0.7, 1.3, 0.9], [0.2, 1.1, 2.3]),
                    make_bumpy_ball(S2, 0.8, [[0.6, 0.8]], [0.2], [3.0], symmetric=True)]
_ASYMMETRIC_PLANE = [make_bumpy_ball(S2, 0.8, [[0.6, 0.8]], [0.2], [3.0]),
                     make_bumpy_ball(S2, 0.7, [[1.0, 0.0], [0.0, -1.0]], [0.2, -0.1], [4.0, 2.0])]
# the ball, the lune and the polygon: the bodies whose profile is flagged convex
_CONVEX_PLANE = _SYMMETRIC_PLANE[:3]


class TestOneRunPerPlaneBody:
    """A plane suite takes the bound's volume and the functional from one
    Gauss-Kronrod run per body."""

    @pytest.mark.parametrize("theorem_id, bodies", [
        ("min2d", _SYMMETRIC_PLANE),
        ("cone-max", _SYMMETRIC_PLANE + _ASYMMETRIC_PLANE),
        ("lune-max", _CONVEX_PLANE),
    ])
    def test_the_plane_theorems(self, theorem_id, bodies, monkeypatch):
        assert _integrals_per_body(theorem_id, bodies, None, monkeypatch) == [1] * len(bodies)

    def test_lune_max_refuses_a_body_not_flagged_convex(self, monkeypatch):
        # lune-max is stated for convex bodies; the bow-tie cone, which is
        # not one, got a FAIL
        bow_tie = make_cone(S2, ArcsBase(((0.2, 1.1), (0.2 + math.pi, 1.1 + math.pi))))
        for body in [bow_tie, _SYMMETRIC_PLANE[3], *_ASYMMETRIC_PLANE]:
            assert not body.profile.convex
            with pytest.raises(ApplicabilityError, match="needs a convex body"):
                _integrals_per_body("lune-max", [body], None, monkeypatch)
            with pytest.raises(ApplicabilityError, match="needs a convex body"):
                rhs_bound("lune-max", body)

    @pytest.mark.parametrize("space", [E2, H2], ids=str)
    def test_the_gaussian_theorem_in_the_plane(self, space, monkeypatch):
        bodies = [make_ball(space, 0.8),
                  make_bumpy_ball(space, 0.8, [[0.6, 0.8]], [0.2], [3.0], symmetric=True),
                  make_bumpy_ball(space, 0.8, [[0.6, 0.8]], [0.2], [3.0])]
        assert _integrals_per_body("gaussian", bodies, gaussian_measure(), monkeypatch) == [1] * 3

    @pytest.mark.parametrize("theorem_id, bodies", [
        ("cone-max", _SYMMETRIC_PLANE[:1] + _ASYMMETRIC_PLANE[:1]), ("lune-max", _CONVEX_PLANE[:2]),
    ], ids=["cone-max", "lune-max"])
    def test_a_functional_in_another_measure_than_the_bound_is_refused(self, theorem_id, bodies,
                                                                       monkeypatch):
        # the suite compared a Gaussian functional with a bound on the uniform
        # volume, which no theorem states, and passed it; now it refuses
        # before any integral
        for body in bodies:
            with pytest.raises(ApplicabilityError, match="stated for the uniform volume"):
                _integrals_per_body(theorem_id, [body], gaussian_measure(), monkeypatch)

    @pytest.mark.parametrize("theorem_id, bodies", [
        ("min2d", _SYMMETRIC_PLANE), ("cone-max", _ASYMMETRIC_PLANE), ("lune-max", _CONVEX_PLANE),
    ])
    def test_the_reports_hold_the_two_calls(self, theorem_id, bodies):
        theorem = functionals.get_theorem(theorem_id)
        for body, report in zip(bodies, run_theorem_suite(theorem_id, bodies)):
            functional = busemann_functional(body)
            bound = rhs_bound(theorem_id, body)
            assert (report.lhs, report.rhs) == ((bound, functional) if theorem.lower
                                                else (functional, bound))


RULE_IN_PLANE = QuadratureConfig(plane_adaptive=False)


class TestPlaneRule:
    """``plane_adaptive=False``: plane bodies take the circle rule, not Gauss-Kronrod."""

    def test_ball_closed_forms(self):
        r = 0.7
        body = make_ball(S2, r)
        assert volume(body, config=RULE_IN_PLANE) == pytest.approx(
            2 * math.pi * (1 - math.cos(r)), rel=1e-12, abs=0.0)
        assert busemann_functional(body, config=RULE_IN_PLANE) == pytest.approx(
            2 * math.pi * (2 * r) ** 2, rel=1e-12, abs=0.0)

    def test_error_estimate_is_the_rule_refinement(self):
        body = make_ball(S2, 0.7)
        val, err = busemann_functional_with_error(body, config=RULE_IN_PLANE)
        coarse = busemann_functional(body, config=RULE_IN_PLANE)
        finer = busemann_functional(body, config=QuadratureConfig(
            outer_degree=RULE_IN_PLANE.outer(2) + 8, inner_degree=RULE_IN_PLANE.inner(2) + 8,
            plane_adaptive=False))
        assert val == finer
        assert err == abs(finer - coarse) + 1e-15 * abs(finer)

    @pytest.mark.parametrize("seed", range(6))
    def test_rule_and_adaptive_agree_within_both_estimates(self, seed):
        body = random_star_body(S2, np.random.default_rng(seed))
        rule, err_rule = busemann_functional_with_error(body, config=RULE_IN_PLANE)
        adaptive, err_adaptive = busemann_functional_with_error(body)
        assert abs(rule - adaptive) <= err_rule + err_adaptive


class NonZonal(RadialProfile):
    """The same radial function with its axis hidden: forces the product rule."""

    def __init__(self, profile):
        self.kind = profile.kind
        self.symmetric = profile.symmetric
        self.reads, self.rho_of = profile.reads, profile.rho_of


def product_rule(body):
    return StarBody(body.space, NonZonal(body.profile))


def experiment_config(n, k):
    degree = max(31, n * k + 14)   # as perturbation_sign_experiment chooses it
    return QuadratureConfig(outer_degree=degree, inner_degree=degree)


def counted_rho_rows(monkeypatch):
    """The list that the row count of each ``StarBody.rho`` call, at
    directions, and each ``StarBody.rho_of`` call, at readings, is appended
    to until monkeypatch undoes it."""
    rows = []
    for name in ("rho", "rho_of"):
        def counted(self, x, original=getattr(StarBody, name)):
            rows.append(len(x))
            return original(self, x)

        monkeypatch.setattr(StarBody, name, counted)
    return rows


@pytest.fixture
def fresh_grid_cache():
    # start from no cached product-path frames, and drop those the test builds
    functionals._section_grid.cache_clear()
    yield
    functionals._section_grid.cache_clear()


class TestZonalPath:
    @pytest.mark.parametrize("space,mu", [(S3, None), (SpaceSpec(1, 4), None), (H3, None),
                                          (E3, None), (H3, gaussian_measure()),
                                          (E3, gaussian_measure())])
    def test_ball_matches_product_rule(self, space, mu):
        ball = make_ball(space, 0.7)
        assert busemann_functional(ball, mu) == pytest.approx(
            busemann_functional(product_rule(ball), mu), rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("beta", [0.08, 0.02])
    @pytest.mark.parametrize("n,k", [(3, 2), (3, 4), (3, 6), (3, 8), (4, 2)])
    def test_perturbed_ball_within_both_error_estimates(self, n, k, beta, fresh_grid_cache):
        body = make_perturbed_ball(SpaceSpec(1, n), 0.8, beta, k)
        config = experiment_config(n, k)
        zonal, err_zonal = busemann_functional_with_error(body, config=config)
        product, err_product = busemann_functional_with_error(product_rule(body), config=config)
        assert abs(zonal - product) <= err_zonal + err_product

    @pytest.mark.parametrize("n,k", [(3, 4), (4, 2)])
    def test_tilted_axis_matches_default_axis(self, n, k):
        # the body is read at c = <u, axis> itself, so no left side's bits
        # depend on the axis
        body = make_perturbed_ball(SpaceSpec(1, n), 0.8, 0.08, k)
        p = body.profile
        config = experiment_config(n, k)
        c = functionals._path(body, config).rule()[1]
        sections = functionals._path(body, config).sections(None, c)
        for seed in range(10):
            tilted = np.random.default_rng(seed).normal(size=n)
            tilted /= np.linalg.norm(tilted)
            turned = StarBody(body.space, HarmonicPerturbedProfile(p.r, p.alpha, p.beta,
                                                                   zonal_harmonic(n, k, tilted)))
            assert volume_and_functional(turned, config=config) == \
                volume_and_functional(body, config=config)
            assert functionals._path(turned, config).sections(None, c).tobytes() == sections.tobytes()

    @pytest.mark.parametrize("n", range(3, 13))
    def test_ball_matches_closed_forms(self, n):
        space = SpaceSpec(1, n)
        ball = make_ball(space, 0.9)
        section = sphere_surface_area(n - 2) * phi(space, n - 1, 0.9)
        assert volume(ball) == pytest.approx(
            sphere_surface_area(n - 1) * phi(space, n, 0.9), rel=1e-13, abs=0.0)
        assert busemann_functional(ball) == pytest.approx(
            sphere_surface_area(n - 1) * section ** n, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("n,k", [(3, 4), (4, 2)])
    def test_section_at_tilted_normal_within_both_error_estimates(self, n, k):
        body = make_perturbed_ball(SpaceSpec(1, n), 0.8, 0.08, k)
        xi = np.arange(1.0, n + 1.0) / np.linalg.norm(np.arange(1.0, n + 1.0))
        config = experiment_config(n, k)
        finer = QuadratureConfig(outer_degree=config.outer_degree + 8,
                                 inner_degree=config.inner_degree + 8)

        def with_error(b):
            coarse, fine = section_volume(b, xi, config=config), section_volume(b, xi, config=finer)
            return fine, abs(fine - coarse) + 1e-15 * abs(fine)

        zonal, err_zonal = with_error(body)
        product, err_product = with_error(product_rule(body))
        assert abs(zonal - product) <= err_zonal + err_product

    @pytest.mark.parametrize("k", [2, 4])
    def test_n6_experiment(self, k):
        result = perturbation_sign_experiment(6, 0.7, k)
        assert result.conclusive and result.sign_matches

    @pytest.mark.parametrize("body", [
        make_ball(S3, 0.7), make_ball(E3, 1.2), make_perturbed_ball(SpaceSpec(1, 4), 0.8, 0.08, 2),
        StarBody(S3, HarmonicPerturbedProfile(0.7, 0.0, 0.03, zonal_harmonic(3, 4, [0.48, -0.6, 0.64]))),
        make_cone(S3, cap_base([0.48, -0.6, 0.64], 0.3)), make_striped_cone(S3, 0.5, 0.4, 0.2),
    ], ids=["ball-s3", "ball-e3", "perturbed-s4", "perturbed-tilted", "cap-cone-tilted",
            "striped-cone"])
    def test_left_sides_build_no_direction(self, body, monkeypatch):
        # the zonal and band-cone paths read the body at c = <xi, axis> and
        # at sqrt(1 - c^2) t: no direction in R^n is built and read back
        def refuse(*args, **kwargs):
            raise AssertionError("a left side built directions in R^n")

        monkeypatch.setattr(StarBody, "rho", refuse)
        monkeypatch.setattr(quadrature, "householder_frames", refuse)
        assert not hasattr(functionals, "householder_frames")
        xi = np.arange(1.0, body.space.dim + 1.0)
        for mu in (None, gaussian_measure()):
            volume(body, mu)
            busemann_functional(body, mu)
            section_volume(body, xi / np.linalg.norm(xi), mu)

    @pytest.mark.parametrize("mu", [None, gaussian_measure()], ids=["uniform", "gaussian"])
    def test_sections_in_row_blocks_match_one_pass_bit_for_bit(self, mu, monkeypatch):
        body = make_perturbed_ball(S3, 0.8, 0.08, 4)
        path = functionals._path(body, DEFAULT)
        assert isinstance(path, functionals._Zonal)
        c = path.rule()[1]
        t, w = functionals.polar_rule(1, DEFAULT.inner(3))
        s = np.sqrt(np.maximum(1.0 - c * c, 0.0))[:, None] * t
        whole = np.sum(path._body_radial(mu, 2, s[..., None], body.rho_of) * w, axis=1)
        assert np.array_equal(path.sections(mu, c), whole)
        # blocks of one and of two rows
        for block in (len(t), 2 * len(t)):
            monkeypatch.setattr(functionals, "_BLOCK_POINTS", block)
            assert np.array_equal(path.sections(mu, c), whole)

    def test_peak_memory_of_a_fine_zonal_functional(self):
        # degrees 3014/3014: 754 sections of 3,016 points each, which one
        # (C, T) array of readings would hold in 18 MB
        ball, config = make_ball(S3, 0.7), QuadratureConfig(outer_degree=3014, inner_degree=3014)
        value = busemann_functional(ball, config=config)   # builds and caches the polar rules
        tracemalloc.start()
        try:
            assert busemann_functional(ball, config=config) == value
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16e6

    def test_n4_experiment_evaluates_few_points(self, monkeypatch):
        # the zonal path reads its bodies through rho_of alone
        points = counted_rho_rows(monkeypatch)
        assert perturbation_sign_experiment(4, 0.8, 2).sign_matches
        assert 0 < sum(points) <= 150_000


class TestSectionGrid:
    def test_indicator_bodies_build_no_grid(self, fresh_grid_cache):
        for body in (make_cone(SpaceSpec(1, 4), equality_cone_base(4, 0.4)),
                     make_striped_cone(S3, 0.5, 0.4, 0.2)):
            volume(body)
            busemann_functional(body)
            busemann_functional_with_error(body)
        assert functionals._section_grid.cache_info().misses == 0

    def test_product_path_evaluates_half_the_grid(self, monkeypatch, fresh_grid_cache):
        points = counted_rho_rows(monkeypatch)
        body = make_bumpy_ball(S3, 0.8, [[0.0, 0.6, 0.8]], [0.2], [3.0])
        config = QuadratureConfig(outer_degree=11, inner_degree=15)
        busemann_functional(body, config=config)
        outer, inner = build_sphere_rule(2, 11), build_sphere_rule(1, 15)
        assert sum(points) * 2 == len(outer) * len(inner)

    @pytest.mark.parametrize("space", [S3, H3, SpaceSpec(1, 4)])
    def test_non_symmetric_body_matches_the_full_rule(self, space, fresh_grid_cache):
        # xi and -xi cut the same section, but their inner nodes differ: the
        # full outer rule is a second quadrature of the same integral
        n = space.dim
        body = make_bumpy_ball(space, 0.7, np.eye(n)[:2] + 0.3, [0.2, -0.15], [3.0, 5.0])
        assert not body.symmetric
        config = QuadratureConfig()
        value, error = busemann_functional_with_error(body, config=config)
        outer = build_sphere_rule(n - 1, config.outer(n) + 8)
        inner = build_sphere_rule(n - 2, config.inner(n) + 8)
        embedded = _whole_grid(inner.nodes, outer.nodes)
        rho = body.rho(embedded.reshape(-1, n)).reshape(embedded.shape[:2])
        sections = phi(space, n - 1, rho) @ inner.weights
        reference = float(np.dot(outer.weights, sections ** n))
        assert abs(value - reference) <= error

    def test_cache_is_bounded(self, fresh_grid_cache):
        bumpy = make_bumpy_ball(S3, 0.8, [[0.0, 0.0, 1.0]], [0.2], [3.0])
        for body, degree in ((bumpy, 11), (bumpy, 15), (product_rule(make_ball(S3, 0.7)), 19),
                             (make_bumpy_ball(S2, 0.8, [[0.6, 0.8]], [0.2], [3.0]), 15)):
            config = QuadratureConfig(outer_degree=degree, inner_degree=degree, plane_adaptive=False)
            busemann_functional(body, config=config)
        info = functionals._section_grid.cache_info()
        assert info.misses == 4
        assert info.currsize <= 3


PLANE_RULE = QuadratureConfig(plane_adaptive=False)
_BUMPY_S2 = make_bumpy_ball(S2, 0.8, [[0.6, 0.8]], [0.2], [3.0])
PATH_TABLE = {
    "arcs-cone": (make_cone(S2, ArcsBase(((0.3, 1.0),))), DEFAULT, functionals._Arcs),
    "arcs-cone-symmetric": (make_cone(S2, ArcsBase(((0.3, 1.0), (0.3 + math.pi, 1.0 + math.pi)))),
                            DEFAULT, functionals._Arcs),
    "equality-cone": (make_cone(S3, equality_cone_base(3, 0.4)), DEFAULT, functionals._Indicator),
    "striped-cone": (make_striped_cone(S3, 0.5, 0.4, 0.2), DEFAULT, functionals._Indicator),
    "bumpy-s2": (_BUMPY_S2, DEFAULT, functionals._Plane),
    "bumpy-s2-rule": (_BUMPY_S2, PLANE_RULE, functionals._Product),
    "ball-e3": (make_ball(E3, 1.2), DEFAULT, functionals._Zonal),
    "perturbed-ball-s3": (make_perturbed_ball(S3, 0.8, 0.08, 4), DEFAULT, functionals._Zonal),
    "bumpy-s3": (make_bumpy_ball(S3, 0.8, [[0.0, 0.6, 0.8]], [0.2], [3.0]), DEFAULT,
                 functionals._Product),
    "ellipsoid": (make_ellipsoid([2.0, 0.5, 1.3]), DEFAULT, functionals._Product),
}


@pytest.mark.parametrize("body, config, path", PATH_TABLE.values(), ids=PATH_TABLE.keys())
def test_path_picks_each_path(body, config, path):
    assert type(functionals._path(body, config)) is path
    if path is functionals._Arcs:
        # a closed form: the degree + 8 rerun gives the same value
        v = busemann_functional(body)
        assert busemann_functional_with_error(body) == (v, 1e-15 * abs(v))


VOLUME_AND_FUNCTIONAL_BODIES = {
    **{name: (body, config) for name, (body, config, _) in PATH_TABLE.items()},
    "bumpy-s2-symmetric": (make_bumpy_ball(S2, 0.8, [[0.6, 0.8]], [0.2], [3.0], symmetric=True), DEFAULT),
    "lune": (make_lune(0.4, (0.6, 0.8)), DEFAULT),
    "polygon": (make_symmetric_polygon_body([1.0, 0.8], [0.4, 1.5]), DEFAULT),
    "ball-e2": (make_ball(E2, 0.9), DEFAULT),
    "ball-h2": (make_ball(H2, 0.9), DEFAULT),
}


@pytest.mark.parametrize("normalized, exponent", [(False, None), (True, 1), (False, 3)],
                         ids=["default", "normalized-first", "cube"])
@pytest.mark.parametrize("mu", [None, gaussian_measure()], ids=["uniform", "gaussian"])
@pytest.mark.parametrize("body, config", VOLUME_AND_FUNCTIONAL_BODIES.values(),
                         ids=VOLUME_AND_FUNCTIONAL_BODIES.keys())
def test_volume_and_functional_is_the_two_calls(body, config, mu, normalized, exponent):
    assert volume_and_functional(body, mu, normalized, exponent, config) == (
        volume(body, mu, config), busemann_functional(body, mu, normalized, exponent, config))


def _sphere_rule_functional(body):
    """The indicator path's functional as it was summed over one normal of each
    antipodal pair of the full product rule on S^{n-1}, at the default degree."""
    n = body.space.dim
    normals, weights = build_sphere_rule(n - 1, QuadratureConfig().outer(n)).antipodal_half
    base = body.profile.base
    c = np.sum(normals * base.axis, axis=1)
    sections = phi(body.space, n - 1, body.profile.height) * base.section_measures(c)
    return float(np.dot(weights, sections ** n))


def _band_cones(n, axis):
    """Cones over a cap near the equator, a cap, an equality base, a double cap
    and a striped base, all about the given axis."""
    striped = make_striped_cone(SpaceSpec(1, n), 0.5, 0.1, 0.05).profile.base
    bases = [cap_base(axis, -0.077), cap_base(axis, 0.3),
             BandsBase(axis, np.array([-0.4, 0.4]), np.array([0.0, 1.0])),
             BandsBase(axis, np.array([-1.0, 0.5]), np.array([-0.5, 1.0])),
             BandsBase(axis, striped.los, striped.his)]
    return [make_cone(SpaceSpec(1, n), base) for base in bases]


BAND_CONE_IDS = ["cap-0.077", "cap0.3", "equality", "double-cap", "striped"]


class TestBandConesOnThePolarRule:
    """Cones over band bases take the polar rule in <xi, axis>, not the full
    product rule on S^{n-1}."""

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_axis_e1_matches_the_sphere_rule_sum(self, n):
        for body, name in zip(_band_cones(n, np.eye(n)[0]), BAND_CONE_IDS):
            assert busemann_functional(body) == pytest.approx(
                _sphere_rule_functional(body), rel=1e-14, abs=0.0), name

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_tilted_axis_matches_axis_e1(self, n):
        tilted = np.random.default_rng(n).normal(size=n)
        tilted /= np.linalg.norm(tilted)
        for plain, turned, name in zip(_band_cones(n, np.eye(n)[0]), _band_cones(n, tilted),
                                       BAND_CONE_IDS):
            assert busemann_functional(turned) == pytest.approx(
                busemann_functional(plain), rel=1e-13, abs=0.0), name

    @pytest.mark.parametrize("n", [7, 8, 12])
    def test_min_nd_equality_cones_in_high_dimension(self, n):
        cones = [make_cone(SpaceSpec(1, n), equality_cone_base(n, h)) for h in (0.4, 0.7)]
        for report in run_theorem_suite("min-nd", cones):
            assert report.verdict and abs(report.rel_gap) <= 1e-12

    def test_indicator_path_builds_no_sphere_rule(self, monkeypatch):
        cones = _band_cones(4, np.eye(4)[0]) + [make_cone(SpaceSpec(1, 8), equality_cone_base(8, 0.4))]

        def refuse(*args, **kwargs):
            raise AssertionError("the indicator path built a sphere rule")

        for module in (functionals, quadrature):
            monkeypatch.setattr(module, "build_sphere_rule", refuse)
        for body in cones:
            assert type(functionals._path(body, QuadratureConfig())) is functionals._Indicator
            volume(body)
            section_volume(body, np.eye(body.space.dim)[1])
            busemann_functional_with_error(body)
            run_theorem_suite("min-nd", [body])


def _fn_hyperbolic(n, t):
    """F_n(t), the integral of r^{n-1} / (1 - r^2)^n over [0, t]: through
    r = tanh(s/2) it is phi on h:n at s = 2 artanh t, divided by 2^n."""
    return phi(SpaceSpec(-1, max(n, 2)), n, 2.0 * math.atanh(t)) / 2.0 ** n


class TestHyperbolicSpecialFunctions:
    def test_f2_closed_form(self):
        # F_2(t) = t^2 / (2 (1 - t^2))
        for t in (0.1, 0.5, 0.9, 0.99):
            assert _fn_hyperbolic(2, t) == pytest.approx(t * t / (2 * (1 - t * t)), rel=1e-12)
        assert _fn_hyperbolic(2, 0.5) == pytest.approx(1.0 / 6.0, rel=1e-13)

    def test_f3_against_substitution_quadrature(self):
        # independent oracle: adaptive quadrature after r = 1 - exp(-u)
        for t in (0.3, 0.9, 0.999):
            u_hi = -math.log(1.0 - t)

            def integrand(u):
                r = 1.0 - math.exp(-u)
                return r ** 2 / (1 - r ** 2) ** 3 * math.exp(-u)

            ref, _ = quad(integrand, 0.0, u_hi, epsabs=1e-13, epsrel=1e-13, limit=500)
            assert _fn_hyperbolic(3, t) == pytest.approx(ref, rel=1e-9)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_g_is_its_definition_through_f(self, n):
        # G(F_n(t)) = F_{n-1}(t)^{n/(n-1)}; F_1(t) = artanh t
        for t in (0.2, 0.5, 0.8, 0.95):
            expected = _fn_hyperbolic(n - 1, t) ** (n / (n - 1))
            assert g_hyperbolic(n, _fn_hyperbolic(n, t)) == pytest.approx(expected, rel=1e-12)
        assert _fn_hyperbolic(1, 0.5) == pytest.approx(math.atanh(0.5), rel=1e-15)

    def test_g_zero(self):
        assert g_hyperbolic(3, 0.0) == 0.0

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_g_midpoint_concavity(self, n):
        rng = np.random.default_rng(n)
        for _ in range(250):
            a, b = rng.uniform(1e-4, 8.0, size=2)
            mid = g_hyperbolic(n, (a + b) / 2)
            assert mid >= (g_hyperbolic(n, a) + g_hyperbolic(n, b)) / 2 - 1e-12

    def test_g_second_derivative_negative(self):
        for n in (2, 3, 4, 5):
            for t in np.linspace(0.05, 4.0, 25):
                h = 1e-4 * max(t, 1.0)
                d2 = (g_hyperbolic(n, t + h) - 2 * g_hyperbolic(n, t) + g_hyperbolic(n, t - h)) / h ** 2
                assert d2 < 0.0

    def test_h_definition(self):
        n, t = 3, 2.5
        expected = g_hyperbolic(n, t / (2 ** n * sphere_surface_area(n - 1))) ** (n - 1)
        assert h_hyperbolic(n, t) == pytest.approx(expected, rel=1e-13)


def _f_spherical_concavity_limit(n):
    """The largest argument up to which F is concave: its slope in the
    geodesic coordinate s is 2 / sin s, decreasing exactly for s <= pi/2, and
    the value there is the normalized volume of the whole hemisphere."""
    return sin_power_primitive_full(n, math.pi / 2.0) / 2.0 ** n


class TestSphericalComparisonFunction:
    def test_zero(self):
        assert f_spherical(3, 0.0) == 0.0

    def test_closed_form_inversion_n2(self):
        # inner integral for n = 2 is t^2 / (2 (1 + t^2)), invertible by hand
        for t in (0.4, 1.3, 3.0):
            v = t * t / (2 * (1 + t * t))
            expected, _ = quad(lambda r: 1.0 / (1 + r ** 2), 0.0, t, epsabs=1e-13, epsrel=1e-13)
            assert f_spherical(2, v) == pytest.approx(expected, rel=1e-10)

    def test_midpoint_concavity_on_applicable_domain(self):
        # concave exactly up to the hemisphere value (slope 2 / sin s turns
        # around at the equator); bodies never exceed this argument
        rng = np.random.default_rng(1)
        for n in (2, 3, 4):
            limit = _f_spherical_concavity_limit(n)
            for _ in range(250):
                a, b = rng.uniform(0.0, limit, size=2)
                mid = f_spherical(n, (a + b) / 2)
                assert mid >= (f_spherical(n, a) + f_spherical(n, b)) / 2 - 1e-12

    def test_convex_past_equator(self):
        # the turnaround is real: midpoint concavity fails on the outer branch
        limit = f_spherical_limit(3)
        lo = _f_spherical_concavity_limit(3) * 1.05
        a, b = lo, limit * 0.999
        mid = f_spherical(3, (a + b) / 2)
        assert mid < (f_spherical(3, a) + f_spherical(3, b)) / 2

    def test_domain(self):
        with pytest.raises(DomainError):
            f_spherical(3, f_spherical_limit(3) * 1.01)

    def test_nan_is_a_domain_error(self):
        # it reached brent_root, which raised a plain ValueError
        for value in (math.nan, np.array([0.2, math.nan])):
            with pytest.raises(DomainError, match="argument must lie in"):
                f_spherical(3, value)


class TestMeasureFunctions:
    def test_gaussian_total_mass(self):
        mu = gaussian_measure()
        for n in (2, 3, 5):
            assert psi(mu, SpaceSpec(0, n), n, 40.0) == pytest.approx(1.0, abs=1e-12)

    def test_gaussian_closed_form(self):
        mu = gaussian_measure()
        assert psi(mu, E2, 2, 1.0) == pytest.approx(1 - math.exp(-0.5), rel=1e-13)

    def test_psi_inverse(self):
        mu = gaussian_measure()
        x = psi_inverse(mu, E3, 3, 0.3)
        assert psi(mu, E3, 3, x) == pytest.approx(0.3, abs=1e-12)

    @pytest.mark.parametrize("space", [E3, H3])
    def test_big_psi_concavity(self, space):
        densities = [
            gaussian_measure() if space.delta == 0 else RadialDensityMeasure(
                "custom", lambda r: np.exp(-np.asarray(r, dtype=float))),
            RadialDensityMeasure("custom", lambda r: np.exp(-0.8 * np.asarray(r, dtype=float))),
            RadialDensityMeasure("custom", lambda r: 1.0 / (1.0 + np.asarray(r, dtype=float) ** 2) ** 2),
        ]
        rng = np.random.default_rng(11)
        for mu in densities:
            hi = psi(mu, space, space.dim, 2.5)
            for _ in range(60):
                a, b = rng.uniform(1e-6, hi, size=2)
                mid = big_psi(mu, space, space.dim, (a + b) / 2)
                ends = (big_psi(mu, space, space.dim, a) + big_psi(mu, space, space.dim, b)) / 2
                assert mid >= ends - 1e-11

    def test_radial_integral_does_not_depend_on_the_batch(self):
        mu = gaussian_measure()
        alone = mu.radial_integral(H2, 2, np.array([0.5]))
        batched = mu.radial_integral(H2, 2, np.array([0.5, 9.0]))
        assert alone[0] == batched[0]
        assert mu.radial_integral(H2, 2, 9.0) == batched[1]

    def test_radial_integral_takes_every_node_in_one_profile_call(self):
        calls = []

        def profile(r):
            r = np.asarray(r, dtype=float)
            calls.append(r.size)
            return np.exp(-r ** 2 / 2.0)

        mu = RadialDensityMeasure("custom", profile)
        calls.clear()
        radii = np.array([0.5, 0.5, 9.0, 0.3])
        batched = mu.radial_integral(H3, 3, radii)
        # q nodes per point, plus q per whole panel below the largest radius
        q, panel = functionals._PANEL_NODES, functionals._PANEL
        assert calls == [q * (len(radii) + int(9.0 / panel))]
        for r, value in zip(radii, batched):
            assert mu.radial_integral(H3, 3, r) == value

    def test_decreasing_validation(self):
        with pytest.raises(DomainError):
            RadialDensityMeasure("custom", lambda r: 1.0 + np.asarray(r, dtype=float))


class TestGaussianMoment:
    """The Euclidean Gaussian radial integral is the closed form
    int_0^u t^{m-1} exp(-t^2/2) dt = 2^{m/2-1} Gamma(m/2) P(m/2, u^2/2)."""

    U = np.geomspace(1e-4, 30.0, 300)

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
    def test_against_gammainc(self, m):
        expected = 2.0 ** ((m - 2) / 2.0) * math.exp(gammaln(m / 2.0)) * gammainc(m / 2.0, self.U ** 2 / 2.0)
        # gammainc itself is off from a 40-digit reference by up to 1e-14 here
        np.testing.assert_allclose(functionals._gaussian_moment(m, self.U), expected, rtol=2e-14, atol=0)

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
    def test_against_a_40_digit_reference(self, m):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 40
        u = np.concatenate([self.U[::10], np.linspace(0.4, 3.5, 32)])
        expected = [float(mp.mpf(2) ** (mp.mpf(m - 2) / 2) * mp.gammainc(mp.mpf(m) / 2, 0, mp.mpf(x) ** 2 / 2))
                    for x in u]
        np.testing.assert_allclose(functionals._gaussian_moment(m, u), expected, rtol=2e-15, atol=0)

    def test_radial_integral_uses_it(self):
        mu = gaussian_measure()
        u = np.array([0.0, 0.3, 1.7, 6.0])
        assert np.array_equal(mu.radial_integral(E3, 3, u),
                              (2 * math.pi) ** -1.5 * functionals._gaussian_moment(3, u))


class TestBoundConstants:
    def test_busemann(self):
        assert bound_constants("busemann", 2) == pytest.approx(8.0, rel=1e-14)
        assert bound_constants("busemann", 3) == pytest.approx(9 * math.pi ** 2 / 4, rel=1e-14)

    def test_spherical_minimum(self):
        assert bound_constants("spherical-min", 3) == pytest.approx(32 / math.pi ** 2, rel=1e-13)

    def test_hyperbolic_plane_value(self):
        # closed form reduces to 32 pi in the plane
        assert bound_constants("hyperbolic", 2) == pytest.approx(32 * math.pi, rel=1e-13)

    def test_nonoptimal(self):
        assert bound_constants("spherical-nonoptimal", 3) == pytest.approx(9 * math.pi ** 2, rel=1e-13)

    def test_unknown(self):
        with pytest.raises(ApplicabilityError):
            bound_constants("nope", 3)


class TestRhsBounds:
    def test_min2d_hemisphere_volume(self):
        body = make_ball(S2, math.pi / 2)
        assert rhs_bound("min2d", body) == pytest.approx(2 * math.pi ** 3, rel=1e-12)

    def test_min2d_ball(self):
        for r in (0.2, 0.7):
            body = make_ball(S2, r)
            assert rhs_bound("min2d", body) == pytest.approx(8 * math.pi * r * r, rel=1e-10)

    def test_lune_bound_matches_functional(self):
        body = make_lune(0.3)
        assert rhs_bound("lune-max", body) == pytest.approx(busemann_functional(body), rel=1e-6)

    def test_stable_arccos(self):
        for u in (1e-14, 1e-10, 1e-7, 0.1):
            assert stable_arccos_one_minus(u) == pytest.approx(
                math.acos(1 - u) if u > 1e-12 else math.sqrt(2 * u), rel=1e-6
            )

    def test_applicability(self):
        with pytest.raises(ApplicabilityError):
            rhs_bound("min2d", make_ball(E2, 1.0))
        # min2d is stated for the uniform volume alone
        with pytest.raises(ApplicabilityError, match="stated for the uniform volume"):
            rhs_bound("min2d", make_ball(S2, 0.7), gaussian_measure())

    @pytest.mark.parametrize("theorem_id", [t.id for t in THEOREMS.values() if t.measure is None])
    def test_a_theorem_without_a_measure_refuses_one(self, theorem_id):
        body = next(suite_bodies(theorem_id))
        with pytest.raises(ApplicabilityError, match="stated for the uniform volume"):
            run_theorem_suite(theorem_id, [body], gaussian_measure())
        with pytest.raises(ApplicabilityError, match="stated for the uniform volume"):
            rhs_bound(theorem_id, body, gaussian_measure())

    @pytest.mark.parametrize("body", [make_ball(E2, 1.0), make_ball(SpaceSpec(-1, 3), 0.7)],
                             ids=["e2", "h3"])
    def test_the_gaussian_bound_takes_its_own_measure_by_default(self, body):
        # it raised "a radial density measure is required", though the suite
        # took the Gaussian when given no measure
        assert rhs_bound("gaussian", body) == rhs_bound("gaussian", body, gaussian_measure())
        suite_rhs = [r.rhs for r in run_theorem_suite("gaussian", [body])]
        assert suite_rhs == [rhs_bound("gaussian", body, config=THEOREMS["gaussian"].config)]

    def test_lune_bound_domain(self):
        with pytest.raises(DomainError):
            lune_bound(2 * math.pi)

    @pytest.mark.parametrize("vol", [1e-3, 0.05, 1.0, 4.0, 2 * math.pi - 1e-3])
    def test_lune_bound_against_quadpack(self, vol):
        tw = math.tan(vol / 4.0)
        value, _ = quad(lambda th: math.atan(tw / math.cos(th)) ** 2,
                        0.0, math.pi / 2, epsabs=1e-13, epsrel=1e-13, limit=500)
        assert lune_bound(vol) == pytest.approx(16.0 * value, rel=1e-12)

    @pytest.mark.parametrize("vol", [1e-3, 0.05, 1.0, 4.0, 2 * math.pi - 1e-3])
    def test_lune_bound_against_a_30_digit_reference(self, vol):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 30
        tw = mp.tan(mp.mpf(vol) / 4)
        edge = [mp.pi / 2 - 10 * tw, mp.pi / 2 - tw] if tw < 0.01 else []
        expected = 16 * mp.quad(lambda th: (mp.pi / 2 - mp.atan(mp.cos(th) / tw)) ** 2,
                                [0, mp.pi / 4, *edge, mp.pi / 2])
        assert lune_bound(vol) == pytest.approx(float(expected), rel=2e-15)

    def test_lune_bound_keeps_the_bits_of_per_call_trigonometry(self):
        # the levels keep cos d and sin d of their nodes' angles d; taking them
        # at every call from the distances 1 - |x| gives the same bits
        def per_call(vol):
            tw = math.tan(vol / 4.0)
            total = previous = 0.0
            for level in range(10):
                h = 0.5 / 2 ** level
                k = np.arange(round(3.5 / h) + 1)
                t = h * (k if level == 0 else k[k % 2 == 1])
                u = math.pi / 2.0 * np.sinh(t)
                d = math.pi / 4.0 * (1.0 / (np.exp(u) * np.cosh(u)))
                weights = math.pi / 2.0 * np.cosh(t) / np.cosh(u) ** 2
                values = weights * ((math.pi / 2.0 - np.arctan(np.cos(d) / tw)) ** 2
                                    + (math.pi / 2.0 - np.arctan(np.sin(d) / tw)) ** 2)
                if level == 0:
                    values[0] /= 2.0
                total = total / 2.0 + h * float(np.sum(values))
                if level >= 3 and abs(total - previous) <= 1e-12 * abs(total):
                    return 16.0 * (math.pi / 4.0) * total
                previous = total
            raise AssertionError("the levels did not settle")

        for vol in [1e-9, 1e-3, *np.linspace(0.01, 2 * math.pi - 0.01, 200).tolist(), 2 * math.pi - 1e-9]:
            assert lune_bound(vol) == per_call(vol)

    def test_lune_bound_stall_raises(self, monkeypatch):
        levels = functionals._tanh_sinh_levels()[:3]
        monkeypatch.setattr(functionals, "_tanh_sinh_levels", lambda: levels)
        with pytest.raises(ConvergenceError):
            lune_bound(1.0)

    def test_all_variants_at_once(self):
        body = make_ball(S3, 0.7)
        both = rhs_bound("prop4.1", body, variant=None)
        assert both == (rhs_bound("prop4.1", body, variant="proof-chain"),
                        rhs_bound("prop4.1", body, variant="literal"))
        assert rhs_bound("min2d", make_ball(S2, 0.7), variant=None) == (
            rhs_bound("min2d", make_ball(S2, 0.7)),)

    def test_unknown_variant(self):
        with pytest.raises(ApplicabilityError):
            rhs_bound("prop4.1", make_ball(S3, 0.7), variant="nope")
        with pytest.raises(ApplicabilityError):
            rhs_bound("min2d", make_ball(S2, 0.7), variant="literal")


def _phi_ratio_sides(n, x):
    """Both sides of (phi_{n-1}(pi/2) / phi_n(pi/2)) phi_n(x) <= phi_{n-1}(x) on
    s+, for x in [0, pi/2]; equality exactly at the endpoints."""
    space, rim = SpaceSpec(1, n), math.pi / 2
    return phi(space, n - 1, rim) / phi(space, n, rim) * phi(space, n, x), phi(space, n - 1, x)


class TestPhiRatioInequality:
    def test_endpoints(self):
        lhs0, rhs0 = _phi_ratio_sides(3, 0.0)
        assert lhs0 == rhs0 == 0.0
        lhs1, rhs1 = _phi_ratio_sides(3, math.pi / 2)
        assert lhs1 == pytest.approx(rhs1, rel=1e-14)

    def test_strict_inside(self):
        lhs, rhs = _phi_ratio_sides(3, math.pi / 4)
        assert rhs - lhs > 1e-3

    def test_grid(self):
        for n in (3, 4, 5):
            for x in np.linspace(0, math.pi / 2, 40):
                lhs, rhs = _phi_ratio_sides(n, x)
                assert lhs <= rhs + 1e-14


class TestEllipsoidFamily:
    def test_equality_and_strictness(self):
        cfg = QuadratureConfig(outer_degree=39, inner_degree=63)
        rng = np.random.default_rng(2)
        for n in (2, 3):
            c_n = bound_constants("busemann", n)
            for _ in range(5):
                e = make_ellipsoid(rng.uniform(0.7, 1.4, size=n))
                lhs = busemann_functional(e, config=cfg)
                rhs = c_n * volume(e, config=cfg) ** (n - 1)
                assert lhs == pytest.approx(rhs, rel=1e-6)
            body = make_bumpy_ball(SpaceSpec(0, n), 1.0, [np.eye(n)[0]], [0.3], [4.0])
            lhs = busemann_functional(body, config=cfg)
            rhs = c_n * volume(body, config=cfg) ** (n - 1)
            assert lhs < rhs * (1 - 1e-4)


class TestInequalityReport:
    def test_verdict_logic(self):
        r = InequalityReport("t", lhs=1.0, rhs=1.5, tolerance=0.0, quadrature={})
        assert r.verdict and r.gap == pytest.approx(0.5)
        r = InequalityReport("t", lhs=1.5, rhs=1.0, tolerance=0.1, quadrature={})
        assert not r.verdict
        r = InequalityReport("t", lhs=1.0 + 1e-9, rhs=1.0, tolerance=1e-8, quadrature={})
        assert r.verdict

    def test_json_fields(self):
        r = InequalityReport("t", 1.0, 2.0, 1e-6, {"outer_degree": 23, "inner_degree": 23})
        doc = r.to_json_dict()
        assert doc["format_version"] == "2"
        assert doc["verdict"] == "pass"
        assert doc["gap"] == pytest.approx(1.0)


def _loop_psi_inverse(mu, space, m, y):
    """psi_inverse's own Brent loop before ``monotone_inverse`` took it over."""
    if y == 0:
        return 0.0
    hi = 1.0
    while psi(mu, space, m, hi) < y:
        hi *= 2.0
        if hi > 1e6:
            raise InversionRangeError("value outside the range of the ball-measure function")
    return brent_root(lambda x: psi(mu, space, m, x) - y, 0.0, hi, xtol=1e-14, rtol=1e-15)


def _loop_f_spherical(n, v):
    """f_spherical's own Brent loop before ``monotone_inverse`` took it over."""
    arr = np.minimum(np.atleast_1d(np.asarray(v, dtype=float)), f_spherical_limit(n))
    out = np.empty_like(arr)
    for i, vi in enumerate(arr):
        target = 2.0 ** n * vi
        x = brent_root(lambda s: sin_power_primitive_full(n, s) - target, 0.0, math.pi,
                       xtol=1e-14, rtol=1e-15)
        out[i] = sin_power_primitive_full(n - 1, x) / 2.0 ** (n - 1)
    return out


class TestOneInversionLoop:
    """psi_inverse and f_spherical return the roots their own loops returned."""

    @pytest.mark.parametrize("space", [E3, H3])
    def test_psi_inverse(self, space):
        mu = gaussian_measure()
        for y in [0.0, *(psi(mu, space, 3, r) for r in np.geomspace(1e-3, 6.0, 25))]:
            assert psi_inverse(mu, space, 3, y) == _loop_psi_inverse(mu, space, 3, y)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_f_spherical(self, n):
        v = np.linspace(0.0, f_spherical_limit(n), 41)
        expected = _loop_f_spherical(n, v)
        assert np.array_equal(f_spherical(n, v), expected)
        assert all(f_spherical(n, float(x)) == e for x, e in zip(v, expected))

    def test_range_errors_keep_their_types_and_messages(self):
        message = "value outside the range of the ball-measure function"
        with pytest.raises(InversionRangeError, match=message):
            _loop_psi_inverse(gaussian_measure(), E3, 3, 1.5)
        with pytest.raises(InversionRangeError, match=message):
            psi_inverse(gaussian_measure(), E3, 3, 1.5)
        with pytest.raises(DomainError, match="ball measures are nonnegative"):
            psi_inverse(gaussian_measure(), E3, 3, -0.1)
        for v in (-0.1, f_spherical_limit(3) * (1 + 1e-9)):
            with pytest.raises(DomainError, match="argument must lie in"):
                f_spherical(3, v)


class TestGaussianClosedFormFollowsTheProfile:
    def test_a_measure_named_gaussian_integrates_its_own_profile(self):
        mu = RadialDensityMeasure("gaussian", lambda r: np.exp(-np.asarray(r, dtype=float)))
        # int_0^2 t^2 e^-t dt
        assert mu.radial_integral(E3, 3, 2.0) == pytest.approx(2.0 - 10.0 * math.exp(-2.0), rel=1e-13)

    def test_gaussian_measure_keeps_its_closed_form(self):
        u = np.array([0.0, 0.3, 1.7, 6.0])
        for mu in (gaussian_measure(), gaussian_measure()):
            assert np.array_equal(mu.radial_integral(E3, 3, u),
                                  (2 * math.pi) ** -1.5 * functionals._gaussian_moment(3, u))
        # the standard normal in R^3 puts erf(1/sqrt 2) - sqrt(2/pi) e^-1/2 in the unit ball
        expected = math.erf(1 / math.sqrt(2)) - math.sqrt(2 / math.pi) * math.exp(-0.5)
        assert psi(gaussian_measure(), E3, 3, 1.0) == pytest.approx(expected, rel=1e-14)


def _grid_with_a_negative_island(shape, seed):
    """Grid values in [0.2, 1.4] but for a block of negative values inside a
    ring of zeros: every cell meets only one side of 0, so clamping after the
    interpolation gives what clamping the values before it gives."""
    values = np.random.default_rng(seed).uniform(0.2, 1.4, size=shape)
    ring = tuple(slice(2, 7) for _ in shape)
    island = tuple(slice(3, 6) for _ in shape)
    values[ring] = 0.0
    values[island] = -np.random.default_rng(seed + 1).uniform(0.1, 0.6, size=values[island].shape)
    return values


class TestRhoClamp:
    """StarBody.rho is the profile clamped to the space's radius range."""

    @pytest.mark.parametrize("shape", [(24,), (9, 12)])
    def test_rho_stays_in_the_range(self, shape):
        space = SpaceSpec(1, len(shape) + 1)
        values = np.random.default_rng(3).uniform(-0.6, 2.2, size=shape)
        body = StarBody(space, GridProfile(values))
        dirs = np.random.default_rng(4).normal(size=(500, space.dim))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        raw = body.profile.rho(dirs)
        assert raw.min() < 0.0 and raw.max() > math.pi / 2
        rho = body.rho(dirs)
        assert rho.min() == 0.0 and rho.max() == math.pi / 2
        assert np.array_equal(rho, np.clip(raw, 0.0, math.pi / 2))

    @pytest.mark.parametrize("shape", [(24,), (9, 12)])
    def test_left_sides_equal_those_of_the_grid_clipped_beforehand(self, shape):
        space = SpaceSpec(1, len(shape) + 1)
        values = _grid_with_a_negative_island(shape, 5)
        assert values.min() < 0.0
        body = StarBody(space, GridProfile(values))
        clipped = StarBody(space, GridProfile(np.clip(values, 0.0, math.pi / 2)))
        assert volume(body) == volume(clipped)
        assert busemann_functional(body) == busemann_functional(clipped)


def _whole_grid(nodes, normals):
    """The (D, N, n) points of N nodes on the subspheres of D normals, one
    product per normal, as the product path stored them before it built its
    points a block at a time."""
    return np.matmul(nodes, householder_frames(normals).transpose(0, 2, 1))


def _full_inner_sections(body, mu, config=DEFAULT):
    """The product path's sections and functional as they were summed before
    the inner rule was folded: every node of the inner rule, at its weight."""
    space, n = body.space, body.space.dim
    normals, weights = build_sphere_rule(n - 1, config.outer(n)).antipodal_half
    inner = build_sphere_rule(n - 2, config.inner(n))
    embedded = _whole_grid(inner.nodes, normals)
    rho = body.rho(embedded.reshape(-1, n))
    radial = phi(space, n - 1, rho) if mu is None else mu.radial_integral(space, n - 1, rho)
    sections = radial.reshape(embedded.shape[:2]) @ inner.weights
    return normals, sections, float(np.dot(weights, sections ** n))


def _product_sections(body, mu):
    """The product path's sections at every normal of its folded outer rule."""
    path = functionals._Product(body, DEFAULT)
    return path.sections(mu, path.rule()[1])


PAIR_SUM_SPACES = [E3, H3, S3, SpaceSpec(1, 4)]


class TestPairSum:
    """The product and plane paths sum each antipodal pair of the inner rule
    at once, from rho at one of its nodes when the body is symmetric."""

    @pytest.mark.parametrize("mu", [None, gaussian_measure()], ids=["uniform", "gaussian"])
    @pytest.mark.parametrize("symmetric", [True, False], ids=["symmetric", "asymmetric"])
    @pytest.mark.parametrize("space", PAIR_SUM_SPACES, ids=str)
    def test_matches_the_full_inner_rule(self, space, symmetric, mu, fresh_grid_cache):
        body = random_star_body(space, np.random.default_rng(space.dim - space.delta), symmetric)
        assert body.symmetric == symmetric
        _, reference, functional = _full_inner_sections(body, mu)
        sections = _product_sections(body, mu)
        assert np.max(np.abs(sections - reference) / reference) <= 1e-14
        assert busemann_functional(body, mu) == pytest.approx(functional, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("mu", [None, gaussian_measure()], ids=["uniform", "gaussian"])
    @pytest.mark.parametrize("symmetric", [True, False], ids=["symmetric", "asymmetric"])
    @pytest.mark.parametrize("space", PAIR_SUM_SPACES, ids=str)
    def test_section_volume_is_its_row_of_the_grid(self, space, symmetric, mu, fresh_grid_cache):
        body = random_star_body(space, np.random.default_rng(space.dim + 7), symmetric)
        normals, _, _ = _full_inner_sections(body, mu)
        sections = _product_sections(body, mu)
        for row in (0, len(normals) // 3, len(normals) - 1):
            assert section_volume(body, normals[row], mu) == pytest.approx(
                sections[row], rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("mu", [None, gaussian_measure()], ids=["uniform", "gaussian"])
    @pytest.mark.parametrize("body", [
        make_ball(E3, 1.2), make_ball(H3, 0.9), make_perturbed_ball(S3, 0.8, 0.08, 4),
        make_perturbed_ball(SpaceSpec(1, 4), 0.8, 0.08, 2),
        make_cone(SpaceSpec(1, 4), equality_cone_base(4, 0.4)), make_striped_cone(S3, 0.5, 0.4, 0.2),
    ], ids=["ball-e3", "ball-h3", "perturbed-s3", "perturbed-s4", "equality-cone-s4", "striped-cone-s3"])
    def test_section_volume_is_its_row_of_the_polar_rule(self, body, mu):
        # the zonal and indicator paths: one section operator serves the single
        # section and the functional, at every normal of the folded outer rule
        path = functionals._path(body, DEFAULT)
        assert type(path) in (functionals._Zonal, functionals._Indicator)
        _, c = path.rule()
        sections = path.sections(mu, c)
        # the normals u = c axis + sqrt(1 - c^2) b, b the first column of the
        # axis's Householder frame; the single section recomputes c from u
        axis = body.profile.zonal_axis(body.space.dim)
        b = householder_frames(axis[None])[0, :, 0]
        normals = c[:, None] * axis + np.sqrt(1.0 - c[:, None] ** 2) * b
        if type(path) is functionals._Indicator:
            # a row of the band sums does not depend on its batch
            for normal, section in zip(normals, sections, strict=True):
                assert section_volume(body, normal, mu) == section
        else:
            for normal, section in zip(normals, sections, strict=True):
                assert section_volume(body, normal, mu) == pytest.approx(section, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("symmetric, inner_share", [(True, 2), (False, 1)],
                             ids=["symmetric", "asymmetric"])
    def test_rho_points(self, symmetric, inner_share, monkeypatch, fresh_grid_cache):
        space = SpaceSpec(1, 4)
        body = random_star_body(space, np.random.default_rng(4), symmetric)
        points = counted_rho_rows(monkeypatch)
        busemann_functional(body)
        n_outer = len(build_sphere_rule(3, DEFAULT.outer(4)))
        n_inner = len(build_sphere_rule(2, DEFAULT.inner(4)))
        assert sum(points) == (n_outer // 2) * (n_inner // inner_share)

    def test_an_asymmetric_body_does_not_copy_the_grid(self, fresh_grid_cache):
        # the -u half is each block's points negated in place, so the peak is
        # that of a symmetric body
        space = SpaceSpec(1, 4)
        peaks = {}
        for symmetric in (True, False):
            body = random_star_body(space, np.random.default_rng(4), symmetric)
            busemann_functional(body)   # builds and caches the frames
            tracemalloc.start()
            try:
                busemann_functional(body)
                peaks[symmetric] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        # a copy of a block's points, or of all of them (8 MB at the default
        # degrees), would show here
        assert peaks[False] <= peaks[True] + 2e6

    @pytest.mark.parametrize("exponent", [None, 1])
    @pytest.mark.parametrize("body", [make_ball(S2, 0.9), make_lune(0.4, (0.6, 0.8)),
                                      make_symmetric_polygon_body([1.0, 0.8], [0.4, 1.5])],
                             ids=["ball", "lune", "polygon"])
    def test_plane_path_of_even_profiles_is_unchanged(self, body, exponent):
        p = 2 if exponent is None else exponent

        def integrand(theta):
            a = np.asarray(theta, dtype=float) + math.pi / 2
            dirs = np.column_stack([np.cos(a), np.sin(a)])
            return (phi(S2, 1, body.rho(dirs)) + phi(S2, 1, body.rho(-dirs))) ** p

        # the integrand's corners lie a quarter turn from the profile's
        corners = body.profile.plane_corners()
        breaks = np.concatenate([corners - math.pi / 2, corners + math.pi / 2]) % (2 * math.pi)
        values, errors = integrate_vectorized(lambda t: integrand(t)[None], 0.0, 2 * math.pi,
                                              functionals.ANGULAR_TOL, breaks)
        reference = values[0], errors[0]
        assert busemann_functional(body, exponent=exponent) == reference[0]
        assert busemann_functional_with_error(body, exponent=exponent) == reference


# the measures of test_big_psi_concavity, each with its density in mpmath
DENSITIES = {
    "gaussian": (gaussian_measure(), lambda mp, t: mp.exp(-t * t / 2)),
    "exp": (RadialDensityMeasure("custom", lambda r: np.exp(-np.asarray(r, dtype=float))),
            lambda mp, t: mp.exp(-t)),
    "exp-0.8": (RadialDensityMeasure("custom", lambda r: np.exp(-0.8 * np.asarray(r, dtype=float))),
                lambda mp, t: mp.exp(-0.8 * t)),
    "rational": (RadialDensityMeasure("custom", lambda r: 1.0 / (1.0 + np.asarray(r, dtype=float) ** 2) ** 2),
                 lambda mp, t: 1 / (1 + t * t) ** 2),
}
PANEL = functionals._PANEL
PANEL_EDGES = [PANEL, math.nextafter(PANEL, 1.0), 2 * PANEL]


def _density_reference(mp, density, delta, m, u):
    """The integral of density(t) s_delta(t)^{m-1} over [0, u] to 40 digits,
    in s = t / u, where the integrand is of order 1 at every u."""
    mp.mp.dps = 40
    scale = mp.mpf(u)
    sine = mp.sinh if delta == -1 else mp.sin

    def integrand(s):
        return density(mp, scale * s) * (sine(scale * s) / scale) ** (m - 1)

    return scale ** m * mp.quad(integrand, mp.linspace(0, 1, max(2, math.ceil(u / 4) + 1)))


class TestDensityIntegralReference:
    """radial_integral on the shared panels against 40-digit references that
    use neither functionals nor spaces.phi.  The tolerance grows with
    (m - 1) u: that is the relative change of s_delta(t)^{m-1} when t moves by
    one rounding, which no float rule can avoid."""

    @staticmethod
    def _check(name, delta, m, radii):
        mp = pytest.importorskip("mpmath")
        mu, mp_density = DENSITIES[name]
        radii = np.asarray(radii)
        got = mu.radial_integral(SpaceSpec(delta, max(m, 2)), m, radii) / mu.dim_weight(m)
        expected = np.array([float(_density_reference(mp, mp_density, delta, m, u)) for u in radii])
        err = np.abs(got - expected) / expected
        assert np.all(err <= 3e-15 + 1.1e-16 * (m - 1) * radii), (radii, err)

    @pytest.mark.parametrize("m", range(1, 17))
    @pytest.mark.parametrize("delta, radii", [
        (1, [1e-6, 0.3, *PANEL_EDGES, 1.2, math.pi / 2]),
        (-1, [1e-6, 0.3, *PANEL_EDGES, 1.2, 7.5, 20.0]),
    ], ids=["s+", "h"])
    def test_gaussian(self, delta, radii, m):
        self._check("gaussian", delta, m, radii)

    @pytest.mark.parametrize("m", [1, 2, 3, 8, 16])
    @pytest.mark.parametrize("delta, radii", [
        (1, [1e-6, PANEL_EDGES[1], 1.2, math.pi / 2]),
        (-1, [1e-6, PANEL_EDGES[1], 1.2, 7.5]),
    ], ids=["s+", "h"])
    @pytest.mark.parametrize("name", ["exp", "exp-0.8", "rational"])
    def test_custom_densities(self, name, delta, radii, m):
        self._check(name, delta, m, radii)

    def test_nan_and_negative_radii_are_refused(self):
        mu = DENSITIES["exp"][0]
        for u in (math.nan, -0.1):
            with pytest.raises(DomainError):
                mu.radial_integral(H3, 3, np.array([0.5, u]))


def _bumpy(space, seed):
    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(2, space.dim))
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    return make_bumpy_ball(space, 0.8, centers, [0.15, -0.1], [3.0, 5.0], symmetric=True)


def _product_bodies(space, symmetric):
    """A body of every profile kind that the product path evaluates in this
    space, with the given symmetry, each under the space's radius range."""
    n, rng = space.dim, np.random.default_rng(10 * space.dim + space.delta)
    bodies = [random_star_body(space, rng, symmetric)]
    values = rng.uniform(0.4, 1.1, size=(5,) * (n - 2) + (8,))
    if symmetric:
        # a grid equal to itself with every polar axis flipped and the
        # azimuth rolled by half its count
        values = values + np.roll(np.flip(values, axis=tuple(range(n - 2))), 4, axis=-1)
        bodies += [make_ball(space, 0.7), StarBody(space, EllipsoidProfile(rng.uniform(0.5, 1.1, n)))]
        if space == S2:
            bodies += [make_lune(0.6, (0.6, 0.8)), make_symmetric_polygon_body([0.7, 1.3], [0.2, 1.1])]
    bodies.append(StarBody(space, GridProfile(values / 2)))
    if n >= 3:
        axis = rng.normal(size=n)
        harmonic = zonal_harmonic(n, 2 if symmetric else 3, axis / np.linalg.norm(axis))
        bodies.append(StarBody(space, HarmonicPerturbedProfile(0.7, 0.01, 0.05, harmonic)))
    assert all(body.symmetric == symmetric for body in bodies)
    return bodies


class TestProductPathBlocks:
    """The product path takes the readings of a block of normals at a time
    from their cached frames, and evaluates rho and the radial primitive on
    them, so that no point on a subsphere and no array of every normal's
    readings exists."""

    @staticmethod
    def _whole_grid_sections(body, mu):
        """The sections from every normal's readings at once: each reading's
        F^T c by one product, the (D, N) readings of each by one product,
        their radial primitives in one pass, one matrix-vector product."""
        space, n = body.space, body.space.dim
        normals = build_sphere_rule(n - 1, DEFAULT.outer(n)).antipodal_half[0]
        nodes, pair_weights = functionals._inner_pairs(n, DEFAULT.inner(n))
        reads = body.profile.reads
        carried = (reads @ subsphere_frames(normals).reshape(-1, n).T).reshape(len(reads), n - 1, -1)
        readings = np.stack([c.T @ nodes.T for c in carried]).reshape(len(reads), -1).T

        def radial(t):
            rho = body.rho_of(t)
            values = phi(space, n - 1, rho) if mu is None else mu.radial_integral(space, n - 1, rho)
            return values.reshape(len(normals), len(nodes))

        pairs = radial(readings) * 2.0 if body.symmetric else radial(readings) + radial(-readings)
        return pairs @ pair_weights

    @pytest.mark.parametrize("mu", [None, gaussian_measure()], ids=["uniform", "gaussian"])
    @pytest.mark.parametrize("symmetric", [True, False], ids=["symmetric", "asymmetric"])
    def test_blocks_give_one_pass_bit_for_bit(self, symmetric, mu, monkeypatch, fresh_grid_cache):
        space = SpaceSpec(1, 4)
        body = random_star_body(space, np.random.default_rng(6), symmetric)
        whole = self._whole_grid_sections(body, mu)
        normals = len(whole)
        pairs = len(functionals._inner_pairs(4, DEFAULT.inner(4))[0])
        assert normals * pairs > 2 * functionals._BLOCK_POINTS
        # the default blocks, one block, blocks of 16 rows, and blocks of 80
        # rows with a ragged last block
        assert normals % 80
        for block in (functionals._BLOCK_POINTS, 1 << 30, 16 * pairs, 80 * pairs):
            monkeypatch.setattr(functionals, "_BLOCK_POINTS", block)
            # a point's density integral does not depend on its batch either
            assert np.array_equal(_product_sections(body, mu), whole)

    @pytest.mark.parametrize("mu", [None, gaussian_measure()], ids=["uniform", "gaussian"])
    @pytest.mark.parametrize("symmetric", [True, False], ids=["symmetric", "asymmetric"])
    @pytest.mark.parametrize("space", [SpaceSpec(delta, n) for delta in (1, -1, 0) for n in (2, 3, 4, 5)],
                             ids=str)
    def test_readings_give_the_sections_of_the_points(self, space, symmetric, mu, fresh_grid_cache):
        # the sections from rho at the points F v of the subspheres, each
        # built by one product per normal, and from the readings <v, F^T c>
        n, config = space.dim, QuadratureConfig(outer_degree=9, inner_degree=11)
        rule = build_sphere_rule(n - 1, config.outer(n))
        nodes, pair_weights = functionals._inner_pairs(n, config.inner(n))
        grid = _whole_grid(nodes, rule.antipodal_half[0])
        for body in _product_bodies(space, symmetric):
            def radial(points):
                rho = body.rho(points.reshape(-1, n))
                values = phi(space, n - 1, rho) if mu is None else mu.radial_integral(space, n - 1, rho)
                return values.reshape(grid.shape[:2])

            pairs = radial(grid) * 2.0 if symmetric else radial(grid) + radial(-grid)
            path = functionals._Product(body, config)
            sections = path.sections(mu, path.rule()[1])
            assert np.max(np.abs(sections - pairs @ pair_weights) / (pairs @ pair_weights)) <= 1e-15, \
                body.profile.kind

    @pytest.mark.parametrize("space, mu, config, cap", [
        (SpaceSpec(1, 4), None, DEFAULT, 0.96e6),
        (H3, gaussian_measure(), QuadratureConfig(outer_degree=39, inner_degree=63), 1e6),
    ], ids=["s+4-bumpy", "h3-gaussian"])
    def test_peak_memory_of_one_functional(self, space, mu, config, cap, fresh_grid_cache):
        body = _bumpy(space, 5)
        busemann_functional(body, mu, config=config)   # builds and caches the frames
        tracemalloc.start()
        try:
            busemann_functional(body, mu, config=config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= cap

    def test_the_cached_entry_holds_frames_not_points(self, fresh_grid_cache):
        # s+:4 at the default degrees: 1,728 normals, whose points on their
        # subspheres were an 8 MB grid
        entry = functionals._section_grid(4, DEFAULT.outer(4), DEFAULT.inner(4))
        assert sum(array.nbytes for array in entry) < 0.5e6

    def test_peak_memory_of_an_s5_body(self, fresh_grid_cache):
        # a stored grid of 20,736 normals times 1,728 inner pairs was 1.37 GB
        body = _bumpy(SpaceSpec(1, 5), 5)
        tracemalloc.start()
        try:
            vol, functional = volume_and_functional(body)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert vol > 0.0 and functional > 0.0
        assert peak < 64e6
