import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from starsections import bodies
from starsections.bodies import (
    STRIP_CAP,
    ArcsBase,
    BandsBase,
    BumpyProfile,
    GridProfile,
    HarmonicPerturbedProfile,
    StarBody,
    bands_to_arcs,
    base_from_descriptor,
    body_from_json_dict,
    cap_base,
    equality_cone_base,
    full_sphere_base,
    make_ball,
    make_bumpy_ball,
    make_cone,
    make_ellipsoid,
    make_lune,
    make_perturbed_ball,
    make_striped_cone,
    make_symmetric_polygon_body,
    make_vanishing_body,
    perturbation_norms,
    sphere_band_measure,
    spherical_cap_measure,
    striped_cap_subset,
)
from starsections.errors import DomainError, ResourceLimitError
from starsections.harmonics import zonal_harmonic
from starsections.functionals import busemann_functional, volume
from starsections.quadrature import build_sphere_rule, default_degree, gauss_jacobi, polar_rule
from starsections.spaces import SpaceSpec, brent_root, phi, sphere_surface_area
from starsections.verify import (
    extremizer_search,
    random_cone_arcs,
    random_star_body,
    random_symmetric_convex_body,
)

S2 = SpaceSpec(1, 2)
S3 = SpaceSpec(1, 3)
E3 = SpaceSpec(0, 3)
H3 = SpaceSpec(-1, 3)


def _double_cap_base(n, height):
    """The caps {t <= -height} and {t >= height} about the first axis: a
    symmetric base that meets neither equality-type condition."""
    return BandsBase(np.eye(n)[0], np.array([-1.0, height]), np.array([-height, 1.0]))


def _section_bound_margin(base, xis):
    """max over xis of |A cut xi| - lam |C cut xi| for a striped cap subset A
    of the cap C: the construction promises at most its eps."""
    cap = cap_base(base.axis, base.meta["alpha"])
    return float(np.max(base.section_measures(xis) - base.meta["lam"] * cap.section_measures(xis)))


class TestBandMeasures:
    def test_cap_formula_n3(self):
        # |S^1| integral over [alpha, 1] of (1 - t^2)^0 = 2 pi (1 - alpha)
        assert spherical_cap_measure(2, 0.5) == pytest.approx(math.pi, rel=1e-14)

    def test_circle_band(self):
        # band on S^1 has measure 2 (arcsin hi - arcsin lo)
        assert sphere_band_measure(1, -0.3, 0.4) == pytest.approx(
            2 * (math.asin(0.4) - math.asin(-0.3)), rel=1e-14
        )

    def test_band_vs_monte_carlo(self):
        # declared measures against a Monte Carlo oracle (indicator functions
        # defeat polynomial rules, so sampling is the honest cross-check)
        rng = np.random.default_rng(0)
        n_samples = 1_000_000
        for m in (2, 3):
            pts = rng.normal(size=(n_samples, m + 1))
            pts /= np.linalg.norm(pts, axis=1, keepdims=True)
            area = sphere_surface_area(m)
            for _ in range(3):
                lo, hi = np.sort(rng.uniform(-0.9, 0.9, size=2))
                exact = sphere_band_measure(m, lo, hi)
                frac = np.mean((pts[:, 0] >= lo) & (pts[:, 0] <= hi))
                assert abs(exact - frac * area) <= 2e-3 * area


class TestBalls:
    def test_hemisphere(self):
        body = make_ball(S2, math.pi / 2)
        assert volume(body) == pytest.approx(2 * math.pi, rel=1e-12)

    def test_euclidean_unit_ball(self):
        body = make_ball(E3, 1.0)
        assert volume(body) == pytest.approx(4 * math.pi / 3, rel=1e-12)

    def test_hyperbolic_radial_formula(self):
        body = make_ball(H3, 1.0)
        assert volume(body) == pytest.approx(4 * math.pi * phi(H3, 3, 1.0), rel=1e-12)

    def test_invalid(self):
        with pytest.raises(DomainError):
            make_ball(S2, 2.0)
        with pytest.raises(DomainError):
            make_ball(E3, 0.0)

    def test_symmetry_claim(self):
        body = make_ball(E3, 1.0)
        assert body.symmetric and _rho_is_even(body)


class TestEllipsoids:
    def test_unit(self):
        body = make_ellipsoid([1.0, 1.0, 1.0])
        assert volume(body) == pytest.approx(4 * math.pi / 3, rel=1e-12)

    def test_axis_evaluation(self):
        body = make_ellipsoid([2.0, 0.5, 1.3])
        for i, a in enumerate([2.0, 0.5, 1.3]):
            e = np.zeros((1, 3))
            e[0, i] = 1.0
            assert body.rho(e)[0] == pytest.approx(a, rel=1e-14)

    def test_plane_area(self):
        body = make_ellipsoid([2.0, 1.0])
        assert volume(body) == pytest.approx(2 * math.pi, abs=1e-9)

    def test_invalid(self):
        with pytest.raises(DomainError):
            make_ellipsoid([1.0, -2.0])


class TestCones:
    def test_volume_identity_plane(self):
        base = ArcsBase(((0.3, 1.0), (0.3 + math.pi, 1.0 + math.pi)))
        body = make_cone(S2, base)
        # vol(C) = |A| in the plane hemisphere
        assert volume(body) == pytest.approx(base.measure, rel=1e-14)
        assert body.symmetric

    def test_section_functional_identity(self):
        base = ArcsBase(((0.1, 0.8), (0.1 + math.pi, 0.8 + math.pi)))
        body = make_cone(S2, base)
        assert busemann_functional(body) == pytest.approx(math.pi ** 2 * volume(body), rel=1e-13)

    def test_hemisphere_base(self):
        body = make_cone(S3, BandsBase(np.array([1.0, 0, 0]), np.array([-1.0]), np.array([1.0])))
        assert volume(body) == pytest.approx(phi(S3, 3, math.pi / 2) * 4 * math.pi, rel=1e-13)

    @pytest.mark.parametrize("a, b", [(0.2, 1.1), (0.0, 2.5), (1.0, 4.0), (2.0, 5.0), (4.0, 6.0),
                                      (4.0, 7.0), (5.5, 8.5), (0.0, math.pi), (3.0, 3.0 + 1e-12)])
    def test_arcs_written_with_their_mirror_are_symmetric(self, a, b):
        # (a + pi, b + pi) normalizes three ways: below 2 pi, past it, and all past it
        assert ArcsBase(((a, b), (a + math.pi, b + math.pi))).is_origin_symmetric()
        assert ArcsBase(((a + math.pi, b + math.pi), (a, b))).is_origin_symmetric()
        assert not ArcsBase(((a, b),)).is_origin_symmetric()

    @pytest.mark.parametrize("a, b", [(0.2, 1.1), (1.0, 4.0), (4.0, 7.0)])
    @pytest.mark.parametrize("end", [0, 1])
    def test_a_mirror_arc_off_by_5e11_is_asymmetric(self, a, b, end):
        mirror = [a + math.pi, b + math.pi]
        mirror[end] += 5e-11
        assert not ArcsBase(((a, b), tuple(mirror))).is_origin_symmetric()

    @pytest.mark.parametrize("arcs", [((0.0, 2 * math.pi),), ((0.0, math.pi), (math.pi, 2 * math.pi)),
                                      ((1.0, 1.5), (1.5, 2.0), (1.0 + math.pi, 2.0 + math.pi))])
    def test_arcs_that_meet_end_to_start_are_one(self, arcs):
        assert ArcsBase(arcs).is_origin_symmetric()

    @pytest.mark.parametrize("angle", [0.0, 0.3, 2.0, math.pi, -0.14321057318936026, -2.5])
    @pytest.mark.parametrize("los, his", [
        ([-0.4, 0.2], [-0.2, 0.4]), ([-0.7, -0.1, 0.5], [-0.5, 0.1, 0.7]), ([-0.3], [0.3]),
        ([-1.0, 0.5], [-0.5, 1.0]), ([-1.0, -0.2, 0.6], [-0.6, 0.2, 1.0]), ([-1.0], [1.0])])
    def test_a_mirrored_circle_band_base_gives_symmetric_arcs(self, angle, los, his):
        # bands that hold the axis, its antipode or both, and a middle band
        axis = np.array([math.cos(angle), math.sin(angle)])
        base = BandsBase(axis, np.array(los), np.array(his))
        arcs = bands_to_arcs(base)
        assert arcs.is_origin_symmetric()
        assert arcs.measure == pytest.approx(2 * sum(math.acos(lo) - math.acos(hi)
                                                     for lo, hi in zip(los, his)), rel=1e-14)
        dirs = _unit_rows(np.random.default_rng(1), 300, 2)
        assert np.array_equal(arcs.contains(dirs), base.contains(dirs))
        assert not bands_to_arcs(BandsBase(axis, np.array([0.2]), np.array([0.6]))).is_origin_symmetric()

    def test_random_cone_arcs_are_symmetric(self):
        for seed in range(200):
            for pairs in (1, 2, 3):
                assert random_cone_arcs(np.random.default_rng(seed), pairs).symmetric

    def test_bands_to_arcs(self):
        base = cap_base(np.array([0.0, 1.0]), 0.2)
        arcs = bands_to_arcs(base)
        assert arcs.measure == pytest.approx(2 * math.acos(0.2), rel=1e-12)

    def test_arc_sections_count_the_perpendicular_pair(self):
        base = ArcsBase(((0.3, 1.9), (2.5, 4.0)))
        xis = _unit_rows(np.random.default_rng(2), 200, 2)
        # the section of xi is the pair +-(-xi_2, xi_1); count the points in A
        perp = np.column_stack([-xis[:, 1], xis[:, 0]])
        reference = base.contains(perp).astype(float) + base.contains(-perp)
        assert np.array_equal(base.section_measures(xis), reference)

    def test_equality_base_sections_constant(self):
        base = equality_cone_base(3, 0.35)
        rng = np.random.default_rng(1)
        xis = rng.normal(size=(50, 3))
        xis /= np.linalg.norm(xis, axis=1, keepdims=True)
        secs = base.section_measures(xis)
        assert np.max(np.abs(secs - math.pi)) < 1e-12  # |S^1| / 2

    def test_double_cap_sections_vary(self):
        base = _double_cap_base(3, 0.5)
        xis = np.array([[1.0, 0, 0], [0, 1.0, 0]])
        secs = base.section_measures(xis)
        assert abs(secs[0] - secs[1]) > 0.1


def _unit_rows(rng, count, n):
    xis = rng.normal(size=(count, n))
    return xis / np.linalg.norm(xis, axis=1, keepdims=True)


def _rowwise_section_measures(base, xis):
    return np.concatenate([base.section_measures(x[None]) for x in xis])


class TestBandSectionsPerDistinctHeight:
    """Every row of a batch is exactly what a one-direction call gives, for
    repeated heights |<xi, axis>| as well as distinct ones."""

    @pytest.mark.parametrize("n", [3, 4])
    def test_rule_nodes_axis_e1(self, n):
        axis = np.eye(n)[0]
        xis = build_sphere_rule(n - 1, default_degree(n - 1)).nodes
        bases = [striped_cap_subset(0.2, axis, 0.6, 0.1), equality_cone_base(n, 0.4),
                 cap_base(axis, 0.3)]
        for base in bases:
            batch = base.section_measures(xis)
            assert np.array_equal(batch, _rowwise_section_measures(base, xis))

    @pytest.mark.parametrize("n", [3, 4])
    def test_tilted_axis_random_directions(self, n):
        rng = np.random.default_rng(n)
        axis = _unit_rows(rng, 1, n)[0]
        base = striped_cap_subset(0.3, axis, 0.5, 0.1)
        xis = _unit_rows(rng, 300, n)
        batch = base.section_measures(xis)
        assert np.array_equal(batch, _rowwise_section_measures(base, xis))

    def test_poles_mixed_in(self):
        axis = np.array([0.0, 0.0, 1.0])
        rng = np.random.default_rng(11)
        xis = np.vstack([axis, _unit_rows(rng, 20, 3), -axis, [[1.0, 0.0, 0.0]], axis])
        # the equality base of height 0.4 about this axis
        equality = BandsBase(axis, np.array([-0.4, 0.4]), np.array([0.0, 1.0]))
        for base in (equality, cap_base(axis, 0.3)):
            batch = base.section_measures(xis)
            assert np.array_equal(batch, _rowwise_section_measures(base, xis))
            assert batch[0] == batch[-3] == batch[-1] == base.section_measures(axis[None])[0]

    def test_row_permutation(self):
        base = striped_cap_subset(0.2, np.eye(3)[0], 0.6, 0.1)
        xis = build_sphere_rule(2, default_degree(2)).nodes
        perm = np.random.default_rng(5).permutation(len(xis))
        assert np.array_equal(base.section_measures(xis[perm]), base.section_measures(xis)[perm])


def _checked_union(half):
    """A union -A through the checked constructor, for the half base A."""
    return BandsBase(half.axis, np.concatenate([-half.his[::-1], half.los]),
                     np.concatenate([-half.los[::-1], half.his]))


def _upper_half(both):
    half = len(both.los) // 2
    return BandsBase(both.axis, both.los[half:], both.his[half:], meta=both.meta)


def _striped_union_of(half):
    """A union -A from the striped builder, at the parameters of the strips A."""
    meta = half.meta
    return bodies._striped_union(half.axis, meta["alpha"], meta["delta"], meta["lam"], meta["cap_measure"])


STRIPED_HALVES = {
    "s3": lambda: striped_cap_subset(0.2, np.eye(3)[0], 0.6, 0.1),
    "s4-tilted-axis": lambda: striped_cap_subset(0.3, _unit_rows(np.random.default_rng(4), 1, 4)[0],
                                                 0.5, 0.1),
    "s5-keep-almost-all": lambda: striped_cap_subset(0.4, np.eye(5)[0], 0.995, 0.2),
    # the upper half of the vanishing body's base, with its parameters
    "e3-vanishing": lambda: _upper_half(make_vanishing_body(E3, 1.0, 0.3).profile.base),
}


class TestBandsConstruction:
    def test_ascending_input_is_copied_not_aliased(self):
        los, his = np.array([-0.5, 0.1, 0.4]), np.array([-0.2, 0.3, 0.9])
        base = BandsBase(np.eye(3)[0], los, his)
        assert np.array_equal(base.los, los) and np.array_equal(base.his, his)
        assert not np.shares_memory(base.los, los) and los.flags.writeable

    def test_unordered_input_is_sorted(self):
        base = BandsBase(np.eye(3)[0], np.array([0.4, -0.5, 0.1]), np.array([0.9, -0.2, 0.3]))
        assert base.los.tolist() == [-0.5, 0.1, 0.4] and base.his.tolist() == [-0.2, 0.3, 0.9]

    @pytest.mark.parametrize("los, his", [([0.1, 0.2], [0.3, 0.4]),     # ordered, overlapping
                                          ([0.2, 0.1], [0.4, 0.3]),     # unordered, overlapping
                                          ([0.1, 0.5], [0.3, 0.4])])    # hi below lo
    def test_checks_hold_for_any_order(self, los, his):
        with pytest.raises(DomainError):
            BandsBase(np.eye(3)[0], np.array(los), np.array(his))

    @pytest.mark.parametrize("los, his", [([-0.1], [0.2]), ([-2e-15, 0.3], [0.1, 0.4])])
    def test_strips_that_meet_their_mirror_are_refused(self, los, his):
        los, his = np.array(los), np.array(his)
        with pytest.raises(DomainError, match="disjoint"):
            bodies._check_strips(los, his)
        with pytest.raises(DomainError, match="disjoint"):
            _checked_union(BandsBase(np.eye(3)[0], los, his))

    @pytest.mark.parametrize("los, his, message", [
        ([0.1, 0.2], [0.3, 0.4], "disjoint"),
        ([0.1, 0.5], [0.3, 0.4], "dominate"),
        ([0.1, math.nan], [0.3, 0.4], "dominate"),
        ([0.1, 0.5], [0.3, math.inf], "finite"),
    ], ids=["overlapping", "hi-below-lo", "nan", "infinite"])
    def test_strip_checks_are_the_constructors(self, los, his, message):
        # the strips' checks refuse what the checked constructor refuses
        los, his = np.array(los), np.array(his)
        with pytest.raises(DomainError, match=message):
            BandsBase(np.eye(3)[0], los, his)
        with pytest.raises(DomainError, match=message):
            bodies._check_strips(los, his)

    @pytest.mark.parametrize("builder", STRIPED_HALVES.values(), ids=STRIPED_HALVES.keys())
    def test_striped_union_is_the_checked_union(self, builder):
        half = builder()
        both = _striped_union_of(half)
        reference = _checked_union(half)
        # the whole union, and the half that each keeps with its running maximum
        for name in ("axis", "los", "his", "_los", "_his", "_his_max"):
            assert np.array_equal(getattr(both, name), getattr(reference, name))
            assert not getattr(both, name).flags.writeable
        assert len(both) == len(reference) == 2 * len(half)
        assert both._his_max is both._his and reference._his_max is reference._his
        assert both.is_origin_symmetric() and reference.is_origin_symmetric()
        assert both.meta == half.meta

    def test_the_checked_strips_are_the_kept_half(self, monkeypatch):
        # the base keeps the two arrays that passed the checks, and no -A is
        # written anywhere
        check, seen = bodies._check_strips, []

        def spy(los, his):
            seen.append((los, his))
            check(los, his)

        monkeypatch.setattr(bodies, "_check_strips", spy)
        base = make_striped_cone(S3, 0.5, 0.2, 0.1).profile.base
        assert len(seen) == 1 and seen[0][0] is base._los and seen[0][1] is base._his
        assert 2 * len(base._los) == len(base) and np.all(base._los > 0.0)
        assert len(base._los.base) - len(base._los) <= 2     # the measures, reused

    def test_striped_union_is_ascending(self):
        half = striped_cap_subset(0.2, np.eye(3)[0], 0.6, 0.1)
        both = _striped_union_of(half)
        assert np.all(np.diff(both.los) > 0) and both.is_origin_symmetric()
        unordered = BandsBase(half.axis, np.concatenate([half.los, -half.his[::-1]]),
                              np.concatenate([half.his, -half.los[::-1]]))
        assert np.array_equal(both.los, unordered.los) and np.array_equal(both.his, unordered.his)


def _reference_strips(base):
    """The plain construction of a striped base's strips: (strip_bounds,
    measure_gap), which mask and copy the strip arrays at a gamma and measure
    them with sphere_band_measure."""
    meta, n = base.meta, base.ambient_dim
    alpha, delta = meta["alpha"], meta["delta"]
    k = np.arange(1, int(math.floor((1.0 - alpha) / delta)) + 2)
    tops = np.minimum(alpha + k * delta, 1.0)

    def strip_bounds(gamma):
        los = alpha + (k - gamma) * delta
        keep = los < 1.0
        return los[keep], tops[keep]

    def measure_gap(gamma):
        los, his = strip_bounds(gamma)
        return float(np.sum(sphere_band_measure(n - 1, los, his))) - meta["lam"] * meta["cap_measure"]

    return strip_bounds, measure_gap


def _reference_striped_base(base, solve=brent_root):
    """gamma and the strips (los, his) by the plain construction, at every
    evaluation of the same root solve."""
    strip_bounds, measure_gap = _reference_strips(base)
    gamma = solve(measure_gap, 0.0, 1.0, xtol=1e-15, rtol=1e-15)
    return (gamma, *strip_bounds(gamma))


def _recording_solve(solves):
    """brent_root, appending to solves the list of (gamma, f(gamma)) pairs of
    each solve, in the order of its evaluations."""
    def solve(f, a, b, **kwargs):
        visits = []
        solves.append(visits)

        def recorded(x):
            fx = f(x)
            visits.append((x.hex(), fx.hex()))
            return fx

        return brent_root(recorded, a, b, **kwargs)

    return solve


STRIPED_SOLVES = {
    "densest-row": lambda: make_striped_cone(S3, 0.5, 0.05, 0.02).profile.base,
    "n4-cone": lambda: make_striped_cone(SpaceSpec(1, 4), 0.5, 0.1, 0.05).profile.base,
    "n8-subset": lambda: striped_cap_subset(0.2, np.eye(8)[0], 0.5, 0.001),
    "vanishing-body": lambda: make_vanishing_body(E3, 1.0, 0.3).profile.base,
}


@pytest.fixture(scope="module")
def dense_striped_cone_base():
    """The densest schedule row: 1,354,522 bands."""
    return make_striped_cone(S3, 0.5, 0.05, 0.02).profile.base


class TestStripedRootSolve:
    """The strip-fraction solve is bit for bit the plain construction."""

    @staticmethod
    def _assert_matches_reference(base, antipodal):
        gamma, los, his = _reference_striped_base(base)
        assert base.meta["gamma"] == gamma
        half = len(los)
        assert len(base.los) == (2 * half if antipodal else half)
        assert np.array_equal(base.los[-half:], los) and np.array_equal(base.his[-half:], his)
        if antipodal:
            assert np.array_equal(base.los[:half], -his[::-1])
            assert np.array_equal(base.his[:half], -los[::-1])

    @pytest.mark.parametrize("n", [3, 4, 5])
    @pytest.mark.parametrize("alpha, lam, eps", [(0.2, 0.6, 0.1), (0.4, 0.995, 0.2)])
    def test_strip_subsets(self, n, alpha, lam, eps):
        self._assert_matches_reference(striped_cap_subset(alpha, np.eye(n)[0], lam, eps), False)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_striped_cones(self, n):
        base = make_striped_cone(SpaceSpec(1, n), 0.5, 0.1, 0.05).profile.base
        self._assert_matches_reference(base, True)

    def test_densest_schedule_row(self, dense_striped_cone_base):
        self._assert_matches_reference(dense_striped_cone_base, True)

    def test_vanishing_body(self):
        base = make_vanishing_body(E3, 1.0, 0.3).profile.base
        self._assert_matches_reference(base, True)

    @pytest.mark.parametrize("n, alpha, lam, eps, strips", [(6, 0.3, 0.5, 0.002, 52_893),
                                                            (8, 0.2, 0.5, 0.001, 160_659)])
    def test_rows_of_several_strip_groups(self, n, alpha, lam, eps, strips):
        # past 2^14 strips each binade of k - gamma is a group of its own, and
        # n = 6, 8 take the (1 - t^2)^q power in the strip primitive
        base = striped_cap_subset(alpha, np.eye(n)[0], lam, eps)
        assert len(base.los) == strips
        self._assert_matches_reference(base, False)

    @pytest.mark.parametrize("builder", STRIPED_SOLVES.values(), ids=STRIPED_SOLVES.keys())
    def test_the_solve_visits_the_plain_constructions_points(self, builder, monkeypatch):
        # every (gamma, f(gamma)) of the solve, gamma = 0 included, is the
        # plain construction's, bit for bit; for the vanishing body, its last
        # base's solve
        solves, reference = [], []
        monkeypatch.setattr(bodies, "brent_root", _recording_solve(solves))
        base = builder()
        monkeypatch.undo()
        gamma = _reference_striped_base(base, _recording_solve(reference))[0]
        assert base.meta["gamma"] == gamma
        assert len(reference) == 1 and solves[-1] == reference[0]
        assert reference[0][0][0] == (0.0).hex() and len(reference[0]) >= 3

    @pytest.mark.parametrize("n, eps", [(3, 0.01), (4, 0.02), (5, 0.02), (8, 0.002)])
    def test_plain_gap_at_zero_is_minus_the_target(self, n, eps):
        # at gamma = 0 every kept strip has lo = top, so every measure is 0:
        # the fast solve returns this without measuring
        base = striped_cap_subset(0.2, np.eye(n)[0], 0.6, eps)
        assert len(base) > 1000
        strip_bounds, measure_gap = _reference_strips(base)
        los, his = strip_bounds(0.0)
        assert np.array_equal(los, his)
        target = base.meta["lam"] * base.meta["cap_measure"]
        assert measure_gap(0.0).hex() == (0.0 - target).hex() == (-target).hex()


class TestStripGroups:
    """The root solve skips a group of strips k in (2^j, 2^(j+1)] when its last
    k - gamma is unchanged; that is exact because the whole group's k - gamma
    is then unchanged too."""

    @pytest.mark.parametrize("j", range(0, 21))
    def test_last_strip_decides_the_group(self, j):
        k = np.arange(2 ** j + 1, 2 ** (j + 1) + 1).astype(float)
        rng = np.random.default_rng(j)
        # gaps about the binade's grid, 2^(j - 52), as at j = 14
        gaps = 10.0 ** rng.uniform(-15.0, -9.0, size=40) * 2.0 ** (min(j, 14) - 14)
        firsts = np.concatenate([[0.0, 1.0 - gaps[1]], rng.uniform(0.0, 1.0 - 1e-9, size=38)])
        outcomes = set()
        for first, gap in zip(firsts, gaps):
            second = first + gap
            probe_same = bool(k[-1] - first == k[-1] - second)
            assert probe_same == np.array_equal(k - first, k - second)
            outcomes.add(probe_same)
        assert outcomes == {True, False}

    def test_densest_solve_measures_under_half_the_strips(self, monkeypatch):
        # re-measuring all 677,261 strips at each of the 20 evaluations passes
        # 14.22 M strip values, the tops included
        primitive, passed = bodies._primitive_in_place, []

        def spy(q, t, p, scratch):
            passed.append(np.size(t))
            return primitive(q, t, p, scratch)

        monkeypatch.setattr(bodies, "_primitive_in_place", spy)
        lam = 0.5 * sphere_surface_area(2) / (2.0 * spherical_cap_measure(2, 0.05))
        assert len(striped_cap_subset(0.05, np.eye(3)[0], lam, 0.02).los) == 677_261
        assert sum(passed) <= 7_100_000

    def test_densest_solve_measures_19_of_its_20_evaluations(self, monkeypatch):
        # gamma = 0 measures nothing and gamma = 1 every strip; each later
        # evaluation measures only the binades of k - gamma that moved, 3.90 M
        # strips in all (4.74 M with gamma = 0 measured and the first 2^14
        # strips at every evaluation)
        primitive, measured = bodies._primitive_in_place, []

        def spy(q, t, p, scratch):
            measured[-1] += np.size(t)
            return primitive(q, t, p, scratch)

        def solve(f, a, b, **kwargs):
            def counted(x):
                measured.append(0)
                return f(x)
            return brent_root(counted, a, b, **kwargs)

        monkeypatch.setattr(bodies, "_primitive_in_place", spy)
        monkeypatch.setattr(bodies, "brent_root", solve)
        lam = 0.5 * sphere_surface_area(2) / (2.0 * spherical_cap_measure(2, 0.05))
        assert len(striped_cap_subset(0.05, np.eye(3)[0], lam, 0.02).los) == 677_261
        assert len(measured) == 20 and measured[:2] == [0, 677_262]
        assert all(measured[2:]) and sum(measured) <= 3_900_000

    def test_densest_cone_peaks_at_its_half(self):
        # the root solve keeps the strip measures, A's lower edges are written
        # over them and its tops into a second array: the base keeps these two
        # (10.84 MB) and no -A; the whole union is 21.67 MB
        make_striped_cone(S3, 0.5, 0.1, 0.05)     # warm any lazy numpy state
        tracemalloc.start()
        try:
            cone = make_striped_cone(S3, 0.5, 0.05, 0.02)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        base = cone.profile.base
        assert len(base) == 1_354_522
        assert peak <= 12_000_000
        assert peak <= 1.05 * (base._los.base.nbytes + base._his.nbytes)
        assert peak <= 0.55 * (base.los.nbytes + base.his.nbytes)

    def test_densest_volume_and_functional_add_under_half_a_mb(self):
        make_striped_cone(S3, 0.5, 0.1, 0.05)     # warm any lazy numpy state
        tracemalloc.start()
        try:
            cone = make_striped_cone(S3, 0.5, 0.05, 0.02)
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            volume(cone)
            busemann_functional(cone)
            added = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert added <= 512 * 1024

    def test_dense_cone_at_n8_peaks_under_1_4_times_its_base(self):
        # 420,358 bands: the solve keeps the strip measures, and builds the
        # tops, the lower edges and their primitives 2^14 strips at a time, so
        # the build adds scratch of a few blocks to the half it keeps (9.04 MB
        # when the base kept both halves)
        space = SpaceSpec(1, 8)
        make_striped_cone(space, 0.5, 0.1, 0.05)   # warm any lazy numpy state
        tracemalloc.start()
        try:
            cone = make_striped_cone(space, 0.2, 0.05, 3e-4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        base = cone.profile.base
        assert len(base.los) == 420_358
        assert peak <= 1.40 * (base.los.nbytes + base.his.nbytes)
        assert peak <= 9_040_000

    def test_densest_strips_peak_at_their_own_size(self, dense_striped_cone_base):
        # A comes from the solve already checked, with no union, copy or
        # check temporaries of its size, and it is the half the cone keeps
        lam = 0.5 * sphere_surface_area(2) / (2.0 * spherical_cap_measure(2, 0.05))
        striped_cap_subset(0.2, np.eye(3)[0], 0.6, 0.1)     # warm any lazy numpy state
        tracemalloc.start()
        try:
            strips = striped_cap_subset(0.05, np.eye(3)[0], lam, 0.02)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(strips) == 677_261 and not strips.is_origin_symmetric()
        assert peak <= 1.15 * (strips.los.nbytes + strips.his.nbytes)
        assert strips.los.tobytes() == dense_striped_cone_base._los.tobytes()
        assert strips.his.tobytes() == dense_striped_cone_base._his.tobytes()
        assert strips.meta == dense_striped_cone_base.meta

    def test_vanishing_body_builds_peak_at_their_base(self, monkeypatch):
        # each of the four radii builds a base at no more than its own size,
        # and the call keeps one base at a time: at its peak, the last base
        # and the section sums' buffers
        make_vanishing_body(E3, 1.0, 0.3)         # warm any lazy numpy state
        union, ratios, peaks = bodies._striped_union, [], []

        def spy(*args):
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            base = union(*args)
            ratios.append((tracemalloc.get_traced_memory()[1] - start) / (base.los.nbytes + base.his.nbytes))
            return base

        monkeypatch.setattr(bodies, "_striped_union", spy)
        tracemalloc.start()
        try:
            body = make_vanishing_body(E3, 1.0, 0.3)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        base = body.profile.base
        assert len(ratios) == 4 and max(ratios) <= 1.05
        assert max(peaks) < 2 * (base.los.nbytes + base.his.nbytes)

    def test_strip_count_is_capped_before_allocation(self):
        # 6.9e10 strips at this eps: the refusal comes before any array
        with pytest.raises(ResourceLimitError, match="cap is"):
            striped_cap_subset(0.4, np.eye(4)[0], 0.5, 1e-9)
        assert STRIP_CAP > 6_433_983    # the densest base TestWindowedBandSums builds


def _fsum_sections(base, xis):
    """Sections at the normals xis, summing every band's sphere_band_measure
    exactly, at s = sqrt(1 - <xi, axis>^2) computed as section_measures does."""
    m_sub = base.ambient_dim - 2
    svals = np.sqrt(np.maximum(0.0, 1.0 - np.sum(xis * base.axis, axis=1) ** 2))
    return [math.fsum(sphere_band_measure(m_sub, base.los / s, base.his / s).tolist())
            for s in svals]


def _normals_at(axis, svals):
    """Unit normals xi with sqrt(1 - <xi, axis>^2) = s up to rounding, one per s."""
    n = len(axis)
    other = np.zeros(n)
    other[1 if abs(axis[0]) > 0.5 else 0] = 1.0
    other -= (other @ axis) * axis
    other /= np.linalg.norm(other)
    svals = np.asarray(svals)
    return np.sqrt(1.0 - svals[:, None] ** 2) * axis + svals[:, None] * other


def _recursive_primitive(q, t):
    """The band primitive by its recursion on fresh arrays."""
    if q == -0.5:
        return np.arcsin(t)
    if q == 0.0:
        return t
    return (t * (1.0 - t ** 2) ** q + 2.0 * q * _recursive_primitive(q - 1.0, t)) / (2.0 * q + 1.0)


def _per_chunk_sums(base, m, a, b, s=1.0):
    """The chunk sums of the bands [a, b) on S^m, edges divided by s, by one
    clip, recursive primitive and sum per chunk of bodies._band_chunk(m) bands."""
    chunk = bodies._band_chunk(m)
    los, his, sums = base.los, base.his, []
    for j in range(a, b, chunk):
        lo, hi = los[j : min(j + chunk, b)] / s, his[j : min(j + chunk, b)] / s
        if m == 0:
            vals = sphere_band_measure(m, lo, hi)
        else:
            lo, hi = (np.minimum(np.maximum(x, -1.0), 1.0) for x in (lo, hi))
            q = (m - 2) / 2.0
            vals = sphere_surface_area(m - 1) * np.maximum(
                _recursive_primitive(q, hi) - _recursive_primitive(q, lo), 0.0)
        sums.append(float(vals.sum()))
    return sums


def _per_chunk_window_sum(base, m, start, stop, s=1.0):
    """BandsBase._window_sum by one sphere_band_measure call per chunk: the
    halved sum of a mirrored base, the plain one of any other."""
    if not base.is_origin_symmetric():
        return math.fsum(_per_chunk_sums(base, m, start, stop, s))
    k = len(base)
    half = (k + 1) // 2
    return math.fsum(_per_chunk_sums(base, m, max(start, k // 2), min(stop, half), s)
                     + [2.0 * v for v in _per_chunk_sums(base, m, max(start, half), stop, s)])


def _band_base(n, count, mirrored):
    """count bands of width 2e-5 spread over [-0.97, 0.99], or, mirrored, count
    bands and their mirror images spread over [0.01, 0.95] with the middle
    band [-0.005, 0.005]."""
    if not mirrored:
        edges = np.linspace(-0.97, 0.99, count)
        return BandsBase(np.eye(n)[0], edges, edges + 2e-5)
    lo = np.linspace(0.01, 0.95, count)
    hi = lo + 2e-5
    return BandsBase(np.eye(n)[0], np.concatenate([-hi[::-1], [-0.005], lo]),
                     np.concatenate([-lo[::-1], [0.005], hi]))


def _overlapping_base():
    """The base of TestWindowedBandSums.test_upper_edges_out_of_order, and
    the s at which a point band ends one ulp above -s."""
    axis = np.eye(3)[0]
    c = float(np.sum(np.array([math.sqrt(0.75), 0.5, 0.0]) * axis))
    s = math.sqrt(max(0.0, 1.0 - c ** 2))
    below, above = np.linspace(-0.95, -s - 0.01, 2000), np.linspace(-s + 0.01, 0.95, 3000)
    point = np.nextafter(np.nextafter(-s, -1.0), -1.0)
    return BandsBase(axis, np.concatenate([below, [-s - 1e-3, point], above]),
                     np.concatenate([below + 1e-6, [np.nextafter(-s, 1.0), point], above + 1e-4])), s


BLOCK_BASES = {
    **{f"n{n}": (lambda n=n: _band_base(n, 10_007, False)) for n in range(2, 8)},
    **{f"n{n}-mirrored": (lambda n=n: _band_base(n, 7001, True)) for n in range(2, 8)},
    "overlapping": lambda: _overlapping_base()[0],
    "two-bands": lambda: BandsBase(np.eye(4)[0], np.array([-0.5, 0.2]), np.array([0.1, 0.9])),
    "two-bands-mirrored": lambda: _double_cap_base(5, 0.3),
}


class TestWindowedBandSums:
    """A large base sums only the bands that meet [-s, s], in chunks."""

    @staticmethod
    def _assert_matches_fsum(base, xis):
        for sec, ref in zip(base.section_measures(xis), _fsum_sections(base, xis)):
            assert sec == pytest.approx(ref, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("n", [3, 4, 5, 8])
    def test_dense_striped_base_against_fsum(self, n):
        axis = np.eye(n)[0]
        base = _checked_union(striped_cap_subset(0.1, axis, 0.5, 0.004 if n == 3 else 0.02))
        assert len(base.los) > 16384 // ((n - 2) // 2 + 8)    # more bands than one chunk
        # no band comes closer than alpha = 0.1 to the equator
        assert base.section_measures(_normals_at(axis, [0.03, 0.0999])).tolist() == [0.0, 0.0]
        self._assert_matches_fsum(base, _normals_at(axis, [0.1, 0.1001, 0.3, 0.7, 0.99, 1.0]))

    def test_densest_schedule_row_against_fsum(self, dense_striped_cone_base):
        base = dense_striped_cone_base
        assert base.section_measures(_normals_at(base.axis, [0.049]))[0] == 0.0
        self._assert_matches_fsum(base, _normals_at(base.axis, [0.05, 0.2, 0.6381613, 0.99212731]))

    def test_circle_bands_count_touching_edges(self):
        # on S^1 the section is two points, and a band whose edge is +-s holds one
        axis = np.eye(2)[0]
        xis = _normals_at(axis, [0.2, 0.5, 0.8])
        s = np.sqrt(np.maximum(0.0, 1.0 - np.sum(xis * axis, axis=1) ** 2))
        edges = np.linspace(-0.95, 0.95, 6001)
        # put an upper edge at -s[0], a lower edge at -s[1] and a lower edge at s[2]
        for t, parity in ((-s[0], 1), (-s[1], 0), (s[2], 0)):
            i = int(np.searchsorted(edges, t))
            edges[i if i % 2 == parity else i - 1] = t
        base = BandsBase(axis, edges[0:-1:2], edges[1::2])
        assert {-s[0], -s[1], s[2]} <= set(base.los) | set(base.his)
        assert base.section_measures(xis).tolist() == _fsum_sections(base, xis)

    def test_upper_edges_out_of_order(self):
        # bands may overlap by the disjointness tolerance, so a point band can
        # lie below the end of the band before it.  Here that band ends one ulp
        # above -s and adds ~1e-8; a window cut by bisection on the unsorted
        # upper edges would drop it
        axis = np.eye(3)[0]
        xis = np.array([[math.sqrt(0.75), 0.5, 0.0]])
        s = math.sqrt(max(0.0, 1.0 - float(np.sum(xis * axis)) ** 2))
        below, above = np.linspace(-0.95, -s - 0.01, 2000), np.linspace(-s + 0.01, 0.95, 3000)
        point = np.nextafter(np.nextafter(-s, -1.0), -1.0)
        base = BandsBase(axis, np.concatenate([below, [-s - 1e-3, point], above]),
                         np.concatenate([below + 1e-6, [np.nextafter(-s, 1.0), point], above + 1e-4]))
        assert np.any(np.diff(base.his) < 0)
        self._assert_matches_fsum(base, xis)

    @staticmethod
    def _traced_peak_less_output(base, xis):
        base.section_measures(xis)      # warm any lazy numpy state
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = base.section_measures(xis)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        return peak - out.nbytes

    def test_densest_schedule_row_allocates_little(self, dense_striped_cone_base):
        # the normals the functional passes: one per node c >= 0 of the polar rule
        c = polar_rule(2, default_degree(2))[0]
        xis = _normals_at(dense_striped_cone_base.axis, np.sqrt(1.0 - c[c >= 0.0] ** 2))
        assert self._traced_peak_less_output(dense_striped_cone_base, xis) < 512 * 1024

    @pytest.mark.parametrize("n", [3, 4, 5, 8, 12])
    def test_live_temporaries_stay_under_128_kb(self, n):
        # the chunk size's premise: no temporary is mapped, and the heap top
        # never holds 128 KB of freed memory
        edges = np.linspace(-0.99, 0.99, 40_001)
        base = BandsBase(np.eye(n)[0], edges[0:-1:2], edges[1::2])
        xis = _normals_at(base.axis, np.linspace(0.05, 1.0, 20))
        assert self._traced_peak_less_output(base, xis) < 128 * 1024

    @pytest.mark.parametrize("builder", BLOCK_BASES.values(), ids=BLOCK_BASES.keys())
    def test_chunk_for_chunk(self, builder):
        # every chunk sum, and so every measure and section, is bit for bit
        # one sphere_band_measure call per chunk
        base = builder()
        k, m = len(base), base.ambient_dim - 1
        los, his = base.los, base.his
        # the bands the base keeps: its upper half when it is mirrored
        kept = k - len(base._los)
        assert kept == (k // 2 if base.is_origin_symmetric() else 0)
        assert base.measure == _per_chunk_window_sum(base, m, 0, k)
        assert base._chunk_sums(m, 1.0, (kept, k)) == [_per_chunk_sums(base, m, kept, k)]
        # s in the middle of a band above 0, so that the window's end bands
        # reach past -s and s and are clipped; s = 1; s in a gap
        mid = k // 2 + (k - k // 2) // 3
        gap = 0.5 * (his[mid] + los[mid + 1]) if mid + 1 < k else 0.999
        svals = [0.5 * (los[mid] + his[mid]), 1.0, gap]
        if builder is BLOCK_BASES["overlapping"]:
            svals.append(_overlapping_base()[1])
        xis = _normals_at(base.axis, svals)
        s = np.sqrt(np.maximum(0.0, 1.0 - np.sum(xis * base.axis, axis=1) ** 2))
        sections = base.section_measures(xis)
        clipped = False
        his_max = np.maximum.accumulate(his)
        for si, start, stop, section in zip(s, *base._windows(s), sections):
            start, stop = int(start), int(stop)
            clipped |= start < stop and (los[start] < -si or his_max[stop - 1] > si)
            window = base._window_sum(m - 1, start, stop, si)
            assert window == _per_chunk_window_sum(base, m - 1, start, stop, si)
            start = max(start, kept)
            assert base._chunk_sums(m - 1, si, (start, stop)) == [
                _per_chunk_sums(base, m - 1, start, stop, si)]
            if k > bodies._band_chunk(m - 1):
                assert section == window
        assert clipped

    @pytest.mark.parametrize("q", [-0.5, 0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 4.0])
    def test_primitive_is_the_recursion(self, q):
        t = np.concatenate([[-1.0, -0.0, 0.0, 1.0, 1e-300, -5e-324],
                            np.random.default_rng(7).uniform(-1.0, 1.0, 5000)])
        assert bodies._band_primitive(q, t).tobytes() == _recursive_primitive(q, t).tobytes()
        for x in (0.3, np.float64(-0.7)):
            assert float(bodies._band_primitive(q, x)) == float(_recursive_primitive(q, np.float64(x)))

    @pytest.mark.parametrize("m", range(1, 11))
    def test_blocks_hold_whole_chunks_under_the_budget(self, m):
        buffers, block = bodies._band_block(m)
        chunk = bodies._band_chunk(m)
        assert buffers == (2 if m <= 2 else 4)
        assert block % chunk == 0 and block >= 2 * chunk
        assert buffers * block + chunk <= 16384

    @pytest.mark.parametrize("s", [1.0, 0.7, 0.3])
    @pytest.mark.parametrize("mirrored", [True, False], ids=["mirrored-odd", "unmirrored"])
    def test_q0_sums_are_per_chunk_band_measures(self, mirrored, s):
        # at q = 0 (m = 2) the sums take the edges' difference with no
        # np.maximum, at s = 1 from the stored edges: every chunk sum, and the
        # measure, is bit for bit sphere_band_measure's per chunk
        base = _band_base(3, 7001 if mirrored else 10_007, mirrored)
        k, chunk = len(base), bodies._band_chunk(2)
        assert k % 2 == 1 and base.is_origin_symmetric() == mirrored
        kept = k - len(base._los)
        los, his = base.los / s, base.his / s
        reference = [float(sphere_band_measure(2, los[j : min(j + chunk, k)], his[j : min(j + chunk, k)]).sum())
                     for j in range(kept, k, chunk)]
        sums = base._chunk_sums(2, s, (kept, k))[0]
        assert np.array(sums).tobytes() == np.array(reference).tobytes()
        if s == 1.0:
            assert base.measure == _per_chunk_window_sum(base, 2, 0, k)

    def test_bands_from_zero_to_minus_zero_sum_to_zero(self):
        # hi - lo is -0.0 for the band [0.0, -0.0], where np.maximum gave 0.0;
        # the chunk sums, and so the measure and sections, are still 0.0
        base = BandsBase(np.eye(3)[0], np.zeros(4001), np.full(4001, -0.0))
        assert base.is_origin_symmetric() and len(base._los) == 2001
        sums = base._chunk_sums(2, 1.0, (2000, 4001))[0]
        assert len(sums) == 2 and all(math.copysign(1.0, v) == 1.0 and v == 0.0 for v in sums)
        assert math.copysign(1.0, base.measure) == 1.0 and base.measure == 0.0

    def test_densest_row_takes_several_chunks_per_pass(self, dense_striped_cone_base, monkeypatch):
        # one sphere_band_measure call per chunk passes numpy one chunk at a time
        base, largest = dense_striped_cone_base, []

        class SpyNumpy:
            def __getattr__(self, name):
                return getattr(np, name)

            # every pass takes the difference of its edges' primitives
            @staticmethod
            def subtract(*args, **kwargs):
                largest[-1] = max(largest[-1], *(np.size(a) for a in args))
                return np.subtract(*args, **kwargs)

        monkeypatch.setattr(bodies, "np", SpyNumpy())
        xis = _normals_at(base.axis, [0.6])
        for m, run in ((2, lambda: base.measure), (1, lambda: base.section_measures(xis))):
            largest.append(0)
            run()
            assert largest[-1] >= 2 * bodies._band_chunk(m)


def _mirrored_arrays(middle):
    """2 * 3000 (+ 1) bands, more than one chunk: bands in [0.01, 0.95], their
    mirror images and, when middle, the band [-0.005, 0.005], as arrays."""
    edges = np.linspace(0.01, 0.95, 6001)
    lo, hi = edges[0:-1:2], edges[1::2]
    mid = [0.005] if middle else []
    return np.concatenate([-hi[::-1], -np.array(mid), lo]), np.concatenate([-lo[::-1], mid, hi])


def _mirrored_base(n, middle):
    """The mirrored base of _mirrored_arrays about the first axis."""
    return BandsBase(np.eye(n)[0], *_mirrored_arrays(middle))


def _touching_at_zero_base(n):
    """A mirrored base whose two middle bands meet at 0.0 and -0.0."""
    edges = np.linspace(0.0, 0.9, 5001)
    lo, hi = edges[0:-1:2], edges[1::2]
    assert lo[0] == 0.0 and math.copysign(1.0, -lo[::-1][-1]) < 0.0
    return BandsBase(np.eye(n)[0], np.concatenate([-hi[::-1], lo]), np.concatenate([-lo[::-1], hi]))


MIRRORED_BASES = {
    "even": lambda: _mirrored_base(3, False),
    "odd-with-middle": lambda: _mirrored_base(3, True),
    "odd-with-middle-n5": lambda: _mirrored_base(5, True),
    "edges-at-signed-zero": lambda: _touching_at_zero_base(4),
    "full-sphere": lambda: full_sphere_base(3),
    "double-cap": lambda: _double_cap_base(4, 0.3),
    "vanishing": lambda: make_vanishing_body(E3, 1.0, 0.3).profile.base,
}


class TestMirroredBandSums:
    """A base that is its own mirror image sums the upper half of its bands."""

    @staticmethod
    def _assert_matches_fsum(base, svals, rel):
        ref = math.fsum(sphere_band_measure(base.ambient_dim - 1, base.los, base.his).tolist())
        assert base.measure == pytest.approx(ref, rel=rel, abs=0.0)
        xis = _normals_at(base.axis, svals)
        for sec, ref in zip(base.section_measures(xis), _fsum_sections(base, xis)):
            assert sec == pytest.approx(ref, rel=rel, abs=0.0)

    @pytest.mark.parametrize("builder", MIRRORED_BASES.values(), ids=MIRRORED_BASES.keys())
    def test_half_sums_against_fsum(self, builder):
        # s = 0.003 lies inside the middle band of the odd bases
        base = builder()
        assert base.is_origin_symmetric()
        self._assert_matches_fsum(base, [0.003, 0.1, 0.5, 0.6, 0.97, 1.0], 1e-14)

    def test_densest_schedule_row_against_fsum(self, dense_striped_cone_base):
        assert dense_striped_cone_base.is_origin_symmetric()
        self._assert_matches_fsum(dense_striped_cone_base, [0.05, 0.2, 0.6381613, 0.99212731], 1e-14)

    def test_one_ulp_twin_takes_the_full_sum(self):
        base = _mirrored_base(3, True)
        his = base.his.copy()
        his[-7] = np.nextafter(his[-7], 0.0)
        twin = BandsBase(base.axis, base.los, his)
        assert not twin.is_origin_symmetric()
        svals = [0.1, 0.5, 0.97]
        self._assert_matches_fsum(twin, svals, 1e-14)
        assert twin.measure == pytest.approx(base.measure, rel=1e-13, abs=0.0)
        xis = _normals_at(base.axis, svals)
        np.testing.assert_allclose(twin.section_measures(xis), base.section_measures(xis),
                                   rtol=1e-13, atol=0.0)

    def test_reloaded_cone_gives_the_same_numbers(self):
        # the flag comes from the arrays, not from the builder
        cone = make_striped_cone(S3, 0.5, 0.1, 0.05)
        assert len(cone.profile.base.los) > 16384 // 8    # the windowed sums
        clone = body_from_json_dict(cone.to_json_dict())
        assert clone.profile.base.is_origin_symmetric()
        assert volume(clone) == volume(cone)
        assert busemann_functional(clone) == busemann_functional(cone)

    def test_densest_volume_allocates_no_full_size_temporaries(self):
        tracemalloc.start()
        try:
            cone = make_striped_cone(S3, 0.5, 0.05, 0.02)
            tracemalloc.reset_peak()
            volume(cone)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        base = cone.profile.base
        assert peak < base.los.nbytes + base.his.nbytes + 1024 * 1024


class _Union:
    """The whole union of a base as the arrays it stands for, read by the
    reference helpers above as they read a base."""

    def __init__(self, axis, los, his):
        self.axis, self.los, self.his = axis, los, his

    def __len__(self):
        return len(self.los)

    @property
    def ambient_dim(self):
        return len(self.axis)

    def is_origin_symmetric(self):
        return bool(np.array_equal(-self.his[::-1], self.los))


def _union_sections(ref, xis):
    """Sections as a base that keeps every band sums them: a degenerate row
    from the window at 0, a small base's row over all its bands, a large
    base's window over the whole union's running maximum and lower edges,
    chunk by chunk."""
    m = ref.ambient_dim - 2
    s = np.sqrt(np.maximum(0.0, 1.0 - np.sum(xis * ref.axis, axis=1) ** 2))
    his_max = np.maximum.accumulate(ref.his)

    def window(si):
        return int(np.searchsorted(his_max, -si, side="left")), int(np.searchsorted(ref.los, si, side="right"))

    out = []
    for si in s:
        if si < 1e-15:
            start, stop = window(0.0)
            out.append(sphere_surface_area(m) if start < stop else 0.0)
        elif len(ref) <= bodies._band_chunk(m):
            out.append(float(np.sum(sphere_band_measure(m, ref.los[None, :] / si, ref.his[None, :] / si),
                                    axis=1)[0]))
        else:
            out.append(_per_chunk_window_sum(ref, m, *window(si), si))
    return out


def _given(axis, los, his):
    los, his = np.array(los, dtype=float), np.array(his, dtype=float)
    return BandsBase(axis, los, his), _Union(axis, los, his)


def _striped(n):
    """A striped cone's base, and the union of the strips A of the same
    solve with their exact negation, -A below A."""
    space, t, alpha, eps = SpaceSpec(1, n), 0.5, 0.1, 0.05
    base = make_striped_cone(space, t, alpha, eps).profile.base
    cap = spherical_cap_measure(n - 1, alpha)
    half = striped_cap_subset(alpha, base.axis, t * sphere_surface_area(n - 1) / (2.0 * cap), eps)
    return base, _Union(base.axis, np.concatenate([-half.his[::-1], half.los]),
                        np.concatenate([-half.los[::-1], half.his]))


def _loaded():
    axis = np.eye(5)[0]
    los, his = _mirrored_arrays(True)
    doc = json.loads(json.dumps(BandsBase(axis, los, his).descriptor()))
    return base_from_descriptor(doc), _Union(axis, los, his)


HALF_STORED_BASES = {
    "full-sphere-n3": lambda: (full_sphere_base(3), _Union(np.eye(3)[0], np.array([-1.0]), np.array([1.0]))),
    "full-sphere-n4": lambda: (full_sphere_base(4), _Union(np.eye(4)[0], np.array([-1.0]), np.array([1.0]))),
    "three-with-middle": lambda: _given(np.eye(3)[0], [-0.5, -0.1, 0.2], [-0.2, 0.1, 0.5]),
    "middle-point-band": lambda: _given(np.eye(4)[0], [-0.5, 0.0, 0.2], [-0.2, 0.0, 0.5]),
    "double-cap": lambda: _given(np.eye(4)[0], [-1.0, 0.3], [-0.3, 1.0]),
    "large-odd": lambda: _given(np.eye(3)[0], *_mirrored_arrays(True)),
    "large-even": lambda: _given(np.eye(3)[0], *_mirrored_arrays(False)),
    "striped-n3": lambda: _striped(3),
    "striped-n4": lambda: _striped(4),
    "loaded-n5": _loaded,
}


def _edge_directions(ref):
    """Directions u with <u, axis> exactly each of some edges of the union,
    their negatives, 0 and -0, and 40 values in (-1, 1)."""
    edges = np.concatenate([ref.los, ref.his])
    if len(edges) > 400:
        edges = np.concatenate([edges[:100], edges[len(edges) // 2 - 100 : len(edges) // 2 + 100],
                                edges[-100:]])
    t = np.concatenate([edges, -edges, [0.0, -0.0], np.linspace(-0.99, 0.99, 40)])
    u = np.zeros((len(t), ref.ambient_dim))
    u[:, 0], u[:, 1] = t, np.sqrt(1.0 - t * t)
    return u


class TestHalfStoredBase:
    """A mirrored base keeps its upper half and gives the numbers of the whole
    union bit for bit."""

    @pytest.mark.parametrize("builder", HALF_STORED_BASES.values(), ids=HALF_STORED_BASES.keys())
    def test_keeps_the_upper_half_of_the_union(self, builder):
        base, ref = builder()
        k = len(ref)
        assert len(base) == k and base.is_origin_symmetric() and ref.is_origin_symmetric()
        assert len(base._los) == len(base._his) == k - k // 2
        for edges, expected in ((base.los, ref.los), (base.his, ref.his)):
            assert edges.tobytes() == expected.tobytes() and not edges.flags.writeable
            with pytest.raises(ValueError):
                edges[0] = 0.0
        assert base._los.tobytes() == ref.los[k // 2 :].tobytes()
        assert base._his.tobytes() == ref.his[k // 2 :].tobytes()

    @pytest.mark.parametrize("builder", HALF_STORED_BASES.values(), ids=HALF_STORED_BASES.keys())
    def test_measure_and_sections_are_the_unions(self, builder):
        base, ref = builder()
        n = base.ambient_dim
        assert base.measure == _per_chunk_window_sum(ref, n - 1, 0, len(ref))
        # the poles and a normal one rounding off them are degenerate rows
        pole = np.eye(n)[0]
        tilted = pole + 1e-17 * np.eye(n)[1]
        svals = [0.003, 0.1, 0.2, 0.5, 0.6, 0.97, 1.0, *np.abs(ref.his[-3:]), *np.abs(ref.los[-3:])]
        xis = np.vstack([pole, -pole, tilted / np.linalg.norm(tilted), _normals_at(pole, svals)])
        assert base.section_measures(xis).tolist() == _union_sections(ref, xis)

    def test_both_section_branches_are_covered(self):
        small = {name: len(HALF_STORED_BASES[name]()[0]) <= bodies._band_chunk(n - 2)
                 for name, n in (("striped-n4", 4), ("three-with-middle", 3), ("striped-n3", 3),
                                 ("large-odd", 3), ("loaded-n5", 5))}
        assert small == {"striped-n4": True, "three-with-middle": True, "striped-n3": False,
                         "large-odd": False, "loaded-n5": False}

    @pytest.mark.parametrize("builder", HALF_STORED_BASES.values(), ids=HALF_STORED_BASES.keys())
    def test_contains_is_the_unions(self, builder):
        base, ref = builder()
        dirs = _edge_directions(ref)
        edges = np.empty(2 * len(ref))
        edges[0::2], edges[1::2] = ref.los, ref.his
        expected = np.searchsorted(edges, dirs @ ref.axis, side="right") % 2 == 1
        assert np.array_equal(base.contains(dirs), expected)

    @pytest.mark.parametrize("builder", HALF_STORED_BASES.values(), ids=HALF_STORED_BASES.keys())
    def test_descriptor_round_trips(self, builder):
        base, ref = builder()
        doc = base.descriptor()
        assert doc["los"] == ref.los.tolist() and doc["his"] == ref.his.tolist()
        clone = base_from_descriptor(json.loads(json.dumps(doc)))
        assert clone.descriptor() == doc and clone.is_origin_symmetric()
        assert clone.los.tobytes() == ref.los.tobytes() and clone.his.tobytes() == ref.his.tobytes()
        assert clone.measure == base.measure

    def test_a_zero_of_the_other_sign_keeps_every_band(self):
        # [-0.5, 0] and [0, 0.5] are their own mirror as floats, but the mirror
        # of the upper band's 0.0 is -0.0: the base keeps both bands as given
        base = BandsBase(np.eye(3)[0], np.array([-0.5, 0.0]), np.array([0.0, 0.5]))
        twin = BandsBase(np.eye(3)[0], np.array([-0.5, -0.0]), np.array([0.0, 0.5]))
        assert base.is_origin_symmetric() and twin.is_origin_symmetric()
        assert len(base._los) == 2 and len(twin._los) == 1
        assert base.descriptor()["his"] == [0.0, 0.5] and math.copysign(1.0, base.his[0]) > 0.0
        assert twin.descriptor()["los"] == [-0.5, -0.0]
        xis = _normals_at(base.axis, [0.0, 0.2, 0.5, 1.0])
        assert base.measure == twin.measure
        assert base.section_measures(xis).tolist() == twin.section_measures(xis).tolist()

    @pytest.mark.parametrize("builder", [
        lambda: cap_base(np.eye(3)[0], 0.3),
        lambda: equality_cone_base(4, 0.4),
        lambda: striped_cap_subset(0.2, np.eye(3)[0], 0.6, 0.1),
        lambda: _band_base(3, 10_007, False),
    ], ids=["cap", "equality", "strips", "large"])
    def test_a_base_that_is_not_mirrored_is_kept_as_given(self, builder):
        base = builder()
        assert not base.is_origin_symmetric()
        assert base.los is base._los and base.his is base._his and len(base._los) == len(base)


class TestPolygonRho:
    @pytest.mark.parametrize("seed", range(5))
    def test_rho_is_the_gnomonic_minimum_with_no_division_by_zero(self, seed):
        # the divisor is at least 1e-300, so even readings of exactly 0 divide
        # by no zero, and rho is arctan of the least c_i / max(|t_i|, 1e-300)
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, 5))
        body = make_symmetric_polygon_body(rng.uniform(0.05, 3.0, size=k), rng.uniform(0.0, math.pi, size=k))
        profile = body.profile
        theta = np.concatenate([rng.uniform(0.0, 2 * math.pi, 400), np.arange(8) * math.pi / 4])
        dirs = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        t = np.vstack([dirs @ profile.normals.T, np.zeros((2, k)), np.full((1, k), -0.0)])
        with np.errstate(all="raise"):
            rho = profile.rho_of(t)
            direct = body.rho(dirs)
        expected = np.arctan(np.min(profile.offsets[None, :] / np.maximum(np.abs(t), 1e-300), axis=1))
        assert rho.tobytes() == expected.tobytes()
        assert direct.tobytes() == expected[: len(dirs)].tobytes()
        assert np.all(rho[len(dirs):] == np.arctan(np.min(profile.offsets) / 1e-300))


class TestLunes:
    def test_radial_values(self):
        body = make_lune(0.3)
        axis = np.array([[1.0, 0.0]])
        perp = np.array([[0.0, 1.0]])
        assert body.rho(axis)[0] == pytest.approx(0.3, abs=1e-14)
        assert body.rho(-axis)[0] == pytest.approx(0.3, abs=1e-14)
        assert body.rho(perp)[0] == pytest.approx(math.pi / 2, abs=1e-14)

    def test_volume(self):
        body = make_lune(0.3)
        assert volume(body) == pytest.approx(1.2, abs=1e-6)

    def test_convex(self):
        assert make_lune(0.7).profile.convex

    def test_invalid(self):
        with pytest.raises(DomainError):
            make_lune(math.pi / 2)


class TestPerturbedBalls:
    @pytest.mark.parametrize("n, k", [(3, 2), (3, 8), (6, 4)])
    def test_harmonic_extrema_are_cached_read_only(self, n, k):
        extrema = bodies._harmonic_extrema(n, k)
        assert bodies._harmonic_extrema(n, k) is extrema and not extrema.flags.writeable
        expected = np.concatenate([[-1.0, 1.0], gauss_jacobi(k - 1, (n - 1) / 2.0)[0]])
        assert extrema.tobytes() == expected.tobytes()

    def test_beta_zero(self):
        body = make_perturbed_ball(S3, 0.7, 0.0, 2)
        assert body.profile.alpha == 0.0
        assert volume(body) == pytest.approx(volume(make_ball(S3, 0.7)), rel=1e-12)

    def test_volume_matched_and_alpha_negative(self):
        r = math.pi / 4
        body = make_perturbed_ball(S3, r, 0.05, 2)
        ball = make_ball(S3, r)
        assert abs(volume(body) - volume(ball)) <= 1e-10 * volume(ball)
        assert body.profile.alpha < 0.0

    def test_alpha_first_order(self):
        # alpha ~ -c0 delta^2 / |S^{n-1}| with c0 = (n-1) / (2 tan r)
        r, n = math.pi / 4, 3
        body = make_perturbed_ball(SpaceSpec(1, n), r, 0.05, 2)
        delta_norm, eps_norm = perturbation_norms(body)
        c0 = (n - 1) / (2 * math.tan(r))
        predicted = -c0 * delta_norm ** 2 / (4 * math.pi)
        assert body.profile.alpha == pytest.approx(predicted, rel=0.1)
        assert eps_norm >= delta_norm / math.sqrt(4 * math.pi)

    def test_symmetry(self):
        body = make_perturbed_ball(S3, 0.7, 0.04, 4)
        assert body.symmetric and _rho_is_even(body)

    def test_range_error(self):
        with pytest.raises(DomainError):
            make_perturbed_ball(S3, 1.5, 0.5, 2)

    @pytest.mark.parametrize("beta", [math.nan, math.inf, -math.inf])
    def test_non_finite_beta_is_refused(self, beta):
        # NaN passes every range comparison and reached the alpha solve; an
        # infinite beta took the out-of-range refusal that callers skip
        with pytest.raises(DomainError, match="beta must be finite") as excinfo:
            make_perturbed_ball(S3, 0.7, beta, 2)
        assert excinfo.type is DomainError

    @pytest.mark.parametrize("k", [2, 4, 8])
    @pytest.mark.parametrize("n", [3, 4, 6, 8])
    def test_volume_matched_against_a_fine_polar_rule(self, n, k):
        # 201 Gauss-Jacobi nodes in t = <u, axis> (degree 401), independent of
        # the degree the match itself runs at
        space = SpaceSpec(1, n)
        t, w = gauss_jacobi(201, (n - 3) / 2)
        dirs = np.zeros((len(t), n))
        dirs[:, 0], dirs[:, -1] = np.sqrt(1 - t * t), t
        ball = float(np.dot(w, phi(space, n, np.full(len(t), 0.7))))
        matched = 0
        for beta in (0.08, 0.04, 0.02):
            try:
                body = make_perturbed_ball(space, 0.7, beta, k)
            except DomainError:
                continue
            matched += 1
            assert float(np.dot(w, phi(space, n, body.rho(dirs)))) == pytest.approx(
                ball, rel=1e-14, abs=0.0)
        assert matched

    @pytest.mark.parametrize("n,k,beta", [(3, 8, 0.02), (4, 2, 0.08), (6, 4, 0.04), (5, 6, 0.02)])
    def test_sup_norm_against_a_dense_grid(self, n, k, beta):
        body = make_perturbed_ball(SpaceSpec(1, n), 0.7, beta, k)
        t = np.cos(np.linspace(0.0, math.pi, 400_001))
        dirs = np.zeros((len(t), n))
        dirs[:, 0], dirs[:, -1] = np.sqrt(1 - t * t), t
        dense = float(np.max(np.abs(body.rho(dirs) - 0.7)))
        assert perturbation_norms(body)[1] == pytest.approx(dense, rel=0.0, abs=1e-12)


class TestStripedConstruction:
    def test_cap_measure_example(self):
        assert spherical_cap_measure(2, 0.5) == pytest.approx(2 * math.pi * (1 - 0.5), rel=1e-14)

    def test_measure_fraction(self):
        axis = np.array([1.0, 0.0, 0.0])
        base = striped_cap_subset(0.3, axis, 0.5, 0.05)
        cap = spherical_cap_measure(2, 0.3)
        assert base.measure == pytest.approx(0.5 * cap, rel=1e-8)

    def test_lambda_near_one(self):
        axis = np.array([1.0, 0.0, 0.0])
        base = striped_cap_subset(0.4, axis, 0.995, 0.2)
        cap = spherical_cap_measure(2, 0.4)
        assert base.measure == pytest.approx(0.995 * cap, rel=1e-8)

    def test_section_bound_on_random_grid(self):
        axis = np.array([1.0, 0.0, 0.0])
        base = striped_cap_subset(0.3, axis, 0.5, 0.05)
        rng = np.random.default_rng(42)
        xis = rng.normal(size=(10_000, 3))
        xis /= np.linalg.norm(xis, axis=1, keepdims=True)
        assert _section_bound_margin(base, xis) <= 0.05

    def test_section_bound_dim4(self):
        axis = np.array([1.0, 0.0, 0.0, 0.0])
        base = striped_cap_subset(0.4, axis, 0.6, 0.1)
        rng = np.random.default_rng(3)
        xis = rng.normal(size=(2000, 4))
        xis /= np.linalg.norm(xis, axis=1, keepdims=True)
        assert _section_bound_margin(base, xis) <= 0.1

    def test_striped_cone_volume(self):
        body = make_striped_cone(S3, 0.3, 0.1, 0.05)
        assert volume(body) == pytest.approx(0.3 * math.pi ** 2, rel=1e-8)
        assert body.symmetric

    def test_striped_cone_precondition(self):
        with pytest.raises(DomainError):
            make_striped_cone(S3, 0.9, 0.5, 0.05)


class TestVanishingBody:
    def test_construction_identities(self):
        body = make_vanishing_body(E3, 1.0, 0.01)
        base = body.profile.base
        r = body.profile.height
        # vol = 2 phi_n(r) |A| with the stored base already symmetrized
        assert volume(body) == pytest.approx(phi(E3, 3, r) * base.measure, rel=1e-12)
        assert volume(body) == pytest.approx(1.0, rel=1e-8)
        assert busemann_functional(body) <= 0.01
        # indicator profile: rho equals r on the base and 0 elsewhere
        rng = np.random.default_rng(0)
        dirs = rng.normal(size=(200, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        rho = body.rho(dirs)
        inside = base.contains(dirs)
        assert np.all(rho[inside] == r) and np.all(rho[~inside] == 0.0)


NAN = float("nan")


@pytest.mark.parametrize("build", [
    lambda: make_ball(S3, NAN),
    lambda: make_ball(E3, NAN),
    lambda: make_ellipsoid([NAN, 1.0]),
    lambda: make_symmetric_polygon_body([NAN, 1.0], [0.2, 1.7]),
    lambda: striped_cap_subset(0.4, np.eye(4)[0], 0.5, NAN),
    lambda: make_vanishing_body(E3, NAN, 0.3),
    lambda: make_vanishing_body(E3, 1.0, NAN),
], ids=["ball-s3", "ball-e3", "ellipsoid", "polygon", "striped-eps", "vanishing-volume",
        "vanishing-eta"])
def test_nan_parameters_are_refused(build):
    with pytest.raises(DomainError, match="positive"):
        build()


class TestConvexity:
    """The profile's ``convex`` flag: True for balls, lunes and strip polygons
    alone, which are convex by construction, and never settable."""

    def test_ball(self):
        assert make_ball(S2, 0.8).profile.convex

    def test_polygon(self):
        assert make_symmetric_polygon_body([0.9, 1.2], [0.2, 1.7]).profile.convex

    def test_disconnected_cone_base(self):
        body = make_cone(S2, ArcsBase(((1.0, 1.3), (1.0 + math.pi, 1.3 + math.pi))))
        assert not body.profile.convex

    def test_bumpy_nonconvex(self):
        body = make_bumpy_ball(S2, 0.7, [[1.0, 0.0], [0.0, 1.0]], [0.35, -0.3], [8.0, 8.0],
                               symmetric=True)
        assert not body.profile.convex

    def test_the_flag_is_not_settable(self):
        profile = make_ball(S2, 0.8).profile
        with pytest.raises(dataclasses.FrozenInstanceError):
            profile.convex = False


class TestScalarInequality:
    def test_grid(self):
        # x^2 - r^2 >= (2r / sin r)(cos r - cos x) on (0, pi/2]^2
        rng = np.random.default_rng(5)
        x = rng.uniform(1e-6, math.pi / 2, size=10_000)
        r = rng.uniform(1e-6, math.pi / 2, size=10_000)
        lhs = x ** 2 - r ** 2
        rhs = 2 * r / np.sin(r) * (np.cos(r) - np.cos(x))
        assert np.all(lhs - rhs >= -1e-12)

    @given(
        st.floats(min_value=1e-3, max_value=math.pi / 2),
        st.floats(min_value=1e-3, max_value=math.pi / 2),
    )
    @settings(max_examples=300, deadline=None)
    def test_pointwise_with_equality_only_on_diagonal(self, x, r):
        gap = x ** 2 - r ** 2 - 2 * r / math.sin(r) * (math.cos(r) - math.cos(x))
        assert gap >= -1e-12
        if abs(x - r) > 1e-2:
            assert gap > 0.0


class TestGridProfile:
    def test_plane_interpolation(self):
        values = np.array([1.0, 2.0, 1.0, 2.0])
        profile = GridProfile(values)
        body = StarBody(SpaceSpec(0, 2), profile)
        quarter = np.array([[math.cos(math.pi / 4), math.sin(math.pi / 4)]])
        assert body.rho(quarter)[0] == pytest.approx(1.5, abs=1e-12)

    def test_sphere_interpolation_constant(self):
        values = np.full((7, 8), 1.3)
        body = StarBody(S3, GridProfile(values))
        rng = np.random.default_rng(0)
        dirs = rng.normal(size=(50, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        assert np.max(np.abs(body.rho(dirs) - 1.3)) < 1e-12

    @pytest.mark.parametrize("values", [np.empty(0), np.empty((4, 0)), np.empty((0, 8)), np.array(0.7)],
                             ids=["azimuth-0", "azimuth-0-on-s3", "polar-0", "no-axis"])
    def test_an_empty_or_missing_axis_is_refused(self, values):
        with pytest.raises(DomainError, match="each angle axis"):
            GridProfile(values)


def _document(body, space=None, **profile):
    """The body's document, its space replaced by space = (delta, dim) and its
    profile fields by the given ones."""
    doc = body.to_json_dict()
    if space is not None:
        doc["space"] = {"delta": space[0], "dim": space[1]}
    doc["profile"].update(profile)
    return doc


_POLYGON = make_symmetric_polygon_body([1.0, 0.8], [0.4, 1.5])
_PERTURBED = make_perturbed_ball(S3, 0.7, 0.03, 2)

# documents that load as no body, each next to what it would have loaded as
BAD_BODY_DOCUMENTS = {
    "polygon-negative-offset": _document(_POLYGON, offsets=[-0.5, 0.8]),        # volume 0
    "polygon-zero-normal": _document(_POLYGON, normals=[[0.0, 0.0], [0.0, 1.0]]),
    "polygon-on-h2": _document(_POLYGON, space=(-1, 2)),
    "lune-on-h2": _document(make_lune(0.4), space=(-1, 2)),                     # s+:2
    "ellipsoid-on-s3": _document(make_ellipsoid([1.2, 0.8, 1.0]), space=(1, 3)),  # e:3
    "ellipsoid-2-axes-on-e3": _document(make_ellipsoid([1.2, 0.8, 1.0]), semiaxes=[1.2, 0.8]),
    "perturbed-rho-leaves-range": _document(_PERTURBED, r=1.5, beta=0.5),
    "perturbed-on-e3": _document(_PERTURBED, space=(0, 3)),
    "bumpy-2d-centers-on-s3": _document(make_bumpy_ball(S3, 0.8, [[0.0, 0.0, 1.0]], [0.2], [3.0]),
                                        centers=[[0.0, 1.0]]),
    "grid-shape-8-on-s3": _document(StarBody(S3, GridProfile(np.full((4, 8), 0.7))),
                                    shape=[8], values=[0.7] * 8),
    "grid-shape-0": _document(StarBody(S2, GridProfile(np.full(8, 0.7))), shape=[0], values=[]),
}

_GRID_S2 = StarBody(S2, GridProfile(np.full(8, 0.7)))

# documents whose integer fields hold something else, each with the field's
# name; int() truncated the fractions, and numpy reads a shape of -1 as "infer"
NON_INTEGER_DOCUMENTS = {
    "degree-2.5": (_document(_PERTURBED, degree=2.5), "degree"),
    "degree-true": (_document(_PERTURBED, degree=True), "degree"),
    "degree-string": (_document(_PERTURBED, degree="2"), "degree"),
    "dim-3.5": (_document(_PERTURBED, space=(1, 3.5)), "dim"),
    "dim-3.0": (_document(_PERTURBED, space=(1, 3.0)), "dim"),
    "delta-0.5": (_document(make_ellipsoid([1.2, 0.8, 1.0]), space=(0.5, 3)), "delta"),
    "delta-true": (_document(_PERTURBED, space=(True, 3)), "delta"),
    "shape-minus-1": (_document(_GRID_S2, shape=[-1]), "shape"),
    "shape-8.0": (_document(_GRID_S2, shape=[8.0]), "shape"),
    "shape-true": (_document(StarBody(S2, GridProfile(np.full(1, 0.7))), shape=[True]), "shape"),
    "shape-minus-4-on-s3": (_document(StarBody(S3, GridProfile(np.full((4, 8), 0.7))), shape=[-4, -8]),
                            "shape"),
}


class TestSerialization:
    @pytest.mark.parametrize("builder", [
        lambda: make_ball(H3, 0.8),
        lambda: make_ellipsoid([1.2, 0.8, 1.0]),
        lambda: make_lune(0.4),
        lambda: make_cone(S3, equality_cone_base(3, 0.3)),
        lambda: make_perturbed_ball(S3, 0.7, 0.03, 2),
        lambda: make_bumpy_ball(E3, 1.0, [[0, 0, 1.0]], [0.2], [4.0], symmetric=True),
        lambda: make_symmetric_polygon_body([1.0, 0.8], [0.4, 1.5]),
    ])
    def test_round_trip(self, builder):
        body = builder()
        doc = body.to_json_dict()
        assert doc["format_version"] == "2"
        clone = body_from_json_dict(doc)
        rng = np.random.default_rng(9)
        dirs = rng.normal(size=(40, body.space.dim))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        assert np.max(np.abs(clone.rho(dirs) - body.rho(dirs))) < 1e-12

    def test_symmetric_bumpy_keeps_its_flag(self):
        body = make_bumpy_ball(S2, 0.8, [[1.0, 0.0]], [0.2], [4.0], symmetric=True)
        assert body_from_json_dict(body.to_json_dict()).symmetric

    @pytest.mark.parametrize("body", [
        make_bumpy_ball(S2, 0.8, [[1.0, 0.0]], [0.2], [4.0]),
        StarBody(S2, GridProfile(np.linspace(0.5, 1.2, 16))),
    ], ids=["bumpy", "grid"])
    def test_false_symmetry_claim_rejected(self, body):
        doc = {**body.to_json_dict(), "symmetric": True}
        with pytest.raises(DomainError):
            body_from_json_dict(doc)

    @pytest.mark.parametrize("claim", ["false", "true", 1, 0, None], ids=repr)
    def test_a_symmetry_field_that_is_no_boolean_is_refused(self, claim):
        # "false" was once read as bool("false"), a claim of symmetry
        doc = {**make_bumpy_ball(S2, 0.8, [[1.0, 0.0]], [0.2], [4.0]).to_json_dict(), "symmetric": claim}
        with pytest.raises(DomainError, match="'symmetric'"):
            body_from_json_dict(doc)

    def test_cone_symmetry_comes_from_the_base(self):
        doc = {**make_cone(S2, ArcsBase(((0.0, 3.0),))).to_json_dict(), "symmetric": True}
        assert not body_from_json_dict(doc).symmetric
        doc = {**make_cone(S3, equality_cone_base(3, 0.3)).to_json_dict(), "symmetric": True}
        assert not body_from_json_dict(doc).symmetric
        doc = {**make_cone(S3, _double_cap_base(3, 0.3)).to_json_dict(), "symmetric": False}
        assert body_from_json_dict(doc).symmetric

    @pytest.mark.parametrize("doc", BAD_BODY_DOCUMENTS.values(), ids=BAD_BODY_DOCUMENTS.keys())
    def test_document_its_builder_refuses_is_rejected(self, doc):
        with pytest.raises(DomainError):
            body_from_json_dict(doc)

    @pytest.mark.parametrize("doc, name", NON_INTEGER_DOCUMENTS.values(), ids=NON_INTEGER_DOCUMENTS.keys())
    def test_an_integer_field_that_is_no_integer_is_refused(self, doc, name):
        with pytest.raises(DomainError, match=f"'{name}' must be"):
            body_from_json_dict(doc)

    def test_integer_fields_of_numpy_type_load(self):
        doc = _document(_PERTURBED, space=(np.int64(1), np.int64(3)), degree=np.int64(2))
        assert body_from_json_dict(doc).profile.harmonic.degree == 2

    def test_circle_band_base_becomes_arcs(self):
        body = make_cone(S2, cap_base([1.0, 0.0], 0.3))
        doc = {**body.to_json_dict(),
               "profile": {"kind": "cone", "height": math.pi / 2,
                           "base": cap_base([1.0, 0.0], 0.3).descriptor()}}
        clone = body_from_json_dict(doc)
        assert isinstance(clone.profile.base, ArcsBase)
        assert busemann_functional(clone) == busemann_functional(body)


def _rho_is_even(body):
    """rho(u) = rho(-u) to 1e-12 max(1, |rho(u)|) at the nodes of a degree-11 rule."""
    nodes = build_sphere_rule(body.space.dim - 1, 11).nodes
    rho = body.rho(nodes)
    return bool(np.all(np.abs(rho - body.rho(-nodes)) <= 1e-12 * np.maximum(1.0, np.abs(rho))))


def _grid_mirror(values):
    """The grid of rho(-u): each polar axis flipped, the azimuth rolled by half."""
    return np.roll(np.flip(values, axis=tuple(range(values.ndim - 1))), values.shape[-1] // 2, axis=-1)


def _symmetric_grid(shape, seed):
    values = np.random.default_rng(seed).uniform(0.4, 1.2, shape)
    return (values + _grid_mirror(values)) / 2.0   # exactly its own mirror


def _interleaved_bumps(s2=5.0):
    """Two bumps and their mirrors in the order c1, -c2, -c1, c2; the second
    pair's sharpness s2 (5 for the mirror)."""
    c1, c2 = np.array([0.0, 0.6, 0.8]), np.array([1.0, 0.0, 0.0])
    return BumpyProfile(0.8, [c1, -c2, -c1, c2], [0.2, -0.1, 0.2, -0.1], [3.0, 5.0, 3.0, s2],
                        lo=0.05, hi=math.pi / 2 - 0.05)


def _one_value_changed(values):
    values = values.copy()
    values.flat[7] += 0.1
    return values


S4 = SpaceSpec(1, 4)


def _search_body(space, body_class):
    trace = extremizer_search(space, body_class, 1.0, "max", seed=3, budget=200)
    return StarBody(space, GridProfile(trace.best_values))


SYMMETRIC_BUILDERS = {
    **{f"ball-{space}": (lambda space=space: make_ball(space, 0.7))
       for space in (S2, S3, E3, H3, S4)},
    **{f"bumpy-{space}": (lambda space=space: random_star_body(
        space, np.random.default_rng(space.dim - space.delta), symmetric=True))
       for space in [SpaceSpec(delta, n) for delta in (1, 0, -1) for n in (2, 3, 4)]},
    "ellipsoid": lambda: make_ellipsoid([1.2, 0.8, 1.0]),
    "perturbed-ball": lambda: make_perturbed_ball(S3, 0.7, 0.03, 2),
    "polygon": lambda: make_symmetric_polygon_body([1.0, 0.8], [0.4, 1.5]),
    "random-polygon": lambda: random_symmetric_convex_body(np.random.default_rng(2)),
    "lune": lambda: make_lune(0.4, (0.6, 0.8)),
    "double-cap-cone": lambda: make_cone(S3, _double_cap_base(3, 0.3)),
    "arcs-cone": lambda: random_cone_arcs(np.random.default_rng(5)),
    "striped-cone": lambda: make_striped_cone(S3, 0.5, 0.4, 0.2),
    "vanishing-body": lambda: make_vanishing_body(H3, 1.0, 0.1),
    **{f"search-sym-star-{space}": (lambda space=space: _search_body(space, "sym-star"))
       for space in (S2, SpaceSpec(0, 2))},
    "bumpy-interleaved-mirrors": lambda: StarBody(S3, _interleaved_bumps()),
    "perturbed-even-degree": lambda: StarBody(S3, HarmonicPerturbedProfile(
        0.7, 0.0, 0.03, zonal_harmonic(3, 4, np.eye(3)[0]))),
    "grid-s2": lambda: StarBody(S2, GridProfile(_symmetric_grid(16, 3))),
    "grid-s3": lambda: StarBody(S3, GridProfile(_symmetric_grid((5, 8), 2))),
    "grid-s4": lambda: StarBody(S4, GridProfile(_symmetric_grid((4, 5, 6), 2))),
}


ASYMMETRIC_BUILDERS = {
    "bumpy": lambda: make_bumpy_ball(S3, 0.8, [[0.0, 0.6, 0.8]], [0.2], [3.0]),
    "bumpy-mirror-off-in-sharpness": lambda: StarBody(S3, _interleaved_bumps(s2=5.5)),
    "perturbed-odd-degree": lambda: StarBody(S3, HarmonicPerturbedProfile(
        0.7, 0.0, 0.03, zonal_harmonic(3, 3, np.eye(3)[-1]))),
    "arcs-cone": lambda: make_cone(S2, ArcsBase(((0.0, 3.0),))),
    "equality-cone": lambda: make_cone(S3, equality_cone_base(3, 0.3)),
    "grid-s2": lambda: StarBody(S2, GridProfile(np.linspace(0.5, 1.2, 16))),
    "grid-s2-odd-azimuth": lambda: StarBody(S2, GridProfile(np.tile([0.5, 1.2, 0.8], 3)[:7])),
    "grid-s3-odd-azimuth": lambda: StarBody(S3, GridProfile(_symmetric_grid((5, 8), 1)[:, :7])),
    "grid-s3-one-value-changed": lambda: StarBody(S3, GridProfile(
        _one_value_changed(_symmetric_grid((5, 8), 2)))),
    "grid-s4-one-value-changed": lambda: StarBody(S4, GridProfile(
        _one_value_changed(_symmetric_grid((4, 5, 6), 2)))),
}


class TestRhoResults:
    """StarBody clamps a profile's radii in place, so no rho or rho_of result
    may share memory with the profile's data or with its input."""

    @staticmethod
    def _arrays(profile):
        found = [getattr(profile, "reads", None)]
        for value in vars(profile).values():
            found += [value, *getattr(value, "__dict__", {}).values()]
        return [a for a in found if isinstance(a, np.ndarray)]

    @pytest.mark.parametrize("builder", [*SYMMETRIC_BUILDERS.values(), *ASYMMETRIC_BUILDERS.values()],
                             ids=[*(f"sym-{k}" for k in SYMMETRIC_BUILDERS),
                                  *(f"asym-{k}" for k in ASYMMETRIC_BUILDERS)])
    def test_no_result_shares_memory(self, builder):
        body = builder()
        profile, n = body.profile, body.space.dim
        dirs = np.random.default_rng(n).normal(size=(64, n))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        arrays = self._arrays(profile)
        before = [a.copy() for a in arrays]
        results = [(profile.rho(dirs), dirs), (body.rho(dirs), dirs)]
        if not body.is_indicator:
            # a ball's (0, 0) reads nothing in any dimension
            t = np.ascontiguousarray(dirs @ profile.reads.reshape(-1, n).T)
            results += [(profile.rho_of(t), t), (body.rho_of(t), t)]
        for result, given in results:
            assert not any(np.shares_memory(result, a) for a in [*arrays, given])
        assert all(np.array_equal(a, b, equal_nan=True) for a, b in zip(arrays, before))


class TestSymmetryClaimsHoldToRoundoff:
    """The symmetry flag is the profile's, decided exactly from its data.  A
    body flagged symmetric has rho(-u) = rho(u) to 1e-12 max(1, |rho|): the
    product and plane paths evaluate one node of each antipodal pair."""

    @pytest.mark.parametrize("builder", SYMMETRIC_BUILDERS.values(), ids=SYMMETRIC_BUILDERS.keys())
    def test_every_builder_passes(self, builder):
        body = builder()
        assert body.symmetric is body.profile.symmetric is True
        assert _rho_is_even(body)

    @pytest.mark.parametrize("builder", ASYMMETRIC_BUILDERS.values(), ids=ASYMMETRIC_BUILDERS.keys())
    def test_an_asymmetric_profile_says_so(self, builder):
        body = builder()
        assert body.symmetric is body.profile.symmetric is False
        assert not _rho_is_even(body)

    def test_the_flag_is_no_field_of_the_body(self):
        assert [f.name for f in dataclasses.fields(StarBody)] == ["space", "profile"]
        assert not hasattr(StarBody, "check_symmetry")
        body = make_ball(S2, 0.5)
        with pytest.raises(AttributeError):
            body.symmetric = False

    def test_the_bumps_are_compared_as_a_multiset(self):
        p = _interleaved_bumps()
        for order in ([3, 2, 1, 0], [0, 2, 1, 3], [1, 0, 3, 2]):
            shuffled = BumpyProfile(p.r0, p.centers[order], p.amplitudes[order], p.sharpness[order])
            assert shuffled.symmetric
        # three of the four bumps: one of them has lost its mirror
        assert not BumpyProfile(0.8, p.centers[:3], p.amplitudes[:3], p.sharpness[:3]).symmetric
        # a bump at the origin is its own mirror
        assert BumpyProfile(0.8, [[0.0, 0.0, 0.0]], [0.2], [3.0]).symmetric

    @pytest.mark.parametrize("shape", [(16,), (5, 8), (4, 5, 6)], ids=str)
    def test_a_grid_is_symmetric_exactly_when_it_is_its_flipped_and_rolled_self(self, shape):
        values = _symmetric_grid(shape, 4)
        assert GridProfile(values).symmetric
        for i in range(values.size):
            changed = values.copy()
            changed.flat[i] += 1e-15
            assert not GridProfile(changed).symmetric


class TestBumpyPairs:
    """A symmetric bumpy ball sums each mirrored pair of bumps as one cosh,
    a e^{s(t-1)} + a e^{s(-t-1)} = 2 a e^{-s} cosh(s t); every other bump is
    summed on its own, as the term-by-term sum does."""

    @staticmethod
    def _term_by_term(profile, dirs):
        vals = np.full(dirs.shape[0], profile.r0)
        for c, a, s in zip(profile.centers, profile.amplitudes, profile.sharpness):
            vals = vals + a * np.exp(s * (dirs @ c - 1.0))
        return np.clip(vals, profile.lo, profile.hi)

    @staticmethod
    def _body_and_dirs(space, symmetric, count):
        rng = np.random.default_rng(space.dim)
        centers = rng.normal(size=(3, space.dim))
        centers /= np.linalg.norm(centers, axis=1, keepdims=True)
        body = make_bumpy_ball(space, 0.8, centers, [0.2, -0.1, 0.05], [3.0, 5.0, 2.0],
                               symmetric=symmetric)
        dirs = rng.normal(size=(count, space.dim))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        return body.profile, dirs

    @pytest.mark.parametrize("symmetric", [True, False], ids=["symmetric", "asymmetric"])
    @pytest.mark.parametrize("space", [S3, E3, SpaceSpec(1, 4)], ids=str)
    def test_rho_is_the_term_by_term_sum(self, space, symmetric):
        """Bit for bit without pairs; with pairs within a few roundings of
        the largest terms, r0 + sum |a_j|."""
        profile, dirs = self._body_and_dirs(space, symmetric, 5000)
        assert len(profile._pair_coefs) == (3 if symmetric else 0)
        rho, reference = profile.rho(dirs), self._term_by_term(profile, dirs)
        if symmetric:
            scale = profile.r0 + np.sum(np.abs(profile.amplitudes))
            assert np.max(np.abs(rho - reference)) <= 4.0 * np.finfo(float).eps * scale
        else:
            assert np.array_equal(rho, reference)

    @pytest.mark.parametrize("symmetric", [True, False], ids=["symmetric", "asymmetric"])
    @pytest.mark.parametrize("space", [S3, E3, SpaceSpec(1, 4)], ids=str)
    def test_rho_is_the_sum_from_r0(self, space, symmetric):
        # r0 + the first pair's term, then each term in order, and the clip:
        # bit for bit the sum that starts from r0 and ends in np.clip
        profile, dirs = self._body_and_dirs(space, symmetric, 5000)
        t = np.ascontiguousarray(dirs @ profile.reads.T)
        vals = np.full(len(t), profile.r0)
        for c, coef in zip(t.T, profile._pair_coefs):
            vals += np.cosh(c) * coef
        for c, j in zip(t.T[len(profile._pair_coefs):], profile._single):
            vals += np.exp((c - 1.0) * profile.sharpness[j]) * profile.amplitudes[j]
        reference = np.clip(vals, profile.lo, profile.hi)
        for readings in (t, np.asfortranarray(t)):
            assert profile.rho_of(readings).tobytes() == reference.tobytes()

    @pytest.mark.parametrize("space", [S3, E3, SpaceSpec(1, 4)], ids=str)
    def test_pairs_against_forty_digits(self, space):
        mp = pytest.importorskip("mpmath")
        profile, dirs = self._body_and_dirs(space, True, 400)
        rho = profile.rho(dirs)
        with mp.workdps(40):
            for u, value in zip(dirs, rho):
                exact = mp.mpf(profile.r0)
                for c, a, s in zip(profile.centers, profile.amplitudes, profile.sharpness):
                    t = mp.fsum(mp.mpf(x) * mp.mpf(y) for x, y in zip(u, c))
                    exact += mp.mpf(a) * mp.exp(mp.mpf(s) * (t - 1))
                assert abs(value - exact) <= 4e-16 * abs(exact)

    @pytest.mark.parametrize("center, sharpness", [
        ([0.0, 0.6, 0.8], 800.0),
        ([0.0, 180.0, 240.0], 3.0),
    ], ids=["sharpness-800", "center-norm-300"])
    def test_pairs_outside_the_cosh_range_are_summed_bump_by_bump(self, center, sharpness):
        body = make_bumpy_ball(S3, 0.8, [center, [1.0, 0.0, 0.0]], [0.2, 0.1], [sharpness, 4.0],
                               symmetric=True)
        profile = body.profile
        # only the second pair is one cosh
        assert len(profile._pair_coefs) == 1 and list(profile._single) == [0, 2]
        only_far = BumpyProfile(0.8, [center, np.negative(center)], [0.2, 0.2], [sharpness] * 2,
                                lo=profile.lo, hi=profile.hi)
        assert len(only_far._pair_coefs) == 0
        dirs = np.random.default_rng(8).normal(size=(2000, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        with np.errstate(over="ignore"):   # a center of norm 300 overflows exp in either sum
            rho, reference = only_far.rho(dirs), self._term_by_term(only_far, dirs)
            assert not np.any(np.isnan(rho)) and not np.any(np.isnan(profile.rho(dirs)))
        assert np.array_equal(rho, reference)

    def test_pairs_are_found_only_when_exact(self):
        body = make_bumpy_ball(S3, 0.8, [[0.0, 0.6, 0.8], [1.0, 0.0, 0.0]], [0.2, 0.1], [3.0, 4.0],
                               symmetric=True)
        p = body.profile
        assert len(p._pair_coefs) == 2
        nudged = np.array(p.amplitudes)
        nudged[3] = np.nextafter(nudged[3], 1.0)
        assert len(BumpyProfile(p.r0, p.centers, nudged, p.sharpness)._pair_coefs) == 0
        # two bumps that are each other's mirror are such a pair
        mirrored = BumpyProfile(0.8, [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]], [0.2, 0.2], [3.0, 3.0])
        assert len(mirrored._pair_coefs) == 1
