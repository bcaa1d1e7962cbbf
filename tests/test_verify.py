import argparse
import dataclasses
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from starsections.bodies import (
    ArcsBase, BandsBase, GridProfile, StarBody, equality_cone_base,
    make_ball, make_cone,
)
from starsections import functionals, spaces, verify
from starsections.cli import build_parser, parse_space
from starsections.errors import ApplicabilityError, DomainError, RadiusRangeError
from starsections.functionals import (
    THEOREMS,
    bound_constants,
    busemann_functional,
    volume,
    volume_and_functional,
)
from starsections.harmonics import radon_multiplier
from starsections.spaces import SpaceSpec, sphere_surface_area
from starsections.verify import (
    _SUITE_BODIES,
    _objective_change,
    _orbit,
    _plane_objective,
    _plane_volume,
    _segment_volume,
    _segment_volumes,
    _volume_move,
    c5_constant,
    c_chain,
    extremizer_search,
    perturbation_sign_experiment,
    run_theorem_suite,
    sharpness_schedule,
    suite_bodies,
)

S2 = SpaceSpec(1, 2)
S3 = SpaceSpec(1, 3)


class TestExpansionConstants:
    def test_c5_closed_form_n3(self):
        # 2 pi^2 (1 - cos r) / (tan r sin r)
        for r in (0.3, math.pi / 4, 1.2):
            expected = 2 * math.pi ** 2 * (1 - math.cos(r)) / (math.tan(r) * math.sin(r))
            assert c5_constant(3, r) == pytest.approx(expected, rel=1e-13)

    def test_c5_quarter_pi(self):
        assert c5_constant(3, math.pi / 4) == pytest.approx(2 * math.pi ** 2 * (math.sqrt(2) - 1),
                                                            rel=1e-13)

    def test_c5_small_radius_limit(self):
        # increases to |S^{n-2}|^2 / (n-1)^2 from below as r -> 0
        for n in (3, 4):
            cap = sphere_surface_area(n - 2) ** 2 / (n - 1) ** 2
            values = [c5_constant(n, r) for r in (0.5, 0.1, 0.01, 0.001)]
            assert all(v < cap for v in values)
            assert values[-1] == pytest.approx(cap, rel=1e-4)

    def test_c5_always_below_multiplier_two(self):
        for n in (3, 4):
            lam2 = radon_multiplier(n, 2) ** 2
            for r in np.linspace(0.05, math.pi / 2 - 0.05, 25):
                assert c5_constant(n, r) < lam2

    def test_chain_values(self):
        c0, c1, c2, c3, c4 = c_chain(3, math.pi / 4)
        assert c0 == pytest.approx(1.0, rel=1e-13)
        assert c1 == pytest.approx(math.sin(math.pi / 4), rel=1e-13)
        assert c2 == pytest.approx(0.5, rel=1e-13)
        section = 2 * math.pi * (1 - math.cos(math.pi / 4))
        assert c3 == pytest.approx(3 * section ** 2, rel=1e-13)
        assert c4 == pytest.approx(3 * section, rel=1e-13)

    def test_domain(self):
        with pytest.raises(DomainError):
            c5_constant(2, 0.5)
        with pytest.raises(DomainError):
            c5_constant(3, math.pi / 2)


class TestPerturbationExperiment:
    def test_signs_at_quarter_pi(self):
        res2 = perturbation_sign_experiment(3, math.pi / 4, 2)
        assert res2.conclusive and res2.observed_sign == 1 == res2.predicted_sign
        res4 = perturbation_sign_experiment(3, math.pi / 4, 4)
        assert res4.conclusive and res4.observed_sign == -1 == res4.predicted_sign

    def test_ratio_matches_prediction(self):
        res = perturbation_sign_experiment(3, math.pi / 4, 2)
        assert res.ratio == pytest.approx(res.predicted_ratio, rel=0.2)

    def test_sign_grid(self):
        for k in (2, 4, 6):
            for r in (math.pi / 6, math.pi / 4, math.pi / 3):
                res = perturbation_sign_experiment(3, r, k, betas=(0.04, 0.02))
                assert res.conclusive
                assert res.observed_sign == res.predicted_sign
                predicted = int(np.sign(radon_multiplier(3, k) ** 2 - c5_constant(3, r)))
                assert res.predicted_sign == predicted

    @pytest.mark.parametrize("n, r, k", [(8, 0.7, 8), (12, 0.7, 4)])
    def test_beta_that_does_not_fit_is_skipped(self, n, r, k):
        # beta = 0.08 and 0.04 take rho out of (0, pi/2) here; 0.02 fits
        res = perturbation_sign_experiment(n, r, k)
        assert [row[0] for row in res.rows] == [0.02] and res.beta == 0.02
        assert res.conclusive and res.sign_matches

    def test_no_beta_fits(self):
        with pytest.raises(RadiusRangeError, match="at every beta"):
            perturbation_sign_experiment(3, 0.7, 2, betas=(5.0, 3.0))

    @pytest.mark.parametrize("n, r, k, betas", [(3, 0.7, 3, None), (3, 2.0, 2, None),
                                                (2, 0.7, 2, None), (3, 0.7, 2, (0.04, 0.0))])
    def test_other_domain_errors_still_raise(self, n, r, k, betas):
        with pytest.raises(DomainError) as info:
            perturbation_sign_experiment(n, r, k, betas=betas)
        assert not isinstance(info.value, RadiusRangeError)

    def test_json(self):
        res = perturbation_sign_experiment(3, 0.7, 2, betas=(0.04,))
        doc = res.to_json_dict()
        assert doc["format_version"] == "2" and "rows" in doc

    def test_json_holds_every_field_in_order(self):
        res = perturbation_sign_experiment(3, 0.7, 2, betas=(0.04,))
        doc = res.to_json_dict()
        names = [f.name for f in dataclasses.fields(res)]
        assert list(doc) == ["format_version", *names]
        assert all(doc[name] == getattr(res, name) for name in names if name != "rows")
        assert doc["rows"] == [list(row) for row in res.rows]


class TestSuites:
    def test_hyperbolic_balls_equality(self):
        reports = run_theorem_suite("hyperbolic", [make_ball(SpaceSpec(-1, 3), r)
                                                   for r in (0.3, 0.7, 1.2)])
        assert all(r.verdict for r in reports)
        assert max(abs(r.rel_gap) for r in reports) <= 1e-6

    def test_min2d_hemisphere_exact(self):
        reports = run_theorem_suite("min2d", [make_ball(S2, math.pi / 2)])
        (rep,) = reports
        assert rep.lhs == pytest.approx(2 * math.pi ** 3, rel=1e-12)
        assert rep.rhs == pytest.approx(2 * math.pi ** 3, rel=1e-12)

    def test_cone_max_strict_for_random_bodies(self):
        bodies = suite_bodies("cone-max", random_count=5, seed=3)
        reports = run_theorem_suite("cone-max", bodies)
        assert all(r.verdict for r in reports)
        random_reports = [r for r in reports if r.body_kind == "bumpy"]
        assert all(r.gap > 0 for r in random_reports)

    def test_prop41_emits_both_variants(self):
        reports = run_theorem_suite("prop4.1", [make_ball(S3, 0.7)])
        variants = {r.variant for r in reports}
        assert variants == {"proof-chain", "literal"}
        sharp = next(r for r in reports if r.variant == "proof-chain")
        assert abs(sharp.rel_gap) <= 1e-10
        slack = next(r for r in reports if r.variant == "literal")
        assert slack.gap > 0.1

    def test_prop41_left_side_once_per_body(self, monkeypatch):
        bodies = [make_ball(S3, 0.7), make_ball(S3, 1.1)]
        calls = []

        def counted(body, *args, **kwargs):
            calls.append(body)
            return volume_and_functional(body, *args, **kwargs)

        monkeypatch.setattr(verify, "volume_and_functional", counted)
        reports = run_theorem_suite("prop4.1", bodies)
        assert calls == bodies
        assert [(r.variant, r.lhs) for r in reports] == [
            (variant, busemann_functional(body, exponent=1))
            for body in bodies for variant in ("proof-chain", "literal")]

    def test_prop41_volume_once_per_body(self, monkeypatch):
        calls = []

        zonal_volume = functionals._Zonal.volume

        def counted(path, mu):
            calls.append(path.body)
            return zonal_volume(path, mu)

        monkeypatch.setattr(functionals._Zonal, "volume", counted)
        ball = make_ball(S3, 0.7)
        assert len(run_theorem_suite("prop4.1", [ball])) == 2
        assert calls == [ball]

    def test_applicability(self):
        with pytest.raises(ApplicabilityError):
            run_theorem_suite("min2d", [make_ball(SpaceSpec(0, 2), 1.0)])
        with pytest.raises(ApplicabilityError):
            run_theorem_suite("unknown-theorem", [])

    def test_asymmetric_body_is_inapplicable_to_min2d(self):
        cone = make_cone(S2, ArcsBase(((0.0, 3.0),)))
        assert not cone.symmetric
        with pytest.raises(ApplicabilityError, match="origin-symmetric"):
            run_theorem_suite("min2d", [cone])

    def test_dim_outside_theorem_rejected(self):
        for theorem_id in ("min2d", "cone-max", "lune-max"):
            with pytest.raises(ApplicabilityError):
                suite_bodies(theorem_id, dim=3)
        with pytest.raises(ApplicabilityError):
            suite_bodies("min-nd", dim=2)
        # dim 0 is a dimension, not a request for the default one
        with pytest.raises(ApplicabilityError, match="n = 0"):
            suite_bodies("min-nd", dim=0)

    def test_equality_cone_and_violating_cone(self):
        eq = make_cone(S3, equality_cone_base(3, 0.4))
        viol = make_cone(S3, BandsBase(np.eye(3)[0], np.array([-1.0, 0.5]), np.array([-0.5, 1.0])))
        cn = bound_constants("spherical-min", 3)
        for body, expect_tight in ((eq, True), (viol, False)):
            lhs = busemann_functional(body)
            rhs = cn * volume(body) ** 3
            rel = (lhs - rhs) / rhs
            if expect_tight:
                assert abs(rel) <= 1e-4
            else:
                assert rel > 1e-2


class TestTheoremTable:
    def test_same_ids_in_table_suite_bodies_and_cli(self):
        parser = build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        theorem_arg = next(a for a in sub.choices["verify"]._actions if a.dest == "theorem")
        assert list(THEOREMS) == list(_SUITE_BODIES) == list(theorem_arg.choices)

    def test_suite_bodies_meet_their_hypotheses(self):
        for theorem_id, theorem in THEOREMS.items():
            for body in suite_bodies(theorem_id, random_count=2):
                theorem.check(body)

    def test_suite_bodies_are_drawn_as_they_are_checked(self):
        # the factories returned lists, which held every body before the first
        # check (about 1.7 KB a random min-nd body); drawn one at a time, the
        # bodies are those of the whole list, in its order
        for theorem_id in THEOREMS:
            drawn = suite_bodies(theorem_id, random_count=2, seed=5)
            assert iter(drawn) is drawn
            first = [next(drawn).to_json_dict(), next(drawn).to_json_dict()]
            whole = list(suite_bodies(theorem_id, random_count=2, seed=5))
            assert first == [body.to_json_dict() for body in whole[:2]]
        tracemalloc.start()
        try:
            next(suite_bodies("min-nd", random_count=10 ** 9))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6


class TestSharpness:
    def test_short_schedule(self):
        rows = sharpness_schedule(3, 0.5, alphas=(0.3, 0.1), epsilons=(0.1, 0.05))
        cn = bound_constants("spherical-min", 3)
        assert rows[-1]["normalized"] == pytest.approx(cn, rel=0.06)
        for row in rows:
            assert row["normalized"] >= cn - 1e-9
        assert rows[0]["normalized"] > rows[-1]["normalized"]

    def test_length_mismatch(self):
        with pytest.raises(DomainError):
            sharpness_schedule(3, 0.5, alphas=(0.3,), epsilons=(0.1, 0.05))


def _search_with_profiles(monkeypatch, *args, **kwargs):
    """A shape search's trace and the profile of each accepted step: the
    search scores the whole profile of its start and of each accepted step,
    and no other."""
    scored = []
    objective = verify._plane_objective

    def spy(values):
        scored.append(values)
        return objective(values)

    monkeypatch.setattr(verify, "_plane_objective", spy)
    trace = extremizer_search(*args, **kwargs)
    assert len(scored) == trace.accepted + 1
    return trace, scored[1:]


class TestSearch:
    def test_deterministic_replay(self):
        a = extremizer_search(S2, "sym-star", 2.0, sense="max", budget=600, seed=9)
        b = extremizer_search(S2, "sym-star", 2.0, sense="max", budget=600, seed=9)
        assert a.steps == b.steps
        assert np.array_equal(a.best_values, b.best_values)

    def test_volume_drift_invariant(self):
        trace = extremizer_search(S2, "star", 2.0, sense="max", budget=800, seed=4)
        assert all(step[2] <= 1e-8 for step in trace.steps)
        body = StarBody(S2, GridProfile(trace.best_values))
        assert volume(body) == pytest.approx(2.0, rel=1e-4)

    def test_hyperbolic_converges_to_ball(self):
        space = SpaceSpec(-1, 2)
        vol = 2 * math.pi * (math.cosh(0.8) - 1)
        trace = extremizer_search(space, "star", vol, sense="max", budget=6000, seed=1)
        r_ball = math.acosh(1 + vol / (2 * math.pi))
        assert np.max(np.abs(trace.best_values - r_ball)) <= 0.05

    def test_hemisphere_max_approaches_cone_value(self):
        trace = extremizer_search(S2, "sym-star", 2.0, sense="max", budget=8000, seed=2)
        body = StarBody(S2, GridProfile(trace.best_values))
        target = math.pi ** 2 * volume(body)
        assert trace.best_objective <= target * (1 + 1e-9)
        assert trace.best_objective >= 0.9 * target

    def test_hemisphere_min_approaches_ball_bound(self):
        trace = extremizer_search(S2, "sym-star", 2.0, sense="min", budget=8000, seed=3)
        body = StarBody(S2, GridProfile(trace.best_values))
        vol = volume(body)
        bound = 8 * math.pi * math.acos(1 - vol / (2 * math.pi)) ** 2
        assert trace.best_objective >= bound * (1 - 1e-6)
        assert trace.best_objective <= bound * 1.05

    def test_invalid_class(self):
        with pytest.raises(DomainError):
            extremizer_search(S2, "weird", 1.0)

    @pytest.mark.parametrize("body_class", ["convex", "sym-convex"])
    def test_convex_gated(self, body_class):
        # a profile linear in the angle between nodes is convex only when it
        # is constant, so there is no convex class to search
        with pytest.raises(DomainError, match="unknown body class"):
            extremizer_search(S2, body_class, 2.0)

    def test_rejects_a_volume_outside_the_range(self):
        rim = 2 * math.pi * (1 - math.cos(math.pi / 2 - 1e-9))
        for space, vol in [(S2, 0.0), (S2, -1.0), (S2, 7.0), (S2, rim), (S2, math.nan),
                           (SpaceSpec(-1, 2), 1e30)]:
            with pytest.raises(DomainError, match="volume"):
                extremizer_search(space, "sym-star", vol, budget=10)

    def test_rejects_a_negative_budget(self):
        with pytest.raises(DomainError, match="budget"):
            extremizer_search(S2, "sym-star", 2.0, budget=-5)

    @pytest.mark.parametrize("body_class", ["star", "sym-star"])
    @pytest.mark.parametrize("sense", ["max", "min"])
    def test_moves_keep_the_volume_to_roundoff(self, body_class, sense, monkeypatch):
        trace, profiles = _search_with_profiles(monkeypatch, S2, body_class, 2.0, sense=sense,
                                                budget=1000, seed=5)
        assert trace.accepted > 0
        assert all(step[2] <= 1e-12 for step in trace.steps)
        for values in profiles:
            assert abs(_plane_volume(S2, values) - 2.0) <= 2e-12

    @pytest.mark.parametrize("space, body_class, vol", [
        (S2, "sym-star", 2.0), (S2, "sym-star", 6.0), (SpaceSpec(-1, 2), "sym-star", 3.0),
        (SpaceSpec(0, 2), "sym-star", 2.0)])
    def test_symmetric_profiles_stay_exactly_symmetric(self, space, body_class, vol, monkeypatch):
        trace, profiles = _search_with_profiles(monkeypatch, space, body_class, vol, budget=600, seed=7)
        assert trace.accepted > 0
        for values in [trace.best_values, *profiles]:
            assert np.array_equal(values[:32], values[32:])

    def test_inverts_the_ball_volume_once(self, monkeypatch):
        calls = []

        def spy(*args, **kwargs):
            calls.append(args)
            return spaces.phi_inverse(*args, **kwargs)

        monkeypatch.setattr(verify, "phi_inverse", spy)
        trace = extremizer_search(S2, "sym-star", 2.0, budget=500, seed=1)
        assert trace.accepted > 0
        assert calls == [(S2, 2, 2.0 / (2 * math.pi))]

    @pytest.mark.parametrize("vol", [6.0, 6.2])
    def test_volume_near_the_rim_is_kept(self, vol):
        trace = extremizer_search(S2, "sym-star", vol, budget=400, seed=0)
        assert trace.accepted > 0
        assert all(step[2] <= 1e-8 for step in trace.steps)
        assert _plane_volume(S2, trace.best_values) == pytest.approx(vol, rel=1e-8)

    @pytest.mark.parametrize("sense", ["max", "min"])
    def test_small_volume_shrinks_the_steps(self, sense):
        # at volume 0.001 (r0 = 0.018) the first steps are too large to absorb
        trace = extremizer_search(S2, "sym-star", 0.001, sense=sense, budget=1000, seed=0)
        assert trace.accepted > 0
        assert all(step[2] <= 1e-12 for step in trace.steps)


class TestSegmentVolumes:
    """The sector volume h (1 - (sin b - sin a)/(b - a)) (hemisphere) and
    h ((sinh b - sinh a)/(b - a) - 1) (hyperbolic plane), with the limits
    h (1 - cos a) and h (cosh a - 1) at b = a, against a 50-digit reference."""

    @pytest.mark.parametrize("delta", [1, -1])
    @pytest.mark.parametrize("a", [0.3, 1.0, 1.5])
    @pytest.mark.parametrize("gap", [0.0, 1e-12, 1.1e-9, 1e-6])
    def test_against_mpmath(self, delta, a, gap):
        mp = pytest.importorskip("mpmath")
        b = a + gap
        h = 2 * math.pi / 64
        sin, cos = (mp.sin, mp.cos) if delta == 1 else (mp.sinh, mp.cosh)
        with mp.workdps(50):
            A, B = mp.mpf(a), mp.mpf(b)
            ratio = cos(A) if A == B else (sin(B) - sin(A)) / (B - A)
            ref = mp.mpf(h) * delta * (1 - ratio)
        got = _segment_volumes(SpaceSpec(delta, 2), np.array([a, b]), np.array([b, a]), h)
        for value in got:
            assert abs(value - ref) <= 1e-14 * ref
        # the scalar form, which the search's moves take
        for value in (_segment_volume(delta, a, b, h), _segment_volume(delta, b, a, h)):
            assert abs(value - ref) <= 1e-14 * ref

    @pytest.mark.parametrize("a, b", [(0.3, 0.3), (0.5, 1.25), (2.0, 0.1)])
    def test_the_scalar_form_in_the_plane(self, a, b):
        h = 2 * math.pi / 64
        expected = h * (a * a + a * b + b * b) / 6.0
        assert _segment_volume(0, a, b, h) == expected
        assert _segment_volumes(SpaceSpec(0, 2), np.array([a]), np.array([b]), h)[0] == expected


class TestMoves:
    """A move solves and scores only the segments it touches; the whole
    profile's volume and objective, in array form, are the reference."""

    @pytest.mark.parametrize("space", [S2, SpaceSpec(-1, 2), SpaceSpec(0, 2)], ids=str)
    @pytest.mark.parametrize("symmetric", [True, False])
    def test_a_move_keeps_the_volume_and_scores_its_change(self, space, symmetric):
        rng = np.random.default_rng(3)
        half = rng.uniform(0.6, 1.0, size=32)
        values = (np.concatenate([half, half]) if symmetric else rng.uniform(0.6, 1.0, size=64)).tolist()
        pairs = [(5, 6), (6, 5), (0, 63), (63, 0), (3, 40)] + [tuple(rng.integers(0, 64, size=2).tolist())
                                                              for _ in range(40)]
        moved_count = 0
        for i, j in pairs:
            cand = _volume_move(space, values, i, j, 0.05, symmetric, 1e-6, 1.5)
            if cand is None:
                assert j in _orbit(i, 64, symmetric)
                continue
            moved_count += 1
            before, after = np.array(values), np.array(cand)
            assert abs(_plane_volume(space, after) - _plane_volume(space, before)) <= 1e-14
            moved = _orbit(i, 64, symmetric) + _orbit(j, 64, symmetric)
            assert np.array_equal(np.flatnonzero(after != before), sorted(set(moved)))
            change = _plane_objective(after) - _plane_objective(before)
            assert abs(_objective_change(values, cand, moved) - change) <= 1e-13 * _plane_objective(before)
            if symmetric:
                assert cand[:32] == cand[32:]
        assert moved_count > 35

    def test_a_raise_clipped_to_nothing_moves_nothing(self):
        # the root's function is exactly 0 at the lowered node's own value, so
        # the move returns the profile unchanged, as a candidate
        values = np.random.default_rng(4).uniform(0.5, 1.0, size=64).tolist()
        values[7] = 1.2
        cand = _volume_move(S2, values, 7, 20, 0.1, False, 1e-6, 1.2)
        assert cand == values

    def test_a_raise_that_lo_cannot_absorb_is_none(self):
        values = [0.01] * 64
        assert _volume_move(S2, values, 0, 9, 1.0, False, 1e-6, 1.5) is None


# Accepted iterations and best objectives of four 1000-step searches, recorded
# before the moves took scalar segment volumes: a move that keeps its root to
# roundoff makes the same accept decisions.
SEARCH_TRACES = json.loads((Path(__file__).resolve().parent / "data" / "search_traces.json").read_text())


class TestPinnedSearchTraces:
    @pytest.mark.parametrize("case", SEARCH_TRACES,
                             ids=lambda c: f"{c['space']}-{c['class']}-{c['sense']}-{c['seed']}")
    def test_the_trace_is_the_recorded_one(self, case):
        trace = extremizer_search(parse_space(case["space"]), case["class"], case["volume"],
                                  sense=case["sense"], budget=case["budget"], seed=case["seed"])
        assert [step[0] for step in trace.steps] == case["iterations"]
        assert (trace.accepted, trace.evaluations) == (case["accepted"], case["evaluations"])
        assert trace.best_objective == pytest.approx(case["best_objective"], rel=1e-13, abs=0.0)
        assert all(step[2] <= 1e-12 for step in trace.steps)
