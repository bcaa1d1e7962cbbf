"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS lines as
they complete.  Each criterion is a separate test so failures are granular.
"""

import math
import time

import numpy as np

from starsections.bodies import (
    ArcsBase,
    equality_cone_base,
    make_ball,
    make_cone,
    make_lune,
    make_vanishing_body,
)
from starsections.functionals import (
    QuadratureConfig,
    big_psi,
    bound_constants,
    busemann_functional,
    busemann_functional_with_error,
    f_spherical_limit,
    g_hyperbolic,
    gaussian_measure,
    psi,
    rhs_bound,
    section_volume,
    volume,
)
from starsections.harmonics import radon_multiplier, zonal_harmonic
from starsections.quadrature import build_sphere_rule
from starsections.spaces import SpaceSpec, sphere_surface_area
from starsections.verify import (
    perturbation_sign_experiment,
    random_cone_arcs,
    random_ellipsoid,
    random_star_body,
    random_symmetric_convex_body,
    sharpness_schedule,
)

from reference import eval_zonal, radon_quadrature

EUCLID_CFG = QuadratureConfig(outer_degree=39, inner_degree=63)


def report(criterion, passed, detail):
    line = f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} ({detail})"
    print(line)
    assert passed, line


class TestAcceptance:
    def test_01_euclidean_busemann(self):
        t0 = time.monotonic()
        rng = np.random.default_rng(101)
        worst_eq = 0.0
        worst_margin = math.inf
        for n in (2, 3):
            space = SpaceSpec(0, n)
            c_n = bound_constants("busemann", n)
            bodies = [make_ball(space, 1.0)] + [random_ellipsoid(n, rng) for _ in range(10)]
            for body in bodies:
                lhs = busemann_functional(body, config=EUCLID_CFG)
                rhs = c_n * volume(body, config=EUCLID_CFG) ** (n - 1)
                worst_eq = max(worst_eq, abs(lhs - rhs) / rhs)
            for _ in range(10):
                body = random_star_body(space, rng)
                lhs, err = busemann_functional_with_error(body, config=EUCLID_CFG)
                rhs = c_n * volume(body, config=EUCLID_CFG) ** (n - 1)
                worst_margin = min(worst_margin, (rhs - lhs) / (10 * max(err, 1e-14 * rhs)))
        elapsed = time.monotonic() - t0
        report(1, worst_eq <= 1e-5 and worst_margin > 1.0 and elapsed <= 60.0,
               f"ellipsoid equality {worst_eq:.2e} <= 1e-5, "
               f"strict margin {worst_margin:.3g}x the 10x-error floor, {elapsed:.1f}s <= 60s")

    def test_02_hyperbolic_maximizer(self):
        t0 = time.monotonic()
        rng = np.random.default_rng(102)
        worst_eq = 0.0
        worst_gap = math.inf
        for n in (2, 3):
            space = SpaceSpec(-1, n)
            for r in (0.3, 0.7, 1.2):
                body = make_ball(space, r)
                lhs = busemann_functional(body)
                rhs = rhs_bound("hyperbolic", body)
                worst_eq = max(worst_eq, abs(lhs - rhs) / rhs)
            for _ in range(10):
                body = random_star_body(space, rng)
                lhs = busemann_functional(body)
                rhs = rhs_bound("hyperbolic", body)
                worst_gap = min(worst_gap, (rhs - lhs) / rhs)
        elapsed = time.monotonic() - t0
        report(2, worst_eq <= 1e-6 and worst_gap >= 0.0 and elapsed <= 120.0,
               f"ball equality {worst_eq:.2e} <= 1e-6, 20 random bodies min rel gap "
               f"{worst_gap:+.2e}, {elapsed:.1f}s <= 120s")

    def test_03_g_concavity(self):
        rng = np.random.default_rng(103)
        midpoint_ok = True
        for n in (2, 3, 4, 5):
            a = rng.uniform(1e-4, 8.0, size=1000)
            b = rng.uniform(1e-4, 8.0, size=1000)
            mids = g_hyperbolic(n, (a + b) / 2)
            ends = (g_hyperbolic(n, a) + g_hyperbolic(n, b)) / 2
            midpoint_ok = midpoint_ok and bool(np.all(mids >= ends - 1e-12))
        fd_ok = True
        for n in (2, 3, 4, 5):
            for t in np.linspace(0.03, 6.0, 100):
                h = 1e-4 * max(t, 1.0)
                d2 = (g_hyperbolic(n, t + h) - 2 * g_hyperbolic(n, t)
                      + g_hyperbolic(n, t - h)) / h ** 2
                fd_ok = fd_ok and d2 < 0.0
        report(3, midpoint_ok and fd_ok,
               "midpoint concavity on 1000 pairs and FD second derivative < 0 "
               "at 100 points, n = 2..5")

    def test_04_plane_minimum(self):
        space = SpaceSpec(1, 2)
        worst_eq = 0.0
        for r in (0.2, 0.7, math.pi / 2):
            body = make_ball(space, r)
            lhs = busemann_functional(body)
            rhs = rhs_bound("min2d", body)
            worst_eq = max(worst_eq, abs(lhs - rhs) / max(rhs, 1e-300))
        rng = np.random.default_rng(104)
        worst_gap = math.inf
        for _ in range(20):
            body = random_star_body(space, rng, symmetric=True)
            lhs = busemann_functional(body)
            rhs = rhs_bound("min2d", body)
            worst_gap = min(worst_gap, (lhs - rhs) / rhs)
        report(4, worst_eq <= 1e-8 and worst_gap > 0.0,
               f"ball equality {worst_eq:.2e} <= 1e-8, random bodies strictly above "
               f"(min rel excess {worst_gap:+.2e})")

    def test_05_cone_maximum(self):
        space = SpaceSpec(1, 2)
        rng = np.random.default_rng(105)
        cones = [
            make_cone(space, ArcsBase(((0.0, 2 * math.pi),))),
            make_cone(space, ArcsBase(((0.3, 0.9), (0.3 + math.pi, 0.9 + math.pi)))),
            random_cone_arcs(rng, 1),
            random_cone_arcs(rng, 2),
            random_cone_arcs(rng, 3),
        ]
        worst_eq = 0.0
        for body in cones:
            lhs = busemann_functional(body)
            rhs = math.pi ** 2 * volume(body)
            worst_eq = max(worst_eq, abs(lhs - rhs) / rhs)
        worst_gap = math.inf
        for _ in range(20):
            body = random_star_body(space, rng, symmetric=True)
            lhs = busemann_functional(body)
            rhs = math.pi ** 2 * volume(body)
            worst_gap = min(worst_gap, (rhs - lhs) / rhs)
        report(5, worst_eq <= 1e-8 and worst_gap > 0.0,
               f"cone identity {worst_eq:.2e} <= 1e-8 on 5 bases, random bodies strictly "
               f"below (min rel gap {worst_gap:+.2e})")

    def test_06_lune_maximum(self):
        worst_eq = 0.0
        for w in (0.2, 0.5, 1.0):
            body = make_lune(w)
            lhs = busemann_functional(body)
            rhs = rhs_bound("lune-max", body)
            worst_eq = max(worst_eq, abs(lhs - rhs) / rhs)
        rng = np.random.default_rng(106)
        worst = -math.inf
        for _ in range(20):
            body = random_symmetric_convex_body(rng)
            lhs = busemann_functional(body)
            rhs = rhs_bound("lune-max", body)
            worst = max(worst, (lhs - rhs) / rhs)
        report(6, worst_eq <= 1e-6 and worst <= 1e-6,
               f"lune equality {worst_eq:.2e} <= 1e-6, 20 convex bodies at or below "
               f"the bound (max rel excess {worst:+.2e})")

    def test_07_ball_neither_extremal(self):
        t0 = time.monotonic()
        res2 = perturbation_sign_experiment(3, math.pi / 4, 2)
        res4 = perturbation_sign_experiment(3, math.pi / 4, 4)
        signs_ok = (res2.conclusive and res2.difference > 0 and res2.sign_matches
                    and res4.conclusive and res4.difference < 0 and res4.sign_matches)
        ratio_ok = (abs(res2.ratio - res2.predicted_ratio) <= 0.2 * abs(res2.predicted_ratio)
                    and abs(res4.ratio - res4.predicted_ratio) <= 0.2 * abs(res4.predicted_ratio))
        elapsed = time.monotonic() - t0
        report(7, signs_ok and ratio_ok and elapsed <= 600.0,
               f"k=2 diff {res2.difference:+.2e} (> 0), k=4 diff {res4.difference:+.2e} (< 0), "
               f"ratio errors {abs(res2.ratio / res2.predicted_ratio - 1):.1%} and "
               f"{abs(res4.ratio / res4.predicted_ratio - 1):.1%} <= 20%, {elapsed:.1f}s <= 600s")

    def test_08_sharp_minimum(self):
        rng = np.random.default_rng(108)
        space3 = SpaceSpec(1, 3)
        space4 = SpaceSpec(1, 4)
        bound_ok = True
        for _ in range(20):
            body = random_star_body(space3, rng, symmetric=bool(rng.integers(0, 2)))
            lhs = busemann_functional(body)
            rhs = bound_constants("spherical-min", 3) * volume(body) ** 3
            bound_ok = bound_ok and lhs >= rhs * (1 - 1e-9)
        for _ in range(20):
            body = random_star_body(space4, rng, symmetric=bool(rng.integers(0, 2)))
            lhs = busemann_functional(body)
            rhs = bound_constants("spherical-min", 4) * volume(body) ** 4
            bound_ok = bound_ok and lhs >= rhs * (1 - 1e-9)
        worst_eq = 0.0
        for n, heights in ((3, (0.4, 0.7)), (4, (0.5,))):
            space = SpaceSpec(1, n)
            cn = bound_constants("spherical-min", n)
            for h in heights:
                body = make_cone(space, equality_cone_base(n, h))
                lhs = busemann_functional(body)
                rhs = cn * volume(body) ** n
                worst_eq = max(worst_eq, abs(lhs - rhs) / rhs)
        rows = sharpness_schedule(3, 0.5)
        schedule_ok = abs(rows[-1]["excess"]) <= 0.05 and all(r["excess"] >= -1e-9 for r in rows)
        report(8, bound_ok and worst_eq <= 1e-4 and schedule_ok,
               f"bound holds on 40 random sets (20 per dimension), equality cones "
               f"{worst_eq:.2e} <= 1e-4, schedule final excess {rows[-1]['excess']:+.2%} <= 5%")

    def test_09_vanishing_infimum(self):
        results = []
        for delta in (0, -1):
            body = make_vanishing_body(SpaceSpec(delta, 3), 1.0, 0.01)
            vol = volume(body)
            fn = busemann_functional(body)
            results.append((vol, fn))
        ok = all(abs(v - 1.0) <= 1e-8 and f <= 0.01 for v, f in results)
        report(9, ok, "constructed bodies: " + ", ".join(
            f"vol={v:.10f} functional={f:.2e}" for v, f in results))

    def test_10_gaussian_measure(self):
        mu = gaussian_measure()
        worst_eq = 0.0
        for n in (2, 3):
            space = SpaceSpec(0, n)
            for r in (0.5, 1.0, 2.0):
                body = make_ball(space, r)
                lhs = busemann_functional(body, mu, normalized=True)
                rhs = rhs_bound("gaussian", body, mu)
                worst_eq = max(worst_eq, abs(lhs - rhs) / rhs)
        # erf cross-check of the section measure at n = 2
        erf_err = max(
            abs(section_volume(make_ball(SpaceSpec(0, 2), r), np.array([1.0, 0.0]), mu)
                - math.erf(r / math.sqrt(2)))
            for r in (0.5, 1.0, 2.0)
        )
        rng = np.random.default_rng(110)
        worst_gap = math.inf
        for n in (2, 3):
            space = SpaceSpec(0, n)
            for _ in range(10):
                body = random_star_body(space, rng)
                lhs = busemann_functional(body, mu, normalized=True, config=EUCLID_CFG)
                rhs = rhs_bound("gaussian", body, mu, config=EUCLID_CFG)
                worst_gap = min(worst_gap, (rhs - lhs) / rhs)
        # midpoint concavity of the comparison function on 1000 pairs
        space = SpaceSpec(0, 3)
        hi = psi(mu, space, 3, 2.5)
        a = rng.uniform(1e-6, hi, size=1000)
        b = rng.uniform(1e-6, hi, size=1000)
        conc_ok = all(
            big_psi(mu, space, 3, (x + y) / 2)
            >= (big_psi(mu, space, 3, x) + big_psi(mu, space, 3, y)) / 2 - 1e-11
            for x, y in zip(a, b)
        )
        report(10, worst_eq <= 1e-6 and erf_err <= 1e-10 and worst_gap >= 0.0 and conc_ok,
               f"ball equality {worst_eq:.2e} <= 1e-6, erf cross-check {erf_err:.1e}, "
               f"20 random bodies min rel gap {worst_gap:+.2e}, concavity on 1000 pairs")

    def test_11_harmonic_radon_layer(self):
        worst_mult = 0.0
        for n in (3, 4):
            rng = np.random.default_rng(111 + n)
            for k in range(0, 9, 2):
                rule = build_sphere_rule(n - 2, 2 * k + 12)
                h = zonal_harmonic(n, k, np.eye(n)[-1])
                lam = radon_multiplier(n, k)
                for _ in range(20):
                    xi = rng.normal(size=n)
                    xi /= np.linalg.norm(xi)
                    transform = radon_quadrature(lambda u: h.at(u @ h.axis), rule, xi)
                    worst_mult = max(worst_mult, abs(transform - lam * eval_zonal(h, xi)))
        worst_identity = 0.0
        for n in (3, 4):
            outer = build_sphere_rule(n - 1, 23)
            inner = build_sphere_rule(n - 2, 23)
            s = sphere_surface_area(n - 2)
            rng = np.random.default_rng(211 + n)
            for _ in range(10):
                a = rng.normal(size=n) * 0.7
                g = lambda u: np.exp(u @ a)  # noqa: E731
                lhs = float(np.dot(outer.weights,
                                   [radon_quadrature(g, inner, xi) for xi in outer.nodes]))
                rhs = s * (outer.weights @ g(outer.nodes))
                worst_identity = max(worst_identity, abs(lhs - rhs) / abs(rhs))
        decay_ok = all(
            abs(radon_multiplier(n, k)) > abs(radon_multiplier(n, k + 2))
            for n in (3, 4) for k in range(0, 29, 2)
        )
        report(11, worst_mult <= 1e-6 and worst_identity <= 1e-6 and decay_ok,
               f"multiplier identity {worst_mult:.1e} <= 1e-6, averaging identity "
               f"{worst_identity:.1e} <= 1e-6 relative, strict decay through k = 30")

    def test_12_first_glance_bounds(self):
        rng = np.random.default_rng(112)
        space = SpaceSpec(1, 3)
        ok41p = ok41l = ok42 = True
        for _ in range(20):
            body = random_star_body(space, rng)
            l1 = busemann_functional(body, exponent=1)
            ok41p = ok41p and l1 <= rhs_bound("prop4.1", body, variant="proof-chain") * (1 + 1e-9)
            ok41l = ok41l and l1 <= rhs_bound("prop4.1", body, variant="literal") * (1 + 1e-9)
            ln = busemann_functional(body)
            ok42 = ok42 and ln <= rhs_bound("prop4.2", body) * (1 + 1e-9)
        # empirical resolution of the normalization discrepancy
        ball = make_ball(space, 0.7)
        l1 = busemann_functional(ball, exponent=1)
        sharp_rel = abs(l1 / rhs_bound("prop4.1", ball, variant="proof-chain") - 1.0)
        literal_slack = rhs_bound("prop4.1", ball, variant="literal") / l1 - 1.0
        hemisphere_arg = volume(make_ball(space, math.pi / 2)) / sphere_surface_area(2)
        literal_overflows = hemisphere_arg > f_spherical_limit(3)
        resolved = sharp_rel <= 1e-8 and literal_slack > 0.1 and literal_overflows
        report(12, ok41p and ok41l and ok42 and resolved,
               "both first-power bounds and the power-n bound hold on 20 bodies; "
               f"normalization resolved: the derivation's argument vol/(2^n |S^{{n-1}}|) is "
               f"sharp at balls (rel {sharp_rel:.1e}) while the literal vol/|S^{{n-1}}| "
               f"is slack (+{literal_slack:.0%}) and overflows the comparison function's "
               f"domain for large bodies")
