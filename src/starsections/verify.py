"""Theorem-level verification harness.

Runs inequality suites over constructed and random bodies, the
ball-perturbation sign experiment, the striped-cone sharpness schedule, and a
volume-preserving local shape search.  All verdicts are numerical, with the
tolerance pinned per theorem.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from itertools import chain

import numpy as np

from .bodies import (
    FORMAT_VERSION,
    ArcsBase,
    StarBody,
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
    perturbation_norms,
)
from .errors import ApplicabilityError, DomainError, RadiusRangeError
from .functionals import (
    InequalityReport,
    QuadratureConfig,
    RadialDensityMeasure,
    bound_constants,
    busemann_functional,
    busemann_functional_with_error,
    get_theorem,
    volume,
    volume_and_functional,
)
from .harmonics import radon_multiplier
from .spaces import (
    HEMISPHERE_MAX_RADIUS,
    SpaceSpec,
    brent_root,
    phi,
    phi_inverse,
    sphere_surface_area,
)

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# expansion constants of the ball functional


def _ball_section(n: int, r: float) -> float:
    """The section volume of the ball of radius r on s+:n, for the expansion
    constants: DomainError unless n >= 3 and r lies in (0, pi/2)."""
    if n < 3:
        raise DomainError("the expansion needs n >= 3")
    if not 0.0 < r < HEMISPHERE_MAX_RADIUS:
        raise DomainError("r must lie in (0, pi/2)")
    return sphere_surface_area(n - 2) * phi(SpaceSpec(1, n), n - 1, r)


def c_chain(n: int, r: float):
    """The coefficient chain (c0..c4) of the second-order ball expansion."""
    section = _ball_section(n, r)
    c0 = (n - 1) / (2.0 * math.tan(r))
    c1 = math.sin(r) ** (n - 2)
    c2 = (n - 2) / (2.0 * math.tan(r))
    c3 = n * section ** (n - 1)
    c4 = n * (n - 1) / 2.0 * section ** (n - 2)
    return c0, c1, c2, c3, c4


def c5_constant(n: int, r: float) -> float:
    """c5 = |S^{n-2}| vol(B cut xi) / ((n-1) tan r sin^{n-2} r).

    Always strictly below |S^{n-2}|^2 / (n-1)^2, which is what separates the
    degree-2 harmonic from all higher ones in the sign experiment.
    """
    section = _ball_section(n, r)
    return sphere_surface_area(n - 2) * section / ((n - 1) * math.tan(r) * math.sin(r) ** (n - 2))


# ---------------------------------------------------------------------------
# random test bodies


def random_star_body(space: SpaceSpec, rng: np.random.Generator, symmetric: bool = False) -> StarBody:
    """Smooth random body: a ball of radius in [0.5, 1.1] plus 2-4 zonal bumps
    of amplitude up to a quarter of it, clipped to the space range."""
    n = space.dim
    base_radius = rng.uniform(0.5, 1.1)
    nb = int(rng.integers(2, 5))
    centers = rng.normal(size=(nb, n))
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    amps = rng.uniform(-0.25, 0.25, size=nb) * base_radius
    sharp = rng.uniform(2.0, 6.0, size=nb)
    return make_bumpy_ball(space, base_radius, centers, amps, sharp, symmetric=symmetric)


def random_ellipsoid(n: int, rng: np.random.Generator) -> StarBody:
    return make_ellipsoid(rng.uniform(0.7, 1.4, size=n))


def random_symmetric_convex_body(rng: np.random.Generator) -> StarBody:
    """Random origin-symmetric convex body on the 2-hemisphere (gnomonic strips)."""
    k = int(rng.integers(2, 5))
    angles = np.sort(rng.uniform(0.0, math.pi, size=k))
    offsets = rng.uniform(0.4, 2.0, size=k)
    return make_symmetric_polygon_body(offsets, angles)


def random_cone_arcs(rng: np.random.Generator, pairs: int = 2) -> StarBody:
    """Random origin-symmetric cone in the 2-hemisphere over arc pairs."""
    space = SpaceSpec(1, 2)
    slot = math.pi / pairs
    arcs = []
    for i in range(pairs):
        width = rng.uniform(0.25, 0.75) * slot
        start = i * slot + rng.uniform(0.0, slot - width)
        arcs.append((start, start + width))
        arcs.append((start + math.pi, start + width + math.pi))
    return make_cone(space, ArcsBase(tuple(arcs)))


# ---------------------------------------------------------------------------
# theorem suites


def _body_reports(theorem, body, mu, config) -> list[InequalityReport]:
    """One report per variant; the left side does not depend on the variant.
    The bound's volume and the functional are in the same measure, so one
    ``volume_and_functional`` call gives both."""
    theorem.check(body)
    vol, functional = volume_and_functional(body, mu, theorem.normalized, theorem.exponent, config)
    bounds = theorem.bound(vol, body.space, mu)
    reports = []
    for variant, bound in zip(theorem.variants, bounds):
        lhs, rhs = (bound, functional) if theorem.lower else (functional, bound)
        reports.append(InequalityReport(
            theorem_id=theorem.id, lhs=lhs, rhs=rhs,
            tolerance=theorem.rel_tol * max(abs(lhs), abs(rhs)),
            quadrature=config.describe(body.space.dim),
            body_kind=body.profile.kind,
            variant=variant if len(theorem.variants) > 1 else ""))
    return reports


def run_theorem_suite(theorem_id: str, bodies, mu: RadialDensityMeasure | None = None,
                      config: QuadratureConfig | None = None):
    """One report per body and variant; the suite passes iff every report passes.

    ``prop4.1`` has two variants of the closed-form bound: the statement and
    its derivation disagree by a factor 2^n inside the argument; both are
    checked and the sharp one is flagged by the equality cases.  Both sides
    are in the measure that ``Theorem.measure_for(mu)`` gives: only
    ``gaussian`` takes a mu.  A body outside the theorem's hypotheses, or a
    measure it is not stated in, raises ApplicabilityError.
    """
    theorem = get_theorem(theorem_id)
    config = config if config is not None else theorem.config
    mu = theorem.measure_for(mu)
    return [report for body in bodies for report in _body_reports(theorem, body, mu, config)]


_HEMISPHERE_BODIES = (3, lambda n, rng, count: chain(
    (make_ball(SpaceSpec(1, n), r) for r in (0.7,)),
    (random_star_body(SpaceSpec(1, n), rng) for _ in range(count))))

# theorem id -> (default n, factory(n, rng, random_count)): a generator of the
# equality cases, then the random bodies, each built as it is drawn
_SUITE_BODIES = {
    "min2d": (2, lambda n, rng, count: chain(
        (make_ball(SpaceSpec(1, 2), r) for r in (0.2, 0.7, HEMISPHERE_MAX_RADIUS)),
        (random_star_body(SpaceSpec(1, 2), rng, symmetric=True) for _ in range(count)))),
    "cone-max": (2, lambda n, rng, count: chain(
        (make_cone(SpaceSpec(1, 2), ArcsBase(arcs))
         for arcs in (((0.0, TWO_PI),), ((0.2, 1.1), (0.2 + math.pi, 1.1 + math.pi)))),
        (random_cone_arcs(rng, pairs=p) for p in (1, 2, 3)),
        (random_star_body(SpaceSpec(1, 2), rng, symmetric=True) for _ in range(count)))),
    "lune-max": (2, lambda n, rng, count: chain(
        (make_lune(w) for w in (0.2, 0.5, 1.0)),
        (random_symmetric_convex_body(rng) for _ in range(count)))),
    "hyperbolic": (3, lambda n, rng, count: chain(
        (make_ball(SpaceSpec(-1, n), r) for r in (0.3, 0.7, 1.2)),
        (random_star_body(SpaceSpec(-1, n), rng) for _ in range(count)))),
    "min-nd": (3, lambda n, rng, count: chain(
        (make_cone(SpaceSpec(1, n), equality_cone_base(n, h) if h else full_sphere_base(n))
         for h in (0.4, 0.7, None)),
        (random_star_body(SpaceSpec(1, n), rng, symmetric=bool(rng.integers(0, 2)))
         for _ in range(count)))),
    "gaussian": (3, lambda n, rng, count: chain(
        (make_ball(SpaceSpec(0, n), r) for r in (0.5, 1.0, 2.0)),
        (random_star_body(SpaceSpec(0, n), rng) for _ in range(count)))),
    "prop4.1": _HEMISPHERE_BODIES,
    "prop4.2": _HEMISPHERE_BODIES,
    "busemann-euclidean": (3, lambda n, rng, count: chain(
        (make_ball(SpaceSpec(0, n), r) for r in (1.0,)),
        (random_ellipsoid(n, rng) for _ in range(max(1, count // 2))),
        (random_star_body(SpaceSpec(0, n), rng) for _ in range(count)))),
}


def suite_bodies(theorem_id: str, dim: int | None = None, random_count: int = 0,
                 seed: int = 0):
    """An iterator of the equality-case bodies, then the random bodies, of a
    named theorem suite, each built as it is drawn; ApplicabilityError at
    once for a dimension the theorem does not take."""
    theorem = get_theorem(theorem_id)
    default_dim, factory = _SUITE_BODIES[theorem_id]
    n = default_dim if dim is None else dim
    if n not in theorem.dims:
        raise ApplicabilityError(f"theorem {theorem_id!r} does not apply to n = {n}")
    return factory(n, np.random.default_rng(seed), random_count)


# ---------------------------------------------------------------------------
# the ball-perturbation sign experiment


@dataclass(frozen=True)
class PerturbationResult:
    """Outcome of the sign experiment at one (n, r, k)."""

    n: int
    r: float
    k: int
    beta: float
    delta_norm: float
    eps_norm: float
    lhs_K: float
    lhs_B: float
    difference: float
    error_estimate: float
    c5: float
    lambda_k: float
    predicted_sign: int
    observed_sign: int
    conclusive: bool
    ratio: float               # difference / delta_norm^2
    predicted_ratio: float     # c1^2 c4 (lambda_k^2 - c5)
    rows: tuple = ()

    @property
    def sign_matches(self) -> bool:
        return self.conclusive and self.observed_sign == self.predicted_sign

    def to_json_dict(self) -> dict:
        """Every field in its order, after the format version; rows as lists."""
        doc = {"format_version": FORMAT_VERSION, **{f.name: getattr(self, f.name) for f in fields(self)}}
        doc["rows"] = [list(row) for row in self.rows]
        return doc


def perturbation_sign_experiment(n: int, r: float, k: int, betas=None) -> PerturbationResult:
    """Compare the functional of a volume-matched harmonic perturbation against
    the ball, over a decreasing beta schedule.

    The reported sign comes from the smallest beta whose difference clears ten
    times the quadrature error estimate; an inconclusive run is reported as
    such, never silently passed.  A beta so large that the perturbation would
    leave the open radius range is skipped; RadiusRangeError is raised only
    when no beta of the schedule fits.  beta = 0, the ball itself, is refused.
    """
    if betas is None:
        betas = (0.08, 0.04, 0.02)
    betas = tuple(sorted(betas, reverse=True))
    if 0.0 in betas:
        raise DomainError("beta = 0 is the ball itself; every beta must be nonzero")
    space = SpaceSpec(1, n)
    degree = max(31, n * k + 14)
    config = QuadratureConfig(outer_degree=degree, inner_degree=degree)
    ball = make_ball(space, r)
    lhs_B, err_B = busemann_functional_with_error(ball, config=config)

    c0, c1, c2, c3, c4 = c_chain(n, r)
    c5 = c5_constant(n, r)
    lam = radon_multiplier(n, k)
    predicted = int(np.sign(lam ** 2 - c5))
    predicted_ratio = c1 ** 2 * c4 * (lam ** 2 - c5)

    rows = []
    chosen = None
    for beta in betas:
        try:
            body = make_perturbed_ball(space, r, beta, k)
        except RadiusRangeError:
            continue   # this beta is too large for r; a smaller one may fit
        lhs_K, err_K = busemann_functional_with_error(body, config=config)
        delta_norm, eps_norm = perturbation_norms(body)
        diff = lhs_K - lhs_B
        err = err_K + err_B
        conclusive = abs(diff) > 10.0 * err
        rows.append((beta, delta_norm, eps_norm, lhs_K, lhs_B, diff, err, conclusive))
        if conclusive:
            chosen = rows[-1]
    if not rows:
        raise RadiusRangeError(f"perturbation leaves the open radius range (0, pi/2) "
                               f"at every beta of {betas}")
    conclusive = chosen is not None
    # without a conclusive row, report the smallest beta's, flagged
    beta, delta_norm, eps_norm, lhs_K, lhs_Bv, diff, err, _ = chosen if conclusive else rows[-1]
    return PerturbationResult(
        n=n, r=r, k=k, beta=beta, delta_norm=delta_norm, eps_norm=eps_norm,
        lhs_K=lhs_K, lhs_B=lhs_Bv, difference=diff, error_estimate=err, c5=c5, lambda_k=lam,
        predicted_sign=predicted, observed_sign=int(np.sign(diff)), conclusive=conclusive,
        ratio=diff / delta_norm ** 2, predicted_ratio=predicted_ratio, rows=tuple(rows))


# ---------------------------------------------------------------------------
# striped-cone sharpness schedule


def sharpness_schedule(n: int, t: float, alphas=None, epsilons=None):
    """Normalized functional of striped cones along a decreasing (alpha, eps)
    schedule; approaches the sharp minimum constant from above."""
    if alphas is None:
        alphas = (0.4, 0.2, 0.1, 0.05)
    if epsilons is None:
        epsilons = (0.2, 0.1, 0.05, 0.02)
    if len(alphas) != len(epsilons):
        raise DomainError("alpha and eps schedules must have equal length")
    space = SpaceSpec(1, n)
    cn = bound_constants("spherical-min", n)
    rows = []
    for alpha, eps in zip(alphas, epsilons):
        body = make_striped_cone(space, t, alpha, eps)
        vol = volume(body)
        functional = busemann_functional(body)
        normalized = functional / vol ** n
        rows.append({
            "alpha": alpha,
            "eps": eps,
            "volume": vol,
            "functional": functional,
            "normalized": normalized,
            "target": cn,
            "excess": normalized / cn - 1.0,
        })
    return rows


# ---------------------------------------------------------------------------
# volume-preserving extremizer search


# The search's profiles are linear in the angle between nodes v_k, so the
# boundary turns convexly at node k only when v_{k-1} + v_{k+1} <= 2 v_k, in
# every space.  These second differences sum to 0 around the cycle, so a
# convex profile of the class is constant: the ball.  No convex class is
# offered.
SEARCH_CLASSES = ("star", "sym-star")


@dataclass
class SearchTrace:
    """Record of a local search run.

    ``steps`` holds one (iteration, objective, volume_drift) triple per
    accepted move.
    """

    steps: list = field(default_factory=list)
    best_objective: float = 0.0
    best_values: np.ndarray | None = None
    accepted: int = 0
    evaluations: int = 0


def _segment_volumes(space, a, b, h):
    """Volumes of the sectors of angle h whose radius runs linearly in angle
    from a to b.  On the hemisphere this is h (1 - (sin b - sin a)/(b - a)),
    written as h (1 - cos m sin d / d) with m = (a+b)/2, d = (b-a)/2, which
    keeps every digit when a and b nearly agree; cosh and sinh in the
    hyperbolic plane."""
    if space.delta == 0:
        return h * (a * a + a * b + b * b) / 6.0
    cos, sin = (np.cos, np.sin) if space.delta == 1 else (np.cosh, np.sinh)
    m = 0.5 * (a + b)
    d = np.maximum(0.5 * np.abs(b - a), 1e-300)   # sin d / d is even, and 1 at the floor
    return space.delta * h * (1.0 - cos(m) * (sin(d) / d))


def _segment_volume(delta: int, a: float, b: float, h: float) -> float:
    """One sector of ``_segment_volumes``, for floats a and b, written with
    ``math``: the moves of the shape search take it on the few segments they
    touch, and ``_plane_volume`` checks their sum with the array form."""
    if delta == 0:
        return h * (a * a + a * b + b * b) / 6.0
    m, d = 0.5 * (a + b), 0.5 * abs(b - a)
    if delta == 1:
        return h * (1.0 - math.cos(m) * (math.sin(d) / d if d > 0.0 else 1.0))
    return h * (math.cosh(m) * (math.sinh(d) / d if d > 0.0 else 1.0) - 1.0)


def _plane_volume(space, values):
    """Exact volume of the piecewise-linear-in-angle profile."""
    nxt = np.concatenate([values[1:], values[:1]])
    return float(_segment_volumes(space, values, nxt, TWO_PI / len(values)).sum())


def _plane_objective(values):
    """Exact section-square integral of the piecewise-linear profile (n = 2)."""
    half = len(values) // 2
    a = values + np.concatenate([values[half:], values[:half]])
    b = np.concatenate([a[1:], a[:1]])
    h = TWO_PI / len(values)
    seg = (a ** 2 + a * b + b ** 2) / 3.0
    return float(h * np.sum(seg))


def _objective_change(old, new, moved):
    """``_plane_objective(new) - _plane_objective(old)`` for two profiles (lists
    of floats) that differ only at the nodes ``moved``, from the terms of the
    section sum that touch them.  The sum runs over a_k = v_k + v_{k + nodes/2},
    which has period nodes/2, so it counts each of its segments twice."""
    nodes = len(old)
    half = nodes // 2
    change = 0.0
    for k in {(m - d) % half for m in moved for d in (0, 1)}:
        nxt = (k + 1) % half
        p, q = old[k] + old[k + half], old[nxt] + old[nxt + half]
        r, s = new[k] + new[k + half], new[nxt] + new[nxt + half]
        change += (r * r + r * s + s * s) - (p * p + p * q + q * q)
    return 2.0 * TWO_PI / nodes * change / 3.0


def _orbit(k: int, nodes: int, symmetric: bool) -> tuple:
    """Node k, with its antipode when the class is symmetric."""
    return (k, (k + nodes // 2) % nodes) if symmetric else (k,)


def _volume_move(space, values, i, j, mag, symmetric, lo, hi):
    """Raise node i (with its antipode when symmetric) by mag, clipped at hi,
    and lower node j (with its antipode) to the root in [lo, values[j]] that
    keeps the volume of the segments touching the moved nodes.  None when j
    lies in i's orbit or even lo cannot absorb the raise.

    ``values`` is a list of floats, equal at antipodes when symmetric, and so
    is the new profile returned.  A symmetric move changes two equal copies
    of each segment it touches, so the copies at node i and node j decide the
    root alone.  Segment k joins nodes k and k + 1.  Those at node i that
    touch no lowered node are summed once, before the root solve; the root's
    function adds only the 2 segments that join node j to its neighbours."""
    nodes = len(values)
    up, down = _orbit(i, nodes, symmetric), _orbit(j, nodes, symmetric)
    if j in up:
        return None
    delta, h = space.delta, TWO_PI / nodes
    cand = list(values)
    for k in up:
        cand[k] = min(hi, values[i] + mag)
    lowered = {(k - d) % nodes for k in down for d in (0, 1)}
    fixed = 0.0
    for k in ((i - 1) % nodes, i):
        if k not in lowered:
            nxt = (k + 1) % nodes
            fixed += (_segment_volume(delta, cand[k], cand[nxt], h)
                      - _segment_volume(delta, values[k], values[nxt], h))
    left, right = (j - 1) % nodes, (j + 1) % nodes
    a, b = cand[left], cand[right]
    before = (_segment_volume(delta, values[left], values[j], h)
              + _segment_volume(delta, values[right], values[j], h))

    def excess(x):   # exactly 0 at x = values[j] when the raise is clipped to 0
        return fixed + ((_segment_volume(delta, a, x, h) + _segment_volume(delta, b, x, h)) - before)

    try:  # tolerances at roundoff, so that the volume is kept to roundoff
        root = brent_root(excess, lo, values[j], xtol=1e-15, rtol=1e-15)
    except ValueError:  # no sign change: even lo cannot absorb the raise
        return None
    for k in down:
        cand[k] = root
    return cand


def extremizer_search(space: SpaceSpec, body_class: str, volume_target: float,
                      sense: str = "max", budget: int = 4000, seed: int = 0) -> SearchTrace:
    """Volume-preserving local search over grid profiles in the plane (n = 2).

    The start is the ball of the target volume on a grid of 64 nodes,
    perturbed by 64 warm-up moves of magnitude 0.2 r0.  A move raises one node
    (and its antipode when the class is symmetric) and lowers another (and its
    antipode) to the root that keeps the exact piecewise-linear volume of the
    touched segments, so the volume holds to roundoff by construction.  Each
    candidate's whole volume is checked again, and ``evaluations`` counts the
    candidates that pass.  A candidate is scored by the objective's change
    over the segments it touches; the whole objective is recomputed for an
    accepted step alone, so each one in the trace is a full recomputation.
    Moves too large to absorb count as rejected when the step size adapts.
    The body class is one of ``SEARCH_CLASSES``.  Claims nothing beyond the
    best profile found; the trace replays deterministically from the seed.
    """
    if space.dim != 2:
        raise ApplicabilityError("the shape search operates on plane profiles (dim = 2)")
    if body_class not in SEARCH_CLASSES:
        raise DomainError(f"unknown body class {body_class!r}")
    if sense not in ("max", "min"):
        raise DomainError("sense must be 'max' or 'min'")
    hi = HEMISPHERE_MAX_RADIUS - 1e-9 if space.delta == 1 else 50.0
    lo = 1e-6
    vmax = TWO_PI * phi(space, 2, hi)
    if not 0.0 < volume_target < vmax:
        raise DomainError(f"the volume must lie in (0, {vmax!r})")
    if budget < 0:
        raise DomainError("the budget must be >= 0")

    rng = np.random.default_rng(seed)
    symmetric = body_class.startswith("sym")

    nodes, step = 64, 0.2   # even, so that every node has its antipode
    r0 = phi_inverse(space, 2, volume_target / TWO_PI)
    values = [r0] * nodes   # floats, which the moves read and write one at a time
    for _ in range(nodes):
        i, j = rng.integers(0, nodes, size=2).tolist()
        cand = _volume_move(space, values, i, j, 0.2 * r0, symmetric, lo, hi)
        if cand is not None:
            values = cand

    sign = 1.0 if sense == "max" else -1.0
    profile = np.array(values)
    trace = SearchTrace(best_objective=_plane_objective(profile), best_values=profile)

    eta = step
    recent = []
    for it in range(budget):
        if len(recent) >= 250:
            if sum(recent) < 8:
                eta = max(eta * 0.5, 1e-4)
            recent = []
        i, j = rng.integers(0, nodes, size=2).tolist()
        if i == j:
            continue
        mag = eta * rng.uniform(0.2, 1.0)
        cand = _volume_move(space, values, i, j, mag, symmetric, lo, hi)
        if cand is None:  # j in i's orbit, or a raise too large to absorb
            recent.append(0)
            continue
        # the whole volume, checked independently of the move's own segments
        profile = np.array(cand)
        drift = abs(_plane_volume(space, profile) - volume_target) / volume_target
        if drift > 1e-8:
            continue
        trace.evaluations += 1
        moved = _orbit(i, nodes, symmetric) + _orbit(j, nodes, symmetric)
        accept = sign * _objective_change(values, cand, moved) > 0
        recent.append(int(accept))
        if accept:
            values = cand
            objective = _plane_objective(profile)
            trace.accepted += 1
            trace.steps.append((it, objective, drift))
            if sign * (objective - trace.best_objective) > 0:
                trace.best_objective = objective
                trace.best_values = profile.copy()
    return trace
