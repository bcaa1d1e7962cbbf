"""Print every left side, volume, section volume and error estimate over a
fixed set of bodies, one ``label repr(value)`` line each.

    python3 tools/dump_outputs.py > outputs.txt

Run it in two checkouts and compare the two files with ``cmp``: a change
that must keep every number bit for bit shows no difference.  For a change
that may move numbers within their tolerances, ``tools/compare_outputs.py
OLD NEW`` prints how far each group moved.  The set is

* the nine theorem suites at dim None, 2, 3 and 4 (where the theorem
  applies), seed 11: every report's two sides and every body's volume and
  symmetry flag.  At n = 4 the suites run at the default degrees, because
  their own degrees (31/63, 39/63) would add about 7 s, most of it the
  Gaussian suite's density integrals;
* the rows of three perturbation sign experiments;
* both striped-cone sharpness schedules (n = 3 and n = 4, t = 0.5);
* the vanishing bodies in R^3 and H^3;
* three cones whose band sums run in windows: striped cones at n = 5 and
  n = 6 (t = 0.3, alpha = 0.05, eps = 0.02; 3,934 and 6,058 bands, sections
  at q = 1/2 and q = 1) and the unmirrored cone over one striped cap subset
  at n = 3 (alpha = 0.1, lam = 0.5, eps = 0.05; 32,170 bands): volume,
  functional and five section volumes;
* bodies on each evaluation path (arcs, indicator, plane, zonal, product),
  each with the uniform and the Gaussian measure and with the default
  config, ``plane_adaptive=False`` and degree 31: the symmetry flag, and
  volume, functional, normalized first power, functional with error (plain
  and normalized) and three section volumes.  A perturbed ball and a cap
  cone about a seeded random unit axis show how the zonal and indicator
  paths form c = <xi, axis>, which every coordinate axis gives exactly;
* a symmetric bumpy body of two bumps and their mirrors, whose pairs rho
  sums as one cosh each, on the product path: on s+:4 with the uniform
  measure at the default degrees, and on h:3 with the Gaussian at degrees
  39/63 (the density integrals in blocks): the symmetry flag, volume,
  functional and three section volumes;
* the radial primitives alone: the Gaussian ``radial_integral`` on h:3, h:5
  and s+:4 for m = 2, 3, 5 at radii on and next to the density panels' edges
  (and 7.5 on h), and phi_m on the hemisphere for m = 1..6;
* the scalar radial paths, a float in and a float out: phi_m on h and e for
  m = 1..8, phi_inverse on all three spaces, the sphere's sine-power
  primitive past pi/2, and the ``hyperbolic`` and ``prop4.1`` right sides at
  three volumes for n = 3, 4, 5;
* four 1000-step shape searches: on s+:2 at volume 2, seed 5, the
  ``sym-star`` and ``star`` maxima and the ``sym-star`` minimum, and on h:2
  the ``sym-star`` maximum at volume 2 pi 0.3, seed 1: the accepted and
  evaluated counts and the best objective.

The first lines, which begin with ``#``, name the numeric environment:
numpy's SIMD baseline and the dispatched SIMD targets this CPU enables, and
the OpenBLAS core type (``unknown`` where it cannot be read).  A dump from
another CPU kernel may differ in roundoff alone; ``compare_outputs.py`` says
so when the headers differ.

It takes a few seconds and has no options.
"""

from __future__ import annotations

import ctypes
import math
import re
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from starsections import (  # noqa: E402
    ArcsBase,
    QuadratureConfig,
    SpaceSpec,
    busemann_functional,
    body_from_json_dict,
    busemann_functional_with_error,
    cap_base,
    equality_cone_base,
    gaussian_measure,
    make_ball,
    make_bumpy_ball,
    make_cone,
    make_ellipsoid,
    make_lune,
    make_perturbed_ball,
    make_striped_cone,
    make_vanishing_body,
    perturbation_sign_experiment,
    phi,
    phi_inverse,
    run_theorem_suite,
    section_volume,
    sharpness_schedule,
    striped_cap_subset,
    volume,
)
from starsections.errors import ApplicabilityError  # noqa: E402
from starsections.spaces import sin_power_primitive_full  # noqa: E402
from starsections.verify import THEOREMS, extremizer_search, suite_bodies  # noqa: E402


def out(label, value):
    print(label, repr(value))


def openblas_core() -> str:
    """The core type of the OpenBLAS that numpy loaded, read through the
    library's own ``*openblas_get_corename*`` entry point; ``unknown`` when no
    such library or symbol is found."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)", fh.read())))
        for path in paths:
            lib = ctypes.CDLL(path)
            for name in ("scipy_openblas_get_corename64_", "openblas_get_corename64_",
                         "openblas_get_corename"):
                get = getattr(lib, name, None)
                if get is not None:
                    get.restype = ctypes.c_char_p
                    return get().decode()
    except OSError:
        pass
    return "unknown"


def environment():
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:   # numpy < 2
        from numpy.core import _multiarray_umath as umath
    enabled = umath.__cpu_features__
    print("# numpy", np.__version__)
    print("# numpy cpu baseline:", " ".join(umath.__cpu_baseline__) or "none")
    print("# numpy cpu dispatch:",
          " ".join(f for f in umath.__cpu_dispatch__ if enabled.get(f)) or "none")
    print("# openblas core:", openblas_core())


def suites():
    for theorem in THEOREMS.values():
        for dim in (None, 2, 3, 4):
            try:
                bodies = list(suite_bodies(theorem.id, dim, random_count=2, seed=11))
            except ApplicabilityError:
                continue
            config = QuadratureConfig() if dim == 4 else theorem.config
            mu = theorem.measure() if theorem.measure is not None else None
            reports = run_theorem_suite(theorem.id, bodies, mu, config)
            for i, report in enumerate(reports):
                out(f"suite/{theorem.id}/{dim}/{i}/{report.variant}/lhs", report.lhs)
                out(f"suite/{theorem.id}/{dim}/{i}/{report.variant}/rhs", report.rhs)
            for i, body in enumerate(bodies):
                out(f"suite/{theorem.id}/{dim}/{i}/volume", volume(body, mu, config))
                out(f"suite/{theorem.id}/{dim}/{i}/symmetric", body.symmetric)


def perturbations():
    for n, r, k in ((3, 0.8, 2), (3, 0.8, 4), (4, 0.8, 2)):
        result = perturbation_sign_experiment(n, r, k)
        for i, row in enumerate(result.rows):
            for j, value in enumerate(row):
                out(f"perturbation/{n}/{r}/{k}/{i}/{j}", value)


def schedules():
    for n in (3, 4):
        for i, row in enumerate(sharpness_schedule(n, 0.5)):
            for key in ("volume", "functional", "excess"):
                out(f"schedule/{n}/{i}/{key}", row[key])


def vanishing():
    for space in (SpaceSpec(0, 3), SpaceSpec(-1, 3)):
        body = make_vanishing_body(space, 1.0, 0.4)
        label = f"vanishing/{space.delta:+d}"
        out(f"{label}/height", body.profile.height)
        out(f"{label}/bands", len(body.profile.base))
        out(f"{label}/volume", volume(body))
        out(f"{label}/functional", busemann_functional(body))


def windowed():
    bodies = {f"striped/{n}": make_striped_cone(SpaceSpec(1, n), 0.3, 0.05, 0.02) for n in (5, 6)}
    bodies["unmirrored/3"] = make_cone(SpaceSpec(1, 3), striped_cap_subset(0.1, np.eye(3)[0], 0.5, 0.05))
    for name, body in bodies.items():
        n = body.space.dim
        label = f"windowed/{name}"
        out(f"{label}/bands", len(body.profile.base))
        out(f"{label}/volume", volume(body))
        out(f"{label}/functional", busemann_functional(body))
        # the axis (no window), the last axis (s = 1), an oblique normal, and
        # two normals whose windows end inside the cap
        oblique = np.arange(1.0, n + 1.0) / np.linalg.norm(np.arange(1.0, n + 1.0))
        xis = [np.eye(n)[0], np.eye(n)[-1], oblique]
        xis += [math.sqrt(1.0 - s * s) * np.eye(n)[0] + s * np.eye(n)[1] for s in (0.3, 0.7)]
        for i, xi in enumerate(xis):
            out(f"{label}/section/{i}", section_volume(body, xi))


def path_bodies():
    s2, s3 = SpaceSpec(1, 2), SpaceSpec(1, 3)
    # an axis off every coordinate axis, where <u, axis> of a built direction
    # u need not round to the c it was built from
    tilted = np.random.default_rng(5).normal(size=3)
    tilted /= np.linalg.norm(tilted)
    zonal = make_perturbed_ball(s3, 0.8, 0.08, 4).to_json_dict()
    zonal["profile"]["axis"] = tilted.tolist()
    return {
        "arcs": make_cone(s2, ArcsBase(((0.2, 1.1), (0.2 + math.pi, 1.1 + math.pi)))),
        "indicator": make_cone(s3, equality_cone_base(3, 0.4)),
        "indicator-striped": make_striped_cone(s3, 0.5, 0.4, 0.2),
        "plane": make_bumpy_ball(s2, 0.8, [[0.6, 0.8]], [0.2], [3.0]),
        "plane-lune": make_lune(0.5),
        "zonal": make_perturbed_ball(s3, 0.8, 0.08, 4),
        "zonal-euclidean": make_ball(SpaceSpec(0, 3), 0.9),
        "zonal-tilted": body_from_json_dict(zonal),
        "indicator-tilted": make_cone(s3, cap_base(tilted, 0.3)),
        "product": make_bumpy_ball(s3, 0.8, [[0.0, 0.0, 1.0]], [0.2], [3.0]),
        "product-ellipsoid": make_ellipsoid([0.8, 1.0, 1.2]),
    }


def paths():
    configs = {
        "default": QuadratureConfig(),
        "rule": QuadratureConfig(plane_adaptive=False),
        "degree31": QuadratureConfig(outer_degree=31, inner_degree=31),
    }
    for name, body in path_bodies().items():
        n = body.space.dim
        oblique = np.arange(1.0, n + 1.0) / np.linalg.norm(np.arange(1.0, n + 1.0))
        xis = (np.eye(n)[0], np.eye(n)[-1], oblique)
        out(f"path/{name}/symmetric", body.symmetric)
        for mu_name, mu in (("uniform", None), ("gaussian", gaussian_measure())):
            for config_name, config in configs.items():
                label = f"path/{name}/{mu_name}/{config_name}"
                out(f"{label}/volume", volume(body, mu, config))
                out(f"{label}/functional", busemann_functional(body, mu, config=config))
                out(f"{label}/normalized-first", busemann_functional(
                    body, mu, normalized=True, exponent=1, config=config))
                value, error = busemann_functional_with_error(body, mu, config=config)
                out(f"{label}/with-error/value", value)
                out(f"{label}/with-error/error", error)
                value, error = busemann_functional_with_error(body, mu, normalized=True, config=config)
                out(f"{label}/normalized-with-error/value", value)
                out(f"{label}/normalized-with-error/error", error)
                for i, xi in enumerate(xis):
                    out(f"{label}/section/{i}", section_volume(body, xi, mu, config))


def product_pairs():
    runs = (("+1:4/uniform/default", SpaceSpec(1, 4), None, QuadratureConfig()),
            ("-1:3/gaussian/39-63", SpaceSpec(-1, 3), gaussian_measure(),
             QuadratureConfig(outer_degree=39, inner_degree=63)))
    for name, space, mu, config in runs:
        n = space.dim
        oblique = np.arange(1.0, n + 1.0) / np.linalg.norm(np.arange(1.0, n + 1.0))
        centers = np.array([np.eye(n)[-1], oblique])
        body = make_bumpy_ball(space, 0.8, centers, [0.15, -0.1], [3.0, 5.0], symmetric=True)
        label = f"path/product-pairs/{name}"
        out(f"{label}/symmetric", body.symmetric)
        out(f"{label}/volume", volume(body, mu, config))
        out(f"{label}/functional", busemann_functional(body, mu, config=config))
        for i, xi in enumerate((np.eye(n)[0], np.eye(n)[-1], oblique)):
            out(f"{label}/section/{i}", section_volume(body, xi, mu, config))


def radial():
    mu = gaussian_measure()
    for delta, n in ((-1, 3), (-1, 5), (1, 4)):
        radii = [1e-4, 0.3, 0.5, 0.5000000000000001, 1.2] + ([7.5] if delta == -1 else [])
        for m in (2, 3, 5):
            values = mu.radial_integral(SpaceSpec(delta, n), m, np.array(radii))
            for u, value in zip(radii, values):
                out(f"radial/gaussian/{delta:+d}:{n}/{m}/{u!r}", float(value))
    for m in range(1, 7):
        for x in (1e-3, 0.7, 1.5):
            out(f"radial/phi/+1/{m}/{x!r}", phi(SpaceSpec(1, max(m, 2)), m, x))
    # the scalar paths, one float in and one float out
    for delta in (-1, 0):
        for m in range(1, 9):
            for x in (1e-3, 0.7, 1.5, 7.5):
                out(f"radial/phi/{delta:+d}/{m}/{x!r}", phi(SpaceSpec(delta, max(m, 2)), m, x))
    for delta in (-1, 0, 1):
        for m in (2, 3, 5):
            for y in (1e-6, 0.3, 0.5):
                out(f"radial/phi-inverse/{delta:+d}/{m}/{y!r}", phi_inverse(SpaceSpec(delta, m), m, y))
    for m in range(1, 9):
        for x in (2.0, 3.0, math.pi):
            out(f"radial/sin-power-full/{m}/{x!r}", sin_power_primitive_full(m, x))
    for theorem_id, delta, volumes in (("hyperbolic", -1, (0.1, 1.0, 10.0)), ("prop4.1", 1, (0.1, 1.0, 2.5))):
        theorem = THEOREMS[theorem_id]
        for n in (3, 4, 5):
            for vol in volumes:
                for variant, value in zip(theorem.variants, theorem.bound(vol, SpaceSpec(delta, n), None)):
                    out(f"radial/bound/{theorem_id}/{n}/{vol!r}/{variant}", value)


def searches():
    runs = (("s+:2", "sym-star", "max", 2.0, 5), ("s+:2", "star", "max", 2.0, 5),
            ("s+:2", "sym-star", "min", 2.0, 5), ("h:2", "sym-star", "max", 2.0 * math.pi * 0.3, 1))
    for space, body_class, sense, vol, seed in runs:
        delta = 1 if space.startswith("s+") else -1
        trace = extremizer_search(SpaceSpec(delta, 2), body_class, vol, sense=sense, budget=1000, seed=seed)
        label = f"search/{space}/{body_class}/{sense}/{seed}"
        out(f"{label}/accepted", trace.accepted)
        out(f"{label}/evaluations", trace.evaluations)
        out(f"{label}/best-objective", trace.best_objective)


def main():
    environment()
    suites()
    perturbations()
    schedules()
    vanishing()
    windowed()
    paths()
    product_pairs()
    radial()
    searches()


if __name__ == "__main__":
    main()
