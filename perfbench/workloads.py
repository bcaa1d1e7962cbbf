"""The four workloads: fixed op lists generated from the seed, with output checks.

Each op is one unit a user waits for (one suite check, one experiment, one
schedule row, one cold CLI process).  ``build`` makes every input from the
seed through the public constructors; an op's ``run`` calls the program and
its ``check`` compares the output with a reference written here from
``math`` alone, never from ``starsections``.  Program calls go through the
``starsections`` package attributes at call time, so a traced run sees them.
"""

from __future__ import annotations

import csv
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import starsections as ss

# workloads whose ops run in child processes; their peak RSS is the children's
CHILD_PROCESS_WORKLOADS = ("cli-cold",)
CLI_TIMEOUT_S = 120


class CheckFailed(Exception):
    pass


def expect(ok: bool, message: str):
    if not ok:
        raise CheckFailed(message)


def close(value: float, ref: float, rel: float, what: str):
    expect(abs(value - ref) <= rel * abs(ref), f"{what}: {value!r} != reference {ref!r} (rel {rel})")


@dataclass
class Op:
    name: str
    run: object
    check: object


@dataclass
class Context:
    root: Path
    workdir: Path
    traced: bool = False
    child_traces: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# references from math alone


def sphere_area(m: int) -> float:
    """|S^m|."""
    return 2.0 * math.pi ** ((m + 1) / 2) / math.gamma((m + 1) / 2)


def ball_measure(delta: int, d: int, r: float) -> float:
    """d-dimensional measure of the geodesic ball of radius r (curvature sign delta)."""
    if d == 1:
        return 2.0 * r
    if d == 2:
        return {0: math.pi * r * r, 1: 2 * math.pi * (1 - math.cos(r)),
                -1: 2 * math.pi * (math.cosh(r) - 1)}[delta]
    if d == 3:
        return {0: 4 * math.pi * r ** 3 / 3, 1: 2 * math.pi * (r - math.sin(r) * math.cos(r)),
                -1: 2 * math.pi * (math.sinh(r) * math.cosh(r) - r)}[delta]
    raise ValueError(f"no closed form for d = {d}")


def ball_functional(delta: int, n: int, r: float, exponent: int | None = None) -> float:
    """Section-power functional of the centered ball: |S^{n-1}| section^p."""
    p = n if exponent is None else exponent
    return sphere_area(n - 1) * ball_measure(delta, n - 1, r) ** p


def spherical_min_constant(n: int) -> float:
    """Sharp constant of the hemisphere minimum, 2 Gamma((n+1)/2)^n / Gamma(n/2)^(n+1)."""
    return 2.0 * math.exp(n * math.lgamma((n + 1) / 2) - (n + 1) * math.lgamma(n / 2))


def simpson(f, a: float, b: float, panels: int = 2000) -> float:
    h = (b - a) / panels
    total = f(a) + f(b)
    for i in range(1, panels):
        total += (4 if i % 2 else 2) * f(a + i * h)
    return total * h / 3


def lune_functional(w: float) -> float:
    """16 int_0^{pi/2} arctan^2(tan w / cos t) dt, the lune's functional."""
    tw = math.tan(w)
    return 16 * simpson(lambda t: (math.pi / 2 - math.atan(math.cos(t) / tw)) ** 2, 0.0, math.pi / 2)


# ---------------------------------------------------------------------------
# seeded inputs through the public constructors


def bumpy(space, rng, symmetric=True, bumps=2):
    n = space.dim
    r0 = rng.uniform(0.6, 1.0)
    centers = rng.normal(size=(bumps, n))
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    amps = rng.uniform(-0.25, 0.25, size=bumps) * r0
    sharp = rng.uniform(2.0, 6.0, size=bumps)
    return ss.make_bumpy_ball(space, r0, centers, amps, sharp, symmetric=symmetric)


def polygon(rng, strips=2):
    angles = np.sort(rng.uniform(0.0, math.pi, size=strips))
    offsets = rng.uniform(0.4, 2.0, size=strips)
    return ss.make_symmetric_polygon_body(offsets, angles)


def passed(report) -> bool:
    return report.verdict is True or report.verdict == "pass"


def suite_op(name, theorem, body, config=None, ref=None, equality=False):
    """One run_theorem_suite call on one body; ``ref`` = (side, value, rel)."""

    def run():
        return ss.run_theorem_suite(theorem, [body], config=config)

    def check(reports):
        expect(len(reports) >= 1, "no report")
        for rep in reports:
            expect(passed(rep), f"{theorem} verdict {rep.verdict!r}: lhs {rep.lhs!r} rhs {rep.rhs!r}")
            if equality:
                expect(abs(rep.rel_gap) <= 1e-9, f"equality case off by rel_gap {rep.rel_gap!r}")
        if ref is not None:
            side, value, rel = ref
            close(getattr(reports[0], side), value, rel, f"{theorem} {side}")

    return Op(name, run, check)


def perturbation_op(name, n, r, k):
    def run():
        return ss.perturbation_sign_experiment(n, r, k)

    def check(res):
        expect(res.conclusive, f"n={n} k={k} inconclusive")
        expect(res.observed_sign == res.predicted_sign,
               f"n={n} k={k} observed {res.observed_sign} predicted {res.predicted_sign}")

    return Op(name, run, check)


def build_verify_plane(seed, ctx):
    rng = np.random.default_rng([seed, 1])
    s2 = ss.SpaceSpec(1, 2)
    ops = []
    for i in range(4):
        r = rng.uniform(0.2, 1.4)
        ops.append(suite_op(f"min2d/ball{i}", "min2d", ss.make_ball(s2, r),
                            ref=("rhs", 8 * math.pi * r * r, 1e-9)))
    ops += [suite_op(f"min2d/bumpy{i}", "min2d", bumpy(s2, rng)) for i in range(36)]
    ops += [suite_op(f"cone-max/bumpy{i}", "cone-max", bumpy(s2, rng)) for i in range(40)]
    ops += [suite_op(f"lune-max/lune{i}", "lune-max", ss.make_lune(rng.uniform(0.15, 1.3)),
                     equality=True) for i in range(4)]
    ops += [suite_op(f"lune-max/polygon{i}", "lune-max", polygon(rng)) for i in range(16)]
    return ops


def build_verify_nd(seed, ctx):
    rng = np.random.default_rng([seed, 2])
    e3, h3 = ss.SpaceSpec(0, 3), ss.SpaceSpec(-1, 3)
    s3, s4 = ss.SpaceSpec(1, 3), ss.SpaceSpec(1, 4)
    default = ss.QuadratureConfig()
    fine = ss.QuadratureConfig(outer_degree=39, inner_degree=63)
    ops = []

    def suite(tag, theorem, bodies, config=None):
        ops.extend(suite_op(f"{theorem}/{tag}{i}", theorem, b, config=config)
                   for i, b in enumerate(bodies))

    def ball_op(theorem, space, exponent=None):
        r = rng.uniform(0.4, 1.2)
        ops.append(suite_op(f"{theorem}/{space.delta:+d}:{space.dim}/ball", theorem,
                            ss.make_ball(space, r),
                            ref=("lhs", ball_functional(space.delta, space.dim, r, exponent), 1e-9)))

    ball_op("busemann-euclidean", e3)
    suite("ellipsoid", "busemann-euclidean", [ss.make_ellipsoid(rng.uniform(0.7, 1.4, 3)) for _ in range(3)])
    suite("bumpy", "busemann-euclidean", [bumpy(e3, rng) for _ in range(12)])
    suite("default-ellipsoid", "busemann-euclidean",
          [ss.make_ellipsoid(rng.uniform(0.7, 1.4, 3)) for _ in range(2)], default)
    suite("default-bumpy", "busemann-euclidean", [bumpy(e3, rng) for _ in range(6)], default)
    suite("e3-bumpy", "gaussian", [bumpy(e3, rng) for _ in range(8)])

    ball_op("hyperbolic", h3)
    suite("bumpy", "hyperbolic", [bumpy(h3, rng) for _ in range(13)])
    suite("default-bumpy", "hyperbolic", [bumpy(h3, rng) for _ in range(8)], default)
    suite("h3-bumpy", "gaussian", [bumpy(h3, rng) for _ in range(6)])

    for space, count in ((s3, 9), (s4, 7)):
        tag = f"s{space.dim}-"
        ball_op("prop4.1", space, exponent=1)
        suite(tag + "bumpy", "prop4.1", [bumpy(space, rng) for _ in range(count)])
        ball_op("prop4.2", space)
        suite(tag + "bumpy", "prop4.2", [bumpy(space, rng) for _ in range(count)])
        cones = [ss.make_cone(space, ss.equality_cone_base(space.dim, rng.uniform(0.3, 0.8)))
                 for _ in range(2)]
        suite(tag + "equality-cone", "min-nd", cones)
        suite(tag + "bumpy", "min-nd", [bumpy(space, rng) for _ in range(count - 1)])
        if space is s3:
            suite("s3-fine-bumpy", "prop4.1", [bumpy(s3, rng) for _ in range(5)], fine)
            suite("s3-fine-bumpy", "prop4.2", [bumpy(s3, rng) for _ in range(5)], fine)
            suite("s3-fine-bumpy", "min-nd", [bumpy(s3, rng) for _ in range(9)], fine)

    r = rng.uniform(0.6, 0.95)
    ops += [perturbation_op(f"perturbation/n3k{k}", 3, r, k) for k in (2, 4, 6, 8)]
    ops.append(perturbation_op("perturbation/n4k2", 4, r, 2))
    return ops


def build_striped_cones(seed, ctx):
    rng = np.random.default_rng([seed, 3])
    ops = []
    schedule = ((0.4, 0.2), (0.2, 0.1), (0.1, 0.05), (0.05, 0.02))
    for n in (3, 4):
        space = ss.SpaceSpec(1, n)
        target_volume = 0.5 * sphere_area(n) / 2
        cn = spherical_min_constant(n)
        for row, (alpha, eps) in enumerate(schedule):
            def run(space=space, alpha=alpha, eps=eps):
                body = ss.make_striped_cone(space, 0.5, alpha, eps)
                vol = ss.volume(body)
                return vol, ss.busemann_functional(body)

            def check(out, n=n, cn=cn, target_volume=target_volume, last=row == len(schedule) - 1):
                vol, functional = out
                close(vol, target_volume, 1e-9, "striped-cone volume")
                excess = functional / vol ** n / cn - 1.0
                expect(excess >= -1e-9, f"excess {excess!r} below the sharp constant")
                expect(not last or excess <= 0.05, f"final excess {excess!r} above 5%")

            ops.append(Op(f"schedule/n{n}/alpha{alpha}", run, check))
    for space in (ss.SpaceSpec(0, 3), ss.SpaceSpec(-1, 3)):
        volume, eta = rng.uniform(0.8, 1.2), rng.uniform(0.3, 0.6)

        def run(space=space, volume=volume, eta=eta):
            body = ss.make_vanishing_body(space, volume, eta)
            return ss.volume(body), ss.busemann_functional(body)

        def check(out, volume=volume, eta=eta):
            close(out[0], volume, 1e-8, "vanishing-body volume")
            expect(out[1] <= eta * (1 + 1e-12), f"functional {out[1]!r} above eta {eta!r}")

        ops.append(Op(f"vanishing/{space.delta:+d}:3", run, check))
    for n in (3, 4):
        space = ss.SpaceSpec(1, n)
        ops += [suite_op(f"min-nd/equality-cone/n{n}/{i}", "min-nd",
                         ss.make_cone(space, ss.equality_cone_base(n, rng.uniform(0.3, 0.8))),
                         equality=True) for i in range(2)]
    return ops


# ---------------------------------------------------------------------------
# cold CLI processes


def cli_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def read_json(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def cli_op(ctx, index, name, argv, check):
    def run():
        if ctx.traced:
            trace_file = ctx.workdir / f"cli-{index}.trace.json"
            cmd = [sys.executable, str(Path(__file__).with_name("traced_cli.py")),
                   str(trace_file), name, *argv]
        else:
            cmd = [sys.executable, "-m", "starsections.cli", *argv]
        proc = subprocess.run(cmd, cwd=ctx.root, env=cli_env(ctx.root), capture_output=True,
                              text=True, timeout=CLI_TIMEOUT_S)
        if ctx.traced:
            ctx.child_traces.append(read_json(trace_file))
        return proc

    return Op(name, run, check)


def exit_code(proc, code):
    expect(proc.returncode == code,
           f"exit code {proc.returncode}, expected {code}: {proc.stderr.strip()[-300:]}")


def build_cli_cold(seed, ctx):
    rng = np.random.default_rng([seed, 4])
    out = ctx.workdir
    specs = []

    def functional(tag, argv, refs):
        path = out / f"{tag}.json"

        def check(proc):
            exit_code(proc, 0)
            doc = read_json(path)
            for key, value, rel in refs:
                if key == "sections":
                    expect(len(doc["sections"]) > 0, "no sections printed")
                    for sec in doc["sections"]:
                        close(sec["section_volume"], value, rel, "section volume")
                else:
                    close(doc[key], value, rel, key)

        specs.append((f"functional/{tag}", ["functional", *argv, "--out", str(path)], check))

    r = rng.uniform(0.3, 1.3)
    functional("s2-ball", ["--space", "s+:2", "--body", f"ball:r={r!r}"],
               [("volume", ball_measure(1, 2, r), 1e-9), ("functional", ball_functional(1, 2, r), 1e-9)])
    r = rng.uniform(0.3, 1.3)
    functional("e2-ball", ["--space", "e:2", "--body", f"ball:r={r!r}"],
               [("volume", ball_measure(0, 2, r), 1e-9), ("functional", ball_functional(0, 2, r), 1e-9)])
    r = rng.uniform(0.3, 1.3)
    functional("s3-ball-sections", ["--space", "s+:3", "--body", f"ball:r={r!r}", "--sections", "4"],
               [("functional", ball_functional(1, 3, r), 1e-9), ("sections", ball_measure(1, 2, r), 1e-9)])
    r = rng.uniform(0.5, 1.2)
    # Gaussian density exp(-t^2/2) (2 pi)^(-d/2) in d dimensions, geodesic polar coordinates
    vol = (2 * math.pi) ** -1.5 * 4 * math.pi * simpson(lambda t: math.exp(-t * t / 2) * math.sinh(t) ** 2, 0, r)
    sec = (2 * math.pi) ** -1.0 * 2 * math.pi * simpson(lambda t: math.exp(-t * t / 2) * math.sinh(t), 0, r)
    functional("h3-ball-gaussian", ["--space", "h:3", "--body", f"ball:r={r!r}", "--measure", "gaussian"],
               [("volume", vol, 1e-9), ("functional", 4 * math.pi * sec ** 3, 1e-8)])
    w = rng.uniform(0.2, 1.2)
    functional("s2-lune", ["--space", "s+:2", "--body", f"lune:w={w!r}"],
               [("volume", 4 * w, 1e-9), ("functional", lune_functional(w), 1e-8)])

    def verify(tag, argv):
        specs.append((f"verify/{tag}", ["verify", *argv], lambda proc: exit_code(proc, 0)))

    verify("lune-max-w", ["--theorem", "lune-max", "--w", repr(rng.uniform(0.2, 1.2))])
    verify("min-nd-random", ["--theorem", "min-nd", "--random", "6", "--dim", "3",
                             "--seed", str(seed % 100000)])
    a = rng.uniform(0.0, math.pi / 2)
    b = a + rng.uniform(0.3, 1.2)
    verify("cone-max-arcs", ["--theorem", "cone-max", "--space", "s+:2", "--body",
                             f"cone:arcs={a!r}:{b!r};{a + math.pi!r}:{b + math.pi!r}"])
    verify("hyperbolic-ball", ["--theorem", "hyperbolic", "--space", "h:3", "--body",
                               f"ball:r={rng.uniform(0.4, 1.2)!r}"])

    pert = out / "perturbation.csv"

    def check_perturbation(proc):
        exit_code(proc, 0)
        rows = read_csv(pert)
        expect(len(rows) == 2, f"{len(rows)} perturbation rows")
        for row in rows:
            expect(row["conclusive"] == "True", f"k={row['k']} inconclusive")
            expect(row["predicted_sign"] == row["observed_sign"], f"k={row['k']} sign mismatch")

    specs.append(("experiment/perturbation",
                  ["experiment", "perturbation", "--dim", "3", "--r", repr(rng.uniform(0.6, 0.95)),
                   "--k", "2,4", "--out", str(pert)], check_perturbation))

    sharp = out / "sharpness.csv"

    def check_sharpness(proc):
        exit_code(proc, 0)
        rows = read_csv(sharp)
        expect(len(rows) == 4, f"{len(rows)} schedule rows")
        cn = spherical_min_constant(4)
        for row in rows:
            close(float(row["target"]), cn, 1e-12, "target constant")
            close(float(row["volume"]), 0.5 * sphere_area(4) / 2, 1e-9, "striped-cone volume")
            excess = float(row["functional"]) / float(row["volume"]) ** 4 / cn - 1
            expect(excess >= -1e-9, f"excess {excess!r} below the sharp constant")
        expect(excess <= 0.05, f"final excess {excess!r} above 5%")

    specs.append(("experiment/sharpness", ["experiment", "sharpness", "--dim", "4", "--out", str(sharp)],
                  check_sharpness))

    traces = [out / "search-a.csv", out / "search-b.csv"]

    def check_search(proc, path):
        exit_code(proc, 0)
        rows = read_csv(path)
        expect(len(rows) > 0, "search accepted no step")
        worst = max(abs(float(row["volume_drift"])) for row in rows)
        expect(worst <= 1e-8, f"volume drift {worst!r}")

    def check_replay(proc):
        check_search(proc, traces[1])
        expect(read_csv(traces[0]) == read_csv(traces[1]), "seeded search did not replay its trace")

    search = ["experiment", "search", "--space", "s+:2", "--seed", str(seed % 100000), "--budget", "1000"]
    specs.append(("experiment/search", [*search, "--out", str(traces[0])],
                  lambda proc: check_search(proc, traces[0])))
    specs.append(("experiment/search-replay", [*search, "--out", str(traces[1])], check_replay))
    specs.append(("usage-error", ["functional", "--space", "s+:2", "--body", "noodle:x=1"],
                  lambda proc: exit_code(proc, 2)))
    return [cli_op(ctx, i, name, argv, check) for i, (name, argv, check) in enumerate(specs)]


BUILDERS = {
    "verify-plane": build_verify_plane,
    "verify-nd": build_verify_nd,
    "striped-cones": build_striped_cones,
    "cli-cold": build_cli_cold,
}


def build(workload: str, seed: int, ctx: Context) -> list[Op]:
    ops = BUILDERS[workload](seed, ctx)
    if len({op.name for op in ops}) != len(ops):
        raise ValueError(f"{workload}: op names are not unique")
    return ops
