"""Tests of the benchmark itself:  python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer as tracing  # noqa: E402


def test_benchmark_json_lists_what_the_runner_prints():
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS) == list(workloads.BUILDERS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_importtime_attribution_subtracts_nested_package_modules():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        900 |       numpy",
        "import time:        50 |       1000 |     starsections.spaces",
        "import time:        20 |         20 |     starsections.verify",
        "import time:        10 |       1030 |   starsections",
        "import time:         7 |       1040 | starsections.cli",
    ])
    own = run.parse_importtime(stderr)
    assert own["starsections.spaces"] == pytest.approx(1000e-6)
    assert own["starsections.cli"] == pytest.approx(10e-6)
    assert own["starsections"] == pytest.approx(10e-6)


def test_install_rebinds_every_copy_and_uninstall_restores():
    import starsections
    from starsections import bodies, functionals, spaces, verify

    originals = (spaces.phi, functionals.phi, verify.phi, starsections.phi, bodies.StarBody.rho)
    tr = tracing.Tracer()
    tr.install()
    try:
        for bound in (spaces.phi, functionals.phi, verify.phi, starsections.phi):
            assert getattr(bound, "__perfbench_span__") == "spaces.phi"
        assert bodies.StarBody.__dict__["rho"].__perfbench_span__ == "bodies.StarBody.rho"
        ball = starsections.make_ball(spaces.SpaceSpec(1, 3), 0.5)
        tr.op = "probe"
        functionals.busemann_functional(ball)
    finally:
        tr.uninstall()
    assert tracing.installed_wrappers() == []
    assert (spaces.phi, functionals.phi, verify.phi, starsections.phi,
            bodies.StarBody.rho) == originals
    totals = tr.raw()["totals"]
    assert totals["functionals.calls"] == 1
    assert totals["bodies.rho_calls"] >= 1
    assert totals["spaces.phi_elements"] == totals["bodies.rho_points"]


@pytest.mark.parametrize("dim", [2, 3])
def test_error_estimate_counts_as_a_second_evaluation(dim):
    import starsections
    from starsections import functionals, spaces

    ball = starsections.make_ball(spaces.SpaceSpec(1, dim), 0.5)
    tr = tracing.Tracer()
    tr.install()
    try:
        tr.op = "probe"
        functionals.busemann_functional_with_error(ball)
    finally:
        tr.uninstall()
    assert tracing.derive(tr.raw()["totals"])["functionals.evals_per_result"] == 2


def worker(tmp_path, workload, limit, traced):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", "5",
           "--workdir", str(tmp_path), "--limit", str(limit)]
    if traced:
        cmd += ["--trace-file", str(tmp_path / f"{workload}-{time.monotonic_ns()}.json")]
    cmd += ["--kernel-before", "0.015", "--spawned-at", repr(time.monotonic())]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert all(rec["ok"] for rec in out["ops"]), out["ops"]
    return out


# `starsections verify` runs its suite on a 2-thread pool; two threads can
# miss the same `build_sphere_rule` / section-grid cache entry at once and
# both build it, so on cli-cold these counts depend on thread timing.
CACHE_RACE_COUNTS = {"quadrature.rule_builds", "quadrature.rule_hits", "quadrature.frames",
                     "quadrature.calls", "tracing.spans"}


def counts(totals, workload):
    skip = CACHE_RACE_COUNTS if workload == "cli-cold" else set()
    return {k: v for k, v in totals.items()
            if not k.endswith("_s") and not k.startswith("time.") and k not in skip}


@pytest.mark.parametrize("workload,limit", [("verify-nd", 12), ("verify-plane", 6), ("cli-cold", 7)])
def test_traced_counts_repeat_and_untraced_installs_nothing(tmp_path, workload, limit):
    plain = worker(tmp_path, workload, limit, traced=False)
    assert plain["wrappers_seen"] == 0
    assert "trace" not in plain
    first = worker(tmp_path, workload, limit, traced=True)
    second = worker(tmp_path, workload, limit, traced=True)
    assert first["wrappers_seen"] > 0
    assert counts(first["trace"], workload) == counts(second["trace"], workload)
    assert first["trace"]["bodies.rho_calls"] > 0
