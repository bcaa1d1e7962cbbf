"""The starsections benchmark: one workload, end-to-end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
Every pass of a workload runs in a fresh interpreter (worker.py), so each
pass pays import, rule and grid builds as a user's process does.

``--trace 0`` runs set-up probes, then passes until ``--seconds`` have
elapsed (at least two), and reports the end-to-end metrics.  ``--trace 1``
runs one untraced and one traced pass and reports the per-layer metrics,
with the traced/untraced wall-time gap as the tracing overhead.  Outputs are
checked op by op; the last stdout line is the JSON result, and a full record
(environment, per-op latencies, errors) goes to ``.perfbench_work/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".perfbench_work"

sys.path.insert(0, str(HERE))
import speed  # noqa: E402
from tracer import COUNT_METRICS, LAYERS, derive  # noqa: E402

WORKLOADS = ("verify-plane", "verify-nd", "striped-cones", "cli-cold")
SETUP_PROBES = 2        # set-up-only processes per run, besides each pass's own
MIN_PASSES = 2
IMPORT_PROBES = 3
DEADLINE_S = 170        # a run must end well within 180 s

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    **{f"{layer}.calls": "count" for layer in LAYERS},
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    **{f"{layer}.import_s": "s" for layer in LAYERS},
    **{name: "count" for name in COUNT_METRICS},
    "quadrature.rule_hit_ratio": "ratio",
    "bodies.construct_s": "s",
    "functionals.lhs_s": "s",
    "functionals.volume_s": "s",
    "functionals.rhs_s": "s",
    "functionals.evals_per_result": "ratio",
    "verify.search_steps_per_s": "1/s",
    "tracing.wall_s": "s",
    "tracing.untraced_wall_s": "s",
    "tracing.overhead_ratio": "ratio",
}


class BenchError(Exception):
    pass


class Runner:
    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.deadline = time.monotonic() + DEADLINE_S

    def remaining(self) -> float:
        left = self.deadline - time.monotonic()
        if left <= 1:
            raise BenchError(f"out of time ({DEADLINE_S} s)")
        return left

    def worker(self, *extra: str) -> dict:
        kernel = statistics.median(speed.kernel() for _ in range(3))
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--workdir", str(WORKDIR), *extra,
               "--kernel-before", repr(kernel), "--spawned-at"]
        cmd.append(repr(time.monotonic()))
        # own process group, so that a timeout also stops the worker's CLI children
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                text=True, start_new_session=True)
        try:
            stdout, stderr = proc.communicate(timeout=self.remaining())
        except (subprocess.TimeoutExpired, BenchError) as exc:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"worker stopped: {exc}") from exc
        lines = stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"worker exited {proc.returncode}: {stderr.strip()[-2000:]}")
        return json.loads(lines[-1])

    def import_times(self) -> dict:
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        cmd = [sys.executable, "-X", "importtime", "-c", "import starsections.cli"]
        kernels = [speed.kernel() for _ in range(3)]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                                  timeout=min(60.0, self.remaining()))
        except subprocess.TimeoutExpired as exc:
            raise BenchError("import probe timed out") from exc
        if proc.returncode != 0:
            raise BenchError(f"import probe failed: {proc.stderr.strip()[-2000:]}")
        kernels += [speed.kernel() for _ in range(3)]
        factor = speed.nominal_factor(kernels)
        own = parse_importtime(proc.stderr)
        return {f"{layer}.import_s": own.get(f"starsections.{layer}", 0.0) * factor for layer in LAYERS}


def parse_importtime(stderr: str) -> dict:
    """Import time of each starsections module, less the starsections modules
    it imported first (``import starsections.cli`` nests the whole package).

    ``-X importtime`` prints a module after everything it imported, one
    indentation level deeper, so a stack of pending lines recovers the tree.
    """
    own = {}
    pending = []   # (depth, name, cumulative_s, starsections time nested inside)
    for line in stderr.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        label = parts[2].rstrip()
        name = label.strip()
        depth = len(label) - len(label.lstrip())
        cumulative = int(parts[1]) * 1e-6
        nested = 0.0
        while pending and pending[-1][0] > depth:
            _, child, child_cumulative, child_nested = pending.pop()
            nested += child_cumulative if child.startswith("starsections") else child_nested
        if name.startswith("starsections"):
            own[name] = cumulative - nested
        pending.append((depth, name, cumulative, nested))
    return own


def timed_run(runner: Runner, seconds: float):
    """Set-up probes, then passes for ``seconds`` (at least MIN_PASSES); end-to-end metrics."""
    setups = [runner.worker("--setup-only")["setup_s"] for _ in range(SETUP_PROBES)]
    passes = []
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        passes.append(runner.worker())
        took = time.monotonic() - t0
        if time.monotonic() + 1.5 * took > runner.deadline:
            break
        if len(passes) >= MIN_PASSES and time.monotonic() - start >= seconds:
            break
    # every pass runs the same op list: take each op's median over the passes,
    # then the percentiles over the op list
    latencies = [statistics.median(ms) for ms in zip(*[[rec["ms"] for rec in p["ops"]] for p in passes])]
    setups += [p["setup_s"] for p in passes]
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "op_p50_ms": statistics.median(latencies),
        "op_p90_ms": percentile90(latencies),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    notes = {
        "passes": len(passes),
        "setup_samples": len(setups),
        "ops_per_pass": len(latencies),
        "raw_wall_s": statistics.median(p["raw_wall_s"] for p in passes),
        "speed_factor": statistics.median(p["speed_factor"] for p in passes),
    }
    return metrics, END_TO_END, passes, notes


def traced_run(runner: Runner, trace_file: Path):
    """Import probes, one untraced and one traced pass; per-layer metrics."""
    probes = [runner.import_times() for _ in range(IMPORT_PROBES)]
    plain = runner.worker()
    traced = runner.worker("--trace-file", str(trace_file))
    if plain["wrappers_seen"] or not traced["wrappers_seen"]:
        raise BenchError("tracing wrappers leaked into the untraced pass or missed the traced one")
    metrics = derive(traced["trace"])
    for name, unit in PER_LAYER.items():
        if name in metrics and unit == "s":
            metrics[name] *= traced["speed_factor"]
    metrics["verify.search_steps_per_s"] /= traced["speed_factor"]
    metrics.update({key: statistics.median(p[key] for p in probes) for key in probes[0]})
    metrics["tracing.wall_s"] = traced["wall_s"]
    metrics["tracing.untraced_wall_s"] = plain["wall_s"]
    metrics["tracing.overhead_ratio"] = traced["wall_s"] / plain["wall_s"] - 1.0
    notes = {"passes": 2, "import_samples": len(probes), "trace_file": str(trace_file.relative_to(ROOT))}
    return metrics, PER_LAYER, [plain, traced], notes


def percentile90(values) -> float:
    """Nearest-rank p90: always one op's latency.  Interpolating would put
    the p90 of a 14-op list between its two largest ops, which differ
    twentyfold on striped-cones."""
    ranked = sorted(values)
    return ranked[max(0, math.ceil(0.9 * len(ranked)) - 1)]


def commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int, versions: dict) -> dict:
    blas_env = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": cpu_model(),
        "python": platform.python_version(),
        **versions,
        "blas_threads": {key: os.environ.get(key, "unset") for key in blas_env},
        "commit": commit(),
        "seed": seed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "starsections" / "__init__.py").is_file():
        print("perfbench: no starsections sources under src/; run from a checkout root",
              file=sys.stderr)
        return 2
    WORKDIR.mkdir(exist_ok=True)
    runner = Runner(args.workload, args.seed)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        warm = runner.worker("--setup-only")  # untimed: compiles bytecode, warms file caches
        if args.trace:
            metrics, units, passes, notes = traced_run(runner, WORKDIR / f"{stem}.spans.json")
        else:
            metrics, units, passes, notes = timed_run(runner, args.seconds)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    records = [rec for p in passes for rec in p["ops"]]
    failures = [rec for rec in records if not rec["ok"]]
    env = environment(args.seed, warm["versions"])
    result = {
        "correct": not failures,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {name: {"value": float(metrics[name]), "unit": unit} for name, unit in units.items()},
    }
    with open(WORKDIR / f"{stem}.json", "w") as fh:
        json.dump({"workload": args.workload, "env": env, "notes": notes, "result": result,
                   "fail_ratio": len(failures) / len(records),
                   "passes": [{k: v for k, v in p.items() if k != "trace"} for p in passes]}, fh, indent=1)

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(records)} ops attempted, {len(failures)} failed "
          f"(fail_ratio {len(failures) / len(records):.4g}); {json.dumps(notes)}")
    for rec in failures[:20]:
        print(f"  FAILED {rec['op']}: {rec['error']}")
    for name, entry in result["metrics"].items():
        print(f"  {name:34s} {entry['value']:.6g} {entry['unit']}")
    print("env " + json.dumps(env))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
