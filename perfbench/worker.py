"""One pass of one workload in a fresh interpreter (started by run.py).

    python3 perfbench/worker.py --workload NAME --seed N --workdir DIR
        --spawned-at T --kernel-before K [--setup-only] [--trace-file PATH] [--limit K]

``--spawned-at`` is the parent's ``time.monotonic()`` just before it started
this process (the clock is system-wide on Linux), so ``setup_s`` runs from
process start to ``starsections`` imported and inputs built.  The pass runs
the op list once, times each op, checks each output, and prints one JSON line.
With ``--trace-file`` the tracing wrappers are installed after set-up and the
spans are written to that file.

Times are reported at nominal machine speed (see speed.py): set-up against
kernels run by the parent just before the spawn (``--kernel-before``) and by
this process just after set-up; each op against the kernels sampled around
it.  Raw times are reported next to them.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--kernel-before", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-file", default=None)
    parser.add_argument("--limit", type=int, default=None)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import numpy
    import scipy
    import starsections

    if Path(starsections.__file__).resolve().parent != (ROOT / "src" / "starsections").resolve():
        print(f"starsections imported from {starsections.__file__}, not from src/", file=sys.stderr)
        return 2
    import speed
    import tracer as tracing
    import workloads

    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=args.workdir))
    try:
        if args.workload in workloads.CHILD_PROCESS_WORKLOADS:
            import starsections.cli  # noqa: F401  (what each child process imports)
        ctx = workloads.Context(ROOT, workdir, traced=args.trace_file is not None)
        ops = workloads.build(args.workload, args.seed, ctx)[: args.limit]
        raw_setup = time.monotonic() - args.spawned_at
        after = statistics.median(speed.kernel() for _ in range(3))
        result = {
            "setup_s": raw_setup * speed.nominal_factor([args.kernel_before, after]),
            "raw_setup_s": raw_setup,
            "versions": {"numpy": numpy.__version__, "scipy": scipy.__version__,
                         "blas": _blas_name(numpy)},
        }
        if not args.setup_only:
            result.update(run_pass(ops, ctx, args.trace_file, tracing, workloads, speed))
            if args.workload in workloads.CHILD_PROCESS_WORKLOADS:
                peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss * 1024.0
            else:
                peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024.0 - speed.BUFFER_BYTES
            result["peak_rss_mb"] = peak / 2.0 ** 20
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def run_pass(ops, ctx, trace_file, tracing, workloads, speed) -> dict:
    tracer = None
    if trace_file is not None:
        tracer = tracing.Tracer()
        tracer.install()
    probe = speed.SpeedProbe()
    records = []
    try:
        probe.sample(speed.NEIGHBOURS)
        for op in ops:
            if tracer is not None:
                tracer.op = op.name
            t0 = time.perf_counter()
            error = None
            try:
                value = op.run()
            except Exception as exc:  # a failed op is counted, never dropped
                error = f"{type(exc).__name__}: {exc}"
            t1 = time.perf_counter()
            if error is None:
                try:
                    op.check(value)
                except workloads.CheckFailed as exc:
                    error = f"check failed: {exc}"
                except Exception as exc:
                    error = f"check raised {type(exc).__name__}: {exc}"
            records.append({"op": op.name, "raw_ms": (t1 - t0) * 1e3, "span": (t0, t1),
                            "ok": error is None, "error": error})
            probe.after_op(t1 - t0)
        probe.sample(speed.NEIGHBOURS)
        wrappers = len(tracing.installed_wrappers())
    finally:
        if tracer is not None:
            tracer.uninstall()
    for rec in records:
        rec["ms"] = rec["raw_ms"] * probe.factor(*rec.pop("span"))
    factor = speed.nominal_factor(probe.durations)
    out = {
        "wall_s": sum(rec["ms"] for rec in records) / 1e3,
        "raw_wall_s": sum(rec["raw_ms"] for rec in records) / 1e3,
        "speed_factor": factor,
        "kernel_ms": [d * 1e3 for d in probe.durations],
        "ops": records,
        "wrappers_seen": wrappers,
    }
    if tracer is not None:
        raw = tracer.raw()
        spans = [{"name": s[0], "start": s[1], "end": s[2], "parent": s[3], "op": s[4], "thread": s[5]}
                 for s in tracer.spans]
        totals, per_op = raw["totals"], raw["per_op"]
        for child in ctx.child_traces:
            for key, value in child["raw"]["totals"].items():
                totals[key] = totals.get(key, 0.0) + value
            per_op.update(child["raw"]["per_op"])
            spans.append({"op": child["op"], "process_spans": child["spans"]})
        with open(trace_file, "w") as fh:
            json.dump({"speed_factor": factor, "per_op": per_op, "spans": spans}, fh)
        out["trace"] = totals
    return out


def _blas_name(numpy) -> str:
    try:
        return numpy.__config__.CONFIG["Build Dependencies"]["blas"]["name"]
    except (AttributeError, KeyError, TypeError):
        return "unknown"


if __name__ == "__main__":
    sys.exit(main())
