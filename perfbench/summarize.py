"""Summarise run records into one baseline document.

    python3 perfbench/summarize.py [RECORD_DIR] > summary.json

Reads the records run.py leaves in ``.perfbench_work/`` and prints, per
workload, each end-to-end metric's median, quartiles and spread
((q3 - q1) / median) over the untraced runs, the seeds they used, and the
per-layer metrics of the last traced run.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def summarize(record_dir: Path) -> dict:
    runs, traced, env = {}, {}, None
    for path in sorted(record_dir.glob("*-trace[01].json")):
        doc = json.loads(path.read_text())
        env = doc["env"]
        if path.stem.endswith("trace1"):
            traced[doc["workload"]] = doc
        else:
            runs.setdefault(doc["workload"], []).append(doc)
    out = {"env": {k: v for k, v in (env or {}).items() if k != "seed"}, "workloads": {}}
    for workload in sorted(set(runs) | set(traced)):
        entry = out["workloads"][workload] = {}
        docs = runs.get(workload, [])
        if docs:
            entry["seeds"] = [d["env"]["seed"] for d in docs]
            entry["all_correct"] = all(d["result"]["correct"] for d in docs)
            entry["end_to_end"] = {}
            for name in docs[0]["result"]["metrics"]:
                values = [d["result"]["metrics"][name]["value"] for d in docs]
                q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
                entry["end_to_end"][name] = {
                    "unit": docs[0]["result"]["metrics"][name]["unit"],
                    "median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
                }
        if workload in traced:
            doc = traced[workload]
            entry["traced_seed"] = doc["env"]["seed"]
            entry["per_layer"] = {k: v["value"] for k, v in doc["result"]["metrics"].items()}
    return out


if __name__ == "__main__":
    where = Path(sys.argv[1]) if len(sys.argv) > 1 else ROOT / ".perfbench_work"
    json.dump(summarize(where), sys.stdout, indent=1)
    print()
