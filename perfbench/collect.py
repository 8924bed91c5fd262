"""Fold the results files in ``.bench_results/`` into one ``BENCH_<label>.json``.

    python3 perfbench/collect.py --label seed --out perfbench/baselines/BENCH_seed.json

For each workload and metric it keeps every seed's value, the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread, which is
the distance between the quartiles as a share of the median.  The probe
table from ``run.py --probe`` is copied in when present.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

RESULTS = Path.cwd() / ".bench_results"


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    out = {"median": med, "values": values}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3, spread=(q3 - q1) / med if med else None)
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    files = sorted(RESULTS.glob("*-seed*-trace*.json"))
    if not files:
        sys.exit(f"no results files in {RESULTS}")
    grouped: dict = {}
    environment = None
    for path in files:
        run = json.loads(path.read_text())
        environment = environment or {k: v for k, v in run["environment"].items() if k != "seed"}
        entry = grouped.setdefault(run["workload"], {}).setdefault(
            "per_layer" if run["trace"] else "end_to_end", {"seeds": [], "attempted": 0, "failed": 0, "metrics": {}}
        )
        result = run["result"]
        entry["seeds"].append(run["environment"]["seed"])
        entry["attempted"] += result["attempted"]
        entry["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            entry["metrics"].setdefault(name, {"unit": m["unit"], "values": []})["values"].append(m["value"])

    for modes in grouped.values():
        for entry in modes.values():
            entry["fail_ratio"] = entry["failed"] / entry["attempted"]
            for name, m in entry["metrics"].items():
                entry["metrics"][name] = {"unit": m["unit"], **summarize(m["values"])}

    bench = {"label": args.label, "environment": environment, "workloads": grouped}
    probe = RESULTS / "probe.json"
    if probe.exists():
        bench["probe"] = json.loads(probe.read_text())
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(bench, indent=2, sort_keys=True) + "\n")

    for workload, modes in sorted(grouped.items()):
        entry = modes.get("end_to_end")
        if entry is None:
            continue
        print(f"{workload} ({len(entry['seeds'])} seeds, fail_ratio {entry['fail_ratio']:g})")
        for name, m in entry["metrics"].items():
            spread = m.get("spread")
            print(f"  {name:14s} median {m['median']:12.6g} {m['unit']:3s} spread {spread if spread is None else f'{spread:.4f}'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
