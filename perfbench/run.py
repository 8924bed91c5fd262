"""specmhd benchmark: one workload, measured for a fixed time, with a
correctness gate.

    python3 perfbench/run.py --workload transform_n32 --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload mass_k800 --seed 1 --seconds 40 --trace 1
    python3 perfbench/run.py --probe

Run it from the root of a specmhd checkout; the solver is imported from
``src/``.  The measurement runs in one fresh worker process (``worker.py``)
so that its peak RSS is the workload's own.  The last stdout line is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; the lines
before it are a readable table.  Each run also writes a results file with
the environment to ``.bench_results/``.  The exit code is nonzero, and no
result is printed, when the checkout has no solver or the worker fails; it
is also nonzero, after the result, when any run fails its check.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
RESULTS = ROOT / ".bench_results"
DEADLINE_S = 170.0  # the whole command must end within 180 s


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10, check=True
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def worker_env() -> dict:
    """Pin BLAS and OpenMP pools to no more threads than this process may use."""
    threads = str(min(2, len(os.sched_getaffinity(0))))
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def start_worker(script: str, argv: list[str], started: float) -> dict:
    cmd = [sys.executable, str(HERE / script), *argv]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=worker_env(), capture_output=True, text=True,
            timeout=max(1.0, DEADLINE_S - (time.monotonic() - started)),
        )
    except subprocess.TimeoutExpired:
        sys.exit("benchmark worker exceeded the time limit")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        sys.exit(f"benchmark worker failed with exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def write_results(name: str, payload: dict) -> Path:
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / name
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, help="measuring time (default: run_seconds in BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true", help="per-call layer probe on the (N, K) grid")
    args = ap.parse_args()
    started = time.monotonic()
    if not (ROOT / "src" / "specmhd" / "__init__.py").is_file():
        sys.exit("no specmhd sources under ./src: run from the root of a specmhd checkout")

    if args.probe:
        out = start_worker("probe.py", [], started)
        out["environment"]["git_commit"] = git_commit()
        path = write_results("probe.json", out)
        for row in out["table"]:
            print("N={N:<3d} K={K:<4d} ".format(**row) + "  ".join(
                f"{k}={row[k]:.2f} ms" for k in ("rates", "energy_report", "velocity_mass", "solve_mass")))
        print(f"results: {path.relative_to(ROOT)}")
        return 0

    if args.workload is None:
        ap.error("--workload is required unless --probe is given")
    spec = load_spec()
    seconds = args.seconds or spec["run_seconds"]
    out = start_worker(
        "worker.py",
        ["--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(seconds), "--trace", str(args.trace)],
        started,
    )
    metrics = out["metrics"]
    if not args.trace:
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(metrics) != set(units):
        sys.exit(f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json")
    attempted, failed = out["attempted"], out["failed"]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    env = {**out["environment"], "git_commit": git_commit()}
    path = write_results(
        f"{args.workload}-seed{args.seed}-trace{args.trace}.json",
        {"workload": args.workload, "seconds": seconds, "trace": args.trace, "environment": env,
         "result": result, "errors": out["errors"], "detail": out["detail"]},
    )

    print(f"workload {args.workload} seed {args.seed} trace {args.trace} ({env['blas']}, "
          f"{env['blas_threads']} BLAS threads, nproc {env['nproc']})")
    for k, v in metrics.items():
        print(f"  {k:36s} {v:14.6g} {units[k]}")
    print(f"  {'fail_ratio':36s} {failed / attempted:14.6g} ({failed} of {attempted} runs failed)")
    for err in out["errors"]:
        print(f"  FAILED: {err}")
    if args.trace:
        for group, shares in out["detail"]["shares"].items():
            print(f"  {group} shares: " + ", ".join(f"{k} {v:.3f}" for k, v in shares.items()))
    print(f"  results: {path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
