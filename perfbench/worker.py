"""One benchmark measurement in a fresh process; started by ``run.py``.

Runs one workload as a closed loop (one ``harness.run`` at a time), checks
every run, and prints one JSON object on its last stdout line.  With
``--trace 1`` the solver's layer boundaries are wrapped by ``tracing.Tracer``
and the per-layer metrics are reported instead of the end-to-end ones.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from specmhd import constitutive as cst  # noqa: E402
from specmhd import diagnostics as diag  # noqa: E402
from specmhd import galerkin as gal  # noqa: E402
from specmhd import harness  # noqa: E402
from specmhd import integrator as itg  # noqa: E402
from specmhd import spectral as sp  # noqa: E402
from specmhd.config import auto_density_regularization, load_config  # noqa: E402

import tracing  # noqa: E402

WORK_DIR = ROOT / ".bench_work"
SETUP_MIN_REPS = 9
SETUP_MIN_SECONDS = 2.0
MIN_TIMED_PASSES = 3


@dataclass(frozen=True)
class Workload:
    config: str
    overrides: tuple = ()  # (RunConfig field, value) pairs
    dt: float | None = None
    steps: int | None = None  # None keeps the shipped t_end
    realizations: int = 1  # inputs per invocation; input i uses seed realizations * seed + i
    summary: Callable[[list[float]], float] = statistics.median  # of the timed passes, gives wall_s

    def run_config(self, seed: int):
        cfg = load_config(ROOT / "configs" / self.config)
        cfg = replace(cfg, **dict(self.overrides), initial_params={**cfg.initial_params, "seed": seed})
        if cfg.density_regularization == "auto":
            cfg = replace(cfg, density_regularization=auto_density_regularization(cfg.box_size, cfg.grid_points))
        step = cfg.step if self.dt is None else replace(cfg.step, dt=self.dt)
        if self.steps is not None:
            step = replace(step, t_end=self.steps * step.dt)
        return replace(cfg, step=step)

    def inputs(self, seed: int) -> list[tuple[int, object]]:
        first = self.realizations * seed
        return [(s, self.run_config(s)) for s in range(first, first + self.realizations)]


# Why each workload exists is recorded in perfbench/README.md and BENCHMARK.json.
WORKLOADS = {
    "transform_n32": Workload(
        "random_band.cfg",
        (("grid_points", 32), ("velocity_modes", 32), ("magnetic_modes", 32),
         ("temperature_modes", 33), ("cadence", 10)),
        dt=1e-3,
        steps=3,
    ),
    # The shipped density_regularization (1e-3) lets the grid maximum of the
    # density rise at N=16 for some seeds (3 and 12345 among them), which the
    # integrator's density-bound monitor rejects at the first step; the
    # grid-scaled "auto" value keeps every seed admissible.  The midpoint
    # iteration takes 6 or 7 RHS evaluations per step depending on the input,
    # so each invocation cycles through four inputs to keep that choice from
    # setting the whole invocation's figure.
    "mass_k800": Workload(
        "random_band.cfg",
        (("grid_points", 16), ("velocity_modes", 800), ("magnetic_modes", 800),
         ("temperature_modes", 401), ("cadence", 10), ("density_regularization", "auto")),
        dt=0.01,
        steps=2,
        realizations=4,
    ),
    # The shared host's contention comes in bursts well under a second long
    # and in phases of minutes, and it slows this interpreter-bound workload
    # by up to 1.8x.  Short runs, many per invocation, and the fastest of them
    # give a figure that a slow phase moves far less than the median of a few
    # 200-step runs would; contention only ever adds time.
    "sampling_n8": Workload("single_mode_mhd.cfg", (("snapshots", True),), steps=20, summary=min),
}


def environment(seed: int) -> dict:
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "seed": seed,
    }


def setup_once(workload: Workload, seed: int) -> float:
    """Config -> basis -> initial state, the part of a run before stepping."""
    t0 = time.perf_counter()
    cfg = workload.run_config(seed)
    basis = harness.build_basis_for(cfg)
    harness.build_initial_state(cfg, basis)
    return time.perf_counter() - t0


def time_setup(workload: Workload, seed: int) -> list[float]:
    times: list[float] = []
    while len(times) < SETUP_MIN_REPS or sum(times) < SETUP_MIN_SECONDS:
        times.append(setup_once(workload, seed))
    return times


class Checker:
    """Correctness gate: status, invariant flags, step count, and a
    ``diagnostics.csv`` byte-identical to the first run of the same input."""

    def __init__(self, expected_steps: int):
        self.expected_steps = expected_steps
        self.reference: dict[int, bytes] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def check(self, report, outdir: Path, seed: int) -> None:
        self.attempted += 1
        problems = []
        if report.status != "completed":
            problems.append(f"status {report.status}: {report.summary.get('error', '')}")
        if not report.summary.get("invariant_flags_ok"):
            problems.append("invariant flags not ok")
        if report.summary.get("n_steps") != self.expected_steps:
            problems.append(f"{report.summary.get('n_steps')} steps, expected {self.expected_steps}")
        csv = (outdir / "diagnostics.csv").read_bytes() if (outdir / "diagnostics.csv").exists() else b""
        if self.reference.setdefault(seed, csv) != csv:
            problems.append(f"diagnostics.csv differs from the first run of seed {seed}")
        if problems:
            self.failed += 1
            self.errors.append("; ".join(problems))


def one_run(cfg, seed: int, checker: Checker, tracer=None) -> tuple[float, int, int]:
    """One ``harness.run`` with outputs; returns (wall s, steps, bytes written)."""
    outdir = Path(tempfile.mkdtemp(dir=WORK_DIR))
    try:
        t0 = time.perf_counter()
        if tracer is None:
            report = harness.run(cfg, output_dir=str(outdir), seed=seed, quiet=True)
        else:
            report = tracer.call(tracing.RUN, harness.run, cfg, output_dir=str(outdir), seed=seed, quiet=True)
        wall = time.perf_counter() - t0
        checker.check(report, outdir, seed)
        written = sum(p.stat().st_size for p in outdir.iterdir())
        return wall, int(report.summary.get("n_steps", 0)), written
    finally:
        shutil.rmtree(outdir, ignore_errors=True)


def expected_steps(cfg) -> int:
    return int(round(cfg.step.t_end / cfg.step.dt))


def measure(name: str, seed: int, seconds: float) -> dict:
    workload = WORKLOADS[name]
    start = time.perf_counter()
    inputs = workload.inputs(seed)
    setup = time_setup(workload, inputs[0][0])
    checker = Checker(expected_steps(inputs[0][1]))
    one_run(inputs[0][1], inputs[0][0], checker)  # warm-up and determinism reference
    # A pass runs every input once, so each pass does the same work; wall_s
    # is the workload's summary (median or fastest) of the passes' mean run times.
    n = len(inputs)
    walls = []
    while (len(walls) < n * MIN_TIMED_PASSES or len(walls) % n
           or time.perf_counter() - start + walls[-1] <= seconds):
        s, cfg = inputs[(len(walls) + 1) % n]
        wall, _, written = one_run(cfg, s, checker)
        walls.append(wall)
    setup_s = statistics.median(setup)
    wall_s = workload.summary([statistics.fmean(walls[i:i + n]) for i in range(0, len(walls), n)])
    metrics = {
        "wall_s": wall_s,
        "setup_s": setup_s,
        "ms_per_step": 1e3 * (wall_s - setup_s) / checker.expected_steps,
    }
    detail = {
        "input_seeds": [s for s, _ in inputs],
        "walls_s": walls,
        "wall_summary": workload.summary.__name__,
        "setup_reps": len(setup),
        "setup_quartiles_s": statistics.quantiles(setup, n=4),
        "steps_per_run": checker.expected_steps,
        "bytes_written": written,
    }
    return {"metrics": metrics, "checker": checker, "detail": detail}


def measure_traced(name: str, seed: int, seconds: float) -> dict:
    """Alternate untraced and traced runs of the same input, so that the
    overhead ratio compares like with like; layer metrics use traced runs."""
    workload = WORKLOADS[name]
    start = time.perf_counter()
    inputs = workload.inputs(seed)
    checker = Checker(expected_steps(inputs[0][1]))
    one_run(inputs[0][1], inputs[0][0], checker)  # warm-up and determinism reference
    tracer = tracing.Tracer()
    modules = (sp, cst, gal, itg, diag, harness)
    with tracer.installed(*modules):
        for _ in range(SETUP_MIN_REPS):
            setup_once(workload, inputs[0][0])
    untraced, traced, steps = [], [], 0
    while len(traced) < max(2, len(inputs)) or time.perf_counter() - start <= seconds:
        s, cfg = inputs[len(traced) % len(inputs)]
        untraced.append(one_run(cfg, s, checker)[0])
        with tracer.installed(*modules):
            wall, n, written = one_run(cfg, s, checker, tracer)
        traced.append(wall)
        steps += n
    metrics, shares = tracing.layer_metrics(tracer.spans, steps)
    metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(untraced)
    metrics["harness.bytes_written"] = written
    trace_path = ROOT / ".bench_results" / f"spans-{name}-seed{seed}.csv"
    trace_path.parent.mkdir(exist_ok=True)
    tracer.write_csv(trace_path)
    detail = {
        "input_seeds": [s for s, _ in inputs],
        "shares": shares,
        "untraced_walls_s": untraced,
        "traced_walls_s": traced,
        "spans": len(tracer.spans),
        "span_file": str(trace_path.relative_to(ROOT)),
    }
    return {"metrics": metrics, "checker": checker, "detail": detail}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    WORK_DIR.mkdir(exist_ok=True)
    measure_fn = measure_traced if args.trace else measure
    out = measure_fn(args.workload, args.seed, args.seconds)
    checker = out["checker"]
    print(json.dumps({
        "metrics": out["metrics"],
        "attempted": checker.attempted,
        "failed": checker.failed,
        "errors": checker.errors,
        "detail": out["detail"],
        "environment": environment(args.seed),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
