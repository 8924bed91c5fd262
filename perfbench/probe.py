"""Per-call layer probe on the (N, K) grid {16, 32} x {32, 800}; started by
``run.py --probe``.

Times ``GalerkinOperators.rates``, ``galerkin.energy_report``,
``GalerkinOperators.velocity_mass`` and ``GalerkinOperators.solve_mass`` on
a ``random_band.cfg`` state with N grid points, K velocity and magnetic
modes and K/2 + 1 temperature modes.  Each figure is the median over repeated
calls.  This is per-layer output only; no gate depends on it.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from dataclasses import replace

from worker import ROOT, environment

from specmhd import galerkin as gal
from specmhd import harness
from specmhd.config import load_config

GRID = [(16, 32), (16, 800), (32, 32), (32, 800)]
MIN_CALLS = 3
MIN_SECONDS = 0.5
SEED = 7


def per_call_ms(fn) -> float:
    times: list[float] = []
    while len(times) < MIN_CALLS or sum(times) < MIN_SECONDS:
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def probe(n: int, k: int) -> dict:
    cfg = load_config(ROOT / "configs" / "random_band.cfg")
    cfg = replace(cfg, grid_points=n, velocity_modes=k, magnetic_modes=k, temperature_modes=k // 2 + 1)
    basis = harness.build_basis_for(cfg)
    state = harness.build_initial_state(cfg, basis)
    params, eps = cfg.constitutive, cfg.density_regularization
    ops = gal.GalerkinOperators(params, basis, eps)
    fields = ops.fields(state)
    mass = ops.velocity_mass(state, fields)
    rhs = ops.momentum_rhs(state, fields)
    return {
        "N": n,
        "K": k,
        "rates": per_call_ms(lambda: ops.rates(state)),
        "energy_report": per_call_ms(lambda: gal.energy_report(params, state, eps)),
        "velocity_mass": per_call_ms(lambda: ops.velocity_mass(state, fields)),
        "solve_mass": per_call_ms(lambda: ops.solve_mass(mass, rhs)),
    }


def main() -> int:
    table = [probe(n, k) for n, k in GRID]
    print(json.dumps({"unit": "ms per call", "table": table, "environment": environment(SEED)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
