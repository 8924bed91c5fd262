"""The span tracer of the benchmark (``perfbench/tracing.py``) on one traced
run: it wraps the solver's layer boundaries by name, so a renamed or
re-owned boundary shows here before it breaks a ``--trace 1`` benchmark."""

import dataclasses
import importlib.util
import json
from pathlib import Path

import pytest

from specmhd import constitutive as cst
from specmhd import diagnostics as diag
from specmhd import galerkin as gal
from specmhd import harness
from specmhd import integrator as itg
from specmhd import spectral as sp
from specmhd.config import load_config

ROOT = Path(__file__).resolve().parent.parent
MODULES = (sp, cst, gal, itg, diag, harness)
OWNERS = MODULES + (sp.DivFreeSpectralBasis, gal.GalerkinOperators, diag.TrajectoryRecorder)


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_run_matches_the_summary(tmp_path):
    tracing = _tracing()
    cfg = load_config(ROOT / "configs" / "magnetic_decay.cfg")
    cfg = dataclasses.replace(cfg, step=dataclasses.replace(cfg.step, t_end=3 * cfg.step.dt))
    originals = [(owner, dict(vars(owner))) for owner in OWNERS]
    rates = gal.GalerkinOperators.rates
    tracer = tracing.Tracer()
    with tracer.installed(*MODULES):
        assert gal.GalerkinOperators.rates is not rates
        rep = tracer.call(tracing.RUN, harness.run, cfg, output_dir=str(tmp_path / "traced"), quiet=True)
    for owner, attrs in originals:
        assert all(vars(owner)[name] is value for name, value in attrs.items()), owner

    assert rep.exit_code == harness.EXIT_PASS
    n_steps = rep.summary["n_steps"]
    assert n_steps == 3
    monitors = json.loads((rep.output_dir / "summary.json").read_text())["monitors"]
    metrics, _ = tracing.layer_metrics(tracer.spans, n_steps)
    assert metrics["integrator.rhs_evals_per_step"] * n_steps == pytest.approx(monitors["rhs_evaluations"], rel=1e-12)
    assert metrics["integrator.step_samples"] == n_steps
