"""End-to-end acceptance suite.

Each test checks one verification contract at its stated tolerance and
prints a single pass/fail line with its runtime; criteria 1, 6, 7 and 10 run
the registered checks of ``harness.CHECKS`` on their own inputs.  The
shipped configuration files under ``configs/`` are the testcases; trajectory
recorders from the per-case runs are cached so the decay-envelope criterion
can audit every sample of every shipped testcase.
"""

import dataclasses
import time
from pathlib import Path

import numpy as np

from specmhd import constitutive as cst
from specmhd import diagnostics as diag
from specmhd import galerkin as gal
from specmhd import harness
from specmhd import spectral as sp
from specmhd.config import load_config

from helpers import (
    induction_matrix,
    oracle_dense_grid,
    oracle_mesh,
    oracle_scalar_mode,
    oracle_scalar_mode_grad,
    oracle_vector_field,
    oracle_vector_field_curl,
    oracle_vector_field_grad,
    oracle_vector_mode,
    oracle_vector_mode_curl,
    riemann,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# recorders cached by earlier criteria so the decay-bound audit covers them
_RUNS: dict[str, diag.TrajectoryRecorder] = {}


class _Timer:
    def __init__(self, name, budget):
        self.name = name
        self.budget = budget

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def finish(self, detail=""):
        elapsed = time.perf_counter() - self.t0
        print(f"\n[PASS] {self.name} ({elapsed:.1f}s / budget {self.budget:.0f}s) {detail}")
        assert elapsed < self.budget, f"{self.name} exceeded its runtime budget"

    def __exit__(self, exc_type, exc, tb):
        if exc_type is not None:
            elapsed = time.perf_counter() - self.t0
            print(f"\n[FAIL] {self.name} ({elapsed:.1f}s) {exc}")
        return False


def _run_config(cfg, outdir):
    rep = harness.run(cfg, output_dir=str(outdir), quiet=True)
    assert rep.status == "completed", rep.summary
    return rep


def test_criterion_1_constitutive_inequality_suite():
    with _Timer("constitutive inequality suite", 10.0) as t:
        p = cst.ConstitutiveParams(
            power_law_exponent=2.7,
            stress_smoothing=0.0,
            viscosity_min=0.5,
            viscosity_max=2.0,
            viscosity_form="density_temperature",
            conductivity_exponent=1.0,
            conductivity_min=0.5,
            conductivity_max=2.0,
            conductivity_form="density_affine",
        )
        ok, detail = harness.CHECKS["constitutive.inequalities"](params=p)
        assert ok, detail
        t.finish(detail)


def test_criterion_2_discrete_energy_identity(tmp_path):
    with _Timer("discrete energy identity", 120.0) as t:
        base = load_config(CONFIGS / "single_mode_mhd.cfg")
        details = []
        for eps in (0.0, 1e-3):
            maxima = []
            for dt in (1e-4, 5e-5):
                cfg = dataclasses.replace(
                    base,
                    density_regularization=eps,
                    step=dataclasses.replace(base.step, dt=dt),
                )
                rep = _run_config(cfg, tmp_path / f"eps{eps}-dt{dt}")
                _RUNS[f"single_mode_mhd eps={eps} dt={dt}"] = rep.recorder
                maxima.append(rep.summary["final"]["max_abs_energy_residual"])
            ratio = maxima[0] / maxima[1]
            assert maxima[0] < 1e-6, f"residual {maxima[0]:.3e} at dt=1e-4, eps={eps}"
            assert 3.5 <= ratio <= 4.5, f"halving ratio {ratio:.3f} at eps={eps}"
            details.append(f"eps={eps}: max residual {maxima[0]:.2e}, ratio {ratio:.2f}")
        t.finish("; ".join(details))


def test_criterion_3_density_maximum_principle(tmp_path):
    with _Timer("density maximum principle", 60.0) as t:
        cfg = load_config(CONFIGS / "layered_density.cfg")
        rep = _run_config(cfg, tmp_path)
        _RUNS["layered_density"] = rep.recorder
        assert rep.summary["n_steps"] == 500
        drift = rep.summary["monitors"]["rho_drift_rate_max"]
        assert drift < 1e-10, f"density drift rate {drift:.3e}"
        t.finish(f"500 steps, min/max drift rate {drift:.3e} per unit time")


def test_criterion_4_magnetic_decay_oracle(tmp_path):
    with _Timer("magnetic decay oracle", 10.0) as t:
        cfg = load_config(CONFIGS / "magnetic_decay.cfg")
        rep = _run_config(cfg, tmp_path)
        _RUNS["magnetic_decay"] = rep.recorder
        rec = rep.recorder.records[-1]
        nu = cfg.constitutive.magnetic_diffusivity
        amp = cfg.initial_params["magnetic_amplitude"]
        k2 = 1.0  # lowest shell of the 2 pi box
        expected = amp * np.exp(-nu * k2 * rec.t)
        got = np.sqrt(2.0 * rec.E_mag)
        err = abs(got - expected) / expected
        assert err < 1e-6, f"relative decay error {err:.3e}"
        t.finish(f"relative error {err:.2e} vs closed form at t={rec.t}")


def test_criterion_5_galerkin_operator_oracles():
    with _Timer("Galerkin operator oracles", 60.0) as t:
        basis = sp.build_basis(2.0 * np.pi, 12)
        params = cst.ConstitutiveParams(power_law_exponent=3.0)
        rng = np.random.default_rng(99)
        rho_spec = basis.zero_spectrum()
        rho_spec[0, 0, 0] = 1.0
        nb = min(21, basis.n_scalar_modes)
        bvec = np.zeros(nb)
        bvec[0] = np.sqrt(basis.volume)
        a = 0.5 * rng.normal(size=20)
        c = 0.5 * rng.normal(size=20)
        state = gal.SimState(
            t=0.0,
            rho=rho_spec,
            a=a,
            b=bvec,
            c=c,
            basis=basis,
        )
        mesh = oracle_mesh(basis.box_size, oracle_dense_grid(basis))
        u = oracle_vector_field(basis, a, mesh)
        h = oracle_vector_field(basis, c, mesh)
        curl_h = oracle_vector_field_curl(basis, c, mesh)
        nu = params.magnetic_diffusivity
        ops = gal.GalerkinOperators(params, basis)
        worst = 0.0

        # induction matrix of the solver's induction right-hand side
        a_mat = induction_matrix(ops, state)
        for i in range(20):
            pi_i = oracle_vector_mode(basis, i, mesh)
            curl_i = oracle_vector_mode_curl(basis, i, mesh)
            w = np.cross(u, pi_i, axisa=0, axisb=0, axisc=0)
            for j in range(20):
                curl_j = oracle_vector_mode_curl(basis, j, mesh)
                diff = nu * riemann(basis.box_size, np.sum(curl_i * curl_j, axis=0))
                tr = -riemann(basis.box_size, np.sum(w * curl_j, axis=0))
                worst = max(worst, abs(a_mat[j, i] - (diff + tr)))

        # Lorentz projection (velocity zeroed so the entries isolate the force)
        state_h = gal.SimState(0.0, state.rho, np.zeros(20), bvec, c, basis)
        rhs = ops.momentum_rhs(ops.fields(state_h))
        lorentz = np.cross(curl_h, h, axisa=0, axisb=0, axisc=0)
        for j in range(20):
            psi = oracle_vector_mode(basis, j, mesh)
            want = riemann(basis.box_size, np.sum(lorentz * psi, axis=0))
            worst = max(worst, abs(rhs[j] - want))

        # thermal source projections on the assembly quadrature grid
        m_grid = basis.oversample_grid()
        mesh_m = oracle_mesh(basis.box_size, m_grid)
        u_m = oracle_vector_field(basis, a, mesh_m)
        grad_u_m = oracle_vector_field_grad(basis, a, mesh_m)
        curl_h_m = oracle_vector_field_curl(basis, c, mesh_m)
        strain_m = np.stack([grad_u_m[i, j] + grad_u_m[j, i] for i, j in cst.SYM_PAIRS])
        stress_m = cst.stress_tensor(params, 1.0, 1.0, strain_m)
        s_dot_d = cst.contract(stress_m, strain_m)
        source = nu * np.sum(curl_h_m**2, axis=0) + s_dot_d
        transport = 1.0 * 1.0 * u_m  # rho Q(theta) u with unit density and heat
        th = ops.thermal_rhs(ops.fields(state))
        for j in range(nb):
            om = oracle_scalar_mode(basis, j, mesh_m)
            grad_om = oracle_scalar_mode_grad(basis, j, mesh_m)
            want = riemann(
                basis.box_size, source * om + np.sum(transport * grad_om, axis=0)
            )
            worst = max(worst, abs(th[j] - want))

        assert worst < 1e-10, f"worst oracle mismatch {worst:.3e}"
        t.finish(f"worst entry mismatch {worst:.2e} across the induction matrix and projections")


def test_criterion_6_vector_identities():
    with _Timer("vector identities", 10.0) as t:
        basis = sp.build_basis(2.0 * np.pi, 16)
        ok, detail = harness.CHECKS["diagnostics.vector_identities"](basis=basis, modes=24)
        assert ok, detail
        t.finish(detail)


def test_criterion_7_functional_inequality_constants():
    with _Timer("functional inequality constants", 10.0) as t:
        basis = sp.build_basis(2.0 * np.pi, 16)
        ok, detail = harness.CHECKS["diagnostics.functional_inequalities"](basis=basis, modes=24)
        assert ok, detail
        t.finish(detail)


def test_criterion_8_limit_studies(tmp_path):
    with _Timer("limit studies", 900.0) as t:
        modes = harness.convergence_study(
            load_config(CONFIGS / "sweep_modes.cfg"), output_dir=str(tmp_path / "modes"), quiet=True
        )
        assert not modes.aborted_cells
        assert modes.strictly_decreasing, f"mode sweep pairs {modes.pairs}"
        eps = harness.convergence_study(
            load_config(CONFIGS / "sweep_eps.cfg"), output_dir=str(tmp_path / "eps"), quiet=True
        )
        assert not eps.aborted_cells
        assert eps.strictly_decreasing, f"eps sweep pairs {eps.pairs}"
        u_ratio = modes.pairs[0]["u_diff"] / modes.pairs[1]["u_diff"]
        rho_ratio = eps.pairs[0]["rho_diff"] / eps.pairs[1]["rho_diff"]
        t.finish(
            f"mode-sweep u ratio {u_ratio:.2f}, regularization-sweep rho ratio {rho_ratio:.2f}"
        )


def test_criterion_9_magnetic_decay_bound(tmp_path):
    with _Timer("magnetic decay envelope", 120.0) as t:
        for name in ("orszag_tang", "random_band"):
            rep = _run_config(load_config(CONFIGS / f"{name}.cfg"), tmp_path / name)
            _RUNS[name] = rep.recorder
        assert _RUNS, "no cached runs"
        audited = 0
        for name, recorder in _RUNS.items():
            assert all(r.decay_ok for r in recorder.records), f"decay bound violated in {name}"
            audited += len(recorder.records)
        t.finish(f"{audited} samples audited across {len(_RUNS)} shipped runs")


def test_criterion_10_determinism():
    with _Timer("determinism", 60.0) as t:
        cfg = load_config(CONFIGS / "magnetic_decay.cfg")
        ok, detail = harness.CHECKS["harness.determinism"](cfg=cfg)
        assert ok, detail
        t.finish(detail)
