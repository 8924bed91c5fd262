"""End-to-end acceptance suite.

Each test implements one verification contract at its stated tolerance and
prints a single pass/fail line with its runtime.  The shipped configuration
files under ``configs/`` are the testcases; trajectory recorders from the
per-case runs are cached so the decay-envelope criterion can audit every
sample of every shipped testcase.
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
from specmhd.config import load_config, replace_config

from helpers import (
    oracle_dense_grid,
    oracle_mesh,
    oracle_scalar_mode,
    oracle_scalar_mode_grad,
    oracle_vector_field,
    oracle_vector_field_curl,
    oracle_vector_field_grad,
    oracle_vector_mode,
    oracle_vector_mode_curl,
    oracle_vector_mode_grad,
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


def _run_config(cfg):
    rep = harness.run(cfg, quiet=True, write_outputs=False)
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
        rng = np.random.default_rng(42)
        n = 10_000
        rho, theta, d = cst.sample_admissible(p, n, rng)
        s = cst.stress_tensor(p, rho, theta, d)
        d2 = cst.frobenius_sq(d)
        power = 0.5 * (p.power_law_exponent - 2.0)
        coercivity = np.sum(s * d, axis=(-2, -1)) - p.viscosity_min * d2**power * d2
        assert np.all(coercivity >= -1e-12), "coercivity violated"

        growth = p.viscosity_max * d2**power * np.sqrt(d2) - np.sqrt(cst.frobenius_sq(s))
        assert np.all(growth >= -1e-12), "growth bound violated"

        _, _, b = cst.sample_admissible(p, n, rng)
        sb = cst.stress_tensor(p, rho, theta, b)
        monotone = np.sum((s - sb) * (d - b), axis=(-2, -1))
        assert np.all(monotone >= -1e-12), "monotonicity violated"

        grad = rng.normal(size=(n, 3))
        q = cst.heat_flux(p, rho, theta, grad)
        g2 = np.sum(grad * grad, axis=-1)
        talpha = theta**p.conductivity_exponent
        assert np.all(
            np.sum(q * grad, axis=-1) >= p.conductivity_min * talpha * g2 - 1e-12
        ), "flux coercivity violated"
        assert np.all(
            np.sqrt(np.sum(q * q, axis=-1)) <= p.conductivity_max * talpha * np.sqrt(g2) + 1e-12
        ), "flux growth violated"
        t.finish(f"4 x {n} samples, zero violations beyond 1e-12")


def test_criterion_2_discrete_energy_identity():
    with _Timer("discrete energy identity", 120.0) as t:
        base = load_config(CONFIGS / "single_mode_mhd.cfg")
        details = []
        for eps in (0.0, 1e-3):
            maxima = []
            for dt in (1e-4, 5e-5):
                cfg = replace_config(
                    base,
                    density_regularization=eps,
                    step=dataclasses.replace(base.step, dt=dt),
                )
                rep = _run_config(cfg)
                _RUNS[f"single_mode_mhd eps={eps} dt={dt}"] = rep.recorder
                maxima.append(diag.energy_balance(rep.recorder)["max_abs_residual"])
            ratio = diag.residual_order(maxima[0], maxima[1])
            assert maxima[0] < 1e-6, f"residual {maxima[0]:.3e} at dt=1e-4, eps={eps}"
            assert 3.5 <= ratio <= 4.5, f"halving ratio {ratio:.3f} at eps={eps}"
            details.append(f"eps={eps}: max residual {maxima[0]:.2e}, ratio {ratio:.2f}")
        t.finish("; ".join(details))


def test_criterion_3_density_maximum_principle():
    with _Timer("density maximum principle", 60.0) as t:
        cfg = load_config(CONFIGS / "layered_density.cfg")
        rep = _run_config(cfg)
        _RUNS["layered_density"] = rep.recorder
        assert rep.summary["n_steps"] == 500
        drift = rep.summary["monitors"]["rho_drift_rate_max"]
        assert drift < 1e-10, f"density drift rate {drift:.3e}"
        t.finish(f"500 steps, min/max drift rate {drift:.3e} per unit time")


def test_criterion_4_magnetic_decay_oracle():
    with _Timer("magnetic decay oracle", 10.0) as t:
        cfg = load_config(CONFIGS / "magnetic_decay.cfg")
        rep = _run_config(cfg)
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
        basis = sp.build_basis(2.0 * np.pi, 12, 20)
        params = cst.ConstitutiveParams(power_law_exponent=3.0)
        rng = np.random.default_rng(99)
        g = basis.grid_points
        rho_spec = np.zeros((g, g, g), dtype=complex)
        rho_spec[0, 0, 0] = 1.0
        nb = min(21, basis.n_scalar_modes)
        bvec = np.zeros(nb)
        bvec[0] = np.sqrt(basis.volume)
        a = 0.5 * rng.normal(size=20)
        c = 0.5 * rng.normal(size=20)
        state = gal.SimState(
            t=0.0,
            rho=sp.Field("scalar", "spectral", rho_spec, basis.box_size),
            a=a,
            b=bvec,
            c=c,
            basis=basis,
        )
        mesh = oracle_mesh(basis.box_size, oracle_dense_grid(basis))
        u = oracle_vector_field(basis, a, mesh)
        grad_u = oracle_vector_field_grad(basis, a, mesh)
        h = oracle_vector_field(basis, c, mesh)
        curl_h = oracle_vector_field_curl(basis, c, mesh)
        nu = params.magnetic_diffusivity
        ops = gal.GalerkinOperators(params, basis)
        worst = 0.0

        # induction matrix, both the curl-tested and the pointwise-advective form
        for form in ("weak", "advective"):
            a_mat = ops.induction_matrix(ops.fields(state), form=form)
            for i in range(20):
                pi_i = oracle_vector_mode(basis, i, mesh)
                curl_i = oracle_vector_mode_curl(basis, i, mesh)
                grad_i = oracle_vector_mode_grad(basis, i, mesh)
                for j in range(20):
                    curl_j = oracle_vector_mode_curl(basis, j, mesh)
                    diff = nu * riemann(basis.box_size, np.sum(curl_i * curl_j, axis=0))
                    if form == "weak":
                        w = np.cross(u, pi_i, axisa=0, axisb=0, axisc=0)
                        tr = -riemann(basis.box_size, np.sum(w * curl_j, axis=0))
                    else:
                        pi_j = oracle_vector_mode(basis, j, mesh)
                        adv = np.einsum("mxyz,imxyz->ixyz", u, grad_i)
                        stretch = np.einsum("mxyz,imxyz->ixyz", pi_i, grad_u)
                        tr = -riemann(basis.box_size, np.sum((adv + stretch) * pi_j, axis=0))
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
        strain_m = grad_u_m + np.swapaxes(grad_u_m, 0, 1)
        stress_m = cst.stress_tensor(params, 1.0, 1.0, np.moveaxis(strain_m, (0, 1), (-2, -1)))
        s_dot_d = np.sum(np.moveaxis(stress_m, (-2, -1), (0, 1)) * strain_m, axis=(0, 1))
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
        t.finish(f"worst entry mismatch {worst:.2e} across both matrix forms and projections")


def test_criterion_6_vector_identities():
    with _Timer("vector identities", 10.0) as t:
        basis = sp.build_basis(2.0 * np.pi, 16, 24)
        rng = np.random.default_rng(123)
        worst = 0.0
        for _ in range(5):
            u = sp.Field.from_spectral(basis.synth_vector(rng.normal(size=24)), basis.box_size)
            h = sp.Field.from_spectral(basis.synth_vector(rng.normal(size=24)), basis.box_size)
            rep = diag.vector_identity_check(basis, u, h, nu=0.9)
            worst = max(worst, rep["max_defect"])
        assert worst < 1e-10, f"pointwise defect {worst:.3e}"
        t.finish(f"max pointwise defect {worst:.2e} over 5 random field pairs")


def test_criterion_7_functional_inequality_constants():
    with _Timer("functional inequality constants", 10.0) as t:
        basis = sp.build_basis(2.0 * np.pi, 16, 24)
        rep = diag.functional_inequality_check(basis, n_fields=100, seed=17)
        poincare_err = abs(rep["poincare_lowest_mode_ratio"] - rep["poincare_constant"])
        assert poincare_err < 1e-12, f"lowest-mode ratio off by {poincare_err:.3e}"
        assert rep["korn_worst_ratio"] <= 1.0 + 1e-10, f"korn ratio {rep['korn_worst_ratio']}"
        t.finish(
            f"poincare equality to {poincare_err:.1e}, korn worst {rep['korn_worst_ratio']:.6f}"
        )


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


def test_criterion_9_magnetic_decay_bound():
    with _Timer("magnetic decay envelope", 120.0) as t:
        for name in ("orszag_tang", "random_band"):
            rep = _run_config(load_config(CONFIGS / f"{name}.cfg"))
            _RUNS[name] = rep.recorder
        assert _RUNS, "no cached runs"
        audited = 0
        for name, recorder in _RUNS.items():
            bound = diag.decay_bound_report(recorder)
            assert bound["ok"], f"decay bound violated in {name}"
            audited += len(recorder.records)
        t.finish(f"{audited} samples audited across {len(_RUNS)} shipped runs")


def test_criterion_10_determinism(tmp_path):
    with _Timer("determinism", 60.0) as t:
        cfg = load_config(CONFIGS / "magnetic_decay.cfg")
        harness.run(cfg, output_dir=str(tmp_path / "a"), quiet=True)
        harness.run(cfg, output_dir=str(tmp_path / "b"), quiet=True)
        a = (tmp_path / "a" / "diagnostics.csv").read_bytes()
        b = (tmp_path / "b" / "diagnostics.csv").read_bytes()
        assert a == b, "diagnostics CSV differs between identical runs"
        t.finish(f"byte-identical CSV ({len(a)} bytes) across two runs")
