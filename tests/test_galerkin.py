import re
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from specmhd import constitutive as cst
from specmhd import galerkin as gal
from specmhd import harness
from specmhd import integrator as itg
from specmhd import spectral as sp
from specmhd.config import load_config, sweep_cells
from specmhd.errors import MassSolveError
from specmhd.initial_conditions import build_initial_state

from helpers import (
    induction_matrix,
    lorentz_flipped,
    make_state,
    oracle_dense_grid,
    oracle_mesh,
    oracle_scalar_mode,
    oracle_thermal_mass,
    oracle_vector_field,
    oracle_vector_field_curl,
    oracle_vector_field_grad,
    oracle_vector_mode,
    oracle_vector_mode_curl,
    oracle_velocity_mass,
    riemann,
)

L = 2.0 * np.pi


# 20 modes span two spectral shells, so triad couplings (Lorentz work,
# transport exchange) are active and the identities are tested for real
K = 20


@pytest.fixture(scope="module")
def basis():
    return sp.build_basis(L, 12)


@pytest.fixture()
def params():
    return cst.ConstitutiveParams(power_law_exponent=3.0, stress_smoothing=1e-8)


@pytest.fixture()
def ops(basis, params):
    return gal.GalerkinOperators(params, basis)


def uniform_rho_state(basis, a=None, b=None, c=None, rho0=1.0, theta0=1.0):
    bvec = np.zeros(K + 1)
    bvec[0] = theta0 * np.sqrt(basis.volume)
    if b is not None:
        bvec[: len(b)] = b
    rho = basis.zero_spectrum()
    rho[0, 0, 0] = rho0
    return gal.SimState(
        t=0.0,
        rho=rho,
        a=np.zeros(K) if a is None else np.asarray(a, dtype=float),
        b=bvec,
        c=np.zeros(K) if c is None else np.asarray(c, dtype=float),
        basis=basis,
    )


class TestDensityRhs:
    def test_constant_density_solenoidal_velocity(self, basis, params):
        rng = np.random.default_rng(0)
        st = uniform_rho_state(basis, a=0.5 * rng.normal(size=K))
        rate = gal.GalerkinOperators(params, basis).fields(st).density_rate
        assert np.max(np.abs(rate)) < 1e-14

    def test_heat_kernel_mode(self, basis, params):
        eps = 1e-2
        st = uniform_rho_state(basis)
        st.rho[1, 0, 0] = 0.05
        rate = gal.GalerkinOperators(params, basis, eps_density=eps).fields(st).density_rate
        expected = basis.zero_spectrum()
        expected[1, 0, 0] = -eps * 1.0 * 0.05
        np.testing.assert_allclose(rate, expected, atol=1e-15)

    def test_mean_is_zero(self, basis, params):
        rng = np.random.default_rng(1)
        st = make_state(basis, rng, K)
        rate = gal.GalerkinOperators(params, basis, eps_density=1e-3).fields(st).density_rate
        assert abs(rate[0, 0, 0]) < 1e-16


class TestMomentumRhs:
    def test_zero_state(self, basis, ops):
        st = uniform_rho_state(basis)
        assert np.max(np.abs(ops.momentum_rhs(ops.fields(st)))) < 1e-13

    def test_stokes_stress_single_mode(self, basis):
        # newtonian limit: stress entry is -mu (D(u), D(psi_j)) = -2 mu |k|^2 a
        p = cst.ConstitutiveParams(power_law_exponent=2.0, stress_smoothing=0.5)
        a = np.zeros(K)
        a[0] = 0.7
        st = uniform_rho_state(basis, a=a)
        ops = gal.GalerkinOperators(p, basis)
        rhs = ops.momentum_rhs(ops.fields(st))
        expected = -2.0 * 1.0 * basis.vec_k2[0] * 0.7
        assert rhs[0] == pytest.approx(expected, rel=1e-12)
        # convection of a single mode vanishes, so other entries are tiny
        others = np.delete(rhs, 0)
        assert np.max(np.abs(others)) < 1e-12

    def test_lorentz_projection_vs_oracle(self, basis, ops):
        rng = np.random.default_rng(2)
        c = 0.8 * rng.normal(size=K)
        st = uniform_rho_state(basis, c=c)
        rhs = ops.momentum_rhs(ops.fields(st))  # u = 0: only the Lorentz term
        gd = oracle_dense_grid(basis)
        mesh = oracle_mesh(L, gd)
        h = oracle_vector_field(basis, c, mesh)
        curl_h = oracle_vector_field_curl(basis, c, mesh)
        lorentz = np.cross(curl_h, h, axisa=0, axisb=0, axisc=0)
        for j in range(K):
            psi = oracle_vector_mode(basis, j, mesh)
            want = riemann(L, np.sum(lorentz * psi, axis=0))
            assert rhs[j] == pytest.approx(want, abs=1e-10)


class TestThermalRhs:
    def test_zero_fields_uniform_theta(self, basis, ops):
        st = uniform_rho_state(basis)
        rhs = ops.thermal_rhs(ops.fields(st))
        assert np.max(np.abs(rhs)) < 1e-12

    def test_magnetic_source_vs_oracle(self, basis, params, ops):
        rng = np.random.default_rng(3)
        c = 0.6 * rng.normal(size=K)
        st = uniform_rho_state(basis, c=c)
        rhs = ops.thermal_rhs(ops.fields(st))
        gd = oracle_dense_grid(basis)
        mesh = oracle_mesh(L, gd)
        curl_h = oracle_vector_field_curl(basis, c, mesh)
        src = params.magnetic_diffusivity * np.sum(curl_h**2, axis=0)
        # u = 0 and theta uniform: flux and transport vanish, sources remain
        for j in range(len(st.b)):
            om = oracle_scalar_mode(basis, j, mesh)
            want = riemann(L, src * om)
            assert rhs[j] == pytest.approx(want, abs=1e-10)

    def test_source_positivity(self, basis, ops):
        rng = np.random.default_rng(4)
        st = make_state(basis, rng, K)
        f = ops.fields(st)
        # add back the density coupling -(rho_t Q(theta), omega_0) of the same
        # realization, as the galerkin.heat_balance check does
        coupling = basis.volume / f.m**3 * np.sum(f.rho_t_m * f.heat_m) / np.sqrt(basis.volume)
        rhs = ops.thermal_rhs(f)
        # constant-mode entry is (S:D(u) + nu |curl H|^2, 1) / sqrt(V) >= 0
        assert rhs[0] + coupling >= -1e-12

    def test_heat_balance_identity(self, basis, params):
        st = make_state(basis, np.random.default_rng(5), K)
        f = gal.GalerkinOperators(params, basis, eps_density=2e-3).fields(st)
        ok, detail = harness.CHECKS["galerkin.heat_balance"](fields=f)
        assert ok, detail


class TestInductionMatrix:
    def test_pure_diffusion(self, basis, params, ops):
        st = uniform_rho_state(basis)
        a_mat = induction_matrix(ops, st)
        np.testing.assert_allclose(
            a_mat, np.diag(params.magnetic_diffusivity * basis.vec_k2[:K]), atol=1e-13
        )

    def test_entries_vs_dense_quadrature(self, basis, params, ops):
        rng = np.random.default_rng(6)
        a = 0.5 * rng.normal(size=K)
        st = uniform_rho_state(basis, a=a)
        a_mat = induction_matrix(ops, st)
        gd = oracle_dense_grid(basis)
        mesh = oracle_mesh(L, gd)
        u = oracle_vector_field(basis, a, mesh)
        nu = params.magnetic_diffusivity
        k = K
        want = np.zeros((k, k))
        for i in range(k):
            pi_i = oracle_vector_mode(basis, i, mesh)
            curl_i = oracle_vector_mode_curl(basis, i, mesh)
            w = np.cross(u, pi_i, axisa=0, axisb=0, axisc=0)
            for j in range(k):
                curl_j = oracle_vector_mode_curl(basis, j, mesh)
                diff = nu * riemann(L, np.sum(curl_i * curl_j, axis=0))
                tr = -riemann(L, np.sum(w * curl_j, axis=0))
                want[j, i] = diff + tr
        np.testing.assert_allclose(a_mat, want, atol=1e-10)

    def test_weak_matrix_reproduces_evolution(self, basis, ops):
        # induction_rhs is linear in c: the columns reassemble it at any c
        rng = np.random.default_rng(15)
        st = make_state(basis, rng, K, amp=0.5)
        a_mat = induction_matrix(ops, st)
        rhs = ops.induction_rhs(ops.fields(st))
        np.testing.assert_allclose(-a_mat @ st.c, rhs, atol=1e-11)

    def test_transport_energy_exchange_identity(self, basis, params, ops):
        # c^T (A - A_diff) c equals -(integral of H^T grad(u) H + 0.5 grad|H|^2 . u)
        rng = np.random.default_rng(7)
        a = 0.5 * rng.normal(size=K)
        c = 0.5 * rng.normal(size=K)
        st = uniform_rho_state(basis, a=a, c=c)
        a_mat = induction_matrix(ops, st)
        a_diff = np.diag(params.magnetic_diffusivity * basis.vec_k2[:K])
        quad_form = float(c @ (a_mat - a_diff) @ c)
        gd = oracle_dense_grid(basis)
        mesh = oracle_mesh(L, gd)
        u = oracle_vector_field(basis, a, mesh)
        h = oracle_vector_field(basis, c, mesh)
        grad_u = oracle_vector_field_grad(basis, a, mesh)
        grad_h = oracle_vector_field_grad(basis, c, mesh)
        hgh = np.einsum("ixyz,imxyz,mxyz->xyz", h, grad_u, h)
        grad_h2 = 2.0 * np.einsum("ixyz,imxyz->mxyz", h, grad_h)
        exchange = riemann(L, hgh + 0.5 * np.sum(grad_h2 * u, axis=0))
        assert quad_form == pytest.approx(-exchange, abs=1e-10)


class TestMassMatrices:
    def test_unit_density_is_identity(self, basis, ops):
        st = uniform_rho_state(basis)
        m = ops.velocity_mass(ops.fields(st))
        np.testing.assert_allclose(m, np.eye(K), atol=1e-13)

    def test_constant_density_scales(self, basis, ops):
        st = uniform_rho_state(basis, rho0=1.7)
        m = ops.velocity_mass(ops.fields(st))
        np.testing.assert_allclose(m, 1.7 * np.eye(K), atol=1e-13)

    def test_eigenvalues_within_density_range(self, basis, ops):
        st = make_state(basis, np.random.default_rng(8), K, rho_amp=0.4)
        ok, detail = harness.CHECKS["galerkin.mass_matrices"](fields=ops.fields(st))
        assert ok, detail

    def test_velocity_mass_vs_dense_quadrature(self, basis, ops):
        rng = np.random.default_rng(9)
        st = make_state(basis, rng, K, rho_amp=0.4)
        m = ops.velocity_mass(ops.fields(st))
        gd = oracle_dense_grid(basis)
        mesh = oracle_mesh(L, gd)
        # density on the dense grid straight from its spectrum by direct evaluation
        g = basis.grid_points
        spec = st.rho
        x, y, z = mesh
        rho_dense = np.zeros_like(x)
        ints = np.fft.fftfreq(g, d=1.0 / g).astype(int)
        base = 2.0 * np.pi / L
        nz = np.argwhere(np.abs(spec) > 1e-14)
        for ix, iy, iz in nz:
            kvec = base * np.array([ints[ix], ints[iy], ints[iz]])
            term = np.real(
                spec[ix, iy, iz] * np.exp(1j * (kvec[0] * x + kvec[1] * y + kvec[2] * z))
            )
            # the x-half spectrum stores the conjugate partner at -n only for nx = 0
            rho_dense += term if ix == 0 else 2.0 * term
        for i in range(0, K, 5):
            psi_i = oracle_vector_mode(basis, i, mesh)
            for j in range(0, K, 7):
                psi_j = oracle_vector_mode(basis, j, mesh)
                want = riemann(L, rho_dense * np.sum(psi_i * psi_j, axis=0))
                assert m[i, j] == pytest.approx(want, abs=1e-11)

    def test_thermal_mass_constant_heat(self, basis, ops):
        st = uniform_rho_state(basis, rho0=2.0)
        n = ops.thermal_mass(ops.fields(st))
        np.testing.assert_allclose(n, 2.0 * np.eye(len(st.b)), atol=1e-12)

    def test_rates_synthesize_each_spectrum_once(self, basis, ops, monkeypatch):
        st = make_state(basis, np.random.default_rng(2), K)
        calls = []

        def counted(name):
            raw = getattr(basis, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return raw(*args, **kwargs)

            return wrapper

        for name in ("synth_vector", "synth_scalar"):
            monkeypatch.setattr(basis, name, counted(name))
        f = ops.fields(st)
        ops.rates(f)
        # velocity and magnetic field on the base grid, where curl H serves
        # the Lorentz force and the Joule heating; velocity and temperature
        # on the oversampled grid
        assert sorted(calls) == ["synth_scalar"] + ["synth_vector"] * 3
        # the shared oversampled spectra do not outlive their two grids
        assert not {"c_u_m", "c_theta_m"} & f.__dict__.keys()

    def test_not_spd_raises(self, basis, ops):
        f = ops.fields(uniform_rho_state(basis, rho0=-1.0))
        with pytest.raises(MassSolveError, match="not positive definite"):
            ops.solve_mass(ops.velocity_mass(f), np.zeros(K))

    def test_not_finite_raises(self, basis, ops):
        st = uniform_rho_state(basis)
        st.rho[0, 0, 0] = np.nan
        with pytest.raises(MassSolveError, match="not finite"):
            ops.solve_mass(ops.velocity_mass(ops.fields(st)), np.zeros(K))

    # partial groups: 4 vector modes share a wavevector, 2 scalar modes after the constant
    @pytest.mark.parametrize("k_u", [1, 2, 3, 5, 21, 22, 23])
    def test_velocity_mass_bitwise_vs_entrywise(self, basis, ops, k_u):
        st = make_state(basis, np.random.default_rng(k_u), k_u, k_c=K, rho_amp=0.4)
        f = ops.fields(st)
        assert_bitwise(ops.velocity_mass(f), oracle_velocity_mass(f))

    @pytest.mark.parametrize("form", cst.SPECIFIC_HEAT_FORMS)
    @pytest.mark.parametrize("k_b", [1, 2, 3, 18, 21])
    def test_thermal_mass_bitwise_vs_entrywise(self, basis, k_b, form):
        params = cst.ConstitutiveParams(
            specific_heat_form=form, specific_heat_min=1.0, specific_heat_max=3.0
        )
        ops = gal.GalerkinOperators(params, basis)
        st = make_state(basis, np.random.default_rng(k_b), K, k_b=k_b, rho_amp=0.4)
        f = ops.fields(st)
        assert_bitwise(ops.thermal_mass(f), oracle_thermal_mass(f))


def spd_system(k):
    rng = np.random.default_rng(k)
    a = rng.normal(size=(k, k))
    return a @ a.T / k + np.eye(k), rng.normal(size=k)


class TestMassSolve:
    @pytest.mark.parametrize("k", [1, 63, 64, 65, 129, 800])
    def test_matches_dense_solve(self, k):
        mat, rhs = spd_system(k)
        want = np.linalg.solve(mat, rhs)
        got = gal.GalerkinOperators.solve_mass(mat, rhs)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    @pytest.mark.parametrize("k", [1, 2, 20, 63, 64])
    def test_one_block_is_two_solves(self, k):
        mat, rhs = spd_system(k)
        lo = np.linalg.cholesky(mat)
        want = np.linalg.solve(lo.T, np.linalg.solve(lo, rhs))
        assert_bitwise(gal.GalerkinOperators.solve_mass(mat, rhs), want)


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def heat_params(form):
    return cst.ConstitutiveParams(specific_heat_form=form, specific_heat_min=1.0, specific_heat_max=3.0)


def assert_dense_solve(x, gram, rhs):
    """``x`` solves the Gram system to 1e-12 relative."""
    want = np.linalg.solve(gram, rhs)
    assert np.linalg.norm(x - want) <= 1e-12 * np.linalg.norm(want)


# every vector and scalar mode under the cutoff at N=16: 1028 and 515
@pytest.fixture(scope="module")
def basis16():
    return sp.build_basis(L, 16)


class TestMatrixFreeMass:
    """CG on the matrix-free mass operators against the dense Gram solve."""

    # partial groups: 4 vector modes share a wavevector, 2 scalar modes after the constant
    @pytest.mark.parametrize("form", cst.SPECIFIC_HEAT_FORMS)
    @pytest.mark.parametrize("k", [1, 3, 23])
    def test_partial_groups_match_dense(self, basis, form, k):
        ops = gal.GalerkinOperators(heat_params(form), basis)
        f = ops.fields(make_state(basis, np.random.default_rng(k), k, k_b=k, k_c=K, rho_amp=0.4))
        rhs = np.random.default_rng(100 + k).normal(size=(2, k))
        assert_dense_solve(ops.solve_mass(gal.MassOperator.velocity(f), rhs[0]), oracle_velocity_mass(f), rhs[0])
        assert_dense_solve(ops.solve_mass(gal.MassOperator.thermal(f), rhs[1]), oracle_thermal_mass(f), rhs[1])

    # the rule's crossover at N=16: K > 343 vector modes on the base grid,
    # K > 329 scalar modes on the oversampled grid; then every mode
    @pytest.mark.parametrize("form", cst.SPECIFIC_HEAT_FORMS)
    @pytest.mark.parametrize("k_u,k_b", [(343, 329), (344, 330), (1028, 515)])
    def test_rates_on_each_side_of_the_rule(self, basis16, form, k_u, k_b):
        ops = gal.GalerkinOperators(heat_params(form), basis16)
        f = ops.fields(make_state(basis16, np.random.default_rng(k_u), k_u, k_b=k_b, k_c=1028, rho_amp=0.4))
        above = k_u > 343
        assert isinstance(ops.velocity_mass(f), gal.MassOperator) == above
        assert isinstance(ops.thermal_mass(f), gal.MassOperator) == above
        rates = ops.rates(f)
        assert_dense_solve(rates.da, oracle_velocity_mass(f), ops.momentum_rhs(f))
        assert_dense_solve(rates.db, oracle_thermal_mass(f), ops.thermal_rhs(f))

    def test_rule_is_dense_below_the_benchmark_sizes(self):
        """Every shipped config and sweep cell, and the N=32, K=32 shape,
        stay on the dense path; the 800-mode velocity and 401-mode thermal
        systems at N=16 do not."""
        shapes = [(32, 32, 33)]
        for path in CONFIGS.glob("*.cfg"):
            cfg = load_config(path)
            for run in [cfg, *sweep_cells(cfg)]:
                shapes.append((run.grid_points, max(run.velocity_modes, run.magnetic_modes), run.temperature_modes))
        assert len(shapes) > 7
        for n, k_u, k_b in shapes:
            m = sp.DivFreeSpectralBasis(L, n).oversample_grid()
            assert not gal.matrix_free(k_u, n, 3) and not gal.matrix_free(k_b, m, 1), (n, k_u, k_b)
        assert gal.matrix_free(800, 16, 3) and gal.matrix_free(401, 24, 1)

    @pytest.mark.parametrize("check", ["galerkin.heat_balance", "galerkin.energy_identity"])
    def test_registered_checks_above_the_rule(self, basis16, check):
        """400 velocity and 401 temperature modes at N=16, where both mass
        systems are matrix-free.  (From the |k|^2 = 17 velocity shell on,
        520 modes and more, the energy identity misses its bound on either
        mass path.)"""
        ops = gal.GalerkinOperators(heat_params("saturating"), basis16, eps_density=1e-3)
        f = ops.fields(make_state(basis16, np.random.default_rng(6), 400, k_b=401, k_c=1028, rho_amp=0.4))
        assert isinstance(ops.velocity_mass(f), gal.MassOperator)
        assert isinstance(ops.thermal_mass(f), gal.MassOperator)
        ok, detail = harness.CHECKS[check](fields=f)
        assert ok, detail

    @pytest.mark.parametrize("which", ["velocity", "thermal"])
    @pytest.mark.parametrize("value", ["negative", "nan"])
    def test_bad_weight_names_point_and_value(self, basis, ops, which, value):
        st = uniform_rho_state(basis, rho0=0.99)
        if value == "nan":
            st.rho[0, 0, 0] = np.nan
            want = r"nan at grid point \(0, 0, 0\)"
        else:
            # rho = 0.99 + cos(x) is negative at the grid points x = pi alone
            basis.set_amplitude(st.rho, (1, 0, 0), 0.5)
            g = basis.grid_points if which == "velocity" else basis.oversample_grid()
            want = rf"-0\.01 at grid point \({g // 2}, 0, 0\) of the {g}\^3 quadrature grid"
        op = getattr(gal.MassOperator, which)(ops.fields(st))
        with pytest.raises(MassSolveError, match=want):
            ops.solve_mass(op, np.ones(op.count))

    def test_iteration_cap_names_count_and_residual(self, basis, ops, monkeypatch):
        monkeypatch.setattr(gal, "_cg_iteration_cap", lambda ratio: 2)
        f = ops.fields(make_state(basis, np.random.default_rng(4), K, rho_amp=0.4))
        rhs = np.random.default_rng(5).normal(size=K)
        with pytest.raises(MassSolveError, match=r"after 2 iterations at relative residual \d\.\d{3}e-\d+ > 1e-14"):
            ops.solve_mass(gal.MassOperator.velocity(f), rhs)

    def test_iteration_cap_follows_the_weight_ratio(self):
        # uniform weight: one iteration is exact
        assert gal._cg_iteration_cap(1.0) == 2
        caps = [gal._cg_iteration_cap(r) for r in (1.5, 4.0, 16.0)]
        # CG takes 13-14 iterations on the 800-mode input, weight ratio 1.47
        assert caps == sorted(caps) and caps[0] >= 2 * 14

    def test_full_modes_at_n32_through_cg(self):
        """One rates call with all 8336 vector and 4169 scalar modes at N=32,
        where a dense velocity mass would take 556 MB."""
        cfg = load_config(CONFIGS / "random_band.cfg")
        cfg = replace(cfg, grid_points=32, velocity_modes=8336, magnetic_modes=8336, temperature_modes=4169)
        basis32 = sp.build_basis(cfg.box_size, 32)
        state = build_initial_state(cfg, basis32)
        ops = gal.GalerkinOperators(cfg.constitutive, basis32, cfg.density_regularization)
        rates = ops.rates(ops.fields(state))
        assert all(np.all(np.isfinite(x)) for x in rates.parts())
        assert ops.counters.cg_iterations > ops.counters.cg_iterations_max > 0


def cg_solve(ops, op, rhs, guess=None):
    """``op``'s CG solution and the iterations it took."""
    before = ops.counters.cg_iterations
    x = ops.solve_mass(op, rhs, guess)
    return x, ops.counters.cg_iterations - before


MASSES = {
    "velocity": (gal.MassOperator.velocity, oracle_velocity_mass, "momentum_rhs", "da"),
    "thermal": (gal.MassOperator.thermal, oracle_thermal_mass, "thermal_rhs", "db"),
}


class TestGuessedMassSolve:
    """CG started from a guess, as the midpoint stages start it."""

    @pytest.fixture(params=sorted(MASSES))
    def nearby(self, request, basis):
        """The mass operator, right-hand side, dense oracle and the previous
        state's solution, for a state one short Euler step past a random one."""
        operator, oracle, rhs_name, part = MASSES[request.param]
        ops = gal.GalerkinOperators(heat_params("saturating"), basis)
        st = make_state(basis, np.random.default_rng(8), K, rho_amp=0.4)
        before = ops.rates(ops.fields(st))
        f = ops.fields(itg._advance(st, st.t + 1e-3, 1e-3, before))
        return ops, operator(f), getattr(ops, rhs_name)(f), oracle(f), getattr(before, part)

    def test_nearby_guess_saves_iterations(self, nearby):
        ops, op, rhs, gram, guess = nearby
        cold, n_cold = cg_solve(ops, op, rhs)
        warm, n_warm = cg_solve(ops, op, rhs, guess)
        assert_dense_solve(cold, gram, rhs)
        assert_dense_solve(warm, gram, rhs)
        assert 0 < n_warm < n_cold

    def test_far_guess_starts_from_zero(self, nearby):
        ops, op, rhs, gram, _ = nearby
        cold, n_cold = cg_solve(ops, op, rhs)
        # residual 9 ||rhs||, so CG starts from zero as without a guess
        far, n_far = cg_solve(ops, op, rhs, 10.0 * cold)
        assert_dense_solve(far, gram, rhs)
        assert n_far == n_cold
        assert_bitwise(far, cold)

    def test_exact_guess_takes_no_iteration(self, nearby):
        ops, op, _, _, guess = nearby
        x, n = cg_solve(ops, op, op @ guess, guess)
        assert n == 0
        assert_bitwise(x, guess)

    def test_dense_path_ignores_the_guess(self, basis):
        ops = gal.GalerkinOperators(heat_params("saturating"), basis)
        f = ops.fields(make_state(basis, np.random.default_rng(9), K, rho_amp=0.4))
        assert not isinstance(ops.velocity_mass(f), gal.MassOperator)
        assert not isinstance(ops.thermal_mass(f), gal.MassOperator)
        cold = ops.rates(f)
        guess = gal.Rates(*(x + 1e-3 for x in cold.parts()))
        for got, want in zip(ops.rates(f, guess).parts(), cold.parts()):
            assert_bitwise(got, want)
        assert ops.counters.cg_iterations == 0


class TestRealizationWork:
    """Scalar 3-D transforms per call on the ``transform_n32`` benchmark
    state (random_band, N=32, K=32, eps 1e-3), by direction and grid size,
    each leading component counted, as the benchmark's tracer counts them.
    A field realized twice, or on a grid its quadrature does not need,
    shows here."""

    @pytest.fixture()
    def n32(self):
        cfg = load_config(CONFIGS / "random_band.cfg")
        cfg = replace(cfg, grid_points=32, velocity_modes=32, magnetic_modes=32, temperature_modes=33)
        basis32 = harness.build_basis_for(cfg)
        ops = gal.GalerkinOperators(cfg.constitutive, basis32, cfg.density_regularization)
        assert ops.eps_density == 1e-3
        return ops, build_initial_state(cfg, basis32)

    @pytest.fixture()
    def transforms(self, monkeypatch):
        counts = Counter()
        for name in ("grid_to_spectral", "spectral_to_grid"):
            raw = getattr(sp.DivFreeSpectralBasis, name)

            def counted(arr, raw=raw, name=name):
                counts[name, arr.shape[-1]] += int(np.prod(arr.shape[:-3]))
                return raw(arr)

            monkeypatch.setattr(sp.DivFreeSpectralBasis, name, staticmethod(counted))
        return counts

    def test_rates(self, n32, transforms):
        ops, state = n32
        ops.rates(ops.fields(state))
        assert transforms == {
            ("grid_to_spectral", 32): 10,
            ("spectral_to_grid", 32): 22,
            ("grid_to_spectral", 48): 10,
            ("spectral_to_grid", 48): 15,
        }

    def test_energy_report_on_a_fresh_realization(self, n32, transforms):
        ops, state = n32
        gal.energy_report(ops.fields(state))
        assert transforms == {
            ("spectral_to_grid", 32): 5,
            ("spectral_to_grid", 48): 8,
            ("grid_to_spectral", 48): 1,
        }


def assert_bitwise(got, want):
    assert got.shape == want.shape
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


# the default forms, then one change each; the default cases are named by
# eps alone
IDENTITY_FORMS = {
    "default": {},
    "density_temperature_viscosity": dict(viscosity_form="density_temperature", viscosity_min=0.5, viscosity_max=2.0),
    "r2.5": dict(power_law_exponent=2.5),
    "r4": dict(power_law_exponent=4.0),
    "unsmoothed_stress": dict(stress_smoothing=0.0),
    "saturating_heat_affine_conductivity": dict(
        specific_heat_form="saturating", specific_heat_min=1.0, specific_heat_max=3.0,
        conductivity_form="density_affine", conductivity_min=0.5, conductivity_max=2.0,
    ),
}
IDENTITY_CASES = [
    pytest.param(form, eps, id=str(eps) if form == "default" else f"{form}-{eps}")
    for form in IDENTITY_FORMS
    for eps in (0.0, 1e-3)
]


class TestEnergyIdentity:
    @pytest.mark.parametrize("form,eps", IDENTITY_CASES)
    def test_semi_discrete_energy_identity(self, basis, form, eps):
        params = cst.ConstitutiveParams(**IDENTITY_FORMS[form])
        assert not cst.validate_params(params)
        st = make_state(basis, np.random.default_rng(10), K, amp=0.6, rho_amp=0.3)
        f = gal.GalerkinOperators(params, basis, eps).fields(st)
        ok, detail = harness.CHECKS["galerkin.energy_identity"](fields=f)
        assert ok, detail

    # The check at N=16 below and on the |k|^2 = 17 velocity shell, which
    # holds modes 513-608: the density rate keeps |n|^2 <= 25 (the basis
    # cutoff), so div(rho u) loses the |n|^2 = 26 products of a |k|^2 = 17
    # velocity mode and a |k| = 1 density mode that (rho (u.grad)u, u) keeps.
    # With the mask off, 540 modes close the identity to 0.
    MASKED = pytest.mark.xfail(strict=True, reason="the density-rate mask drops |n|^2 = 26: defect 6.0e-8, scale 1.15")

    @pytest.mark.parametrize("k", [500, pytest.param(540, marks=MASKED)])
    def test_identity_at_the_17_shell(self, basis16, k):
        st = make_state(basis16, np.random.default_rng(6), k, rho_amp=0.4)
        f = gal.GalerkinOperators(cst.ConstitutiveParams(), basis16).fields(st)
        ok, detail = harness.CHECKS["galerkin.energy_identity"](fields=f)
        assert ok, detail

    def test_identity_detects_lorentz_sign_flip(self, basis, ops):
        st = make_state(basis, np.random.default_rng(11), K, amp=0.6)
        f = lorentz_flipped(ops.fields(st))
        ok, detail = harness.CHECKS["galerkin.energy_identity"](fields=f)
        assert not ok, detail
        defect, scale = map(float, re.fullmatch(r"defect (\S+) vs scale (\S+)", detail).groups())
        assert defect > 1e-6 * scale

    def test_report_monitors(self, basis, params):
        rng = np.random.default_rng(12)
        st = make_state(basis, rng, K)
        rep = gal.energy_report(gal.GalerkinOperators(params, basis, eps_density=1e-3).fields(st))
        assert rep["E_kin"] >= 0 and rep["E_mag"] >= 0
        assert rep["D_visc"] >= 0 and rep["D_mag"] >= 0
        assert rep["div_u_max"] < 1e-12 and rep["div_H_max"] < 1e-12
        assert rep["korn_ratio"] == pytest.approx(1.0 / np.sqrt(2.0), rel=1e-9)
