import numpy as np
import pytest

from specmhd import constitutive as cst
from specmhd import galerkin as gal
from specmhd import spectral as sp
from specmhd.errors import MassSolveError

from helpers import (
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
    oracle_vector_mode_grad,
    oracle_velocity_mass,
    riemann,
)

L = 2.0 * np.pi


# 20 modes span two spectral shells, so triad couplings (Lorentz work,
# transport exchange) are active and the identities are tested for real
@pytest.fixture(scope="module")
def basis():
    return sp.build_basis(L, 12, 20)


@pytest.fixture()
def params():
    return cst.ConstitutiveParams(power_law_exponent=3.0, stress_smoothing=1e-8)


@pytest.fixture()
def ops(basis, params):
    return gal.GalerkinOperators(params, basis)


def uniform_rho_state(basis, a=None, b=None, c=None, rho0=1.0, theta0=1.0):
    k = basis.k_modes
    nb = min(k + 1, basis.n_scalar_modes)
    bvec = np.zeros(nb)
    bvec[0] = theta0 * np.sqrt(basis.volume)
    if b is not None:
        bvec[: len(b)] = b
    rho_spec = np.zeros((basis.grid_points,) * 3, dtype=complex)
    rho_spec[0, 0, 0] = rho0
    rho = sp.Field("scalar", "spectral", rho_spec, L)
    return gal.SimState(
        t=0.0,
        rho=rho,
        a=np.zeros(k) if a is None else np.asarray(a, dtype=float),
        b=bvec,
        c=np.zeros(k) if c is None else np.asarray(c, dtype=float),
        basis=basis,
    )


class TestDensityRhs:
    def test_constant_density_solenoidal_velocity(self, basis, params):
        rng = np.random.default_rng(0)
        st = uniform_rho_state(basis, a=0.5 * rng.normal(size=basis.k_modes))
        rate = gal.GalerkinOperators(params, basis).fields(st).density_rate
        assert np.max(np.abs(rate)) < 1e-14

    def test_heat_kernel_mode(self, basis, params):
        eps = 1e-2
        st = uniform_rho_state(basis)
        g = basis.grid_points
        st.rho.data[1, 0, 0] = 0.05
        st.rho.data[-1, 0, 0] = 0.05
        rate = gal.GalerkinOperators(params, basis, eps_density=eps).fields(st).density_rate
        expected = np.zeros((g, g, g), dtype=complex)
        expected[1, 0, 0] = -eps * 1.0 * 0.05
        expected[-1, 0, 0] = -eps * 1.0 * 0.05
        np.testing.assert_allclose(rate, expected, atol=1e-15)

    def test_mean_is_zero(self, basis, params):
        rng = np.random.default_rng(1)
        st = make_state(basis, rng)
        rate = gal.GalerkinOperators(params, basis, eps_density=1e-3).fields(st).density_rate
        assert abs(rate[0, 0, 0]) < 1e-16


class TestMomentumRhs:
    def test_zero_state(self, basis, ops):
        st = uniform_rho_state(basis)
        assert np.max(np.abs(ops.momentum_rhs(ops.fields(st)))) < 1e-13

    def test_stokes_stress_single_mode(self, basis):
        # newtonian limit: stress entry is -mu (D(u), D(psi_j)) = -2 mu |k|^2 a
        p = cst.ConstitutiveParams(power_law_exponent=2.0, stress_smoothing=0.5)
        a = np.zeros(basis.k_modes)
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
        c = 0.8 * rng.normal(size=basis.k_modes)
        st = uniform_rho_state(basis, c=c)
        rhs = ops.momentum_rhs(ops.fields(st))  # u = 0: only the Lorentz term
        gd = oracle_dense_grid(basis)
        mesh = oracle_mesh(L, gd)
        h = oracle_vector_field(basis, c, mesh)
        curl_h = oracle_vector_field_curl(basis, c, mesh)
        lorentz = np.cross(curl_h, h, axisa=0, axisb=0, axisc=0)
        for j in range(basis.k_modes):
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
        c = 0.6 * rng.normal(size=basis.k_modes)
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
        st = make_state(basis, rng)
        rhs = ops.thermal_rhs(ops.fields(st), density_coupling=False)
        # constant-mode entry is (S:D(u) + nu |curl H|^2, 1) / sqrt(V) >= 0
        assert rhs[0] >= -1e-12

    def test_heat_balance_identity(self, basis, params):
        # sqrt(V) (N db/dt)_0 + (rho_t Q, 1) equals the integrated sources
        rng = np.random.default_rng(5)
        st = make_state(basis, rng)
        ops = gal.GalerkinOperators(params, basis, eps_density=2e-3)
        f = ops.fields(st)
        nmat = ops.thermal_mass(f)
        db = ops.solve_mass(nmat, ops.thermal_rhs(f))
        w_m = basis.volume / f.m**3
        heat = cst.thermal_energy(params, np.maximum(f.theta_m, 0.0))
        rho_t_m = basis.spectral_to_grid(basis.resample_spectrum(f.density_rate, f.m))
        lhs = np.sqrt(basis.volume) * (nmat @ db)[0] + w_m * np.sum(rho_t_m * heat)
        src = params.magnetic_diffusivity * np.sum(f.curl_H_m**2, axis=0) + f.viscous_power_m
        rhs = w_m * np.sum(src)
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)


class TestInductionMatrix:
    def test_pure_diffusion(self, basis, params, ops):
        st = uniform_rho_state(basis)
        a_mat = ops.induction_matrix(ops.fields(st))
        np.testing.assert_allclose(
            a_mat, np.diag(params.magnetic_diffusivity * basis.vec_k2[: basis.k_modes]), atol=1e-13
        )

    @pytest.mark.parametrize("form", ["weak", "advective"])
    def test_entries_vs_dense_quadrature(self, basis, params, ops, form):
        rng = np.random.default_rng(6)
        a = 0.5 * rng.normal(size=basis.k_modes)
        st = uniform_rho_state(basis, a=a)
        a_mat = ops.induction_matrix(ops.fields(st), form=form)
        gd = oracle_dense_grid(basis)
        mesh = oracle_mesh(L, gd)
        u = oracle_vector_field(basis, a, mesh)
        grad_u = oracle_vector_field_grad(basis, a, mesh)
        nu = params.magnetic_diffusivity
        k = basis.k_modes
        want = np.zeros((k, k))
        for i in range(k):
            pi_i = oracle_vector_mode(basis, i, mesh)
            curl_i = oracle_vector_mode_curl(basis, i, mesh)
            grad_i = oracle_vector_mode_grad(basis, i, mesh)
            for j in range(k):
                curl_j = oracle_vector_mode_curl(basis, j, mesh)
                diff = nu * riemann(L, np.sum(curl_i * curl_j, axis=0))
                if form == "weak":
                    w = np.cross(u, pi_i, axisa=0, axisb=0, axisc=0)
                    tr = -riemann(L, np.sum(w * curl_j, axis=0))
                else:
                    pi_j = oracle_vector_mode(basis, j, mesh)
                    adv = np.einsum("mxyz,imxyz->ixyz", u, grad_i)
                    stretch = np.einsum("mxyz,imxyz->ixyz", pi_i, grad_u)
                    tr = -riemann(L, np.sum((adv + stretch) * pi_j, axis=0))
                want[j, i] = diff + tr
        np.testing.assert_allclose(a_mat, want, atol=1e-10)

    def test_weak_matrix_reproduces_evolution(self, basis, ops):
        rng = np.random.default_rng(15)
        st = make_state(basis, rng, amp=0.5)
        f = ops.fields(st)
        a_mat = ops.induction_matrix(f)
        rhs = ops.induction_rhs(f)
        np.testing.assert_allclose(-a_mat @ st.c, rhs, atol=1e-11)

    def test_transport_energy_exchange_identity(self, basis, params, ops):
        # c^T (A - A_diff) c equals -(integral of H^T grad(u) H + 0.5 grad|H|^2 . u)
        rng = np.random.default_rng(7)
        a = 0.5 * rng.normal(size=basis.k_modes)
        c = 0.5 * rng.normal(size=basis.k_modes)
        st = uniform_rho_state(basis, a=a, c=c)
        a_mat = ops.induction_matrix(ops.fields(st))
        a_diff = np.diag(params.magnetic_diffusivity * basis.vec_k2[: basis.k_modes])
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
        np.testing.assert_allclose(m, np.eye(basis.k_modes), atol=1e-13)

    def test_constant_density_scales(self, basis, ops):
        st = uniform_rho_state(basis, rho0=1.7)
        m = ops.velocity_mass(ops.fields(st))
        np.testing.assert_allclose(m, 1.7 * np.eye(basis.k_modes), atol=1e-13)

    def test_eigenvalues_within_density_range(self, basis, ops):
        rng = np.random.default_rng(8)
        st = make_state(basis, rng, rho_amp=0.4)
        m = ops.velocity_mass(ops.fields(st))
        evals = np.linalg.eigvalsh(m)
        rho = st.rho.to_grid().data
        assert evals.min() >= rho.min() - 1e-8
        assert evals.max() <= rho.max() + 1e-8

    def test_velocity_mass_vs_dense_quadrature(self, basis, ops):
        rng = np.random.default_rng(9)
        st = make_state(basis, rng, rho_amp=0.4)
        m = ops.velocity_mass(ops.fields(st))
        gd = oracle_dense_grid(basis)
        mesh = oracle_mesh(L, gd)
        # density on the dense grid straight from its spectrum by direct evaluation
        g = basis.grid_points
        spec = st.rho.data
        x, y, z = mesh
        rho_dense = np.zeros_like(x)
        ints = np.fft.fftfreq(g, d=1.0 / g).astype(int)
        base = 2.0 * np.pi / L
        nz = np.argwhere(np.abs(spec) > 1e-14)
        for ix, iy, iz in nz:
            kvec = base * np.array([ints[ix], ints[iy], ints[iz]])
            rho_dense += np.real(
                spec[ix, iy, iz] * np.exp(1j * (kvec[0] * x + kvec[1] * y + kvec[2] * z))
            )
        for i in range(0, basis.k_modes, 5):
            psi_i = oracle_vector_mode(basis, i, mesh)
            for j in range(0, basis.k_modes, 7):
                psi_j = oracle_vector_mode(basis, j, mesh)
                want = riemann(L, rho_dense * np.sum(psi_i * psi_j, axis=0))
                assert m[i, j] == pytest.approx(want, abs=1e-11)

    def test_thermal_mass_constant_heat(self, basis, ops):
        st = uniform_rho_state(basis, rho0=2.0)
        n = ops.thermal_mass(ops.fields(st))
        np.testing.assert_allclose(n, 2.0 * np.eye(len(st.b)), atol=1e-12)

    def test_not_spd_raises(self, basis, ops):
        f = ops.fields(uniform_rho_state(basis, rho0=-1.0))
        with pytest.raises(MassSolveError, match="not positive definite"):
            ops.solve_mass(ops.velocity_mass(f), np.zeros(basis.k_modes))

    def test_not_finite_raises(self, basis, ops):
        st = uniform_rho_state(basis)
        st.rho.data[0, 0, 0] = np.nan
        with pytest.raises(MassSolveError, match="not finite"):
            ops.solve_mass(ops.velocity_mass(ops.fields(st)), np.zeros(basis.k_modes))

    # partial groups: 4 vector modes share a wavevector, 2 scalar modes after the constant
    @pytest.mark.parametrize("k_u", [1, 2, 3, 5, 21, 22, 23])
    def test_velocity_mass_bitwise_vs_entrywise(self, basis, ops, k_u):
        st = make_state(basis, np.random.default_rng(k_u), k_u=k_u, rho_amp=0.4)
        f = ops.fields(st)
        assert_bitwise(ops.velocity_mass(f), oracle_velocity_mass(f))

    @pytest.mark.parametrize("form", cst.SPECIFIC_HEAT_FORMS)
    @pytest.mark.parametrize("k_b", [1, 2, 3, 18, 21])
    def test_thermal_mass_bitwise_vs_entrywise(self, basis, k_b, form):
        params = cst.ConstitutiveParams(
            specific_heat_form=form, specific_heat_min=1.0, specific_heat_max=3.0
        )
        ops = gal.GalerkinOperators(params, basis)
        st = make_state(basis, np.random.default_rng(k_b), k_b=k_b, rho_amp=0.4)
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


def assert_bitwise(got, want):
    assert got.shape == want.shape
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


def identity_defect(params, st, eps_density=0.0):
    ops = gal.GalerkinOperators(params, st.basis, eps_density)
    rep = gal.energy_report(ops.fields(st), extras=False)
    return rep["identity_defect"], rep["identity_scale"]


class TestEnergyIdentity:
    @pytest.mark.parametrize("eps", [0.0, 1e-3])
    def test_semi_discrete_energy_identity(self, basis, params, eps):
        rng = np.random.default_rng(10)
        st = make_state(basis, rng, amp=0.6, rho_amp=0.3)
        defect, scale = identity_defect(params, st, eps_density=eps)
        assert defect < 1e-9 * scale

    def test_identity_detects_lorentz_sign_flip(self, basis, params):
        rng = np.random.default_rng(11)
        st = make_state(basis, rng, amp=0.6)
        old = gal._LORENTZ_SIGN
        try:
            gal._LORENTZ_SIGN = -1.0
            defect, scale = identity_defect(params, st)
        finally:
            gal._LORENTZ_SIGN = old
        assert defect > 1e-6 * scale

    def test_report_monitors(self, basis, params):
        rng = np.random.default_rng(12)
        st = make_state(basis, rng)
        rep = gal.energy_report(gal.GalerkinOperators(params, basis, eps_density=1e-3).fields(st))
        assert rep["E_kin"] >= 0 and rep["E_mag"] >= 0
        assert rep["D_visc"] >= 0 and rep["D_mag"] >= 0
        assert rep["div_u_max"] < 1e-12 and rep["div_H_max"] < 1e-12
        assert rep["korn_ratio"] == pytest.approx(1.0 / np.sqrt(2.0), rel=1e-9)
