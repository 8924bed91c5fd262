import re

import numpy as np
import pytest

from specmhd import constitutive as cst
from specmhd import diagnostics as diag
from specmhd import galerkin as gal
from specmhd import harness
from specmhd import integrator as itg
from specmhd import spectral as sp

from helpers import make_state

L = 2.0 * np.pi


K = 24


@pytest.fixture(scope="module")
def basis():
    return sp.build_basis(L, 16)


@pytest.fixture()
def params():
    return cst.ConstitutiveParams()


def plain_state(basis, theta0=1.0):
    rho_spec = basis.zero_spectrum()
    rho_spec[0, 0, 0] = 1.0
    b = np.zeros(K + 1)
    b[0] = theta0 * np.sqrt(basis.volume)
    return gal.SimState(
        t=0.0,
        rho=rho_spec,
        a=np.zeros(K),
        b=b,
        c=np.zeros(K),
        basis=basis,
    )


def run(params, basis, state, dt, t_end, eps=0.0):
    cfg = itg.StepConfig(dt=dt, t_end=t_end)
    rec = diag.TrajectoryRecorder(params)
    itg.integrate(params, state, cfg, observers=[rec], eps_density=eps)
    return rec


VECTOR_IDENTITIES = harness.CHECKS["diagnostics.vector_identities"]
FUNCTIONAL_INEQUALITIES = harness.CHECKS["diagnostics.functional_inequalities"]


def pointwise_defect(detail):
    return float(re.match(r"max pointwise defect (\S+) over", detail).group(1))


class TestVectorIdentities:
    def test_single_mode_magnetic(self, basis):
        c = np.zeros(K)
        c[0] = 1.0
        h = basis.synth_vector(c)
        u = np.zeros_like(h)
        ok, detail = VECTOR_IDENTITIES(basis=basis, pairs=[(u, h)], nu=1.3)
        assert ok, detail
        assert pointwise_defect(detail) < 1e-12

    def test_random_band_limited(self, basis):
        rng = np.random.default_rng(1)
        u = basis.synth_vector(rng.normal(size=K))
        h = basis.synth_vector(rng.normal(size=K))
        ok, detail = VECTOR_IDENTITIES(basis=basis, pairs=[(u, h)], nu=0.7)
        assert ok, detail

    def test_zero_magnetic_field(self, basis):
        rng = np.random.default_rng(2)
        u = basis.synth_vector(rng.normal(size=K))
        h = np.zeros_like(u)
        ok, detail = VECTOR_IDENTITIES(basis=basis, pairs=[(u, h)], nu=1.0)
        assert ok, detail
        assert pointwise_defect(detail) == 0.0

    def test_aliased_white_noise_fails(self, basis):
        # given on the doubled grid, white noise has modes the cubic
        # products alias onto, so the identities cannot hold
        rng = np.random.default_rng(4)
        g = 2 * basis.grid_points
        u, h = (basis.grid_to_spectral(rng.normal(size=(3, g, g, g))) for _ in range(2))
        ok, detail = VECTOR_IDENTITIES(basis=basis, pairs=[(u, h)])
        assert not ok, detail
        assert pointwise_defect(detail) > 1.0


class TestFunctionalInequalities:
    # each input runs every assertion of the check: the Korn ratio is
    # 1/sqrt(2), the Poincare ratios stay under L/(2 pi), and the lowest
    # mode attains it
    def test_poincare_equality_lowest_mode(self, basis):
        ok, detail = FUNCTIONAL_INEQUALITIES(basis=basis, modes=K, n_fields=5, seed=0)
        assert ok, detail

    def test_korn_bound(self, basis):
        ok, detail = FUNCTIONAL_INEQUALITIES(basis=basis, modes=K, n_fields=100, seed=1)
        assert ok, detail

    def test_poincare_bound(self, basis):
        ok, detail = FUNCTIONAL_INEQUALITIES(basis=basis, modes=K, n_fields=50, seed=2)
        assert ok, detail


def max_abs_residual(rec):
    return max(abs(r.energy_residual) for r in rec.records)


class TestEnergyBalance:
    def test_zero_state(self, basis, params):
        rec = run(params, basis, plain_state(basis), dt=1e-3, t_end=0.004)
        assert max_abs_residual(rec) < 1e-14

    def test_decaying_mode_residual(self, basis, params):
        st = plain_state(basis)
        st.c[0] = 0.5
        rec = run(params, basis, st, dt=1e-4, t_end=0.01)
        assert max_abs_residual(rec) < 1e-8


class KineticTerms:
    """Observer recording, at each sample, the kinetic energy and the
    integrand of the transported kinetic-energy identity,
    ``(d/dt(rho u), u) - (rho u ox u, grad u)`` less half the density
    regularization's ``-eps (lap rho, |u|^2)``, from its own realization of
    the sampled state."""

    def __init__(self, params, basis, eps):
        self.ops = gal.GalerkinOperators(params, basis, eps)
        self.samples = []  # (t, E_kin, integrand)

    def __call__(self, state, report):
        f = self.ops.fields(state)
        b, eps = f.basis, self.ops.eps_density
        w_n = b.volume / f.n**3
        u2 = np.sum(f.u**2, axis=0)
        ddt_rho_kin = w_n * float(np.sum(b.spectral_to_grid(f.density_rate) * u2))
        adot_term = float(state.a @ self.ops.momentum_rhs(f))
        conv_term = w_n * float(np.sum(f.rho * np.einsum("ixyz,ixyz->xyz", f.conv, f.u)))
        integrand = ddt_rho_kin + adot_term - conv_term
        if eps:
            lap_rho = b.spectral_to_grid(self.ops._k2_n * state.rho)  # -lap(rho)
            integrand += 0.5 * eps * w_n * float(np.sum(lap_rho * u2))
        self.samples.append((report["t"], report["E_kin"], integrand))


def kinetic_identity_check(params, basis, state, dt, t_end, eps=0.0) -> dict:
    """Residual of the transported kinetic-energy identity over a run: the
    trapezoid time integral of the :class:`KineticTerms` integrand against
    the kinetic-energy difference, and the scale to compare it with."""
    obs = KineticTerms(params, basis, eps)
    itg.integrate(params, state, itg.StepConfig(dt=dt, t_end=t_end), observers=[obs], eps_density=eps)
    times, e_kin, integrand = (np.array(x) for x in zip(*obs.samples))
    total = float(np.trapezoid(integrand, times))
    delta_k = e_kin[-1] - e_kin[0]
    scale = abs(delta_k) + float(np.max(np.abs(integrand))) * (times[-1] - times[0]) + 1e-30
    return {"residual": total - delta_k, "scale": scale}


class TestKineticIdentity:
    def test_zero_state(self, basis, params):
        rep = kinetic_identity_check(params, basis, plain_state(basis), dt=1e-3, t_end=0.004)
        assert abs(rep["residual"]) < 1e-14

    def test_single_mode_viscous_decay(self, basis, params):
        st = plain_state(basis)
        st.a[0] = 0.5
        rep = kinetic_identity_check(params, basis, st, dt=1e-4, t_end=0.01)
        assert abs(rep["residual"]) < 1e-8

    def test_second_order_convergence(self, basis, params):
        st = plain_state(basis)
        st.a[0] = 0.6
        st.a[14] = 0.4  # second shell excites genuine convection
        st.c[12] = 0.5
        r = []
        for dt in (2e-3, 1e-3):
            r.append(abs(kinetic_identity_check(params, basis, st, dt=dt, t_end=0.02)["residual"]))
        assert 3.5 <= r[0] / r[1] <= 4.5

    def test_with_density_transport(self, basis, params):
        rng = np.random.default_rng(4)
        st = make_state(basis, rng, K, amp=0.4, rho_amp=0.2)
        eps = 1e-3
        rep = kinetic_identity_check(params, basis, st, dt=5e-4, t_end=0.01, eps=eps)
        assert abs(rep["residual"]) < 1e-7 * max(rep["scale"], 1e-9) + 1e-9


class TestMonitors:
    def test_apriori_zero_state(self, basis, params):
        rec = run(params, basis, plain_state(basis), dt=1e-3, t_end=0.003)
        rep = diag.apriori_monitor(rec)
        # the three quantities a modes sweep compares, and no others
        assert set(rep) == {"sup_energy", "strain_lr_time_integral", "sup_rho_theta_l1"}
        assert rep["sup_energy"] == 0.0
        assert rep["strain_lr_time_integral"] == 0.0
        # rho = theta = 1
        assert rep["sup_rho_theta_l1"] == pytest.approx(basis.volume, rel=1e-12)

    def test_apriori_decay_sup_at_start(self, basis, params):
        st = plain_state(basis)
        st.c[0] = 0.5
        rec = run(params, basis, st, dt=1e-3, t_end=0.02)
        energies = [r.E_kin + r.E_mag for r in rec.records]
        assert np.argmax(energies) == 0
        rep = diag.apriori_monitor(rec)
        assert rep["sup_energy"] == pytest.approx(energies[0])

    def test_csv_row_roundtrip_format(self, basis, params):
        rec = run(params, basis, plain_state(basis), dt=1e-3, t_end=0.002)
        row = diag.record_to_csv_row(rec.records[0])
        assert len(row.split(",")) == len(diag.CSV_COLUMNS)
