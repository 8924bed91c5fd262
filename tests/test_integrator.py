import numpy as np
import pytest

from specmhd import constitutive as cst
from specmhd import diagnostics as diag
from specmhd import galerkin as gal
from specmhd import integrator as itg
from specmhd import spectral as sp
from specmhd.errors import BlowUpError, ConfigError, InvariantViolation

L = 2.0 * np.pi


@pytest.fixture(scope="module")
def basis():
    # 36 modes: full first and second shells, so triad couplings are active
    return sp.build_basis(L, 8, 36)


@pytest.fixture()
def params():
    return cst.ConstitutiveParams(power_law_exponent=3.0)


def plain_state(basis, theta0=1.0, rho0=1.0):
    g = basis.grid_points
    rho_spec = np.zeros((g, g, g), dtype=complex)
    rho_spec[0, 0, 0] = rho0
    b = np.zeros(min(basis.k_modes + 1, basis.n_scalar_modes))
    b[0] = theta0 * np.sqrt(basis.volume)
    return gal.SimState(
        t=0.0,
        rho=sp.Field("scalar", "spectral", rho_spec, L),
        a=np.zeros(basis.k_modes),
        b=b,
        c=np.zeros(basis.k_modes),
        basis=basis,
    )


def run(params, basis, state, dt, t_end, scheme="implicit-midpoint", eps=0.0, cadence=1):
    cfg = itg.StepConfig(dt=dt, t_end=t_end, scheme=scheme)
    rec = diag.TrajectoryRecorder(params, basis, eps_density=eps)
    summary = itg.integrate(params, basis, state, cfg, observers=[rec], eps_density=eps, cadence=cadence)
    return summary, rec


class TestStepBasics:
    def test_zero_state_is_fixed_point(self, basis, params):
        st = plain_state(basis)
        ops = gal.GalerkinOperators(params, basis)
        new, _ = itg.step(ops, st, itg.StepConfig(dt=0.05), ops.rates(ops.fields(st)))
        assert np.all(new.a == 0.0) and np.all(new.c == 0.0)
        np.testing.assert_allclose(new.b, st.b, rtol=1e-14)
        np.testing.assert_allclose(new.rho.data, st.rho.data, atol=1e-16)

    def test_config_validation(self):
        assert itg.StepConfig(dt=-1.0).validate()
        assert itg.StepConfig(solver_tolerance=1e-3).validate()
        assert itg.StepConfig(scheme="leapfrog").validate()
        assert not itg.StepConfig().validate()

    def test_invalid_initial_density_rejected(self, basis, params):
        st = plain_state(basis, rho0=5.0)  # above density_max
        with pytest.raises(ConfigError, match="initial state invalid"):
            itg.integrate(params, basis, st, itg.StepConfig(dt=1e-3, t_end=1e-3))


class TestMagneticDecayOracle:
    @pytest.mark.parametrize("scheme,tol", [("implicit-midpoint", 1e-6), ("imex-cn-ab2", 1e-6)])
    def test_single_mode_decay(self, basis, params, scheme, tol):
        st = plain_state(basis)
        st.c[0] = 0.5  # lowest shell, |k|^2 = 1
        summary, rec = run(params, basis, st, dt=1e-3, t_end=0.1, scheme=scheme)
        k2 = basis.vec_k2[0]
        h_norm = np.sqrt(2.0 * rec.records[-1].E_mag)
        expected = 0.5 * np.exp(-params.magnetic_diffusivity * k2 * 0.1)
        assert abs(h_norm - expected) / expected < tol
        # velocity stays numerically zero: single-mode Lorentz force is a gradient
        assert np.max(np.abs(summary.final_state.a)) < 1e-12

    def test_rk4_decay(self, basis, params):
        st = plain_state(basis)
        st.c[0] = 0.5
        _, rec = run(params, basis, st, dt=1e-3, t_end=0.05, scheme="explicit-rk4")
        h_norm = np.sqrt(2.0 * rec.records[-1].E_mag)
        expected = 0.5 * np.exp(-params.magnetic_diffusivity * basis.vec_k2[0] * 0.05)
        assert abs(h_norm - expected) / expected < 1e-9


class TestDensityDecayOracle:
    def test_heat_kernel_mode(self, basis, params):
        eps = 5e-3
        st = plain_state(basis)
        st.rho.data[1, 0, 0] = 0.1
        st.rho.data[-1, 0, 0] = 0.1
        summary, _ = run(params, basis, st, dt=1e-3, t_end=0.1, eps=eps)
        amp = summary.final_state.rho.data[1, 0, 0].real
        expected = 0.1 * np.exp(-eps * 1.0 * 0.1)
        assert abs(amp - expected) / expected < 1e-6


class TestEnergyResidual:
    def make_mhd_state(self, basis, with_density=True):
        st = plain_state(basis)
        st.a[0] = 0.5
        st.c[12] = 0.5  # second shell: couples back onto retained modes
        if with_density:
            st.rho.data[0, 0, 1] = 0.15
            st.rho.data[0, 0, -1] = 0.15
        return st

    @pytest.mark.parametrize("eps", [0.0, 1e-3])
    def test_residual_small_and_second_order(self, basis, params, eps):
        st = self.make_mhd_state(basis)
        _, rec1 = run(params, basis, st, dt=2e-3, t_end=0.02, eps=eps)
        _, rec2 = run(params, basis, st, dt=1e-3, t_end=0.02, eps=eps)
        r1 = diag.energy_balance(rec1)["max_abs_residual"]
        r2 = diag.energy_balance(rec2)["max_abs_residual"]
        assert r1 < 1e-6
        assert 3.5 <= diag.residual_order(r1, r2) <= 4.5

    def test_zero_state_zero_residual(self, basis, params):
        st = plain_state(basis)
        _, rec = run(params, basis, st, dt=1e-3, t_end=0.005)
        assert diag.energy_balance(rec)["max_abs_residual"] < 1e-14


class TestObserverContract:
    def test_t_end_zero_single_row(self, basis, params):
        st = plain_state(basis)
        summary, rec = run(params, basis, st, dt=1e-3, t_end=0.0)
        assert summary.n_steps == 0
        assert len(rec.records) == 1
        assert rec.records[0].t == 0.0

    def test_strictly_increasing_times(self, basis, params):
        st = plain_state(basis)
        st.c[0] = 0.3
        _, rec = run(params, basis, st, dt=1e-3, t_end=0.01, cadence=2)
        times = [r.t for r in rec.records]
        assert all(b > a for a, b in zip(times, times[1:]))

    def test_final_time_reached(self, basis, params):
        st = plain_state(basis)
        summary, _ = run(params, basis, st, dt=3e-4, t_end=0.001)
        assert summary.final_state.t == pytest.approx(0.001, abs=1e-12)


class TestGuards:
    def test_blowup_detected(self, basis, params):
        st = plain_state(basis)
        st.a[:12] = 1.0
        cfg = itg.StepConfig(dt=50.0, t_end=500.0, scheme="explicit-rk4")
        with np.errstate(all="ignore"), pytest.raises(BlowUpError, match="blow-up"):
            itg.integrate(params, basis, st, cfg)

    def test_clamp_policy_error(self, basis):
        params = cst.ConstitutiveParams(temperature_floor=2.0)
        st = plain_state(basis, theta0=1.0)  # below the floor everywhere
        st.c[0] = 0.1
        cfg = itg.StepConfig(dt=1e-3, t_end=0.01, theta_clamp="error")
        with pytest.raises(InvariantViolation, match="clamped"):
            itg.integrate(params, basis, st, cfg)

    def test_clamp_policy_count(self, basis):
        params = cst.ConstitutiveParams(temperature_floor=2.0)
        st = plain_state(basis, theta0=1.0)
        st.c[0] = 0.1
        summary, rec = run(params, basis, st, dt=1e-3, t_end=0.003)
        assert summary.clamp_total > 0
        assert rec.records[-1].clamp_count > 0


class TestRealization:
    @pytest.mark.parametrize("scheme", itg.SCHEMES)
    def test_each_state_realized_once(self, basis, params, monkeypatch, scheme):
        realized = []  # holding every state keeps its id from being reused
        fields = gal.GalerkinOperators.fields

        def recording(ops, state):
            realized.append(state)
            return fields(ops, state)

        monkeypatch.setattr(gal.GalerkinOperators, "fields", recording)
        st = plain_state(basis)
        st.a[0] = 0.3
        st.c[12] = 0.3
        summary, rec = run(params, basis, st, dt=1e-3, t_end=0.003, scheme=scheme, cadence=1)
        assert summary.n_steps == 3 and len(rec.records) == 4
        ids = [id(s) for s in realized]
        assert len(ids) == len(set(ids))

    @pytest.mark.parametrize("scheme", itg.SCHEMES)
    def test_each_rhs_computed_once_per_realization(self, basis, params, monkeypatch, scheme):
        seen = []  # holding every realization keeps its id from being reused
        for name in ("momentum_rhs", "induction_rhs"):
            def recording(ops, f, _orig=getattr(gal.GalerkinOperators, name), _name=name):
                seen.append((_name, f))
                return _orig(ops, f)

            monkeypatch.setattr(gal.GalerkinOperators, name, recording)
        st = plain_state(basis)
        st.a[0] = 0.3
        st.c[12] = 0.3
        summary, rec = run(params, basis, st, dt=1e-3, t_end=0.003, scheme=scheme, cadence=1)
        assert summary.n_steps == 3 and len(rec.records) == 4
        keys = [(name, id(f)) for name, f in seen]
        assert len(keys) == len(set(keys))
