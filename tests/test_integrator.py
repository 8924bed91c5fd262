import ast
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from specmhd import constitutive as cst
from specmhd import diagnostics as diag
from specmhd import galerkin as gal
from specmhd import harness
from specmhd import integrator as itg
from specmhd import spectral as sp
from specmhd.config import load_config
from specmhd.errors import BlowUpError, ConfigError, InvariantViolation, NonlinearSolveError
from specmhd.initial_conditions import build_initial_state

from helpers import forward_euler_started_run, plain_midpoint_step, stiff_random_band

L = 2.0 * np.pi
ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"


# 36 modes: full first and second shells, so triad couplings are active
K = 36


@pytest.fixture(scope="module")
def basis():
    return sp.build_basis(L, 8)


@pytest.fixture()
def params():
    return cst.ConstitutiveParams(power_law_exponent=3.0)


def plain_state(basis, theta0=1.0, rho0=1.0):
    rho_spec = basis.zero_spectrum()
    rho_spec[0, 0, 0] = rho0
    b = np.zeros(min(K + 1, basis.n_scalar_modes))
    b[0] = theta0 * np.sqrt(basis.volume)
    return gal.SimState(
        t=0.0,
        rho=rho_spec,
        a=np.zeros(K),
        b=b,
        c=np.zeros(K),
        basis=basis,
    )


def run(params, basis, state, dt, t_end, eps=0.0, cadence=1):
    cfg = itg.StepConfig(dt=dt, t_end=t_end)
    rec = diag.TrajectoryRecorder(params)
    summary = itg.integrate(params, state, cfg, observers=[rec], eps_density=eps, cadence=cadence)
    return summary, rec


class TestStepBasics:
    def test_zero_state_is_fixed_point(self, basis, params):
        st = plain_state(basis)
        ops = gal.GalerkinOperators(params, basis)
        new, _ = itg.step(ops, st, itg.StepConfig(), 0.05, ops.rates(ops.fields(st)))
        assert np.all(new.a == 0.0) and np.all(new.c == 0.0)
        np.testing.assert_allclose(new.b, st.b, rtol=1e-14)
        np.testing.assert_allclose(new.rho, st.rho, atol=1e-16)

    def test_config_validation(self):
        assert itg.StepConfig(dt=-1.0).validate()
        assert itg.StepConfig(solver_tolerance=1e-3).validate()
        assert not itg.StepConfig().validate()

    def test_invalid_initial_density_rejected(self, basis, params):
        st = plain_state(basis, rho0=5.0)  # above density_max
        with pytest.raises(ConfigError, match="initial state invalid"):
            itg.integrate(params, st, itg.StepConfig(dt=1e-3, t_end=1e-3))


class TestMagneticDecayOracle:
    def test_single_mode_decay(self):
        ok, detail = harness.CHECKS["integrator.magnetic_decay"]()
        assert ok, detail


class TestDensityDecayOracle:
    def test_heat_kernel_mode(self):
        # four times the check's default regularization
        ok, detail = harness.CHECKS["integrator.density_decay"](eps_density=2e-2)
        assert ok, detail


class TestEnergyResidual:
    def make_mhd_state(self, basis):
        st = plain_state(basis)
        st.a[0] = 0.5
        st.c[12] = 0.5  # second shell: couples back onto retained modes
        st.rho[0, 0, 1] = 0.15
        st.rho[0, 0, -1] = 0.15
        return st

    @pytest.mark.parametrize("eps", [0.0, 1e-3])
    def test_residual_small_and_second_order(self, basis, eps):
        check = harness.CHECKS["integrator.residual_order"]
        ok, detail = check(state=self.make_mhd_state(basis), eps_density=eps)
        assert ok, detail

    def test_zero_state_zero_residual(self, basis, params):
        st = plain_state(basis)
        _, rec = run(params, basis, st, dt=1e-3, t_end=0.005)
        assert max(abs(r.energy_residual) for r in rec.records) < 1e-14


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
        # with a[:12] = 1 the midpoint meets a mass matrix that is not SPD first
        st.a[:4] = 1.0
        cfg = itg.StepConfig(dt=50.0, t_end=500.0)
        with np.errstate(all="ignore"), pytest.raises(BlowUpError, match="blow-up detected at t=50"):
            itg.integrate(params, st, cfg)

    def test_clamp_policy_error(self, basis):
        params = cst.ConstitutiveParams(temperature_floor=2.0)
        st = plain_state(basis, theta0=1.0)  # below the floor everywhere
        st.c[0] = 0.1
        cfg = itg.StepConfig(dt=1e-3, t_end=0.01, theta_clamp="error")
        with pytest.raises(InvariantViolation, match="clamped"):
            itg.integrate(params, st, cfg)

    def test_abort_carries_the_trajectory(self, basis):
        params = cst.ConstitutiveParams(temperature_floor=2.0)
        st = plain_state(basis, theta0=1.0)
        st.c[0] = 0.1
        cfg = itg.StepConfig(dt=1e-3, t_end=0.01, theta_clamp="error")
        with pytest.raises(InvariantViolation) as caught:
            itg.integrate(params, st, cfg)
        traj = caught.value.trajectory
        # the monitor rejects the state of step 1, which the summary holds
        assert traj.n_steps == 1 and traj.final_state.t == pytest.approx(1e-3)
        assert traj.clamp_total > 0
        assert traj.monitors["rhs_evaluations"] == 1 + traj.monitors["stage_iterations"] >= 2

    def test_clamp_policy_count(self, basis):
        params = cst.ConstitutiveParams(temperature_floor=2.0)
        st = plain_state(basis, theta0=1.0)
        st.c[0] = 0.1
        summary, rec = run(params, basis, st, dt=1e-3, t_end=0.003)
        assert summary.clamp_total > 0
        assert rec.records[-1].clamp_count > 0


class TestRealization:
    def test_each_state_realized_once(self, basis, params, monkeypatch):
        realized = []  # holding every state keeps its id from being reused
        fields = gal.GalerkinOperators.fields

        def recording(ops, state):
            realized.append(state)
            return fields(ops, state)

        monkeypatch.setattr(gal.GalerkinOperators, "fields", recording)
        st = plain_state(basis)
        st.a[0] = 0.3
        st.c[12] = 0.3
        summary, rec = run(params, basis, st, dt=1e-3, t_end=0.003, cadence=1)
        assert summary.n_steps == 3 and len(rec.records) == 4
        ids = [id(s) for s in realized]
        assert len(ids) == len(set(ids))

    def test_each_rhs_computed_once_per_realization(self, basis, params, monkeypatch):
        seen = []  # holding every realization keeps its id from being reused
        for name in ("momentum_rhs", "induction_rhs"):
            def recording(ops, f, _orig=getattr(gal.GalerkinOperators, name), _name=name):
                seen.append((_name, f))
                return _orig(ops, f)

            monkeypatch.setattr(gal.GalerkinOperators, name, recording)
        st = plain_state(basis)
        st.a[0] = 0.3
        st.c[12] = 0.3
        summary, rec = run(params, basis, st, dt=1e-3, t_end=0.003, cadence=1)
        assert summary.n_steps == 3 and len(rec.records) == 4
        keys = [(name, id(f)) for name, f in seen]
        assert len(keys) == len(set(keys))
        # and each feeds a rates call: a sample assembles none
        n = summary.monitors["rhs_evaluations"]
        assert [name for name, _ in seen].count("momentum_rhs") == n
        assert [name for name, _ in seen].count("induction_rhs") == n


class TestPredictor:
    def test_extrapolation_exact_for_rates_linear_in_time(self):
        slope = gal.Rates(*(np.linspace(-1.0, 2.0, 5) * (i + 1) for i in range(4)))

        def at(t):
            return gal.Rates(*(1.0 + i + t * x for i, x in enumerate(slope.parts())))

        # uneven spacing: the last step is shortened to dt/2
        history = [(0.5e-3, at(0.5e-3)), (1.5e-3, at(1.5e-3))]
        predicted = itg._predict_midpoint_rates(history, 2.25e-3)
        for x, y in zip(predicted.parts(), at(2.25e-3).parts()):
            np.testing.assert_allclose(x, y, rtol=1e-13)

    def test_rhs_evaluations_per_step(self, basis, params, monkeypatch):
        times = []
        rates = gal.GalerkinOperators.rates

        def counting(ops, f, guess=None):
            times.append(f.st.t)
            return rates(ops, f, guess)

        monkeypatch.setattr(gal.GalerkinOperators, "rates", counting)
        st = plain_state(basis)
        st.a[0] = 0.3
        st.c[12] = 0.3
        summary, _ = run(params, basis, st, dt=1e-3, t_end=0.004)
        work = summary.monitors
        assert summary.n_steps == 4
        assert work["rhs_evaluations"] == len(times)
        # the start state of the first step is the only one evaluated;
        # every other evaluation is a stage at a midpoint time
        assert work["rhs_evaluations"] == 1 + work["stage_iterations"]
        assert times[0] == 0.0
        assert all(abs(t / 1e-3 % 1.0 - 0.5) < 1e-9 for t in times[1:])
        assert work["predictor_gap_max"] > 0.0

    @pytest.mark.parametrize("name,steps", [("single_mode_mhd", 4.5), ("orszag_tang", 3.5)])
    def test_shortened_final_step_matches_forward_euler_start(self, name, steps):
        cfg = load_config(CONFIGS / f"{name}.cfg")
        step_cfg = replace(cfg.step, t_end=steps * cfg.step.dt)
        basis = harness.build_basis_for(cfg)
        state0 = build_initial_state(cfg, basis)
        eps = cfg.density_regularization
        summary = itg.integrate(cfg.constitutive, state0, step_cfg, eps_density=eps)
        ref, ref_work = forward_euler_started_run(cfg.constitutive, basis, state0, step_cfg, eps)
        assert summary.n_steps == math.ceil(steps)
        assert summary.final_state.t == ref.t
        # a different start, the same fixed point to the solver tolerance
        assert itg._delta(summary.final_state, ref) <= step_cfg.solver_tolerance
        assert summary.monitors["rhs_evaluations"] < ref_work.rhs_evaluations


def _initial(cfg):
    basis = harness.build_basis_for(cfg)
    return basis, build_initial_state(cfg, basis)


def _integrate(cfg):
    _, state0 = _initial(cfg)
    return itg.integrate(cfg.constitutive, state0, cfg.step, eps_density=cfg.density_regularization)


class TestStiffStage:
    """The midpoint stage damped by the stiff diagonal (I + dt/2 L)^-1."""

    def test_dt_005_at_800_modes(self):
        summary = _integrate(stiff_random_band(dt=0.05))
        # the plain iteration took 40 evaluations here
        assert summary.n_steps == 2 and summary.monitors["rhs_evaluations"] <= 13

    @pytest.mark.parametrize("dt", [0.1, 0.2])
    def test_large_steps_converge_or_name_the_stall(self, dt):
        # the plain iteration diverged at dt = 0.1 and met a non-SPD mass
        # matrix at dt = 0.2; a MassSolveError would fail this test
        try:
            summary = _integrate(stiff_random_band(dt=dt))
        except NonlinearSolveError:
            return
        assert summary.n_steps == 2

    @pytest.mark.parametrize("name", ["orszag_tang", "stiff"])
    def test_matches_plain_iteration(self, name):
        if name == "stiff":
            cfg = stiff_random_band(dt=0.01)
        else:
            cfg = load_config(CONFIGS / f"{name}.cfg")
        basis, state = _initial(cfg)
        ops = gal.GalerkinOperators(cfg.constitutive, basis, cfg.density_regularization)
        start = ops.rates(ops.fields(state))
        damped, _ = itg.step(ops, state, cfg.step, cfg.step.dt, start)
        assert ops.counters.stage_iterations > 1  # the damping took part
        plain = plain_midpoint_step(ops, state, cfg.step, start)
        assert itg._delta(damped, plain) <= cfg.step.solver_tolerance

    @pytest.mark.parametrize(
        "name", ["orszag_tang", "layered_density", "single_mode_mhd", "variable", "stiff"]
    )
    def test_damping_factors(self, name):
        if name == "stiff":
            cfg = stiff_random_band(dt=0.2)
        elif name == "variable":
            # density-dependent conductivity, temperature power and specific heat
            cfg = load_config(CONFIGS / "random_band.cfg")
            cfg = replace(cfg, constitutive=replace(
                cfg.constitutive, conductivity_form="density_affine", conductivity_min=0.5,
                conductivity_max=2.0, conductivity_exponent=1.5, specific_heat_form="saturating",
                specific_heat_min=0.5, specific_heat_max=3.0))
        else:
            cfg = load_config(CONFIGS / f"{name}.cfg")
        basis, state = _initial(cfg)
        ops = gal.GalerkinOperators(cfg.constitutive, basis, cfg.density_regularization)
        fields = ops.fields(state)
        ops.rates(fields)
        dt = cfg.step.dt
        lin = ops.stiff_diagonal(fields, 0.5 * dt)
        damping = itg._stage_damping(ops, dt, fields)
        for x, part in zip(state.parts(), damping):
            assert np.shape(part) in ((), x.shape)
        for l_part, d in zip(lin, damping):
            l_part, d = np.broadcast_arrays(l_part, d)
            assert np.all(l_part >= 0.0)
            assert np.all((d > 0.0) & (d <= 1.0))
            assert np.array_equal(d == 1.0, l_part == 0.0)
        rho, a, b, c = damping
        assert a == 1.0 and b[0] == 1.0 and rho[0, 0, 0] == 1.0
        assert np.all(b[1:] < 1.0) and np.all(c < 1.0)
        assert np.all(rho[basis.dealias_mask(basis.grid_points) & (ops._k2_n > 0)] < 1.0) == bool(
            cfg.density_regularization
        )

    def test_stiff_diagonal_frozen_at_the_first_stage(self, monkeypatch):
        cfg = load_config(CONFIGS / "random_band.cfg")
        _, state = _initial(cfg)
        dt = cfg.step.dt
        calls, realized, steps = [], [], []
        stiff = gal.GalerkinOperators.stiff_diagonal
        fields = gal.GalerkinOperators.fields
        midpoint_step = itg.step

        def recording(ops, f, h):
            calls.append((h, f))
            return stiff(ops, f, h)

        def realizing(ops, st):
            realized.append(fields(ops, st))
            return realized[-1]

        def stepping(ops, st, step_cfg, step_dt, start, history):
            first, before = len(realized), ops.counters.stage_iterations
            out = midpoint_step(ops, st, step_cfg, step_dt, start, history)
            steps.append((st.t, ops.counters.stage_iterations - before, realized[first]))
            return out

        monkeypatch.setattr(gal.GalerkinOperators, "stiff_diagonal", recording)
        monkeypatch.setattr(gal.GalerkinOperators, "fields", realizing)
        monkeypatch.setattr(itg, "step", stepping)
        step_cfg = replace(cfg.step, t_end=4 * dt)
        itg.integrate(cfg.constitutive, state, step_cfg, eps_density=cfg.density_regularization)
        assert len(steps) == 4 and any(n > 1 for _, n, _ in steps)
        # at most one call per step, only when it iterates, on its first stage
        assert calls == [(0.5 * dt, first) for _, n, first in steps if n > 1]
        for t, n, first in steps:
            assert first.st.t == pytest.approx(t + 0.5 * dt, rel=0, abs=1e-15)


class TestSolverWorkCounting:
    """The solver work is counted where it is done: a right-hand side in
    ``GalerkinOperators.rates`` and nowhere else, on the counters the
    operators own."""

    SOURCES = sorted((ROOT / "src" / "specmhd").glob("*.py")) + [ROOT / "tests" / "helpers.py"]

    @staticmethod
    def _increments(path):
        """Qualified names of the functions in ``path`` whose own body adds
        to an ``rhs_evaluations`` attribute."""
        found = []

        def visit(node, scope):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    visit(child, scope + [child.name])
                    continue
                target = getattr(child, "target", None)
                if isinstance(child, ast.AugAssign) and getattr(target, "attr", "") == "rhs_evaluations":
                    found.append(".".join(scope))
                visit(child, scope)

        visit(ast.parse(path.read_text()), [])
        return found

    def test_rhs_evaluations_counted_only_in_rates(self):
        counted = [(path.name, name) for path in self.SOURCES for name in self._increments(path)]
        assert counted == [("galerkin.py", "GalerkinOperators.rates")]

    def test_no_function_takes_counters(self):
        taking = []
        for path in sorted((ROOT / "src").rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                    a = node.args
                    names = [x.arg for x in a.posonlyargs + a.args + a.kwonlyargs]
                    if "counters" in names:
                        taking.append((path.name, getattr(node, "name", "lambda")))
        assert taking == []
