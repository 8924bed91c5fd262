"""Time advancement of the coupled density/velocity/temperature/magnetic
system.

Schemes:

* ``implicit-midpoint`` (default): one midpoint stage solved by fixed-point
  iteration to the configured tolerance, started from a forward-Euler
  predictor.  Preserves the quadratic energy identity to second order and
  keeps the density-weighted mass solves symmetric.
* ``explicit-rk4``: classic four-stage Runge-Kutta on the full system.
* ``imex-cn-ab2``: Crank-Nicolson on the diagonal stiff terms (magnetic
  curl-curl, density regularization) with second-order Adams-Bashforth on
  everything nonlinear; the first step falls back to a one-term history.

Each accepted state is realized once (:meth:`GalerkinOperators.fields`); the
post-step monitors, the diagnostics report and the next step's start-state
rates all read that realization.  Mass matrices are assembled and factorized
at every stage.  That assembly and solve is 69% of a random_band run's time
at 800 modes and about 2% at 32 modes on a 32^3 grid (``galerkin.mass_share``
of the ``mass_k800`` and ``transform_n32`` benchmark workloads, traced).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from specmhd import galerkin as gal
from specmhd.constitutive import ConstitutiveParams, validate_params
from specmhd.errors import BlowUpError, ConfigError, InvariantViolation, NonlinearSolveError
from specmhd.galerkin import GalerkinOperators, Rates, SimState
from specmhd.spectral import DivFreeSpectralBasis

SCHEMES = ("implicit-midpoint", "explicit-rk4", "imex-cn-ab2")

NORM_BLOWUP_LIMIT = 1e12
DENSITY_DRIFT_RATE = 1e-10


@dataclass
class StepConfig:
    """Time-step parameters; the tolerance governs the midpoint iteration."""

    dt: float = 1e-3
    t_end: float = 0.1
    scheme: str = "implicit-midpoint"
    solver_tolerance: float = 1e-12
    max_nonlinear_iterations: int = 50
    theta_clamp: str = "clamp"

    def validate(self) -> list[str]:
        bad = []
        if not self.dt > 0:
            bad.append(f"dt must be positive (got {self.dt})")
        if not self.t_end >= 0:
            bad.append(f"t_end must be nonnegative (got {self.t_end})")
        if self.scheme not in SCHEMES:
            bad.append(f"unknown scheme {self.scheme!r}; options {SCHEMES}")
        if not 0.0 < self.solver_tolerance <= 1e-6:
            bad.append(
                f"solver_tolerance must lie in (0, 1e-6] (got {self.solver_tolerance})"
            )
        if self.max_nonlinear_iterations < 1:
            bad.append("max_nonlinear_iterations must be at least 1")
        if self.theta_clamp not in ("clamp", "error"):
            bad.append(f"theta_clamp must be 'clamp' or 'error' (got {self.theta_clamp!r})")
        return bad


@dataclass
class TrajectorySummary:
    final_state: SimState
    n_steps: int
    clamp_total: int
    monitors: dict = field(default_factory=dict)


def _linear_combination(state: SimState, new_t: float, pieces) -> SimState:
    """state + sum(coef * rates) with a fresh SimState."""
    parts = [x.copy() for x in state.parts()]
    for coef, r in pieces:
        parts = [x + coef * dx for x, dx in zip(parts, r.parts())]
    return SimState(new_t, *parts, state.basis)


def _midpoint(state: SimState, mid: SimState) -> SimState:
    parts = (0.5 * (x + y) for x, y in zip(state.parts(), mid.parts()))
    return SimState(0.5 * (state.t + mid.t), *parts, state.basis)


def _delta(a: SimState, b: SimState) -> float:
    num = max(np.max(np.abs(x - y), initial=0.0) for x, y in zip(a.parts(), b.parts()))
    den = 1.0 + max(np.max(np.abs(y), initial=0.0) for y in b.parts())
    return float(num / den)


def _step_implicit_midpoint(
    ops: GalerkinOperators, state: SimState, cfg: StepConfig, dt: float, start: Rates
) -> SimState:
    t_new = state.t + dt
    candidate = _linear_combination(state, t_new, [(dt, start)])
    for _ in range(cfg.max_nonlinear_iterations):
        mid = _midpoint(state, candidate)
        rates = ops.rates(ops.fields(mid))
        updated = _linear_combination(state, t_new, [(dt, rates)])
        delta = _delta(updated, candidate)
        if delta <= cfg.solver_tolerance:
            return updated
        candidate = updated
    raise NonlinearSolveError(
        f"midpoint iteration did not converge in {cfg.max_nonlinear_iterations} iterations "
        f"at t={state.t:.6g}: last relative delta {delta:.3e} > solver_tolerance "
        f"{cfg.solver_tolerance:.3e}"
    )


def _step_rk4(ops: GalerkinOperators, state: SimState, dt: float, k1: Rates) -> SimState:
    t = state.t

    def stage(t_stage: float, coef: float, k: Rates) -> Rates:
        return ops.rates(ops.fields(_linear_combination(state, t_stage, [(coef, k)])))

    k2 = stage(t + 0.5 * dt, 0.5 * dt, k1)
    k3 = stage(t + 0.5 * dt, 0.5 * dt, k2)
    k4 = stage(t + dt, dt, k3)
    return _linear_combination(
        state,
        t + dt,
        [(dt / 6.0, k1), (dt / 3.0, k2), (dt / 3.0, k3), (dt / 6.0, k4)],
    )


def _explicit_parts(ops: GalerkinOperators, state: SimState, full: Rates) -> Rates:
    """Full rates minus the diagonal stiff terms handled implicitly."""
    k2c = ops.magnetic_stiffness_diag[: len(state.c)]
    dc_ex = full.dc + k2c * state.c
    drho_ex = full.drho.copy()
    if ops.eps_density:
        drho_ex = drho_ex + ops.eps_density * ops._k2_n * state.rho
    return Rates(drho_ex, full.da, full.db, dc_ex)


def _step_imex_cn_ab2(
    ops: GalerkinOperators, state: SimState, dt: float, start: Rates, prev: Rates | None
) -> tuple[SimState, Rates]:
    cur = _explicit_parts(ops, state, start)
    if prev is None:
        ex = cur
    else:
        ex = Rates(*(1.5 * x - 0.5 * y for x, y in zip(cur.parts(), prev.parts())))
    k2c = ops.magnetic_stiffness_diag[: len(state.c)]
    lam_c = 0.5 * dt * k2c
    c_new = ((1.0 - lam_c) * state.c + dt * ex.dc) / (1.0 + lam_c)
    lam_r = 0.5 * dt * ops.eps_density * ops._k2_n
    rho_new = ((1.0 - lam_r) * state.rho + dt * ex.drho) / (1.0 + lam_r)
    new = SimState(state.t + dt, rho_new, state.a + dt * ex.da, state.b + dt * ex.db, c_new, state.basis)
    return new, cur


def step(
    ops: GalerkinOperators,
    state: SimState,
    cfg: StepConfig,
    start: Rates,
    history: Rates | None = None,
) -> tuple[SimState, Rates | None]:
    """Advance one time step; raises on blow-up or non-convergence.

    ``start`` is ``ops.rates`` at ``state``: the midpoint predictor, RK4's
    first stage, or the IMEX explicit part.  ``history`` is what the previous
    call returned as its second value (the IMEX Adams-Bashforth term; None
    for the other schemes and on the first step).
    """
    dt = cfg.dt
    if cfg.scheme == "implicit-midpoint":
        new = _step_implicit_midpoint(ops, state, cfg, dt, start)
    elif cfg.scheme == "explicit-rk4":
        new = _step_rk4(ops, state, dt, start)
    elif cfg.scheme == "imex-cn-ab2":
        new, history = _step_imex_cn_ab2(ops, state, dt, start, history)
    else:
        raise ConfigError(f"unknown scheme {cfg.scheme!r}")
    if not new.is_finite():
        raise BlowUpError(f"blow-up detected at t={new.t:.6g}", t=new.t)
    return new, history


def integrate(
    params: ConstitutiveParams,
    basis: DivFreeSpectralBasis,
    state0: SimState,
    cfg: StepConfig,
    observers=(),
    eps_density: float = 0.0,
    cadence: int = 1,
) -> TrajectorySummary:
    """Run the time loop with per-step monitors and sampled observers.

    Observers are callables ``obs(state, report)`` invoked at t = 0, every
    ``cadence`` accepted steps, and at the final time, with strictly
    increasing times.  They must be reentrant or externally serialized when
    trajectories run concurrently.
    """
    bad = validate_params(params) + cfg.validate()
    if bad:
        raise ConfigError("\n".join(bad))
    problems = state0.validate(params)
    if problems:
        raise ConfigError("initial state invalid: " + "; ".join(problems))
    if cadence < 1:
        raise ConfigError(f"cadence must be at least 1 (got {cadence})")

    ops = GalerkinOperators(params, basis, eps_density)
    state = state0.copy()
    fields = ops.fields(state)
    rho_min0, rho_max0 = float(fields.rho.min()), float(fields.rho.max())
    t0 = state.t

    def emit(f) -> None:
        report = gal.energy_report(f)
        for obs in observers:
            obs(f.st, report)

    emit(fields)

    clamp_total = 0
    worst_drift = 0.0
    worst_heat_drop = 0.0
    prev_heat = ops.total_heat(fields)
    n_steps = 0
    history: Rates | None = None
    while state.t < t0 + cfg.t_end - 1e-12 * max(1.0, cfg.t_end):
        dt = min(cfg.dt, t0 + cfg.t_end - state.t)
        sub_cfg = cfg if dt == cfg.dt else replace(cfg, dt=dt)
        start_rates = ops.rates(fields)
        fields = None  # the stages realize their own states
        state, history = step(ops, state, sub_cfg, start_rates, history)
        n_steps += 1

        fields = ops.fields(state)
        rho_grid = fields.rho
        norm = max(
            np.max(np.abs(state.a), initial=0.0),
            np.max(np.abs(state.b), initial=0.0),
            np.max(np.abs(state.c), initial=0.0),
            float(np.max(np.abs(rho_grid))),
        )
        if norm > NORM_BLOWUP_LIMIT:
            raise BlowUpError(f"blow-up detected at t={state.t:.6g}: norm {norm:.3e}", t=state.t)
        elapsed = max(state.t - t0, cfg.dt)
        drift = max(rho_min0 - float(rho_grid.min()), float(rho_grid.max()) - rho_max0)
        worst_drift = max(worst_drift, drift / elapsed)
        if drift > DENSITY_DRIFT_RATE * elapsed + 1e-13:
            raise InvariantViolation(
                f"density bounds drifted by {drift:.3e} over {elapsed:.3e} time units "
                f"at t={state.t:.6g}",
                t=state.t,
            )
        # solenoidality is guaranteed by the representation; asserted anyway
        div_res = max(ops.solenoidal_residual(fields))
        if div_res > 1e-10 * (1.0 + norm):
            raise InvariantViolation(
                f"solenoidality drift {div_res:.3e} at t={state.t:.6g}", t=state.t
            )
        heat = ops.total_heat(fields)
        worst_heat_drop = max(worst_heat_drop, prev_heat - heat)
        prev_heat = heat
        clamp_count = fields.clamp_count
        clamp_total += clamp_count
        if cfg.theta_clamp == "error" and clamp_count > 0:
            raise InvariantViolation(
                f"temperature clamped at {clamp_count} points at t={state.t:.6g}",
                t=state.t,
            )
        if n_steps % cadence == 0 or state.t >= t0 + cfg.t_end - 1e-12:
            emit(fields)

    return TrajectorySummary(
        final_state=state,
        n_steps=n_steps,
        clamp_total=clamp_total,
        monitors={
            "rho_drift_rate_max": worst_drift,
            "rho_min_initial": rho_min0,
            "rho_max_initial": rho_max0,
            "heat_drop_worst": worst_heat_drop,
        },
    )
