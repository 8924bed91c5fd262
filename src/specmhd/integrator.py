"""Time advancement of the coupled density/velocity/temperature/magnetic
system by the implicit midpoint rule, the one time scheme.

Each step solves one midpoint stage by iteration to the configured
tolerance.  The first step starts from a forward-Euler predictor, the rates
at the start state; every later step starts from the last two known rates
(on step 2, those at the start state of step 1 and at its midpoint),
extrapolated linearly in time to the new midpoint, so it evaluates no
right-hand side at the start state.  Between iterations the candidate moves
by the residual damped with ``(I + dt/2 L)^-1``, L the diffusion diagonal
frozen at the step's first stage (magnetic, density regularization, heat
conduction), so stiff modes do not set the iteration count.  Where the
iteration starts and how it moves change its count, not the tolerance it
converges to.  The rule preserves the quadratic energy identity to second
order and keeps the density-weighted mass solves symmetric.

The one thing carried from one step to the next is the ``history``, the
last two (time, rates) pairs: :func:`step` returns it and takes it back on
the next call, and :func:`integrate` only keeps it.  The solver work is
counted where it is done, on the operators' :class:`specmhd.galerkin.StepCounters`.

Each accepted state is realized once (:meth:`GalerkinOperators.fields`); the
post-step monitors, the diagnostics report and, before the first step, the
start-state rates all read that realization.  Mass systems are rebuilt and
solved at every stage; a matrix-free solve starts from the step's predicted
rates at the first stage and from the previous stage's rates after it.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from specmhd import galerkin as gal
from specmhd.constitutive import ConstitutiveParams, validate_params
from specmhd.errors import BlowUpError, ConfigError, InvariantViolation, NonlinearSolveError, SolverAbort
from specmhd.galerkin import GalerkinOperators, Rates, SimState

NORM_BLOWUP_LIMIT = 1e12
DENSITY_DRIFT_RATE = 1e-10


@dataclass
class StepConfig:
    """Time-step parameters; the tolerance governs the midpoint iteration."""

    dt: float = 1e-3
    t_end: float = 0.1
    solver_tolerance: float = 1e-12
    max_nonlinear_iterations: int = 50
    theta_clamp: str = "clamp"

    def validate(self) -> list[str]:
        bad = []
        if not self.dt > 0:
            bad.append(f"dt must be positive (got {self.dt})")
        if not self.t_end >= 0:
            bad.append(f"t_end must be nonnegative (got {self.t_end})")
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


def _advance(state: SimState, new_t: float, dt: float, rates: Rates) -> SimState:
    """``state + dt * rates`` as a fresh SimState at ``new_t``."""
    return SimState(new_t, *(x + dt * dx for x, dx in zip(state.parts(), rates.parts())), state.basis)


def _midpoint(state: SimState, mid: SimState) -> SimState:
    parts = (0.5 * (x + y) for x, y in zip(state.parts(), mid.parts()))
    return SimState(0.5 * (state.t + mid.t), *parts, state.basis)


def _delta(a: SimState, b: SimState) -> float:
    num = max(np.max(np.abs(x - y), initial=0.0) for x, y in zip(a.parts(), b.parts()))
    den = 1.0 + max(np.max(np.abs(y), initial=0.0) for y in b.parts())
    return float(num / den)


def _stage_damping(ops: GalerkinOperators, dt: float, fields) -> list:
    """The diagonal of ``(I + dt/2 L)^-1`` per state part, with L frozen at
    the stage realization ``fields``."""
    return [1.0 / (1.0 + x) for x in ops.stiff_diagonal(fields, 0.5 * dt)]


def _predict_midpoint_rates(history: list[tuple[float, Rates]], t_mid: float) -> Rates:
    """The two (time, rates) pairs in ``history``, extrapolated linearly to ``t_mid``."""
    (t_prev, k_prev), (t_last, k_last) = history
    w = (t_mid - t_last) / (t_last - t_prev)
    return Rates(*(x + w * (x - y) for x, y in zip(k_last.parts(), k_prev.parts())))


def step(
    ops: GalerkinOperators, state: SimState, cfg: StepConfig, dt: float, start: Rates, history: list | None = None
) -> tuple[SimState, list]:
    """Advance one implicit-midpoint step of length ``dt``; raises on
    blow-up or non-convergence.

    ``history`` is what the previous call returned as its second value, the
    last two (time, rates) pairs, and None on the first step.  ``start`` is
    the predicted midpoint rate: ``ops.rates`` at ``state`` when ``history``
    is None, else ``history`` extrapolated to the midpoint
    (:func:`_predict_midpoint_rates`).  Returns the converged state and the
    new history: the newer of the pairs ``start`` was extrapolated from (on
    the first step, ``start`` itself at ``state.t``) and the midpoint rates
    the state was built from.  The older pair of ``history`` is dropped from
    it before the stages run, as it has served its one prediction.

    The iteration starts from ``state + dt * start``.  Each iteration maps
    the candidate x to ``G(x) = state + dt k(mid(x))`` and stops once
    ``G(x)`` is within ``solver_tolerance`` of x.  Otherwise the next
    candidate is ``x + (I + dt/2 L)^-1 (G(x) - x)``, with L the stiff
    diagonal (:meth:`GalerkinOperators.stiff_diagonal`) frozen at the first
    stage's realization: a Newton step whose Jacobian keeps only the
    diffusion, so the iteration contracts at the nonlinear rate instead of
    dt/2 times the largest diffusion eigenvalue.  ``start`` also seeds the
    first stage's matrix-free mass solves, and each later stage's are seeded
    with the previous stage's rates (the ``guess`` of
    :meth:`GalerkinOperators.rates`).  The work of the step is added to
    ``ops.counters``.
    """
    counters = ops.counters
    extrapolated = history is not None
    if extrapolated:
        del history[0]
    else:
        history = [(state.t, start)]
    t_new = state.t + dt
    first = candidate = _advance(state, t_new, dt, start)
    deltas: list[float] = []
    damping = None
    rates = start
    for _ in range(cfg.max_nonlinear_iterations):
        counters.stage_iterations += 1
        fields = ops.fields(_midpoint(state, candidate))
        rates = ops.rates(fields, guess=rates)
        updated = _advance(state, t_new, dt, rates)
        deltas.append(_delta(updated, candidate))
        if deltas[-1] <= cfg.solver_tolerance:
            if extrapolated:
                counters.predictor_gap_max = max(counters.predictor_gap_max, _delta(updated, first))
            history.append((state.t + 0.5 * dt, rates))
            if not updated.is_finite():
                raise BlowUpError(f"blow-up detected at t={updated.t:.6g}")
            return updated, history
        if damping is None:
            damping = _stage_damping(ops, dt, fields)
        candidate = SimState(
            t_new,
            *[x + d * (y - x) for x, y, d in zip(candidate.parts(), updated.parts(), damping)],
            state.basis,
        )
        fields = updated = None  # of this stage, only its rates outlive it, as the next guess
    if len(deltas) > 1:
        contraction = f"contraction estimate {deltas[-1] / deltas[-2]:.3e}"
    else:
        contraction = "contraction estimate unavailable after one iteration"
    raise NonlinearSolveError(
        f"midpoint iteration did not converge in {cfg.max_nonlinear_iterations} iterations "
        f"at t={state.t:.6g}: last relative delta {deltas[-1]:.3e} > solver_tolerance "
        f"{cfg.solver_tolerance:.3e}; {contraction}"
    )


def integrate(
    params: ConstitutiveParams,
    state0: SimState,
    cfg: StepConfig,
    observers=(),
    eps_density: float = 0.0,
    cadence: int = 1,
) -> TrajectorySummary:
    """Run the time loop with per-step monitors and sampled observers, on
    the operators of ``state0.basis``.

    Observers are callables ``obs(state, report)`` invoked at t = 0, every
    ``cadence`` accepted steps, and at the final time, with strictly
    increasing times.  They must be reentrant or externally serialized when
    trajectories run concurrently.  An abort raises a :class:`SolverAbort`
    whose ``trajectory`` is the summary up to it.
    """
    bad = validate_params(params) + cfg.validate()
    if bad:
        raise ConfigError("\n".join(bad))
    if not state0.is_finite():
        raise ConfigError("initial state invalid: non-finite state entries")
    ops = GalerkinOperators(params, state0.basis, eps_density)
    state = state0.copy()
    fields = ops.fields(state)
    rho_min0, rho_max0 = float(fields.rho.min()), float(fields.rho.max())
    if rho_min0 < params.density_min - 1e-12 or rho_max0 > params.density_max + 1e-12:
        raise ConfigError(
            f"initial state invalid: density outside [{params.density_min}, {params.density_max}] "
            f"(range [{rho_min0:.6g}, {rho_max0:.6g}])"
        )
    if cadence < 1:
        raise ConfigError(f"cadence must be at least 1 (got {cadence})")
    t_stop = state.t + cfg.t_end

    def done() -> bool:
        """Whether ``state`` is at the final time, to rounding."""
        return state.t >= t_stop - 1e-12 * max(1.0, cfg.t_end)

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
    history = None

    def summary() -> TrajectorySummary:
        return TrajectorySummary(
            final_state=state,
            n_steps=n_steps,
            clamp_total=clamp_total,
            monitors={
                "rho_drift_rate_max": worst_drift,
                "rho_min_initial": rho_min0,
                "rho_max_initial": rho_max0,
                "heat_drop_worst": worst_heat_drop,
                **asdict(ops.counters),
            },
        )

    try:
        while not done():
            dt = min(cfg.dt, t_stop - state.t)
            if history is not None:
                start_rates = _predict_midpoint_rates(history, state.t + 0.5 * dt)
            else:
                start_rates = ops.rates(fields)
            fields = None  # the stages realize their own states
            try:
                state, history = step(ops, state, cfg, dt, start_rates, history)
            except NonlinearSolveError as exc:
                raise NonlinearSolveError(f"step {n_steps + 1}: {exc}") from exc
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
                raise BlowUpError(f"blow-up detected at t={state.t:.6g}: norm {norm:.3e}")
            elapsed = max(state.t - state0.t, cfg.dt)
            drift = max(rho_min0 - float(rho_grid.min()), float(rho_grid.max()) - rho_max0)
            worst_drift = max(worst_drift, drift / elapsed)
            if drift > DENSITY_DRIFT_RATE * elapsed + 1e-13:
                raise InvariantViolation(
                    f"density bounds drifted by {drift:.3e} over {elapsed:.3e} time units "
                    f"at t={state.t:.6g}"
                )
            # solenoidality is guaranteed by the representation; asserted anyway
            div_res = max(ops.solenoidal_residual(fields))
            if div_res > 1e-10 * (1.0 + norm):
                raise InvariantViolation(f"solenoidality drift {div_res:.3e} at t={state.t:.6g}")
            heat = ops.total_heat(fields)
            worst_heat_drop = max(worst_heat_drop, prev_heat - heat)
            prev_heat = heat
            clamp_count = fields.clamp_count
            clamp_total += clamp_count
            if cfg.theta_clamp == "error" and clamp_count > 0:
                raise InvariantViolation(f"temperature clamped at {clamp_count} points at t={state.t:.6g}")
            if n_steps % cadence == 0 or done():
                emit(fields)
    except SolverAbort as exc:
        exc.trajectory = summary()
        raise
    return summary()
