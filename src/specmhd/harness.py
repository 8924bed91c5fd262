"""Run orchestration: single runs, mode/regularization sweeps, and the
self-verification suite.

Every run directory receives the canonical config copy, the diagnostics CSV
(fixed column order, one row per sample), a machine-readable ``summary.json``,
a schema-version stamp, and, with ``snapshots`` on, the final state's grid
samples.  Runs are deterministic for a fixed config and seed: identical
inputs produce byte-identical CSV output.

``run`` sets the process's glibc allocator policy once, at its first call:
the heap is never trimmed, and arrays below 32 MiB come from it, not from
fresh ``mmap`` pages.  A right-hand side frees and reallocates tens of MB of
grid arrays, which under glibc's defaults went back to the kernel and were
faulted in again: 18k-31k minor faults per 3-step run at N=32 and 1k-6k per
2-step run at 800 modes, against at most a few dozen with the policy.  It is
process-wide and persists, so a program that embeds ``run`` inherits it.
Arrays above 32 MiB (6-component oversampled tensors from N of about 64) are
still ``mmap``ped, and off glibc the policy is a no-op.
"""

from __future__ import annotations

import ctypes
import functools
import json
import os
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

import specmhd
from specmhd import constitutive as cst
from specmhd import diagnostics as diag
from specmhd import galerkin as gal
from specmhd import integrator as itg
from specmhd import spectral as sp
from specmhd.config import CONFIG_SCHEMA_VERSION, RunConfig, serialize_config, sweep_cells, validate_config
from specmhd.errors import BlowUpError, ConfigError, InvariantViolation, MassSolveError, NonlinearSolveError
from specmhd.initial_conditions import build_initial_state

OUTPUT_ROOT_ENV = "SPECMHD_OUTPUT_ROOT"
FIELD_SCHEMA_VERSION = "field-v2"

EXIT_PASS = 0
EXIT_INVARIANT = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

# mallopt(3) parameters, from glibc's <malloc.h>
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD_MAX = 32 << 20  # glibc's ceiling on 64-bit


@functools.cache
def _keep_heap() -> None:
    """The allocator policy of the module docstring.  Setting either parameter
    stops glibc's dynamic mmap threshold, so the trim setting alone would put
    every array of 128 KiB or more on a fresh ``mmap``."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_TRIM_THRESHOLD, -1)
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_MAX)


@dataclass
class RunReport:
    status: str
    exit_code: int
    output_dir: Path
    summary: dict
    recorder: diag.TrajectoryRecorder | None = None


def _resolve_output_dir(cfg: RunConfig, output_dir: str | None, tag: str) -> Path:
    if output_dir:
        return Path(output_dir)
    if cfg.output_directory:
        return Path(cfg.output_directory)
    root = os.environ.get(OUTPUT_ROOT_ENV, "runs")
    return Path(root) / f"{tag}-{cfg.initial_family}"


def _write_stamp(outdir: Path) -> None:
    stamp = {
        "config_schema": CONFIG_SCHEMA_VERSION,
        "diagnostics_schema": diag.DIAGNOSTICS_SCHEMA_VERSION,
        "field_schema": FIELD_SCHEMA_VERSION,
        "mode_ordering": sp.MODE_ORDERING_VERSION,
        "package_version": specmhd.__version__,
    }
    (outdir / "schema.json").write_text(json.dumps(stamp, indent=2, sort_keys=True))


def _write_csv(outdir: Path, recorder: diag.TrajectoryRecorder) -> None:
    lines = [",".join(diag.CSV_COLUMNS)]
    lines += [diag.record_to_csv_row(r) for r in recorder.records]
    (outdir / "diagnostics.csv").write_text("\n".join(lines) + "\n")


def _decay_rate_estimate(recorder: diag.TrajectoryRecorder) -> float | None:
    recs = recorder.records
    if len(recs) < 2:
        return None
    h0 = np.sqrt(2.0 * recs[0].E_mag)
    h1 = np.sqrt(2.0 * recs[-1].E_mag)
    dt = recs[-1].t - recs[0].t
    if h0 <= 0 or h1 <= 0 or dt <= 0:
        return None
    return float(-(np.log(h1) - np.log(h0)) / dt)


def _write_snapshot(prefix: Path, values: np.ndarray, box_size: float) -> None:
    """Write the grid samples of a scalar (G, G, G) or vector (3, G, G, G)
    field as ``<prefix>.bin`` (raw little-endian float64, x varying fastest,
    components outermost) plus a JSON sidecar ``<prefix>.json`` describing
    the layout."""
    # reorder the trailing (x, y, z) axes so x varies fastest on disk
    disk = np.moveaxis(values, (-3, -2, -1), (-1, -2, -3))
    prefix.with_suffix(".bin").write_bytes(np.ascontiguousarray(disk, dtype="<f8").tobytes())
    header = {
        "schema": FIELD_SCHEMA_VERSION,
        "kind": "vector" if values.ndim == 4 else "scalar",
        "representation": "grid",
        "shape": list(values.shape),
        "box_size": box_size,
        "order": "x-fastest",
        "complex_parts": False,
        "mode_ordering_version": sp.MODE_ORDERING_VERSION,
    }
    prefix.with_suffix(".json").write_text(json.dumps(header, indent=2, sort_keys=True))


def _final_snapshots(outdir: Path, state: gal.SimState) -> None:
    basis = state.basis
    _write_snapshot(outdir / "rho_final", basis.spectral_to_grid(state.rho), basis.box_size)
    _write_snapshot(outdir / "velocity_final", basis.vector_grid(state.a), basis.box_size)
    _write_snapshot(outdir / "magnetic_final", basis.vector_grid(state.c), basis.box_size)
    _write_snapshot(outdir / "theta_final", basis.scalar_grid(state.b), basis.box_size)


def _flag_failure(records: list, heat_drop: float) -> str:
    """The first invariant a run's samples or steps broke, in words (empty
    when every sample holds every flag and no step lost more total heat
    than ``HEAT_MONOTONE_SLACK``)."""
    if not records:
        return "no diagnostics samples"
    for r in records:
        failed = [name for name in diag.FLAG_COLUMNS if not getattr(r, name)]
        if failed:
            return f"invariant flag {failed[0]} failed at t={r.t:.6g}"
    if not heat_drop <= diag.HEAT_MONOTONE_SLACK:
        return (
            f"total heat fell by {heat_drop:.3e} in one step, more than "
            f"HEAT_MONOTONE_SLACK={diag.HEAT_MONOTONE_SLACK:g}"
        )
    return ""


def _max_abs_energy_residual(records: list) -> float:
    return float(max(abs(r.energy_residual) for r in records))


def build_basis_for(cfg: RunConfig) -> sp.DivFreeSpectralBasis:
    return sp.build_basis(cfg.box_size, cfg.grid_points)


def _require_valid(cfg: RunConfig) -> None:
    bad = validate_config(cfg)
    if bad:
        raise ConfigError("\n".join(bad))


def run(
    cfg: RunConfig,
    output_dir: str | None = None,
    seed: int | None = None,
    quiet: bool = False,
    store_history: bool = False,
) -> RunReport:
    """Execute one configured run and emit its artifact directory."""
    _keep_heap()
    if seed is not None:
        cfg = replace(cfg, initial_params={**cfg.initial_params, "seed": seed})
    outdir = _resolve_output_dir(cfg, output_dir, "run")
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "config.cfg").write_text(serialize_config(cfg))
    _write_stamp(outdir)

    recorder = diag.TrajectoryRecorder(cfg.constitutive, store_history=store_history)
    status = "completed"
    exit_code = EXIT_PASS
    error_msg = ""
    traj = None  # the steps completed and the solver work, also of an aborted run
    t_start = time.perf_counter()
    try:
        _require_valid(cfg)
        state0 = build_initial_state(cfg, build_basis_for(cfg))
        traj = itg.integrate(
            cfg.constitutive,
            state0,
            cfg.step,
            observers=[recorder],
            eps_density=cfg.density_regularization,
            cadence=cfg.cadence,
        )
        if cfg.snapshots:
            _final_snapshots(outdir, traj.final_state)
    except ConfigError as exc:
        status, exit_code, error_msg = "config_error", EXIT_CONFIG, str(exc)
    except InvariantViolation as exc:
        status, exit_code, error_msg = "invariant_failure", EXIT_INVARIANT, str(exc)
        traj = exc.trajectory
    except (BlowUpError, MassSolveError, NonlinearSolveError) as exc:
        status, exit_code, error_msg = "numerical_abort", EXIT_NUMERICAL, str(exc)
        traj = exc.trajectory
    wall = time.perf_counter() - t_start

    summary_extra: dict = {}
    if traj is not None:
        summary_extra = {
            "n_steps": traj.n_steps,
            "clamp_total": traj.clamp_total,
            "monitors": traj.monitors,
        }
    heat_drop = summary_extra.get("monitors", {}).get("heat_drop_worst", 0.0)
    flag_failure = _flag_failure(recorder.records, heat_drop)
    flags_ok = not flag_failure
    if status == "completed" and not flags_ok:
        status, exit_code, error_msg = "invariant_failure", EXIT_INVARIANT, flag_failure

    summary = {
        "status": status,
        "error": error_msg,
        "samples": len(recorder.records),
        "invariant_flags_ok": flags_ok,
        "wall_time_s": wall,
        **summary_extra,
    }
    if recorder.records:
        last = recorder.records[-1]
        summary["final"] = {
            "t": last.t,
            "E_kin": last.E_kin,
            "E_mag": last.E_mag,
            "heat_total": last.heat_total,
            "rho_min": last.rho_min,
            "rho_max": last.rho_max,
            "max_abs_energy_residual": _max_abs_energy_residual(recorder.records),
        }
        rate = _decay_rate_estimate(recorder)
        if rate is not None:
            summary["magnetic_decay_rate"] = rate

    _write_csv(outdir, recorder)
    (outdir / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True))
    if not quiet:
        work = ""
        if traj is not None and traj.n_steps:
            work = f", {traj.monitors['rhs_evaluations'] / traj.n_steps:.2f} RHS/step"
        print(f"[{status}] {cfg.initial_family}: {len(recorder.records)} samples, {wall:.2f}s{work}")
    return RunReport(status, exit_code, outdir, summary, recorder)


# ------------------------------------------------------------- sweep studies


def _pad_to(vec: np.ndarray, n: int) -> np.ndarray:
    out = np.zeros(n)
    out[: len(vec)] = vec
    return out


def _velocity_difference_norm(basis, hist_a, hist_b, times) -> float:
    """Discrete L2(0,T; W^{1,2}) norm of the velocity difference."""
    n = max(len(hist_a[0]), len(hist_b[0]))
    k2 = basis.vec_k2[:n]
    sq = []
    for ca, cb in zip(hist_a, hist_b):
        d = _pad_to(ca, n) - _pad_to(cb, n)
        sq.append(float(np.sum((1.0 + k2) * d * d)))
    return float(np.sqrt(np.trapezoid(sq, times)))


def _density_difference_norm(basis, hist_a, hist_b) -> float:
    """Discrete C([0,T]; L2) norm of the density difference (spectral)."""
    worst = 0.0
    for ra, rb in zip(hist_a, hist_b):
        diff = ra - rb
        worst = max(worst, float(np.sqrt(basis.volume * basis.sum_sq(diff))))
    return worst


@dataclass
class StudyReport:
    kind: str
    values: list
    pairs: list
    strictly_decreasing: bool
    rates: list
    aborted_cells: list = field(default_factory=list)
    uniformity_flags: dict = field(default_factory=dict)


def convergence_study(cfg: RunConfig, output_dir: str | None = None, quiet: bool = False) -> StudyReport:
    """Refinement study over mode counts or the density regularization.

    Runs each sweep cell with identical initial data, then measures pairwise
    differences between consecutive refinements: velocity in the discrete
    L2-in-time Sobolev norm, density in the sup-in-time L2 norm.
    """
    _require_valid(cfg)
    if not cfg.sweep_kind:
        raise ConfigError("config has no [sweep] section")
    values = list(cfg.sweep_values)
    if len(values) < 3:
        raise ConfigError(f"need >=3 values in the sweep (got {len(values)})")

    outdir = _resolve_output_dir(cfg, output_dir, "sweep")
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "config.cfg").write_text(serialize_config(cfg))
    _write_stamp(outdir)

    cells: dict = {}
    aborted = []
    apriori = {}
    for val, sub in zip(values, sweep_cells(cfg)):
        rep = run(
            sub,
            output_dir=str(outdir / f"cell-{val}"),
            quiet=quiet,
            store_history=True,
        )
        if rep.status != "completed":
            error = rep.summary["error"]
            aborted.append({"value": val, "status": rep.status, "exit_code": rep.exit_code, "error": error})
            continue
        cells[val] = rep.recorder
        apriori[val] = diag.apriori_monitor(rep.recorder)

    pairs = []
    for lo, hi in zip(values, values[1:]):
        if lo not in cells or hi not in cells:
            continue
        rec_a, rec_b = cells[lo], cells[hi]
        times = np.array([h["t"] for h in rec_a.history])
        u_diff = _velocity_difference_norm(
            rec_a.basis,
            [h["a"] for h in rec_a.history],
            [h["a"] for h in rec_b.history],
            times,
        )
        rho_diff = _density_difference_norm(
            rec_a.basis,
            [h["rho_spec"] for h in rec_a.history],
            [h["rho_spec"] for h in rec_b.history],
        )
        pairs.append({"coarse": lo, "fine": hi, "u_diff": u_diff, "rho_diff": rho_diff})

    def _strict(seq):
        return all(b < a for a, b in zip(seq, seq[1:]))

    u_seq = [p["u_diff"] for p in pairs]
    rho_seq = [p["rho_diff"] for p in pairs]
    if cfg.sweep_kind == "modes":
        decreasing = len(pairs) >= 2 and _strict(u_seq) and _strict(rho_seq)
    else:
        decreasing = len(pairs) >= 2 and _strict(rho_seq)
    rates = [
        float(np.log2(a / b)) if b > 0 else float("inf")
        for a, b in zip(rho_seq, rho_seq[1:])
    ]

    uniformity = {}
    if cfg.sweep_kind == "modes" and len(apriori) >= 2:
        keys = ("sup_energy", "strain_lr_time_integral", "sup_rho_theta_l1")
        for key in keys:
            seq = [apriori[v][key] for v in values if v in apriori]
            growth = max(
                (b / max(a, 1e-30) for a, b in zip(seq, seq[1:])), default=1.0
            )
            uniformity[key] = {"values": seq, "bounded": bool(growth < 2.0)}

    report = StudyReport(
        kind=cfg.sweep_kind,
        values=values,
        pairs=pairs,
        strictly_decreasing=bool(decreasing),
        rates=rates,
        aborted_cells=aborted,
        uniformity_flags=uniformity,
    )
    (outdir / "study.json").write_text(json.dumps(asdict(report), indent=2, sort_keys=True))
    if not quiet:
        print(f"[study] {cfg.sweep_kind}: decreasing={report.strictly_decreasing} pairs={len(pairs)}")
    return report


# ---------------------------------------------------------------- check suite
#
# Each check returns (ok, detail).  Its keyword arguments are the inputs a
# test may vary; their defaults are the inputs ``specmhd check`` runs.


_INEQUALITY_PARAMS = cst.ConstitutiveParams(
    power_law_exponent=2.8,
    stress_smoothing=0.0,
    viscosity_min=0.5,
    viscosity_max=2.0,
    viscosity_form="density_temperature",
    conductivity_exponent=1.5,
    conductivity_min=0.5,
    conductivity_max=2.0,
    conductivity_form="density_affine",
)


def _check_constitutive_inequalities(
    params: cst.ConstitutiveParams = _INEQUALITY_PARAMS,
) -> tuple[bool, str]:
    """The structural inequalities of the stress and the heat flux over 10^4
    admissible samples, each to 1e-12: coercivity and growth of the stress
    between ``viscosity_min`` and ``viscosity_max`` times
    ``(stress_smoothing + |D|^2)^((r-2)/2) |D|``, monotonicity of the
    stress, and coercivity and growth of the flux between
    ``conductivity_min`` and ``conductivity_max`` times ``theta^alpha``."""
    p = params
    rng = np.random.default_rng(2024)
    rho, theta, d = cst.sample_admissible(p, 10_000, rng)
    s = cst.stress_tensor(p, rho, theta, d)
    d2 = cst.frobenius_sq(d)
    factor = (p.stress_smoothing + d2) ** (0.5 * (p.power_law_exponent - 2.0))
    coercive = np.all(cst.contract(s, d) >= p.viscosity_min * factor * d2 - 1e-12)
    growth = np.all(np.sqrt(cst.frobenius_sq(s)) <= p.viscosity_max * factor * np.sqrt(d2) + 1e-12)
    _, _, b = cst.sample_admissible(p, 10_000, rng)
    sb = cst.stress_tensor(p, rho, theta, b)
    monotone = np.all(cst.contract(s - sb, d - b) >= -1e-12)
    grad = rng.normal(size=(10_000, 3)).T
    q = cst.heat_flux(p, rho, theta, grad)
    g2 = np.sum(grad * grad, axis=0)
    talpha = theta**p.conductivity_exponent
    flux_lower = np.all(np.sum(q * grad, axis=0) >= p.conductivity_min * talpha * g2 - 1e-12)
    flux_upper = np.all(
        np.sqrt(np.sum(q * q, axis=0)) <= p.conductivity_max * talpha * np.sqrt(g2) + 1e-12
    )
    holds = {
        "coercivity": coercive,
        "growth": growth,
        "monotonicity": monotone,
        "flux coercivity": flux_lower,
        "flux growth": flux_upper,
    }
    failed = [name for name, ok in holds.items() if not ok]
    if failed:
        return False, "violated: " + ", ".join(failed)
    return True, "coercivity/growth/monotonicity/flux over 10^4 samples"


# The vector modes that the spectral and galerkin checks use on their default
# basis, _check_basis().
_CHECK_MODES = 20


def _check_basis() -> sp.DivFreeSpectralBasis:
    return sp.build_basis(2 * np.pi, 12)


def _check_spectral_core(basis: sp.DivFreeSpectralBasis | None = None, modes: int = _CHECK_MODES) -> tuple[bool, str]:
    """The first ``modes`` vector modes are orthonormal (projection recovers
    the coefficients to 1e-12), each is solenoidal to 1e-13, Parseval holds
    to 1e-10, and the gather of any gradient vanishes to 1e-12, so pressure
    never enters."""
    basis = basis or _check_basis()
    rng = np.random.default_rng(7)
    coeffs = rng.normal(size=modes)
    vals = basis.vector_grid(coeffs)
    ortho = np.allclose(basis.project_vector(vals, modes), coeffs, rtol=1e-12, atol=1e-13)
    div_free = all(
        np.max(np.abs(basis.spectral_to_grid(basis.div(basis.synth_vector(e))))) < 1e-13
        for e in np.eye(modes)
    )
    w = basis.volume / basis.grid_points**3
    parseval = abs(w * np.sum(vals**2) - np.sum(coeffs**2)) < 1e-10 * np.sum(coeffs**2)
    # gradients are orthogonal to every mode, so pressure never enters
    phi = basis.synth_scalar(rng.normal(size=9))
    grad = np.stack([basis.grad(phi, m) for m in range(3)])
    killed = np.max(np.abs(basis.gather_vector(grad, modes))) < 1e-12
    ok = bool(ortho and div_free and parseval and killed)
    return ok, "orthonormality, div-free, Parseval, gradients orthogonal to the modes"


def _check_fields(seed: int, amp: float, eps_density: float = 0.0):
    """Realization of a random state with a density harmonic, the default
    input of the galerkin checks."""
    basis = _check_basis()
    rng = np.random.default_rng(seed)
    rho_spec = basis.zero_spectrum()
    rho_spec[0, 0, 0] = 1.0
    basis.set_amplitude(rho_spec, (0, 0, 1), 0.1)
    k = _CHECK_MODES
    b = np.zeros(k + 1)
    b[0] = 1.0 * np.sqrt(basis.volume)
    state = gal.SimState(
        t=0.0,
        rho=rho_spec,
        a=amp * rng.normal(size=k) / np.sqrt(k),
        b=b,
        c=amp * rng.normal(size=k) / np.sqrt(k),
        basis=basis,
    )
    return gal.GalerkinOperators(cst.ConstitutiveParams(), basis, eps_density).fields(state)


def _check_mass_matrices(fields=None) -> tuple[bool, str]:
    """The Gram matrices at a state below the matrix-free crossover: SPD, the
    velocity mass with eigenvalues inside the density range, and equal to
    the matrix-free operators applied to each unit vector."""
    f = fields if fields is not None else _check_fields(seed=3, amp=0.5)
    vel, heat = f.ops.velocity_mass(f), f.ops.thermal_mass(f)
    evals = np.linalg.eigvalsh(vel)
    ok = evals.min() >= f.rho.min() - 1e-8 and evals.max() <= f.rho.max() + 1e-8
    ok = ok and np.all(np.linalg.eigvalsh(heat) > 0)
    gap = 0.0
    for op, gram in ((gal.MassOperator.velocity(f), vel), (gal.MassOperator.thermal(f), heat)):
        columns = np.stack([op @ e for e in np.eye(op.count)], axis=1)
        gap = max(gap, float(np.max(np.abs(columns - gram)) / np.max(np.abs(gram))))
    ok = ok and gap <= 1e-13
    return bool(ok), (
        f"SPD with eigenvalues inside the density range; matrix-free columns within "
        f"{gap:.1e} of the Gram matrices"
    )


def _check_energy_identity(fields=None) -> tuple[bool, str]:
    """The semi-discrete energy identity at one state,
    ``0.5 (rho_t, |u|^2) + a . F_a + c . F_c = -D_visc - D_mag`` with
    ``F_a``, ``F_c`` the momentum and induction right-hand sides of the
    realization's operators, to 1e-9 of the summed energies and
    dissipations."""
    f = fields if fields is not None else _check_fields(seed=4, amp=0.6, eps_density=1e-3)
    rep = gal.energy_report(f)
    st, w_n = f.st, f.basis.volume / f.n**3
    rho_t = f.basis.spectral_to_grid(f.density_rate)
    ddt_rho_kin = w_n * float(np.sum(rho_t * np.sum(f.u**2, axis=0)))
    adot_term = float(st.a @ f.ops.momentum_rhs(f))
    cdot_term = float(st.c @ f.ops.induction_rhs(f))
    lhs = 0.5 * ddt_rho_kin + adot_term + cdot_term
    defect = abs(lhs - (-rep["D_visc"] - rep["D_mag"]))
    scale = sum(abs(rep[k]) for k in ("E_kin", "E_mag", "D_visc", "D_mag")) + 1e-30
    return bool(defect < 1e-9 * scale), f"defect {defect:.2e} vs scale {scale:.2e}"


def _check_heat_balance(fields=None) -> tuple[bool, str]:
    """Exact total-heat bookkeeping at one state: the rate of the total heat
    from the thermal mass solve equals the integrated Joule and viscous
    heating to 1e-10 relative (1e-12 absolute)."""
    f = fields if fields is not None else _check_fields(seed=5, amp=0.5, eps_density=1e-3)
    ops, basis, p = f.ops, f.basis, f.ops.params
    nmat = ops.thermal_mass(f)
    db = ops.solve_mass(nmat, ops.thermal_rhs(f))
    w_n, w_m = basis.volume / f.n**3, basis.volume / f.m**3
    lhs = np.sqrt(basis.volume) * (nmat @ db)[0] + w_m * np.sum(f.rho_t_m * f.heat_m)
    # Joule heating on the base grid, viscous power on the oversampled grid,
    # as the thermal right-hand side gathers them
    rhs = w_n * p.magnetic_diffusivity * np.sum(f.curl_H**2) + w_m * np.sum(f.viscous_power_m)
    err = abs(lhs - rhs)
    ok = err <= max(1e-10 * abs(rhs), 1e-12)
    return bool(ok), f"total heat rate equals the integrated sources to {err:.2e}"


def _single_mode_state(**initial) -> gal.SimState:
    """A single_mode initial state on the 8^3 grid with 36 vector modes (full
    first and second shells, so triad couplings are active) and all 33
    scalar modes."""
    cfg = RunConfig(grid_points=8, velocity_modes=36, temperature_modes=33, magnetic_modes=36,
                    initial_family="single_mode", initial_params=initial)
    return build_initial_state(cfg, build_basis_for(cfg))


def _check_magnetic_decay() -> tuple[bool, str]:
    """A lowest-shell magnetic mode decays as ``exp(-nu k^2 t)`` to 1e-6
    relative and as the Crank-Nicolson product to 1e-12, and the velocity
    stays at rest to 1e-12."""
    state = _single_mode_state(magnetic_amplitude=0.5)
    basis = state.basis
    p = cst.ConstitutiveParams()
    rec = diag.TrajectoryRecorder(p)
    step = itg.StepConfig(dt=1e-3, t_end=0.1)
    summary = itg.integrate(p, state, step, observers=[rec])
    h_final = np.sqrt(2.0 * rec.records[-1].E_mag)
    expected = 0.5 * np.exp(-p.magnetic_diffusivity * basis.vec_k2[0] * step.t_end)
    err = abs(h_final - expected) / expected
    # on one decoupled mode the midpoint rule is Crank-Nicolson
    z = p.magnetic_diffusivity * basis.vec_k2[0] * step.dt
    crank_nicolson = 0.5 * ((1.0 - 0.5 * z) / (1.0 + 0.5 * z)) ** summary.n_steps
    err_cn = abs(h_final - crank_nicolson) / crank_nicolson
    # the single-mode Lorentz force is a gradient, so the flow stays at rest
    u_max = float(np.max(np.abs(summary.final_state.a)))
    ok = err < 1e-6 and err_cn < 1e-12 and u_max < 1e-12
    return bool(ok), (
        f"relative error {err:.2e} vs closed form, {err_cn:.2e} vs Crank-Nicolson, max |a| {u_max:.1e}"
    )


def _check_density_decay(eps_density: float = 5e-3) -> tuple[bool, str]:
    """A density harmonic in a fluid at rest decays under the
    regularization as the heat kernel ``exp(-eps k^2 t)``, to 1e-6
    relative."""
    state = _single_mode_state(density_amplitude=0.2, density_axis=0)
    p = cst.ConstitutiveParams()
    rec = diag.TrajectoryRecorder(p)
    summary = itg.integrate(p, state, itg.StepConfig(dt=1e-3, t_end=0.1), observers=[rec], eps_density=eps_density)
    amp = summary.final_state.rho[1, 0, 0].real
    expected = 0.1 * np.exp(-eps_density * 0.1)
    err = abs(amp - expected) / expected
    return bool(err < 1e-6), f"relative error {err:.2e} vs heat kernel"


def _check_energy_residual_order(
    state: gal.SimState | None = None, eps_density: float = 0.0
) -> tuple[bool, str]:
    """Second-order energy balance: the recorded ``max |energy_residual|`` of
    a run stays below 1e-6 at dt = 2e-3 and falls by a factor in [3.5, 4.5]
    when dt halves.  The density regularization's coupling cancels inside
    the assembled system, so the residual carries no explicit eps term and
    measures time-discretization error only."""
    if state is None:
        # the second-shell magnetic mode couples back onto the retained modes
        state = _single_mode_state(velocity_amplitude=0.5, magnetic_amplitude=0.5, magnetic_mode=12)
    p = cst.ConstitutiveParams()
    maxima = []
    for dt in (2e-3, 1e-3):
        rec = diag.TrajectoryRecorder(p)
        step = itg.StepConfig(dt=dt, t_end=0.02)
        itg.integrate(p, state, step, observers=[rec], eps_density=eps_density)
        maxima.append(_max_abs_energy_residual(rec.records))
    ratio = maxima[0] / maxima[1] if maxima[1] > 0.0 else np.inf
    ok = maxima[0] < 1e-6 and 3.5 <= ratio <= 4.5
    return bool(ok), f"max residual {maxima[0]:.2e}, halving ratio {ratio:.2f}"


def _check_vector_identities(
    basis: sp.DivFreeSpectralBasis | None = None, pairs: list | None = None, nu: float = 0.9,
    modes: int = _CHECK_MODES,
) -> tuple[bool, str]:
    """The curl/divergence identities behind the energy bookkeeping,
    pointwise to 1e-10 for each ``(c_u, c_H)`` pair of vector spectra (by
    default five pairs of random fields on the first ``modes`` modes)::

        div(nu H x curl H)   = nu |curl H|^2 - curl(nu curl H) . H
        div((u x H) x H)     = ((curl H) x H) . u + curl(u x H) . H

    Both sides are evaluated spectrally on twice the base grid, which
    resolves every product (up to cubic) of basis-band fields exactly, so on
    such fields the defect is rounding noise."""
    basis = basis or _check_basis()
    if pairs is None:
        rng = np.random.default_rng(11)
        pairs = [tuple(basis.synth_vector(rng.normal(size=modes)) for _ in range(2)) for _ in range(5)]
    g = 2 * basis.grid_points
    grid = basis.spectral_to_grid

    def div_grid(vec: np.ndarray) -> np.ndarray:
        return grid(basis.div(basis.grid_to_spectral(vec)))

    def cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.cross(a, b, axisa=0, axisb=0, axisc=0)

    worst = 0.0
    for c_u, c_h in pairs:
        c_u, c_h = basis.resample_spectrum(c_u, g), basis.resample_spectrum(c_h, g)
        c_curl_h = basis.curl(c_h)
        u, h, curl_h = grid(c_u), grid(c_h), grid(c_curl_h)
        magnetic = div_grid(nu * cross(h, curl_h)) - (
            nu * np.sum(curl_h**2, axis=0) - np.sum(grid(basis.curl(nu * c_curl_h)) * h, axis=0)
        )
        uxh = cross(u, h)
        curl_uxh = grid(basis.curl(basis.grid_to_spectral(uxh)))
        lorentz = div_grid(cross(uxh, h)) - (
            np.sum(cross(curl_h, h) * u, axis=0) + np.sum(curl_uxh * h, axis=0)
        )
        worst = max(worst, float(np.max(np.abs(magnetic))), float(np.max(np.abs(lorentz))))
    return bool(worst < 1e-10), f"max pointwise defect {worst:.2e} over {len(pairs)} field pairs"


def _grid_norms_sq(basis: sp.DivFreeSpectralBasis, c: np.ndarray) -> tuple[float, float, float]:
    """Squared L2 norms of the field with vector spectrum ``c``, of its
    gradient and of its strain ``grad u + grad u^T``, by grid quadrature."""
    w = basis.volume / c.shape[-1] ** 3
    grad = basis.grid_gradient(c)
    return (
        w * float(np.sum(basis.spectral_to_grid(c) ** 2)),
        w * float(np.sum(grad**2)),
        w * float(np.sum((grad + grad.swapaxes(0, 1)) ** 2)),
    )


def _check_functional_inequalities(
    basis: sp.DivFreeSpectralBasis | None = None, n_fields: int = 100, seed: int = 5, modes: int = _CHECK_MODES
) -> tuple[bool, str]:
    """The sharp Korn and Poincare constants over ``n_fields`` random fields
    on the first ``modes`` modes: on solenoidal zero-mean fields of the torus
    the ratio |grad u| / |grad u + grad u^T| equals 1/sqrt(2) to 1e-10 relative
    (so the Korn constant 1 holds with margin), every ratio |u| / |grad u|
    is at most L / (2 pi) + 1e-12, and a single lowest-shell mode attains
    L / (2 pi) to 1e-12 by grid quadrature."""
    basis = basis or _check_basis()
    rng = np.random.default_rng(seed)
    worst_korn = 0.0
    worst_poincare = 0.0
    for _ in range(n_fields):
        coeffs = rng.normal(size=modes)
        _, grad_sq, strain_sq = _grid_norms_sq(basis, basis.synth_vector(coeffs))
        worst_korn = max(worst_korn, float(np.sqrt(grad_sq / strain_sq)))
        norm = float(np.sqrt(np.sum(coeffs**2)))
        grad_norm = float(np.sqrt(np.sum(coeffs**2 * basis.vec_k2[:modes])))
        worst_poincare = max(worst_poincare, norm / grad_norm)
    poincare = basis.box_size / (2.0 * np.pi)
    # equality case: a single lowest-shell mode
    lowest_sq, lowest_grad_sq, _ = _grid_norms_sq(basis, basis.synth_vector(np.eye(modes)[0]))
    lowest = float(np.sqrt(lowest_sq / lowest_grad_sq))
    ok = (
        abs(worst_korn * np.sqrt(2.0) - 1.0) <= 1e-10
        and worst_poincare <= poincare + 1e-12
        and abs(lowest - poincare) < 1e-12
    )
    return bool(ok), (
        f"korn {worst_korn:.6f} = 1/sqrt(2) <= 1, Poincare ratio {worst_poincare:.6f} <= "
        f"L/(2 pi) = {poincare:.6f}, lowest-mode ratio {lowest:.12f}"
    )


def _check_decay_bound() -> tuple[bool, str]:
    """The magnetic decay envelope: every recorded sample of a coupled
    single-mode run holds ``decay_ok`` (the bound with its relative slack
    ``DECAY_BOUND_SLACK``), and the heat and density flags hold with it."""
    state = _single_mode_state(velocity_amplitude=0.3, magnetic_amplitude=0.5)
    p = cst.ConstitutiveParams()
    rec = diag.TrajectoryRecorder(p)
    itg.integrate(p, state, itg.StepConfig(dt=1e-3, t_end=0.05), observers=[rec])
    recs = rec.records
    margin = min(diag.decay_margin(r.decay_lhs, r.decay_rhs) for r in recs)
    flags = all(r.heat_monotone_ok and r.density_bounds_ok for r in recs)
    ok = all(r.decay_ok for r in recs) and flags
    return bool(ok), f"min margin {margin:.3e}, heat and density flags {flags}"


def _check_config_round_trip(cfg: RunConfig | None = None) -> tuple[bool, str]:
    """Loading a serialized config gives the same config back, and
    serializing it again gives the same text."""
    from specmhd.config import load_config_text

    cfg = cfg or RunConfig(initial_params={"velocity_amplitude": 0.5, "seed": 3})
    text = serialize_config(cfg)
    again = load_config_text(text)
    return bool(again == cfg and serialize_config(again) == text), "load -> serialize -> load fixed point"


def _check_determinism(cfg: RunConfig | None = None) -> tuple[bool, str]:
    """Two runs of the same config and seed write byte-identical
    ``diagnostics.csv`` files."""
    import tempfile

    cfg = cfg or RunConfig(
        grid_points=8,
        velocity_modes=12,
        temperature_modes=13,
        magnetic_modes=12,
        step=itg.StepConfig(dt=1e-3, t_end=0.01),
        initial_family="random_band",
        initial_params={"seed": 9, "velocity_amplitude": 0.2, "magnetic_amplitude": 0.2},
    )
    with tempfile.TemporaryDirectory() as tmp:
        run(cfg, output_dir=f"{tmp}/a", quiet=True)
        run(cfg, output_dir=f"{tmp}/b", quiet=True)
        a = Path(f"{tmp}/a/diagnostics.csv").read_bytes()
        b = Path(f"{tmp}/b/diagnostics.csv").read_bytes()
    return bool(a == b), f"byte-identical diagnostics ({len(a)} bytes) for identical config+seed"


# The registry of verification properties.  ``specmhd check`` runs it, and
# pytest runs each entry as ``test_registered_check[<name>]``.
CHECKS = {
    "constitutive.inequalities": _check_constitutive_inequalities,
    "spectral.core": _check_spectral_core,
    "galerkin.mass_matrices": _check_mass_matrices,
    "galerkin.energy_identity": _check_energy_identity,
    "galerkin.heat_balance": _check_heat_balance,
    "integrator.magnetic_decay": _check_magnetic_decay,
    "integrator.density_decay": _check_density_decay,
    "integrator.residual_order": _check_energy_residual_order,
    "diagnostics.vector_identities": _check_vector_identities,
    "diagnostics.functional_inequalities": _check_functional_inequalities,
    "diagnostics.decay_bound": _check_decay_bound,
    "harness.config_round_trip": _check_config_round_trip,
    "harness.determinism": _check_determinism,
}


def check(suite: str | None = None, quiet: bool = False) -> tuple[bool, list[str]]:
    """Run the registered checks whose names contain ``suite`` (all when it
    is None), with per-check timing."""
    selected = [(name, fn) for name, fn in CHECKS.items() if suite is None or suite in name]
    if not selected:
        raise ConfigError(f"no checks match suite {suite!r}")
    lines = []
    all_ok = True
    for name, fn in selected:
        t0 = time.perf_counter()
        try:
            ok, detail = fn()
        except Exception as exc:  # a crashed check is a failed check
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        all_ok = all_ok and ok
        line = f"[{'PASS' if ok else 'FAIL'}] {name} ({dt:.2f}s) {detail}"
        lines.append(line)
        if not quiet:
            print(line)
    return all_ok, lines
