"""Run orchestration: single runs, mode/regularization sweeps, and the
self-verification suite.

Every run directory receives the canonical config copy, the diagnostics CSV
(fixed column order, one row per sample), a machine-readable ``summary.json``,
and a schema-version stamp.  Runs are deterministic for a fixed config and
seed: identical inputs produce byte-identical CSV output.
"""

from __future__ import annotations

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

EXIT_PASS = 0
EXIT_INVARIANT = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


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
        "field_schema": sp.FIELD_SCHEMA_VERSION,
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


def _final_snapshots(outdir: Path, state: gal.SimState) -> None:
    basis = state.basis
    sp.Field("scalar", "grid", basis.spectral_to_grid(state.rho), basis.box_size).save(outdir / "rho_final")
    sp.Field("vector", "grid", basis.vector_grid(state.a), basis.box_size).save(outdir / "velocity_final")
    sp.Field("vector", "grid", basis.vector_grid(state.c), basis.box_size).save(outdir / "magnetic_final")
    sp.Field("scalar", "grid", basis.scalar_grid(state.b), basis.box_size).save(outdir / "theta_final")


def build_basis_for(cfg: RunConfig) -> sp.DivFreeSpectralBasis:
    return sp.build_basis(cfg.box_size, cfg.grid_points, max(cfg.velocity_modes, cfg.magnetic_modes))


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
    if seed is not None:
        cfg = replace(cfg, initial_params={**cfg.initial_params, "seed": int(seed)})
    outdir = _resolve_output_dir(cfg, output_dir, "run")
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "config.cfg").write_text(serialize_config(cfg))
    _write_stamp(outdir)

    recorder = diag.TrajectoryRecorder(cfg.constitutive, None, store_history=store_history)
    status = "completed"
    exit_code = EXIT_PASS
    error_msg = ""
    summary_extra: dict = {}
    t_start = time.perf_counter()
    try:
        _require_valid(cfg)
        basis = build_basis_for(cfg)
        recorder.basis = basis
        state0 = build_initial_state(cfg, basis)
        traj = itg.integrate(
            cfg.constitutive,
            basis,
            state0,
            cfg.step,
            observers=[recorder],
            eps_density=cfg.density_regularization,
            cadence=cfg.cadence,
        )
        summary_extra = {
            "n_steps": traj.n_steps,
            "clamp_total": traj.clamp_total,
            "monitors": traj.monitors,
        }
        if cfg.snapshots:
            _final_snapshots(outdir, traj.final_state)
    except ConfigError as exc:
        status, exit_code, error_msg = "config_error", EXIT_CONFIG, str(exc)
    except InvariantViolation as exc:
        status, exit_code, error_msg = "invariant_failure", EXIT_INVARIANT, str(exc)
    except (BlowUpError, MassSolveError, NonlinearSolveError) as exc:
        status, exit_code, error_msg = "numerical_abort", EXIT_NUMERICAL, str(exc)
    wall = time.perf_counter() - t_start

    flags_ok = bool(
        recorder.records
        and all(
            r.decay_ok and r.heat_monotone_ok and r.density_bounds_ok and r.visc_floor_ok
            for r in recorder.records
        )
    )
    heat_drop = summary_extra.get("monitors", {}).get("heat_drop_worst", 0.0)
    flags_ok = flags_ok and heat_drop <= diag.HEAT_MONOTONE_SLACK
    if status == "completed" and not flags_ok:
        status, exit_code = "invariant_failure", EXIT_INVARIANT

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
            "max_abs_energy_residual": float(
                max(abs(r.energy_residual) for r in recorder.records)
            ),
        }
        rate = _decay_rate_estimate(recorder)
        if rate is not None:
            summary["magnetic_decay_rate"] = rate

    _write_csv(outdir, recorder)
    (outdir / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True))
    if not quiet:
        print(f"[{status}] {cfg.initial_family}: {len(recorder.records)} samples, {wall:.2f}s")
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
            aborted.append({"value": val, "status": rep.status, "error": rep.summary.get("error", "")})
            continue
        cells[val] = rep.recorder
        apriori[val] = diag.apriori_monitor(cfg.constitutive, rep.recorder)

    pairs = []
    for lo, hi in zip(values, values[1:]):
        if lo not in cells or hi not in cells:
            continue
        rec_a, rec_b = cells[lo], cells[hi]
        times = np.array([h["t"] for h in rec_a.history])
        basis = rec_a.basis if rec_a.basis.n_vector_modes >= rec_b.basis.n_vector_modes else rec_b.basis
        u_diff = _velocity_difference_norm(
            basis,
            [h["a"] for h in rec_a.history],
            [h["a"] for h in rec_b.history],
            times,
        )
        rho_diff = _density_difference_norm(
            basis,
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


def _check_basis() -> sp.DivFreeSpectralBasis:
    return sp.build_basis(2 * np.pi, 12, 20)


def _check_spectral_core(basis: sp.DivFreeSpectralBasis | None = None) -> tuple[bool, str]:
    basis = basis or _check_basis()
    k = basis.k_modes
    rng = np.random.default_rng(7)
    coeffs = rng.normal(size=k)
    vals = basis.vector_grid(coeffs)
    ortho = np.allclose(basis.project_vector(vals), coeffs, rtol=1e-12, atol=1e-13)
    div_free = all(
        np.max(np.abs(basis.spectral_to_grid(basis.div(basis.synth_vector(e))))) < 1e-13
        for e in np.eye(k)
    )
    w = basis.volume / basis.grid_points**3
    parseval = abs(w * np.sum(vals**2) - np.sum(coeffs**2)) < 1e-10 * np.sum(coeffs**2)
    # gradients are orthogonal to every mode, so pressure never enters
    phi = basis.synth_scalar(rng.normal(size=9))
    grad = np.stack([basis.grad(phi, m) for m in range(3)])
    killed = np.max(np.abs(basis.gather_vector(grad, k))) < 1e-12
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
    nb = min(basis.k_modes + 1, basis.n_scalar_modes)
    b = np.zeros(nb)
    b[0] = 1.0 * np.sqrt(basis.volume)
    state = gal.SimState(
        t=0.0,
        rho=rho_spec,
        a=amp * rng.normal(size=basis.k_modes) / np.sqrt(basis.k_modes),
        b=b,
        c=amp * rng.normal(size=basis.k_modes) / np.sqrt(basis.k_modes),
        basis=basis,
    )
    return gal.GalerkinOperators(cst.ConstitutiveParams(), basis, eps_density).fields(state)


def _check_mass_matrices(fields=None) -> tuple[bool, str]:
    f = fields if fields is not None else _check_fields(seed=3, amp=0.5)
    evals = np.linalg.eigvalsh(f.ops.velocity_mass(f))
    ok = evals.min() >= f.rho.min() - 1e-8 and evals.max() <= f.rho.max() + 1e-8
    ok = ok and np.all(np.linalg.eigvalsh(f.ops.thermal_mass(f)) > 0)
    return bool(ok), "SPD with eigenvalues inside the density range"


def _check_energy_identity(fields=None) -> tuple[bool, str]:
    f = fields if fields is not None else _check_fields(seed=4, amp=0.6, eps_density=1e-3)
    rep = gal.energy_report(f)
    defect, scale = rep["identity_defect"], rep["identity_scale"]
    return bool(defect < 1e-9 * scale), f"defect {defect:.2e} vs scale {scale:.2e}"


def _check_heat_balance(fields=None) -> tuple[bool, str]:
    f = fields if fields is not None else _check_fields(seed=5, amp=0.5, eps_density=1e-3)
    ops, basis, p = f.ops, f.basis, f.ops.params
    nmat = ops.thermal_mass(f)
    db = ops.solve_mass(nmat, ops.thermal_rhs(f))
    w_m = basis.volume / f.m**3
    rho_t_m = basis.spectral_to_grid(basis.resample_spectrum(f.density_rate, f.m))
    lhs = np.sqrt(basis.volume) * (nmat @ db)[0] + w_m * np.sum(rho_t_m * f.heat_m)
    src = p.magnetic_diffusivity * np.sum(f.curl_H_m**2, axis=0) + f.viscous_power_m
    rhs = w_m * np.sum(src)
    err = abs(lhs - rhs)
    ok = err <= max(1e-10 * abs(rhs), 1e-12)
    return bool(ok), f"total heat rate equals the integrated sources to {err:.2e}"


def _decay_test_state(basis):
    """Unit density and temperature with one lowest-shell magnetic mode."""
    rho_spec = basis.zero_spectrum()
    rho_spec[0, 0, 0] = 1.0
    nb = min(basis.k_modes + 1, basis.n_scalar_modes)
    b = np.zeros(nb)
    b[0] = np.sqrt(basis.volume)
    st = gal.SimState(
        t=0.0,
        rho=rho_spec,
        a=np.zeros(basis.k_modes),
        b=b,
        c=np.zeros(basis.k_modes),
        basis=basis,
    )
    st.c[0] = 0.5
    return st


def _integrator_basis() -> sp.DivFreeSpectralBasis:
    # 36 modes: full first and second shells, so triad couplings are active
    return sp.build_basis(2 * np.pi, 8, 36)


# closed-form decay tolerance by the order of the scheme
_DECAY_TOLERANCE = {"implicit-midpoint": 1e-6, "imex-cn-ab2": 1e-6, "explicit-rk4": 1e-9}


def _check_magnetic_decay(scheme: str = "implicit-midpoint") -> tuple[bool, str]:
    basis = _integrator_basis()
    p = cst.ConstitutiveParams()
    rec = diag.TrajectoryRecorder(p, basis)
    step = itg.StepConfig(dt=1e-3, t_end=0.1, scheme=scheme)
    summary = itg.integrate(p, basis, _decay_test_state(basis), step, observers=[rec])
    h_final = np.sqrt(2.0 * rec.records[-1].E_mag)
    expected = 0.5 * np.exp(-p.magnetic_diffusivity * basis.vec_k2[0] * 0.1)
    err = abs(h_final - expected) / expected
    # the single-mode Lorentz force is a gradient, so the flow stays at rest
    u_max = float(np.max(np.abs(summary.final_state.a)))
    ok = err < _DECAY_TOLERANCE[scheme] and u_max < 1e-12
    return bool(ok), f"relative error {err:.2e} vs closed form, max |a| {u_max:.1e}"


def _check_density_decay(eps_density: float = 5e-3) -> tuple[bool, str]:
    basis = _integrator_basis()
    p = cst.ConstitutiveParams()
    st = _decay_test_state(basis)
    st.c[:] = 0.0
    basis.set_amplitude(st.rho, (1, 0, 0), 0.1)
    rec = diag.TrajectoryRecorder(p, basis)
    summary = itg.integrate(
        p, basis, st, itg.StepConfig(dt=1e-3, t_end=0.1), observers=[rec], eps_density=eps_density
    )
    amp = summary.final_state.rho[1, 0, 0].real
    expected = 0.1 * np.exp(-eps_density * 0.1)
    err = abs(amp - expected) / expected
    return bool(err < 1e-6), f"relative error {err:.2e} vs heat kernel"


def _check_energy_residual_order(
    state: gal.SimState | None = None, eps_density: float = 0.0
) -> tuple[bool, str]:
    if state is None:
        state = _decay_test_state(_integrator_basis())
        state.a[0] = 0.5
        state.c[:] = 0.0
        state.c[12] = 0.5
    p = cst.ConstitutiveParams()
    maxima = []
    for dt in (2e-3, 1e-3):
        rec = diag.TrajectoryRecorder(p, state.basis)
        step = itg.StepConfig(dt=dt, t_end=0.02)
        itg.integrate(p, state.basis, state, step, observers=[rec], eps_density=eps_density)
        maxima.append(diag.energy_balance(rec)["max_abs_residual"])
    ratio = diag.residual_order(maxima[0], maxima[1])
    ok = maxima[0] < 1e-6 and 3.5 <= ratio <= 4.5
    return bool(ok), f"max residual {maxima[0]:.2e}, halving ratio {ratio:.2f}"


def _check_vector_identities(basis: sp.DivFreeSpectralBasis | None = None) -> tuple[bool, str]:
    basis = basis or _check_basis()
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(5):
        u = basis.synth_vector(rng.normal(size=basis.k_modes))
        h = basis.synth_vector(rng.normal(size=basis.k_modes))
        worst = max(worst, diag.vector_identity_check(basis, u, h, nu=0.9)["max_defect"])
    return bool(worst < 1e-10), f"max pointwise defect {worst:.2e} over 5 random field pairs"


def _check_functional_inequalities(basis: sp.DivFreeSpectralBasis | None = None) -> tuple[bool, str]:
    rep = diag.functional_inequality_check(basis or _check_basis(), n_fields=100, seed=5)
    ok = (
        rep["korn_worst_ratio"] <= 1.0 + 1e-10
        and abs(rep["poincare_lowest_mode_ratio"] - rep["poincare_constant"]) < 1e-12
    )
    return bool(ok), (
        f"korn {rep['korn_worst_ratio']:.6f} <= 1, lowest-mode ratio "
        f"{rep['poincare_lowest_mode_ratio']:.12f}"
    )


def _check_decay_bound() -> tuple[bool, str]:
    basis = _integrator_basis()
    p = cst.ConstitutiveParams()
    st = _decay_test_state(basis)
    st.a[0] = 0.3
    rec = diag.TrajectoryRecorder(p, basis)
    itg.integrate(p, basis, st, itg.StepConfig(dt=1e-3, t_end=0.05), observers=[rec])
    rep = diag.decay_bound_report(rec)
    flags = all(r.heat_monotone_ok and r.density_bounds_ok for r in rec.records)
    return bool(rep["ok"] and flags), f"min margin {rep['min_margin']:.3e}, heat and density flags {flags}"


def _check_config_round_trip(cfg: RunConfig | None = None) -> tuple[bool, str]:
    from specmhd.config import load_config_text

    cfg = cfg or RunConfig(initial_params={"velocity_amplitude": 0.5, "seed": 3})
    text = serialize_config(cfg)
    again = load_config_text(text)
    return bool(again == cfg and serialize_config(again) == text), "load -> serialize -> load fixed point"


def _check_determinism(cfg: RunConfig | None = None) -> tuple[bool, str]:
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
