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
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import specmhd
from specmhd import constitutive as cst
from specmhd import diagnostics as diag
from specmhd import galerkin as gal
from specmhd import integrator as itg
from specmhd import spectral as sp
from specmhd.config import CONFIG_SCHEMA_VERSION, RunConfig, serialize_config
from specmhd.errors import BlowUpError, ConfigError, InvariantViolation, MassSolveError
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
    output_dir: Path | None
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
    sp.Field("scalar", "grid", state.rho.to_grid().data, basis.box_size).save(outdir / "rho_final")
    sp.Field("vector", "grid", basis.vector_grid(state.a), basis.box_size).save(outdir / "velocity_final")
    sp.Field("vector", "grid", basis.vector_grid(state.c), basis.box_size).save(outdir / "magnetic_final")
    sp.Field("scalar", "grid", basis.scalar_grid(state.b), basis.box_size).save(outdir / "theta_final")


def build_basis_for(cfg: RunConfig) -> sp.DivFreeSpectralBasis:
    k = max(cfg.velocity_modes, cfg.magnetic_modes)
    basis = sp.build_basis(cfg.box_size, cfg.grid_points, k)
    if cfg.temperature_modes > basis.n_scalar_modes:
        raise ConfigError(
            f"insufficient resolution: temperature_modes={cfg.temperature_modes} but only "
            f"{basis.n_scalar_modes} scalar modes available"
        )
    return basis


def run(
    cfg: RunConfig,
    output_dir: str | None = None,
    seed: int | None = None,
    quiet: bool = False,
    store_history: bool = False,
    write_outputs: bool = True,
) -> RunReport:
    """Execute one configured run and emit its artifact directory."""
    if seed is not None:
        cfg = replace(cfg, initial_params={**cfg.initial_params, "seed": int(seed)})
    outdir = _resolve_output_dir(cfg, output_dir, "run") if write_outputs else None
    if outdir is not None:
        outdir.mkdir(parents=True, exist_ok=True)
        (outdir / "config.cfg").write_text(serialize_config(cfg))
        _write_stamp(outdir)

    recorder = diag.TrajectoryRecorder(
        cfg.constitutive, None, eps_density=cfg.density_regularization, store_history=store_history
    )
    status = "completed"
    exit_code = EXIT_PASS
    error_msg = ""
    summary_extra: dict = {}
    t_start = time.perf_counter()
    try:
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
        if outdir is not None and cfg.snapshots:
            _final_snapshots(outdir, traj.final_state)
    except ConfigError as exc:
        status, exit_code, error_msg = "config_error", EXIT_CONFIG, str(exc)
    except InvariantViolation as exc:
        status, exit_code, error_msg = "invariant_failure", EXIT_INVARIANT, str(exc)
    except (BlowUpError, MassSolveError) as exc:
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
    flags_ok = flags_ok and heat_drop <= 1e-10
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

    if outdir is not None:
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
        worst = max(worst, float(np.sqrt(basis.volume * np.sum(np.abs(diff) ** 2))))
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

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "values": list(self.values),
            "pairs": self.pairs,
            "strictly_decreasing": self.strictly_decreasing,
            "rates": self.rates,
            "aborted_cells": self.aborted_cells,
            "uniformity_flags": self.uniformity_flags,
        }


def convergence_study(cfg: RunConfig, output_dir: str | None = None, quiet: bool = False) -> StudyReport:
    """Refinement study over mode counts or the density regularization.

    Runs each sweep cell with identical initial data, then measures pairwise
    differences between consecutive refinements: velocity in the discrete
    L2-in-time Sobolev norm, density in the sup-in-time L2 norm.
    """
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
    for val in values:
        if cfg.sweep_kind == "modes":
            k = int(val)
            sub = replace(
                cfg,
                velocity_modes=k,
                magnetic_modes=k,
                temperature_modes=k + 1,
                sweep_kind="",
                sweep_values=(),
                output_directory="",
                snapshots=False,
            )
        else:
            sub = replace(
                cfg,
                density_regularization=float(val),
                sweep_kind="",
                sweep_values=(),
                output_directory="",
                snapshots=False,
            )
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
    (outdir / "study.json").write_text(json.dumps(report.as_dict(), indent=2, sort_keys=True))
    if not quiet:
        print(f"[study] {cfg.sweep_kind}: decreasing={report.strictly_decreasing} pairs={len(pairs)}")
    return report


# ---------------------------------------------------------------- check suite


def _check_constitutive_inequalities() -> tuple[bool, str]:
    p = cst.ConstitutiveParams(
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
    rng = np.random.default_rng(2024)
    rho, theta, d = cst.sample_admissible(p, 10_000, rng)
    s = cst.stress_tensor(p, rho, theta, d)
    d2 = cst.frobenius_sq(d)
    power = 0.5 * (p.power_law_exponent - 2.0)
    coercive = np.all(
        np.sum(s * d, axis=(-2, -1)) >= p.viscosity_min * d2**power * d2 - 1e-12
    )
    growth = np.all(
        np.sqrt(cst.frobenius_sq(s)) <= p.viscosity_max * d2**power * np.sqrt(d2) + 1e-12
    )
    _, _, b = cst.sample_admissible(p, 10_000, rng)
    sb = cst.stress_tensor(p, rho, theta, b)
    monotone = np.all(np.sum((s - sb) * (d - b), axis=(-2, -1)) >= -1e-12)
    grad = rng.normal(size=(10_000, 3))
    q = cst.heat_flux(p, rho, theta, grad)
    g2 = np.sum(grad * grad, axis=-1)
    talpha = theta**p.conductivity_exponent
    flux = np.all(np.sum(q * grad, axis=-1) >= p.conductivity_min * talpha * g2 - 1e-12) and np.all(
        np.sqrt(np.sum(q * q, axis=-1)) <= p.conductivity_max * talpha * np.sqrt(g2) + 1e-12
    )
    ok = bool(coercive and growth and monotone and flux)
    return ok, "coercivity/growth/monotonicity/flux over 10^4 samples"


def _check_spectral_core() -> tuple[bool, str]:
    basis = sp.build_basis(2 * np.pi, 12, 20)
    rng = np.random.default_rng(7)
    coeffs = rng.normal(size=20)
    got = basis.project_vector(basis.vector_grid(coeffs))
    ortho = np.allclose(got, coeffs, atol=1e-12)
    div_ok = True
    for j in range(20):
        c = basis.synth_vector(np.eye(20)[j])
        f = sp.Field.from_spectral(c, basis.box_size)
        div = sp.differentiate(basis, f, "div").to_grid().data
        div_ok = div_ok and np.max(np.abs(div)) < 1e-13
    vals = basis.vector_grid(coeffs)
    w = basis.volume / basis.grid_points**3
    parseval = abs(w * np.sum(vals**2) - np.sum(coeffs**2)) < 1e-10 * np.sum(coeffs**2)
    phi = basis.synth_scalar(rng.normal(size=9))
    grad = sp.differentiate(basis, sp.Field.from_spectral(phi, basis.box_size), "grad")
    killed = np.max(np.abs(sp.leray_project(basis, grad).data)) < 1e-12
    return bool(ortho and div_ok and parseval and killed), "orthonormality, div-free, Parseval, projector"


def _make_check_state(basis, seed=3, amp=0.5):
    rng = np.random.default_rng(seed)
    g = basis.grid_points
    rho_spec = np.zeros((g, g, g), dtype=complex)
    rho_spec[0, 0, 0] = 1.0
    rho_spec[0, 0, 1] = 0.1
    rho_spec[0, 0, -1] = 0.1
    nb = min(basis.k_modes + 1, basis.n_scalar_modes)
    b = np.zeros(nb)
    b[0] = 1.0 * np.sqrt(basis.volume)
    return gal.SimState(
        t=0.0,
        rho=sp.Field("scalar", "spectral", rho_spec, basis.box_size),
        a=amp * rng.normal(size=basis.k_modes) / np.sqrt(basis.k_modes),
        b=b,
        c=amp * rng.normal(size=basis.k_modes) / np.sqrt(basis.k_modes),
        basis=basis,
    )


def _check_mass_matrices() -> tuple[bool, str]:
    basis = sp.build_basis(2 * np.pi, 12, 20)
    p = cst.ConstitutiveParams()
    f = gal.GalerkinOperators(p, basis).fields(_make_check_state(basis))
    evals = np.linalg.eigvalsh(f.ops.velocity_mass(f))
    ok = evals.min() >= f.rho.min() - 1e-8 and evals.max() <= f.rho.max() + 1e-8
    ok = ok and np.all(np.linalg.eigvalsh(f.ops.thermal_mass(f)) > 0)
    return bool(ok), "SPD with eigenvalues inside the density range"


def _check_energy_identity() -> tuple[bool, str]:
    basis = sp.build_basis(2 * np.pi, 12, 20)
    p = cst.ConstitutiveParams()
    st = _make_check_state(basis, seed=4, amp=0.6)
    rep = gal.energy_report(gal.GalerkinOperators(p, basis, eps_density=1e-3).fields(st), extras=False)
    defect, scale = rep["identity_defect"], rep["identity_scale"]
    return bool(defect < 1e-9 * scale), f"defect {defect:.2e} vs scale {scale:.2e}"


def _check_heat_balance() -> tuple[bool, str]:
    basis = sp.build_basis(2 * np.pi, 12, 20)
    p = cst.ConstitutiveParams()
    st = _make_check_state(basis, seed=5, amp=0.5)
    ops = gal.GalerkinOperators(p, basis, eps_density=1e-3)
    f = ops.fields(st)
    nmat = ops.thermal_mass(f)
    db = ops.solve_mass(nmat, ops.thermal_rhs(f))
    w_m = basis.volume / f.m**3
    heat = cst.thermal_energy(p, np.maximum(f.theta_m, 0.0))
    rho_t_m = basis.spectral_to_grid(basis.resample_spectrum(f.density_rate, f.m))
    lhs = np.sqrt(basis.volume) * (nmat @ db)[0] + w_m * np.sum(rho_t_m * heat)
    src = p.magnetic_diffusivity * np.sum(f.curl_H_m**2, axis=0) + f.viscous_power_m
    rhs = w_m * np.sum(src)
    ok = abs(lhs - rhs) < 1e-10 * (abs(rhs) + 1.0)
    return bool(ok), "total heat rate equals the integrated sources"


def _decay_test_state(basis):
    g = basis.grid_points
    rho_spec = np.zeros((g, g, g), dtype=complex)
    rho_spec[0, 0, 0] = 1.0
    nb = min(basis.k_modes + 1, basis.n_scalar_modes)
    b = np.zeros(nb)
    b[0] = np.sqrt(basis.volume)
    st = gal.SimState(
        t=0.0,
        rho=sp.Field("scalar", "spectral", rho_spec, basis.box_size),
        a=np.zeros(basis.k_modes),
        b=b,
        c=np.zeros(basis.k_modes),
        basis=basis,
    )
    st.c[0] = 0.5
    return st


def _check_magnetic_decay() -> tuple[bool, str]:
    basis = sp.build_basis(2 * np.pi, 8, 12)
    p = cst.ConstitutiveParams()
    st = _decay_test_state(basis)
    rec = diag.TrajectoryRecorder(p, basis)
    itg.integrate(p, basis, st, itg.StepConfig(dt=1e-3, t_end=0.1), observers=[rec])
    h_final = np.sqrt(2.0 * rec.records[-1].E_mag)
    expected = 0.5 * np.exp(-basis.vec_k2[0] * 0.1)
    err = abs(h_final - expected) / expected
    return bool(err < 1e-6), f"relative error {err:.2e} vs closed form"


def _check_density_decay() -> tuple[bool, str]:
    basis = sp.build_basis(2 * np.pi, 8, 12)
    p = cst.ConstitutiveParams()
    st = _decay_test_state(basis)
    st.c[:] = 0.0
    st.rho.data[1, 0, 0] = 0.1
    st.rho.data[-1, 0, 0] = 0.1
    eps = 5e-3
    rec = diag.TrajectoryRecorder(p, basis, eps_density=eps)
    summary = itg.integrate(
        p, basis, st, itg.StepConfig(dt=1e-3, t_end=0.1), observers=[rec], eps_density=eps
    )
    amp = summary.final_state.rho.data[1, 0, 0].real
    expected = 0.1 * np.exp(-eps * 0.1)
    err = abs(amp - expected) / expected
    return bool(err < 1e-6), f"relative error {err:.2e} vs heat kernel"


def _check_energy_residual_order() -> tuple[bool, str]:
    basis = sp.build_basis(2 * np.pi, 8, 36)
    p = cst.ConstitutiveParams()
    st = _decay_test_state(basis)
    st.a[0] = 0.5
    st.c[:] = 0.0
    st.c[12] = 0.5
    maxima = []
    for dt in (2e-3, 1e-3):
        rec = diag.TrajectoryRecorder(p, basis)
        itg.integrate(p, basis, st, itg.StepConfig(dt=dt, t_end=0.02), observers=[rec])
        maxima.append(diag.energy_balance(rec)["max_abs_residual"])
    ratio = diag.residual_order(maxima[0], maxima[1])
    ok = maxima[0] < 1e-6 and 3.5 <= ratio <= 4.5
    return bool(ok), f"max residual {maxima[0]:.2e}, halving ratio {ratio:.2f}"


def _check_vector_identities() -> tuple[bool, str]:
    basis = sp.build_basis(2 * np.pi, 12, 20)
    rng = np.random.default_rng(11)
    u = sp.Field.from_spectral(basis.synth_vector(rng.normal(size=20)), basis.box_size)
    h = sp.Field.from_spectral(basis.synth_vector(rng.normal(size=20)), basis.box_size)
    rep = diag.vector_identity_check(basis, u, h, nu=0.8)
    return bool(rep["max_defect"] < 1e-10), f"max pointwise defect {rep['max_defect']:.2e}"


def _check_functional_inequalities() -> tuple[bool, str]:
    basis = sp.build_basis(2 * np.pi, 12, 20)
    rep = diag.functional_inequality_check(basis, n_fields=100, seed=5)
    ok = (
        rep["korn_worst_ratio"] <= 1.0 + 1e-10
        and abs(rep["poincare_lowest_mode_ratio"] - rep["poincare_constant"]) < 1e-12
    )
    return bool(ok), (
        f"korn {rep['korn_worst_ratio']:.6f} <= 1, lowest-mode ratio "
        f"{rep['poincare_lowest_mode_ratio']:.12f}"
    )


def _check_decay_bound() -> tuple[bool, str]:
    basis = sp.build_basis(2 * np.pi, 8, 36)
    p = cst.ConstitutiveParams()
    st = _decay_test_state(basis)
    st.a[0] = 0.3
    rec = diag.TrajectoryRecorder(p, basis)
    itg.integrate(p, basis, st, itg.StepConfig(dt=1e-3, t_end=0.05), observers=[rec])
    rep = diag.decay_bound_report(rec)
    return bool(rep["ok"]), f"min margin {rep['min_margin']:.3e}"


def _check_config_round_trip() -> tuple[bool, str]:
    from specmhd.config import load_config_text

    cfg = RunConfig(initial_params={"velocity_amplitude": 0.5, "seed": 3})
    text = serialize_config(cfg)
    again = load_config_text(text)
    return bool(again == cfg and serialize_config(again) == text), "load -> serialize -> load fixed point"


def _check_determinism() -> tuple[bool, str]:
    import tempfile

    cfg = RunConfig(
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
    return bool(a == b), "byte-identical diagnostics for identical config+seed"


CHECKS = [
    ("constitutive.inequalities", "constitutive", _check_constitutive_inequalities),
    ("spectral.core", "spectral", _check_spectral_core),
    ("galerkin.mass_matrices", "galerkin", _check_mass_matrices),
    ("galerkin.energy_identity", "galerkin", _check_energy_identity),
    ("galerkin.heat_balance", "galerkin", _check_heat_balance),
    ("integrator.magnetic_decay", "integrator", _check_magnetic_decay),
    ("integrator.density_decay", "integrator", _check_density_decay),
    ("integrator.residual_order", "integrator", _check_energy_residual_order),
    ("diagnostics.vector_identities", "diagnostics", _check_vector_identities),
    ("diagnostics.functional_inequalities", "diagnostics", _check_functional_inequalities),
    ("diagnostics.decay_bound", "diagnostics", _check_decay_bound),
    ("harness.config_round_trip", "harness", _check_config_round_trip),
    ("harness.determinism", "harness", _check_determinism),
]


def check(suite: str | None = None, quiet: bool = False) -> tuple[bool, list[str]]:
    """Run the property suite (optionally filtered) with per-check timing."""
    selected = [
        (name, fn)
        for name, tag, fn in CHECKS
        if suite is None or suite == tag or suite in name
    ]
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
