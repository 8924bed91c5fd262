"""Runtime monitors and standalone verification checks: energy balance,
vector identities, functional-inequality constants, a priori bound monitors,
and the magnetic decay envelope.

The trajectory recorder is an observer for :func:`specmhd.integrator.integrate`;
it turns per-sample reports into fixed-schema records (the CSV column order is
frozen and versioned) and maintains the running integrals the residual and
decay checks need.  The field-level checks take vector spectra in the x-half
layout of :mod:`specmhd.spectral`.
"""

from __future__ import annotations

from dataclasses import dataclass, fields as dataclass_fields

import numpy as np

from specmhd.constitutive import ConstitutiveParams
from specmhd.spectral import DivFreeSpectralBasis

DIAGNOSTICS_SCHEMA_VERSION = "1"

HEAT_MONOTONE_SLACK = 1e-10
DECAY_BOUND_SLACK = 0.01


def decay_margin(lhs: float, rhs: float) -> float:
    """Slack left in the magnetic decay bound lhs <= rhs, with relative
    slack ``DECAY_BOUND_SLACK``; the bound holds when it is nonnegative."""
    return rhs * (1.0 + DECAY_BOUND_SLACK) + 1e-14 - lhs


@dataclass
class DiagnosticsRecord:
    """One diagnostics sample; field order defines the CSV column order."""

    t: float
    E_kin: float
    E_mag: float
    D_visc: float
    D_visc_floor: float
    D_mag: float
    heat_total: float
    energy_residual: float
    rho_min: float
    rho_max: float
    theta_min: float
    clamp_count: int
    div_u_max: float
    div_H_max: float
    korn_ratio: float
    poincare_ratio: float
    grad_u_norm: float
    decay_lhs: float
    decay_rhs: float
    decay_ok: bool
    heat_monotone_ok: bool
    density_bounds_ok: bool
    visc_floor_ok: bool
    strain_lr_r: float
    sup_theta_negpow: float
    rho_theta_l1: float
    theta_sobolev_sq: float


CSV_COLUMNS = [f.name for f in dataclass_fields(DiagnosticsRecord)]
# the invariant flags a passing run holds at every sample
FLAG_COLUMNS = [name for name in CSV_COLUMNS if name.endswith("_ok")]


def record_to_csv_row(rec: DiagnosticsRecord) -> str:
    parts = []
    for name in CSV_COLUMNS:
        val = getattr(rec, name)
        if isinstance(val, bool):
            parts.append("1" if val else "0")
        elif isinstance(val, int):
            parts.append(str(val))
        else:
            parts.append(repr(float(val)))
    return ",".join(parts)


class TrajectoryRecorder:
    """Observer building diagnostics records and optional state history.

    Read-only over the states it sees; never mutates them.  ``store_history``
    keeps the velocity coefficients and the spectral density per sample,
    which the convergence studies compare.
    """

    def __init__(
        self,
        params: ConstitutiveParams,
        basis: DivFreeSpectralBasis,
        store_history: bool = False,
    ):
        self.params = params
        self.basis = basis
        self.store_history = store_history
        self.records: list[DiagnosticsRecord] = []
        self.history: list[dict] = []
        self._dissipation_integral = 0.0
        self._decay_integral = 0.0
        self._e0 = None
        self._h0_sq = None
        self._t0 = None
        self._prev = None  # (t, D_visc + D_mag, grad_u_norm, heat_total)

    @property
    def decay_constant(self) -> float:
        """Squared lowest wavenumber: the verified discrete Poincare constant."""
        return (2.0 * np.pi / self.basis.box_size) ** 2

    def __call__(self, state, report: dict) -> None:
        t = report["t"]
        e_tot = report["E_kin"] + report["E_mag"]
        d_tot = report["D_visc"] + report["D_mag"]
        grad_u = report["grad_u_norm"]
        h_sq = 2.0 * report["E_mag"]
        c_nu = self.decay_constant * self.params.magnetic_diffusivity

        if self._e0 is None:
            self._e0 = e_tot
            self._h0_sq = h_sq
            self._t0 = t
            heat_ok = True
        else:
            t_prev, d_prev, g_prev, heat_prev = self._prev
            dt = t - t_prev
            self._dissipation_integral += 0.5 * dt * (d_prev + d_tot)
            fade = np.exp(-c_nu * dt)
            self._decay_integral = self._decay_integral * fade + 0.5 * dt * (
                fade * g_prev + grad_u
            )
            heat_ok = report["heat_total"] >= heat_prev - HEAT_MONOTONE_SLACK
        self._prev = (t, d_tot, grad_u, report["heat_total"])

        residual = e_tot - self._e0 + self._dissipation_integral
        decay_rhs = self._h0_sq * np.exp(-c_nu * (t - self._t0)) + (
            2.0 / c_nu
        ) * self._decay_integral
        density_ok = (
            report["rho_min"] >= self.params.density_min - 1e-10
            and report["rho_max"] <= self.params.density_max + 1e-10
        )

        # the record's other columns are the report's entries of the same name
        derived = {
            "energy_residual": residual,
            "decay_lhs": h_sq,
            "decay_rhs": float(decay_rhs),
            "decay_ok": bool(decay_margin(h_sq, decay_rhs) >= 0.0),
            "heat_monotone_ok": bool(heat_ok),
            "density_bounds_ok": bool(density_ok),
            "visc_floor_ok": bool(report["D_visc"] >= report["D_visc_floor"] - 1e-9),
        }
        rec = DiagnosticsRecord(**{name: report[name] for name in CSV_COLUMNS if name not in derived}, **derived)
        self.records.append(rec)
        if self.store_history:
            self.history.append({"t": t, "a": state.a.copy(), "rho_spec": state.rho.copy()})


# ------------------------------------------------------------ trajectory checks


def energy_balance(recorder: TrajectoryRecorder) -> dict:
    """Residual report for the discrete kinetic+magnetic energy identity.

    The epsilon-regularization coupling cancels inside the assembled system
    (the momentum correction term offsets the density-diffusion contribution
    exactly), so the residual needs no explicit epsilon term and measures
    time-discretization error only.
    """
    if len(recorder.records) < 2:
        raise ValueError("need at least 2 diagnostics samples")
    residuals = np.array([r.energy_residual for r in recorder.records])
    times = np.array([r.t for r in recorder.records])
    return {
        "max_abs_residual": float(np.max(np.abs(residuals))),
        "final_residual": float(residuals[-1]),
        "times": times,
        "residuals": residuals,
    }


def residual_order(coarse: float, fine: float) -> float:
    """Ratio of residuals under dt halving; ~4 for a second-order scheme."""
    if fine == 0.0:
        return np.inf
    return coarse / fine


def apriori_monitor(params: ConstitutiveParams, recorder: TrajectoryRecorder) -> dict:
    """Running values of the a priori bound quantities over a trajectory."""
    recs = recorder.records
    if not recs:
        raise ValueError("empty trajectory")
    times = np.array([r.t for r in recs])
    sup_energy = max(r.E_kin + r.E_mag for r in recs)
    strain = np.array([r.strain_lr_r for r in recs])
    mag = np.array([r.D_mag for r in recs])
    sobolev = np.array([r.theta_sobolev_sq for r in recs])
    report = {
        "sup_energy": float(sup_energy),
        "strain_lr_time_integral": float(np.trapezoid(strain, times)),
        "curl_h_time_integral": float(
            np.trapezoid(mag / params.magnetic_diffusivity, times)
        ),
        "sup_rho_theta_l1": float(max(r.rho_theta_l1 for r in recs)),
        "sup_theta_negpow": float(max(r.sup_theta_negpow for r in recs)),
        "theta_sobolev_time_integral": float(np.trapezoid(sobolev, times)),
    }
    report["all_finite"] = bool(all(np.isfinite(v) for v in report.values()))
    return report


def decay_bound_report(recorder: TrajectoryRecorder) -> dict:
    recs = recorder.records
    ok = all(r.decay_ok for r in recs)
    margins = [decay_margin(r.decay_lhs, r.decay_rhs) for r in recs]
    return {"ok": bool(ok), "min_margin": float(min(margins)) if margins else 0.0}


# ------------------------------------------------------------ field-level checks


def vector_identity_check(basis: DivFreeSpectralBasis, c_u: np.ndarray, c_h: np.ndarray, nu: float = 1.0) -> dict:
    """Pointwise defects of the two curl/divergence identities used in the
    energy bookkeeping::

        div(nu H x curl H)   = nu |curl H|^2 - curl(nu curl H) . H
        div((u x H) x H)     = ((curl H) x H) . u + curl(u x H) . H

    ``c_u`` and ``c_h`` are the vector spectra of u and H.  Both sides are
    evaluated spectrally on a grid twice the base resolution, which resolves
    every product (up to cubic) of basis-band fields exactly, so the defect is
    rounding noise.
    """
    g = 2 * basis.grid_points
    c_u = basis.resample_spectrum(c_u, g)
    c_h = basis.resample_spectrum(c_h, g)
    u_g = basis.spectral_to_grid(c_u)
    h_g = basis.spectral_to_grid(c_h)
    c_curl_h = basis.curl(c_h)
    curl_h = basis.spectral_to_grid(c_curl_h)

    def div_grid(vec: np.ndarray) -> np.ndarray:
        return basis.spectral_to_grid(basis.div(basis.grid_to_spectral(vec)))

    w1 = nu * np.cross(h_g, curl_h, axisa=0, axisb=0, axisc=0)
    lhs1 = div_grid(w1)
    curl_curl_h = basis.spectral_to_grid(basis.curl(nu * c_curl_h))
    rhs1 = nu * np.sum(curl_h**2, axis=0) - np.sum(curl_curl_h * h_g, axis=0)
    defect1 = float(np.max(np.abs(lhs1 - rhs1)))

    uxh = np.cross(u_g, h_g, axisa=0, axisb=0, axisc=0)
    w2 = np.cross(uxh, h_g, axisa=0, axisb=0, axisc=0)
    lhs2 = div_grid(w2)
    curl_uxh = basis.spectral_to_grid(basis.curl(basis.grid_to_spectral(uxh)))
    lorentz = np.cross(curl_h, h_g, axisa=0, axisb=0, axisc=0)
    rhs2 = np.sum(lorentz * u_g, axis=0) + np.sum(curl_uxh * h_g, axis=0)
    defect2 = float(np.max(np.abs(lhs2 - rhs2)))

    return {
        "magnetic_transport_defect": defect1,
        "lorentz_transport_defect": defect2,
        "max_defect": max(defect1, defect2),
    }


def korn_ratio_of_field(basis: DivFreeSpectralBasis, c: np.ndarray) -> float:
    """Measured ratio |grad u| / |D(u)| for a solenoidal zero-mean field
    given by its vector spectrum ``c``.

    Rejects non-solenoidal input: the sharp constant relies on div u = 0.
    """
    kx = basis.wavenumbers(c.shape[-1])[0]
    div = np.abs(basis.div(c))
    scale = float(np.max(np.abs(c))) + 1e-300
    if float(np.max(div)) > 1e-10 * scale * max(np.max(np.abs(kx)), 1.0):
        raise ValueError("field is not solenoidal")
    if abs(c[0, 0, 0, 0]) + abs(c[1, 0, 0, 0]) + abs(c[2, 0, 0, 0]) > 1e-12 * scale:
        raise ValueError("field must have zero mean")
    w = basis.volume / c.shape[-1] ** 3
    grad = basis.grid_gradient(c)
    grad_sq = 0.0
    strain_sq = 0.0
    for i in range(3):
        for m in range(3):
            grad_sq += w * float(np.sum(grad[i, m] ** 2))
            strain_sq += w * float(np.sum((grad[i, m] + grad[m, i]) ** 2))
    if strain_sq == 0.0:
        return 0.0
    return float(np.sqrt(grad_sq / strain_sq))


def functional_inequality_check(
    basis: DivFreeSpectralBasis, n_fields: int = 100, seed: int = 0
) -> dict:
    """Measured Korn and Poincare constants over random band-limited fields.

    For solenoidal zero-mean fields on the torus the Korn ratio is exactly
    ``1/sqrt(2)`` (so the constant 1 holds with margin) and the sharp
    Poincare constant ``L / (2 pi)`` is attained on the lowest shell.
    """
    rng = np.random.default_rng(seed)
    worst_korn = 0.0
    worst_poincare = 0.0
    for _ in range(n_fields):
        coeffs = rng.normal(size=basis.k_modes)
        worst_korn = max(worst_korn, korn_ratio_of_field(basis, basis.synth_vector(coeffs)))
        norm = float(np.sqrt(np.sum(coeffs**2)))
        grad_norm = float(np.sqrt(np.sum(coeffs**2 * basis.vec_k2[: basis.k_modes])))
        worst_poincare = max(worst_poincare, norm / grad_norm)

    # equality case: a single lowest-shell mode, measured by grid quadrature
    e0 = np.zeros(basis.k_modes)
    e0[0] = 1.0
    c = basis.synth_vector(e0)
    w = basis.volume / c.shape[-1] ** 3
    h = basis.spectral_to_grid(c)
    grad = basis.grid_gradient(c)
    grad_sq = 0.0
    for i in range(3):
        for m in range(3):
            grad_sq += w * float(np.sum(grad[i, m] ** 2))
    h_norm = np.sqrt(w * float(np.sum(h**2)))
    lowest_ratio = float(h_norm / np.sqrt(grad_sq))
    return {
        "korn_worst_ratio": worst_korn,
        "korn_constant": 1.0,
        "poincare_worst_ratio": worst_poincare,
        "poincare_constant": basis.box_size / (2.0 * np.pi),
        "poincare_lowest_mode_ratio": lowest_ratio,
    }
