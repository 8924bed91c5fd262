"""Runtime recording: the fixed-schema diagnostics record and its CSV row,
the trajectory recorder, and the a priori bound monitor a sweep reads.

The trajectory recorder is an observer for :func:`specmhd.integrator.integrate`;
it turns per-sample reports into fixed-schema records (the CSV column order is
frozen and versioned) and keeps the running integrals behind the energy
residual and the magnetic decay envelope columns.  The verification
properties that read these records are registered in ``harness.CHECKS``.
"""

from __future__ import annotations

from dataclasses import dataclass, fields as dataclass_fields

import numpy as np

from specmhd.constitutive import ConstitutiveParams

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

    Read-only over the states it sees; never mutates them.  ``basis`` is the
    basis of the first sample's state (None before it).  ``store_history``
    keeps the velocity coefficients and the spectral density per sample,
    which the convergence studies compare.
    """

    def __init__(self, params: ConstitutiveParams, store_history: bool = False):
        self.params = params
        self.basis = None
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
        if self.basis is None:
            self.basis = state.basis
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


def apriori_monitor(recorder: TrajectoryRecorder) -> dict:
    """The a priori bound quantities of a trajectory that a modes sweep
    compares across refinements: the supremum of the total energy, the time
    integral of the strain's L^r norm to the r, and the supremum of the
    ``rho theta`` L1 norm."""
    recs = recorder.records
    if not recs:
        raise ValueError("empty trajectory")
    times = np.array([r.t for r in recs])
    strain = np.array([r.strain_lr_r for r in recs])
    return {
        "sup_energy": float(max(r.E_kin + r.E_mag for r in recs)),
        "strain_lr_time_integral": float(np.trapezoid(strain, times)),
        "sup_rho_theta_l1": float(max(r.rho_theta_l1 for r in recs)),
    }
