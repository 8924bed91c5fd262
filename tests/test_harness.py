import dataclasses
import json
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from specmhd import cli, diagnostics as diag, galerkin as gal, harness
from specmhd import integrator as itg
from specmhd import spectral as sp
from specmhd.config import RunConfig, load_config, load_config_text, serialize_config
from specmhd.constitutive import ConstitutiveParams
from specmhd.errors import ConfigError
from specmhd.initial_conditions import FAMILIES, build_initial_state, harmonic_density
from specmhd.integrator import StepConfig

from helpers import lorentz_flipped, read_snapshot, stiff_random_band

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# summary.json "monitors": the solver work plus integrate's density and heat monitors
MONITORS = {f.name for f in dataclasses.fields(gal.StepCounters)} | {
    "rho_drift_rate_max",
    "rho_min_initial",
    "rho_max_initial",
    "heat_drop_worst",
}

MINIMAL = """
[step]
dt = 1e-3
t_end = 0.01
"""

# serialize_config's text for a config with every section set: copies of
# config.cfg in run directories are read back in this format
PINNED_TEXT = """\
# specmhd configuration (schema 3)

[constitutive]
power_law_exponent = 2.5
conductivity_exponent = 0.0
stress_smoothing = 1e-08
magnetic_diffusivity = 1.0
viscosity_min = 1.0
viscosity_max = 2.0
conductivity_min = 1.0
conductivity_max = 1.0
specific_heat_min = 1.0
specific_heat_max = 1.0
density_min = 0.5
density_max = 2.0
temperature_floor = 0.1
viscosity_form = constant
conductivity_form = density_affine
specific_heat_form = constant

[domain]
box_size = 3.0
grid_points = 12

[truncation]
velocity_modes = 8
temperature_modes = 9
magnetic_modes = 6
density_regularization = 0.125

[step]
dt = 0.01
t_end = 0.5
solver_tolerance = 1e-12
max_nonlinear_iterations = 20
theta_clamp = clamp

[initial]
family = random_band
seed = 2
velocity_amplitude = 0.25

[output]
directory = out/pinned
cadence = 3
snapshots = true

[sweep]
kind = modes
values = 4,6,8
"""

# the JSON sidecar of single_mode_mhd's final velocity snapshot
SNAPSHOT_SIDECAR = """\
{
  "box_size": 6.283185307179586,
  "complex_parts": false,
  "kind": "vector",
  "mode_ordering_version": "1",
  "order": "x-fastest",
  "representation": "grid",
  "schema": "field-v2",
  "shape": [
    3,
    8,
    8,
    8
  ]
}"""


class TestConfigLoading:
    def test_minimal_fills_defaults(self, tmp_path):
        path = tmp_path / "min.cfg"
        path.write_text(MINIMAL)
        cfg = load_config(path)
        assert cfg.constitutive.power_law_exponent == 3.0
        assert cfg.grid_points == 16
        assert cfg.initial_family == "single_mode"

    def test_small_exponent_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text(MINIMAL + "\n[constitutive]\npower_law_exponent = 1.5\n")
        with pytest.raises(ConfigError, match="power_law_exponent must exceed 2"):
            load_config(path)

    def test_zero_temperature_floor_start_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text(MINIMAL + "\n[initial]\nfamily = single_mode\ntemperature_base = 0.0\n")
        with pytest.raises(ConfigError, match="temperature_floor"):
            load_config(path)

    def test_unknown_key_and_section_reported(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text(
            MINIMAL
            + "\n[domain]\nbox_sized = 1.0\n\n[mystery]\nx = 1\n"
            + "\n[constitutive]\nelastic_energy_form = zero\n"  # removed in config schema 2
        )
        with pytest.raises(ConfigError) as err:
            load_config(path)
        msg = str(err.value)
        assert "box_sized" in msg and "mystery" in msg and "elastic_energy_form" in msg

    def test_parse_error_reported(self, tmp_path):
        path = tmp_path / "broken.cfg"
        path.write_text("not an ini file at all [[[")
        with pytest.raises(ConfigError, match="parse error"):
            load_config(path)

    def test_serialized_text_is_pinned(self):
        cfg = RunConfig(
            constitutive=ConstitutiveParams(power_law_exponent=2.5, viscosity_max=2.0, conductivity_form="density_affine"),
            box_size=3.0,
            grid_points=12,
            velocity_modes=8,
            temperature_modes=9,
            magnetic_modes=6,
            density_regularization=0.125,
            step=StepConfig(dt=0.01, t_end=0.5, max_nonlinear_iterations=20),
            initial_family="random_band",
            initial_params={"velocity_amplitude": 0.25, "seed": 2},
            output_directory="out/pinned",
            cadence=3,
            snapshots=True,
            sweep_kind="modes",
            sweep_values=(4, 6, 8),
        )
        assert serialize_config(cfg) == PINNED_TEXT
        assert load_config_text(PINNED_TEXT) == cfg

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "absent.cfg")

    def test_insufficient_resolution_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text(MINIMAL + "\n[truncation]\nvelocity_modes = 10000\n")
        with pytest.raises(ConfigError, match="insufficient resolution"):
            load_config(path)

    @pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.cfg")), ids=lambda p: p.stem)
    def test_round_trip_identity(self, path):
        cfg = load_config(path)
        ok, detail = harness.CHECKS["harness.config_round_trip"](cfg=cfg)
        assert ok, detail

    def test_seeded_single_mode_round_trips(self):
        # a run with --seed writes the seed into every family's config copy
        cfg = load_config(CONFIGS / "single_mode_mhd.cfg")
        cfg = dataclasses.replace(cfg, initial_params={**cfg.initial_params, "seed": 4})
        ok, detail = harness.CHECKS["harness.config_round_trip"](cfg=cfg)
        assert ok, detail

    @pytest.mark.parametrize(
        "name, old, new",
        [
            ("random_band", "velocity_amplitude", "velocty_amplitude"),
            ("layered_density", "temperature_base", "density_axis"),
        ],
    )
    def test_unknown_initial_key_rejected(self, tmp_path, name, old, new):
        text = (CONFIGS / f"{name}.cfg").read_text()
        assert f"\n{old} =" in text
        path = tmp_path / "typo.cfg"
        path.write_text(text.replace(f"\n{old} =", f"\n{new} =", 1))
        with pytest.raises(ConfigError, match=f"unknown key '{new}' in section \\[initial\\]"):
            load_config(path)
        assert cli.main(["run", "--config", str(path), "--quiet"]) == harness.EXIT_CONFIG

    def test_shipped_configs_load(self):
        for path in sorted(CONFIGS.glob("*.cfg")):
            load_config(path)

    def test_auto_regularization(self, tmp_path):
        path = tmp_path / "auto.cfg"
        path.write_text(MINIMAL + "\n[truncation]\ndensity_regularization = auto\n")
        cfg = load_config(path)
        assert cfg.density_regularization == pytest.approx(0.25 * (cfg.box_size / 16) ** 2)

    def test_auto_regularization_on_bad_grid_reported(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text(MINIMAL + "\n[domain]\ngrid_points = 0\n\n[truncation]\ndensity_regularization = auto\n")
        with pytest.raises(ConfigError, match="grid_points must be an even integer >= 4"):
            load_config(path)


class TestInitialFamilies:
    @pytest.mark.parametrize("family", ["single_mode", "orszag_tang", "random_band", "layered_density"])
    def test_families_build_admissible_states(self, family):
        cfg = RunConfig(
            grid_points=16,
            velocity_modes=12,
            temperature_modes=13,
            magnetic_modes=12,
            initial_family=family,
            initial_params={"velocity_amplitude": 0.1, "magnetic_amplitude": 0.1, "seed": 1},
        )
        basis = harness.build_basis_for(cfg)
        state = build_initial_state(cfg, basis)
        assert state.is_finite()
        rep = gal.energy_report(gal.GalerkinOperators(cfg.constitutive, basis).fields(state))
        p = cfg.constitutive
        assert p.density_min - 1e-12 <= rep["rho_min"] and rep["rho_max"] <= p.density_max + 1e-12
        assert np.isfinite(rep["E_kin"]) and np.isfinite(rep["E_mag"])
        assert rep["div_u_max"] < 1e-12 and rep["div_H_max"] < 1e-12

    def test_layered_density_profile(self):
        cfg = RunConfig(
            initial_family="layered_density",
            initial_params={"density_amplitude": 0.25, "velocity_amplitude": 0.05},
        )
        basis = harness.build_basis_for(cfg)
        state = build_initial_state(cfg, basis)
        rho = state.basis.scalar_grid(state.rho)
        assert rho.max() == pytest.approx(1.25, rel=1e-12)
        assert rho.min() == pytest.approx(0.75, rel=1e-12)
        u = basis.vector_grid(state.a)
        # shear is in the z-component and varies along x only
        assert np.max(np.abs(u[0])) < 1e-13 and np.max(np.abs(u[1])) < 1e-13
        assert np.max(np.abs(u[2])) == pytest.approx(0.05, rel=1e-10)

    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_harmonic_density_on_each_axis(self, axis):
        basis = sp.build_basis(3.0, 16)
        ip = {"density_mean": 1.1, "density_amplitude": 0.3, "density_wavenumber": 2}
        rho = basis.scalar_grid(harmonic_density(basis, ip, axis))
        want = 1.1 + 0.3 * np.cos(2.0 * np.pi * 2 * basis.mesh()[axis] / 3.0)
        assert np.max(np.abs(rho - want)) <= 1e-14

    def test_random_band_nested_truncations(self):
        # truncated runs take the leading slice of one master vector
        common = {"seed": 11, "velocity_amplitude": 0.3, "magnetic_amplitude": 0.2}
        cfg8 = RunConfig(velocity_modes=8, magnetic_modes=8, temperature_modes=9,
                         initial_family="random_band", initial_params=common)
        cfg16 = RunConfig(velocity_modes=16, magnetic_modes=16, temperature_modes=17,
                          initial_family="random_band", initial_params=common)
        b8 = harness.build_basis_for(cfg8)
        b16 = harness.build_basis_for(cfg16)
        s8 = build_initial_state(cfg8, b8)
        s16 = build_initial_state(cfg16, b16)
        np.testing.assert_array_equal(s8.a, s16.a[:8])
        np.testing.assert_array_equal(s8.c, s16.c[:8])

    def test_initial_defaults_only_in_families(self):
        """One home for the [initial] defaults: no module reads an [initial]
        value with ``.get(key, default)``; the table ``FAMILIES`` holds them."""
        keys = "|".join(sorted({key for defaults in FAMILIES.values() for key in defaults}))
        pattern = re.compile(rf"\.get\(\s*[\"'](?:{keys})[\"']\s*,")
        found = [
            f"{path.name}:{i}"
            for path in sorted(Path(harness.__file__).parent.glob("*.py"))
            for i, line in enumerate(path.read_text().splitlines(), 1)
            if pattern.search(line)
        ]
        assert not found, f"[initial] default read outside FAMILIES: {found}"


class TestRunOutputs:
    def test_zero_initial_data_passes(self, tmp_path):
        cfg = RunConfig(
            grid_points=8,
            velocity_modes=12,
            temperature_modes=13,
            magnetic_modes=12,
            step=StepConfig(dt=1e-3, t_end=0.005),
        )
        rep = harness.run(cfg, output_dir=str(tmp_path / "zero"), quiet=True)
        assert rep.exit_code == harness.EXIT_PASS
        assert rep.summary["final"]["E_kin"] == 0.0
        assert rep.summary["final"]["E_mag"] == 0.0

    def test_flag_failure_names_the_invariant(self):
        held = diag.DiagnosticsRecord(**{name: True if name in diag.FLAG_COLUMNS else 0.0 for name in diag.CSV_COLUMNS})
        broken = dataclasses.replace(held, t=0.25, visc_floor_ok=False)
        assert harness._flag_failure([held], diag.HEAT_MONOTONE_SLACK) == ""
        assert harness._flag_failure([held, broken], 0.0) == "invariant flag visc_floor_ok failed at t=0.25"
        assert harness._flag_failure([held], 2e-10).startswith("total heat fell by 2.000e-10 in one step")
        assert harness._flag_failure([], 0.0) == "no diagnostics samples"

    def test_run_directory_contents(self, tmp_path):
        cfg = load_config(CONFIGS / "magnetic_decay.cfg")
        cfg = dataclasses.replace(cfg, step=dataclasses.replace(cfg.step, t_end=0.01), snapshots=True)
        rep = harness.run(cfg, output_dir=str(tmp_path / "out"), quiet=True)
        outdir = rep.output_dir
        for name in ("config.cfg", "diagnostics.csv", "summary.json", "schema.json"):
            assert (outdir / name).exists()
        # snapshot pairs for each field
        for stem in ("rho_final", "velocity_final", "magnetic_final", "theta_final"):
            assert (outdir / f"{stem}.bin").exists() and (outdir / f"{stem}.json").exists()
        csv = (outdir / "diagnostics.csv").read_text().splitlines()
        assert csv[0].split(",")[0] == "t"
        assert len(csv) == rep.summary["samples"] + 1
        # the written config reloads to the exact run configuration
        assert load_config(outdir / "config.cfg") == cfg

    def test_snapshots_are_the_final_state(self, tmp_path):
        # single_mode_mhd, not magnetic_decay: a flow at rest and a constant
        # density would match under any layout
        cfg = load_config(CONFIGS / "single_mode_mhd.cfg")
        cfg = dataclasses.replace(cfg, step=dataclasses.replace(cfg.step, t_end=1e-3), snapshots=True)
        rep = harness.run(cfg, output_dir=str(tmp_path / "out"), quiet=True, store_history=True)
        final, basis = rep.recorder.history[-1], rep.recorder.basis
        assert final["t"] == rep.summary["final"]["t"]
        header, velocity = read_snapshot(rep.output_dir / "velocity_final")
        assert (rep.output_dir / "velocity_final.json").read_text() == SNAPSHOT_SIDECAR
        np.testing.assert_array_equal(velocity, basis.vector_grid(final["a"]))
        _, rho = read_snapshot(rep.output_dir / "rho_final")
        np.testing.assert_array_equal(rho, basis.scalar_grid(final["rho"]))
        assert np.ptp(velocity) > 0 and np.ptp(rho) > 0

    def test_decay_rate_in_summary(self, tmp_path):
        cfg = load_config(CONFIGS / "magnetic_decay.cfg")
        rep = harness.run(cfg, output_dir=str(tmp_path / "decay"), quiet=True)
        k2 = 1.0  # lowest shell at box 2 pi
        assert abs(rep.summary["magnetic_decay_rate"] - cfg.constitutive.magnetic_diffusivity * k2) < 1e-4

    def test_midpoint_non_convergence_is_numerical_abort(self, tmp_path):
        cfg = load_config(CONFIGS / "magnetic_decay.cfg")
        cfg = dataclasses.replace(cfg, step=dataclasses.replace(cfg.step, max_nonlinear_iterations=1))
        rep = harness.run(cfg, output_dir=str(tmp_path / "stall"), quiet=True)
        assert rep.exit_code == harness.EXIT_NUMERICAL
        error = json.loads((rep.output_dir / "summary.json").read_text())["error"]
        assert "did not converge in 1 iterations" in error and "solver_tolerance" in error
        assert error.startswith("step 1: ")
        assert "contraction estimate unavailable" in error
        assert "mass solve" not in error

    def test_midpoint_stall_names_contraction(self, tmp_path, monkeypatch):
        # at 800 modes and dt = 0.05 the damped stage still needs more than
        # two iterations; the estimate is the ratio of the last two deltas
        deltas = []
        delta = itg._delta

        def recording(a, b):
            deltas.append(delta(a, b))
            return deltas[-1]

        monkeypatch.setattr(itg, "_delta", recording)
        cfg = stiff_random_band(dt=0.05)
        cfg = dataclasses.replace(cfg, step=dataclasses.replace(cfg.step, max_nonlinear_iterations=2))
        rep = harness.run(cfg, output_dir=str(tmp_path / "stall2"), quiet=True)
        assert rep.exit_code == harness.EXIT_NUMERICAL
        error = rep.summary["error"]
        assert error.startswith("step 1: ") and "did not converge in 2 iterations" in error
        estimate = float(re.search(r"contraction estimate ([0-9.e+-]+)", error).group(1))
        assert len(deltas) == 2
        assert estimate == pytest.approx(deltas[1] / deltas[0], rel=1e-3)

    def test_aborted_run_keeps_its_solver_work(self, tmp_path):
        # one iteration cannot converge: step 1 aborts after its start-state
        # evaluation and one stage
        cfg = load_config(CONFIGS / "magnetic_decay.cfg")
        cfg = dataclasses.replace(cfg, step=dataclasses.replace(cfg.step, max_nonlinear_iterations=1))
        rep = harness.run(cfg, output_dir=str(tmp_path / "stall"), quiet=True)
        assert rep.exit_code == harness.EXIT_NUMERICAL
        summary = json.loads((rep.output_dir / "summary.json").read_text())
        assert summary["n_steps"] == 0
        assert set(summary["monitors"]) == MONITORS
        assert summary["monitors"]["rhs_evaluations"] == 2
        assert summary["monitors"]["stage_iterations"] == 1

    def test_summary_counts_solver_work(self, tmp_path):
        cfg = load_config(CONFIGS / "magnetic_decay.cfg")
        cfg = dataclasses.replace(cfg, step=dataclasses.replace(cfg.step, t_end=0.005))
        rep = harness.run(cfg, output_dir=str(tmp_path / "work"), quiet=True)
        monitors = json.loads((rep.output_dir / "summary.json").read_text())["monitors"]
        assert set(monitors) == MONITORS
        assert monitors["rhs_evaluations"] == 1 + monitors["stage_iterations"]
        assert monitors["stage_iterations"] >= rep.summary["n_steps"] == 5
        assert 0.0 < monitors["predictor_gap_max"] < 1e-6
        # every mass system is below the matrix-free crossover
        assert monitors["cg_iterations"] == monitors["cg_iterations_max"] == 0

    def test_summary_counts_cg_iterations(self, tmp_path):
        # 800 velocity modes and 401 temperature modes at N=16 are both above
        # the matrix-free crossover: two CG solves per RHS evaluation
        rep = harness.run(stiff_random_band(dt=0.01, steps=1), output_dir=str(tmp_path / "cg"), quiet=True)
        assert rep.status == "completed"
        monitors = json.loads((rep.output_dir / "summary.json").read_text())["monitors"]
        evals, most = monitors["rhs_evaluations"], monitors["cg_iterations_max"]
        assert most > 1
        assert 2 * evals <= monitors["cg_iterations"] <= 2 * evals * most
        header = (rep.output_dir / "diagnostics.csv").read_text().splitlines()[0]
        assert "cg" not in header

    def test_final_sample_at_a_rounded_end_time(self, tmp_path):
        # 304 steps of 0.7 end at t = 212.799999999999, inside the loop's
        # stop tolerance 1e-12 t_end but short of 212.8 - 1e-12; step 304 is
        # not a multiple of the cadence, so only the stop test emits it
        cfg = RunConfig(
            grid_points=8,
            velocity_modes=12,
            temperature_modes=13,
            magnetic_modes=12,
            step=StepConfig(dt=0.7, t_end=212.8),
            cadence=3,
        )
        rep = harness.run(cfg, output_dir=str(tmp_path / "rest"), quiet=True)
        assert rep.exit_code == harness.EXIT_PASS
        assert rep.summary["n_steps"] == 304
        assert rep.summary["samples"] == 1 + 304 // 3 + 1
        assert rep.summary["final"]["t"] == pytest.approx(212.8, abs=1e-9)

    def test_determinism_byte_identical(self):
        cfg = load_config(CONFIGS / "magnetic_decay.cfg")
        cfg = dataclasses.replace(cfg, step=dataclasses.replace(cfg.step, t_end=0.02))
        ok, detail = harness.CHECKS["harness.determinism"](cfg=cfg)
        assert ok, detail

    def test_output_root_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv(harness.OUTPUT_ROOT_ENV, str(tmp_path / "root"))
        cfg = RunConfig(
            grid_points=8,
            velocity_modes=12,
            temperature_modes=13,
            magnetic_modes=12,
            step=StepConfig(dt=1e-3, t_end=0.002),
        )
        rep = harness.run(cfg, quiet=True)
        assert str(rep.output_dir).startswith(str(tmp_path / "root"))
        assert (rep.output_dir / "summary.json").exists()


class TestSweeps:
    def test_two_value_sweep_rejected(self):
        cfg = load_config(CONFIGS / "sweep_eps.cfg")
        cfg = dataclasses.replace(cfg, sweep_values=(4e-3, 2e-3))
        with pytest.raises(ConfigError, match="need >=3 values"):
            harness.convergence_study(cfg, quiet=True)

    def test_no_sweep_section_rejected(self):
        cfg = load_config(CONFIGS / "magnetic_decay.cfg")
        with pytest.raises(ConfigError, match="no \\[sweep\\] section"):
            harness.convergence_study(cfg, quiet=True)

    def test_diffusion_only_differences_vanish(self, tmp_path):
        # single magnetic mode: every truncation resolves the dynamics exactly
        cfg = load_config(CONFIGS / "magnetic_decay.cfg")
        cfg = dataclasses.replace(
            cfg,
            step=dataclasses.replace(cfg.step, t_end=0.02),
            sweep_kind="modes",
            sweep_values=(12, 16, 20),
        )
        study = harness.convergence_study(cfg, output_dir=str(tmp_path / "study"), quiet=True)
        for pair in study.pairs:
            assert pair["u_diff"] < 1e-15
            assert pair["rho_diff"] < 1e-15
        assert (tmp_path / "study" / "study.json").exists()

    @pytest.mark.parametrize(
        "name, values, bad",
        [
            ("sweep_modes", "8,16,5000", "5000"),  # more vector modes than fit
            ("sweep_modes", "8,16,600", "600"),  # the cell's 601 temperature modes do not fit
            ("sweep_eps", "4e-3,2e-3,-1.0", "-1.0"),  # anti-diffusive density transport
            ("sweep_modes", "32,16,8", "16"),  # coarsens instead of refining
            ("sweep_eps", "1e-3,2e-3,2e-3", "0.002"),  # a repeated value refines nothing
        ],
    )
    def test_bad_sweep_value_is_config_error(self, tmp_path, capsys, name, values, bad):
        text = (CONFIGS / f"{name}.cfg").read_text()
        text = re.sub(r"\nt_end = .*", "\nt_end = 0.002", text)
        path = tmp_path / "bad.cfg"
        path.write_text(re.sub(r"\nvalues = .*", f"\nvalues = {values}", text))
        assert cli.main(["sweep", "--config", str(path), "--output-dir", str(tmp_path / "out"), "--quiet"]) == (
            harness.EXIT_CONFIG
        )
        assert f"sweep value {bad}:" in capsys.readouterr().err

    def test_unresolvable_truncation_returns_config_exit(self, tmp_path):
        cfg = RunConfig(velocity_modes=5000, magnetic_modes=5000)
        rep = harness.run(cfg, output_dir=str(tmp_path / "run"), quiet=True)
        assert rep.exit_code == harness.EXIT_CONFIG
        assert "5000 vector modes" in rep.summary["error"]

    @pytest.mark.parametrize(
        "change, named",
        [
            ({"initial_params": {"velocty_amplitude": 0.1}}, "unknown key 'velocty_amplitude'"),
            ({"initial_params": {"velocity_amplitude": 0.1, "velocity_mode": 50}}, "velocity_mode=50"),
            ({"temperature_modes": 0}, "temperature_modes must be at least 1"),
            ({"initial_params": {"density_amplitude": 0.1, "density_axis": 3}}, "density_axis=3"),
            ({"initial_params": {"density_amplitude": 0.1, "density_wavenumber": 0}}, "density_wavenumber=0"),
            ({"initial_params": {"velocity_amplitude": "0.1x"}}, "'velocity_amplitude' in [initial] must be a number"),
            ({"initial_family": "random_band", "initial_params": {"band_modes": -1}}, "band_modes=-1"),
            ({"initial_family": "random_band", "initial_params": {"seed": 2.5}},
             "'seed' in [initial] must be an integer"),
            ({"initial_params": {"velocity_amplitude": 0.1, "velocity_mode": 1.5}},
             "'velocity_mode' in [initial] must be an integer"),
            ({"initial_params": {"density_amplitude": 0.1, "density_wavenumber": 1.9}},
             "'density_wavenumber' in [initial] must be an integer"),
            ({"initial_params": {"velocity_amplitude": True}}, "'velocity_amplitude' in [initial] must be a number"),
            ({"initial_family": "random_band", "initial_params": {"seed": -1}}, "seed=-1"),
        ],
    )
    def test_code_built_config_is_validated_by_run(self, tmp_path, change, named):
        rep = harness.run(RunConfig(**change), output_dir=str(tmp_path / "run"), quiet=True)
        assert rep.exit_code == harness.EXIT_CONFIG
        assert named in rep.summary["error"]

    @pytest.mark.parametrize(
        "name, edit, named",
        [
            # the 8-mode cell cannot hold the magnetic mode 12
            ("single_mode_mhd", [("\n[output]", "\n[sweep]\nkind = modes\nvalues = 8,16,24\n\n[output]")],
             "sweep value 8: magnetic_mode=12"),
            # the cutoff at grid_points = 16 is 5
            ("sweep_eps", [("\n[initial]\n", "\n[initial]\ndensity_wavenumber = 9\n")],
             "density_wavenumber=9"),
            # layered_density's default amplitude 0.3 reaches below the raised density_min
            ("sweep_eps",
             [("density_amplitude = 0.3\n", ""), ("\n[constitutive]\n", "\n[constitutive]\ndensity_min = 0.8\n")],
             "initial density must stay within [0.8, 2.0] (mean 1.0, amplitude 0.3)"),
        ],
    )
    def test_inadmissible_cell_is_config_error(self, tmp_path, capsys, name, edit, named):
        text = (CONFIGS / f"{name}.cfg").read_text()
        for old, new in edit:
            assert old in text
            text = text.replace(old, new, 1)
        path = tmp_path / "bad.cfg"
        path.write_text(text)
        for command in ("run", "sweep"):
            code = cli.main([command, "--config", str(path), "--output-dir", str(tmp_path / command), "--quiet"])
            assert code == harness.EXIT_CONFIG
            assert named in capsys.readouterr().err

    def test_sweep_exits_as_its_first_aborted_cell(self, tmp_path, capsys):
        # with seed 3 every cell trips the density monitor at the first step
        text = (CONFIGS / "sweep_modes.cfg").read_text().replace("\nseed = 7\n", "\nseed = 3\n")
        path = tmp_path / "seed3.cfg"
        path.write_text(text)
        code = cli.main(["sweep", "--config", str(path), "--output-dir", str(tmp_path / "out"), "--quiet"])
        assert code == harness.EXIT_INVARIANT
        aborted = json.loads((tmp_path / "out" / "study.json").read_text())["aborted_cells"]
        assert [cell["exit_code"] for cell in aborted] == [harness.EXIT_INVARIANT] * 3
        err = capsys.readouterr().err.splitlines()
        assert err == [f"sweep value {cell['value']}: invariant_failure: {cell['error']}" for cell in aborted]
        assert all("density bounds drifted" in cell["error"] for cell in aborted)

    def test_density_difference_is_grid_l2_norm(self):
        basis = sp.build_basis(2.0 * np.pi, 12)
        rng = np.random.default_rng(0)
        ra, rb = (rng.normal(size=basis.n_scalar_modes) for _ in range(2))
        diff = basis.scalar_grid(ra) - basis.scalar_grid(rb)
        want = np.sqrt(basis.volume / 12**3 * np.sum(diff**2))
        got = harness._density_difference_norm([ra], [rb])
        assert got == pytest.approx(want, rel=1e-12)


class TestAllocatorPolicy:
    # Minor faults of the second of two identical runs in one process, a bound
    # fixed before measuring.  Under glibc's defaults the second 2-step
    # random_band run at N=16 faults thousands of fresh pages in; with the
    # policy it reuses the first run's heap and takes well under a hundred.
    SECOND_RUN_FAULT_BOUND = 500

    SCRIPT = """
import dataclasses, resource, sys
from specmhd import harness
from specmhd.config import load_config
cfg = load_config(sys.argv[1])
cfg = dataclasses.replace(cfg, step=dataclasses.replace(cfg.step, t_end=2 * cfg.step.dt))
faults = []
for name in ("first", "second"):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    assert harness.run(cfg, output_dir=sys.argv[2] + "/" + name, quiet=True).exit_code == 0
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(*faults)
"""

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the policy acts on glibc's allocator only")
    def test_a_repeated_run_reuses_the_heap(self, tmp_path):
        # a fresh process, so that no earlier test has set the policy or grown the heap
        env = {**os.environ, "PYTHONPATH": str(Path(harness.__file__).parents[1])}
        done = subprocess.run(
            [sys.executable, "-c", self.SCRIPT, str(CONFIGS / "random_band.cfg"), str(tmp_path)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        first, second = map(int, done.stdout.split())
        assert second < self.SECOND_RUN_FAULT_BOUND, (first, second)

    def test_a_libc_without_mallopt_changes_nothing(self, tmp_path, monkeypatch):
        cfg = load_config(CONFIGS / "magnetic_decay.cfg")
        cfg = dataclasses.replace(cfg, step=dataclasses.replace(cfg.step, t_end=4 * cfg.step.dt))
        reference = harness.run(cfg, output_dir=str(tmp_path / "reference"), quiet=True)
        lookups = []

        def libc_without_mallopt(name):
            lookups.append(name)
            return object()  # its .mallopt raises AttributeError

        monkeypatch.setattr(harness.ctypes, "CDLL", libc_without_mallopt)
        harness._keep_heap.cache_clear()
        try:
            report = harness.run(cfg, output_dir=str(tmp_path / "no_mallopt"), quiet=True)
        finally:
            harness._keep_heap.cache_clear()
        assert lookups == [None]
        assert reference.exit_code == report.exit_code == harness.EXIT_PASS
        csv = [(rep.output_dir / "diagnostics.csv").read_bytes() for rep in (reference, report)]
        assert csv[0] == csv[1]


@pytest.mark.parametrize("name", harness.CHECKS)
def test_registered_check(name):
    ok, detail = harness.CHECKS[name]()
    assert ok, detail


def test_every_registered_check_states_its_property():
    undocumented = [name for name, fn in harness.CHECKS.items() if not (fn.__doc__ or "").strip()]
    assert undocumented == []


class TestCheckSuite:
    def test_selector_filters(self, capsys):
        ok, lines = harness.check(suite="constitutive", quiet=True)
        assert ok and len(lines) == 1
        assert "constitutive" in lines[0]

    def test_unknown_selector(self):
        with pytest.raises(ConfigError, match="no checks match"):
            harness.check(suite="astrology")

    def test_lorentz_sign_flip_fails_energy_identity(self, monkeypatch):
        fields = gal.GalerkinOperators.fields
        monkeypatch.setattr(
            gal.GalerkinOperators, "fields", lambda ops, state: lorentz_flipped(fields(ops, state))
        )
        ok, lines = harness.check(suite="galerkin.energy_identity", quiet=True)
        assert not ok
        assert "FAIL" in lines[0]


class TestCli:
    def test_run_exit_codes(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text(MINIMAL + "\n[constitutive]\npower_law_exponent = 1.0\n")
        assert cli.main(["run", "--config", str(bad)]) == harness.EXIT_CONFIG

        good = tmp_path / "good.cfg"
        good.write_text(
            MINIMAL
            + "\n[domain]\ngrid_points = 8\n\n[truncation]\nvelocity_modes = 12\n"
            + "temperature_modes = 13\nmagnetic_modes = 12\n"
            + "\n[initial]\nfamily = single_mode\nmagnetic_amplitude = 0.2\n"
        )
        code = cli.main(
            ["run", "--config", str(good), "--output-dir", str(tmp_path / "out"), "--quiet"]
        )
        assert code == harness.EXIT_PASS
        assert (tmp_path / "out" / "diagnostics.csv").exists()

    def test_seed_override_changes_initial_data(self, tmp_path):
        cfg_path = tmp_path / "rb.cfg"
        cfg_path.write_text(
            MINIMAL
            + "\n[domain]\ngrid_points = 8\n\n[truncation]\nvelocity_modes = 12\n"
            + "temperature_modes = 13\nmagnetic_modes = 12\n"
            + "\n[initial]\nfamily = random_band\nseed = 1\nvelocity_amplitude = 0.1\n"
        )
        cli.main(["run", "--config", str(cfg_path), "--output-dir", str(tmp_path / "s1"), "--quiet", "--seed", "1"])
        cli.main(["run", "--config", str(cfg_path), "--output-dir", str(tmp_path / "s2"), "--quiet", "--seed", "2"])
        a = (tmp_path / "s1/diagnostics.csv").read_bytes()
        b = (tmp_path / "s2/diagnostics.csv").read_bytes()
        assert a != b
        saved = load_config(tmp_path / "s2" / "config.cfg")
        assert saved.initial_params["seed"] == 2

    def test_bad_seed_override_is_config_error(self, tmp_path, capsys):
        args = ["run", "--config", str(CONFIGS / "random_band.cfg"), "--output-dir", str(tmp_path), "--seed", "-1"]
        assert cli.main(args + ["--quiet"]) == harness.EXIT_CONFIG
        assert "seed=-1 must be a nonnegative integer" in capsys.readouterr().err
        rep = harness.run(load_config(CONFIGS / "random_band.cfg"), output_dir=str(tmp_path), seed=2.5, quiet=True)
        assert rep.exit_code == harness.EXIT_CONFIG
        assert "'seed' in [initial] must be an integer" in rep.summary["error"]

    def test_numerical_abort_exit_code(self, tmp_path, capsys):
        blowup = tmp_path / "blowup.cfg"
        blowup.write_text(
            "[domain]\ngrid_points = 8\n\n"
            "[truncation]\nvelocity_modes = 12\ntemperature_modes = 13\nmagnetic_modes = 12\n\n"
            "[step]\ndt = 50.0\nt_end = 500.0\n\n"
            "[initial]\nfamily = random_band\nseed = 3\nvelocity_amplitude = 0.5\n"
        )
        with np.errstate(all="ignore"):
            code = cli.main(
                ["run", "--config", str(blowup), "--output-dir", str(tmp_path / "bl"), "--quiet"]
            )
        assert code == harness.EXIT_NUMERICAL
        assert "numerical_abort: blow-up" in capsys.readouterr().err
        # partial outputs are retained
        assert (tmp_path / "bl" / "summary.json").exists()
        assert (tmp_path / "bl" / "diagnostics.csv").exists()

    def test_scheme_key_is_unknown(self, tmp_path, capsys):
        # config schema 3 dropped [step] scheme, which admitted one value
        path = tmp_path / "schema2.cfg"
        path.write_text(MINIMAL + "scheme = implicit-midpoint\n")
        args = ["run", "--config", str(path), "--output-dir", str(tmp_path / "out"), "--quiet"]
        assert cli.main(args) == harness.EXIT_CONFIG
        assert "unknown key 'scheme' in section [step]" in capsys.readouterr().err

    @pytest.mark.parametrize("removed", ["explicit-rk4", "imex-cn-ab2"])
    def test_removed_scheme_is_config_error(self, tmp_path, capsys, removed):
        # a config naming a scheme removed before schema 3 fails on the key itself
        path = tmp_path / "removed.cfg"
        path.write_text(MINIMAL + f"scheme = {removed}\n")
        args = ["run", "--config", str(path), "--output-dir", str(tmp_path / "out"), "--quiet"]
        assert cli.main(args) == harness.EXIT_CONFIG
        assert "unknown key 'scheme' in section [step]" in capsys.readouterr().err

    def test_invariant_failure_names_its_cause(self, tmp_path, capsys):
        # with seed 3 random_band trips the density monitor at the first step
        args = ["run", "--config", str(CONFIGS / "random_band.cfg"), "--seed", "3"]
        assert cli.main(args + ["--output-dir", str(tmp_path), "--quiet"]) == harness.EXIT_INVARIANT
        err = capsys.readouterr().err
        assert err.startswith("invariant_failure: density bounds drifted by")
        assert err.strip() == "invariant_failure: " + json.loads((tmp_path / "summary.json").read_text())["error"]

    def test_failed_flag_is_named(self, tmp_path, monkeypatch, capsys):
        # no step can gain a whole unit of heat, so every step fails the flag
        monkeypatch.setattr(diag, "HEAT_MONOTONE_SLACK", -1.0)
        args = ["run", "--config", str(CONFIGS / "magnetic_decay.cfg"), "--output-dir", str(tmp_path), "--quiet"]
        assert cli.main(args) == harness.EXIT_INVARIANT
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["status"] == "invariant_failure" and not summary["invariant_flags_ok"]
        assert summary["error"].startswith("invariant flag heat_monotone_ok failed at t=")
        assert summary["error"] in capsys.readouterr().err

    def test_status_line_reports_rhs_per_step(self, tmp_path, capsys):
        cfg = load_config(CONFIGS / "magnetic_decay.cfg")
        cfg = dataclasses.replace(cfg, step=dataclasses.replace(cfg.step, t_end=0.005))
        path = tmp_path / "short.cfg"
        path.write_text(serialize_config(cfg))
        assert cli.main(["run", "--config", str(path), "--output-dir", str(tmp_path / "out")]) == 0
        line = capsys.readouterr().out.splitlines()[0]
        monitors = json.loads((tmp_path / "out" / "summary.json").read_text())["monitors"]
        work = monitors["rhs_evaluations"] / 5
        assert re.fullmatch(rf"\[completed\] single_mode: 6 samples, [0-9.]+s, {work:.2f} RHS/step", line)
        assert cli.main(["run", "--config", str(path), "--output-dir", str(tmp_path / "q"), "--quiet"]) == 0
        assert capsys.readouterr().out == ""

    def test_check_subcommand(self):
        assert cli.main(["check", "--suite", "harness.config_round_trip", "--quiet"]) == 0

    def test_check_failure_exit_code(self, monkeypatch, capsys):
        monkeypatch.setitem(harness.CHECKS, "harness.always_fails", lambda: (False, "registered to fail"))
        code = cli.main(["check", "--suite", "harness.always_fails"])
        assert code == harness.EXIT_INVARIANT
        assert "[FAIL] harness.always_fails" in capsys.readouterr().out

    def test_sweep_subcommand_bad_config(self, tmp_path):
        bad = tmp_path / "nosweep.cfg"
        bad.write_text(MINIMAL)
        assert cli.main(["sweep", "--config", str(bad)]) == harness.EXIT_CONFIG
