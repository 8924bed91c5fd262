import re
from pathlib import Path

import numpy as np
import pytest

from specmhd import constitutive as cst


def make_params(**kw):
    return cst.ConstitutiveParams(**kw)


class TestValidation:
    def test_admissible_region_passes(self):
        assert cst.validate_params(make_params(power_law_exponent=2.5, conductivity_exponent=0.0)) == []

    def test_alpha_boundary_fails(self):
        bad = cst.validate_params(make_params(conductivity_exponent=-2.0 / 3.0))
        assert bad
        assert any("conductivity_exponent" in v for v in bad)

    def test_r_boundary_fails(self):
        bad = cst.validate_params(make_params(power_law_exponent=2.0))
        assert bad
        assert any("power_law_exponent" in v for v in bad)

    def test_all_violations_reported(self):
        bad = cst.validate_params(
            make_params(power_law_exponent=1.0, magnetic_diffusivity=-1.0, temperature_floor=0.0)
        )
        assert len(bad) >= 3

    def test_bound_ordering(self):
        assert cst.validate_params(make_params(viscosity_min=2.0, viscosity_max=1.0))


class TestStress:
    def test_zero_strain_gives_zero(self):
        p = make_params()
        s = cst.stress_tensor(p, 1.0, 1.0, np.zeros(6))
        assert np.all(s == 0.0)

    def test_hand_value_r3(self):
        # |D|^2 = 2 for diag(1,-1,0), so S = sqrt(2) * D with unit viscosity
        p = make_params(power_law_exponent=3.0, stress_smoothing=0.0)
        d = np.array([1.0, -1.0, 0.0, 0.0, 0.0, 0.0])
        s = cst.stress_tensor(p, 1.0, 1.0, d)
        np.testing.assert_allclose(s, np.sqrt(2.0) * d, rtol=1e-15)

    def test_r2_limit_is_newtonian(self):
        # r = 2 bypasses validation on purpose: the exponent vanishes exactly
        p = make_params(power_law_exponent=2.0, stress_smoothing=0.37)
        d = np.array([0.3, -0.2, -0.1, 0.1, 0.0, 0.5])
        s = cst.stress_tensor(p, 1.3, 2.0, d)
        np.testing.assert_allclose(s, d, rtol=1e-15)

    def test_nonfinite_rejected(self):
        p = make_params()
        d = np.zeros(6)
        d[0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            cst.stress_tensor(p, 1.0, 1.0, d)

    def test_symmetric_and_traceless(self):
        # symmetry holds by representation: only six components exist
        p = make_params(viscosity_form="density_temperature", viscosity_max=3.0)
        rng = np.random.default_rng(7)
        rho, theta, d = cst.sample_admissible(p, 200, rng)
        # force exact zero trace
        d[2] = -(d[0] + d[1])
        s = cst.stress_tensor(p, rho, theta, d)
        assert s.shape == (6, 200)
        tr = s[0] + s[1] + s[2]
        assert np.max(np.abs(tr)) < 1e-13 * (1.0 + np.max(np.abs(s)))


def _full_tensor(t):
    """The 3x3 tensor, leading axes, rebuilt from its six components."""
    full = np.empty((3, 3) + t.shape[1:])
    for p, (i, j) in enumerate(cst.SYM_PAIRS):
        full[i, j] = full[j, i] = t[p]
    return full


def test_contract_matches_full_contraction():
    rng = np.random.default_rng(31)
    s, d = rng.normal(size=(2, 6, 500))
    fs, fd = _full_tensor(s), _full_tensor(d)
    want = np.sum(fs * fd, axis=(0, 1))
    scale = np.sqrt(np.sum(fs * fs, axis=(0, 1)) * np.sum(fd * fd, axis=(0, 1)))
    assert np.max(np.abs(cst.contract(s, d) - want) / scale) < 1e-14
    np.testing.assert_allclose(cst.frobenius_sq(s), np.sum(fs * fs, axis=(0, 1)), rtol=1e-14)


def test_one_symmetric_tensor_layout():
    """The pointwise layer and the Galerkin layer share the components-first
    layout of ``constitutive``: neither reorders axes, and only
    ``constitutive`` defines the component order."""
    src = Path(cst.__file__).parent
    found = []
    for path in sorted(src.glob("*.py")):
        for i, line in enumerate(path.read_text().splitlines(), 1):
            reorders = path.name in ("constitutive.py", "galerkin.py") and re.search(
                r"\b(moveaxis|swapaxes)\b", line
            )
            defines = path.name != "constitutive.py" and re.search(r"\bSYM_PAIRS\s*=", line)
            if reorders or defines:
                found.append(f"{path.name}:{i}: {line.strip()}")
    assert not found, found


class TestHeatFlux:
    def test_zero_gradient(self):
        p = make_params()
        q = cst.heat_flux(p, 1.0, 1.0, np.zeros(3))
        assert np.all(q == 0.0)

    def test_alpha_zero_is_identity(self):
        p = make_params(conductivity_exponent=0.0)
        g = np.array([0.3, -1.0, 2.0])
        np.testing.assert_allclose(cst.heat_flux(p, 1.0, 5.0, g), g, rtol=1e-15)

    def test_hand_value_alpha2(self):
        p = make_params(conductivity_exponent=2.0)
        q = cst.heat_flux(p, 1.0, 2.0, np.array([1.0, 0.0, 0.0]))
        np.testing.assert_allclose(q, [4.0, 0.0, 0.0], rtol=1e-15)

    def test_singular_flux_rejected(self):
        p = make_params(conductivity_exponent=-0.5)
        with pytest.raises(ValueError, match="singular flux"):
            cst.heat_flux(p, 1.0, 0.0, np.ones(3))


class TestThermalEnergy:
    def test_constant_heat(self):
        p = make_params()
        assert cst.thermal_energy(p, 4.0) == pytest.approx(4.0, rel=1e-15)

    def test_saturating_closed_form_vs_quadrature(self):
        # frozen value: 6 - ln 4 for bounds [1, 2] at theta = 3
        p = make_params(specific_heat_min=1.0, specific_heat_max=2.0, specific_heat_form="saturating")
        val = cst.thermal_energy(p, 3.0)
        assert val == pytest.approx(6.0 - np.log(4.0), rel=1e-14)
        # independent oracle: fine trapezoid quadrature of the specific heat
        grid = np.linspace(0.0, 3.0, 20_001)
        quad = np.trapezoid(cst.specific_heat(p, grid), grid)
        assert val == pytest.approx(quad, rel=1e-8)

    def test_monotone(self):
        p = make_params(specific_heat_form="saturating", specific_heat_max=2.0)
        th = np.linspace(0.0, 20.0, 500)
        q = cst.thermal_energy(p, th)
        assert np.all(np.diff(q) > 0)

    def test_specific_heat_in_bounds(self):
        p = make_params(specific_heat_min=1.0, specific_heat_max=2.0, specific_heat_form="saturating")
        th = np.linspace(0.0, 100.0, 1000)
        c = cst.specific_heat(p, th)
        assert np.all(c >= 1.0) and np.all(c <= 2.0)
