import ast
import re
from pathlib import Path

import numpy as np
import pytest

from specmhd import constitutive as cst
from specmhd import galerkin as gal
from specmhd import harness
from specmhd import spectral as sp
from specmhd.errors import ResolutionError

from helpers import (
    make_state,
    oracle_dense_grid,
    oracle_mesh,
    oracle_mode_tables,
    oracle_scalar_mode,
    oracle_scalar_mode_grad,
    oracle_vector_field,
    oracle_vector_mode,
    oracle_vector_mode_curl,
    oracle_vector_mode_grad,
    read_snapshot,
    riemann,
)

L = 2.0 * np.pi


K = 24


@pytest.fixture(scope="module")
def basis():
    return sp.build_basis(L, 16)


def mode_field_oracle(basis, j, grid):
    """Independent trig evaluation of mode j (no FFT machinery)."""
    lin = np.linspace(0.0, basis.box_size, grid, endpoint=False)
    x, y, z = np.meshgrid(lin, lin, lin, indexing="ij")
    k = basis.vec_k[j]
    ph = k[0] * x + k[1] * y + k[2] * z
    tr = np.cos(ph) if basis.vec_phase[j] == 0 else np.sin(ph)
    return np.sqrt(2.0 / basis.volume) * basis.vec_e[j][:, None, None, None] * tr


class TestBasisConstruction:
    def test_smallest_shell_first(self):
        b = sp.build_basis(L, 8)
        assert np.all(np.sum(b.vec_n[:2] ** 2, axis=1) == 1)
        np.testing.assert_allclose(b.vec_k2[:2], 1.0)

    def test_mode_counts_fill_the_cutoff(self, basis):
        assert (basis.n_vector_modes, basis.n_scalar_modes) == sp.available_modes(16) == (1028, 515)

    def test_too_many_modes_rejected(self, basis):
        with pytest.raises(ResolutionError, match="insufficient resolution"):
            basis.synth_vector(np.zeros(basis.n_vector_modes + 1))

    def test_odd_grid_rejected(self):
        with pytest.raises(ResolutionError, match="even"):
            sp.build_basis(L, 15)

    def test_gram_matrix_identity(self, basis):
        # quadrature oracle: direct grid products of trig-evaluated modes
        g = basis.grid_points
        w = basis.volume / g**3
        fields = [mode_field_oracle(basis, j, g) for j in range(10)]
        gram = np.array([[w * np.sum(a * b) for b in fields] for a in fields])
        np.testing.assert_allclose(gram, np.eye(10), atol=1e-12)

    def test_modes_divergence_free(self, basis):
        # with orthonormality, Parseval and gradients orthogonal to the modes
        ok, detail = harness.CHECKS["spectral.core"](basis=basis, modes=K)
        assert ok, detail

    def test_deterministic_ordering(self):
        a = sp.build_basis(L, 16)
        b = sp.build_basis(L, 32)
        np.testing.assert_array_equal(a.vec_n[:24], b.vec_n[:24])
        np.testing.assert_allclose(a.vec_e[:24], b.vec_e[:24])


    @pytest.mark.parametrize("grid", [4, 6, 8, 16, 32])
    def test_tables_match_per_wavevector_construction(self, grid):
        # snapshots and coefficient vectors depend on these bits
        b = sp.build_basis(L, grid)
        for name, want in oracle_mode_tables(b.cutoff).items():
            got = getattr(b, name)
            assert got.dtype == want.dtype and got.shape == want.shape, name
            assert got.tobytes() == want.tobytes(), name


class TestFieldRoundTrip:
    def test_grid_spectral_round_trip(self, basis):
        rng = np.random.default_rng(3)
        coeffs = rng.normal(size=K)
        vals = basis.vector_grid(coeffs)
        back = basis.spectral_to_grid(basis.grid_to_spectral(vals))
        np.testing.assert_allclose(back, vals, rtol=1e-12, atol=1e-13)

    def test_projection_recovers_coefficients(self, basis):
        rng = np.random.default_rng(4)
        coeffs = rng.normal(size=K)
        got = basis.project_vector(basis.vector_grid(coeffs), K)
        np.testing.assert_allclose(got, coeffs, rtol=1e-12, atol=1e-13)

    def test_scalar_projection_with_constant(self, basis):
        rng = np.random.default_rng(5)
        coeffs = rng.normal(size=9)
        got = basis.gather_scalar(basis.grid_to_spectral(basis.scalar_grid(coeffs)), 9)
        np.testing.assert_allclose(got, coeffs, rtol=1e-12, atol=1e-13)

    def test_snapshot_round_trip(self, basis, tmp_path):
        rng = np.random.default_rng(6)
        vals = basis.vector_grid(rng.normal(size=K))
        harness._write_snapshot(tmp_path / "snap", vals, L)
        header, got = read_snapshot(tmp_path / "snap")
        assert header["kind"] == "vector" and header["box_size"] == L
        np.testing.assert_array_equal(got, vals)

    def test_snapshot_x_fastest_layout(self, tmp_path):
        # a field varying only in x must produce a periodic fast axis on disk
        n = 4
        lin = np.arange(n, dtype=float)
        vals = np.broadcast_to(lin[:, None, None], (n, n, n)).copy()
        harness._write_snapshot(tmp_path / "x", vals, L)
        raw = np.frombuffer((tmp_path / "x.bin").read_bytes(), dtype="<f8")
        np.testing.assert_array_equal(raw[:n], lin)
        assert read_snapshot(tmp_path / "x")[0]["kind"] == "scalar"


class TestDifferentiate:
    """Identities of the derivative kernels the solver runs."""

    def test_single_mode_exact(self, basis):
        x, _, _ = basis.mesh()
        c = basis.grid_to_spectral(np.sin(2.0 * np.pi * x / L))
        dfdx = basis.spectral_to_grid(basis.grad(c, 0))
        np.testing.assert_allclose(
            dfdx, (2.0 * np.pi / L) * np.cos(2.0 * np.pi * x / L), atol=1e-12
        )

    def test_div_of_curl_vanishes(self, basis):
        rng = np.random.default_rng(11)
        g = basis.grid_points
        c = basis.grid_to_spectral(rng.normal(size=(3, g, g, g)))
        dc = basis.spectral_to_grid(basis.div(basis.curl(c)))
        assert np.max(np.abs(dc)) < 1e-11

    def test_curl_of_grad_vanishes(self, basis):
        rng = np.random.default_rng(12)
        g = basis.grid_points
        c = basis.grid_to_spectral(rng.normal(size=(g, g, g)))
        grad = np.stack([basis.grad(c, m) for m in range(3)])
        assert np.max(np.abs(basis.spectral_to_grid(basis.curl(grad)))) < 1e-11

    def test_curl_curl_is_minus_laplacian_on_solenoidal(self, basis):
        rng = np.random.default_rng(13)
        c = basis.synth_vector(rng.normal(size=K))
        cc = basis.curl(basis.curl(c))
        kx, ky, kz = basis.wavenumbers(basis.grid_points)
        lap = -(kx**2 + ky**2 + kz**2) * c
        np.testing.assert_allclose(cc, -lap, rtol=1e-12, atol=1e-13)


class TestInnerProductAndDealias:
    """The grid L2 product (Parseval) and spectral padding and truncation."""

    def test_parseval(self, basis):
        rng = np.random.default_rng(16)
        coeffs = rng.normal(size=K)
        vals = basis.vector_grid(coeffs)
        grid_norm = basis.volume / basis.grid_points**3 * np.sum(vals**2)
        assert grid_norm == pytest.approx(float(np.sum(coeffs**2)), rel=1e-10)

    def test_resample_spectrum_round_trip(self, basis):
        rng = np.random.default_rng(17)
        c = basis.synth_scalar(rng.normal(size=9))
        up = basis.resample_spectrum(c, 24)
        down = basis.resample_spectrum(up, basis.grid_points)
        np.testing.assert_allclose(down, c, atol=1e-15)
        # padded grid evaluates to the same function on shared points
        up_vals = sp.DivFreeSpectralBasis.spectral_to_grid(up)
        base_vals = sp.DivFreeSpectralBasis.spectral_to_grid(c)
        # grid 16 points at even indices of 24-grid coincide every 3rd/2nd: compare norms instead
        w24 = basis.volume / 24**3
        w16 = basis.volume / 16**3
        assert w24 * np.sum(up_vals**2) == pytest.approx(w16 * np.sum(base_vals**2), rel=1e-12)


class TestHalfSpectrumLayout:
    """The x-half storage of real-field spectra against layout-free oracles."""

    def test_synth_vector_matches_trig_oracle(self, basis):
        # modes on both sides of the plane nx = 0, where the conjugate
        # partner is stored explicitly
        on_plane = basis.vec_n[:K, 0] == 0
        assert on_plane.any() and (~on_plane).any()
        rng = np.random.default_rng(21)
        coeffs = rng.normal(size=K)
        got = basis.spectral_to_grid(basis.synth_vector(coeffs))
        want = oracle_vector_field(basis, coeffs, oracle_mesh(L, basis.grid_points))
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)

    def test_gather_amplitudes_negative_x_reads_conjugate(self, basis):
        g = basis.grid_points
        rng = np.random.default_rng(22)
        values = rng.normal(size=(g, g, g))
        c = basis.grid_to_spectral(values)
        full = np.fft.fftn(values) / g**3
        nvecs = np.array([[-1, 0, 0], [-2, 3, -1], [-5, -4, 2], [-g // 2 + 1, 1, 1], [3, -2, 5]])
        got = basis.gather_amplitudes(c, nvecs)
        np.testing.assert_allclose(got[:4], np.conj(basis.gather_amplitudes(c, -nvecs[:4])), atol=1e-17)
        np.testing.assert_allclose(got, full[tuple((nvecs % g).T)], rtol=0, atol=1e-15)

    @pytest.mark.parametrize("n", [(2, -1, 0), (0, 1, -3), (-1, 2, 1)])
    def test_set_amplitude_gives_real_harmonic(self, basis, n):
        c = basis.zero_spectrum()
        basis.set_amplitude(c, n, 0.5 * (0.3 - 0.4j))
        x, y, z = basis.mesh()
        ph = (2.0 * np.pi / L) * (n[0] * x + n[1] * y + n[2] * z)
        want = 0.3 * np.cos(ph) + 0.4 * np.sin(ph)
        np.testing.assert_allclose(basis.spectral_to_grid(c), want, rtol=0, atol=1e-14)

    def test_resample_vector_round_trip(self, basis):
        # every amplitude below the Nyquist wavenumber 8 survives 16 -> 24 -> 16
        rng = np.random.default_rng(23)
        c = basis.grid_to_spectral(rng.normal(size=(3, 16, 16, 16)))
        up = basis.resample_spectrum(c, 24)
        assert up.shape == (3, 13, 24, 24)
        want = c.copy()
        want[:, 8] = want[:, :, 8] = want[:, :, :, 8] = 0.0
        np.testing.assert_array_equal(basis.resample_spectrum(up, 16), want)
        # a padded band-limited spectrum is the same field sampled on 24^3
        coeffs = rng.normal(size=K)
        up = basis.resample_spectrum(basis.synth_vector(coeffs), 24)
        want = oracle_vector_field(basis, coeffs, oracle_mesh(L, 24))
        np.testing.assert_allclose(basis.spectral_to_grid(up), want, rtol=0, atol=1e-13)

    def test_sum_sq_is_parseval(self, basis):
        # a white-noise field has content in every plane, the Nyquist ones too
        g = basis.grid_points
        values = np.random.default_rng(25).normal(size=(2, g, g, g))
        grid_sum = float(np.sum(values**2)) / g**3
        assert basis.sum_sq(basis.grid_to_spectral(values)) == pytest.approx(grid_sum, rel=1e-12)

    def test_theta_sobolev_matches_grid_quadrature(self, basis):
        p = cst.ConstitutiveParams(conductivity_exponent=1.0)
        st = make_state(basis, np.random.default_rng(24), K, theta_amp=0.5)
        f = gal.GalerkinOperators(p, basis).fields(st)
        lam = gal.THETA_NEG_POWER
        rep = gal.energy_report(f)
        # g = theta^e and grad g = e theta^(e-1) grad theta from the closed
        # trigonometric forms of the temperature modes on the oversampled grid
        mesh = oracle_mesh(L, f.m)
        theta = sum(bj * oracle_scalar_mode(basis, j, mesh) for j, bj in enumerate(st.b))
        grad_theta = sum(bj * oracle_scalar_mode_grad(basis, j, mesh) for j, bj in enumerate(st.b))
        assert theta.min() > p.temperature_floor
        expo = 0.5 * (p.conductivity_exponent - lam + 1.0)
        g = theta**expo
        grad_g = expo * theta ** (expo - 1.0) * grad_theta
        want = basis.volume / f.m**3 * float(np.sum(g * g + np.sum(grad_g**2, axis=0)))
        assert rep["theta_sobolev_sq"] == pytest.approx(want, rel=1e-12)


def _full_tensor(sym):
    """(3, 3, ...) tensor from its six components in ``SYM_PAIRS`` order."""
    full = np.empty((3, 3) + sym.shape[1:])
    for p, (i, m) in enumerate(cst.SYM_PAIRS):
        full[i, m] = full[m, i] = sym[p]
    return full


# per gather: the components of its field, and the closed-form test function
# of mode j as a (components, G, G, G) array
_GATHER_ORACLES = {
    "gather_vector": (3, oracle_vector_mode),
    "gather_vector_curl": (3, oracle_vector_mode_curl),
    "gather_strain": (6, oracle_vector_mode_grad),
    "gather_scalar": (1, lambda b, j, mesh: oracle_scalar_mode(b, j, mesh)[None]),
    "gather_scalar_grad": (3, oracle_scalar_mode_grad),
}


@pytest.mark.parametrize("gather", _GATHER_ORACLES)
def test_gathers_vs_dense_quadrature(basis, gather):
    """Each projection against Riemann sums of the closed-form modes on a
    dense grid, for a random band-limited field that is neither solenoidal
    nor symmetric under any of the mode family's conventions."""
    ncomp, test_function = _GATHER_ORACLES[gather]
    scalar = gather.startswith("gather_scalar")
    count = 61 if scalar else 60
    coeffs = np.random.default_rng(31).normal(size=(ncomp, 121))

    def field(grid):
        mesh = oracle_mesh(L, grid)
        modes = np.array([oracle_scalar_mode(basis, j, mesh) for j in range(coeffs.shape[1])])
        return np.einsum("pj,jxyz->pxyz", coeffs, modes)

    c = basis.grid_to_spectral(field(basis.grid_points))
    got = getattr(basis, gather)(c[0] if ncomp == 1 else c, count)
    mesh = oracle_mesh(L, oracle_dense_grid(basis))
    f = field(mesh[0].shape[0])
    if gather == "gather_strain":
        # (S, D(psi_j)) with D = grad + grad^T, contracted over all nine entries
        f = _full_tensor(f)
        want = [
            riemann(L, np.sum(f * (t + t.swapaxes(0, 1)), axis=(0, 1)))
            for t in (test_function(basis, j, mesh) for j in range(count))
        ]
    else:
        want = [riemann(L, np.sum(f * test_function(basis, j, mesh), axis=0)) for j in range(count)]
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)


def test_mode_family_only_in_spectral():
    """One home for the mode family: no other module reads the mode tables
    (``vec_k2`` and ``scal_k2`` aside), looks up raw amplitudes in the half layout, or
    enumerates the wavevectors."""
    src = Path(sp.__file__).parent
    pattern = re.compile(
        r"\b(vec_n|vec_e|vec_phase|vec_curl_e|scal_n|scal_phase|scal_k|gather_amplitudes"
        r"|_canonical_wavevectors)\b"
    )
    found = [
        f"{path.name}:{i}"
        for path in sorted(src.glob("*.py"))
        if path.name != "spectral.py"
        for i, line in enumerate(path.read_text().splitlines(), 1)
        if pattern.search(line)
    ]
    assert not found, f"mode family used outside spectral.py: {found}"


def test_resolution_rule_only_in_spectral():
    """One home for the resolution rule: no other module counts the modes
    under the cutoff or judges whether a truncation fits."""
    src = Path(sp.__file__).parent
    pattern = re.compile(r"\bavailable_modes\b|insufficient resolution")
    found = [
        f"{path.name}:{i}"
        for path in sorted(src.glob("*.py"))
        if path.name != "spectral.py"
        for i, line in enumerate(path.read_text().splitlines(), 1)
        if pattern.search(line)
    ]
    assert not found, f"resolution rule outside spectral.py: {found}"


def test_transforms_only_in_spectral():
    """One transform layer: every FFT runs through ``grid_to_spectral`` and
    ``spectral_to_grid``, the two functions the benchmark tracer wraps."""
    src = Path(sp.__file__).parent
    outside = [
        f"{path.name}:{i}"
        for path in sorted(src.glob("*.py"))
        if path.name != "spectral.py"
        for i, line in enumerate(path.read_text().splitlines(), 1)
        if "np.fft." in line
    ]
    assert not outside, f"np.fft used outside spectral.py: {outside}"
    calls = re.findall(r"np\.fft\.(\w+)\(", (src / "spectral.py").read_text())
    transforms = sorted(name for name in calls if name != "fftfreq")
    assert transforms == ["irfftn", "rfftn"]


def test_spectral_does_no_file_io():
    """The spectral layer holds the mode family and its transforms; the
    harness writes every run artifact."""
    tree = ast.parse(Path(sp.__file__).read_text())
    modules = [a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names]
    modules += [n.module for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)]
    assert not {m.split(".")[0] for m in modules} & {"json", "pathlib"}, modules
