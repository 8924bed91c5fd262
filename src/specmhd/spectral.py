"""Periodic-box spectral spaces.

Real trigonometric modes on ``[0, L)^3``:

* vector modes: for each canonical wavevector ``k`` two polarization
  directions orthogonal to ``k``, each with a cosine and a sine phase, scaled
  by ``sqrt(2/V)`` so the family is orthonormal in L2 and divergence-free by
  construction;
* scalar modes: the constant ``1/sqrt(V)`` followed by ``sqrt(2/V)`` cosine
  and sine modes over the same canonical wavevectors.

Canonical means lexicographically positive, so the ``+k``/``-k`` pair is
enumerated once.  Modes are ordered by ``|k|``, then lexicographically, then
by polarization index, then phase (cosine before sine); this ordering is
versioned because snapshots and coefficient vectors depend on it.

Spectra are stored amplitude-normalized: ``c = fftn(values) / G**3``, so a
band-limited field has grid-size-independent coefficients and resampling
between grids is a pure pad/truncate.  All wavevectors live strictly inside
the two-thirds dealiasing cutoff ``(N - 1) // 3``, which makes uniform-grid
quadrature of products of up to three basis-band fields exact.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from specmhd.errors import ResolutionError

MODE_ORDERING_VERSION = "1"
FIELD_SCHEMA_VERSION = "field-v1"

_PHASE_COS = 0
_PHASE_SIN = 1
_PHASE_CONST = 2


def _canonical_wavevectors(cutoff: int) -> np.ndarray:
    """Lexicographically positive integer wavevectors with |n| <= cutoff."""
    rng = np.arange(-cutoff, cutoff + 1)
    nx, ny, nz = np.meshgrid(rng, rng, rng, indexing="ij")
    n = np.stack([nx.ravel(), ny.ravel(), nz.ravel()], axis=1)
    norm2 = np.sum(n * n, axis=1)
    inside = (norm2 > 0) & (norm2 <= cutoff * cutoff)
    positive = (n[:, 0] > 0) | ((n[:, 0] == 0) & (n[:, 1] > 0)) | (
        (n[:, 0] == 0) & (n[:, 1] == 0) & (n[:, 2] > 0)
    )
    n = n[inside & positive]
    norm2 = np.sum(n * n, axis=1)
    order = np.lexsort((n[:, 2], n[:, 1], n[:, 0], norm2))
    return n[order]


def _polarization_pair(n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic orthonormal pair spanning the plane orthogonal to n."""
    khat = n / np.linalg.norm(n)
    axis = np.zeros(3)
    axis[int(np.argmin(np.abs(khat)))] = 1.0
    e1 = np.cross(axis, khat)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(khat, e1)
    return e1, e2


class DivFreeSpectralBasis:
    """Divergence-free vector family plus scalar family on the periodic box.

    Immutable after construction; every method is reentrant.  ``k_modes`` is
    the configured vector truncation level; the full tables (everything under
    the dealiasing cutoff) are kept so nested truncations share one ordering.
    """

    def __init__(self, box_size: float, grid_points: int, k_modes: int):
        if grid_points % 2 != 0:
            raise ResolutionError(f"grid_points must be even (got {grid_points})")
        if box_size <= 0:
            raise ResolutionError(f"box_size must be positive (got {box_size})")
        self.box_size = float(box_size)
        self.grid_points = int(grid_points)
        self.volume = self.box_size**3
        self.cutoff = (grid_points - 1) // 3
        if self.cutoff < 1:
            raise ResolutionError(
                f"insufficient resolution: grid_points={grid_points} leaves no "
                "modes under the dealiasing cutoff"
            )
        base = 2.0 * np.pi / self.box_size

        canon = _canonical_wavevectors(self.cutoff)
        n_vec_avail = 4 * len(canon)
        if k_modes > n_vec_avail:
            raise ResolutionError(
                f"insufficient resolution: {k_modes} vector modes requested but "
                f"only {n_vec_avail} available under the dealiasing cutoff "
                f"|n| <= {self.cutoff}"
            )
        if k_modes < 1:
            raise ResolutionError(f"k_modes must be at least 1 (got {k_modes})")
        self.k_modes = int(k_modes)

        # vector table: per canonical wavevector, (pol 0, cos), (pol 0, sin),
        # (pol 1, cos), (pol 1, sin)
        vec_n, vec_e, vec_phase = [], [], []
        for n in canon:
            e1, e2 = _polarization_pair(n.astype(float))
            for e in (e1, e2):
                for phase in (_PHASE_COS, _PHASE_SIN):
                    vec_n.append(n)
                    vec_e.append(e)
                    vec_phase.append(phase)
        self.vec_n = np.array(vec_n, dtype=int)
        self.vec_e = np.array(vec_e, dtype=float)
        self.vec_phase = np.array(vec_phase, dtype=np.uint8)
        self.vec_k = base * self.vec_n.astype(float)
        self.vec_k2 = np.sum(self.vec_k * self.vec_k, axis=1)
        self.vec_curl_e = np.cross(self.vec_k, self.vec_e)

        # scalar table: constant mode first
        scal_n = [np.zeros(3, dtype=int)]
        scal_phase = [_PHASE_CONST]
        for n in canon:
            for phase in (_PHASE_COS, _PHASE_SIN):
                scal_n.append(n)
                scal_phase.append(phase)
        self.scal_n = np.array(scal_n, dtype=int)
        self.scal_phase = np.array(scal_phase, dtype=np.uint8)
        self.scal_k = base * self.scal_n.astype(float)
        self.scal_k2 = np.sum(self.scal_k * self.scal_k, axis=1)

        self.n_vector_modes = len(self.vec_n)
        self.n_scalar_modes = len(self.scal_n)
        self._wavenumber_cache: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}

    # ------------------------------------------------------------------ grid

    def mesh(self, grid: int | None = None):
        """Coordinate arrays (x, y, z) of shape (G, G, G)."""
        g = grid or self.grid_points
        lin = np.linspace(0.0, self.box_size, g, endpoint=False)
        return np.meshgrid(lin, lin, lin, indexing="ij")

    def wavenumbers(self, grid: int | None = None):
        """Physical wavenumber arrays (kx, ky, kz) for FFT layout on G^3."""
        g = grid or self.grid_points
        if g not in self._wavenumber_cache:
            ints = np.fft.fftfreq(g, d=1.0 / g)
            base = 2.0 * np.pi / self.box_size
            kx = base * ints[:, None, None]
            ky = base * ints[None, :, None]
            kz = base * ints[None, None, :]
            self._wavenumber_cache[g] = (kx, ky, kz)
        return self._wavenumber_cache[g]

    def dealias_mask(self, grid: int | None = None) -> np.ndarray:
        """Boolean mask keeping |n| <= cutoff on a G^3 spectral array."""
        g = grid or self.grid_points
        ints = np.fft.fftfreq(g, d=1.0 / g)
        n2 = ints[:, None, None] ** 2 + ints[None, :, None] ** 2 + ints[None, None, :] ** 2
        return n2 <= self.cutoff * self.cutoff + 0.5

    def oversample_grid(self) -> int:
        """Grid used for non-polynomial pointwise evaluations (3/2 rule)."""
        g = (3 * self.grid_points) // 2
        return g + (g % 2)

    # ----------------------------------------------------- spectra transforms

    @staticmethod
    def grid_to_spectral(values: np.ndarray) -> np.ndarray:
        g = values.shape[-1]
        return np.fft.fftn(values, axes=(-3, -2, -1)) / g**3

    @staticmethod
    def spectral_to_grid(c: np.ndarray) -> np.ndarray:
        g = c.shape[-1]
        return np.real(np.fft.ifftn(c, axes=(-3, -2, -1))) * g**3

    def resample_spectrum(self, c: np.ndarray, grid_out: int) -> np.ndarray:
        """Pad or truncate an amplitude-normalized spectrum to another grid."""
        g_in = c.shape[-1]
        if g_in == grid_out:
            return c
        half = (min(g_in, grid_out) - 1) // 2
        rng = np.arange(-half, half + 1)
        nx, ny, nz = np.meshgrid(rng, rng, rng, indexing="ij")
        src = (nx % g_in, ny % g_in, nz % g_in)
        dst = (nx % grid_out, ny % grid_out, nz % grid_out)
        out = np.zeros(c.shape[:-3] + (grid_out,) * 3, dtype=complex)
        out[..., dst[0], dst[1], dst[2]] = c[..., src[0], src[1], src[2]]
        return out

    # ------------------------------------------------- derivative kernels
    #
    # Exact spectral derivatives of an amplitude-normalized spectrum; the
    # grid is read from the trailing axis.  Every derivative in the package
    # goes through these four.  ``grad`` and ``strain`` return one component
    # per call, so callers transform a tensor piece by piece instead of
    # holding its whole complex spectrum, which raises peak memory.

    def grad(self, c: np.ndarray, m: int) -> np.ndarray:
        """Spectrum of ``d_m c``, component by component for a vector ``c``."""
        return 1j * self.wavenumbers(c.shape[-1])[m] * c

    def div(self, c: np.ndarray) -> np.ndarray:
        """Divergence spectrum ``i k . c`` of a vector spectrum."""
        kx, ky, kz = self.wavenumbers(c.shape[-1])
        return 1j * (kx * c[0] + ky * c[1] + kz * c[2])

    def curl(self, c: np.ndarray) -> np.ndarray:
        """Curl spectrum ``i k x c`` of a vector spectrum."""
        kx, ky, kz = self.wavenumbers(c.shape[-1])
        return np.stack(
            [
                1j * (ky * c[2] - kz * c[1]),
                1j * (kz * c[0] - kx * c[2]),
                1j * (kx * c[1] - ky * c[0]),
            ]
        )

    def strain(self, c: np.ndarray, i: int, m: int) -> np.ndarray:
        """Spectrum of the rate-of-strain component ``d_m c_i + d_i c_m``."""
        ks = self.wavenumbers(c.shape[-1])
        return 1j * (ks[m] * c[i] + ks[i] * c[m])

    def _flat_indices(self, nvec: np.ndarray, grid: int) -> np.ndarray:
        g = grid
        return ((nvec[:, 0] % g) * g + nvec[:, 1] % g) * g + nvec[:, 2] % g

    # ------------------------------------------------------------- synthesis

    def _check_counts(self, m: int, scalar: bool) -> None:
        avail = self.n_scalar_modes if scalar else self.n_vector_modes
        if m > avail:
            kind = "scalar" if scalar else "vector"
            raise ResolutionError(
                f"insufficient resolution: {m} {kind} modes requested, {avail} available"
            )

    def synth_vector(self, coeffs: np.ndarray, grid: int | None = None) -> np.ndarray:
        """Spectrum (3, G, G, G) of ``sum_j coeffs[j] psi_j``."""
        g = grid or self.grid_points
        m = len(coeffs)
        self._check_counts(m, scalar=False)
        n, e, phase = self.vec_n[:m], self.vec_e[:m], self.vec_phase[:m]
        scale = 1.0 / np.sqrt(2.0 * self.volume)
        amp = coeffs * scale * np.where(phase == _PHASE_COS, 1.0 + 0.0j, -1.0j)
        idx_pos = self._flat_indices(n, g)
        idx_neg = self._flat_indices(-n, g)
        c = np.zeros((3, g, g, g), dtype=complex)
        for comp in range(3):
            flat = c[comp].reshape(-1)
            np.add.at(flat, idx_pos, amp * e[:, comp])
            np.add.at(flat, idx_neg, np.conj(amp) * e[:, comp])
        return c

    def synth_scalar(self, coeffs: np.ndarray, grid: int | None = None) -> np.ndarray:
        """Spectrum (G, G, G) of ``sum_j coeffs[j] omega_j``."""
        g = grid or self.grid_points
        m = len(coeffs)
        self._check_counts(m, scalar=True)
        n, phase = self.scal_n[:m], self.scal_phase[:m]
        c = np.zeros((g, g, g), dtype=complex)
        flat = c.reshape(-1)
        const = phase == _PHASE_CONST
        if np.any(const):
            c[0, 0, 0] += np.sum(coeffs[const]) / np.sqrt(self.volume)
        trig = ~const
        if np.any(trig):
            scale = 1.0 / np.sqrt(2.0 * self.volume)
            amp = np.where(phase[trig] == _PHASE_COS, 1.0, -1j) * coeffs[trig] * scale
            np.add.at(flat, self._flat_indices(n[trig], g), amp)
            np.add.at(flat, self._flat_indices(-n[trig], g), np.conj(amp))
        return c

    def vector_grid(self, coeffs: np.ndarray, grid: int | None = None) -> np.ndarray:
        return self.spectral_to_grid(self.synth_vector(coeffs, grid))

    def scalar_grid(self, coeffs: np.ndarray, grid: int | None = None) -> np.ndarray:
        return self.spectral_to_grid(self.synth_scalar(coeffs, grid))

    # --------------------------------------------------------------- gathers

    def _phase_select(self, phase, cos_vals, sin_vals):
        return np.where(phase == _PHASE_COS, cos_vals, sin_vals)

    def gather_vector(self, c: np.ndarray, count: int) -> np.ndarray:
        """Inner products (f, psi_j) for j < count from a vector spectrum."""
        g = c.shape[-1]
        n, e, phase = self.vec_n[:count], self.vec_e[:count], self.vec_phase[:count]
        idx = self._flat_indices(n, g)
        dot = sum(e[:, comp] * c[comp].reshape(-1)[idx] for comp in range(3))
        s = np.sqrt(2.0 * self.volume)
        return s * self._phase_select(phase, np.real(dot), -np.imag(dot))

    def gather_vector_curl(self, c: np.ndarray, count: int) -> np.ndarray:
        """Inner products (f, curl psi_j) for j < count."""
        g = c.shape[-1]
        n, ce, phase = self.vec_n[:count], self.vec_curl_e[:count], self.vec_phase[:count]
        idx = self._flat_indices(n, g)
        dot = sum(ce[:, comp] * c[comp].reshape(-1)[idx] for comp in range(3))
        s = np.sqrt(2.0 * self.volume)
        return s * self._phase_select(phase, np.imag(dot), np.real(dot))

    def gather_strain(self, c_tensor: np.ndarray, count: int) -> np.ndarray:
        """Inner products (S, D(psi_j)) for a symmetric tensor spectrum.

        ``c_tensor`` has shape (3, 3, G, G, G); the strain of a mode is
        ``grad + grad^T``, hence the factor 2 against the symmetric S.
        """
        g = c_tensor.shape[-1]
        n, e, phase = self.vec_n[:count], self.vec_e[:count], self.vec_phase[:count]
        k = self.vec_k[:count]
        idx = self._flat_indices(n, g)
        dot = np.zeros(count, dtype=complex)
        for i in range(3):
            for m in range(3):
                dot += e[:, i] * k[:, m] * c_tensor[i, m].reshape(-1)[idx]
        s = 2.0 * np.sqrt(2.0 * self.volume)
        return s * self._phase_select(phase, np.imag(dot), np.real(dot))

    def gather_scalar(self, c: np.ndarray, count: int) -> np.ndarray:
        """Inner products (f, omega_j) for j < count from a scalar spectrum."""
        g = c.shape[-1]
        n, phase = self.scal_n[:count], self.scal_phase[:count]
        idx = self._flat_indices(n, g)
        vals = c.reshape(-1)[idx]
        s = np.sqrt(2.0 * self.volume)
        out = s * self._phase_select(phase, np.real(vals), -np.imag(vals))
        const = phase == _PHASE_CONST
        out[const] = np.sqrt(self.volume) * np.real(vals[const])
        return out

    def gather_scalar_grad(self, c_vec: np.ndarray, count: int) -> np.ndarray:
        """Inner products (g, grad omega_j) for a vector spectrum g."""
        g = c_vec.shape[-1]
        n, phase = self.scal_n[:count], self.scal_phase[:count]
        k = self.scal_k[:count]
        idx = self._flat_indices(n, g)
        dot = sum(k[:, comp] * c_vec[comp].reshape(-1)[idx] for comp in range(3))
        s = np.sqrt(2.0 * self.volume)
        out = s * self._phase_select(phase, np.imag(dot), np.real(dot))
        out[phase == _PHASE_CONST] = 0.0
        return out

    def gather_amplitudes(self, c: np.ndarray, nvecs: np.ndarray) -> np.ndarray:
        """Raw complex amplitudes at integer wavevectors (used by mass assembly)."""
        g = c.shape[-1]
        return c.reshape(-1)[self._flat_indices(nvecs, g)]

    # ------------------------------------------------------------ projection

    def project_vector(self, values: np.ndarray, count: int | None = None) -> np.ndarray:
        """L2 projection of a grid vector field onto the first modes."""
        count = count or self.k_modes
        return self.gather_vector(self.grid_to_spectral(values), count)

    def project_scalar(self, values: np.ndarray, count: int) -> np.ndarray:
        return self.gather_scalar(self.grid_to_spectral(values), count)

    # -------------------------------------------------- analytic mode fields

    def vector_mode_grid(self, j: int, grid: int | None = None) -> np.ndarray:
        """Pointwise evaluation of psi_j on the grid (closed-form trig)."""
        g = grid or self.grid_points
        x, y, z = self.mesh(g)
        k = self.vec_k[j]
        phase = k[0] * x + k[1] * y + k[2] * z
        tr = np.cos(phase) if self.vec_phase[j] == _PHASE_COS else np.sin(phase)
        return np.sqrt(2.0 / self.volume) * self.vec_e[j][:, None, None, None] * tr


@dataclass
class Field:
    """A scalar or vector field in grid samples or spectral amplitudes.

    Spectral payloads are amplitude-normalized complex arrays; grid payloads
    are real.  Vector data carries a leading component axis of length 3.
    """

    kind: str
    representation: str
    data: np.ndarray
    box_size: float

    @property
    def grid_points(self) -> int:
        return self.data.shape[-1]

    @classmethod
    def from_grid(cls, values: np.ndarray, box_size: float) -> "Field":
        values = np.asarray(values, dtype=float)
        kind = "vector" if values.ndim == 4 else "scalar"
        return cls(kind, "grid", values, float(box_size))

    @classmethod
    def from_spectral(cls, c: np.ndarray, box_size: float) -> "Field":
        c = np.asarray(c, dtype=complex)
        kind = "vector" if c.ndim == 4 else "scalar"
        return cls(kind, "spectral", c, float(box_size))

    def to_spectral(self) -> "Field":
        if self.representation == "spectral":
            return self
        return Field(self.kind, "spectral", DivFreeSpectralBasis.grid_to_spectral(self.data), self.box_size)

    def to_grid(self) -> "Field":
        if self.representation == "grid":
            return self
        return Field(self.kind, "grid", DivFreeSpectralBasis.spectral_to_grid(self.data), self.box_size)

    def copy(self) -> "Field":
        return Field(self.kind, self.representation, self.data.copy(), self.box_size)

    # ------------------------------------------------------------- snapshots

    def save(self, prefix: str | Path) -> None:
        """Write ``<prefix>.bin`` (raw little-endian float64, x fastest) plus
        a JSON sidecar ``<prefix>.json`` describing the layout."""
        prefix = Path(prefix)
        complex_parts = self.representation == "spectral"
        arr = self.data
        if complex_parts:
            arr = np.stack([arr.real, arr.imag])
        # reorder the trailing (x, y, z) axes so x varies fastest on disk
        arr = np.moveaxis(arr, (-3, -2, -1), (-1, -2, -3))
        payload = np.ascontiguousarray(arr, dtype="<f8")
        prefix.with_suffix(".bin").write_bytes(payload.tobytes())
        header = {
            "schema": FIELD_SCHEMA_VERSION,
            "kind": self.kind,
            "representation": self.representation,
            "shape": list(self.data.shape),
            "box_size": self.box_size,
            "order": "x-fastest",
            "complex_parts": complex_parts,
            "mode_ordering_version": MODE_ORDERING_VERSION,
        }
        prefix.with_suffix(".json").write_text(json.dumps(header, indent=2, sort_keys=True))

    @classmethod
    def load(cls, prefix: str | Path) -> "Field":
        prefix = Path(prefix)
        header = json.loads(prefix.with_suffix(".json").read_text())
        if header["schema"] != FIELD_SCHEMA_VERSION:
            raise ValueError(f"unsupported field schema {header['schema']!r}")
        shape = tuple(header["shape"])
        disk_shape = ((2,) if header["complex_parts"] else ()) + shape
        disk_shape = disk_shape[:-3] + (disk_shape[-1], disk_shape[-2], disk_shape[-3])
        raw = np.frombuffer(prefix.with_suffix(".bin").read_bytes(), dtype="<f8")
        arr = raw.reshape(disk_shape)
        arr = np.moveaxis(arr, (-3, -2, -1), (-1, -2, -3))
        if header["complex_parts"]:
            data = arr[0] + 1j * arr[1]
        else:
            data = arr.copy()
        return cls(header["kind"], header["representation"], np.ascontiguousarray(data), header["box_size"])


# --------------------------------------------------------------- module API


def build_basis(box_size: float, grid_points: int, k_modes: int) -> DivFreeSpectralBasis:
    """Construct the orthonormal divergence-free and scalar mode families."""
    return DivFreeSpectralBasis(box_size, grid_points, k_modes)


def leray_project(basis: DivFreeSpectralBasis, v: Field) -> Field:
    """Divergence-free part of a periodic vector field; the mean is kept."""
    if v.kind != "vector":
        raise ValueError("leray_project expects a vector field")
    c = v.to_spectral().data
    kx, ky, kz = basis.wavenumbers(c.shape[-1])
    k2 = kx * kx + ky * ky + kz * kz
    # v - grad(lap^-1 div v), with the k = 0 mode left alone
    phi = basis.div(c) / np.where(k2 == 0.0, 1.0, k2)
    out = c + np.stack([basis.grad(phi, m) for m in range(3)])
    return Field("vector", "spectral", out, v.box_size)


def differentiate(basis: DivFreeSpectralBasis, f: Field, op: str) -> Field:
    """Exact spectral derivative: ``grad`` (scalar), ``div``/``curl`` (vector)."""
    kinds = {"grad": ("scalar", "vector"), "div": ("vector", "scalar"), "curl": ("vector", "vector")}
    if op not in kinds:
        raise ValueError(f"unknown derivative op {op!r}")
    kind_in, kind_out = kinds[op]
    if f.kind != kind_in:
        raise ValueError(f"{op} expects a {kind_in} field")
    c = f.to_spectral().data
    if op == "grad":
        out = np.stack([basis.grad(c, m) for m in range(3)])
    else:
        out = getattr(basis, op)(c)
    return Field(kind_out, "spectral", out, f.box_size)


def inner_product(basis: DivFreeSpectralBasis, f: Field, g: Field) -> float:
    """Quadrature value of the L2 pairing on the common uniform grid."""
    if f.grid_points != g.grid_points:
        raise ValueError(
            f"resolution mismatch: {f.grid_points} vs {g.grid_points} grid points"
        )
    if f.kind != g.kind:
        raise ValueError(f"rank mismatch: {f.kind} vs {g.kind}")
    fv = f.to_grid().data
    gv = g.to_grid().data
    w = basis.volume / f.grid_points**3
    return float(w * np.sum(fv * gv))


def dealias(basis: DivFreeSpectralBasis, f: Field) -> Field:
    """Zero every coefficient above the basis cutoff; idempotent."""
    c = f.to_spectral().data.copy()
    mask = basis.dealias_mask(c.shape[-1])
    c *= mask
    return Field(f.kind, "spectral", c, f.box_size)
