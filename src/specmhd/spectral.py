"""Periodic-box spectral spaces.

This module is the only one that knows the mode family: its ordering, the
half-spectrum layout and the phase convention.  Real trigonometric modes on
``[0, L)^3``:

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

Every field is real, so a spectrum stores only the x-half of the amplitudes:
``c = rfftn(values) / G**3`` over the trailing (x, y, z) axes, with x halved,
has shape ``(..., G // 2 + 1, G, G)``.  Entry ``c[nx, ny % G, nz % G]`` is the
amplitude at the wavevector ``(nx, ny, nz)`` with ``0 <= nx <= G // 2``; the
amplitude at ``-n`` is its conjugate and is not stored, except in the plane
``nx = 0``, which holds both members of each pair.  Every canonical
wavevector has ``nx >= 0``, so the mode tables index the half array
directly, and the trailing axis keeps the grid size G.  Amplitude
normalization gives a band-limited field grid-size-independent coefficients,
and resampling between grids is a pure pad/truncate.  All wavevectors live
strictly inside the two-thirds dealiasing cutoff ``(N - 1) // 3``, which
makes uniform-grid quadrature of products of up to three basis-band fields
exact.

The phase rule: ``cos(k.x)`` has amplitude ``1/2`` at ``k`` and ``sin(k.x)``
has ``-i/2``, so the inner product of a field with a cosine mode reads the
real part of the field's amplitude at ``k`` and with a sine mode minus its
imaginary part.  A test function carrying a derivative has an extra factor
``i k``, which swaps the two: cosine reads the imaginary part, sine the real
part.  Synthesis (``_synth``) and projection (``_gather``) are the two
kernels that apply it.  The two Gram matrices, ``vector_gram`` and
``scalar_gram``, give ``(w phi_i, phi_j)`` for a weight ``w`` from its
spectrum; with the density or ``rho c(theta)`` as the weight they are the
Galerkin mass matrices.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from specmhd.constitutive import SYM_PAIRS, SYM_WEIGHTS
from specmhd.errors import ResolutionError

MODE_ORDERING_VERSION = "1"
FIELD_SCHEMA_VERSION = "field-v2"

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


def dealias_cutoff(grid_points: int) -> int:
    """Largest retained integer wavenumber |n| on a G^3 grid (two-thirds rule)."""
    return (grid_points - 1) // 3


@lru_cache
def available_modes(grid_points: int) -> tuple[int, int]:
    """(vector, scalar) mode counts under the dealiasing cutoff."""
    n_canon = len(_canonical_wavevectors(dealias_cutoff(grid_points)))
    return 4 * n_canon, 2 * n_canon + 1


def resolution_problems(
    box_size: float, grid_points: int, vector: dict | None = None, scalar: dict | None = None
) -> list[str]:
    """Every reason the box, the grid and the requested mode counts cannot
    make a basis (empty when they can).  ``vector`` and ``scalar`` map a
    name to the number of modes of that kind it asks for; each must be at
    least 1 and fit under the dealiasing cutoff."""
    bad = [] if box_size > 0 else [f"box_size must be positive (got {box_size})"]
    if grid_points < 4 or grid_points % 2 != 0:
        return bad + [f"grid_points must be an even integer >= 4 (got {grid_points})"]
    n_vec, n_scal = available_modes(grid_points)
    for kind, counts, avail in (("vector", vector or {}, n_vec), ("scalar", scalar or {}, n_scal)):
        for name, want in counts.items():
            if want < 1:
                bad.append(f"{name} must be at least 1 (got {want})")
            elif want > avail:
                bad.append(
                    f"insufficient resolution: {name} asks for {want} {kind} modes but only "
                    f"{avail} fit under the dealiasing cutoff |n| <= "
                    f"{dealias_cutoff(grid_points)} at grid_points={grid_points}"
                )
    return bad


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
        bad = resolution_problems(box_size, grid_points, vector={"k_modes": k_modes})
        if bad:
            raise ResolutionError("\n".join(bad))
        self.box_size = float(box_size)
        self.grid_points = int(grid_points)
        self.volume = self.box_size**3
        self.cutoff = dealias_cutoff(grid_points)
        self.k_modes = int(k_modes)
        base = 2.0 * np.pi / self.box_size

        # vector table: per canonical wavevector, (pol 0, cos), (pol 0, sin),
        # (pol 1, cos), (pol 1, sin)
        canon = _canonical_wavevectors(self.cutoff)
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

        self.n_vector_modes = len(self.vec_n)
        self.n_scalar_modes = len(self.scal_n)
        self._wavenumber_cache: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        self._half_index_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    # ------------------------------------------------------------------ grid

    def mesh(self, grid: int | None = None):
        """Coordinate arrays (x, y, z) of shape (G, G, G)."""
        g = grid or self.grid_points
        lin = np.linspace(0.0, self.box_size, g, endpoint=False)
        return np.meshgrid(lin, lin, lin, indexing="ij")

    @staticmethod
    def _integer_wavenumbers(g: int):
        """Integer wavenumbers (nx, ny, nz) broadcasting to the half layout."""
        ints = np.fft.fftfreq(g, d=1.0 / g)
        return np.arange(g // 2 + 1.0)[:, None, None], ints[None, :, None], ints[None, None, :]

    def wavenumbers(self, grid: int | None = None):
        """Physical wavenumber arrays (kx, ky, kz) for the half layout on G^3."""
        g = grid or self.grid_points
        if g not in self._wavenumber_cache:
            base = 2.0 * np.pi / self.box_size
            self._wavenumber_cache[g] = tuple(base * n for n in self._integer_wavenumbers(g))
        return self._wavenumber_cache[g]

    def dealias_mask(self, grid: int | None = None) -> np.ndarray:
        """Boolean mask keeping |n| <= cutoff on a half-layout spectrum."""
        nx, ny, nz = self._integer_wavenumbers(grid or self.grid_points)
        return nx**2 + ny**2 + nz**2 <= self.cutoff * self.cutoff + 0.5

    def oversample_grid(self) -> int:
        """Grid used for non-polynomial pointwise evaluations (3/2 rule)."""
        g = (3 * self.grid_points) // 2
        return g + (g % 2)

    # ----------------------------------------------------- spectra transforms

    def zero_spectrum(self, lead: tuple = (), grid: int | None = None) -> np.ndarray:
        """All-zero spectrum of shape ``lead + (G // 2 + 1, G, G)``."""
        g = grid or self.grid_points
        return np.zeros(tuple(lead) + (g // 2 + 1, g, g), dtype=complex)

    @staticmethod
    def set_amplitude(c: np.ndarray, n, amp: complex) -> None:
        """Give the real field of spectrum ``c`` the amplitude ``amp`` at the
        integer wavevector ``n``, and so ``conj(amp)`` at ``-n``; whichever
        of the two entries the half layout stores is written."""
        g = c.shape[-1]
        n = np.asarray(n)
        for m, a in ((n, amp), (-n, np.conj(amp))):
            if m[0] % g <= g // 2:
                c[..., m[0] % g, m[1] % g, m[2] % g] = a

    @staticmethod
    def grid_to_spectral(values: np.ndarray) -> np.ndarray:
        g = values.shape[-1]
        return np.fft.rfftn(values, axes=(-1, -2, -3)) / g**3

    @staticmethod
    def spectral_to_grid(c: np.ndarray) -> np.ndarray:
        g = c.shape[-1]
        return np.fft.irfftn(c, s=(g, g, g), axes=(-1, -2, -3)) * g**3

    @staticmethod
    def sum_sq(c: np.ndarray) -> float:
        """Sum of ``|c_n|^2`` over the whole spectrum (Parseval).

        The half layout stores each interior x-plane once for itself and its
        conjugate plane, so those count twice; the planes ``nx = 0`` and
        ``nx = G / 2`` are their own conjugates.
        """
        sq = np.abs(c) ** 2
        return float(np.sum(sq) + np.sum(sq[..., 1 : c.shape[-1] // 2, :, :]))

    def resample_spectrum(self, c: np.ndarray, grid_out: int) -> np.ndarray:
        """Pad or truncate an amplitude-normalized spectrum to another grid."""
        g_in = c.shape[-1]
        if g_in == grid_out:
            return c
        half = (min(g_in, grid_out) - 1) // 2
        rng = np.arange(-half, half + 1)
        nx, ny, nz = np.meshgrid(np.arange(half + 1), rng, rng, indexing="ij")
        out = self.zero_spectrum(c.shape[:-3], grid_out)
        out[..., nx, ny % grid_out, nz % grid_out] = c[..., nx, ny % g_in, nz % g_in]
        return out

    # ------------------------------------------------- derivative kernels
    #
    # Exact spectral derivatives of an amplitude-normalized spectrum; the
    # grid is read from the trailing axis.  Every derivative in the package
    # goes through these four.  ``grad`` and ``strain`` return one component
    # per call.

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

    def _synth(self, n, phase, coeffs, weights, out: np.ndarray) -> np.ndarray:
        """Add ``sum_j coeffs[j]`` times the mode at ``n[j]`` with ``phase[j]``
        and component weights ``weights[j, p]`` to the spectrum ``out``: its
        amplitude at ``+n[j]``, plus the conjugate partner at ``-n[j]``, which
        the half layout stores only in the plane nx = 0."""
        scale = 1.0 / np.sqrt(2.0 * self.volume)
        amp = coeffs * scale * np.where(phase == _PHASE_COS, 1.0 + 0.0j, -1.0j)
        g = out.shape[-1]
        plane = n[:, 0] == 0
        idx_pos = self._flat_indices(n, g)
        idx_neg = self._flat_indices(-n[plane], g)
        for p in range(weights.shape[1]):
            flat = out[p].reshape(-1)
            amp_p = amp * weights[:, p]
            np.add.at(flat, idx_pos, amp_p)
            np.add.at(flat, idx_neg, np.conj(amp_p[plane]))
        return out

    def synth_vector(self, coeffs: np.ndarray, grid: int | None = None) -> np.ndarray:
        """Spectrum (3, G // 2 + 1, G, G) of ``sum_j coeffs[j] psi_j``."""
        m = len(coeffs)
        self._check_counts(m, scalar=False)
        out = self.zero_spectrum((3,), grid or self.grid_points)
        return self._synth(self.vec_n[:m], self.vec_phase[:m], coeffs, self.vec_e[:m], out)

    def synth_scalar(self, coeffs: np.ndarray, grid: int | None = None) -> np.ndarray:
        """Spectrum (G // 2 + 1, G, G) of ``sum_j coeffs[j] omega_j``."""
        m = len(coeffs)
        self._check_counts(m, scalar=True)
        c = self.zero_spectrum((), grid or self.grid_points)
        # mode 0 is the constant
        c[0, 0, 0] = np.sum(coeffs[:1]) / np.sqrt(self.volume)
        trig = coeffs[1:]
        self._synth(self.scal_n[1:m], self.scal_phase[1:m], trig, np.ones((len(trig), 1)), c[None])
        return c

    def vector_grid(self, coeffs: np.ndarray, grid: int | None = None) -> np.ndarray:
        return self.spectral_to_grid(self.synth_vector(coeffs, grid))

    def scalar_grid(self, coeffs: np.ndarray, grid: int | None = None) -> np.ndarray:
        return self.spectral_to_grid(self.synth_scalar(coeffs, grid))

    # --------------------------------------------------------------- gathers

    @staticmethod
    def _by_phase(phase: np.ndarray, dot: np.ndarray, derivative: bool = False) -> np.ndarray:
        """The phase rule of the module docstring, unscaled."""
        if derivative:
            return np.where(phase == _PHASE_COS, dot.imag, dot.real)
        return np.where(phase == _PHASE_COS, dot.real, -dot.imag)

    def _gather(self, c, n, phase, weights, derivative: bool) -> np.ndarray:
        """Inner products of the field with spectrum ``c`` and the test
        functions whose amplitude at ``n[j]`` is ``weights[j, p]`` in
        component ``p`` times the mode's own; ``derivative`` marks test
        functions with an ``i k`` factor."""
        idx = self._flat_indices(n, c.shape[-1])
        dot = sum(weights[:, p] * c[p].reshape(-1)[idx] for p in range(weights.shape[1]))
        return np.sqrt(2.0 * self.volume) * self._by_phase(phase, dot, derivative)

    def gather_vector(self, c: np.ndarray, count: int) -> np.ndarray:
        """Inner products (f, psi_j) for j < count from a vector spectrum."""
        return self._gather(c, self.vec_n[:count], self.vec_phase[:count], self.vec_e[:count], False)

    def gather_vector_curl(self, c: np.ndarray, count: int) -> np.ndarray:
        """Inner products (f, curl psi_j) for j < count."""
        return self._gather(c, self.vec_n[:count], self.vec_phase[:count], self.vec_curl_e[:count], True)

    def gather_strain(self, c_sym: np.ndarray, count: int) -> np.ndarray:
        """Inner products (S, D(psi_j)) for a symmetric tensor spectrum.

        ``c_sym`` stacks the spectra of the six components of S along its
        leading axis, the symmetric-tensor layout of
        :mod:`specmhd.constitutive`.  The strain of a mode is ``grad +
        grad^T``, symmetric like S, so each component enters with its
        ``SYM_WEIGHTS`` multiplicity.
        """
        e, k = self.vec_e[:count], self.vec_k[:count]
        weights = np.stack(
            [wt * (e[:, i] * k[:, m] + e[:, m] * k[:, i]) for (i, m), wt in zip(SYM_PAIRS, SYM_WEIGHTS)],
            axis=1,
        )
        return self._gather(c_sym, self.vec_n[:count], self.vec_phase[:count], weights, True)

    def gather_scalar(self, c: np.ndarray, count: int) -> np.ndarray:
        """Inner products (f, omega_j) for j < count from a scalar spectrum."""
        phase = self.scal_phase[:count]
        out = self._gather(c[None], self.scal_n[:count], phase, np.ones((count, 1)), False)
        out[phase == _PHASE_CONST] = np.sqrt(self.volume) * c[0, 0, 0].real
        return out

    def gather_scalar_grad(self, c_vec: np.ndarray, count: int) -> np.ndarray:
        """Inner products (g, grad omega_j) for a vector spectrum g."""
        phase = self.scal_phase[:count]
        out = self._gather(c_vec, self.scal_n[:count], phase, self.scal_k[:count], True)
        out[phase == _PHASE_CONST] = 0.0
        return out

    def _half_index(self, g: int) -> tuple[np.ndarray, np.ndarray]:
        """For each flat index of a full G^3 spectrum: the flat index of the
        stored entry in the half layout, and whether that entry is the
        conjugate (the wavevector's negative)."""
        if g not in self._half_index_cache:
            n = np.indices((g, g, g)).reshape(3, -1)
            flip = n[0] > g // 2
            n[:, flip] = -n[:, flip]
            self._half_index_cache[g] = (self._flat_indices(n.T, g), flip)
        return self._half_index_cache[g]

    def gather_amplitudes(self, c: np.ndarray, nvecs: np.ndarray) -> np.ndarray:
        """Raw complex amplitudes at integer wavevectors (used by mass assembly).

        Components alias modulo G; a wavevector whose x-component is not
        stored reads the conjugate amplitude at its negative.
        """
        index, flip = self._half_index(c.shape[-1])
        full = self._flat_indices(nvecs, c.shape[-1])
        vals = c.reshape(-1)[index[full]]
        return np.where(flip[full], np.conj(vals), vals)

    # --------------------------------------------------------- Gram matrices

    def _phase_blocks(self, c_w, group_n):
        """Entries (w mode_i, mode_j) on the distinct wavevector pairs.

        Products of two real trig modes reduce to weight amplitudes at the
        difference and sum wavevectors, so the four phase combinations of one
        pair of wavevectors share two lookups.  ``out[g, p, h, q]`` is the
        entry for wavevectors ``group_n[g]``, ``group_n[h]`` and phases ``p``,
        ``q`` (0 cos, 1 sin), before any polarization factor.
        """
        g = len(group_n)
        # (3, g, g) component planes, passed as a (g*g, 3) view: each component
        # stays contiguous for the index arithmetic
        n_i, n_j = group_n.T[:, :, None], group_n.T[:, None, :]
        cd = self.gather_amplitudes(c_w, (n_i - n_j).reshape(3, -1).T).reshape(g, g)
        cs = self.gather_amplitudes(c_w, (n_i + n_j).reshape(3, -1).T).reshape(g, g)
        out = np.empty((g, 2, g, 2))
        out[:, 0, :, 0] = cd.real + cs.real
        out[:, 1, :, 1] = cd.real - cs.real
        out[:, 1, :, 0] = -cd.imag - cs.imag
        out[:, 0, :, 1] = cd.imag - cs.imag
        return out

    def vector_gram(self, c_w: np.ndarray, count: int) -> np.ndarray:
        """Gram matrix (w psi_i, psi_j), i, j < count, of the weight with
        spectrum ``c_w`` on the base grid; exact quadrature."""
        # mode 4g + 2a + p has wavevector g, polarization vec_e[4g + 2a] and
        # phase p: entry (4g + 2a + p, 4h + 2s + q) is the phase block
        # (g, p, h, q) times the polarization product (g, a, h, s).  Sixteen
        # strided g x g products run faster than one broadcast over length-2
        # axes.
        g = -(-count // 4)
        blocks = self._phase_blocks(c_w, self.vec_n[: 4 * g : 4])
        e = self.vec_e[: 4 * g : 2]
        pol = (e @ e.T).reshape(g, 2, g, 2)
        mat = np.empty((g, 2, 2, g, 2, 2))
        for a, p, s, q in np.ndindex(2, 2, 2, 2):
            np.multiply(blocks[:, p, :, q], pol[:, a, :, s], out=mat[:, a, p, :, s, q])
        mat = mat.reshape(4 * g, 4 * g)[:count, :count]
        return 0.5 * (mat + mat.T)

    def scalar_gram(self, c_w: np.ndarray, count: int) -> np.ndarray:
        """Gram matrix (w omega_i, omega_j), i, j < count, constant mode
        included, of the weight with spectrum ``c_w``."""
        # mode 0 is the constant; mode 1 + 2g + phase has wavevector g
        g = count // 2
        blocks = self._phase_blocks(c_w, self.scal_n[1 : 1 + 2 * g : 2])
        mat = np.empty((count, count))
        mat[1:, 1:] = blocks.reshape(2 * g, 2 * g)[: count - 1, : count - 1]
        # constant-mode row and column: omega_0 = 1/sqrt(V)
        amps = self.gather_amplitudes(c_w, self.scal_n[:count])
        row = np.sqrt(2.0) * self._by_phase(self.scal_phase[:count], amps)
        row[0] = amps[0].real
        mat[0, :] = row
        mat[:, 0] = row
        return 0.5 * (mat + mat.T)

    # ------------------------------------------------------------ projection

    def project_vector(self, values: np.ndarray, count: int | None = None) -> np.ndarray:
        """L2 projection of a grid vector field onto the first modes."""
        count = count or self.k_modes
        return self.gather_vector(self.grid_to_spectral(values), count)


@dataclass
class Field:
    """One snapshot record: a scalar or vector field as grid samples or
    spectral amplitudes, written by :meth:`save` and read by :meth:`load`.

    Grid payloads are real with trailing shape (G, G, G).  Spectral payloads
    are amplitude-normalized complex x-half spectra with trailing shape
    (G // 2 + 1, G, G), as the module docstring describes.  Vector data
    carries a leading component axis of length 3.  The solver itself holds
    bare arrays; transforms are :meth:`DivFreeSpectralBasis.grid_to_spectral`
    and :meth:`DivFreeSpectralBasis.spectral_to_grid`.
    """

    kind: str
    representation: str
    data: np.ndarray
    box_size: float

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
