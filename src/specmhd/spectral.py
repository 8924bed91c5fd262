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
versioned because coefficient vectors depend on it.  The mode
tables are whole-array expressions over all canonical wavevectors; the row
norms (``_row_norms``) are chosen to keep the bits of ordering version 1.

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

A cube is the half layout on an odd grid ``2k + 1``: shape
``(k + 1, 2k + 1, 2k + 1)``.  Every wavevector with ``|n_i| <= k`` wraps to
its own entry modulo ``2k + 1``, so synthesis, gathers, derivatives and
``wavenumbers`` work on a cube unchanged.
``grid_to_spectral(values, size=s)`` computes only the cube of size ``s``,
and ``spectral_to_grid(cube, grid=G)`` expands one onto ``G^3``; both run the
1-D passes of the full transform in its order, skipping the lines that hold
only discarded outputs or zero inputs (a pruned FFT), so every value they
return is bitwise that of the full transform.  Three sizes are in use, each
the smallest that holds what its caller reads or writes:

* the truncation cube (``truncation_band``) of a run's first ``count``
  vector or scalar modes, with k their largest ``|n_i|``: a field
  synthesized from a coefficient vector is zero outside it, and a gather
  onto those modes reads nothing outside it.  Every velocity, magnetic and
  temperature realization starts from one, and every right-hand side and
  matrix-free mass action takes its integrand to the one of the family it
  gathers;
* the band cube ``band`` = ``2K + 1``, with K the cutoff, for the density,
  whose coefficients span the whole scalar table: every realization of it
  and of its rate, its rate's forward, the weight of the dense velocity
  Gram and of the constant-heat thermal Gram, and ``project_vector``,
  whose count can reach the cutoff;
* the full spectrum for a caller that reads outside the band: the
  temperature Sobolev monitor of ``energy_report``, which sums the whole
  spectrum of a non-polynomial field, and the harness checks, snapshots
  and initial conditions, which judge or write the fields on their grids.

A Gram matrix reads its weight at sums and differences of its modes'
wavevectors, per axis up to twice their reach r; its weight is a cube, the
band cube (zero outside) or a forward cube of size ``4r + 1``.

The phase rule: ``cos(k.x)`` has amplitude ``1/2`` at ``k`` and ``sin(k.x)``
has ``-i/2``, so the inner product of a field with a cosine mode reads the
real part of the field's amplitude at ``k`` and with a sine mode minus its
imaginary part.  A test function carrying a derivative has an extra factor
``i k``, which swaps the two: cosine reads the imaginary part, sine the real
part.  Synthesis (``_synth``) and projection (``_gather``) are the two
kernels that apply it.  The two Gram matrices, ``vector_gram`` and
``scalar_gram``, give ``(w phi_i, phi_j)`` for a weight ``w`` from its
cube; with the density or ``rho c(theta)`` as the weight they are the
Galerkin mass matrices.
"""

from __future__ import annotations

from functools import cached_property, lru_cache

import numpy as np

from specmhd.constitutive import SYM_PAIRS, SYM_WEIGHTS
from specmhd.errors import ResolutionError

MODE_ORDERING_VERSION = "1"

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


@lru_cache
def _band_lines(size: int, grid: int) -> np.ndarray:
    """Indices on a ``grid`` axis of the wavenumbers of a band of odd
    ``size``, in the band's own order: 0..K, then -K..-1 modulo ``grid``.
    Cached, because building it costs as much as a small transform pass;
    callers only index with it."""
    k = size // 2
    return np.r_[: k + 1, grid - k : grid]


def _row_norms(v: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of v, as a column.  Written as a batched
    matmul because that rounds like ``np.linalg.norm`` of each row alone;
    ``norm(axis=1)``, ``einsum`` and ``sum`` move some entries by 1 ulp."""
    return np.sqrt(v[:, None, :] @ v[:, :, None])[:, 0]


def _polarization_pairs(n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic orthonormal pairs (e1, e2), row j spanning the plane
    orthogonal to the wavevector n[j]."""
    khat = n / _row_norms(n)
    axis = np.zeros_like(khat)
    axis[np.arange(len(n)), np.argmin(np.abs(khat), axis=1)] = 1.0
    e1 = np.cross(axis, khat)
    e1 /= _row_norms(e1)
    return e1, np.cross(khat, e1)


class DivFreeSpectralBasis:
    """Divergence-free vector family plus scalar family on the periodic box.

    Immutable after construction; every method is reentrant.  It depends
    only on the box and the grid: the tables hold every mode under the
    dealiasing cutoff, and a truncation is the leading slice of them (the
    length of a coefficient vector), so nested truncations share one
    ordering.
    """

    def __init__(self, box_size: float, grid_points: int):
        bad = resolution_problems(box_size, grid_points)
        if bad:
            raise ResolutionError("\n".join(bad))
        self.box_size = float(box_size)
        self.grid_points = int(grid_points)
        self.volume = self.box_size**3
        self.cutoff = dealias_cutoff(grid_points)
        self.band = 2 * self.cutoff + 1
        base = 2.0 * np.pi / self.box_size

        # vector table: per canonical wavevector, (pol 0, cos), (pol 0, sin),
        # (pol 1, cos), (pol 1, sin); scalar table: the constant mode, then
        # per canonical wavevector (cos, sin)
        canon = _canonical_wavevectors(self.cutoff)
        pairs = np.stack(_polarization_pairs(canon.astype(float)), axis=1)
        cos_sin = np.array([_PHASE_COS, _PHASE_SIN], dtype=np.uint8)
        self.vec_n = np.repeat(canon, 4, axis=0)
        self.vec_e = np.repeat(pairs, 2, axis=1).reshape(-1, 3)
        self.vec_phase = np.tile(cos_sin, 2 * len(canon))
        self.vec_k = base * self.vec_n.astype(float)
        self.vec_k2 = np.sum(self.vec_k * self.vec_k, axis=1)
        self.vec_curl_e = np.cross(self.vec_k, self.vec_e)
        self.scal_n = np.insert(np.repeat(canon, 2, axis=0), 0, 0, axis=0)
        self.scal_phase = np.insert(np.tile(cos_sin, len(canon)), 0, _PHASE_CONST)
        self.scal_k = base * self.scal_n.astype(float)
        self.scal_k2 = np.sum(self.scal_k * self.scal_k, axis=1)

        self.n_vector_modes = len(self.vec_n)
        self.n_scalar_modes = len(self.scal_n)
        self._wavenumber_cache: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}

    # ------------------------------------------------------------------ grid

    def mesh(self):
        """Coordinate arrays (x, y, z) of shape (G, G, G)."""
        lin = np.linspace(0.0, self.box_size, self.grid_points, endpoint=False)
        return np.meshgrid(lin, lin, lin, indexing="ij")

    @staticmethod
    def _integer_wavenumbers(g: int):
        """Integer wavenumbers (nx, ny, nz) broadcasting to the half layout.
        Rounded, since for g = 49 and 98 ``fftfreq`` returns n (1 - 2^-53):
        a cube and the full grid must give the same derivatives."""
        ints = np.rint(np.fft.fftfreq(g, d=1.0 / g))
        return np.arange(g // 2 + 1.0)[:, None, None], ints[None, :, None], ints[None, None, :]

    def wavenumbers(self, grid: int):
        """Physical wavenumber arrays (kx, ky, kz) for the half layout on G^3."""
        if grid not in self._wavenumber_cache:
            base = 2.0 * np.pi / self.box_size
            self._wavenumber_cache[grid] = tuple(base * n for n in self._integer_wavenumbers(grid))
        return self._wavenumber_cache[grid]

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
    def grid_to_spectral(values: np.ndarray, *, size: int | None = None) -> np.ndarray:
        """Spectrum of grid values on their own grid, or, with ``size`` an
        odd cube size ``2k + 1``, only its cube: the entries with
        ``|n_i| <= k``, bitwise equal to those of the full spectrum."""
        g = values.shape[-1]
        if size is None or size == g:
            return np.fft.rfftn(values, axes=(-1, -2, -3)) / g**3
        # rfftn's passes in its order (x, y, then z), each run only on the
        # lines whose output the cube keeps
        keep = _band_lines(size, g)
        c = np.fft.rfft(values, axis=-3)[..., : size // 2 + 1, :, :]
        c = np.fft.fft(c, axis=-2).take(keep, axis=-2)
        c = np.fft.fft(c, axis=-1).take(keep, axis=-1)
        c /= g**3
        return c

    @staticmethod
    def spectral_to_grid(c: np.ndarray, *, grid: int | None = None) -> np.ndarray:
        """Grid values of a spectrum on its own grid, or of a cube on
        ``grid``^3, bitwise equal to those of the cube padded to ``grid``."""
        g = c.shape[-1]
        if grid is None or grid == g:
            return np.fft.irfftn(c, s=(g, g, g), axes=(-1, -2, -3)) * g**3
        # irfftn's passes in its order (z, y, then x), the z and y passes run
        # only on the lines that hold cube entries; y keeps all G // 2 + 1
        # x-planes, since irfft pads missing planes itself but more slowly
        # (1.7x at 48^3, numpy 2.4)
        k = g // 2
        keep = _band_lines(g, grid)
        z = np.zeros(c.shape[:-3] + (k + 1, g, grid), dtype=complex)
        z[..., keep] = c
        y = np.zeros(c.shape[:-3] + (grid // 2 + 1, grid, grid), dtype=complex)
        y[..., : k + 1, keep, :] = np.fft.ifft(z, axis=-1)
        y[..., : k + 1, :, :] = np.fft.ifft(y[..., : k + 1, :, :], axis=-2)
        out = np.fft.irfft(y, n=grid, axis=-3)
        out *= grid**3
        return out

    @staticmethod
    def sum_sq(c: np.ndarray) -> float:
        """Sum of ``|c_n|^2`` over the whole spectrum (Parseval).

        The half layout stores each x-plane ``0 < nx < G / 2`` once for
        itself and its conjugate plane, so those count twice; the planes
        ``nx = 0`` and, for even G, ``nx = G / 2`` are their own conjugates.
        """
        sq = np.abs(c) ** 2
        return float(np.sum(sq) + np.sum(sq[..., 1 : (c.shape[-1] + 1) // 2, :, :]))

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
    # per call; ``grid_gradient`` realizes a whole gradient on the grid.

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

    def grid_gradient(self, c: np.ndarray, grid: int | None = None) -> np.ndarray:
        """Grid values ``out[..., m, :, :, :] = d_m c`` of the gradient of a
        spectrum, component by component for a vector ``c``, on its own grid
        or, for a cube, on ``grid``^3; one direction is transformed at a
        time."""
        g = grid or c.shape[-1]
        out = np.empty(c.shape[:-3] + (3, g, g, g))
        for m in range(3):
            out[..., m, :, :, :] = self.spectral_to_grid(self.grad(c, m), grid=g)
        return out

    def _flat_indices(self, nvec: np.ndarray, grid: int) -> np.ndarray:
        g = grid
        return ((nvec[:, 0] % g) * g + nvec[:, 1] % g) * g + nvec[:, 2] % g

    @cached_property
    def _mode_index_cache(self) -> dict:
        """Filled by :meth:`_mode_indices`, on first use, not at set-up."""
        return {}

    def _mode_indices(self, scalar: bool, grid: int, count: int) -> tuple[np.ndarray, np.ndarray]:
        """Flat indices on a half layout of size ``grid`` of the wavevectors
        of the first ``count`` vector or scalar modes, and of their
        negatives.  Cached per (table, grid), grown to the largest count
        asked for, and sliced by ``count``."""
        key = (scalar, grid)
        cached = self._mode_index_cache.get(key)
        if cached is None or len(cached[0]) < count:
            n = (self.scal_n if scalar else self.vec_n)[:count]
            cached = self._mode_index_cache[key] = (self._flat_indices(n, grid), self._flat_indices(-n, grid))
        return cached[0][:count], cached[1][:count]

    @cached_property
    def _reach(self) -> tuple[np.ndarray, np.ndarray]:
        """(vector, scalar): entry j is the largest ``|n_i|`` over the first
        j + 1 modes of the table."""
        return tuple(np.maximum.accumulate(np.abs(n).max(axis=1)) for n in (self.vec_n, self.scal_n))

    def truncation_band(self, count: int, scalar: bool) -> int:
        """Size ``2k + 1`` of the smallest cube that holds the first
        ``count`` vector or scalar modes, k their largest ``|n_i|``."""
        return 2 * int(self._reach[scalar][count - 1]) + 1

    # ------------------------------------------------------------- synthesis

    def _check_counts(self, m: int, scalar: bool) -> None:
        avail = self.n_scalar_modes if scalar else self.n_vector_modes
        if m > avail:
            kind = "scalar" if scalar else "vector"
            raise ResolutionError(
                f"insufficient resolution: {m} {kind} modes requested, {avail} available"
            )

    def _synth(self, scalar: bool, start: int, coeffs, weights, out: np.ndarray) -> np.ndarray:
        """Add ``sum_j coeffs[j]`` times mode ``start + j`` of the vector or
        scalar table, with component weights ``weights[j, p]``, to the
        spectrum ``out``: its amplitude at ``+n``, plus the conjugate partner
        at ``-n``, which the half layout stores only in the plane nx = 0."""
        modes = slice(start, start + len(coeffs))
        n = (self.scal_n if scalar else self.vec_n)[modes]
        phase = (self.scal_phase if scalar else self.vec_phase)[modes]
        scale = 1.0 / np.sqrt(2.0 * self.volume)
        amp = coeffs * scale * np.where(phase == _PHASE_COS, 1.0 + 0.0j, -1.0j)
        plane = n[:, 0] == 0
        pos, neg = self._mode_indices(scalar, out.shape[-1], modes.stop)
        idx_pos, idx_neg = pos[modes], neg[modes][plane]
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
        return self._synth(False, 0, coeffs, self.vec_e[:m], out)

    def synth_scalar(self, coeffs: np.ndarray, grid: int | None = None) -> np.ndarray:
        """Spectrum (G // 2 + 1, G, G) of ``sum_j coeffs[j] omega_j``."""
        m = len(coeffs)
        self._check_counts(m, scalar=True)
        c = self.zero_spectrum((), grid or self.grid_points)
        # mode 0 is the constant
        c[0, 0, 0] = np.sum(coeffs[:1]) / np.sqrt(self.volume)
        trig = coeffs[1:]
        self._synth(True, 1, trig, np.ones((len(trig), 1)), c[None])
        return c

    def cosine_mode(self, n) -> int:
        """Index in the scalar table of the cosine mode of the canonical
        wavevector ``n``."""
        match = np.all(self.scal_n == n, axis=1) & (self.scal_phase == _PHASE_COS)
        return int(np.flatnonzero(match)[0])

    def vector_grid(self, coeffs: np.ndarray) -> np.ndarray:
        return self.spectral_to_grid(self.synth_vector(coeffs))

    def scalar_grid(self, coeffs: np.ndarray) -> np.ndarray:
        return self.spectral_to_grid(self.synth_scalar(coeffs))

    # --------------------------------------------------------------- gathers

    @staticmethod
    def _by_phase(phase: np.ndarray, dot: np.ndarray, derivative: bool = False) -> np.ndarray:
        """The phase rule of the module docstring, unscaled."""
        if derivative:
            return np.where(phase == _PHASE_COS, dot.imag, dot.real)
        return np.where(phase == _PHASE_COS, dot.real, -dot.imag)

    def _gather(self, c, scalar: bool, count: int, weights, derivative: bool) -> np.ndarray:
        """Inner products of the field with spectrum ``c`` and the test
        functions whose amplitude at the wavevector of mode j < ``count`` of
        the vector or scalar table is ``weights[j, p]`` in component ``p``
        times the mode's own; ``derivative`` marks test functions with an
        ``i k`` factor."""
        idx = self._mode_indices(scalar, c.shape[-1], count)[0]
        phase = (self.scal_phase if scalar else self.vec_phase)[:count]
        dot = sum(weights[:, p] * c[p].reshape(-1)[idx] for p in range(weights.shape[1]))
        return np.sqrt(2.0 * self.volume) * self._by_phase(phase, dot, derivative)

    def gather_vector(self, c: np.ndarray, count: int) -> np.ndarray:
        """Inner products (f, psi_j) for j < count from a vector spectrum."""
        return self._gather(c, False, count, self.vec_e[:count], False)

    def gather_vector_curl(self, c: np.ndarray, count: int) -> np.ndarray:
        """Inner products (f, curl psi_j) for j < count."""
        return self._gather(c, False, count, self.vec_curl_e[:count], True)

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
        return self._gather(c_sym, False, count, weights, True)

    def gather_scalar(self, c: np.ndarray, count: int) -> np.ndarray:
        """Inner products (f, omega_j) for j < count from a scalar spectrum."""
        out = self._gather(c[None], True, count, np.ones((count, 1)), False)
        out[self.scal_phase[:count] == _PHASE_CONST] = np.sqrt(self.volume) * c[0, 0, 0].real
        return out

    def gather_scalar_grad(self, c_vec: np.ndarray, count: int) -> np.ndarray:
        """Inner products (g, grad omega_j) for a vector spectrum g."""
        out = self._gather(c_vec, True, count, self.scal_k[:count], True)
        out[self.scal_phase[:count] == _PHASE_CONST] = 0.0
        return out

    def gather_amplitudes(self, c: np.ndarray, nvecs: np.ndarray) -> np.ndarray:
        """Raw complex amplitudes of the half layout ``c`` at integer
        wavevectors (used by mass assembly): one with every ``|n_i| <=
        c.shape[-1] // 2`` reads its entry, or, with nx < 0, the conjugate
        of the entry at its negative; every other reads exactly 0, since a
        Gram weight is a cube holding every amplitude its Gram reads."""
        flip = nvecs[:, 0] < 0
        inside = np.abs(nvecs).max(axis=1) <= c.shape[-1] // 2
        n = np.where(flip[:, None], -nvecs, nvecs) * inside[:, None]
        # conjugated after the mask: a zero read with nx < 0 is 0 - 0j, as in
        # a full spectrum
        vals = np.where(inside, c.reshape(-1)[self._flat_indices(n, c.shape[-1])], 0.0)
        return np.where(flip, np.conj(vals), vals)

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
        cube ``c_w``; exact quadrature."""
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
        included, of the weight with cube ``c_w``."""
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

    def project_vector(self, values: np.ndarray, count: int) -> np.ndarray:
        """L2 projection of a grid vector field onto the first ``count`` modes."""
        return self.gather_vector(self.grid_to_spectral(values, size=self.band), count)


# --------------------------------------------------------------- module API


def build_basis(box_size: float, grid_points: int) -> DivFreeSpectralBasis:
    """Construct the orthonormal divergence-free and scalar mode families."""
    return DivFreeSpectralBasis(box_size, grid_points)
