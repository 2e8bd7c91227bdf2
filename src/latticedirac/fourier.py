"""Discrete Fourier transform pair on the periodic truncation, and FT-error measures.

On the centered ``N**d`` box the transform of a step field,

    ``u(xi_k) = (2*pi)**(-d/2) * h**d * sum_n f(h*n) * exp(-i*h*n.xi_k)``,

restricted to the dual grid ``xi_k = 2*pi*k/(N*h)`` is a scaled DFT, so it
is realized exactly by the FFT (no windowing, no padding) and unitarity and
the round-trip identities hold to roundoff.  The frequency box is
``[-pi/h, pi/h)**d`` and the dual-grid cell volume is ``(2*pi/L)**d``.

The factor ``a(theta) = (1 - exp(-i*theta)) / (i*theta)`` relates the exact
continuum Fourier transform of a step function to the discrete transform:
on-grid, ``F[J_h f](xi_k)`` equals the DFT value times ``prod_j a(h*xi_kj)``.

`_fftn` is the one FFT entry point, for `dft`/`idft` (on a copy rolled into
natural FFT order) and the multipliers of `operators`.  It runs `scipy.fft` on
up to `thread_cap` workers, with the same result at any worker count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SupportViolation, UnknownClosedForm
from .grid import ContinuumFunction, LatticeField, Mesh, l2_error_vs_continuum, sample, thread_cap

__all__ = [
    "FrequencyGrid",
    "SpectralField",
    "dft",
    "idft",
    "a_factor",
    "continuum_ft_of_step",
    "weighted_ft_error",
    "inverse_ft_error",
    "sample_spectrum",
    "spectral_norm",
]


@dataclass(frozen=True)
class FrequencyGrid:
    """Dual grid of a `Mesh`: frequencies ``2*pi*k/(N*h)`` with centered ``k``."""

    mesh: Mesh

    @property
    def cell_volume(self) -> float:
        return (2 * np.pi / self.mesh.L) ** self.mesh.d

    @property
    def frequencies(self) -> np.ndarray:
        """Frequencies along one axis, ascending, in ``[-pi/h, pi/h)``."""
        return 2 * np.pi * self.mesh.indices / self.mesh.L

    def coords(self) -> np.ndarray:
        """Frequency coordinates, shape ``(*mesh.shape, d)``."""
        axes = [self.frequencies for _ in range(self.mesh.d)]
        grids = np.meshgrid(*axes, indexing="ij")
        return np.stack(grids, axis=-1)


@dataclass(frozen=True)
class SpectralField:
    """Complex values on a frequency grid, supported in the frequency box."""

    grid: FrequencyGrid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex)
        mesh = self.grid.mesh
        if vals.shape[: mesh.d] != mesh.shape or vals.ndim != mesh.d + 1:
            raise ValueError(f"values shape {vals.shape} incompatible with grid {mesh.shape}")
        object.__setattr__(self, "values", vals)

    @property
    def channels(self) -> int:
        return self.values.shape[-1]


def spectral_norm(u: SpectralField) -> float:
    """L2 norm over the frequency box as a Riemann sum with the dual cell volume."""
    return float(np.sqrt(u.grid.cell_volume * np.sum(np.abs(u.values) ** 2)))


def _fftn(x: np.ndarray, axes: tuple[int, ...], inverse: bool = False) -> np.ndarray:
    """``fftn`` (``ifftn`` if ``inverse``) over ``axes``; may overwrite ``x``, so pass memory you own."""
    import scipy.fft  # not at module level: importing scipy costs start-up time

    transform = scipy.fft.ifftn if inverse else scipy.fft.fftn
    return transform(x, axes=axes, workers=thread_cap(x.size // x.shape[axes[-1]]), overwrite_x=True)


def dft(f: LatticeField) -> SpectralField:
    """Discrete Fourier transform of a step field, exact on the truncation."""
    mesh = f.mesh
    axes, shift = tuple(range(mesh.d)), (mesh.N // 2,) * mesh.d  # N is even: rolls by N/2 centre
    work = np.roll(_fftn(np.roll(f.values, shift, axes), axes), shift, axes)
    work *= (2 * np.pi) ** (-mesh.d / 2) * mesh.h**mesh.d
    return SpectralField(FrequencyGrid(mesh), work)


def idft(u: SpectralField) -> LatticeField:
    """Inverse transform; two-sided inverse of `dft` on the truncation."""
    mesh = u.grid.mesh
    axes, shift = tuple(range(mesh.d)), (mesh.N // 2,) * mesh.d
    work = np.roll(_fftn(np.roll(u.values, shift, axes), axes, inverse=True), shift, axes)
    work *= (2 * np.pi) ** (-mesh.d / 2) * (2 * np.pi / mesh.h) ** mesh.d
    return LatticeField(mesh, work)


_A_TAYLOR = [1.0, -1j / 2, -1.0 / 6, 1j / 24, 1.0 / 120, -1j / 720, -1.0 / 5040]


def a_factor(theta):
    """The step-function factor ``(1 - exp(-i*theta)) / (i*theta)``.

    The removable singularity at 0 is handled by a degree-6 Taylor
    polynomial for ``|theta| < 1e-4`` (crossover error below 1e-16).
    """
    theta = np.asarray(theta, dtype=float)
    small = np.abs(theta) < 1e-4
    safe = np.where(small, 1.0, theta)
    direct = (1.0 - np.exp(-1j * safe)) / (1j * safe)
    series = np.zeros(theta.shape, dtype=complex)
    for c in reversed(_A_TAYLOR):
        series = series * (theta) + c
    out = np.where(small, series, direct)
    return out if out.shape else complex(out)


def continuum_ft_of_step(f: LatticeField, xi) -> np.ndarray:
    """Exact continuum Fourier transform of the step function ``J_h f`` at ``xi``.

    Direct summation; serves as the oracle relating the continuum transform
    to the discrete one.  ``xi`` may be any array of shape ``(..., d)`` and
    is not restricted to the frequency box.
    """
    mesh = f.mesh
    xi = np.asarray(xi, dtype=float)
    if xi.shape[-1] != mesh.d:
        raise ValueError(f"frequency points must have last axis {mesh.d}")
    sites = mesh.site_coords().reshape(-1, mesh.d)
    vals = f.values.reshape(-1, f.channels)
    phase = np.exp(-1j * (xi @ sites.T))  # (..., nsites)
    base = (2 * np.pi) ** (-mesh.d / 2) * mesh.h**mesh.d * (phase @ vals)
    factor = np.ones(xi.shape[:-1], dtype=complex)
    for j in range(mesh.d):
        factor = factor * a_factor(mesh.h * xi[..., j])
    return base * factor[..., None]


def sample_spectrum(u: ContinuumFunction, grid: FrequencyGrid) -> SpectralField:
    """Samples of a frequency-side function on the dual grid."""
    if u.d != grid.mesh.d:
        raise ValueError(f"function is {u.d}-dimensional, grid is {grid.mesh.d}-dimensional")
    return SpectralField(grid, u(grid.coords()))


def _tail_integral(phi: ContinuumFunction, b: float, s: float) -> float:
    """``int_{|xi|_inf > b} <xi>**(-2s) |Fphi|**2`` from the closed form, per channel summed."""
    from scipy import integrate  # not at module level: importing scipy costs start-up time

    if phi.d == 1:

        def integrand(q):
            xi = np.array([[q]])
            val = np.sum(np.abs(phi.fourier(xi)) ** 2)
            return (1.0 + q * q) ** (-s) * val

        right, _ = integrate.quad(integrand, b, np.inf, epsabs=1e-10, epsrel=1e-10, limit=200)
        left, _ = integrate.quad(integrand, -np.inf, -b, epsabs=1e-10, epsrel=1e-10, limit=200)
        return right + left

    def integrand(q2, q1):
        xi = np.array([[q1, q2]])
        val = np.sum(np.abs(phi.fourier(xi)) ** 2)
        return (1.0 + q1 * q1 + q2 * q2) ** (-s) * val

    opts = dict(epsabs=1e-10, epsrel=1e-10)
    total = 0.0
    # vertical strips |xi_1| > b, full xi_2 range
    for lo, hi in ((b, np.inf), (-np.inf, -b)):
        val, _ = integrate.dblquad(integrand, lo, hi, -np.inf, np.inf, **opts)
        total += val
    # remaining horizontal strips |xi_1| <= b, |xi_2| > b
    for lo, hi in ((b, np.inf), (-np.inf, -b)):
        val, _ = integrate.dblquad(lambda q1, q2: integrand(q2, q1), -b, b, lo, hi, **opts)
        total += val
    return total


def dft_oversampled(f: LatticeField, factor: int) -> SpectralField:
    """The transform of ``J_h f`` evaluated on a ``factor``-times denser frequency grid.

    Zero-padding the site array evaluates the same finite sum exactly at
    frequencies ``2*pi*k/(factor*L)``, which still span ``[-pi/h, pi/h)``;
    this is `dft` on the ``factor``-times larger mesh.  The transform of a
    step field is a trigonometric polynomial that agrees with the continuum
    transform of a band-limited sampled function *at* the dual-grid points,
    so resolving it between those points requires this denser evaluation.
    """
    mesh = f.mesh
    big = Mesh(mesh.d, mesh.h, factor * mesh.N)
    pad = (big.N - mesh.N) // 2
    work = np.zeros(big.shape + (f.channels,), dtype=complex)
    work[(slice(pad, pad + mesh.N),) * mesh.d] = f.values
    return dft(LatticeField(big, work))


def weighted_ft_error(phi: ContinuumFunction, mesh: Mesh, s: float, oversample: int = 4) -> float:
    """Weighted L2 distance between the discrete and continuum transforms, via ``phi_h``.

    Inside the frequency box the integrand is the gap between the two
    transforms of the sampled step function, which by the product formula is
    ``<xi>**(-s) * (1 - prod_j a(h*xi_j)) * [F_h phi_h](xi)``; it vanishes
    at the dual-grid points themselves, so the Riemann sum runs on an
    ``oversample``-times denser grid that resolves it.  Outside the box the
    step-function transform is within aliasing error of the declared closed
    form, which is integrated adaptively.  Returns the root of the summed
    squares.  ``s = 0`` is allowed as an unweighted diagnostic.
    """
    if s < 0:
        raise ValueError("weight exponent must be nonnegative")
    if phi.fourier is None:
        raise UnknownClosedForm(f"{phi.name} declares no closed-form transform")
    u = dft_oversampled(sample(phi, mesh), oversample)
    coords = u.grid.coords()
    weight = (1.0 + np.sum(coords**2, axis=-1)) ** (-s / 2.0)
    one_minus_a = np.ones(coords.shape[:-1], dtype=complex)
    for j in range(mesh.d):
        one_minus_a = one_minus_a * a_factor(mesh.h * coords[..., j])
    one_minus_a = 1.0 - one_minus_a
    diff = (one_minus_a * weight)[..., None] * u.values
    box_sq = u.grid.cell_volume * np.sum(np.abs(diff) ** 2)
    tail_sq = _tail_integral(phi, np.pi / mesh.h, s)
    return float(np.sqrt(box_sq + tail_sq))


def inverse_ft_error(u: ContinuumFunction, mesh: Mesh) -> float:
    """L2 distance between the discrete and continuum inverse transforms of ``u``.

    Requires ``u`` compactly supported inside the frequency box; then the
    discrete inverse transform is the sampled step function of the closed
    form, so this measures a pure sampling error.
    """
    if u.support_inf is None:
        raise SupportViolation(f"{u.name} declares no compact frequency support")
    if u.support_inf > np.pi / mesh.h + 1e-12:
        raise SupportViolation(
            f"declared support half-width {u.support_inf:.6g} exceeds pi/h = {np.pi / mesh.h:.6g}"
        )
    if u.inverse_fourier is None:
        raise UnknownClosedForm(f"{u.name} declares no closed-form inverse transform")
    g = idft(sample_spectrum(u, FrequencyGrid(mesh)))
    target = ContinuumFunction(
        name=f"ift-{u.name}", d=u.d, channels=u.channels, evaluate=u.inverse_fourier,
        sup_norm=u.sup_norm,
    )
    return l2_error_vs_continuum(g, target)
