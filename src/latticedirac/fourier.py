"""Discrete Fourier transform pair on the periodic truncation, and FT-error measures.

On the centered ``N**d`` box the transform of a step field,

    ``u(xi_k) = (2*pi)**(-d/2) * h**d * sum_n f(h*n) * exp(-i*h*n.xi_k)``,

restricted to the dual grid ``xi_k = 2*pi*k/(N*h)`` is a scaled DFT, so it
is realized exactly by the FFT (no windowing, no padding) and unitarity and
the round-trip identities hold to roundoff.  The frequency box is
``[-pi/h, pi/h)**d`` and the dual-grid cell volume is ``(2*pi/L)**d``.

The factor ``a(theta) = (1 - exp(-i*theta)) / (i*theta)`` relates the exact
continuum Fourier transform of a step function to the discrete transform:
on-grid, ``F[J_h f](xi_k)`` equals the DFT value times ``prod_j a(h*xi_kj)``;
`a_factor` takes the closed form ``exp(-i*theta/2) * sinc``, with no small-``theta`` branch.

`_fftn` is the one FFT entry point, for `dft`/`idft` (`_centred_fftn`: on a
copy rolled into natural FFT order) and the multipliers of `operators`.  It
runs `scipy.fft` on up to `thread_cap` workers, the same at any worker count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SupportViolation, UnknownClosedForm
from .grid import ContinuumFunction, LatticeField, Mesh, l2_error_vs_continuum, sample, thread_cap, _cell_points

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
        return _cell_points([self.frequencies] * self.mesh.d)


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


def _centred_fftn(values: np.ndarray, d: int, inverse: bool = False) -> np.ndarray:
    """`_fftn` over the ``d`` site axes of centred ``values``; ``N`` is even, so rolls by ``N/2`` centre."""
    axes, shift = tuple(range(d)), (values.shape[0] // 2,) * d
    return np.roll(_fftn(np.roll(values, shift, axes), axes, inverse), shift, axes)


def dft(f: LatticeField) -> SpectralField:
    """Discrete Fourier transform of a step field, exact on the truncation."""
    mesh = f.mesh
    work = _centred_fftn(f.values, mesh.d)
    work *= (2 * np.pi) ** (-mesh.d / 2) * mesh.h**mesh.d
    return SpectralField(FrequencyGrid(mesh), work)


def idft(u: SpectralField) -> LatticeField:
    """Inverse transform; two-sided inverse of `dft` on the truncation."""
    mesh = u.grid.mesh
    work = _centred_fftn(u.values, mesh.d, inverse=True)
    work *= (2 * np.pi) ** (-mesh.d / 2) * (2 * np.pi / mesh.h) ** mesh.d
    return LatticeField(mesh, work)


def a_factor(theta):
    """The step-function factor ``(1 - exp(-i*theta)) / (i*theta)``.

    Computed as ``exp(-i*theta/2) * sin(theta/2) / (theta/2)`` (``np.sinc``
    of ``theta/(2*pi)``), which is 1 at 0 and keeps full relative accuracy at
    small ``|theta|``, where the quotient loses digits to cancellation.
    """
    theta = np.asarray(theta, dtype=float)
    out = np.exp(-0.5j * theta) * np.sinc(theta / (2 * np.pi))
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
    return base * _step_factor(xi, mesh.h)[..., None]


def _step_factor(xi: np.ndarray, h: float) -> np.ndarray:
    """``prod_j a(h*xi_j)`` over the last axis of ``xi``."""
    factor = np.ones(xi.shape[:-1], dtype=complex)
    for j in range(xi.shape[-1]):
        factor = factor * a_factor(h * xi[..., j])
    return factor


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
    # meant as the horizontal strips |xi_1| <= b, |xi_2| > b, but the swapped arguments integrate
    # |xi_1| > b, |xi_2| <= b again: exact only for spectra symmetric under xi_1 <-> xi_2
    for lo, hi in ((b, np.inf), (-np.inf, -b)):
        val, _ = integrate.dblquad(lambda q1, q2: integrand(q2, q1), -b, b, lo, hi, **opts)
        total += val
    return total


def _require_weight_exponent(s: float):
    """Raise `ValueError` unless the weight exponent ``s`` is finite and nonnegative."""
    if not 0 <= s < np.inf:
        raise ValueError(f"weight exponent must be finite and nonnegative, got {s!r}")


def weighted_ft_error(phi: ContinuumFunction, mesh: Mesh, s: float) -> float:
    """Weighted L2 distance between the discrete and continuum transforms, via ``phi_h``.

    Inside the frequency box the integrand is the gap between the two
    transforms of the sampled step function, which by the product formula is
    ``<xi>**(-s) * (1 - prod_j a(h*xi_j)) * [F_h phi_h](xi)``; it vanishes
    at the dual-grid points themselves, so the Riemann sum runs on a 4-times
    denser grid that resolves it: the sites zero-padded to ``4*N`` per axis
    give the same finite sum at ``2*pi*k/(4*L)``, still in ``[-pi/h, pi/h)``.
    Outside the box the step-function transform is within aliasing error of
    the declared closed form, which is integrated adaptively.  Returns the
    root of the summed squares.  ``s = 0`` is allowed as an unweighted diagnostic.
    """
    _require_weight_exponent(s)
    if phi.fourier is None:
        raise UnknownClosedForm(f"{phi.name} declares no closed-form transform")
    pad = [(3 * mesh.N // 2,) * 2] * mesh.d + [(0, 0)]  # centred in 4*N sites per axis
    u = dft(LatticeField(Mesh(mesh.d, mesh.h, 4 * mesh.N), np.pad(sample(phi, mesh).values, pad)))
    coords = u.grid.coords()
    weight = (1.0 + np.sum(coords**2, axis=-1)) ** (-s / 2.0)
    diff = ((1.0 - _step_factor(coords, mesh.h)) * weight)[..., None] * u.values
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
