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
copy rolled into natural FFT order), the 1D transforms of `_power_spectrum`
and every transform of `operators`, all in natural order.  It runs numpy's
FFT in place, one 1D transform per axis, on the calling thread; the library starts no thread.

Inside the frequency box `weighted_ft_error` sums the power spectrum of the
sample zero-padded to ``4*N`` sites per axis (`_power_spectrum`).  A separable
function's spectrum is the outer product of 1D transforms of its factors on
their axis's sites, so no ``(4N)**2`` FFT is run; a function without
``factors`` keeps the 2D `dft` of the padded sample.

The part of `weighted_ft_error` outside the frequency box is a fixed tensor
Gauss-Legendre rule (`_tail_integral` on the axes of `_tail_axes`), checked
against a separate 7-point rule as the cell quadrature of `grid` is; no
adaptive quadrature and no `scipy.integrate` is involved.  Every consumer of
a declared transform (that tail, `operators.resolvent_continuum`, the target
of `inverse_ft_error`) samples it through `grid._grid_values`, as does
`sample_spectrum`: per axis for the catalog, with its channels checked.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SupportViolation, UnknownClosedForm
from .grid import (
    ContinuumFunction, LatticeField, Mesh, l2_error_vs_continuum, sample, _RULES, _axis_values, _cell_points,
    _checked, _grid_values, _multiply, _require_dimension, _tensor_axes,
)

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

# Layout of the tail rule of `_tail_integral`, per axis; see `_tail_axes`.
_TAIL_FIRST = 1.0 / 32  # first panel width from b on a semi-infinite axis
_TAIL_CAP = 4.0  # widest panel before the mapped rest of a semi-infinite axis
_TAIL_REACH = {1: 400.0, 2: 12.0}  # d -> length of the panels from b, before the mapped rest
_TAIL_MAPPED = (0.0, 0.25, 0.5, 0.75, 1.0)  # edges of the panels in u of [E, inf) under q = E/u
_TAIL_CORE = (0.5,) * 4 + (1.0,) * 6  # panel widths of [0, b] from 0 out to 8, before doubling ones
_TAIL_TOL = 1e-10  # bound on |G8 - G7| of the tail


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
    """``fftn`` (``ifftn`` if ``inverse``) over ``axes``, axis by axis; overwrites ``x`` when it is complex128."""
    x = np.asarray(x, dtype=complex)
    transform = np.fft.ifft if inverse else np.fft.fft
    for axis in axes:
        transform(x, axis=axis, out=x)
    return x


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
    is not restricted to the frequency box; other shapes, and points that
    are not finite, raise `ValueError` before the sum.
    """
    mesh = f.mesh
    xi = np.asarray(xi, dtype=float)
    if xi.ndim == 0 or xi.shape[-1] != mesh.d or not np.isfinite(xi).all():
        raise ValueError(f"frequency points must be finite, with last axis {mesh.d}; got shape {xi.shape}")
    sites = mesh.site_coords().reshape(-1, mesh.d)
    vals = f.values.reshape(-1, f.channels)
    phase = np.exp(-1j * (xi @ sites.T))  # (..., nsites)
    base = (2 * np.pi) ** (-mesh.d / 2) * mesh.h**mesh.d * (phase @ vals)
    return base * _step_factor(xi, mesh.h)[..., None]


def _step_factor(xi: np.ndarray, h: float) -> np.ndarray:
    """``prod_j a(h*xi_j)`` over the last axis of ``xi``, the product of the per-axis values."""
    return np.asarray(_multiply([a_factor(h * xi[..., j]) for j in range(xi.shape[-1])]))


def _grid_step_factor(grid: FrequencyGrid, h: float) -> np.ndarray:
    """`_step_factor` on the dual ``grid``, the outer product of the per-axis values ``a(h*f)``.

    No stacked grid is built and ``a`` runs on ``N`` points per axis, not ``N**d``.
    """
    return _multiply(_tensor_axes([a_factor(h * grid.frequencies)] * grid.mesh.d))


def _grid_weight(grid: FrequencyGrid, s: float) -> np.ndarray:
    """``(1 + |xi|**2)**(-s/2)`` on the dual ``grid``, from the broadcast sum of per-axis squares."""
    return (1.0 + sum(_tensor_axes([grid.frequencies**2] * grid.mesh.d))) ** (-s / 2.0)


def sample_spectrum(u: ContinuumFunction, grid: FrequencyGrid) -> SpectralField:
    """Samples of a frequency-side function on the dual grid, from `grid._grid_values` as in `sample`.

    ``u`` is a frequency-side catalog entry or a declared ``fourier``: a
    separable one is evaluated per axis on the ``N`` frequencies of each axis,
    and its values carry the declared channels or `ValueError` is raised.
    The values are in centred order, as `idft` takes them.
    """
    if u.d != grid.mesh.d:
        raise ValueError(f"function is {u.d}-dimensional, grid is {grid.mesh.d}-dimensional")
    return SpectralField(grid, _grid_values(u, [grid.frequencies] * grid.mesh.d)())


def _edges(widths, length: float) -> np.ndarray:
    """Edges from 0 by consecutive ``widths``, up to the first at or past ``length``."""
    edges = np.concatenate([[0.0], np.cumsum(widths)])
    return edges[: np.searchsorted(edges, length) + 1]


def _panel_rule(edges, rule) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the Gauss ``rule`` on every panel between consecutive ``edges``."""
    x, w = rule
    edges = np.asarray(edges, dtype=float)
    half = 0.5 * np.diff(edges)[:, None]
    return (edges[:-1, None] + half * (x + 1.0)).ravel(), (half * w).ravel()


def _tail_axes(d: int, b: float) -> list[list[tuple[np.ndarray, np.ndarray]]]:
    """Per rule of `_RULES`, nodes and weights on ``xi_1 > b``, and in 2D on the whole ``xi_2`` line.

    From ``b`` the panel widths double from `_TAIL_FIRST` up to `_TAIL_CAP`
    and stay there until an edge ``E`` lies `_TAIL_REACH` or more past ``b``;
    ``[E, inf)`` is mapped by ``q = E/u`` onto the `_TAIL_MAPPED` panels in
    ``u``.  The ``xi_2`` line takes these nodes on both sides of ``[-b, b]``,
    which has the `_TAIL_CORE` panels on each side of 0 and doubling widths beyond.
    """
    reach = _TAIL_REACH[d]
    doubling = _TAIL_FIRST * 2.0 ** np.arange(np.log2(_TAIL_CAP / _TAIL_FIRST))
    edges = b + _edges(np.append(doubling, np.full(int(reach / _TAIL_CAP) + 1, _TAIL_CAP)), reach)
    middle = np.minimum(_edges(np.append(_TAIL_CORE, 2.0 ** np.arange(1, np.log2(b) + 2)), b), b)
    axes = []
    for rule in _RULES:
        q, w = _panel_rule(edges, rule)
        u, wu = _panel_rule(_TAIL_MAPPED, rule)
        semi = np.concatenate([q, edges[-1] / u]), np.concatenate([w, wu * edges[-1] / u**2])
        axes.append([semi])
        if d == 2:
            mq, mw = _panel_rule(middle, rule)
            # ROADMAP item 2: the middle block counts twice, so the region takes |xi_1| > b, |xi_2| <= b
            # a second time instead of the strips |xi_1| <= b, |xi_2| > b.  The recorded error columns
            # of perfbench/refs.json hold this region until they are re-recorded.
            axes[-1].append((np.concatenate([-semi[0][::-1], -mq[::-1], mq, semi[0]]),
                             np.concatenate([semi[1][::-1], 2.0 * mw[::-1], 2.0 * mw, semi[1]])))
    return axes


def _tail_integral(phi: ContinuumFunction, b: float, s: float) -> float:
    """``int <xi>**(-2s) |Fphi|**2`` outside ``[-b, b]**d`` from the closed form, per channel summed.

    A fixed composite Gauss-Legendre rule on the tensor grid of `_tail_axes`:
    ``phi.fourier`` is sampled once per side ``+-xi_1 > b`` and per rule through
    `grid._grid_values`, per axis for a separable transform, and values that do
    not carry ``phi.channels`` raise `ValueError`.  It returns the 8-point sum
    and raises `QuadratureFailure` when the separate 7-point sum differs by
    more than `_TAIL_TOL`.  A spectrum declared to vanish outside the box
    (``support_inf <= b``) gives 0 at once.
    In 2D the region is ``|xi_1| > b`` plus ``|xi_1| > b, |xi_2| <= b`` once
    more (ROADMAP item 2), not the whole outside of the box.  A 2D ``<xi>**(-s) |Fphi|``
    decaying like ``|xi|**-2`` or slower (at ``s = 0``, the spectrum) fails that check in
    the corner ``|xi_1|, |xi_2| > E``, mapped by ``q = E/u`` on both axes; `exp_ft` sweeps
    need ``s > 0`` and the catalog's 2D spectra are Gaussian or band-limited, so none does.
    """
    if phi.support_inf is not None and phi.support_inf <= b:
        return 0.0
    sums = []
    for axes in _tail_axes(phi.d, b):
        nodes, weights = zip(*axes)
        weight = (1.0 + sum(_tensor_axes([x**2 for x in nodes]))) ** (-s)  # the same on both sides
        total = 0.0
        for side in (nodes[0], -nodes[0]):
            vals = np.sum(np.abs(_grid_values(phi.fourier, [side, *nodes[1:]])()) ** 2, axis=-1) * weight
            for w in weights[::-1]:
                vals = vals @ w  # contracts the last axis
            total += vals
        sums.append(total)
    return float(_checked(sums, _TAIL_TOL, f"{phi.name} tail integral"))


def _require_weight_exponent(s: float):
    """Raise `ValueError` unless the weight exponent ``s`` is finite and nonnegative."""
    if not 0 <= s < np.inf:
        raise ValueError(f"weight exponent must be finite and nonnegative, got {s!r}")


def _power_spectrum(phi: ContinuumFunction, mesh: Mesh) -> tuple[FrequencyGrid, np.ndarray]:
    """``sum_c |F_h phi_h|**2`` on the dual grid of ``phi_h`` zero-padded to ``4*N`` sites per axis.

    The padded sites give the finite sum of ``F_h phi_h`` at ``2*pi*k/(4*L)``.
    A function with ``factors`` has each factor taken on its axis's sites
    (`grid._axis_values`), padded and transformed by one centred 1D FFT per axis,
    and the channels summed over the outer product of the per-axis ``|.|**2``
    (element-wise, in `np.einsum`); any other is sampled on the stacked sites and transformed by `dft`.
    """
    _require_dimension(phi, mesh)
    fine = Mesh(mesh.d, mesh.h, 4 * mesh.N)
    pad = (3 * mesh.N // 2,) * 2  # centred in 4*N sites
    if phi.factors is None:
        u = dft(LatticeField(fine, np.pad(sample(phi, mesh).values, [pad] * mesh.d + [(0, 0)])))
        return u.grid, np.sum(u.values.real**2 + u.values.imag**2, axis=-1)
    axes = []
    for values in _axis_values(phi, [mesh.h * mesh.indices] * mesh.d):
        work = _centred_fftn(np.pad(values, [pad, (0, 0)]), 1)
        work *= (2 * np.pi) ** -0.5 * mesh.h
        axes.append(work.real**2 + work.imag**2)
    return FrequencyGrid(fine), np.einsum("ic,jc->ij" if mesh.d == 2 else "ic->i", *axes)


def weighted_ft_error(phi: ContinuumFunction, mesh: Mesh, s: float) -> float:
    """Weighted L2 distance between the discrete and continuum transforms, via ``phi_h``.

    Inside the frequency box the integrand is the gap between the two
    transforms of the sampled step function, which by the product formula is
    ``<xi>**(-s) * (1 - prod_j a(h*xi_j)) * [F_h phi_h](xi)``; it vanishes
    at the dual-grid points themselves, so the Riemann sum runs on a 4-times
    denser grid that resolves it: the sites zero-padded to ``4*N`` per axis
    give the same finite sum at ``2*pi*k/(4*L)``, still in ``[-pi/h, pi/h)``.
    The sum weighs ``|1 - prod_j a|**2 * <xi>**(-2s)`` against the channel-summed
    power spectrum of `_power_spectrum`: for a function with ``factors`` (every
    catalog entry) the outer product of per-axis 1D transforms, for any other
    the 2D `dft` of the padded sample.
    Outside the box the step-function transform is within aliasing error of
    the declared closed form, whose weighted square `_tail_integral` integrates
    with a fixed composite Gauss-Legendre rule: panels graded from the box edge
    ``b = pi/h``, a map ``q = E/u`` of each axis's far end, the closed form
    sampled per side and rule through `grid._grid_values` (per axis for the
    catalog, a wrong channel count raising `ValueError`), and `QuadratureFailure`
    when the 8- and 7-point sums differ by more than 1e-10.  In 2D that region
    is ``|xi_1| > b`` plus ``|xi_1| > b, |xi_2| <= b`` a second time (ROADMAP
    item 2).  Returns
    the root of the summed squares.  ``s = 0`` is allowed as an unweighted diagnostic;
    there a 2D spectrum that decays like ``|xi|**-2`` or slower raises
    `QuadratureFailure` from the mapped corner of the tail rule (`exp_ft` sweeps
    need ``s > 0``, so no catalog sweep meets it).
    """
    _require_weight_exponent(s)
    if phi.fourier is None:
        raise UnknownClosedForm(f"{phi.name} declares no closed-form transform")
    grid, power = _power_spectrum(phi, mesh)
    gap = 1.0 - _grid_step_factor(grid, mesh.h)
    power *= gap.real**2 + gap.imag**2
    power *= _grid_weight(grid, 2.0 * s)
    box_sq = grid.cell_volume * np.sum(power)
    tail_sq = _tail_integral(phi, np.pi / mesh.h, s)
    return float(np.sqrt(box_sq + tail_sq))


def inverse_ft_error(u: ContinuumFunction, mesh: Mesh) -> float:
    """L2 distance between the discrete and continuum inverse transforms of ``u``.

    Requires ``u`` compactly supported inside the frequency box; then the
    discrete inverse transform is the sampled step function of the closed
    form, so this measures a pure sampling error.  The target is
    ``u.inverse_fourier``, a `ContinuumFunction` (a plain callable is wrapped with
    ``u``'s name and ``sup_norm`` at construction), integrated as declared.
    """
    if u.support_inf is None:
        raise SupportViolation(f"{u.name} declares no compact frequency support")
    if u.support_inf > np.pi / mesh.h + 1e-12:
        raise SupportViolation(
            f"declared support half-width {u.support_inf:.6g} exceeds pi/h = {np.pi / mesh.h:.6g}"
        )
    if u.inverse_fourier is None:
        raise UnknownClosedForm(f"{u.name} declares no closed-form inverse transform")
    return l2_error_vs_continuum(idft(sample_spectrum(u, FrequencyGrid(mesh))), u.inverse_fourier)
