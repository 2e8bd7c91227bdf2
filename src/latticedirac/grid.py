"""Lattice geometry, step-function fields, and the grid transfer operators.

A complex-valued function on the mesh sites is identified with the step
function that is constant on each half-open cell ``[h*n_j, h*(n_j+1))``.
Under this identification the lattice carries two norms tied by an exact
isometry: the L2 norm of the step function equals ``h**(d/2)`` times the
little-l2 norm of the site values.  Everything in this module is computed
on a centered periodic box ``[-L/2, L/2)**d`` with ``L = N*h``; the box is
the desk-scale surrogate for the full space, and test functions are chosen
with enough decay that the truncation sits far below discretization error.

Grid transfers:

* ``sample``   -- pointwise sampling ``phi(h*n)`` of a continuum function,
  giving the step function usually written ``phi_h``.
* ``project``  -- orthogonal projection onto step functions, realized as
  per-cell averages computed with fixed-order Gauss-Legendre quadrature.

Both take the values of a function on a tensor grid of per-axis
coordinates (the cell corners, or the Gauss nodes of every cell) from one
helper, `_grid_values`.  A separable function, one that declares per-axis
``factors``, is evaluated per axis on ``O(N q)`` coordinates and its grid
values are the outer product of those; any other function is evaluated on
the stacked points.  Both give the same element-wise arithmetic, and the
outer products feed the same 8-vs-7-point Gauss checks.

Cell quadrature cuts each cell at the declared kinks strictly inside it,
through the weights of `_axis_rules`, so every cell takes one vectorized path.  It
walks the mesh in blocks of whole cell rows (about `_BLOCK_CELLS` cells
each) on the calling thread, so node arrays never span the whole mesh.
Per-cell results land in full arrays that are reduced once at the end, so
every result is the same at any block size.  No thread is started here.

A 2D function with ``factors`` skips that walk in `project` and the
projection errors: each cell is a product of two intervals, so its averages
split into 1D averages per axis (`_separable_quadrature`), and no node
array of the cells is formed.  These agree with the walk to rounding, not
bit for bit, and give the same 8-vs-7-point pairs per cell to the checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import MeshMismatch, OutOfDomain, QuadratureFailure

__all__ = [
    "Mesh",
    "LatticeField",
    "ContinuumFunction",
    "sample",
    "project",
    "norm_l2",
    "norm_little_l2",
    "inner",
    "evaluate_step",
    "l2_error_vs_continuum",
    "gaussian",
    "modulated_gaussian",
    "gaussian_spinor",
    "hat",
    "bandlimited",
    "bandlimited_spinor",
    "freq_window",
    "function_catalog",
    "FUNCTION_IDS",
]

# 8-point production rule and a separate 7-point rule (no shared nodes) for the
# error self-estimate; |G8 - G7| conservatively bounds the returned G8 error.
_GAUSS_HI = np.polynomial.legendre.leggauss(8)
_GAUSS_LO = np.polynomial.legendre.leggauss(7)
_RULES = (_GAUSS_HI, _GAUSS_LO)

# Cells per row block of the quadrature walk: one block's node arrays stay a few MB.
_BLOCK_CELLS = 1024


@dataclass(frozen=True)
class Mesh:
    """Centered periodic square lattice with mesh size ``h`` and ``N`` sites per axis.

    Site indices run over ``n in {-N/2, ..., N/2 - 1}**d`` so the box
    ``[-L/2, L/2)**d`` with ``L = N*h`` is tiled exactly by the cells
    ``prod_j [h*n_j, h*(n_j+1))``.
    """

    d: int
    h: float
    N: int

    def __post_init__(self):
        if self.d not in (1, 2):
            raise ValueError(f"dimension must be 1 or 2, got {self.d}")
        if not 0 < self.h < np.inf:
            raise ValueError(f"mesh size must be finite and positive, got {self.h!r}")
        if self.N < 4 or self.N % 2:
            raise ValueError(f"N must be even and >= 4, got {self.N}")

    @property
    def L(self) -> float:
        """Period of the box."""
        return self.N * self.h

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.N,) * self.d

    @property
    def indices(self) -> np.ndarray:
        """Centered site indices along one axis."""
        return np.arange(-self.N // 2, self.N // 2)

    def site_coords(self) -> np.ndarray:
        """Coordinates of the cell corners ``h*n``, shape ``(*shape, d)``."""
        return _cell_points([self.h * self.indices] * self.d)

    def compatible(self, other: "Mesh") -> bool:
        return self.d == other.d and self.N == other.N and abs(self.h - other.h) <= 1e-14 * self.h


@dataclass(frozen=True)
class LatticeField:
    """Complex values on mesh sites; simultaneously the step function they embed to.

    ``values`` has shape ``mesh.shape + (channels,)`` with the channel axis
    always present (1 for scalars, 2 for spinors).
    """

    mesh: Mesh
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex)
        expected = self.mesh.shape
        if vals.shape[: self.mesh.d] != expected or vals.ndim != self.mesh.d + 1:
            raise ValueError(f"values shape {vals.shape} incompatible with mesh {expected}")
        if vals.shape[-1] not in (1, 2):
            raise ValueError(f"channel count must be 1 or 2, got {vals.shape[-1]}")
        if not np.isfinite(vals).all():
            raise ValueError("field values must be finite")
        object.__setattr__(self, "values", vals)

    @property
    def channels(self) -> int:
        return self.values.shape[-1]


@dataclass(frozen=True)
class ContinuumFunction:
    """Closed-form test function with declared Fourier data and decay metadata.

    Attributes
    ----------
    evaluate : callable
        Maps points of shape ``(..., d)`` to values of shape ``(..., channels)``.
    factors : tuple of callables, optional
        Declared for a separable function: one callable per axis, mapping a
        coordinate array of any shape to values of shape ``(..., channels)``,
        whose channel-wise product is the function (``evaluate`` must agree).
        `sample` and the cell quadrature then evaluate each factor on its
        axis's ``O(N q)`` coordinates and form outer products, which feed the
        same 8-vs-7-point Gauss checks (`_grid_values`); in 2D, `project` and
        the projection errors take outer products of 1D cell averages
        instead (`_separable_quadrature`).  Anything but ``d`` callables
        raises `ValueError`.
    fourier : ContinuumFunction or callable, optional
        Closed-form forward Fourier transform with the unitary
        ``(2*pi)**(-d/2)`` convention, stored as a frequency-side
        `ContinuumFunction` of this ``d`` and ``channels`` (a declared one of
        another ``d`` or channel count raises `ValueError`); a plain callable
        on stacked points is wrapped, without factors, under this ``name``
        and ``sup_norm``.  Every consumer samples it through `_grid_values`.
    inverse_fourier : ContinuumFunction or callable, optional
        Closed-form inverse transform of a frequency-side entry, stored as
        ``fourier`` is.
    breakpoints : tuple of arrays, optional
        One array per axis of kink coordinates where the function is continuous
        but not smooth; cell quadrature cuts a cell at the kinks strictly
        inside it (`_axis_rules`).
        Stored sorted; anything but ``d`` finite 1-D arrays raises `ValueError`.
    sup_norm : float
        Declared sup of the pointwise 2-norm; quadrature tolerances are
        relative to ``max(1, sup_norm)``.
    support_inf : float, optional
        Half-width in the sup norm of the frequency-side support, when that
        is compact: of ``fourier`` for a function on space, of the function
        itself for one on frequencies.  `fourier._tail_integral` takes a
        spectrum declared inside ``[-b, b]**d`` as zero outside it, and
        `inverse_ft_error` requires it inside the frequency box.
    """

    name: str
    d: int
    channels: int
    evaluate: Callable[[np.ndarray], np.ndarray]
    fourier: Optional[Callable[[np.ndarray], np.ndarray]] = None
    inverse_fourier: Optional[Callable[[np.ndarray], np.ndarray]] = None
    breakpoints: Optional[tuple[np.ndarray, ...]] = None
    sup_norm: float = 1.0
    support_inf: Optional[float] = None
    factors: Optional[tuple[Callable[[np.ndarray], np.ndarray], ...]] = None

    def __post_init__(self):
        if self.factors is not None:
            if not isinstance(self.factors, (tuple, list)) or len(self.factors) != self.d \
                    or not all(callable(f) for f in self.factors):
                raise ValueError(f"factors must be {self.d} callables, one per axis")
            object.__setattr__(self, "factors", tuple(self.factors))
        if self.breakpoints is not None:
            kinks = tuple(np.asarray(b, dtype=float) for b in self.breakpoints)
            if len(kinks) != self.d or any(b.ndim != 1 or not np.isfinite(b).all() for b in kinks):
                raise ValueError(f"breakpoints must be {self.d} one-dimensional arrays of finite kinks")
            object.__setattr__(self, "breakpoints", tuple(np.sort(b) for b in kinks))
        for field in ("fourier", "inverse_fourier"):
            other = getattr(self, field)
            if other is not None and not isinstance(other, ContinuumFunction):
                object.__setattr__(self, field, ContinuumFunction(self.name, self.d, self.channels, other,
                                                                  sup_norm=self.sup_norm))
            elif other is not None and (other.d, other.channels) != (self.d, self.channels):
                raise ValueError(f"{self.name} is {self.d}D with {self.channels} channels, its {field} is "
                                 f"{other.d}D with {other.channels}")

    def __call__(self, points: np.ndarray) -> np.ndarray:
        return self.evaluate(points)


# ---------------------------------------------------------------------------
# grid transfers


def sample(phi: ContinuumFunction, mesh: Mesh) -> LatticeField:
    """Pointwise samples ``phi(h*n)`` interpreted as the step function ``phi_h``."""
    _require_dimension(phi, mesh)
    return LatticeField(mesh, _grid_values(phi, [mesh.h * mesh.indices] * mesh.d)())


def _require_dimension(phi: ContinuumFunction, mesh: Mesh):
    """Raise `MeshMismatch` unless ``phi`` has the dimension of ``mesh``."""
    if phi.d != mesh.d:
        raise MeshMismatch(f"function is {phi.d}-dimensional, mesh is {mesh.d}-dimensional")


def _require_channels(phi: ContinuumFunction, values: np.ndarray) -> np.ndarray:
    """``values`` computed from ``phi``; `ValueError` unless their last axis is ``phi.channels`` long."""
    got = values.shape[-1]
    if got != phi.channels:  # one channel would broadcast into two
        raise ValueError(f"{phi.name} declares {phi.channels} channels, evaluates to {got}")
    return values


def _for_row_blocks(mesh: Mesh, block_fn) -> list:
    """``block_fn`` of each slice of whole cell rows, about `_BLOCK_CELLS` cells each, in order."""
    step = max(1, _BLOCK_CELLS // mesh.N ** (mesh.d - 1))
    return [block_fn(slice(r, min(r + step, mesh.N))) for r in range(0, mesh.N, step)]


def _axis_rules(phi: ContinuumFunction, mesh: Mesh, rule) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per-axis ``(nodes, weights)`` of ``rule`` on every cell, each of shape ``(N, P*q)``.

    Each cell is cut at the declared kinks of its axis strictly inside it and
    the rule runs on every piece; ``P`` is one more than the most kinks inside
    one cell, and a cell with fewer is padded with empty pieces of weight 0.
    Offsets from the cell corner keep a kinkless axis bit-identical to the
    plain per-cell rule.  The weights average over the cell.
    """
    nodes, weights = rule
    corners = (mesh.h * mesh.indices)[:, None]
    out = []
    for j in range(mesh.d):
        kinks = () if phi.breakpoints is None else phi.breakpoints[j]
        edges = np.clip(np.hstack([-np.inf, kinks, np.inf]) - corners, 0.0, mesh.h)
        # kinks outside a cell clip to its ends: sort them to the right end, then drop the columns
        # past one more than the most edges short of it (the corner and the kinks inside)
        edges[:, 1:] = np.sort(np.where(edges[:, 1:] > 0.0, edges[:, 1:], mesh.h), axis=1)
        edges = edges[:, : 1 + np.max(np.sum(edges < mesh.h, axis=1))]
        start, width = edges[:, :-1, None], np.diff(edges, axis=1)[:, :, None]
        x = corners[:, :, None] + (start + width * 0.5 * (nodes + 1.0))
        w = width / mesh.h * (weights / 2.0)
        out.append((x.reshape(mesh.N, -1), w.reshape(mesh.N, -1)))
    return out


def _multiply(arrays) -> np.ndarray:
    """``arrays[0] * arrays[1] * ...``, left to right: the one product of per-axis values."""
    out = arrays[0]
    for a in arrays[1:]:
        out = out * a
    return out


def _tensor_axes(arrays, shared: int = 0) -> list[np.ndarray]:
    """``arrays`` reshaped to broadcast over the tensor grid of their own axes.

    Array ``j`` keeps its own axes (all but its last ``shared``) in the place
    of axis ``j`` of the grid, with size 1 along the other arrays' own axes;
    the last ``shared`` axes (a channel axis) stay last and common.
    """
    own = [np.ndim(a) - shared for a in arrays]
    return [np.reshape(a, (1,) * sum(own[:j]) + np.shape(a)[: own[j]] + (1,) * sum(own[j + 1:])
                       + np.shape(a)[own[j]:]) for j, a in enumerate(arrays)]


def _cell_points(coords) -> np.ndarray:
    """Points of the tensor grid of the per-axis coordinate arrays ``coords``, stacked on a last axis.

    For the per-cell nodes of `_axis_rules` in ``n`` rows the shape is ``(n, q, 1)``
    in 1D and ``(n, q, N, q, 2)`` in 2D; the leading axis of each ``(cells, q)``
    pair indexes the cell, the other the node.
    """
    return np.stack(np.broadcast_arrays(*_tensor_axes(coords)), axis=-1)


def _grid_values(phi: ContinuumFunction, coords):
    """``values(rows)``: ``phi`` on the tensor grid of ``coords[0][rows]``, ``coords[1]``, ...

    The shape is that of `_cell_points` with ``channels`` for its last axis.
    A function with ``factors`` has each factor evaluated here, once, on its
    axis's coordinates, and every call forms the outer product: the same
    element-wise products as its ``evaluate`` on the stacked points, which any
    other function is given on every call.
    """
    if phi.factors is None:
        def values(rows=slice(None)):
            return _require_channels(phi, phi(_cell_points([coords[0][rows], *coords[1:]])))
    else:
        axes = _axis_values(phi, coords)

        def values(rows=slice(None)):
            return _outer([axes[0][rows], *axes[1:]])
    return values


def _axis_values(phi: ContinuumFunction, coords) -> list[np.ndarray]:
    """Each factor of ``phi`` on its axis's coordinates ``coords[j]``, with a last channel axis."""
    return [_require_channels(phi, f(c)) for f, c in zip(phi.factors, coords)]


def _outer(axes) -> np.ndarray:
    """Channel-wise outer product of per-axis values: a separable function on their tensor grid."""
    return _multiply(_tensor_axes(axes, shared=1))


def _block_means(vals: np.ndarray, axes, rows: slice) -> np.ndarray:
    """Per-cell averages of node values laid out like `_cell_points`, with the weights of ``axes``."""
    if len(axes) == 1:
        return np.einsum("nqc,nq->nc", vals, axes[0][1][rows])
    return np.einsum("aqbrc,aq,br->abc", vals, axes[0][1][rows], axes[1][1])


def _cell_quadrature(phi: ContinuumFunction, mesh: Mesh, gaps=(), means: bool = False) -> list:
    """8- and 7-point Gauss cell averages from one evaluation of ``phi`` per rule (`_grid_values`).

    Returns ``(G8, G7)`` pairs of full per-cell arrays: first the averages of
    ``phi`` itself when ``means`` is set, then, for each entry ``v`` of ``gaps``,
    the averages of the squared gap ``|phi - v|**2``.  An entry is an array of
    site values, or None for the 8-point averages of ``phi`` on each cell.
    Cells are cut at declared kinks through the weights of `_axis_rules`.
    """
    rules = [_axis_rules(phi, mesh, rule) for rule in _RULES]
    grid_values = [_grid_values(phi, [x for x, _ in axes]) for axes in rules]
    need_own = means or any(v is None for v in gaps)
    own = [np.empty(mesh.shape + (phi.channels,), complex) for _ in _RULES if need_own]
    gap_means = [[np.empty(mesh.shape + (1,)) for _ in _RULES] for _ in gaps]

    def block(rows):
        vals = [values(rows) for values in grid_values]
        if need_own:
            for out, v, axes in zip(own, vals, rules):
                out[rows] = _block_means(v, axes, rows)
        for outs, values in zip(gap_means, gaps):
            values = own[0] if values is None else values
            cell_values = _broadcast_cell_values(values[rows], mesh.d)
            for out, v, axes in zip(outs, vals, rules):
                out[rows] = _block_means(_gap_sq(v, cell_values), axes, rows)

    _for_row_blocks(mesh, block)
    return ([tuple(own)] if means else []) + [tuple(outs) for outs in gap_means]


def _separable_quadrature(phi: ContinuumFunction, mesh: Mesh, gaps=()) -> list:
    """`_cell_quadrature` with ``means`` set, for a 2D ``phi`` with ``factors``, from 1D averages.

    Each factor is evaluated once per rule on its axis's nodes of `_axis_rules`, and
    the cell means are outer products of the 1D means.  A ``gaps`` entry is a pair
    ``(p, q)`` of per-axis values, each ``(N, channels)``, whose channel-wise outer
    product is the cell value, or None for the 8-point 1D means.  For a channel
    ``f(x) g(y)`` the cell average of ``|f g - p q|**2`` is
    ``avg|f - p|**2 avg|g|**2 + |p|**2 avg|g - q|**2 + 2 Re[avg((f - p) conj(p)) avg(g conj(g - q))]``,
    and channels add.  Every pair holds full per-cell arrays, as from `_cell_quadrature`.
    """
    def avg(v, w):
        return np.einsum("nqc,nq->nc", v, w)

    def abs2(v):
        return v.real**2 + v.imag**2

    own, pairs = None, []
    for rule in _RULES:
        (x, wx), (y, wy) = _axis_rules(phi, mesh, rule)
        f, g = _axis_values(phi, [x, y])
        means = [avg(f, wx), avg(g, wy)]
        own = means if own is None else own
        out, g2 = [_outer(means)], avg(abs2(g), wy)
        for p, q in (own if cell is None else cell for cell in gaps):
            fp, gq = f - p[:, None], g - q[:, None]
            gap = (_outer([avg(abs2(fp), wx), g2]) + _outer([abs2(p), avg(abs2(gq), wy)])
                   + 2 * _outer([avg(fp, wx) * np.conj(p), avg(g * np.conj(gq), wy)]).real)
            out.append(np.sum(gap, axis=-1))
        pairs.append(out)
    return list(zip(*pairs))


def _checked(pair, bound: float, what: str) -> np.ndarray:
    """The G8 half of ``pair``; `QuadratureFailure` when ``max |G8 - G7|`` exceeds ``bound`` or is not finite."""
    hi, lo = pair
    est = np.max(np.abs(hi - lo))
    if not est <= bound:
        raise QuadratureFailure(f"{what} self-estimate {est:.3e} above tolerance")
    return hi


def _cell_averages(phi: ContinuumFunction, mesh: Mesh, pair) -> LatticeField:
    """Checked cell averages as a field; the bound is ``1e-10 * max(1, sup_norm)``."""
    return LatticeField(mesh, _checked(pair, 1e-10 * max(1.0, phi.sup_norm), "cell-average"))


def project(phi: ContinuumFunction, mesh: Mesh) -> LatticeField:
    """Orthogonal projection onto step functions: per-cell averages of ``phi``.

    Uses fixed 8-point tensor Gauss-Legendre per cell, with cells cut at
    declared kinks so piecewise-smooth catalog entries integrate exactly.
    Raises `QuadratureFailure` when the 7-vs-8-point Gauss-Legendre
    estimate exceeds ``1e-10 * max(1, sup_norm)``.  A 2D function with
    ``factors`` gets outer products of 1D averages (`_separable_quadrature`);
    any other is integrated in row blocks (see the module docstring).
    `exp_projection` gets these averages from the same node values as its
    error integrals.
    """
    _require_dimension(phi, mesh)
    if _separable(phi):
        (pair,) = _separable_quadrature(phi, mesh)
    else:
        (pair,) = _cell_quadrature(phi, mesh, means=True)
    return _cell_averages(phi, mesh, pair)


def _separable(phi: ContinuumFunction) -> bool:
    """Whether `project` and `_projection_errors` take the per-axis path for ``phi``."""
    return phi.factors is not None and phi.d == 2


# ---------------------------------------------------------------------------
# norms and point evaluation


def _check_pair(f: LatticeField, g: LatticeField):
    if not f.mesh.compatible(g.mesh) or f.channels != g.channels:
        raise MeshMismatch("fields live on different meshes or channel counts")


def norm_l2(f: LatticeField) -> float:
    """L2 norm of the embedded step function: ``(h**d * sum |f|**2)**0.5``."""
    return float(np.sqrt(f.mesh.h**f.mesh.d * np.sum(np.abs(f.values) ** 2)))


def norm_little_l2(f: LatticeField) -> float:
    """Little-l2 norm of the site values, ``h**(-d/2)`` times `norm_l2`."""
    return float(np.sqrt(np.sum(np.abs(f.values) ** 2)))


def inner(f: LatticeField, g: LatticeField) -> complex:
    """L2 inner product of step functions, ``h**d * sum f * conj(g)``."""
    _check_pair(f, g)
    return complex(f.mesh.h**f.mesh.d * np.sum(f.values * np.conj(g.values)))


def evaluate_step(f: LatticeField, x) -> np.ndarray:
    """Value of the step function at ``x``: the unique half-open cell containing it."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    mesh = f.mesh
    if x.shape != (mesh.d,):
        raise ValueError(f"point must have shape ({mesh.d},)")
    if not np.all(np.isfinite(x)):
        raise OutOfDomain(f"point {x} is not finite")
    n = np.floor(x / mesh.h).astype(int)
    if np.any(n < -mesh.N // 2) or np.any(n > mesh.N // 2 - 1):
        raise OutOfDomain(f"point {x} outside the box [-L/2, L/2)^d")
    idx = tuple(n + mesh.N // 2)
    return f.values[idx]


# ---------------------------------------------------------------------------
# continuum-vs-step error measures


def l2_error_vs_continuum(f: LatticeField, phi: ContinuumFunction) -> float:
    """L2-over-the-box norm of ``J_h f - phi``, by per-cell Gauss quadrature.

    The integrand is smooth on each piece of a cell cut at declared kinks, so
    the fixed-order rule resolves it to well below the tolerances used in tests;
    the 7-vs-8-point Gauss-Legendre self-estimate guards against misuse.  The
    cells are integrated in row blocks (see the module docstring);
    `exp_projection` evaluates ``phi`` at the nodes once per level for this
    integral, the one of the projection and `project` itself.
    """
    _require_dimension(phi, f.mesh)
    if f.channels != phi.channels:
        raise MeshMismatch(f"field has {f.channels} channels, {phi.name} declares {phi.channels}")
    (pair,) = _cell_quadrature(phi, f.mesh, [f.values])
    return _error_norm(pair, f.values, phi, f.mesh)


def _projection_errors(phi: ContinuumFunction, mesh: Mesh) -> tuple[float, float]:
    """``l2_error_vs_continuum`` of ``sample(phi, mesh)`` and of ``project(phi, mesh)``.

    Both errors and the projection come from one evaluation of ``phi`` per
    Gauss rule, on the path `project` takes.  Where that is the row-block walk,
    the results are bit-identical to the separate calls; on the per-axis path
    they agree to rounding.  Either way the first failure raised is that of the
    separate calls: the sampling error-norm check, then the cell-average check,
    then the projection error-norm check.
    """
    if _separable(phi):
        corners = _axis_values(phi, [mesh.h * mesh.indices] * 2)
        f = LatticeField(mesh, _outer(corners))  # sample(phi, mesh), from the same corner values
        means, sampling, projection = _separable_quadrature(phi, mesh, [corners, None])
    else:
        f = sample(phi, mesh)
        means, sampling, projection = _cell_quadrature(phi, mesh, [f.values, None], means=True)
    samp = _error_norm(sampling, f.values, phi, mesh)
    p = _cell_averages(phi, mesh, means)
    return samp, _error_norm(projection, p.values, phi, mesh)


def _error_norm(pair, values: np.ndarray, phi: ContinuumFunction, mesh: Mesh) -> float:
    """L2 norm of ``J_h f - phi`` from the squared-gap averages ``pair`` of site values of ``f``."""
    scale = max(1.0, (phi.sup_norm + float(np.max(np.abs(values)))) ** 2)
    means = _checked(pair, 1e-10 * scale, "error-norm")
    return float(np.sqrt(np.real(np.sum(means)) * mesh.h**mesh.d))


def _gap_sq(vals: np.ndarray, cell_values: np.ndarray) -> np.ndarray:
    """Squared pointwise 2-norm of ``vals - cell_values``, keeping a unit channel axis."""
    return np.sum(np.abs(vals - cell_values) ** 2, axis=-1, keepdims=True)


def _broadcast_cell_values(values: np.ndarray, d: int) -> np.ndarray:
    """Site values laid out like `_cell_points`, constant across the in-cell node axes."""
    return values[:, None, :] if d == 1 else values[:, None, :, None, :]


# ---------------------------------------------------------------------------
# test-function catalog


def _product(factors) -> Callable[[np.ndarray], np.ndarray]:
    """Points ``(..., d)`` to the channel-wise product ``f_0(x_0) * ... * f_{d-1}(x_{d-1})``."""
    return lambda points: _multiply([f(points[..., j]) for j, f in enumerate(factors)])


def _tensor(name: str, channels: int, factors, **declared) -> ContinuumFunction:
    """The separable function with per-axis ``factors``; ``evaluate`` is their product.

    ``declared`` passes on the closed-form transforms and the metadata of
    `ContinuumFunction`.
    """
    return ContinuumFunction(name=name, d=len(factors), channels=channels, evaluate=_product(factors),
                             factors=tuple(factors), **declared)


def _first_axis(amplitude: complex, d: int) -> tuple:
    """Per-axis scales of a product whose amplitude is carried by the first axis."""
    return (amplitude,) + (1.0,) * (d - 1)


def _pair(name: str, axes, **declared) -> ContinuumFunction:
    """The separable scalar function of per-axis ``(space, frequency)`` factor pairs ``axes``.

    Its ``fourier`` is the separable function of the frequency factors.
    """
    space, frequency = zip(*axes)
    return _tensor(name, 1, space, fourier=_tensor(name, 1, frequency), **declared)


def _point(d: int, value, what: str) -> np.ndarray:
    """``value`` as ``d`` finite coordinates, zeros if None; anything else raises `ValueError`."""
    x = np.zeros(d) if value is None else np.asarray(value, dtype=float)
    if x.shape != (d,) or not np.isfinite(x).all():
        raise ValueError(f"{what} must be {d} finite numbers, got {value!r}")
    return x


def _require_rate(a: float):
    """Raise `ValueError` unless the Gaussian decay rate ``a`` is finite and positive."""
    if not 0 < a < np.inf:
        raise ValueError(f"gaussian decay rate must be finite and positive, got {a!r}")


def gaussian(d: int, a: float = 1.0, amplitude: complex = 1.0, center=None) -> ContinuumFunction:
    """Isotropic Gaussian ``A * exp(-a*|x - x0|**2)`` with closed-form transform."""
    _require_rate(a)

    def axis(c, amp):
        return (lambda x: (amp * np.exp(-a * (x - c) ** 2))[..., None],
                lambda q: (amp * (2 * a) ** -0.5 * np.exp(-q**2 / (4 * a)) * np.exp(-1j * q * c))[..., None])

    return _pair(f"gaussian{d}d", map(axis, _point(d, center, "center"), _first_axis(amplitude, d)),
                 sup_norm=abs(amplitude))


def modulated_gaussian(d: int, a: float = 1.0, k0=None, amplitude: complex = 1.0) -> ContinuumFunction:
    """Gaussian-modulated plane wave ``A * exp(i*k0.x) * exp(-a*|x|**2)``."""
    _require_rate(a)

    def axis(k, amp):
        return (lambda x: (amp * np.exp(1j * k * x) * np.exp(-a * x**2))[..., None],
                lambda q: (amp * (2 * a) ** -0.5 * np.exp(-(q - k) ** 2 / (4 * a)))[..., None])

    return _pair(f"modwave{d}d", map(axis, _point(d, k0, "k0"), _first_axis(amplitude, d)),
                 sup_norm=abs(amplitude))


def _stack_channels(entries: Sequence[ContinuumFunction], name: str) -> ContinuumFunction:
    """The separable scalar ``entries`` as the channels of one separable function.

    Each factor stacks the entries' factors of its axis, the factors of the
    transform likewise when every entry declares one, and each axis carries
    every entry's kinks.
    """
    d = entries[0].d

    def stack(parts):
        return [lambda x, fs=fs: np.concatenate([f(x) for f in fs], axis=-1) for fs in zip(*parts)]

    kinked = [e.breakpoints for e in entries if e.breakpoints is not None]
    support = None
    if all(e.support_inf is not None for e in entries):
        support = max(e.support_inf for e in entries)
    fourier = None
    if all(e.fourier is not None for e in entries):
        fourier = _tensor(name, len(entries), stack([e.fourier.factors for e in entries]))
    return _tensor(
        name, len(entries), stack([e.factors for e in entries]), fourier=fourier,
        breakpoints=tuple(np.unique(np.hstack([b[j] for b in kinked])) for j in range(d)) if kinked else None,
        sup_norm=float(np.hypot(*[e.sup_norm for e in entries])),
        support_inf=support,
    )


def gaussian_spinor(d: int = 2, widths=(1.0, 1.3), amps=(1.0, 0.6)) -> ContinuumFunction:
    """Two-channel Gaussian with distinct widths and amplitudes per channel."""
    parts = [gaussian(d, a=w, amplitude=c) for w, c in zip(widths, amps)]
    return _stack_channels(parts, "gaussian-spinor")


def hat(width: float = 0.5) -> ContinuumFunction:
    """Symmetric 1D trapezoid: plateau ``width`` on ``[-w, w]``, ramps to 0 at ``|x| = 2w``.

    Equals the convolution of the indicators of ``[-3w/2, 3w/2]`` and
    ``[-w/2, w/2]``, which gives the closed-form transform below.  Kinks at
    ``+-w, +-2w`` are declared so quadrature cuts cells there.
    """
    w = float(width)
    if not 0 < w < np.inf:
        raise ValueError(f"hat width must be finite and positive, got {width!r}")

    def space(x):
        return np.where(np.abs(x) <= w, w, np.maximum(0.0, 2 * w - np.abs(x)))[..., None]

    def fourier(q):
        val = (2 * np.pi) ** -0.5 * 4 * (1.5 * w) * (0.5 * w) \
            * np.sinc(1.5 * w * q / np.pi) * np.sinc(0.5 * w * q / np.pi)
        return val.astype(complex)[..., None]

    return _pair("hat", [(space, fourier)], breakpoints=(np.array([-2 * w, -w, w, 2 * w]),), sup_norm=w)


def _cos_power_window(R: float, p: int):
    """Closed-form pair for the 1D window ``cos(pi*xi/(2R))**(2p)`` on ``[-R, R]``.

    Returns ``(window, transform)`` where ``transform`` is the inverse
    Fourier transform of the window (equivalently, the window is the
    forward transform of ``transform``; both are even and real).  Raises
    `ValueError` unless ``R`` is finite and positive.
    """
    from math import comb

    if not 0 < R < np.inf:
        raise ValueError(f"window half-width R must be finite and positive, got {R!r}")

    coeffs = np.array([comb(2 * p, q) for q in range(2 * p + 1)], dtype=float) / 4.0**p
    omegas = np.array([(p - q) * np.pi / R for q in range(2 * p + 1)])

    def window(q):
        out = np.where(np.abs(q) <= R, np.cos(np.pi * q / (2 * R)) ** (2 * p), 0.0)
        return out

    def transform(x):
        # accumulate term by term; a points-by-terms temporary would be large
        out = np.zeros(np.shape(x), dtype=float)
        for c, w in zip(coeffs, omegas):
            out += c * 2.0 * R * np.sinc(R * (x + w) / np.pi)
        return (2 * np.pi) ** -0.5 * out

    return window, transform


def bandlimited(d: int, R: float, p: int = 8, k0=None, amplitude: complex = 1.0) -> ContinuumFunction:
    """Band-limited spatial function whose transform is a tensor cosine-power window.

    The transform is supported in ``[-R, R]**d`` (shifted by ``k0``), is
    ``C^(2p-1)``, and the spatial profile decays like ``|x|**-(2p+1)``.
    """
    window, transform = _cos_power_window(R, p)
    k0 = _point(d, k0, "k0")

    def axis(k, amp):
        return (lambda x: (amp * np.exp(1j * k * x) * transform(x))[..., None],
                lambda q: (amp * window(q - k))[..., None])

    return _pair(f"bandlimited{d}d", map(axis, k0, _first_axis(amplitude, d)),
                 sup_norm=abs(amplitude) * float(transform(np.zeros(1))[0]) ** d,
                 support_inf=float(np.max(np.abs(k0)) + R))


def bandlimited_spinor(d: int = 2, R: float = np.pi / 0.8, p: int = 8) -> ContinuumFunction:
    parts = [bandlimited(d, R, p), bandlimited(d, R, p, amplitude=0.5)]
    return _stack_channels(parts, "bandlimited-spinor")


def freq_window(d: int, R: float, p: int = 8) -> ContinuumFunction:
    """Frequency-side tensor cosine-power window with closed-form inverse transform.

    The inverse transform is the spatial tensor of the per-axis transforms, with
    the window's ``sup_norm`` of 1.0 (the tolerance of `inverse_ft_error`'s check).
    """
    window, transform = _cos_power_window(R, p)
    spatial = _tensor(f"ift-freqbump{d}d", 1, [lambda x: transform(x)[..., None]] * d, sup_norm=1.0)
    return _tensor(f"freqbump{d}d", 1, [lambda q: window(q)[..., None]] * d,
                   inverse_fourier=spatial, sup_norm=1.0, support_inf=R)


_DEFAULT_BUMP_R = np.pi / 0.8  # fits inside the frequency box of the coarsest default mesh

# the closed catalog of test functions addressable by id (used by the CLI)
_FUNCTIONS = {
    "gaussian1d": lambda: gaussian(1),
    "gaussian2d": lambda: gaussian(2),
    "modwave2d": lambda: modulated_gaussian(2, a=1.0, k0=(1.0, -0.5)),
    "hat": lambda: hat(0.5),
    "gaussian-spinor": lambda: gaussian_spinor(),
    "bandlimited-spinor": lambda: bandlimited_spinor(),
    "freqbump1d": lambda: freq_window(1, _DEFAULT_BUMP_R),
    "freqbump2d": lambda: freq_window(2, _DEFAULT_BUMP_R),
}
FUNCTION_IDS = tuple(_FUNCTIONS)


def function_catalog(name: str) -> ContinuumFunction:
    """A fresh instance of the catalog's test function ``name``."""
    if name not in _FUNCTIONS:
        raise KeyError(f"unknown test function {name!r}; known ids: {sorted(_FUNCTIONS)}")
    return _FUNCTIONS[name]()
