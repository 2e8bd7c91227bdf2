"""Position-space Dirac operators, resolvents, potentials, and a dense oracle.

The free operator acts on two-channel step fields either by periodic
difference stencils,

    ``[[m, i*d1* + d2*], [-i*d1 + d2, -m]]``,

or spectrally, multiplying the transform by the discrete symbol; the two
paths agree to roundoff on the periodic truncation.  Free resolvents invert
the 2x2 symbol per frequency in closed form: for ``M = [[m, conj(z)], [z, -m]]``
one has ``M**2 = mu**2 * I``, so ``(M - z)**-1 = (M + z) / (mu**2 - z**2)``,
which is the closed-form eigen-decomposition in algebraic disguise and is
well defined for every ``Im z != 0`` including the degenerate massless modes.

Perturbed resolvents solve ``(D + V - z) u = psi`` through the factorization
``u = R_z w`` with ``(I + V R_z) w = psi``, by Neumann iteration when the
contraction ``sup||V|| / |Im z| <= 0.9`` is certified and by a restarted
residual-minimizing Krylov iteration otherwise, both in complex128 and both
certified by one residual test (`_iterate`, the solve on one mesh).  The
continuum symbol does not depend on the mesh size, so the nested continuum
solve (`_solve_with_potential`) takes the continuum right-hand side itself:
on a mesh with ``N % 4 == 0`` it first solves the same problem on the even
sites (the half mesh of the same box) and interpolates that solution
spectrally.  The fine sites are four cosets of row and column parity, each a
copy of the half mesh, so the interpolant and ``D`` applied to it are formed
one coset at a time by half-size inverse transforms, with the right-hand
side evaluated on each coset (`_coset_start`).  Each coset is added into the
cell sums of a mesh ``refine`` times coarser, the interpolant's when it
passes the fine mesh's own residual test, and otherwise those of the
solution iterated from it; no level slices a finer field.
A dense matrix of the full operator (small lattices only) serves as the
cross-validation oracle.

Fourier multipliers work channel-first: the two spinor channels are held as
one contiguous ``(2, *sites)`` array, transformed over the site axes by
`fourier._fftn` (the library's one FFT entry point) and multiplied in place
one block of rows at a time.  Every multiplier holds only the per-axis terms
of ``zeta`` on the dual grid (`_Multiplier`); ``zeta`` and the coefficients of
a block are formed from them when the block is multiplied, on every apply, so
no grid-sized symbol or coefficient array is ever stored.  The perturbed
solves treat the potential the same way: ``V`` is evaluated at the sites of
each block of rows (of the mesh, or of one coset) just before it multiplies
that block, so they hold no grid-sized potential array either;
`sample_potential` samples the whole mesh for `apply_dirac` and
`dense_matrix`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import (
    AxisOutOfRange,
    MeshMismatch,
    NoConvergence,
    NotInResolventRegion,
    TooLarge,
)
from .fourier import FrequencyGrid, SpectralField, _fftn, _grid_step_factor, dft, idft, sample_spectrum
from .grid import ContinuumFunction, LatticeField, Mesh, _cell_points, _grid_values, _require_dimension, norm_l2, sample
# zeta_discrete is unused here; perfbench/spans.py times calls through this name
from .symbols import DiracParams, _require_complex_shift, _require_mass, _zeta_terms, opnorm_2x2, zeta_discrete

__all__ = [
    "PotentialSpec",
    "ResolventQuery",
    "StripReport",
    "diff_forward",
    "diff_backward",
    "apply_dirac",
    "resolvent_free",
    "resolvent_continuum",
    "resolvent_with_potential",
    "dense_matrix",
    "spectra_strip_check",
    "sample_potential",
    "split_hermitian",
    "block_average",
    "field_to_vec",
    "vec_to_field",
    "potential_catalog",
    "POTENTIAL_IDS",
]


# ---------------------------------------------------------------------------
# potentials


@dataclass(frozen=True)
class PotentialSpec:
    """Bounded, uniformly continuous 2x2 matrix potential with declared bounds.

    ``matrix_fn`` maps points ``(..., 2)`` to matrices ``(..., 2, 2)``;
    ``sup_norm`` bounds the pointwise spectral norm and ``skew_bound`` the
    spectral norm of the skew-Hermitian part (the theorem region is
    ``|Im z| > skew_bound``).
    """

    name: str
    matrix_fn: Callable[[np.ndarray], np.ndarray]
    sup_norm: float
    skew_bound: float

    def __call__(self, points: np.ndarray) -> np.ndarray:
        return self.matrix_fn(points)


def _potential_values(V: PotentialSpec, points: np.ndarray) -> np.ndarray:
    """``V`` at ``points`` of shape ``(..., 2)``.

    Raises `ValueError`, naming the potential, unless the values have the shape
    ``points.shape[:-1] + (2, 2)``.
    """
    values = V(points)
    expected = points.shape[:-1] + (2, 2)
    if np.shape(values) != expected:
        raise ValueError(f"potential {V.name!r} gave samples of shape {np.shape(values)}, expected {expected}")
    return values


def sample_potential(V: PotentialSpec, mesh: Mesh) -> np.ndarray:
    """Sitewise samples ``V(h*n)``, the step-function potential on the mesh.

    Raises `ValueError` unless the samples have the shape ``(*mesh.shape, 2, 2)``.
    """
    if mesh.d != 2:
        raise MeshMismatch("matrix potentials are defined on 2D meshes")
    return _potential_values(V, mesh.site_coords())


def split_hermitian(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Hermitian and skew parts ``(V_R, V_I)`` with ``M = V_R + i*V_I``."""
    Mh = np.conj(np.swapaxes(M, -1, -2))
    return (M + Mh) / 2.0, (M - Mh) / 2.0j


def _envelope_potential(name: str, matrix: np.ndarray, rate: float) -> PotentialSpec:
    """Potential ``exp(-rate*|x|**2) * M``; rate 0 gives the constant ``M`` exactly."""
    matrix = np.asarray(matrix, dtype=complex)

    def matrix_fn(points):
        # the complex products of ``env[..., None, None] * matrix``, one entry at a time into
        # contiguous memory (the broadcast's inner loop runs over two entries), returned as
        # the ``(..., 2, 2)`` view of a ``(2, 2, ...)`` array
        env = np.exp(-rate * (points[..., 0] ** 2 + points[..., 1] ** 2)).astype(complex)
        out = np.empty((2, 2) + env.shape, dtype=complex)
        for a in range(2):
            for b in range(2):
                np.multiply(env, matrix[a, b], out=out[a, b])
        return np.moveaxis(out, (0, 1), (-2, -1))

    herm, skew = split_hermitian(matrix)
    return PotentialSpec(
        name=name,
        matrix_fn=matrix_fn,
        sup_norm=float(opnorm_2x2(matrix)),
        skew_bound=float(opnorm_2x2(skew)),
    )


# the closed catalog of potentials addressable by id (used by the CLI)
_POTENTIALS = {
    "zero": lambda: _envelope_potential("zero", np.zeros((2, 2)), 0.0),
    "const-hermitian": lambda: _envelope_potential("const-hermitian", np.array([[0.5, 0.2], [0.2, -0.3]]), 0.0),
    "const-shift": lambda: _envelope_potential("const-shift", 2.5 * np.eye(2), 0.0),
    "hermitian-gaussian": lambda: _envelope_potential(
        "hermitian-gaussian", np.array([[1.0, 0.4 - 0.3j], [0.4 + 0.3j, -0.5]]), 1.0
    ),
    "nonhermitian-gaussian": lambda: _envelope_potential(
        "nonhermitian-gaussian", np.array([[0.3 + 1.0j, 0.1], [0.1, -0.2 - 1.0j]]), 1.0
    ),
}
POTENTIAL_IDS = tuple(_POTENTIALS)


def potential_catalog(name: str) -> PotentialSpec:
    """A fresh instance of the catalog's potential ``name``."""
    if name not in _POTENTIALS:
        raise KeyError(f"unknown potential {name!r}; known ids: {sorted(_POTENTIALS)}")
    return _POTENTIALS[name]()


# ---------------------------------------------------------------------------
# difference operators and the Dirac stencil


def _check_operator_mesh(p: DiracParams, mesh: Mesh):
    """Raise `MeshMismatch` unless ``mesh`` is 2D with the mesh size of ``p``."""
    if mesh.d != 2:
        raise MeshMismatch("the Dirac operator acts on 2D meshes")
    if abs(p.h - mesh.h) > 1e-14 * p.h:
        raise MeshMismatch(f"operator mesh size {p.h} differs from mesh size {mesh.h}")


def _check_spinor(psi: LatticeField, p: DiracParams):
    _check_operator_mesh(p, psi.mesh)
    if psi.channels != 2:
        raise MeshMismatch("the Dirac operator acts on two-channel fields")


def diff_forward(f: LatticeField, j: int) -> LatticeField:
    """Forward difference ``(f(h*(n+e_j)) - f(h*n)) / h`` with periodic wrap."""
    if not 0 <= j < f.mesh.d:
        raise AxisOutOfRange(f"axis {j} out of range for dimension {f.mesh.d}")
    out = (np.roll(f.values, -1, axis=j) - f.values) / f.mesh.h
    return LatticeField(f.mesh, out)


def diff_backward(f: LatticeField, j: int) -> LatticeField:
    """Backward difference ``(f(h*(n-e_j)) - f(h*n)) / h``, the adjoint of the forward one."""
    if not 0 <= j < f.mesh.d:
        raise AxisOutOfRange(f"axis {j} out of range for dimension {f.mesh.d}")
    out = (np.roll(f.values, 1, axis=j) - f.values) / f.mesh.h
    return LatticeField(f.mesh, out)


# Sites per block of the in-place multiplier and potential passes: the several
# operations on one block run on cached data instead of each streaming whole arrays.
_BLOCK_SITES = 16384


def _row_blocks(x: np.ndarray):
    """Slices of about `_BLOCK_SITES` sites along the first site axis of channel-first ``x``."""
    n = x.shape[1]
    rows = max(1, _BLOCK_SITES // x[0, 0].size)
    return [slice(r, min(r + rows, n)) for r in range(0, n, rows)]


def _channel_first(values: np.ndarray) -> np.ndarray:
    """Contiguous complex128 ``(channels, *sites)`` copy of channel-last field values, never a view."""
    return np.array(np.moveaxis(values, -1, 0), dtype=np.complex128, order="C")


def _channel_last(x: np.ndarray) -> np.ndarray:
    """Channel-last view of a channel-first array, as `LatticeField` holds values."""
    return np.moveaxis(x, 0, -1)


def _natural_frequencies(mesh: Mesh) -> np.ndarray:
    """Per-axis frequencies of the dual grid of ``mesh`` in natural FFT order."""
    return np.roll(FrequencyGrid(mesh).frequencies, mesh.N // 2)


class _Multiplier:
    """Pointwise 2x2 symbol ``M = [[m, conj(zeta)], [zeta, -m]]``, or ``(M - z)**-1`` given ``z``.

    On the tensor grid of the per-axis frequencies ``f``, ``zeta = rows[i] + cols[j]``
    from the per-axis terms ``f`` and ``1j*f`` (continuum, ``p`` None) or the
    `symbols._zeta_terms` of ``f``, then divided by ``h`` (discrete).  Only these terms
    are stored; ``zeta`` and the coefficients of each block of rows are formed when it
    is multiplied, on every apply, in buffers of one block.
    """

    def __init__(self, f: np.ndarray, p: Optional[DiracParams], m: float, z: Optional[complex] = None):
        if p is None:
            self.h, self.rows, self.cols = None, f.astype(complex), 1j * f
        else:
            self.h = p.h
            self.rows, self.cols = _zeta_terms(f, p.h)
        self.m, self.z = m, z

    def _coefficients(self, blocks: list[slice], shape: tuple[int, int]):
        """Yield ``(s, zeta_s, conj_s)`` on each of ``blocks``: ``1``, ``zeta``, ``conj(zeta)`` for
        ``M``, `_resolvent_coefficients` for ``(M - z)**-1``, in buffers of ``shape`` that are reused."""
        zeta_buf, conj_s, s, zeta_s = (np.empty(shape, complex) for _ in range(4))
        den = np.empty(shape)
        for rows in blocks:
            k = rows.stop - rows.start
            zeta = zeta_buf[:k]
            zeta[...] = self.cols
            zeta += self.rows[rows, None]
            if self.h is not None:
                zeta /= self.h
            if self.z is None:
                yield np.broadcast_to(1.0, zeta.shape), zeta, np.conjugate(zeta, out=conj_s[:k])
            else:
                yield _resolvent_coefficients(zeta, self.m, self.z, s[:k], zeta_s[:k], conj_s[:k], den[:k])

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """Multiply channel-first ``x`` in place, one block of rows at a time, and return it.

        A block is multiplied by ``[[c0 * s, conj_s], [zeta_s, c1 * s]]``, with
        ``c0, c1 = m, -m`` for ``M`` and ``m + z, z - m`` for ``(M - z)**-1``.
        """
        m = float(self.m)  # Python scalars, so a float32 mass cannot narrow ``m + z``
        c0, c1 = (m, -m) if self.z is None else (m + complex(self.z), complex(self.z) - m)
        blocks = _row_blocks(x)
        t0 = np.empty_like(x[0, blocks[0]])
        t1 = np.empty_like(t0)
        for rows, (s, zeta_s, conj_s) in zip(blocks, self._coefficients(blocks, t0.shape)):
            a, b = x[0, rows], x[1, rows]
            out0, out1 = t0[: a.shape[0]], t1[: a.shape[0]]
            np.multiply(s, a, out=out0)
            out0 *= c0
            np.multiply(conj_s, b, out=out1)
            out0 += out1
            np.multiply(zeta_s, a, out=out1)
            np.multiply(s, b, out=a)
            a *= c1
            out1 += a
            a[...] = out0
            b[...] = out1
        return x


def _resolvent_coefficients(zeta, m, z, s, zeta_s, conj_s, den):
    """``s = 1/(|zeta|**2 + m**2 - z**2)``, ``zeta*s`` and ``conj(zeta)*s``, written into the last four.

    ``(M - z)**-1 = (M + z) * s``.  These are the element-wise operations of
    ``1.0 / (np.abs(zeta) ** 2 + m * m - z * z)`` and the two products, done in
    place, so the results are bit-identical to them.
    """
    m, z = float(m), complex(z)
    np.abs(zeta, out=den)
    np.square(den, out=den)
    den += m * m
    np.subtract(den, z * z, out=s)
    np.divide(1.0, s, out=s)
    np.multiply(zeta, s, out=zeta_s)
    np.conjugate(zeta, out=conj_s)
    conj_s *= s
    return s, zeta_s, conj_s


def _multiplier_apply(x: np.ndarray, multiplier: _Multiplier) -> np.ndarray:
    """Fourier multiplier ``ifftn(M fftn(x))`` over the site axes of channel-first ``x``.

    Works in the memory of ``x``, which is overwritten; pass a copy to keep it.
    ``M`` is in natural FFT order.  It commutes with circular shifts, so the
    centring shifts and scalings of `dft`/`idft` cancel.
    """
    axes = tuple(range(1, x.ndim))
    return _fftn(multiplier(_fftn(x, axes)), axes, inverse=True)


def _site_axes(mesh: Mesh) -> list[np.ndarray]:
    """Per-axis site coordinates ``h*n`` of ``mesh``."""
    return [mesh.h * mesh.indices] * mesh.d


def _vmul_blocks(V: PotentialSpec, axes: list[np.ndarray], u: np.ndarray):
    """Yield ``(rows, (V u)[:, rows])`` over row blocks of channel-first ``u``.

    ``u`` lives on the tensor grid of the per-axis coordinates ``axes`` (`_site_axes`
    of a mesh, or of one of its cosets).  ``V`` is evaluated at the sites of each block
    just before it multiplies that block, so no grid-sized potential array is held.
    The yielded block buffer is reused.
    """
    blocks = _row_blocks(u)
    buf = np.empty_like(u[:, blocks[0]])
    tmp = np.empty_like(buf[0])
    for rows in blocks:
        k = rows.stop - rows.start
        vu, t = buf[:, :k], tmp[:k]
        Vb = _potential_values(V, _cell_points([axes[0][rows], axes[1]]))
        for a in range(2):
            np.multiply(Vb[..., a, 0], u[0, rows], out=vu[a])
            np.multiply(Vb[..., a, 1], u[1, rows], out=t)
            vu[a] += t
        yield rows, vu


def _sum_sq(x: np.ndarray) -> float:
    """``sum |x|**2`` over a channel-first block, one channel at a time."""
    return sum(float(np.vdot(c, c).real) for c in x)


def apply_dirac(
    psi: LatticeField,
    p: DiracParams,
    V: Optional[PotentialSpec] = None,
    path: str = "stencil",
) -> LatticeField:
    """Apply the discrete Dirac operator (plus sampled potential) to a spinor field.

    ``path="stencil"`` uses the periodic difference stencils;
    ``path="symbol"`` transforms, multiplies by the discrete symbol, and
    transforms back.  The two agree to roundoff.
    """
    _check_spinor(psi, p)
    if path == "stencil":
        psi0 = LatticeField(psi.mesh, psi.values[..., :1])
        psi1 = LatticeField(psi.mesh, psi.values[..., 1:])
        upper = 1j * diff_backward(psi1, 0).values + diff_backward(psi1, 1).values
        lower = -1j * diff_forward(psi0, 0).values + diff_forward(psi0, 1).values
        out = np.concatenate(
            [p.m * psi.values[..., :1] + upper, lower - p.m * psi.values[..., 1:]], axis=-1
        )
    elif path == "symbol":
        symbol = _Multiplier(_natural_frequencies(psi.mesh), p, p.m)
        out = _channel_last(_multiplier_apply(_channel_first(psi.values), symbol))
    else:
        raise ValueError(f"unknown path {path!r}")
    if V is not None:
        Vh = sample_potential(V, psi.mesh)
        out = out + np.einsum("...ab,...b->...a", Vh, psi.values)
    return LatticeField(psi.mesh, out)


# ---------------------------------------------------------------------------
# resolvents


@dataclass(frozen=True)
class ResolventQuery:
    """Shift, operator parameters, and solver policy for a resolvent solve.

    Raises on construction `RealShift` for a real shift, and `ValueError` for a shift that
    is not finite, an unknown policy, a ``tol`` that is not finite and positive, or
    ``max_iter`` or ``restart`` below 1.
    """

    z: complex
    p: DiracParams
    policy: Optional[str] = None  # None = auto, else neumann | krylov | dense-oracle
    tol: float = 1e-10
    max_iter: int = 2000
    restart: int = 50

    def __post_init__(self):
        _require_complex_shift(self.z)
        if self.policy not in (None, "neumann", "krylov", "dense-oracle"):
            raise ValueError(f"unknown solver policy {self.policy!r}")
        _require_tolerance(self.tol)
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be at least 1, got {self.max_iter!r}")
        if self.restart < 1:
            raise ValueError(f"restart must be at least 1, got {self.restart!r}")


def _require_tolerance(tol: float):
    """Raise `ValueError` unless ``tol`` is finite and positive."""
    if not 0.0 < tol < np.inf:
        raise ValueError(f"solver tolerance must be finite and positive, got {tol!r}")


def _require_refine(refine: int):
    """Raise `ValueError` unless ``refine`` is an integer of at least 1."""
    if not isinstance(refine, (int, np.integer)) or refine < 1:
        raise ValueError(f"refine must be an integer >= 1, got {refine!r}")


def _require_spinor_function(phi: ContinuumFunction, mesh: Mesh):
    """Raise `MeshMismatch` unless ``phi`` has the dimension of ``mesh``, which is 2, and two channels."""
    _require_dimension(phi, mesh)
    if mesh.d != 2 or phi.channels != 2:
        raise MeshMismatch("continuum resolvent acts on 2D two-channel functions")


def _require_resolvent_region(z: complex, V: PotentialSpec):
    """`_require_complex_shift`, then `NotInResolventRegion` unless ``|Im z| > skew_bound`` by more than 1e-12."""
    _require_complex_shift(z)
    if not abs(complex(z).imag) > V.skew_bound + 1e-12:
        raise NotInResolventRegion(
            f"|Im z| = {abs(complex(z).imag):.6g} not above skew bound {V.skew_bound:.6g}"
        )


def resolvent_free(psi: LatticeField, q: ResolventQuery) -> LatticeField:
    """Free resolvent ``(D - z)**-1 psi`` by closed-form symbol inversion."""
    _check_spinor(psi, q.p)
    symbol = _Multiplier(_natural_frequencies(psi.mesh), q.p, q.p.m, q.z)
    return LatticeField(psi.mesh, _channel_last(_multiplier_apply(_channel_first(psi.values), symbol)))


def block_average(f: LatticeField, coarse: Mesh) -> LatticeField:
    """Cell averages of a fine step field on a coarser, aligned mesh."""
    fine = f.mesh
    if fine.d != coarse.d or fine.N % coarse.N:
        raise MeshMismatch("fine mesh does not refine the coarse one")
    r = fine.N // coarse.N
    if abs(fine.h * r - coarse.h) > 1e-12 * coarse.h:
        raise MeshMismatch("meshes cover different boxes")
    vals = f.values.reshape((coarse.N, r) * fine.d + (-1,))
    return LatticeField(coarse, vals.mean(axis=tuple(range(1, 2 * fine.d, 2))))


def resolvent_continuum(
    phi: ContinuumFunction,
    z: complex,
    m: float,
    mesh: Mesh,
    refine: int = 8,
) -> LatticeField:
    """Desk-scale surrogate for the continuum resolvent ``(D - z)**-1 phi``.

    Works pseudo-spectrally with the continuum symbol on the ``refine``-fold
    refinement of the experiment mesh (same box, so the frequency box is
    ``refine`` times wider), seeding the transform from the closed form when
    declared, sampled on the refined dual grid by `fourier.sample_spectrum`
    (per axis for a separable transform, with its channels checked), else
    from the `dft` of point samples on the refined mesh (that of cell
    averages is biased by ``conj(a(h_f*xi_j))`` per axis).  The
    result is handed back as exact cell averages on the experiment mesh:
    averaging ``exp(i*x.xi)`` over a width-``H`` cell multiplies it by
    ``conj(a(H*xi_j))`` per axis, so the projection is a frequency-side
    multiplier followed by subsampling at the coarse cell corners.  Adequacy
    is checked by refinement doubling in tests.
    """
    _require_complex_shift(z)
    _require_mass(m)
    _require_spinor_function(phi, mesh)
    _require_refine(refine)
    ref = Mesh(mesh.d, mesh.h / refine, mesh.N * refine)
    grid = FrequencyGrid(ref)
    if phi.fourier is not None:
        spec = sample_spectrum(phi.fourier, grid).values
    else:
        spec = dft(sample(phi, ref)).values
    out = _Multiplier(grid.frequencies, None, m, z)(_channel_first(spec))
    out *= np.conj(_grid_step_factor(grid, mesh.h))
    fine = idft(SpectralField(grid, _channel_last(out)))
    coarse_vals = fine.values[::refine, ::refine, :]
    return LatticeField(mesh, coarse_vals)


def _gmres(matvec, b_vec, tol, restart, max_iter, x0=None):
    import scipy.sparse.linalg as spla  # not at module level: importing scipy costs start-up time

    n = b_vec.size
    op = spla.LinearOperator((n, n), matvec=matvec, dtype=complex)
    return spla.gmres(op, b_vec, x0, rtol=tol, restart=restart, maxiter=max(1, max_iter // restart))


def _neumann_steps(w, psi, symbol, V, steps, relative, goal):
    """Up to ``steps`` Neumann steps ``w <- psi - V R_z w`` in place.

    ``psi`` is read through a channel-first view of its values, ``V`` is evaluated
    on each row block by `_vmul_blocks`, and ``u = R_z w`` is held for this call
    only.  Stops once the relative step norm ``||w_old - w_new|| / ||psi||``, which
    is the residual of ``w_old``, is at most ``goal``.  Returns the last step norm
    and the last ``u``, ``R_z w_old``.  A step norm that is not finite raises
    `NoConvergence` for that step at once.
    """
    rhs, axes = np.moveaxis(psi.values, -1, 0), _site_axes(psi.mesh)
    u = np.empty_like(w)
    for n in range(1, steps + 1):
        np.copyto(u, w)
        u = _multiplier_apply(u, symbol)
        sum_sq = 0.0
        for rows, vu in _vmul_blocks(V, axes, u):
            w_next = np.subtract(rhs[:, rows], vu, out=vu)
            step = w[:, rows]
            step -= w_next
            sum_sq += _sum_sq(step)
            step[...] = w_next
        res = relative(sum_sq)
        if not np.isfinite(res):
            raise NoConvergence(n, res, f"residual {res} is not finite at step {n}")
        if res <= goal:
            break
    return res, u


def _half_mesh(mesh: Mesh) -> Optional[Mesh]:
    """The mesh of the even sites of 2D ``mesh`` (the same box at ``2h``), or None unless ``N % 4 == 0``, ``N >= 8``."""
    if mesh.N % 4 or mesh.N < 8:
        return None
    return Mesh(mesh.d, 2 * mesh.h, mesh.N // 2)


# the four cosets ``(a, b)`` of a mesh's sites: row parity ``a``, column parity ``b``
_COSETS = ((0, 0), (0, 1), (1, 0), (1, 1))


def _cell_sums_sink(sums: np.ndarray, refine: int):
    """``sink(a, b, u)``, which adds coset ``(a, b)`` of a field into the channel-first cell sums ``sums``.

    The field's mesh refines the mesh of ``sums`` ``refine``-fold, so fine index ``i``
    lies in coarse cell ``i // refine``, and site ``j`` of a coset of parity ``a``
    (fine index ``2j + a``) in cell ``(2j + a) // refine``.  ``u`` is the coset's
    channel-first values.  At refine 1 the coset fills every other cell and is added
    by basic slicing.  Otherwise each coarse cell holds one run of consecutive ``j``
    (for an odd ``refine`` the runs of a cell's two parities differ in length), and
    `np.add.reduceat` sums the runs per axis.
    """
    if refine == 1:
        def sink(a, b, u):
            sums[:, a::2, b::2] += u

        return sink
    n = refine * sums.shape[1] // 2
    runs = []
    for a in (0, 1):
        cells = (2 * np.arange(n) + a) // refine
        starts = np.flatnonzero(np.diff(cells, prepend=-1))
        runs.append((starts, cells[starts]))

    def sink(a, b, u):
        (rows, row_cells), (cols, col_cells) = runs[a], runs[b]
        sums[:, row_cells[:, None], col_cells] += np.add.reduceat(np.add.reduceat(u, rows, axis=1), cols, axis=2)

    return sink


def _coset_start(spec: np.ndarray, mesh: Mesh, phi: ContinuumFunction, z: complex, m: float, V: PotentialSpec,
                 tol: float, sink) -> Optional[np.ndarray]:
    """Test on ``mesh`` the spectral interpolant ``u_p`` of a half-mesh solution, coset by coset.

    ``spec`` is the channel-first ``fftn`` ``S`` of that solution, in natural FFT order;
    it is read, not changed.  The sites of ``mesh`` split into the four `_COSETS`, each
    a copy of the half mesh of ``n = N/2`` sites per axis.  With ``k`` the signed index
    of ``S`` (Nyquist at ``-n/2``), the interpolant that zero-pads ``S`` is on coset
    ``(a, b)`` the half-size inverse transform of ``S * exp(i*pi*a*k_1/n) *
    exp(i*pi*b*k_2/n)``, so it equals the half-mesh solution on the even sites; ``D u_p``
    is the same with the continuum ``M(xi)`` of the half mesh's dual grid applied first.
    Each coset forms both in two half-size buffers that every coset reuses, so no array
    of ``mesh``'s size is made.

    ``psi``, the continuum ``phi`` at the coset's sites (`grid._grid_values`), and ``V``
    are evaluated on row blocks of each coset, where the residual ``(D - z) u_p + V u_p
    - psi`` and ``psi`` itself are summed in squares.  Then ``sink(a, b, u)`` is handed
    the coset's channel-first ``u_p`` in the buffer that the next coset overwrites.
    When ``||residual|| <= tol * ||psi||`` this returns None: a residual that is not
    finite fails, and a zero ``psi`` with a zero residual passes with no division.
    Otherwise it forms the cosets of ``u_p`` again, into a channel-first field of
    ``mesh``, and returns that field to start the iteration from.
    """
    axes, n = (1, 2), spec.shape[1]
    twiddle = np.exp(1j * np.pi / n * np.roll(np.arange(-(n // 2), n // 2), n // 2))
    symbol = _Multiplier(_natural_frequencies(_half_mesh(mesh)), None, m)
    x = _site_axes(mesh)[0]
    u, du = np.empty_like(spec), np.empty_like(spec)
    zu = np.empty_like(u[:, _row_blocks(u)[0]])

    def twiddled(a, b, out):
        """The spectrum of coset ``(a, b)`` of ``u_p``, written into ``out``."""
        np.copyto(out, spec)
        if a:
            out *= twiddle[:, None]
        if b:
            out *= twiddle
        return out

    sum_sq = psi_sq = 0.0
    for a, b in _COSETS:
        du = _fftn(symbol(twiddled(a, b, du)), axes, inverse=True)
        u = _fftn(twiddled(a, b, u), axes, inverse=True)
        coords = [x[a::2], x[b::2]]
        psi = _grid_values(phi, coords)
        for rows, vu in _vmul_blocks(V, coords, u):
            r, psi_rows = du[:, rows], np.moveaxis(psi(rows), -1, 0)
            r -= np.multiply(u[:, rows], z, out=zu[:, : rows.stop - rows.start])
            r += vu
            r -= psi_rows
            sum_sq += _sum_sq(r)
            psi_sq += _sum_sq(psi_rows)
        sink(a, b, u)
    if math.sqrt(sum_sq) <= tol * math.sqrt(psi_sq):
        return None
    start = np.empty((spec.shape[0],) + mesh.shape, dtype=complex)
    for a, b in _COSETS:
        start[:, a::2, b::2] = _fftn(twiddled(a, b, u), axes, inverse=True)
    return start


def _iterate(psi: LatticeField, z: complex, m: float, V: PotentialSpec, policy: Optional[str], tol: float,
             max_iter: int, restart: int, p: Optional[DiracParams] = None,
             w: Optional[np.ndarray] = None) -> LatticeField:
    """Factorized solve of ``(D + V - z) u = psi`` on the mesh of ``psi``, from the start ``w``.

    ``D`` has the discrete symbol of ``p``, or the continuum one if ``p`` is None.  For
    ``u = R_z w`` the residual is ``w + V u - psi``, which needs no further operator apply.
    ``V`` is evaluated at the sites of each row block whenever it multiplies that block,
    so no grid-sized potential array is held; it is evaluated on the first row block
    before anything else, so that samples of the wrong shape raise `ValueError` before
    any transform.  Everything runs in complex128.  Policy None selects Neumann when
    ``sup||V|| / |Im z| <= 0.9`` and Krylov otherwise.  ``w``, channel-first and
    overwritten, starts the Neumann steps or GMRES; None is the cold start, ``psi`` for
    Neumann and zero for GMRES.  Neumann takes at most ``max_iter`` `_neumann_steps`
    steps; Krylov runs GMRES and hands its ``w`` to one such step, which forms ``u`` and
    the residual.  Either way the returned ``u`` is one whose relative residual was
    measured, and a relative residual above ``tol`` raises `NoConvergence`, as does one
    that is not finite, at the step that measured it.  A GMRES product that is not
    finite raises `NoConvergence` at once, with the number of products made.
    """
    mesh = psi.mesh
    axes = _site_axes(mesh)
    next(_vmul_blocks(V, axes, np.moveaxis(psi.values, -1, 0)))  # a misshapen V fails before any transform
    psi_norm = norm_l2(psi)
    if psi_norm == 0.0:
        return LatticeField(mesh, np.zeros_like(psi.values))

    def relative(sum_sq):
        return float(np.sqrt(mesh.h**mesh.d * sum_sq)) / psi_norm

    if policy is None:
        policy = "neumann" if V.sup_norm / abs(complex(z).imag) <= 0.9 else "krylov"
    symbol = _Multiplier(_natural_frequencies(mesh), p, m, z)
    steps, info = max_iter, 0
    if policy == "krylov":
        shape = (psi.channels,) + mesh.shape
        products = 0

        # residual-minimizing iteration on w + V R_z w = psi, in channel-first vector order
        def matvec(w_vec):
            nonlocal products
            products += 1
            w = w_vec.reshape(shape)
            out = _multiplier_apply(w.copy(), symbol)
            for rows, vu in _vmul_blocks(V, axes, out):
                if not np.isfinite(np.add(w[:, rows], vu, out=out[:, rows])).all():
                    raise NoConvergence(products, float("nan"), f"GMRES product {products} is not finite")
            return out.ravel()

        x0 = None if w is None else w.ravel()
        w_vec, info = _gmres(matvec, _channel_first(psi.values).ravel(), tol * 1e-2, restart, max_iter, x0)
        w, steps = w_vec.reshape(shape), 1  # the one step forms u = R_z w and the residual of w
    elif w is None:
        w = _channel_first(psi.values)
    res, u = _neumann_steps(w, psi, symbol, V, steps, relative, tol)
    if res > tol:
        raise NoConvergence(info if info > 0 else max_iter, res)
    return LatticeField(mesh, _channel_last(u))


def _solve_with_potential(phi: ContinuumFunction, mesh: Mesh, refine: int, z: complex, m: float, V: PotentialSpec,
                          policy: Optional[str], tol: float, max_iter: int, restart: int) -> np.ndarray:
    """Channel-first averages over ``refine x refine`` cells of ``u`` with ``(D + V - z) u = phi`` on 2D ``mesh``.

    ``D`` has the continuum symbol and the right-hand side ``psi`` is ``phi`` at the sites
    of ``mesh``; at refine 1 the averages are ``u`` itself.  ``V`` is evaluated on the
    first row block of ``mesh`` first, so that samples of the wrong shape raise
    `ValueError` before any transform.  The symbol is the same on every mesh of the box,
    so for ``N % 4 == 0`` (``N >= 8``) the problem on the even sites, which are the sites
    ``(2h)*k = h*(2k)`` of the half mesh (`_half_mesh`) bit for bit, is solved first by
    this function at refine 1, with the same policy.  `_coset_start` tests its spectral
    interpolant ``u_p`` on ``mesh`` and adds each coset of it into the cell sums
    (`_cell_sums_sink`).  When ``u_p`` passes, as it does for smooth data on a fine
    enough mesh, those sums are the result, with no transform, step or array of
    ``mesh``'s size.  Otherwise, and without a half mesh, ``phi`` is sampled on
    ``mesh``, `_iterate` solves from ``w = psi - V u_p`` (or its cold start) with its
    own ``max_iter``, and the cosets of its ``u`` go into the same sums.
    """
    next(_vmul_blocks(V, _site_axes(mesh), np.broadcast_to(0j, (2,) + mesh.shape)))  # before any transform
    half, spec = _half_mesh(mesh), None
    if half is not None:
        spec = _fftn(_solve_with_potential(phi, half, 1, z, m, V, policy, tol, max_iter, restart), (1, 2))
    sums = np.zeros((2,) + (mesh.N // refine,) * 2, dtype=complex)
    sink = _cell_sums_sink(sums, refine)
    w = None if spec is None else _coset_start(spec, mesh, phi, z, m, V, tol, sink)
    del spec
    if half is None or w is not None:
        psi = sample(phi, mesh)
        if w is not None:  # w = psi - V u_p, over u_p
            rhs = np.moveaxis(psi.values, -1, 0)
            for rows, vu in _vmul_blocks(V, _site_axes(mesh), w):
                np.subtract(rhs[:, rows], vu, out=w[:, rows])
        u = np.moveaxis(_iterate(psi, z, m, V, policy, tol, max_iter, restart, w=w).values, -1, 0)
        sums[...] = 0.0
        for a, b in _COSETS:
            sink(a, b, u[:, a::2, b::2])
    sums /= refine**2
    return sums


def resolvent_with_potential(psi: LatticeField, q: ResolventQuery, V: PotentialSpec) -> LatticeField:
    """Perturbed resolvent ``(D + V - z)**-1 psi`` via the free-resolvent factorization.

    Requires ``|Im z| > skew_bound`` with an absolute margin of 1e-12;
    equality is outside the guaranteed region.  Policy ``None`` selects
    Neumann iteration when the contraction is certified and the Krylov
    fallback otherwise; ``"dense-oracle"`` solves with `dense_matrix`.
    The iterative policies evaluate ``V`` on one block of sites at a time;
    samples of the wrong shape raise `ValueError` on the first block, before
    any transform.
    """
    _check_spinor(psi, q.p)
    _require_resolvent_region(q.z, V)
    if q.policy == "dense-oracle":
        A = dense_matrix(q.p, psi.mesh, V)
        u_vec = np.linalg.solve(A - complex(q.z) * np.eye(A.shape[0]), field_to_vec(psi))
        return vec_to_field(u_vec, psi.mesh)
    return _iterate(psi, complex(q.z), q.p.m, V, q.policy, q.tol, q.max_iter, q.restart, p=q.p)


# ---------------------------------------------------------------------------
# dense oracle


def field_to_vec(f: LatticeField) -> np.ndarray:
    """Channel-major flattening matching `dense_matrix` row order: the channel-first layout."""
    return _channel_first(f.values).ravel()


def vec_to_field(vec: np.ndarray, mesh: Mesh) -> LatticeField:
    return LatticeField(mesh, _channel_last(np.reshape(vec, (-1,) + mesh.shape)))


def _diff_matrix_1d(N: int, h: float) -> np.ndarray:
    idx = np.arange(N)
    S = np.zeros((N, N))
    S[idx, (idx + 1) % N] = 1.0
    return (S - np.eye(N)) / h


def dense_matrix(p: DiracParams, mesh: Mesh, V: Optional[PotentialSpec] = None) -> np.ndarray:
    """Explicit ``(2*N**2) x (2*N**2)`` matrix of the operator with periodic stencils.

    Test oracle only; capped at ``N <= 32``.  Hermitian exactly when the
    potential has no skew part.
    """
    _check_operator_mesh(p, mesh)
    if mesh.N > 32:
        raise TooLarge(f"dense oracle capped at N=32, got N={mesh.N}")
    N = mesh.N
    D1 = _diff_matrix_1d(N, mesh.h)
    eye = np.eye(N)
    dx = np.kron(D1, eye)  # forward difference along axis 0
    dy = np.kron(eye, D1)  # forward difference along axis 1
    nsites = N * N
    A = np.zeros((2 * nsites, 2 * nsites), dtype=complex)
    A[:nsites, :nsites] = p.m * np.eye(nsites)
    A[nsites:, nsites:] = -p.m * np.eye(nsites)
    A[:nsites, nsites:] = 1j * dx.T + dy.T  # adjoints of the forward differences
    A[nsites:, :nsites] = -1j * dx + dy
    if V is not None:
        Vh = sample_potential(V, mesh)
        for a in range(2):
            for b in range(2):
                block = np.diag(Vh[..., a, b].ravel())
                A[a * nsites : (a + 1) * nsites, b * nsites : (b + 1) * nsites] += block
    return A


@dataclass(frozen=True)
class StripReport:
    """Eigenvalues of the dense operator against the skew-part strip."""

    eigenvalues: np.ndarray
    skew_bound: float
    max_imag: float
    ok: bool


def spectra_strip_check(V: PotentialSpec, p: DiracParams, mesh: Mesh) -> StripReport:
    """Check that all dense eigenvalues satisfy ``|Im eig| <= skew_bound + 1e-9``."""
    A = dense_matrix(p, mesh, V)
    eigs = np.linalg.eigvals(A)
    max_imag = float(np.max(np.abs(np.imag(eigs))))
    return StripReport(
        eigenvalues=eigs,
        skew_bound=V.skew_bound,
        max_imag=max_imag,
        ok=bool(max_imag <= V.skew_bound + 1e-9),
    )
