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
copy of the half mesh.  Coset ``(0, 0)`` is the half-mesh solution, which is
handed back with the sums of its residual and right-hand side in squares
that its own mesh measured, so only the three other cosets of the
interpolant and of ``D - z`` applied to it are tested, one at a time and
one block of rows at a time, with the right-hand side evaluated on each
block (`_coset_start`).  Every level hands back a spectrum on its band, the
size of the last level that iterated: the one it was given when the
interpolant passes the fine mesh's own residual test, since zero-padded it
is the interpolant, and otherwise the one forward transform of the solution
iterated from the band zero-padded to the mesh.  The start test works on the
band: its half-size inverse transforms skip the columns that zero-padding
leaves empty and form each block's rows from the column bands that they
keep, so no coset is held whole.  The top turns
its spectrum into averages over cells ``refine`` sites wide by one
left-endpoint kernel per axis, one fold of the frequencies onto the coarse
dual grid and one coarse inverse transform (`_cell_means`, which
`resolvent_continuum` shares); no level forms or slices a finer field.
A dense matrix of the full operator (small lattices only) serves as the
cross-validation oracle.

Fourier multipliers work channel-first: the two spinor channels are held as
one contiguous ``(2, *sites)`` array, transformed over the site axes by
`fourier._fftn` (numpy's FFT axis by axis, in place) and multiplied in place
one block of rows at a time.  Every multiplier holds only the per-axis terms
of ``zeta`` on the dual grid (`_Multiplier`); ``zeta`` and the coefficients of
a block are formed from them when the block is multiplied, on every apply, so
no grid-sized symbol or coefficient array is ever stored.  The perturbed
solves treat the potential the same way: a catalog ``V`` declares its
per-axis envelope and fixed matrix, evaluated once per multiply on each
axis, and any other ``V`` is evaluated at the sites of each block of rows
(of the mesh, or of one coset) just before it multiplies that block, so they
hold no grid-sized potential array either; `sample_potential` samples the
whole mesh for `apply_dirac` and `dense_matrix`.
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
from .grid import (
    ContinuumFunction, LatticeField, Mesh, _axis_values, _cell_points, _grid_values, _require_dimension, norm_l2,
    sample,
)
# dft, idft and zeta_discrete are unused here; perfbench/spans.py times calls through these names
from .fourier import _fftn, a_factor, dft, idft
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
    ``|Im z| > skew_bound``).  A potential ``e_0(x_0) * e_1(x_1) * matrix`` may
    also declare ``envelope``, one callable per axis that maps a coordinate array
    to values of its shape, and the fixed 2x2 ``matrix`` (stored as nested tuples).
    The iterative solves then multiply by ``matrix`` and the outer product of the
    envelope's values on each axis (`_vmul_blocks`), while `sample_potential` and
    `dense_matrix` keep ``matrix_fn``, which must agree.  An envelope without a
    matrix, or the reverse, anything but two callables, a matrix that is not 2x2,
    or an envelope whose values on a probe axis have the wrong shape, raises
    `ValueError` naming the potential.
    """

    name: str
    matrix_fn: Callable[[np.ndarray], np.ndarray]
    sup_norm: float
    skew_bound: float
    envelope: Optional[tuple[Callable[[np.ndarray], np.ndarray], ...]] = None
    matrix: Optional[tuple[tuple[complex, complex], tuple[complex, complex]]] = None

    def __post_init__(self):
        if self.envelope is None and self.matrix is None:
            return
        envelope, matrix = self.envelope, np.asarray(self.matrix, dtype=object)
        if not isinstance(envelope, (tuple, list)) or len(envelope) != 2 or not all(map(callable, envelope)) \
                or matrix.shape != (2, 2):
            raise ValueError(f"potential {self.name!r} declares an envelope of {envelope!r} and a matrix of shape "
                             f"{matrix.shape}, expected two per-axis callables and a 2x2 matrix")
        object.__setattr__(self, "envelope", tuple(envelope))
        object.__setattr__(self, "matrix", tuple(tuple(complex(v) for v in row) for row in matrix))
        _envelope_values(self, [np.arange(3.0)] * 2)

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


def _envelope_values(V: PotentialSpec, coords: list[np.ndarray]) -> list[np.ndarray]:
    """The declared envelope of ``V`` on each axis's coordinates ``coords[j]``.

    Raises `ValueError`, naming the potential, unless each has the shape of its coordinates.
    """
    values = [np.asarray(e(c)) for e, c in zip(V.envelope, coords)]
    for v, c in zip(values, coords):
        if v.shape != c.shape:
            raise ValueError(f"potential {V.name!r} gave envelope values of shape {v.shape}, expected {c.shape}")
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
    """Potential ``exp(-rate*|x|**2) * M``, declared per axis; rate 0 gives the constant ``M`` exactly."""
    matrix = np.asarray(matrix, dtype=complex)

    def matrix_fn(points):
        env = np.exp(-rate * (points[..., 0] ** 2 + points[..., 1] ** 2)).astype(complex)
        return env[..., None, None] * matrix

    def axis(x):
        return np.exp(-rate * x**2)

    herm, skew = split_hermitian(matrix)
    return PotentialSpec(
        name=name,
        matrix_fn=matrix_fn,
        sup_norm=float(opnorm_2x2(matrix)),
        skew_bound=float(opnorm_2x2(skew)),
        envelope=(axis, axis),
        matrix=matrix,
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


def _signed_index(M: int) -> np.ndarray:
    """Signed index ``k`` of the natural-order ``fftn`` of ``M`` sites (Nyquist at ``-M/2``)."""
    return (np.arange(M) + M // 2) % M - M // 2


def _natural_frequencies(mesh: Mesh) -> np.ndarray:
    """Per-axis frequencies ``2*pi*k/L`` of the dual grid of ``mesh`` in natural FFT order."""
    return 2 * np.pi * _signed_index(mesh.N) / mesh.L


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


def _vmul_blocks(V: PotentialSpec, axes: list[np.ndarray], blocks):
    """Yield ``(rows, (V u)[:, rows])`` for each ``(rows, u[:, rows])`` of ``blocks``.

    ``u`` is channel-first on the tensor grid of the per-axis coordinates ``axes``
    (`_site_axes` of a mesh, or of one of its cosets).  ``blocks`` is ``u`` itself,
    walked by `_row_blocks`, or the caller's walk over the row blocks of a ``u`` that is
    never held whole, each block formed when it is asked for; the first block is the
    largest.  A ``V`` that declares its per-axis envelope has it evaluated once per
    call, ``2N`` values; each block is then ``matrix`` times ``u`` (four products with
    scalars) times the outer product of the envelope's values on the block's rows and on
    the columns.  Any other ``V`` is evaluated at the sites of each block just before it
    multiplies that block.  Either way no grid-sized potential array is held.  The
    yielded block buffer is reused.
    """
    if isinstance(blocks, np.ndarray):
        blocks = [(rows, blocks[:, rows]) for rows in _row_blocks(blocks)]
    if V.envelope is not None:
        env_rows, env_cols = _envelope_values(V, axes)
    buf = None
    for rows, u in blocks:
        k = rows.stop - rows.start
        if buf is None:  # sized by the first block, the largest
            buf, tmp = np.empty_like(u), np.empty_like(u[0])
            if V.envelope is not None:
                env = np.empty(tmp.shape, np.result_type(env_rows, env_cols))
        vu, t = buf[:, :k], tmp[:k]
        if V.envelope is None:
            Vb = _potential_values(V, _cell_points([axes[0][rows], axes[1]]))
            entries = [[Vb[..., a, 0], Vb[..., a, 1]] for a in range(2)]
        else:
            entries = V.matrix
        for a in range(2):
            np.multiply(entries[a][0], u[0], out=vu[a])
            np.multiply(entries[a][1], u[1], out=t)
            vu[a] += t
        if V.envelope is not None:
            vu *= np.multiply(env_rows[rows, None], env_cols, out=env[:k])
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

    ``max_iter`` caps the Neumann steps, or the GMRES Arnoldi steps over all restart
    cycles of at most ``restart`` steps each, so the last cycle may be shorter.  Raises on
    construction `RealShift` for a real shift, and `ValueError` for a shift that is not
    finite, an unknown policy, a ``tol`` that is not finite and positive, or ``max_iter``
    or ``restart`` below 1.
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
        _require_count("max_iter", self.max_iter)
        _require_count("restart", self.restart)


def _require_tolerance(tol: float):
    """Raise `ValueError` unless ``tol`` is finite and positive."""
    if not 0.0 < tol < np.inf:
        raise ValueError(f"solver tolerance must be finite and positive, got {tol!r}")


def _require_count(name: str, value: int):
    """Raise `ValueError` unless ``value``, named ``name``, is an integer of at least 1; a boolean is none."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")


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
    ``refine`` times wider), in natural FFT order: the ``fftn`` of point
    samples on the refined mesh (that of cell averages is biased by
    ``conj(a(h_f*xi_j))`` per axis), or the declared closed form sampled by
    `grid._grid_values` (per axis when separable, channels checked) times
    ``(-1)**k * sqrt(2*pi) / h_f`` per axis, the ``fftn`` of centred samples.
    Averaging ``exp(i*x.xi)`` over a width-``H`` cell multiplies it by
    ``conj(a(H*xi_j))`` per axis, the kernel by which `_cell_means` hands back
    exact cell averages on the experiment mesh.  Adequacy is checked by
    refinement doubling in tests.
    """
    _require_complex_shift(z)
    _require_mass(m)
    _require_spinor_function(phi, mesh)
    _require_count("refine", refine)
    ref = Mesh(mesh.d, mesh.h / refine, mesh.N * refine)
    f = _natural_frequencies(ref)
    kernel = np.conj(a_factor(mesh.h * f))
    if phi.fourier is not None:
        spec = _channel_first(_grid_values(phi.fourier, [f] * mesh.d)())
        kernel *= (-1.0) ** _signed_index(ref.N) * (np.sqrt(2 * np.pi) / ref.h)  # fftn of the centred samples
    else:
        spec = _fftn(_channel_first(sample(phi, ref).values), (1, 2))
    return LatticeField(mesh, _channel_last(_cell_means(_Multiplier(f, None, m, z)(spec), kernel, mesh.N)))


def _gmres(matvec, b_vec, tol, restart, max_iter, x0=None):
    """Restarted GMRES for ``A x = b`` (Saad and Schultz 1986); returns ``(x, info)``.

    ``matvec`` applies ``A`` to a complex vector of the size of ``b_vec`` and returns a new
    array, which is overwritten; ``x0`` (None is zero) starts the iteration.  Each cycle runs
    at most ``restart`` Arnoldi steps, and all cycles together at most ``max_iter``, so the
    last cycle may be shorter.  The basis is one ``(min(restart, n), n)`` array,
    orthogonalized by classical Gram-Schmidt applied twice, and Givens rotations of the
    Hessenberg columns give the residual norm of each step without a product.  A cycle whose estimate meets ``tol * ||b||`` returns ``x`` with ``info`` 0 and
    no further product; the true residual ``b - A x`` is formed only to start the next cycle,
    and also returns with ``info`` 0 when it meets the target.  When the steps run out first,
    ``info`` is the number of steps run.  ``b = 0`` returns zeros with ``info`` 0.
    """
    b = np.asarray(b_vec, dtype=complex)
    n, atol = b.size, tol * np.linalg.norm(b)
    if atol == 0.0:
        return np.zeros(n, dtype=complex), 0
    x = np.zeros(n, dtype=complex) if x0 is None else np.array(x0, dtype=complex)
    r = b if x0 is None else b - matvec(x)
    m = min(restart, n)
    V = np.empty((m, n), dtype=complex)  # rows that are never written take no memory
    R = np.zeros((m + 1, m), dtype=complex)  # Hessenberg columns, rotated to upper triangular
    cs, sn = np.empty(m, dtype=complex), np.empty(m)
    steps = 0
    while True:
        beta = np.linalg.norm(r)
        if beta <= atol:
            return x, 0
        np.divide(r, beta, out=V[0])
        g = np.zeros(m + 1, dtype=complex)
        g[0] = beta
        cycle = min(m, max_iter - steps)
        for j in range(cycle):
            w, h = matvec(V[j]), R[: j + 2, j]
            h[:] = 0.0
            for _ in range(2):  # c = V^H w without copying V to conjugate it
                c = np.conj(V[: j + 1] @ np.conj(w))
                w -= c @ V[: j + 1]
                h[: j + 1] += c
            h[j + 1] = h_next = np.linalg.norm(w)
            for k in range(j):
                h[k], h[k + 1] = np.conj(cs[k]) * h[k] + sn[k] * h[k + 1], cs[k] * h[k + 1] - sn[k] * h[k]
            rho = math.hypot(abs(h[j]), h_next)
            cs[j], sn[j] = h[j] / rho, h_next / rho
            h[j], h[j + 1] = rho, 0.0
            g[j + 1], g[j] = -sn[j] * g[j], np.conj(cs[j]) * g[j]
            steps += 1
            if abs(g[j + 1]) <= atol or j + 1 == cycle:  # a happy breakdown, h_next == 0, meets atol
                break
            np.divide(w, h_next, out=V[j + 1])
        k = j + 1
        x += np.linalg.solve(R[:k, :k], g[:k]) @ V[:k]
        if abs(g[k]) <= atol:
            return x, 0
        if steps == max_iter:
            return x, steps
        r = b - matvec(x)


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


def _zero_pad(band: np.ndarray, out: np.ndarray, *axes: int) -> np.ndarray:
    """Natural-order ``band`` zero-padded along each of ``axes`` into ``out``: signed index ``k`` at ``k mod n``."""
    if not axes:
        np.copyto(out, band)
        return out
    m, at = band.shape[axes[0]], (slice(None),) * axes[0]
    low, high = (m + 1) // 2, out.shape[axes[0]] - m // 2  # k >= 0 take the first indices, k < 0 the last
    out[at + (slice(low, high),)] = 0.0
    for src, dst in ((slice(low), slice(low)), (slice(low, None), slice(high, None))):
        _zero_pad(band[at + (src,)], out[at + (dst,)], *axes[1:])
    return out


def _cell_means(spec: np.ndarray, kernel: np.ndarray, n: int) -> np.ndarray:
    """Channel-first means over the ``n x n`` cells of the box of the field whose band spectrum is ``spec``.

    ``spec``, overwritten, is a channel-first natural-order ``fftn`` of ``M`` sites per axis,
    with signed index ``k`` (Nyquist at ``-M/2``), and ``kernel[k]`` is the factor by which
    averaging over a cell multiplies mode ``k`` at the cell's first site, the same on each
    axis.  Per axis, the mean over cell ``c`` is ``sum_k spec[k] kernel[k] exp(2*pi*i*k*c/n)
    / M``, so ``spec`` is multiplied by ``kernel * n / M`` per axis, zero-padded (``k`` at
    index ``k mod P``) to the least multiple ``P`` of ``n`` not below ``M``, and summed over
    its ``P // n`` periods of ``n``; one inverse transform of ``n`` sites per axis gives the
    means.  A kernel of ones and ``n >= M`` give the field that zero-pads ``spec``.  The
    potential reference passes the left-endpoint kernel of its point values,
    `resolvent_continuum` the exact ``conj(a(H*xi))``, ``H`` the cell width.
    """
    channels, M = spec.shape[:2]
    P = -(-M // n) * n
    kernel = kernel * (n / M)
    spec *= kernel[:, None]
    spec *= kernel
    if P > M:
        spec = _zero_pad(spec, np.empty((channels, P, P), complex), 1, 2)
    if P > n:
        spec = spec.reshape(channels, P // n, n, P // n, n).sum(axis=(1, 3))
    return _fftn(spec, (1, 2), inverse=True)


def _coset_start(spec: np.ndarray, mesh: Mesh, phi: ContinuumFunction, z: complex, m: float, V: PotentialSpec,
                 tol: float, measured: tuple[float, float]) -> tuple[Optional[np.ndarray], tuple[float, float]]:
    """Test on ``mesh`` the spectral interpolant ``u_p`` of a half-mesh solution, coset by coset.

    ``spec`` is the channel-first natural-order ``fftn`` ``S`` of that solution on its band
    of ``K`` sites per axis, the size of the level that last iterated (``K`` divides the
    ``n = N/2`` sites of the half mesh, and the solution is ``S`` zero-padded); it is read,
    not changed.  The sites of ``mesh`` split into four cosets ``(a, b)`` of row parity
    ``a`` and column parity ``b``, each a copy of the half mesh.  With ``k`` the signed
    index of ``S`` (Nyquist at ``-K/2``), the interpolant on coset ``(a, b)`` is the
    ``n x n`` inverse transform of ``(n/K)**2 * S * exp(i*pi*a*k_1/n) * exp(i*pi*b*k_2/n)``
    zero-padded, so it equals the half-mesh solution on the even sites; ``(D - z) u_p`` is
    the same with ``M(xi) - z`` applied first, ``M`` the continuum symbol at the band's
    frequencies ``2*pi*k/L``.  The twiddles, the scale (a power of two, so exact) and
    ``M - z`` act on the ``K x K`` entries only.  Each inverse transform is pruned: one
    transform along the rows of the zero-padded ``(2, n, K)`` column band, then, one block
    of rows at a time, one along the columns of those rows zero-padded to ``n`` columns in
    a block buffer.

    Coset ``(0, 0)`` is therefore the half-mesh solution itself, with the half mesh's
    residual and right-hand side, so it is not formed here: the caller passes
    ``measured``, the squared sums ``(sum_sq, psi_sq)`` of its residual and of ``psi``
    that the half mesh's own test measured.  Each of the three other cosets forms its
    twiddled spectrum once and copies it for ``(D - z) u_p``, and keeps the column bands of
    both.  One walk over the row blocks of the coset then forms the rows of ``u_p`` and of
    ``(D - z) u_p`` from the bands and evaluates ``psi``, the continuum ``phi`` at the
    coset's sites, and ``V`` on them (`_vmul_blocks`), where the residual ``(D - z) u_p + V
    u_p - psi`` and ``psi`` itself are added in squares to ``measured``; so the arrays of
    side ``n`` are the two column bands and the block buffers that every coset reuses, and
    no coset is held whole.  A ``phi`` with ``factors`` has them evaluated once per coset
    on each axis (`grid._axis_values`), and each block of ``psi`` is their outer product,
    channel-first, in one reused buffer; any other ``phi`` is evaluated per block
    (`grid._grid_values`).

    Returns ``(start, (sum_sq, psi_sq))`` with the sums over all of ``mesh``.  ``start``
    is None when ``||residual|| <= tol * ||psi||``: a residual that is not finite fails,
    and a zero ``psi`` with a zero residual passes with no division.  Otherwise ``start``
    is ``u_p`` on ``mesh``, channel-first, to start the iteration from: ``S`` zero-padded
    to ``N x N`` and one inverse transform (`_cell_means` with a kernel of ones), as the
    top level forms its cell averages.
    """
    channels, K, n = spec.shape[0], spec.shape[1], mesh.N // 2
    k = _signed_index(K)
    twiddle = (n / K) * np.exp(1j * np.pi / n * k)
    parity = (np.full(K, n / K), twiddle)  # per-axis factor of a coset of parity 0 or 1, with the scale
    symbol = _Multiplier(2 * np.pi * k / mesh.L, None, m)
    x = _site_axes(mesh)[0]
    s, ds = np.empty_like(spec), np.empty_like(spec)
    bands = [np.empty((channels, n, K), complex) for _ in range(2)]
    blocks = _row_blocks(np.broadcast_to(0j, (channels, n, n)))
    u, du, psi_buf = (np.empty((channels, blocks[0].stop, n), complex) for _ in range(3))

    def inverse_rows(band, rows, out):
        """Rows ``rows`` of the ``n x n`` inverse whose column band is ``band``, written into ``out``."""
        return _fftn(_zero_pad(band[:, rows], out[:, : rows.stop - rows.start], 2), (2,), inverse=True)

    def rhs(coords):
        """``psi(rows)``: channel-first ``phi`` on the rows ``rows`` of the tensor grid of ``coords``."""
        if phi.factors is None:
            values = _grid_values(phi, coords)
            return lambda rows: np.moveaxis(values(rows), -1, 0)
        f0, f1 = (f.T for f in _axis_values(phi, coords))
        return lambda rows: np.multiply(f0[:, rows, None], f1[:, None], out=psi_buf[:, : rows.stop - rows.start])

    sum_sq, psi_sq = measured
    for a, b in ((0, 1), (1, 0), (1, 1)):
        np.multiply(spec, parity[a][:, None], out=s)
        s *= parity[b]
        np.copyto(ds, s)
        symbol(ds)
        ds -= z * s
        fu, dfu = (_fftn(_zero_pad(t, band, 1), (1,), inverse=True) for t, band in zip((s, ds), bands))
        coords = [x[a::2], x[b::2]]
        psi = rhs(coords)
        for rows, vu in _vmul_blocks(V, coords, ((rows, inverse_rows(fu, rows, u)) for rows in blocks)):
            r, psi_rows = inverse_rows(dfu, rows, du), psi(rows)
            r += vu
            r -= psi_rows
            sum_sq += _sum_sq(r)
            psi_sq += _sum_sq(psi_rows)
    if math.sqrt(sum_sq) <= tol * math.sqrt(psi_sq):
        return None, (sum_sq, psi_sq)
    return _cell_means(spec.copy(), np.ones(K), mesh.N), (sum_sq, psi_sq)


def _iterate(psi: LatticeField, z: complex, m: float, V: PotentialSpec, policy: Optional[str], tol: float,
             max_iter: int, restart: int, p: Optional[DiracParams] = None,
             w: Optional[np.ndarray] = None) -> tuple[LatticeField, float]:
    """Factorized solve of ``(D + V - z) u = psi`` on the mesh of ``psi``, from the start ``w``.

    ``D`` has the discrete symbol of ``p``, or the continuum one if ``p`` is None.  For
    ``u = R_z w`` the residual is ``w + V u - psi``, which needs no further operator apply.
    ``V`` is evaluated at the sites of each row block whenever it multiplies that block,
    so no grid-sized potential array is held; the entries (`resolvent_with_potential`,
    `_solve_with_potential`) evaluate it on the first row block before any transform, so
    that samples of the wrong shape raise `ValueError` there, once per solve.  Everything
    runs in complex128.  Policy None selects Neumann when ``sup||V|| / |Im z| <= 0.9`` and
    Krylov otherwise.  ``w``, channel-first and
    overwritten, starts the Neumann steps or GMRES; None is the cold start, ``psi`` for
    Neumann and zero for GMRES.  Neumann takes at most ``max_iter`` `_neumann_steps`
    steps; Krylov runs `_gmres` to ``tol * 1e-2``, with at most ``max_iter`` Arnoldi
    steps in cycles of at most ``restart``, and hands its ``w`` to one such step, which
    forms ``u`` and the residual.  Either way the returned ``u`` is one whose relative
    residual was measured, and it is returned with that residual; a relative residual
    above ``tol`` raises `NoConvergence`, as does one that is not finite, at the step
    that measured it.  Its ``iterations`` are the Neumann steps or the Arnoldi steps run
    (``max_iter`` when GMRES met its own target but the measured residual did not).  A
    GMRES product that is not finite raises `NoConvergence` at once, with the number of
    products made.
    """
    mesh = psi.mesh
    axes = _site_axes(mesh)
    psi_norm = norm_l2(psi)
    if psi_norm == 0.0:
        return LatticeField(mesh, np.zeros_like(psi.values)), 0.0

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
    return LatticeField(mesh, _channel_last(u)), res


def _solve_with_potential(phi: ContinuumFunction, mesh: Mesh, refine: int, z: complex, m: float, V: PotentialSpec,
                          policy: Optional[str], tol: float, max_iter: int,
                          restart: int) -> tuple[np.ndarray, tuple[float, float]]:
    """Channel-first averages over ``refine x refine`` cells of ``u`` with ``(D + V - z) u = phi`` on 2D ``mesh``.

    ``D`` has the continuum symbol and the right-hand side ``psi`` is ``phi`` at the sites
    of ``mesh``; at refine 1 the averages are ``u`` itself.  They are returned with
    ``(sum_sq, psi_sq)``, the sums over the sites of ``mesh`` of ``|residual|**2`` and
    ``|psi|**2`` that certified ``u``.  ``V`` is evaluated on the first row block of
    ``mesh`` first, so that samples of the wrong shape raise `ValueError` before any
    transform.  The symbol is the same on every mesh of the box, and each level of the
    solve hands back the natural-order spectrum of its solution on its band: ``K`` sites
    per axis, the size of the last level that iterated, whose spectrum zero-padded is the
    solution.  For ``N % 4 == 0`` (``N >= 8``) the problem on the even sites, which are the
    sites ``(2h)*k = h*(2k)`` of the half mesh (`_half_mesh`) bit for bit, is solved first,
    with the same policy; its solution is coset ``(0, 0)`` of the interpolant ``u_p`` on
    the mesh, so its band spectrum and its sums are handed to the test of `_coset_start`.
    When ``u_p`` passes, as it does for smooth data on a fine enough mesh, the level hands
    back that band spectrum as it is, which zero-padded *is* ``u_p``, with no step and no
    transform or array of its mesh's size.  Otherwise, and without a half mesh, ``phi`` is
    sampled on the mesh, `_iterate` solves from ``w = psi - V u_p`` (or its cold start)
    with its own ``max_iter``, its final relative residual ``res`` gives ``sum_sq = res**2 *
    psi_sq``, and the level hands back the forward transform of its ``u``, so ``K = N``.
    The top's band goes through `_cell_means`, with the left-endpoint kernel of the point
    values, and one inverse transform of ``N / refine`` sites per axis.
    """
    next(_vmul_blocks(V, _site_axes(mesh), np.broadcast_to(0j, (2,) + mesh.shape)))  # before any transform

    def solve(mesh: Mesh) -> tuple[np.ndarray, tuple[float, float]]:
        half, w = _half_mesh(mesh), None
        if half is not None:
            spec, measured = solve(half)
            w, measured = _coset_start(spec, mesh, phi, z, m, V, tol, measured)
            if w is None:
                return spec, measured
            del spec
        psi = sample(phi, mesh)
        rhs = np.moveaxis(psi.values, -1, 0)
        if w is not None:  # w = psi - V u_p, over u_p
            for rows, vu in _vmul_blocks(V, _site_axes(mesh), w):
                np.subtract(rhs[:, rows], vu, out=w[:, rows])
        solution, res = _iterate(psi, z, m, V, policy, tol, max_iter, restart, w=w)
        psi_sq = _sum_sq(rhs)
        return _fftn(np.moveaxis(solution.values, -1, 0), (1, 2)), (res**2 * psi_sq, psi_sq)

    spec, measured = solve(mesh)
    kernel = np.exp(2j * np.pi / mesh.N * np.outer(_signed_index(spec.shape[1]), np.arange(refine))).mean(axis=1)
    return _cell_means(spec, kernel, mesh.N // refine), measured


def resolvent_with_potential(psi: LatticeField, q: ResolventQuery, V: PotentialSpec) -> LatticeField:
    """Perturbed resolvent ``(D + V - z)**-1 psi`` via the free-resolvent factorization.

    Requires ``|Im z| > skew_bound`` with an absolute margin of 1e-12;
    equality is outside the guaranteed region.  Policy ``None`` selects
    Neumann iteration when the contraction is certified and the Krylov
    fallback otherwise; ``"dense-oracle"`` solves with `dense_matrix`.
    The iterative policies evaluate ``V`` on one block of sites at a time;
    samples of the wrong shape raise `ValueError` on the first block, which
    is evaluated here before any transform.
    """
    _check_spinor(psi, q.p)
    _require_resolvent_region(q.z, V)
    mesh = psi.mesh
    if q.policy == "dense-oracle":
        A = dense_matrix(q.p, mesh, V)
        u_vec = np.linalg.solve(A - complex(q.z) * np.eye(A.shape[0]), field_to_vec(psi))
        return vec_to_field(u_vec, mesh)
    next(_vmul_blocks(V, _site_axes(mesh), np.broadcast_to(0j, (2,) + mesh.shape)))  # before any transform
    return _iterate(psi, complex(q.z), q.p.m, V, q.policy, q.tol, q.max_iter, q.restart, p=q.p)[0]


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
