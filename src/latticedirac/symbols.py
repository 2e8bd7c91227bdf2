"""Closed-form 2x2 symbol algebra for the lattice and continuum Dirac operators.

The lattice dispersion

    ``omega(t) = 4 + 2*sin(t1 - t2) - 2*(sin t1 + cos t1) + 2*(sin t2 - cos t2)``
             ``= 2*(1 - cos t1)*(1 + sin t2) + 2*(1 - cos t2)*(1 - sin t1)``

controls the band eigenvalues ``+-lambda(xi) = +-sqrt(omega(h*xi)/h**2 + m**2)``
of the discrete symbol.  Its six critical points on the unit torus are known
in closed form: two minima (value 0), one maximum (value ``6 + 4*sqrt(2)``),
and three saddles.  Both Hermitian symbols are diagonalized exactly by the
closed-form unitary ``fwt_unitary`` (no general eigensolver anywhere in the
production path).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInput, LatticeDiracError, RealShift

__all__ = [
    "SIGMA1",
    "SIGMA2",
    "SIGMA3",
    "EYE2",
    "DiracParams",
    "CriticalPoint",
    "omega",
    "omega_additive",
    "omega_hessian",
    "critical_points",
    "lambda_mh",
    "zeta_discrete",
    "symbol_continuum",
    "symbol_discrete",
    "fwt_unitary",
    "spectrum_bounds",
    "resolvent_norm_bound",
    "opnorm_2x2",
    "OMEGA_MAX",
]

SIGMA1 = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA3 = np.array([[1, 0], [0, -1]], dtype=complex)
EYE2 = np.eye(2, dtype=complex)

OMEGA_MAX = 6.0 + 4.0 * np.sqrt(2.0)


@dataclass(frozen=True)
class DiracParams:
    """Mass and mesh size of a discrete Dirac operator."""

    m: float
    h: float

    def __post_init__(self):
        _require_mass(self.m)
        if not 0 < self.h < np.inf:
            raise ValueError(f"mesh size must be finite and positive, got {self.h!r}")


def _require_mass(m: float):
    """Raise `ValueError` unless the mass ``m`` is finite and nonnegative."""
    if not 0.0 <= m < np.inf:
        raise ValueError(f"mass must be finite and nonnegative, got {m!r}")


def _require_complex_shift(z: complex):
    """Raise `ValueError` unless ``z`` is finite, then `RealShift` if it is real."""
    if not np.isfinite(complex(z)):
        raise ValueError(f"shift z must be finite, got {z!r}")
    if complex(z).imag == 0:
        raise RealShift(f"shift {z} lies on the real axis")


@dataclass(frozen=True)
class CriticalPoint:
    location: tuple[float, float]
    kind: str  # "min" | "max" | "saddle"
    value: float


def omega(xi) -> np.ndarray:
    """Lattice dispersion in product form (manifestly nonnegative)."""
    xi = np.asarray(xi, dtype=float)
    t1, t2 = xi[..., 0], xi[..., 1]
    val = 2 * (1 - np.cos(t1)) * (1 + np.sin(t2)) + 2 * (1 - np.cos(t2)) * (1 - np.sin(t1))
    return val


def omega_additive(xi) -> np.ndarray:
    """Same dispersion written additively; agrees with `omega` to roundoff."""
    xi = np.asarray(xi, dtype=float)
    t1, t2 = xi[..., 0], xi[..., 1]
    return 4 + 2 * np.sin(t1 - t2) - 2 * (np.sin(t1) + np.cos(t1)) + 2 * (np.sin(t2) - np.cos(t2))


def omega_hessian(xi) -> np.ndarray:
    xi = np.asarray(xi, dtype=float)
    t1, t2 = xi[..., 0], xi[..., 1]
    h11 = -2 * np.sin(t1 - t2) + 2 * (np.sin(t1) + np.cos(t1))
    h12 = 2 * np.sin(t1 - t2)
    h22 = -2 * np.sin(t1 - t2) + 2 * (-np.sin(t2) + np.cos(t2))
    out = np.empty(xi.shape[:-1] + (2, 2))
    out[..., 0, 0] = h11
    out[..., 0, 1] = h12
    out[..., 1, 0] = h12
    out[..., 1, 1] = h22
    return out


_CRITICAL_LOCATIONS = (
    ((0.0, 0.0), "min"),
    ((np.pi / 2, -np.pi / 2), "min"),
    ((-3 * np.pi / 4, 3 * np.pi / 4), "max"),
    ((np.pi / 4, -np.pi / 4), "saddle"),
    ((np.pi / 4, 3 * np.pi / 4), "saddle"),
    ((-3 * np.pi / 4, -np.pi / 4), "saddle"),
)


def _omega_gradient(xi) -> np.ndarray:
    """Closed-form gradient of `omega_additive`, shape ``(..., 2)``."""
    xi = np.asarray(xi, dtype=float)
    t1, t2 = xi[..., 0], xi[..., 1]
    g1 = 2 * np.cos(t1 - t2) - 2 * (np.cos(t1) - np.sin(t1))
    g2 = -2 * np.cos(t1 - t2) + 2 * (np.cos(t2) + np.sin(t2))
    return np.stack([g1, g2], axis=-1)


def critical_points() -> list[CriticalPoint]:
    """The six critical points of the dispersion on the unit torus.

    Locations are hard-coded closed forms; each is verified at call time by
    the closed-form gradient (norm below 1e-12) and the Hessian signature,
    and a failed check raises `LatticeDiracError`.
    """
    out = []
    for loc, kind in _CRITICAL_LOCATIONS:
        grad = np.linalg.norm(_omega_gradient(loc))
        if grad >= 1e-12:
            raise LatticeDiracError(f"gradient {grad:.3e} at declared critical point {loc}")
        H = omega_hessian(np.asarray(loc))
        det = H[0, 0] * H[1, 1] - H[0, 1] ** 2
        trace = H[0, 0] + H[1, 1]
        signature = "saddle" if det < 0 else ("min" if trace > 0 else "max")
        if signature != kind:
            raise LatticeDiracError(f"Hessian signature at {loc} is {signature}, expected {kind}")
        out.append(CriticalPoint(location=loc, kind=kind, value=float(omega(np.asarray(loc)))))
    return out


def lambda_mh(xi, p: DiracParams) -> np.ndarray:
    """Positive band eigenvalue ``sqrt(omega(h*xi)/h**2 + m**2)`` of the discrete symbol."""
    xi = np.asarray(xi, dtype=float)
    return np.sqrt(omega(p.h * xi) / p.h**2 + p.m**2)


def zeta_discrete(xi, p: DiracParams) -> np.ndarray:
    """Lower-left entry of the discrete symbol, ``(u(xi1) + v(xi2)) / h`` with the terms of `_zeta_terms`."""
    xi = np.asarray(xi, dtype=float)
    u, _ = _zeta_terms(xi[..., 0], p.h)
    _, v = _zeta_terms(xi[..., 1], p.h)
    return (u + v) / p.h


def _zeta_terms(t, h: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-axis terms ``(u, v) = (-1j*e, e)``, ``e = exp(1j*h*t) - 1``, of the discrete ``zeta``."""
    e = np.exp(1j * h * t) - 1.0
    return -1j * e, e


def _herm_symbol(zeta: np.ndarray, m: float) -> np.ndarray:
    """Assemble ``[[m, conj(zeta)], [zeta, -m]]`` with broadcasting."""
    zeta = np.asarray(zeta, dtype=complex)
    out = np.empty(zeta.shape + (2, 2), dtype=complex)
    out[..., 0, 0] = m
    out[..., 0, 1] = np.conj(zeta)
    out[..., 1, 0] = zeta
    out[..., 1, 1] = -m
    return out


def symbol_continuum(xi, m: float) -> np.ndarray:
    """Continuum Dirac symbol ``[[m, xi1 - i*xi2], [xi1 + i*xi2, -m]]``."""
    xi = np.asarray(xi, dtype=float)
    return _herm_symbol(xi[..., 0] + 1j * xi[..., 1], m)


def symbol_discrete(xi, p: DiracParams) -> np.ndarray:
    """Discrete Dirac symbol; eigenvalues are ``+-lambda_mh(xi, p)``."""
    return _herm_symbol(zeta_discrete(xi, p), p.m)


def fwt_unitary(zeta: complex, m: float) -> np.ndarray:
    """Closed-form unitary diagonalizing ``[[m, conj(zeta)], [zeta, -m]]``.

    Returns ``U`` with ``U* M U = diag(mu, -mu)`` and ``mu = sqrt(|zeta|**2 + m**2)``.
    Undefined exactly at the degenerate point ``m = 0, zeta = 0``.
    """
    mu = float(np.hypot(abs(zeta), m))
    norm_sq = mu * mu + m * mu
    if norm_sq < 1e-300:
        raise DegenerateInput("m = 0 and zeta = 0: eigenbasis is not unique")
    scale = 1.0 / (np.sqrt(2.0) * np.sqrt(norm_sq))
    return scale * np.array([[mu + m, -np.conj(zeta)], [zeta, mu + m]], dtype=complex)


def spectrum_bounds(p: DiracParams) -> tuple[tuple[float, float], tuple[float, float]]:
    """The two closed spectral intervals of the free discrete operator.

    Endpoints are ``+-m`` and ``+-sqrt((6 + 4*sqrt(2))/h**2 + m**2)``.
    """
    top = float(np.sqrt(OMEGA_MAX / p.h**2 + p.m**2))
    return ((-top, -p.m), (p.m, top))


def resolvent_norm_bound(z: complex, xi=None, p: DiracParams | None = None, eps: float | None = None) -> float:
    """Upper bound for the symbol resolvent norm at shift ``z``.

    The generic bound is ``1/|Im z|``.  When ``eps`` is given together with
    ``xi`` and ``p``, and the dispersion at ``h*xi`` is at least ``eps``
    while ``h < sqrt(eps)/(2*|Re z|)``, the sharper ``2*h/sqrt(eps)`` branch
    applies and the minimum of the two is returned (diagnostic only).
    """
    _require_complex_shift(z)
    generic = 1.0 / abs(z.imag)
    if eps is None:
        return generic
    if not 0 < eps < np.pi**2 / 128:
        raise ValueError("eps must lie in (0, pi**2/128)")
    if xi is None or p is None:
        raise ValueError("the eps branch needs xi and p")
    h_cap = np.inf if z.real == 0 else np.sqrt(eps) / (2 * abs(z.real))
    if omega(p.h * np.asarray(xi)) >= eps and p.h < h_cap:
        return min(generic, 2 * p.h / np.sqrt(eps))
    return generic


def opnorm_2x2(M: np.ndarray) -> np.ndarray:
    """Spectral norm of (an array of) 2x2 complex matrices, in closed form."""
    M = np.asarray(M, dtype=complex)
    frob_sq = np.sum(np.abs(M) ** 2, axis=(-2, -1))
    det = M[..., 0, 0] * M[..., 1, 1] - M[..., 0, 1] * M[..., 1, 0]
    gap = np.sqrt(np.maximum(frob_sq**2 - 4 * np.abs(det) ** 2, 0.0))
    return np.sqrt(0.5 * (frob_sq + gap))
