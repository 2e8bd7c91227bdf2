"""Tests for the dispersion function, 2x2 symbols, and the closed-form diagonalization."""

import numpy as np
import pytest

from latticedirac import (
    SIGMA1,
    SIGMA2,
    SIGMA3,
    DiracParams,
    critical_points,
    fwt_unitary,
    lambda_mh,
    omega,
    spectrum_bounds,
    symbol_continuum,
    symbol_discrete,
)
from latticedirac import symbols
from latticedirac.errors import DegenerateInput, LatticeDiracError, RealShift
from latticedirac.symbols import (
    omega_additive,
    opnorm_2x2,
    resolvent_norm_bound,
    zeta_discrete,
)

SQRT2 = np.sqrt(2.0)


# ---------------------------------------------------------------------------
# Pauli algebra


def test_pauli_matrices_square_to_identity():
    for sigma in (SIGMA1, SIGMA2, SIGMA3):
        np.testing.assert_allclose(sigma @ sigma, np.eye(2), atol=1e-15)


def test_pauli_matrices_anticommute():
    pairs = ((SIGMA1, SIGMA2), (SIGMA1, SIGMA3), (SIGMA2, SIGMA3))
    for a, b in pairs:
        np.testing.assert_allclose(a @ b + b @ a, 0, atol=1e-15)


# ---------------------------------------------------------------------------
# dispersion function


def test_omega_values_at_extrema():
    assert omega(np.array([0.0, 0.0])) == 0.0
    assert abs(omega(np.array([np.pi / 2, -np.pi / 2]))) < 1e-15
    assert abs(omega(np.array([-3 * np.pi / 4, 3 * np.pi / 4])) - (6 + 4 * SQRT2)) < 1e-13


def test_omega_product_and_additive_forms_agree(rng):
    xi = rng.uniform(-20, 20, size=(10000, 2))
    np.testing.assert_allclose(omega(xi), omega_additive(xi), atol=1e-13)


def test_omega_two_sided_bounds(rng):
    xi = rng.uniform(-15, 15, size=(10000, 2))
    vals = omega(xi)
    assert np.all(vals >= -1e-13)
    assert np.all(vals <= 2 * np.sum(xi**2, axis=-1) + 1e-13)
    small = rng.uniform(-np.pi / 4, np.pi / 4, size=(10000, 2))
    lower = (2 - SQRT2) / 8 * np.sum(small**2, axis=-1)
    assert np.all(omega(small) >= lower - 1e-13)


def test_omega_bounds_hold_around_second_minimum(rng):
    alpha = np.array([np.pi / 2, -np.pi / 2])
    xi = rng.uniform(-15, 15, size=(10000, 2))
    vals = omega(alpha + xi)
    assert np.all(vals >= -1e-13)
    assert np.all(vals <= 2 * np.sum(xi**2, axis=-1) + 1e-13)
    small = rng.uniform(-np.pi / 4, np.pi / 4, size=(10000, 2))
    lower = (2 - SQRT2) / 8 * np.sum(small**2, axis=-1)
    assert np.all(omega(alpha + small) >= lower - 1e-13)


def test_critical_points_catalog():
    cps = critical_points()
    assert len(cps) == 6
    kinds = [cp.kind for cp in cps]
    assert kinds.count("min") == 2 and kinds.count("max") == 1 and kinds.count("saddle") == 3
    maxima = [cp for cp in cps if cp.kind == "max"]
    assert abs(maxima[0].value - (6 + 4 * SQRT2)) < 1e-13
    values = {tuple(np.round(cp.location, 12)): cp.value for cp in cps}
    # saddle heights frozen from direct evaluation of the dispersion
    assert abs(values[(np.round(np.pi / 4, 12), np.round(-np.pi / 4, 12))] - (6 - 4 * SQRT2)) < 1e-13
    assert abs(values[(np.round(np.pi / 4, 12), np.round(3 * np.pi / 4, 12))] - 2.0) < 1e-13


def test_critical_points_have_vanishing_gradient():
    step = 1e-5
    for cp in critical_points():
        loc = np.asarray(cp.location)
        grad = np.array([
            (omega(loc + [step, 0]) - omega(loc - [step, 0])) / (2 * step),
            (omega(loc + [0, step]) - omega(loc - [0, step])) / (2 * step),
        ])
        assert np.linalg.norm(grad) < 1e-8


def test_a_declared_point_that_is_not_critical_raises_the_package_error(monkeypatch):
    monkeypatch.setattr(symbols, "_CRITICAL_LOCATIONS",
                        symbols._CRITICAL_LOCATIONS + (((0.3, 0.1), "min"),))
    with pytest.raises(LatticeDiracError, match=r"^gradient .* at declared critical point \(0\.3, 0\.1\)$"):
        critical_points()


# ---------------------------------------------------------------------------
# band eigenvalues


def test_lambda_at_origin_is_the_mass():
    for m, h in ((0.0, 1.0), (1.0, 0.5), (2.5, 0.1)):
        assert abs(lambda_mh(np.zeros(2), DiracParams(m, h)) - m) < 1e-15


def test_lambda_closed_form_at_the_maximum():
    val = lambda_mh(np.array([-3 * np.pi / 4, 3 * np.pi / 4]), DiracParams(0.0, 1.0))
    assert abs(val - (2 + SQRT2)) < 1e-13


def test_lambda_monotone_in_mass(rng):
    xi = rng.uniform(-5, 5, size=(50, 2))
    p_small = DiracParams(0.3, 0.7)
    p_big = DiracParams(1.7, 0.7)
    assert np.all(lambda_mh(xi, p_big) > lambda_mh(xi, p_small))


def test_discrete_symbol_entry_squares_to_dispersion(rng):
    p = DiracParams(0.7, 0.3)
    xi = rng.uniform(-np.pi / 0.3, np.pi / 0.3, size=(1000, 2))
    zeta = zeta_discrete(xi, p)
    np.testing.assert_allclose(np.abs(zeta) ** 2, omega(0.3 * xi) / 0.09, atol=1e-13 / 0.09)


# ---------------------------------------------------------------------------
# symbols


def test_symbol_continuum_structure():
    m = 1.3
    np.testing.assert_allclose(symbol_continuum(np.zeros(2), m), m * SIGMA3, atol=1e-15)
    S = symbol_continuum(np.array([3.0, 4.0]), 0.0)
    np.testing.assert_allclose(S, S.conj().T, atol=1e-15)
    np.testing.assert_allclose(np.linalg.eigvalsh(S), [-5.0, 5.0], atol=1e-13)


def test_symbol_discrete_structure(rng):
    p = DiracParams(0.8, 0.5)
    np.testing.assert_allclose(symbol_discrete(np.zeros(2), p), 0.8 * SIGMA3, atol=1e-15)
    xi = rng.uniform(-np.pi / 0.5, np.pi / 0.5, size=(1000, 2))
    S = symbol_discrete(xi, p)
    np.testing.assert_allclose(S, np.conj(np.swapaxes(S, -1, -2)), atol=1e-15)
    eigs = np.linalg.eigvalsh(S)  # oracle eigensolver; production path is closed-form
    lam = lambda_mh(xi, p)
    np.testing.assert_allclose(eigs[..., 1], lam, atol=1e-12)
    np.testing.assert_allclose(eigs[..., 0], -lam, atol=1e-12)


def test_symbol_difference_bounds(rng):
    # exponential-vs-linear gap: ||discrete - continuum|| <= (h/2)|xi|^2,
    # and <= (sqrt(2) pi / 2)|xi| inside the frequency box
    for h in (1.0, 0.5, 0.1):
        p = DiracParams(0.6, h)
        xi = rng.uniform(-np.pi / h, np.pi / h, size=(2000, 2))
        gap = opnorm_2x2(symbol_discrete(xi, p) - symbol_continuum(xi, 0.6))
        r2 = np.sum(xi**2, axis=-1)
        assert np.all(gap <= h / 2 * r2 + 1e-12)
        assert np.all(gap <= SQRT2 * np.pi / 2 * np.sqrt(r2) + 1e-12)


def test_exponential_linearization_inequality(rng):
    theta = rng.uniform(-30, 30, size=100000)
    assert np.all(np.abs(np.exp(1j * theta) - 1 - 1j * theta) <= theta**2 / 2 + 1e-15)


# ---------------------------------------------------------------------------
# closed-form diagonalization


def test_fwt_unitary_on_random_inputs(rng):
    for _ in range(1000):
        zeta = complex(rng.normal(), rng.normal()) * 10 ** rng.uniform(-3, 2)
        m = abs(rng.normal()) * 10 ** rng.uniform(-3, 2)
        U = fwt_unitary(zeta, m)
        np.testing.assert_allclose(U.conj().T @ U, np.eye(2), atol=1e-13)
        mu = np.hypot(abs(zeta), m)
        M = np.array([[m, np.conj(zeta)], [zeta, -m]])
        np.testing.assert_allclose(U.conj().T @ M @ U, np.diag([mu, -mu]), atol=1e-13 * max(1, mu))


def test_fwt_unitary_special_values():
    np.testing.assert_allclose(fwt_unitary(0.0, 1.0), np.eye(2), atol=1e-15)
    U = fwt_unitary(3 + 4j, 0.0)
    M = np.array([[0, 3 - 4j], [3 + 4j, 0]])
    np.testing.assert_allclose(U.conj().T @ M @ U, np.diag([5.0, -5.0]), atol=1e-13)


def test_fwt_unitary_degenerate_point():
    with pytest.raises(DegenerateInput):
        fwt_unitary(0.0, 0.0)


# ---------------------------------------------------------------------------
# spectrum bounds and resolvent bounds


def test_spectrum_bounds_closed_forms():
    (lo1, hi1), (lo2, hi2) = spectrum_bounds(DiracParams(0.0, 1.0))
    assert (lo1, hi1, lo2) == (-(2 + SQRT2), 0.0, 0.0)
    assert abs(hi2 - (2 + SQRT2)) < 1e-13
    (_, _), (_, top) = spectrum_bounds(DiracParams(1.0, 1.0))
    assert abs(top - np.sqrt(7 + 4 * SQRT2)) < 1e-13


def test_spectrum_bounds_symmetric(rng):
    for _ in range(20):
        p = DiracParams(abs(rng.normal()), abs(rng.normal()) + 0.1)
        (lo1, hi1), (lo2, hi2) = spectrum_bounds(p)
        assert lo1 == -hi2 and hi1 == -lo2


def test_resolvent_norm_bound_generic():
    assert resolvent_norm_bound(2j) == 0.5
    with pytest.raises(RealShift):
        resolvent_norm_bound(1.0 + 0j)


def test_resolvent_bound_holds_on_symbol_sweep(rng):
    p = DiracParams(0.5, 0.5)
    z = 0.3 + 1.7j
    xi = rng.uniform(-np.pi / 0.5, np.pi / 0.5, size=(500, 2))
    inv = np.linalg.inv(symbol_discrete(xi, p) - z * np.eye(2))
    assert np.all(opnorm_2x2(inv) <= 1 / abs(z.imag) + 1e-12)


def test_epsilon_branch_dominates_for_small_h(rng):
    # away from the dispersion zeros the sharper bound 2h/sqrt(eps) wins
    eps = 0.05
    p = DiracParams(0.0, 0.01)
    z = 2j
    found = 0
    for _ in range(500):
        xi = rng.uniform(-np.pi / p.h, np.pi / p.h, size=2)
        if omega(p.h * xi) < eps:
            continue
        found += 1
        bound = resolvent_norm_bound(z, xi, p, eps)
        assert bound == min(0.5, 2 * p.h / np.sqrt(eps))
        assert bound < 0.5
        inv = np.linalg.inv(symbol_discrete(xi, p) - z * np.eye(2))
        assert opnorm_2x2(inv) <= bound + 1e-12
    assert found > 400


def test_continuum_resolvent_weighted_bound_shape(rng):
    # sup over xi of ||(symbol - z)^-1|| * sqrt(|xi|^2 + m^2 + Im(z)^2)
    # is finite and stable under grid refinement
    m, z = 0.7, 1.0 + 2j

    def sup_on(n):
        ax = np.linspace(-40, 40, n)
        X1, X2 = np.meshgrid(ax, ax, indexing="ij")
        xi = np.stack([X1, X2], axis=-1)
        inv = np.linalg.inv(symbol_continuum(xi, m) - z * np.eye(2))
        scale = np.sqrt(np.sum(xi**2, axis=-1) + m**2 + z.imag**2)
        return float(np.max(opnorm_2x2(inv) * scale))

    coarse, dense = sup_on(101), sup_on(301)
    assert np.isfinite(dense)
    assert dense <= coarse * 1.1 + 1e-9


def test_opnorm_matches_svd(rng):
    M = rng.normal(size=(200, 2, 2)) + 1j * rng.normal(size=(200, 2, 2))
    oracle = np.linalg.svd(M, compute_uv=False)[..., 0]
    np.testing.assert_allclose(opnorm_2x2(M), oracle, atol=1e-12)
