"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every test pins the stated tolerance and wall-time budget.
"""

import time

import numpy as np
import pytest
from scipy.integrate import dblquad, quad

from latticedirac import (
    DiracParams,
    FrequencyGrid,
    Mesh,
    ResolventQuery,
    Sweep,
    a_factor,
    continuum_ft_of_step,
    critical_points,
    dense_matrix,
    dft,
    exp_ft,
    exp_ift,
    exp_resolvent_free,
    fwt_unitary,
    idft,
    inner,
    l2_error_vs_continuum,
    lambda_mh,
    norm_l2,
    omega,
    resolvent_with_potential,
    sample,
    spectra_strip_check,
    spectral_norm,
)
from latticedirac.grid import gaussian
from latticedirac.operators import (
    diff_backward,
    diff_forward,
    field_to_vec,
    potential_catalog,
    vec_to_field,
)

from conftest import random_field

SQRT2 = np.sqrt(2.0)


class Budget:
    """Context manager asserting a wall-time budget and reporting the line."""

    def __init__(self, number, seconds, description):
        self.number = number
        self.seconds = seconds
        self.description = description

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        state = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.number:2d} {state} ({elapsed:6.2f}s / {self.seconds}s): "
              f"{self.description}")
        if exc_type is None:
            assert elapsed < self.seconds, f"criterion {self.number} exceeded its time budget"
        return False


def test_criterion_01_dense_eigenvalues_match_band_samples():
    with Budget(1, 5.0, "dense oracle eigenvalues equal the sampled band multiset"):
        mesh = Mesh(2, 0.5, 16)
        p = DiracParams(1.0, 0.5)
        eigs = np.sort(np.linalg.eigvalsh(dense_matrix(p, mesh)))
        assert eigs.size == 512
        lam = lambda_mh(FrequencyGrid(mesh).coords(), p).ravel()
        expected = np.sort(np.concatenate([lam, -lam]))
        assert np.max(np.abs(eigs - expected)) < 1e-10


def test_criterion_02_spectrum_endpoint_exact_on_aligned_grid():
    with Budget(2, 5.0, "massless top eigenvalue hits 2 + sqrt(2) exactly"):
        mesh = Mesh(2, 1.0, 16)  # 16 = 0 mod 8: the maximizing frequency is on-grid
        eigs = np.linalg.eigvalsh(dense_matrix(DiracParams(0.0, 1.0), mesh))
        assert abs(np.max(eigs) - (2 + SQRT2)) < 1e-10


def test_criterion_03_dispersion_certificate():
    with Budget(3, 1.0, "critical points verified; two-sided dispersion bounds hold"):
        cps = critical_points()  # raises LatticeDiracError if any closed-form gradient reaches 1e-12
        assert len(cps) == 6
        values = sorted(cp.value for cp in cps)
        expected = sorted([0.0, 0.0, 6 + 4 * SQRT2, 6 - 4 * SQRT2, 2.0, 2.0])
        np.testing.assert_allclose(values, expected, atol=1e-12)
        rng = np.random.default_rng(3)
        alpha = np.array([np.pi / 2, -np.pi / 2])
        xi = rng.uniform(-15, 15, size=(10000, 2))
        for shift in (np.zeros(2), alpha):
            vals = omega(shift + xi)
            assert np.all(vals >= -1e-13)
            assert np.all(vals <= 2 * np.sum(xi**2, axis=-1) + 1e-13)
        small = rng.uniform(-np.pi / 4, np.pi / 4, size=(10000, 2))
        lower = (2 - SQRT2) / 8 * np.sum(small**2, axis=-1)
        for shift in (np.zeros(2), alpha):
            assert np.all(omega(shift + small) >= lower - 1e-13)


def test_criterion_04_transform_identities_on_random_fields():
    with Budget(4, 5.0, "unitarity, round trips, and adjointness on 100 random fields"):
        rng = np.random.default_rng(4)
        configs = [(1, 16), (1, 32), (2, 8), (2, 12)]
        for k in range(100):
            d, N = configs[k % len(configs)]
            mesh = Mesh(d, float(10 ** rng.uniform(-1, 0)), N)
            channels = int(rng.choice([1, 2]))
            f = random_field(mesh, channels, rng)
            u = dft(f)
            assert abs(spectral_norm(u) - norm_l2(f)) < 1e-12 * max(1, norm_l2(f))
            assert np.max(np.abs(idft(u).values - f.values)) < 1e-12
            v = type(u)(u.grid, rng.normal(size=u.values.shape) + 1j * rng.normal(size=u.values.shape))
            assert np.max(np.abs(dft(idft(v)).values - v.values)) < 1e-12
            g = random_field(mesh, channels, rng)
            for j in range(d):
                gap = inner(diff_forward(f, j), g) - inner(f, diff_backward(g, j))
                assert abs(gap) < 1e-12 * max(1, norm_l2(f) * norm_l2(g))


def test_criterion_05_sampling_rate_in_both_dimensions():
    with Budget(5, 10.0, "sampling-error slope within [0.8, 1.2] for d = 1 and d = 2"):
        hs = (0.4, 0.2, 0.1, 0.05)
        for d in (1, 2):
            phi = gaussian(d)
            errs = [l2_error_vs_continuum(sample(phi, Mesh(d, h, round(9.6 / h))), phi)
                    for h in hs]
            slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
            assert 0.8 <= slope <= 1.2, f"d={d} slope {slope}"


def test_criterion_06_step_transform_oracle():
    with Budget(6, 10.0, "step-function transform matches adaptive quadrature and the product identity"):
        rng = np.random.default_rng(6)

        # three random frequencies in one dimension
        mesh1 = Mesh(1, 0.5, 8)
        f1 = random_field(mesh1, 1, rng)
        edges = mesh1.h * np.arange(-4, 5)
        for q in rng.uniform(-6, 6, size=3):
            total = 0.0 + 0.0j
            for n in range(8):
                c = f1.values[n, 0]
                re, _ = quad(lambda x: (c * np.exp(-1j * x * q)).real, edges[n], edges[n + 1])
                im, _ = quad(lambda x: (c * np.exp(-1j * x * q)).imag, edges[n], edges[n + 1])
                total += re + 1j * im
            oracle = total / np.sqrt(2 * np.pi)
            assert abs(continuum_ft_of_step(f1, np.array([[q]]))[0, 0] - oracle) < 1e-8

        # two random frequencies in two dimensions
        mesh2 = Mesh(2, 0.5, 8)
        f2 = random_field(mesh2, 1, rng)
        for q in rng.uniform(-4, 4, size=(2, 2)):
            total = 0.0 + 0.0j
            for n1 in range(8):
                for n2 in range(8):
                    c = f2.values[n1, n2, 0]
                    a1, b1 = edges[n1], edges[n1 + 1]
                    a2, b2 = edges[n2], edges[n2 + 1]
                    re, _ = dblquad(
                        lambda y, x: (c * np.exp(-1j * (x * q[0] + y * q[1]))).real,
                        a1, b1, a2, b2)
                    im, _ = dblquad(
                        lambda y, x: (c * np.exp(-1j * (x * q[0] + y * q[1]))).imag,
                        a1, b1, a2, b2)
                    total += re + 1j * im
            oracle = total / (2 * np.pi)
            assert abs(continuum_ft_of_step(f2, q[None, :])[0, 0] - oracle) < 1e-8

        # product identity on every dual-grid point
        coords = FrequencyGrid(mesh2).coords()
        factor = a_factor(mesh2.h * coords[..., 0]) * a_factor(mesh2.h * coords[..., 1])
        lhs = continuum_ft_of_step(f2, coords)
        rhs = dft(f2).values * factor[..., None]
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_criterion_07_closed_form_diagonalization_certificate():
    with Budget(7, 1.0, "closed-form unitary diagonalizes 1000 random Hermitian symbols"):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            zeta = complex(rng.normal(), rng.normal()) * 10 ** rng.uniform(-2, 2)
            m = abs(rng.normal()) * 10 ** rng.uniform(-2, 2)
            U = fwt_unitary(zeta, m)
            mu = np.hypot(abs(zeta), m)
            M = np.array([[m, np.conj(zeta)], [zeta, -m]])
            assert np.max(np.abs(U.conj().T @ U - np.eye(2))) < 1e-13
            assert np.max(np.abs(U.conj().T @ M @ U - np.diag([mu, -mu]))) < 1e-13 * max(1, mu)


def test_criterion_08_free_resolvent_strong_convergence():
    with Budget(8, 60.0, "free-resolvent error strictly decreasing with 4x total reduction"):
        sweep = Sweep(hs=(0.4, 0.2, 0.1, 0.05), box=9.6, function="gaussian-spinor",
                      m=1.0, z=2j, refine=8)
        rep = exp_resolvent_free(sweep)
        errs = rep.primary.errors
        assert all(b < a for a, b in zip(errs, errs[1:]))
        assert errs[-1] < errs[0] / 4
        print(f"    observed free-resolvent slope: {rep.primary.slope:.3f}")


def test_criterion_09_potential_resolvent_dense_cross_check():
    with Budget(9, 30.0, "factorized solves match dense LU; solution norm bound holds"):
        rng = np.random.default_rng(9)
        mesh = Mesh(2, 0.5, 16)
        p = DiracParams(1.0, 0.5)
        psi = random_field(mesh, 2, rng)
        eye = np.eye(2 * 16 * 16)
        for name, z in (("hermitian-gaussian", 2j), ("nonhermitian-gaussian", 3j)):
            V = potential_catalog(name)
            u = resolvent_with_potential(psi, ResolventQuery(z=z, p=p), V)
            dense = np.linalg.solve(dense_matrix(p, mesh, V) - z * eye, field_to_vec(psi))
            assert np.max(np.abs(u.values - vec_to_field(dense, mesh).values)) < 1e-8
            assert norm_l2(u) <= norm_l2(psi) / (abs(z.imag) - V.skew_bound) + 1e-10


def test_criterion_10_spectra_confined_to_skew_strip():
    with Budget(10, 10.0, "dense eigenvalues stay inside the skew-part strip"):
        rep = spectra_strip_check(
            potential_catalog("nonhermitian-gaussian"), DiracParams(1.0, 0.5), Mesh(2, 0.5, 16)
        )
        assert rep.skew_bound == pytest.approx(1.0, abs=1e-13)
        assert rep.max_imag <= rep.skew_bound + 1e-9
        assert rep.ok


def test_criterion_11_transform_convergence_sweeps():
    with Budget(11, 60.0, "weighted and inverse transform errors decrease; inverse slope near 1"):
        ft = exp_ft(Sweep(hs=(0.4, 0.2, 0.1, 0.05), box=25.6, function="gaussian1d", s=1.0))
        assert all(b < a for a, b in zip(ft.primary.errors, ft.primary.errors[1:]))
        ift = exp_ift(Sweep(hs=(0.4, 0.2, 0.1, 0.05), box=9.6, function="freqbump1d"))
        assert all(b < a for a, b in zip(ift.primary.errors, ift.primary.errors[1:]))
        assert 0.8 <= ift.primary.slope <= 1.2
