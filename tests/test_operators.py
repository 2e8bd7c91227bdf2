"""Tests for difference stencils, the Dirac operator, resolvents, and the dense oracle."""

import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticedirac import (
    ContinuumFunction,
    DiracParams,
    FrequencyGrid,
    LatticeField,
    Mesh,
    ResolventQuery,
    SpectralField,
    Sweep,
    apply_dirac,
    block_average,
    dense_matrix,
    dft,
    diff_backward,
    diff_forward,
    idft,
    inner,
    lambda_mh,
    norm_l2,
    project,
    resolvent_continuum,
    resolvent_free,
    resolvent_with_potential,
    sample,
    sample_potential,
    spectra_strip_check,
    spectrum_bounds,
    split_hermitian,
    symbol_continuum,
    symbol_discrete,
    weighted_ft_error,
)
from latticedirac.errors import (
    AxisOutOfRange,
    LatticeDiracError,
    MeshMismatch,
    NoConvergence,
    NotInResolventRegion,
    RealShift,
    TooLarge,
)
from latticedirac import operators
from latticedirac.grid import gaussian, gaussian_spinor, modulated_gaussian, _stack_channels
from latticedirac.operators import (
    POTENTIAL_IDS,
    PotentialSpec,
    _cell_spectrum,
    _iterate,
    _solve_with_potential,
    field_to_vec,
    potential_catalog,
    vec_to_field,
)
from latticedirac.symbols import SIGMA1, SIGMA2, SIGMA3, opnorm_2x2, resolvent_norm_bound

from conftest import one_d_lengths, random_field, spy_fft, spy_transforms

# few examples, drawn the same way on every run, so tier-1 stays quick and repeatable
PROPERTY = settings(max_examples=12, deadline=None, derandomize=True, database=None)
EVEN_N = st.sampled_from([4, 6, 8, 10, 12, 14, 16])
SEEDS = st.integers(0, 2**32 - 1)


# ---------------------------------------------------------------------------
# difference operators


def test_difference_of_constant_vanishes():
    mesh = Mesh(2, 0.5, 8)
    f = LatticeField(mesh, np.full(mesh.shape + (1,), 2.3 + 1j))
    for j in range(2):
        np.testing.assert_allclose(diff_forward(f, j).values, 0, atol=1e-14)
        np.testing.assert_allclose(diff_backward(f, j).values, 0, atol=1e-14)


def test_plane_wave_is_difference_eigenvector():
    mesh = Mesh(2, 0.5, 8)
    xi = 2 * np.pi * np.array([3, -2]) / mesh.L
    f = LatticeField(mesh, np.exp(1j * (mesh.site_coords() @ xi))[..., None])
    for j in range(2):
        mult = (np.exp(1j * mesh.h * xi[j]) - 1) / mesh.h
        np.testing.assert_allclose(diff_forward(f, j).values, mult * f.values, atol=1e-13)


def test_forward_backward_adjointness(rng):
    mesh = Mesh(2, 0.4, 10)
    f = random_field(mesh, 1, rng)
    g = random_field(mesh, 1, rng)
    for j in range(2):
        lhs = inner(diff_forward(f, j), g)
        rhs = inner(f, diff_backward(g, j))
        assert abs(lhs - rhs) < 1e-13 * norm_l2(f) * norm_l2(g)


def test_difference_axis_range():
    mesh = Mesh(1, 0.4, 8)
    f = LatticeField(mesh, np.zeros((8, 1)))
    with pytest.raises(AxisOutOfRange):
        diff_forward(f, 1)
    with pytest.raises(AxisOutOfRange):
        diff_backward(f, -1)


# ---------------------------------------------------------------------------
# the Dirac operator


def test_constant_spinor_sees_only_the_mass_term():
    mesh = Mesh(2, 0.5, 8)
    psi = LatticeField(mesh, np.broadcast_to(np.array([2.0, 3.0], dtype=complex),
                                             mesh.shape + (2,)).copy())
    out = apply_dirac(psi, DiracParams(1.5, 0.5))
    np.testing.assert_allclose(out.values[..., 0], 3.0, atol=1e-14)
    np.testing.assert_allclose(out.values[..., 1], -4.5, atol=1e-14)


def test_plane_wave_spinor_multiplied_by_symbol(rng):
    mesh = Mesh(2, 0.5, 8)
    p = DiracParams(0.8, 0.5)
    xi = 2 * np.pi * np.array([2, 3]) / mesh.L
    spinor = rng.normal(size=2) + 1j * rng.normal(size=2)
    wave = np.exp(1j * (mesh.site_coords() @ xi))
    psi = LatticeField(mesh, wave[..., None] * spinor)
    out = apply_dirac(psi, p)
    expected = wave[..., None] * (symbol_discrete(xi, p) @ spinor)
    np.testing.assert_allclose(out.values, expected, atol=1e-12)


def test_stencil_and_symbol_paths_agree(rng):
    for _ in range(20):
        N = int(rng.choice([8, 12, 16]))
        h = float(10 ** rng.uniform(-1.5, 0.5))
        p = DiracParams(abs(rng.normal()), h)
        mesh = Mesh(2, h, N)
        psi = random_field(mesh, 2, rng)
        a = apply_dirac(psi, p, path="stencil")
        b = apply_dirac(psi, p, path="symbol")
        scale = max(1.0, float(np.max(np.abs(a.values))))
        assert np.max(np.abs(a.values - b.values)) < 1e-11 * scale


@PROPERTY
@given(N=EVEN_N, h=st.floats(0.05, 2.0), m=st.floats(0.5, 1.5), seed=SEEDS)
def test_symbol_path_matches_stencils_property(N, h, m, seed):
    p = DiracParams(m, h)
    psi = random_field(Mesh(2, h, N), 2, np.random.default_rng(seed))
    a = apply_dirac(psi, p, path="stencil").values
    b = apply_dirac(psi, p, path="symbol").values
    assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(a))


def test_sigma_block_form_is_the_same_operator(rng):
    # independent implementation from the three Pauli blocks
    mesh = Mesh(2, 0.5, 12)
    p = DiracParams(0.7, 0.5)
    psi = random_field(mesh, 2, rng)

    comps = [LatticeField(mesh, psi.values[..., k:k + 1]) for k in (0, 1)]
    out = p.m * np.einsum("ab,...b->...a", SIGMA3, psi.values)
    for j, sigma in ((0, SIGMA1), (1, SIGMA2)):
        dpsi = np.concatenate(
            [diff_forward(comps[0], j).values, -diff_backward(comps[1], j).values], axis=-1
        )
        out = out + (-1j) * np.einsum("ab,...b->...a", sigma, dpsi)
    reference = apply_dirac(psi, p)
    np.testing.assert_allclose(out, reference.values, atol=1e-12)


def test_apply_dirac_with_potential_adds_sitewise_action(rng):
    mesh = Mesh(2, 0.5, 8)
    p = DiracParams(1.0, 0.5)
    V = potential_catalog("hermitian-gaussian")
    psi = random_field(mesh, 2, rng)
    free = apply_dirac(psi, p)
    full = apply_dirac(psi, p, V=V)
    Vh = sample_potential(V, mesh)
    np.testing.assert_allclose(
        full.values - free.values,
        np.einsum("...ab,...b->...a", Vh, psi.values),
        atol=1e-13,
    )


def test_apply_dirac_mesh_checks(rng):
    mesh = Mesh(2, 0.5, 8)
    scalar = random_field(mesh, 1, rng)
    with pytest.raises(MeshMismatch):
        apply_dirac(scalar, DiracParams(1.0, 0.5))
    spinor = random_field(mesh, 2, rng)
    with pytest.raises(MeshMismatch):
        apply_dirac(spinor, DiracParams(1.0, 0.25))


# ---------------------------------------------------------------------------
# free resolvent


def test_free_resolvent_residual_and_norm_bound(rng):
    mesh = Mesh(2, 0.5, 16)
    p = DiracParams(1.0, 0.5)
    psi = random_field(mesh, 2, rng)
    q = ResolventQuery(z=2j, p=p)
    u = resolvent_free(psi, q)
    res = apply_dirac(u, p).values - 2j * u.values - psi.values
    assert norm_l2(LatticeField(mesh, res)) / norm_l2(psi) < 1e-11
    assert norm_l2(u) <= norm_l2(psi) / 2.0 + 1e-12


def test_free_resolvent_single_mode_value():
    mesh = Mesh(2, 0.5, 16)
    psi = LatticeField(mesh, np.broadcast_to(np.array([1.0, 0.0], dtype=complex),
                                             mesh.shape + (2,)).copy())
    u = resolvent_free(psi, ResolventQuery(z=2j, p=DiracParams(1.0, 0.5)))
    np.testing.assert_allclose(u.values[..., 0], 1 / (1 - 2j), atol=1e-13)
    np.testing.assert_allclose(u.values[..., 1], 0, atol=1e-13)


def test_free_resolvent_first_identity(rng):
    mesh = Mesh(2, 0.5, 12)
    p = DiracParams(0.5, 0.5)
    psi = random_field(mesh, 2, rng)
    z, w = 0.7 + 1.2j, -0.9 - 0.8j
    qz, qw = ResolventQuery(z=z, p=p), ResolventQuery(z=w, p=p)
    lhs = resolvent_free(psi, qz).values - resolvent_free(psi, qw).values
    rhs = (z - w) * resolvent_free(resolvent_free(psi, qw), qz).values
    assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_free_resolvent_rejects_real_shift(rng):
    psi = random_field(Mesh(2, 0.5, 8), 2, rng)
    with pytest.raises(RealShift):
        resolvent_free(psi, ResolventQuery(z=1.0 + 0j, p=DiracParams(1.0, 0.5)))


# ---------------------------------------------------------------------------
# continuum-resolvent surrogate


def test_continuum_resolvent_norm_bound():
    phi = gaussian_spinor()
    mesh = Mesh(2, 0.4, 24)
    out = resolvent_continuum(phi, 2j, 1.0, mesh, refine=4)
    assert norm_l2(out) <= norm_l2(project(phi, mesh)) / 2.0 + 1e-6


def test_continuum_resolvent_stable_under_refinement_doubling():
    phi = gaussian_spinor()
    mesh = Mesh(2, 0.4, 24)
    r8 = resolvent_continuum(phi, 2j, 1.0, mesh, refine=8)
    r16 = resolvent_continuum(phi, 2j, 1.0, mesh, refine=16)
    assert np.max(np.abs(r8.values - r16.values)) < 1e-8


@pytest.mark.parametrize("refine", [0, -2, 2.5, 2.0, True])
def test_continuum_resolvent_rejects_bad_refine(refine):
    with pytest.raises(ValueError, match="refine"):
        resolvent_continuum(gaussian_spinor(), 2j, 1.0, Mesh(2, 0.4, 24), refine=refine)


@pytest.mark.parametrize("closed_form", [True, False])
def test_continuum_resolvent_rejects_a_wrong_channel_count(closed_form):
    g = gaussian(2)
    liar = ContinuumFunction("liar", 2, 2, g.evaluate, fourier=g.fourier.evaluate if closed_form else None)
    with pytest.raises(ValueError, match="^liar declares 2 channels, evaluates to 1$"):
        resolvent_continuum(liar, 2j, 1.0, Mesh(2, 0.4, 24), refine=2)


def test_continuum_resolvent_stationary_mode_limit():
    # a spinor with transform concentrated near xi0 sees (symbol(xi0)-z)^-1;
    # the gap shrinks with the frequency width (box grows to hold the state)
    xi0 = np.array([1.0, -0.5])
    z = 2j
    errs = []
    for a, L in ((0.5, 12.8), (0.125, 25.6), (0.03125, 51.2)):
        parts = [modulated_gaussian(2, a, k0=xi0),
                 modulated_gaussian(2, a, k0=xi0, amplitude=0.5)]
        phi = _stack_channels(parts, "probe")
        mesh = Mesh(2, 0.4, round(L / 0.4))
        out = resolvent_continuum(phi, z, 0.0, mesh, refine=4)
        target = np.linalg.inv(symbol_continuum(xi0, 0.0) - z * np.eye(2))
        pf = project(phi, mesh)
        expect = np.einsum("ab,...b->...a", target, pf.values)
        errs.append(norm_l2(LatticeField(mesh, out.values - expect)) / norm_l2(pf))
    assert errs[2] < errs[1] < errs[0]


# ---------------------------------------------------------------------------
# potentials


def test_potential_catalog_declared_bounds_hold_on_sweep(rng):
    mesh = Mesh(2, 0.2, 32)
    for name in POTENTIAL_IDS:
        V = potential_catalog(name)
        Vh = sample_potential(V, mesh)
        assert np.max(opnorm_2x2(Vh)) <= V.sup_norm + 1e-10
        _, skew = split_hermitian(Vh)
        assert np.max(opnorm_2x2(skew)) <= V.skew_bound + 1e-10


@pytest.mark.parametrize("rate", [0.0, 1.0])
def test_envelope_potential_is_the_broadcast_product_bit_for_bit(rate, rng):
    # the catalog's potentials are env * M as one broadcast product, channel matrix last
    matrix = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    points = Mesh(2, 0.1, 48).site_coords()
    env = np.exp(-rate * (points[..., 0] ** 2 + points[..., 1] ** 2))
    values = operators._envelope_potential("random", matrix, rate)(points)
    assert values.shape == (48, 48, 2, 2)
    assert np.ascontiguousarray(values).tobytes() == (env[..., None, None] * matrix).tobytes()


def test_split_hermitian_reconstructs(rng):
    M = rng.normal(size=(10, 2, 2)) + 1j * rng.normal(size=(10, 2, 2))
    herm, skew = split_hermitian(M)
    np.testing.assert_allclose(herm, np.conj(np.swapaxes(herm, -1, -2)), atol=1e-14)
    np.testing.assert_allclose(skew, np.conj(np.swapaxes(skew, -1, -2)), atol=1e-14)
    np.testing.assert_allclose(M, herm + 1j * skew, atol=1e-14)


def test_nonhermitian_catalog_skew_bound_is_one():
    V = potential_catalog("nonhermitian-gaussian")
    assert abs(V.skew_bound - 1.0) < 1e-13


# ---------------------------------------------------------------------------
# perturbed resolvent


def test_zero_potential_matches_free_resolvent(rng):
    mesh = Mesh(2, 0.5, 16)
    p = DiracParams(1.0, 0.5)
    psi = random_field(mesh, 2, rng)
    q = ResolventQuery(z=2j, p=p)
    free = resolvent_free(psi, q)
    with_v = resolvent_with_potential(psi, q, potential_catalog("zero"))
    assert np.max(np.abs(free.values - with_v.values)) < 1e-12


def test_constant_scalar_potential_is_a_shift(rng):
    # (D + cI - z)^-1 = (D - (z - c))^-1; the Krylov policy is selected here
    mesh = Mesh(2, 0.5, 16)
    p = DiracParams(1.0, 0.5)
    psi = random_field(mesh, 2, rng)
    u = resolvent_with_potential(psi, ResolventQuery(z=2j, p=p), potential_catalog("const-shift"))
    shifted = resolvent_free(psi, ResolventQuery(z=2j - 2.5, p=p))
    assert np.max(np.abs(u.values - shifted.values)) < 1e-9


@pytest.mark.parametrize("name,z", [("hermitian-gaussian", 2j), ("nonhermitian-gaussian", 3j)])
def test_iterative_solve_matches_dense_lu(name, z, rng):
    mesh = Mesh(2, 0.5, 16)
    p = DiracParams(1.0, 0.5)
    psi = random_field(mesh, 2, rng)
    V = potential_catalog(name)
    u = resolvent_with_potential(psi, ResolventQuery(z=z, p=p), V)
    A = dense_matrix(p, mesh, V) - z * np.eye(2 * 16 * 16)
    dense = vec_to_field(np.linalg.solve(A, field_to_vec(psi)), mesh)
    assert np.max(np.abs(u.values - dense.values)) < 1e-8
    # solution bound from the carried-out inversion of the skew part
    assert norm_l2(u) <= norm_l2(psi) / (abs(z.imag) - V.skew_bound) + 1e-10


def test_factorized_identity_consistency(rng):
    # w = (D - z) u must satisfy w + V R_z w = psi
    mesh = Mesh(2, 0.5, 16)
    p = DiracParams(1.0, 0.5)
    psi = random_field(mesh, 2, rng)
    V = potential_catalog("hermitian-gaussian")
    q = ResolventQuery(z=2j, p=p)
    u = resolvent_with_potential(psi, q, V)
    w_vals = apply_dirac(u, p).values - q.z * u.values
    w = LatticeField(mesh, w_vals)
    Vh = sample_potential(V, mesh)
    lhs = w.values + np.einsum("...ab,...b->...a", Vh, resolvent_free(w, q).values)
    assert norm_l2(LatticeField(mesh, lhs - psi.values)) / norm_l2(psi) < 1e-9


@pytest.mark.parametrize("policy", ["neumann", "krylov"])
def test_solver_stopping_test_bounds_the_true_residual(policy, rng):
    # the solvers stop on w + V u - psi for u = R_z w; the residual of
    # (D + V - z) u = psi, with D applied by its stencils, must stay within tolerance
    mesh = Mesh(2, 0.5, 16)
    p = DiracParams(1.0, 0.5)
    psi = random_field(mesh, 2, rng)
    V = potential_catalog("nonhermitian-gaussian")
    q = ResolventQuery(z=3j, p=p, policy=policy)
    u = resolvent_with_potential(psi, q, V)
    r = apply_dirac(u, p, V, path="stencil").values - q.z * u.values - psi.values
    assert norm_l2(LatticeField(mesh, r)) / norm_l2(psi) <= 2 * q.tol


def _continuum_dirac(u: LatticeField, m: float) -> np.ndarray:
    """``D u`` with the continuum symbol, on `dft`/`idft` as in `_continuum_neumann_loop`."""
    u_hat = dft(u)
    xi = u_hat.grid.coords()
    zeta = xi[..., 0] + 1j * xi[..., 1]
    a, b = u_hat.values[..., 0], u_hat.values[..., 1]
    return idft(SpectralField(u_hat.grid, np.stack([m * a + np.conj(zeta) * b, zeta * a - m * b], axis=-1))).values


def _site_table(psi: LatticeField) -> ContinuumFunction:
    """The spinor whose values at the sites of ``psi``'s mesh, and so at those of its half meshes, are ``psi``'s."""
    mesh = psi.mesh

    def evaluate(x):
        n = np.round(x / mesh.h).astype(int) + mesh.N // 2
        return psi.values[n[..., 0], n[..., 1]]

    return ContinuumFunction("site-table", 2, 2, evaluate)


def _nested_solve(phi: ContinuumFunction, mesh: Mesh, z, m, V, policy, tol=1e-10, max_iter=2000) -> LatticeField:
    """The nested continuum solve of ``phi`` on ``mesh``, at refine 1, as a field."""
    u, _ = _solve_with_potential(phi, mesh, 1, z, m, V, policy, tol, max_iter, 50)
    return LatticeField(mesh, np.moveaxis(u, 0, -1))


@pytest.mark.parametrize("policy", ["neumann", "krylov"])
def test_continuum_symbol_solve_bounds_the_true_residual(policy, rng):
    # the same with the continuum symbol, D applied through the public transform pair
    mesh = Mesh(2, 0.25, 32)
    m, z, tol = 1.0, 3j, 1e-10
    psi = random_field(mesh, 2, rng)
    V = potential_catalog("nonhermitian-gaussian")
    Vh = sample_potential(V, mesh)
    u = _nested_solve(_site_table(psi), mesh, z, m, V, policy, tol)
    r = _continuum_dirac(u, m) + np.einsum("...ab,...b->...a", Vh, u.values) - z * u.values - psi.values
    assert norm_l2(LatticeField(mesh, r)) / norm_l2(psi) <= 2 * tol


def test_dense_oracle_policy_agrees_with_iteration(rng):
    mesh = Mesh(2, 0.5, 16)
    p = DiracParams(1.0, 0.5)
    psi = random_field(mesh, 2, rng)
    V = potential_catalog("hermitian-gaussian")
    u1 = resolvent_with_potential(psi, ResolventQuery(z=2j, p=p), V)
    u2 = resolvent_with_potential(psi, ResolventQuery(z=2j, p=p, policy="dense-oracle"), V)
    assert np.max(np.abs(u1.values - u2.values)) < 1e-8


@PROPERTY
@given(N=EVEN_N, h=st.sampled_from([0.5, 1.0]), m=st.floats(0.5, 1.5),
       name=st.sampled_from(POTENTIAL_IDS), margin=st.floats(0.25, 3.0),
       re=st.floats(-2.0, 2.0), sign=st.sampled_from([1.0, -1.0]), seed=SEEDS)
def test_iterative_solvers_agree_with_dense_oracle_property(N, h, m, name, margin, re, sign, seed):
    mesh = Mesh(2, h, N)
    V = potential_catalog(name)
    z = complex(re, sign * (V.skew_bound + margin))
    psi = random_field(mesh, 2, np.random.default_rng(seed))

    def query(policy):
        return ResolventQuery(z=z, p=DiracParams(m, h), policy=policy)

    dense = resolvent_with_potential(psi, query("dense-oracle"), V)
    certified = V.sup_norm / abs(z.imag) <= 0.9
    for policy in ["krylov"] + (["neumann"] if certified else []):
        u = resolvent_with_potential(psi, query(policy), V)
        assert norm_l2(LatticeField(mesh, u.values - dense.values)) <= 1e-8 * norm_l2(dense)


@PROPERTY
@given(N=EVEN_N, h=st.sampled_from([0.5, 1.0]), m=st.floats(0.5, 1.5),
       name=st.sampled_from(POTENTIAL_IDS),
       margins=st.tuples(st.floats(0.25, 3.0), st.floats(0.25, 3.0)),
       res=st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
       signs=st.tuples(st.sampled_from([1.0, -1.0]), st.sampled_from([1.0, -1.0])), seed=SEEDS)
def test_resolvent_identity_property(N, h, m, name, margins, res, signs, seed):
    # R_z - R_w = (z - w) R_z R_w, for the free resolvent and the perturbed one
    mesh = Mesh(2, h, N)
    V = potential_catalog(name)
    z, w = (complex(r, s * (V.skew_bound + g)) for r, s, g in zip(res, signs, margins))
    psi = random_field(mesh, 2, np.random.default_rng(seed))
    p = DiracParams(m, h)

    def free(f, shift):
        return resolvent_free(f, ResolventQuery(z=shift, p=p))

    def perturbed(f, shift):
        return resolvent_with_potential(f, ResolventQuery(z=shift, p=p), V)

    for R, tol in ((free, 1e-12), (perturbed, 1e-8)):
        lhs = R(psi, z).values - R(psi, w).values
        rhs = (z - w) * R(R(psi, w), z).values
        assert norm_l2(LatticeField(mesh, lhs - rhs)) <= tol * norm_l2(psi)


def test_solves_leave_their_input_untouched(rng):
    # results are channel-last views of channel-first memory, and the transforms
    # work in place; feeding a result back in must not overwrite it
    mesh = Mesh(2, 0.5, 16)
    p = DiracParams(1.0, 0.5)
    V = potential_catalog("nonhermitian-gaussian")
    u = resolvent_free(random_field(mesh, 2, rng), ResolventQuery(z=3j, p=p))
    before = u.values.copy()
    apply_dirac(u, p, path="symbol")
    resolvent_free(u, ResolventQuery(z=3j, p=p))
    for policy in ("neumann", "krylov"):
        resolvent_with_potential(u, ResolventQuery(z=3j, p=p, policy=policy), V)
    assert np.array_equal(u.values, before)


def test_resolvent_region_enforced(rng):
    mesh = Mesh(2, 0.5, 8)
    p = DiracParams(1.0, 0.5)
    psi = random_field(mesh, 2, rng)
    V = potential_catalog("nonhermitian-gaussian")  # skew bound 1
    with pytest.raises(NotInResolventRegion):
        resolvent_with_potential(psi, ResolventQuery(z=0.5j, p=p), V)
    with pytest.raises(NotInResolventRegion):  # equality is excluded too
        resolvent_with_potential(psi, ResolventQuery(z=1j, p=p), V)


def test_solves_run_in_complex128(monkeypatch, rng):
    # every transform of either policy, with the discrete symbol and the continuum one, and every result
    mesh = Mesh(2, 0.15, 64)
    psi = random_field(mesh, 2, rng)
    V = potential_catalog("nonhermitian-gaussian")
    dtypes = spy_fft(monkeypatch)
    for policy in ("neumann", "krylov"):
        q = ResolventQuery(z=3j, p=DiracParams(1.0, 0.15), policy=policy)
        discrete = resolvent_with_potential(psi, q, V)
        continuum = _nested_solve(_site_table(psi), mesh, 3j, 1.0, V, policy)
        assert discrete.values.dtype == continuum.values.dtype == np.complex128
    assert dtypes and set(dtypes) == {np.dtype(np.complex128)}


def test_neumann_step_cap_spans_both_phases(rng):
    # three steps do not reach the tolerance
    mesh = Mesh(2, 0.5, 16)
    psi = random_field(mesh, 2, rng)
    q = ResolventQuery(z=3j, p=DiracParams(1.0, 0.5), policy="neumann", max_iter=3)
    with pytest.raises(NoConvergence) as info:
        resolvent_with_potential(psi, q, potential_catalog("nonhermitian-gaussian"))
    assert info.value.iterations == 3


@PROPERTY
@given(N=EVEN_N, h=st.sampled_from([0.5, 1.0]), m=st.floats(0.5, 1.5),
       name=st.sampled_from(POTENTIAL_IDS), gap=st.floats(0.25, 3.0),
       re=st.floats(-2.0, 2.0), sign=st.sampled_from([1.0, -1.0]), seed=SEEDS)
def test_neumann_matches_a_double_loop_property(N, h, m, name, gap, re, sign, seed):
    # the solver against a plain complex128 Neumann loop, at shifts where sup||V|| / |Im z| < 0.9
    mesh = Mesh(2, h, N)
    V = potential_catalog(name)
    z = complex(re, sign * (V.sup_norm + gap) / 0.9)
    psi = random_field(mesh, 2, np.random.default_rng(seed))
    q = ResolventQuery(z=z, p=DiracParams(m, h), policy="neumann")
    Vh = sample_potential(V, mesh)
    w = psi.values
    for _ in range(q.max_iter):
        u = resolvent_free(LatticeField(mesh, w), q)
        w_next = psi.values - np.einsum("...ab,...b->...a", Vh, u.values)
        if norm_l2(LatticeField(mesh, w - w_next)) <= q.tol * norm_l2(psi):
            break
        w = w_next
    solved = resolvent_with_potential(psi, q, V)
    assert norm_l2(LatticeField(mesh, solved.values - u.values)) <= 1e-8 * norm_l2(u)


def _continuum_neumann_loop(psi, z, m, Vh, tol, max_iter=2000):
    """Plain complex128 Neumann loop ``w <- psi - V R_z w`` with the continuum symbol, on `dft`/`idft`."""
    mesh = psi.mesh
    xi = FrequencyGrid(mesh).coords()
    zeta = xi[..., 0] + 1j * xi[..., 1]
    den = np.abs(zeta) ** 2 + m * m - z * z
    w = psi.values
    for _ in range(max_iter):
        w_hat = dft(LatticeField(mesh, w))
        a, b = w_hat.values[..., 0], w_hat.values[..., 1]
        u_hat = np.stack([(m + z) * a + np.conj(zeta) * b, zeta * a + (z - m) * b], axis=-1) / den[..., None]
        u = idft(SpectralField(w_hat.grid, u_hat)).values
        w_next = psi.values - np.einsum("...ab,...b->...a", Vh, u)
        if norm_l2(LatticeField(mesh, w - w_next)) <= tol * norm_l2(psi):
            return u
        w = w_next
    raise AssertionError("the reference loop did not converge")


@PROPERTY
@given(N=st.sampled_from([8, 12, 16, 24, 32, 48, 64]), h=st.sampled_from([0.5, 1.0]),
       m=st.floats(0.5, 1.5), name=st.sampled_from(POTENTIAL_IDS), gap=st.floats(0.25, 3.0),
       re=st.floats(-2.0, 2.0), sign=st.sampled_from([1.0, -1.0]), seed=SEEDS)
def test_nested_continuum_solve_matches_a_double_loop_property(N, h, m, name, gap, re, sign, seed):
    # N % 4 == 0: the solve starts from its half-mesh solution, here of rough data
    mesh = Mesh(2, h, N)
    V = potential_catalog(name)
    z = complex(re, sign * (V.sup_norm + gap) / 0.9)
    psi = random_field(mesh, 2, np.random.default_rng(seed))
    Vh = sample_potential(V, mesh)
    u = _continuum_neumann_loop(psi, z, m, Vh, 1e-10)
    solved = _nested_solve(_site_table(psi), mesh, z, m, V, None)
    assert norm_l2(LatticeField(mesh, solved.values - u)) <= 1e-8 * norm_l2(LatticeField(mesh, u))


@PROPERTY
@given(N=st.sampled_from([8, 12, 16, 24, 32, 48, 64]), h=st.sampled_from([0.5, 1.0]),
       m=st.floats(0.5, 1.5), name=st.sampled_from(POTENTIAL_IDS), gap=st.floats(0.25, 3.0),
       re=st.floats(-2.0, 2.0), sign=st.sampled_from([1.0, -1.0]), seed=SEEDS)
def test_nested_continuum_krylov_solve_matches_a_double_loop_property(N, h, m, name, gap, re, sign, seed):
    # rough data: the prolonged half-mesh solution fails the fine test, so GMRES starts from it
    mesh = Mesh(2, h, N)
    V = potential_catalog(name)
    z = complex(re, sign * (V.sup_norm + gap) / 0.9)
    psi = random_field(mesh, 2, np.random.default_rng(seed))
    Vh = sample_potential(V, mesh)
    u = _continuum_neumann_loop(psi, z, m, Vh, 1e-10)
    solved = _nested_solve(_site_table(psi), mesh, z, m, V, "krylov")
    assert norm_l2(LatticeField(mesh, solved.values - u)) <= 1e-8 * norm_l2(LatticeField(mesh, u))


SMOOTH_REFERENCE = pytest.mark.parametrize("z,policy", [(3j, None), (1.2j, "krylov")], ids=["neumann", "krylov"])


@pytest.mark.parametrize("refine", [1, 2])
@SMOOTH_REFERENCE
def test_nested_continuum_solve_returns_its_prolonged_start_from_half_size_transforms(z, policy, refine, monkeypatch):
    # smooth data: the interpolated half-mesh solution passes the fine test as it is.  Coset
    # (0, 0) is the half-mesh solution, whose residual the half mesh measured, so the fine mesh's
    # start test transforms each of the three other cosets back twice, for u and D u, at the half
    # mesh's size, and the fine mesh runs no step and no GMRES.  The half mesh (N = 128) passes
    # too, so the band is the 64 x 64 spectrum of N = 64, and each of the six inverse transforms
    # is pruned: 128 transforms of length 128 along the rows of the (2, 128, 64) column band and
    # 256 along the columns of (2, 128, 128), 2304 in all (six 2D transforms would run 3072).
    # The cell averages are then one 2D inverse transform of the coarse size from the band: of
    # the fine mesh's own size at refine 1, and at refine 2 no transform of that size runs at all
    mesh = Mesh(2, 9.6 / 256, 256)
    V = potential_catalog("nonhermitian-gaussian")
    transforms = spy_transforms(monkeypatch)
    gmres_sizes, fine_start = [], []

    def gmres(matvec, b_vec, *args, _gmres=operators._gmres):
        gmres_sizes.append(b_vec.size)
        return _gmres(matvec, b_vec, *args)

    def coset_start(spec, fine, *args, _coset_start=operators._coset_start):
        before, forward_before = len(transforms), len(forward)
        start, measured = _coset_start(spec, fine, *args)
        if fine.N == mesh.N:
            fine_start.append((start is None, spec.shape, transforms[before:], forward[forward_before:],
                               len(transforms), len(forward)))
        return start, measured

    monkeypatch.setattr(operators, "_gmres", gmres)
    monkeypatch.setattr(operators, "_coset_start", coset_start)
    forward = spy_transforms(monkeypatch, names=("fft",))
    _solve_with_potential(gaussian_spinor(), mesh, refine, z, 1.0, V, policy, 1e-10, 2000, 50)
    [(passed, band, during, forward_during, end, forward_end)] = fine_start
    assert passed
    assert band == (2, 64, 64)
    assert forward_during == forward[forward_end:] == []  # inverse transforms only, from the start test on
    assert sorted(set(during)) == [((2, 128, 64), (1,)), ((2, 128, 128), (2,))]
    assert one_d_lengths(during) == {128: 2304}
    cells = mesh.N // refine
    assert transforms[end:] == [((2, cells, cells), (1,)), ((2, cells, cells), (2,))]  # one coarse 2D inverse
    assert (256 in one_d_lengths(transforms)) == (refine == 1)
    assert bool(gmres_sizes) == (policy == "krylov")  # the coarse levels still iterate
    assert 2 * mesh.N**2 not in gmres_sizes


@SMOOTH_REFERENCE
def test_returned_prolonged_start_is_certified_at_tol(z, policy):
    # the field returned without a step, checked independently of the solver's residual
    mesh = Mesh(2, 9.6 / 256, 256)
    m, tol = 1.0, 1e-10
    V = potential_catalog("nonhermitian-gaussian")
    psi = sample(gaussian_spinor(), mesh)
    u = _nested_solve(gaussian_spinor(), mesh, z, m, V, policy, tol)
    Vu = np.einsum("...ab,...b->...a", sample_potential(V, mesh), u.values)
    r = _continuum_dirac(u, m) + Vu - z * u.values - psi.values
    assert norm_l2(LatticeField(mesh, r)) / norm_l2(psi) <= tol


def _zero_padded(spec: np.ndarray, n: int) -> np.ndarray:
    """The band spectrum ``spec`` as the ``n x n`` spectrum of the same field: zero-padded, times ``(n/K)**2``."""
    K = spec.shape[1]
    k = np.arange(-(K // 2), K // 2)  # signed indices of the band, Nyquist at -K/2
    padded = np.zeros((spec.shape[0], n, n), dtype=complex)
    padded[:, (k % n)[:, None], k % n] = (n / K) ** 2 * spec[:, (k % K)[:, None], k % K]
    return padded


def _prolonged(spec: np.ndarray, mesh: Mesh) -> LatticeField:
    """The interpolant on ``mesh`` that zero-pads the band spectrum ``spec``, by one full-size transform."""
    return LatticeField(mesh, np.moveaxis(np.fft.ifft2(_zero_padded(spec, mesh.N)), 0, -1))


def _spy_starts(monkeypatch) -> list:
    """``(N, passed, sum_sq, psi_sq, spectrum)`` of every `operators._coset_start` call, in call order."""
    starts = []

    def coset_start(spec, fine, *args, _coset_start=operators._coset_start):
        half_spectrum = spec.copy()
        start, measured = _coset_start(spec, fine, *args)
        starts.append((fine.N, start is None, *measured, half_spectrum))
        return start, measured

    monkeypatch.setattr(operators, "_coset_start", coset_start)
    return starts


# (N, tol, data, whether the half mesh's own start passes): the half mesh's solution is then its
# interpolated start, or the solution iterated to tol; the fine residual stays near 1e-2 or above,
# far above the roundoff of the independent residual
MEASURED_HALF = pytest.mark.parametrize("N,tol,rough,half_passed", [
    (64, 1e-2, False, True), (32, 1e-3, False, False), (32, 1e-10, True, False),
], ids=["half-passed", "half-iterated", "rough"])


@MEASURED_HALF
@SMOOTH_REFERENCE
def test_fine_start_test_value_is_the_full_mesh_residual_of_the_interpolant(N, tol, rough, half_passed, z, policy,
                                                                            monkeypatch, rng):
    # coset (0, 0) enters the fine test through the sums the half mesh measured; the test value
    # sqrt(sum_sq / psi_sq) is checked against the residual of the interpolant on all four cosets
    mesh, m = Mesh(2, 9.6 / N, N), 1.0
    psi = random_field(mesh, 2, rng) if rough else sample(gaussian_spinor(), mesh)
    V = potential_catalog("nonhermitian-gaussian")
    starts = _spy_starts(monkeypatch)
    _nested_solve(_site_table(psi), mesh, z, m, V, policy, tol)
    [(_, half_start, *_)] = [start for start in starts if start[0] == mesh.N // 2]
    [(_, _, sum_sq, psi_sq, spec)] = [start for start in starts if start[0] == mesh.N]
    assert half_start == half_passed
    u_p = _prolonged(spec, mesh)
    Vu = np.einsum("...ab,...b->...a", sample_potential(V, mesh), u_p.values)
    r = _continuum_dirac(u_p, m) + Vu - z * u_p.values - psi.values
    expected = norm_l2(LatticeField(mesh, r)) / norm_l2(psi)
    assert abs(np.sqrt(sum_sq / psi_sq) - expected) <= 1e-12 * expected


@pytest.mark.parametrize("factors", [True, False], ids=["factors", "no-factors"])
@pytest.mark.parametrize("tol,passed", [(1e6, True), (1e-10, False)], ids=["passing", "failing"])
@pytest.mark.parametrize("shrink", [2, 4, 8])
@pytest.mark.parametrize("z", [3j, 1.2j], ids=["neumann", "krylov"])
def test_band_start_matches_the_start_from_the_zero_padded_spectrum(z, shrink, tol, passed, factors, rng):
    # the pruned inverse on a K-band spectrum against the one 2D transform of the same spectrum
    # zero-padded to the half mesh's n x n; the right-hand side per axis or, without factors, per block
    mesh, n = Mesh(2, 9.6 / 64, 64), 32
    K = n // shrink
    spec = rng.standard_normal((2, K, K)) + 1j * rng.standard_normal((2, K, K))
    phi = gaussian_spinor() if factors else ContinuumFunction("plain-spinor", 2, 2, gaussian_spinor().evaluate)
    args = (mesh, phi, z, 1.0, potential_catalog("nonhermitian-gaussian"), tol, (0.5, 2.0))
    start, (sum_sq, psi_sq) = operators._coset_start(spec, *args)
    expected, (expected_sum_sq, expected_psi_sq) = operators._coset_start(_zero_padded(spec, n), *args)
    assert (start is None) == (expected is None) == passed
    if not passed:  # both against the interpolant by one 2D transform of the fine mesh's size
        u_p = np.moveaxis(_prolonged(spec, mesh).values, -1, 0)
        for field in (start, expected):
            assert np.linalg.norm(field - u_p) <= 1e-13 * np.linalg.norm(u_p)
    assert abs(sum_sq - expected_sum_sq) <= 1e-13 * expected_sum_sq
    assert abs(psi_sq - expected_psi_sq) <= 1e-13 * expected_psi_sq


_BAND_DIVISORS = {"full": 1, "half": 2, "quarter": 4, "eighth": 8}


@pytest.mark.parametrize("size,cells,refine", [
    pytest.param(size, cells, refine, id=f"{size}-{cells}-{refine}")
    for size, divisor in _BAND_DIVISORS.items() for cells in range(4, 36, 2) for refine in range(1, 9)
    if cells * refine % divisor == 0
])
def test_cell_spectrum_is_the_spectrum_of_the_block_average_of_the_zero_padded_field(refine, cells, size, rng):
    # the kernel and fold against `block_average` of the fine field that zero-pads a band
    # spectrum of M = N/2 (no multiple of the coarse size for an odd refine, and odd itself when
    # both cells / 2 and refine are odd), M = N/4 or N/8 (the band of a level below the half
    # mesh, where the start passed) or M = N, Nyquist at -M/2 as in `operators._coset_start`
    coarse, fine = Mesh(2, 1.0, cells), Mesh(2, 1.0 / refine, cells * refine)
    M = fine.N // _BAND_DIVISORS[size]
    spec = np.fft.fft2(rng.standard_normal((2, M, M, 2)) @ [1.0, 1j])
    k = (np.arange(M) + M // 2) % M - M // 2
    padded = np.zeros((2,) + fine.shape, dtype=complex)
    padded[:, (k % fine.N)[:, None], k % fine.N] = (fine.N / M) ** 2 * spec
    field = LatticeField(fine, np.moveaxis(np.fft.ifft2(padded), 0, -1))
    expected = np.moveaxis(block_average(field, coarse).values, -1, 0)
    averages = np.fft.ifft2(_cell_spectrum(spec, refine, fine.N))
    assert np.linalg.norm(averages - expected) <= 1e-14 * np.linalg.norm(expected)


@pytest.mark.parametrize("policy", ["neumann", "krylov"])
def test_discrete_symbol_solve_stays_on_its_mesh(policy, monkeypatch, rng):
    mesh = Mesh(2, 0.5, 16)
    psi = random_field(mesh, 2, rng)
    q = ResolventQuery(z=3j, p=DiracParams(1.0, 0.5), policy=policy)
    shapes = spy_fft(monkeypatch, record=lambda x: x.shape)
    resolvent_with_potential(psi, q, potential_catalog("nonhermitian-gaussian"))
    assert shapes and set(shapes) == {(2, 16, 16)}


def test_continuum_solve_with_odd_half_does_not_coarsen(monkeypatch, rng):
    mesh = Mesh(2, 0.5, 18)  # 18 / 2 = 9 sites is no mesh
    psi = random_field(mesh, 2, rng)
    V = potential_catalog("hermitian-gaussian")
    Vh = sample_potential(V, mesh)
    u = _continuum_neumann_loop(psi, 3j, 1.0, Vh, 1e-10)
    shapes = spy_fft(monkeypatch, record=lambda x: x.shape)
    solved = _nested_solve(_site_table(psi), mesh, 3j, 1.0, V, None)
    assert shapes and set(shapes) == {(2, 18, 18)}
    assert norm_l2(LatticeField(mesh, solved.values - u)) <= 1e-8 * norm_l2(LatticeField(mesh, u))


def test_continuum_solve_step_cap_reports_no_convergence(rng):
    mesh = Mesh(2, 0.5, 16)
    psi = random_field(mesh, 2, rng)
    V = potential_catalog("nonhermitian-gaussian")
    tol = 1e-10
    with pytest.raises(NoConvergence) as info:
        _nested_solve(_site_table(psi), mesh, 3j, 1.0, V, None, tol, 3)
    assert info.value.residual > tol


def _nonfinite_input_cases():
    """Calls that take one number, by the input they pass it to."""
    mesh, p = Mesh(2, 0.5, 8), DiracParams(1.0, 0.5)
    psi = LatticeField(mesh, np.ones(mesh.shape + (2,)))
    sweep = {"hs": (0.8, 0.4), "box": 9.6, "function": "gaussian-spinor", "z": 3j,
             "potential": "nonhermitian-gaussian"}
    return {
        "DiracParams-m": lambda x: DiracParams(x, 0.5),
        "DiracParams-h": lambda x: DiracParams(1.0, x),
        "Mesh-h": lambda x: Mesh(2, x, 8),
        "Sweep-m": lambda x: Sweep(**{**sweep, "m": x}),
        "Sweep-z": lambda x: Sweep(**{**sweep, "z": complex(1.0, x)}),
        "Sweep-box": lambda x: Sweep(**{**sweep, "box": x}),
        "Sweep-s": lambda x: Sweep(**{**sweep, "s": x}),
        "Sweep-hs": lambda x: Sweep(**{**sweep, "hs": (x, 0.4)}),
        "ResolventQuery-z": lambda x: ResolventQuery(z=complex(1.0, x), p=p),
        "resolvent_free-z": lambda x: resolvent_free(psi, ResolventQuery(z=complex(x, 1.0), p=p)),
        "resolvent_with_potential-z": lambda x: resolvent_with_potential(
            psi, ResolventQuery(z=complex(x, 3.0), p=p), potential_catalog("nonhermitian-gaussian")),
        "resolvent_continuum-m": lambda x: resolvent_continuum(gaussian_spinor(), 2j, x, Mesh(2, 0.4, 24), 2),
        "resolvent_continuum-z": lambda x: resolvent_continuum(
            gaussian_spinor(), complex(x, 2.0), 1.0, Mesh(2, 0.4, 24), 2),
        "weighted_ft_error-s": lambda x: weighted_ft_error(gaussian(1), Mesh(1, 0.4, 24), x),
        "resolvent_norm_bound-z": lambda x: resolvent_norm_bound(complex(x, 1.0)),
    }


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("case", sorted(_nonfinite_input_cases()))
def test_non_finite_inputs_fail_before_any_transform(case, value, monkeypatch):
    transforms = spy_fft(monkeypatch, names=("fft", "ifft"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises((ValueError, LatticeDiracError)):
            _nonfinite_input_cases()[case](value)
    assert transforms == []


@pytest.mark.parametrize("bad", [
    {"tol": 0.0}, {"tol": -1.0}, {"tol": float("nan")}, {"tol": float("inf")},
    {"max_iter": 0}, {"restart": 0},
    {"max_iter": 2.5}, {"max_iter": np.float64(10)}, {"max_iter": True},
    {"restart": 2.5}, {"restart": np.float64(10)}, {"restart": True},
])
def test_resolvent_query_rejects_bad_solver_parameters(bad):
    with pytest.raises(ValueError):
        ResolventQuery(z=3j, p=DiracParams(1.0, 0.5), policy="neumann", **bad)


def test_forced_neumann_reports_stall(rng):
    # contraction not certified: sup||V|| / |Im z| = 1.25
    mesh = Mesh(2, 0.5, 8)
    p = DiracParams(1.0, 0.5)
    psi = random_field(mesh, 2, rng)
    V = potential_catalog("const-shift")
    with pytest.raises(NoConvergence) as info:
        resolvent_with_potential(psi, ResolventQuery(z=2j, p=p, policy="neumann", max_iter=50), V)
    assert info.value.iterations == 50
    assert info.value.residual > 0


def test_krylov_reports_no_convergence(rng):
    # one restart cycle of one step falls short; the residual is the one the final check measured
    mesh = Mesh(2, 0.5, 16)
    psi = random_field(mesh, 2, rng)
    q = ResolventQuery(z=1.2j, p=DiracParams(1.0, 0.5), policy="krylov", max_iter=1, restart=1)
    with pytest.raises(NoConvergence) as info:
        resolvent_with_potential(psi, q, potential_catalog("nonhermitian-gaussian"))
    assert q.tol < info.value.residual < 1.0
    assert info.value.iterations >= 1


@pytest.mark.parametrize("max_iter,restart", [(1, 50), (3, 50), (4, 2), (7, 5)])
def test_krylov_runs_max_iter_arnoldi_steps_and_reports_them(monkeypatch, rng, max_iter, restart):
    # tol 1e-14 is out of reach in so few steps: GMRES runs exactly max_iter Arnoldi steps, the
    # last cycle cut short, plus one product per restart, and NoConvergence counts the steps
    products = []

    def gmres(matvec, *args, _gmres=operators._gmres):
        return _gmres(lambda v: products.append(1) or matvec(v), *args)

    monkeypatch.setattr(operators, "_gmres", gmres)
    psi = random_field(Mesh(2, 0.5, 16), 2, rng)
    q = ResolventQuery(z=1.2j, p=DiracParams(1.0, 0.5), policy="krylov", tol=1e-14, max_iter=max_iter,
                       restart=restart)
    with pytest.raises(NoConvergence) as info:
        resolvent_with_potential(psi, q, potential_catalog("nonhermitian-gaussian"))
    assert info.value.iterations == max_iter
    assert len(products) == max_iter + (max_iter - 1) // restart


def _constant_potential(value: float) -> PotentialSpec:
    """``value * I`` that declares ``sup_norm`` 1, whatever ``value`` is."""
    return PotentialSpec("undeclared", lambda x: np.broadcast_to(value * np.eye(2), x.shape[:-1] + (2, 2)), 1.0, 0.0)


@pytest.mark.parametrize("value", [5.0, float("nan")])
def test_non_finite_residual_stops_the_neumann_steps_at_once(value):
    # the declared sup_norm certifies Neumann at z = 3i; 5*I makes the steps grow until the
    # residual overflows (at step 775 of 2000), NaN samples give a NaN residual at step 1.
    # Under the suite's warnings-as-errors, a step on overflowed data would raise instead.
    mesh = Mesh(2, 0.4, 24)
    q = ResolventQuery(z=3j, p=DiracParams(1.0, 0.4))
    with pytest.raises(NoConvergence, match="not finite") as info:
        resolvent_with_potential(sample(gaussian_spinor(), mesh), q, _constant_potential(value))
    assert not np.isfinite(info.value.residual)
    steps = info.value.iterations
    assert steps == 1 if np.isnan(value) else 1 < steps < q.max_iter


def test_non_finite_krylov_products_stop_gmres_at_once():
    # NaN samples make the first GMRES product NaN; without the stop GMRES ran all of max_iter
    # on them and warned at every step, which the suite's warnings-as-errors makes a failure
    mesh = Mesh(2, 0.4, 24)
    q = ResolventQuery(z=3j, p=DiracParams(1.0, 0.4), policy="krylov")
    with pytest.raises(NoConvergence, match="not finite") as info:
        resolvent_with_potential(sample(gaussian_spinor(), mesh), q, _constant_potential(float("nan")))
    assert not np.isfinite(info.value.residual)
    assert info.value.iterations == 1


def _nan_off_the_half_mesh(x):
    """NaN times the identity at the odd sites of ``Mesh(2, 0.5, N)`` (odd ``x_1 / 0.5``), zero elsewhere."""
    odd = np.round(x[..., 0] / 0.5) % 2 == 1
    return np.where(odd[..., None, None], np.nan, 0.0) * np.eye(2)


@pytest.mark.parametrize("policy", ["neumann", "krylov"])
@pytest.mark.parametrize("nan_sites", ["all", "odd"])
def test_non_finite_prolonged_start_raises_no_convergence(nan_sites, policy):
    # NaN on every site stops the coarsest level; NaN on the odd sites only leaves the half
    # meshes finite, so the fine mesh's start test reads NaN, fails, and the iteration stops
    mesh = Mesh(2, 0.5, 16)
    V = {"all": _constant_potential(float("nan")),
         "odd": PotentialSpec("nan-off-the-half-mesh", _nan_off_the_half_mesh, 1.0, 0.0)}[nan_sites]
    with pytest.raises(NoConvergence, match="not finite"):
        _nested_solve(gaussian_spinor(), mesh, 3j, 1.0, V, policy)


def _nan_rows(period: int, residue: int) -> PotentialSpec:
    """NaN times the identity on the rows ``x_1 / 0.5 = residue (mod period)`` of ``Mesh(2, 0.5, N)``, else zero."""
    def matrix_fn(x):
        rows = np.round(x[..., 0] / 0.5) % period == residue
        return np.where(rows[..., None, None], np.nan, 0.0) * np.eye(2)

    return PotentialSpec(f"nan-rows-{residue}-mod-{period}", matrix_fn, 1.0, 0.0)


@pytest.mark.parametrize("policy", ["neumann", "krylov"])
@pytest.mark.parametrize("period,residue", [(4, 2), (2, 0)], ids=["odd-sites-of-the-half-mesh", "half-mesh"])
def test_nan_only_on_the_half_mesh_sites_never_passes_the_fine_start(period, residue, policy, monkeypatch):
    # the fine test takes coset (0, 0), the half mesh's sites, from the sums the half mesh measured;
    # a NaN there stops the half mesh (or a coarser one) and the fine start is never tested
    mesh = Mesh(2, 0.5, 16)
    starts = _spy_starts(monkeypatch)
    with pytest.raises(NoConvergence, match="not finite"):
        _nested_solve(gaussian_spinor(), mesh, 3j, 1.0, _nan_rows(period, residue), policy)
    assert [N for N, *_ in starts] == ([mesh.N // 2] if residue else [])
    assert not any(passed for _, passed, *_ in starts)


_MISSHAPEN = [
    lambda x: np.ones(x.shape, dtype=complex),  # (..., 2): broadcasts along the wrong axis
    lambda x: np.eye(2, dtype=complex),  # one matrix for every site
]


@pytest.mark.parametrize("matrix_fn", _MISSHAPEN)
def test_potential_samples_of_the_wrong_shape_are_rejected(matrix_fn):
    mesh, p = Mesh(2, 0.4, 24), DiracParams(1.0, 0.4)
    psi = sample(gaussian_spinor(), mesh)
    V = PotentialSpec("misshapen", matrix_fn, 1.0, 0.0)
    for call in (
        lambda: resolvent_with_potential(psi, ResolventQuery(z=3j, p=p), V),
        lambda: apply_dirac(psi, p, V),
        lambda: dense_matrix(p, mesh, V),
    ):
        with pytest.raises(ValueError, match=r"potential 'misshapen' gave samples of shape .*expected \(24, 24, 2, 2\)"):
            call()


@pytest.mark.parametrize("policy", ["neumann", "krylov"])
@pytest.mark.parametrize("matrix_fn", _MISSHAPEN, ids=["channel-axis", "one-matrix"])
def test_potential_values_of_the_wrong_shape_are_rejected_per_row_block(matrix_fn, policy, monkeypatch):
    # N = 192 is several row blocks: the solve evaluates V on one block of rows at a time,
    # the first one before any transform, in a level solve and in the coarse-to-fine reference
    mesh, p = Mesh(2, 0.05, 192), DiracParams(1.0, 0.05)
    rows = operators._BLOCK_SITES // mesh.N
    assert rows < mesh.N
    V = PotentialSpec("misshapen", matrix_fn, 1.0, 0.0)
    psi = sample(gaussian_spinor(), mesh)
    transforms = spy_fft(monkeypatch, names=("fft", "ifft"))
    expected = rf"potential 'misshapen' gave samples of shape .*expected \({rows}, 192, 2, 2\)"
    for solve in (
        lambda: resolvent_with_potential(psi, ResolventQuery(z=3j, p=p, policy=policy), V),
        lambda: _nested_solve(gaussian_spinor(), mesh, 3j, 1.0, V, policy),
    ):
        with pytest.raises(ValueError, match=expected):
            solve()
    assert transforms == []


def _undeclared(V: PotentialSpec) -> PotentialSpec:
    """``V`` without its per-axis declaration, so every solve evaluates its ``matrix_fn``."""
    return dataclasses.replace(V, envelope=None, matrix=None)


@pytest.mark.parametrize("policy", ["neumann", "krylov"])
@pytest.mark.parametrize("name", POTENTIAL_IDS)
def test_per_axis_potential_agrees_with_its_matrix_fn(name, policy):
    # the envelope's outer product times the matrix against matrix_fn at the stacked sites: the
    # products per block on N = 192 (several row blocks), and the level and nested solves
    mesh, z = Mesh(2, 9.6 / 192, 192), 0.3 + 3j
    V = potential_catalog(name)
    assert V.envelope is not None and V.matrix is not None
    u = np.moveaxis(sample(gaussian_spinor(), mesh).values, -1, 0)
    per_axis, plain = ([vu.copy() for _, vu in operators._vmul_blocks(W, operators._site_axes(mesh), u)]
                       for W in (V, _undeclared(V)))
    assert len(per_axis) > 1
    for a, b in zip(per_axis, plain):
        assert np.max(np.abs(a - b), initial=0.0) <= 1e-14 * np.max(np.abs(b), initial=0.0)
    psi, q = sample(gaussian_spinor(), mesh), ResolventQuery(z=z, p=DiracParams(1.0, mesh.h), policy=policy)
    solves = [lambda W: resolvent_with_potential(psi, q, W).values,
              lambda W: _solve_with_potential(gaussian_spinor(), mesh, 2, z, 1.0, W, policy, 1e-10, 2000, 50)[0]]
    for solve in solves:
        a, b = solve(V), solve(_undeclared(V))
        assert np.linalg.norm(a - b) <= 1e-14 * np.linalg.norm(b)


def _axis(x):
    return np.exp(-(x**2))


@pytest.mark.parametrize("declared", [
    {"envelope": (_axis,), "matrix": np.eye(2)},  # one callable for two axes
    {"envelope": (_axis, 1.0), "matrix": np.eye(2)},  # not a callable
    {"envelope": _axis, "matrix": np.eye(2)},  # not a pair
    {"envelope": (_axis, _axis), "matrix": np.eye(3)},
    {"envelope": (_axis, _axis), "matrix": np.ones(4)},
    {"envelope": (_axis, _axis)},  # no matrix
    {"matrix": np.eye(2)},  # no envelope
    {"envelope": (_axis, lambda x: 1.0), "matrix": np.eye(2)},  # one value for every coordinate
    {"envelope": (lambda x: np.stack([x, x], axis=-1), _axis), "matrix": np.eye(2)},
], ids=["one-callable", "not-callable", "bare-callable", "matrix-3x3", "matrix-flat", "no-matrix", "no-envelope",
        "scalar-values", "stacked-values"])
def test_declared_envelope_or_matrix_of_the_wrong_shape_is_rejected_at_construction(declared):
    with pytest.raises(ValueError, match="potential 'bad'"):
        PotentialSpec("bad", lambda x: np.zeros(x.shape[:-1] + (2, 2)), 1.0, 0.0, **declared)


def test_half_mesh_sites_are_the_even_fine_sites_bit_for_bit():
    # the coarse-to-fine reference evaluates V at each half mesh's sites (2h)*k; they must be
    # the even sites h*(2k) of the mesh above, so every level solves the restricted problem
    for sweep in (Sweep(), Sweep(check_floor=True), Sweep(hs=(0.4, 0.2), refine=2)):
        finest = sweep.mesh_for(sweep.levels[-1])
        mesh = Mesh(2, finest.h / sweep.refine, finest.N * sweep.refine)
        while mesh.N % 4 == 0 and mesh.N >= 8:
            half = Mesh(2, 2 * mesh.h, mesh.N // 2)
            assert (half.h * half.indices).tobytes() == (mesh.h * mesh.indices)[::2].tobytes()
            assert half.site_coords().tobytes() == mesh.site_coords()[::2, ::2].tobytes()
            mesh = half


def _multiplier_results(mesh: Mesh) -> dict:
    """Every caller of the Fourier multipliers, on ``mesh`` (``N % 4 == 0``)."""
    p = DiracParams(1.0, mesh.h)
    psi = sample(gaussian_spinor(), mesh)
    V = potential_catalog("nonhermitian-gaussian")
    half = Mesh(2, 2 * mesh.h, mesh.N // 2)
    return {
        "resolvent_free": resolvent_free(psi, ResolventQuery(z=0.5 + 2j, p=p)),
        "apply_dirac": apply_dirac(psi, p, path="symbol"),
        "resolvent_continuum": resolvent_continuum(gaussian_spinor(), 0.5 + 2j, 1.0, half, refine=2),
        "continuum solve": _nested_solve(gaussian_spinor(), mesh, 3j, 1.0, V, None),
        "discrete solve": _iterate(psi, 3j, 1.0, V, None, 1e-10, 2000, 50, p=p)[0],
    }


def _coset_start_results(mesh: Mesh) -> list:
    """Failing `operators._coset_start` tests on ``mesh`` of one random band spectrum of ``N/4`` sites per axis:
    with the function's factors and the declared potential, and with neither (both evaluated per block)."""
    K, rng = mesh.N // 4, np.random.default_rng(7)
    spec = rng.standard_normal((2, K, K)) + 1j * rng.standard_normal((2, K, K))
    V, plain = potential_catalog("nonhermitian-gaussian"), ContinuumFunction("plain", 2, 2, gaussian_spinor().evaluate)
    return [operators._coset_start(spec, mesh, phi, 3j, 1.0, W, 1e-10, (0.5, 2.0))
            for phi, W in ((gaussian_spinor(), V), (plain, _undeclared(V)))]


def test_multipliers_do_not_depend_on_the_row_blocks(monkeypatch):
    # and neither does the start test's walk over the rows of a coset (n = 96 here), which the
    # default and the whole grid take in one block: the sums it adds block by block agree to rounding
    mesh = Mesh(2, 9.6 / 192, 192)
    assert len(operators._row_blocks(np.empty((2,) + mesh.shape))) > 1  # the default splits the grid
    default, starts = _multiplier_results(mesh), _coset_start_results(mesh)
    for sites in (1, 5 * mesh.N // 2, mesh.N**2):  # one row per block, 5 of a coset's 96 rows, the whole grid in one
        monkeypatch.setattr(operators, "_BLOCK_SITES", sites)
        for name, field in _multiplier_results(mesh).items():
            assert np.array_equal(field.values, default[name].values), (name, sites)
        for (start, sums), (expected, expected_sums) in zip(_coset_start_results(mesh), starts):
            assert np.array_equal(start, expected)
            assert np.allclose(sums, expected_sums, rtol=1e-14, atol=0), sites


def _peak_bytes(call) -> int:
    """The `tracemalloc` peak of ``call()``."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("solve,bound", [("resolvent_free", 1.5), ("continuum solve", 1.1)])
def test_resolvent_memory_peaks_hold_no_grid_sized_symbol(solve, bound):
    # in field bytes: the free resolvent holds its channel-first copy and block buffers; the
    # nested continuum solve evaluates the potential and the function inside the traced call,
    # and its peak (1.06) is its returned field, into which the K x K band spectrum (K = 64) is
    # zero-padded in one step, with the boolean mask (0.06) of the finiteness check of the
    # LatticeField that wraps it, while its start tests hold column bands and block buffers
    # only; the bound leaves less than one (2, N, K) column band (0.125) above that peak.  A
    # stored symbol (1/den, zeta/den, conj(zeta)/den) would add 1.5, its stacked frequency grid
    # 0.5 more
    mesh = Mesh(2, 9.6 / 512, 512)
    psi = sample(gaussian_spinor(), mesh)
    V = potential_catalog("hermitian-gaussian")
    q = ResolventQuery(z=3j, p=DiracParams(1.0, mesh.h))
    calls = {
        "resolvent_free": lambda: resolvent_free(psi, q),
        "continuum solve": lambda: _nested_solve(gaussian_spinor(), mesh, 3j, 1.0, V, None),
    }
    np.fft.fft(np.zeros(1, complex))  # loads numpy.fft outside the traced call
    assert _peak_bytes(calls[solve]) <= bound * psi.values.nbytes


def test_potential_solve_memory_peak_holds_no_grid_sized_potential():
    # in field bytes, the potential's evaluation included: the Neumann solve holds its iterate
    # and u, plus transform and block buffers; sampled values (2 x 2 complex per site) would add 2
    mesh = Mesh(2, 9.6 / 512, 512)
    psi = sample(gaussian_spinor(), mesh)
    q = ResolventQuery(z=3j, p=DiracParams(1.0, mesh.h), policy="neumann")
    V = potential_catalog("hermitian-gaussian")
    np.fft.fft(np.zeros(1, complex))  # loads numpy.fft outside the traced call
    assert _peak_bytes(lambda: resolvent_with_potential(psi, q, V)) <= 3 * psi.values.nbytes


# ---------------------------------------------------------------------------
# restarted GMRES


def _system(kind: str, n: int, seed: int):
    """A seeded complex ``(A, b)``: ``8 I`` plus noise (condition about 1.6), or ``2 I`` plus a
    strictly upper triangle of noise, which is non-normal (condition 50-90 at these sizes)."""
    rng = np.random.default_rng(seed)
    noise = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) / np.sqrt(n)
    A = 8 * np.eye(n) + noise if kind == "well-conditioned" else 2 * np.eye(n) + 3 * np.triu(noise, 1)
    return A, rng.normal(size=n) + 1j * rng.normal(size=n)


def _counted(A):
    """``(matvec, products)``: ``A @ v``, with every call recorded in ``products``."""
    products = []
    return (lambda v: products.append(1) or A @ v), products


@pytest.mark.parametrize("kind", ["well-conditioned", "non-normal"])
@pytest.mark.parametrize("restart", [1, 5, 24, 30])
@pytest.mark.parametrize("warm", [False, True], ids=["cold", "x0"])
def test_gmres_agrees_with_scipy(kind, restart, warm):
    import scipy.sparse.linalg as spla

    n, tol, max_iter = 24, 1e-10, 300
    A, b = _system(kind, n, seed=restart)
    x0 = np.random.default_rng(1).normal(size=n) + 0j if warm else None
    x, info = operators._gmres(_counted(A)[0], b, tol, restart, max_iter, x0)
    op = spla.LinearOperator((n, n), matvec=lambda v: A @ v, dtype=complex)
    x_ref, info_ref = spla.gmres(op, b, x0, rtol=tol, restart=restart, maxiter=max_iter // restart)
    assert (info == 0) == (info_ref == 0)
    if info == 0:
        assert np.linalg.norm(A @ x - b) <= tol * np.linalg.norm(b)
    else:  # GMRES(1) stalls on the non-normal system; both ran all 300 steps
        assert (kind, restart, info) == ("non-normal", 1, max_iter)
    assert np.linalg.norm(x - x_ref) <= 1e-8 * np.linalg.norm(x_ref)


def test_gmres_basis_stays_orthonormal():
    # a cold call hands each basis vector to one product; Gram-Schmidt applied once leaves these
    # 7e-5 from orthonormal, applied twice 1e-15
    A, b = _system("non-normal", 60, seed=3)
    basis = []
    x, info = operators._gmres(lambda v: basis.append(v.copy()) or A @ v, b, 1e-12, 60, 60)
    Q = np.array(basis)
    assert info == 0 and len(basis) > 20
    assert np.abs(Q @ Q.conj().T - np.eye(len(basis))).max() < 1e-13


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "x0"])
def test_converging_gmres_forms_no_final_residual(warm):
    # a cycle whose running residual meets the target returns without another product, so a
    # cold call makes one product per Arnoldi step, and a warm one adds b - A x0; one step
    # fewer falls short and reports the steps it ran
    A, b = _system("non-normal", 24, seed=3)
    x0 = np.ones(24, dtype=complex) if warm else None
    matvec, products = _counted(A)
    x, info = operators._gmres(matvec, b, 1e-10, 50, 2000, x0)
    steps = len(products) - warm
    assert info == 0 and 1 < steps < 24
    assert np.linalg.norm(A @ x - b) <= 1e-10 * np.linalg.norm(b)
    assert operators._gmres(_counted(A)[0], b, 1e-10, 50, steps - 1, x0)[1] == steps - 1


@pytest.mark.parametrize("x0", [None, np.ones(6, dtype=complex)], ids=["cold", "x0"])
def test_gmres_of_zero_returns_zeros_without_a_product(x0):
    matvec, products = _counted(np.eye(6))
    x, info = operators._gmres(matvec, np.zeros(6, dtype=complex), 1e-10, 5, 10, x0)
    assert info == 0 and not products
    assert np.array_equal(x, np.zeros(6))


@pytest.mark.parametrize("b", [np.arange(1.0, 7.0) + 2j, 3 * np.eye(6)[0]], ids=["random", "unit"])
def test_gmres_stops_at_a_happy_breakdown(b):
    # the identity converges in one step; for a multiple of e_0 the orthogonalized product is
    # exactly zero, and a division by it would fail under the suite's warnings-as-errors
    matvec, products = _counted(np.eye(6))
    x, info = operators._gmres(matvec, b, 1e-10, 5, 10)
    assert info == 0 and len(products) == 1
    np.testing.assert_allclose(x, b, rtol=1e-14)


def test_gmres_stops_when_the_krylov_space_is_invariant():
    # b spans three eigenvectors of a diagonal A, so the third step reaches the exact solution
    A = np.diag(np.arange(1.0, 9.0) + 0.5j)
    b = np.r_[1.0, 2.0, 3.0, np.zeros(5)]
    matvec, products = _counted(A)
    x, info = operators._gmres(matvec, b, 1e-10, 50, 100)
    assert info == 0 and len(products) == 3
    np.testing.assert_allclose(x, b / np.diag(A), atol=1e-12)


# ---------------------------------------------------------------------------
# dense oracle


def test_dense_matrix_is_hermitian_without_skew_part():
    mesh = Mesh(2, 0.5, 8)
    p = DiracParams(1.0, 0.5)
    A = dense_matrix(p, mesh)
    np.testing.assert_allclose(A, A.conj().T, atol=1e-14)
    A = dense_matrix(p, mesh, potential_catalog("hermitian-gaussian"))
    np.testing.assert_allclose(A, A.conj().T, atol=1e-14)


def test_dense_matrix_matches_operator_action(rng):
    mesh = Mesh(2, 0.5, 8)
    p = DiracParams(0.7, 0.5)
    V = potential_catalog("nonhermitian-gaussian")
    psi = random_field(mesh, 2, rng)
    out = apply_dirac(psi, p, V=V)
    A = dense_matrix(p, mesh, V)
    np.testing.assert_allclose(A @ field_to_vec(psi), field_to_vec(out), atol=1e-12)


def test_dense_eigenvalues_sample_the_bands():
    mesh = Mesh(2, 0.5, 8)
    p = DiracParams(1.0, 0.5)
    eigs = np.sort(np.linalg.eigvalsh(dense_matrix(p, mesh)))
    lam = lambda_mh(FrequencyGrid(mesh).coords(), p).ravel()
    expected = np.sort(np.concatenate([lam, -lam]))
    np.testing.assert_allclose(eigs, expected, atol=1e-11)


def test_dense_matrix_size_cap():
    with pytest.raises(TooLarge):
        dense_matrix(DiracParams(1.0, 0.1), Mesh(2, 0.1, 64))
    psi = LatticeField(Mesh(2, 0.1, 34), np.ones((34, 34, 2)))
    with pytest.raises(TooLarge):  # the dense-oracle policy solves with the same matrix
        resolvent_with_potential(psi, ResolventQuery(z=2j, p=DiracParams(1.0, 0.1), policy="dense-oracle"),
                                 potential_catalog("zero"))


def test_strip_check_hermitian_and_nonhermitian():
    mesh = Mesh(2, 0.5, 12)
    p = DiracParams(1.0, 0.5)
    rep = spectra_strip_check(potential_catalog("hermitian-gaussian"), p, mesh)
    assert rep.max_imag < 1e-10 and rep.ok
    rep = spectra_strip_check(potential_catalog("nonhermitian-gaussian"), p, mesh)
    assert rep.ok and rep.max_imag <= 1.0 + 1e-9


def test_strip_check_free_eigenvalues_fill_the_band_intervals():
    mesh = Mesh(2, 0.5, 12)
    p = DiracParams(1.0, 0.5)
    rep = spectra_strip_check(potential_catalog("zero"), p, mesh)
    (_, _), (lo, hi) = spectrum_bounds(p)
    mags = np.abs(np.real(rep.eigenvalues))
    assert rep.max_imag < 1e-10
    assert np.all(mags >= lo - 1e-9) and np.all(mags <= hi + 1e-9)


# ---------------------------------------------------------------------------
# block averaging


def test_block_average_of_refined_step_is_exact(rng):
    coarse = Mesh(2, 0.5, 8)
    fine = Mesh(2, 0.25, 16)
    f = random_field(coarse, 2, rng)
    lifted = LatticeField(fine, np.repeat(np.repeat(f.values, 2, axis=0), 2, axis=1))
    back = block_average(lifted, coarse)
    np.testing.assert_allclose(back.values, f.values, atol=1e-14)
    with pytest.raises(MeshMismatch):
        block_average(f, Mesh(2, 0.4, 10))


@pytest.mark.parametrize("refine", [1, 2])
def test_continuum_resolvent_without_closed_form_matches_closed_form(refine):
    phi = gaussian_spinor()
    mesh = Mesh(2, 0.2, 48)
    reference = resolvent_continuum(phi, 2j, 1.0, mesh, refine=1).values
    got = resolvent_continuum(dataclasses.replace(phi, fourier=None), 2j, 1.0, mesh, refine=refine).values
    assert np.linalg.norm(got - reference) / np.linalg.norm(reference) < 1e-9
