"""Tests for the discrete transform pair, the a-factor, and the FT error measures."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from latticedirac import cli, fourier, lab
from latticedirac import (
    ContinuumFunction,
    FrequencyGrid,
    LatticeField,
    Mesh,
    SpectralField,
    a_factor,
    continuum_ft_of_step,
    dft,
    idft,
    inverse_ft_error,
    l2_error_vs_continuum,
    norm_l2,
    sample,
    sample_spectrum,
    spectral_norm,
    weighted_ft_error,
)
from latticedirac.errors import QuadratureFailure, SupportViolation, UnknownClosedForm
from latticedirac.fourier import _grid_step_factor, _grid_weight, _step_factor, _tail_integral
from latticedirac.grid import (
    FUNCTION_IDS, _product, _projection_errors, _row_slices, freq_window, function_catalog, gaussian, hat,
    modulated_gaussian,
)
from latticedirac.operators import diff_backward, diff_forward

from conftest import dft_direct, idft_direct, peak_bytes, random_field, spy_transforms

# first verified run of the weighted transform gap at
# (gaussian a=1, d=1, h=0.2, N=128, s=1); regression anchor
WEIGHTED_FT_REGRESSION = 0.0655531879815781

# first verified run of the inverse-transform sweep
# (freqbump1d, box 9.6, dyadic mesh sizes); regression anchors
IFT_REGRESSION = {
    0.4: 0.1050813498683916,
    0.2: 0.05272924486336614,
    0.1: 0.026574287216053906,
    0.05: 0.013678409418529583,
}


# ---------------------------------------------------------------------------
# transform pair


def test_dft_of_single_site_delta_is_flat():
    mesh = Mesh(2, 0.5, 8)
    vals = np.zeros(mesh.shape + (1,), dtype=complex)
    vals[4, 4, 0] = 1.0
    u = dft(LatticeField(mesh, vals))
    np.testing.assert_allclose(u.values, 0.25 / (2 * np.pi), atol=1e-15)


def test_dft_unitary_and_invertible(rng):
    for d, N in ((1, 32), (2, 12)):
        mesh = Mesh(d, 0.41, N)
        f = random_field(mesh, 2, rng)
        u = dft(f)
        assert abs(spectral_norm(u) - norm_l2(f)) < 1e-12
        np.testing.assert_allclose(idft(u).values, f.values, atol=1e-12)
        v = SpectralField(u.grid, rng.normal(size=u.values.shape) + 0j)
        np.testing.assert_allclose(dft(idft(v)).values, v.values, atol=1e-12)


def test_dft_pair_transforms_through_numpy_fft(monkeypatch, rng):
    # one in-place 1D transform per site axis: forward for dft, inverse for idft
    forward = spy_transforms(monkeypatch, names=("fft",))
    inverse = spy_transforms(monkeypatch, names=("ifft",))
    site_axes = [((8, 8, 2), (0,)), ((8, 8, 2), (1,))]
    u = dft(random_field(Mesh(2, 0.5, 8), 2, rng))
    assert (forward, inverse) == (site_axes, [])
    idft(u)
    assert (forward, inverse) == (site_axes, site_axes)


def test_dft_pair_leaves_its_input_untouched(rng):
    for d, N in ((1, 32), (2, 12)):
        f = random_field(Mesh(d, 0.4, N), 2, rng)
        sites = f.values.copy()
        u = dft(f)
        spectrum = u.values.copy()
        idft(u)
        assert np.array_equal(f.values, sites)
        assert np.array_equal(u.values, spectrum)


def test_dft_matches_direct_summation(rng):
    mesh = Mesh(2, 0.5, 8)
    f = random_field(mesh, 2, rng)
    np.testing.assert_allclose(dft(f).values, dft_direct(f), atol=1e-13)


def test_idft_of_constant_matches_direct_summation():
    mesh = Mesh(2, 0.5, 8)
    c = 0.7 - 0.2j
    u = SpectralField(FrequencyGrid(mesh), np.full(mesh.shape + (1,), c))
    np.testing.assert_allclose(idft(u).values, idft_direct(u), atol=1e-13)


def test_plane_wave_concentrates_on_one_mode():
    mesh = Mesh(2, 0.5, 8)
    k0 = (2, -1)
    xi0 = 2 * np.pi * np.array(k0) / mesh.L
    pw = LatticeField(mesh, np.exp(1j * (mesh.site_coords() @ xi0))[..., None])
    u = dft(pw)
    peak = (k0[0] + 4, k0[1] + 4)
    mask = np.ones(mesh.shape, dtype=bool)
    mask[peak] = False
    assert np.max(np.abs(u.values[mask])) < 1e-12
    np.testing.assert_allclose(u.values, dft_direct(pw), atol=1e-13)


def test_difference_operators_become_symbols(rng):
    # forward: (exp(i h xi_j) - 1)/h, backward: (exp(-i h xi_j) - 1)/h
    mesh = Mesh(2, 0.5, 12)
    f = random_field(mesh, 1, rng)
    coords = FrequencyGrid(mesh).coords()
    base = dft(f).values
    for j in range(2):
        fwd = dft(diff_forward(f, j)).values
        mult = (np.exp(1j * mesh.h * coords[..., j]) - 1) / mesh.h
        np.testing.assert_allclose(fwd, mult[..., None] * base, atol=1e-12)
        bwd = dft(diff_backward(f, j)).values
        mult = (np.exp(-1j * mesh.h * coords[..., j]) - 1) / mesh.h
        np.testing.assert_allclose(bwd, mult[..., None] * base, atol=1e-12)


# ---------------------------------------------------------------------------
# the a-factor


def test_a_factor_limits_and_values():
    assert a_factor(0.0) == 1.0
    assert abs(a_factor(np.pi) - (-2j / np.pi)) < 1e-15
    assert abs(abs(a_factor(np.pi)) - 2 / np.pi) < 1e-15
    sweep = np.linspace(-50, 50, 20001)
    mods = np.abs(a_factor(sweep))
    assert np.max(mods) <= 1.0 + 1e-14


def test_a_factor_smooth_across_series_crossover():
    theta = np.linspace(0.97e-4, 1.03e-4, 601)
    vals = a_factor(theta)
    # both branches agree to the cancellation-limited accuracy of the
    # direct formula near the crossover
    exact = (1 - np.exp(-1j * theta)) / (1j * theta)
    np.testing.assert_allclose(vals, exact, atol=5e-12)


# ---------------------------------------------------------------------------
# continuum transform of step functions


def test_step_transform_of_delta():
    mesh = Mesh(1, 0.5, 8)
    vals = np.zeros((8, 1), dtype=complex)
    vals[4, 0] = 1.0
    f = LatticeField(mesh, vals)
    out = continuum_ft_of_step(f, np.array([[0.0]]))
    assert abs(out[0, 0] - 0.5 / np.sqrt(2 * np.pi)) < 1e-15


def test_step_transform_product_identity_on_grid(rng):
    # on dual-grid points the continuum transform is the discrete one
    # times the per-axis a-factors
    mesh = Mesh(2, 0.5, 8)
    f = random_field(mesh, 1, rng)
    grid = FrequencyGrid(mesh)
    coords = grid.coords()
    exact = continuum_ft_of_step(f, coords)
    factor = a_factor(mesh.h * coords[..., 0]) * a_factor(mesh.h * coords[..., 1])
    np.testing.assert_allclose(exact, dft(f).values * factor[..., None], atol=1e-12)


@pytest.mark.parametrize("xi", [0.5, [[np.nan, 0.0]], [[0.0, np.inf]], [[1.0, 2.0, 3.0]]])
def test_step_transform_rejects_frequency_points_of_another_shape_or_not_finite(xi):
    f = LatticeField(Mesh(2, 0.5, 8), np.ones((8, 8, 1), dtype=complex))
    with pytest.raises(ValueError, match="frequency points"):
        continuum_ft_of_step(f, xi)


@pytest.mark.parametrize("N", [384, 768])
def test_step_factor_is_the_product_of_the_two_axis_factors_bit_for_bit(N, rng):
    # on the stacked dual grid, whose arrays are far above the size at which numpy may run
    # a product in place in a temporary operand, and on random points
    xi = FrequencyGrid(Mesh(2, 9.6 / N, N)).coords()
    for points in (xi, rng.uniform(-3 * N, 3 * N, size=(N, 7, 2))):
        for h in (9.6 / N, 0.4):
            expected = np.multiply(a_factor(h * points[..., 0]), a_factor(h * points[..., 1]))
            assert _step_factor(points, h).tobytes() == expected.tobytes()


@pytest.mark.parametrize("d,N", [(1, 96), (2, 24), (2, 96), (2, 384), (2, 768)])
def test_dual_grid_step_factor_and_weight_are_the_stacked_formulas_bit_for_bit(d, N):
    # per-axis values and their outer product on each row block against the formulas on the same
    # rows of the stacked dual grid: the default blocks, one row, and the whole grid, below and
    # above the size at which numpy runs a product in place in its new operand
    grid = FrequencyGrid(Mesh(d, 9.6 / N, N))
    xi = grid.coords()
    blocks = _row_slices(N, N ** (d - 1)) + [slice(N - 1, N), slice(None)]
    assert len(blocks) > 3 or N <= 96
    for h in (grid.mesh.h, 0.4):
        factor = _grid_step_factor(grid, h)
        for rows in blocks:
            assert factor(rows).tobytes() == _step_factor(xi[rows], h).tobytes()
    for s in (0.0, 1.0, 2.5):
        weight = _grid_weight(grid, s)
        for rows in blocks:
            assert weight(rows).tobytes() == ((1.0 + np.sum(xi[rows] ** 2, axis=-1)) ** (-s / 2.0)).tobytes()


def test_step_transform_matches_adaptive_quadrature(rng):
    mesh = Mesh(1, 0.5, 8)
    f = random_field(mesh, 1, rng)
    edges = mesh.h * np.arange(-4, 5)
    for q in rng.uniform(-7, 7, size=3):
        total = 0.0 + 0.0j
        for n in range(8):
            c = f.values[n, 0]
            re, _ = quad(lambda x: (c * np.exp(-1j * x * q)).real, edges[n], edges[n + 1])
            im, _ = quad(lambda x: (c * np.exp(-1j * x * q)).imag, edges[n], edges[n + 1])
            total += re + 1j * im
        oracle = total / np.sqrt(2 * np.pi)
        val = continuum_ft_of_step(f, np.array([[q]]))[0, 0]
        assert abs(val - oracle) < 1e-8


# ---------------------------------------------------------------------------
# weighted transform gap


def test_weighted_ft_error_regression_value():
    val = weighted_ft_error(gaussian(1), Mesh(1, 0.2, 128), 1.0)
    np.testing.assert_allclose(val, WEIGHTED_FT_REGRESSION, rtol=1e-10)


def test_weighted_ft_error_matches_quadrature_oracle():
    # independent adaptive quadrature of the box integrand at a coarse level
    phi = gaussian(1)
    mesh = Mesh(1, 0.4, 64)
    f = sample(phi, mesh)
    sites = mesh.site_coords().reshape(-1)
    fv = f.values[:, 0]

    def discrete_transform(q):
        return (2 * np.pi) ** -0.5 * mesh.h * np.sum(fv * np.exp(-1j * sites * q))

    def integrand(q):
        gap = continuum_ft_of_step(f, np.array([q]))[0] - discrete_transform(q)
        return (1 + q * q) ** -1 * abs(gap) ** 2

    box_sq, _ = quad(integrand, -np.pi / mesh.h, np.pi / mesh.h, epsabs=1e-13, limit=400)

    def tail(q):
        return (1 + q * q) ** -1 * abs(phi.fourier(np.array([[q]]))[0, 0]) ** 2

    right, _ = quad(tail, np.pi / mesh.h, np.inf)
    left, _ = quad(tail, -np.inf, -np.pi / mesh.h)
    oracle = np.sqrt(box_sq + right + left)
    np.testing.assert_allclose(weighted_ft_error(phi, mesh, 1.0), oracle, atol=1e-12)


@pytest.mark.parametrize("name", [n for n in FUNCTION_IDS if function_catalog(n).fourier is not None])
def test_weighted_ft_error_per_axis_matches_the_stacked_2d_transform(name):
    # a function with factors takes 1D transforms of its factors; the copy without
    # factors is sampled on the stacked sites and transformed by dft on (4N)**d sites
    phi = function_catalog(name)
    stacked = dataclasses.replace(phi, factors=None)
    for h in (0.8, 0.4, 0.2, 0.1):
        mesh = Mesh(phi.d, h, round(9.6 / h))
        for s in (0.5, 1.0, 2.0):
            want = weighted_ft_error(stacked, mesh, s)
            assert weighted_ft_error(phi, mesh, s) == pytest.approx(want, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("name", ["gaussian2d", "modwave2d", "gaussian-spinor", "bandlimited-spinor"])
def test_weighted_ft_error_of_a_separable_function_transforms_one_axis_at_a_time(name, monkeypatch):
    # each factor is transformed on its axis's 4N padded sites: no (4N)**2-point FFT, and
    # the function is never evaluated on stacked points
    phi = function_catalog(name)
    mesh = Mesh(2, 0.4, 24)
    want = weighted_ft_error(phi, mesh, 1.0)

    def stacked(points):
        raise AssertionError("the function was evaluated on stacked points")

    calls = []

    def spy(x, axes, inverse=False, _fftn=fourier._fftn):
        calls.append((x.shape, axes))
        return _fftn(x, axes, inverse)

    monkeypatch.setattr(fourier, "_fftn", spy)
    assert weighted_ft_error(dataclasses.replace(phi, evaluate=stacked), mesh, 1.0) == want
    assert calls == [((4 * mesh.N, phi.channels), (0,))] * 2


@pytest.mark.parametrize("name", ["gaussian1d", "gaussian2d", "modwave2d", "gaussian-spinor"])
def test_weighted_ft_error_is_unchanged_by_row_blocks(name, monkeypatch):
    # the box sum adds each row of the 4N dual grid whole and the rows once at the end, so one row
    # per block, five, and the whole grid in one block give the same bits, on either path
    phi = function_catalog(name)
    mesh = Mesh(phi.d, 0.2, 48)
    row = (4 * mesh.N) ** (phi.d - 1)
    results = []
    for sites in (row, 5 * row, (4 * mesh.N) ** phi.d):
        monkeypatch.setattr("latticedirac.grid._BLOCK_SITES", sites)
        results.append([weighted_ft_error(f, mesh, 1.0) for f in (phi, dataclasses.replace(phi, factors=None))])
    assert results[0] == results[1] == results[2]


@pytest.mark.parametrize("N", [192, 384])
def test_weighted_ft_error_holds_no_array_of_the_padded_grid(N):
    # power, step factor and weight are formed one block of rows at a time, and the tail rule one
    # block of xi_1 nodes at a time: the peak (1.0 MB; 2.1 MB with whole node arrays in the tail
    # rule) stays below one (4N)**2 float array (4.7 MB at N = 192), where whole arrays of the 4N
    # grid held 24 MB at N = 192 and 94 MB at N = 384
    phi, mesh = gaussian(2), Mesh(2, 9.6 / N, N)
    assert peak_bytes(lambda: weighted_ft_error(phi, mesh, 1.0)) < 3e6 < (4 * 192) ** 2 * 8


def test_tail_integral_holds_no_array_of_its_node_grid():
    # at h = 0.05 the 2D tail rule has about 112 x 464 nodes; whole arrays of them (the closed
    # form, its power, the weight and their product) read 1.7 MB, one block of xi_1 nodes 0.7 MB
    phi = gaussian(2)
    b = np.pi / 0.05
    assert peak_bytes(lambda: _tail_integral(phi, b, 1.0)) < 1e6


@pytest.mark.parametrize("name", ["gaussian1d", "gaussian2d", "modwave2d", "gaussian-spinor"])
def test_tail_integral_is_unchanged_by_node_blocks(name, monkeypatch):
    # each xi_1 node's inner sum is contracted within its block, and the nodes once at the end
    phi = function_catalog(name)
    b = np.pi / 0.4
    want = _tail_integral(phi, b, 1.0)
    for sites in (1, 2000, 10**7):  # one xi_1 node per block, a few, all of them in one
        monkeypatch.setattr("latticedirac.grid._BLOCK_SITES", sites)
        assert abs(_tail_integral(phi, b, 1.0) - want) <= 1e-14 * want


def _bad_at(phi, x0, value, axes):
    """``phi`` with ``value`` in place of its factors on ``axes`` at ``x0``, with its factors and without."""
    factors = tuple(
        (lambda x, f=f: np.where((x == x0)[..., None], value, f(x))) if j in axes else f
        for j, f in enumerate(phi.factors)
    )
    separable = dataclasses.replace(phi, evaluate=_product(factors), factors=factors)
    return separable, dataclasses.replace(separable, factors=None)


@pytest.mark.parametrize("value,axes", [
    (np.nan, (0,)),
    (np.inf, (1,)),
    (1e200, (0, 1)),  # finite per axis; the outer product overflows at (0.4, 0.4)
], ids=["nan", "inf", "overflow"])
@pytest.mark.parametrize("call", [lambda phi, mesh: weighted_ft_error(phi, mesh, 1.0), _projection_errors],
                         ids=["weighted-ft", "projection-errors"])
def test_a_sample_that_is_not_finite_raises_on_either_path(call, value, axes):
    # gaussian2d with a bad value at the cell corner 0.4: the copy without factors raises as its
    # sample is formed, the per-axis path from the per-axis samples, before any sum (an overflow
    # warns on both paths, as numpy does by default)
    for phi in _bad_at(gaussian(2), 0.4, value, axes):
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="^field values must be finite$"):
            call(phi, Mesh(2, 0.4, 24))


def _tensor_tail(phi, b, s, n=160, width=30.0):
    """``int_{|xi|_inf > b} <xi>**(-2s) |Fphi|**2`` on the four strips, each truncated ``width`` past ``b``.

    A fixed ``n``-point Gauss-Legendre rule per axis and strip; 160 and 240 points
    agree to 6e-13 relative on the 2D catalog entries at ``b = pi/0.8``.
    """
    nodes, weights = np.polynomial.legendre.leggauss(n)
    c = b + width
    strips = (((b, c), (-c, c)), ((-c, -b), (-c, c)), ((-b, b), (b, c)), ((-b, b), (-c, -b)))
    total = 0.0
    for (lo1, hi1), (lo2, hi2) in strips:
        q1, q2 = (lo + (hi - lo) * 0.5 * (nodes + 1.0) for lo, hi in ((lo1, hi1), (lo2, hi2)))
        xi = np.stack(np.meshgrid(q1, q2, indexing="ij"), axis=-1)
        vals = np.sum(np.abs(phi.fourier(xi)) ** 2, axis=-1) * (1.0 + np.sum(xi**2, axis=-1)) ** (-s)
        total += (hi1 - lo1) * (hi2 - lo2) / 4.0 * (weights @ vals @ weights)
    return total


@pytest.mark.parametrize("name", [
    "gaussian2d",
    pytest.param("modwave2d", marks=pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 2: the second strip pair of _tail_integral covers |xi_1| > b, |xi_2| <= b "
        "again instead of |xi_1| <= b, |xi_2| > b; exact only for spectra symmetric under xi_1 <-> xi_2"))),
])
def test_2d_tail_integral_matches_a_tensor_rule(name):
    phi = function_catalog(name)
    b = np.pi / 0.8
    want = _tensor_tail(phi, b, 1.0)
    assert abs(_tail_integral(phi, b, 1.0) - want) <= 1e-9 * want


def _modwave_tail_at_s0(a, k0, b):
    """The region of `_tail_integral` for ``modulated_gaussian(2, a, k0)`` at ``s = 0``, from ``erfc``.

    ``|F|**2 = (2a)**-2 * exp(-|xi - k0|**2 / (2a))`` is a product over the axes,
    and the region is ``|xi_1| > b`` times the line plus ``|xi_1| > b`` times
    ``|xi_2| <= b`` (ROADMAP item 2), so the integral is a product of 1D ones.
    """
    line = math.sqrt(2 * math.pi * a)

    def outside(k):
        return line / 2 * (math.erfc((b - k) / math.sqrt(2 * a)) + math.erfc((b + k) / math.sqrt(2 * a)))

    return (2 * a) ** -2 * outside(k0[0]) * (2 * line - outside(k0[1]))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(a=st.floats(0.5, 2.0), k1=st.floats(-2.0, 2.0), k2=st.floats(-2.0, 2.0), h=st.sampled_from([0.8, 0.4]))
def test_2d_tail_integral_matches_products_of_erfc(a, k1, k2, h):
    b = np.pi / h
    want = _modwave_tail_at_s0(a, (k1, k2), b)
    assert abs(_tail_integral(modulated_gaussian(2, a, (k1, k2)), b, 0.0) - want) <= 1e-10 * want


def _fine_tail_1d(phi, b, s, width=0.25, reach=4000.0):
    """``int_{|q| > b} <q>**(-2s) |Fphi|**2`` by 8-point Gauss on uniform panels of ``width`` out to ``b + reach``.

    The panels resolve the ``sinc**2`` oscillations of ``hat``; at ``s = 1`` the
    part past ``b + reach`` is below 1e-18.
    """
    x, w = np.polynomial.legendre.leggauss(8)
    lo = b + np.arange(0.0, reach, width)
    q = (lo[:, None] + 0.5 * width * (x + 1.0)).ravel()
    weights = np.tile(0.5 * width * w, lo.size)
    return sum(weights @ (np.abs(phi.fourier(side[:, None])[:, 0]) ** 2 * (1.0 + side**2) ** -s) for side in (q, -q))


@pytest.mark.parametrize("h", [0.8, 0.4, 0.2, 0.1, 0.05])
def test_1d_tail_integral_of_hat_matches_a_fine_composite_rule(h):
    # adaptive quad at epsabs 1e-10 misses these by up to 9.2e-11, 1 % of the tail at h = 0.1
    phi, b = hat(0.5), np.pi / h
    assert abs(_tail_integral(phi, b, 1.0) - _fine_tail_1d(phi, b, 1.0)) <= 1e-12


def _cauchy(d):
    """A Gaussian on space that declares the spectrum ``prod_j (1 + xi_j**2)**(-1/2)``."""
    return ContinuumFunction(
        "cauchy", d, 1, gaussian(d).evaluate,
        fourier=lambda xi: np.prod((1.0 + xi**2) ** -0.5, axis=-1).astype(complex)[..., None],
    )


@pytest.mark.parametrize("h", [0.8, 0.4, 0.05])
def test_tail_integral_of_an_algebraic_spectrum_matches_arctan(h):
    # |F|**2 = prod_j 1 / (1 + xi_j**2) at s = 0 puts 1 % to 80 % of the xi_1 integral past
    # the panels, on the map q = E/u; every 1D and line integral is an arctan value
    b = np.pi / h
    outside, inside = 2 * math.atan(1 / b), 2 * math.atan(b)
    assert abs(_tail_integral(_cauchy(1), b, 0.0) - outside) <= 1e-10 * outside
    want = outside * (np.pi + inside)  # |xi_1| > b times the line, and again times |xi_2| <= b (ROADMAP item 2)
    assert abs(_tail_integral(_cauchy(2), b, 0.0) - want) <= 1e-10 * want


def _slow_spectrum(p):
    """A Gaussian on space that declares the spectrum ``(1 + |xi|**2)**(-p/2)``, which decays like ``|xi|**-p``."""
    return ContinuumFunction(
        "slow", 2, 1, gaussian(2).evaluate,
        fourier=lambda xi: ((1.0 + np.sum(xi**2, axis=-1)) ** (-p / 2)).astype(complex)[..., None],
    )


def test_tail_integral_raises_on_a_spectrum_it_cannot_resolve(monkeypatch, capsys):
    with pytest.raises(QuadratureFailure, match="slow tail integral self-estimate"):
        _tail_integral(_slow_spectrum(1.2), np.pi / 0.8, 0.0)
    monkeypatch.setattr(lab, "function_catalog", lambda name: _slow_spectrum(1.2))
    assert cli.main(["ft", "--function", "gaussian2d", "--sweep", "0.8,0.4,0.2"]) == 1
    assert capsys.readouterr().err.startswith("error: QuadratureFailure: slow tail integral")


def test_tail_integral_raises_on_a_spectrum_that_is_not_finite():
    nan = ContinuumFunction("nan", 1, 1, gaussian(1).evaluate,
                            fourier=lambda xi: np.full(xi.shape[:-1] + (1,), complex(np.nan)))
    with pytest.raises(QuadratureFailure):
        _tail_integral(nan, np.pi / 0.8, 1.0)


def test_tail_integral_of_a_spectrum_inside_the_box_evaluates_nothing():
    def fourier(xi):
        raise AssertionError("spectrum evaluated")

    phi = dataclasses.replace(function_catalog("bandlimited-spinor"), fourier=fourier)
    assert _tail_integral(phi, phi.support_inf, 1.0) == 0.0
    with pytest.raises(AssertionError, match="spectrum evaluated"):
        _tail_integral(phi, 0.99 * phi.support_inf, 1.0)


@pytest.mark.parametrize("channels", [1, 3])
def test_a_transform_that_evaluates_a_wrong_channel_count_is_rejected(channels):
    # one channel once broadcast into the two declared, and a third was summed in: the
    # weighted error on this mesh then read 0.39693 or 0.39698 instead of 0.39696
    spinor = function_catalog("gaussian-spinor")

    def fourier(xi):
        vals = spinor.fourier(xi)
        return vals[..., :1] if channels == 1 else np.concatenate([vals, vals[..., :1]], axis=-1)

    liar = dataclasses.replace(spinor, name="liar", fourier=fourier)
    message = f"^liar declares 2 channels, evaluates to {channels}$"
    with pytest.raises(ValueError, match=message):
        _tail_integral(liar, np.pi / 0.8, 1.0)
    with pytest.raises(ValueError, match=message):
        weighted_ft_error(liar, Mesh(2, 0.8, 12), 1.0)


@pytest.mark.parametrize("name", [n for n in FUNCTION_IDS if function_catalog(n).fourier is not None])
def test_tail_integral_evaluates_a_separable_transform_per_axis(name):
    # every catalog transform declares per-axis factors: the tail rule takes each factor on
    # its axis's nodes and never the stacked points, with the bits of a factor-less copy
    phi = function_catalog(name)
    shapes = []

    def spy(factor):
        def call(q):
            shapes.append(np.shape(q))
            return factor(q)
        return call

    def stacked(points):
        raise AssertionError("the transform was evaluated on stacked points")

    spied = dataclasses.replace(phi, fourier=dataclasses.replace(
        phi.fourier, evaluate=stacked, factors=tuple(map(spy, phi.fourier.factors))))
    plain = dataclasses.replace(phi, fourier=phi.fourier.evaluate)
    b = 0.9 * np.pi / 0.8  # inside the support of the band-limited spectra, so every tail is evaluated
    assert _tail_integral(spied, b, 1.0) == _tail_integral(plain, b, 1.0)
    assert shapes and all(len(shape) == 1 for shape in shapes)  # the nodes of one axis


def test_weighted_ft_error_decreases_and_dominates():
    phi = gaussian(1)
    errs = [weighted_ft_error(phi, Mesh(1, h, round(25.6 / h)), 1.0) for h in (0.4, 0.2, 0.1)]
    assert errs[2] < errs[1] < errs[0]
    errs2 = [weighted_ft_error(phi, Mesh(1, h, round(25.6 / h)), 2.0) for h in (0.4, 0.2, 0.1)]
    assert all(b <= a for a, b in zip(errs, errs2))


def test_weighted_ft_error_s_zero_diagnostic():
    val = weighted_ft_error(gaussian(1), Mesh(1, 0.4, 64), 0.0)
    assert np.isfinite(val) and val > 0


def test_weighted_ft_error_needs_closed_form():
    anon = ContinuumFunction(
        name="anon", d=1, channels=1,
        evaluate=lambda pts: np.exp(-np.sum(pts**2, axis=-1))[..., None].astype(complex),
    )
    with pytest.raises(UnknownClosedForm):
        weighted_ft_error(anon, Mesh(1, 0.4, 16), 1.0)


# ---------------------------------------------------------------------------
# inverse transform gap


def test_inverse_ft_error_is_a_sampling_error():
    # with the window inside the frequency box, the discrete inverse
    # transform samples the closed form, up to box periodization
    u = freq_window(1, np.pi / 0.8, p=8)
    mesh = Mesh(1, 0.4, 48)  # roomy box keeps periodization below 1e-10
    err = inverse_ft_error(u, mesh)
    target = ContinuumFunction("t", 1, 1, u.inverse_fourier, sup_norm=u.sup_norm)
    samp = l2_error_vs_continuum(sample(target, mesh), target)
    assert abs(err - samp) < 1e-10


def test_inverse_ft_error_regression_sweep():
    u = freq_window(1, np.pi / 0.8, p=8)
    errs = [inverse_ft_error(u, Mesh(1, h, round(9.6 / h))) for h in IFT_REGRESSION]
    np.testing.assert_allclose(errs, list(IFT_REGRESSION.values()), rtol=1e-10)
    assert all(b < a for a, b in zip(errs, errs[1:]))


def test_inverse_ft_error_support_violation():
    u = freq_window(1, np.pi / 0.8, p=8)
    with pytest.raises(SupportViolation):
        inverse_ft_error(u, Mesh(1, 1.0, 16))  # pi/h = 3.14 < declared 3.93
    floppy = ContinuumFunction("nosupp", 1, 1, lambda q: np.ones(q.shape[:-1] + (1,), complex))
    with pytest.raises(SupportViolation):
        inverse_ft_error(floppy, Mesh(1, 0.4, 16))


def test_sample_spectrum_round_trip():
    u = freq_window(1, np.pi / 0.8, p=8)
    mesh = Mesh(1, 0.2, 96)
    spec = sample_spectrum(u, FrequencyGrid(mesh))
    back = dft(idft(spec))
    np.testing.assert_allclose(back.values, spec.values, atol=1e-12)


@pytest.mark.parametrize("separable", [False, True])
def test_sample_spectrum_rejects_a_wrong_channel_count(separable):
    # one evaluated channel must not pass as the two declared
    def stacked(q):
        return np.ones(q.shape[:-1] + (1,), complex)

    def axis(q):
        return np.ones(q.shape + (1,), complex)

    liar = ContinuumFunction("liar", 2, 2, stacked, factors=(axis, axis) if separable else None)
    with pytest.raises(ValueError, match="^liar declares 2 channels, evaluates to 1$"):
        sample_spectrum(liar, FrequencyGrid(Mesh(2, 0.4, 24)))


def test_sample_spectrum_of_a_separable_window_is_its_stacked_values_bit_for_bit():
    u, grid = freq_window(2, np.pi / 0.8), FrequencyGrid(Mesh(2, 0.2, 48))
    assert np.array_equal(sample_spectrum(u, grid).values, u(grid.coords()))
    for name in FUNCTION_IDS:  # every catalog spectrum: a declared transform, or a frequency-side window
        entry = function_catalog(name)
        u, grid = entry.fourier or entry, FrequencyGrid(Mesh(entry.d, 0.2, 48))
        assert u.factors is not None and np.array_equal(sample_spectrum(u, grid).values, u(grid.coords())), name


def test_inverse_ft_error_in_2d_evaluates_its_target_per_axis():
    # freq_window declares its inverse transform as a tensor: the error integral takes
    # the per-axis values, with the bits of the stacked evaluation of a factor-less copy
    u = freq_window(2, np.pi / 0.8)
    target, shapes = u.inverse_fourier, []

    def spy(factor):
        def call(x):
            shapes.append(np.shape(x))
            return factor(x)
        return call

    def stacked(points):
        raise AssertionError("the target was evaluated on stacked points")

    spied = dataclasses.replace(u, inverse_fourier=dataclasses.replace(
        target, evaluate=stacked, factors=tuple(map(spy, target.factors))))
    plain = dataclasses.replace(u, inverse_fourier=lambda x: u.inverse_fourier(x))
    for h in (0.4, 0.2):
        mesh = Mesh(2, h, round(9.6 / h))
        assert inverse_ft_error(spied, mesh) == inverse_ft_error(plain, mesh)
    assert shapes and all(len(shape) == 2 for shape in shapes)  # the (N, P*q) nodes of one axis


def test_inverse_ft_error_of_zero_window_is_zero():
    zero = ContinuumFunction(
        name="zero", d=1, channels=1,
        evaluate=lambda q: np.zeros(q.shape[:-1] + (1,), dtype=complex),
        inverse_fourier=lambda x: np.zeros(x.shape[:-1] + (1,), dtype=complex),
        sup_norm=0.0, support_inf=1.0,
    )
    assert inverse_ft_error(zero, Mesh(1, 0.4, 24)) < 1e-13


def test_a_factor_matches_its_taylor_polynomial_at_small_theta():
    # where the quotient (1 - exp(-i*theta)) / (i*theta) cancels most digits; the
    # degree-6 polynomial sum_k (-i*theta)**k / (k+1)! is exact to 1e-25 here
    theta = np.geomspace(1e-6, 1e-3, 301)
    theta = np.concatenate([-theta[::-1], theta])
    taylor = sum((-1j * theta) ** k / math.factorial(k + 1) for k in range(7))
    np.testing.assert_allclose(a_factor(theta), taylor, rtol=1e-15, atol=0)
