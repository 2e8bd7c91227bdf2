"""Tests for lattice geometry, grid transfers, and step-function norms."""

import dataclasses
import threading

import numpy as np
import pytest
from scipy.integrate import quad

from latticedirac import (
    ContinuumFunction,
    LatticeField,
    Mesh,
    evaluate_step,
    inner,
    l2_error_vs_continuum,
    norm_l2,
    norm_little_l2,
    project,
    sample,
)
from latticedirac.errors import MeshMismatch, OutOfDomain, QuadratureFailure
from latticedirac import grid
from latticedirac.grid import (
    FUNCTION_IDS,
    bandlimited,
    bandlimited_spinor,
    freq_window,
    function_catalog,
    gaussian,
    gaussian_spinor,
    hat,
    modulated_gaussian,
    _cos_power_window,
    _projection_errors,
    _stack_channels,
)

from conftest import peak_bytes, random_field


def constant_function(d, value=1.0):
    return ContinuumFunction(
        name="const", d=d, channels=1,
        evaluate=lambda pts: np.full(pts.shape[:-1] + (1,), value, dtype=complex),
        sup_norm=abs(value),
    )


# ---------------------------------------------------------------------------
# mesh geometry


def test_mesh_basic_properties():
    mesh = Mesh(2, 0.5, 8)
    assert mesh.L == 4.0
    np.testing.assert_array_equal(mesh.indices, np.arange(-4, 4))
    assert mesh.site_coords().shape == (8, 8, 2)
    assert mesh.site_coords()[0, 0, 0] == -2.0


@pytest.mark.parametrize("bad", [dict(d=3, h=0.5, N=8), dict(d=2, h=-1.0, N=8),
                                 dict(d=2, h=0.5, N=7), dict(d=2, h=0.5, N=2)])
def test_mesh_rejects_invalid(bad):
    with pytest.raises(ValueError):
        Mesh(**bad)


def test_field_rejects_nonfinite_values():
    mesh = Mesh(1, 0.5, 8)
    vals = np.zeros((8, 1), dtype=complex)
    vals[3, 0] = np.nan
    with pytest.raises(ValueError):
        LatticeField(mesh, vals)


def test_field_accepts_non_contiguous_values():
    # a channel-last view of channel-first memory, as the solvers hand results back
    mesh = Mesh(2, 0.5, 8)
    vals = np.ones((2, 8, 8), dtype=complex)
    LatticeField(mesh, np.moveaxis(vals, 0, -1))
    vals[1, 3, 4] = np.nan
    with pytest.raises(ValueError, match="field values must be finite"):
        LatticeField(mesh, np.moveaxis(vals, 0, -1))


def test_cells_tile_box():
    # every point of the box lands in exactly one cell, recovered by floor
    mesh = Mesh(1, 0.25, 8)
    f = LatticeField(mesh, np.arange(8, dtype=complex)[:, None])
    xs = np.linspace(-1.0, 1.0 - 1e-9, 173)
    cells = [int(evaluate_step(f, [x])[0].real) for x in xs]
    assert cells == [int(np.floor(x / 0.25)) + 4 for x in xs]


# ---------------------------------------------------------------------------
# sampling


def test_sample_constant_is_constant():
    mesh = Mesh(2, 0.3, 6)
    f = sample(constant_function(2), mesh)
    np.testing.assert_allclose(f.values, 1.0)


def test_sample_gaussian_values():
    mesh = Mesh(2, 0.5, 24)
    f = sample(gaussian(2), mesh)
    center = (12, 12)
    assert f.values[center][0] == 1.0
    np.testing.assert_allclose(f.values[13, 13, 0], np.exp(-0.5), rtol=0, atol=1e-15)


def test_sample_dimension_mismatch():
    with pytest.raises(MeshMismatch):
        sample(gaussian(1), Mesh(2, 0.5, 8))


def test_sampling_error_rate_constant_is_stable():
    # ||phi_h - phi|| <= C h with a stable constant across dyadic refinement
    phi = gaussian(2)
    ratios = []
    for h in (0.4, 0.2, 0.1, 0.05):
        mesh = Mesh(2, h, round(9.6 / h))
        ratios.append(l2_error_vs_continuum(sample(phi, mesh), phi) / h)
    assert max(ratios) / min(ratios) < 1.5


# ---------------------------------------------------------------------------
# projection


def test_project_constant():
    mesh = Mesh(2, 0.3, 6)
    f = project(constant_function(2), mesh)
    np.testing.assert_allclose(f.values, 1.0, atol=1e-14)


def test_project_hat_matches_known_cell_averages():
    # plateau w: averages are w on the two central cells, w/2 on the ramps
    h = 0.5
    mesh = Mesh(1, h, 16)
    f = project(hat(h), mesh)
    expected = np.zeros(16)
    mid = 8
    expected[mid - 1] = expected[mid] = h
    expected[mid - 2] = expected[mid + 1] = h / 2
    np.testing.assert_allclose(f.values[:, 0].real, expected, atol=1e-14)
    np.testing.assert_allclose(f.values[:, 0].imag, 0, atol=1e-15)


def test_project_gaussian_error_decreases_monotonically():
    phi = gaussian(2)
    errs = [l2_error_vs_continuum(project(phi, Mesh(2, h, round(9.6 / h))), phi)
            for h in (0.4, 0.2, 0.1)]
    assert errs[2] < errs[1] < errs[0]


def test_project_undeclared_kink_fails_quadrature():
    # same trapezoid but without declared breakpoints: the self-estimate
    # catches the kink sitting inside a cell
    bad = ContinuumFunction(
        name="kinked", d=1, channels=1,
        evaluate=lambda pts: np.maximum(0.0, 1.0 - np.abs(pts[..., 0]))[..., None].astype(complex),
        sup_norm=1.0,
    )
    with pytest.raises(QuadratureFailure):
        project(bad, Mesh(1, 0.4, 16))


def _cone_in_cell(mesh, row, col, sup_norm=1.0):
    """Cone of height 1 on a disc inside one cell: its rim is a kink line no other cell sees."""
    centre = mesh.h * (np.array([row, col]) - mesh.N // 2 + 0.5)
    radius = 0.4 * mesh.h

    def evaluate(pts):
        r = np.sqrt(np.sum((pts - centre) ** 2, axis=-1))
        return np.maximum(0.0, 1.0 - r / radius)[..., None].astype(complex)

    return ContinuumFunction("cone", 2, 1, evaluate, sup_norm=sup_norm)


def _block_edge_rows():
    """A 2D mesh with a partial last row block, and rows on either side of block edges."""
    mesh = Mesh(2, 0.1, 96)
    rows = grid._BLOCK_CELLS // mesh.N
    assert 1 < rows and mesh.N % rows  # several blocks, the last one partial
    return mesh, {"end-of-first": rows - 1, "start-of-second": rows, "last": mesh.N - 1}


@pytest.mark.parametrize("edge", ["end-of-first", "start-of-second", "last"])
def test_undeclared_kink_on_a_row_block_edge_fails_quadrature(edge):
    mesh, rows = _block_edge_rows()
    cone = _cone_in_cell(mesh, rows[edge], 3)
    with pytest.raises(QuadratureFailure, match="^cell-average self-estimate"):
        project(cone, mesh)
    zero = LatticeField(mesh, np.zeros(mesh.shape + (1,)))
    with pytest.raises(QuadratureFailure, match="^error-norm self-estimate"):
        l2_error_vs_continuum(zero, cone)


@pytest.mark.parametrize("name,mesh", [
    ("gaussian2d", Mesh(2, 0.2, 48)),
    ("modwave2d", Mesh(2, 0.2, 48)),
    ("gaussian-spinor", Mesh(2, 0.2, 48)),
    ("hat", Mesh(1, 0.3, 32)),  # cells split at the kinks 0.5 and 1.0
])
def test_projection_errors_match_the_separate_calls(name, mesh):
    # in 2D the per-axis path gives both errors, and l2_error_vs_continuum walks row blocks:
    # they agree to rounding there, and bit for bit where both walk row blocks
    phi = function_catalog(name)
    got = _projection_errors(phi, mesh)
    want = (l2_error_vs_continuum(sample(phi, mesh), phi), l2_error_vs_continuum(project(phi, mesh), phi))
    if mesh.d == 2:
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)
    else:
        assert got == want


@pytest.mark.parametrize("sup_norm,first", [
    (1.0, "error-norm"),  # every check fails; the sampling error norm is checked first
    (1e5, "cell-average"),  # the error-norm bounds scale with sup_norm**2 and pass
])
def test_projection_errors_fail_like_the_separate_calls(sup_norm, first):
    mesh, rows = _block_edge_rows()
    cone = _cone_in_cell(mesh, rows["start-of-second"], 3, sup_norm)

    def separate():
        l2_error_vs_continuum(sample(cone, mesh), cone)
        l2_error_vs_continuum(project(cone, mesh), cone)

    messages = []
    for call in (separate, lambda: _projection_errors(cone, mesh)):
        with pytest.raises(QuadratureFailure) as info:
            call()
        messages.append(str(info.value))
    assert messages[0] == messages[1]
    assert messages[1].startswith(f"{first} self-estimate")


def test_projection_error_memory_peak_is_bounded():
    # the row-block walk of the error integral never holds a whole (N, q, N, q, 2) node
    # array (38 MB here): it holds one block at a time
    phi = gaussian(2)
    assert peak_bytes(lambda: l2_error_vs_continuum(project(phi, Mesh(2, 0.05, 192)), phi)) < 32e6


@pytest.mark.parametrize("name", ["gaussian2d", "modwave2d"])
def test_separable_projection_errors_hold_no_array_of_the_mesh(name):
    # the per-axis path reduces each block of rows to per-row sums and maxima, and takes the sups
    # of the sample and the projection from per-axis maxima: its peak (1.2 MB for gaussian2d,
    # 1.6 MB for modwave2d) stays below the N**2 complex cell averages of project (2.4 MB), where
    # whole per-cell arrays for every gap held 14-17 MB
    phi, mesh = function_catalog(name), Mesh(2, 9.6 / 384, 384)
    assert peak_bytes(lambda: _projection_errors(phi, mesh)) < 2.0e6 < mesh.N**2 * 16


@pytest.mark.parametrize("name", ["gaussian2d", "modwave2d", "gaussian-spinor"])
def test_per_axis_quadrature_is_unchanged_by_row_blocks(name, monkeypatch):
    # each row is reduced whole and the rows are added once at the end, so one row per block,
    # five, and the whole mesh in one block give the same bits
    phi, mesh = function_catalog(name), Mesh(2, 9.6 / 48, 48)
    results = []
    for sites in (mesh.N, 5 * mesh.N, mesh.N**2):
        monkeypatch.setattr(grid, "_BLOCK_SITES", sites)
        results.append((project(phi, mesh).values.tobytes(), _projection_errors(phi, mesh)))
    assert results[0] == results[1] == results[2]


def test_a_nan_in_the_last_row_block_fails_on_either_path():
    # a factor that is NaN at the Gauss nodes of the last cell row, not at its corners: both the
    # per-axis path and the stacked-point walk meet it in their last row block, and the NaN
    # estimate fails the check as in the first block (np.max keeps a NaN, Python's max drops it)
    mesh, g = Mesh(2, 0.05, 192), gaussian(2)
    assert len(grid._row_slices(mesh.N, mesh.N)) > 1
    assert len(grid._row_slices(mesh.N, mesh.N, grid._BLOCK_CELLS)) > 1
    last_corner = mesh.h * (mesh.N // 2 - 1)

    def late(x):
        return np.where((x > last_corner)[..., None], np.nan, g.factors[0](x))

    factors = (late, g.factors[1])
    phi = dataclasses.replace(g, evaluate=grid._product(factors), factors=factors)
    for call, first in ((project, "cell-average"), (_projection_errors, "error-norm")):
        for f in (phi, _evaluate_only(phi)):
            with pytest.raises(QuadratureFailure, match=f"^{first} self-estimate nan above tolerance$"):
                call(f, mesh)


def test_row_blocks_are_evaluated_on_the_calling_thread():
    # a function without factors is walked in row blocks, one after another on the main thread
    g, on_main = gaussian(2), []

    def evaluate(points):
        on_main.append(threading.current_thread() is threading.main_thread())
        return g.evaluate(points)

    phi = ContinuumFunction("plain", 2, 1, evaluate)
    mesh = Mesh(2, 0.1, 96)
    np.testing.assert_allclose(project(phi, mesh).values, project(g, mesh).values, rtol=1e-14)
    assert len(on_main) > 2 and all(on_main)  # one call per rule and block: several blocks ran


def test_project_rejects_a_wrong_channel_count():
    # the per-cell arrays are sized by the declared count; one value must not fill two channels
    liar = ContinuumFunction("liar", 2, 2, constant_function(2).evaluate)
    with pytest.raises(ValueError, match="declares 2 channels, evaluates to 1"):
        project(liar, Mesh(2, 0.5, 8))


def test_sample_rejects_a_wrong_channel_count():
    liar = ContinuumFunction("liar", 2, 2, constant_function(2).evaluate)
    with pytest.raises(ValueError, match="^liar declares 2 channels, evaluates to 1$"):
        sample(liar, Mesh(2, 0.5, 8))


def test_l2_error_rejects_a_function_with_a_wrong_channel_count():
    # one evaluated channel would broadcast against the field's two in the squared gap
    liar = ContinuumFunction("liar", 2, 2, constant_function(2).evaluate)
    two = LatticeField(Mesh(2, 0.5, 8), np.ones((8, 8, 2)))
    with pytest.raises(ValueError, match="^liar declares 2 channels, evaluates to 1$"):
        l2_error_vs_continuum(two, liar)


def test_l2_error_rejects_a_field_with_another_channel_count():
    spinor = sample(grid.gaussian_spinor(), Mesh(2, 0.4, 24))
    with pytest.raises(MeshMismatch, match="^field has 2 channels, gaussian2d declares 1$"):
        l2_error_vs_continuum(spinor, gaussian(2))


def test_projection_idempotent_on_step_functions(rng):
    # cell averages of an embedded step function recover the field exactly
    mesh = Mesh(2, 0.5, 8)
    f = random_field(mesh, 1, rng)

    def step_eval(points):
        n = np.floor(points / mesh.h).astype(int) + mesh.N // 2
        n = np.clip(n, 0, mesh.N - 1)
        return f.values[n[..., 0], n[..., 1], :]

    stepfn = ContinuumFunction("step", 2, 1, step_eval,
                               sup_norm=float(np.max(np.abs(f.values))))
    np.testing.assert_allclose(project(stepfn, mesh).values, f.values, atol=1e-13)


def test_hat_residual_matches_closed_form():
    # || phi - P_h phi || = sqrt(h**3/6): two linear ramps of mean zero per side
    h = 0.5
    f = project(hat(h), Mesh(1, h, 16))
    err = l2_error_vs_continuum(f, hat(h))
    np.testing.assert_allclose(err, np.sqrt(h**3 / 6), atol=1e-10)


def test_hat_residual_orthogonal_to_step_space():
    # independent quadrature of <J_h P_h phi, phi - J_h P_h phi>
    h = 0.5
    mesh = Mesh(1, h, 16)
    hat_fn = hat(h)
    f = project(hat_fn, mesh)

    def step_val(x):
        n = int(np.floor(x / h)) + 8
        return f.values[n, 0].real

    total = 0.0
    for n in range(-8, 8):
        a, b = n * h, (n + 1) * h
        val, _ = quad(
            lambda x: step_val(x) * (hat_fn(np.array([[x]]))[0, 0].real - step_val(x)),
            a, b, limit=200,
        )
        total += val
    assert abs(total) < 1e-12


# ---------------------------------------------------------------------------
# norms and point evaluation


def test_single_site_delta_norm():
    mesh = Mesh(2, 0.3, 8)
    vals = np.zeros(mesh.shape + (1,), dtype=complex)
    vals[4, 4, 0] = 1.0
    assert abs(norm_l2(LatticeField(mesh, vals)) - 0.3) < 1e-15


def test_embedding_isometry(rng):
    for d, N in ((1, 16), (2, 8)):
        mesh = Mesh(d, 0.37, N)
        f = random_field(mesh, 2, rng)
        assert abs(norm_l2(f) - mesh.h ** (d / 2) * norm_little_l2(f)) < 1e-13


def test_inner_product_consistency(rng):
    mesh = Mesh(2, 0.5, 8)
    f = random_field(mesh, 2, rng)
    val = inner(f, f)
    assert abs(val.imag) < 1e-13
    assert abs(val.real - norm_l2(f) ** 2) < 1e-12


def test_inner_mesh_mismatch(rng):
    f = random_field(Mesh(2, 0.5, 8), 1, rng)
    g = random_field(Mesh(2, 0.25, 8), 1, rng)
    with pytest.raises(MeshMismatch):
        inner(f, g)


def test_evaluate_step_cell_lookup():
    mesh = Mesh(2, 0.5, 8)
    vals = np.zeros(mesh.shape + (1,), dtype=complex)
    vals[4, 4, 0] = 5.0
    vals[5, 4, 0] = 7.0
    f = LatticeField(mesh, vals)
    assert evaluate_step(f, (0.25, 0.25))[0] == 5.0
    # boundary convention: x = (h, 0) belongs to the cell starting at h
    assert evaluate_step(f, (0.5, 0.0))[0] == 7.0
    with pytest.raises(OutOfDomain):
        evaluate_step(f, (2.0, 0.0))  # right edge is excluded
    with pytest.raises(OutOfDomain):
        evaluate_step(f, (0.0, -2.5))


@pytest.mark.parametrize("x", [(np.nan, 0.0), (0.0, np.inf), (-np.inf, 0.0)])
def test_evaluate_step_rejects_a_non_finite_point(x):
    f = LatticeField(Mesh(2, 0.5, 8), np.zeros((8, 8, 1), dtype=complex))
    with pytest.raises(OutOfDomain, match="not finite"):
        evaluate_step(f, x)  # before any cast of floor(x / h) to int, which would warn


# ---------------------------------------------------------------------------
# catalog closed forms


@pytest.mark.parametrize("amplitude", [1.0, 2.0 - 1.5j])
def test_gaussian_transform_without_a_centre_is_the_one_centred_at_zero(amplitude, rng):
    xi = rng.uniform(-20.0, 20.0, size=(7, 5, 2))
    plain = gaussian(2, amplitude=amplitude).fourier(xi)
    centred = gaussian(2, amplitude=amplitude, center=(0, 0)).fourier(xi)
    assert plain.dtype == np.complex128 and np.array_equal(plain, centred)


_CENTER, _K0 = "center must be {} finite numbers", "k0 must be {} finite numbers"
_RATE = "rate must be finite and positive"


@pytest.mark.parametrize("build, message", [
    pytest.param(lambda: gaussian(2, center=(0.5,)), _CENTER.format(2), id="gaussian-short-center"),
    pytest.param(lambda: gaussian(2, center=(0.5, 0.1, 0.2)), _CENTER.format(2), id="gaussian-long-center"),
    pytest.param(lambda: gaussian(2, center=(0.5, np.nan)), _CENTER.format(2), id="gaussian-nan-center"),
    pytest.param(lambda: gaussian(1, center=np.inf), _CENTER.format(1), id="gaussian-inf-center"),
    pytest.param(lambda: gaussian(2, a=np.nan), _RATE, id="gaussian-nan-rate"),
    pytest.param(lambda: gaussian(2, a=np.inf), _RATE, id="gaussian-inf-rate"),
    pytest.param(lambda: gaussian(2, a=0.0), _RATE, id="gaussian-zero-rate"),
    pytest.param(lambda: modulated_gaussian(2, k0=(1.0,)), _K0.format(2), id="modwave-short-k0"),
    pytest.param(lambda: modulated_gaussian(2, k0=(1.0, -0.5, 0.2)), _K0.format(2), id="modwave-long-k0"),
    pytest.param(lambda: modulated_gaussian(2, k0=(np.nan, 0.0)), _K0.format(2), id="modwave-nan-k0"),
    pytest.param(lambda: modulated_gaussian(2, a=-1.0), _RATE, id="modwave-negative-rate"),
    pytest.param(lambda: modulated_gaussian(2, a=np.nan), _RATE, id="modwave-nan-rate"),
    pytest.param(lambda: bandlimited(2, 3.0, k0=(1, 2, 3)), _K0.format(2), id="bandlimited-long-k0"),
    pytest.param(lambda: bandlimited(2, 3.0, k0=(1.0,)), _K0.format(2), id="bandlimited-short-k0"),
    pytest.param(lambda: bandlimited(1, 3.0, k0=(np.inf,)), _K0.format(1), id="bandlimited-inf-k0"),
])
def test_catalog_constructors_reject_inputs_that_would_change_the_function(build, message):
    # a centre or k0 of the wrong length once changed the dimension or dropped a coordinate,
    # and a NaN centre or rate passed unnoticed
    with pytest.raises(ValueError, match=message):
        build()


@pytest.mark.parametrize("R", [-3.0, 0.0, np.nan, np.inf])
@pytest.mark.parametrize("build", [
    pytest.param(lambda R: bandlimited(2, R), id="bandlimited"),
    pytest.param(lambda R: bandlimited_spinor(R=R), id="bandlimited-spinor"),
    pytest.param(lambda R: freq_window(1, R), id="freq-window"),
])
def test_cosine_window_constructors_reject_a_half_width_that_is_not_finite_and_positive(build, R):
    # a negative R once declared a zero transform for a nonzero profile, and NaN a NaN window
    with pytest.raises(ValueError, match="half-width R must be finite and positive"):
        build(R)


@pytest.mark.parametrize("width", [-0.5, 0.0, np.nan, np.inf])
def test_hat_rejects_a_width_that_is_not_finite_and_positive(width):
    # NaN and inf once passed the sign check and failed later, in the breakpoint check,
    # with a message that named no width
    with pytest.raises(ValueError, match="^hat width must be finite and positive, got "):
        hat(width)


@pytest.mark.parametrize("field", ["fourier", "inverse_fourier"])
@pytest.mark.parametrize("declared", [gaussian(2), gaussian(1), gaussian_spinor(1)],
                         ids=["1ch-2d", "1ch-1d", "2ch-1d"])
def test_a_declared_transform_of_another_dimension_or_channel_count_is_rejected(field, declared):
    spinor = gaussian_spinor()
    with pytest.raises(ValueError, match=f"^two is 2D with 2 channels, its {field} is {declared.d}D with "
                                         f"{declared.channels}$"):
        ContinuumFunction("two", 2, 2, spinor.evaluate, **{field: declared})
    assert getattr(ContinuumFunction("two", 2, 2, spinor.evaluate, **{field: spinor}), field) is spinor


@pytest.mark.parametrize("field", ["fourier", "inverse_fourier"])
def test_a_plain_transform_is_wrapped_as_a_function_of_its_owner(field):
    def transform(xi):
        return np.ones(xi.shape[:-1] + (2,), complex)

    phi = ContinuumFunction("owner", 2, 2, gaussian_spinor().evaluate, sup_norm=3.0, **{field: transform})
    wrapped = getattr(phi, field)
    assert isinstance(wrapped, ContinuumFunction) and wrapped.evaluate is transform and wrapped.factors is None
    assert (wrapped.name, wrapped.d, wrapped.channels, wrapped.sup_norm) == ("owner", 2, 2, 3.0)
    assert getattr(dataclasses.replace(phi), field) is wrapped  # wrapped once, then kept as declared


# The closed forms of the catalog transforms on stacked points (..., d), written apart from the
# per-axis factors that the catalog declares: the oracle of those factors.


def _stacked_gaussian(d, a=1.0, amplitude=1.0, center=None):
    def fourier(xi):
        q2 = np.sum(xi**2, axis=-1)
        vals = amplitude * (2 * a) ** (-d / 2) * np.exp(-q2 / (4 * a))
        if center is not None:
            vals = vals * np.exp(-1j * (xi @ np.asarray(center, dtype=float)))
        return vals.astype(complex, copy=False)[..., None]
    return fourier


def _stacked_modulated_gaussian(d, a=1.0, k0=None, amplitude=1.0):
    k0 = np.zeros(d) if k0 is None else np.asarray(k0, dtype=float)

    def fourier(xi):
        q2 = np.sum((xi - k0) ** 2, axis=-1)
        return (amplitude * (2 * a) ** (-d / 2) * np.exp(-q2 / (4 * a)))[..., None]
    return fourier


def _stacked_hat(width=0.5):
    w = float(width)

    def fourier(xi):
        q = xi[..., 0]
        val = (2 * np.pi) ** -0.5 * 4 * (1.5 * w) * (0.5 * w) \
            * np.sinc(1.5 * w * q / np.pi) * np.sinc(0.5 * w * q / np.pi)
        return val.astype(complex)[..., None]
    return fourier


def _stacked_bandlimited(d, R, p=8, k0=None, amplitude=1.0):
    window, _ = _cos_power_window(R, p)
    k0 = np.zeros(d) if k0 is None else np.asarray(k0, dtype=float)
    return lambda xi: (amplitude * np.prod(window(xi - k0), axis=-1))[..., None]


def _stacked_channels(*parts):
    return lambda xi: np.concatenate([part(xi) for part in parts], axis=-1)


_STACKED_TRANSFORMS = [
    ("gaussian1d", function_catalog("gaussian1d"), _stacked_gaussian(1)),
    ("gaussian2d", function_catalog("gaussian2d"), _stacked_gaussian(2)),
    ("modwave2d", function_catalog("modwave2d"), _stacked_modulated_gaussian(2, 1.0, (1.0, -0.5))),
    ("hat", function_catalog("hat"), _stacked_hat(0.5)),
    ("gaussian-spinor", function_catalog("gaussian-spinor"),
     _stacked_channels(_stacked_gaussian(2, 1.0, 1.0), _stacked_gaussian(2, 1.3, 0.6))),
    ("bandlimited-spinor", function_catalog("bandlimited-spinor"),
     _stacked_channels(_stacked_bandlimited(2, np.pi / 0.8), _stacked_bandlimited(2, np.pi / 0.8, amplitude=0.5))),
    ("gaussian-centred-1d", gaussian(1, a=0.5, amplitude=2.0, center=(0.4,)),
     _stacked_gaussian(1, 0.5, 2.0, (0.4,))),
    ("gaussian-centred-2d", gaussian(2, a=0.7, amplitude=2.0 - 1.5j, center=(0.4, -1.1)),
     _stacked_gaussian(2, 0.7, 2.0 - 1.5j, (0.4, -1.1))),
    ("gaussian-at-zero-2d", gaussian(2, a=1.3, center=(0.0, 0.0)), _stacked_gaussian(2, 1.3, 1.0, (0.0, 0.0))),
    ("modwave-complex-2d", modulated_gaussian(2, 0.6, (0.3, 0.8), amplitude=1j),
     _stacked_modulated_gaussian(2, 0.6, (0.3, 0.8), 1j)),
    ("modwave1d", modulated_gaussian(1, 2.0, (-0.7,)), _stacked_modulated_gaussian(1, 2.0, (-0.7,))),
    ("hat-wide", hat(0.8), _stacked_hat(0.8)),
    ("bandlimited1d", bandlimited(1, 2.0, p=4), _stacked_bandlimited(1, 2.0, 4)),
    ("bandlimited-shifted-2d", bandlimited(2, 3.0, p=4, k0=(0.5, -0.2), amplitude=0.5),
     _stacked_bandlimited(2, 3.0, 4, (0.5, -0.2), 0.5)),
    ("gaussian-spinor-1d", gaussian_spinor(1), _stacked_channels(_stacked_gaussian(1, 1.0, 1.0),
                                                                 _stacked_gaussian(1, 1.3, 0.6))),
    ("bandlimited-spinor-wide", bandlimited_spinor(R=3.5, p=6),
     _stacked_channels(_stacked_bandlimited(2, 3.5, 6), _stacked_bandlimited(2, 3.5, 6, amplitude=0.5))),
]


def test_every_catalog_transform_is_covered_by_a_stacked_closed_form():
    covered = {name for name, _, _ in _STACKED_TRANSFORMS}
    assert {name for name in FUNCTION_IDS if function_catalog(name).fourier is not None} <= covered


@pytest.mark.parametrize("name, entry, stacked", _STACKED_TRANSFORMS, ids=[c[0] for c in _STACKED_TRANSFORMS])
def test_declared_transform_matches_its_stacked_closed_form(name, entry, stacked, rng):
    # per-axis factors and the stacked closed form round the Gaussian exponent differently, by
    # a few ulps of |xi - k0|**2 / (4a) (below 40 here), so they match to 1e-14, not bit for bit
    assert isinstance(entry.fourier, ContinuumFunction) and entry.fourier.factors is not None
    xi = rng.uniform(-6.0, 6.0, size=(60, entry.d))
    np.testing.assert_allclose(entry.fourier(xi), stacked(xi), rtol=1e-14, atol=0)
    axes = [rng.uniform(-6.0, 6.0, size=n) for n in (9, 7)[: entry.d]]  # as the consumers sample it
    np.testing.assert_allclose(grid._grid_values(entry.fourier, axes)(), stacked(grid._cell_points(axes)),
                               rtol=1e-14, atol=0)


@pytest.mark.parametrize("entry,probe", [
    (gaussian(1, a=1.0), [0.0, 0.7, -2.3]),
    (gaussian(1, a=0.5, amplitude=2.0, center=(0.4,)), [0.3, -1.1]),
    (hat(0.5), [0.0, 1.3, -2.7]),
    (bandlimited(1, 2.0, p=4), [0.0, 0.9, 1.9]),
])
def test_declared_transform_matches_quadrature_1d(entry, probe):
    for q in probe:
        def re_part(x):
            return (entry(np.array([[x]]))[0, 0] * np.exp(-1j * x * q)).real

        def im_part(x):
            return (entry(np.array([[x]]))[0, 0] * np.exp(-1j * x * q)).imag

        lim = 40.0 if entry.support_inf is None else 4 * entry.support_inf + 40.0
        re, _ = quad(re_part, -lim, lim, limit=600)
        im, _ = quad(im_part, -lim, lim, limit=600)
        oracle = (re + 1j * im) / np.sqrt(2 * np.pi)
        declared = entry.fourier(np.array([[q]]))[0, 0]
        assert abs(oracle - declared) < 1e-8


def test_declared_transform_matches_quadrature_2d():
    from scipy.integrate import dblquad

    entry = modulated_gaussian(2, a=1.0, k0=(1.0, -0.5))
    for q in (np.array([0.0, 0.0]), np.array([0.8, 1.2])):
        def integrand_re(y, x):
            pt = np.array([[x, y]])
            return (entry(pt)[0, 0] * np.exp(-1j * (x * q[0] + y * q[1]))).real

        def integrand_im(y, x):
            pt = np.array([[x, y]])
            return (entry(pt)[0, 0] * np.exp(-1j * (x * q[0] + y * q[1]))).imag

        re, _ = dblquad(integrand_re, -8, 8, -8, 8, epsabs=1e-10)
        im, _ = dblquad(integrand_im, -8, 8, -8, 8, epsabs=1e-10)
        oracle = (re + 1j * im) / (2 * np.pi)
        declared = entry.fourier(q[None, :])[0, 0]
        assert abs(oracle - declared) < 1e-8


def test_function_catalog_ids_resolve():
    for name in ("gaussian1d", "gaussian2d", "modwave2d", "hat",
                 "gaussian-spinor", "bandlimited-spinor", "freqbump1d", "freqbump2d"):
        entry = function_catalog(name)
        assert entry.d in (1, 2)
    with pytest.raises(KeyError):
        function_catalog("nope")


def test_inner_mesh_mismatch_at_tiny_mesh_sizes(rng):
    # mesh sizes far below 1e-8 still differ by a factor of 3
    f = random_field(Mesh(2, 1e-9, 4), 1, rng)
    g = random_field(Mesh(2, 3e-9, 4), 1, rng)
    with pytest.raises(MeshMismatch):
        inner(f, g)


def _tent2d(width=0.5, breakpoints="both"):
    """``hat(x) * hat(y)``: kinks on both axes."""
    edge = hat(width)
    kinks = edge.breakpoints[0]
    return ContinuumFunction(
        name="tent2d", d=2, channels=1,
        evaluate=lambda pts: edge(pts[..., :1]) * edge(pts[..., 1:]),
        breakpoints=(kinks, kinks) if breakpoints == "both" else breakpoints,
        sup_norm=width**2,
    )


@pytest.mark.parametrize("h", [0.4, 0.3, 0.15])  # kinks +-0.5, +-1 strictly inside cells
def test_project_2d_tent_is_outer_product_of_1d_projections(h):
    N = 2 * round(2.4 / h)
    edge = project(hat(0.5), Mesh(1, h, N)).values[:, 0]
    got = project(_tent2d(), Mesh(2, h, N)).values[..., 0]
    np.testing.assert_allclose(got, np.outer(edge, edge), rtol=0, atol=1e-14)


@pytest.mark.parametrize("breakpoints", [
    (np.array([-0.5, 0.5]),),  # one array for a 2D function
    (np.array([0.5]), np.array([[0.5]])),  # not one-dimensional
    (np.array([0.5]), np.array([np.nan])),
])
def test_breakpoints_need_one_finite_array_per_axis(breakpoints):
    with pytest.raises(ValueError, match="breakpoints"):
        _tent2d(breakpoints=breakpoints)


def test_unsorted_breakpoints_integrate_like_sorted_ones():
    mesh = Mesh(1, 0.3, 16)
    shuffled = ContinuumFunction(name="hat", d=1, channels=1, evaluate=hat(0.5).evaluate,
                                 breakpoints=(np.array([0.5, -1.0, 1.0, -0.5]),), sup_norm=0.5)
    np.testing.assert_array_equal(project(shuffled, mesh).values, project(hat(0.5), mesh).values)


def _counting(phi, seen):
    """``phi`` that appends the number of points of each evaluation to ``seen``."""
    def evaluate(pts):
        seen.append(pts[..., 0].size)
        return phi(pts)

    return ContinuumFunction(name=phi.name, d=phi.d, channels=phi.channels, evaluate=evaluate,
                             breakpoints=phi.breakpoints, sup_norm=phi.sup_norm)


def test_2d_tent_cuts_only_the_cells_its_kinks_fall_in():
    # kinks +-0.5, +-1 are 0.5 apart, so no cell of size 0.15 holds two on one axis:
    # at most 2 pieces per axis, 4 per 2D cell (25 when every cell is cut at all 4 kinks)
    mesh = Mesh(2, 0.15, 32)
    kinked, kinkless = [], []
    project(_counting(_tent2d(), kinked), mesh)
    project(_counting(gaussian(2), kinkless), mesh)
    assert sum(kinkless) == mesh.N**2 * (8**2 + 7**2)
    assert sum(kinked) <= 4 * sum(kinkless)


# ---------------------------------------------------------------------------
# separable functions: per-axis factors and their outer products

# a mesh per dimension on which every catalog entry passes its quadrature checks
_TENSOR_MESHES = {1: Mesh(1, 0.3, 32), 2: Mesh(2, 0.4, 24)}


def _evaluate_only(phi):
    """``phi`` without its factors, so every grid transfer evaluates it on stacked points."""
    return dataclasses.replace(phi, factors=None)


def _assert_per_axis_matches_row_blocks(phi, mesh):
    """2D ``phi`` with factors: the per-axis path agrees with the row-block walk to rounding."""
    plain = _evaluate_only(phi)
    np.testing.assert_allclose(project(phi, mesh).values, project(plain, mesh).values, rtol=1e-14, atol=0)
    np.testing.assert_allclose(_projection_errors(phi, mesh), _projection_errors(plain, mesh), rtol=1e-14, atol=0)


@pytest.mark.parametrize("name", FUNCTION_IDS)
def test_factors_give_the_values_of_the_stacked_points(name):
    phi = function_catalog(name)
    assert phi.factors is not None
    mesh, plain = _TENSOR_MESHES[phi.d], _evaluate_only(phi)
    np.testing.assert_array_equal(sample(phi, mesh).values, sample(plain, mesh).values)
    assert l2_error_vs_continuum(sample(phi, mesh), phi) == l2_error_vs_continuum(sample(plain, mesh), plain)
    if phi.d == 1:  # both walk row blocks
        np.testing.assert_array_equal(project(phi, mesh).values, project(plain, mesh).values)
        assert _projection_errors(phi, mesh) == _projection_errors(plain, mesh)
    else:
        _assert_per_axis_matches_row_blocks(phi, mesh)


@pytest.mark.parametrize("name,N", [(name, N) for name in ("gaussian2d", "modwave2d", "gaussian-spinor")
                                     for N in (24, 48)])
def test_stacked_point_quadrature_is_unchanged_by_row_blocks(name, N, monkeypatch):
    # the row-block walk reduces each row whole and adds the rows once at the end, so any row
    # blocks give the same bits: one row per block, five, or the default
    plain = _evaluate_only(function_catalog(name))
    mesh = Mesh(2, 9.6 / N, N)
    f = sample(plain, mesh)
    projected, error = project(plain, mesh).values, l2_error_vs_continuum(f, plain)
    for block_cells in (grid._BLOCK_CELLS, N, 5 * N):
        monkeypatch.setattr(grid, "_BLOCK_CELLS", block_cells)
        np.testing.assert_array_equal(project(plain, mesh).values, projected)
        assert l2_error_vs_continuum(f, plain) == error


def test_separable_project_evaluates_each_factor_once_per_rule():
    # the cost guard of the per-axis path: O(N q) points per axis and rule, never N**2 q**2;
    # the projection errors add each axis's cell corners, once
    mesh = Mesh(2, 0.15, 32)
    phi, seen = gaussian(2), []

    def counting(factor):
        def counted(x):
            seen.append(x.size)
            return factor(x)
        return counted

    def never(points):
        raise AssertionError("evaluate called on stacked points")

    counted = dataclasses.replace(phi, evaluate=never, factors=tuple(map(counting, phi.factors)))
    np.testing.assert_array_equal(project(counted, mesh).values, project(phi, mesh).values)
    assert seen == [mesh.N * 8] * mesh.d + [mesh.N * 7] * mesh.d
    seen.clear()
    assert _projection_errors(counted, mesh) == _projection_errors(phi, mesh)
    assert seen == [mesh.N] * mesh.d + [mesh.N * 8] * mesh.d + [mesh.N * 7] * mesh.d


def _separable_tent2d(width=0.5):
    """`_tent2d` with its per-axis factors declared: kinks on both axes, per-axis path."""
    return dataclasses.replace(_tent2d(width), factors=hat(width).factors * 2)


@pytest.mark.parametrize("mesh", [Mesh(2, 0.3, 32), Mesh(2, 0.15, 64)])
@pytest.mark.parametrize("name", [name for name in FUNCTION_IDS if function_catalog(name).d == 2])
def test_per_axis_quadrature_matches_the_row_block_walk(name, mesh):
    _assert_per_axis_matches_row_blocks(function_catalog(name), mesh)


@pytest.mark.parametrize("mesh", [
    Mesh(2, 0.3, 32),  # one kink per axis inside some cells
    Mesh(2, 1.2, 8),  # the cells [0, 1.2) and [-1.2, 0) each hold two kinks per axis
])
def test_per_axis_quadrature_of_a_kinked_product_matches_the_row_block_walk(mesh):
    _assert_per_axis_matches_row_blocks(_separable_tent2d(), mesh)


def test_separable_function_with_an_undeclared_kink_fails_like_its_factorless_copy():
    # a tent factor with kinks at +-1, inside cells of 0.4, that the function does not declare
    def tent(x):
        return np.maximum(0.0, 1.0 - np.abs(x))[..., None].astype(complex)

    def gauss(x):
        return np.exp(-x**2)[..., None].astype(complex)

    phi = ContinuumFunction("kinked", 2, 1, lambda pts: tent(pts[..., 0]) * gauss(pts[..., 1]),
                            factors=(tent, gauss))
    mesh = Mesh(2, 0.4, 24)
    for call, first in ((project, "cell-average"), (_projection_errors, "error-norm")):
        messages = []
        for f in (phi, _evaluate_only(phi)):
            with pytest.raises(QuadratureFailure) as info:
                call(f, mesh)
            messages.append(str(info.value))
        assert messages[0] == messages[1]
        assert messages[0].startswith(f"{first} self-estimate")


@pytest.mark.parametrize("factors", [
    (np.exp,),  # one factor for a 2D function
    (np.exp, 2.0),  # not callable
    np.exp,  # not a sequence
])
def test_factors_need_one_callable_per_axis(factors):
    with pytest.raises(ValueError, match="^factors must be 2 callables, one per axis$"):
        ContinuumFunction("bad", 2, 1, gaussian(2).evaluate, factors=factors)


def test_stacked_channels_keep_the_kinks_of_their_entries():
    # hat(0.5) kinks at +-0.5, +-1 and hat(0.3) at +-0.3, +-0.6 all fall inside cells of 0.35
    mesh = Mesh(1, 0.35, 16)
    parts = [hat(0.5), hat(0.3)]
    values = project(_stack_channels(parts, "hats"), mesh).values
    for channel, part in enumerate(parts):
        np.testing.assert_allclose(values[:, channel], project(part, mesh).values[:, 0], rtol=0, atol=1e-15)
