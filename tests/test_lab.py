"""Tests for the convergence laboratory: sweeps, rate fits, and reports."""

import dataclasses
import threading
import time
import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticedirac import (
    ContinuumFunction,
    DiracParams,
    FrequencyGrid,
    Mesh,
    Sweep,
    exp_ft,
    exp_ift,
    exp_projection,
    exp_resolvent_free,
    exp_resolvent_potential,
    fit_rate,
    norm_l2,
    project,
)
from latticedirac import lab, operators
from latticedirac.errors import DegenerateFit, MeshMismatch, NoConvergence, NotInResolventRegion, RealShift
from latticedirac.grid import bandlimited_spinor, function_catalog, gaussian, gaussian_spinor, sample
from latticedirac.lab import DYADIC_HS, _assemble, weighted_operator_gap_probe
from latticedirac.operators import POTENTIAL_IDS, PotentialSpec, _Multiplier, _iterate, block_average, potential_catalog

from conftest import one_d_lengths, spy_fft, spy_transforms


# ---------------------------------------------------------------------------
# rate fitting


def test_fit_rate_linear_series():
    hs = [0.4, 0.2, 0.1, 0.05]
    slope, intercept = fit_rate(hs, [3.7 * h for h in hs])
    assert abs(slope - 1.0) < 1e-12
    assert abs(np.exp(intercept) - 3.7) < 1e-12


def test_fit_rate_quadratic_series():
    hs = [0.4, 0.2, 0.1, 0.05]
    slope, _ = fit_rate(hs, [0.9 * h**2 for h in hs])
    assert abs(slope - 2.0) < 1e-12


def test_fit_rate_with_jitter(rng):
    hs = np.array([0.4, 0.2, 0.1, 0.05, 0.025])
    errs = 2.0 * hs * (1 + rng.uniform(-0.01, 0.01, size=hs.size))
    slope, _ = fit_rate(hs, errs)
    assert abs(slope - 1.0) < 0.05


def test_fit_rate_degenerate_inputs():
    with pytest.raises(DegenerateFit):
        fit_rate([0.4, 0.2], [1.0, 0.5])
    with pytest.raises(DegenerateFit):
        fit_rate([0.4, 0.2, 0.1], [1.0, 0.5, 1e-15])


# ---------------------------------------------------------------------------
# sweep validation


@pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf")])
def test_sweep_rejects_bad_tolerance(tol):
    # raised on construction, so no experiment can start its reference solve
    with pytest.raises(ValueError, match="tolerance"):
        Sweep(hs=(0.8, 0.4, 0.2), box=9.6, function="gaussian-spinor", z=3j,
              potential="nonhermitian-gaussian", tol=tol)


@pytest.mark.parametrize("refine", [0, -2, 2.5, 2.0, True])
def test_sweep_rejects_bad_refine(refine):
    # raised on construction, before any reference is sampled or solved
    with pytest.raises(ValueError, match="refine"):
        Sweep(hs=(0.8, 0.4), box=9.6, function="gaussian-spinor", z=3j,
              potential="nonhermitian-gaussian", refine=refine)


@pytest.mark.parametrize("bad, message", [
    ({"m": -1.0}, "mass"), ({"m": float("nan")}, "mass"), ({"m": float("inf")}, "mass"),
    ({"z": complex(float("nan"), 3.0)}, "shift"), ({"z": complex(0.0, float("inf"))}, "shift"),
])
def test_sweep_rejects_bad_mass_or_shift(bad, message):
    # raised on construction, before any reference is sampled or solved
    with pytest.raises(ValueError, match=message):
        Sweep(**{"hs": (0.8, 0.4), "box": 9.6, "function": "gaussian-spinor", "z": 3j,
                 "potential": "nonhermitian-gaussian", **bad})


def test_sweep_requires_commensurate_box():
    with pytest.raises(ValueError):
        Sweep(hs=(0.3,), box=1.0, function="gaussian1d")  # 1.0/0.3 not integral
    with pytest.raises(ValueError):
        Sweep(hs=(0.4, 0.4), box=9.6, function="gaussian1d")  # not decreasing
    Sweep(hs=(0.4, 0.2), box=9.6, function="gaussian1d")  # fine


def test_sweep_floor_check_validates_extra_level():
    # the extra halved level must itself give an even site count
    Sweep(hs=(0.4, 0.2), box=9.6, function="gaussian1d", check_floor=True)


# ---------------------------------------------------------------------------
# experiments


def test_projection_experiment_gaussian_1d():
    rep = exp_projection(Sweep(hs=(0.4, 0.2, 0.1, 0.05), box=9.6, function="gaussian1d"))
    by_name = {s.name: s for s in rep.series}
    assert by_name["sampling"].monotone and by_name["projection"].monotone
    assert 0.8 <= by_name["sampling"].slope <= 1.2
    assert rep.Ns == (24, 48, 96, 192)


def test_projection_experiment_constant_sits_on_floor():
    const = ContinuumFunction(
        name="const", d=1, channels=1,
        evaluate=lambda pts: np.ones(pts.shape[:-1] + (1,), dtype=complex),
    )
    rep = exp_projection(Sweep(hs=(0.4, 0.2, 0.1), box=9.6, function=const))
    for series in rep.series:
        assert all(e < 1e-13 for e in series.errors)
        assert series.slope is None  # floor entries are excluded from fits


def test_ft_experiment_decreases():
    rep = exp_ft(Sweep(hs=(0.4, 0.2, 0.1), box=25.6, function="gaussian1d", s=1.0))
    assert rep.primary.monotone
    rep2 = exp_ft(Sweep(hs=(0.4, 0.2, 0.1), box=25.6, function="gaussian1d", s=2.0))
    assert all(b <= a for a, b in zip(rep.primary.errors, rep2.primary.errors))


def test_ft_experiment_needs_positive_weight():
    with pytest.raises(ValueError):
        exp_ft(Sweep(hs=(0.4, 0.2, 0.1), box=25.6, function="gaussian1d", s=0.0))


def test_ift_experiment_slope_and_reproducibility():
    sweep = Sweep(hs=(0.4, 0.2, 0.1, 0.05), box=9.6, function="freqbump1d")
    rep1 = exp_ift(sweep)
    rep2 = exp_ift(sweep)
    assert rep1.primary.errors == rep2.primary.errors  # bit-for-bit
    assert rep1.primary.monotone
    assert 0.8 <= rep1.primary.slope <= 1.2


def test_resolvent_free_experiment_short_sweep():
    rep = exp_resolvent_free(
        Sweep(hs=(0.4, 0.2, 0.1), box=9.6, function="gaussian-spinor", m=1.0, z=2j, refine=4)
    )
    assert rep.primary.monotone


def test_resolvent_free_bandlimited_obeys_symbol_bound():
    # with the transform supported in the coarsest box, the measured error
    # stays below the symbol-difference chain bound (h/2) sup|xi|^2 ||phi|| / Im(z)^2
    phi = bandlimited_spinor()
    sweep = Sweep(hs=(0.4, 0.2), box=9.6, function=phi, m=1.0, z=2j, refine=4)
    rep = exp_resolvent_free(sweep)
    sup_sq = 2 * phi.support_inf**2
    for h, err in zip(sweep.hs, rep.primary.errors):
        mesh = Mesh(2, h, round(9.6 / h))
        bound = (h / 2) * sup_sq * norm_l2(project(phi, mesh)) / abs(2j.imag) ** 2
        assert err <= bound


def test_resolvent_free_massless_also_converges():
    rep = exp_resolvent_free(
        Sweep(hs=(0.4, 0.2, 0.1), box=9.6, function="gaussian-spinor", m=0.0, z=2j, refine=4)
    )
    assert rep.primary.monotone


def test_resolvent_potential_experiment_hermitian():
    rep = exp_resolvent_potential(
        Sweep(hs=(0.4, 0.2, 0.1), box=9.6, function="gaussian-spinor", m=1.0, z=2j,
              potential="hermitian-gaussian")
    )
    assert rep.primary.monotone


def test_resolvent_potential_experiment_nonhermitian():
    rep = exp_resolvent_potential(
        Sweep(hs=(0.4, 0.2, 0.1), box=9.6, function="gaussian-spinor", m=1.0, z=3j,
              potential="nonhermitian-gaussian")
    )
    assert rep.primary.monotone


def test_resolvent_potential_region_violation():
    with pytest.raises(NotInResolventRegion):
        exp_resolvent_potential(
            Sweep(hs=(0.4, 0.2), box=9.6, function="gaussian-spinor", z=0.5j,
                  potential="nonhermitian-gaussian")
        )


def test_resolvent_potential_region_checked_before_sampling(monkeypatch):
    from latticedirac import lab

    def no_sampling(*args, **kwargs):
        raise AssertionError("fine fields sampled before the region check")

    monkeypatch.setattr(lab, "sample", no_sampling)
    monkeypatch.setattr(lab, "sample_potential", no_sampling)
    with pytest.raises(NotInResolventRegion):
        exp_resolvent_potential(
            Sweep(hs=(0.4, 0.2), box=9.6, function="gaussian-spinor", z=0.5j,
                  potential="nonhermitian-gaussian")
        )


def test_real_shift_with_a_potential_raises_real_shift_before_sampling(monkeypatch):
    # as `exp_resolvent_free`, `ResolventQuery` and `weighted_operator_gap_probe` do for a real shift;
    # the skew bound 0 of the zero potential would otherwise read it as outside the resolvent region
    def no_sampling(*args, **kwargs):
        raise AssertionError("fields sampled before the shift check")

    for module, name in ((lab, "project"), (operators, "sample"), (operators, "_grid_values")):
        monkeypatch.setattr(module, name, no_sampling)
    with pytest.raises(RealShift):
        exp_resolvent_potential(Sweep(hs=(0.4, 0.2), box=9.6, function="gaussian-spinor", z=1.0, potential="zero"))


# ---------------------------------------------------------------------------
# the refined potential reference


def _spy_reference(monkeypatch, sweep: Sweep) -> tuple[list, list]:
    """Lists that collect the reference `exp_resolvent_potential` builds and whether its finest start passes.

    The finest start is the `operators._coset_start` call on the refined mesh of
    ``sweep``; the calls on the coarser meshes below it are not recorded.
    """
    references, starts = [], []
    fine_N = sweep.mesh_for(sweep.levels[-1]).N * sweep.refine

    def worker(sweep, reference, V, _worker=lab._resolvent_worker):
        references.append(reference)
        return _worker(sweep, reference, V)

    def coset_start(spec, mesh, *args, _coset_start=operators._coset_start):
        start, measured = _coset_start(spec, mesh, *args)
        if mesh.N == fine_N:
            starts.append(start is None)
        return start, measured

    monkeypatch.setattr(lab, "_resolvent_worker", worker)
    monkeypatch.setattr(operators, "_coset_start", coset_start)
    return references, starts


def _potential_sweep(refine: int, h: float, z: complex = 3j, **extra) -> Sweep:
    """One-level `resolve-potential` sweep of the catalog spinor on the 9.6 box."""
    settings = {"function": "gaussian-spinor", "potential": "nonhermitian-gaussian", **extra}
    return Sweep(hs=(h,), box=9.6, z=z, refine=refine, **settings)


# (refine, h, whether the finest start passes); None: the fine site count is no multiple
# of 4, so there is no half mesh and no start.  Odd refines split a coarse cell's sites of
# one coset into runs of unequal length, and refine 1 puts a coset in every other cell.
REFERENCE_CASES = [
    (1, 0.05, True), (1, 0.2, False), (1, 0.32, None),
    (2, 0.1, True), (2, 0.2, False),
    (3, 0.2, True), (3, 0.4, False), (3, 0.32, None),
    (4, 0.2, True), (4, 0.4, False),
    (8, 0.4, True), (8, 0.8, False),
]


def _fine_reference(sweep: Sweep, phi: ContinuumFunction) -> np.ndarray:
    """Block averages on the finest level of a cold one-mesh solve of the full fine samples on its refinement."""
    finest = sweep.mesh_for(sweep.levels[-1])
    fine = Mesh(2, finest.h / sweep.refine, finest.N * sweep.refine)
    u, _ = _iterate(sample(phi, fine), complex(sweep.z), sweep.m, sweep.resolved_potential(), None, sweep.tol, 2000, 50)
    return block_average(u, finest).values


@pytest.mark.parametrize("z", [3j, 1.2j], ids=["neumann", "krylov"])
@pytest.mark.parametrize("refine,h,start", REFERENCE_CASES)
def test_potential_reference_is_the_block_average_of_the_fine_solve(refine, h, start, z, monkeypatch):
    sweep = _potential_sweep(refine, h, z)
    references, starts = _spy_reference(monkeypatch, sweep)
    exp_resolvent_potential(sweep)
    assert starts == ([] if start is None else [start])
    expected = _fine_reference(sweep, sweep.resolved_function())
    assert np.linalg.norm(references[0].values - expected) <= 1e-10 * np.linalg.norm(expected)


@pytest.mark.parametrize("refine,h", [(2, 0.1), (3, 0.2)])
def test_potential_reference_evaluates_a_function_without_factors_per_coset(refine, h, monkeypatch):
    # the same spinor without per-axis factors: the cosets call evaluate on each row block's points
    plain = ContinuumFunction("plain-spinor", 2, 2, gaussian_spinor().evaluate)
    sweep = _potential_sweep(refine, h, function=plain)
    references, starts = _spy_reference(monkeypatch, sweep)
    exp_resolvent_potential(sweep)
    assert starts == [True]
    expected = _fine_reference(sweep, plain)
    assert np.linalg.norm(references[0].values - expected) <= 1e-10 * np.linalg.norm(expected)


def test_zero_right_hand_side_gives_a_zero_reference_without_warnings(monkeypatch):
    # the start test compares ||residual|| with tol * ||psi||, both 0 here, with no 0/0
    zero = ContinuumFunction("zero-spinor", 2, 2, lambda x: np.zeros(x.shape[:-1] + (2,)))
    sweep = _potential_sweep(8, 0.4, function=zero)
    references, starts = _spy_reference(monkeypatch, sweep)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        exp_resolvent_potential(sweep)
    assert starts == [True]
    assert not references[0].values.any()


def _nan_off_the_half_mesh(h: float) -> PotentialSpec:
    """NaN at the odd sites of a mesh of size ``h`` (odd ``x_1 / h``), zero elsewhere; declares sup_norm 1."""

    def matrix_fn(x):
        odd = np.round(x[..., 0] / h) % 2 == 1
        return np.where(odd[..., None, None], np.nan, 0.0) * np.eye(2)

    return PotentialSpec("nan-off-the-half-mesh", matrix_fn, 1.0, 0.0)


@pytest.mark.parametrize("z", [3j, 2j], ids=["neumann", "krylov"])
def test_non_finite_coset_residual_never_passes(z, monkeypatch):
    # the half mesh sees only zeros and solves; the odd cosets of the fine mesh read NaN, so the
    # start fails and the fine iteration stops on its first residual or product that is not finite
    sweep = _potential_sweep(2, 0.4, z, potential=_nan_off_the_half_mesh(0.2))
    references, starts = _spy_reference(monkeypatch, sweep)
    with pytest.raises(NoConvergence, match="not finite"):
        exp_resolvent_potential(sweep)
    assert starts == [False] and references == []


@pytest.mark.parametrize("matrix_fn", [
    lambda x: np.ones(x.shape, dtype=complex),  # (..., 2): broadcasts along the wrong axis
    lambda x: np.eye(2, dtype=complex),  # one matrix for every site
], ids=["channel-axis", "one-matrix"])
def test_misshapen_potential_fails_the_reference_before_any_transform(matrix_fn, monkeypatch):
    transforms = spy_fft(monkeypatch, names=("fft", "ifft"))
    V = PotentialSpec("misshapen", matrix_fn, 1.0, 0.0)
    with pytest.raises(ValueError, match="potential 'misshapen' gave samples of shape"):
        exp_resolvent_potential(_potential_sweep(8, 0.4, potential=V))
    assert transforms == []


@pytest.mark.parametrize("z", [3j, 1.2j], ids=["neumann", "krylov"])
@pytest.mark.parametrize("name", POTENTIAL_IDS)
def test_catalog_resolve_potential_never_calls_matrix_fn(name, z, monkeypatch):
    # every catalog potential declares its per-axis envelope, which the level solves and the
    # reference multiply by; matrix_fn, kept for sample_potential and dense_matrix, is not called
    calls = []

    def catalog(potential, _catalog=potential_catalog):
        V = _catalog(potential)

        def matrix_fn(points, _matrix_fn=V.matrix_fn):
            calls.append(points.shape)
            return _matrix_fn(points)

        return dataclasses.replace(V, matrix_fn=matrix_fn)

    monkeypatch.setattr(lab, "potential_catalog", catalog)
    sweep = Sweep(hs=(0.4, 0.2), box=9.6, function="gaussian-spinor", z=z, potential=name, refine=4)
    assert len(exp_resolvent_potential(sweep).rows()) == 2
    assert calls == []


def test_potential_reference_memory_peak_holds_no_fine_field(monkeypatch):
    # a passing finest start at refine 8 (fine N = 768): the start test holds the band spectrum
    # (of N = 48 here), the two (2, 384, 48) column bands and its row-block buffers, each a small
    # part of a fine spinor field (0.34 fields in all); one (2, 384, 384) coset buffer or the
    # zero-padded half-mesh spectrum would add a quarter, and the fine samples, the fine solution
    # or D u on the fine mesh one each
    np.fft.fft(np.zeros(1, complex))  # loads numpy.fft outside the traced call

    sweep = _potential_sweep(8, 0.1)
    fine_field = 2 * (sweep.mesh_for(0.1).N * 8) ** 2 * 16
    _, starts = _spy_reference(monkeypatch, sweep)
    tracemalloc.start()
    try:
        exp_resolvent_potential(sweep)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert starts == [True]
    assert peak < 0.45 * fine_field


def test_default_reference_transform_count_is_pinned(monkeypatch):
    # the default refine-8 reference of h = 0.05 (fine N = 1536), by the length of its 1D
    # transforms (a 2D transform of (2, n, n) runs 2n of length n along each axis).  Each start
    # test transforms three cosets back twice, six inverse transforms of size N/2, each pruned to
    # one transform along the rows of the (2, N/2, K) column band of a K x K band and one along
    # the columns of its rows zero-padded to N/2, block by block (as many 1D transforms as a 2D
    # one when K = N/2).  The meshes N = 12 ... 96 fail their starts (the six, plus one 2D
    # inverse transform of size N for the start, the band zero-padded), iterate and transform
    # their solution forward once, and N = 6 starts cold; so the band of every passing level is
    # the 96 x 96 spectrum of N = 96.  The meshes N = 192 ... 1536 pass their starts: each runs
    # the six, hands back the band, and transforms nothing forward and nothing of size N.  The
    # cell averages on the finest level are one 2D inverse transform of its size, 192.  A
    # transform added anywhere in the reference changes these counts.
    forward = spy_transforms(monkeypatch, names=("fft",))
    inverse = spy_transforms(monkeypatch, names=("ifft",))
    spans = []

    def reference(*args, _solve=lab._solve_with_potential):
        before = len(forward), len(inverse)
        result = _solve(*args)
        spans.append((forward[before[0]:], inverse[before[1]:]))
        return result

    monkeypatch.setattr(lab, "_solve_with_potential", reference)
    sweep = _potential_sweep(8, 0.05)
    _, starts = _spy_reference(monkeypatch, sweep)
    exp_resolvent_potential(sweep)
    [(forward_calls, inverse_calls)] = spans
    assert starts == [True]
    # every forward transform is 2D: one call along axis 1 of a (2, n, n) solution, then one along axis 2
    assert all(shape == (2, shape[1], shape[1]) and axes == (1,) for shape, axes in forward_calls[::2])
    assert forward_calls[1::2] == [(shape, (2,)) for shape, _ in forward_calls[::2]]
    assert Counter(shape[1] for shape, _ in forward_calls[::2]) == {6: 19, 12: 16, 24: 13, 48: 8, 96: 2}
    assert one_d_lengths(forward_calls) == {6: 456, 12: 768, 24: 1248, 48: 1536, 96: 768}
    assert one_d_lengths(inverse_calls) == {6: 576, 12: 1056, 24: 1824, 48: 2688, 96: 3072, 192: 4224, 384: 5760,
                                            768: 10368}
    assert not any(1536 in shape for shape, _ in forward_calls + inverse_calls)


# ---------------------------------------------------------------------------
# report assembly


def test_projection_floor_guard_not_triggered():
    rep = exp_projection(
        Sweep(hs=(0.4, 0.2, 0.1), box=9.6, function="gaussian1d", check_floor=True)
    )
    assert rep.floor_reached is False
    # the guard level is finer than every hs level; the resolvent references must cover it
    short = dict(hs=(0.4, 0.2), box=9.6, refine=2, check_floor=True)
    runs = [
        (exp_ft, Sweep(**{**short, "box": 25.6}, function="gaussian1d")),
        (exp_ift, Sweep(**short, function="freqbump1d")),
        (exp_resolvent_free, Sweep(**short, function="gaussian-spinor")),
        (exp_resolvent_potential, Sweep(**short, function="gaussian-spinor", z=3j,
                                        potential="nonhermitian-gaussian")),
    ]
    for experiment, sweep in runs:
        assert isinstance(experiment(sweep).floor_reached, bool)


def test_floor_guard_level_runs_with_the_other_levels(monkeypatch):
    from latticedirac import lab

    seen, run_levels = [], lab._run_levels

    def spy(hs, worker):
        seen.append(tuple(hs))
        return run_levels(hs, worker)

    monkeypatch.setattr(lab, "_run_levels", spy)
    sweep = Sweep(hs=(0.4, 0.2, 0.1), box=9.6, function="gaussian1d", check_floor=True)
    exp_projection(sweep)
    assert seen == [sweep.levels]


def test_sweep_levels_never_run_side_by_side(monkeypatch):
    # no parallelism: levels, and every transform inside them, run on the calling thread
    from latticedirac import lab

    lock, in_flight, seen = threading.Lock(), [0], []
    errors = lab._projection_errors

    def counted(phi, mesh):
        with lock:
            in_flight[0] += 1
            seen.append(in_flight[0])
        try:
            time.sleep(0.02)
            return errors(phi, mesh)
        finally:
            with lock:
                in_flight[0] -= 1

    monkeypatch.setattr(lab, "_projection_errors", counted)
    exp_projection(Sweep(hs=(0.4, 0.2, 0.1), box=9.6, function="gaussian1d"))
    assert seen == [1, 1, 1]


@pytest.mark.parametrize("experiment, extra", [
    (exp_resolvent_free, {}),
    (exp_resolvent_potential, {"z": 3j, "potential": "nonhermitian-gaussian"}),
])
def test_resolvent_sweeps_reject_a_function_that_evaluates_too_few_channels(experiment, extra):
    g = gaussian(2)
    liar = ContinuumFunction("liar", 2, 2, g.evaluate, fourier=g.fourier.evaluate)
    sweep = Sweep(hs=(0.4, 0.2), box=9.6, function=liar, refine=2, **extra)
    with pytest.raises(ValueError, match="^liar declares 2 channels, evaluates to 1$"):
        experiment(sweep)


@pytest.mark.parametrize("experiment, extra, message", [
    (exp_resolvent_free, {}, "continuum resolvent acts on 2D two-channel functions"),
    (exp_resolvent_potential, {"z": 3j, "potential": "nonhermitian-gaussian"},
     "function is 1-dimensional, mesh is 2-dimensional"),
    # one-channel 2D functions are rejected before any reference work, by the same check
    (exp_resolvent_free, {"function": "gaussian2d"},
     "continuum resolvent acts on 2D two-channel functions"),
    (exp_resolvent_potential, {"function": "gaussian2d", "z": 3j, "potential": "nonhermitian-gaussian"},
     "continuum resolvent acts on 2D two-channel functions"),
])
def test_resolvent_sweeps_reject_1d_functions(experiment, extra, message):
    sweep = Sweep(**{"hs": (0.4, 0.2), "box": 9.6, "function": "gaussian1d", "refine": 2, **extra})
    with pytest.raises(MeshMismatch) as info:
        experiment(sweep)
    assert str(info.value) == message


def test_floor_guard_flags_stalled_series():
    sweep = Sweep(hs=(0.4, 0.2), box=9.6, function="gaussian1d")
    report = _assemble(
        "synthetic", sweep, {"err": [1.0, 0.5]}, [0.0, 0.0], [24, 48],
        extra={"err": 0.52},  # halving again made the error grow > 1%
    )
    assert report.floor_reached is True


def test_report_rows_structure():
    rep = exp_projection(Sweep(hs=(0.4, 0.2, 0.1), box=9.6, function="gaussian1d"))
    rows = rep.rows()
    assert len(rows) == 6  # two series, three levels
    assert {r["experiment"] for r in rows} == {"project:sampling", "project:projection"}
    assert rows[0]["slope-so-far"] is None
    assert rows[2]["slope-so-far"] is not None
    assert all(set(r) == {"experiment", "h", "N", "error", "slope-so-far", "wall-ms"}
               for r in rows)


def test_weighted_operator_gap_probe_is_finite_and_small():
    vals = [weighted_operator_gap_probe(1.0, 2j, 1.0, h, 9.6) for h in (0.4, 0.2)]
    assert all(np.isfinite(v) and 0 < v < 1 for v in vals)


@pytest.mark.parametrize("h", [0.1, 0.05])
def test_unweighted_operator_gap_stays_at_the_doubler_value(h):
    # the discrete zeta vanishes at h*xi = (pi/2, -pi/2), where the gap is
    # max(|m + z|, |m - z|) / |m**2 - z**2| = sqrt(5)/5 at m = 1, z = 2i, whatever h is
    assert abs(weighted_operator_gap_probe(1.0, 2j, 0.0, h, 9.6) - np.sqrt(5) / 5) < 5e-3


@pytest.mark.parametrize("s", [0.5, 1.0, 2.0])
def test_weighted_operator_gap_decays_at_rate_min_s_1(s):
    gaps = [weighted_operator_gap_probe(1.0, 2j, s, h, 9.6) for h in DYADIC_HS]
    slope, _ = fit_rate(DYADIC_HS, gaps)
    assert abs(slope - min(s, 1.0)) < 0.1


def _bump_ratio(m, z, s, h, box, center, width, spinor):
    """``||(R_disc - R_cont) u|| / ||<xi>**s u||`` for a Gaussian frequency bump ``u``, by multiplier applies."""
    grid = FrequencyGrid(Mesh(2, h, round(box / h)))
    coords = grid.coords()
    discrete = _Multiplier(grid.frequencies, DiracParams(m, h), m, z)
    continuum = _Multiplier(grid.frequencies, None, m, z)
    bump = np.exp(-np.sum((coords - center) ** 2, axis=-1) / (2 * width**2))
    u = spinor[:, None, None] * bump  # channel-first, as the multipliers take it
    gap = discrete(u.copy()) - continuum(u.copy())
    weight_sq = (1.0 + np.sum(coords**2, axis=-1)) ** s
    return np.sqrt(np.sum(np.abs(gap) ** 2) / np.sum(weight_sq * np.abs(u) ** 2))


@settings(max_examples=60, deadline=None)
@given(h=st.sampled_from([0.4, 0.2]), m=st.floats(0.0, 2.0), s=st.floats(0.0, 2.0),
       re=st.floats(-2.0, 2.0), im=st.floats(0.5, 3.0), sign=st.sampled_from([1.0, -1.0]),
       center=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)), width=st.floats(0.1, 2.0),
       angles=st.tuples(st.floats(0.0, np.pi), st.floats(0.0, 2 * np.pi)))
def test_weighted_operator_gap_bounds_every_bump_ratio_property(h, m, s, re, im, sign, center,
                                                                width, angles):
    z = complex(re, sign * im)
    spinor = np.array([np.cos(angles[0]), np.sin(angles[0]) * np.exp(1j * angles[1])])
    ratio = _bump_ratio(m, z, s, h, 9.6, np.asarray(center) * np.pi / h, width, spinor)
    assert ratio <= weighted_operator_gap_probe(m, z, s, h, 9.6) * (1 + 1e-12)


@pytest.mark.parametrize("z,error", [(1.0, RealShift), (complex(np.nan, 2.0), ValueError)])
def test_weighted_operator_gap_probe_rejects_bad_shift(z, error):
    with pytest.raises(error):
        weighted_operator_gap_probe(1.0, z, 1.0, 0.4, 9.6)


def test_last_row_slope_is_the_series_slope():
    # the last entry sits between fit_rate's floor (1e-14) and FLOOR_CUTOFF (1e-12)
    sweep = Sweep(hs=(0.4, 0.2, 0.1, 0.05), box=9.6, function="gaussian1d")
    report = _assemble("synthetic", sweep, {"err": [1e-6, 1e-8, 1e-10, 5e-13]}, [0.0] * 4,
                       [24, 48, 96, 192])
    assert report.rows()[-1]["slope-so-far"] == report.primary.slope


@pytest.mark.parametrize("s", [np.nan, np.inf, -1.0])
def test_weighted_operator_gap_probe_rejects_bad_weight_exponent(s):
    with pytest.raises(ValueError, match="weight exponent"):
        weighted_operator_gap_probe(1.0, 2j, s, 0.4, 9.6)


@pytest.mark.parametrize("h,box,message", [
    (0.4, 9.8, "invalid site count"),  # 24.5 sites, not rounded to the 9.6 answer
    (0.0, 9.6, "finite and positive"),
    (0.4, np.inf, "finite and positive"),
    (-0.4, 9.6, "finite and positive"),
])
def test_weighted_operator_gap_probe_needs_an_even_site_count(h, box, message):
    with pytest.raises(ValueError, match=message):
        weighted_operator_gap_probe(1.0, 2j, 1.0, h, box)


def test_sweep_rejects_a_zero_mesh_size():
    with pytest.raises(ValueError, match="finite and positive"):
        Sweep(hs=(0.4, 0.0), function="gaussian1d")
