"""Continuum-limit laboratory: dyadic-h sweeps with fitted empirical rates.

Every experiment keeps the box side fixed across its sweep (otherwise
truncation error pollutes the rate), measures one error per mesh size, and
reports the least-squares slope on ``(log h, log err)``.  Strong-convergence
statements are tested per test vector: the gates are error decrease on fixed
catalog members, never operator-norm decrease.  Entries below 1e-12 are
excluded from slope fits (roundoff floor), and an optional guard runs one
extra halving of the finest mesh to flag a reached error floor.  The
resolvent sweeps build one refined reference on the finest level they run,
the floor-guard level included, and block-average it to every level.  The
potential sweep's reference is one call of the nested continuum solve
`operators._solve_with_potential`, which returns the reference's averages
on that level (`operators._cell_means` of its refined spectrum), with
the residual sums that certified them; with a passing interpolated start it
never forms a field on the refined mesh.

Experiments run their levels one after another on the calling thread, so
each level's wall time is its own cost, and a sweep's peak memory is that
of its largest level or of its reference, whichever is larger.  Every
transform inside a level runs on the calling thread too; each per-h run is
deterministic, so reports are bit-for-bit reproducible.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .errors import DegenerateFit
from .fourier import FrequencyGrid, inverse_ft_error, weighted_ft_error, _require_weight_exponent
from .grid import (
    ContinuumFunction,
    LatticeField,
    Mesh,
    function_catalog,
    l2_error_vs_continuum,  # unused here; perfbench/spans.py times calls through this name
    norm_l2,
    project,
    sample,  # unused here; perfbench/spans.py times calls through this name
    _projection_errors,
)
from .operators import (
    PotentialSpec,
    ResolventQuery,
    block_average,
    potential_catalog,
    resolvent_continuum,
    resolvent_free,
    resolvent_with_potential,
    sample_potential,  # unused here; perfbench/spans.py times calls through this name
    _channel_last,
    _require_count,
    _require_resolvent_region,
    _require_spinor_function,
    _require_tolerance,
    _solve_with_potential,
)
from .symbols import (
    EYE2, DiracParams, opnorm_2x2, symbol_continuum, symbol_discrete, _require_complex_shift, _require_mass,
)

__all__ = [
    "Sweep",
    "Series",
    "ConvergenceReport",
    "fit_rate",
    "exp_projection",
    "exp_ft",
    "exp_ift",
    "exp_resolvent_free",
    "exp_resolvent_potential",
    "weighted_operator_gap_probe",
    "DYADIC_HS",
]

DYADIC_HS = (0.4, 0.2, 0.1, 0.05)

FLOOR_CUTOFF = 1e-12  # series entries below this are excluded from slope fits


def _box_mesh(d: int, h: float, box: float) -> Mesh:
    """The ``d``-dimensional mesh of size ``h`` whose site count ``box / h`` is even and at least 4."""
    if not (0 < h < np.inf and 0 < box < np.inf):
        raise ValueError(f"box and mesh size must be finite and positive, got box={box!r}, h={h!r}")
    ratio = box / h
    N = round(ratio)
    if abs(ratio - N) > 1e-9 or N % 2 or N < 4:
        raise ValueError(f"box {box} with h={h} gives invalid site count {ratio}")
    return Mesh(d, h, N)


@dataclass(frozen=True)
class Sweep:
    """Mesh sizes, fixed box, and experiment parameters for one sweep.

    ``function`` and ``potential`` may be catalog ids or constructed objects;
    the CLI only uses ids so runs stay reproducible from the config alone.
    """

    hs: tuple[float, ...] = DYADIC_HS
    box: float = 9.6
    function: Union[str, ContinuumFunction] = "gaussian2d"
    m: float = 1.0
    z: complex = 2j
    potential: Union[str, PotentialSpec, None] = None
    s: float = 1.0
    refine: int = 8
    tol: float = 1e-10
    check_floor: bool = False

    def __post_init__(self):
        _require_tolerance(self.tol)
        _require_count("refine", self.refine)
        _require_mass(self.m)
        # finiteness only: the sweeps that ignore z take a real one, and the resolvent solves reject it
        for name, value in (("shift z", self.z), ("s", self.s)):  # box and hs: `_box_mesh`
            if not np.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if len(self.hs) < 1:
            raise ValueError("sweep needs at least one mesh size")
        if any(a <= b for a, b in zip(self.hs, self.hs[1:])):
            raise ValueError("mesh sizes must be strictly decreasing")
        for h in self.levels:
            self.mesh_for(h)  # validates h, box, divisibility and parity

    @property
    def levels(self) -> tuple[float, ...]:
        """Every mesh size the sweep runs: ``hs``, then ``hs[-1] / 2`` when ``check_floor`` is set."""
        return tuple(self.hs) + ((self.hs[-1] / 2,) if self.check_floor else ())

    def mesh_for(self, h: float) -> Mesh:
        return _box_mesh(self.resolved_function().d, h, self.box)

    def resolved_function(self) -> ContinuumFunction:
        if isinstance(self.function, ContinuumFunction):
            return self.function
        return function_catalog(self.function)

    def resolved_potential(self) -> Optional[PotentialSpec]:
        if self.potential is None or isinstance(self.potential, PotentialSpec):
            return self.potential
        return potential_catalog(self.potential)

    def label(self) -> dict:
        fn = self.function if isinstance(self.function, str) else self.function.name
        pot = self.potential if isinstance(self.potential, (str, type(None))) else self.potential.name
        return {
            "hs": list(self.hs), "box": self.box, "function": fn, "m": self.m,
            "z": complex(self.z), "potential": pot, "s": self.s, "refine": self.refine,
        }


@dataclass(frozen=True)
class Series:
    """One named error-vs-h series with its fitted log-log rate."""

    name: str
    errors: tuple[float, ...]
    slope: Optional[float]
    intercept: Optional[float]
    monotone: bool


@dataclass(frozen=True)
class ConvergenceReport:
    experiment: str
    params: dict
    hs: tuple[float, ...]
    Ns: tuple[int, ...]
    series: tuple[Series, ...]
    wall_ms: tuple[float, ...]
    floor_reached: Optional[bool] = None

    @property
    def primary(self) -> Series:
        return self.series[0]

    def rows(self) -> list[dict]:
        """Flat per-(series, h) rows for CSV/JSON emission."""
        out = []
        for ser in self.series:
            tag = self.experiment if len(self.series) == 1 else f"{self.experiment}:{ser.name}"
            for i, h in enumerate(self.hs):
                partial, _ = _floor_fit(self.hs[: i + 1], ser.errors[: i + 1])
                out.append(
                    {
                        "experiment": tag,
                        "h": h,
                        "N": self.Ns[i],
                        "error": ser.errors[i],
                        "slope-so-far": partial,
                        "wall-ms": self.wall_ms[i],
                    }
                )
        return out


def fit_rate(hs: Sequence[float], errs: Sequence[float]) -> tuple[float, float]:
    """Ordinary least squares of ``log err`` against ``log h``.

    Raises `DegenerateFit` on fewer than 3 points or entries at the
    roundoff floor (<= 1e-14).
    """
    hs = np.asarray(hs, dtype=float)
    errs = np.asarray(errs, dtype=float)
    if hs.size < 3 or hs.size != errs.size:
        raise DegenerateFit(f"need >= 3 matched points, got {hs.size}")
    if np.any(errs <= 1e-14):
        raise DegenerateFit("some errors are at the roundoff floor")
    slope, intercept = np.polyfit(np.log(hs), np.log(errs), 1)
    return float(slope), float(intercept)


def _floor_fit(hs: Sequence[float], errors: Sequence[float]):
    """`fit_rate` over the entries above `FLOOR_CUTOFF`; ``(None, None)`` when fewer than 3 remain."""
    keep = [(h, e) for h, e in zip(hs, errors) if e > FLOOR_CUTOFF]
    return fit_rate(*zip(*keep)) if len(keep) >= 3 else (None, None)


def _make_series(name: str, hs: Sequence[float], errors: Sequence[float]) -> Series:
    errors = [float(e) for e in errors]
    slope, intercept = _floor_fit(hs, errors)
    monotone = all(b < a for a, b in zip(errors[:-1], errors[1:]))
    return Series(name, tuple(errors), slope, intercept, monotone)


def _run_levels(hs, worker):
    """``worker(h)`` for each level in order on the calling thread, with wall times in ms.

    No level runs beside another, and no transform inside a level starts a thread.
    """
    results, timings = [], []
    for h in hs:
        start = time.perf_counter()
        results.append(worker(h))
        timings.append((time.perf_counter() - start) * 1e3)
    return results, timings


def _assemble(
    experiment: str,
    sweep: Sweep,
    named_errors: dict[str, list[float]],
    timings,
    Ns,
    extra: Optional[dict[str, float]] = None,
) -> ConvergenceReport:
    series = tuple(_make_series(name, sweep.hs, errs) for name, errs in named_errors.items())
    floor = None
    if extra is not None:
        floor = any(
            extra[name] > 1.01 * named_errors[name][-1] for name in named_errors
        )
    return ConvergenceReport(
        experiment=experiment,
        params=sweep.label(),
        hs=tuple(sweep.hs),
        Ns=tuple(Ns),
        series=series,
        wall_ms=tuple(timings),
        floor_reached=floor,
    )


def _sweep(experiment: str, sweep: Sweep, names: Sequence[str], worker) -> ConvergenceReport:
    """Run ``worker(h)``, which returns one error per series name, on every level of ``sweep``.

    All of ``sweep.levels``, the floor-guard level included, run through one
    `_run_levels` call; the floor-guard level is compared, not reported.
    """
    results, timings = _run_levels(sweep.levels, worker)
    n = len(sweep.hs)
    errors = {name: [r[i] for r in results[:n]] for i, name in enumerate(names)}
    extra = dict(zip(names, results[n])) if sweep.check_floor else None
    Ns = [sweep.mesh_for(h).N for h in sweep.hs]
    return _assemble(experiment, sweep, errors, timings[:n], Ns, extra)


def _resolvent_worker(sweep: Sweep, reference: LatticeField, V: Optional[PotentialSpec]):
    """Per-level error ``||R_z P_h phi - block_average(reference)||``, with ``V`` if given."""
    phi = sweep.resolved_function()

    def worker(h):
        mesh = sweep.mesh_for(h)
        psi = project(phi, mesh)
        query = ResolventQuery(z=sweep.z, p=DiracParams(sweep.m, h), tol=sweep.tol)
        u = resolvent_free(psi, query) if V is None else resolvent_with_potential(psi, query, V)
        ref_h = block_average(reference, mesh)
        return (norm_l2(LatticeField(mesh, u.values - ref_h.values)),)

    return worker


# ---------------------------------------------------------------------------
# experiments


def exp_projection(sweep: Sweep) -> ConvergenceReport:
    """Sampling and cell-average projection errors against the continuum function.

    Each level evaluates the function once per Gauss rule at the cell nodes
    and forms the projection and both error integrals from those values.
    """
    phi = sweep.resolved_function()
    return _sweep(
        "project", sweep, ("sampling", "projection"),
        lambda h: _projection_errors(phi, sweep.mesh_for(h)),
    )


def exp_ft(sweep: Sweep) -> ConvergenceReport:
    """Weighted distance between discrete and continuum transforms, per h."""
    if sweep.s <= 0:
        raise ValueError("the weighted transform sweep needs s > 0")
    phi = sweep.resolved_function()
    return _sweep(
        "ft", sweep, ("weighted-ft",),
        lambda h: (weighted_ft_error(phi, sweep.mesh_for(h), sweep.s),),
    )


def exp_ift(sweep: Sweep) -> ConvergenceReport:
    """Inverse-transform error for a frequency-window catalog entry, per h."""
    u = sweep.resolved_function()
    return _sweep("ift", sweep, ("inverse-ft",), lambda h: (inverse_ft_error(u, sweep.mesh_for(h)),))


def exp_resolvent_free(sweep: Sweep) -> ConvergenceReport:
    """Per-vector error of the free discrete resolvent against the continuum surrogate.

    One reference is computed on the ``refine``-fold refinement of the finest
    level (the floor-guard level when set) and block-averaged to every level,
    so all levels share the same comparison target.
    """
    finest = sweep.mesh_for(sweep.levels[-1])
    reference = resolvent_continuum(
        sweep.resolved_function(), sweep.z, sweep.m, finest, refine=sweep.refine
    )
    worker = _resolvent_worker(sweep, reference, None)
    return _sweep("resolve-free", sweep, ("resolvent-free",), worker)


def exp_resolvent_potential(sweep: Sweep) -> ConvergenceReport:
    """Per-vector error of the perturbed resolvent against a refined-grid reference.

    The reference is one call of `operators._solve_with_potential` on the
    ``refine``-fold refinement of the finest level (the floor-guard level when
    set).  It runs the same Neumann/Krylov factorization with the continuum
    symbol, the potential evaluated at the sites of each row block as the solve
    multiplies it (no grid-sized potential array is held), and the solver limits
    of a default `ResolventQuery`, in complex128 throughout.  The continuum
    symbol does not change with the mesh size, so the reference is first solved
    on the even sites (recursively, while the site count stays a multiple of 4),
    each level evaluating the continuum function itself.  On each finer mesh the
    interpolated coarser solution is kept as it is when it passes that mesh's own
    residual test at ``sweep.tol``, and iterated from otherwise, so the reference
    is certified at ``sweep.tol`` either way.  The test runs on the four cosets
    of the mesh's sites, each a copy of the half mesh.  Coset ``(0, 0)`` is the
    coarser solution, whose residual that mesh has already measured, so only the
    three other cosets are tested, each one block of rows at a time, so no
    coset is held whole.  Each mesh hands back a spectrum, the coarser one's
    when its start passes, so with a passing start the refined mesh's field is
    never formed; a failing start is the coarser spectrum zero-padded to the
    mesh and transformed back once.  The levels compare against the
    block averages of its point values that `operators._cell_means` forms:
    its kernel ``K`` is a left-endpoint rule on each coarse cell, biased at
    first order in ``h / refine``, where the free sweep's reference passes it
    the exact cell-average kernel ``conj(a(H*xi))``.
    """
    V = sweep.resolved_potential()
    if V is None:
        raise ValueError("the potential sweep needs a potential id")
    _require_resolvent_region(sweep.z, V)
    phi, finest = sweep.resolved_function(), sweep.mesh_for(sweep.levels[-1])
    fine = Mesh(2, finest.h / sweep.refine, finest.N * sweep.refine)
    _require_spinor_function(phi, fine)
    averages, _ = _solve_with_potential(phi, fine, sweep.refine, complex(sweep.z), sweep.m, V, None, sweep.tol,
                                        ResolventQuery.max_iter, ResolventQuery.restart)
    worker = _resolvent_worker(sweep, LatticeField(finest, _channel_last(averages)), V)
    return _sweep("resolve-potential", sweep, ("resolvent-potential",), worker)


# ---------------------------------------------------------------------------
# weighted-operator-norm diagnostic


def weighted_operator_gap_probe(m: float, z: complex, s: float, h: float, box: float) -> float:
    """The weighted-space operator-norm gap of the discrete and continuum resolvents, exactly.

    Both are 2x2 multipliers ``R(xi) = (M(xi) + z) / (|zeta|**2 + m**2 - z**2)``
    on the dual grid of the ``box`` mesh of size ``h``, so the gap is the
    maximum over that grid of ``opnorm_2x2(R_disc - R_cont) * (1 + |xi|**2)**(-s/2)``.
    At ``s = 0`` it stays near ``max(|m + z|, |m - z|) / |m**2 - z**2|`` at every
    ``h``: the discrete ``zeta`` vanishes at the doubler ``h*xi = (pi/2, -pi/2)``,
    which is why the convergence is strong and not in norm.  Diagnostic only.
    A non-finite shift raises `ValueError`, a real one `RealShift`; an ``s``,
    ``h``, ``box`` or ``m`` that `weighted_ft_error`, `Sweep` or `DiracParams` rejects
    raises `ValueError`.
    """
    _require_complex_shift(z)
    _require_weight_exponent(s)
    xi = FrequencyGrid(_box_mesh(2, h, box)).coords()
    p, m, z = DiracParams(m, h), float(m), complex(z)  # Python scalars, so a float32 mass cannot narrow m*m

    def resolvent(M):  # M**2 = (|zeta|**2 + m**2) I, so (M - z)**-1 = (M + z) / (M**2 - z**2)
        return (M + z * EYE2) / (np.abs(M[..., 1, 0]) ** 2 + m * m - z * z)[..., None, None]

    gap = opnorm_2x2(resolvent(symbol_discrete(xi, p)) - resolvent(symbol_continuum(xi, m)))
    return float(np.max(gap * (1.0 + np.sum(xi**2, axis=-1)) ** (-s / 2)))
