"""Command-line front end: config parsing, experiment dispatch, result emission.

Every experiment prints a one-line summary with the pass/fail state of its
built-in assertion and exits 0 on pass, 2 on assertion failure, 1 on any
error.  Output files (CSV or JSON, chosen by ``--format``) are byte-stable
for a given config: fixed field order and 17-significant-digit floats.
Complex shifts are written in ``a+bi`` literal form.  A JSON config file can
seed any flag; explicit flags win.  LATTICE_DIRAC_THREADS caps the across-h
parallelism of the sweeps, the row-block workers of the cell quadrature and
the workers of every FFT; ``--threads`` overrides it for one run.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, fields
from typing import Optional, get_args, get_type_hints

import numpy as np

from .errors import ConfigError, LatticeDiracError
from .fourier import FrequencyGrid
from .grid import FUNCTION_IDS, Mesh, thread_cap
from .lab import (
    DYADIC_HS,
    ConvergenceReport,
    Sweep,
    exp_ft,
    exp_ift,
    exp_projection,
    exp_resolvent_free,
    exp_resolvent_potential,
)
from .operators import POTENTIAL_IDS, dense_matrix
from .symbols import DiracParams, critical_points, lambda_mh, omega, spectrum_bounds

__all__ = ["RunConfig", "run", "main", "parse_complex", "format_complex"]

EXPERIMENTS = (
    "omega-scan",
    "spectrum",
    "project",
    "ft",
    "ift",
    "resolve-free",
    "resolve-potential",
    "oracle-eigs",
)


# ---------------------------------------------------------------------------
# complex literals and float formatting


def parse_complex(text: str) -> complex:
    """Parse an ``a+bi`` literal ("2i", "3-4i", "1e-3+2i", plain reals)."""
    t = str(text).strip().replace(" ", "")
    if not t:
        raise ConfigError("empty complex literal")
    try:
        if not t.endswith("i"):
            return complex(float(t), 0.0)
        body = t[:-1]
        split = 0
        for k in range(len(body) - 1, 0, -1):
            if body[k] in "+-" and body[k - 1] not in "eE":
                split = k
                break
        real, imag = body[:split], body[split:]
        if imag in ("", "+"):
            imag = "1"
        elif imag == "-":
            imag = "-1"
        return complex(float(real) if real else 0.0, float(imag))
    except ValueError as exc:
        raise ConfigError(f"bad complex literal {text!r}") from exc


def format_complex(z: complex) -> str:
    z = complex(z)
    return f"{z.real:.17g}{z.imag:+.17g}i"


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, complex):
        return format_complex(value)
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


# ---------------------------------------------------------------------------
# configuration


@dataclass
class RunConfig:
    """Validated experiment configuration; one field per CLI flag."""

    experiment: str
    function: str = "gaussian2d"
    potential: Optional[str] = None
    hs: tuple[float, ...] = DYADIC_HS
    box: float = 9.6
    m: float = 1.0
    h: float = 1.0
    z: complex = 2j
    s: float = 1.0
    refine: int = 8
    grid: int = 256
    N: int = 16
    out: Optional[str] = None
    format: str = "csv"
    threads: Optional[int] = None

    def validate(self):
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment {self.experiment!r}")
        if self.function not in FUNCTION_IDS:
            raise ConfigError(f"unknown test function {self.function!r}; ids: {FUNCTION_IDS}")
        if self.potential is not None and self.potential not in POTENTIAL_IDS:
            raise ConfigError(f"unknown potential {self.potential!r}; ids: {POTENTIAL_IDS}")
        if self.format not in ("csv", "json"):
            raise ConfigError(f"format must be csv or json, got {self.format!r}")
        if self.m < 0:
            raise ConfigError("mass must be nonnegative")
        if self.h <= 0 or self.box <= 0:
            raise ConfigError("mesh size and box must be positive")
        if any(hv <= 0 for hv in self.hs):
            raise ConfigError("sweep mesh sizes must be positive")
        if self.refine < 1 or self.grid < 2:
            raise ConfigError("refine and grid must be positive")
        if self.N < 4 or self.N % 2 or self.N > 32:
            raise ConfigError("oracle lattice size must be even, 4..32")
        if self.s < 0:
            raise ConfigError("weight exponent must be nonnegative")
        if self.threads is not None and self.threads < 1:
            raise ConfigError("threads must be >= 1")
        if self.experiment in ("resolve-free", "resolve-potential") and self.z.imag == 0:
            raise ConfigError("resolvent experiments need Im z != 0")
        if self.experiment == "resolve-potential" and self.potential is None:
            raise ConfigError("resolve-potential needs --potential")
        if self.out is not None:
            parent = os.path.dirname(os.path.abspath(self.out))
            if not os.path.isdir(parent):
                raise ConfigError(f"output directory {parent!r} does not exist")


# the JSON types that can seed each type of RunConfig field; booleans seed none
_FILE_TYPES = {str: str, int: int, float: (int, float), complex: (str, int, float), type(None): type(None)}


def _check_file_value(key: str, value):
    """Raise `ConfigError` naming ``key`` unless its config-file ``value`` can seed its field."""
    if key == "sweep":  # 'dyadic', comma-separated floats, or a list of numbers
        kinds, items = ([float], value) if isinstance(value, list) else ([str], [value])
    else:
        hint = get_type_hints(RunConfig)[key]
        kinds, items = get_args(hint) or [hint], [value]  # Optional[X] gives (X, NoneType)
    types = tuple(_FILE_TYPES[k] for k in kinds)
    if not all(isinstance(v, types) and not isinstance(v, bool) for v in items):
        raise ConfigError(f"config file field {key!r} has the wrong type: {value!r}")


def _parse_sweep(text: str) -> tuple[float, ...]:
    if text == "dyadic":
        return DYADIC_HS
    try:
        hs = tuple(float(part) for part in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"bad sweep {text!r}: expected 'dyadic' or comma-separated floats") from exc
    return hs


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that raises ConfigError instead of exiting with code 2."""

    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="lattice-dirac", description=__doc__, add_help=True)
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in EXPERIMENTS:
        p = sub.add_parser(name, add_help=True)
        p.add_argument("--config", type=str, default=None, help="JSON config file; flags win")
        p.add_argument("--out", type=str, default=None, help="output file path")
        p.add_argument("--format", type=str, default=None, choices=("csv", "json"))
        p.add_argument("--threads", type=int, default=None)
        if name == "spectrum":
            p.add_argument("--m", type=float, default=None)
            p.add_argument("--h", type=float, default=None)
        elif name == "omega-scan":
            p.add_argument("--grid", type=int, default=None)
        elif name == "oracle-eigs":
            p.add_argument("--N", type=int, default=None)
            p.add_argument("--h", type=float, default=None)
            p.add_argument("--m", type=float, default=None)
        else:
            p.add_argument("--function", type=str, default=None)
            p.add_argument("--sweep", type=str, default=None, help="'dyadic' or h1,h2,...")
            p.add_argument("--box", type=float, default=None)
            if name == "ft":
                p.add_argument("--s", type=float, default=None)
            if name in ("resolve-free", "resolve-potential"):
                p.add_argument("--m", type=float, default=None)
                p.add_argument("--z", type=str, default=None, help="complex literal, e.g. 2i")
                p.add_argument("--refine", type=int, default=None)
            if name == "resolve-potential":
                p.add_argument("--potential", type=str, default=None)
    return parser


_EXPERIMENT_DEFAULTS = {
    "project": {"function": "gaussian2d"},
    "ft": {"function": "gaussian1d", "box": 25.6},
    "ift": {"function": "freqbump1d"},
    "resolve-free": {"function": "gaussian-spinor"},
    "resolve-potential": {"function": "gaussian-spinor", "potential": "hermitian-gaussian"},
}


def config_from_argv(argv) -> RunConfig:
    parser = _build_parser()
    ns = parser.parse_args(argv)
    merged: dict = dict(_EXPERIMENT_DEFAULTS.get(ns.experiment, {}))
    config_path = getattr(ns, "config", None)
    if config_path:
        try:
            with open(config_path, "r", encoding="utf-8") as fh:
                file_cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file {config_path!r}: {exc}") from exc
        if not isinstance(file_cfg, dict):
            raise ConfigError("config file must hold a JSON object")
        keys = {f.name for f in fields(RunConfig)} - {"experiment", "hs"} | {"sweep"}  # sweep seeds hs
        unknown = set(file_cfg) - keys
        if unknown:
            raise ConfigError(f"unknown config file fields: {sorted(unknown)}")
        for key, value in file_cfg.items():
            _check_file_value(key, value)
        merged.update(file_cfg)
    for key, value in vars(ns).items():
        if key in ("config", "experiment") or value is None:
            continue
        merged[key] = value
    if "sweep" in merged:
        sweep_val = merged.pop("sweep")
        merged["hs"] = _parse_sweep(sweep_val) if isinstance(sweep_val, str) else tuple(sweep_val)
    if "z" in merged and isinstance(merged["z"], str):
        merged["z"] = parse_complex(merged["z"])
    config = RunConfig(experiment=ns.experiment, **merged)
    config.validate()
    return config


# ---------------------------------------------------------------------------
# emission


def _write_rows(path: str, fmt: str, columns: list[str], rows: list[dict]):
    if fmt == "csv":
        lines = [",".join(columns)]
        for row in rows:
            lines.append(",".join(_fmt(row.get(col)) for col in columns))
        payload = "\n".join(lines) + "\n"
    else:
        body = [
            {col: (_fmt(row.get(col)) if isinstance(row.get(col), (float, complex)) else row.get(col))
             for col in columns}
            for row in rows
        ]
        payload = json.dumps({"schema-version": "1", "columns": columns, "rows": body}, indent=1)
        payload += "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(payload)


def _emit_report(report: ConvergenceReport, config: RunConfig):
    if config.out is None:
        return
    columns = ["experiment", "h", "N", "error", "slope-so-far", "wall-ms"]
    _write_rows(config.out, config.format, columns, report.rows())


# ---------------------------------------------------------------------------
# experiment drivers


def _gate_report(report: ConvergenceReport) -> tuple[bool, str]:
    prim = report.primary
    decreasing = all(ser.monotone for ser in report.series)
    ok = decreasing
    notes = [f"errors {prim.errors[0]:.4g} -> {prim.errors[-1]:.4g}"]
    if prim.slope is not None:
        notes.append(f"slope {prim.slope:.3f}")
    if report.experiment == "project":
        sampling = next(s for s in report.series if s.name == "sampling")
        ok = ok and sampling.slope is not None and 0.8 <= sampling.slope <= 1.2
    elif report.experiment == "ift":
        ok = ok and prim.slope is not None and 0.8 <= prim.slope <= 1.2
    elif report.experiment == "resolve-free":
        ok = ok and prim.errors[-1] < prim.errors[0] / 4
    return ok, ", ".join(notes)


def _run_sweep_experiment(config: RunConfig) -> int:
    sweep = Sweep(
        hs=config.hs,
        box=config.box,
        function=config.function,
        m=config.m,
        z=config.z,
        potential=config.potential,
        s=config.s,
        refine=config.refine,
    )
    runner = {
        "project": exp_projection,
        "ft": exp_ft,
        "ift": exp_ift,
        "resolve-free": exp_resolvent_free,
        "resolve-potential": exp_resolvent_potential,
    }[config.experiment]
    report = runner(sweep)
    _emit_report(report, config)
    ok, notes = _gate_report(report)
    state = "PASS" if ok else "FAIL"
    extra = f" z={format_complex(config.z)}" if config.experiment.startswith("resolve") else ""
    print(f"{config.experiment} function={config.function}{extra}: {notes}  {state}")
    return 0 if ok else 2


def _run_spectrum(config: RunConfig) -> int:
    params = DiracParams(config.m, config.h)
    (neg_lo, neg_hi), (pos_lo, pos_hi) = spectrum_bounds(params)

    def short(v):
        txt = f"{v + 0.0:.8f}".rstrip("0").rstrip(".")
        return txt if txt not in ("-0", "") else "0"

    text = f"[{short(neg_lo)}, {short(neg_hi)}] ∪ [{short(pos_lo)}, {short(pos_hi)}]"
    if config.out is not None:
        columns = ["m", "h", "lower-min", "lower-max", "upper-min", "upper-max"]
        rows = [{"m": config.m, "h": config.h, "lower-min": neg_lo, "lower-max": neg_hi,
                 "upper-min": pos_lo, "upper-max": pos_hi}]
        _write_rows(config.out, config.format, columns, rows)
    print(f"spectrum m={_fmt(config.m)} h={_fmt(config.h)}: {text}  PASS")
    return 0


def _run_omega_scan(config: RunConfig) -> int:
    n = config.grid
    axis = -np.pi + 2 * np.pi * np.arange(n) / n
    t1, t2 = np.meshgrid(axis, axis, indexing="ij")
    pts = np.stack([t1, t2], axis=-1)
    values = omega(pts)
    rows = [
        {"kind": "grid", "xi1": float(t1[i, j]), "xi2": float(t2[i, j]), "omega": float(values[i, j])}
        for i in range(n)
        for j in range(n)
    ]
    cps = critical_points()  # raises if any gradient check fails
    for cp in cps:
        rows.append({"kind": cp.kind, "xi1": cp.location[0], "xi2": cp.location[1], "omega": cp.value})
    bounds_ok = bool(
        np.all(values >= -1e-13) and np.all(values <= 2 * (t1**2 + t2**2) + 1e-13)
    )
    if config.out is not None:
        _write_rows(config.out, config.format, ["kind", "xi1", "xi2", "omega"], rows)
    ok = bounds_ok and len(cps) == 6
    state = "PASS" if ok else "FAIL"
    print(
        f"omega-scan grid={n}: {len(cps)} critical points verified, "
        f"bounds {'hold' if bounds_ok else 'VIOLATED'}  {state}"
    )
    return 0 if ok else 2


def _run_oracle_eigs(config: RunConfig) -> int:
    mesh = Mesh(2, config.h, config.N)
    params = DiracParams(config.m, config.h)
    eigs = np.sort(np.linalg.eigvalsh(dense_matrix(params, mesh)))
    lam = lambda_mh(FrequencyGrid(mesh).coords(), params).ravel()
    expected = np.sort(np.concatenate([lam, -lam]))
    deviation = np.abs(eigs - expected)
    if config.out is not None:
        rows = [
            {"index": i, "eig": float(eigs[i]), "expected": float(expected[i]),
             "deviation": float(deviation[i])}
            for i in range(eigs.size)
        ]
        _write_rows(config.out, config.format, ["index", "eig", "expected", "deviation"], rows)
    worst = float(np.max(deviation))
    ok = worst < 1e-10
    state = "PASS" if ok else "FAIL"
    print(f"oracle-eigs N={config.N} h={_fmt(config.h)} m={_fmt(config.m)}: max deviation {worst:.3e}  {state}")
    return 0 if ok else 2


def run(config: RunConfig) -> int:
    """Execute one experiment; returns 0 on pass, 2 on assertion failure."""
    config.validate()
    saved = os.environ.get("LATTICE_DIRAC_THREADS")
    if config.threads is not None:
        os.environ["LATTICE_DIRAC_THREADS"] = str(config.threads)
    runners = {"spectrum": _run_spectrum, "omega-scan": _run_omega_scan, "oracle-eigs": _run_oracle_eigs}
    try:
        thread_cap(1)  # a malformed LATTICE_DIRAC_THREADS fails here, before any work
        return runners.get(config.experiment, _run_sweep_experiment)(config)
    finally:  # --threads holds for this run only
        if saved is None:
            os.environ.pop("LATTICE_DIRAC_THREADS", None)
        else:
            os.environ["LATTICE_DIRAC_THREADS"] = saved


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        config = config_from_argv(argv)
        code = run(config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except LatticeDiracError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
