"""Command-line front end: one table of experiments, config parsing, result emission.

`_EXPERIMENTS` is the one list of subcommands.  Each entry names the
experiment's own flags, the defaults it sets over `RunConfig`'s and its
driver; the subparsers, the per-experiment defaults and the dispatch are all
read from it.  Every experiment prints a one-line summary with the pass/fail
state of its built-in assertion and exits 0 on pass, 2 on assertion failure,
1 on any error.  Output files (CSV or JSON, chosen by ``--format``) are
byte-stable for a given config: fixed field order and 17-significant-digit
floats.  Complex shifts are written in ``a+bi`` literal form, and a flag's
value may start with ``-`` (``--z -2i``).  Flags are spelled in full; no
prefix stands for one.  A JSON config file can seed any flag; explicit
flags win.  A sweep runs its levels one after another;
LATTICE_DIRAC_THREADS caps the row-block workers of the cell quadrature and
the workers of every FFT, and ``--threads`` overrides it for one run.
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


# ---------------------------------------------------------------------------
# complex literals and float formatting


def parse_complex(text: str) -> complex:
    """Parse an ``a+bi`` literal ("2i", "3-4i", "1e-3+2i", plain reals)."""
    t = str(text).strip().replace(" ", "")
    if not t:
        raise ConfigError("empty complex literal")
    try:
        if set(t) & set("jJ()"):  # forms complex() takes that are not `a+bi` literals
            raise ValueError(t)
        return complex(t[:-1] + "j" if t.endswith("i") else t)
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
    """Validated experiment configuration; one field per CLI flag, with the defaults of `Sweep`."""

    experiment: str
    function: str = Sweep.function
    potential: Optional[str] = Sweep.potential
    hs: tuple[float, ...] = Sweep.hs
    box: float = Sweep.box
    m: float = Sweep.m
    h: float = 1.0
    z: complex = Sweep.z
    s: float = Sweep.s
    refine: int = Sweep.refine
    grid: int = 256
    N: int = 16
    out: Optional[str] = None
    format: str = "csv"
    threads: Optional[int] = None

    def validate(self):
        numbers = [("m", self.m), ("h", self.h), ("box", self.box), ("s", self.s), ("z", self.z)]
        for name, value in numbers + [("sweep", hv) for hv in self.hs]:
            if not np.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value!r}")
        if self.experiment not in _EXPERIMENTS:
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
        if self.refine < 1:
            raise ConfigError(f"refine must be at least 1, got {self.refine}")
        if self.grid < 2:
            raise ConfigError(f"grid must be at least 2, got {self.grid}")
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


_HINTS = get_type_hints(RunConfig)

# the JSON types that can seed each type of RunConfig field; booleans seed none
_FILE_TYPES = {str: str, int: int, float: (int, float), complex: (str, int, float), type(None): type(None)}


def _check_file_value(key: str, value):
    """Raise `ConfigError` naming ``key`` unless its config-file ``value`` can seed its field."""
    if key == "sweep":  # 'dyadic', comma-separated floats, or a list of numbers
        kinds, items = ([float], value) if isinstance(value, list) else ([str], [value])
    else:
        kinds, items = get_args(_HINTS[key]) or [_HINTS[key]], [value]  # Optional[X] gives (X, NoneType)
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


# flags every experiment takes, ahead of its own; argparse options beyond a flag's type
_SHARED_FLAGS = ("config", "out", "format", "threads")
_FLAG_OPTIONS = {
    "config": {"help": "JSON config file; flags win"},
    "out": {"help": "output file path"},
    "format": {"choices": ("csv", "json")},
    "sweep": {"help": "'dyadic' or h1,h2,..."},
    "z": {"help": "complex literal, e.g. 2i"},
}


def _flag_type(name: str):
    """argparse type of a flag: its field's, ``X`` for ``Optional[X]``; ``z`` is parsed after the merge."""
    hint = _HINTS.get(name, str)  # config and sweep are no fields
    return str if hint is complex else (get_args(hint) or [hint])[0]


def _build_parser() -> _Parser:
    parser = _Parser(prog="lattice-dirac", description=__doc__, add_help=True, allow_abbrev=False)
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name, (flags, _, _) in _EXPERIMENTS.items():
        p = sub.add_parser(name, add_help=True, allow_abbrev=False)
        for flag in _SHARED_FLAGS + flags:
            p.add_argument(f"--{flag}", type=_flag_type(flag), default=None, **_FLAG_OPTIONS.get(flag, {}))
    return parser


def _attach_dash_values(argv: list[str]) -> list[str]:
    """Write ``--flag -2i`` as ``--flag=-2i``: argparse takes ``-2i`` for an option."""
    entry = _EXPERIMENTS.get(argv[0]) if argv else None
    flags = {f"--{flag}" for flag in _SHARED_FLAGS + entry[0]} if entry else set()
    out: list[str] = []
    for token in argv:
        is_option = token.startswith("--") or token == "-h"
        if out and out[-1] in flags and token.startswith("-") and not is_option:
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def config_from_argv(argv) -> RunConfig:
    ns = _build_parser().parse_args(_attach_dash_values(list(argv)))
    merged: dict = dict(_EXPERIMENTS[ns.experiment][1])
    if ns.config:
        try:
            with open(ns.config, "r", encoding="utf-8") as fh:
                file_cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file {ns.config!r}: {exc}") from exc
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


def _emit_report(config: RunConfig, columns: list[str], rows: list[dict]):
    """Write ``rows`` to ``config.out`` as CSV or JSON; nothing without ``--out``."""
    if config.out is None:
        return
    if config.format == "csv":
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
    with open(config.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(payload)


# ---------------------------------------------------------------------------
# experiment drivers: each returns (ok, summary, columns, rows)


def _sweep(experiment, gate=lambda report: True):
    """Driver of a convergence sweep: its errors must decrease and ``gate(report)`` hold."""

    def driver(config: RunConfig):
        shared = {f.name for f in fields(Sweep)} & {f.name for f in fields(RunConfig)}
        report = experiment(Sweep(**{name: getattr(config, name) for name in shared}))
        prim = report.primary
        ok = all(ser.monotone for ser in report.series) and gate(report)
        notes = f"errors {prim.errors[0]:.4g} -> {prim.errors[-1]:.4g}"
        if prim.slope is not None:
            notes += f", slope {prim.slope:.3f}"
        extra = f" z={format_complex(config.z)}" if config.experiment.startswith("resolve") else ""
        columns = ["experiment", "h", "N", "error", "slope-so-far", "wall-ms"]
        return ok, f"{config.experiment} function={config.function}{extra}: {notes}", columns, report.rows()

    return driver


def _primary_slope_near_one(report) -> bool:
    slope = report.primary.slope
    return slope is not None and 0.8 <= slope <= 1.2


def _spectrum(config: RunConfig):
    (neg_lo, neg_hi), (pos_lo, pos_hi) = spectrum_bounds(DiracParams(config.m, config.h))

    def short(v):
        txt = f"{v + 0.0:.8f}".rstrip("0").rstrip(".")
        return txt if txt not in ("-0", "") else "0"

    text = f"[{short(neg_lo)}, {short(neg_hi)}] ∪ [{short(pos_lo)}, {short(pos_hi)}]"
    columns = ["m", "h", "lower-min", "lower-max", "upper-min", "upper-max"]
    row = dict(zip(columns, (config.m, config.h, neg_lo, neg_hi, pos_lo, pos_hi)))
    return True, f"spectrum m={_fmt(config.m)} h={_fmt(config.h)}: {text}", columns, [row]


def _omega_scan(config: RunConfig):
    n = config.grid
    axis = -np.pi + 2 * np.pi * np.arange(n) / n
    t1, t2 = np.meshgrid(axis, axis, indexing="ij")
    values = omega(np.stack([t1, t2], axis=-1))
    rows = [
        {"kind": "grid", "xi1": float(t1[i, j]), "xi2": float(t2[i, j]), "omega": float(values[i, j])}
        for i in range(n)
        for j in range(n)
    ]
    cps = critical_points()  # LatticeDiracError (exit 1) if a gradient or Hessian check fails
    for cp in cps:
        rows.append({"kind": cp.kind, "xi1": cp.location[0], "xi2": cp.location[1], "omega": cp.value})
    bounds_ok = bool(
        np.all(values >= -1e-13) and np.all(values <= 2 * (t1**2 + t2**2) + 1e-13)
    )
    summary = (f"omega-scan grid={n}: {len(cps)} critical points verified, "
               f"bounds {'hold' if bounds_ok else 'VIOLATED'}")
    return bounds_ok and len(cps) == 6, summary, ["kind", "xi1", "xi2", "omega"], rows


def _oracle_eigs(config: RunConfig):
    mesh = Mesh(2, config.h, config.N)
    params = DiracParams(config.m, config.h)
    eigs = np.sort(np.linalg.eigvalsh(dense_matrix(params, mesh)))
    lam = lambda_mh(FrequencyGrid(mesh).coords(), params).ravel()
    expected = np.sort(np.concatenate([lam, -lam]))
    deviation = np.abs(eigs - expected)
    rows = [
        {"index": i, "eig": float(eigs[i]), "expected": float(expected[i]), "deviation": float(deviation[i])}
        for i in range(eigs.size)
    ]
    worst = float(np.max(deviation))
    summary = f"oracle-eigs N={config.N} h={_fmt(config.h)} m={_fmt(config.m)}: max deviation {worst:.3e}"
    return worst < 1e-10, summary, ["index", "eig", "expected", "deviation"], rows


_SWEEP_FLAGS = ("function", "sweep", "box")
_RESOLVENT_FLAGS = _SWEEP_FLAGS + ("m", "z", "refine")

# subcommand -> (its flags after the shared ones, in --help order; defaults over RunConfig's; driver)
_EXPERIMENTS = {
    "omega-scan": (("grid",), {}, _omega_scan),
    "spectrum": (("m", "h"), {}, _spectrum),
    # the primary series of project is its sampling error
    "project": (_SWEEP_FLAGS, {"function": "gaussian2d"}, _sweep(exp_projection, _primary_slope_near_one)),
    "ft": (_SWEEP_FLAGS + ("s",), {"function": "gaussian1d", "box": 25.6}, _sweep(exp_ft)),
    "ift": (_SWEEP_FLAGS, {"function": "freqbump1d"}, _sweep(exp_ift, _primary_slope_near_one)),
    # the free reference holds exact cell averages at any refine; refine 1 is the cheapest
    "resolve-free": (_RESOLVENT_FLAGS, {"function": "gaussian-spinor", "refine": 1},
                     _sweep(exp_resolvent_free, _primary_slope_near_one)),
    "resolve-potential": (_RESOLVENT_FLAGS + ("potential",),
                          {"function": "gaussian-spinor", "potential": "hermitian-gaussian"},
                          _sweep(exp_resolvent_potential)),
    "oracle-eigs": (("N", "h", "m"), {}, _oracle_eigs),
}


def run(config: RunConfig) -> int:
    """Execute one experiment; returns 0 on pass, 2 on assertion failure."""
    config.validate()
    saved = os.environ.get("LATTICE_DIRAC_THREADS")
    if config.threads is not None:
        os.environ["LATTICE_DIRAC_THREADS"] = str(config.threads)
    try:
        thread_cap(1)  # a malformed LATTICE_DIRAC_THREADS fails here, before any work
        ok, summary, columns, rows = _EXPERIMENTS[config.experiment][2](config)
    finally:  # --threads holds for this run only
        if saved is None:
            os.environ.pop("LATTICE_DIRAC_THREADS", None)
        else:
            os.environ["LATTICE_DIRAC_THREADS"] = saved
    _emit_report(config, columns, rows)
    print(f"{summary}  {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 2


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
