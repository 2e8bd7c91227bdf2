"""Tests for the command-line front end: parsing, dispatch, emission, exit codes."""

import csv
import json
import os
import re
import subprocess
import sys
import threading
from dataclasses import fields, replace

import numpy as np
import pytest

from latticedirac import Sweep, cli
from latticedirac.cli import RunConfig, config_from_argv, format_complex, main, parse_complex
from latticedirac.errors import ConfigError
from latticedirac.grid import function_catalog
from latticedirac.lab import exp_ft, exp_resolvent_free, exp_resolvent_potential

from conftest import spy_fft


# ---------------------------------------------------------------------------
# complex literals


@pytest.mark.parametrize("text,expected", [
    ("2i", 2j),
    ("3+4i", 3 + 4j),
    ("3-4i", 3 - 4j),
    ("-1.5-2e-3i", -1.5 - 2e-3j),
    ("1e-3i", 1e-3j),
    ("2+1e-3i", 2 + 1e-3j),
    ("5", 5 + 0j),
    ("-0.25", -0.25 + 0j),
    ("i", 1j),
    ("-i", -1j),
])
def test_parse_complex(text, expected):
    assert parse_complex(text) == expected


@pytest.mark.parametrize("bad", ["", "xi", "1+2j", "2ii", "2J", "(2i)", "1+2J"])
def test_parse_complex_rejects(bad):
    with pytest.raises(ConfigError):
        parse_complex(bad)


def test_format_complex_round_trips():
    for z in (2j, 3 - 4j, -0.125 + 0.75j, 1.0 + 0j):
        assert parse_complex(format_complex(z)) == z


# ---------------------------------------------------------------------------
# config handling


def test_unknown_flag_is_an_error(capsys):
    assert main(["spectrum", "--badflag", "2"]) == 1
    assert "error" in capsys.readouterr().err


def test_unknown_function_id_is_an_error(capsys):
    assert main(["project", "--function", "nope"]) == 1


def test_unknown_experiment_is_an_error():
    with pytest.raises(ConfigError):
        config_from_argv(["not-an-experiment"])


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"m": 2.0, "h": 0.5, "format": "json"}))
    config = config_from_argv(["spectrum", "--config", str(cfg), "--m", "3.0"])
    assert config.m == 3.0  # flag wins
    assert config.h == 0.5  # file survives
    assert config.format == "json"


def test_run_config_defaults_are_the_sweep_defaults():
    config, sweep = RunConfig("project"), Sweep()
    shared = {f.name for f in fields(RunConfig)} & {f.name for f in fields(Sweep)}
    assert shared == {"hs", "box", "function", "m", "z", "potential", "s", "refine"}
    for name in shared:
        assert getattr(config, name) == getattr(sweep, name), name


def test_config_file_unknown_field_rejected(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"mystery": 1}))
    with pytest.raises(ConfigError):
        config_from_argv(["spectrum", "--config", str(cfg)])


@pytest.mark.parametrize("content", [{"box": "9.6"}, {"refine": "2"}, {"m": None}])
def test_config_file_value_of_wrong_type_is_a_config_error(content, tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(content))
    assert main(["project", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    (field,) = content
    assert err.startswith("error: config file field ") and repr(field) in err


@pytest.mark.parametrize("content", [{"experiment": "ft"}, {"hs": [0.4, 0.2, 0.1]}])
def test_config_file_keys_are_the_flags(content, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(content))
    with pytest.raises(ConfigError, match="unknown config file fields"):
        config_from_argv(["project", "--config", str(cfg)])


def test_config_file_accepts_every_json_form_of_its_fields(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"sweep": [0.4, 0.2], "box": 10, "m": 0.5, "z": "1+2i",
                               "potential": None, "refine": 2, "out": None}))
    config = config_from_argv(["resolve-free", "--config", str(cfg)])
    assert (config.hs, config.box, config.z, config.refine) == ((0.4, 0.2), 10, 1 + 2j, 2)


def test_config_validation_rejects_bad_values():
    with pytest.raises(ConfigError):
        config_from_argv(["spectrum", "--h", "-1.0"])
    with pytest.raises(ConfigError):
        config_from_argv(["oracle-eigs", "--N", "7"])
    with pytest.raises(ConfigError):
        config_from_argv(["resolve-free", "--z", "3"])  # real shift
    with pytest.raises(ConfigError):
        config_from_argv(["ft", "--sweep", "0.4,banana"])


@pytest.mark.parametrize("argv, content", [
    (["spectrum", "--m", "nan", "--h", "1"], None),
    (["project"], {"box": float("nan")}),
    (["project"], {"h": float("inf")}),
])
def test_non_finite_numbers_are_config_errors(argv, content, tmp_path, capsys):
    if content is not None:
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(content))  # Python's json writes NaN and Infinity
        argv = argv + ["--config", str(cfg)]
    assert main(argv) == 1
    assert "must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["omega-scan", "--grid", "1"], "grid must be at least 2, got 1"),
    (["resolve-free", "--refine", "0"], "refine must be at least 1, got 0"),
])
def test_each_count_flag_states_its_own_rule(argv, message, capsys):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert message in err
    assert ("refine" in err) != ("grid" in err)  # names only the flag at fault


# ---------------------------------------------------------------------------
# experiment runs


def test_spectrum_prints_closed_form_intervals(capsys):
    assert main(["spectrum", "--m", "0", "--h", "1"]) == 0
    out = capsys.readouterr().out
    assert "[-3.41421356, 0] ∪ [0, 3.41421356]" in out
    assert "PASS" in out


def test_spectrum_with_mass(capsys):
    assert main(["spectrum", "--m", "1", "--h", "1"]) == 0
    out = capsys.readouterr().out
    assert "[-3.55764729, -1] ∪ [1, 3.55764729]" in out


def test_omega_scan_emits_critical_points(tmp_path, capsys):
    out = tmp_path / "omega.csv"
    assert main(["omega-scan", "--grid", "32", "--out", str(out)]) == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 32 * 32 + 6
    kinds = [r["kind"] for r in rows[-6:]]
    assert kinds == ["min", "min", "max", "saddle", "saddle", "saddle"]
    assert abs(float(rows[-4]["omega"]) - (6 + 4 * np.sqrt(2))) < 1e-12


def test_omega_scan_exits_1_when_a_declared_point_is_not_critical(monkeypatch, capsys):
    from latticedirac import symbols

    monkeypatch.setattr(symbols, "_CRITICAL_LOCATIONS",
                        symbols._CRITICAL_LOCATIONS + (((0.3, 0.1), "min"),))
    assert main(["omega-scan", "--grid", "8"]) == 1
    assert "at declared critical point (0.3, 0.1)" in capsys.readouterr().err


def test_oracle_eigs_passes(tmp_path):
    out = tmp_path / "eigs.csv"
    assert main(["oracle-eigs", "--N", "8", "--h", "0.5", "--m", "1", "--out", str(out)]) == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2 * 8 * 8
    assert max(float(r["deviation"]) for r in rows) < 1e-10


def test_ift_csv_is_deterministic_outside_wall_time(tmp_path):
    args = ["ift", "--sweep", "0.4,0.2,0.1", "--out", None]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (out1, out2):
        args[-1] = str(out)
        assert main(list(args)) == 0

    def strip_wall(path):
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["experiment", "h", "N", "error", "slope-so-far", "wall-ms"]
        return [row[:-1] for row in rows]

    assert strip_wall(out1) == strip_wall(out2)


def test_ift_json_schema(tmp_path):
    out = tmp_path / "ift.json"
    assert main(["ift", "--sweep", "0.4,0.2,0.1", "--out", str(out), "--format", "json"]) == 0
    payload = json.loads(out.read_text())
    assert payload["schema-version"] == "1"
    assert payload["columns"][0] == "experiment"
    assert len(payload["rows"]) == 3
    assert payload["rows"][0]["N"] == 24


def test_ft_pass(capsys):
    assert main(["ft", "--sweep", "0.4,0.2,0.1"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_project_seeded_by_config_file(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"sweep": "0.4,0.2,0.1", "function": "gaussian1d"}))
    assert main(["project", "--config", str(cfg)]) == 0
    assert "PASS" in capsys.readouterr().out


def test_import_and_config_error_load_no_scipy():
    # the library uses no scipy: a config error, a free run, a projection, a transform sweep,
    # and Neumann and GMRES reference solves run on numpy alone
    runs = [
        ["resolve-free", "--sweep", "0.8,0.4,0.2"],
        ["project", "--sweep", "0.4,0.2,0.1"],
        ["ft", "--sweep", "0.4,0.2,0.1"],
        ["resolve-potential", "--sweep", "0.8,0.4,0.2", "--refine", "2", "--z", "3i"],
        ["resolve-potential", "--sweep", "0.8,0.4,0.2", "--refine", "2", "--z", "1.2i"],
    ]
    code = (
        "import sys\n"
        "import latticedirac.cli as cli\n"
        "assert cli.main(['resolve-free', '--sweep', '0.4,0.2,0.1', '--m', '-1']) == 1\n"
        f"for argv in {runs!r}:\n"
        "    assert cli.main(argv) == 0, argv\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "mass must be nonnegative" in proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_library_source_imports_no_scipy():
    # scipy is a test extra only, so no module of the library may import it, even lazily
    package = os.path.dirname(cli.__file__)
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as fh:
                text = fh.read()
            assert not re.search(r"^\s*(import|from)\s+scipy\b", text, re.MULTILINE), name


def test_ft_sweep_loads_no_scipy_integrate():
    # the transform tail is a fixed Gauss rule on arrays of nodes, so no adaptive quadrature is imported
    code = (
        "import sys\n"
        "import latticedirac.cli as cli\n"
        "assert cli.main(['ft', '--function', 'modwave2d', '--sweep', '0.8,0.4,0.2']) == 0\n"
        "print('scipy.integrate' in sys.modules)\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


def test_import_loads_no_thread_pool():
    # every transform is numpy's, on the calling thread, so nothing imports concurrent.futures
    code = (
        "import sys\n"
        "import latticedirac.cli\n"
        "print('concurrent.futures' in sys.modules)\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


def test_every_transform_runs_on_the_calling_thread(tmp_path, monkeypatch):
    # every transform is a numpy.fft.fft/ifft call on the calling thread, scipy.fft is never
    # imported, and no thread count in the environment is read
    monkeypatch.setitem(sys.modules, "scipy.fft", None)  # an import of scipy.fft raises from here on
    calls = spy_fft(monkeypatch, record=lambda x: (x.shape, threading.get_ident()), names=("fft", "ifft"))
    smoke = {"hs": (0.8, 0.4, 0.2), "box": 9.6, "function": "gaussian-spinor", "refine": 2}
    for z in (3j, 1.2j):  # Neumann, then Krylov
        exp_resolvent_potential(Sweep(z=z, potential="nonhermitian-gaussian", **smoke))
    exp_resolvent_free(Sweep(**smoke))
    # without factors the transform of exp_ft is the 2D dft of the padded (4N, 4N, 1) sample
    exp_ft(Sweep(hs=(0.4, 0.2, 0.1), box=9.6, function=replace(function_catalog("gaussian2d"), factors=None)))
    assert calls.count(((384, 384, 1), threading.get_ident())) == 2
    assert {thread for _, thread in calls} == {threading.get_ident()}

    argv = ["resolve-potential", "--sweep", "0.8,0.4,0.2", "--refine", "2", "--out", None]
    tables = []
    for value in (None, "abc"):
        if value is None:
            monkeypatch.delenv("LATTICE_DIRAC_THREADS", raising=False)
        else:
            monkeypatch.setenv("LATTICE_DIRAC_THREADS", value)
        argv[-1] = str(tmp_path / f"{value}.csv")
        assert main(list(argv)) == 0
        with open(argv[-1]) as fh:
            tables.append([row[:-1] for row in csv.reader(fh)])  # all but wall-ms
    assert tables[0] == tables[1]


# a quick run of each experiment that passes
_SMOKE_ARGV = {
    "omega-scan": [],
    "spectrum": [],
    "project": ["--sweep", "0.4,0.2,0.1"],
    "ft": ["--sweep", "0.4,0.2,0.1"],
    "ift": ["--sweep", "0.4,0.2,0.1"],
    "resolve-free": ["--sweep", "0.8,0.4,0.2"],
    "resolve-potential": ["--sweep", "0.8,0.4,0.2", "--refine", "2"],
    "oracle-eigs": [],
}


def _csv_without_wall_time(path):
    with open(path) as fh:
        rows = list(csv.reader(fh))
    keep = [i for i, name in enumerate(rows[0]) if name != "wall-ms"]
    return [[row[i] for i in keep] for row in rows]


def test_smoke_runs_cover_every_experiment():
    assert list(_SMOKE_ARGV) == list(cli._EXPERIMENTS)


@pytest.mark.parametrize("experiment", list(_SMOKE_ARGV))
def test_each_experiment_ignores_a_thread_count_in_the_environment(experiment, tmp_path, monkeypatch):
    # the library reads no environment variable and writes none
    tables = []
    for value in (None, "abc"):
        if value is None:
            monkeypatch.delenv("LATTICE_DIRAC_THREADS", raising=False)
        else:
            monkeypatch.setenv("LATTICE_DIRAC_THREADS", value)
        before = dict(os.environ)
        out = tmp_path / f"{value}.csv"
        assert main([experiment, *_SMOKE_ARGV[experiment], "--out", str(out)]) == 0
        assert dict(os.environ) == before
        tables.append(_csv_without_wall_time(out))
    assert len(tables[0]) > 1
    assert tables[0] == tables[1]


@pytest.mark.parametrize("experiment", list(_SMOKE_ARGV))
def test_threads_flag_is_unrecognized(experiment, capsys):
    assert main([experiment, "--threads", "1"]) == 1
    assert "unrecognized arguments: --threads 1" in capsys.readouterr().err


def test_threads_is_no_config_field(tmp_path):
    assert "threads" not in {f.name for f in fields(RunConfig)}
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"threads": 1}))
    with pytest.raises(ConfigError, match="unknown config file fields.*'threads'"):
        config_from_argv(["project", "--config", str(cfg)])


def test_resolvent_region_violation_is_an_error(capsys):
    code = main(["resolve-potential", "--sweep", "0.4,0.2", "--z", "0.5i",
                 "--potential", "nonhermitian-gaussian"])
    assert code == 1
    assert "NotInResolventRegion" in capsys.readouterr().err


@pytest.mark.parametrize("function", ["gaussian2d", "modwave2d", "freqbump2d"])
def test_one_channel_function_is_a_resolvent_sweep_error(function, capsys):
    code = main(["resolve-potential", "--function", function,
                 "--potential", "nonhermitian-gaussian", "--z", "3i"])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: MeshMismatch: ")


def test_resolvent_gate_failure_exits_two(capsys):
    # two levels only: no rate can be fitted, so the slope gate fails
    code = main(["resolve-free", "--sweep", "0.4,0.2", "--refine", "4"])
    assert code == 2
    assert "FAIL" in capsys.readouterr().out


def test_resolve_free_defaults_to_refine_1_and_matches_refine_8(tmp_path):
    assert config_from_argv(["resolve-free"]).refine == 1
    assert config_from_argv(["resolve-potential"]).refine == 8
    codes, columns = [], []
    for extra in ([], ["--refine", "8"]):
        out = tmp_path / "free.csv"
        codes.append(main(["resolve-free", "--sweep", "0.4,0.2,0.1", "--out", str(out)] + extra))
        with open(out, newline="", encoding="utf-8") as fh:
            columns.append([float(row["error"]) for row in csv.DictReader(fh)])
    assert codes == [0, 0]  # first order on three levels (slope 0.988) passes the slope gate at either refine
    np.testing.assert_allclose(columns[0], columns[1], rtol=1e-14, atol=0)


def test_resolve_free_dyadic_passes(tmp_path, capsys):
    out = tmp_path / "free.csv"
    code = main(["resolve-free", "--sweep", "dyadic", "--z", "2i", "--m", "1",
                 "--out", str(out)])
    assert code == 0
    assert "PASS" in capsys.readouterr().out
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    errs = [float(r["error"]) for r in rows]
    assert len(errs) == 4
    assert all(b < a for a, b in zip(errs, errs[1:]))


# ---------------------------------------------------------------------------
# flags that start with '-', the experiment table and its documentation


def test_negative_values_follow_their_flags(capsys):
    assert config_from_argv(["resolve-free", "--z", "-2i"]).z == -2j
    assert main(["spectrum", "--m", "-inf"]) == 1
    assert "m must be finite" in capsys.readouterr().err
    assert main(["spectrum", "--m", "-1"]) == 1
    assert "mass must be nonnegative" in capsys.readouterr().err


# each experiment's flags after --config, --out and --format, in --help order
_EXPECTED_FLAGS = {
    "omega-scan": ("grid",),
    "spectrum": ("m", "h"),
    "project": ("function", "sweep", "box"),
    "ft": ("function", "sweep", "box", "s"),
    "ift": ("function", "sweep", "box"),
    "resolve-free": ("function", "sweep", "box", "m", "z", "refine"),
    "resolve-potential": ("function", "sweep", "box", "m", "z", "refine", "potential"),
    "oracle-eigs": ("N", "h", "m"),
}
_SHARED = ("config", "out", "format")
# a valid value for each flag and the RunConfig field and value it sets
_FLAG_VALUES = {
    "config": ("{}", None, None), "out": ("o.csv", "out", None), "format": ("json", "format", "json"),
    "grid": ("16", "grid", 16), "m": ("0.5", "m", 0.5),
    "h": ("0.5", "h", 0.5), "N": ("8", "N", 8), "function": ("gaussian2d", "function", "gaussian2d"),
    "sweep": ("0.4,0.2", "hs", (0.4, 0.2)), "box": ("9.6", "box", 9.6), "s": ("2", "s", 2.0),
    "z": ("3i", "z", 3j), "refine": ("2", "refine", 2), "potential": ("zero", "potential", "zero"),
}


@pytest.mark.parametrize("experiment", sorted(_EXPECTED_FLAGS))
def test_each_experiment_takes_exactly_its_flags(experiment, tmp_path):
    (tmp_path / "{}").write_text("{}")
    for flag, (value, field, expected) in _FLAG_VALUES.items():
        argv = [experiment, f"--{flag}", str(tmp_path / value) if flag in ("config", "out") else value]
        own = _SHARED + _EXPECTED_FLAGS[experiment]
        if flag in own:
            config = config_from_argv(argv)
            if field is not None:
                assert getattr(config, field) == (argv[-1] if expected is None else expected), flag
        elif not any(name.startswith(flag) for name in own + ("help",)):  # argparse expands prefixes
            with pytest.raises(ConfigError, match="unrecognized arguments"):
                config_from_argv(argv)


@pytest.mark.parametrize("experiment", sorted(_EXPECTED_FLAGS))
def test_each_experiment_help_lists_its_flags_in_order(experiment, capsys):
    with pytest.raises(SystemExit) as exc:
        config_from_argv([experiment, "--help"])
    assert exc.value.code == 0
    listed = re.findall(r"^  --(\w+)", capsys.readouterr().out, flags=re.M)
    assert tuple(listed) == _SHARED + _EXPECTED_FLAGS[experiment]


def test_readme_names_every_subcommand():
    readme = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")
    with open(readme, encoding="utf-8") as fh:
        text = fh.read()
    line = re.search(r"^Subcommands:(.*?)\.(\s|$)", text, flags=re.M | re.S).group(1)
    assert re.findall(r"`([\w-]+)`", line) == list(cli._EXPERIMENTS)


@pytest.mark.parametrize("argv", [
    ["project", "--s", "1"],  # not a prefix of --sweep
    ["project", "--h", "0.5"],  # not a prefix of --help
    ["resolve-potential", "--pot", "zero"],
])
def test_flag_prefixes_are_not_expanded(argv):
    with pytest.raises(ConfigError, match="unrecognized arguments"):
        config_from_argv(argv)
