"""The narrative scripts in ``demos/`` run to completion with warnings as errors."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("demo", [
    "01_step_embedding", "02_fourier_calculus", "03_dispersion_spectrum", "04_continuum_limit",
])
def test_demo_runs_without_warnings(demo):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-W", "error", str(ROOT / "demos" / f"{demo}.py")],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
