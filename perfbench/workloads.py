"""The benchmark's workloads: the CLI commands one sweep runs, per seed.

Seed 0 is the plain CLI configuration of each workload.  Other seeds redraw
the physical inputs from a fixed grid inside the ranges below, so every
configuration a seed can produce has recorded reference error columns
(``refs.json``).  ``smoke=True`` shrinks the meshes for a quick check of the
harness itself; its references are recorded as well.
"""

from __future__ import annotations

import random

MASSES = (0.5, 0.75, 1.0, 1.25, 1.5)

POTENTIAL = ["resolve-potential", "--potential", "nonhermitian-gaussian"]

# (Im z at seed 0, Im z grid, --refine, smoke --refine); the grids keep the
# contraction sup||V||/|Im z| on the policy's side of 0.9 and |Im z| above
# the skew bound 1.
_POTENTIAL_SHAPES = {
    "potential-neumann": (3.0, (2.5, 2.75, 3.0, 3.25, 3.5), None),
    "potential-krylov": (1.2, (1.15, 1.175, 1.2, 1.225, 1.25), "4"),
}

SMOKE_POTENTIAL = ["--sweep", "0.8,0.4,0.2", "--refine", "2"]

QUAD_FUNCTIONS = ("gaussian2d", "modwave2d")
QUAD_SWEEP = "0.4,0.2,0.1,0.05,0.025"
SMOKE_QUAD_SWEEP = "0.8,0.4,0.2"

NAMES = ("potential-neumann", "potential-krylov", "quadrature")


def _z(imag: float) -> str:
    return f"{imag:g}i"


def _potential_argv(name: str, drawn, smoke: bool) -> list[str]:
    """argv for ``name``; ``drawn`` is ``(m, Im z)`` or None for the seed-0 form."""
    imz0, _, refine = _POTENTIAL_SHAPES[name]
    argv = list(POTENTIAL)
    if drawn is None:
        argv += ["--z", _z(imz0)]
    else:
        argv += ["--m", f"{drawn[0]:g}", "--z", _z(drawn[1])]
    if smoke:
        argv += SMOKE_POTENTIAL
    elif refine is not None:
        argv += ["--refine", refine]
    return argv


def _potential(name: str, seed: int, smoke: bool) -> list[list[str]]:
    drawn = None
    if seed != 0:
        rng = random.Random(seed)
        drawn = (rng.choice(MASSES), rng.choice(_POTENTIAL_SHAPES[name][1]))
    return [_potential_argv(name, drawn, smoke)]


def _quadrature(smoke: bool) -> list[list[str]]:
    commands = []
    for fn in QUAD_FUNCTIONS:
        if smoke:
            commands.append(["project", "--function", fn, "--sweep", SMOKE_QUAD_SWEEP])
            commands.append(["ft", "--function", fn, "--box", "9.6", "--sweep", SMOKE_QUAD_SWEEP])
        else:
            commands.append(["project", "--function", fn, "--sweep", QUAD_SWEEP])
            commands.append(["ft", "--function", fn, "--box", "9.6"])
    return commands


def commands(name: str, seed: int, smoke: bool = False) -> list[list[str]]:
    """CLI argv lists (without ``--out``) that one sweep of ``name`` runs, in order."""
    if name in _POTENTIAL_SHAPES:
        return _potential(name, seed, smoke)
    if name == "quadrature":
        return _quadrature(smoke)
    raise KeyError(f"unknown workload {name!r}; known: {', '.join(NAMES)}")


def all_configurations(smoke: bool) -> list[list[str]]:
    """Every distinct argv any seed can produce, seed-0 forms included."""
    out = []
    for name, (_, imz_grid, _) in _POTENTIAL_SHAPES.items():
        out.append(_potential_argv(name, None, smoke))
        out += [_potential_argv(name, (m, imz), smoke) for m in MASSES for imz in imz_grid]
    return out + _quadrature(smoke)


def key(argv: list[str]) -> str:
    return " ".join(argv)
