#!/usr/bin/env python3
"""Strong resolvent convergence toward the continuum operator.

For a fixed test spinor the discrete resolvent applied to its projection is
compared against a continuum-resolvent surrogate computed pseudo-spectrally
on an eightfold-refined grid.  The error decreases with the mesh size, both
without a potential and with bounded Hermitian or complex matrix potentials
(inside the strip |Im z| > sup ||skew part||).  No rate is asserted: the
statement is per-vector convergence, and the observed slope is reported as
an empirical finding.
"""

from latticedirac import Sweep, exp_resolvent_free, exp_resolvent_potential
from latticedirac.lab import weighted_operator_gap_probe


def show(rep):
    print("      h        error      wall-ms")
    for h, e, w in zip(rep.hs, rep.primary.errors, rep.wall_ms):
        print(f"   {h:5.2f}   {e:10.6f}   {w:8.1f}")
    print(f"  strictly decreasing: {rep.primary.monotone}; observed slope {rep.primary.slope:.3f}")


def main():
    print("== free operator, Gaussian spinor, m=1, z=2i ==")
    rep = exp_resolvent_free(
        Sweep(hs=(0.4, 0.2, 0.1, 0.05), box=9.6, function="gaussian-spinor", m=1.0, z=2j)
    )
    show(rep)

    print("\n== Hermitian Gaussian-enveloped potential, z=2i ==")
    rep = exp_resolvent_potential(
        Sweep(hs=(0.4, 0.2, 0.1), box=9.6, function="gaussian-spinor", m=1.0, z=2j,
              potential="hermitian-gaussian")
    )
    show(rep)

    print("\n== complex potential with unit skew bound, z=3i ==")
    rep = exp_resolvent_potential(
        Sweep(hs=(0.4, 0.2, 0.1), box=9.6, function="gaussian-spinor", m=1.0, z=3j,
              potential="nonhermitian-gaussian")
    )
    show(rep)

    print("\n== weighted-space operator-norm gap (diagnostic only) ==")
    for s in (0.0, 1.0):
        for h in (0.4, 0.2, 0.1):
            val = weighted_operator_gap_probe(1.0, 2j, s, h, 9.6)
            print(f"   s={s:.0f}, h={h:4.2f}: max over the dual grid {val:.6f}")
    print("  exact sup of ||R_disc(xi) - R_cont(xi)|| <xi>^-s; at s=0 it stays near the")
    print("  doubler value |m+z|/|m^2-z^2| = 0.447 at every h (fermion doubling), so the")
    print("  convergence is strong, not in norm.  Reported, not gated.")


if __name__ == "__main__":
    main()
