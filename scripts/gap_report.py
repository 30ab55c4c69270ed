#!/usr/bin/env python3
"""Tabulate the framing bound v = pq + ell^2 m against the genus-derived
L-space surgery threshold 2g - 1 over the certified grid.

The gap v - (2g - 1) measures how far the certified slope range sits above
the smallest slope that could possibly need covering; it is recorded
empirically, with no optimality claim.
"""

import argparse

from nlo.alexander import alexander_polynomial, genus
from nlo.families import build
from nlo.sweep import SweepSpec, grid_instances, parse_range


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    for flag in ("--p-range", "--k-range", "--m-range"):
        parser.add_argument(flag)
    args = parser.parse_args()

    # A range left out keeps SweepSpec's default.
    try:
        spec = SweepSpec(**{
            name: parse_range(text) for name, text in vars(args).items() if text is not None
        })
    except ValueError as exc:
        parser.error(str(exc))
    print(f"{'p':>3} {'k':>3} {'sign':>5} {'ell':>4} {'m':>3} "
          f"{'genus':>6} {'2g-1':>6} {'v':>7} {'gap':>6}")
    worst = None
    # Every certified instance is an L-space knot, so the genus is half
    # the breadth of its Alexander polynomial.
    for params in grid_instances(spec):
        g = genus(alexander_polynomial(build(params)))
        threshold = 2 * g - 1
        gap = params.v - threshold
        print(
            f"{params.p:>3} {params.k:>3} {params.sign:>+5d} {params.ell:>4} "
            f"{params.m:>3} {g:>6} {threshold:>6} {params.v:>7} {gap:>6}"
        )
        if worst is None or gap > worst[0]:
            worst = (gap, params)
    if worst:
        print(f"\nlargest gap {worst[0]} at {worst[1]}")


if __name__ == "__main__":
    main()
