#!/usr/bin/env python3
"""Bounded search for a positive rewriting of the framing in the open
ell = 2, m = 1, p >= 5 case.

No certified construction covers these parameters.  This script explores
whether a short sequence of relator applications turns the framing word
into something whose x,y image is positive with at least one x.  Finding
one would only be a lead to check by hand; finding none proves nothing.
"""

import argparse

from nlo.certificates import xy_change
from nlo.families import FamilyParams, build
from nlo.words import format_word, is_positive, substitute
from rewrite_search import SearchCapExceeded, find_relation_applications


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--p", type=int, default=5)
    parser.add_argument("--k", type=int, default=1)
    parser.add_argument("--sign", type=int, default=-1, choices=(-1, 1))
    parser.add_argument("--max-steps", type=int, default=1)
    parser.add_argument("--node-cap", type=int, default=20000)
    args = parser.parse_args()

    params = FamilyParams(args.p, args.k, args.sign, 2, 1)
    kd = build(params)
    change = xy_change(params)
    print(f"searching from s = {format_word(kd.s)}")
    try:
        results = find_relation_applications(
            kd.s, kd.presentation.relators[0], args.max_steps, node_cap=args.node_cap
        )
    except SearchCapExceeded as exc:
        print(f"stopped: {exc}")
        return
    hits = 0
    for trace, word in results:
        image = substitute(word, change.forward)
        if is_positive(image) and "x" in image.generators():
            hits += 1
            print(f"candidate after {len(trace)} step(s): {format_word(image)}")
            if hits >= 5:
                break
    if hits == 0:
        print(f"no positive form within {args.max_steps} step(s) "
              f"({len(results)} words reached); nothing is claimed either way")


if __name__ == "__main__":
    main()
