#!/usr/bin/env python3
"""Count the lines of the nlo package that a passing ``nlo verify`` runs.

Certifies one instance of each certified sign and case, with the k = 1
step of each sign, then runs ``nlo verify --certificate -`` on each
certificate in process under ``sys.settrace``.  Every nlo module is
imported first, so no import-time line counts; rendering the verdict
does.  Prints the distinct source lines executed across the five runs,
per module and in total: the code a PASS verdict rests on.
"""

import argparse
import contextlib
import importlib
import io
import pkgutil
import sys
from collections import defaultdict
from pathlib import Path

import nlo
from nlo import cli

# (p, k, sign, ell, m): ell = p-1 and ell = p-2, m = 1 for each sign, and k = 1.
INSTANCES = [(3, 1, -1, 2, 1), (4, 2, -1, 3, 2), (5, 1, -1, 3, 1),
             (4, 2, 1, 3, 2), (5, 1, 1, 3, 1)]


def run(argv: list[str], stdin: str = "") -> tuple[int, str]:
    """The exit code and stdout of ``nlo argv`` run in process on ``stdin``."""
    out, saved = io.StringIO(), sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue()


def verify_lines() -> dict[str, set[int]]:
    """Each nlo module's source lines that verify executes on INSTANCES."""
    for info in pkgutil.iter_modules(nlo.__path__):
        if info.name != "__main__":
            importlib.import_module(f"nlo.{info.name}")
    root = str(Path(nlo.__file__).parent)
    lines = defaultdict(set)

    def trace(frame, event, arg):
        path = frame.f_code.co_filename
        if not path.startswith(root):
            return None
        seen = lines[Path(path).stem]

        def trace_lines(frame, event, arg):
            if event == "line":
                seen.add(frame.f_lineno)
            return trace_lines

        return trace_lines

    for params in INSTANCES:
        flags = [text for pair in zip(("--p", "--k", "--sign", "--ell", "--m"), params)
                 for text in map(str, pair)]
        code, document = run(["certify", *flags])
        if code != cli.EXIT_OK:
            raise SystemExit(f"certify exited {code} on {params}")
        previous = sys.gettrace()
        sys.settrace(trace)
        try:
            code, _ = run(["verify", "--certificate", "-"], document)
        finally:
            sys.settrace(previous)
        if code != cli.EXIT_OK:
            raise SystemExit(f"verify exited {code} on {params}")
    return lines


def main() -> None:
    argparse.ArgumentParser(description=__doc__).parse_args()
    lines = verify_lines()
    print(f"{'module':<14}{'lines':>6}")
    for name, seen in sorted(lines.items(), key=lambda item: (-len(item[1]), item[0])):
        print(f"{name:<14}{len(seen):>6}")
    print(f"{'total':<14}{sum(map(len, lines.values())):>6}")


if __name__ == "__main__":
    main()
