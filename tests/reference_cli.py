"""Reference command line parser: the argparse tree `nlo.cli` replaced.

`nlo.cli` reads its flags from one table with a single walk over argv.
This module keeps the argparse parser it replaced, built as before, so
the tests can hold the two to the same refusals and the same values.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache

from nlo import cli
from nlo.cli import (
    _SWEEP_FIELDS,
    COMMUTATION_MAX_COSETS,
    DEFAULT_MAX_COSETS,
    EXIT_USAGE,
    SLOPE_HELP,
    _cmd_alexander,
    _cmd_certify,
    _cmd_commutation,
    _cmd_homology,
    _cmd_order,
    _cmd_present,
    _cmd_surgery,
    _cmd_sweep,
    _cmd_verify,
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _add_param_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--p", type=int, required=True)
    sub.add_argument("--k", type=int, required=True)
    sub.add_argument("--sign", type=int, required=True, choices=(-1, 1))
    sub.add_argument("--ell", type=int, required=True)
    sub.add_argument("--m", type=int, required=True)


def _add_format_flag(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--format", choices=("json", "text"), default="json")


@cache
def build_parser() -> _Parser:
    """The argument parser, built once per process; parsing leaves it unchanged."""
    parser = _Parser(prog="nlo", description=cli.__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    for name, fn in (
        ("present", _cmd_present),
        ("certify", _cmd_certify),
        ("surgery", _cmd_surgery),
        ("homology", _cmd_homology),
        ("alexander", _cmd_alexander),
        ("order", _cmd_order),
        ("commutation", _cmd_commutation),
    ):
        cmd = sub.add_parser(name)
        cmd.set_defaults(fn=fn)
        _add_param_flags(cmd)
        _add_format_flag(cmd)

    sub.choices["surgery"].add_argument("--slope", required=True, help=SLOPE_HELP)
    sub.choices["homology"].add_argument("--slope", help=SLOPE_HELP)
    sub.choices["order"].add_argument("--slope", help=SLOPE_HELP)
    sub.choices["order"].add_argument("--subgroup", action="append", default=[])
    for name, cap in (("order", DEFAULT_MAX_COSETS), ("commutation", COMMUTATION_MAX_COSETS)):
        sub.choices[name].add_argument("--max-cosets", type=int, default=cap)

    verify = sub.add_parser("verify")
    verify.set_defaults(fn=_cmd_verify)
    verify.add_argument("--certificate", required=True)
    _add_format_flag(verify)

    swp = sub.add_parser("sweep")
    swp.set_defaults(fn=_cmd_sweep)
    for name in _SWEEP_FIELDS:
        swp.add_argument("--" + name.replace("_", "-"))
    swp.add_argument("--output")
    _add_format_flag(swp)
    return parser


def parse(argv: list[str]) -> dict | int:
    """The fields argparse reads from ``argv``, the command and handler
    as ``fn``; or the exit code it stops with."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code
    fields = vars(args)
    del fields["command"]
    return fields
