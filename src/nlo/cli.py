"""Batch command line front end.

Subcommands: present, certify, verify, surgery, homology, alexander,
order, commutation, sweep.  Flags are long-form only.  Output is a
deterministic document whose header (tool name/version, schema version)
is separate from the content, so content hashes are stable across runs.

Exit codes: 0 success, 1 domain error, 2 verification failure, 64 usage.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from functools import cache

from . import __version__
from .alexander import alexander_polynomial, lspace_surgery_threshold, polynomial_text
from .certificates import VerificationReport, certify, verify_certificate
from .cosets import (
    COMMUTATION_MAX_COSETS,
    DEFAULT_MAX_COSETS,
    check_peripheral_commutation,
    todd_coxeter,
)
from .families import (
    FamilyParams,
    KnotData,
    Slope,
    build,
    lspace_case,
    surgery_presentation,
)
from .homology import h1, surgery_h1
from .serialize import (
    SCHEMA_VERSION,
    certificate_from_doc,
    certificate_to_doc,
    knot_data_to_doc,
    presentation_to_doc,
    verification_to_doc,
)
from .sweep import ALL_CASES, SweepSpec, parse_range, parse_signs, run_sweep
from .words import parse_word

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_VERIFY = 2
EXIT_USAGE = 64

# argparse takes a separate value that starts with "-" for a flag.
SLOPE_HELP = "p'/q' or p'; give a negative slope as --slope=-1/1, not --slope -1/1"

# Certificate documents nest about 5 levels; json recurses once per level.
MAX_JSON_DEPTH = 16
# A string (closed or running to the end of the text) or a bracket.
_JSON_TOKEN = re.compile(r'"[^"\\]*(?:\\.[^"\\]*)*"?|[][{}]')


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


def _knot(args) -> KnotData:
    return build(FamilyParams(p=args.p, k=args.k, sign=args.sign, ell=args.ell, m=args.m))


def _emit(args, content: dict, text_lines: list[str]) -> None:
    if args.format == "json":
        doc = {
            "header": {
                "tool": "nlo",
                "tool_version": __version__,
                "schema_version": SCHEMA_VERSION,
            },
            "content": content,
        }
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _cmd_present(args) -> int:
    kd = _knot(args)
    doc = knot_data_to_doc(kd)
    lines = [
        f"T(p={args.p}, q={kd.params.q}; ell={args.ell}, m={args.m})   sign={args.sign:+d}",
        f"relator: {doc['presentation']['relators'][0]}",
        f"mu: {doc['mu']}",
        f"s: {doc['s']}",
        f"v: {doc['v']}",
        f"lspace: {doc['lspace']['is_lspace_knot']} ({doc['lspace']['case']})",
    ]
    lines.extend(f"note: {n}" for n in doc["notes"])
    _emit(args, doc, lines)
    return EXIT_OK


def _cmd_certify(args) -> int:
    kd = _knot(args)
    cert = certify(kd)
    report = verify_certificate(kd, cert)
    content = {
        "certificate": certificate_to_doc(cert),
        "bound": f"r >= {cert.v}",
        "verification": verification_to_doc(report),
    }
    lines = [
        f"case: {cert.case}",
        f"positive_s: {content['certificate']['positive_s']}",
        f"trace length: {len(cert.trace)}",
        f"bound: r >= {cert.v}",
        f"verdict: {report}",
    ]
    _emit(args, content, lines)
    return EXIT_OK if report.passed else EXIT_VERIFY


def _load_json(text: str):
    """Decode ``text`` after one linear pass has bounded its nesting."""
    depth = 0
    for token in _JSON_TOKEN.finditer(text):
        bracket = token.group()
        if bracket in ("[", "{"):
            depth += 1
            if depth > MAX_JSON_DEPTH:
                raise ValueError(f"document nests deeper than {MAX_JSON_DEPTH} levels")
        elif bracket in ("]", "}"):
            depth -= 1
    return json.loads(text)


def _cmd_verify(args) -> int:
    # A file that cannot be opened is a domain error (OSError, exit 1);
    # input that is not JSON, or names parameters that cannot be built,
    # fails verification like any other bad document.
    try:
        if args.certificate == "-":
            doc = _load_json(sys.stdin.read())
        else:
            with open(args.certificate) as handle:
                doc = _load_json(handle.read())
        content = doc.get("content") if isinstance(doc, dict) else None
        if isinstance(content, dict) and "certificate" in content:
            doc = content["certificate"]
        cert = certificate_from_doc(doc)
        kd = build(cert.params)
    except ValueError as exc:
        report = VerificationReport(False, (str(exc),))
    else:
        report = verify_certificate(kd, cert)
    _emit(args, verification_to_doc(report), [f"verdict: {report}"])
    return EXIT_OK if report.passed else EXIT_VERIFY


def _cmd_surgery(args) -> int:
    kd = _knot(args)
    slope = Slope.parse(args.slope)
    pres = surgery_presentation(kd, slope)
    doc = {
        "slope": str(slope),
        "presentation": presentation_to_doc(pres, kd),
    }
    lines = [f"slope: {slope}"] + [
        f"relator: {r}" for r in doc["presentation"]["relators"]
    ]
    _emit(args, doc, lines)
    return EXIT_OK


def _cmd_homology(args) -> int:
    kd = _knot(args)
    if args.slope is None:
        group = h1(kd.presentation)
    else:
        group = surgery_h1(kd, Slope.parse(args.slope))
    content = {
        "invariant_factors": list(group.invariant_factors),
        "free_rank": group.free_rank,
        "order": group.order(),
        "description": str(group),
    }
    _emit(args, content, [f"H1: {group}", f"order: {group.order()}"])
    return EXIT_OK


def _cmd_alexander(args) -> int:
    kd = _knot(args)
    delta = alexander_polynomial(kd)
    text = polynomial_text(delta)
    content = {"polynomial": text, "degree": len(delta) - 1, "v": kd.params.v}
    lines = [f"alexander: {text}"]
    if lspace_case(kd.params) is not None:
        report = lspace_surgery_threshold(kd, delta)
        content.update(
            {"genus": report.genus, "lspace_threshold": report.threshold}
        )
        lines.append(f"genus: {report.genus}")
        lines.append(f"lspace threshold: {report.threshold}   v: {report.v}")
    _emit(args, content, lines)
    return EXIT_OK


def _cmd_order(args) -> int:
    kd = _knot(args)
    pres = kd.presentation
    if args.slope is not None:
        pres = surgery_presentation(kd, Slope.parse(args.slope))
    subgroup = [parse_word(t) for t in args.subgroup]
    table = todd_coxeter(pres, subgroup, max_cosets=args.max_cosets)
    content = {
        "status": table.status,
        "cosets": table.num_cosets,
        "order": table.num_cosets if table.is_complete() and not subgroup else None,
    }
    if table.is_complete():
        lines = [str(table.num_cosets)]
    else:
        lines = [f"capped at {args.max_cosets} definitions ({table.num_cosets} live cosets)"]
    _emit(args, content, lines)
    return EXIT_OK


def _cmd_commutation(args) -> int:
    kd = _knot(args)
    report = check_peripheral_commutation(kd, max_cosets=args.max_cosets)
    content = {
        "consistent": report.consistent,
        "complete_enumerations": report.complete_enumerations,
        "checked": [list(entry) for entry in report.checked],
    }
    _emit(args, content, [str(report)])
    return EXIT_OK if report.consistent else EXIT_VERIFY


def _parse_cases(text: str) -> tuple[str, ...]:
    return ALL_CASES if text == "all" else tuple(text.split(","))


# How each ``sweep`` flag's text becomes the SweepSpec field of its name.
_SWEEP_FIELDS = {
    "p_range": parse_range,
    "k_range": parse_range,
    "m_range": parse_range,
    "signs": parse_signs,
    "cases": _parse_cases,
}


def _cmd_sweep(args) -> int:
    # A flag left out keeps SweepSpec's default.
    spec = SweepSpec(**{
        name: parse(getattr(args, name))
        for name, parse in _SWEEP_FIELDS.items()
        if getattr(args, name) is not None
    })
    result = run_sweep(spec)
    if args.output:
        with open(args.output, "w") as handle:
            json.dump(result, handle, indent=2, sort_keys=True)
    summary = {k: result[k] for k in ("total", "passed", "failed")}
    content = result if not args.output else summary
    _emit(
        args,
        content,
        [f"instances: {result['total']}  passed: {result['passed']}  failed: {result['failed']}"],
    )
    return EXIT_OK if result["failed"] == 0 else EXIT_VERIFY


@cache
def build_parser() -> _Parser:
    """The argument parser, built once per process; parsing leaves it unchanged."""
    parser = _Parser(prog="nlo", description=__doc__)
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


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"nlo: error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
