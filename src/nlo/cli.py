"""Batch command line front end.

Subcommands: present, certify, verify, surgery, homology, alexander,
order, commutation, sweep.  Flags are long-form only.  Output is a
deterministic document whose header (tool name/version, schema version)
is separate from the content, so content hashes are stable across runs.
Each handler returns its exit code, its content and its text lines and
prints nothing to stdout; ``main`` renders the document or the lines.

Each command's handler and flags are one entry of the table
``_COMMANDS``, and ``_read`` walks argv once against it.  A flag takes its
value as ``--flag value`` or ``--flag=value``, and may be shortened to any
unique prefix of its name.  The last value given wins, but ``--subgroup``
collects its values.  A lone ``-`` is a value.  A separate value that
starts with ``-`` and is not a number reads as a flag, and so as a missing
value: a negative slope is written ``--slope=-1/1``.  ``--help`` lists a
command's flags.  A refusal prints the usage line and the reason, with
any outside text in it cut to MESSAGE_WORD_CHARS characters.

Exit codes: 0 success, 1 domain error, 2 verification failure, 64 usage.
"""

from __future__ import annotations

import os
import re
import sys
from collections import namedtuple
from collections.abc import Callable
from types import SimpleNamespace

# Every command needs these modules; a handler imports any other where it runs.
from . import __version__
from .families import FamilyParams, KnotData, Slope, build, lspace_case, surgery_presentation
from .serialize import SCHEMA_VERSION, knot_data_to_doc, presentation_to_doc, render_document
from .words import COMMUTATION_MAX_COSETS, DEFAULT_MAX_COSETS, abbreviate_text, parse_word

# typing is left unloaded at run time; this name serves annotations only.
TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import NoReturn

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_VERIFY = 2
EXIT_USAGE = 64

# A separate value that starts with "-" and is not a number reads as a flag.
SLOPE_HELP = "p'/q' or p'; give a negative slope as --slope=-1/1, not --slope -1/1"


def _knot(args) -> KnotData:
    return build(FamilyParams(p=args.p, k=args.k, sign=args.sign, ell=args.ell, m=args.m))


def _cmd_present(args) -> tuple[int, dict, list[str]]:
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
    return EXIT_OK, doc, lines


def _cmd_certify(args) -> tuple[int, dict, list[str]]:
    from . import certificates
    kd = _knot(args)
    cert = certificates.certify(kd)
    report = certificates.verify_certificate(kd, cert)
    content = {
        "certificate": certificates.certificate_to_doc(cert),
        "bound": f"r >= {cert.v}",
        "verification": certificates.verification_to_doc(report),
    }
    lines = [
        f"case: {cert.case}",
        f"positive_s: {content['certificate']['positive_s']}",
        f"trace length: {len(cert.trace)}",
        f"bound: r >= {cert.v}",
        f"verdict: {report}",
    ]
    return (EXIT_OK if report.passed else EXIT_VERIFY), content, lines


def _cmd_verify(args) -> tuple[int, dict, list[str]]:
    from . import certificates
    # A file that cannot be opened is a domain error (exit 1); what it holds gets a verdict.
    if args.certificate == "-":
        report = certificates.verify_document(sys.stdin)
    else:
        with open(args.certificate) as handle:
            report = certificates.verify_document(handle)
    code = EXIT_OK if report.passed else EXIT_VERIFY
    return code, certificates.verification_to_doc(report), [f"verdict: {report}"]


def _cmd_surgery(args) -> tuple[int, dict, list[str]]:
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
    return EXIT_OK, doc, lines


def _cmd_homology(args) -> tuple[int, dict, list[str]]:
    from . import homology
    kd = _knot(args)
    if args.slope is None:
        group = homology.h1(kd.presentation)
    else:
        group = homology.surgery_h1(kd, Slope.parse(args.slope))
    content = {
        "invariant_factors": list(group.invariant_factors),
        "free_rank": group.free_rank,
        "order": group.order(),
        "description": str(group),
    }
    order = "infinite" if content["order"] is None else content["order"]
    return EXIT_OK, content, [f"H1: {group}", f"order: {order}"]


def _cmd_alexander(args) -> tuple[int, dict, list[str]]:
    from . import alexander
    kd = _knot(args)
    delta = alexander.alexander_polynomial(kd)
    text = alexander.polynomial_text(delta)
    content = {"polynomial": text, "degree": len(delta) - 1, "v": kd.params.v}
    lines = [f"alexander: {text}"]
    if lspace_case(kd.params) is not None:
        g = alexander.genus(delta)
        content.update({"genus": g, "lspace_threshold": 2 * g - 1})
        lines.append(f"genus: {g}")
        lines.append(f"lspace threshold: {2 * g - 1}   v: {kd.params.v}")
    return EXIT_OK, content, lines


def _cmd_order(args) -> tuple[int, dict, list[str]]:
    from . import cosets
    kd = _knot(args)
    pres = kd.presentation
    if args.slope is not None:
        pres = surgery_presentation(kd, Slope.parse(args.slope))
    subgroup = [parse_word(t) for t in args.subgroup]
    table = cosets.todd_coxeter(pres, subgroup, max_cosets=args.max_cosets)
    content = {
        "status": table.status,
        "cosets": table.num_cosets,
        "order": table.num_cosets if table.is_complete() and not subgroup else None,
    }
    if table.is_complete():
        lines = [str(table.num_cosets)]
    else:
        lines = [f"capped at {args.max_cosets} definitions ({table.num_cosets} live cosets)"]
    return EXIT_OK, content, lines


def _cmd_commutation(args) -> tuple[int, dict, list[str]]:
    from . import cosets
    kd = _knot(args)
    report = cosets.check_peripheral_commutation(kd, max_cosets=args.max_cosets)
    content = {
        "consistent": report.consistent,
        "complete_enumerations": report.complete_enumerations,
        "checked": [list(entry) for entry in report.checked],
    }
    if report.complete_enumerations == 0:
        print(f"nlo: warning: no enumeration completed within {args.max_cosets} cosets, "
              "so the battery checked nothing", file=sys.stderr)
    return (EXIT_OK if report.consistent else EXIT_VERIFY), content, [str(report)]


# The ``sweep`` flags, each setting the SweepSpec field of its name.
_SWEEP_FIELDS = ("p_range", "k_range", "m_range", "signs", "cases")


def _cmd_sweep(args) -> tuple[int, dict, list[str]]:
    from . import sweep
    # The three ranges are read by parse_range; a flag left out keeps SweepSpec's default.
    parse = {"signs": sweep.parse_signs,
             "cases": lambda text: sweep.ALL_CASES if text == "all" else tuple(text.split(","))}
    spec = sweep.SweepSpec(**{
        name: parse.get(name, sweep.parse_range)(getattr(args, name))
        for name in _SWEEP_FIELDS
        if getattr(args, name) is not None
    })
    result = sweep.run_sweep(spec)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(render_document(result))
    content = {k: result[k] for k in ("total", "passed", "failed")} if args.output else result
    lines = ["instances: {total}  passed: {passed}  failed: {failed}".format(**result)]
    return (EXIT_OK if result["failed"] == 0 else EXIT_VERIFY), content, lines


def _cmd_help(args) -> tuple[int, dict, list[str]]:
    return EXIT_OK, {}, [_help(args.command)]


class _Flag(namedtuple("_Flag", "name convert choices required default append help",
                       defaults=(str, (), False, None, False, ""))):
    """One long flag: its text becomes ``convert(text)``, which must be one
    of ``choices`` if there are any; an ``append`` flag collects a list."""

    __slots__ = ()

    @property
    def dest(self) -> str:
        return self.name[2:].replace("-", "_")


_HELP = _Flag("--help", help="show this help message and exit")
_PARAMS = (
    _Flag("--p", int, required=True),
    _Flag("--k", int, required=True),
    _Flag("--sign", int, choices=(-1, 1), required=True),
    _Flag("--ell", int, required=True),
    _Flag("--m", int, required=True),
)
_FORMAT = _Flag("--format", choices=("json", "text"), default="json")
_SLOPE = _Flag("--slope", help=SLOPE_HELP)

# Each command's handler and its flags by name, in the order usage lines list them.
_COMMANDS = {
    command: (handler, {flag.name: flag for flag in flags})
    for command, handler, *flags in [
        ("present", _cmd_present, *_PARAMS, _FORMAT),
        ("certify", _cmd_certify, *_PARAMS, _FORMAT),
        ("surgery", _cmd_surgery, *_PARAMS, _FORMAT, _SLOPE._replace(required=True)),
        ("homology", _cmd_homology, *_PARAMS, _FORMAT, _SLOPE),
        ("alexander", _cmd_alexander, *_PARAMS, _FORMAT),
        ("order", _cmd_order, *_PARAMS, _FORMAT, _SLOPE, _Flag("--subgroup", append=True),
         _Flag("--max-cosets", int, default=DEFAULT_MAX_COSETS)),
        ("commutation", _cmd_commutation, *_PARAMS, _FORMAT,
         _Flag("--max-cosets", int, default=COMMUTATION_MAX_COSETS)),
        ("verify", _cmd_verify, _Flag("--certificate", required=True), _FORMAT),
        ("sweep", _cmd_sweep, *(_Flag("--" + name.replace("_", "-")) for name in _SWEEP_FIELDS),
         _Flag("--output"), _FORMAT),
    ]
}

# Each command's flag names with the field each sets, computed once.
_DESTS = {
    command: tuple((name, flag.dest) for name, flag in flags.items())
    for command, (_, flags) in _COMMANDS.items()
}

# A token that looks like a negative number is a value.
_NEGATIVE = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _metavar(flag: _Flag) -> str:
    if flag.choices:
        return "{" + ",".join(map(str, flag.choices)) + "}"
    return flag.dest.upper()


def _usage(command: str | None) -> str:
    if command is None:
        return f"usage: nlo [-h] {{{','.join(_COMMANDS)}}} ..."
    shown = (f"{name} {_metavar(flag)}" if flag.required else f"[{name} {_metavar(flag)}]"
             for name, flag in _COMMANDS[command][1].items())
    return f"usage: nlo {command} [-h] {' '.join(shown)}"


def _help(command: str | None) -> str:
    if command is None:
        return f"{_usage(None)}\n\n{__doc__}\nnlo COMMAND --help lists the flags of COMMAND."
    rows = [("-h, --help", _HELP.help)]
    for name, flag in _COMMANDS[command][1].items():
        notes = ("required" if flag.required else "",
                 "" if flag.default is None else f"default {flag.default}",
                 "may repeat" if flag.append else "", flag.help)
        rows.append((f"{name} {_metavar(flag)}", "; ".join(note for note in notes if note)))
    width = max(len(left) for left, _ in rows) + 2
    return "\n".join([_usage(command), "", "options:",
                      *(f"  {left:{width}}{right}".rstrip() for left, right in rows)])


def _refuse(command: str | None, message: str) -> NoReturn:
    print(_usage(command), file=sys.stderr)
    print(f"nlo{' ' + command if command else ''}: error: {message}", file=sys.stderr)
    raise SystemExit(EXIT_USAGE)


def _match(command: str, flags: dict[str, _Flag], token: str):
    """None if ``token`` is a value; else the flag it names (None for one
    the command lacks) and the text it joins by ``=`` (None if it joins
    none).  A long flag may be shortened to a unique prefix."""
    if token[:1] != "-" or token == "-":
        return None
    name, eq, text = token.partition("=")
    if token.startswith("--"):
        hits = [flags[name]] if name in flags else [
            flag for flag in (_HELP, *flags.values()) if flag.name.startswith(name)]
        if len(hits) > 1:
            _refuse(command, f"ambiguous option: {abbreviate_text(token)} could match "
                    + ", ".join(flag.name for flag in hits))
        if hits:
            return hits[0], (text if eq else None)
    elif token.startswith("-h"):
        return _HELP, token[2:] or None
    if _NEGATIVE.match(token) or " " in token:
        return None
    return None, None


def _read(argv: list[str]) -> tuple[Callable, SimpleNamespace]:
    """The handler of ``argv``'s command and the values of its flags:
    ``_cmd_help`` and ``--format text`` on a request for help.

    Prints and raises SystemExit(EXIT_USAGE) on a refusal.
    """
    if not argv:
        _refuse(None, "the following arguments are required: command")
    command, rest = argv[0], argv[1:]
    if command == "-h" or (len(command) > 2 and "--help".startswith(command)):
        return _cmd_help, SimpleNamespace(command=None, format="text")
    if command not in _COMMANDS:
        _refuse(None, f"argument command: invalid choice: {abbreviate_text(repr(command))} "
                f"(choose from {', '.join(map(repr, _COMMANDS))})")
    handler, flags = _COMMANDS[command]
    values = {name: [] if flag.append else flag.default for name, flag in flags.items()}
    extras, tokens = [], iter(rest)
    for token in tokens:
        # A flag's whole name, the usual form, is looked up; any other token is matched.
        flag, text = flags.get(token), None
        if flag is None:
            if token == "--":  # no flag takes what follows
                extras += [token, *tokens]
                break
            hit = _match(command, flags, token)
            if hit is None or hit[0] is None:
                extras.append(token)
                continue
            flag, text = hit
            if flag is _HELP:
                if text is not None:
                    _refuse(command, "argument -h/--help: ignored explicit argument "
                            + abbreviate_text(repr(text)))
                return _cmd_help, SimpleNamespace(command=command, format="text")
        if text is None:
            # A refusal ends the walk, so a flag taken here is never read again.
            text = next(tokens, None)
            if text is None or text[:1] == "-" and (
                    text == "--" or _match(command, flags, text) is not None):
                _refuse(command, f"argument {flag.name}: expected one argument")
        try:
            value = flag.convert(text)
        except ValueError:
            _refuse(command, f"argument {flag.name}: invalid {flag.convert.__name__} value: "
                    + abbreviate_text(repr(text)))
        if flag.choices and value not in flag.choices:
            _refuse(command, f"argument {flag.name}: invalid choice: "
                    f"{abbreviate_text(repr(value))} "
                    f"(choose from {', '.join(map(repr, flag.choices))})")
        if flag.append:
            values[flag.name].append(value)
        else:
            values[flag.name] = value
    # A required flag has no default, and a value given is never None.
    missing = [name for name, flag in flags.items() if flag.required and values[name] is None]
    if missing:
        _refuse(command, f"the following arguments are required: {', '.join(missing)}")
    if extras:
        _refuse(command, f"unrecognized arguments: {abbreviate_text(' '.join(extras))}")
    return handler, SimpleNamespace(**{dest: values[name] for name, dest in _DESTS[command]})


def main(argv: list[str] | None = None) -> int:
    # Rendering can fail too: it refuses an integer of over 4300 digits.
    try:
        handler, args = _read(sys.argv[1:] if argv is None else argv)
        code, content, lines = handler(args)
        header = {"tool": "nlo", "tool_version": __version__, "schema_version": SCHEMA_VERSION}
        document = {"header": header, "content": content}
        text = render_document(document) if args.format == "json" else "\n".join(lines)
        try:
            print(text, flush=True)
        except BrokenPipeError:
            # The reader left early (nlo sweep | head): exit quietly, even at the last flush.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return EXIT_DOMAIN
        return code
    except SystemExit as exc:
        return exc.code
    except (ValueError, OSError) as exc:
        message = str(exc)
        if isinstance(exc, OSError) and exc.filename is not None:
            # A path comes from outside, and str(exc) quotes it whole.
            message = f"[Errno {exc.errno}] {exc.strerror}: {abbreviate_text(repr(exc.filename))}"
        print(f"nlo: error: {message}", file=sys.stderr)
        return EXIT_DOMAIN
