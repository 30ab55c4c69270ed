"""Positive-rewriting certificates of non-left-orderability.

For the L-space families T(p, pk±1; p-1, m) and T(p, pk±1; p-2, 1) the
knot group has generators x, y with x a meridian such that the surface
framing s rewrites as a word in positive powers of x and y containing at
least one x.  A certificate packages the generator change, the (at most
one-step) relator rewrite needed, the positive word, and the framing
coefficient v = p*q + ell^2*m; every surgery slope p'/q' with
p', q' > 0 and p'/q' >= v then yields a quotient group that is not
left-orderable.  Which parameters those are is decided by
``families.certified_case``; a certificate's case reads ``sign=±1,<case>``.

Nothing searches, and one function checks: ``certify`` only assembles the
closed form for the case and the relator step it names, and
``verify_certificate`` checks the stated case, that the generator change
round trips, the meridian, the replayed trace and positive word, and the
framing once each.  Only scripts/search_positive_ell2.py searches.

The certificate document, schema 1 of ``nlo.serialize``, is written and
read here, beside the records it holds.  The reader refuses a version or
a trace direction it does not know, and any ``hypotheses`` but the one
constant that schema 1 writes.  ``verify_document`` is the one path from
a document's text to its verdict, and so the one statement of what
``nlo verify`` accepts.
"""

from __future__ import annotations

import json

from .families import (CASE_NEXT, CASE_TOP, FamilyParams, KnotData, build, certified_case,
                       lspace_case)
from .presentation import GeneratorChange, TraceStep, insertion_step, replay_trace
from .serialize import SCHEMA_VERSION, Doc, params_to_doc
from .words import (
    Record,
    Word,
    abbreviate_int,
    abbreviate_word,
    format_word,
    is_positive,
    parse_word,
    substitute,
)

ELL2_REFUSAL = (
    "no positive rewriting of the framing is known for ell = 2, m = 1 with "
    "p >= 5; scripts/search_positive_ell2.py explores them by bounded search, "
    "but this tool ships no claim for these parameters"
)
M_ZERO_REFUSAL = (
    "certificates cover the twisted families with m >= 1 only; m = 0 "
    "degenerates to a torus knot outside their standing assumption"
)

# Verification clauses, reported individually on failure.
CLAUSE_CASE = "case"
CLAUSE_GENERATOR_CHANGE = "generator_change"
CLAUSE_MERIDIAN = "meridian"
CLAUSE_REPLAY = "trace_replay"
CLAUSE_POSITIVITY = "positivity"
CLAUSE_FRAMING = "framing"

# Every trace step replaces its left side by its right side.
DIRECTION = "lhs_to_rhs"
# Schema 1's ``hypotheses`` object: the criterion's hypotheses, each true.
# ``verify_certificate`` checks them (meridian, positivity), so a
# certificate states them as this constant and the reader takes no other.
HYPOTHESES = {"x_is_meridian": True, "s_positive": True, "s_contains_x": True}

# Certificate documents nest about 5 levels; json recurses once per level.
MAX_JSON_DEPTH = 16

# The most characters verify reads: the largest certificate certify prints
# under the word caps is about 2.5 MB (see the README).
MAX_DOCUMENT_CHARS = 2**24


def _integer(value: object, name: str) -> int:
    """``value`` if it is a JSON integer; floats and booleans are refused."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an integer, not {type(value).__name__}")
    return value


class Certificate(Record):
    def __init__(self, params: FamilyParams, case: str, change: GeneratorChange,
                 trace: tuple[TraceStep, ...], positive_s: Word, v: int):
        self._set(params=params, case=case, change=change, trace=trace, positive_s=positive_s, v=v)


class VerificationReport(Record):
    """The failures of a check; it passed if there are none."""

    def __init__(self, failures: tuple[str, ...]):
        self._set(failures=failures)

    @property
    def passed(self) -> bool:
        return not self.failures

    @property
    def verdict(self) -> str:
        return "PASS" if self.passed else "FAIL"

    def __str__(self) -> str:
        return self.verdict if self.passed else "FAIL: " + "; ".join(self.failures)


def xy_change(params: FamilyParams) -> GeneratorChange:
    """Generator change to a meridian x and a second generator y.

    For q = pk-1 (sign -1): x = a^-1 b^k and y = b^(1-k) a, with inverse
    assignments b = yx and a = (yx)^(k-1) y.  For q = pk+1 (sign +1):
    x = b^-k a and y = a^-1 b^(k+1), with b = xy and a = (xy)^k x.
    """
    k = params.k
    x, y, a, b = (Word([(g, 1)]) for g in "xyab")
    if params.sign == -1:
        return GeneratorChange(
            forward={"a": (y * x) ** (k - 1) * y, "b": y * x},
            backward={"x": ~a * b ** k, "y": b ** (1 - k) * a},
        )
    return GeneratorChange(
        forward={"a": (x * y) ** k * x, "b": x * y},
        backward={"x": b ** (-k) * a, "y": ~a * b ** (k + 1)},
    )


def case_label(params: FamilyParams) -> str | None:
    """A certificate's ``case``: ``sign=±1,<case>`` for the L-space case
    that ``lspace_case`` names, or None if it names none."""
    case = lspace_case(params)
    return None if case is None else f"sign={params.sign:+d},{case}"


def _classify(params: FamilyParams) -> str:
    """The certified case of ``params`` (see ``families.certified_case``);
    anything else is refused with the reason that applies first."""
    case = certified_case(params)
    if case is not None:
        return case
    p, ell, m, sign = params.p, params.ell, params.m, params.sign
    if m == 0:
        raise ValueError(M_ZERO_REFUSAL)
    nearest = certified_case(params.replace(m=1))
    if nearest is not None:
        raise ValueError(
            f"nearest case sign={sign:+d},{nearest} requires m = 1, got m = {m}"
        )
    if lspace_case(params) is not None:
        raise ValueError(ELL2_REFUSAL)
    raise ValueError(
        f"ell = {ell} matches neither p-1 = {p - 1} nor p-2 = {p - 2}; "
        "no certified construction applies"
    )


def _closed_form(params: FamilyParams, case: str) -> tuple[Word, tuple[int, int] | None]:
    """The positive word for s in x, y per sign and certified case, plus the
    (offset, position) of the one relator step (see ``insertion_step``)
    that rewrites s into its backward image, or None if they are equal.

    In the k = 1 subcase of the first minus family the direct form
    ((yx)^(k-1) y^(m+1))^(p-1) (yx)^(k-1) y collapses to a power of y with
    no x in it, so the framing is first rewritten once with the group
    relation, landing on y^m (y x y^m)^(p-2) y x.  The ell = p-2 minus
    family also takes one step, at the start of s.
    """
    p, k, m = params.p, params.k, params.m
    x, y = Word([("x", 1)]), Word([("y", 1)])
    key = (params.sign, case)
    if key == (-1, CASE_TOP):
        if k == 1:
            return y ** m * (y * x * y ** m) ** (p - 2) * y * x, (0, m)
        run = (y * x) ** (k - 1)
        return (run * y ** (m + 1)) ** (p - 1) * run * y, None
    if key == (-1, CASE_NEXT):
        run = (y * x) ** (k - 1)
        return x * run * (y * run * y) ** (p - 2) * run * y, (-1, 0)
    if key == (1, CASE_TOP):
        return ((x * y) ** (k + 1) * y ** (m - 1)) ** (p - 1) * (x * y) ** k * x, None
    if key == (1, CASE_NEXT):
        return (
            (x * y) ** (2 * k + 1) * (y * (x * y) ** k) ** (p - 3) * (x * y) ** k * x,
            None,
        )
    raise AssertionError(f"unknown case {key}")


def certify(kd: KnotData) -> Certificate:
    """Assemble the certificate for one of the four certified parameter cases.

    The positive word and its relator step come from the closed form for
    the case.  Nothing is checked here: ``verify_certificate`` is the one
    check, and ``nlo certify`` and the sweep run it on every certificate
    they print.
    """
    params = kd.params
    case = _classify(params)
    change = xy_change(params)
    closed, step = _closed_form(params, case)
    trace = () if step is None else (insertion_step(kd.presentation.relators[0], *step),)
    return Certificate(
        params=params,
        case=case_label(params),
        change=change,
        trace=trace,
        positive_s=closed,
        v=kd.params.v,
    )


def verify_certificate(kd: KnotData, cert: Certificate) -> VerificationReport:
    """Check a certificate against knot data: the one check there is.

    Six clauses, reported separately on failure: the stated case is the
    knot's L-space case; the generator change round trips, each image of
    one map substituted into the other giving back its generator; x maps
    back to the meridian; replaying the trace from the framing word and
    substituting forward yields the positive word exactly; the positive
    word is positive and contains x; the framing coefficient matches.  A
    change that does not round trip ends the check there.  The meridian
    and positivity clauses are the criterion's hypotheses, so the
    certificate asserts none itself.  The substitutions of the check share
    one SUBSTITUTE_BUDGET.  No search is performed.
    """
    failures: list[str] = []
    expected_case = case_label(kd.params)
    if expected_case is None:
        failures.append(f"{CLAUSE_CASE}: the knot is in no L-space case")
    elif cert.case != expected_case:
        failures.append(f"{CLAUSE_CASE}: stated case is not {expected_case}")

    change = cert.change
    spent = [0]  # image syllables the check's substitutions have emitted
    maps = {"forward": change.forward, "backward": change.backward}
    try:
        for there, back in (("forward", "backward"), ("backward", "forward")):
            for gen, image in maps[there].items():
                letter = Word([(gen, 1)])
                got = substitute(image, maps[back], spent)
                if got != letter:
                    raise ValueError(f"{back}({there}({gen})) = {got!r}, expected {gen}")
    except ValueError as exc:
        failures.append(f"{CLAUSE_GENERATOR_CHANGE}: {exc}")
        return VerificationReport(tuple(failures))

    x_name = next(iter(change.backward), "x")
    back_x = change.backward.get(x_name)
    if back_x is None:
        failures.append(f"{CLAUSE_MERIDIAN}: no image for generator {x_name!r}")
    elif back_x != kd.mu:
        failures.append(
            f"{CLAUSE_MERIDIAN}: backward image of {x_name} is "
            f"{abbreviate_word(back_x)}, meridian is {abbreviate_word(kd.mu)}"
        )

    try:
        replayed = replay_trace(kd.s, cert.trace, kd.presentation.relators)
        rewritten = substitute(replayed, change.forward, spent)
        if rewritten != cert.positive_s:
            failures.append(
                f"{CLAUSE_REPLAY}: trace replay gives {abbreviate_word(rewritten)}, "
                f"certificate states {abbreviate_word(cert.positive_s)}"
            )
    except ValueError as exc:
        failures.append(f"{CLAUSE_REPLAY}: {exc}")

    if not is_positive(cert.positive_s):
        failures.append(f"{CLAUSE_POSITIVITY}: stated word is not positive")
    elif x_name not in cert.positive_s.generators():
        failures.append(
            f"{CLAUSE_POSITIVITY}: stated word contains no {x_name}"
        )

    if cert.v != kd.params.v:
        failures.append(
            f"{CLAUSE_FRAMING}: certificate states {abbreviate_int('v', cert.v, ' = ')}, "
            f"knot has v = {kd.params.v}"
        )
    return VerificationReport(tuple(failures))


def params_from_doc(doc: Doc) -> FamilyParams:
    try:
        return FamilyParams(
            *(_integer(doc[name], f"params.{name}") for name in FamilyParams._fields)
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed parameter document: {exc}") from exc


def certificate_to_doc(cert: Certificate) -> Doc:
    return {
        "schema_version": SCHEMA_VERSION,
        "params": params_to_doc(cert.params),
        "case": cert.case,
        "generator_change": {
            "old_generators": list(cert.change.forward),
            "new_generators": list(cert.change.backward),
            "forward": {g: format_word(w) for g, w in cert.change.forward.items()},
            "backward": {g: format_word(w) for g, w in cert.change.backward.items()},
        },
        "trace": [
            {
                "relator_index": step.relator_index,
                "direction": DIRECTION,
                "position": step.position,
                "lhs": format_word(step.lhs),
                "rhs": format_word(step.rhs),
            }
            for step in cert.trace
        ],
        "positive_s": format_word(cert.positive_s),
        "v": cert.v,
        "hypotheses": dict(HYPOTHESES),
    }


def _trace_step(entry: Doc) -> TraceStep:
    if entry["direction"] != DIRECTION:
        raise ValueError(f"trace direction must be {DIRECTION!r}")
    return TraceStep(
        lhs=parse_word(entry["lhs"]),
        rhs=parse_word(entry["rhs"]),
        relator_index=_integer(entry["relator_index"], "trace relator_index"),
        position=_integer(entry["position"], "trace position"),
    )


def certificate_from_doc(doc: Doc) -> Certificate:
    if not isinstance(doc, dict):
        raise ValueError(f"certificate document must be a JSON object, not {type(doc).__name__}")
    version = _integer(doc.get("schema_version"), "certificate schema_version")
    if version != SCHEMA_VERSION:
        raise ValueError(
            f"certificate document has {abbreviate_int('schema version', version)}; "
            f"this tool reads version {SCHEMA_VERSION}"
        )
    try:
        gc_doc = doc["generator_change"]
        forward = {g: parse_word(t) for g, t in gc_doc["forward"].items()}
        backward = {g: parse_word(t) for g, t in gc_doc["backward"].items()}
        for name, side, keys in (
            ("old_generators", "forward", forward),
            ("new_generators", "backward", backward),
        ):
            if gc_doc[name] != list(keys):
                raise ValueError(
                    f"generator_change.{name} must list the {side} keys in order"
                )
        change = GeneratorChange(forward, backward)
        entries = doc["trace"]
        if type(entries) is not list or not all(type(entry) is dict for entry in entries):
            raise TypeError("trace must be a list of objects")
        trace = tuple(_trace_step(entry) for entry in entries)
        hyp = doc["hypotheses"]
        if not (hyp == HYPOTHESES and all(flag is True for flag in hyp.values())):
            raise ValueError(f"hypotheses must set exactly {', '.join(HYPOTHESES)} to true")
        return Certificate(
            params=params_from_doc(doc["params"]),
            case=doc["case"],
            change=change,
            trace=trace,
            positive_s=parse_word(doc["positive_s"]),
            v=_integer(doc["v"], "v"),
        )
    except (AttributeError, KeyError, TypeError) as exc:
        raise ValueError(f"malformed certificate document: {exc}") from exc


def verify_document(source) -> VerificationReport:
    """The verdict on the certificate document read from the text stream
    ``source``: a certificate, or ``nlo certify``'s output holding one.

    At most MAX_DOCUMENT_CHARS characters and one more are read, and a
    longer text FAILs before it is decoded.  So does a text the decoder
    refuses, at the interpreter's recursion limit too (a hostile document
    reaches it in milliseconds), a value deeper than MAX_JSON_DEPTH levels,
    a value that is no certificate and parameters that cannot be built.
    """
    nests_deeper = ValueError(f"document nests deeper than {MAX_JSON_DEPTH} levels")
    try:
        text = source.read(MAX_DOCUMENT_CHARS + 1)
        if len(text) > MAX_DOCUMENT_CHARS:
            raise ValueError(f"document is longer than MAX_DOCUMENT_CHARS = {MAX_DOCUMENT_CHARS} "
                             "characters")
        try:
            doc = json.loads(text)
        except RecursionError:
            raise nests_deeper from None
        level = [doc]
        for _ in range(MAX_JSON_DEPTH):
            level = [child for value in level if isinstance(value, (dict, list))
                     for child in (value.values() if isinstance(value, dict) else value)]
        if any(isinstance(value, (dict, list)) for value in level):
            raise nests_deeper
        content = doc.get("content") if isinstance(doc, dict) else None
        if isinstance(content, dict) and "certificate" in content:
            doc = content["certificate"]
        cert = certificate_from_doc(doc)
        kd = build(cert.params)
    except ValueError as exc:
        return VerificationReport((str(exc),))
    return verify_certificate(kd, cert)


def verification_to_doc(report: VerificationReport) -> Doc:
    return {
        "passed": report.passed,
        "verdict": report.verdict,
        "failures": list(report.failures),
    }
