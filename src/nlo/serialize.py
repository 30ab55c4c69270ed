"""Versioned JSON documents for presentations, knot data and certificates.

Every document carries a ``schema_version``.  Presentations and knot data
are only written; certificates are also read back, and the reader refuses
a version or a trace direction it does not know, and any ``hypotheses``
but the one constant schema 1 writes.  Word-valued fields use
the word grammar, so documents stay human-readable and hash-stable.
``render_document`` renders any document as its JSON text.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii
from typing import TYPE_CHECKING, Any, Callable

from .families import M_ZERO_NOTE, FamilyParams, KnotData, lspace_case
from .presentation import GeneratorChange, Presentation, TraceStep
from .words import abbreviate_int, format_word, parse_word

if TYPE_CHECKING:
    from .certificates import Certificate, VerificationReport

Doc = dict[str, Any]

SCHEMA_VERSION = 1
# Every trace step replaces its left side by its right side.
DIRECTION = "lhs_to_rhs"
# Schema 1's ``hypotheses`` object: the criterion's hypotheses, each true.
# ``verify_certificate`` checks them (meridian, positivity), so a
# certificate states them as this constant and the reader takes no other.
HYPOTHESES = {"x_is_meridian": True, "s_positive": True, "s_contains_x": True}


class SchemaError(ValueError):
    """Unknown schema version or malformed document."""


def _integer(value: Any, name: str) -> int:
    """``value`` if it is a JSON integer; floats and booleans are refused."""
    if type(value) is not int:
        raise SchemaError(f"{name} must be an integer, not {type(value).__name__}")
    return value


def _check_version(doc: Doc, kind: str) -> None:
    if not isinstance(doc, dict):
        raise SchemaError(f"{kind} document must be a JSON object, not {type(doc).__name__}")
    version = _integer(doc.get("schema_version"), f"{kind} schema_version")
    if version != SCHEMA_VERSION:
        raise SchemaError(
            f"{kind} document has {abbreviate_int('schema version', version)}; "
            f"this tool reads version {SCHEMA_VERSION}"
        )


def presentation_to_doc(pres: Presentation, kd: KnotData) -> Doc:
    """``pres``, a presentation of the group of ``kd`` or of one of its
    quotients, labelled with the meridian and framing of ``kd``."""
    return {
        "schema_version": SCHEMA_VERSION,
        "generators": list(pres.generators),
        "relators": [format_word(r) for r in pres.relators],
        "labels": {"mu": format_word(kd.mu), "s": format_word(kd.s)},
    }


def params_to_doc(params: FamilyParams) -> Doc:
    return dict(vars(params))


def params_from_doc(doc: Doc) -> FamilyParams:
    try:
        return FamilyParams(
            *(_integer(doc[name], f"params.{name}") for name in FamilyParams._fields)
        )
    except (KeyError, TypeError) as exc:
        raise SchemaError(f"malformed parameter document: {exc}") from exc


def knot_data_to_doc(kd: KnotData) -> Doc:
    case = lspace_case(kd.params)
    return {
        "schema_version": SCHEMA_VERSION,
        "params": params_to_doc(kd.params),
        "q": kd.params.q,
        "presentation": presentation_to_doc(kd.presentation, kd),
        "mu": format_word(kd.mu),
        "s": format_word(kd.s),
        "v": kd.params.v,
        "lspace": {"is_lspace_knot": case is not None, "case": case},
        "notes": [M_ZERO_NOTE] if kd.params.m == 0 else [],
    }


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
        raise SchemaError(f"trace direction must be {DIRECTION!r}")
    return TraceStep(
        lhs=parse_word(entry["lhs"]),
        rhs=parse_word(entry["rhs"]),
        relator_index=_integer(entry["relator_index"], "trace relator_index"),
        position=_integer(entry["position"], "trace position"),
    )


def certificate_from_doc(doc: Doc) -> Certificate:
    # The one use of nlo.certificates here at run time, so only a reader loads it.
    from .certificates import Certificate

    _check_version(doc, "certificate")
    try:
        gc_doc = doc["generator_change"]
        forward = {g: parse_word(t) for g, t in gc_doc["forward"].items()}
        backward = {g: parse_word(t) for g, t in gc_doc["backward"].items()}
        for name, side, keys in (
            ("old_generators", "forward", forward),
            ("new_generators", "backward", backward),
        ):
            if gc_doc[name] != list(keys):
                raise SchemaError(
                    f"generator_change.{name} must list the {side} keys in order"
                )
        change = GeneratorChange(forward, backward)
        entries = doc["trace"]
        if type(entries) is not list or not all(type(entry) is dict for entry in entries):
            raise TypeError("trace must be a list of objects")
        trace = tuple(_trace_step(entry) for entry in entries)
        hyp = doc["hypotheses"]
        if not (hyp == HYPOTHESES and all(flag is True for flag in hyp.values())):
            raise SchemaError(f"hypotheses must set exactly {', '.join(HYPOTHESES)} to true")
        return Certificate(
            params=params_from_doc(doc["params"]),
            case=doc["case"],
            change=change,
            trace=trace,
            positive_s=parse_word(doc["positive_s"]),
            v=_integer(doc["v"], "v"),
        )
    except (AttributeError, KeyError, TypeError) as exc:
        raise SchemaError(f"malformed certificate document: {exc}") from exc


def verification_to_doc(report: VerificationReport) -> Doc:
    return {
        "passed": report.passed,
        "verdict": report.verdict,
        "failures": list(report.failures),
    }


def render_document(value: Any) -> str:
    """``json.dumps(value, indent=2, sort_keys=True)``, built in one pass.

    json runs its pure-Python encoder whenever ``indent`` is set; this one
    appends each piece to one list and joins them once.  It renders str,
    int, bool, None, list and dict, the values nlo documents hold; any
    other value, a float or tuple included, and any dict key that is not a
    str, raises TypeError.  An int of over 4300 digits raises json's
    ValueError.
    """
    pieces: list[str] = []
    _render(value, pieces.append, "\n")
    return "".join(pieces)


def _render(value: Any, append: Callable[[str], None], newline: str) -> None:
    kind = type(value)
    if kind is str:
        append(encode_basestring_ascii(value))
    elif kind is int:
        append(int.__repr__(value))
    elif kind is dict:
        if not value:
            append("{}")
            return
        inner = newline + "  "
        separator = "{" + inner
        for key in sorted(value):
            if type(key) is not str:
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            append(separator)
            append(encode_basestring_ascii(key))
            append(": ")
            _render(value[key], append, inner)
            separator = "," + inner
        append(newline + "}")
    elif kind is list:
        if not value:
            append("[]")
            return
        inner = newline + "  "
        separator = "[" + inner
        for item in value:
            append(separator)
            _render(item, append, inner)
            separator = "," + inner
        append(newline + "]")
    elif value is None:
        append("null")
    elif value is True:
        append("true")
    elif value is False:
        append("false")
    else:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")

