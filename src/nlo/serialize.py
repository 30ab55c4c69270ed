"""Versioned JSON document schemas with bit-exact round trips.

Every document carries a ``schema_version``; parsers refuse versions they
do not know.  Word-valued fields use the word grammar, so documents stay
human-readable and hash-stable.
"""

from __future__ import annotations

from dataclasses import fields
from typing import Any

from .certificates import SCHEMA_VERSION, Certificate, HypothesisRecord, VerificationReport
from .families import FamilyParams, KnotData, PeripheralStructure, is_lspace_knot
from .presentation import GeneratorChange, Presentation, Relation, RewriteStep
from .words import Word, format_word, parse_word

Doc = dict[str, Any]


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
            f"{kind} document has schema version {version}; "
            f"this tool reads version {SCHEMA_VERSION}"
        )


def presentation_to_doc(pres: Presentation) -> Doc:
    return {
        "schema_version": SCHEMA_VERSION,
        "generators": list(pres.generators),
        "relators": [format_word(r) for r in pres.relators],
        "labels": {name: format_word(w) for name, w in sorted(pres.labels.items())},
    }


def presentation_from_doc(doc: Doc) -> Presentation:
    _check_version(doc, "presentation")
    try:
        return Presentation(
            generators=tuple(doc["generators"]),
            relators=tuple(parse_word(t) for t in doc["relators"]),
            labels={name: parse_word(t) for name, t in doc["labels"].items()},
        )
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"malformed presentation document: {exc}") from exc


def params_to_doc(params: FamilyParams) -> Doc:
    return dict(vars(params))


def params_from_doc(doc: Doc) -> FamilyParams:
    try:
        return FamilyParams(
            *(_integer(doc[f.name], f"params.{f.name}") for f in fields(FamilyParams))
        )
    except (KeyError, TypeError) as exc:
        raise SchemaError(f"malformed parameter document: {exc}") from exc


def knot_data_to_doc(kd: KnotData) -> Doc:
    status = is_lspace_knot(kd.params)
    return {
        "schema_version": SCHEMA_VERSION,
        "params": params_to_doc(kd.params),
        "q": kd.params.q,
        "presentation": presentation_to_doc(kd.presentation),
        "mu": format_word(kd.peripheral.mu),
        "s": format_word(kd.peripheral.s),
        "v": kd.peripheral.v,
        "lspace": {"is_lspace_knot": status.is_lspace, "case": status.case},
        "notes": list(kd.notes),
    }


def knot_data_from_doc(doc: Doc) -> KnotData:
    _check_version(doc, "knot data")
    try:
        params = params_from_doc(doc["params"])
        pres = presentation_from_doc(doc["presentation"])
        peripheral = PeripheralStructure(
            mu=parse_word(doc["mu"]), s=parse_word(doc["s"]), v=doc["v"]
        )
        return KnotData(params, pres, peripheral, tuple(doc.get("notes", ())))
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"malformed knot data document: {exc}") from exc


def certificate_to_doc(cert: Certificate) -> Doc:
    return {
        "schema_version": cert.schema_version,
        "params": params_to_doc(cert.params),
        "case": cert.case,
        "generator_change": {
            "old_generators": list(cert.change.old_generators),
            "new_generators": list(cert.change.new_generators),
            "forward": {g: format_word(w) for g, w in cert.change.forward.items()},
            "backward": {g: format_word(w) for g, w in cert.change.backward.items()},
        },
        "trace": [
            {
                "relator_index": step.relator_index,
                "direction": step.direction,
                "position": step.position,
                "lhs": format_word(rel.lhs),
                "rhs": format_word(rel.rhs),
            }
            for rel, step in cert.trace
        ],
        "positive_s": format_word(cert.positive_s),
        "v": cert.v,
        "hypotheses": dict(vars(cert.hypotheses)),
    }


def certificate_from_doc(doc: Doc) -> Certificate:
    _check_version(doc, "certificate")
    try:
        gc_doc = doc["generator_change"]
        change = GeneratorChange(
            forward={g: parse_word(t) for g, t in gc_doc["forward"].items()},
            backward={g: parse_word(t) for g, t in gc_doc["backward"].items()},
        )
        trace = tuple(
            (
                Relation(parse_word(entry["lhs"]), parse_word(entry["rhs"])),
                RewriteStep(
                    relator_index=_integer(entry["relator_index"], "trace relator_index"),
                    direction=entry["direction"],
                    position=_integer(entry["position"], "trace position"),
                ),
            )
            for entry in doc["trace"]
        )
        hyp = doc["hypotheses"]
        return Certificate(
            schema_version=doc["schema_version"],
            params=params_from_doc(doc["params"]),
            case=doc["case"],
            change=change,
            trace=trace,
            positive_s=parse_word(doc["positive_s"]),
            v=_integer(doc["v"], "v"),
            hypotheses=HypothesisRecord(*(hyp[f.name] for f in fields(HypothesisRecord))),
        )
    except (AttributeError, KeyError, TypeError) as exc:
        raise SchemaError(f"malformed certificate document: {exc}") from exc


def verification_to_doc(report: VerificationReport) -> Doc:
    return {
        "passed": report.passed,
        "verdict": "PASS" if report.passed else "FAIL",
        "failures": list(report.failures),
    }
