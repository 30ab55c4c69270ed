"""Versioned JSON documents for presentations and knot data, and their
rendering.

Every document carries a ``schema_version``.  Presentations and knot data
are only written; the certificate reader and writer live beside their
records in ``nlo.certificates``, so only the commands that read or write
a certificate load them.  Word-valued fields use the word grammar, so
documents stay human-readable and hash-stable.  ``render_document``
renders any document as its JSON text.
"""

from __future__ import annotations

from collections.abc import Callable
from json.encoder import encode_basestring_ascii

from .families import M_ZERO_NOTE, FamilyParams, KnotData, Presentation, lspace_case
from .words import format_word

Doc = dict[str, object]

SCHEMA_VERSION = 1


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


def render_document(value: object) -> str:
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


def _render(value: object, append: Callable[[str], None], newline: str) -> None:
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

