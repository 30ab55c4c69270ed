"""Reference word parser: a hand-written loop over one term at a time.

`nlo.words.parse_word` reads text with one whole-text grammar match and
one findall of its terms.  This module keeps the term-by-term tokenizer
it replaced, so the tests can hold the two to the same words and the same
errors.  The loop reads exponents with `\\d`, which also matches non-ASCII
decimal digits; the tests compare the two on ASCII text only.
"""

from __future__ import annotations

import re

from nlo.words import Word, WordSyntaxError

_TOKEN = re.compile(r"\s*([a-z])(?:\^(-?\d+))?")


def parse_word(text: str) -> Word:
    """Terms ``letter`` or ``letter^int`` separated by whitespace; an
    omitted exponent means 1; the empty string is the identity."""
    pos = 0
    out = []
    n = len(text)
    while pos < n:
        match = _TOKEN.match(text, pos)
        if match is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            bad = pos + (len(text[pos:]) - len(stripped))
            if text[bad] == "^":
                raise WordSyntaxError("exponent without a generator", bad)
            raise WordSyntaxError(f"unexpected character {text[bad]!r}", bad)
        gen = match.group(1)
        exp = 1 if match.group(2) is None else int(match.group(2))
        # Reject a dangling caret such as "a^" or "a^x".
        end = match.end()
        if match.group(2) is None and end < n and text[end] == "^":
            raise WordSyntaxError("malformed exponent", end)
        out.append((gen, exp))
        pos = end
    return Word(out)
