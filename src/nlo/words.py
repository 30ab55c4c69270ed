"""Exact word algebra over a free group on single-letter generators.

Words are kept in run-length canonical form: a tuple of (generator,
exponent) syllables with nonzero arbitrary-precision exponents and no two
adjacent syllables sharing a generator.  The empty tuple is the identity.
Keeping exponent runs symbolic means words like b^(1-k(p-l)) stay small no
matter how large the parameters get; positions in rewriting certificates
refer to the fully unrolled letter sequence instead, so they are
independent of this encoding.  ``letter_text`` is the one unrolled form,
one character a letter with an inverse in upper case.

Only construction validates letters and runs a full free reduction:
``Word(...)`` checks each letter, and ``parse_word`` matches the whole
text against a grammar that admits letters a-z only, so it reduces the
terms it reads without checking them again.  The algebra
keeps words reduced without one, and grows a word in two kernels only.
``_seam`` finds where two reduced words meet, merging or cancelling only
there.  A product, and each image piece a substitution appends, calls it
only where the last generator of one side is the first of the other;
elsewhere nothing can merge, and the two are concatenated.  A
substitution builds each distinct syllable's image power once, and the
substitutions of one check share one SUBSTITUTE_BUDGET.  A power
is built in one tuple from the core left when ``_peel`` takes the
conjugator off its base, and ``cyclic_reduce`` peels the same way.
Both kernels compute the syllable count of their result and hold it to
MAX_LETTERS before they build it, and so does a plain concatenation.
Every refusal over MAX_LETTERS, here and in the modules that unroll
words, is worded by ``over_cap``.
``word_from_text`` reduces text the package made without validating its
letters again.

All values are immutable and all operations are pure, but for the count
that calls of ``substitute`` may share.
"""

from __future__ import annotations

import re
from typing import Iterable, Mapping, Sequence

Syllable = tuple[str, int]

# Cap on the letters a word is unrolled into and on the syllables one is built of.
MAX_LETTERS = 1_000_000

# Cap on the image syllables the substitutions sharing a count emit, and so on their seam walks.
SUBSTITUTE_BUDGET = 3_000_000

# Characters of text a message quotes: abbreviate_word keeps the whole
# syllables that fit, abbreviate_text cuts any other text there.
MESSAGE_WORD_CHARS = 200

# A run of one repeated character in letter text.
_RUN = re.compile(r"(.)\1*")


class WordSyntaxError(ValueError):
    """Raised by parse_word; carries the offending text position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class SubstitutionError(ValueError):
    """A generator in the word has no image under the substitution."""


def over_cap(what: str, size: int, unit: str) -> ValueError:
    """The one refusal of work over the cap: ``what`` would have ``size``
    ``unit`` (syllables or letters), more than MAX_LETTERS."""
    return ValueError(f"{what} would have {size} {unit}, over the cap MAX_LETTERS = {MAX_LETTERS}")


def abbreviate_text(text: str) -> str:
    """``text`` for a message: past MESSAGE_WORD_CHARS characters it is cut
    there and its length given, so outside input cannot blow up a message."""
    if len(text) <= MESSAGE_WORD_CHARS:
        return text
    return f"{text[:MESSAGE_WORD_CHARS]}… ({len(text)} characters)"


def _free_reduce(raw: Iterable[Syllable]) -> tuple[Syllable, ...]:
    """One-pass free reduction of syllables whose letters are valid."""
    out: list[Syllable] = []
    for gen, exp in raw:
        if exp == 0:
            continue
        if out and out[-1][0] == gen:
            exp += out[-1][1]
            if exp:
                out[-1] = (gen, exp)
            else:
                out.pop()
        else:
            out.append((gen, exp))
    return tuple(out)


def _seam(
    left: Sequence[Syllable], right: tuple[Syllable, ...]
) -> tuple[int, tuple[Syllable, ...], int]:
    """Where the reduced ``left`` and ``right`` meet: their reduced
    product is left[:i] + mid + right[j:], ``mid`` the one merged syllable
    that survives, if any.

    Only the seam can merge or cancel; work inward from it until a merge
    survives.  Refuses, before anything is built, a result of more than
    MAX_LETTERS syllables.
    """
    i, j, n = len(left), 0, len(right)
    while i and j < n and left[i - 1][0] == right[j][0]:
        i -= 1
        gen, exp = right[j]
        exp += left[i][1]
        j += 1
        if exp:
            mid = ((gen, exp),)
            break
    else:
        mid = ()
    if (size := i + len(mid) + n - j) > MAX_LETTERS:
        raise over_cap("a product", size, "syllables")
    return i, mid, j


def _peel(syl: tuple[Syllable, ...]) -> tuple[int, int]:
    """The bounds lo, hi of what is left when the end syllables of ``syl``
    are peeled inward while they cancel exactly: syl = u syl[lo:hi+1] u^-1."""
    lo, hi = 0, len(syl) - 1
    while lo < hi and syl[lo][0] == syl[hi][0] and syl[lo][1] == -syl[hi][1]:
        lo += 1
        hi -= 1
    return lo, hi


class Word:
    """A freely reduced word; construction validates and reduces its argument.

    Only construction validates letters and runs the full reduction
    ``_free_reduce``.  Products reduce only at the seam where the two
    already reduced factors meet (``_seam``), and powers are built in
    closed form; the tests check both against the full reduction.

    The identity is ``Word()``.  By convention the identity is *not*
    positive (see :func:`is_positive`).
    """

    __slots__ = ("syllables",)

    def __init__(self, raw: Iterable[Syllable] = ()):
        raw = list(raw)
        for gen, _ in raw:
            if not (isinstance(gen, str) and len(gen) == 1 and "a" <= gen <= "z"):
                shown = abbreviate_text(repr(gen))
                raise ValueError(f"generator must be a single letter a-z, got {shown}")
        self.syllables: tuple[Syllable, ...] = _free_reduce(raw)

    def __eq__(self, other) -> bool:
        return isinstance(other, Word) and self.syllables == other.syllables

    def __hash__(self) -> int:
        return hash(self.syllables)

    def __bool__(self) -> bool:
        return bool(self.syllables)

    @classmethod
    def _trusted(cls, syllables: tuple[Syllable, ...]) -> "Word":
        """Wrap syllables that are already validated and reduced."""
        w = object.__new__(cls)
        w.syllables = syllables
        return w

    def __mul__(self, other: "Word") -> "Word":
        left, right = self.syllables, other.syllables
        if left and right and left[-1][0] == right[0][0]:
            i, mid, j = _seam(left, right)
            return Word._trusted(left[:i] + mid + right[j:])
        if (size := len(left) + len(right)) > MAX_LETTERS:
            raise over_cap("a product", size, "syllables")
        return Word._trusted(left + right)

    def __invert__(self) -> "Word":
        return Word._trusted(tuple((g, -e) for g, e in reversed(self.syllables)))

    def __pow__(self, n: int) -> "Word":
        # Closed form: peel the conjugator u off w = u c u^-1 until the end
        # syllables of the core c no longer cancel, so w^n = u c^n u^-1.
        # Each piece below is reduced and meets its neighbours over
        # distinct generators, so the joined tuple needs no reduction.
        if n == 1:
            return self
        syl = self.syllables
        if n == 0 or not syl:
            return _IDENTITY
        if n < 0:
            syl = tuple((g, -e) for g, e in reversed(syl))
            n = -n
        lo, hi = _peel(syl)
        core = syl[lo : hi + 1]
        first, last = core[0], core[-1]
        # Each copy after the first adds the core less the fold, if any.
        size = 2 * lo + len(core) + (len(core) - (first[0] == last[0])) * (n - 1)
        if size > MAX_LETTERS:
            raise over_cap(f"a power of ({abbreviate_word(self)})", size, "syllables")
        if lo == hi:
            power = ((first[0], first[1] * n),)
        elif first[0] == last[0]:
            # The core's ends fold together between consecutive copies.
            inner = core[1:-1]
            merged = (first[0], first[1] + last[1])
            power = core[:1] + (inner + (merged,)) * (n - 1) + inner + core[-1:]
        else:
            power = core * n
        return Word._trusted(syl[:lo] + power + syl[hi + 1 :])

    def __repr__(self) -> str:
        return f"Word({abbreviate_word(self)!r})"

    @property
    def letter_length(self) -> int:
        """Total number of letters once exponent runs are unrolled."""
        return sum(abs(e) for _, e in self.syllables)

    def generators(self) -> set[str]:
        return {g for g, _ in self.syllables}


_IDENTITY = Word._trusted(())


def substitute(w: Word, images: Mapping[str, Word], spent: list[int] | None = None) -> Word:
    """Homomorphic image of ``w`` under generator -> word assignments.

    Every generator occurring in ``w`` must have an image; the result is
    reduced, so substitute(u*v) == substitute(u) * substitute(v).  Each
    distinct syllable's image power is built once a call and its piece
    reused wherever the syllable recurs.  A piece is joined as in a
    product: it is appended outright where its first generator differs
    from the last one emitted, and meets what came before at a seam
    otherwise, so the running total is held to MAX_LETTERS syllables.
    The seam walk can only cancel what was emitted, so the image syllables
    emitted in all, repeats included, are held to SUBSTITUTE_BUDGET.  The
    calls that pass one ``spent``, a one-item list of the count, share
    one budget: each starts from the count and leaves its own added.
    """
    out: list[Syllable] = []
    pieces: dict[Syllable, tuple[Syllable, ...]] = {}
    emitted = 0 if spent is None else spent[0]
    for syllable in w.syllables:
        piece = pieces.get(syllable)
        if piece is None:
            gen, exp = syllable
            if gen not in images:
                raise SubstitutionError(f"no image for generator {gen!r}")
            piece = pieces[syllable] = (images[gen] ** exp).syllables
        emitted += len(piece)
        if emitted > SUBSTITUTE_BUDGET:
            raise ValueError(
                f"a substitution would emit {emitted} image syllables, "
                f"over the budget SUBSTITUTE_BUDGET = {SUBSTITUTE_BUDGET}"
            )
        if out and piece and out[-1][0] == piece[0][0]:
            i, mid, j = _seam(out, piece)
            out[i:] = mid
            out += piece[j:]
        elif (size := len(out) + len(piece)) > MAX_LETTERS:
            raise over_cap("a product", size, "syllables")
        else:
            out += piece
    if spent is not None:
        spent[0] = emitted
    return Word._trusted(tuple(out))


def exponent_sum(w: Word, gen: str) -> int:
    return sum(e for g, e in w.syllables if g == gen)


def is_positive(w: Word) -> bool:
    """True iff ``w`` is nonempty and uses only positive powers.

    The identity is not positive: certificates need at least one genuine
    occurrence of the distinguished generator.
    """
    return bool(w.syllables) and all(e > 0 for _, e in w.syllables)


def letter_text(w: Word) -> str:
    """The unrolled letters, one character each with an inverse in upper
    case: the one unrolled form of a word.  Refuses, before any work, to
    unroll more than MAX_LETTERS letters."""
    if (size := w.letter_length) > MAX_LETTERS:
        raise over_cap("the unrolled word", size, "letters")
    return "".join((g if e > 0 else g.upper()) * abs(e) for g, e in w.syllables)


def word_from_text(text: str) -> Word:
    """The reduced word of letter text made by ``letter_text`` or spliced
    from it; its letters are not validated again."""
    runs = (m.group() for m in _RUN.finditer(text))
    return Word._trusted(
        _free_reduce((r[0].lower(), len(r) if r[0].islower() else -len(r)) for r in runs)
    )


def cyclic_reduce(w: Word) -> Word:
    """Conjugate ``w`` to a cyclically reduced core.

    The end syllables are peeled inward while they cancel; if the ends
    left share a generator, they are folded into one syllable, placed last.
    """
    syl = w.syllables
    lo, hi = _peel(syl)
    if lo < hi and syl[lo][0] == syl[hi][0]:
        # syl[hi - 1] and the fold are over distinct generators, so
        # appending the fold needs no reduction.
        return Word._trusted(syl[lo + 1 : hi] + ((syl[hi][0], syl[lo][1] + syl[hi][1]),))
    return Word._trusted(syl[lo : hi + 1])


def is_cyclic_rotation(u: Word, v: Word) -> bool:
    """True iff the letter sequences of u and v are cyclic rotations; one
    substring search of u's letter text in v's doubled, linear in letters."""
    a, b = letter_text(u), letter_text(v)
    return len(a) == len(b) and a in b + b


# The word grammar over a whole text, and one term of it.  Terms are
# separated by ASCII whitespace only.  An exponent has at most 640 digits,
# as many as int() converts under any interpreter setting.
_WORD = re.compile(r"(?:[ \t\n\r\f\v]*[a-z](?:\^-?[0-9]{1,640}(?![0-9]))?)*[ \t\n\r\f\v]*")
_TERM = re.compile(r"([a-z])(?:\^(-?[0-9]+))?")


def parse_word(text: str) -> Word:
    """Parse the word grammar: terms ``letter`` or ``letter^int``.

    ASCII whitespace separates terms; an omitted exponent means 1; the empty
    string is the identity; an exponent is at most 640 ASCII digits.  One
    grammar match reads the text and one findall its terms.  Where the
    match stops short, the character there names the error: ``^`` right
    after a letter is a malformed exponent, any other ``^`` an exponent
    without a generator.
    """
    end = _WORD.match(text).end()
    if end < len(text):
        if text[end] != "^":
            raise WordSyntaxError(f"unexpected character {text[end]!r}", end)
        if text[end - 1 : end].isalpha():
            raise WordSyntaxError("malformed exponent", end)
        raise WordSyntaxError("exponent without a generator", end)
    raw = [(gen, int(exp) if exp else 1) for gen, exp in _TERM.findall(text)]
    return Word._trusted(_free_reduce(raw))


def format_word(w: Word) -> str:
    """Minimal canonical text; inverse of parse_word on canonical words."""
    return " ".join(g if e == 1 else f"{g}^{e}" for g, e in w.syllables)


def abbreviate_word(w: Word) -> str:
    """format_word for messages and reprs: a word whose text would pass
    MESSAGE_WORD_CHARS characters shows the whole syllables that fit,
    then its syllable count, so hostile input cannot blow up a message."""
    parts, size = [], -1
    for g, e in w.syllables:
        part = g if e == 1 else f"{g}^{e}"
        size += len(part) + 1
        if size > MESSAGE_WORD_CHARS:
            parts.append(f"… ({len(w.syllables)} syllables)")
            break
        parts.append(part)
    return " ".join(parts)
