"""Trace rewriting: single relator steps, their replay, and generator
changes, which are records only (``verify_certificate`` checks that a
change round trips).  In the package only ``nlo.certificates`` imports
this module, so a command that reads or writes no certificate never loads
it; the ``Presentation`` whose relators a step names is in ``nlo.families``.

A trace step names an equality lhs = rhs, the relator that backs it and a
letter position: it replaces the occurrence of lhs at that position of a
word's unrolled letter sequence by rhs, never the reverse (the reverse
rewrite is the step with the sides swapped).  Steps work on the letter
text of ``nlo.words``: an occurrence is a prefix test at the step's
position and the rewrite a splice, read back without validating again.
A step's equality is admitted up to cyclic rotation of its relator (or
its inverse): group relations hold up to conjugation, and the rewrites
appearing in certificates need rotated forms to replay displayed
computations letter-for-letter.  Nothing here searches: steps are built
from a named rotation and position, or replayed from a recorded trace.
The bounded search that *discovers* steps lives in
scripts/rewrite_search.py, outside the package.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

from .words import (
    MAX_LETTERS,
    Record,
    Word,
    abbreviate_int,
    cyclic_reduce,
    is_cyclic_rotation,
    letter_text,
    over_cap,
    word_from_text,
)


class TraceStep(Record):
    """One relator application: replace the occurrence of ``lhs`` at
    letter ``position`` by ``rhs``, where lhs = rhs is a cyclic form of
    relator ``relator_index``.

    ``position`` indexes the fully unrolled letter sequence of the word
    being rewritten, so the step is independent of run-length encoding.
    """

    def __init__(self, lhs: Word, rhs: Word, relator_index: int, position: int):
        if position < 0:
            raise ValueError("position must be nonnegative")
        self._set(lhs=lhs, rhs=rhs, relator_index=relator_index, position=position)

    def matches_relator(self, relator: Word) -> bool:
        """True iff lhs = rhs is a consequence of one application of
        ``relator``: lhs rhs^-1 must be a cyclic rotation of ``relator``
        or of its inverse."""
        core = cyclic_reduce(self.lhs * ~self.rhs)
        target = cyclic_reduce(relator)
        return is_cyclic_rotation(core, target) or is_cyclic_rotation(core, ~target)


class GeneratorChange(Record):
    """Substitutions between two alphabets, a plain record.

    ``forward`` maps each old generator to a word over the new alphabet,
    ``backward`` each new generator to a word over the old one.  That the
    two are mutually inverse is a clause of ``verify_certificate``, not
    checked here.
    """

    def __init__(self, forward: Mapping[str, Word], backward: Mapping[str, Word]):
        self._set(forward=forward, backward=backward)


def apply_relation(w: Word, step: TraceStep) -> Word:
    """Replace one occurrence of ``step.lhs`` inside ``w`` by ``step.rhs``.

    The left side must occur letter-for-letter at ``step.position`` in
    the unrolled expansion of ``w`` (an empty side occurs at every
    position, which realizes insertion of a rotated relator).  The result
    is reduced and equals ``w`` in any group where lhs = rhs holds.  The
    reverse rewrite is the step with the sides swapped.
    """
    text = letter_text(w)
    src = letter_text(step.lhs)
    pos = step.position
    if pos > len(text) - len(src):
        raise ValueError(
            f"no room for a length-{len(src)} occurrence at {abbreviate_int('position', pos)} "
            f"in a word of {len(text)} letters"
        )
    if not text.startswith(src, pos):
        raise ValueError(f"occurrence mismatch at position {pos}")
    return word_from_text(text[:pos] + letter_text(step.rhs) + text[pos + len(src):])


def replay_trace(w: Word, trace: Iterable[TraceStep], relators: tuple[Word, ...]) -> Word:
    """Replay a recorded trace, validating every step against ``relators``.

    Raises ValueError when a step's equality is not backed by the stated
    relator or its occurrence check fails.  Each step unrolls the word it
    rewrites, so the letters of the words rewritten after the first step
    are summed, and the replay is refused through ``over_cap`` once the sum
    passes MAX_LETTERS (``letter_text`` holds the first word to it): its
    work is bounded whatever the trace's length.  No searching happens here.
    """
    current, spent = w, 0
    for step in trace:
        if not 0 <= step.relator_index < len(relators):
            raise ValueError(
                f"{abbreviate_int('relator index', step.relator_index)} out of range"
            )
        if not step.matches_relator(relators[step.relator_index]):
            raise ValueError(
                f"relation {step.lhs!r} = {step.rhs!r} is not a cyclic form of "
                f"relator {step.relator_index}"
            )
        if spent > MAX_LETTERS:
            raise over_cap("the words the trace rewrites", spent, "letters")
        current = apply_relation(current, step)
        spent += current.letter_length
    return current


def insertion_step(relator: Word, offset: int, position: int) -> TraceStep:
    """The step, against relator 0, that inserts the inverse of the cyclic
    core of ``relator`` rotated by ``offset`` letters (mod its length) at
    letter ``position``: one of the steps that the rewrite search in
    scripts/rewrite_search.py tries, built from one rotation."""
    text = letter_text(~cyclic_reduce(relator))
    offset %= len(text)
    return TraceStep(Word(), word_from_text(text[offset:] + text[:offset]), 0, position)
