"""Finitely presented groups: relators, single-step rewriting, and
generator changes.

A presentation is generators and relators only; the meridian and framing
of a knot live beside it in ``families.KnotData``.

A rewrite step replaces one occurrence of a relation's left side inside a
word's unrolled letter sequence by its right side, never the reverse: the
reverse rewrite is a step on the swapped relation.  Steps work on the
letter text of ``nlo.words``: an occurrence is a prefix test at the step's
position and the rewrite a splice, read back without validating again.
Relations are admitted up to cyclic rotation of a stored relator (or its
inverse): group relations hold up to conjugation, and the rewrites
appearing in certificates need rotated forms to replay displayed
computations letter-for-letter.  Nothing here
searches: steps are built from a named rotation and position, or replayed
from a recorded trace.  The bounded search that *discovers* steps lives in
scripts/rewrite_search.py, outside the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .words import (
    Word,
    cyclic_reduce,
    is_cyclic_rotation,
    letter_text,
    substitute,
    word_from_text,
)

class RewriteError(ValueError):
    """The addressed occurrence does not match the stated relation side."""


class RoundTripError(ValueError):
    """Forward/backward generator maps are not mutually inverse."""


@dataclass(frozen=True)
class Relation:
    """An oriented equality lhs = rhs between two reduced words."""

    lhs: Word
    rhs: Word

    def relator(self) -> Word:
        return self.lhs * ~self.rhs

    def matches_relator(self, relator: Word) -> bool:
        """True iff lhs = rhs is a consequence of one application of
        ``relator``: the relation's own relator form must be a cyclic
        rotation of ``relator`` or of its inverse."""
        core = cyclic_reduce(self.relator())
        target = cyclic_reduce(relator)
        return is_cyclic_rotation(core, target) or is_cyclic_rotation(core, ~target)


@dataclass(frozen=True)
class RewriteStep:
    """Address of a single relation application.

    ``position`` indexes the fully unrolled letter sequence of the word
    being rewritten, so the step is independent of run-length encoding.
    """

    relator_index: int
    position: int

    def __post_init__(self):
        if self.position < 0:
            raise ValueError("position must be nonnegative")


# A trace pairs each step with the concrete relation it applies, making
# certificates replayable without any search.
TraceStep = tuple[Relation, RewriteStep]


@dataclass
class Presentation:
    """Generators and reduced relators."""

    generators: tuple[str, ...]
    relators: tuple[Word, ...] = ()

    def __post_init__(self):
        self.generators = tuple(self.generators)
        self.relators = tuple(self.relators)
        if len(set(self.generators)) != len(self.generators) or not self.generators:
            raise ValueError("alphabet must be nonempty with unique generators")
        alphabet = set(self.generators)
        for r in self.relators:
            if not r.generators() <= alphabet:
                raise ValueError(f"relator {r!r} uses generators outside the alphabet")

    def with_relator(self, relator: Word) -> "Presentation":
        return Presentation(self.generators, self.relators + (relator,))


@dataclass(frozen=True)
class GeneratorChange:
    """Mutually inverse substitutions between two alphabets.

    ``forward`` maps each old generator to a word over the new alphabet,
    ``backward`` each new generator to a word over the old one.  Both
    round trips are verified at construction.
    """

    forward: Mapping[str, Word]
    backward: Mapping[str, Word]

    def __post_init__(self):
        object.__setattr__(self, "forward", dict(self.forward))
        object.__setattr__(self, "backward", dict(self.backward))
        for gen in self.forward:
            got = substitute(substitute(Word([(gen, 1)]), self.forward), self.backward)
            if got != Word([(gen, 1)]):
                raise RoundTripError(
                    f"backward(forward({gen})) = {got!r}, expected {gen}"
                )
        for gen in self.backward:
            got = substitute(substitute(Word([(gen, 1)]), self.backward), self.forward)
            if got != Word([(gen, 1)]):
                raise RoundTripError(
                    f"forward(backward({gen})) = {got!r}, expected {gen}"
                )

    @property
    def old_generators(self) -> tuple[str, ...]:
        return tuple(self.forward)

    @property
    def new_generators(self) -> tuple[str, ...]:
        return tuple(self.backward)


def apply_relation(w: Word, rel: Relation, step: RewriteStep) -> Word:
    """Replace one occurrence of ``rel.lhs`` inside ``w`` by ``rel.rhs``.

    The left side must occur letter-for-letter at ``step.position`` in
    the unrolled expansion of ``w`` (an empty side occurs at every
    position, which realizes insertion of a rotated relator).  The result
    is reduced and equals ``w`` in any group where lhs = rhs holds.  The
    reverse rewrite is the step on ``Relation(rel.rhs, rel.lhs)``.
    """
    text = letter_text(w)
    src = letter_text(rel.lhs)
    pos = step.position
    if pos > len(text) - len(src):
        raise RewriteError(
            f"no room for a length-{len(src)} occurrence at position {pos} "
            f"in a word of {len(text)} letters"
        )
    if not text.startswith(src, pos):
        raise RewriteError(f"occurrence mismatch at position {pos}")
    return word_from_text(text[:pos] + letter_text(rel.rhs) + text[pos + len(src):])


def replay_trace(w: Word, trace: Iterable[TraceStep], relators: tuple[Word, ...]) -> Word:
    """Replay a recorded trace, validating every step against ``relators``.

    Raises RewriteError when a step's relation is not backed by the stated
    relator or its occurrence check fails.  No searching happens here.
    """
    current = w
    for rel, step in trace:
        if not 0 <= step.relator_index < len(relators):
            raise RewriteError(f"relator index {step.relator_index} out of range")
        if not rel.matches_relator(relators[step.relator_index]):
            raise RewriteError(
                f"relation {rel!r} is not a cyclic form of relator "
                f"{step.relator_index}"
            )
        current = apply_relation(current, rel, step)
    return current


def insertion_step(relator: Word, offset: int, position: int) -> TraceStep:
    """The step, against relator 0, that inserts the inverse of the cyclic
    core of ``relator`` rotated by ``offset`` letters (mod its length) at
    letter ``position``: one of the steps that the rewrite search in
    scripts/rewrite_search.py tries, built from one rotation."""
    text = letter_text(~cyclic_reduce(relator))
    offset %= len(text)
    rel = Relation(Word(), word_from_text(text[offset:] + text[:offset]))
    return rel, RewriteStep(0, position)
