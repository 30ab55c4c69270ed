"""Bounded breadth-first rewrite search over relator insertions.

The search *discovers* trace steps; the ``nlo`` package only builds and
replays them.  Every step it tries inserts a cyclic rotation of one
relator, or of its inverse, at one letter position: a ``TraceStep`` with
an empty left side.  It is the engine of ``search_positive_ell2.py`` and
the slow reference that the tests hold the step ``certify`` takes from
its closed form to.  Import it with ``scripts/`` on the module path.
"""

from __future__ import annotations

from typing import Iterator

from nlo.presentation import TraceStep, apply_relation
from nlo.words import Word, cyclic_reduce, letter_text, word_from_text

DEFAULT_NODE_CAP = 100_000


class SearchCapExceeded(RuntimeError):
    """The rewrite search visited more nodes than its configured cap."""


def _insertion_words(relator: Word) -> list[Word]:
    """The cyclic rotations of ``relator`` and of its inverse: the right
    sides of the steps that insert them.

    Enumeration order is fixed (relator rotations first, then inverse
    rotations, each by increasing letter offset) so searches are
    deterministic.  The core is cyclically reduced, so every rotation of
    its letters is again a reduced word.
    """
    core = cyclic_reduce(relator)
    words = []
    for base in (core, ~core):
        text = letter_text(base)
        for j in range(len(text) or 1):
            words.append(word_from_text(text[j:] + text[:j]))
    return words


def _successors(w: Word, insertions: list[Word]) -> Iterator[tuple[TraceStep, Word]]:
    empty = Word()
    for pos in range(w.letter_length + 1):
        for rhs in insertions:
            step = TraceStep(empty, rhs, 0, pos)
            yield step, apply_relation(w, step)


def find_relation_applications(
    w: Word,
    relator: Word,
    max_steps: int,
    *,
    node_cap: int = DEFAULT_NODE_CAP,
) -> list[tuple[tuple[TraceStep, ...], Word]]:
    """Breadth-first enumeration of words reachable from ``w`` by at most
    ``max_steps`` applications of ``relator``.

    Each application, a step against relator 0, inserts a cyclic rotation
    of ``relator`` or of its inverse, at every letter position.  Results
    are deduplicated by word, each kept with a shortest discovering trace,
    in deterministic order.
    """
    if max_steps < 0:
        raise ValueError("max_steps must be nonnegative")
    insertions = _insertion_words(relator)
    visited: dict[Word, tuple[TraceStep, ...]] = {w: ()}
    results: list[tuple[tuple[TraceStep, ...], Word]] = [((), w)]
    frontier = [w]
    for _ in range(max_steps):
        next_frontier: list[Word] = []
        for node in frontier:
            trace = visited[node]
            for step, result in _successors(node, insertions):
                if result in visited:
                    continue
                if len(visited) >= node_cap:
                    raise SearchCapExceeded(
                        f"rewrite search exceeded node cap {node_cap}"
                    )
                visited[result] = trace + (step,)
                results.append((visited[result], result))
                next_frontier.append(result)
        frontier = next_frontier
        if not frontier:
            break
    return results
