"""Bounded breadth-first rewrite search over relator insertions.

The search *discovers* rewrite steps; the ``nlo`` package only builds and
replays them.  It is the engine of ``search_positive_ell2.py`` and the slow
reference that the tests hold the step ``certify`` takes from its closed
form to.  Import it with ``scripts/`` on the module path.
"""

from __future__ import annotations

from typing import Iterator

from nlo.presentation import Relation, RewriteStep, TraceStep, apply_relation
from nlo.words import Word, cyclic_reduce, letter_text, word_from_text

DEFAULT_NODE_CAP = 100_000


class SearchCapExceeded(RuntimeError):
    """The rewrite search visited more nodes than its configured cap."""


def _insertion_relations(relator: Word) -> list[Relation]:
    """Relations lhs = rhs with empty lhs whose application inserts a
    cyclic rotation of ``relator`` or of its inverse.

    Enumeration order is fixed (relator rotations first, then inverse
    rotations, each by increasing letter offset) so searches are
    deterministic.  The core is cyclically reduced, so every rotation of
    its letters is again a reduced word.
    """
    core = cyclic_reduce(relator)
    rels = []
    for base in (core, ~core):
        text = letter_text(base)
        for j in range(len(text) or 1):
            rels.append(Relation(Word(), word_from_text(text[j:] + text[:j])))
    return rels


def _successors(
    w: Word, relations: list[Relation], relator_index: int
) -> Iterator[tuple[TraceStep, Word]]:
    length = w.letter_length
    for pos in range(length + 1):
        for rel in relations:
            step = RewriteStep(relator_index, pos)
            yield (rel, step), apply_relation(w, rel, step)


def find_relation_applications(
    w: Word,
    rel: Relation,
    max_steps: int,
    *,
    relator_index: int = 0,
    node_cap: int = DEFAULT_NODE_CAP,
) -> list[tuple[tuple[TraceStep, ...], Word]]:
    """Breadth-first enumeration of words reachable from ``w`` by at most
    ``max_steps`` applications of ``rel``.

    Each application inserts a cyclic rotation of the relator of ``rel``
    or of its inverse, at every letter position.  Results are deduplicated
    by word, each kept with a shortest discovering trace, in deterministic
    order.
    """
    if max_steps < 0:
        raise ValueError("max_steps must be nonnegative")
    relations = _insertion_relations(rel.relator())
    visited: dict[Word, tuple[TraceStep, ...]] = {w: ()}
    results: list[tuple[tuple[TraceStep, ...], Word]] = [((), w)]
    frontier = [w]
    for _ in range(max_steps):
        next_frontier: list[Word] = []
        for node in frontier:
            trace = visited[node]
            for trace_step, result in _successors(node, relations, relator_index):
                if result in visited:
                    continue
                if len(visited) >= node_cap:
                    raise SearchCapExceeded(
                        f"rewrite search exceeded node cap {node_cap}"
                    )
                visited[result] = trace + (trace_step,)
                results.append((visited[result], result))
                next_frontier.append(result)
        frontier = next_frontier
        if not frontier:
            break
    return results
