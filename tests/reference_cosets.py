"""Slow reference Todd-Coxeter enumerator.

This is the closure-based enumerator that `nlo.cosets.todd_coxeter`
replaced: a row per coset and one small function per operation (find,
define, follow, trace, unify).  The tests require the fast enumerator to
return exactly the table this one returns, capped tables included.
"""

from __future__ import annotations

from nlo.cosets import (
    CAPPED,
    COMPLETE,
    DEFAULT_MAX_COSETS,
    UNDEFINED,
    CosetTable,
    _check_closure,
)
from nlo.families import Presentation
from nlo.words import Word


class _Capped(Exception):
    pass


def _word_cols(w: Word, generators: tuple[str, ...]) -> list[int]:
    index = {g: i for i, g in enumerate(generators)}
    return [2 * index[g] + (0 if e > 0 else 1) for g, e in w.syllables for _ in range(abs(e))]


def todd_coxeter(
    pres: Presentation,
    subgroup: list[Word] | tuple[Word, ...] = (),
    max_cosets: int = DEFAULT_MAX_COSETS,
) -> CosetTable:
    """Enumerate cosets of the subgroup generated by ``subgroup``.

    Returns a complete table (the subgroup then has index equal to the
    row count) or a capped partial table when more than ``max_cosets``
    coset definitions would be needed.
    """
    cap = max_cosets
    if cap < 1:
        raise ValueError("max_cosets must be at least 1")
    ncols = 2 * len(pres.generators)
    relator_cols = [_word_cols(r, pres.generators) for r in pres.relators]
    subgroup_cols = [_word_cols(w, pres.generators) for w in subgroup]

    parent = [0]
    neighbors = [[UNDEFINED] * ncols]

    def find(c: int) -> int:
        root = c
        while parent[root] != root:
            root = parent[root]
        while parent[c] != root:
            parent[c], c = root, parent[c]
        return root

    def define() -> int:
        if len(parent) >= cap:
            raise _Capped
        c = len(parent)
        parent.append(c)
        neighbors.append([UNDEFINED] * ncols)
        return c

    def follow(c: int, col: int) -> int:
        c = find(c)
        row = neighbors[c]
        if row[col] == UNDEFINED:
            n = define()
            row[col] = n
            neighbors[n][col ^ 1] = c
        return find(row[col])

    def trace(c: int, cols: list[int]) -> int:
        for col in cols:
            c = follow(c, col)
        return c

    def unify(c1: int, c2: int) -> None:
        queue = [(c1, c2)]
        while queue:
            a, b = queue.pop()
            a, b = find(a), find(b)
            if a == b:
                continue
            a, b = min(a, b), max(a, b)
            parent[b] = a
            for col in range(ncols):
                n1 = neighbors[a][col]
                n2 = neighbors[b][col]
                if n1 == UNDEFINED:
                    neighbors[a][col] = n2
                elif n2 != UNDEFINED:
                    queue.append((n1, n2))

    status = COMPLETE
    try:
        for cols in subgroup_cols:
            unify(trace(0, cols), find(0))
        to_visit = 0
        while to_visit < len(parent):
            c = find(to_visit)
            if c == to_visit:
                for cols in relator_cols:
                    unify(trace(c, cols), c)
                if find(to_visit) == to_visit:
                    for col in range(ncols):
                        follow(to_visit, col)
            to_visit += 1
    except _Capped:
        status = CAPPED

    live = [c for c in range(len(parent)) if find(c) == c]
    renumber = {c: i for i, c in enumerate(live)}
    rows = []
    for c in live:
        row = []
        for entry in neighbors[c]:
            row.append(UNDEFINED if entry == UNDEFINED else renumber[find(entry)])
        rows.append(row)
    # Identity labels: each row is its own live coset.
    n = len(rows)
    columns = [list(col) for col in zip(*rows)]
    table = CosetTable(pres.generators, status, tuple(subgroup), n, list(range(n)), columns, n)

    if status == COMPLETE:
        _check_closure(table, pres.relators)
    return table
