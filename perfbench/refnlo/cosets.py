"""Bounded Todd-Coxeter coset enumeration.

The enumerator builds the Schreier graph of the coset action with a
union-find over coset labels: scanning a relator (or a subgroup generator
word) from a coset defines missing edges on the fly and identifies the two
endpoints, and identifications cascade by merging neighbor rows.  Cosets
are visited and edges defined in a fixed deterministic order, so two runs
on the same input produce identical tables.

Enumerations are bounded by a cap on coset definitions (including cosets
later merged away); hitting the cap yields a table with status "capped",
which is a result, not an error.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .families import KnotData, Slope, surgery_presentation
from .presentation import Presentation
from .words import Word, letters

DEFAULT_MAX_COSETS = 10**6
ENV_MAX_COSETS = "NLO_MAX_COSETS"

COMPLETE = "complete"
CAPPED = "capped"

UNDEFINED = -1


def resolve_max_cosets(explicit: int | None = None) -> int:
    """Effective definition cap: explicit argument, else the
    NLO_MAX_COSETS environment variable, else the default."""
    if explicit is not None:
        return explicit
    env = os.environ.get(ENV_MAX_COSETS)
    if env is not None:
        return int(env)
    return DEFAULT_MAX_COSETS


class _Capped(Exception):
    pass


@dataclass
class CosetTable:
    """Closed (or capped partial) coset table.

    Rows are cosets, row 0 the subgroup coset; columns alternate
    generator and inverse-generator images.  Entries of a complete table
    are all defined and closed under every relator and subgroup word.
    """

    generators: tuple[str, ...]
    rows: list[list[int]]
    status: str
    subgroup: tuple[Word, ...]

    @property
    def num_cosets(self) -> int:
        return len(self.rows)

    def is_complete(self) -> bool:
        return self.status == COMPLETE

    def _column(self, gen: str, sign: int) -> int:
        idx = self.generators.index(gen)
        return 2 * idx + (0 if sign > 0 else 1)

    def action(self, w: Word) -> list[int]:
        """Permutation induced by right multiplication on the cosets."""
        if not self.is_complete():
            raise ValueError("coset action requires a complete table")
        cols = [self._column(g, s) for g, s in letters(w)]
        out = []
        for start in range(self.num_cosets):
            c = start
            for col in cols:
                c = self.rows[c][col]
            out.append(c)
        return out

    def to_csv(self) -> str:
        """Rows as CSV, cosets numbered from 1, blank for undefined."""
        header = ["coset"]
        for g in self.generators:
            header.extend([g, f"{g}^-1"])
        lines = [",".join(header)]
        for i, row in enumerate(self.rows):
            cells = [str(i + 1)]
            cells.extend("" if e == UNDEFINED else str(e + 1) for e in row)
            lines.append(",".join(cells))
        return "\n".join(lines)


def _word_cols(w: Word, generators: tuple[str, ...]) -> list[int]:
    index = {g: i for i, g in enumerate(generators)}
    return [2 * index[g] + (0 if s > 0 else 1) for g, s in letters(w)]


def todd_coxeter(
    pres: Presentation,
    subgroup: list[Word] | tuple[Word, ...] = (),
    max_cosets: int | None = None,
) -> CosetTable:
    """Enumerate cosets of the subgroup generated by ``subgroup``.

    Returns a complete table (the subgroup then has index equal to the
    row count) or a capped partial table when more than ``max_cosets``
    coset definitions would be needed.
    """
    cap = resolve_max_cosets(max_cosets)
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
    table = CosetTable(pres.generators, rows, status, tuple(subgroup))

    if status == COMPLETE:
        _check_closure(table, relator_cols, subgroup_cols)
    return table


def _check_closure(
    table: CosetTable, relator_cols: list[list[int]], subgroup_cols: list[list[int]]
) -> None:
    for row in table.rows:
        if UNDEFINED in row:
            raise RuntimeError("complete table has undefined entries")
    for cols in relator_cols:
        for start in range(table.num_cosets):
            c = start
            for col in cols:
                c = table.rows[c][col]
            if c != start:
                raise RuntimeError("complete table is not closed under a relator")
    for cols in subgroup_cols:
        c = 0
        for col in cols:
            c = table.rows[c][col]
        if c != 0:
            raise RuntimeError("row 0 is not fixed by a subgroup generator")


@dataclass(frozen=True)
class CommutationReport:
    """Outcome of the peripheral commutation battery.

    ``consistent`` means the commutator of the meridian and the framing
    acted trivially in every complete enumeration found; it is evidence,
    never a proof.
    """

    consistent: bool
    complete_enumerations: int
    checked: tuple[tuple[str, int, bool], ...]

    def __str__(self) -> str:
        word = "consistent" if self.consistent else "INCONSISTENT"
        return f"{word} across {self.complete_enumerations} complete enumerations"


def check_peripheral_commutation(kd: KnotData, max_cosets: int = 5000) -> CommutationReport:
    """Check that the meridian and framing commute in finite coset actions.

    Battery: the knot group itself and its surgery quotients at slopes
    1/1 ... 5/1, each enumerated over the trivial subgroup, the cyclic
    subgroups generated by a, b, a^2, b^2, a^3, b^3, and those generated
    by the meridian and the framing.  Only enumerations completing within
    the cap contribute; each complete one must send the commutator
    [mu, s] to the identity permutation.
    """
    mu, s = kd.peripheral.mu, kd.peripheral.s
    commutator = mu * s * ~mu * ~s
    presentations = [("knot-group", kd.presentation)]
    for n in range(1, 6):
        presentations.append(
            (f"surgery {n}/1", surgery_presentation(kd, Slope(n, 1)))
        )
    subgroups: list[tuple[str, list[Word]]] = [("trivial", [])]
    for g in ("a", "b"):
        for e in (1, 2, 3):
            subgroups.append((f"<{g}^{e}>", [Word([(g, e)])]))
    subgroups.append(("<mu>", [mu]))
    subgroups.append(("<s>", [s]))

    checked = []
    consistent = True
    for pres_name, pres in presentations:
        for sub_name, sub in subgroups:
            table = todd_coxeter(pres, sub, max_cosets=max_cosets)
            if not table.is_complete():
                continue
            trivial = table.action(commutator) == list(range(table.num_cosets))
            consistent = consistent and trivial
            checked.append((f"{pres_name} / {sub_name}", table.num_cosets, trivial))
    return CommutationReport(consistent, len(checked), tuple(checked))
