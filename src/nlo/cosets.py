"""Bounded Todd-Coxeter coset enumeration.

The enumerator builds the Schreier graph of the coset action with a
union-find over coset labels.  The table is column-major: one int list
per generator and one per inverse, indexed by label and growing by one
entry per definition; each relator or subgroup word is precomputed once
as its list of (column, inverse column) pairs.  Scanning a word from a
coset defines missing entries on the fly and identifies the two ends;
identifications cascade by merging rows column by column.

The enumeration order is part of the output contract: cosets are visited
in label order, entries defined in scan order, coincidences processed
last in first out with the smaller label surviving, and the cap checked
before each definition.  Capped tables, their coset counts and which
enumerations finish under a cap (all printed by ``nlo order`` and the
commutation battery) depend on it.  The tests compare every table with
the earlier, slower enumerator in ``tests/reference_cosets.py``.

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
COMMUTATION_MAX_COSETS = 5000
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
        try:
            return int(env)
        except ValueError:
            raise ValueError(f"{ENV_MAX_COSETS} must be an integer, got {env!r}") from None
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

    def action(self, w: Word) -> list[int]:
        """Permutation induced by right multiplication on the cosets."""
        if not self.is_complete():
            raise ValueError("coset action requires a complete table")
        cols = [2 * self.generators.index(g) + (s < 0) for g, s in letters(w)]
        out = []
        for start in range(self.num_cosets):
            c = start
            for col in cols:
                c = self.rows[c][col]
            out.append(c)
        return out


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
    column = {g: 2 * i for i, g in enumerate(pres.generators)}
    if any(not w.generators() <= column.keys() for w in subgroup):
        raise ValueError("subgroup words must use only the presentation's generators")
    columns = [[UNDEFINED] for _ in range(2 * len(column))]
    pairs = [(col, columns[i ^ 1]) for i, col in enumerate(columns)]

    def scan_pairs(w: Word) -> list[tuple[list[int], list[int]]]:
        return [pairs[column[g] + (s < 0)] for g, s in letters(w)]

    # Scanning g g^-1 from a live coset defines its g-entry when missing
    # and otherwise returns to it, so these words complete a row.
    completion = [[pair, pair[::-1]] for pair in pairs]
    relators = [scan_pairs(r) for r in pres.relators] + completion
    words = [scan_pairs(w) for w in subgroup] + relators
    parent = [0]

    def find(c: int) -> int:
        while parent[c] != c:
            parent[c] = c = parent[parent[c]]
        return c

    # UNDEFINED is -1 and labels are >= 0, so the hot loop tests signs.
    status = COMPLETE
    c = 0
    try:
        while c < len(parent):
            if parent[c] == c:
                for word in words:
                    start = d = c if parent[c] == c else find(c)
                    for fwd, inv in word:
                        e = fwd[d]
                        if e < 0:
                            e = len(parent)
                            if e >= cap:
                                raise _Capped
                            parent.append(e)
                            for col in columns:
                                col.append(-1)
                            fwd[d] = e
                            inv[e] = d
                        elif parent[e] != e:
                            e = find(e)
                        d = e
                    if d == start:
                        continue
                    # Identify the end with the start, then merge rows
                    # column by column, the smaller label surviving.
                    queue = [(d, start)]
                    while queue:
                        a, b = queue.pop()
                        if parent[a] != a:
                            a = find(a)
                        if parent[b] != b:
                            b = find(b)
                        if a == b:
                            continue
                        if a > b:
                            a, b = b, a
                        parent[b] = a
                        for col in columns:
                            n2 = col[b]
                            if n2 >= 0:
                                n1 = col[a]
                                if n1 < 0:
                                    col[a] = n2
                                else:
                                    queue.append((n1, n2))
            words = relators
            c += 1
    except _Capped:
        status = CAPPED

    # A merged label points to a smaller one, so one ascending pass numbers
    # every label by its live coset; the extra last entry maps UNDEFINED.
    index, live = [], []
    for c, p in enumerate(parent):
        if p == c:
            index.append(len(live))
            live.append(c)
        else:
            index.append(index[p])
    index.append(UNDEFINED)
    rows = [[index[col[c]] for col in columns] for c in live]
    table = CosetTable(pres.generators, rows, status, tuple(subgroup))
    if status == COMPLETE:
        _check_closure(table, pres.relators)
    return table


def _check_closure(table: CosetTable, relators: tuple[Word, ...]) -> None:
    if any(UNDEFINED in row for row in table.rows):
        raise RuntimeError("complete table has undefined entries")
    if any(table.action(r) != list(range(table.num_cosets)) for r in relators):
        raise RuntimeError("complete table is not closed under a relator")
    if any(table.action(w)[0] != 0 for w in table.subgroup):
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


def check_peripheral_commutation(
    kd: KnotData, max_cosets: int = COMMUTATION_MAX_COSETS
) -> CommutationReport:
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
