"""Bounded Todd-Coxeter coset enumeration.

The enumerator builds the Schreier graph of the coset action as a
canonical coset table: between scans, every entry of a live label is a
live label whose inverse entry points back.  A label is a coset that is
written into the table; definitions, which the cap counts, are counted
apart, since some defined cosets are never written.  The table is
column-major: one int list per generator and one per inverse, indexed by
label; a merged label's ``parent`` names a smaller label of its class,
and only the coincidence routine and the start of each scan look labels
up through it.  These lists grow in doubling blocks clamped to the cap,
so writing a coset only writes two entries and its own parent.  Each
relator or subgroup word is precomputed once as its (position, column)
list, which scans follow, and its (column, inverse column) pair at each
position, read from its letter text through one map from letter to
column (an upper-case letter names the inverse column).

Scanning a word from a coset follows defined entries until the first
missing one, with no lookup, since every entry is live.  From there the
scan is a fresh chain: a new coset's only entry is the inverse just
written and words are freely reduced, so the rest of the word would only
define, and the chain's last coset would fold into the start.  Before
defining anything, the rest of the word is scanned backward from the
start through the inverse columns (the scan from both ends of Holt, Eick
and O'Brien, Handbook of Computational Group Theory, 2005, section 5.1).
A chain coset matched there to an existing coset is one the fold would
merge into that coset: it is counted as defined and merged, so the cap
still counts every definition, but it gets no label, and no entry or
coincidence ever names it.  Only the cosets before the first unmatched
letter are written, under the next free labels, and the last of them,
or the coset where the forward scan stopped if none is, is linked to the
last matched coset; if that coset's inverse entry is already defined,
the two cosets it names coincide instead.  A chain that would pass the
cap is written up to it, so a capped table stops at the same definition.

A coincidence, from such a link or a scan ending away from its start, is
processed by the COINCIDENCE routine of the same section: the two labels
merge, the smaller surviving, and each merged row is then walked once.
Each of its defined entries is unlinked from its target and moved to the
survivors, or, where the survivors' entry is already defined, merges
what the two entries name.  After the relator scans of a coset, its row
is completed by defining each missing entry in column order: no
coincidence can arise there, because a defined entry's target already
points back.  ``num_cosets`` is the definitions less the merges; the
rows are renumbered from the live labels only when first read, so a
capped table that is only counted never builds them.  The cosets that
get no label were all merged, so leaving them out renumbers the live
ones in the same order.  A complete table is checked on its live labels:
no entry is undefined, each relator fixes every coset, and each subgroup
word fixes coset 0.

The enumeration order is part of the output contract: cosets are visited
in label order, entries defined in scan order, and the cap checked
before each definition, never while coincidences are processed.  After
processing, the partition of the labels is the congruence closure of the
entries and the coincidences, the smallest label of each class
surviving, and a live row holds an entry wherever some label of its
class did, naming the class of its target.  That closure is unique, so
the order in which coincidences are processed cannot be observed.
Capped tables, their coset counts and which enumerations finish under a
cap (all printed by ``nlo order`` and the commutation battery) depend on
the enumeration order.  The tests compare every table with the earlier,
slower enumerator in ``tests/reference_cosets.py``.

Enumerations are bounded by a cap on coset definitions (including cosets
later merged away or never written); hitting the cap yields a table with
status "capped", which is a result, not an error.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .families import KnotData, Slope, surgery_presentation
from .presentation import Presentation
from .words import Word, letter_text

DEFAULT_MAX_COSETS = 10**6
COMMUTATION_MAX_COSETS = 5000

COMPLETE = "complete"
CAPPED = "capped"

UNDEFINED = -1

# Labels the enumerator allocates before its first growth.
FIRST_BLOCK = 64


class _Capped(Exception):
    pass


class CosetTable:
    """Closed (or capped partial) coset table.

    Rows are cosets, row 0 the subgroup coset; columns alternate
    generator and inverse-generator images.  Entries of a complete table
    are all defined and closed under every relator and subgroup word.
    ``num_cosets`` is the live count given at construction, and ``rows``
    are built from the labels when first read.
    """

    def __init__(
        self,
        generators: tuple[str, ...],
        status: str,
        subgroup: tuple[Word, ...],
        num_cosets: int,
        parent: list[int],
        columns: list[list[int]],
        n: int,
    ):
        """A table whose cosets are the first ``n`` labels that are their
        own ``parent``, in label order; ``columns`` hold each label's
        entries, and an entry of a live label is a live label or UNDEFINED."""
        self.generators, self.status, self.subgroup = generators, status, subgroup
        self.num_cosets = num_cosets
        self._labels = parent, columns, n

    @cached_property
    def _live(self) -> list[int]:
        parent, _, n = self._labels
        return [c for c in range(n) if parent[c] == c]

    @cached_property
    def _index(self) -> list[int]:
        """The row of each live label; the extra last entry maps UNDEFINED."""
        index = [UNDEFINED] * (self._labels[2] + 1)
        for i, c in enumerate(self._live):
            index[c] = i
        return index

    @cached_property
    def rows(self) -> list[list[int]]:
        index, columns = self._index, self._labels[1]
        return [[index[col[c]] for col in columns] for c in self._live]

    def _follow(self, w: Word, labels: list[int]) -> list[int]:
        """The label each of ``labels`` reaches through ``w``, which must
        not meet an undefined entry."""
        column = _letter_columns(self.generators)
        columns = self._labels[1]
        for c in letter_text(w):
            col = columns[column[c]]
            labels = [col[x] for x in labels]
        return labels

    def is_complete(self) -> bool:
        return self.status == COMPLETE

    def action(self, w: Word) -> list[int]:
        """Permutation induced by right multiplication on the cosets."""
        if not self.is_complete():
            raise ValueError("coset action requires a complete table")
        unknown = w.generators().difference(self.generators)
        if unknown:
            raise ValueError(
                f"generator {min(unknown)!r} is not one of the table's "
                f"generators {', '.join(self.generators)}"
            )
        index = self._index
        return [index[c] for c in self._follow(w, self._live)]


def _letter_columns(generators: tuple[str, ...]) -> dict[str, int]:
    """The column of each letter of the letter text: 2i for generator i,
    2i + 1 for its inverse."""
    return {
        c: 2 * i + inv
        for i, g in enumerate(generators)
        for inv, c in enumerate((g, g.upper()))
    }


def _grow(parent: list[int], columns: list[list[int]], size: int) -> None:
    """Extend the labels to ``size`` with every new entry and parent
    undefined; a label becomes its own root when its coset is written."""
    block = [UNDEFINED] * (size - len(parent))
    parent += block
    for col in columns:
        col += block


def _make_room(
    parent: list[int], columns: list[list[int]], size: int, need: int, max_cosets: int
) -> int:
    """The array size once ``need`` labels fit: the first doubling of
    ``size`` that holds them, clamped to the cap.  ``need`` is never over
    the cap, since no label is allocated without a definition."""
    while size < need:
        size *= 2
    size = min(max_cosets, size)
    _grow(parent, columns, size)
    return size


def todd_coxeter(
    pres: Presentation,
    subgroup: list[Word] | tuple[Word, ...] = (),
    max_cosets: int = DEFAULT_MAX_COSETS,
) -> CosetTable:
    """Enumerate cosets of the subgroup generated by ``subgroup``.

    Returns a complete table (the subgroup then has index equal to the
    row count) or a capped partial table when more than ``max_cosets``
    coset definitions would be needed.  Refuses words over MAX_LETTERS letters.
    """
    if max_cosets < 1:
        raise ValueError("max_cosets must be at least 1")
    column = _letter_columns(pres.generators)
    if any(not w.generators() <= column.keys() for w in subgroup):
        raise ValueError("subgroup words must use only the presentation's generators")
    size = min(max_cosets, FIRST_BLOCK)
    parent = [UNDEFINED] * size
    parent[0] = 0  # the subgroup coset
    columns = [[UNDEFINED] * size for _ in range(len(column))]
    pairs = [(col, columns[i ^ 1]) for i, col in enumerate(columns)]

    def letters(w: Word) -> tuple[list[tuple[int, list[int]]], list[tuple[list[int], list[int]]]]:
        """``w`` as its (position, column) list, which scans follow, and its
        (column, inverse column) pair at each position."""
        cols = [pairs[column[c]] for c in letter_text(w)]
        return list(enumerate(fwd for fwd, _ in cols)), cols

    # Subgroup words are unrolled first, so an oversized one is refused
    # before an oversized relator.
    words = [letters(w) for w in subgroup]
    relators = [letters(r) for r in pres.relators]
    words += relators

    # UNDEFINED is -1 and labels are >= 0, so the hot loop tests signs.
    # n counts labels, the cosets written so far, and defs the
    # definitions, which the cap counts.  Between scans every entry of a
    # live label is a live label whose inverse entry points back, so scans
    # follow entries without a find; a merged label's parent is a smaller
    # label of its class, and find is inlined as path halving.
    status = COMPLETE
    n = defs = 1
    merges = 0
    c = 0
    try:
        while c < n:
            if parent[c] == c:
                for scan, cols in words:
                    start = c
                    while parent[start] != start:
                        parent[start] = start = parent[parent[start]]
                    d = start
                    for i, fwd in scan:
                        e = fwd[d]
                        if e < 0:
                            # A fresh chain from d at letter i defines a
                            # coset after each letter t >= i and folds the
                            # last into start.
                            L = len(cols)
                            room = max_cosets - defs
                            if L - i > room:
                                # It would pass the cap: write up to it.
                                j = i + room
                            else:
                                # Scan back from start: a chain coset that
                                # the fold would merge into an existing coset
                                # x is counted as defined and merged, and
                                # never written; inv[x] = y implies fwd[y] = x,
                                # so its merge would add nothing.
                                j = L - 1
                                x = start
                                while j > i:
                                    y = cols[j][1][x]
                                    if y < 0:
                                        break
                                    x = y
                                    j -= 1
                                defs += L - i
                                merges += L - j
                            # Write the cosets after letters i .. j - 1.
                            if n + j - i > size:
                                size = _make_room(parent, columns, size, n + j - i, max_cosets)
                            for fwd, inv in cols[i:j]:
                                fwd[d] = n
                                inv[n] = d
                                parent[n] = d = n
                                n += 1
                            if L - i > room:
                                defs = max_cosets
                                raise _Capped
                            # Link d to x through letter j, whose entry at d
                            # is undefined.  If inv[x] is defined, the coset
                            # it names coincides with d instead.
                            fwd, inv = cols[j]
                            e = inv[x]
                            if e < 0:
                                fwd[d] = x
                                inv[x] = d
                                e = d  # nothing coincides
                            break
                        d = e
                    else:
                        # The scan closed: d is start.
                        e = start
                    if e == d:
                        continue
                    # Holt's COINCIDENCE: merge e and d, the smaller label
                    # surviving, then walk each merged row b once.  Each
                    # defined entry fwd[b] = y is cleared from inv[y] and
                    # moved to the survivors a ~ b and y' ~ y: fwd[a] = y'
                    # and inv[y'] = a, unless one of the two is defined
                    # already, and then what it names merges with the
                    # other survivor.
                    if e > d:
                        e, d = d, e
                    parent[d] = e
                    merges += 1
                    dead = [d]
                    for b in dead:  # grows while it is walked
                        for fwd, inv in pairs:
                            y = fwd[b]
                            if y < 0:
                                continue
                            inv[y] = UNDEFINED
                            a = b
                            while parent[a] != a:
                                parent[a] = a = parent[parent[a]]
                            while parent[y] != y:
                                parent[y] = y = parent[parent[y]]
                            e = fwd[a]
                            if e >= 0:
                                a = y
                            else:
                                e = inv[y]
                                if e < 0:
                                    fwd[a] = y
                                    inv[y] = a
                                    continue
                            # Merge a, a live label, with e.
                            while parent[e] != e:
                                parent[e] = e = parent[parent[e]]
                            if a != e:
                                if a > e:
                                    a, e = e, a
                                parent[e] = a
                                merges += 1
                                dead.append(e)
                # Complete the row of find(c): a defined entry's target
                # points back, so only missing entries need work and none
                # of it merges.
                d = c
                while parent[d] != d:
                    parent[d] = d = parent[parent[d]]
                for fwd, inv in pairs:
                    if fwd[d] < 0:
                        if defs == max_cosets:
                            raise _Capped
                        if n == size:
                            size = _make_room(parent, columns, size, n + 1, max_cosets)
                        fwd[d] = n
                        inv[n] = d
                        parent[n] = n
                        n += 1
                        defs += 1
            words = relators
            c += 1
    except _Capped:
        status = CAPPED

    table = CosetTable(
        pres.generators, status, tuple(subgroup), defs - merges, parent, columns, n
    )
    if status == COMPLETE:
        _check_closure(table, pres.relators)
    return table


def _check_closure(table: CosetTable, relators: tuple[Word, ...]) -> None:
    """Check a complete table on its live labels: every entry defined,
    every relator fixing every coset and every subgroup word coset 0."""
    live = table._live
    if any(UNDEFINED in [col[c] for c in live] for col in table._labels[1]):
        raise RuntimeError("complete table has undefined entries")
    if any(table._follow(r, live) != live for r in relators):
        raise RuntimeError("complete table is not closed under a relator")
    if any(table._follow(w, [0]) != [0] for w in table.subgroup):
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
    mu, s = kd.mu, kd.s
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
