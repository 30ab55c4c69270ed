"""Integer homology of presentations via exact Smith normal form.

All arithmetic is arbitrary-precision integer; no modular shortcuts.
"""

from __future__ import annotations

from dataclasses import dataclass

from .families import KnotData, Slope, surgery_exponents
from .presentation import Presentation
from .words import Word, exponent_sum

Matrix = list[list[int]]


def abelianization_matrix(pres: Presentation) -> Matrix:
    """Exponent-sum matrix, one row per relator, one column per generator,
    from one pass over each relator."""
    column = {g: j for j, g in enumerate(pres.generators)}
    matrix = [[0] * len(column) for _ in pres.relators]
    for row, r in zip(matrix, pres.relators):
        for g, e in r.syllables:
            row[column[g]] += e
    return matrix


def _identity(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _swap_rows(m: Matrix, i: int, j: int) -> None:
    m[i], m[j] = m[j], m[i]


def _swap_cols(m: Matrix, i: int, j: int) -> None:
    for row in m:
        row[i], row[j] = row[j], row[i]


def _add_row(m: Matrix, src: int, dst: int, factor: int) -> None:
    m[dst] = [d + factor * s for d, s in zip(m[dst], m[src])]


def _add_col(m: Matrix, src: int, dst: int, factor: int) -> None:
    for row in m:
        row[dst] += factor * row[src]


def _scale_row(m: Matrix, i: int, factor: int) -> None:
    m[i] = [factor * x for x in m[i]]


def smith_normal_form(matrix: Matrix) -> tuple[Matrix, Matrix, Matrix]:
    """Diagonalize an integer matrix by unimodular row/column operations.

    Returns (D, U, V) with U * matrix * V == D exactly, D diagonal with
    d1 | d2 | ... and nonnegative diagonal, and U, V unimodular.
    """
    a = [list(row) for row in matrix]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    u = _identity(rows)
    v = _identity(cols)

    def pivot_search(t: int) -> tuple[int, int] | None:
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                if a[i][j] != 0 and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        return best

    t = 0
    while t < min(rows, cols):
        found = pivot_search(t)
        if found is None:
            break
        i, j = found
        _swap_rows(a, t, i), _swap_rows(u, t, i)
        _swap_cols(a, t, j), _swap_cols(v, t, j)
        while True:
            # Clear column t, re-searching while remainders shrink the pivot.
            dirty = False
            for i in range(rows):
                if i != t and a[i][t] != 0:
                    q = a[i][t] // a[t][t]
                    _add_row(a, t, i, -q), _add_row(u, t, i, -q)
                    if a[i][t] != 0:
                        _swap_rows(a, t, i), _swap_rows(u, t, i)
                        dirty = True
            for j in range(cols):
                if j != t and a[t][j] != 0:
                    q = a[t][j] // a[t][t]
                    _add_col(a, t, j, -q), _add_col(v, t, j, -q)
                    if a[t][j] != 0:
                        _swap_cols(a, t, j), _swap_cols(v, t, j)
                        dirty = True
            if not dirty:
                break
        # Enforce the divisibility chain: fold any non-multiple into the pivot.
        offender = None
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if a[i][j] % a[t][t] != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            _add_row(a, offender, t, 1), _add_row(u, offender, t, 1)
            continue
        t += 1
    for i in range(min(rows, cols)):
        if a[i][i] < 0:
            _scale_row(a, i, -1), _scale_row(u, i, -1)
    return a, u, v


@dataclass(frozen=True)
class Homology:
    """First homology as nontrivial invariant factors plus free rank."""

    invariant_factors: tuple[int, ...]
    free_rank: int

    def order(self) -> int | None:
        """Group order; None when infinite."""
        if self.free_rank > 0:
            return None
        out = 1
        for d in self.invariant_factors:
            out *= d
        return out

    def __str__(self) -> str:
        parts = [f"Z/{d}" for d in self.invariant_factors]
        parts.extend(["Z"] * self.free_rank)
        return " + ".join(parts) if parts else "0"


def _homology_of_matrix(matrix: Matrix, n: int) -> Homology:
    """Cokernel of an exponent-sum matrix with ``n`` columns."""
    if not matrix:
        return Homology((), n)
    d, _, _ = smith_normal_form(matrix)
    diag = [d[i][i] for i in range(min(len(d), n))]
    rank = sum(1 for x in diag if x != 0)
    factors = tuple(x for x in diag if x not in (0, 1))
    return Homology(factors, n - rank)


def h1(pres: Presentation) -> Homology:
    """Abelianization of the presented group."""
    return _homology_of_matrix(abelianization_matrix(pres), len(pres.generators))


def surgery_h1(kd: KnotData, slope: Slope) -> Homology:
    """H1 of the surgery quotient along ``slope``, from exponent sums alone.

    Abelianization is a homomorphism, so the relator mu^(p' - q'v) s^(q')
    has exponent-sum row (p' - q'v) e(mu) + q' e(s).  The relator word is
    never built, so the cost does not grow with p'.
    """
    pres = kd.presentation
    mu, s = kd.mu, kd.s
    exponent, den = surgery_exponents(kd, slope)
    row = [
        exponent * exponent_sum(mu, g) + den * exponent_sum(s, g)
        for g in pres.generators
    ]
    return _homology_of_matrix(abelianization_matrix(pres) + [row], len(pres.generators))


def h1_class_map(pres: Presentation, normalize_by: Word | None = None) -> dict[str, int]:
    """Identify H1 with the integers and return each generator's class.

    Requires H1 to be infinite cyclic.  When ``normalize_by`` is given its
    class is required to be a generator of H1 and the sign is fixed so that
    it maps to +1.  The identification comes from the Smith normal form
    change-of-basis matrices, not from any per-family formula.
    """
    matrix = abelianization_matrix(pres)
    n = len(pres.generators)
    if not matrix:
        matrix = [[0] * n]
    d, _, v = smith_normal_form(matrix)
    diag = [d[i][i] if i < len(d) else 0 for i in range(n)]
    free_cols = [j for j in range(n) if j >= len(d) or diag[j] == 0]
    torsion = [x for x in diag[: min(len(d), n)] if x not in (0, 1)]
    if len(free_cols) != 1 or torsion:
        raise ValueError(f"H1 is {h1(pres)}, not infinite cyclic")
    col = free_cols[0]
    # Row vector of exponent sums e maps to the class (e . V)[col].
    classes = {g: v[i][col] for i, g in enumerate(pres.generators)}
    if normalize_by is not None:
        cls = sum(exponent_sum(normalize_by, g) * classes[g] for g in pres.generators)
        if abs(cls) != 1:
            raise ValueError(
                f"normalizing element has class {cls}, not a generator of H1"
            )
        if cls < 0:
            classes = {g: -c for g, c in classes.items()}
    return classes


def word_class(w: Word, classes: dict[str, int]) -> int:
    """Image of a word in H1 under a generator -> class assignment."""
    return sum(exponent_sum(w, g) * classes[g] for g in classes)
