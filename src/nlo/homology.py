"""Integer homology of two-generator presentations, in closed form.

Every presentation nlo builds has two generators, so its exponent-sum
matrix has two columns, and the invariant factors come from determinantal
divisors (M. Newman, *Integral Matrices*, 1972, ch. II).  All arithmetic
is arbitrary-precision integer; no modular shortcuts.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import gcd

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


def _two_columns(pres: Presentation) -> Matrix:
    if len(pres.generators) != 2:
        raise ValueError(f"expected a two-generator presentation, got {pres.generators}")
    return abelianization_matrix(pres)


def _homology_of_rows(rows: Matrix) -> Homology:
    """Cokernel of a two-column matrix: d1 is the gcd of the entries and
    d1 * d2 the gcd of the 2x2 minors; a zero divisor adds a free Z."""
    d1 = gcd(*(x for row in rows for x in row))
    d12 = gcd(*(a0 * b1 - a1 * b0 for (a0, a1), (b0, b1) in combinations(rows, 2)))
    diag = [d for d in (d1, d12 // d1 if d12 else 0) if d]
    return Homology(tuple(d for d in diag if d != 1), 2 - len(diag))


def h1(pres: Presentation) -> Homology:
    """Abelianization of a two-generator presented group."""
    return _homology_of_rows(_two_columns(pres))


def surgery_h1(kd: KnotData, slope: Slope) -> Homology:
    """H1 of the surgery quotient along ``slope``, from exponent sums alone.

    Abelianization is a homomorphism, so the relator mu^(p' - q'v) s^(q')
    has exponent-sum row (p' - q'v) e(mu) + q' e(s).  The relator word is
    never built, so the cost does not grow with p'.
    """
    pres = kd.presentation
    rows = _two_columns(pres)
    mu, s = kd.mu, kd.s
    exponent, den = surgery_exponents(kd, slope)
    row = [
        exponent * exponent_sum(mu, g) + den * exponent_sum(s, g)
        for g in pres.generators
    ]
    return _homology_of_rows(rows + [row])


def h1_class_map(pres: Presentation, meridian: Word) -> dict[str, int]:
    """Identify H1 with the integers and return each generator's class.

    Requires H1 to be infinite cyclic and ``meridian`` to generate it; the
    sign is fixed so that the meridian maps to +1.  H1 is then Z^2 modulo
    one primitive row w = (w_a, w_b), and (x, y) -> x w_b - y w_a is the
    identification, unique up to the sign the meridian fixes.  Nothing
    here depends on the knot family.
    """
    rows = _two_columns(pres)
    group = _homology_of_rows(rows)
    if group != Homology((), 1):
        raise ValueError(f"H1 is {group}, not infinite cyclic")
    wa, wb = next(row for row in rows if any(row))
    d = gcd(wa, wb)
    classes = dict(zip(pres.generators, (wb // d, -wa // d)))
    cls = sum(exponent_sum(meridian, g) * classes[g] for g in pres.generators)
    if abs(cls) != 1:
        raise ValueError(f"normalizing element has class {cls}, not a generator of H1")
    return {g: c * cls for g, c in classes.items()}
