"""Alexander polynomials of twisted torus knots from their braid words.

An independent reference for `nlo.alexander.alexander_polynomial`: it
never reads the hand-derived presentations of `nlo.families`.  The twisted
torus knot T(p, q; ell, m) is the closure of the p-strand braid

    (s_1 s_2 ... s_{p-1})^q (s_1 s_2 ... s_{ell-1})^(ell*m),

q passes of the torus braid followed by m positive full twists on the
first ell strands.  With B the unreduced Burau matrix of that braid, the
determinant of I - B with its first row and column deleted is the
Alexander polynomial of the closure, up to a unit ±t^j (J. S. Birman,
*Braids, Links, and Mapping Class Groups*, 1974, ch. 3).
"""

from __future__ import annotations

from nlo.alexander import LaurentPolynomial
from reference_laurent import add, divexact, mul, neg, sub

ZERO = LaurentPolynomial()
ONE = LaurentPolynomial({0: 1})
T = LaurentPolynomial({1: 1})
ONE_MINUS_T = LaurentPolynomial({0: 1, 1: -1})


def braid_word(p: int, q: int, ell: int, m: int) -> list[int]:
    """Generator indices i (for s_i, 1-based) of the braid whose closure
    is T(p, q; ell, m)."""
    return list(range(1, p)) * q + list(range(1, ell)) * (ell * m)


def burau_matrix(strands: int, word: list[int]) -> list[list[LaurentPolynomial]]:
    """Unreduced Burau matrix of a positive braid word.

    s_i acts as the block [[1 - t, t], [1, 0]] on rows and columns i-1, i
    (0-based).  Multiplying on the right by it changes only columns i-1
    and i, so each letter is applied as those two column operations.
    """
    rows = [[ONE if r == c else ZERO for c in range(strands)] for r in range(strands)]
    for i in word:
        left, right = i - 1, i
        for row in rows:
            a, b = row[left], row[right]
            row[left], row[right] = add(mul(ONE_MINUS_T, a), b), mul(T, a)
    return rows


def determinant(matrix: list[list[LaurentPolynomial]]) -> LaurentPolynomial:
    """Fraction-free Bareiss elimination over Z[t, 1/t]; every division
    is exact, and `divexact` raises if one is not."""
    rows = [list(row) for row in matrix]
    n = len(rows)
    sign, previous = 1, ONE
    for k in range(n - 1):
        pivot = next((r for r in range(k, n) if rows[r][k]), None)
        if pivot is None:
            return ZERO
        if pivot != k:
            rows[k], rows[pivot] = rows[pivot], rows[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                cross = sub(mul(rows[i][j], rows[k][k]), mul(rows[i][k], rows[k][j]))
                rows[i][j] = divexact(cross, previous)
        previous = rows[k][k]
    det = rows[n - 1][n - 1] if n else ONE
    return det if sign == 1 else neg(det)


def braid_alexander(p: int, q: int, ell: int, m: int) -> LaurentPolynomial:
    """Alexander polynomial of the closure of the T(p, q; ell, m) braid,
    up to a unit; compare after `reference_laurent.normalized`."""
    burau = burau_matrix(p, braid_word(p, q, ell, m))
    minor = [
        [sub(ONE if r == c else ZERO, burau[r][c]) for c in range(1, p)]
        for r in range(1, p)
    ]
    return determinant(minor)
