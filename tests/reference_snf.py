"""Reference Smith normal form by unimodular row and column operations.

`nlo.homology` reads the invariant factors and the class map of a
two-generator presentation from its determinantal divisors in closed form.
This module keeps the general diagonalization, with its change-of-basis
matrices, so the tests can compare the two.
"""

from __future__ import annotations

Matrix = list[list[int]]


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
