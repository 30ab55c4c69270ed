"""Fox calculus and Alexander polynomials over exact integer arithmetic.

The Alexander polynomial of a two-generator, one-relator knot group comes
from one free derivative of the relator, abelianized through the
meridian-normalized class map phi of H1 onto the integers (read from the
determinantal divisors in ``nlo.homology``).  Fox's fundamental formula,
sum_g phi(dr/dg) (t^phi(g) - 1) = t^phi(r) - 1 = 0, makes the result the
same whichever generator is taken, so a second derivative checks nothing;
the tests hold the formula itself.

Every step works on one dense coefficient list, indexed from the lowest
exponent: the derivative is filled in one pass over the relator, the
product by 1 - t is one subtraction of the list shifted by one, and the
exact division by 1 - t^c is a running sum down each residue class mod c.
Normalization, the value at t = 1 and the symmetry check read the same
list, and the result is that list as a tuple of coefficients from t^0
up.  The tests compare each step with the full Fox calculus in
``tests/reference_fox.py`` and the dict arithmetic in
``tests/reference_laurent.py``.
"""

from __future__ import annotations

from itertools import accumulate, chain
from operator import neg, sub

from .families import KnotData
from .homology import h1_class_map
from .words import MAX_LETTERS, Word, over_cap


class DivisionError(ArithmeticError):
    """Exact Laurent division left a remainder."""


def _abelian_fox(w: Word, gen: str, classes: dict[str, int]) -> tuple[int, list[int]]:
    """The Fox derivative of ``w`` by ``gen`` with each word mapped to
    ``t^class``, as ``(low, coeffs)`` with ``coeffs[i]`` the coefficient of
    ``t^(low + i)``.  Every term lies between the lowest and the highest
    class of a prefix of ``w``, so that range sizes the list; one pass
    over the syllables then fills it."""
    prefixes = list(accumulate((e * classes[g] for g, e in w.syllables), initial=0))
    low = min(prefixes)
    out = [0] * (max(prefixes) - low + 1)
    step = classes[gen]
    for (g, e), prefix in zip(w.syllables, prefixes):
        if g != gen:
            continue
        base = prefix - low
        # D(g^e) is 1 + g + ... + g^(e-1), or -(g^-1 + ... + g^e) for e < 0.
        if step == 0:
            out[base] += e
        elif e > 0:
            for i in range(base, base + e * step, step):
                out[i] += 1
        else:
            for i in range(base + e * step, base, step):
                out[i] -= 1
    return low, out


def _divide_cyclotomic(coeffs: list[int], m: int) -> None:
    """Divide dense coefficients in place by 1 - t^|m|, which is t^m - 1
    up to the unit -1 (m > 0) or t^m (m < 0); m must be nonzero.

    From q (1 - t^|m|) = n, q[i] = n[i] + q[i - |m|]: a running sum down
    each residue class mod |m|.  The top |m| sums are the remainder, and
    a nonzero one raises DivisionError.
    """
    step = abs(m)
    for r in range(min(step, len(coeffs))):
        coeffs[r::step] = accumulate(coeffs[r::step])
    size = max(len(coeffs) - step, 0)
    if any(coeffs[size:]):
        raise DivisionError("nonzero remainder")
    del coeffs[size:]


def _normalize(coeffs: list[int]) -> None:
    """Fix the unit ambiguity in place: drop the zero ends, so the lowest
    exponent is 0, and negate if the top coefficient is negative."""
    top = len(coeffs)
    while top and not coeffs[top - 1]:
        top -= 1
    low = 0
    while low < top and not coeffs[low]:
        low += 1
    del coeffs[top:]
    del coeffs[:low]
    if coeffs and coeffs[-1] < 0:
        coeffs[:] = map(neg, coeffs)


def _is_symmetric(coeffs: list[int]) -> bool:
    """Whether nonzero normalized coefficients equal those of their value
    at 1/t, normalized: the reversed list, negated when its top
    coefficient (the lowest of ``coeffs``) is negative."""
    mirror = coeffs[::-1] if coeffs[0] > 0 else [-c for c in reversed(coeffs)]
    return coeffs == mirror


def alexander_polynomial(kd: KnotData) -> tuple[int, ...]:
    """Normalized Alexander polynomial from one abelianized Fox derivative,
    as its coefficients (c_0, ..., c_d), c_i that of t^i.

    The derivative by generator g, times 1 - t and divided by 1 - t^c for
    the other generator's class c, is the same up to a unit for either g
    (see the module docstring); g is the first generator unless c would
    be 0.  A presentation that is not a knot group's can fail the checks
    that remain: exact division, and a symmetric result with value ±1 at
    1.  Refuses a relator over MAX_LETTERS letters before any work.
    """
    pres = kd.presentation
    if len(pres.generators) != 2 or len(pres.relators) != 1:
        raise ValueError("expected a two-generator, one-relator presentation")
    relator = pres.relators[0]
    if (size := relator.letter_length) > MAX_LETTERS:
        raise over_cap("the unrolled relator", size, "letters")
    classes = h1_class_map(pres, kd.mu)
    g, h = pres.generators
    if classes[h] == 0:
        g, h = h, g
    _, fox = _abelian_fox(relator, g, classes)
    # fox * (1 - t); the derivative's list is dropped before the division.
    coeffs = list(map(sub, chain(fox, (0,)), chain((0,), fox)))
    del fox
    _divide_cyclotomic(coeffs, classes[h])
    _normalize(coeffs)
    if (value := sum(coeffs)) not in (1, -1):
        raise ValueError(f"polynomial value at 1 is {value}, not ±1")
    if not _is_symmetric(coeffs):
        raise ValueError("polynomial is not symmetric")
    return tuple(coeffs)


def polynomial_text(coeffs: tuple[int, ...]) -> str:
    """The nonzero terms of ``coeffs`` as ``c*t^e`` text, by exponent."""
    return " + ".join(f"{c}*t^{e}" for e, c in enumerate(coeffs) if c)


def genus(delta: tuple[int, ...]) -> int:
    """Half the breadth of ``delta`` from :func:`alexander_polynomial`, the
    genus of an L-space knot.  The breadth is even: a symmetric polynomial
    with value ±1 at 1 has an odd number of coefficients."""
    return (len(delta) - 1) // 2
