"""Slow reference Laurent arithmetic.

These are the quadratic versions of `LaurentPolynomial.divexact`,
`evaluate` and `normalized` that `nlo.alexander` replaced, as plain
functions: division looks up the leading degree with `max` on every
step, evaluation sums exact rational powers, and normalization recomputes
the lowest exponent per term.  The tests require the fast methods to
return what these return, and to raise where these raise.
"""

from __future__ import annotations

from fractions import Fraction

from nlo.alexander import DivisionError, LaurentPolynomial


def divexact(p: LaurentPolynomial, divisor: LaurentPolynomial) -> LaurentPolynomial:
    """Exact division; raises DivisionError on a nonzero remainder."""
    if not divisor:
        raise ZeroDivisionError("division by the zero polynomial")
    if not p:
        return LaurentPolynomial()
    shift = p.min_exp - divisor.min_exp
    rem = {e - p.min_exp: c for e, c in p.coeffs.items()}
    div = {e - divisor.min_exp: c for e, c in divisor.coeffs.items()}
    div_deg = max(div)
    div_lead = div[div_deg]
    quotient: dict[int, int] = {}
    while rem:
        deg = max(rem)
        if deg < div_deg:
            raise DivisionError("remainder of lower degree than divisor")
        lead = rem[deg]
        if lead % div_lead != 0:
            raise DivisionError("leading coefficient not divisible")
        q = lead // div_lead
        quotient[deg - div_deg] = q
        for e, c in div.items():
            pos = e + deg - div_deg
            rem[pos] = rem.get(pos, 0) - q * c
            if rem[pos] == 0:
                del rem[pos]
    return LaurentPolynomial({e + shift: c for e, c in quotient.items()})


def evaluate(p: LaurentPolynomial, value: int) -> int:
    """Evaluate at a nonzero integer (via exact rationals)."""
    total = Fraction(0)
    for e, c in p.coeffs.items():
        total += c * Fraction(value) ** e
    if total.denominator != 1:
        raise ValueError(f"evaluation at {value} is not an integer")
    return int(total)


def normalized(p: LaurentPolynomial) -> LaurentPolynomial:
    """Fix the unit ambiguity: lowest exponent 0, top coefficient > 0."""
    if not p.coeffs:
        return LaurentPolynomial()
    shifted = {e - p.min_exp: c for e, c in p.coeffs.items()}
    if shifted[max(shifted)] < 0:
        shifted = {e: -c for e, c in shifted.items()}
    return LaurentPolynomial(shifted)
