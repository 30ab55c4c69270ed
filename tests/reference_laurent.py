"""Reference Laurent arithmetic over ``nlo.alexander.LaurentPolynomial``.

`nlo.alexander` computes the Alexander polynomial on one dense
coefficient list: a product by 1 - t, an exact division by 1 - t^c as a
running sum down each residue class mod c, normalization, the value at 1
as a sum, and symmetry as a reversed list.  This module keeps the sparse
dict arithmetic those steps replaced, as plain functions: long division
by any divisor from the top degree down, evaluation through exact
rationals, and normalization and symmetry through `reciprocal`.  The
tests require each dense step to return what these return, and to raise
where these raise; the braid reference and the torus-knot closed forms
are computed with them.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from nlo.alexander import DivisionError, LaurentPolynomial

_TERM = re.compile(r"\s*([+-]?\d+)\*t\^(-?\d+)\s*")


def add(p: LaurentPolynomial, q: LaurentPolynomial) -> LaurentPolynomial:
    out = dict(p.coeffs)
    for e, c in q.coeffs.items():
        out[e] = out.get(e, 0) + c
    return LaurentPolynomial(out)


def neg(p: LaurentPolynomial) -> LaurentPolynomial:
    return LaurentPolynomial({e: -c for e, c in p.coeffs.items()})


def sub(p: LaurentPolynomial, q: LaurentPolynomial) -> LaurentPolynomial:
    return add(p, neg(q))


def mul(p: LaurentPolynomial, q: LaurentPolynomial) -> LaurentPolynomial:
    out: dict[int, int] = {}
    for e1, c1 in p.coeffs.items():
        for e2, c2 in q.coeffs.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return LaurentPolynomial(out)


def cyclotomic(c: int) -> LaurentPolynomial:
    """t^c - 1 as a difference of monomials, so that c = 0 gives 0."""
    return sub(LaurentPolynomial({c: 1}), LaurentPolynomial({0: 1}))


def divexact(p: LaurentPolynomial, divisor: LaurentPolynomial) -> LaurentPolynomial:
    """Exact long division from the top degree down, each degree visited
    once; raises DivisionError on a nonzero remainder."""
    if not divisor:
        raise ZeroDivisionError("division by the zero polynomial")
    if not p:
        return LaurentPolynomial()
    low, div_low, div_top = p.min_exp, divisor.min_exp, divisor.max_exp
    rem = {e - low: c for e, c in p.coeffs.items()}
    div_deg = div_top - div_low
    div_lead = divisor.coeffs[div_top]
    rest = [(e - div_low, c) for e, c in divisor.coeffs.items() if e != div_top]
    quotient: dict[int, int] = {}
    for deg in range(max(rem), div_deg - 1, -1):
        lead = rem.pop(deg, 0)
        if not lead:
            continue
        q, r = divmod(lead, div_lead)
        if r:
            raise DivisionError("leading coefficient not divisible")
        offset = deg - div_deg
        quotient[offset] = q
        for e, c in rest:
            rem[e + offset] = rem.get(e + offset, 0) - q * c
    if any(rem.values()):
        raise DivisionError("nonzero remainder")
    return LaurentPolynomial({e + low - div_low: c for e, c in quotient.items()})


def evaluate(p: LaurentPolynomial, value: int) -> int:
    """Evaluate at a nonzero integer (via exact rationals)."""
    total = Fraction(0)
    for e, c in p.coeffs.items():
        total += c * Fraction(value) ** e
    if total.denominator != 1:
        raise ValueError(f"evaluation at {value} is not an integer")
    return int(total)


def reciprocal(p: LaurentPolynomial) -> LaurentPolynomial:
    """Substitute t -> 1/t."""
    return LaurentPolynomial({-e: c for e, c in p.coeffs.items()})


def normalized(p: LaurentPolynomial) -> LaurentPolynomial:
    """Fix the unit ambiguity: lowest exponent 0, top coefficient > 0."""
    if not p.coeffs:
        return LaurentPolynomial()
    low = p.min_exp
    shifted = {e - low: c for e, c in p.coeffs.items()}
    if shifted[max(shifted)] < 0:
        shifted = {e: -c for e, c in shifted.items()}
    return LaurentPolynomial(shifted)


def is_symmetric(p: LaurentPolynomial) -> bool:
    """Whether p equals its value at 1/t, both normalized."""
    return normalized(p) == normalized(reciprocal(p))


def parse(text: str) -> LaurentPolynomial:
    """The inverse of `LaurentPolynomial.to_text`."""
    text = text.strip()
    if text == "0":
        return LaurentPolynomial()
    out: dict[int, int] = {}
    for chunk in text.split("+"):
        match = _TERM.fullmatch(chunk)
        if match is None:
            raise ValueError(f"malformed polynomial term {chunk!r}")
        coeff, exp = int(match.group(1)), int(match.group(2))
        out[exp] = out.get(exp, 0) + coeff
    return LaurentPolynomial(out)


def torus_alexander(p: int, q: int) -> LaurentPolynomial:
    """Closed form (t^pq - 1)(t - 1) / ((t^p - 1)(t^q - 1)), normalized."""
    if p < 2 or q < 2 or math.gcd(p, q) != 1:
        raise ValueError(f"require coprime p, q >= 2, got ({p}, {q})")
    numerator = mul(cyclotomic(p * q), cyclotomic(1))
    return normalized(divexact(divexact(numerator, cyclotomic(p)), cyclotomic(q)))


def semigroup_torus_alexander(r: int, s: int) -> LaurentPolynomial:
    """The torus knot T(r, s) from its semigroup, with no division.

    For coprime r, s >= 2 the Alexander polynomial is
    (1 - t) * sum of t^x over x < 2g in the semigroup <r, s>, plus t^2g,
    where 2g = (r - 1)(s - 1) is one more than the largest gap.  A sieve
    marks the semigroup below 2g in O(g) steps.  No division is taken, so
    this is independent of both `divexact` and the dense kernel.
    """
    if r < 2 or s < 2 or math.gcd(r, s) != 1:
        raise ValueError(f"require coprime r, s >= 2, got ({r}, {s})")
    two_g = (r - 1) * (s - 1)
    member = [0] * (two_g + 1)
    for multiple_of_s in range(0, two_g, s):
        member[multiple_of_s:two_g:r] = [1] * len(range(multiple_of_s, two_g, r))
    out = {x: member[x] - member[x - 1] for x in range(1, two_g)}
    out[0] = 1
    out[two_g] = 1
    return LaurentPolynomial(out)
