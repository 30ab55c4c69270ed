"""Reference Laurent arithmetic on ``{exponent: coefficient}`` dicts.

`nlo.alexander` computes the Alexander polynomial on one dense
coefficient list: a product by 1 - t, an exact division by 1 - t^c as a
running sum down each residue class mod c, normalization, the value at 1
as a sum, and symmetry as a reversed list; it returns the coefficients
as a tuple from t^0 up.  This module keeps the sparse arithmetic those
steps replaced, as plain functions on dicts whose zero terms are
dropped: long division by any divisor from the top degree down,
evaluation through exact rationals, and normalization and symmetry
through `reciprocal`.  `dense`, `poly` and `coefficients` convert between
the two forms.  The tests require each dense step to return what these
return, and to raise where these raise; the braid reference and the
torus-knot closed forms are computed with them.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

_TERM = re.compile(r"\s*([+-]?\d+)\*t\^(-?\d+)\s*")


def _nonzero(terms: dict[int, int]) -> dict[int, int]:
    return {e: c for e, c in terms.items() if c}


def add(p: dict[int, int], q: dict[int, int]) -> dict[int, int]:
    out = dict(p)
    for e, c in q.items():
        out[e] = out.get(e, 0) + c
    return _nonzero(out)


def neg(p: dict[int, int]) -> dict[int, int]:
    return {e: -c for e, c in p.items()}


def sub(p: dict[int, int], q: dict[int, int]) -> dict[int, int]:
    return add(p, neg(q))


def mul(p: dict[int, int], q: dict[int, int]) -> dict[int, int]:
    out: dict[int, int] = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return _nonzero(out)


def cyclotomic(c: int) -> dict[int, int]:
    """t^c - 1 as a difference of monomials, so that c = 0 gives 0."""
    return sub({c: 1}, {0: 1})


def divexact(p: dict[int, int], divisor: dict[int, int]) -> dict[int, int]:
    """Exact long division from the top degree down, each degree visited
    once; raises ValueError on a nonzero remainder."""
    if not divisor:
        raise ZeroDivisionError("division by the zero polynomial")
    if not p:
        return {}
    low, div_low, div_top = min(p), min(divisor), max(divisor)
    rem = {e - low: c for e, c in p.items()}
    div_deg = div_top - div_low
    div_lead = divisor[div_top]
    rest = [(e - div_low, c) for e, c in divisor.items() if e != div_top]
    quotient: dict[int, int] = {}
    for deg in range(max(rem), div_deg - 1, -1):
        lead = rem.pop(deg, 0)
        if not lead:
            continue
        q, r = divmod(lead, div_lead)
        if r:
            raise ValueError("leading coefficient not divisible")
        offset = deg - div_deg
        quotient[offset] = q
        for e, c in rest:
            rem[e + offset] = rem.get(e + offset, 0) - q * c
    if any(rem.values()):
        raise ValueError("nonzero remainder")
    return {e + low - div_low: c for e, c in quotient.items()}


def evaluate(p: dict[int, int], value: int) -> int:
    """Evaluate at a nonzero integer (via exact rationals)."""
    total = Fraction(0)
    for e, c in p.items():
        total += c * Fraction(value) ** e
    if total.denominator != 1:
        raise ValueError(f"evaluation at {value} is not an integer")
    return int(total)


def reciprocal(p: dict[int, int]) -> dict[int, int]:
    """Substitute t -> 1/t."""
    return {-e: c for e, c in p.items()}


def normalized(p: dict[int, int]) -> dict[int, int]:
    """Fix the unit ambiguity: lowest exponent 0, top coefficient > 0."""
    if not p:
        return {}
    low = min(p)
    shifted = {e - low: c for e, c in p.items()}
    if shifted[max(shifted)] < 0:
        shifted = neg(shifted)
    return shifted


def is_symmetric(p: dict[int, int]) -> bool:
    """Whether p equals its value at 1/t, both normalized."""
    return normalized(p) == normalized(reciprocal(p))


def parse(text: str) -> dict[int, int]:
    """The inverse of `nlo.alexander.polynomial_text`: nonzero ``c*t^e``
    terms joined by "+", exponents increasing; "0" is the zero polynomial.
    Any other text, a zero or a repeated term among them, raises."""
    text = text.strip()
    if text == "0":
        return {}
    out: dict[int, int] = {}
    last = None
    for chunk in text.split("+"):
        match = _TERM.fullmatch(chunk)
        if match is None:
            raise ValueError(f"malformed polynomial term {chunk!r}")
        coeff, exp = int(match.group(1)), int(match.group(2))
        if not coeff or (last is not None and exp <= last):
            raise ValueError(f"polynomial term {chunk!r} is zero or out of order")
        out[exp] = coeff
        last = exp
    return out


def dense(p: dict[int, int]) -> tuple[int, list[int]]:
    """``p`` as (lowest exponent, coefficient list); 0 is (0, [0])."""
    low = min(p, default=0)
    return low, [p.get(e, 0) for e in range(low, max(p, default=0) + 1)]


def poly(low: int, coeffs: list[int] | tuple[int, ...]) -> dict[int, int]:
    """The inverse of `dense`: the nonzero terms of ``coeffs`` from t^low up."""
    return {low + i: c for i, c in enumerate(coeffs) if c}


def coefficients(p: dict[int, int]) -> tuple[int, ...]:
    """``p``, whose lowest exponent must be 0, as the tuple (c_0, ..., c_d)
    that `nlo.alexander.alexander_polynomial` returns."""
    low, coeffs = dense(p)
    if low != 0:
        raise ValueError(f"lowest exponent is {low}, not 0")
    return tuple(coeffs)


def torus_alexander(p: int, q: int) -> dict[int, int]:
    """Closed form (t^pq - 1)(t - 1) / ((t^p - 1)(t^q - 1)), normalized."""
    if p < 2 or q < 2 or math.gcd(p, q) != 1:
        raise ValueError(f"require coprime p, q >= 2, got ({p}, {q})")
    numerator = mul(cyclotomic(p * q), cyclotomic(1))
    return normalized(divexact(divexact(numerator, cyclotomic(p)), cyclotomic(q)))


def semigroup_torus_alexander(r: int, s: int) -> dict[int, int]:
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
    return _nonzero(out)
