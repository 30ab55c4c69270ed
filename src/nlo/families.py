"""Closed-form knot group presentations for the twisted torus knots
T(p, pk±1; ell, m) and their Dehn surgery quotients.

A ``Presentation`` is generators and relators only, built here and read
by homology, Fox calculus, coset enumeration and the documents; the
meridian and framing of a knot live beside it in ``KnotData``.

Conventions: p >= 3 strands on the torus side, q = p*k + sign with
sign = ±1, and ell adjacent strands receiving m extra full twists with
2 <= ell <= p-1 and m >= 0.  (Full twists on all p strands give the torus
knot T(p, q + p*m), which is the m = 0 instance with k + m in place of k.)
Each knot group comes with two generators a, b, one relator, the meridian
mu, and the surface framing s, a v-framed longitude with
v = p*q + ell^2*m.
"""

from __future__ import annotations

import math
from collections.abc import Iterable

from .words import MAX_LETTERS, Record, Word, abbreviate_text, over_cap

M_ZERO_NOTE = (
    "m = 0 is the untwisted torus-knot degeneration, outside the standing "
    "assumption m > 0 of the certified families"
)


# The bound on |p|, |k|, |ell| and |m|.  Below it v < 10^602 and every
# word exponent is below 10^401, so none of these prints with more than
# 640 digits, the lowest limit int() can be set to.
PARAM_LIMIT = 10**200


class FamilyParams(Record):
    """Parameters (p, k, sign, ell, m) selecting T(p, pk+sign; ell, m).

    The one place the family parameters are range-checked: first |p|,
    |k|, |ell| and |m| below ``PARAM_LIMIT``, so no refusal echoes a longer
    integer, then p >= 3, k >= 1, sign = ±1, 2 <= ell <= p-1 and m >= 0, so q >= 2.
    ell = p is refused with a message that names the equal torus-knot instance (k + m, m = 0).
    """

    def __init__(self, p: int, k: int, sign: int, ell: int, m: int):
        for name, value in (("p", p), ("k", k), ("ell", ell), ("m", m)):
            if abs(value) >= PARAM_LIMIT:
                raise ValueError(f"require |{name}| < 10^200, got {name} of over 200 digits")
        if p < 3:
            raise ValueError(f"require p >= 3, got p = {p}")
        if k < 1:
            raise ValueError(f"require k >= 1, got k = {k}")
        if sign not in (1, -1):
            raise ValueError(f"require sign in {{+1, -1}}, got {sign}")
        if m < 0:
            raise ValueError(f"require m >= 0, got m = {m}")
        if ell == p:
            q = p * k + sign
            raise ValueError(
                f"ell = p = {p} is outside 2 <= ell <= p-1: T({p}, {q}; {p}, {m}) "
                f"is the torus knot T({p}, {q + p * m}), the instance k = {k + m}, "
                f"m = 0 with any 2 <= ell <= {p - 1}"
            )
        if not 2 <= ell <= p - 1:
            raise ValueError(f"require 2 <= ell <= p-1 = {p - 1}, got ell = {ell}")
        self._set(p=p, k=k, sign=sign, ell=ell, m=m)

    @property
    def q(self) -> int:
        return self.p * self.k + self.sign

    @property
    def v(self) -> int:
        """Surface framing coefficient p*q + ell^2*m."""
        return self.p * self.q + self.ell * self.ell * self.m


class Presentation(Record):
    """Generators and reduced relators, each stored as a tuple."""

    def __init__(self, generators: Iterable[str], relators: Iterable[Word] = ()):
        generators, relators = tuple(generators), tuple(relators)
        if len(set(generators)) != len(generators) or not generators:
            raise ValueError("alphabet must be nonempty with unique generators")
        alphabet = set(generators)
        for r in relators:
            if not r.generators() <= alphabet:
                raise ValueError(f"relator {r!r} uses generators outside the alphabet")
        self._set(generators=generators, relators=relators)


class KnotData(Record):
    """A knot group presentation with its meridian ``mu`` and surface
    framing ``s``; the framing coefficient is ``params.v``."""

    def __init__(self, params: FamilyParams, presentation: Presentation, mu: Word, s: Word):
        self._set(params=params, presentation=presentation, mu=mu, s=s)


class Slope(Record):
    """A surgery slope numerator/denominator, stored reduced with a
    positive denominator.  Zero and negative numerators are allowed for
    exploration; the certificate layer applies its own positivity rules."""

    def __init__(self, numerator: int, denominator: int = 1):
        num, den = numerator, denominator
        if den == 0:
            raise ValueError("slope denominator must be nonzero")
        if den < 0:
            num, den = -num, -den
        g = math.gcd(num, den)
        if g > 1:
            num //= g
            den //= g
        self._set(numerator=num, denominator=den)

    @classmethod
    def parse(cls, text: str) -> "Slope":
        head, sep, tail = text.partition("/")
        try:
            num, den = int(head), (int(tail) if sep else 1)
        except ValueError as exc:
            raise ValueError(f"malformed slope {abbreviate_text(repr(text))}") from exc
        return cls(num, den)

    def __str__(self) -> str:
        return f"{self.numerator}/{self.denominator}"


CASE_TOP = "ell=p-1"
CASE_NEXT = "ell=p-2,m=1"
# The L-space cases that positive-rewriting certificates cover.
CERTIFIED_CASES = (CASE_TOP, CASE_NEXT)


def lspace_case(params: FamilyParams) -> str | None:
    """The L-space knot case of ``params``, or None if it is in none.

    The case is the first matching condition among ell = p-1;
    ell = p-2 and m = 1; ell = 2 and m = 1.  Note that m = 0 inputs
    degenerate to torus knots whatever the reported case.
    """
    if params.ell == params.p - 1:
        return CASE_TOP
    if params.ell == params.p - 2 and params.m == 1:
        return CASE_NEXT
    if params.ell == 2 and params.m == 1:
        return "ell=2,m=1"
    return None


def certified_case(params: FamilyParams) -> str | None:
    """The case of ``params`` among ``CERTIFIED_CASES``, or None.

    Certificates cover those L-space cases for the twisted knots only,
    m >= 1; every certified case admits m = 1.
    """
    case = lspace_case(params)
    return case if params.m >= 1 and case in CERTIFIED_CASES else None


# The generators as words.
_A = Word([("a", 1)])
_B = Word([("b", 1)])


def _build_minus(params: FamilyParams) -> KnotData:
    """Knot data for T(p, pk-1; ell, m).

    Relator:  a^(p-l) (a C^m)^(l-1) a  =  b^(k(p-l)-1) (b^k C^m)^(l-1) b^k
    with C = b^(1-k(p-l)) a^(p-l); meridian mu = a^-1 b^k; framing
    s = a^(p-l-1) (a C^m)^l a with coefficient v = p(pk-1) + l^2 m.
    """
    p, k, ell, m = params.p, params.k, params.ell, params.m
    pl = p - ell
    # Each subword that recurs is formed once.
    cm = Word([("b", 1 - k * pl), ("a", pl)]) ** m
    acm = _A * cm
    bk = _B ** k
    lhs = _A ** pl * acm ** (ell - 1) * _A
    rhs = _B ** (k * pl - 1) * (bk * cm) ** (ell - 1) * bk
    relator = lhs * ~rhs
    mu = ~_A * bk
    s = _A ** (pl - 1) * acm ** ell * _A
    return KnotData(params, Presentation(("a", "b"), (relator,)), mu, s)


def _build_plus(params: FamilyParams) -> KnotData:
    """Knot data for T(p, pk+1; ell, m).

    Relator:  a (C^m a)^(l-1) a^(p-l)  =  b^k (C^m b^k)^(l-1) b^(k(p-l)+1)
    with C = b^(k(p-l)+1) a^(l-p); meridian mu = b^-k a; framing
    s = (C^m a)^l a^(p-l) with coefficient v = p(pk+1) + l^2 m.
    """
    p, k, ell, m = params.p, params.k, params.ell, params.m
    pl = p - ell
    # Each subword that recurs is formed once.
    cm = Word([("b", k * pl + 1), ("a", -pl)]) ** m
    cma = cm * _A
    bk = _B ** k
    lhs = _A * cma ** (ell - 1) * _A ** pl
    rhs = bk * (cm * bk) ** (ell - 1) * _B ** (k * pl + 1)
    relator = lhs * ~rhs
    mu = ~bk * _A
    s = cma ** ell * _A ** pl
    return KnotData(params, Presentation(("a", "b"), (relator,)), mu, s)


def build(params: FamilyParams) -> KnotData:
    """Knot data for ``params``, dispatched on the sign of q - p*k."""
    return (_build_minus if params.sign == -1 else _build_plus)(params)


def surgery_exponents(kd: KnotData, slope: Slope) -> tuple[int, int]:
    """Exponents (p' - q'v, q') of mu and s in the surgery relator."""
    return slope.numerator - slope.denominator * kd.params.v, slope.denominator


def surgery_presentation(kd: KnotData, slope: Slope) -> Presentation:
    """Quotient presentation for surgery along ``slope``.

    Adds the relator mu^(p' - q'v) s^(q') to the knot group presentation.
    Raises ValueError before building anything when the relator would
    have more than ``MAX_LETTERS`` letters.
    """
    mu, s = kd.mu, kd.s
    exponent, den = surgery_exponents(kd, slope)
    size = abs(exponent) * mu.letter_length + den * s.letter_length
    if size > MAX_LETTERS:
        raise over_cap(f"surgery relator along {abbreviate_text(str(slope))}", size, "letters")
    pres = kd.presentation
    return Presentation(pres.generators, pres.relators + (mu ** exponent * s ** den,))
