"""Closed-form knot group presentations for the twisted torus knots
T(p, pk±1; ell, m) and their Dehn surgery quotients.

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
from dataclasses import dataclass

from .presentation import Presentation
from .words import MAX_LETTERS, Word, abbreviate_text, over_cap

M_ZERO_NOTE = (
    "m = 0 is the untwisted torus-knot degeneration, outside the standing "
    "assumption m > 0 of the certified families"
)


class ParameterError(ValueError):
    """Family parameters outside their documented bounds."""


@dataclass(frozen=True)
class FamilyParams:
    """Parameters (p, k, sign, ell, m) selecting T(p, pk+sign; ell, m).

    The one place the family parameters are range-checked: p >= 3,
    k >= 1, sign = ±1, 2 <= ell <= p-1 and m >= 0, so q >= 2.  ell = p is refused with a
    message that names the equal torus-knot instance (k + m, m = 0).
    """

    p: int
    k: int
    sign: int
    ell: int
    m: int

    def __post_init__(self):
        if self.p < 3:
            raise ParameterError(f"require p >= 3, got p = {self.p}")
        if self.k < 1:
            raise ParameterError(f"require k >= 1, got k = {self.k}")
        if self.sign not in (1, -1):
            raise ParameterError(f"require sign in {{+1, -1}}, got {self.sign}")
        if self.m < 0:
            raise ParameterError(f"require m >= 0, got m = {self.m}")
        if self.ell == self.p:
            p, q, k, m = self.p, self.q, self.k, self.m
            raise ParameterError(
                f"ell = p = {p} is outside 2 <= ell <= p-1: T({p}, {q}; {p}, {m}) "
                f"is the torus knot T({p}, {q + p * m}), the instance k = {k + m}, "
                f"m = 0 with any 2 <= ell <= {p - 1}"
            )
        if not 2 <= self.ell <= self.p - 1:
            raise ParameterError(
                f"require 2 <= ell <= p-1 = {self.p - 1}, got ell = {self.ell}"
            )

    @property
    def q(self) -> int:
        return self.p * self.k + self.sign

    @property
    def v(self) -> int:
        """Surface framing coefficient p*q + ell^2*m."""
        return self.p * self.q + self.ell * self.ell * self.m


@dataclass(frozen=True)
class KnotData:
    """A knot group presentation with its meridian ``mu`` and surface
    framing ``s``; the framing coefficient is ``params.v``."""

    params: FamilyParams
    presentation: Presentation
    mu: Word
    s: Word


@dataclass(frozen=True)
class Slope:
    """A surgery slope numerator/denominator, stored reduced with a
    positive denominator.  Zero and negative numerators are allowed for
    exploration; the certificate layer applies its own positivity rules."""

    numerator: int
    denominator: int = 1

    def __post_init__(self):
        num, den = self.numerator, self.denominator
        if den == 0:
            raise ParameterError("slope denominator must be nonzero")
        if den < 0:
            num, den = -num, -den
        g = math.gcd(num, den)
        if g > 1:
            num //= g
            den //= g
        object.__setattr__(self, "numerator", num)
        object.__setattr__(self, "denominator", den)

    @classmethod
    def parse(cls, text: str) -> "Slope":
        head, sep, tail = text.partition("/")
        try:
            num, den = int(head), (int(tail) if sep else 1)
        except ValueError as exc:
            raise ParameterError(f"malformed slope {abbreviate_text(repr(text))}") from exc
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


def _gen(name: str, exp: int = 1) -> Word:
    return Word([(name, exp)])


def _build_minus(params: FamilyParams) -> KnotData:
    """Knot data for T(p, pk-1; ell, m).

    Relator:  a^(p-l) (a C^m)^(l-1) a  =  b^(k(p-l)-1) (b^k C^m)^(l-1) b^k
    with C = b^(1-k(p-l)) a^(p-l); meridian mu = a^-1 b^k; framing
    s = a^(p-l-1) (a C^m)^l a with coefficient v = p(pk-1) + l^2 m.
    """
    p, k, ell, m = params.p, params.k, params.ell, params.m
    pl = p - ell
    a, b = _gen("a"), _gen("b")
    c = Word([("b", 1 - k * pl), ("a", pl)])
    lhs = a ** pl * (a * c ** m) ** (ell - 1) * a
    rhs = b ** (k * pl - 1) * (b ** k * c ** m) ** (ell - 1) * b ** k
    relator = lhs * ~rhs
    mu = ~a * b ** k
    s = a ** (pl - 1) * (a * c ** m) ** ell * a
    return KnotData(params, Presentation(("a", "b"), (relator,)), mu, s)


def _build_plus(params: FamilyParams) -> KnotData:
    """Knot data for T(p, pk+1; ell, m).

    Relator:  a (C^m a)^(l-1) a^(p-l)  =  b^k (C^m b^k)^(l-1) b^(k(p-l)+1)
    with C = b^(k(p-l)+1) a^(l-p); meridian mu = b^-k a; framing
    s = (C^m a)^l a^(p-l) with coefficient v = p(pk+1) + l^2 m.
    """
    p, k, ell, m = params.p, params.k, params.ell, params.m
    pl = p - ell
    a, b = _gen("a"), _gen("b")
    c = Word([("b", k * pl + 1), ("a", -pl)])
    lhs = a * (c ** m * a) ** (ell - 1) * a ** pl
    rhs = b ** k * (c ** m * b ** k) ** (ell - 1) * b ** (k * pl + 1)
    relator = lhs * ~rhs
    mu = b ** (-k) * a
    s = (c ** m * a) ** ell * a ** pl
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
        raise over_cap(f"surgery relator along {slope}", size, "letters")
    pres = kd.presentation
    return Presentation(pres.generators, pres.relators + (mu ** exponent * s ** den,))
