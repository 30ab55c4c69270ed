"""Fox calculus and Alexander polynomials over exact integer arithmetic.

The Alexander polynomial of a two-generator, one-relator knot group comes
from one free derivative of the relator, abelianized through the
meridian-normalized class map phi of H1 onto the integers (read from the
determinantal divisors in ``nlo.homology``).  Fox's fundamental formula,
sum_g phi(dr/dg) (t^phi(g) - 1) = t^phi(r) - 1 = 0, makes the result the
same whichever generator is taken, so a second derivative checks nothing;
the tests hold the formula itself.  The derivative is computed in one
pass over the relator; the tests compare it with the full Fox calculus in
``tests/reference_fox.py``.  Laurent division, evaluation and
normalization are linear in the breadth of their operands, compared in
the tests with the quadratic versions in ``tests/reference_laurent.py``.
The torus-knot closed form is an independent oracle for the untwisted
degenerations.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .families import KnotData, lspace_case
from .homology import h1_class_map
from .words import MAX_LETTERS, Word, over_cap

_TERM = re.compile(r"\s*([+-]?\d+)\*t\^(-?\d+)\s*")


class DivisionError(ArithmeticError):
    """Exact Laurent division left a remainder."""


class LaurentPolynomial:
    """Integer Laurent polynomial in one variable t."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict[int, int] | None = None):
        self.coeffs = {e: c for e, c in (coeffs or {}).items() if c != 0}

    def __eq__(self, other) -> bool:
        return isinstance(other, LaurentPolynomial) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(tuple(sorted(self.coeffs.items())))

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __add__(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0) + c
        return LaurentPolynomial(out)

    def __neg__(self) -> "LaurentPolynomial":
        return LaurentPolynomial({e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        return self + (-other)

    def __mul__(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        out: dict[int, int] = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
        return LaurentPolynomial(out)

    @property
    def min_exp(self) -> int:
        return min(self.coeffs) if self.coeffs else 0

    @property
    def max_exp(self) -> int:
        return max(self.coeffs) if self.coeffs else 0

    @property
    def breadth(self) -> int:
        return self.max_exp - self.min_exp if self.coeffs else 0

    def divexact(self, divisor: "LaurentPolynomial") -> "LaurentPolynomial":
        """Exact division; raises DivisionError on a nonzero remainder.

        Long division from the top degree down, each degree visited once:
        a degree's coefficient is final once every higher one is divided out.
        """
        if not divisor:
            raise ZeroDivisionError("division by the zero polynomial")
        if not self:
            return LaurentPolynomial()
        low, div_low, div_top = self.min_exp, divisor.min_exp, divisor.max_exp
        rem = {e - low: c for e, c in self.coeffs.items()}
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
        shift = low - div_low
        return LaurentPolynomial({e + shift: c for e, c in quotient.items()})

    def evaluate(self, value: int) -> int:
        """Evaluate at a nonzero integer; raises ValueError when the result
        is not an integer.  The sum is taken over integers after
        multiplying by ``value ** -min(min_exp, 0)``, then divided once."""
        shift = min(self.min_exp, 0)
        total = sum(c * value ** (e - shift) for e, c in self.coeffs.items())
        result, remainder = divmod(total, value**-shift)
        if remainder:
            raise ValueError(f"evaluation at {value} is not an integer")
        return result

    def reciprocal(self) -> "LaurentPolynomial":
        """Substitute t -> 1/t."""
        return LaurentPolynomial({-e: c for e, c in self.coeffs.items()})

    def normalized(self) -> "LaurentPolynomial":
        """Fix the unit ambiguity: lowest exponent 0, top coefficient > 0."""
        if not self.coeffs:
            return LaurentPolynomial()
        low = self.min_exp
        sign = 1 if self.coeffs[self.max_exp] > 0 else -1
        return LaurentPolynomial({e - low: sign * c for e, c in self.coeffs.items()})

    def to_text(self) -> str:
        """Sparse ``c*t^e`` terms sorted by exponent."""
        if not self.coeffs:
            return "0"
        return " + ".join(f"{c}*t^{e}" for e, c in sorted(self.coeffs.items()))

    @classmethod
    def parse(cls, text: str) -> "LaurentPolynomial":
        text = text.strip()
        if text == "0":
            return cls()
        out: dict[int, int] = {}
        for chunk in text.split("+"):
            match = _TERM.fullmatch(chunk)
            if match is None:
                raise ValueError(f"malformed polynomial term {chunk!r}")
            coeff, exp = int(match.group(1)), int(match.group(2))
            out[exp] = out.get(exp, 0) + coeff
        return cls(out)

    def __repr__(self) -> str:
        return f"LaurentPolynomial({self.to_text()!r})"


def _abelian_fox(w: Word, gen: str, classes: dict[str, int]) -> LaurentPolynomial:
    """The Fox derivative of ``w`` by ``gen`` with each word mapped to
    ``t^class``, in one pass over the syllables of ``w``, carrying the class
    of the prefix read so far."""
    out: dict[int, int] = {}
    prefix = 0
    for g, e in w.syllables:
        c = classes[g]
        if g == gen:
            # D(g^e) is 1 + g + ... + g^(e-1), or -(g^-1 + ... + g^e) for e < 0.
            start, stop, sign = (0, e, 1) if e > 0 else (e, 0, -1)
            for i in range(start, stop):
                t = prefix + i * c
                out[t] = out.get(t, 0) + sign
        prefix += e * c
    return LaurentPolynomial(out)


def alexander_polynomial(kd: KnotData) -> LaurentPolynomial:
    """Normalized Alexander polynomial from one abelianized Fox derivative.

    The derivative by generator g, times t - 1 and divided by t^c - 1 for
    the other generator's class c, is the same for either g (see the
    module docstring); g is the first generator unless c would be 0.  A
    presentation that is not a knot group's can fail the checks that
    remain: exact division, and a symmetric result with value ±1 at 1.
    Refuses a relator over MAX_LETTERS letters before any work.
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
    numerator = _abelian_fox(relator, g, classes) * LaurentPolynomial({1: 1, 0: -1})
    delta = numerator.divexact(LaurentPolynomial({classes[h]: 1, 0: -1})).normalized()
    if delta.evaluate(1) not in (1, -1):
        raise ValueError(f"polynomial value at 1 is {delta.evaluate(1)}, not ±1")
    if delta != delta.reciprocal().normalized():
        raise ValueError("polynomial is not symmetric")
    return delta


def torus_alexander(p: int, q: int) -> LaurentPolynomial:
    """Closed form (t^pq - 1)(t - 1) / ((t^p - 1)(t^q - 1)), normalized."""
    import math

    if p < 2 or q < 2 or math.gcd(p, q) != 1:
        raise ValueError(f"require coprime p, q >= 2, got ({p}, {q})")

    def cyc(n: int) -> LaurentPolynomial:
        return LaurentPolynomial({n: 1, 0: -1})

    numerator = cyc(p * q) * cyc(1)
    return numerator.divexact(cyc(p)).divexact(cyc(q)).normalized()


@dataclass(frozen=True)
class ThresholdReport:
    """Genus-derived surgery threshold 2g - 1 next to the framing bound."""

    genus: int
    threshold: int
    v: int

    @property
    def gap(self) -> int:
        return self.v - self.threshold


def lspace_surgery_threshold(kd: KnotData, delta: LaurentPolynomial) -> ThresholdReport:
    """Threshold 2g(K) - 1 with the genus read off the Alexander degree.

    ``delta`` is the knot's Alexander polynomial, as computed by
    :func:`alexander_polynomial`.  Only meaningful for L-space knot
    parameters; an odd polynomial breadth signals an inconsistency and
    raises.
    """
    if lspace_case(kd.params) is None:
        raise ValueError(
            f"parameters {kd.params} are not in an L-space knot case"
        )
    if delta.breadth % 2 != 0:
        raise ValueError(
            f"Alexander breadth {delta.breadth} is odd; expected even breadth"
        )
    genus = delta.breadth // 2
    return ThresholdReport(genus=genus, threshold=2 * genus - 1, v=kd.params.v)
