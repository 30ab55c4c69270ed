"""Fox calculus and Alexander polynomials over exact integer arithmetic.

The Alexander polynomial of a two-generator, one-relator knot group comes
from the free derivative of the relator, abelianized through the
meridian-normalized identification of H1 with the integers (derived from
Smith normal form, not hand-coded per family).  The abelianized derivative
is computed in one pass over the relator; :func:`fox_derivative` with
:func:`abelianize` is the slow reference the tests compare it against.
The classical torus-knot closed form serves as an independent oracle for
the untwisted degenerations.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .families import KnotData, is_lspace_knot
from .homology import h1_class_map, word_class
from .words import Word

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
        """Exact division; raises DivisionError on a nonzero remainder."""
        if not divisor:
            raise ZeroDivisionError("division by the zero polynomial")
        if not self:
            return LaurentPolynomial()
        shift = self.min_exp - divisor.min_exp
        rem = {e - self.min_exp: c for e, c in self.coeffs.items()}
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

    def evaluate(self, value: int) -> int:
        """Evaluate at a nonzero integer (via exact rationals)."""
        total = Fraction(0)
        for e, c in self.coeffs.items():
            total += c * Fraction(value) ** e
        if total.denominator != 1:
            raise ValueError(f"evaluation at {value} is not an integer")
        return int(total)

    def reciprocal(self) -> "LaurentPolynomial":
        """Substitute t -> 1/t."""
        return LaurentPolynomial({-e: c for e, c in self.coeffs.items()})

    def normalized(self) -> "LaurentPolynomial":
        """Fix the unit ambiguity: lowest exponent 0, top coefficient > 0."""
        if not self.coeffs:
            return LaurentPolynomial()
        shifted = {e - self.min_exp: c for e, c in self.coeffs.items()}
        if shifted[max(shifted)] < 0:
            shifted = {e: -c for e, c in shifted.items()}
        return LaurentPolynomial(shifted)

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


class GroupRingElement:
    """Formal integer combination of reduced words."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[Word, int] | None = None):
        self.terms = {w: c for w, c in (terms or {}).items() if c != 0}

    def __eq__(self, other) -> bool:
        return isinstance(other, GroupRingElement) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def __add__(self, other: "GroupRingElement") -> "GroupRingElement":
        out = dict(self.terms)
        for w, c in other.terms.items():
            out[w] = out.get(w, 0) + c
        return GroupRingElement(out)

    def __neg__(self) -> "GroupRingElement":
        return GroupRingElement({w: -c for w, c in self.terms.items()})

    def __sub__(self, other: "GroupRingElement") -> "GroupRingElement":
        return self + (-other)

    def word_mul(self, w: Word) -> "GroupRingElement":
        """Left multiplication by a single word."""
        return GroupRingElement({w * u: c for u, c in self.terms.items()})

    def __repr__(self) -> str:
        inner = " + ".join(f"{c}*[{u!r}]" for u, c in self.terms.items())
        return f"GroupRingElement({inner or '0'})"


def fox_derivative(w: Word, gen: str) -> GroupRingElement:
    """Free derivative, satisfying D(uv) = D(u) + u D(v), D(g) = 1,
    D(g^-1) = -g^-1, and D(h) = 0 for h != g."""
    terms: dict[Word, int] = {}

    def add(word: Word, coeff: int) -> None:
        terms[word] = terms.get(word, 0) + coeff

    prefix = Word()
    for g, e in w.syllables:
        if g == gen:
            if e > 0:
                for i in range(e):
                    add(prefix * Word([(g, i)]), 1)
            else:
                for i in range(1, -e + 1):
                    add(prefix * Word([(g, -i)]), -1)
        prefix = prefix * Word([(g, e)])
    return GroupRingElement(terms)


def abelianize(element: GroupRingElement, classes: dict[str, int]) -> LaurentPolynomial:
    """Image of a group ring element in Z[t, 1/t] under g -> t^class(g)."""
    out: dict[int, int] = {}
    for w, c in element.terms.items():
        e = word_class(w, classes)
        out[e] = out.get(e, 0) + c
    return LaurentPolynomial(out)


def _abelian_fox(w: Word, gen: str, classes: dict[str, int]) -> LaurentPolynomial:
    """``abelianize(fox_derivative(w, gen), classes)`` in one pass over the
    syllables of ``w``, carrying the class of the prefix read so far."""
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
    """Normalized Alexander polynomial from the relator's Fox derivatives.

    Computed twice (one derivative per generator) and cross-checked; the
    result is symmetric with value ±1 at t = 1, both verified here since
    their failure signals a broken presentation.
    """
    pres = kd.presentation
    if len(pres.generators) != 2 or len(pres.relators) != 1:
        raise ValueError("expected a two-generator, one-relator presentation")
    classes = h1_class_map(pres, normalize_by=kd.peripheral.mu)
    g0, g1 = pres.generators
    relator = pres.relators[0]
    t_minus_1 = LaurentPolynomial({1: 1, 0: -1})

    def from_derivative(gen: str, other: str) -> LaurentPolynomial:
        numerator = _abelian_fox(relator, gen, classes) * t_minus_1
        divisor = LaurentPolynomial({classes[other]: 1, 0: -1})
        return numerator.divexact(divisor).normalized()

    delta = from_derivative(g0, g1)
    check = from_derivative(g1, g0)
    if delta != check:
        raise ValueError("Fox derivatives disagree; presentation is inconsistent")
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
    status = is_lspace_knot(kd.params)
    if not status.is_lspace:
        raise ValueError(
            f"parameters {kd.params} are not in an L-space knot case"
        )
    if delta.breadth % 2 != 0:
        raise ValueError(
            f"Alexander breadth {delta.breadth} is odd; expected even breadth"
        )
    genus = delta.breadth // 2
    return ThresholdReport(genus=genus, threshold=2 * genus - 1, v=kd.peripheral.v)
