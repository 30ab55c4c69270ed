"""Slow reference Fox calculus over the integral group ring of a free group.

`nlo.alexander` computes the abelianized Fox derivative in one pass over
the relator (`_abelian_fox`) without building group ring elements.  This
module keeps the full free derivative, a formal integer combination of
reduced words, and its abelianization, so the tests can compare the two.
"""

from __future__ import annotations

from nlo.words import Word, exponent_sum

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


def word_class(w: Word, classes: dict[str, int]) -> int:
    """Image of a word in H1 under a generator -> class assignment."""
    return sum(exponent_sum(w, g) * classes[g] for g in classes)


def abelianize(element: GroupRingElement, classes: dict[str, int]) -> dict[int, int]:
    """Image of a group ring element in Z[t, 1/t] under g -> t^class(g), as
    an {exponent: coefficient} dict without zero terms."""
    out: dict[int, int] = {}
    for w, c in element.terms.items():
        e = word_class(w, classes)
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}
