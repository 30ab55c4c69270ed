import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from nlo.alexander import (
    DivisionError,
    _abelian_fox,
    GroupRingElement,
    LaurentPolynomial,
    abelianize,
    alexander_polynomial,
    fox_derivative,
    lspace_surgery_threshold,
    torus_alexander,
)
from nlo.families import FamilyParams, build
from nlo.homology import h1_class_map
from nlo.words import Word, parse_word

words = st.lists(
    st.tuples(st.sampled_from("ab"), st.integers(-3, 3)), max_size=6
).map(Word)


def gre(*pairs):
    return GroupRingElement({parse_word(t): c for t, c in pairs})


def test_fox_derivative_power():
    assert fox_derivative(parse_word("a^3"), "a") == gre(("", 1), ("a", 1), ("a^2", 1))


def test_fox_derivative_other_generator():
    assert fox_derivative(parse_word("b"), "a") == GroupRingElement()


def test_fox_derivative_negative_exponents():
    got = fox_derivative(parse_word("a^3 b^-2"), "b")
    assert got == gre(("a^3 b^-1", -1), ("a^3 b^-2", -1))


@given(words, words, st.sampled_from("ab"))
def test_fox_product_rule(u, v, g):
    lhs = fox_derivative(u * v, g)
    rhs = fox_derivative(u, g) + fox_derivative(v, g).word_mul(u)
    assert lhs == rhs


def test_laurent_arithmetic_and_normalization():
    p = LaurentPolynomial({-2: 3, 1: -6})
    assert p.normalized() == LaurentPolynomial({0: -3, 3: 6}).normalized()
    assert p.normalized().min_exp == 0
    assert p.normalized().coeffs[p.normalized().max_exp] > 0
    assert (p - p) == LaurentPolynomial()
    q = LaurentPolynomial({0: 1, 2: 1})
    r = LaurentPolynomial({0: 2, 1: -1})
    assert (q * r).evaluate(2) == q.evaluate(2) * r.evaluate(2)
    assert p.evaluate(1) == -3


def test_laurent_divexact_errors():
    t2_minus_1 = LaurentPolynomial({2: 1, 0: -1})
    t_minus_1 = LaurentPolynomial({1: 1, 0: -1})
    assert t2_minus_1.divexact(t_minus_1) == LaurentPolynomial({1: 1, 0: 1})
    with pytest.raises(DivisionError):
        LaurentPolynomial({1: 1, 0: 1}).divexact(t_minus_1)


def test_laurent_text_round_trip():
    p = LaurentPolynomial({0: 1, 1: -1, 2: 1})
    assert p.to_text() == "1*t^0 + -1*t^1 + 1*t^2"
    assert LaurentPolynomial.parse(p.to_text()) == p
    assert LaurentPolynomial.parse("0") == LaurentPolynomial()


def test_torus_alexander_small_cases():
    assert torus_alexander(2, 3) == LaurentPolynomial({0: 1, 1: -1, 2: 1})
    assert torus_alexander(2, 5) == LaurentPolynomial(
        {0: 1, 1: -1, 2: 1, 3: -1, 4: 1}
    )
    assert torus_alexander(3, 5) == torus_alexander(5, 3)
    with pytest.raises(ValueError):
        torus_alexander(2, 4)


def test_alexander_trefoil():
    tref = build(FamilyParams(3, 1, -1, 2, 0))
    assert alexander_polynomial(tref) == torus_alexander(3, 2)


def test_alexander_torus_degenerations():
    for p, k, sign in [(5, 1, -1), (3, 2, -1), (4, 1, 1), (5, 2, 1)]:
        kd = build(FamilyParams(p, k, sign, 2, 0))
        assert alexander_polynomial(kd) == torus_alexander(p, p * k + sign)


def test_alexander_symmetry_and_unit_value():
    random.seed(7)
    sample = [(3, 2, -1, 2, 1), (4, 1, -1, 2, 1), (5, 2, 1, 4, 2), (6, 1, 1, 5, 3)]
    for ptuple in sample:
        delta = alexander_polynomial(build(FamilyParams(*ptuple)))
        assert delta.evaluate(1) in (1, -1)
        assert delta == delta.reciprocal().normalized()


def test_abelianize_group_ring():
    element = gre(("a b", 2), ("b^-1", -1))
    poly = abelianize(element, {"a": 2, "b": 3})
    assert poly == LaurentPolynomial({5: 2, -3: -1})


# The one-pass abelianized derivative against the reference Fox calculus.


@given(words, st.sampled_from("ab"), st.integers(-5, 5), st.integers(-5, 5))
def test_abelian_fox_matches_reference(w, gen, class_a, class_b):
    classes = {"a": class_a, "b": class_b}
    assert _abelian_fox(w, gen, classes) == abelianize(fox_derivative(w, gen), classes)


def test_abelian_fox_matches_reference_on_relators():
    pairs = 0
    for p in range(3, 10):
        for k in range(1, 6):
            for sign in (-1, 1):
                for ell in range(2, p):
                    for m in range(0, 5):
                        kd = build(FamilyParams(p, k, sign, ell, m))
                        pres = kd.presentation
                        classes = h1_class_map(pres, normalize_by=kd.peripheral.mu)
                        for gen in pres.generators:
                            relator = pres.relators[0]
                            reference = abelianize(fox_derivative(relator, gen), classes)
                            assert _abelian_fox(relator, gen, classes) == reference
                            pairs += 1
    assert pairs == 2800


def test_threshold_trefoil():
    tref = build(FamilyParams(3, 1, -1, 2, 0))
    report = lspace_surgery_threshold(tref, alexander_polynomial(tref))
    assert (report.genus, report.threshold, report.v) == (1, 1, 6)


def test_threshold_below_framing_bound():
    kd = build(FamilyParams(3, 2, -1, 2, 1))
    report = lspace_surgery_threshold(kd, alexander_polynomial(kd))
    assert report.threshold == 9
    assert report.threshold <= report.v == 19
    assert report.gap == 10


def test_threshold_requires_lspace_parameters():
    kd = build(FamilyParams(5, 1, -1, 3, 2))
    with pytest.raises(ValueError):
        lspace_surgery_threshold(kd, alexander_polynomial(kd))
