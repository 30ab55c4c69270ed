import hashlib
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_laurent
from nlo.alexander import (
    DivisionError,
    _abelian_fox,
    LaurentPolynomial,
    alexander_polynomial,
    lspace_surgery_threshold,
    torus_alexander,
)
from nlo.cli import EXIT_OK, main
from nlo.families import FamilyParams, KnotData, ParameterError, build, lspace_case
from nlo.homology import h1_class_map
from nlo.presentation import Presentation
from nlo.words import MAX_LETTERS, Word, exponent_sum, parse_word
from reference_braid import braid_alexander
from reference_fox import GroupRingElement, abelianize, fox_derivative

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


# The linear Laurent methods against the quadratic reference.

polys = st.dictionaries(
    st.integers(-12, 12), st.integers(-4, 4), max_size=6
).map(LaurentPolynomial)
nonzero_polys = polys.filter(bool)


def _outcome(fn, *args):
    """The value ``fn`` returns, or the type of the error it raises."""
    try:
        return fn(*args)
    except (ArithmeticError, ValueError) as exc:
        return type(exc)


@settings(deadline=None)
@given(polys, nonzero_polys, polys)
def test_divexact_matches_reference(p, q, r):
    assert (p * q).divexact(q) == p == reference_laurent.divexact(p * q, q)
    assert _outcome(r.divexact, q) == _outcome(reference_laurent.divexact, r, q)
    assert _outcome(p.divexact, LaurentPolynomial()) is ZeroDivisionError
    assert _outcome(reference_laurent.divexact, p, LaurentPolynomial()) is ZeroDivisionError


@settings(deadline=None)
@given(polys, polys.filter(lambda q: len(q.coeffs) > 1), st.integers(-4, 4).filter(bool))
def test_divexact_rejects_non_multiples(p, q, c):
    # A nonzero constant is not a multiple of a polynomial with two or more
    # terms, so neither is p*q + c.
    off = p * q + LaurentPolynomial({0: c})
    with pytest.raises(DivisionError):
        off.divexact(q)
    with pytest.raises(DivisionError):
        reference_laurent.divexact(off, q)


@settings(deadline=None)
@given(polys)
def test_evaluate_and_normalized_match_reference(p):
    for value in (1, -1, 2, -2, 3):
        assert _outcome(p.evaluate, value) == _outcome(reference_laurent.evaluate, p, value)
    assert p.normalized() == reference_laurent.normalized(p)


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


def test_braid_alexander_trefoil():
    assert braid_alexander(2, 3, 2, 0) == torus_alexander(2, 3)


def test_braid_closure_matches_fox_on_grid():
    # p 3:7, k 1:3, both signs, 2 <= ell <= p-1, m 0:2: 270 instances, of
    # which the twisted non-L-space ones have no other value check.
    mismatched = []
    count = 0
    for p in range(3, 8):
        for k in range(1, 4):
            for sign in (-1, 1):
                for ell in range(2, p):
                    for m in range(3):
                        params = FamilyParams(p, k, sign, ell, m)
                        braid = braid_alexander(p, params.q, ell, m).normalized()
                        if braid != alexander_polynomial(build(params)).normalized():
                            mismatched.append((p, k, sign, ell, m))
                        count += 1
    assert count == 270
    assert mismatched == []


def test_braid_closure_ell_equals_p_is_the_named_torus_knot():
    # Full twists on all p strands give T(p, q + pm), the instance that
    # the ell = p refusal names: k + m and m = 0, with any 2 <= ell <= p-1.
    mismatched = []
    count = 0
    for p in range(3, 8):
        for k in range(1, 4):
            for sign in (-1, 1):
                for m in range(3):
                    q = p * k + sign
                    with pytest.raises(ParameterError, match=f"k = {k + m}, m = 0"):
                        FamilyParams(p, k, sign, p, m)
                    named = build(FamilyParams(p, k + m, sign, p - 1, 0))
                    braid = braid_alexander(p, q, p, m).normalized()
                    if not braid == torus_alexander(p, q + p * m) == alexander_polynomial(named):
                        mismatched.append((p, k, sign, m))
                    count += 1
    assert count == 90
    assert mismatched == []


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


def cyclotomic(c):
    """t^c - 1 as a difference of monomials, so that c = 0 gives 0."""
    return LaurentPolynomial({c: 1}) - LaurentPolynomial({0: 1})


@given(words, st.integers(-5, 5), st.integers(-5, 5))
def test_abelian_fox_fundamental_formula(w, class_a, class_b):
    # Fox: the sum over g of phi(dw/dg) (t^phi(g) - 1) is t^phi(w) - 1.
    classes = {"a": class_a, "b": class_b}
    total = LaurentPolynomial()
    for g in "ab":
        total = total + _abelian_fox(w, g, classes) * cyclotomic(classes[g])
    phi_w = sum(exponent_sum(w, g) * classes[g] for g in "ab")
    assert total == cyclotomic(phi_w)


def test_abelian_fox_matches_reference_on_relators():
    pairs = 0
    for p in range(3, 10):
        for k in range(1, 6):
            for sign in (-1, 1):
                for ell in range(2, p):
                    for m in range(0, 5):
                        kd = build(FamilyParams(p, k, sign, ell, m))
                        pres = kd.presentation
                        classes = h1_class_map(pres, kd.mu)
                        relator = pres.relators[0]
                        quotients = []
                        for gen, other in (pres.generators, pres.generators[::-1]):
                            reference = abelianize(fox_derivative(relator, gen), classes)
                            assert _abelian_fox(relator, gen, classes) == reference
                            numerator = reference * cyclotomic(1)
                            quotients.append(
                                numerator.divexact(cyclotomic(classes[other])).normalized()
                            )
                            pairs += 1
                        # Either derivative gives the same polynomial, so
                        # alexander_polynomial takes one of them.
                        assert quotients[0] == quotients[1] == alexander_polynomial(kd)
    assert pairs == 2800


def _knot_data(relator: str, meridian: str) -> KnotData:
    """A bare two-generator presentation in the KnotData shape; only the
    presentation and the meridian are read by alexander_polynomial."""
    pres = Presentation(("a", "b"), (parse_word(relator),))
    return KnotData(FamilyParams(3, 1, -1, 2, 0), pres, parse_word(meridian), Word())


@pytest.mark.parametrize(
    "relator, meridian", [("b", "a"), ("a", "b")], ids=["b-killed", "a-killed"]
)
def test_alexander_of_a_generator_of_class_zero(relator, meridian):
    # <a, b | b> and <a, b | a> are Z, so the polynomial is 1.  The killed
    # generator has class 0, and the derivative is taken by it.
    kd = _knot_data(relator, meridian)
    assert 0 in h1_class_map(kd.presentation, kd.mu).values()
    assert alexander_polynomial(kd) == LaurentPolynomial({0: 1})


def test_alexander_refuses_baumslag_solitar_as_not_symmetric():
    # BS(1, 2) has H1 = Z generated by a, with b of class 0; its
    # polynomial t - 2 is not symmetric.
    with pytest.raises(ValueError, match="polynomial is not symmetric"):
        alexander_polynomial(_knot_data("a b a^-1 b^-2", "a"))


def test_alexander_takes_one_fox_derivative(monkeypatch):
    import nlo.alexander as alexander_mod

    calls = []
    real = alexander_mod._abelian_fox

    def counted(*args):
        calls.append(args[1])
        return real(*args)

    monkeypatch.setattr(alexander_mod, "_abelian_fox", counted)
    grid = [(3, 1, -1, 2, 0), (3, 2, -1, 2, 1), (5, 2, 1, 4, 2), (6, 1, 1, 5, 3)]
    for params in grid:
        alexander_polynomial(build(FamilyParams(*params)))
    assert calls == ["a"] * len(grid)
    alexander_polynomial(_knot_data("b", "a"))
    assert calls[-1] == "b"


def test_alexander_refuses_an_oversized_relator_before_any_work(monkeypatch):
    import nlo.alexander as alexander_mod

    def unreachable(*args):
        raise AssertionError("the class map ran on an oversized relator")

    monkeypatch.setattr(alexander_mod, "h1_class_map", unreachable)
    kd = build(FamilyParams(3, MAX_LETTERS // 3, -1, 2, 1))
    assert kd.presentation.relators[0].letter_length > MAX_LETTERS
    with pytest.raises(ValueError, match=f"MAX_LETTERS = {MAX_LETTERS}"):
        alexander_polynomial(kd)


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


# `nlo alexander` over the L-space instances of p 3:9, k 1:5, m 1:4 plus the
# m = 0 torus knots T(p, pk±1), 460 in all (the benchmark's alexander grid).
# sha256 of each instance's canonical content, one line per instance in
# grid order, as computed before the Laurent arithmetic was made linear.
ALEXANDER_GRID_SHA256 = "c647273698789ed67690ffbaf39552291571d5a52c69b9d65a4f066e4f6d9df8"


def _lspace_grid():
    out = []
    for p in range(3, 10):
        for k in range(1, 6):
            for sign in (-1, 1):
                out.append((p, k, sign, p - 1, 0))
                for ell in range(2, p):
                    for m in range(1, 5):
                        if lspace_case(FamilyParams(p, k, sign, ell, m)) is not None:
                            out.append((p, k, sign, ell, m))
    return out


def test_alexander_grid_content_pinned_and_lspace_shaped(capsys):
    grid = _lspace_grid()
    assert len(grid) == 460
    digest = hashlib.sha256()
    for params in grid:
        argv = [f"--{n}={x}" for n, x in zip(("p", "k", "sign", "ell", "m"), params)]
        assert main(["alexander", *argv]) == EXIT_OK, params
        content = json.loads(capsys.readouterr().out)["content"]
        digest.update(json.dumps(content, sort_keys=True, separators=(",", ":")).encode())
        digest.update(b"\n")
        # Ozsvath-Szabo: an L-space knot's polynomial is symmetric, of even
        # breadth, with coefficients +-1 alternating in sign.
        delta = LaurentPolynomial.parse(content["polynomial"])
        assert delta == delta.reciprocal().normalized(), params
        assert content["degree"] == delta.breadth and delta.breadth % 2 == 0, params
        ordered = [c for _, c in sorted(delta.coeffs.items())]
        assert all(abs(c) == 1 for c in ordered), params
        assert all(a == -b for a, b in zip(ordered, ordered[1:])), params
    assert digest.hexdigest() == ALEXANDER_GRID_SHA256
