import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlo.alexander import (
    _abelian_fox,
    _divide_cyclotomic,
    _is_symmetric,
    _normalize,
    alexander_polynomial,
    genus,
    polynomial_text,
)
from nlo.cli import EXIT_OK, main
from nlo.families import (
    FamilyParams,
    KnotData,
    Presentation,
    build,
    lspace_case,
)
from nlo.homology import h1_class_map
from nlo.words import MAX_LETTERS, Word, exponent_sum, parse_word
from reference_braid import braid_alexander
from reference_fox import GroupRingElement, abelianize, fox_derivative
from reference_laurent import (
    add,
    coefficients,
    cyclotomic,
    dense,
    divexact,
    evaluate,
    is_symmetric,
    mul,
    neg,
    normalized,
    parse,
    poly,
    reciprocal,
    semigroup_torus_alexander,
    sub,
    torus_alexander,
)

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
    # The reference arithmetic that the oracles below are computed with.
    p = {-2: 3, 1: -6}
    assert normalized(p) == normalized({0: -3, 3: 6})
    assert min(normalized(p)) == 0
    assert normalized(p)[max(normalized(p))] > 0
    assert sub(p, p) == {}
    q = {0: 1, 2: 1}
    r = {0: 2, 1: -1}
    assert evaluate(mul(q, r), 2) == evaluate(q, 2) * evaluate(r, 2)
    assert evaluate(p, 1) == -3


def test_laurent_divexact_errors():
    coeffs = [-1, 0, 1]  # t^2 - 1 = -(1 - t)(1 + t)
    _divide_cyclotomic(coeffs, 1)
    assert coeffs == [-1, -1]
    with pytest.raises(ValueError, match="nonzero remainder"):
        _divide_cyclotomic([1, 1], 1)


# Each dense step of alexander_polynomial against the reference dict
# arithmetic.

polys = st.dictionaries(st.integers(-12, 12), st.integers(-4, 4).filter(bool), max_size=6)
nonzero_classes = st.integers(-5, 5).filter(bool)


def _outcome(fn, *args):
    """The value ``fn`` returns, or the type of the error it raises."""
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc)


def _dense_quotient(p: dict[int, int], m: int) -> dict[int, int]:
    """``p / (t^m - 1)`` by the dense kernel, which divides by 1 - t^|m|:
    t^m - 1 is -(1 - t^m) for m > 0 and t^m (1 - t^-m) for m < 0."""
    low, coeffs = dense(p)
    _divide_cyclotomic(coeffs, m)
    return neg(poly(low, coeffs)) if m > 0 else poly(low - m, coeffs)


@settings(deadline=None)
@given(polys, nonzero_classes, polys)
def test_divexact_matches_reference(p, m, r):
    product = mul(p, cyclotomic(m))
    assert _dense_quotient(product, m) == p == divexact(product, cyclotomic(m))
    assert _outcome(_dense_quotient, r, m) == _outcome(divexact, r, cyclotomic(m))


@settings(deadline=None)
@given(polys, nonzero_classes, st.integers(-4, 4).filter(bool))
def test_divexact_rejects_non_multiples(p, m, c):
    # A nonzero constant is not a multiple of t^m - 1, so neither is
    # p (t^m - 1) + c.
    off = add(mul(p, cyclotomic(m)), {0: c})
    with pytest.raises(ValueError, match="nonzero remainder"):
        _dense_quotient(off, m)
    with pytest.raises(ValueError, match="leading coefficient not divisible|nonzero remainder"):
        divexact(off, cyclotomic(m))


@settings(deadline=None)
@given(polys)
def test_evaluate_and_normalized_match_reference(p):
    # p + p(1/t) is symmetric and p - p(1/t) antisymmetric, which the
    # symmetry check must also take as symmetric once normalized.
    # The dense list also goes in padded with zeros at both ends, which
    # _normalize must strip.
    for q in (p, add(p, reciprocal(p)), sub(p, reciprocal(p))):
        _, dense_coeffs = dense(q)
        for coeffs in (dense_coeffs, [0, 0, *dense_coeffs, 0]):
            _normalize(coeffs)
            assert poly(0, coeffs) == normalized(q)
            assert sum(coeffs) == evaluate(normalized(q), 1)
            if q:
                assert _is_symmetric(coeffs) == is_symmetric(q)


# Up to five runs of up to 300 zeros, each closed by a coefficient that
# may also be 0, with some coefficient nonzero, as in every Alexander
# polynomial: breadths up to 1504.
coefficient_tuples = (
    st.lists(st.tuples(st.integers(0, 300), st.integers(-4, 4)), min_size=1, max_size=5)
    .map(lambda runs: tuple(c for zeros, top in runs for c in (*[0] * zeros, top)))
    .filter(any)
)


@given(coefficient_tuples)
def test_laurent_text_round_trip(coeffs):
    assert polynomial_text((1, -1, 1)) == "1*t^0 + -1*t^1 + 1*t^2"
    assert parse(polynomial_text(coeffs)) == poly(0, coeffs)
    assert parse("0") == {}


def test_torus_alexander_small_cases():
    assert torus_alexander(2, 3) == {0: 1, 1: -1, 2: 1}
    assert torus_alexander(2, 5) == {0: 1, 1: -1, 2: 1, 3: -1, 4: 1}
    assert torus_alexander(3, 5) == torus_alexander(5, 3)
    for r, s in [(2, 3), (3, 2), (2, 9), (3, 7), (4, 9), (5, 7), (6, 11)]:
        assert semigroup_torus_alexander(r, s) == torus_alexander(r, s), (r, s)
    for oracle in (torus_alexander, semigroup_torus_alexander):
        with pytest.raises(ValueError):
            oracle(2, 4)


def test_alexander_trefoil():
    tref = build(FamilyParams(3, 1, -1, 2, 0))
    assert alexander_polynomial(tref) == coefficients(torus_alexander(3, 2))


def test_alexander_torus_degenerations():
    for p, k, sign in [(5, 1, -1), (3, 2, -1), (4, 1, 1), (5, 2, 1)]:
        kd = build(FamilyParams(p, k, sign, 2, 0))
        assert alexander_polynomial(kd) == coefficients(torus_alexander(p, p * k + sign))


@pytest.mark.parametrize(
    "params, r, s",
    [((40, 30, 1, 39, 0), 40, 1201), ((40, 1, -1, 39, 20), 39, 820)],
    ids=["T(40,1201)", "T(40,39;39,20)"],
)
def test_alexander_matches_semigroup_oracle_on_large_torus_knots(params, r, s):
    # Breadths 46,800 and 31,122.  The twisted knot has the polynomial of
    # T(39, 820).
    delta = alexander_polynomial(build(FamilyParams(*params)))
    assert len(delta) - 1 == (r - 1) * (s - 1)
    assert delta == coefficients(semigroup_torus_alexander(r, s))


def test_three_twisted_families_have_torus_polynomials():
    # The 119 instances of the 708-instance grid (p 3:12, k 1:6, m 1:5)
    # whose polynomial is that of the torus knot T(r, s) named beside them.
    families = (
        [((p, 1, -1, p - 1, m), p - 1, p + (p - 1) * m) for p in range(3, 13) for m in range(1, 6)]
        + [((p, k, 1, p - 1, 1), p, p * (k + 1) - 1) for p in range(3, 13) for k in range(1, 7)]
        + [((p, 1, -1, p - 2, 1), p - 1, 2 * p - 3) for p in range(4, 13)]
    )
    assert len(families) == 50 + 60 + 9
    mismatched = [
        (params, r, s) for params, r, s in families
        if alexander_polynomial(build(FamilyParams(*params))) != coefficients(torus_alexander(r, s))
    ]
    assert mismatched == []


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
                        braid = coefficients(normalized(braid_alexander(p, params.q, ell, m)))
                        if braid != alexander_polynomial(build(params)):
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
                    with pytest.raises(ValueError, match=f"k = {k + m}, m = 0"):
                        FamilyParams(p, k, sign, p, m)
                    named = build(FamilyParams(p, k + m, sign, p - 1, 0))
                    braid = coefficients(normalized(braid_alexander(p, q, p, m)))
                    torus = coefficients(torus_alexander(p, q + p * m))
                    if not braid == torus == alexander_polynomial(named):
                        mismatched.append((p, k, sign, m))
                    count += 1
    assert count == 90
    assert mismatched == []


def test_alexander_symmetry_and_unit_value():
    sample = [(3, 2, -1, 2, 1), (4, 1, -1, 2, 1), (5, 2, 1, 4, 2), (6, 1, 1, 5, 3)]
    for ptuple in sample:
        delta = alexander_polynomial(build(FamilyParams(*ptuple)))
        assert evaluate(poly(0, delta), 1) in (1, -1)
        assert coefficients(normalized(reciprocal(poly(0, delta)))) == delta


def test_abelianize_group_ring():
    element = gre(("a b", 2), ("b^-1", -1))
    assert abelianize(element, {"a": 2, "b": 3}) == {5: 2, -3: -1}


# The one-pass abelianized derivative against the reference Fox calculus.


@given(words, st.sampled_from("ab"), st.integers(-5, 5), st.integers(-5, 5))
def test_abelian_fox_matches_reference(w, gen, class_a, class_b):
    classes = {"a": class_a, "b": class_b}
    reference = abelianize(fox_derivative(w, gen), classes)
    assert poly(*_abelian_fox(w, gen, classes)) == reference


@given(words, st.integers(-5, 5), st.integers(-5, 5))
def test_abelian_fox_fundamental_formula(w, class_a, class_b):
    # Fox: the sum over g of phi(dw/dg) (t^phi(g) - 1) is t^phi(w) - 1.
    classes = {"a": class_a, "b": class_b}
    total: dict[int, int] = {}
    for g in "ab":
        total = add(total, mul(poly(*_abelian_fox(w, g, classes)), cyclotomic(classes[g])))
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
                            assert poly(*_abelian_fox(relator, gen, classes)) == reference
                            _, coeffs = dense(mul(reference, cyclotomic(1)))
                            _divide_cyclotomic(coeffs, classes[other])
                            _normalize(coeffs)
                            quotients.append(tuple(coeffs))
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
    assert alexander_polynomial(kd) == (1,)


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


@pytest.mark.parametrize(
    "params, g, v",
    [(FamilyParams(3, 1, -1, 2, 0), 1, 6), (FamilyParams(3, 2, -1, 2, 1), 5, 19)],
    ids=["trefoil", "T(3,5;2,1)"],
)
def test_genus_is_half_the_breadth(params, g, v):
    kd = build(params)
    assert genus(alexander_polynomial(kd)) == g
    # The L-space threshold 2g - 1 sits below the framing bound.
    assert 2 * g - 1 < kd.params.v == v


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
        delta = parse(content["polynomial"])
        assert delta == normalized(reciprocal(delta)), params
        breadth = max(delta) - min(delta)
        assert content["degree"] == breadth and breadth % 2 == 0, params
        ordered = [c for _, c in sorted(delta.items())]
        assert all(abs(c) == 1 for c in ordered), params
        assert all(a == -b for a, b in zip(ordered, ordered[1:])), params
    assert digest.hexdigest() == ALEXANDER_GRID_SHA256
