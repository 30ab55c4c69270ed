"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as the
criteria execute.
"""

import dataclasses
import functools
import math
import random
import time

import pytest

from nlo.alexander import alexander_polynomial
from nlo.certificates import (
    CLAUSE_FRAMING,
    CLAUSE_MERIDIAN,
    CLAUSE_POSITIVITY,
    ELL2_REFUSAL,
    UnsupportedParameters,
    certify,
    verify_certificate,
    xy_change,
)
from nlo.cosets import todd_coxeter
from nlo.families import FamilyParams, Slope, build, surgery_presentation
from nlo.homology import h1
from nlo.presentation import replay_trace
from nlo.sweep import SweepSpec, grid_instances
from nlo.words import (
    Word,
    exponent_sum,
    is_positive,
    parse_word,
    substitute,
)
from reference_fox import fox_derivative
from reference_laurent import coefficients, evaluate, normalized, poly, reciprocal, torus_alexander

GRID = grid_instances(SweepSpec())


def criterion(number, name):
    def wrap(fn):
        @functools.wraps(fn)
        def run():
            try:
                fn()
            except BaseException:
                print(f"ACCEPTANCE {number} ({name}): FAIL")
                raise
            print(f"ACCEPTANCE {number} ({name}): PASS")

        return run

    return wrap


def expected_positive_form(params):
    """Case closed forms, instantiated independently of the certifier.

    For the q = pk-1 family with ell = p-1 and k = 1 the direct form
    carries no x, so the expected word is the once-rewritten variant
    y^m (y x y^m)^(p-2) y x.
    """
    p, k, m = params.p, params.k, params.m
    x, y = parse_word("x"), parse_word("y")
    yx, xy = y * x, x * y
    if params.sign == -1 and params.ell == p - 1:
        if k == 1:
            return y ** m * (y * x * y ** m) ** (p - 2) * y * x
        return (yx ** (k - 1) * y ** (m + 1)) ** (p - 1) * yx ** (k - 1) * y
    if params.sign == -1 and params.ell == p - 2:
        run = yx ** (k - 1)
        return x * run * (y * run * y) ** (p - 2) * run * y
    if params.sign == 1 and params.ell == p - 1:
        return (xy ** (k + 1) * y ** (m - 1)) ** (p - 1) * xy ** k * x
    if params.sign == 1 and params.ell == p - 2:
        return xy ** (2 * k + 1) * (y * xy ** k) ** (p - 3) * xy ** k * x
    raise AssertionError(params)


@criterion(1, "closed-form agreement over the grid")
def test_criterion_1_closed_form_agreement():
    start = time.monotonic()
    assert len(GRID) == 152
    for params in GRID:
        kd = build(params)
        cert = certify(kd)
        replayed = replay_trace(
            kd.s, cert.trace, kd.presentation.relators
        )
        rewritten = substitute(replayed, cert.change.forward)
        assert rewritten == expected_positive_form(params), params
        assert cert.positive_s == rewritten, params
        report = verify_certificate(kd, cert)
        assert report.passed, (params, report.failures)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"grid took {elapsed:.1f}s"


@criterion(2, "bound values equal pq + ell^2 m")
def test_criterion_2_bound_values():
    for params in GRID:
        cert = certify(build(params))
        assert cert.v == params.p * params.q + params.ell ** 2 * params.m, params
    assert certify(build(FamilyParams(3, 2, -1, 2, 1))).v == 19
    assert certify(build(FamilyParams(3, 1, 1, 2, 1))).v == 16


@criterion(3, "torus-knot degeneration at m = 0")
def test_criterion_3_torus_degeneration():
    for p in range(3, 8):
        for k in range(1, 5):
            for sign in (-1, 1):
                kd = build(FamilyParams(p, k, sign, 2, 0))
                q = p * k + sign
                assert kd.presentation.relators[0] == Word([("a", p), ("b", -q)])
                assert alexander_polynomial(kd) == coefficients(torus_alexander(p, q))


@criterion(4, "surgery homology order equals |p'|")
def test_criterion_4_surgery_homology():
    rng = random.Random(20260810)
    for params in GRID:
        kd = build(params)
        for _ in range(20):
            while True:
                num = rng.randint(-60, 60)
                den = rng.randint(1, 12)
                if num != 0 and math.gcd(abs(num), den) == 1:
                    break
            group = h1(surgery_presentation(kd, Slope(num, den)))
            assert group.free_rank == 0, (params, num, den)
            assert group.order() == abs(num), (params, num, den)
        zero = h1(surgery_presentation(kd, Slope(0, 1)))
        assert zero.free_rank == 1


@criterion(5, "finite quotient ground truth for the trefoil")
def test_criterion_5_finite_quotients():
    tref = build(FamilyParams(3, 1, -1, 2, 0))
    start = time.monotonic()
    table = todd_coxeter(surgery_presentation(tref, Slope(1, 1)), [])
    assert table.is_complete() and table.num_cosets == 120
    assert time.monotonic() - start < 5.0
    start = time.monotonic()
    table = todd_coxeter(surgery_presentation(tref, Slope(5, 1)), [])
    assert table.is_complete() and table.num_cosets == 5
    assert time.monotonic() - start < 5.0


def random_word(rng):
    return Word(
        [(rng.choice("ab"), rng.randint(-3, 3)) for _ in range(rng.randint(0, 6))]
    )


@criterion(6, "property suites")
def test_criterion_6_property_suites():
    rng = random.Random(1729)
    # Word algebra laws on random raw syllable lists.
    for _ in range(500):
        raw = [(rng.choice("ab"), rng.randint(-3, 3)) for _ in range(6)]
        w = Word(raw)
        assert Word(w.syllables) == w
        u, v = random_word(rng), random_word(rng)
        images = {"a": random_word(rng), "b": random_word(rng)}
        images = {g: substitute(w_, {"a": parse_word("x"), "b": parse_word("y")})
                  for g, w_ in images.items()}
        assert substitute(u * v, images) == substitute(u, images) * substitute(v, images)
        for g in "ab":
            assert exponent_sum(u * v, g) == exponent_sum(u, g) + exponent_sum(v, g)
    # Fox product rule on 10^3 random word pairs.
    for _ in range(1000):
        u, v = random_word(rng), random_word(rng)
        g = rng.choice("ab")
        assert fox_derivative(u * v, g) == fox_derivative(u, g) + fox_derivative(
            v, g
        ).word_mul(u)
    # Alexander symmetry and determinant condition on every grid instance.
    for params in GRID:
        delta = alexander_polynomial(build(params))
        assert coefficients(normalized(reciprocal(poly(0, delta)))) == delta, params
        assert evaluate(poly(0, delta), 1) in (1, -1), params
    # Relator abelianization is (p, -q) on every grid instance.
    for params in GRID:
        r = build(params).presentation.relators[0]
        assert (exponent_sum(r, "a"), exponent_sum(r, "b")) == (params.p, -params.q)


@criterion(7, "negative controls")
def test_criterion_7_negative_controls():
    kd = build(FamilyParams(3, 2, -1, 2, 1))
    cert = certify(kd)
    # Sign-flipped syllable in the positive word.
    syl = list(cert.positive_s.syllables)
    syl[0] = (syl[0][0], -syl[0][1])
    report = verify_certificate(kd, dataclasses.replace(cert, positive_s=Word(syl)))
    assert not report.passed
    assert any(f.startswith(CLAUSE_POSITIVITY) for f in report.failures)
    # Wrong framing coefficient.
    report = verify_certificate(kd, dataclasses.replace(cert, v=cert.v - 1))
    assert not report.passed
    assert any(f.startswith(CLAUSE_FRAMING) for f in report.failures)
    # Wrong k in the generator maps.
    report = verify_certificate(
        kd, dataclasses.replace(cert, change=xy_change(FamilyParams(4, 3, -1, 2, 1)))
    )
    assert not report.passed
    assert any(f.startswith(CLAUSE_MERIDIAN) for f in report.failures)
    # The third L-space case is refused with the documented message.
    for p in (5, 6, 7):
        with pytest.raises(UnsupportedParameters) as err:
            certify(build(FamilyParams(p, 1, -1, 2, 1)))
        assert str(err.value) == ELL2_REFUSAL
    # Positive certificates for the same instances exist in neither change.
    assert is_positive(certify(build(FamilyParams(4, 1, 1, 2, 1))).positive_s)
    assert tuple(xy_change(FamilyParams(4, 1, 1, 2, 1)).backward) == ("x", "y")
