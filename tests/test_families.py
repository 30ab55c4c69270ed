import pytest

from nlo.families import (
    FamilyParams,
    M_ZERO_NOTE,
    ParameterError,
    Slope,
    build,
    lspace_case,
    surgery_presentation,
)
from nlo.homology import h1_class_map
from nlo.serialize import knot_data_to_doc
from nlo.words import MAX_LETTERS, Word, exponent_sum, parse_word
from reference_fox import word_class

GRID = [
    (p, k, sign, ell, m)
    for p in range(3, 8)
    for k in range(1, 5)
    for sign in (-1, 1)
    for ell, m in [(p - 1, 1), (p - 1, 2), (p - 1, 3)]
    + ([(p - 2, 1)] if p >= 4 else [])
]


def test_build_minus_t35_instance():
    kd = build(FamilyParams(3, 2, -1, 2, 1))
    assert kd.presentation.relators[0] == parse_word("a^2 b^-1 a^2 b^-2 a^-1 b^-2")
    assert kd.mu == parse_word("a^-1 b^2")
    assert kd.s == parse_word("a b^-1 a^2 b^-1 a^2")
    assert kd.params.v == 19


def test_build_minus_m0_collapse():
    for p, k, ell in [(3, 1, 2), (5, 2, 3), (7, 4, 6)]:
        params = FamilyParams(p, k, -1, ell, 0)
        kd = build(params)
        q = p * k - 1
        assert kd.presentation.relators[0] == Word([("a", p), ("b", -q)])
        assert kd.s == Word([("a", p)])
        assert kd.params.v == p * q
        assert knot_data_to_doc(kd)["notes"] == [M_ZERO_NOTE]


def test_build_minus_trefoil():
    kd = build(FamilyParams(3, 1, -1, 2, 0))
    assert kd.presentation.relators[0] == parse_word("a^3 b^-2")
    assert kd.mu == parse_word("a^-1 b")
    assert kd.s == parse_word("a^3")
    assert kd.params.v == 6


def test_build_plus_t34_instance():
    kd = build(FamilyParams(3, 1, 1, 2, 1))
    lhs, rhs = parse_word("a b^2 a"), parse_word("b^3 a^-1 b^3")
    assert kd.presentation.relators[0] == lhs * ~rhs
    assert kd.mu == parse_word("b^-1 a")
    assert kd.s == parse_word("b^4 a")
    assert kd.params.v == 16


def test_build_plus_m0_collapse():
    kd = build(FamilyParams(4, 2, 1, 3, 0))
    assert kd.presentation.relators[0] == Word([("a", 4), ("b", -9)])


def test_build_plus_exponent_sums():
    kd = build(FamilyParams(5, 1, 1, 4, 1))
    r = kd.presentation.relators[0]
    assert (exponent_sum(r, "a"), exponent_sum(r, "b")) == (5, -6)


@pytest.mark.parametrize("ptuple", GRID)
def test_grid_invariants(ptuple):
    params = FamilyParams(*ptuple)
    kd = build(params)
    r = kd.presentation.relators[0]
    assert (exponent_sum(r, "a"), exponent_sum(r, "b")) == (params.p, -params.q)
    classes = h1_class_map(kd.presentation, kd.mu)
    assert word_class(kd.mu, classes) == 1
    assert word_class(kd.s, classes) == kd.params.v


def test_parameter_validation():
    with pytest.raises(ParameterError):
        FamilyParams(1, 1, -1, 2, 1)
    with pytest.raises(ParameterError, match="require p >= 3"):
        FamilyParams(2, 1, 1, 2, 1)
    with pytest.raises(ParameterError):
        FamilyParams(3, 0, -1, 2, 1)
    with pytest.raises(ParameterError):
        FamilyParams(3, 1, 2, 2, 1)
    with pytest.raises(ParameterError):
        FamilyParams(3, 1, -1, 1, 1)  # ell below 2
    with pytest.raises(ParameterError):
        FamilyParams(4, 1, -1, 5, 1)  # ell above p
    with pytest.raises(ParameterError):
        FamilyParams(3, 1, -1, 2, -1)


def test_ell_equals_p_refusal_names_torus_instance():
    # T(3, 5; 3, 1) is the torus knot T(3, 8), the instance k = 3, m = 0.
    with pytest.raises(ParameterError) as err:
        FamilyParams(3, 2, -1, 3, 1)
    message = str(err.value)
    assert "T(3, 5; 3, 1) is the torus knot T(3, 8)" in message
    assert "k = 3, m = 0" in message
    assert FamilyParams(3, 3, -1, 2, 0).q == 8


def test_is_lspace_knot_cases():
    for ell, m, case in [(4, 3, "ell=p-1"), (3, 1, "ell=p-2,m=1"), (2, 1, "ell=2,m=1"),
                         (3, 2, None)]:
        params = FamilyParams(5, 1, -1, ell, m)
        assert lspace_case(params) == case
        lspace = knot_data_to_doc(build(params))["lspace"]
        assert lspace == {"is_lspace_knot": case is not None, "case": case}


def test_slope_reduction_and_parse():
    assert Slope(38, 2) == Slope(19, 1)
    assert Slope(-20, -4) == Slope(5, 1)
    assert Slope.parse("19/1") == Slope(19, 1)
    assert Slope.parse("7") == Slope(7, 1)
    with pytest.raises(ParameterError):
        Slope(1, 0)
    with pytest.raises(ParameterError):
        Slope.parse("x/y")


def test_surgery_presentation_trefoil():
    tref = build(FamilyParams(3, 1, -1, 2, 0))
    pres = surgery_presentation(tref, Slope(1, 1))
    expected = tref.mu ** -5 * tref.s
    assert pres.relators == (tref.presentation.relators[0], expected)
    assert pres.generators == tref.presentation.generators


def test_surgery_presentation_at_framing_slope():
    kd = build(FamilyParams(3, 2, -1, 2, 1))
    pres = surgery_presentation(kd, Slope(19, 1))
    assert pres.relators[1] == kd.s == parse_word("a b^-1 a^2 b^-1 a^2")


def test_surgery_presentation_refuses_oversized_relator():
    kd = build(FamilyParams(3, 2, -1, 2, 1))
    # |mu| = 3 letters, so p' = 10^7 asks for about 3 * 10^7 letters.
    with pytest.raises(ValueError, match="MAX_LETTERS"):
        surgery_presentation(kd, Slope(10**7, 1))
    # Just under the cap still builds.
    exponent = (MAX_LETTERS - kd.s.letter_length) // 3
    pres = surgery_presentation(kd, Slope(exponent + 19, 1))
    assert pres.relators[1].letter_length <= MAX_LETTERS


def test_build_is_deterministic():
    import json

    a = knot_data_to_doc(build(FamilyParams(5, 2, -1, 4, 2)))
    b = knot_data_to_doc(build(FamilyParams(5, 2, -1, 4, 2)))
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
