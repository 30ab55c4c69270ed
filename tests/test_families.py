import pytest

from nlo.alexander import alexander_polynomial
from nlo.families import (
    FamilyParams,
    M_ZERO_NOTE,
    Slope,
    build,
    lspace_case,
    surgery_presentation,
)
from nlo.homology import h1_class_map
from nlo.serialize import knot_data_to_doc
from nlo.words import (
    MAX_LETTERS,
    Word,
    cyclic_reduce,
    exponent_sum,
    is_cyclic_rotation,
    parse_word,
    substitute,
)
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


# The k = 1 mirror pairs: T(p, p-1; ell, m) and T(p-1, p; ell, m) with
# p 4:12, 2 <= ell <= p-2 and m 1:5.
MIRROR_PAIRS = [
    (FamilyParams(p, 1, -1, ell, m), FamilyParams(p - 1, 1, 1, ell, m))
    for p in range(4, 13)
    for ell in range(2, p - 1)
    for m in range(1, 6)
]


def _swap(w: Word) -> Word:
    return substitute(w, {"a": Word([("b", 1)]), "b": Word([("a", 1)])})


def _equal_in_group(u: Word, kd) -> bool:
    """Whether u and ``kd``'s framing differ by one conjugate of its relator
    or of the relator's inverse, and so are equal in its group."""
    relator = kd.presentation.relators[0]
    core = cyclic_reduce(u * ~kd.s)
    return is_cyclic_rotation(core, relator) or is_cyclic_rotation(core, ~relator)


def test_mirror_pairs_have_one_group_meridian_and_framing():
    # Swapping a and b takes T(p, p-1; ell, m) to T(p-1, p; ell, m): the
    # builders derive the two by hand from different braids, so each holds
    # the other's group, meridian and framing.
    assert len(MIRROR_PAIRS) == 225
    shifted_caught = 0
    for params, mirror_params in MIRROR_PAIRS:
        kd, mirror = build(params), build(mirror_params)
        assert _swap(kd.presentation.relators[0]) == ~mirror.presentation.relators[0]
        assert _swap(kd.mu) == mirror.mu
        assert params.v == mirror_params.v
        assert _equal_in_group(_swap(kd.s), mirror), params
        shifted_caught += sum(
            not _equal_in_group(_swap(kd.s * kd.mu ** e), mirror) for e in (1, -1))
    assert shifted_caught == 2 * len(MIRROR_PAIRS)


def test_mirror_pairs_have_one_alexander_polynomial():
    pairs = [(a, b) for a, b in MIRROR_PAIRS if a.p <= 10 and a.m <= 4]
    assert len(pairs) == 112
    assert [a for a, b in pairs
            if alexander_polynomial(build(a)) != alexander_polynomial(build(b))] == []


def test_parameter_validation():
    with pytest.raises(ValueError, match="require p >= 3, got p = 1"):
        FamilyParams(1, 1, -1, 2, 1)
    with pytest.raises(ValueError, match="require p >= 3"):
        FamilyParams(2, 1, 1, 2, 1)
    with pytest.raises(ValueError, match="require k >= 1, got k = 0"):
        FamilyParams(3, 0, -1, 2, 1)
    with pytest.raises(ValueError, match=r"require sign in \{\+1, -1\}, got 2"):
        FamilyParams(3, 1, 2, 2, 1)
    with pytest.raises(ValueError, match="require 2 <= ell <= p-1 = 2, got ell = 1"):
        FamilyParams(3, 1, -1, 1, 1)  # ell below 2
    with pytest.raises(ValueError, match="require 2 <= ell <= p-1 = 3, got ell = 5"):
        FamilyParams(4, 1, -1, 5, 1)  # ell above p
    with pytest.raises(ValueError, match="require m >= 0, got m = -1"):
        FamilyParams(3, 1, -1, 2, -1)


@pytest.mark.parametrize("name", ["p", "k", "ell", "m"])
def test_parameters_from_10_to_the_200_are_refused_first(name):
    fields = {"p": 3, "k": 1, "sign": -1, "ell": 2, "m": 1}
    for value in (10**200, -(10**200), 10**5000):
        with pytest.raises(ValueError) as err:
            FamilyParams(**{**fields, name: value})
        assert str(err.value) == f"require |{name}| < 10^200, got {name} of over 200 digits"
    assert FamilyParams(**{**fields, "p": 10**200 - 1, "ell": 10**200 - 2}).p == 10**200 - 1


def test_ell_equals_p_refusal_names_torus_instance():
    # T(3, 5; 3, 1) is the torus knot T(3, 8), the instance k = 3, m = 0.
    with pytest.raises(ValueError, match="ell = p = 3 is outside 2 <= ell <= p-1") as err:
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
    with pytest.raises(ValueError, match="slope denominator must be nonzero"):
        Slope(1, 0)
    with pytest.raises(ValueError, match="malformed slope 'x/y'"):
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
