from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from nlo.alexander import alexander_polynomial
from nlo.families import FamilyParams, Presentation, Slope, build, surgery_presentation
from nlo.homology import (
    Homology,
    abelianization_matrix,
    h1,
    h1_class_map,
    surgery_h1,
)
from nlo.sweep import SweepSpec, grid_instances
from nlo.words import Word, exponent_sum, parse_word
from reference_fox import word_class
from reference_snf import smith_normal_form

matrices = st.integers(1, 3).flatmap(
    lambda r: st.integers(1, 3).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(-9, 9), min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        )
    )
)


def mat_mul(a, b):
    return [
        [sum(a[i][t] * b[t][j] for t in range(len(b))) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def det(m):
    n = len(m)
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        total += (-1) ** j * m[0][j] * det(minor)
    return total


def test_abelianization_matrix_family():
    kd = build(FamilyParams(3, 2, -1, 2, 1))
    assert abelianization_matrix(kd.presentation) == [[3, -5]]
    assert h1(kd.presentation) == Homology((), 1)


@given(st.lists(st.lists(st.tuples(st.sampled_from("abc"), st.integers(-4, 4)), max_size=8),
                max_size=4))
def test_abelianization_matrix_matches_exponent_sums(raw_relators):
    relators = [Word(raw) for raw in raw_relators]
    pres = Presentation(("a", "b", "c"), relators)
    assert abelianization_matrix(pres) == [
        [exponent_sum(r, g) for g in pres.generators] for r in relators
    ]


def test_h1_free_group():
    assert h1(Presentation(("a", "b"))) == Homology((), 2)


def test_h1_surgered_trefoil_is_trivial():
    tref = build(FamilyParams(3, 1, -1, 2, 0))
    pres = surgery_presentation(tref, Slope(1, 1))
    group = h1(pres)
    assert group.order() == 1
    assert str(group) == "0"


def test_snf_fixed_example():
    # Determinantal divisors 2, 12, 144 give invariant factors 2, 6, 12.
    d, u, v = smith_normal_form([[2, 4, 4], [-6, 6, 12], [10, -4, -16]])
    assert [d[i][i] for i in range(3)] == [2, 6, 12]


@given(matrices)
def test_snf_properties(m):
    d, u, v = smith_normal_form(m)
    assert mat_mul(mat_mul(u, m), v) == d
    # Unimodular transforms.
    assert abs(det(u)) == 1
    assert abs(det(v)) == 1
    # Diagonal with a divisibility chain.
    rows, cols = len(m), len(m[0])
    for i in range(rows):
        for j in range(cols):
            if i != j:
                assert d[i][j] == 0
    diag = [d[i][i] for i in range(min(rows, cols))]
    assert all(x >= 0 for x in diag)
    for a, b in zip(diag, diag[1:]):
        if a != 0:
            assert b % a == 0
        else:
            assert b == 0
    if rows == cols:
        assert abs(det(d)) == abs(det(m))


def test_class_map_normalizes_meridian():
    kd = build(FamilyParams(3, 2, -1, 2, 1))
    classes = h1_class_map(kd.presentation, kd.mu)
    assert word_class(kd.mu, classes) == 1
    assert word_class(kd.s, classes) == kd.params.v


def test_class_map_rejects_non_cyclic():
    with pytest.raises(ValueError, match=r"^H1 is Z \+ Z, not infinite cyclic$"):
        h1_class_map(Presentation(("a", "b")), parse_word("a"))
    kd = build(FamilyParams(3, 1, -1, 2, 0))
    pres = surgery_presentation(kd, Slope(5, 1))
    with pytest.raises(ValueError, match=r"^H1 is Z/5, not infinite cyclic$"):
        h1_class_map(pres, kd.mu)


def test_class_map_rejects_non_generator():
    kd = build(FamilyParams(3, 2, -1, 2, 1))
    with pytest.raises(ValueError, match=r"^normalizing element has class -?5, not a generator of H1$"):
        h1_class_map(kd.presentation, parse_word("a"))


# Slopes with p' = 0, negative numerators and q' up to 12.
SLOPES = [(0, 1), (1, 1), (-1, 1), (19, 1), (-60, 7), (37, 12), (-13, 12), (59, 11), (8, 3)]


def test_surgery_h1_matches_built_relator():
    for params in grid_instances(SweepSpec()):
        kd = build(params)
        for num, den in SLOPES + [(kd.params.v, 1), (-kd.params.v - 1, 2)]:
            slope = Slope(num, den)
            assert surgery_h1(kd, slope) == h1(surgery_presentation(kd, slope)), (
                params, slope,
            )


def test_surgery_h1_huge_slope():
    kd = build(FamilyParams(3, 2, -1, 2, 1))
    group = surgery_h1(kd, Slope(10**12, 7))
    assert group.order() == 10**12
    assert surgery_h1(kd, Slope(0, 1)) == Homology((), 1)


def _reference_homology(pres):
    """H1 from the reference Smith normal form's diagonal."""
    matrix = abelianization_matrix(pres)
    n = len(pres.generators)
    if not matrix:
        return Homology((), n)
    d, _, _ = smith_normal_form(matrix)
    diag = [d[i][i] for i in range(min(len(d), n))]
    rank = sum(1 for x in diag if x != 0)
    return Homology(tuple(x for x in diag if x not in (0, 1)), n - rank)


def _reference_classes(pres, meridian):
    """Class map from the reference Smith normal form's V column, signed
    so that the meridian maps to +1."""
    d, _, v = smith_normal_form(abelianization_matrix(pres))
    n = len(pres.generators)
    (col,) = [j for j in range(n) if j >= len(d) or d[j][j] == 0]
    classes = {g: v[i][col] for i, g in enumerate(pres.generators)}
    if word_class(meridian, classes) < 0:
        classes = {g: -c for g, c in classes.items()}
    return classes


def _bezout(x, y):
    """(u, v) with u*y - v*x == 1, for coprime x and y."""
    old_r, r, old_s, s, old_t, t = y, x, 1, 0, 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    # old_s*y + old_t*x == old_r == +-1
    return old_s * old_r, -old_t * old_r


NEAR_TERA = 10**12
exponents = st.one_of(
    st.integers(-9, 9),
    st.integers(NEAR_TERA - 9, NEAR_TERA + 9),
    st.integers(-NEAR_TERA - 9, -NEAR_TERA + 9),
)
two_gen_words = st.lists(st.tuples(st.sampled_from("ab"), exponents), min_size=1, max_size=4).map(Word)
# Up to three relators: independent words, or powers of one word, so that
# rank-one matrices with large entries are drawn too.
two_gen_relators = st.one_of(
    st.lists(two_gen_words, max_size=3),
    st.tuples(two_gen_words, st.lists(st.integers(-3, 3), min_size=1, max_size=3)).map(
        lambda wc: [wc[0] ** c for c in wc[1]]
    ),
)


@given(two_gen_relators)
def test_h1_matches_reference_snf(relators):
    pres = Presentation(("a", "b"), relators)
    assert h1(pres) == _reference_homology(pres)


@given(
    st.tuples(exponents, exponents).filter(lambda w: gcd(*w) == 1),
    st.integers(-NEAR_TERA, NEAR_TERA),
    st.sampled_from((1, -1)),
    st.lists(st.integers(-3, 3), max_size=2),
    st.integers(0, 2),
    st.booleans(),
)
def test_class_map_kills_relators_and_matches_reference_snf(row, t, sign, multiples, at, b_first):
    x, y = row
    u, v = _bezout(x, y)
    # (u, v) has class 1 under (e_a, e_b) -> e_a*y - e_b*x; adding t*(x, y)
    # keeps the class.
    meridian = Word([("a", sign * u + t * x), ("b", sign * v + t * y)])
    syllables = [("a", x), ("b", y)]
    relator = Word(syllables[::-1] if b_first else syllables)
    # The primitive relator among its multiples, not always first.
    relators = [relator ** c for c in multiples]
    relators.insert(at, relator)
    pres = Presentation(("a", "b"), relators)
    classes = h1_class_map(pres, meridian)
    assert all(word_class(r, classes) == 0 for r in relators)
    assert word_class(meridian, classes) == 1
    assert classes == _reference_classes(pres, meridian)


def test_two_generator_kernels_refuse_three_generators():
    pres = Presentation(("a", "b", "c"), [parse_word("a^2 b^-3 c")])
    kd = build(FamilyParams(3, 2, -1, 2, 1)).replace(presentation=pres)
    with pytest.raises(ValueError, match="two-generator"):
        h1(pres)
    with pytest.raises(ValueError, match="two-generator"):
        surgery_h1(kd, Slope(1, 1))
    with pytest.raises(ValueError, match="two-generator"):
        h1_class_map(pres, kd.mu)
    # The Alexander polynomial needs one relator as well: the 1/1 surgery
    # presentation of the same knot has two.
    knot = build(FamilyParams(3, 2, -1, 2, 1))
    surgery = knot.replace(presentation=surgery_presentation(knot, Slope(1, 1)))
    for data in (kd, surgery):
        with pytest.raises(ValueError, match="two-generator, one-relator"):
            alexander_polynomial(data)

