import pytest
from hypothesis import given
from hypothesis import strategies as st

from nlo.families import FamilyParams, Slope, build, surgery_presentation
from nlo.homology import (
    Homology,
    abelianization_matrix,
    h1,
    h1_class_map,
    smith_normal_form,
    surgery_h1,
    word_class,
)
from nlo.presentation import Presentation
from nlo.sweep import SweepSpec, grid_instances
from nlo.words import Word, exponent_sum, parse_word

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
    classes = h1_class_map(kd.presentation, normalize_by=kd.mu)
    assert word_class(kd.mu, classes) == 1
    assert word_class(kd.s, classes) == kd.params.v


def test_class_map_rejects_non_cyclic():
    with pytest.raises(ValueError):
        h1_class_map(Presentation(("a", "b")))
    kd = build(FamilyParams(3, 1, -1, 2, 0))
    pres = surgery_presentation(kd, Slope(5, 1))
    with pytest.raises(ValueError):
        h1_class_map(pres)


def test_class_map_rejects_non_generator():
    kd = build(FamilyParams(3, 2, -1, 2, 1))
    with pytest.raises(ValueError):
        h1_class_map(kd.presentation, normalize_by=parse_word("a"))


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
