import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nlo.cosets
import reference_cosets
from nlo.cosets import (
    CAPPED,
    COMPLETE,
    UNDEFINED,
    CosetTable,
    _check_closure,
    check_peripheral_commutation,
    todd_coxeter,
)
from nlo.families import FamilyParams, Presentation, Slope, build, surgery_presentation
from nlo.homology import h1
from nlo.words import Word, parse_word

from icosian import generated_subgroup, icosian_group, qpower

# Status, coset count and order of `nlo order --slope n/1 --max-cosets 20000`
# at the 71 slopes of the benchmark's finite_quotients workload, keyed
# "p,k,sign,ell,m|n/1"; the benchmark checks the same file.  Read here,
# never written.
ORDERS = Path(__file__).resolve().parents[1] / "perfbench" / "reference" / "orders.json"


def trefoil():
    return build(FamilyParams(3, 1, -1, 2, 0))


def test_free_group_full_subgroup_single_coset():
    pres = Presentation(("a", "b"))
    table = todd_coxeter(pres, [parse_word("a"), parse_word("b")])
    assert table.is_complete()
    assert table.num_cosets == 1


def test_free_group_trivial_subgroup_caps():
    pres = Presentation(("a", "b"))
    table = todd_coxeter(pres, [], max_cosets=200)
    assert table.status == CAPPED


def test_symmetric_group_presentation():
    # <a, b | a^3, b^2, (ab)^2> is S3.
    pres = Presentation(
        ("a", "b"),
        (parse_word("a^3"), parse_word("b^2"), parse_word("a b a b")),
    )
    assert todd_coxeter(pres, []).num_cosets == 6
    assert todd_coxeter(pres, [parse_word("b")]).num_cosets == 3


def test_trefoil_surgery_slope_1_has_order_120():
    pres = surgery_presentation(trefoil(), Slope(1, 1))
    table = todd_coxeter(pres, [])
    assert table.is_complete()
    assert table.num_cosets == 120


def test_icosian_oracle_matches_enumeration():
    # Independent check of the 120: exhibit images of the generators among
    # the unit icosians satisfying both relators and generating the group.
    group = icosian_group()
    assert len(group) == 120
    cubes = {}
    for q in group:
        cubes.setdefault(qpower(q, 3), []).append(q)
    squares = {}
    for q in group:
        squares.setdefault(qpower(q, 2), []).append(q)
    witness = None
    for value, a_list in cubes.items():
        for a_img in a_list:
            for b_img in squares.get(value, ()):
                # mu^-5 a^3 = 1 with mu = a^-1 b.
                mu = a_img.conjugate() * b_img
                if qpower(mu.conjugate(), 5) * qpower(a_img, 3) == qpower(mu, 0):
                    if len(generated_subgroup([a_img, b_img])) == 120:
                        witness = (a_img, b_img)
                        break
            if witness:
                break
        if witness:
            break
    assert witness is not None
    pres = surgery_presentation(trefoil(), Slope(1, 1))
    assert todd_coxeter(pres, []).num_cosets == len(group)


def test_trefoil_surgery_slope_5_has_order_5():
    pres = surgery_presentation(trefoil(), Slope(5, 1))
    table = todd_coxeter(pres, [])
    assert table.is_complete()
    assert table.num_cosets == 5
    assert h1(pres).order() == 5  # enumeration + cyclic abelianization agree


def test_enumeration_order_divisible_by_h1():
    for n in range(1, 6):
        pres = surgery_presentation(trefoil(), Slope(n, 1))
        table = todd_coxeter(pres, [], max_cosets=20000)
        if table.is_complete():
            order = h1(pres).order()
            assert order is not None
            assert table.num_cosets % order == 0


def test_peripheral_commutation_trefoil():
    report = check_peripheral_commutation(trefoil(), max_cosets=3000)
    assert report.consistent
    assert report.complete_enumerations > 0
    entries = dict((name, cosets) for name, cosets, _ in report.checked)
    assert entries.get("surgery 1/1 / trivial") == 120


def test_peripheral_commutation_twisted_instance():
    report = check_peripheral_commutation(
        build(FamilyParams(3, 2, -1, 2, 1)), max_cosets=2000
    )
    assert report.consistent


def test_commutator_abelianization_vanishes():
    kd = build(FamilyParams(3, 2, -1, 2, 1))
    mu, s = kd.mu, kd.s
    commutator = mu * s * ~mu * ~s
    from nlo.words import exponent_sum

    assert exponent_sum(commutator, "a") == 0
    assert exponent_sum(commutator, "b") == 0
    assert commutator  # the commutator is not freely trivial


def test_subgroup_word_outside_alphabet_is_refused():
    with pytest.raises(ValueError, match="generators"):
        todd_coxeter(surgery_presentation(trefoil(), Slope(1, 1)), [parse_word("c")])


# The one-loop enumerator against the closure-based reference it replaced:
# equal rows and status, capped tables included, since capped coset counts
# and which enumerations complete are printed by `order` and `commutation`.


def assert_canonical(table):
    """Every entry of a live label is a live label whose inverse entry
    points back."""
    parent, columns, n = table._labels
    live = {c for c in range(n) if parent[c] == c}
    for i, col in enumerate(columns):
        back = columns[i ^ 1]
        for c in live:
            e = col[c]
            if e != UNDEFINED:
                assert e in live and back[e] == c, (i, c, e)


def assert_same_table(pres, subgroup, cap):
    fast = todd_coxeter(pres, subgroup, max_cosets=cap)
    slow = reference_cosets.todd_coxeter(pres, subgroup, max_cosets=cap)
    # The labels, checked before the rows are first read.
    assert_canonical(fast)
    # The live counter, read before the rows are first renumbered.
    assert fast.num_cosets == len(slow.rows)
    assert (fast.rows, fast.status) == (slow.rows, slow.status)
    return fast


short_words = st.lists(
    st.tuples(st.sampled_from("ab"), st.integers(-3, 3)), min_size=1, max_size=4
).map(Word)


@settings(deadline=None)
@given(
    st.lists(short_words, min_size=1, max_size=2),
    st.lists(short_words, max_size=1),
    st.integers(1, 300),
)
def test_enumeration_matches_reference(relators, subgroup, cap):
    assert_same_table(Presentation(("a", "b"), relators), subgroup, cap)


abc_words = st.lists(
    st.tuples(st.sampled_from("abc"), st.integers(-3, 3)), min_size=1, max_size=4
).map(Word)


abc_powers = st.builds(pow, abc_words, st.integers(1, 4))


@settings(deadline=None)
@given(
    st.lists(abc_powers, min_size=1, max_size=3),
    st.lists(abc_powers, max_size=2),
    st.integers(1, 400),
)
def test_three_generator_enumeration_matches_reference(relators, subgroup, cap):
    # Proper powers make long relators and subgroup words whose scans run
    # fresh chains, from coset 0 for subgroup words, and small caps stop
    # the enumeration inside one.
    assert_same_table(Presentation(("a", "b", "c"), relators), subgroup, cap)


@pytest.mark.parametrize("params", [(3, 1, -1, 2, 0), (3, 1, -1, 2, 1)])
def test_every_cap_to_400_matches_reference(params):
    # The trefoil and T(3,2;2,1) at slope 1/1: stepping the cap by one puts
    # it at every offset inside the fresh chains of the first 400 labels.
    pres = surgery_presentation(build(FamilyParams(*params)), Slope(1, 1))
    for cap in range(1, 401):
        assert_same_table(pres, [], cap)


@pytest.mark.parametrize("peripheral", ["mu", "s"])
@pytest.mark.parametrize("params", [(3, 1, -1, 2, 0), (3, 1, -1, 2, 1)])
def test_every_cap_to_400_with_a_peripheral_subgroup_matches_reference(params, peripheral):
    # The subgroup word is scanned from coset 0 before any relator, so its
    # fresh chain is scanned back and linked under a large cap and written
    # up to a small one.
    kd = build(FamilyParams(*params))
    pres = surgery_presentation(kd, Slope(1, 1))
    for cap in range(1, 401):
        assert_same_table(pres, [getattr(kd, peripheral)], cap)


def order_presentations():
    """(key, surgery presentation, reference entry) for every orders.json key."""
    out = []
    for key, entry in sorted(json.loads(ORDERS.read_text()).items()):
        params, slope = key.split("|")
        kd = build(FamilyParams(*(int(x) for x in params.split(","))))
        out.append((key, surgery_presentation(kd, Slope.parse(slope)), entry))
    return out


def test_block_growth_boundaries_match_reference(monkeypatch):
    # Cap 1000 is not a power of two, so the last doubling is clamped to it:
    # trefoil 1/1 caps after growing through every block, and trefoil 2/1
    # completes after at least two growths.
    sizes = []
    grow = nlo.cosets._grow

    def counting_grow(parent, columns, size):
        sizes.append(size)
        grow(parent, columns, size)

    monkeypatch.setattr(nlo.cosets, "_grow", counting_grow)
    capped = assert_same_table(surgery_presentation(trefoil(), Slope(1, 1)), [], 1000)
    assert capped.status == CAPPED and len(sizes) >= 2 and sizes[-1] == 1000
    sizes.clear()
    complete = assert_same_table(surgery_presentation(trefoil(), Slope(2, 1)), [], 1000)
    assert complete.is_complete() and len(sizes) >= 2


def test_skipped_chain_cosets_take_no_label(monkeypatch):
    # T(3,2;2,1) 1/1 caps at 20000 definitions, 7324 of them merged.  A
    # chain coset the backward scan matches is counted but gets no label,
    # so the arrays, which grow only for labels, stop below the cap.
    sizes = []
    grow = nlo.cosets._grow

    def counting_grow(parent, columns, size):
        sizes.append(size)
        grow(parent, columns, size)

    monkeypatch.setattr(nlo.cosets, "_grow", counting_grow)
    pres = surgery_presentation(build(FamilyParams(3, 1, -1, 2, 1)), Slope(1, 1))
    table = todd_coxeter(pres, [], max_cosets=20000)
    assert (table.status, table.num_cosets) == (CAPPED, 12676)
    assert sizes[-1] < 20000


def test_order_presentations_match_reference_at_cap_2000():
    cases = order_presentations()
    assert len(cases) == 71
    for _, pres, _ in cases:
        assert_same_table(pres, [], 2000)


def assert_knot_group_caps(kd):
    """The battery leaves out the knot group: over each of its nine
    subgroups the enumeration caps at 2000, and matches the reference."""
    subgroups = [[]] + [[Word([(g, e)])] for g in "ab" for e in (1, 2, 3)] + [[kd.mu], [kd.s]]
    for subgroup in subgroups:
        assert assert_same_table(kd.presentation, subgroup, 2000).status == CAPPED


def test_trefoil_battery_matches_reference(monkeypatch):
    calls = []

    def both(pres, subgroup=(), max_cosets=None):
        calls.append(max_cosets)
        return assert_same_table(pres, subgroup, max_cosets)

    monkeypatch.setattr(nlo.cosets, "todd_coxeter", both)
    report = check_peripheral_commutation(trefoil(), max_cosets=2000)
    assert calls == [2000] * 45
    assert report.consistent and report.complete_enumerations == 45
    assert_knot_group_caps(trefoil())


def test_order_presentations_pinned_at_cap_20000():
    for key, pres, entry in order_presentations():
        table = todd_coxeter(pres, [], max_cosets=20000)
        assert (table.status, table.num_cosets) == (entry["status"], entry["cosets"]), key


def test_vacuous_battery_matches_reference(monkeypatch):
    # T(3,2;2,1) completes none of its 45 enumerations at cap 2000, so
    # every table here is capped, many inside a fresh chain or its fold.
    calls = []

    def both(pres, subgroup=(), max_cosets=None):
        table = assert_same_table(pres, subgroup, max_cosets)
        calls.append(table.status)
        return table

    monkeypatch.setattr(nlo.cosets, "todd_coxeter", both)
    kd = build(FamilyParams(3, 1, -1, 2, 1))
    report = check_peripheral_commutation(kd, max_cosets=2000)
    assert calls == [CAPPED] * 45
    assert report.complete_enumerations == 0
    assert_knot_group_caps(kd)


def complete_labels():
    """Trefoil 1/1's presentation and the columns of its complete table,
    as identity labels to edit."""
    pres = surgery_presentation(trefoil(), Slope(1, 1))
    table = todd_coxeter(pres, [])
    assert (table.status, table.num_cosets) == (COMPLETE, 120)
    columns = [list(col) for col in zip(*table.rows)]
    return pres, columns


def labelled_table(pres, columns, subgroup=()):
    n = len(columns[0])
    return CosetTable(pres.generators, COMPLETE, subgroup, n, list(range(n)), columns, n)


def test_closure_check_passes_the_complete_table():
    pres, columns = complete_labels()
    _check_closure(labelled_table(pres, columns), pres.relators)


def test_closure_check_refuses_a_redirected_entry():
    pres, columns = complete_labels()
    columns[0][7] = columns[0][8]
    with pytest.raises(RuntimeError, match="not closed under a relator"):
        _check_closure(labelled_table(pres, columns), pres.relators)


def test_closure_check_refuses_an_undefined_entry():
    pres, columns = complete_labels()
    columns[3][119] = UNDEFINED
    with pytest.raises(RuntimeError, match="undefined entries"):
        _check_closure(labelled_table(pres, columns), pres.relators)


def test_closure_check_refuses_a_subgroup_word_moving_coset_0():
    pres, columns = complete_labels()
    table = labelled_table(pres, columns, (parse_word("a"),))
    with pytest.raises(RuntimeError, match="row 0 is not fixed"):
        _check_closure(table, pres.relators)
