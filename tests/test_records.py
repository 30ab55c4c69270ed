"""Each of nlo's eleven records against its frozen-dataclass reference in
``tests/reference_records.py``: construction by keyword and by position,
with and without defaults, equality, hash, repr, refusals, assignment,
deletion and ``replace``."""

import dataclasses
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

import reference_records as ref
from nlo import certificates, cosets, families, homology, presentation, sweep
from nlo.families import PARAM_LIMIT
from nlo.sweep import ALL_CASES
from nlo.words import Record, Word

words = st.lists(st.tuples(st.sampled_from("abcd"), st.integers(-3, 3)), max_size=4).map(Word)
letter_maps = st.dictionaries(st.sampled_from("abxy"), words, max_size=3)
# Small values and the values on either side of the bound on family parameters.
param_ints = st.one_of(st.integers(-2, 8), st.sampled_from(
    [PARAM_LIMIT - 1, PARAM_LIMIT, -PARAM_LIMIT, 1 - PARAM_LIMIT, 10**250]))
valid_params = st.sampled_from([
    families.FamilyParams(p, k, sign, ell, m)
    for p in (3, 4, 5) for k in (1, 2) for sign in (-1, 1) for ell in range(2, p) for m in (0, 1)
])
presentations = st.sampled_from([
    families.Presentation(("a", "b"), (Word([("a", 2), ("b", -3)]),)),
    families.Presentation(("a", "b")),
    families.Presentation(("x",), (Word([("x", 5)]),)),
])
steps = st.builds(presentation.TraceStep, words, words, st.integers(0, 2), st.integers(0, 9))
ranges = st.tuples(st.integers(-1, 6), st.integers(-1, 6))

# name: (record, reference, strategy of its fields, the fields with defaults)
RECORDS = {
    "FamilyParams": (families.FamilyParams, ref.FamilyParams, st.fixed_dictionaries(
        {"p": param_ints, "k": param_ints, "sign": st.integers(-2, 2), "ell": param_ints,
         "m": param_ints}) | valid_params.map(vars), ()),
    "KnotData": (families.KnotData, ref.KnotData, st.fixed_dictionaries(
        {"params": valid_params, "presentation": presentations, "mu": words, "s": words}), ()),
    "Slope": (families.Slope, ref.Slope, st.fixed_dictionaries(
        {"numerator": st.integers(-12, 12), "denominator": st.integers(-6, 6)}),
        ("denominator",)),
    "TraceStep": (presentation.TraceStep, ref.TraceStep, st.fixed_dictionaries(
        {"lhs": words, "rhs": words, "relator_index": st.integers(-2, 3),
         "position": st.integers(-3, 9)}), ()),
    "Presentation": (families.Presentation, ref.Presentation, st.fixed_dictionaries(
        {"generators": st.lists(st.sampled_from("abc"), max_size=3),
         "relators": st.lists(words, max_size=3)}), ("relators",)),
    "GeneratorChange": (presentation.GeneratorChange, ref.GeneratorChange, st.fixed_dictionaries(
        {"forward": letter_maps, "backward": letter_maps}), ()),
    "Homology": (homology.Homology, ref.Homology, st.fixed_dictionaries(
        {"invariant_factors": st.lists(st.integers(2, 30), max_size=2).map(tuple),
         "free_rank": st.integers(0, 2)}), ()),
    "CommutationReport": (cosets.CommutationReport, ref.CommutationReport, st.fixed_dictionaries(
        {"consistent": st.booleans(), "complete_enumerations": st.integers(0, 3),
         "checked": st.lists(st.tuples(st.sampled_from(["surgery 1/1 / trivial", "x"]),
                                       st.integers(1, 9), st.booleans()),
                             max_size=2).map(tuple)}), ()),
    "Certificate": (certificates.Certificate, ref.Certificate, st.fixed_dictionaries(
        {"params": valid_params, "case": st.sampled_from(["sign=+1,ell=p-1", "?"]),
         "change": st.builds(presentation.GeneratorChange, letter_maps, letter_maps),
         "trace": st.lists(steps, max_size=2).map(tuple), "positive_s": words,
         "v": st.integers(-3, 40)}), ()),
    "VerificationReport": (certificates.VerificationReport, ref.VerificationReport,
                           st.fixed_dictionaries({"failures": st.lists(
                               st.sampled_from(["framing: v", "case"]), max_size=2).map(tuple)}),
                           ()),
    "SweepSpec": (sweep.SweepSpec, ref.SweepSpec, st.fixed_dictionaries(
        {"p_range": ranges, "k_range": ranges, "m_range": ranges,
         "signs": st.lists(st.integers(-2, 2), max_size=3).map(tuple),
         "cases": st.lists(st.sampled_from(ALL_CASES + ("ell=2",)), max_size=3).map(tuple)}),
        ("p_range", "k_range", "m_range", "signs", "cases")),
}


def outcome(make):
    """What ``make()`` returns, or the exception it raises."""
    try:
        return make()
    except Exception as exc:
        return exc


def assert_same_outcome(new, old) -> bool:
    """The record ``new`` built as the reference ``old`` was, or refused
    with the same exception type and message; True if both were built."""
    if isinstance(old, Exception):
        assert (type(new), str(new)) == (type(old), str(old))
        return False
    assert not isinstance(new, Exception), new
    assert repr(new) == repr(old)
    assert [getattr(new, name) for name in new._fields] == [
        getattr(old, f.name) for f in dataclasses.fields(old)]
    return True


def assert_refused_alike(action, new, old, *args):
    """``action`` on ``new`` and on ``old`` raises the same AttributeError
    (a frozen dataclass's FrozenInstanceError is one)."""
    got, want = outcome(lambda: action(new, *args)), outcome(lambda: action(old, *args))
    assert isinstance(got, AttributeError) and isinstance(want, AttributeError)
    assert str(got) == str(want)


def test_the_eleven_records_share_one_base():
    assert len(RECORDS) == 11
    assert all(issubclass(record, Record) for record, *_ in RECORDS.values())


def test_family_params_refuse_in_the_reference_order():
    # Every combination of valid and invalid values, so the first refusal
    # that applies is the one each raises.
    values = (-1, 0, 1, 2, 3, 4, PARAM_LIMIT)
    for args in product(values, values, (-1, 0, 1, 2), values, values):
        assert_same_outcome(outcome(lambda: families.FamilyParams(*args)),
                            outcome(lambda: ref.FamilyParams(*args)))


@pytest.mark.parametrize("name", sorted(RECORDS))
@given(data=st.data())
def test_record_matches_its_dataclass_reference(name, data):
    record, reference, strategy, defaults = RECORDS[name]
    fields = record._fields
    assert fields == tuple(f.name for f in dataclasses.fields(reference))
    kw = data.draw(strategy)
    # By keyword, leaving out any defaulted fields.
    left_out = data.draw(st.sets(st.sampled_from(defaults))) if defaults else set()
    given_kw = {k: v for k, v in kw.items() if k not in left_out}
    new = outcome(lambda: record(**given_kw))
    old = outcome(lambda: reference(**given_kw))
    if not assert_same_outcome(new, old):
        return
    # By position, leaving out a run of trailing defaulted fields.
    args = [kw[name] for name in fields[:len(fields) - data.draw(st.integers(0, len(defaults)))]]
    assert_same_outcome(outcome(lambda: record(*args)), outcome(lambda: reference(*args)))

    # Equality and the hash read the instance dict, so it must hold the fields in order.
    assert tuple(vars(new)) == fields
    again = record(**given_kw)
    assert new == again and not new != again
    # The same hash value, or the same refusal of a field that has none.
    got, want = outcome(lambda: hash(new)), outcome(lambda: hash(old))
    assert (type(got), str(got)) == (type(want), str(want))
    assert new != old and not new == old and new != tuple(kw.values())
    # A record equals one of its own class only, as a dataclass does.
    twin = type(name, (record,), {})(**given_kw)
    old_twin = type(name, (reference,), {})(**given_kw)
    assert (new == twin, new != twin) == (old == old_twin, old != old_twin) == (False, True)

    other_kw = data.draw(strategy)
    other_new = outcome(lambda: record(**other_kw))
    other_old = outcome(lambda: reference(**other_kw))
    if assert_same_outcome(other_new, other_old):
        assert (new == other_new, new != other_new) == (old == other_old, old != other_old)

    field = data.draw(st.sampled_from(fields))
    change = {field: other_kw[field]}
    assert_same_outcome(outcome(lambda: new.replace(**change)),
                        outcome(lambda: dataclasses.replace(old, **change)))

    for attr in (field, "other"):
        assert_refused_alike(setattr, new, old, attr, other_kw[field])
        assert_refused_alike(delattr, new, old, attr)
    assert repr(new) == repr(old)
