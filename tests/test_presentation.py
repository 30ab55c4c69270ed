import dataclasses

import pytest

from nlo.families import FamilyParams, build
from nlo.homology import abelianization_matrix
from nlo.presentation import (
    Presentation,
    RewriteError,
    TraceStep,
    apply_relation,
    replay_trace,
)
from nlo.words import Word, exponent_sum, parse_word
from rewrite_search import SearchCapExceeded, find_relation_applications


def knot_relation(kd):
    """The sides of the displayed equality lhs = rhs backing the stored
    relator."""
    p, k, ell, m = kd.params.p, kd.params.k, kd.params.ell, kd.params.m
    pl = p - ell
    a, b = parse_word("a"), parse_word("b")
    c = Word([("b", 1 - k * pl), ("a", pl)])
    lhs = a ** pl * (a * c ** m) ** (ell - 1) * a
    rhs = b ** (k * pl - 1) * (b ** k * c ** m) ** (ell - 1) * b ** k
    return lhs, rhs


def first_trace_to(w, relator, target):
    """The trace the reference search keeps for ``target``: the first of
    the one-step rewrites of ``w``, in canonical order, that reaches it."""
    for trace, reached in find_relation_applications(w, relator, 1):
        if reached == target:
            return trace
    return None


def test_presentation_validates_alphabet():
    with pytest.raises(ValueError):
        Presentation(("a",), (parse_word("a b"),))
    with pytest.raises(ValueError):
        Presentation(("a", "a"))


def test_apply_relation_whole_word():
    step = TraceStep(parse_word("a^3"), parse_word("b^2"), 0, 0)
    assert apply_relation(parse_word("a^3"), step) == parse_word("b^2")
    # Un-applying at the same position, through the step with its sides
    # swapped, restores the original word; the swapped step is backed by
    # the inverse relator.
    back = TraceStep(step.rhs, step.lhs, 0, 0)
    assert apply_relation(parse_word("b^2"), back) == parse_word("a^3")
    assert back.matches_relator(parse_word("a^3 b^-2"))


def test_apply_relation_occurrence_mismatch():
    a3, b2 = parse_word("a^3"), parse_word("b^2")
    with pytest.raises(RewriteError):
        apply_relation(parse_word("a^2 b"), TraceStep(a3, b2, 0, 0))
    with pytest.raises(RewriteError):
        apply_relation(a3, TraceStep(a3, b2, 0, 7))


def test_apply_relation_replays_framing_rewrite_at_p4():
    # For the (p, pk-1; p-2, 1) family at p = 4, k = 1, one relator
    # application turns s = a(ab^-1a^2)^2 a into a^-1 b (a^2)^2 a.
    kd = build(FamilyParams(4, 1, -1, 2, 1))
    s = kd.s
    assert s == parse_word("a^2 b^-1 a^3 b^-1 a^3")
    target = parse_word("a^-1 b a^5")
    trace = first_trace_to(s, kd.presentation.relators[0], target)
    assert trace is not None and len(trace) == 1
    assert apply_relation(s, trace[0]) == target
    assert trace[0].matches_relator(kd.presentation.relators[0])
    # The plain subword occurrence of the displayed left side lands on the
    # cyclically rotated form of the same element.
    plain = TraceStep(*knot_relation(kd), 0, 3)
    rotated = apply_relation(s, plain)
    assert rotated == parse_word("a^4 b")


def test_replay_trace_validates_relations():
    kd = build(FamilyParams(4, 1, -1, 2, 1))
    s = kd.s
    target = parse_word("a^-1 b a^5")
    trace = first_trace_to(s, kd.presentation.relators[0], target)
    assert replay_trace(s, trace, kd.presentation.relators) == target
    bogus = dataclasses.replace(trace[0], rhs=parse_word("a b a^-1 b^-1"))
    with pytest.raises(RewriteError):
        replay_trace(s, (bogus,), kd.presentation.relators)
    with pytest.raises(RewriteError):
        replay_trace(s, (dataclasses.replace(trace[0], relator_index=5),),
                     kd.presentation.relators)


def test_find_relation_applications_zero_steps():
    results = find_relation_applications(parse_word("a b"), parse_word("a^3 b^-2"), 0)
    assert results == [((), parse_word("a b"))]


def test_find_relation_applications_reaches_proof_form():
    kd = build(FamilyParams(4, 1, -1, 2, 1))
    lhs, rhs = knot_relation(kd)
    results = find_relation_applications(kd.s, lhs * ~rhs, 1)
    reachable = {w for _, w in results}
    assert parse_word("a^-1 b a^5") in reachable
    assert parse_word("a^4 b") in reachable
    # Every discovered trace replays to its recorded word.
    for trace, w in results[:50]:
        assert replay_trace(kd.s, trace, kd.presentation.relators) == w


def test_find_relation_applications_deduplicates():
    results = find_relation_applications(parse_word("a"), parse_word("a^2"), 2)
    seen = [w for _, w in results]
    assert len(seen) == len(set(seen))


def test_search_cap():
    kd = build(FamilyParams(4, 1, -1, 2, 1))
    lhs, rhs = knot_relation(kd)
    with pytest.raises(SearchCapExceeded):
        find_relation_applications(kd.s, lhs * ~rhs, 2, node_cap=50)


def test_apply_relation_preserves_abelianization():
    kd = build(FamilyParams(4, 1, -1, 2, 1))
    s = kd.s
    trace = first_trace_to(s, kd.presentation.relators[0], parse_word("a^-1 b a^5"))
    after = apply_relation(s, trace[0])
    matrix = abelianization_matrix(kd.presentation)[0]
    diff = [
        exponent_sum(after, "a") - exponent_sum(s, "a"),
        exponent_sum(after, "b") - exponent_sum(s, "b"),
    ]
    # The change must be an integer multiple of the relator row.
    assert diff[0] * matrix[1] == diff[1] * matrix[0]
