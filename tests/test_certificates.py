import dataclasses
import io
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import nlo.certificates as certificates
from nlo.certificates import (
    CLAUSE_CASE,
    CLAUSE_FRAMING,
    CLAUSE_GENERATOR_CHANGE,
    CLAUSE_MERIDIAN,
    CLAUSE_POSITIVITY,
    CLAUSE_REPLAY,
    ELL2_REFUSAL,
    UnsupportedParameters,
    case_label,
    certify,
    slope_range,
    verify_certificate,
    xy_change,
)
from nlo.families import FamilyParams, Slope, build
from nlo.presentation import GeneratorChange, insertion_step, replay_trace
from nlo.sweep import SweepSpec, grid_instances
from nlo.words import Word, parse_word, substitute
from rewrite_search import _insertion_words, _successors, find_relation_applications

STEP_GRID = grid_instances(SweepSpec(p_range=(3, 10), k_range=(1, 5), m_range=(1, 5)))


def test_xy_change_minus_k1():
    gc = xy_change(FamilyParams(3, 1, -1, 2, 1))
    assert gc.backward["x"] == parse_word("a^-1 b")
    assert gc.backward["y"] == parse_word("a")
    assert gc.forward["b"] == parse_word("y x")
    assert gc.forward["a"] == parse_word("y")


def test_xy_change_minus_meridian_collapse():
    gc = xy_change(FamilyParams(3, 3, -1, 2, 1))
    assert substitute(parse_word("a^-1 b^3"), gc.forward) == parse_word("x")


def test_xy_change_plus_k1():
    gc = xy_change(FamilyParams(3, 1, 1, 2, 1))
    assert gc.forward["b"] == parse_word("x y")
    assert gc.forward["a"] == parse_word("x y x")
    assert substitute(parse_word("b^-1 a"), gc.forward) == parse_word("x")


def test_certify_minus_top_case():
    kd = build(FamilyParams(3, 2, -1, 2, 1))
    cert = certify(kd)
    assert cert.case == "sign=-1,ell=p-1"
    yx = parse_word("y x")
    assert cert.positive_s == (yx * parse_word("y^2")) ** 2 * yx * parse_word("y")
    assert cert.v == 19
    assert cert.trace == ()
    assert verify_certificate(kd, cert).passed


def test_certify_plus_top_case():
    kd = build(FamilyParams(3, 1, 1, 2, 1))
    cert = certify(kd)
    assert cert.case == "sign=+1,ell=p-1"
    assert cert.positive_s == parse_word("x y") ** 5 * parse_word("x")
    assert cert.v == 16
    assert cert.trace == ()
    assert verify_certificate(kd, cert).passed


def test_certify_minus_next_case_has_one_step_trace():
    kd = build(FamilyParams(4, 1, -1, 2, 1))
    cert = certify(kd)
    assert cert.case == "sign=-1,ell=p-2,m=1"
    assert cert.positive_s == parse_word("x y^5")
    assert len(cert.trace) == 1
    # The rewrite lands on the intermediate form whose image is positive_s.
    replayed = replay_trace(kd.s, cert.trace, kd.presentation.relators)
    assert replayed == parse_word("a^-1 b a^5")
    assert verify_certificate(kd, cert).passed


def test_certify_plus_next_case():
    kd = build(FamilyParams(4, 1, 1, 2, 1))
    cert = certify(kd)
    assert cert.case == "sign=+1,ell=p-2,m=1"
    xy = parse_word("x y")
    assert cert.positive_s == xy ** 3 * parse_word("y") * xy * xy * parse_word("x")
    assert cert.trace == ()
    assert verify_certificate(kd, cert).passed


def test_certify_rejects_ell2_case():
    kd = build(FamilyParams(5, 1, -1, 2, 1))
    with pytest.raises(UnsupportedParameters) as err:
        certify(kd)
    assert str(err.value) == ELL2_REFUSAL


def test_certify_rejects_m0():
    kd = build(FamilyParams(3, 1, -1, 2, 0))
    with pytest.raises(UnsupportedParameters):
        certify(kd)


def test_certify_reports_nearest_case():
    kd = build(FamilyParams(5, 1, -1, 3, 2))
    with pytest.raises(UnsupportedParameters) as err:
        certify(kd)
    assert "requires m = 1" in str(err.value)


def test_certify_rejects_middle_ell():
    kd = build(FamilyParams(7, 1, -1, 4, 1))
    with pytest.raises(UnsupportedParameters) as err:
        certify(kd)
    assert "neither" in str(err.value)


def test_verify_rejects_tampered_positive_word():
    kd = build(FamilyParams(3, 2, -1, 2, 1))
    cert = certify(kd)
    syl = list(cert.positive_s.syllables)
    syl[0] = (syl[0][0], -syl[0][1])
    tampered = dataclasses.replace(cert, positive_s=Word(syl))
    report = verify_certificate(kd, tampered)
    assert not report.passed
    assert any(f.startswith(CLAUSE_POSITIVITY) for f in report.failures)


def test_verify_rejects_wrong_v():
    kd = build(FamilyParams(3, 2, -1, 2, 1))
    cert = certify(kd)
    tampered = dataclasses.replace(cert, v=cert.v + 1)
    report = verify_certificate(kd, tampered)
    assert not report.passed
    assert any(f.startswith(CLAUSE_FRAMING) for f in report.failures)


def test_verify_rejects_wrong_k_maps():
    kd = build(FamilyParams(3, 1, 1, 2, 1))
    cert = certify(kd)
    tampered = dataclasses.replace(cert, change=xy_change(FamilyParams(3, 2, 1, 2, 1)))
    report = verify_certificate(kd, tampered)
    assert not report.passed
    assert any(f.startswith(CLAUSE_MERIDIAN) for f in report.failures)


def test_verify_rejects_mismatched_knot():
    kd = build(FamilyParams(3, 2, -1, 2, 1))
    cert = certify(kd)
    other = build(FamilyParams(3, 2, -1, 2, 2))
    report = verify_certificate(other, cert)
    assert not report.passed
    assert any(f.startswith(CLAUSE_FRAMING) for f in report.failures)


def test_verify_rejects_tampered_trace():
    kd = build(FamilyParams(4, 1, -1, 2, 1))
    cert = certify(kd)
    step = cert.trace[0]
    moved = dataclasses.replace(step, position=step.position + 2)
    tampered = dataclasses.replace(cert, trace=(moved,))
    report = verify_certificate(kd, tampered)
    assert not report.passed
    assert any(f.startswith(CLAUSE_REPLAY) for f in report.failures)


def test_verify_rejects_wrong_case():
    kd = build(FamilyParams(3, 2, -1, 2, 1))
    cert = certify(kd)
    for case in ("sign=+1,whatever", "sign=+1,ell=p-1", None, 7):
        report = verify_certificate(kd, dataclasses.replace(cert, case=case))
        assert [f for f in report.failures if f.startswith(CLAUSE_CASE)] == [
            f"{CLAUSE_CASE}: stated case is not sign=-1,ell=p-1"
        ], case


def test_verify_case_follows_the_lspace_table():
    # The case clause reads lspace_case, not the certified cases, so
    # an ell = 2, m = 1 certificate can pass it.
    cert = certify(build(FamilyParams(3, 2, -1, 2, 1)))
    ell2 = build(FamilyParams(5, 1, -1, 2, 1))
    assert case_label(ell2.params) == "sign=-1,ell=2,m=1"
    report = verify_certificate(ell2, dataclasses.replace(cert, case=case_label(ell2.params)))
    assert not any(f.startswith(CLAUSE_CASE) for f in report.failures)
    # A knot in no L-space case has no case to state.
    middle = build(FamilyParams(7, 1, -1, 4, 1))
    assert case_label(middle.params) is None
    report = verify_certificate(middle, cert)
    assert f"{CLAUSE_CASE}: the knot is in no L-space case" in report.failures


def test_certify_only_assembles(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("certify checked its own certificate")

    # Every module that bound substitute, nlo.words included: certify,
    # xy_change included, substitutes nothing.
    monkeypatch.setattr(certificates, "replay_trace", refuse)
    for module in list(sys.modules.values()):
        if getattr(module, "substitute", None) is substitute:
            monkeypatch.setattr(module, "substitute", refuse)
    for params in STEP_GRID:
        assert certify(build(params)).v == params.v, params


def test_each_generator_change_is_checked_once(monkeypatch, capsys):
    # nlo certify and nlo verify each run the round trip once, each image
    # substituted into the other map, then substitute the replayed framing.
    from nlo.cli import main

    calls = []

    def spy(w, images, spent):
        calls.append((w, tuple(images)))
        return substitute(w, images, spent)

    monkeypatch.setattr(certificates, "substitute", spy)
    change = xy_change(FamilyParams(4, 1, -1, 2, 1))
    round_trip = [(w, ("x", "y")) for w in change.forward.values()] + [
        (w, ("a", "b")) for w in change.backward.values()
    ]
    assert main("certify --p 4 --k 1 --sign -1 --ell 2 --m 1".split()) == 0
    assert calls[:4] == round_trip and len(calls) == 5
    calls.clear()
    monkeypatch.setattr("sys.stdin", io.StringIO(capsys.readouterr().out))
    assert main(["verify", "--certificate", "-"]) == 0
    assert calls[:4] == round_trip and len(calls) == 5


def test_generator_change_round_trip_enforced():
    kd = build(FamilyParams(3, 2, -1, 2, 1))
    change = GeneratorChange(forward={"a": parse_word("x")}, backward={"x": parse_word("a^2")})
    failure = f"{CLAUSE_GENERATOR_CHANGE}: backward(forward(a)) = Word('a^2'), expected a"
    report = verify_certificate(kd, dataclasses.replace(certify(kd), change=change))
    assert report.failures == (failure,)
    # The check ends there, after the case clause.
    report = verify_certificate(kd, dataclasses.replace(certify(kd), change=change, case="?"))
    assert report.failures == (f"{CLAUSE_CASE}: stated case is not sign=-1,ell=p-1", failure)


def test_slope_range_boundary_and_signs():
    kd = build(FamilyParams(3, 2, -1, 2, 1))
    admissible = slope_range(certify(kd))
    assert admissible(Slope(19, 1))
    assert admissible(Slope(39, 2))
    assert not admissible(Slope(37, 2))
    assert not admissible(Slope(-20, 1))
    assert not admissible(Slope(0, 1))


def test_cross_formula_identity():
    # Backward image of the positive word equals the traced rewrite of s.
    for ptuple in [(3, 2, -1, 2, 1), (4, 1, -1, 2, 1), (4, 2, 1, 2, 1), (5, 1, 1, 4, 2)]:
        kd = build(FamilyParams(*ptuple))
        cert = certify(kd)
        replayed = replay_trace(kd.s, cert.trace, kd.presentation.relators)
        assert substitute(cert.positive_s, cert.change.backward) == replayed


def test_positive_word_class_equals_framing():
    # Pulled back to a, b, x maps to the H1 generator and the positive
    # word's class lands exactly on v.
    from nlo.homology import h1_class_map
    from reference_fox import word_class

    for ptuple in [(3, 2, -1, 2, 1), (4, 1, -1, 2, 1), (5, 1, 1, 4, 2), (6, 2, 1, 4, 1)]:
        kd = build(FamilyParams(*ptuple))
        cert = certify(kd)
        classes = h1_class_map(kd.presentation, kd.mu)
        back = cert.change.backward
        assert word_class(back["x"], classes) == 1
        assert word_class(back["y"], classes) == kd.params.p - 1
        assert word_class(substitute(cert.positive_s, back), classes) == cert.v


def test_clay_watson_and_twist_family_bounds():
    # T(3,5;2,m): v = 15 + 4m.
    for m in (1, 2, 3):
        cert = certify(build(FamilyParams(3, 2, -1, 2, m)))
        assert cert.v == 15 + 4 * m
    # T(3,3k-1;2,1): v = 3(3k-1) + 4.
    for k in (1, 2, 3, 4):
        cert = certify(build(FamilyParams(3, k, -1, 2, 1)))
        assert cert.v == 3 * (3 * k - 1) + 4


def first_scanned_trace(kd, target):
    """First one-step rewrite of s reaching ``target``, scanning positions
    and relator forms in the canonical order of the reference search."""
    s = kd.s
    if s == target:
        return ()
    insertions = _insertion_words(kd.presentation.relators[0])
    for trace_step, result in _successors(s, insertions):
        if result == target:
            return (trace_step,)
    return None


def test_certify_step_is_first_in_canonical_scan():
    steps = 0
    for params in STEP_GRID:
        kd = build(params)
        cert = certify(kd)
        replayed = replay_trace(kd.s, cert.trace, kd.presentation.relators)
        assert first_scanned_trace(kd, replayed) == cert.trace, params
        steps += len(cert.trace)
    # Every ell = p-2 minus instance and every k = 1 ell = p-1 minus
    # instance takes its one step.
    assert steps == 7 * 5 + 8 * 5


def test_certify_step_matches_reference_search():
    # The full breadth-first search keeps, for each word it reaches, the
    # first trace that reaches it; on the small end of the grid that is
    # the step certify takes.  Its first len(trace) levels suffice.
    for params in STEP_GRID:
        if params.p > 5:
            continue
        kd = build(params)
        cert = certify(kd)
        replayed = replay_trace(kd.s, cert.trace, kd.presentation.relators)
        results = find_relation_applications(
            kd.s, kd.presentation.relators[0], len(cert.trace)
        )
        first = next(trace for trace, w in results if w == replayed)
        assert first == cert.trace, params


def test_certify_never_searches(monkeypatch):
    import nlo
    import rewrite_search

    def refuse(*args, **kwargs):
        raise AssertionError("certify scanned for a rewrite")

    monkeypatch.setattr(rewrite_search, "_successors", refuse)
    for params in STEP_GRID:
        kd = build(params)
        assert verify_certificate(kd, certify(kd)).passed, params
    assert not hasattr(nlo, "find_relation_applications")


# Runs `nlo certify` and `nlo verify` in one fresh interpreter that could
# import the search module, then reports whether anything did.
CERTIFY_THEN_VERIFY = """
import contextlib, io, sys
from nlo.cli import main
out = io.StringIO()
with contextlib.redirect_stdout(out):
    certified = main("certify --p 4 --k 1 --sign -1 --ell 2 --m 1".split())
sys.stdin = io.StringIO(out.getvalue())
with contextlib.redirect_stdout(io.StringIO()):
    verified = main(["verify", "--certificate", "-"])
print(certified, verified, "rewrite_search" in sys.modules)
"""


def test_cli_never_imports_the_search():
    root = Path(__file__).resolve().parents[1]
    path = os.pathsep.join([str(root / "src"), str(root / "scripts")])
    proc = subprocess.run(
        [sys.executable, "-c", CERTIFY_THEN_VERIFY],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "0", "False"]


def test_certify_large_step_case_is_fast():
    kd = build(FamilyParams(30, 5, -1, 28, 1))
    start = time.perf_counter()
    cert = certify(kd)
    elapsed = time.perf_counter() - start
    assert len(cert.trace) == 1
    assert verify_certificate(kd, cert).passed
    assert elapsed < 0.25


def test_verify_hostile_rotated_step_fails_fast():
    # The trace step inserts the relator rotated by half its 94,875 letters,
    # a true cyclic form, so matching it must not scan every rotation.
    kd = build(FamilyParams(160, 200, -1, 158, 1))
    cert = certify(kd)
    relator = kd.presentation.relators[0]
    step = insertion_step(relator, relator.letter_length // 2, 0)
    hostile = dataclasses.replace(cert, trace=(step,))
    start = time.perf_counter()
    report = verify_certificate(kd, hostile)
    elapsed = time.perf_counter() - start
    assert not report.passed
    assert report.failures[0].startswith(f"{CLAUSE_REPLAY}:")
    assert elapsed < 1.0, f"hostile verify took {elapsed:.2f}s"
