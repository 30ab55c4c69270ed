import contextlib
import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_cli
from nlo import cli
from nlo.cli import (
    _COMMANDS,
    EXIT_DOMAIN,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFY,
    MAX_JSON_DEPTH,
    main,
)
from nlo.families import ParameterError
from nlo.serialize import params_to_doc
from nlo.sweep import SweepSpec, grid_instances, parse_range, parse_signs, run_sweep
from nlo.words import MAX_LETTERS, SUBSTITUTE_BUDGET, Word, format_word, parse_word, substitute

# sha256 of the canonical content of `nlo certify` on the grid
# p 3:12, k 1:6, m 1:5, keyed "p,k,sign,ell,m"; the benchmark checks the
# same file.  Read here, never written.
CERTIFY_DIGESTS = (
    Path(__file__).resolve().parents[1] / "perfbench" / "reference" / "certify_digests.json"
)

T35 = ["--p", "3", "--k", "2", "--sign", "-1", "--ell", "2", "--m", "1"]
TREFOIL = ["--p", "3", "--k", "1", "--sign", "-1", "--ell", "2", "--m", "0"]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def content_of(out):
    doc = json.loads(out)
    assert set(doc) == {"header", "content"}
    assert doc["header"]["tool"] == "nlo"
    assert doc["header"]["schema_version"] == 1
    return doc["content"]


def test_present_document(capsys):
    code, out, _ = run(capsys, "present", *T35)
    assert code == EXIT_OK
    content = content_of(out)
    assert content["v"] == 19
    assert content["s"] == "a b^-1 a^2 b^-1 a^2"


def test_present_repeated_runs_byte_identical(capsys):
    _, first, _ = run(capsys, "present", *T35)
    _, second, _ = run(capsys, "present", *T35)
    assert first == second


@pytest.mark.parametrize(
    "argv, line",
    [(["present", *T35], "v: 19"),
     (["homology", *T35], "H1: Z"),
     (["order", "--p", "3", "--k", "1", "--sign", "-1", "--ell", "2", "--m", "1",
       "--slope", "1/1", "--max-cosets", "20000"],
      "capped at 20000 definitions (12676 live cosets)"),
     (["commutation", *TREFOIL, "--max-cosets", "2000"],
      "consistent across 45 complete enumerations")],
    ids=["present", "homology", "order-capped", "commutation"],
)
def test_text_format_lines(capsys, argv, line):
    code, out, _ = run(capsys, *argv, "--format", "text")
    assert code == EXIT_OK
    assert line in out.splitlines()


def test_certify_document(capsys):
    code, out, _ = run(capsys, "certify", *T35)
    assert code == EXIT_OK
    content = content_of(out)
    assert content["bound"] == "r >= 19"
    assert content["verification"]["verdict"] == "PASS"
    assert content["certificate"]["positive_s"] == "y x y^3 x y^3 x y"


def test_certify_rejected_parameters_exit_domain(capsys):
    code, _, err = run(
        capsys, "certify", "--p", "5", "--k", "1", "--sign", "-1", "--ell", "2", "--m", "1"
    )
    assert code == EXIT_DOMAIN
    assert "no positive rewriting" in err


def test_invalid_parameters_exit_domain(capsys):
    code, _, err = run(
        capsys, "present", "--p", "3", "--k", "1", "--sign", "-1", "--ell", "9", "--m", "1"
    )
    assert code == EXIT_DOMAIN
    assert "ell" in err


def test_ell_equals_p_exit_domain_names_torus_instance(capsys):
    flags = ["--p", "5", "--k", "1", "--sign", "-1", "--ell", "5", "--m", "1"]
    code, out, err = run(capsys, "present", *flags)
    assert (code, out) == (EXIT_DOMAIN, "")
    assert "T(5, 9)" in err and "k = 2, m = 0" in err


@pytest.mark.parametrize("command", ["surgery", "homology", "order"])
def test_negative_slope_needs_equals_sign(capsys, command):
    cap = ["--max-cosets", "100"] if command == "order" else []
    code, out, _ = run(capsys, command, *TREFOIL, "--slope=-1/1", *cap)
    assert code == EXIT_OK and out
    # nlo reads a separate value that starts with "-" and is not a number
    # as a flag, so "--slope" is left without its value.
    code, _, err = run(capsys, command, *TREFOIL, "--slope", "-1/1", *cap)
    assert code == EXIT_USAGE
    assert "expected one argument" in err


@pytest.mark.parametrize(
    "argv",
    [["frobnicate"], ["present", "--p", "3"],
     ["present", "--p", "5", "--k", "1", "--sign", "-1", "--ell", "5", "--m", "1",
      "--unverified-range"]],
    ids=["unknown-command", "missing-flags", "unknown-flag"],
)
def test_usage_error_exit_64(capsys, argv):
    assert run(capsys, *argv)[0] == EXIT_USAGE


# Each refusal prints the command's usage line, then argparse's text.
@pytest.mark.parametrize("argv, usage, error", [
    (["frobnicate"], "usage: nlo [-h] {present,",
     "nlo: error: argument command: invalid choice: 'frobnicate' (choose from 'present', "),
    ([], "usage: nlo [-h] {present,", "nlo: error: the following arguments are required: command"),
    (["homology", "--p", "3"], "usage: nlo homology [-h] --p P --k K --sign {-1,1} ",
     "nlo homology: error: the following arguments are required: --k, --sign, --ell, --m"),
    (["homology", *T35, "--s=-1"], "usage: nlo homology [-h] ",
     "nlo homology: error: ambiguous option: --s=-1 could match --sign, --slope"),
    (["homology", *T35, "--p", "x"], "usage: nlo homology [-h] ",
     "nlo homology: error: argument --p: invalid int value: 'x'"),
    (["homology", *T35, "--sign", "2"], "usage: nlo homology [-h] ",
     "nlo homology: error: argument --sign: invalid choice: 2 (choose from -1, 1)"),
    (["homology", *T35, "--format", "xml"], "usage: nlo homology [-h] ",
     "nlo homology: error: argument --format: invalid choice: 'xml' (choose from 'json', 'text')"),
    (["homology", *T35, "--slope", "--m", "1"], "usage: nlo homology [-h] ",
     "nlo homology: error: argument --slope: expected one argument"),
    (["homology", *T35, "--", "--slope", "1/1"], "usage: nlo homology [-h] ",
     "nlo homology: error: unrecognized arguments: -- --slope 1/1"),
    (["homology", *T35, "-x y", "--bogus"], "usage: nlo homology [-h] ",
     "nlo homology: error: unrecognized arguments: -x y --bogus"),
    (["homology", "--help=x"], "usage: nlo homology [-h] ",
     "nlo homology: error: argument -h/--help: ignored explicit argument 'x'"),
], ids=["command", "no-command", "required", "ambiguous", "int", "int-choice", "choice",
        "expected-one", "double-dash", "unrecognized", "help-value"])
def test_usage_refusals_keep_argparse_texts(capsys, argv, usage, error):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (EXIT_USAGE, "")
    first, second = err.splitlines()
    assert first.startswith(usage) and second.startswith(error)


def test_verify_round_trip_via_file(tmp_path, capsys):
    code, out, _ = run(capsys, "certify", *T35)
    cert_doc = json.loads(out)["content"]["certificate"]
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(cert_doc))
    code, out, _ = run(capsys, "verify", "--certificate", str(path))
    assert code == EXIT_OK
    assert content_of(out)["verdict"] == "PASS"


# One instance of each certified case.
@pytest.mark.parametrize(
    "flags",
    ["--p 5 --k 1 --sign -1 --ell 4 --m 1", "--p 5 --k 2 --sign -1 --ell 3 --m 1",
     "--p 5 --k 2 --sign 1 --ell 4 --m 2", "--p 5 --k 1 --sign 1 --ell 3 --m 1"],
    ids=["sign=-1,ell=p-1", "sign=-1,ell=p-2", "sign=+1,ell=p-1", "sign=+1,ell=p-2"],
)
def test_verify_accepts_full_cli_document(capsys, monkeypatch, flags):
    _, out, _ = run(capsys, "certify", *flags.split())
    monkeypatch.setattr("sys.stdin", io.StringIO(out))
    code, out, _ = run(capsys, "verify", "--certificate", "-", "--format", "text")
    assert (code, out) == (EXIT_OK, "verdict: PASS\n")


def test_verify_tampered_certificate_exit_2(tmp_path, capsys):
    _, out, _ = run(capsys, "certify", *T35)
    cert_doc = json.loads(out)["content"]["certificate"]
    cert_doc["v"] = 23
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cert_doc))
    code, out, _ = run(capsys, "verify", "--certificate", str(path))
    assert code == EXIT_VERIFY
    assert not content_of(out)["passed"]


def test_verify_unknown_direction_exit_2(tmp_path, capsys):
    _, out, _ = run(
        capsys, "certify", "--p", "4", "--k", "1", "--sign", "-1", "--ell", "2", "--m", "1"
    )
    cert_doc = json.loads(out)["content"]["certificate"]
    assert cert_doc["trace"][0]["direction"] == "lhs_to_rhs"
    cert_doc["trace"][0]["direction"] = "rhs_to_lhs"
    path = tmp_path / "direction.json"
    path.write_text(json.dumps(cert_doc))
    code, out, err = run(capsys, "verify", "--certificate", str(path))
    assert code == EXIT_VERIFY
    content = content_of(out)
    assert content["verdict"] == "FAIL"
    assert content["failures"] == ["trace direction must be 'lhs_to_rhs'"]
    assert "Traceback" not in err


def power_refusal(base, size):
    return (f"a power of ({base}) would have {size} syllables, "
            f"over the cap MAX_LETTERS = {MAX_LETTERS}")


def join_refusal(size):
    return f"a product would have {size} syllables, over the cap MAX_LETTERS = {MAX_LETTERS}"


def forward_conjugate(e):
    """The T(3,5;2,1) forward map edited to a = x^e y x^-e."""
    return {("generator_change", "forward", "a"): f"x^{e} y x^-{e}"}


# A forward map a = x^e y x^-e makes the round trip raise x's image
# a^-1 b^2 to the power e: 2e syllables, refused over MAX_LETTERS before
# anything is built.  Below that, the round trip joins the two powers and
# the y between them, 4e + 1 syllables, refused over MAX_LETTERS before
# the join extends; below that too it fails with the abbreviated word.
@pytest.mark.parametrize(
    "edits, failure",
    [(forward_conjugate(10**6), power_refusal("a^-1 b^2", 2 * 10**6)),
     (forward_conjugate(499999), join_refusal(4 * 499999 + 1)),
     (forward_conjugate(2 * 10**5), "syllables)"),
     (forward_conjugate(10**8), power_refusal("a^-1 b^2", 2 * 10**8)),
     (forward_conjugate(10**9), power_refusal("a^-1 b^2", 2 * 10**9)),
     (forward_conjugate(10**18), power_refusal("a^-1 b^2", 2 * 10**18)),
     ({("positive_s",): "y x " * 5000}, "syllables)"),
     # One trace step whose side is the conjugate (a b)^20000 c (b^-1 a^-1)^20000.
     ({("trace",): [{"relator_index": 0, "direction": "lhs_to_rhs", "position": 0,
                     "lhs": "a b " * 20000 + "c " + "b^-1 a^-1 " * 20000, "rhs": ""}]},
      "syllables)")],
    ids=["forward", "forward-join", "forward-2e5", "forward-1e8", "forward-1e9",
         "forward-1e18", "positive_s", "trace"],
)
def test_verify_huge_word_failure_is_bounded(tmp_path, capsys, edits, failure):
    _, out, _ = run(capsys, "certify", *T35)
    cert_doc = json.loads(out)["content"]["certificate"]
    for field, value in edits.items():
        target = cert_doc
        for key in field[:-1]:
            target = target[key]
        target[field[-1]] = value
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(cert_doc))
    start = time.perf_counter()
    code, out, err = run(capsys, "verify", "--certificate", str(path))
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_VERIFY
    assert len(out.encode()) < 4096
    content = content_of(out)
    assert content["verdict"] == "FAIL"
    assert failure in content["failures"][0]
    assert "Traceback" not in err


def cancelling_change(doc, n):
    """Edit the T(3,5;2,1) certificate ``doc`` to forward a = (x y)^5000
    and backward x = (a b)^n, y = (b^-1 a^-1)^n, all written out.  The
    round trip substitutes 10000 images of 2n syllables that each cancel
    the one before, a seam walk of 10^4 * 2n syllables."""
    change = doc["generator_change"]
    change["forward"]["a"] = "x y " * 5000
    change["backward"]["x"] = "a b " * n
    change["backward"]["y"] = "b^-1 a^-1 " * n


@pytest.mark.parametrize("n", [500, 1250, 3250])
def test_verify_cancelling_substitution_stops_at_the_budget(capsys, monkeypatch, n):
    start = time.perf_counter()
    code, out, err = verify_edited(capsys, monkeypatch, T35, lambda doc: cancelling_change(doc, n))
    assert time.perf_counter() - start < 0.5
    assert code == EXIT_VERIFY
    (failure,) = content_of(out)["failures"]
    assert failure.endswith(f"over the budget SUBSTITUTE_BUDGET = {SUBSTITUTE_BUDGET}")
    assert err == ""


def conjugated_change(doc, n):
    """Edit the T(3,5;2,1) certificate ``doc`` to conjugate its change by a
    random reduced word u of n syllables in a, b: backward images
    u w u^-1 and forward images U^-1 w U, U the forward image of u.  The
    change still round trips; for n below 560 each of its substitutions
    stays under SUBSTITUTE_BUDGET, but together they do not."""
    rng = random.Random(59)
    u = Word()
    while len(u.syllables) < n:
        u = u * Word([(rng.choice("ab"), rng.choice([-2, -1, 1, 2]))])
    change = doc["generator_change"]
    forward = {g: parse_word(text) for g, text in change["forward"].items()}
    conjugator = substitute(u, forward)
    for g, text in change["backward"].items():
        change["backward"][g] = format_word(u * parse_word(text) * ~u)
    for g, w in forward.items():
        change["forward"][g] = format_word(~conjugator * w * conjugator)


@pytest.mark.parametrize("n", [300, 400, 500, 560, 600, 700])
def test_verify_substitutions_share_one_budget(capsys, monkeypatch, n):
    _, out, _ = run(capsys, "certify", *T35)
    cert_doc = json.loads(out)["content"]["certificate"]
    conjugated_change(cert_doc, n)
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(cert_doc)))
    start = time.perf_counter()
    code, out, err = run(capsys, "verify", "--certificate", "-")
    assert time.perf_counter() - start < 0.5
    assert code == EXIT_VERIFY
    (failure,) = content_of(out)["failures"]
    assert failure.startswith("generator_change: a substitution would emit ")
    assert failure.endswith(f"over the budget SUBSTITUTE_BUDGET = {SUBSTITUTE_BUDGET}")
    assert err == ""


def test_largest_grid_substitution_is_within_the_budget(capsys, monkeypatch):
    # Its forward substitution emits about 2 * 10^6 image syllables.
    flags = ["--p", "200", "--k", "50", "--sign", "-1", "--ell", "199", "--m", "50"]
    code, out, err = verify_edited(capsys, monkeypatch, flags, lambda doc: None)
    assert (code, content_of(out)["verdict"], err) == (EXIT_OK, "PASS", "")


def test_verify_unknown_schema_exit_2(tmp_path, capsys):
    _, out, _ = run(capsys, "certify", *T35)
    cert_doc = json.loads(out)["content"]["certificate"]
    cert_doc["schema_version"] = 3
    path = tmp_path / "vers.json"
    path.write_text(json.dumps(cert_doc))
    code, _, _ = run(capsys, "verify", "--certificate", str(path))
    assert code == EXIT_VERIFY


T42 = ["--p", "4", "--k", "1", "--sign", "-1", "--ell", "2", "--m", "1"]


def verify_edited(capsys, monkeypatch, flags, edit):
    """Certify ``flags``, let ``edit`` change the certificate document in
    place, and verify the result from stdin."""
    _, out, _ = run(capsys, "certify", *flags)
    cert_doc = json.loads(out)["content"]["certificate"]
    edit(cert_doc)
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(cert_doc)))
    return run(capsys, "verify", "--certificate", "-")


def test_verify_bounds_a_huge_schema_version(capsys, monkeypatch):
    code, out, err = verify_edited(
        capsys, monkeypatch, T35, lambda doc: doc.update(schema_version="1" * 1_000_000)
    )
    assert code == EXIT_VERIFY
    assert len(out.encode()) < 4096
    failures = content_of(out)["failures"]
    assert failures == ["certificate schema_version must be an integer, not str"]
    assert err == ""


# 2000 steps that each insert relator 0 of T(3,5;2,1) at position 0.  The
# framing word has 7 letters and grows by 10 a step, so the words that
# steps 2 to 448 rewrite hold 7 + 10i letters, i = 1..447: 1004409 in all,
# the first sum over MAX_LETTERS.  Replayed in full, the trace would
# unroll about 2 * 10^7 letters, which takes over 10 s on a 2-vCPU host.
INSERT_RELATOR = {"relator_index": 0, "direction": "lhs_to_rhs", "position": 0,
                  "lhs": "", "rhs": "a^2 b^-1 a^2 b^-2 a^-1 b^-2"}


def test_verify_long_trace_is_bounded(capsys, monkeypatch):
    start = time.perf_counter()
    code, out, err = verify_edited(
        capsys, monkeypatch, T35, lambda doc: doc.update(trace=[INSERT_RELATOR] * 2000)
    )
    assert time.perf_counter() - start < 5.0
    assert code == EXIT_VERIFY
    assert len(out.encode()) < 4096
    assert content_of(out)["failures"] == [
        "trace_replay: the words the trace rewrites would have 1004409 letters, "
        f"over the cap MAX_LETTERS = {MAX_LETTERS}"
    ]
    assert err == ""


@pytest.mark.parametrize(
    "path, value",
    [(("trace", 0, "position"), 1.0), (("params", "p"), 4.0), (("schema_version",), 1.0),
     (("trace", 0, "relator_index"), False), (("trace", 0, "position"), True),
     (("params", "m"), True), (("v",), 9.0)],
    ids=["position-float", "p-float", "schema_version-float", "relator_index-false",
         "position-true", "m-true", "v-float"],
)
def test_verify_integer_fields_must_be_integers(capsys, monkeypatch, path, value):
    def retype(doc):
        for key in path[:-1]:
            doc = doc[key]
        assert type(doc[path[-1]]) is int
        doc[path[-1]] = value

    code, out, err = verify_edited(capsys, monkeypatch, T42, retype)
    assert code == EXIT_VERIFY
    assert "must be an integer" in content_of(out)["failures"][0]
    assert err == ""


def _rename_forward_key(doc):
    change = doc["generator_change"]
    change["forward"] = {"ab" if g == "a" else g: w for g, w in change["forward"].items()}
    change["old_generators"] = list(change["forward"])


def _drop_backward_y(doc):
    del doc["generator_change"]["backward"]["y"]
    doc["generator_change"]["new_generators"] = ["x"]


@pytest.mark.parametrize(
    "edit, failure",
    [(lambda doc: doc["generator_change"]["backward"].update(x="a^-1 b^3"),
      "backward(forward(a)) = Word('b a'), expected a"),
     (_rename_forward_key, "generator must be a single letter a-z, got 'ab'"),
     (_drop_backward_y, "no image for generator 'y'")],
    ids=["not-inverse", "key-not-a-letter", "missing-image"],
)
def test_verify_generator_change_clause(capsys, monkeypatch, edit, failure):
    code, out, err = verify_edited(capsys, monkeypatch, T35, edit)
    assert code == EXIT_VERIFY
    assert content_of(out)["failures"] == [f"generator_change: {failure}"]
    assert err == ""


def test_verify_exponent_with_too_many_digits_exit_2(capsys, monkeypatch):
    code, out, err = verify_edited(
        capsys, monkeypatch, T35, lambda doc: doc.update(positive_s="x^" + "9" * 5000)
    )
    assert code == EXIT_VERIFY
    assert content_of(out)["failures"] == ["malformed exponent (at position 1)"]
    assert err == ""


def test_verify_refuses_non_ascii_whitespace_in_word_text(capsys, monkeypatch):
    def edit(doc):
        doc["positive_s"] = doc["positive_s"].replace(" ", "\u3000", 1)

    code, out, _ = verify_edited(capsys, monkeypatch, T35, edit)
    assert code == EXIT_VERIFY
    assert content_of(out)["failures"] == ["unexpected character '\\u3000' (at position 1)"]


def test_verify_checks_the_generator_lists(capsys, monkeypatch):
    def edit(doc):
        doc["generator_change"].update(new_generators=["q"], old_generators="zz")

    code, out, err = verify_edited(capsys, monkeypatch, T35, edit)
    assert code == EXIT_VERIFY
    content = content_of(out)
    assert content["verdict"] == "FAIL"
    assert content["failures"] == [
        "generator_change.old_generators must list the forward keys in order"
    ]
    assert err == ""


def _long_forward_key(doc):
    name = "q" * 100_000
    doc["generator_change"]["forward"][name] = "x"
    doc["generator_change"]["old_generators"].append(name)


@pytest.mark.parametrize(
    "edit",
    [_long_forward_key, lambda doc: doc["trace"][0].update(direction="r" * 100_000)],
    ids=["forward-key", "direction"],
)
def test_verify_bounds_echoed_document_strings(capsys, monkeypatch, edit):
    code, out, err = verify_edited(capsys, monkeypatch, T42, edit)
    assert code == EXIT_VERIFY
    assert len(out.encode()) < 4096
    assert content_of(out)["verdict"] == "FAIL"
    assert err == ""


def _swap_sides(step):
    step.update(lhs=step["rhs"], rhs="")


@pytest.mark.parametrize(
    "edit, failure",
    [(lambda step: step.update(position=-1), "position must be nonnegative"),
     (lambda step: step.update(relator_index=5),
      "trace_replay: relator index 5 out of range"),
     (_swap_sides, "trace_replay: no room for a length-11 occurrence at position 0 "
                   "in a word of 10 letters"),
     (lambda step: step.update(rhs="a b a^-1 b^-1"),
      "trace_replay: relation Word('') = Word('a b a^-1 b^-1') is not a cyclic "
      "form of relator 0")],
    ids=["negative-position", "relator-index", "swapped-sides", "foreign-relator"],
)
def test_verify_refuses_an_edited_trace_step(capsys, monkeypatch, edit, failure):
    code, out, err = verify_edited(
        capsys, monkeypatch, T42, lambda doc: edit(doc["trace"][0])
    )
    assert code == EXIT_VERIFY
    assert content_of(out)["failures"] == [failure]
    assert err == ""


def _drop_generator_change(doc):
    doc["generator_change"] = {"forward": {}, "backward": {},
                               "old_generators": [], "new_generators": []}


# T(4,3;3,1) with no trace step: its surface word s substitutes forward
# to y^7, a positive word with no x.  An empty change round trips
# vacuously and then maps neither x back nor the trace's a forward.
@pytest.mark.parametrize("flags, edit, failures", [
    (["--p", "4", "--k", "1", "--sign", "-1", "--ell", "3", "--m", "1"],
     lambda doc: doc.update(trace=[], positive_s="y^7"),
     ["positivity: stated word contains no x"]),
    (T35, _drop_generator_change,
     ["meridian: no image for generator 'x'", "trace_replay: no image for generator 'a'"]),
], ids=["positivity-no-x", "meridian-no-image"])
def test_verify_hypothesis_clauses(capsys, monkeypatch, flags, edit, failures):
    code, out, err = verify_edited(capsys, monkeypatch, flags, edit)
    assert (code, content_of(out)["failures"], err) == (EXIT_VERIFY, failures, "")


def test_verify_checks_recorded_case(capsys, monkeypatch):
    code, out, err = verify_edited(
        capsys, monkeypatch, T35, lambda doc: doc.update(case="sign=+1,whatever")
    )
    assert code == EXIT_VERIFY
    assert content_of(out)["failures"] == ["case: stated case is not sign=-1,ell=p-1"]
    assert err == ""


# Schema 1's hypotheses object is one constant, every flag true; verify
# checks those facts itself, and refuses any other value of the object.
@pytest.mark.parametrize(
    "hypotheses",
    [{"x_is_meridian": True, "s_positive": True},
     {"x_is_meridian": True, "s_positive": False, "s_contains_x": True},
     {"x_is_meridian": True, "s_positive": 1, "s_contains_x": True},
     {"x_is_meridian": True, "s_positive": True, "s_contains_x": True, "extra": True},
     [True, True, True]],
    ids=["missing", "false", "one", "extra", "list"],
)
def test_verify_refuses_hypotheses_other_than_the_constant(capsys, monkeypatch, hypotheses):
    code, out, err = verify_edited(
        capsys, monkeypatch, T35, lambda doc: doc.update(hypotheses=hypotheses)
    )
    assert code == EXIT_VERIFY
    assert content_of(out)["failures"] == [
        "hypotheses must set exactly x_is_meridian, s_positive, s_contains_x to true"
    ]
    assert err == ""


def test_verify_unbuildable_parameters_exit_2(capsys, monkeypatch):
    code, out, err = verify_edited(
        capsys, monkeypatch, T42, lambda doc: doc["params"].update(ell=4)
    )
    assert code == EXIT_VERIFY
    assert "outside 2 <= ell <= p-1" in content_of(out)["failures"][0]
    assert err == ""


def test_certify_catches_a_wrong_closed_form(capsys, monkeypatch):
    import nlo.certificates as certificates

    real = certificates._closed_form

    def one_x_too_many(params, case):
        closed, step = real(params, case)
        return closed * certificates.Word([("x", 1)]), step

    monkeypatch.setattr(certificates, "_closed_form", one_x_too_many)
    code, out, err = run(capsys, "certify", *T35)
    assert code == EXIT_VERIFY
    failures = content_of(out)["verification"]["failures"]
    assert len(failures) == 1 and failures[0].startswith("trace_replay: ")
    assert err == ""


def test_surgery_document(capsys):
    code, out, _ = run(capsys, "surgery", *T35, "--slope", "19/1")
    assert code == EXIT_OK
    content = content_of(out)
    assert content["presentation"]["relators"][1] == "a b^-1 a^2 b^-1 a^2"


def test_homology_document(capsys):
    code, out, _ = run(capsys, "homology", *T35, "--slope", "19/1")
    assert code == EXIT_OK
    assert content_of(out)["order"] == 19
    code, out, _ = run(capsys, "homology", *T35)
    assert content_of(out)["free_rank"] == 1


def test_homology_huge_slope_is_linear(capsys):
    start = time.perf_counter()
    code, out, _ = run(capsys, "homology", *T35, "--slope", "1000000000000/7")
    elapsed = time.perf_counter() - start
    assert code == EXIT_OK
    assert content_of(out)["order"] == 10**12
    assert elapsed < 1.0, f"homology at p' = 10^12 took {elapsed:.2f}s"


@pytest.mark.parametrize(
    "text, refusal",
    [("5/0", "slope denominator must be nonzero"), ("1/2/3", "malformed slope '1/2/3'"),
     ("x/2", "malformed slope 'x/2'"), ("", "malformed slope ''")],
    ids=["zero-denominator", "two-slashes", "letter", "empty"],
)
def test_homology_refuses_a_bad_slope_with_its_reason(capsys, text, refusal):
    code, out, err = run(capsys, "homology", *T35, f"--slope={text}")
    assert (code, out, err) == (EXIT_DOMAIN, "", f"nlo: error: {refusal}\n")


@pytest.mark.parametrize("command", ["surgery", "order"])
def test_oversized_surgery_relator_exits_domain_fast(capsys, command):
    start = time.perf_counter()
    code, out, err = run(capsys, command, *T35, "--slope", "10000000/1")
    elapsed = time.perf_counter() - start
    assert code == EXIT_DOMAIN
    assert out == ""
    assert "MAX_LETTERS" in err and "Traceback" not in err
    assert elapsed < 1.0, f"{command} took {elapsed:.2f}s to refuse"


# p = 10^21, ell = p - 1: the relator's power (a c^m)^(ell-1) would have
# about 2 * 10^21 syllables.
HUGE_ELL = ["--p", str(10**21), "--k", "2", "--sign", "-1", "--ell", str(10**21 - 1),
            "--m", "1"]
HUGE_ELL_REFUSAL = power_refusal("a b^-1 a", 2 * 10**21 - 3)


def test_present_huge_power_exits_domain(capsys):
    code, out, err = run(capsys, "present", *HUGE_ELL)
    assert (code, out, err) == (EXIT_DOMAIN, "", f"nlo: error: {HUGE_ELL_REFUSAL}\n")


def test_verify_huge_power_exits_verify(capsys, monkeypatch):
    def edit(doc):
        doc["params"].update(p=10**21, ell=10**21 - 1)

    code, out, err = verify_edited(capsys, monkeypatch, T35, edit)
    assert code == EXIT_VERIFY
    assert content_of(out)["failures"] == [HUGE_ELL_REFUSAL]
    assert err == ""


def test_alexander_oversized_relator_exits_domain_fast(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "alexander", "--p", "3", "--k", "1000000", "--sign", "-1",
                         "--ell", "2", "--m", "1")
    elapsed = time.perf_counter() - start
    assert (code, out) == (EXIT_DOMAIN, "")
    assert f"MAX_LETTERS = {MAX_LETTERS}" in err and "Traceback" not in err
    assert elapsed < 1.0, f"alexander took {elapsed:.2f}s to refuse"


def test_alexander_document(capsys):
    code, out, _ = run(capsys, "alexander", "--p", "3", "--k", "1", "--sign", "-1",
                       "--ell", "2", "--m", "0")
    assert code == EXIT_OK
    content = content_of(out)
    assert content["polynomial"] == "1*t^0 + -1*t^1 + 1*t^2"
    assert content["lspace_threshold"] == 1


def test_order_trefoil_slope_1(capsys):
    code, out, _ = run(
        capsys, "order", "--p", "3", "--k", "1", "--sign", "-1", "--ell", "2",
        "--m", "0", "--slope", "1/1", "--format", "text"
    )
    assert code == EXIT_OK
    assert out.strip() == "120"


def test_order_capped(capsys):
    flags = ["order", *T35, "--max-cosets", "100"]
    code, out, _ = run(capsys, *flags)
    assert code == EXIT_OK
    content = content_of(out)
    assert content["status"] == "capped"
    # The live count is not a bound on the index, so the text states the
    # cap and the count as they are.
    code, out, _ = run(capsys, *flags, "--format", "text")
    assert code == EXIT_OK
    assert out == f"capped at 100 definitions ({content['cosets']} live cosets)\n"
    code, out, _ = run(capsys, "order", *TREFOIL, "--slope", "1/1", "--max-cosets", "1000",
                       "--format", "text")
    assert out == "capped at 1000 definitions (379 live cosets)\n"


def test_order_oversized_subgroup_word_exits_domain_fast(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "order", *TREFOIL, "--subgroup", f"a^{10 * MAX_LETTERS}")
    elapsed = time.perf_counter() - start
    assert (code, out) == (EXIT_DOMAIN, "")
    assert f"MAX_LETTERS = {MAX_LETTERS}" in err and "Traceback" not in err
    assert elapsed < 1.0, f"order took {elapsed:.2f}s to refuse"


def test_sweep_small_grid(tmp_path, capsys):
    out_path = tmp_path / "sweep.json"
    code, out, _ = run(
        capsys, "sweep", "--p-range", "3:4", "--k-range", "1:2", "--m-range", "1:1",
        "--output", str(out_path)
    )
    assert code == EXIT_OK
    summary = content_of(out)
    assert summary["failed"] == 0
    # ell=p-1 for p in {3,4} and ell=p-2 for p=4, both signs, k in {1,2}.
    assert summary["total"] == 12
    stored = json.loads(out_path.read_text())
    assert stored["passed"] == 12
    verdicts = [r["verdict"] for r in stored["instances"]]
    assert set(verdicts) == {"PASS"}


def test_sweep_output_is_the_json_rendering(tmp_path, capsys):
    path = tmp_path / "one.json"
    code, _, _ = run(capsys, "sweep", "--p-range", "3:3", "--k-range", "1:1",
                     "--m-range", "1:1", "--signs", "-1", "--output", str(path))
    assert code == EXIT_OK
    result = run_sweep(SweepSpec(p_range=(3, 3), k_range=(1, 1), m_range=(1, 1), signs=(-1,)))
    assert result["total"] == 1
    assert path.read_bytes() == json.dumps(result, indent=2, sort_keys=True).encode()


def _sweep_records(capsys, tmp_path, cases):
    path = tmp_path / f"{cases}.json"
    code, out, _ = run(capsys, "sweep", "--cases", cases, "--output", str(path))
    assert code == EXIT_OK
    return out, path.read_text()


def test_sweep_cases_partition_the_default_grid(tmp_path, capsys):
    def keyed(text):
        return {tuple(r["params"].values()): r for r in json.loads(text)["instances"]}

    all_out, all_file = _sweep_records(capsys, tmp_path, "all")
    top = keyed(_sweep_records(capsys, tmp_path, "ell=p-1")[1])
    nxt = keyed(_sweep_records(capsys, tmp_path, "ell=p-2")[1])
    assert (len(top), len(nxt)) == (120, 32)
    assert not top.keys() & nxt.keys()
    assert {**top, **nxt} == keyed(all_file)
    assert _sweep_records(capsys, tmp_path, "ell=p-1,ell=p-2") == (all_out, all_file)
    code, out, err = run(capsys, "sweep", "--cases", "ell=2")
    assert (code, out) == (EXIT_DOMAIN, "")
    assert "unknown cases" in err


def test_sweep_without_flags_covers_the_default_spec(capsys):
    code, out, _ = run(capsys, "sweep")
    assert code == EXIT_OK
    content = content_of(out)
    grid = [params_to_doc(q) for q in grid_instances(SweepSpec())]
    assert [r["params"] for r in content["instances"]] == grid
    assert content["total"] == content["passed"] == len(grid) == 152


@pytest.mark.parametrize(
    "field, lo, refusal",
    [("p_range", 2, "require p >= 3, got p = 2"),
     ("k_range", 0, "require k >= 1, got k = 0"),
     ("m_range", -1, "require m >= 0, got m = -1")],
    ids=["p", "k", "m"],
)
def test_sweep_lower_corner_refused_by_family_params(capsys, field, lo, refusal):
    # The sweep keeps no bounds of its own: the grid's lower corner is
    # built as FamilyParams, whose refusal reaches the user unchanged.
    with pytest.raises(ParameterError, match=re.escape(refusal)):
        SweepSpec(**{field: (lo, 4)})
    flag = "--" + field.replace("_", "-")
    code, out, err = run(capsys, "sweep", f"{flag}={lo}:4", "--format", "text")
    assert (code, out) == (EXIT_DOMAIN, "")
    assert refusal in err


def test_certify_content_matches_reference_digests(capsys):
    digests = json.loads(CERTIFY_DIGESTS.read_text())
    grid = grid_instances(SweepSpec((3, 12), (1, 6), (1, 5)))
    assert len(grid) == 708
    keys = [f"{q.p},{q.k},{q.sign},{q.ell},{q.m}" for q in grid]
    assert set(keys) == set(digests)
    mismatched = []
    for key, q in zip(keys, grid):
        code, out, _ = run(
            capsys, "certify", "--p", str(q.p), "--k", str(q.k), "--sign", str(q.sign),
            "--ell", str(q.ell), "--m", str(q.m),
        )
        assert code == EXIT_OK, key
        canonical = json.dumps(content_of(out), sort_keys=True, separators=(",", ":"))
        if hashlib.sha256(canonical.encode()).hexdigest() != digests[key]:
            mismatched.append(key)
    assert mismatched == []


def test_parse_range():
    assert parse_range("3:12") == (3, 12)
    assert parse_range("5") == (5, 5)
    assert parse_range("-2:0") == (-2, 0)
    with pytest.raises(ValueError):
        parse_range("3:x")


@pytest.mark.parametrize("text", ["3:", ":5", "3:x", ""])
def test_parse_range_names_malformed_text(capsys, text):
    with pytest.raises(ValueError, match=f"malformed range {text!r}"):
        parse_range(text)
    code, _, err = run(capsys, "sweep", f"--p-range={text}")
    assert code == EXIT_DOMAIN
    assert f"malformed range {text!r}" in err and "invalid literal" not in err


@pytest.mark.parametrize("text", ["x", "1,", "-1;1"])
def test_sweep_names_malformed_signs(capsys, text):
    with pytest.raises(ValueError, match=re.escape(f"malformed signs {text!r}")):
        parse_signs(text)
    code, out, err = run(capsys, "sweep", f"--signs={text}")
    assert (code, out) == (EXIT_DOMAIN, "")
    assert f"malformed signs {text!r}" in err and "invalid literal" not in err


def test_sweep_refuses_an_empty_grid(capsys):
    # p = 3 has only ell = 2 = p - 1, so the ell = p - 2 case holds nothing.
    code, out, err = run(capsys, "sweep", "--p-range", "3:3", "--k-range", "1:1",
                         "--m-range", "1:1", "--cases", "ell=p-2")
    assert (code, out) == (EXIT_DOMAIN, "")
    assert "no certifiable instance" in err


def test_sweep_refuses_an_empty_range(capsys):
    code, out, err = run(capsys, "sweep", "--p-range", "5:3")
    assert (code, out, err) == (EXIT_DOMAIN, "", "nlo: error: empty p range 5:3\n")


def test_sweep_text_summary(capsys):
    code, out, _ = run(
        capsys, "sweep", "--p-range", "3:3", "--k-range", "1:1", "--m-range", "1:1",
        "--format", "text"
    )
    assert code == EXIT_OK
    assert "failed: 0" in out


def test_sweep_single_failure_exits_2(capsys, monkeypatch):
    import nlo.sweep as sweep_mod

    real = sweep_mod.run_instance
    calls = {"n": 0}

    def sabotage(params):
        calls["n"] += 1
        record = real(params)
        if calls["n"] == 2:
            record["verdict"] = "FAIL"
        return record

    monkeypatch.setattr(sweep_mod, "run_instance", sabotage)
    code, out, _ = run(
        capsys, "sweep", "--p-range", "3:3", "--k-range", "1:2", "--m-range", "1:1"
    )
    assert code == EXIT_VERIFY
    assert content_of(out)["failed"] == 1


def test_help_description_lists_every_subcommand(capsys):
    listed = re.search(r"Subcommands: ([^.]*)\.", cli.__doc__).group(1)
    assert set(re.split(r",\s*", listed)) == set(_COMMANDS)
    code, out, err = run(capsys, "--help")
    assert (code, err) == (EXIT_OK, "")
    assert out.startswith("usage: nlo [-h] {present,certify,") and cli.__doc__ in out
    for command, (_, flags) in _COMMANDS.items():
        for asked in ("--help", "-h", "--he"):
            code, out, err = run(capsys, command, *TREFOIL[:2], asked, "--bogus")
            assert (code, err) == (EXIT_OK, "")
            assert out.startswith(f"usage: nlo {command} [-h] ")
            assert [line.split()[0] for line in out.splitlines()[3:]] == [
                "-h,", *flags]


def test_calls_stay_independent(capsys):
    table = {command: (handler, dict(flags)) for command, (handler, flags) in _COMMANDS.items()}
    code, out, _ = run(capsys, "order", *TREFOIL, "--slope", "1/1", "--subgroup", "a")
    assert code == EXIT_OK
    assert content_of(out) == {"status": "complete", "cosets": 20, "order": None}
    # The second call must not see the first call's --subgroup.
    code, out, _ = run(capsys, "order", *TREFOIL, "--slope", "1/1")
    assert code == EXIT_OK
    assert content_of(out) == {"status": "complete", "cosets": 120, "order": 120}
    for _ in range(2):
        assert run(capsys, "order", *TREFOIL, "--max-cosets", "x")[0] == EXIT_USAGE
        assert run(capsys, "order", "--p", "3")[0] == EXIT_USAGE
    assert run(capsys, "order", *TREFOIL, "--slope", "5/1", "--format", "text")[1] == "5\n"
    assert _COMMANDS == table


def read(argv):
    """The fields nlo reads from ``argv``, its handler as ``fn``; or the
    exit code it stops with."""
    try:
        handler, args = cli._read(argv)
    except SystemExit as exc:
        return exc.code
    return {**vars(args), "fn": handler}


# argv drawn from command names, every flag of the table, its prefixes
# (unique and ambiguous, "--s" among them), "=" joins, and a few values;
# "-x y" starts with "-" but holds a space, so it is a value.
# Most draws give a command its required flags and then flags of its own,
# so that many parse.  "--" is drawn as a token of its own only:
# "--flag=--" is the one input the two part on (see the test after this
# one).  The help flag is not drawn: its exit 0 is no refusal to compare.
def prefixes(names):
    return sorted({name[:i] for name in names for i in range(3, len(name) + 1)})


ALL_FLAGS = prefixes(name for _, flags in _COMMANDS.values() for name in flags)
VALUES = ["3", "-1", "-1/1", "-", "x", "json", "2", "-x y"]
REQUIRED = {"--p": "3", "--k": "1", "--sign": "-1", "--ell": "2", "--m": "1",
            "--slope": "1/1", "--certificate": "-"}


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(list(_COMMANDS)))
    flags = _COMMANDS[command][1]
    argv = [command]
    if draw(st.integers(0, 3)):
        argv += [part for name, flag in flags.items() if flag.required
                 for part in (name, REQUIRED[name])]
    pieces = st.tuples(st.sampled_from(prefixes(flags)) | st.sampled_from(ALL_FLAGS),
                       st.sampled_from([*VALUES, "--"]), st.sampled_from([0, 0, 1, 1, 2, 3]))
    for flag, value, form in draw(st.lists(pieces, max_size=3)):
        if value == "--" and form == 1:
            form = 0
        argv += [[flag, value], [f"{flag}={value}"], [flag], [value]][form]
    if draw(st.integers(0, 9)) == 0:
        argv[0] = draw(st.sampled_from([*_COMMANDS, *ALL_FLAGS, *VALUES, "--"]))
    return draw(st.permutations(argv)) if draw(st.integers(0, 9)) == 0 else argv


@settings(derandomize=True, max_examples=600, deadline=None)
@given(argvs())
def test_reader_matches_the_reference_parser(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        expected, got = reference_cli.parse(list(argv)), read(list(argv))
    if EXIT_USAGE in (expected, got):
        assert expected == got == EXIT_USAGE
    else:
        assert got == expected


# A lone "-", a number and a text with a space are values, whatever they start with.
@pytest.mark.parametrize("argv, field, value", [
    (["verify", "--certificate", "-"], "certificate", "-"),
    (["verify", "--certificate", "-x y"], "certificate", "-x y"),
    (["homology", *T35, "--sign", "-1"], "sign", -1),
    (["order", *T35, "--max-cosets", "-3"], "max_cosets", -3),
    (["sweep", "--signs", "-1", "--p-range", "-2.5"], "p_range", "-2.5"),
], ids=["dash", "space", "negative", "negative-cap", "decimal"])
def test_values_that_start_with_a_dash(argv, field, value):
    assert read(argv)[field] == value == reference_cli.parse(argv)[field]


# argparse read "--flag=--" as an empty list: verify, homology and order
# then crashed with a traceback, and --format went unchecked.
@pytest.mark.parametrize("argv, code, refusal", [
    (["verify", "--certificate=--"], EXIT_DOMAIN, "No such file or directory: '--'"),
    (["homology", *T35, "--slope=--"], EXIT_DOMAIN, "malformed slope '--'"),
    (["order", *T35, "--subgroup=--"], EXIT_DOMAIN, "unexpected character '-'"),
    (["present", *T35, "--sign=--"], EXIT_USAGE, "argument --sign: invalid int value: '--'"),
    (["present", *T35, "--format=--"], EXIT_USAGE, "argument --format: invalid choice: '--'"),
], ids=["certificate", "slope", "subgroup", "sign", "format"])
def test_a_flag_joined_to_a_double_dash_reads_it_as_text(capsys, argv, code, refusal):
    code_, out, err = run(capsys, *argv)
    assert (code_, out) == (code, "")
    assert refusal in err and "Traceback" not in err


NINES = "9" * 5000


# A 5000-character value is echoed cut to MESSAGE_WORD_CHARS characters.
# The refusals of nlo's own texts stay under 400 bytes; those that also
# list the choices or the usage of a long command stay under 600.
@pytest.mark.parametrize("argv, code, bound", [
    (["homology", *T35, f"--slope=1/{NINES}"], EXIT_DOMAIN, 400),
    (["homology", "--p", NINES, *T35[2:]], EXIT_USAGE, 400),
    (["sweep", f"--p-range=1:{NINES}"], EXIT_DOMAIN, 400),
    (["sweep", f"--signs={NINES}"], EXIT_DOMAIN, 400),
    (["homology", *T35, "--sign", "9" * 4000], EXIT_USAGE, 600),
    (["order", *T35, "x" * 5000], EXIT_USAGE, 600),
    (["order", *T35, f"--s={NINES}"], EXIT_USAGE, 600),
    (["h" * 5000], EXIT_USAGE, 600),
], ids=["slope", "p", "p-range", "signs", "sign-choice", "unrecognized", "ambiguous", "command"])
def test_refusals_bound_the_text_they_echo(capsys, argv, code, bound):
    code_, out, err = run(capsys, *argv)
    assert (code_, out) == (code, "")
    assert re.search(r"… \([0-9]{4} characters\)", err)
    assert len(err.encode()) < bound


def test_entry_point_reads_sys_argv(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}

    def nlo(*argv):
        return subprocess.run([sys.executable, "-m", "nlo", *argv], capture_output=True,
                              text=True, env=env, cwd=tmp_path, timeout=60)

    done = nlo("homology", *T35, "--slope=-1/1", "--format", "text")
    assert (done.returncode, done.stderr) == (EXIT_OK, "")
    assert "order: 1" in done.stdout.splitlines()
    done = nlo("frobnicate")
    assert (done.returncode, done.stdout) == (EXIT_USAGE, "")
    assert "nlo: error: argument command: invalid choice: 'frobnicate'" in done.stderr
    done = nlo("certify", "--help")
    assert (done.returncode, done.stderr) == (EXIT_OK, "")
    assert done.stdout.startswith("usage: nlo certify [-h] --p P ")


# Small enough to be one buffered write, and larger than the 8 KiB buffer.
@pytest.mark.parametrize("argv", [
    ["homology", *T35],
    ["sweep", "--p-range", "3:4", "--k-range", "1:2", "--m-range", "1:1"],
])
def test_a_reader_that_leaves_early_gets_a_quiet_exit_1(tmp_path, argv):
    # Buffered stdout, as by default: a small output reaches the pipe only when flushed.
    env = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    # The read end is closed before nlo starts, so its first write breaks the pipe.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run([sys.executable, "-m", "nlo", *argv], stdout=write_end,
                              stderr=subprocess.PIPE, env=env, cwd=tmp_path, timeout=60)
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (EXIT_DOMAIN, b"")


@pytest.mark.parametrize(
    "text", ["[1]", '"x"', '{"content": 5}', '{"content": {"certificate": []}}',
             '{"schema_version": 1, "generator_change": {"forward": []}}'],
)
def test_verify_non_object_document_exit_2(tmp_path, capsys, text):
    path = tmp_path / "doc.json"
    path.write_text(text)
    code, out, err = run(capsys, "verify", "--certificate", str(path))
    assert code == EXIT_VERIFY
    content = content_of(out)
    assert content["verdict"] == "FAIL" and not content["passed"]
    assert err == ""


@pytest.mark.parametrize("text", ["xx", "", '{"schema_version": 1,'])
def test_verify_unreadable_json_exit_2(tmp_path, capsys, monkeypatch, text):
    path = tmp_path / "doc.json"
    path.write_text(text)
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    for source in (str(path), "-"):
        code, out, err = run(capsys, "verify", "--certificate", source)
        assert code == EXIT_VERIFY, source
        content = content_of(out)
        assert content["verdict"] == "FAIL" and not content["passed"]
        assert err == ""


@pytest.mark.parametrize("text", ["[" * 100000, '{"a":' * 5000], ids=["arrays", "objects"])
def test_verify_deep_nesting_exit_2(capsys, monkeypatch, text):
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    start = time.perf_counter()
    code, out, err = run(capsys, "verify", "--certificate", "-")
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_VERIFY
    content = content_of(out)
    assert content["verdict"] == "FAIL" and not content["passed"]
    assert "nests deeper" in content["failures"][0]
    assert err == ""


def nested(shape, depth):
    # A valid document `depth` levels deep whose innermost level holds a
    # string of brackets, which add no depth.
    inner = '"[[{{"'
    if shape == "arrays":
        return "[" * depth + inner + "]" * depth
    return '{"a":' * depth + inner + "}" * depth


@pytest.mark.parametrize("shape", ["arrays", "objects"])
@pytest.mark.parametrize("depth", [MAX_JSON_DEPTH, MAX_JSON_DEPTH + 1])
def test_verify_nesting_at_the_depth_bound_exit_2(capsys, monkeypatch, shape, depth):
    # At MAX_JSON_DEPTH the document decodes and fails as a certificate;
    # one level more is refused for its depth.
    assert MAX_JSON_DEPTH == 16
    monkeypatch.setattr("sys.stdin", io.StringIO(nested(shape, depth)))
    code, out, err = run(capsys, "verify", "--certificate", "-")
    assert code == EXIT_VERIFY
    content = content_of(out)
    assert content["verdict"] == "FAIL" and not content["passed"]
    refused = "nests deeper than 16 levels" in content["failures"][0]
    assert refused == (depth > MAX_JSON_DEPTH)
    assert err == ""


def test_verify_missing_file_exit_domain(tmp_path, capsys):
    code, out, err = run(capsys, "verify", "--certificate", str(tmp_path / "absent.json"))
    assert code == EXIT_DOMAIN
    assert out == ""
    assert "No such file" in err


# An OSError quotes its path whole; main cuts it as it cuts other outside text.
@pytest.mark.parametrize("argv", [
    ["verify", "--certificate", "c" * 5000],
    ["sweep", "--p-range", "3:3", "--k-range", "1:1", "--m-range", "1:1",
     "--output", "/nonexistent/" + "o" * 3000],
], ids=["certificate", "output"])
def test_an_unopenable_path_is_echoed_cut(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (EXIT_DOMAIN, "")
    assert err.startswith("nlo: error: [Errno ")
    assert re.search(r"… \([0-9]{4} characters\)\n$", err)
    assert len(err.encode()) < 400


def test_sweep_rejects_duplicate_signs(capsys):
    with pytest.raises(ValueError, match="subset"):
        SweepSpec(signs=(1, 1, -1))
    grid = ["--p-range", "3:5", "--k-range", "1:2"]
    code, _, err = run(capsys, "sweep", *grid, "--signs", "1,1,-1")
    assert code == EXIT_DOMAIN
    assert "subset" in err
    code, out, _ = run(capsys, "sweep", *grid, "--signs", "1,-1")
    assert code == EXIT_OK
    assert content_of(out)["total"] == 44


@pytest.mark.parametrize("command", ["order", "commutation"])
@pytest.mark.parametrize("cap", ["0", "-3"])
def test_nonpositive_max_cosets_exit_domain(capsys, command, cap):
    code, _, err = run(capsys, command, *TREFOIL, "--max-cosets", cap)
    assert code == EXIT_DOMAIN
    assert "max_cosets must be at least 1" in err


def test_commutation_warns_when_the_battery_checked_nothing(capsys):
    t32_21 = ["--p", "3", "--k", "1", "--sign", "-1", "--ell", "2", "--m", "1"]
    code, out, err = run(capsys, "commutation", *t32_21, "--max-cosets", "2000")
    assert (code, content_of(out)["complete_enumerations"]) == (EXIT_OK, 0)
    assert err == (
        "nlo: warning: no enumeration completed within 2000 cosets, "
        "so the battery checked nothing\n"
    )
    code, out, err = run(capsys, "commutation", *TREFOIL, "--max-cosets", "2000")
    assert (code, content_of(out)["complete_enumerations"], err) == (EXIT_OK, 45, "")


def test_order_subgroup_outside_alphabet_exit_domain(capsys):
    code, _, err = run(capsys, "order", *TREFOIL, "--slope", "1/1", "--subgroup", "c")
    assert code == EXIT_DOMAIN
    assert "generators" in err


# sha256 over the canonical `present` content, then `surgery` content at
# slopes 1/1 and v/1, one line each, for p 3:7, k 1:3, both signs,
# 2 <= ell <= p-1 and m 0:2, in that loop order.
PRESENT_SURGERY_SHA256 = "9f7175bbd55b807fcaa218f82fc070cba3817a2dd30143e860d567240a139ff2"


def test_present_and_surgery_content_pinned(capsys):
    digest = hashlib.sha256()
    count = 0
    for p in range(3, 8):
        for k in range(1, 4):
            for sign in (-1, 1):
                for ell in range(2, p):
                    for m in range(3):
                        flags = [f"--{n}={x}" for n, x in
                                 zip(("p", "k", "sign", "ell", "m"), (p, k, sign, ell, m))]
                        code, out, _ = run(capsys, "present", *flags)
                        assert code == EXIT_OK, flags
                        content = content_of(out)
                        docs = [content]
                        for slope in ("1/1", f"{content['v']}/1"):
                            code, out, _ = run(capsys, "surgery", *flags, "--slope", slope)
                            assert code == EXIT_OK, (flags, slope)
                            docs.append(content_of(out))
                        for doc in docs:
                            digest.update(
                                json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
                            )
                            digest.update(b"\n")
                        count += 1
    assert count == 270
    assert digest.hexdigest() == PRESENT_SURGERY_SHA256


# sha256 over the canonical content of bare `homology`, `homology --slope`
# at five slopes (among them v/1 and a numerator of 10^12) and `alexander`,
# on the same 270 instances, as computed with the general Smith normal form.
HOMOLOGY_ALEXANDER_SHA256 = "2387a3958ea31ec374ec1e5ce533298f2601e95cb45c46e429a5d7a4c9ff0eb0"


def test_homology_and_alexander_content_pinned(capsys):
    digest = hashlib.sha256()
    count = 0
    for p in range(3, 8):
        for k in range(1, 4):
            for sign in (-1, 1):
                for ell in range(2, p):
                    for m in range(3):
                        flags = [f"--{n}={x}" for n, x in
                                 zip(("p", "k", "sign", "ell", "m"), (p, k, sign, ell, m))]
                        code, out, _ = run(capsys, "alexander", *flags)
                        assert code == EXIT_OK, flags
                        alexander = content_of(out)
                        commands = [("homology",)] + [
                            ("homology", f"--slope={slope}")
                            for slope in ("0/1", "1/1", "-1/1", f"{alexander['v']}/1",
                                          "1000000000000/7")
                        ]
                        docs = []
                        for command in commands:
                            code, out, _ = run(capsys, *command, *flags)
                            assert code == EXIT_OK, (flags, command)
                            docs.append(content_of(out))
                        for doc in docs + [alexander]:
                            digest.update(
                                json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
                            )
                            digest.update(b"\n")
                        count += 1
    assert count == 270
    assert digest.hexdigest() == HOMOLOGY_ALEXANDER_SHA256


def test_homology_text_names_an_infinite_order(capsys):
    code, out, _ = run(capsys, "homology", *T35, "--format", "text")
    assert (code, out) == (EXIT_OK, "H1: Z\norder: infinite\n")
    assert content_of(run(capsys, "homology", *T35)[1])["order"] is None


# sha256 over (argv, exit code, stdout, stderr) of each command line below,
# in JSON and in text, one line each: the whole rendering of every
# command, its header, text lines and stderr included.
RENDERING = [
    ["present", *T35], ["certify", *T35], ["surgery", *T35, "--slope", "19/1"],
    ["homology", *T35], ["homology", *T35, "--slope", "7/2"], ["alexander", *T35],
    ["order", *TREFOIL, "--slope", "1/1"],
    ["order", *TREFOIL, "--slope", "1/1", "--max-cosets", "100"],
    ["commutation", *TREFOIL, "--max-cosets", "2000"],
    ["commutation", "--p", "3", "--k", "1", "--sign", "-1", "--ell", "2", "--m", "1",
     "--max-cosets", "2000"],
    ["verify", "--certificate", "-"],
    ["sweep", "--p-range", "3:3", "--k-range", "1:1", "--m-range", "1:1", "--signs", "-1"],
    ["present", "--p", "3", "--k", "1", "--sign", "-1", "--ell", "9", "--m", "1"],
    ["homology", "--p", "3"],
]
RENDERING_SHA256 = "8938ddd34ae51a448783dc90f900102b414ad934316b3509fc0d9bc3bf36d977"


def test_rendering_pinned(capsys, monkeypatch):
    _, certificate, _ = run(capsys, "certify", *T35)
    digest = hashlib.sha256()
    for argv in RENDERING:
        for fmt in ("json", "text"):
            monkeypatch.setattr("sys.stdin", io.StringIO(certificate))
            line = [*argv, "--format", fmt]
            digest.update(json.dumps([line, *run(capsys, *line)]).encode() + b"\n")
    assert digest.hexdigest() == RENDERING_SHA256
