"""The scripts under scripts/, each run through its ``main()`` with the
command line patched in, as a shell would run it."""

import sys

import pytest

import gap_report
import search_positive_ell2
import verify_trust_base
from nlo.sweep import SweepSpec, grid_instances


def run_script(monkeypatch, capsys, script, *argv):
    monkeypatch.setattr(sys, "argv", [f"{script.__name__}.py", *argv])
    script.main()
    return capsys.readouterr().out


@pytest.mark.parametrize(
    "argv, last_line",
    [(["--p", "5", "--max-steps", "1"],
      "no positive form within 1 step(s) (207 words reached); nothing is claimed either way"),
     (["--p", "5", "--max-steps", "2", "--node-cap", "50"],
      "stopped: rewrite search exceeded node cap 50")],
    ids=["one-step", "node-cap"],
)
def test_search_positive_ell2(monkeypatch, capsys, argv, last_line):
    out = run_script(monkeypatch, capsys, search_positive_ell2, *argv)
    assert out.splitlines()[-1] == last_line


def gap_rows(out):
    """The (p, k, sign, ell, m) of each row of the table that gap_report
    prints: the lines after the header, up to the blank line."""
    table = out.split("\n\n")[0].splitlines()[1:]
    return [tuple(int(n) for n in line.split()[:5]) for line in table]


@pytest.mark.parametrize(
    "argv, spec, largest",
    [([], SweepSpec(), "largest gap 54 at FamilyParams(p=7, k=4, sign=1, ell=6, m=3)"),
     (["--p-range", "3:5"], SweepSpec(p_range=(3, 5)),
      "largest gap 38 at FamilyParams(p=5, k=4, sign=1, ell=4, m=3)")],
    ids=["default", "p-range"],
)
def test_gap_report_covers_its_grid(monkeypatch, capsys, argv, spec, largest):
    out = run_script(monkeypatch, capsys, gap_report, *argv)
    assert gap_rows(out) == [(q.p, q.k, q.sign, q.ell, q.m) for q in grid_instances(spec)]
    assert out.splitlines()[-1] == largest


def test_gap_report_below_the_family_bounds_is_a_usage_error(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["gap_report.py", "--p-range", "2:5"])
    with pytest.raises(SystemExit) as exit_info:
        gap_report.main()
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith("gap_report.py: error: require p >= 3, got p = 2\n")


def test_verify_trust_base_counts_only_what_verify_runs(monkeypatch, capsys):
    out = run_script(monkeypatch, capsys, verify_trust_base)
    rows = [line.split() for line in out.splitlines()[1:]]
    counts = {name: int(lines) for name, lines in rows}
    total = counts.pop("total")
    assert total == sum(counts.values()) > 0
    # verify reads and checks a certificate; it runs no oracle and no sweep.
    assert set(counts) == {"cli", "words", "families", "serialize", "certificates", "presentation"}
