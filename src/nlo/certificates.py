"""Positive-rewriting certificates of non-left-orderability.

For the L-space families T(p, pk±1; p-1, m) and T(p, pk±1; p-2, 1) the
knot group has generators x, y with x a meridian such that the surface
framing s rewrites as a word in positive powers of x and y containing at
least one x.  A certificate packages the generator change, the (at most
one-step) relator rewrite needed, the positive word, and the framing
coefficient v = p*q + ell^2*m; every surgery slope p'/q' with
p', q' > 0 and p'/q' >= v then yields a quotient group that is not
left-orderable.  Which parameters those are is decided by
``families.certified_case``; a certificate's case reads ``sign=±1,<case>``.

Nothing searches, and one function checks: ``certify`` only assembles the
closed form for the case and the relator step it names, and
``verify_certificate`` checks the stated case, that the generator change
round trips, the meridian, the replayed trace and positive word, and the
framing once each.  Only scripts/search_positive_ell2.py searches.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

from .families import (
    CASE_NEXT,
    CASE_TOP,
    FamilyParams,
    KnotData,
    Slope,
    certified_case,
    lspace_case,
)
from .presentation import (
    GeneratorChange,
    TraceStep,
    insertion_step,
    replay_trace,
)
from .words import Word, abbreviate_word, is_positive, substitute

ELL2_REFUSAL = (
    "no positive rewriting of the framing is known for ell = 2, m = 1 with "
    "p >= 5; scripts/search_positive_ell2.py explores them by bounded search, "
    "but this tool ships no claim for these parameters"
)
M_ZERO_REFUSAL = (
    "certificates cover the twisted families with m >= 1 only; m = 0 "
    "degenerates to a torus knot outside their standing assumption"
)

# Verification clauses, reported individually on failure.
CLAUSE_CASE = "case"
CLAUSE_GENERATOR_CHANGE = "generator_change"
CLAUSE_MERIDIAN = "meridian"
CLAUSE_REPLAY = "trace_replay"
CLAUSE_POSITIVITY = "positivity"
CLAUSE_FRAMING = "framing"


class UnsupportedParameters(ValueError):
    """Parameters outside the four certified cases."""


@dataclass(frozen=True)
class Certificate:
    params: FamilyParams
    case: str
    change: GeneratorChange
    trace: tuple[TraceStep, ...]
    positive_s: Word
    v: int


@dataclass(frozen=True)
class VerificationReport:
    """The failures of a check; it passed if there are none."""

    failures: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.failures

    @property
    def verdict(self) -> str:
        return "PASS" if self.passed else "FAIL"

    def __str__(self) -> str:
        return self.verdict if self.passed else "FAIL: " + "; ".join(self.failures)


def xy_change(params: FamilyParams) -> GeneratorChange:
    """Generator change to a meridian x and a second generator y.

    For q = pk-1 (sign -1): x = a^-1 b^k and y = b^(1-k) a, with inverse
    assignments b = yx and a = (yx)^(k-1) y.  For q = pk+1 (sign +1):
    x = b^-k a and y = a^-1 b^(k+1), with b = xy and a = (xy)^k x.
    """
    k = params.k
    x, y, a, b = (Word([(g, 1)]) for g in "xyab")
    if params.sign == -1:
        return GeneratorChange(
            forward={"a": (y * x) ** (k - 1) * y, "b": y * x},
            backward={"x": ~a * b ** k, "y": b ** (1 - k) * a},
        )
    return GeneratorChange(
        forward={"a": (x * y) ** k * x, "b": x * y},
        backward={"x": b ** (-k) * a, "y": ~a * b ** (k + 1)},
    )


def case_label(params: FamilyParams) -> str | None:
    """A certificate's ``case``: ``sign=±1,<case>`` for the L-space case
    that ``lspace_case`` names, or None if it names none."""
    case = lspace_case(params)
    return None if case is None else f"sign={params.sign:+d},{case}"


def _classify(params: FamilyParams) -> str:
    """The certified case of ``params`` (see ``families.certified_case``);
    anything else is refused with the reason that applies first."""
    case = certified_case(params)
    if case is not None:
        return case
    p, ell, m, sign = params.p, params.ell, params.m, params.sign
    if m == 0:
        raise UnsupportedParameters(M_ZERO_REFUSAL)
    nearest = certified_case(replace(params, m=1))
    if nearest is not None:
        raise UnsupportedParameters(
            f"nearest case sign={sign:+d},{nearest} requires m = 1, got m = {m}"
        )
    if lspace_case(params) is not None:
        raise UnsupportedParameters(ELL2_REFUSAL)
    raise UnsupportedParameters(
        f"ell = {ell} matches neither p-1 = {p - 1} nor p-2 = {p - 2}; "
        "no certified construction applies"
    )


def _closed_form(params: FamilyParams, case: str) -> tuple[Word, tuple[int, int] | None]:
    """The positive word for s in x, y per sign and certified case, plus the
    (offset, position) of the one relator step (see ``insertion_step``)
    that rewrites s into its backward image, or None if they are equal.

    In the k = 1 subcase of the first minus family the direct form
    ((yx)^(k-1) y^(m+1))^(p-1) (yx)^(k-1) y collapses to a power of y with
    no x in it, so the framing is first rewritten once with the group
    relation, landing on y^m (y x y^m)^(p-2) y x.  The ell = p-2 minus
    family also takes one step, at the start of s.
    """
    p, k, m = params.p, params.k, params.m
    x, y = Word([("x", 1)]), Word([("y", 1)])
    key = (params.sign, case)
    if key == (-1, CASE_TOP):
        if k == 1:
            return y ** m * (y * x * y ** m) ** (p - 2) * y * x, (0, m)
        run = (y * x) ** (k - 1)
        return (run * y ** (m + 1)) ** (p - 1) * run * y, None
    if key == (-1, CASE_NEXT):
        run = (y * x) ** (k - 1)
        return x * run * (y * run * y) ** (p - 2) * run * y, (-1, 0)
    if key == (1, CASE_TOP):
        return ((x * y) ** (k + 1) * y ** (m - 1)) ** (p - 1) * (x * y) ** k * x, None
    if key == (1, CASE_NEXT):
        return (
            (x * y) ** (2 * k + 1) * (y * (x * y) ** k) ** (p - 3) * (x * y) ** k * x,
            None,
        )
    raise AssertionError(f"unknown case {key}")


def certify(kd: KnotData) -> Certificate:
    """Assemble the certificate for one of the four certified parameter cases.

    The positive word and its relator step come from the closed form for
    the case.  Nothing is checked here: ``verify_certificate`` is the one
    check, and ``nlo certify`` and the sweep run it on every certificate
    they print.
    """
    params = kd.params
    case = _classify(params)
    change = xy_change(params)
    closed, step = _closed_form(params, case)
    trace = () if step is None else (insertion_step(kd.presentation.relators[0], *step),)
    return Certificate(
        params=params,
        case=case_label(params),
        change=change,
        trace=trace,
        positive_s=closed,
        v=kd.params.v,
    )


def verify_certificate(kd: KnotData, cert: Certificate) -> VerificationReport:
    """Check a certificate against knot data: the one check there is.

    Six clauses, reported separately on failure: the stated case is the
    knot's L-space case; the generator change round trips, each image of
    one map substituted into the other giving back its generator; x maps
    back to the meridian; replaying the trace from the framing word and
    substituting forward yields the positive word exactly; the positive
    word is positive and contains x; the framing coefficient matches.  A
    change that does not round trip ends the check there.  The meridian
    and positivity clauses are the criterion's hypotheses, so the
    certificate asserts none itself.  The substitutions of the check share
    one SUBSTITUTE_BUDGET.  No search is performed.
    """
    failures: list[str] = []
    expected_case = case_label(kd.params)
    if expected_case is None:
        failures.append(f"{CLAUSE_CASE}: the knot is in no L-space case")
    elif cert.case != expected_case:
        failures.append(f"{CLAUSE_CASE}: stated case is not {expected_case}")

    change = cert.change
    spent = [0]  # image syllables the check's substitutions have emitted
    maps = {"forward": change.forward, "backward": change.backward}
    try:
        for there, back in (("forward", "backward"), ("backward", "forward")):
            for gen, image in maps[there].items():
                letter = Word([(gen, 1)])
                got = substitute(image, maps[back], spent)
                if got != letter:
                    raise ValueError(f"{back}({there}({gen})) = {got!r}, expected {gen}")
    except ValueError as exc:
        failures.append(f"{CLAUSE_GENERATOR_CHANGE}: {exc}")
        return VerificationReport(tuple(failures))

    x_name = next(iter(change.backward), "x")
    back_x = change.backward.get(x_name)
    if back_x is None:
        failures.append(f"{CLAUSE_MERIDIAN}: no image for generator {x_name!r}")
    elif back_x != kd.mu:
        failures.append(
            f"{CLAUSE_MERIDIAN}: backward image of {x_name} is "
            f"{abbreviate_word(back_x)}, meridian is {abbreviate_word(kd.mu)}"
        )

    try:
        replayed = replay_trace(kd.s, cert.trace, kd.presentation.relators)
        rewritten = substitute(replayed, change.forward, spent)
        if rewritten != cert.positive_s:
            failures.append(
                f"{CLAUSE_REPLAY}: trace replay gives {abbreviate_word(rewritten)}, "
                f"certificate states {abbreviate_word(cert.positive_s)}"
            )
    except ValueError as exc:
        failures.append(f"{CLAUSE_REPLAY}: {exc}")

    if not is_positive(cert.positive_s):
        failures.append(f"{CLAUSE_POSITIVITY}: stated word is not positive")
    elif x_name not in cert.positive_s.generators():
        failures.append(
            f"{CLAUSE_POSITIVITY}: stated word contains no {x_name}"
        )

    if cert.v != kd.params.v:
        failures.append(
            f"{CLAUSE_FRAMING}: certificate states v = {cert.v}, knot has "
            f"v = {kd.params.v}"
        )
    return VerificationReport(tuple(failures))


def slope_range(cert: Certificate) -> Callable[[Slope], bool]:
    """Predicate selecting the slopes the certificate rules out.

    True exactly for p'/q' with p', q' > 0 and p'/q' >= v, by exact
    rational comparison; the boundary slope v is included.
    """
    v = cert.v

    def admissible(slope: Slope) -> bool:
        return slope.numerator > 0 and slope.numerator >= v * slope.denominator

    return admissible
