"""Grid sweeps: certify and verify whole parameter families at once.

A sweep is one serial loop over the grid's instances in canonical order
(sorted by parameters).  The parameter bounds are ``FamilyParams``' own.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .certificates import VerificationReport, certify, verify_certificate
from .families import CERTIFIED_CASES, FamilyParams, build, certified_case
from .serialize import certificate_to_doc, params_to_doc
from .words import abbreviate_text

# The ``cases`` values: the ell condition that opens each certified case.
ALL_CASES = tuple(case.split(",")[0] for case in CERTIFIED_CASES)


@dataclass(frozen=True)
class SweepSpec:
    """Inclusive parameter ranges and case filter for a sweep.

    The defaults are the one statement of the grid that ``nlo sweep`` and
    scripts/gap_report.py cover when given no flags.
    """

    p_range: tuple[int, int] = (3, 7)
    k_range: tuple[int, int] = (1, 4)
    m_range: tuple[int, int] = (1, 3)
    signs: tuple[int, ...] = (-1, 1)
    cases: tuple[str, ...] = ALL_CASES

    def __post_init__(self):
        for name, (lo, hi) in (
            ("p", self.p_range),
            ("k", self.k_range),
            ("m", self.m_range),
        ):
            if lo > hi:
                raise ValueError(f"empty {name} range {lo}:{hi}")
        if sorted(self.signs) not in ([-1], [1], [-1, 1]):
            raise ValueError("signs must be a nonempty subset of {-1, +1}")
        # FamilyParams refuses a grid whose lower corner it cannot build.
        (p, _), (k, _), (m, _) = self.p_range, self.k_range, self.m_range
        for sign in self.signs:
            FamilyParams(p, k, sign, p - 1, m)
        unknown = set(self.cases) - set(ALL_CASES)
        if unknown:
            raise ValueError(f"unknown cases {sorted(unknown)}")


def parse_range(text: str) -> tuple[int, int]:
    """Inclusive range from ``lo:hi``; a single number ``n`` means n:n."""
    lo, sep, hi = text.partition(":")
    try:
        return (int(lo), int(hi if sep else lo))
    except ValueError:
        raise ValueError(
            f"malformed range {abbreviate_text(repr(text))}: expected lo:hi or n"
        ) from None


def parse_signs(text: str) -> tuple[int, ...]:
    """Signs from a comma-separated list such as ``-1,1``."""
    try:
        return tuple(int(s) for s in text.split(","))
    except ValueError:
        raise ValueError(
            f"malformed signs {abbreviate_text(repr(text))}: "
            "expected a comma-separated list of -1 and 1"
        ) from None


def grid_instances(spec: SweepSpec = SweepSpec()) -> list[FamilyParams]:
    """Certifiable instances of the grid, in canonical sorted order.

    Every grid point with ell in the buildable range 2 <= ell <= p-1 is
    kept when ``families.certified_case`` names a case whose ell
    condition is in ``spec.cases``.
    """
    ranges = (spec.p_range, spec.k_range, spec.m_range)
    ps, ks, ms = (range(lo, hi + 1) for lo, hi in ranges)
    out = []
    for p, k, sign, m in product(ps, ks, spec.signs, ms):
        for ell in range(2, p):
            params = FamilyParams(p, k, sign, ell, m)
            case = certified_case(params)
            if case is not None and case.split(",")[0] in spec.cases:
                out.append(params)
    return sorted(out, key=lambda q: (q.p, q.k, q.sign, q.ell, q.m))


def run_instance(params: FamilyParams) -> dict:
    """Certify one instance and verify the result."""
    kd = build(params)
    record: dict = {"params": params_to_doc(params)}
    try:
        cert = certify(kd)
    except ValueError as exc:
        report = VerificationReport((f"certify: {exc}",))
    else:
        report = verify_certificate(kd, cert)
        record.update(case=cert.case, v=cert.v, bound=f"r >= {cert.v}",
                      trace_length=len(cert.trace), certificate=certificate_to_doc(cert))
    record.update(verdict=report.verdict, failures=list(report.failures))
    return record


def run_sweep(spec: SweepSpec) -> dict:
    """Certify and verify every instance of the grid; refuses a grid with
    no certifiable instance, since a sweep that checked nothing passes
    nothing."""
    grid = grid_instances(spec)
    if not grid:
        raise ValueError(f"the grid holds no certifiable instance of cases {list(spec.cases)}")
    records = [run_instance(params) for params in grid]
    failed = sum(1 for r in records if r["verdict"] != "PASS")
    return {
        "instances": records,
        "total": len(records),
        "passed": len(records) - failed,
        "failed": failed,
    }
