"""Grid sweeps: certify and verify whole parameter families at once.

Instances are pure and independent, so sweeps can run across processes;
output order is canonical (sorted by parameters) either way.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

from .certificates import certify, verify_certificate
from .families import FamilyParams, build
from .serialize import certificate_to_doc, params_to_doc

CASE_TOP = "ell=p-1"
CASE_NEXT = "ell=p-2"
ALL_CASES = (CASE_TOP, CASE_NEXT)


@dataclass(frozen=True)
class SweepSpec:
    """Inclusive parameter ranges and case filter for a sweep."""

    p_range: tuple[int, int] = (3, 7)
    k_range: tuple[int, int] = (1, 4)
    m_range: tuple[int, int] = (1, 3)
    signs: tuple[int, ...] = (-1, 1)
    cases: tuple[str, ...] = ALL_CASES
    output: str | None = None
    jobs: int = 1

    def __post_init__(self):
        for name, (lo, hi) in (
            ("p", self.p_range),
            ("k", self.k_range),
            ("m", self.m_range),
        ):
            if lo > hi:
                raise ValueError(f"empty {name} range {lo}:{hi}")
        if self.p_range[0] < 2 or self.k_range[0] < 1 or self.m_range[0] < 0:
            raise ValueError("ranges extend below the builder bounds")
        if not self.signs or any(s not in (-1, 1) for s in self.signs):
            raise ValueError("signs must be a nonempty subset of {-1, +1}")
        unknown = set(self.cases) - set(ALL_CASES)
        if unknown:
            raise ValueError(f"unknown cases {sorted(unknown)}")


def parse_range(text: str) -> tuple[int, int]:
    """Inclusive range from ``lo:hi``; a single number ``n`` means n:n."""
    lo, sep, hi = text.partition(":")
    return (int(lo), int(hi if sep else lo))


def grid_instances(spec: SweepSpec = SweepSpec()) -> list[FamilyParams]:
    """Certifiable instances of the grid, in canonical sorted order.

    The ell = p-1 case runs over the full m range; the ell = p-2 case
    requires m = 1 (skipped when 1 is outside the range) and p >= 4
    (ell >= 2).
    """
    out = []
    p_lo, p_hi = spec.p_range
    k_lo, k_hi = spec.k_range
    m_lo, m_hi = spec.m_range
    for p in range(p_lo, p_hi + 1):
        for k in range(k_lo, k_hi + 1):
            for sign in sorted(spec.signs):
                if CASE_TOP in spec.cases:
                    for m in range(max(m_lo, 1), m_hi + 1):
                        out.append(FamilyParams(p, k, sign, p - 1, m))
                if CASE_NEXT in spec.cases and p >= 4 and m_lo <= 1 <= m_hi:
                    out.append(FamilyParams(p, k, sign, p - 2, 1))
    return sorted(out, key=lambda q: (q.p, q.k, q.sign, q.ell, q.m))


def run_instance(params: FamilyParams) -> dict:
    """Certify one instance and verify the result; pure and picklable."""
    kd = build(params)
    record: dict = {"params": params_to_doc(params)}
    try:
        cert = certify(kd)
    except ValueError as exc:
        record.update({"verdict": "FAIL", "failures": [f"certify: {exc}"]})
        return record
    report = verify_certificate(kd, cert)
    record.update(
        {
            "verdict": "PASS" if report.passed else "FAIL",
            "failures": list(report.failures),
            "case": cert.case,
            "v": cert.v,
            "bound": f"r >= {cert.v}",
            "trace_length": len(cert.trace),
            "certificate": certificate_to_doc(cert),
        }
    )
    return record


def run_sweep(spec: SweepSpec) -> dict:
    instances = grid_instances(spec)
    if spec.jobs > 1:
        with ProcessPoolExecutor(max_workers=spec.jobs) as pool:
            records = list(pool.map(run_instance, instances))
    else:
        records = [run_instance(params) for params in instances]
    failed = sum(1 for r in records if r["verdict"] != "PASS")
    return {
        "instances": records,
        "total": len(records),
        "passed": len(records) - failed,
        "failed": failed,
    }
