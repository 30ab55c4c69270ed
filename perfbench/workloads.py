"""Seeded op lists for the four workloads, and the oracles that check them.

An op is one `nlo` command line.  A workload is a list of passes; every
pass holds the same mix of work, so pass times can be compared, and the
timed phase cycles through the passes.  Grid instances are dealt to
passes by stratified sampling (`_deal`): items are sorted by a cost proxy,
cut into blocks of one item per pass, and each block is shuffled across
the passes with the seeded RNG; surgery slopes are stratified by size (see
`surgery_homology`).  Different seeds give different passes with the same
cost profile, which keeps run-to-run spread low.

The oracles never call into `nlo`: expected values come from arithmetic
done here, from reference files captured at a fixed commit
(`reference/`), or from closed forms computed before timing starts.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import re
from collections import Counter
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
CERTIFY_REFERENCE = REFERENCE_DIR / "certify_digests.json"
ORDER_REFERENCE = REFERENCE_DIR / "orders.json"

SIZES = ("full", "smoke")

# Fixed enumeration caps for the finite_quotients workload; the reference
# table was captured with the same values.
ORDER_MAX_COSETS = 20_000
COMMUTATION_MAX_COSETS = 2_000

# check(rc, stdout, tally) returns None when the output is right, else why not.
Check = Callable[[int, str, Counter], "str | None"]


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]
    check: Check
    feed: bool = False  # stdin is the previous op's stdout


@dataclass(frozen=True)
class Workload:
    passes: tuple[tuple[Op, ...], ...]
    warmup: tuple[Op, ...]
    memory: tuple[Op, ...]  # run alone first; sets peak_rss_mib


Params = tuple[int, int, int, int, int]  # p, k, sign, ell, m


def param_key(params: Params) -> str:
    return ",".join(str(x) for x in params)


def _param_argv(params: Params) -> list[str]:
    out = []
    for flag, value in zip(("--p", "--k", "--sign", "--ell", "--m"), params):
        out += [flag, str(value)]
    return out


def _v(params: Params) -> int:
    p, k, sign, ell, m = params
    return p * (p * k + sign) + ell * ell * m


def _content(stdout: str) -> dict:
    return json.loads(stdout)["content"]


def content_digest(stdout: str) -> str:
    """sha256 of the canonical JSON of a document's ``content``."""
    canonical = json.dumps(_content(stdout), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _deal(items: list, key, npasses: int, rng: random.Random) -> list[list]:
    """Split ``items`` into ``npasses`` passes of equal cost profile."""
    ordered = sorted(items, key=key)
    passes: list[list] = [[] for _ in range(npasses)]
    for lo in range(0, len(ordered), npasses):
        block = ordered[lo : lo + npasses]
        slots = rng.sample(range(npasses), len(block))
        for slot, item in zip(slots, block):
            passes[slot].append(item)
    for chunk in passes:
        rng.shuffle(chunk)
    return passes


# -- certify_verify ----------------------------------------------------------


def certified_grid(p_hi: int, k_hi: int, m_hi: int) -> list[Params]:
    """The certified cases with p in 3..p_hi, k in 1..k_hi, m in 1..m_hi:
    ell = p-1 for every m, ell = p-2 with m = 1 (p >= 4), both signs."""
    out = []
    for p in range(3, p_hi + 1):
        for k in range(1, k_hi + 1):
            for sign in (-1, 1):
                out += [(p, k, sign, p - 1, m) for m in range(1, m_hi + 1)]
                if p >= 4:
                    out.append((p, k, sign, p - 2, 1))
    return out


def _check_certify(digest: str, rc: int, stdout: str, tally: Counter) -> str | None:
    if rc != 0:
        return f"certify exit code {rc}"
    if _content(stdout)["verification"]["verdict"] != "PASS":
        return "certify verdict is not PASS"
    if content_digest(stdout) != digest:
        return "certify content differs from the reference"
    return None


def _check_verify(rc: int, stdout: str, tally: Counter) -> str | None:
    content = _content(stdout)
    if rc != 0 or content["verdict"] != "PASS" or not content["passed"]:
        return f"verify exit code {rc}, verdict {content['verdict']}"
    return None


def certify_verify(seed: int, size: str) -> Workload:
    dims, npasses = {"full": ((12, 6, 5), 12), "smoke": ((4, 2, 2), 2)}[size]
    digests = json.loads(CERTIFY_REFERENCE.read_text())
    rng = random.Random(seed)

    def pair(params: Params) -> tuple[Op, Op]:
        certify = Op(
            ("certify", *_param_argv(params)),
            partial(_check_certify, digests[param_key(params)]),
        )
        return certify, Op(("verify", "--certificate", "-"), _check_verify, feed=True)

    # Word sizes, and so costs, grow with p, then k, then m.
    grid = certified_grid(*dims)
    chunks = _deal(grid, lambda q: (q[0], q[1], q[4], q[3], q[2]), npasses, rng)
    passes = tuple(tuple(op for q in chunk for op in pair(q)) for chunk in chunks)
    return Workload(passes, pair((3, 1, -1, 2, 1)), passes[0])


# -- surgery_homology --------------------------------------------------------

TWISTED_KNOTS: tuple[Params, ...] = (
    (3, 1, -1, 2, 1),
    (3, 2, -1, 2, 1),
    (4, 1, 1, 3, 2),
    (5, 2, -1, 4, 1),
)
_GOLDEN = (math.sqrt(5) - 1) / 2


def _check_order_is_numerator(numerator: int, rc: int, stdout: str, tally: Counter):
    if rc != 0:
        return f"homology exit code {rc}"
    # |H1| of p'/q' surgery on a knot in S^3 is |p'|.
    order = _content(stdout)["order"]
    if order != abs(numerator):
        return f"|H1| = {order}, expected {abs(numerator)}"
    return None


def _homology_op(params: Params, numerator: int, denominator: int) -> Op:
    return Op(
        ("homology", *_param_argv(params), "--slope", f"{numerator}/{denominator}"),
        partial(_check_order_is_numerator, numerator),
    )


def surgery_homology(seed: int, size: str) -> Workload:
    """Slopes p'/q' with log10 p' stratified over [0, top].

    Each pass takes two slopes from every stratum, at offsets u and 1 - u
    within it, so the costly top strata add up to nearly the same time in
    every pass; the passes step u by the golden ratio.  The knots and
    q' = 1..5 cycle over the slopes.  The slopes are the same for every
    seed, and the seed only orders each pass: the latency percentiles sit
    on strata edges, and seeded slopes moved them by 10% between seeds.
    A run cycles through few passes, so each op runs more than once and
    its latency is averaged over the machine's states.
    """
    top, strata, npasses = {"full": (5.0, 10, 4), "smoke": (2.0, 4, 2)}[size]
    rng = random.Random(seed)
    width = top / strata
    passes = []
    for i in range(npasses):
        u = ((i + 1) * _GOLDEN) % 1.0
        ops = []
        for j in range(strata):
            for h, offset in enumerate((u, 1.0 - u)):
                numerator = max(1, round(10 ** (width * (j + offset))))
                denominator = 1 + (i + 2 * j + h) % 5
                while math.gcd(numerator, denominator) != 1:
                    numerator += 1
                knot = TWISTED_KNOTS[(i + j + 2 * h) % len(TWISTED_KNOTS)]
                ops.append(_homology_op(knot, numerator, denominator))
        rng.shuffle(ops)
        passes.append(tuple(ops))
    warmup = (_homology_op(TWISTED_KNOTS[0], 7, 1),)
    # The largest slope of the range builds the largest relator word.
    memory = (_homology_op(TWISTED_KNOTS[0], round(10**top) - 1, 1),)
    return Workload(tuple(passes), warmup, memory)


# -- alexander_grid ----------------------------------------------------------

_TERM = re.compile(r"([+-]?\d+)\*t\^(-?\d+)")


def parse_polynomial(text: str) -> dict[int, int]:
    """``c*t^e + ...`` text to {e: c}."""
    out: dict[int, int] = {}
    for chunk in text.split(" + "):
        match = _TERM.fullmatch(chunk.strip())
        if match is None:
            raise ValueError(f"malformed polynomial term {chunk!r}")
        out[int(match.group(2))] = int(match.group(1))
    return out


def is_lspace(params: Params) -> bool:
    """ell = p-1; ell = p-2 with m = 1; ell = 2 with m = 1."""
    p, _, _, ell, m = params
    return ell == p - 1 or (m == 1 and ell in (p - 2, 2))


def lspace_grid(p_hi: int, k_hi: int, m_hi: int) -> list[Params]:
    """L-space parameters of the grid p 3..p_hi, k 1..k_hi, m 1..m_hi, plus
    the m = 0 torus-knot degeneration T(p, pk±1) for every p, k and sign."""
    out = []
    for p in range(3, p_hi + 1):
        for k in range(1, k_hi + 1):
            for sign in (-1, 1):
                out.append((p, k, sign, p - 1, 0))
                for ell in range(2, p):
                    out += [(p, k, sign, ell, m) for m in range(1, m_hi + 1)
                            if is_lspace((p, k, sign, ell, m))]
    return out


def _check_alexander(expected: str | None, rc: int, stdout: str, tally: Counter):
    if rc != 0:
        return f"alexander exit code {rc}"
    text = _content(stdout)["polynomial"]
    if expected is not None and text != expected:
        return f"torus degeneration gives {text}, closed form is {expected}"
    coeffs = parse_polynomial(text)
    lo, hi = min(coeffs), max(coeffs)
    if (hi - lo) % 2:
        return f"odd breadth {hi - lo}"
    if any(coeffs.get(e, 0) != coeffs.get(lo + hi - e, 0) for e in coeffs):
        return "polynomial is not symmetric"
    # Ozsvath-Szabo: an L-space knot's nonzero coefficients are +-1 and
    # alternate in sign.
    ordered = [coeffs[e] for e in sorted(coeffs)]
    if any(abs(c) != 1 for c in ordered) or any(
        a != -b for a, b in zip(ordered, ordered[1:])
    ):
        return "coefficients are not +-1 with alternating signs"
    return None


def torus_polynomial_text(p: int, q: int) -> str:
    """(t^pq - 1)(t - 1) / ((t^p - 1)(t^q - 1)) as normalized ``c*t^e`` text.

    For coprime p, q the numerator has degree pq + 1 and the quotient is
    monic; plain long division over the integers gives it exactly.
    """
    num = [0] * (p * q + 2)  # coefficients by ascending degree
    num[0], num[1], num[p * q], num[p * q + 1] = 1, -1, -1, 1
    for d in (p, q):
        quotient = [0] * (len(num) - d)
        rem = list(num)
        for deg in range(len(rem) - 1, d - 1, -1):
            c = rem[deg]
            if c:
                quotient[deg - d] = c
                rem[deg] -= c
                rem[deg - d] += c
        num = quotient
    return " + ".join(f"{c}*t^{e}" for e, c in enumerate(num) if c)


def alexander_grid(seed: int, size: str) -> Workload:
    dims, npasses = {"full": ((9, 5, 4), 5), "smoke": ((4, 2, 2), 2)}[size]
    rng = random.Random(seed)

    def op(params: Params) -> Op:
        p, k, sign, _, m = params
        expected = torus_polynomial_text(p, p * k + sign) if m == 0 else None
        return Op(("alexander", *_param_argv(params)), partial(_check_alexander, expected))

    grid = lspace_grid(*dims)
    # Relator length grows with v; the torus-knot degenerations are cheap.
    chunks = _deal(grid, lambda q: (q[4] > 0, _v(q), q), npasses, rng)
    passes = tuple(tuple(op(q) for q in chunk) for chunk in chunks)
    return Workload(passes, (op((3, 1, -1, 2, 1)),), passes[0])


# -- finite_quotients --------------------------------------------------------

QUOTIENT_KNOTS: dict[str, tuple[Params, ...]] = {
    # trefoil T(3,2), T(3,4), T(3,5), then three twisted knots
    "full": ((3, 1, -1, 2, 0), (3, 1, 1, 2, 0), (3, 2, -1, 2, 0),
             (3, 1, -1, 2, 1), (3, 1, 1, 2, 1), (4, 1, -1, 3, 1)),
    "smoke": ((3, 1, -1, 2, 0), (3, 1, -1, 2, 1)),
}
# Peripheral batteries: the trefoil completes enumerations, T(3,2;2,1)
# completes none at this cap (a vacuous battery).
COMMUTATION_KNOTS: tuple[Params, ...] = ((3, 1, -1, 2, 0), (3, 1, -1, 2, 1))


def quotient_slopes(params: Params, size: str) -> list[int]:
    """Integer slopes 1 and v-5 .. v+5 (full) or 1 and v-1 .. v+1 (smoke)."""
    v, reach = _v(params), 5 if size == "full" else 1
    return sorted({1, *range(max(1, v - reach), v + reach + 1)})


def order_key(params: Params, numerator: int) -> str:
    return f"{param_key(params)}|{numerator}/1"


def _check_order(numerator: int, reference: dict, rc: int, stdout: str, tally: Counter):
    if rc != 0:
        return f"order exit code {rc}"
    content = _content(stdout)
    tally["order.enumerations"] += 1
    if content["status"] == "capped":
        tally["order.capped"] += 1
        return None
    order = content["order"]
    if content["status"] != "complete" or order != content["cosets"]:
        return f"unexpected order result {content}"
    if order % numerator:
        return f"order {order} is not divisible by |H1| = {numerator}"
    if reference["status"] == "complete" and order != reference["order"]:
        return f"order {order}, reference {reference['order']}"
    return None


def _check_commutation(rc: int, stdout: str, tally: Counter):
    content = _content(stdout)
    tally["commutation.batteries"] += 1
    tally["commutation.complete_enumerations"] += content["complete_enumerations"]
    tally["commutation.vacuous"] += content["complete_enumerations"] == 0
    # [mu, s] = 1 in the knot group, so no finite action may break it.
    if rc != 0 or not content["consistent"]:
        return f"commutation exit code {rc}, consistent {content['consistent']}"
    return None


def finite_quotients(seed: int, size: str) -> Workload:
    reference = json.loads(ORDER_REFERENCE.read_text())
    rng = random.Random(seed)

    def order_op(item: tuple[Params, int]) -> Op:
        params, numerator = item
        return Op(
            ("order", *_param_argv(params), "--slope", f"{numerator}/1",
             "--max-cosets", str(ORDER_MAX_COSETS)),
            partial(_check_order, numerator, reference[order_key(params, numerator)]),
        )

    batteries = tuple(
        Op(("commutation", *_param_argv(q), "--max-cosets", str(COMMUTATION_MAX_COSETS)),
           _check_commutation)
        for q in COMMUTATION_KNOTS
    )
    candidates = [(q, n) for q in QUOTIENT_KNOTS[size] for n in quotient_slopes(q, size)]

    def cost(item: tuple[Params, int]) -> tuple:
        # Capped enumerations cost the most; complete ones grow with the order.
        ref = reference[order_key(*item)]
        return (ref["status"] == "capped", ref["cosets"], item)

    chunks = _deal(candidates, cost, 2, rng)
    passes = tuple(tuple(order_op(c) for c in chunk) + batteries for chunk in chunks)
    return Workload(passes, (order_op(((3, 1, -1, 2, 0), 5)),), passes[0])


MAKERS = {
    "certify_verify": certify_verify,
    "surgery_homology": surgery_homology,
    "alexander_grid": alexander_grid,
    "finite_quotients": finite_quotients,
}


WORKLOADS = tuple(MAKERS)


def make(name: str, seed: int, size: str) -> Workload:
    return MAKERS[name](seed, size)
