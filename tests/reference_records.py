"""The package's eleven records as frozen dataclasses, the slow reference.

nlo builds its records as plain classes on ``words.Record`` so that
importing it generates no code.  These are the same records written with
``@dataclass(frozen=True)`` and ``__post_init__`` checks; the tests hold
each record to its reference here: construction, defaults, equality,
hash, repr, refusals and ``replace``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

from nlo.families import PARAM_LIMIT
from nlo.sweep import ALL_CASES, MAX_GRID_POINTS
from nlo.words import Word, abbreviate_int


@dataclass(frozen=True)
class FamilyParams:
    p: int
    k: int
    sign: int
    ell: int
    m: int

    def __post_init__(self):
        for name in ("p", "k", "ell", "m"):
            if abs(getattr(self, name)) >= PARAM_LIMIT:
                raise ValueError(f"require |{name}| < 10^200, got {name} of over 200 digits")
        if self.p < 3:
            raise ValueError(f"require p >= 3, got p = {self.p}")
        if self.k < 1:
            raise ValueError(f"require k >= 1, got k = {self.k}")
        if self.sign not in (1, -1):
            raise ValueError(f"require sign in {{+1, -1}}, got {self.sign}")
        if self.m < 0:
            raise ValueError(f"require m >= 0, got m = {self.m}")
        if self.ell == self.p:
            p, q, k, m = self.p, self.p * self.k + self.sign, self.k, self.m
            raise ValueError(
                f"ell = p = {p} is outside 2 <= ell <= p-1: T({p}, {q}; {p}, {m}) "
                f"is the torus knot T({p}, {q + p * m}), the instance k = {k + m}, "
                f"m = 0 with any 2 <= ell <= {p - 1}"
            )
        if not 2 <= self.ell <= self.p - 1:
            raise ValueError(
                f"require 2 <= ell <= p-1 = {self.p - 1}, got ell = {self.ell}"
            )


@dataclass(frozen=True)
class Presentation:
    generators: tuple[str, ...]
    relators: tuple[Word, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "generators", tuple(self.generators))
        object.__setattr__(self, "relators", tuple(self.relators))
        if len(set(self.generators)) != len(self.generators) or not self.generators:
            raise ValueError("alphabet must be nonempty with unique generators")
        alphabet = set(self.generators)
        for r in self.relators:
            if not r.generators() <= alphabet:
                raise ValueError(f"relator {r!r} uses generators outside the alphabet")


@dataclass(frozen=True)
class KnotData:
    params: FamilyParams
    presentation: Presentation
    mu: Word
    s: Word


@dataclass(frozen=True)
class Slope:
    numerator: int
    denominator: int = 1

    def __post_init__(self):
        num, den = self.numerator, self.denominator
        if den == 0:
            raise ValueError("slope denominator must be nonzero")
        if den < 0:
            num, den = -num, -den
        g = math.gcd(num, den)
        if g > 1:
            num //= g
            den //= g
        object.__setattr__(self, "numerator", num)
        object.__setattr__(self, "denominator", den)


@dataclass(frozen=True)
class TraceStep:
    lhs: Word
    rhs: Word
    relator_index: int
    position: int

    def __post_init__(self):
        if self.position < 0:
            raise ValueError("position must be nonnegative")


@dataclass(frozen=True)
class GeneratorChange:
    forward: Mapping[str, Word]
    backward: Mapping[str, Word]


@dataclass(frozen=True)
class Homology:
    invariant_factors: tuple[int, ...]
    free_rank: int


@dataclass(frozen=True)
class CommutationReport:
    consistent: bool
    complete_enumerations: int
    checked: tuple[tuple[str, int, bool], ...]


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
    failures: tuple[str, ...]


@dataclass(frozen=True)
class SweepSpec:
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
        (p, _), (k, _), (m, _) = self.p_range, self.k_range, self.m_range
        for sign in self.signs:
            FamilyParams(p, k, sign, p - 1, m)
        unknown = set(self.cases) - set(ALL_CASES)
        if unknown:
            raise ValueError(f"unknown cases {sorted(unknown)}")
        (p_lo, p_hi), (k_lo, k_hi), (m_lo, m_hi) = self.p_range, self.k_range, self.m_range
        points = ((p_hi - p_lo + 1) * (p_lo + p_hi - 4) // 2 * (k_hi - k_lo + 1)
                  * (m_hi - m_lo + 1) * len(self.signs))
        if points > MAX_GRID_POINTS:
            raise ValueError(f"{abbreviate_int('the grid has a point count', points, ' of ')}, "
                             f"over the cap MAX_GRID_POINTS = {MAX_GRID_POINTS}")
