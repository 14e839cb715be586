"""Exact arithmetic for irrational slopes given by continued fractions.

A slope 0 < alpha < 1 is described by its partial quotients
[0; a1, a2, a3, ...] (the leading 0 is implicit, so a1 >= 1).  Eventually
periodic expansions -- which cover every quadratic irrational, including
all slopes used in the test corpus -- give an unbounded, replayable term
stream.  Plain finite term lists are accepted for experimentation but a
computation that needs more precision than they carry raises
:class:`InsufficientPrecisionError`.

Every comparison here is decided by integer interval refinement against
the convergents p_n/q_n, never by floating point: even-indexed convergents
under-approximate alpha and odd-indexed ones over-approximate it, so
refining the sandwich decides any comparison that is not an exact
algebraic identity.  One integer kernel, ``_sign``, decides the sign of
c*alpha + e for integers c and e.  Every test of a fractional part
against a threshold, {i*alpha} < (U + V*alpha)/D, goes through it by way
of ``_frac_sign``: ``frac_less_than`` calls that, and the Sturmian
locator of :mod:`abelianwords.powers`, which reads its signs off one
deep convergent (exact by the |c|/(q_m*q_(m+1)) bound below), falls back
to ``_frac_sign`` where such a sign is 0 or the position is past that
convergent's reach.  The kernel and ``floor_scaled`` read (p_n, q_n)
pairs straight from each instance's grow-only cache, so a warm
comparison builds no ``Convergent`` and no ``Fraction``.

Every walk starts at the first pair (p_0/q_0, p_1/q_1).  At convergent m
a bound is off by |c*alpha + e - (c*p_m/q_m + e)| < |c|/(q_m*q_(m+1)),
so once q_m > |c| it is off by less than 1/q_(m+1), and the walk stops
within a pair or two unless |c*alpha + e| is smaller still.

Positions and partial quotients pass through ``operator.index``, so a
numpy integer becomes an exact int and a float is refused.
"""

import threading
from dataclasses import dataclass, field
from fractions import Fraction
from numbers import Rational
from operator import index
from typing import Iterator

__all__ = [
    "AffineThreshold",
    "ContinuedFraction",
    "Convergent",
    "InsufficientPrecisionError",
    "convergents",
    "floor_scaled",
    "frac_less_than",
]


# Serializes growth of both caches of every ContinuedFraction.  Re-entrant,
# because growing the characteristic-word cache grows convergents.
_CACHE_GROWTH = threading.RLock()


def _wire_object(value, what: str) -> dict:
    """``value`` read from JSON, which must be an object."""
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be a JSON object, got {value!r}")
    return value


def _is_json_int(value) -> bool:
    # a JSON true parses to a bool, which isinstance counts as an int
    return type(value) is int


class InsufficientPrecisionError(ArithmeticError):
    """Raised when a finite term stream runs out before a question is decided."""


@dataclass(frozen=True)
class Convergent:
    """One convergent p_n/q_n of a continued fraction (n = 0 is 0/1)."""

    index: int
    p: int
    q: int

    @property
    def value(self) -> Fraction:
        return Fraction(self.p, self.q)


@dataclass(frozen=True)
class ContinuedFraction:
    """An expansion [0; a1, a2, ...] with all terms >= 1.

    ``preperiod`` holds the leading terms, ``period`` the repeating tail;
    an empty period means the expansion is just the finite ``preperiod``
    (a rational value, usable for experiments only).  Instances are
    immutable and safe to share between threads: the two internal caches,
    the convergents and a prefix of the characteristic word (kept by
    :func:`abelianwords.words.characteristic_prefix`), only ever grow,
    and only under a lock.
    """

    preperiod: tuple[int, ...]
    period: tuple[int, ...] = ()
    # _pq[i] holds (p, q) of convergent index i-1; seeded with the
    # recurrence anchors p_{-1}/q_{-1} = 1/0 and p_0/q_0 = 0/1.
    _pq: list = field(default_factory=lambda: [(1, 0), (0, 1)],
                      init=False, repr=False, compare=False)
    # _word[0] holds a prefix of the characteristic word of this slope
    _word: list = field(default_factory=lambda: [b""],
                        init=False, repr=False, compare=False)

    def __post_init__(self):
        pre = tuple(map(index, self.preperiod))
        per = tuple(map(index, self.period))
        object.__setattr__(self, "preperiod", pre)
        object.__setattr__(self, "period", per)
        if not pre and not per:
            raise ValueError("continued fraction needs at least one term")
        for a in pre + per:
            if a < 1:
                raise ValueError(f"partial quotients must be >= 1, got {a}")

    def __getstate__(self):
        # the word cache is a read-only memoryview, which does not pickle;
        # a pickle or a deep copy carries its symbols as bytes
        return {**self.__dict__, "_word": [bytes(self._word[0])]}

    @property
    def is_unbounded(self) -> bool:
        return bool(self.period)

    def term(self, j: int) -> int:
        """Partial quotient a_j (1-based)."""
        if j < 1:
            raise ValueError("terms are indexed from 1")
        if j <= len(self.preperiod):
            return self.preperiod[j - 1]
        if self.period:
            return self.period[(j - 1 - len(self.preperiod)) % len(self.period)]
        raise InsufficientPrecisionError(
            f"insufficient continued-fraction precision: term {j} requested, "
            f"only {len(self.preperiod)} available")

    def terms(self) -> Iterator[int]:
        """Replayable stream a1, a2, ...; a fresh iterator every call."""
        yield from self.preperiod
        while self.period:
            yield from self.period

    def convergent(self, n: int) -> Convergent:
        """Convergent p_n/q_n, extending the cache as needed."""
        if n < 0:
            raise ValueError("convergent index must be >= 0")
        pq = self._pq
        if len(pq) < n + 2:
            # each entry is computed from the last two, so growth must not
            # interleave; a reader needs no lock, as entries never change
            with _CACHE_GROWTH:
                while len(pq) < n + 2:
                    j = len(pq) - 1  # next convergent index
                    a = self.term(j)
                    p = a * pq[-1][0] + pq[-2][0]
                    q = a * pq[-1][1] + pq[-2][1]
                    pq.append((p, q))
        p, q = pq[n + 1]
        return Convergent(n, p, q)

    def complement(self) -> "ContinuedFraction":
        """Expansion of 1 - alpha.

        [0; 1, b, ...] maps to [0; b+1, ...] and [0; a, ...] with a >= 2
        maps to [0; 1, a-1, ...]; eventual periodicity is preserved by
        moving the affected leading terms into the preperiod.
        """
        pre, per = list(self.preperiod), self.period
        while len(pre) < 2 and per:  # ensure a1 (and a2 if needed) are concrete
            pre.append(per[0])
            per = per[1:] + per[:1]
        if pre[0] == 1:
            if len(pre) < 2:
                raise InsufficientPrecisionError(
                    "insufficient continued-fraction precision: need a2 to complement")
            new_pre = [pre[1] + 1] + pre[2:]
        else:
            new_pre = [1, pre[0] - 1] + pre[1:]
        return ContinuedFraction(tuple(new_pre), tuple(per))

    def to_dict(self) -> dict:
        return {"preperiod": list(self.preperiod), "period": list(self.period)}

    @classmethod
    def from_dict(cls, d: dict) -> "ContinuedFraction":
        """Parse the wire form: a JSON object whose optional ``preperiod``
        and ``period`` are lists of JSON integers."""
        parts = [_wire_object(d, "slope").get(key, [])
                 for key in ("preperiod", "period")]
        for terms in parts:
            if not (isinstance(terms, list) and all(map(_is_json_int, terms))):
                raise ValueError(
                    f"slope terms must be lists of JSON integers, got {terms!r}")
        return cls(*map(tuple, parts))


def _exact(x) -> Fraction:
    """Rational x as a Fraction of Python ints."""
    if not isinstance(x, Rational):
        raise TypeError(
            f"threshold parts must be rationals, got {type(x).__name__}")
    return Fraction(index(x.numerator), index(x.denominator))


@dataclass(frozen=True)
class AffineThreshold:
    """The real number u + v*alpha with rational u, v.

    Used as the right-hand side of strict comparisons against fractional
    parts {i*alpha}; all the thresholds appearing in the Sturmian power
    construction have this shape.  ``u`` and ``v`` must be rationals (a
    float, ``Decimal`` or ``str`` raises ``TypeError``), kept as Fractions
    of Python ints.  ``form`` holds the same number once over integers,
    (U, V, D) with u + v*alpha = (U + V*alpha)/D and D > 0; every exact
    test reads it.
    """

    u: Fraction
    v: Fraction
    form: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        u, v = _exact(self.u), _exact(self.v)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "form", (u.numerator * v.denominator,
                                          v.numerator * u.denominator,
                                          u.denominator * v.denominator))


def convergents(cf: ContinuedFraction, count: int) -> list[Convergent]:
    """First ``count`` convergents p_1/q_1, ..., p_count/q_count."""
    if count < 1:
        raise ValueError("count must be >= 1")
    out = []
    for n in range(1, count + 1):
        try:
            out.append(cf.convergent(n))
        except InsufficientPrecisionError:
            raise InsufficientPrecisionError(
                f"continued fraction yields only {n - 1} convergents, "
                f"{count} requested") from None
    return out


def _pq_at(cf: ContinuedFraction, n: int) -> tuple[int, int]:
    """(p_n, q_n) read straight from the cache, grown through convergent()."""
    pq = cf._pq
    if len(pq) < n + 2:
        cf.convergent(n)
    return pq[n + 1]


def _sign(cf: ContinuedFraction, c: int, e: int) -> int:
    """Exact sign of c*alpha + e for integers c and e.

    For c != 0 this walks the sandwich p_{2m}/q_{2m} < alpha <
    p_{2m+1}/q_{2m+1}: with c > 0, c*p/q + e at an even convergent is a
    lower bound and at an odd one an upper bound, so the sign is decided
    as soon as either bound has it (c < 0 is the mirror image).  Each
    bound is requested only when the previous one did not decide, so a
    finite stream runs out exactly where comparing alpha with the
    rational -e/c would.
    """
    if c == 0:
        return (e > 0) - (e < 0)
    t = 1 if c > 0 else -1
    c, e = c * t, e * t
    n = 0
    while True:
        p, q = _pq_at(cf, n)
        if c * p + e * q >= 0:
            return t  # alpha >= p_n/q_n >= -e/c
        p, q = _pq_at(cf, n + 1)
        if c * p + e * q <= 0:
            return -t  # alpha <= p_{n+1}/q_{n+1} <= -e/c
        n += 2


def floor_scaled(cf: ContinuedFraction, n: int) -> int:
    """Exact floor(n * alpha) for n >= 0.

    Refines the sandwich p_{2m}/q_{2m} < alpha < p_{2m+1}/q_{2m+1} until
    both bounds land in the same unit interval, which must happen because
    n*alpha is irrational for n >= 1.
    """
    n = index(n)
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return 0
    m = 0
    while True:
        p_lo, q_lo = _pq_at(cf, m)
        p_hi, q_hi = _pq_at(cf, m + 1)
        f_lo = (n * p_lo) // q_lo
        if f_lo == (n * p_hi) // q_hi:
            return f_lo
        m += 2


def _frac_sign(cf: ContinuedFraction, i: int, f: int,
               U: int, V: int, D: int) -> int:
    """Exact sign of {i*alpha} - (U + V*alpha)/D for D > 0, given
    f = floor(i*alpha).

    Times D this is (D*i - V)*alpha - (D*f + U), one ``_sign``; it is 0
    exactly when both sides are equal algebraically, where there is
    nothing to refine towards.
    """
    return _sign(cf, D * i - V, -(D * f + U))


def frac_less_than(cf: ContinuedFraction, i: int, t: AffineThreshold) -> bool:
    """Exact test of {i*alpha} < u + v*alpha.

    Decided by ``_frac_sign`` on the threshold's integer form.  When both
    sides collapse ({i*alpha} equals u + v*alpha algebraically) there is
    nothing to refine towards, so that identity case is rejected; the
    caller must exclude it.
    """
    if not isinstance(t, AffineThreshold):
        raise TypeError(
            f"threshold must be an AffineThreshold, got {type(t).__name__}")
    i = index(i)
    if i < 1:
        raise ValueError("i must be >= 1")
    sign = _frac_sign(cf, i, floor_scaled(cf, i), *t.form)
    if sign == 0:
        raise ValueError(
            "comparison is an exact identity ({i*alpha} = u + v*alpha); "
            "the identity case must be excluded by the caller")
    return sign < 0
