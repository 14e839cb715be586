"""Finding and verifying Abelian k-powers.

Three routes are provided and every returned occurrence is re-verified
before it leaves this module:

* a brute-force scan over candidate periods (the oracle the other two are
  checked against),
* the arithmetic-progression construction: relabel letters with weights
  whose small combinations only vanish trivially mod N, take running sums
  mod N, and look for a monochromatic progression,
* the exact locator for characteristic words, which classifies the
  fractional part {i*alpha} and reads the Abelian period off a convergent
  denominator, so each position gets one of just two possible periods.

All three verify through one counting core, ``_common_parikh``: it
counts all letters but the last in each block with ``bytes.count``,
stops at the first block that differs, and returns the shared Parikh
vector, which becomes the certificate's ``block_parikh``.

The locator works on integers only: delta = u + v*alpha is held as
(U + V*alpha)/D (``AffineThreshold.form``), and every threshold test
becomes the sign of c*alpha + e for integers c, e (``contfrac._sign``).
Everything that depends on (slope, k, delta) alone -- the flip to the
complement above 1/2, the period pair, the integer form -- is one
memoized locator, so a warm certificate costs one floor, at most three
signs and one verification on the requested slope's cached
characteristic word.  ``sturmian_powers`` certifies many positions with
one locator and one growth of that word; ``sturmian_power_at`` is its
one-position case.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from operator import index
from typing import Iterable, NamedTuple, Union

import numpy as np

from .complexity import ParikhVector
from .contfrac import (AffineThreshold, ContinuedFraction, _sign,
                       floor_scaled)
from .words import WordPrefix, _characteristic_word, _check_length

__all__ = [
    "AbelianPowerOccurrence",
    "CongoWeights",
    "PeriodPair",
    "WeightsTooSmallError",
    "congo_weights",
    "min_abelian_period",
    "sturmian_period_pair",
    "sturmian_power_at",
    "sturmian_powers",
    "vdw_power_search",
    "verify_abelian_power",
]

DEFAULT_DELTA = AffineThreshold(0, Fraction(1, 2))  # delta = alpha/2


class WeightsTooSmallError(ValueError):
    """The weight bound M was below the word's balance constant."""


@dataclass(frozen=True)
class AbelianPowerOccurrence:
    """Certificate of k consecutive Abelian-equivalent blocks.

    The blocks are w[start + j*period : start + (j+1)*period] for
    j = 0..exponent-1 (0-based positions) and all share ``block_parikh``.
    """

    start: int
    period: int
    exponent: int
    block_parikh: ParikhVector

    def to_dict(self) -> dict:
        return {"start": self.start, "period": self.period,
                "exponent": self.exponent,
                "block_parikh": list(self.block_parikh)}


@dataclass(frozen=True)
class CongoWeights:
    """Letter weights whose bounded combinations vanish mod N only trivially.

    Invariant: sum(c_i * alphas_i) = 0 (mod N) with all |c_i| <= M forces
    every c_i = 0.
    """

    M: int
    r: int
    alphas: tuple[int, ...]
    N: int


def _common_parikh(symbols: bytes, p: int, start: int, ell: int,
                   k: int) -> Union[ParikhVector, None]:
    """Parikh vector shared by the k length-ell blocks of ``symbols`` from
    ``start``, or None as soon as one block differs from the first.

    Counts each of the letters 0..p-2 block by block; the last letter's
    count is ell minus theirs, which is exact because every symbol is
    below p.
    """
    count = symbols.count
    stop = start + k * ell
    first = []
    for a in range(p - 1):
        c = count(a, start, start + ell)
        for lo in range(start + ell, stop, ell):
            if count(a, lo, lo + ell) != c:
                return None
        first.append(c)
    first.append(ell - sum(first))
    return tuple(first)


def verify_abelian_power(w: WordPrefix, start: int, ell: int, k: int) -> bool:
    """True iff the k length-ell blocks from ``start`` share one Parikh vector."""
    if ell < 1 or k < 1 or start < 0:
        raise ValueError("need start >= 0, ell >= 1, k >= 1")
    if start + k * ell > len(w):
        raise ValueError(
            f"occurrence [{start}, {start + k * ell}) exceeds prefix length {len(w)}")
    return _common_parikh(w.symbols, w.alphabet_size, start, ell, k) is not None


def min_abelian_period(w: WordPrefix, start: int, k: int,
                       ell_max: Union[int, None] = None) -> Union[int, None]:
    """Smallest ell <= ell_max making an Abelian k-power at ``start``.

    Brute-force oracle: scans ell = 1, 2, ...; None when no candidate fits
    inside the prefix.
    """
    if start < 0 or k < 1:
        raise ValueError("need start >= 0 and k >= 1")
    cap = (len(w) - start) // k
    if ell_max is None:
        ell_max = cap
    for ell in range(1, min(ell_max, cap) + 1):
        if verify_abelian_power(w, start, ell, k):
            return ell
    return None


def congo_weights(M: int, r: int) -> CongoWeights:
    """Minimal admissible weights: each is one more than M times the sum of
    the previous ones, and so is the modulus."""
    if M < 1 or r < 1:
        raise ValueError("need M >= 1 and r >= 1")
    alphas = [1]
    for _ in range(r - 1):
        alphas.append(M * sum(alphas) + 1)
    return CongoWeights(M, r, tuple(alphas), M * sum(alphas) + 1)


def vdw_power_search(w: WordPrefix, k: int, weights: CongoWeights
                     ) -> Union[AbelianPowerOccurrence, None]:
    """Abelian k-power via a monochromatic progression of running sums.

    Letters are relabeled with the weights, nu(t) = (sum of the first t
    weights) mod N, and the scan looks for the smallest s, then the
    smallest t0, with nu(t0) = nu(t0+s) = ... = nu(t0+ks).  Equal block
    sums mod N force equal Parikh vectors provided M bounds the word's
    balance constant, which the caller guarantees; the occurrence is
    verified before it is returned either way.

    Returns None when no progression fits inside the prefix.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if weights.r != w.alphabet_size:
        raise ValueError(
            f"weights cover {weights.r} letters, word uses {w.alphabet_size}")
    L = len(w)
    if L < k:
        return None
    if weights.N * L < 2**63:  # every running sum fits in int64
        table = np.asarray(weights.alphas, dtype=np.int64)
        nu = np.zeros(L + 1, dtype=np.int64)
        np.cumsum(table[w.as_array()], out=nu[1:])
        nu %= weights.N
        distinct = weights.N
    else:
        # exact sums in Python ints; the scan only tests nu values for
        # equality, so each distinct value is renamed to a small int
        sums = accumulate(map(weights.alphas.__getitem__, w.symbols), initial=0)
        names = {}
        nu = np.fromiter((names.setdefault(t % weights.N, len(names))
                          for t in sums), dtype=np.int64, count=L + 1)
        distinct = len(names)
    # the scan compares residues for equality only: the narrowest dtype
    # that holds them all does the same work on fewer bytes
    nu = nu.astype(np.min_scalar_type(distinct - 1))
    for s in range(1, L // k + 1):
        width = L - k * s + 1
        ok = nu[:width] == nu[s:s + width]
        for j in range(2, k + 1):
            if not ok.any():
                break
            ok &= nu[j * s:j * s + width] == nu[:width]
        hits = np.flatnonzero(ok)
        if hits.size:
            t0 = int(hits[0])
            block = _common_parikh(w.symbols, w.alphabet_size, t0, s, k)
            if block is None:
                raise WeightsTooSmallError(
                    f"nu-progression at (t0={t0}, s={s}) has non-equivalent "
                    f"blocks: M={weights.M} is below the word's balance constant")
            return AbelianPowerOccurrence(t0, s, k, block)
    return None


@dataclass(frozen=True)
class PeriodPair:
    """The two Abelian periods available at every position of a
    characteristic word, read off consecutive convergent denominators."""

    ell1: int
    ell2: int
    n_even: int


def _check_delta(alpha: ContinuedFraction, U: int, V: int, D: int):
    # 0 < delta < alpha, with delta = (U + V*alpha)/D
    if _sign(alpha, V, U) <= 0:
        raise ValueError("delta must be positive")
    if _sign(alpha, V - D, U) >= 0:
        raise ValueError("delta must be < alpha")


def sturmian_period_pair(alpha: ContinuedFraction, k: int,
                         delta: AffineThreshold = DEFAULT_DELTA) -> PeriodPair:
    """Smallest even n with q_{n+1} * min(delta, alpha - delta) > k, and the
    period pair (q_n, q_{n+1}) it yields.

    Requires 0 < alpha < 1/2; complement the slope first otherwise.  The
    threshold ``delta`` denotes u + v*alpha and must satisfy
    0 < delta < alpha, so all decisions stay exact.  The result is
    memoized per (alpha, k, delta); all three are immutable values.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    return _period_pair(alpha, k, delta)


@lru_cache(maxsize=1024)
def _period_pair(alpha: ContinuedFraction, k: int,
                 delta: AffineThreshold) -> PeriodPair:
    if _sign(alpha, 2, -1) >= 0:
        raise ValueError("slope must be < 1/2; complement it first")
    U, V, D = delta.form
    _check_delta(alpha, U, V, D)
    # D * min(delta, alpha - delta) = mu + mv*alpha
    if _sign(alpha, 2 * V - D, 2 * U) < 0:
        mu, mv = U, V
    else:
        mu, mv = -U, D - V
    n = 0
    while True:
        q_next = alpha.convergent(n + 1).q
        if _sign(alpha, q_next * mv, q_next * mu - k * D) > 0:
            return PeriodPair(alpha.convergent(n).q, q_next, n)
        n += 2


@lru_cache(maxsize=1024)
def _complement(alpha: ContinuedFraction) -> ContinuedFraction:
    """``alpha.complement()``, one instance per slope, so that its
    convergent cache stays warm across calls."""
    return alpha.complement()


class _Locator(NamedTuple):
    """What a certificate at (slope, k, delta) needs besides its position.

    A slope above 1/2 is decided on its complement (``flipped``), whose
    characteristic word is the letter exchange of the original; positions
    and periods carry over unchanged.  The complement itself comes from
    ``_complement``, the one instance per slope.
    """

    flipped: bool
    ell1: int  # q_n, the period outside the critical windows (Case 1)
    ell2: int  # q_{n+1}, the period inside them (Case 2)
    U: int
    V: int
    D: int


@lru_cache(maxsize=1024)
def _locator(alpha: ContinuedFraction, k: int,
             delta: AffineThreshold) -> _Locator:
    flipped = _sign(alpha, 2, -1) >= 0
    pair = sturmian_period_pair(_complement(alpha) if flipped else alpha,
                                k, delta)
    return _Locator(flipped, pair.ell1, pair.ell2, *delta.form)


def _frac_lt(alpha: ContinuedFraction, i: int, f: int,
             tu: int, tv: int, d: int) -> bool:
    """{i*alpha} < (tu + tv*alpha)/d, given f = floor(i*alpha) and d > 0.

    An exact identity (both sides equal algebraically) counts as 'not less'.
    """
    c, e = d * i - tv, -(d * f + tu)
    return not (c == 0 and e == 0) and _sign(alpha, c, e) < 0


def _period_at(work: ContinuedFraction, loc: _Locator, i: int) -> int:
    """The period of the certificate at 1-based position i, decided on the
    working slope: q_n away from the critical points alpha and 1 (Case 1),
    q_{n+1} inside the width-delta windows below them (Case 2)."""
    U, V, D = loc.U, loc.V, loc.D
    f = floor_scaled(work, i)
    # interval boundaries, times D: alpha - delta, alpha, 1 - delta
    if _frac_lt(work, i, f, -U, D - V, D):
        return loc.ell1
    if _frac_lt(work, i, f, 0, D, D):
        return loc.ell2
    if _frac_lt(work, i, f, D - U, -V, D):
        return loc.ell1
    return loc.ell2


def _certify(alpha: ContinuedFraction, positions: tuple, k: int,
             delta: AffineThreshold,
             check_internal: bool) -> list[AbelianPowerOccurrence]:
    """The kernel behind ``sturmian_powers`` and ``sturmian_power_at``.

    Positions arrive through ``operator.index``, so numpy integers become
    ints, whose exact products never wrap, and a float is refused.
    """
    if k < 1 or min(positions, default=1) < 1:
        raise ValueError("need i >= 1 and k >= 1")
    loc = _locator(alpha, k, delta)
    if not positions:
        return []
    work = _complement(alpha) if loc.flipped else alpha
    periods = [_period_at(work, loc, i) for i in positions]
    end = max([i - 1 + k * ell for i, ell in zip(positions, periods)])
    _check_length(end)
    # verify on the requested slope's word, so block_parikh is in its letters
    symbols = _characteristic_word(alpha, end)
    marks = _characteristic_word(work, end) if loc.flipped else symbols
    out = []
    for i, ell in zip(positions, periods):
        if check_internal and len(
                {marks[i + j * ell - 2] for j in range(1, k + 1)}) > 1:
            raise AssertionError(
                "block-end letters along the progression disagree; "
                "the case classification is inconsistent")
        block = _common_parikh(symbols, 2, i - 1, ell, k)
        if block is None:
            raise AssertionError(
                f"constructed occurrence failed verification at i={i}, k={k}, "
                f"ell={ell}; exact-arithmetic invariant broken")
        out.append(AbelianPowerOccurrence(i - 1, ell, k, block))
    return out


def sturmian_powers(alpha: ContinuedFraction, positions: Iterable[int], k: int,
                    delta: AffineThreshold = DEFAULT_DELTA
                    ) -> list[AbelianPowerOccurrence]:
    """Verified Abelian k-powers at the given 1-based positions of the
    characteristic word of slope alpha, in the order given.

    Fetches the memoized locator of (alpha, k, delta) once, decides every
    period exactly (see :func:`sturmian_power_at`), grows the slope's
    cached characteristic word once to the furthest block end, and
    verifies each certificate on it by counting.
    """
    return _certify(alpha, tuple(map(index, positions)), k, delta, False)


def sturmian_power_at(alpha: ContinuedFraction, i: int, k: int,
                      delta: AffineThreshold = DEFAULT_DELTA,
                      check_internal: bool = False) -> AbelianPowerOccurrence:
    """Verified Abelian k-power at 1-based position i of the characteristic
    word of slope alpha (0-based start i-1 of the certificate).

    Classifies {i*alpha} exactly: away from the critical points alpha and 1
    (Case 1) the period is q_n, inside the width-delta windows below them
    (Case 2) it is q_{n+1}, with n from :func:`sturmian_period_pair`.
    Slopes above 1/2 are handled on the complement, whose characteristic
    word is the letter-exchange of the original; positions and periods
    carry over unchanged.  ``check_internal`` also checks that the working
    slope's word has one letter at every block end.  This is the
    one-position case of :func:`sturmian_powers`.
    """
    return _certify(alpha, (index(i),), k, delta, check_internal)[0]
