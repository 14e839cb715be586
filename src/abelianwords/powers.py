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

The two scans over candidate periods are bounded like the window passes
of ``complexity``: each counts the steps its candidates read (k * ell
symbols per brute-force period, one running-sum position per
progression start and step s) and raises BudgetError instead of reading
a candidate that would take the total past ``complexity._WORK_BOUND``,
so a prefix with no power ends in bounded time while one with an early
power is never refused.

All three verify through one counting core, ``_common_parikh``: it
counts all letters but the last in each block with ``bytes.count``,
stops at the first block that differs, and returns the shared Parikh
vector, which becomes the certificate's ``block_parikh``.

The locator works on integers only: delta = u + v*alpha is read as
(U + V*alpha)/D (``AffineThreshold.form``), and every threshold test is
the sign of {i*alpha} minus such a form (``contfrac._frac_sign``).  What
depends on (slope, k, delta) alone is one memoized locator, which holds
two things: the working slope (the slope itself below 1/2, its
complement above) and the working slope's period pair.  A warm
certificate then costs one floor, at most three signs and one
verification on the requested slope's cached characteristic word.
``sturmian_powers`` certifies many positions with one locator and one
growth of that word; ``sturmian_power_at`` is its one-position case.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from operator import index
from typing import Iterable, NamedTuple, Union

import numpy as np

from . import complexity
from .complexity import ParikhVector
from .contfrac import (AffineThreshold, ContinuedFraction, _frac_sign,
                       _pq_at, _sign, floor_scaled)
from .words import (_MAX_ALPHABET, BudgetError, WordPrefix,
                    _characteristic_word, _check_length)

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


def _charge(work: int, steps: int, search: str) -> int:
    """``work`` plus the ``steps`` of the next candidate, or BudgetError
    where that would pass ``complexity._WORK_BOUND``."""
    work += steps
    if work > complexity._WORK_BOUND:
        raise BudgetError(
            f"{search} would read more than {complexity._WORK_BOUND} "
            f"steps before finding an abelian power or ruling one out")
    return work


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
    inside the prefix.  Each candidate counts k * ell steps, and the scan
    raises BudgetError before its total passes ``complexity._WORK_BOUND``.
    """
    if start < 0 or k < 1:
        raise ValueError("need start >= 0 and k >= 1")
    cap = (len(w) - start) // k
    if ell_max is None:
        ell_max = cap
    work = 0
    for ell in range(1, min(ell_max, cap) + 1):
        work = _charge(work, k * ell, "brute-force period search")
        if verify_abelian_power(w, start, ell, k):
            return ell
    return None


def congo_weights(M: int, r: int) -> CongoWeights:
    """Minimal admissible weights: each is one more than M times the sum of
    the previous ones, and so is the modulus."""
    if M < 1 or not 1 <= r <= _MAX_ALPHABET:
        raise ValueError(f"need M >= 1 and 1 <= r <= {_MAX_ALPHABET}")
    alphas = [1]
    for _ in range(r - 1):
        alphas.append(M * sum(alphas) + 1)
    return CongoWeights(M, r, tuple(alphas), M * sum(alphas) + 1)


@lru_cache(maxsize=4)
def _vdw_residues(symbols: bytes, weights: CongoWeights) -> np.ndarray:
    """nu(t) for t = 0..len(symbols), read-only: the running weight sums
    mod N, renamed to small ints past N*L = 2**63, in the narrowest dtype.
    Memoized per word and weights, which one search per exponent k
    shares; a few entries suffice."""
    L = len(symbols)
    if weights.N * L < 2**63:  # every running sum fits in int64
        table = np.asarray(weights.alphas, dtype=np.int64)
        nu = np.zeros(L + 1, dtype=np.int64)
        np.cumsum(table[np.frombuffer(symbols, dtype=np.uint8)], out=nu[1:])
        nu %= weights.N
        distinct = weights.N
    else:
        # exact sums in Python ints; the scan only tests nu values for
        # equality, so each distinct value is renamed to a small int
        sums = accumulate(map(weights.alphas.__getitem__, symbols), initial=0)
        names = {}
        nu = np.fromiter((names.setdefault(t % weights.N, len(names))
                          for t in sums), dtype=np.int64, count=L + 1)
        distinct = len(names)
    # the scan compares residues for equality only: the narrowest dtype
    # that holds them all does the same work on fewer bytes
    nu = nu.astype(np.min_scalar_type(distinct - 1))
    nu.flags.writeable = False
    return nu


def vdw_power_search(w: WordPrefix, k: int, weights: CongoWeights
                     ) -> Union[AbelianPowerOccurrence, None]:
    """Abelian k-power via a monochromatic progression of running sums.

    Letters are relabeled with the weights, nu(t) = (sum of the first t
    weights) mod N, and the scan looks for the smallest s, then the
    smallest t0, with nu(t0) = nu(t0+s) = ... = nu(t0+ks).  Equal block
    sums mod N force equal Parikh vectors provided M bounds the word's
    balance constant, which the caller guarantees; the occurrence is
    verified before it is returned either way.

    Returns None when no progression fits inside the prefix.  Each step
    s counts the L - k*s + 1 starts it compares, and the scan raises
    BudgetError before its total passes ``complexity._WORK_BOUND``.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if weights.r != w.alphabet_size:
        raise ValueError(
            f"weights cover {weights.r} letters, word uses {w.alphabet_size}")
    L = len(w)
    if L < k:
        return None
    nu = _vdw_residues(w.symbols, weights)
    work = 0
    for s in range(1, L // k + 1):
        width = L - k * s + 1
        work = _charge(work, width, "progression search")
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


def _above_half(alpha: ContinuedFraction) -> bool:
    """alpha >= 1/2, decided exactly."""
    return _sign(alpha, 2, -1) >= 0


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
    if _above_half(alpha):
        raise ValueError("slope must be < 1/2; complement it first")
    return _locator(alpha, k, delta).pair


@lru_cache(maxsize=1024)
def _complement(alpha: ContinuedFraction) -> ContinuedFraction:
    """``alpha.complement()``, one instance per slope, so that its
    convergent cache stays warm across calls."""
    return alpha.complement()


class _Locator(NamedTuple):
    """What a certificate at (slope, k, delta) needs besides its position.

    Every period is decided on the working slope: the slope itself below
    1/2, its complement from ``_complement`` above.  The complement's
    characteristic word is the letter exchange of the original, so
    positions and periods carry over unchanged.
    """

    work: ContinuedFraction
    pair: PeriodPair


@lru_cache(maxsize=1024)
def _locator(alpha: ContinuedFraction, k: int,
             delta: AffineThreshold) -> _Locator:
    work = _complement(alpha) if _above_half(alpha) else alpha
    U, V, D = delta.form
    # 0 < delta < alpha, with delta = (U + V*alpha)/D
    if _sign(work, V, U) <= 0:
        raise ValueError("delta must be positive")
    if _sign(work, V - D, U) >= 0:
        raise ValueError("delta must be < alpha")
    # D * min(delta, alpha - delta) = mu + mv*alpha
    if _sign(work, 2 * V - D, 2 * U) < 0:
        mu, mv = U, V
    else:
        mu, mv = -U, D - V
    n = 0
    while True:
        q_next = _pq_at(work, n + 1)[1]
        if _sign(work, q_next * mv, q_next * mu - k * D) > 0:
            return _Locator(work, PeriodPair(_pq_at(work, n)[1], q_next, n))
        n += 2


def _period_at(loc: _Locator, U: int, V: int, D: int, i: int) -> int:
    """The period of the certificate at 1-based position i, for the
    threshold (U + V*alpha)/D: q_n away from the critical points alpha
    and 1 (Case 1), q_{n+1} inside the width-delta windows below them
    (Case 2)."""
    work, pair = loc
    f = floor_scaled(work, i)
    # interval boundaries, times D: alpha - delta, alpha, 1 - delta
    if _frac_sign(work, i, f, -U, D - V, D) < 0:
        return pair.ell1
    if _frac_sign(work, i, f, 0, D, D) < 0:
        return pair.ell2
    if _frac_sign(work, i, f, D - U, -V, D) < 0:
        return pair.ell1
    return pair.ell2


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
    periods = [_period_at(loc, *delta.form, i) for i in positions]
    end = max([i - 1 + k * ell for i, ell in zip(positions, periods)])
    _check_length(end)
    # verify on the requested slope's word, so block_parikh is in its
    # letters; below 1/2 loc.work may be an equal but distinct instance
    # of alpha (the cache keeps the first one), so compare by value
    symbols = _characteristic_word(alpha, end)
    marks = (_characteristic_word(loc.work, end)
             if check_internal and loc.work != alpha else symbols)
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
