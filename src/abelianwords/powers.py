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

The locator works on integers only: delta = u + v*alpha is written once
as (U + V*alpha)/D, every threshold test becomes the sign of c*alpha + e
for integers c, e (``contfrac._sign``), and the period pair is computed
once per (slope, k, delta) and memoized.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from typing import Union

import numpy as np

from .complexity import ParikhVector
from .contfrac import (AffineThreshold, ContinuedFraction, _sign,
                       floor_scaled)
from .words import WordPrefix, characteristic_prefix

__all__ = [
    "AbelianPowerOccurrence",
    "CongoWeights",
    "PeriodPair",
    "WeightsTooSmallError",
    "congo_weights",
    "min_abelian_period",
    "sturmian_period_pair",
    "sturmian_power_at",
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


def _block_parikh(w: WordPrefix, lo: int, ell: int) -> ParikhVector:
    """Parikh vector of w[lo:lo + ell], counted in place."""
    return tuple(w.symbols.count(a, lo, lo + ell)
                 for a in range(w.alphabet_size))


def verify_abelian_power(w: WordPrefix, start: int, ell: int, k: int) -> bool:
    """True iff the k length-ell blocks from ``start`` share one Parikh vector."""
    if ell < 1 or k < 1 or start < 0:
        raise ValueError("need start >= 0, ell >= 1, k >= 1")
    if start + k * ell > len(w):
        raise ValueError(
            f"occurrence [{start}, {start + k * ell}) exceeds prefix length {len(w)}")
    first = _block_parikh(w, start, ell)
    return all(_block_parikh(w, start + j * ell, ell) == first
               for j in range(1, k))


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
    else:
        # exact sums in Python ints; the scan only tests nu values for
        # equality, so each distinct value is renamed to a small int
        sums = accumulate(map(weights.alphas.__getitem__, w.symbols), initial=0)
        names = {}
        nu = np.fromiter((names.setdefault(t % weights.N, len(names))
                          for t in sums), dtype=np.int64, count=L + 1)
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
            if not verify_abelian_power(w, t0, s, k):
                raise WeightsTooSmallError(
                    f"nu-progression at (t0={t0}, s={s}) has non-equivalent "
                    f"blocks: M={weights.M} is below the word's balance constant")
            return AbelianPowerOccurrence(t0, s, k, _block_parikh(w, t0, s))
    return None


@dataclass(frozen=True)
class PeriodPair:
    """The two Abelian periods available at every position of a
    characteristic word, read off consecutive convergent denominators."""

    ell1: int
    ell2: int
    n_even: int


def _integer_form(delta: AffineThreshold) -> tuple[int, int, int]:
    """(U, V, D) with delta = (U + V*alpha)/D and D > 0."""
    bu, bv = delta.u.denominator, delta.v.denominator
    return delta.u.numerator * bv, delta.v.numerator * bu, bu * bv


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
    U, V, D = _integer_form(delta)
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


def _frac_lt(alpha: ContinuedFraction, i: int, f: int,
             tu: int, tv: int, d: int) -> bool:
    """{i*alpha} < (tu + tv*alpha)/d, given f = floor(i*alpha) and d > 0.

    An exact identity (both sides equal algebraically) counts as 'not less'.
    """
    c, e = d * i - tv, -(d * f + tu)
    return not (c == 0 and e == 0) and _sign(alpha, c, e) < 0


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
    carry over unchanged.
    """
    if i < 1 or k < 1:
        raise ValueError("need i >= 1 and k >= 1")
    work = alpha if _sign(alpha, 2, -1) < 0 else _complement(alpha)
    pair = sturmian_period_pair(work, k, delta)
    U, V, D = _integer_form(delta)
    f = floor_scaled(work, i)
    # interval boundaries, times D: alpha - delta, alpha, 1 - delta
    if _frac_lt(work, i, f, -U, D - V, D):
        case1 = True
    elif _frac_lt(work, i, f, 0, D, D):
        case1 = False
    elif _frac_lt(work, i, f, D - U, -V, D):
        case1 = True
    else:
        case1 = False
    ell = pair.ell1 if case1 else pair.ell2
    length = i - 1 + k * ell
    word = characteristic_prefix(alpha, length)
    if check_internal:
        cw = word if work is alpha else characteristic_prefix(work, length)
        marks = {cw.symbols[i + j * ell - 2] for j in range(1, k + 1)}
        if len(marks) > 1:
            raise AssertionError(
                "block-end letters along the progression disagree; "
                "the case classification is inconsistent")
    if not verify_abelian_power(word, i - 1, ell, k):
        raise AssertionError(
            f"constructed occurrence failed verification at i={i}, k={k}, "
            f"ell={ell}; exact-arithmetic invariant broken")
    return AbelianPowerOccurrence(i - 1, ell, k, _block_parikh(word, i - 1, ell))
