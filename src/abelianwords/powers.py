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

The progression scan starts at step s = M + 1: a block of s letters has
a weight sum between 1 and s times the largest weight, and M times the
largest weight is below N, so no step s <= M closes a progression.  The
scan holds the running sums mod N in the narrowest dtype (one byte per
symbol up to N = 256), built block by block in a fixed int32 scratch
(int64 for N past 2**31 / (block + 1)), plus two boolean buffers of
2^18 starts it compares into, one block of starts at a time: one byte
per symbol up to N = 256, whatever the step.

All three verify through one counting core, ``_common_parikh``: it
counts all letters but the last in each block with ``bytes.count``,
stops at the first block that differs, and returns the shared Parikh
vector, which becomes the certificate's ``block_parikh``.

The paper's construction works for any threshold 0 < delta < alpha;
the locator fixes it at delta = alpha/2 and works on integers only:
every threshold test is the sign of {i*alpha} minus alpha/2, alpha or
1 - alpha/2.  What depends on (slope, k) alone is one memoized locator,
which holds the working slope (the slope itself below 1/2, its
complement above), the working slope's period pair, and one convergent
p/q deep enough that at every position the symbol budget admits,
floor(i*alpha) = (i*p)//q and each threshold test is the sign of one
integer product.  A warm certificate then costs one multiplication, one
division and three comparisons, plus one verification on the requested
slope's cached characteristic word; only a product of 0 (the identity
{1*alpha} = alpha, or a rare multiple of q) or a position past the
convergent's reach walks the sandwich (``contfrac._frac_sign``).
``sturmian_powers`` certifies many positions with one locator and one
growth of that word; ``sturmian_power_at`` is its one-position case.
"""

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from operator import index
from typing import Iterable, NamedTuple, Union

import numpy as np

from . import complexity, words
from .complexity import ParikhVector
from .contfrac import (ContinuedFraction, _frac_sign, _pq_at, _sign,
                       floor_scaled)
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


def min_abelian_period(w: WordPrefix, start: int, k: int) -> Union[int, None]:
    """Smallest ell making an Abelian k-power at ``start``.

    Brute-force oracle: scans ell = 1, 2, ...; None when no candidate fits
    inside the prefix.  Each candidate counts k * ell steps, and the scan
    raises BudgetError before its total passes ``complexity._WORK_BOUND``.
    """
    if start < 0 or k < 1:
        raise ValueError("need start >= 0 and k >= 1")
    work = 0
    for ell in range(1, (len(w) - start) // k + 1):
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


# symbols per block of the running weight sums in ``_vdw_residues``: the
# scratch is this long whatever the prefix length
_RESIDUE_BLOCK = 1 << 16
# starts per block of the progression scan: its two boolean buffers are
# this long (256 KiB, which stays in cache) whatever the prefix length
_SCAN_BLOCK = 1 << 18


@lru_cache(maxsize=4)
def _vdw_residues(symbols: bytes, weights: CongoWeights) -> np.ndarray:
    """nu(t) for t = 0..len(symbols), read-only: the running weight sums
    mod N, renamed to small ints past N * (block + 1) = 2**63, in the
    narrowest dtype.  Memoized per word and weights, which one search per
    exponent k shares; a few entries suffice.

    Below that bound the sums are taken ``_RESIDUE_BLOCK`` symbols at a
    time in one scratch, each block carrying the last residue of the one
    before, so nothing wider than the output grows with the word.  A
    block's sums plus carry stay below N * (block + 1), so the scratch
    and the weight table are int32 while that is below 2**31 and int64
    above.
    """
    L = len(symbols)
    N = weights.N
    bound = N * (_RESIDUE_BLOCK + 1)  # above every block sum plus carry
    if bound < 2**63:
        wide = np.int32 if bound < 2**31 else np.int64
        table = np.asarray(weights.alphas, dtype=wide) % N
        letters = np.frombuffer(symbols, dtype=np.uint8)
        nu = np.empty(L + 1, dtype=np.min_scalar_type(N - 1))
        nu[0] = carry = 0
        scratch = np.empty(min(L, _RESIDUE_BLOCK), dtype=wide)
        for lo in range(0, L, _RESIDUE_BLOCK):
            block = scratch[:min(_RESIDUE_BLOCK, L - lo)]
            # "clip" gathers straight into ``out``; every letter is < r
            np.take(table, letters[lo:lo + block.size], out=block, mode="clip")
            np.cumsum(block, dtype=wide, out=block)
            block += carry
            block %= N
            nu[lo + 1:lo + 1 + block.size] = block
            carry = int(block[-1])
    else:
        # exact sums in Python ints; the scan only tests nu values for
        # equality, so each distinct value is renamed to a small int,
        # at most L + 1 of them
        sums = accumulate(map(weights.alphas.__getitem__, symbols), initial=0)
        names = {}
        nu = np.fromiter((names.setdefault(t % N, len(names)) for t in sums),
                         dtype=np.min_scalar_type(L), count=L + 1)
        # the scan compares residues for equality only: the narrowest
        # dtype that holds them all does the same work on fewer bytes
        nu = nu.astype(np.min_scalar_type(len(names) - 1), copy=False)
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

    The scan starts at s = M + 1, which is exact: every weight is at least
    1 and N = M * sum(alphas) + 1 > M * max(alphas), so a block of length
    s has a weight sum in [1, s * max(alphas)], a multiple of N only when
    s > M.  A prefix with L // k <= M holds no such step, and the search
    returns None before it builds the residues.

    Memory: the residues (one byte per symbol up to N = 256) and two
    boolean buffers of ``_SCAN_BLOCK`` starts the scan compares into, one
    block of starts at a time.

    Returns None when no progression fits inside the prefix.  Each step
    s > M counts the L - k*s + 1 starts it compares, and the scan raises
    BudgetError before its total passes ``complexity._WORK_BOUND``.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if weights.r != w.alphabet_size:
        raise ValueError(
            f"weights cover {weights.r} letters, word uses {w.alphabet_size}")
    L = len(w)
    if L // k <= weights.M:  # no step s > M fits (see above)
        return None
    nu = _vdw_residues(w.symbols, weights)
    hits = np.empty(min(L, _SCAN_BLOCK), dtype=bool)
    equal = np.empty_like(hits)
    work = 0
    for s in range(weights.M + 1, L // k + 1):
        width = L - k * s + 1
        work = _charge(work, width, "progression search")
        # the starts one block at a time, in order: the first block with
        # a hit holds the least t0 of this step
        for lo in range(0, width, _SCAN_BLOCK):
            n = min(_SCAN_BLOCK, width - lo)
            ok, eq, first = hits[:n], equal[:n], nu[lo:lo + n]
            np.equal(first, nu[lo + s:lo + s + n], out=ok)
            for j in range(2, k + 1):
                if not ok.any():
                    break
                ok &= np.equal(nu[lo + j * s:lo + j * s + n], first, out=eq)
            hit = int(ok.argmax())  # the first True, or 0 when there is none
            if ok[hit]:
                t0 = lo + hit
                block = _common_parikh(w.symbols, w.alphabet_size, t0, s, k)
                if block is None:
                    raise WeightsTooSmallError(
                        f"nu-progression at (t0={t0}, s={s}) has "
                        f"non-equivalent blocks: M={weights.M} is below the "
                        f"word's balance constant")
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


def sturmian_period_pair(alpha: ContinuedFraction, k: int) -> PeriodPair:
    """Smallest even n with q_{n+1} * alpha/2 > k, and the period pair
    (q_n, q_{n+1}) it yields.

    Requires 0 < alpha < 1/2; complement the slope first otherwise.  The
    threshold is delta = alpha/2, so min(delta, alpha - delta) = alpha/2
    and the defining inequality is decided exactly.  The result is
    memoized per (alpha, k); both are immutable values.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if _above_half(alpha):
        raise ValueError("slope must be < 1/2; complement it first")
    return _locator(alpha, k).pair


class _Locator(NamedTuple):
    """What a certificate at (slope, k) needs besides its position.

    Every period is decided on the working slope: the slope itself below
    1/2, its complement above, built once per locator.  The complement's
    characteristic word is the letter exchange of the original, so
    positions and periods carry over unchanged.

    p/q is the working slope's convergent p_m/q_m for the first even m
    whose ``reach`` covers ``words.DEFAULT_SYMBOL_BUDGET`` (a finite
    expansion stops at its deepest even m whose convergent m + 1 it
    holds).  At every position i <= reach, q > i, so floor(i*alpha) =
    (i*p)//q with remainder r = i*p - f*q >= 1: gcd(p, q) = 1 and
    0 < i < q give 1 <= r <= q - 1, and i*alpha is within i/(q*q_{m+1})
    < 1/q of i*p/q = f + r/q.  Each threshold test is c*alpha + e for
    integers c and e, read at p/q as the product c*p + e*q:

    * 2*({i*alpha} - alpha/2) = (2i - 1)*alpha - 2f, read as 2r - p;
    * {i*alpha} - alpha = (i - 1)*alpha - f, read as r - p;
    * 2*({i*alpha} - (1 - alpha/2)) = (2i + 1)*alpha - 2f - 2, read as
      2(r - q) + p.

    All three have |c| <= 2i + 1 < q_{m+1}, so c*alpha + e and c*p/q + e
    differ by less than |c|/(q*q_{m+1}) < 1/q, while a non-zero
    c*p + e*q is at least 1/q away from 0 once divided by q: the
    product's sign is exact.  It is also the sign the ``contfrac._sign``
    walk returns, reaching at most convergent m + 1, so a finite
    expansion runs out nowhere the walk would not.  A product of 0 (the
    identity {1*alpha} = alpha, or c a multiple of q) decides nothing
    and is left to ``_frac_sign``.
    """

    work: ContinuedFraction
    pair: PeriodPair
    p: int
    q: int
    reach: int


@lru_cache(maxsize=1024)
def _locator(alpha: ContinuedFraction, k: int) -> _Locator:
    work = alpha.complement() if _above_half(alpha) else alpha
    n = 0
    while True:
        q_next = _pq_at(work, n + 1)[1]
        if _sign(work, q_next, -2 * k) > 0:  # q_{n+1} * alpha/2 > k
            break
        n += 2
    pair = PeriodPair(_pq_at(work, n)[1], q_next, n)
    # the first even m whose reach covers the budget; a finite expansion
    # stops where the next step's convergent m + 3 would need a term it
    # lacks
    m = 0
    while True:
        p, q = _pq_at(work, m)
        reach = min(q - 1, (_pq_at(work, m + 1)[1] - 2) // 2)
        if reach >= words.DEFAULT_SYMBOL_BUDGET or (
                not work.is_unbounded and m + 3 > len(work.preperiod)):
            break
        m += 2
    return _Locator(work, pair, p, q, reach)


def _certify(alpha: ContinuedFraction, positions: tuple,
             k: int) -> list[AbelianPowerOccurrence]:
    """The kernel behind ``sturmian_powers`` and ``sturmian_power_at``.

    One pass classifies every position and tracks the furthest block
    end: within the locator's reach each threshold test is the sign of
    one product read off its convergent (see ``_Locator``); a product of
    0, and every test past the reach, goes to the exact walk
    (``floor_scaled``, ``_frac_sign``).  Then the requested slope's word
    grows once and every certificate is verified on it by counting.

    Positions arrive through ``operator.index``, so numpy integers become
    ints, whose exact products never wrap, and a float is refused.
    """
    if k < 1 or min(positions, default=1) < 1:
        raise ValueError("need i >= 1 and k >= 1")
    work, pair, p, q, reach = _locator(alpha, k)
    if not positions:
        return []
    ell1, ell2 = pair.ell1, pair.ell2
    periods = []
    end = 0
    for i in positions:
        if i <= reach:
            f, r = divmod(i * p, q)
            s1, s2, s3 = 2 * r - p, r - p, 2 * (r - q) + p
        else:  # past the reach, every test walks
            f, s1, s2, s3 = floor_scaled(work, i), 0, 0, 0
        # {i*alpha} against alpha/2, alpha and 1 - alpha/2: q_n away
        # from the critical points alpha and 1 (Case 1), q_{n+1} inside
        # the width-alpha/2 windows below them (Case 2)
        if (s1 or _frac_sign(work, i, f, 0, 1, 2)) < 0:
            ell = ell1
        elif (s2 or _frac_sign(work, i, f, 0, 1, 1)) < 0:
            ell = ell2
        elif (s3 or _frac_sign(work, i, f, 2, -1, 2)) < 0:
            ell = ell1
        else:
            ell = ell2
        periods.append(ell)
        if i - 1 + k * ell > end:
            end = i - 1 + k * ell
    _check_length(end)
    # verify on the requested slope's word, so block_parikh is in its
    # letters
    symbols = _characteristic_word(alpha, end)
    out = []
    for i, ell in zip(positions, periods):
        # the cache is a read-only view; its k blocks are copied out to
        # count in them
        block = _common_parikh(bytes(symbols[i - 1:i - 1 + k * ell]), 2, 0,
                               ell, k)
        if block is None:
            raise AssertionError(
                f"constructed occurrence failed verification at i={i}, k={k}, "
                f"ell={ell}; exact-arithmetic invariant broken")
        out.append(AbelianPowerOccurrence(i - 1, ell, k, block))
    return out


def sturmian_powers(alpha: ContinuedFraction, positions: Iterable[int],
                    k: int) -> list[AbelianPowerOccurrence]:
    """Verified Abelian k-powers at the given 1-based positions of the
    characteristic word of slope alpha, in the order given.

    Fetches the memoized locator of (alpha, k) once, decides every
    period exactly off its convergent (see :func:`sturmian_power_at`),
    grows the slope's cached characteristic word once to the furthest
    block end, and verifies each certificate on it by counting.
    """
    return _certify(alpha, tuple(map(index, positions)), k)


def sturmian_power_at(alpha: ContinuedFraction, i: int,
                      k: int) -> AbelianPowerOccurrence:
    """Verified Abelian k-power at 1-based position i of the characteristic
    word of slope alpha (0-based start i-1 of the certificate).

    Classifies {i*alpha} exactly against the threshold delta = alpha/2:
    away from the critical points alpha and 1 (Case 1) the period is
    q_n, inside the width-alpha/2 windows below them (Case 2) it is
    q_{n+1}, with n from :func:`sturmian_period_pair`.
    Within the symbol budget, floor(i*alpha) and the three threshold
    signs are read off one cached convergent p/q as (i*p)//q and three
    integer products; a product of 0 (an algebraic identity, as at i = 1)
    and a position past the convergent's reach (past the budget, or past
    what a finite expansion holds) are decided by the exact sandwich walk,
    so a finite expansion raises InsufficientPrecisionError exactly where
    the walk runs out.  Slopes above 1/2 are decided on the complement,
    whose characteristic word is the letter exchange of the original, so
    positions and periods carry over unchanged; only the requested
    slope's word is built, and the certificate is verified on it by
    counting before it is returned.
    This is the one-position case of :func:`sturmian_powers`.
    """
    return _certify(alpha, (index(i),), k)[0]
