"""Parikh vectors, Abelian/subword complexity profiles, and balance bounds.

All profiles are exact counts over the given finite prefix.  For the
infinite word they are lower bounds: a factor of the prefix is a factor of
the word, but a long enough prefix is needed before every factor of the
word shows up.  Profiles are reported for lengths n = 1..n_max; the empty
length would contribute the constant 1 and is omitted, matching the usual
convention.

Window counting is vectorized: per-letter prefix sums give every window's
Parikh vector as a difference of two slices, so distinct-vector counts per
length cost one pass over the prefix.
"""

from dataclasses import dataclass
from math import comb
from typing import Iterable, Union

import numpy as np

from .words import WordPrefix, _max_letter

__all__ = [
    "ComplexityProfile",
    "abelian_equivalent",
    "abelian_profile",
    "balance_bound",
    "balance_per_length",
    "max_abelian_complexity",
    "parikh",
    "parikh_classes",
    "profile",
    "subword_profile",
]

ParikhVector = tuple[int, ...]

Wordlike = Union[WordPrefix, bytes, bytearray, str, Iterable[int]]


def _coerce(word: Wordlike, alphabet_size=None) -> tuple[bytes, int]:
    """Normalize a word argument to (symbols, alphabet_size)."""
    if isinstance(word, WordPrefix):
        symbols, p = word.symbols, word.alphabet_size
    else:
        if isinstance(word, str):
            symbols = bytes(int(c) for c in word)
        else:
            symbols = bytes(word)
        p = max(_max_letter(symbols) + 1, 1)
    if alphabet_size is not None:
        if _max_letter(symbols) >= alphabet_size:
            raise ValueError("symbol out of range for requested alphabet")
        p = alphabet_size
    return symbols, p


def parikh(word: Wordlike, alphabet_size=None) -> ParikhVector:
    """Occurrence counts (|w|_0, ..., |w|_{p-1})."""
    symbols, p = _coerce(word, alphabet_size)
    return tuple(symbols.count(a) for a in range(p))


def abelian_equivalent(u: Wordlike, v: Wordlike, alphabet_size=None) -> bool:
    """True when u and v have identical letter counts."""
    su, pu = _coerce(u, alphabet_size)
    sv, pv = _coerce(v, alphabet_size)
    p = max(pu, pv)
    return parikh(su, p) == parikh(sv, p)


def _cum_counts(symbols: bytes, p: int) -> np.ndarray:
    """cum[a, i] = occurrences of letter a in symbols[:i]; shape (p, L+1)."""
    arr = np.frombuffer(symbols, dtype=np.uint8)
    cum = np.zeros((p, len(symbols) + 1), dtype=np.int64)
    for a in range(p):
        np.cumsum(arr == a, out=cum[a, 1:])
    return cum


def _require_range(n_max: int, length: int, n_min: int = 1):
    if not 1 <= n_min <= n_max <= length:
        raise ValueError(
            f"window lengths must satisfy 1 <= {n_min} <= {n_max} <= {length}")


def abelian_profile(w: Wordlike, n_max: int, n_min: int = 1) -> list[int]:
    """Number of distinct Parikh vectors among length-n windows, n = n_min..n_max.

    Sliding a window one step changes each letter count by at most one, so
    for a binary word the counts of a letter sweep a full integer interval
    and the distinct-vector count is max - min + 1.  Larger alphabets
    deduplicate the (encoded) count tuples per length.
    """
    symbols, p = _coerce(w)
    L = len(symbols)
    _require_range(n_max, L, n_min)
    cum = _cum_counts(symbols, p)
    if p <= 2:
        return (_spreads(cum[p - 1], n_min, n_max) + 1).tolist()
    return [len(_distinct_codes(cum, n, L, p - 1))
            for n in range(n_min, n_max + 1)]


def _spreads(cum_row: np.ndarray, n_min: int, n_max: int) -> np.ndarray:
    """max - min of one letter's count over the length-n windows,
    n = n_min..n_max; ``cum_row`` is that letter's row of _cum_counts."""
    L = len(cum_row) - 1
    row = cum_row.astype(_count_dtype(L))
    window = np.empty(L, dtype=row.dtype)
    out = np.empty(n_max - n_min + 1, dtype=np.int64)
    for i, n in enumerate(range(n_min, n_max + 1)):
        d = np.subtract(row[n:], row[:L - n + 1], out=window[:L - n + 1])
        out[i] = d.max() - d.min()
    return out


def _count_dtype(L: int):
    """The narrowest of int32/int64 holding every value 0..L+1."""
    return np.int32 if L < 2**31 - 2 else np.int64


def _distinct_codes(cum: np.ndarray, n: int, L: int, rows: int) -> np.ndarray:
    """Distinct encodings of the first ``rows`` counts over length-n windows."""
    base = n + 1
    if base ** rows >= 2**63:
        raise OverflowError("alphabet too large for packed window encoding")
    code = cum[0, n:] - cum[0, :L - n + 1]
    for a in range(1, rows):
        code = code * base + (cum[a, n:] - cum[a, :L - n + 1])
    return np.unique(code)


def parikh_classes(w: Wordlike, n: int) -> set[ParikhVector]:
    """The exact set of Parikh vectors of the length-n windows."""
    symbols, p = _coerce(w)
    L = len(symbols)
    _require_range(n, L)
    cum = _cum_counts(symbols, p)
    codes = _distinct_codes(cum, n, L, p)
    base = n + 1
    classes = set()
    for code in codes.tolist():
        vec = []
        for _ in range(p):
            vec.append(code % base)
            code //= base
        classes.add(tuple(reversed(vec)))
    return classes


def subword_profile(w: Wordlike, n_max: int, n_min: int = 1) -> list[int]:
    """Number of distinct length-n factors, n = n_min..n_max.

    One suffix sort serves every n.  Rank levels for window lengths 2^j,
    j = 0..J with 2^J >= n_max, are built by doubling (each window is
    ranked by its two half-windows, a past-the-end sentinel ranking below
    every letter).  The positions are sorted once by their level-J rank,
    and each adjacent pair's longest common prefix, capped at n_max, is
    found by binary lifting over the same levels.  A sorted position with
    LCP ``l`` to its predecessor and ``m`` symbols left begins a new
    length-n factor exactly for n in (l, min(m, n_max)], so one difference
    array gives every count.  Exact: equal ranks mean equal windows, no
    hashing involved.
    """
    symbols, _ = _coerce(w)
    L = len(symbols)
    _require_range(n_max, L, n_min)
    levels = _rank_levels(symbols, (n_max - 1).bit_length())
    order = np.argsort(levels[-1][:L], kind="stable")
    a, b = order[:-1], order[1:]
    lcp = np.zeros(L - 1, dtype=np.int64)
    for j in range(len(levels) - 1, -1, -1):
        lev = levels[j]
        lcp += (lev[a + lcp] == lev[b + lcp]).astype(np.int64) << j
    lo = np.concatenate(([0], np.minimum(lcp, n_max)))
    hi = np.minimum(L - order, n_max)
    starts = (np.bincount(lo + 1, minlength=n_max + 2)
              - np.bincount(hi + 1, minlength=n_max + 2))
    return np.cumsum(starts)[n_min:n_max + 1].tolist()


def _rank_levels(symbols: bytes, top: int) -> list[np.ndarray]:
    """Order-preserving ranks of every window of length 2^j, j = 0..top.

    ``levels[j][i]`` ranks the window of length 2^j at position i, padded
    past the end with a sentinel below every letter; index L holds the
    sentinel rank 0 itself, and every real window ranks >= 1.  Two
    windows get the same rank exactly when they are equal, and a padded
    window equals no window at another position.
    """
    L = len(symbols)
    dtype = _count_dtype(L)
    lev = np.zeros(L + 1, dtype=dtype)
    lev[:L] = np.frombuffer(symbols, dtype=np.uint8)
    lev[:L] += 1
    levels = [lev]
    for j in range(1, top + 1):
        half = 1 << (j - 1)
        shifted = np.zeros(L, dtype=np.int64)
        shifted[:L - half] = lev[half:L]
        codes = lev[:L].astype(np.int64) * (int(lev.max()) + 1) + shifted
        _, inv = np.unique(codes, return_inverse=True)
        lev = np.zeros(L + 1, dtype=dtype)
        lev[:L] = inv.reshape(-1)
        lev[:L] += 1
        levels.append(lev)
    return levels


def balance_per_length(w: Wordlike, n_max: int, n_min: int = 1) -> list[int]:
    """For each n, the largest per-letter count spread over length-n windows."""
    symbols, p = _coerce(w)
    L = len(symbols)
    _require_range(n_max, L, n_min)
    cum = _cum_counts(symbols, p)
    return np.max([_spreads(row, n_min, n_max) for row in cum], axis=0).tolist()


def balance_bound(w: Wordlike, n_max: int) -> int:
    """Minimal C such that the prefix is C-balanced at window lengths <= n_max."""
    return max(balance_per_length(w, n_max))


def max_abelian_complexity(n: int, k: int) -> int:
    """Compositions of n into k non-negative parts: the ceiling no Abelian
    complexity over a k-letter alphabet can exceed at length n."""
    if n < 0 or k < 1:
        raise ValueError("need n >= 0 and k >= 1")
    return comb(n + k - 1, k - 1)


@dataclass(frozen=True)
class ComplexityProfile:
    """Exact complexity data of one prefix for lengths 1..n_max."""

    n_max: int
    prefix_len: int
    rho_ab: tuple[int, ...]
    rho: Union[tuple[int, ...], None]
    balance_running: tuple[int, ...]

    @property
    def balance(self) -> int:
        """Minimal observed balance constant over the checked range."""
        return self.balance_running[-1]


def profile(w: Wordlike, n_max: int, include_subword: bool = True) -> ComplexityProfile:
    """Assemble the Abelian profile, optional subword profile, and running
    balance of one prefix.

    A binary word's Abelian complexity at length n is its balance at n
    plus one (both letters' counts sweep the same interval), so for
    p <= 2 one spread per length gives both.
    """
    symbols, p = _coerce(w)
    _require_range(n_max, len(symbols))
    if p <= 2:
        spread = _spreads(_cum_counts(symbols, p)[p - 1], 1, n_max)
        rho_ab, per_length = (spread + 1).tolist(), spread
    else:
        rho_ab = abelian_profile(w, n_max)
        per_length = balance_per_length(w, n_max)
    rho = subword_profile(w, n_max) if include_subword else None
    running = np.maximum.accumulate(per_length)
    return ComplexityProfile(
        n_max=n_max,
        prefix_len=len(symbols),
        rho_ab=tuple(rho_ab),
        rho=tuple(rho) if rho is not None else None,
        balance_running=tuple(int(x) for x in running),
    )
