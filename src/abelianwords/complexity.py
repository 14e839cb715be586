"""Parikh vectors, Abelian/subword complexity profiles, and balance bounds.

All profiles are exact counts over the given finite prefix.  For the
infinite word they are lower bounds: a factor of the prefix is a factor of
the word, but a long enough prefix is needed before every factor of the
word shows up.  Profiles are reported for lengths n = 1..n_max; the empty
length would contribute the constant 1 and is omitted, matching the usual
convention.

Abelian complexity, balance and Parikh classes all read one window pass:
prefix sums built once per word give each length-n window's letter counts,
and each letter's minimum and radix (max - min + 1) over those windows.
On words of p >= 3 letters, ``abelian_profile``, ``balance_per_length``
and ``profile`` read one window per distinct top-level window of the
subword kernel's rank levels (length 2^top >= n_max) while those number
at most L/8; binary words, single lengths (``parikh_classes``) and words
with more distinct windows read every window.  Both passes see the same
Parikh vectors, so the results are the same (see ``_window_stats``).

A window pass or subword pass over more than 2^32 window steps (prefix
length times the number of window lengths, whichever windows it reads)
raises BudgetError before it allocates anything.
"""

from collections import namedtuple
from dataclasses import dataclass
from math import comb
from typing import Iterable, Union

import numpy as np

from .words import (DEFAULT_SYMBOL_BUDGET, BudgetError, WordPrefix,
                    _check_alphabet, _max_letter, _parse_digits)

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

# class codes are counted by marking flags while the code space is at most
# this many times the window count, and by sorting beyond it
_FLAG_SPACE = 4

# the most window steps, prefix length times the number of window lengths,
# one window pass or subword pass may take
_WORK_BOUND = DEFAULT_SYMBOL_BUDGET * 64


def _coerce(word: Wordlike, alphabet_size=None) -> tuple[bytes, int]:
    """Normalize a word argument to (symbols, alphabet_size)."""
    if isinstance(word, WordPrefix):
        symbols, p = word.symbols, word.alphabet_size
    else:
        symbols = _parse_digits(word) if isinstance(word, str) else bytes(word)
        p = max(_max_letter(symbols) + 1, 1)
    if alphabet_size is not None:
        _check_alphabet(alphabet_size, symbols)
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


def _require_range(n_max: int, length: int, n_min: int = 1):
    """Refuse a window range outside the word, and a pass whose work
    passes ``_WORK_BOUND``, before anything is allocated."""
    if not 1 <= n_min <= n_max <= length:
        raise ValueError(
            f"window lengths must satisfy 1 <= {n_min} <= {n_max} <= {length}")
    lengths = n_max - n_min + 1
    if length * lengths > _WORK_BOUND:
        raise BudgetError(
            f"{lengths} window lengths over {length} symbols is "
            f"{length * lengths} window steps, bound is {_WORK_BOUND}")


def _checked(w: Wordlike, n_max: int, n_min: int = 1) -> tuple[bytes, int]:
    """``w`` as (symbols, alphabet_size), its window range checked by
    ``_require_range``."""
    symbols, p = _coerce(w)
    _require_range(n_max, len(symbols), n_min)
    return symbols, p


def _window_positions(symbols: bytes, p: int, n_max: int, n_min: int,
                      top_level=None):
    """Sorted positions of one window per distinct top-level window, for
    the window pass to read instead of every position, or None where it
    keeps the contiguous pass.

    The top level is j = (n_max - 1).bit_length(), so 2^j >= n_max.  The
    positions are used only for p >= 3 letters and more than one window
    length, and only while the top level has R <= L/8 distinct windows:
    below three letters, for a single length, or with many distinct
    windows, the gathers cost more than the contiguous slices they save.
    R only grows from level to level, so the doubling stops as soon as it
    passes L/8, and only the last level is kept; before it,
    ``_many_windows`` turns away most words with R near L for a fraction
    of the doubling's cost.  ``top_level`` is level j and its R where the
    caller has built them.
    """
    if p < 3 or n_min == n_max:
        return None
    L = len(symbols)
    if top_level:
        levels = [top_level]
    elif _many_windows(symbols, p, _top(n_max)):
        return None
    else:
        levels = _doubled_ranks(symbols, _top(n_max))
    for lev, R in levels:
        if 8 * R > L:
            return None
    return np.sort(_representatives(lev, R, L))


def _many_windows(symbols: bytes, p: int, top: int) -> bool:
    """True when more than L/8 distinct windows of one length m <= 2^top
    start in the first L/4 positions, so that the top level has R > L/8:
    windows differing in their first m symbols differ at the top level.
    m is the longest with p^m <= ``_FLAG_SPACE`` * L, and the windows are
    told apart by marking their base-p codes.  False says nothing.  As
    p >= 3, m <= log_3(4L) <= 3L/4 + 1, so every window read fits."""
    L = len(symbols)
    m, space = 0, 1
    while m < 1 << top and space * p <= _FLAG_SPACE * L:
        m, space = m + 1, space * p
    if 8 * space <= L:
        return False
    k = L // 4
    arr = np.frombuffer(symbols, dtype=np.uint8)
    code = np.zeros(k, dtype=np.min_scalar_type(space))
    for i in range(m):
        code *= p
        code += arr[i:i + k]
    seen = np.zeros(space, dtype=bool)
    seen[code] = True
    return 8 * int(np.count_nonzero(seen)) > L


def _window_stats(symbols: bytes, p: int, n_max: int, n_min: int = 1,
                  positions=None):
    """The window pass over a range-checked word: yields
    ``(counts, lo, radix, scratch)`` for n = n_min..n_max.

    Those are the tracked letters' counts in each length-n window (one
    reused buffer), their minima, their radices, and the scratch buffers
    the class count works in.  A binary word's two counts sum to n and
    share one radix, so for p <= 2 only the last letter is tracked.  The
    sums wrap in the narrowest unsigned dtype holding n_max + 1, which
    leaves every window's count, a difference of two sums, exact.

    Without ``positions`` every window is read, as contiguous slices of
    the prefix sums.  With sorted ``positions`` from ``_window_positions``
    only the windows there are read: at length n those at positions
    <= L - n.  Each letter's sums are gathered row by row into C-contiguous
    blocks, one row per length and about L windows per block: per-row
    minima and maxima are slow on the column-ordered array a 2-D fancy
    index returns, and on a Hubert prefix, with some 1,500 windows per
    length, one gather per length instead took 1.1 to 2.4 times as long.
    That is exact.  Two positions with one top-level rank have equal
    windows of every length <= n_max, and a window running past the end
    of the prefix at the top level equals no other, so it is its own
    representative.  The windows read at each n thus carry every Parikh
    vector of the length-n windows, and per-letter minima and maxima
    are unchanged.
    """
    L = len(symbols)
    arr = np.frombuffer(symbols, dtype=np.uint8)
    letters = range(p) if p > 2 else [p - 1]
    cum = np.zeros((len(letters), L + 1), dtype=np.min_scalar_type(n_max + 1))
    for row, a in zip(cum, letters):
        np.cumsum(arr == a, dtype=cum.dtype, out=row[1:])
    width = L if positions is None else len(positions)
    # allocated once per pass; pages no step touches are never faulted in
    scratch = _Scratch(np.empty(width, dtype=np.int64),
                       np.empty(_FLAG_SPACE * width, dtype=bool))
    if positions is None:
        buf = np.empty((len(letters), L), dtype=cum.dtype)
        for n in range(n_min, n_max + 1):
            k = L - n + 1
            counts = np.subtract(cum[:, n:], cum[:, :k], out=buf[:, :k])
            lo = counts.min(axis=1)
            yield counts, lo, counts.max(axis=1) - lo + 1, scratch
        return
    # lengths are gathered a batch at a time, one row of a (batch, k)
    # block per length, so each numpy call covers about L windows
    batch = max(1, L // width)
    lengths = np.arange(n_min, n_max + 1)
    fits = np.searchsorted(positions, L - lengths, side="right").tolist()
    at, ends = np.empty((2, batch * width), dtype=np.int64)
    starts = np.empty(batch * width, dtype=cum.dtype)
    flat = np.empty(len(letters) * batch * width, dtype=cum.dtype)
    for i in range(0, len(lengths), batch):
        ns = lengths[i:i + batch, None]
        k = fits[i]  # the windows read at the first length of the batch
        shape = (len(ns), k)
        block = at[:ns.size * k].reshape(shape)
        block[:] = positions[:k]
        # a window that does not fit at a longer length of the batch is
        # read as the window at 0 instead, whose vector is counted anyway
        for row, fit in zip(block, fits[i:i + batch]):
            row[fit:] = 0
        end = np.add(block, ns, out=ends[:block.size].reshape(shape))
        start = starts[:block.size].reshape(shape)
        counts = flat[:len(letters) * block.size].reshape((-1,) + shape)
        for row, out in zip(cum, counts):
            np.take(row, end, out=out, mode="clip")
            np.take(row, block, out=start, mode="clip")
            out -= start
        lo = counts.min(axis=2)
        radix = counts.max(axis=2) - lo + 1
        for j in range(len(ns)):
            yield counts[:, j], lo[:, j], radix[:, j], scratch


def _pass(w: Wordlike, n_max: int, n_min: int = 1):
    """``(p, stats)``: the window pass over ``w``, reading the positions
    ``_window_positions`` picks."""
    symbols, p = _checked(w, n_max, n_min)
    positions = _window_positions(symbols, p, n_max, n_min)
    return p, _window_stats(symbols, p, n_max, n_min, positions)


# ``codes`` holds one int64 class code per window, ``flags`` one bool per
# code of a code space counted by marking (at least one per window)
_Scratch = namedtuple("_Scratch", "codes flags")


def _class_codes(counts, lo, radix, scratch) -> tuple[np.ndarray, int]:
    """Per-window int64 codes, written into ``scratch.codes`` and equal
    exactly when the Parikh vectors are, and the size of their code space:
    the counts, offset by their minima, in mixed radix.  Of several rows
    the last (n minus the rest) is left out; the code is compacted to
    dense ranks before it would pass int64."""
    code = scratch.codes[:counts.shape[1]]
    np.subtract(counts[0], lo[0], out=code)
    space = int(radix[0])
    for a in range(1, max(len(counts) - 1, 1)):
        r = int(radix[a])
        if space * r > 2**63:
            ranks, code[:] = np.unique(code, return_inverse=True)
            space = len(ranks)
        # every partial value lies in (-lo[a], space * r), inside int64
        code *= r
        code -= int(lo[a])
        code += counts[a]
        space *= r
    return code, space


def _class_count(counts, lo, radix, scratch) -> int:
    """Distinct Parikh vectors among the windows of one step of the pass.

    A code space at most ``_FLAG_SPACE`` times the window count is
    counted by marking each code in ``scratch.flags``; a larger one by
    sorting the codes in place and counting where neighbours differ."""
    if len(counts) == 1:
        return int(radix[0])
    code, space = _class_codes(counts, lo, radix, scratch)
    if space <= _FLAG_SPACE * code.size:
        seen = scratch.flags[:space]
        seen[:] = False
        seen[code] = True
        return int(np.count_nonzero(seen))
    code.sort()
    differs = np.not_equal(code[1:], code[:-1], out=scratch.flags[:code.size - 1])
    return 1 + int(np.count_nonzero(differs))


def abelian_profile(w: Wordlike, n_max: int, n_min: int = 1) -> list[int]:
    """Number of distinct Parikh vectors among length-n windows, n = n_min..n_max.

    Read off the window pass.  A count moves by at most one per slide, so
    a single tracked count (p <= 2) takes every value in its range and the
    class count is its radix.  For p >= 3 the class codes are counted by
    marking a flag per code while their space is a small multiple of the
    window count, and by an in-place sort beyond it.  Over several lengths
    with at most L/8 distinct top-level windows, the pass reads one window
    per distinct top-level window only (``_window_positions``).
    """
    _, stats = _pass(w, n_max, n_min)
    return [_class_count(*step) for step in stats]


def parikh_classes(w: Wordlike, n: int) -> set[ParikhVector]:
    """The exact set of Parikh vectors of the length-n windows, each read
    off the first window of its class."""
    p, stats = _pass(w, n, n)
    counts, lo, radix, scratch = next(stats)
    code, _ = _class_codes(counts, lo, radix, scratch)
    _, first = np.unique(code, return_index=True)
    vectors = counts[:, first]
    if p == 2:  # only letter 1 is tracked
        vectors = np.vstack([n - vectors, vectors])
    return set(map(tuple, vectors.T.tolist()))


def subword_profile(w: Wordlike, n_max: int, n_min: int = 1) -> list[int]:
    """Number of distinct length-n factors, n = n_min..n_max.

    One set of rank levels serves every n: dense, order-preserving ranks
    of the windows of length 2^j, j = 0..top with 2^top >= n_max, built by
    doubling (see ``_rank_levels``).  The top level's ranks 1..R name its
    distinct windows in lexicographic order, so one scatter of the
    positions by rank leaves one representative per rank, already sorted;
    no sort is needed.  Each adjacent pair of representatives gets its
    longest common prefix by binary lifting over the lower levels: R - 1
    pairs, not one per position.  A representative with LCP ``l`` to its
    predecessor and ``m`` symbols left begins a new length-n factor exactly
    for n in (l, min(m, n_max)], so one difference array gives every count.

    Lifting over representatives only is exact.  A padded window (one
    running past the end) equals no window at another position, so it is
    its own representative.  Every other copy of a real top-level window
    shares its first 2^top >= n_max symbols with its representative: it
    begins no new factor of length <= n_max, and its LCP with any other
    window and its ``min(m, n_max)`` (which is n_max) are the
    representative's.  Exact: equal ranks mean equal windows, no hashing
    involved.
    """
    symbols, _ = _checked(w, n_max, n_min)
    return _subword_counts(len(symbols), n_max, n_min,
                           *_rank_levels(symbols, _top(n_max)))


def _subword_counts(L: int, n_max: int, n_min: int,
                    levels: list[np.ndarray], R: int) -> list[int]:
    """``subword_profile`` of a range-checked word of length L, read off
    its ``_rank_levels`` at top ``_top(n_max)``, with R distinct top-level
    windows."""
    rep = _representatives(levels[-1], R, L)
    a, b = rep[:-1], rep[1:]
    # binary lifting over scratch buffers reused at every level: at each
    # pair's current LCP, add 2^j where the next 2^j symbols agree too.
    # Adjacent representatives differ at the top level, which is skipped.
    # Every index is at most L, so "clip" never clips; it only spares take
    # a buffered copy of its output
    lcp = np.zeros(R - 1, dtype=np.int64)
    at_a, at_b = np.empty_like(lcp), np.empty_like(lcp)
    rank_a, rank_b = np.empty((2, R - 1), dtype=levels[0].dtype)
    for j in range(len(levels) - 2, -1, -1):
        np.take(levels[j], np.add(a, lcp, out=at_a), out=rank_a, mode="clip")
        np.take(levels[j], np.add(b, lcp, out=at_b), out=rank_b, mode="clip")
        agree = np.equal(rank_a, rank_b, out=at_a)  # at_a is free again
        agree <<= j
        lcp += agree
    lo = np.concatenate(([0], np.minimum(lcp, n_max)))
    hi = np.minimum(L - rep, n_max)
    starts = (np.bincount(lo + 1, minlength=n_max + 2)
              - np.bincount(hi + 1, minlength=n_max + 2))
    return np.cumsum(starts)[n_min:n_max + 1].tolist()


def _top(n_max: int) -> int:
    """The least level j with 2^j >= n_max."""
    return (n_max - 1).bit_length()


def _representatives(top_level: np.ndarray, R: int, L: int) -> np.ndarray:
    """One position per top-level rank 1..R, in rank order; any copy of a
    rank serves."""
    rep = np.empty(R + 1, dtype=np.int64)
    rep[top_level[:L]] = np.arange(L)
    return rep[1:]


def _rank_levels(symbols: bytes, top: int) -> tuple[list[np.ndarray], int]:
    """Dense order-preserving ranks of every window of length 2^j,
    j = 0..top, and the number R of distinct windows at level ``top``
    (see ``_doubled_ranks``)."""
    levels = list(_doubled_ranks(symbols, top))
    return [lev for lev, _ in levels], levels[-1][1]


def _doubled_ranks(symbols: bytes, top: int):
    """Yields ``(levels[j], R_j)`` for j = 0..top: the rank level of the
    windows of length 2^j and its number of distinct windows, each level
    built from the one before alone.

    ``levels[j][i]`` ranks the window of length 2^j at position i, padded
    past the end with a sentinel below every letter; index L holds the
    sentinel rank 0 itself, and the real windows take every rank 1..R_j.
    Two windows get the same rank exactly when they are equal, and a
    padded window equals no window at another position.  Level 0 ranks the
    letters that occur, in letter order.  Each further level ranks the
    pair codes ``rank_hi * (R + 1) + rank_lo`` of the last one, which lie
    in a space of (R + 1)^2 codes.  While that space is at most
    ``_FLAG_SPACE`` times L, each present code is marked in a reused flag
    buffer, a cumulative sum over the flags numbers the present codes in
    order, and one gather hands each window its number: no sort.  Beyond
    it, one argsort orders the codes, dense ranks are counted where the
    sorted codes change and scattered back.  Both give the same ranks.
    Once all L windows of a level are distinct, every longer window ranks as
    its first half does, so the further levels repeat that one.
    Every buffer but the argsort result and the levels themselves is
    allocated once; pages a level never touches are never faulted in.
    A caller that keeps only the last level holds two levels at a time.
    """
    L = len(symbols)
    dtype = np.int32 if L < 2**31 - 2 else np.int64  # holds 0..L+1
    arr = np.frombuffer(symbols, dtype=np.uint8)
    present = np.zeros(256, dtype=bool)
    present[arr] = True
    dense = np.cumsum(present, dtype=dtype)
    lev = np.zeros(L + 1, dtype=dtype)
    np.take(dense, arr, out=lev[:L], mode="clip")
    R = int(dense[-1])
    yield lev, R
    codes, ranks = np.empty((2, L), dtype=np.int64)
    flags = np.empty(_FLAG_SPACE * L, dtype=bool)
    numbers = np.empty(_FLAG_SPACE * L, dtype=dtype)
    for j in range(1, top + 1):
        if R == L:  # all distinct: a window ranks as its first half does
            yield lev, R
            continue
        half = 1 << (j - 1)
        # a window's code: its first half's rank, then its second half's
        codes[:] = lev[:L]
        codes *= R + 1
        codes[:L - half] += lev[half:L]
        space = (R + 1) ** 2
        lev = np.zeros(L + 1, dtype=dtype)
        if space <= _FLAG_SPACE * L:
            seen = flags[:space]
            seen[:] = False
            seen[codes] = True
            np.cumsum(seen, out=numbers[:space])
            np.take(numbers, codes, out=lev[:L], mode="clip")
            R = int(numbers[space - 1])
        else:
            order = np.argsort(codes)
            sorted_codes = np.take(codes, order, out=ranks, mode="clip")
            changes = flags[:L]
            changes[0] = True
            np.not_equal(sorted_codes[1:], sorted_codes[:-1], out=changes[1:])
            # ranks held the sorted codes, which are read by now
            np.cumsum(changes, out=ranks)
            lev[order] = ranks
            R = int(ranks[-1])
        yield lev, R


def balance_per_length(w: Wordlike, n_max: int, n_min: int = 1) -> list[int]:
    """For each n, the largest per-letter count spread over length-n windows."""
    _, stats = _pass(w, n_max, n_min)
    return [int(radix.max()) - 1 for _, _, radix, _ in stats]


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
    rho: tuple[int, ...]
    balance_running: tuple[int, ...]

    @property
    def balance(self) -> int:
        """Minimal observed balance constant over the checked range."""
        return self.balance_running[-1]


def profile(w: Wordlike, n_max: int) -> ComplexityProfile:
    """Assemble the Abelian profile, subword profile, and running balance
    of one prefix; one window pass gives both rho_ab and balance.  The rank
    levels are built once: the subword pass reads them, and so does the
    window pass where ``_window_positions`` picks representatives.
    """
    symbols, p = _checked(w, n_max)
    levels, R = _rank_levels(symbols, _top(n_max))
    positions = _window_positions(symbols, p, n_max, 1, (levels[-1], R))
    rho = _subword_counts(len(symbols), n_max, 1, levels, R)
    del levels  # freed before the window pass allocates its buffers
    rho_ab, per_length = zip(*[(_class_count(counts, lo, radix, scratch),
                                int(radix.max()) - 1)
                               for counts, lo, radix, scratch
                               in _window_stats(symbols, p, n_max, 1, positions)])
    running = np.maximum.accumulate(per_length)
    return ComplexityProfile(
        n_max=n_max,
        prefix_len=len(symbols),
        rho_ab=tuple(rho_ab),
        rho=tuple(rho),
        balance_running=tuple(int(x) for x in running),
    )
