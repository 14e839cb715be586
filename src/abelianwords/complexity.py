"""Parikh vectors, Abelian/subword complexity profiles, and balance bounds.

All profiles are exact counts over the given finite prefix.  For the
infinite word they are lower bounds: a factor of the prefix is a factor of
the word, but a long enough prefix is needed before every factor of the
word shows up.  Profiles are reported for lengths n = 1..n_max; the empty
length would contribute the constant 1 and is omitted, matching the usual
convention.

Every window pass reads per-letter prefix sums built once per word
(``_prefix_sums``).  Balance reads only each letter's least and greatest
count at every length (``_extremes``); so does every Abelian count on
p <= 2 letters, since one letter's count moves by at most one per slide
and takes every value between its extremes: the Abelian complexity is
its spread plus one, and ``parikh_classes`` lists the vectors of that
range.  On p >= 3 letters the Abelian complexity counts the classes of
each length's windows, and ``profile`` takes the balance from that same
class pass; ``parikh_classes`` reads one length of it.  The class pass,
and the extremes pass over every window, read each length's counts
through one reader (``_window_counts``).  Over several lengths both
passes read one window per distinct top-level window of the subword
kernel's rank levels (length 2^top >= n_max) while those number at most
L/2 (p <= 2) or L/4 (p >= 3); single lengths and words with more
distinct windows read every window.  Both ways see the same Parikh
vectors, so the results are the same (see ``_window_counts``).

A window pass or subword pass over more than 2^32 window steps (prefix
length times the number of window lengths, whichever windows it reads)
raises BudgetError before it allocates anything.
"""

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


# elements per row gather of the extremes pass
_GATHER = 1 << 16


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


def _most_representatives(p: int, L: int) -> int:
    """The most distinct top-level windows for which a window pass over
    several lengths reads one window each.  With one tracked letter
    (p <= 2) the rows cost less than the contiguous pass up to L/2; where
    every letter is counted they may cost more from L/4 on."""
    return L // (2 if p <= 2 else 4)


def _window_positions(symbols: bytes, p: int, n_max: int, n_min: int,
                      top_level=None):
    """Sorted positions of one window per distinct top-level window, for
    a window pass to read instead of every position, or None where it
    keeps the contiguous pass.

    The top level is j = (n_max - 1).bit_length(), so 2^j >= n_max.  The
    positions are used on any alphabet, for more than one window length,
    while the top level has at most ``_most_representatives`` distinct
    windows: for a single length, or with more distinct windows, the
    gathers cost more than the contiguous slices they save.  R only grows
    from level to level, so the doubling stops as soon as it passes the
    cap, and only the last level is kept; before it, ``_many_windows``
    turns away most words with R near L for a fraction of the doubling's
    cost.
    ``top_level`` is level j and its R where the caller has built them.
    """
    if n_min == n_max:
        return None
    L = len(symbols)
    most = _most_representatives(p, L)
    if top_level:
        levels = [top_level]
    elif _many_windows(symbols, p, _top(n_max)):
        return None
    else:
        levels = _doubled_ranks(symbols, _top(n_max))
    for lev, R in levels:
        if R > most:
            return None
    return np.sort(_representatives(lev, R, L))


def _many_windows(symbols: bytes, p: int, top: int) -> bool:
    """True when more than ``_most_representatives`` distinct windows of
    one length m <= 2^top occur, so that the top level has that many too:
    windows differing in their first m symbols differ at the top level.
    m is the longest with p^m <= ``_FLAG_SPACE`` * L and m <= L, every
    window of length m is read, and the windows are told apart by marking
    their base-p codes.  False says nothing."""
    L = len(symbols)
    most = _most_representatives(p, L)
    m, space = 0, 1
    while m < min(1 << top, L) and space * p <= _FLAG_SPACE * L:
        m, space = m + 1, space * p
    if space <= most:
        return False
    k = L - m + 1
    arr = np.frombuffer(symbols, dtype=np.uint8)
    code = np.zeros(k, dtype=np.min_scalar_type(space))
    for i in range(m):
        code *= p
        code += arr[i:i + k]
    seen = np.zeros(space, dtype=bool)
    seen[code] = True
    return int(np.count_nonzero(seen)) > most


def _prefix_sums(symbols: bytes, letters, n_max: int, pad: int = 0):
    """Prefix sums of the given letters' counts in a word of length L,
    one row each, at indices 0..L, then ``pad`` zeros.

    The sums wrap in the narrowest unsigned dtype holding n_max + 1.  A
    window of length n <= n_max holds at most n_max of a letter, so its
    count, the difference of two sums taken in that dtype, is exact."""
    L = len(symbols)
    arr = np.frombuffer(symbols, dtype=np.uint8)
    cum = np.zeros((len(letters), L + 1 + pad),
                   dtype=np.min_scalar_type(n_max + 1))
    for row, a in zip(cum, letters):
        np.cumsum(arr == a, dtype=cum.dtype, out=row[1:L + 1])
    return cum


def _window_counts(cum, L: int, n_max: int, n_min: int, positions=None):
    """Yields ``(counts, lo, hi)`` for n = n_min..n_max, read off the
    ``_prefix_sums`` ``cum`` of a word of length L: each row's letter
    counts in the length-n windows read, and their least and greatest.

    Without ``positions`` every window is read, as contiguous slices of
    the sums into one reused buffer.  With sorted ``positions`` from
    ``_window_positions`` only the windows there are read: at length n
    those at positions <= L - n.  Each letter's sums are gathered row by row
    into C-contiguous blocks, one row per length and about L windows per
    block: per-row minima and maxima are slow on the column-ordered array
    a 2-D fancy index returns, and on a Hubert prefix, with some 1,500
    windows per length, one gather per length instead took 1.1 to 2.4
    times as long.

    That is exact.  Two positions with one top-level rank have equal
    windows of every length <= n_max, and a window running past the end
    of the prefix at the top level equals no other, so it is its own
    representative.  The windows read at each n thus carry every Parikh
    vector of the length-n windows, and per-letter minima and maxima
    are unchanged.
    """
    if positions is None:
        buf = np.empty((len(cum), L), dtype=cum.dtype)
        for n in range(n_min, n_max + 1):
            k = L - n + 1
            counts = np.subtract(cum[:, n:], cum[:, :k], out=buf[:, :k])
            yield counts, counts.min(axis=1), counts.max(axis=1)
        return
    # lengths are gathered a batch at a time, one row of a (batch, k)
    # block per length, so each numpy call covers about L windows
    width = len(positions)
    batch = max(1, L // width)
    lengths = np.arange(n_min, n_max + 1)
    fits = np.searchsorted(positions, L - lengths, side="right").tolist()
    at, ends = np.empty((2, batch * width), dtype=np.int64)
    starts = np.empty(batch * width, dtype=cum.dtype)
    flat = np.empty(len(cum) * batch * width, dtype=cum.dtype)
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
        counts = flat[:len(cum) * block.size].reshape((-1,) + shape)
        for row, out in zip(cum, counts):
            np.take(row, end, out=out, mode="clip")
            np.take(row, block, out=start, mode="clip")
            out -= start
        lo, hi = counts.min(axis=2), counts.max(axis=2)
        for j in range(len(ns)):
            yield counts[:, j], lo[:, j], hi[:, j]


def _extremes(symbols: bytes, p: int, n_max: int, n_min: int = 1,
              positions=None):
    """``(lo, hi)``, each of shape (tracked letters, lengths): the least
    and greatest count of each tracked letter over the length-n windows
    of a range-checked word, n = n_min..n_max.  Every letter is tracked,
    except that a binary word's two counts sum to n, so only its last
    letter is.

    Without ``positions`` these are read off ``_window_counts`` over every
    window.  With sorted ``positions`` from ``_window_positions`` the
    windows there are read as rows.  The row of the window at i is one
    run of a letter's prefix sums, those at i + n_min..i + n_max, less
    the sum at i: rows of the sums' sliding-window view, gathered about
    ``_GATHER`` counts at a time and reduced to running minima and maxima
    at every length at once.  A row starting past L - n_max runs into a
    pad past L; at each length whose window does not fit, it holds the
    count of the window at 0 instead.  That is exact: the positions carry
    every Parikh vector of the length-n windows (see ``_window_counts``),
    and the window at 0 is one of them.
    """
    L = len(symbols)
    letters = range(p) if p > 2 else [p - 1]
    if positions is None:
        cum = _prefix_sums(symbols, letters, n_max)
        _, lo, hi = zip(*_window_counts(cum, L, n_max, n_min))
        return np.array(lo).T, np.array(hi).T
    cum = _prefix_sums(symbols, letters, n_max, pad=n_max - 1)
    # the counts of the window at 0 start every minimum and maximum
    lo, hi = cum[:, n_min:n_max + 1].copy(), cum[:, n_min:n_max + 1].copy()
    ns = np.arange(n_min, n_max + 1)
    height = max(1, _GATHER // len(ns))
    for sums, row_lo, row_hi in zip(cum, lo, hi):
        rows = np.lib.stride_tricks.sliding_window_view(sums[n_min:], len(ns))
        for i in range(0, len(positions), height):
            at = positions[i:i + height]
            counts = rows[at]
            counts -= sums[at, None]
            if at[-1] + n_max > L:  # some of these windows do not fit
                np.putmask(counts, at[:, None] + ns > L, sums[n_min:n_max + 1])
            np.minimum(row_lo, counts.min(axis=0), out=row_lo)
            np.maximum(row_hi, counts.max(axis=0), out=row_hi)
    return lo, hi


def _positioned(w: Wordlike, n_max: int, n_min: int = 1):
    """``(symbols, p, positions)``: ``w`` range-checked, and the positions
    ``_window_positions`` picks for a window pass over it."""
    symbols, p = _checked(w, n_max, n_min)
    return symbols, p, _window_positions(symbols, p, n_max, n_min)


def _abelian_and_balance(symbols: bytes, p: int, n_max: int, n_min: int,
                         positions) -> tuple[list[int], list[int]]:
    """rho_ab and the largest per-letter count spread at n = n_min..n_max,
    from one window pass over a range-checked word.

    A count moves by at most one per slide, so a single tracked count
    (p <= 2) takes every value between its extremes, and rho_ab is its
    spread plus one: the extremes pass (``_extremes``) gives both.  For
    p >= 3 the classes are counted per length off ``_window_counts``."""
    if p <= 2:
        lo, hi = _extremes(symbols, p, n_max, n_min, positions)
        spread = (hi[0] - lo[0]).tolist()
        return [s + 1 for s in spread], spread
    L = len(symbols)
    width = L if positions is None else len(positions)
    # allocated once per pass; pages no step touches are never faulted in
    codes = np.empty(width, dtype=np.int64)
    flags = np.empty(_FLAG_SPACE * width, dtype=bool)
    cum = _prefix_sums(symbols, range(p), n_max)
    rho_ab, spreads = [], []
    for counts, lo, hi in _window_counts(cum, L, n_max, n_min, positions):
        code, space = _class_codes(counts, lo, hi, codes[:counts.shape[1]])
        rho_ab.append(_class_count(code, space, flags))
        spreads.append(hi - lo)
    return rho_ab, np.max(spreads, axis=1).tolist()


def _class_codes(counts, lo, hi, code) -> tuple[np.ndarray, int]:
    """Per-window int64 codes of p >= 3 rows of counts, written into
    ``code`` and equal exactly when the Parikh vectors are, and the size
    of their code space: the counts, offset by their minima ``lo``, in
    mixed radix ``hi - lo + 1``.  The last row (n minus the rest) is left
    out; the code is compacted to dense ranks before it would pass int64."""
    np.subtract(counts[0], lo[0], out=code)
    space = int(hi[0]) - int(lo[0]) + 1
    for a in range(1, len(counts) - 1):
        r = int(hi[a]) - int(lo[a]) + 1
        if space * r > 2**63:
            ranks, code[:] = np.unique(code, return_inverse=True)
            space = len(ranks)
        # every partial value lies in (-lo[a], space * r), inside int64
        code *= r
        code -= int(lo[a])
        code += counts[a]
        space *= r
    return code, space


def _class_count(code, space: int, flags) -> int:
    """Distinct values among ``code``, a code space of ``space`` values.

    A code space at most ``_FLAG_SPACE`` times the window count is
    counted by marking each code in ``flags``; a larger one by sorting the
    codes in place and counting where neighbours differ.  ``flags`` holds
    at least ``_FLAG_SPACE`` entries per window."""
    if space <= _FLAG_SPACE * code.size:
        seen = flags[:space]
        seen[:] = False
        seen[code] = True
        return int(np.count_nonzero(seen))
    code.sort()
    differs = np.not_equal(code[1:], code[:-1], out=flags[:code.size - 1])
    return 1 + int(np.count_nonzero(differs))


def abelian_profile(w: Wordlike, n_max: int, n_min: int = 1) -> list[int]:
    """Number of distinct Parikh vectors among length-n windows, n = n_min..n_max.

    Read off one window pass (``_abelian_and_balance``).  On p <= 2
    letters it is the spread of one letter's count plus one, from the
    extremes pass.  For p >= 3 the class codes are counted by marking a
    flag per code while their space is a small multiple of the window
    count, and by an in-place sort beyond it.  Over several lengths with
    few distinct top-level windows (``_most_representatives``), either
    pass reads one window per distinct top-level window only
    (``_window_positions``).
    """
    symbols, p, positions = _positioned(w, n_max, n_min)
    return _abelian_and_balance(symbols, p, n_max, n_min, positions)[0]


def parikh_classes(w: Wordlike, n: int) -> set[ParikhVector]:
    """The exact set of Parikh vectors of the length-n windows.

    On p <= 2 letters one letter's count takes every value between its
    extremes (``_extremes``), as it moves by at most one per slide.  On
    p >= 3 each vector is read off the first window of its class."""
    symbols, p = _checked(w, n, n)
    if p <= 2:
        lo, hi = _extremes(symbols, p, n, n)
        ones = range(int(lo[0, 0]), int(hi[0, 0]) + 1)
        return {(n - c, c) if p == 2 else (c,) for c in ones}
    cum = _prefix_sums(symbols, range(p), n)
    counts, lo, hi = next(_window_counts(cum, len(symbols), n, n))
    code, _ = _class_codes(counts, lo, hi,
                           np.empty(counts.shape[1], dtype=np.int64))
    _, first = np.unique(code, return_index=True)
    return set(map(tuple, counts[:, first].T.tolist()))


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
    # binary lifting: at each pair's current LCP, add 2^j where the next
    # 2^j symbols agree too.  Adjacent representatives differ at the top
    # level, which is skipped.  Every index is at most L, so "clip" never
    # clips; it only spares take a check
    lcp = np.zeros(R - 1, dtype=np.int64)
    at_a, at_b = np.empty_like(lcp), np.empty_like(lcp)
    for j in range(len(levels) - 2, -1, -1):
        rank_a = levels[j].take(np.add(a, lcp, out=at_a), mode="clip")
        rank_b = levels[j].take(np.add(b, lcp, out=at_b), mode="clip")
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
    Each level is held in the narrowest signed integer type holding its
    ranks: the levels of low-complexity words are int8 and int16.
    The pair codes and their sorted ranks are held in int32 while the
    code space is below 2^31, and in int64 buffers, allocated at the first
    level that needs them, beyond it.  Every buffer but the argsort result
    and the levels themselves is allocated once; pages a level never
    touches are never faulted in.  A caller that keeps only the last level
    holds two levels at a time.
    """
    L = len(symbols)
    dtype = np.int32 if L < 2**31 - 2 else np.int64  # holds 0..L+1

    def level(R):
        """A zeroed level in the narrowest signed type holding 0..R."""
        for t in (np.int8, np.int16, np.int32):
            if R <= np.iinfo(t).max:
                return np.zeros(L + 1, dtype=t)
        return np.zeros(L + 1, dtype=np.int64)

    arr = np.frombuffer(symbols, dtype=np.uint8)
    present = np.zeros(256, dtype=bool)
    present[arr] = True
    dense = np.cumsum(present, dtype=dtype)
    R = int(dense[-1])
    lev = level(R)
    np.take(dense, arr, out=lev[:L], mode="clip")
    yield lev, R
    narrow, wide = np.empty((2, L), dtype=np.int32), None
    flags = np.empty(_FLAG_SPACE * L, dtype=bool)
    numbers = np.empty(_FLAG_SPACE * L, dtype=dtype)
    for j in range(1, top + 1):
        if R == L:  # all distinct: a window ranks as its first half does
            yield lev, R
            continue
        half = 1 << (j - 1)
        space = (R + 1) ** 2
        if space < 2**31:
            codes, ranks = narrow
        else:
            if wide is None:
                wide = np.empty((2, L), dtype=np.int64)
            codes, ranks = wide
        # a window's code: its first half's rank, then its second half's
        codes[:] = lev[:L]
        codes *= R + 1
        codes[:L - half] += lev[half:L]
        if space <= _FLAG_SPACE * L:
            seen = flags[:space]
            seen[:] = False
            seen[codes] = True
            np.cumsum(seen, out=numbers[:space])
            R = int(numbers[space - 1])
            lev = level(R)
            np.take(numbers, codes, out=lev[:L], mode="clip")
        else:
            order = np.argsort(codes)
            sorted_codes = np.take(codes, order, out=ranks, mode="clip")
            changes = flags[:L]
            changes[0] = True
            np.not_equal(sorted_codes[1:], sorted_codes[:-1], out=changes[1:])
            # ranks held the sorted codes, which are read by now
            np.cumsum(changes, out=ranks)
            R = int(ranks[-1])
            lev = level(R)
            lev[order] = ranks
        yield lev, R


def balance_per_length(w: Wordlike, n_max: int, n_min: int = 1) -> list[int]:
    """For each n, the largest per-letter count spread over length-n windows.

    Read off the extremes pass (``_extremes``) on any alphabet, over one
    window per distinct top-level window where ``_window_positions``
    picks them."""
    symbols, p, positions = _positioned(w, n_max, n_min)
    lo, hi = _extremes(symbols, p, n_max, n_min, positions)
    return (hi - lo).max(axis=0).tolist()


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
    of one prefix; one window pass gives both rho_ab and balance: the
    extremes pass on p <= 2 letters, the class-counting pass beyond
    (``_abelian_and_balance``).  The rank levels are built once: the
    subword pass reads them, and so does the window pass where
    ``_window_positions`` picks representatives.
    """
    symbols, p = _checked(w, n_max)
    levels, R = _rank_levels(symbols, _top(n_max))
    positions = _window_positions(symbols, p, n_max, 1, (levels[-1], R))
    rho = _subword_counts(len(symbols), n_max, 1, levels, R)
    del levels  # freed before the window pass allocates its buffers
    rho_ab, per_length = _abelian_and_balance(symbols, p, n_max, 1, positions)
    running = np.maximum.accumulate(per_length)
    return ComplexityProfile(
        n_max=n_max,
        prefix_len=len(symbols),
        rho_ab=tuple(rho_ab),
        rho=tuple(rho),
        balance_running=tuple(int(x) for x in running),
    )
