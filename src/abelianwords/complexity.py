"""Parikh vectors, Abelian/subword complexity profiles, and balance bounds.

All profiles are exact counts over the given finite prefix.  For the
infinite word they are lower bounds: a factor of the prefix is a factor of
the word, but a long enough prefix is needed before every factor of the
word shows up.  Profiles are reported for lengths n = 1..n_max; the empty
length would contribute the constant 1 and is omitted, matching the usual
convention.

Every window pass reads prefix sums built once per word by one builder
(``_prefix_sums``), each row from a table of per-letter weights: a
one-hot table (``_letter_tables``) counts one letter.  Balance reads only
each letter's least and greatest count at every length (``_extremes``);
so does every Abelian count on p <= 2 letters, since one letter's count
moves by at most one per slide and takes every value between its
extremes: the Abelian complexity is its spread plus one, and
``parikh_classes`` lists the vectors of that range.  On p >= 3 letters
the extremes pass gives the balance and the radices 1 + spread of a
mixed-radix class code, and the Abelian complexity counts the distinct
codes of each length's windows.  A window's code is read off one
weighted prefix sum as one subtraction (``_class_sums``): a letter
weighs the product of the radices of the letters before it, so the
window's letter counts, less their least, are the digits of its code,
less the least code.  The sums wrap in the narrowest unsigned type
holding n_max times the greatest weight, exactly as letter counts do.
Alphabets whose codes would pass 2^63 split their first p - 1 letters
into groups with one sum each, and the group codes of a length are
joined through dense ranks (``_class_code``), as are a tile's codes
before its lengths would share a space past 2^63.
``parikh_classes`` reads one length of the same pass.

Both passes read their windows through one of two readers.  Over
several lengths they read one window per distinct top-level window of
the subword kernel's rank levels (length 2^top >= n_max) while those
number at most L/2 (p <= 2) or L/4 (p >= 3), as tiles of rows of the
sums' sliding-window view (``_window_rows``), and the class pass counts
each tile's lengths in one step; single lengths and words with more
distinct windows read every window, one length at a time
(``_window_counts``).  Both ways see the same Parikh vectors, so the
results are the same (see ``_window_rows``).

Both complexities count distinct values of integer codes: class codes
of Parikh vectors, pair codes of the rank levels.  ``_class_count`` only
counts them; every step that ranks them (the rank levels, the group
codes joined for a class code, the classes ``parikh_classes`` lists)
calls the one ranker ``_dense_ranks``.  Both mark the codes present
while the code space is at most ``_FLAG_SPACE`` times the code count,
and sort only beyond it.

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

# codes are counted and ranked by marking flags while the code space is at
# most this many times the code count, and by sorting beyond it
_FLAG_SPACE = 4

# the most window steps, prefix length times the number of window lengths,
# one window pass or subword pass may take
_WORK_BOUND = DEFAULT_SYMBOL_BUDGET * 64


# counts per letter in one tile of representative windows (``_window_rows``)
_GATHER = 1 << 16

# every window's code in one letter group of a class pass (``_class_sums``),
# and every class code of a tile's lengths (``_class_code``), stays below this
_CODE_BOUND = 2**63


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
    (p <= 2) the rows cost less than the contiguous pass up to L/2.  With
    p >= 3 the extremes pass reads a row per letter and the class pass
    one row per letter group; measured on periodic 4-letter words of
    2^15 symbols the rows cost more than the contiguous pass from about
    L/8 on at n <= 256 and earlier at n <= 32, but on the short prefixes
    of ``verify rauzy`` (R near L/5) they cost a quarter of it, so the
    cap stays at L/4."""
    return L // (2 if p <= 2 else 4)


def _window_positions(symbols: bytes, p: int, n_max: int, n_min: int,
                      top_level=None):
    """Sorted positions of one window per distinct top-level window, for
    a window pass to read instead of every position, or None where it
    keeps the contiguous pass.

    The top level is j = (n_max - 1).bit_length(), so 2^j >= n_max.  The
    positions are used on any alphabet, for more than one window length,
    while the top level has at most ``_most_representatives`` distinct
    windows: for a single length, or with more distinct windows, the row
    tiles of ``_window_rows`` cost more than the contiguous slices of
    ``_window_counts`` they save.  Reading only these windows is exact
    (see ``_window_rows``).  R only grows
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
    if not top_level and _many_windows(symbols, p, _top(n_max)):
        return None
    for lev, R in [top_level] if top_level else _doubled_ranks(
            symbols, _top(n_max)):
        if R > most:
            return None
    return np.sort(_representatives(lev, R, L))


def _many_windows(symbols: bytes, p: int, top: int) -> bool:
    """True when more than ``_most_representatives`` distinct windows of
    one length m <= 2^top occur, so that the top level has that many too:
    windows differing in their first m symbols differ at the top level.
    m is the longest with p^m <= ``_FLAG_SPACE`` * L and m <= L, every
    window of length m is read, and ``_class_count`` counts their base-p
    codes.  False says nothing.

    It pays on words with many distinct windows, not on the benchmark's
    words, where it saves about 0.5 ms per pass.  On a 2^22-symbol random
    4-letter word at n <= 64 (2-core host), leaving it out raised the
    guard's rise in peak resident set (``ru_maxrss``) from 18.6 to 162 MiB
    and its time from 75-100 ms to 0.85-1.2 s: the doubling it turns
    away."""
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
    return _class_count(code[:, None], space,
                        np.empty(_FLAG_SPACE * k, dtype=bool))[0] > most


def _prefix_sums(symbols: bytes, tables, n_max: int):
    """Prefix sums of a word of length L, one row per weight table of
    ``tables`` (shape (rows, letters)), at indices 0..L, then n_max - 1
    zeros: a row of ``_window_rows`` starting at any position < L stays
    inside them.

    A row sums its table's weight of every symbol, looked up in one
    ``take``: a one-hot table (``_letter_tables``) counts one letter, and
    the tables of ``_class_sums`` weigh the letters of a group.  The sums
    wrap in the narrowest unsigned dtype holding n_max times the greatest
    weight, plus one.  A window of length n <= n_max weighs at most that,
    so its weight, the difference of two sums taken in that dtype, is
    exact."""
    L = len(symbols)
    cum = np.zeros((len(tables), L + n_max),
                   dtype=np.min_scalar_type(n_max * int(tables.max()) + 1))
    at = np.frombuffer(symbols, dtype=np.uint8).astype(np.intp)
    for row, table in zip(cum[:, 1:L + 1], tables.astype(cum.dtype)):
        np.take(table, at, out=row, mode="clip")
        np.cumsum(row, out=row)  # in place: no cast of the word's length
    return cum


def _letter_tables(p: int):
    """The one-hot weight tables of ``_prefix_sums`` that count the
    tracked letters of a p-letter word: every letter, except that a
    binary word's two counts sum to n, so only its last letter is."""
    return np.eye(p, dtype=np.int64)[0 if p > 2 else p - 1:]


def _window_counts(cum, L: int, n_max: int, n_min: int):
    """Yields ``(counts, lo, hi)`` for n = n_min..n_max, read off the
    ``_prefix_sums`` ``cum`` of a word of length L, in the layout of
    ``_window_rows`` with one length a tile: each row's counts in every
    length-n window, shape (rows, windows, 1), as contiguous slices of the
    sums into one reused buffer, and their least and greatest, shape
    (rows, 1)."""
    buf = np.empty((len(cum), L, 1), dtype=cum.dtype)
    for n in range(n_min, n_max + 1):
        counts = np.subtract(cum[:, n:L + 1, None], cum[:, :L - n + 1, None],
                             out=buf[:, :L - n + 1])
        yield counts, counts.min(axis=1), counts.max(axis=1)


def _window_rows(cum, L: int, n_max: int, n_min: int, positions,
                 height: int, width: int):
    """Yields ``(tile, lo, hi)`` over the windows at the sorted
    ``positions`` of ``_window_positions``, read off the ``_prefix_sums``
    ``cum`` of a word of length L: tiles of at most ``height`` positions
    by ``width`` consecutive lengths, shape (letters, windows, lengths),
    length tile by length tile from n_min, and each tile's per-length
    minima and maxima, shape (letters, lengths).

    The row of the window at i is one run of each letter's sums, those
    at i + n for the tile's lengths n, less the sum at i: a row of the
    sums' sliding-window view.  A length tile reads the positions whose
    windows fit at its first length; a row running past L reads the pad,
    and at each length whose window does not fit it holds the counts of
    the window at 0 instead.

    That is exact.  Two positions with one top-level rank have equal
    windows of every length <= n_max, and a window running past the end
    of the prefix at the top level equals no other, so it is its own
    representative.  The windows read at each n thus carry every Parikh
    vector of the length-n windows, the window at 0 among them, and the
    classes and per-letter extremes are unchanged.
    """
    ns = np.arange(n_min, n_max + 1)
    fits = np.searchsorted(positions, L - ns, side="right").tolist()
    for j in range(0, len(ns), width):
        lengths = ns[j:j + width]
        rows = np.lib.stride_tricks.sliding_window_view(
            cum[:, lengths[0]:], len(lengths), axis=1)
        at0 = cum[:, None, lengths[0]:lengths[-1] + 1]  # the window at 0
        read = positions[:fits[j]]
        for i in range(0, len(read), height):
            at = read[i:i + height]
            tile = rows[:, at]
            tile -= cum[:, at, None]
            # rows from here on run past L at the tile's longest length
            late = max(fits[j + len(lengths) - 1] - i, 0)
            np.copyto(tile[:, late:], at0, where=at[late:, None] > L - lengths)
            yield tile, tile.min(axis=1), tile.max(axis=1)


def _extremes(symbols: bytes, p: int, n_max: int, n_min: int = 1,
              positions=None):
    """``(lo, hi)``, each of shape (tracked letters, lengths): the least
    and greatest count of each tracked letter over the length-n windows
    of a range-checked word, n = n_min..n_max.  Every letter is tracked,
    except that a binary word's two counts sum to n, so only its last
    letter is.

    Without ``positions`` these are read off ``_window_counts`` over every
    window.  With sorted ``positions`` from ``_window_positions`` they are
    read off ``_window_rows`` in row tiles that cover every length, about
    ``_GATHER`` counts a letter each, and reduced over the tiles; that is
    exact (see ``_window_rows``).
    """
    cum = _prefix_sums(symbols, _letter_tables(p), n_max)
    if positions is None:
        _, lo, hi = zip(*_window_counts(cum, len(symbols), n_max, n_min))
        return np.hstack(lo), np.hstack(hi)
    # the counts of the window at 0 start every minimum and maximum
    lo, hi = cum[:, n_min:n_max + 1].copy(), cum[:, n_min:n_max + 1].copy()
    lengths = n_max - n_min + 1
    for _, tile_lo, tile_hi in _window_rows(
            cum, len(symbols), n_max, n_min, positions,
            max(1, _GATHER // lengths), lengths):
        np.minimum(lo, tile_lo, out=lo)
        np.maximum(hi, tile_hi, out=hi)
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

    The extremes pass (``_extremes``) gives the spreads on any alphabet.
    A count moves by at most one per slide, so a single tracked count
    (p <= 2) takes every value between its extremes, and rho_ab is its
    spread plus one.  For p >= 3 the greatest spread of each letter over
    the pass sets its radix, and each window's class code is one
    subtraction of the weighted prefix sums of ``_class_sums``, one row
    per letter group (one group unless the codes would pass 2^63).  The
    codes are read off ``_window_counts`` over every window, one length a
    tile, or with ``positions`` off ``_window_rows`` length tiles holding
    every representative, about ``_GATHER`` codes a group each; each
    tile's lengths are counted in one ``_class_count``."""
    lo, hi = _extremes(symbols, p, n_max, n_min, positions)
    spread = hi - lo
    balance = spread.max(axis=0).tolist()
    if p <= 2:
        return [s + 1 for s in balance], balance
    L = len(symbols)
    cum = _class_sums(symbols, spread.max(axis=1), n_max)
    codes, tiles = L, _window_counts(cum, L, n_max, n_min)
    if positions is not None:
        width = max(1, _GATHER // len(positions))
        codes, tiles = len(positions) * width, _window_rows(
            cum, L, n_max, n_min, positions, len(positions), width)
    # allocated once per pass; pages no step touches are never faulted in
    out = np.empty((2, codes), dtype=np.int64)
    flags = np.empty(_FLAG_SPACE * codes, dtype=bool)
    counts = (_class_count(*_class_code(*tile, out), flags) for tile in tiles)
    return [c for column in counts for c in column], balance


def _class_sums(symbols: bytes, spread, n_max: int):
    """The ``_prefix_sums`` whose windows' differences are the group codes
    of the Parikh classes of a p >= 3 letter word, given each letter's
    greatest count spread ``spread`` over the pass: one row per group of
    consecutive letters among the first p - 1.

    A group's weight table gives each of its letters the product of the
    radices 1 + spread of the letters before it in the group, and every
    other letter 0.  So a window's group code less its least value
    at a length holds the group's letter counts less theirs as mixed-radix
    digits, and two windows of one length have equal group codes exactly
    when they have equal counts of the group's letters; the last letter's
    count is n less the rest.  A group takes letters while n_max times the
    next weight stays below ``_CODE_BOUND``, so every code fits the sums'
    dtype."""
    tables, weight = [], _CODE_BOUND
    for a, s in enumerate(spread[:-1].tolist()):
        if n_max * weight >= _CODE_BOUND:  # the first letter opens a group
            tables, weight = tables + [np.zeros(len(spread), np.int64)], 1
        tables[-1][a] = weight
        weight *= s + 1
    return _prefix_sums(symbols, np.array(tables), n_max)


def _class_code(codes, lo, hi, out) -> tuple[np.ndarray, int]:
    """Int64 class codes of a tile of windows by m lengths, written into
    ``out[0]`` with shape (windows, m), and the size of their code space,
    from the windows' group codes ``codes`` (shape (groups, windows, m))
    and their least and greatest at each length, ``lo`` and ``hi`` (shape
    (groups, m)).  Codes of one length are equal exactly when the Parikh
    vectors are, and those of length j lie in the j-th of m equal parts
    of the space, for ``_class_count`` to count per length.

    One group's code, offset by its least at each length, is the class
    code.  Several groups' codes are joined in pairs, each side ranked
    1..R over the tile (``_dense_ranks``, the other side in ``out[1]``)
    so that the pair fits in int64.  Where the m parts would reach
    ``_CODE_BOUND``, the tile's class codes are ranked 1..R over the tile
    the same way first, which keeps them equal exactly where they were
    within each length.  ``out`` holds two rows of at least windows * m
    entries."""
    m = codes.shape[2]
    code, ranks = out[:, :codes[0].size]
    np.subtract(codes[0], lo[0], out=code.reshape(-1, m))
    space = max((hi[0] - lo[0]).tolist()) + 1
    for row, low, high in zip(codes[1:], lo[1:], hi[1:]):
        np.subtract(row, low, out=ranks.reshape(-1, m))
        r = _dense_ranks(ranks, max((high - low).tolist()) + 1, ranks)
        space = (_dense_ranks(code, space, code) + 1) * (r + 1)
        code *= r + 1
        code += ranks
    if space * m >= _CODE_BOUND:  # the m parts' codes would pass int64
        space = _dense_ranks(code, space, code) + 1
    code = code.reshape(-1, m)
    if m > 1:
        code += np.arange(0, space * m, space)
    return code, space * m


def _class_count(code, space: int, flags) -> list[int]:
    """Distinct values in each of the m columns of the 2-D ``code``, a
    code space of ``space`` values whose column j lies in the j-th of m
    equal parts.

    A code space at most ``_FLAG_SPACE`` times the code count is counted
    by marking each code in ``flags``; a larger one by sorting the codes
    in place and marking where they change.  Sorted, the codes of column
    j fill the j-th of m equal parts of the code count, as they do of the
    space when marked; so either way each part of the marks counts its
    column.  ``flags`` holds at least ``_FLAG_SPACE`` entries per code."""
    flat = code.reshape(-1)
    if space <= _FLAG_SPACE * code.size:
        seen = flags[:space]
        seen.fill(False)
        seen[flat] = True
    else:
        flat.sort()
        seen = flags[:code.size]
        seen[0] = True
        np.not_equal(flat[1:], flat[:-1], out=seen[1:])
    return [int(np.count_nonzero(c)) for c in seen.reshape(code.shape[1], -1)]


def _dense_ranks(code, space: int, out, flags=None, numbers=None) -> int:
    """Writes to ``out`` the order-preserving dense rank 1..R of each of
    the ``code`` values, a code space of ``space`` values, and returns R.
    ``out`` may be ``code`` itself.

    A code space at most ``_FLAG_SPACE`` times the code count is ranked
    by marking each code in ``numbers``, numbering the marks in place by
    a cumulative sum and handing each code its number: no sort, and no
    copy of the marks cast to ``out``'s type.  A larger one is ranked by
    one argsort, marking in ``flags`` where the sorted codes change,
    counting the marks and scattering the counts back.  ``numbers`` (of
    ``out``'s type, at least ``_FLAG_SPACE`` entries per code) and
    ``flags`` (at least one per code) are reused scratch; without them the
    step allocates its own."""
    if space <= _FLAG_SPACE * code.size:
        numbers = (np.empty(space, dtype=out.dtype) if numbers is None
                   else numbers[:space])
        numbers.fill(0)
        numbers[code] = 1
        np.cumsum(numbers, out=numbers)
        # each entry is read before it is written, so out may be code
        np.take(numbers, code, out=out, mode="clip")
        return int(numbers[-1])
    order = np.argsort(code)
    ordered = code[order]
    changes = np.empty(code.size, bool) if flags is None else flags[:code.size]
    changes[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=changes[1:])
    # the ordered codes are read by now; R <= code.size < space, so their
    # type holds the ranks
    np.cumsum(changes, out=ordered)
    out[order] = ordered
    return int(ordered[-1])


def abelian_profile(w: Wordlike, n_max: int, n_min: int = 1) -> list[int]:
    """Number of distinct Parikh vectors among length-n windows, n = n_min..n_max.

    Read off one window pass (``_abelian_and_balance``).  On p <= 2
    letters it is the spread of one letter's count plus one, from the
    extremes pass.  For p >= 3 the class codes, read off one weighted
    prefix sum (``_class_sums``), are counted by marking a flag per code
    while their space is a small multiple of the window count, and by an
    in-place sort beyond it.  Over several lengths with
    few distinct top-level windows (``_most_representatives``), either
    pass reads one window per distinct top-level window only
    (``_window_positions``), which is exact (see ``_window_rows``).
    """
    symbols, p, positions = _positioned(w, n_max, n_min)
    return _abelian_and_balance(symbols, p, n_max, n_min, positions)[0]


def parikh_classes(w: Wordlike, n: int) -> set[ParikhVector]:
    """The exact set of Parikh vectors of the length-n windows.

    The tracked letters' counts in every window are read once.  On p <= 2
    letters one letter's count takes every value between its extremes, as
    it moves by at most one per slide.  On p >= 3 their spreads set the
    radices of the class codes, which are read off the weighted prefix
    sums of ``_class_sums`` (one row per letter group, one group unless
    the codes would pass 2^63) and ranked (``_dense_ranks``); each vector
    is the letter counts of one window of its class
    (``_representatives``)."""
    symbols, p = _checked(w, n, n)
    L = len(symbols)
    counts, lo, hi = next(_window_counts(
        _prefix_sums(symbols, _letter_tables(p), n), L, n, n))
    if p <= 2:
        ones = range(int(lo[0, 0]), int(hi[0, 0]) + 1)
        return {(n - c, c) if p == 2 else (c,) for c in ones}
    code, space = _class_code(*next(_window_counts(
        _class_sums(symbols, hi[:, 0] - lo[:, 0], n), L, n, n)),
        np.empty((2, L - n + 1), dtype=np.int64))
    code = code.ravel()
    reps = _representatives(code, _dense_ranks(code, space, code), code.size)
    return set(map(tuple, counts[:, reps, 0].T.tolist()))


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


def _representatives(ranks: np.ndarray, R: int, L: int) -> np.ndarray:
    """One position per rank 1..R among the first L entries of
    ``ranks`` (a rank level, or the class ranks of ``parikh_classes``), in
    rank order; any copy of a rank serves."""
    rep = np.empty(R + 1, dtype=np.int64)
    rep[ranks[:L]] = np.arange(L)
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
    in a space of (R + 1)^2 codes.  Every level is ranked by
    ``_dense_ranks``: by marking the codes present while that space is at
    most ``_FLAG_SPACE`` times L, by one argsort beyond it.
    Once all L windows of a level are distinct, every longer window ranks as
    its first half does, so the further levels repeat that one.
    Each level is held in the narrowest signed integer type holding its
    ranks: the levels of low-complexity words are int8 and int16.  Every
    buffer but the argsort's and the levels themselves is allocated once;
    pages a level never touches are never faulted in.  A caller that keeps
    only the last level holds two levels at a time.
    """
    L = len(symbols)
    dtype = np.int32 if L < 2**31 - 2 else np.int64  # holds 0..L+1

    codes = np.empty(L, dtype=np.int64)
    ranks = np.empty(L, dtype=dtype)
    flags = np.empty(L, dtype=bool)
    numbers = np.empty(_FLAG_SPACE * L, dtype=dtype)
    arr = np.frombuffer(symbols, dtype=np.uint8)
    R = _dense_ranks(arr, 256, ranks, flags, numbers)
    lev = np.zeros(L + 1, dtype=np.min_scalar_type(-R - 1))
    lev[:L] = ranks
    yield lev, R
    for j in range(1, top + 1):
        if R == L:  # all distinct: a window ranks as its first half does
            yield lev, R
            continue
        half = 1 << (j - 1)
        # a window's code: its first half's rank, then its second half's
        codes[:] = lev[:L]
        codes *= R + 1
        codes[:L - half] += lev[half:L]
        R = _dense_ranks(codes, (R + 1) ** 2, ranks, flags, numbers)
        lev = np.zeros(L + 1, dtype=np.min_scalar_type(-R - 1))
        lev[:L] = ranks
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
    extremes pass on every alphabet, as in ``balance_per_length``, and on
    p >= 3 letters the class-counting pass over the weighted prefix sums
    its spreads set up (``_abelian_and_balance``).  The rank levels are
    built once: the subword pass reads them, and so does the window pass
    where ``_window_positions`` picks representatives.
    """
    symbols, p = _checked(w, n_max)
    levels, R = _rank_levels(symbols, _top(n_max))
    positions = _window_positions(symbols, p, n_max, 1, (levels[-1], R))
    rho = _subword_counts(len(symbols), n_max, 1, levels, R)
    del levels  # freed before the window pass allocates its buffers
    rho_ab, per_length = _abelian_and_balance(symbols, p, n_max, 1, positions)
    return ComplexityProfile(
        n_max=n_max,
        prefix_len=len(symbols),
        rho_ab=tuple(rho_ab),
        rho=tuple(rho),
        balance_running=tuple(np.maximum.accumulate(per_length).tolist()),
    )
