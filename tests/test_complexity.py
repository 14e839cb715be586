import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from abelianwords import complexity
from abelianwords.complexity import (_FLAG_SPACE, _class_count, _dense_ranks,
                                     _doubled_ranks, _extremes,
                                     _many_windows, _prefix_sums,
                                     _rank_levels, _representatives, _top,
                                     _window_positions, _window_rows,
                                     abelian_equivalent, abelian_profile,
                                     balance_bound, balance_per_length,
                                     max_abelian_complexity, parikh,
                                     parikh_classes, profile, subword_profile)
from abelianwords.contfrac import ContinuedFraction
from abelianwords.words import (DEFAULT_SYMBOL_BUDGET, THUE_MORSE, TRIBONACCI,
                                BudgetError, FixedPoint, Hubert, Morphism,
                                Periodic, WordPrefix, _is_primitive,
                                champernowne_prefix, characteristic_prefix,
                                complete_prefix_length, fixed_point,
                                max_complexity_prefix, prefix_of)


def sliding_profile(w, n_max):
    """Reference: maintain one window's counts, update two entries per slide."""
    symbols, p = w.symbols, w.alphabet_size
    out = []
    for n in range(1, n_max + 1):
        counts = [0] * p
        for a in symbols[:n]:
            counts[a] += 1
        seen = {tuple(counts)}
        for i in range(len(symbols) - n):
            counts[symbols[i]] -= 1
            counts[symbols[i + n]] += 1
            seen.add(tuple(counts))
        out.append(len(seen))
    return out


def recount_profile(w, n_max):
    """Reference: recount every window from scratch."""
    symbols, p = w.symbols, w.alphabet_size
    return [len({tuple(symbols[i:i + n].count(a) for a in range(p))
                 for i in range(len(symbols) - n + 1)})
            for n in range(1, n_max + 1)]


def brute_subword(w, n_max, n_min=1):
    return [len({w.symbols[i:i + n] for i in range(len(w) - n + 1)})
            for n in range(n_min, n_max + 1)]


def doubling_subword(w, n_max, n_min=1):
    """Reference: rank tables for power-of-two lengths by doubling, then one
    fresh sort per n of the two overlapping power-of-two windows covering
    each length-n window."""
    symbols = w.symbols
    L = len(symbols)
    mult = L + 256  # ranks and letters are < L+256, so pairs pack exactly
    levels = [np.frombuffer(symbols, dtype=np.uint8).astype(np.int64)]
    for j in range(1, n_max.bit_length()):
        half = 1 << (j - 1)
        prev = levels[j - 1]
        k = L - (1 << j) + 1
        _, inv = np.unique(prev[:k] * mult + prev[half:half + k],
                           return_inverse=True)
        levels.append(inv.reshape(-1))
    out = []
    for n in range(n_min, n_max + 1):
        j = n.bit_length() - 1
        t = 1 << j
        k = L - n + 1
        lev = levels[j]
        out.append(int(np.unique(lev[:k] * mult + lev[n - t:n - t + k]).size))
    return out


def sorted_rank_levels(symbols, top):
    """Reference: rank levels by one full argsort per level, letter + 1 at
    level 0, and the positions in level-``top`` order."""
    L = len(symbols)
    lev = np.zeros(L + 1, dtype=np.int64)
    lev[:L] = np.frombuffer(symbols, dtype=np.uint8)
    lev[:L] += 1
    levels = [lev]
    order = np.argsort(lev[:L])
    for j in range(1, top + 1):
        half = 1 << (j - 1)
        codes = lev[:L] * (int(lev.max()) + 1)
        codes[:L - half] += lev[half:L]
        order = np.argsort(codes)
        sorted_codes = codes[order]
        changes = np.concatenate(
            ([True], sorted_codes[1:] != sorted_codes[:-1]))
        lev = np.zeros(L + 1, dtype=np.int64)
        lev[order] = np.cumsum(changes)
        levels.append(lev)
    return levels, order


def sorted_subword(w, n_max, n_min=1):
    """Reference: every position sorted by its top-level rank, and the
    capped LCP of each of the L - 1 adjacent pairs by binary lifting."""
    L = len(w.symbols)
    levels, order = sorted_rank_levels(w.symbols, (n_max - 1).bit_length())
    a, b = order[:-1], order[1:]
    lcp = np.zeros(L - 1, dtype=np.int64)
    for j in range(len(levels) - 1, -1, -1):
        lcp += (levels[j][a + lcp] == levels[j][b + lcp]).astype(np.int64) << j
    lo = np.concatenate(([0], np.minimum(lcp, n_max)))
    hi = np.minimum(L - order, n_max)
    starts = (np.bincount(lo + 1, minlength=n_max + 2)
              - np.bincount(hi + 1, minlength=n_max + 2))
    return np.cumsum(starts)[n_min:n_max + 1].tolist()


GOLDEN = ContinuedFraction((2,), (1,))  # the Fibonacci word's slope


def random_word(rng, p, length):
    return WordPrefix(p, bytes(rng.randrange(p) for _ in range(length)))


words_strategy = st.integers(min_value=1, max_value=4).flatmap(
    lambda p: st.tuples(
        st.just(p),
        st.lists(st.integers(min_value=0, max_value=p - 1),
                 min_size=2, max_size=120)))


class TestParikh:
    def test_empty_over_ternary(self):
        assert parikh("", alphabet_size=3) == (0, 0, 0)

    def test_declared_alphabet_is_bounded(self):
        assert len(parikh("", alphabet_size=256)) == 256
        with pytest.raises(ValueError, match="1..256"):
            parikh("", alphabet_size=257)

    def test_012(self):
        assert parikh("012") == (1, 1, 1)

    def test_0110(self):
        assert parikh("0110") == (2, 2)

    def test_equivalence(self):
        assert abelian_equivalent("01", "10")
        assert not abelian_equivalent("01", "11")
        assert abelian_equivalent("", "")

    def test_long_digit_string_matches_bytes(self):
        digits = "0120" * 250000 + "3"
        assert parikh(digits) == parikh(bytes(int(c) for c in digits))
        assert parikh(digits) == (500000, 250000, 250000, 1)

    @pytest.mark.parametrize("text", ["01a0", " 01", "0-1", "\u0663"])
    def test_non_digit_string_raises(self, text):
        with pytest.raises(ValueError):
            parikh(text)


class TestAbelianProfile:
    def test_thue_morse_small(self, tm4096):
        prof = abelian_profile(tm4096, 4)
        assert prof[3 - 1] == 2 and prof[4 - 1] == 3

    def test_fibonacci_constant_two(self, fib4096):
        assert abelian_profile(fib4096, 64) == [2] * 64

    def test_periodic(self):
        w = prefix_of(Periodic(bytes([0, 1])), 64)
        assert abelian_profile(w, 2) == [2, 1]

    def test_range_error(self, tm4096):
        with pytest.raises(ValueError):
            abelian_profile(tm4096, 5000)

    def test_n_min_slice(self, tm4096):
        assert abelian_profile(tm4096, 20, 11) == abelian_profile(tm4096, 20)[10:]

    def test_matches_both_references_on_random_words(self):
        rng = random.Random(12)
        for _ in range(60):
            p = rng.randint(1, 4)
            w = random_word(rng, p, rng.randint(2, 200))
            n_max = rng.randint(1, len(w))
            fast = abelian_profile(w, n_max)
            assert fast == sliding_profile(w, n_max)
            assert fast == recount_profile(w, n_max)

    @settings(max_examples=60, deadline=None)
    @given(words_strategy)
    def test_intermediate_counts_occur(self, data):
        # two windows whose i-th entries are c1 < c2 force every value
        # in between to occur at entry i of some window of the same length
        p, symbols = data
        w = WordPrefix(p, bytes(symbols))
        n = len(w) // 2 or 1
        classes = parikh_classes(w, n)
        for i in range(p):
            values = {v[i] for v in classes}
            assert values == set(range(min(values), max(values) + 1))

    @settings(max_examples=60, deadline=None)
    @given(words_strategy)
    def test_bounds_chain(self, data):
        p, symbols = data
        w = WordPrefix(p, bytes(symbols))
        n_max = min(len(w), 24)
        ab = abelian_profile(w, n_max)
        sw = subword_profile(w, n_max)
        for n in range(1, n_max + 1):
            assert 1 <= ab[n - 1] <= sw[n - 1] <= p ** n
            assert ab[n - 1] <= max_abelian_complexity(n, p)


class TestParikhClasses:
    def test_thue_morse_length3(self, tm4096):
        assert parikh_classes(tm4096, 3) == {(2, 1), (1, 2)}

    def test_thue_morse_length2(self, tm4096):
        assert parikh_classes(tm4096, 2) == {(1, 1), (0, 2), (2, 0)}

    def test_whole_word_window(self):
        w = WordPrefix(2, bytes([0, 1, 1, 0]))
        assert parikh_classes(w, 4) == {parikh(w)}


def brute_spreads(w, n_max):
    """Reference: each letter's max - min count over every window, per n."""
    symbols, p = w.symbols, w.alphabet_size
    out = []
    for n in range(1, n_max + 1):
        counts = [[symbols[i:i + n].count(a) for a in range(p)]
                  for i in range(len(symbols) - n + 1)]
        out.append([max(c[a] for c in counts) - min(c[a] for c in counts)
                    for a in range(p)])
    return out


class TestWindowPassLargeAlphabets:
    """The window pass against recounts, at alphabet sizes where the class
    code needs more than int64 and is compacted to dense ranks."""

    def check(self, w, n_max):
        ab = abelian_profile(w, n_max)
        assert ab == recount_profile(w, n_max)
        spreads = brute_spreads(w, n_max)
        assert balance_per_length(w, n_max) == [max(s) for s in spreads]
        prof = profile(w, n_max)
        assert list(prof.rho_ab) == ab
        assert list(prof.rho) == brute_subword(w, n_max)
        running = np.maximum.accumulate([max(s) for s in spreads]).tolist()
        assert list(prof.balance_running) == running
        for n in {1, n_max // 2 or 1, n_max}:
            expected = {tuple(w.symbols[i:i + n].count(a)
                              for a in range(w.alphabet_size))
                        for i in range(len(w) - n + 1)}
            assert parikh_classes(w, n) == expected

    def test_random_words_up_to_40_letters(self):
        rng = random.Random(40)
        for _ in range(25):
            p = rng.choice([3, 5, 10, 17, 30, 40])
            w = random_word(rng, p, rng.randint(2, 90))
            self.check(w, rng.randint(1, len(w)))

    def test_code_space_beyond_int64(self):
        # letter counts over 40 letters at n = 100 span far more than
        # 2^63 mixed-radix codes, so the encoder has to compact
        rng = random.Random(41)
        w = random_word(rng, 40, 300)
        n = 100
        windows = [w.symbols[i:i + n] for i in range(len(w) - n + 1)]
        classes = {tuple(win.count(a) for a in range(40)) for win in windows}
        radices = [max(c[a] for c in classes) - min(c[a] for c in classes) + 1
                   for a in range(40)]
        assert np.prod(radices[:-1], dtype=object) > 2**63
        assert abelian_profile(w, n, n) == [len(classes)]
        assert parikh_classes(w, n) == classes

    def test_thirty_letter_periodic_word(self):
        w = prefix_of(Periodic(bytes(range(30))), 600)
        assert abelian_profile(w, 20) == [30] * 20
        assert abelian_profile(w, 90, 60) == [
            1 if n % 30 == 0 else 30 for n in range(60, 91)]

    def test_compaction_writes_the_ranks_back(self):
        # at n = 64 and 65 every letter but one count spans two values, so
        # the 65 coded radices of 2 pass 2^63 and the codes are compacted
        # in place; without the write-back the windows missing letters 64
        # and 65 would collide
        w = prefix_of(Periodic(bytes(range(66))), 400)
        assert abelian_profile(w, 65, 64) == [66, 66]
        assert profile(w, 65).rho_ab[-2:] == (66, 66)
        assert len(parikh_classes(w, 65)) == 66


class TestDenseRanks:
    """``_dense_ranks`` against the inverse of ``np.unique``, whose ranks
    0..R-1 are the dense ranks 1..R less one, in both regimes and with
    ``out`` aliasing ``code``; ``_class_count`` against its length."""

    SPACES_AND_SIZES = [
        (1, 1), (7, 100), (4 * 100, 100), (4 * 100 + 1, 100),
        (300, 1000), (2**40, 100), (2**62, 5000),
    ]

    @pytest.mark.parametrize("space, size", SPACES_AND_SIZES)
    @pytest.mark.parametrize("alias", [False, True], ids=["out", "in-place"])
    def test_against_unique(self, space, size, alias):
        rng = np.random.default_rng(space % 1000 + size)
        code = rng.integers(0, space, size, dtype=np.int64)
        values, inverse = np.unique(code, return_inverse=True)
        out = code if alias else np.empty(size, dtype=np.int64)
        assert _dense_ranks(code, space, out) == len(values)
        assert np.array_equal(out, inverse.reshape(-1) + 1)

    @pytest.mark.parametrize("space, size", SPACES_AND_SIZES)
    def test_class_count_against_unique(self, space, size):
        rng = np.random.default_rng(space % 1000 + size)
        code = rng.integers(0, space, size, dtype=np.int64)
        distinct = len(np.unique(code))
        flags = np.empty(_FLAG_SPACE * size, dtype=bool)
        # the sorting regime sorts the codes in place
        assert _class_count(code.copy(), space, flags) == distinct

    @pytest.mark.parametrize("size, marks", [(63, False), (64, True)])
    def test_letters_into_narrow_scratch(self, size, marks):
        # level 0 of the rank levels: byte codes, a space of 256, int32
        # ranks and scratch; the space is marked from 64 codes on, and
        # only marking numbers the codes in the scratch
        rng = random.Random(size)
        code = np.frombuffer(bytes(rng.choice([0, 9, 255])
                                   for _ in range(size)), dtype=np.uint8)
        values, inverse = np.unique(code, return_inverse=True)
        out = np.empty(size, dtype=np.int32)
        flags = np.empty(_FLAG_SPACE * size, dtype=bool)
        numbers = np.full(_FLAG_SPACE * size, -1, dtype=np.int32)
        assert _dense_ranks(code, 256, out, flags, numbers) == len(values)
        assert np.array_equal(out, inverse.reshape(-1) + 1)
        assert bool((numbers != -1).any()) == marks


class TestFlagSpace:
    """Marking and sorting give one answer: every window pass reads the
    same at any ``_FLAG_SPACE``, which only moves the threshold between
    them, and both branches of both kernels run at each value tried."""

    @pytest.fixture(scope="class")
    def corpus(self, golden):
        rng = random.Random(2201)
        rauzy = FixedPoint(Morphism.from_strings({"0": "01", "1": "0"}), 0,
                           post=Morphism.from_strings({"0": "012",
                                                       "1": "021"}))
        return [fixed_point(THUE_MORSE, 0, 4096),
                characteristic_prefix(golden, 4096),
                prefix_of(Hubert(golden), 4096),
                prefix_of(rauzy, 4096),
                champernowne_prefix(4096)] + [
            WordPrefix(p, bytes(rng.randrange(p) for _ in range(4096)))
            for p in (3, 4)]

    @staticmethod
    def passes(w):
        return (profile(w, 64), abelian_profile(w, 300),
                abelian_profile(w, 300, 17), balance_per_length(w, 300),
                [parikh_classes(w, n) for n in (1, 7, 64, 300)],
                subword_profile(w, 300))

    @pytest.mark.parametrize("flag_space", [1, 64])
    def test_same_answer_either_side(self, monkeypatch, corpus, flag_space):
        expected = [self.passes(w) for w in corpus]
        hits = set()
        dense_ranks, class_count = _dense_ranks, _class_count

        def counting_ranks(code, space, out, flags=None, numbers=None):
            hits.add(("ranks", space <= flag_space * code.size))
            return dense_ranks(code, space, out, flags, numbers)

        def counting_count(code, space, flags):
            hits.add(("count", space <= flag_space * code.size))
            return class_count(code, space, flags)

        monkeypatch.setattr(complexity, "_FLAG_SPACE", flag_space)
        monkeypatch.setattr(complexity, "_dense_ranks", counting_ranks)
        monkeypatch.setattr(complexity, "_class_count", counting_count)
        assert [self.passes(w) for w in corpus] == expected
        assert hits == {(kernel, marks) for kernel in ("ranks", "count")
                        for marks in (False, True)}


class TestSubwordProfile:
    def test_sturmian_slope_n_plus_one(self, fib4096):
        assert subword_profile(fib4096, 32) == [n + 1 for n in range(1, 33)]

    def test_periodic_two(self):
        w = prefix_of(Periodic(bytes([0, 1])), 64)
        assert subword_profile(w, 5) == [2] * 5

    def test_thue_morse_length3_brute(self, tm4096):
        assert subword_profile(tm4096, 3)[-1] == 6
        assert {tm4096.symbols[i:i + 3] for i in range(len(tm4096) - 2)} == {
            bytes(t) for t in
            [(0, 0, 1), (0, 1, 0), (0, 1, 1), (1, 0, 0), (1, 0, 1), (1, 1, 0)]}

    def test_matches_brute_force_on_random_words(self):
        rng = random.Random(34)
        for _ in range(60):
            p = rng.randint(1, 4)
            w = random_word(rng, p, rng.randint(2, 200))
            n_max = rng.randint(1, len(w))
            assert subword_profile(w, n_max) == brute_subword(w, n_max)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_both_references(self, data):
        p = data.draw(st.integers(min_value=1, max_value=4))
        symbols = data.draw(st.lists(st.integers(0, p - 1),
                                     min_size=1, max_size=150))
        w = WordPrefix(p, bytes(symbols))
        n_max = data.draw(st.integers(1, len(w)))
        n_min = data.draw(st.integers(1, n_max))
        got = subword_profile(w, n_max, n_min)
        assert got == doubling_subword(w, n_max, n_min)
        assert got == brute_subword(w, n_max, n_min)

    @pytest.mark.parametrize("symbols, n_max, n_min", [
        (bytes(40), 40, 1),                       # p = 1, n_max = L
        (bytes([1]), 1, 1),                       # L = 1
        (bytes([0, 1, 1, 0, 1, 0, 0, 1]) * 5, 40, 1),   # n_max = L
        (bytes([0, 1, 1, 0, 1, 0, 0, 1]) * 5, 32, 1),   # n_max = 2^5
        (bytes([0, 1, 1, 0, 1, 0, 0, 1]) * 5, 33, 1),   # n_max = 2^5 + 1
        (bytes([0, 0, 1, 2, 0, 2, 1, 1, 0, 2]) * 7, 17, 16),  # n_min > 1
        (bytes([255, 0, 255, 255, 0]), 5, 2),     # largest letter, n_min > 1
        (bytes([0, 5, 1, 0]), 2, 1),              # letter above L + 1
    ])
    def test_edges(self, symbols, n_max, n_min):
        w = WordPrefix(max(symbols) + 1, symbols)
        got = subword_profile(w, n_max, n_min)
        assert got == doubling_subword(w, n_max, n_min)
        assert got == brute_subword(w, n_max, n_min)


class TestSubwordKernel:
    """The marking/sorting rank levels and the representative-only LCP
    lift against the full-sort oracle ``sorted_subword``."""

    @pytest.mark.parametrize("symbols", [
        fixed_point(THUE_MORSE, 0, 4096).symbols,
        champernowne_prefix(3000).symbols,
        bytes([0, 5, 1, 0]) * 300,                 # absent letters 2..4
        # one generator per word (a fresh one per symbol repeats one letter)
        bytes(map(random.Random(7).choice, [[2, 7, 200]] * 2000)),
        random_word(random.Random(8), 4, 1 << 12).symbols,
        bytes([3]) * 100,
        bytes([9]),
    ])
    def test_levels_match_sorted_oracle(self, symbols):
        top = len(symbols).bit_length()
        levels, R = _rank_levels(symbols, top)
        oracle, _ = sorted_rank_levels(symbols, top)
        assert len(levels) == len(oracle) == top + 1
        for lev, ref in zip(levels[1:], oracle[1:]):
            assert np.array_equal(lev, ref)
        # level 0 holds the dense ranks of the letters, in letter order
        dense = np.unique(oracle[0], return_inverse=True)[1].reshape(-1)
        assert np.array_equal(levels[0], dense)
        assert R == int(oracle[-1].max())

    @pytest.mark.parametrize("make, n_max, sorts", [
        pytest.param(lambda: fixed_point(THUE_MORSE, 0, 1 << 16), 1024, 2,
                     id="thue-morse-2^16"),       # marks 8 levels, sorts 2
        pytest.param(lambda: characteristic_prefix(GOLDEN, 1 << 17), 256, 0,
                     id="fibonacci-2^17"),        # marks all 8 levels
        pytest.param(lambda: champernowne_prefix(64 * 256), 256, 2,
                     id="champernowne"),          # marks 3, sorts 2, repeats 3
        pytest.param(lambda: random_word(random.Random(4), 4, 1 << 12), 64, 2,
                     id="random-4-letter-2^12"),  # marks 2, sorts 2, repeats 2
    ])
    def test_full_size_against_sorted(self, make, n_max, sorts, monkeypatch):
        w = make()
        expected = sorted_subword(w, n_max)
        calls = []
        argsort = np.argsort
        monkeypatch.setattr(
            np, "argsort", lambda *a, **k: calls.append(1) or argsort(*a, **k))
        assert subword_profile(w, n_max) == expected
        assert len(calls) == sorts

    @pytest.mark.parametrize("symbols, top, R", [
        (bytes(range(127)) * 2, 0, 127),     # the most ranks int8 holds
        (bytes(range(128)) * 2, 0, 128),
        # all 2^15 - 1 and 2^15 windows of length 16 differ: int16's bound
        (random_word(random.Random(12), 4, 2**15 - 1).symbols, 4, 2**15 - 1),
        (random_word(random.Random(12), 4, 2**15).symbols, 4, 2**15),
    ], ids=["int8-max", "int8-max+1", "int16-max", "int16-max+1"])
    def test_level_types_at_their_bounds(self, symbols, top, R):
        levels, top_R = _rank_levels(symbols, top)
        assert top_R == R
        oracle, _ = sorted_rank_levels(symbols, top)
        for lev, ref in zip(levels[1:], oracle[1:]):
            assert np.array_equal(lev, ref)
        assert np.array_equal(levels[0], np.unique(
            oracle[0], return_inverse=True)[1].reshape(-1))

    def test_pair_codes_past_int32(self):
        # a random half repeated: from length 16 on some 50,000 distinct
        # windows, fewer than L, so the next level's pair codes (R + 1)^2
        # pass 2^31 (but not 2^32), past any int32 code, and are sorted
        w = WordPrefix(4, random_word(random.Random(11), 4, 50_000).symbols * 2)
        built = [R for _, R in _doubled_ranks(w.symbols, 6)]
        assert any(2**31 <= (R + 1) ** 2 < 2**32 and R < len(w)
                   for R in built[:-1])
        assert subword_profile(w, 64) == sorted_subword(w, 64)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_fixed_points_of_primitive_morphisms(self, data):
        p = data.draw(st.integers(1, 3))
        letter = st.integers(0, p - 1)
        images = [bytes([0] + data.draw(st.lists(letter, min_size=1,
                                                 max_size=2)))]
        images += [bytes(data.draw(st.lists(letter, min_size=1, max_size=3)))
                   for _ in range(1, p)]
        m = Morphism(tuple(images))
        assume(_is_primitive(m))
        w = fixed_point(m, 0, data.draw(st.integers(1, 3000)))
        n_max = data.draw(st.integers(1, min(300, len(w))))
        assert subword_profile(w, n_max) == sorted_subword(w, n_max)

    @pytest.mark.parametrize("symbols, n_max", [
        (bytes([1]), 1),                          # L = 1, letter 0 absent
        (bytes([3, 3, 7]), 3),                    # n_max = L
        (bytes([3, 3, 7]), 2),                    # n_max = 2^1
        (bytes([0, 5, 1, 0]), 4),                 # n_max = L = 2^2
        (bytes([0, 5, 1, 0]), 3),                 # n_max = 2^1 + 1
        (bytes([0, 5, 1, 0]) * 9, 16),            # n_max = 2^4
        (bytes([0, 5, 1, 0]) * 9, 17),            # n_max = 2^4 + 1
        (bytes([2, 2, 9, 2, 9, 9, 2]) * 10, 64),  # n_max = 2^6
        (bytes([2, 2, 9, 2, 9, 9, 2]) * 10, 65),  # n_max = 2^6 + 1
        (bytes([2, 2, 9, 2, 9, 9, 2]) * 10, 70),  # n_max = L
    ])
    def test_edges_against_brute(self, symbols, n_max):
        w = WordPrefix(max(symbols) + 1, symbols)
        for n_min in {1, n_max}:
            assert subword_profile(w, n_max, n_min) == brute_subword(
                w, n_max, n_min)


class TestBalance:
    def test_fibonacci_is_balanced(self, fib4096):
        assert balance_bound(fib4096, 256) == 1

    def test_thue_morse_is_2_balanced(self, tm4096):
        assert balance_bound(tm4096, 256) == 2

    def test_constant_word(self):
        assert balance_bound(WordPrefix(1, bytes(64)), 16) == 0

    def test_brute_force_agreement(self):
        rng = random.Random(56)
        for _ in range(30):
            p = rng.randint(1, 3)
            w = random_word(rng, p, rng.randint(2, 120))
            n_max = rng.randint(1, len(w))
            per_n = balance_per_length(w, n_max)
            for n in range(1, n_max + 1):
                spreads = []
                for a in range(p):
                    counts = [w.symbols[i:i + n].count(a)
                              for i in range(len(w) - n + 1)]
                    spreads.append(max(counts) - min(counts))
                assert per_n[n - 1] == max(spreads)


class TestWorkBound:
    """A window pass or subword pass over more than 2^32 window steps
    (prefix length times the number of lengths) is refused up front."""

    LENGTH = 1 << 17
    OVER = (1 << 15) + 1  # 2^17 * (2^15 + 1) steps, just over 2^32

    @pytest.mark.parametrize("kernel", [abelian_profile, subword_profile,
                                        balance_per_length, profile])
    def test_refused_before_allocation(self, kernel):
        w = bytes(self.LENGTH)
        assert self.LENGTH * self.OVER > DEFAULT_SYMBOL_BUDGET * 64
        tracemalloc.start()
        try:
            with pytest.raises(BudgetError, match="window steps"):
                kernel(w, self.OVER)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16

    def test_n_min_narrows_the_work(self):
        w = bytes(self.LENGTH)
        assert abelian_profile(w, self.OVER, n_min=self.OVER - 1) == [1, 1]
        assert parikh_classes(w, self.OVER) == {(self.OVER,)}


class TestTribonacci:
    """The fixed point of 0 -> 01, 1 -> 02, 2 -> 0 on its factor-complete
    prefix, so each number is one of the infinite word."""

    N = 1000

    @pytest.fixture(scope="class")
    def prof(self):
        recipe = FixedPoint(TRIBONACCI, 0)
        length = complete_prefix_length(recipe, self.N).length
        return profile(prefix_of(recipe, length), self.N)

    def test_subword_complexity_is_2n_plus_1(self, prof):
        assert prof.rho == tuple(2 * n + 1 for n in range(1, self.N + 1))

    def test_2_balanced(self, prof):
        assert prof.balance == 2

    def test_abelian_complexity_between_3_and_7(self, prof):
        assert set(prof.rho_ab) <= set(range(3, 8))
        assert prof.rho_ab[0] == 3


class TestBinomialBound:
    def test_values(self):
        assert max_abelian_complexity(3, 2) == 4
        assert max_abelian_complexity(0, 7) == 1
        assert max_abelian_complexity(5, 3) == 21

    def test_realized_by_max_complexity_word(self):
        w = max_complexity_prefix(8 * 64)
        prof = abelian_profile(w, 64)
        assert prof == [max_abelian_complexity(n, 2) for n in range(1, 65)]


class TestCovenHedlundFiniteForm:
    # rho_ab(p) = 1 on a finite word iff w[i] == w[i+p] for all i
    def test_on_random_words(self):
        rng = random.Random(78)
        for _ in range(100):
            p = rng.randint(1, 5)
            base = bytes(rng.randrange(2) for _ in range(p))
            length = rng.randint(p + 1, 80)
            if rng.random() < 0.5:
                sym = (base * (length // p + 1))[:length]
            else:
                sym = bytes(rng.randrange(2) for _ in range(length))
            w = WordPrefix(2, sym)
            via_parikh = abelian_profile(w, p)[p - 1] == 1
            direct = all(sym[i] == sym[i + p] for i in range(length - p))
            assert via_parikh == direct


class TestProfileBundle:
    def test_fields(self, tm4096):
        prof = profile(tm4096, 4)
        assert prof.n_max == 4 and prof.prefix_len == 4096
        assert prof.rho_ab == (2, 3, 2, 3)
        assert prof.rho == (2, 4, 6, 10)
        assert prof.balance_running == (1, 2, 2, 2)
        assert prof.balance == 2

    def test_matches_separate_kernels(self):
        rng = random.Random(90)
        for _ in range(40):
            p = rng.randint(1, 4)
            w = random_word(rng, p, rng.randint(2, 150))
            n_max = rng.randint(1, len(w))
            prof = profile(w, n_max)
            assert list(prof.rho_ab) == abelian_profile(w, n_max)
            assert list(prof.rho) == subword_profile(w, n_max)
            running = np.maximum.accumulate(balance_per_length(w, n_max))
            assert list(prof.balance_running) == running.tolist()

    def test_invariants(self, fib4096):
        prof = profile(fib4096, 16)
        for n in range(1, 17):
            assert prof.rho_ab[n - 1] <= prof.rho[n - 1]
            assert prof.rho_ab[n - 1] <= max_abelian_complexity(n, 2)


def brute_vectors(w, n_max, n_min=1):
    """Reference: per n = n_min..n_max, the set of Parikh vectors of the
    length-n windows, each window recounted."""
    symbols, p = w.symbols, w.alphabet_size
    return [{tuple(symbols[i:i + n].count(a) for a in range(p))
             for i in range(len(symbols) - n + 1)}
            for n in range(n_min, n_max + 1)]


def force_pass(monkeypatch, reps):
    """Make every window pass read one window per distinct top-level
    window (``reps``) or every window, whatever the guard would pick."""
    def positions(symbols, p, n_max, n_min, top_level=None):
        if not reps:
            return None
        lev, R = top_level or list(_doubled_ranks(symbols, _top(n_max)))[-1]
        return np.sort(_representatives(lev, R, len(symbols)))
    monkeypatch.setattr(complexity, "_window_positions", positions)


def check_window_kernels(w, n_max, n_min, monkeypatch):
    """The window kernels against the recount, with the guard's pass and
    with each pass forced."""
    vectors = brute_vectors(w, n_max, n_min)
    rho_ab = [len(vs) for vs in vectors]
    spreads = [max(max(v[a] for v in vs) - min(v[a] for v in vs)
                   for a in range(w.alphabet_size)) for vs in vectors]
    sampled = {0, len(vectors) // 2, len(vectors) - 1}
    for reps in (None, False, True):
        if reps is not None:
            force_pass(monkeypatch, reps)
        assert abelian_profile(w, n_max, n_min) == rho_ab
        assert balance_per_length(w, n_max, n_min) == spreads
        for i in sampled:
            assert parikh_classes(w, n_min + i) == vectors[i]
        if n_min == 1:
            prof = profile(w, n_max)
            assert list(prof.rho_ab) == rho_ab
            assert list(prof.balance_running) == (
                np.maximum.accumulate(spreads).tolist())
            assert list(prof.rho) == brute_subword(w, n_max)


class TestRepresentativePass:
    """The window pass over one window per distinct top-level window,
    against the contiguous pass and the recount."""

    # most drawn morphisms on three or four letters are not primitive, and
    # the health check for filtered inputs failed some 5 runs in 60
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.filter_too_much])
    @given(st.data())
    def test_fixed_points_of_primitive_morphisms(self, data):
        p = data.draw(st.integers(3, 4))
        letter = st.integers(0, p - 1)
        images = [bytes([0] + data.draw(st.lists(letter, min_size=1,
                                                 max_size=2)))]
        images += [bytes(data.draw(st.lists(letter, min_size=1, max_size=3)))
                   for _ in range(1, p)]
        m = Morphism(tuple(images))
        assume(_is_primitive(m))
        post = None
        if data.draw(st.booleans()):
            q = data.draw(st.integers(3, 4))
            post = Morphism(tuple(
                bytes(data.draw(st.lists(st.integers(0, q - 1), min_size=1,
                                         max_size=3)))
                for _ in range(p)))
        w = prefix_of(FixedPoint(m, 0, post), data.draw(st.integers(2, 1500)))
        n_max = data.draw(st.integers(2, min(24, len(w))))
        n_min = data.draw(st.integers(1, n_max))
        with pytest.MonkeyPatch.context() as monkeypatch:
            check_window_kernels(w, n_max, n_min, monkeypatch)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_binary_fixed_points(self, data):
        # the extremes pass of p <= 2 letters, with unary words among them
        p = data.draw(st.integers(1, 2))
        letter = st.integers(0, p - 1)
        images = [bytes([0] + data.draw(st.lists(letter, min_size=1,
                                                 max_size=3)))]
        if p == 2:
            images.append(bytes(data.draw(st.lists(letter, min_size=1,
                                                   max_size=4))))
        m = Morphism(tuple(images))
        assume(_is_primitive(m))
        w = prefix_of(FixedPoint(m, 0), data.draw(st.integers(2, 1500)))
        n_max = data.draw(st.integers(2, min(40, len(w))))
        n_min = data.draw(st.integers(1, n_max))
        with pytest.MonkeyPatch.context() as monkeypatch:
            check_window_kernels(w, n_max, n_min, monkeypatch)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_eventually_periodic_slopes(self, data):
        terms = st.lists(st.integers(1, 5), max_size=3)
        slope = ContinuedFraction(tuple(data.draw(terms)),
                                  tuple(data.draw(terms.filter(bool))))
        w = characteristic_prefix(slope, data.draw(st.integers(2, 1500)))
        n_max = data.draw(st.integers(2, min(40, len(w))))
        n_min = data.draw(st.integers(1, n_max))
        with pytest.MonkeyPatch.context() as monkeypatch:
            check_window_kernels(w, n_max, n_min, monkeypatch)

    @pytest.mark.parametrize("slope", [GOLDEN, ContinuedFraction((), (2,))],
                             ids=["golden", "sqrt2"])
    def test_hubert_prefixes(self, slope, monkeypatch):
        w = prefix_of(Hubert(slope), 64 * 32)
        assert _window_positions(w.symbols, 3, 32, 1) is not None
        check_window_kernels(w, 32, 1, monkeypatch)

    @pytest.mark.parametrize("pattern, length, n_max, n_min", [
        (bytes([0, 1, 2]), 600, 50, 1),
        (bytes([0, 1, 0, 2, 3]), 900, 60, 1),
        (bytes([2, 0, 1, 1]), 1200, 40, 17),       # n_min > 1
        # windows running past the end at the top level (2^9) are read
        (bytes([0, 1, 2]), 4800, 300, 290),
        (bytes([0, 1, 1]), 900, 60, 1),
        (bytes([1, 0, 0, 1, 0]), 1200, 40, 17),
        (bytes([0, 0, 1]), 4800, 300, 290),
        (bytes([0, 1, 1, 0, 1]), 1100, 500, 440),  # n_max near L/2
    ], ids=["period-3", "period-5", "n_min-17", "past-the-end",
            "binary-period-3", "binary-n_min-17", "binary-past-the-end",
            "binary-near-half"])
    def test_periodic_words(self, pattern, length, n_max, n_min, monkeypatch):
        w = prefix_of(Periodic(pattern), length)
        assert _window_positions(w.symbols, w.alphabet_size,
                                 n_max, n_min) is not None
        check_window_kernels(w, n_max, n_min, monkeypatch)

    @pytest.mark.parametrize("length, n_max, n_min", [
        (50, 50, 1),    # n_max = L
        (50, 50, 44),
        (100, 70, 1),   # 2^top = 128 > L: every top-level window padded
        (300, 200, 150),
    ])
    def test_edges(self, length, n_max, n_min, monkeypatch):
        w = random_word(random.Random(length + n_max), 3, length)
        check_window_kernels(w, n_max, n_min, monkeypatch)

    @pytest.mark.parametrize("pattern, length, n_max, n_min", [
        (bytes([0, 1]), 50, 50, 1),          # n_max = L
        (bytes([0, 1, 1]), 50, 50, 44),
        (bytes([0, 0, 1, 0, 1]), 100, 99, 2),
        (bytes([1, 0, 1, 1]), 300, 290, 200),
        (bytes([0]), 70, 69, 3),             # one letter
    ])
    def test_binary_edges(self, pattern, length, n_max, n_min, monkeypatch):
        # at n near L nearly every row read starts past L - n_max
        w = WordPrefix(2, prefix_of(Periodic(pattern), length).symbols)
        check_window_kernels(w, n_max, n_min, monkeypatch)

    @pytest.mark.parametrize("w, n_max, n_min", [
        (WordPrefix(1, bytes(200)), 120, 1),
        (WordPrefix(2, bytes(200)), 120, 7),
        (fixed_point(THUE_MORSE, 0, 1000), 300, 1),
        (prefix_of(Periodic(bytes([0, 1, 1, 0, 1])), 700), 350, 300),
        (prefix_of(Hubert(GOLDEN), 800), 100, 1),
        (random_word(random.Random(3), 3, 400), 399, 2),
    ], ids=["unary", "binary-one-letter", "thue-morse", "binary-periodic",
            "hubert", "random-ternary"])
    def test_extremes_against_min_max(self, w, n_max, n_min):
        symbols, p = w.symbols, w.alphabet_size
        letters = range(p) if p > 2 else [p - 1]
        expected = np.array([
            [[f(symbols[i:i + n].count(a) for i in range(len(w) - n + 1))
              for n in range(n_min, n_max + 1)] for a in letters]
            for f in (min, max)])
        lev, R = list(_doubled_ranks(symbols, _top(n_max)))[-1]
        for positions in (None, np.sort(_representatives(lev, R, len(w)))):
            lo, hi = _extremes(symbols, p, n_max, n_min, positions)
            assert lo.shape == hi.shape == expected.shape[1:]
            assert np.array_equal(lo, expected[0])
            assert np.array_equal(hi, expected[1])

    def test_last_window_alone_holds_a_letter(self, monkeypatch):
        # only windows reaching the last symbol count a 3, and at each n
        # the one window at L - n is the only one that fits
        w = WordPrefix(4, bytes([0, 1, 2]) * 666 + bytes([3]))
        assert _window_positions(w.symbols, 4, 40, 1) is not None
        check_window_kernels(w, 40, 1, monkeypatch)

    @pytest.mark.parametrize("gather", [1, 3, 1200])
    @pytest.mark.parametrize("w, n_max, n_min", [
        (prefix_of(Hubert(GOLDEN), 1 << 11), 100, 1),
        (fixed_point(THUE_MORSE, 0, 1 << 10), 64, 1),
        (WordPrefix(4, bytes([0, 1, 2]) * 666 + bytes([3])), 40, 1),
        (prefix_of(Hubert(GOLDEN), 1 << 11), 100, 61),
    ], ids=["hubert", "thue-morse", "last-window", "hubert-n_min-61"])
    def test_ragged_tiles(self, w, n_max, n_min, gather, monkeypatch):
        # tiles of one window by one length, and at 1200 a ragged last
        # row tile (extremes) and, on three or more letters, length tile
        # (classes)
        lengths = n_max - n_min + 1
        _, R = list(_doubled_ranks(w.symbols, _top(n_max)))[-1]
        if gather == 1200:
            assert R % (gather // lengths)
            assert w.alphabet_size <= 2 or lengths % (gather // R)
        monkeypatch.setattr(complexity, "_GATHER", gather)
        check_window_kernels(w, n_max, n_min, monkeypatch)

    def test_reads_only_representatives(self):
        w = prefix_of(Hubert(GOLDEN), 1 << 14)
        positions = _window_positions(w.symbols, 3, 256, 1)
        assert len(positions) <= len(w) // 8
        cum = _prefix_sums(w.symbols, range(3), 256)
        heights = {tile.shape[1] for tile, _, _
                   in _window_rows(cum, len(w), 256, 1, positions,
                                   len(positions), 4)}
        assert max(heights) <= len(positions)

    @pytest.mark.parametrize("make", [
        lambda L: WordPrefix(1, bytes(L)),
        lambda L: WordPrefix(2, bytes(L)),    # the tracked letter 1 absent
        lambda L: fixed_point(THUE_MORSE, 0, L),
    ], ids=["unary", "binary-one-letter", "thue-morse"])
    def test_guard_is_total_on_short_words(self, make):
        # every range up to L = 12 and, beyond, n_min in {1, n_max}: the
        # guard tells ranges apart only by whether n_min == n_max
        for L in range(1, 65):
            w = make(L)
            vectors = brute_vectors(w, L)
            rho_ab = [len(vs) for vs in vectors]
            spreads = [max(max(v[a] for v in vs) - min(v[a] for v in vs)
                           for a in range(w.alphabet_size)) for vs in vectors]
            for n_max in range(1, L + 1):
                for n_min in range(1, n_max + 1) if L <= 12 else {1, n_max}:
                    positions = _window_positions(w.symbols, w.alphabet_size,
                                                  n_max, n_min)
                    if positions is not None:
                        assert 0 < len(positions) <= L // 2
                    span = slice(n_min - 1, n_max)
                    assert abelian_profile(w, n_max, n_min) == rho_ab[span]
                    assert balance_per_length(w, n_max, n_min) == spreads[span]
                assert parikh_classes(w, n_max) == vectors[n_max - 1]
                prof = profile(w, n_max)
                assert list(prof.rho_ab) == rho_ab[:n_max]
                assert list(prof.balance_running) == (
                    np.maximum.accumulate(spreads[:n_max]).tolist())

    def test_binary_reads_representatives(self):
        w = fixed_point(THUE_MORSE, 0, 4096)
        positions = _window_positions(w.symbols, 2, 64, 1)
        assert positions is not None and len(positions) <= len(w) // 2

    @pytest.mark.parametrize("symbols, p, n_max, n_min", [
        (champernowne_prefix(4096).symbols, 2, 64, 1),
        (random_word(random.Random(9), 2, 1 << 12).symbols, 2, 64, 1),
        (prefix_of(Hubert(GOLDEN), 4096).symbols, 3, 64, 64),
        (random_word(random.Random(9), 4, 1 << 12).symbols, 4, 64, 1),
    ], ids=["binary-champernowne", "binary-random", "single-length",
            "many-distinct"])
    def test_guard_keeps_the_contiguous_pass(self, symbols, p, n_max, n_min):
        assert _window_positions(symbols, p, n_max, n_min) is None

    @staticmethod
    def record_doubling(monkeypatch):
        built = []

        def doubled_ranks(*args):
            for lev, R in _doubled_ranks(*args):
                built.append(R)
                yield lev, R
        monkeypatch.setattr(complexity, "_doubled_ranks", doubled_ranks)
        return built

    def test_doubling_stops_once_past_the_cap(self, monkeypatch):
        symbols = random_word(random.Random(10), 4, 1 << 12).symbols
        built = self.record_doubling(monkeypatch)
        monkeypatch.setattr(complexity, "_many_windows", lambda *a: False)
        assert _window_positions(symbols, 4, 64, 1) is None
        # 4, 16, 256 distinct windows, then past 2^12 / 4 = 1024
        assert len(built) == 4 and built[-1] > len(symbols) // 4

    def test_many_windows_turned_away_before_the_doubling(self, monkeypatch):
        symbols = random_word(random.Random(10), 4, 1 << 12).symbols
        built = self.record_doubling(monkeypatch)
        assert _many_windows(symbols, 4, _top(64))
        assert _window_positions(symbols, 4, 64, 1) is None
        assert built == []

    @pytest.mark.parametrize("length, many", [(35, True), (36, False)])
    def test_many_windows_cap(self, length, many):
        # the cyclic 2-windows of the period 001102122 all differ, so every
        # longer window length shows 9 distinct windows, and 9 > L/4 below 36
        w = prefix_of(Periodic(bytes([0, 0, 1, 1, 0, 2, 1, 2, 2])), length)
        assert _many_windows(w.symbols, 3, 10) is many

    @pytest.mark.parametrize("length, many", [(15, True), (16, False)])
    def test_many_windows_cap_binary(self, length, many):
        # the cyclic 3-windows of the period 00010111 all differ, and
        # 8 > L/2 below 16
        w = WordPrefix(2, prefix_of(Periodic(bytes([0, 0, 0, 1, 0, 1, 1, 1])),
                                    length).symbols)
        assert _many_windows(w.symbols, 2, 10) is many

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_many_windows_against_the_recount(self, data):
        p = data.draw(st.integers(1, 5))
        length = data.draw(st.integers(1, 3000))
        rng = random.Random(data.draw(st.integers(0, 99)))
        if data.draw(st.booleans()):
            w = random_word(rng, p, length)
        else:  # periods near L/8 put the distinct count near the cap
            period = max(1, length // data.draw(st.integers(4, 20)))
            w = prefix_of(Periodic(random_word(rng, p, period).symbols),
                          length)
        top = data.draw(st.integers(0, 12))
        m = max(m for m in range(min(1 << top, length) + 1)
                if p ** m <= 4 * length)
        most = length // (2 if p <= 2 else 4)
        windows = {w.symbols[i:i + m] for i in range(length - m + 1)}
        many = _many_windows(w.symbols, p, top)
        assert many == (len(windows) > most)
        # a True is a proof that the top level has R > most
        if many:
            assert _rank_levels(w.symbols, top)[1] > most

    def test_profile_builds_the_levels_once(self, monkeypatch):
        calls = []
        monkeypatch.setattr(complexity, "_doubled_ranks",
                            lambda *a: calls.append(a) or _doubled_ranks(*a))
        w = prefix_of(Hubert(GOLDEN), 4096)
        assert _window_positions(w.symbols, 3, 64, 1) is not None
        calls.clear()
        profile(w, 64)
        assert len(calls) == 1
