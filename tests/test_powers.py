import random
import re
import sys
import threading
import tracemalloc
from fractions import Fraction
from itertools import accumulate, product
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_contfrac import (oracle_affine_sign, oracle_floor_scaled,
                           oracle_frac_less_than)

from abelianwords import complexity, contfrac, powers, words
from abelianwords.complexity import abelian_equivalent, balance_bound, parikh
from abelianwords.contfrac import (AffineThreshold, ContinuedFraction,
                                   InsufficientPrecisionError, frac_less_than)
from abelianwords.powers import (AbelianPowerOccurrence, PeriodPair,
                                 WeightsTooSmallError, congo_weights,
                                 min_abelian_period, sturmian_period_pair,
                                 sturmian_power_at, sturmian_powers,
                                 vdw_power_search, verify_abelian_power)
from abelianwords.words import (DEFAULT_SYMBOL_BUDGET, THUE_MORSE, BudgetError,
                                Morphism, WordPrefix, characteristic_prefix,
                                fixed_point)

HALF_ALPHA = AffineThreshold(0, Fraction(1, 2))


# -- Fraction oracle -------------------------------------------------------
# The Sturmian locator as it was written before the integer kernel: every
# threshold is an AffineThreshold of Fractions, decided by the Fraction
# oracles of test_contfrac, and blocks are counted by slicing.

def oracle_period_pair(alpha, k, delta):
    assert oracle_affine_sign(alpha, 1, Fraction(-1, 2)) < 0
    assert oracle_affine_sign(alpha, delta.v, delta.u) > 0
    assert oracle_affine_sign(alpha, delta.v - 1, delta.u) < 0
    if oracle_affine_sign(alpha, 2 * delta.v - 1, 2 * delta.u) < 0:
        mu, mv = delta.u, delta.v
    else:
        mu, mv = -delta.u, 1 - delta.v
    n = 0
    while True:
        q_next = alpha.convergent(n + 1).q
        if oracle_affine_sign(alpha, q_next * mv, q_next * mu - k) > 0:
            return PeriodPair(alpha.convergent(n).q, q_next, n)
        n += 2


def oracle_frac_lt(alpha, i, u, v):
    u, v = Fraction(u), Fraction(v)
    if i == v and u + oracle_floor_scaled(alpha, i) == 0:
        return False
    return oracle_frac_less_than(alpha, i, AffineThreshold(u, v))


def oracle_power_at(alpha, i, k, delta=HALF_ALPHA):
    below_half = oracle_affine_sign(alpha, 1, Fraction(-1, 2)) < 0
    work = alpha if below_half else alpha.complement()
    pair = oracle_period_pair(work, k, delta)
    du, dv = delta.u, delta.v
    if oracle_frac_lt(work, i, -du, 1 - dv):
        case1 = True
    elif oracle_frac_lt(work, i, 0, 1):
        case1 = False
    elif oracle_frac_lt(work, i, 1 - du, -dv):
        case1 = True
    else:
        case1 = False
    ell = pair.ell1 if case1 else pair.ell2
    word = characteristic_prefix(alpha, i - 1 + k * ell)
    blocks = [parikh(word.symbols[i - 1 + j * ell:i - 1 + (j + 1) * ell], 2)
              for j in range(k)]
    assert len(set(blocks)) == 1
    return AbelianPowerOccurrence(i - 1, ell, k, blocks[0])


def assert_block_ends_agree(alpha, occ):
    """The invariant behind the locator's case classification: on the
    working slope's characteristic word (the slope below 1/2, its
    complement above), the k blocks of a certificate end on one letter,
    at 0-based positions start + j*period - 1 for j = 1..k."""
    below_half = oracle_affine_sign(alpha, 1, Fraction(-1, 2)) < 0
    work = alpha if below_half else alpha.complement()
    word = characteristic_prefix(work, occ.start + occ.exponent * occ.period)
    ends = {word.symbols[occ.start + j * occ.period - 1]
            for j in range(1, occ.exponent + 1)}
    assert len(ends) == 1, (occ, ends)


def walk_period(alpha, i, k, delta=HALF_ALPHA):
    """The period at 1-based position i as the locator decided it before
    it read positions off one convergent: ``floor_scaled``, then at most
    three ``_frac_sign`` walks on the working slope."""
    loc = powers._locator(alpha, k, delta)
    work, pair = loc.work, loc.pair
    U, V, D = delta.form
    f = contfrac.floor_scaled(work, i)
    if contfrac._frac_sign(work, i, f, -U, D - V, D) < 0:
        return pair.ell1
    if contfrac._frac_sign(work, i, f, 0, D, D) < 0:
        return pair.ell2
    if contfrac._frac_sign(work, i, f, D - U, -V, D) < 0:
        return pair.ell1
    return pair.ell2


def count_calls(monkeypatch, module, name, log):
    """Replace ``module.name`` by a wrapper appending its position
    argument (the second) to ``log``."""
    real = getattr(module, name)

    def counting(*args):
        log.append(args[1])
        return real(*args)

    monkeypatch.setattr(module, name, counting)


def reference_vdw(symbols, k, weights):
    """The nu-progression scan in Python ints: smallest s, then smallest
    t0, with nu(t0) = nu(t0 + s) = ... = nu(t0 + k*s), or None."""
    nu = [0]
    for a in symbols:
        nu.append((nu[-1] + weights.alphas[a]) % weights.N)
    for s in range(1, len(symbols) // k + 1):
        for t0 in range(len(symbols) - k * s + 1):
            if nu[t0 + s] == nu[t0] and all(
                    nu[t0 + j * s] == nu[t0] for j in range(2, k + 1)):
                return t0, s
    return None


def int64_vdw(w, k, weights):
    """The nu-progression scan as it was before residues were narrowed:
    every nu value held in int64 (renamed to small ints past N*L = 2**63).
    Returns (t0, s) or None."""
    L = len(w)
    if L < k:
        return None
    if weights.N * L < 2**63:
        table = np.asarray(weights.alphas, dtype=np.int64)
        nu = np.zeros(L + 1, dtype=np.int64)
        np.cumsum(table[w.as_array()], out=nu[1:])
        nu %= weights.N
    else:
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
            return int(hits[0]), s
    return None


class TestVerify:
    def test_0110_is_abelian_square(self):
        assert verify_abelian_power(WordPrefix(2, bytes([0, 1, 1, 0])), 0, 2, 2)

    def test_0101_not_fourth_power_of_single_letters(self):
        assert not verify_abelian_power(WordPrefix(2, bytes([0, 1, 0, 1])), 0, 1, 4)

    def test_thue_morse_period4_square(self, tm4096):
        assert verify_abelian_power(tm4096, 0, 4, 2)  # 0110 ~ 1001

    def test_out_of_range_is_an_error_not_false(self):
        w = WordPrefix(2, bytes([0, 1, 1, 0]))
        with pytest.raises(ValueError, match="exceeds"):
            verify_abelian_power(w, 2, 2, 2)


class TestMinAbelianPeriod:
    def test_constant_word(self):
        assert min_abelian_period(WordPrefix(1, bytes(6)), 0, 3) == 1

    def test_thue_morse_square(self, tm4096):
        # blocks 01|10 already match, so the least period for k=2 is 2
        assert min_abelian_period(tm4096, 0, 2) == 2

    def test_fibonacci_cube(self, fib4096):
        # frozen from this oracle: 010|010|100 all share (2, 1)
        assert min_abelian_period(fib4096, 0, 3) == 3

    def test_none_when_prefix_too_short(self):
        assert min_abelian_period(WordPrefix(2, bytes([0, 1, 0, 1])), 0, 5) is None


class TestSearchWorkBound:
    """The brute-force and progression scans count the steps of each
    candidate period (k * ell symbols; L - k*s + 1 starts) and raise
    BudgetError once their total would pass ``complexity._WORK_BOUND``."""

    # Dekking's fixed point has no Abelian 4-power, so both scans run to
    # their last candidate; the progression scan starts at step M + 1
    DEKKING = fixed_point(Morphism.from_strings({"0": "011", "1": "0001"}),
                          0, 1024)
    CAP = len(DEKKING) // 4
    M = 10
    BRUTE = 4 * CAP * (CAP + 1) // 2
    VDW = ((CAP - M) * (len(DEKKING) + 1)
           - 4 * (CAP * (CAP + 1) - M * (M + 1)) // 2)

    def brute(self):
        return min_abelian_period(self.DEKKING, 0, 4)

    def vdw(self):
        return vdw_power_search(self.DEKKING, 4, congo_weights(self.M, 2))

    @pytest.mark.parametrize("search, work", [("brute", BRUTE), ("vdw", VDW)])
    def test_full_scan_within_the_bound(self, monkeypatch, search, work):
        monkeypatch.setattr(complexity, "_WORK_BOUND", work)
        assert getattr(self, search)() is None

    @pytest.mark.parametrize("search, work", [("brute", BRUTE), ("vdw", VDW)])
    def test_refused_past_the_bound(self, monkeypatch, search, work):
        monkeypatch.setattr(complexity, "_WORK_BOUND", work - 1)
        with pytest.raises(BudgetError, match="steps"):
            getattr(self, search)()

    def test_early_power_is_not_refused(self, monkeypatch):
        # periods 1 and 2 of the square at 0 read 2 + 4 symbols, and the
        # progression steps 3..5 read (10^5 - 2s + 1) starts each
        monkeypatch.setattr(complexity, "_WORK_BOUND", 5 * 10**5)
        w = fixed_point(THUE_MORSE, 0, 10**5)
        assert min_abelian_period(w, 0, 2) == 2
        assert vdw_power_search(w, 2, congo_weights(2, 2)).period == 5


class TestCongoWeights:
    def test_m1_r2(self):
        cw = congo_weights(1, 2)
        assert cw.alphas == (1, 2) and cw.N == 4

    def test_m2_r1(self):
        cw = congo_weights(2, 1)
        assert cw.alphas == (1,) and cw.N == 3

    def test_m1_r1(self):
        cw = congo_weights(1, 1)
        assert cw.alphas == (1,) and cw.N == 2

    @pytest.mark.parametrize("M, r", [(0, 2), (1, 0), (1, 257)])
    def test_out_of_range_is_refused(self, M, r):
        # r is a letter count, and letters are bytes
        with pytest.raises(ValueError, match="r <= 256"):
            congo_weights(M, r)

    @pytest.mark.parametrize("M", [1, 2, 3])
    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_only_zero_combination_vanishes(self, M, r):
        cw = congo_weights(M, r)
        assert cw.alphas[0] == 1
        for i in range(r - 1):
            assert cw.alphas[i + 1] > M * sum(cw.alphas[:i + 1])
        assert cw.N > M * sum(cw.alphas)
        for cs in product(range(-M, M + 1), repeat=r):
            if sum(c * a for c, a in zip(cs, cw.alphas)) % cw.N == 0:
                assert all(c == 0 for c in cs)


class TestVdwSearch:
    def test_constant_word_smallest_progression(self):
        # running sums are t mod N, so the first monochromatic progression
        # has step N (here 2); the certificate still verifies
        w = WordPrefix(1, bytes(60))
        occ = vdw_power_search(w, 5, congo_weights(1, 1))
        assert (occ.start, occ.period, occ.exponent) == (0, 2, 5)
        assert verify_abelian_power(w, occ.start, occ.period, occ.exponent)

    def test_thue_morse_square(self):
        w = fixed_point(THUE_MORSE, 0, 10**5)
        occ = vdw_power_search(w, 2, congo_weights(2, 2))
        assert (occ.start, occ.period) == (3, 5)  # frozen from a dev run
        assert verify_abelian_power(w, occ.start, occ.period, 2)
        assert min_abelian_period(w, occ.start, 2, occ.period) is not None

    def test_fibonacci_cube(self, golden):
        w = characteristic_prefix(golden, 10**5)
        assert balance_bound(w, 64) == 1  # M = 1 is admissible
        occ = vdw_power_search(w, 3, congo_weights(1, 2))
        assert (occ.start, occ.period, occ.exponent) == (0, 3, 3)
        assert verify_abelian_power(w, occ.start, occ.period, 3)

    @pytest.mark.parametrize("M", [2, 10**3, 3 * 10**9, 10**11])
    def test_matches_python_int_scan(self, M, tm4096):
        # the reference scans every step from s = 1; at M > L // k no step
        # s > M fits, and the search returns None before the residues
        weights = congo_weights(M, 2)
        for length, k in ((0, 2), (1, 2), (37, 3), (500, 3), (4096, 2)):
            w = WordPrefix(2, tm4096.symbols[:length])
            occ = vdw_power_search(w, k, weights)
            found = None if occ is None else (occ.start, occ.period)
            assert found == reference_vdw(w.symbols, k, weights), (length, k)
            if M > 10**9:  # N = (M + 1)**2 outweighs any block here
                assert found is None

    @settings(max_examples=300, deadline=None)
    @given(p=st.integers(1, 3), data=st.data(), M=st.integers(1, 7),
           k=st.integers(1, 4))
    def test_every_progression_has_step_above_m(self, p, data, M, k):
        # a block of s <= M letters weighs at least 1 and at most
        # s * max(alphas) < N, so no progression closes before s = M + 1;
        # the reference scan, which tries every step, agrees
        symbols = bytes(data.draw(st.lists(st.integers(0, p - 1),
                                           max_size=120)))
        weights = congo_weights(M, p)
        found = progression_found(WordPrefix(p, symbols), k, weights)
        assert found == reference_vdw(symbols, k, weights)
        assert found is None or found[1] > M

    @pytest.mark.parametrize("M", [1, 15, 16, 255, 256, 3 * 10**9, 10**11])
    def test_narrow_residues_match_int64_scan(self, M, golden):
        # N = (M + 1)**2 for two letters: up to M = 15 the residues fit
        # uint8, up to M = 255 uint16, then uint32; at 3 * 10**9 and 10**11
        # M is above L // k, and the search returns None at once
        weights = congo_weights(M, 2)
        length = 20000 if M < 100 else 3000  # large N: whole scans, no hit
        prefixes = [characteristic_prefix(golden, length)]
        if M > 1:  # M = 1 is admissible only for balance-1 words
            prefixes.append(fixed_point(THUE_MORSE, 0, length))
        for w in prefixes:
            for k in range(2, 6):
                for start in (0, 1, 7):
                    shifted = w.shift(start)
                    occ = vdw_power_search(shifted, k, weights)
                    found = None if occ is None else (occ.start, occ.period)
                    assert found == int64_vdw(shifted, k, weights), (M, k)

    @pytest.mark.parametrize("letters, M", [(2, 2), (8, 60)],
                             ids=["2", "8-letters-60"])
    def test_running_sums_built_once_per_word(self, letters, M):
        # k = 2..5 on one word and one set of weights share one residue
        # array.  Thue-Morse on the top two of eight letters at M = 60 takes
        # the Python-int path (N = 61**8, so N * (block + 1) >= 2**63) with
        # M < L // k, and has a square at step 121
        tm = fixed_point(THUE_MORSE, 0, 3000)
        w = WordPrefix(letters, bytes(letters - 2 + a for a in tm.symbols))
        weights = congo_weights(M, letters)
        python_ints = weights.N * (powers._RESIDUE_BLOCK + 1) >= 2**63
        assert python_ints == (letters == 8)
        powers._vdw_residues.cache_clear()
        found = []
        for k in range(2, 6):
            occ = vdw_power_search(w, k, weights)
            found.append(None if occ is None else (occ.start, occ.period))
            assert found[-1] == int64_vdw(w, k, weights), k
        if python_ints:
            assert found == [(5, 121), None, None, None]
        info = powers._vdw_residues.cache_info()
        assert (info.misses, info.hits) == (1, 3)
        nu = powers._vdw_residues(w.symbols, weights)
        assert not nu.flags.writeable

    @pytest.mark.parametrize("k", [2, 3])
    def test_scan_holds_three_bytes_per_symbol(self, k):
        # residues (uint8 at N = 9) and two boolean scan buffers of
        # _SCAN_BLOCK starts, so under two bytes per symbol at 2^20; the
        # block scratch is freed before the scan starts
        L = 1 << 20
        w = fixed_point(THUE_MORSE, 0, L)
        powers._vdw_residues.cache_clear()
        tracemalloc.start()
        try:
            occ = vdw_power_search(w, k, congo_weights(2, 2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            powers._vdw_residues.cache_clear()
        assert (occ.start, occ.period) == {2: (3, 5), 3: (0, 18)}[k]
        assert peak <= 2 * L, peak / L

    def test_alphabet_mismatch(self, tm4096):
        with pytest.raises(ValueError, match="letters"):
            vdw_power_search(tm4096, 2, congo_weights(2, 3))

    def test_none_when_prefix_exhausted(self):
        w = WordPrefix(2, bytes([0, 1]))
        assert vdw_power_search(w, 2, congo_weights(1, 2)) is None

    def test_cross_check_on_low_balance_words(self, golden, sqrt2m1):
        # Sturmian prefixes of assorted slopes all have balance 1, so M = 1
        # guarantees the progression blocks are Abelian equivalent; the
        # brute-force oracle must then find a period at the same start.
        rng = random.Random(4242)
        slopes = [golden, sqrt2m1]
        for a in range(3, 40):
            slopes.append(ContinuedFraction((a,), (1, 2)))
        weights = congo_weights(1, 2)
        for trial in range(50):
            cf = slopes[trial % len(slopes)]
            w = characteristic_prefix(cf, 2000).shift(rng.randrange(200))
            k = rng.randint(2, 4)
            occ = vdw_power_search(w, k, weights)
            assert occ is not None
            assert verify_abelian_power(w, occ.start, occ.period, k)
            oracle = min_abelian_period(w, occ.start, k, occ.period)
            assert oracle is not None and oracle <= occ.period

    def test_too_small_m_raises_when_blocks_differ(self):
        # this word's first nu-progression (s=7, t0=0) splits into blocks
        # 0100000 / 1011101 with Parikh vectors (6,1) / (2,5): its balance
        # is way above M=1, so the construction must report that
        w = WordPrefix(2, bytes(int(c) for c in "01000001011101"))
        with pytest.raises(WeightsTooSmallError, match="balance"):
            vdw_power_search(w, 2, congo_weights(1, 2))


def residues_by_hand(symbols, weights):
    """nu(0..L) in Python ints."""
    return [t % weights.N for t in
            accumulate(map(weights.alphas.__getitem__, symbols), initial=0)]


def progression_found(w, k, weights):
    """(t0, s) of the first nu-progression ``vdw_power_search`` stops at,
    read from its error where the blocks there are not equivalent, or
    None."""
    try:
        occ = vdw_power_search(w, k, weights)
    except WeightsTooSmallError as e:
        t0, s = re.search(r"t0=(\d+), s=(\d+)", str(e)).groups()
        return int(t0), int(s)
    return None if occ is None else (occ.start, occ.period)


class TestResidueBlocks:
    """The running sums are taken a block at a time, and the scan reads a
    block of starts at a time; tiny blocks put block edges inside short
    words, compared with the whole-word scans."""

    B = 5

    @pytest.fixture
    def tiny_blocks(self, monkeypatch):
        # cached residues were built with the real block size
        monkeypatch.setattr(powers, "_RESIDUE_BLOCK", self.B)
        monkeypatch.setattr(powers, "_SCAN_BLOCK", self.B - 2)
        powers._vdw_residues.cache_clear()
        yield
        powers._vdw_residues.cache_clear()

    @pytest.mark.parametrize("M, dtype", [(1, np.uint8), (16, np.uint16),
                                          (256, np.uint32)])
    @pytest.mark.parametrize("length", [0, 1, B - 1, B, B + 1, 3 * B + 2])
    def test_block_edges(self, tiny_blocks, length, M, dtype, golden):
        weights = congo_weights(M, 2)
        for w in (characteristic_prefix(golden, length),
                  fixed_point(THUE_MORSE, 0, length)):
            nu = powers._vdw_residues(w.symbols, weights)
            assert nu.dtype == dtype
            assert nu.tolist() == residues_by_hand(w.symbols, weights)
            for k in range(1, 5):
                found = progression_found(w, k, weights)
                assert found == int64_vdw(w, k, weights), (k, length)
                assert found == reference_vdw(w.symbols, k, weights)

    @settings(max_examples=150, deadline=None)
    @given(p=st.integers(2, 3), data=st.data(),
           block=st.integers(1, 8), scan=st.integers(1, 8),
           M=st.sampled_from([1, 16, 256]), k=st.integers(1, 4))
    def test_random_words(self, p, data, block, scan, M, k):
        symbols = bytes(data.draw(st.lists(st.integers(0, p - 1),
                                           max_size=40)))
        w = WordPrefix(p, symbols)
        weights = congo_weights(M, p)
        with mock.patch.object(powers, "_RESIDUE_BLOCK", block), \
                mock.patch.object(powers, "_SCAN_BLOCK", scan):
            powers._vdw_residues.cache_clear()
            try:
                nu = powers._vdw_residues(symbols, weights)
                found = progression_found(w, k, weights)
            finally:
                powers._vdw_residues.cache_clear()
        assert nu.tolist() == residues_by_hand(symbols, weights)
        assert found == reference_vdw(symbols, k, weights)
        assert found == int64_vdw(w, k, weights)

    # N = (M + 1)**2 on two letters, and int32 holds the block sums while
    # N * (B + 1) < 2**31: M = 18917 is the last int32 weight bound, 18918
    # the first int64 one, and at M = 50000 the residues themselves pass
    # 2**31
    @pytest.mark.parametrize("M, int32", [(18917, True), (18918, False),
                                          (50000, False)])
    def test_int32_edge(self, tiny_blocks, M, int32, golden):
        weights = congo_weights(M, 2)
        assert (weights.N * (self.B + 1) < 2**31) == int32
        # a run of 1s wraps mod N after M + 1 letters, so the carries
        # come within M + 1 of N
        for symbols in (characteristic_prefix(golden, 3 * self.B + 2).symbols,
                        bytes([1]) * (M + 3),
                        bytes([1]) * (M + 1) + bytes([0, 1]) * self.B):
            nu = powers._vdw_residues(symbols, weights)
            assert nu.tolist() == residues_by_hand(symbols, weights)


class TestSturmianPeriodPair:
    def test_golden_k2(self, golden):
        pair = sturmian_period_pair(golden, 2)
        assert (pair.ell1, pair.ell2, pair.n_even) == (8, 13, 4)

    def test_golden_k1(self, golden):
        # q_{n+1} > 1 / min(delta, alpha - delta) = 2/alpha ~ 5.24
        pair = sturmian_period_pair(golden, 1)
        assert (pair.ell1, pair.ell2, pair.n_even) == (8, 13, 4)

    def test_slope_above_half_is_rejected(self, golden):
        with pytest.raises(ValueError, match="complement"):
            sturmian_period_pair(golden.complement(), 2)

    def test_periods_are_consecutive_convergent_denominators(self, sqrt2m1):
        for k in range(1, 9):
            pair = sturmian_period_pair(sqrt2m1, k)
            assert pair.n_even % 2 == 0
            assert pair.ell1 == sqrt2m1.convergent(pair.n_even).q
            assert pair.ell2 == sqrt2m1.convergent(pair.n_even + 1).q

    def test_delta_validation(self, golden):
        with pytest.raises(ValueError, match="positive"):
            sturmian_period_pair(golden, 2, AffineThreshold(0, 0))
        with pytest.raises(ValueError, match="< alpha"):
            sturmian_period_pair(golden, 2, AffineThreshold(0, 2))

    @pytest.mark.parametrize("call", [
        lambda a: sturmian_power_at(a, 5, 2, 0.5),
        lambda a: sturmian_powers(a, [], 2, Fraction(1, 2)),
        lambda a: sturmian_period_pair(a, 2, 0.5),
    ], ids=["power_at", "powers", "period_pair"])
    def test_delta_must_be_a_threshold(self, golden, call):
        with pytest.raises(TypeError, match="AffineThreshold"):
            call(golden)

    def test_rational_delta(self, golden):
        # delta = 1/3 < alpha fails (1/3 < 0.382 holds, so it is valid);
        # use it and check the defining inequality exactly on the result
        delta = AffineThreshold(Fraction(1, 3), 0)
        pair = sturmian_period_pair(golden, 3, delta)
        # min(1/3, alpha - 1/3) = alpha - 1/3 ~ 0.0486; need q > 3/0.0486
        assert pair.ell2 == 89

    def test_slope_error_comes_before_delta_error(self, golden):
        # above 1/2 and with a delta out of range: the slope is refused
        # first, whichever bound delta breaks
        for delta in (AffineThreshold(0, 0), AffineThreshold(0, 2)):
            with pytest.raises(ValueError, match="slope must be < 1/2"):
                sturmian_period_pair(golden.complement(), 2, delta)


class TestFracSign:
    """``contfrac._frac_sign``, the one kernel behind ``frac_less_than``
    and the locator's threshold tests, against the Fraction oracle."""

    SLOPES = [ContinuedFraction((2,), (1,)), ContinuedFraction((), (2,))]

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(SLOPES), st.integers(1, 10**4), st.integers(1, 6),
           st.data())
    def test_matches_oracle(self, alpha, i, D, data):
        f = oracle_floor_scaled(alpha, i)
        if data.draw(st.booleans()):
            U = data.draw(st.integers(-12, 12))
            V = data.draw(st.integers(-12, 12))
        else:
            # near the identity: V = D*i - c and U = -D*f + r for small
            # c, r; c = r = 0 is the identity itself
            V = D * i - data.draw(st.integers(-2, 2))
            U = -D * f + data.draw(st.integers(-2, 2))
        sign = contfrac._frac_sign(alpha, i, f, U, V, D)
        assert (sign == 0) == (D * i == V and D * f + U == 0)
        assert (sign < 0) == oracle_frac_lt(alpha, i, Fraction(U, D),
                                            Fraction(V, D))

    @pytest.mark.parametrize("alpha", SLOPES, ids=["golden", "sqrt2"])
    def test_identity_is_zero(self, alpha):
        # {1*alpha} = alpha, over D = 1 and D = 3: floor(alpha) = 0
        assert contfrac._frac_sign(alpha, 1, 0, 0, 1, 1) == 0
        assert contfrac._frac_sign(alpha, 1, 0, 0, 3, 3) == 0
        with pytest.raises(ValueError, match="identity"):
            frac_less_than(alpha, 1, AffineThreshold(0, 1))


class TestSturmianPowerAt:
    def test_position_one_square(self, golden):
        occ = sturmian_power_at(golden, 1, 2)
        assert occ.start == 0 and occ.exponent == 2
        pair = sturmian_period_pair(golden, 2)
        assert occ.period in (pair.ell1, pair.ell2)

    def test_k1_single_block(self, golden):
        occ = sturmian_power_at(golden, 1, 1)
        assert occ.exponent == 1 and occ.start == 0

    def test_two_period_law_small(self, golden):
        w = characteristic_prefix(golden, 800)
        for k in (2, 3):
            pair = sturmian_period_pair(golden, k)
            for i in range(1, 51):
                occ = sturmian_power_at(golden, i, k)
                assert occ.period in (pair.ell1, pair.ell2)
                assert verify_abelian_power(w, occ.start, occ.period, k)
                assert_block_ends_agree(golden, occ)

    def test_slope_above_half_uses_complement(self, golden):
        comp = golden.complement()  # 1/phi ~ 0.618
        w = characteristic_prefix(comp, 800)
        for i in (1, 5, 9):
            occ = sturmian_power_at(comp, i, 3)
            assert verify_abelian_power(w, occ.start, occ.period, 3)
            assert_block_ends_agree(comp, occ)

    def test_internal_check_below_half_builds_one_prefix(self, monkeypatch):
        # below 1/2 the working slope is the slope itself, so the block-end
        # check reads the word the verification reads: no complement is
        # built and no second characteristic word is grown
        made, grown = [], []
        complement, grow = ContinuedFraction.complement, words._grow_characteristic

        def counting_complement(alpha):
            made.append(alpha)
            return complement(alpha)

        def counting_grow(alpha, word, want):
            grown.append(alpha)
            return grow(alpha, word, want)

        monkeypatch.setattr(ContinuedFraction, "complement", counting_complement)
        monkeypatch.setattr(words, "_grow_characteristic", counting_grow)
        powers._locator.cache_clear()
        alpha = ContinuedFraction((2,), (1,))  # golden, with fresh caches
        for i in range(1, 41):
            assert_block_ends_agree(alpha, sturmian_power_at(alpha, i, 3))
        assert made == []
        assert grown and all(a is alpha for a in grown)

    def test_above_half_never_grows_the_complement_word(self, monkeypatch):
        # periods are decided on the complement, but only the requested
        # slope's word is grown; a slope no other test uses, with the
        # locator caches cleared, so its working slope is fresh
        grown = []
        grow = words._grow_characteristic

        def counting(alpha, word, want):
            grown.append(alpha)
            return grow(alpha, word, want)

        monkeypatch.setattr(words, "_grow_characteristic", counting)
        powers._locator.cache_clear()
        alpha = ContinuedFraction((1, 3), (1, 2))
        for k in (2, 3, 5):
            sturmian_powers(alpha, range(1, 201), k)
            sturmian_power_at(alpha, 5, k)
        work = powers._locator(alpha, 3, powers.DEFAULT_DELTA).work
        assert work == alpha.complement() and work is not alpha
        assert work._word[0] == b"" and len(alpha._word[0]) > 0
        assert grown and all(a is alpha for a in grown)

    def test_complement_is_built_once_per_locator(self, monkeypatch):
        # the memoized locator of (slope, k, delta) builds the complement
        # once; an equal slope finds its locators already built
        made = []
        complement = ContinuedFraction.complement

        def counting(alpha):
            made.append(alpha)
            return complement(alpha)

        monkeypatch.setattr(ContinuedFraction, "complement", counting)
        powers._locator.cache_clear()
        slopes = [ContinuedFraction((1, 1), (1,)), ContinuedFraction((1, 1), (1,)),
                  ContinuedFraction((1, 4), (2, 3))]
        for alpha in slopes:
            for i in range(1, 201):
                for k in (2, 5):
                    sturmian_power_at(alpha, i, k)
        assert made == [slopes[0], slopes[0], slopes[2], slopes[2]]

    def test_many_certificates_grow_the_word_cache_logarithmically(
            self, monkeypatch):
        grown = []
        grow = words._grow_characteristic

        def counting(alpha, word, want):
            grown.append(want)
            return grow(alpha, word, want)

        monkeypatch.setattr(words, "_grow_characteristic", counting)
        alpha = ContinuedFraction((2,), (1,))  # fresh caches
        rng = random.Random(7000)
        longest = 0
        for i in rng.sample(range(1, 4097), 1000):
            for k in range(2, 9):
                occ = sturmian_power_at(alpha, i, k)
                longest = max(longest, occ.start + k * occ.period)
        assert len(alpha._word[0]) >= longest
        assert len(grown) <= longest.bit_length() + 1

    def test_block_parikh_is_of_first_block(self, golden):
        occ = sturmian_power_at(golden, 4, 2)
        w = characteristic_prefix(golden, occ.start + occ.period * 2)
        block = w.symbols[occ.start:occ.start + occ.period]
        assert occ.block_parikh == (block.count(0), block.count(1))


class TestSturmianAgainstFractionOracle:
    SLOPES = {"golden": ContinuedFraction((2,), (1,)),
              "sqrt2": ContinuedFraction((), (2,)),
              "golden-complement": ContinuedFraction((1, 1), (1,)),
              "sqrt2-complement": ContinuedFraction((1, 1), (2,))}
    DELTAS = {"alpha/2": HALF_ALPHA,
              "1/3": AffineThreshold(Fraction(1, 3), 0),
              "3alpha/4-1/10": AffineThreshold(Fraction(-1, 10),
                                               Fraction(3, 4))}
    POSITIONS = sorted(set(range(1, 13)) | {4999, 5000} | set(
        random.Random(2016).sample(range(13, 5000), 40)))

    @pytest.mark.parametrize("delta", DELTAS, ids=list(DELTAS))
    @pytest.mark.parametrize("slope", SLOPES, ids=list(SLOPES))
    def test_certificates_identical(self, slope, delta):
        alpha, d = self.SLOPES[slope], self.DELTAS[delta]
        for k in range(1, 9):
            for i in self.POSITIONS:
                occ = sturmian_power_at(alpha, i, k, d)
                assert occ == oracle_power_at(alpha, i, k, d), (i, k)
                assert_block_ends_agree(alpha, occ)

    @pytest.mark.parametrize("delta", DELTAS, ids=list(DELTAS))
    @pytest.mark.parametrize("slope", SLOPES, ids=list(SLOPES))
    def test_batch_matches_positions_one_by_one(self, slope, delta):
        # the batch runs on an equal slope with cold caches, in an order
        # with repeats, so it grows the word itself and keeps the order
        alpha, d = self.SLOPES[slope], self.DELTAS[delta]
        fresh = ContinuedFraction(alpha.preperiod, alpha.period)
        positions = self.POSITIONS[::-1] + self.POSITIONS[:5]
        for k in range(1, 9):
            batch = sturmian_powers(fresh, positions, k, d)
            assert batch == [sturmian_power_at(alpha, i, k, d)
                             for i in positions], k
            assert batch == [oracle_power_at(alpha, i, k, d)
                             for i in positions], k

    def test_period_pair_is_computed_once_per_slope(self, golden):
        first = sturmian_period_pair(golden, 5)
        assert sturmian_period_pair(ContinuedFraction((2,), (1,)), 5) is first
        assert first == oracle_period_pair(golden, 5, HALF_ALPHA)


class TestPairClassifier:
    """Periods read off the locator's one convergent, against the walk
    they replace (``walk_period``) and the Fraction oracle."""

    @pytest.fixture
    def fresh_locators(self):
        # the locator's convergent depends on the symbol budget
        powers._locator.cache_clear()
        yield
        powers._locator.cache_clear()

    CASES = {"golden": (ContinuedFraction((2,), (1,)), HALF_ALPHA),
             "golden-1/3": (ContinuedFraction((2,), (1,)),
                            AffineThreshold(Fraction(1, 3), 0)),
             "sqrt2-3alpha/4-1/10": (ContinuedFraction((), (2,)),
                                     AffineThreshold(Fraction(-1, 10),
                                                     Fraction(3, 4))),
             "golden-complement": (ContinuedFraction((1, 1), (1,)), HALF_ALPHA),
             "[0;1,3,(1,2)]": (ContinuedFraction((1, 3), (1, 2)), HALF_ALPHA)}

    @pytest.mark.parametrize("budget", [100, 1000])
    @pytest.mark.parametrize("case", CASES, ids=list(CASES))
    def test_reach_boundary(self, fresh_locators, monkeypatch, case, budget):
        alpha, delta = self.CASES[case]
        U, V, D = delta.form
        for k in (1, 3, 8):
            monkeypatch.setattr(words, "DEFAULT_SYMBOL_BUDGET", budget)
            loc = powers._locator(alpha, k, delta)
            # the bounds the pair's exactness rests on, at an even index
            m = next(n for n in range(0, 200, 2)
                     if loc.work.convergent(n).q == loc.q)
            assert loc.work.convergent(m).p == loc.p
            assert budget <= loc.reach < loc.q
            assert D * loc.reach + abs(V) < loc.work.convergent(m + 1).q
            # certificates past the small budget need the real one back;
            # the cached locator keeps its small reach
            monkeypatch.setattr(words, "DEFAULT_SYMBOL_BUDGET",
                                DEFAULT_SYMBOL_BUDGET)
            positions = range(loc.reach - 3, loc.reach + 4)
            walked = []
            count_calls(monkeypatch, powers, "floor_scaled", walked)
            batch = sturmian_powers(alpha, positions, k, delta)
            monkeypatch.undo()
            assert walked == [i for i in positions if i > loc.reach]
            assert [o.period for o in batch] == [
                walk_period(alpha, i, k, delta) for i in positions]
            assert batch == [oracle_power_at(alpha, i, k, delta)
                             for i in positions]

    def test_identity_falls_back_to_the_walk(self, golden, monkeypatch):
        # delta = 1 - 2*alpha: {3*alpha} = 3*alpha - 1 = alpha - delta, so
        # the first test at i = 3 is an identity and its product is 0
        delta = AffineThreshold(1, -2)
        U, V, D = delta.form
        walked = []
        count_calls(monkeypatch, powers, "_frac_sign", walked)
        for k in range(1, 9):
            loc = powers._locator(golden, k, delta)
            assert D * (3 * loc.p % loc.q) == loc.below
            occ = sturmian_power_at(golden, 3, k, delta)
            assert occ.period == walk_period(golden, 3, k, delta)
            assert occ == oracle_power_at(golden, 3, k, delta)
        # the identity walks and reads 0, the next test decides from its
        # product: {3*alpha} < alpha
        assert walked == [3] * 8

    @settings(max_examples=80, deadline=None)
    @given(pre=st.lists(st.integers(1, 6), max_size=3),
           per=st.lists(st.integers(1, 6), min_size=1, max_size=3),
           delta=st.sampled_from([HALF_ALPHA, AffineThreshold(0, Fraction(1, 3)),
                                  AffineThreshold(Fraction(-1, 50),
                                                  Fraction(3, 4))]),
           k=st.integers(1, 8),
           positions=st.lists(st.integers(1, 3000), max_size=5))
    def test_eventually_periodic_slopes(self, pre, per, delta, k, positions):
        # every working slope is above 1/8, so each delta lies in (0, alpha)
        alpha = ContinuedFraction(tuple(pre), tuple(per))
        positions = [1, 2] + positions
        batch = sturmian_powers(alpha, positions, k, delta)
        assert [o.period for o in batch] == [
            walk_period(alpha, i, k, delta) for i in positions]
        assert batch == [oracle_power_at(alpha, i, k, delta)
                         for i in positions]

    # (terms, i, k, (start, period) or the InsufficientPrecisionError
    # message): (2, 3, 4) and (2, 3, 4, 5) reach i = 6 off p_2/q_2 = 3/7
    # and walk past it (the latter may not read p_4/q_4, which has no
    # successor), (3,) has no convergent to read, and the 50-term
    # expansion reads every position off one
    FIFTY = (2,) + (1,) * 49
    FINITE = [((2, 3, 4), 1, 2, (0, 7)), ((2, 3, 4), 5, 2, (4, 7)),
              ((2, 3, 4), 40, 3, "term 4 requested, only 3 available"),
              ((2, 3, 4), 1000, 2, "term 4 requested, only 3 available"),
              ((2, 3, 4, 5), 1, 2, (0, 7)), ((2, 3, 4, 5), 5, 2, (4, 7)),
              ((2, 3, 4, 5), 40, 3, (39, 30)),
              ((2, 3, 4, 5), 1000, 2, "term 5 requested, only 4 available")] + [
        ((3,), i, k, "term 2 requested, only 1 available")
        for i, k in ((1, 2), (5, 2), (40, 3), (1000, 2))] + [
        (FIFTY, 1, 2, (0, 8)), (FIFTY, 5, 2, (4, 13)),
        (FIFTY, 40, 3, (39, 34)), (FIFTY, 1000, 2, (999, 13))]

    @pytest.mark.parametrize("terms, i, k, expected", FINITE)
    def test_finite_expansions(self, terms, i, k, expected):
        alpha = ContinuedFraction(terms)
        if isinstance(expected, str):
            for certify in (lambda: sturmian_power_at(alpha, i, k),
                            lambda: sturmian_powers(alpha, [1, i], k)):
                with pytest.raises(InsufficientPrecisionError,
                                   match=re.escape(expected)):
                    certify()
        else:
            occ = sturmian_power_at(alpha, i, k)
            assert (occ.start, occ.period) == expected
            assert sturmian_powers(alpha, [i], k) == [occ]

    def test_finite_reach(self):
        for terms in ((2, 3, 4), (2, 3, 4, 5)):
            reach = powers._locator(ContinuedFraction(terms), 2,
                                    HALF_ALPHA).reach
            assert reach == 6  # min(q_2 - 1, (q_3 - 1 - |V|) // D), q = 7, 30
        assert powers._locator(ContinuedFraction(self.FIFTY), 2,
                               HALF_ALPHA).reach >= DEFAULT_SYMBOL_BUDGET

    def test_bad_position_before_bad_delta(self, golden):
        for bad in (AffineThreshold(0, 0), AffineThreshold(0, 2)):
            with pytest.raises(ValueError, match="i >= 1 and k >= 1"):
                sturmian_powers(golden, [3, 0], 2, bad)
            with pytest.raises(ValueError, match="i >= 1 and k >= 1"):
                sturmian_power_at(golden, 1, 0, bad)
        with pytest.raises(ValueError, match="i >= 1 and k >= 1"):
            sturmian_power_at(ContinuedFraction((3,)), 0, 2)

    @pytest.mark.parametrize("alpha", [ContinuedFraction((2,), (1,)),
                                       ContinuedFraction((), (2,))],
                             ids=["golden", "sqrt2"])
    def test_no_walk_inside_the_reach(self, alpha, monkeypatch):
        for k in range(1, 9):
            powers._locator(alpha, k, powers.DEFAULT_DELTA)
        floors, fracs, signs = [], [], []
        count_calls(monkeypatch, powers, "floor_scaled", floors)
        count_calls(monkeypatch, powers, "_frac_sign", fracs)
        count_calls(monkeypatch, contfrac, "_sign", signs)
        for k in range(1, 9):
            sturmian_powers(alpha, range(2, 5001), k)
        assert floors == fracs == signs == []
        # at i = 1 the second test, {alpha} against alpha, is an identity
        for k in range(1, 9):
            sturmian_powers(alpha, [1], k)
        assert floors == [] and fracs == [1] * 8 and len(signs) == 8


class TestSturmianBatch:
    def test_empty_batch(self, golden):
        assert sturmian_powers(golden, [], 3) == []

    def test_accepts_any_iterable(self, golden):
        assert sturmian_powers(golden, (i for i in (5, 1, 5)), 2) == \
            [sturmian_power_at(golden, i, 2) for i in (5, 1, 5)]

    def test_numpy_positions_become_ints(self, golden):
        # numpy integers would make the exact products wrap at 2**63
        batch = sturmian_powers(golden, np.arange(1, 400), 5)
        assert batch == [sturmian_power_at(golden, i, 5) for i in range(1, 400)]
        assert all(type(o.start) is int for o in batch)
        assert sturmian_power_at(golden, np.int64(77), 5) == batch[76]
        with pytest.raises(TypeError):
            sturmian_powers(golden, [1.0], 2)
        with pytest.raises(TypeError):
            sturmian_power_at(golden, 1.0, 2)

    @pytest.mark.parametrize("positions, k", [([1, 0], 2), ([3], 0), ([-2], 1)])
    def test_bad_arguments(self, golden, positions, k):
        with pytest.raises(ValueError, match="i >= 1 and k >= 1"):
            sturmian_powers(golden, positions, k)

    def test_bad_delta_even_when_empty(self, golden):
        with pytest.raises(ValueError, match="< alpha"):
            sturmian_powers(golden, [], 2, AffineThreshold(0, 2))

    def test_past_the_symbol_budget(self, golden):
        # the certificate's last block would end past the budget: refused
        # before the word grows, as a prefix of that length would be
        before = len(golden._word[0])
        with pytest.raises(BudgetError):
            sturmian_powers(golden, [1, DEFAULT_SYMBOL_BUDGET], 2)
        with pytest.raises(BudgetError):
            sturmian_power_at(golden, DEFAULT_SYMBOL_BUDGET, 2)
        assert len(golden._word[0]) == before

    def test_word_grows_once_per_batch(self, monkeypatch):
        grown = []
        grow = words._grow_characteristic

        def counting(alpha, word, want):
            grown.append(want)
            return grow(alpha, word, want)

        monkeypatch.setattr(words, "_grow_characteristic", counting)
        alpha = ContinuedFraction((2,), (1,))  # fresh caches
        batch = sturmian_powers(alpha, range(1, 3001), 8)
        assert len(grown) == 1
        assert grown[0] >= max(o.start + 8 * o.period for o in batch)

    @pytest.mark.parametrize("slope", [ContinuedFraction((2,), (1,)),
                                       ContinuedFraction((1, 1), (1,))],
                             ids=["golden", "golden-complement"])
    def test_tampered_verification_raises(self, slope, monkeypatch):
        monkeypatch.setattr(powers, "_common_parikh", lambda *args: None)
        with pytest.raises(AssertionError, match="failed verification"):
            sturmian_power_at(slope, 4, 3)
        with pytest.raises(AssertionError, match="failed verification"):
            sturmian_powers(slope, [1, 2, 3], 2)

    def test_block_parikh_is_in_the_requested_slopes_letters(self):
        # above 1/2 the periods are decided on the complement, but the
        # certificate counts the requested slope's word
        comp = ContinuedFraction((1, 1), (1,))
        w = characteristic_prefix(comp, 5000)
        for occ in sturmian_powers(comp, range(1, 200), 4):
            block = w.symbols[occ.start:occ.start + occ.period]
            assert occ.block_parikh == (block.count(0), block.count(1))
            assert occ.block_parikh[1] > occ.block_parikh[0]


class TestSturmianSharedSlope:
    def test_threads_sharing_fresh_slopes_match_serial(self):
        # Each round draws a slope no other test uses.  The serial results
        # come from the same slope with one period unrolled into the
        # preperiod: an equal value under a different cache key, so the
        # threads grow the shared convergent cache and compute the period
        # pair themselves, concurrently.
        jobs = [(i, k) for k in range(1, 9) for i in (1, 2, 3, 50, 777, 4000)]
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for a in range(11, 17):
                serial = ContinuedFraction((a, 3, 1, 4), (3, 1, 4))
                expected = [sturmian_power_at(serial, i, k) for i, k in jobs]
                shared = ContinuedFraction((a,), (3, 1, 4))
                barrier = threading.Barrier(8)
                results = [None] * 8

                def run(slot, order):
                    barrier.wait()
                    got = {job: sturmian_power_at(shared, *job)
                           for job in order}
                    results[slot] = [got[job] for job in jobs]

                threads = [threading.Thread(
                    target=run,
                    args=(slot, random.Random(slot).sample(jobs, len(jobs))))
                    for slot in range(8)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                assert not any(t.is_alive() for t in threads)
                assert results == [expected] * 8
        finally:
            sys.setswitchinterval(old)


    def test_threads_batching_one_fresh_slope_match_serial(self):
        # four threads certify the same fresh slope at once through the
        # batch: they build its locator, grow its convergents and its word
        positions = list(range(1, 400)) + [4000, 777, 3]
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for a in (21, 22, 23):
                serial = ContinuedFraction((a, 2, 7), (2, 7))
                expected = [sturmian_powers(serial, positions, k)
                            for k in range(1, 9)]
                shared = ContinuedFraction((a,), (2, 7))
                barrier = threading.Barrier(4)
                results = [None] * 4

                def run(slot):
                    barrier.wait()
                    order = random.Random(slot).sample(range(1, 9), 8)
                    got = {k: sturmian_powers(shared, positions, k)
                           for k in order}
                    results[slot] = [got[k] for k in range(1, 9)]

                threads = [threading.Thread(target=run, args=(slot,))
                           for slot in range(4)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                assert not any(t.is_alive() for t in threads)
                assert results == [expected] * 4
        finally:
            sys.setswitchinterval(old)


class TestRLemmaChain:
    def test_equal_end_marks_give_equivalent_factors(self, golden):
        # when |{i a} - {j a}| < a and the letters at 1-based positions
        # i+kk and j+kk agree, the two length-(kk+1) factors starting at i
        # and j are Abelian equivalent; the hypothesis is decided exactly
        # via {i a} - {j a} = (i - j) a - (fi - fj)
        from abelianwords.contfrac import _sign, floor_scaled

        w = characteristic_prefix(golden, 3000)
        rng = random.Random(7)
        checked = 0
        while checked < 200:
            i = rng.randint(1, 1200)
            j = rng.randint(1, 1200)
            kk = rng.randint(1, 500)
            if i == j:
                continue
            d = i - j
            f = floor_scaled(golden, i) - floor_scaled(golden, j)
            #  -alpha < d*alpha - f < alpha
            if not (_sign(golden, d - 1, -f) < 0
                    and _sign(golden, d + 1, -f) > 0):
                continue
            if w.symbols[i + kk - 1] != w.symbols[j + kk - 1]:
                continue
            u = w.symbols[i - 1:i + kk]
            v = w.symbols[j - 1:j + kk]
            assert abelian_equivalent(u, v, 2)
            checked += 1


class TestFractionalPartIdentity:
    @settings(max_examples=120, deadline=None)
    @given(st.fractions(min_value=-50, max_value=50, max_denominator=40),
           st.fractions(min_value=-50, max_value=50, max_denominator=40),
           st.integers(min_value=1, max_value=10))
    def test_fpart_decomposition(self, x, y, p):
        # {x + p y} = {x} + p {y} - (p - q) with the unique integer q for
        # which p - q <= {x} + p {y} < p - q + 1
        def fpart(z):
            return z - (z.numerator // z.denominator)

        s = fpart(x) + p * fpart(y)
        q = p - (s.numerator // s.denominator)
        assert p - q <= s < p - q + 1
        assert fpart(x + p * y) == fpart(x) + p * fpart(y) - (p - q)
