"""End-to-end acceptance suite.

Every criterion is an exact combinatorial identity checked at full scale
with zero tolerance.  Each test prints one line - run with

    pytest tests/test_acceptance.py -v -s

to see them.  The printed timings are informational; the assertions are
purely about the computed values.
"""

import random
import time

import pytest

from abelianwords.complexity import (abelian_profile, balance_bound,
                                     max_abelian_complexity, subword_profile)
from abelianwords.powers import (congo_weights, min_abelian_period,
                                 sturmian_period_pair, sturmian_power_at,
                                 sturmian_powers, vdw_power_search,
                                 verify_abelian_power)
from abelianwords.words import (CONSTANT3, FIBONACCI, THUE_MORSE, WordPrefix,
                                apply_morphism, champernowne_prefix,
                                characteristic_prefix, fixed_point,
                                hubert_ternary, max_complexity_prefix)

# rho(n) of mu(champernowne) on a 2^16 prefix for n = 1..20, frozen from the
# brute-force factor oracle (see test_criterion_05)
MU_CHAMPERNOWNE_RHO_20 = [2, 4, 6, 10, 14, 22, 30, 46, 62, 94, 126, 190,
                          254, 382, 510, 766, 1022, 1534, 2046, 3070]


def report(num: int, started: float, text: str):
    print(f"\ncriterion {num:02d} PASS ({time.time() - started:5.2f}s): {text}")


@pytest.fixture(scope="module")
def tm17():
    return fixed_point(THUE_MORSE, 0, 1 << 17)


@pytest.fixture(scope="module")
def tm_million():
    return fixed_point(THUE_MORSE, 0, 10**6)


@pytest.fixture(scope="module")
def char17(golden, sqrt2m1):
    return {"golden": characteristic_prefix(golden, 1 << 17),
            "sqrt2": characteristic_prefix(sqrt2m1, 1 << 17)}


@pytest.fixture(scope="module")
def muc16():
    return apply_morphism(THUE_MORSE, champernowne_prefix(1 << 15))


def test_criterion_01_thue_morse_profile(tm17):
    t0 = time.time()
    prof = abelian_profile(tm17, 1024)
    for n in range(1, 1025):
        assert prof[n - 1] == (2 if n % 2 else 3), f"rho_ab({n}) = {prof[n - 1]}"
    report(1, t0, "Thue-Morse prefix 2^17: rho_ab = 2 (odd) / 3 (even), n <= 1024")


def test_criterion_02_sturmian_constants(char17):
    t0 = time.time()
    for name, w in char17.items():
        assert abelian_profile(w, 1024) == [2] * 1024, name
        assert subword_profile(w, 256) == [n + 1 for n in range(1, 257)], name
    report(2, t0, "both slopes, prefix 2^17: rho_ab = 2 (n <= 1024) "
                  "and rho = n+1 (n <= 256)")


def test_criterion_03_ternary_balanced_word(golden):
    t0 = time.time()
    w = hubert_ternary(golden, 1 << 16)
    assert abelian_profile(w, 512) == [3] * 512
    report(3, t0, "balanced ternary word over the golden slope, prefix 2^16: "
                  "rho_ab = 3, n <= 512")


def test_criterion_04_ternary_morphic_image():
    t0 = time.time()
    inner = fixed_point(FIBONACCI, 0, 1 << 15)
    w = apply_morphism(CONSTANT3, inner)
    assert len(w) == 3 << 15
    assert abelian_profile(w, 512) == [3] * 512
    report(4, t0, "ternary image of the Fibonacci word, prefix 3*2^15: "
                  "rho_ab = 3, n <= 512")


def test_criterion_05_exponential_vs_bounded(muc16):
    t0 = time.time()
    assert len(muc16) == 1 << 16
    prof = abelian_profile(muc16, 512)
    for n in range(1, 513):
        assert prof[n - 1] == (2 if n % 2 else 3)  # <= 3, equal to TM values
    rho = subword_profile(muc16, 20)
    assert rho == MU_CHAMPERNOWNE_RHO_20
    # growth witness: the subword complexity leaves the linear envelope.
    # For n <= 3 every binary mu-image has rho(n) = 2n exactly (rho(1) <= 2
    # always, and 000/111 never occur), so strictness starts at n = 4.
    for n in range(4, 21):
        assert rho[n - 1] > 2 * n
    report(5, t0, "mu(Champernowne) prefix 2^16: Thue-Morse rho_ab values "
                  "(n <= 512) with exponential rho (frozen, > 2n from n = 4)")


def test_criterion_06_maximal_complexity_word():
    t0 = time.time()
    w = max_complexity_prefix(8 * 256)
    prof = abelian_profile(w, 256)
    for n in range(1, 257):
        assert prof[n - 1] == n + 1 == max_abelian_complexity(n, 2)
    report(6, t0, "run-growth word, prefix 8*256: rho_ab(n) = n+1 "
                  "meets the compositions bound, n <= 256")


def test_criterion_07_sturmian_two_period_law(golden):
    t0 = time.time()
    certificates = 0
    for k in range(2, 9):
        pair = sturmian_period_pair(golden, k)
        prefix = characteristic_prefix(golden, 500 + k * pair.ell2)
        batch = sturmian_powers(golden, range(1, 501), k)
        for i, occ in enumerate(batch, 1):
            assert occ == sturmian_power_at(golden, i, k)
            assert occ.start == i - 1 and occ.exponent == k
            assert occ.period in (pair.ell1, pair.ell2)
            assert verify_abelian_power(prefix, occ.start, occ.period, k)
            certificates += 1
    assert certificates == 3500
    report(7, t0, "golden slope, k = 2..8, i = 1..500: 3500 verified "
                  "certificates, every period from the two-element set")


def test_criterion_08_vdw_construction(tm_million):
    t0 = time.time()
    weights = congo_weights(2, 2)
    for k in range(2, 6):
        occ = vdw_power_search(tm_million, k, weights)
        assert occ is not None
        assert verify_abelian_power(tm_million, occ.start, occ.period, k)
        oracle = min_abelian_period(tm_million, occ.start, k)
        assert oracle is not None and oracle <= occ.period
    report(8, t0, "Thue-Morse prefix 10^6, M = 2: progression search finds "
                  "verified k-powers for k = 2..5, brute-force confirmed")


def test_criterion_09_weight_family_property():
    t0 = time.time()
    from itertools import product
    for M in (1, 2, 3):
        for r in (1, 2, 3, 4):
            cw = congo_weights(M, r)
            for cs in product(range(-M, M + 1), repeat=r):
                if sum(c * a for c, a in zip(cs, cw.alphas)) % cw.N == 0:
                    assert all(c == 0 for c in cs), (M, r, cs)
    report(9, t0, "weight families M <= 3, r <= 4: only the zero "
                  "combination vanishes mod N (exhaustive)")


def _sliding_profile(w, n_max):
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


def test_criterion_10_oracle_equivalence():
    t0 = time.time()
    rng = random.Random(20260810)
    for _ in range(200):
        p = rng.randint(1, 4)
        length = rng.randint(2, 512)
        w = WordPrefix(p, bytes(rng.randrange(p) for _ in range(length)))
        n_max = rng.randint(1, min(length, 48))
        fast = abelian_profile(w, n_max)
        assert fast == _sliding_profile(w, n_max)
        naive = [len({tuple(w.symbols[i:i + n].count(a) for a in range(p))
                      for i in range(length - n + 1)})
                 for n in range(1, n_max + 1)]
        assert fast == naive
    for _ in range(200):
        period = rng.randint(1, 6)
        length = rng.randint(period + 1, 120)
        if rng.random() < 0.5:
            base = bytes(rng.randrange(2) for _ in range(period))
            sym = (base * (length // period + 1))[:length]
        else:
            sym = bytes(rng.randrange(2) for _ in range(length))
        via_parikh = abelian_profile(WordPrefix(2, sym), period)[-1] == 1
        direct = all(sym[i] == sym[i + period] for i in range(length - period))
        assert via_parikh == direct
    report(10, t0, "400 random words: windowed profile matches sliding and "
                   "naive recounts; Parikh periodicity matches symbol test")


def test_criterion_11_balance_bridge(tm17, char17, muc16, golden):
    t0 = time.time()
    corpus = [
        ("thue-morse", fixed_point(THUE_MORSE, 0, 16384)),
        ("fibonacci", char17["golden"]),
        ("sqrt2", char17["sqrt2"]),
        ("ternary-balanced", hubert_ternary(golden, 8192)),
        ("ternary-morphic", apply_morphism(CONSTANT3, fixed_point(FIBONACCI, 0, 4096))),
        ("mu-champernowne", muc16),
        ("max-complexity", max_complexity_prefix(2048)),
    ]
    for name, w in corpus:
        n_max = 256
        prof = abelian_profile(w, n_max)
        bound_k = max(prof)
        c = balance_bound(w, n_max)
        assert c <= bound_k - 1, name
        for n in range(1, n_max + 1):
            assert prof[n - 1] <= (c + 1) ** w.alphabet_size, (name, n)
    report(11, t0, "balance bridge on the 7-word corpus: balance <= "
                   "max rho_ab - 1 and rho_ab(n) <= (C+1)^p")
