import copy
import json
import pickle
import random
import sys
import threading
import tracemalloc
from itertools import product
from typing import get_args

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_contfrac import oracle_floor_range

from abelianwords import words
from abelianwords.contfrac import (AffineThreshold, ContinuedFraction,
                                   InsufficientPrecisionError, frac_less_than)
from abelianwords.words import (CONSTANT3, DOUBLING, FIBONACCI, THUE_MORSE,
                                TRIBONACCI, BudgetError, Champernowne,
                                Characteristic, Explicit, FixedPoint, Hubert,
                                LiteralPrepend, MaxComplexity, Morphism,
                                Periodic, WordPrefix, WordRecipe,
                                apply_morphism, champernowne_prefix,
                                characteristic_prefix, complete_prefix_length,
                                fixed_point, hubert_ternary, hubert_transform,
                                max_complexity_prefix, morphic_form,
                                prefix_of, recipe_from_dict, recipe_from_json,
                                recipe_to_dict)

TRIPLE_RUNS = Morphism.from_strings({"0": "012", "1": "111", "2": "222"})
COLLAPSE = Morphism.from_strings({"0": "0", "1": "1", "2": "0"})
GOLDEN = ContinuedFraction((2,), (1,))

# Every kind, some twice; the round-trip and prefix-coherence tests read
# this list, and test_covers_every_kind keeps it complete.
RECIPES = [
    FixedPoint(THUE_MORSE, 0),
    FixedPoint(THUE_MORSE, 1),
    FixedPoint(FIBONACCI, 0, post=CONSTANT3),
    FixedPoint(FIBONACCI, 0, post=Morphism.from_strings({"0": "0",
                                                         "1": "1111"})),
    Characteristic(GOLDEN),
    Periodic(bytes([0, 1, 1])),
    Explicit(bytes([0, 1, 1, 0]) * 100, 3),
    Explicit(bytes([0, 2]) * 200),
    Champernowne(),
    MaxComplexity(),
    Hubert(GOLDEN),
    LiteralPrepend(bytes([2]), Characteristic(GOLDEN)),
    LiteralPrepend(bytes([1, 2]), LiteralPrepend(bytes([0]), Hubert(GOLDEN))),
]


def word(digits, p=None):
    sym = bytes(int(c) for c in digits)
    return WordPrefix(p or (max(sym) + 1 if sym else 1), sym)


# Reference implementations: the per-symbol loops the vectorized
# generators replaced.

def join_images(m, symbols):
    return b"".join(m.images[a] for a in symbols)


def iterate_fixed_point(m, seed, length):
    w = bytes([seed])
    while len(w) < length:
        w = join_images(m, w)
    return w[:length]


def whole_word_fixed_point(m, seed, length):
    """The array generator fixed_point replaced: re-map the whole word,
    up to the length, every round."""
    w = np.array([seed], dtype=np.uint8)
    while len(w) < length:
        w = m._gather(w[:length])
    return w[:length].tobytes()


def oracle_fixed_point_row(r, length):
    """The fixed-point row before mixed-length post-morphisms were sized
    by their longest image: it grows the inner word to
    ceil(length / shortest post image) letters."""
    m, post = r.morphism, r.post
    need = length if post is None else -(-length // min(map(len, post.images)))
    w = np.empty(need, dtype=np.uint8)
    first = np.frombuffer(m.images[r.seed], dtype=np.uint8)[:need]
    w[:len(first)] = first
    old, end = 1, len(first)
    shortest = min(map(len, m.images))
    while end < need:
        take = min(end - old, -(-(need - end) // shortest))
        image = m._gather(w[old:old + take])[:need - end]
        w[end:end + len(image)] = image
        old, end = end, end + len(image)
    if post is None:
        return m.alphabet_size, w.tobytes()
    return post.image_alphabet_size, post._gather(w)[:length].tobytes()


def post_read_letters(monkeypatch, r, length):
    """The letters of u the row's post path reads: its last join of block
    images post(M(b)) gets the images and the letters of u; returns
    those, as bytes, and how many of the letters it read."""
    calls = []
    join = words._join_images

    def spying(images, lens, letters, need):
        joined, read = join(images, lens, letters, need)
        calls.append((images, bytes(letters), need, read))
        return joined, read

    monkeypatch.setattr(words, "_join_images", spying)
    words._fixed_point_row(r, length)
    monkeypatch.setattr(words, "_join_images", join)
    images, letters, need, read = calls[-1]
    assert need == length
    return images, letters, read


def fewest_reaching(images, letters, length):
    """How many leading letters have images whose lengths reach length."""
    reached = np.cumsum([len(images[a]) for a in letters])
    return int(np.searchsorted(reached, length)) + 1


def floor_characteristic(cf, length):
    """Characteristic prefix from floor((j+2)*alpha) - floor((j+1)*alpha),
    or "raises" where oracle_floor_range runs out of terms."""
    if length == 0:
        return b""
    try:
        floors = oracle_floor_range(cf, length + 1)
    except InsufficientPrecisionError:
        return "raises"
    return bytes(b - a for a, b in zip(floors[1:], floors[2:]))


def characteristic_or_raises(cf, length):
    try:
        return characteristic_prefix(cf, length).symbols
    except InsufficientPrecisionError:
        return "raises"


def iterate_lengths(m, seed, length):
    """Lengths of the iterates m^k(seed) up to the first >= length."""
    w = bytes([seed])
    out = [1]
    while len(w) < length:
        w = join_images(m, w)
        out.append(len(w))
    return out


def bin_champernowne(length):
    parts, total, i = [], 0, 0
    while total < length:
        parts.append(bin(i)[2:])
        total += len(parts[-1])
        i += 1
    return bytes(int(c) for c in "".join(parts)[:length])


def loop_hubert(symbols):
    out, zeros = [], 0
    for a in symbols:
        if a == 0:
            out.append(zeros & 1)
            zeros += 1
        else:
            out.append(2)
    return bytes(out)


@st.composite
def morphisms_and_words(draw):
    p = draw(st.integers(1, 4))
    if draw(st.booleans()):
        lengths = [draw(st.integers(1, 4))] * p
    else:
        lengths = draw(st.lists(st.integers(1, 4), min_size=p, max_size=p))
    letter = st.integers(0, p - 1)
    images = tuple(bytes(draw(st.lists(letter, min_size=n, max_size=n)))
                   for n in lengths)
    symbols = bytes(draw(st.lists(letter, max_size=60)))
    return Morphism(images), symbols


@st.composite
def prolongable_morphisms(draw):
    """A morphism over p <= 3 letters, image lengths 1..4, prolongable on 0."""
    p = draw(st.integers(1, 3))
    letter = st.integers(0, p - 1)
    images = [bytes([0] + draw(st.lists(letter, min_size=1, max_size=3)))]
    images += [bytes(draw(st.lists(letter, min_size=1, max_size=4)))
               for _ in range(1, p)]
    return Morphism(tuple(images))


@st.composite
def slope_terms(draw):
    """(preperiod, period) with terms in 1..5, now and then with one term
    in 10**18..10**20 somewhere in the preperiod."""
    pre = draw(st.lists(st.integers(1, 5), max_size=4))
    period = draw(st.lists(st.integers(1, 5), min_size=1, max_size=3))
    if draw(st.integers(0, 3)) == 0:
        pre.insert(draw(st.integers(0, len(pre))),
                   draw(st.integers(10**18, 10**20)))
    return tuple(pre), tuple(period)


@st.composite
def fixed_points_with_post(draw):
    """A prolongable fixed point over p <= 3 letters and a post-morphism
    with image lengths 1..4."""
    p = draw(st.integers(1, 3))

    def image(letters):
        return bytes(draw(st.lists(st.integers(0, letters - 1),
                                   min_size=1, max_size=4)))
    images = [bytes([0]) + image(p)] + [image(p) for _ in range(1, p)]
    post = [image(4) for _ in range(p)]
    return FixedPoint(Morphism(tuple(images)), 0, Morphism(tuple(post)))


class TestFixedPoint:
    def test_thue_morse_16(self):
        assert fixed_point(THUE_MORSE, 0, 16).digits() == "0110100110010110"

    def test_one_iteration_of_run_tripler(self):
        assert fixed_point(TRIPLE_RUNS, 0, 9).digits() == "012111222"

    def test_zero_length(self):
        assert fixed_point(THUE_MORSE, 0, 0).digits() == ""

    def test_not_prolongable(self):
        with pytest.raises(ValueError, match="prolongable"):
            fixed_point(Morphism.from_strings({"0": "10", "1": "1"}), 0, 8)

    def test_budget(self):
        with pytest.raises(BudgetError):
            fixed_point(THUE_MORSE, 0, words.DEFAULT_SYMBOL_BUDGET + 1)

    @pytest.mark.parametrize("images, seed, post, match", [
        ({"0": "02", "1": "1"}, 0, None, "letter 2"),   # 2 has no image
        ({"0": "01", "1": "10"}, 2, None, "seed"),
        ({"0": "01", "1": "10"}, -1, None, "seed"),
        ({"0": "01", "1": "12", "2": "0"}, 0, FIBONACCI, "post-morphism"),
    ])
    def test_recipe_validation(self, images, seed, post, match):
        with pytest.raises(ValueError, match=match):
            FixedPoint(Morphism.from_strings(images), seed, post)

    def test_fixed_point_property(self):
        for m, seed in ((THUE_MORSE, 0), (FIBONACCI, 0), (TRIPLE_RUNS, 0)):
            w = fixed_point(m, seed, 300)
            image = apply_morphism(m, w)
            assert image.symbols[:300] == w.symbols

    @pytest.mark.parametrize("m", [THUE_MORSE, FIBONACCI, TRIPLE_RUNS],
                             ids=["thue-morse", "fibonacci", "run-tripler"])
    def test_matches_naive_iteration_at_boundaries(self, m):
        for size in iterate_lengths(m, 0, 3000):
            for length in (size - 1, size, size + 1):
                assert fixed_point(m, 0, length).symbols == \
                    iterate_fixed_point(m, 0, length)

    @settings(max_examples=300, deadline=None)
    @given(prolongable_morphisms(), st.integers(0, 3000))
    def test_matches_whole_word_iteration(self, m, length):
        assert fixed_point(m, 0, length).symbols == \
            whole_word_fixed_point(m, 0, length)


class TestPostMorphismSizing:
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(fixed_points_with_post(),
                     prolongable_morphisms().map(lambda m: FixedPoint(m, 0))),
           st.integers(0, 3000))
    def test_matches_shortest_image_row(self, r, length):
        assert words._fixed_point_row(r, length) == \
            oracle_fixed_point_row(r, length)

    @pytest.mark.parametrize("post", [{"0": "0", "1": "1111"},
                                      {"0": "1111", "1": "0"},
                                      {"0": "012", "1": "021"},
                                      {"0": "10", "1": "2", "2": "0"}])
    def test_fibonacci_at_every_small_length(self, post):
        r = FixedPoint(FIBONACCI, 0, Morphism.from_strings(post))
        for length in range(200):
            assert words._fixed_point_row(r, length) == \
                oracle_fixed_point_row(r, length), length
        for length in (1 << 16, (1 << 16) + 1, 99991):
            assert words._fixed_point_row(r, length) == \
                oracle_fixed_point_row(r, length), length

    def test_mixed_lengths_map_only_the_letters_needed(self, monkeypatch):
        # The post path copies one image post(M(b)) per letter b of u, so
        # the bound is on letters of u: it reads exactly the fewest whose
        # images reach the length, and builds u no further than the
        # shortest image allows.
        r = FixedPoint(FIBONACCI, 0, Morphism.from_strings({"0": "0",
                                                            "1": "1111"}))
        u = words.prefix_of(FixedPoint(FIBONACCI, 0), 1 << 17).symbols
        for length in (7, 50, 2999, 1 << 16, 99991):
            images, letters, read = post_read_letters(monkeypatch, r, length)
            assert letters == u[:len(letters)], length
            assert read == fewest_reaching(images, letters, length), length
            assert len(letters) <= -(-length // min(map(len, images))), length

    def test_one_image_length_maps_the_exact_ceiling(self, monkeypatch):
        # every image is 3 |M(b)| symbols long, so the letters read are the
        # fewest whose M-images hold ceil(length / 3) letters of the word
        r = FixedPoint(FIBONACCI, 0, CONSTANT3)
        for length in (1, 2, 3, 4, 1 << 16, (1 << 16) + 1):
            images, letters, read = post_read_letters(monkeypatch, r, length)
            assert all(len(img) % 3 == 0 or len(img) == length
                       for img in images)
            sizes = [-(-len(images[a]) // 3) for a in letters[:read]]
            assert sum(sizes) >= -(-length // 3) > sum(sizes[:-1]), length


# Morphisms that stress the power images: letters that never grow (their
# images stay one symbol long at every power, so the longest image sets
# the power), one letter per image length (DOUBLING: each letter only
# repeats itself) and three letters of unequal growth (Tribonacci).
SLOW_GROWTH = {
    "0-01-1": Morphism.from_strings({"0": "01", "1": "1"}),
    "0-012-1-2": Morphism.from_strings({"0": "012", "1": "1", "2": "2"}),
    "0-001-1": Morphism.from_strings({"0": "001", "1": "1"}),
    "doubling": DOUBLING,
    "tribonacci": TRIBONACCI,
}
POSTS = [None, CONSTANT3,
         Morphism.from_strings({"0": "0", "1": "1111", "2": "22"}),
         Morphism.from_strings({"0": "21", "1": "0", "2": "1012"})]


def power_boundaries(m, seed, limit):
    """|m^j(seed)| for j <= 12 and |M^i(seed)| for the row's power
    M = m^J, up to limit, with their neighbours, and the block size
    thresholds."""
    sizes = set(iterate_lengths(m, seed, limit)[:13])
    power = Morphism(tuple(words._power_images(m, limit)))
    sizes |= set(iterate_lengths(power, seed, limit))
    sizes |= {words._BLOCK_MIN, words._BLOCK_CAP}
    return sorted({n + d for n in sizes for d in (-1, 0, 1)
                   if 0 <= n + d <= limit})


class TestPowerImages:
    @pytest.mark.parametrize("name", SLOW_GROWTH)
    def test_matches_row_at_power_boundaries(self, name):
        m = SLOW_GROWTH[name]
        # a letter that never grows makes the oracle slow; 9000 is past
        # the second power image of either such morphism's seed
        limit = 9000 if name.startswith("0-") else 1 << 17
        for length in power_boundaries(m, 0, limit):
            r = FixedPoint(m, 0)
            assert words._fixed_point_row(r, length) == \
                oracle_fixed_point_row(r, length), length

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(sorted(SLOW_GROWTH)), st.sampled_from(POSTS),
           st.integers(0, 5000))
    def test_matches_row_with_and_without_post(self, name, post, length):
        m = SLOW_GROWTH[name]
        if post is not None and post.alphabet_size < m.alphabet_size:
            post = CONSTANT3 if m.alphabet_size <= 2 else POSTS[2]
        r = FixedPoint(m, 0, post)
        assert words._fixed_point_row(r, length) == \
            oracle_fixed_point_row(r, length)

    @pytest.mark.parametrize("name", SLOW_GROWTH)
    def test_power_images_are_iterates(self, name):
        # one power J for every letter, cut at the requested length
        m = SLOW_GROWTH[name]
        for cut in (1, 5, 64, 5000):
            images = words._power_images(m, cut)
            iterates = list(m.images)
            while [img[:cut] for img in iterates] != images:
                assert max(map(len, iterates)) < max(cut, words._BLOCK_CAP)
                iterates = [join_images(m, img) for img in iterates]

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.binary(min_size=1, max_size=300), min_size=1,
                    max_size=4).flatmap(lambda images: st.tuples(
                        st.just(images),
                        st.binary(max_size=80).map(lambda raw: bytes(
                            b % len(images) for b in raw)),
                        st.integers(1, 3000))))
    def test_join_images_reads_the_fewest_letters(self, case):
        images, letters, need = case
        lens = [len(img) for img in images]
        joined, read = words._join_images(images, lens, letters, need)
        assert joined == join_images(Morphism(tuple(images)), letters)[:need]
        whole = sum(lens[a] for a in letters)
        assert read == (len(letters) if whole < need
                        else fewest_reaching(images, letters, need))

    def test_growth_by_one_stretch_per_round(self):
        # M(1) = 1 at every power, so u grows by the 4095 ones of M(0)'s
        # tail a round: about 256 rounds, where TestPowerImages stops at
        # 9000 symbols for such morphisms
        m = Morphism.from_strings({"0": "01", "1": "1"})
        assert prefix_of(FixedPoint(m, 0), 1 << 20).symbols == \
            b"\0" + b"\1" * ((1 << 20) - 1)

    @pytest.mark.parametrize("m", [THUE_MORSE, FIBONACCI, TRIBONACCI],
                             ids=["thue-morse", "fibonacci", "tribonacci"])
    def test_last_join_reads_kib_images(self, monkeypatch, m):
        # joining costs a fixed time per piece: the word is joined from
        # images of at least 1024 symbols, so its last join reads no more
        # than one letter per 1024 symbols
        length = 1 << 22
        _, _, read = post_read_letters(monkeypatch, FixedPoint(m, 0), length)
        assert read <= -(-length // 1024)

    @pytest.mark.parametrize("post", [None, {"0": "0", "1": "2"},
                                      {"0": "012", "1": "021"}],
                             ids=["no-post", "post", "longer-post"])
    def test_one_symbol_images_join_as_runs(self, monkeypatch, post):
        # M(1) = 1 at every power: the 1s are copied as one translated
        # slice per join, never one piece per symbol; under a post whose
        # images are longer, as one piece, post(1) repeated
        m = Morphism.from_strings({"0": "01", "1": "1"})
        r = FixedPoint(m, 0, post and Morphism.from_strings(post))
        counts = []
        pieces = words._pieces

        def counting(*args):
            result = pieces(*args)
            counts.append(len(result))
            return result

        monkeypatch.setattr(words, "_pieces", counting)
        length = 1 << 20
        images = r.post.images if post else (b"\0", b"\1")
        assert prefix_of(r, length).symbols == \
            (images[0] + images[1] * length)[:length]
        assert counts and max(counts) <= 2

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.binary(min_size=1, max_size=3), min_size=1,
                    max_size=4).flatmap(lambda images: st.tuples(
                        st.just(images),
                        st.binary(max_size=80).map(lambda raw: bytes(
                            b % len(images) for b in raw)))))
    def test_pieces_copy_runs_of_one_symbol_images(self, case):
        # one piece per run of one repeated letter whose (short) image is
        # longer than one symbol, and one per run of letters whose images
        # are one symbol long
        images, letters = case
        lens = [len(img) for img in images]
        pieces = words._pieces(images, lens, letters)
        assert b"".join(pieces) == join_images(Morphism(tuple(images)),
                                               letters)
        one = [lens[a] == 1 for a in letters]
        runs = sum(1 for i, a in enumerate(letters)
                   if i == 0 or a != letters[i - 1] and not one[i] & one[i - 1])
        assert len(pieces) == runs

    def test_seed_one_and_doubling(self):
        for m in (THUE_MORSE, DOUBLING):
            for length in (0, 1, 63, 64, 65, 4097, 99991):
                r = FixedPoint(m, 1)
                assert words._fixed_point_row(r, length) == \
                    oracle_fixed_point_row(r, length)


class TestApplyMorphism:
    def test_mu_of_01(self):
        assert apply_morphism(THUE_MORSE, word("01")).digits() == "0110"

    def test_collapse_of_tripler_word(self):
        assert apply_morphism(COLLAPSE, word("012111222")).digits() == "010111000"

    def test_constant3_of_01(self):
        assert apply_morphism(CONSTANT3, word("01")).digits() == "012021"

    def test_domain_check(self):
        with pytest.raises(ValueError, match="domain"):
            apply_morphism(THUE_MORSE, word("012"))

    @settings(max_examples=300, deadline=None)
    @given(morphisms_and_words())
    def test_apply_raw_matches_join(self, case):
        m, symbols = case
        assert m.apply_raw(symbols) == join_images(m, symbols)
        for a in range(m.alphabet_size):
            assert m.apply_raw(bytes([a])) == m.images[a]

    @pytest.mark.parametrize("m", [THUE_MORSE, FIBONACCI])
    def test_apply_raw_letter_outside_domain(self, m):
        with pytest.raises(IndexError):
            m.apply_raw(bytes([0, 2]))

    def test_morphism_tables_are_not_fields(self):
        m = Morphism.from_strings({"0": "01", "1": "10"})
        assert m == THUE_MORSE and hash(m) == hash(THUE_MORSE)
        assert repr(m) == "Morphism(images=(b'\\x00\\x01', b'\\x01\\x00'))"
        with pytest.raises(ValueError):
            m._table[0, 0] = 1


GROWTH_SLOPES = pytest.mark.parametrize(
    "terms", [((2,), (1,)), ((), (2,)), ((1, 10**6), (2,)), ((3,), (1, 7))],
    ids=["golden", "sqrt2", "huge-quotient", "mixed"])


class TestCharacteristic:
    def test_golden_is_fibonacci_word(self, golden):
        assert characteristic_prefix(golden, 8).digits() == "01001010"

    def test_sqrt2_prefix(self, sqrt2m1):
        # frozen from the fixed-point floor oracle
        assert characteristic_prefix(sqrt2m1, 7).digits() == "0101001"

    def test_zero_length(self, golden):
        assert characteristic_prefix(golden, 0).digits() == ""

    def test_equals_fibonacci_fixed_point(self, golden):
        assert characteristic_prefix(golden, 4096).symbols == \
            fixed_point(FIBONACCI, 0, 4096).symbols

    @pytest.mark.parametrize("cf_fix", ["golden", "sqrt2m1"])
    def test_agrees_with_threshold_definition(self, cf_fix, request):
        # letter at 1-based n is 1 exactly when {n*alpha} >= 1 - alpha
        cf = request.getfixturevalue(cf_fix)
        w = characteristic_prefix(cf, 10000)
        t = AffineThreshold(1, -1)
        for n in range(1, 10001):
            assert (w.symbols[n - 1] == 0) == frac_less_than(cf, n, t)

    @pytest.mark.parametrize("cf", [
        ContinuedFraction((3, 10**19), (1,)),
        ContinuedFraction((2, 1, 7, 10**20), (2, 3)),
    ], ids=["huge-second-quotient", "huge-fourth-quotient"])
    def test_exact_big_integer_branch(self, cf):
        # convergents this large leave int64; the letters still match
        # the exact threshold tests
        length = 3000
        w = characteristic_prefix(cf, length)
        t = AffineThreshold(1, -1)
        for n in range(1, length + 1):
            assert (w.symbols[n - 1] == 0) == frac_less_than(cf, n, t)

    @GROWTH_SLOPES
    def test_growth_holds_two_copies_at_most(self, terms):
        # the word is filled in place in one buffer of exactly the asked
        # length + 3, which is cached as it is: no growth reallocation, no
        # temporary prefix copy and no copy into the cache, so one copy
        # of the asked length at most
        cf = ContinuedFraction(*terms)
        cf.convergent(60)
        tracemalloc.start()
        try:
            word = words._characteristic_word(cf, 1 << 20)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= len(word) + (1 << 16)

    @GROWTH_SLOPES
    def test_resumed_growth_holds_old_and_new_cache_at_most(self, terms):
        # growing from a cache of n symbols holds that cache and the new
        # buffer of want symbols, and no temporary beside them
        cf = ContinuedFraction(*terms)
        cf.convergent(60)
        tracemalloc.start()
        try:
            n = len(words._characteristic_word(cf, 1 << 19))
            tracemalloc.reset_peak()
            want = len(words._characteristic_word(cf, 1 << 20))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= n + want + (1 << 16)

    @pytest.mark.parametrize("terms", [((2,), (1,)), ((), (2,)),
                                       ((1, 10**6), (2,)), ((1, 3), (1, 2))],
                             ids=["golden", "sqrt2", "huge-quotient",
                                  "above-half"])
    def test_cache_is_exactly_as_long_as_asked(self, terms):
        # a first request makes length + 3 symbols; a longer one makes
        # that many or twice the old cache, whichever is more
        cf = ContinuedFraction(*terms)
        characteristic_prefix(cf, 1000)
        assert len(cf._word[0]) == 1003
        for length in (1500, 1000, 5000, 9000):
            old = len(cf._word[0])
            characteristic_prefix(cf, length)
            expect = old if length + 3 <= old else max(length + 3, 2 * old)
            assert len(cf._word[0]) == expect
        assert bytes(cf._word[0]) == \
            floor_characteristic(ContinuedFraction(*terms), len(cf._word[0]))

    @settings(max_examples=200, deadline=None)
    @given(slope_terms(), st.integers(1, 5000), st.data())
    def test_grows_from_any_prefix_length(self, terms, want, data):
        # the cache may end anywhere, not only on a standard word
        n = data.draw(st.integers(0, want - 1), label="n")
        cf = ContinuedFraction(*terms)
        grown = words._grow_characteristic(cf, floor_characteristic(cf, n),
                                           want)
        assert bytes(grown) == floor_characteristic(cf, want)

    @pytest.mark.parametrize("terms", [
        ((1, 3), (2,)), ((2, 3), (1,)), ((10**18,), (1,)),
        ((1, 10**18), (1,)), ((3, 10**18), (1,))],
        ids=["a1=1", "a1=2", "huge-a1", "a1=1-huge-a2", "a1=3-huge-a2"])
    def test_symbols_around_the_first_standard_words(self, terms):
        # lengths q_1 - 1..q_1 + 1 and q_2 - 1..q_2 + 1, where the last
        # symbol of s_1 or s_2 is written alone, grown from every shorter
        # length among them; lengths past 5000 are left out. a1=1-huge-a2
        # pins length 1 of s_2 = 1^(10^18) 0, whose first symbol is the
        # last of s_1 = 1, written before any run can copy it
        ref = ContinuedFraction(*terms)
        edges = {0, 1, 2}
        for i in (1, 2):
            q = ref.convergent(i).q
            edges.update(j for j in (q - 1, q, q + 1) if j <= 5000)
        edges = sorted(edges)
        for want in edges[1:]:
            expect = floor_characteristic(ref, want)
            for n in edges[:edges.index(want)]:
                cf = ContinuedFraction(*terms)
                grown = words._grow_characteristic(cf, expect[:n], want)
                assert bytes(grown) == expect, (n, want)
            assert characteristic_prefix(ContinuedFraction(*terms),
                                         want).symbols == expect

    def test_cache_is_read_only(self):
        # the cache is published uncopied, so no reader may write to it:
        # neither through the view itself nor through an array over it
        cf = ContinuedFraction((2,), (1,))
        word = words._characteristic_word(cf, 1000)
        assert word is cf._word[0] and word.readonly
        with pytest.raises(TypeError):
            word[0] = 1
        assert not np.frombuffer(word, dtype=np.uint8).flags.writeable
        assert bytes(word[:1000]) == floor_characteristic(
            ContinuedFraction((2,), (1,)), 1000)

    def test_slope_with_a_grown_cache_pickles(self):
        # the read-only view does not pickle; the slope carries its
        # symbols as bytes, and a copy keeps growing from them
        cf = ContinuedFraction((2,), (1,))
        characteristic_prefix(cf, 1000)
        grown = bytes(cf._word[0])
        copies = pickle.loads(pickle.dumps(cf)), copy.deepcopy(cf)
        for other in copies:
            assert other == cf and other._word[0] == grown
            assert characteristic_prefix(other, 5000) == \
                characteristic_prefix(cf, 5000)

    @settings(max_examples=200, deadline=None)
    @given(slope_terms(), st.lists(st.integers(0, 5000), min_size=1,
                                   max_size=6))
    def test_matches_floor_oracle_in_any_order(self, terms, lengths):
        # one fresh slope serves every length, so its cache grows from
        # whatever the earlier requests left; the oracle's slope is another
        # instance, so it shares no cache with it
        cf = ContinuedFraction(*terms)
        for length in lengths:
            assert characteristic_prefix(cf, length).symbols == \
                floor_characteristic(ContinuedFraction(*terms), length)

    @pytest.mark.parametrize("size", [1, 2, 3, 4])
    def test_finite_expansion_raises_where_floors_do(self, size):
        # lengths rise on one instance, so the cache grows at every step
        for terms in product(range(1, 5), repeat=size):
            cf, ref = ContinuedFraction(terms), ContinuedFraction(terms)
            for length in range(ref.convergent(size).q + 6):
                assert characteristic_or_raises(cf, length) == \
                    floor_characteristic(ref, length), (terms, length)

    def test_threads_growing_one_slope_match_oracle(self):
        rng = random.Random(8)
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for a in (3, 4, 5):
                terms = ((a, 2), (1, 3))
                shared = ContinuedFraction(*terms)
                asks = [[rng.randint(0, 20000) for _ in range(20)]
                        for _ in range(8)]
                results = [None] * 8
                barrier = threading.Barrier(8)

                def run(slot):
                    barrier.wait()
                    results[slot] = [characteristic_prefix(shared, n).symbols
                                     for n in asks[slot]]

                threads = [threading.Thread(target=run, args=(slot,))
                           for slot in range(8)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                assert not any(t.is_alive() for t in threads)
                longest = floor_characteristic(ContinuedFraction(*terms),
                                               20000)
                assert results == [[longest[:n] for n in ask] for ask in asks]
        finally:
            sys.setswitchinterval(old)

    def test_complement_exchanges_letters(self, golden):
        w = characteristic_prefix(golden, 2000).as_array()
        v = characteristic_prefix(golden.complement(), 2000).as_array()
        assert (w ^ v).all()  # differs everywhere, i.e. 0 <-> 1


class TestChampernowne:
    def test_display_prefix(self):
        assert champernowne_prefix(26).digits() == "01101110010111011110001001"

    def test_short(self):
        assert champernowne_prefix(3).digits() == "011"

    def test_zero(self):
        assert champernowne_prefix(0).digits() == ""

    def test_matches_bin_join_across_block_boundaries(self):
        expected = bin_champernowne(2100)
        for length in range(2101):
            assert champernowne_prefix(length).symbols == expected[:length]

    def test_matches_bin_join_around_every_block_end(self):
        # the block of b-bit numbers ends after 2 + 2*2 + 4*3 + ... + 2^(b-1)*b
        # symbols; the last block a prefix needs is cut to fit
        top = 1 << 20
        expected = bin_champernowne(top)
        end, b = 2, 2
        while end <= top:
            for length in (end - 1, end, min(end + 1, top)):
                assert champernowne_prefix(length).symbols == \
                    expected[:length], length
            end, b = end + (b << (b - 1)), b + 1


class TestMaxComplexity:
    def test_first_nine(self):
        assert max_complexity_prefix(9).digits() == "010111000"

    def test_first_letter(self):
        assert max_complexity_prefix(1).digits() == "0"

    def test_zero(self):
        assert max_complexity_prefix(0).digits() == ""

    def test_agrees_with_morphic_route(self):
        inner = fixed_point(TRIPLE_RUNS, 0, 3**7)
        assert apply_morphism(COLLAPSE, inner).symbols == \
            max_complexity_prefix(3**7).symbols


class TestHubert:
    def test_fibonacci_inner(self, golden):
        inner = characteristic_prefix(golden, 8)
        assert inner.digits() == "01001010"
        assert hubert_transform(inner).digits() == "02102120"

    def test_degenerate_all_zero_inner(self):
        assert hubert_transform(word("0000", p=2)).digits() == "0101"

    def test_matches_loop_past_256_zeros(self):
        rng = random.Random(5)
        inners = [bytes(600), bytes([1]) + bytes(300) + bytes([1, 1]) + bytes(400)]
        for zero_share in (0.5, 0.9, 0.99):
            inners.append(bytes(int(rng.random() >= zero_share)
                                for _ in range(2000)))
        for symbols in inners:
            assert hubert_transform(WordPrefix(2, symbols)).symbols == \
                loop_hubert(symbols)

    @pytest.mark.parametrize("length", [(1 << 16) - 1, 1 << 16,
                                        (1 << 16) + 1, 3 * (1 << 16) + 5])
    def test_matches_loop_across_blocks(self, length):
        # the 0s are found one block of 2^16 symbols at a time; an odd count
        # of 0s in a block must flip the phase of the next
        rng = random.Random(length)
        inners = [characteristic_prefix(GOLDEN, length).symbols,
                  bytes(rng.random() < 0.3 for _ in range(length)),
                  bytes(length - 1) + bytes([1])]
        for symbols in inners:
            assert hubert_transform(WordPrefix(2, symbols)).symbols == \
                loop_hubert(symbols)

    def test_zero_length(self, golden):
        assert hubert_ternary(golden, 0).digits() == ""

    def test_matches_transform_of_characteristic(self, golden):
        assert hubert_ternary(golden, 500).symbols == \
            hubert_transform(characteristic_prefix(golden, 500)).symbols

    def test_output_is_1_balanced(self, golden, sqrt2m1):
        from abelianwords.complexity import balance_bound
        for cf in (golden, sqrt2m1):
            assert balance_bound(hubert_ternary(cf, 4096), 64) == 1


@st.composite
def periodic_slopes(draw):
    """Eventually periodic slopes: a preperiod of up to 3 terms and a
    period of 1 to 3, terms 1..5."""
    term = st.integers(1, 5)
    return ContinuedFraction(tuple(draw(st.lists(term, max_size=3))),
                             tuple(draw(st.lists(term, min_size=1,
                                                 max_size=3))))


class TestMorphicForm:
    def test_presets_need_no_post(self, golden, sqrt2m1):
        # directives (01)^w and (0110)^w: Phi = L_0 L_1 and L_0 L_1^2 L_0
        assert morphic_form(Characteristic(golden)) == FixedPoint(
            Morphism.from_strings({"0": "010", "1": "01"}), 0)
        assert morphic_form(Characteristic(sqrt2m1)) == FixedPoint(
            Morphism.from_strings({"0": "01010", "1": "0101001"}), 0)

    def test_form_of_every_kind(self, golden):
        r = FixedPoint(THUE_MORSE, 0)
        assert morphic_form(r) is r
        lift = morphic_form(Hubert(golden))
        assert (lift.morphism.alphabet_size, lift.post.alphabet_size) == (8, 8)
        for r in (Periodic(bytes([0, 1])), Explicit(bytes([0, 1])),
                  Champernowne(), MaxComplexity(),
                  LiteralPrepend(bytes([1]), Characteristic(golden)),
                  Characteristic(ContinuedFraction((2, 3))),
                  Hubert(ContinuedFraction((2, 3)))):
            assert morphic_form(r) is None

    @settings(max_examples=150, deadline=None)
    @given(periodic_slopes(), st.integers(0, 5000))
    def test_characteristic_form_is_the_word(self, slope, n):
        form = morphic_form(Characteristic(slope))
        assume(form is not None)  # None only past the image cap
        assert prefix_of(form, n) == prefix_of(Characteristic(slope), n)

    @settings(max_examples=150, deadline=None)
    @given(periodic_slopes(), st.integers(0, 5000))
    def test_hubert_word_is_the_recoding(self, slope, n):
        assert prefix_of(Hubert(slope), n) == hubert_transform(
            characteristic_prefix(slope, n))

    @pytest.mark.parametrize("cf_fix", ["golden", "sqrt2m1"])
    def test_presets_at_2_20(self, cf_fix, request):
        slope, n = request.getfixturevalue(cf_fix), 1 << 20
        inner = characteristic_prefix(slope, n)
        assert prefix_of(morphic_form(Characteristic(slope)), n) == inner
        assert prefix_of(Hubert(slope), n) == hubert_transform(inner)

    @settings(max_examples=60, deadline=None)
    @given(periodic_slopes(), st.integers(1, 64))
    def test_bound_only_for_a_primitive_lift(self, slope, n):
        # every lift drawn so far is primitive; one that is not gets None,
        # never a bound
        lift = morphic_form(Hubert(slope))
        assume(lift is not None)
        found = complete_prefix_length(Hubert(slope), n)
        assert (found is not None) == words._is_primitive(lift.morphism)

    def test_equal_slopes_share_one_lift(self):
        # built once per slope and shared, which is safe: a form is
        # immutable and its morphisms' tables are read-only
        first = words._hubert_form(Hubert(ContinuedFraction((2,), (1,))))
        again = words._hubert_form(Hubert(ContinuedFraction((2,), (1,))))
        assert again is first is not None
        assert not first.morphism._table.flags.writeable

    @settings(max_examples=60, deadline=None)
    @given(periodic_slopes())
    def test_shared_lift_equals_a_fresh_one(self, slope):
        form = words._slope_form(slope)
        fresh = None if form is None else words._parity_lift(form)
        assert words._hubert_form(Hubert(slope)) == fresh

    def test_golden_hubert_bound_shows_every_factor(self, golden):
        recipe = Hubert(golden)
        found = complete_prefix_length(recipe, 64)
        assert not new_factors(recipe, found.length, 64)

    @pytest.mark.parametrize("slope, n, longest", [
        (ContinuedFraction((), (4, 3, 4)), 20000, 4072),
        (ContinuedFraction((), (4, 4, 4)), 20000, None),  # 6765 symbols
        (ContinuedFraction((10**18,), (1,)), 20000, None),
        (ContinuedFraction((2, 3, 5, 7)), 200, None),  # finite expansion
    ], ids=["inside-cap", "past-cap", "huge-term", "finite"])
    def test_around_the_image_cap(self, slope, n, longest):
        form = morphic_form(Characteristic(slope))
        assert (form and max(map(len, form.morphism.images))) == longest
        assert (morphic_form(Hubert(slope)) is None) == (form is None)
        assert prefix_of(Hubert(slope), n) == hubert_transform(
            characteristic_prefix(slope, n))


class TestPrefixOf:
    def test_literal_prepend(self, golden):
        r = LiteralPrepend(bytes([2]), Characteristic(golden))
        assert prefix_of(r, 5).digits() == "20100"

    def test_explicit(self):
        assert prefix_of(Explicit(bytes([0, 1, 1, 0])), 4).digits() == "0110"

    def test_explicit_alphabet_is_checked_under_a_head(self):
        inner = Explicit(bytes([0, 2]), alphabet_size=2)
        for r, length in ((inner, 2), (LiteralPrepend(bytes([2]), inner), 3)):
            with pytest.raises(ValueError, match="alphabet range"):
                prefix_of(r, length)

    def test_periodic(self):
        assert prefix_of(Periodic(bytes([0, 1])), 5).digits() == "01010"

    def test_post_morphism(self):
        w = prefix_of(FixedPoint(FIBONACCI, 0, post=CONSTANT3), 12)
        assert w.digits() == "012021012012"  # images of 0,1,0,0 = fib prefix

    @settings(max_examples=100, deadline=None)
    @given(fixed_points_with_post(), st.integers(0, 3000))
    def test_post_morphism_matches_truncated_image(self, recipe, length):
        inner = fixed_point(recipe.morphism, 0, length)
        w = prefix_of(recipe, length)
        assert w.symbols == recipe.post.apply_raw(inner.symbols)[:length]
        assert w.alphabet_size == recipe.post.image_alphabet_size

    def test_prefix_coherence(self):
        for r in RECIPES:
            long = prefix_of(r, 400)
            for m in (0, 1, 57, 399):
                assert prefix_of(r, m).symbols == long.symbols[:m], r

    def test_determinism(self, golden):
        r = Hubert(golden)
        assert prefix_of(r, 333) == prefix_of(r, 333)

    def test_prefixes_compare_by_alphabet_and_symbols(self, golden):
        tm = fixed_point(THUE_MORSE, 0, 8)
        assert tm == WordPrefix(2, tm.symbols)
        assert tm != WordPrefix(3, tm.symbols)
        assert hubert_transform(characteristic_prefix(golden, 50)) == \
            hubert_ternary(golden, 50)
        assert prefix_of(LiteralPrepend(b"", Champernowne()), 40) == \
            champernowne_prefix(40)

    @pytest.mark.parametrize("generate", [
        lambda n: fixed_point(THUE_MORSE, 0, n),
        lambda n: characteristic_prefix(GOLDEN, n),
        lambda n: champernowne_prefix(n),
        lambda n: max_complexity_prefix(n),
        lambda n: hubert_ternary(GOLDEN, n),
        lambda n: prefix_of(FixedPoint(FIBONACCI, 0, post=CONSTANT3), n),
    ], ids=["fixed_point", "characteristic_prefix", "champernowne_prefix",
            "max_complexity_prefix", "hubert_ternary", "prefix_of"])
    def test_budget_refused_before_allocation(self, generate):
        tracemalloc.start()
        try:
            with pytest.raises(BudgetError, match="budget"):
                generate(words.DEFAULT_SYMBOL_BUDGET + 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


def new_factors(recipe, length, n):
    """Factors of length <= n of the prefix 4 * ``length`` long that the
    first ``length`` symbols do not show, found by listing every window."""
    symbols = prefix_of(recipe, 4 * length).symbols
    missing = set()
    for m in range(1, n + 1):
        early = {symbols[i:i + m] for i in range(length - m + 1)}
        missing |= {symbols[i:i + m] for i in range(4 * length - m + 1)} - early
    return missing


def letter_sets_reach_everything(m):
    """Whether some iterate m^j has every letter in every image: the
    letter sets of m^j(a) are followed until their tuple repeats."""
    every = frozenset(range(m.alphabet_size))
    sets = tuple(frozenset([a]) for a in range(m.alphabet_size))
    seen = set()
    while sets not in seen:
        if all(s == every for s in sets):
            return True
        seen.add(sets)
        sets = tuple(frozenset().union(*(set(m.images[b]) for b in s))
                     for s in sets)
    return False


def check_complete(recipe, n):
    found = complete_prefix_length(recipe, n)
    assume(found is not None and found.length <= 1 << 13)
    assert not new_factors(recipe, found.length, n), (recipe, n, found)
    return found


@st.composite
def fixed_points_maybe_post(draw):
    """A fixed point of a morphism over p <= 3 letters, image lengths 1..4,
    prolongable on 0, half the time with a post-morphism of image lengths
    1..4 onto up to four letters."""
    m = draw(prolongable_morphisms())
    if draw(st.booleans()):
        return FixedPoint(m, 0)
    image = st.lists(st.integers(0, 3), min_size=1, max_size=4).map(bytes)
    post = tuple(draw(image) for _ in range(m.alphabet_size))
    return FixedPoint(m, 0, Morphism(post))


def two_factors(symbols):
    return set(zip(symbols, symbols[1:]))


@st.composite
def large_quotient_slopes(draw):
    """Irrational slopes with partial quotients 1..5 and, now and then,
    some up to 300."""
    term = st.one_of(st.integers(1, 5), st.integers(20, 300))
    return ContinuedFraction(tuple(draw(st.lists(term, max_size=4))),
                             tuple(draw(st.lists(term, min_size=1,
                                                 max_size=3))))


class TestCompletePrefixLength:
    def test_thue_morse(self):
        found = complete_prefix_length(FixedPoint(THUE_MORSE, 0), 1024)
        assert found.length == 8192
        assert (found.witness["k"], found.witness["K"]) == (10, 3)
        assert found.witness["two_factors"] == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_rauzy_morphism(self):
        found = complete_prefix_length(
            FixedPoint(FIBONACCI, 0, post=CONSTANT3), 512)
        assert found.length == 4791  # 3 * |fib^15(0)| = 3 * 1597
        assert found.witness["inner_n"] == 172

    def test_tribonacci(self):
        found = complete_prefix_length(FixedPoint(TRIBONACCI, 0), 2000)
        assert found.length == 66012
        assert (found.witness["k"], found.witness["K"]) == (14, 4)

    def test_periodic_and_prepend(self):
        pattern = bytes(range(10))
        assert complete_prefix_length(Periodic(pattern), 200).length == 209
        r = LiteralPrepend(bytes([1, 2]), LiteralPrepend(bytes([0]),
                                                          Periodic(pattern)))
        assert complete_prefix_length(r, 200).length == 212

    def test_fibonacci_characteristic(self, golden):
        # q_j: 1, 2, 3, 5, ... ; the largest q_j <= 256 is q_11 = 233
        found = complete_prefix_length(Characteristic(golden), 256)
        assert found.witness == {"j": 11, "q": [233, 377]}
        assert found.length == 256 + 377 + 233 - 1

    @pytest.mark.parametrize("recipe", [
        FixedPoint(Morphism.from_strings({"0": "01", "1": "1"}), 0),
        FixedPoint(DOUBLING, 0),
        FixedPoint(TRIPLE_RUNS, 0),
        FixedPoint(FIBONACCI, 1),  # not prolongable on 1
        Characteristic(ContinuedFraction((2, 3))),  # rational slope
        Explicit(bytes([0, 1]) * 50),
        Champernowne(),
        MaxComplexity(),
        Hubert(ContinuedFraction((2, 3))),  # rational slope: no form
        LiteralPrepend(bytes([1]), Hubert(ContinuedFraction((2, 3)))),
    ])
    def test_no_known_bound_gives_none(self, recipe):
        assert complete_prefix_length(recipe, 16) is None

    def test_below_one_is_the_empty_prefix(self):
        assert complete_prefix_length(Champernowne(), 0).length == 0

    def test_empty_periodic_pattern_is_refused(self):
        # refused when the recipe is built, so no length is ever derived
        # from a period of 0
        refused = "periodic pattern must be non-empty"
        with pytest.raises(ValueError, match=refused):
            complete_prefix_length(Periodic(b""), 5)
        with pytest.raises(ValueError, match=refused):
            recipe_from_dict({"kind": "periodic", "pattern": ""})

    @settings(max_examples=80, deadline=None)
    @given(prolongable_morphisms())
    def test_primitivity_matches_letter_sets(self, m):
        found = complete_prefix_length(FixedPoint(m, 0), 4)
        assert (found is not None) == letter_sets_reach_everything(m)

    @settings(max_examples=80, deadline=None)
    @given(fixed_points_maybe_post(), st.integers(1, 8))
    def test_fixed_points_show_every_factor(self, recipe, n):
        found = check_complete(recipe, n)
        m, k, K = recipe.morphism, found.witness["k"], found.witness["K"]
        iterates = [bytes([0])]
        for _ in range(k + K + 1):
            iterates.append(join_images(m, iterates[-1]))
        # m^K(0) holds every 2-factor, m^(K-1)(0) does not, m^(K+1)(0) adds none
        pairs = set(found.witness["two_factors"])
        assert two_factors(iterates[K]) == two_factors(iterates[K + 1]) == pairs
        assert two_factors(iterates[K - 1]) != pairs
        # k is the least iterate whose images all reach inner_n - 1
        images = [bytes([a]) for a in range(m.alphabet_size)]
        shortest = [min(map(len, images))]
        for _ in range(k):
            images = [join_images(m, img) for img in images]
            shortest.append(min(map(len, images)))
        need = found.witness["inner_n"] - 1
        assert shortest[k] >= need and (k == 0 or shortest[k - 1] < need)
        word = iterates[k + K]
        assert found.length == len(recipe.post.apply_raw(word)
                                   if recipe.post else word)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(0, 3), min_size=1, max_size=12).map(bytes),
           st.integers(1, 30))
    def test_periodic_words_show_every_factor(self, pattern, n):
        check_complete(Periodic(pattern), n)

    @settings(max_examples=60, deadline=None)
    @given(large_quotient_slopes(), st.integers(1, 40))
    def test_sturmian_words_show_every_factor(self, slope, n):
        found = check_complete(Characteristic(slope), n)
        q, q_next = found.witness["q"]
        assert q <= n < q_next

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(0, 2), max_size=6).map(bytes),
           st.sampled_from([FixedPoint(THUE_MORSE, 0), Characteristic(GOLDEN),
                            Periodic(bytes([0, 1, 1])),
                            FixedPoint(FIBONACCI, 0, post=CONSTANT3)]),
           st.integers(1, 12))
    def test_literal_prepends_show_every_factor(self, head, inner, n):
        check_complete(LiteralPrepend(head, inner), n)


TM_WIRE = {"kind": "fixed-point", "morphism": {"0": "01", "1": "10"},
           "seed": "0"}


class TestRecipeSchema:
    def test_covers_every_kind(self):
        classes = [kind.cls for kind in words._KINDS]
        assert len(set(classes)) == len(classes) == len(words._BY_NAME)
        assert set(classes) == set(get_args(WordRecipe))
        assert {type(r) for r in RECIPES} == set(classes)

    def test_round_trips(self):
        for r in RECIPES:
            text = json.dumps(recipe_to_dict(r))
            assert recipe_from_dict(json.loads(text)) == r
            assert recipe_from_json(text) == r

    def test_seed_may_be_a_json_integer(self):
        d = {"kind": "fixed-point", "morphism": {"0": "01", "1": "10"},
             "seed": 1}
        assert recipe_from_dict(d) == FixedPoint(THUE_MORSE, 1)

    @pytest.mark.parametrize("d", [
        [1], "x", None, {"kind": ["fixed-point"]},
        dict(TM_WIRE, morphism=["01", "10"]),
        dict(TM_WIRE, morphism={"0": "01", " 1": "10"}),
        dict(TM_WIRE, morphism={"0": "01", "1": 10}),
        dict(TM_WIRE, morphism={"0": "0", "1": "10", "00": "01"}),
        dict(TM_WIRE, morphism={"0": "01", "99999999999999": "10"}),
        dict(TM_WIRE, post=[]),
        dict(TM_WIRE, seed=1.7), dict(TM_WIRE, seed=True),
        dict(TM_WIRE, seed="1.0"), dict(TM_WIRE, seed=None),
        dict(TM_WIRE, seed=1e400),
        {"kind": "characteristic", "slope": [1, 2]},
        {"kind": "characteristic", "slope": {"preperiod": [2.9]}},
        {"kind": "characteristic", "slope": {"preperiod": [1e400]}},
        {"kind": "hubert", "slope": {"preperiod": "21"}},
        {"kind": "hubert", "slope": {"period": [True]}},
        {"kind": "periodic", "pattern": ["0"]},
        {"kind": "explicit", "symbols": 110},
        {"kind": "explicit", "symbols": "0110", "alphabet_size": 0},
        {"kind": "explicit", "symbols": "0110", "alphabet_size": 2.0},
        {"kind": "explicit", "symbols": "0110", "alphabet_size": 2.5},
        {"kind": "explicit", "symbols": "0110", "alphabet_size": "3"},
        {"kind": "explicit", "symbols": "0110", "alphabet_size": None},
        {"kind": "explicit", "symbols": "0110", "alphabet_size": 257},
        {"kind": "literal-prepend", "prefix": "2", "inner": "x"},
    ])
    def test_wrong_wire_type_is_value_error(self, d):
        with pytest.raises(ValueError):
            recipe_from_dict(d)

    @pytest.mark.parametrize("depth", [700, 5000])
    def test_deep_literal_prepend_nesting(self, depth):
        d = {"kind": "periodic", "pattern": "01"}
        for i in range(depth):
            d = {"kind": "literal-prepend", "prefix": str(i % 3), "inner": d}
        r = recipe_from_dict(d)
        heads = bytes(i % 3 for i in reversed(range(depth)))
        assert prefix_of(r, depth + 5).symbols == heads + bytes([0, 1, 0, 1, 0])
        assert prefix_of(r, 9).symbols == heads[:9]
        assert prefix_of(r, depth + 5).alphabet_size == 3
        dumped = recipe_to_dict(r)
        if depth < 1000:  # comparing nested dicts recurses once per level
            assert dumped == d

    def test_deep_literal_prepend_equality_and_hash(self):
        def nest(innermost, depth=3000):
            r = innermost
            for i in range(depth):
                r = LiteralPrepend(bytes([i % 3]), r)
            return r
        a, b = nest(Periodic(bytes([0, 1]))), nest(Periodic(bytes([0, 1])))
        other = nest(Periodic(bytes([1, 0])))
        assert a is not b and a == b and hash(a) == hash(b)
        assert a != other and hash(a) != hash(other)
        assert len({a, b, other}) == 2
        # the levels' prefixes are compared one by one, not concatenated
        inner = Characteristic(GOLDEN)
        assert (LiteralPrepend(bytes([0]), LiteralPrepend(bytes([1]), inner))
                != LiteralPrepend(bytes([0, 1]), inner))

    def test_deep_literal_prepend_repr_and_pickle(self):
        def nest(depth=3000):
            r = Hubert(GOLDEN)
            for i in range(depth):
                r = LiteralPrepend(bytes([i % 3]), r)
            return r
        a, b = nest(), nest()
        assert repr(a) == repr(b)
        assert repr(a).startswith("LiteralPrepend(prefix=b'\\x02', inner="
                                  "LiteralPrepend(prefix=b'\\x01', inner=")
        assert repr(a).endswith(repr(Hubert(GOLDEN)) + ")" * 3000)
        restored = pickle.loads(pickle.dumps(a))
        assert restored is not a and restored == a == b
        assert hash(restored) == hash(a)
        assert prefix_of(restored, 3005) == prefix_of(a, 3005)
        # a shallow recipe reads back as itself
        r = LiteralPrepend(bytes([1]), LiteralPrepend(b"", Periodic(b"\0")))
        assert repr(r) == ("LiteralPrepend(prefix=b'\\x01', inner="
                           "LiteralPrepend(prefix=b'', inner="
                           "Periodic(pattern=b'\\x00')))")
        assert eval(repr(r)) == r

    def test_wire_format(self):
        r = recipe_from_json(
            '{"kind": "characteristic", "slope": {"preperiod": [2], "period": [1]}}')
        assert prefix_of(r, 8).digits() == "01001010"

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown recipe kind"):
            recipe_from_dict({"kind": "nope"})


class TestWordPrefix:
    def test_symbol_validation(self):
        with pytest.raises(ValueError, match="alphabet"):
            WordPrefix(2, bytes([0, 2]))

    @pytest.mark.parametrize("size", [0, 257, 10**8])
    def test_alphabet_beyond_bytes(self, size):
        # symbols are bytes: 256 letters at most, checked before any work
        with pytest.raises(ValueError, match="alphabet size must be 1..256"):
            WordPrefix(size, bytes([0]))
        with pytest.raises(ValueError, match="alphabet size must be 1..256"):
            prefix_of(Explicit(bytes([0]), size), 1)

    def test_shift(self, tm4096):
        assert tm4096.shift(5).symbols == tm4096.symbols[5:]

    def test_shift_refuses_a_negative_offset(self, tm4096):
        w = WordPrefix(2, tm4096.symbols[:16])
        assert w.shift(16).symbols == b"" and w.shift(0) == w
        with pytest.raises(ValueError, match="shift must be >= 0"):
            w.shift(-3)

    def test_digits_guard(self):
        with pytest.raises(ValueError, match="size 10"):
            WordPrefix(11, bytes([10])).digits()

    @pytest.mark.parametrize("p, symbols, shown", [
        (11, bytes([10]), "[10]"),
        (11, bytes(), "[]"),
        (256, bytes([255, 0, 17]), "[255, 0, 17]"),
        (256, bytes(range(40)),
         "[" + ", ".join(map(str, range(32))) + ", ...]"),
    ], ids=["p11", "p11-empty", "p256", "p256-long"])
    def test_repr_beyond_ten_letters(self, p, symbols, shown):
        assert repr(WordPrefix(p, symbols)) == \
            f"WordPrefix(p={p}, len={len(symbols)}, {shown})"

    def test_repr_formats_only_the_head(self):
        w = prefix_of(FixedPoint(THUE_MORSE, 0), 1 << 22)
        tracemalloc.start()
        try:
            shown = repr(w)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert shown == ("WordPrefix(p=2, len=4194304, "
                         "'01101001100101101001011001101001...')")
        assert peak < 1 << 12
        assert repr(WordPrefix(2, bytes([0, 1]))) == \
            "WordPrefix(p=2, len=2, '01')"
