import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from test_words import fixed_points_maybe_post

from abelianwords import checks
from abelianwords.checks import (DEFAULT_MARGIN, CheckReport,
                                 MuDecomposition, inspected_length,
                                 inspected_prefix,
                                 mu_preimage_decompose,
                                 periodicity_via_parikh,
                                 rauzy_constant3_check,
                                 special_factor_witnesses, tm_profile_check)
from abelianwords.complexity import abelian_profile, parikh_classes, profile
from abelianwords.contfrac import ContinuedFraction
from abelianwords.words import (CONSTANT3, FIBONACCI, THUE_MORSE, BudgetError,
                                Champernowne, Characteristic, FixedPoint,
                                Hubert, LiteralPrepend, Periodic, WordPrefix,
                                apply_morphism, champernowne_prefix,
                                complete_prefix_length, fixed_point,
                                max_complexity_prefix, prefix_of)


def word(digits):
    return WordPrefix(2, bytes(int(c) for c in digits))


class TestTmProfileCheck:
    def test_thue_morse_passes(self, tm4096):
        assert tm_profile_check(tm4096, 64).passed

    def test_mu_of_champernowne_passes(self):
        w = apply_morphism(THUE_MORSE, champernowne_prefix(2048))
        assert tm_profile_check(w, 64).passed

    def test_shifts_of_thue_morse_pass(self):
        w = fixed_point(THUE_MORSE, 0, 3000)
        for j in (1, 2, 5, 13):
            assert tm_profile_check(w.shift(j), 32).passed

    def test_fibonacci_fails_at_first_even_length(self, fib4096):
        report = tm_profile_check(fib4096, 64)
        assert not report.passed
        assert report.witness == {"n": 2, "expected": 3, "actual": 2}

    def test_factor_complete_prefix_shorter_than_the_margin(self, tm4096):
        # 4096 < 64 * 256 symbols, but the Thue-Morse prefix of 8 * 256
        # symbols already holds every factor of length <= 256
        thue_morse = FixedPoint(THUE_MORSE, 0)
        assert len(inspected_prefix(thue_morse, 256)) == 8 * 256
        assert tm_profile_check(tm4096, 256).passed
        assert tm_profile_check(inspected_prefix(thue_morse, 256), 256) \
            == tm_profile_check(tm4096, 256)


class TestInspectedLength:
    def test_factor_complete_where_known(self):
        rauzy = FixedPoint(FIBONACCI, 0, post=CONSTANT3)
        assert inspected_length(rauzy, 512) == 4791
        assert inspected_length(FixedPoint(THUE_MORSE, 0), 1024) == 8192

    def test_margin_without_a_bound(self, golden):
        # a Hubert word of an eventually periodic slope is bounded through
        # its morphic form, the parity lift; a finite expansion has no form
        # and keeps the margin
        assert inspected_length(Hubert(golden), 512) == 17711
        finite = Hubert(ContinuedFraction((2, 3)))
        assert inspected_length(finite, 512) == DEFAULT_MARGIN * 512

    def test_margin_caps_a_longer_bound(self):
        # q_1 = 1000, so the Sturmian bound at n = 2 is 2 + 1000 + 1 - 1
        slope = Characteristic(ContinuedFraction((1000,), (1,)))
        assert complete_prefix_length(slope, 2).length == 1002
        assert inspected_length(slope, 2) == DEFAULT_MARGIN * 2 == 128
        assert inspected_length(slope, 16) == 1016 < DEFAULT_MARGIN * 16

    @pytest.mark.parametrize("recipe, n_max", [
        (FixedPoint(FIBONACCI, 0, post=CONSTANT3), 512),
        (FixedPoint(THUE_MORSE, 0), 1024),
        (Hubert(ContinuedFraction((2,), (1,))), 10),
    ], ids=["rauzy", "thue-morse", "hubert-margin"])
    def test_inspected_prefix_is_of_inspected_length(self, recipe, n_max):
        assert inspected_prefix(recipe, n_max) == prefix_of(
            recipe, inspected_length(recipe, n_max))

    def test_inspected_prefix_honours_prefix_len(self):
        rauzy = FixedPoint(FIBONACCI, 0, post=CONSTANT3)
        assert inspected_prefix(rauzy, 200, 300) == prefix_of(rauzy, 300)
        with pytest.raises(ValueError, match="1 <= 1 <= 200 <= 100"):
            inspected_prefix(rauzy, 200, 100)

    def test_prefix_len_caps_the_factor_complete_length(self):
        rauzy = FixedPoint(FIBONACCI, 0, post=CONSTANT3)
        assert complete_prefix_length(rauzy, 200).length == 1830
        assert inspected_length(rauzy, 200, 5000) == 1830
        assert inspected_length(rauzy, 200, 300) == 300
        # without a bound the whole given length is read
        assert inspected_length(Champernowne(), 200, 5000) == 5000

    def test_prefix_len_is_cut_to_its_head(self, monkeypatch):
        # prefix_of is asked for min(L, C), C the factor-complete length
        rauzy = FixedPoint(FIBONACCI, 0, post=CONSTANT3)
        asked = []

        def spy(recipe, length):
            asked.append(length)
            return prefix_of(recipe, length)
        monkeypatch.setattr(checks, "prefix_of", spy)
        assert inspected_prefix(rauzy, 200, 5000) == prefix_of(rauzy, 1830)
        assert inspected_prefix(rauzy, 200, 1831) == prefix_of(rauzy, 1830)
        assert inspected_prefix(rauzy, 200, 300) == prefix_of(rauzy, 300)
        assert asked == [1830, 1830, 300]

    @pytest.mark.parametrize("n_max, prefix_len, error, message", [
        (1, 70000000, BudgetError, "requested 70000000 symbols, budget is"),
        (1000, 67000000, BudgetError, "window steps"),
        (5, -1, ValueError, "1 <= 1 <= 5 <= -1"),
        (5, 3, ValueError, "1 <= 1 <= 5 <= 3"),
    ], ids=["budget", "window-steps", "negative", "shorter-than-n"])
    def test_prefix_len_is_refused_as_given(self, monkeypatch, n_max,
                                            prefix_len, error, message):
        # the Thue-Morse head is 8 symbols at n_max = 1: the refusal is
        # decided on the given length, before the head is measured
        def refuse(*args):
            raise AssertionError("head measured")
        monkeypatch.setattr(checks, "complete_prefix_length", refuse)
        with pytest.raises(error, match=message):
            inspected_prefix(FixedPoint(THUE_MORSE, 0), n_max, prefix_len)

    @settings(max_examples=80, deadline=None)
    @given(fixed_points_maybe_post(),
           st.one_of(st.none(),
                     st.lists(st.integers(0, 3), min_size=1,
                              max_size=6).map(bytes)),
           st.integers(1, 40), st.integers(0, 500))
    def test_head_profiles_as_the_whole_prefix(self, recipe, head, n,
                                               extra):
        # differential: the profile of the head read for a prefix_len of
        # C + extra is that of every one of its symbols, which also checks
        # C, the factor-complete length, on primitive fixed points
        if head is not None:
            recipe = LiteralPrepend(head, recipe)
        found = complete_prefix_length(recipe, n)
        assume(found is not None and found.length <= 1 << 14)
        length = found.length + extra
        got = profile(inspected_prefix(recipe, n, length), n)
        want = profile(prefix_of(recipe, length), n)
        assert got.prefix_len == found.length
        assert (got.rho_ab, got.rho, got.balance_running) == \
            (want.rho_ab, want.rho, want.balance_running), (recipe, n, length)

    def test_rauzy_check_reads_the_same_on_both(self):
        # the check reads the factor-complete prefix; the margin's longer
        # prefix has the same profile
        rauzy = FixedPoint(FIBONACCI, 0, post=CONSTANT3)
        assert inspected_length(rauzy, 200) < DEFAULT_MARGIN * 200
        assert rauzy_constant3_check(rauzy, 200).passed
        assert abelian_profile(prefix_of(rauzy, DEFAULT_MARGIN * 200),
                               200) == [3] * 200


def loop_decompose(w):
    """Reference for mu_preimage_decompose: the per-symbol loop its strided
    comparison replaced."""
    s = w.symbols
    out = []
    for offset in (0, 1):
        if offset > len(s):
            break
        core = bytearray()
        ok = True
        i = offset
        while i + 1 < len(s):
            a, b = s[i], s[i + 1]
            if a == b:
                ok = False
                break
            core.append(a)
            i += 2
        if ok:
            out.append(MuDecomposition(
                offset=offset,
                prepended=s[0] if offset == 1 else None,
                core=bytes(core),
                dangling_dropped=i < len(s)))
    return out


BINARY = st.lists(st.integers(0, 1), max_size=64).map(bytes)
# a letter or none, then an image under mu, cut to at most 64 letters
MU_IMAGES = st.tuples(BINARY.map(lambda b: b[:1]), BINARY,
                      st.integers(0, 64)).map(
    lambda t: (t[0] + THUE_MORSE.apply_raw(t[1]))[:t[2]])


class TestMuPreimage:
    def test_0110(self):
        (d,) = mu_preimage_decompose(word("0110"))
        assert (d.offset, d.prepended, d.core, d.dangling_dropped) == \
            (0, None, bytes([0, 1]), False)

    def test_prepended_form(self):
        (d,) = mu_preimage_decompose(word("10110"))
        assert (d.offset, d.prepended, d.core, d.dangling_dropped) == \
            (1, 1, bytes([0, 1]), False)

    def test_0011_succeeds_only_at_offset_one_with_dangling(self):
        (d,) = mu_preimage_decompose(word("0011"))
        assert (d.offset, d.prepended, d.core, d.dangling_dropped) == \
            (1, 0, bytes([0]), True)

    def test_both_offsets_can_succeed(self):
        ds = mu_preimage_decompose(word("010"))
        assert [d.offset for d in ds] == [0, 1]

    def test_no_alignment(self):
        assert mu_preimage_decompose(word("0000")) == []

    def test_round_trip(self, tm4096):
        (d,) = mu_preimage_decompose(tm4096)
        assert THUE_MORSE.apply_raw(d.core) == tm4096.symbols

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(BINARY, MU_IMAGES))
    @example(b"")
    @example(b"\x01")
    @example(b"\x00\x01\x00")
    def test_matches_loop(self, symbols):
        w = WordPrefix(2, symbols)
        assert mu_preimage_decompose(w) == loop_decompose(w)


class TestPeriodicity:
    def test_periodic_word_passes(self):
        w = prefix_of(Periodic(bytes([0, 1])), 64)
        assert periodicity_via_parikh(w, 2).passed

    def test_0110_fails_with_window_witness(self):
        report = periodicity_via_parikh(word("0110"), 2)
        assert not report.passed
        assert report.witness["window_a"] == bytes([0, 1])
        assert report.witness["window_b"] == bytes([1, 1])

    def test_thue_morse_has_no_small_period(self):
        w = fixed_point(THUE_MORSE, 0, 64)
        assert all(not periodicity_via_parikh(w, p).passed for p in range(1, 17))

    def test_multiple_of_period_passes(self):
        w = prefix_of(Periodic(bytes([0, 1])), 64)
        assert periodicity_via_parikh(w, 6).passed

    def test_too_short(self):
        with pytest.raises(ValueError, match="symbols"):
            periodicity_via_parikh(word("01"), 2)

    def test_long_word_large_period_verdict_and_witness(self):
        # period-10 word of 16000 symbols, p = 2000: a pass, and a fail
        # once one letter is changed; the witness is recomputed here from
        # the direct definition with plain Python counts
        pattern = bytes(range(10))
        w = prefix_of(Periodic(pattern), 16000)
        assert periodicity_via_parikh(w, 2000).passed
        symbols = bytearray(w.symbols)
        symbols[12345] = (symbols[12345] + 1) % 10
        bad = WordPrefix(10, bytes(symbols))
        report = periodicity_via_parikh(bad, 2000)
        assert not report.passed
        i = next(j for j in range(16000 - 2000)
                 if symbols[j] != symbols[j + 2000])
        assert i == 12345 - 2000
        a, b = bytes(symbols[i:i + 2000]), bytes(symbols[i + 1:i + 2001])
        assert report.witness == {
            "position": i, "window_a": a, "window_b": b,
            "parikh_a": tuple(a.count(c) for c in range(10)),
            "parikh_b": tuple(b.count(c) for c in range(10))}
        assert report.witness["parikh_a"] != report.witness["parikh_b"]


class TestSpecialFactors:
    def test_thue_morse_k3(self):
        w = fixed_point(THUE_MORSE, 0, 16)
        assert special_factor_witnesses(w, 3) == \
            ((0, bytes([0, 1, 1])), (1, bytes([1, 1, 0])))

    def test_alternating_k2(self):
        w = prefix_of(Periodic(bytes([0, 1])), 8)
        assert special_factor_witnesses(w, 2) == \
            ((0, bytes([0, 1])), (1, bytes([1, 0])))

    def test_constant_word_has_none(self):
        assert special_factor_witnesses(WordPrefix(2, bytes(8)), 2) is None


class TestRauzyConstant3:
    def test_hubert_golden(self, golden):
        assert rauzy_constant3_check(Hubert(golden), 64).passed

    def test_morphism_image_of_fibonacci(self):
        recipe = FixedPoint(FIBONACCI, 0, post=CONSTANT3)
        assert rauzy_constant3_check(recipe, 64).passed

    def test_periodic_counterexample_fails_at_six(self):
        # the morphism image of (01)^inf is (012021)^inf, periodic with
        # period 6, so the aperiodicity hypothesis fails and so does the check
        report = rauzy_constant3_check(Periodic(bytes([0, 1, 2, 0, 2, 1])), 8)
        assert not report.passed
        assert report.witness == {"n": 6, "expected": 3, "actual": 1}

    def test_letter_prepended_sturmian_word(self, golden):
        # 2 followed by a binary Sturmian word also has constant rho_ab 3
        # (the non-recurrent answer); every length sees the two Sturmian
        # classes plus the single class of the window containing the 2
        from abelianwords.words import Characteristic, LiteralPrepend
        recipe = LiteralPrepend(bytes([2]), Characteristic(golden))
        assert rauzy_constant3_check(recipe, 64).passed


class TestStructuralInvariants:
    def test_profile_pass_words_decompose_and_vice_versa(self, tm4096):
        muc = apply_morphism(THUE_MORSE, champernowne_prefix(2048))
        prepended = WordPrefix(2, bytes([0]) + muc.symbols[:4095])
        for w in (tm4096, muc, prepended):
            assert tm_profile_check(w, 32).passed
            assert mu_preimage_decompose(w)

    def test_words_failing_decand_profile(self, fib4096):
        # contrapositive spot-check on corpus words that fail to decompose
        mc = max_complexity_prefix(4096)
        for w in (mc,):
            assert mu_preimage_decompose(w) == []
            assert not tm_profile_check(w, 32).passed

    def test_no_cube_of_a_letter_in_passing_words(self, tm4096):
        assert tm_profile_check(tm4096, 3).passed
        s = tm4096.symbols
        assert bytes([0, 0, 0]) not in s and bytes([1, 1, 1]) not in s

    def test_thue_morse_class_shapes(self):
        # Psi(2k+1) = {(k+1,k),(k,k+1)} and
        # Psi(2k+2) = {(k+1,k+1),(k,k+2),(k+2,k)} for k <= 100
        w = fixed_point(THUE_MORSE, 0, 8192)
        for k in range(101):
            assert parikh_classes(w, 2 * k + 1) == {(k + 1, k), (k, k + 1)}
            assert parikh_classes(w, 2 * k + 2) == \
                {(k + 1, k + 1), (k, k + 2), (k + 2, k)}

    def test_failing_report_requires_witness(self):
        with pytest.raises(ValueError, match="witness"):
            CheckReport("x", "1..2", False)
