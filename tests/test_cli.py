import hashlib
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

PERIODIC10 = '{"kind": "periodic", "pattern": "0123456789"}'
GOLDEN_JSON = '{"preperiod": [2], "period": [1]}'

import abelianwords
from abelianwords import checks
from abelianwords.cli import RECIPE_PRESETS, main
from abelianwords.complexity import abelian_profile, profile
from abelianwords.contfrac import ContinuedFraction
from abelianwords.powers import sturmian_powers
from abelianwords.words import (complete_prefix_length, prefix_of,
                                recipe_from_dict, recipe_to_dict)


def run(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr()
    return code, out.out, out.err


def profile_csv(prof):
    rows = zip(prof.rho_ab, prof.rho, prof.balance_running)
    return "n,rho_ab,rho,balance_running\n" + "".join(
        f"{n},{rho_ab},{rho},{running}\n"
        for n, (rho_ab, rho, running) in enumerate(rows, 1))


class TestGenerate:
    def test_thue_morse(self, capsys):
        code, out, _ = run(capsys, "generate", "--recipe", "tm", "--len", "16")
        assert code == 0 and out == "0110100110010110\n"

    def test_champernowne_display(self, capsys):
        code, out, _ = run(capsys, "generate", "--recipe", "champernowne",
                           "--len", "26")
        assert code == 0 and out == "01101110010111011110001001\n"

    def test_zero_length_is_empty_line(self, capsys):
        code, out, _ = run(capsys, "generate", "--recipe", "tm", "--len", "0")
        assert code == 0 and out == "\n"

    @pytest.mark.parametrize("recipe", ["tm", "tribonacci"])
    @pytest.mark.parametrize("length", [0, 1, (1 << 16) + 1])
    def test_stdout_is_the_digits_and_a_newline(self, capsys, recipe, length):
        code, out, err = run(capsys, "generate", "--recipe", recipe,
                             "--len", str(length))
        w = prefix_of(recipe_from_dict(RECIPE_PRESETS[recipe]), length)
        assert (code, err) == (0, "")
        assert out == w.digits() + "\n" == "".join(map(str, w)) + "\n"

    def test_holds_two_copies_beyond_the_prefix(self, capsys, tmp_path):
        # the prefix, the digits and the text at most: a bound on peak
        # memory only. Writing the digits and the newline into one buffer
        # decoded once saves a word-sized allocation, not peak memory, so
        # this also holds where they were translated, decoded and joined
        n = 1 << 20
        path = tmp_path / "word.txt"
        main(["generate", "--recipe", "tm", "--len", "1", "--out", str(path)])
        tracemalloc.start()
        try:
            code = main(["generate", "--recipe", "tm", "--len", str(n),
                         "--out", str(path)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0 and path.stat().st_size == n + 1
        assert peak <= 3 * n + (1 << 16)

    def test_inline_json_recipe(self, capsys):
        recipe = '{"kind": "periodic", "pattern": "01"}'
        code, out, _ = run(capsys, "generate", "--recipe", recipe, "--len", "5")
        assert code == 0 and out == "01010\n"

    def test_recipe_file(self, capsys, tmp_path):
        path = tmp_path / "word.json"
        path.write_text(json.dumps(
            {"kind": "fixed-point", "morphism": {"0": "01", "1": "10"},
             "seed": "0"}))
        code, out, _ = run(capsys, "generate", "--recipe", str(path),
                           "--len", "8")
        assert code == 0 and out == "01101001\n"

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "word.txt"
        code, _, _ = run(capsys, "generate", "--recipe", "tm", "--len", "4",
                         "--out", str(path))
        assert code == 0
        assert path.read_bytes() == b"0110\n"

    def test_unwritable_output_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "missing" / "word.txt"
        code, out, err = run(capsys, "generate", "--recipe", "tm", "--len",
                             "4", "--out", str(path))
        assert code == 2 and out == ""
        assert err.startswith(f"error: cannot write {path}: ")
        assert err.count("\n") == 1

    def test_morphism_without_image_is_usage_error(self, capsys):
        recipe = ('{"kind": "fixed-point", "morphism": {"0": "02", "1": "1"},'
                  ' "seed": "0"}')
        code, out, err = run(capsys, "generate", "--recipe", recipe,
                             "--len", "10")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_presets_round_trip_byte_for_byte(self):
        # certificates embed recipe_to_dict, so key order matters too
        for d in RECIPE_PRESETS.values():
            assert json.dumps(recipe_to_dict(recipe_from_dict(d))) == \
                json.dumps(d)

    @pytest.mark.parametrize("flags", [["generate", "--len", "3", "--recipe"],
                                       ["powers", "sturmian", "--k", "2",
                                        "--slope"]])
    def test_unreadable_path_is_usage_error(self, capsys, tmp_path, flags):
        # an existing path that cannot be read as a file: a directory
        code, out, err = run(capsys, *flags, str(tmp_path))
        assert code == 2 and out == ""
        assert err.startswith("error: cannot read ") and err.count("\n") == 1

    def test_deeply_nested_recipe_file(self, capsys, tmp_path):
        d = {"kind": "periodic", "pattern": "01"}
        for _ in range(700):
            d = {"kind": "literal-prepend", "prefix": "2", "inner": d}
        path = tmp_path / "deep.json"
        path.write_text(json.dumps(d))
        code, out, err = run(capsys, "generate", "--recipe", str(path),
                             "--len", "703")
        assert code == 0 and out == "2" * 700 + "010\n" and err == ""

    def test_too_deep_for_json_is_usage_error(self, capsys, tmp_path):
        depth = 100000
        path = tmp_path / "deeper.json"
        path.write_text('{"kind": "literal-prepend", "prefix": "2", "inner": '
                        * depth + '{"kind": "periodic", "pattern": "01"}'
                        + "}" * depth)
        code, out, err = run(capsys, "generate", "--recipe", str(path),
                             "--len", "3")
        assert code == 2 and out == ""
        assert err.startswith("error: bad recipe") and err.count("\n") == 1

    def test_bad_recipe_is_usage_error(self, capsys):
        code, _, err = run(capsys, "generate", "--recipe", "nonsense",
                           "--len", "4")
        assert code == 2 and "recipe" in err

    def test_empty_periodic_pattern_is_a_bad_recipe(self, capsys):
        code, out, err = run(capsys, "profile", "--recipe",
                             '{"kind":"periodic","pattern":""}', "--nmax", "4")
        assert (code, out) == (2, "")
        assert err == "error: bad recipe: periodic pattern must be non-empty\n"


# SHA-256 of `generate --recipe <preset> --len 1048576` stdout, frozen at
# commit d0d6127 (fixed points by per-letter gathers, the Hubert recoding
# by a cumulative sum) before both were rebuilt from block copies; the
# generated words must stay byte for byte the same.
MIXED_POST = json.dumps({"kind": "fixed-point",
                         "morphism": {"0": "01", "1": "0"}, "seed": "0",
                         "post": {"0": "0", "1": "1111"}})
GENERATE_DIGESTS = {
    "tm": "54d1a9940153c4de3d924efa06da454c1b9f9da25c7d909e429092c46f0792c1",
    "fibonacci":
        "55bada84559327145bf8b8f4219981e1f31418f594273247f206da2bd95fe878",
    "sqrt2-characteristic":
        "c17da6583f8599b166791869245ad5ed558e9eaf88a178afe764d8168325c2fb",
    "champernowne":
        "e76b299f801dd66b20a9bc269d250ab459eb219ec596bfe97b208708e06bb952",
    "max-complexity":
        "a20f1f00612d811d0cbecc5697db6cd27fc63051735f97b7fb9cb007784f1895",
    "periodic01":
        "e46167bf5e829a4604b27f4a3a8ebe74922fa78a2dba32994b80366c752e128b",
    "const0":
        "a505bd26785ac7e8b70970d10e3a9d1e689b6e4014d3a5669580e222f4d139b4",
    "hubert-golden":
        "7a0d24a21ee7693bcfc28e2fc3ab0f1180f3174825b6f88e3dccc2a1a2d51229",
    "rauzy-morphism":
        "d001b10c40789ac1355f1530e87c9f15c6d457fd54a5eb5004dfd338d20c04dd",
    "tribonacci":
        "a0f428141ee0c9a2e12315c42888568028c9558e9e9ffe7838d559026f45f5ee",
    MIXED_POST:
        "41f79c80334467cb4126d47a0c632ae2f0a0fcd0ce97b0b9155144d75d859592",
}


class TestGenerateDigests:
    def test_every_preset_is_frozen(self):
        assert set(RECIPE_PRESETS) == set(GENERATE_DIGESTS) - {MIXED_POST}

    @pytest.mark.parametrize(
        "spec", GENERATE_DIGESTS,
        ids=lambda s: "mixed-post" if s == MIXED_POST else s)
    def test_stdout_digest(self, capsys, spec):
        code, out, err = run(capsys, "generate", "--recipe", spec,
                             "--len", str(1 << 20))
        assert (code, err) == (0, "")
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == GENERATE_DIGESTS[spec]


# SHA-256 of the stdout of Abelian-kernel commands on ternary words,
# frozen at commit 6d9233d, before the window pass read one window per
# distinct factor; profiles and verdicts must stay byte for byte the same.
KERNEL_DIGESTS = {
    "profile --recipe hubert-golden --nmax 256":
        "4f61e4a738247da898ef2d1c819d2c338e3a93f5c55d85a65bb988257783cb0e",
    "profile --recipe rauzy-morphism --nmax 256":
        "1ccf97fff7737a214c79d0076fbcb6558f8708d5691235961b7dc478074ab36c",
    "profile --recipe tribonacci --nmax 256":
        "19efc2d6553835b9e6c93a564736bffbd19fdc4a3268c15c983bdc85234fef37",
    "verify rauzy --variant hubert --nmax 512":
        "61a7ab2b226c59e53c2054cf56481a3047ede4f9396df673fce6f94649e5619e",
    "verify rauzy --variant morphism --nmax 512":
        "61a7ab2b226c59e53c2054cf56481a3047ede4f9396df673fce6f94649e5619e",
}


@pytest.mark.parametrize("command", KERNEL_DIGESTS)
def test_kernel_stdout_digest(capsys, command):
    code, out, err = run(capsys, *command.split())
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == KERNEL_DIGESTS[command]


# SHA-256 of `json.dumps(occ.to_dict())` lines for every occurrence of
# `sturmian_powers(alpha, range(1, 4097), k)`, k = 1..8, over golden,
# sqrt2, [0; 1, 3, (1, 2)] and golden's complement, frozen at commit
# 1997022, where the locator still took its threshold as a parameter;
# the certificates at delta = alpha/2 must stay byte for byte the same.
CERTIFICATE_SLOPES = [ContinuedFraction((2,), (1,)),
                      ContinuedFraction((), (2,)),
                      ContinuedFraction((1, 3), (1, 2)),
                      ContinuedFraction((1, 1), (1,))]
CERTIFICATE_DIGEST = \
    "75b9c4fe04f3fb276dfe9982bbbb3d729654d4b38c0f2df2be9d83fd8e1aef17"


def test_certificate_digest():
    digest = hashlib.sha256()
    for alpha in CERTIFICATE_SLOPES:
        for k in range(1, 9):
            for occ in sturmian_powers(alpha, range(1, 4097), k):
                digest.update((json.dumps(occ.to_dict()) + "\n").encode())
    assert digest.hexdigest() == CERTIFICATE_DIGEST


class TestProfile:
    def test_thue_morse_rows(self, capsys):
        code, out, _ = run(capsys, "profile", "--recipe", "tm", "--nmax", "4")
        assert code == 0
        assert out == ("n,rho_ab,rho,balance_running\n"
                       "1,2,2,1\n2,3,4,2\n3,2,6,2\n4,3,10,2\n")

    def test_fibonacci_rows(self, capsys):
        code, out, _ = run(capsys, "profile", "--recipe", "fibonacci",
                           "--nmax", "3")
        assert code == 0
        assert out == ("n,rho_ab,rho,balance_running\n"
                       "1,2,2,1\n2,2,3,1\n3,2,4,1\n")

    def test_periodic_rows(self, capsys):
        code, out, _ = run(capsys, "profile", "--recipe", "periodic01",
                           "--nmax", "2")
        assert code == 0
        assert out.endswith("1,2,2,1\n2,1,2,1\n")

    @pytest.mark.parametrize("jobs", ["2", "3", "5"])
    def test_worker_count_independence(self, capsys, jobs):
        _, base, _ = run(capsys, "profile", "--recipe", "tm", "--nmax", "17")
        code, sharded, _ = run(capsys, "profile", "--recipe", "tm",
                               "--nmax", "17", "--jobs", jobs)
        assert code == 0 and sharded == base

    def test_unwritable_output_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "missing" / "profile.csv"
        code, out, err = run(capsys, "profile", "--recipe", "tm", "--nmax",
                             "4", "--out", str(path))
        assert code == 2 and out == ""
        assert err.startswith(f"error: cannot write {path}: ")
        assert err.count("\n") == 1

    def test_ten_letter_period_closed_form(self, capsys):
        # ten distinct letters per period: one Parikh class at multiples of
        # 10, otherwise ten; ten factors of every length; 1-balanced
        code, out, err = run(capsys, "profile", "--recipe", PERIODIC10,
                             "--nmax", "200")
        assert code == 0 and err == ""
        rows = [f"{n},{1 if n % 10 == 0 else 10},10,1" for n in range(1, 201)]
        assert out == "n,rho_ab,rho,balance_running\n" + "\n".join(rows) + "\n"

    @pytest.mark.parametrize("preset", sorted(RECIPE_PRESETS))
    @pytest.mark.parametrize("nmax", [1, 6, 37])
    def test_default_prefix_matches_the_margin(self, capsys, preset, nmax):
        # the default prefix is factor-complete where a bound is known, so
        # every row reads as on the 64 * nmax prefix
        args = ["profile", "--recipe", preset, "--nmax", str(nmax)]
        code, out, _ = run(capsys, *args)
        _, margin, _ = run(capsys, *args, "--prefix-len", str(64 * nmax))
        assert code == 0 and out == margin

    @pytest.mark.parametrize("preset", sorted(
        name for name, d in RECIPE_PRESETS.items()
        if complete_prefix_length(recipe_from_dict(d), 1) is not None))
    @pytest.mark.parametrize("nmax", [1, 6, 37, 256])
    def test_prefix_len_reads_as_the_whole_prefix(self, capsys, preset,
                                                  nmax):
        # only the factor-complete head of C symbols is read; the oracle
        # profiles every symbol of the prefix asked for. Every length here
        # is within the window range (C >= nmax, 3C + 7 < 2^16)
        recipe = recipe_from_dict(RECIPE_PRESETS[preset])
        c = complete_prefix_length(recipe, nmax).length
        for length in (c, c + 1, 3 * c + 7, 1 << 16):
            code, out, err = run(capsys, "profile", "--recipe", preset,
                                 "--nmax", str(nmax),
                                 "--prefix-len", str(length))
            assert (code, err) == (0, "")
            assert out == profile_csv(profile(prefix_of(recipe, length), nmax))

    def test_explicit_prefix_len(self, capsys):
        code, out, _ = run(capsys, "profile", "--recipe", "tm", "--nmax", "2",
                           "--prefix-len", "4096")
        assert code == 0 and out.splitlines()[1] == "1,2,2,1"

    @pytest.mark.parametrize("prefix_len", ["0", "3"])
    def test_prefix_shorter_than_nmax_is_usage_error(self, capsys, prefix_len):
        # 0 is a length like any other, not "use the default prefix"
        code, out, err = run(capsys, "profile", "--recipe", "tm", "--nmax",
                             "5", "--prefix-len", prefix_len)
        assert code == 2 and out == ""
        assert err == ("error: window lengths must satisfy "
                       f"1 <= 1 <= 5 <= {prefix_len}\n")


class TestPowers:
    def test_brute_constant_word(self, capsys):
        code, out, _ = run(capsys, "powers", "brute", "--recipe", "const0",
                           "--k", "9")
        assert code == 0
        cert = json.loads(out)
        assert (cert["start"], cert["period"], cert["exponent"]) == (0, 1, 9)
        assert cert["block_parikh"] == [1]

    def test_vdw_thue_morse(self, capsys):
        code, out, _ = run(capsys, "powers", "vdw", "--recipe", "tm",
                           "--k", "2", "--M", "2")
        assert code == 0
        cert = json.loads(out)
        assert (cert["start"], cert["period"]) == (3, 5)
        assert cert["recipe"]["kind"] == "fixed-point"

    @pytest.mark.parametrize("M, prefix_len", [
        ("3000000000", "4096"), ("100000000000", "4096"),
        ("3000000000", "262144")],
        ids=["3000000000", "100000000000", "3000000000-262144"])
    def test_vdw_huge_weights_find_nothing(self, capsys, monkeypatch, M,
                                           prefix_len):
        # a progression needs a step s > M, and none fits in prefix_len // 2
        # symbols: the search ends before it builds any residue
        def refuse(*args):
            raise AssertionError("residues built")
        monkeypatch.setattr(abelianwords.powers, "_vdw_residues", refuse)
        code, out, err = run(capsys, "powers", "vdw", "--recipe", "tm",
                             "--k", "2", "--M", M, "--prefix-len", prefix_len)
        assert (code, out, err) == (
            1, "no abelian power found within the prefix\n", "")

    def test_sturmian_certificate(self, capsys, golden):
        from abelianwords.powers import sturmian_period_pair
        code, out, _ = run(capsys, "powers", "sturmian", "--slope", "golden",
                           "--pos", "1", "--k", "4")
        assert code == 0
        cert = json.loads(out)
        pair = sturmian_period_pair(golden, 4)
        assert cert["period"] in (pair.ell1, pair.ell2)
        assert cert["start"] == 0 and cert["exponent"] == 4

    @pytest.mark.parametrize("pos", ["100000", "4096", "-1"])
    def test_brute_start_outside_prefix_is_usage_error(self, capsys, pos):
        code, out, err = run(capsys, "powers", "brute", "--recipe", "tm",
                             "--k", "2", "--pos", pos, "--prefix-len", "4096")
        assert code == 2 and out == ""
        assert err.startswith("error: --pos") and err.count("\n") == 1

    def test_brute_not_found_is_failure_exit(self, capsys):
        code, out, _ = run(capsys, "powers", "brute", "--recipe",
                           '{"kind": "explicit", "symbols": "0101"}',
                           "--k", "5", "--prefix-len", "4")
        assert code == 1 and "no abelian power" in out

    def test_sturmian_inline_json_slope(self, capsys):
        args = ["powers", "sturmian", "--pos", "3", "--k", "3"]
        _, preset, _ = run(capsys, *args, "--slope", "golden")
        code, out, _ = run(capsys, *args, "--slope", GOLDEN_JSON)
        assert code == 0 and out == preset

    def test_sturmian_slope_file(self, capsys, tmp_path):
        path = tmp_path / "slope.json"
        path.write_text(GOLDEN_JSON)
        args = ["powers", "sturmian", "--pos", "3", "--k", "3"]
        _, preset, _ = run(capsys, *args, "--slope", "golden")
        code, out, _ = run(capsys, *args, "--slope", str(path))
        assert code == 0 and out == preset

    @pytest.mark.parametrize("slope", ['{"preperiod": [2], "period": [1]',
                                       '{"preperiod": [2], "period": [0]}'])
    def test_malformed_slope_is_usage_error(self, capsys, slope):
        code, out, err = run(capsys, "powers", "sturmian", "--k", "2",
                             "--slope", slope)
        assert code == 2 and out == ""
        assert err.startswith("error: bad slope: ") and err.count("\n") == 1

    def test_sturmian_needs_slope(self, capsys):
        code, _, err = run(capsys, "powers", "sturmian", "--k", "2")
        assert code == 2 and "slope" in err


class TestModuleEntry:
    def test_python_dash_m_matches_main(self, capsys):
        args = ["powers", "sturmian", "--slope", "golden", "--k", "4"]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [
            str(Path(abelianwords.__file__).parent.parent),
            env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-m", "abelianwords", *args],
                              env=env, capture_output=True, text=True,
                              timeout=120)
        code, out, _ = run(capsys, *args)
        assert (proc.returncode, proc.stdout) == (0, out) and code == 0


class TestVerify:
    def test_thue_morse_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "thue-morse", "--nmax", "32")
        assert code == 0 and out.startswith("PASS claim=thue-morse-profile")

    def test_rauzy_both_variants(self, capsys):
        for variant in ("hubert", "morphism"):
            code, out, _ = run(capsys, "verify", "rauzy", "--variant", variant,
                               "--nmax", "32")
            assert code == 0 and "PASS" in out

    @pytest.mark.parametrize("variant, preset", [
        ("hubert", "hubert-golden"), ("morphism", "rauzy-morphism")])
    def test_rauzy_matches_the_margin(self, capsys, variant, preset):
        # the verdict on the inspected prefix is the one the 64 * n
        # prefix gives
        recipe = recipe_from_dict(RECIPE_PRESETS[preset])
        assert abelian_profile(prefix_of(recipe, 64 * 48), 48) == [3] * 48
        code, out, _ = run(capsys, "verify", "rauzy", "--variant", variant,
                           "--nmax", "48")
        assert code == 0
        assert out == "PASS claim=constant-abelian-3 range=1..48\n"

    def test_periodicity_failure(self, capsys):
        code, out, _ = run(capsys, "verify", "periodicity", "--recipe",
                           "periodic01", "--p", "3")
        assert code == 1 and out.startswith("FAIL claim=periodicity")

    @pytest.mark.parametrize("p", ["0", "-3"])
    def test_periodicity_period_below_one(self, capsys, p):
        # a given --p of 0 reaches the checker instead of reading as absent
        code, out, err = run(capsys, "verify", "periodicity", "--recipe",
                             "tm", "--p", p)
        assert code == 2 and out == ""
        assert err == "error: period must be >= 1\n"

    def test_periodicity_without_p(self, capsys):
        code, _, err = run(capsys, "verify", "periodicity", "--recipe", "tm")
        assert code == 2
        assert err == "error: periodicity needs --recipe and --p\n"

    def test_periodicity_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "periodicity", "--recipe",
                           "periodic01", "--p", "2")
        assert code == 0

    def test_periodicity_ten_letters(self, capsys):
        code, out, _ = run(capsys, "verify", "periodicity", "--recipe",
                           PERIODIC10, "--p", "150")
        assert code == 0 and out == "PASS claim=periodicity range=p=150\n"

    def test_unknown_claim(self, capsys):
        code, _, err = run(capsys, "verify", "no-such-claim")
        assert code == 2 and "unknown claim" in err

    def test_csv_report(self, capsys, tmp_path):
        path = tmp_path / "report.csv"
        code, _, _ = run(capsys, "verify", "thue-morse", "--nmax", "16",
                         "--out", str(path))
        assert code == 0
        lines = path.read_text().splitlines()
        assert lines[0] == "claim,range,verdict,witness"
        assert lines[1].startswith("thue-morse-profile,1..16,pass")

    def test_unwritable_report_is_usage_error(self, capsys, tmp_path):
        _, report, _ = run(capsys, "verify", "thue-morse", "--nmax", "16")
        path = tmp_path / "missing" / "report.csv"
        code, out, err = run(capsys, "verify", "thue-morse", "--nmax", "16",
                             "--out", str(path))
        assert code == 2 and out == report and out.startswith("PASS")
        assert err.startswith(f"error: cannot write {path}: ")
        assert err.count("\n") == 1


class TestEmptyOutPath:
    @pytest.mark.parametrize("argv", [
        ["generate", "--recipe", "tm", "--len", "4"],
        ["profile", "--recipe", "tm", "--nmax", "4"],
        ["powers", "sturmian", "--slope", "golden", "--k", "2"],
    ], ids=["generate", "profile", "powers"])
    def test_empty_out_path_is_usage_error(self, capsys, argv):
        # an empty path names no file: it must not fall back to stdout
        code, out, err = run(capsys, *argv, "--out", "")
        assert code == 2 and out == ""
        assert err.startswith("error: cannot write : ")
        assert err.count("\n") == 1

    def test_empty_report_path_is_usage_error(self, capsys):
        # verify prints its verdict lines first, as with any unwritable path
        _, report, _ = run(capsys, "verify", "thue-morse", "--nmax", "16")
        code, out, err = run(capsys, "verify", "thue-morse", "--nmax", "16",
                             "--out", "")
        assert code == 2 and out == report
        assert err.startswith("error: cannot write : ")
        assert err.count("\n") == 1


class TestExitCodes:
    def test_precision_exhaustion_is_exit_3(self, capsys):
        recipe = ('{"kind": "characteristic", '
                  '"slope": {"preperiod": [2, 3], "period": []}}')
        code, _, err = run(capsys, "generate", "--recipe", recipe,
                           "--len", "64")
        assert code == 3 and "precision" in err

    def test_budget_exhaustion_is_exit_3(self, capsys):
        code, _, err = run(capsys, "generate", "--recipe", "tm",
                           "--len", str(1 << 27))
        assert code == 3 and "budget" in err

    @pytest.mark.parametrize("argv", [
        ["profile", "--nmax", "2", "--prefix-len", "4"],
        ["powers", "vdw", "--k", "2", "--prefix-len", "4"],
    ], ids=["profile", "powers-vdw"])
    def test_alphabet_beyond_bytes_is_exit_2(self, capsys, argv):
        # symbols are bytes, so a declared alphabet over 256 letters is
        # refused before any pass that loops once per letter
        recipe = ('{"kind": "explicit", "symbols": "0101", '
                  '"alphabet_size": 100000000}')
        start = time.perf_counter()
        code, out, err = run(capsys, *argv, "--recipe", recipe)
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "256" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("mode", ["brute", "vdw"])
    def test_power_search_work_bound_is_exit_3(self, capsys, monkeypatch,
                                               mode):
        # Dekking's fixed point has no Abelian 4-power: without the bound
        # both scans would run through every candidate period
        monkeypatch.setattr(abelianwords.complexity, "_WORK_BOUND", 10**4)
        recipe = ('{"kind": "fixed-point", "seed": "0", '
                  '"morphism": {"0": "011", "1": "0001"}}')
        code, out, err = run(capsys, "powers", mode, "--recipe", recipe,
                             "--k", "4", "--M", "10", "--prefix-len", "4096")
        assert code == 3 and out == ""
        assert err.startswith("error: ") and "steps" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["profile", "--recipe", "tm", "--nmax", "2000000"],
        ["verify", "thue-morse", "--nmax", "2000000"],
    ], ids=["profile", "verify"])
    def test_window_work_bound_is_exit_3(self, capsys, argv):
        # the 2^24-symbol factor-complete prefix is within the symbol
        # budget, but 2 * 10^6 window lengths over it are not
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert code == 3 and out == ""
        assert err.startswith("error: ") and "window steps" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv, code, message", [
        (["verify", "rauzy", "--variant", "hubert", "--nmax", "1000000"], 3,
         "window steps"),
        (["verify", "rauzy", "--variant", "morphism", "--nmax", "1000000"], 3,
         "window steps"),
        (["verify", "thue-morse", "--nmax", "1000000"], 3, "window steps"),
        (["verify", "rauzy", "--nmax", "-3"], 2,
         "window lengths must satisfy"),
        (["verify", "thue-morse", "--nmax", "-3"], 2,
         "window lengths must satisfy"),
        (["profile", "--recipe", "hubert-golden", "--nmax", "1000000"], 3,
         "window steps"),
        (["profile", "--recipe", "tm", "--nmax", "1000",
          "--prefix-len", "67000000"], 3, "window steps"),
        # past the symbol budget, although the head read would be 8 symbols
        (["profile", "--recipe", "tm", "--nmax", "1",
          "--prefix-len", "70000000"], 3,
         "requested 70000000 symbols, budget is 67108864"),
        (["profile", "--recipe", "tm", "--nmax", "-3"], 2,
         "window lengths must satisfy"),
        (["profile", "--recipe", "tm", "--nmax", "5", "--prefix-len", "-1"],
         2, "window lengths must satisfy"),
    ], ids=["rauzy-hubert", "rauzy-morphism", "thue-morse",
            "rauzy-negative", "thue-morse-negative", "profile-hubert",
            "profile-prefix-len", "profile-over-budget", "profile-negative",
            "profile-negative-prefix-len"])
    def test_verify_refuses_before_building(self, capsys, monkeypatch,
                                            argv, code, message):
        # a 64M-symbol Hubert prefix takes 321 MiB; none may be built
        def refuse(*args):
            raise AssertionError("prefix_of called")
        monkeypatch.setattr(abelianwords.words, "prefix_of", refuse)
        monkeypatch.setattr(checks, "prefix_of", refuse)
        got, out, err = run(capsys, *argv)
        assert (got, out) == (code, "")
        assert err.startswith("error: ") and message in err
        assert err.count("\n") == 1

    def test_usage_error_from_argparse(self):
        with pytest.raises(SystemExit) as exc:
            main(["generate", "--len", "4"])  # missing --recipe
        assert exc.value.code == 2


class TestConfigFile:
    def test_config_fills_missing_flags(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"recipe": "tm", "len": 8}))
        code, out, _ = run(capsys, "--config", str(cfg), "generate",
                           "--recipe", "tm", "--len", "4")
        assert code == 0 and out == "0110\n"  # explicit flags win

    def test_config_text_converted_by_flag_type(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"prefix_len": "4096"}))
        code, out, _ = run(capsys, "--config", str(cfg), "profile",
                           "--recipe", "tm", "--nmax", "2")
        assert code == 0 and out.splitlines()[1] == "1,2,2,1"

    @pytest.mark.parametrize("body", [
        {"prefix_len": "many"}, {"prefix_len": True}, {"prefix_len": [4096]},
        {"out": 3}, {"variant": "other"}, [1, 2],
    ])
    def test_bad_config_is_usage_error(self, capsys, tmp_path, body):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(body))
        command = (["verify", "rauzy"] if "variant" in body
                   else ["profile", "--recipe", "tm", "--nmax", "2"])
        code, out, err = run(capsys, "--config", str(cfg), *command)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_missing_config_is_usage_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "--config", str(tmp_path / "none.json"),
                           "generate", "--recipe", "tm", "--len", "4")
        assert code == 2 and err.startswith("error: cannot read config")

    def test_config_supplies_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"prefix_len": 4096, "jobs": 2}))
        code, out, _ = run(capsys, "--config", str(cfg), "profile",
                           "--recipe", "tm", "--nmax", "2")
        assert code == 0 and out.splitlines()[1] == "1,2,2,1"


class TestDeterminism:
    def test_byte_identical_reruns(self, capsys):
        _, a, _ = run(capsys, "profile", "--recipe", "hubert-golden",
                      "--nmax", "8")
        _, b, _ = run(capsys, "profile", "--recipe", "hubert-golden",
                      "--nmax", "8")
        assert a == b
