"""The four workloads: their operations, inputs and expected results.

An operation is one call a user would make: a CLI command run in-process
through ``cli.main``, or one library call.  Each workload is a fixed list
of operations.  A fresh process builds it (this is the set-up that
``setup_s`` measures: importing the library and parsing the workload's
recipes and slopes) and then runs one pass over it.

Every result is checked, outside the timed region, against expectations
that do not come from the library: closed forms from the paper, the
benchmark's own re-implementations in ``oracle.py``, and SHA-256 digests
frozen at the seed commit in ``digests.json``.  The digests were
cross-checked against naive oracles on shortened inputs (see
``tests/test_bench.py``).  An operation that raises, exits with an
unexpected code or returns a wrong result counts as failed; none is
dropped.

Known defect kept visible: ``pm.profile.periodic10`` (the CLI profile of
the period-10 word ``0123456789`` at n <= 200) raises ``OverflowError``
at the seed commit, because the packed window code of the Abelian kernel
overflows int64 from n = 127 on.  It counts as one failed operation per
pass of ``profile-multiletter``; a fix shows as ``failed`` dropping to 0.
Its expected output is the closed-form profile of a word with ten
distinct letters in one period, so no digest is needed.
"""

import contextlib
import io
import json
import random
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

import oracle

WORKLOADS = ("profile-binary", "profile-multiletter", "powers-certify",
             "generate-long")

# Sizes for each workload.  "full" is what the benchmark measures; "toy"
# runs every operation in well under a second for the self-test.
SIZES = {
    "full": {
        "tm_len": 1 << 16, "tm_nmax": 1024,
        "fib_len": 1 << 17, "fib_nmax": 256,
        "champ_nmax": 256, "verify_tm_nmax": 1024,
        "rauzy_nmax": 512, "hubert_len": 1 << 16, "hubert_n": 512,
        "random_len": 1 << 15, "random_nmax": 256, "periodic_nmax": 200,
        "positions": 500, "pos_max": 4096,
        "vdw_len": 10 ** 6, "cli_vdw_len": 1 << 16,
        "gen_len": 1 << 22,
    },
    "toy": {
        "tm_len": 1 << 11, "tm_nmax": 32,
        "fib_len": 1 << 10, "fib_nmax": 16,
        "champ_nmax": 12, "verify_tm_nmax": 16,
        "rauzy_nmax": 12, "hubert_len": 1 << 10, "hubert_n": 12,
        "random_len": 1 << 9, "random_nmax": 12, "periodic_nmax": 200,
        "positions": 5, "pos_max": 256,
        "vdw_len": 1 << 12, "cli_vdw_len": 1 << 12,
        "gen_len": 1 << 12,
    },
}

SLOPES = {
    "golden": {"preperiod": [2], "period": [1]},   # (3 - sqrt 5) / 2
    "sqrt2": {"preperiod": [], "period": [2]},     # sqrt 2 - 1
}

RECIPES = {
    "tm": {"kind": "fixed-point", "morphism": {"0": "01", "1": "10"},
           "seed": "0"},
    "fibonacci": {"kind": "characteristic", "slope": SLOPES["golden"]},
    "rauzy-morphism": {"kind": "fixed-point",
                       "morphism": {"0": "01", "1": "0"}, "seed": "0",
                       "post": {"0": "012", "1": "021"}},
    "hubert-golden": {"kind": "hubert", "slope": SLOPES["golden"]},
    "champernowne": {"kind": "champernowne"},
    "max-complexity": {"kind": "max-complexity"},
    "fibonacci-fixed-point": {"kind": "fixed-point",
                              "morphism": {"0": "01", "1": "0"},
                              "seed": "0"},
}

PERIODIC10 = '{"kind":"periodic","pattern":"0123456789"}'
CERT_EXPONENTS = range(2, 9)
VDW_EXPONENTS = range(2, 6)
VDW_M = 2


@dataclass
class Op:
    """One timed call and the check of its result.

    ``check`` returns None when the result is right, else the reason.
    ``canon`` gives the form whose digest is frozen in ``digests.json``;
    operations whose inputs come from the seed have none.
    """

    name: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]
    canon: Optional[Callable[[object], object]] = None
    cert: bool = False


@dataclass
class CliResult:
    rc: int
    out: str


class Workload:
    """The operations of one workload, built against the imported library."""

    def __init__(self, aw, name, seed, size="full"):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}")
        self.aw = aw
        self.name = name
        self.seed = seed
        self.size = SIZES[size]
        self.state = {}
        self.recipes = {k: aw.words.recipe_from_dict(v)
                        for k, v in RECIPES.items()}
        self.slopes = {k: aw.contfrac.ContinuedFraction.from_dict(v)
                       for k, v in SLOPES.items()}
        self.ops = getattr(self, "_" + name.replace("-", "_"))()

    # -- helpers -----------------------------------------------------------

    def _cli(self, argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            try:
                rc = self.aw.cli.main(argv)
            except SystemExit as exc:  # argparse exits on a usage error
                rc = exc.code
        return CliResult(rc, buf.getvalue())

    def cli_op(self, name, argv, check, frozen=True):
        def checked(r):
            if r.rc != 0:
                return f"exit code {r.rc}, expected 0"
            return check(r.out)
        return Op(name, lambda: self._cli(argv), checked,
                  (lambda r: r.out) if frozen else None)

    def keep(self, key, fn):
        """Run fn and store its result for later operations."""
        def run():
            self.state[key] = fn()
            return self.state[key]
        return run

    # -- profile-binary ----------------------------------------------------

    def _profile_binary(self):
        s = self.size
        tm = ["profile", "--recipe", "tm", "--nmax", str(s["tm_nmax"]),
              "--prefix-len", str(s["tm_len"])]
        nmax = s["verify_tm_nmax"]
        # --jobs 2 runs last: its worker threads' malloc arenas then add
        # nothing to the peak resident set, which stays steady from run to run
        return [
            self.cli_op("pb.profile.tm", tm, tm_profile_problem),
            self.cli_op("pb.profile.fibonacci",
                        ["profile", "--recipe", "fibonacci",
                         "--nmax", str(s["fib_nmax"]),
                         "--prefix-len", str(s["fib_len"])],
                        sturmian_profile_problem),
            self.cli_op("pb.profile.champernowne",
                        ["profile", "--recipe", "champernowne",
                         "--nmax", str(s["champ_nmax"])],
                        binary_ceiling_problem),
            self.cli_op("pb.verify.thue-morse",
                        ["verify", "thue-morse", "--nmax", str(nmax)],
                        expect_text(f"PASS claim=thue-morse-profile "
                                    f"range=1..{nmax}\n")),
            self.cli_op("pb.profile.tm.jobs2", tm + ["--jobs", "2"],
                        tm_profile_problem),
        ]

    # -- profile-multiletter -----------------------------------------------

    def _profile_multiletter(self):
        s, aw = self.size, self.aw
        n = s["rauzy_nmax"]
        rauzy_pass = expect_text(
            f"PASS claim=constant-abelian-3 range=1..{n}\n")
        hn = s["hubert_n"]
        rng = np.random.default_rng(self.seed)
        random_word = aw.words.WordPrefix(
            4, rng.integers(0, 4, s["random_len"], dtype=np.uint8).tobytes())
        expected_random = []

        def random_problem(prof):
            if not expected_random:
                expected_random.append(oracle.abelian_profile_sorted(
                    random_word.symbols, 4, s["random_nmax"]))
            if any(r > oracle.abelian_ceiling(m, 4)
                   for m, r in enumerate(prof, 1)):
                return "rho_ab above the compositions ceiling"
            if list(prof) != expected_random[0]:
                return "rho_ab differs from the sorted-code recount"
            return None

        pmax = s["periodic_nmax"]
        periodic_csv = oracle.profile_csv(*oracle.periodic_profile(10, pmax))
        return [
            self.cli_op("pm.verify.rauzy.hubert",
                        ["verify", "rauzy", "--variant", "hubert",
                         "--nmax", str(n)], rauzy_pass),
            self.cli_op("pm.verify.rauzy.morphism",
                        ["verify", "rauzy", "--variant", "morphism",
                         "--nmax", str(n)], rauzy_pass),
            Op("pm.hubert.prefix",
               self.keep("hubert", lambda: aw.words.prefix_of(
                   self.recipes["hubert-golden"], s["hubert_len"])),
               lambda w: None if w.alphabet_size == 3 else "not ternary",
               lambda w: w.symbols),
            # Hubert's recoding of a Sturmian word is balanced
            Op("pm.hubert.balance_bound",
               lambda: aw.complexity.balance_bound(self.state["hubert"], hn),
               lambda c: None if c == 1 else f"balance {c}, expected 1",
               str),
            Op("pm.hubert.parikh_classes",
               lambda: aw.complexity.parikh_classes(self.state["hubert"], hn),
               lambda cs: constant3_classes_problem(cs, hn),
               lambda cs: json.dumps(sorted(cs))),
            Op("pm.random4.abelian_profile",
               lambda: aw.complexity.abelian_profile(
                   random_word, s["random_nmax"]),
               random_problem),
            self.cli_op("pm.profile.periodic10",
                        ["profile", "--recipe", PERIODIC10,
                         "--nmax", str(pmax)],
                        expect_text(periodic_csv), frozen=False),
        ]

    # -- powers-certify ----------------------------------------------------

    def _powers_certify(self):
        s, aw = self.size, self.aw
        rng = random.Random(self.seed)
        ops = []
        for slope_name, slope in self.slopes.items():
            spec = SLOPES[slope_name]
            for k in CERT_EXPONENTS:
                pair = oracle.period_pair(spec["preperiod"], spec["period"], k)
                for i in rng.sample(range(1, s["pos_max"] + 1),
                                    s["positions"]):
                    ops.append(Op(
                        f"pc.cert.{slope_name}.k{k}.i{i}",
                        lambda slope=slope, i=i, k=k:
                            aw.powers.sturmian_power_at(slope, i, k),
                        cert_checker(spec, i, k, pair), cert=True))
        ops.append(Op("pc.tm.prefix",
                      self.keep("tm", lambda: aw.words.prefix_of(
                          self.recipes["tm"], s["vdw_len"])),
                      lambda w: None if len(w) == s["vdw_len"] else "length",
                      lambda w: w.symbols))
        weights = aw.powers.congo_weights(VDW_M, 2)
        for k in VDW_EXPONENTS:
            ops.append(Op(f"pc.vdw.k{k}",
                          self.keep(("vdw", k),
                                    lambda k=k: aw.powers.vdw_power_search(
                                        self.state["tm"], k, weights)),
                          tm_occurrence_problem,
                          lambda occ: json.dumps(occ.to_dict())))
            ops.append(Op(f"pc.min_period.k{k}",
                          lambda k=k: aw.powers.min_abelian_period(
                              self.state["tm"], self.state["vdw", k].start, k),
                          min_period_checker(self.state, k),
                          str))
        golden = SLOPES["golden"]
        ops += [
            self.cli_op("pc.cli.sturmian",
                        ["powers", "sturmian", "--slope", "golden",
                         "--k", "5", "--pos", "100"],
                        cli_cert_checker(
                            100, 5, oracle.period_pair(golden["preperiod"],
                                                       golden["period"], 5))),
            self.cli_op("pc.cli.vdw",
                        ["powers", "vdw", "--recipe", "tm", "--k", "4",
                         "--M", str(VDW_M),
                         "--prefix-len", str(s["cli_vdw_len"])],
                        cli_tm_checker(minimal=False)),
            self.cli_op("pc.cli.brute",
                        ["powers", "brute", "--recipe", "tm", "--k", "3",
                         "--pos", "17"],
                        cli_tm_checker(minimal=True)),
        ]
        return ops

    # -- generate-long -----------------------------------------------------

    def _generate_long(self):
        n, aw = self.size["gen_len"], self.aw
        alphabet = {"rauzy-morphism": 3, "hubert-golden": 3}
        ops = []
        for name in ("tm", "fibonacci", "rauzy-morphism", "hubert-golden",
                     "champernowne", "max-complexity",
                     "fibonacci-fixed-point"):
            ops.append(Op(f"gl.prefix.{name}",
                          lambda name=name: aw.words.prefix_of(
                              self.recipes[name], n),
                          prefix_checker(self.state, name, n,
                                         alphabet.get(name, 2)),
                          lambda w: w.symbols))
        ops.append(self.cli_op(
            "gl.cli.generate.tm",
            ["generate", "--recipe", "tm", "--len", str(n)],
            lambda out: None if oracle.digest(out) == self.state["tm-digits"]
            else "stdout differs from the tm prefix"))
        return ops


# ---------------------------------------------------------------------------
# checks

def expect_text(expected):
    return lambda out: None if out == expected else "unexpected output"


def _binary_bridge_problem(rho_ab, running):
    # for a binary word rho_ab(n) = balance(n) + 1 (paper, criterion 11)
    if running != oracle.running_max([a - 1 for a in rho_ab]):
        return "running balance breaks rho_ab = balance + 1"
    return None


def _rows(out):
    ns, rho_ab, rho, running = oracle.profile_rows(out)
    if ns != list(range(1, len(ns) + 1)):
        raise ValueError("rows are not n = 1..n_max")
    return ns, rho_ab, rho, running


def tm_profile_problem(out):
    ns, rho_ab, rho, running = _rows(out)
    if rho_ab != [2 if n % 2 else 3 for n in ns]:
        return "Thue-Morse rho_ab is not 2, 3, 2, 3, ..."
    return _binary_bridge_problem(rho_ab, running)


def sturmian_profile_problem(out):
    ns, rho_ab, rho, running = _rows(out)
    if rho_ab != [2] * len(ns):
        return "Sturmian rho_ab is not 2"
    if rho != [n + 1 for n in ns]:
        return "Sturmian rho is not n + 1"
    return _binary_bridge_problem(rho_ab, running)


def binary_ceiling_problem(out):
    ns, rho_ab, rho, running = _rows(out)
    if any(a > n + 1 or s > 2 ** n for n, a, s in zip(ns, rho_ab, rho)):
        return "profile above the n + 1 / 2^n ceilings"
    return _binary_bridge_problem(rho_ab, running)


def constant3_classes_problem(classes, n):
    if len(classes) != 3:
        return f"{len(classes)} Parikh classes, expected 3"
    if any(sum(v) != n for v in classes):
        return "a Parikh vector does not sum to n"
    return None


def cert_checker(spec, i, k, pair):
    """Check a Sturmian certificate on the benchmark's own characteristic
    word, with its period in the convergent pair (q_n, q_{n+1})."""
    def problem(occ):
        if (occ.start, occ.exponent) != (i - 1, k):
            return f"certificate at {occ.start}^{occ.exponent}, asked {i - 1}^{k}"
        return oracle.certificate_problem(
            _characteristic(spec, i - 1 + k * max(pair)), 2, occ.start,
            occ.period, occ.exponent, occ.block_parikh, set(pair))
    return problem


_WORDS = {}


def _characteristic(spec, length):
    key = (tuple(spec["preperiod"]), tuple(spec["period"]))
    word = _WORDS.get(key, b"")
    if len(word) < length:
        word = _WORDS[key] = oracle.characteristic_word(
            spec["preperiod"], spec["period"], max(length, 2 * len(word)))
    return word


def tm_occurrence_problem(occ):
    if occ is None:
        return "no occurrence found"
    tm = oracle.thue_morse(occ.start + occ.exponent * occ.period)
    return oracle.certificate_problem(tm, 2, occ.start, occ.period,
                                      occ.exponent, occ.block_parikh)


def min_period_checker(state, k):
    def problem(ell):
        occ = state["vdw", k]
        tm = oracle.thue_morse(occ.start + k * occ.period)
        expected = oracle.min_period(tm, 2, occ.start, k, occ.period)
        return None if ell == expected else f"period {ell}, expected {expected}"
    return problem


def _parse_cert(out):
    d = json.loads(out)
    return d["start"], d["period"], d["exponent"], d["block_parikh"]


def cli_cert_checker(i, k, pair):
    def problem(out):
        start, period, exponent, parikh_vec = _parse_cert(out)
        if (start, exponent) != (i - 1, k):
            return "certificate at the wrong position or exponent"
        word = _characteristic(SLOPES["golden"], start + k * max(pair))
        return oracle.certificate_problem(word, 2, start, period, exponent,
                                          parikh_vec, set(pair))
    return problem


def cli_tm_checker(minimal):
    def problem(out):
        start, period, exponent, parikh_vec = _parse_cert(out)
        tm = oracle.thue_morse(start + exponent * period)
        if minimal and oracle.min_period(tm, 2, start, exponent,
                                         period) != period:
            return "brute-force period is not the least one"
        return oracle.certificate_problem(tm, 2, start, period, exponent,
                                          parikh_vec)
    return problem


_DIGITS = bytes.maketrans(bytes(range(10)), b"0123456789")


def prefix_checker(state, name, length, alphabet):
    def problem(w):
        if len(w) != length or w.alphabet_size != alphabet:
            return f"length {len(w)} over {w.alphabet_size} letters"
        d = oracle.digest(w.symbols)
        if name == "tm":
            state["tm-digits"] = oracle.digest(
                w.symbols.translate(_DIGITS) + b"\n")
        if name == "fibonacci":
            state["fibonacci"] = d
        # the Fibonacci fixed point is the characteristic word of the
        # golden slope (3 - sqrt 5) / 2
        if name == "fibonacci-fixed-point" and d != state["fibonacci"]:
            return "fixed point differs from the characteristic word"
        return None
    return problem
