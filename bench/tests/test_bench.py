"""Self-test of the benchmark: every workload at toy size, the frozen
digests against naive oracles, and the checker against corrupted results.

Run from the repository root:

    python3 -m pytest -q bench/tests
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from decimal import Decimal, getcontext

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import abelianwords  # noqa: E402
import abelianwords.cli  # noqa: E402

import oracle  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402

with open(worker.DIGESTS, encoding="utf-8") as fh:
    DIGESTS = json.load(fh)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)

RUN = [sys.executable, os.path.join(BENCH, "run.py")]
FIB = {0: b"\x00\x01", 1: b"\x00"}
CONSTANT3 = {0: b"\x00\x01\x02", 1: b"\x00\x02\x01"}


def run_bench(workload, trace, cwd=ROOT, runner=RUN):
    return subprocess.run(
        runner + ["--workload", workload, "--seed", "3", "--seconds", "0",
                  "--trace", str(trace), "--size", "toy"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_toy_run_is_correct(workload):
    proc = run_bench(workload, 0)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for spec in SPEC["end_to_end"]:
        metric = result["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"] and metric["value"] > 0
    failed = [line for line in lines if line.startswith("# failed ")]
    if workload == "profile-multiletter":
        # the known p = 10 defect: one failed operation per pass
        assert failed == ["# failed pm.profile.periodic10: raised "
                          "OverflowError: alphabet too large for packed "
                          "window encoding"]
        assert result["failed"] >= 1
    else:
        assert failed == [] and result["failed"] == 0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_toy_traced_run_emits_every_layer_metric(workload):
    proc = run_bench(workload, 1)
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout.splitlines()[-1])["metrics"]
    assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]
    for spec in SPEC["per_layer"]:
        assert metrics[spec["name"]]["unit"] == spec["unit"]


def test_declared_metrics_match_tracer():
    assert [m["name"] for m in SPEC["per_layer"]] == list(tracer.METRICS)
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_run_fails_without_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("generate-long", 0, cwd=tmp_path,
                     runner=[sys.executable, "bench/run.py"])
    assert proc.returncode != 0
    assert proc.stdout == ""


# ---------------------------------------------------------------------------
# the toy digests against naive oracles

def naive_vdw(symbols, k, weights=(1, 3), modulus=9):
    """Smallest s, then t0, with nu(t0) = nu(t0 + s) = ... = nu(t0 + k s);
    weights (1, 3) mod 9 are the admissible ones for M = 2, two letters."""
    nu = [0]
    for a in symbols:
        nu.append((nu[-1] + weights[a]) % modulus)
    for s in range(1, len(symbols) // k + 1):
        for t0 in range(len(symbols) - k * s + 1):
            if all(nu[t0 + j * s] == nu[t0] for j in range(1, k + 1)):
                return t0, s
    return None


def cert_json(start, period, k, symbols, recipe=None):
    d = {"start": start, "period": period, "exponent": k,
         "block_parikh": list(oracle.parikh_count(symbols, start,
                                                  start + period, 2))}
    return d if recipe is None else json.dumps({**d, "recipe": recipe}) + "\n"


def naive_sturmian_cert(i, k):
    """Certificate at position i of the golden characteristic word, with the
    period chosen by where {i alpha} falls, in 60-digit decimals."""
    getcontext().prec = 60
    alpha = (3 - Decimal(5).sqrt()) / 2
    frac = (i * alpha) % 1
    delta = alpha / 2
    case1 = frac < alpha - delta or alpha <= frac < 1 - delta
    q_n, q_next = oracle.period_pair([2], [1], k)
    ell = q_n if case1 else q_next
    word = oracle.characteristic_word([2], [1], i + k * ell)
    return cert_json(i - 1, ell, k, word,
                     {"kind": "characteristic",
                      "slope": workloads.SLOPES["golden"]})


def naive_outputs():
    s = workloads.SIZES["toy"]
    digits = bytes.maketrans(bytes(range(10)), b"0123456789")
    fib = oracle.characteristic_by_floors(oracle.floor_golden, 1 << 12)
    tm = oracle.thue_morse(1 << 16)
    hub = oracle.hubert_recode(fib[:s["hubert_len"]])
    hn = s["hubert_n"]
    classes = {oracle.parikh_count(hub, i, i + hn, 3)
               for i in range(len(hub) - hn + 1)}
    n = s["gen_len"]
    out = {
        "pb.profile.tm": oracle.naive_profile_csv(
            tm[:s["tm_len"]], 2, s["tm_nmax"]),
        "pb.profile.fibonacci": oracle.naive_profile_csv(
            fib[:s["fib_len"]], 2, s["fib_nmax"]),
        "pb.profile.champernowne": oracle.naive_profile_csv(
            oracle.champernowne(64 * s["champ_nmax"]), 2, s["champ_nmax"]),
        "pb.verify.thue-morse":
            f"PASS claim=thue-morse-profile range=1..{s['verify_tm_nmax']}\n",
        "pm.hubert.prefix": hub,
        "pm.hubert.balance_bound": str(max(oracle.naive_balance(hub, 3, hn))),
        "pm.hubert.parikh_classes": json.dumps(sorted(classes)),
        "pc.tm.prefix": tm[:s["vdw_len"]],
        "pc.cli.sturmian": naive_sturmian_cert(100, 5),
        "gl.prefix.tm": tm[:n],
        "gl.prefix.fibonacci": fib[:n],
        "gl.prefix.fibonacci-fixed-point": oracle.iterate_morphism(FIB, 0, n),
        "gl.prefix.rauzy-morphism": oracle.apply_images(
            CONSTANT3, oracle.iterate_morphism(FIB, 0, n))[:n],
        "gl.prefix.hubert-golden": oracle.hubert_recode(fib[:n]),
        "gl.prefix.champernowne": oracle.champernowne(n),
        "gl.prefix.max-complexity": oracle.run_growth(n),
        "gl.cli.generate.tm": tm[:n].translate(digits) + b"\n",
    }
    out["pb.profile.tm.jobs2"] = out["pb.profile.tm"]
    for variant in ("hubert", "morphism"):
        out[f"pm.verify.rauzy.{variant}"] = (
            f"PASS claim=constant-abelian-3 range=1..{s['rauzy_nmax']}\n")
    vdw_tm = tm[:s["vdw_len"]]
    for k in workloads.VDW_EXPONENTS:
        t0, period = naive_vdw(vdw_tm, k)
        out[f"pc.vdw.k{k}"] = json.dumps(cert_json(t0, period, k, vdw_tm))
        least = oracle.min_period(vdw_tm, 2, t0, k, (len(vdw_tm) - t0) // k)
        out[f"pc.min_period.k{k}"] = str(least)
    tm_recipe = workloads.RECIPES["tm"]
    t0, period = naive_vdw(tm[:s["cli_vdw_len"]], 4)
    out["pc.cli.vdw"] = cert_json(t0, period, 4, tm, tm_recipe)
    least = oracle.min_period(tm, 2, 17, 3, (len(tm) - 17) // 3)
    out["pc.cli.brute"] = cert_json(17, least, 3, tm, tm_recipe)
    return out


def test_toy_digests_match_naive_oracles():
    expected = naive_outputs()
    assert set(DIGESTS["toy"]) == set(DIGESTS["full"]) == set(expected)
    for name, output in expected.items():
        assert oracle.digest(output) == DIGESTS["toy"][name], name


# ---------------------------------------------------------------------------
# the checker rejects corrupted results

def toy_op(workload, name):
    w = workloads.Workload(abelianwords, workload, 3, "toy")
    for op in w.ops:  # earlier operations fill the state later ones read
        result = op.run()
        if op.name == name:
            return op, result
    raise KeyError(name)


def test_checker_rejects_period_off_by_one():
    w = workloads.Workload(abelianwords, "powers-certify", 3, "toy")
    op = next(op for op in w.ops if op.cert)
    occ = op.run()
    assert worker.check(op, occ, DIGESTS["toy"]) is None
    for period in (occ.period - 1, occ.period + 1):
        bad = dataclasses.replace(occ, period=period)
        assert worker.check(op, bad, DIGESTS["toy"]) is not None


def test_checker_rejects_flipped_digest_and_symbol():
    op, w = toy_op("generate-long", "gl.prefix.tm")
    assert worker.check(op, w, DIGESTS["toy"]) is None
    digest = DIGESTS["toy"][op.name]
    flipped = {op.name: ("0" if digest[0] != "0" else "1") + digest[1:]}
    assert worker.check(op, w, flipped) is not None
    symbols = bytes([1 - w.symbols[0]]) + w.symbols[1:]
    bad = dataclasses.replace(w, symbols=symbols)
    assert worker.check(op, bad, DIGESTS["toy"]) is not None


def test_checker_rejects_broken_closed_form():
    op, result = toy_op("profile-binary", "pb.profile.fibonacci")
    assert worker.check(op, result, DIGESTS["toy"]) is None
    lines = result.out.splitlines()
    lines[3] = lines[3].replace(",2,", ",3,", 1)  # rho_ab(3) = 3
    bad = workloads.CliResult(0, "\n".join(lines) + "\n")
    assert "Sturmian rho_ab" in worker.check(op, bad, DIGESTS["toy"])
    assert worker.check(op, workloads.CliResult(1, result.out),
                        DIGESTS["toy"]) == "exit code 1, expected 0"


# ---------------------------------------------------------------------------
# the benchmark's own references

@pytest.mark.parametrize("floor, spec", [
    (oracle.floor_golden, workloads.SLOPES["golden"]),
    (oracle.floor_sqrt2, workloads.SLOPES["sqrt2"]),
])
def test_standard_words_match_floor_formula(floor, spec):
    word = oracle.characteristic_word(spec["preperiod"], spec["period"], 5000)
    assert word == oracle.characteristic_by_floors(floor, 5000)
    slope = abelianwords.ContinuedFraction.from_dict(spec)
    for k in workloads.CERT_EXPONENTS:
        pair = abelianwords.sturmian_period_pair(slope, k)
        assert oracle.period_pair(spec["preperiod"], spec["period"], k) == (
            pair.ell1, pair.ell2)


def test_sorted_code_recount_matches_sliding_recount():
    import numpy as np
    symbols = np.random.default_rng(5).integers(0, 4, 300,
                                                dtype=np.uint8).tobytes()
    assert oracle.abelian_profile_sorted(symbols, 4, 20) == \
        oracle.naive_abelian_profile(symbols, 4, 20)


def test_periodic_closed_form_matches_naive_and_cli():
    n_max = 40
    word = bytes(range(10)) * (64 * n_max // 10)
    expected = oracle.profile_csv(*oracle.periodic_profile(10, n_max))
    assert oracle.naive_profile_csv(word, 10, n_max) == expected
    w = workloads.Workload(abelianwords, "profile-multiletter", 3, "toy")
    result = w._cli(["profile", "--recipe", workloads.PERIODIC10,
                     "--nmax", str(n_max)])
    assert (result.rc, result.out) == (0, expected)
