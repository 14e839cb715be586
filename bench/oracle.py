"""Expected results computed without the library under test.

Nothing here imports ``abelianwords``.  The checks rest on three kinds of
expectation:

* closed forms from the paper (Thue-Morse rho_ab = 2, 3, 2, 3, ...;
  Sturmian rho_ab = 2 and rho(n) = n + 1; constant Abelian complexity 3;
  the ceiling rho_ab(n) <= C(n+p-1, p-1));
* independent re-implementations: the characteristic word from the
  standard-word recursion, convergent denominators from the integer
  recurrence, Parikh counts with ``bytes.count``;
* naive oracles (sliding recount, factor sets, plain morphism iteration)
  that the self-test runs on shortened inputs to cross-check the frozen
  digests.
"""

import hashlib
import itertools
from math import comb, isqrt

import numpy as np


def digest(data) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------
# continued fractions and characteristic words

def cf_terms(preperiod, period):
    """The partial quotients a1, a2, ... of [0; pre, per, per, ...]."""
    return itertools.chain(preperiod, itertools.cycle(period))


def denominators(preperiod, period, count):
    """Convergents (p_n, q_n) for n = 0..count from the integer recurrence."""
    pq = [(1, 0), (0, 1)]
    for a in itertools.islice(cf_terms(preperiod, period), count):
        pq.append((a * pq[-1][0] + pq[-2][0], a * pq[-1][1] + pq[-2][1]))
    return pq[1:]


def _exceeds(preperiod, period, q, bound):
    """Exact test of q * alpha > bound for integers q, bound.

    Even convergents lie below alpha and odd ones above it, so refining the
    sandwich decides the irrational comparison.
    """
    count = 4
    while True:
        pq = denominators(preperiod, period, count)
        for m in range(0, count - 1, 2):
            (pl, ql), (ph, qh) = pq[m], pq[m + 1]
            if q * pl >= bound * ql:
                return True
            if q * ph <= bound * qh:
                return False
        count *= 2


def period_pair(preperiod, period, k):
    """(q_n, q_{n+1}) for the smallest even n with q_{n+1} * alpha / 2 > k.

    The two Abelian periods the paper allows at any position of the
    characteristic word for exponent k, with delta = alpha / 2.
    """
    n = 0
    while True:
        pq = denominators(preperiod, period, n + 2)
        if _exceeds(preperiod, period, pq[n + 1][1], 2 * k):
            return pq[n][1], pq[n + 1][1]
        n += 2


def characteristic_word(preperiod, period, length) -> bytes:
    """Characteristic word of slope [0; a1, a2, ...] from the standard words
    s_{-1} = 1, s_0 = 0, s_1 = s_0^(a1-1) s_{-1}, s_n = s_{n-1}^(a_n) s_{n-2}.

    Position j (0-based) holds the classical letter c(j + 1).
    """
    older, old = b"\x01", b"\x00"
    terms = cf_terms(preperiod, period)
    old, older = old * (next(terms) - 1) + older, old
    while len(old) < length + 1:
        old, older = old * next(terms) + older, old
    return old[:length]


def floor_golden(n):
    """floor(n * (3 - sqrt 5) / 2) for n >= 1, by integer square root."""
    return (3 * n - isqrt(5 * n * n) - 1) // 2


def floor_sqrt2(n):
    """floor(n * (sqrt 2 - 1)) for n >= 1, by integer square root."""
    return isqrt(2 * n * n) - n


def characteristic_by_floors(floor, length) -> bytes:
    """Characteristic word from floor((j+2) alpha) - floor((j+1) alpha)."""
    return bytes(floor(j + 2) - floor(j + 1) for j in range(length))


# ---------------------------------------------------------------------------
# certificates

def parikh_count(symbols: bytes, lo: int, hi: int, p: int):
    return tuple(symbols.count(a, lo, hi) for a in range(p))


def certificate_problem(symbols: bytes, p: int, start, period, exponent,
                        block_parikh, periods=None):
    """None when the k blocks from ``start`` share ``block_parikh``, else why.

    ``periods`` optionally restricts the period to an allowed set.
    """
    if periods is not None and period not in periods:
        return f"period {period} not in {sorted(periods)}"
    if start + exponent * period > len(symbols):
        return "occurrence runs past the reference word"
    for j in range(exponent):
        lo = start + j * period
        got = parikh_count(symbols, lo, lo + period, p)
        if got != tuple(block_parikh):
            return f"block {j} has Parikh vector {got}, expected {tuple(block_parikh)}"
    return None


def min_period(symbols: bytes, p: int, start: int, k: int, cap: int):
    """Least ell <= cap giving an Abelian k-power at ``start``, or None."""
    for ell in range(1, cap + 1):
        first = parikh_count(symbols, start, start + ell, p)
        if certificate_problem(symbols, p, start, ell, k, first) is None:
            return ell
    return None


def thue_morse(length) -> bytes:
    """t(i) = parity of the binary digit sum of i."""
    return bytes(bin(i).count("1") & 1 for i in range(length))


# ---------------------------------------------------------------------------
# complexity profiles

def profile_rows(csv_text):
    """Parse ``n,rho_ab,rho,balance_running`` CSV into four int lists."""
    lines = csv_text.splitlines()
    if not lines or lines[0] != "n,rho_ab,rho,balance_running":
        raise ValueError("missing profile header")
    rows = [tuple(int(x) for x in line.split(",")) for line in lines[1:]]
    return [list(col) for col in zip(*rows)]


def profile_csv(rho_ab, rho, running):
    lines = ["n,rho_ab,rho,balance_running"]
    lines += [f"{n},{a},{s},{b}"
              for n, (a, s, b) in enumerate(zip(rho_ab, rho, running), 1)]
    return "\n".join(lines) + "\n"


def running_max(values):
    out, best = [], 0
    for v in values:
        best = max(best, v)
        out.append(best)
    return out


def periodic_profile(pattern_len, n_max):
    """Profile of the periodic word 0 1 ... (m-1) repeated, m distinct letters.

    A window of length n holds every letter n // m times plus one arc of
    n mod m consecutive letters; the m arcs differ unless the arc is empty.
    """
    m = pattern_len
    rho_ab = [1 if n % m == 0 else m for n in range(1, n_max + 1)]
    balance = [0 if n % m == 0 else 1 for n in range(1, n_max + 1)]
    return rho_ab, [m] * n_max, running_max(balance)


def abelian_ceiling(n, p):
    return comb(n + p - 1, p - 1)


def abelian_profile_sorted(symbols: bytes, p: int, n_max: int):
    """rho_ab(1..n_max) by packing window counts and counting runs after a sort."""
    arr = np.frombuffer(symbols, dtype=np.uint8)
    cum = np.zeros((p, len(arr) + 1), dtype=np.int64)
    for a in range(p):
        np.cumsum(arr == a, out=cum[a, 1:])
    out = []
    for n in range(1, n_max + 1):
        counts = cum[:p - 1, n:] - cum[:p - 1, :-n]
        code = np.ravel_multi_index(tuple(counts), (n + 1,) * (p - 1))
        code.sort()
        out.append(1 + int(np.count_nonzero(np.diff(code))))
    return out


def naive_abelian_profile(symbols: bytes, p: int, n_max: int):
    """Sliding recount: distinct Parikh vectors of every window, per n."""
    out = []
    for n in range(1, n_max + 1):
        seen = {parikh_count(symbols, i, i + n, p)
                for i in range(len(symbols) - n + 1)}
        out.append(len(seen))
    return out


def naive_subword_profile(symbols: bytes, n_max: int):
    """Size of the set of length-n factors, per n."""
    return [len({symbols[i:i + n] for i in range(len(symbols) - n + 1)})
            for n in range(1, n_max + 1)]


def naive_balance(symbols: bytes, p: int, n_max: int):
    out = []
    for n in range(1, n_max + 1):
        spread = 0
        for a in range(p):
            counts = [symbols.count(a, i, i + n)
                      for i in range(len(symbols) - n + 1)]
            spread = max(spread, max(counts) - min(counts))
        out.append(spread)
    return out


def naive_profile_csv(symbols: bytes, p: int, n_max: int):
    return profile_csv(naive_abelian_profile(symbols, p, n_max),
                       naive_subword_profile(symbols, n_max),
                       running_max(naive_balance(symbols, p, n_max)))


# ---------------------------------------------------------------------------
# word generators, written out the plain way

def iterate_morphism(images, seed: int, length: int) -> bytes:
    """Prefix of the fixed point of a morphism, one letter at a time."""
    w = [seed]
    i = 0
    while len(w) < length:
        w.extend(images[w[i]][1:] if i == 0 else images[w[i]])
        i += 1
    return bytes(w[:length])


def apply_images(images, symbols: bytes) -> bytes:
    out = bytearray()
    for a in symbols:
        out += images[a]
    return bytes(out)


def champernowne(length) -> bytes:
    out = bytearray()
    i = 0
    while len(out) < length:
        out += bytes(int(c) for c in bin(i)[2:])
        i += 1
    return bytes(out[:length])


def run_growth(length) -> bytes:
    """0 1 0 111 000 1^9 0^9 ...: runs tripling after the first letter."""
    out = bytearray([0])
    run = 1
    while len(out) < length:
        out += bytes([1]) * run + bytes([0]) * run
        run *= 3
    return bytes(out[:length])


def hubert_recode(binary: bytes) -> bytes:
    """j-th 0 becomes j mod 2, every 1 becomes 2."""
    out = bytearray()
    zeros = 0
    for a in binary:
        if a == 0:
            out.append(zeros % 2)
            zeros += 1
        else:
            out.append(2)
    return bytes(out)
