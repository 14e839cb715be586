"""Executable checkers for the structural claims about specific words.

Each checker examines a finite prefix and reports pass/fail with an
independently re-checkable witness on failure.  A verdict is always a
statement about the prefix it was given, whatever its length:
aperiodicity and other infinite-word hypotheses cannot be decided from a
prefix, so a pass means "consistent with the claim on this prefix",
never more.  For a verdict about the infinite word, give a checker a
factor-complete prefix: ``inspected_prefix`` returns one wherever the
recipe has a known bound within ``DEFAULT_MARGIN * n_max``.

``inspected_prefix`` gives the prefix a claim on a recipe inspects, and
refuses a window range the window pass would refuse before it builds
that prefix.  Its length is given, or by default ``inspected_length``:
the shorter of ``DEFAULT_MARGIN * n_max`` and the factor-complete length
of :func:`abelianwords.words.complete_prefix_length`, where the recipe
has one.  A factor-complete prefix holds every factor of length <= n_max of
the infinite word, so a statement about its factors of those lengths (a
profile, a balance bound) is one about the word, and reads the same on
any longer prefix.  A Hubert recipe has a bound through its morphic form
(:func:`abelianwords.words.morphic_form`), the fixed point of a lifted
morphism, where its slope is eventually periodic and the lift primitive.
Recipes without a known bound (explicit, Champernowne, max-complexity, a
Hubert word of a finite expansion) inspect ``DEFAULT_MARGIN * n_max``
symbols.
"""

from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .complexity import _require_range, abelian_profile, parikh
from .words import WordPrefix, WordRecipe, complete_prefix_length, prefix_of

__all__ = [
    "CheckReport",
    "MuDecomposition",
    "inspected_length",
    "inspected_prefix",
    "mu_preimage_decompose",
    "periodicity_via_parikh",
    "rauzy_constant3_check",
    "special_factor_witnesses",
    "tm_profile_check",
]

DEFAULT_MARGIN = 64


def inspected_length(recipe: WordRecipe, n_max: int) -> int:
    """The prefix length to inspect for claims on lengths <= n_max: the
    factor-complete length where the recipe has one, capped at
    ``DEFAULT_MARGIN * n_max``."""
    complete = complete_prefix_length(recipe, n_max)
    if complete is None:
        return DEFAULT_MARGIN * n_max
    return min(complete.length, DEFAULT_MARGIN * n_max)


def inspected_prefix(recipe: WordRecipe, n_max: int,
                     prefix_len: Union[int, None] = None) -> WordPrefix:
    """The prefix to inspect for claims on lengths 1..n_max: of
    ``prefix_len`` symbols, by default of ``inspected_length(recipe,
    n_max)``.  A window range the window pass would refuse is refused
    before the prefix is built."""
    if prefix_len is None:
        prefix_len = inspected_length(recipe, n_max)
    _require_range(n_max, prefix_len)
    return prefix_of(recipe, prefix_len)


@dataclass(frozen=True)
class CheckReport:
    claim: str
    range_checked: str
    passed: bool
    witness: Union[dict, None] = None

    def __post_init__(self):
        if not self.passed and self.witness is None:
            raise ValueError("a failing report needs a witness")

    @property
    def verdict(self) -> str:
        return "pass" if self.passed else "fail"


def _profile_report(w: WordPrefix, n_max: int, claim: str,
                    expected: Callable[[int], int]) -> CheckReport:
    """``claim`` checked as rho_ab(n) = expected(n) for n = 1..n_max; the
    witness of a failure is the first n that differs."""
    for n, actual in enumerate(abelian_profile(w, n_max), 1):
        if actual != expected(n):
            return CheckReport(claim, f"1..{n_max}", False,
                               {"n": n, "expected": expected(n),
                                "actual": actual})
    return CheckReport(claim, f"1..{n_max}", True)


def tm_profile_check(w: WordPrefix, n_max: int) -> CheckReport:
    """Check the alternating profile rho_ab(n) = 2 (n odd) / 3 (n even)
    on ``w`` for n = 1..n_max.

    The verdict is about ``w`` itself; on the Thue-Morse word's
    ``inspected_prefix``, which is factor-complete, it is about the
    infinite word."""
    return _profile_report(w, n_max, "thue-morse-profile",
                           lambda n: 2 if n % 2 else 3)


@dataclass(frozen=True)
class MuDecomposition:
    """One way to read a binary word as (letter +) image under 0->01, 1->10."""

    offset: int
    prepended: Union[int, None]
    core: bytes  # the decoded pre-image prefix
    dangling_dropped: bool


def mu_preimage_decompose(w: WordPrefix) -> list[MuDecomposition]:
    """All ways to parse w as mu(w'), 0 mu(w') or 1 mu(w').

    Both alignments are tried: at offset 0 the word itself must split into
    blocks 01/10, at offset 1 the first letter is taken as prepended.  A
    trailing unpaired letter is allowed (prefixes truncate mid-block) and
    flagged.  The empty list means no alignment works.
    """
    if w.alphabet_size > 2:
        raise ValueError("word must be binary")
    arr = w.as_array()
    out = []
    for offset in (0, 1):
        if offset > len(arr):
            break
        pairs = (len(arr) - offset) // 2
        firsts = arr[offset::2][:pairs]
        if (firsts != arr[offset + 1::2][:pairs]).all():
            out.append(MuDecomposition(
                offset=offset,
                prepended=w.symbols[0] if offset == 1 else None,
                core=firsts.tobytes(),
                dangling_dropped=(len(arr) - offset) % 2 == 1))
    return out


def periodicity_via_parikh(w: WordPrefix, p: int) -> CheckReport:
    """Period-p test: all length-p windows share one Parikh vector.

    Cross-asserted against the direct w[i] == w[i+p] comparison; for a
    finite word the two are equivalent because sliding a window one step
    swaps exactly the two letters that the direct test compares.
    """
    if p < 1:
        raise ValueError("period must be >= 1")
    if len(w) < p + 1:
        raise ValueError(f"need at least {p + 1} symbols to test period {p}")
    arr = w.as_array()
    mism = np.flatnonzero(arr[:-p] != arr[p:])
    parikh_verdict = abelian_profile(w, p, p) == [1]
    direct_verdict = mism.size == 0
    if parikh_verdict != direct_verdict:
        raise AssertionError("Parikh and direct periodicity tests disagree")
    if direct_verdict:
        return CheckReport("periodicity", f"p={p}", True)
    i = int(mism[0])
    return CheckReport(
        "periodicity", f"p={p}", False,
        {"position": i,
         "window_a": w.symbols[i:i + p],
         "window_b": w.symbols[i + 1:i + 1 + p],
         "parikh_a": parikh(w.symbols[i:i + p], w.alphabet_size),
         "parikh_b": parikh(w.symbols[i + 1:i + 1 + p], w.alphabet_size)})


def special_factor_witnesses(w: WordPrefix, k: int):
    """First length-k factor of shape 0...1 and first of shape 1...0.

    Returns ((pos, factor), (pos, factor)) or None when either shape is
    missing, which for long prefixes signals a (eventually) periodic word.
    """
    if w.alphabet_size > 2:
        raise ValueError("word must be binary")
    if k < 2:
        raise ValueError("k must be >= 2")
    if len(w) < k:
        return None
    arr = w.as_array()
    heads, tails = arr[:len(w) - k + 1], arr[k - 1:]
    u_hits = np.flatnonzero((heads == 0) & (tails == 1))
    v_hits = np.flatnonzero((heads == 1) & (tails == 0))
    if not (u_hits.size and v_hits.size):
        return None
    i, j = int(u_hits[0]), int(v_hits[0])
    return ((i, w.symbols[i:i + k]), (j, w.symbols[j:j + k]))


def rauzy_constant3_check(recipe: WordRecipe, n_max: int) -> CheckReport:
    """Check rho_ab(n) = 3 for n = 1..n_max on the recipe's
    ``inspected_prefix``."""
    return _profile_report(inspected_prefix(recipe, n_max), n_max,
                           "constant-abelian-3", lambda n: 3)
