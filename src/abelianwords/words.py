"""Finite prefixes of infinite words, built from declarative recipes.

Alphabets are always {0, ..., p-1}; symbols are stored as ``bytes`` so
prefixes are compact, immutable and hashable (and p is at most 256), and
two prefixes are equal when their alphabets and symbols are.  All public
indexing is 0-based; the characteristic word's classical 1-based
positions are shifted internally, so public position j holds the letter
the classical definition assigns to j+1.

Each recipe kind is one row of the table ``_KINDS``: its wire name,
serializer, parser, generator and factor-complete bound.  A row's
generator produces the alphabet size and symbols; ``prefix_of`` checks
the length against the fixed symbol budget (``_check_length``, which the
Sturmian certificates also call before they read a slope's cached word)
and wraps them in a ``WordPrefix``, and each public generator is
``prefix_of`` on its recipe.

Generation does no per-symbol Python work: the two word families of the
paper are built by copying whole blocks of bytes.

* A fixed point u = m(u) is also the fixed point of a power M = m^J
  whose images are tens to thousands of symbols long.  The images of M,
  or post(M(b)) under a post-morphism, are built once per prefix by
  concatenation; the prefix is the join of those images over the first
  letters of u.  A join is one cut: the running sum of the image lengths
  and one search in it find the fewest letters whose images reach the
  length, and the last image is cut to fit.  u itself starts as M(seed)
  and grows by M of its letters not yet mapped, while the images of its
  letters fall short of the length.
* A characteristic word is the limit of the standard words
  s_n = s_(n-1)^(a_n) s_(n-2), built by bytes repetition.  Each slope
  keeps one grow-only prefix of its characteristic word beside its
  grow-only convergent cache (both on the ``ContinuedFraction``, grown
  under one lock), and every characteristic prefix is a slice of it.

The Hubert recoding and the other generators use whole-array operations;
``Morphism.apply_raw`` gathers rows of the morphism's image table.

Where the recipe's word is uniformly recurrent with a known recurrence
bound, a computable prefix already holds every factor of length <= n of
the infinite word: ``complete_prefix_length`` gives that length with a
witness that can be checked again, or None.
"""

import json
from collections import namedtuple
from dataclasses import dataclass
from typing import NamedTuple, Union

import numpy as np

from .contfrac import (_CACHE_GROWTH, ContinuedFraction, _is_json_int, _pq_at,
                       _wire_object)

__all__ = [
    "BudgetError",
    "Champernowne",
    "Characteristic",
    "CompletePrefix",
    "DEFAULT_SYMBOL_BUDGET",
    "Explicit",
    "FixedPoint",
    "Hubert",
    "LiteralPrepend",
    "MaxComplexity",
    "Morphism",
    "Periodic",
    "WordPrefix",
    "WordRecipe",
    "apply_morphism",
    "champernowne_prefix",
    "characteristic_prefix",
    "complete_prefix_length",
    "fixed_point",
    "hubert_ternary",
    "hubert_transform",
    "max_complexity_prefix",
    "prefix_of",
    "recipe_from_dict",
    "recipe_from_json",
    "recipe_to_dict",
    "CONSTANT3",
    "DOUBLING",
    "FIBONACCI",
    "THUE_MORSE",
    "TRIBONACCI",
]

DEFAULT_SYMBOL_BUDGET = 1 << 26

# symbols are bytes, so no alphabet holds more letters
_MAX_ALPHABET = 256

_TO_DIGITS = bytes.maketrans(bytes(range(10)), b"0123456789")
_FROM_DIGITS = bytes.maketrans(b"0123456789", bytes(range(10)))


class BudgetError(RuntimeError):
    """Requested work exceeds a fixed bound: a prefix longer than
    ``DEFAULT_SYMBOL_BUDGET`` symbols, or a window pass over too many
    windows."""


def _parse_digits(s: str) -> bytes:
    # strip leaves a non-empty string exactly when some character is not 0-9
    if not isinstance(s, str) or s.strip("0123456789"):
        raise ValueError(f"symbols must be digit strings, got {s!r}")
    return s.encode("ascii").translate(_FROM_DIGITS)


def _parse_letter(value) -> int:
    """A letter on the wire: a digit string or a JSON integer (not a bool)."""
    digits = isinstance(value, str) and value and not value.strip("0123456789")
    if not digits and not _is_json_int(value):
        raise ValueError(
            f"a letter must be a digit string or a JSON integer, got {value!r}")
    return int(value)


def _wire_alphabet_size(d: dict) -> int:
    size = d["alphabet_size"]
    if not _is_json_int(size) or not 1 <= size <= _MAX_ALPHABET:
        raise ValueError("alphabet_size must be a JSON integer from 1 to "
                         f"{_MAX_ALPHABET}, got {size!r}")
    return size


def _max_letter(symbols: bytes) -> int:
    """Largest letter in ``symbols``, or -1 when there is none."""
    return int(np.frombuffer(symbols, dtype=np.uint8).max()) if symbols else -1


def _check_alphabet(alphabet_size: int, symbols: bytes):
    if not 1 <= alphabet_size <= _MAX_ALPHABET:
        raise ValueError(f"alphabet size must be 1..{_MAX_ALPHABET}, "
                         f"got {alphabet_size}")
    if _max_letter(symbols) >= alphabet_size:
        raise ValueError("symbol out of alphabet range")


def _format_digits(symbols: bytes) -> str:
    if _max_letter(symbols) > 9:
        raise ValueError("digit serialization supports alphabets up to size 10")
    return symbols.translate(_TO_DIGITS).decode("ascii")


@dataclass(frozen=True)
class Morphism:
    """A non-erasing substitution letter -> word over {0..p-1}.

    For ``apply_raw`` the images are also held as a read-only
    ``(p, longest image)`` table, zero-padded, with a mask of the cells
    that belong to an image (None when every image has the same length).
    Both are built once, are not dataclass fields and never change, so a
    morphism is safe to share.  Fixed points do not use them: they join
    the images of a power of the morphism as bytes.
    """

    images: tuple[bytes, ...]

    def __post_init__(self):
        if not self.images:
            raise ValueError("morphism needs at least one image")
        for a, img in enumerate(self.images):
            if not img:
                raise ValueError(f"image of letter {a} is empty (erasing)")
        table = np.zeros((len(self.images), max(map(len, self.images))),
                         dtype=np.uint8)
        mask = np.zeros(table.shape, dtype=bool)
        for a, img in enumerate(self.images):
            table[a, :len(img)] = np.frombuffer(img, dtype=np.uint8)
            mask[a, :len(img)] = True
        table.flags.writeable = mask.flags.writeable = False
        object.__setattr__(self, "_table", table)
        object.__setattr__(self, "_mask", None if mask.all() else mask)

    @property
    def alphabet_size(self) -> int:
        return len(self.images)

    @property
    def image_alphabet_size(self) -> int:
        return 1 + int(self._table.max())

    def is_prolongable(self, seed: int) -> bool:
        """True when image(seed) starts with seed and has length >= 2."""
        img = self.images[seed]
        return len(img) >= 2 and img[0] == seed

    def apply_raw(self, symbols: bytes) -> bytes:
        """Concatenation of the images of ``symbols``; a letter without an
        image raises IndexError."""
        return self._gather(np.frombuffer(symbols, dtype=np.uint8)).tobytes()

    def _gather(self, arr: np.ndarray) -> np.ndarray:
        # row a of the table is the image of a; the mask drops the padding
        rows = np.take(self._table, arr, axis=0)
        if self._mask is None:
            return rows.reshape(-1)
        return rows[np.take(self._mask, arr, axis=0)]

    @classmethod
    def from_strings(cls, mapping: dict) -> "Morphism":
        """Parse the wire form: a JSON object from letters to digit strings."""
        by_letter = {_parse_letter(k): _parse_digits(v)
                     for k, v in _wire_object(mapping, "morphism").items()}
        # two keys for one letter ("0" and "00") leave fewer letters than keys
        if (len(by_letter) != len(mapping)
                or sorted(by_letter) != list(range(len(by_letter)))):
            raise ValueError(
                "morphism must define one image for every letter 0..p-1")
        return cls(tuple(by_letter[a] for a in range(len(by_letter))))

    def to_strings(self) -> dict:
        return {str(a): _format_digits(img) for a, img in enumerate(self.images)}


THUE_MORSE = Morphism.from_strings({"0": "01", "1": "10"})
FIBONACCI = Morphism.from_strings({"0": "01", "1": "0"})
TRIBONACCI = Morphism.from_strings({"0": "01", "1": "02", "2": "0"})
DOUBLING = Morphism.from_strings({"0": "00", "1": "11"})
# sends any aperiodic binary word to a ternary word of constant Abelian
# complexity 3
CONSTANT3 = Morphism.from_strings({"0": "012", "1": "021"})


@dataclass(frozen=True)
class FixedPoint:
    """The fixed point of ``morphism`` grown from ``seed``, optionally
    mapped through ``post``.

    Iterating needs an image for every letter an image contains, so the
    morphism must map {0..p-1} into words over {0..p-1}; ``post`` may
    map onto a larger alphabet but must cover this one.
    """

    morphism: Morphism
    seed: int
    post: Union[Morphism, None] = None

    def __post_init__(self):
        p = self.morphism.alphabet_size
        if self.morphism.image_alphabet_size > p:
            raise ValueError(
                f"morphism images use letter {self.morphism.image_alphabet_size - 1},"
                f" which has no image (letters 0..{p - 1})")
        if not 0 <= self.seed < p:
            raise ValueError(f"seed {self.seed} is not a letter 0..{p - 1}")
        if self.post is not None and self.post.alphabet_size < p:
            raise ValueError(
                f"post-morphism defines images for letters "
                f"0..{self.post.alphabet_size - 1}, the word uses 0..{p - 1}")


@dataclass(frozen=True)
class Characteristic:
    slope: ContinuedFraction


@dataclass(frozen=True)
class Periodic:
    pattern: bytes

    def __post_init__(self):
        if not self.pattern:
            raise ValueError("periodic pattern must be non-empty")


@dataclass(frozen=True)
class Explicit:
    symbols: bytes
    alphabet_size: Union[int, None] = None


@dataclass(frozen=True)
class Champernowne:
    pass


@dataclass(frozen=True)
class MaxComplexity:
    pass


@dataclass(frozen=True)
class Hubert:
    slope: ContinuedFraction


@dataclass(frozen=True, eq=False)
class LiteralPrepend:
    """``prefix`` followed by the word of ``inner``.  Equality, hashing,
    repr and pickling walk the nested levels in a loop, so any nesting
    depth is served."""

    prefix: bytes
    inner: "WordRecipe"

    def _key(self) -> tuple:
        levels, inner = _unnest(self)
        return tuple(level.prefix for level in levels), inner

    def __eq__(self, other):
        if type(other) is not LiteralPrepend:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        levels, inner = _unnest(self)
        opened = "".join(f"LiteralPrepend(prefix={level.prefix!r}, inner="
                         for level in levels)
        return opened + repr(inner) + ")" * len(levels)

    def __reduce__(self):
        return _literal_prepend, self._key()


WordRecipe = Union[FixedPoint, Characteristic, Periodic, Explicit,
                   Champernowne, MaxComplexity, Hubert, LiteralPrepend]


@dataclass(frozen=True)
class WordPrefix:
    """An immutable finite prefix of an infinite word over {0..p-1}."""

    alphabet_size: int
    symbols: bytes

    def __post_init__(self):
        _check_alphabet(self.alphabet_size, self.symbols)

    def __len__(self) -> int:
        return len(self.symbols)

    def __getitem__(self, i):
        return self.symbols[i]

    def digits(self) -> str:
        return _format_digits(self.symbols)

    def as_array(self) -> np.ndarray:
        return np.frombuffer(self.symbols, dtype=np.uint8)

    def shift(self, j: int) -> "WordPrefix":
        """Drop the first j >= 0 symbols (prefix of the shifted word)."""
        if j < 0:
            raise ValueError(f"shift must be >= 0, got {j}")
        return WordPrefix(self.alphabet_size, self.symbols[j:])

    def __repr__(self) -> str:
        head = self.digits() if len(self) <= 32 else self.digits()[:32] + "..."
        return f"WordPrefix(p={self.alphabet_size}, len={len(self)}, {head!r})"


def fixed_point(m: Morphism, seed: int, length: int) -> WordPrefix:
    """Length-``length`` prefix of the fixed point of ``m`` starting at ``seed``."""
    return prefix_of(FixedPoint(m, seed), length)


def apply_morphism(m: Morphism, w: WordPrefix) -> WordPrefix:
    """Concatenation of the images of w's letters."""
    if _max_letter(w.symbols) >= m.alphabet_size:
        raise ValueError("word contains letters outside the morphism's domain")
    return WordPrefix(m.image_alphabet_size, m.apply_raw(w.symbols))


def characteristic_prefix(alpha: ContinuedFraction, length: int) -> WordPrefix:
    """Prefix of the characteristic word of slope alpha.

    Position j (0-based) holds floor((j+2)*alpha) - floor((j+1)*alpha),
    i.e. the letter the classical 1-based definition assigns to j+1.
    A finite expansion serves only lengths below q - 2 for its last
    convergent denominator q, and beyond that raises
    :class:`InsufficientPrecisionError`.
    """
    return prefix_of(Characteristic(alpha), length)


def champernowne_prefix(length: int) -> WordPrefix:
    """Prefix of the concatenated binary expansions 0, 1, 10, 11, 100, ..."""
    return prefix_of(Champernowne(), length)


def max_complexity_prefix(length: int) -> WordPrefix:
    """Prefix of 0 1 0 111 000 1^9 0^9 1^27 0^27 ...

    The binary word whose Abelian complexity meets the compositions bound
    n+1 at every length, while its subword complexity stays linear.
    """
    return prefix_of(MaxComplexity(), length)


def hubert_transform(inner: WordPrefix) -> WordPrefix:
    """Ternary recoding of a binary word: the j-th occurrence of letter 0
    becomes 0 for even j and 1 for odd j, and every occurrence of letter 1
    becomes 2.

    Applied to a Sturmian word this produces a balanced aperiodic ternary
    word.  The phase is fixed: the first 0-occurrence maps to 0.
    """
    if inner.alphabet_size > 2:
        raise ValueError("inner word must be binary")
    return WordPrefix(3, _hubert_symbols(inner.symbols))


def hubert_ternary(inner: ContinuedFraction, length: int) -> WordPrefix:
    """Balanced aperiodic ternary word built over the characteristic word
    of the given slope."""
    return prefix_of(Hubert(inner), length)


# ---------------------------------------------------------------------------
# recipe kinds.  On the wire symbols are digit strings (p <= 10); the
# parsers, Morphism.from_strings and ContinuedFraction.from_dict are where
# wire types are checked.

# A fixed point is copied in images of a power of its morphism: the least
# power whose shortest image has _BLOCK_MIN symbols, or whose longest
# reaches _BLOCK_CAP (a letter that never grows keeps images of one symbol).
_BLOCK_MIN, _BLOCK_CAP = 64, 4096


def _fixed_point_row(r: FixedPoint, length: int) -> tuple[int, bytes]:
    """The fixed point u of ``r.morphism`` from ``r.seed``, mapped through
    ``r.post`` when there is one.

    u is also the fixed point of the power M of ``_power_images``, so the
    word is the join of the images M(b), or post(M(b)) under a
    post-morphism, over the letters b of u (``_fixed_point_join``).  M's
    images are needed to ceil(length / shortest post image) symbols.
    """
    m, post = r.morphism, r.post
    if not m.is_prolongable(r.seed):
        raise ValueError(f"morphism is not prolongable on letter {r.seed}")
    if post is None:
        powers = _power_images(m, length)
        return m.alphabet_size, _fixed_point_join(powers, powers, r.seed,
                                                  length)
    powers = _power_images(m, -(-length // min(map(len, post.images))))
    images = [b"".join(map(post.images.__getitem__, img))[:length]
              for img in powers]
    return post.image_alphabet_size, _fixed_point_join(powers, images, r.seed,
                                                       length)


def _power_images(m: Morphism, cut: int) -> list:
    """The image of every letter under M = m^J, each cut at ``cut``
    symbols, with J the least power whose shortest image has _BLOCK_MIN
    symbols or whose longest reaches min(cut, _BLOCK_CAP).

    m^(j+1)(a) is the join of m^j(b) over the letters b of m(a).  A cut
    image is ``cut`` symbols long, so the join of cut images, cut again,
    is still the image cut at ``cut``.
    """
    images = [img[:cut] for img in m.images]
    stop = min(cut, _BLOCK_CAP)
    while (min(map(len, images)) < _BLOCK_MIN
           and max(map(len, images)) < stop):
        images = [b"".join(map(images.__getitem__, img))[:cut]
                  for img in m.images]
    return images


def _fixed_point_join(powers: list, images: list, seed: int,
                      length: int) -> bytes:
    """``images`` joined over the letters of the fixed point u = M(u) from
    ``seed``, cut at ``length``; ``powers`` are M's images, cut at no
    fewer symbols than u needs letters.

    u[:cap] holds the letters the length needs, for cap = ceil(length /
    shortest image).  u starts as M(seed); once u[:src] is mapped,
    M(u[src:]) is the next stretch of u, so u grows by it, cut at cap,
    while the images of the letters known fall short of the length.  The
    word itself is one join at the end.
    """
    if length == 0:
        return b""
    lens = [len(img) for img in images]
    power_lens = [len(img) for img in powers]
    cap = -(-length // min(lens))
    u = bytearray(powers[seed][:cap])
    src, reached = 1, _images_length(u, lens)  # u is M(u[:src]), cut at cap
    while reached < length:
        # a view of the letters not yet mapped, released before u grows
        piece, read = _join_images(powers, power_lens, memoryview(u)[src:],
                                   cap - len(u))
        u += piece
        src, reached = src + read, reached + _images_length(piece, lens)
    return _join_images(images, lens, u, length)[0]


def _images_length(letters: bytes, lens: list) -> int:
    """The summed image length of ``letters``, one count per letter."""
    return sum(n * letters.count(a) for a, n in enumerate(lens))


def _join_images(images: list, lens: list, letters: bytes,
                 need: int) -> tuple[bytes, int]:
    """The images of the fewest leading ``letters`` whose lengths
    (``lens``) reach ``need`` (of all of them when they fall short),
    joined and cut at ``need``, and how many letters that reads.

    One cut: the running sum of the image lengths, over no more letters
    than ceil(need / shortest image), and one search in it for the first
    that reaches ``need``; the last image is cut to fit.
    """
    letters = letters[:-(-need // min(lens))]
    ends = np.asarray(lens)[np.frombuffer(letters, dtype=np.uint8)]
    np.cumsum(ends, out=ends)
    read = min(int(np.searchsorted(ends, need)) + 1, len(letters))
    over = int(ends[read - 1]) - need if read else 0
    pieces = list(map(images.__getitem__, letters[:read]))
    if over > 0:
        pieces[-1] = pieces[-1][:-over]
    return b"".join(pieces), read


def _characteristic_symbols(alpha: ContinuedFraction, length: int) -> bytes:
    """The first ``length`` symbols of the characteristic word of alpha."""
    return _characteristic_word(alpha, length)[:length] if length else b""


def _characteristic_word(alpha: ContinuedFraction, length: int) -> bytes:
    """The slope's grow-only cache of its characteristic word, grown to
    more than ``length`` symbols first; it at least doubles whenever it
    grows.  It holds only the letters 0 and 1."""
    need = length + 3  # some q_n > length + 2, the finite-expansion rule
    word = alpha._word[0]
    if len(word) < need:
        with _CACHE_GROWTH:
            word = alpha._word[0]
            if len(word) < need:
                # a finite expansion grows no further than asked, so it
                # asks for no term the length does not need
                want = max(need, 2 * len(word)) if alpha.is_unbounded else need
                word = alpha._word[0] = _grow_characteristic(alpha, word, want)
    return word


def _grow_characteristic(alpha: ContinuedFraction, word: bytes,
                         want: int) -> bytes:
    """Extend ``word``, a prefix of the characteristic word of ``alpha``,
    to at least ``want`` symbols.

    With s_(-1) = 1, s_0 = 0, s_1 = s_0^(a_1 - 1) s_(-1) and
    s_(i+1) = s_i^(a_(i+1)) s_(i-1), the word begins with every s_i
    (i >= 1), which has length q_i.  ``word`` always ends on a whole copy
    of some s_i inside s_(i+1), so its length is a multiple of q_i below
    q_(i+1), which finds i.  For i >= 1, s_i is the length-q_i prefix of
    ``word``, and so is s_(i-1) for i >= 2; s_0 and s_(-1) are literals.
    A repeat count is capped at what ``want`` still needs, so a huge
    partial quotient costs nothing.
    """
    out = bytearray(word)
    while len(out) < want:
        n, i = len(out), 0
        while n and _pq_at(alpha, i + 1)[1] <= n:
            i += 1
        if i == 0:
            unit, reps, tail = b"\0", alpha.term(1) - 1, b"\1"
        else:
            unit, reps = out[:_pq_at(alpha, i)[1]], alpha.term(i + 1)
            tail = out[:_pq_at(alpha, i - 1)[1]] if i > 1 else b"\0"
        done = n // len(unit)
        upto = min(reps, -(-want // len(unit)))
        out += unit * (upto - done)
        if upto == reps:
            out += tail
    return bytes(out)


_HUBERT_BLOCK = 1 << 16


def _hubert_symbols(symbols) -> bytes:
    """The Hubert recoding (see hubert_transform) of binary ``symbols``,
    any bytes-like object: each letter doubled (0 stays 0, 1 becomes 2),
    then 1 written at every 0 with an odd occurrence index.  The 0s are
    found one block of _HUBERT_BLOCK symbols at a time, so the index
    arrays stay small, and the parity of the 0s in earlier blocks is
    carried over."""
    arr = np.frombuffer(symbols, dtype=np.uint8)
    out = arr << 1
    odd = 1  # position, among this block's 0s, of the first odd-indexed one
    for lo in range(0, len(arr), _HUBERT_BLOCK):
        zeros = np.flatnonzero(arr[lo:lo + _HUBERT_BLOCK] == 0)
        out[lo:lo + _HUBERT_BLOCK][zeros[odd::2]] = 1
        odd ^= len(zeros) & 1
    return out.tobytes()


def _hubert_row(r: Hubert, length: int) -> tuple[int, bytes]:
    # reads a view of the slope's cached word, so the inner prefix is
    # never copied
    if not length:
        return 3, b""
    word = memoryview(_characteristic_word(r.slope, length))
    return 3, _hubert_symbols(word[:length])


def _champernowne_symbols(length: int) -> bytes:
    # one block per bit length b: the numbers 2^(b-1)..2^b-1 (and 0 for
    # b = 1) written as rows of b bits, only as many as the prefix needs
    blocks = []
    total = 0
    b = 1
    while total < length:
        lo = 0 if b == 1 else 1 << (b - 1)
        count = min((1 << b) - lo, -(-(length - total) // b))
        blocks.append((lo, count, b))
        total += count * b
        b += 1
    # filled one bit column at a time, so no temporary is wider than a
    # column of one block
    out = np.empty(total, dtype=np.uint8)
    start = 0
    for lo, count, b in blocks:
        rows = out[start:start + count * b].reshape(count, b)
        nums = np.arange(lo, lo + count, dtype=np.int64)
        for j in range(b):
            rows[:, j] = (nums >> (b - 1 - j)) & 1
        start += count * b
    return out[:length].tobytes()


def _max_complexity_symbols(length: int) -> bytes:
    # 0, then 1^r 0^r for r = 1, 3, 9, ...; each run is cut at what the
    # prefix still needs, so the join of the runs is the prefix itself
    runs = [b"\x00"[:length]]
    total, run = len(runs[0]), 1
    while total < length:
        for letter in (b"\x01", b"\x00"):
            runs.append(letter * min(run, length - total))
            total += len(runs[-1])
        run *= 3
    return b"".join(runs)


def _periodic_row(r: Periodic, length: int) -> tuple[int, bytes]:
    sym = (r.pattern * -(-length // len(r.pattern)))[:length]
    return _max_letter(r.pattern) + 1, sym


def _explicit_row(r: Explicit, length: int) -> tuple[int, bytes]:
    if length > len(r.symbols):
        raise ValueError(f"explicit recipe holds {len(r.symbols)} symbols, "
                         f"{length} requested")
    symbols = r.symbols[:length]
    if r.alphabet_size is None:
        return max(_max_letter(r.symbols) + 1, 1), symbols
    # the one declared alphabet: checked here as well, as a literal-prepend
    # head could otherwise widen it to cover the symbols
    _check_alphabet(r.alphabet_size, symbols)
    return r.alphabet_size, symbols


def _unnest(recipe: WordRecipe) -> tuple[list, WordRecipe]:
    """The literal-prepend levels around ``recipe``, outermost first, and
    the recipe they wrap.  Nested levels are walked in a loop, never by
    recursion, so any nesting depth is served."""
    levels = []
    while type(recipe) is LiteralPrepend:
        levels.append(recipe)
        recipe = recipe.inner
    return levels, recipe


def _literal_prepend(prefixes: tuple, inner: WordRecipe) -> "LiteralPrepend":
    """The levels with these prefixes, outermost first, around ``inner``."""
    for prefix in reversed(prefixes):
        inner = LiteralPrepend(prefix, inner)
    return inner


def _prepend_row(r: LiteralPrepend, length: int) -> tuple[int, bytes]:
    levels, inner = _unnest(r)
    head = b"".join(level.prefix for level in levels)
    p, tail = _kind_of(inner).generate(inner, length - min(length, len(head)))
    return max(p, _max_letter(head) + 1), head[:length] + tail


# ---------------------------------------------------------------------------
# factor-complete prefixes.  Each ``complete`` row below takes a recipe and
# n >= 1 and returns a CompletePrefix or None (no bound is known).

class CompletePrefix(NamedTuple):
    """A prefix length holding every factor of length <= n of the infinite
    word, and the small witness the bound was computed from."""

    length: int
    witness: dict


def _is_primitive(m: Morphism) -> bool:
    """Whether some power of the incidence matrix is positive.  By
    Wielandt's bound a primitive p x p matrix has a positive power by
    exponent (p - 1)^2 + 1, and every later power is positive too, so
    squaring until the exponent passes that bound decides it."""
    inc = np.zeros((m.alphabet_size, m.alphabet_size), dtype=bool)
    for a, img in enumerate(m.images):
        inc[a, np.frombuffer(img, dtype=np.uint8)] = True
    for _ in range(((m.alphabet_size - 1) ** 2).bit_length()):
        inc = inc @ inc
    return bool(inc.all())


def _two_factors(m: Morphism, seed: int) -> tuple[int, set]:
    """K, the least iterate with m^K(seed) holding every 2-factor of the
    fixed point, and that set of 2-factors, computed on sets alone.

    The 2-factors of m(w) are those inside the images of w's letters and,
    for each 2-factor ab of w, the pair (last letter of m(a), first letter
    of m(b)).  From K = 1 on w has length >= 2, so its letters are those of
    its 2-factors, and the next set depends on this one alone: the first
    iterate whose set repeats holds all of them.
    """
    inside = [set(zip(img, img[1:])) for img in m.images]
    pairs, letters, K = set(), {seed}, 0
    while True:
        grown = set().union(*(inside[a] for a in letters))
        grown |= {(m.images[a][-1], m.images[b][0]) for a, b in pairs}
        if grown == pairs:
            return K, pairs
        pairs, K = grown, K + 1
        letters = {a for pair in pairs for a in pair}


def _fixed_point_complete(r: FixedPoint, n: int):
    """m^(k+K)(seed), with K from _two_factors and k the least iterate with
    min_a |m^k(a)| >= n - 1: a length-n factor of the fixed point u =
    m^k(u) starts inside some m^k(u_i) and so ends inside m^k(u_i u_(i+1)),
    and u_i u_(i+1) occurs in m^K(seed).  A post-morphism's word has each
    length-n factor inside the image of an inner factor of length
    1 + ceil((n - 1) / shortest image), so the inner bound at that length
    is taken through the image lengths.  Only for a primitive morphism
    prolongable on the seed; lengths are Python ints, no word is built."""
    m, p = r.morphism, r.morphism.alphabet_size
    if not (m.is_prolongable(r.seed) and _is_primitive(m)):
        return None
    if r.post is None:
        inner_n, lengths = n, [1] * p
    else:
        shortest = min(map(len, r.post.images))
        inner_n = 1 + -(-(n - 1) // shortest)
        lengths = [len(r.post.images[a]) for a in range(p)]

    def iterate(vec):  # |x(m(a))| from |x(b)| for every letter b
        return [sum(vec[b] for b in img) for img in m.images]

    K, pairs = _two_factors(m, r.seed)
    k, sizes = 0, [1] * p  # sizes[a] = |m^k(a)|
    while min(sizes) < inner_n - 1:
        sizes, k = iterate(sizes), k + 1
    for _ in range(k + K):
        lengths = iterate(lengths)
    witness = {"k": k, "K": K, "inner_n": inner_n,
               "two_factors": sorted(pairs)}
    return CompletePrefix(lengths[r.seed], witness)


def _characteristic_complete(r: Characteristic, n: int):
    """n + q_(j+1) + q_j - 1 with j the largest index where q_j <= n: the
    recurrence function of a Sturmian word (Morse & Hedlund 1940) bounds
    every window, the prefix included.  Only for an irrational slope."""
    alpha = r.slope
    if not alpha.is_unbounded:
        return None
    j = 0
    while _pq_at(alpha, j + 1)[1] <= n:
        j += 1
    q, q_next = _pq_at(alpha, j)[1], _pq_at(alpha, j + 1)[1]
    return CompletePrefix(n + q_next + q - 1, {"j": j, "q": [q, q_next]})


def _prepend_complete(r: LiteralPrepend, n: int):
    """The head, then the inner bound: a factor overlapping the head ends
    before |head| + n, and every inner bound is at least n."""
    levels, inner = _unnest(r)
    found = complete_prefix_length(inner, n)
    if found is None:
        return None
    head = sum(len(level.prefix) for level in levels)
    return CompletePrefix(head + found.length,
                          {"head": head, "inner": found.witness})


def _no_bound(r, n):
    return None


# One row per kind: its class, its wire name, ``dump`` (the wire fields
# after ``kind``, in wire order, an absent optional field as None),
# ``parse`` (from a wire dict), ``generate`` ((recipe, length) to
# (alphabet size, symbols), for a length prefix_of has checked) and
# ``complete`` (recipe, n).  ``dump`` and ``parse`` handle one level: a
# literal-prepend's ``inner`` is dumped and parsed by recipe_to_dict and
# recipe_from_dict, which loop over the nested levels.
_Kind = namedtuple("_Kind", "cls name dump parse generate complete")
_KINDS = (
    _Kind(FixedPoint, "fixed-point",
          lambda r: {"morphism": r.morphism.to_strings(), "seed": str(r.seed),
                     "post": r.post.to_strings() if r.post else None},
          lambda d: FixedPoint(
              Morphism.from_strings(d["morphism"]), _parse_letter(d["seed"]),
              Morphism.from_strings(d["post"]) if "post" in d else None),
          _fixed_point_row, _fixed_point_complete),
    _Kind(Characteristic, "characteristic",
          lambda r: {"slope": r.slope.to_dict()},
          lambda d: Characteristic(ContinuedFraction.from_dict(d["slope"])),
          lambda r, n: (2, _characteristic_symbols(r.slope, n)),
          _characteristic_complete),
    _Kind(Periodic, "periodic", lambda r: {"pattern": _format_digits(r.pattern)},
          lambda d: Periodic(_parse_digits(d["pattern"])), _periodic_row,
          lambda r, n: CompletePrefix(len(r.pattern) + n - 1,
                                      {"period": len(r.pattern)})),
    _Kind(Explicit, "explicit",
          lambda r: {"symbols": _format_digits(r.symbols),
                     "alphabet_size": r.alphabet_size},
          lambda d: Explicit(_parse_digits(d["symbols"]),
                             _wire_alphabet_size(d)
                             if "alphabet_size" in d else None),
          _explicit_row, _no_bound),
    _Kind(Champernowne, "champernowne",
          lambda r: {}, lambda d: Champernowne(),
          lambda r, n: (2, _champernowne_symbols(n)), _no_bound),
    _Kind(MaxComplexity, "max-complexity",
          lambda r: {}, lambda d: MaxComplexity(),
          lambda r, n: (2, _max_complexity_symbols(n)), _no_bound),
    _Kind(Hubert, "hubert", lambda r: {"slope": r.slope.to_dict()},
          lambda d: Hubert(ContinuedFraction.from_dict(d["slope"])),
          _hubert_row, _no_bound),
    _Kind(LiteralPrepend, "literal-prepend",
          lambda r: {"prefix": _format_digits(r.prefix), "inner": r.inner},
          lambda d: LiteralPrepend(_parse_digits(d["prefix"]), d["inner"]),
          _prepend_row, _prepend_complete),
)
_BY_CLASS = {k.cls: k for k in _KINDS}
_BY_NAME = {k.name: k for k in _KINDS}


def _kind_of(recipe: WordRecipe) -> _Kind:
    kind = _BY_CLASS.get(type(recipe))
    if kind is None:
        raise TypeError(f"unknown recipe {recipe!r}")
    return kind


def prefix_of(recipe: WordRecipe, length: int) -> WordPrefix:
    """Generate the length-``length`` prefix described by ``recipe``; a
    length over ``DEFAULT_SYMBOL_BUDGET`` raises BudgetError before any
    symbol is built."""
    _check_length(length)
    return WordPrefix(*_kind_of(recipe).generate(recipe, length))


def _check_length(length: int):
    """The symbol budget, checked before any symbol is built: by
    ``prefix_of`` and by the Sturmian certificates, which read the
    characteristic-word cache directly."""
    if length < 0:
        raise ValueError("length must be >= 0")
    if length > DEFAULT_SYMBOL_BUDGET:
        raise BudgetError(
            f"requested {length} symbols, budget is {DEFAULT_SYMBOL_BUDGET}")


def complete_prefix_length(recipe: WordRecipe,
                           n: int) -> Union[CompletePrefix, None]:
    """A prefix length holding every factor of length <= n of the infinite
    word ``recipe`` describes, with its witness; None where no bound is
    known (Hubert, explicit, Champernowne and max-complexity recipes,
    morphisms that are not primitive or not prolongable, rational slopes).

    Fixed points of primitive morphisms use their linear recurrence
    (Durand, ETDS 2000), characteristic words the Sturmian recurrence
    function (Morse & Hedlund 1940), periodic words |pattern| + n - 1.
    For n < 1 the empty prefix holds the one factor, the empty word.
    """
    if n < 1:
        return CompletePrefix(0, {})
    return _kind_of(recipe).complete(recipe, n)


def _dump(recipe: WordRecipe) -> dict:
    kind = _kind_of(recipe)
    fields = kind.dump(recipe).items()
    return {"kind": kind.name, **{k: v for k, v in fields if v is not None}}


def recipe_to_dict(recipe: WordRecipe) -> dict:
    levels, inner = _unnest(recipe)
    d = _dump(inner)
    for level in reversed(levels):
        d = {**_dump(level), "inner": d}
    return d


def _wire_kind(d) -> _Kind:
    kind = _wire_object(d, "recipe").get("kind")
    if not isinstance(kind, str) or kind not in _BY_NAME:
        raise ValueError(f"unknown recipe kind {kind!r}")
    return _BY_NAME[kind]


def recipe_from_dict(d: dict) -> WordRecipe:
    """Parse a wire recipe; a wrong type raises ValueError.  Nested
    literal-prepend levels are walked in a loop, never by recursion."""
    levels = []
    while (kind := _wire_kind(d)).cls is LiteralPrepend:
        levels.append(d)
        d = d["inner"]
    recipe = kind.parse(d)
    for level in reversed(levels):
        recipe = _BY_CLASS[LiteralPrepend].parse({**level, "inner": recipe})
    return recipe


def recipe_from_json(text: str) -> WordRecipe:
    return recipe_from_dict(json.loads(text))
