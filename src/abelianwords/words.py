"""Finite prefixes of infinite words, built from declarative recipes.

Alphabets are always {0, ..., p-1}; symbols are stored as ``bytes`` so
prefixes are compact, immutable and hashable (and p is at most 256), and
two prefixes are equal when their alphabets and symbols are.  All public
indexing is 0-based; the characteristic word's classical 1-based
positions are shifted internally, so public position j holds the letter
the classical definition assigns to j+1.

Each recipe kind is one row of the table ``_KINDS``: its wire name,
serializer, parser, generator, factor-complete bound and morphic form.
A row's generator produces the alphabet size and symbols; ``prefix_of``
checks the length against the fixed symbol budget (``_check_length``,
which the Sturmian certificates also call before they read a slope's
cached word) and wraps them in a ``WordPrefix``, and each public
generator is ``prefix_of`` on its recipe.

Generation does no per-symbol Python work: the two word families of the
paper are built by copying whole blocks of bytes, and each long prefix
is joined once from pieces of about 1 KiB or more.

* A fixed point u = m(u) is also the fixed point of a power M = m^J
  whose images are 1024 symbols long or more, unless a letter grows
  slowly or never (then the longest image has 4096 symbols).  The
  images of M are built once per prefix by concatenation, and under a
  post-morphism so is post(M(b)), by one gather of post's image table;
  the prefix is the join of those images over the first letters of u.
  A join is one cut: the running sum of the image lengths and one
  search in it find the fewest letters whose images reach the length,
  and the last image is cut to fit.  A run of letters whose images are
  one symbol long (a letter that never grows) is one piece: the run
  translated through a table; so is a run of one letter whose image is
  shorter than 1024 symbols: its image repeated.  u itself starts as
  M(seed) and grows by M of its letters not yet mapped, while the images
  of its letters fall short of the length.
* A characteristic word is the limit of the standard words
  s_n = s_(n-1)^(a_n) s_(n-2).  Below its last symbol s_(n+1) repeats
  s_n with period q_n, so a prefix grows by periodic extension: runs
  copied from the largest multiple of q_n behind them, doubling, into
  one buffer of exactly the grown length.  Each slope keeps one grow-only
  prefix of its characteristic word beside its grow-only convergent
  cache (both on the ``ContinuedFraction``, grown under one lock): a
  read-only view of the filled buffer, never copied.  Every
  characteristic prefix is one copy out of it.

A Hubert word is a fixed point too: ``morphic_form`` writes the
characteristic word of an eventually periodic slope as the image of a
fixed point of composed episturmian morphisms, and the Hubert recoding
of that word as the fixed point of its lift to letters that carry the
parity of the letters before them.  Where a slope has no such form the
recoding runs over the characteristic word.  The recoding, Champernowne's
word and the other generators use whole-array operations;
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
    "morphic_form",
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


def _format_digits(symbols: bytes, end: str = "") -> str:
    """``symbols`` as digits, then the ASCII text ``end``.  Both are
    written into one fresh buffer, never zeroed first, decoded once."""
    if _max_letter(symbols) > 9:
        raise ValueError("digit serialization supports alphabets up to size 10")
    n = len(symbols)
    out = np.empty(n + len(end), dtype=np.uint8)
    np.add(np.frombuffer(symbols, dtype=np.uint8), ord("0"), out=out[:n])
    out[n:] = np.frombuffer(end.encode("ascii"), dtype=np.uint8)
    return str(out.data, "ascii")


@dataclass(frozen=True)
class Morphism:
    """A non-erasing substitution letter -> word over {0..p-1}.

    For ``apply_raw`` the images are also held as a read-only
    ``(p, longest image)`` table, zero-padded, with a mask of the cells
    that belong to an image (None when every image has the same length).
    Both are built once, are not dataclass fields and never change, so a
    morphism is safe to share.  A fixed point reads them only through
    its post-morphism; it joins the images of a power of its morphism
    as bytes.
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

    def digits(self, end: str = "") -> str:
        """The symbols as a digit string followed by ``end`` (ASCII); a
        letter above 9 raises ValueError."""
        return _format_digits(self.symbols, end)

    def as_array(self) -> np.ndarray:
        return np.frombuffer(self.symbols, dtype=np.uint8)

    def shift(self, j: int) -> "WordPrefix":
        """Drop the first j >= 0 symbols (prefix of the shifted word)."""
        if j < 0:
            raise ValueError(f"shift must be >= 0, got {j}")
        return WordPrefix(self.alphabet_size, self.symbols[j:])

    def __repr__(self) -> str:
        # the first 32 symbols only: as digits while every letter is one,
        # as a list of letters on more than ten
        head, more = self.symbols[:32], len(self) > 32
        if self.alphabet_size <= 10:
            shown = repr(_format_digits(head) + "..." * more)
        else:
            shown = "[" + ", ".join(map(str, head)) + ", ..." * more + "]"
        return f"WordPrefix(p={self.alphabet_size}, len={len(self)}, {shown})"


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
# Joining costs a fixed time per piece: with 1 KiB pieces a 2^22-symbol
# Thue-Morse prefix is one join of 4,096 of them.
_BLOCK_MIN, _BLOCK_CAP = 1024, 4096


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
    images = [post.apply_raw(img)[:length] for img in powers]
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
    # a view again, so that slicing the letters copies none of them
    return _join_images(images, lens, memoryview(u), length)[0]


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
    that reaches ``need``; the last piece is cut to fit.
    """
    letters = letters[:-(-need // min(lens))]
    ends = np.asarray(lens)[np.frombuffer(letters, dtype=np.uint8)]
    np.cumsum(ends, out=ends)
    read = min(int(np.searchsorted(ends, need)) + 1, len(letters))
    over = int(ends[read - 1]) - need if read else 0
    pieces = _pieces(images, lens, letters[:read])
    if over > 0:
        pieces[-1] = pieces[-1][:-over]
    return b"".join(pieces), read


def _pieces(images: list, lens: list, letters: bytes) -> list:
    """The images of ``letters``, as the pieces of one join: a run of one
    repeated letter whose image is shorter than _BLOCK_MIN symbols is one
    piece, its image times the run length, and a run of letters whose
    images are one symbol long is one piece, the run translated through a
    table from each such letter to its image.  A longer image is a piece
    of its own, never copied before the join.

    Each run starts as the image of its first letter, in one pass of
    ``map``; only the runs of two letters or more are then replaced."""
    if not letters:
        return []
    arr, sizes = np.frombuffer(letters, dtype=np.uint8), np.asarray(lens)
    one, own = (sizes == 1)[arr], (sizes >= _BLOCK_MIN)[arr[1:]]
    cut = np.ones(len(arr) + 1, dtype=bool)
    cut[1:-1] = (own | (arr[1:] != arr[:-1])) & ~(one[1:] & one[:-1])
    cuts = np.flatnonzero(cut)
    pieces = list(map(images.__getitem__, arr[cuts[:-1]].tolist()))
    longer = np.flatnonzero(np.diff(cuts) > 1).tolist()
    if longer:
        table = bytes(img[0] if n == 1 else 0
                      for img, n in zip(images, lens)).ljust(256, b"\0")
        for i in longer:
            lo, hi = cuts[i:i + 2].tolist()
            pieces[i] = (bytes(letters[lo:hi]).translate(table) if one[lo]
                         else pieces[i] * (hi - lo))
    return pieces


def _characteristic_symbols(alpha: ContinuedFraction, length: int) -> bytes:
    """The first ``length`` symbols of the characteristic word of alpha,
    copied once out of the slope's cache."""
    if not length:
        return b""
    return bytes(_characteristic_word(alpha, length)[:length])


def _characteristic_word(alpha: ContinuedFraction,
                         length: int) -> Union[bytes, memoryview]:
    """The slope's grow-only cache of its characteristic word, grown
    first to at least ``length`` + 3 symbols.  Growth makes it exactly
    ``length`` + 3 symbols long, or twice its old length when that is more
    and the expansion is unbounded.  It holds only the letters 0 and 1.

    The cache is a read-only view of the buffer ``_grow_characteristic``
    filled, published without a copy (b"" before the first growth), so
    no reader can write to it: growing fills a new buffer and publishes
    a view of that."""
    need = length + 3  # some q_n > length + 2, the finite-expansion rule
    word = alpha._word[0]
    if len(word) < need:
        with _CACHE_GROWTH:
            word = alpha._word[0]
            if len(word) < need:
                # a finite expansion grows no further than asked, so it
                # asks for no term the length does not need
                want = max(need, 2 * len(word)) if alpha.is_unbounded else need
                word = alpha._word[0] = memoryview(
                    _grow_characteristic(alpha, word, want)).toreadonly()
    return word


def _grow_characteristic(alpha: ContinuedFraction,
                         word: Union[bytes, memoryview],
                         want: int) -> bytearray:
    """Extend ``word``, a prefix of the characteristic word of ``alpha``,
    to exactly ``want`` symbols.

    With s_(-1) = 1, s_0 = 0, s_1 = s_0^(a_1 - 1) s_(-1) and
    s_(i+1) = s_i^(a_(i+1)) s_(i-1), the word begins with every s_i
    (i >= 1), which has length q_i.  Below its last symbol s_(i+1)
    repeats s_i with period q_i, as s_(i-1) is a prefix of s_i for
    i >= 2 and a single symbol for i <= 1.  s_(i+1) ends as s_(i-1)
    does: in 1 when i + 1 is odd, in 0 when it is even.

    So from any length n with q_i <= n < q_(i+1), symbol j < q_(i+1) - 1
    is symbol j - d for every multiple d of q_i up to j.  Each run copies
    the largest such d symbols behind it, so runs double, into one zeroed
    buffer of ``want`` symbols (s_1 below its last symbol is all 0 and
    needs no copy); then symbol q_(i+1) - 1 is written.  Nothing past
    ``want`` is made, so a huge partial quotient costs nothing, and
    growing makes no reallocation and no temporary copy of a prefix.
    The buffer is returned as it is, to be published uncopied behind a
    read-only view.
    """
    out = bytearray(want)  # all 0, so a 0 needs no write
    n, i = len(word), 0
    with memoryview(out) as view:
        view[:n] = word  # a bytearray slice would copy word first
        while n < want:
            while _pq_at(alpha, i + 1)[1] <= n:
                i += 1
            q, last = _pq_at(alpha, i)[1], _pq_at(alpha, i + 1)[1] - 1
            end = min(last, want)
            while i and n < end:
                k = min(n - n % q, end - n)
                view[n:n + k] = view[n % q:n % q + k]
                n += k
            if last < want:
                view[last] = (i + 1) % 2
            n = last + 1
    return out


_HUBERT_BLOCK = 1 << 16
_SWAP_01 = bytes.maketrans(b"\0\1", b"\1\0")


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
    """The fixed point of the slope's parity lift where it has one (see
    ``morphic_form``); otherwise the recoding of a view of the slope's
    cached word, so the inner prefix is never copied."""
    form = _hubert_form(r)
    if form is not None:
        return _fixed_point_row(form, length)
    if not length:
        return 3, b""
    return 3, _hubert_symbols(_characteristic_word(r.slope, length)[:length])


# ---------------------------------------------------------------------------
# morphic forms.  L_a is the episturmian morphism a -> a, b -> ab (b != a).
# The characteristic word of slope [0; a1, a2, ...] is the standard
# episturmian word of directive 0^(a1-1) 1^(a2) 0^(a3) ... (Justin &
# Pirillo, TCS 276, 2002): the limit of L_d1 L_d2 ... L_dk(0).  For a
# directive with preperiod P and period Q it is Psi(u), u the fixed point
# of Phi, Phi and Psi the compositions of the L_a over Q and over P.

def _directive(alpha: ContinuedFraction):
    """The preperiod and the period of the directive of alpha's
    characteristic word as runs [letter, count], or None for a finite
    expansion.

    The directive is 0^(a1) 1^(a2) 0^(a3) ... without its first letter.
    An odd period is doubled, so that the letters of the period repeat.
    While the preperiod ends with the letter the period ends with, that
    letter moves from the end of both to the front of the period: P c^s
    (Q c^r)^w is P c^(s-t) (c^t Q c^(r-t))^w for t = min(s, r), a whole
    run at a time, so a huge term costs one step."""
    if not alpha.is_unbounded:
        return None
    pre = alpha.preperiod
    period = alpha.period * (1 + len(alpha.period) % 2)
    runs = [[j % 2, a] for j, a in enumerate(pre + period)]
    # with no preperiod the first letter is dropped from a copy of Q
    head = runs[:len(pre)] or [run.copy() for run in runs]
    tail = runs[len(pre):]
    head[0][1] -= 1
    head = [run for run in head if run[1]]
    while head and head[-1][0] == tail[-1][0]:
        c, t = head[-1][0], min(head[-1][1], tail[-1][1])
        head[-1][1] -= t
        tail[-1][1] -= t
        head = [run for run in head if run[1]]
        tail = [[c, t]] + [run for run in tail if run[1]]
    return head, tail


def _composed(runs: list) -> Union[list, None]:
    """The two images of L_c1^t1 L_c2^t2 ... over ``runs`` [c, t], or None
    when one would be longer than _BLOCK_CAP symbols.

    L_c^t sends c to c and the other letter d to c^t d.  The images'
    Parikh vectors are counted first, in Python ints, so nothing is built
    past the cap; then each run is applied to the images joined, by one
    ``Morphism.apply_raw``."""
    parikh = [[1, 0], [0, 1]]
    for c, t in reversed(runs):
        for v in parikh:
            v[c] += t * v[1 - c]
    if max(map(sum, parikh)) > _BLOCK_CAP:
        return None
    images = [b"\0", b"\1"]
    for c, t in reversed(runs):
        step = Morphism(tuple(bytes([c]) * (t * (d != c)) + bytes([d])
                              for d in (0, 1)))
        cut = len(images[0]) + t * images[0].count(1 - c)
        joined = step.apply_raw(images[0] + images[1])
        images = [joined[:cut], joined[cut:]]
    return images


def _slope_form(alpha: ContinuedFraction) -> Union[FixedPoint, None]:
    """FixedPoint(Phi, first letter of Q, post=Psi) for the directive's
    preperiod P and period Q (no post when P is empty), or None for a
    finite expansion and where an image of Phi or Psi would be longer than
    _BLOCK_CAP symbols.  Phi is prolongable on Q's first letter: every
    image of L_c starts with c, and Q holds both letters."""
    directive = _directive(alpha)
    if directive is None:
        return None
    head, tail = directive
    psi, phi = map(_composed, directive)
    if phi is None or psi is None:
        return None
    return FixedPoint(Morphism(tuple(phi)), tail[0][0],
                      Morphism(tuple(psi)) if head else None)


def _parity_lift(form: FixedPoint) -> FixedPoint:
    """The Hubert recoding of the binary word c = Psi(u) that ``form``
    gives (Psi = ``form.post``, or none), as a fixed point with a post.

    The recoding of a letter of c depends only on the parity of the 0s
    before it (Hubert, TCS 242, 2000), and that parity, for the letters of
    Psi(u_i), only on the Parikh vector mod 2 of u[:i].  So the lifted
    letters are the pairs (b, v) of a letter of u and the parity vector v
    of the prefix before it, coded 4b + 2v_0 + v_1, and Phi lifts to the
    morphism (b, v) -> the letters of Phi(b), each paired with v M + the
    parity vector of the part of Phi(b) before it, where M maps a parity
    vector of u[:i] to that of Phi(u[:i]).  The post sends (b, v) to
    Psi(b) recoded from the parity of the 0s of Psi(u[:i]).  Only the
    letters reachable from (seed, 0) are kept, numbered in code order."""
    phi = form.morphism.images
    psi = form.post.images if form.post else (b"\0", b"\1")

    def start(images, code):  # the parity vector of images[b] over v_b
        v = (code >> 1 & 1, code & 1)
        return [(v[0] * images[0].count(a) + v[1] * images[1].count(a)) & 1
                for a in (0, 1)]

    def coded(img):  # 4b + 2 (0s before b) + (1s before b), both mod 2
        arr = np.frombuffer(img, dtype=np.uint8)
        zeros = np.cumsum(arr == 0) - (arr == 0)
        ones = np.arange(len(arr)) - zeros
        return (4 * arr + 2 * (zeros & 1) + (ones & 1)).astype(np.uint8)

    # a start flips the parity bits of every letter of the image, and the
    # phase of the Hubert letters
    coded_phi = list(map(coded, phi))
    recoded_psi = list(map(_hubert_symbols, psi))

    def lifted(code):
        v = start(phi, code)
        return (coded_phi[code >> 2] ^ np.uint8(2 * v[0] + v[1])).tobytes()

    def recoded(code):
        img = recoded_psi[code >> 2]
        return img.translate(_SWAP_01) if start(psi, code)[0] else img

    seed = 4 * form.seed
    images, todo = {}, {seed}
    while todo:
        new = {code: lifted(code) for code in todo}
        images.update(new)
        todo = set(b"".join(new.values())) - images.keys()
    letters = sorted(images)
    number = bytes.maketrans(bytes(letters), bytes(range(len(letters))))
    return FixedPoint(
        Morphism(tuple(images[code].translate(number) for code in letters)),
        letters.index(seed), Morphism(tuple(map(recoded, letters))))


def _hubert_form(r: Hubert) -> Union[FixedPoint, None]:
    form = _slope_form(r.slope)
    return None if form is None else _parity_lift(form)


def _champernowne_symbols(length: int) -> bytes:
    """One block per bit length b: the numbers 2^(b-1)..2^b-1 (and 0 for
    b = 1), only as many as the prefix needs, written as rows of b bits
    by one unpackbits of their big-endian bytes, shifted so that the b
    bits lead.  The symbol budget keeps b far below 32.  The last block
    is cut to fit and the blocks are joined once."""
    blocks = []
    total, b = 0, 1
    while total < length:
        lo = 0 if b == 1 else 1 << (b - 1)
        count = min((1 << b) - lo, -(-(length - total) // b))
        nums = np.arange(lo, lo + count, dtype=np.uint32) << np.uint32(32 - b)
        rows = nums.astype(">u4").view(np.uint8).reshape(count, 4)
        blocks.append(np.unpackbits(rows, axis=1, count=b).reshape(-1))
        total += count * b
        b += 1
    if total > length:
        blocks[-1] = blocks[-1][:length - total]
    return b"".join(blocks)


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


def _hubert_complete(r: Hubert, n: int):
    """The bound of the parity lift's fixed point, where the slope has a
    morphic form (see ``_fixed_point_complete``)."""
    form = _hubert_form(r)
    return None if form is None else _fixed_point_complete(form, n)


def _no_bound(r, n):
    return None


def _no_form(r):
    return None


# One row per kind: its class, its wire name, ``dump`` (the wire fields
# after ``kind``, in wire order, an absent optional field as None),
# ``parse`` (from a wire dict), ``generate`` ((recipe, length) to
# (alphabet size, symbols), for a length prefix_of has checked),
# ``complete`` (recipe, n) and ``form`` (recipe, to its morphic form or
# None).  ``dump`` and ``parse`` handle one level: a literal-prepend's
# ``inner`` is dumped and parsed by recipe_to_dict and recipe_from_dict,
# which loop over the nested levels.
_Kind = namedtuple("_Kind", "cls name dump parse generate complete form")
_KINDS = (
    _Kind(FixedPoint, "fixed-point",
          lambda r: {"morphism": r.morphism.to_strings(), "seed": str(r.seed),
                     "post": r.post.to_strings() if r.post else None},
          lambda d: FixedPoint(
              Morphism.from_strings(d["morphism"]), _parse_letter(d["seed"]),
              Morphism.from_strings(d["post"]) if "post" in d else None),
          _fixed_point_row, _fixed_point_complete, lambda r: r),
    _Kind(Characteristic, "characteristic",
          lambda r: {"slope": r.slope.to_dict()},
          lambda d: Characteristic(ContinuedFraction.from_dict(d["slope"])),
          lambda r, n: (2, _characteristic_symbols(r.slope, n)),
          _characteristic_complete, lambda r: _slope_form(r.slope)),
    _Kind(Periodic, "periodic", lambda r: {"pattern": _format_digits(r.pattern)},
          lambda d: Periodic(_parse_digits(d["pattern"])), _periodic_row,
          lambda r, n: CompletePrefix(len(r.pattern) + n - 1,
                                      {"period": len(r.pattern)}),
          _no_form),
    _Kind(Explicit, "explicit",
          lambda r: {"symbols": _format_digits(r.symbols),
                     "alphabet_size": r.alphabet_size},
          lambda d: Explicit(_parse_digits(d["symbols"]),
                             _wire_alphabet_size(d)
                             if "alphabet_size" in d else None),
          _explicit_row, _no_bound, _no_form),
    _Kind(Champernowne, "champernowne",
          lambda r: {}, lambda d: Champernowne(),
          lambda r, n: (2, _champernowne_symbols(n)), _no_bound, _no_form),
    _Kind(MaxComplexity, "max-complexity",
          lambda r: {}, lambda d: MaxComplexity(),
          lambda r, n: (2, _max_complexity_symbols(n)), _no_bound,
          _no_form),
    _Kind(Hubert, "hubert", lambda r: {"slope": r.slope.to_dict()},
          lambda d: Hubert(ContinuedFraction.from_dict(d["slope"])),
          _hubert_row, _hubert_complete, _hubert_form),
    _Kind(LiteralPrepend, "literal-prepend",
          lambda r: {"prefix": _format_digits(r.prefix), "inner": r.inner},
          lambda d: LiteralPrepend(_parse_digits(d["prefix"]), d["inner"]),
          _prepend_row, _prepend_complete, _no_form),
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
    known (explicit, Champernowne and max-complexity recipes, morphisms
    that are not primitive or not prolongable, rational slopes, and Hubert
    recipes without a morphic form or whose lift is not primitive).

    Fixed points of primitive morphisms use their linear recurrence
    (Durand, ETDS 2000), and Hubert recipes that of their morphic form,
    the parity lift (see ``morphic_form``); characteristic words use the
    Sturmian recurrence function (Morse & Hedlund 1940), periodic words
    |pattern| + n - 1.  For n < 1 the empty prefix holds the one factor,
    the empty word.
    """
    if n < 1:
        return CompletePrefix(0, {})
    return _kind_of(recipe).complete(recipe, n)


def morphic_form(recipe: WordRecipe) -> Union[FixedPoint, None]:
    """The word of ``recipe`` as a fixed point with a post-morphism, or
    None where none is built.

    A fixed point is its own form.  The characteristic word of an
    eventually periodic slope is Psi(fixed point of Phi), Phi and Psi the
    compositions of the episturmian morphisms L_a over the period and the
    preperiod of its directive (no post when the preperiod is empty), and
    a Hubert word is the fixed point of that form's parity lift, whose
    post writes the Hubert letters.  None for every other kind, for a
    finite expansion, and where an image of Phi or Psi would be longer
    than the power images of a fixed point grow (4096 symbols): that is
    decided from the lengths alone, before anything is built.
    """
    return _kind_of(recipe).form(recipe)


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
