"""Generators of distinct CHAR(k) values with controlled lengths.

Null suppression's CF is entirely determined by the distribution of
null-suppressed lengths ``l_i``, so experiments need precise length
control; dictionary compression cares only about distinctness. Every
generator guarantees pairwise-distinct values whose stripped length
equals the requested target (no accidental trailing blanks).
"""

from __future__ import annotations

import string

import numpy as np

from repro.errors import ExperimentError
from repro.sampling.rng import SeedLike, make_rng

_ALPHABET = string.ascii_lowercase
_BASE36 = string.digits + string.ascii_lowercase
_ALPHABET_CODES = np.frombuffer(_ALPHABET.encode("ascii"), dtype=np.uint8)
_BASE36_CODES = np.frombuffer(_BASE36.encode("ascii"), dtype=np.uint8)


def _base36_codes(d: int, width: int) -> np.ndarray:
    """ASCII codes of the fixed-width base-36 ids ``0 .. d - 1``.

    One row per id, most significant digit first: ``width`` divmod
    passes over all ids at once. ``width`` must be at least
    :func:`_id_width` of ``d``.
    """
    codes = np.empty((d, width), dtype=np.uint8)
    value = np.arange(d)
    for position in range(width - 1, -1, -1):
        value, digit = np.divmod(value, 36)
        codes[:, position] = _BASE36_CODES[digit]
    return codes


def _base36_ids(d: int, width: int) -> list[str]:
    """The ids of :func:`_base36_codes` as strings."""
    text = _base36_codes(d, width).tobytes().decode("ascii")
    return [text[start:start + width]
            for start in range(0, d * width, width)]


def _id_width(d: int) -> int:
    """Base-36 digits needed to give ``d`` values distinct ids."""
    width = 1
    capacity = 36
    while capacity < d:
        width += 1
        capacity *= 36
    return width


def distinct_strings(d: int, k: int, min_len: int | None = None,
                     max_len: int | None = None,
                     seed: SeedLike = None) -> list[str]:
    """``d`` distinct strings with stripped lengths uniform in a range.

    Each value is a unique base-36 id followed by random letters up to
    its target length; the last character is never a blank, so the
    null-suppressed length is exactly the target.
    """
    if d <= 0 or k <= 0:
        raise ExperimentError(f"need positive d and k, got d={d}, k={k}")
    width = _id_width(d)
    if width > k:
        raise ExperimentError(
            f"{d} distinct values need {width} id characters, but k={k}")
    low = max(width, min_len if min_len is not None else width)
    high = min(k, max_len if max_len is not None else k)
    if low > high:
        raise ExperimentError(
            f"empty length range [{low}, {high}] for d={d}, k={k}")
    rng = make_rng(seed)
    targets = rng.integers(low, high + 1, size=d)
    # One letter per character, ids included, though ids use none: the
    # draw count fixes the generator's state for the caller's next draw.
    letters = rng.integers(0, len(_ALPHABET), size=int(targets.sum()))
    # All values laid end to end: value i's id, then its filler. The
    # fillers take consecutive letters, value after value, so the
    # non-id positions in order take the first letters drawn.
    ends = np.cumsum(targets)
    starts = ends - targets
    chars = np.empty(int(ends[-1]), dtype=np.uint8)
    id_positions = starts[:, None] + np.arange(width)
    chars[id_positions] = _base36_codes(d, width)
    filler = np.ones(len(chars), dtype=bool)
    filler[id_positions] = False
    chars[filler] = _ALPHABET_CODES[letters[:len(chars) - d * width]]
    text = chars.tobytes().decode("ascii")
    return [text[start:end]
            for start, end in zip(starts.tolist(), ends.tolist())]


def fixed_length_strings(d: int, k: int, length: int) -> list[str]:
    """``d`` distinct strings, all with stripped length ``length``."""
    if not 0 < length <= k:
        raise ExperimentError(
            f"length must be in [1, {k}], got {length}")
    width = _id_width(d)
    if width > length:
        raise ExperimentError(
            f"{d} distinct values need {width} characters, length={length}")
    filler = "z" * (length - width)
    return [value + filler for value in _base36_ids(d, width)]


def zero_padded_ids(d: int, k: int, width: int | None = None) -> list[str]:
    """Zero-padded numeric identifiers, e.g. ``"00000000123"``.

    The motivating case for the run-based NS variant (Figure 1.a shows a
    zero run being suppressed): trailing-blank NS saves nothing here,
    run NS collapses the leading zeros.
    """
    if width is None:
        width = k
    if not 0 < width <= k:
        raise ExperimentError(f"width must be in [1, {k}], got {width}")
    digits = len(str(d - 1)) if d > 1 else 1
    if digits > width:
        raise ExperimentError(
            f"{d} ids need {digits} digits, width is {width}")
    return [str(i).zfill(width) for i in range(d)]


def prefixed_names(d: int, k: int, prefix: str = "SKU-") -> list[str]:
    """Values sharing a long common prefix, e.g. product SKUs.

    The showcase for per-page prefix compression: the shared prefix is
    factored out once per page.
    """
    width = _id_width(d)
    if len(prefix) + width > k:
        raise ExperimentError(
            f"prefix {prefix!r} plus {width} id characters exceed k={k}")
    return [prefix + value for value in _base36_ids(d, width)]


def comment_strings(d: int, k: int, seed: SeedLike = None,
                    word_length: int = 5) -> list[str]:
    """Pseudo-text comments: space-separated words, varied lengths.

    Models the free-text columns (order comments, descriptions) that
    motivate null suppression in warehouses: wide CHAR columns whose
    values use a fraction of their width. Interior blanks exist but the
    values never *end* with a blank.
    """
    if word_length <= 0 or word_length >= k:
        raise ExperimentError(
            f"word length must be in [1, {k - 1}], got {word_length}")
    rng = make_rng(seed)
    base = distinct_strings(d, word_length, min_len=word_length,
                            max_len=word_length, seed=rng)
    values: list[str] = []
    for index in range(d):
        words = [base[index]]
        budget = int(rng.integers(word_length, k + 1))
        while len(" ".join(words)) + 1 + word_length <= budget:
            extra = int(rng.integers(0, d))
            words.append(base[extra])
        values.append(" ".join(words))
    return values
