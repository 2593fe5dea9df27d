"""Unit tests for repro.workloads.strings."""

import hashlib

import pytest

from repro.errors import ExperimentError
from repro.storage.types import CharType
from repro.workloads.strings import (comment_strings, distinct_strings,
                                     fixed_length_strings, prefixed_names,
                                     zero_padded_ids)


class TestDistinctStrings:
    def test_count_and_distinctness(self):
        values = distinct_strings(500, 20, seed=1)
        assert len(values) == 500
        assert len(set(values)) == 500

    def test_all_fit_the_column(self):
        dtype = CharType(20)
        for value in distinct_strings(100, 20, seed=2):
            dtype.validate(value)

    def test_length_range_respected(self):
        values = distinct_strings(200, 20, min_len=5, max_len=10, seed=3)
        assert all(5 <= len(v) <= 10 for v in values)

    def test_no_trailing_blanks(self):
        values = distinct_strings(100, 20, seed=4)
        assert all(v == v.rstrip(" ") for v in values)

    def test_too_many_for_width_rejected(self):
        with pytest.raises(ExperimentError):
            distinct_strings(37, 1)

    def test_empty_range_rejected(self):
        with pytest.raises(ExperimentError):
            distinct_strings(10, 20, min_len=15, max_len=5)

    def test_reproducible(self):
        assert distinct_strings(50, 16, seed=7) == \
            distinct_strings(50, 16, seed=7)

    @pytest.mark.parametrize("args, kwargs, digest", [
        # customer_names' shape
        ((5000, 40), dict(min_len=5, max_len=18, seed=11),
         "308fad79e42c11281c37890a0c9a9b8e4fe389c4d4084ac4d0c60b955abb7836"),
        # the id width is 1 at d = 36 and 2 at d = 37
        ((36, 8), dict(seed=3),
         "71e415a3b8c9e901800520673c934620b7a6e9edbd97ac8d41779ad5e54d28b8"),
        ((37, 8), dict(seed=3),
         "4038746ce1eec781afb17fe425cc063834df635f88707b1130e660bda216e970"),
        ((300, 12), dict(min_len=7, max_len=7, seed=5),
         "005926d93f52b9df2e06aa2fcd8e496790416c62dbf9482b21c6dee7a3a298cf"),
        # ids fill the column: every filler is empty
        ((1296, 2), dict(seed=9),
         "39cd4bf2ac389614351460383a7f19409faef9a4e42ed43a4bec06696082129a"),
        ((1297, 20), dict(min_len=1, max_len=20, seed=13),
         "89d51c20e08285b0dd5c69945494b17a3b2471117de2b9a797d18f2f2646b135"),
        ((1, 1), dict(seed=0),
         "5feceb66ffc86f38d952786c6d696c79c2dbc239dd4e91b46729d73a27fb57e9"),
        ((20000, 20), dict(min_len=4, max_len=16, seed=2026),
         "5c828948597246d417fc539c67004f03465a42b4fceca6bd8e2e9c28af3fa7fc"),
    ])
    def test_values_are_pinned(self, args, kwargs, digest):
        """Seeded workloads are built from these values, so they must
        not move: SHA-256 digests of the joined output."""
        joined = "\n".join(distinct_strings(*args, **kwargs))
        assert hashlib.sha256(joined.encode()).hexdigest() == digest


class TestFixedLengthStrings:
    def test_exact_length(self):
        values = fixed_length_strings(100, 20, 12)
        assert all(len(v) == 12 for v in values)
        assert len(set(values)) == 100

    def test_length_bounds(self):
        with pytest.raises(ExperimentError):
            fixed_length_strings(10, 20, 0)
        with pytest.raises(ExperimentError):
            fixed_length_strings(10, 20, 25)

    def test_too_short_for_ids_rejected(self):
        with pytest.raises(ExperimentError):
            fixed_length_strings(10_000, 20, 2)

    def test_values_are_pinned(self):
        joined = "\n".join(fixed_length_strings(1297, 20, 12))
        assert hashlib.sha256(joined.encode()).hexdigest() == \
            "6d7d67bd2d631db938f7c9810c7813bd5299765fe8be49d9a3a2ca4fc09bbc10"


class TestZeroPaddedIds:
    def test_shape(self):
        values = zero_padded_ids(100, 20, width=12)
        assert all(len(v) == 12 for v in values)
        assert values[5] == "000000000005"
        assert len(set(values)) == 100

    def test_leading_zero_runs_exist(self):
        values = zero_padded_ids(10, 20, width=12)
        assert all(v.startswith("0" * 8) for v in values)

    def test_default_width_is_k(self):
        values = zero_padded_ids(5, 8)
        assert all(len(v) == 8 for v in values)

    def test_validation(self):
        with pytest.raises(ExperimentError):
            zero_padded_ids(1000, 20, width=2)
        with pytest.raises(ExperimentError):
            zero_padded_ids(5, 8, width=9)


class TestPrefixedNames:
    def test_common_prefix(self):
        values = prefixed_names(50, 24, prefix="SKU-")
        assert all(v.startswith("SKU-") for v in values)
        assert len(set(values)) == 50

    def test_values_are_pinned(self):
        values = prefixed_names(50, 24, prefix="SKU-")
        assert values[:3] == ["SKU-00", "SKU-01", "SKU-02"]
        assert values[-1] == "SKU-1d"
        assert hashlib.sha256("\n".join(values).encode()).hexdigest() == \
            "e5b9754ab20b96e61d0a56d50df76d1153fe64890d20eaa725d1d8247663d58a"

    def test_prefix_too_long_rejected(self):
        with pytest.raises(ExperimentError):
            prefixed_names(100, 8, prefix="WAREHOUSE-")


class TestCommentStrings:
    def test_distinct_and_fitting(self):
        dtype = CharType(60)
        values = comment_strings(200, 60, seed=5)
        assert len(set(values)) == 200
        for value in values:
            dtype.validate(value)

    def test_interior_blanks_no_trailing(self):
        values = comment_strings(100, 60, seed=6)
        assert any(" " in v for v in values)
        assert all(v == v.rstrip(" ") for v in values)

    def test_values_are_pinned(self):
        """Pins the generator state ``distinct_strings`` leaves behind,
        which the word draws continue from."""
        joined = "\n".join(comment_strings(200, 60, seed=5))
        assert hashlib.sha256(joined.encode()).hexdigest() == \
            "624958eb79e4ef70fe9108f821bf5039f9a1fd6b3fdefa222877b792189d0e95"

    def test_bad_word_length(self):
        with pytest.raises(ExperimentError):
            comment_strings(10, 10, word_length=10)
