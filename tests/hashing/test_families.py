"""Unit tests for the hash families."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.hashing import (
    CarterWegmanHash,
    MultiplyShiftHash,
    SignHash,
    make_hash_family,
)
from repro.hashing.families import (
    MERSENNE_PRIME_61,
    cw_fold_columns,
    key_to_int,
)

ALL_FAMILIES = ["carter-wegman", "tabulation"]


class TestKeyToInt:
    def test_zigzag_values(self):
        assert key_to_int(0) == 0
        assert key_to_int(1) == 2
        assert key_to_int(-1) == 1
        assert key_to_int(12345) == 24690

    def test_mixed_sign_ints_map_injectively(self):
        values = [key_to_int(v) for v in range(-100, 101)]
        assert len(set(values)) == len(values)

    def test_negative_ints_are_non_negative(self):
        assert key_to_int(-1) >= 0
        assert key_to_int(-(10**12)) >= 0

    def test_numpy_integers_match_python_ints(self):
        assert key_to_int(np.int64(42)) == key_to_int(42)

    def test_strings_fold_to_61_bits(self):
        assert 0 <= key_to_int("hello") < MERSENNE_PRIME_61

    def test_encode_key_array_matches_scalar(self):
        from repro.hashing.families import encode_key_array

        keys = np.array([-5, -1, 0, 1, 7, 2**40], dtype=np.int64)
        np.testing.assert_array_equal(
            encode_key_array(keys),
            np.array([key_to_int(int(k)) for k in keys]),
        )


class TestRangeAndDeterminism:
    @pytest.mark.parametrize("name", ALL_FAMILIES)
    def test_output_in_range(self, name):
        family = make_hash_family(name, 97, seed=5)
        for key in range(1000):
            assert 0 <= family(key) < 97

    @pytest.mark.parametrize("name", ALL_FAMILIES)
    def test_same_seed_same_function(self, name):
        first = make_hash_family(name, 128, seed=9)
        second = make_hash_family(name, 128, seed=9)
        keys = list(range(500))
        assert [first(k) for k in keys] == [second(k) for k in keys]

    @pytest.mark.parametrize("name", ALL_FAMILIES)
    def test_different_seed_different_function(self, name):
        first = make_hash_family(name, 1 << 16, seed=1)
        second = make_hash_family(name, 1 << 16, seed=2)
        keys = list(range(200))
        assert [first(k) for k in keys] != [second(k) for k in keys]

    def test_multiply_shift_range(self):
        family = MultiplyShiftHash(256, seed=3)
        for key in range(2000):
            assert 0 <= family(key) < 256

    def test_multiply_shift_rejects_non_power_of_two(self):
        with pytest.raises(ConfigurationError):
            MultiplyShiftHash(100, seed=0)

    def test_zero_range_rejected(self):
        with pytest.raises(ConfigurationError):
            CarterWegmanHash(0, seed=0)

    def test_unknown_family_rejected(self):
        with pytest.raises(ConfigurationError):
            make_hash_family("md5", 10, seed=0)


class TestVectorisedAgreement:
    @pytest.mark.parametrize("name", ALL_FAMILIES)
    def test_hash_array_matches_scalar(self, name, rng):
        family = make_hash_family(name, 4084, seed=11)
        keys = rng.integers(0, 2**31 - 1, size=3000)
        vectorised = family.hash_array(keys)
        scalar = np.array([family(int(k)) for k in keys])
        np.testing.assert_array_equal(vectorised, scalar)

    def test_carter_wegman_large_keys_fallback(self):
        family = CarterWegmanHash(1009, seed=2)
        keys = np.array([2**40, 2**50, 2**33 + 7], dtype=np.int64)
        vectorised = family.hash_array(keys)
        scalar = np.array([family(int(k)) for k in keys])
        np.testing.assert_array_equal(vectorised, scalar)

    def test_carter_wegman_negative_and_far_keys(self):
        # The fold serves only keys in [0, 2**31); everything else must
        # take the exact path, including small negative keys (whose
        # uint64 view is not the key) and keys far below -2**31 (whose
        # int64 products would overflow).
        family = CarterWegmanHash(4084, seed=3)
        keys = [
            -1, -5, -(2**31) + 1, -(2**31), -(2**31) - 1, -(2**40),
            -(2**62), 2**31, 2**40, 2**62, 0, 2**31 - 1,
        ]
        for batch in ([k] for k in keys):
            assert family.hash_array(np.array(batch)).tolist() == [
                family(k) for k in batch
            ]
        np.testing.assert_array_equal(
            family.hash_array(np.array(keys, dtype=np.int64)),
            np.array([family(k) for k in keys]),
        )

    @pytest.mark.parametrize("width", [1, 2, 1012, 4084, 2**30])
    def test_fold_at_its_bounds_matches_big_int(self, width):
        # a = b = p - 1 and the largest key put the unreduced uint64
        # sum at its maximum; Python ints are the exact reference.
        a = b = MERSENNE_PRIME_61 - 1
        keys = np.array([0, 1, 2**31 - 1], dtype=np.int64)
        folded = cw_fold_columns(a >> 31, a & (2**31 - 1), b, keys, width)
        assert folded.dtype == np.int64
        assert folded.tolist() == [
            ((a * x + b) % MERSENNE_PRIME_61) % width for x in keys.tolist()
        ]

    def test_multiply_shift_array_matches_scalar(self, rng):
        family = MultiplyShiftHash(1 << 12, seed=8)
        keys = rng.integers(0, 2**31 - 1, size=2000)
        np.testing.assert_array_equal(
            family.hash_array(keys),
            np.array([family(int(k)) for k in keys]),
        )


class TestDistributionQuality:
    @pytest.mark.parametrize("name", ALL_FAMILIES)
    def test_buckets_roughly_uniform(self, name, rng):
        buckets = 64
        family = make_hash_family(name, buckets, seed=21)
        keys = rng.integers(0, 2**30, size=64_000)
        counts = np.bincount(family.hash_array(keys), minlength=buckets)
        expected = len(keys) / buckets
        # Chi-square-ish sanity bound: no bucket deviates more than 25%.
        assert counts.min() > expected * 0.75
        assert counts.max() < expected * 1.25

    def test_pairwise_collision_rate(self, rng):
        """Collision probability of random key pairs is ~1/range."""
        output_range = 512
        family = CarterWegmanHash(output_range, seed=13)
        pairs = rng.integers(0, 2**30, size=(20_000, 2))
        pairs = pairs[pairs[:, 0] != pairs[:, 1]]
        left = family.hash_array(pairs[:, 0])
        right = family.hash_array(pairs[:, 1])
        rate = float((left == right).mean())
        assert rate < 2.5 / output_range


class TestSignHash:
    def test_values_are_plus_minus_one(self):
        sign = SignHash(seed=4)
        values = {sign(key) for key in range(500)}
        assert values == {-1, 1}

    def test_roughly_balanced(self, rng):
        sign = SignHash(seed=6)
        keys = rng.integers(0, 2**30, size=20_000)
        mean = float(sign.hash_array(keys).mean())
        assert abs(mean) < 0.05

    def test_array_matches_scalar(self, rng):
        sign = SignHash(seed=10)
        keys = rng.integers(0, 2**30, size=1000)
        np.testing.assert_array_equal(
            sign.hash_array(keys), np.array([sign(int(k)) for k in keys])
        )
