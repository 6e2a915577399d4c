import random

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import chi_square_critical, chi_square_stat
from blindsigncrypt.crypto_suite import (
    derive_keys,
    get_suite,
    hash_to_scalar,
    keyed_hash_to_scalar,
    kh_preimage,
    std_suite,
    toy_suite,
)


class TestDeriveKeys:
    def test_deterministic(self, suite):
        assert derive_keys(6, suite) == derive_keys(6, suite)

    def test_distinct_inputs_distinct_keys(self, stub_suite):
        assert derive_keys(6, stub_suite).k1 != derive_keys(9, stub_suite).k1

    def test_key_lengths(self, suite):
        keys = derive_keys(12345, suite)
        assert len(keys.k1) == 32
        assert len(keys.k2) == 32

    def test_domain_separation(self, suite):
        # the shared->k1 and shared->k2 maps never touch each other's range
        rng = random.Random(11)
        k1s, k2s = set(), set()
        for _ in range(10_000):
            keys = derive_keys(rng.getrandbits(256), suite)
            assert keys.k1 != keys.k2
            k1s.add(keys.k1)
            k2s.add(keys.k2)
        assert not k1s & k2s


class TestHashToScalar:
    def test_deterministic(self, suite):
        assert hash_to_scalar(b"abc", 11, suite) == hash_to_scalar(b"abc", 11, suite)

    @given(st.binary(max_size=128))
    @settings(max_examples=200)
    def test_range(self, data):
        assert 0 <= hash_to_scalar(data, 11, std_suite()) < 11

    def test_near_uniform(self, suite):
        rng = random.Random(5)
        counts = [0] * 11
        n = 10_000
        for _ in range(n):
            counts[hash_to_scalar(rng.randbytes(16), 11, suite)] += 1
        assert chi_square_stat(counts, n / 11) <= chi_square_critical(10, alpha=0.01)

    def test_keyed_variant_depends_on_all_inputs(self, suite):
        base = keyed_hash_to_scalar(b"k" * 32, b"m", b"b", 10**9 + 7, suite)
        assert keyed_hash_to_scalar(b"j" * 32, b"m", b"b", 10**9 + 7, suite) != base
        assert keyed_hash_to_scalar(b"k" * 32, b"n", b"b", 10**9 + 7, suite) != base
        assert keyed_hash_to_scalar(b"k" * 32, b"m", b"c", 10**9 + 7, suite) != base

    def test_preimage_is_injective_on_boundary(self):
        # message/bind_info split is length-tagged, so shifting the boundary
        # changes the preimage
        assert kh_preimage(b"ab", b"c") != kh_preimage(b"a", b"bc")


class TestToySuite:
    def test_hash_stub_honored(self, stub_suite):
        stub_suite.stub_hash(b"pinned", 7)
        assert hash_to_scalar(b"pinned", 16, stub_suite) == 7
        # unpinned input falls back to the real hash
        assert hash_to_scalar(b"other", 16, stub_suite) == hash_to_scalar(
            b"other", 16, std_suite())

    def test_keyed_hash_stub_honored(self, stub_suite):
        stub_suite.stub_keyed_hash(b"key", b"msg", 7)
        assert stub_suite.keyed_hash(b"key", b"msg") == (7).to_bytes(32, "big")

    def test_cipher_roundtrip(self, stub_suite):
        keys = derive_keys(6, stub_suite)
        ct = stub_suite.cipher_encrypt(keys.k1, b"hello")
        assert stub_suite.cipher_encrypt(keys.k1, ct) == b"hello"

    def test_wrong_key_garbles(self, stub_suite):
        rng = random.Random(3)
        for _ in range(100):
            k1 = rng.randbytes(32)
            k1_other = rng.randbytes(32)
            ct = stub_suite.cipher_encrypt(k1, b"hello")
            assert stub_suite.cipher_encrypt(k1_other, ct) != b"hello"


class TestCipher:
    @given(st.binary(max_size=4096))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_any_length(self, m):
        suite = std_suite()
        key = b"\x42" * 32
        assert suite.cipher_encrypt(key, suite.cipher_encrypt(key, m)) == m

    def test_boundary_lengths(self, suite):
        key = b"\x01" * 32
        for n in (0, 1, 31, 32, 33, 4095, 4096):
            m = bytes(range(256)) * (n // 256 + 1)
            m = m[:n]
            assert suite.cipher_encrypt(key, suite.cipher_encrypt(key, m)) == m

    def test_keyed_hash_deterministic(self, suite):
        assert suite.keyed_hash(b"k", b"m") == suite.keyed_hash(b"k", b"m")


class TestRegistry:
    def test_lookup(self):
        assert get_suite("std-v1").suite_id == "std-v1"
        assert get_suite("toy-v1").suite_id == "toy-v1"

    def test_unknown(self):
        import pytest

        with pytest.raises(KeyError):
            get_suite("nope-v9")
