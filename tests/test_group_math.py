import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    BrokenRng,
    ScriptRng,
    chi_square_critical,
    chi_square_stat,
    egcd_inverse,
    naive_modexp,
)
from blindsigncrypt.errors import (
    BadGenerator,
    GenerationTimeout,
    NotPrime,
    OrderMismatch,
    RngFailure,
    ZeroInverse,
)
from blindsigncrypt.group_math import (
    TOY23,
    count_exponentiations,
    generate_params,
    int_from_bytes,
    int_to_bytes,
    is_probable_prime,
    modexp,
    modinv,
    named_params,
    rand_scalar,
    rand_scalar_nonzero,
    validate_params,
)

SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
                59, 61, 67, 71, 73, 79, 83, 89, 97]


class TestModexp:
    def test_worked_examples(self):
        assert modexp(2, 11, 23) == 1
        assert modexp(8, 5, 23) == 16

    def test_zero_exponent(self):
        assert modexp(TOY23.g, 0, TOY23.p) == 1

    def test_matches_naive_oracle_exhaustively(self):
        # every base and exponent, for every prime modulus up to 97
        for p in SMALL_PRIMES:
            for base in range(1, p):
                for exp in range(0, p + 1):
                    assert modexp(base, exp, p) == naive_modexp(base, exp, p)

    def test_subgroup_closure(self, toy):
        for k in range(toy.q):
            e = modexp(toy.g, k, toy.p)
            assert modexp(e, toy.q, toy.p) == 1

    def test_counter_counts_only_inside_block(self):
        modexp(2, 3, 23)
        with count_exponentiations() as c:
            modexp(2, 3, 23)
            modexp(3, 4, 23)
        assert c.count == 2
        modexp(2, 3, 23)
        assert c.count == 2

    def test_nested_counters(self):
        with count_exponentiations() as outer:
            modexp(2, 3, 23)
            with count_exponentiations() as inner:
                modexp(2, 3, 23)
        assert (outer.count, inner.count) == (2, 1)


class TestModinv:
    def test_worked_examples(self):
        assert modinv(10, 11) == 10
        assert modinv(1, 11) == 1

    def test_zero_raises(self):
        with pytest.raises(ZeroInverse):
            modinv(0, 11)
        with pytest.raises(ZeroInverse):
            modinv(22, 11)

    def test_matches_euclid_oracle(self):
        for q in (11, 101, 257):
            for a in range(1, q):
                assert modinv(a, q) == egcd_inverse(a, q)

    @given(st.integers(min_value=1, max_value=10**40))
    def test_inverse_property(self, a):
        q = 2**89 - 1  # prime
        if a % q == 0:
            return
        assert a * modinv(a, q) % q == 1


class TestRandScalar:
    def test_range_contract(self):
        rng = random.Random(7)
        for _ in range(1000):
            v = rand_scalar_nonzero(rng, 11)
            assert 1 <= v <= 10

    def test_seeded_determinism(self):
        a = [rand_scalar_nonzero(random.Random(5), 11) for _ in range(3)]
        b = [rand_scalar_nonzero(random.Random(5), 11) for _ in range(3)]
        assert a[0] == b[0]

    def test_zero_draw_resampled(self):
        rng = ScriptRng([0, 0, 5])
        assert rand_scalar_nonzero(rng, 11) == 5

    def test_uniformity_chi_square(self):
        rng = random.Random(99)
        counts = [0] * 10
        n = 10_000
        for _ in range(n):
            counts[rand_scalar_nonzero(rng, 11) - 1] += 1
        stat = chi_square_stat(counts, n / 10)
        assert stat <= chi_square_critical(9, alpha=0.01)

    def test_broken_rng(self):
        with pytest.raises(RngFailure):
            rand_scalar(BrokenRng(), 11)
        with pytest.raises(RngFailure):
            rand_scalar_nonzero(BrokenRng(), 11)


class TestValidateParams:
    def test_toy_ok(self):
        params = validate_params((23, 11, 2))
        assert (params.p, params.q, params.g) == (23, 11, 2)

    def test_identity_generator(self):
        with pytest.raises(BadGenerator):
            validate_params((23, 11, 1))

    def test_composite_p(self):
        with pytest.raises(NotPrime) as exc:
            validate_params((24, 11, 2))
        assert exc.value.which == "p"

    def test_composite_q(self):
        with pytest.raises(NotPrime) as exc:
            validate_params((23, 22, 2))
        assert exc.value.which == "q"

    def test_order_mismatch(self):
        with pytest.raises(OrderMismatch):
            validate_params((23, 7, 2))

    def test_wrong_order_generator(self):
        # 5 is not a quadratic residue mod 23, so 5^11 = -1 mod 23
        with pytest.raises(BadGenerator):
            validate_params((23, 11, 5))

    def test_generator_out_of_range(self):
        with pytest.raises(BadGenerator):
            validate_params((23, 11, 0))
        with pytest.raises(BadGenerator):
            validate_params((23, 11, 23))


class TestGenerateParams:
    def test_small_params_validate(self):
        params = generate_params(16, 8, random.Random(1))
        validate_params((params.p, params.q, params.g))
        assert params.p.bit_length() == 16
        assert params.q.bit_length() == 8

    def test_precondition_violations(self):
        with pytest.raises(ValueError):
            generate_params(8, 16, random.Random(1))
        with pytest.raises(ValueError):
            generate_params(16, 7, random.Random(1))

    def test_deterministic_under_seed(self):
        a = generate_params(24, 8, random.Random(4))
        b = generate_params(24, 8, random.Random(4))
        assert a == b

    def test_timeout_on_exhausted_budget(self):
        # single try landing on 129 = 3 * 43: no prime found
        rng = ScriptRng([129], fallback_seed=0)
        with pytest.raises(GenerationTimeout):
            generate_params(16, 8, rng, max_tries=1)

    def test_desk_scale_within_budget(self):
        import time

        start = time.monotonic()
        params = generate_params(512, 160, random.Random(2))
        assert time.monotonic() - start < 10.0
        validate_params((params.p, params.q, params.g))

    def test_named_sets(self, desk):
        assert named_params("toy23") == TOY23
        assert named_params("desk512") == desk
        assert desk.p.bit_length() == 512
        assert desk.q.bit_length() == 160
        with pytest.raises(KeyError):
            named_params("nope")


class TestPrimality:
    @pytest.mark.parametrize("n", SMALL_PRIMES + [2**89 - 1, 2**127 - 1])
    def test_known_primes(self, n):
        assert is_probable_prime(n)

    @pytest.mark.parametrize("n", [0, 1, 4, 129, 561, 8911, 2**89 + 1])
    def test_known_composites(self, n):
        assert not is_probable_prime(n)


class TestByteEncoding:
    def test_minimal_encoding(self):
        assert int_to_bytes(0) == b""
        assert int_to_bytes(9) == b"\x09"
        assert int_to_bytes(256) == b"\x01\x00"

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            int_to_bytes(-1)

    @given(st.integers(min_value=0, max_value=2**600))
    @settings(max_examples=200)
    def test_roundtrip(self, n):
        encoded = int_to_bytes(n)
        assert int_from_bytes(encoded) == n
        assert not encoded.startswith(b"\x00")
