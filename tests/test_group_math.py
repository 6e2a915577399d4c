import builtins
import random
import sys
import threading
from collections import OrderedDict

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
from blindsigncrypt import group_math, wire_codec
from blindsigncrypt.crypto_suite import std_suite
from blindsigncrypt.group_math import (
    DESK512,
    KEY_TABLE_AFTER,
    KEY_TABLES_KEPT,
    NAMED_PARAMS,
    TOY23,
    USES_KEPT,
    FixedBase,
    GroupParams,
    count_exponentiations,
    desk512,
    generate_params,
    int_from_bytes,
    int_to_bytes,
    is_probable_prime,
    modexp,
    modinv,
    rand_scalar,
    rand_scalar_nonzero,
    validate_params,
)
from blindsigncrypt.harness import run_honest_sessions
from blindsigncrypt.sdss import keygen, sign, verify

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

    def test_counters_closed_out_of_order(self):
        first, second = count_exponentiations(), count_exponentiations()
        a, b = first.__enter__(), second.__enter__()
        first.__exit__(None, None, None)
        modexp(2, 3, 23)
        second.__exit__(None, None, None)
        modexp(2, 3, 23)
        assert (a.count, b.count) == (0, 1)

    def test_counter_ignores_other_threads(self):
        # each counter sees only the powers of the thread that opened it
        seen = {}

        def other():
            with count_exponentiations() as c:
                for _ in range(50):
                    modexp(3, 5, 23)
            seen["other"] = c.count

        with count_exponentiations() as mine:
            modexp(2, 3, 23)
            t = threading.Thread(target=other)
            t.start()
            t.join(timeout=60)
            modexp(2, 3, 23)
        assert not t.is_alive()
        assert (mine.count, seen["other"]) == (2, 50)

    def test_counters_in_racing_threads(self):
        counts = {}

        def work(n):
            with count_exponentiations() as c:
                for _ in range(n):
                    modexp(2, 3, 23)
            counts[n] = c.count

        sizes = [100, 200, 300, 400]  # more threads than cores
        run_threads(work, sizes)
        assert counts == {n: n for n in sizes}


@pytest.fixture
def key_tables(monkeypatch):
    """Empty hot-base registries, so that bases heated by earlier tests
    cannot take the table path; returns the table registry."""
    monkeypatch.setattr(group_math, "_key_tables", OrderedDict())
    monkeypatch.setattr(group_math, "_uses", OrderedDict())
    return group_math._key_tables


@pytest.fixture
def table_calls(monkeypatch, key_tables):
    """Count the modexp calls that take a fixed-base table path."""
    calls = []
    power = FixedBase.power

    def spy(self, e):
        calls.append(e)
        return power(self, e)

    monkeypatch.setattr(FixedBase, "power", spy)
    return calls


def run_threads(work, args):
    """work(arg) in one thread per arg, released together, switching often."""
    start = threading.Barrier(len(args))
    threads = [threading.Thread(target=lambda a=a: (start.wait(), work(a))) for a in args]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)


class TestFixedBase:
    @given(st.integers(min_value=0, max_value=DESK512.q - 1))
    @settings(max_examples=300, deadline=None)
    def test_matches_pow_below_q(self, e):
        assert modexp(DESK512.g, e, DESK512.p) == pow(DESK512.g, e, DESK512.p)

    def test_edge_exponents(self, desk, table_calls):
        g, p, q = desk.g, desk.p, desk.q
        in_range = [0, 1, q - 1, q, 2**160 - 1]
        fallback = [2**160, 2**170 - 3, -1, -(q + 5)]
        for e in in_range + fallback:
            assert modexp(g, e, p) == pow(g, e, p)
        assert table_calls == in_range

    def test_toy23_every_exponent_in_range(self, toy, table_calls):
        # one row of 256 entries covers every exponent below 2^8
        for e in range(2**8 + 3):
            assert modexp(toy.g, e, toy.p) == pow(toy.g, e, toy.p)
        assert table_calls == list(range(2**8))

    def test_params_built_directly(self, table_calls):
        # a 64-bit p / 40-bit q set in no named set: generate_params and
        # validate_params register nothing, so neither it nor a copy built
        # directly takes a table, and pow gives every result
        params = generate_params(64, 40, random.Random(11))
        assert validate_params((params.p, params.q, params.g)) == params
        direct = GroupParams(p=params.p, q=params.q, g=params.g)
        rng = random.Random(12)
        in_range = [0, 1, direct.q - 1, 2**40 - 1] + [rng.randrange(2**40) for _ in range(200)]
        for e in in_range + [2**40]:
            assert modexp(direct.g, e, direct.p) == pow(direct.g, e, direct.p)
        assert set(group_math._generators) == {(TOY23.g, TOY23.p), (DESK512.g, DESK512.p)}
        assert table_calls == []

    def test_table_class_directly(self):
        # the table itself, independent of which parameter sets are registered
        table = FixedBase(5, 1_000_003, 20)
        assert table.limit == 2**24
        rng = random.Random(13)
        for e in [0, 1, 255, 256, 2**24 - 1] + [rng.randrange(2**24) for _ in range(500)]:
            assert table.power(e) == pow(5, e, 1_000_003)

    def test_non_generator_base_uses_pow(self, desk, table_calls):
        for base in (desk.g + 1, desk.p - desk.g, 2):
            for e in (0, 1, desk.q - 1):
                assert modexp(base, e, desk.p) == pow(base, e, desk.p)
        # g under another modulus is not the registered pair either
        assert modexp(desk.g, 12345, desk.p + 2) == pow(desk.g, 12345, desk.p + 2)
        assert table_calls == []

    def test_one_count_per_call_on_both_paths(self, desk, table_calls):
        with count_exponentiations() as c:
            modexp(desk.g, desk.q - 1, desk.p)
        assert (c.count, len(table_calls)) == (1, 1)
        with count_exponentiations() as c:
            modexp(desk.g, 2**170, desk.p)
            modexp(desk.g + 1, 7, desk.p)
        assert (c.count, len(table_calls)) == (2, 1)

    def test_concurrent_first_use(self):
        # racing threads may each build the table; every one of them must
        # compute with a complete table and get pow's result
        table = FixedBase(DESK512.g, DESK512.p, DESK512.q.bit_length())
        exps = [random.Random(i).randrange(DESK512.q) for i in range(8)]
        results = {}
        run_threads(lambda e: results.__setitem__(e, table.power(e)), exps)
        assert results == {e: pow(DESK512.g, e, DESK512.p) for e in exps}
        assert len(table._rows) == 20 and all(len(row) == 256 for row in table._rows)

    def test_decoded_params_take_no_table(self, desk, table_calls):
        # decoding untrusted Params messages leaves the registry as built at
        # import: the built-in sets keep their tables, nothing else gets one
        rng = random.Random(15)
        for _ in range(20):
            wire_codec.decode(wire_codec.encode(GroupParams(p=rng.getrandbits(64) | 1,
                                                            q=rng.getrandbits(40) | 1,
                                                            g=rng.getrandbits(63)), "std-v1"))
        assert set(group_math._generators) == {(TOY23.g, TOY23.p), (DESK512.g, DESK512.p)}
        params = generate_params(64, 40, random.Random(11))
        assert modexp(params.g, 12345, params.p) == pow(params.g, 12345, params.p)
        assert table_calls == []
        assert modexp(desk.g, 12345, desk.p) == pow(desk.g, 12345, desk.p)
        assert table_calls == [12345]


def heat(base, p, uses=KEY_TABLE_AFTER):
    for _ in range(uses):
        modexp(base, 1, p)


class TestKeyTables:
    def test_matches_pow_at_exponent_edges(self, desk, table_calls, key_tables):
        y, p = pow(desk.g, 12345, desk.p), desk.p
        heat(y, p)
        table = key_tables[(y, p)]
        assert (table.radix_bits, table.limit) == (4, 2**160)
        table_calls.clear()
        rng = random.Random(14)
        in_range = [0, 1, 15, 16, 255, desk.q - 1, desk.q, table.limit - 1] + \
            [rng.randrange(desk.q) for _ in range(100)]
        fallback = [table.limit, 2**170 - 3, -1, -(desk.q + 5)]
        for e in in_range + fallback:
            assert modexp(y, e, p) == pow(y, e, p)
        assert table_calls == in_range

    def test_radix_4_table_directly(self):
        # toy23's 4-bit q: one exponent byte, so two rows of 16 and a limit of 2^8
        table = FixedBase(8, 23, TOY23.q.bit_length(), radix_bits=4)
        assert [table.power(e) for e in range(2**8)] == [pow(8, e, 23) for e in range(2**8)]
        assert len(table._rows) == 2 and all(len(row) == 16 for row in table._rows)
        with pytest.raises(ValueError):
            FixedBase(8, 23, 4, radix_bits=3)

    def test_seventh_use_gets_no_table(self, desk, key_tables):
        y, p = pow(desk.g, 777, desk.p), desk.p
        heat(y, p, KEY_TABLE_AFTER - 1)
        assert (y, p) not in key_tables
        assert group_math._uses[(y, p)] == KEY_TABLE_AFTER - 1
        modexp(y, 5, p)
        assert list(key_tables) == [(y, p)]
        assert (y, p) not in group_math._uses

    def test_one_harness_session_builds_no_table(self, desk, key_tables):
        # its fresh bases z and y * T see fewer than KEY_TABLE_AFTER uses
        t = run_honest_sessions(1, "blind_signcrypt", desk, std_suite(), random.Random(21))[0]
        blinded = t.context.signer.y * t.output.T % desk.p
        assert not key_tables
        assert group_math._uses[(blinded, desk.p)] < KEY_TABLE_AFTER
        assert group_math._uses[(t.view.z, desk.p)] < KEY_TABLE_AFTER

    def test_forty_hot_bases_leave_sixteen_tables(self, desk, key_tables):
        bases = [pow(desk.g, i + 2, desk.p) for i in range(40)]
        for y in bases:
            heat(y, desk.p)
        assert KEY_TABLES_KEPT == 16
        assert list(key_tables) == [(y, desk.p) for y in bases[-16:]]

    def test_least_recently_used_table_goes_first(self, desk, key_tables):
        bases = [pow(desk.g, i + 2, desk.p) for i in range(KEY_TABLES_KEPT + 1)]
        for y in bases[:-1]:
            heat(y, desk.p)
        modexp(bases[0], 3, desk.p)  # the oldest table is used again
        heat(bases[-1], desk.p)
        assert (bases[0], desk.p) in key_tables
        assert (bases[1], desk.p) not in key_tables

    def test_no_table_without_a_registered_set(self, key_tables):
        p = 2**61 - 1  # prime; no parameter set in the package or the tests uses it
        heat(3, p, 3 * KEY_TABLE_AFTER)
        assert not key_tables
        assert modexp(3, 2**40 + 1, p) == pow(3, 2**40 + 1, p)

    def test_use_counts_stay_bounded(self, key_tables):
        for base in range(USES_KEPT + 50):
            modexp(base, 3, 10**9 + 7)
        assert len(group_math._uses) == USES_KEPT
        assert next(iter(group_math._uses)) == (50, 10**9 + 7)

    def test_racing_threads(self, toy, key_tables):
        # 8 threads draw from all 22 bases of toy23, more than KEY_TABLES_KEPT,
        # so tables are built and evicted while other threads look them up
        wrong, errors = [], []

        def work(k):
            rng = random.Random(k)
            try:
                for _ in range(12_000):
                    y, e = rng.randrange(1, toy.p), rng.randrange(toy.q)
                    if modexp(y, e, toy.p) != pow(y, e, toy.p):
                        wrong.append((y, e))
            except Exception as exc:  # a thread that dies fails the test below
                errors.append(exc)

        run_threads(work, range(8))
        assert (wrong, errors) == ([], [])
        assert len(key_tables) == KEY_TABLES_KEPT
        assert len(group_math._uses) <= USES_KEPT

    def test_one_count_per_call_on_every_path(self, desk, key_tables, table_calls):
        y, p = pow(desk.g, 4242, desk.p), desk.p
        with count_exponentiations() as c:
            heat(y, p, KEY_TABLE_AFTER - 1)  # cold: pow
        assert (c.count, len(table_calls)) == (KEY_TABLE_AFTER - 1, 0)
        with count_exponentiations() as c:
            modexp(y, 3, p)  # the use that builds the table
        assert (c.count, len(table_calls)) == (1, 1)
        with count_exponentiations() as c:
            modexp(y, 4, p)  # hot, in range
            modexp(y, 2**170, p)  # hot, past the table
            modexp(y, -1, p)
        assert (c.count, len(table_calls)) == (3, 2)

    def test_verify_under_hot_key_needs_no_pow(self, desk, key_tables, monkeypatch):
        rng, suite = random.Random(23), std_suite()
        key = keygen(desk, rng)
        signed = [(m, sign(m, key, desk, suite, rng))
                  for m in (bytes([i]) for i in range(KEY_TABLE_AFTER + 1))]
        for m, sig in signed[:-1]:  # warm-up: each verify is one use of y
            assert verify(m, sig, key.y, desk, suite)
        calls = []

        def spy(*args):
            calls.append(args)
            return builtins.pow(*args)

        monkeypatch.setattr(group_math, "pow", spy, raising=False)
        m, sig = signed[-1]
        with count_exponentiations() as c:
            assert verify(m, sig, key.y, desk, suite)
        assert (c.count, calls) == (2, [])


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

    def test_timeout_on_exhausted_budget(self, monkeypatch):
        # no candidate is prime, so q's 200 * bits_p tries run out
        monkeypatch.setattr(group_math, "is_probable_prime", lambda n, rng=None: False)
        with pytest.raises(GenerationTimeout, match="no 8-bit prime found in 3200 tries"):
            generate_params(16, 8, random.Random(1))

    def test_desk_scale_within_budget(self):
        import time

        start = time.monotonic()
        params = generate_params(512, 160, random.Random(2))
        assert time.monotonic() - start < 10.0
        validate_params((params.p, params.q, params.g))

    def test_desk512_constant_matches_its_seed(self):
        regenerated = generate_params(512, 160, random.Random("desk512-v1"))
        assert desk512() is DESK512
        assert DESK512 == regenerated
        assert validate_params((DESK512.p, DESK512.q, DESK512.g)) == DESK512

    def test_named_sets(self, desk):
        assert NAMED_PARAMS["toy23"] == TOY23
        assert NAMED_PARAMS["desk512"] == desk
        assert desk.p.bit_length() == 512
        assert desk.q.bit_length() == 160
        with pytest.raises(KeyError):
            NAMED_PARAMS["nope"]


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
