import builtins
import copy
import random
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    BrokenRng,
    ScriptRng,
    chi_square_critical,
    chi_square_stat,
    egcd_inverse,
    failing_libcrypto,
    naive_modexp,
)
from blindsigncrypt.errors import (
    DECIMAL_MAX_BITS,
    BadGenerator,
    GenerationTimeout,
    NotPrime,
    OrderMismatch,
    RngFailure,
    ZeroInverse,
    int_text,
)
from blindsigncrypt import blind_sdss, blind_signcrypt, group_math, wire_codec, zheng
from blindsigncrypt.crypto_suite import derive_keys, kh_preimage, std_suite, toy_suite
from blindsigncrypt.group_math import (
    DESK512,
    NAMED_PARAMS,
    TOY23,
    GroupParams,
    count_exponentiations,
    desk512,
    generate_params,
    int_to_bytes,
    is_probable_prime,
    modexp,
    modexp2,
    modinv,
    rand_scalar,
    rand_scalar_nonzero,
    validate_params,
)
from blindsigncrypt.harness import (
    cross_pairing_check,
    measure_exponentiation_counts,
    run_honest_sessions,
)
from blindsigncrypt.sdss import KeyPair, keygen, sign, verify

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
                modexp2(2, 3, 3, 4, 23)
        assert (outer.count, inner.count) == (4, 3)

    def test_counters_closed_out_of_order(self):
        first, second = count_exponentiations(), count_exponentiations()
        a, b = first.__enter__(), second.__enter__()
        first.__exit__(None, None, None)
        modexp(2, 3, 23)
        second.__exit__(None, None, None)
        modexp(2, 3, 23)
        assert (a.count, b.count) == (0, 1)

    def test_counter_left_by_an_exception_stops_counting(self):
        with pytest.raises(ZeroInverse):
            with count_exponentiations() as c:
                modexp(2, 3, 23)
                modinv(0, 11)
        modexp(2, 3, 23)
        assert c.count == 1
        assert group_math._active_counters.get() == ()

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


@pytest.fixture
def pow_calls(monkeypatch):
    """Record every builtin pow that group_math calls as a power, leaving out
    modinv's pow(a, -1, q)."""
    calls = []

    def spy(base, exp, mod):
        if exp != -1:
            calls.append((base, exp, mod))
        return builtins.pow(base, exp, mod)

    monkeypatch.setattr(group_math, "pow", spy, raising=False)
    return calls


class RecordingRng(random.Random):
    """A seeded random.Random that keeps every randrange draw from a range
    wider than 2**64, which covers every secret scalar the library draws at
    desk512 and leaves out the harness's message lengths."""

    def __init__(self, seed):
        super().__init__(seed)
        self.draws = []

    def randrange(self, *args):
        draw = super().randrange(*args)
        if max(args) > 2**64:
            self.draws.append(draw)
        return draw


needs_kernel = pytest.mark.skipif(group_math._libcrypto is None,
                                  reason="libcrypto's modexp did not load here")

GENERATED = generate_params(64, 40, random.Random(11))


def in_kernel(base, exp, mod):
    """Whether _power computes base^exp mod mod in OpenSSL rather than pow."""
    return group_math._libcrypto is not None and base >= 0 and exp >= 0 and mod > 1 and mod & 1


def pow_expected(calls):
    """Of these (base, exp, mod) powers, those that reach the pow spy."""
    return [c for c in calls if c[1] != -1 and not in_kernel(*c)]


def module_state():
    """group_math's namespace, with a copy of every container in it."""
    return {name: (value, copy.copy(value) if isinstance(value, (dict, list, set)) else None)
            for name, value in vars(group_math).items()}


def assert_state_unchanged(before):
    after = module_state()
    assert after.keys() == before.keys()
    for name, (value, contents) in before.items():
        assert after[name][0] is value and after[name][1] == contents, name


class TestPower:
    def test_kernel_loads_on_linux(self):
        # CI and the benchmark run on Linux: a silent fall back to pow there
        # would halve the speed with every other test green
        if sys.platform != "linux":
            pytest.skip("the kernel is checked on Linux only")
        pytest.importorskip("_hashlib")
        assert group_math._libcrypto is not None

    def test_matches_pow_on_every_combination(self):
        rng = random.Random(16)
        qs = (11, 23, 29, DESK512.q, GENERATED.q)
        exps = [0, 1, 2**160 - 1, 2**160, 2**170 - 3] + [e for q in qs for e in (q - 1, q)] + \
            [rng.randrange(2**bits) for bits in (8, 64, 160, 161, 512, 700)]
        for p in (23, 47, 59, DESK512.p, GENERATED.p, 2**61 - 1):
            bases = [0, 1, 2, p - 1, p, p + 1, 2 * p + 1] + [rng.randrange(2 * p) for _ in range(8)]
            for base in bases:
                for e in exps:
                    for public in (False, True):
                        assert group_math._power(base, e, p, public=public) == pow(base, e, p), \
                            (base, e, p, public)

    def test_pow_semantics_outside_the_kernel(self, desk, pow_calls):
        # negative exponents (inverses), negative bases, and moduli that are
        # even or at most 1 go to pow and give its result, errors included
        g, p, q = desk.g, desk.p, desk.q
        cases = [(g, -1, p), (g, -(q + 5), p), (-g, q - 1, p), (7, 5, 2**64)] + \
            [(base, e, mod) for mod in (1, 2) for base in (0, 1, 3) for e in (0, 1, 5)]
        for base, e, mod in cases:
            assert group_math._power(base, e, mod) == pow(base, e, mod)
        assert pow_calls == [c for c in cases if c[1] != -1]
        with pytest.raises(ValueError):
            group_math._power(p, -1, p)

    def test_built_in_sets_keep_their_context(self):
        # a lost context costs about a sixth of every desk512 power with
        # every other test green, as a silent fall back to pow would
        if sys.platform != "linux":
            pytest.skip("the kernel is checked on Linux only")
        pytest.importorskip("_hashlib")
        kept = group_math._KEPT_MODULI
        assert set(kept) == {params.p for params in NAMED_PARAMS.values()}
        assert all(m and mont for m, mont in kept.values())

    @needs_kernel
    def test_failed_openssl_call_falls_back(self, desk, monkeypatch, pow_calls):
        cleared = []
        monkeypatch.setattr(group_math, "_libcrypto",
                            failing_libcrypto("BN_mod_exp_mont_consttime", cleared))
        assert group_math._power(desk.g, desk.q - 1, desk.p) == pow(desk.g, desk.q - 1, desk.p)
        assert (cleared, pow_calls) == ([True], [(desk.g, desk.q - 1, desk.p)])

    @needs_kernel
    def test_failed_public_call_falls_back(self, desk, monkeypatch, pow_calls):
        # to pow, as a failed constant-time call does, never to the
        # constant-time kernel
        cleared, consttime = [], []
        lib = failing_libcrypto("BN_mod_exp_mont", cleared)
        real = group_math._libcrypto.BN_mod_exp_mont_consttime

        def spy_consttime(*args):
            consttime.append(args)
            return real(*args)

        lib.BN_mod_exp_mont_consttime = spy_consttime
        monkeypatch.setattr(group_math, "_libcrypto", lib)
        g, p, e = desk.g, desk.p, desk.q - 1
        assert group_math._power(g, e, p, public=True) == pow(g, e, p)
        assert (cleared, pow_calls, consttime) == ([True], [(g, e, p)], [])

    def test_two_base_matches_pow_on_every_combination(self):
        # BN_mod_exp2_mont alone gives 0 for a base = 0 mod p even when that
        # base's exponent is 0, where the product of the powers is the other
        # base's power
        for p, q in ((23, 11), (47, 23), (59, 29), (DESK512.p, DESK512.q),
                     (GENERATED.p, GENERATED.q), (2**61 - 1, DESK512.q)):
            terms = [(base, e) for base in (0, 1, p - 1, p, p + 1, 2 * p + 1)
                     for e in (0, 1, q - 1, q, 2**160, 2**170 - 3)]
            for b1, e1 in terms:
                for b2, e2 in terms:
                    assert group_math._power2(b1, e1, b2, e2, p) == \
                        pow(b1, e1, p) * pow(b2, e2, p) % p, (b1, e1, b2, e2, p)

    @needs_kernel
    def test_failed_two_base_call_falls_back(self, desk, monkeypatch, pow_calls):
        # to _power's two constant-time powers, which still run in OpenSSL
        cleared = []
        monkeypatch.setattr(group_math, "_libcrypto",
                            failing_libcrypto("BN_mod_exp2_mont", cleared))
        y = pow(desk.g, 12345, desk.p)
        assert group_math._power2(y, desk.q - 1, desk.g, 2**160, desk.p) == \
            pow(y, desk.q - 1, desk.p) * pow(desk.g, 2**160, desk.p) % desk.p
        assert (cleared, pow_calls) == ([True], [])

    def test_no_secret_reaches_a_variable_time_kernel(self, desk, monkeypatch):
        # _power2 and _power(..., public=True) take time that depends on their
        # exponents. Over one session of each scheme, one harness session of
        # each scheme, and a cross-pairing grid of eight harness transcripts,
        # no exponent they take is, or negates mod q, a scalar drawn from the
        # rng (x, k, k_tilde, u, alpha, beta), a column's a_j, a recipient's
        # s * x_C or the exponent of key_power's outer power. Neither
        # signcryption open calls _power2, and each path takes a pinned
        # number of public _power calls.
        rng, suite = RecordingRng(26), std_suite()
        variable, public_calls, outer = [], {}, []
        path, opens_entered, from_open = ["keys"], [0], []
        power, power2, key_power = group_math._power, group_math._power2, zheng.key_power

        def spy_power(base, exp, mod, *, public=False):
            if public:
                variable.append(exp)
                public_calls[path[0]] = public_calls.get(path[0], 0) + 1
            return power(base, exp, mod, public=public)

        def spy_power2(b1, e1, b2, e2, mod):
            variable.extend((e1, e2))
            from_open.append(opens_entered[0] > 0)
            return power2(b1, e1, b2, e2, mod)

        def spy_key_power(y, r, e, params):
            outer.append(e)
            return key_power(y, r, e, params)

        def flag(open_move):
            def flagged(*args):
                opens_entered[0] += 1
                try:
                    return open_move(*args)
                finally:
                    opens_entered[0] -= 1
            return flagged

        monkeypatch.setattr(group_math, "_power", spy_power)
        monkeypatch.setattr(group_math, "_power2", spy_power2)
        monkeypatch.setattr(zheng, "key_power", spy_key_power)
        monkeypatch.setattr(zheng, "unsigncrypt", flag(zheng.unsigncrypt))
        monkeypatch.setattr(blind_signcrypt, "unsigncrypt", flag(blind_signcrypt.unsigncrypt))

        signer, recipient = keygen(desk, rng), keygen(desk, rng)
        path[0] = "sdss"
        assert verify(b"m", sign(b"m", signer, desk, suite, rng), signer.y, desk, suite)
        path[0] = "zheng"
        zheng_text = zheng.signcrypt(b"m", signer, recipient.y, b"to", desk, suite, rng)
        assert zheng.unsigncrypt(zheng_text, recipient, signer.y, b"to", desk, suite) == b"m"

        path[0] = "blind_sdss"
        session, commit = blind_sdss.signer_commit(signer, desk, rng)
        requester, challenge = blind_sdss.requester_challenge(
            b"m", commit.z, signer.y, desk, suite, rng)
        response = blind_sdss.signer_respond(session, challenge.r_bar, signer)
        sig = blind_sdss.requester_finalize(requester, response.s_bar, desk)
        assert blind_sdss.verify(b"m", sig, signer.y, desk, suite)

        path[0] = "blind_signcrypt"
        session, commit = blind_signcrypt.bsc_signer_commit(signer, desk, rng)
        requester, challenge = blind_signcrypt.bsc_requester_challenge(
            b"m", commit.z, recipient.y, b"to", desk, suite, rng)
        response = blind_signcrypt.bsc_signer_respond(session, challenge.r_bar, signer)
        bsc_text = blind_signcrypt.bsc_requester_finalize(requester, response.s_bar, desk)
        assert blind_signcrypt.unsigncrypt(bsc_text, recipient, signer.y, b"to",
                                           desk, suite) == b"m"

        path[0] = "harness blind_sdss"
        run_honest_sessions(1, "blind_sdss", desk, suite, rng, signer=signer)
        path[0] = "harness blind_signcrypt"
        transcripts = run_honest_sessions(8, "blind_signcrypt", desk, suite, rng,
                                          signer=signer, recipient=recipient)
        path[0] = "grid"
        assert cross_pairing_check(transcripts).all_pass

        q = desk.q
        columns = [(t.signature(), t.requester_secrets.u) for t in transcripts]
        texts = [zheng_text, bsc_text] + [t.output for t in transcripts]
        secrets = ({draw % q for draw in rng.draws}
                   | set(blind_sdss.one_time_exponents(columns, q))
                   | {text.s * recipient.x % q for text in texts} | set(outer))
        secrets |= {-v % q for v in secrets}
        assert secrets.isdisjoint(e % q for e in variable)
        # sdss, blind SDSS and the harness's blind SDSS verify, and one call per grid row
        assert len(from_open) == 3 + 8 and not any(from_open)
        assert len(outer) == 2 + 8
        rows_with_two_exponents = sum(
            len({sig.r + (t.view.r_bar - sig.r) % q for sig, _ in columns}) == 2
            for t in transcripts)
        # one public power g^r per open, z^r_bar per blind session, and the
        # grid's g^q with a z^q per row that needs both r_bar and r_bar + q
        assert public_calls == {"zheng": 1, "blind_sdss": 1, "blind_signcrypt": 2,
                                "harness blind_sdss": 1, "harness blind_signcrypt": 2 * 8,
                                "grid": 1 + rows_with_two_exponents}

    def test_grid_passes_only_view_values_to_the_two_base_kernel(self, desk, monkeypatch):
        # the cross-pairing grid takes one _power2 call per view, z^e * g^(-s_bar)
        # with e = r_bar or r_bar + q, so no scalar drawn from the rng, no
        # column's a_j = s^-1 * u - r and no recipient's s * x_C reaches it
        rng, suite = RecordingRng(27), std_suite()
        transcripts = run_honest_sessions(8, "blind_signcrypt", desk, suite, rng)
        calls = []
        power2 = group_math._power2

        def spy_power2(b1, e1, b2, e2, mod):
            calls.append((b1, e1, b2, e2, mod))
            return power2(b1, e1, b2, e2, mod)

        monkeypatch.setattr(group_math, "_power2", spy_power2)
        assert cross_pairing_check(transcripts).all_pass

        p, q, g = desk.p, desk.q, desk.g
        views = [t.view for t in transcripts]
        assert len(calls) == len(views)
        for view, (z, e1, base, e2, mod) in zip(views, calls):
            assert (z, base, e2, mod) == (view.z, g, -view.s_bar % q, p)
            assert e1 in (view.r_bar, view.r_bar + q)
        columns = [(t.signature(), t.requester_secrets.u) for t in transcripts]
        recipient_x = transcripts[0].context.recipient.x
        secrets = ({draw % q for draw in rng.draws}
                   | set(blind_sdss.one_time_exponents(columns, q))
                   | {t.output.s * recipient_x % q for t in transcripts})
        assert secrets.isdisjoint(e % q for _, e1, _, e2, _ in calls for e in (e1, e2))

    @needs_kernel
    def test_failed_context_build_keeps_nothing(self):
        cleared = []
        lib = failing_libcrypto("BN_MONT_CTX_set", cleared)
        assert group_math._keep_moduli(lib, [TOY23.p, DESK512.p]) == {}
        assert cleared == [True, True]
        assert group_math._keep_moduli(None, [DESK512.p]) == {}

    @needs_kernel
    def test_sessions_reach_no_pow(self, desk, pow_calls):
        # a full session of each of the four schemes, verifier and recipient
        # included, computes every power in the kernel
        rng, suite = random.Random(23), std_suite()
        signer, recipient = keygen(desk, rng), keygen(desk, rng)
        with count_exponentiations() as c:
            assert verify(b"m", sign(b"m", signer, desk, suite, rng), signer.y, desk, suite)
            ct = zheng.signcrypt(b"m", signer, recipient.y, b"to", desk, suite, rng)
            assert zheng.unsigncrypt(ct, recipient, signer.y, b"to", desk, suite) == b"m"
            for scheme in ("blind_sdss", "blind_signcrypt"):
                run_honest_sessions(1, scheme, desk, suite, rng)
        assert c.count > 0 and pow_calls == []


class TestFixedBase:
    """Powers of a parameter set's generator g. They take the same path as
    any other base: no parameter set, named or not, has a table. A built-in
    set's modulus keeps its Montgomery context from import, for every base
    alike."""

    @given(st.integers(min_value=0, max_value=DESK512.q - 1))
    @settings(max_examples=300, deadline=None)
    def test_matches_pow_below_q(self, e):
        assert modexp(DESK512.g, e, DESK512.p) == pow(DESK512.g, e, DESK512.p)

    def test_edge_exponents(self, desk, pow_calls):
        g, p, q = desk.g, desk.p, desk.q
        exps = [0, 1, q - 1, q, 2**160 - 1, 2**160, 2**170 - 3, -1, -(q + 5)]
        for e in exps:
            assert modexp(g, e, p) == pow(g, e, p)
        assert pow_calls == pow_expected([(g, e, p) for e in exps])

    def test_toy23_every_exponent_in_range(self, toy, pow_calls):
        # every exponent of one byte, and a few past it
        exps = range(2**8 + 3)
        for e in exps:
            assert modexp(toy.g, e, toy.p) == pow(toy.g, e, toy.p)
        assert pow_calls == pow_expected([(toy.g, e, toy.p) for e in exps])

    def test_params_built_directly(self, pow_calls):
        # a 64-bit p / 40-bit q set in no named set, and a copy built
        # directly, take the same path as the named sets
        params = generate_params(64, 40, random.Random(11))
        assert validate_params((params.p, params.q, params.g)) == params
        direct = GroupParams(p=params.p, q=params.q, g=params.g)
        pow_calls.clear()
        rng = random.Random(12)
        exps = [0, 1, direct.q - 1, 2**40 - 1, 2**40] + [rng.randrange(2**40) for _ in range(200)]
        for e in exps:
            assert modexp(direct.g, e, direct.p) == pow(direct.g, e, direct.p)
        assert pow_calls == pow_expected([(direct.g, e, direct.p) for e in exps])

    def test_one_count_per_call_on_both_paths(self, desk, pow_calls):
        with count_exponentiations() as c:
            modexp(desk.g, desk.q - 1, desk.p)
            modexp(desk.g + 1, 7, desk.p)
        kernel_calls = len(pow_calls)
        with count_exponentiations() as c2:
            modexp(desk.g, -(desk.q + 5), desk.p)
            modexp(3, 5, 2**64)
        assert (c.count, c2.count) == (2, 2)
        assert len(pow_calls) == kernel_calls + 2
        if group_math._libcrypto is not None:
            assert kernel_calls == 0

    def test_decoded_params_take_no_table(self, desk):
        # decoding untrusted Params messages, and powers under them, leave
        # group_math as it was
        before = module_state()
        rng = random.Random(15)
        for _ in range(20):
            decoded, _ = wire_codec.decode(wire_codec.encode(GroupParams(p=rng.getrandbits(64) | 1,
                                                                         q=rng.getrandbits(40) | 1,
                                                                         g=rng.getrandbits(63)),
                                                             "std-v1"))
            assert modexp(decoded.g, 12345, decoded.p) == pow(decoded.g, 12345, decoded.p)
        assert modexp(desk.g, 12345, desk.p) == pow(desk.g, 12345, desk.p)
        assert_state_unchanged(before)


class TestKeyTables:
    """Powers of public keys y. Every use of a key, the first or the
    hundredth, takes the same path and leaves no state: there are no
    per-key tables."""

    def test_matches_pow_at_exponent_edges(self, desk, pow_calls):
        y, p = pow(desk.g, 12345, desk.p), desk.p
        for _ in range(7):  # a key used often
            modexp(y, 1, p)
        pow_calls.clear()
        rng = random.Random(14)
        exps = [0, 1, 15, 16, 255, desk.q - 1, desk.q, 2**160 - 1, 2**160, 2**170 - 3,
                -1, -(desk.q + 5)] + [rng.randrange(desk.q) for _ in range(100)]
        for e in exps:
            assert modexp(y, e, p) == pow(y, e, p)
        assert pow_calls == pow_expected([(y, e, p) for e in exps])

    def test_one_harness_session_builds_no_table(self, desk):
        # its fresh bases z and y * T, and its keys, leave group_math as it was
        before = module_state()
        with count_exponentiations() as c:
            run_honest_sessions(1, "blind_signcrypt", desk, std_suite(), random.Random(21))
        assert c.count > 0
        assert_state_unchanged(before)

    def test_no_table_without_a_registered_set(self, pow_calls):
        # a modulus that no parameter set uses takes the same path as desk512's
        p = 2**61 - 1  # prime
        calls = [(3, 1, p)] * 21 + [(3, 2**40 + 1, p)]
        for base, e, mod in calls:
            assert modexp(base, e, mod) == pow(base, e, mod)
        assert pow_calls == pow_expected(calls)

    def test_racing_threads(self, desk):
        # ctypes drops the GIL in every OpenSSL call, so these powers really
        # overlap; each call owns its BN context, so none may see another's,
        # and all of them only read desk512's kept Montgomery context
        wrong, errors = [], []

        def work(k):
            rng = random.Random(k)
            try:
                for _ in range(2_000):
                    y, e = rng.randrange(1, desk.p), rng.randrange(desk.q)
                    if modexp(y, e, desk.p) != pow(y, e, desk.p):
                        wrong.append((y, e))
            except Exception as exc:  # a thread that dies fails the test below
                errors.append(exc)

        run_threads(work, range(8))
        assert (wrong, errors) == ([], [])

    def test_one_count_per_call_on_every_path(self, desk, pow_calls):
        y, p = pow(desk.g, 4242, desk.p), desk.p
        with count_exponentiations() as c:
            for _ in range(6):  # a key's first uses
                modexp(y, 3, p)
        assert c.count == 6
        with count_exponentiations() as c:
            modexp(y, 4, p)
            modexp(y, 2**170, p)  # an exponent longer than q
            modexp(y, -1, p)  # an inverse, in pow
        assert c.count == 3
        assert pow_calls == pow_expected([(y, 3, p)] * 6 + [(y, 4, p), (y, 2**170, p)])

    @needs_kernel
    def test_verify_under_hot_key_needs_no_pow(self, desk, pow_calls):
        # each verify, under a key used once or many times, is two kernel powers
        rng, suite = random.Random(23), std_suite()
        key = keygen(desk, rng)
        signed = [(m, sign(m, key, desk, suite, rng)) for m in (bytes([i]) for i in range(8))]
        for m, sig in signed:
            with count_exponentiations() as c:
                assert verify(m, sig, key.y, desk, suite)
            assert c.count == 2
        assert pow_calls == []


class TestFallback:
    """pow in place of the kernel gives the same elements, so the same bytes."""

    M, BIND = b"settle anonymously", b"to-carol"

    def session(self, params, suite, alice, carol, commit_rng, challenge_rng):
        """One blind signcryption session: its messages, C's shared element
        and the opened message."""
        signer, commit = blind_signcrypt.bsc_signer_commit(alice, params, commit_rng)
        requester, challenge = blind_signcrypt.bsc_requester_challenge(
            self.M, commit.z, carol.y, self.BIND, params, suite, challenge_rng)
        response = blind_signcrypt.bsc_signer_respond(signer, challenge.r_bar, alice)
        ct = blind_signcrypt.bsc_requester_finalize(requester, response.s_bar, params)
        return ((commit, challenge, response, ct),
                blind_signcrypt.shared_element(ct, carol, alice.y, params),
                blind_signcrypt.unsigncrypt(ct, carol, alice.y, self.BIND, params, suite))

    def outputs(self, desk):
        # the toy23 worked vector of acceptance criterion 1
        toy = toy_suite()
        toy.stub_keyed_hash(derive_keys(9, toy).k2, kh_preimage(self.M, self.BIND), 7)
        (_, challenge, response, ct), shared, opened = self.session(
            TOY23, toy, KeyPair(x=3, y=8), KeyPair(x=4, y=16), ScriptRng([5]), ScriptRng([4, 2, 6]))
        toy_vector = (challenge.r_bar, response.s_bar, ct.T, ct.s, ct.r, shared, opened)

        rng = random.Random(31)
        messages, _, opened = self.session(
            desk, std_suite(), keygen(desk, rng), keygen(desk, rng), rng, rng)
        wire = [wire_codec.encode(msg) for msg in messages] + [opened]

        counts = [measure_exponentiation_counts(scheme, desk, std_suite(), random.Random(seed)).counts
                  for scheme, seed in (("blind_signcrypt", 0xACCE_98), ("blind_sdss", 0xACCE_99))]
        return toy_vector, wire, counts

    def test_pow_gives_the_kernels_results(self, desk, monkeypatch, pow_calls):
        kernel = self.outputs(desk)
        monkeypatch.setattr(group_math, "_libcrypto", None)
        assert self.outputs(desk) == kernel
        assert pow_calls
        assert kernel[0] == (9, 4, 13, 8, 7, 9, self.M)
        assert kernel[1][-1] == self.M
        assert kernel[2] == [{"A": 1, "B": 3, "C": 2}, {"A": 1, "B": 3, "verify": 2}]


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


# 20001 bits: 6021 decimal digits, past the 4300 that Python 3.11+ writes
WIDE = (1 << 20000) + 1


class TestWideValuesInErrors:
    """A named error shows a value wider than DECIMAL_MAX_BITS by its bit
    length, where str() would raise ValueError (Python 3.11+)."""

    def test_decimal_up_to_the_limit(self):
        assert int_text((1 << DECIMAL_MAX_BITS) - 1) == str((1 << DECIMAL_MAX_BITS) - 1)
        assert int_text(1 << DECIMAL_MAX_BITS) == f"a {DECIMAL_MAX_BITS + 1}-bit integer"

    def test_not_prime(self):
        with pytest.raises(NotPrime, match="^p = a 20001-bit integer failed the primality test$"):
            validate_params((WIDE + 1, 11, 2))

    @pytest.mark.parametrize("candidate, error, message", [
        ((WIDE, 7, 2), OrderMismatch, "q = 7 does not divide p - 1 = a 20001-bit integer"),
        ((WIDE, 2, WIDE + 1), BadGenerator, "g = a 20001-bit integer is outside [2, p-1]"),
        ((WIDE, 2, WIDE - 2), BadGenerator,
         "g = a 20000-bit integer does not have order dividing q"),
    ], ids=["order-mismatch", "generator-range", "generator-order"])
    def test_validate_params(self, monkeypatch, candidate, error, message):
        monkeypatch.setattr(group_math, "is_probable_prime", lambda n, rng=None: True)
        with pytest.raises(error) as exc:
            validate_params(candidate)
        assert str(exc.value) == message

    def test_zero_inverse(self):
        with pytest.raises(ZeroInverse, match="^no inverse of 0 mod a 20001-bit integer$"):
            modinv(WIDE, WIDE)


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
        assert int.from_bytes(encoded, "big") == n
        assert not encoded.startswith(b"\x00")
