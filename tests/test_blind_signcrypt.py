import dataclasses
import functools
import random

import pytest

from helpers import ScriptRng, flip_bit
from blindsigncrypt.blind_signcrypt import (
    BlindSigncryptedText,
    bsc_requester_challenge,
    bsc_requester_finalize,
    bsc_signer_commit,
    bsc_signer_respond,
    shared_element,
    unsigncrypt,
)
from blindsigncrypt.crypto_suite import derive_keys, kh_preimage, std_suite
from blindsigncrypt.errors import (
    BadCommit,
    DegenerateDenominator,
    InvalidState,
    TagMismatch,
)
from blindsigncrypt.group_math import TOY23, modexp, validate_params
from blindsigncrypt.sdss import KeyPair, key_power, keygen
from blindsigncrypt.zheng import seal, signcrypt

MSG = b"settle anonymously"
BIND = b"to-carol"

ALICE = KeyPair(x=3, y=8)   # signer
CAROL = KeyPair(x=4, y=16)  # recipient


def pin_keyed_hash(stub_suite, m=MSG, bind=BIND, value=7):
    # u=4 gives shared = 16^4 mod 23 = 9; pin KH_k2(m, bind) to 7
    keys = derive_keys(9, stub_suite)
    stub_suite.stub_keyed_hash(keys.k2, kh_preimage(m, bind), value)
    return stub_suite


def run_toy_pipeline(toy, suite, m=MSG):
    signer_session, commit = bsc_signer_commit(ALICE, toy, ScriptRng([5]))
    requester, challenge = bsc_requester_challenge(
        m, commit.z, CAROL.y, BIND, toy, suite, ScriptRng([4, 2, 6]))
    response = bsc_signer_respond(signer_session, challenge.r_bar, ALICE)
    ct = bsc_requester_finalize(requester, response.s_bar, toy)
    return signer_session, requester, response, ct


class TestWorkedPipeline:
    """toy23, x_A=3, x_C=4, k_tilde=5, u=4, alpha=6, beta=2, pinned r=7."""

    def test_commit(self, toy):
        session, commit = bsc_signer_commit(ALICE, toy, ScriptRng([5]))
        assert commit.z == 9

    def test_challenge_values(self, toy, stub_suite):
        suite = pin_keyed_hash(stub_suite)
        _, commit = bsc_signer_commit(ALICE, toy, ScriptRng([5]))
        requester, challenge = bsc_requester_challenge(
            MSG, commit.z, CAROL.y, BIND, toy, suite, ScriptRng([4, 2, 6]))
        assert modexp(CAROL.y, requester.u, toy.p) == 9  # shared element
        assert requester.r == 7
        assert challenge.r_bar == 9
        assert requester.T == 13

    def test_full_pipeline_values(self, toy, stub_suite):
        suite = pin_keyed_hash(stub_suite)
        _, requester, response, ct = run_toy_pipeline(toy, suite)
        assert response.s_bar == 4
        assert (ct.r, ct.s, ct.T) == (7, 8, 13)
        assert ct.c == suite.cipher_encrypt(derive_keys(modexp(CAROL.y, requester.u, toy.p), suite).k1, MSG)

    def test_unsigncrypt_accepts(self, toy, stub_suite):
        # base = 8 * 13 * 2^7 = 18 mod 23; 18^(8*4 mod 11) = 18^10 = 9 = shared
        suite = pin_keyed_hash(stub_suite)
        _, _, _, ct = run_toy_pipeline(toy, suite)
        assert shared_element(ct, CAROL, ALICE.y, toy) == 9
        assert unsigncrypt(ct, CAROL, ALICE.y, BIND, toy, suite) == MSG

    def test_empty_message(self, toy, stub_suite):
        suite = pin_keyed_hash(stub_suite, m=b"")
        _, requester, _, ct = run_toy_pipeline(toy, suite, m=b"")
        assert ct.c == b""
        assert unsigncrypt(ct, CAROL, ALICE.y, BIND, toy, suite) == b""


class TestGuards:
    def test_bad_commit(self, toy, suite, rng):
        with pytest.raises(BadCommit):
            bsc_requester_challenge(MSG, 11, CAROL.y, BIND, toy, suite, rng)

    def test_finalize_one_shot(self, toy, stub_suite):
        suite = pin_keyed_hash(stub_suite)
        _, requester, response, _ = run_toy_pipeline(toy, suite)
        assert requester.spent is True
        with pytest.raises(InvalidState):
            bsc_requester_finalize(requester, response.s_bar, toy)

    def test_signer_session_one_shot(self, toy):
        session, _ = bsc_signer_commit(ALICE, toy, ScriptRng([5]))
        bsc_signer_respond(session, 9, ALICE)
        with pytest.raises(InvalidState):
            bsc_signer_respond(session, 9, ALICE)

    def test_degenerate_denominator(self, toy, stub_suite):
        # alpha = 0 makes r + s_bar + alpha = 7 + 4 + 0 = 0 mod 11
        suite = pin_keyed_hash(stub_suite)
        signer_session, commit = bsc_signer_commit(ALICE, toy, ScriptRng([5]))
        requester, challenge = bsc_requester_challenge(
            MSG, commit.z, CAROL.y, BIND, toy, suite, ScriptRng([4, 2, 0]))
        response = bsc_signer_respond(signer_session, challenge.r_bar, ALICE)
        with pytest.raises(DegenerateDenominator):
            bsc_requester_finalize(requester, response.s_bar, toy)


def complete_bsc(signer, recipient, m, bind, params, suite, rng):
    while True:
        signer_session, commit = bsc_signer_commit(signer, params, rng)
        requester, challenge = bsc_requester_challenge(
            m, commit.z, recipient.y, bind, params, suite, rng)
        response = bsc_signer_respond(signer_session, challenge.r_bar, signer)
        try:
            return requester, bsc_requester_finalize(requester, response.s_bar, params)
        except DegenerateDenominator:
            continue


class TestRoundtrip:
    def test_random_messages_both_scales(self, toy, desk, suite):
        rng = random.Random(41)
        for params in (toy, desk):
            signer = keygen(params, rng)
            recipient = keygen(params, rng)
            for _ in range(60):
                m = rng.randbytes(rng.randrange(200))
                _, ct = complete_bsc(signer, recipient, m, BIND, params, suite, rng)
                assert unsigncrypt(ct, recipient, signer.y, BIND, params, suite) == m

    def test_message_size_sweep(self, desk, suite, rng):
        signer = keygen(desk, rng)
        recipient = keygen(desk, rng)
        for n in (0, 1, 4096, 65536):  # up to 64 KiB
            m = bytes(i % 256 for i in range(n))
            _, ct = complete_bsc(signer, recipient, m, BIND, desk, suite, rng)
            assert unsigncrypt(ct, recipient, signer.y, BIND, desk, suite) == m


class TestAlgebra:
    def test_key_agreement_identity(self, toy, suite):
        # y_C^u = (y_A * T * g^r)^(s * x_C) mod p over many honest sessions
        rng = random.Random(42)
        signer = keygen(toy, rng)
        recipient = keygen(toy, rng)
        for _ in range(1000):
            requester, ct = complete_bsc(signer, recipient, rng.randbytes(16),
                                         BIND, toy, suite, rng)
            assert modexp(recipient.y, requester.u, toy.p) == shared_element(
                ct, recipient, signer.y, toy)

    def test_signature_compatibility(self, desk, suite, rng):
        # the (r, s, T) triple recovers g^u under the blind-signature check
        signer = keygen(desk, rng)
        recipient = keygen(desk, rng)
        for _ in range(50):
            requester, ct = complete_bsc(signer, recipient, rng.randbytes(16),
                                         BIND, desk, suite, rng)
            assert key_power(signer.y * ct.T % desk.p, ct.r, ct.s, desk) == modexp(
                desk.g, requester.u, desk.p)


class TestRejection:
    def setup_ct(self, desk, suite, rng):
        signer = keygen(desk, rng)
        recipient = keygen(desk, rng)
        _, ct = complete_bsc(signer, recipient, MSG, BIND, desk, suite, rng)
        return signer, recipient, ct

    def test_ciphertext_bit_flip(self, desk, suite, rng):
        signer, recipient, ct = self.setup_ct(desk, suite, rng)
        bad = BlindSigncryptedText(c=flip_bit(ct.c, 0), r=ct.r, s=ct.s, T=ct.T)
        with pytest.raises(TagMismatch):
            unsigncrypt(bad, recipient, signer.y, BIND, desk, suite)

    def test_wrong_recipient(self, desk, suite, rng):
        signer, recipient, ct = self.setup_ct(desk, suite, rng)
        impostor = keygen(desk, rng)
        with pytest.raises(TagMismatch):
            unsigncrypt(ct, impostor, signer.y, BIND, desk, suite)

    def test_wrong_recipient_toy_vector(self, toy, stub_suite):
        suite = pin_keyed_hash(stub_suite)
        _, _, _, ct = run_toy_pipeline(toy, suite)
        other = KeyPair(x=5, y=modexp(2, 5, 23))
        with pytest.raises(TagMismatch):
            unsigncrypt(ct, other, ALICE.y, BIND, toy, suite)

    def test_wrong_signer_key(self, desk, suite, rng):
        signer, recipient, ct = self.setup_ct(desk, suite, rng)
        impostor = keygen(desk, rng)
        with pytest.raises(TagMismatch):
            unsigncrypt(ct, recipient, impostor.y, BIND, desk, suite)

    def test_bind_info_mismatch_hundred_trials(self, desk, suite, rng):
        signer = keygen(desk, rng)
        recipient = keygen(desk, rng)
        for _ in range(100):
            _, ct = complete_bsc(signer, recipient, MSG, BIND, desk, suite, rng)
            with pytest.raises(TagMismatch):
                unsigncrypt(ct, recipient, signer.y, b"to-eve", desk, suite)

    def test_non_canonical_re_encodings_rejected(self, desk, suite, rng):
        # s+q reaches the same shared element; strict range checks keep the
        # accepted wire form unique
        signer, recipient, ct = self.setup_ct(desk, suite, rng)
        for bad in (
            BlindSigncryptedText(c=ct.c, r=ct.r, s=ct.s + desk.q, T=ct.T),
            BlindSigncryptedText(c=ct.c, r=ct.r + desk.q, s=ct.s, T=ct.T),
            BlindSigncryptedText(c=ct.c, r=ct.r, s=ct.s, T=ct.T + desk.p),
            BlindSigncryptedText(c=ct.c, r=0, s=ct.s, T=ct.T),
        ):
            with pytest.raises(TagMismatch):
                unsigncrypt(bad, recipient, signer.y, BIND, desk, suite)

    def test_zero_r_refused_though_its_tag_matches(self, toy, stub_suite):
        # c is sealed under (y_A * T * g^0)^(s * x_C) with the keyed hash
        # pinned to 0, so only the range check on r refuses the text
        s, T = 8, 13
        shared = modexp(ALICE.y * T % toy.p, s * CAROL.x % toy.q, toy.p)
        stub_suite.stub_keyed_hash(derive_keys(shared, stub_suite).k2, kh_preimage(MSG, BIND), 0)
        r, c = seal(shared, MSG, BIND, toy, stub_suite)
        assert r == 0
        with pytest.raises(TagMismatch, match="scalar out of range"):
            unsigncrypt(BlindSigncryptedText(c=c, r=r, s=s, T=T), CAROL, ALICE.y, BIND,
                        toy, stub_suite)

    def test_T_out_of_range_refused(self, toy, stub_suite):
        # T = 0 and T = p give y_A * T = 0 mod p; the shared element is
        # refused like the open, not computed as 0
        suite = pin_keyed_hash(stub_suite)
        _, _, _, ct = run_toy_pipeline(toy, suite)
        for T in (0, toy.p):
            bad = dataclasses.replace(ct, T=T)
            with pytest.raises(TagMismatch, match="T out of range"):
                shared_element(bad, CAROL, ALICE.y, toy)
            with pytest.raises(TagMismatch, match="T out of range"):
                unsigncrypt(bad, CAROL, ALICE.y, BIND, toy, suite)


class TestChosenTagForgery:
    """The blind SDSS chosen-T forgery carried over: with T = y_A^-1 * g^t mod p,
    a Zheng text sealed to C under secret t opens under y_A, because the
    recipient's key is y_A * T = g^t."""

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="T is not bound to a signer session")
    def test_chosen_T_forgery_rejected(self, desk, suite, rng):
        signer, recipient, forger = keygen(desk, rng), keygen(desk, rng), keygen(desk, rng)
        T = pow(signer.y, -1, desk.p) * forger.y % desk.p
        ct = signcrypt(MSG, forger, recipient.y, BIND, desk, suite, rng)
        forged = BlindSigncryptedText(c=ct.c, r=ct.r, s=ct.s, T=T)
        try:
            opened = unsigncrypt(forged, recipient, signer.y, BIND, desk, suite)
        except TagMismatch:
            opened = None
        assert opened is None, f"a text sealed under a chosen T opened as {opened!r}"


NOT_IN_SUBGROUP = pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="not checked to lie in the order-q subgroup (ROADMAP item 1)")


class TestSubgroupAttacks:
    """T times p - 1, an element of order 2, multiplies C's shared element by
    (-1)^(s * x_C mod q): the text opens iff s * x_C mod q is even."""

    @NOT_IN_SUBGROUP
    def test_negated_T_rejected(self, desk, suite):
        rng = random.Random(5)
        signer, recipient = keygen(desk, rng), keygen(desk, rng)
        opened = 0
        for _ in range(40):
            _, ct = complete_bsc(signer, recipient, MSG, BIND, desk, suite, rng)
            bad = BlindSigncryptedText(c=ct.c, r=ct.r, s=ct.s, T=desk.p - ct.T)
            try:
                unsigncrypt(bad, recipient, signer.y, BIND, desk, suite)
                opened += 1
            except TagMismatch:
                pass
        assert opened == 0, f"{opened} of 40 honest texts opened with p - T"

    @NOT_IN_SUBGROUP
    def test_parity_oracle_rejected(self, desk, suite):
        # Seal under y_C^k, pick s = 2^i and t = k * s^-1 - r mod q, so that
        # T = y_A^-1 * g^t opens honestly; T * (p - 1) then opens iff
        # 2^i * x_C mod q is even, whose answers for i = 1..160 are the binary
        # digits of x_C / q (Alexi-Chor-Goldreich-Schnorr).
        p, q, g = desk.p, desk.q, desk.g
        rng = random.Random(7)
        signer, recipient = keygen(desk, rng), keygen(desk, rng)
        k = rng.randrange(1, q)
        r, c = seal(modexp(recipient.y, k, p), MSG, BIND, desk, suite)
        digits = 0
        for i in range(1, 161):
            s = pow(2, i, q)
            T = pow(signer.y, -1, p) * modexp(g, (k * pow(s, -1, q) - r) % q, p) % p
            try:
                unsigncrypt(BlindSigncryptedText(c=c, r=r, s=s, T=p - T), recipient,
                            signer.y, BIND, desk, suite)
                digits <<= 1
            except TagMismatch:
                digits = digits << 1 | 1
        accepted = 160 - bin(digits).count("1")
        recovered = -(-digits * q >> 160)  # ceil(q * 0.d1..d160), exact since q < 2^160
        assert accepted == 0, (f"{accepted} of 160 queries opened; the answers "
                               f"{'give' if recovered == recipient.x else 'miss'} x_C")


# q = 11 in both; 23 - 1 = 2 * 11 and 67 - 1 = 6 * 11, so Z_67* also holds
# elements of order 3 and 6
EVERY_T_PARAMS = {"p23": TOY23, "p67": validate_params((67, 11, 64))}


@functools.cache
def opened_by_every_T(name):
    """For 8 seeded honest texts, each text's T and the set of T in Z_p* under
    which the text, otherwise unchanged, opens."""
    params, suite = EVERY_T_PARAMS[name], std_suite()
    rng = random.Random(params.p)
    signer, recipient = keygen(params, rng), keygen(params, rng)
    results = []
    for _ in range(8):
        _, ct = complete_bsc(signer, recipient, MSG, BIND, params, suite, rng)
        opened = set()
        for T in range(1, params.p):
            try:
                unsigncrypt(dataclasses.replace(ct, T=T), recipient, signer.y, BIND,
                            params, suite)
                opened.add(T)
            except TagMismatch:
                pass
        results.append((ct.T, opened))
    return results


@pytest.mark.parametrize("name", sorted(EVERY_T_PARAMS))
class TestEveryT:
    """Every T in Z_p* against honest texts. Inside the order-q subgroup a T
    other than the honest one opens a text only by a keyed-hash collision mod
    q, which at q = 11 happens for about one T in 11."""

    def test_honest_T_opens(self, name):
        for honest_T, opened in opened_by_every_T(name):
            assert honest_T in opened

    @NOT_IN_SUBGROUP
    def test_no_T_outside_the_subgroup_opens(self, name):
        p, q = EVERY_T_PARAMS[name].p, EVERY_T_PARAMS[name].q
        outside = [sum(pow(T, q, p) != 1 for T in opened)
                   for _, opened in opened_by_every_T(name)]
        assert sum(outside) == 0, f"T outside the subgroup opened texts: {outside}"
