import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import ScriptRng, flip_bit, two_step_commitment, two_step_shared_element
from blindsigncrypt import blind_signcrypt
from blindsigncrypt.errors import RngFailure
from blindsigncrypt.group_math import DESK512, TOY23, GroupParams, int_to_bytes, modexp
from blindsigncrypt.sdss import (
    KeyPair,
    SdssSignature,
    key_power,
    keygen,
    sign,
    verify,
)

MSG = b"attack at dawn"


def stubbed(toy_suite, k, params, m, value):
    """Pin the signature hash of g^k mod p with message m."""
    toy_suite.stub_hash(int_to_bytes(modexp(params.g, k, params.p)) + m, value)
    return toy_suite


class TestKeygen:
    def test_worked_vector(self, toy):
        key = keygen(toy, ScriptRng([3]))
        assert key == KeyPair(x=3, y=8)

    def test_zero_secret_resampled(self, toy):
        key = keygen(toy, ScriptRng([0, 3]))
        assert key.x == 3

    def test_seeded_determinism(self, toy):
        assert keygen(toy, random.Random(9)) == keygen(toy, random.Random(9))


class TestSign:
    def test_worked_vector(self, toy, stub_suite):
        # x=3, k=5, pinned r=7: s = 5 * inv(7 + 3) = 5 * 10 = 6 mod 11
        suite = stubbed(stub_suite, 5, toy, MSG, 7)
        sig = sign(MSG, KeyPair(x=3, y=8), toy, suite, ScriptRng([5], fallback_seed=1))
        assert sig == SdssSignature(r=7, s=6)

    def test_degenerate_r_plus_x_retries(self, toy, stub_suite):
        # pinned r=8 with x=3 makes r + x = 0 mod 11; a fresh nonce recovers
        suite = stubbed(stub_suite, 5, toy, MSG, 8)
        rng = ScriptRng([5], fallback_seed=2)
        sig = sign(MSG, KeyPair(x=3, y=8), toy, suite, rng)
        assert rng.exhausted  # the scripted nonce was consumed, then retried
        assert sig.r != 8
        assert verify(MSG, sig, 8, toy, suite)

    def test_zero_r_retries(self, toy, stub_suite):
        suite = stubbed(stub_suite, 5, toy, MSG, 0)
        sig = sign(MSG, KeyPair(x=3, y=8), toy, suite, ScriptRng([5], fallback_seed=3))
        assert sig.r != 0

    def test_sign_with_nonce_reports_degenerate(self, toy, stub_suite):
        # k = 5 is degenerate, so sign draws again and finds the script spent
        suite = stubbed(stub_suite, 5, toy, MSG, 8)
        with pytest.raises(RngFailure):
            sign(MSG, KeyPair(x=3, y=8), toy, suite, ScriptRng([5]))


class TestVerify:
    def test_worked_vector(self, toy, stub_suite):
        # K = (8 * 2^7)^6 = 12^6 = 9 = g^5 mod 23
        suite = stubbed(stub_suite, 5, toy, MSG, 7)
        assert key_power(8, 7, 6, toy) == 9
        assert verify(MSG, SdssSignature(r=7, s=6), 8, toy, suite)

    def test_flipped_message_rejected(self, toy, stub_suite):
        suite = stubbed(stub_suite, 5, toy, MSG, 7)
        assert not verify(MSG + b"!", SdssSignature(r=7, s=6), 8, toy, suite)

    def test_bumped_s_rejected(self, toy, stub_suite):
        suite = stubbed(stub_suite, 5, toy, MSG, 7)
        assert not verify(MSG, SdssSignature(r=7, s=7), 8, toy, suite)

    def test_commitment_recovered_inside_verify(self, toy, suite):
        # for an honest signature, verification sees exactly g^k mod p
        key = keygen(toy, random.Random(4))
        for k in range(1, toy.q):
            try:
                sig = sign(MSG, key, toy, suite, ScriptRng([k]))
            except RngFailure:
                continue  # k is degenerate
            assert key_power(key.y, sig.r, sig.s, toy) == modexp(toy.g, k, toy.p)


class TestRoundtrip:
    def test_thousand_toy_sessions(self, toy, suite):
        rng = random.Random(101)
        for i in range(1000):
            m = rng.randbytes(rng.randrange(64))
            key = keygen(toy, rng)
            assert verify(m, sign(m, key, toy, suite, rng), key.y, toy, suite)

    def test_thousand_desk_sessions(self, desk, suite):
        rng = random.Random(102)
        key = keygen(desk, rng)
        for i in range(1000):
            m = rng.randbytes(rng.randrange(64))
            assert verify(m, sign(m, key, desk, suite, rng), key.y, desk, suite)

    def test_single_bit_perturbations_rejected(self, desk, suite):
        rng = random.Random(103)
        key = keygen(desk, rng)
        m = b"immutable payload"
        sig = sign(m, key, desk, suite, rng)
        for _ in range(100):
            target = rng.randrange(3)
            if target == 0:
                bad = SdssSignature(r=sig.r ^ (1 << rng.randrange(sig.r.bit_length())), s=sig.s)
                assert not verify(m, bad, key.y, desk, suite)
            elif target == 1:
                bad = SdssSignature(r=sig.r, s=sig.s ^ (1 << rng.randrange(sig.s.bit_length())))
                assert not verify(m, bad, key.y, desk, suite)
            else:
                bad_m = flip_bit(m, rng.randrange(len(m) * 8))
                assert not verify(bad_m, sig, key.y, desk, suite)


# g of order q in each; every Z_p* has p - 1 of order 2, and desk512's
# (p - 1) / q = 2 * 3 * c also has elements of order 3
SPLIT_PARAMS = (TOY23, GroupParams(p=47, q=23, g=2), GroupParams(p=59, q=29, g=4), DESK512)


def small_order_elements(p):
    """1, p - 1 and, when 3 divides p - 1, both elements of order 3."""
    found = [1, p - 1]
    if (p - 1) % 3 == 0:
        omega = next(w for w in (pow(h, (p - 1) // 3, p) for h in range(2, p)) if w != 1)
        found += [omega, omega * omega % p]
    return found


@st.composite
def verifier_inputs(draw):
    """A parameter set, r, s and x in [1, q - 1], and y and T anywhere in
    Z_p*, often multiplied by an element of order 2 or 3."""
    params = draw(st.sampled_from(SPLIT_PARAMS))
    p, q = params.p, params.q
    scalar = st.integers(1, q - 1)
    twist = st.sampled_from(small_order_elements(p))
    y = draw(st.integers(1, p - 1)) * draw(twist) % p
    T = draw(st.integers(1, p - 1)) * draw(twist) % p
    return params, draw(scalar), draw(scalar), draw(scalar), y, T


class TestSplitFormula:
    """Every verifier and recipient power, sdss.key_power under y or the one-time
    key y * T and blind_signcrypt.shared_element, agrees with builtin pow for
    every y and T in Z_p*, inside the order-q subgroup or not."""

    @settings(max_examples=300, deadline=None)
    @given(verifier_inputs())
    def test_recover_commitment_equals_two_step(self, inputs):
        params, r, s, _, y, T = inputs
        assert key_power(y, r, s, params) == two_step_commitment(r, s, y, params)
        assert key_power(y * T % params.p, r, s, params) == \
            two_step_commitment(r, s, y * T % params.p, params)

    @settings(max_examples=300, deadline=None)
    @given(verifier_inputs())
    def test_shared_element_equals_two_step(self, inputs):
        params, r, s, x, y, T = inputs
        recipient = KeyPair(x=x, y=pow(params.g, x, params.p))
        assert key_power(y, r, s * x % params.q, params) == \
            two_step_shared_element(r, s, x, y, params)
        text = blind_signcrypt.BlindSigncryptedText(c=b"", r=r, s=s, T=T)
        assert blind_signcrypt.shared_element(text, recipient, y, params) == \
            two_step_shared_element(r, s, x, y * T % params.p, params)
