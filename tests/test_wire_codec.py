import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blindsigncrypt.blind_sdss import (
    BlindSignature,
    ChallengeMsg,
    CommitMsg,
    RequesterSession,
    ResponseMsg,
    SignerSession,
)
from blindsigncrypt.blind_signcrypt import BlindSigncryptedText, BscRequesterSession
from blindsigncrypt.errors import (
    ArmorError,
    BadMagic,
    NonCanonicalInteger,
    TrailingBytes,
    Truncated,
    UnknownType,
    WireError,
)
from blindsigncrypt.group_math import GroupParams
from blindsigncrypt.sdss import SdssSignature
from blindsigncrypt.wire_codec import PubKeyMsg, armor, dearmor, decode, encode
from blindsigncrypt.zheng import SigncryptedText

ints = st.integers(min_value=0, max_value=2**521 - 1)
blobs = st.binary(max_size=300)
params = st.builds(GroupParams, p=ints, q=ints, g=ints)
blinding = dict(params=params, u=ints, alpha=ints, beta=ints, r=ints, T=ints,
                spent=st.booleans())

value_strategies = st.one_of(
    params,
    st.builds(PubKeyMsg, y=ints),
    st.builds(CommitMsg, z=ints),
    st.builds(ChallengeMsg, r_bar=ints),
    st.builds(ResponseMsg, s_bar=ints),
    st.builds(SdssSignature, r=ints, s=ints),
    st.builds(SigncryptedText, c=blobs, r=ints, s=ints),
    st.builds(BlindSigncryptedText, c=blobs, r=ints, s=ints, T=ints),
    st.builds(BlindSignature, r=ints, s=ints, T=ints),
    st.builds(SignerSession, params=params, k_tilde=ints, spent=st.booleans()),
    st.builds(RequesterSession, **blinding, m=blobs, signer_pub=ints),
    st.builds(BscRequesterSession, **blinding, c=blobs),
)


class TestRoundtrip:
    @given(value_strategies, st.sampled_from(["std-v1", "toy-v1"]))
    @settings(max_examples=400, deadline=None)
    def test_decode_encode_identity(self, value, suite_id):
        data = encode(value, suite_id)
        decoded, sid = decode(data)
        assert decoded == value
        assert sid == suite_id
        # canonicality: re-encoding reproduces the exact bytes
        assert encode(decoded, sid) == data

    def test_deterministic_bytes(self):
        ct = BlindSigncryptedText(c=b"\xff\x00", r=7, s=8, T=13)
        same = BlindSigncryptedText(c=b"\xff\x00", r=7, s=8, T=13)
        assert encode(ct) == encode(same)

    def test_commit_exact_layout(self):
        # magic, type 0x03, suite_id "toy-v1", one int field: len(1) || 0x09
        data = encode(CommitMsg(z=9), "toy-v1")
        assert data == b"BSC1" + b"\x03" + b"\x00\x06" + b"toy-v1" + b"\x00\x01" + b"\x09"

    def test_zero_int_encodes_empty(self):
        data = encode(ChallengeMsg(r_bar=0), "x")
        assert data.endswith(b"\x00\x00")
        assert decode(data)[0] == ChallengeMsg(r_bar=0)

    def test_non_wire_type_rejected(self):
        with pytest.raises(TypeError):
            encode(object())


class TestNamedErrors:
    def test_bad_magic(self):
        with pytest.raises(BadMagic):
            decode(b"NOPE" + b"\x03\x00\x00\x00\x01\x09")
        with pytest.raises(BadMagic):
            decode(b"")

    def test_unknown_type(self):
        with pytest.raises(UnknownType):
            decode(b"BSC1" + b"\x7f" + b"\x00\x00")

    def test_missing_type_byte(self):
        with pytest.raises(Truncated):
            decode(b"BSC1")

    def test_truncated_everywhere(self):
        data = encode(BlindSigncryptedText(c=b"abc", r=7, s=8, T=13), "std-v1")
        for cut in range(5, len(data)):
            with pytest.raises(Truncated):
                decode(data[:cut])

    def test_non_canonical_integer(self):
        # CommitMsg z=9 with the payload padded to two bytes: 0x00 0x09
        data = b"BSC1" + b"\x03" + b"\x00\x01" + b"x" + b"\x00\x02" + b"\x00\x09"
        with pytest.raises(NonCanonicalInteger):
            decode(data)

    def test_bool_other_than_0_or_1(self):
        data = encode(SignerSession(GroupParams(23, 11, 4), k_tilde=7, spent=True), "x")
        assert data.endswith(b"\x00\x01\x01")
        with pytest.raises(NonCanonicalInteger, match="spent"):
            decode(data[:-1] + b"\x02")

    def test_wide_bool_named_by_its_size(self):
        # spent holding 2001 bytes; str() of it raises ValueError (Python 3.11+)
        data = encode(SignerSession(GroupParams(23, 11, 4), k_tilde=7, spent=True), "x")
        wide = data[:-3] + (2001).to_bytes(2, "big") + b"\x01" + bytes(2000)
        with pytest.raises(NonCanonicalInteger,
                           match="^field spent must be 0 or 1, not a 16001-bit integer$"):
            decode(wide)

    def test_non_canonical_integer_inside_params(self):
        # SignerSession: params p, q, g, then k_tilde and spent (0 is empty)
        head = b"BSC1" + b"\x0a" + b"\x00\x01" + b"x"
        body = b"\x00\x01\x0b" + b"\x00\x01\x04" + b"\x00\x01\x07" + b"\x00\x00"
        data = encode(SignerSession(GroupParams(23, 11, 4), k_tilde=7, spent=False), "x")
        assert data == head + b"\x00\x01\x17" + body
        # p = 23 padded to two bytes: 0x00 0x17
        with pytest.raises(NonCanonicalInteger, match="params.p"):
            decode(head + b"\x00\x02\x00\x17" + body)

    def test_trailing_bytes(self):
        data = encode(CommitMsg(z=9), "std-v1") + b"\x00"
        with pytest.raises(TrailingBytes):
            decode(data)

    def test_declared_length_beyond_input(self):
        data = b"BSC1" + b"\x03" + b"\x00\x01" + b"x" + b"\xff\xff" + b"\x09"
        with pytest.raises(Truncated):
            decode(data)


class TestFuzz:
    def test_random_garbage_never_crashes(self):
        rng = random.Random(1234)
        for _ in range(10_000):
            blob = rng.randbytes(rng.randrange(64))
            try:
                decode(blob)
            except WireError:
                pass

    def test_mutated_valid_messages_never_crash(self):
        rng = random.Random(4321)
        for value in (BlindSigncryptedText(c=b"payload", r=7, s=8, T=13),
                      RequesterSession(GroupParams(23, 11, 4), u=3, alpha=5, beta=6, r=7,
                                       T=13, spent=True, m=b"payload", signer_pub=9)):
            base = encode(value, "std-v1")
            for _ in range(10_000):
                blob = bytearray(base)
                for _ in range(rng.randrange(1, 4)):
                    blob[rng.randrange(len(blob))] = rng.randrange(256)
                try:
                    decode(bytes(blob))
                except WireError:
                    pass

    @given(value_strategies, st.data())
    @settings(max_examples=300, deadline=None)
    def test_mutated_values_never_crash(self, value, data):
        blob = bytearray(encode(value, "std-v1"))
        for _ in range(data.draw(st.integers(1, 3))):
            blob[data.draw(st.integers(0, len(blob) - 1))] = data.draw(st.integers(0, 255))
        try:
            decoded, sid = decode(bytes(blob))
        except WireError:
            return
        assert encode(decoded, sid) == blob  # decode(b) = v implies encode(v) = b

    @given(st.binary(max_size=128))
    @settings(max_examples=300, deadline=None)
    def test_hypothesis_fuzz(self, blob):
        try:
            decode(blob)
        except WireError:
            pass


class TestArmor:
    @given(st.binary(max_size=500))
    @settings(max_examples=100, deadline=None)
    def test_roundtrip(self, data):
        assert dearmor(armor(data)) == data

    def test_header_required(self):
        with pytest.raises(ArmorError):
            dearmor("deadbeef\n")

    def test_bad_hex(self):
        with pytest.raises(ArmorError):
            dearmor("BSC1-ARMOR-V1\nnot-hex!\n")

    def test_wrapped_lines(self):
        data = bytes(range(200))
        text = armor(data)
        assert all(len(line) <= 72 for line in text.splitlines())
        assert dearmor(text) == data
