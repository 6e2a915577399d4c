"""Command-line driver: every scheme, plus file-based blind sessions.

All cryptographic logic lives in the library modules; this module only moves
bytes between files and library calls. Exit codes: 0 success, 1 verification
or tag failure, 2 usage/input error.

Multi-invocation blind sessions need the one-shot nonces (k_tilde, u) to
survive between processes. They are persisted only under --test-mode, as the
session's wire message in a state file, encrypted and MAC'd under a key
derived from the seed; in normal mode the whole session must run inside one
process, so the session subcommands refuse to write state.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import hmac
import json
import os
import random
import secrets
import stat
import sys

from . import blind_sdss, blind_signcrypt, harness, sdss, wire_codec, zheng
from .crypto_suite import CryptoSuite, std_suite
from .errors import (
    ArmorError,
    BadGenerator,
    NotPrime,
    OrderMismatch,
    ProtocolError,
    TagMismatch,
    WireError,
)
from .group_math import NAMED_PARAMS, GroupParams, generate_params, int_to_bytes, validate_params

_STATE_LABEL = b"blindsigncrypt-state-v1:"

# The suite of every message the CLI reads or writes. The only other suite,
# toy-v1, exists for pinning hash outputs in library tests, which a CLI run
# cannot do.
SUITE_ID = CryptoSuite.suite_id

_SCHEME_NAMES = {"blind": "blind_sdss", "bsc": "blind_signcrypt"}

# The largest message file a command reads. The schemes hold a whole message,
# its keystream and its ciphertext in memory at once, so a larger or hostile
# file is refused before it is read rather than left to exhaust memory.
MAX_MESSAGE_BYTES = 8 << 20
# Every other file (armor, state, keys) may hold one such message: armor is hex
# in 72-character lines, ~2.03 bytes per byte, and a requester state file holds
# the message's bytes once inside its armor, ~2.04 bytes per message byte with
# its fixed fields, until finalize drops them.
_MAX_FILE_BYTES = 3 * MAX_MESSAGE_BYTES

# Key files hold the secret x, and a state file holds a nonce under a key
# derived from the public seed; only their owner may read either.
_SECRET_MODE = 0o600


class VerifyFailure(Exception):
    """Command-level rejection; mapped to exit code 1."""


class UsageFailure(Exception):
    """Command-level usage/input problem; mapped to exit code 2."""


# -- file helpers ----------------------------------------------------------------

def _read_input(path: str, limit: int = _MAX_FILE_BYTES) -> bytes:
    """The bytes of a file of at most `limit` bytes; a larger one is refused
    with a UsageFailure before it is read.

    The read asks for the size fstat reports plus one probe byte, so what it
    allocates is bounded by the file, not by the limit. Only when the probe
    byte arrives (a pipe or a device, which report no size, or a file that
    grew since fstat) does it read on, up to one byte past the limit. Each
    further read asks for at most as many bytes as are already held, so
    what it allocates stays bounded by the input, and the reads are joined
    once."""
    too_large = UsageFailure(f"{path} is larger than the limit of {limit} bytes")
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        if size > limit:
            raise too_large
        chunks = [f.read(size + 1)]
        total = len(chunks[0])
        while size < total <= limit and (chunk := f.read1(min(total, limit + 1 - total))):
            chunks.append(chunk)
            total += len(chunk)
    if total > limit:
        raise too_large
    return b"".join(chunks)  # one chunk is returned as it is, not copied


def _write_output(path: str, data: bytes, mode: int = 0o666) -> None:
    """Write data to path, overwriting in place and then cutting a regular
    file that was longer than data to len(data). Opening with O_TRUNC instead
    makes ext4 (auto_da_alloc) start writeback when the file is closed, which
    costs many times the write itself for a small file. Like O_TRUNC, this is
    not atomic: a crash mid-write can leave a mix of old and new bytes. The
    bytes go straight to os.write, repeated after a short write, so nothing
    is allocated beyond data itself.

    A new file gets `mode` less the umask. An existing regular file that lets
    group or others read or write more than `mode` does is narrowed to `mode`
    before any byte is written. A device such as /dev/null or /dev/stdout is
    written to and left as it is."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), mode)
    try:
        st = os.fstat(fd)
        regular = stat.S_ISREG(st.st_mode)
        if regular and st.st_mode & ~mode & 0o066:
            os.fchmod(fd, stat.S_IMODE(st.st_mode) & mode)
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
        if regular and st.st_size > len(data):
            os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


def _parse_json(data: bytes, path: str):
    """json.loads of a key file, refusing input that is not JSON, or JSON nested
    deeper than the parser's recursion limit, with a UsageFailure naming path."""
    try:
        return json.loads(data)
    except RecursionError:
        raise UsageFailure(f"{path} nests its JSON too deeply") from None
    except ValueError as exc:
        raise UsageFailure(f"{path} is not a key file: {exc}") from None


def _read_armor(path: str) -> bytes:
    """The bytes inside an armored file; a file that is not armored text exits 2
    naming path."""
    try:
        return wire_codec.dearmor(_read_input(path).decode())
    except UnicodeDecodeError:
        raise UsageFailure(f"{path} is not an armored file: it is not UTF-8 text") from None
    except ArmorError as exc:
        raise UsageFailure(f"{path} is not an armored file: {exc}") from None


def _read_params(value: str) -> GroupParams:
    """A built-in set's name, or a parameter file that passes validate_params
    (its named errors exit 2)."""
    if value in NAMED_PARAMS:
        return NAMED_PARAMS[value]
    params = _read_wire(value, GroupParams)
    return validate_params((params.p, params.q, params.g))


def _read_key(path: str, params: GroupParams) -> sdss.KeyPair:
    """Load a key file, accepting only integers with 1 <= x < q and y = g^x mod p."""
    data = _parse_json(_read_input(path), path)
    x, y = (data.get("x"), data.get("y")) if isinstance(data, dict) else (None, None)
    if type(x) is not int or type(y) is not int:  # type(), so that JSON true is refused
        raise UsageFailure(f"{path} is not a key file: x and y must be integers")
    if not 0 < x < params.q:
        raise UsageFailure(f"{path}: secret x is outside [1, q-1]")
    if sdss.public_key(x, params) != y:
        raise UsageFailure(f"{path}: public y is not g^x mod p for these parameters")
    return sdss.KeyPair(x=x, y=y)


def _read_pub(path: str, params: GroupParams) -> int:
    """A public key y with 1 < y < p. A key of 0 or 1 mod p lets anyone forge
    signatures under it; a key outside the order-q subgroup still passes."""
    y = _read_wire(path, wire_codec.PubKeyMsg).y
    if not 1 < y < params.p:
        raise UsageFailure(f"{path}: public y is outside [2, p-1]")
    return y


def _read_wire(path: str, expect: type):
    """The message in an armored wire file, checked by _decode."""
    return _decode(_read_armor(path), path, expect)


def _decode(blob: bytes, path: str, expect: type):
    """The message that blob, read from path, encodes; a message that does not
    decode, is not an `expect` or names a suite other than SUITE_ID exits 2
    naming path."""
    try:
        obj, suite_id = wire_codec.decode(blob)
    except WireError as exc:
        raise UsageFailure(f"{path}: {exc}") from None
    if not isinstance(obj, expect):
        raise UsageFailure(f"{path} holds {type(obj).__name__}, expected {expect.__name__}")
    if suite_id != SUITE_ID:
        raise UsageFailure(f"{path}: unknown suite {suite_id!r}")
    return obj


def _write_wire(path: str, obj) -> None:
    _write_output(path, wire_codec.armor(wire_codec.encode(obj, SUITE_ID)).encode())


# -- encrypted session state (test mode only) -------------------------------------

def _state_key(seed: int) -> bytes:
    return hashlib.sha256(_STATE_LABEL + str(seed).encode()).digest()


def _save_state(path: str, session, args) -> None:
    if not args.test_mode:
        raise UsageFailure(
            "session state files exist only under --test-mode; in normal mode "
            "run the whole session in one process")
    key = _state_key(args.seed)
    suite = std_suite()
    ct = suite.cipher_encrypt(key, wire_codec.encode(session, SUITE_ID))
    tag = suite.keyed_hash(key, ct)
    _write_output(path, wire_codec.armor(tag + ct).encode(), _SECRET_MODE)


def _load_state(path: str, args, session_cls: type, params: GroupParams):
    """Open a state file and rebuild the session_cls it must hold."""
    if not args.test_mode:
        raise UsageFailure("session state files exist only under --test-mode")
    blob = _read_armor(path)
    key = _state_key(args.seed)
    suite = std_suite()
    tag, ct = blob[:32], blob[32:]
    if not hmac.compare_digest(tag, suite.keyed_hash(key, ct)):
        raise UsageFailure(f"cannot open {path}: wrong seed or corrupted state")
    session = _decode(suite.cipher_encrypt(key, ct), path, session_cls)
    if session.params != params:
        raise UsageFailure(f"{path} was made under other group parameters")
    return session


def _bind_info(args, recipient_pub: int) -> bytes:
    if args.bind_info is not None:
        return args.bind_info.encode()
    return int_to_bytes(recipient_pub)  # default: recipient identity


# -- commands ----------------------------------------------------------------------

def cmd_params_gen(args) -> int:
    params = generate_params(args.bits_p, args.bits_q, args.rng)
    _write_wire(args.out, params)
    print(f"wrote {args.bits_p}/{args.bits_q}-bit parameters to {args.out}")
    return 0


def cmd_params_validate(args) -> int:
    try:
        params = _read_params(args.params)
        if args.params in NAMED_PARAMS:  # a file was validated as it was read
            validate_params((params.p, params.q, params.g))
    except (NotPrime, OrderMismatch, BadGenerator) as exc:
        print(f"invalid: {exc}", file=sys.stderr)
        return 1
    print("parameters ok")
    return 0


def cmd_keygen(args) -> int:
    params = _read_params(args.params)
    key = sdss.keygen(params, args.rng)
    _write_output(args.out, (json.dumps({"x": key.x, "y": key.y}) + "\n").encode(),
                  _SECRET_MODE)
    if args.pub_out:
        _write_wire(args.pub_out, wire_codec.PubKeyMsg(y=key.y))
    print(f"wrote key pair to {args.out}")
    return 0


def cmd_sdss_sign(args) -> int:
    params = _read_params(args.params)
    key = _read_key(args.key, params)
    m = _read_input(args.infile, MAX_MESSAGE_BYTES)
    sig = sdss.sign(m, key, params, std_suite(), args.rng)
    _write_wire(args.out, sig)
    return 0


def cmd_verify(args) -> int:
    """sdss verify and blind verify. The parser sets args.lib (the scheme's
    module), args.wire (its signature class) and args.pub_dest (the dest of
    its signer key flag)."""
    params = _read_params(args.params)
    sig = _read_wire(args.sig, args.wire)
    m = _read_input(args.infile, MAX_MESSAGE_BYTES)
    signer_pub = _read_pub(getattr(args, args.pub_dest), params)
    if not args.lib.verify(m, sig, signer_pub, params, std_suite()):
        raise VerifyFailure("signature rejected")
    print("signature ok")
    return 0


def cmd_zheng_seal(args) -> int:
    params = _read_params(args.params)
    key = _read_key(args.key, params)
    recipient_pub = _read_pub(args.recipient_pub, params)
    m = _read_input(args.infile, MAX_MESSAGE_BYTES)
    ct = zheng.signcrypt(m, key, recipient_pub, _bind_info(args, recipient_pub),
                         params, std_suite(), args.rng)
    _write_wire(args.out, ct)
    return 0


def cmd_open(args) -> int:
    """zheng open and bsc open, set up by the parser as for cmd_verify."""
    params = _read_params(args.params)
    key = _read_key(args.key, params)
    ct = _read_wire(args.infile, args.wire)
    m = args.lib.unsigncrypt(ct, key, _read_pub(getattr(args, args.pub_dest), params),
                             _bind_info(args, key.y), params, std_suite())
    _write_output(args.out, m)
    print(f"recovered {len(m)} bytes", file=sys.stderr)  # --out may be /dev/stdout
    return 0


def cmd_session_commit(args) -> int:
    params = _read_params(args.params)
    key = _read_key(args.key, params)
    session, commit = blind_sdss.signer_commit(key, params, args.rng)
    _save_state(args.state_out, session, args)
    _write_wire(args.out, commit)
    return 0


def cmd_blind_challenge(args) -> int:
    params = _read_params(args.params)
    commit = _read_wire(args.commit, blind_sdss.CommitMsg)
    m = _read_input(args.infile, MAX_MESSAGE_BYTES)
    session, challenge = blind_sdss.requester_challenge(
        m, commit.z, _read_pub(args.signer_pub, params), params, std_suite(), args.rng)
    _save_state(args.state_out, session, args)
    _write_wire(args.out, challenge)
    return 0


def cmd_session_respond(args) -> int:
    params = _read_params(args.params)
    key = _read_key(args.key, params)
    session = _load_state(args.state, args, blind_sdss.SignerSession, params)
    challenge = _read_wire(args.challenge, blind_sdss.ChallengeMsg)
    response = blind_sdss.signer_respond(session, challenge.r_bar, key)
    _save_state(args.state, session, args)
    _write_wire(args.out, response)
    return 0


def cmd_blind_finalize(args) -> int:
    params = _read_params(args.params)
    session = _load_state(args.state, args, blind_sdss.RequesterSession, params)
    response = _read_wire(args.response, blind_sdss.ResponseMsg)
    sig = blind_sdss.requester_finalize(session, response.s_bar, params)
    m, session.m = session.m, b""  # a spent session's m is never read again
    _save_state(args.state, session, args)
    if not blind_sdss.verify(m, sig, session.signer_pub, params, std_suite()):
        raise VerifyFailure("unblinded signature failed verification")
    _write_wire(args.out, sig)
    return 0


def cmd_bsc_challenge(args) -> int:
    params = _read_params(args.params)
    commit = _read_wire(args.commit, blind_sdss.CommitMsg)
    recipient_pub = _read_pub(args.recipient_pub, params)
    m = _read_input(args.infile, MAX_MESSAGE_BYTES)
    session, challenge = blind_signcrypt.bsc_requester_challenge(
        m, commit.z, recipient_pub, _bind_info(args, recipient_pub), params,
        std_suite(), args.rng)
    _save_state(args.state_out, session, args)
    _write_wire(args.out, challenge)
    return 0


def cmd_bsc_finalize(args) -> int:
    params = _read_params(args.params)
    session = _load_state(args.state, args, blind_signcrypt.BscRequesterSession, params)
    response = _read_wire(args.response, blind_sdss.ResponseMsg)
    ct = blind_signcrypt.bsc_requester_finalize(session, response.s_bar, params)
    session.c = b""  # a spent session's c is never read again
    _save_state(args.state, session, args)
    _write_wire(args.out, ct)
    return 0


def cmd_bench(args) -> int:
    params = _read_params(args.params)
    report = harness.measure_exponentiation_counts(
        _SCHEME_NAMES[args.scheme], params, std_suite(), args.rng)
    if args.party and args.party not in report.counts:
        raise UsageFailure(f"scheme {args.scheme} has no party {args.party}; "
                           f"its parties are {', '.join(report.counts)}")
    for line in report.lines():
        if args.party and line.startswith("party ") and not line.startswith(f"party {args.party}:"):
            continue
        print(line)
    return 0


# -- parser -------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parse_args keeps no state
    between calls, so every main() call can share it."""
    parser = argparse.ArgumentParser(
        prog="blindsigncrypt",
        description="Blind signcryption toolkit: SDSS / Zheng / blind sessions")
    parser.add_argument("--test-mode", action="store_true",
                        help="deterministic seeded RNG and persistable session state")
    parser.add_argument("--seed", type=int, default=None,
                        help="RNG seed (requires --test-mode; default 0)")
    sub = parser.add_subparsers(dest="command", required=True)

    psub = _group(sub, "params", "group parameter handling")
    gen = _command(psub, "gen", cmd_params_gen)
    gen.add_argument("--bits-p", type=int, default=512)
    gen.add_argument("--bits-q", type=int, default=160)
    gen.add_argument("--out", required=True)
    _command(psub, "validate", cmd_params_validate, "--params")

    _command(sub, "keygen", cmd_keygen, "--params", "--out", optional=("--pub-out",),
             help="generate a key pair")

    ssub = _group(sub, "sdss", "shortened DSS signatures")
    _command(ssub, "sign", cmd_sdss_sign, "--params", "--key", "--in", "--out")
    _command(ssub, "verify", cmd_verify, "--params", "--pub", "--in", "--sig").set_defaults(
        lib=sdss, wire=sdss.SdssSignature, pub_dest="pub")

    zsub = _group(sub, "zheng", "signcryption")
    _command(zsub, "seal", cmd_zheng_seal, "--params", "--key", "--recipient-pub", "--in",
             "--out", optional=("--bind-info",))
    _command(zsub, "open", cmd_open, "--params", "--key", "--sender-pub", "--in",
             "--out", optional=("--bind-info",)).set_defaults(
        lib=zheng, wire=zheng.SigncryptedText, pub_dest="sender_pub")

    bsub = _group(sub, "blind", "blind signature session")
    _command(bsub, "commit", cmd_session_commit, "--params", "--key", "--state-out", "--out")
    _command(bsub, "challenge", cmd_blind_challenge, "--params", "--signer-pub", "--in",
             "--commit", "--state-out", "--out")
    _command(bsub, "respond", cmd_session_respond, "--params", "--key", "--state",
             "--challenge", "--out")
    _command(bsub, "finalize", cmd_blind_finalize, "--params", "--state", "--response", "--out")
    _command(bsub, "verify", cmd_verify, "--params", "--signer-pub", "--in", "--sig").set_defaults(
        lib=blind_sdss, wire=blind_sdss.BlindSignature, pub_dest="signer_pub")

    csub = _group(sub, "bsc", "blind signcryption session")
    _command(csub, "commit", cmd_session_commit, "--params", "--key", "--state-out", "--out")
    _command(csub, "challenge", cmd_bsc_challenge, "--params", "--recipient-pub", "--in",
             "--commit", "--state-out", "--out", optional=("--bind-info",))
    _command(csub, "respond", cmd_session_respond, "--params", "--key", "--state",
             "--challenge", "--out")
    _command(csub, "finalize", cmd_bsc_finalize, "--params", "--state", "--response", "--out")
    _command(csub, "open", cmd_open, "--params", "--key", "--signer-pub", "--in", "--out",
             optional=("--bind-info",)).set_defaults(
        lib=blind_signcrypt, wire=blind_signcrypt.BlindSigncryptedText, pub_dest="signer_pub")

    bench = _command(sub, "bench", cmd_bench, help="per-party modular-exponentiation counts")
    bench.add_argument("--scheme", required=True, choices=sorted(_SCHEME_NAMES))
    bench.add_argument("--params", required=True)
    bench.add_argument("--party", choices=["A", "B", "C", "verify"])

    return parser


def _group(sub, name: str, title: str):
    return sub.add_parser(name, help=title).add_subparsers(dest="subcommand", required=True)


def _command(sub, name: str, func, *flags: str, optional: tuple[str, ...] = (), **kwargs):
    """Add subcommand `name` running func, with required flags, then optional ones."""
    cmd = sub.add_parser(name, **kwargs)
    for flag in flags:
        if flag == "--in":
            cmd.add_argument(flag, dest="infile", required=True)
        else:
            cmd.add_argument(flag, required=True)
    for flag in optional:
        cmd.add_argument(flag)
    cmd.set_defaults(func=func)
    return cmd


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    if args.seed is not None and not args.test_mode:
        print("error: --seed requires --test-mode", file=sys.stderr)
        return 2
    if args.test_mode and args.seed is None:
        args.seed = 0  # the seed the rng and the state-file key both use
    args.rng = random.Random(args.seed) if args.test_mode else secrets.SystemRandom()

    try:
        return args.func(args)
    except (TagMismatch, VerifyFailure) as exc:
        print(f"rejected: {exc}", file=sys.stderr)
        return 1
    except (UsageFailure, ProtocolError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
