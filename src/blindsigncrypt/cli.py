"""Command-line driver: every scheme, plus file-based blind sessions.

All cryptographic logic lives in the library modules; this module only moves
bytes between files and library calls. Exit codes: 0 success, 1 verification
or tag failure, 2 usage/input error. Run it as `python -m blindsigncrypt` or
as the `blindsigncrypt` console script; both call `main`.

`main` reads a well-formed argv from its command's flag table, without
argparse, and any other with argparse's full parse, the only source of help,
usage and errors (see `_parse`).

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
import io
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
# The most bytes one read of an unsized input asks for: each read allocates
# what it asks for on top of what is held. A pipe hands over 64 KiB at most.
_READ_CHUNK = 64 << 10

# The widest p a parameter file may hold or `params gen` may make. A primality
# round costs about 8x more per doubling of p: 0.14 s at 8192 bits, 9.6 s at 32,768.
MAX_P_BITS = 8192

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
    grew since fstat) does it read on, up to one byte past the limit, into
    one growing buffer whose bytes are returned without a copy. Each further
    read asks for at most as many bytes as are already held, so what it
    allocates stays bounded by the input, and at most _READ_CHUNK, so the
    input is held about once."""
    too_large = UsageFailure(f"{path} is larger than the limit of {limit} bytes")
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        if size > limit:
            raise too_large
        data = f.read(size + 1)
        if len(data) <= size:
            return data
        buf = io.BytesIO(data)
        buf.seek(0, io.SEEK_END)
        while (total := buf.tell()) <= limit and (
                chunk := f.read1(min(total, _READ_CHUNK, limit + 1 - total))):
            buf.write(chunk)
    if total > limit:
        raise too_large
    return buf.getvalue()  # the buffer itself, not a copy, while nothing else holds it


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
    (its named errors exit 2). A p wider than MAX_P_BITS, or a q outside
    [2, p-1], exits 2 naming the file before any primality test."""
    if value in NAMED_PARAMS:
        return NAMED_PARAMS[value]
    params = _read_wire(value, GroupParams)
    if params.p.bit_length() > MAX_P_BITS:
        raise UsageFailure(f"{value}: p has {params.p.bit_length()} bits, "
                           f"above the limit of {MAX_P_BITS}")
    if not 1 < params.q < params.p:
        raise UsageFailure(f"{value}: q is outside [2, p-1]")
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
    decode, is not an `expect` or names a suite other than std-v1 exits 2
    naming path."""
    try:
        obj, suite_id = wire_codec.decode(blob)
    except WireError as exc:
        raise UsageFailure(f"{path}: {exc}") from None
    if not isinstance(obj, expect):
        raise UsageFailure(f"{path} holds {type(obj).__name__}, expected {expect.__name__}")
    # The only other suite, toy-v1, exists for pinning hash outputs in library
    # tests, which a CLI run cannot do.
    if suite_id != CryptoSuite.suite_id:
        raise UsageFailure(f"{path}: unknown suite {suite_id!r}")
    return obj


def _write_wire(path: str, obj) -> None:
    _write_output(path, wire_codec.armor(wire_codec.encode(obj)).encode())


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
    ct = suite.cipher_encrypt(key, wire_codec.encode(session))
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


def _send(args, state_path: str, session, msg) -> None:
    """Save session to state_path, then write msg to --out: a signer that has
    responded is stored as spent before its response leaves, because two
    responses to one k_tilde give away x. A state not saved sends nothing."""
    _save_state(state_path, session, args)
    _write_wire(args.out, msg)


def _bind_info(args, recipient_pub: int) -> bytes:
    if args.bind_info is not None:
        return os.fsencode(args.bind_info)  # the argument's bytes, as the OS passed them
    return int_to_bytes(recipient_pub)  # default: recipient identity


# -- commands ----------------------------------------------------------------------

def cmd_params_gen(args) -> int:
    if args.bits_p > MAX_P_BITS:
        raise UsageFailure(f"--bits-p {args.bits_p} is above the limit of {MAX_P_BITS}")
    params = generate_params(args.bits_p, args.bits_q, args.rng)
    _write_wire(args.out, params)
    print(f"wrote {args.bits_p}/{args.bits_q}-bit parameters to {args.out}")
    return 0


def cmd_params_validate(args) -> int:
    try:
        params = _read_params(args.to_validate)
        if args.to_validate in NAMED_PARAMS:  # a file was validated as it was read
            validate_params((params.p, params.q, params.g))
    except (NotPrime, OrderMismatch, BadGenerator) as exc:
        print(f"invalid: {exc}", file=sys.stderr)
        return 1
    print("parameters ok")
    return 0


def cmd_keygen(args) -> int:
    key = sdss.keygen(args.params, args.rng)
    _write_output(args.out, (json.dumps({"x": key.x, "y": key.y}) + "\n").encode(),
                  _SECRET_MODE)
    if args.pub_out:
        _write_wire(args.pub_out, wire_codec.PubKeyMsg(y=key.y))
    print(f"wrote key pair to {args.out}")
    return 0


def cmd_sdss_sign(args) -> int:
    m = _read_input(args.infile, MAX_MESSAGE_BYTES)
    _write_wire(args.out, sdss.sign(m, args.key, args.params, std_suite(), args.rng))
    return 0


def cmd_verify(args) -> int:
    """sdss verify and blind verify. The parser sets args.lib (the scheme's
    module) and args.wire (its signature class)."""
    sig = _read_wire(args.sig, args.wire)
    m = _read_input(args.infile, MAX_MESSAGE_BYTES)
    signer_pub = _read_pub(args.signer_pub, args.params)
    if not args.lib.verify(m, sig, signer_pub, args.params, std_suite()):
        raise VerifyFailure("signature rejected")
    print("signature ok")
    return 0


def cmd_zheng_seal(args) -> int:
    recipient_pub = _read_pub(args.recipient_pub, args.params)
    m = _read_input(args.infile, MAX_MESSAGE_BYTES)
    ct = zheng.signcrypt(m, args.key, recipient_pub, _bind_info(args, recipient_pub),
                         args.params, std_suite(), args.rng)
    _write_wire(args.out, ct)
    return 0


def cmd_open(args) -> int:
    """zheng open and bsc open, set up by the parser as for cmd_verify."""
    ct = _read_wire(args.infile, args.wire)
    m = args.lib.unsigncrypt(ct, args.key, _read_pub(args.signer_pub, args.params),
                             _bind_info(args, args.key.y), args.params, std_suite())
    _write_output(args.out, m)
    print(f"recovered {len(m)} bytes", file=sys.stderr)  # --out may be /dev/stdout
    return 0


def cmd_session_commit(args) -> int:
    _send(args, args.state_out, *blind_sdss.signer_commit(args.key, args.params, args.rng))
    return 0


def cmd_blind_challenge(args) -> int:
    commit = _read_wire(args.commit, blind_sdss.CommitMsg)
    m = _read_input(args.infile, MAX_MESSAGE_BYTES)
    _send(args, args.state_out, *blind_sdss.requester_challenge(
        m, commit.z, _read_pub(args.signer_pub, args.params), args.params, std_suite(),
        args.rng))
    return 0


def cmd_session_respond(args) -> int:
    session = _load_state(args.state, args, blind_sdss.SignerSession, args.params)
    challenge = _read_wire(args.challenge, blind_sdss.ChallengeMsg)
    _send(args, args.state, session,
          blind_sdss.signer_respond(session, challenge.r_bar, args.key))
    return 0


def cmd_blind_finalize(args) -> int:
    session = _load_state(args.state, args, blind_sdss.RequesterSession, args.params)
    response = _read_wire(args.response, blind_sdss.ResponseMsg)
    sig = blind_sdss.requester_finalize(session, response.s_bar, args.params)
    m, session.m = session.m, b""  # a spent session's m is never read again
    _save_state(args.state, session, args)
    if not blind_sdss.verify(m, sig, session.signer_pub, args.params, std_suite()):
        raise VerifyFailure("unblinded signature failed verification")
    _write_wire(args.out, sig)
    return 0


def cmd_bsc_challenge(args) -> int:
    commit = _read_wire(args.commit, blind_sdss.CommitMsg)
    recipient_pub = _read_pub(args.recipient_pub, args.params)
    m = _read_input(args.infile, MAX_MESSAGE_BYTES)
    _send(args, args.state_out, *blind_signcrypt.bsc_requester_challenge(
        m, commit.z, recipient_pub, _bind_info(args, recipient_pub), args.params,
        std_suite(), args.rng))
    return 0


def cmd_bsc_finalize(args) -> int:
    session = _load_state(args.state, args, blind_signcrypt.BscRequesterSession, args.params)
    response = _read_wire(args.response, blind_sdss.ResponseMsg)
    ct = blind_signcrypt.bsc_requester_finalize(session, response.s_bar, args.params)
    session.c = b""  # a spent session's c is never read again
    _send(args, args.state, session, ct)
    return 0


def cmd_bench(args) -> int:
    report = harness.measure_exponentiation_counts(
        _SCHEME_NAMES[args.scheme], args.params, std_suite(), args.rng)
    if args.party:
        if args.party not in report.counts:
            raise UsageFailure(f"scheme {args.scheme} has no party {args.party}; "
                               f"its parties are {', '.join(report.counts)}")
        report.counts = {args.party: report.counts[args.party]}
    for line in report.lines():
        print(line)
    return 0


# -- parser -------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parse_args keeps no state
    between calls, so every main() call can share it.

    Its `leaves` and `tables` map each command's words, ("bsc", "commit") or
    ("keygen",), to its own parser and to its flag table (see `_command`)."""
    parser = argparse.ArgumentParser(
        prog="blindsigncrypt",
        description="Blind signcryption toolkit: SDSS / Zheng / blind sessions")
    parser.add_argument("--test-mode", action="store_true",
                        help="deterministic seeded RNG and persistable session state")
    parser.add_argument("--seed", type=int, default=None,
                        help="RNG seed (requires --test-mode; default 0)")
    sub = parser.add_subparsers(dest="command", required=True)
    parser.leaves, parser.tables = {}, {}
    top = functools.partial(_command, parser, sub, ())

    in_params = _group(parser, sub, "params", "group parameter handling")
    gen = in_params("gen", cmd_params_gen)
    gen.add_argument("--bits-p", type=int, default=512)
    gen.add_argument("--bits-q", type=int, default=160)
    gen.add_argument("--out", required=True)
    in_params("validate", cmd_params_validate).add_argument(
        "--params", dest="to_validate", metavar="PARAMS", required=True)

    top("keygen", cmd_keygen, "--params", "--out", optional=("--pub-out",),
        help="generate a key pair")

    in_sdss = _group(parser, sub, "sdss", "shortened DSS signatures")
    in_sdss("sign", cmd_sdss_sign, "--params", "--key", "--in", "--out")
    in_sdss("verify", cmd_verify, "--params", "--pub", "--in", "--sig",
            lib=sdss, wire=sdss.SdssSignature)

    in_zheng = _group(parser, sub, "zheng", "signcryption")
    in_zheng("seal", cmd_zheng_seal, "--params", "--key", "--recipient-pub", "--in",
             "--out", optional=("--bind-info",))
    in_zheng("open", cmd_open, "--params", "--key", "--sender-pub", "--in", "--out",
             optional=("--bind-info",), lib=zheng, wire=zheng.SigncryptedText)

    in_blind = _group(parser, sub, "blind", "blind signature session")
    in_blind("commit", cmd_session_commit, "--params", "--key", "--state-out", "--out")
    in_blind("challenge", cmd_blind_challenge, "--params", "--signer-pub", "--in",
             "--commit", "--state-out", "--out")
    in_blind("respond", cmd_session_respond, "--params", "--key", "--state",
             "--challenge", "--out")
    in_blind("finalize", cmd_blind_finalize, "--params", "--state", "--response", "--out")
    in_blind("verify", cmd_verify, "--params", "--signer-pub", "--in", "--sig",
             lib=blind_sdss, wire=blind_sdss.BlindSignature)

    in_bsc = _group(parser, sub, "bsc", "blind signcryption session")
    in_bsc("commit", cmd_session_commit, "--params", "--key", "--state-out", "--out")
    in_bsc("challenge", cmd_bsc_challenge, "--params", "--recipient-pub", "--in",
           "--commit", "--state-out", "--out", optional=("--bind-info",))
    in_bsc("respond", cmd_session_respond, "--params", "--key", "--state",
           "--challenge", "--out")
    in_bsc("finalize", cmd_bsc_finalize, "--params", "--state", "--response", "--out")
    in_bsc("open", cmd_open, "--params", "--key", "--signer-pub", "--in", "--out",
           optional=("--bind-info",), lib=blind_signcrypt,
           wire=blind_signcrypt.BlindSigncryptedText)

    bench = top("bench", cmd_bench, help="per-party modular-exponentiation counts")
    bench.add_argument("--scheme", required=True, choices=sorted(_SCHEME_NAMES))
    bench.add_argument("--params", required=True)
    bench.add_argument("--party", choices=["A", "B", "C", "verify"])

    return parser


def _group(parser, sub, name: str, title: str):
    """Add the command group `name`; return a function that adds a command to
    it as _command does, given the command's name and what follows."""
    group = sub.add_parser(name, help=title).add_subparsers(dest="subcommand", required=True)
    return functools.partial(_command, parser, group, (name,))


def _command(parser, sub, group: tuple[str, ...], name: str, func, *flags: str,
             optional: tuple[str, ...] = (), help: str | None = None, **defaults):
    """Add subcommand `name` running func, with required flags, optional
    flags and namespace defaults such as lib and wire. parser.leaves records
    its parser under its words, group + (name,), and parser.tables, if it
    declares flags here, the table `_parse` reads: each flag's dest, the
    required flags and the namespace before the flags' values; a command
    that adds its own arguments has none. --in stores args.infile ("in" is a
    keyword), and the signer's key is args.signer_pub whatever the command
    calls its flag. `main` loads --params and --key before func runs."""
    words = group + (name,)
    cmd = parser.leaves[words] = sub.add_parser(name, **({"help": help} if help else {}))
    renamed = {"--in": "infile", "--pub": "signer_pub", "--sender-pub": "signer_pub"}
    dests = {f: renamed.get(f, f[2:].replace("-", "_")) for f in flags + optional}
    for flag in flags + optional:
        cmd.add_argument(flag, dest=dests[flag], required=flag in flags)
    cmd.set_defaults(func=func, **defaults)
    if flags:  # every dest is None until its flag's value arrives
        parser.tables[words] = (dests, frozenset(flags), dict.fromkeys(dests.values()) | dict(
            zip(("command", "subcommand"), words), func=func, **defaults))
    return cmd


def _parse(argv) -> argparse.Namespace:
    """build_parser().parse_args(argv), without argparse when argv is well
    formed: the exact global tokens --test-mode and --seed N (N not starting
    with "-", read by int as type=int does), a command's words, then exact
    `--flag value` pairs from its table, no value starting with "-" and every
    required flag present (a repeated flag keeps its last value, as in
    argparse). Any other argv, such as `--seed=N`, an abbreviated flag, `-h`,
    `--` or a leftover word, and every command without a table, gets the
    full parse, the only source of help, usage and errors."""
    parser = build_parser()
    words = sys.argv[1:] if argv is None else list(argv)
    test_mode, seed, i = False, None, 0
    try:
        while words[i] in ("--test-mode", "--seed"):
            if words[i] == "--test-mode":
                test_mode, i = True, i + 1
            elif words[i + 1].startswith("-"):  # argparse reads it as a flag, not a value
                break  # and "--seed" names no command
            else:
                seed, i = int(words[i + 1]), i + 2
        n = 2 if tuple(words[i:i + 2]) in parser.tables else 1  # a group's command
        dests, required, defaults = parser.tables[tuple(words[i:i + n])]
    except (IndexError, ValueError, KeyError):
        return parser.parse_args(words)
    flags, values = words[i + n::2], words[i + n + 1::2]
    if (len(flags) == len(values) and required <= set(flags) <= dests.keys()
            and not any(v.startswith("-") for v in values)):
        return argparse.Namespace(test_mode=test_mode, seed=seed, **defaults | {
            dests[f]: v for f, v in zip(flags, values)})
    return parser.parse_args(words)


def main(argv=None) -> int:
    try:
        args = _parse(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    if args.seed is not None and not args.test_mode:
        print("error: --seed requires --test-mode", file=sys.stderr)
        return 2
    if args.test_mode and args.seed is None:
        args.seed = 0  # the seed the rng and the state-file key both use
    args.rng = random.Random(args.seed) if args.test_mode else secrets.SystemRandom()

    try:
        if "params" in args:
            args.params = _read_params(args.params)
        if "key" in args:
            args.key = _read_key(args.key, args.params)
        return args.func(args)
    except (TagMismatch, VerifyFailure) as exc:
        print(f"rejected: {exc}", file=sys.stderr)
        return 1
    except (UsageFailure, ProtocolError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
