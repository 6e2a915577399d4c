"""Command-line driver: every scheme, plus file-based blind sessions.

All cryptographic logic lives in the library modules; this module only moves
bytes between files and library calls. Exit codes: 0 success, 1 verification
or tag failure, 2 usage/input error.

Multi-invocation blind sessions need the one-shot nonces (k_tilde, u) to
survive between processes. They are persisted only under --test-mode, in a
state file encrypted and MAC'd under a key derived from the seed; in normal
mode the whole session must run inside one process, so the session
subcommands refuse to write state.
"""

from __future__ import annotations

import argparse
import dataclasses
import enum
import functools
import hashlib
import hmac
import json
import random
import secrets
import sys
import typing
from dataclasses import dataclass
from pathlib import Path

from . import blind_sdss, blind_signcrypt, harness, sdss, wire_codec, zheng
from .crypto_suite import get_suite, std_suite
from .errors import (
    BadGenerator,
    NotPrime,
    OrderMismatch,
    ProtocolError,
    TagMismatch,
)
from .group_math import GroupParams, generate_params, int_to_bytes, named_params, validate_params

_STATE_LABEL = b"blindsigncrypt-state-v1:"

# The suite of every message the CLI produces. The only other suite, toy-v1,
# exists for pinning hash outputs in library tests, which a CLI run cannot do.
SUITE_ID = "std-v1"

_SCHEME_NAMES = {"blind": "blind_sdss", "bsc": "blind_signcrypt"}

_field_types = functools.cache(typing.get_type_hints)  # resolving string annotations is slow


class VerifyFailure(Exception):
    """Command-level rejection; mapped to exit code 1."""


class UsageFailure(Exception):
    """Command-level usage/input problem; mapped to exit code 2."""


@dataclass
class CliConfig:
    test_mode: bool
    seed: int | None
    rng: object


# -- file helpers ----------------------------------------------------------------

def _read_params(value: str) -> GroupParams:
    if value in ("toy23", "desk512"):
        return named_params(value)
    return _read_wire(value, GroupParams)[0]


def _read_key(path: str, params: GroupParams) -> sdss.KeyPair:
    """Load a key file, accepting only integers with 1 <= x < q and y = g^x mod p."""
    data = json.loads(Path(path).read_text())
    x, y = (data.get("x"), data.get("y")) if isinstance(data, dict) else (None, None)
    if type(x) is not int or type(y) is not int:  # type(), so that JSON true is refused
        raise UsageFailure(f"{path} is not a key file: x and y must be integers")
    if not 0 < x < params.q:
        raise UsageFailure(f"{path}: secret x is outside [1, q-1]")
    if sdss.public_key(x, params) != y:
        raise UsageFailure(f"{path}: public y is not g^x mod p for these parameters")
    return sdss.KeyPair(x=x, y=y)


def _read_pub(path: str) -> int:
    return _read_wire(path, wire_codec.PubKeyMsg)[0].y


def _read_wire(path: str, expect: type):
    obj, suite_id = wire_codec.decode(wire_codec.dearmor(Path(path).read_text()))
    if not isinstance(obj, expect):
        raise UsageFailure(f"{path} holds {type(obj).__name__}, expected {expect.__name__}")
    return obj, suite_id


def _write_wire(path: str, obj) -> None:
    Path(path).write_text(wire_codec.armor(wire_codec.encode(obj, SUITE_ID)))


# -- encrypted session state (test mode only) -------------------------------------

def _state_key(seed: int) -> bytes:
    return hashlib.sha256(_STATE_LABEL + str(seed).encode()).digest()


def _jsonable(value):
    """JSON form of the session field types json cannot write: bytes and enums."""
    return value.hex() if isinstance(value, bytes) else value.value


def _from_json(cls, raw):
    """Rebuild cls from the JSON form of dataclasses.asdict(cls instance),
    driven by the field annotations of cls."""
    if dataclasses.is_dataclass(cls):
        hints = _field_types(cls)
        return cls(**{f.name: _from_json(hints[f.name], raw[f.name])
                      for f in dataclasses.fields(cls)})
    if cls is bytes:
        return bytes.fromhex(raw)
    if isinstance(cls, type) and issubclass(cls, enum.Enum):
        return cls(raw)
    return raw


def _save_state(path: str, session, cfg: CliConfig) -> None:
    if not cfg.test_mode:
        raise UsageFailure(
            "session state files exist only under --test-mode; in normal mode "
            "run the whole session in one process")
    state = {"session": type(session).__name__, "fields": dataclasses.asdict(session)}
    key = _state_key(cfg.seed or 0)
    suite = std_suite()
    ct = suite.cipher_encrypt(key, json.dumps(state, sort_keys=True, default=_jsonable).encode())
    tag = suite.keyed_hash(key, ct)
    Path(path).write_text(wire_codec.armor(tag + ct))


def _load_state(path: str, cfg: CliConfig, session_cls: type, params: GroupParams):
    """Open a state file and rebuild the session_cls it must hold."""
    if not cfg.test_mode:
        raise UsageFailure("session state files exist only under --test-mode")
    blob = wire_codec.dearmor(Path(path).read_text())
    key = _state_key(cfg.seed or 0)
    suite = std_suite()
    tag, ct = blob[:32], blob[32:]
    if not hmac.compare_digest(tag, suite.keyed_hash(key, ct)):
        raise UsageFailure(f"cannot open {path}: wrong seed or corrupted state")
    state = json.loads(suite.cipher_encrypt(key, ct))
    held = state.get("session") if isinstance(state, dict) else None
    if held != session_cls.__name__:
        raise UsageFailure(f"{path} holds {held or 'an unrecognised state format'}, "
                           f"expected {session_cls.__name__}")
    session = _from_json(session_cls, state["fields"])
    if session.params != params:
        raise UsageFailure(f"{path} was made under other group parameters")
    return session


def _bind_info(args, recipient_pub: int) -> bytes:
    if args.bind_info is not None:
        return args.bind_info.encode()
    return int_to_bytes(recipient_pub)  # default: recipient identity


# -- commands ----------------------------------------------------------------------

def cmd_params_gen(args, cfg: CliConfig) -> int:
    params = generate_params(args.bits_p, args.bits_q, cfg.rng)
    _write_wire(args.out, params)
    print(f"wrote {args.bits_p}/{args.bits_q}-bit parameters to {args.out}")
    return 0


def cmd_params_validate(args, cfg: CliConfig) -> int:
    params = _read_params(args.params)
    try:
        validate_params((params.p, params.q, params.g))
    except (NotPrime, OrderMismatch, BadGenerator) as exc:
        print(f"invalid: {exc}", file=sys.stderr)
        return 1
    print("parameters ok")
    return 0


def cmd_keygen(args, cfg: CliConfig) -> int:
    params = _read_params(args.params)
    key = sdss.keygen(params, cfg.rng)
    Path(args.out).write_text(json.dumps({"x": key.x, "y": key.y}) + "\n")
    if args.pub_out:
        _write_wire(args.pub_out, wire_codec.PubKeyMsg(y=key.y))
    print(f"wrote key pair to {args.out}")
    return 0


def cmd_sdss_sign(args, cfg: CliConfig) -> int:
    params = _read_params(args.params)
    key = _read_key(args.key, params)
    m = Path(args.infile).read_bytes()
    sig = sdss.sign(m, key, params, get_suite(SUITE_ID), cfg.rng)
    _write_wire(args.out, sig)
    return 0


def cmd_sdss_verify(args, cfg: CliConfig) -> int:
    params = _read_params(args.params)
    sig, suite_id = _read_wire(args.sig, sdss.SdssSignature)
    m = Path(args.infile).read_bytes()
    if not sdss.verify(m, sig, _read_pub(args.pub), params, get_suite(suite_id)):
        raise VerifyFailure("signature rejected")
    print("signature ok")
    return 0


def cmd_zheng_seal(args, cfg: CliConfig) -> int:
    params = _read_params(args.params)
    key = _read_key(args.key, params)
    recipient_pub = _read_pub(args.recipient_pub)
    m = Path(args.infile).read_bytes()
    ct = zheng.signcrypt(m, key, recipient_pub, _bind_info(args, recipient_pub),
                         params, get_suite(SUITE_ID), cfg.rng)
    _write_wire(args.out, ct)
    return 0


def cmd_zheng_open(args, cfg: CliConfig) -> int:
    params = _read_params(args.params)
    key = _read_key(args.key, params)
    ct, suite_id = _read_wire(args.infile, zheng.SigncryptedText)
    m = zheng.unsigncrypt(ct, key, _read_pub(args.sender_pub),
                          _bind_info(args, key.y), params, get_suite(suite_id))
    Path(args.out).write_bytes(m)
    print(f"recovered {len(m)} bytes")
    return 0


def cmd_session_commit(args, cfg: CliConfig) -> int:
    params = _read_params(args.params)
    key = _read_key(args.key, params)
    session, commit = blind_sdss.signer_commit(key, params, cfg.rng)
    _save_state(args.state_out, session, cfg)
    _write_wire(args.out, commit)
    return 0


def cmd_blind_challenge(args, cfg: CliConfig) -> int:
    params = _read_params(args.params)
    commit, _ = _read_wire(args.commit, blind_sdss.CommitMsg)
    m = Path(args.infile).read_bytes()
    session, challenge = blind_sdss.requester_challenge(
        m, commit.z, _read_pub(args.signer_pub), params, get_suite(SUITE_ID), cfg.rng)
    _save_state(args.state_out, session, cfg)
    _write_wire(args.out, challenge)
    return 0


def cmd_session_respond(args, cfg: CliConfig) -> int:
    params = _read_params(args.params)
    key = _read_key(args.key, params)
    session = _load_state(args.state, cfg, blind_sdss.SignerSession, params)
    challenge, _ = _read_wire(args.challenge, blind_sdss.ChallengeMsg)
    response = blind_sdss.signer_respond(session, challenge.r_bar, key)
    _save_state(args.state, session, cfg)
    _write_wire(args.out, response)
    return 0


def cmd_blind_finalize(args, cfg: CliConfig) -> int:
    params = _read_params(args.params)
    session = _load_state(args.state, cfg, blind_sdss.RequesterSession, params)
    response, _ = _read_wire(args.response, blind_sdss.ResponseMsg)
    sig = blind_sdss.requester_finalize(session, response.s_bar, params)
    _save_state(args.state, session, cfg)
    if not blind_sdss.verify(session.m, sig, session.signer_pub, params,
                             get_suite(SUITE_ID)):
        raise VerifyFailure("unblinded signature failed verification")
    _write_wire(args.out, sig)
    return 0


def cmd_blind_verify(args, cfg: CliConfig) -> int:
    params = _read_params(args.params)
    sig, suite_id = _read_wire(args.sig, blind_sdss.BlindSignature)
    m = Path(args.infile).read_bytes()
    if not blind_sdss.verify(m, sig, _read_pub(args.signer_pub), params,
                             get_suite(suite_id)):
        raise VerifyFailure("signature rejected")
    print("signature ok")
    return 0


def cmd_bsc_challenge(args, cfg: CliConfig) -> int:
    params = _read_params(args.params)
    commit, _ = _read_wire(args.commit, blind_sdss.CommitMsg)
    recipient_pub = _read_pub(args.recipient_pub)
    m = Path(args.infile).read_bytes()
    session, challenge = blind_signcrypt.bsc_requester_challenge(
        m, commit.z, recipient_pub, _bind_info(args, recipient_pub), params,
        get_suite(SUITE_ID), cfg.rng)
    _save_state(args.state_out, session, cfg)
    _write_wire(args.out, challenge)
    return 0


def cmd_bsc_finalize(args, cfg: CliConfig) -> int:
    params = _read_params(args.params)
    session = _load_state(args.state, cfg, blind_signcrypt.BscRequesterSession, params)
    response, _ = _read_wire(args.response, blind_sdss.ResponseMsg)
    ct = blind_signcrypt.bsc_requester_finalize(session, response.s_bar, params)
    _save_state(args.state, session, cfg)
    _write_wire(args.out, ct)
    return 0


def cmd_bsc_open(args, cfg: CliConfig) -> int:
    params = _read_params(args.params)
    key = _read_key(args.key, params)
    ct, suite_id = _read_wire(args.infile, blind_signcrypt.BlindSigncryptedText)
    m = blind_signcrypt.unsigncrypt(ct, key, _read_pub(args.signer_pub),
                                    _bind_info(args, key.y), params,
                                    get_suite(suite_id))
    Path(args.out).write_bytes(m)
    print(f"recovered {len(m)} bytes")
    return 0


def cmd_bench(args, cfg: CliConfig) -> int:
    params = _read_params(args.params)
    report = harness.measure_exponentiation_counts(
        _SCHEME_NAMES[args.scheme], params, get_suite(SUITE_ID), cfg.rng)
    for line in report.lines():
        if args.party and line.startswith("party ") and not line.startswith(f"party {args.party}:"):
            continue
        print(line)
    return 0


# -- parser -------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blindsigncrypt",
        description="Blind signcryption toolkit: SDSS / Zheng / blind sessions")
    parser.add_argument("--test-mode", action="store_true",
                        help="deterministic seeded RNG and persistable session state")
    parser.add_argument("--seed", type=int, default=None,
                        help="RNG seed (requires --test-mode)")
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
    _command(ssub, "verify", cmd_sdss_verify, "--params", "--pub", "--in", "--sig")

    zsub = _group(sub, "zheng", "signcryption")
    _command(zsub, "seal", cmd_zheng_seal, "--params", "--key", "--recipient-pub", "--in",
             "--out", optional=("--bind-info",))
    _command(zsub, "open", cmd_zheng_open, "--params", "--key", "--sender-pub", "--in",
             "--out", optional=("--bind-info",))

    bsub = _group(sub, "blind", "blind signature session")
    _command(bsub, "commit", cmd_session_commit, "--params", "--key", "--state-out", "--out")
    _command(bsub, "challenge", cmd_blind_challenge, "--params", "--signer-pub", "--in",
             "--commit", "--state-out", "--out")
    _command(bsub, "respond", cmd_session_respond, "--params", "--key", "--state",
             "--challenge", "--out")
    _command(bsub, "finalize", cmd_blind_finalize, "--params", "--state", "--response", "--out")
    _command(bsub, "verify", cmd_blind_verify, "--params", "--signer-pub", "--in", "--sig")

    csub = _group(sub, "bsc", "blind signcryption session")
    _command(csub, "commit", cmd_session_commit, "--params", "--key", "--state-out", "--out")
    _command(csub, "challenge", cmd_bsc_challenge, "--params", "--recipient-pub", "--in",
             "--commit", "--state-out", "--out", optional=("--bind-info",))
    _command(csub, "respond", cmd_session_respond, "--params", "--key", "--state",
             "--challenge", "--out")
    _command(csub, "finalize", cmd_bsc_finalize, "--params", "--state", "--response", "--out")
    _command(csub, "open", cmd_bsc_open, "--params", "--key", "--signer-pub", "--in", "--out",
             optional=("--bind-info",))

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
    rng = random.Random(args.seed) if args.test_mode else secrets.SystemRandom()
    cfg = CliConfig(test_mode=args.test_mode, seed=args.seed, rng=rng)

    try:
        return args.func(args, cfg)
    except (TagMismatch, VerifyFailure) as exc:
        print(f"rejected: {exc}", file=sys.stderr)
        return 1
    except (UsageFailure, ProtocolError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
