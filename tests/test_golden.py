"""Golden-bytes guard: seeded sessions must keep producing the same wire bytes.

The ScriptRng worked vectors pin the random draw order at toy scale only. This
test hashes the canonical encodings of a few hundred seeded sessions per
scheme, at desk512 and toy23, plus harness outputs and the wire files of two
CLI sessions. Any change to the draw order, the retry policy or the encodings
changes the digest.
"""

import hashlib
import random

from blindsigncrypt import blind_sdss, blind_signcrypt, harness, sdss, zheng
from blindsigncrypt.cli import main
from blindsigncrypt.crypto_suite import std_suite
from blindsigncrypt.errors import DegenerateDenominator
from blindsigncrypt.group_math import TOY23, desk512
from blindsigncrypt.wire_codec import encode

ROUNDS = 200
BIND = b"golden-recipient"

LIBRARY_DIGEST = "a5def1b818d725e80697dc5642f104f429747477984debd1bed11c378276d2b3"
HARNESS_DIGEST = "242ff507495a2f5298d918011224076043c9a53615cdfcb98b3db3e26e449a69"
CLI_DIGEST = "370e1ec9b172f35d1139f1c3d7c459b864776c42e2ef2d661006f2b08d18197f"


class Digest:
    def __init__(self):
        self._h = hashlib.sha256()

    def add(self, data: bytes) -> None:
        self._h.update(len(data).to_bytes(8, "big") + data)

    def wire(self, value) -> None:
        self.add(encode(value))

    def ints(self, *values: int) -> None:
        for v in values:
            self.add(str(v).encode())

    def hexdigest(self) -> str:
        return self._h.hexdigest()


def _blind_session(d, signer, m, params, suite, rng, challenge, finalize):
    """One blind session through the wire messages, restarted on a degenerate
    denominator; every message of every attempt is hashed."""
    while True:
        signer_session, commit = blind_sdss.signer_commit(signer, params, rng)
        req, chal = challenge(m, commit.z, rng)
        response = blind_sdss.signer_respond(signer_session, chal.r_bar, signer)
        for msg in (commit, chal, response):
            d.wire(msg)
        try:
            out = finalize(req, response.s_bar, params)
        except DegenerateDenominator:
            d.add(b"restart")
            continue
        d.wire(out)
        return


def library_digest() -> str:
    d = Digest()
    suite = std_suite()
    for params in (desk512(), TOY23):
        rng = random.Random(1234)
        signer = sdss.keygen(params, rng)
        recipient = sdss.keygen(params, rng)
        d.ints(signer.x, signer.y, recipient.x, recipient.y)
        for _ in range(ROUNDS):
            m = rng.randbytes(rng.randrange(48))
            d.wire(sdss.sign(m, signer, params, suite, rng))
            d.wire(zheng.signcrypt(m, signer, recipient.y, BIND, params, suite, rng))
            _blind_session(
                d, signer, m, params, suite, rng,
                lambda m_, z, r: blind_sdss.requester_challenge(
                    m_, z, signer.y, params, suite, r),
                blind_sdss.requester_finalize)
            _blind_session(
                d, signer, m, params, suite, rng,
                lambda m_, z, r: blind_signcrypt.bsc_requester_challenge(
                    m_, z, recipient.y, BIND, params, suite, r),
                blind_signcrypt.bsc_requester_finalize)
        d.ints(rng.getrandbits(64))  # pins how much randomness was consumed
    return d.hexdigest()


def harness_digest() -> str:
    d = Digest()
    suite = std_suite()
    for params, n in ((TOY23, 24), (desk512(), 4)):
        for scheme in harness.SCHEMES:
            rng = random.Random(1234)
            transcripts = harness.run_honest_sessions(n, scheme, params, suite, rng)
            ctx = transcripts[0].context
            d.ints(ctx.degenerate_retries, ctx.signer.x)
            for t in transcripts:
                d.ints(t.view.z, t.view.r_bar, t.view.s_bar, t.view.k_tilde,
                       t.requester_secrets.u, t.requester_secrets.alpha,
                       t.requester_secrets.beta, t.requester_secrets.r)
                d.add(t.message)
                d.wire(t.output)
            d.add(harness.cross_pairing_check(transcripts).to_csv().encode())
            if scheme == "blind_signcrypt":
                report = harness.tamper_suite(transcripts[0], 40, rng)
                d.add(report.summary().encode())
                d.add(repr(sorted(report.by_field.items())).encode())
            d.ints(rng.getrandbits(64))
            report = harness.measure_exponentiation_counts(
                scheme, params, suite, random.Random(1234))
            d.add("\n".join(report.lines()).encode())
    return d.hexdigest()


def cli_digest(tmp_path) -> str:
    def run(*argv):
        assert main([str(a) for a in argv]) == 0, argv

    d = Digest()
    f = {name: tmp_path / name for name in (
        "a.key", "a.pub", "c.key", "c.pub", "msg")}
    f["msg"].write_bytes(b"golden message")
    run("--test-mode", "--seed", 41, "keygen", "--params", "desk512",
        "--out", f["a.key"], "--pub-out", f["a.pub"])
    run("--test-mode", "--seed", 42, "keygen", "--params", "desk512",
        "--out", f["c.key"], "--pub-out", f["c.pub"])
    for scheme, final in (("blind", "sig"), ("bsc", "sealed")):
        w = {name: tmp_path / f"{scheme}.{name}" for name in (
            "commit", "challenge", "response", final, "a.state", "b.state")}
        seeded = lambda seed, cmd: ("--test-mode", "--seed", seed, scheme, cmd,
                                    "--params", "desk512")
        run(*seeded(51, "commit"), "--key", f["a.key"], "--state-out", w["a.state"],
            "--out", w["commit"])
        peer = (("--signer-pub", f["a.pub"]) if scheme == "blind"
                else ("--recipient-pub", f["c.pub"]))
        run(*seeded(52, "challenge"), *peer, "--in", f["msg"], "--commit", w["commit"],
            "--state-out", w["b.state"], "--out", w["challenge"])
        run(*seeded(51, "respond"), "--key", f["a.key"], "--state", w["a.state"],
            "--challenge", w["challenge"], "--out", w["response"])
        run(*seeded(52, "finalize"), "--state", w["b.state"], "--response", w["response"],
            "--out", w[final])
        for name in ("commit", "challenge", "response", final):
            d.add(w[name].read_bytes())
    return d.hexdigest()


def test_library_wire_bytes_unchanged():
    assert library_digest() == LIBRARY_DIGEST


def test_harness_outputs_unchanged():
    assert harness_digest() == HARNESS_DIGEST


def test_cli_session_files_unchanged(tmp_path):
    assert cli_digest(tmp_path) == CLI_DIGEST
