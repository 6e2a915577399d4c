"""In-process three-party engine producing full-knowledge transcripts.

Runs honest blind-SDSS or blind-signcryption sessions with every secret
exposed (signer nonce, requester blinding factors), then feeds them to the
cross-pairing blindness check, the bit-flip tamper suite, and the
exponentiation-count benchmark.

The blindness check is structural, not statistical: every (view, output)
pairing across independent sessions must admit consistent blinding factors,
which makes any view compatible with any signature. The consistency checks
raise HarnessCheckFailed, so they hold under `python -O` too.
"""

from __future__ import annotations

import dataclasses
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, Sequence

from . import blind_sdss, blind_signcrypt
from .blind_sdss import BlindSignature, View
from .blind_signcrypt import BlindSigncryptedText
from .crypto_suite import CryptoSuite
from .errors import DegenerateDenominator, HarnessCheckFailed, InconsistentPair, TagMismatch
from .group_math import GroupParams, count_exponentiations, modexp
from .sdss import KeyPair, keygen

SCHEMES = ("blind_sdss", "blind_signcrypt")

DEFAULT_BIND_INFO = b"recipient"


@dataclass
class HarnessContext:
    """Shared setting for one batch of sessions: one signer, one recipient."""
    scheme: str
    params: GroupParams
    suite: CryptoSuite
    signer: KeyPair
    recipient: KeyPair | None
    bind_info: bytes
    degenerate_retries: int = 0


@dataclass(frozen=True)
class RequesterSecrets:
    u: int
    alpha: int
    beta: int
    r: int


@dataclass(frozen=True)
class FullTranscript:
    view: View
    requester_secrets: RequesterSecrets
    output: BlindSignature | BlindSigncryptedText
    message: bytes
    context: HarnessContext
    modexp_counts: dict[str, int]  # per party (A, B) in the session that completed

    def signature(self) -> BlindSignature:
        """The (r, s, T) triple, whatever the scheme produced."""
        out = self.output
        return BlindSignature(r=out.r, s=out.s, T=out.T)


def _random_message(rng, max_len: int = 64) -> bytes:
    n = rng.randrange(max_len + 1)
    return bytes(rng.getrandbits(8) for _ in range(n))


def run_honest_sessions(n: int, scheme: str, params: GroupParams,
                        suite: CryptoSuite, rng, *,
                        messages: Sequence[bytes] | None = None,
                        bind_info: bytes = DEFAULT_BIND_INFO,
                        signer: KeyPair | None = None,
                        recipient: KeyPair | None = None) -> list[FullTranscript]:
    """Run n independent honest sessions against one signer (and recipient).

    Every transcript is checked internally consistent before it is returned;
    degenerate-denominator restarts are counted on the context.
    """
    if n < 1:
        raise ValueError("need at least one session")
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    if messages is not None and len(messages) != n:
        raise ValueError("need exactly one message per session")

    signer = signer or keygen(params, rng)
    if scheme == "blind_signcrypt":
        recipient = recipient or keygen(params, rng)
    ctx = HarnessContext(scheme=scheme, params=params, suite=suite,
                         signer=signer, recipient=recipient, bind_info=bind_info)

    transcripts = []
    for i in range(n):
        m = messages[i] if messages is not None else _random_message(rng)
        transcripts.append(_session(ctx, m, rng))
    return transcripts


@contextmanager
def _counted(counts: dict[str, int], party: str) -> Iterator[None]:
    """Add the modexp calls made inside the block to counts[party]."""
    with count_exponentiations() as c:
        yield
    counts[party] = counts.get(party, 0) + c.count


def _session(ctx: HarnessContext, m: bytes, rng) -> FullTranscript:
    """One honest session, checked consistent before it is returned.

    A degenerate denominator restarts the whole session from the commitment,
    as a real caller would; restarts are counted on the context.
    """
    params, suite = ctx.params, ctx.suite
    while True:
        counts: dict[str, int] = {}
        with _counted(counts, "A"):
            signer_session, commit = blind_sdss.signer_commit(ctx.signer, params, rng)
        with _counted(counts, "B"):
            if ctx.scheme == "blind_sdss":
                req, challenge = blind_sdss.requester_challenge(
                    m, commit.z, ctx.signer.y, params, suite, rng)
            else:
                req, challenge = blind_signcrypt.bsc_requester_challenge(
                    m, commit.z, ctx.recipient.y, ctx.bind_info, params, suite, rng)
        with _counted(counts, "A"):
            response = blind_sdss.signer_respond(signer_session, challenge.r_bar, ctx.signer)
        try:
            with _counted(counts, "B"):
                if ctx.scheme == "blind_sdss":
                    output = blind_sdss.requester_finalize(req, response.s_bar, params)
                else:
                    output = blind_signcrypt.bsc_requester_finalize(req, response.s_bar, params)
        except DegenerateDenominator:
            ctx.degenerate_retries += 1
            continue
        transcript = FullTranscript(
            view=View(z=commit.z, r_bar=challenge.r_bar, s_bar=response.s_bar,
                      k_tilde=signer_session.k_tilde),
            requester_secrets=RequesterSecrets(u=req.u, alpha=req.alpha,
                                               beta=req.beta, r=req.r),
            output=output,
            message=m,
            context=ctx,
            modexp_counts=counts,
        )
        _check_consistent(transcript)
        return transcript


def _check(ok: bool, what: str) -> None:
    if not ok:
        raise HarnessCheckFailed(f"harness check failed: {what}")


def _open(t: FullTranscript) -> None:
    """The receiving party's move: verify the signature or unsigncrypt the text."""
    ctx = t.context
    if ctx.scheme == "blind_sdss":
        _check(blind_sdss.verify(t.message, t.signature(), ctx.signer.y, ctx.params,
                                 ctx.suite), "blind signature verifies")
    else:
        recovered = blind_signcrypt.unsigncrypt(
            t.output, ctx.recipient, ctx.signer.y, ctx.bind_info,
            ctx.params, ctx.suite)
        _check(recovered == t.message, "unsigncrypt recovers the message")


def _check_consistent(t: FullTranscript) -> None:
    ctx = t.context
    p, q, g = ctx.params.p, ctx.params.q, ctx.params.g
    sec = t.requester_secrets
    sig = t.signature()

    _check(t.view.s_bar == (ctx.signer.x + t.view.r_bar * t.view.k_tilde) % q,
           "s_bar = x + r_bar * k_tilde")
    _check(t.view.r_bar == (sec.r + sec.beta) % q, "r_bar = r + beta")
    g_u = modexp(g, sec.u, p)
    _check(blind_sdss.recover_commitment(sig, ctx.signer.y, ctx.params) == g_u,
           "the signature recovers the commitment g^u")
    if ctx.scheme == "blind_signcrypt":
        _check(modexp(ctx.recipient.y, sec.u, p) == blind_signcrypt.shared_element(
            t.output, ctx.recipient, ctx.signer.y, ctx.params),
            "key agreement y_C^u = (y_A * T * g^r)^(s * x_C)")
    _open(t)


# -- cross-pairing blindness check ----------------------------------------------

@dataclass
class CrossPairingReport:
    n: int
    cells: list[list[bool]]

    @property
    def passes(self) -> int:
        return sum(sum(row) for row in self.cells)

    @property
    def total(self) -> int:
        return self.n * self.n

    @property
    def all_pass(self) -> bool:
        return self.passes == self.total

    def to_csv(self) -> str:
        rows = ["pair_i,pair_j,pass"]
        for i, row in enumerate(self.cells):
            for j, ok in enumerate(row):
                rows.append(f"{i},{j},{'1' if ok else '0'}")
        return "\n".join(rows) + "\n"

    def summary(self) -> str:
        return (f"cross-pairing: {self.passes}/{self.total} view/signature "
                f"pairings admit consistent blinding factors")


def cross_pairing_check(transcripts: Sequence[FullTranscript]) -> CrossPairingReport:
    """Try to unblind every (view_i, signature_j) pairing.

    For honest transcripts every cell must pass: each signer view is
    consistent with each published signature, so the view carries no link to
    the message-signature pair.
    """
    if len(transcripts) < 2:
        raise ValueError("cross-pairing needs at least two transcripts")
    params = transcripts[0].context.params
    cells = []
    for ti in transcripts:
        row = []
        for tj in transcripts:
            try:
                blind_sdss.recover_blinding_factors(
                    ti.view, tj.signature(), tj.requester_secrets.u, params)
                row.append(True)
            except InconsistentPair:
                row.append(False)
        cells.append(row)
    return CrossPairingReport(n=len(transcripts), cells=cells)


# -- tamper suite ----------------------------------------------------------------

@dataclass
class TamperReport:
    trials: int
    rejections: int
    control_ok: bool
    by_field: dict[str, int] = field(default_factory=dict)

    @property
    def all_rejected(self) -> bool:
        return self.rejections == self.trials

    def summary(self) -> str:
        return (f"tamper: {self.rejections}/{self.trials} single-bit flips "
                f"rejected (control accepts: {self.control_ok})")


def _flip_bit_int(value: int, rng) -> int:
    return value ^ (1 << rng.randrange(max(value.bit_length(), 1)))


def _flip_bit_bytes(value: bytes, rng) -> bytes:
    i = rng.randrange(len(value) * 8)
    out = bytearray(value)
    out[i // 8] ^= 1 << (i % 8)
    return bytes(out)


def tamper_suite(transcript: FullTranscript, trials: int, rng,
                 fields: Sequence[str] = ("c", "r", "s", "T")) -> TamperReport:
    """Flip random single bits of (c, r, s, T) and count unsigncrypt rejections.

    Every flip must be rejected with TagMismatch; acceptance of any tampered
    text is a failure. The untampered control is unsigncrypted first.
    """
    ctx = transcript.context
    if ctx.scheme != "blind_signcrypt":
        raise ValueError("tamper suite needs a blind_signcrypt transcript")
    ct = transcript.output

    def open_text(candidate: BlindSigncryptedText) -> bytes:
        return blind_signcrypt.unsigncrypt(candidate, ctx.recipient, ctx.signer.y,
                                           ctx.bind_info, ctx.params, ctx.suite)

    control_ok = open_text(ct) == transcript.message

    eligible = [f for f in fields if f != "c" or len(ct.c) > 0]
    rejections = 0
    by_field: dict[str, int] = {}
    for _ in range(trials):
        which = eligible[rng.randrange(len(eligible))]
        flip = _flip_bit_bytes if which == "c" else _flip_bit_int
        tampered = dataclasses.replace(ct, **{which: flip(getattr(ct, which), rng)})
        try:
            open_text(tampered)
        except TagMismatch:
            rejections += 1
            by_field[which] = by_field.get(which, 0) + 1
    return TamperReport(trials=trials, rejections=rejections,
                        control_ok=control_ok, by_field=by_field)


# -- efficiency instrumentation ---------------------------------------------------

MULTI_EXP_STRATEGY = "naive: every power counted separately (no multi-exponentiation)"


@dataclass
class BenchReport:
    scheme: str
    counts: dict[str, int]
    strategy: str = MULTI_EXP_STRATEGY

    def lines(self) -> list[str]:
        out = [f"scheme: {self.scheme}",
               f"multi-exponentiation strategy: {self.strategy}"]
        out += [f"party {who}: {n} modexp" for who, n in self.counts.items()]
        return out


def measure_exponentiation_counts(scheme: str, params: GroupParams,
                                  suite: CryptoSuite, rng,
                                  bind_info: bytes = DEFAULT_BIND_INFO) -> BenchReport:
    """Count group exponentiations per party over one honest session.

    Expected with the naive strategy, for blind signcryption:
    A: 1 (z = g^k_tilde), B: 3 (y_C^u, z^r_bar, g^alpha),
    C: 2 (g^r, then the shared-element power). Key generation is excluded.
    For blind_sdss the verifier replaces C and also costs 2.
    """
    transcript = run_honest_sessions(1, scheme, params, suite, rng,
                                     messages=[b"bench message"], bind_info=bind_info)[0]
    counts = dict(transcript.modexp_counts)
    with _counted(counts, "verify" if scheme == "blind_sdss" else "C"):
        _open(transcript)
    return BenchReport(scheme=scheme, counts=counts)
