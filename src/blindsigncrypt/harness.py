"""In-process three-party engine producing full-knowledge transcripts.

Runs honest blind-SDSS or blind-signcryption sessions with every secret
exposed (signer nonce, requester blinding factors), then feeds them to the
cross-pairing blindness check, the bit-flip tamper suite, and the
exponentiation-count benchmark.

The blindness check is structural, not statistical: every (view, output)
pairing across independent sessions must admit consistent blinding factors,
which makes any view compatible with any signature. The consistency checks
raise HarnessCheckFailed, so they hold under `python -O` too. Each compares
one power of an element the secrets predict with what the receiving party
computes, and retakes no power of that party's move, so a session costs 7
counted powers (blind SDSS) or 8 (blind signcryption), the protocol's 6 included.
"""

from __future__ import annotations

import dataclasses
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, Sequence

from . import blind_sdss, blind_signcrypt
from .blind_sdss import BlindingSession, BlindSignature, View
from .blind_signcrypt import BlindSigncryptedText
from .crypto_suite import CryptoSuite
from .errors import DegenerateDenominator, HarnessCheckFailed, RngFailure, TagMismatch
from .group_math import GroupElement, GroupParams, count_exponentiations, modexp, retry
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
class FullTranscript:
    view: View
    requester_secrets: BlindingSession  # the requester's session, with its u, alpha, beta, r
    output: BlindSignature | BlindSigncryptedText
    message: bytes
    context: HarnessContext
    modexp_counts: dict[str, int]  # A, B in the session that completed, then C or verify

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
    as a real caller would; restarts are counted on the context and bounded
    by `group_math.retry`'s budget, past which RngFailure is raised.
    """
    params, suite = ctx.params, ctx.suite
    finalize = (blind_sdss.requester_finalize if ctx.scheme == "blind_sdss"
                else blind_signcrypt.bsc_requester_finalize)

    def attempt() -> FullTranscript | None:
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
                output = finalize(req, response.s_bar, params)
        except DegenerateDenominator:
            ctx.degenerate_retries += 1
            return None
        return FullTranscript(
            view=View(z=commit.z, r_bar=challenge.r_bar, s_bar=response.s_bar,
                      k_tilde=signer_session.k_tilde),
            requester_secrets=req,
            output=output,
            message=m,
            context=ctx,
            modexp_counts=counts,
        )

    transcript = retry(attempt, RngFailure(
        "harness session kept hitting a degenerate denominator; suspect the rng"))
    _check_consistent(transcript)
    return transcript


def _check(ok: bool, what: str) -> None:
    if not ok:
        raise HarnessCheckFailed(f"harness check failed: {what}")


def _open(t: FullTranscript) -> GroupElement:
    """The receiving party's move: verify the signature or unsigncrypt the
    text, counted in t.modexp_counts under "verify" or "C". Returns the
    element that move computed, K = g^u (verifier) or y_C^u (recipient) for
    an honest transcript; a rejection raises HarnessCheckFailed."""
    ctx = t.context
    with _counted(t.modexp_counts, "verify" if ctx.scheme == "blind_sdss" else "C"):
        if ctx.scheme == "blind_sdss":
            k_element = blind_sdss.verified_commitment(t.message, t.signature(), ctx.signer.y,
                                                       ctx.params, ctx.suite)
            _check(k_element is not None, "blind signature verifies")
            return k_element
        try:
            recovered, shared = blind_signcrypt.open_sealed(
                t.output, ctx.recipient, ctx.signer.y, ctx.bind_info, ctx.params, ctx.suite)
        except TagMismatch:
            recovered = shared = None
        _check(recovered == t.message, "unsigncrypt recovers the message")
        return shared


def _check_consistent(t: FullTranscript) -> None:
    """Check an honest transcript against the secrets that produced it.

    The scalar equations come first, then one power per element the secrets
    predict: g^u against the verifier's K (blind_sdss, 7 counted powers with
    the protocol's 6), or g^a against the one-time key y_A * T, which implies
    K = g^u (`blind_sdss.one_time_exponent`), and y_C^u against the
    recipient's shared element (blind_signcrypt, 8 counted powers).
    """
    ctx = t.context
    p, q, g = ctx.params.p, ctx.params.q, ctx.params.g
    sec = t.requester_secrets

    _check(t.view.s_bar == (ctx.signer.x + t.view.r_bar * t.view.k_tilde) % q,
           "s_bar = x + r_bar * k_tilde")
    _check(t.view.r_bar == (sec.r + sec.beta) % q, "r_bar = r + beta")
    if ctx.scheme == "blind_sdss":
        _check(_open(t) == modexp(g, sec.u, p), "the signature recovers the commitment g^u")
        return
    a = blind_sdss.one_time_exponent(t.signature(), sec.u, q)
    _check(a is not None and
           blind_sdss.one_time_key(ctx.signer.y, t.output.T, ctx.params) == modexp(g, a, p),
           "y_A * T = g^(s^-1 * u - r), so the signature recovers the commitment g^u")
    y_c_u = modexp(ctx.recipient.y, sec.u, p)
    _check(_open(t) == y_c_u, "key agreement y_C^u = (y_A * T * g^r)^(s * x_C)")


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
    the message-signature pair. The cells come from one
    `blind_sdss.pairing_grid`, so an n x n grid of signatures with
    0 <= r < q costs 2n + 1 powers of g plus at most 2n powers of the views'
    z, and each cell is one comparison. The transcripts must share one
    parameter set.
    """
    if len(transcripts) < 2:
        raise ValueError("cross-pairing needs at least two transcripts")
    params = transcripts[0].context.params
    if any(t.context.params != params for t in transcripts):
        raise ValueError("cross-pairing needs transcripts from one parameter set")
    cells = blind_sdss.pairing_grid(
        [t.view for t in transcripts],
        [(t.signature(), t.requester_secrets.u) for t in transcripts], params)
    return CrossPairingReport(n=len(transcripts), cells=cells)


# -- tamper suite ----------------------------------------------------------------

@dataclass
class TamperReport:
    """Flips tried and rejected; control_ok says whether the untampered text
    opened to its message."""
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


TAMPER_FIELDS = ("c", "r", "s", "T")


def tamper_suite(transcript: FullTranscript, trials: int, rng) -> TamperReport:
    """Flip random single bits of (c, r, s, T) and count unsigncrypt rejections.

    Each flip picks one field uniformly; c is skipped when the ciphertext is
    empty. Every flip must be rejected with TagMismatch; acceptance of any
    tampered text is a failure. The untampered control is unsigncrypted
    first; a control that is rejected or opens to another message reads
    control_ok=False, and the flips run as usual. A negative `trials` raises
    ValueError before any draw; zero trials runs the control alone.
    """
    ctx = transcript.context
    if ctx.scheme != "blind_signcrypt":
        raise ValueError("tamper suite needs a blind_signcrypt transcript")
    if trials < 0:
        raise ValueError(f"trials must be at least 0, got {trials}")
    ct = transcript.output
    eligible = [f for f in TAMPER_FIELDS if f != "c" or ct.c]

    def open_text(candidate: BlindSigncryptedText) -> bytes:
        return blind_signcrypt.unsigncrypt(candidate, ctx.recipient, ctx.signer.y,
                                           ctx.bind_info, ctx.params, ctx.suite)

    try:
        control_ok = open_text(ct) == transcript.message
    except TagMismatch:
        control_ok = False

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

@dataclass
class BenchReport:
    scheme: str
    counts: dict[str, int]
    strategy = "naive: every power counted separately (no multi-exponentiation)"

    def lines(self) -> list[str]:
        out = [f"scheme: {self.scheme}",
               f"multi-exponentiation strategy: {self.strategy}"]
        out += [f"party {who}: {n} modexp" for who, n in self.counts.items()]
        return out


def measure_exponentiation_counts(scheme: str, params: GroupParams,
                                  suite: CryptoSuite, rng) -> BenchReport:
    """Count group exponentiations per party over one honest session: the
    counts of the transcript that run_honest_sessions ran and checked.

    Expected with the naive strategy, for blind signcryption:
    A: 1 (z = g^k_tilde), B: 3 (y_C^u, z^r_bar, g^alpha),
    C: 2 (g^r and (y_A * T * g^r)^e for e = s * x_C). Key generation is excluded.
    For blind_sdss the verifier replaces C and also costs 2. A redrawn u
    (r = 0 mod q, about 1 in q) adds its power to B.
    """
    transcript = run_honest_sessions(1, scheme, params, suite, rng,
                                     messages=[b"bench message"])[0]
    return BenchReport(scheme=scheme, counts=transcript.modexp_counts)
