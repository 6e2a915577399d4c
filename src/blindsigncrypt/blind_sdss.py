"""Blind SDSS: a three-move signing session that hides the message from the signer.

Flow between signer A (keypair x, y) and requester B holding message m:

  1. A draws nonce k_tilde, commits z = g^k_tilde mod p (retried until
     z is not divisible by q) and sends z.
  2. B draws u, computes r = h(g^u mod p || m), blinds it with beta as
     r_bar = r + beta mod q (r_bar must stay nonzero), forms
     T = z^r_bar * g^alpha mod p, and sends the challenge r_bar.
  3. A responds s_bar = x + r_bar * k_tilde mod q.
  4. B unblinds: s = u / (r + s_bar + alpha) mod q. The published signature
     is (r, s, T); T is carried because verification needs it.

Verification recomputes K = (y * T * g^r)^s mod p and accepts iff
h(K || m) = r; for honest runs K = g^u mod p.

Blindness is mechanically checkable: for ANY signer view (z, r_bar, s_bar)
and ANY valid signature, `recover_blinding_factors` finds the unique
(alpha, beta) that reconcile them, so the view pins down nothing.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .crypto_suite import CryptoSuite
from .errors import (
    BadChallenge,
    BadCommit,
    DegenerateDenominator,
    InconsistentPair,
    InvalidState,
    RngFailure,
    ZeroInverse,
)
from .group_math import (
    GroupElement,
    GroupParams,
    Scalar,
    modexp,
    modinv,
    rand_scalar,
    rand_scalar_nonzero,
    retry,
)
from .sdss import KeyPair, commitment_hash, s_from_nonce
from .sdss import recover_commitment as sdss_recover_commitment, verify as sdss_verify


class SignerState(enum.Enum):
    COMMITTED = "committed"
    RESPONDED = "responded"


class RequesterState(enum.Enum):
    CHALLENGED = "challenged"
    DONE = "done"


# protocol messages (serialized by wire_codec)

@dataclass(frozen=True)
class CommitMsg:
    z: GroupElement


@dataclass(frozen=True)
class ChallengeMsg:
    r_bar: Scalar


@dataclass(frozen=True)
class ResponseMsg:
    s_bar: Scalar


@dataclass(frozen=True)
class BlindSignature:
    r: Scalar
    s: Scalar
    T: GroupElement


@dataclass(frozen=True)
class View:
    """Everything the signer observes in one run; k_tilde only in test mode."""
    z: GroupElement
    r_bar: Scalar
    s_bar: Scalar
    k_tilde: Scalar | None = None


@dataclass
class SignerSession:
    params: GroupParams
    k_tilde: Scalar
    z: GroupElement
    state: SignerState


@dataclass
class BlindingSession:
    """The requester state both blind schemes keep between challenge and finalize."""
    params: GroupParams
    z: GroupElement
    u: Scalar
    alpha: Scalar
    beta: Scalar
    r: Scalar
    r_bar: Scalar
    T: GroupElement
    state: RequesterState


@dataclass
class RequesterSession(BlindingSession):
    m: bytes
    signer_pub: GroupElement


def signer_commit(key: KeyPair, params: GroupParams, rng) -> tuple[SignerSession, CommitMsg]:
    """Draw the one-shot nonce and publish z = g^k_tilde mod p.

    z divisible by q would break the blindness argument, so such draws are
    retried internally (with prime q this means q | z).
    """
    p, q = params.p, params.q

    def draw_commitment():
        k_tilde = rand_scalar_nonzero(rng, q)
        z = modexp(params.g, k_tilde, p)
        return (k_tilde, z) if z % q != 0 else None

    k_tilde, z = retry(draw_commitment,
                       RngFailure("could not draw a commitment with gcd(z, q) = 1"))
    session = SignerSession(params=params, k_tilde=k_tilde, z=z,
                            state=SignerState.COMMITTED)
    return session, CommitMsg(z=z)


def blind_challenge(session_cls: type, z: GroupElement, derive_r,
                    params: GroupParams, rng, **fields):
    """The requester core both blind schemes share: validate z, draw u until
    derive_r(u) gives r != 0, beta until r_bar = r + beta != 0, then alpha,
    and form T = z^r_bar * g^alpha mod p. The draw order is fixed so seeded
    runs are reproducible. derive_r(u) returns r and the session fields it
    derived; `fields` holds the rest."""
    p, q = params.p, params.q
    if not 0 < z < p:
        raise BadCommit(f"commitment z = {z} is outside [1, p-1]")
    if z % q == 0:
        raise BadCommit(f"commitment z = {z} is divisible by q")

    def draw_u():
        u = rand_scalar_nonzero(rng, q)
        r, derived = derive_r(u)
        return (u, r, derived) if r != 0 else None

    def draw_beta():
        beta = rand_scalar(rng, q)
        return beta if (r + beta) % q != 0 else None

    u, r, derived = retry(draw_u, RngFailure("could not reach a nonzero r"))
    beta = retry(draw_beta, RngFailure("could not reach a nonzero challenge"))
    r_bar = (r + beta) % q
    alpha = rand_scalar(rng, q)
    T = modexp(z, r_bar, p) * modexp(params.g, alpha, p) % p

    session = session_cls(params=params, z=z, u=u, alpha=alpha, beta=beta, r=r,
                          r_bar=r_bar, T=T, state=RequesterState.CHALLENGED,
                          **fields, **derived)
    return session, ChallengeMsg(r_bar=r_bar)


def requester_challenge(m: bytes, z: GroupElement, signer_pub: GroupElement,
                        params: GroupParams, suite: CryptoSuite,
                        rng) -> tuple[RequesterSession, ChallengeMsg]:
    """Blind the message hash r = h(g^u mod p || m) and send the challenge r_bar."""
    def derive_r(u):
        return commitment_hash(modexp(params.g, u, params.p), m, params, suite), {}

    return blind_challenge(RequesterSession, z, derive_r, params, rng,
                           m=m, signer_pub=signer_pub)


def signer_respond(session: SignerSession, r_bar: Scalar, key: KeyPair) -> ResponseMsg:
    """s_bar = x + r_bar * k_tilde mod q. Consumes the session."""
    if session.state is not SignerState.COMMITTED:
        raise InvalidState(f"cannot respond in state {session.state.value}")
    if r_bar % session.params.q == 0:
        raise BadChallenge("challenge r_bar is 0 mod q")
    s_bar = (key.x + r_bar * session.k_tilde) % session.params.q
    session.state = SignerState.RESPONDED
    return ResponseMsg(s_bar=s_bar)


def unblind(session: BlindingSession, s_bar: Scalar, q: int) -> Scalar:
    """s = u / (r + s_bar + alpha) mod q, the SDSS s with nonce u and key
    s_bar + alpha. Consumes the session.

    A zero denominator r + s_bar + alpha aborts the whole session: alpha is
    already baked into T, so redrawing it here would desynchronize the pair.
    """
    if session.state is not RequesterState.CHALLENGED:
        raise InvalidState(f"cannot finalize in state {session.state.value}")
    session.state = RequesterState.DONE
    s = s_from_nonce(session.u, session.r, s_bar + session.alpha, q)
    if s is None:
        raise DegenerateDenominator("r + s_bar + alpha = 0 mod q; restart the session")
    return s


def requester_finalize(session: RequesterSession, s_bar: Scalar,
                       params: GroupParams) -> BlindSignature:
    """Unblind the response into the final signature (r, s, T)."""
    return BlindSignature(r=session.r, s=unblind(session, s_bar, params.q), T=session.T)


def recover_commitment(sig: BlindSignature, signer_pub: GroupElement,
                       params: GroupParams) -> GroupElement:
    """K = (y * T * g^r)^s mod p; equals g^u mod p for an honest signature."""
    return sdss_recover_commitment(sig, signer_pub * sig.T % params.p, params)


def verify(m: bytes, sig: BlindSignature, signer_pub: GroupElement,
           params: GroupParams, suite: CryptoSuite) -> bool:
    """(r, s, T) is valid iff (r, s) is an SDSS signature under the key y * T."""
    return 0 < sig.T < params.p and sdss_verify(m, sig, signer_pub * sig.T % params.p,
                                                params, suite)


def recover_blinding_factors(view: View, sig: BlindSignature, u: Scalar,
                             params: GroupParams) -> tuple[Scalar, Scalar]:
    """Find the unique (alpha, beta) reconciling a signer view with a signature.

      beta  = r_bar - r mod q
      alpha = s^-1 * u - (r + s_bar) mod q

    Both defining equations are re-asserted on the result:
    T = z^r * z^beta * g^alpha mod p and s = u / (r + s_bar + alpha) mod q.
    Raises InconsistentPair when they fail, which signals a dishonest view or
    an invalid signature. Success for every cross-pairing of honest sessions
    is exactly the unlinkability property the harness checks.
    """
    p, q = params.p, params.q
    try:
        beta = (view.r_bar - sig.r) % q
        alpha = (modinv(sig.s, q) * u - (sig.r + view.s_bar)) % q

        t_check = (modexp(view.z, sig.r, p) * modexp(view.z, beta, p)
                   * modexp(params.g, alpha, p)) % p
        if t_check != sig.T:
            raise InconsistentPair("T does not match z^r * z^beta * g^alpha")

        if s_from_nonce(u, sig.r, view.s_bar + alpha, q) != sig.s:
            raise InconsistentPair("s does not match u / (r + s_bar + alpha)")
    except ZeroInverse as exc:
        raise InconsistentPair(f"required inverse does not exist: {exc}") from exc
    return alpha, beta
