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
`pairing_grid` decides the same for every view against every signature. It
splits g^alpha into a power per signature and a power per view, and keeps
each view's powers of z for its row, so n views against n signatures cost
O(n) powers, not O(n^2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .crypto_suite import CryptoSuite
from .errors import (
    BadChallenge,
    BadCommit,
    BadGenerator,
    DegenerateDenominator,
    InconsistentPair,
    InvalidState,
    RngFailure,
    int_text,
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
from .sdss import verified_commitment as sdss_verified_commitment


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
    """What the signer keeps from commit to respond; spent once it responded."""
    params: GroupParams
    k_tilde: Scalar
    spent: bool


@dataclass
class BlindingSession:
    """The requester state both blind schemes keep between challenge and
    finalize; spent once it was unblinded."""
    params: GroupParams
    u: Scalar
    alpha: Scalar
    beta: Scalar
    r: Scalar
    T: GroupElement
    spent: bool


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
    return SignerSession(params=params, k_tilde=k_tilde, spent=False), CommitMsg(z=z)


def blind_challenge(session_cls: type, z: GroupElement, derive_r,
                    params: GroupParams, rng):
    """The requester core both blind schemes share: validate z, draw u until
    derive_r(u) gives r != 0, beta until r_bar = r + beta != 0, then alpha,
    and form T = z^r_bar * g^alpha mod p. The draw order is fixed so seeded
    runs are reproducible. derive_r(u) returns r and every field of
    session_cls that the scheme adds."""
    p, q = params.p, params.q
    if not 0 < z < p:
        raise BadCommit(f"commitment z = {int_text(z)} is outside [1, p-1]")
    if z % q == 0:
        raise BadCommit(f"commitment z = {int_text(z)} is divisible by q")

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

    session = session_cls(params=params, u=u, alpha=alpha, beta=beta, r=r, T=T,
                          spent=False, **derived)
    return session, ChallengeMsg(r_bar=r_bar)


def requester_challenge(m: bytes, z: GroupElement, signer_pub: GroupElement,
                        params: GroupParams, suite: CryptoSuite,
                        rng) -> tuple[RequesterSession, ChallengeMsg]:
    """Blind the message hash r = h(g^u mod p || m) and send the challenge r_bar."""
    def derive_r(u):
        r = commitment_hash(modexp(params.g, u, params.p), m, params, suite)
        return r, {"m": m, "signer_pub": signer_pub}

    return blind_challenge(RequesterSession, z, derive_r, params, rng)


def signer_respond(session: SignerSession, r_bar: Scalar, key: KeyPair) -> ResponseMsg:
    """s_bar = x + r_bar * k_tilde mod q. Consumes the session."""
    if session.spent:
        raise InvalidState("cannot respond: the signer session has already responded")
    if r_bar % session.params.q == 0:
        raise BadChallenge("challenge r_bar is 0 mod q")
    s_bar = (key.x + r_bar * session.k_tilde) % session.params.q
    session.spent = True
    return ResponseMsg(s_bar=s_bar)


def unblind(session: BlindingSession, s_bar: Scalar, q: int) -> Scalar:
    """s = u / (r + s_bar + alpha) mod q, the SDSS s with nonce u and key
    s_bar + alpha. Consumes the session.

    A zero denominator r + s_bar + alpha aborts the whole session: alpha is
    already baked into T, so redrawing it here would desynchronize the pair.
    """
    if session.spent:
        raise InvalidState("cannot finalize: the requester session is already unblinded")
    session.spent = True
    s = s_from_nonce(session.u, session.r, s_bar + session.alpha, q)
    if s is None:
        raise DegenerateDenominator("r + s_bar + alpha = 0 mod q; restart the session")
    return s


def requester_finalize(session: RequesterSession, s_bar: Scalar,
                       params: GroupParams) -> BlindSignature:
    """Unblind the response into the final signature (r, s, T)."""
    return BlindSignature(r=session.r, s=unblind(session, s_bar, params.q), T=session.T)


def one_time_key(signer_pub: GroupElement, T: GroupElement,
                 params: GroupParams) -> GroupElement | None:
    """y * T mod p, the key (r, s, T) is checked under; None for T outside
    [1, p-1]. The verifier, the recipient and the harness call it."""
    return signer_pub * T % params.p if 0 < T < params.p else None


def verified_commitment(m: bytes, sig: BlindSignature, signer_pub: GroupElement,
                        params: GroupParams, suite: CryptoSuite) -> GroupElement | None:
    """K = (y * T * g^r)^s mod p when (r, s, T) verifies on m, else None; for
    an honest signature K = g^u mod p."""
    key = one_time_key(signer_pub, sig.T, params)
    return None if key is None else sdss_verified_commitment(m, sig, key, params, suite)


def verify(m: bytes, sig: BlindSignature, signer_pub: GroupElement,
           params: GroupParams, suite: CryptoSuite) -> bool:
    """(r, s, T) is valid iff (r, s) is an SDSS signature under the key y * T."""
    return verified_commitment(m, sig, signer_pub, params, suite) is not None


def one_time_exponent(sig: BlindSignature, u: Scalar, q: int) -> Scalar | None:
    """a = s^-1 * u - r mod q, or None when the s-equation fails for every view.

    Unblinding fixes s_bar + alpha = a (mod q), so an honest signature's
    one-time key y * T = g^(s_bar + alpha) is g^a mod p. With
    alpha = a - s_bar, s_from_nonce(u, r, s_bar + alpha, q) returns s exactly
    when r != 0, u != 0 (mod q) and 0 < s < q; s = 0 (mod q) has no inverse.
    """
    if sig.r == 0 or u % q == 0 or not 0 < sig.s < q:
        return None
    return (modinv(sig.s, q) * u - sig.r) % q


def recover_blinding_factors(view: View, sig: BlindSignature, u: Scalar,
                             params: GroupParams) -> tuple[Scalar, Scalar]:
    """Find the unique (alpha, beta) reconciling a signer view with a signature:

      beta  = r_bar - r mod q
      alpha = s^-1 * u - (r + s_bar) mod q

    and re-assert both defining equations, s = u / (r + s_bar + alpha) mod q
    (see `one_time_exponent`) and T = z^r * z^beta * g^alpha mod p. The T check
    takes two powers: z^(r + beta) with the unreduced integer exponent, which
    equals z^r * z^beta for every z in Z_p*, and g^alpha.
    Raises InconsistentPair for a dishonest view or an invalid signature.
    """
    p, q = params.p, params.q
    a = one_time_exponent(sig, u, q)
    if a is None:
        raise InconsistentPair("s does not match u / (r + s_bar + alpha)")
    beta = (view.r_bar - sig.r) % q
    alpha = (a - view.s_bar) % q
    if modexp(view.z, sig.r + beta, p) * modexp(params.g, alpha, p) % p != sig.T:
        raise InconsistentPair("T does not match z^r * z^beta * g^alpha")
    return alpha, beta


def pairing_grid(views: Sequence[View], columns: Sequence[tuple[BlindSignature, Scalar]],
                 params: GroupParams) -> list[list[bool]]:
    """cells[i][j]: whether `recover_blinding_factors(views[i], sig, u, params)`
    succeeds for columns[j] = (sig, u), from O(n) powers instead of two per cell.

    With g of order q, g^alpha = g^a_j * R_i mod p for a_j from
    `one_time_exponent` and R_i = g^(-s_bar_i) per row, so the T equation
    z^(r + beta) * R_i * g^a_j = T (mod p) reads z^(r + beta) * R_i = D_j with
    the column's target D_j = T_j * g^(-a_j) mod p. A column whose
    s-equation fails, or whose T lies outside [0, p) where no reduced product
    can equal it, is False in every row and costs no power. Each row keeps
    z^(r + beta) * R_i keyed by the unreduced exponent r + beta, which for
    0 <= r < q is r_bar mod q or r_bar mod q + q, so a cell is one
    comparison: an n x n grid costs 2n + 1 powers of g (one checks
    g^q = 1) and, for 0 <= r < q, at most 2n powers of the views' z.
    Raises BadGenerator when g^q != 1 mod p, where the split would be wrong.
    """
    p, q, g = params.p, params.q, params.g
    if modexp(g, q, p) != 1:
        raise BadGenerator(f"g = {int_text(g)} does not have order dividing q")
    cols = []
    for sig, u in columns:
        a = one_time_exponent(sig, u, q)
        ok = a is not None and 0 <= sig.T < p
        cols.append((sig.r, sig.T * modexp(g, -a % q, p) % p) if ok else None)

    cells = []
    for view in views:
        row_power = modexp(g, -view.s_bar % q, p)
        z_powers: dict[int, GroupElement] = {}
        row = []
        for col in cols:
            if col is None:
                row.append(False)
                continue
            r, target = col
            exponent = r + (view.r_bar - r) % q
            z_power = z_powers.get(exponent)
            if z_power is None:
                z_power = z_powers[exponent] = modexp(view.z, exponent, p) * row_power % p
            row.append(z_power == target)
        cells.append(row)
    return cells
