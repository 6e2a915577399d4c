"""Shortened DSS signatures: r = h(g^k mod p || m), s = k / (r + x) mod q.

Verification recomputes K = (y * g^r)^s mod p, which equals g^k mod p for an
honest signature, and checks that hashing K with the message reproduces r.
"""

from __future__ import annotations

from dataclasses import dataclass

from .crypto_suite import CryptoSuite, hash_to_scalar
from .errors import RngFailure
from .group_math import (
    GroupElement,
    GroupParams,
    Scalar,
    int_to_bytes,
    modexp,
    modinv,
    rand_scalar_nonzero,
    retry,
)


@dataclass(frozen=True)
class KeyPair:
    x: Scalar        # secret, in [1, q-1]
    y: GroupElement  # public, g^x mod p


@dataclass(frozen=True)
class SdssSignature:
    r: Scalar
    s: Scalar


def keygen(params: GroupParams, rng) -> KeyPair:
    x = rand_scalar_nonzero(rng, params.q)
    return KeyPair(x=x, y=public_key(x, params))


def public_key(x: Scalar, params: GroupParams) -> GroupElement:
    """y = g^x mod p."""
    return modexp(params.g, x, params.p)


def commitment_hash(element: GroupElement, m: bytes, params: GroupParams,
                    suite: CryptoSuite) -> Scalar:
    """The shared signature hash: int_to_bytes(element) || m, reduced mod q."""
    return hash_to_scalar(int_to_bytes(element) + m, params.q, suite)


def sign_with_nonce(m: bytes, key: KeyPair, k: Scalar, params: GroupParams,
                    suite: CryptoSuite) -> SdssSignature | None:
    """One signing attempt with a fixed nonce.

    Returns None when r = 0 or r + x = 0 mod q, in which case the caller must
    retry with a fresh nonce. Split out so tests can drive known nonces.
    """
    r = commitment_hash(modexp(params.g, k, params.p), m, params, suite)
    s = s_from_nonce(k, r, key.x, params.q)
    return None if s is None else SdssSignature(r=r, s=s)


def s_from_nonce(k: Scalar, r: Scalar, x: Scalar, q: int) -> Scalar | None:
    """s = k / (r + x) mod q, or None when r = 0 or r + x = 0 mod q. Zheng
    signcryption shares it; blind unblinding uses it with x = s_bar + alpha."""
    denom = (r + x) % q
    if r == 0 or denom == 0:
        return None
    return k * modinv(denom, q) % q


def sign(m: bytes, key: KeyPair, params: GroupParams, suite: CryptoSuite,
         rng) -> SdssSignature:
    return retry(
        lambda: sign_with_nonce(m, key, rand_scalar_nonzero(rng, params.q), params, suite),
        RngFailure("signing kept hitting degenerate r; suspect rng or hash stub"))


def key_power(y: GroupElement, r: Scalar, e: Scalar, params: GroupParams) -> GroupElement:
    """(y * g^r)^e mod p, the power every verifier and recipient takes.

    Computed as y^e * g^(r*e mod q): two exact powers, as many as
    (y * g^r)^e takes, whose exponents stay below q. The split is exact for
    any y in Z_p* when g has order q, which `validate_params` and the named
    sets guarantee."""
    p = params.p
    return modexp(y, e, p) * modexp(params.g, r * e % params.q, p) % p


def recover_commitment(sig: SdssSignature, signer_pub: GroupElement,
                       params: GroupParams) -> GroupElement:
    """K = (y * g^r)^s mod p; equals g^k mod p for an honest signature.
    Blind SDSS recovers and verifies through here with y * T as the key."""
    return key_power(signer_pub, sig.r, sig.s, params)


def verified_commitment(m: bytes, sig: SdssSignature, signer_pub: GroupElement,
                        params: GroupParams, suite: CryptoSuite) -> GroupElement | None:
    """The verifier's move: K = (y * g^r)^s mod p once (r, s) has passed the
    range checks and hashing K with m has reproduced r; None otherwise."""
    if not (0 < sig.r < params.q and 0 < sig.s < params.q):
        return None
    k_element = recover_commitment(sig, signer_pub, params)
    return k_element if commitment_hash(k_element, m, params, suite) == sig.r else None


def verify(m: bytes, sig: SdssSignature, signer_pub: GroupElement,
           params: GroupParams, suite: CryptoSuite) -> bool:
    return verified_commitment(m, sig, signer_pub, params, suite) is not None
