"""Blind signcryption over discrete-log groups.

Building blocks: shortened-DSS signatures (`sdss`), Zheng-style signcryption
(`zheng`), a blind SDSS signing session (`blind_sdss`), and the combined
blind signcryption protocol (`blind_signcrypt`), with a canonical wire format
(`wire_codec`), a full-knowledge test harness (`harness`), and a CLI (`cli`).

Desk-scale parameters only, and not hardened against side channels. Powers
with a secret exponent take OpenSSL's constant-time kernel and public ones its
variable-time kernels (see `group_math`), but the secret inversions in
`group_math.modinv` are not constant time (ROADMAP item 16), nor are the
conversions and Python code around either.
"""

from .group_math import GroupParams, TOY23, desk512, generate_params, validate_params
from .crypto_suite import CryptoSuite, SplitKeys, derive_keys, get_suite, std_suite, toy_suite
from .sdss import KeyPair, SdssSignature, keygen
from .zheng import SigncryptedText
from .blind_sdss import BlindSignature, ChallengeMsg, CommitMsg, ResponseMsg, View
from .blind_signcrypt import BlindSigncryptedText

__version__ = "0.1.0"

__all__ = [
    "GroupParams", "TOY23", "desk512", "generate_params", "validate_params",
    "CryptoSuite", "SplitKeys", "derive_keys", "get_suite",
    "std_suite", "toy_suite", "KeyPair", "SdssSignature", "keygen",
    "SigncryptedText", "BlindSignature", "ChallengeMsg", "CommitMsg",
    "ResponseMsg", "View", "BlindSigncryptedText",
]
