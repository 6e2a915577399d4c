"""Modular arithmetic over the order-q subgroup of Z_p*, plus parameter handling.

Scalars are plain ints kept reduced mod q; group elements are plain ints in
[1, p-1]. Everything here is a pure function, so concurrent use is safe.
Every power is one call of a kernel, OpenSSL's Montgomery exponentiation
reached through ctypes in the libcrypto that hashlib has loaded, or pow where
that library is not available. `_power` takes one power, counted (`modexp`)
or not (primality and parameter checks), in constant time unless its caller
passes public=True. `_power2` takes b1^e1 * b2^e2 in one call counted as two
(`modexp2`). Two kernels take time that depends on their exponents:
`_power(..., public=True)` (BN_mod_exp_mont) and `_power2`
(BN_mod_exp2_mont). They serve exponents that are on the wire or in the
signer's view, which timing cannot reveal (Brumley & Boneh, USENIX Security
2003, is the attack on a secret one): the recipient's g^r, the requester's
z^r_bar, the verifiers' s and r * s, and the blindness grid's g^q, z^q,
r_bar and -s_bar. Secret exponents (keys, nonces, blinding factors, s * x_C)
and the primality and validation powers take the constant-time kernel. The
only module state is fixed at import: that library handle, and each built-in
set's modulus with its Montgomery context, which the kernels only read. A
counter counts its thread's powers and those of tasks started in its block.
"""

from __future__ import annotations

import contextvars
import ctypes
import secrets
from dataclasses import dataclass
from typing import Callable

from .errors import (
    BadGenerator,
    GenerationTimeout,
    NotPrime,
    OrderMismatch,
    ProtocolError,
    RngFailure,
    ZeroInverse,
    int_text,
)

# Type aliases for readability; invariants are enforced at the boundaries.
Scalar = int
GroupElement = int

MILLER_RABIN_ROUNDS = 40  # error probability < 4^-40 < 2^-80

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


@dataclass(frozen=True)
class GroupParams:
    """Public triple (p, q, g): prime modulus, prime subgroup order, generator.

    Every set, built-in, generated, validated or decoded, computes its powers
    through `modexp` and `modexp2`. A set whose p is a built-in set's p
    reuses that modulus's Montgomery context, kept since import; any other
    set has one built for each call.
    """

    p: int
    q: int
    g: int


# -- byte encoding -------------------------------------------------------------

def int_to_bytes(n: int) -> bytes:
    """Minimal big-endian encoding; 0 encodes as the empty string."""
    if n < 0:
        raise ValueError("negative integers have no canonical encoding")
    return n.to_bytes((n.bit_length() + 7) // 8, "big")


# -- instrumentation -----------------------------------------------------------

class count_exponentiations:
    """Count every modexp executed inside the block, in this thread or in an
    asyncio task started there: `with count_exponentiations() as c:` leaves
    the tally in c.count. Leaving the block, normally or by an exception,
    closes this counter alone, so counters may close in any order."""

    def __init__(self):
        self.count = 0

    def __enter__(self) -> count_exponentiations:
        _active_counters.set(_active_counters.get() + (self,))
        return self

    def __exit__(self, *exc_info) -> None:
        _active_counters.set(tuple(c for c in _active_counters.get() if c is not self))


# Each thread starts with no counter open, but an asyncio task copies the
# context it starts in, so a block's counter also counts its tasks' powers.
_active_counters: contextvars.ContextVar[tuple[count_exponentiations, ...]] = \
    contextvars.ContextVar("active_counters", default=())


# -- core operations -----------------------------------------------------------

def _load_libcrypto():
    """The libcrypto that hashlib links, with the BN functions the kernels
    call declared; None where _hashlib or one of them is missing. crypto_suite
    declares its X9.63 KDF on this same handle for the std-v1 keystream; a
    libcrypto without that KDF keeps the handle here."""
    try:
        import _hashlib
        lib = ctypes.CDLL(_hashlib.__file__)
        ptr = ctypes.c_void_p
        for name, args, res in (
                ("BN_CTX_new", [], ptr),
                ("BN_CTX_free", [ptr], None),
                ("BN_new", [], ptr),
                ("BN_free", [ptr], None),
                ("BN_clear_free", [ptr], None),
                ("BN_bin2bn", [ctypes.c_char_p, ctypes.c_int, ptr], ptr),
                ("BN_bn2binpad", [ptr, ctypes.c_char_p, ctypes.c_int], ctypes.c_int),
                ("BN_mod_exp_mont_consttime", [ptr] * 6, ctypes.c_int),
                ("BN_mod_exp_mont", [ptr] * 6, ctypes.c_int),
                ("BN_mod_exp2_mont", [ptr] * 8, ctypes.c_int),
                ("BN_MONT_CTX_new", [], ptr),
                ("BN_MONT_CTX_set", [ptr, ptr, ptr], ctypes.c_int),
                ("BN_MONT_CTX_free", [ptr], None),
                ("ERR_clear_error", [], None)):
            fn = getattr(lib, name)
            fn.argtypes, fn.restype = args, res
    except (ImportError, OSError, AttributeError):
        return None
    return lib


# Loaded once at import; never written after, so the kernels keep no state.
_libcrypto = _load_libcrypto()


def _bn(lib, n: int):
    data = int_to_bytes(n)
    return lib.BN_bin2bn(data, len(data), None)


def _openssl(lib, kernel, mod: int, numbers: tuple[int, ...]) -> int | None:
    """kernel(r, *numbers, m, ctx, mont) on BIGNUM copies, read back from r,
    or None when a step fails. mont is mod's context kept in _KEPT_MODULI, or
    NULL for OpenSSL to build one within the call. Each call makes and frees
    its own BN context and numbers; ctypes releases the GIL for every call."""
    width = (mod.bit_length() + 7) // 8
    out = (ctypes.c_char * width)()
    kept = _KEPT_MODULI.get(mod)
    ctx = m = r = None
    bns = []
    try:
        ctx = lib.BN_CTX_new()
        for n in numbers:  # _bn inlined, as it runs for every power
            data = n.to_bytes((n.bit_length() + 7) // 8, "big")
            bns.append(lib.BN_bin2bn(data, len(data), None))
        m, mont = kept or (_bn(lib, mod), None)
        r = lib.BN_new()
        if (ctx and all(bns) and m and r and kernel(r, *bns, m, ctx, mont) == 1
                and lib.BN_bn2binpad(r, out, width) == width):
            return int.from_bytes(out.raw, "big")
        lib.ERR_clear_error()  # so that hashlib never reads this failure as its own
        return None
    finally:
        for bn in bns:
            lib.BN_clear_free(bn)
        if not kept:
            lib.BN_free(m)
        lib.BN_free(r)
        lib.BN_CTX_free(ctx)


def _power(base: int, exp: int, mod: int, *, public: bool = False) -> int:
    """base^exp mod mod, uncounted: OpenSSL's BN_mod_exp_mont_consttime, or
    with public=True BN_mod_exp_mont, whose time depends on exp, for
    0 <= base, 0 <= exp and an odd mod > 1 where libcrypto loaded; else, and
    after a failed call, pow."""
    lib = _libcrypto
    if lib is None or exp < 0 or base < 0 or mod <= 1 or not mod & 1:
        return pow(base, exp, mod)
    kernel = lib.BN_mod_exp_mont if public else lib.BN_mod_exp_mont_consttime
    result = _openssl(lib, kernel, mod, (base, exp))
    return pow(base, exp, mod) if result is None else result


def _power2(b1: int, e1: int, b2: int, e2: int, mod: int) -> int:
    """b1^e1 * b2^e2 mod mod, uncounted, in one BN_mod_exp2_mont call
    (Shamir's trick; Handbook of Applied Cryptography, Alg. 14.88), whose
    time depends on e1 and e2. _power twice for what it cannot take: no
    libcrypto, a negative input, an even mod or one <= 1, a failed call, and
    a base = 0 mod mod, for which it gives 0 whatever that base's exponent."""
    lib = _libcrypto
    if (lib is not None and min(b1, e1, b2, e2) >= 0 and mod > 1 and mod & 1
            and b1 % mod and b2 % mod):
        result = _openssl(lib, lib.BN_mod_exp2_mont, mod, (b1, e1, b2, e2))
        if result is not None:
            return result
    return _power(b1, e1, mod) * _power(b2, e2, mod) % mod


def modexp(base: GroupElement, exp: Scalar, p: int, *,
           public: bool = False) -> GroupElement:
    """base^exp mod p. The exponentiation primitive all schemes share: it
    counts one exponentiation, then computes it with _power, in constant time
    unless public=True says that exp is on the wire or in the signer's view.
    perfbench's tracer wraps each protocol module's own `modexp` name in a
    three-argument stand-in, so public powers are called as
    `group_math.modexp(..., public=True)`."""
    for counter in _active_counters.get():
        counter.count += 1
    return _power(base, exp, p, public=public)


def modexp2(b1: GroupElement, e1: Scalar, b2: GroupElement, e2: Scalar,
            p: int) -> GroupElement:
    """b1^e1 * b2^e2 mod p, counted as the two powers it stands for, in one
    variable-time call of _power2: never pass it a secret exponent."""
    for counter in _active_counters.get():
        counter.count += 2
    return _power2(b1, e1, b2, e2, p)


def modinv(a: Scalar, q: int) -> Scalar:
    """a^-1 mod q. Raises ZeroInverse when a = 0 mod q."""
    a %= q
    if a == 0:
        raise ZeroInverse(f"no inverse of 0 mod {int_text(q)}")
    return pow(a, -1, q)


RETRY_BUDGET = 1000


def retry(attempt: Callable[[], object], error: ProtocolError,
          tries: int = RETRY_BUDGET):
    """The first result of attempt() that is not None, within tries calls;
    else raise error. A protocol step fails with probability about 1/q, so it
    keeps RETRY_BUDGET and running out means a broken rng or hash stub. A
    prime search hits a prime about once in ln(n)/2 candidates, so it passes
    its own budget."""
    for _ in range(tries):
        result = attempt()
        if result is not None:
            return result
    raise error


def rand_scalar(rng, q: int) -> Scalar:
    """Uniform scalar in [0, q-1]."""
    try:
        return rng.randrange(q)
    except Exception as exc:
        raise RngFailure(f"random source failed: {exc}") from exc


def rand_scalar_nonzero(rng, q: int) -> Scalar:
    """Uniform scalar in [1, q-1]; zero draws are resampled."""
    return retry(lambda: rand_scalar(rng, q) or None,
                 RngFailure("random source kept returning 0 mod q"))


# -- primality -----------------------------------------------------------------

def is_probable_prime(n: int, rng=None) -> bool:
    """Miller-Rabin with random bases (deterministic when rng is seeded)."""
    if n < 2:
        return False
    for sp in _SMALL_PRIMES:
        if n == sp:
            return True
        if n % sp == 0:
            return False
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    if rng is None:
        rng = secrets.SystemRandom()
    for _ in range(MILLER_RABIN_ROUNDS):
        x = _power(rng.randrange(2, n - 1), d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# -- parameter validation and generation ----------------------------------------

def validate_params(candidate: tuple[int, int, int]) -> GroupParams:
    """Check (p, q, g) and return them as GroupParams, or raise a named error."""
    p, q, g = candidate
    if not is_probable_prime(p):
        raise NotPrime("p", p)
    if not is_probable_prime(q):
        raise NotPrime("q", q)
    if (p - 1) % q != 0:
        raise OrderMismatch(f"q = {int_text(q)} does not divide p - 1 = {int_text(p - 1)}")
    if not 1 < g < p:
        raise BadGenerator(f"g = {int_text(g)} is outside [2, p-1]")
    if _power(g, q, p) != 1:
        raise BadGenerator(f"g = {int_text(g)} does not have order dividing q")
    return GroupParams(p=p, q=q, g=g)


def generate_params(bits_p: int, bits_q: int, rng=None) -> GroupParams:
    """Generate fresh (p, q, g) with p of bits_p bits and q | p - 1 of bits_q bits.

    g is obtained as h0^((p-1)/q) mod p for random h0, retried until g != 1.
    """
    if bits_q < 8:
        raise ValueError("bits_q must be at least 8")
    if bits_q >= bits_p:
        raise ValueError("bits_q must be smaller than bits_p")
    if rng is None:
        rng = secrets.SystemRandom()
    tries = 200 * bits_p

    def draw_q():
        n = rng.randrange(1 << (bits_q - 1), 1 << bits_q) | 1
        return n if is_probable_prime(n, rng=rng) else None

    q = retry(draw_q, GenerationTimeout(f"no {bits_q}-bit prime found in {tries} tries"), tries)

    # p = q*m + 1 with m even; lo <= m <= hi puts p on exactly bits_p bits
    lo = ((1 << (bits_p - 1)) - 1) // q + 1
    hi = ((1 << bits_p) - 1 - 1) // q

    def draw_p():
        m = rng.randrange(lo, hi + 1) & ~1
        return q * m + 1 if m >= lo and is_probable_prime(q * m + 1, rng=rng) else None

    p = retry(draw_p, GenerationTimeout(f"no prime p found in {tries} tries"), tries)
    cofactor = (p - 1) // q

    def draw_generator():
        g = _power(rng.randrange(2, p - 1), cofactor, p)
        return g if g != 1 else None

    g = retry(draw_generator, GenerationTimeout("no generator found"))
    return validate_params((p, q, g))


# -- named parameter sets --------------------------------------------------------

TOY23 = GroupParams(p=23, q=11, g=2)

# generate_params(512, 160, random.Random("desk512-v1")), committed so that no
# process has to regenerate it; tests/test_group_math.py regenerates and checks it.
DESK512 = GroupParams(
    p=int("ad34586a4574c63f6e763e875b1a8ce57e150bc35285a2689a818ddf23553a5b"
          "f9559fef7306cda6763da20353a3e9d88c20a265a19d6bd76729d25e0f3fa9ef", 16),
    q=int("b26b8fe706c2902945059c7ae6554a9d06729837", 16),
    g=int("0b48eb3919664359dcecf1fe2f640a731ee925eb41846eefc6e95d7e3706a83e"
          "a34b081abc8d6a03424d8e57cbede86e9e6b3b0e7b39c95f7ba12375106b07dc", 16),
)

# The built-in sets by name: constants that the tests validate, so a caller
# may skip validate_params for them.
NAMED_PARAMS = {"toy23": TOY23, "desk512": DESK512}


def _keep_moduli(lib, moduli) -> dict[int, tuple[int, int]]:
    """Each of these odd moduli as (BIGNUM, Montgomery context), built once
    for the kernels; a modulus whose build fails is left out, and so takes the
    per-call path. Empty where libcrypto did not load."""
    if lib is None:
        return {}
    kept, ctx = {}, lib.BN_CTX_new()
    for p in moduli:
        m, mont = _bn(lib, p), lib.BN_MONT_CTX_new()
        if ctx and m and mont and lib.BN_MONT_CTX_set(mont, m, ctx) == 1:
            kept[p] = (m, mont)
        else:
            lib.ERR_clear_error()
            lib.BN_free(m)
            lib.BN_MONT_CTX_free(mont)
    lib.BN_CTX_free(ctx)
    return kept


# Built once at import and never written after, as _libcrypto is.
_KEPT_MODULI = _keep_moduli(_libcrypto, [params.p for params in NAMED_PARAMS.values()])


def desk512() -> GroupParams:
    """512-bit p / 160-bit q set.

    Desk scale only: well below modern security margins, but large enough that
    hash collisions mod q are not observable in tests.
    """
    return DESK512
