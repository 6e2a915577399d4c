"""Modular arithmetic over the order-q subgroup of Z_p*, plus parameter handling.

Scalars are plain ints kept reduced mod q; group elements are plain ints in
[1, p-1]. Everything here is a pure function, so concurrent use is safe.
Every power, counted (`modexp`) or not (primality and parameter checks), is
one call of `_power`: OpenSSL's Montgomery exponentiation, reached through
ctypes in the libcrypto that hashlib has loaded, or pow where that library
is not available. The only module state is that library handle, fixed at
import. The optional exponentiation counters are per thread.
"""

from __future__ import annotations

import contextvars
import ctypes
import secrets
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator

from .errors import (
    BadGenerator,
    GenerationTimeout,
    NotPrime,
    OrderMismatch,
    ProtocolError,
    RngFailure,
    ZeroInverse,
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
    the same way, through `modexp`.
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

class ExpCounter:
    """Tally of group exponentiations, for the efficiency report."""

    def __init__(self):
        self.count = 0


# The counters open in the current context: each thread starts with none, so a
# counter counts only the powers of the thread (or task) that opened it.
_active_counters: contextvars.ContextVar[tuple[ExpCounter, ...]] = \
    contextvars.ContextVar("active_counters", default=())


@contextmanager
def count_exponentiations() -> Iterator[ExpCounter]:
    """Count every modexp executed inside the block, in this thread."""
    counter = ExpCounter()
    _active_counters.set(_active_counters.get() + (counter,))
    try:
        yield counter
    finally:
        _active_counters.set(tuple(c for c in _active_counters.get() if c is not counter))


# -- core operations -----------------------------------------------------------

def _load_libcrypto():
    """The libcrypto that hashlib links, with the BN functions _power calls
    declared; None where _hashlib or one of them is missing."""
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
                ("ERR_clear_error", [], None)):
            fn = getattr(lib, name)
            fn.argtypes, fn.restype = args, res
    except (ImportError, OSError, AttributeError):
        return None
    return lib


# Loaded once at import; never written after, so _power keeps no state.
_libcrypto = _load_libcrypto()


def _bn(lib, n: int):
    data = int_to_bytes(n)
    return lib.BN_bin2bn(data, len(data), None)


def _power(base: int, exp: int, mod: int) -> int:
    """base^exp mod mod, uncounted: OpenSSL's BN_mod_exp_mont_consttime
    (Montgomery multiplication) for 0 <= base, 0 <= exp and an odd mod > 1
    where libcrypto loaded, else pow. Each call makes and frees its own BN
    context and numbers; ctypes releases the GIL for every OpenSSL call."""
    lib = _libcrypto
    if lib is None or exp < 0 or base < 0 or mod <= 1 or not mod & 1:
        return pow(base, exp, mod)
    width = (mod.bit_length() + 7) // 8
    out = ctypes.create_string_buffer(width)
    ctx = b = e = m = r = None
    try:
        ctx = lib.BN_CTX_new()
        b = _bn(lib, base)
        e = _bn(lib, exp)
        m = _bn(lib, mod)
        r = lib.BN_new()
        if (ctx and b and e and m and r
                and lib.BN_mod_exp_mont_consttime(r, b, e, m, ctx, None) == 1
                and lib.BN_bn2binpad(r, out, width) == width):
            return int.from_bytes(out.raw, "big")
        lib.ERR_clear_error()  # so that hashlib never reads this failure as its own
        return pow(base, exp, mod)
    finally:
        lib.BN_free(b)
        lib.BN_clear_free(e)
        lib.BN_free(m)
        lib.BN_free(r)
        lib.BN_CTX_free(ctx)


def modexp(base: GroupElement, exp: Scalar, p: int) -> GroupElement:
    """base^exp mod p. The single exponentiation primitive all schemes share:
    it counts one exponentiation, then computes it with _power."""
    for counter in _active_counters.get():
        counter.count += 1
    return _power(base, exp, p)


def modinv(a: Scalar, q: int) -> Scalar:
    """a^-1 mod q. Raises ZeroInverse when a = 0 mod q."""
    a %= q
    if a == 0:
        raise ZeroInverse(f"no inverse of 0 mod {q}")
    return pow(a, -1, q)


RETRY_BUDGET = 1000


def retry(attempt: Callable[[], object], error: ProtocolError):
    """The first result of attempt() that is not None, within RETRY_BUDGET
    tries; else raise error. Every retried step in the package fails with
    probability about 1/q, so running out means a broken rng or hash stub."""
    for _ in range(RETRY_BUDGET):
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
    for _ in range(MILLER_RABIN_ROUNDS):
        if rng is None:
            a = 2 + secrets.randbelow(n - 3)
        else:
            a = rng.randrange(2, n - 1)
        x = _power(a, d, n)
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
        raise OrderMismatch(f"q = {q} does not divide p - 1 = {p - 1}")
    if not 1 < g < p:
        raise BadGenerator(f"g = {g} is outside [2, p-1]")
    if _power(g, q, p) != 1:
        raise BadGenerator(f"g = {g} does not have order dividing q")
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

    q = _random_prime(bits_q, rng, tries)

    # p = q*m + 1 with m even; lo <= m <= hi puts p on exactly bits_p bits
    lo = ((1 << (bits_p - 1)) - 1) // q + 1
    hi = ((1 << bits_p) - 1 - 1) // q
    for _ in range(tries):
        m = rng.randrange(lo, hi + 1) & ~1
        if m < lo:
            continue
        p = q * m + 1
        if is_probable_prime(p, rng=rng):
            break
    else:
        raise GenerationTimeout(f"no prime p found in {tries} tries")

    cofactor = (p - 1) // q

    def draw_generator():
        g = _power(rng.randrange(2, p - 1), cofactor, p)
        return g if g != 1 else None

    g = retry(draw_generator, GenerationTimeout("no generator found"))
    return validate_params((p, q, g))


def _random_prime(bits: int, rng, tries: int) -> int:
    for _ in range(tries):
        n = rng.randrange(1 << (bits - 1), 1 << bits) | 1
        if is_probable_prime(n, rng=rng):
            return n
    raise GenerationTimeout(f"no {bits}-bit prime found in {tries} tries")


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

def desk512() -> GroupParams:
    """512-bit p / 160-bit q set.

    Desk scale only: well below modern security margins, but large enough that
    hash collisions mod q are not observable in tests.
    """
    return DESK512
