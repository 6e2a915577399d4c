"""Modular arithmetic over the order-q subgroup of Z_p*, plus parameter handling.

Scalars are plain ints kept reduced mod q; group elements are plain ints in
[1, p-1]. Everything here is a pure function, so concurrent use is safe; the
only shared state is the optional exponentiation counter used by `bench`.
"""

from __future__ import annotations

import secrets
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache
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
    """Public triple (p, q, g): prime modulus, prime subgroup order, generator."""

    p: int
    q: int
    g: int


# -- byte encoding -------------------------------------------------------------

def int_to_bytes(n: int) -> bytes:
    """Minimal big-endian encoding; 0 encodes as the empty string."""
    if n < 0:
        raise ValueError("negative integers have no canonical encoding")
    return n.to_bytes((n.bit_length() + 7) // 8, "big")


def int_from_bytes(b: bytes) -> int:
    return int.from_bytes(b, "big")


# -- instrumentation -----------------------------------------------------------

class ExpCounter:
    """Tally of group exponentiations, for the efficiency report."""

    def __init__(self):
        self.count = 0


_active_counters: list[ExpCounter] = []


@contextmanager
def count_exponentiations() -> Iterator[ExpCounter]:
    """Count every modexp executed inside the block."""
    counter = ExpCounter()
    _active_counters.append(counter)
    try:
        yield counter
    finally:
        _active_counters.remove(counter)


# -- core operations -----------------------------------------------------------

def modexp(base: GroupElement, exp: Scalar, p: int) -> GroupElement:
    """base^exp mod p. The single exponentiation primitive all schemes share."""
    for counter in _active_counters:
        counter.count += 1
    return pow(base, exp, p)


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

def is_probable_prime(n: int, rounds: int = MILLER_RABIN_ROUNDS, rng=None) -> bool:
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
    for _ in range(rounds):
        if rng is None:
            a = 2 + secrets.randbelow(n - 3)
        else:
            a = rng.randrange(2, n - 1)
        x = pow(a, d, n)
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
    if pow(g, q, p) != 1:
        raise BadGenerator(f"g = {g} does not have order dividing q")
    return GroupParams(p=p, q=q, g=g)


def generate_params(bits_p: int, bits_q: int, rng=None, max_tries: int = 0) -> GroupParams:
    """Generate fresh (p, q, g) with p of bits_p bits and q | p - 1 of bits_q bits.

    g is obtained as h0^((p-1)/q) mod p for random h0, retried until g != 1.
    """
    if bits_q < 8:
        raise ValueError("bits_q must be at least 8")
    if bits_q >= bits_p:
        raise ValueError("bits_q must be smaller than bits_p")
    if rng is None:
        rng = secrets.SystemRandom()
    if max_tries <= 0:
        max_tries = 200 * bits_p

    q = _random_prime(bits_q, rng, max_tries)

    # p = q*m + 1 with m even, sized so p lands on exactly bits_p bits
    lo = ((1 << (bits_p - 1)) - 1) // q + 1
    hi = ((1 << bits_p) - 1 - 1) // q
    for _ in range(max_tries):
        m = rng.randrange(lo, hi + 1) & ~1
        if m < lo:
            continue
        p = q * m + 1
        if p.bit_length() != bits_p:
            continue
        if is_probable_prime(p, rng=rng):
            break
    else:
        raise GenerationTimeout(f"no prime p found in {max_tries} tries")

    cofactor = (p - 1) // q

    def draw_generator():
        g = pow(rng.randrange(2, p - 1), cofactor, p)
        return g if g != 1 else None

    g = retry(draw_generator, GenerationTimeout("no generator found"))
    return validate_params((p, q, g))


def _random_prime(bits: int, rng, max_tries: int) -> int:
    for _ in range(max_tries):
        n = rng.randrange(1 << (bits - 1), 1 << bits) | 1
        if is_probable_prime(n, rng=rng):
            return n
    raise GenerationTimeout(f"no {bits}-bit prime found in {max_tries} tries")


# -- named parameter sets --------------------------------------------------------

TOY23 = GroupParams(p=23, q=11, g=2)

_DESK512_SEED = "desk512-v1"


@lru_cache(maxsize=1)
def desk512() -> GroupParams:
    """512-bit p / 160-bit q set, generated deterministically and cached.

    Desk scale only: well below modern security margins, but large enough that
    hash collisions mod q are not observable in tests.
    """
    import random

    return generate_params(512, 160, rng=random.Random(_DESK512_SEED))


def named_params(name: str) -> GroupParams:
    """Resolve a built-in parameter set name ("toy23" or "desk512")."""
    if name == "toy23":
        return TOY23
    if name == "desk512":
        return desk512()
    raise KeyError(f"unknown parameter set {name!r}")
