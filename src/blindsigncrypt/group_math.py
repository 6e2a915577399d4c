"""Modular arithmetic over the order-q subgroup of Z_p*, plus parameter handling.

Scalars are plain ints kept reduced mod q; group elements are plain ints in
[1, p-1]. Everything here is a pure function, so concurrent use is safe. The
shared state is `modexp`'s fixed-base tables: one for the generator of each
built-in set, fixed at import, and a bounded registry for the bases it sees
most often (public keys, in practice), with the use counts that pick them; a
lock guards every update of that registry. The optional exponentiation
counters are per thread.
"""

from __future__ import annotations

import contextvars
import secrets
import threading
from collections import OrderedDict
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

    For the built-in sets, TOY23 and DESK512, `modexp` computes g^e mod p
    from a fixed-base table (built on first use) for every e >= 0 no longer
    than q in whole bytes. Every other set, generated, validated or decoded,
    computes g^e with pow.
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


def int_from_bytes(b: bytes) -> int:
    return int.from_bytes(b, "big")


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

class FixedBase:
    """base^e mod p for 0 <= e < limit from the radix-2^r table
    row[t][d] = base^(d * 2^(r*t)) mod p: one multiplication per nonzero
    r-bit digit of e.

    Lim and Lee's fixed-base method in the form of the Handbook of Applied
    Cryptography, 14.6.3. The limit is 2 to the bits rounded up to whole
    bytes. With a 160-bit q and a 512-bit p, radix 2^8 (generators) is 20
    rows of 256 entries, about 0.5 MB; radix 2^4 (hot keys) is 40 rows of
    16, about 64 KiB. The table is built on first use into a local and then
    published, so threads that race to build it each get a full one.
    """

    def __init__(self, g: GroupElement, p: int, bits: int, radix_bits: int = 8):
        if radix_bits not in (1, 2, 4, 8):
            raise ValueError("radix_bits must divide 8")
        self.g, self.p, self.bits, self.radix_bits = g, p, bits, radix_bits
        self.width = (bits + 7) // 8  # exponent bytes
        self.limit = 1 << (8 * self.width)
        # e's digits come from its little-endian bytes: translation j picks
        # digit j of every byte, so the digits of e are the translations
        # joined, and rows are kept in that order.
        mask = (1 << radix_bits) - 1
        self._digit_tables = [bytes(b >> (radix_bits * j) & mask for b in range(256))
                              for j in range(8 // radix_bits)]
        self._rows: list[list[int]] | None = None

    def _build(self) -> list[list[int]]:
        p, base, size = self.p, self.g % self.p, 1 << self.radix_bits
        rows = []  # rows[t] for digit t of e, least significant first
        for _ in range(self.width * len(self._digit_tables)):
            row = [1]
            for _ in range(size - 1):
                row.append(row[-1] * base % p)
            rows.append(row)
            base = row[-1] * base % p  # the next digit's base^(2^(r(t+1)))
        per_byte = len(self._digit_tables)
        return [rows[i * per_byte + j] for j in range(per_byte) for i in range(self.width)]

    def power(self, e: Scalar) -> GroupElement:
        rows = self._rows
        if rows is None:
            rows = self._rows = self._build()
        digits = e.to_bytes(self.width, "little")
        if self.radix_bits != 8:  # at radix 2^8 the bytes are the digits
            digits = b"".join([digits.translate(t) for t in self._digit_tables])
        p, result = self.p, 1
        for row, digit in zip(rows, digits):
            if digit:
                result = result * row[digit] % p
        return result


# (base, p) -> radix-2^4 table for the bases modexp sees most often: a base
# gets one on its KEY_TABLE_AFTER-th use in a row of USES_KEPT counted bases,
# under the p of a built-in set (the width comes from that set's q). A table
# costs about four pows to build, so a base that lives for one session
# (z, y * T) never gets one. Both maps drop their least recently used entry.
KEY_TABLES_KEPT = 16
KEY_TABLE_AFTER = 8
KEY_RADIX_BITS = 4
USES_KEPT = 256
_key_tables: OrderedDict[tuple[int, int], FixedBase] = OrderedDict()
_uses: OrderedDict[tuple[int, int], int] = OrderedDict()

# Every update of _key_tables and _uses holds this lock.
_tables_lock = threading.Lock()


def _key_table(base: GroupElement, p: int) -> FixedBase | None:
    """Count one use of base under p and return its table, if it has one now."""
    key = (base, p)
    with _tables_lock:
        table = _key_tables.get(key)
        if table is not None:
            _key_tables.move_to_end(key)
            return table
        uses = _uses.pop(key, 0) + 1
        if uses < KEY_TABLE_AFTER:
            _uses[key] = uses
            if len(_uses) > USES_KEPT:
                _uses.popitem(last=False)
            return None
        bits = next((t.bits for (_, mod), t in _generators.items() if mod == p), None)
        if bits is None:
            return None
        table = _key_tables[key] = FixedBase(base, p, bits, KEY_RADIX_BITS)
        if len(_key_tables) > KEY_TABLES_KEPT:
            _key_tables.popitem(last=False)
        return table


def modexp(base: GroupElement, exp: Scalar, p: int) -> GroupElement:
    """base^exp mod p. The single exponentiation primitive all schemes share.

    A built-in set's generator (see GroupParams) or a hot base (see
    KEY_TABLE_AFTER) with 0 <= exp < its table's limit goes through the
    table; everything else through pow. Both give the same element and count
    as one exponentiation.
    """
    for counter in _active_counters.get():
        counter.count += 1
    table = _generators.get((base, p))
    if table is None:
        table = _key_table(base, p)
    if table is not None and 0 <= exp < table.limit:
        return table.power(exp)
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
        g = pow(rng.randrange(2, p - 1), cofactor, p)
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

# (g, p) -> table for each built-in set, never written after import. A
# parameter file or a generated set takes a few powers of g per process, far
# fewer than a table costs to build, so those powers use pow.
_generators = {(s.g, s.p): FixedBase(s.g, s.p, s.q.bit_length()) for s in NAMED_PARAMS.values()}


def desk512() -> GroupParams:
    """512-bit p / 160-bit q set.

    Desk scale only: well below modern security margins, but large enough that
    hash collisions mod q are not observable in tests.
    """
    return DESK512
