"""Shared test utilities: scripted RNG, brute-force oracles, chi-square checks,
libcrypto doubles."""

import hashlib
import math
import random

from blindsigncrypt import group_math


class ScriptRng:
    """random.Random stand-in replaying scripted draws, asserting each range.

    Optionally falls back to a seeded Random once the script runs out, for
    tests that only pin the first few draws.
    """

    def __init__(self, values, fallback_seed=None):
        self._values = list(values)
        self._fallback = (
            random.Random(fallback_seed) if fallback_seed is not None else None
        )

    def randrange(self, start, stop=None):
        lo, hi = (0, start) if stop is None else (start, stop)
        if self._values:
            v = self._values.pop(0)
            assert lo <= v < hi, f"scripted value {v} outside [{lo}, {hi})"
            return v
        if self._fallback is not None:
            return self._fallback.randrange(lo, hi)
        raise AssertionError("rng script exhausted")

    def getrandbits(self, k):
        if self._fallback is not None:
            return self._fallback.getrandbits(k)
        raise AssertionError("rng script exhausted")

    @property
    def exhausted(self):
        return not self._values


class ConstantRng:
    """Random source whose every draw is the same value."""

    def __init__(self, value):
        self.value = value

    def randrange(self, *args):
        return self.value


class BrokenRng:
    """Random source that always fails."""

    def randrange(self, *args):
        raise OSError("entropy source unavailable")

    def getrandbits(self, k):
        raise OSError("entropy source unavailable")


def naive_modexp(base, exp, p):
    """Repeated-multiplication oracle, no squaring tricks."""
    result = 1
    base %= p
    for _ in range(exp):
        result = result * base % p
    return result


def egcd_inverse(a, q):
    """Extended-Euclid oracle for modular inverses."""
    t, new_t = 0, 1
    r, new_r = q, a % q
    while new_r != 0:
        quot = r // new_r
        t, new_t = new_t, t - quot * new_t
        r, new_r = new_r, r - quot * new_r
    if r != 1:
        raise ValueError(f"{a} is not invertible mod {q}")
    return t % q


def flip_bit(data: bytes, bit_index: int) -> bytes:
    out = bytearray(data)
    out[bit_index // 8] ^= 1 << (bit_index % 8)
    return bytes(out)


def chi_square_stat(observed, expected):
    return sum((o - expected) ** 2 / expected for o in observed)


def chi_square_critical(df, alpha=0.01):
    """Wilson-Hilferty approximation to the chi-square quantile."""
    z = {0.01: 2.3263478740408408, 0.05: 1.6448536269514722}[alpha]
    return df * (1 - 2 / (9 * df) + z * math.sqrt(2 / (9 * df))) ** 3


def marginals_smoke_test(transcripts, alpha=0.01):
    """Chi-square uniformity of the r_bar and s_bar marginals (smoke only;
    blindness itself is the structural cross-pairing check).

    In honest runs r_bar is uniform on [1, q-1]. s_bar = x + r_bar * k_tilde
    mod q can never equal x (both factors are nonzero mod prime q), so
    s_bar - x is uniform on [1, q-1] as well.
    """
    ctx = transcripts[0].context
    q = ctx.params.q
    r_bars = [t.view.r_bar for t in transcripts]
    s_shifted = [(t.view.s_bar - ctx.signer.x) % q for t in transcripts]
    ok = True
    for values in (r_bars, s_shifted):
        counts = [0] * (q - 1)
        for v in values:
            counts[v - 1] += 1
        stat = chi_square_stat(counts, len(values) / (q - 1))
        ok = ok and stat <= chi_square_critical(q - 2, alpha)
    return ok


def three_power_outcome(view, sig, u, params):
    """The cell's outcome from the defining equations, with T recomputed as
    three separate powers z^r * z^beta * g^alpha mod p (oracle for the grid's
    z^(r + beta)): None when s or r + s_bar + alpha has no inverse, r is 0,
    or either equation fails."""
    p, q = params.p, params.q
    if sig.s % q == 0:
        return None
    beta = (view.r_bar - sig.r) % q
    alpha = (pow(sig.s, -1, q) * u - (sig.r + view.s_bar)) % q
    denom = (sig.r + view.s_bar + alpha) % q
    if sig.r == 0 or denom == 0 or u * pow(denom, -1, q) % q != sig.s:
        return None
    if pow(view.z, sig.r, p) * pow(view.z, beta, p) * pow(params.g, alpha, p) % p != sig.T:
        return None
    return alpha, beta


def two_step_commitment(r, s, key, params):
    """K = (key * g^r)^s mod p with builtin pow, one product and then one
    power (oracle for sdss.key_power, which takes its powers in the
    group_math kernel)."""
    p = params.p
    return pow(key * pow(params.g, r, p) % p, s, p)


def two_step_shared_element(r, s, x, signer_part, params):
    """(signer_part * g^r)^(s * x mod q) mod p with builtin pow (oracle for
    the recipient's sdss.key_power with e = s * x mod q)."""
    return two_step_commitment(r, s * x % params.q, signer_part, params)


def bytewise_keystream_xor(key, data):
    """The std-v1 cipher as first written, one byte at a time: XOR with
    keystream blocks SHA-256(key || 8-byte BE counter) (oracle for the
    whole-buffer form in crypto_suite)."""
    out = bytearray()
    counter = 0
    while len(out) < len(data):
        out += hashlib.sha256(key + counter.to_bytes(8, "big")).digest()
        counter += 1
    return bytes(a ^ b for a, b in zip(data, out))


def failing_libcrypto(name, cleared):
    """The loaded libcrypto, but its function name returns 0 (failure) and
    ERR_clear_error appends True to cleared."""
    real = group_math._libcrypto

    class Failing:
        def __getattr__(self, attr):
            return getattr(real, attr)

        def ERR_clear_error(self):
            cleared.append(True)

    setattr(Failing, name, lambda self, *args: 0)
    return Failing()
