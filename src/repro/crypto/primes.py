"""Prime generation and primality testing.

RSA and ESIGN key generation both need large random primes.  We implement
Miller-Rabin with a deterministic witness set for small inputs and a
configurable number of random rounds for cryptographic sizes, preceded by
one gcd against the product of a small-prime sieve to cheaply reject most
candidates.
"""

from __future__ import annotations

import math
import secrets

# Deterministic Miller-Rabin witnesses: sufficient for all n < 3.3 * 10**24.
_DETERMINISTIC_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_DETERMINISTIC_LIMIT = 3_317_044_064_679_887_385_961_981

_SIEVE_LIMIT = 2000


def _small_primes(limit: int = _SIEVE_LIMIT) -> tuple[int, ...]:
    """Return all primes below ``limit`` via the sieve of Eratosthenes."""
    sieve = bytearray([1]) * limit
    sieve[0:2] = b"\x00\x00"
    for i in range(2, int(limit ** 0.5) + 1):
        if sieve[i]:
            sieve[i * i:limit:i] = b"\x00" * len(range(i * i, limit, i))
    return tuple(i for i in range(limit) if sieve[i])


SMALL_PRIMES = _small_primes()
_PRIMORIAL = math.prod(SMALL_PRIMES)

# Rounds for an ``n`` somebody else chose: only the worst-case bound,
# error below 4**-rounds, applies.
WORST_CASE_ROUNDS = 40

# Miller-Rabin rounds for a prime *we* draw: (minimum bits, rounds), first
# match wins, WORST_CASE_ROUNDS below the last row.  A random odd k-bit
# number that passes t rounds is composite with probability p(k,t),
# bounded by Damgard, Landrock & Pomerance (1993) -- the estimates behind
# FIPS 186-4 C.3 and HAC table 4.4.  Each row keeps that bound <= 2**-82
# for every size it covers: forcing the second-highest bit (and bit 1 for
# 3 mod 4) draws from a quarter of the k-bit odd numbers, which can raise
# the conditional error at most fourfold, so it stays <= 2**-80
# (tests/test_crypto_support.py recomputes every row).
AVERAGE_CASE_ROUNDS = ((1024, 3), (768, 4), (512, 6), (384, 8),
                       (256, 12), (192, 17), (128, 21), (96, 28))


def _miller_rabin_round(n: int, d: int, r: int, witness: int) -> bool:
    """One Miller-Rabin round; True if ``n`` passes for this witness."""
    x = pow(witness, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(r - 1):
        x = (x * x) % n
        if x == n - 1:
            return True
    return False


def is_prime(n: int, rounds: int = WORST_CASE_ROUNDS) -> bool:
    """Probabilistic primality test.

    Deterministic for ``n`` below ~3.3e24 (fixed witness set), otherwise
    Miller-Rabin with ``rounds`` random witnesses, drawn one at a time so
    a composite costs one draw, not ``rounds``.  For an ``n`` somebody
    else chose the only guarantee is the worst case, error below
    ``4**-rounds`` -- hence the default.  :func:`random_prime` passes
    fewer rounds because the average-case bound applies to candidates
    it drew uniformly itself (see ``AVERAGE_CASE_ROUNDS``).
    """
    if n <= SMALL_PRIMES[-1]:
        return n in SMALL_PRIMES
    if math.gcd(n, _PRIMORIAL) != 1:
        return False

    d = n - 1
    r = (d & -d).bit_length() - 1
    d >>= r

    if n < _DETERMINISTIC_LIMIT:
        return all(_miller_rabin_round(n, d, r, w)
                   for w in _DETERMINISTIC_WITNESSES)
    return all(_miller_rabin_round(n, d, r, secrets.randbelow(n - 3) + 2)
               for _ in range(rounds))


def _draw_prime(bits: int, low_bits: int) -> int:
    """A random ``bits``-bit prime with the top two and ``low_bits`` set."""
    if bits < 3:
        raise ValueError("prime must have at least 3 bits")
    forced = (0b11 << (bits - 2)) | low_bits
    rounds = next((t for k, t in AVERAGE_CASE_ROUNDS if bits >= k),
                  WORST_CASE_ROUNDS)
    while True:
        candidate = secrets.randbits(bits) | forced
        if is_prime(candidate, rounds):
            return candidate


def random_prime(bits: int) -> int:
    """Return a random prime of exactly ``bits`` bits (top two bits set).

    Setting the top two bits guarantees that the product of two such primes
    has exactly ``2 * bits`` bits, which RSA key generation relies on.
    """
    return _draw_prime(bits, 0b01)


def random_prime_3mod4(bits: int) -> int:
    """Return a random ``bits``-bit prime congruent to 3 mod 4.

    ESIGN parameter generation prefers such primes so that small even
    exponents behave well.
    """
    return _draw_prime(bits, 0b11)
