"""Prime generation and primality testing.

RSA, ESIGN and IBE key generation need large random primes; they get
them *proven*: :func:`random_prime` builds each prime on a smaller proven
prime and certifies it with one Pocklington step (Shawe-Taylor, FIPS
186-4 C.6; Maurer 1995), down to C.6's own base case of at most 32 bits,
where deterministic Miller-Rabin is a proof (a 96-bit prime is a chain
96 -> 49 -> 25 bits).  Each level draws one start and walks up from it,
as C.6 does, sieving the walk a window at a time by the small odd
primes; above the base a survivor pays a gcd and one base-2 Fermat pow,
and only a candidate that passes pays the rest of the proof.
:func:`is_prime` tests an
``n`` somebody else chose: deterministic below ~3.3e24, random-witness
Miller-Rabin above, after one gcd against the product of the small
primes.
"""

from __future__ import annotations

import bisect
import itertools
import math
import secrets
from typing import Callable

# Deterministic Miller-Rabin: the first t prime bases decide every n below
# psi_t, the smallest strong pseudoprime to all of them (OEIS A014233;
# psi_12 and psi_13 by Jiang & Deng 2014).  _PSI[t - 1] is psi_t.
_DETERMINISTIC_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PSI = (2047, 1373653, 25326001, 3215031751, 2152302898747,
        3474749660383, 341550071728321, 341550071728321,
        3825123056546413051, 3825123056546413051, 3825123056546413051,
        318665857834031151167461, 3317044064679887385961981)
_DETERMINISTIC_LIMIT = _PSI[-1]

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

# A generated prime's candidates are sieved by the odd primes below 75
# one window of _WINDOW candidates at a time; survivors pay one gcd
# against the product of the small primes the window did not strike.
_SIEVE_PRIMES = tuple(q for q in SMALL_PRIMES if 2 < q < 75)
_UNSIEVED = _PRIMORIAL // math.prod(_SIEVE_PRIMES) // 2
_WINDOW = 128
# (q, the inverse of x mod q for each x < q; 0 for x = 0): a walk's step
# is never a multiple of a sieve prime.
_SIEVE_INVERSES = tuple((q, (0,) + tuple(pow(x, -1, q) for x in range(1, q)))
                        for q in _SIEVE_PRIMES)

# Rounds for an ``n`` somebody else chose: only the worst-case bound,
# error below 4**-rounds, applies.
WORST_CASE_ROUNDS = 40

# At or below this size a generated prime is walked to from a uniform start
# and proven by deterministic Miller-Rabin; above it, by a Pocklington step
# (FIPS 186-4 C.6 recurses while length >= 33).
_BASE_BITS = 32


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
    """Primality test for an ``n`` somebody else chose.

    A proof below ~3.3e24: the shortest prefix of prime bases whose
    ``psi_t`` exceeds ``n``.  Above, Miller-Rabin with ``rounds`` random
    witnesses, drawn one at a time so a composite costs one draw, not
    ``rounds``; the only guarantee for an adversarial ``n`` is the worst
    case, error below ``4**-rounds`` -- hence the default.
    """
    if n <= SMALL_PRIMES[-1]:
        return n in SMALL_PRIMES
    if math.gcd(n, _PRIMORIAL) != 1:
        return False

    d = n - 1
    r = (d & -d).bit_length() - 1
    d >>= r

    if n < _DETERMINISTIC_LIMIT:
        bases = _DETERMINISTIC_WITNESSES[:bisect.bisect_right(_PSI, n) + 1]
        return all(_miller_rabin_round(n, d, r, w) for w in bases)
    return all(_miller_rabin_round(n, d, r, secrets.randbelow(n - 3) + 2)
               for _ in range(rounds))


def _pocklington(p: int, t: int, c0: int) -> bool:
    """Is ``p = 2*t*c0 + 1`` prime, given a prime ``c0 > sqrt(p)``?

    Pocklington: p is prime iff some base a has a**(p-1) = 1 (mod p) and
    gcd(a**(2t) - 1, p) = 1.  The base-2 Fermat pow comes first: it
    rejects almost every composite in one pow, and for a = 2 it is the
    first condition.  A base with a**(2t) = 1 decides nothing; the next
    one is tried.
    """
    if pow(2, p - 1, p) != 1:
        return False
    for a in SMALL_PRIMES:
        z = pow(a, 2 * t, p)
        if z != 1:
            return ((a == 2 or pow(z, c0, p) == 1)
                    and math.gcd(z - 1, p) == 1)
    return False


def _walk(bits: int, residue: int, step: int,
          proven: Callable[[int], bool]) -> int | None:
    """The first ``p = residue + step*u`` of ``bits`` bits (top two set)
    that ``proven`` accepts, for u counting up from one uniform u0 and
    wrapping from the largest such u back to the smallest; None if no
    u is accepted.

    The progression is sieved one window of u at a time: q divides p
    exactly when u is ``-residue / step`` mod q, so each small prime
    strikes its multiples with one slice assignment and only the
    survivors reach ``proven``.
    """
    low = -((residue - (3 << (bits - 2))) // step)
    high = ((1 << bits) - 1 - residue) // step
    # A prime below the smallest candidate never strikes itself.
    smallest = residue + step * low
    roots = [(q, -residue * inverses[step % q] % q)
             for q, inverses in _SIEVE_INVERSES if q < smallest]
    u = low + secrets.randbelow(high - low + 1)
    left = high - low + 1
    while left:
        length = min(_WINDOW, high + 1 - u, left)
        window = bytearray(b"\x01") * length
        for q, root in roots:
            first = (root - u) % q
            window[first::q] = bytes((length - 1 - first) // q + 1)
        start = residue + step * u
        for i in itertools.compress(range(length), window):
            p = start + step * i
            if proven(p):
                return p
        left -= length
        u = u + length if u + length <= high else low
    return None


def _draw_prime(bits: int, low_bits: int) -> int:
    """A proven ``bits``-bit prime with the top two and ``low_bits`` set.

    ``low_bits`` is 0b01 or 0b11, so stepping by ``low_bits + 1`` keeps
    them set: the base case walks odd numbers (or 3 mod 4) directly.
    Above it, p = 2*t*c0 + 1 over a proven c0 of bits//2 + 1 bits (top
    two set), so c0 > sqrt(p); p is 3 mod 4 exactly when t is odd, so
    that walk steps t by 2 from an odd start.
    """
    if bits < 3:
        raise ValueError("prime must have at least 3 bits")
    step = low_bits + 1
    if bits <= _BASE_BITS:
        p = _walk(bits, low_bits, step, is_prime)
    else:
        c0 = _draw_prime(bits // 2 + 1, 0b01)
        p = _walk(bits, 1 + c0 * (step - 2), c0 * step,
                  lambda p: (math.gcd(p, _UNSIEVED) == 1
                             and _pocklington(p, (p - 1) // (2 * c0), c0)))
    if p is None:
        raise ValueError(f"no {bits}-bit prime has low bits {low_bits:b}")
    return p


def random_prime(bits: int) -> int:
    """Return a random proven prime of exactly ``bits`` bits (top two set).

    Setting the top two bits guarantees that the product of two such primes
    has exactly ``2 * bits`` bits, which RSA key generation relies on.
    """
    return _draw_prime(bits, 0b01)


def random_prime_3mod4(bits: int) -> int:
    """Return a random proven ``bits``-bit prime congruent to 3 mod 4.

    ESIGN parameter generation prefers such primes so that small even
    exponents behave well.
    """
    return _draw_prime(bits, 0b11)
