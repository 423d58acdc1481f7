"""Cryptographic substrate for the SHAROES reproduction.

Everything is implemented from scratch (no crypto packages exist in this
environment): AES (FIPS-197), a fast hashlib-backed stream cipher, RSA,
ESIGN signatures, prime generation, HMAC/KDF helpers, and the instrumented
:class:`~repro.crypto.provider.CryptoProvider` facade that the rest of the
library calls through.
"""

from . import aes, esign, hashes, ibe, keys, primes, rsa, stream
from .keys import new_signature_pair, new_symmetric_key
from .provider import CryptoEvent, CryptoProvider

__all__ = [
    "aes",
    "ibe",
    "esign",
    "hashes",
    "keys",
    "primes",
    "rsa",
    "stream",
    "new_signature_pair",
    "new_symmetric_key",
    "CryptoEvent",
    "CryptoProvider",
]
