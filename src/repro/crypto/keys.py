"""Key generation helpers for SHAROES objects.

Every file or directory carries (paper section II-B):

* **DEK** -- symmetric Data Encryption Key for its data block;
* **DSK/DVK** -- asymmetric Data Signing / Verification keys distinguishing
  writers from readers;
* **MEK** -- symmetric Metadata Encryption Key (held by the parent
  directory's table, or the superblock for the root);
* **MSK/MVK** -- asymmetric Metadata Signing / Verification keys
  (MSK distributed only to owners).

This module generates those keys.  Signature pairs default to ESIGN (the
paper's fast choice); symmetric keys are 128-bit, matching the paper's
AES-128 / NIST SP 800-78 configuration.
"""

from __future__ import annotations

import secrets

from . import esign

SYMMETRIC_KEY_BYTES = 16

#: Prime size used for object signature pairs.  96-bit primes keep key
#: generation cheap enough to mint two pairs per created file while still
#: exercising the real algebra; each is proven by a three-level
#: Pocklington chain (96 -> 49 -> 25 bits, see :mod:`.primes`).
#: Production deployments would raise this (the cost model charges
#: 2008-era ESIGN costs regardless).
OBJECT_SIGNATURE_PRIME_BITS = 96


def new_symmetric_key() -> bytes:
    """Fresh random 128-bit symmetric key (a DEK or MEK)."""
    return secrets.token_bytes(SYMMETRIC_KEY_BYTES)


def new_signature_pair(prime_bits: int = OBJECT_SIGNATURE_PRIME_BITS
                       ) -> esign.SignatureKeyPair:
    """Fresh ESIGN pair for DSK/DVK or MSK/MVK."""
    return esign.generate_keypair(prime_bits=prime_bits)

