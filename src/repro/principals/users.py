"""Users and groups: public/private key pairs as identity.

Paper section II-A: each user has a key pair ``(U_pub, U_priv)`` that
"effectively serves as the identity of the user"; groups have a pair too.
Users are assumed to know everyone's public key (a PKI, or identity-based
encryption where the email address *is* the public key) -- that assumption
is the :class:`~repro.principals.registry.PublicKeyDirectory`.

Beside the RSA identity pair, which others *encrypt to*, each user holds
an ESIGN signature pair (USK/UVK) for what the user *signs*: lease chain
links and version statements.  Footnote 3 puts ESIGN under every
signature on the access path because it is over ten times faster than
RSA; the RSA pair is left for what only it does, encryption to the user
(superblock, group-key blocks, lockboxes).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..crypto import esign, rsa

#: Modulus size for principal key pairs in tests/examples.  The simulated
#: cost model always charges 2048-bit costs (see crypto.provider), so a
#: smaller real modulus changes nothing in benchmark output while making
#: key generation ~100x faster.
DEFAULT_USER_KEY_BITS = 512


@dataclass
class User:
    """An enterprise user: an id, their RSA identity key pair and their
    ESIGN signature pair (USK/UVK)."""

    user_id: str
    keypair: rsa.KeyPair
    groups: set[str] = field(default_factory=set)
    signing: esign.SignatureKeyPair = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.signing is None:
            # k-bit primes give n = p^2 q of 3k - 1 or 3k bits; k = b // 3
            # keeps both inside one byte count for a b-bit identity key
            # (b a multiple of 8), so a USK signature is exactly as long
            # as an RSA signature under the identity key.
            self.signing = esign.generate_keypair(
                self.keypair.public.n.bit_length() // 3)

    @classmethod
    def create(cls, user_id: str,
               key_bits: int = DEFAULT_USER_KEY_BITS) -> "User":
        return cls(user_id=user_id, keypair=rsa.generate_keypair(key_bits))

    @property
    def public_key(self) -> rsa.PublicKey:
        return self.keypair.public

    @property
    def private_key(self) -> rsa.PrivateKey:
        return self.keypair.private

    def __repr__(self) -> str:
        return f"User({self.user_id!r})"


@dataclass
class Group:
    """A user group with its own key pair and a member set.

    The group's *private* key never sits at the SSP in plaintext: it is
    wrapped with each member's public key (one blob per member) by
    :class:`~repro.principals.groups.GroupKeyService`.
    """

    group_id: str
    keypair: rsa.KeyPair
    members: set[str] = field(default_factory=set)

    @classmethod
    def create(cls, group_id: str, members: set[str] | None = None,
               key_bits: int = DEFAULT_USER_KEY_BITS) -> "Group":
        return cls(group_id=group_id,
                   keypair=rsa.generate_keypair(key_bits),
                   members=set(members or ()))

    @property
    def public_key(self) -> rsa.PublicKey:
        return self.keypair.public

    def __repr__(self) -> str:
        return f"Group({self.group_id!r}, members={sorted(self.members)})"
