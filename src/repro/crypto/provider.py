"""Instrumented crypto provider.

All cryptographic work in the library flows through a
:class:`CryptoProvider` so that:

* every operation is *counted* (ops and bytes, per category) -- this drives
  the simulated 2008-testbed cost model that reproduces the paper's
  benchmark numbers independent of host CPU speed;
* symmetric sealing is the stream cipher of :mod:`repro.crypto.stream`
  (the reproduction's stand-in for the paper's AES-128, priced as AES by
  the cost model; :mod:`repro.crypto.aes` is the FIPS-197 reference the
  self-test checks);
* signature schemes dispatch on key type: ESIGN keys (the paper's fast
  choice) or RSA keys (used by the PUBLIC/PUB-OPT comparators).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from ..errors import CryptoError
from . import esign, hashes, rsa, stream


@dataclass(frozen=True)
class CryptoEvent:
    """One cryptographic operation, reported to cost-model listeners.

    ``kind`` is one of: sym_encrypt, sym_decrypt, pk_encrypt, pk_decrypt,
    sign, verify, keyed_hash.  ``num_bytes`` is the payload size;
    ``blocks`` is the RSA block count for public-key operations (each block
    is one modular exponentiation on the simulated client).
    """

    kind: str
    num_bytes: int
    blocks: int = 1


Listener = Callable[[CryptoEvent], None]


@dataclass
class OpCounters:
    """Running totals of cryptographic work, by event kind."""

    ops: dict[str, int] = field(default_factory=dict)
    op_bytes: dict[str, int] = field(default_factory=dict)
    pk_blocks: dict[str, int] = field(default_factory=dict)

    def record(self, event: CryptoEvent) -> None:
        self.ops[event.kind] = self.ops.get(event.kind, 0) + 1
        self.op_bytes[event.kind] = (
            self.op_bytes.get(event.kind, 0) + event.num_bytes)
        if event.kind in ("pk_encrypt", "pk_decrypt"):
            self.pk_blocks[event.kind] = (
                self.pk_blocks.get(event.kind, 0) + event.blocks)

    def total(self, kind: str) -> int:
        return self.ops.get(kind, 0)

    def reset(self) -> None:
        self.ops.clear()
        self.op_bytes.clear()
        self.pk_blocks.clear()


class CryptoProvider:
    """Facade over all primitives, with op accounting.

    Parameters
    ----------
    listener:
        Optional callable receiving a :class:`CryptoEvent` for every
        operation; the simulated cost model registers itself here.
    """

    def __init__(self, listener: Listener | None = None):
        self.counters = OpCounters()
        self._listeners: list[Listener] = []
        if listener is not None:
            self._listeners.append(listener)

    def add_listener(self, listener: Listener) -> None:
        self._listeners.append(listener)

    def _emit(self, kind: str, num_bytes: int, blocks: int = 1) -> None:
        event = CryptoEvent(kind=kind, num_bytes=num_bytes, blocks=blocks)
        self.counters.record(event)
        for listener in self._listeners:
            listener(event)

    # -- symmetric ----------------------------------------------------------

    # ``associated`` bytes are MACed, not encrypted; they count in the
    # same event, so authenticating a payload costs what sealing it did.

    def sym_encrypt(self, key: bytes, plaintext: bytes,
                    associated: bytes | None = None) -> bytes:
        self._emit("sym_encrypt", len(plaintext) + len(associated or b""))
        return stream.seal(key, plaintext, associated)

    def sym_decrypt(self, key: bytes, sealed: bytes,
                    associated: bytes | None = None) -> bytes:
        self._emit("sym_decrypt", len(sealed) + len(associated or b""))
        return stream.open_sealed(key, sealed, associated)

    # -- public key ----------------------------------------------------------

    def pk_encrypt(self, public: rsa.PublicKey, payload: bytes) -> bytes:
        # Blocks are charged in *nominal 2048-bit* units so simulated costs
        # match the paper's key size even when tests use smaller moduli.
        blocks = rsa.nominal_block_count(len(payload))
        self._emit("pk_encrypt", len(payload), blocks=blocks)
        return rsa.encrypt_blob(public, payload)

    def pk_decrypt(self, private: rsa.PrivateKey, blob: bytes) -> bytes:
        payload = rsa.decrypt_blob(private, blob)
        blocks = rsa.nominal_block_count(len(payload))
        self._emit("pk_decrypt", len(blob), blocks=blocks)
        return payload

    # -- signatures -----------------------------------------------------------

    def sign(self, key: esign.SigningKey | rsa.PrivateKey,
             message: bytes) -> bytes:
        if isinstance(key, esign.SigningKey):
            self._emit("sign", len(message))
            return esign.sign(key, message)
        if isinstance(key, rsa.PrivateKey):
            self._emit("sign_rsa", len(message))
            return rsa.sign(key, message)
        raise CryptoError(f"cannot sign with {type(key).__name__}")

    def verify(self, key: esign.VerificationKey | rsa.PublicKey,
               message: bytes, signature: bytes) -> None:
        if isinstance(key, esign.VerificationKey):
            self._emit("verify", len(message))
            esign.verify(key, message, signature)
            return
        if isinstance(key, rsa.PublicKey):
            self._emit("verify_rsa", len(message))
            rsa.verify(key, message, signature)
            return
        raise CryptoError(f"cannot verify with {type(key).__name__}")

    # -- keyed hash ------------------------------------------------------------

    def derive_row_key(self, table_dek: bytes, name: str) -> bytes:
        self._emit("keyed_hash", len(name))
        return hashes.derive_row_key(table_dek, name)

    def digest(self, data: bytes) -> bytes:
        """Content hash (a table head names its sealed base by it)."""
        self._emit("keyed_hash", len(data))
        return hashes.digest(data)
