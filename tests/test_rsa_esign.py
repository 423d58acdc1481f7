"""RSA and ESIGN: roundtrips, tamper rejection, serialization, blocks."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import esign, rsa
from repro.errors import CryptoError, IntegrityError


@pytest.fixture(scope="module")
def rsa_pair():
    return rsa.generate_keypair(512)


@pytest.fixture(scope="module")
def esign_pair():
    return esign.generate_keypair(prime_bits=96)


class TestRsaEncryption:
    def test_roundtrip_small(self, rsa_pair):
        msg = b"hello"
        assert rsa.decrypt(rsa_pair.private,
                           rsa.encrypt(rsa_pair.public, msg)) == msg

    def test_roundtrip_empty(self, rsa_pair):
        assert rsa.decrypt(rsa_pair.private,
                           rsa.encrypt(rsa_pair.public, b"")) == b""

    def test_randomized_padding(self, rsa_pair):
        a = rsa.encrypt(rsa_pair.public, b"same message")
        b = rsa.encrypt(rsa_pair.public, b"same message")
        assert a != b

    def test_message_too_long(self, rsa_pair):
        too_long = b"x" * (rsa_pair.public.max_payload + 1)
        with pytest.raises(CryptoError):
            rsa.encrypt(rsa_pair.public, too_long)

    def test_blob_roundtrip_multiblock(self, rsa_pair):
        msg = b"q" * (rsa_pair.public.max_payload * 3 + 5)
        blob = rsa.encrypt_blob(rsa_pair.public, msg)
        assert len(blob) % rsa_pair.public.byte_length == 0
        assert rsa.decrypt_blob(rsa_pair.private, blob) == msg

    def test_blob_empty_payload(self, rsa_pair):
        blob = rsa.encrypt_blob(rsa_pair.public, b"")
        assert rsa.decrypt_blob(rsa_pair.private, blob) == b""

    def test_blob_misaligned_rejected(self, rsa_pair):
        with pytest.raises(CryptoError):
            rsa.decrypt_blob(rsa_pair.private, b"x" * 63)

    def test_wrong_key_fails(self, rsa_pair):
        other = rsa.generate_keypair(512)
        blob = rsa.encrypt(rsa_pair.public, b"secret")
        with pytest.raises(CryptoError):
            rsa.decrypt(other.private, blob)

    @staticmethod
    def _raw_encrypt(public, padded: bytes) -> bytes:
        """Textbook-encrypt an already padded block: what an SSP holding
        only the public key can plant in a lockbox."""
        value = pow(int.from_bytes(padded, "big"), public.e, public.n)
        return value.to_bytes(public.byte_length, "big")

    @pytest.mark.parametrize("body, error", [
        (b"\x01" * 62, "separator missing"),
        (b"\x01" * 5 + b"\x00" + b"m" * 56, "padding too short"),
    ], ids=["no-separator", "short-padding"])
    def test_forged_padding_rejected(self, rsa_pair, body, error):
        blob = self._raw_encrypt(rsa_pair.public, b"\x00\x02" + body)
        with pytest.raises(CryptoError, match=error):
            rsa.decrypt(rsa_pair.private, blob)

    def test_ciphertext_of_wrong_length_rejected(self, rsa_pair):
        blob = rsa.encrypt(rsa_pair.public, b"secret")
        with pytest.raises(CryptoError, match="length does not match"):
            rsa.decrypt(rsa_pair.private, blob + b"\x00")

    def test_ciphertext_out_of_range_rejected(self, rsa_pair):
        blob = rsa_pair.public.n.to_bytes(rsa_pair.public.byte_length,
                                          "big")
        with pytest.raises(CryptoError, match="out of range"):
            rsa.decrypt(rsa_pair.private, blob)

    def test_nominal_block_count(self):
        assert rsa.nominal_block_count(0) == 1
        assert rsa.nominal_block_count(245) == 1
        assert rsa.nominal_block_count(246) == 2
        assert rsa.nominal_block_count(4096) == 17

    def test_keygen_rejects_toy_modulus(self):
        with pytest.raises(CryptoError):
            rsa.generate_keypair(64)


class TestRsaSignatures:
    def test_sign_verify(self, rsa_pair):
        sig = rsa.sign(rsa_pair.private, b"message")
        rsa.verify(rsa_pair.public, b"message", sig)

    def test_tampered_message_rejected(self, rsa_pair):
        sig = rsa.sign(rsa_pair.private, b"message")
        with pytest.raises(IntegrityError):
            rsa.verify(rsa_pair.public, b"messagE", sig)

    def test_tampered_signature_rejected(self, rsa_pair):
        sig = bytearray(rsa.sign(rsa_pair.private, b"message"))
        sig[5] ^= 1
        with pytest.raises(IntegrityError):
            rsa.verify(rsa_pair.public, b"message", bytes(sig))

    def test_wrong_signer_rejected(self, rsa_pair):
        other = rsa.generate_keypair(512)
        sig = rsa.sign(other.private, b"message")
        with pytest.raises(IntegrityError):
            rsa.verify(rsa_pair.public, b"message", sig)

    def test_wrong_length_rejected(self, rsa_pair):
        with pytest.raises(IntegrityError):
            rsa.verify(rsa_pair.public, b"message", b"short")

    def test_signature_out_of_range_rejected(self, rsa_pair):
        signature = rsa_pair.public.n.to_bytes(rsa_pair.public.byte_length,
                                               "big")
        with pytest.raises(IntegrityError, match="out of range"):
            rsa.verify(rsa_pair.public, b"message", signature)


class TestRsaSerialization:
    def test_public_roundtrip(self, rsa_pair):
        raw = rsa_pair.public.to_bytes()
        assert rsa.PublicKey.from_bytes(raw) == rsa_pair.public

    def test_private_roundtrip(self, rsa_pair):
        raw = rsa_pair.private.to_bytes()
        restored = rsa.PrivateKey.from_bytes(raw)
        assert restored == rsa_pair.private
        msg = b"still works"
        assert rsa.decrypt(restored,
                           rsa.encrypt(rsa_pair.public, msg)) == msg


class TestEsign:
    def test_sign_verify(self, esign_pair):
        sig = esign.sign(esign_pair.signing, b"data block")
        esign.verify(esign_pair.verification, b"data block", sig)

    def test_many_messages(self, esign_pair):
        for i in range(40):
            msg = f"message-{i}".encode()
            esign.verify(esign_pair.verification, msg,
                         esign.sign(esign_pair.signing, msg))

    def test_tampered_message_rejected(self, esign_pair):
        sig = esign.sign(esign_pair.signing, b"payload")
        with pytest.raises(IntegrityError):
            esign.verify(esign_pair.verification, b"Payload", sig)

    def test_tampered_signature_rejected(self, esign_pair):
        sig = bytearray(esign.sign(esign_pair.signing, b"payload"))
        sig[-1] ^= 1
        with pytest.raises(IntegrityError):
            esign.verify(esign_pair.verification, b"payload", bytes(sig))

    def test_zero_signature_rejected(self, esign_pair):
        zero = bytes(esign_pair.verification.byte_length)
        with pytest.raises(IntegrityError):
            esign.verify(esign_pair.verification, b"payload", zero)

    def test_wrong_length_rejected(self, esign_pair):
        with pytest.raises(IntegrityError):
            esign.verify(esign_pair.verification, b"payload", b"xy")

    def test_cross_key_rejected(self, esign_pair):
        other = esign.generate_keypair(prime_bits=96)
        sig = esign.sign(other.signing, b"payload")
        with pytest.raises(IntegrityError):
            esign.verify(esign_pair.verification, b"payload", sig)

    def test_signing_key_roundtrip(self, esign_pair):
        raw = esign_pair.signing.to_bytes()
        restored = esign.SigningKey.from_bytes(raw)
        sig = esign.sign(restored, b"roundtrip")
        esign.verify(esign_pair.verification, b"roundtrip", sig)

    def test_verification_key_roundtrip(self, esign_pair):
        raw = esign_pair.verification.to_bytes()
        restored = esign.VerificationKey.from_bytes(raw)
        sig = esign.sign(esign_pair.signing, b"roundtrip")
        esign.verify(restored, b"roundtrip", sig)

    def test_modulus_structure(self, esign_pair):
        key = esign_pair.signing
        assert key.n == key.p * key.p * key.q
        assert esign_pair.verification.n == key.n

    def test_rejects_small_exponent(self):
        with pytest.raises(CryptoError):
            esign.generate_keypair(prime_bits=96, e=2)

    @settings(max_examples=20, deadline=None)
    @given(st.binary(min_size=0, max_size=200))
    def test_roundtrip_property(self, esign_pair, msg):
        sig = esign.sign(esign_pair.signing, msg)
        esign.verify(esign_pair.verification, msg, sig)

    @settings(max_examples=20, deadline=None)
    @given(st.binary(min_size=1, max_size=64))
    def test_different_message_rejected_property(self, esign_pair, msg):
        sig = esign.sign(esign_pair.signing, msg)
        with pytest.raises(IntegrityError):
            esign.verify(esign_pair.verification, msg + b"!", sig)
