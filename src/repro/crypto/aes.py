"""Pure-Python AES (FIPS-197) with CBC and CTR modes.

The paper uses 128-bit AES for all symmetric encryption (NIST SP 800-78
parameters).  No crypto package is available in this environment, so this is
a from-scratch implementation of the full cipher -- key expansion,
encryption and decryption for 128/192/256-bit keys -- validated against the
FIPS-197 and NIST SP 800-38A test vectors in the test suite.

Performance note: a pure-Python block cipher runs at roughly 100 KB/s, which
is fine for the small metadata objects SHAROES encrypts constantly, but not
for megabyte-scale file data.  Bulk data paths use
:mod:`repro.crypto.stream` (a hashlib-backed PRF in counter mode) behind the
same interface; the simulated cost model charges both as "AES on 2008
hardware" so benchmark numbers are unaffected by the host interpreter.
"""

from __future__ import annotations

import secrets

from ..errors import CryptoError
from .hashes import xor_bytes

BLOCK_SIZE = 16


def _build_sbox() -> tuple[bytes, bytes]:
    """Compute the AES S-box and its inverse from GF(2^8) arithmetic."""
    # Multiplicative inverse table via exponentiation by generator 3.
    exp = [0] * 512
    log = [0] * 256
    x = 1
    for i in range(255):
        exp[i] = x
        log[x] = i
        # multiply by generator 0x03 in GF(2^8)
        x ^= (x << 1) ^ (0x1B if x & 0x80 else 0)
        x &= 0xFF
    for i in range(255, 512):
        exp[i] = exp[i - 255]

    sbox = bytearray(256)
    inv_sbox = bytearray(256)
    for value in range(256):
        inv = 0 if value == 0 else exp[255 - log[value]]
        # Affine transformation.
        s = inv
        result = 0x63
        for shift in range(5):
            result ^= s
            s = ((s << 1) | (s >> 7)) & 0xFF
        sbox[value] = result
    for value in range(256):
        inv_sbox[sbox[value]] = value
    return bytes(sbox), bytes(inv_sbox)


_SBOX, _INV_SBOX = _build_sbox()
_RCON = (0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36,
         0x6C, 0xD8, 0xAB, 0x4D)


def _xtime(value: int) -> int:
    """Multiply by x (i.e. 2) in GF(2^8)."""
    value <<= 1
    if value & 0x100:
        value ^= 0x11B
    return value & 0xFF


def _mul(a: int, b: int) -> int:
    """GF(2^8) multiplication (Russian peasant)."""
    result = 0
    while b:
        if b & 1:
            result ^= a
        a = _xtime(a)
        b >>= 1
    return result


# Precomputed multiplication tables for MixColumns / InvMixColumns.
_MUL2 = bytes(_xtime(i) for i in range(256))
_MUL3 = bytes(_xtime(i) ^ i for i in range(256))
_MUL9 = bytes(_mul(i, 9) for i in range(256))
_MUL11 = bytes(_mul(i, 11) for i in range(256))
_MUL13 = bytes(_mul(i, 13) for i in range(256))
_MUL14 = bytes(_mul(i, 14) for i in range(256))


def _expand_key(key: bytes) -> list[list[int]]:
    """AES key schedule: return the round keys as flat 16-byte lists."""
    key_len = len(key)
    if key_len not in (16, 24, 32):
        raise CryptoError(f"AES key must be 16/24/32 bytes, got {key_len}")
    nk = key_len // 4
    rounds = {4: 10, 6: 12, 8: 14}[nk]

    words = [list(key[4 * i:4 * i + 4]) for i in range(nk)]
    for i in range(nk, 4 * (rounds + 1)):
        word = list(words[i - 1])
        if i % nk == 0:
            word = word[1:] + word[:1]
            word = [_SBOX[b] for b in word]
            word[0] ^= _RCON[i // nk - 1]
        elif nk > 6 and i % nk == 4:
            word = [_SBOX[b] for b in word]
        words.append([words[i - nk][j] ^ word[j] for j in range(4)])

    round_keys = []
    for r in range(rounds + 1):
        flat: list[int] = []
        for w in words[4 * r:4 * r + 4]:
            flat.extend(w)
        round_keys.append(flat)
    return round_keys


class AES:
    """The AES block cipher for a fixed key.

    >>> cipher = AES(bytes(16))
    >>> block = cipher.encrypt_block(bytes(16))
    >>> cipher.decrypt_block(block) == bytes(16)
    True
    """

    def __init__(self, key: bytes):
        self._round_keys = _expand_key(key)
        self._rounds = len(self._round_keys) - 1

    # -- single block ------------------------------------------------------

    def encrypt_block(self, block: bytes) -> bytes:
        if len(block) != BLOCK_SIZE:
            raise CryptoError("AES block must be 16 bytes")
        state = [block[i] ^ self._round_keys[0][i] for i in range(16)]
        for rnd in range(1, self._rounds):
            state = self._encrypt_round(state, self._round_keys[rnd])
        state = self._final_round(state, self._round_keys[self._rounds])
        return bytes(state)

    def decrypt_block(self, block: bytes) -> bytes:
        if len(block) != BLOCK_SIZE:
            raise CryptoError("AES block must be 16 bytes")
        state = [block[i] ^ self._round_keys[self._rounds][i]
                 for i in range(16)]
        for rnd in range(self._rounds - 1, 0, -1):
            state = self._decrypt_round(state, self._round_keys[rnd])
        # Final (first) round: InvShiftRows, InvSubBytes, AddRoundKey.
        state = self._inv_shift_rows(state)
        state = [_INV_SBOX[b] for b in state]
        state = [state[i] ^ self._round_keys[0][i] for i in range(16)]
        return bytes(state)

    # -- round helpers (column-major state as in FIPS-197) -----------------

    @staticmethod
    def _shift_rows(s: list[int]) -> list[int]:
        return [
            s[0], s[5], s[10], s[15],
            s[4], s[9], s[14], s[3],
            s[8], s[13], s[2], s[7],
            s[12], s[1], s[6], s[11],
        ]

    @staticmethod
    def _inv_shift_rows(s: list[int]) -> list[int]:
        return [
            s[0], s[13], s[10], s[7],
            s[4], s[1], s[14], s[11],
            s[8], s[5], s[2], s[15],
            s[12], s[9], s[6], s[3],
        ]

    def _encrypt_round(self, state: list[int], rk: list[int]) -> list[int]:
        state = [_SBOX[b] for b in state]
        state = self._shift_rows(state)
        out = [0] * 16
        for c in range(4):
            a0, a1, a2, a3 = state[4 * c:4 * c + 4]
            out[4 * c] = _MUL2[a0] ^ _MUL3[a1] ^ a2 ^ a3
            out[4 * c + 1] = a0 ^ _MUL2[a1] ^ _MUL3[a2] ^ a3
            out[4 * c + 2] = a0 ^ a1 ^ _MUL2[a2] ^ _MUL3[a3]
            out[4 * c + 3] = _MUL3[a0] ^ a1 ^ a2 ^ _MUL2[a3]
        return [out[i] ^ rk[i] for i in range(16)]

    def _final_round(self, state: list[int], rk: list[int]) -> list[int]:
        state = [_SBOX[b] for b in state]
        state = self._shift_rows(state)
        return [state[i] ^ rk[i] for i in range(16)]

    def _decrypt_round(self, state: list[int], rk: list[int]) -> list[int]:
        state = self._inv_shift_rows(state)
        state = [_INV_SBOX[b] for b in state]
        state = [state[i] ^ rk[i] for i in range(16)]
        out = [0] * 16
        for c in range(4):
            a0, a1, a2, a3 = state[4 * c:4 * c + 4]
            out[4 * c] = _MUL14[a0] ^ _MUL11[a1] ^ _MUL13[a2] ^ _MUL9[a3]
            out[4 * c + 1] = _MUL9[a0] ^ _MUL14[a1] ^ _MUL11[a2] ^ _MUL13[a3]
            out[4 * c + 2] = _MUL13[a0] ^ _MUL9[a1] ^ _MUL14[a2] ^ _MUL11[a3]
            out[4 * c + 3] = _MUL11[a0] ^ _MUL13[a1] ^ _MUL9[a2] ^ _MUL14[a3]
        return out


# -- padding ---------------------------------------------------------------

def pkcs7_pad(data: bytes, block_size: int = BLOCK_SIZE) -> bytes:
    """PKCS#7 padding (always adds at least one byte)."""
    pad_len = block_size - (len(data) % block_size)
    return data + bytes([pad_len]) * pad_len


def pkcs7_unpad(data: bytes, block_size: int = BLOCK_SIZE) -> bytes:
    """Remove and validate PKCS#7 padding."""
    if not data or len(data) % block_size != 0:
        raise CryptoError("invalid padded length")
    pad_len = data[-1]
    if pad_len < 1 or pad_len > block_size:
        raise CryptoError("invalid padding byte")
    if data[-pad_len:] != bytes([pad_len]) * pad_len:
        raise CryptoError("corrupt padding")
    return data[:-pad_len]


# -- modes of operation ----------------------------------------------------

def encrypt_cbc(key: bytes, plaintext: bytes, iv: bytes | None = None) -> bytes:
    """AES-CBC with PKCS#7 padding; the random IV is prepended."""
    if iv is None:
        iv = secrets.token_bytes(BLOCK_SIZE)
    if len(iv) != BLOCK_SIZE:
        raise CryptoError("IV must be 16 bytes")
    cipher = AES(key)
    padded = pkcs7_pad(plaintext)
    out = bytearray(iv)
    previous = iv
    for offset in range(0, len(padded), BLOCK_SIZE):
        previous = cipher.encrypt_block(
            xor_bytes(padded[offset:offset + BLOCK_SIZE], previous))
        out.extend(previous)
    return bytes(out)


def decrypt_cbc(key: bytes, ciphertext: bytes) -> bytes:
    """Inverse of :func:`encrypt_cbc`."""
    if len(ciphertext) < 2 * BLOCK_SIZE or len(ciphertext) % BLOCK_SIZE:
        raise CryptoError("ciphertext too short or misaligned")
    cipher = AES(key)
    iv, body = ciphertext[:BLOCK_SIZE], ciphertext[BLOCK_SIZE:]
    out = bytearray()
    previous = iv
    for offset in range(0, len(body), BLOCK_SIZE):
        block = body[offset:offset + BLOCK_SIZE]
        out.extend(xor_bytes(cipher.decrypt_block(block), previous))
        previous = block
    return pkcs7_unpad(bytes(out))


def encrypt_ctr(key: bytes, plaintext: bytes, nonce: bytes | None = None) -> bytes:
    """AES-CTR; the 8-byte random nonce is prepended. Length-preserving."""
    if nonce is None:
        nonce = secrets.token_bytes(8)
    if len(nonce) != 8:
        raise CryptoError("CTR nonce must be 8 bytes")
    cipher = AES(key)
    out = bytearray(nonce)
    counter = 0
    for offset in range(0, len(plaintext), BLOCK_SIZE):
        keystream = cipher.encrypt_block(
            nonce + counter.to_bytes(8, "big"))
        chunk = plaintext[offset:offset + BLOCK_SIZE]
        out.extend(xor_bytes(chunk, keystream[:len(chunk)]))
        counter += 1
    return bytes(out)


def decrypt_ctr(key: bytes, ciphertext: bytes) -> bytes:
    """Inverse of :func:`encrypt_ctr`."""
    if len(ciphertext) < 8:
        raise CryptoError("ciphertext missing CTR nonce")
    nonce, body = ciphertext[:8], ciphertext[8:]
    cipher = AES(key)
    out = bytearray()
    counter = 0
    for offset in range(0, len(body), BLOCK_SIZE):
        keystream = cipher.encrypt_block(nonce + counter.to_bytes(8, "big"))
        chunk = body[offset:offset + BLOCK_SIZE]
        out.extend(xor_bytes(chunk, keystream[:len(chunk)]))
        counter += 1
    return bytes(out)


def generate_key(bits: int = 128) -> bytes:
    """Fresh random AES key (128 by default, matching the paper)."""
    if bits not in (128, 192, 256):
        raise CryptoError("AES key size must be 128/192/256 bits")
    return secrets.token_bytes(bits // 8)
