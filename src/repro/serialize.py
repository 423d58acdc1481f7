"""Compact binary serialization helpers.

SHAROES stores keys *inside* other encrypted structures (metadata objects
embed DEK/DSK/DVK/MSK; directory tables embed MEK/MVK), so every structure
in the system needs a stable byte encoding.  This module provides a small
length-prefixed encoding used everywhere: writers push fields, readers pop
them in the same order.

The format is deliberately simple -- a sequence of fields, each encoded as a
4-byte big-endian length followed by the payload.  Integers are encoded as
their minimal big-endian bytes, strings as UTF-8.
"""

from __future__ import annotations

from .errors import SharoesError


class SerializationError(SharoesError):
    """Malformed byte stream during decoding."""


class Writer:
    """Accumulates length-prefixed fields into a byte string."""

    def __init__(self) -> None:
        self._parts: list[bytes] = []

    def put_bytes(self, value: bytes) -> "Writer":
        self._parts.append(len(value).to_bytes(4, "big"))
        self._parts.append(value)
        return self

    def put_str(self, value: str) -> "Writer":
        return self.put_bytes(value.encode("utf-8"))

    def put_int(self, value: int) -> "Writer":
        if value < 0:
            raise SerializationError("negative integers are not encodable")
        length = max(1, (value.bit_length() + 7) // 8)
        return self.put_bytes(value.to_bytes(length, "big"))

    def put_bool(self, value: bool) -> "Writer":
        return self.put_bytes(b"\x01" if value else b"\x00")

    def put_optional_bytes(self, value: bytes | None) -> "Writer":
        """None is encoded distinctly from b'' (flag byte + payload)."""
        if value is None:
            return self.put_bytes(b"\x00")
        return self.put_bytes(b"\x01" + value)

    def put_encoded(self, value: bytes) -> "Writer":
        """Append fields another :class:`Writer` already encoded."""
        self._parts.append(value)
        return self

    def getvalue(self) -> bytes:
        return b"".join(self._parts)


class Reader:
    """Pops length-prefixed fields pushed by :class:`Writer`."""

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._offset = 0

    def get_bytes(self) -> bytes:
        if self._offset + 4 > len(self._data):
            raise SerializationError("truncated length prefix")
        length = int.from_bytes(self._data[self._offset:self._offset + 4],
                                "big")
        self._offset += 4
        if self._offset + length > len(self._data):
            raise SerializationError("truncated field payload")
        value = self._data[self._offset:self._offset + length]
        self._offset += length
        return value

    def get_str(self) -> str:
        try:
            return self.get_bytes().decode("utf-8")
        except UnicodeDecodeError as exc:
            raise SerializationError("field is not valid UTF-8") from exc

    def get_int(self) -> int:
        raw = self.get_bytes()
        if not raw:
            raise SerializationError("empty integer field")
        return int.from_bytes(raw, "big")

    def get_bool(self) -> bool:
        raw = self.get_bytes()
        if raw not in (b"\x00", b"\x01"):
            raise SerializationError("invalid boolean field")
        return raw == b"\x01"

    def get_optional_bytes(self) -> bytes | None:
        raw = self.get_bytes()
        if not raw:
            raise SerializationError("empty optional field")
        if raw[0] == 0:
            if len(raw) != 1:
                raise SerializationError("non-empty None optional")
            return None
        return raw[1:]

    def at_end(self) -> bool:
        return self._offset == len(self._data)

    def expect_end(self) -> None:
        if not self.at_end():
            raise SerializationError(
                f"{len(self._data) - self._offset} trailing bytes")
