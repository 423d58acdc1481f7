"""SSP server, blob ids, fault-injecting variants, accounting."""

import pytest

from repro.errors import BlobNotFound, StorageError
from repro.storage.accounting import monthly_storage_dollars
from repro.storage.blobs import (BlobId, data_blob, group_key_blob,
                                 lockbox_blob, meta_blob, principal_hash,
                                 superblock_blob)
from repro.storage.faults import RollbackServer, TamperingServer
from repro.storage.resilient import FlakyServer
from repro.storage.server import StorageServer


def _flaky(failure_rate: float, seed: int = 0) -> FlakyServer:
    """A standalone flaky SSP failing ``put``/``get`` only."""
    return FlakyServer(StorageServer("flaky-ssp"),
                       failure_rate={"put": failure_rate,
                                     "get": failure_rate}, seed=seed)


class TestBlobIds:
    def test_string_form(self):
        assert str(meta_blob(42, "o")) == "meta/42/o"
        assert str(data_blob(7)) == "data/7/-"

    def test_principal_hash_stable_and_opaque(self):
        h = principal_hash("alice")
        assert h == principal_hash("alice")
        assert "alice" not in h
        assert len(h) == 16

    def test_superblock_per_user(self):
        assert superblock_blob("alice") != superblock_blob("bob")

    def test_group_key_blob_distinct(self):
        assert (group_key_blob("eng", "alice")
                != group_key_blob("eng", "bob"))
        assert (group_key_blob("eng", "alice")
                != group_key_blob("hr", "alice"))

    def test_lockbox_addressing(self):
        a = lockbox_blob(5, "alice")
        assert a.inode == 5
        assert a == lockbox_blob(5, "alice")

    def test_ordering_and_hashing(self):
        ids = {meta_blob(1, "o"), meta_blob(1, "o"), meta_blob(2, "o")}
        assert len(ids) == 2
        assert sorted([meta_blob(2, "o"), meta_blob(1, "o")])[0].inode == 1


class TestStorageServer:
    def test_put_get_roundtrip(self):
        server = StorageServer()
        server.put(meta_blob(1, "o"), b"payload")
        assert server.get(meta_blob(1, "o")) == b"payload"

    def test_get_missing_raises(self):
        server = StorageServer()
        with pytest.raises(BlobNotFound):
            server.get(meta_blob(1, "o"))
        assert server.stats.misses == 1

    def test_overwrite(self):
        server = StorageServer()
        server.put(meta_blob(1, "o"), b"v1")
        server.put(meta_blob(1, "o"), b"v2")
        assert server.get(meta_blob(1, "o")) == b"v2"
        assert server.blob_count() == 1

    def test_delete_idempotent(self):
        server = StorageServer()
        server.put(meta_blob(1, "o"), b"x")
        server.delete(meta_blob(1, "o"))
        server.delete(meta_blob(1, "o"))
        assert not server.exists(meta_blob(1, "o"))

    def test_stats_accumulate(self):
        server = StorageServer()
        server.put(meta_blob(1, "o"), b"12345")
        server.get(meta_blob(1, "o"))
        assert server.stats.puts == 1
        assert server.stats.gets == 1
        assert server.stats.bytes_received == 5
        assert server.stats.bytes_served == 5
        assert server.stats.puts_by_kind == {"meta": 1}

    def test_stored_bytes_by_kind(self):
        server = StorageServer()
        server.put(meta_blob(1, "o"), b"12345")
        server.put(data_blob(1, "b0"), b"1234567890")
        assert server.stored_bytes() == 15
        assert server.stored_bytes("meta") == 5
        assert server.stored_bytes("data") == 10

    def test_list_kind(self):
        server = StorageServer()
        server.put(meta_blob(1, "o"), b"x")
        server.put(meta_blob(2, "o"), b"y")
        server.put(data_blob(1, "b0"), b"z")
        assert len(list(server.list_kind("meta"))) == 2

    def test_server_stores_bytes_immutably(self):
        server = StorageServer()
        payload = bytearray(b"mutable")
        server.put(meta_blob(1, "o"), payload)
        payload[0] = 0
        assert server.get(meta_blob(1, "o")) == b"mutable"


class TestFaultServers:
    def test_tampering_flips_on_get(self):
        server = TamperingServer()
        server.put(meta_blob(1, "o"), b"\x00\x00")
        assert server.get(meta_blob(1, "o")) == b"\x01\x00"
        assert server.tamper_count == 1

    def test_tampering_selective(self):
        server = TamperingServer(
            should_tamper=lambda bid: bid.kind == "data")
        server.put(meta_blob(1, "o"), b"\x00")
        server.put(data_blob(1, "b0"), b"\x00")
        assert server.get(meta_blob(1, "o")) == b"\x00"
        assert server.get(data_blob(1, "b0")) == b"\x01"

    def test_rollback_serves_first_version(self):
        server = RollbackServer()
        server.put(meta_blob(1, "o"), b"v1")
        server.put(meta_blob(1, "o"), b"v2")
        assert server.get(meta_blob(1, "o")) == b"v1"

    def test_rollback_selective(self):
        server = RollbackServer(should_rollback=lambda bid: False)
        server.put(meta_blob(1, "o"), b"v1")
        server.put(meta_blob(1, "o"), b"v2")
        assert server.get(meta_blob(1, "o")) == b"v2"

    def test_flaky_failures_deterministic(self):
        a = _flaky(0.5, seed=42)
        b = _flaky(0.5, seed=42)
        outcomes_a, outcomes_b = [], []
        for outcomes, server in ((outcomes_a, a), (outcomes_b, b)):
            for i in range(20):
                try:
                    server.put(meta_blob(i, "o"), b"x")
                    outcomes.append(True)
                except StorageError:
                    outcomes.append(False)
        assert outcomes_a == outcomes_b
        assert not all(outcomes_a)
        assert any(outcomes_a)

    def test_flaky_rate_bounds(self):
        with pytest.raises(ValueError):
            _flaky(1.5)

    def test_flaky_zero_never_fails(self):
        server = _flaky(0.0)
        for i in range(50):
            server.put(meta_blob(i, "o"), b"x")


class TestAccounting:
    def test_monthly_dollars(self):
        one_gb = 1024 ** 3
        assert monthly_storage_dollars(one_gb) == pytest.approx(0.15)
        assert monthly_storage_dollars(0) == 0.0

    def test_custom_price(self):
        assert monthly_storage_dollars(1024 ** 3, 0.30) == pytest.approx(0.3)
