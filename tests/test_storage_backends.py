"""The TCP wire protocol."""

import dataclasses
import struct

import pytest

from repro.crypto.provider import CryptoProvider
from repro.errors import (BlobNotFound, CasConflictError, StaleEpochError,
                          StorageError, TransientStorageError)
from repro.fs.client import SharoesFilesystem
from repro.fs.volume import SharoesVolume
from repro.principals.groups import GroupKeyService
from repro.storage.blobs import data_blob, lease_blob, meta_blob
from repro.storage.server import BatchOp, StorageServer
from repro.storage.wire import (RemoteStorageClient, SspServer,
                                _send_message)


@pytest.fixture
def wire_pair():
    backend = StorageServer()
    server = SspServer(backend).start()
    host, port = server.address
    client = RemoteStorageClient(host, port)
    yield backend, client
    client.close()
    server.stop()


class TestWireProtocol:
    def test_put_get(self, wire_pair):
        backend, client = wire_pair
        client.put(meta_blob(1, "o"), b"over the wire")
        assert client.get(meta_blob(1, "o")) == b"over the wire"
        assert backend.get(meta_blob(1, "o")) == b"over the wire"

    def test_missing_maps_to_blob_not_found(self, wire_pair):
        _, client = wire_pair
        with pytest.raises(BlobNotFound):
            client.get(meta_blob(404, "o"))

    def test_delete_and_exists(self, wire_pair):
        _, client = wire_pair
        client.put(meta_blob(1, "o"), b"x")
        assert client.exists(meta_blob(1, "o"))
        client.delete(meta_blob(1, "o"))
        assert not client.exists(meta_blob(1, "o"))

    def test_large_payload(self, wire_pair):
        _, client = wire_pair
        big = bytes(range(256)) * 4096  # 1 MiB
        client.put(data_blob(7, "b0"), big)
        assert client.get(data_blob(7, "b0")) == big

    def test_binary_safe(self, wire_pair):
        _, client = wire_pair
        nasty = b"\x00\xff\n\r" * 100
        client.put(data_blob(8, "b0"), nasty)
        assert client.get(data_blob(8, "b0")) == nasty

    @pytest.mark.parametrize("body", [b"", bytes(range(256)) * 3,
                                      bytearray(b"\x08" * 40)],
                             ids=["empty", "bytes", "bytearray"])
    def test_a_partial_send_resumes_where_it_stopped(self, body):
        """A frame goes out as its u32 length and its body gathered into
        one ``sendmsg`` -- never joined into a copy, never two sends --
        and a send the kernel takes only part of resumes mid-buffer."""

        class Trickle:
            """Takes at most seven bytes a call."""

            def __init__(self):
                self.sent, self.gathered = bytearray(), []

            def sendmsg(self, buffers):
                self.gathered.append(len(buffers))
                taken = b"".join(bytes(part) for part in buffers)[:7]
                self.sent += taken
                return len(taken)

        sock = Trickle()
        _send_message(sock, body)
        assert bytes(sock.sent) == struct.pack(">I", len(body)) + body
        assert sock.gathered[0] == 2
        assert len(sock.gathered) == -(-(4 + len(body)) // 7)

    def test_enumeration_refused(self, wire_pair):
        _, client = wire_pair
        with pytest.raises(StorageError):
            client.raw_blobs()
        with pytest.raises(StorageError):
            client.blob_count()

    def test_only_acknowledged_ops_are_counted(self):
        """One stats rule on the proxy: a put that was refused (stale
        fence) or lost (dead socket) is not traffic served, whether it
        travelled alone or inside a batch -- and an acknowledged one
        counts the same either way."""
        backend = StorageServer()
        server = SspServer(backend).start()
        client = RemoteStorageClient(*server.address, timeout=2.0)
        blob, fence = data_blob(1, "b0"), lease_blob(1)
        try:
            client.put(fence, (5).to_bytes(8, "big") + b"lease")
            before = dataclasses.asdict(client.stats)
            with pytest.raises(StaleEpochError):
                client.put_fenced(blob, b"zombie", fence, 4)
            with pytest.raises(StaleEpochError):
                client.delete_fenced(blob, fence, 4)
            with pytest.raises(CasConflictError):
                client.put_if(fence, b"steal", None)
            replies = client.batch([
                BatchOp.put_if(fence, b"steal", None),
                BatchOp.put_fenced(blob, b"zombie", fence, 4)])
            assert [r.status for r in replies] == ["conflict", "fenced"]
            assert dataclasses.asdict(client.stats) == before

            client.put_fenced(blob, b"live", fence, 5)
            client.batch([BatchOp.put_fenced(blob, b"live", fence, 5)])
            assert client.stats.puts == before["puts"] + 2
            assert client.stats.bytes_received == \
                before["bytes_received"] + 8
            before = dataclasses.asdict(client.stats)
        finally:
            server.stop()
            client.close()  # next request reconnects; nobody listens
        for _ in range(2):  # the retry a transport would make
            with pytest.raises(TransientStorageError):
                client.put(blob, b"lost")
            with pytest.raises(TransientStorageError):
                client.delete(blob)
            with pytest.raises(TransientStorageError):
                client.batch([BatchOp.put(blob, b"lost")])
        assert dataclasses.asdict(client.stats) == before

    def test_full_filesystem_over_tcp(self, registry):
        """A complete SHAROES mount where every blob crosses a socket."""
        backend = StorageServer()
        with SspServer(backend) as server:
            host, port = server.address
            client = RemoteStorageClient(host, port)
            try:
                # Provision through the same wire (the migration/format
                # path also only needs put).
                volume = SharoesVolume(client, registry)
                volume.format(root_owner="alice", root_group="eng")
                GroupKeyService(registry, client,
                                CryptoProvider()).publish_all()
                fs = SharoesFilesystem(volume, registry.user("alice"))
                fs.mount()
                fs.mkdir("/d", mode=0o750)
                fs.create_file("/d/f", b"tcp bytes", mode=0o640)
                fs.cache.clear()
                assert fs.read_file("/d/f") == b"tcp bytes"
                # The backend (the real SSP) holds only ciphertext.
                everything = b"".join(backend.raw_blobs().values())
                assert b"tcp bytes" not in everything
            finally:
                client.close()

    def test_two_clients_share_one_server(self, registry):
        backend = StorageServer()
        with SspServer(backend) as server:
            host, port = server.address
            c1 = RemoteStorageClient(host, port)
            c2 = RemoteStorageClient(host, port)
            try:
                c1.put(meta_blob(5, "o"), b"from c1")
                assert c2.get(meta_blob(5, "o")) == b"from c1"
            finally:
                c1.close()
                c2.close()
