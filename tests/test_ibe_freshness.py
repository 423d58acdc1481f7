"""Cocks IBE (the paper's PKI alternative) and the freshness monitor
(the paper's SUNDR-inspired integrity future work)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import ibe
from repro.crypto.ibe import KeyAuthority, jacobi
from repro.errors import CryptoError, IntegrityError
from repro.fs.client import SharoesFilesystem
from repro.fs.freshness import FreshnessMonitor, StaleObjectError
from repro.storage.blobs import meta_blob


@pytest.fixture(scope="module")
def authority():
    return KeyAuthority(modulus_bits=256)


class TestJacobi:
    def test_known_values(self):
        # (1/3)=1, (2/3)=-1, classic table entries.
        assert jacobi(1, 3) == 1
        assert jacobi(2, 3) == -1
        assert jacobi(2, 15) == 1
        assert jacobi(7, 15) == -1
        assert jacobi(0, 15) == 0

    def test_multiplicative(self):
        n = 77
        for a in range(1, 20):
            for b in range(1, 20):
                assert (jacobi(a * b, n)
                        == jacobi(a, n) * jacobi(b, n))

    def test_squares_are_plus_one(self):
        n = 91
        for a in range(2, 30):
            if jacobi(a, n) != 0:
                assert jacobi(a * a % n, n) == 1

    def test_even_modulus_rejected(self):
        with pytest.raises(CryptoError):
            jacobi(3, 10)


class TestCocksIbe:
    def test_roundtrip(self, authority):
        key = authority.extract("alice@corp.example")
        blob = ibe.encrypt(authority.params, "alice@corp.example",
                           b"a 128-bit key!!!")
        assert ibe.decrypt(authority.params, key,
                           blob) == b"a 128-bit key!!!"

    def test_empty_payload(self, authority):
        key = authority.extract("x@y")
        assert ibe.decrypt(authority.params, key,
                           ibe.encrypt(authority.params, "x@y", b"")) == b""

    def test_wrong_identity_garbles(self, authority):
        blob = ibe.encrypt(authority.params, "alice@corp.example",
                           b"secret--secret--")
        eve = authority.extract("eve@corp.example")
        assert ibe.decrypt(authority.params, eve,
                           blob) != b"secret--secret--"

    def test_identity_element_deterministic(self, authority):
        a1 = ibe.identity_element(authority.params, "someone@x")
        a2 = ibe.identity_element(authority.params, "someone@x")
        assert a1 == a2
        assert jacobi(a1, authority.params.n) == 1

    def test_extraction_consistent(self, authority):
        key = authority.extract("bob@corp.example")
        a = ibe.identity_element(authority.params, "bob@corp.example")
        n = authority.params.n
        expected = a % n if key.a_is_residue else (-a) % n
        assert pow(key.r, 2, n) == expected

    def test_payload_cap(self, authority):
        with pytest.raises(CryptoError):
            ibe.encrypt(authority.params, "x@y", b"z" * 65)

    def test_key_serialization(self, authority):
        key = authority.extract("s@t")
        restored = ibe.IdentityKey.from_bytes(key.to_bytes())
        assert restored == key
        params = ibe.PublicParams.from_bytes(authority.params.to_bytes())
        assert params == authority.params

    @settings(max_examples=5, deadline=None)
    @given(st.binary(min_size=0, max_size=8))
    def test_roundtrip_property(self, authority, payload):
        key = authority.extract("prop@test")
        blob = ibe.encrypt(authority.params, "prop@test", payload)
        assert ibe.decrypt(authority.params, key, blob) == payload


class TestFreshnessMonitor:
    def test_monotone_versions_accepted(self):
        monitor = FreshnessMonitor()
        monitor.observe_metadata(5, 1, b"v1")
        monitor.observe_metadata(5, 2, b"v2")
        monitor.observe_metadata(5, 2, b"v2")  # same again is fine
        assert monitor.high_watermark(5) == 2

    def test_rollback_detected(self):
        monitor = FreshnessMonitor()
        monitor.observe_metadata(5, 3, b"v3")
        with pytest.raises(StaleObjectError):
            monitor.observe_metadata(5, 2, b"v2")

    def test_equivocation_detected(self):
        monitor = FreshnessMonitor()
        monitor.observe_metadata(5, 3, b"one content")
        with pytest.raises(StaleObjectError):
            monitor.observe_metadata(5, 3, b"other content")

    def test_forget_resets(self):
        monitor = FreshnessMonitor()
        monitor.observe_metadata(5, 3, b"x")
        monitor.forget(5)
        monitor.observe_metadata(5, 1, b"y")  # fresh start allowed
        assert monitor.high_watermark(5) == 1

    def test_independent_inodes(self):
        monitor = FreshnessMonitor()
        monitor.observe_metadata(1, 5, b"a")
        monitor.observe_metadata(2, 1, b"b")  # no cross-talk
        assert monitor.high_watermark(1) == 5
        assert monitor.high_watermark(2) == 1
        assert monitor.high_watermark(3) is None


class TestClientFreshness:
    def test_metadata_rollback_detected_on_revisit(self, volume, registry,
                                                   server):
        """The SSP serves a pre-chmod metadata replica: the client that
        saw the newer version refuses it."""
        alice = SharoesFilesystem(volume, registry.user("alice"))
        alice.mount()
        alice.mknod("/f", mode=0o644)
        inode = alice.getattr("/f").inode
        selector = "o"
        old_blob = server.get(meta_blob(inode, selector))
        alice.chmod("/f", 0o600)          # version bump
        alice.cache.clear()
        alice.getattr("/f")               # observes the new version
        server.put(meta_blob(inode, selector), old_blob)  # rollback!
        alice.cache.clear()
        with pytest.raises(StaleObjectError):
            alice.getattr("/f")

    def test_fresh_client_blind_to_rollback(self, volume, registry,
                                            server):
        """First-contact rollback is undetectable (SUNDR's remit)."""
        alice = SharoesFilesystem(volume, registry.user("alice"))
        alice.mount()
        alice.mknod("/g", mode=0o644)
        inode = alice.getattr("/g").inode
        old_blob = server.get(meta_blob(inode, "o"))
        alice.chmod("/g", 0o600)
        server.put(meta_blob(inode, "o"), old_blob)
        newcomer = SharoesFilesystem(volume, registry.user("alice"))
        newcomer.mount()
        assert newcomer.getattr("/g").mode == 0o644  # sees the rollback
