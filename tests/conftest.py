"""Shared fixtures: a small enterprise with users, groups and a volume.

Key generation dominates test runtime, so user key pairs (the RSA
identity pair and the ESIGN signature pair) are minted once per session
and cloned into fresh registries per test.
"""

from __future__ import annotations

import pytest

from repro.crypto import esign, rsa
from repro.crypto.provider import CryptoProvider
from repro.fs.client import ClientConfig, SharoesFilesystem
from repro.fs.volume import SharoesVolume
from repro.principals.groups import GroupKeyService
from repro.principals.registry import PrincipalRegistry
from repro.principals.users import User
from repro.sim.costmodel import CostModel
from repro.sim.profiles import FREE, PAPER_2008
from repro.storage.server import StorageServer

USER_NAMES = ("alice", "bob", "carol", "dave")

#: The keys that must not sign for alice, each as ``sign(registry,
#: payload) -> signature``: another user's USK, and alice's own RSA
#: identity key (what signed lease links and version statements before
#: each user enrolled a USK).
FOREIGN_SIGNERS = {
    "bobs-usk": lambda registry, payload: esign.sign(
        registry.user("bob").signing.signing, payload),
    "alices-rsa-key": lambda registry, payload: rsa.sign(
        registry.user("alice").private_key, payload),
}


@pytest.fixture(scope="session")
def session_keypairs() -> dict[str, rsa.KeyPair]:
    """Expensive RSA key generation, done once per test session."""
    return {name: rsa.generate_keypair(512) for name in USER_NAMES}


@pytest.fixture(scope="session")
def session_signing_pairs(session_keypairs) -> dict[str,
                                                    esign.SignatureKeyPair]:
    """Each user's ESIGN signature pair (USK/UVK), drawn once per session
    the way enrolment draws it for that user's identity key."""
    return {name: User(user_id=name, keypair=keypair).signing
            for name, keypair in session_keypairs.items()}


@pytest.fixture
def registry(session_keypairs, session_signing_pairs) -> PrincipalRegistry:
    """alice+bob in group eng; carol in group hr; dave groupless."""
    reg = PrincipalRegistry()
    for name in USER_NAMES:
        reg.add_user(User(user_id=name, keypair=session_keypairs[name],
                          signing=session_signing_pairs[name]))
    reg.create_group("eng", {"alice", "bob"}, key_bits=512)
    reg.create_group("hr", {"carol"}, key_bits=512)
    return reg


@pytest.fixture
def server() -> StorageServer:
    return StorageServer()


@pytest.fixture
def volume(server, registry) -> SharoesVolume:
    """A formatted Scheme-2 volume rooted at alice:eng 0755."""
    vol = SharoesVolume(server, registry)
    vol.format(root_owner="alice", root_group="eng")
    GroupKeyService(registry, server, CryptoProvider()).publish_all()
    return vol


@pytest.fixture
def make_fs(volume, registry):
    """Factory: a mounted client for any user (zero-cost profile)."""

    def factory(user_id: str = "alice",
                config: ClientConfig | None = None,
                with_costs: bool = False,
                record_spans: bool = False) -> SharoesFilesystem:
        cost = CostModel(PAPER_2008 if with_costs else FREE)
        fs = SharoesFilesystem(volume, registry.user(user_id),
                               cost_model=cost, config=config)
        if record_spans:
            fs.tracer.record()
        fs.mount()
        return fs

    return factory


@pytest.fixture
def alice_fs(make_fs) -> SharoesFilesystem:
    return make_fs("alice")


@pytest.fixture
def bob_fs(make_fs) -> SharoesFilesystem:
    return make_fs("bob")


@pytest.fixture
def carol_fs(make_fs) -> SharoesFilesystem:
    return make_fs("carol")


@pytest.fixture
def dave_fs(make_fs) -> SharoesFilesystem:
    return make_fs("dave")
