"""Users, groups, registry, group key distribution, user agent wallet."""

from dataclasses import replace

import pytest

from repro.crypto import esign, rsa
from repro.crypto.provider import CryptoProvider
from repro.errors import KeyAccessError, SharoesError
from repro.fs.consistency import ConsistencyLog
from repro.fs.lease import LeaseRecord
from repro.principals.groups import GroupKeyService, UserAgent
from repro.principals.registry import PrincipalRegistry, UnknownPrincipal
from repro.principals.users import User
from repro.storage.blobs import group_key_blob
from repro.storage.server import StorageServer


class TestRegistry:
    def test_users_and_groups(self, registry):
        assert [u.user_id for u in registry.users()] == [
            "alice", "bob", "carol", "dave"]
        assert "alice" in registry.group("eng").members
        assert "carol" not in registry.group("eng").members
        assert registry.user("alice").groups == {"eng"}

    def test_duplicate_user_rejected(self, registry):
        with pytest.raises(SharoesError):
            registry.create_user("alice", key_bits=512)

    def test_unknown_lookups(self, registry):
        with pytest.raises(UnknownPrincipal):
            registry.user("mallory")
        with pytest.raises(UnknownPrincipal):
            registry.group("pirates")
        with pytest.raises(UnknownPrincipal):
            registry.directory.user_key("mallory")
        with pytest.raises(UnknownPrincipal):
            registry.directory.signature_key("mallory")

    def test_group_with_unknown_member_rejected(self, registry):
        with pytest.raises(UnknownPrincipal):
            registry.create_group("ghosts", {"casper"}, key_bits=512)

    def test_membership_changes(self, registry):
        registry.add_member("eng", "carol")
        assert "carol" in registry.group("eng").members
        assert "eng" in registry.user("carol").groups
        registry.remove_member("eng", "carol")
        assert "carol" not in registry.group("eng").members
        assert "eng" not in registry.user("carol").groups

    def test_directory_exposes_public_keys_only(self, registry):
        key = registry.directory.user_key("alice")
        assert key == registry.user("alice").public_key
        assert not hasattr(key, "d")
        uvk = registry.directory.signature_key("alice")
        assert uvk == registry.user("alice").signing.verification
        assert not hasattr(uvk, "p")


class TestUserSignatureKeySizes:
    """Counted bytes repeat bit for bit only while a USK signature is
    exactly as long as an RSA signature under the identity key."""

    @pytest.mark.parametrize("key_bits", [512, 768, 1024])
    def test_every_enrolled_pair_signs_at_the_identity_length(self,
                                                              key_bits):
        identity = rsa.generate_keypair(key_bits)
        lengths = {len(esign.sign(User(user_id="u", keypair=identity)
                                  .signing.signing, b"message"))
                   for _ in range(30)}
        assert lengths == {key_bits // 8}

    def test_a_512_bit_enrolment_keeps_link_and_statement_sizes(self):
        """A lease link and a version statement signed with a fresh
        enrolment's USK are exactly as long as the RSA-signed ones."""
        erin = PrincipalRegistry().create_user("erin")
        link = LeaseRecord(inode=9, epoch=1, holder="erin", acquired_us=0,
                           expires_us=5_000_000).signed(
                               erin.signing.signing)
        server = StorageServer()
        statement = ConsistencyLog(
            "erin", erin.signing.signing, None,
            lambda label, ops: server.batch(ops)).publish()
        for signed in (link, statement):
            rsa_signed = replace(signed, signature=rsa.sign(
                erin.private_key, signed.signed_payload()))
            assert len(signed.signature) == 64
            assert len(signed.to_bytes()) == len(rsa_signed.to_bytes())


class TestGroupKeys:
    def test_publish_and_fetch(self, registry, server):
        provider = CryptoProvider()
        service = GroupKeyService(registry, server, provider)
        assert service.publish(registry.group("eng")) == 2
        agent = UserAgent(registry.user("alice"), provider)
        agent.install_group_key(
            "eng", server.get(group_key_blob("eng", "alice")))
        assert agent.principal_ids() == ["alice", "eng"]
        # The fetched key matches the group's actual private key.
        assert (agent.group_keys["eng"].n
                == registry.group("eng").keypair.private.n)

    def test_non_member_has_no_blob(self, registry, server):
        provider = CryptoProvider()
        GroupKeyService(registry, server, provider).publish_all()
        assert not server.exists(group_key_blob("eng", "carol"))

    def test_member_cannot_unwrap_others_blob(self, registry, server):
        provider = CryptoProvider()
        GroupKeyService(registry, server, provider).publish_all()
        blob = server.get(group_key_blob("eng", "alice"))
        carol_agent = UserAgent(registry.user("carol"), provider)
        with pytest.raises(Exception):
            carol_agent.provider.pk_decrypt(
                registry.user("carol").private_key, blob)

    def test_revoke_member_rotates_key(self, registry, server):
        provider = CryptoProvider()
        service = GroupKeyService(registry, server, provider)
        service.publish_all()
        old_n = registry.group("eng").keypair.private.n
        service.revoke_member("eng", "bob")
        assert "bob" not in registry.group("eng").members
        assert not server.exists(group_key_blob("eng", "bob"))
        assert registry.group("eng").keypair.private.n != old_n
        # Remaining member can still unwrap the fresh key.
        agent = UserAgent(registry.user("alice"), provider)
        agent.install_group_key(
            "eng", server.get(group_key_blob("eng", "alice")))
        assert (agent.group_keys["eng"].n
                == registry.group("eng").keypair.private.n)


class TestUserAgent:
    def test_principal_ids_order(self, registry):
        agent = UserAgent(registry.user("alice"), CryptoProvider())
        agent.group_keys["eng"] = registry.group("eng").keypair.private
        assert agent.principal_ids() == ["alice", "eng"]

    def test_private_key_for_self(self, registry):
        agent = UserAgent(registry.user("alice"), CryptoProvider())
        assert (agent.private_key_for("alice")
                is registry.user("alice").private_key)

    def test_private_key_for_unknown_principal(self, registry):
        agent = UserAgent(registry.user("alice"), CryptoProvider())
        with pytest.raises(KeyAccessError):
            agent.private_key_for("hr")

    def test_unwrap_with_group_identity(self, registry):
        provider = CryptoProvider()
        agent = UserAgent(registry.user("alice"), provider)
        agent.group_keys["eng"] = registry.group("eng").keypair.private
        wrapped = provider.pk_encrypt(
            registry.group("eng").public_key, b"for the group")
        assert agent.unwrap("eng", wrapped) == b"for the group"

    def test_install_group_key(self, registry):
        provider = CryptoProvider()
        agent = UserAgent(registry.user("bob"), provider)
        wrapped = provider.pk_encrypt(
            registry.user("bob").public_key,
            registry.group("eng").keypair.private.to_bytes())
        agent.install_group_key("eng", wrapped)
        assert (agent.group_keys["eng"].n
                == registry.group("eng").keypair.private.n)
