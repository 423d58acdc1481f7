"""Coverage for remaining corners: Andrew internals, group-key edge cases, exec-only interplay with groups."""

import pytest

from repro.errors import PermissionDenied
from repro.fs.client import SharoesFilesystem
from repro.fs.dirtable import SPLIT
from repro.tools.fsck import VolumeAuditor
from repro.workloads.andrew import _source_tree
from repro.workloads.runner import LABELS


class TestAndrewInternals:
    def test_source_tree_deterministic(self):
        dirs_a, files_a = _source_tree(seed=5)
        dirs_b, files_b = _source_tree(seed=5)
        assert dirs_a == dirs_b
        assert files_a == files_b

    def test_source_tree_shape(self):
        dirs, files = _source_tree()
        assert len(files) == 70
        assert len(dirs) == 21  # /src + 20 modules
        total = sum(len(content) for content in files.values())
        assert 200_000 < total < 1_400_000

    def test_labels_are_paper_names(self):
        assert LABELS["sharoes"] == "SHAROES"
        assert LABELS["no-enc-md-d"] == "NO-ENC-MD-D"


class TestGroupEdgeCases:
    def test_file_group_not_in_registry_is_just_other(self, alice_fs,
                                                      bob_fs):
        """A file grouped to a nonexistent group: nobody matches the
        group class; world bits decide."""
        alice_fs.create_file("/odd", b"x", mode=0o640, group="ghosts")
        with pytest.raises(PermissionDenied):
            bob_fs.read_file("/odd")

    def test_owner_in_group_still_owner_class(self, alice_fs, bob_fs):
        """alice owns and is in eng: owner class wins (mode 0o060 grants
        the group but not the owner -- owner bits 0).  The owner can't
        even put initial content in (honest enforcement), while the
        group member can."""
        alice_fs.mknod("/strange", mode=0o060)
        with pytest.raises(PermissionDenied):
            alice_fs.read_file("/strange")
        with pytest.raises(PermissionDenied):
            alice_fs.write_file("/strange", b"x")
        bob_fs.write_file("/strange", b"from bob")
        assert bob_fs.read_file("/strange") == b"from bob"

    def test_group_exec_only_directory(self, alice_fs, bob_fs,
                                       carol_fs):
        """Group gets exec-only, world nothing: three-way split."""
        alice_fs.mkdir("/tri", mode=0o710)
        alice_fs.create_file("/tri/f", b"deep", mode=0o644)
        assert bob_fs.read_file("/tri/f") == b"deep"  # eng: --x + name
        with pytest.raises(PermissionDenied):
            bob_fs.readdir("/tri")
        with pytest.raises(PermissionDenied):
            carol_fs.read_file("/tri/f")  # other: ---

    def test_vacuous_group_chain_points_through_lockboxes(self, alice_fs,
                                                          registry, volume):
        """/p's group holds only its owner, so /p's group view has no
        users; a child in another group gets a SPLIT pointer there (the
        vacuous-chain rule).  Everyone else resolves as the modes say,
        and the tree audits clean."""
        registry.create_group("solo", {"alice"}, key_bits=512)
        alice_fs.mkdir("/p", mode=0o755, group="solo")
        alice_fs.create_file("/p/f", b"eng only", mode=0o640, group="eng")
        p = alice_fs._resolve("/p")
        f = alice_fs._resolve("/p/f")
        assert volume.scheme.child_pointer(p.attrs, f.attrs, "g") == (
            SPLIT, None)
        bob = SharoesFilesystem(volume, registry.user("bob"))
        bob.mount()
        assert bob.read_file("/p/f") == b"eng only"
        carol = SharoesFilesystem(volume, registry.user("carol"))
        carol.mount()
        with pytest.raises(PermissionDenied):
            carol.read_file("/p/f")
        assert VolumeAuditor(volume).audit().clean


class TestStatSemantics:
    def test_version_monotone_across_owner_ops(self, alice_fs):
        alice_fs.mknod("/v", mode=0o644)
        versions = [alice_fs.getattr("/v").version]
        alice_fs.chmod("/v", 0o640)
        versions.append(alice_fs.getattr("/v").version)
        alice_fs.rekey("/v")
        versions.append(alice_fs.getattr("/v").version)
        assert versions == sorted(set(versions))

    def test_inode_stability_across_rename_and_chmod(self, alice_fs):
        alice_fs.create_file("/stable", b"x", mode=0o644)
        inode = alice_fs.getattr("/stable").inode
        alice_fs.chmod("/stable", 0o600)
        alice_fs.rename("/stable", "/moved")
        assert alice_fs.getattr("/moved").inode == inode

    def test_getattr_through_two_exec_only_levels(self, alice_fs,
                                                  carol_fs):
        alice_fs.mkdir("/l1", mode=0o711)
        alice_fs.mkdir("/l1/l2", mode=0o711)
        alice_fs.create_file("/l1/l2/leaf", b"deep", mode=0o644)
        stat = carol_fs.getattr("/l1/l2/leaf")
        assert stat.ftype == "file"
        assert carol_fs.read_file("/l1/l2/leaf") == b"deep"
