"""*nix permission model, CAP catalogue and mode->CAP mapping."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.caps.model import (ALL_CAPS, D_EXEC_ONLY, D_READ, D_READ_EXEC,
                              D_RWX, D_ZERO, F_READ, F_READ_WRITE, F_ZERO,
                              VIEW_FULL, VIEW_HIDDEN, VIEW_NAMES, VIEW_NONE,
                              cap_for_bits, supported_bits)
from repro.errors import UnsupportedPermission
from repro.fs.permissions import (DIRECTORY, FILE, AclEntry, ObjectPerms,
                                  format_mode, triple)
from repro.migration.migrate import degrade_bits, degrade_mode


class TestModeHelpers:
    def test_triple_extraction(self):
        assert triple(0o754, "owner") == 0o7
        assert triple(0o754, "group") == 0o5
        assert triple(0o754, "other") == 0o4

    def test_format_mode(self):
        assert format_mode(0o755) == "rwxr-xr-x"
        assert format_mode(0o640) == "rw-r-----"


class TestClassResolution:
    def test_owner_group_other_cascade(self):
        perms = ObjectPerms(owner="alice", group="eng", mode=0o640)
        assert perms.class_of("alice", {"eng"}) == "owner"
        assert perms.class_of("bob", {"eng"}) == "group"
        assert perms.class_of("carol", {"hr"}) == "other"

    def test_owner_beats_group(self):
        perms = ObjectPerms(owner="alice", group="eng", mode=0o040)
        assert perms.class_of("alice", {"eng"}) == "owner"

    def test_acl_beats_everything(self):
        perms = ObjectPerms(owner="alice", group="eng", mode=0o640,
                            acl=(AclEntry("alice", 0o7),))
        assert perms.class_of("alice", {"eng"}) == "acl:alice"

    def test_bits_for(self):
        perms = ObjectPerms(owner="alice", group="eng", mode=0o640,
                            acl=(AclEntry("dave", 0o4),))
        assert perms.bits_for("alice", set()) == 0o6
        assert perms.bits_for("bob", {"eng"}) == 0o4
        assert perms.bits_for("carol", set()) == 0o0
        assert perms.bits_for("dave", set()) == 0o4


class TestDirectoryCaps:
    """Paper Figure 4, row by row."""

    def test_zero(self):
        assert cap_for_bits(0o0, DIRECTORY) is D_ZERO

    def test_read_only(self):
        cap = cap_for_bits(0o4, DIRECTORY)
        assert cap is D_READ
        assert cap.dek and cap.dvk and not cap.dsk
        assert cap.table_view == VIEW_NAMES

    def test_read_write_collapses_to_read(self):
        assert cap_for_bits(0o6, DIRECTORY) is D_READ

    def test_read_exec(self):
        cap = cap_for_bits(0o5, DIRECTORY)
        assert cap is D_READ_EXEC
        assert cap.table_view == VIEW_FULL
        assert not cap.dsk

    def test_rwx(self):
        cap = cap_for_bits(0o7, DIRECTORY)
        assert cap is D_RWX
        assert cap.dek and cap.dvk and cap.dsk

    def test_write_only_collapses_to_zero(self):
        assert cap_for_bits(0o2, DIRECTORY) is D_ZERO

    def test_exec_only(self):
        cap = cap_for_bits(0o1, DIRECTORY)
        assert cap is D_EXEC_ONLY
        assert cap.table_view == VIEW_HIDDEN
        assert cap.dek and not cap.dsk

    def test_write_exec_unsupported(self):
        with pytest.raises(UnsupportedPermission):
            cap_for_bits(0o3, DIRECTORY)

    def test_write_exec_lenient_degrades(self):
        assert cap_for_bits(0o3, DIRECTORY, strict=False) is D_EXEC_ONLY


class TestFileCaps:
    """Paper Figure 5, row by row."""

    def test_zero(self):
        assert cap_for_bits(0o0, FILE) is F_ZERO

    def test_read(self):
        cap = cap_for_bits(0o4, FILE)
        assert cap is F_READ
        assert cap.dek and not cap.dsk

    def test_read_write(self):
        cap = cap_for_bits(0o6, FILE)
        assert cap is F_READ_WRITE
        assert cap.dsk

    def test_read_exec_collapses_to_read(self):
        assert cap_for_bits(0o5, FILE) is F_READ

    def test_rwx_collapses_to_rw(self):
        assert cap_for_bits(0o7, FILE) is F_READ_WRITE

    def test_write_only_unsupported(self):
        with pytest.raises(UnsupportedPermission):
            cap_for_bits(0o2, FILE)

    def test_write_exec_unsupported(self):
        with pytest.raises(UnsupportedPermission):
            cap_for_bits(0o3, FILE)

    def test_exec_only_unsupported(self):
        with pytest.raises(UnsupportedPermission):
            cap_for_bits(0o1, FILE)

    def test_file_caps_never_have_table_views(self):
        for cap in ALL_CAPS.values():
            if cap.ftype == FILE:
                assert cap.table_view == VIEW_NONE


class TestCapCatalogue:
    def test_paper_counts(self):
        """Five unique CAPs per directory, four per file (section III-D)."""
        dirs = [c for c in ALL_CAPS.values() if c.ftype == DIRECTORY]
        files = [c for c in ALL_CAPS.values() if c.ftype == FILE]
        assert len(dirs) == 5
        assert len(files) == 3  # + the impossible write-exec would be 4

    def test_supported_bits(self):
        assert supported_bits(0o7, DIRECTORY)
        assert not supported_bits(0o3, DIRECTORY)
        assert not supported_bits(0o2, FILE)
        assert supported_bits(0o0, FILE)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=7),
           st.sampled_from([FILE, DIRECTORY]))
    def test_dsk_implies_dek(self, bits, ftype):
        """Writers can always read (symmetric-DEK consequence)."""
        try:
            cap = cap_for_bits(bits, ftype)
        except UnsupportedPermission:
            return
        if cap.dsk:
            assert cap.dek

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=7),
           st.sampled_from([FILE, DIRECTORY]))
    def test_dek_implies_dvk(self, bits, ftype):
        """Readers can always verify writers."""
        try:
            cap = cap_for_bits(bits, ftype)
        except UnsupportedPermission:
            return
        if cap.dek:
            assert cap.dvk


class TestDegrade:
    def test_dir_wx_drops_write(self):
        assert degrade_bits(0o3, DIRECTORY) == 0o1

    def test_dir_others_unchanged(self):
        for bits in (0o0, 0o1, 0o2, 0o4, 0o5, 0o6, 0o7):
            assert degrade_bits(bits, DIRECTORY) == bits

    def test_file_write_only_zeroed(self):
        assert degrade_bits(0o2, FILE) == 0
        assert degrade_bits(0o3, FILE) == 0
        assert degrade_bits(0o1, FILE) == 0

    def test_file_read_combos_unchanged(self):
        for bits in (0o4, 0o5, 0o6, 0o7):
            assert degrade_bits(bits, FILE) == bits

    def test_degrade_mode_full(self):
        assert degrade_mode(0o732, FILE) == 0o700
        assert degrade_mode(0o733, DIRECTORY) == 0o711

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=0o777),
           st.sampled_from([FILE, DIRECTORY]))
    def test_degraded_is_always_supported(self, mode, ftype):
        degraded = degrade_mode(mode, ftype)
        for shift in (6, 3, 0):
            assert supported_bits((degraded >> shift) & 0o7, ftype)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=0o777),
           st.sampled_from([FILE, DIRECTORY]))
    def test_degrade_never_adds_bits(self, mode, ftype):
        assert degrade_mode(mode, ftype) & ~mode == 0
