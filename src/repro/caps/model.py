"""Cryptographic Access control Primitives (CAPs).

A CAP replicates one *nix permission setting purely through *key
accessibility* (paper section III).  This module defines the CAP catalogue
-- which key fields each permission combination exposes -- and the mapping
from raw rwx bits to CAPs, including the paper's collapse rules:

Directories (Figure 4):

===========  ==============  =========================================
bits         CAP             rationale
===========  ==============  =========================================
``---``      D_ZERO          nothing accessible
``r--``      D_READ          DEK+DVK; table shows *names only*
``rw-``      D_READ          write is useless without exec
``r-x``      D_READ_EXEC     DEK+DVK; full table (inode+MEK+MVK)
``rwx``      D_RWX           adds DSK (may modify the table)
``-w-``      D_ZERO          write is useless without exec
``--x``      D_EXEC_ONLY     DEK+DVK; table rows encrypted per-name
``-wx``      *unsupported*   symmetric DEK => writers can read
===========  ==============  =========================================

Files (Figure 5):

===========  ==============  =========================================
``---``      F_ZERO
``r--``      F_READ          DEK+DVK
``rw-``      F_READ_WRITE    adds DSK
``r-x``      F_READ          client executes after decrypting
``rwx``      F_READ_WRITE
``-w-/-wx``  *unsupported*   symmetric DEK => writers can read
``--x``      *unsupported*   no SSP model can run an unreadable file
===========  ==============  =========================================
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import UnsupportedPermission
from ..fs.permissions import DIRECTORY, EXEC, FILE, READ, SYMLINK, WRITE

# -- table view styles --------------------------------------------------------

#: Full directory table: name, inode, MEK, MVK all visible.
VIEW_FULL = "full"
#: Names-only table (read permission without exec).
VIEW_NAMES = "names"
#: Exec-only table: name column removed; (inode, MEK, MVK) encrypted
#: row-wise under a key derived from the child's name.
VIEW_HIDDEN = "hidden"
#: No table access at all.
VIEW_NONE = "none"


@dataclass(frozen=True)
class Cap:
    """One CAP design: which keys are accessible, and the table view."""

    cap_id: str
    ftype: str
    #: data encryption key accessible (read the data / decrypt the table)
    dek: bool
    #: data verification key accessible (verify writers)
    dvk: bool
    #: data signing key accessible (authorized writer)
    dsk: bool
    #: directory-table view style (directories only)
    table_view: str

    def __str__(self) -> str:
        return self.cap_id


D_ZERO = Cap("d0", DIRECTORY, dek=False, dvk=False, dsk=False,
             table_view=VIEW_NONE)
D_READ = Cap("dr", DIRECTORY, dek=True, dvk=True, dsk=False,
             table_view=VIEW_NAMES)
D_READ_EXEC = Cap("drx", DIRECTORY, dek=True, dvk=True, dsk=False,
                  table_view=VIEW_FULL)
D_RWX = Cap("drwx", DIRECTORY, dek=True, dvk=True, dsk=True,
            table_view=VIEW_FULL)
D_EXEC_ONLY = Cap("dx", DIRECTORY, dek=True, dvk=True, dsk=False,
                  table_view=VIEW_HIDDEN)

F_ZERO = Cap("f0", FILE, dek=False, dvk=False, dsk=False,
             table_view=VIEW_NONE)
F_READ = Cap("fr", FILE, dek=True, dvk=True, dsk=False,
             table_view=VIEW_NONE)
F_READ_WRITE = Cap("frw", FILE, dek=True, dvk=True, dsk=True,
                   table_view=VIEW_NONE)

#: Every CAP, by id.  The paper counts "five unique CAPs per directory and
#: four per file" (including the zero CAP in both counts).
ALL_CAPS = {cap.cap_id: cap for cap in (
    D_ZERO, D_READ, D_READ_EXEC, D_RWX, D_EXEC_ONLY,
    F_ZERO, F_READ, F_READ_WRITE)}

DIRECTORY_CAPS = [c for c in ALL_CAPS.values() if c.ftype == DIRECTORY]
FILE_CAPS = [c for c in ALL_CAPS.values() if c.ftype == FILE]


def cap_for_bits(bits: int, ftype: str, strict: bool = True) -> Cap:
    """Map raw rwx ``bits`` to the CAP that realizes them.

    ``strict=False`` degrades unsupported combinations to the nearest
    *weaker* supported CAP (dropping the write bit) instead of raising --
    the migration tool uses this for lenient transitions.
    """
    r, w, x = bool(bits & READ), bool(bits & WRITE), bool(bits & EXEC)
    if ftype == SYMLINK:
        ftype = FILE  # links are CAP-wise files holding their target
    if ftype == DIRECTORY:
        if r and w and x:
            return D_RWX
        if r and x:
            return D_READ_EXEC
        if r:
            return D_READ  # rw- collapses: write is useless without exec
        if w and x:
            if strict:
                raise UnsupportedPermission(
                    "-wx on a directory cannot be expressed with symmetric "
                    "DEKs (the writer could read); see paper section III-A")
            return D_EXEC_ONLY
        if x:
            return D_EXEC_ONLY
        return D_ZERO  # --- and -w- (write useless without exec)
    if ftype == FILE:
        if r and w:
            return F_READ_WRITE  # rwx collapses to rw
        if r:
            return F_READ  # r-x collapses to r
        if w:
            if strict:
                raise UnsupportedPermission(
                    "write-only files cannot be expressed with symmetric "
                    "DEKs (the writer could read); see paper section III-B")
            return F_ZERO
        if x:
            if strict:
                raise UnsupportedPermission(
                    "exec-only files are impossible in any outsourced "
                    "storage model (execution implies reading)")
            return F_ZERO
        return F_ZERO
    raise ValueError(f"unknown ftype {ftype!r}")


def supported_bits(bits: int, ftype: str) -> bool:
    """True if the rwx combination is expressible in SHAROES."""
    try:
        cap_for_bits(bits, ftype, strict=True)
    except UnsupportedPermission:
        return False
    return True
