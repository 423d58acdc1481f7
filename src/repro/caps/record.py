"""Owner-side object records and CAP view construction.

An :class:`ObjectRecord` is the *complete* key material and attributes of
one filesystem object -- what the owner (and only the owner) can see.  The
per-selector metadata replicas stored at the SSP are filtered views of the
record: :meth:`ObjectRecord.view_for` applies a CAP to decide which key
fields each replica carries (paper Figures 4 and 5).

The record itself is never stored: the owner's own replica carries the
management keys (MSK, per-selector MEKs, per-selector table DEKs), so the
record is reconstructed from it on demand (:meth:`from_owner_view`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..crypto import esign
from ..crypto.keys import (OBJECT_SIGNATURE_PRIME_BITS, new_signature_pair,
                           new_symmetric_key)
from ..crypto.provider import CryptoProvider
from ..errors import KeyAccessError
from ..fs.metadata import MetadataAttrs, MetadataView
from ..fs.permissions import DIRECTORY, FILE
from ..fs.sealed import bind_context, open_verified, seal_and_sign
from ..serialize import Reader, Writer
from .model import Cap


@dataclass
class ObjectRecord:
    """Full (owner-grade) record of one file or directory."""

    attrs: MetadataAttrs
    #: file data key (None for directories, which use per-selector DEKs)
    dek: bytes | None
    dsk: esign.SigningKey
    dvk: esign.VerificationKey
    msk: esign.SigningKey
    mvk: esign.VerificationKey
    #: per-selector metadata encryption keys
    selector_meks: dict[str, bytes] = field(default_factory=dict)
    #: per-selector directory-table encryption keys (directories only)
    table_deks: dict[str, bytes] = field(default_factory=dict)
    needs_rekey: bool = False

    # -- construction -------------------------------------------------------

    @classmethod
    def create(cls, attrs: MetadataAttrs, selectors: list[str],
               prime_bits: int = OBJECT_SIGNATURE_PRIME_BITS
               ) -> "ObjectRecord":
        """Mint all keys for a new object covering ``selectors``."""
        data_pair = new_signature_pair(prime_bits)
        meta_pair = new_signature_pair(prime_bits)
        record = cls(
            attrs=attrs,
            # Directories use per-selector table DEKs; files and
            # symlinks share one content DEK.
            dek=(None if attrs.ftype == DIRECTORY
                 else new_symmetric_key()),
            dsk=data_pair.signing,
            dvk=data_pair.verification,
            msk=meta_pair.signing,
            mvk=meta_pair.verification,
        )
        record.ensure_selector_keys(selectors)
        return record

    def ensure_selector_keys(self, selectors: list[str]) -> None:
        """Mint MEK (and table DEK for dirs) for any new selectors."""
        for selector in selectors:
            self.selector_meks.setdefault(selector, new_symmetric_key())
            if self.attrs.ftype == DIRECTORY:
                self.table_deks.setdefault(selector, new_symmetric_key())

    def drop_selectors(self, keep: list[str]) -> list[str]:
        """Remove keys for selectors not in ``keep``; returns the dropped."""
        dropped = [s for s in self.selector_meks if s not in keep]
        for selector in dropped:
            del self.selector_meks[selector]
            self.table_deks.pop(selector, None)
        return dropped

    def rekey_data(self) -> None:
        """Rotate data keys (revocation): new DEK(s) and DSK/DVK pair."""
        pair = new_signature_pair(self.dsk.prime_bits)
        self.dsk = pair.signing
        self.dvk = pair.verification
        if self.attrs.ftype != DIRECTORY:
            self.dek = new_symmetric_key()
        else:
            for selector in list(self.table_deks):
                self.table_deks[selector] = new_symmetric_key()
        self.needs_rekey = False

    def rekey_metadata(self, selectors: list[str] | None = None) -> None:
        """Rotate MEKs (and MSK/MVK).  Parent pointers must be updated."""
        pair = new_signature_pair(self.msk.prime_bits)
        self.msk = pair.signing
        self.mvk = pair.verification
        victims = selectors if selectors is not None else list(
            self.selector_meks)
        for selector in victims:
            self.selector_meks[selector] = new_symmetric_key()

    # -- views ------------------------------------------------------------------

    def view_for(self, selector: str, cap: Cap,
                 is_owner: bool) -> MetadataView:
        """The metadata replica contents for one selector.

        Non-owner replicas carry exactly the keys the CAP grants; the
        owner replica also carries the management keys.  Directory
        writers (CAPs with DSK) receive the full table-DEK map because
        adding or removing a child requires rewriting *every* view of the
        parent table.
        """
        is_dir = self.attrs.ftype == DIRECTORY
        grants_dek = cap.dek or is_owner
        grants_dvk = cap.dvk or is_owner
        grants_dsk = cap.dsk or is_owner
        if is_dir:
            dek = self.table_deks.get(selector) if grants_dek else None
        else:
            dek = self.dek if grants_dek else None
        return MetadataView(
            attrs=self.attrs.copy(),
            cap_id=cap.cap_id,
            selector=selector,
            dek=dek,
            dvk=self.dvk if grants_dvk else None,
            dsk=self.dsk if grants_dsk else None,
            msk=self.msk if is_owner else None,
            selector_meks=dict(self.selector_meks) if is_owner else {},
            table_deks=(dict(self.table_deks)
                        if is_dir and (grants_dsk or is_owner) else {}),
            needs_rekey=self.needs_rekey if is_owner else False,
        )

    @classmethod
    def from_owner_view(cls, view: MetadataView,
                        mvk: esign.VerificationKey) -> "ObjectRecord":
        """Rebuild the record from the owner's replica plus its MVK.

        The MVK arrives with the pointer that led to the replica (parent
        row or superblock), since replicas are verified *with* it rather
        than carrying it.
        """
        if not view.is_owner_view:
            raise KeyAccessError(
                "only the owner's replica can reconstruct the full record")
        is_dir = view.attrs.ftype == DIRECTORY
        return cls(
            attrs=view.attrs.copy(),
            dek=None if is_dir else view.require_dek(),
            dsk=view.require_dsk(),
            dvk=view.require_dvk(),
            msk=view.require_msk(),
            mvk=mvk,
            selector_meks=dict(view.selector_meks),
            table_deks=dict(view.table_deks),
            needs_rekey=view.needs_rekey,
        )

    # -- blob building ------------------------------------------------------------

    def metadata_blob(self, provider: CryptoProvider, selector: str,
                      cap: Cap, is_owner: bool) -> bytes:
        """Seal + sign one metadata replica for storage at the SSP."""
        view = self.view_for(selector, cap, is_owner)
        context = bind_context("meta", self.attrs.inode, selector)
        return seal_and_sign(provider, self.selector_meks[selector],
                             self.msk, context, view.to_bytes())


def open_metadata_blob(provider: CryptoProvider, inode: int, selector: str,
                       mek: bytes, mvk: esign.VerificationKey,
                       blob: bytes) -> MetadataView:
    """Verify + decrypt a metadata replica fetched from the SSP."""
    context = bind_context("meta", inode, selector)
    payload = open_verified(provider, mek, mvk, context, blob)
    return MetadataView.from_bytes(payload)


# -- split-point lockboxes ------------------------------------------------------

def lockbox_payload(selector: str, mek: bytes, mvk: bytes) -> bytes:
    """Contents of a Scheme-2 split-point lockbox (paper section III-D)."""
    writer = Writer()
    writer.put_str(selector)
    writer.put_bytes(mek)
    writer.put_bytes(mvk)
    return writer.getvalue()


def parse_lockbox_payload(raw: bytes) -> tuple[str, bytes, bytes]:
    reader = Reader(raw)
    selector = reader.get_str()
    mek = reader.get_bytes()
    mvk = reader.get_bytes()
    reader.expect_end()
    return selector, mek, mvk
