"""Fork-consistency log: the paper's SUNDR integration (section VI).

"Their [SUNDR's] work is a complimentary contribution and we are
currently integrating their consistency mechanisms with the SHAROES
prototype."  This module provides that integration in simplified,
SUNDR-inspired form.

The local :class:`~repro.fs.freshness.FreshnessMonitor` catches rollbacks
against a client's *own* history.  What it cannot catch is a **fork**: the
SSP showing client A one consistent history and client B another.  SUNDR's
answer is signed *version statements*: every client periodically signs
what it has observed and publishes the statement; clients verify each
other's statements, so the SSP can only keep a fork alive by partitioning
the statement log forever -- and any cross-read exposes it.

Protocol implemented here:

* every client keeps a hash-chained sequence of
  :class:`VersionStatement`s, each signed with its user's ESIGN
  signature key (USK) and checked against the UVK in the PKI
  directory.  A statement carries:

  - the publisher's ``sequence`` and the digest of its previous statement
    (its own chain must be linear);
  - ``observations``: {inode: version} high-water marks the publisher
    *knows* (verified itself, or learned from a verified peer statement);
  - ``seen``: the latest sequence number the publisher has verified from
    each peer -- the causal vector that makes cross-client checks sound.

* on :meth:`sync`, a client fetches peers' latest statements and enforces:

  1. signature validity and slot/author agreement;
  2. per-peer linearity: sequences never regress, and a re-served
     sequence must be byte-identical (no equivocation);
  3. **causal consistency**: if a peer's statement declares it has seen
     my statement ``s``, then every version I asserted in or before
     ``s`` must appear in the peer's observations at least as new.  A
     peer that merely *lags* (has not seen ``s``) is legal; a peer that
     acknowledges my history while contradicting it proves the SSP
     forked us.

Any violation raises :class:`ForkDetected`.

Statements travel through the ``exchange`` a client hands the log (its
counted, charged :meth:`~repro.fs.blobio.BlobIO.ship`) and are signed
and verified through its :class:`~repro.crypto.provider.CryptoProvider`,
so both show in the client's ledger.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..crypto import esign, hashes
from ..crypto.provider import CryptoProvider
from ..errors import IntegrityError
from ..serialize import Reader, Writer
from ..storage.blobs import BlobId, principal_hash
from ..storage.server import BatchOp

VSL_KIND = "vsl"


class ForkDetected(IntegrityError):
    """The SSP has shown divergent histories to different clients."""


def statement_blob(user_id: str) -> BlobId:
    """Well-known location of a user's latest version statement."""
    return BlobId(kind=VSL_KIND, inode=0, selector=principal_hash(user_id))


@dataclass(frozen=True)
class VersionStatement:
    """One signed observation of filesystem state."""

    user_id: str
    sequence: int
    previous_digest: bytes
    #: {inode: version} high-water marks, sorted
    observations: tuple[tuple[int, int], ...]
    #: (peer user id, latest sequence verified from them), sorted
    seen: tuple[tuple[str, int], ...]
    #: highest journal intent sequence this client has *committed*
    #: (applied + truncated).  Binds the journal to the VSL: an SSP
    #: re-serving a stale committed journal at mount presents intents
    #: at or below this watermark, which recovery rejects as a
    #: rollback instead of silently re-replaying.
    journal_seq: int = 0
    signature: bytes = b""

    # -- encoding ------------------------------------------------------------

    def signed_payload(self) -> bytes:
        writer = Writer()
        writer.put_str(self.user_id)
        writer.put_int(self.sequence)
        writer.put_bytes(self.previous_digest)
        writer.put_int(len(self.observations))
        for inode, version in self.observations:
            writer.put_int(inode)
            writer.put_int(version)
        writer.put_int(len(self.seen))
        for peer, sequence in self.seen:
            writer.put_str(peer)
            writer.put_int(sequence)
        writer.put_int(self.journal_seq)
        return writer.getvalue()

    def to_bytes(self) -> bytes:
        writer = Writer()
        writer.put_bytes(self.signed_payload())
        writer.put_bytes(self.signature)
        return writer.getvalue()

    @classmethod
    def from_bytes(cls, raw: bytes) -> "VersionStatement":
        outer = Reader(raw)
        payload = outer.get_bytes()
        signature = outer.get_bytes()
        outer.expect_end()
        reader = Reader(payload)
        user_id = reader.get_str()
        sequence = reader.get_int()
        previous_digest = reader.get_bytes()
        observations = tuple(
            (reader.get_int(), reader.get_int())
            for _ in range(reader.get_int()))
        seen = tuple((reader.get_str(), reader.get_int())
                     for _ in range(reader.get_int()))
        journal_seq = reader.get_int()
        reader.expect_end()
        return cls(user_id=user_id, sequence=sequence,
                   previous_digest=previous_digest,
                   observations=observations, seen=seen,
                   journal_seq=journal_seq, signature=signature)

    def digest(self) -> bytes:
        return hashes.digest(self.signed_payload())

    def observed(self, inode: int) -> int | None:
        for candidate, version in self.observations:
            if candidate == inode:
                return version
        return None

    def seen_sequence(self, user_id: str) -> int:
        for peer, sequence in self.seen:
            if peer == user_id:
                return sequence
        return 0


class ConsistencyLog:
    """Client-side fork-consistency state for one user."""

    def __init__(self, user_id: str, signing_key: esign.SigningKey,
                 directory, exchange,
                 provider: CryptoProvider | None = None):
        """``signing_key`` is the user's USK; ``directory`` maps user ids
        to their UVKs (the registry's
        :class:`~repro.principals.registry.PublicKeyDirectory`);
        ``exchange(label, ops) -> replies`` ships one frame of sub-ops
        (standalone: ``lambda label, ops: server.batch(ops)``)."""
        self.user_id = user_id
        self._signing = signing_key
        self._directory = directory
        self._exchange = exchange
        self._provider = provider or CryptoProvider()
        self._sequence = 0
        self._previous_digest = b"\x00" * 32
        #: committed journal watermark published with every statement.
        self.journal_seq = 0
        #: inode -> highest version known (verified or learned)
        self.known_high: dict[int, int] = {}
        #: inode -> (my sequence when I first asserted it, version)
        self._asserted: dict[int, tuple[int, int]] = {}
        #: peer -> (sequence, digest) last accepted
        self._peer_state: dict[str, tuple[int, bytes]] = {}

    # -- recording local observations -----------------------------------------

    def observe(self, inode: int, version: int) -> None:
        """Record a version this client verified itself (e.g. wired to
        the freshness monitor's accepted fetches)."""
        if version > self.known_high.get(inode, 0):
            self.known_high[inode] = version

    def observe_journal(self, seq: int) -> None:
        """Record a committed (applied + truncated) intent sequence."""
        if seq > self.journal_seq:
            self.journal_seq = seq

    # -- publishing -----------------------------------------------------------

    def publish(self) -> VersionStatement:
        """Sign and upload this client's current observation statement."""
        observations = tuple(sorted(self.known_high.items()))
        seen = tuple(sorted((peer, state[0])
                            for peer, state in self._peer_state.items()))
        self._sequence += 1
        unsigned = VersionStatement(
            user_id=self.user_id, sequence=self._sequence,
            previous_digest=self._previous_digest,
            observations=observations, seen=seen,
            journal_seq=self.journal_seq)
        signature = self._provider.sign(self._signing,
                                        unsigned.signed_payload())
        statement = VersionStatement(
            user_id=unsigned.user_id, sequence=unsigned.sequence,
            previous_digest=unsigned.previous_digest,
            observations=unsigned.observations, seen=unsigned.seen,
            journal_seq=unsigned.journal_seq, signature=signature)
        reply, = self._exchange("vsl.publish", [BatchOp.put(
            statement_blob(self.user_id), statement.to_bytes())])
        reply.raise_for_status()
        self._previous_digest = statement.digest()
        for inode, version in observations:
            current = self._asserted.get(inode)
            if current is None or current[1] < version:
                self._asserted[inode] = (self._sequence, version)
        return statement

    # -- resuming an existing chain -------------------------------------------

    def resume_from(self) -> VersionStatement | None:
        """Adopt this user's last published statement from the SSP.

        Called at mount, *before* journal recovery: verifies the
        statement in our own slot (our signature -- the SSP cannot forge
        one) and resumes its chain position, so a remounted client keeps
        publishing linearly instead of restarting at sequence 1 (which
        peers would reject as equivocation).  Returns the statement, or
        ``None`` if we never published.  The statement's ``journal_seq``
        is the committed watermark recovery checks stale journals
        against.  (An SSP serving an *older own statement* on first
        contact is SUNDR's residual first-contact gap -- peers detect it
        at the next cross-sync.)
        """
        statement, = self._read("vsl.resume", [self.user_id])
        if statement is None:
            return None
        if statement.user_id != self.user_id:
            raise ForkDetected(
                f"statement in my slot claims author "
                f"{statement.user_id!r}")
        try:
            self._provider.verify(self._directory.signature_key(self.user_id),
                                  statement.signed_payload(),
                                  statement.signature)
        except IntegrityError as exc:
            raise ForkDetected(
                f"{self.user_id}: invalid signature on my own "
                f"statement ({exc})") from exc
        self._sequence = statement.sequence
        self._previous_digest = statement.digest()
        self.journal_seq = max(self.journal_seq, statement.journal_seq)
        for inode, version in statement.observations:
            if version > self.known_high.get(inode, 0):
                self.known_high[inode] = version
        return statement

    # -- verification ------------------------------------------------------------

    def sync(self, peer_ids: list[str]) -> list[VersionStatement]:
        """Fetch (in one frame), verify and fork-check every peer's
        latest statement.

        Accepted observations are merged into this client's known
        high-water marks (that is what makes the causal check bite on
        the *next* round of statements).
        """
        peers = [peer_id for peer_id in peer_ids if peer_id != self.user_id]
        accepted = []
        for peer_id, statement in zip(
                peers, self._read("vsl.sync", peers) if peers else ()):
            if statement is None:
                continue
            self._verify(peer_id, statement)
            for inode, version in statement.observations:
                if version > self.known_high.get(inode, 0):
                    self.known_high[inode] = version
            self._peer_state[peer_id] = (statement.sequence,
                                         statement.digest())
            accepted.append(statement)
        return accepted

    def _read(self, label: str,
              user_ids: list[str]) -> list[VersionStatement | None]:
        """The statements in ``user_ids``' slots, fetched in one frame
        (None for an empty slot)."""
        replies = self._exchange(label, [BatchOp.get(statement_blob(user_id))
                                         for user_id in user_ids])
        for reply in replies:
            if reply.status != "missing":
                reply.raise_for_status()
        return [VersionStatement.from_bytes(reply.payload or b"")
                if reply.ok else None for reply in replies]

    def _verify(self, peer_id: str, statement: VersionStatement) -> None:
        if statement.user_id != peer_id:
            raise ForkDetected(
                f"statement in {peer_id!r}'s slot claims author "
                f"{statement.user_id!r}")
        try:
            self._provider.verify(self._directory.signature_key(peer_id),
                                  statement.signed_payload(),
                                  statement.signature)
        except IntegrityError as exc:
            raise ForkDetected(
                f"{peer_id}: invalid statement signature ({exc})"
            ) from exc

        previous = self._peer_state.get(peer_id)
        if previous is not None:
            prev_seq, prev_digest = previous
            if statement.sequence < prev_seq:
                raise ForkDetected(
                    f"{peer_id}: statement sequence regressed "
                    f"({statement.sequence} < {prev_seq}) -- the SSP is "
                    f"serving a forked history")
            if (statement.sequence == prev_seq
                    and statement.digest() != prev_digest):
                raise ForkDetected(
                    f"{peer_id}: two statements share sequence "
                    f"{statement.sequence} (equivocation)")

        # Causal cross-check: the peer acknowledges my chain up to
        # seen_sequence(me); everything I asserted by then must be
        # reflected at least as new in the peer's observations.
        acked = statement.seen_sequence(self.user_id)
        if acked:
            for inode, (asserted_seq, version) in self._asserted.items():
                if asserted_seq > acked:
                    continue  # the peer legitimately has not seen it
                peer_version = statement.observed(inode)
                if peer_version is None or peer_version < version:
                    raise ForkDetected(
                        f"inode {inode}: {peer_id} acknowledged my "
                        f"statement {acked} (which asserted version "
                        f"{version}) yet reports "
                        f"{peer_version} -- divergent histories")
