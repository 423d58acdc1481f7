"""SHAROES reproduction: data sharing over outsourced enterprise storage.

A from-scratch Python implementation of *"SHAROES: A Data Sharing Platform
for Outsourced Enterprise Storage Environments"* (Singh & Liu, ICDE 2008):
the full cryptographic substrate (AES, RSA, ESIGN, KDFs), the untrusted-SSP
storage model, the CAP-based *nix access control design, the two metadata
replication schemes, the migration tool, the four baseline comparators and
the complete benchmark harness for every figure in the paper's evaluation.

Quickstart::

    from repro import (PrincipalRegistry, StorageServer, SharoesVolume,
                       SharoesFilesystem)

    registry = PrincipalRegistry()
    alice = registry.create_user("alice")
    server = StorageServer()
    volume = SharoesVolume(server, registry)
    volume.format(root_owner="alice", root_group="eng")

    fs = SharoesFilesystem(volume, alice)
    fs.mount()
    fs.mkdir("/projects")
    fs.create_file("/projects/plan.txt", b"ship it", mode=0o640)
    print(fs.read_file("/projects/plan.txt"))
"""

from .errors import (BlobNotFound, CircuitOpenError, CryptoError,
                     DirectoryNotEmpty, FileExists, FileNotFound,
                     FilesystemError, IntegrityError, IsADirectory,
                     KeyAccessError, MigrationError, NotADirectory,
                     PermissionDenied, SharoesError, StorageError,
                     TransientStorageError, UnsupportedPermission)
from .fs import (AclEntry, ClientConfig, SharoesFilesystem, SharoesVolume,
                 Stat, format_mode)
from .principals import (Group, GroupKeyService, PrincipalRegistry, User,
                         UserAgent)
from .sim import (FREE, PAPER_2008, CostModel, CostProfile, NetworkLink,
                  SimClock)
from .storage import (FlakyServer, OutageServer, ResilientTransport,
                      RetryPolicy, RollbackServer, SlowServer,
                      StorageServer, TamperingServer)

__version__ = "1.0.0"

__all__ = [
    "SharoesFilesystem",
    "SharoesVolume",
    "ClientConfig",
    "Stat",
    "AclEntry",
    "format_mode",
    "PrincipalRegistry",
    "User",
    "Group",
    "UserAgent",
    "GroupKeyService",
    "StorageServer",
    "TamperingServer",
    "RollbackServer",
    "FlakyServer",
    "SlowServer",
    "OutageServer",
    "ResilientTransport",
    "RetryPolicy",
    "CostModel",
    "CostProfile",
    "SimClock",
    "NetworkLink",
    "PAPER_2008",
    "FREE",
    "SharoesError",
    "CryptoError",
    "IntegrityError",
    "KeyAccessError",
    "FilesystemError",
    "PermissionDenied",
    "FileNotFound",
    "FileExists",
    "NotADirectory",
    "IsADirectory",
    "DirectoryNotEmpty",
    "UnsupportedPermission",
    "StorageError",
    "TransientStorageError",
    "CircuitOpenError",
    "BlobNotFound",
    "MigrationError",
    "__version__",
]
