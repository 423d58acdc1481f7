"""Storage Service Provider substrate: the untrusted remote hashtable."""

from .accounting import (S3_2008_DOLLARS_PER_GB_MONTH, ServerStats,
                         monthly_storage_dollars)
from .blobs import (DATA, GROUP_KEY, LOCKBOX, META, SHARED, SUPERBLOCK,
                    BlobId, data_blob, group_key_blob, lockbox_blob,
                    meta_blob, principal_hash, superblock_blob)
from .faults import RollbackServer, TamperingServer
from .resilient import (FlakyServer, OutageServer, ResilientTransport,
                        RetryPolicy, ServerWrapper, SlowServer)
from .server import StorageServer
from .wire import RemoteStorageClient, SspServer

__all__ = [
    "BlobId",
    "StorageServer",
    "SspServer",
    "RemoteStorageClient",
    "TamperingServer",
    "RollbackServer",
    "FlakyServer",
    "ServerWrapper",
    "SlowServer",
    "OutageServer",
    "ResilientTransport",
    "RetryPolicy",
    "ServerStats",
    "monthly_storage_dollars",
    "S3_2008_DOLLARS_PER_GB_MONTH",
    "META",
    "DATA",
    "SUPERBLOCK",
    "GROUP_KEY",
    "LOCKBOX",
    "SHARED",
    "meta_blob",
    "data_blob",
    "superblock_blob",
    "group_key_blob",
    "lockbox_blob",
    "principal_hash",
]
