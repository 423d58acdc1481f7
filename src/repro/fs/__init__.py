"""The SHAROES filesystem: metadata structures, CAP navigation, client."""

from .cache import CacheStats, LruCache
from .consistency import ConsistencyLog, ForkDetected, VersionStatement
from .freshness import FreshnessMonitor, StaleObjectError
from .client import ClientConfig, OpenFile, SharoesFilesystem
from .dirtable import DIRECT, SPLIT, ZERO, DirEntry, DirPointer, TableView
from .inode import InodeAllocator
from .metadata import MetadataAttrs, MetadataView, Stat
from .permissions import (DIRECTORY, EXEC, FILE, GROUP, OTHER, OWNER, READ,
                          WRITE, AclEntry, ObjectPerms, ReferenceEvaluator,
                          format_mode, triple)
from .resolve import ResolvedNode
from .superblock import Superblock
from .volume import (DEFAULT_BLOCK_SIZE, SharoesVolume, block_blob_id,
                     table_blob_id)

__all__ = [
    "SharoesFilesystem",
    "ClientConfig",
    "OpenFile",
    "ResolvedNode",
    "SharoesVolume",
    "DEFAULT_BLOCK_SIZE",
    "block_blob_id",
    "table_blob_id",
    "MetadataAttrs",
    "MetadataView",
    "Stat",
    "TableView",
    "DirEntry",
    "DirPointer",
    "DIRECT",
    "SPLIT",
    "ZERO",
    "Superblock",
    "InodeAllocator",
    "LruCache",
    "CacheStats",
    "FreshnessMonitor",
    "StaleObjectError",
    "ConsistencyLog",
    "ForkDetected",
    "VersionStatement",
    "AclEntry",
    "ObjectPerms",
    "ReferenceEvaluator",
    "format_mode",
    "triple",
    "READ",
    "WRITE",
    "EXEC",
    "OWNER",
    "GROUP",
    "OTHER",
    "FILE",
    "DIRECTORY",
]
