"""The four benchmark workloads, by their normative names."""

from .bulk_rw import BulkRw
from .duo_wire import DuoWire
from .pm_churn import PmChurn
from .tree_read import TreeRead

WORKLOADS = {cls.name: cls for cls in (PmChurn, TreeRead, BulkRw, DuoWire)}
