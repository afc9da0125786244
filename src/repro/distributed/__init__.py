"""Sharded multi-node execution model (docs/sharding.md).

Partition the vertex set (:mod:`repro.distributed.partition`), peel in
BSP super-rounds with batched cross-shard count-decrement exchanges,
each run only when an idle shard has mail waiting
(:mod:`repro.distributed.peel`), and price the run with the composed
multi-node time model (:mod:`repro.distributed.model`).  The core
numbers are identical to the single-node decomposition's.
"""

from .model import ENTRY_BYTES, DistributedMachineModel
from .partition import PARTITIONERS, Partition, hash_partition, \
    mincut_partition
from .peel import ShardedResult, sharded_nucleus_decomp

__all__ = [
    "ENTRY_BYTES",
    "DistributedMachineModel",
    "PARTITIONERS",
    "Partition",
    "hash_partition",
    "mincut_partition",
    "ShardedResult",
    "sharded_nucleus_decomp",
]
