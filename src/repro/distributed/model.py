"""Multi-node time model for the sharded execution engine.

The single-node :class:`~repro.parallel.runtime.MachineModel` already
carries the communication term (``comm_latency * messages +
comm_byte_time * bytes``); this module composes it across shards under
the BSP-style super-round structure the distributed peel driver
(:mod:`repro.distributed.peel`) executes:

* setup (orient / enumerate / build table / count / partition / bucket)
  runs once on the coordinator and is priced by the base model;
* each peeling super-round runs local peel work on every shard in
  parallel, so its compute cost is the *maximum* over shards of that
  shard's (work / effective(P) + span_factor * span) delta;
* a super-round runs one batched exchange only when an idle shard has
  mail waiting (the deferral rule of :mod:`repro.distributed.peel`,
  whose inputs ride the round barrier); its cost is the base model's
  communication term over the round's messages and bytes, and a round
  that holds its mail back pays no comm.

See docs/sharding.md for the closed form and worked examples.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..parallel.runtime import MachineModel

#: Simulated wire size of one exchange entry: a 64-bit cell id plus a
#: 32-bit packed decrement count.
ENTRY_BYTES = 12


@dataclass
class DistributedMachineModel:
    """Prices a :class:`~repro.distributed.peel.ShardedResult`.

    Parameters are inherited from the wrapped single-node ``base`` model;
    ``threads`` passed to :meth:`time` are *per shard* (each shard is one
    full node of the base machine).
    """

    base: MachineModel = field(default_factory=MachineModel)

    def comm_time(self, messages: int, n_bytes: int) -> float:
        """Simulated time of the exchanged messages (latency + bandwidth)."""
        return self.base.comm_cost(messages, n_bytes)

    def round_times(self, result, threads: int) -> list[dict]:
        """Per-super-round cost rows: compute max over shards, plus comm."""
        p = self.base.effective_parallelism(threads)
        rows = []
        for record, per_shard in zip(result.exchange_log,
                                     result.round_compute):
            compute = max(
                (work / p + self.base.span_factor * span
                 for work, span in per_shard), default=0.0)
            comm = self.comm_time(record["messages"], record["bytes"])
            rows.append({"round": record["round"], "level": record["level"],
                         "compute": compute, "comm": comm,
                         "time": compute + comm})
        return rows

    def time_breakdown(self, result, threads: int) -> dict:
        """Coordinator / compute / comm decomposition of the total time."""
        coordinator = self.base.time(result.tracker, threads)
        rounds = self.round_times(result, threads)
        compute = sum(row["compute"] for row in rounds)
        comm = sum(row["comm"] for row in rounds)
        return {"threads": threads, "n_shards": result.n_shards,
                "coordinator": coordinator, "compute": compute,
                "comm": comm, "time": coordinator + compute + comm}

    def time(self, result, threads: int) -> float:
        """Total simulated distributed time (see :meth:`time_breakdown`)."""
        return self.time_breakdown(result, threads)["time"]

    def speedup_vs_single(self, result, single_tracker, threads: int) -> float:
        """Single-node simulated time divided by the distributed time."""
        return self.base.time(single_tracker, threads) / self.time(
            result, threads)
