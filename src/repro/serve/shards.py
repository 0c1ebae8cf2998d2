"""Lock-striped tuning cache, an opt-in ``cache=`` for any front end.

:class:`ShardedTuningCache` splits the key space over ``num_shards``
independent :class:`TuningCache` shards — each with its own lock,
store, and hit/miss counters — by hashing the exact same stable key
string :meth:`TuningCache.key` produces, so two lookups contend only
when they hash to the same shard. A best-effort probe counts how often
a lookup found its shard's lock already held.

No front end builds one by default. A service memoises its switch
points per (device, dtype), so it reads its cache about once per
(device, dtype) for its whole life and one lock never contends: the
chaos campaigns' serve phase reads 2 misses, 0 hits and 0 contended
lookups. The class stays because ``perfbench``'s tracer patches its
``get_or_tune``.

The wrapper keeps the full ``TuningCache`` surface (``get``/``put``/
``get_or_tune``/``counters``/``attach_metrics``/``clear``), so it drops
into any front end as ``cache=`` unchanged, and ``attach_metrics``
replay semantics are preserved shard by shard (each shard replays its
own pre-attachment counters, labelled with its shard index).
"""

from __future__ import annotations

import os
import zlib
from typing import Callable, Dict, Optional, Union

from ..core.config import SwitchPoints
from ..core.tuning.cache import TuningCache, WorkloadClass
from ..util.errors import ConfigurationError

__all__ = ["ShardedTuningCache"]


class ShardedTuningCache:
    """``TuningCache`` striped over independent, independently-locked shards.

    Parameters
    ----------
    num_shards:
        Stripe count. Contention drops roughly linearly in it.
    path:
        Optional base path for persistence; shard ``i`` persists to
        ``<path>.shard<i>``. Memory-only when omitted.
    """

    def __init__(
        self,
        num_shards: int = 8,
        path: Union[str, os.PathLike, None] = None,
    ):
        if num_shards < 1:
            raise ConfigurationError(
                f"num_shards must be >= 1, got {num_shards}"
            )
        self.num_shards = num_shards
        self.path = os.fspath(path) if path is not None else None
        self._shards = tuple(
            TuningCache(
                None if self.path is None else f"{self.path}.shard{i}"
            )
            for i in range(num_shards)
        )
        self._contended = [0] * num_shards
        self._contention_metric = None

    # -- sharding ------------------------------------------------------------

    @staticmethod
    def shard_index(key_text: str, num_shards: int) -> int:
        """Stable shard of a :meth:`TuningCache.key` string.

        CRC32 rather than ``hash()`` so the mapping survives process
        restarts and ``PYTHONHASHSEED`` — shard-labelled metrics stay
        comparable across runs.
        """
        return zlib.crc32(key_text.encode("utf-8")) % num_shards

    def shard_for(
        self,
        device_name: str,
        dtype_size: int,
        workload_class: WorkloadClass = "generic",
    ) -> TuningCache:
        """The shard owning one (device, dtype, workload-class) key."""
        idx = self.shard_index(
            TuningCache.key(device_name, dtype_size, workload_class),
            self.num_shards,
        )
        self._probe_contention(idx)
        return self._shards[idx]

    def _probe_contention(self, idx: int) -> None:
        # Best-effort: a failed non-blocking acquire means some other
        # thread is inside this shard right now. Racy by construction
        # (that's the point — it samples live contention), never wrong
        # by more than a count, and free when uncontended.
        lock = self._shards[idx]._lock
        if lock.acquire(blocking=False):
            lock.release()
        else:
            self._contended[idx] += 1
            if self._contention_metric is not None:
                self._contention_metric.inc(shard=str(idx))

    # -- the TuningCache surface --------------------------------------------

    def get(
        self,
        device_name: str,
        dtype_size: int,
        workload_class: WorkloadClass = "generic",
    ) -> Optional[SwitchPoints]:
        return self.shard_for(device_name, dtype_size, workload_class).get(
            device_name, dtype_size, workload_class
        )

    def put(
        self,
        device_name: str,
        dtype_size: int,
        switch: SwitchPoints,
        workload_class: WorkloadClass = "generic",
    ) -> None:
        self.shard_for(device_name, dtype_size, workload_class).put(
            device_name, dtype_size, switch, workload_class
        )

    def get_or_tune(
        self,
        device_name: str,
        dtype_size: int,
        tune: Callable[[], SwitchPoints],
        workload_class: WorkloadClass = "generic",
    ) -> SwitchPoints:
        return self.shard_for(
            device_name, dtype_size, workload_class
        ).get_or_tune(device_name, dtype_size, tune, workload_class)

    def attach_metrics(self, registry) -> None:
        """Attach every shard (labelled ``shard="<i>"``, replay
        preserved per shard) plus the contention counter
        ``repro_serve_cache_shard_contention_total{shard}``."""
        for i, shard in enumerate(self._shards):
            shard.attach_metrics(registry, shard=str(i))
        self._contention_metric = registry.counter(
            "repro_serve_cache_shard_contention_total",
            "Lookups that found their shard's lock already held.",
        )
        for i, count in enumerate(self._contended):
            if count:
                self._contention_metric.inc(count, shard=str(i))

    def counters(self) -> Dict[str, int]:
        """Aggregate hits/misses/entries across shards (the
        ``TuningCache.counters`` shape, plus contention)."""
        total = {"hits": 0, "misses": 0, "entries": 0}
        for shard in self._shards:
            for k, v in shard.counters().items():
                total[k] += v
        total["contended"] = sum(self._contended)
        return total

    def shard_counters(self) -> "list[Dict[str, int]]":
        """Per-shard hit/miss/entry/contention counters, by index."""
        out = []
        for i, shard in enumerate(self._shards):
            c = shard.counters()
            c["contended"] = self._contended[i]
            out.append(c)
        return out

    def reset_counters(self) -> None:
        for shard in self._shards:
            shard.reset_counters()
        self._contended = [0] * self.num_shards

    def clear(self) -> None:
        for shard in self._shards:
            shard.clear()

    def __len__(self) -> int:
        return sum(len(shard) for shard in self._shards)
