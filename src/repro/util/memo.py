"""A bounded, thread-safe memo that evicts the least recently used entry.

Solvers and the batched service memoise work keyed by a system count:
lowered programs, per-request plans, dist plans and their priced
reports. A long-lived service sees an open-ended stream of merged
counts, so each such memo is an :class:`LruMemo` that keeps at most
``capacity`` entries. Every memoised value is a pure function of its
key, so an evicted key only costs recomputing an equal value.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Generic, Hashable, List, TypeVar

__all__ = ["LruMemo", "MEMO_CAPACITY"]

V = TypeVar("V")

# Entries per memo: four times what serving traffic reaches. An
# AsyncSolveService with two workers that served 1,000 waves of 64
# mixed_requests held 229 lowered programs in each solver's memo and
# 112 plans, and had stopped growing.
MEMO_CAPACITY = 1024


class LruMemo(Generic[V]):
    """At most ``capacity`` values, the least recently used evicted first.

    With a ``metrics`` registry, every lookup counts in
    ``repro_memo_lookups_total{memo=<name>, result=hit|miss}``; the
    ``hits`` and ``misses`` attributes count them either way.
    """

    def __init__(self, name: str, *, capacity: int = MEMO_CAPACITY, metrics=None):
        self.name = name
        self.capacity = capacity
        self.hits = self.misses = 0
        self._entries: "OrderedDict[Hashable, V]" = OrderedDict()
        self._lock = threading.Lock()
        self._lookups = None
        if metrics is not None:
            self._lookups = metrics.counter(
                "repro_memo_lookups_total", "Memo lookups, by memo and result."
            )

    def __len__(self) -> int:
        return len(self._entries)

    def values(self) -> List[V]:
        """The memoised values, least recently used first."""
        with self._lock:
            return list(self._entries.values())

    def get_or_make(self, key: Hashable, make: Callable[[], V]) -> V:
        """The value memoised for ``key``, else ``make()``'s, memoised.

        ``make`` runs outside the lock; of two threads that miss the
        same key at once, the first to finish stores the value both get.
        """
        with self._lock:
            value = self._entries.get(key)
            if value is not None:
                self._entries.move_to_end(key)
                self.hits += 1
            else:
                self.misses += 1
        if self._lookups is not None:
            self._lookups.inc(memo=self.name, result="miss" if value is None else "hit")
        if value is not None:
            return value
        value = make()
        with self._lock:
            value = self._entries.setdefault(key, value)
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
        return value
