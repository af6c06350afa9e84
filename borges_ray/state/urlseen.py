"""URL-seen shard actors: Bloom prefilter + exact confirm.

The crawl no longer uses this module: each host bucket's gate task owns
its membership (:mod:`borges_ray.state.seenfilter`).  It is kept for the
benchmark's stage replay (``perfbench/replay.py`` gates through
``stages.links.gate_candidates`` on these shards) and for
:func:`seen_invalidate`, the recrawl-invalidation API.

Each shard owns a fixed range of ``hash(url) % num_shards``; a batch of
candidate URLs is routed to its shard, which answers atomically.  Per-shard
state:

- a Bloom (or cuckoo) filter — the fast "definitely new" path,
- an exact Python dict of url → round first seen, for confirmation.

Rebuildable from the checkpointed seen-delta Parquet
(:func:`UrlSeenShard.load_keys` / :func:`seen_load`).
"""

from __future__ import annotations

import numpy as np
import ray

from ..canonical import stable_hash
from .bloom import BloomFilter


@ray.remote(num_cpus=0.25)
class UrlSeenShard:
    """One shard of the partitioned URL-seen filter.

    Membership is recorded as url → round-first-seen, which makes
    ``check_and_add`` IDEMPOTENT per round: if Ray retries a failed gate
    task, the retry re-asks about urls this shard first saw in the *same*
    round and gets new=True again (upstream winner-dedup guarantees a url
    reaches the shards from exactly one task per round, so no other task
    can double-claim it)."""

    def __init__(self, shard_id: int, capacity: int = 1_000_000,
                 filter_kind: str = "bloom"):
        self.shard_id = shard_id
        if filter_kind == "cuckoo":
            from .cuckoo import CuckooFilter

            self.bloom = CuckooFilter(capacity)
        elif filter_kind == "bloom":
            self.bloom = BloomFilter(capacity)
        else:
            raise ValueError(f"unknown filter_kind {filter_kind!r}")
        self.filter_kind = filter_kind
        self.exact: dict[str, int] = {}  # url -> round first seen

    def check_and_add(self, urls: list[str], rnd: int) -> np.ndarray:
        """Mark all ``urls`` seen in round ``rnd``; return mask of which are
        NEW (first seen in this round — stable under task retry).  Atomic
        within the actor — concurrent callers serialize."""
        maybe = self.bloom.maybe_contains_batch(urls)
        out = np.zeros(len(urls), dtype=bool)
        to_add: list[str] = []
        for i, u in enumerate(urls):
            if maybe[i]:
                first = self.exact.get(u)
                if first is not None:
                    out[i] = first == rnd  # retry of this round's task
                    continue
            elif u in self.exact:  # bloom false-negative cannot happen; safety
                out[i] = self.exact[u] == rnd
                continue
            self.exact[u] = rnd
            to_add.append(u)
            out[i] = True
        self.bloom.add_batch(to_add)
        return out

    def load_keys(self, urls: list[str]) -> int:
        """Resume path: re-register already-seen URLs without reporting them
        as new (round −1 never equals a live round)."""
        fresh = [u for u in urls if u not in self.exact]
        self.exact.update((u, -1) for u in fresh)
        self.bloom.add_batch(fresh)
        return len(self.exact)

    def invalidate(self, urls: list[str]) -> int:
        """Recrawl invalidation: forget membership so the next
        ``check_and_add`` re-admits the URL as new.  With the cuckoo filter
        the fingerprint is DELETED too (fast path stays tight across recrawl
        epochs); with Bloom the bitmap goes conservatively stale — correct,
        because membership truth is the exact set, but each stale URL pays
        the slow confirm path forever (the design reason cuckoo exists).
        Returns how many of ``urls`` were actually forgotten."""
        present = [u for u in urls if u in self.exact]
        for u in present:
            del self.exact[u]
        if self.filter_kind == "cuckoo" and present:
            self.bloom.delete_batch(present)
        return len(present)

    def size(self) -> int:
        return len(self.exact)


def create_seen_index(num_shards: int, capacity_per_shard: int = 1_000_000,
                      filter_kind: str = "bloom") -> list:
    """Spawn the shard actor pool (detached-per-run, owned by the driver)."""
    return [
        UrlSeenShard.remote(i, capacity_per_shard, filter_kind)
        for i in range(num_shards)
    ]


def seen_check_and_add(shards: list, urls: list[str], rnd: int) -> np.ndarray:
    """Route a URL batch to its shards; returns the new-mask aligned with
    ``urls``.  One round-trip per shard, issued concurrently."""
    if not urls:
        return np.zeros(0, dtype=bool)
    n = len(shards)
    shard_of = np.fromiter((stable_hash(u) % n for u in urls), dtype=np.int64, count=len(urls))
    mask = np.zeros(len(urls), dtype=bool)
    futures = {}
    for s in range(n):
        idx = np.nonzero(shard_of == s)[0]
        if len(idx):
            futures[s] = (idx, shards[s].check_and_add.remote([urls[i] for i in idx], rnd))
    for s, (idx, fut) in futures.items():
        mask[idx] = ray.get(fut)
    return mask


def seen_invalidate(shards: list, urls: list[str]) -> int:
    """Route a recrawl-invalidation batch to its shards; returns how many
    URLs were forgotten (idempotent: re-invalidating is a no-op)."""
    if not urls:
        return 0
    n = len(shards)
    per_shard: dict[int, list[str]] = {}
    for u in urls:
        per_shard.setdefault(stable_hash(u) % n, []).append(u)
    futs = [shards[s].invalidate.remote(us) for s, us in per_shard.items()]
    return int(sum(ray.get(futs)))


def seen_load(shards: list, urls: list[str]) -> int:
    """Resume path: route an already-seen URL batch to its shards
    (``load_keys`` — registers membership without claiming newness).
    Called from WORKER tasks during the distributed rebuild, so the driver
    never holds the seen set; safe to call concurrently from many tasks
    (load_keys is idempotent and the actor serializes callers)."""
    if not urls:
        return 0
    n = len(shards)
    per_shard: dict[int, list[str]] = {}
    for u in urls:
        per_shard.setdefault(stable_hash(u) % n, []).append(u)
    futs = [shards[s].load_keys.remote(us) for s, us in per_shard.items()]
    ray.get(futs)
    return len(urls)
