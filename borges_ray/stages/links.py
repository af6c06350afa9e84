"""Link-candidate stage: explode outlinks, winner-dedup, gate through the
URL-seen filters and the robots policy.

Dedup shape (SURVEY.md §2.8 D1/D2): per-batch pre-dedup (combiner) →
``groupby(partition)`` winner (order-free deterministic: max priority, min
depth, min parent_url — reproduces the reference's insert-if-absent without
depending on arrival order) → in the same per-partition call, the
partition's filter ``check_and_add`` (T3/J2) so a URL enters the frontier
exactly once across the whole crawl.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import ray
import ray.data as rd

from ..canonical import partition_of
from ..state.seenfilter import SeenFilters, check_and_add

WINNER_SORT = ["priority", "depth", "parent_url"]
WINNER_ASC = [False, True, True]


def _explode(next_rnd: int, num_partitions: int, max_depth: int | None):
    """Per-batch explode of parsed rows into round ``next_rnd`` candidates,
    with the within-batch winner pre-dedup (combiner) before the shuffle."""

    def explode(df: pd.DataFrame) -> pd.DataFrame:
        sub = df[df["status"] == 200][["url", "priority", "depth", "links"]]
        out = sub.rename(columns={"url": "parent_url"}).explode("links", ignore_index=True)
        out = out.dropna(subset=["links"]).rename(columns={"links": "url"})
        out["depth"] = (out["depth"] + 1).astype("int32")
        out["priority"] = np.maximum(0, out["priority"] - 1).astype("int32")
        if max_depth is not None:
            out = out[out["depth"] <= max_depth]
        out["discovered_round"] = np.int32(next_rnd)
        out["host"] = out["url"].str.split("/", n=3).str[2].str.split(":").str[0]
        out["partition"] = [partition_of(u, num_partitions) for u in out["url"]]
        out = out.sort_values(WINNER_SORT, ascending=WINNER_ASC, kind="mergesort")
        out = out.drop_duplicates(subset=["url"], keep="first")
        return out[["url", "host", "depth", "priority", "discovered_round",
                    "parent_url", "partition"]]

    return explode


def _winner(df: pd.DataFrame) -> pd.DataFrame:
    df = df.sort_values(WINNER_SORT + ["url"], ascending=WINNER_ASC + [True], kind="mergesort")
    return df.drop_duplicates(subset=["url"], keep="first")


def _by_partition(parsed: rd.Dataset, next_rnd: int, num_partitions: int,
                  max_depth: int | None):
    # Shuffle by the engine-wide hash partition (hash(url) % P), NOT by url:
    # every url's candidates co-locate in one partition-group, and the winner
    # is a single vectorized drop_duplicates per partition — one Python call
    # per partition instead of one per url (the per-group-call trap at 10^8
    # urls/round).
    return parsed.map_batches(
        _explode(next_rnd, num_partitions, max_depth), batch_format="pandas"
    ).groupby("partition", num_partitions=min(num_partitions, 64))


def _robots_blocked(df: pd.DataFrame, robots: dict) -> list[bool]:
    """Per row: does the host's robots policy (host -> (disallows,
    allows)) block the url?"""
    from ..stages.robots import robots_allowed

    blocked = []
    for u, h in zip(df["url"], df["host"]):
        dis, alw = robots.get(h, ((), ()))
        path = u.split(h, 1)[1] if h in u else "/"
        blocked.append(not robots_allowed(path, dis, alw))
    return blocked


def link_candidates(parsed: rd.Dataset, rnd: int, num_partitions: int,
                    max_depth: int | None) -> rd.Dataset:
    """parsed rows (with ``links`` list column) → winner-deduped candidate
    frontier rows for round ``rnd + 1``, not yet gated (the input of
    :func:`gate_candidates`; the crawl itself calls :func:`gate_links`)."""
    return _by_partition(parsed, rnd + 1, num_partitions, max_depth).map_groups(
        _winner, batch_format="pandas")


def gate_partition(df: pd.DataFrame, seen: SeenFilters, robots: dict) -> pd.DataFrame:
    """One partition's candidates → its NEW winners with a ``blocked`` bool
    column (True → recorded as status-999, never fetched): winner → seen
    check-and-add against the partition's filter
    (:func:`borges_ray.state.seenfilter.check_and_add`, which writes its
    next filter) → robots flag."""
    df = _winner(df)
    new = check_and_add(seen, int(df["partition"].iat[0]), df["url"].tolist())
    out = df[new].copy()
    out["blocked"] = pd.Series(_robots_blocked(out, robots), index=out.index,
                               dtype=bool)
    return out


def gate_links(parsed: rd.Dataset, seen: SeenFilters, robots_ref: "ray.ObjectRef",
               rnd: int, num_partitions: int, max_depth: int | None) -> rd.Dataset:
    """parsed rows → the NEW round-``rnd`` candidates with a ``blocked``
    column.  Partition p's ONE ``map_groups`` call owns p's membership
    (:func:`gate_partition`)."""
    from ..ops.relational import cached_get

    return _by_partition(parsed, rnd, num_partitions, max_depth).map_groups(
        lambda df: gate_partition(df, seen, cached_get(robots_ref)),
        batch_format="pandas")


def gate_candidates(cands: rd.Dataset, seen_shards: list,
                    robots_ref: "ray.ObjectRef", rnd: int) -> rd.Dataset:
    """Seen-gate (check-and-add on ``UrlSeenShard`` actors) + robots gate
    over :func:`link_candidates` rows.  The crawl gates with
    :func:`gate_links`; this actor gate is kept for the benchmark's
    stage replay.

    Output: candidate rows that are NEW, with a ``blocked`` bool column.
    The shards key membership by (url, round), so the gate is idempotent
    under Ray task retries."""

    def gate(df: pd.DataFrame) -> pd.DataFrame:
        from ..state.urlseen import seen_check_and_add

        if df.empty:
            out = df.copy()
            out["blocked"] = pd.Series(dtype=bool)
            return out
        robots = ray.get(robots_ref)  # host -> (disallows, allows)
        new_mask = seen_check_and_add(seen_shards, df["url"].tolist(), rnd)
        out = df[new_mask].copy()
        out["blocked"] = _robots_blocked(out, robots)
        return out

    return cands.map_batches(gate, batch_format="pandas")
