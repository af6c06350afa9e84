"""Politeness selection: per-host crawl-delay budgets, one host bucket at a
time.

The reference throttles per-domain with ``DOWNLOAD_DELAY = 1``
(``Borges/settings.py:31``) plus assorted per-site sleeps (SURVEY.md T4).
The reference's delay is CONTINUOUS wall-clock — Scrapy's per-slot
``next_request_time`` carries across any bookkeeping boundary.  The BSP
re-expression keeps that continuity: each round represents ``round_ms`` of
virtual time, and every host carries a virtual clock ``next_allowed_ms``
in the host-state checkpoint.  In round ``r`` a host may fetch at times
``t = max(next_allowed_ms, r·round_ms), t+delay, t+2·delay, …`` while
``t < (r+1)·round_ms`` — so a host with ``delay = 1.7×round_ms`` fetches
in rounds 0, 1, 3, 5, … (~0.59/round average), not once every round as a
per-round integer budget would allow.  After ``k`` fetches the clock
advances to ``start + k·delay``, carrying the fractional remainder into
the next round.

State key: the host bucket ``hb = stable_hash(host) % P``.  The crawl keeps
each bucket's frontier slice and host-state slice (one file,
``host_state/hb-<b>-state.parquet``) apart, so ONE task per bucket holds
every row and every clock of its hosts and applies the exact carry-over
rule with no combiner and no shuffle: :func:`select_bucket`, called by
the engine's per-bucket select step (``pipelines/crawl.py``).  It returns
the selection with ``host_seq`` assigned, the deferred rows (written
sorted by host, priority desc, discovered_round, url — each host's head
first, Mercator's per-host back queue) and the bucket's next host state.

Skew: a Zipf-head host's whole backlog sits in one bucket task.
Politeness bounds what that host is SELECTED per round, not what its
bucket holds; splitting a hot bucket is not done here.

:func:`select_frontier` and :func:`defer_frontier` are the Dataset-level
select (combiner → ``groupby(hb)``) and deferral the benchmark's stage
replay still runs; the crawl does not.  ``select_frontier``'s per-group
pass calls :func:`select_bucket`, so the carry-over rule exists once.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray
import ray.data as rd

from .. import schemas
from ..state.checkpoint import bucket_file, read_file

ORDER = [("priority", "descending"), ("discovered_round", "ascending"),
         ("url", "ascending")]

#: selected frontier rows: the FRONTIER columns plus the per-host fetch order
SELECTED = schemas.FRONTIER.append(pa.field("host_seq", pa.int64()))

#: one bucket's politeness state: per-host sequence counter and clock
HOST_STATE = pa.schema([("host", pa.string()), ("next_seq", pa.int64()),
                        ("next_allowed_ms", pa.int64())])


def host_active(host: str, rnd: int, night_shift: bool) -> bool:
    """Time-of-day gating (F9 — the reference's ECS spider only scrapes
    nights + weekends, ``Borges/spiders/ECS/paper_html.py:34-45``).  BSP
    re-expression: with ``night_shift`` on, every third host (stable hash)
    is only fetchable on even rounds.  Deterministic and shared with the
    oracle."""
    if not night_shift:
        return True
    from ..canonical import stable_hash

    return stable_hash("gate:" + host) % 3 != 0 or rnd % 2 == 0


def delays_from_robots(robots_df: pd.DataFrame, default_delay_ms: int) -> dict[str, int]:
    """host → crawl delay in virtual ms (``__default__`` for unlisted
    hosts).  Per-round budgets are DERIVED from these at selection time
    against each host's carried virtual clock — see :func:`select_bucket`."""
    out = {h: int(d) for h, d in
           zip(robots_df["host"], robots_df["crawl_delay_ms"])}
    out["__default__"] = int(default_delay_ms)
    return out


def read_host_state(root: str, bucket: int) -> pa.Table | None:
    """Bucket ``bucket``'s host-state slice under ``root`` (a round's
    ``host_state/``, one ``hb-<b>-state.parquet`` file per bucket), or None
    if the bucket has no host yet."""
    path = bucket_file(root, bucket, "state")
    return read_file(path).cast(HOST_STATE) if os.path.exists(path) else None


def select_bucket(frontier: pa.Table, host_state: pa.Table | None,
                  delays: dict, rnd: int, round_ms: int, night_shift: bool
                  ) -> tuple[pa.Table, pa.Table, pa.Table | None]:
    """THE selection kernel: one bucket's frontier rows and host state →
    ``(selected, deferred, next_host_state)``.

    Per host, the rows are ranked by (priority desc, discovered_round,
    url) and the first ``budget`` are selected, where budget = the fetch
    slots of the host's clock in ``[rnd·round_ms, (rnd+1)·round_ms)``;
    ``host_seq`` continues the host's counter.  With ``night_shift`` a host
    gated off this round selects nothing.  ``next_host_state`` is the
    updated slice (sorted by host), or None when no host was selected (the
    slice is unchanged).  A host with no state starts at counter 0 and a
    clock in the past, so with ``host_state=None`` every host's budget is
    the clock-free upper bound ``ceil(round_ms / delay)``: the combiner of
    :func:`select_frontier` keeps a superset of each host's selection."""
    t = frontier.sort_by([("host", "ascending")] + ORDER)
    enc = t["host"].combine_chunks().dictionary_encode()
    codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    hosts = enc.dictionary            # distinct hosts, in sorted order
    n = len(codes)
    # rows are sorted by host, so each host is one run: rank = row - run start
    starts = np.flatnonzero(np.r_[True, codes[1:] != codes[:-1]]) if n else codes
    rank = np.arange(n) - np.repeat(starts, np.diff(np.r_[starts, n]))
    default = delays["__default__"]
    host_list = hosts.to_pylist()
    delay = np.array([delays.get(h, default) for h in host_list], dtype=np.int64)
    if host_state is None or not host_state.num_rows:
        seq0 = clock = np.zeros(len(hosts), dtype=np.int64)
    else:
        idx = pc.index_in(hosts, value_set=host_state["host"].combine_chunks())
        seq0, clock = (pc.fill_null(pc.take(host_state[c].combine_chunks(), idx), 0)
                       .to_numpy() for c in ("next_seq", "next_allowed_ms"))
    start = np.maximum(clock, rnd * round_ms)
    # ceil((end - start) / delay), at most 0 for a clock past the round's end
    budget = np.maximum(0, -((start - (rnd + 1) * round_ms) // delay))
    if night_shift:
        budget[[not host_active(h, rnd, True) for h in host_list]] = 0
    keep = rank < budget[codes]
    selected = t.filter(keep).append_column(
        "host_seq", pa.array((seq0[codes] + rank)[keep], pa.int64()))
    deferred = t.filter(~keep)
    taken = np.bincount(codes[keep], minlength=len(hosts))
    if not taken.any():
        return selected, deferred, None
    act = taken > 0
    upd = pa.table({
        "host": hosts.filter(pa.array(act)),
        "next_seq": pa.array((seq0 + taken)[act], pa.int64()),
        "next_allowed_ms": pa.array((start + taken * delay)[act], pa.int64()),
    }, schema=HOST_STATE)
    if host_state is not None and host_state.num_rows:
        idle = host_state.filter(pc.invert(pc.is_in(host_state["host"],
                                                    value_set=upd["host"])))
        upd = pa.concat_tables([idle.cast(HOST_STATE), upd])
    return selected, deferred, upd.sort_by("host")


def select_frontier(
    frontier: rd.Dataset,
    delays_ref: "ray.ObjectRef",
    host_state_root: str,
    num_partitions: int = 16,
    rnd: int = 0,
    night_shift: bool = False,
    round_ms: int = 10_000,
) -> rd.Dataset:
    """Dataset-level selection (kept for the benchmark's stage replay; the
    crawl selects per bucket task): → selected rows with ``host_seq``.

    A combiner pass keeps each block's per-host rows under the clock-free
    bound, a ``groupby`` on the host bucket brings each bucket's
    candidates together, and the per-group pass runs
    :func:`select_bucket` against the bucket's host-state slice — the
    same kernel and rule as the crawl."""
    from ..canonical import host_buckets
    from ..ops.relational import cached_get

    def combine(t: pa.Table) -> pa.Table:
        sel, _, _ = select_bucket(t.select(schemas.FRONTIER.names), None,
                                  cached_get(delays_ref), rnd, round_ms,
                                  night_shift)
        return sel.drop_columns(["host_seq"]).append_column(
            "__hb", pa.array(host_buckets(sel["host"], num_partitions), pa.int64()))

    def final(t: pa.Table) -> pa.Table:
        b = int(t["__hb"][0].as_py())
        sel, _, _ = select_bucket(t.drop_columns(["__hb"]),
                                  read_host_state(host_state_root, b),
                                  cached_get(delays_ref), rnd, round_ms,
                                  night_shift)
        return sel

    return frontier.map_batches(combine, batch_format="pyarrow").groupby(
        "__hb", num_partitions=min(num_partitions, 64)).map_groups(
        final, batch_format="pyarrow")


def defer_frontier(frontier: rd.Dataset, sel_dir: str) -> rd.Dataset:
    """Frontier rows NOT selected this round (kept for the benchmark's
    stage replay; the crawl's per-bucket select writes its deferred rows
    itself).

    Membership is checked per url-hash partition: the selected set is
    written hive-partitioned by the ``partition`` column, and each defer
    task reads ONLY the ``partition=<p>/`` slices present in its block."""

    def _sel_urls(p: int) -> set[str]:
        d = os.path.join(sel_dir, f"partition={p}")
        if not os.path.isdir(d):
            return set()
        urls: set[str] = set()
        for f in os.listdir(d):
            if f.endswith(".parquet"):
                urls.update(pq.read_table(os.path.join(d, f),
                                          columns=["url"])["url"].to_pylist())
        return urls

    def defer(df: pd.DataFrame) -> pd.DataFrame:
        keep = []
        for p, g in df.groupby("partition", sort=False):
            sel = _sel_urls(int(p))
            keep.append(g if not sel else g[~g["url"].isin(sel)])
        if not keep:
            return df
        return pd.concat(keep, ignore_index=True)

    return frontier.map_batches(defer, batch_format="pandas")
