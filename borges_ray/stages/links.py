"""Link-candidate stage: explode outlinks, winner-dedup, gate through the
URL-seen filter and the robots policy — one host bucket at a time.

The crawl keys link candidates by host bucket ``hb = stable_hash(host) %
P``, the key of the frontier and host state: a URL's host fixes its
bucket, so every candidate of a URL lands in one bucket.  Two kernels, both
on Arrow tables:

- :func:`explode_links` runs inside the fetch + parse tasks: each parsed
  block's 200 rows explode into round r+1 candidates, pre-deduped by the
  winner order within the block (combiner); the engine writes them one
  file per bucket.
- :func:`gate_bucket` runs in bucket b's task: the winner over all of b's
  candidate files (order-free deterministic: max priority, min depth, min
  parent_url — the reference's insert-if-absent without depending on
  arrival order), then b's filter check-and-add
  (:mod:`borges_ray.state.seenfilter`), then the robots flag.  No shuffle:
  the bucket's files ARE its group.

:func:`link_candidates` and :func:`gate_candidates` (``groupby(partition)``
winner and the ``UrlSeenShard`` actor gate) are kept for the benchmark's
stage replay only; they call the same explode and winner kernels.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd

from .. import schemas
from ..canonical import partition_of
from ..state.seenfilter import SeenFilters, check_and_add

WINNER_ORDER = [("url", "ascending"), ("priority", "descending"),
                ("depth", "ascending"), ("parent_url", "ascending")]


def winner(t: pa.Table) -> pa.Table:
    """One row per url — its winner by (priority desc, depth, parent_url)
    — sorted by url."""
    t = t.sort_by(WINNER_ORDER)
    urls = t["url"].combine_chunks()
    if len(urls) < 2:
        return t
    first = pc.not_equal(urls.slice(1), urls.slice(0, len(urls) - 1))
    return t.filter(pa.concat_arrays([pa.array([True]), first]))


def explode_links(t: pa.Table, next_rnd: int, num_partitions: int,
                  max_depth: int | None) -> pa.Table:
    """Parsed rows (``url, status, priority, depth, links``) → round
    ``next_rnd``'s FRONTIER-schema candidates of the 200 rows, winner-deduped
    within ``t`` (the combiner)."""
    ok = t.filter(pc.equal(t["status"], 200))
    links = ok["links"].combine_chunks()
    parent = pc.list_parent_indices(links)
    urls = pc.list_flatten(links)
    depth = pc.add(pc.take(ok["depth"], parent), 1).cast(pa.int32())
    prio = pc.max_element_wise(pc.subtract(pc.take(ok["priority"], parent), 1),
                               0).cast(pa.int32())
    cands = pa.table({"url": urls, "depth": depth, "priority": prio,
                      "parent_url": pc.take(ok["url"], parent)})
    cands = cands.filter(pc.is_valid(cands["url"]))
    if max_depth is not None:
        cands = cands.filter(pc.less_equal(cands["depth"], max_depth))
    cands = winner(cands)
    url = cands["url"]
    # ``canonical.host_of`` (urlsplit's hostname) in Arrow: the netloc
    # without userinfo, port or IPv6 brackets, lowercased
    netloc = pc.list_element(pc.split_pattern(url, "/", max_splits=3), 2)
    host = pc.utf8_lower(pc.replace_substring_regex(
        netloc, r"^(?:[^@/?#]*@)*(?:\[([^\]]*)\]|([^:/?#]*)).*$", r"\1\2"))
    part = [partition_of(u, num_partitions) for u in url.to_pylist()]
    return pa.table({
        "url": url, "host": host, "depth": cands["depth"],
        "priority": cands["priority"],
        "discovered_round": pa.array(np.full(cands.num_rows, next_rnd, np.int32)),
        "parent_url": cands["parent_url"],
        "partition": pa.array(part, pa.int32()),
    }, schema=schemas.FRONTIER)


def robots_blocked(t: pa.Table, robots: dict) -> pa.Table:
    """``t`` (with ``url`` and ``host``) plus a ``blocked`` bool column: does
    the host's robots policy (host -> (disallows, allows)) block the url?
    The one robots rule of seeds and discovered links alike."""
    from ..stages.robots import robots_allowed

    blocked = []
    for u, h in zip(t["url"].to_pylist(), t["host"].to_pylist()):
        dis, alw = robots.get(h, ((), ()))
        path = u.split(h, 1)[1] if h in u else "/"
        blocked.append(not robots_allowed(path, dis, alw))
    return t.append_column("blocked", pa.array(blocked, pa.bool_()))


def gate_bucket(cands: pa.Table, seen: SeenFilters, bucket: int,
                robots: dict) -> pa.Table:
    """One host bucket's candidates → its NEW winners, sorted by url, with
    a ``blocked`` bool column (True → recorded as status 999, never
    fetched): winner → seen check-and-add against the bucket's filter
    (which writes its next filter) → robots flag."""
    w = winner(cands)
    new = check_and_add(seen, bucket, w["url"].to_pylist())
    return robots_blocked(w.filter(pa.array(new, pa.bool_())), robots)


def link_candidates(parsed: rd.Dataset, rnd: int, num_partitions: int,
                    max_depth: int | None) -> rd.Dataset:
    """parsed rows (with ``links`` list column) → winner-deduped candidate
    frontier rows for round ``rnd + 1``, not yet gated (the input of
    :func:`gate_candidates`; kept for the benchmark's stage replay)."""
    return parsed.map_batches(
        explode_links, batch_format="pyarrow",
        fn_args=(rnd + 1, num_partitions, max_depth),
    ).groupby("partition", num_partitions=min(num_partitions, 64)).map_groups(
        winner, batch_format="pyarrow")


def gate_candidates(cands: rd.Dataset, seen_shards: list,
                    robots_ref: "ray.ObjectRef", rnd: int) -> rd.Dataset:
    """Seen-gate (check-and-add on ``UrlSeenShard`` actors) + robots gate
    over :func:`link_candidates` rows, kept for the benchmark's stage
    replay (the crawl gates with :func:`gate_bucket`).

    Output: candidate rows that are NEW, with a ``blocked`` bool column.
    The shards key membership by (url, round), so the gate is idempotent
    under Ray task retries."""

    def gate(t: pa.Table) -> pa.Table:
        from ..state.urlseen import seen_check_and_add

        urls = t["url"].to_pylist()
        new = (seen_check_and_add(seen_shards, urls, rnd) if urls
               else np.zeros(0, dtype=bool))
        return robots_blocked(t.filter(pa.array(new, pa.bool_())),
                              ray.get(robots_ref))

    return cands.map_batches(gate, batch_format="pyarrow")
