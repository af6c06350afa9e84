"""The per-bucket select kernel (``politeness.select_bucket``, what the
crawl's bucket tasks run) against the Dataset-level ``select_frontier``
(combiner → ``groupby`` on the host bucket) and a row-by-row statement of
the carry-over rule, on a Zipf-head frontier."""

from __future__ import annotations

import random

import pyarrow as pa
import pytest

from borges_ray import schemas
from borges_ray.canonical import host_buckets, partition_of
from borges_ray.stages.politeness import (HOST_STATE, host_active,
                                          read_host_state, select_bucket,
                                          select_frontier)
from borges_ray.state import checkpoint as ckpt

P = 4
RND = 3
ROUND_MS = 1000
DELAYS = (250, 500, 1000, 1700, 2000)


def _web():
    """600 frontier rows: host h0 (the Zipf head) holds half of them, 30
    tail hosts the rest; 20 of the hosts carry a counter and a clock."""
    rng = random.Random(7)
    hosts = ["h0.example"] * 300 + [f"h{1 + rng.randrange(30)}.example"
                                     for _ in range(300)]
    rows = []
    for i, h in enumerate(hosts):
        url = f"http://{h}/p{i}"
        rows.append({"url": url, "host": h, "depth": 1,
                     "priority": rng.randrange(4),
                     "discovered_round": rng.randrange(RND + 1),
                     "parent_url": "", "partition": partition_of(url, P)})
    frontier = pa.Table.from_pylist(rows).cast(schemas.FRONTIER)
    distinct = sorted(set(hosts))
    delays = {h: DELAYS[k % len(DELAYS)] for k, h in enumerate(distinct)}
    delays["__default__"] = 1000
    state = {h: (rng.randrange(50), rng.randrange(0, (RND + 2) * ROUND_MS))
             for h in distinct[::2][:20]}
    return frontier, delays, state


def _reference(frontier, delays, state, night_shift):
    """The rule as ``reference_crawl.py`` states it, one host at a time:
    → ({url: host_seq}, {host: (next_seq, next_allowed_ms)})."""
    by_host: dict[str, list[dict]] = {}
    for r in frontier.to_pylist():
        by_host.setdefault(r["host"], []).append(r)
    sel, clocks = {}, dict(state)
    for host, rows in by_host.items():
        if not host_active(host, RND, night_shift):
            continue
        seq, clock = state.get(host, (0, 0))
        start = max(clock, RND * ROUND_MS)
        budget = max(0, -((start - (RND + 1) * ROUND_MS) // delays[host]))
        rows.sort(key=lambda r: (-r["priority"], r["discovered_round"], r["url"]))
        for k, r in enumerate(rows[:budget]):
            sel[r["url"]] = seq + k
        if rows[:budget]:
            n = len(rows[:budget])
            clocks[host] = (seq + n, start + n * delays[host])
    return sel, clocks


@pytest.mark.parametrize("night_shift", [False, True])
def test_select_bucket_equals_select_frontier(ray_session, tmp_path, night_shift):
    import ray
    import ray.data as rd

    frontier, delays, state = _web()
    root = str(tmp_path / "host_state")
    hb = host_buckets(pa.array(list(state)), P)
    for b in set(hb.tolist()):
        hosts = [h for h, x in zip(state, hb) if x == b]
        ckpt.write_file(ckpt.bucket_file(root, b, "state"), pa.table({
            "host": hosts, "next_seq": [state[h][0] for h in hosts],
            "next_allowed_ms": [state[h][1] for h in hosts]}, schema=HOST_STATE))
    want_sel, want_clocks = _reference(frontier, delays, state, night_shift)
    assert len(want_sel) > 20 and frontier.num_rows - len(want_sel) > 300

    # the engine: one call per host bucket over that bucket's rows
    rows_hb = host_buckets(frontier["host"], P)
    got, clocks, kept = {}, dict(state), 0
    for b in range(P):
        part = frontier.filter(pa.array(rows_hb == b))
        sel, deferred, nxt = select_bucket(part, read_host_state(root, b), delays,
                                           RND, ROUND_MS, night_shift)
        got.update(zip(sel["url"].to_pylist(), sel["host_seq"].to_pylist()))
        kept += deferred.num_rows
        assert sorted(sel["url"].to_pylist() + deferred["url"].to_pylist()) == \
            sorted(part["url"].to_pylist())
        if nxt is not None:
            clocks.update((h, (s, a)) for h, s, a in zip(
                nxt["host"].to_pylist(), nxt["next_seq"].to_pylist(),
                nxt["next_allowed_ms"].to_pylist()))
    assert got == want_sel
    assert clocks == want_clocks
    assert kept == frontier.num_rows - len(want_sel)

    # the Dataset-level select over five input blocks
    n = frontier.num_rows
    ds = rd.from_arrow([frontier.slice(k * n // 5, n // 5) for k in range(5)])
    out = select_frontier(ds, ray.put(delays), root, num_partitions=P, rnd=RND,
                          night_shift=night_shift, round_ms=ROUND_MS).to_pandas()
    assert dict(zip(out["url"], out["host_seq"])) == want_sel
