"""The crawl engine: BSP rounds of Ray Data stages with Parquet checkpoints.

Round 0 is the seeds (:func:`bootstrap`, driver-side): canonicalized,
first-listed wins, then admitted per host bucket through the gate's own
writer (:func:`_write_gated`) with the gate's robots rule — so a seed is
recorded, blocked or enqueued exactly as a discovered link would be.

One crawl round r (mirrors the oracle spec in ``reference_crawl.py``
exactly) is TWO Ray Data executions, run serially:

    round=r/frontier/hb-<b>-*  ─── A(r): per host bucket b ───┐
    round=r/host_state/hb-<b>-state (ran in CA(r-1), or       │ selected rows
                                     standalone in a call's    │ (pinned,
                                     first round)              ▼  host_seq)
    B(r)  fetch + parse ── bundle → request mw → fetch (probe
          groupby(pbucket) | session/render actors | cfg.fetcher) →
          response mw → repartition → parse → task-side writes:
              round=r+1/crawled/fetched-<digest>       (crawled rows)
              round=r+1/cand/hb-<b>-<digest>           (link candidates)
          returns only the (partition, fetched, missed, links_emitted) tally
    CA(r) one task per host bucket b (rd.from_items, batch_size=1):
          C(r, b)   winner over cand/hb-<b>-* → check-and-add on b's
                    filter (positives confirmed in b's OWN seen history)
                    → robots → round=r+1/{frontier,seen_delta,crawled,
                    seen_filter,tally}/hb-<b>-*
          A(r+1, b) b's round r+1 frontier (deferred + new) and host state
                    → exact carry-over select → returns the selection;
                    writes b's deferred rows, host state and select tally
                    into round=r+2 (uncommitted until round r+1 commits)
    metrics(r) → round=r+1/metrics; timings → round=r+1/timings;
    _COMMITTED(r+1)

Every piece of round state is keyed by the host bucket ``hb =
stable_hash(host) % num_partitions``: a URL's host fixes its bucket, so
one task per bucket owns both politeness (selection, host clocks) and
winner dedup + URL-seen membership, and neither select nor the gate needs
a shuffle.  The only all-to-all left in a round is the corpus probe's
``groupby(pbucket)`` inside B.  The last round (``max_rounds``) runs C
only.

Checkpoint layout (see :mod:`borges_ray.state.checkpoint`, which alone
names, writes, reads and hard-links every file): ``round=r`` is the state
*entering* round r.  Resume replays at most one uncommitted
round, idempotently: the uncommitted round dirs (including round r+2's
pre-written selection state) are deleted and the call's first round runs
a standalone A from committed state; each task-side write is keyed by its
bucket or by a content digest, so a retried task rewrites the same bytes.

Out of scope: a Zipf-head host's whole backlog and seen set sit in one
bucket task (hot-bucket splitting is not done); see
:mod:`borges_ray.state.seenfilter` for what that does to its filter.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

# fsspec.implementations.http fails to import in this container (no
# aiohttp).  Ray's write path probes it per write and catches
# ModuleNotFoundError — but CONCURRENT writer threads race the failing
# import and see a partially-initialized module, surfacing a plain
# ImportError that Ray does NOT catch.  Register a benign stub once so the
# probe is deterministic: Ray's isinstance() check against the stub class
# is always False, i.e. "not an HTTP filesystem" — the same answer the
# clean ModuleNotFoundError path produces.
try:  # pragma: no cover — environment-dependent
    import fsspec.implementations.http  # noqa: F401
except ImportError:
    import sys as _sys
    import types as _types

    try:
        import fsspec.implementations as _fsspec_impls

        _http_stub = _types.ModuleType("fsspec.implementations.http")

        class _StubHTTPFileSystem:  # never instantiated; isinstance-only
            pass

        _http_stub.HTTPFileSystem = _StubHTTPFileSystem
        _sys.modules["fsspec.implementations.http"] = _http_stub
        _fsspec_impls.http = _http_stub
    except ImportError:
        pass

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads
import pyarrow.parquet as pq
import ray
import ray.data as rd

from .. import schemas
from ..canonical import canonicalize, host_buckets, host_of, partition_of
from ..stages.fetch import fetch_selected
from ..stages.links import explode_links, gate_bucket, robots_blocked
from ..stages.parse import PARSED_SCHEMA, parse_fetched
from ..stages.politeness import (SELECTED, delays_from_robots, read_host_state,
                                 select_bucket)
from ..state import checkpoint as ckpt
from ..state import seenfilter


@dataclass
class EngineConfig:
    round_ms: int = 10_000
    default_delay_ms: int = 1000
    max_rounds: int = 50
    max_depth: int | None = None
    num_partitions: int = 16    # host buckets of all round state (+ METRICS partitions)
    num_buckets: int = 16       # pages-corpus hash buckets
    num_seen_shards: int = 4    # not read by the engine (no URL-seen actors)
    seen_capacity: int = 1_000_000  # keys per host bucket's seen filter
    flaky: bool = False          # T6 deterministic transient-failure + retry model
    night_shift: bool = False    # F9 time-of-day host gating
    api_keys: tuple = ()         # T2/S13: non-empty → session-actor fetch path
    render: bool = False         # S12: browser-render actor fetch path
    seen_filter: str = "bloom"   # "bloom" | "cuckoo" (deletable — recrawl)
    parse_block_rows: int = 512  # split fetched blocks before parse (skew fix)
    # Pluggable fetch seam (S10-S12 deployment point): any callable
    # ``(selected: rd.Dataset, cfg: EngineConfig, rnd: int) -> rd.Dataset``
    # whose output adds the fetch-contract columns (status, attempts, html)
    # — e.g. ``stages.fetch.fetch_selected_http`` wrapped with a real
    # transport.  None → the built-in dispatch (render / api_keys / probe).
    fetcher: object = None
    # Downloader-middleware hook points (the reference's Scrapy middleware
    # stack surface, Borges/settings.py:93-104): request middlewares map
    # over the SELECTION before fetch (drop/rewrite rows), response
    # middlewares over the fetched rows before parse.  Each entry is an
    # Arrow-batch callable ``pa.Table -> pa.Table``.
    request_middlewares: tuple = ()
    response_middlewares: tuple = ()


#: The key of every piece of round state (frontier, host state, link
#: candidates, seen filters and seen history — one ``hb-<b>-<tag>`` file per
#: host bucket each), recorded in ``_MANIFEST``.
STATE_KEY = "host_bucket_files"


def _count_rows(path: str) -> int:
    if not os.path.isdir(path):
        return 0
    return pads.dataset(path, format="parquet").count_rows()


def _layout(cfg: EngineConfig) -> dict:
    """The settings a checkpoint's layout depends on (recorded in its
    ``_MANIFEST``): the state key, partitions (the host-bucket count of
    every piece of round state), buckets the corpus probe, and the clock
    settings the persisted politeness clocks.  ``max_rounds``, ``fetcher``
    and the middlewares stay free."""
    return {"state_key": STATE_KEY, **{k: getattr(cfg, k) for k in (
        "num_partitions", "num_buckets", "seen_filter", "seen_capacity",
        "round_ms", "default_delay_ms", "max_depth")}}


def _url_digest(urls) -> str:
    """Content digest of a block's urls: the file name of a task-side
    write, so a retried task rewrites the same bytes under the same name."""
    import hashlib

    h = hashlib.blake2b(digest_size=8)
    for u in urls:
        h.update(u.encode("utf-8"))
        h.update(b"\x00")
    return h.hexdigest()


def _timed(times: dict, name: str, fn, *args, **kw):
    """Run ``fn(*args, **kw)`` and record its wall seconds as
    ``times[name]`` — the one timer of every round phase."""
    t0 = time.perf_counter()
    out = fn(*args, **kw)
    times[name] = round(time.perf_counter() - t0, 4)
    return out


def _identity(t: pa.Table) -> pa.Table:
    return t


def _tally(t: pa.Table, by: str, **cols) -> pa.Table:
    """``cols`` (name → int column of ``t``'s rows) summed per ``by``."""
    g = pa.table({by: t[by].cast(pa.int64()),
                  **{k: v.cast(pa.int64()) for k, v in cols.items()}}
                 ).group_by(by).aggregate([(k, "sum") for k in cols])
    return g.rename_columns([c.removesuffix("_sum") for c in g.column_names])


# --- B: fetch + parse, task-side writes ------------------------------------

def _crawled_and_candidates(rnd: int, next_dir: str, num_buckets: int,
                            max_depth: int | None):
    """B's last step, per parsed block: write the block's crawled rows and
    its exploded, winner-deduped link candidates — one file per host
    bucket under round r+1's ``cand/`` — both named by the block's content
    digest (a retried task rewrites the same bytes under the same names),
    and return only the per-partition (fetched, missed, links_emitted)
    tally."""
    crawled_dir = os.path.join(next_dir, "crawled")
    cand_dir = os.path.join(next_dir, "cand")

    def emit(t: pa.Table) -> pa.Table:
        if t.num_rows:
            digest = _url_digest(t["url"].to_pylist())
            ckpt.write_file(os.path.join(crawled_dir, f"fetched-{digest}.parquet"), t)
            cands = explode_links(t, rnd + 1, num_buckets, max_depth)
            hb = host_buckets(cands["host"], num_buckets)
            for b in np.unique(hb).tolist():
                ckpt.write_file(ckpt.bucket_file(cand_dir, b, digest, "arrow"),
                                cands.filter(pa.array(hb == b)))
        # robots-blocked (999) rows are written by the gate, never parsed:
        # every non-200 row here is a miss (404 and retry-exhausted 503 alike)
        ok = pc.equal(t["status"], 200)
        return _tally(t, "partition", fetched=ok, missed=pc.invert(ok),
                      links_emitted=pc.if_else(ok, t["n_links"], 0))

    return emit


# --- CA: one task per host bucket -------------------------------------------

def _gate_into(ckpt_dir: str, rnd: int, b: int, kind: str, capacity: int,
               robots: dict) -> None:
    """C of bucket ``b``: gate round ``rnd``'s link candidates (round
    r+1's ``cand/hb-<b>-*`` files) and write round r+1's new frontier,
    seen and blocked (999) rows, next filter and gate tally for ``b``."""
    this_dir = ckpt.round_dir(ckpt_dir, rnd)
    next_dir = ckpt.round_dir(ckpt_dir, rnd + 1)
    files = ckpt.bucket_files(os.path.join(next_dir, "cand"), b, ext="arrow")
    cands = (pa.concat_tables([ckpt.read_file(f) for f in files]) if files
             else schemas.FRONTIER.empty_table())
    seen = seenfilter.SeenFilters(
        kind, capacity, os.path.join(this_dir, "seen_filter"),
        os.path.join(next_dir, "seen_filter"),
        seenfilter.history_files([os.path.join(ckpt.round_dir(ckpt_dir, k), "seen_delta")
                                  for k in range(rnd + 1)], b))
    gated = gate_bucket(cands, seen, b, robots)
    _write_gated(gated, b, rnd + 1, next_dir)
    if gated.num_rows:
        blocked = gated["blocked"]
        ckpt.write_file(ckpt.bucket_file(os.path.join(next_dir, "tally"), b,
                                         "gate", "arrow"),
                        _tally(gated, "partition", links_new=pc.invert(blocked),
                               blocked=blocked))


def _write_gated(gated: pa.Table, b: int, rnd: int, round_dir: str) -> None:
    """Admit bucket ``b``'s gated new urls (the gate's new links, or the
    seeds) into round ``rnd``'s ``round_dir``: frontier rows (not blocked),
    seen rows (all, sorted by url) and robots-blocked status-999 crawled
    rows."""
    if not gated.num_rows:
        return
    blocked = gated["blocked"]
    new = gated.filter(pc.invert(blocked))
    if new.num_rows:
        ckpt.write_file(ckpt.bucket_file(os.path.join(round_dir, "frontier"), b, "new"),
                        new.select(schemas.FRONTIER.names))
    n = gated.num_rows
    ckpt.write_file(ckpt.bucket_file(os.path.join(round_dir, "seen_delta"), b, "new"),
                    pa.table({"url": gated["url"], "partition": gated["partition"],
                              "seen_round": pa.array(np.full(n, rnd, np.int32))},
                             schema=schemas.SEEN))
    bl = gated.filter(blocked)
    if bl.num_rows:
        def const(v, typ):
            return pa.repeat(pa.scalar(v, typ), bl.num_rows)

        rows = {"url": bl["url"], "host": bl["host"], "depth": bl["depth"],
                "priority": bl["priority"],
                "fetch_round": const(rnd, pa.int32()),
                "host_seq": const(-1, pa.int32()), "status": const(999, pa.int32()),
                "attempts": const(0, pa.int32()),
                "extracted_text": const("", pa.string()),
                "lang": const("", pa.string()), "n_links": const(0, pa.int32()),
                "links": const([], pa.list_(pa.string())),
                "partition": bl["partition"]}
        ckpt.write_file(ckpt.bucket_file(os.path.join(round_dir, "crawled"), b, "blocked"),
                        pa.table(rows, schema=PARSED_SCHEMA))


def _select_into(ckpt_dir: str, rnd: int, b: int, delays: dict, round_ms: int,
                 night_shift: bool) -> pa.Table:
    """A of bucket ``b``: select round ``rnd`` from b's frontier slice
    (its deferred + new files) and host-state slice, write b's deferred
    rows, host state and select tally into round r+1, and return the
    selected rows."""
    this_dir = ckpt.round_dir(ckpt_dir, rnd)
    next_dir = ckpt.round_dir(ckpt_dir, rnd + 1)
    parts = [ckpt.read_file(p)
             for p in ckpt.bucket_files(os.path.join(this_dir, "frontier"), b)]
    frontier = pa.concat_tables(parts) if parts else schemas.FRONTIER.empty_table()
    hs_root = os.path.join(this_dir, "host_state")
    old = read_host_state(hs_root, b)
    selected, deferred, state = select_bucket(frontier, old, delays, rnd,
                                              round_ms, night_shift)
    if deferred.num_rows:
        ckpt.write_file(ckpt.bucket_file(os.path.join(next_dir, "frontier"), b,
                                         "deferred"), deferred)
    dst = ckpt.bucket_file(os.path.join(next_dir, "host_state"), b, "state")
    if state is not None:
        ckpt.write_file(dst, state)
    elif old is not None:
        # unchanged slice: hard-link it forward — a file op, no data read
        ckpt.link_file(ckpt.bucket_file(hs_root, b, "state"), dst)
    if selected.num_rows:
        ckpt.write_file(ckpt.bucket_file(os.path.join(next_dir, "tally"), b,
                                         "select", "arrow"),
                        _tally(selected, "partition",
                               selected=pa.array(np.ones(selected.num_rows, np.int64))))
    return selected


def _bucket_round(ckpt_dir: str, cfg: EngineConfig, robots_ref, delays_ref,
                  gate_round: int | None, select_round: int | None) -> rd.Dataset:
    """ONE Ray Data execution of ``num_partitions`` tasks, one per host
    bucket: task b runs C (gate round ``gate_round``'s links) and then A
    (select round ``select_round``), either of which may be None.  Returns
    the selection, pinned."""
    from ..ops.relational import cached_get

    kind, capacity = cfg.seen_filter, cfg.seen_capacity
    round_ms, night_shift = cfg.round_ms, cfg.night_shift

    def task(t: pa.Table) -> pa.Table:
        b = int(t["b"][0].as_py())
        if gate_round is not None:
            _gate_into(ckpt_dir, gate_round, b, kind, capacity,
                       cached_get(robots_ref))
        if select_round is None:
            return SELECTED.empty_table()
        return _select_into(ckpt_dir, select_round, b, cached_get(delays_ref),
                            round_ms, night_shift)

    # The tasks are a few ms each; running them one below the cluster's CPU
    # count costs little wall time and leaves one worker process unloaded
    # (4 Ray CPUs: crawl_polite peak RSS ~1560 -> ~1430 MB, +0.03 s a round).
    slots = max(1, int(ray.cluster_resources().get("CPU", 1)) - 1)
    P = cfg.num_partitions
    return rd.from_items([{"b": b} for b in range(P)], override_num_blocks=P
                         ).map_batches(task, batch_format="pyarrow", batch_size=1,
                                       concurrency=slots).materialize()


def _round_metrics(rnd: int, num_partitions: int, frontier_size: int,
                   fetch_tally: pd.DataFrame, tally_dir: str) -> pa.Table:
    """One METRICS row per partition, from the tallies the round's tasks
    returned (fetched / missed / links_emitted) or wrote into ``tally_dir``
    (selected per bucket task of A, links_new / blocked per task of C)."""
    m = pd.DataFrame(index=pd.Index(range(num_partitions), name="partition"))
    for kind in ("select", "gate"):
        parts = [ckpt.read_file(f).to_pandas()
                 for f in ckpt.bucket_files(tally_dir, tag=kind, ext="arrow")]
        if parts:
            m = m.join(pd.concat(parts).groupby("partition").sum())
    if len(fetch_tally):
        m = m.join(fetch_tally.groupby("partition").sum())
    for col in ("selected", "fetched", "missed", "links_emitted", "links_new",
                "blocked"):
        if col not in m.columns:
            m[col] = 0
    m = m.fillna(0).astype("int64").reset_index()
    m["round"] = rnd
    m["frontier_size"] = frontier_size
    return pa.Table.from_pandas(m[schemas.METRICS.names],
                                preserve_index=False).cast(schemas.METRICS)


def _write_timings(round_dir: str, times: dict) -> None:
    ckpt.write_file(os.path.join(round_dir, "timings", "part-0.parquet"),
                    pa.table({"phase": pa.array(list(times), pa.string()),
                              "seconds": pa.array(list(times.values()), pa.float64())}))


def read_timings(ckpt_dir: str) -> list[dict[str, float]]:
    """Each committed round's ``timings/`` table as ``{phase: seconds}``,
    for the rounds 0, 1, … that ran (round r's sit in ``round=r+1``)."""
    out = []
    for r in range(1, ckpt.last_committed_round(ckpt_dir) + 1):
        p = os.path.join(ckpt.round_dir(ckpt_dir, r), "timings")
        if os.path.isdir(p):
            t = pq.read_table(p)
            out.append(dict(zip(t["phase"].to_pylist(), t["seconds"].to_pylist())))
    return out


def bootstrap(seeds: pa.Table, robots: dict, cfg: EngineConfig,
              ckpt_dir: str) -> None:
    """Round-0 checkpoint from the seed table (driver-side; seeds are tiny —
    the reference's start_urls.yaml scale): the seeds are admitted through
    the gate's writer, keyed by host bucket like every later round."""
    P = cfg.num_partitions
    # canonical urls in input order, first-listed wins — exactly the
    # oracle's enqueue rule (reference_crawl.py: `u in seen` skips)
    first: dict[str, int] = {}
    for url, prio in zip(seeds["url"].to_pylist(), seeds["priority"].to_pylist()):
        cu = canonicalize(url)
        if cu is not None:
            first.setdefault(cu, prio)
    urls, n = list(first), len(first)
    cands = pa.table({
        "url": urls, "host": [host_of(u) for u in urls], "depth": [0] * n,
        "priority": list(first.values()), "discovered_round": [0] * n,
        "parent_url": [""] * n, "partition": [partition_of(u, P) for u in urls],
    }, schema=schemas.FRONTIER)
    rd0 = ckpt.round_dir(ckpt_dir, 0)
    hb = host_buckets(cands["host"], P)
    by_bucket: dict[int, list[str]] = {}
    for b in np.unique(hb).tolist():
        mine = cands.filter(pa.array(hb == b)).sort_by("url")
        _write_gated(robots_blocked(mine, robots), b, 0, rd0)
        by_bucket[b] = mine["url"].to_pylist()
    _ensure_seen_delta(rd0)
    seenfilter.seed_filters(os.path.join(rd0, "seen_filter"), cfg.seen_filter,
                            cfg.seen_capacity, P, by_bucket)
    ckpt.write_manifest(ckpt_dir, _layout(cfg))
    ckpt.commit_round(ckpt_dir, 0)


def run_crawl(
    pages_root: str,
    seeds: pa.Table,
    robots_df: pd.DataFrame,
    cfg: EngineConfig,
    ckpt_dir: str,
    resume: bool = True,
) -> dict:
    """Run (or resume) the crawl to completion; returns summary paths/counts
    and ``phase_s``: one ``{phase: seconds}`` dict per round this call ran,
    equal to the ``timings/`` table each round persisted.

    ``pages_root`` must be the hash-bucketed corpus layout produced by
    :func:`borges_ray.stages.fetch.write_pages_bucketed`.
    """
    if not resume:
        import shutil

        if os.path.isdir(ckpt_dir):
            shutil.rmtree(ckpt_dir)
    alw = (robots_df["allow_prefixes"] if "allow_prefixes" in robots_df.columns
           else [()] * len(robots_df))
    robots = {h: (tuple(p), tuple(a)) for h, p, a in
              zip(robots_df["host"], robots_df["disallow_prefixes"], alw)}
    ckpt.clean_uncommitted(ckpt_dir)
    last = ckpt.last_committed_round(ckpt_dir)
    if last < 0:
        bootstrap(seeds, robots, cfg, ckpt_dir)
        last = 0
    else:
        ckpt.check_manifest(ckpt_dir, _layout(cfg))

    delays_ref = ray.put(delays_from_robots(robots_df, cfg.default_delay_ms))
    robots_ref = ray.put(robots)

    def fetch_parse(sel: rd.Dataset, rnd: int, next_dir: str) -> pd.DataFrame:
        """B: the pinned selection → request middlewares → fetch → response
        middlewares → parse → task-side crawled + candidate writes; ONE
        execution, whose output is the per-partition fetch tally.  With a
        key pool configured, fetch runs on session actors (T2/S13); with
        ``render``, on browser-handle actors (S12) — every path returns the
        same fetch-contract rows."""
        # the selection arrives as one small block per host bucket; bundling
        # them into batches of up to parse_block_rows rows first runs every
        # later operator (the fetch shuffle above all) on a few blocks
        # instead of num_partitions, which halves B at polite-round sizes
        sel = sel.map_batches(_identity, batch_format="pyarrow",
                              batch_size=cfg.parse_block_rows or None)
        for mw in cfg.request_middlewares:
            sel = sel.map_batches(mw, batch_format="pyarrow")
        if cfg.fetcher is not None:
            fetched = cfg.fetcher(sel, cfg, rnd)
        elif cfg.render:
            from ..stages.fetch import fetch_selected_render

            fetched = fetch_selected_render(sel, pages_root, cfg.num_buckets,
                                            flaky=cfg.flaky)
        elif cfg.api_keys:
            from ..stages.fetch import fetch_selected_sessions

            fetched = fetch_selected_sessions(sel, pages_root, cfg.num_buckets,
                                              tuple(cfg.api_keys), flaky=cfg.flaky)
        else:
            fetched = fetch_selected(sel, pages_root, cfg.num_buckets,
                                     flaky=cfg.flaky)
        for mw in cfg.response_middlewares:
            fetched = fetched.map_batches(mw, batch_format="pyarrow")
        # The fetch emits ONE block per corpus bucket; a split-only streaming
        # repartition rebalances the fetched html into ~parse_block_rows-row
        # blocks — no all-to-all, bounded payload (the selection is
        # politeness-bounded) — so parse scales with CPUs, not buckets.
        if cfg.parse_block_rows:
            fetched = fetched.repartition(
                target_num_rows_per_block=cfg.parse_block_rows)
        return parse_fetched(fetched, rnd).map_batches(
            _crawled_and_candidates(rnd, next_dir, cfg.num_partitions,
                                    cfg.max_depth),
            batch_format="pyarrow").to_pandas()

    # --- the round loop ----------------------------------------------------
    # Serial, two executions a round: B (fetch + parse) then CA (per-bucket
    # gate of round r's links + selection of round r+1), then metrics and
    # the commit.  The first round of a call runs a standalone A first.
    phase_s: list[dict[str, float]] = []
    selected = None
    rnd = last
    while rnd < cfg.max_rounds:
        this_dir = ckpt.round_dir(ckpt_dir, rnd)
        next_dir = ckpt.round_dir(ckpt_dir, rnd + 1)
        frontier_size = _count_rows(os.path.join(this_dir, "frontier"))
        if frontier_size == 0:
            break
        os.makedirs(next_dir, exist_ok=True)
        t_round, times = time.perf_counter(), {}
        if selected is None:
            selected = _timed(times, "select", _bucket_round, ckpt_dir, cfg,
                              robots_ref, delays_ref, None, rnd)
        fetch_tally = pd.DataFrame()
        if selected.count():  # metadata of the pinned blocks: no execution
            fetch_tally = _timed(times, "fetch_parse", fetch_parse, selected,
                                 rnd, next_dir)
        else:
            times["fetch_parse"] = 0.0
        selected = _timed(times, "gate_select", _bucket_round, ckpt_dir, cfg,
                          robots_ref, delays_ref, rnd,
                          rnd + 1 if rnd + 1 < cfg.max_rounds else None)
        _timed(times, "metrics", _write_metrics, next_dir, rnd,
               cfg.num_partitions, frontier_size, fetch_tally)
        times["total"] = round(time.perf_counter() - t_round, 4)
        _write_timings(next_dir, times)
        ckpt.commit_round(ckpt_dir, rnd + 1)
        phase_s.append(times)
        rnd += 1
    # round r+2's pre-written selection state of a crawl that stopped early
    ckpt.clean_uncommitted(ckpt_dir)

    return {
        "ckpt_dir": ckpt_dir,
        "rounds": rnd,
        "crawled_rows": sum(
            _count_rows(os.path.join(ckpt.round_dir(ckpt_dir, r), "crawled"))
            for r in range(rnd + 1)
        ),
        "phase_s": phase_s,
    }


def _ensure_seen_delta(round_dir: str) -> None:
    """A round that saw no new url still gets an (empty) ``seen_delta``
    file, so every committed round has a readable seen table."""
    seen_dir = os.path.join(round_dir, "seen_delta")
    if not ckpt.bucket_files(seen_dir):
        ckpt.write_file(os.path.join(seen_dir, "empty.parquet"),
                        schemas.SEEN.empty_table())


def _write_metrics(next_dir: str, rnd: int, num_partitions: int,
                   frontier_size: int, fetch_tally: pd.DataFrame) -> None:
    """Round ``rnd``'s METRICS (and, if it saw no new url, its empty
    ``seen_delta`` file) into ``next_dir``."""
    _ensure_seen_delta(next_dir)
    ckpt.write_file(os.path.join(next_dir, "metrics", "part-0.parquet"),
                    _round_metrics(rnd, num_partitions, frontier_size, fetch_tally,
                                   os.path.join(next_dir, "tally")))


def collect_crawled(ckpt_dir: str) -> pa.Table:
    """All crawled rows across committed rounds (official CRAWLED columns)."""
    last = ckpt.last_committed_round(ckpt_dir)
    t = ckpt.read_all_rounds(ckpt_dir, "crawled", last)
    if t is None:
        return schemas.CRAWLED.empty_table()
    cols = [f.name for f in schemas.CRAWLED]
    return t.select(cols)


def collect_seen(ckpt_dir: str) -> pa.Table:
    last = ckpt.last_committed_round(ckpt_dir)
    t = ckpt.read_all_rounds(ckpt_dir, "seen_delta", last)
    return t if t is not None else schemas.SEEN.empty_table()


def crawl_entry(sf_dir: str) -> rd.Dataset:
    """Flagship entry: full engine on the deterministic synthetic web
    (sized by sf tier), returning the crawled table as a Dataset."""
    import tempfile

    from ..stages.fetch import write_pages_bucketed
    from ..synth import synth_pages, synth_robots, synth_seeds

    n_pages = 2000
    cfg = EngineConfig(max_rounds=8, num_buckets=8, num_partitions=8)
    tmp = tempfile.mkdtemp(prefix="borges_entry_")
    pages_root = os.path.join(tmp, "pages")
    pages = synth_pages(42, n_pages)
    write_pages_bucketed(pages.select(["url", "html"]), pages_root, cfg.num_buckets)
    robots_df = synth_robots(42, n_pages).to_pandas()
    run_crawl(pages_root, synth_seeds(42, n_pages), robots_df, cfg,
              os.path.join(tmp, "ckpt"), resume=False)
    return rd.from_arrow(collect_crawled(os.path.join(tmp, "ckpt")))


def _main() -> None:
    """CLI: ``python -m borges_ray.pipelines.crawl [--n-pages N] [--ckpt DIR]
    [--rounds R] [--flaky] [--night-shift] [--resume]`` — runs the engine on
    the deterministic synthetic web and prints a status summary."""
    import argparse
    import statistics
    import tempfile

    import ray

    from ..stages.fetch import write_pages_bucketed
    from ..synth import synth_pages, synth_robots, synth_seeds

    ap = argparse.ArgumentParser(description="borges_ray crawl engine")
    ap.add_argument("--n-pages", type=int, default=2000)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--rounds", type=int, default=8)
    ap.add_argument("--ckpt", default=None)
    ap.add_argument("--num-cpus", type=int, default=8)
    ap.add_argument("--flaky", action="store_true")
    ap.add_argument("--night-shift", action="store_true")
    ap.add_argument("--resume", action="store_true")
    args = ap.parse_args()

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=args.num_cpus,
                 include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    work = args.ckpt or tempfile.mkdtemp(prefix="borges_crawl_")
    pages_root = os.path.join(work, "pages")
    if not os.path.isdir(pages_root):
        pages = synth_pages(args.seed, args.n_pages)
        write_pages_bucketed(pages.select(["url", "html"]), pages_root, 8)
    cfg = EngineConfig(max_rounds=args.rounds, num_partitions=8, num_buckets=8,
                      flaky=args.flaky, night_shift=args.night_shift)
    summary = run_crawl(pages_root, synth_seeds(args.seed, args.n_pages),
                        synth_robots(args.seed, args.n_pages).to_pandas(),
                        cfg, os.path.join(work, "ckpt"), resume=args.resume)
    crawled = collect_crawled(os.path.join(work, "ckpt")).to_pandas()
    by_status = crawled["status"].value_counts().to_dict()
    print(f"rounds={summary['rounds']} crawled={len(crawled)} "
          f"statuses={by_status} ckpt={os.path.join(work, 'ckpt')}")
    # median seconds of each round phase, read back from the checkpoint's
    # timings tables (every committed round, this call's and earlier ones)
    timings = read_timings(os.path.join(work, "ckpt"))
    phases = dict.fromkeys(k for times in timings for k in times)
    print("phase_s_p50 " + " ".join(
        f"{k}={statistics.median(t[k] for t in timings if k in t):.3f}"
        for k in phases))
    ray.shutdown()


if __name__ == "__main__":
    _main()
