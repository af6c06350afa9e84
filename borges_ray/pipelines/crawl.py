"""The crawl engine: BSP rounds of Ray Data stages with Parquet checkpoints.

One crawl round (mirrors the oracle spec in ``reference_crawl.py`` exactly):

    frontier_r ──combiner──shuffle(host)──► selected (host_seq assigned)
        │                                     │
        │ broadcast(selected urls)            ├──groupby(bucket)──► fetch-join pages
        ▼                                     ▼
    deferred                                parse (extract/lang/links)
        │                                     │ explode→winner dedup→seen+robots gate
        ▼                                     ▼
    frontier_{r+1} = deferred ∪ new_allowed;  crawled_r, seen_delta, metrics

Checkpoint layout (see :mod:`borges_ray.state.checkpoint`): ``round=r`` is
the state *entering* round r — resume replays at most one uncommitted round,
idempotently (each partition's seen filter loads from round r's file and
the gate reads only committed rounds; crawled rows are keyed by (url), each
url fetched exactly once).  The crawl starts no Ray actor on its default
fetch path: URL-seen membership lives in the per-partition winner task
(:mod:`borges_ray.state.seenfilter`).

Scale notes: the frontier is only ever *scanned* (combiner + deferral
passes), never shuffled in full — the host-shuffle moves ≤ budget×blocks
rows/host, the bucket-shuffle moves only the politeness-bounded selection,
and the pages corpus is probed per-bucket, never shuffled (SURVEY.md §7.3).
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor
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

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads
import pyarrow.parquet as pq
import ray
import ray.data as rd

from .. import schemas
from ..canonical import canonicalize, host_of, partition_of
from ..stages.fetch import fetch_selected
from ..stages.links import gate_links
from ..stages.parse import parse_fetched
from ..stages.politeness import defer_frontier, delays_from_robots, select_frontier
from ..state import checkpoint as ckpt
from ..state import seenfilter


@dataclass
class EngineConfig:
    round_ms: int = 10_000
    default_delay_ms: int = 1000
    max_rounds: int = 50
    max_depth: int | None = None
    num_partitions: int = 16
    num_buckets: int = 16       # pages-corpus hash buckets
    num_seen_shards: int = 4    # not read by the engine (no URL-seen actors)
    seen_capacity: int = 1_000_000  # keys per partition's seen filter
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


def _count_rows(path: str) -> int:
    if not os.path.isdir(path):
        return 0
    return pads.dataset(path, format="parquet").count_rows()


def _scan_blocks(path: str, num_partitions: int) -> int:
    """Metadata-driven block count for frontier scans: bytes-scaled
    (grows with the table — at a 10^10-row frontier this is what sets real
    parallelism) with a rows floor, capped at ``num_partitions`` so a small
    round never shreds a ~1 MB frontier into 32 micro-blocks whose per-task
    overhead dominates the round (the same pathology
    ``relational._auto_num_blocks`` fixes for queries)."""
    from ..ops.relational import _auto_num_blocks

    files = [os.path.join(dp, f) for dp, _dn, fs in os.walk(path)
             for f in fs if f.endswith(".parquet")]
    if not files:
        return 1
    return _auto_num_blocks(files, target_bytes=4 << 20, rows_per_block=5000,
                            max_row_blocks=num_partitions)


def _layout(cfg: EngineConfig) -> dict:
    """The settings a checkpoint's layout depends on (recorded in its
    ``_MANIFEST``): partitions route seen filters and host state, buckets
    the corpus probe, and the clock settings the persisted politeness
    clocks.  ``max_rounds``, ``fetcher`` and the middlewares stay free."""
    return {k: getattr(cfg, k) for k in (
        "num_partitions", "num_buckets", "seen_filter", "seen_capacity",
        "round_ms", "default_delay_ms", "max_depth")}


def _seen_delta_files(ckpt_dir: str, rnd: int) -> list[str]:
    d = os.path.join(ckpt.round_dir(ckpt_dir, rnd), "seen_delta")
    return [os.path.join(d, f) for f in sorted(os.listdir(d))
            if f.endswith(".parquet")]


def _write_ds_into(final_dir: str, ds_or_table, tag: str) -> None:
    """Write a Dataset (or small Arrow table) as parquet files inside
    ``final_dir`` under a unique ``tag`` prefix (atomic: tmp + rename)."""
    tmp = final_dir + f".__tmp_{tag}"
    os.makedirs(tmp, exist_ok=True)
    if isinstance(ds_or_table, pa.Table):
        pq.write_table(ds_or_table, os.path.join(tmp, f"{tag}-0.parquet"))
    else:
        ds_or_table.write_parquet(tmp)
    _publish(tmp, final_dir, tag)


def _publish(tmp: str, final_dir: str, tag: str) -> None:
    """Move the parquet files of ``tmp`` into ``final_dir`` as
    ``<tag>-<i>.parquet`` (sorted order) and drop ``tmp``."""
    import shutil

    os.makedirs(final_dir, exist_ok=True)
    for i, f in enumerate(sorted(os.listdir(tmp))):
        if f.endswith(".parquet"):
            os.rename(os.path.join(tmp, f), os.path.join(final_dir, f"{tag}-{i}.parquet"))
    shutil.rmtree(tmp)


def _atomic_write_table(dir_: str, name: str, table: pa.Table) -> None:
    """Task-side atomic parquet write: tmp file + rename (same dir)."""
    tmp = os.path.join(dir_, f".__tmp.{name}.{os.getpid()}")
    pq.write_table(table, tmp)
    os.replace(tmp, os.path.join(dir_, name))


def _url_digest(urls) -> str:
    """Content digest of a block's urls: the file name of a task-side
    write, so a retried task rewrites the same bytes under the same name."""
    import hashlib

    h = hashlib.blake2b(digest_size=8)
    for u in urls:
        h.update(u.encode("utf-8"))
        h.update(b"\x00")
    return h.hexdigest()


def _tally_frame(df: pd.DataFrame, **dtypes: str) -> pd.DataFrame:
    """``df``, or an empty frame with the tally's typed columns when the
    tally execution returned no rows (and so no columns)."""
    if len(df):
        return df
    return pd.DataFrame({c: pd.Series(dtype=t) for c, t in dtypes.items()})


def _timed(times: dict, name: str, fn, *args, **kw):
    """Run ``fn(*args, **kw)`` and record its wall seconds as
    ``times[name]`` — the one timer of every round phase, whether it runs
    in-line or as a future on the round executor."""
    t0 = time.perf_counter()
    out = fn(*args, **kw)
    times[name] = round(time.perf_counter() - t0, 4)
    return out


def _write_crawled(parsed: rd.Dataset, crawled_dir: str) -> pd.DataFrame:
    """Write the pinned parse output into ``crawled_dir`` as
    ``fetched-<i>.parquet`` and return its per-partition (fetched, missed,
    links_emitted) tally.  ONE execution: each task writes its own block
    (content-digest name into a tmp dir, published by rename) and returns
    only its tally rows, so the METRICS counts cost no extra pass."""
    tmp = crawled_dir + ".__tmp_fetched"
    os.makedirs(tmp, exist_ok=True)

    def emit(t: pa.Table) -> pa.Table:
        if t.num_rows:
            _atomic_write_table(tmp, f"{_url_digest(t['url'].to_pylist())}.parquet", t)
        # robots-blocked (999) rows are written by the split, never parsed:
        # every non-200 row here is a miss (404 and retry-exhausted 503 alike)
        ok = pc.equal(t["status"], 200)
        g = pa.table({
            "partition": t["partition"].cast(pa.int64()),
            "fetched": ok.cast(pa.int64()),
            "missed": pc.invert(ok).cast(pa.int64()),
            "links_emitted": pc.if_else(ok, t["n_links"], 0).cast(pa.int64()),
        }).group_by("partition").aggregate(
            [("fetched", "sum"), ("missed", "sum"), ("links_emitted", "sum")])
        return g.rename_columns([c.removesuffix("_sum") for c in g.column_names])

    tally = parsed.map_batches(emit, batch_format="pyarrow").to_pandas()
    _publish(tmp, crawled_dir, "fetched")
    return _tally_frame(tally, partition="int64", fetched="int64",
                        missed="int64", links_emitted="int64")


def _round_metrics(rnd: int, num_partitions: int, frontier_size: int,
                   selected: pd.Series, fetch_tally: pd.DataFrame,
                   split_tally: pd.DataFrame) -> pa.Table:
    """One METRICS row per partition, from the tallies the round already
    holds: per-partition selections (host-state pass), fetched / missed /
    links_emitted (crawled write) and links_new / blocked (split)."""
    m = pd.DataFrame(index=pd.Index(range(num_partitions), name="partition"))
    m["selected"] = selected
    m = m.join(fetch_tally.groupby("partition").sum())
    for col, blocked in (("links_new", False), ("blocked", True)):
        rows = split_tally[split_tally["blocked"] == blocked]
        m[col] = rows.groupby("partition")["n"].sum()
    m = m.fillna(0).astype("int64").reset_index()
    m["round"] = rnd
    m["frontier_size"] = frontier_size
    return pa.Table.from_pandas(m[schemas.METRICS.names],
                                preserve_index=False).cast(schemas.METRICS)


def _make_split_emit(rnd: int, frontier_dir: str, seen_dir: str,
                     crawled_dir: str):
    """Per-block split emitter for the gated new-link rows: writes the
    block's frontier rows (non-blocked), seen-delta rows (all), and
    robots-blocked status-999 crawled rows as parquet files named by a
    content digest (a retried task rewrites the same bytes under the same
    name — idempotent), and returns only the tiny (partition, blocked, n)
    tally.  The driver never sees a new-link row."""

    def emit(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"partition": pd.Series(dtype="int64"),
                              "blocked": pd.Series(dtype=bool),
                              "n": pd.Series(dtype="int64")})
        if df.empty:
            return empty
        from ..stages.parse import PARSED_SCHEMA

        digest = _url_digest(df["url"])

        t = pa.Table.from_pandas(df, preserve_index=False)
        nb = t.filter(pc.invert(t["blocked"]))
        if nb.num_rows:
            ft = nb.select([f.name for f in schemas.FRONTIER]).cast(schemas.FRONTIER)
            _atomic_write_table(frontier_dir, f"new-{digest}.parquet", ft)
        st = t.append_column(
            "seen_round", pa.array([rnd + 1] * t.num_rows, pa.int32()))
        st = st.select(["url", "partition", "seen_round"]).cast(schemas.SEEN).sort_by(
            [("partition", "ascending"), ("url", "ascending")])
        _atomic_write_table(seen_dir, f"links-{digest}.parquet", st)
        b = df[df["blocked"]]
        if len(b):
            b = b.assign(fetch_round=rnd + 1, host_seq=-1, status=999,
                         attempts=0, extracted_text="", lang="", n_links=0)
            b = b.copy()
            b["links"] = [[] for _ in range(len(b))]
            bt = pa.Table.from_pandas(
                b[PARSED_SCHEMA.names], preserve_index=False).cast(PARSED_SCHEMA)
            _atomic_write_table(crawled_dir, f"blocked-{digest}.parquet", bt)
        tally = (df.groupby(["partition", "blocked"], sort=False)
                 .size().rename("n").reset_index())
        tally["partition"] = tally["partition"].astype("int64")
        tally["n"] = tally["n"].astype("int64")
        return tally

    return emit


def bootstrap(seeds: pa.Table, robots_df: pd.DataFrame, cfg: EngineConfig,
              ckpt_dir: str) -> None:
    """Round-0 checkpoint from the seed table (driver-side; seeds are tiny —
    the reference's start_urls.yaml scale)."""
    robots_map = {h: tuple(p) for h, p in zip(robots_df["host"], robots_df["disallow_prefixes"])}
    rows, crawled, seen_rows = [], [], []
    seen: set[str] = set()
    cands = []
    for url, prio in zip(seeds["url"].to_pylist(), seeds["priority"].to_pylist()):
        cu = canonicalize(url)
        if cu is not None:
            cands.append((cu, prio))
    # input order, first-listed wins — exactly the oracle's enqueue rule
    # (reference_crawl.py: seeds are enqueued in list order, `u in seen` skips)
    for cu, prio in cands:
        if cu in seen:
            continue
        seen.add(cu)
        host = host_of(cu)
        part = partition_of(cu, cfg.num_partitions)
        seen_rows.append({"url": cu, "partition": part, "seen_round": 0})
        path = cu.split(host, 1)[1] if host in cu else "/"
        if any(path.startswith(p) for p in robots_map.get(host, ())):
            crawled.append({"url": cu, "host": host, "depth": 0, "priority": prio,
                            "fetch_round": 0, "host_seq": -1, "status": 999,
                            "attempts": 0, "extracted_text": "", "lang": "",
                            "n_links": 0, "links": [], "partition": part})
            continue
        rows.append({"url": cu, "host": host, "depth": 0, "priority": prio,
                     "discovered_round": 0, "parent_url": "", "partition": part})

    rd0 = ckpt.round_dir(ckpt_dir, 0)
    os.makedirs(rd0, exist_ok=True)
    frontier_t = (
        pa.Table.from_pylist(rows).cast(schemas.FRONTIER) if rows
        else schemas.FRONTIER.empty_table()
    )
    _write_ds_into(os.path.join(rd0, "frontier"), frontier_t, "seed")
    seen_t = pa.Table.from_pylist(seen_rows).cast(schemas.SEEN) if seen_rows else schemas.SEEN.empty_table()
    _write_ds_into(os.path.join(rd0, "seen_delta"),
                   seen_t.sort_by([("partition", "ascending"), ("url", "ascending")]),
                   "seed")
    by_part: dict[int, list[str]] = {}
    for row in seen_rows:
        by_part.setdefault(row["partition"], []).append(row["url"])
    seenfilter.seed_filters(os.path.join(rd0, "seen_filter"), cfg.seen_filter,
                            cfg.seen_capacity, cfg.num_partitions, by_part)
    if crawled:
        from ..stages.parse import PARSED_SCHEMA

        ct = pa.Table.from_pylist(crawled).select(PARSED_SCHEMA.names).cast(PARSED_SCHEMA)
        _write_ds_into(os.path.join(rd0, "crawled"), ct, "blocked")
    # empty hive-partitioned host-state (hb=<b>/ dirs appear as hosts do)
    os.makedirs(os.path.join(rd0, "host_state"), exist_ok=True)
    ckpt.write_manifest(ckpt_dir, _layout(cfg))
    ckpt.commit_round(ckpt_dir, 0)


def _update_host_state(old_dir: str, sel_counts: pd.DataFrame, new_dir: str,
                       num_partitions: int, delays: dict[str, int],
                       rnd: int, round_ms: int) -> None:
    """Fold this round's per-host selection counts into the host state
    table — ``(host, next_seq, next_allowed_ms)`` kept hive-partitioned by
    ``hb = hash(host) % P``.  ``next_allowed_ms`` is the host's continuous
    politeness clock (Scrapy's per-slot ``next_request_time``, see
    ``stages/politeness.py``): a host that fetched ``n`` URLs this round
    advances to ``max(old_clock, rnd·round_ms) + n·delay``, carrying any
    fractional-round remainder into the next round.

    Driver cost is O(hosts ACTIVE this round) — politeness-bounded — never
    O(all hosts ever seen): only buckets containing an active host are
    read+rewritten; untouched buckets carry forward as HARDLINKS (a file op,
    no data read — an idle host's stale clock is a no-op under the max()
    rule).  ``sel_counts`` is the (host, n) frame of this round's
    selections — the same bounded size as the selection itself."""
    from ..canonical import stable_hash

    os.makedirs(new_dir, exist_ok=True)
    by_bucket: dict[int, pd.DataFrame] = {}
    if len(sel_counts):
        sel_counts = sel_counts.copy()
        sel_counts["hb"] = [stable_hash(h) % num_partitions
                            for h in sel_counts["host"]]
        by_bucket = {int(b): g for b, g in sel_counts.groupby("hb", sort=False)}

    old_buckets: dict[int, str] = {}
    if os.path.isdir(old_dir):
        for d in os.listdir(old_dir):
            if d.startswith("hb="):
                old_buckets[int(d.split("=", 1)[1])] = os.path.join(old_dir, d)

    default_delay = delays["__default__"]
    for b in sorted(set(by_bucket) | set(old_buckets)):
        src = old_buckets.get(b)
        dst = os.path.join(new_dir, f"hb={b}")
        if b not in by_bucket:
            # untouched bucket: hardlink files forward — zero data read
            os.makedirs(dst, exist_ok=True)
            for f in os.listdir(src):
                if f.endswith(".parquet"):
                    os.link(os.path.join(src, f), os.path.join(dst, f))
            continue
        if src is not None:
            old = pq.read_table(src).to_pandas()
            if "next_allowed_ms" not in old.columns:  # pre-carryover ckpt
                old["next_allowed_ms"] = 0
            old = old[["host", "next_seq", "next_allowed_ms"]]
        else:
            old = pd.DataFrame({"host": pd.Series(dtype=object),
                                "next_seq": pd.Series(dtype="int64"),
                                "next_allowed_ms": pd.Series(dtype="int64")})
        add = by_bucket[b][["host", "n"]]
        merged = old.merge(add, on="host", how="outer")
        merged["n"] = merged["n"].fillna(0).astype("int64")
        merged["next_seq"] = (merged["next_seq"].fillna(0).astype("int64")
                              + merged["n"])
        merged["next_allowed_ms"] = merged["next_allowed_ms"].fillna(0).astype("int64")
        active = merged["n"] > 0
        if active.any():
            delay = merged["host"].map(lambda h: delays.get(h, default_delay))
            start = merged["next_allowed_ms"].clip(lower=rnd * round_ms)
            merged.loc[active, "next_allowed_ms"] = (
                start + merged["n"] * delay)[active].astype("int64")
        merged = (merged[["host", "next_seq", "next_allowed_ms"]]
                  .sort_values("host", kind="mergesort").reset_index(drop=True))
        os.makedirs(dst, exist_ok=True)
        pq.write_table(pa.Table.from_pandas(merged, preserve_index=False),
                       os.path.join(dst, "state-0.parquet"))


def run_crawl(
    pages_root: str,
    seeds: pa.Table,
    robots_df: pd.DataFrame,
    cfg: EngineConfig,
    ckpt_dir: str,
    resume: bool = True,
) -> dict:
    """Run (or resume) the crawl to completion; returns summary paths/counts
    and ``phase_s``: one ``{phase: seconds}`` dict per round this call ran.

    ``pages_root`` must be the hash-bucketed corpus layout produced by
    :func:`borges_ray.stages.fetch.write_pages_bucketed`.
    """
    if not resume:
        import shutil

        if os.path.isdir(ckpt_dir):
            shutil.rmtree(ckpt_dir)
    ckpt.clean_uncommitted(ckpt_dir)
    last = ckpt.last_committed_round(ckpt_dir)
    if last < 0:
        bootstrap(seeds, robots_df, cfg, ckpt_dir)
        last = 0
    else:
        ckpt.check_manifest(ckpt_dir, _layout(cfg))

    # URL-seen state is the committed checkpoint itself: each round's
    # partition tasks load that round's seen_filter files and confirm filter
    # positives against the committed seen_delta files, whose list is kept
    # here (resolved once, then extended as rounds commit) — no actor, no
    # re-hash of history on resume.
    seen_files = [
        f for r in range(last + 1) for f in _seen_delta_files(ckpt_dir, r)]

    delays = delays_from_robots(robots_df, cfg.default_delay_ms)
    delays_ref = ray.put(delays)
    _alw = (robots_df["allow_prefixes"]
            if "allow_prefixes" in robots_df.columns
            else [()] * len(robots_df))
    robots_ref = ray.put(
        {h: (tuple(p), tuple(a)) for h, p, a in
         zip(robots_df["host"], robots_df["disallow_prefixes"], _alw)}
    )

    def _fetch_parse(sel: rd.Dataset, rnd_tag: int) -> rd.Dataset:
        """Fetch-join + parse for one round's selection, pinned.  With a
        key pool configured, fetch runs on session actors (T2/S13); with
        ``render``, on browser-handle actors (S12) — identical rows,
        bookkeeping columns dropped before parse."""
        for mw in cfg.request_middlewares:
            sel = sel.map_batches(mw, batch_format="pyarrow")
        if cfg.fetcher is not None:
            fetched = cfg.fetcher(sel, cfg, rnd_tag)
        elif cfg.render:
            from ..stages.fetch import fetch_selected_render

            fetched = fetch_selected_render(
                sel, pages_root, cfg.num_buckets,
                flaky=cfg.flaky).drop_columns(["render_ms", "handle_gen"])
        elif cfg.api_keys:
            from ..stages.fetch import fetch_selected_sessions

            fetched = fetch_selected_sessions(
                sel, pages_root, cfg.num_buckets, tuple(cfg.api_keys),
                flaky=cfg.flaky).drop_columns(["key_idx"])
        else:
            fetched = fetch_selected(sel, pages_root, cfg.num_buckets,
                                     flaky=cfg.flaky)
        for mw in cfg.response_middlewares:
            fetched = fetched.map_batches(mw, batch_format="pyarrow")
        # The fetch emits ONE block per corpus bucket, so parse parallelism
        # was capped at num_buckets and skewed by the hottest bucket (a
        # single 3k-row block serialized 5+ s of per-page extraction).
        # A split-only streaming repartition rebalances fetched html into
        # ~parse_block_rows-row blocks — no all-to-all, bounded payload
        # (the selection is politeness-bounded) — so parse scales with
        # CPUs, not buckets.
        if cfg.parse_block_rows:
            fetched = fetched.repartition(
                target_num_rows_per_block=cfg.parse_block_rows)
        return parse_fetched(fetched, rnd_tag).materialize()

    def _read_frontier(round_dir: str) -> rd.Dataset:
        # metadata-driven scan blocks: bytes-scaled at design scale, small
        # for a ~1 MB sandbox frontier (see _scan_blocks)
        path = os.path.join(round_dir, "frontier")
        return rd.read_parquet(
            path, override_num_blocks=_scan_blocks(path, cfg.num_partitions))

    def _select(frontier: rd.Dataset, round_dir: str, r: int) -> rd.Dataset:
        # The selection is politeness-BOUNDED (≤ budget × hosts rows), so
        # pinning it in the object store is safe and saves a write→read
        # round trip.  Host counters come from the partitioned host-state
        # checkpoint — the driver never holds a hosts dict.
        return select_frontier(frontier, delays_ref,
                               os.path.join(round_dir, "host_state"),
                               num_partitions=cfg.num_partitions, rnd=r,
                               night_shift=cfg.night_shift,
                               round_ms=cfg.round_ms).materialize()

    def _prefetch(frontier: rd.Dataset, round_dir: str, r: int, times: dict):
        # round r's selection AND fetch-join + parse, run while round r-1's
        # tail finishes.  Nothing is persisted (round r writes the pinned
        # results itself), so crash/resume semantics are unchanged.  Timed
        # in round r-1's ``times`` under ``prefetch_*``: that is the wall
        # they overlap, and round r times only its wait for them.
        selected = _timed(times, "prefetch_select", _select, frontier,
                          round_dir, r)
        return selected, _timed(times, "prefetch_fetch_parse", _fetch_parse,
                                selected, r)

    def _host_state(selected: rd.Dataset, this_dir: str, next_dir: str,
                    r: int) -> pd.Series:
        # ONE small combiner pass over the pinned selection counts it per
        # (host, partition): the per-host sums fold into the partitioned
        # counter/clock table (politeness-BOUNDED, never O(all hosts)); the
        # per-partition sums are the METRICS ``selected`` column.
        parts = _tally_frame(selected.map_batches(
            lambda df: df.groupby(["host", "partition"], sort=False)
                         .size().rename("n").reset_index(),
            batch_format="pandas").to_pandas(),
            host=object, partition="int64", n="int64")
        _update_host_state(os.path.join(this_dir, "host_state"),
                           parts.groupby("host", sort=False)["n"].sum().reset_index(),
                           os.path.join(next_dir, "host_state"),
                           cfg.num_partitions, delays, r, cfg.round_ms)
        return parts.groupby("partition")["n"].sum()

    def _gate_split(parsed: rd.Dataset, this_dir: str, next_dir: str,
                    r: int) -> pd.DataFrame:
        # link candidates → per-partition winner + seen + robots gate → FUSED
        # split: ONE execution over the gated rows in which each task writes
        # its own block's frontier/seen/blocked parquet files (content-digest
        # names → idempotent under task retry) and returns only
        # (partition, blocked, n) tally rows; the gated rows are never pinned.
        # Partition tasks write next round's seen filters; partitions with
        # no candidates carry theirs forward.
        seen = seenfilter.SeenFilters(
            cfg.seen_filter, cfg.seen_capacity,
            os.path.join(this_dir, "seen_filter"),
            os.path.join(next_dir, "seen_filter"), tuple(seen_files))
        os.makedirs(seen.dst, exist_ok=True)
        tally = pd.DataFrame()
        if parsed.count():
            gated = gate_links(
                parsed.select_columns(["url", "status", "priority", "depth", "links"]),
                seen, robots_ref, r + 1, cfg.num_partitions, cfg.max_depth)
            dirs = [os.path.join(next_dir, d)
                    for d in ("frontier", "seen_delta", "crawled")]
            for d in dirs:
                os.makedirs(d, exist_ok=True)
            tally = gated.map_batches(_make_split_emit(r, *dirs),
                                      batch_format="pandas").to_pandas()
        seenfilter.carry_forward(seen.src, seen.dst, cfg.num_partitions)
        if not len(tally):
            _write_ds_into(os.path.join(next_dir, "seen_delta"),
                           schemas.SEEN.empty_table(), "links")
        return _tally_frame(tally, partition="int64", blocked=bool, n="int64")

    # --- the round loop ----------------------------------------------------
    # The overlapped phases of a round run as futures (*) on ONE executor
    # that lives as long as this call; each dependency is the place its
    # ``.result()`` is taken:
    #
    #   select ─┬─► host_state* ──────────────────────┬─► prefetch r+1*
    #           ├─► write_sel ──► defer* ─────────────┤   (select + fetch_parse)
    #           └─► fetch_parse ─┬─► gate_split ──────┘
    #                            └─► write_crawled* ──► metrics ──► commit
    #
    # Round r+1's prefetch needs round r+1's full frontier (deferred + new)
    # and host state, so it is submitted once defer, gate_split and
    # host_state are done, and overlaps round r's metrics + commit; round
    # r+1 takes its result instead of running select + fetch_parse itself.
    # The ``finally`` cancels futures not yet started and waits for running
    # ones, so on success or error no phase outlives the call (a resume
    # never races a writer of the uncommitted round).  Each round's times
    # also carry ``total`` (its wall seconds, start to commit), so
    # Σphase / total is the round's overlap.
    phase_s: list[dict[str, float]] = []
    prefetch = None  # this round's (frontier, Future[(selected, parsed)])
    rnd = last
    pool = ThreadPoolExecutor(max_workers=4, thread_name_prefix="borges-round")
    try:
        while rnd < cfg.max_rounds:
            this_dir = ckpt.round_dir(ckpt_dir, rnd)
            next_dir = ckpt.round_dir(ckpt_dir, rnd + 1)
            frontier_size = _count_rows(os.path.join(this_dir, "frontier"))
            if frontier_size == 0:
                break
            os.makedirs(next_dir, exist_ok=True)
            t_round, times = time.perf_counter(), {}
            phase_s.append(times)
            if prefetch is not None:
                frontier, fut = prefetch
                selected, parsed = _timed(times, "prefetch_wait", fut.result)
                prefetch = None
            else:
                frontier, parsed = _read_frontier(this_dir), None
                selected = _timed(times, "select", _select, frontier, this_dir, rnd)

            hs = pool.submit(_timed, times, "host_state", _host_state,
                             selected, this_dir, next_dir, rnd)
            # hive-partitioned by the url-hash partition: the deferral scan
            # reads per-partition membership slices instead of a broadcast
            # set.  Coalesce blocks first — the hive write fans out
            # blocks×partitions files otherwise
            sel_dir = os.path.join(next_dir, "selected")
            _timed(times, "write_sel", selected.repartition(2).write_parquet,
                   sel_dir, partition_cols=["partition"])
            defer = pool.submit(_timed, times, "defer", _write_ds_into,
                                os.path.join(next_dir, "frontier"),
                                defer_frontier(frontier, sel_dir), "deferred")
            if parsed is None:
                parsed = _timed(times, "fetch_parse", _fetch_parse, selected, rnd)
            wc = pool.submit(_timed, times, "write_crawled", _write_crawled,
                             parsed, os.path.join(next_dir, "crawled"))
            split_tally = _timed(times, "gate_split", _gate_split, parsed,
                                 this_dir, next_dir, rnd)

            defer.result()
            sel_tally = hs.result()
            if (rnd + 1 < cfg.max_rounds
                    and _count_rows(os.path.join(next_dir, "frontier"))):
                nf = _read_frontier(next_dir)
                prefetch = (nf, pool.submit(_prefetch, nf, next_dir, rnd + 1,
                                            times))
            fetch_tally = wc.result()
            _timed(times, "metrics", lambda: _write_ds_into(
                os.path.join(next_dir, "metrics"),
                _round_metrics(rnd, cfg.num_partitions, frontier_size,
                               sel_tally, fetch_tally, split_tally), "m"))
            _timed(times, "commit", ckpt.commit_round, ckpt_dir, rnd + 1)
            seen_files += _seen_delta_files(ckpt_dir, rnd + 1)
            times["total"] = round(time.perf_counter() - t_round, 4)
            rnd += 1
    finally:
        pool.shutdown(wait=True, cancel_futures=True)

    return {
        "ckpt_dir": ckpt_dir,
        "rounds": rnd,
        "crawled_rows": sum(
            _count_rows(os.path.join(ckpt.round_dir(ckpt_dir, r), "crawled"))
            for r in range(rnd + 1)
        ),
        "phase_s": phase_s,
    }


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
    # median seconds of each round phase, to find a slow one
    phases = dict.fromkeys(k for times in summary["phase_s"] for k in times)
    print("phase_s_p50 " + " ".join(
        f"{k}={statistics.median(t[k] for t in summary['phase_s'] if k in t):.3f}"
        for k in phases))
    ray.shutdown()


if __name__ == "__main__":
    _main()
