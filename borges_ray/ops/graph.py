"""Distributed link-graph analytics over crawl output.

PageRank is THE canonical crawl-tier batch computation: every web-scale
pipeline ranks its host/page graph to prioritize recrawl budgets and
weight quality signals (Page et al. 1999; the reference's crawl frontier
priorities are the per-publisher analogue).  This module implements a
fixed-iteration damped PageRank as pure Ray Data dataflow — the rank
table is a Dataset end-to-end, never driver state.

Physical shape (the classic partitioned-graph BSP layout, Pregel/GraphX
style): the EDGE list is hash-bucketed by source and spilled to disk
ONCE — edges never move again.  Each iteration exchanges only the
(small, node-sized) RANK table: ranks are bucket-written by the same
source hash (a linear streaming write), one task per bucket computes
out-degrees locally (the bucket holds ALL rows of its sources), turns
ranks into per-edge shares, and pre-aggregates contributions by
destination.  The per-bucket partials — unioned with a zero row per
node so in-linkless nodes keep their teleport mass without a separate
left join — reduce through one keys-only ``grouped_agg``.  Per
iteration: one node-table disk exchange + one combiner-bounded shuffle;
the O(edges) payload is touched only by local bucket reads.

Dangling-node mass is NOT redistributed (it decays) — the engine and
the SQL twin implement the same convention, so results stay comparable.
"""

from __future__ import annotations

import os
import tempfile

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import ray.data as rd


def _bucket_write(ds: rd.Dataset, key: str, n_buckets: int, tag: str) -> str:
    """Hive-partition a dataset by hash(key) % n_buckets (linear plan)."""
    def add_bkt(df: pd.DataFrame) -> pd.DataFrame:
        out = df.copy()
        h = pd.util.hash_pandas_object(df[key].astype(str), index=False)
        out["__bkt"] = (h.to_numpy() % np.uint64(n_buckets)).astype("int64")
        return out

    d = tempfile.mkdtemp(prefix=f"borges_{tag}_")
    ds.map_batches(add_bkt, batch_format="pandas").write_parquet(
        d, partition_cols=["__bkt"])
    return d


def _bucket_dirs(d: str) -> dict[int, str]:
    return {int(e.split("=", 1)[1]): os.path.join(d, e)
            for e in os.listdir(d) if e.startswith("__bkt=")}


def _leaf_files(d: str) -> list[str]:
    """All parquet leaf files under a hive-partitioned bucket dir."""
    out = []
    for root, _dirs, files in os.walk(d):
        out.extend(os.path.join(root, f) for f in files
                   if f.endswith(".parquet"))
    return sorted(out)


def pagerank(
    edges: rd.Dataset,
    *,
    src_col: str = "src",
    dst_col: str = "dst",
    iters: int = 2,
    damping: float = 0.85,
    round_to: int = 6,
    n_buckets: int = 16,
    trusted: "frozenset | set | None" = None,
) -> rd.Dataset:
    """Fixed-iteration PageRank over an edge Dataset.

    Multi-edges count multiplicity (a host linking twice contributes
    twice — matches the SQL twin's plain joins).  Returns
    ``(node, rank float round-`round_to`)`` for every node appearing as
    a source or destination.

    ``trusted``: TRUSTRANK mode (Gyöngyi et al. 2004) — the teleport
    mass is restricted to this whitelist: seed and teleport are
    ``1/|T|`` on trusted nodes and 0 elsewhere, so rank flows outward
    from the trusted set and spam islands unreachable from it decay to
    zero.  The whitelist is a SMALL curated set by construction — it is
    broadcast once via ``ray.put`` and membership-tested per batch, not
    joined.  ``None`` (default) is classic uniform-teleport PageRank.
    """
    import ray

    from .relational import grouped_agg, spill_point

    # edges partitioned by source hash ONCE; never shuffled again
    edir = _bucket_write(edges.select_columns([src_col, dst_col]),
                         src_col, n_buckets, "pr_e")
    ebkts = _bucket_dirs(edir)

    # node universe: src ∪ dst, distinct (keys-only shuffle)
    def _as_node(col):
        def fn(df: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame({"node": df[col]})
        return fn

    srcs = edges.map_batches(_as_node(src_col), batch_format="pandas")
    dsts = edges.map_batches(_as_node(dst_col), batch_format="pandas")
    nodes = spill_point(
        grouped_agg(srcs.union(dsts), ["node"], {"cnt": ("count", "node")})
        .select_columns(["node"]), "pr_nodes")
    n_nodes = int(nodes.count())  # scalar N — the only driver value
    tref = ray.put(frozenset(trusted)) if trusted is not None else None
    n_seed = len(trusted) if trusted is not None else n_nodes
    seed_mass = 1.0 / n_seed
    # division form (not reciprocal-multiply) to match the SQL twin's
    # 0.15/|T| rounding exactly
    teleport = (1.0 - damping) / n_seed

    def zero_rows(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"node": df["node"],
                             "c": np.zeros(len(df), dtype=np.float64)})

    zeros = nodes.map_batches(zero_rows, batch_format="pandas")

    def seed(df: pd.DataFrame) -> pd.DataFrame:
        if tref is None:
            r = np.full(len(df), seed_mass)
        else:
            r = np.where(df["node"].isin(ray.get(tref)), seed_mass, 0.0)
        return pd.DataFrame({"node": df["node"], "rank": r})

    ranks = nodes.map_batches(seed, batch_format="pandas")

    for it in range(iters):
        rdir = _bucket_write(ranks, "node", n_buckets, f"pr_r{it}")
        rbkts = _bucket_dirs(rdir)
        # only buckets that have edges matter (rank-only buckets hold
        # pure sinks, which contribute nothing)
        work = sorted(set(ebkts) & set(rbkts))
        paths = rd.from_items(
            [{"e": ebkts[b], "r": rbkts[b]} for b in work])

        def contrib_bucket(df: pd.DataFrame) -> pd.DataFrame:
            outs = []
            for e_dir, r_dir in zip(df["e"], df["r"]):
                e = pq.read_table(e_dir).to_pandas()
                r = pq.read_table(r_dir).to_pandas()
                if not len(e) or not len(r):
                    continue
                deg = e.groupby(src_col, sort=False).size().rename("deg")
                m = e.merge(r.rename(columns={"node": src_col}),
                            on=src_col, how="inner")
                m = m.merge(deg, left_on=src_col, right_index=True)
                m["c"] = (m["rank"].to_numpy(np.float64)
                          / m["deg"].to_numpy(np.float64))
                g = m.groupby(dst_col, sort=False)["c"].sum().reset_index()
                outs.append(g.rename(columns={dst_col: "node"}))
            if not outs:
                return pd.DataFrame({"node": pd.Series(dtype="object"),
                                     "c": pd.Series(dtype="float64")})
            return pd.concat(outs, ignore_index=True)

        partials = paths.repartition(max(1, len(work))).map_batches(
            contrib_bucket, batch_format="pandas")

        # zero row per node replaces a left join: every node appears in
        # the aggregate, in-linkless ones with c = 0 → teleport only
        summed = grouped_agg(partials.union(zeros), ["node"],
                             {"c": ("sum", "c")})

        def damp(df: pd.DataFrame, _t=teleport, _d=damping) -> pd.DataFrame:
            if tref is None:
                tele = _t
            else:
                tele = np.where(df["node"].isin(ray.get(tref)), _t, 0.0)
            return pd.DataFrame({
                "node": df["node"],
                "rank": tele + _d * df["c"].to_numpy(np.float64)})

        ranks = summed.map_batches(damp, batch_format="pandas")

    def finalize(df: pd.DataFrame) -> pd.DataFrame:
        out = df.copy()
        out["rank"] = out["rank"].round(round_to)
        return out

    return ranks.map_batches(finalize, batch_format="pandas")


def anchor_stats(links: rd.Dataset, target_col: str = "target",
                 anchor_col: str = "anchor") -> rd.Dataset:
    """Per-target ANCHOR-TEXT aggregation — the classic web-graph
    relevance signal (anchor text pointing at a page describes it better
    than the page itself; used by every production search/crawl stack
    since Brin & Page 1998 §2.2).  For each link target:
    ``n_links`` (in-links), ``n_distinct_anchors``, and ``top_anchor``
    (the most frequent anchor string; ties break to the
    lexicographically smallest).

    Scale shape: a per-batch ``(target, anchor)`` count combiner bounds
    the one exchange by DISTINCT (target, anchor) pairs, not link rows —
    a hot page with 10^8 in-links but few distinct anchors costs a few
    rows.  The per-target argmax is one vectorized sorted-groupby pass
    per hash bucket of the counts table (`groupby_buckets`), never a
    per-key Python call."""
    from .relational import grouped_agg, groupby_buckets

    counts = grouped_agg(links.select_columns([target_col, anchor_col]),
                         [target_col, anchor_col],
                         {"c": ("count", anchor_col)})

    def finalize(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return pd.DataFrame({target_col: pd.Series(dtype="int64"),
                                 "n_links": pd.Series(dtype="int64"),
                                 "n_distinct_anchors": pd.Series(dtype="int64"),
                                 "top_anchor": pd.Series(dtype="object")})
        df = df.sort_values([target_col, "c", anchor_col],
                            ascending=[True, False, True], kind="mergesort")
        g = df.groupby(target_col, sort=False)
        out = g.agg(n_links=("c", "sum"),
                    n_distinct_anchors=("c", "count"),
                    top_anchor=(anchor_col, "first")).reset_index()
        out["n_links"] = out["n_links"].astype("int64")
        out["n_distinct_anchors"] = out["n_distinct_anchors"].astype("int64")
        return out

    return groupby_buckets(counts, [target_col], finalize)


def hits(
    edges: rd.Dataset,
    *,
    src_col: str = "src",
    dst_col: str = "dst",
    iters: int = 2,
    round_to: int = 6,
    n_buckets: int = 16,
) -> rd.Dataset:
    """Fixed-iteration HITS (Kleinberg 1999) hubs/authorities over an
    edge Dataset, L1-normalized each half-step (sum = 1 — exactly
    SQL-recomputable, unlike the L2 norm whose sqrt compounds float
    error).  Returns ``(node, hub, authority)`` rounded to
    ``round_to`` for every node appearing as a source or destination.

    Physical shape mirrors :func:`pagerank`: the edge list is bucket-
    written TWICE (hashed by src for the authority step, by dst for the
    hub step) and never moves again; each half-step exchanges only the
    node-sized score table (one bucket write + a combiner-bounded
    aggregate), and the normalizing total is read back from the written
    buckets — one scalar on the driver, no score re-execution."""
    from .relational import grouped_agg, spill_point

    e2 = edges.select_columns([src_col, dst_col])
    es_dir = _bucket_write(e2, src_col, n_buckets, "hits_es")
    ed_dir = _bucket_write(e2, dst_col, n_buckets, "hits_ed")
    es_bkts, ed_bkts = _bucket_dirs(es_dir), _bucket_dirs(ed_dir)

    def _as_node(col):
        def fn(df: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame({"node": df[col]})
        return fn

    srcs = edges.map_batches(_as_node(src_col), batch_format="pandas")
    dsts = edges.map_batches(_as_node(dst_col), batch_format="pandas")
    nodes = spill_point(
        grouped_agg(srcs.union(dsts), ["node"], {"cnt": ("count", "node")})
        .select_columns(["node"]), "hits_nodes")
    n_nodes = int(nodes.count())

    def zero_rows(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"node": df["node"],
                             "v": np.zeros(len(df), dtype=np.float64)})

    zeros = nodes.map_batches(zero_rows, batch_format="pandas")

    def seed(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"node": df["node"],
                             "v": np.full(len(df), 1.0 / n_nodes)})

    h_dir = _bucket_write(nodes.map_batches(seed, batch_format="pandas"),
                          "node", n_buckets, "hits_h0")
    h_scale = 1.0

    def _halfstep(rank_dir: str, scale: float, ebkts: dict[int, str],
                  key_col: str, out_col: str, tag: str) -> tuple[str, float]:
        """Propagate normalized scores (stored raw / ``scale``) across the
        edge buckets keyed on ``key_col``, summing into ``out_col`` nodes;
        returns the RAW result's bucket dir and its normalizing total."""
        rbkts = _bucket_dirs(rank_dir)
        work = sorted(set(ebkts) & set(rbkts))
        paths = rd.from_items(
            [{"e": ebkts[b], "r": rbkts[b]} for b in work])

        def prop(df: pd.DataFrame, _s=scale) -> pd.DataFrame:
            outs = []
            for e_dir, r_dir in zip(df["e"], df["r"]):
                e = pq.read_table(e_dir).to_pandas()
                r = pq.read_table(r_dir).to_pandas()
                if not len(e) or not len(r):
                    continue
                m = e.merge(r.rename(columns={"node": key_col}),
                            on=key_col, how="inner")
                m["v"] = m["v"].to_numpy(np.float64) / _s
                g = m.groupby(out_col, sort=False)["v"].sum().reset_index()
                outs.append(g.rename(columns={out_col: "node"}))
            if not outs:
                return pd.DataFrame({"node": pd.Series(dtype="object"),
                                     "v": pd.Series(dtype="float64")})
            return pd.concat(outs, ignore_index=True)

        partials = paths.repartition(max(1, len(work))).map_batches(
            prop, batch_format="pandas")
        raw = grouped_agg(partials.union(zeros), ["node"], {"v": ("sum", "v")})
        d = _bucket_write(raw, "node", n_buckets, tag)
        # leaf files, not the hive dir: a hive-partitioned read reports no
        # schema to downstream ops in Ray 2.49
        total = rd.read_parquet(_leaf_files(d)).sum("v")
        total = float(total) if total else 0.0
        return d, (total if total > 0 else 1.0)

    a_dir, a_scale = h_dir, h_scale
    for it in range(iters):
        a_dir, a_scale = _halfstep(h_dir, h_scale, es_bkts,
                                   src_col, dst_col, f"hits_a{it}")
        h_dir, h_scale = _halfstep(a_dir, a_scale, ed_bkts,
                                   dst_col, src_col, f"hits_h{it + 1}")

    def _norm(scale: float, out: str):
        def fn(df: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame({
                "node": df["node"],
                out: (df["v"].to_numpy(np.float64) / scale).round(round_to)})
        return fn

    from .relational import hash_join

    hubs = rd.read_parquet(_leaf_files(h_dir)).map_batches(
        _norm(h_scale, "hub"), batch_format="pandas")
    auths = rd.read_parquet(_leaf_files(a_dir)).map_batches(
        _norm(a_scale, "authority"), batch_format="pandas")
    return hash_join(hubs, auths, on=["node"])


def redirect_resolve(
    edges: rd.Dataset,
    *,
    src_col: str = "src",
    dst_col: str = "dst",
    max_rounds: int = 5,
) -> rd.Dataset:
    """Resolve HTTP redirect chains to their final destination by
    POINTER DOUBLING: ``max_rounds`` rounds of keys-only left-outer
    self-joins resolve every chain of length <= 2**max_rounds - 1 in
    O(log chain) exchanges — never O(chain) sequential lookups and never
    a driver-side walk (the reference follows redirects one hop at a
    time inside each request, Borges/settings.py REDIRECT_ENABLED; a
    batch engine replaying a crawl's redirect map must collapse chains
    corpus-wide instead).

    Input: one row per redirecting URL ``(src, dst)`` — a FUNCTIONAL
    graph (each src has exactly one outgoing edge).  A URL is terminal
    iff it never appears as a src.  Returns one row per src:

    - resolved chains: ``(src, final_id, hops, resolved=True)``
    - redirect CYCLES (or chains longer than 2**max_rounds - 1):
      ``(src, final_id=-1, hops=-1, resolved=False)``

    Scale shape: the pointer table is 4 keys-only int64/bool columns —
    32 B/row no matter how long the chains are; each round is ONE
    hash-partitioned self-join plus a parquet spill that truncates
    lineage (the spill doubles as a resumable checkpoint).  Rows whose
    pointer already reached a terminal keep flowing through the join
    unmatched (a terminal id is never a src, so the left-outer probe is
    a guaranteed miss) — no union/branch split that would re-buffer the
    stream.  Early exit when a round leaves zero unresolved rows.
    """
    from .relational import hash_join, spill_point

    def init(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "src": df[src_col].astype("int64"),
            "cur": df[dst_col].astype("int64"),
            "hops": np.int64(1),
            "done": False,
        })

    ptr = spill_point(edges.map_batches(init, batch_format="pandas"),
                      "redirect0")
    if not ptr.count():  # empty redirect map: nothing to resolve
        return rd.from_pandas(pd.DataFrame({
            "src": pd.Series(dtype="int64"),
            "final_id": pd.Series(dtype="int64"),
            "hops": pd.Series(dtype="int64"),
            "resolved": pd.Series(dtype="bool")}))

    for rnd in range(max_rounds):
        # right side of the self-join: the same table keyed by src
        right = ptr.map_batches(
            lambda df: pd.DataFrame({
                "cur": df["src"], "cur2": df["cur"],
                "hops2": df["hops"], "done2": df["done"]}),
            batch_format="pandas")
        joined = hash_join(ptr, right, on=["cur"], join_type="left_outer")

        def jump(df: pd.DataFrame) -> pd.DataFrame:
            done = df["done"].to_numpy(bool)
            matched = df["cur2"].notna().to_numpy(bool)
            hit = matched & ~done
            miss = ~matched & ~done
            cur = df["cur"].to_numpy("int64").copy()
            hops = df["hops"].to_numpy("int64").copy()
            cur[hit] = pd.to_numeric(df["cur2"], errors="coerce") \
                .fillna(-1).to_numpy("int64")[hit]
            hops[hit] += pd.to_numeric(df["hops2"], errors="coerce") \
                .fillna(0).to_numpy("int64")[hit]
            done2 = df["done2"].astype("boolean").fillna(False) \
                .to_numpy(dtype=bool)
            new_done = done | miss | (hit & done2)
            return pd.DataFrame({"src": df["src"].astype("int64"), "cur": cur,
                                 "hops": hops, "done": new_done})

        ptr = spill_point(joined.map_batches(jump, batch_format="pandas"),
                          f"redirect{rnd + 1}")
        remaining = ptr.map_batches(
            lambda df: pd.DataFrame({"n": [int((~df["done"]).sum())]}),
            batch_format="pandas").sum("n")
        if not remaining:
            break

    def finalize(df: pd.DataFrame) -> pd.DataFrame:
        done = df["done"].to_numpy(bool)
        return pd.DataFrame({
            "src": df["src"].astype("int64"),
            "final_id": np.where(done, df["cur"].to_numpy("int64"),
                                 np.int64(-1)),
            "hops": np.where(done, df["hops"].to_numpy("int64"),
                             np.int64(-1)),
            "resolved": done,
        })

    return ptr.map_batches(finalize, batch_format="pandas")


def bfs_depths(
    edges: rd.Dataset,
    seeds: list[int],
    *,
    src_col: str = "src",
    dst_col: str = "dst",
    max_hops: int = 4,
    n_buckets: int = 16,
) -> rd.Dataset:
    """Minimum-hop BFS labeling from a seed set over a directed link
    graph — the batch replay of the crawl frontier's round structure
    (the reference reaches article pages seed → issue list → article in
    fixed hop counts, Borges/spiders/*/paper_scraper.py; labeling a
    finished crawl's pages by seed distance is the standard audit of
    that traversal and the classic crawl-depth prior for quality
    weighting).

    Level-synchronous BSP BFS in the :func:`_scc_fixpoint` layout: the
    EDGE list is hash-bucketed by source ONCE and never moves again;
    per hop ONE linear hive write exchanges the node-sized state
    stream — last hop's candidate messages plus the carried visited
    table — and the combine happens at bucket-READ time: the task
    dedups candidates against its visited slice, marks the fresh nodes
    (first = minimum depth), and expands them against its LOCAL edge
    bucket in the same pass.  Driver state: one summed new-node flag
    per hop, read from the written files.  (The previous shape paid a
    frontier bucket-write plus a tagged dedup shuffle plus two spills
    per hop — ~5 barriers; this is 2.)

    Returns ``(node int64, depth int64)`` for every node within
    ``max_hops`` of a seed, seeds at depth 0.  Unreachable nodes are
    absent (the SQL twin mirrors this).  Early-exits when a hop adds no
    new nodes.
    """
    edir = _bucket_write(edges.select_columns([src_col, dst_col]),
                         src_col, n_buckets, "bfs_e")
    ebkts = _bucket_dirs(edir)

    seed_pd = pd.DataFrame({
        "node": pd.Series(sorted(set(int(x) for x in seeds)), dtype="int64"),
        "depth": np.int64(0)})
    seed_pd["old"] = np.int8(0)   # seeds enter as depth-0 CANDIDATES
    seed_pd["ch"] = np.int64(0)
    cur_dir = _bucket_write(rd.from_pandas(seed_pd), "node", n_buckets,
                            "bfs_m0")

    empty_tmpl = pd.DataFrame({
        "node": pd.Series(dtype="int64"), "depth": pd.Series(dtype="int64"),
        "old": pd.Series(dtype="int8"), "ch": pd.Series(dtype="int64")})

    last_files = _leaf_files(cur_dir)
    for it in range(max_hops + 1):
        mbkts = _bucket_dirs(cur_dir)
        work = sorted(mbkts)
        if not work:
            break
        paths = rd.from_items(
            [{"m": mbkts[b], "e": ebkts.get(b, "")} for b in work])
        expand_this = it < max_hops

        def step(df: pd.DataFrame, _d=it) -> pd.DataFrame:
            outs = []
            for mdir, edir_ in zip(df["m"], df["e"]):
                m = pq.read_table(
                    mdir, columns=["node", "depth", "old"]).to_pandas()
                if not len(m):
                    continue
                vis = m.loc[m["old"] == 1]
                cand = m.loc[m["old"] == 0, "node"].unique()
                fresh = (cand[~pd.Index(cand).isin(vis["node"])]
                         if len(cand) else cand)
                out_v = pd.DataFrame({
                    "node": np.concatenate(
                        [vis["node"].to_numpy("int64"),
                         fresh.astype("int64")]),
                    "depth": np.concatenate(
                        [vis["depth"].to_numpy("int64"),
                         np.full(len(fresh), _d, dtype="int64")]),
                    "old": np.int8(1),
                    "ch": np.concatenate(
                        [np.zeros(len(vis), dtype="int64"),
                         np.ones(len(fresh), dtype="int64")])})
                outs.append(out_v)
                if expand_this and edir_ and len(fresh):
                    e = pq.read_table(edir_).to_pandas()
                    hit = e.loc[e[src_col].isin(set(fresh.tolist())),
                                dst_col].unique()
                    if len(hit):
                        outs.append(pd.DataFrame({
                            "node": hit.astype("int64"),
                            "depth": np.full(len(hit), _d + 1,
                                             dtype="int64"),
                            "old": np.int8(0),
                            "ch": np.zeros(len(hit), dtype="int64")}))
            if not outs:
                return empty_tmpl.copy()
            return pd.concat(outs, ignore_index=True)

        stream = paths.repartition(max(1, len(work))).map_batches(
            step, batch_format="pandas")
        cur_dir = _bucket_write(stream, "node", n_buckets, f"bfs_m{it + 1}")
        last_files = _leaf_files(cur_dir)
        n_new = (int(rd.read_parquet(last_files, columns=["ch"]).sum("ch"))
                 if last_files else 0)
        if n_new == 0:
            break

    out_tmpl = pd.DataFrame({"node": pd.Series(dtype="int64"),
                             "depth": pd.Series(dtype="int64")})
    from .relational import schema_anchor
    if not last_files:
        return schema_anchor(rd.from_pandas(out_tmpl), out_tmpl)
    out = rd.read_parquet(last_files).map_batches(
        lambda df: df.loc[df["old"] == 1, ["node", "depth"]]
        .astype("int64"),
        batch_format="pandas")
    return schema_anchor(out, out_tmpl)


def triangle_counts(
    edges: rd.Dataset,
    *,
    src_col: str = "src",
    dst_col: str = "dst",
    undirected: bool = False,
    deg_ds: rd.Dataset | None = None,
) -> rd.Dataset:
    """Per-node triangle participation counts over an undirected graph —
    the classic link-farm / nepotistic-cluster signal (a spam clique is
    a triangle factory; organic web neighborhoods are locally sparse).

    Degree-ordered orientation (Suri & Vassilvitskii 2011, "Counting
    triangles and the curse of the last reducer"): every undirected edge
    is oriented from its (degree, id)-SMALLER endpoint to the larger, so
    each wedge-spawning task fans out O(out-degree²) pairs where
    out-degree is bounded by ~√m even at a celebrity node — the hot-key
    cure that a naive adjacency self-join lacks.  Pipeline, keys-only
    throughout: distinct undirected edges → endpoint degrees
    (``grouped_agg``) → two hash-joins attach degrees → orient → wedge
    spawn per oriented source (bucketed, vectorized pair fan-out) →
    hash-join wedges against the oriented edge set (a closing edge
    between x and y, x below y in the total order, is ALWAYS stored as
    x→y, so one equi-join finds it) → explode each triangle to its 3
    corners → per-node ``grouped_agg``.

    Returns ``(node int64, n_triangles int64)`` for nodes in ≥1 triangle.
    """
    from .relational import (BROADCAST_MAX_ROWS as _BCAST_MAX,
                             attach_or_filter, distinct, grouped_agg,
                             groupby_buckets, hash_join, run_pair_indices,
                             schema_anchor, spill_point)

    def undirect(df: pd.DataFrame) -> pd.DataFrame:
        a = df[src_col].to_numpy("int64")
        b = df[dst_col].to_numpy("int64")
        keep = a != b
        a, b = a[keep], b[keep]
        return pd.DataFrame({"u": np.minimum(a, b), "v": np.maximum(a, b)})

    raw = None
    dedup_late = False
    if undirected:
        # caller guarantees a distinct non-loop (u, v) edge set, already
        # pinned — skip the re-scan and the distinct exchange.  With no
        # caller degree table the broadcast-orient dispatch below still
        # needs an edge stream: the (already distinct) input serves as
        # ``raw`` directly (late dedup is then a no-op).
        und = edges
        if deg_ds is None:
            raw = edges
    elif deg_ds is None:
        # defer the distinct: the broadcast-orient path below dedups LATE
        # (inside the wedge bucket + the driver closing set), so the
        # multigraph never pays an edge-sized distinct exchange.  Degrees
        # counted over the multigraph still give a valid deterministic
        # total order for orientation (the Suri-Vassilvitskii bound is a
        # balance heuristic, not a correctness condition).  ``raw`` stays
        # LAZY — its two consumers re-run a cheap pruned read + numpy map
        # rather than paying a spill.
        raw = edges.map_batches(undirect, batch_format="pandas")
        und = None
    else:
        und = spill_point(distinct(
            edges.map_batches(undirect, batch_format="pandas"), ["u", "v"]),
            "tri_und")

    def orient_arrays(u: np.ndarray, v: np.ndarray, du_: np.ndarray,
                      dv_: np.ndarray) -> pd.DataFrame:
        # lexicographic (deg, id): u first iff deg_u < deg_v, tie on id.
        # deg_b rides along so wedge pairs can be emitted already in the
        # (deg, id) total order — the closing edge is then ALWAYS x→y
        # and the probe needs no reversed union
        a_first = (du_ < dv_) | ((du_ == dv_) & (u < v))
        return pd.DataFrame({"a": np.where(a_first, u, v),
                             "b": np.where(a_first, v, u),
                             "deg_b": np.where(a_first, dv_, du_)})

    if deg_ds is not None:
        # caller supplies the (node, deg) table of ``und`` (already
        # pinned): attach both endpoint degrees, then orient map-side
        def orient(df: pd.DataFrame) -> pd.DataFrame:
            return orient_arrays(df["u"].to_numpy("int64"),
                                 df["v"].to_numpy("int64"),
                                 df["deg_u"].to_numpy("int64"),
                                 df["deg_v"].to_numpy("int64"))

        withdeg = attach_or_filter(und, deg_ds, "node",
                                   {"u": {"deg": "deg_u"},
                                    "v": {"deg": "deg_v"}}, "inner")
        oriented = spill_point(
            withdeg.map_batches(orient, batch_format="pandas"), "tri_or")
    elif (_rng := raw.map_batches(
            lambda df: pd.DataFrame(
                {"lo": [np.int64(min(df["u"].min(), df["v"].min()))],
                 "hi": [np.int64(max(df["u"].max(), df["v"].max()))]})
            if len(df) else
            pd.DataFrame({"lo": pd.Series(dtype="int64"),
                          "hi": pd.Series(dtype="int64")}),
            batch_format="pandas").to_pandas()) is not None \
            and len(_rng) \
            and int(_rng["hi"].max()) - int(_rng["lo"].min()) < _BCAST_MAX:
        # broadcast-orient path, guarded by the node-ID RANGE (an upper
        # bound on node count readable from one cheap min/max pass — no
        # count job, no spilled degree table): the degree table is
        # node-sized and combiner-bounded (per-block partial counts → one
        # tiny merge), so put it ONCE as two sorted arrays and orient
        # every edge map-side — no edge-sized exchange at all.  Past the
        # guard the fused tagged-exchange path handles the 10^8+-node
        # case (sparse-but-small-id corpora fall back conservatively).
        import ray as _ray

        deg_pd = grouped_agg(
            raw.map_batches(
                lambda df: pd.DataFrame({"node": np.concatenate(
                    [df["u"].to_numpy("int64"),
                     df["v"].to_numpy("int64")])}),
                batch_format="pandas"),
            ["node"], {"deg": ("count", "node")}).to_pandas() \
            .sort_values("node")
        ref_deg = _ray.put((deg_pd["node"].to_numpy("int64"),
                            deg_pd["deg"].to_numpy("int64")))

        def orient_bcast(df: pd.DataFrame) -> pd.DataFrame:
            if not len(df):
                return pd.DataFrame({c: pd.Series(dtype="int64")
                                     for c in ("a", "b", "deg_b")})
            keys, vals = _ray.get(ref_deg)
            u = df["u"].to_numpy("int64")
            v = df["v"].to_numpy("int64")
            return orient_arrays(u, v, vals[np.searchsorted(keys, u)],
                                 vals[np.searchsorted(keys, v)])

        oriented = spill_point(
            raw.map_batches(orient_bcast, batch_format="pandas"), "tri_or")
        dedup_late = True
    else:
        if und is None:
            # node table too big to broadcast: fall back to the fused
            # exchanges, which REQUIRE a distinct edge set
            und = spill_point(distinct(raw, ["u", "v"]), "tri_und")
        # fused path, two exchanges instead of degree-agg + two joins:
        # ONE node-keyed exchange counts each endpoint's degree in-bucket
        # and re-emits the edge tagged with that endpoint's degree; ONE
        # edge-keyed exchange zips the two tagged halves and orients.
        # No degree table ever materializes, and the edge set is scanned
        # once (the deg-feeding-two-joins shape ran the exchange twice).
        def endpoint_rows(df: pd.DataFrame) -> pd.DataFrame:
            u = df["u"].to_numpy("int64")
            v = df["v"].to_numpy("int64")
            return pd.DataFrame({
                "node": np.concatenate([u, v]),
                "other": np.concatenate([v, u]),
                "is_u": np.concatenate([np.ones(len(u), np.int8),
                                        np.zeros(len(v), np.int8)])})

        ep = und.map_batches(endpoint_rows, batch_format="pandas")

        def attach_deg(df: pd.DataFrame) -> pd.DataFrame:
            if not len(df):
                return pd.DataFrame({"u": pd.Series(dtype="int64"),
                                     "v": pd.Series(dtype="int64"),
                                     "d": pd.Series(dtype="int64"),
                                     "side": pd.Series(dtype="int8")})
            deg = df.groupby("node", sort=False)["node"].transform("size")
            isu = df["is_u"].to_numpy(np.int8) == 1
            node = df["node"].to_numpy("int64")
            other = df["other"].to_numpy("int64")
            return pd.DataFrame({"u": np.where(isu, node, other),
                                 "v": np.where(isu, other, node),
                                 "d": deg.to_numpy("int64"),
                                 "side": df["is_u"].to_numpy(np.int8)})

        tagged = groupby_buckets(ep, ["node"], attach_deg)

        def merge_orient(df: pd.DataFrame) -> pd.DataFrame:
            if not len(df):
                return pd.DataFrame({"a": pd.Series(dtype="int64"),
                                     "b": pd.Series(dtype="int64"),
                                     "deg_b": pd.Series(dtype="int64")})
            f = df.sort_values(["u", "v", "side"], kind="mergesort")
            u = f["u"].to_numpy("int64")
            v = f["v"].to_numpy("int64")
            d = f["d"].to_numpy("int64")
            # ``und`` is distinct, so each (u, v) contributes EXACTLY two
            # consecutive rows here: side 0 carries deg_v, side 1 deg_u
            if len(u) % 2 or (u[0::2] != u[1::2]).any() \
                    or (v[0::2] != v[1::2]).any():
                raise AssertionError(
                    "triangle_counts: edge rows did not pair up — "
                    "input edge set was not distinct")
            return orient_arrays(u[0::2], v[0::2], d[1::2], d[0::2])

        oriented = spill_point(
            groupby_buckets(tagged, ["u", "v"], merge_orient), "tri_or")

    # packed fast path: when node ids fit in 31 bits, the wedge pair
    # (x, y) travels as ONE int64 and the closing probe joins on a
    # single key — fewer wire bytes and a single-column bucket merge.
    def rng_partial(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame({"lo": pd.Series(dtype="int64"),
                                 "hi": pd.Series(dtype="int64")})
        return pd.DataFrame({
            "lo": [np.int64(min(df["a"].min(), df["b"].min()))],
            "hi": [np.int64(max(df["a"].max(), df["b"].max()))]})

    rng = oriented.map_batches(rng_partial, batch_format="pandas").to_pandas()
    packable = bool(len(rng)) and int(rng["lo"].min()) >= 0 \
        and int(rng["hi"].max()) < (1 << 31)
    PACK = np.int64(1) << np.int64(32)

    def wedges(df: pd.DataFrame) -> pd.DataFrame:
        empty = (pd.DataFrame({"xy": pd.Series(dtype="int64"),
                               "center": pd.Series(dtype="int64")})
                 if packable else
                 pd.DataFrame({"x": pd.Series(dtype="int64"),
                               "y": pd.Series(dtype="int64"),
                               "center": pd.Series(dtype="int64")}))
        if not len(df):
            return empty
        order = np.lexsort((df["b"].to_numpy(), df["deg_b"].to_numpy(),
                            df["a"].to_numpy()))
        a = df["a"].to_numpy("int64")[order]
        b = df["b"].to_numpy("int64")[order]
        cut = np.flatnonzero(a[1:] != a[:-1]) + 1
        starts = np.concatenate(([0], cut))
        ends_ = np.concatenate((cut, [len(a)]))
        # vectorized in-run pair fan-out (orientation bounds run sizes);
        # within a run b is sorted by (deg_b, b), so first < second in
        # the (deg, id) total order — exactly how closing edges are stored
        fst, snd = run_pair_indices(ends_ - starts)
        if not len(fst):
            return empty
        x, y, c = b[fst], b[snd], a[fst]
        if packable:
            return pd.DataFrame({"xy": x * PACK + y, "center": c})
        return pd.DataFrame({"x": x, "y": y, "center": c})

    n_edges_or = int(oriented.count()) if packable else 0
    if dedup_late and not (packable and n_edges_or <= _BCAST_MAX):
        # the join paths below require distinct oriented edges
        oriented = spill_point(
            distinct(oriented, ["a", "b", "deg_b"]), "tri_or_d")
    if packable and n_edges_or <= _BCAST_MAX:
        # broadcast closing probe: the oriented edge set packs to ONE
        # sorted int64 array (8 B/edge — ~5 MB at 600k edges), put ONCE;
        # each wedge task spawns, closes (searchsorted membership) and
        # pre-counts corners IN PLACE, so the O(Σ outdeg²) wedge pairs
        # never cross the wire at all.  Past the guard the pair-shuffle
        # hash-join path below takes over (the 100 TB shape).
        import ray as _ray

        closing_xy = np.unique(oriented.map_batches(
            lambda df: pd.DataFrame(
                {"xy": df["a"].to_numpy("int64") * PACK
                       + df["b"].to_numpy("int64")}),
            batch_format="pandas").to_pandas()["xy"].to_numpy("int64"))
        ref = _ray.put(closing_xy)

        def wedges_closed(df: pd.DataFrame) -> pd.DataFrame:
            empty = pd.DataFrame({"node": pd.Series(dtype="int64"),
                                  "n_partial": pd.Series(dtype="int64")})
            if not len(df):
                return empty
            order = np.lexsort((df["b"].to_numpy(), df["deg_b"].to_numpy(),
                                df["a"].to_numpy()))
            a = df["a"].to_numpy("int64")[order]
            b = df["b"].to_numpy("int64")[order]
            if dedup_late and len(a) > 1:
                # multigraph edges sort adjacent — drop exact repeats so
                # each undirected edge spawns wedges exactly once
                keep = np.concatenate(
                    ([True], (a[1:] != a[:-1]) | (b[1:] != b[:-1])))
                a, b = a[keep], b[keep]
            cut = np.flatnonzero(a[1:] != a[:-1]) + 1
            starts = np.concatenate(([0], cut))
            ends_ = np.concatenate((cut, [len(a)]))
            fst, snd = run_pair_indices(ends_ - starts)
            if not len(fst):
                return empty
            x, y, c = b[fst], b[snd], a[fst]
            cs = _ray.get(ref)
            xy = x * PACK + y
            pos = np.searchsorted(cs, xy)
            pos_c = np.minimum(pos, len(cs) - 1)
            m = (pos < len(cs)) & (cs[pos_c] == xy)
            if not m.any():
                return empty
            uq, cnt = np.unique(
                np.concatenate([x[m], y[m], c[m]]), return_counts=True)
            return pd.DataFrame({"node": uq.astype("int64"),
                                 "n_partial": cnt.astype("int64")})

        partials = schema_anchor(
            groupby_buckets(oriented, ["a"], wedges_closed),
            pd.DataFrame({"node": pd.Series(dtype="int64"),
                          "n_partial": pd.Series(dtype="int64")}))
        out = grouped_agg(partials, ["node"],
                          {"n_triangles": ("sum", "n_partial")})
        return out.map_batches(
            lambda df: pd.DataFrame(
                {"node": df["node"].astype("int64"),
                 "n_triangles": df["n_triangles"].astype("int64")}),
            batch_format="pandas")

    if packable:
        wset = schema_anchor(
            groupby_buckets(oriented, ["a"], wedges),
            pd.DataFrame({"xy": pd.Series(dtype="int64"),
                          "center": pd.Series(dtype="int64")}))
        closing = oriented.map_batches(
            lambda df: pd.DataFrame({
                "xy": df["a"].to_numpy("int64") * PACK
                      + df["b"].to_numpy("int64"), "__c": 1}),
            batch_format="pandas")
        tri = hash_join(wset, closing, on=["xy"])
        corners = tri.map_batches(
            lambda df: pd.DataFrame({"node": np.concatenate([
                (df["xy"].to_numpy("int64") // PACK),
                (df["xy"].to_numpy("int64") % PACK),
                df["center"].to_numpy("int64")])}),
            batch_format="pandas")
    else:
        wset = schema_anchor(
            groupby_buckets(oriented, ["a"], wedges),
            pd.DataFrame({"x": pd.Series(dtype="int64"),
                          "y": pd.Series(dtype="int64"),
                          "center": pd.Series(dtype="int64")}))
        # wedge pairs are emitted in the (deg, id) total order, the same
        # order the closing edge is stored in — one equi-join suffices
        closing = oriented.map_batches(
            lambda df: pd.DataFrame({"x": df["a"], "y": df["b"],
                                     "__c": 1}),
            batch_format="pandas")
        tri = hash_join(wset, closing, on=["x", "y"])
        corners = tri.map_batches(
            lambda df: pd.DataFrame({"node": np.concatenate([
                df["x"].to_numpy("int64"), df["y"].to_numpy("int64"),
                df["center"].to_numpy("int64")])}),
            batch_format="pandas")
    out = grouped_agg(corners, ["node"], {"n_triangles": ("count", "node")})
    return out.map_batches(
        lambda df: pd.DataFrame({"node": df["node"].astype("int64"),
                                 "n_triangles":
                                 df["n_triangles"].astype("int64")}),
        batch_format="pandas")


def mirror_hosts(
    pages: rd.Dataset,
    *,
    host_col: str = "host",
    fp_col: str = "fp",
    max_fp_hosts: int = 64,
    min_shared: int = 2,
    round_to: int = 6,
) -> rd.Dataset:
    """Mirror-site detection: host pairs whose content-fingerprint SETS
    overlap (Bharat & Broder 1999, "A comparison of techniques to find
    mirrored hosts" — the standard crawl-side dedup of whole mirrored
    sites BEFORE page-level near-dup runs, since a mirror farm inflates
    every downstream frequency statistic).

    Input: one row per (host, fingerprint) observation — the caller
    fingerprints page content (e.g. token-window hashes).  Pipeline, all
    keys-only exchanges (host string + u64 fp):

    1. per-block pre-dedup of (host, fp); the cross-block residue drops
       inside each bucketed consumer (no standalone distinct exchange —
       both exchanges below co-locate duplicates by construction).
    2. per-host distinct-fp sizes via a host-bucketed grouped map.
    3. bucketed groupby on fp spawns host PAIRS per shared fingerprint —
       one lexsort + run-length segments per bucket block (the MinHash
       band-spawn shape).  Fingerprints on more than ``max_fp_hosts``
       hosts are DROPPED, not capped: a chunk present on hundreds of
       hosts is boilerplate (a stop-fingerprint), carries no mirror
       signal, and would spawn O(hosts²) pairs — the Bharat-Broder
       stop-list rule, applied identically in the SQL twin.
    4. pair counts sum through one combiner-bounded shuffle; pairs
       under ``min_shared`` drop.
    5. both set sizes attach through one size-guarded lookup of the
       host table (:func:`~.relational.attach_or_filter`: a broadcast of
       24 B/host, or two hash joins past the guard);
       Jaccard = shared/(|A|+|B|-shared).

    Returns ``(host_a, host_b, shared int64, jaccard float)`` with
    host_a < host_b.  No driver state at any step past the broadcast
    guard — at 10^8+ hosts the size table stays a Dataset.
    """
    from .relational import (attach_or_filter, grouped_agg, groupby_buckets,
                             schema_anchor, spill_point)

    # per-block pre-dedup only — BOTH downstream consumers key their
    # bucketed exchange by a superset-colocating key (host for sizes, fp
    # for the pair spawn), so cross-block duplicates land in one block
    # and drop there: the standalone distinct exchange disappears
    pre = spill_point(
        pages.map_batches(
            lambda df: df[[host_col, fp_col]].drop_duplicates(),
            batch_format="pandas"), "mh_pre")

    def host_sizes(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame({host_col: pd.Series(dtype="object"),
                                 "n": pd.Series(dtype="int64")})
        g = (df.drop_duplicates().groupby(host_col, sort=False)[fp_col]
             .nunique().astype("int64"))
        return g.rename("n").reset_index()

    sizes = spill_point(groupby_buckets(pre, [host_col], host_sizes),
                        "mh_sz")

    def spawn(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"host_a": pd.Series(dtype="object"),
                              "host_b": pd.Series(dtype="object"),
                              "shared": pd.Series(dtype="int64")})
        if not len(df):
            return empty
        df = df.drop_duplicates()  # cross-block dups co-located by fp
        order = np.lexsort((df[host_col].to_numpy(),
                            df[fp_col].to_numpy()))
        fps = df[fp_col].to_numpy()[order]
        hosts = df[host_col].to_numpy()[order]
        cut = np.flatnonzero(fps[1:] != fps[:-1]) + 1
        starts = np.concatenate(([0], cut))
        ends = np.concatenate((cut, [len(fps)]))
        out_a, out_b = [], []
        for s, e in zip(starts, ends):
            m = e - s
            if m < 2 or m > max_fp_hosts:
                continue  # singleton or stop-fingerprint
            hs = hosts[s:e]  # already sorted, distinct by construction
            ia, ib = np.triu_indices(m, k=1)
            out_a.append(hs[ia])
            out_b.append(hs[ib])
        if not out_a:
            return empty
        pairs = pd.DataFrame({"host_a": np.concatenate(out_a),
                              "host_b": np.concatenate(out_b)})
        g = pairs.groupby(["host_a", "host_b"], sort=False).size()
        return g.rename("shared").reset_index()

    partial = groupby_buckets(pre, [fp_col], spawn)
    counts = schema_anchor(
        grouped_agg(partial, ["host_a", "host_b"],
                    {"shared": ("sum", "shared")}).map_batches(
            lambda df: df[df["shared"] >= min_shared],
            batch_format="pandas"),
        pd.DataFrame({"host_a": pd.Series(dtype="object"),
                      "host_b": pd.Series(dtype="object"),
                      "shared": pd.Series(dtype="int64")}))
    # spilled so the lookup reads its schema without re-running the two
    # exchanges above
    j = attach_or_filter(spill_point(counts, "mh_cnt"), sizes, host_col,
                         {"host_a": {"n": "n_a"}, "host_b": {"n": "n_b"}},
                         "inner")

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        sh = df["shared"].to_numpy("int64")
        un = (df["n_a"].to_numpy("int64") + df["n_b"].to_numpy("int64") - sh)
        return pd.DataFrame({
            "host_a": df["host_a"], "host_b": df["host_b"],
            "shared": sh,
            "jaccard": np.round(sh / un.astype("float64"), round_to)})

    return j.map_batches(finish, batch_format="pandas")


def degree_powerlaw(ids: rd.Dataset, *, id_col: str = "node",
                    round_to: int = 6) -> rd.Dataset:
    """Log-log least-squares fit of the out-degree histogram — the
    classic web-graph power-law audit (Broder et al. 2000, "Graph
    structure in the Web": in/out-degree distributions follow
    ``P(deg = k) ∝ k^slope`` with slope ≈ -2.1/-2.7).  A crawl whose
    fitted slope drifts far from the expected exponent is the standard
    smoke signal for frontier capture by spider traps or link farms.

    ``ids`` is one row per edge carrying the source node in ``id_col``
    (degree = row count per node).  Everything is combiner-bounded and
    keys-only: per-node degree (``grouped_agg``), degree histogram
    (``grouped_agg``, ≤ |distinct degrees| rows), then per-batch partial
    sums of (1, x, y, xy, x²) over (x, y) = (ln deg, ln n) reduce through
    ONE single-key exchange of five scalars per block — no histogram or
    node table ever reaches the driver.

    Returns one row ``(slope, intercept, n_points)`` with slope/intercept
    rounded to ``round_to`` — bit-comparable to DuckDB's
    ``regr_slope(ln(n), ln(deg))`` / ``regr_intercept`` over the same
    histogram (both sides are plain float64 normal equations; a <2-point
    or zero-variance histogram yields NaN like SQL's NULL).
    """
    from .relational import grouped_agg

    deg = grouped_agg(ids, [id_col], {"deg": ("count", id_col)})
    hist = grouped_agg(deg, ["deg"], {"n": ("count", "deg")})

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame({"__k": pd.Series(dtype="int64"),
                                 **{c: pd.Series(dtype="float64")
                                    for c in ("pn", "sx", "sy", "sxy", "sxx")}})
        x = np.log(df["deg"].to_numpy(np.float64))
        y = np.log(df["n"].to_numpy(np.float64))
        return pd.DataFrame({
            "__k": np.int64(0), "pn": [float(len(x))],
            "sx": [x.sum()], "sy": [y.sum()],
            "sxy": [(x * y).sum()], "sxx": [(x * x).sum()]})

    sums = grouped_agg(
        hist.map_batches(partial, batch_format="pandas"), ["__k"],
        {c: ("sum", c) for c in ("pn", "sx", "sy", "sxy", "sxx")})

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame({"slope": pd.Series(dtype="float64"),
                                 "intercept": pd.Series(dtype="float64"),
                                 "n_points": pd.Series(dtype="int64")})
        n = df["pn"].to_numpy(np.float64)
        sx, sy = df["sx"].to_numpy(np.float64), df["sy"].to_numpy(np.float64)
        sxy, sxx = df["sxy"].to_numpy(np.float64), df["sxx"].to_numpy(np.float64)
        den = n * sxx - sx * sx
        with np.errstate(divide="ignore", invalid="ignore"):
            slope = np.where(den != 0.0, (n * sxy - sx * sy) / den, np.nan)
            intercept = np.where(n > 0, (sy - slope * sx) / n, np.nan)
        return pd.DataFrame({"slope": np.round(slope, round_to) + 0.0,
                             "intercept": np.round(intercept, round_to) + 0.0,
                             "n_points": n.astype("int64")})

    return sums.map_batches(finish, batch_format="pandas")


def reciprocity(edges: rd.Dataset, *, src_col: str = "src",
                dst_col: str = "dst", round_to: int = 6) -> rd.Dataset:
    """Link reciprocity of a directed graph: the fraction of distinct
    non-loop edges u→v whose reverse v→u also exists.  On the web graph
    reciprocity is a nepotism signal — organic hyperlinks are strongly
    asymmetric, while link-exchange rings and mirror farms produce
    near-symmetric subgraphs (the same intuition as Bharat-Broder mirror
    detection, but purely structural).

    ONE keys-only exchange end-to-end: every raw edge maps to its
    UNDIRECTED key plus a direction bit ``(lo, hi, dir)`` with per-block
    dedup; a single bucketed exchange co-locates each unordered pair,
    where the number of distinct direction bits (1 or 2) yields both the
    distinct-directed-edge count and the reciprocal count in place —
    the distinct exchange, the reversed copy and the semi-join of the
    naive plan all collapse into this one shuffle, and only two scalars
    per bucket block reduce through the final single-key exchange.

    Returns one row ``(n_edges, n_recip, reciprocity)``; an empty edge
    set yields ``(0, 0, NaN)`` (SQL's NULL ratio).
    """
    from .relational import grouped_agg, groupby_buckets

    def clean(df: pd.DataFrame) -> pd.DataFrame:
        u = df[src_col].to_numpy("int64")
        v = df[dst_col].to_numpy("int64")
        keep = u != v
        u, v = u[keep], v[keep]
        return pd.DataFrame({"lo": np.minimum(u, v),
                             "hi": np.maximum(u, v),
                             "d": (u > v).astype(np.int8)}).drop_duplicates()

    tagged = edges.map_batches(clean, batch_format="pandas")

    def part(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"__k": pd.Series(dtype="int64"),
                              "n_edges": pd.Series(dtype="int64"),
                              "n_recip": pd.Series(dtype="int64")})
        if not len(df):
            return empty
        g = df.drop_duplicates()  # cross-block dupes are co-located here
        nd = g.groupby(["lo", "hi"], sort=False)["d"].nunique()
        return pd.DataFrame({"__k": [np.int64(0)],
                             "n_edges": [np.int64(nd.sum())],
                             "n_recip": [np.int64(2 * (nd == 2).sum())]})

    parts = groupby_buckets(tagged, ["lo", "hi"], part)
    # zero-row anchor: an empty graph still yields the (0, 0, NaN) row
    anchor = pd.DataFrame({"__k": [np.int64(0)], "n_edges": [np.int64(0)],
                           "n_recip": [np.int64(0)]})
    parts = rd.from_pandas(anchor).union(parts)
    sums = grouped_agg(parts, ["__k"],
                       {"n_edges": ("sum", "n_edges"),
                        "n_recip": ("sum", "n_recip")})

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        ne = df["n_edges"].to_numpy("int64")
        nr = df["n_recip"].to_numpy("int64")
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(ne > 0, nr / np.where(ne > 0, ne, 1), np.nan)
        return pd.DataFrame({"n_edges": ne, "n_recip": nr,
                             "reciprocity": np.round(ratio, round_to)})

    return sums.map_batches(finish, batch_format="pandas")


def clustering_coefficient(edges: rd.Dataset, *, src_col: str = "src",
                           dst_col: str = "dst",
                           round_to: int = 6) -> rd.Dataset:
    """Local clustering coefficient per node — triangles over wedges,
    ``cc = 2T / (deg·(deg-1))`` (Watts & Strogatz 1998).  Completes the
    link-farm audit that :func:`triangle_counts` starts: a spam clique
    has cc ≈ 1 at every member, organic hub pages sit near 0, so the
    (deg, cc) scatter separates nepotistic clusters from navigational
    hubs.

    Composition, keys-only: the triangle table from
    :func:`triangle_counts` (degree-ordered oriented wedge join) is
    LEFT-joined onto the degree table of the distinct undirected edge
    set, missing triangle counts fill 0, and the ratio is a vectorized
    per-batch map.  Nodes of degree < 2 have no wedge (cc undefined) and
    are excluded, matching SQL semantics.

    Returns ``(node int64, n_triangles int64, cc float64)``.
    """
    from .relational import distinct, grouped_agg, hash_join, spill_point

    def undirect(df: pd.DataFrame) -> pd.DataFrame:
        a = df[src_col].to_numpy("int64")
        b = df[dst_col].to_numpy("int64")
        keep = a != b
        a, b = a[keep], b[keep]
        return pd.DataFrame({"u": np.minimum(a, b), "v": np.maximum(a, b)})

    # spilled ONCE and shared by the degree table and the triangle join —
    # without the pin the source scan + distinct exchange run twice
    und = spill_point(
        distinct(edges.map_batches(undirect, batch_format="pandas"),
                 ["u", "v"]), "cc_und")
    ends = und.map_batches(
        lambda df: pd.DataFrame(
            {"node": np.concatenate([df["u"].to_numpy("int64"),
                                     df["v"].to_numpy("int64")])}),
        batch_format="pandas")
    # pinned: deg feeds the cc join AND the orientation inside
    # triangle_counts — one exchange instead of three
    deg = spill_point(
        grouped_agg(ends, ["node"], {"deg": ("count", "node")}), "cc_deg")
    deg2 = deg.map_batches(lambda df: df[df["deg"] >= 2],
                           batch_format="pandas")

    tri = triangle_counts(und, undirected=True, deg_ds=deg)
    j = hash_join(deg2, tri, on=["node"], join_type="left")

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        d = df["deg"].to_numpy(np.float64)
        t = df["n_triangles"].to_numpy(np.float64)
        t = np.where(np.isnan(t), 0.0, t)
        cc = np.round((2.0 * t) / (d * (d - 1.0)), round_to)
        return pd.DataFrame({"node": df["node"].to_numpy("int64"),
                             "n_triangles": t.astype("int64"),
                             "cc": cc})

    return j.map_batches(finish, batch_format="pandas")


def degree_assortativity(edges: rd.Dataset, *, src_col: str = "src",
                         dst_col: str = "dst",
                         round_to: int = 6) -> rd.Dataset:
    """Degree assortativity coefficient of the undirected link graph —
    the Pearson correlation of endpoint degrees over edges (Newman 2002,
    "Assortative mixing in networks").  The web is disassortative
    (r < 0: hubs link to leaves); a crawl segment whose r drifts
    positive is the textbook signature of a link farm, where
    high-degree spam pages densely cross-link each other.

    Keys-only throughout: distinct undirected edges → endpoint degree
    table (``grouped_agg`` combiner) → two hash-joins attach
    (deg_u, deg_v) → per-batch partial sums of the Pearson sufficient
    statistics over the SYMMETRIZED pair set (each edge contributes
    (du, dv) and (dv, du), so Σx = Σy and Σx² = Σy² and only four
    scalars (n, sx, sxx, sxy) cross the final single-key exchange, five
    doubles per block.  No edge or node table ever reaches the driver.

    Returns one row ``(r float64, n_edges int64)`` with ``r`` rounded to
    ``round_to`` — bit-comparable to DuckDB ``corr(x, y)`` over the
    two-orientation UNION ALL (Pearson r is the same under sample or
    population normalization, so the combiner form matches exactly).
    A graph with < 2 distinct degree values yields NaN like SQL NULL.
    """
    from .relational import (attach_or_filter, distinct, grouped_agg,
                             spill_point)

    def undirect(df: pd.DataFrame) -> pd.DataFrame:
        a = df[src_col].to_numpy("int64")
        b = df[dst_col].to_numpy("int64")
        keep = a != b
        a, b = a[keep], b[keep]
        return pd.DataFrame({"u": np.minimum(a, b), "v": np.maximum(a, b)})

    und = spill_point(
        distinct(edges.map_batches(undirect, batch_format="pandas"),
                 ["u", "v"]), "assort_und")
    ends = und.map_batches(
        lambda df: pd.DataFrame(
            {"node": np.concatenate([df["u"].to_numpy("int64"),
                                     df["v"].to_numpy("int64")])}),
        batch_format="pandas")
    deg = spill_point(
        grouped_agg(ends, ["node"], {"deg": ("count", "node")}), "asrt_deg")
    withdeg = attach_or_filter(und, deg, "node",
                               {"u": {"deg": "deg_u"}, "v": {"deg": "deg_v"}},
                               "inner")

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        cols = ("pn", "sx", "sxx", "sxy")
        if not len(df):
            return pd.DataFrame({"__k": pd.Series(dtype="int64"),
                                 **{c: pd.Series(dtype="float64")
                                    for c in cols}})
        a = df["deg_u"].to_numpy(np.float64)
        b = df["deg_v"].to_numpy(np.float64)
        # symmetrized: each edge counts as (a, b) AND (b, a)
        return pd.DataFrame({
            "__k": np.int64(0), "pn": [2.0 * len(a)],
            "sx": [(a + b).sum()],
            "sxx": [(a * a + b * b).sum()],
            "sxy": [2.0 * (a * b).sum()]})

    sums = grouped_agg(
        withdeg.map_batches(partial, batch_format="pandas"), ["__k"],
        {c: ("sum", c) for c in ("pn", "sx", "sxx", "sxy")})

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame({"r": pd.Series(dtype="float64"),
                                 "n_edges": pd.Series(dtype="int64")})
        n = df["pn"].to_numpy(np.float64)
        sx = df["sx"].to_numpy(np.float64)
        sxx = df["sxx"].to_numpy(np.float64)
        sxy = df["sxy"].to_numpy(np.float64)
        var = n * sxx - sx * sx          # = n²·Var(x), and Var(y) == Var(x)
        cov = n * sxy - sx * sx          # Σy = Σx under symmetrization
        with np.errstate(divide="ignore", invalid="ignore"):
            r = np.where(var > 0.0, cov / var, np.nan)
        return pd.DataFrame({"r": np.round(r, round_to),
                             "n_edges": (n / 2.0).astype("int64")})

    return sums.map_batches(finish, batch_format="pandas")


def adamic_adar(edges: rd.Dataset, *, src_col: str = "src",
                dst_col: str = "dst", k: int = 100, max_deg: int = 256,
                round_to: int = 6) -> pd.DataFrame:
    """Adamic-Adar link prediction (Adamic & Adar 2003, "Friends and
    neighbors on the Web"): for every non-adjacent pair (x, y) sharing
    ≥1 neighbor, score = Σ over common neighbors z of 1/ln(deg(z)) —
    the crawl-side use is seed discovery (which un-crawled host pairs
    are almost certainly connected) and nepotism auditing (a pair with
    huge AA but no edge is a link farm one edit away).

    Same hot-key discipline as :func:`triangle_counts`: the quadratic
    wedge fan-out happens per CENTER node, so centers above ``max_deg``
    are dropped (a celebrity hub contributes ≈1/ln(deg)→0 per pair
    anyway — the cap removes O(deg²) work for a vanishing score term,
    and the SQL oracle applies the identical cap, keeping the twin
    exact).  Pipeline, keys-only: distinct undirected edges → degree
    table → eligible centers (2 ≤ deg ≤ max_deg) carrying w = 1/ln(deg)
    → both-orientation adjacency hash-joined to center weights →
    bucketed per-center neighbor-pair fan-out → (x, y) sum exchange →
    hash ANTI-join against the edge set drops already-linked pairs →
    combiner-bounded global top-k.

    Returns a pandas DataFrame ``(x int64, y int64, score float64)`` of
    the top ``k`` pairs by (rounded score desc, x, y) — top-k results
    are small by construction.
    """
    from .relational import (distinct, grouped_agg, groupby_buckets,
                             hash_join, hash_semi_join, schema_anchor,
                             spill_point, topk)

    def undirect(df: pd.DataFrame) -> pd.DataFrame:
        a = df[src_col].to_numpy("int64")
        b = df[dst_col].to_numpy("int64")
        keep = a != b
        a, b = a[keep], b[keep]
        return pd.DataFrame({"u": np.minimum(a, b), "v": np.maximum(a, b)})

    und = spill_point(
        distinct(edges.map_batches(undirect, batch_format="pandas"),
                 ["u", "v"]), "aa_und")
    ends = und.map_batches(
        lambda df: pd.DataFrame(
            {"node": np.concatenate([df["u"].to_numpy("int64"),
                                     df["v"].to_numpy("int64")])}),
        batch_format="pandas")
    deg = grouped_agg(ends, ["node"], {"deg": ("count", "node")})

    def eligible(df: pd.DataFrame) -> pd.DataFrame:
        d = df["deg"].to_numpy("int64")
        m = (d >= 2) & (d <= max_deg)
        return pd.DataFrame({"center": df["node"].to_numpy("int64")[m],
                             "w": 1.0 / np.log(d[m].astype(np.float64))})

    ctr = deg.map_batches(eligible, batch_format="pandas")
    adj = und.map_batches(
        lambda df: pd.DataFrame({"center": np.concatenate(
            [df["u"].to_numpy("int64"), df["v"].to_numpy("int64")]),
            "nbr": np.concatenate(
            [df["v"].to_numpy("int64"), df["u"].to_numpy("int64")])}),
        batch_format="pandas")

    # broadcast fast path (both guards node/edge-sized): center weights
    # attach via searchsorted instead of a shuffle join, and the packed
    # edge set rides into the SPAWN task so already-linked pairs drop
    # BEFORE the pair exchange — the anti-join stage disappears and the
    # quadratic pair stream shrinks at its source.  Requires node ids in
    # 31 bits for the x*2^32+y pack; falls back to the shuffle shape.
    from .relational import BROADCAST_MAX_ROWS as _AA_BCAST
    ctr_pd = None
    rng_df = und.map_batches(
        lambda df: pd.DataFrame(
            {"lo": [np.int64(df["u"].min())] if len(df) else
             pd.Series(dtype="int64"),
             "hi": [np.int64(df["v"].max())] if len(df) else
             pd.Series(dtype="int64")}),
        batch_format="pandas").to_pandas()
    packable_aa = (len(rng_df) and int(rng_df["lo"].min()) >= 0
                   and int(rng_df["hi"].max()) < (1 << 31))
    if packable_aa and int(und.count()) <= _AA_BCAST:
        ctr_pd = ctr.to_pandas().sort_values("center")
    if ctr_pd is not None and len(ctr_pd) <= _AA_BCAST:
        import ray as _ray

        PK = np.int64(1) << np.int64(32)
        und_pd = und.to_pandas()
        edge_pk = np.sort(und_pd["u"].to_numpy("int64") * PK
                          + und_pd["v"].to_numpy("int64"))
        ref_aa = _ray.put((ctr_pd["center"].to_numpy("int64"),
                           ctr_pd["w"].to_numpy(np.float64), edge_pk))

        def pairs_b(df: pd.DataFrame) -> pd.DataFrame:
            empty = pd.DataFrame({"x": pd.Series(dtype="int64"),
                                  "y": pd.Series(dtype="int64"),
                                  "w": pd.Series(dtype="float64")})
            if not len(df):
                return empty
            ck, cw, epk = _ray.get(ref_aa)
            if not len(ck) or not len(epk):
                return empty
            c0 = df["center"].to_numpy("int64")
            pos = np.searchsorted(ck, c0)
            pos_c = np.minimum(pos, len(ck) - 1)
            elig = (pos < len(ck)) & (ck[pos_c] == c0)
            if not elig.any():
                return empty
            sub = df.loc[elig]
            order = np.lexsort((sub["nbr"].to_numpy(),
                                sub["center"].to_numpy()))
            c = sub["center"].to_numpy("int64")[order]
            nb = sub["nbr"].to_numpy("int64")[order]
            w = cw[np.searchsorted(ck, c)]
            cut = np.flatnonzero(c[1:] != c[:-1]) + 1
            starts = np.concatenate(([0], cut))
            stops = np.concatenate((cut, [len(c)]))
            xs, ys, ws = [], [], []
            for s, e in zip(starts, stops):
                m = e - s
                if m < 2:
                    continue
                n_ = nb[s:e]      # sorted: x < y comes out of triu free
                ia, ib = np.triu_indices(m, k=1)
                xs.append(n_[ia])
                ys.append(n_[ib])
                ws.append(np.full(len(ia), w[s]))
            if not xs:
                return empty
            x = np.concatenate(xs)
            y = np.concatenate(ys)
            wv = np.concatenate(ws)
            pk = x * PK + y
            p2 = np.searchsorted(epk, pk)
            p2c = np.minimum(p2, len(epk) - 1)
            linked = (p2 < len(epk)) & (epk[p2c] == pk)
            keep = ~linked
            # per-block pre-sum by pair before the exchange
            g = (pd.DataFrame({"pk": pk[keep], "w": wv[keep]})
                 .groupby("pk", sort=False)["w"].sum())
            pks = g.index.to_numpy("int64")
            return pd.DataFrame({"x": pks // PK, "y": pks % PK,
                                 "w": g.to_numpy(np.float64)})

        wset = schema_anchor(
            groupby_buckets(adj, ["center"], pairs_b),
            pd.DataFrame({"x": pd.Series(dtype="int64"),
                          "y": pd.Series(dtype="int64"),
                          "w": pd.Series(dtype="float64")}))
        scored = grouped_agg(wset, ["x", "y"], {"score": ("sum", "w")})
        rounded = scored.map_batches(
            lambda df: pd.DataFrame({"x": df["x"].astype("int64"),
                                     "y": df["y"].astype("int64"),
                                     "score": df["score"].round(round_to)}),
            batch_format="pandas")
        rounded = schema_anchor(
            rounded, pd.DataFrame({"x": pd.Series(dtype="int64"),
                                   "y": pd.Series(dtype="int64"),
                                   "score": pd.Series(dtype="float64")}))
        return topk(rounded, ["score"], k, tiebreak=["x", "y"])

    wadj = hash_join(adj, ctr, on=["center"])

    def pairs(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"x": pd.Series(dtype="int64"),
                              "y": pd.Series(dtype="int64"),
                              "w": pd.Series(dtype="float64")})
        if not len(df):
            return empty
        order = np.lexsort((df["nbr"].to_numpy(), df["center"].to_numpy()))
        c = df["center"].to_numpy("int64")[order]
        nb = df["nbr"].to_numpy("int64")[order]
        w = df["w"].to_numpy(np.float64)[order]
        cut = np.flatnonzero(c[1:] != c[:-1]) + 1
        starts = np.concatenate(([0], cut))
        stops = np.concatenate((cut, [len(c)]))
        xs, ys, ws = [], [], []
        for s, e in zip(starts, stops):
            m = e - s
            if m < 2:
                continue
            n_ = nb[s:e]          # sorted, so x < y comes out of triu free
            ia, ib = np.triu_indices(m, k=1)
            xs.append(n_[ia])
            ys.append(n_[ib])
            ws.append(np.full(len(ia), w[s]))
        if not xs:
            return empty
        return pd.DataFrame({"x": np.concatenate(xs),
                             "y": np.concatenate(ys),
                             "w": np.concatenate(ws)})

    wset = schema_anchor(
        groupby_buckets(wadj, ["center"], pairs),
        pd.DataFrame({"x": pd.Series(dtype="int64"),
                      "y": pd.Series(dtype="int64"),
                      "w": pd.Series(dtype="float64")}))
    scored = grouped_agg(wset, ["x", "y"], {"score": ("sum", "w")})
    exy = und.map_batches(
        lambda df: pd.DataFrame({"x": df["u"], "y": df["v"]}),
        batch_format="pandas")
    novel = hash_semi_join(scored, exy, on=["x", "y"], anti=True)
    rounded = novel.map_batches(
        lambda df: pd.DataFrame({"x": df["x"].astype("int64"),
                                 "y": df["y"].astype("int64"),
                                 "score": df["score"].round(round_to)}),
        batch_format="pandas")
    # When no center survives the cap, the exchanges upstream may have run a
    # zero-row sort (schema-less dataset); re-anchor so topk's final frame
    # keeps its columns.
    rounded = schema_anchor(
        rounded, pd.DataFrame({"x": pd.Series(dtype="int64"),
                               "y": pd.Series(dtype="int64"),
                               "score": pd.Series(dtype="float64")}))
    return topk(rounded, ["score"], k, tiebreak=["x", "y"])


def cocitation(edges: rd.Dataset, *, src_col: str = "src",
               dst_col: str = "dst", k: int = 100, min_count: int = 2,
               max_fanout: int = 256) -> pd.DataFrame:
    """Co-citation coupling (Small 1973, "Co-citation in the scientific
    literature"): count, for every pair of target pages (x, y), how many
    distinct sources cite BOTH — the classic webgraph relatedness signal
    (pages co-cited by many hubs are topically related), and the dual of
    bibliographic coupling (Kessler 1963), which is this op run with
    src/dst swapped.

    The pair fan-out is quadratic per SOURCE, so sources with out-degree
    above ``max_fanout`` are dropped — the directory-page/hot-hub cap
    that every production co-citation job applies (a source citing
    thousands of pages carries near-zero relatedness signal per pair) —
    and the SQL oracle applies the identical cap so the twin stays
    exact.  Keys-only pipeline: distinct directed edges → out-degree
    (``grouped_agg`` combiner) → eligible sources (2 ≤ outdeg ≤ cap)
    semi-join → bucketed per-source target-pair fan-out → (x, y) count
    exchange → ``min_count`` gate → combiner-bounded global top-k.
    All-integer arithmetic: no float rounding concerns anywhere.

    Perf: pairs are combined INSIDE each source bucket (lexsort +
    run-length count) before they hit the wire, and when node ids fit
    in 31 bits (the common case — checked per batch) the (x, y) count
    exchange runs on ONE packed int64 key with ``np.unique``/``bincount``
    kernels instead of a two-column pandas groupby: a third the bytes
    on the wire and ~3× the merge throughput.  Ids ≥ 2³¹ or negative
    fall back to the two-column path with identical results.

    Returns a pandas DataFrame ``(x int64, y int64, n int64)`` of the
    top ``k`` pairs by (n desc, x, y).
    """
    from .relational import (attach_or_filter, distinct, grouped_agg,
                             groupby_buckets, schema_anchor, spill_point,
                             topk)

    PACK = np.int64(1) << np.int64(32)

    def clean(df: pd.DataFrame) -> pd.DataFrame:
        a = df[src_col].to_numpy("int64")
        b = df[dst_col].to_numpy("int64")
        keep = a != b
        return pd.DataFrame({"s": a[keep], "d": b[keep]})

    e = spill_point(
        distinct(edges.map_batches(clean, batch_format="pandas"),
                 ["s", "d"]), "cocite_e")

    def id_range(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame({"lo": pd.Series(dtype="int64"),
                                 "hi": pd.Series(dtype="int64")})
        return pd.DataFrame({
            "lo": [np.int64(min(df["s"].min(), df["d"].min()))],
            "hi": [np.int64(max(df["s"].max(), df["d"].max()))]})

    rng = e.map_batches(id_range, batch_format="pandas").to_pandas()
    packable = bool(len(rng)) and int(rng["lo"].min()) >= 0 \
        and int(rng["hi"].max()) < (1 << 31)

    outdeg = grouped_agg(e, ["s"], {"od": ("count", "d")})
    elig = spill_point(outdeg.map_batches(
        lambda df: df[(df["od"] >= 2) & (df["od"] <= max_fanout)][["s"]],
        batch_format="pandas"), "cocite_el")
    el = attach_or_filter(e, elig, "s", {"s": {}}, "semi")

    def pairs(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"x": pd.Series(dtype="int64"),
                              "y": pd.Series(dtype="int64"),
                              "n": pd.Series(dtype="int64")})
        if not len(df):
            return empty
        order = np.lexsort((df["d"].to_numpy(), df["s"].to_numpy()))
        s = df["s"].to_numpy("int64")[order]
        d = df["d"].to_numpy("int64")[order]
        cut = np.flatnonzero(s[1:] != s[:-1]) + 1
        starts = np.concatenate(([0], cut))
        stops = np.concatenate((cut, [len(s)]))
        xs, ys = [], []
        for lo, hi in zip(starts, stops):
            m = hi - lo
            if m < 2:
                continue
            t = d[lo:hi]          # sorted, so x < y falls out of triu
            ia, ib = np.triu_indices(m, k=1)
            xs.append(t[ia])
            ys.append(t[ib])
        if not xs:
            return empty
        # in-bucket combiner: collapse repeated (x, y) pairs to counts
        # BEFORE they hit the wire — the raw fan-out is quadratic per
        # source (tens of M rows at sf0.1) while distinct pairs per
        # bucket are bounded by the target-space square; one lexsort +
        # run-length count shrinks the count exchange several-fold.
        x = np.concatenate(xs)
        y = np.concatenate(ys)
        if packable:
            kk = x * PACK + y
            u, inv = np.unique(kk, return_inverse=True)
            cnt = np.bincount(inv).astype("int64")
            return pd.DataFrame({"x": (u // PACK).astype("int64"),
                                 "y": (u % PACK).astype("int64"),
                                 "n": cnt})
        o = np.lexsort((y, x))
        x, y = x[o], y[o]
        new = np.flatnonzero((x[1:] != x[:-1]) | (y[1:] != y[:-1])) + 1
        st = np.concatenate(([0], new))
        cnt = np.diff(np.concatenate((st, [len(x)])))
        return pd.DataFrame({"x": x[st], "y": y[st],
                             "n": cnt.astype("int64")})

    wedge = schema_anchor(
        groupby_buckets(el, ["s"], pairs),
        pd.DataFrame({"x": pd.Series(dtype="int64"),
                      "y": pd.Series(dtype="int64"),
                      "n": pd.Series(dtype="int64")}))

    if packable:
        # single packed-key count exchange: a third the wire bytes and
        # np.unique/bincount merge kernels instead of a pandas groupby
        def pack(df: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame({
                "kk": df["x"].to_numpy("int64") * PACK
                      + df["y"].to_numpy("int64"),
                "n": df["n"].to_numpy("int64")})

        def count_k(df: pd.DataFrame) -> pd.DataFrame:
            if not len(df):
                return pd.DataFrame({"x": pd.Series(dtype="int64"),
                                     "y": pd.Series(dtype="int64"),
                                     "n": pd.Series(dtype="int64")})
            u, inv = np.unique(df["kk"].to_numpy("int64"),
                               return_inverse=True)
            s = np.bincount(inv, weights=df["n"].to_numpy("float64"))
            n = s.astype("int64")        # counts ≤ #sources ≪ 2^53: exact
            keep = n >= min_count
            u, n = u[keep], n[keep]
            return pd.DataFrame({"x": (u // PACK).astype("int64"),
                                 "y": (u % PACK).astype("int64"),
                                 "n": n})

        gated = schema_anchor(
            groupby_buckets(wedge.map_batches(pack, batch_format="pandas"),
                            ["kk"], count_k),
            pd.DataFrame({"x": pd.Series(dtype="int64"),
                          "y": pd.Series(dtype="int64"),
                          "n": pd.Series(dtype="int64")}))
        return topk(gated, ["n"], k, tiebreak=["x", "y"])

    counted = grouped_agg(wedge, ["x", "y"], {"n": ("sum", "n")})
    gated = schema_anchor(
        counted.map_batches(
            lambda df: df[df["n"] >= min_count].astype(
                {"x": "int64", "y": "int64", "n": "int64"}),
            batch_format="pandas"),
        pd.DataFrame({"x": pd.Series(dtype="int64"),
                      "y": pd.Series(dtype="int64"),
                      "n": pd.Series(dtype="int64")}))
    return topk(gated, ["n"], k, tiebreak=["x", "y"])


def bib_coupling(edges: rd.Dataset, *, src_col: str = "src",
                 dst_col: str = "dst", k: int = 100, min_count: int = 2,
                 max_fanout: int = 256) -> pd.DataFrame:
    """Bibliographic coupling (Kessler 1963): count, for every pair of
    CITING pages (x, y), how many distinct targets both cite — the exact
    dual of :func:`cocitation` (swap the roles of source and target), so
    it IS cocitation run over the reversed edge set.  The
    ``max_fanout`` cap therefore lands on target IN-degree: a page cited
    by thousands of documents (a home page, a license stub) carries
    near-zero coupling signal per pair and would fan out quadratically.

    Returns a pandas DataFrame ``(x int64, y int64, n int64)`` of the
    top ``k`` citing-page pairs by (n desc, x, y).
    """

    def rev(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"src": df[dst_col].to_numpy("int64"),
                             "dst": df[src_col].to_numpy("int64")})

    return cocitation(edges.map_batches(rev, batch_format="pandas"),
                      k=k, min_count=min_count, max_fanout=max_fanout)


def link_health(edges: rd.Dataset, *, src_col: str = "src",
                dst_col: str = "dst") -> pd.DataFrame:
    """One-row structural health audit of a link graph — the numbers a
    crawl operator reads before trusting any downstream graph analytics:
    node/edge counts, self-loop fraction (template bugs emit them),
    dangling fraction (nodes cited but never crawled — in-degree > 0,
    out-degree 0; they leak PageRank mass), max in/out degree (hub and
    directory-page extremes), and mean out-degree.

    Keys-only throughout: distinct edges once, per-endpoint degree
    combiners, and ONE tagged-union exchange classifies every node as
    has-out / has-in (no outer join): each degree table emits (node,
    flag) rows and a ``grouped_agg`` max per node collapses them.
    Scalars reduce via per-block partials — the driver never sees a
    row-level frame.

    Returns one row: ``(n_nodes, n_edges, self_loops, dangling, max_out,
    max_in)`` as int64 plus ``(self_loop_frac, dangling_frac, avg_out)``
    rounded to 6 decimals.  ``self_loop_frac`` is over DISTINCT edges
    including loops; ``n_edges``/degrees exclude loops.
    """
    from .relational import distinct, grouped_agg, spill_point

    eall = spill_point(distinct(
        edges.select_columns([src_col, dst_col]), [src_col, dst_col]),
        "health_e")

    def loop_partial(df: pd.DataFrame) -> pd.DataFrame:
        loops = int((df[src_col].to_numpy("int64")
                     == df[dst_col].to_numpy("int64")).sum())
        return pd.DataFrame({"n_all": [np.int64(len(df))],
                             "loops": [np.int64(loops)]})

    lp = eall.map_batches(loop_partial, batch_format="pandas").to_pandas()
    n_all, loops = int(lp["n_all"].sum()), int(lp["loops"].sum())
    n_edges = n_all - loops

    e = eall.map_batches(
        lambda df: df[df[src_col] != df[dst_col]], batch_format="pandas")
    outdeg = grouped_agg(e, [src_col], {"d": ("count", dst_col)})
    indeg = grouped_agg(e, [dst_col], {"d": ("count", src_col)})

    def tag(col: str, out_flag: int):
        def fn(df: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame({"node": df[col].astype("int64"),
                                 "ho": np.int64(out_flag),
                                 "hi": np.int64(1 - out_flag)})
        return fn

    tagged = (outdeg.map_batches(tag(src_col, 1), batch_format="pandas")
              .union(indeg.map_batches(tag(dst_col, 0),
                                       batch_format="pandas")))
    nodes = grouped_agg(tagged, ["node"],
                        {"ho": ("max", "ho"), "hi": ("max", "hi")})

    def node_partial(df: pd.DataFrame) -> pd.DataFrame:
        dang = int(((df["hi"] == 1) & (df["ho"] == 0)).sum())
        return pd.DataFrame({"n": [np.int64(len(df))],
                             "dang": [np.int64(dang)]})

    npart = nodes.map_batches(node_partial, batch_format="pandas").to_pandas()
    n_nodes, dangling = int(npart["n"].sum()), int(npart["dang"].sum())

    def max_of(ds_, col="d") -> int:
        p = ds_.map_batches(
            lambda df: pd.DataFrame({"m": [np.int64(df[col].max())]})
            if len(df) else pd.DataFrame({"m": pd.Series(dtype="int64")}),
            batch_format="pandas").to_pandas()
        return int(p["m"].max()) if len(p) else 0

    max_out, max_in = max_of(outdeg), max_of(indeg)
    return pd.DataFrame({
        "n_nodes": pd.Series([n_nodes], dtype="int64"),
        "n_edges": pd.Series([n_edges], dtype="int64"),
        "self_loops": pd.Series([loops], dtype="int64"),
        "dangling": pd.Series([dangling], dtype="int64"),
        "max_out": pd.Series([max_out], dtype="int64"),
        "max_in": pd.Series([max_in], dtype="int64"),
        "self_loop_frac": [round(loops / n_all, 6) if n_all else 0.0],
        "dangling_frac": [round(dangling / n_nodes, 6) if n_nodes else 0.0],
        "avg_out": [round(n_edges / n_nodes, 6) if n_nodes else 0.0]})


def kcore(
    edges: rd.Dataset,
    *,
    k: int = 4,
    src_col: str = "src",
    dst_col: str = "dst",
    max_rounds: int = 12,
) -> rd.Dataset:
    """K-core decomposition by iterative peeling (Seidman 1983): drop
    every node with degree < ``k``, recompute degrees, repeat to a
    fixpoint — the classic link-spam / community-density signal (spam
    farms live in dense cores; the k-core is the maximal subgraph with
    min-degree ≥ k).

    Distributed round = one grouped degree count + one keys-only ANTI
    lookup on both endpoints removing edges that touch the round's DEAD
    set (nodes whose degree fell under ``k``).  The dead set is the
    lookup side — after round 1 it is a small fringe, broadcast under
    the guard (two anti-joins past it), so the wire carries the
    shrinking edge list plus a handful of distinct node keys; the edge
    list spills to parquet per round so lineage stays flat.  The driver
    sees ONE scalar per round (the dead count, for the convergence
    test).  Removing dead-incident edges from the surviving edge set is
    exactly the recursive CTE's edge-set peel (the dead set only ever
    shrinks the subgraph), which is what lets the SQL twin express the
    same fixpoint.

    ``max_rounds`` bounds the shuffle count; a path graph peels two
    nodes per round, so pathological chains need ``max_rounds`` ≈
    diameter — the convergence break exits early on real (short-fused)
    web graphs.  Returns ``(node, deg)`` — degree within the core
    subgraph — for every surviving node.
    """
    from .relational import attach_or_filter, grouped_agg, spill_point

    def undirect(df: pd.DataFrame) -> pd.DataFrame:
        u = df[src_col].to_numpy("int64")
        v = df[dst_col].to_numpy("int64")
        keep = u != v
        u, v = u[keep], v[keep]
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        out = pd.DataFrame({"u": lo, "v": hi}).drop_duplicates()
        return out

    # distinct undirected edges, then both directions (degree = row count
    # per u over the symmetric list)
    und = grouped_agg(edges.map_batches(undirect, batch_format="pandas"),
                      ["u", "v"], {"n": ("count", "u")}).select_columns(["u", "v"])

    def sym(df: pd.DataFrame) -> pd.DataFrame:
        return pd.concat([df[["u", "v"]],
                          df.rename(columns={"u": "v", "v": "u"})[["u", "v"]]],
                         ignore_index=True)

    surv = spill_point(und.map_batches(sym, batch_format="pandas"), "kcore_e")

    n_dead = 0
    for rnd in range(max_rounds):
        # one degree count per round; the DEAD set (usually a small
        # fringe after round 1) is materialized once for the convergence
        # count and the lookup, which drops every edge touching it
        deg = grouped_agg(surv, ["u"], {"deg": ("count", "v")})
        dead = deg.map_batches(lambda df: df.loc[df["deg"] < k, ["u"]],
                               batch_format="pandas").materialize()
        n_dead = int(dead.count())
        if n_dead == 0:
            break
        surv = spill_point(
            attach_or_filter(surv, dead, "u", {"u": {}, "v": {}}, "anti"),
            f"kcore_e{rnd + 1}")
    else:
        if n_dead > 0:
            # peel fixpoint not reached: surviving "core" still contains
            # sub-k-degree nodes.  The SQL twin reproduces the same
            # truncation so oracle checks stay comparable, but library
            # callers must not mistake this for a true k-core.
            import logging
            logging.getLogger(__name__).warning(
                "kcore: max_rounds=%d exhausted with %d sub-k nodes still "
                "peeling — result is NOT a true %d-core; raise max_rounds "
                "(a path graph needs ~diameter/2 rounds)",
                max_rounds, n_dead, k)

    out = grouped_agg(surv, ["u"], {"deg": ("count", "v")})
    return out.map_batches(
        lambda df: df.rename(columns={"u": "node"}).astype(
            {"node": "int64", "deg": "int64"}),
        batch_format="pandas")


def _scc_fixpoint(
    nodes_ds: rd.Dataset,
    edges_ds: rd.Dataset,
    tag: str,
    *,
    n_buckets: int = 16,
    max_inner: int = 64,
) -> rd.Dataset:
    """Fused forward/backward min-label fixpoint over a directed edge set,
    in the PageRank BSP layout (edges hive-bucketed ONCE; per step only the
    node-sized label table moves, via one linear hive write).

    State per node: ``(lf, lb)`` — the minimum id known to REACH the node
    (forward, along edges) and the minimum id the node is known to reach
    (backward, along reversed edges).  Both directions propagate through
    the SAME exchange: the tagged bidirectional edge list ``(frm, to,
    dir)`` is bucketed by ``frm`` once; each step zips label buckets with
    edge buckets, min-combines last step's messages locally (the combine
    happens at bucket-READ time, so there is no separate groupby shuffle),
    emits pre-aggregated ``(to, lf, lb)`` candidates, and hive-writes the
    stream back by ``hash(node)`` — ONE materialization per step.  The
    convergence scalar is a distributed ``sum`` of the per-node ``ch``
    flag already present in the written files.

    Raises ``RuntimeError`` if ``max_inner`` steps pass without
    convergence (a silent partial propagation would emit one SCC under
    several labels — see kcore's peel-cap note for the same discipline).

    Returns ``(node int64, lf int64, lb int64)`` at fixpoint.
    """
    from .relational import schema_anchor

    INF = np.iinfo(np.int64).max

    def mk_tagged(df: pd.DataFrame) -> pd.DataFrame:
        u = df["u"].to_numpy("int64")
        v = df["v"].to_numpy("int64")
        return pd.DataFrame({
            "frm": np.concatenate([u, v]),
            "to": np.concatenate([v, u]),
            "dir": np.concatenate([np.zeros(len(u), np.int8),
                                   np.ones(len(v), np.int8)])})

    edge_dir = _bucket_write(
        edges_ds.map_batches(mk_tagged, batch_format="pandas"),
        "frm", n_buckets, f"{tag}_t")
    ebkts = _bucket_dirs(edge_dir)

    seed = nodes_ds.map_batches(
        lambda df: pd.DataFrame({
            "node": df["node"].to_numpy("int64"),
            "lf": df["node"].to_numpy("int64"),
            "lb": df["node"].to_numpy("int64"),
            "old": np.full(len(df), 1, dtype="int8"),
            "ch": np.zeros(len(df), dtype="int64")}),
        batch_format="pandas")
    cur_dir = _bucket_write(seed, "node", n_buckets, f"{tag}_m0")

    empty_tmpl = pd.DataFrame({
        "node": pd.Series(dtype="int64"), "lf": pd.Series(dtype="int64"),
        "lb": pd.Series(dtype="int64"), "old": pd.Series(dtype="int8"),
        "ch": pd.Series(dtype="int64")})

    last_files: list[str] = _leaf_files(cur_dir)
    n_changed = -1
    for it in range(max_inner):
        mbkts = _bucket_dirs(cur_dir)
        work = sorted(mbkts)
        if not work:
            n_changed = 0
            break
        paths = rd.from_items(
            [{"m": mbkts[b], "e": ebkts.get(b, "")} for b in work])

        def step(df: pd.DataFrame) -> pd.DataFrame:
            outs = []
            for mdir, edir in zip(df["m"], df["e"]):
                m = pq.read_table(
                    mdir, columns=["node", "lf", "lb", "old"]).to_pandas()
                if not len(m):
                    continue
                # combine last step's messages with the old labels
                comb = (m.groupby("node", sort=False)
                        .agg(lf=("lf", "min"), lb=("lb", "min"))
                        .reset_index())
                old = (m.loc[m["old"] == 1, ["node", "lf", "lb"]]
                       .set_index("node").reindex(comb["node"]))
                ch = ((comb["lf"].to_numpy("int64")
                       < old["lf"].to_numpy("int64"))
                      | (comb["lb"].to_numpy("int64")
                         < old["lb"].to_numpy("int64"))).astype("int64")
                lab = pd.DataFrame({
                    "node": comb["node"].to_numpy("int64"),
                    "lf": comb["lf"].to_numpy("int64"),
                    "lb": comb["lb"].to_numpy("int64"),
                    "old": np.full(len(comb), 1, dtype="int8"),
                    "ch": ch})
                outs.append(lab)
                if edir:
                    e = pq.read_table(edir).to_pandas()
                    j = e.merge(lab[["node", "lf", "lb"]],
                                left_on="frm", right_on="node")
                    f = j["dir"].to_numpy() == 0
                    msg = pd.DataFrame({
                        "node": j["to"].to_numpy("int64"),
                        "lf": np.where(f, j["lf"].to_numpy("int64"), INF),
                        "lb": np.where(f, INF, j["lb"].to_numpy("int64"))})
                    # combiner: pre-min by destination before the exchange
                    mg = (msg.groupby("node", sort=False)
                          .agg(lf=("lf", "min"), lb=("lb", "min"))
                          .reset_index())
                    mg["old"] = np.int8(0)
                    mg["ch"] = np.int64(0)
                    outs.append(mg[["node", "lf", "lb", "old", "ch"]])
            if not outs:
                return empty_tmpl.copy()
            return pd.concat(outs, ignore_index=True)

        stream = paths.repartition(max(1, len(work))).map_batches(
            step, batch_format="pandas")
        cur_dir = _bucket_write(stream, "node", n_buckets, f"{tag}_m{it + 1}")
        last_files = _leaf_files(cur_dir)
        if it == 0 or it % 2 == 1:
            # step 0 only rebuilds the seed labels (ch is 0 by
            # construction); convergence is probed every SECOND step —
            # one extra 0.1 s propagation beats a scheduled sum job per
            # step, and the final check still gates the raise below
            continue
        n_changed = (int(rd.read_parquet(last_files, columns=["ch"])
                         .sum("ch"))
                     if last_files else 0)
        if n_changed == 0:
            break
    else:
        # the loop may end on an unprobed step — take the authoritative
        # count from the final written labels before deciding to raise
        n_changed = (int(rd.read_parquet(last_files, columns=["ch"])
                         .sum("ch"))
                     if last_files else 0)
        if n_changed != 0:
            raise RuntimeError(
                f"scc: label fixpoint did not converge in {max_inner} "
                f"steps ({n_changed} labels still changing) — residual "
                "diameter exceeds max_inner; raise max_inner (a partial "
                "propagation would silently split one SCC across labels)")

    lab_tmpl = pd.DataFrame({
        "node": pd.Series(dtype="int64"), "lf": pd.Series(dtype="int64"),
        "lb": pd.Series(dtype="int64")})
    if not last_files:
        return schema_anchor(rd.from_pandas(lab_tmpl), lab_tmpl)
    out = rd.read_parquet(last_files).map_batches(
        lambda df: df.loc[df["old"] == 1, ["node", "lf", "lb"]]
        .astype("int64"),
        batch_format="pandas")
    return schema_anchor(out, lab_tmpl)


def _scc_local(nodes_ds: rd.Dataset, edges_ds: rd.Dataset,
               ns_tmpl: pd.DataFrame) -> rd.Dataset:
    """Single-task SCC finish for a small residual: union the node and
    edge streams (edges tagged with ``v >= 0``, isolated nodes as
    ``v = -1``), coalesce to ONE block, and run an iterative Tarjan over
    it — the standard last-reducer endgame once the distributed rounds
    have shrunk the problem below one worker's heap."""
    from .relational import schema_anchor

    tagged_n = nodes_ds.map_batches(
        lambda df: pd.DataFrame({"u": df["node"].to_numpy("int64"),
                                 "v": np.full(len(df), -1, "int64")}),
        batch_format="pandas")
    tagged_e = edges_ds.map_batches(
        lambda df: df[["u", "v"]].astype("int64"), batch_format="pandas")

    def solve(df: pd.DataFrame) -> pd.DataFrame:
        u = df["u"].to_numpy("int64")
        v = df["v"].to_numpy("int64")
        is_edge = v >= 0
        adj: dict[int, list[int]] = {}
        for a, b in zip(u[is_edge].tolist(), v[is_edge].tolist()):
            adj.setdefault(a, []).append(b)
        all_nodes = sorted(set(u.tolist()) | set(v[is_edge].tolist()))
        # iterative Tarjan (explicit stack; no recursion limit hazard)
        index: dict[int, int] = {}
        low: dict[int, int] = {}
        on: set[int] = set()
        stack: list[int] = []
        nxt = [0]
        comp: dict[int, int] = {}
        for s in all_nodes:
            if s in index:
                continue
            work = [(s, iter(adj.get(s, ())))]
            index[s] = low[s] = nxt[0]
            nxt[0] += 1
            stack.append(s)
            on.add(s)
            while work:
                x, it = work[-1]
                advanced = False
                for w in it:
                    if w not in index:
                        index[w] = low[w] = nxt[0]
                        nxt[0] += 1
                        stack.append(w)
                        on.add(w)
                        work.append((w, iter(adj.get(w, ()))))
                        advanced = True
                        break
                    elif w in on:
                        low[x] = min(low[x], index[w])
                if not advanced:
                    work.pop()
                    if low[x] == index[x]:
                        members = []
                        while True:
                            y = stack.pop()
                            on.discard(y)
                            members.append(y)
                            if y == x:
                                break
                        root = min(members)
                        for y in members:
                            comp[y] = root
                    if work:
                        p = work[-1][0]
                        low[p] = min(low[p], low[x])
        if not comp:
            return ns_tmpl.iloc[0:0].copy()
        items = sorted(comp.items())
        return pd.DataFrame({"node": [k for k, _ in items],
                             "scc": [c for _, c in items]}).astype("int64")

    return schema_anchor(
        tagged_n.union(tagged_e).repartition(1).map_batches(
            solve, batch_size=None, batch_format="pandas"),
        ns_tmpl)


def scc(
    edges: rd.Dataset,
    *,
    src_col: str = "src",
    dst_col: str = "dst",
    max_outer: int = 16,
    max_inner: int = 64,
    n_buckets: int = 16,
    local_threshold: int = 5_000,
) -> rd.Dataset:
    """Strongly connected components by min-label FORWARD-BACKWARD
    coloring (the Orzan/FW-BW family adapted to label propagation):
    per outer round, propagate the minimum node id forward along edges
    and backward along reversed edges to fixpoint over the UNASSIGNED
    subgraph; a node whose forward and backward minima agree on ``c``
    is mutually reachable with ``c`` and joins SCC(c).  Assigned nodes
    leave the graph; surviving edges are COLOR-SPLIT (an edge whose
    endpoints disagree on ``(lf, lb)`` can never be intra-SCC and is
    dropped), so tendril chains shatter into singletons and the residual
    converges in few outer rounds (``max_outer`` caps pathology, and
    exhaustion RAISES rather than returning partial labels).

    Distributed shape (see :func:`_scc_fixpoint`): forward and backward
    propagation share ONE tagged bidirectional edge list, hive-bucketed
    by source once per outer round; each inner step moves only the
    node-sized ``(node, lf, lb)`` label table through one linear disk
    exchange, with the min-combine applied at bucket-read time — no
    per-step join or groupby shuffle, and one driver scalar per step
    (the summed change flag) instead of a label-table self-join diff.
    Dense web link graphs have one giant SCC and shallow diameters, so
    steps stay few; the SQL twin recomputes mutual reachability from
    the transitive closure.

    A residual with ``<= local_threshold`` edges skips the BSP rounds
    and finishes in ONE task via iterative Tarjan
    (:func:`_scc_local`) — set ``local_threshold=0`` to force the
    distributed path everywhere (tests do).

    Returns ``(node, scc)`` — scc is the smallest member id.
    """
    from .relational import (attach_or_filter, grouped_agg, schema_anchor,
                             spill_point)

    ns_tmpl = pd.DataFrame({"node": pd.Series(dtype="int64"),
                            "scc": pd.Series(dtype="int64")})
    rest_tmpl = pd.DataFrame({"node": pd.Series(dtype="int64"),
                              "lf": pd.Series(dtype="int64"),
                              "lb": pd.Series(dtype="int64")})

    def clean(df: pd.DataFrame) -> pd.DataFrame:
        u = df[src_col].to_numpy("int64")
        v = df[dst_col].to_numpy("int64")
        keep = u != v
        return pd.DataFrame({"u": u[keep], "v": v[keep]}).drop_duplicates()

    base = spill_point(
        grouped_agg(edges.map_batches(clean, batch_format="pandas"),
                    ["u", "v"], {"n": ("count", "u")})
        .select_columns(["u", "v"]), "scc_e")

    nodes = spill_point(
        grouped_agg(
            base.map_batches(
                lambda df: pd.DataFrame(
                    {"node": np.concatenate([df["u"].to_numpy("int64"),
                                             df["v"].to_numpy("int64")])}),
                batch_format="pandas"),
            ["node"], {"n": ("count", "node")}).select_columns(["node"]),
        "scc_nodes")

    done: list[rd.Dataset] = []
    unassigned = schema_anchor(nodes, rest_tmpl[["node"]])
    cur = base
    for rnd in range(max_outer):
        if int(unassigned.count()) == 0:
            break
        n_e = int(cur.count())
        if n_e == 0:
            # no residual edges: every remaining node is its own SCC
            done.append(schema_anchor(unassigned.map_batches(
                lambda df: pd.DataFrame(
                    {"node": df["node"].to_numpy("int64"),
                     "scc": df["node"].to_numpy("int64")}),
                batch_format="pandas"), ns_tmpl))
            unassigned = rd.from_pandas(rest_tmpl[["node"]].iloc[0:0])
            break
        if n_e <= local_threshold:
            # "last reducer" finish: a residual this small (≤ threshold
            # edges ≈ 16 B each) fits one task's heap — a single-task
            # Tarjan beats O(diameter) more barriered exchanges.  At
            # 100 TB the round-0 graph takes the BSP path; the round-1+
            # residual (colored tendrils) collapses here.
            done.append(_scc_local(unassigned, cur, ns_tmpl))
            unassigned = rd.from_pandas(rest_tmpl[["node"]].iloc[0:0])
            break

        lab = _scc_fixpoint(unassigned, cur, f"scc{rnd}",
                            n_buckets=n_buckets, max_inner=max_inner)

        assigned = schema_anchor(lab.map_batches(
            lambda df: df.loc[df["lf"].to_numpy("int64")
                              == df["lb"].to_numpy("int64")]
            .rename(columns={"lf": "scc"})[["node", "scc"]]
            .astype("int64"),
            batch_format="pandas"), ns_tmpl)
        done.append(assigned)

        rest = spill_point(schema_anchor(lab.map_batches(
            lambda df: df.loc[df["lf"].to_numpy("int64")
                              != df["lb"].to_numpy("int64")]
            [["node", "lf", "lb"]].astype("int64"),
            batch_format="pandas"), rest_tmpl), f"scc_r{rnd}")
        n_rest = int(rest.count())
        if n_rest == 0:
            unassigned = rd.from_pandas(rest_tmpl[["node"]].iloc[0:0])
            break
        unassigned = schema_anchor(
            rest.map_batches(lambda df: df[["node"]],
                             batch_format="pandas"),
            rest_tmpl[["node"]])

        # COLOR SPLIT — keep only edges whose endpoints share (lf, lb):
        # SCC members have identical minima in both directions, so a
        # disagreeing edge is provably cross-color and is dropped.  The
        # residual color table is node-sized (24 B/row): one lookup
        # attaches both endpoints' colors.
        cuv = attach_or_filter(
            cur, rest, "node", {"u": {"lf": "lf_u", "lb": "lb_u"},
                                "v": {"lf": "lf_v", "lb": "lb_v"}},
            "inner").map_batches(
            lambda df: df.loc[(df["lf_u"].to_numpy("int64")
                               == df["lf_v"].to_numpy("int64"))
                              & (df["lb_u"].to_numpy("int64")
                                 == df["lb_v"].to_numpy("int64")),
                              ["u", "v"]].astype("int64"),
            batch_format="pandas")
        # a Parquet spill: the next round's lookup reads its schema free;
        # an empty residual ends the loop at its count before any read
        cur = spill_point(cuv, f"scc_ce{rnd}")
    else:
        if int(unassigned.count()) > 0:
            raise RuntimeError(
                "scc: max_outer rounds exhausted with unassigned nodes — "
                "raise max_outer (color splitting normally converges in "
                "O(log n) rounds)")

    out = done[0]
    for d in done[1:]:
        out = out.union(d)
    return schema_anchor(out, ns_tmpl)
