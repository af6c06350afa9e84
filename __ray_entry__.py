"""Driver contract for the graft builder (Ray Data target).

``entry()`` runs the flagship pipeline on sf0.001; ``queries()`` exposes one
callable per implemented operator/pipeline from SURVEY.md §2 (+ the
training-data operators); ``oracle_sql()`` gives the DuckDB-equivalent SQL
for every SQL-expressible query (same column names, rounded floats).

Ray is initialised by the driver BEFORE this module is imported: nothing
here (nor in borges_ray) calls ``ray.init()`` / ``ray.shutdown()``.
"""

from __future__ import annotations

import os
import sys
from collections.abc import Callable
from pathlib import Path
from typing import Any

_REPO = str(Path(__file__).resolve().parent)
if _REPO not in sys.path:
    sys.path.insert(0, _REPO)

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc


def _mod(arr, m: int):
    """Integer modulo for Arrow arrays (pc has no mod kernel)."""
    ms = pa.scalar(m, pa.int64())
    return pc.subtract(arr, pc.multiply(pc.divide(arr, ms), ms))


# ---------------------------------------------------------------------------
# flagship
# ---------------------------------------------------------------------------

def entry() -> Any:
    """Flagship: the full crawl-round pipeline on a synthetic web derived
    from sf0.001 scale, falling back to the documents text pipeline until
    the crawl engine lands (round-1 bootstrap)."""
    from borges_ray.pipelines.crawl import crawl_entry

    return crawl_entry("/root/testdata/sf0.001")


# ---------------------------------------------------------------------------
# queries — each callable: sf_dir -> Dataset | DataFrame | pa.Table
# ---------------------------------------------------------------------------

def _q_pricing_summary(sf_dir: str):
    """TPC-H Q1 shape: filtered grouped aggregate with map-side partials
    (A2 — the per-journal-per-year ledger counters as a groupby)."""
    from borges_ray.ops.relational import filter_batches, grouped_agg, load

    ds = load(sf_dir, "lineitem",
              columns=["l_returnflag", "l_linestatus", "l_quantity",
                       "l_extendedprice", "l_discount", "l_shipdate"])
    cutoff = pa.scalar(pd.Timestamp("1998-09-02"), type=pa.timestamp("us"))
    ds = filter_batches(ds, lambda t: pc.less_equal(t["l_shipdate"], cutoff))

    def revenue(t: pa.Table) -> pa.Table:
        # money is 2-dp: compute price*(1-discount) in EXACT integer 1e-4
        # units so partial sums are associative — parallelism-invariant
        # (float partial sums crossed a 2-dp rounding boundary vs the
        # DECIMAL oracle; ADVICE r01)
        price_c = pc.cast(pc.round(pc.multiply(t["l_extendedprice"], pa.scalar(100.0))), pa.int64())
        disc_c = pc.cast(pc.round(pc.multiply(t["l_discount"], pa.scalar(100.0))), pa.int64())
        rev4 = pc.multiply(price_c, pc.subtract(pa.scalar(100, pa.int64()), disc_c))
        return t.append_column("revenue4", rev4)

    ds = ds.map_batches(revenue, batch_format="pyarrow")
    out = grouped_agg(ds, ["l_returnflag", "l_linestatus"],
                      {"sum_qty": ("sum", "l_quantity"),
                       "sum_revenue4": ("sum", "revenue4"),
                       "avg_qty": ("mean", "l_quantity"),
                       "n": ("count", "l_quantity")})
    df = out.to_pandas()
    df["sum_qty"] = df["sum_qty"].round(2)
    # half-up to cents in integer space (matches DECIMAL round, positive sums)
    df["sum_revenue"] = ((df["sum_revenue4"].astype("int64") + 50) // 100) / 100.0
    df = df.drop(columns="sum_revenue4")
    df["avg_qty"] = df["avg_qty"].round(6)
    df["n"] = df["n"].astype("int64")
    return df[["l_returnflag", "l_linestatus", "sum_qty", "sum_revenue", "avg_qty", "n"]]


def _q_filter_revenue(sf_dir: str):
    """Vectorized filter + scalar aggregate (F1 horizon filter + A1 census)."""
    from borges_ray.ops.relational import filter_batches, load

    ds = load(sf_dir, "lineitem", columns=["l_shipdate", "l_discount", "l_extendedprice"])
    lo = pa.scalar(pd.Timestamp("1995-01-01"), type=pa.timestamp("us"))
    hi = pa.scalar(pd.Timestamp("1997-01-01"), type=pa.timestamp("us"))

    def pred(t: pa.Table):
        return pc.and_(
            pc.and_(pc.greater_equal(t["l_shipdate"], lo), pc.less(t["l_shipdate"], hi)),
            pc.greater_equal(t["l_discount"], pa.scalar(0.05)),
        )

    ds = filter_batches(ds, pred)

    def partial(t: pa.Table) -> pa.Table:
        # exact integer 1e-4-dollar units: associative partial sums
        price_c = pc.cast(pc.round(pc.multiply(t["l_extendedprice"], pa.scalar(100.0))), pa.int64())
        disc_c = pc.cast(pc.round(pc.multiply(t["l_discount"], pa.scalar(100.0))), pa.int64())
        rev = pc.sum(pc.multiply(price_c, disc_c)).as_py() or 0
        return pa.table({"s": pa.array([rev], pa.int64())})

    total4 = sum(r["s"] for r in ds.map_batches(partial, batch_format="pyarrow").take_all())
    return pd.DataFrame({"sum_revenue": [((total4 + 50) // 100) / 100.0]})


def _q_topk_orders(sf_dir: str):
    """Top-k without global sort (O4 priority-frontier selection shape)."""
    from borges_ray.ops.relational import load, topk

    ds = load(sf_dir, "orders", columns=["o_orderkey", "o_totalprice"])
    df = topk(ds, ["o_totalprice"], 10, descending=True, tiebreak=["o_orderkey"])
    df["o_totalprice"] = df["o_totalprice"].round(2)
    return df


def _q_distinct_segments(sf_dir: str):
    """Distinct with per-block pre-dedup (A5/D1)."""
    from borges_ray.ops.relational import distinct, load

    ds = load(sf_dir, "customer", columns=["c_mktsegment"])
    return distinct(ds, ["c_mktsegment"])


def _q_dedup_docs(sf_dir: str):
    """Exact dedup on content hash, deterministic min-id winner (D1)."""
    from borges_ray.ops.dedup import exact_dedup
    from borges_ray.ops.relational import load

    ds = load(sf_dir, "documents", columns=["doc_id", "text"])
    out = exact_dedup(ds, "text", "doc_id")
    return out.select_columns(["doc_id"])


def _q_token_counts(sf_dir: str):
    """Whitespace token counting (text analysis op)."""
    from borges_ray.ops.relational import load

    ds = load(sf_dir, "documents", columns=["doc_id", "text"])

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        from borges_ray.ops.textops import token_count_batch

        ws, _ = token_count_batch(df["text"])
        return pd.DataFrame({"doc_id": df["doc_id"], "n_ws_tokens": ws})

    return ds.map_batches(fn, batch_format="pandas")


def _q_quality(sf_dir: str):
    """Quality scoring signals (length / punct / word stats)."""
    from borges_ray.ops.relational import load

    ds = load(sf_dir, "documents", columns=["doc_id", "text"])

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        import re

        texts = df["text"].fillna("")
        n_chars = texts.str.len().astype("int64")
        n_punct = texts.str.count(r"[^\w\s]", flags=re.ASCII).astype("int64")
        n_words = texts.str.count(r"[A-Za-z]+").astype("int64")
        n_word_chars = texts.str.count(r"[A-Za-z]").astype("int64")
        return pd.DataFrame({
            "doc_id": df["doc_id"],
            "n_chars": n_chars,
            "n_punct": n_punct,
            "n_words": n_words,
            "mean_word_len": (n_word_chars / n_words.clip(lower=1)).round(6),
        })

    return ds.map_batches(fn, batch_format="pandas")


def _q_join_broadcast(sf_dir: str):
    """Broadcast dimension join (J3/J4) + grouped aggregate."""
    import ray.data as rd

    from borges_ray.ops.relational import attach_or_filter, grouped_agg, load

    # the dimension side is only read driver-side when parquet metadata says
    # it IS small; past the broadcast guard it stays a distributed Dataset.
    # It is pulled or shuffled whole, so it skips load()'s row-count block
    # split (meant for per-row kernels; 64 read tasks for 15k rows here)
    joined = attach_or_filter(
        load(sf_dir, "orders", columns=["o_custkey", "o_totalprice"]),
        rd.read_parquet(f"{sf_dir}/customer.parquet",
                        columns=["c_custkey", "c_mktsegment"]),
        "c_custkey", {"o_custkey": {"c_mktsegment": "c_mktsegment"}}, "inner")
    # exact integer cents → associative partial sums (see pricing_summary)
    joined = joined.map_batches(
        lambda t: t.append_column(
            "price_c", pc.cast(pc.round(pc.multiply(t["o_totalprice"], pa.scalar(100.0))), pa.int64())),
        batch_format="pyarrow")
    out = grouped_agg(joined, ["c_mktsegment"],
                      {"sum_price_c": ("sum", "price_c"), "n_orders": ("count", "o_totalprice")})
    df = out.to_pandas()
    df["sum_price"] = df["sum_price_c"].astype("int64") / 100.0
    df = df.drop(columns="sum_price_c")
    df["n_orders"] = df["n_orders"].astype("int64")
    return df[["c_mktsegment", "sum_price", "n_orders"]]


def _q_hash_join(sf_dir: str):
    """Large×large hash-shuffle join (J1) + grouped aggregate."""
    from borges_ray.ops.relational import grouped_agg, hash_join, load

    li = load(sf_dir, "lineitem", columns=["l_orderkey", "l_quantity"])
    orders = load(sf_dir, "orders", columns=["o_orderkey", "o_orderpriority"])
    li = li.map_batches(lambda t: t.rename_columns(["o_orderkey", "l_quantity"]),
                        batch_format="pyarrow")
    joined = hash_join(li, orders, on=["o_orderkey"], num_partitions=8)
    out = grouped_agg(joined, ["o_orderpriority"],
                      {"sum_qty": ("sum", "l_quantity"), "n": ("count", "l_quantity")})
    df = out.to_pandas()
    df["sum_qty"] = df["sum_qty"].round(2)
    df["n"] = df["n"].astype("int64")
    return df


def _q_salted_join(sf_dir: str):
    """Skew-salted large×large join (J1 + hot-key salting,
    ``relational.hash_join(hot_key_threshold=...)``): lineitem joined to its
    own per-returnflag census on a 3-value key where EVERY key is hot, so
    the salted path — keys-only hot detection, left spread across salts,
    right replicated per salt — is fully exercised, then re-aggregated."""
    from borges_ray.ops.relational import grouped_agg, hash_join, load

    li = load(sf_dir, "lineitem", columns=["l_orderkey", "l_returnflag"])
    flags = grouped_agg(
        load(sf_dir, "lineitem", columns=["l_returnflag"]),
        ["l_returnflag"], {"flag_n": ("count", "l_returnflag")})
    joined = hash_join(li, flags, on=["l_returnflag"],
                       hot_key_threshold=500, salt_buckets=4)
    out = grouped_agg(joined, ["l_returnflag", "flag_n"],
                      {"n": ("count", "l_orderkey"),
                       "sum_key": ("sum", "l_orderkey")})
    df = out.to_pandas()
    for c in ("flag_n", "n", "sum_key"):
        df[c] = df[c].astype("int64")
    return df.sort_values("l_returnflag").reset_index(drop=True)


def _q_anti_join(sf_dir: str):
    """Anti-join: customers with no URGENT order (J2 skip-if-present).
    Distributed build side — the driver never reads the orders table."""
    from borges_ray.ops.relational import filter_batches, hash_semi_join, load

    cust = load(sf_dir, "customer", columns=["c_custkey"])
    orders = load(sf_dir, "orders", columns=["o_custkey", "o_orderpriority"])
    urgent = filter_batches(
        orders, lambda t: pc.equal(t["o_orderpriority"], pa.scalar("1-URGENT")))
    okeys = urgent.map_batches(
        lambda t: t.select(["o_custkey"]).rename_columns(["c_custkey"]),
        batch_format="pyarrow")
    return hash_semi_join(cust, okeys, on=["c_custkey"], anti=True)


def _q_semi_join(sf_dir: str):
    """Semi-join: parts that appear in lineitem (J2 membership).
    Distributed build side — keys-only shuffle, no driver fact-table read."""
    from borges_ray.ops.relational import hash_semi_join, load

    part = load(sf_dir, "part", columns=["p_partkey"])
    pkeys = load(sf_dir, "lineitem", columns=["l_partkey"]).map_batches(
        lambda t: t.rename_columns(["p_partkey"]), batch_format="pyarrow")
    return hash_semi_join(part, pkeys, on=["p_partkey"], anti=False)


def _q_explode_tokens(sf_dir: str):
    """Explode/flat_map (J6 fan-out) + grouped count + top-k."""
    from borges_ray.ops.relational import grouped_agg, load, topk

    ds = load(sf_dir, "documents", columns=["text"])

    def tok(df: pd.DataFrame) -> pd.DataFrame:
        s = df["text"].fillna("").str.split().explode().dropna()
        return pd.DataFrame({"token": s})

    tokens = ds.map_batches(tok, batch_format="pandas")
    counts = grouped_agg(tokens, ["token"], {"n": ("count", "token")})
    df = topk(counts, ["n"], 20, descending=True, tiebreak=["token"])
    df["n"] = df["n"].astype("int64")
    return df


def _q_window_hourly(sf_dir: str):
    """Tumbling event-time window aggregate (§2.10 re-expression)."""
    from borges_ray.ops.relational import load, windowed_agg

    ds = load(sf_dir, "events", columns=["event_type", "ts", "value"])
    out = windowed_agg(ds, "event_type", "ts", 3_600_000_000,
                       {"n": ("count", "value"), "sum_value": ("sum", "value")})
    df = out.to_pandas()
    df["sum_value"] = df["sum_value"].round(4)
    df["n"] = df["n"].astype("int64")
    return df


def _q_window_sliding(sf_dir: str):
    """Sliding/hopping event-time windows (1 h length, 15 min hop —
    ``relational.sliding_window_agg``): every event lands in exactly 4
    windows via vectorized bounded replication, then one grouped agg.
    ``window_start`` is int64 epoch-µs (engine-exact)."""
    from borges_ray.ops.relational import load, sliding_window_agg

    ds = load(sf_dir, "events", columns=["event_type", "ts", "event_id"])
    out = sliding_window_agg(ds, "event_type", "ts",
                             3_600_000_000, 900_000_000,
                             {"n": ("count", "event_id"),
                              "max_id": ("max", "event_id")})
    df = out.to_pandas()
    for c in ("window_start", "n", "max_id"):
        df[c] = df[c].astype("int64")
    return df.sort_values(["event_type", "window_start"]).reset_index(drop=True)


def _q_running_totals(sf_dir: str):
    """Per-key running aggregates in event order (SQL window-function
    analogue, ``relational.running_agg``): row_number and running max per
    user ordered by (ts, event_id)."""
    from borges_ray.ops.relational import load, running_agg

    ds = load(sf_dir, "events", columns=["event_id", "user_id", "ts", "value"])
    out = running_agg(ds, "user_id", "ts",
                      {"row_n": ("row_number", ""),
                       "run_max": ("cummax", "value")},
                      tiebreak=["event_id"])
    df = out.to_pandas()[["event_id", "user_id", "row_n", "run_max"]]
    df["row_n"] = df["row_n"].astype("int64")
    return df.sort_values("event_id").reset_index(drop=True)


def _q_asof_join(sf_dir: str):
    """True two-table as-of join (§2.10, ``relational.asof_join``): each
    event picks the customer's most recent order at the event time
    (right side pre-deduped per (custkey, orderdate) so the as-of row is
    well-defined).  Oracle: DuckDB ``ASOF JOIN``."""
    from borges_ray.ops.relational import asof_join, grouped_agg, load

    ev = load(sf_dir, "events", columns=["event_id", "user_id", "ts"])
    ro = grouped_agg(
        load(sf_dir, "orders", columns=["o_custkey", "o_orderdate", "o_orderkey"]),
        ["o_custkey", "o_orderdate"], {"okey": ("max", "o_orderkey")})
    ro = ro.map_batches(
        lambda t: t.rename_columns(["user_id", "ots", "okey"]),
        batch_format="pyarrow")
    out = asof_join(ev, ro, "user_id", "ts", "ots", how="inner")
    df = out.to_pandas()[["event_id", "user_id", "okey"]]
    df["okey"] = df["okey"].astype("int64")
    return df.sort_values("event_id").reset_index(drop=True)


def _q_topk_per_group(sf_dir: str):
    """Top-3 orders per customer by price (``relational.topk_per_group`` —
    the ROW_NUMBER-window shape with a per-block combiner)."""
    from borges_ray.ops.relational import load, topk_per_group

    orders = load(sf_dir, "orders",
                  columns=["o_custkey", "o_orderkey", "o_totalprice"])
    out = topk_per_group(orders, "o_custkey",
                         ["o_totalprice", "o_orderkey"], 3,
                         descending=[True, False])
    df = out.to_pandas().sort_values(["o_custkey", "o_orderkey"]).reset_index(drop=True)
    return df


def _q_grouped_quantiles(sf_dir: str):
    """Exact per-group discrete quantiles (``relational.grouped_quantile``,
    DuckDB ``quantile_disc`` rule — element selection, no interpolation)."""
    from borges_ray.ops.relational import grouped_quantile, load

    ev = load(sf_dir, "events", columns=["event_type", "value"])
    out = grouped_quantile(ev, "event_type", "value", [0.25, 0.5, 0.75])
    return (out.to_pandas().sort_values("event_type").reset_index(drop=True))


def _q_sessionize(sf_dir: str):
    """Session windows (30-min gap) per user (§2.10)."""
    from borges_ray.ops.relational import grouped_agg, load, sessionize

    ds = load(sf_dir, "events", columns=["user_id", "ts"])
    sessions = sessionize(ds, "user_id", "ts", 1_800_000_000)
    out = grouped_agg(sessions, ["user_id"], {"n_sessions": ("count", "n_events")})
    df = out.to_pandas()
    df["n_sessions"] = df["n_sessions"].astype("int64")
    return df


def _q_asof_lag(sf_dir: str):
    """Per-key ordered lag — the as-of/previous-record primitive (§2.10
    re-crawl lineage: previous fetch of the same key)."""
    from borges_ray.ops.relational import asof_self_lag, load

    ds = load(sf_dir, "orders", columns=["o_custkey", "o_orderkey", "o_orderdate"])
    out = asof_self_lag(ds, "o_custkey", "o_orderdate", ["o_orderkey"])
    return out.select_columns(["o_orderkey", "prev_o_orderdate"])


def _q_group_having(sf_dir: str):
    """Group-having (A3 unindexed-journal detection shape)."""
    from borges_ray.ops.relational import grouped_agg, load

    cust = load(sf_dir, "customer", columns=["c_nationkey", "c_acctbal"])
    agg = grouped_agg(cust, ["c_nationkey"], {"max_bal": ("max", "c_acctbal")})
    df = agg.to_pandas()
    df = df[df["max_bal"] < 9900.0].copy()
    df["max_bal"] = df["max_bal"].round(2)
    df["c_nationkey"] = df["c_nationkey"].astype("int32")
    return df.reset_index(drop=True)


def _q_union_distinct(sf_dir: str):
    """Union of record streams then dedup (D4 Scopus ∪ SciDir)."""
    from borges_ray.ops.relational import distinct, filter_batches, load, union_all

    a = load(sf_dir, "orders", columns=["o_custkey", "o_orderpriority"])
    urgent = filter_batches(a, lambda t: pc.equal(t["o_orderpriority"], pa.scalar("1-URGENT")))
    b = load(sf_dir, "orders", columns=["o_custkey", "o_orderpriority"])
    high = filter_batches(b, lambda t: pc.equal(t["o_orderpriority"], pa.scalar("2-HIGH")))
    u = union_all([urgent.select_columns(["o_custkey"]), high.select_columns(["o_custkey"])])
    return distinct(u, ["o_custkey"])


def _emb_below(sf_dir: str, below: int) -> pd.DataFrame:
    """Driver-side read of the FIRST ``below`` embedding rows only —
    row-group predicate pushdown, never the whole table (the r02 verdict's
    broadcast-size lesson applied to every query-vector / centroid /
    small-side pick)."""
    import pyarrow.parquet as _pq

    return _pq.read_table(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"],
        filters=[("vec_id", "<", below)]).to_pandas().sort_values("vec_id")


def _q_knn(sf_dir: str):
    """Brute-force cosine top-k over the embedding column (ANN baseline)."""
    from borges_ray.ops.embed import knn_brute
    from borges_ray.ops.relational import load

    q = _emb_below(sf_dir, 1)["embedding"].iloc[0]
    ds = load(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    df = knn_brute(ds, np.asarray(q), 10)
    return df[["vec_id", "cos"]]


def _q_bpe_tokens(sf_dir: str):
    """BPE-ish token counting (GPT-2-style pre-tokenizer shape)."""
    from borges_ray.ops.relational import load

    ds = load(sf_dir, "documents", columns=["doc_id", "text"])

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        from borges_ray.ops.textops import token_count_batch

        _, bpe = token_count_batch(df["text"])
        return pd.DataFrame({"doc_id": df["doc_id"], "n_bpe_tokens": bpe})

    return ds.map_batches(fn, batch_format="pandas")


def _q_cosine_neardup(sf_dir: str):
    """Embedding near-dup pairs (exact broadcast variant, oracle-checked;
    the LSH-bucketed variant is the rows-only scale path below)."""
    from borges_ray.ops.embed import cosine_near_dup_exact
    from borges_ray.ops.relational import filter_batches, load

    ds = load(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    sub = filter_batches(ds, lambda t: pc.less(t["vec_id"], pa.scalar(300)))
    small = _emb_below(sf_dir, 300)
    out = cosine_near_dup_exact(sub, small, 0.38)
    out["cos"] = out["cos"].round(4)
    out["id_a"] = out["id_a"].astype("int64")
    out["id_b"] = out["id_b"].astype("int64")
    return out


def _q_cosine_neardup_lsh(sf_dir: str):
    """LSH-bucketed embedding near-dup — the scale path.  Oracle: the
    seeded hyperplanes are embedded as SQL literals, so DuckDB recomputes
    the exact bucket bits and bucket-mate pair set (see
    ``_oracle_cosine_lsh``)."""
    from borges_ray.ops.embed import cosine_near_dup_pairs
    from borges_ray.ops.relational import load

    ds = load(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    return cosine_near_dup_pairs(ds, 0.38, n_planes=4)


def _q_knn_lsh(sf_dir: str):
    """Approximate ANN via hyperplane-LSH with PHYSICAL bucket pruning: the
    corpus is written hive-partitioned by bucket once (``lshb=<b>/``), and
    the query reads ONLY its bucket directory (~1/2^planes of the bytes).
    Oracle: SQL recomputes the seeded plane bucket bits and scores only the
    query's bucket (see ``_oracle_knn_lsh``) — identical rows to the
    logical ``knn_lsh`` since bucket membership is the same."""
    import hashlib
    import tempfile

    from borges_ray.ops.embed import (
        build_lsh_index,
        knn_lsh_partitioned,
        lsh_planes,
    )
    from borges_ray.ops.relational import load

    q = _emb_below(sf_dir, 1)["embedding"].iloc[0]
    ds = load(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    planes = lsh_planes(len(q), 4, seed=13)
    tag = hashlib.blake2b(sf_dir.encode(), digest_size=6).hexdigest()
    idx_dir = f"{tempfile.gettempdir()}/borges_lshb_{tag}"
    build_lsh_index(ds, planes, idx_dir)
    df, _stats = knn_lsh_partitioned(idx_dir, np.asarray(q), 10, planes)
    return df[["vec_id", "cos"]]


def _q_knn_ivf(sf_dir: str):
    """IVF (centroid-bucketed) ANN with PHYSICAL partition pruning: the
    corpus is written hive-partitioned by centroid once, and the query
    reads only its n_probe partitions.  For the oracle the centroids are
    DETERMINISTIC row vectors (embeddings of vec_id < 16) instead of
    k-means output — assignment is argmax dot(v, c), which SQL recomputes
    exactly (per-row normalization cannot change the argmax), so the probed
    partitions and the top-k are identical between engines.  k-means
    centroids (``train_ivf_centroids``) stay covered by
    ``tests/test_ops.py::test_knn_ivf``."""
    import hashlib
    import tempfile

    from borges_ray.ops.embed import build_ivf_index, knn_ivf_partitioned
    from borges_ray.ops.relational import load

    emb = _emb_below(sf_dir, 16)
    q = emb[emb.vec_id == 0]["embedding"].iloc[0]
    cents = np.stack(emb["embedding"].to_numpy()).astype(np.float64)
    ds = load(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    tag = hashlib.blake2b(sf_dir.encode(), digest_size=6).hexdigest()
    idx_dir = f"{tempfile.gettempdir()}/borges_ivfd_{tag}"
    build_ivf_index(ds, cents, idx_dir)
    df, _stats = knn_ivf_partitioned(idx_dir, np.asarray(q), 10, cents, n_probe=4)
    return df[["vec_id", "cos"]]


def _q_minhash_neardup(sf_dir: str):
    """MinHash+LSH near-dup pairs over documents, exact-Jaccard verified —
    fully distributed (no driver text broadcast), oracle = all-pairs
    shingle Jaccard in SQL (LSH miss probability ≤ 6e-15 at the corpus's
    J ≥ 0.8 true pairs; see dedup.minhash_near_dup_pairs)."""
    from borges_ray.ops.dedup import minhash_near_dup_pairs
    from borges_ray.ops.relational import load

    ds = load(sf_dir, "documents", columns=["doc_id", "text"])
    return minhash_near_dup_pairs(ds, "doc_id", threshold=0.5)


def _q_minhash_incremental(sf_dir: str):
    """Incremental near-dup admission — the production snapshot-ingest
    shape: odd doc_ids (the NEW snapshot) are admitted against even
    doc_ids (the accepted corpus); a new doc is dropped iff its exact
    shingle Jaccard against any old doc reaches 0.5 (LSH candidates,
    stored-blob verify, distributed anti-join).  Oracle: the all-pairs
    cross-side shingle-Jaccard SQL."""
    from borges_ray.ops.dedup import minhash_dedup_incremental_ds
    from borges_ray.ops.relational import load

    ds = load(sf_dir, "documents", columns=["doc_id", "text"])

    def _parity(p: int):
        def fn(df: pd.DataFrame) -> pd.DataFrame:
            return df[df["doc_id"] % 2 == p]
        return fn

    old = ds.map_batches(_parity(0), batch_format="pandas")
    new = ds.map_batches(_parity(1), batch_format="pandas")
    return minhash_dedup_incremental_ds(old, new, "doc_id", threshold=0.5)


def _q_quality_prune(sf_dir: str):
    """Per-source quality pruning (the C4/FineWeb keep-top-X% stage):
    keep the top 30% of each source's documents by alphabetic word count
    (ties → smaller doc_id).  Quota is the exact integer
    ``ceil(3n/10)``, so the SQL twin needs no float ceil."""
    from borges_ray.ops.relational import load, top_frac_per_group

    ds = load(sf_dir, "documents", columns=["doc_id", "text", "source"])

    def score(df: pd.DataFrame) -> pd.DataFrame:
        n_words = (df["text"].fillna("").str.findall(r"[A-Za-z]+")
                   .str.len().astype("int64"))
        return pd.DataFrame({"doc_id": df["doc_id"],
                             "source": df["source"],
                             "n_words": n_words})

    scored = ds.map_batches(score, batch_format="pandas")
    return top_frac_per_group(scored, ["source"], "n_words", "doc_id",
                              num=3, den=10)


def _q_ngram_jaccard(sf_dir: str):
    """EXACT n-gram Jaccard near-dup pairs (threshold 0.3) via distributed
    prefix filtering (PPJoin lemma) — no LSH miss probability; complements
    minhash_neardup at thresholds below what 32-band/r=2 banding covers.
    Oracle: the same all-pairs shingle-Jaccard SQL at 0.3."""
    from borges_ray.ops.dedup import ngram_jaccard_pairs
    from borges_ray.ops.relational import load

    ds = load(sf_dir, "documents", columns=["doc_id", "text"])
    return ngram_jaccard_pairs(ds, "doc_id", threshold=0.3)


def _q_editdist_join(sf_dir: str):
    """EXACT edit-distance similarity self-join over derived short titles
    (first 3 tokens): all pairs with Levenshtein ≤ 2 via Ed-Join q-gram
    prefix filtering (q=2, prefix q·k+1) + length filter + banded-DP
    verify — the sub-token/typo member of the dedup family that
    token-level Jaccard is blind to.  Oracle: DuckDB ``levenshtein`` over
    the length-filtered all-pairs join on the same title expression."""
    from borges_ray.ops.dedup import editdist_pairs
    from borges_ray.ops.relational import load

    ds = load(sf_dir, "documents", columns=["doc_id", "text"])

    def title(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "doc_id": df["doc_id"],
            "title": df["text"].fillna("").map(
                lambda t: " ".join(t.split(" ")[:3]))})

    titled = ds.map_batches(title, batch_format="pandas")
    return editdist_pairs(titled, "doc_id", "title", max_dist=2, q=2)


def _q_containment(sf_dir: str):
    """Asymmetric containment near-dup (Broder 1997: c(A,B) =
    |S(A)∩S(B)|/|S(A)|): catches quote inclusion / partial copies that
    symmetric Jaccard misses.  Stop-shingles (>64 docs) dropped per
    Bharat-Broder; oracle recomputes the identical md5-lower-64 shingle
    sets and both containment directions."""
    from borges_ray.ops.dedup import containment_pairs
    from borges_ray.ops.relational import load

    ds = load(sf_dir, "documents", columns=["doc_id", "text"])
    return containment_pairs(ds, width=4, min_containment=0.5)


def _q_minhash_dedup_survivors(sf_dir: str):
    """Full near-dup dedup, DATASET END-TO-END: MinHash-LSH pairs →
    distributed connected components (tree forest merge) → survivors via a
    distributed anti-join against the loser set (oracle: recursive-CTE
    components over the same exact-Jaccard pair set).  Neither the base
    table, the pair set, the spanning forest, nor the labels ever transit
    the driver — the whole chain is one lazy Dataset plan."""
    from borges_ray.ops.dedup import dedup_survivors_ds, minhash_near_dup_pairs_ds
    from borges_ray.ops.relational import load

    ds = load(sf_dir, "documents", columns=["doc_id", "text"])
    pairs_ds = minhash_near_dup_pairs_ds(ds, "doc_id", threshold=0.5)
    docs = load(sf_dir, "documents", columns=["doc_id"])
    return dedup_survivors_ds(docs, pairs_ds, "doc_id")


def _q_simhash(sf_dir: str):
    """64-bit SimHash signatures per document (oracle: per-bit majority
    vote over DuckDB ``md5_number_lower`` token hashes — the engine uses
    the identical md5 lower-64)."""
    from borges_ray.ops.dedup import simhash_signatures
    from borges_ray.ops.relational import load

    ds = load(sf_dir, "documents", columns=["doc_id", "text"])
    out = simhash_signatures(ds).to_pandas()[["doc_id", "simhash"]]
    out["simhash"] = out["simhash"].astype("uint64")
    return out


def _q_simhash_neardup(sf_dir: str):
    """SimHash near-dup pairs: 16-bit-chunk pigeonhole banding + tiled
    popcount Hamming verify (oracle: all pairs with
    ``bit_count(xor(sig_a, sig_b)) <= 3`` over SQL-recomputed signatures —
    equal to the banded result because hamming ≤ 3 over 4 chunks pigeonholes
    some chunk equal)."""
    from borges_ray.ops.dedup import simhash_near_dup_pairs
    from borges_ray.ops.relational import load

    ds = load(sf_dir, "documents", columns=["doc_id", "text"])
    out = simhash_near_dup_pairs(ds, "doc_id", max_hamming=3)
    out["id_a"] = out["id_a"].astype("int64")
    out["id_b"] = out["id_b"].astype("int64")
    return out.sort_values(["id_a", "id_b"], ignore_index=True)


def _q_lang_id(sf_dir: str):
    """Heuristic language-ID vs the table's ground-truth lang column
    (rows-only; accuracy asserted in unit tests)."""
    from borges_ray.ops.relational import grouped_agg, load
    from borges_ray.ops.textops import LangId

    ds = load(sf_dir, "documents", columns=["doc_id", "text", "lang"])
    pred = ds.map_batches(LangId, batch_format="pandas", concurrency=(1, 4))
    out = grouped_agg(pred, ["lang", "pred_lang"], {"n": ("count", "doc_id")})
    df = out.to_pandas()
    df["n"] = df["n"].astype("int64")
    return df


def _q_fingerprints(sf_dir: str):
    """Rolling-hash document fingerprints (rows-only)."""
    from borges_ray.ops.relational import load

    ds = load(sf_dir, "documents", columns=["doc_id", "text"])

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        from borges_ray.ops.textops import fingerprint_batch

        return pd.DataFrame({"doc_id": df["doc_id"],
                             "fingerprint": fingerprint_batch(df["text"])})

    return ds.map_batches(fn, batch_format="pandas")


def _q_media_features(sf_dir: str):
    """Multimodal: BORG-container payloads derived from documents →
    actor-pool header parse + feature extraction (oracle recomputes the
    header fields from doc_id; the engine must parse the bytes)."""
    from borges_ray.ops.multimodal import extract_media_features, media_from_documents
    from borges_ray.ops.relational import load

    docs = load(sf_dir, "documents", columns=["doc_id"])
    media = media_from_documents(docs)
    out = extract_media_features(media).to_pandas()
    return out[["media_id", "media_type", "n_bytes", "width", "height", "checksum"]]


def _q_video_frames(sf_dir: str):
    """Multimodal frame-sample + resize over BORG video containers
    (oracle-checked: frame records are a pure doc_id/frame_idx function)."""
    from borges_ray.ops.multimodal import media_from_documents, sample_video_frames
    from borges_ray.ops.relational import load

    docs = load(sf_dir, "documents", columns=["doc_id"])
    media = media_from_documents(docs, video=True)
    return sample_video_frames(media)


def _q_paged_search_urls(sf_dir: str):
    """S3: paged search-URL enumerator — one row per (source, page) with
    the offset-parameterized URL (the reference's Elsevier index walks
    ``start=0,25,50…`` per journal-year, ``paper_index.py:120-170``)."""
    from borges_ray.ops.relational import load

    ds = load(sf_dir, "nation", columns=["n_nationkey", "n_name"])

    def fan_out(df: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for k, name in zip(df["n_nationkey"], df["n_name"]):
            total = 10 + (int(k) * 7) % 90
            n_pages = (total + 24) // 25
            for i in range(n_pages):
                rows.append((int(k), i,
                             f"https://api.example/search?q={name}&start={i * 25}"))
        return pd.DataFrame(rows, columns=["n_nationkey", "page_idx", "url"])

    out = ds.map_batches(fan_out, batch_format="pandas").to_pandas()
    out["n_nationkey"] = out["n_nationkey"].astype("int64")
    out["page_idx"] = out["page_idx"].astype("int64")
    return out


def _q_date_kernels(sf_dir: str):
    """§2.9 date kernels: truncation, component extraction, fixed-offset
    timezone shift, epoch conversion — vectorized pandas dt ops."""
    from borges_ray.ops.relational import load

    ds = load(sf_dir, "events", columns=["event_id", "ts"])

    def kernels(df: pd.DataFrame) -> pd.DataFrame:
        ts = df["ts"]
        return pd.DataFrame({
            "event_id": df["event_id"].astype("int64"),
            "day": ts.dt.floor("D").dt.strftime("%Y-%m-%d"),
            "hour_of_day": ts.dt.hour.astype("int64"),
            "isodow": (ts.dt.dayofweek + 1).astype("int64"),
            "ts_ist": ts + pd.Timedelta(minutes=330),  # UTC+5:30 shift
            "epoch_s": (ts.astype("int64") // 1_000_000).astype("int64"),
        })

    return ds.map_batches(kernels, batch_format="pandas")


def _q_metadata_extract(sf_dir: str):
    """M9/M10: JATS-XML + meta-tag dialect metadata extraction into struct
    columns (oracle recomputes the golden fields from doc_id arithmetic —
    the engine must genuinely parse the markup)."""
    from borges_ray.extract_meta import MetaExtractor
    from borges_ray.ops.relational import load
    from borges_ray.synth_articles import articles_from_documents

    ds = load(sf_dir, "documents", columns=["doc_id", "text"])
    arts = articles_from_documents(ds)
    out = arts.map_batches(MetaExtractor, batch_format="pandas",
                           concurrency=(1, 4))
    return out.to_pandas().drop(columns=["authors_list"])


def _q_missed_records(sf_dir: str):
    """F8 missed-record sink: DOI-less extraction aborts are ROUTED to a
    ``missed`` table (one parse pass, vectorized kept/missed split) instead
    of silently dropped — the reference files them into a
    ``missed_papers`` collection (``Elsevier/paper_index.py:233-240``).
    Oracle: the synthetic corpus aborts exactly the odd (meta-dialect)
    doc_ids divisible by 19."""
    from borges_ray.extract_meta import split_missed
    from borges_ray.ops.relational import load
    from borges_ray.synth_articles import articles_from_documents

    ds = load(sf_dir, "documents", columns=["doc_id", "text"])
    _kept, missed = split_missed(articles_from_documents(ds))
    return missed.to_pandas()


def _q_zip_extract_meta(sf_dir: str):
    """S15/T7: zip drop-folder → encoding-branch member decode (xml utf-8 /
    html cp1252) → metadata extraction.  Same golden oracle as
    metadata_extract — the zip+decode hop must be lossless."""
    import hashlib
    import tempfile

    from borges_ray.extract_meta import MetaExtractor
    from borges_ray.sources.archive import build_article_zip_corpus, read_zip_articles

    tag = hashlib.blake2b(sf_dir.encode(), digest_size=6).hexdigest()
    zip_dir = f"{tempfile.gettempdir()}/borges_zips_{tag}"
    build_article_zip_corpus(sf_dir, zip_dir)
    members = read_zip_articles(zip_dir)
    out = members.map_batches(MetaExtractor, batch_format="pandas",
                              concurrency=(1, 4))
    return out.to_pandas().drop(columns=["authors_list"]).sort_values(
        "doc_id").reset_index(drop=True)


def _q_api_json_records(sf_dir: str):
    """M17/M18: per-field try/except-null record shaping from API JSON
    bodies (paper_index.py:43-95 semantics, oracle-checked)."""
    from borges_ray.ops.records import ApiRecordParser
    from borges_ray.ops.relational import load
    from borges_ray.synth_articles import synth_api_body

    ds = load(sf_dir, "documents", columns=["doc_id"])

    def gen(df: pd.DataFrame) -> pd.DataFrame:
        rows = [synth_api_body(int(d)) for d in df["doc_id"]]
        return pd.DataFrame({"doc_id": df["doc_id"],
                             "body": [r[0] for r in rows],
                             "journal": [r[1] for r in rows],
                             "source": [r[2] for r in rows]})

    out = ds.map_batches(gen, batch_format="pandas").map_batches(
        ApiRecordParser, batch_format="pandas", concurrency=(1, 4))
    return out.to_pandas()


def _q_merge_abstract(sf_dir: str):
    """J5: merge abstract into fulltext per key with the reference's
    irregularity handling (dup collapse, key-points exclusion, no-<p>
    error)."""
    from borges_ray.ops.records import merge_abstract_stage
    from borges_ray.ops.relational import load
    from borges_ray.synth_articles import synth_abstract_fulltext

    ds = load(sf_dir, "documents", columns=["doc_id"])

    def gen(df: pd.DataFrame) -> pd.DataFrame:
        pairs = [synth_abstract_fulltext(int(d)) for d in df["doc_id"]]
        return pd.DataFrame({"doc_id": df["doc_id"],
                             "abstract_xml": [p[0] for p in pairs],
                             "fulltext_xml": [p[1] for p in pairs]})

    return merge_abstract_stage(ds.map_batches(gen, batch_format="pandas"))


def _q_recrawl_overwrite(sf_dir: str):
    """S8: keyed last-writer-wins refresh — updates replace same-key base
    rows, untouched keys pass through byte-identical."""
    from borges_ray.ops.records import keyed_overwrite
    from borges_ray.ops.relational import filter_batches, load

    base = load(sf_dir, "documents", columns=["doc_id", "text"])
    upd = load(sf_dir, "documents", columns=["doc_id", "text"])
    ten = pa.scalar(10, pa.int64())
    upd = filter_batches(upd, lambda t: pc.equal(
        pc.subtract(t["doc_id"], pc.multiply(pc.divide(t["doc_id"], ten), ten)),
        pa.scalar(0, pa.int64())))  # doc_id % 10 == 0 (pc has no mod kernel)
    upd = upd.map_batches(
        lambda t: t.set_column(t.schema.get_field_index("text"), "text",
                               pc.binary_join_element_wise(
                                   t["text"], pa.scalar(" v2"), "")),
        batch_format="pyarrow")
    return keyed_overwrite(base, upd, "doc_id")


_CRAWL_Q_SEED, _CRAWL_Q_PAGES, _CRAWL_Q_ROUNDS = 42, 600, 4


def _crawl_oracle_parquet() -> str:
    """Expected crawled table of the single-process REFERENCE ORACLE
    (``reference_crawl.crawl`` — Borges semantics: per-host FIFO with
    politeness clocks, insert-if-absent dedup, robots gating) on the same
    deterministic synthetic web the ``crawl_pipeline`` query runs the Ray
    engine on.  Written once to a fixed /tmp parquet so the DuckDB oracle
    can SQL-compare the full table (rows + schema + values) — this converts
    the crawl from a rows-only check to the same gate every other query
    has.  Deterministic: same seed → same bytes."""
    import hashlib
    import tempfile

    import reference_crawl as rc
    from borges_ray import schemas as _schemas
    from borges_ray import synth as _synth
    from borges_ray.synth import synth_pages, synth_robots, synth_seeds

    # cache key covers the GENERATING CODE, not just the config: an edit to
    # the oracle, the synth web, or the CRAWLED schema must invalidate the
    # cached expected table rather than silently serve stale expectations
    h = hashlib.blake2b(digest_size=6)
    for mod in (rc, _synth, _schemas):
        with open(mod.__file__, "rb") as fp:
            h.update(fp.read())
    path = os.path.join(
        tempfile.gettempdir(),
        f"borges_crawl_expected_{_CRAWL_Q_SEED}_{_CRAWL_Q_PAGES}"
        f"_r{_CRAWL_Q_ROUNDS}_{h.hexdigest()}.parquet")
    if os.path.exists(path):
        return path
    pages = synth_pages(_CRAWL_Q_SEED, _CRAWL_Q_PAGES)
    seeds = synth_seeds(_CRAWL_Q_SEED, _CRAWL_Q_PAGES)
    robots = synth_robots(_CRAWL_Q_SEED, _CRAWL_Q_PAGES)
    pages_map = dict(zip(pages["url"].to_pylist(), pages["html"].to_pylist()))
    seed_list = list(zip(seeds["url"].to_pylist(), seeds["priority"].to_pylist()))
    robots_map = {r["host"]: {"disallow_prefixes": r["disallow_prefixes"],
                              "crawl_delay_ms": r["crawl_delay_ms"]}
                  for r in robots.to_pylist()}
    res = rc.crawl(pages_map, seed_list, robots_map,
                   rc.CrawlConfig(max_rounds=_CRAWL_Q_ROUNDS, num_partitions=8))
    from borges_ray import schemas

    cols = [f.name for f in schemas.CRAWLED]
    exp = pd.DataFrame(res.crawled)[cols]
    tmp_path = path + ".tmp"
    exp.to_parquet(tmp_path, index=False)
    os.replace(tmp_path, path)
    return path


def _q_crawl_pipeline(sf_dir: str):
    """The full crawl engine on a small synthetic web, oracle-checked
    against the single-process reference crawl's expected table (see
    :func:`_crawl_oracle_parquet`); the multiweb/resume/politeness corners
    stay pytest-gated in tests/test_conformance.py."""
    import tempfile

    from borges_ray.pipelines.crawl import EngineConfig, collect_crawled, run_crawl
    from borges_ray.stages.fetch import write_pages_bucketed
    from borges_ray.synth import synth_pages, synth_robots, synth_seeds

    n = _CRAWL_Q_PAGES
    _crawl_oracle_parquet()  # ensure the oracle side exists for the driver
    tmp = tempfile.mkdtemp(prefix="borges_q_")
    pages = synth_pages(_CRAWL_Q_SEED, n)
    write_pages_bucketed(pages.select(["url", "html"]), f"{tmp}/pages", 4)
    cfg = EngineConfig(max_rounds=_CRAWL_Q_ROUNDS, num_partitions=8,
                       num_buckets=4, num_seen_shards=2)
    run_crawl(f"{tmp}/pages", synth_seeds(_CRAWL_Q_SEED, n),
              synth_robots(_CRAWL_Q_SEED, n).to_pandas(),
              cfg, f"{tmp}/ckpt", resume=False)
    return collect_crawled(f"{tmp}/ckpt")


def _q_paragraph_dedup(sf_dir: str):
    """CCNet-style corpus-global paragraph dedup (first occurrence wins)
    over 3-token chunks; keys-only min shuffle + one text shuffle."""
    from borges_ray.ops.ccnet import paragraph_dedup
    from borges_ray.ops.relational import load

    ds = load(sf_dir, "documents", columns=["doc_id", "text"])
    return paragraph_dedup(ds, width=3)


def _q_dup_chunk_metrics(sf_dir: str):
    """Gopher-style within-document repetition metrics over 2-token
    chunks (duplicate-line fraction analogue); shuffle-free."""
    from borges_ray.ops.ccnet import dup_chunk_metrics
    from borges_ray.ops.relational import load

    ds = load(sf_dir, "documents", columns=["doc_id", "text"])
    return dup_chunk_metrics(ds, width=2)


def _q_shard_pack(sf_dir: str):
    """Token-budget training-shard assignment via distributed prefix sum
    (range-partitioned two-phase scan; driver sees only per-range sums)."""
    from borges_ray.ops.pack import shard_pack
    from borges_ray.ops.relational import load

    ds = load(sf_dir, "documents", columns=["doc_id", "text"])

    def add_w(df: pd.DataFrame) -> pd.DataFrame:
        from borges_ray.ops.textops import token_count_batch

        ws, _ = token_count_batch(df["text"].fillna(""))
        return pd.DataFrame({"doc_id": df["doc_id"], "w": ws})

    weighted = ds.map_batches(add_w, batch_format="pandas")
    out = shard_pack(weighted, "doc_id", "w", budget=500, range_size=64)
    return out.select_columns(["doc_id", "w", "cum", "shard_id"])


def _q_pii_redact(sf_dir: str):
    """PII scrubbing (emails / phones / IPv4 → typed placeholders) with
    per-doc counts.  The synthetic corpus carries no PII, so both sides
    append the SAME deterministic doc_id-derived contact string, then
    redact — exercising every pattern on every row."""
    from borges_ray.ops.relational import load
    from borges_ray.ops.textops import PiiRedactor

    ds = load(sf_dir, "documents", columns=["doc_id", "text"])

    def augment(df: pd.DataFrame) -> pd.DataFrame:
        d = df["doc_id"]
        out = df.copy()
        out["text"] = (
            df["text"].fillna("")
            + " Contact user" + d.astype(str) + "@mail.example.com or 555-"
            + (d % 1000).astype(str).str.zfill(3) + "-"
            + ((d * 7) % 10000).astype(str).str.zfill(4)
            + " at 192.168." + (d % 256).astype(str) + "." + ((d * 3) % 256).astype(str) + "."
        )
        return out

    return ds.map_batches(augment, batch_format="pandas").map_batches(
        PiiRedactor, batch_format="pandas", concurrency=4)


def _q_warc_roundtrip(sf_dir: str):
    """WARC source/sink roundtrip: documents → .warc record files →
    parsed back; returns (doc_id, n_bytes of payload).  Proves header
    framing + Content-Length slicing are byte-exact."""
    import re as _re
    import shutil

    from borges_ray.ops.relational import load
    from borges_ray.sources.warc import read_warc, write_warc

    ds = load(sf_dir, "documents", columns=["doc_id", "text"])
    tmp = "/tmp/borges_warc/" + _re.sub(r"\W+", "_", sf_dir.strip("/"))
    shutil.rmtree(tmp, ignore_errors=True)

    def to_rec(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "url": "http://corpus.example/" + df["doc_id"].astype(str),
            "warc_ts": "2026-01-01T00:00:" + (df["doc_id"] % 60).astype(str).str.zfill(2) + "Z",
            "payload": [t.encode("utf-8") for t in df["text"].fillna("")],
        })

    write_warc(ds.map_batches(to_rec, batch_format="pandas"), tmp)
    back = read_warc(tmp)

    def summarize(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "doc_id": df["url"].str.rsplit("/", n=1).str[1].astype("int64"),
            "n_bytes": df["payload"].map(len).astype("int64"),
        })

    return back.map_batches(summarize, batch_format="pandas")


def _q_decontaminate(sf_dir: str):
    """Train/eval decontamination: train = docs with doc_id % 29 != 0,
    eval = the rest; a train doc sharing any 4-token window with an eval
    doc is flagged.  Keys-only window exchange, distinct-fingerprint eval
    build side, distributed semi-join."""
    from borges_ray.ops.ccnet import decontaminate_flags
    from borges_ray.ops.relational import filter_batches, load

    docs = load(sf_dir, "documents", columns=["doc_id", "text"])
    train = filter_batches(
        docs, lambda t: pc.not_equal(_mod(t["doc_id"], 29), pa.scalar(0, pa.int64())))
    ev = filter_batches(
        docs, lambda t: pc.equal(_mod(t["doc_id"], 29), pa.scalar(0, pa.int64())))
    return decontaminate_flags(train, ev, width=4)


_SRC_VALUES = [f"src{i}" for i in range(20)]


_CMS_PROBES = ["table", "hash", "scan", "spark", "window", "data", "key",
               "no-such-token"]


def _q_cms_counts(sf_dir: str):
    """Count-min sketch token-frequency estimates for a fixed probe set
    (≤ depth×width counter cells exist regardless of corpus size)."""
    from borges_ray.ops.relational import load
    from borges_ray.ops.sketch import cms_estimate

    ds = load(sf_dir, "documents", columns=["text"])

    def tok(df: pd.DataFrame) -> pd.DataFrame:
        rows = pd.DataFrame({"v": df["text"].fillna("").str.split()})
        return rows.explode("v", ignore_index=True).dropna(subset=["v"])

    return cms_estimate(ds.map_batches(tok, batch_format="pandas"), "v",
                        _CMS_PROBES)


def _q_rank_quantities(sf_dir: str):
    """RANK / DENSE_RANK window shapes per order over the tie-heavy
    quantity column (integer quantities repeat within an order)."""
    from borges_ray.ops.relational import load, running_agg

    ds = load(sf_dir, "lineitem",
              columns=["l_orderkey", "l_linenumber", "l_quantity"])
    out = running_agg(ds, "l_orderkey", "l_quantity",
                      {"rnk": ("rank", "l_quantity"),
                       "drnk": ("dense_rank", "l_quantity")},
                      tiebreak=["l_linenumber"])
    return out.select_columns(["l_orderkey", "l_linenumber", "l_quantity",
                               "rnk", "drnk"])


def _q_weighted_sample(sf_dir: str):
    """Weighted sampling WITHOUT replacement (Efraimidis–Spirakis):
    key = ln(u)/w with u a deterministic md5 uniform and w the token
    count; the 50 largest keys are the sample (combiner-bounded top-k,
    no shuffle of the corpus).  Token-weighted doc sampling is the
    mixture primitive for length-balanced subcorpora."""
    import hashlib

    from borges_ray.ops.relational import load, topk

    ds = load(sf_dir, "documents", columns=["doc_id", "text"])

    def keys(df: pd.DataFrame) -> pd.DataFrame:
        from borges_ray.ops.textops import token_count_batch

        w, _ = token_count_batch(df["text"].fillna(""))
        w = w.clip(lower=1).to_numpy(dtype=np.float64)
        h = np.array([int(hashlib.md5(str(i).encode()).hexdigest()[:8], 16)
                      for i in df["doc_id"]], dtype=np.float64)
        u = (h + 1.0) / 4294967296.0
        key = np.log(u) / w
        return pd.DataFrame({"doc_id": df["doc_id"],
                             "w": w.astype("int64"),
                             "key": key})

    scored = ds.map_batches(keys, batch_format="pandas")
    out = topk(scored, ["key"], 50, descending=True, tiebreak=["doc_id"])
    out["key"] = out["key"].round(6)  # round AFTER ordering, like the oracle
    return out


def _q_mixture_sample(sf_dir: str):
    """Data-mixing resample: each source gets its own deterministic
    md5-bucket keep-rate ((k % 3 + 1)/10 for srcK) — the corpus-reweighting
    primitive behind mixture tuning, layout-independent like
    ``sample_md5``."""
    from borges_ray.ops.relational import load

    ds = load(sf_dir, "documents", columns=["doc_id", "source", "lang"])

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        k = df["source"].str.removeprefix("src").astype(int)
        rate = ((k % 3 + 1) / 10.0).to_numpy()
        keep = _md5_hex4(df["doc_id"]) < (rate * 65536).astype("int64")
        return df[keep]

    return ds.map_batches(fn, batch_format="pandas")


def _q_c4_filter(sf_dir: str):
    """C4-style cleanup composition: language gate → length window →
    punctuation-density cap → exact dedup — the standard pre-training
    filter chain as ONE streaming pipeline; returns surviving doc_ids."""
    from borges_ray.ops.dedup import exact_dedup
    from borges_ray.ops.relational import load

    ds = load(sf_dir, "documents", columns=["doc_id", "lang", "text"])

    def gate(df: pd.DataFrame) -> pd.DataFrame:
        import re as _re

        texts = df["text"].fillna("")
        words = texts.str.split().str.len().fillna(0)
        n_punct = texts.str.count(r"[^\w\s]", flags=_re.ASCII)
        n_chars = texts.str.len().clip(lower=1)
        keep = ((df["lang"] == "en") & (words >= 20) & (words <= 80)
                & (n_punct / n_chars < 0.1))
        return df[keep][["doc_id", "text"]]

    gated = ds.map_batches(gate, batch_format="pandas")
    return exact_dedup(gated, "text", "doc_id").select_columns(["doc_id"])


def _q_pipeline_funnel(sf_dir: str):
    """Filter-funnel AUDIT of the C4-style cleanup chain: per-stage
    survivor counts (total → lang gate → length window → punctuation cap
    → exact dedup) computed in ONE streamed scan — each batch reduces to
    a single partial-counts row (cumulative stage booleans summed
    vectorized), so the exchange is O(#blocks) rows; the dedup stage adds
    one keys-only distinct-fingerprint count over stage-4 survivors.
    The per-stage funnel is the observability artifact every production
    cleanup run ships with (what fraction died where)."""
    import re as _re

    from borges_ray.ops.relational import distinct, grouped_agg, load
    from borges_ray.ops.textops import fingerprint_batch

    ds = load(sf_dir, "documents", columns=["doc_id", "lang", "text"])

    def stage_flags(df: pd.DataFrame):
        texts = df["text"].fillna("")
        words = texts.str.split().str.len().fillna(0)
        n_punct = texts.str.count(r"[^\w\s]", flags=_re.ASCII)
        n_chars = texts.str.len().clip(lower=1)
        s2 = (df["lang"] == "en").to_numpy()
        s3 = s2 & (words >= 20).to_numpy() & (words <= 80).to_numpy()
        s4 = s3 & (n_punct / n_chars < 0.1).to_numpy()
        return texts, s2, s3, s4

    def partial_counts(df: pd.DataFrame) -> pd.DataFrame:
        _, s2, s3, s4 = stage_flags(df)
        return pd.DataFrame({
            "__one": [1], "c1": [len(df)], "c2": [int(s2.sum())],
            "c3": [int(s3.sum())], "c4": [int(s4.sum())]})

    counts = grouped_agg(
        ds.map_batches(partial_counts, batch_format="pandas"),
        ["__one"], {"c1": ("sum", "c1"), "c2": ("sum", "c2"),
                    "c3": ("sum", "c3"), "c4": ("sum", "c4")}).to_pandas()

    def survivor_fps(df: pd.DataFrame) -> pd.DataFrame:
        texts, _s2, _s3, s4 = stage_flags(df)
        return pd.DataFrame({
            "fp": fingerprint_batch(texts[s4]).to_numpy()
            if s4.any() else np.array([], dtype=np.uint64)})

    n_dedup = distinct(
        ds.map_batches(survivor_fps, batch_format="pandas"),
        ["fp"]).count()

    names = ["total", "lang_en", "len_20_80", "punct_lt_0.1", "exact_dedup"]
    vals = [int(counts["c1"].iloc[0]), int(counts["c2"].iloc[0]),
            int(counts["c3"].iloc[0]), int(counts["c4"].iloc[0]),
            int(n_dedup)]
    return pd.DataFrame({"stage": pd.Series(range(1, 6), dtype="int64"),
                         "stage_name": names,
                         "n_rows": pd.Series(vals, dtype="int64")})


def _q_join_full_outer(sf_dir: str):
    """Full-outer hash join with unmatched rows surviving on BOTH sides
    (rich customers without urgent orders; urgent-order customers below
    the balance cut)."""
    from borges_ray.ops.relational import filter_batches, grouped_agg, hash_join, load

    cust = filter_batches(
        load(sf_dir, "customer", columns=["c_custkey", "c_acctbal"]),
        lambda t: pc.greater(t["c_acctbal"], pa.scalar(9000.0)))
    urgent = filter_batches(
        load(sf_dir, "orders", columns=["o_custkey", "o_orderpriority"]),
        lambda t: pc.equal(t["o_orderpriority"], pa.scalar("1-URGENT")))
    per_cust = grouped_agg(urgent, ["o_custkey"], {"n_orders": ("count", "o_custkey")})

    def align(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"c_custkey": df["o_custkey"],
                             "n_orders": df["n_orders"].astype("float64")})

    right = per_cust.map_batches(align, batch_format="pandas")
    out = hash_join(cust, right, on=["c_custkey"], join_type="full_outer")

    def fin(df: pd.DataFrame) -> pd.DataFrame:
        o = df.copy()
        o["c_acctbal"] = o["c_acctbal"].astype("float64")
        o["n_orders"] = o["n_orders"].astype("float64")
        return o[["c_custkey", "c_acctbal", "n_orders"]]

    return out.map_batches(fin, batch_format="pandas")


def _q_pivot_counts(sf_dir: str):
    """Crosstab reshape: lang × source count matrix (keys-only count
    combiner, one tiny bucketed widen pass)."""
    from borges_ray.ops.relational import load, pivot_counts

    ds = load(sf_dir, "documents", columns=["lang", "source"])
    return pivot_counts(ds, "lang", "source", _SRC_VALUES)


def _q_melt_counts(sf_dir: str):
    """Unpivot (wide → long): the pivoted crosstab melted back to
    (lang, variable, value) rows — zeros included, proving the reshape
    pair is lossless."""
    from borges_ray.ops.relational import load, melt, pivot_counts

    ds = load(sf_dir, "documents", columns=["lang", "source"])
    wide = pivot_counts(ds, "lang", "source", _SRC_VALUES)
    return melt(wide, ["lang"], [f"n_{v}" for v in _SRC_VALUES])


def _q_hll_vocab(sf_dir: str):
    """Per-language distinct-token estimate via the HyperLogLog sketch
    (md5 registers, exact-integer harmonic sum — bit-identical SQL twin)."""
    from borges_ray.ops.relational import explode, load
    from borges_ray.ops.sketch import hll_count_by

    ds = load(sf_dir, "documents", columns=["lang", "text"])

    def tok(df: pd.DataFrame) -> pd.DataFrame:
        rows = pd.DataFrame({"lang": df["lang"],
                             "v": df["text"].fillna("").str.split()})
        return rows.explode("v", ignore_index=True).dropna(subset=["v"])

    return hll_count_by(ds.map_batches(tok, batch_format="pandas"), "lang", "v")


def _q_tfidf_terms(sf_dir: str):
    """Top-10 TF-IDF terms per language (keys-only count shuffles +
    distributed token join + combiner-bounded per-group top-k)."""
    from borges_ray.ops.relational import load
    from borges_ray.ops.textops import tfidf_top_terms

    ds = load(sf_dir, "documents", columns=["doc_id", "lang", "text"])
    return tfidf_top_terms(ds, k=10)


def _q_pagerank(sf_dir: str):
    """Fixed-iteration damped PageRank over the supplier→part link graph
    (the crawl-tier recrawl-priority computation): rank table stays a
    Dataset end-to-end — per iteration one keys-only degree aggregate,
    one O(edges) hash-join exchange, one keys-only reduce."""
    from borges_ray.ops.graph import pagerank
    from borges_ray.ops.relational import load

    li = load(sf_dir, "lineitem", columns=["l_suppkey", "l_partkey"])

    def to_edges(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "src": "s" + df["l_suppkey"].astype(str),
            "dst": "p" + df["l_partkey"].astype(str)})

    return pagerank(li.map_batches(to_edges, batch_format="pandas"),
                    iters=2, damping=0.85, round_to=6)


def _q_degree_powerlaw(sf_dir: str):
    """Power-law audit of the supplier→part link graph: least-squares
    log-log slope of the out-degree histogram (Broder et al. 2000 —
    slope drift is the smoke signal for spider traps / link farms).
    Combiner-bounded keys-only exchanges end-to-end; the final reduce
    moves five scalars per block."""
    from borges_ray.ops.graph import degree_powerlaw
    from borges_ray.ops.relational import load

    li = load(sf_dir, "lineitem", columns=["l_suppkey"])
    ids = li.map_batches(
        lambda df: pd.DataFrame({"node": df["l_suppkey"].astype("int64")}),
        batch_format="pandas")
    return degree_powerlaw(ids)


def _q_clustering_coeff(sf_dir: str):
    """Watts-Strogatz local clustering coefficient over the same 16384-host
    link graph as ``triangle_census`` — the (deg, cc) scatter separates
    spam cliques (cc ≈ 1) from organic hubs (cc ≈ 0).  Triangle table
    left-joined onto the degree table, ratio vectorized per batch."""
    from borges_ray.ops.graph import clustering_coefficient
    from borges_ray.ops.relational import load

    li = load(sf_dir, "lineitem",
              columns=["l_orderkey", "l_linenumber", "l_partkey"])

    def to_edges(df: pd.DataFrame) -> pd.DataFrame:
        p = ((df["l_orderkey"].to_numpy("int64") * 7
              + df["l_linenumber"].to_numpy("int64")) % 16384)
        q = (df["l_partkey"].to_numpy("int64") * 13) % 16384
        return pd.DataFrame({"src": p, "dst": q})

    return clustering_coefficient(li.map_batches(to_edges,
                                                 batch_format="pandas"))


def _q_reciprocity(sf_dir: str):
    """Link reciprocity of a synthetic 4096-node directed graph derived
    from lineitem — the structural nepotism signal (organic hyperlinks
    are asymmetric; link-exchange rings are not).  Distinct edges →
    reversed semi-join → two-scalar-per-block reduce, keys-only."""
    from borges_ray.ops.graph import reciprocity
    from borges_ray.ops.relational import load

    li = load(sf_dir, "lineitem", columns=["l_orderkey", "l_partkey"])

    def to_edges(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "src": df["l_orderkey"].to_numpy("int64") % 4096,
            "dst": (df["l_partkey"].to_numpy("int64") * 13) % 4096})

    return reciprocity(li.map_batches(to_edges, batch_format="pandas"))


def _q_degree_assortativity(sf_dir: str):
    """Degree assortativity (Newman 2002) of a 16384-host link graph
    derived from lineitem — the web is disassortative; r drifting
    positive flags a link farm densely cross-linking its hubs.  Four
    Pearson sufficient-statistic scalars per block cross the final
    exchange; no edge table reaches the driver."""
    from borges_ray.ops.graph import degree_assortativity
    from borges_ray.ops.relational import load

    li = load(sf_dir, "lineitem",
              columns=["l_orderkey", "l_linenumber", "l_partkey"])

    def to_edges(df: pd.DataFrame) -> pd.DataFrame:
        p = ((df["l_orderkey"].to_numpy("int64") * 11
              + df["l_linenumber"].to_numpy("int64")) % 16384)
        q = (df["l_partkey"].to_numpy("int64") * 17) % 16384
        return pd.DataFrame({"src": p, "dst": q})

    return degree_assortativity(li.map_batches(to_edges,
                                               batch_format="pandas"))


def _q_adamic_adar(sf_dir: str):
    """Adamic-Adar link prediction over a 4096-host graph: top-100
    non-adjacent pairs by Σ 1/ln(deg) over common neighbors — crawl-side
    seed discovery / nepotism audit.  Centers above deg 256 are dropped
    (hot-key cap, mirrored exactly in the oracle); wedge fan-out is
    bucketed per center, the anti-join against the edge set is a
    keys-only hash exchange."""
    from borges_ray.ops.graph import adamic_adar
    from borges_ray.ops.relational import load

    li = load(sf_dir, "lineitem",
              columns=["l_orderkey", "l_linenumber", "l_partkey"])

    def to_edges(df: pd.DataFrame) -> pd.DataFrame:
        p = ((df["l_orderkey"].to_numpy("int64") * 5
              + df["l_linenumber"].to_numpy("int64")) % 4096)
        q = (df["l_partkey"].to_numpy("int64") * 29) % 4096
        return pd.DataFrame({"src": p, "dst": q})

    return adamic_adar(li.map_batches(to_edges, batch_format="pandas"),
                       k=100, max_deg=256)


def _q_cocitation(sf_dir: str):
    """Co-citation coupling (Small 1973) over an 8192-host directed
    graph: top-100 target pairs by number of distinct common citing
    sources (≥2), with the quadratic per-source fan-out capped at
    out-degree 256 (the directory-page cap, mirrored in the oracle).
    All-integer counts — no rounding anywhere."""
    from borges_ray.ops.graph import cocitation
    from borges_ray.ops.relational import load

    li = load(sf_dir, "lineitem",
              columns=["l_orderkey", "l_linenumber", "l_partkey"])

    def to_edges(df: pd.DataFrame) -> pd.DataFrame:
        s = ((df["l_orderkey"].to_numpy("int64") * 13
              + df["l_linenumber"].to_numpy("int64")) % 8192)
        d = (df["l_partkey"].to_numpy("int64") * 19) % 8192
        return pd.DataFrame({"src": s, "dst": d})

    return cocitation(li.map_batches(to_edges, batch_format="pandas"),
                      k=100, min_count=2, max_fanout=256)


def _q_heavy_hitters(sf_dir: str):
    """Exact heavy hitters (freq > n/200) over a Zipf-like derived key
    stream via two-pass Misra-Gries: per-batch MG summaries merge in one
    keys-only exchange (never a full-vocabulary shuffle), the ≤ 4k
    candidates broadcast once, and a second candidate-filtered scan
    produces EXACT counts — so the SQL twin is a plain
    ``HAVING count(*)*200 > total``."""
    from borges_ray.ops.relational import load
    from borges_ray.ops.sketch import heavy_hitters

    li = load(sf_dir, "lineitem",
              columns=["l_orderkey", "l_partkey", "l_linenumber"])

    def to_vals(df: pd.DataFrame) -> pd.DataFrame:
        ok = df["l_orderkey"].to_numpy("int64")
        v = ((ok * 7919 + df["l_partkey"].to_numpy("int64") * 104729
              + df["l_linenumber"].to_numpy("int64")) % (1 + ok % 997))
        return pd.DataFrame({"v": v})

    return heavy_hitters(li.map_batches(to_vals, batch_format="pandas"),
                         "v", k=200)


def _q_politeness_audit(sf_dir: str):
    """Per-host politeness audit of a fetch log (events as fetches,
    user_id % 512 as host): count consecutive-fetch gaps under the
    1-hour minimum interval and the tightest gap seen — one bucketed
    host exchange, one vectorized diff scan, exact integer
    microseconds."""
    from borges_ray.ops.relational import load
    from borges_ray.ops.sched import politeness_audit

    ev = load(sf_dir, "events", columns=["user_id", "ts"])

    def to_fetches(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"host": df["user_id"].to_numpy("int64") % 512,
                             "ts": df["ts"]})

    return politeness_audit(ev.map_batches(to_fetches,
                                           batch_format="pandas"),
                            min_interval_us=3_600_000_000)


def _q_bib_coupling(sf_dir: str):
    """Bibliographic coupling (Kessler 1963) — the dual of co-citation:
    top-100 CITING-page pairs by number of distinct targets both cite,
    over a 4096-source / 8192-target derived graph, with hot targets
    (in-degree > 256) dropped before the quadratic fan-out (the
    home-page/license-stub cap, mirrored in the oracle)."""
    from borges_ray.ops.graph import bib_coupling
    from borges_ray.ops.relational import load

    li = load(sf_dir, "lineitem",
              columns=["l_orderkey", "l_linenumber", "l_partkey"])

    def to_edges(df: pd.DataFrame) -> pd.DataFrame:
        s = ((df["l_orderkey"].to_numpy("int64") * 11
              + df["l_linenumber"].to_numpy("int64")) % 4096)
        d = (df["l_partkey"].to_numpy("int64") * 23) % 8192
        return pd.DataFrame({"src": s, "dst": d})

    return bib_coupling(li.map_batches(to_edges, batch_format="pandas"),
                        k=100, min_count=1, max_fanout=256)


def _q_burst_windows(sf_dir: str):
    """Burst detection over the event stream: hourly windows per
    event_type whose count exceeds mean + 2·std_pop of that type's
    window counts — the rate-anomaly gate evaluated in EXACT integer
    arithmetic (driver-side bigint isqrt threshold), so the SQL twin's
    HUGEINT inequality matches bit-for-bit."""
    from borges_ray.ops.relational import load
    from borges_ray.ops.stats import burst_windows

    ev = load(sf_dir, "events", columns=["event_type", "ts"])
    return burst_windows(ev, window_us=3_600_000_000, z=2)


def _q_crawl_skew(sf_dir: str):
    """Crawl-balance audit of the per-host page distribution
    (host ≡ user_id mod 1024): key count, total, Shannon entropy (nats),
    Gini coefficient (via the count-histogram rank identity — no
    distributed sort), and the hottest host's share."""
    from borges_ray.ops.relational import load
    from borges_ray.ops.stats import skew_audit

    ev = load(sf_dir, "events", columns=["user_id"])

    def to_hosts(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"host": df["user_id"].to_numpy("int64") % 1024})

    return skew_audit(ev.map_batches(to_hosts, batch_format="pandas"),
                      "host")


def _q_latency_outliers(sf_dir: str):
    """Robust per-type outlier detection on the event value (a fetch
    latency stand-in): discrete median and MAD per event_type, then a
    counting scan for |x − med| > 3·MAD.  quantile_disc medians are
    exact elements, so the float gate is bit-identical to the SQL
    twin."""
    from borges_ray.ops.relational import load
    from borges_ray.ops.stats import robust_outliers

    ev = load(sf_dir, "events", columns=["event_type", "value"])
    return robust_outliers(ev, "event_type", "value", z=3.0)


def _q_corr_by_type(sf_dir: str):
    """Per-type Pearson correlation between the event value and the
    hour-of-day it landed in (diurnal-load drill-down) — five cross
    moments map-side combined, one #groups-row exchange, round(r, 6)."""
    from borges_ray.ops.relational import load
    from borges_ray.ops.stats import grouped_corr

    ev = load(sf_dir, "events", columns=["event_type", "ts", "value"])

    def aug(df: pd.DataFrame) -> pd.DataFrame:
        t = df["ts"].to_numpy().astype("datetime64[us]").astype("int64")
        return pd.DataFrame({
            "event_type": df["event_type"],
            "value": df["value"].to_numpy("float64"),
            "hod": ((t // 3_600_000_000) % 24).astype("float64")})

    return grouped_corr(ev.map_batches(aug, batch_format="pandas"),
                        "event_type", "value", "hod")


def _q_retention_cohorts(sf_dir: str):
    """Weekly cohort-retention triangle over the event stream: users
    bucketed by first-seen week, distinct-user counts per
    (cohort, week-offset) cell — distinct (user, week) pairs collapse
    map-side, one hash join lines up cohorts, #cells rows shuffle."""
    from borges_ray.ops.events import retention_cohorts
    from borges_ray.ops.relational import load

    ev = load(sf_dir, "events", columns=["user_id", "ts"])
    out = retention_cohorts(ev).to_pandas()
    for c in ("cohort", "offset", "n_users"):
        out[c] = out[c].astype("int64")
    return out.sort_values(["cohort", "offset"]).reset_index(drop=True)


def _q_event_transitions(sf_dir: str):
    """First-order Markov transition matrix of event types per user
    (ordered by ts with event_id as the deterministic tiebreak): counts
    of each consecutive (prev → next) type pair — per-bucket partial
    counts keep the final exchange ≤ types² rows."""
    from borges_ray.ops.events import transition_counts
    from borges_ray.ops.relational import load

    ev = load(sf_dir, "events",
              columns=["user_id", "ts", "event_type", "event_id"])
    out = transition_counts(ev, tiebreak=["event_id"]).to_pandas()
    out["n"] = out["n"].astype("int64")
    return out.sort_values(["prev_type", "next_type"]).reset_index(drop=True)


def _q_window_unique(sf_dir: str):
    """Exact distinct users per (event_type, hour) — the hourly breadth
    dashboard; the approximate scale path is hll_vocab."""
    from borges_ray.ops.events import windowed_unique
    from borges_ray.ops.relational import load

    ev = load(sf_dir, "events", columns=["event_type", "ts", "user_id"])
    out = windowed_unique(ev).to_pandas()
    for c in ("win", "n_unique"):
        out[c] = out[c].astype("int64")
    return out.sort_values(["event_type", "win"]).reset_index(drop=True)


def _q_link_health(sf_dir: str):
    """One-row link-graph health audit over a 4096-source / 16384-target
    derived graph (so most targets are dangling): node/edge counts,
    self-loop and dangling fractions, max in/out degree, mean
    out-degree — keys-only degree combiners plus one tagged-union node
    classification, no outer join."""
    from borges_ray.ops.graph import link_health
    from borges_ray.ops.relational import load

    li = load(sf_dir, "lineitem",
              columns=["l_orderkey", "l_linenumber", "l_partkey"])

    def to_edges(df: pd.DataFrame) -> pd.DataFrame:
        s = ((df["l_orderkey"].to_numpy("int64") * 3
              + df["l_linenumber"].to_numpy("int64")) % 4096)
        d = (df["l_partkey"].to_numpy("int64") * 7) % 16384
        return pd.DataFrame({"src": s, "dst": d})

    return link_health(li.map_batches(to_edges, batch_format="pandas"))


def _q_host_coverage(sf_dir: str):
    """Cumulative host-coverage audit (host ≡ user_id mod 2048): the
    share of all events owned by the top 1 / 10 / 100 hosts — per-host
    counts collapse map-side, combiner-bounded top-k, exact-integer
    sums with one final division."""
    from borges_ray.ops.relational import load
    from borges_ray.ops.stats import host_coverage

    ev = load(sf_dir, "events", columns=["user_id"])

    def to_hosts(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"host": df["user_id"].to_numpy("int64") % 2048})

    return host_coverage(ev.map_batches(to_hosts, batch_format="pandas"),
                         "host")


def _q_kwic(sf_dir: str):
    """Keyword-in-context snippets for the term 'data' over documents:
    1-based first-occurrence position plus the ±30-char window, sliced
    with SQL substr/greatest semantics so the twin hashes identical."""
    from borges_ray.ops.relational import load
    from borges_ray.ops.textops import kwic_extract

    docs = load(sf_dir, "documents", columns=["doc_id", "text"])
    out = kwic_extract(docs, "data", window=30).to_pandas()
    out["pos"] = out["pos"].astype("int64")
    return out.sort_values("doc_id").reset_index(drop=True)


def _q_quality_percentile(sf_dir: str):
    """Per-language percentile rank of document length (the
    cross-language score-calibration step): SQL percent_rank tie
    semantics — ties share their first member's rank."""
    from borges_ray.ops.relational import load
    from borges_ray.ops.stats import percentile_rank

    docs = load(sf_dir, "documents", columns=["doc_id", "lang", "n_chars"])
    out = percentile_rank(docs, "lang", "n_chars",
                          id_col="doc_id").to_pandas()
    for c in ("doc_id", "n_chars"):
        out[c] = out[c].astype("int64")
    return out.sort_values("doc_id").reset_index(drop=True)


def _q_source_kl(sf_dir: str):
    """Per-source char-bigram KL divergence from the corpus-global
    distribution (drift / contamination detector): bincount combiners,
    a ≤65536-row broadcast global, keys-only everything."""
    from borges_ray.ops.relational import load
    from borges_ray.ops.textops import source_kl

    docs = load(sf_dir, "documents", columns=["source", "text"])
    return source_kl(docs)


def _q_exact_quantiles(sf_dir: str):
    """Exact global p50/p90/p99 of l_extendedprice by distributed
    SELECTION (histogram-refinement binary search on the value space —
    keys-only ≤4096-row exchanges, never a value shuffle or sort);
    returns the exact input elements DuckDB's quantile_disc picks."""
    from borges_ray.ops.relational import load
    from borges_ray.ops.stats import exact_quantile

    li = load(sf_dir, "lineitem", columns=["l_extendedprice"])
    out = exact_quantile(li, "l_extendedprice", [0.5, 0.9, 0.99])
    return out.round(6)


def _q_fetch_shards(sf_dir: str):
    """Snake-placement fetch-shard plan: hosts (user_id mod 2048)
    ranked by load desc via the histogram-base global rank (no
    total-order materialization), dealt boustrophedon into 16 shards;
    output is the per-shard host-count / load summary."""
    from borges_ray.ops.relational import grouped_agg, load
    from borges_ray.ops.sched import fetch_shard_plan

    ev = load(sf_dir, "events", columns=["user_id"])

    def to_hosts(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"host": df["user_id"].to_numpy("int64") % 2048})

    counts = grouped_agg(ev.map_batches(to_hosts, batch_format="pandas"),
                         ["host"], {"c": ("count", "host")})
    out = fetch_shard_plan(counts, 16).to_pandas()
    for c in ("shard", "n_hosts", "load"):
        out[c] = out[c].astype("int64")
    return out.sort_values("shard").reset_index(drop=True)


def _q_char_entropy(sf_dir: str):
    """Per-document character-level Shannon entropy (gibberish / blob /
    template-filler detector): one vectorized byte-bincount per batch,
    no exchange; round-6 twin of a substr-explode SQL rebuild."""
    from borges_ray.ops.relational import load
    from borges_ray.ops.textops import char_entropy

    docs = load(sf_dir, "documents", columns=["doc_id", "text"])
    out = char_entropy(docs).to_pandas()
    for c in ("doc_id", "n_chars"):
        out[c] = out[c].astype("int64")
    return out.sort_values("doc_id").reset_index(drop=True)


def _q_trimmed_mean(sf_dir: str):
    """Per-type 5–95% trimmed mean of the event value: discrete
    quantile cut points broadcast once, then a filtered sum/count
    combiner — the robust dashboard number."""
    from borges_ray.ops.relational import load
    from borges_ray.ops.stats import trimmed_mean

    ev = load(sf_dir, "events", columns=["event_type", "value"])
    return trimmed_mean(ev, "event_type", "value")


def _q_trustrank(sf_dir: str):
    """TrustRank (Gyöngyi et al. 2004): PageRank with the teleport mass
    restricted to a trusted whitelist (suppliers ≡ 0 mod 7), so rank
    propagates outward from the trusted set and unreachable spam decays
    to zero.  Same partitioned-edge machinery as ``pagerank``; the
    whitelist is broadcast once via ray.put, never joined."""
    from borges_ray.ops.graph import pagerank
    from borges_ray.ops.relational import distinct, load

    li = load(sf_dir, "lineitem", columns=["l_suppkey", "l_partkey"])

    def to_edges(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "src": "s" + df["l_suppkey"].astype(str),
            "dst": "p" + df["l_partkey"].astype(str)})

    def to_trusted(df: pd.DataFrame) -> pd.DataFrame:
        keep = df.loc[df["l_suppkey"] % 7 == 0, "l_suppkey"]
        return pd.DataFrame({"node": "s" + keep.astype(str)})

    trusted = distinct(
        li.map_batches(to_trusted, batch_format="pandas"),
        ["node"]).to_pandas()  # whitelist: curated-small by construction
    return pagerank(li.map_batches(to_edges, batch_format="pandas"),
                    iters=2, damping=0.85, round_to=6,
                    trusted=set(trusted["node"]))


def _q_crawl_depth(sf_dir: str):
    """Minimum-hop BFS from seed suppliers over the supplier↔part
    co-purchase graph (crawl-depth labeling: the batch audit of the
    frontier's round structure — seed → hop 1 → hop 2, the per-page
    depth prior every crawl scheduler keeps).  Nodes packed into one
    int64 space (2p for parts, 2s+1 for suppliers); edges bucket-spilled
    once, each hop exchanges only frontier node ids."""
    from borges_ray.ops.graph import bfs_depths
    from borges_ray.ops.relational import load

    li = load(sf_dir, "lineitem", columns=["l_suppkey", "l_partkey"])

    def to_edges(df: pd.DataFrame) -> pd.DataFrame:
        s = 2 * df["l_suppkey"].to_numpy("int64") + 1
        p = 2 * df["l_partkey"].to_numpy("int64")
        return pd.DataFrame({"src": np.concatenate([s, p]),
                             "dst": np.concatenate([p, s])})

    def to_seeds(df: pd.DataFrame) -> pd.DataFrame:
        keep = df.loc[df["l_suppkey"] % 97 == 0, "l_suppkey"]
        return pd.DataFrame(
            {"node": 2 * keep.to_numpy("int64") + 1})

    from borges_ray.ops.relational import distinct
    seeds = distinct(li.map_batches(to_seeds, batch_format="pandas"),
                     ["node"]).to_pandas()  # seed list: curated-small
    return bfs_depths(li.map_batches(to_edges, batch_format="pandas"),
                      seeds["node"].tolist(), max_hops=3)


def _q_graph_components(sf_dir: str):
    """Weakly-connected components as a first-class graph query (the
    crawl-side host-cluster labeling), reusing the dedup family's tree
    forest merge (`near_dup_labels_ds`): per-block spanning-forest
    combiner → fixed fan-in merges → one labeling pass, labels stream
    out as a Dataset.  Graph: per-order line chains hung off their
    customer node (components = one star-of-chains per customer, so the
    recursive-CTE oracle's state space stays bounded)."""
    import ray.data as rd

    from borges_ray.ops.dedup import near_dup_labels_ds
    from borges_ray.ops.relational import attach_or_filter, load

    li = load(sf_dir, "lineitem",
              columns=["l_orderkey", "l_linenumber"])
    # the lookup side is pulled or shuffled whole: no row-count block split
    orders = rd.read_parquet(f"{sf_dir}/orders.parquet",
                             columns=["o_orderkey", "o_custkey"])

    def chain_edges(df: pd.DataFrame) -> pd.DataFrame:
        ok = df["l_orderkey"].to_numpy("int64")
        ln = df["l_linenumber"].to_numpy("int64")
        keep = ln > 1  # edge from line n-1 to line n within the order
        return pd.DataFrame({"id_a": (ok * 8 + ln - 1)[keep],
                             "id_b": (ok * 8 + ln)[keep]})

    chains = li.map_batches(chain_edges, batch_format="pandas")

    def hook(df: pd.DataFrame) -> pd.DataFrame:
        f = df[df["l_linenumber"] == 1]
        return pd.DataFrame({"id_a": -f["o_custkey"].to_numpy("int64"),
                             "id_b": f["l_orderkey"].to_numpy("int64") * 8 + 1})

    # orders is the dimension side (16 B/row); the line table probes it
    # straight from its Parquet read and each order's first line hooks to
    # its customer node
    hooks = attach_or_filter(li, orders, "o_orderkey",
                             {"l_orderkey": {"o_custkey": "o_custkey"}},
                             "inner").map_batches(hook, batch_format="pandas")

    return near_dup_labels_ds(chains.union(hooks))


def _q_triangle_census(sf_dir: str):
    """Per-node triangle participation over a synthetic 16384-host link
    graph (link-farm signal: spam cliques are triangle factories).
    Degree-ordered orientation bounds every wedge task's fan-out
    (Suri-Vassilvitskii); oracle recomputes via the ordered 3-way
    self-join."""
    from borges_ray.ops.graph import triangle_counts
    from borges_ray.ops.relational import load

    li = load(sf_dir, "lineitem",
              columns=["l_orderkey", "l_linenumber", "l_partkey"])

    def to_edges(df: pd.DataFrame) -> pd.DataFrame:
        p = ((df["l_orderkey"].to_numpy("int64") * 7
              + df["l_linenumber"].to_numpy("int64")) % 16384)
        q = (df["l_partkey"].to_numpy("int64") * 13) % 16384
        return pd.DataFrame({"src": p, "dst": q})

    return triangle_counts(li.map_batches(to_edges, batch_format="pandas"))


def _q_mirror_detect(sf_dir: str):
    """Mirror-host detection over the documents corpus: hosts (doc_id mod
    61) are compared by their sets of 4-token chunk fingerprints
    (md5 lower-64, bit-identical to DuckDB md5_number_lower); host pairs
    sharing ≥2 chunks rank by content Jaccard.  Stop-fingerprints (on
    >64 hosts) drop per Bharat-Broder; all exchanges keys-only."""
    from borges_ray.ops.dedup import _md5_u64
    from borges_ray.ops.graph import mirror_hosts
    from borges_ray.ops.relational import load

    docs = load(sf_dir, "documents", columns=["doc_id", "text"])
    W = 4

    def featurize(df: pd.DataFrame) -> pd.DataFrame:
        hosts, fps = [], []
        for did, text in zip(df["doc_id"].to_numpy("int64"), df["text"]):
            toks = text.split()
            h = f"h{did % 61}"
            for j in range(len(toks) // W):
                fps.append(_md5_u64(" ".join(toks[j * W:(j + 1) * W])))
                hosts.append(h)
        return pd.DataFrame({"host": pd.Series(hosts, dtype="object"),
                             "fp": np.array(fps, dtype="uint64")})

    pages = docs.map_batches(featurize, batch_format="pandas")
    return mirror_hosts(pages, max_fp_hosts=64, min_shared=2)


def _q_hits(sf_dir: str):
    """Fixed-iteration HITS hubs/authorities over the same supplier→part
    link graph as ``pagerank`` (Kleinberg 1999; L1-normalized half-steps
    so the SQL twin is exact).  Edges bucket-spilled twice (by src and by
    dst), each half-step exchanges only the node-sized score table."""
    from borges_ray.ops.graph import hits
    from borges_ray.ops.relational import load

    li = load(sf_dir, "lineitem", columns=["l_suppkey", "l_partkey"])

    def to_edges(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "src": "s" + df["l_suppkey"].astype(str),
            "dst": "p" + df["l_partkey"].astype(str)})

    return hits(li.map_batches(to_edges, batch_format="pandas"),
                iters=2, round_to=6)


def _q_crawl_budget(sf_dir: str):
    """Global crawl-budget apportionment (Cho & Garcia-Molina-style
    recrawl planning): 400 fetch slots split across hosts by
    largest-remainder on summed md5-derived priorities, filled per host
    in priority order.  Exact-integer arithmetic on both sides — the
    remainder order is ``(B·w) mod W``, same denominator everywhere."""
    import hashlib

    from borges_ray.ops.relational import load
    from borges_ray.ops.sched import crawl_budget_alloc

    ds = load(sf_dir, "documents", columns=["doc_id"])

    def mk(df: pd.DataFrame) -> pd.DataFrame:
        pr = [int(hashlib.md5(str(d).encode()).hexdigest()[:4], 16)
              for d in df["doc_id"]]
        return pd.DataFrame({"url": df["doc_id"].astype("int64"),
                             "host": (df["doc_id"] % 127).astype("int64"),
                             "pr": pd.Series(pr, dtype="int64")})

    return crawl_budget_alloc(ds.map_batches(mk, batch_format="pandas"),
                              budget=400)


def _q_dsir_weights(sf_dir: str):
    """DSIR importance weights toward the English subset: hashed-token
    bucket distributions (md5 % 1024), mean per-token log-likelihood
    ratio per doc.  Bucket marginals are the only driver state (≤1024
    rows), re-broadcast via ray.put for the scoring pass."""
    from borges_ray.ops.lm import dsir_log_weights
    from borges_ray.ops.relational import load

    ds = load(sf_dir, "documents", columns=["doc_id", "text", "lang"])

    def tag(df: pd.DataFrame) -> pd.DataFrame:
        out = df[["doc_id", "text"]].copy()
        out["is_target"] = df["lang"] == "en"
        return out

    return dsir_log_weights(ds.map_batches(tag, batch_format="pandas"))


def _q_interval_attribution(sf_dir: str):
    """Range join: for each purchase event, count and sum the value of
    click/view events by the same user in the 30 minutes before it.
    Disk-bucketed cogroup on user + per-bucket merge_asof rank
    differences — no key-cartesian product even on hot users."""
    from borges_ray.ops.relational import interval_join_agg, load

    ev = load(sf_dir, "events",
              columns=["event_id", "ts", "user_id", "event_type", "value"])
    purchases = ev.filter(expr="event_type == 'purchase'")
    prior = ev.filter(expr="event_type == 'click' or event_type == 'view'")
    out = interval_join_agg(
        purchases, prior, "user_id", left_id="event_id", left_ts="ts",
        right_ts="ts", lo=pd.Timedelta(minutes=-30), hi=pd.Timedelta(0),
        value_col="value")

    def finalize(df: pd.DataFrame) -> pd.DataFrame:
        out = df.rename(columns={"n_right": "n_prior"})
        out["val_prior"] = out.pop("sum_val").round(4)
        return out

    return out.map_batches(finalize, batch_format="pandas")


def _q_kmeans(sf_dir: str):
    """Distributed Lloyd k-means (k=8, 2 iterations, deterministic
    lowest-id seeds): centroids broadcast via ray.put each round, one
    streaming partial-sums pass per iteration — the driver reduces only
    k × num_blocks tiny rows."""
    from borges_ray.ops.embed import kmeans_lloyd
    from borges_ray.ops.relational import load

    ds = load(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    return kmeans_lloyd(ds, k=8, iters=2)


def _q_lm_perplexity(sf_dir: str):
    """CCNet-style bigram-LM self-perplexity per document (add-one
    smoothing): batch combiners → keys-only count shuffles → distributed
    token joins; only the scalar vocab size V touches the driver."""
    from borges_ray.ops.lm import lm_perplexity
    from borges_ray.ops.relational import load

    ds = load(sf_dir, "documents", columns=["doc_id", "text"])
    return lm_perplexity(ds)


def _q_hist_quantiles(sf_dir: str):
    """Histogram-sketch per-group quantiles: only (key, bin) counts
    shuffle — the mergeable scale path next to the exact
    ``grouped_quantiles``."""
    from borges_ray.ops.relational import hist_quantile, load

    ds = load(sf_dir, "orders", columns=["o_orderpriority", "o_totalprice"])
    return hist_quantile(ds, "o_orderpriority", "o_totalprice",
                         [0.5, 0.9, 0.99], lo=0.0, hi=600000.0, n_bins=128)


def _q_robots_parse(sf_dir: str):
    """T5 raw robots.txt parsing, golden-reconstruction oracle: both sides
    derive a robots.txt BODY from doc_id (UA groups incl. a specific-agent
    override of ``*``, multiple/empty Disallow lines, Allow carve-outs
    with RFC 9309 longest-match precedence, inline comments,
    case-insensitive directives, fractional Crawl-delay); the engine must
    parse the actual text to match the oracle's arithmetic rebuild."""
    from borges_ray.ops.relational import load
    from borges_ray.stages.robots import parse_robots

    ds = load(sf_dir, "documents", columns=["doc_id"])

    def make_txt(df: pd.DataFrame) -> pd.DataFrame:
        d = df["doc_id"]
        v = (d % 4).to_numpy()
        txt = pd.Series(np.select(
            [v == 0, v == 1, v == 2],
            [
                "User-agent: *\nDisallow: /private" + (d % 7).astype(str)
                + "/\nAllow: /private" + (d % 7).astype(str) + "/pub/"
                + "\nCrawl-delay: " + (1 + d % 5).astype(str) + "\n",
                "User-agent: *\nDisallow: /all/\nAllow: /all/except/"
                + "\nUser-agent: borges\nDisallow: /only"
                + (d % 3).astype(str) + "/\nCrawl-delay: " + (2 + d % 3).astype(str) + ".0\n",
                "User-agent: *\nDisallow: /a" + (d % 5).astype(str)
                + "/\nDisallow: /b" + (d % 11).astype(str) + "/\nDisallow:\n",
            ],
            default="# note\nUSER-AGENT: *\ndisallow: /x" + (d % 9).astype(str)
            + "/ # inline\nALLOW: /x" + (d % 9).astype(str)
            + "/ok/\ncrawl-DELAY: " + (d % 6).astype(str) + "\n",
        ), index=df.index)
        return pd.DataFrame({"host": d, "robots_txt": txt})

    parsed = parse_robots(ds.map_batches(make_txt, batch_format="pandas"), "borges")

    def flat(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "doc_id": df["host"],
            "disallow": ["|".join(p) for p in df["disallow_prefixes"]],
            "allow": ["|".join(p) for p in df["allow_prefixes"]],
            "crawl_delay_ms": df["crawl_delay_ms"],
        })

    return parsed.map_batches(flat, batch_format="pandas")


def _q_semdedup(sf_dir: str):
    """SemDeDup (cluster-then-prune semantic dedup) with deterministic row
    centroids (vec_id < 16) so assignment AND the within-cluster drop rule
    are exactly SQL-recomputable."""
    from borges_ray.ops.embed import semdedup
    from borges_ray.ops.relational import load

    emb = _emb_below(sf_dir, 16)
    cents = np.stack(emb["embedding"].to_numpy()).astype(np.float64)
    ds = load(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    return semdedup(ds, cents, 0.35)


def _q_dup_spans(sf_dir: str):
    """Substring-level duplication: per doc, the token positions covered
    by any corpus-duplicated sliding 5-token window (what substring dedup
    would trim).  Keys-only window exchange + distributed semi-join."""
    from borges_ray.ops.ccnet import dup_span_coverage
    from borges_ray.ops.relational import load

    ds = load(sf_dir, "documents", columns=["doc_id", "text"])
    return dup_span_coverage(ds, width=5)


def _q_exact_substr(sf_dir: str):
    """ExactSubstr removal (Lee et al. 2022): corpus-duplicated 5-token
    windows keep only their globally-first occurrence; every other
    occurrence's tokens are spliced out and the text rebuilt.  Keys-only
    winner combine + one disk-bucketed text cogroup; the SQL twin
    recomputes the same winner rule with window functions and rebuilds
    text with an ordered, position-filtered string_agg."""
    from borges_ray.ops.ccnet import exact_substr_rewrite
    from borges_ray.ops.relational import load

    ds = load(sf_dir, "documents", columns=["doc_id", "text"])
    return exact_substr_rewrite(ds, width=5)


def _q_epoch_shuffle(sf_dir: str):
    """Deterministic per-epoch training shuffle: a seeded md5 permutation
    ranks every document globally and assigns (shard_id, pos_in_shard).
    Distributed rank via coarse hash ranges — the driver prefix-sums only
    the ≤4096 per-range totals; the SQL twin is one row_number window."""
    from borges_ray.ops.pack import epoch_shuffle
    from borges_ray.ops.relational import load

    ds = load(sf_dir, "documents", columns=["doc_id"])
    return epoch_shuffle(ds, seed=7, shard_size=64)


def _q_anchor_text(sf_dir: str):
    """Anchor-text aggregation per link target (Brin & Page 1998 §2.2):
    a deterministic two-links-per-doc graph is derived from the documents
    table (first-3-tokens anchor to a spread target; source-name anchor
    to a hot target — doc_id % 97 gives ~1% of targets 1% of ALL links,
    exercising the combiner under skew).  Both links are emitted inside
    ONE map_batches (no union feeding the downstream sort)."""
    from borges_ray.ops.graph import anchor_stats
    from borges_ray.ops.relational import load

    ds = load(sf_dir, "documents", columns=["doc_id", "text", "source"])

    def mk_links(df: pd.DataFrame) -> pd.DataFrame:
        toks3 = (df["text"].fillna("").str.split().str[:3]
                 .apply(lambda t: " ".join(t)))
        l1 = pd.DataFrame({
            "target": ((df["doc_id"] * 3 + 1) % 1000).astype("int64"),
            "anchor": toks3,
        })[toks3 != ""]
        l2 = pd.DataFrame({
            "target": (df["doc_id"] % 97).astype("int64"),
            "anchor": df["source"],
        })
        return pd.concat([l1, l2], ignore_index=True)

    links = ds.map_batches(mk_links, batch_format="pandas")
    return anchor_stats(links)


def _q_url_canonicalize(sf_dir: str):
    """M1 URL canonicalization, oracle-checked by golden reconstruction:
    both sides derive a MESSY url variant from doc_id (upper-case scheme,
    default ports, fragments, unsorted query params, dot-segments, a
    non-http scheme that must drop); the engine must actually parse and
    normalize it to match the oracle's arithmetic rebuild of the canonical
    form (cf. ``borges_ray/canonical.py`` rules)."""
    from borges_ray.canonical import canonicalize_batch, host_of
    from borges_ray.ops.relational import load

    ds = load(sf_dir, "documents", columns=["doc_id"])

    def messy(df: pd.DataFrame) -> pd.DataFrame:
        d = df["doc_id"]
        h = (d % 50).astype(str)
        v = (d % 5).to_numpy()
        ds_ = d.astype(str)
        urls = pd.Series(
            np.select(
                [v == 0, v == 1, v == 2, v == 3],
                [
                    "HTTP://WWW.Host" + h + ".Example.com:80/a/" + ds_ + "?b=2&a=1#frag",
                    "https://host" + h + ".example.com:443/x/./y/../z/" + ds_,
                    "https://host" + h + ".example.com:8443/p/" + ds_,
                    "http://host" + h + ".example.com",
                ],
                default="ftp://host" + h + ".example.com/" + ds_,
            ),
            index=df.index,
        )
        return pd.DataFrame({"doc_id": d, "raw": urls})

    def canon(df: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame({"doc_id": df["doc_id"],
                            "url": canonicalize_batch(df["raw"].tolist())})
        out = out[out["url"].notna()].copy()
        out["host"] = [host_of(u) for u in out["url"]]
        return out

    return ds.map_batches(messy, batch_format="pandas").map_batches(
        canon, batch_format="pandas")


def _q_stopword_fraction(sf_dir: str):
    """Stopword-ratio quality filter signal (the standard cheap heuristic
    for machine-generated / non-prose text), fully vectorized."""
    from borges_ray.ops.relational import load
    from borges_ray.ops.textops import STOPWORDS

    ds = load(sf_dir, "documents", columns=["doc_id", "text"])

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        words = df["text"].fillna("").str.lower().str.findall(r"[a-z]+")
        n_words = words.str.len().astype("int64")
        n_stop = words.map(lambda ws: sum(1 for w in ws if w in STOPWORDS)).astype("int64")
        return pd.DataFrame({
            "doc_id": df["doc_id"], "n_words": n_words, "n_stop": n_stop,
            "stopword_frac": (n_stop / n_words.clip(lower=1)).round(6),
        })

    return ds.map_batches(fn, batch_format="pandas")


def _md5_hex4(ids: pd.Series) -> np.ndarray:
    import hashlib

    return np.array([int(hashlib.md5(str(i).encode()).hexdigest()[:4], 16)
                     for i in ids], dtype=np.int64)


def _q_sample_md5(sf_dir: str):
    """Deterministic ~30% corpus subsample: keep doc iff the first 16 bits
    of md5(doc_id) fall under the rate threshold.  Unlike seeded
    ``random_sample`` this is layout-independent AND SQL-twinnable
    (DuckDB ``md5``), so resharding the input never changes the sample."""
    from borges_ray.ops.relational import load

    ds = load(sf_dir, "documents", columns=["doc_id", "lang"])

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        keep = _md5_hex4(df["doc_id"]) < int(0.3 * 65536)
        return df[keep]

    return ds.map_batches(fn, batch_format="pandas")


def _q_stratified_sample(sf_dir: str):
    """Per-language stratified sample: the 20 docs with the smallest
    md5(doc_id) per lang — a deterministic quota sample expressed as
    top-k-per-group (combiner-bounded shuffle)."""
    from borges_ray.ops.relational import load, topk_per_group

    ds = load(sf_dir, "documents", columns=["doc_id", "lang"])

    def add_h(df: pd.DataFrame) -> pd.DataFrame:
        out = df.copy()
        out["h16"] = _md5_hex4(df["doc_id"])
        return out

    sampled = topk_per_group(ds.map_batches(add_h, batch_format="pandas"),
                             "lang", ["h16", "doc_id"], 20, descending=False)
    return sampled.select_columns(["lang", "doc_id", "h16"])


def _q_oversized_payloads(sf_dir: str):
    """Oversized-payload triage (DocumentTooLarge semantics — the reference
    drops Paper_Content and stores the record with an error note,
    ``Borges/spiders/Elsevier/paper_xml.py:109-120``): rows whose payload
    exceeds the byte cap keep identity + byte count, lose the payload, and
    get error='payload_too_large'.  Returns the over-cap (missed-sink)
    rows; the cap of 300 B trips roughly half this corpus, so both branches
    are exercised."""
    from borges_ray.ops.records import cap_payload_rows
    from borges_ray.ops.relational import load

    ds = load(sf_dir, "documents", columns=["doc_id", "text"])
    capped = cap_payload_rows(ds, "text", max_bytes=300)
    return capped.map_batches(
        lambda df: df.loc[df["error"].notna(),
                          ["doc_id", "n_payload_bytes", "error"]],
        batch_format="pandas")


def _q_sequence_pack(sf_dir: str):
    """Fixed-context sequence packing (GPT-style pre-training layout): docs
    concatenated in doc_id order with one EOS each, cut into 256-token
    sequences; per doc the (tok_start, seq_first, seq_last, n_seqs) map a
    loader needs.  Distributed prefix sum — oracle is the SQL window
    ``sum(n+1) OVER (ORDER BY doc_id)``."""
    from borges_ray.ops.pack import sequence_pack
    from borges_ray.ops.relational import load
    from borges_ray.ops.textops import token_count_batch

    ds = load(sf_dir, "documents", columns=["doc_id", "text"])

    def add_n(df: pd.DataFrame) -> pd.DataFrame:
        ws, _ = token_count_batch(df["text"].fillna(""))
        out = df[["doc_id"]].copy()
        out["n_tokens"] = ws
        return out

    toks = ds.map_batches(add_n, batch_format="pandas")
    out = sequence_pack(toks, "doc_id", "n_tokens", 256, eos=1)
    return out.select_columns(["doc_id", "n_tokens", "tok_start",
                               "seq_first", "seq_last", "n_seqs"])


def _q_model_score(sf_dir: str):
    """fasttext-style hashed-linear quality-model scoring (compile-once
    actor class; md5 feature hashing + integer weight table, one float
    division → bit-identical SQL twin)."""
    from borges_ray.ops.relational import load
    from borges_ray.ops.textops import HashedLinearScorer

    ds = load(sf_dir, "documents", columns=["doc_id", "text"])
    scored = ds.map_batches(HashedLinearScorer, batch_format="pandas",
                            concurrency=(1, 4))
    return scored.select_columns(["doc_id", "model_score"])


_SEARCH_TERMS = ["merge", "window", "stream"]


def _q_token_search(sf_dir: str):
    """Conjunctive full-text search over a hive-partitioned inverted token
    index (physical partition pruning — the IR sibling of the IVF/LSH ANN
    layouts): build once, read only the query terms' ``tp=`` dirs, AND via
    a distributed per-doc term count.  Oracle: ``list_contains`` on the
    whitespace split per term."""
    from borges_ray.ops.index import search_all_terms

    idx_dir = _token_index_dir(sf_dir)
    out, _stats = search_all_terms(idx_dir, _SEARCH_TERMS)
    return out


def _token_index_dir(sf_dir: str) -> str:
    """Build (once per sf dir) and return the hive-partitioned token index."""
    import hashlib
    import tempfile

    from borges_ray.ops.index import build_token_index
    from borges_ray.ops.relational import load

    from borges_ray.ops import index as _index_mod

    h = hashlib.blake2b(sf_dir.encode(), digest_size=6)
    with open(_index_mod.__file__, "rb") as fp:
        h.update(fp.read())  # code change invalidates the cached index
    idx_dir = f"{tempfile.gettempdir()}/borges_tokidx2_{h.hexdigest()}"
    if not os.path.isdir(idx_dir):
        ds = load(sf_dir, "documents", columns=["doc_id", "text"])
        build_token_index(ds, idx_dir)
    return idx_dir


_PHRASE = ["big", "order", "scan"]


def _q_phrase_search(sf_dir: str):
    """Exact-phrase retrieval over a POSITIONAL hive-partitioned index
    (positional-intersection plan): postings (doc, term, pos) for the
    phrase's terms only are read via partition pruning; each posting
    votes for anchor pos-slot, anchors with all slots voting are
    occurrences.  Oracle recomputes occurrences by direct list indexing
    over the whitespace split."""
    import hashlib
    import tempfile

    from borges_ray.ops import index as _index_mod
    from borges_ray.ops.index import build_positional_index, phrase_search
    from borges_ray.ops.relational import load

    h = hashlib.blake2b(sf_dir.encode(), digest_size=6)
    with open(_index_mod.__file__, "rb") as fp:
        h.update(fp.read())
    idx_dir = f"{tempfile.gettempdir()}/borges_posidx_{h.hexdigest()}"
    if not os.path.isdir(idx_dir):
        ds = load(sf_dir, "documents", columns=["doc_id", "text"])
        build_positional_index(ds, idx_dir)
    out, _stats = phrase_search(idx_dir, _PHRASE)
    return out


def _q_proximity_search(sf_dir: str):
    """Proximity retrieval ('hash' within 3 tokens of 'join') over the
    positional index: pruned two-term partition read, doc-keyed bucket
    exchange, per-doc sorted-merge nearest-position scan (O(n log n),
    not the oracle's cross join)."""
    import hashlib
    import tempfile

    from borges_ray.ops import index as _index_mod
    from borges_ray.ops.index import build_positional_index, proximity_search
    from borges_ray.ops.relational import load

    h = hashlib.blake2b(sf_dir.encode(), digest_size=6)
    with open(_index_mod.__file__, "rb") as fp:
        h.update(fp.read())
    idx_dir = f"{tempfile.gettempdir()}/borges_posidx_{h.hexdigest()}"
    if not os.path.isdir(idx_dir):
        ds = load(sf_dir, "documents", columns=["doc_id", "text"])
        build_positional_index(ds, idx_dir)
    out, _stats = proximity_search(idx_dir, "hash", "join", max_dist=3)
    return out


def _q_bm25_search(sf_dir: str):
    """Okapi BM25 ranked retrieval over the pruned inverted index: every
    doc matching ≥1 query term scored with term-order-fixed IEEE-exact
    arithmetic (integer tf/dl/df/N aggregates, one division per factor) —
    the SQL oracle recomputes the identical expression."""
    from borges_ray.ops.index import bm25_scores
    from borges_ray.ops.relational import load
    from borges_ray.ops.textops import token_count_batch

    ds = load(sf_dir, "documents", columns=["doc_id", "text"])

    def add_dl(df: pd.DataFrame) -> pd.DataFrame:
        ws, _ = token_count_batch(df["text"].fillna(""))
        out = df[["doc_id"]].copy()
        out["dl"] = ws
        return out

    doclens = ds.map_batches(add_dl, batch_format="pandas")
    return bm25_scores(_token_index_dir(sf_dir), _SEARCH_TERMS, doclens)


def _q_snapshot_diff(sf_dir: str):
    """Rolling-recrawl snapshot diff: two deterministic snapshots derived
    from the documents table (old drops doc_id%11==3, new drops
    doc_id%13==5 and rewrites text for doc_id%9==0) classified as
    added/removed/changed/unchanged via one full-outer hash join."""
    from borges_ray.ops.records import snapshot_diff
    from borges_ray.ops.relational import load

    ds = load(sf_dir, "documents", columns=["doc_id", "text"])
    old = ds.map_batches(lambda df: df[df["doc_id"] % 11 != 3],
                         batch_format="pandas")

    def mk_new(df: pd.DataFrame) -> pd.DataFrame:
        out = df[df["doc_id"] % 13 != 5].copy()
        mod = out["doc_id"] % 9 == 0
        out.loc[mod, "text"] = out.loc[mod, "text"].fillna("") + " v2"
        return out

    new = ds.map_batches(mk_new, batch_format="pandas")
    return snapshot_diff(old, new, "doc_id", "text")


def _q_vocab_topk(sf_dir: str):
    """Tokenizer-training prep: corpus-global word counts, top 200 by
    (count desc, token asc).  Per-batch value_counts is the combiner —
    the exchange moves distinct (token, n) partials, not token
    occurrences; the final top-k is combiner-bounded per block."""
    from borges_ray.ops.relational import grouped_agg, load, topk

    ds = load(sf_dir, "documents", columns=["text"])

    def explode_counts(df: pd.DataFrame) -> pd.DataFrame:
        vc = df["text"].fillna("").str.split().explode().dropna().value_counts()
        return pd.DataFrame({"tok": vc.index.astype(str),
                             "n": vc.to_numpy(np.int64)})

    partials = ds.map_batches(explode_counts, batch_format="pandas")
    counts = grouped_agg(partials, ["tok"], {"cnt": ("sum", "n")})
    out = topk(counts, ["cnt"], 200, tiebreak=["tok"])
    out["cnt"] = out["cnt"].astype("int64")
    return out


def _q_line_filter(sf_dir: str):
    """C4-style LINE-level cleaning: per-line keep predicate (≥6 distinct
    tokens, no blocklist term) + ordered rebuild + ≥2-surviving-lines doc
    gate — one shuffle-free map_batches pass (lines never leave their
    document)."""
    from borges_ray.ops.relational import load
    from borges_ray.ops.textops import line_filter

    ds = load(sf_dir, "documents", columns=["doc_id", "text"])
    return line_filter(ds, width=10, min_distinct=6,
                       blocklist=("slow",), min_lines=2)


def _q_dup_cluster_sizes(sf_dir: str):
    """Near-dup audit: connected-component size histogram over the
    MinHash pair graph (singletons derived arithmetically, no per-doc
    label materialization).  Oracle: recursive-CTE components over the
    exact-Jaccard pair set."""
    from borges_ray.ops.dedup import dup_cluster_size_hist, minhash_near_dup_pairs_ds
    from borges_ray.ops.relational import load

    ds = load(sf_dir, "documents", columns=["doc_id", "text"])
    pairs = minhash_near_dup_pairs_ds(ds, "doc_id", threshold=0.5)
    docs = load(sf_dir, "documents", columns=["doc_id"])
    return dup_cluster_size_hist(docs, pairs, "doc_id")


def _q_bigram_pmi(sf_dir: str):
    """Top-50 collocations by PMI among bigrams with count ≥ 5 —
    tokenizer-merge / stock-phrase statistics (combiner-collapsed count
    exchange, marginals from the count table, pre-join min-count prune)."""
    from borges_ray.ops.lm import bigram_pmi
    from borges_ray.ops.relational import load

    ds = load(sf_dir, "documents", columns=["doc_id", "text"])
    return bigram_pmi(ds, min_count=5, k=50)


def _q_skipgram_counts(sf_dir: str):
    """Top-100 directional skip-gram co-occurrences within a 3-token
    window (count ≥ 5) — the raw word2vec-SGNS / GloVe statistic; the
    windowed generalization of bigram_pmi's adjacent-only table.  One
    combiner-collapsed count exchange; driver sees 100 rows."""
    from borges_ray.ops.lm import skipgram_counts
    from borges_ray.ops.relational import load

    ds = load(sf_dir, "documents", columns=["doc_id", "text"])
    return skipgram_counts(ds, window=3, min_count=5, k=100)


def _q_ppl_buckets(sf_dir: str):
    """CCNet's final step composed end-to-end: per-doc bigram-LM
    perplexity → corpus-wide head/middle/tail split at the exact discrete
    33/67 percentiles → per-(lang, bucket) census.  The thresholds are
    the only driver scalars; scoring, the quantile exchange, the lang
    join, and the census all stream."""
    from borges_ray.ops.lm import lm_perplexity
    from borges_ray.ops.relational import (grouped_agg, grouped_quantile,
                                           hash_join, load, spill_point)

    docs = load(sf_dir, "documents", columns=["doc_id", "text"])
    ppl = spill_point(
        lm_perplexity(docs).select_columns(["doc_id", "ppl"]), "pplb")

    ths = grouped_quantile(
        ppl.map_batches(lambda df: df.assign(__k=np.int64(0)),
                        batch_format="pandas"),
        "__k", "ppl", [0.33, 0.67]).to_pandas()
    t1, t2 = float(ths["q33"].iloc[0]), float(ths["q67"].iloc[0])

    lang = load(sf_dir, "documents", columns=["doc_id", "lang"])
    joined = hash_join(ppl, lang, on=["doc_id"])

    def bucket(df: pd.DataFrame) -> pd.DataFrame:
        p = df["ppl"].to_numpy(np.float64)
        b = np.where(p <= t1, "head", np.where(p <= t2, "middle", "tail"))
        return pd.DataFrame({"lang": df["lang"], "bucket": b})

    return grouped_agg(joined.map_batches(bucket, batch_format="pandas"),
                       ["lang", "bucket"], {"n_docs": ("count", "bucket")})


def _q_norm_dedup(sf_dir: str):
    """Exact dedup keyed on CCNet-NORMALIZED text (lowercase, digit fold,
    punct strip, whitespace collapse): case/punct variants — planted here
    as an uppercased ``+' !!'`` copy of every ``doc_id % 7 == 2`` doc —
    collapse onto the raw original, which raw exact dedup would miss.
    Keys-only (fp u64, id) shuffle; text never moves."""
    from borges_ray.ops.relational import load, union_all
    from borges_ray.ops.textops import normalized_dedup

    ds = load(sf_dir, "documents", columns=["doc_id", "text"])

    def variants(df: pd.DataFrame) -> pd.DataFrame:
        v = df[df["doc_id"] % 7 == 2].copy()
        v["doc_id"] = v["doc_id"] + 1000000
        v["text"] = v["text"].fillna("").str.upper() + " !!"
        return v

    var = ds.map_batches(variants, batch_format="pandas")
    return normalized_dedup(union_all([ds, var]))


def _q_recrawl_plan(sf_dir: str):
    """Composed recrawl planning — the rolling-crawl control loop as one
    dataflow: snapshot diff (what changed) → change-class priorities
    (changed 3 > added 2 > unchanged 1, removed leaves the frontier) →
    host-budget apportionment (300 slots, exact largest remainder).
    Exercises snapshot_diff and crawl_budget_alloc composed end-to-end;
    the SQL twin recomputes the diff classes closed-form from the same
    deterministic snapshot derivation as ``snapshot_diff``."""
    from borges_ray.ops.records import snapshot_diff
    from borges_ray.ops.relational import load
    from borges_ray.ops.sched import crawl_budget_alloc

    ds = load(sf_dir, "documents", columns=["doc_id", "text"])
    old = ds.map_batches(lambda df: df[df["doc_id"] % 11 != 3],
                         batch_format="pandas")

    def mk_new(df: pd.DataFrame) -> pd.DataFrame:
        out = df[df["doc_id"] % 13 != 5].copy()
        mod = out["doc_id"] % 9 == 0
        out.loc[mod, "text"] = out.loc[mod, "text"].fillna("") + " v2"
        return out

    new = ds.map_batches(mk_new, batch_format="pandas")
    diff = snapshot_diff(old, new, "doc_id", "text")

    def to_cand(df: pd.DataFrame) -> pd.DataFrame:
        keep = df[df["change"] != "removed"]
        pr = keep["change"].map({"changed": 3, "added": 2,
                                 "unchanged": 1}).astype("int64")
        return pd.DataFrame({"url": keep["doc_id"].astype("int64"),
                             "host": (keep["doc_id"] % 127).astype("int64"),
                             "pr": pr})

    cand = diff.map_batches(to_cand, batch_format="pandas")
    return crawl_budget_alloc(cand, budget=300)


def _q_gopher_filter(sf_dir: str):
    """Gopher heuristic quality-rule bundle (word count / mean word length /
    symbol ratio / alpha-word fraction / required-word hits) — one
    shuffle-free scan, every flag computed with exact integer arithmetic.
    Thresholds adapted to the synthetic corpus's 10-99-word bodies so the
    word-count and mean-word-length rules actually discriminate."""
    from borges_ray.ops.relational import load
    from borges_ray.ops.textops import gopher_quality

    ds = load(sf_dir, "documents", columns=["doc_id", "text"])
    # mean-word-length window [4.3, 4.7] as exact rationals (43/10, 47/10)
    return gopher_quality(ds, min_words=20, max_words=90,
                          mwl_lo=(43, 10), mwl_hi=(47, 10), min_req_hits=1)


def _q_soft_dedup(sf_dir: str):
    """SoftDeDup duplication down-weighting: weight = 1/n_dups over the
    CCNet-normalized content fingerprint.  Variant copies are planted
    (an uppercased `` !!`` copy of every doc_id%7==2 doc, and a second
    whitespace-padded copy of every doc_id%14==2 doc) so the weight
    distribution has 1, 1/2 and 1/3 mass.  Keys-only exchanges; text
    never shuffles."""
    from borges_ray.ops.relational import load, union_all
    from borges_ray.ops.textops import soft_dedup_weights

    ds = load(sf_dir, "documents", columns=["doc_id", "text"])

    def variants(df: pd.DataFrame) -> pd.DataFrame:
        v1 = df[df["doc_id"] % 7 == 2].copy()
        v1["doc_id"] = v1["doc_id"] + 1000000
        v1["text"] = v1["text"].fillna("").str.upper() + " !!"
        v2 = df[df["doc_id"] % 14 == 2].copy()
        v2["doc_id"] = v2["doc_id"] + 2000000
        v2["text"] = "  " + v2["text"].fillna("") + "\t"
        return pd.concat([v1, v2], ignore_index=True)

    var = ds.map_batches(variants, batch_format="pandas")
    return soft_dedup_weights(union_all([ds, var]))


def _q_compact_files(sf_dir: str):
    """Small-file Parquet compaction: scatter the documents table into
    32 tiny part files (the shape a per-round crawl sink leaves behind),
    compact to ~250-row files, and return the re-read table — proving the
    rewrite is lossless.  Streamed split/coalesce, no shuffle."""
    import shutil
    import tempfile

    import ray.data as rd

    from borges_ray.ops.relational import load
    from borges_ray.sources.io import compact_parquet

    root = tempfile.mkdtemp(prefix="compact_", dir="/tmp")
    in_dir, out_dir = f"{root}/in", f"{root}/out"
    try:
        load(sf_dir, "documents", columns=["doc_id", "n_chars"]) \
            .repartition(32).write_parquet(in_dir)
        info = compact_parquet(in_dir, out_dir, rows_per_file=250)
        assert info["files_out"] < info["files_in"], info
        out = rd.read_parquet(out_dir).to_pandas()
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return out.sort_values("doc_id").reset_index(drop=True)


def _q_partitioned_export(sf_dir: str):
    """Hive-partitioned sink + pruned read-back (the resumable-output
    contract as a first-class op): write documents partitioned by lang
    (one directory per key — a failed run skips finished partitions), then
    read back ONLY the ``lang=en`` directory.  The read touches one
    partition's bytes; the other languages never leave storage."""
    import os
    import shutil
    import tempfile

    import ray.data as rd

    from borges_ray.ops.relational import load

    root = tempfile.mkdtemp(prefix="pexport_", dir="/tmp")
    try:
        load(sf_dir, "documents", columns=["doc_id", "lang", "n_chars"]) \
            .write_parquet(root, partition_cols=["lang"])
        dirs = sorted(d for d in os.listdir(root) if d.startswith("lang="))
        assert "lang=en" in dirs, dirs
        out = rd.read_parquet(os.path.join(root, "lang=en")).to_pandas()
    finally:
        shutil.rmtree(root, ignore_errors=True)
    out["lang"] = out["lang"].astype(str)
    return (out[["doc_id", "lang", "n_chars"]]
            .sort_values("doc_id").reset_index(drop=True))


def _q_change_rate(sf_dir: str):
    """Recrawl change-frequency estimation (Cho & Garcia-Molina 2003): four
    deterministic corpus snapshots (each doc changes at snapshot s∈{1,2,3}
    iff (doc_id*31 + s*17) % 5 == 0, realized as an appended revision
    marker), fingerprinted per (doc, snap); n_changes counts adjacent
    fingerprint flips and λ̂ = -ln((n - X + 0.5)/(n + 0.5)) is the
    bias-corrected Poisson rate the scheduler would sort on.

    Scale shape: each snapshot is its own scan → keys-only
    (doc_id, snap, fp) exchange, ONE hash-partitioned groupby on doc_id;
    text never shuffles.  The SQL twin recomputes the change schedule
    closed-form, so the oracle verifies the whole fingerprint/diff
    dataflow end-to-end."""
    from borges_ray.ops.relational import load, union_all
    from borges_ray.ops.textops import fingerprint_batch

    ds = load(sf_dir, "documents", columns=["doc_id", "text"])
    N_INT = 3  # observed intervals

    def snap_fn(s: int):
        def fn(df: pd.DataFrame) -> pd.DataFrame:
            d = df["doc_id"].astype("int64")
            c = np.zeros(len(df), dtype=np.int64)
            for t in range(1, s + 1):
                c += ((d * 31 + t * 17) % 5 == 0).to_numpy().astype(np.int64)
            txt = df["text"].fillna("")
            suffixed = txt.where(c == 0, txt + " r" + pd.Series(c, index=df.index).astype(str))
            return pd.DataFrame({
                "doc_id": d,
                "snap": np.full(len(df), s, dtype=np.int64),
                "fp": fingerprint_batch(suffixed).to_numpy().view(np.int64),
            })
        return fn

    snaps = union_all([ds.map_batches(snap_fn(s), batch_format="pandas")
                       for s in range(N_INT + 1)])

    def per_doc(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values("snap", kind="mergesort")
        x = int((df["fp"].to_numpy()[1:] != df["fp"].to_numpy()[:-1]).sum())
        lam = round(-np.log((N_INT - x + 0.5) / (N_INT + 0.5)), 6)
        return pd.DataFrame({"doc_id": [int(df["doc_id"].iloc[0])],
                             "n_changes": [x], "lam": [lam],
                             "due": [x >= 2]})

    return snaps.groupby("doc_id").map_groups(per_doc, batch_format="pandas")


def _q_embed_quantize(sf_dir: str):
    """Symmetric int8 quantization of the embedding column (vector-store
    prep): per-vector scale, quantized checksum, and worst dequantization
    error — one shuffle-free pass, half-up rounding so SQL reproduces every
    value exactly."""
    from borges_ray.ops.embed import quantize_int8
    from borges_ray.ops.relational import load

    return quantize_int8(load(sf_dir, "embeddings", columns=["vec_id", "embedding"]))


def _q_host_prior(sf_dir: str):
    """Host-level quality prior (RefinedWeb-style host filtering shape):
    per-source word-count mean as the prior, each doc flagged against its
    host's prior with EXACT integer arithmetic (n_words * host_n < host_sum
    avoids float-boundary ties).  One text scan → keys-only per-host
    combine → fp-keyed hash join back (the prior table is tiny but the
    join stays fully distributed)."""
    from borges_ray.ops.relational import grouped_agg, hash_join, load

    ds = load(sf_dir, "documents", columns=["doc_id", "source", "text"])

    def words(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "doc_id": df["doc_id"].astype("int64"),
            "source": df["source"],
            "n_words": df["text"].fillna("").str.split().str.len()
                                 .fillna(0).astype("int64"),
        })

    w = ds.map_batches(words, batch_format="pandas")
    prior = grouped_agg(w, ["source"], {"host_n": ("count", "n_words"),
                                        "host_sum": ("sum", "n_words")})
    joined = hash_join(w, prior, on=["source"])

    def fin(df: pd.DataFrame) -> pd.DataFrame:
        host_n = df["host_n"].astype("int64")
        host_sum = df["host_sum"].astype("int64")
        return pd.DataFrame({
            "doc_id": df["doc_id"].astype("int64"),
            "source": df["source"],
            "n_words": df["n_words"].astype("int64"),
            "host_n": host_n,
            "host_mean": (host_sum / host_n).round(6),
            "below_prior": df["n_words"].astype("int64") * host_n < host_sum,
        })

    return joined.map_batches(fin, batch_format="pandas")


def _q_redirect_resolve(sf_dir: str):
    """Redirect-chain resolution by pointer doubling (O(log chain) rounds
    of keys-only self-joins; see ``borges_ray.ops.graph.redirect_resolve``).
    The synthetic redirect map has chains up to 15 hops (every id steps to
    id-1 until a multiple of 16, which is terminal) plus PLANTED 2-CYCLES
    (each id%1000==777 points UP to 778, which points back), so ids whose
    descent passes the cycle never resolve — the oracle classifies the
    same set via a bounded recursive CTE."""
    from borges_ray.ops.graph import redirect_resolve
    from borges_ray.ops.relational import load

    ds = load(sf_dir, "documents", columns=["doc_id"])

    def mk_edges(df: pd.DataFrame) -> pd.DataFrame:
        d = df["doc_id"].astype("int64")
        m = d % 1000
        is_src = (m == 777) | (m == 778) | (d % 16 != 0)
        d = d[is_src]
        dst = np.where(d % 1000 == 777, d + 1, d - 1)
        return pd.DataFrame({"src": d.to_numpy(), "dst": dst})

    edges = ds.map_batches(mk_edges, batch_format="pandas")
    # chains here are <= 15 hops: 4 doubling rounds (2^4 = 16) suffice
    return redirect_resolve(edges, max_rounds=4)


def _q_sitemap_extract(sf_dir: str):
    """Sitemap-protocol seed discovery: one synthetic sitemap XML per doc
    (1-5 url entries; lastmod/priority optionally absent) parsed by the
    engine's namespace-tolerant extractor into one row per <url> entry.
    The oracle regenerates loc/lastmod/priority arithmetically — the
    engine must genuinely parse the XML to match."""
    from borges_ray.extract import parse_sitemap
    from borges_ray.ops.relational import load

    ds = load(sf_dir, "documents", columns=["doc_id"])

    def mk_and_parse(df: pd.DataFrame) -> pd.DataFrame:
        rows: dict[str, list] = {"doc_id": [], "loc": [], "lastmod": [],
                                 "priority_x10": []}
        for d in df["doc_id"].astype("int64"):
            parts = ['<?xml version="1.0" encoding="UTF-8"?>'
                     '<urlset xmlns='
                     '"http://www.sitemaps.org/schemas/sitemap/0.9">']
            for j in range(int(d) % 5 + 1):
                e = [f"<loc>https://host{int(d) % 50}.example.com"
                     f"/page/{int(d) * 8 + j}</loc>"]
                if (int(d) + j) % 4 != 0:
                    e.append(f"<lastmod>2026-0{(int(d) + j) % 9 + 1}-15"
                             "</lastmod>")
                if (int(d) + j) % 3 != 0:
                    e.append(f"<priority>0.{(int(d) + j) % 10}</priority>")
                parts.append("<url>" + "".join(e) + "</url>")
            parts.append("</urlset>")
            for ent in parse_sitemap("".join(parts)):
                rows["doc_id"].append(int(d))
                rows["loc"].append(ent["loc"])
                rows["lastmod"].append(ent["lastmod"])
                rows["priority_x10"].append(ent["priority_x10"])
        out = pd.DataFrame(rows)
        out["doc_id"] = out["doc_id"].astype("int64")
        out["priority_x10"] = out["priority_x10"].astype("int64")
        return out

    return ds.map_batches(mk_and_parse, batch_format="pandas")


def _q_seed_discovery(sf_dir: str):
    """Seed discovery from robots.txt ``Sitemap:`` directives: synthetic
    robots bodies (UA groups, comments, duplicate and empty Sitemap
    lines planted) -> the engine's global-directive extractor -> one row
    per discovered sitemap URL in file order.  The oracle regenerates
    the expected (doc_id, ord, sitemap_url) set arithmetically."""
    from borges_ray.ops.relational import load
    from borges_ray.stages.robots import robots_sitemaps

    ds = load(sf_dir, "documents", columns=["doc_id"])

    def discover(df: pd.DataFrame) -> pd.DataFrame:
        rows: dict[str, list] = {"doc_id": [], "ord": [], "sitemap_url": []}
        for d in df["doc_id"].astype("int64"):
            d = int(d)
            lines = ["User-agent: *", "Disallow: /private",
                     "Sitemap:"]  # empty value: must be skipped
            for j in range(d % 3):
                lines.append(f"Sitemap: https://host{d % 50}.example.com"
                             f"/sm/{d}_{j}.xml  # discovered")
            if d % 5 == 0 and d % 3 >= 1:  # duplicate line: must dedup
                lines.append(f"Sitemap: https://host{d % 50}.example.com"
                             f"/sm/{d}_0.xml")
            for k, u in enumerate(robots_sitemaps("\n".join(lines))):
                rows["doc_id"].append(d)
                rows["ord"].append(k)
                rows["sitemap_url"].append(u)
        out = pd.DataFrame(rows)
        out["doc_id"] = out["doc_id"].astype("int64")
        out["ord"] = out["ord"].astype("int64")
        return out

    return ds.map_batches(discover, batch_format="pandas")


def _q_profile_table(sf_dir: str):
    """Per-column data-validation profile of the documents table
    (row/null/exact-distinct counts, stringified min/max) — the
    admission check a corpus passes before joining a training mix.
    Nulls are planted (every doc_id%11==3 lang nulled) so the null and
    distinct paths discriminate."""
    from borges_ray.ops.relational import load, profile_columns

    ds = load(sf_dir, "documents", columns=["doc_id", "lang", "source"])

    def plant_nulls(df: pd.DataFrame) -> pd.DataFrame:
        out = df.copy()
        out.loc[out["doc_id"] % 11 == 3, "lang"] = None
        return out

    return profile_columns(ds.map_batches(plant_nulls, batch_format="pandas"),
                           ["doc_id", "lang", "source"])


def _q_dedup_keep_best(sf_dir: str):
    """Exact dedup keeping the BEST copy per content group (highest
    n_chars, ties to min doc_id — the FineWeb keep-the-best-quality-
    duplicate convention).  Duplicate variants are planted with altered
    scores so the argmax path discriminates from min-id dedup; the
    exchange moves (hash, packed score+id) keys only."""
    from borges_ray.ops.dedup import exact_dedup_keep_best
    from borges_ray.ops.relational import load, union_all

    ds = load(sf_dir, "documents", columns=["doc_id", "text", "n_chars"])

    def variants(df: pd.DataFrame) -> pd.DataFrame:
        v = df[df["doc_id"] % 6 == 1].copy()  # same text, higher score
        v["doc_id"] = v["doc_id"] + 1000000
        v["n_chars"] = v["n_chars"] + 100
        w = df[df["doc_id"] % 12 == 1].copy()  # same text, same score
        w["doc_id"] = w["doc_id"] + 2000000    # ...loses the id tiebreak
        return pd.concat([v, w], ignore_index=True)

    aug = union_all([ds, ds.map_batches(variants, batch_format="pandas")])
    return exact_dedup_keep_best(aug, "text", "doc_id", "n_chars")


def _q_site_chrome(sf_dir: str):
    """Per-host boilerplate (site chrome) removal: a NAV line on 100% of
    each host's docs must be dropped; a PROMO line on ~33% must survive
    the 40% threshold (5*n_docs > 2*host_docs, exact ints); unique body
    lines always survive.  Keys-only frequency exchanges + one bucketed
    text reassembly."""
    from borges_ray.ops.ccnet import site_chrome_clean
    from borges_ray.ops.relational import load

    ds = load(sf_dir, "documents", columns=["doc_id", "text"])

    def mk_docs(df: pd.DataFrame) -> pd.DataFrame:
        d = df["doc_id"].astype("int64")
        h = "h" + (d % 10).astype(str)
        nav = "NAV " + h + " | home | login"
        body = "body " + d.astype(str) + " " + df["text"].fillna("")
        promo = "PROMO " + h + " special"
        txt = nav + "\n" + body
        txt = txt.where(d % 3 != 0, txt + "\n" + promo)
        return pd.DataFrame({"doc_id": d, "host": h, "text": txt})

    docs = ds.map_batches(mk_docs, batch_format="pandas")
    return site_chrome_clean(docs, num=2, den=5)


def _q_decode_fallback(sf_dir: str):
    """Encoding-aware decode ladder (the reference's utf-8 / cp1252
    split, ``upload_to_mongodb.py:80-94``): payloads cycle pure-ASCII /
    valid-multibyte-UTF-8 / bare-cp1252-byte shapes; the engine must
    actually attempt the decodes — the oracle rebuilds (encoding,
    n_chars) arithmetically from the construction."""
    from borges_ray.extract import decode_payload
    from borges_ray.ops.relational import load

    ds = load(sf_dir, "documents", columns=["doc_id"])

    def mk_and_decode(df: pd.DataFrame) -> pd.DataFrame:
        encs, lens = [], []
        for d in df["doc_id"].astype("int64"):
            v = int(d) % 3
            tag = str(d).encode()
            payload = [b"doc " + tag,
                       "café ".encode("utf-8") + tag,
                       b"caf\xe9 " + tag][v]
            text, enc = decode_payload(payload)
            encs.append(enc)
            lens.append(len(text))
        return pd.DataFrame({"doc_id": df["doc_id"].astype("int64"),
                             "encoding": encs,
                             "n_chars": pd.Series(lens, dtype="int64")})

    return ds.map_batches(mk_and_decode, batch_format="pandas")


def _q_payload_kinds(sf_dir: str):
    """Magic-byte content triage of fetched binary payloads: doc_id-
    derived payloads cycle through PDF/gzip/zip/PNG/HTML-with-leading-
    whitespace/other/empty shapes; the engine must sniff actual bytes to
    match the oracle's arithmetic kind + a per-kind census."""
    from borges_ray.extract import sniff_kind_batch
    from borges_ray.ops.relational import grouped_agg, load

    ds = load(sf_dir, "documents", columns=["doc_id"])

    def mk_and_sniff(df: pd.DataFrame) -> pd.DataFrame:
        kinds = []
        for d in df["doc_id"].astype("int64"):
            v = int(d) % 7
            payload = [b"%PDF-1.4 " + str(d).encode(),
                       b"\x1f\x8b" + str(d).encode(),
                       b"PK\x03\x04" + str(d).encode(),
                       b"\x89PNG" + str(d).encode(),
                       b"  \t\n<html>" + str(d).encode(),
                       str(d).encode(),
                       b""][v]
            kinds.append(payload)
        out = pd.DataFrame({"doc_id": df["doc_id"].astype("int64"),
                            "kind": sniff_kind_batch(kinds)})
        return out

    kinds = ds.map_batches(mk_and_sniff, batch_format="pandas")
    return grouped_agg(kinds, ["kind"], {"n": ("count", "kind")})


def _q_spider_traps(sf_dir: str):
    """Spider-trap detection: URL candidates grouped by (host, digit-
    collapsed path template); a template holding a STRICT MAJORITY of
    its host's URLs (2*n > host_total, exact integers) is flagged — the
    calendar/session-id infinite-URL-space signature a crawl scheduler
    must budget-cap.  One planted trap host emits 8 calendar URLs per
    doc; two keys-only exchanges (template census, host totals) plus a
    small hash join."""
    from borges_ray.canonical import url_template_batch
    from borges_ray.ops.relational import grouped_agg, hash_join, load

    ds = load(sf_dir, "documents", columns=["doc_id"])

    def mk_urls(df: pd.DataFrame) -> pd.DataFrame:
        d = df["doc_id"].astype("int64")
        h = (d % 20).astype(str)
        base = "https://host" + h + ".example.com"
        urls = list(base + "/page/" + d.astype(str))
        urls += list(base + "/about")
        trap = d[d % 20 == 7]
        for j in range(8):
            urls += list("https://host7.example.com/cal/"
                         + trap.astype(str) + "/"
                         + ((trap * 3 + j) % 97).astype(str))
        return url_template_batch(pd.Series(urls))

    tpl = ds.map_batches(mk_urls, batch_format="pandas")
    census = grouped_agg(tpl, ["host", "template"],
                         {"n_urls": ("count", "template")})
    totals = grouped_agg(tpl, ["host"], {"host_total": ("count", "host")})
    joined = hash_join(census, totals, on=["host"])

    def flag(df: pd.DataFrame) -> pd.DataFrame:
        out = df.copy()
        out["n_urls"] = out["n_urls"].astype("int64")
        out["host_total"] = out["host_total"].astype("int64")
        out["trap"] = 2 * out["n_urls"] > out["host_total"]
        return out

    return joined.map_batches(flag, batch_format="pandas")


def _q_template_budget(sf_dir: str):
    """Per-template crawl-budget capping — ACTING on the spider-trap
    signal: at most k=3 URLs survive per (host, digit-collapsed
    template), keep-first by url order (deterministic).  Combiner-
    bounded top-k per group: at most k rows per group leave each block,
    so a trap template emitting millions of URLs costs k rows in the
    exchange, not millions."""
    from borges_ray.canonical import url_template_batch
    from borges_ray.ops.relational import load, topk_per_group

    ds = load(sf_dir, "documents", columns=["doc_id"])

    def mk_urls(df: pd.DataFrame) -> pd.DataFrame:
        d = df["doc_id"].astype("int64")
        h = (d % 20).astype(str)
        base = "https://host" + h + ".example.com"
        urls = list(base + "/page/" + d.astype(str))
        trap = d[d % 20 == 7]
        for j in range(8):
            urls += list("https://host7.example.com/cal/"
                         + trap.astype(str) + "/"
                         + ((trap * 3 + j) % 97).astype(str))
        out = url_template_batch(pd.Series(urls))
        out["url"] = urls
        out["__g"] = out["host"] + "\x1f" + out["template"]
        return out

    tpl = ds.map_batches(mk_urls, batch_format="pandas")
    kept = topk_per_group(tpl, "__g", ["url"], 3, descending=False)
    return kept.map_batches(
        lambda df: df[["host", "template", "url"]].copy(),
        batch_format="pandas")


def _q_rollup_census(sf_dir: str):
    """GROUP BY ROLLUP(source, lang) census over documents in ONE
    streamed combiner pass (every level emitted per batch, one keys-only
    merge) — the reporting-rollup shape without one groupby per level."""
    from borges_ray.ops.relational import load, rollup_counts

    ds = load(sf_dir, "documents", columns=["source", "lang"])
    return rollup_counts(ds, ["source", "lang"])


def _q_url_features(sf_dir: str):
    """URL structure features for frontier prioritization / spam demotion
    (path depth, query-param count, digit-heavy hosts) over four
    doc_id-derived URL shapes; vectorized pandas str kernels in the
    engine vs an arithmetic SQL rebuild in the oracle."""
    from borges_ray.canonical import url_features_batch
    from borges_ray.ops.relational import load

    ds = load(sf_dir, "documents", columns=["doc_id"])

    def feats(df: pd.DataFrame) -> pd.DataFrame:
        d = df["doc_id"].astype("int64")
        h, ds_ = (d % 50).astype(str), d.astype(str)
        v = (d % 4).to_numpy()
        urls = pd.Series(np.select(
            [v == 0, v == 1, v == 2],
            [
                "https://www.site" + h + ".example.com/a/b/c" + ds_
                + "?x=1&y=2",
                "http://site" + h + ".example.com:8080/p" + ds_,
                "https://img" + (d % 7).astype(str) + ".cdn" + h
                + ".example.net/i/" + ds_ + "/th.jpg?w=100",
            ],
            default="http://site" + h + ".example.com/",
        ), index=df.index)
        out = url_features_batch(urls)
        out.insert(0, "doc_id", d)
        return out

    return ds.map_batches(feats, batch_format="pandas")


def _q_kmv_jaccard(sf_dir: str):
    """Pairwise source-vocabulary similarity via KMV sketches (k=256):
    Jaccard + distinct-union estimates between every pair of the 20
    sources from ≤ 20·256 shipped hashes — the exact pairwise job would
    shuffle every distinct token per source.  Estimators are integer /
    single-division so the SQL twin reproduces them bit-for-bit."""
    from borges_ray.ops.relational import load
    from borges_ray.ops.sketch import kmv_pairwise_jaccard

    ds = load(sf_dir, "documents", columns=["source", "text"])

    def explode(df: pd.DataFrame) -> pd.DataFrame:
        toks = df.set_index("source")["text"].fillna("").str.split().explode()
        toks = toks.dropna()
        return pd.DataFrame({"source": toks.index.astype(str),
                             "tok": toks.to_numpy()}).drop_duplicates()

    return kmv_pairwise_jaccard(ds.map_batches(explode, batch_format="pandas"),
                                "source", "tok", k=256)


def _q_sorted_neighborhood(sf_dir: str):
    """Sorted-neighborhood blocking (Hernandez-Stolfo) over normalized
    text prefixes: global rank by (key, doc_id) via an order-preserving
    prefix-code exchange, windowed pairing (w=8) with ghost rows so every
    candidate pair lies in exactly one task, 8-char-prefix verify."""
    from borges_ray.ops.dedup import sorted_neighborhood_pairs
    from borges_ray.ops.relational import load

    ds = load(sf_dir, "documents", columns=["doc_id", "text"])

    def key(df: pd.DataFrame) -> pd.DataFrame:
        import re
        k = (df["text"].fillna("").astype(str).str.lower()
             .map(lambda s: re.sub(r"\s+", " ", s)[:12]))
        return pd.DataFrame({"doc_id": df["doc_id"].to_numpy("int64"),
                             "key": k.to_numpy()})

    return sorted_neighborhood_pairs(
        ds.map_batches(key, batch_format="pandas"),
        "doc_id", "key", window=8, verify_prefix=8)


def _q_bpe_merge_counts(sf_dir: str):
    """Top adjacent-char-pair frequencies over the word-frequency-weighted
    vocabulary — the statistic one BPE merge iteration maximizes; both
    exchanges are vocabulary-bounded, never corpus-sized."""
    from borges_ray.ops.relational import load
    from borges_ray.ops.textops import bpe_pair_counts

    return bpe_pair_counts(load(sf_dir, "documents", columns=["text"]),
                           text_col="text", top=30)


def _q_bitext_candidates(sf_dir: str):
    """Bitext candidate mining (CCMatrix/ParaCrawl shape): block EN and
    non-EN documents by (source, page-key), score candidates by embedding
    cosine, and keep each EN document's best foreign match.  The blocking
    join and the per-EN argmax are both bucketed exchanges; cosine is a
    vectorized float64 kernel per batch (rounded to 6 dp BEFORE the
    argmax so tie-breaks match the SQL twin)."""
    from borges_ray.ops.relational import groupby_buckets, hash_join, load

    docs = load(sf_dir, "documents", columns=["doc_id", "source", "lang"])
    embs = load(sf_dir, "embeddings", columns=["vec_id", "embedding"])

    def prep(df: pd.DataFrame) -> pd.DataFrame:
        out = df.copy()
        out["pkey"] = (df["doc_id"].to_numpy("int64") % 40)
        out["vec_id"] = df["doc_id"].to_numpy("int64")
        return out

    keyed = docs.map_batches(prep, batch_format="pandas")
    with_vec = hash_join(keyed, embs, on=["vec_id"])

    en = with_vec.map_batches(
        lambda df: df.loc[df["lang"] == "en",
                          ["doc_id", "source", "pkey", "embedding"]]
        .rename(columns={"doc_id": "doc_en", "embedding": "emb_en"}),
        batch_format="pandas")
    xx = with_vec.map_batches(
        lambda df: df.loc[df["lang"] != "en",
                          ["doc_id", "source", "pkey", "lang", "embedding"]]
        .rename(columns={"doc_id": "doc_xx", "lang": "lang_xx",
                         "embedding": "emb_xx"}),
        batch_format="pandas")

    cand = hash_join(en, xx, on=["source", "pkey"])

    def score(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame({"doc_en": pd.Series(dtype="int64"),
                                 "doc_xx": pd.Series(dtype="int64"),
                                 "lang_xx": pd.Series(dtype="object"),
                                 "cos": pd.Series(dtype="float64")})
        a = np.stack(df["emb_en"].to_numpy()).astype(np.float64)
        b = np.stack(df["emb_xx"].to_numpy()).astype(np.float64)
        cos = (a * b).sum(axis=1) / (np.linalg.norm(a, axis=1)
                                     * np.linalg.norm(b, axis=1))
        return pd.DataFrame({"doc_en": df["doc_en"].to_numpy("int64"),
                             "doc_xx": df["doc_xx"].to_numpy("int64"),
                             "lang_xx": df["lang_xx"].astype(str).to_numpy(),
                             "cos": np.round(cos, 6)})

    scored = cand.map_batches(score, batch_format="pandas")

    def best(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return df
        return (df.sort_values(["doc_en", "cos", "doc_xx"],
                               ascending=[True, False, True],
                               kind="mergesort")
                .groupby("doc_en", sort=False).head(1))

    out = groupby_buckets(scored, ["doc_en"], best).to_pandas()
    return out.sort_values("doc_en", ignore_index=True)


def _q_kcore(sf_dir: str):
    """4-core of the synthetic 16384-host link graph by iterative peeling
    (spam farms live in dense cores).  Each round is two keys-only
    semi-joins + one degree count; the driver sees one scalar per round
    (the convergence test).  Node-set peeling over the original edges is
    equivalent to the recursive CTE's edge-set peeling — see
    `borges_ray.ops.graph.kcore`."""
    from borges_ray.ops.graph import kcore
    from borges_ray.ops.relational import load

    li = load(sf_dir, "lineitem",
              columns=["l_orderkey", "l_linenumber", "l_partkey"])

    def to_edges(df: pd.DataFrame) -> pd.DataFrame:
        p = (df["l_orderkey"].to_numpy("int64") * 7
             + df["l_linenumber"].to_numpy("int64")) % 16384
        q = (df["l_partkey"].to_numpy("int64") * 13) % 16384
        return pd.DataFrame({"src": p, "dst": q})

    out = kcore(li.map_batches(to_edges, batch_format="pandas"),
                k=4, max_rounds=12).to_pandas()
    return out.sort_values("node", ignore_index=True)


def _q_zipf_fit(sf_dir: str):
    """Zipf rank-frequency audit: log-log LSQ fit over the top-1000
    vocabulary (slope ≈ -1 for natural text; flat/steep flags
    boilerplate floods or gibberish).  Counts are combiner-collapsed;
    only the top-k rank table reaches the driver."""
    from borges_ray.ops.relational import load
    from borges_ray.ops.textops import zipf_fit

    return zipf_fit(load(sf_dir, "documents", columns=["text"]), top=1000)


def _q_heaps_law(sf_dir: str):
    """Heaps-law vocabulary-growth fit V(N) = K·N^beta sampled every 50
    docs — tokenizer-budget planning.  One vocabulary-keyed min-doc
    exchange; both cumsum inputs are ≤ n_docs/50 rows."""
    from borges_ray.ops.relational import load
    from borges_ray.ops.textops import heaps_law

    return heaps_law(load(sf_dir, "documents", columns=["doc_id", "text"]),
                     step=50)


def _q_vocab_ids(sf_dir: str):
    """Stable contiguous dictionary-id assignment for the min_df-pruned
    vocabulary (embedding tables / hash layers need dense ids): word
    counts combine map-side, then `global_rank_str` assigns
    row_number()-style ids with one order-preserving prefix-code
    exchange — no global sort materialization, no driver rows beyond
    the prefix offset table."""
    from borges_ray.ops.relational import global_rank_str, grouped_agg, load

    ds = load(sf_dir, "documents", columns=["text"])

    def word_counts(df: pd.DataFrame) -> pd.DataFrame:
        vc = df["text"].fillna("").astype(str).str.lower().str.split() \
            .explode().dropna().value_counts()
        return pd.DataFrame({"word": vc.index.astype(str),
                             "cnt": vc.to_numpy(np.int64)})

    vocab = grouped_agg(ds.map_batches(word_counts, batch_format="pandas"),
                        ["word"], {"cnt": ("sum", "cnt")})
    kept = vocab.map_batches(lambda df: df.loc[df["cnt"] >= 2],
                             batch_format="pandas")
    out = global_rank_str(kept, "word", "cnt", "term_id").to_pandas()
    out = out.rename(columns={})[["word", "term_id", "cnt"]]
    out["cnt"] = out["cnt"].astype("int64")
    return out.sort_values("word", ignore_index=True)


def _q_winnow(sf_dir: str):
    """Winnowing (MOSS) fingerprint selection: byte 8-gram rolling hashes,
    rightmost-min per 4-window, dedup — any ≥11-byte match shares a
    fingerprint.  One map, no exchange; the SQL twin recomputes the
    Horner hashes and the windowed argmin from the raw bytes."""
    from borges_ray.ops.relational import load
    from borges_ray.ops.textops import winnow_fingerprints

    out = winnow_fingerprints(
        load(sf_dir, "documents", columns=["doc_id", "text"]),
        k=8, w=4).to_pandas()
    return out.sort_values(["doc_id", "pos"], ignore_index=True)


def _q_winnow_overlap(sf_dir: str):
    """MOSS overlap ranking: top-100 document pairs by shared winnowing
    fingerprints, stop-fingerprint rule at 64 docs (exact, mirrored in
    SQL).  winnow map → keys-only inverted index → capped in-run pair
    fan-out → combiner-bounded top-k."""
    from borges_ray.ops.dedup import winnow_overlap_pairs
    from borges_ray.ops.relational import load

    return winnow_overlap_pairs(
        load(sf_dir, "documents", columns=["doc_id", "text"]),
        k=8, w=4, stop=64, top=100)


def _q_rendezvous(sf_dir: str):
    """Rendezvous-hash frontier sharding audit: per-shard key counts at
    W=16 plus how many keys a resize to W=17 would move (HRW minimal
    churn ≈ 1/17, vs ~16/17 for hash%W).  Per-row map + one shard-keyed
    aggregate."""
    from borges_ray.ops.relational import load
    from borges_ray.ops.sched import rendezvous_shards

    docs = load(sf_dir, "documents", columns=["doc_id"])

    def urls(df: pd.DataFrame) -> pd.DataFrame:
        d = df["doc_id"].to_numpy("int64")
        return pd.DataFrame({"url": [
            f"http://site{x % 97}.example.com/p/{x}" for x in d]})

    out = rendezvous_shards(docs.map_batches(urls, batch_format="pandas"),
                            "url", n_old=16, n_new=17).to_pandas()
    for c in ("shard", "n", "n_moved"):
        out[c] = out[c].astype("int64")
    return out.sort_values("shard", ignore_index=True)


def _q_leakfree_split(sf_dir: str):
    """Leakage-free train/val/test split: each document is gated by the
    md5 of its NEAR-DUP CLUSTER id (MinHash pairs → tree-forest CC
    labels), so near-duplicates can never straddle train and eval — the
    contamination guard a per-document hash gate lacks.  Pairs, labels
    and the label join all stay Datasets; the oracle recomputes clusters
    from the exact-Jaccard pair set."""
    from borges_ray.ops.dedup import _md5_u64, minhash_near_dup_pairs_ds, \
        near_dup_labels_ds
    from borges_ray.ops.relational import hash_join, load

    ds = load(sf_dir, "documents", columns=["doc_id", "text"])
    pairs = minhash_near_dup_pairs_ds(ds, "doc_id", threshold=0.5)
    labels = near_dup_labels_ds(pairs).map_batches(
        lambda df: df.rename(columns={"id": "doc_id", "group": "grp"}),
        batch_format="pandas")
    docs = load(sf_dir, "documents", columns=["doc_id"])
    joined = hash_join(docs, labels, on=["doc_id"], join_type="left")

    def gate(df: pd.DataFrame) -> pd.DataFrame:
        grp = df["grp"].fillna(df["doc_id"]).astype("int64")
        g10 = np.fromiter((_md5_u64(str(g)) % 10 for g in grp),
                          dtype=np.int64, count=len(grp))
        split = np.where(g10 < 8, "train", np.where(g10 == 8, "val", "test"))
        return pd.DataFrame({"doc_id": df["doc_id"].astype("int64"),
                             "grp": grp, "split": split})

    out = joined.map_batches(gate, batch_format="pandas").to_pandas()
    return out.sort_values("doc_id", ignore_index=True)


def _q_hll_union(sf_dir: str):
    """Cross-source vocabulary-overlap audit from ONE register pass: HLL
    registers per source merge by per-bucket max into the union estimate
    (the mergeability payoff — no second corpus scan), dup_factor =
    Σ per-source / union."""
    from borges_ray.ops.relational import load
    from borges_ray.ops.sketch import hll_union_by

    ds = load(sf_dir, "documents", columns=["source", "text"])

    def explode(df: pd.DataFrame) -> pd.DataFrame:
        toks = df.set_index("source")["text"].fillna("").str.split() \
            .explode().dropna()
        return pd.DataFrame({"source": toks.index.astype(str),
                             "tok": toks.to_numpy()})

    return hll_union_by(ds.map_batches(explode, batch_format="pandas"),
                        "source", "tok")


def _q_lang_segments(sf_dir: str):
    """CCNet-style language segmentation over synthetic BILINGUAL pages
    (each page = its own text + the text of the doc n/2 further on, so
    language runs genuinely flip mid-document): 10-token chunks labeled
    by the heuristic lang-id, consecutive same-language chunks merged
    into maximal segments.  Segmentation is exchange-free; the page
    construction is one hash join."""
    from borges_ray.ops.relational import hash_join, load
    from borges_ray.ops.textops import lang_segments

    docs = load(sf_dir, "documents", columns=["doc_id", "text"])
    n = int(docs.count())

    left = docs.map_batches(
        lambda df: pd.DataFrame({
            "doc_id": df["doc_id"].to_numpy("int64"),
            "text": df["text"].fillna(""),
            "pid": (df["doc_id"].to_numpy("int64") + n // 2) % n}),
        batch_format="pandas")
    right = docs.map_batches(
        lambda df: pd.DataFrame({
            "pid": df["doc_id"].to_numpy("int64"),
            "text2": df["text"].fillna("")}),
        batch_format="pandas")
    pages = hash_join(left, right, on=["pid"]).map_batches(
        lambda df: pd.DataFrame({
            "doc_id": df["doc_id"].to_numpy("int64"),
            "text": df["text"].astype(str) + " " + df["text2"].astype(str)}),
        batch_format="pandas")

    out = lang_segments(pages, chunk_tokens=10).to_pandas()
    return out.sort_values(["doc_id", "seg_idx"], ignore_index=True)


def _q_encode_docs(sf_dir: str):
    """Corpus → dictionary-id sequences (OOV −1 below min_df=2): one
    word-keyed hash join against the `global_rank_str` id table (no
    broadcast dictionary — a web vocabulary doesn't fit a worker), one
    per-doc regroup ordered by token position."""
    from borges_ray.ops.relational import load
    from borges_ray.ops.textops import encode_docs

    out = encode_docs(load(sf_dir, "documents", columns=["doc_id", "text"]),
                      min_df=2).to_pandas()
    return out.sort_values("doc_id", ignore_index=True)


def _q_scc(sf_dir: str):
    """Strongly connected components of a sparse 2048-host directed link
    graph by forward-backward min-label coloring (link rings vs one-way
    tendrils — the Broder bowtie decomposition's core step).  Per outer
    round: two label-propagation fixpoints (node-keyed joins, keys-only
    mins) over the unassigned residual; oracle recomputes mutual
    reachability from the recursive-CTE transitive closure."""
    from borges_ray.ops.graph import scc
    from borges_ray.ops.relational import load

    li = load(sf_dir, "lineitem",
              columns=["l_orderkey", "l_linenumber", "l_partkey"])

    def to_edges(df: pd.DataFrame) -> pd.DataFrame:
        keep = df["l_orderkey"].to_numpy("int64") % 8 == 0
        p = ((df["l_orderkey"].to_numpy("int64") * 3
              + df["l_linenumber"].to_numpy("int64")) % 2048)[keep]
        q = ((df["l_partkey"].to_numpy("int64") * 7) % 2048)[keep]
        return pd.DataFrame({"src": p, "dst": q})

    out = scc(li.map_batches(to_edges, batch_format="pandas")).to_pandas()
    return out.sort_values("node", ignore_index=True)



_INGEST_Q_SEED, _INGEST_Q_PAGES, _INGEST_Q_SHARDS = 17, 800, 4


def _ingest_q_src_dir() -> str:
    """Deterministic synthetic pages corpus for the ``bulk_ingest_resumable``
    twins, written ONCE to a fixed /tmp dir as 8 parquet files (so the
    shard grouping is meaningful).  Both twins read the same files: the Ray
    side featurizes ``html``; the SQL side recomputes the projection from
    the GOLDEN columns (``text`` is exactly ``extract_text(html)`` and
    ``lang`` the tagger output — borges_ray.synth's generator contract).
    Cache key covers the generating code so edits invalidate it."""
    import hashlib
    import tempfile

    from borges_ray import synth as _synth

    h = hashlib.blake2b(digest_size=6)
    with open(_synth.__file__, "rb") as fp:
        h.update(fp.read())
    d = os.path.join(
        tempfile.gettempdir(),
        f"borges_ingest_src_{_INGEST_Q_SEED}_{_INGEST_Q_PAGES}"
        f"_{h.hexdigest()}")
    if os.path.isdir(d) and len(os.listdir(d)) == 8:
        return d
    import pyarrow.parquet as _pq

    from borges_ray.synth import synth_pages

    pages = synth_pages(_INGEST_Q_SEED, _INGEST_Q_PAGES)
    tmp = d + ".tmp"
    os.makedirs(tmp, exist_ok=True)
    n = pages.num_rows
    step = (n + 7) // 8
    for k in range(8):
        _pq.write_table(pages.slice(k * step, step),
                        os.path.join(tmp, f"part-{k}.parquet"))
    if os.path.isdir(d):
        import shutil
        shutil.rmtree(d)
    os.replace(tmp, d)
    return d


def _q_bulk_ingest_resumable(sf_dir: str):
    """Shard-resumable bulk ingest driven through a KILL + RESUME cycle:
    run to completion, unseal one shard (delete its marker + output — the
    crash model), rerun, and assert the rerun skipped every sealed shard.
    Returns the SQL-comparable projection of the final features (url,
    lang, whitespace-token count, payload bytes); the oracle recomputes it
    from the synth corpus's golden columns, so a resume that dropped or
    duplicated shard rows hash-mismatches."""
    import shutil
    import tempfile

    from borges_ray.pipelines.ingest import bulk_ingest_resumable

    src = _ingest_q_src_dir()
    out = tempfile.mkdtemp(prefix="borges_q_ingest_")
    bulk_ingest_resumable(src, out, dedup=False,
                          num_shards=_INGEST_Q_SHARDS)
    feat = os.path.join(out, "features")
    # crash model: shard 2 lost its seal and (partially) its output
    os.remove(os.path.join(feat, "_SHARD_DONE_2"))
    shutil.rmtree(os.path.join(feat, "shard=2"), ignore_errors=True)
    r2 = bulk_ingest_resumable(src, out, dedup=False,
                               num_shards=_INGEST_Q_SHARDS)
    assert r2["shards_skipped"] == _INGEST_Q_SHARDS - 1, r2
    import ray.data as rd

    files = sorted(
        os.path.join(dp, f) for dp, _dn, fs in os.walk(feat)
        for f in fs if f.endswith(".parquet"))
    return (rd.read_parquet(files,
                            columns=["url", "lang", "n_ws_tokens",
                                     "n_html_bytes"])
            .to_pandas().sort_values("url", ignore_index=True))



def _q_image_features(sf_dir: str):
    """REAL image decode pipeline: every doc gets a deterministic
    closed-form netpbm P6 payload (a real binary image format, parsed
    with a real comment-tolerant header parser — no image library),
    decoded on an actor pool into per-channel means, dimensions, and an
    integer-exact 8x8 average-hash; the oracle recomputes every value
    from the pixel formula via generate_series."""
    from borges_ray.ops.multimodal import image_features
    from borges_ray.ops.relational import load

    docs = load(sf_dir, "documents", columns=["doc_id"])
    return (image_features(docs).to_pandas()
            .sort_values("doc_id", ignore_index=True))


def _q_audio_features(sf_dir: str):
    """REAL audio decode pipeline: deterministic RIFF/WAVE PCM16 payloads
    (real chunk-walking parser, stdlib-only), decoded on an actor pool
    into duration / RMS / zero-crossing rate with integer-exact
    arithmetic; oracle recomputes from the sample formula."""
    from borges_ray.ops.multimodal import audio_features
    from borges_ray.ops.relational import load

    docs = load(sf_dir, "documents", columns=["doc_id"])
    return (audio_features(docs).to_pandas()
            .sort_values("doc_id", ignore_index=True))



def _q_image_neardup(sf_dir: str):
    """Perceptual-hash image near-dup: quads of docs share a base image
    with a small planted row-0 perturbation; REAL P6 decode → integer
    aHash → multi-index Hamming banding (4×16-bit bands; pigeonhole-EXACT
    recall for distance ≤ 3) → vectorized popcount verify.  Oracle
    recomputes every hash from the pixel formula and brute-forces
    bit_count(xor) over all pairs — the banded result must equal it
    exactly."""
    from borges_ray.ops.multimodal import PpmFeatures, ahash_neardup, synth_ppm
    from borges_ray.ops.relational import load

    docs = load(sf_dir, "documents", columns=["doc_id"])

    def gen(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "doc_id": df["doc_id"].astype("int64"),
            "payload": [synth_ppm(int(d), base=int(d) // 4,
                                  row0_boost=(int(d) % 4) * 17)
                        for d in df["doc_id"]]})

    hashes = (docs.map_batches(gen, batch_format="pandas")
              .map_batches(PpmFeatures, batch_format="pandas",
                           concurrency=(1, 4), num_cpus=1)
              .map_batches(lambda df: df[["doc_id", "ahash"]],
                           batch_format="pandas"))
    out = ahash_neardup(hashes, max_dist=3, bands=4).to_pandas()
    return out.sort_values(["id_a", "id_b"], ignore_index=True)



def _q_video_frame_stats(sf_dir: str):
    """REAL video decode pipeline: deterministic YUV4MPEG2 (Y4M C444)
    clips per doc — a real public raw-video format parsed with a real
    header/FRAME-marker walker, no ffmpeg — frame-sampled (every 2nd
    frame) on an actor pool into integer-exact per-plane means; the
    oracle recomputes from the pixel formula."""
    from borges_ray.ops.multimodal import video_frame_stats
    from borges_ray.ops.relational import load

    docs = load(sf_dir, "documents", columns=["doc_id"])
    return (video_frame_stats(docs).to_pandas()
            .sort_values(["doc_id", "frame_idx"], ignore_index=True))


def queries() -> dict[str, Callable[[str], Any]]:
    return {

        # --- never driver-sampled first: the correctness gate reads
        # --- the registry in order, so rotate coverage onto these
        "bulk_ingest_resumable": _q_bulk_ingest_resumable,
        "image_features": _q_image_features,
        "audio_features": _q_audio_features,
        "image_neardup": _q_image_neardup,
        "video_frame_stats": _q_video_frame_stats,
        "exact_substr": _q_exact_substr,
        "epoch_shuffle": _q_epoch_shuffle,
        "anchor_text": _q_anchor_text,
        "pipeline_funnel": _q_pipeline_funnel,
        "lm_perplexity": _q_lm_perplexity,
        "kmeans_clusters": _q_kmeans,
        "interval_attribution": _q_interval_attribution,
        "dsir_weights": _q_dsir_weights,
        "pagerank": _q_pagerank,
        "degree_powerlaw": _q_degree_powerlaw,
        "reciprocity": _q_reciprocity,
        "clustering_coeff": _q_clustering_coeff,
        "degree_assortativity": _q_degree_assortativity,
        "adamic_adar": _q_adamic_adar,
        "cocitation": _q_cocitation,
        "heavy_hitters": _q_heavy_hitters,
        "politeness_audit": _q_politeness_audit,
        "bib_coupling": _q_bib_coupling,
        "burst_windows": _q_burst_windows,
        "crawl_skew": _q_crawl_skew,
        "latency_outliers": _q_latency_outliers,
        "corr_by_type": _q_corr_by_type,
        "retention_cohorts": _q_retention_cohorts,
        "event_transitions": _q_event_transitions,
        "window_unique": _q_window_unique,
        "link_health": _q_link_health,
        "host_coverage": _q_host_coverage,
        "kwic": _q_kwic,
        "char_entropy": _q_char_entropy,
        "trimmed_mean": _q_trimmed_mean,
        "fetch_shards": _q_fetch_shards,
        "exact_quantiles": _q_exact_quantiles,
        "quality_percentile": _q_quality_percentile,
        "source_kl": _q_source_kl,
        "trustrank": _q_trustrank,
        "crawl_depth": _q_crawl_depth,
        "mirror_detect": _q_mirror_detect,
        "triangle_census": _q_triangle_census,
        "graph_components": _q_graph_components,
        "hits": _q_hits,
        "crawl_budget": _q_crawl_budget,
        "minhash_incremental": _q_minhash_incremental,
        "quality_prune": _q_quality_prune,
        "recrawl_plan": _q_recrawl_plan,
        "vocab_topk": _q_vocab_topk,
        "line_filter": _q_line_filter,
        "norm_dedup": _q_norm_dedup,
        "gopher_filter": _q_gopher_filter,
        "embed_quantize": _q_embed_quantize,
        "change_rate": _q_change_rate,
        "partitioned_export": _q_partitioned_export,
        "host_prior": _q_host_prior,
        "soft_dedup": _q_soft_dedup,
        "compact_files": _q_compact_files,
        "ppl_buckets": _q_ppl_buckets,
        "dup_cluster_sizes": _q_dup_cluster_sizes,
        "bigram_pmi": _q_bigram_pmi,
        "skipgram_counts": _q_skipgram_counts,
        "url_canonicalize": _q_url_canonicalize,
        "stopword_fraction": _q_stopword_fraction,
        "sample_md5": _q_sample_md5,
        "stratified_sample": _q_stratified_sample,
        "join_salted": _q_salted_join,
        "window_sliding": _q_window_sliding,
        "asof_join_orders": _q_asof_join,
        "topk_per_group": _q_topk_per_group,
        "grouped_quantiles": _q_grouped_quantiles,
        "running_totals": _q_running_totals,
        "kmv_jaccard": _q_kmv_jaccard,
        "kcore": _q_kcore,
        "zipf_fit": _q_zipf_fit,
        "heaps_law": _q_heaps_law,
        "vocab_ids": _q_vocab_ids,
        "winnow_fps": _q_winnow,
        "winnow_overlap": _q_winnow_overlap,
        "rendezvous_shards": _q_rendezvous,
        "leakfree_split": _q_leakfree_split,
        "hll_union": _q_hll_union,
        "lang_segments": _q_lang_segments,
        "encode_docs": _q_encode_docs,
        "scc": _q_scc,
        "sorted_neighborhood": _q_sorted_neighborhood,
        "bpe_merge_counts": _q_bpe_merge_counts,
        "bitext_candidates": _q_bitext_candidates,
        # --- driver-green in r01-r04:
        "redirect_resolve": _q_redirect_resolve,
        "sitemap_extract": _q_sitemap_extract,
        "seed_discovery": _q_seed_discovery,
        "profile_table": _q_profile_table,
        "rollup_census": _q_rollup_census,
        "spider_traps": _q_spider_traps,
        "template_budget": _q_template_budget,
        "payload_kinds": _q_payload_kinds,
        "decode_fallback": _q_decode_fallback,
        "site_chrome": _q_site_chrome,
        "dedup_keep_best": _q_dedup_keep_best,
        "url_features": _q_url_features,
        "bpe_tokens": _q_bpe_tokens,
        "oversized_payloads": _q_oversized_payloads,
        "snapshot_diff": _q_snapshot_diff,
        "sequence_pack": _q_sequence_pack,
        "model_score": _q_model_score,
        "token_search": _q_token_search,
        "phrase_search": _q_phrase_search,
        "proximity_search": _q_proximity_search,
        "bm25_search": _q_bm25_search,
        "cosine_neardup": _q_cosine_neardup,
        "cosine_neardup_lsh": _q_cosine_neardup_lsh,
        "knn_lsh": _q_knn_lsh,
        "knn_ivf": _q_knn_ivf,
        "minhash_neardup": _q_minhash_neardup,
        "ngram_jaccard": _q_ngram_jaccard,
        "editdist_join": _q_editdist_join,
        "containment_docs": _q_containment,
        "minhash_dedup_survivors": _q_minhash_dedup_survivors,
        "simhash_signatures": _q_simhash,
        "simhash_neardup": _q_simhash_neardup,
        "lang_id_confusion": _q_lang_id,
        "fingerprints": _q_fingerprints,
        "media_features": _q_media_features,
        "video_frames": _q_video_frames,
        "paged_search_urls": _q_paged_search_urls,
        "date_kernels": _q_date_kernels,
        "metadata_extract": _q_metadata_extract,
        "missed_records": _q_missed_records,
        "zip_extract_meta": _q_zip_extract_meta,
        "api_json_records": _q_api_json_records,
        "merge_abstract": _q_merge_abstract,
        "recrawl_overwrite": _q_recrawl_overwrite,
        "crawl_pipeline": _q_crawl_pipeline,
        "pricing_summary": _q_pricing_summary,
        "filter_revenue": _q_filter_revenue,
        "topk_orders": _q_topk_orders,
        "distinct_segments": _q_distinct_segments,
        "dedup_docs_exact": _q_dedup_docs,
        "token_counts": _q_token_counts,
        "quality_scores": _q_quality,
        "paragraph_dedup": _q_paragraph_dedup,
        "dup_chunk_metrics": _q_dup_chunk_metrics,
        "shard_pack": _q_shard_pack,
        "pii_redact": _q_pii_redact,
        "warc_roundtrip": _q_warc_roundtrip,
        "dup_spans": _q_dup_spans,
        "semdedup": _q_semdedup,
        "robots_parse": _q_robots_parse,
        "decontaminate": _q_decontaminate,
        "hll_vocab": _q_hll_vocab,
        "cms_counts": _q_cms_counts,
        "join_full_outer": _q_join_full_outer,
        "mixture_sample": _q_mixture_sample,
        "weighted_sample": _q_weighted_sample,
        "rank_quantities": _q_rank_quantities,
        "c4_filter": _q_c4_filter,
        "pivot_counts": _q_pivot_counts,
        "melt_counts": _q_melt_counts,
        "tfidf_terms": _q_tfidf_terms,
        "hist_quantiles": _q_hist_quantiles,
        "join_broadcast": _q_join_broadcast,
        "join_hash": _q_hash_join,
        "anti_join": _q_anti_join,
        "semi_join": _q_semi_join,
        "explode_tokens": _q_explode_tokens,
        "window_hourly": _q_window_hourly,
        "sessionize": _q_sessionize,
        "asof_lag": _q_asof_lag,
        "group_having": _q_group_having,
        "union_distinct": _q_union_distinct,
        "knn_cosine": _q_knn,
    }


#: Golden-field reconstruction for the synthetic article corpus — the SQL
#: twin of borges_ray.synth_articles.golden_meta (every field is doc_id/text
#: arithmetic; the engine must parse the actual markup to match it).
_METADATA_ORACLE = """
    SELECT
      doc_id,
      '10.1000/doc.' || doc_id AS doi,
      CASE WHEN doc_id % 2 = 0 THEN 'Institute of Physics'
           ELSE 'SpringerNature' END AS publisher,
      CASE WHEN doc_id % 2 = 0 AND doc_id % 23 = 0 THEN 'pub-id-' || (doc_id % 5)
           ELSE (['Journal of The Electrochemical Society','Applied Ceramics',
                  'Physics Letters Q','Acta Materialia X',
                  'Journal of Power Sources Y'])[1 + doc_id % 5]
      END AS journal,
      CASE WHEN doc_id % 7 = 0 THEN NULL
           ELSE (1000 + doc_id % 89) || '-' || (2000 + doc_id % 97) END AS journal_issn,
      CASE WHEN doc_id % 2 = 0 AND doc_id % 11 <> 0
           THEN (3000 + doc_id % 83) || '-' || (4000 + doc_id % 79) END AS journal_eissn,
      CAST(1990 + doc_id % 30 AS VARCHAR) AS published_year,
      'Study ' || doc_id || ' of ' || string_split(text, ' ')[1] AS title,
      CAST(1 + doc_id % 12 AS VARCHAR) AS issue,
      CASE WHEN doc_id % 2 = 0 AND doc_id % 13 = 0 THEN NULL
           ELSE 'We study sample ' || doc_id || ' in detail.' END AS abstract,
      doc_id % 8 < 4 AS contains_body,
      CASE WHEN doc_id % 2 = 1 AND doc_id % 29 = 0 THEN NULL ELSE
        array_to_string(list_transform(range(0, 1 + doc_id % 3), i ->
          (['Alice','Bo','Chen','Dmitri','Eva','Femi','Grace','Hiro'])[1 + (doc_id*7 + i*3) % 8]
          || ' ' ||
          (['Smith','Tanaka','Lee','Garcia','Okafor','Weber','Rossi','Novak'])[1 + (doc_id*5 + i*11) % 8]
          || CASE WHEN i = 0 AND doc_id % 42 = 0
                  THEN ' (' || repeat((['漢字','東京','材料','研究'])[1 + doc_id % 4], 2) || ')'
                  ELSE '' END
        ), '; ')
      END AS authors
    FROM documents
    WHERE NOT (doc_id % 2 = 1 AND doc_id % 19 = 0)
"""


#: All-pairs exact word-3-shingle Jaccard ≥ 0.5 — the SQL twin of the
#: MinHash verify stage (shingle-hash sets vs shingle-string sets are
#: identical absent u64 collisions; the division is the same IEEE double).
def _jaccard_pairs_sql(threshold: float) -> str:
    """All-pairs exact word-3-shingle Jaccard in SQL, parametrized on the
    keep threshold — the shared twin of every Jaccard-family engine path
    (minhash verify at 0.5, the prefix-filtered exact join at 0.3)."""
    return _MINHASH_PAIRS_SQL.replace(">= 0.5", f">= {threshold}")


#: shared CTE chain: corpus bigram-LM with add-one smoothing → per-doc
#: log-prob sums (`sums`: doc_id, s, n) — used by lm_perplexity and the
#: CCNet-style ppl_buckets twin.
_LM_PPL_SQL = r"""
            WITH toks AS (
              SELECT doc_id,
                     list_filter(regexp_split_to_array(lower(text), '\s+'),
                                 x -> x <> '') AS w
              FROM documents
            ), pos AS (
              SELECT doc_id, unnest(w) AS tok, generate_subscripts(w, 1) AS p
              FROM toks
            ), big AS (
              SELECT a.doc_id, a.tok AS w1, b.tok AS w2
              FROM pos a JOIN pos b ON a.doc_id = b.doc_id AND b.p = a.p + 1
            ), lm2 AS (
              SELECT w1, w2, count(*) AS c12 FROM big GROUP BY 1, 2
            ), lm1 AS (
              SELECT w1, sum(c12) AS c1 FROM lm2 GROUP BY 1
            ), v AS (SELECT count(*) AS v FROM lm1),
            doc_big AS (
              SELECT doc_id, w1, w2, count(*) AS k FROM big GROUP BY 1, 2, 3
            ), sums AS (
              SELECT d.doc_id,
                     sum(d.k * (ln(l2.c12 + 1.0)
                                - ln(l1.c1 + (SELECT v FROM v)))) AS s,
                     sum(d.k) AS n
              FROM doc_big d
              JOIN lm2 l2 USING (w1, w2) JOIN lm1 l1 USING (w1)
              GROUP BY 1
            )
"""

_MINHASH_PAIRS_SQL = r"""
    WITH RECURSIVE toks AS (
        SELECT doc_id,
               list_filter(string_split_regex(text, '\s+'), x -> x <> '') AS w
        FROM documents
    ),
    sh AS (
        SELECT doc_id,
               CASE WHEN len(w) < 3 THEN [array_to_string(w, ' ')]
                    ELSE list_transform(range(1, len(w) - 1),
                                        i -> w[i] || ' ' || w[i+1] || ' ' || w[i+2])
               END AS shingles
        FROM toks
    ),
    ex AS (SELECT DISTINCT doc_id, unnest(shingles) AS s FROM sh),
    cnt AS (SELECT doc_id, count(*) AS n FROM ex GROUP BY doc_id),
    inter AS (
        SELECT a.doc_id AS ia, b.doc_id AS ib, count(*) AS c
        FROM ex a JOIN ex b ON a.s = b.s AND a.doc_id < b.doc_id
        GROUP BY 1, 2
    ),
    jpairs AS (
        SELECT ia AS id_a, ib AS id_b,
               c * 1.0 / (na.n + nb.n - c) AS jaccard
        FROM inter
        JOIN cnt na ON ia = na.doc_id
        JOIN cnt nb ON ib = nb.doc_id
        WHERE c * 1.0 / (na.n + nb.n - c) >= 0.5
    )
"""

#: SQL twin of ops.textops.LangId: CJK codepoint share ≥ 0.25 → 'zh', else
#: best marker-word bank (ties → lexicographically largest lang, matching
#: python's max over (score, lang) tuples), else 'und'.
_CJK_CLASS = (r"\x{3300}-\x{33FF}\x{FE30}-\x{FE4F}\x{F900}-\x{FAFF}"
              r"\x{2F800}-\x{2FA1F}\x{3040}-\x{309F}\x{30A0}-\x{30FF}"
              r"\x{2E80}-\x{2EFF}\x{4E00}-\x{9FFF}\x{3400}-\x{4DBF}"
              r"\x{AC00}-\x{D7AF}\x{20000}-\x{2A6DF}\x{2A700}-\x{2B73F}"
              r"\x{2B740}-\x{2B81F}\x{2B820}-\x{2CEAF}")

_LANG_ID_SQL = rf"""
    WITH feat AS (
        SELECT lang, doc_id,
               CASE WHEN length(text) = 0 THEN 0.0
                    ELSE length(regexp_replace(text, '[^{_CJK_CLASS}]', '', 'g'))
                         * 1.0 / length(text)
               END AS cjk_share,
               regexp_extract_all(lower(text), '[\pL]+') AS words
        FROM documents
    ),
    scores AS (
        SELECT lang, doc_id, cjk_share,
          len(list_filter(words, w -> w IN ('the','and','of','to','in','that','with','for','is','are'))) AS s_en,
          len(list_filter(words, w -> w IN ('der','die','das','und','ist','mit','für','nicht','von','ein'))) AS s_de,
          len(list_filter(words, w -> w IN ('le','la','les','et','de','des','est','pour','avec','une'))) AS s_fr,
          len(list_filter(words, w -> w IN ('el','la','los','y','de','en','que','es','para','con','una'))) AS s_es
        FROM feat
    ),
    pred AS (
        SELECT lang, doc_id,
          CASE WHEN cjk_share >= 0.25 THEN 'zh'
               WHEN greatest(s_en, s_de, s_fr, s_es) = 0 THEN 'und'
               WHEN s_fr = greatest(s_en, s_de, s_fr, s_es) THEN 'fr'
               WHEN s_es = greatest(s_en, s_de, s_fr, s_es) THEN 'es'
               WHEN s_en = greatest(s_en, s_de, s_fr, s_es) THEN 'en'
               ELSE 'de' END AS pred_lang
        FROM scores
    )
    SELECT lang, pred_lang, count(*) AS n FROM pred GROUP BY lang, pred_lang
"""


# SQL twin of the SimHash signature computation: per-bit majority vote over
# md5_number_lower token hashes (the engine hashes tokens with the identical
# md5 lower-64, dedup.py:_md5_u64), whitespace tokenization as text.split().
_SIMHASH_SIG_CTE = r"""
    WITH toks AS (
        SELECT doc_id, unnest(list_filter(regexp_split_to_array(text, '\s+'),
                                          x -> x <> '')) AS tok
        FROM documents
    ), th AS (
        SELECT doc_id, md5_number_lower(tok) AS h FROM toks
    ), votes AS (
        SELECT doc_id, b,
               CASE WHEN 2 * sum(CASE WHEN (h >> b) & 1 = 1 THEN 1 ELSE 0 END)
                         > count(*) THEN 1 ELSE 0 END AS v
        FROM th CROSS JOIN (SELECT unnest(generate_series(0, 63)) AS b)
        GROUP BY doc_id, b
    ), sig AS (
        SELECT doc_id,
               CAST(sum(CAST(v AS UBIGINT) * (CAST(1 AS UBIGINT) << b))
                    AS UBIGINT) AS simhash
        FROM votes GROUP BY doc_id
    ), sigfull AS (
        SELECT d.doc_id, COALESCE(s.simhash, CAST(0 AS UBIGINT)) AS simhash
        FROM documents d LEFT JOIN sig s USING (doc_id)
    )
"""

_ORACLE_SIMHASH_SIGS = _SIMHASH_SIG_CTE + "SELECT doc_id, simhash FROM sigfull"

# Equal to the engine's banded pairs: hamming ≤ 3 over a 4×16-bit split
# pigeonholes at least one chunk equal, so the chunk-bucket join loses
# nothing vs this direct all-pairs filter.
_ORACLE_SIMHASH_NEARDUP = _SIMHASH_SIG_CTE + """
    SELECT a.doc_id AS id_a, b.doc_id AS id_b,
           CAST(bit_count(xor(a.simhash, b.simhash)) AS BIGINT) AS hamming
    FROM sigfull a JOIN sigfull b ON a.doc_id < b.doc_id
    WHERE bit_count(xor(a.simhash, b.simhash)) <= 3
"""


def _hyperplane_bit_sql(seed: int, n_planes: int, dim: int = 64) -> list[str]:
    """SQL sign-bit expressions for the SAME seeded hyperplanes the engine
    draws (embed.py: default_rng(seed).standard_normal((n_planes, dim))).
    Normalization doesn't change the sign of the dot product, so the raw
    ``list_dot_product`` reproduces the engine's bucket bits exactly."""
    rng = np.random.default_rng(seed)
    planes = rng.standard_normal((n_planes, dim))
    return [
        "(CASE WHEN list_dot_product(embedding, ["
        + ", ".join(repr(float(x)) for x in p)
        + "]) > 0 THEN 1 ELSE 0 END)"
        for p in planes
    ]


def _oracle_knn_lsh() -> str:
    """Exact SQL twin of ``_q_knn_lsh``: score only rows in the query
    vector's hyperplane bucket (seed 13, 4 planes), rounded-cos top-10."""
    bits = _hyperplane_bit_sql(13, 4)
    cols = ", ".join(f"{e} AS b{j}" for j, e in enumerate(bits))
    cond = " AND ".join(f"e.b{j} = q.b{j}" for j in range(4))
    return f"""
        WITH b AS (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS emb, {cols}
                   FROM embeddings),
             q AS (SELECT * FROM b WHERE vec_id = 0)
        SELECT e.vec_id,
               round(list_cosine_similarity(e.emb, q.emb), 6) AS cos
        FROM b e, q
        WHERE {cond}
        ORDER BY cos DESC, e.vec_id LIMIT 10
    """


def _oracle_cosine_lsh(threshold: float = 0.38) -> str:
    """Exact SQL twin of ``_q_cosine_neardup_lsh``: a pair is emitted iff
    the two rows share a bucket in ANY of the 3 plane-seed repetitions
    (seeds 13, 14, 15; 4 planes each) and its rounded cos clears the
    threshold — the same rule the engine's bucketed verify applies."""
    all_cols, rep_conds, idx = [], [], 0
    for rep in range(3):
        js = []
        for e in _hyperplane_bit_sql(13 + rep, 4):
            all_cols.append(f"{e} AS b{idx}")
            js.append(idx)
            idx += 1
        rep_conds.append("(" + " AND ".join(f"a.b{j} = c.b{j}" for j in js) + ")")
    return f"""
        WITH b AS (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS emb,
                          {", ".join(all_cols)} FROM embeddings)
        SELECT a.vec_id AS id_a, c.vec_id AS id_b,
               round(list_cosine_similarity(a.emb, c.emb), 6) AS cos
        FROM b a JOIN b c ON a.vec_id < c.vec_id
        WHERE ({" OR ".join(rep_conds)})
          AND round(list_cosine_similarity(a.emb, c.emb), 6) >= {threshold}
    """


def oracle_sql() -> dict[str, str]:
    return {
        # expected table precomputed by the single-process reference oracle
        # (reference_crawl.py) on the same deterministic synthetic web; the
        # SQL reads it so the driver gates rows+schema+hash like any query
        "crawl_pipeline": (
            f"SELECT * FROM read_parquet('{_crawl_oracle_parquet()}')"),
        "video_frame_stats": r"""
            WITH px AS (
              SELECT d.doc_id, gf.f, gp.p,
                     sum((d.doc_id*31 + gf.f*59 + gx.x*7 + gy.y*13
                          + gp.p*101) % 256) AS s
              FROM documents d,
                   (SELECT unnest([0, 2, 4]) AS f) gf,
                   generate_series(0, 2) gp(p),
                   generate_series(0, 15) gx(x),
                   generate_series(0, 11) gy(y)
              GROUP BY 1, 2, 3
            )
            SELECT doc_id, CAST(f AS BIGINT) AS frame_idx,
                   round(max(CASE WHEN p=0 THEN s END) / 192.0, 6)
                     AS luma_mean,
                   round(max(CASE WHEN p=1 THEN s END) / 192.0, 6)
                     AS u_mean,
                   round(max(CASE WHEN p=2 THEN s END) / 192.0, 6)
                     AS v_mean
            FROM px GROUP BY 1, 2 ORDER BY 1, 2
        """,
        "image_neardup": r"""
            WITH g AS (
              SELECT d.doc_id, gj.j*8 + gi.i AS bit,
                     ( ((d.doc_id//4)*31 + ((gi.i*16)//8)*7
                        + ((gj.j*12)//8)*13
                        + CASE WHEN (gj.j*12)//8 = 0
                               THEN (d.doc_id%4)*17 ELSE 0 END) % 256
                     + ((d.doc_id//4)*31 + ((gi.i*16)//8)*7
                        + ((gj.j*12)//8)*13 + 101
                        + CASE WHEN (gj.j*12)//8 = 0
                               THEN (d.doc_id%4)*17 ELSE 0 END) % 256
                     + ((d.doc_id//4)*31 + ((gi.i*16)//8)*7
                        + ((gj.j*12)//8)*13 + 202
                        + CASE WHEN (gj.j*12)//8 = 0
                               THEN (d.doc_id%4)*17 ELSE 0 END) % 256
                     ) // 3 AS gv
              FROM documents d,
                   generate_series(0, 7) gi(i), generate_series(0, 7) gj(j)
            ), tot AS (
              SELECT doc_id, sum(gv) AS tot FROM g GROUP BY 1
            ), ah AS (
              SELECT g.doc_id,
                     -- all 64 bits as the int64 two's-complement view
                     CAST((coalesce(sum(CASE WHEN gv*64 > tot
                          THEN CAST(1 AS HUGEINT) << bit END), 0)
                          + 9223372036854775808) % 18446744073709551616
                          - 9223372036854775808 AS BIGINT) AS ahash
              FROM g JOIN tot USING (doc_id) GROUP BY g.doc_id
            )
            SELECT a.doc_id AS id_a, b.doc_id AS id_b,
                   CAST(bit_count(xor(a.ahash, b.ahash)) AS BIGINT) AS dist
            FROM ah a JOIN ah b ON a.doc_id < b.doc_id
            WHERE bit_count(xor(a.ahash, b.ahash)) <= 3
            ORDER BY 1, 2
        """,
        "image_features": r"""
            WITH px AS (
              SELECT d.doc_id, g1.x, g2.y, g3.c,
                     (d.doc_id*31 + g1.x*7 + g2.y*13 + g3.c*101) % 256 AS v
              FROM documents d,
                   generate_series(0, 15) g1(x),
                   generate_series(0, 11) g2(y),
                   generate_series(0, 2) g3(c)
            ), means AS (
              SELECT doc_id,
                     sum(CASE WHEN c=0 THEN v END) / 192.0 AS mr,
                     sum(CASE WHEN c=1 THEN v END) / 192.0 AS mg,
                     sum(CASE WHEN c=2 THEN v END) / 192.0 AS mb
              FROM px GROUP BY 1
            ), gray AS (
              SELECT d.doc_id, gj.j*8 + gi.i AS bit,
                     ( (d.doc_id*31 + ((gi.i*16)//8)*7
                        + ((gj.j*12)//8)*13) % 256
                     + (d.doc_id*31 + ((gi.i*16)//8)*7
                        + ((gj.j*12)//8)*13 + 101) % 256
                     + (d.doc_id*31 + ((gi.i*16)//8)*7
                        + ((gj.j*12)//8)*13 + 202) % 256 ) // 3 AS g
              FROM documents d,
                   generate_series(0, 7) gi(i), generate_series(0, 7) gj(j)
            ), tot AS (
              SELECT doc_id, sum(g) AS tot FROM gray GROUP BY 1
            ), ah AS (
              SELECT gray.doc_id,
                     -- all 64 bits as the int64 two's-complement view
                     CAST((coalesce(sum(CASE WHEN g*64 > tot
                          THEN CAST(1 AS HUGEINT) << bit END), 0)
                          + 9223372036854775808) % 18446744073709551616
                          - 9223372036854775808 AS BIGINT) AS ahash
              FROM gray JOIN tot USING (doc_id) GROUP BY gray.doc_id
            )
            SELECT m.doc_id,
                   CAST(16 AS BIGINT) AS width, CAST(12 AS BIGINT) AS height,
                   round(mr, 6) AS mean_r, round(mg, 6) AS mean_g,
                   round(mb, 6) AS mean_b, ah.ahash
            FROM means m JOIN ah USING (doc_id) ORDER BY doc_id
        """,
        "audio_features": r"""
            WITH s AS (
              SELECT d.doc_id, g.i,
                     (d.doc_id*7 + g.i*13) % 4096 - 2048 AS v
              FROM documents d, generate_series(0, 1023) g(i)
            ), z AS (
              SELECT doc_id, v,
                     CASE WHEN v >= 0 THEN 1 ELSE 0 END AS nn,
                     lag(CASE WHEN v >= 0 THEN 1 ELSE 0 END)
                       OVER (PARTITION BY doc_id ORDER BY i) AS pnn
              FROM s
            )
            SELECT doc_id,
                   CAST(1024 AS BIGINT) AS n_samples,
                   round(1024.0 / 8000, 6) AS duration_s,
                   round(sqrt(sum(CAST(v AS DOUBLE)*v) / 1024.0), 6) AS rms,
                   CAST(sum(CASE WHEN pnn IS NOT NULL AND nn <> pnn
                            THEN 1 ELSE 0 END) AS BIGINT) AS zero_crossings
            FROM z GROUP BY doc_id ORDER BY doc_id
        """,
        "bulk_ingest_resumable": f"""
            SELECT url, lang,
                   CAST(CASE WHEN trim(text) = '' THEN 0
                        ELSE len(list_filter(
                               regexp_split_to_array(text, '\\s+'),
                               x -> x <> '')) END AS BIGINT) AS n_ws_tokens,
                   CAST(octet_length(html) AS BIGINT) AS n_html_bytes
            FROM read_parquet('{_ingest_q_src_dir()}/*.parquet')
            ORDER BY url
        """,
        "redirect_resolve": r"""
            WITH RECURSIVE edges AS (
              SELECT doc_id AS src,
                     CASE WHEN doc_id % 1000 = 777 THEN doc_id + 1
                          ELSE doc_id - 1 END AS dst
              FROM documents
              WHERE doc_id % 1000 = 777 OR doc_id % 1000 = 778
                    OR doc_id % 16 <> 0
            ), walk AS (
              SELECT src, dst AS cur, CAST(1 AS BIGINT) AS hops FROM edges
              UNION ALL
              SELECT w.src, e.dst, w.hops + 1
              FROM walk w JOIN edges e ON w.cur = e.src
              WHERE w.hops < 40
            ), resolved AS (
              SELECT w.src, w.cur AS final_id, w.hops
              FROM walk w
              WHERE NOT EXISTS (SELECT 1 FROM edges e WHERE e.src = w.cur)
            )
            SELECT src, final_id, hops, TRUE AS resolved FROM resolved
            UNION ALL
            SELECT e.src, CAST(-1 AS BIGINT) AS final_id,
                   CAST(-1 AS BIGINT) AS hops, FALSE AS resolved
            FROM edges e
            WHERE NOT EXISTS (SELECT 1 FROM resolved r WHERE r.src = e.src)
        """,
        "sitemap_extract": r"""
            SELECT d.doc_id,
                   'https://host' || (d.doc_id % 50)
                     || '.example.com/page/' || (d.doc_id * 8 + t.j) AS loc,
                   CASE WHEN (d.doc_id + t.j) % 4 = 0 THEN NULL
                        ELSE '2026-0' || ((d.doc_id + t.j) % 9 + 1) || '-15'
                   END AS lastmod,
                   CAST(CASE WHEN (d.doc_id + t.j) % 3 = 0 THEN -1
                             ELSE (d.doc_id + t.j) % 10
                        END AS BIGINT) AS priority_x10
            FROM documents d,
                 UNNEST(generate_series(0, d.doc_id % 5)) AS t(j)
        """,
        "dedup_keep_best": r"""
            WITH aug AS (
              SELECT doc_id, text, n_chars FROM documents
              UNION ALL
              SELECT doc_id + 1000000, text, n_chars + 100
              FROM documents WHERE doc_id % 6 = 1
              UNION ALL
              SELECT doc_id + 2000000, text, n_chars
              FROM documents WHERE doc_id % 12 = 1
            ), ranked AS (
              SELECT doc_id, n_chars,
                     row_number() OVER (
                       PARTITION BY text
                       ORDER BY n_chars DESC, doc_id ASC) AS rn,
                     count(*) OVER (PARTITION BY text) AS n_dups
              FROM aug
            )
            SELECT doc_id, CAST(n_chars AS BIGINT) AS n_chars,
                   CAST(n_dups AS BIGINT) AS n_dups
            FROM ranked WHERE rn = 1
        """,
        "site_chrome": r"""
            WITH base AS (
              SELECT doc_id, 'h' || (doc_id % 10) AS host,
                     coalesce(text, '') AS t
              FROM documents
            ), lines AS (
              SELECT doc_id, host, 0 AS lidx,
                     'NAV ' || host || ' | home | login' AS line FROM base
              UNION ALL
              SELECT doc_id, host, 1, 'body ' || doc_id || ' ' || t
              FROM base
              UNION ALL
              SELECT doc_id, host, 2, 'PROMO ' || host || ' special'
              FROM base WHERE doc_id % 3 = 0
            ), counts AS (
              SELECT host, line, count(DISTINCT doc_id) AS nd
              FROM lines GROUP BY 1, 2
            ), tot AS (
              SELECT host, count(DISTINCT doc_id) AS hd
              FROM lines GROUP BY 1
            ), chrome AS (
              SELECT c.host, c.line
              FROM counts c JOIN tot USING (host)
              WHERE 5 * c.nd > 2 * hd
            ), doc_tot AS (
              SELECT doc_id, count(*) AS n_all FROM lines GROUP BY 1
            ), kept AS (
              SELECT l.* FROM lines l
              WHERE NOT EXISTS (SELECT 1 FROM chrome ch
                                WHERE ch.host = l.host
                                  AND ch.line = l.line)
            )
            SELECT k.doc_id,
                   CAST(count(*) AS BIGINT) AS n_kept,
                   CAST(any_value(dt.n_all) - count(*) AS BIGINT)
                     AS n_chrome,
                   string_agg(k.line, chr(10) ORDER BY k.lidx) AS text
            FROM kept k JOIN doc_tot dt USING (doc_id)
            GROUP BY k.doc_id
        """,
        "decode_fallback": r"""
            SELECT doc_id,
                   CASE doc_id % 3 WHEN 2 THEN 'cp1252'
                        ELSE 'utf-8' END AS encoding,
                   CAST(CASE doc_id % 3
                          WHEN 0 THEN 4 + length(CAST(doc_id AS VARCHAR))
                          ELSE 5 + length(CAST(doc_id AS VARCHAR))
                        END AS BIGINT) AS n_chars
            FROM documents
        """,
        "payload_kinds": r"""
            SELECT CASE doc_id % 7
                     WHEN 0 THEN 'pdf' WHEN 1 THEN 'gzip'
                     WHEN 2 THEN 'zip' WHEN 3 THEN 'png'
                     WHEN 4 THEN 'html' WHEN 5 THEN 'other'
                     ELSE 'empty'
                   END AS kind,
                   CAST(count(*) AS BIGINT) AS n
            FROM documents GROUP BY 1
        """,
        "template_budget": r"""
            WITH u AS (
              SELECT 'host' || (doc_id % 20) || '.example.com' AS host,
                     '/page/N' AS template,
                     'https://host' || (doc_id % 20)
                       || '.example.com/page/' || doc_id AS url
              FROM documents
              UNION ALL
              SELECT 'host7.example.com', '/cal/N/N',
                     'https://host7.example.com/cal/' || doc_id || '/'
                       || ((doc_id * 3 + t.j) % 97)
              FROM documents, UNNEST(generate_series(0, 7)) AS t(j)
              WHERE doc_id % 20 = 7
            ), ranked AS (
              SELECT host, template, url,
                     row_number() OVER (
                       PARTITION BY host, template ORDER BY url) AS rn
              FROM u
            )
            SELECT host, template, url FROM ranked WHERE rn <= 3
        """,
        "spider_traps": r"""
            WITH u AS (
              SELECT 'host' || (doc_id % 20) || '.example.com' AS host,
                     '/page/N' AS template
              FROM documents
              UNION ALL
              SELECT 'host' || (doc_id % 20) || '.example.com', '/about'
              FROM documents
              UNION ALL
              SELECT 'host7.example.com', '/cal/N/N'
              FROM documents, UNNEST(generate_series(0, 7)) AS t(j)
              WHERE doc_id % 20 = 7
            ), census AS (
              SELECT host, template,
                     CAST(count(*) AS BIGINT) AS n_urls
              FROM u GROUP BY 1, 2
            ), totals AS (
              SELECT host, CAST(count(*) AS BIGINT) AS host_total
              FROM u GROUP BY 1
            )
            SELECT c.host, c.template, c.n_urls, t.host_total,
                   (2 * c.n_urls > t.host_total) AS trap
            FROM census c JOIN totals t USING (host)
        """,
        "rollup_census": r"""
            SELECT coalesce(source, '__all__') AS source,
                   coalesce(lang, '__all__') AS lang,
                   CAST(count(*) AS BIGINT) AS n
            FROM documents
            GROUP BY ROLLUP(source, lang)
        """,
        "profile_table": r"""
            WITH base AS (
              SELECT doc_id,
                     CASE WHEN doc_id % 11 = 3 THEN NULL ELSE lang END AS lang,
                     source
              FROM documents
            ), u AS (
              SELECT 'doc_id' AS "column",
                     CAST(doc_id AS VARCHAR) AS v FROM base
              UNION ALL
              SELECT 'lang', lang FROM base
              UNION ALL
              SELECT 'source', source FROM base
            )
            SELECT "column",
                   CAST(count(*) AS BIGINT) AS n,
                   CAST(count(*) - count(v) AS BIGINT) AS n_null,
                   CAST(count(DISTINCT v) AS BIGINT) AS n_distinct,
                   min(v) AS min_str,
                   max(v) AS max_str
            FROM u GROUP BY 1
        """,
        "seed_discovery": r"""
            SELECT d.doc_id,
                   CAST(t.j AS BIGINT) AS ord,
                   'https://host' || (d.doc_id % 50) || '.example.com/sm/'
                     || d.doc_id || '_' || t.j || '.xml' AS sitemap_url
            FROM documents d,
                 UNNEST(generate_series(0, d.doc_id % 3 - 1)) AS t(j)
        """,
        "url_features": r"""
            WITH u AS (
              SELECT doc_id, doc_id % 4 AS v,
                     CAST(doc_id % 50 AS VARCHAR) AS h,
                     CAST(doc_id AS VARCHAR) AS s,
                     CAST(doc_id % 7 AS VARCHAR) AS i7
              FROM documents
            ), built AS (
              SELECT doc_id, v,
                CASE v
                  WHEN 0 THEN 'https://www.site' || h
                              || '.example.com/a/b/c' || s || '?x=1&y=2'
                  WHEN 1 THEN 'http://site' || h || '.example.com:8080/p' || s
                  WHEN 2 THEN 'https://img' || i7 || '.cdn' || h
                              || '.example.net/i/' || s || '/th.jpg?w=100'
                  ELSE 'http://site' || h || '.example.com/'
                END AS url,
                CASE v
                  WHEN 0 THEN 'www.site' || h || '.example.com'
                  WHEN 1 THEN 'site' || h || '.example.com'
                  WHEN 2 THEN 'img' || i7 || '.cdn' || h || '.example.net'
                  ELSE 'site' || h || '.example.com'
                END AS host
              FROM u
            )
            SELECT doc_id,
                   CASE WHEN v IN (0, 2) THEN 'https' ELSE 'http' END
                     AS scheme,
                   host,
                   CAST(length(host) AS BIGINT) AS host_len,
                   CAST(length(host)
                        - length(regexp_replace(host, '[0-9]', '', 'g'))
                        AS BIGINT) AS host_digits,
                   CAST(CASE v WHEN 0 THEN 3 WHEN 1 THEN 1
                               WHEN 2 THEN 3 ELSE 0 END AS BIGINT)
                     AS path_depth,
                   CAST(CASE v WHEN 0 THEN 2 WHEN 1 THEN 0
                               WHEN 2 THEN 1 ELSE 0 END AS BIGINT)
                     AS n_params,
                   CAST(length(url) AS BIGINT) AS url_len
            FROM built
        """,
        "simhash_signatures": _ORACLE_SIMHASH_SIGS,
        "simhash_neardup": _ORACLE_SIMHASH_NEARDUP,
        "cosine_neardup_lsh": _oracle_cosine_lsh(),
        "knn_lsh": _oracle_knn_lsh(),
        "knn_ivf": """
            -- exact twin of _q_knn_ivf: deterministic row centroids
            -- (vec_id < 16), assignment = argmax dot(v, c) (row
            -- normalization cannot change the argmax), probe = top-4
            -- centroids by dot(q, c), then rounded-cos top-10 within the
            -- probed partitions
            WITH cents AS (
                SELECT vec_id AS cid, CAST(embedding AS DOUBLE[]) AS c
                FROM embeddings WHERE vec_id < 16
            ),
            qv AS (SELECT CAST(embedding AS DOUBLE[]) AS q
                   FROM embeddings WHERE vec_id = 0),
            assign AS (
                SELECT vec_id, cid FROM (
                    SELECT e.vec_id, c.cid,
                           row_number() OVER (
                               PARTITION BY e.vec_id
                               ORDER BY list_inner_product(
                                   CAST(e.embedding AS DOUBLE[]), c.c) DESC,
                               c.cid) AS rn
                    FROM embeddings e CROSS JOIN cents c) WHERE rn = 1
            ),
            probe AS (
                SELECT cid FROM cents, qv
                ORDER BY list_inner_product(c, q) DESC, cid LIMIT 4
            )
            SELECT e.vec_id,
                   round(list_cosine_similarity(
                       CAST(e.embedding AS DOUBLE[]), qv.q), 6) AS cos
            FROM embeddings e
            JOIN assign a ON a.vec_id = e.vec_id
            JOIN probe p ON p.cid = a.cid, qv
            ORDER BY cos DESC, e.vec_id
            LIMIT 10
        """,
        "paged_search_urls": """
            SELECT n_nationkey,
                   CAST(i AS BIGINT) AS page_idx,
                   'https://api.example/search?q=' || n_name || '&start=' || (i * 25) AS url
            FROM nation,
                 unnest(range(0, ((10 + (n_nationkey * 7) % 90) + 24) // 25)) AS t(i)
        """,
        "date_kernels": """
            SELECT event_id,
                   strftime(date_trunc('day', ts), '%Y-%m-%d') AS day,
                   CAST(extract(hour FROM ts) AS BIGINT) AS hour_of_day,
                   CAST(isodow(ts) AS BIGINT) AS isodow,
                   ts + INTERVAL 330 MINUTE AS ts_ist,
                   CAST(floor(epoch(ts)) AS BIGINT) AS epoch_s
            FROM events
        """,
        "metadata_extract": _METADATA_ORACLE,
        "missed_records": """
            SELECT doc_id, 'No DOI! Aborting...' AS missed_note
            FROM documents WHERE doc_id % 2 = 1 AND doc_id % 19 = 0
        """,
        "zip_extract_meta": _METADATA_ORACLE,
        "api_json_records": """
            SELECT doc_id,
                   false AS crawled,
                   'Elsevier' AS publisher,
                   'J-' || (doc_id % 5) AS journal,
                   CASE WHEN doc_id % 6 = 0 THEN NULL
                        ELSE CAST(1990 + doc_id % 30 AS DOUBLE) END AS published_year,
                   (doc_id % 5 <> 0 AND doc_id % 3 = 0) AS open_access,
                   CASE WHEN doc_id % 9 = 0 THEN NULL
                        ELSE '10.1016/j.' || doc_id END AS doi,
                   CASE WHEN doc_id % 11 = 0 THEN NULL
                        ELSE 'Title ' || doc_id END AS title,
                   CASE WHEN doc_id % 29 = 0 THEN 'raw-' || doc_id ELSE
                     array_to_string(list_transform(range(0, 1 + doc_id % 3), i ->
                       (['Alice','Bo','Chen','Dmitri','Eva','Femi','Grace','Hiro'])[1 + (doc_id*7 + i*3) % 8]
                       || ' ' ||
                       (['Smith','Tanaka','Lee','Garcia','Okafor','Weber','Rossi','Novak'])[1 + (doc_id*5 + i*11) % 8]
                     ), '; ')
                   END AS authors,
                   CASE WHEN doc_id % 13 = 0 THEN NULL
                        ELSE CAST(1 + doc_id % 12 AS DOUBLE) END AS issue
            FROM documents
        """,
        "merge_abstract": """
            SELECT doc_id,
                   CASE WHEN doc_id % 11 = 0 THEN 'Full ' || doc_id || '.'
                        ELSE 'Abs ' || doc_id || '. Full ' || doc_id || '.'
                   END AS merged,
                   CASE WHEN doc_id % 11 = 0 THEN 'Non-abstract content (see Abstract_Content)'
                        WHEN doc_id % 7 = 0 THEN 'Duplicated abstract in response, took first instance'
                   END AS error
            FROM documents
        """,
        "recrawl_overwrite": """
            SELECT doc_id,
                   CASE WHEN doc_id % 10 = 0 THEN text || ' v2' ELSE text END AS text
            FROM documents
        """,
        "vocab_topk": r"""
            WITH ex AS (
              SELECT unnest(list_filter(regexp_split_to_array(text, '\s+'),
                                        x -> x <> '')) AS tok
              FROM documents
            ), c AS (
              SELECT tok, count(*) AS cnt FROM ex GROUP BY tok
            )
            SELECT tok, CAST(cnt AS BIGINT) AS cnt
            FROM c ORDER BY cnt DESC, tok LIMIT 200
        """,
        "recrawl_plan": """
            WITH cls AS (
              SELECT doc_id,
                     CASE
                       WHEN doc_id % 11 = 3 AND doc_id % 13 <> 5 THEN 'added'
                       WHEN doc_id % 11 <> 3 AND doc_id % 13 = 5 THEN 'removed'
                       WHEN doc_id % 11 <> 3 AND doc_id % 13 <> 5
                            AND doc_id % 9 = 0 THEN 'changed'
                       WHEN doc_id % 11 <> 3 AND doc_id % 13 <> 5
                            THEN 'unchanged'
                     END AS change
              FROM documents
              WHERE NOT (doc_id % 11 = 3 AND doc_id % 13 = 5)
            ), cand AS (
              SELECT CAST(doc_id AS BIGINT) AS url,
                     CAST(doc_id % 127 AS BIGINT) AS host,
                     CAST(CASE change WHEN 'changed' THEN 3
                                      WHEN 'added' THEN 2
                                      ELSE 1 END AS BIGINT) AS pr
              FROM cls WHERE change <> 'removed'
            ), hs AS (
              SELECT host, sum(pr) AS w FROM cand GROUP BY host
            ), tot AS (SELECT sum(w) AS W FROM hs),
            fl AS (
              SELECT host,
                     (300 * w) // (SELECT W FROM tot) AS nfloor,
                     (300 * w) % (SELECT W FROM tot) AS rem
              FROM hs
            ), kk AS (SELECT 300 - sum(nfloor) AS k FROM fl),
            alloc AS (
              SELECT host,
                     nfloor + CASE WHEN row_number() OVER
                                        (ORDER BY rem DESC, host)
                                   <= (SELECT k FROM kk)
                              THEN 1 ELSE 0 END AS n
              FROM fl
            ), sel AS (
              SELECT c.url, c.host, c.pr,
                     row_number() OVER (PARTITION BY c.host
                                        ORDER BY c.pr DESC, c.url) AS rn
              FROM cand c
            )
            SELECT s.url, s.host, s.pr
            FROM sel s JOIN alloc a USING (host)
            WHERE s.rn <= a.n
        """,
        "quality_prune": r"""
            WITH s AS (
              SELECT doc_id, source,
                     len(regexp_extract_all(text, '[A-Za-z]+')) AS n_words
              FROM documents
            ), r AS (
              SELECT doc_id, source, n_words,
                     row_number() OVER (PARTITION BY source
                                        ORDER BY n_words DESC, doc_id) AS rn,
                     count(*) OVER (PARTITION BY source) AS n
              FROM s
            )
            SELECT doc_id, source, CAST(n_words AS BIGINT) AS n_words
            FROM r WHERE rn <= (3 * n + 9) // 10
        """,
        "minhash_incremental": _MINHASH_PAIRS_SQL + """
            SELECT doc_id FROM documents
            WHERE doc_id % 2 = 1 AND doc_id NOT IN (
                SELECT CASE WHEN id_a % 2 = 1 THEN id_a ELSE id_b END
                FROM jpairs WHERE (id_a % 2) <> (id_b % 2))
        """,
        "minhash_neardup": _MINHASH_PAIRS_SQL + """
            SELECT id_a, id_b, jaccard FROM jpairs
        """,
        "containment_docs": r"""
            WITH toks AS (
              SELECT doc_id,
                     list_filter(regexp_split_to_array(text, '\s+'),
                                 x -> x <> '') AS t
              FROM documents
            ), hf AS (
              SELECT DISTINCT doc_id,
                     md5_number_lower(array_to_string(
                       list_slice(t, i + 1, i + 4), ' ')) AS fp
              FROM toks,
                   LATERAL (SELECT unnest(range(greatest(len(t) - 3, 0)))
                            AS i) u
            ), ok AS (
              SELECT fp FROM hf GROUP BY fp
              HAVING count(*) BETWEEN 2 AND 64
            ), p AS (
              SELECT a.doc_id AS id_a, b.doc_id AS id_b,
                     count(*) AS shared
              FROM hf a JOIN hf b USING (fp) JOIN ok USING (fp)
              WHERE a.doc_id < b.doc_id
              GROUP BY 1, 2
            ), sz AS (SELECT doc_id, count(*) AS n FROM hf GROUP BY 1),
            c AS (
              SELECT id_a, id_b, CAST(shared AS BIGINT) AS shared,
                     round(shared / CAST(sa.n AS DOUBLE), 6) AS cont_a,
                     round(shared / CAST(sb.n AS DOUBLE), 6) AS cont_b
              FROM p
              JOIN sz sa ON sa.doc_id = p.id_a
              JOIN sz sb ON sb.doc_id = p.id_b
            )
            SELECT * FROM c WHERE greatest(cont_a, cont_b) >= 0.5
        """,
        "ngram_jaccard": _jaccard_pairs_sql(0.3) + """
            SELECT id_a, id_b, jaccard FROM jpairs
        """,
        "editdist_join": """
            WITH t AS (
              SELECT doc_id,
                     array_to_string(
                       list_slice(string_split(text, ' '), 1, 3), ' ') AS s
              FROM documents
            )
            SELECT a.doc_id AS id_a, b.doc_id AS id_b,
                   CAST(levenshtein(a.s, b.s) AS BIGINT) AS dist
            FROM t a JOIN t b
              ON a.doc_id < b.doc_id
             AND abs(length(a.s) - length(b.s)) <= 2
            WHERE levenshtein(a.s, b.s) <= 2
        """,
        "minhash_dedup_survivors": _MINHASH_PAIRS_SQL + """,
            edges AS (SELECT id_a AS a, id_b AS b FROM jpairs
                      UNION ALL SELECT id_b, id_a FROM jpairs),
            reach(id, r) AS (
                SELECT a, a FROM edges
                UNION
                SELECT e.a, reach.r FROM edges e JOIN reach ON e.b = reach.id
            ),
            comp AS (SELECT id, min(r) AS root FROM reach GROUP BY id)
            SELECT doc_id FROM documents
            WHERE doc_id NOT IN (SELECT id FROM comp WHERE root < id)
        """,
        "leakfree_split": _MINHASH_PAIRS_SQL + """,
            edges AS (SELECT id_a AS a, id_b AS b FROM jpairs
                      UNION ALL SELECT id_b, id_a FROM jpairs),
            reach(id, r) AS (
                SELECT a, a FROM edges
                UNION
                SELECT e.a, reach.r FROM edges e JOIN reach ON e.b = reach.id
            ),
            comp AS (SELECT id, min(r) AS root FROM reach GROUP BY id),
            lbl AS (
                SELECT d.doc_id, coalesce(c.root, d.doc_id) AS grp
                FROM documents d LEFT JOIN comp c ON c.id = d.doc_id
            )
            SELECT doc_id, CAST(grp AS BIGINT) AS grp,
                   CASE WHEN md5_number_lower(CAST(grp AS VARCHAR)) % 10 < 8
                        THEN 'train'
                        WHEN md5_number_lower(CAST(grp AS VARCHAR)) % 10 = 8
                        THEN 'val' ELSE 'test' END AS split
            FROM lbl ORDER BY doc_id
        """,
        "dup_cluster_sizes": _MINHASH_PAIRS_SQL + """,
            edges AS (SELECT id_a AS a, id_b AS b FROM jpairs
                      UNION ALL SELECT id_b, id_a FROM jpairs),
            reach(id, r) AS (
                SELECT a, a FROM edges
                UNION
                SELECT e.a, reach.r FROM edges e JOIN reach ON e.b = reach.id
            ),
            comp AS (SELECT id, min(r) AS root FROM reach GROUP BY id),
            sizes AS (SELECT root, count(*) AS sz FROM comp GROUP BY root),
            multi AS (SELECT CAST(sz AS BIGINT) AS cluster_size,
                             CAST(count(*) AS BIGINT) AS n_clusters
                      FROM sizes GROUP BY sz)
            SELECT cluster_size, n_clusters FROM multi
            UNION ALL
            SELECT CAST(1 AS BIGINT),
                   CAST((SELECT count(*) FROM documents)
                        - (SELECT coalesce(sum(sz), 0) FROM sizes) AS BIGINT)
        """,
        "line_filter": r"""
            WITH toks AS (
              SELECT doc_id,
                     unnest(list_filter(regexp_split_to_array(text, '\s+'), x -> x <> '')) AS tok,
                     unnest(range(len(list_filter(regexp_split_to_array(text, '\s+'), x -> x <> '')))) AS i
              FROM documents
            ), lines AS (
              SELECT doc_id, i // 10 AS pidx,
                     string_agg(tok, ' ' ORDER BY i) AS line,
                     count(DISTINCT tok) AS ndist,
                     max(CASE WHEN tok = 'slow' THEN 1 ELSE 0 END) AS blocked
              FROM toks GROUP BY doc_id, i // 10
            )
            SELECT doc_id, CAST(count(*) AS BIGINT) AS n_lines_kept,
                   string_agg(line, ' ' ORDER BY pidx) AS text
            FROM lines WHERE ndist >= 6 AND blocked = 0
            GROUP BY doc_id HAVING count(*) >= 2
        """,
        "partitioned_export": r"""
            SELECT doc_id, lang, n_chars FROM documents
            WHERE lang = 'en' ORDER BY doc_id
        """,
        "change_rate": r"""
            WITH ch AS (
              SELECT doc_id,
                     CAST(((doc_id*31 + 17) % 5 = 0) AS BIGINT)
                   + CAST(((doc_id*31 + 34) % 5 = 0) AS BIGINT)
                   + CAST(((doc_id*31 + 51) % 5 = 0) AS BIGINT) AS n_changes
              FROM documents
            )
            SELECT doc_id, n_changes,
                   round(-ln((3 - n_changes + 0.5) / 3.5), 6) AS lam,
                   (n_changes >= 2) AS due
            FROM ch
        """,
        "embed_quantize": r"""
            WITH s AS (
              SELECT vec_id,
                     list_max(list_transform(embedding,
                              x -> abs(CAST(x AS DOUBLE)))) / 127.0 AS scale
              FROM embeddings
            ), sf AS (
              SELECT vec_id, scale,
                     CASE WHEN scale = 0 THEN 1.0 ELSE scale END AS safe
              FROM s
            )
            SELECT e.vec_id,
                   round(sf.scale, 6) AS scale,
                   CAST(list_sum(list_transform(e.embedding,
                        x -> floor(CAST(x AS DOUBLE) / sf.safe + 0.5))) AS BIGINT) AS q_sum,
                   CAST(list_max(list_transform(e.embedding,
                        x -> abs(floor(CAST(x AS DOUBLE) / sf.safe + 0.5)))) AS BIGINT) AS q_abs_max,
                   round(list_max(list_transform(e.embedding,
                        x -> abs(floor(CAST(x AS DOUBLE) / sf.safe + 0.5) * sf.safe
                                 - CAST(x AS DOUBLE)))), 6) AS max_err
            FROM embeddings e JOIN sf USING (vec_id)
        """,
        "host_prior": r"""
            WITH w AS (
              SELECT doc_id, source,
                     CAST(len(list_filter(regexp_split_to_array(
                          coalesce(text, ''), '\s+'), x -> x <> '')) AS BIGINT) AS n_words
              FROM documents
            )
            SELECT doc_id, source, n_words,
                   CAST(count(*) OVER (PARTITION BY source) AS BIGINT) AS host_n,
                   round(CAST(sum(n_words) OVER (PARTITION BY source) AS DOUBLE)
                         / count(*) OVER (PARTITION BY source), 6) AS host_mean,
                   (n_words * count(*) OVER (PARTITION BY source)
                    < sum(n_words) OVER (PARTITION BY source)) AS below_prior
            FROM w
        """,
        "gopher_filter": r"""
            WITH base AS (
              SELECT doc_id, coalesce(text, '') AS text FROM documents
            ), tok AS (
              SELECT doc_id,
                     list_filter(regexp_split_to_array(text, '\s+'),
                                 x -> x <> '') AS w,
                     CAST(length(regexp_replace(text, '\s', '', 'g')) AS BIGINT) AS word_chars,
                     CAST(length(text) - length(replace(text, '#', ''))
                          + (length(text) - length(replace(text, '...', ''))) / 3
                          AS BIGINT) AS n_sym
              FROM base
            ), feat AS (
              SELECT doc_id,
                     CAST(len(w) AS BIGINT) AS n_words,
                     word_chars, n_sym,
                     CAST(len(list_filter(w, x -> regexp_matches(x, '[A-Za-z]'))) AS BIGINT) AS n_alpha,
                     CAST(list_contains(list_transform(w, x -> lower(x)), 'the') AS BIGINT)
                   + CAST(list_contains(list_transform(w, x -> lower(x)), 'be') AS BIGINT)
                   + CAST(list_contains(list_transform(w, x -> lower(x)), 'to') AS BIGINT)
                   + CAST(list_contains(list_transform(w, x -> lower(x)), 'of') AS BIGINT)
                   + CAST(list_contains(list_transform(w, x -> lower(x)), 'and') AS BIGINT)
                   + CAST(list_contains(list_transform(w, x -> lower(x)), 'that') AS BIGINT)
                   + CAST(list_contains(list_transform(w, x -> lower(x)), 'have') AS BIGINT)
                   + CAST(list_contains(list_transform(w, x -> lower(x)), 'with') AS BIGINT)
                     AS req_hits
              FROM tok
            )
            SELECT doc_id, n_words, word_chars, req_hits,
                   (n_words >= 20 AND n_words <= 90) AS ok_words,
                   (10 * word_chars >= 43 * n_words
                    AND 10 * word_chars <= 47 * n_words) AS ok_mwl,
                   (10 * n_sym < n_words) AS ok_sym,
                   (5 * n_alpha >= 4 * n_words) AS ok_alpha,
                   (req_hits >= 1) AS ok_req,
                   ((n_words >= 20 AND n_words <= 90)
                    AND (10 * word_chars >= 43 * n_words
                         AND 10 * word_chars <= 47 * n_words)
                    AND (10 * n_sym < n_words)
                    AND (5 * n_alpha >= 4 * n_words)
                    AND (req_hits >= 1)) AS keep
            FROM feat
        """,
        "soft_dedup": r"""
            WITH aug AS (
              SELECT doc_id, coalesce(text, '') AS text FROM documents
              UNION ALL
              SELECT doc_id + 1000000, upper(coalesce(text, '')) || ' !!'
              FROM documents WHERE doc_id % 7 = 2
              UNION ALL
              SELECT doc_id + 2000000, '  ' || coalesce(text, '') || chr(9)
              FROM documents WHERE doc_id % 14 = 2
            ), norm AS (
              SELECT doc_id,
                     trim(regexp_replace(regexp_replace(regexp_replace(
                          lower(text), '[0-9]', '0', 'g'),
                          '[^\w\s]', '', 'g'), '\s+', ' ', 'g')) AS t
              FROM aug
            )
            SELECT doc_id,
                   CAST(count(*) OVER (PARTITION BY t) AS BIGINT) AS n_dups,
                   round(1.0 / count(*) OVER (PARTITION BY t), 6) AS weight
            FROM norm
        """,
        "compact_files": r"""
            SELECT doc_id, n_chars FROM documents ORDER BY doc_id
        """,
        "norm_dedup": r"""
            WITH aug AS (
              SELECT doc_id, coalesce(text, '') AS text FROM documents
              UNION ALL
              SELECT doc_id + 1000000, upper(coalesce(text, '')) || ' !!'
              FROM documents WHERE doc_id % 7 = 2
            ), norm AS (
              SELECT doc_id,
                     trim(regexp_replace(regexp_replace(regexp_replace(
                          lower(text), '[0-9]', '0', 'g'),
                          '[^\w\s]', '', 'g'), '\s+', ' ', 'g')) AS t
              FROM aug
            )
            SELECT min(doc_id) AS doc_id, CAST(count(*) AS BIGINT) AS n_variants
            FROM norm GROUP BY t
        """,
        "bigram_pmi": r"""
            WITH toks AS (
              SELECT doc_id,
                     list_filter(regexp_split_to_array(lower(text), '\s+'),
                                 x -> x <> '') AS w
              FROM documents
            ), pos AS (
              SELECT doc_id, unnest(w) AS tok, generate_subscripts(w, 1) AS p
              FROM toks
            ), big AS (
              SELECT a.tok AS w1, b.tok AS w2
              FROM pos a JOIN pos b ON a.doc_id = b.doc_id AND b.p = a.p + 1
            ), lm2 AS (
              SELECT w1, w2, count(*) AS c12 FROM big GROUP BY 1, 2
            ), heads AS (
              SELECT w1, sum(c12) AS c1 FROM lm2 GROUP BY 1
            ), tails AS (
              SELECT w2, sum(c12) AS c2 FROM lm2 GROUP BY 1
            ), tot AS (SELECT sum(c12) AS n FROM lm2)
            SELECT b.w1, b.w2, CAST(b.c12 AS BIGINT) AS c12,
                   round(ln((b.c12 * t.n) / (h.c1 * ta.c2)), 4) AS pmi
            FROM lm2 b
            JOIN heads h USING (w1) JOIN tails ta USING (w2) CROSS JOIN tot t
            WHERE b.c12 >= 5
            ORDER BY pmi DESC, b.w1, b.w2
            LIMIT 50
        """,
        "skipgram_counts": r"""
            WITH toks AS (
              SELECT doc_id,
                     list_filter(regexp_split_to_array(lower(text), '\s+'),
                                 x -> x <> '') AS w
              FROM documents
            ), pos AS (
              SELECT doc_id, unnest(w) AS tok, generate_subscripts(w, 1) AS p
              FROM toks
            ), pairs AS (
              SELECT a.tok AS w1, b.tok AS w2, count(*) AS n
              FROM pos a JOIN pos b
                ON a.doc_id = b.doc_id AND b.p - a.p BETWEEN 1 AND 3
              GROUP BY 1, 2 HAVING count(*) >= 5
            )
            SELECT w1, w2, CAST(n AS BIGINT) AS n FROM pairs
            ORDER BY n DESC, w1, w2 LIMIT 100
        """,
        "lang_id_confusion": _LANG_ID_SQL,
        "fingerprints": r"""
            -- byte-exact SQL twin of textops.fingerprint_batch: Horner fold
            -- of the ws-normalized utf-8 bytes, base 1000003, mod 2^64
            WITH norm AS (
              SELECT doc_id, trim(regexp_replace(text, '\s+', ' ', 'g')) AS t
              FROM documents
            ),
            b AS (
              SELECT doc_id, to_hex(encode(t)) AS hx,
                     octet_length(encode(t)) AS n
              FROM norm
            ),
            bytes AS (
              SELECT doc_id,
                     CASE WHEN n = 0 THEN CAST([] AS HUGEINT[]) ELSE
                       list_transform(range(1, n + 1),
                         i -> CAST(CAST(('0x' || substr(hx, 2*i-1, 2)) AS INTEGER) AS HUGEINT))
                     END AS bl
              FROM b
            )
            SELECT doc_id,
                   CAST(list_reduce(list_prepend(CAST(0 AS HUGEINT), bl),
                        (acc, x) -> (acc * 1000003 + x)
                                    % CAST('18446744073709551616' AS HUGEINT))
                        AS UBIGINT) AS fingerprint
            FROM bytes
        """,
        "media_features": """
            -- golden twin of the BORG container header (multimodal.py):
            -- the engine parses bytes; the oracle recomputes from doc_id
            SELECT doc_id AS media_id,
                   (['image/borg','audio/borg'])[1 + (doc_id % 3) % 2] AS media_type,
                   CAST(117 + doc_id % 1000 AS BIGINT) AS n_bytes,
                   CAST(16 + doc_id % 317 AS BIGINT) AS width,
                   CAST(16 + doc_id % 211 AS BIGINT) AS height,
                   CAST(((100 + doc_id % 1000) * (doc_id % 251)) % 4294967296 AS BIGINT)
                     AS checksum
            FROM documents
        """,
        "video_frames": """
            SELECT doc_id AS media_id,
                   CAST(fi AS BIGINT) AS frame_idx,
                   round(((doc_id + fi) % 251) / 255.0, 6) AS thumb_mean,
                   0.0 AS thumb_std
            FROM documents, unnest(range(0, least(4, 1 + doc_id % 9))) AS t(fi)
        """,
        "bpe_tokens": r"""
            SELECT doc_id,
                   CAST(len(regexp_extract_all(text, '[A-Za-z]+|\d+|[^\sA-Za-z\d]')) AS BIGINT)
                     AS n_bpe_tokens
            FROM documents
        """,
        "cosine_neardup": """
            SELECT a.vec_id AS id_a, b.vec_id AS id_b,
                   round(list_cosine_similarity(a.embedding, b.embedding), 4) AS cos
            FROM embeddings a, embeddings b
            WHERE a.vec_id < b.vec_id AND a.vec_id < 300 AND b.vec_id < 300
              AND list_cosine_similarity(a.embedding, b.embedding) >= 0.38
        """,
        "pricing_summary": """
            -- money summed in exact DECIMAL space (order-independent), then
            -- rounded half-away to cents — matches the engine's integer-cents
            -- accumulation bit-for-bit
            SELECT l_returnflag, l_linestatus,
                   round(sum(l_quantity), 2) AS sum_qty,
                   CAST(round(sum(CAST(l_extendedprice AS DECIMAL(18,2))
                                  * (1 - CAST(l_discount AS DECIMAL(18,2)))), 2)
                        AS DOUBLE) AS sum_revenue,
                   round(avg(l_quantity), 6) AS avg_qty,
                   count(*) AS n
            FROM lineitem WHERE l_shipdate <= TIMESTAMP '1998-09-02'
            GROUP BY l_returnflag, l_linestatus
        """,
        "filter_revenue": """
            SELECT CAST(round(sum(CAST(l_extendedprice AS DECIMAL(18,2))
                                   * CAST(l_discount AS DECIMAL(18,2))), 2)
                        AS DOUBLE) AS sum_revenue
            FROM lineitem
            WHERE l_shipdate >= TIMESTAMP '1995-01-01'
              AND l_shipdate < TIMESTAMP '1997-01-01'
              AND l_discount >= 0.05
        """,
        "topk_orders": """
            SELECT o_orderkey, round(o_totalprice, 2) AS o_totalprice
            FROM orders ORDER BY o_totalprice DESC, o_orderkey LIMIT 10
        """,
        "distinct_segments": "SELECT DISTINCT c_mktsegment FROM customer",
        "dedup_docs_exact": "SELECT min(doc_id) AS doc_id FROM documents GROUP BY text",
        "token_counts": """
            SELECT doc_id,
                   CAST(len(list_filter(regexp_split_to_array(text, '\\s+'), x -> x <> '')) AS BIGINT)
                     AS n_ws_tokens
            FROM documents
        """,
        "quality_scores": r"""
            SELECT doc_id,
                   CAST(length(text) AS BIGINT) AS n_chars,
                   CAST(length(regexp_replace(text, '[\w\s]', '', 'g')) AS BIGINT) AS n_punct,
                   CAST(len(regexp_extract_all(text, '[A-Za-z]+')) AS BIGINT) AS n_words,
                   round(length(regexp_replace(text, '[^A-Za-z]', '', 'g'))
                         / greatest(len(regexp_extract_all(text, '[A-Za-z]+')), 1), 6) AS mean_word_len
            FROM documents
        """,
        "paragraph_dedup": r"""
            WITH toks AS (
              SELECT doc_id,
                     unnest(list_filter(regexp_split_to_array(text, '\s+'), x -> x <> '')) AS tok,
                     unnest(range(len(list_filter(regexp_split_to_array(text, '\s+'), x -> x <> '')))) AS i
              FROM documents
            ), paras AS (
              SELECT doc_id, i // 3 AS pidx, string_agg(tok, ' ' ORDER BY i) AS para
              FROM toks GROUP BY doc_id, i // 3
            ), firsts AS (
              SELECT doc_id, pidx, para,
                     row_number() OVER (PARTITION BY para ORDER BY doc_id, pidx) AS rn
              FROM paras
            )
            SELECT doc_id, count(*) AS n_paras_kept,
                   string_agg(para, ' ' ORDER BY pidx) AS text
            FROM firsts WHERE rn = 1 GROUP BY doc_id
        """,
        "dup_chunk_metrics": r"""
            WITH toks AS (
              SELECT doc_id,
                     unnest(list_filter(regexp_split_to_array(text, '\s+'), x -> x <> '')) AS tok,
                     unnest(range(len(list_filter(regexp_split_to_array(text, '\s+'), x -> x <> '')))) AS i
              FROM documents
            ), paras AS (
              SELECT doc_id, i // 2 AS pidx, string_agg(tok, ' ' ORDER BY i) AS para
              FROM toks GROUP BY doc_id, i // 2
            ), counts AS (
              SELECT doc_id, pidx, para, length(para) AS plen,
                     count(*) OVER (PARTITION BY doc_id, para) AS m
              FROM paras
            )
            SELECT doc_id, count(*) AS n_paras,
                   CAST(sum(CASE WHEN m > 1 THEN 1 ELSE 0 END) AS BIGINT) AS n_dup_paras,
                   round(CAST(sum(CASE WHEN m > 1 THEN 1 ELSE 0 END) AS DOUBLE) / count(*), 6) AS dup_para_frac,
                   round(CAST(sum(CASE WHEN m > 1 THEN plen ELSE 0 END) AS DOUBLE) / greatest(sum(plen), 1), 6) AS dup_char_frac
            FROM counts GROUP BY doc_id
        """,
        "shard_pack": r"""
            WITH n AS (
              SELECT doc_id,
                     CAST(len(list_filter(regexp_split_to_array(text, '\s+'), x -> x <> '')) AS BIGINT) AS w
              FROM documents
            )
            SELECT doc_id, w,
                   CAST(sum(w) OVER (ORDER BY doc_id) AS BIGINT) AS cum,
                   CAST((sum(w) OVER (ORDER BY doc_id) - w) // 500 AS BIGINT) AS shard_id
            FROM n
        """,
        "pii_redact": r"""
            WITH aug AS (
              SELECT doc_id,
                     text || ' Contact user' || doc_id || '@mail.example.com or 555-'
                          || lpad(CAST(doc_id % 1000 AS VARCHAR), 3, '0') || '-'
                          || lpad(CAST((doc_id * 7) % 10000 AS VARCHAR), 4, '0')
                          || ' at 192.168.' || (doc_id % 256) || '.' || ((doc_id * 3) % 256) || '.' AS t
              FROM documents
            ), s1 AS (
              SELECT doc_id,
                     CAST(len(regexp_extract_all(t, '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}')) AS BIGINT) AS n_emails,
                     regexp_replace(t, '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}', '<EMAIL>', 'g') AS t
              FROM aug
            ), s2 AS (
              SELECT doc_id, n_emails,
                     CAST(len(regexp_extract_all(t, '\b\d{3}-\d{3}-\d{4}\b')) AS BIGINT) AS n_phones,
                     regexp_replace(t, '\b\d{3}-\d{3}-\d{4}\b', '<PHONE>', 'g') AS t
              FROM s1
            )
            SELECT doc_id, n_emails, n_phones,
                   CAST(len(regexp_extract_all(t, '\b(?:\d{1,3}\.){3}\d{1,3}\b')) AS BIGINT) AS n_ips,
                   regexp_replace(t, '\b(?:\d{1,3}\.){3}\d{1,3}\b', '<IP>', 'g') AS text
            FROM s2
        """,
        "warc_roundtrip": """
            SELECT doc_id, CAST(octet_length(encode(text)) AS BIGINT) AS n_bytes
            FROM documents
        """,
        "rank_quantities": """
            SELECT l_orderkey, l_linenumber, round(l_quantity, 2) AS l_quantity,
                   rank() OVER (PARTITION BY l_orderkey ORDER BY l_quantity) AS rnk,
                   dense_rank() OVER (PARTITION BY l_orderkey ORDER BY l_quantity) AS drnk
            FROM lineitem
        """,
        "weighted_sample": r"""
            WITH k AS (
              SELECT doc_id,
                     greatest(CAST(len(list_filter(regexp_split_to_array(text, '\s+'), x -> x <> '')) AS BIGINT), 1) AS w,
                     ln((CAST(('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 8)) AS BIGINT) + 1.0)
                        / 4294967296.0)
                     / greatest(CAST(len(list_filter(regexp_split_to_array(text, '\s+'), x -> x <> '')) AS BIGINT), 1) AS key
              FROM documents
            )
            SELECT doc_id, w, round(key, 6) AS key
            FROM k ORDER BY key DESC, doc_id LIMIT 50
        """,
        "mixture_sample": """
            SELECT doc_id, source, lang FROM documents
            WHERE CAST(('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 4)) AS BIGINT)
                  < CAST(floor(((CAST(substr(source, 4) AS BIGINT) % 3 + 1) / 10.0) * 65536) AS BIGINT)
        """,
        "pipeline_funnel": r"""
            WITH f AS (
              SELECT doc_id, text, lang,
                     len(list_filter(regexp_split_to_array(text, '\s+'),
                                     x -> x <> '')) AS n_words,
                     CAST(length(regexp_replace(text, '[\w\s]', '', 'g'))
                          AS DOUBLE) / greatest(length(text), 1) AS pdens
              FROM documents
            ), s AS (
              SELECT text,
                     (lang = 'en') AS s2,
                     (lang = 'en' AND n_words BETWEEN 20 AND 80) AS s3,
                     (lang = 'en' AND n_words BETWEEN 20 AND 80
                      AND pdens < 0.1) AS s4
              FROM f
            )
            SELECT CAST(1 AS BIGINT) AS stage, 'total' AS stage_name,
                   CAST(count(*) AS BIGINT) AS n_rows FROM s
            UNION ALL
            SELECT 2, 'lang_en',
                   CAST(sum(CASE WHEN s2 THEN 1 ELSE 0 END) AS BIGINT) FROM s
            UNION ALL
            SELECT 3, 'len_20_80',
                   CAST(sum(CASE WHEN s3 THEN 1 ELSE 0 END) AS BIGINT) FROM s
            UNION ALL
            SELECT 4, 'punct_lt_0.1',
                   CAST(sum(CASE WHEN s4 THEN 1 ELSE 0 END) AS BIGINT) FROM s
            UNION ALL
            SELECT 5, 'exact_dedup',
                   CAST(count(DISTINCT text) AS BIGINT) FROM s WHERE s4
        """,
        "c4_filter": r"""
            WITH gated AS (
              SELECT doc_id, text FROM documents
              WHERE lang = 'en'
                AND len(list_filter(regexp_split_to_array(text, '\s+'), x -> x <> '')) BETWEEN 20 AND 80
                AND CAST(length(regexp_replace(text, '[\w\s]', '', 'g')) AS DOUBLE)
                    / greatest(length(text), 1) < 0.1
            )
            SELECT min(doc_id) AS doc_id FROM gated GROUP BY text
        """,
        "join_full_outer": """
            SELECT coalesce(c.c_custkey, o.o_custkey) AS c_custkey,
                   CAST(c.c_acctbal AS DOUBLE) AS c_acctbal,
                   CAST(o.n AS DOUBLE) AS n_orders
            FROM (SELECT c_custkey, c_acctbal FROM customer
                  WHERE c_acctbal > 9000) c
            FULL OUTER JOIN (SELECT o_custkey, count(*) AS n FROM orders
                             WHERE o_orderpriority = '1-URGENT'
                             GROUP BY 1) o
              ON c.c_custkey = o.o_custkey
        """,
        "cms_counts": r"""
            WITH tok AS (
              SELECT unnest(list_filter(regexp_split_to_array(text, '\s+'), x -> x <> '')) AS v
              FROM documents
            ), cells AS (
              SELECT r, CAST(md5_number_lower(v || '#' || r) % 256 AS BIGINT) AS bucket,
                     count(*) AS c
              FROM tok CROSS JOIN (SELECT unnest(range(4)) AS r)
              GROUP BY 1, 2
            ), probes(probe) AS (
              VALUES ('table'), ('hash'), ('scan'), ('spark'), ('window'),
                     ('data'), ('key'), ('no-such-token')
            )
            SELECT p.probe, CAST(min(coalesce(c.c, 0)) AS BIGINT) AS est_count
            FROM probes p
            CROSS JOIN (SELECT unnest(range(4)) AS r2)
            LEFT JOIN cells c
              ON c.r = r2
             AND c.bucket = CAST(md5_number_lower(p.probe || '#' || r2) % 256 AS BIGINT)
            GROUP BY p.probe
        """,
        "pivot_counts": "SELECT lang, "
            + ", ".join(
                f"CAST(count(CASE WHEN source = 'src{i}' THEN 1 END) AS BIGINT) AS n_src{i}"
                for i in range(20))
            + " FROM documents GROUP BY lang",
        "melt_counts": """
            WITH langs AS (SELECT DISTINCT lang FROM documents),
                 srcs AS (SELECT DISTINCT source FROM documents),
                 c AS (SELECT lang, source, count(*) AS n FROM documents GROUP BY 1, 2)
            SELECT l.lang, 'n_' || s.source AS variable,
                   CAST(coalesce(c.n, 0) AS BIGINT) AS value
            FROM langs l CROSS JOIN srcs s
            LEFT JOIN c ON c.lang = l.lang AND c.source = s.source
        """,
        "hll_vocab": r"""
            WITH tok AS (
              SELECT lang,
                     unnest(list_filter(regexp_split_to_array(text, '\s+'), x -> x <> '')) AS v
              FROM documents
            ), h AS (
              SELECT lang, md5_number_lower(v) AS h FROM tok
            ), r AS (
              SELECT lang, CAST(h >> 58 AS BIGINT) AS bucket,
                     CAST(CASE WHEN (h & ((CAST(1 AS UBIGINT) << 58) - 1)) = CAST(0 AS UBIGINT)
                               THEN 59
                               ELSE 58 - length(bin(h & ((CAST(1 AS UBIGINT) << 58) - 1))) + 1
                          END AS BIGINT) AS rho
              FROM h
            ), reg AS (
              SELECT lang, bucket, max(rho) AS m FROM r GROUP BY 1, 2
            ), agg AS (
              SELECT lang, count(*) AS present,
                     sum(CAST(1 AS HUGEINT) << (59 - m)) AS s_present
              FROM reg GROUP BY lang
            ), est AS (
              SELECT lang, 64 - present AS v,
                     (CAST(0.709 AS DOUBLE) * 64 * 64 * CAST(CAST(1 AS HUGEINT) << 59 AS DOUBLE))
                     / CAST((64 - present) * (CAST(1 AS HUGEINT) << 59) + s_present AS DOUBLE) AS e
              FROM agg
            )
            SELECT lang, CAST(v AS BIGINT) AS empty_buckets,
                   round(CASE WHEN e <= 2.5 * 64 AND v > 0
                              THEN 64 * ln(64.0 / v) ELSE e END, 3) AS est_distinct
            FROM est
        """,
        "scc": """
            WITH RECURSIVE raw AS (
              SELECT (l_orderkey * 3 + l_linenumber) % 2048 AS p,
                     (l_partkey * 7) % 2048 AS q
              FROM lineitem WHERE l_orderkey % 8 = 0
            ), e AS (
              SELECT DISTINCT p AS u, q AS v FROM raw WHERE p <> q
            ), nodes AS (
              SELECT DISTINCT u AS n FROM e
              UNION SELECT DISTINCT v FROM e
            ), reach(a, b) AS (
              SELECT u, v FROM e
              UNION
              SELECT r.a, e.v FROM reach r JOIN e ON e.u = r.b
            ), mutual AS (
              SELECT f.a AS v, f.b AS w
              FROM reach f JOIN reach r ON r.a = f.b AND r.b = f.a
            )
            SELECT n.n AS node,
                   CAST(least(n.n, coalesce(min(mu.w), n.n)) AS BIGINT) AS scc
            FROM nodes n LEFT JOIN mutual mu ON mu.v = n.n
            GROUP BY n.n ORDER BY node
        """,
        "encode_docs": r"""
            WITH toks AS (
              SELECT doc_id,
                     list_filter(regexp_split_to_array(lower(text), '\s+'),
                                 x -> x <> '') AS w
              FROM documents
            ), occ AS (
              SELECT doc_id, unnest(w) AS word,
                     generate_subscripts(w, 1) AS p
              FROM toks
            ), wc AS (
              SELECT word, count(*) AS cnt FROM occ GROUP BY 1
            ), ids AS (
              SELECT word,
                     row_number() OVER (ORDER BY word) - 1 AS term_id
              FROM wc WHERE cnt >= 2
            ), enc AS (
              SELECT o.doc_id, o.p, coalesce(i.term_id, -1) AS tid
              FROM occ o LEFT JOIN ids i ON i.word = o.word
            )
            SELECT doc_id,
                   array_to_string(list(tid ORDER BY p), ',') AS ids,
                   CAST(count(*) AS BIGINT) AS n_tokens,
                   CAST(count(*) FILTER (tid = -1) AS BIGINT) AS n_oov
            FROM enc GROUP BY doc_id ORDER BY doc_id
        """,
        "lang_segments": rf"""
            WITH pages AS (
              SELECT d1.doc_id,
                     coalesce(d1.text, '') || ' ' || coalesce(d2.text, '') AS text
              FROM documents d1
              JOIN documents d2
                ON d2.doc_id = (d1.doc_id
                                + (SELECT count(*) FROM documents) // 2)
                               % (SELECT count(*) FROM documents)
            ), toks AS (
              SELECT doc_id,
                     list_filter(regexp_split_to_array(text, '\s+'),
                                 x -> x <> '') AS w
              FROM pages
            ), pos AS (
              SELECT doc_id, unnest(w) AS tok, generate_subscripts(w, 1) AS p
              FROM toks
            ), ch AS (
              SELECT doc_id, (p - 1) // 10 AS chunk,
                     string_agg(tok, ' ' ORDER BY p) AS ct,
                     count(*) FILTER (lower(tok) IN ('the','and','of','to','in','that','with','for','is','are')) AS s_en,
                     count(*) FILTER (lower(tok) IN ('der','die','das','und','ist','mit','für','nicht','von','ein')) AS s_de,
                     count(*) FILTER (lower(tok) IN ('le','la','les','et','de','des','est','pour','avec','une')) AS s_fr,
                     count(*) FILTER (lower(tok) IN ('el','la','los','y','de','en','que','es','para','con','una')) AS s_es
              FROM pos GROUP BY doc_id, (p - 1) // 10
            ), pred AS (
              SELECT doc_id, chunk,
                     CASE WHEN length(regexp_replace(ct, '[^{_CJK_CLASS}]', '', 'g')) * 1.0
                               / length(ct) >= 0.25 THEN 'zh'
                          WHEN greatest(s_en, s_de, s_fr, s_es) = 0 THEN 'und'
                          WHEN s_fr = greatest(s_en, s_de, s_fr, s_es) THEN 'fr'
                          WHEN s_es = greatest(s_en, s_de, s_fr, s_es) THEN 'es'
                          WHEN s_en = greatest(s_en, s_de, s_fr, s_es) THEN 'en'
                          ELSE 'de' END AS lang
              FROM ch
            ), isl AS (
              SELECT doc_id, chunk, lang,
                     chunk - row_number() OVER (PARTITION BY doc_id, lang
                                                ORDER BY chunk) AS grp
              FROM pred
            ), seg AS (
              SELECT doc_id, lang, min(chunk) AS start_chunk,
                     count(*) AS n_chunks
              FROM isl GROUP BY doc_id, lang, grp
            )
            SELECT doc_id,
                   CAST(row_number() OVER (PARTITION BY doc_id
                                           ORDER BY start_chunk) - 1 AS BIGINT)
                       AS seg_idx,
                   lang, CAST(start_chunk AS BIGINT) AS start_chunk,
                   CAST(n_chunks AS BIGINT) AS n_chunks
            FROM seg ORDER BY doc_id, seg_idx
        """,
        "hll_union": r"""
            WITH tok AS (
              SELECT source,
                     unnest(list_filter(regexp_split_to_array(text, '\s+'), x -> x <> '')) AS v
              FROM documents
            ), h AS (
              SELECT source, md5_number_lower(v) AS h FROM tok
            ), r AS (
              SELECT source, CAST(h >> 58 AS BIGINT) AS bucket,
                     CAST(CASE WHEN (h & ((CAST(1 AS UBIGINT) << 58) - 1)) = CAST(0 AS UBIGINT)
                               THEN 59
                               ELSE 58 - length(bin(h & ((CAST(1 AS UBIGINT) << 58) - 1))) + 1
                          END AS BIGINT) AS rho
              FROM h
            ), reg AS (
              SELECT source, bucket, max(rho) AS m FROM r GROUP BY 1, 2
            ), agg AS (
              SELECT source, count(*) AS present,
                     sum(CAST(1 AS HUGEINT) << (59 - m)) AS s_present
              FROM reg GROUP BY source
            ), est AS (
              SELECT source, 64 - present AS v,
                     (CAST(0.709 AS DOUBLE) * 64 * 64 * CAST(CAST(1 AS HUGEINT) << 59 AS DOUBLE))
                     / CAST((64 - present) * (CAST(1 AS HUGEINT) << 59) + s_present AS DOUBLE) AS e
              FROM agg
            ), fixed AS (
              SELECT source,
                     CASE WHEN e <= 2.5 * 64 AND v > 0
                          THEN 64 * ln(64.0 / v) ELSE e END AS est
              FROM est
            ), mreg AS (
              SELECT bucket, max(m) AS m FROM reg GROUP BY bucket
            ), magg AS (
              SELECT count(*) AS present,
                     sum(CAST(1 AS HUGEINT) << (59 - m)) AS s_present
              FROM mreg
            ), mest AS (
              SELECT 64 - present AS v,
                     (CAST(0.709 AS DOUBLE) * 64 * 64 * CAST(CAST(1 AS HUGEINT) << 59 AS DOUBLE))
                     / CAST((64 - present) * (CAST(1 AS HUGEINT) << 59) + s_present AS DOUBLE) AS e
              FROM magg
            ), mfixed AS (
              SELECT CASE WHEN e <= 2.5 * 64 AND v > 0
                          THEN 64 * ln(64.0 / v) ELSE e END AS est
              FROM mest
            )
            SELECT CAST((SELECT count(*) FROM fixed) AS BIGINT) AS n_groups,
                   round((SELECT sum(est) FROM fixed), 3) AS sum_group_est,
                   round((SELECT est FROM mfixed), 3) AS union_est,
                   round((SELECT sum(est) FROM fixed)
                         / (SELECT est FROM mfixed), 4) AS dup_factor
        """,
        "decontaminate": r"""
            WITH toks AS (
              SELECT doc_id, list_filter(regexp_split_to_array(text, '\s+'), x -> x <> '') AS t
              FROM documents
            ), wins AS (
              SELECT doc_id, i, array_to_string(list_slice(t, i + 1, i + 4), ' ') AS w
              FROM toks, LATERAL (SELECT unnest(range(greatest(len(t) - 3, 0))) AS i) AS u
            ), ew AS (
              SELECT DISTINCT w FROM wins WHERE doc_id % 29 = 0
            ), hits AS (
              SELECT doc_id, count(*) AS n FROM wins
              WHERE doc_id % 29 <> 0 AND w IN (SELECT w FROM ew)
              GROUP BY doc_id
            )
            SELECT d.doc_id,
                   CAST(coalesce(h.n, 0) AS BIGINT) AS n_eval_hits,
                   coalesce(h.n, 0) > 0 AS contaminated
            FROM documents d LEFT JOIN hits h USING (doc_id)
            WHERE d.doc_id % 29 <> 0
        """,
        "tfidf_terms": r"""
            WITH tok AS (
              SELECT lang, doc_id,
                     unnest(list_filter(regexp_split_to_array(text, '\s+'), x -> x <> '')) AS token
              FROM documents
            ), tf AS (
              SELECT lang, doc_id, token, count(*) AS tf FROM tok GROUP BY 1, 2, 3
            ), dfreq AS (
              SELECT token, count(DISTINCT doc_id) AS df FROM tok GROUP BY 1
            ), n AS (SELECT count(*) AS n FROM documents),
            sc AS (
              SELECT lang, token,
                     round(CAST(sum(tf) AS DOUBLE) * ln(CAST(n.n AS DOUBLE) / df), 6) AS score
              FROM tf JOIN dfreq USING (token), n GROUP BY lang, token, df, n.n
            )
            SELECT lang, token, score FROM (
              SELECT lang, token, score,
                     row_number() OVER (PARTITION BY lang ORDER BY score DESC, token) AS rn
              FROM sc
            ) WHERE rn <= 10
        """,
        "lm_perplexity": _LM_PPL_SQL + """
            SELECT doc_id, CAST(n AS BIGINT) AS n_bigrams,
                   round(exp(-s / n), 4) AS ppl
            FROM sums
        """,
        "ppl_buckets": _LM_PPL_SQL + """,
            ppl AS (
              SELECT doc_id, round(exp(-s / n), 4) AS ppl FROM sums
            ), th AS (
              SELECT quantile_disc(ppl, 0.33) AS t1,
                     quantile_disc(ppl, 0.67) AS t2
              FROM ppl
            ), b AS (
              SELECT d.lang,
                     CASE WHEN p.ppl <= t.t1 THEN 'head'
                          WHEN p.ppl <= t.t2 THEN 'middle'
                          ELSE 'tail' END AS bucket
              FROM ppl p JOIN documents d USING (doc_id) CROSS JOIN th t
            )
            SELECT lang, bucket, CAST(count(*) AS BIGINT) AS n_docs
            FROM b GROUP BY 1, 2
        """,
        "crawl_budget": """
            WITH cand AS (
              SELECT CAST(doc_id AS BIGINT) AS url,
                     CAST(doc_id % 127 AS BIGINT) AS host,
                     CAST(('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 4))
                          AS BIGINT) AS pr
              FROM documents
            ), hs AS (
              SELECT host, sum(pr) AS w FROM cand GROUP BY host
            ), tot AS (SELECT sum(w) AS W FROM hs),
            fl AS (
              SELECT host,
                     (400 * w) // (SELECT W FROM tot) AS nfloor,
                     (400 * w) % (SELECT W FROM tot) AS rem
              FROM hs
            ), kk AS (SELECT 400 - sum(nfloor) AS k FROM fl),
            alloc AS (
              SELECT host,
                     nfloor + CASE WHEN row_number() OVER
                                        (ORDER BY rem DESC, host)
                                   <= (SELECT k FROM kk)
                              THEN 1 ELSE 0 END AS n
              FROM fl
            ), sel AS (
              SELECT c.url, c.host, c.pr,
                     row_number() OVER (PARTITION BY c.host
                                        ORDER BY c.pr DESC, c.url) AS rn
              FROM cand c
            )
            SELECT s.url, s.host, s.pr
            FROM sel s JOIN alloc a USING (host)
            WHERE s.rn <= a.n
        """,
        "hits": """
            WITH e AS (
              SELECT 's' || CAST(l_suppkey AS VARCHAR) AS src,
                     'p' || CAST(l_partkey AS VARCHAR) AS dst
              FROM lineitem
            ), nodes AS (
              SELECT DISTINCT node FROM (
                SELECT src AS node FROM e UNION ALL SELECT dst FROM e)
            ), n AS (SELECT count(*) AS n FROM nodes),
            h0 AS (SELECT node, 1.0 / (SELECT n FROM n) AS v FROM nodes),
            a1r AS (SELECT nodes.node, coalesce(s.c, 0) AS v FROM nodes
                    LEFT JOIN (SELECT e.dst AS node, sum(h0.v) AS c
                               FROM e JOIN h0 ON h0.node = e.src
                               GROUP BY 1) s USING (node)),
            a1 AS (SELECT node, v / (SELECT sum(v) FROM a1r) AS v FROM a1r),
            h1r AS (SELECT nodes.node, coalesce(s.c, 0) AS v FROM nodes
                    LEFT JOIN (SELECT e.src AS node, sum(a1.v) AS c
                               FROM e JOIN a1 ON a1.node = e.dst
                               GROUP BY 1) s USING (node)),
            h1 AS (SELECT node, v / (SELECT sum(v) FROM h1r) AS v FROM h1r),
            a2r AS (SELECT nodes.node, coalesce(s.c, 0) AS v FROM nodes
                    LEFT JOIN (SELECT e.dst AS node, sum(h1.v) AS c
                               FROM e JOIN h1 ON h1.node = e.src
                               GROUP BY 1) s USING (node)),
            a2 AS (SELECT node, v / (SELECT sum(v) FROM a2r) AS v FROM a2r),
            h2r AS (SELECT nodes.node, coalesce(s.c, 0) AS v FROM nodes
                    LEFT JOIN (SELECT e.src AS node, sum(a2.v) AS c
                               FROM e JOIN a2 ON a2.node = e.dst
                               GROUP BY 1) s USING (node)),
            h2 AS (SELECT node, v / (SELECT sum(v) FROM h2r) AS v FROM h2r)
            SELECT h2.node, round(h2.v, 6) AS hub,
                   round(a2.v, 6) AS authority
            FROM h2 JOIN a2 USING (node)
        """,
        "pagerank": """
            WITH e AS (
              SELECT 's' || CAST(l_suppkey AS VARCHAR) AS src,
                     'p' || CAST(l_partkey AS VARCHAR) AS dst
              FROM lineitem
            ), nodes AS (
              SELECT DISTINCT node FROM (
                SELECT src AS node FROM e UNION ALL SELECT dst FROM e)
            ), n AS (SELECT count(*) AS n FROM nodes),
            deg AS (SELECT src, count(*) AS deg FROM e GROUP BY 1),
            r0 AS (SELECT node, 1.0 / (SELECT n FROM n) AS rank FROM nodes),
            c1 AS (SELECT e.dst AS node, sum(r0.rank / deg.deg) AS c
                   FROM e JOIN deg USING (src) JOIN r0 ON r0.node = e.src
                   GROUP BY 1),
            r1 AS (SELECT nodes.node,
                          0.15 / (SELECT n FROM n)
                          + 0.85 * coalesce(c1.c, 0) AS rank
                   FROM nodes LEFT JOIN c1 USING (node)),
            c2 AS (SELECT e.dst AS node, sum(r1.rank / deg.deg) AS c
                   FROM e JOIN deg USING (src) JOIN r1 ON r1.node = e.src
                   GROUP BY 1),
            r2 AS (SELECT nodes.node,
                          0.15 / (SELECT n FROM n)
                          + 0.85 * coalesce(c2.c, 0) AS rank
                   FROM nodes LEFT JOIN c2 USING (node))
            SELECT node, round(rank, 6) AS rank FROM r2
        """,
        "degree_powerlaw": """
            WITH deg AS (
              SELECT l_suppkey, count(*) AS deg FROM lineitem GROUP BY 1
            ), hist AS (
              SELECT deg, count(*) AS n FROM deg GROUP BY 1
            )
            SELECT round(regr_slope(ln(n), ln(deg)), 6) + 0 AS slope,
                   round(regr_intercept(ln(n), ln(deg)), 6) + 0 AS intercept,
                   count(*) AS n_points
            FROM hist
        """,
        "clustering_coeff": """
            WITH raw AS (
              SELECT (l_orderkey * 7 + l_linenumber) % 16384 AS p,
                     (l_partkey * 13) % 16384 AS q
              FROM lineitem
            ), e AS (
              SELECT DISTINCT least(p, q) AS u, greatest(p, q) AS v
              FROM raw WHERE p <> q
            ), deg AS (
              SELECT node, count(*) AS deg FROM (
                SELECT u AS node FROM e UNION ALL SELECT v FROM e)
              GROUP BY 1
            ), t AS (
              SELECT a.u AS x, a.v AS y, b.v AS z
              FROM e a
              JOIN e b ON b.u = a.v
              JOIN e c ON c.u = a.u AND c.v = b.v
            ), corners AS (
              SELECT x AS node FROM t
              UNION ALL SELECT y FROM t
              UNION ALL SELECT z FROM t
            ), tc AS (
              SELECT node, count(*) AS n_tri FROM corners GROUP BY node
            )
            SELECT d.node,
                   CAST(coalesce(tc.n_tri, 0) AS BIGINT) AS n_triangles,
                   round(2.0 * coalesce(tc.n_tri, 0)
                         / (d.deg * (d.deg - 1.0)), 6) AS cc
            FROM deg d LEFT JOIN tc USING (node)
            WHERE d.deg >= 2
        """,
        "degree_assortativity": """
            WITH raw AS (
              SELECT (l_orderkey * 11 + l_linenumber) % 16384 AS p,
                     (l_partkey * 17) % 16384 AS q
              FROM lineitem
            ), e AS (
              SELECT DISTINCT least(p, q) AS u, greatest(p, q) AS v
              FROM raw WHERE p <> q
            ), deg AS (
              SELECT node, count(*) AS deg FROM (
                SELECT u AS node FROM e UNION ALL SELECT v FROM e)
              GROUP BY 1
            ), pairs AS (
              SELECT du.deg AS x, dv.deg AS y
              FROM e JOIN deg du ON du.node = e.u
                     JOIN deg dv ON dv.node = e.v
              UNION ALL
              SELECT dv.deg, du.deg
              FROM e JOIN deg du ON du.node = e.u
                     JOIN deg dv ON dv.node = e.v
            )
            SELECT round(corr(x, y), 6) AS r,
                   CAST(count(*) // 2 AS BIGINT) AS n_edges
            FROM pairs
        """,
        "adamic_adar": """
            WITH raw AS (
              SELECT (l_orderkey * 5 + l_linenumber) % 4096 AS p,
                     (l_partkey * 29) % 4096 AS q
              FROM lineitem
            ), e AS (
              SELECT DISTINCT least(p, q) AS u, greatest(p, q) AS v
              FROM raw WHERE p <> q
            ), deg AS (
              SELECT node, count(*) AS deg FROM (
                SELECT u AS node FROM e UNION ALL SELECT v FROM e)
              GROUP BY 1
            ), ctr AS (
              SELECT node, 1.0 / ln(deg) AS w FROM deg
              WHERE deg BETWEEN 2 AND 256
            ), adj AS (
              SELECT u AS center, v AS nbr FROM e
              UNION ALL SELECT v, u FROM e
            ), wedge AS (
              SELECT a.nbr AS x, b.nbr AS y, c.w AS w
              FROM adj a
              JOIN adj b ON a.center = b.center AND a.nbr < b.nbr
              JOIN ctr c ON c.node = a.center
            ), sc AS (
              SELECT x, y, round(sum(w), 6) AS score
              FROM wedge GROUP BY 1, 2
            ), novel AS (
              SELECT sc.x, sc.y, sc.score FROM sc
              WHERE NOT EXISTS (SELECT 1 FROM e
                                WHERE e.u = sc.x AND e.v = sc.y)
            )
            SELECT CAST(x AS BIGINT) AS x, CAST(y AS BIGINT) AS y, score
            FROM novel ORDER BY score DESC, x, y LIMIT 100
        """,
        "cocitation": """
            WITH raw AS (
              SELECT (l_orderkey * 13 + l_linenumber) % 8192 AS src,
                     (l_partkey * 19) % 8192 AS dst
              FROM lineitem
            ), e AS (
              SELECT DISTINCT src, dst FROM raw WHERE src <> dst
            ), outdeg AS (
              SELECT src, count(*) AS od FROM e GROUP BY src
            ), el AS (
              SELECT e.src, e.dst FROM e JOIN outdeg USING (src)
              WHERE od BETWEEN 2 AND 256
            ), pairs AS (
              SELECT a.dst AS x, b.dst AS y
              FROM el a JOIN el b ON a.src = b.src AND a.dst < b.dst
            ), c AS (
              SELECT x, y, count(*) AS n FROM pairs GROUP BY 1, 2
            )
            SELECT CAST(x AS BIGINT) AS x, CAST(y AS BIGINT) AS y,
                   CAST(n AS BIGINT) AS n
            FROM c WHERE n >= 2
            ORDER BY n DESC, x, y LIMIT 100
        """,
        "heavy_hitters": """
            WITH s AS (
              SELECT (l_orderkey * 7919 + l_partkey * 104729
                      + l_linenumber) % (1 + l_orderkey % 997) AS v
              FROM lineitem
            ), c AS (
              SELECT v, count(*) AS cnt FROM s GROUP BY v
            )
            SELECT CAST(v AS VARCHAR) AS v, CAST(cnt AS BIGINT) AS cnt
            FROM c WHERE cnt * 200 > (SELECT count(*) FROM s)
            ORDER BY cnt DESC, CAST(v AS VARCHAR)
        """,
        "politeness_audit": """
            WITH f AS (
              SELECT user_id % 512 AS host, ts FROM events
            ), g AS (
              SELECT host,
                     date_diff('microsecond',
                               lag(ts) OVER (PARTITION BY host ORDER BY ts),
                               ts) AS gap
              FROM f
            )
            SELECT host,
                   CAST(count(*) AS BIGINT) AS n_fetches,
                   CAST(count(*) FILTER (gap IS NOT NULL
                                         AND gap < 3600000000) AS BIGINT)
                       AS n_violations,
                   CAST(min(gap) AS BIGINT) AS min_gap_us
            FROM g GROUP BY host HAVING count(*) >= 2
        """,
        "bib_coupling": """
            WITH raw AS (
              SELECT (l_orderkey * 11 + l_linenumber) % 4096 AS src,
                     (l_partkey * 23) % 8192 AS dst
              FROM lineitem
            ), e AS (
              SELECT DISTINCT dst AS s, src AS d FROM raw WHERE src <> dst
            ), indeg AS (
              SELECT s, count(*) AS od FROM e GROUP BY s
            ), el AS (
              SELECT e.s, e.d FROM e JOIN indeg USING (s)
              WHERE od BETWEEN 2 AND 256
            ), pairs AS (
              SELECT a.d AS x, b.d AS y
              FROM el a JOIN el b ON a.s = b.s AND a.d < b.d
            ), c AS (
              SELECT x, y, count(*) AS n FROM pairs GROUP BY 1, 2
            )
            SELECT CAST(x AS BIGINT) AS x, CAST(y AS BIGINT) AS y,
                   CAST(n AS BIGINT) AS n
            FROM c WHERE n >= 1
            ORDER BY n DESC, x, y LIMIT 100
        """,
        "burst_windows": """
            WITH c AS (
              SELECT event_type,
                     CAST(epoch_us(ts) // 3600000000 AS BIGINT) AS win,
                     count(*) AS cnt
              FROM events GROUP BY 1, 2
            ), st AS (
              SELECT event_type, count(*) AS w, sum(cnt) AS s,
                     sum(cnt * cnt) AS ss
              FROM c GROUP BY 1
            )
            SELECT c.event_type, c.win, CAST(c.cnt AS BIGINT) AS cnt
            FROM c JOIN st USING (event_type)
            WHERE CAST(c.cnt AS HUGEINT) * w - s > 0
              AND (CAST(c.cnt AS HUGEINT) * w - s)
                  * (CAST(c.cnt AS HUGEINT) * w - s)
                  > 4 * (CAST(w AS HUGEINT) * ss - CAST(s AS HUGEINT) * s)
            ORDER BY c.event_type, c.win
        """,
        "crawl_skew": """
            WITH h AS (
              SELECT user_id % 1024 AS host, count(*) AS c
              FROM events GROUP BY 1
            ), t AS (
              SELECT count(*) AS n, sum(c) AS tot, max(c) AS mx,
                     sum(c * ln(c)) AS clnc
              FROM h
            ), rk AS (
              SELECT c, CAST(row_number() OVER (ORDER BY c) AS HUGEINT)
                        AS rnk
              FROM h
            ), r AS (
              SELECT sum(rnk * c) AS rc FROM rk
            )
            SELECT CAST(n AS BIGINT) AS n_keys, CAST(tot AS BIGINT) AS total,
                   round(ln(tot) - clnc / tot, 6) AS entropy,
                   round(CAST(2 * rc - (n + 1) * tot AS DOUBLE)
                         / CAST(CAST(n AS HUGEINT) * tot AS DOUBLE), 6)
                       AS gini,
                   round(CAST(mx AS DOUBLE) / tot, 6) AS top_share
            FROM t, r
        """,
        "latency_outliers": """
            WITH m AS (
              SELECT event_type, quantile_disc(value, 0.5) AS med
              FROM events GROUP BY 1
            ), d AS (
              SELECT e.event_type, abs(e.value - m.med) AS dev
              FROM events e JOIN m USING (event_type)
            ), a AS (
              SELECT event_type, quantile_disc(dev, 0.5) AS mad
              FROM d GROUP BY 1
            ), f AS (
              SELECT d.event_type, count(*) AS n,
                     count(*) FILTER (d.dev > 3 * a.mad) AS n_outliers
              FROM d JOIN a USING (event_type) GROUP BY d.event_type
            )
            SELECT f.event_type, round(m.med, 6) AS med,
                   round(a.mad, 6) AS mad, CAST(f.n AS BIGINT) AS n,
                   CAST(f.n_outliers AS BIGINT) AS n_outliers
            FROM f JOIN m USING (event_type) JOIN a USING (event_type)
            ORDER BY f.event_type
        """,
        "corr_by_type": """
            SELECT event_type,
                   round(corr(value,
                              CAST((epoch_us(ts) // 3600000000) % 24
                                   AS DOUBLE)), 6) AS r,
                   CAST(count(*) AS BIGINT) AS n
            FROM events GROUP BY event_type ORDER BY event_type
        """,
        "retention_cohorts": """
            WITH act AS (
              SELECT DISTINCT user_id,
                     epoch_us(ts) // 604800000000 AS w
              FROM events
            ), fw AS (
              SELECT user_id, min(w) AS cw FROM act GROUP BY 1
            )
            SELECT CAST(cw AS BIGINT) AS cohort,
                   CAST(w - cw AS BIGINT) AS "offset",
                   CAST(count(*) AS BIGINT) AS n_users
            FROM act JOIN fw USING (user_id)
            GROUP BY 1, 2 ORDER BY 1, 2
        """,
        "event_transitions": """
            WITH s AS (
              SELECT event_type,
                     lag(event_type) OVER (PARTITION BY user_id
                                           ORDER BY ts, event_id) AS prev
              FROM events
            )
            SELECT prev AS prev_type, event_type AS next_type,
                   CAST(count(*) AS BIGINT) AS n
            FROM s WHERE prev IS NOT NULL
            GROUP BY 1, 2 ORDER BY 1, 2
        """,
        "window_unique": """
            SELECT event_type,
                   CAST(epoch_us(ts) // 3600000000 AS BIGINT) AS win,
                   CAST(count(DISTINCT user_id) AS BIGINT) AS n_unique
            FROM events GROUP BY 1, 2 ORDER BY 1, 2
        """,
        "link_health": """
            WITH raw AS (
              SELECT (l_orderkey * 3 + l_linenumber) % 4096 AS src,
                     (l_partkey * 7) % 16384 AS dst
              FROM lineitem
            ), eall AS (
              SELECT DISTINCT src, dst FROM raw
            ), t AS (
              SELECT count(*) AS n_all,
                     count(*) FILTER (src = dst) AS loops
              FROM eall
            ), e AS (
              SELECT src, dst FROM eall WHERE src <> dst
            ), od AS (
              SELECT src AS node, count(*) AS d FROM e GROUP BY 1
            ), idg AS (
              SELECT dst AS node, count(*) AS d FROM e GROUP BY 1
            ), nodes AS (
              SELECT node, max(ho) AS ho, max(hi) AS hi FROM (
                SELECT node, 1 AS ho, 0 AS hi FROM od
                UNION ALL
                SELECT node, 0 AS ho, 1 AS hi FROM idg
              ) GROUP BY node
            ), ns AS (
              SELECT count(*) AS n_nodes,
                     count(*) FILTER (hi = 1 AND ho = 0) AS dang
              FROM nodes
            )
            SELECT CAST(ns.n_nodes AS BIGINT) AS n_nodes,
                   CAST(t.n_all - t.loops AS BIGINT) AS n_edges,
                   CAST(t.loops AS BIGINT) AS self_loops,
                   CAST(ns.dang AS BIGINT) AS dangling,
                   CAST((SELECT max(d) FROM od) AS BIGINT) AS max_out,
                   CAST((SELECT max(d) FROM idg) AS BIGINT) AS max_in,
                   round(CAST(t.loops AS DOUBLE) / t.n_all, 6)
                       AS self_loop_frac,
                   round(CAST(ns.dang AS DOUBLE) / ns.n_nodes, 6)
                       AS dangling_frac,
                   round(CAST(t.n_all - t.loops AS DOUBLE) / ns.n_nodes, 6)
                       AS avg_out
            FROM t, ns
        """,
        "host_coverage": """
            WITH h AS (
              SELECT user_id % 2048 AS host, count(*) AS c
              FROM events GROUP BY 1
            ), r AS (
              SELECT c, row_number() OVER (ORDER BY c DESC, host) AS rk
              FROM h
            ), t AS (
              SELECT sum(c) AS total FROM h
            )
            SELECT CAST(t.total AS BIGINT) AS total,
                   round(CAST((SELECT sum(c) FROM r WHERE rk <= 1)
                              AS DOUBLE) / t.total, 6) AS share_top1,
                   round(CAST((SELECT sum(c) FROM r WHERE rk <= 10)
                              AS DOUBLE) / t.total, 6) AS share_top10,
                   round(CAST((SELECT sum(c) FROM r WHERE rk <= 100)
                              AS DOUBLE) / t.total, 6) AS share_top100
            FROM t
        """,
        "kwic": """
            WITH m AS (
              SELECT doc_id, strpos(text, 'data') AS pos, text
              FROM documents WHERE strpos(text, 'data') > 0
            )
            SELECT CAST(doc_id AS BIGINT) AS doc_id,
                   CAST(pos AS BIGINT) AS pos,
                   substr(text, greatest(1, pos - 30), 64) AS snippet
            FROM m ORDER BY doc_id
        """,
        "char_entropy": """
            WITH pos AS (
              SELECT doc_id, text,
                     unnest(range(1, length(text) + 1)) AS i
              FROM documents WHERE length(text) > 0
            ), ch AS (
              SELECT doc_id, substr(text, i, 1) AS c FROM pos
            ), f AS (
              SELECT doc_id, c, count(*) AS m FROM ch GROUP BY 1, 2
            )
            SELECT doc_id, CAST(sum(m) AS BIGINT) AS n_chars,
                   round(ln(sum(m)) - sum(m * ln(m)) / sum(m), 6)
                       AS entropy
            FROM f GROUP BY doc_id ORDER BY doc_id
        """,
        "quality_percentile": """
            SELECT doc_id, lang, n_chars,
                   round(percent_rank() OVER (PARTITION BY lang
                                              ORDER BY n_chars), 6)
                       AS prank
            FROM documents ORDER BY doc_id
        """,
        "source_kl": """
            WITH pos AS (
              SELECT source, text, unnest(range(1, length(text))) AS i
              FROM documents WHERE length(text) >= 2
            ), bg AS (
              SELECT source, substr(text, i, 2) AS b FROM pos
            ), sc AS (
              SELECT source, b, count(*) AS m FROM bg GROUP BY 1, 2
            ), st AS (
              SELECT source, sum(m) AS n FROM sc GROUP BY 1
            ), gc AS (
              SELECT b, sum(m) AS gm FROM sc GROUP BY 1
            ), gt AS (
              SELECT sum(m) AS gn FROM sc
            )
            SELECT sc.source,
                   round(sum((m * 1.0 / n) * ln((m * 1.0 / n)
                             / (gm * 1.0 / gn))), 6) AS kl,
                   CAST(any_value(n) AS BIGINT) AS n_bigrams
            FROM sc JOIN st USING (source) JOIN gc USING (b)
                 CROSS JOIN gt
            GROUP BY sc.source ORDER BY sc.source
        """,
        "exact_quantiles": """
            SELECT round(quantile_disc(l_extendedprice, 0.5), 6) AS q50,
                   round(quantile_disc(l_extendedprice, 0.9), 6) AS q90,
                   round(quantile_disc(l_extendedprice, 0.99), 6) AS q99
            FROM lineitem
        """,
        "fetch_shards": """
            WITH h AS (
              SELECT user_id % 2048 AS host, count(*) AS c
              FROM events GROUP BY 1
            ), r AS (
              SELECT host, c,
                     row_number() OVER (ORDER BY c DESC, host) AS rk
              FROM h
            ), a AS (
              SELECT host, c,
                     CASE WHEN (rk - 1) % 32 < 16 THEN (rk - 1) % 32
                          ELSE 31 - ((rk - 1) % 32) END AS shard
              FROM r
            )
            SELECT CAST(shard AS BIGINT) AS shard,
                   CAST(count(*) AS BIGINT) AS n_hosts,
                   CAST(sum(c) AS BIGINT) AS load
            FROM a GROUP BY 1 ORDER BY 1
        """,
        "trimmed_mean": """
            WITH q AS (
              SELECT event_type,
                     quantile_disc(value, 0.05) AS lo,
                     quantile_disc(value, 0.95) AS hi
              FROM events GROUP BY 1
            )
            SELECT e.event_type, round(avg(e.value), 6) AS tmean,
                   CAST(count(*) AS BIGINT) AS n_kept
            FROM events e JOIN q USING (event_type)
            WHERE e.value BETWEEN q.lo AND q.hi
            GROUP BY e.event_type ORDER BY e.event_type
        """,
        "reciprocity": """
            WITH e AS (
              SELECT DISTINCT l_orderkey % 4096 AS src,
                              (l_partkey * 13) % 4096 AS dst
              FROM lineitem
              WHERE l_orderkey % 4096 <> (l_partkey * 13) % 4096
            ), r AS (
              SELECT count(*) AS n_recip FROM e a
              WHERE EXISTS (SELECT 1 FROM e b
                            WHERE b.src = a.dst AND b.dst = a.src)
            )
            SELECT (SELECT count(*) FROM e) AS n_edges,
                   (SELECT n_recip FROM r) AS n_recip,
                   round((SELECT n_recip FROM r) * 1.0
                         / (SELECT count(*) FROM e), 6) AS reciprocity
        """,
        "trustrank": """
            WITH e AS (
              SELECT 's' || CAST(l_suppkey AS VARCHAR) AS src,
                     'p' || CAST(l_partkey AS VARCHAR) AS dst
              FROM lineitem
            ), nodes AS (
              SELECT DISTINCT node FROM (
                SELECT src AS node FROM e UNION ALL SELECT dst FROM e)
            ),
            t AS (SELECT DISTINCT 's' || CAST(l_suppkey AS VARCHAR) AS node
                  FROM lineitem WHERE l_suppkey % 7 = 0),
            nt AS (SELECT count(*) AS nt FROM t),
            deg AS (SELECT src, count(*) AS deg FROM e GROUP BY 1),
            r0 AS (SELECT nodes.node,
                          CASE WHEN t.node IS NOT NULL
                               THEN 1.0 / (SELECT nt FROM nt)
                               ELSE 0.0 END AS rank
                   FROM nodes LEFT JOIN t USING (node)),
            c1 AS (SELECT e.dst AS node, sum(r0.rank / deg.deg) AS c
                   FROM e JOIN deg USING (src) JOIN r0 ON r0.node = e.src
                   GROUP BY 1),
            r1 AS (SELECT nodes.node,
                          CASE WHEN t.node IS NOT NULL
                               THEN 0.15 / (SELECT nt FROM nt)
                               ELSE 0.0 END
                          + 0.85 * coalesce(c1.c, 0) AS rank
                   FROM nodes LEFT JOIN t USING (node)
                              LEFT JOIN c1 USING (node)),
            c2 AS (SELECT e.dst AS node, sum(r1.rank / deg.deg) AS c
                   FROM e JOIN deg USING (src) JOIN r1 ON r1.node = e.src
                   GROUP BY 1),
            r2 AS (SELECT nodes.node,
                          CASE WHEN t.node IS NOT NULL
                               THEN 0.15 / (SELECT nt FROM nt)
                               ELSE 0.0 END
                          + 0.85 * coalesce(c2.c, 0) AS rank
                   FROM nodes LEFT JOIN t USING (node)
                              LEFT JOIN c2 USING (node))
            SELECT node, round(rank, 6) AS rank FROM r2
        """,
        "crawl_depth": """
            WITH RECURSIVE e AS (
              SELECT 2 * l_suppkey + 1 AS src, 2 * l_partkey AS dst
              FROM lineitem
              UNION ALL
              SELECT 2 * l_partkey, 2 * l_suppkey + 1 FROM lineitem
            ), seeds AS (
              SELECT DISTINCT 2 * l_suppkey + 1 AS node FROM lineitem
              WHERE l_suppkey % 97 = 0
            ), walk(node, depth) AS (
              SELECT node, 0 FROM seeds
              UNION
              SELECT e.dst, w.depth + 1
              FROM walk w JOIN e ON e.src = w.node
              WHERE w.depth < 3
            )
            SELECT node, CAST(min(depth) AS BIGINT) AS depth
            FROM walk GROUP BY node
        """,
        "graph_components": """
            WITH RECURSIVE e0 AS (
              SELECT l_orderkey * 8 + l_linenumber - 1 AS a,
                     l_orderkey * 8 + l_linenumber AS b
              FROM lineitem WHERE l_linenumber > 1
              UNION ALL
              SELECT -o.o_custkey, l.l_orderkey * 8 + 1
              FROM lineitem l JOIN orders o ON o.o_orderkey = l.l_orderkey
              WHERE l.l_linenumber = 1
            ), edges AS (
              SELECT a, b FROM e0 UNION ALL SELECT b, a FROM e0
            ), reach(id, r) AS (
              SELECT a, a FROM edges
              UNION
              SELECT e.a, reach.r FROM edges e JOIN reach ON e.b = reach.id
            )
            SELECT id, CAST(min(r) AS BIGINT) AS "group"
            FROM reach GROUP BY id
        """,
        "triangle_census": """
            WITH raw AS (
              SELECT (l_orderkey * 7 + l_linenumber) % 16384 AS p,
                     (l_partkey * 13) % 16384 AS q
              FROM lineitem
            ), e AS (
              SELECT DISTINCT least(p, q) AS u, greatest(p, q) AS v
              FROM raw WHERE p <> q
            ), t AS (
              SELECT a.u AS x, a.v AS y, b.v AS z
              FROM e a
              JOIN e b ON b.u = a.v
              JOIN e c ON c.u = a.u AND c.v = b.v
            ), corners AS (
              SELECT x AS node FROM t
              UNION ALL SELECT y FROM t
              UNION ALL SELECT z FROM t
            )
            SELECT node, CAST(count(*) AS BIGINT) AS n_triangles
            FROM corners GROUP BY node
        """,
        "mirror_detect": r"""
            WITH toks AS (
              SELECT 'h' || CAST(doc_id % 61 AS VARCHAR) AS host,
                     list_filter(regexp_split_to_array(text, '\s+'),
                                 x -> x <> '') AS t
              FROM documents
            ), hf AS (
              SELECT DISTINCT host,
                     md5_number_lower(array_to_string(
                       list_slice(t, j * 4 + 1, j * 4 + 4), ' ')) AS fp
              FROM toks,
                   LATERAL (SELECT unnest(range(len(t) // 4)) AS j) u
            ), ok AS (
              SELECT fp FROM hf GROUP BY fp
              HAVING count(*) BETWEEN 2 AND 64
            ), p AS (
              SELECT a.host AS host_a, b.host AS host_b,
                     count(*) AS shared
              FROM hf a JOIN hf b USING (fp) JOIN ok USING (fp)
              WHERE a.host < b.host
              GROUP BY 1, 2
              HAVING count(*) >= 2
            ), sz AS (SELECT host, count(*) AS n FROM hf GROUP BY host)
            SELECT host_a, host_b, CAST(shared AS BIGINT) AS shared,
                   round(shared / CAST(sa.n + sb.n - shared AS DOUBLE),
                         6) AS jaccard
            FROM p
            JOIN sz sa ON sa.host = p.host_a
            JOIN sz sb ON sb.host = p.host_b
        """,
        "dsir_weights": r"""
            WITH toks AS (
              SELECT doc_id, lang,
                     unnest(list_filter(regexp_split_to_array(lower(text), '\s+'),
                                        x -> x <> '')) AS tok
              FROM documents
            ), feat AS (
              SELECT doc_id, lang,
                     CAST(('0x' || substr(md5(tok), 1, 8)) AS BIGINT) % 1024 AS b
              FROM toks
            ), doc_b AS (
              SELECT doc_id, b, count(*) AS k FROM feat GROUP BY 1, 2
            ), buck AS (
              SELECT b, count(*) AS k_raw,
                     sum(CASE WHEN lang = 'en' THEN 1 ELSE 0 END) AS k_tgt
              FROM feat GROUP BY 1
            ), tot AS (
              SELECT sum(k_raw) AS t_raw, sum(k_tgt) AS t_tgt FROM buck
            ), lr AS (
              SELECT b, ln((k_tgt + 1.0) / (t_tgt + 1024.0))
                        - ln((k_raw + 1.0) / (t_raw + 1024.0)) AS lr
              FROM buck, tot
            )
            SELECT doc_id, round(sum(k * lr) / sum(k), 4) AS lw
            FROM doc_b JOIN lr USING (b)
            GROUP BY 1
        """,
        "interval_attribution": """
            SELECT p.event_id, p.user_id,
                   count(c.event_id) AS n_prior,
                   round(coalesce(sum(c.value), 0), 4) AS val_prior
            FROM events p LEFT JOIN events c
              ON c.user_id = p.user_id
             AND c.event_type IN ('click', 'view')
             AND c.ts >= p.ts - INTERVAL 30 MINUTE
             AND c.ts < p.ts
            WHERE p.event_type = 'purchase'
            GROUP BY 1, 2
        """,
        "kmeans_clusters": """
            WITH e AS (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS emb
                       FROM embeddings),
            c0 AS (SELECT row_number() OVER (ORDER BY vec_id) - 1 AS cid, emb
                   FROM (SELECT * FROM e ORDER BY vec_id LIMIT 8)),
            a1 AS (SELECT e.vec_id,
                          (SELECT cid FROM c0
                           ORDER BY list_distance(e.emb, c0.emb), cid
                           LIMIT 1) AS cid
                   FROM e),
            ex AS (SELECT a1.cid, generate_subscripts(e.emb, 1) AS i,
                          unnest(e.emb) AS v
                   FROM a1 JOIN e USING (vec_id)),
            c1 AS (SELECT cid, list(v ORDER BY i) AS emb
                   FROM (SELECT cid, i, avg(v) AS v FROM ex GROUP BY 1, 2)
                   GROUP BY cid),
            a2 AS (SELECT e.vec_id,
                          (SELECT cid FROM c1
                           ORDER BY list_distance(e.emb, c1.emb), cid
                           LIMIT 1) AS cid
                   FROM e)
            SELECT vec_id, CAST(cid AS BIGINT) AS cluster FROM a2
        """,
        "hist_quantiles": """
            WITH b AS (
              SELECT o_orderpriority,
                     CAST(least(greatest(floor(o_totalprice / 600000.0 * 128), 0), 127) AS BIGINT) AS bin
              FROM orders
            ), c AS (
              SELECT o_orderpriority, bin, count(*) AS n FROM b GROUP BY 1, 2
            ), cum AS (
              SELECT o_orderpriority, bin, n,
                     sum(n) OVER (PARTITION BY o_orderpriority ORDER BY bin) AS cn,
                     sum(n) OVER (PARTITION BY o_orderpriority) AS total
              FROM c
            )
            SELECT o_orderpriority,
                   round(min(CASE WHEN cn >= greatest(CAST(ceil(0.5 * total) AS BIGINT), 1)
                             THEN (bin + 1) * (600000.0 / 128) END), 6) AS q50,
                   round(min(CASE WHEN cn >= greatest(CAST(ceil(0.9 * total) AS BIGINT), 1)
                             THEN (bin + 1) * (600000.0 / 128) END), 6) AS q90,
                   round(min(CASE WHEN cn >= greatest(CAST(ceil(0.99 * total) AS BIGINT), 1)
                             THEN (bin + 1) * (600000.0 / 128) END), 6) AS q99
            FROM cum GROUP BY o_orderpriority
        """,
        "robots_parse": """
            SELECT doc_id,
              CASE doc_id % 4
                WHEN 0 THEN '/private' || (doc_id % 7) || '/'
                WHEN 1 THEN '/only' || (doc_id % 3) || '/'
                WHEN 2 THEN '/a' || (doc_id % 5) || '/|/b' || (doc_id % 11) || '/'
                ELSE '/x' || (doc_id % 9) || '/'
              END AS disallow,
              CASE doc_id % 4
                WHEN 0 THEN '/private' || (doc_id % 7) || '/pub/'
                WHEN 1 THEN ''
                WHEN 2 THEN ''
                ELSE '/x' || (doc_id % 9) || '/ok/'
              END AS allow,
              CAST(CASE doc_id % 4
                WHEN 0 THEN (1 + doc_id % 5) * 1000
                WHEN 1 THEN (2 + doc_id % 3) * 1000
                WHEN 2 THEN 1000
                ELSE (doc_id % 6) * 1000
              END AS BIGINT) AS crawl_delay_ms
            FROM documents
        """,
        "semdedup": """
            WITH cents AS (
                SELECT vec_id AS cid, CAST(embedding AS DOUBLE[]) AS c
                FROM embeddings WHERE vec_id < 16
            ),
            assign AS (
                SELECT vec_id, cid FROM (
                    SELECT e.vec_id, c.cid,
                           row_number() OVER (
                               PARTITION BY e.vec_id
                               ORDER BY list_inner_product(
                                   CAST(e.embedding AS DOUBLE[]), c.c) DESC,
                               c.cid) AS rn
                    FROM embeddings e CROSS JOIN cents c) WHERE rn = 1
            ),
            e AS (
                SELECT a.vec_id, a.cid, CAST(em.embedding AS DOUBLE[]) AS emb
                FROM assign a JOIN embeddings em ON em.vec_id = a.vec_id
            )
            SELECT a.vec_id, CAST(a.cid AS INTEGER) AS cid FROM e a
            WHERE NOT EXISTS (
                SELECT 1 FROM e b
                WHERE b.cid = a.cid AND b.vec_id < a.vec_id
                  AND round(list_cosine_similarity(b.emb, a.emb), 6) >= 0.35)
        """,
        "dup_spans": r"""
            WITH toks AS (
              SELECT doc_id, list_filter(regexp_split_to_array(text, '\s+'), x -> x <> '') AS t
              FROM documents
            ), wins AS (
              SELECT doc_id, i, array_to_string(list_slice(t, i + 1, i + 5), ' ') AS w
              FROM toks, LATERAL (SELECT unnest(range(greatest(len(t) - 4, 0))) AS i) AS u
            ), dups AS (
              SELECT doc_id, i
              FROM (SELECT doc_id, i, count(*) OVER (PARTITION BY w) AS m FROM wins)
              WHERE m > 1
            ), cov AS (
              SELECT doc_id, count(DISTINCT j) AS n_covered
              FROM dups, LATERAL (SELECT unnest(range(i, i + 5)) AS j) AS v
              GROUP BY doc_id
            )
            SELECT t.doc_id, CAST(len(t.t) AS BIGINT) AS n_tokens,
                   CAST(coalesce(c.n_covered, 0) AS BIGINT) AS n_covered,
                   round(CAST(coalesce(c.n_covered, 0) AS DOUBLE) / greatest(len(t.t), 1), 6) AS covered_frac
            FROM toks t LEFT JOIN cov c USING (doc_id)
        """,
        "exact_substr": r"""
            WITH toks AS (
              SELECT doc_id, list_filter(regexp_split_to_array(text, '\s+'), x -> x <> '') AS t
              FROM documents
            ), wins AS (
              SELECT doc_id, i, array_to_string(list_slice(t, i + 1, i + 5), ' ') AS w
              FROM toks, LATERAL (SELECT unnest(range(greatest(len(t) - 4, 0))) AS i) AS u
            ), marked AS (
              SELECT doc_id, i,
                     count(*) OVER (PARTITION BY w) AS m,
                     row_number() OVER (PARTITION BY w ORDER BY doc_id, i) AS rn
              FROM wins
            ), cov AS (
              SELECT DISTINCT doc_id, j
              FROM marked, LATERAL (SELECT unnest(range(i, i + 5)) AS j) AS v
              WHERE m > 1 AND rn > 1
            ), pos AS (
              SELECT doc_id, unnest(t) AS tok, generate_subscripts(t, 1) - 1 AS j
              FROM toks
            ), clean AS (
              SELECT p.doc_id,
                     coalesce(string_agg(p.tok, ' ' ORDER BY p.j)
                              FILTER (WHERE c.j IS NULL), '') AS text_clean,
                     count(*) FILTER (WHERE c.j IS NOT NULL) AS n_removed
              FROM pos p LEFT JOIN cov c ON p.doc_id = c.doc_id AND p.j = c.j
              GROUP BY p.doc_id
            )
            SELECT t.doc_id, CAST(len(t.t) AS BIGINT) AS n_tokens,
                   CAST(coalesce(cl.n_removed, 0) AS BIGINT) AS n_removed,
                   coalesce(cl.text_clean, '') AS text_clean
            FROM toks t LEFT JOIN clean cl USING (doc_id)
        """,
        "anchor_text": r"""
            WITH t AS (
              SELECT doc_id, source,
                     list_filter(regexp_split_to_array(text, '\s+'), x -> x <> '') AS tk
              FROM documents
            ), links AS (
              SELECT (doc_id * 3 + 1) % 1000 AS target,
                     array_to_string(list_slice(tk, 1, 3), ' ') AS anchor
              FROM t WHERE len(tk) > 0
              UNION ALL
              SELECT doc_id % 97 AS target, source AS anchor FROM t
            ), ca AS (
              SELECT target, anchor, count(*) AS c FROM links GROUP BY 1, 2
            ), ranked AS (
              SELECT target, anchor,
                     row_number() OVER (PARTITION BY target
                                        ORDER BY c DESC, anchor) AS rn
              FROM ca
            ), s AS (
              SELECT target, CAST(sum(c) AS BIGINT) AS n_links,
                     CAST(count(*) AS BIGINT) AS n_distinct_anchors
              FROM ca GROUP BY target
            )
            SELECT s.target, s.n_links, s.n_distinct_anchors,
                   r.anchor AS top_anchor
            FROM s JOIN ranked r ON r.target = s.target AND r.rn = 1
        """,
        "epoch_shuffle": """
            WITH k AS (
              SELECT doc_id,
                     substr(md5('7:' || CAST(doc_id AS VARCHAR)), 1, 16) AS kk
              FROM documents
            ), r AS (
              SELECT doc_id, row_number() OVER (ORDER BY kk, doc_id) - 1 AS pos
              FROM k
            )
            SELECT doc_id, CAST(pos AS BIGINT) AS pos,
                   CAST(pos // 64 AS BIGINT) AS shard_id,
                   CAST(pos % 64 AS BIGINT) AS pos_in_shard
            FROM r
        """,
        "url_canonicalize": """
            SELECT doc_id,
                   CASE doc_id % 5
                     WHEN 0 THEN 'http://www.host' || (doc_id % 50) || '.example.com/a/' || doc_id || '?a=1&b=2'
                     WHEN 1 THEN 'https://host' || (doc_id % 50) || '.example.com/x/z/' || doc_id
                     WHEN 2 THEN 'https://host' || (doc_id % 50) || '.example.com:8443/p/' || doc_id
                     WHEN 3 THEN 'http://host' || (doc_id % 50) || '.example.com/'
                   END AS url,
                   CASE WHEN doc_id % 5 = 0 THEN 'www.host' || (doc_id % 50) || '.example.com'
                        ELSE 'host' || (doc_id % 50) || '.example.com' END AS host
            FROM documents
            WHERE doc_id % 5 <> 4
        """,
        "stopword_fraction": r"""
            SELECT doc_id,
                   CAST(len(regexp_extract_all(lower(text), '[a-z]+')) AS BIGINT) AS n_words,
                   CAST(len(list_filter(regexp_extract_all(lower(text), '[a-z]+'),
                        w -> list_contains(['the','a','an','and','or','of','to','in','on','for','with','at','by','from','as','is','are','was','were','be','been','it','this','that'], w))) AS BIGINT) AS n_stop,
                   round(CAST(len(list_filter(regexp_extract_all(lower(text), '[a-z]+'),
                        w -> list_contains(['the','a','an','and','or','of','to','in','on','for','with','at','by','from','as','is','are','was','were','be','been','it','this','that'], w))) AS DOUBLE)
                        / greatest(len(regexp_extract_all(lower(text), '[a-z]+')), 1), 6) AS stopword_frac
            FROM documents
        """,
        "proximity_search": r"""
            WITH toks AS (
              SELECT doc_id,
                     list_filter(regexp_split_to_array(text, '\s+'),
                                 x -> x <> '') AS t
              FROM documents
            ), pos AS (
              SELECT doc_id, t[i + 1] AS tok, i
              FROM toks,
                   LATERAL (SELECT unnest(range(len(t))) AS i) u
            ), a AS (SELECT doc_id, i FROM pos WHERE tok = 'hash'),
            b AS (SELECT doc_id, i FROM pos WHERE tok = 'join')
            SELECT a.doc_id,
                   CAST(min(abs(a.i - b.i)) AS BIGINT) AS min_dist
            FROM a JOIN b USING (doc_id)
            GROUP BY a.doc_id
            HAVING min(abs(a.i - b.i)) <= 3
        """,
        "phrase_search": r"""
            WITH toks AS (
              SELECT doc_id,
                     list_filter(regexp_split_to_array(text, '\s+'),
                                 x -> x <> '') AS t
              FROM documents
            )
            SELECT doc_id, CAST(count(*) AS BIGINT) AS n_matches
            FROM toks,
                 LATERAL (SELECT unnest(range(len(t) - 2)) AS i) u
            WHERE t[i + 1] = 'big' AND t[i + 2] = 'order'
              AND t[i + 3] = 'scan'
            GROUP BY doc_id
        """,
        "bm25_search": r"""
            WITH toks AS (
              SELECT doc_id,
                     list_filter(string_split_regex(text, '\s+'),
                                 x -> x <> '') AS w
              FROM documents
            ),
            t AS (
              SELECT doc_id,
                     CAST(len(w) AS BIGINT) AS dl,
                     CAST(len(list_filter(w, x -> x = 'merge')) AS BIGINT) AS tf1,
                     CAST(len(list_filter(w, x -> x = 'window')) AS BIGINT) AS tf2,
                     CAST(len(list_filter(w, x -> x = 'stream')) AS BIGINT) AS tf3
              FROM toks
            ),
            g AS (
              SELECT CAST(count(*) AS BIGINT) AS n,
                     CAST(sum(dl) AS BIGINT) AS sdl,
                     CAST(sum(CASE WHEN tf1 > 0 THEN 1 ELSE 0 END) AS BIGINT) AS df1,
                     CAST(sum(CASE WHEN tf2 > 0 THEN 1 ELSE 0 END) AS BIGINT) AS df2,
                     CAST(sum(CASE WHEN tf3 > 0 THEN 1 ELSE 0 END) AS BIGINT) AS df3
              FROM t
            )
            SELECT doc_id,
                   round((
                     CASE WHEN tf1 = 0 THEN 0.0 ELSE
                       ln((g.n - g.df1 + 0.5) / (g.df1 + 0.5)) * (tf1 * 2.2)
                       / (tf1 + 1.2 * (1.0 - 0.75 + 0.75 * (dl / (CAST(g.sdl AS DOUBLE) / g.n)))) END
                     + CASE WHEN tf2 = 0 THEN 0.0 ELSE
                       ln((g.n - g.df2 + 0.5) / (g.df2 + 0.5)) * (tf2 * 2.2)
                       / (tf2 + 1.2 * (1.0 - 0.75 + 0.75 * (dl / (CAST(g.sdl AS DOUBLE) / g.n)))) END
                   ) + CASE WHEN tf3 = 0 THEN 0.0 ELSE
                       ln((g.n - g.df3 + 0.5) / (g.df3 + 0.5)) * (tf3 * 2.2)
                       / (tf3 + 1.2 * (1.0 - 0.75 + 0.75 * (dl / (CAST(g.sdl AS DOUBLE) / g.n)))) END,
                   6) AS bm25
            FROM t, g
            WHERE tf1 + tf2 + tf3 > 0
        """,
        "token_search": r"""
            SELECT doc_id FROM documents
            WHERE list_contains(list_filter(string_split_regex(text, '\s+'),
                                            x -> x <> ''), 'merge')
              AND list_contains(list_filter(string_split_regex(text, '\s+'),
                                            x -> x <> ''), 'window')
              AND list_contains(list_filter(string_split_regex(text, '\s+'),
                                            x -> x <> ''), 'stream')
        """,
        "sequence_pack": r"""
            WITH t AS (
              SELECT doc_id,
                     CAST(coalesce(len(list_filter(string_split_regex(text, '\s+'),
                                                   x -> x <> '')), 0) AS BIGINT) AS n_tokens
              FROM documents
            ),
            c AS (
              SELECT doc_id, n_tokens,
                     sum(n_tokens + 1) OVER (ORDER BY doc_id) AS cum
              FROM t
            )
            SELECT doc_id, n_tokens,
                   CAST(cum - (n_tokens + 1) AS BIGINT) AS tok_start,
                   CAST((cum - (n_tokens + 1)) // 256 AS BIGINT) AS seq_first,
                   CAST((cum - 1) // 256 AS BIGINT) AS seq_last,
                   CAST((cum - 1) // 256 - (cum - (n_tokens + 1)) // 256 + 1
                        AS BIGINT) AS n_seqs
            FROM c
        """,
        "model_score": r"""
            WITH toks AS (
              SELECT doc_id,
                     unnest(list_filter(string_split_regex(text, '\s+'),
                                        x -> x <> '')) AS tok
              FROM documents
            ),
            s AS (
              SELECT doc_id,
                     sum((CAST(md5_number_lower(tok) % 4096 AS BIGINT)
                          * 2654435761 + 97) % 1000003) AS sw,
                     count(*) AS n
              FROM toks GROUP BY doc_id
            )
            SELECT d.doc_id,
                   coalesce(round(CAST(s.sw AS DOUBLE) / (s.n * 1000003.0)
                                  - 0.5, 6), 0.0) AS model_score
            FROM documents d LEFT JOIN s ON d.doc_id = s.doc_id
        """,
        "snapshot_diff": """
            WITH old AS (
              SELECT doc_id, text FROM documents WHERE doc_id % 11 <> 3
            ),
            new AS (
              SELECT doc_id,
                     CASE WHEN doc_id % 9 = 0
                          THEN coalesce(text, '') || ' v2' ELSE text END AS text
              FROM documents WHERE doc_id % 13 <> 5
            )
            SELECT coalesce(o.doc_id, n.doc_id) AS doc_id,
                   CASE WHEN o.doc_id IS NULL THEN 'added'
                        WHEN n.doc_id IS NULL THEN 'removed'
                        WHEN o.text = n.text
                             OR (o.text IS NULL AND n.text IS NULL)
                             THEN 'unchanged'
                        ELSE 'changed' END AS change
            FROM old o FULL OUTER JOIN new n ON o.doc_id = n.doc_id
        """,
        "oversized_payloads": """
            SELECT doc_id,
                   CAST(strlen(text) AS BIGINT) AS n_payload_bytes,
                   'payload_too_large' AS error
            FROM documents
            WHERE strlen(text) > 300
        """,
        "sample_md5": """
            SELECT doc_id, lang FROM documents
            WHERE CAST(('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 4)) AS BIGINT)
                  < CAST(floor(0.3 * 65536) AS BIGINT)
        """,
        "stratified_sample": """
            WITH h AS (
              SELECT lang, doc_id,
                     CAST(('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 4)) AS BIGINT) AS h16
              FROM documents
            )
            SELECT lang, doc_id, h16 FROM (
              SELECT lang, doc_id, h16,
                     row_number() OVER (PARTITION BY lang ORDER BY h16, doc_id) AS rn
              FROM h
            ) WHERE rn <= 20
        """,
        "join_broadcast": """
            SELECT c_mktsegment,
                   CAST(sum(CAST(o_totalprice AS DECIMAL(18,2))) AS DOUBLE) AS sum_price,
                   count(*) AS n_orders
            FROM orders JOIN customer ON o_custkey = c_custkey
            GROUP BY c_mktsegment
        """,
        "join_hash": """
            SELECT o_orderpriority, round(sum(l_quantity), 2) AS sum_qty, count(*) AS n
            FROM lineitem JOIN orders ON l_orderkey = o_orderkey
            GROUP BY o_orderpriority
        """,
        "join_salted": """
            WITH flags AS (
                SELECT l_returnflag, count(*) AS flag_n
                FROM lineitem GROUP BY l_returnflag
            )
            SELECT l.l_returnflag, flag_n, count(*) AS n,
                   CAST(sum(l.l_orderkey) AS BIGINT) AS sum_key
            FROM lineitem l JOIN flags USING (l_returnflag)
            GROUP BY l.l_returnflag, flag_n
            ORDER BY l.l_returnflag
        """,
        "anti_join": """
            SELECT c_custkey FROM customer
            WHERE NOT EXISTS (SELECT 1 FROM orders
                              WHERE o_custkey = c_custkey
                                AND o_orderpriority = '1-URGENT')
        """,
        "semi_join": """
            SELECT p_partkey FROM part
            WHERE EXISTS (SELECT 1 FROM lineitem WHERE l_partkey = p_partkey)
        """,
        "explode_tokens": """
            SELECT token, count(*) AS n
            FROM (SELECT unnest(list_filter(regexp_split_to_array(text, '\\s+'), x -> x <> '')) AS token
                  FROM documents)
            GROUP BY token ORDER BY n DESC, token LIMIT 20
        """,
        "window_hourly": """
            SELECT event_type, date_trunc('hour', ts) AS window_start,
                   count(*) AS n, round(sum(value), 4) AS sum_value
            FROM events GROUP BY event_type, date_trunc('hour', ts)
        """,
        "window_sliding": """
            SELECT event_type,
                   (epoch_us(ts) // 900000000 - i) * 900000000 AS window_start,
                   count(*) AS n, max(event_id) AS max_id
            FROM events CROSS JOIN generate_series(0, 3) AS t(i)
            GROUP BY event_type, window_start
            ORDER BY event_type, window_start
        """,
        "asof_join_orders": """
            WITH ro AS (
                SELECT o_custkey AS user_id, o_orderdate AS ots,
                       max(o_orderkey) AS okey
                FROM orders GROUP BY o_custkey, o_orderdate
            )
            SELECT e.event_id, e.user_id, r.okey
            FROM events e ASOF JOIN ro r
              ON e.user_id = r.user_id AND r.ots <= e.ts
            ORDER BY e.event_id
        """,
        "topk_per_group": """
            SELECT o_custkey, o_orderkey, o_totalprice
            FROM orders
            QUALIFY row_number() OVER (
                PARTITION BY o_custkey
                ORDER BY o_totalprice DESC, o_orderkey) <= 3
            ORDER BY o_custkey, o_orderkey
        """,
        "grouped_quantiles": """
            SELECT event_type,
                   quantile_disc(value, 0.25) AS q25,
                   quantile_disc(value, 0.50) AS q50,
                   quantile_disc(value, 0.75) AS q75
            FROM events GROUP BY event_type
            ORDER BY event_type
        """,
        "running_totals": """
            SELECT event_id, user_id,
                   row_number() OVER w AS row_n,
                   max(value) OVER w AS run_max
            FROM events
            WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id
                         ROWS UNBOUNDED PRECEDING)
            ORDER BY event_id
        """,
        "sessionize": """
            WITH lagged AS (
                SELECT user_id, ts,
                       lag(ts) OVER (PARTITION BY user_id ORDER BY ts) AS prev_ts
                FROM events
            )
            SELECT user_id, count(*) AS n_sessions
            FROM lagged
            WHERE prev_ts IS NULL OR epoch_us(ts) - epoch_us(prev_ts) > 1800000000
            GROUP BY user_id
        """,
        "asof_lag": """
            SELECT o_orderkey,
                   lag(o_orderdate) OVER (PARTITION BY o_custkey
                                          ORDER BY o_orderdate, o_orderkey) AS prev_o_orderdate
            FROM orders
        """,
        "group_having": """
            SELECT c_nationkey, round(max(c_acctbal), 2) AS max_bal
            FROM customer GROUP BY c_nationkey HAVING max(c_acctbal) < 9900.0
        """,
        "union_distinct": """
            SELECT DISTINCT o_custkey FROM (
                SELECT o_custkey FROM orders WHERE o_orderpriority = '1-URGENT'
                UNION ALL
                SELECT o_custkey FROM orders WHERE o_orderpriority = '2-HIGH'
            )
        """,
        "knn_cosine": """
            -- DOUBLE[] cast: float32-list inputs would make DuckDB compute
            -- the cosine in float32, which disagrees with the engine's
            -- float64 kernel in the 6th decimal for ~5% of values
            SELECT e.vec_id,
                   round(list_cosine_similarity(CAST(e.embedding AS DOUBLE[]),
                                                CAST(q.embedding AS DOUBLE[])), 6) AS cos
            FROM embeddings e,
                 (SELECT embedding FROM embeddings WHERE vec_id = 0) q
            ORDER BY cos DESC, e.vec_id LIMIT 10
        """,
        "winnow_fps": r"""
            -- byte-exact SQL twin of textops.winnow_fingerprints: Horner
            -- 8-gram hashes (base 1000003 mod 2^64) over the ws-normalized
            -- utf-8 bytes, rightmost-min selection per 4-gram window
            WITH norm AS (
              SELECT doc_id, trim(regexp_replace(text, '\s+', ' ', 'g')) AS t
              FROM documents
            ), b AS (
              SELECT doc_id, to_hex(encode(t)) AS hx,
                     octet_length(encode(t)) AS n
              FROM norm
            ), bytes AS (
              SELECT doc_id, n,
                     list_transform(range(1, n + 1),
                       i -> CAST(CAST(('0x' || substr(hx, 2*i-1, 2)) AS INTEGER) AS HUGEINT)) AS bl
              FROM b WHERE n >= 8
            ), posns AS (
              SELECT doc_id, bl, unnest(range(0, n - 7)) AS pos FROM bytes
            ), g2 AS (
              SELECT doc_id, pos,
                     CAST(list_reduce(list_prepend(CAST(0 AS HUGEINT),
                                                   bl[pos+1:pos+8]),
                          (acc, x) -> (acc * 1000003 + x)
                                      % CAST('18446744073709551616' AS HUGEINT))
                          AS UBIGINT) AS h
              FROM posns
            ), j AS (
              SELECT e.doc_id, e.pos AS wend, g.pos, g.h
              FROM g2 e JOIN g2 g ON g.doc_id = e.doc_id
                                 AND g.pos BETWEEN e.pos - 3 AND e.pos
              WHERE e.pos >= 3
            ), r AS (
              SELECT *, row_number() OVER (PARTITION BY doc_id, wend
                                           ORDER BY h, pos DESC) AS rn
              FROM j
            )
            SELECT DISTINCT doc_id, CAST(pos AS BIGINT) AS pos, h AS fp
            FROM r WHERE rn = 1 ORDER BY doc_id, pos
        """,
        "rendezvous_shards": """
            WITH d AS (
              SELECT doc_id,
                     'http://site' || (doc_id % 97) || '.example.com/p/' || doc_id AS url
              FROM documents
            ), a AS (
              SELECT doc_id, url, unnest(range(0, 17)) AS w FROM d
            ), h AS (
              SELECT doc_id, w, md5_number_lower(url || '#' || w) AS hv FROM a
            ), s16 AS (
              SELECT doc_id, w AS shard FROM (
                SELECT doc_id, w,
                       row_number() OVER (PARTITION BY doc_id
                                          ORDER BY hv DESC, w) AS rn
                FROM h WHERE w < 16
              ) WHERE rn = 1
            ), s17 AS (
              SELECT doc_id, w AS shard17 FROM (
                SELECT doc_id, w,
                       row_number() OVER (PARTITION BY doc_id
                                          ORDER BY hv DESC, w) AS rn
                FROM h
              ) WHERE rn = 1
            )
            SELECT s16.shard, CAST(count(*) AS BIGINT) AS n,
                   CAST(sum(CASE WHEN s17.shard17 <> s16.shard
                                 THEN 1 ELSE 0 END) AS BIGINT) AS n_moved
            FROM s16 JOIN s17 USING (doc_id)
            GROUP BY 1 ORDER BY 1
        """,
        "winnow_overlap": r"""
            WITH norm AS (
              SELECT doc_id, trim(regexp_replace(text, '\s+', ' ', 'g')) AS t
              FROM documents
            ), b AS (
              SELECT doc_id, to_hex(encode(t)) AS hx,
                     octet_length(encode(t)) AS n
              FROM norm
            ), bytes AS (
              SELECT doc_id, n,
                     list_transform(range(1, n + 1),
                       i -> CAST(CAST(('0x' || substr(hx, 2*i-1, 2)) AS INTEGER) AS HUGEINT)) AS bl
              FROM b WHERE n >= 8
            ), posns AS (
              SELECT doc_id, bl, unnest(range(0, n - 7)) AS pos FROM bytes
            ), g2 AS (
              SELECT doc_id, pos,
                     CAST(list_reduce(list_prepend(CAST(0 AS HUGEINT),
                                                   bl[pos+1:pos+8]),
                          (acc, x) -> (acc * 1000003 + x)
                                      % CAST('18446744073709551616' AS HUGEINT))
                          AS UBIGINT) AS h
              FROM posns
            ), j AS (
              SELECT e.doc_id, e.pos AS wend, g.pos, g.h
              FROM g2 e JOIN g2 g ON g.doc_id = e.doc_id
                                 AND g.pos BETWEEN e.pos - 3 AND e.pos
              WHERE e.pos >= 3
            ), r AS (
              SELECT *, row_number() OVER (PARTITION BY doc_id, wend
                                           ORDER BY h, pos DESC) AS rn
              FROM j
            ), sel AS (
              SELECT DISTINCT doc_id, h FROM r WHERE rn = 1
            ), ok AS (
              SELECT h FROM sel GROUP BY h HAVING count(*) BETWEEN 2 AND 64
            ), p AS (
              SELECT a.doc_id AS id_a, b.doc_id AS id_b
              FROM sel a JOIN sel b ON a.h = b.h AND a.doc_id < b.doc_id
              JOIN ok ON ok.h = a.h
            ), c AS (
              SELECT id_a, id_b, count(*) AS shared FROM p GROUP BY 1, 2
            )
            SELECT id_a, id_b, CAST(shared AS BIGINT) AS shared
            FROM c ORDER BY shared DESC, id_a, id_b LIMIT 100
        """,
        "vocab_ids": r"""
            WITH w AS (
              SELECT unnest(list_filter(regexp_split_to_array(lower(text), '\s+'),
                                        x -> x <> '')) AS word
              FROM documents
            ), wc AS (SELECT word, count(*) AS cnt FROM w GROUP BY 1)
            SELECT word,
                   CAST(row_number() OVER (ORDER BY word) - 1 AS BIGINT)
                       AS term_id,
                   CAST(cnt AS BIGINT) AS cnt
            FROM wc WHERE cnt >= 2 ORDER BY word
        """,
        "zipf_fit": r"""
            WITH w AS (
              SELECT unnest(list_filter(regexp_split_to_array(lower(text), '\s+'),
                                        x -> x <> '')) AS word
              FROM documents
            ), wc AS (SELECT word, count(*) AS cnt FROM w GROUP BY 1),
            top AS (
              SELECT cnt, row_number() OVER (ORDER BY cnt DESC, word) AS r
              FROM wc QUALIFY r <= 1000
            )
            SELECT round(regr_slope(ln(cnt), ln(r)), 6) + 0 AS slope,
                   round(regr_intercept(ln(cnt), ln(r)), 6) + 0 AS intercept,
                   CAST(count(*) AS BIGINT) AS n_points
            FROM top
        """,
        "heaps_law": r"""
            WITH toks AS (
              SELECT doc_id,
                     unnest(list_filter(regexp_split_to_array(lower(text), '\s+'),
                                        x -> x <> '')) AS tok
              FROM documents
            ), fo AS (SELECT tok, min(doc_id) AS fd FROM toks GROUP BY 1),
            vb AS (SELECT fd // 50 AS b, count(*) AS nv FROM fo GROUP BY 1),
            tb AS (SELECT doc_id // 50 AS b, count(*) AS nt FROM toks GROUP BY 1),
            j AS (
              SELECT coalesce(tb.b, vb.b) AS b,
                     coalesce(nt, 0) AS nt, coalesce(nv, 0) AS nv
              FROM tb FULL JOIN vb ON tb.b = vb.b
            ), c AS (
              SELECT b, sum(nt) OVER (ORDER BY b) AS N,
                     sum(nv) OVER (ORDER BY b) AS V
              FROM j
            )
            SELECT round(regr_slope(ln(V), ln(N)), 6) + 0 AS beta,
                   round(regr_intercept(ln(V), ln(N)), 6) + 0 AS lnk,
                   CAST(count(*) AS BIGINT) AS n_points
            FROM c WHERE N > 0 AND V > 0
        """,
        "kcore": """
            WITH RECURSIVE raw AS (
              SELECT (l_orderkey * 7 + l_linenumber) % 16384 AS p,
                     (l_partkey * 13) % 16384 AS q
              FROM lineitem
            ), e AS (
              SELECT DISTINCT least(p, q) AS u, greatest(p, q) AS v
              FROM raw WHERE p <> q
            ), sym AS (
              SELECT u, v FROM e UNION ALL SELECT v, u FROM e
            ), alive(iter, u, v) AS (
              SELECT 0, u, v FROM sym
              UNION ALL
              SELECT iter + 1, u, v FROM (
                SELECT iter, u, v,
                       count(*) OVER (PARTITION BY u) AS du,
                       count(*) OVER (PARTITION BY v) AS dv
                FROM alive
              ) WHERE iter < 12 AND du >= 4 AND dv >= 4
            )
            SELECT u AS node, CAST(count(*) AS BIGINT) AS deg
            FROM alive WHERE iter = 12 GROUP BY u ORDER BY node
        """,
        "kmv_jaccard": r"""
            WITH tok AS (
              SELECT source,
                     unnest(list_filter(regexp_split_to_array(text, '\s+'),
                                        x -> x <> '')) AS v
              FROM documents
            ), hh AS (
              SELECT DISTINCT source, md5_number_lower(v) AS h FROM tok
            ), rk AS (
              SELECT source, h,
                     row_number() OVER (PARTITION BY source ORDER BY h) AS r
              FROM hh
            ), sk AS (SELECT source, h FROM rk WHERE r <= 256),
            srcs AS (SELECT DISTINCT source FROM sk),
            pr AS (
              SELECT a.source AS src_a, b.source AS src_b
              FROM srcs a JOIN srcs b ON a.source < b.source
            ), un AS (
              SELECT p.src_a, p.src_b, s.h,
                     max(CASE WHEN s.source = p.src_a THEN 1 ELSE 0 END) AS in_a,
                     max(CASE WHEN s.source = p.src_b THEN 1 ELSE 0 END) AS in_b
              FROM pr p JOIN sk s ON s.source IN (p.src_a, p.src_b)
              GROUP BY 1, 2, 3
            ), unr AS (
              SELECT src_a, src_b, h, in_a, in_b,
                     row_number() OVER (PARTITION BY src_a, src_b ORDER BY h) AS r,
                     count(*) OVER (PARTITION BY src_a, src_b) AS n_un
              FROM un
            ), agg AS (
              SELECT src_a, src_b,
                     least(256, max(n_un)) AS k_used,
                     max(n_un) AS n_un,
                     sum(CASE WHEN in_a = 1 AND in_b = 1 THEN 1 ELSE 0 END) AS m,
                     max(h) AS hk
              FROM unr WHERE r <= 256 GROUP BY 1, 2
            )
            SELECT src_a, src_b,
                   CAST(k_used AS BIGINT) AS k_used,
                   CAST(m AS BIGINT) AS m,
                   CAST(m AS DOUBLE) / k_used AS j_est,
                   CAST(CASE WHEN n_un > 256
                             THEN (CAST(255 AS HUGEINT)
                                   * (CAST(1 AS HUGEINT) << 64))
                                  // CAST(hk AS HUGEINT)
                             ELSE k_used END AS BIGINT) AS est_union
            FROM agg ORDER BY src_a, src_b
        """,
        "sorted_neighborhood": r"""
            WITH k AS (
              SELECT doc_id,
                     substr(regexp_replace(lower(coalesce(text, '')),
                                           '\s+', ' ', 'g'), 1, 12) AS key
              FROM documents
            ), r AS (
              SELECT doc_id, key,
                     row_number() OVER (ORDER BY key, doc_id) AS rnk
              FROM k
            )
            SELECT a.doc_id AS id_a, b.doc_id AS id_b,
                   CAST(b.rnk - a.rnk AS BIGINT) AS gap
            FROM r a JOIN r b ON b.rnk > a.rnk AND b.rnk <= a.rnk + 8
            WHERE substr(a.key, 1, 8) = substr(b.key, 1, 8)
            ORDER BY id_a, id_b
        """,
        "bpe_merge_counts": r"""
            WITH w AS (
              SELECT unnest(list_filter(regexp_split_to_array(lower(text), '\s+'),
                                        x -> x <> '')) AS word
              FROM documents
            ), wc AS (SELECT word, count(*) AS cnt FROM w GROUP BY 1),
            p AS (
              SELECT unnest(list_transform(range(1, length(word)),
                                           i -> substr(word, CAST(i AS INT), 2))) AS pair,
                     cnt
              FROM wc WHERE length(word) >= 2
            )
            SELECT pair, CAST(sum(cnt) AS BIGINT) AS cnt
            FROM p GROUP BY 1
            ORDER BY cnt DESC, pair LIMIT 30
        """,
        "bitext_candidates": """
            WITH d AS (
              SELECT doc_id, source, lang, doc_id % 40 AS pkey FROM documents
            ), e AS (
              SELECT d.doc_id AS doc_en, d.source, d.pkey, emb.embedding
              FROM d JOIN embeddings emb ON emb.vec_id = d.doc_id
              WHERE d.lang = 'en'
            ), x AS (
              SELECT d.doc_id AS doc_xx, d.source, d.pkey,
                     d.lang AS lang_xx, emb.embedding
              FROM d JOIN embeddings emb ON emb.vec_id = d.doc_id
              WHERE d.lang <> 'en'
            ), c AS (
              SELECT e.doc_en, x.doc_xx, x.lang_xx,
                     round(list_cosine_similarity(CAST(e.embedding AS DOUBLE[]),
                                                  CAST(x.embedding AS DOUBLE[])),
                           6) AS cos
              FROM e JOIN x ON x.source = e.source AND x.pkey = e.pkey
            ), r AS (
              SELECT *, row_number() OVER (PARTITION BY doc_en
                                           ORDER BY cos DESC, doc_xx) AS rn
              FROM c
            )
            SELECT doc_en, doc_xx, lang_xx, cos
            FROM r WHERE rn = 1 ORDER BY doc_en
        """,
    }
