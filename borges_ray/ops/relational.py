"""Relational operators as Ray Data idioms.

Each function is the scale-conscious version of an operator the reference
performs record-at-a-time against Mongo (SURVEY.md §2): filters are
vectorized Arrow predicates inside ``map_batches`` (not per-row ``ds.filter``),
aggregations pre-aggregate per batch before the shuffle, top-k is a per-block
partial top-k followed by one tiny final sort, and small-side joins broadcast
via ``ray.put`` instead of shuffling both sides.

Design rules (documented per SURVEY.md §4):

- A bare ``groupby().aggregate()`` shuffles every row; ``grouped_agg`` first
  collapses each batch to one row per key (the combiner the reference's
  per-page partial counters imply, ``Borges/spiders/Elsevier/paper_index.py:150-266``).
- ``topk`` never globally sorts the input: each block keeps its own top-k
  (``k`` rows max per block), and only ``k × num_blocks`` rows reach the
  final sort — the reference's priority-frontier selection (SURVEY.md §2.7 O4).
- ``attach_or_filter`` is the one lookup operator for a small side with
  a unique key (the reference's zipname↔journal in-memory dict,
  ``download_via_sftp.py:117-122``; its skip-if-present membership
  checks).  It makes the size decision once: within ``BROADCAST_MAX_ROWS``
  rows and ``BROADCAST_MAX_BYTES`` the small side is ``ray.put`` once and
  probed per batch (no shuffle); past either guard it is a ``hash_join``
  or ``hash_semi_join`` per probe column.  The graph, dedup, ccnet and
  query-layer lookups go through it.  Only three sites read the guard
  constants themselves, because each picks an algorithm and fuses a
  broadcast into a larger kernel rather than doing a lookup:
  ``graph.triangle_counts``' node-range-guarded orient and its packed
  closing-edge probe, and ``graph.adamic_adar``'s fused pair spawn.
- ``hash_join`` is the bucketed cogroup join for the large×large case
  (the DOI↔record equi-join, J1); ``native=True`` delegates to Ray's
  hash-shuffle ``Dataset.join``.
"""

from __future__ import annotations

import os
from typing import Callable, Iterable

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd
from ray.data.aggregate import AggregateFn  # noqa: F401  (re-export surface)

TABLES = (
    "region nation customer supplier part orders lineitem events documents embeddings"
).split()


def _auto_num_blocks(paths: list[str], *, target_bytes: int = 16 << 20,
                     rows_per_block: int = 200, max_row_blocks: int = 64) -> int:
    """Block count from parquet METADATA (driver-side, no data read):
    ``max(bytes/16MB, min(64, rows/200))``.  At 100 TB the bytes term
    dominates and scales linearly; at sandbox scale the rows term gives
    compute-heavy per-row kernels enough parallelism WITHOUT Ray's default
    num_cpus×2 split, which shreds a 500-row table into 64 seven-row blocks
    and makes long operator chains pay ~1000 micro-task overheads (the
    dominant cost of the r03 near-dup pipelines)."""
    import math

    import pyarrow.parquet as pq

    total_bytes = sum(os.path.getsize(p) for p in paths)
    total_rows = sum(pq.ParquetFile(p).metadata.num_rows for p in paths)
    return max(1, math.ceil(total_bytes / target_bytes),
               min(max_row_blocks, math.ceil(total_rows / rows_per_block)))


def load(sf_dir: str, table: str, columns: list[str] | None = None, **kw) -> rd.Dataset:
    """Column-pruned Parquet scan (S1/S6/S16 analogue). Always pass
    ``columns`` in pipelines — a read that loads all columns for a 2-column
    transform ships 100 TB where it should ship 2.  Block count defaults to
    the metadata-driven :func:`_auto_num_blocks` (callers can still pass
    ``override_num_blocks`` explicitly)."""
    path = os.path.join(sf_dir, f"{table}.parquet")
    if "override_num_blocks" not in kw:
        kw["override_num_blocks"] = _auto_num_blocks([path])
    return rd.read_parquet(path, columns=columns, **kw)


def spill_point(ds: rd.Dataset, tag: str = "spill", *,
                target_bytes: int = 4 << 20) -> rd.Dataset:
    """Pin a bounded intermediate via a parquet round-trip under /tmp.

    Used where a pipeline is consumed more than once (schema probe + two
    join branches): ``materialize()`` would keep it in the object store,
    but chained materialize→join→materialize lineage intermittently trips a
    Ray 2.49 core ReferenceCounter crash when earlier materialized sets are
    GC'd during the next submission.  A parquet round-trip has no lineage
    to mis-count, and at production scale these spill dirs double as
    resumable checkpoints of the (bounded) intermediate."""
    import tempfile

    return _spill_point_n(ds, tag, target_bytes=target_bytes)[0]


def _spill_point_n(ds: rd.Dataset, tag: str = "spill", *,
                   target_bytes: int = 4 << 20) -> tuple[rd.Dataset, int]:
    """:func:`spill_point` + the number of parquet files written (a stable
    stand-in for block count, which lazy reads can't report)."""
    import tempfile

    d = tempfile.mkdtemp(prefix=f"borges_{tag}_")
    ds.write_parquet(d)
    files = [os.path.join(d, f) for f in os.listdir(d) if f.endswith(".parquet")]
    if not files:
        return ds, 1  # empty dataset: nothing written — reuse the cheap plan
    # coalesce: a spill written from N tiny blocks must not come back as N
    # tiny read tasks (intermediates are usually cheap key-only maps)
    nb = _auto_num_blocks(files, target_bytes=target_bytes)
    return rd.read_parquet(files, override_num_blocks=nb), nb


def cogroup_spill(
    left: rd.Dataset,
    right: rd.Dataset,
    left_on: str,
    right_on: str,
    fn: Callable[[pd.DataFrame, pd.DataFrame], pd.DataFrame],
    *,
    empty: pd.DataFrame,
    tag: str = "cg",
    n_buckets: int = 32,
    require_both: bool = True,
) -> rd.Dataset:
    """Two-sided hash-bucketed grouped map via a DISK shuffle (external
    hash exchange) — the streaming-safe way to co-locate two payload-
    bearing datasets on a key.

    Why not ``left.union(right)`` + the sort shuffle: Ray forces
    ``preserve_order=True`` on any plan whose logical dag contains a Sort
    (``plan.require_preserve_order``), and a preserve-order UnionOperator
    buffers its ENTIRE input in an internal queue before emitting a single
    block (``union_operator.all_inputs_done``).  Once the buffered bytes
    exceed the streaming executor's memory budget, upstream operators are
    backpressured forever — measured at 1M synthetic pages: an 11 GB blob
    union sat at 0/431 blocks emitted for 15+ minutes with every worker
    idle.  Any union of corpus-scale payloads that later meets a sort in
    the same plan livelocks this way.

    Shape instead:

    1. each side is written hive-partitioned by ``__bkt = hash64(key) %
       n_buckets`` — two LINEAR map→write plans that stream at any size
       (the write IS the all-to-all exchange, M×B part files like any
       external shuffle, and doubles as a resume checkpoint);
    2. one task per bucket reads both sides' bucket directory and applies
       ``fn(left_df, right_df)`` (no ``__bkt`` column; hive prunes it).

    ``fn`` must be vectorized (pandas merge/groupby inside) and must
    return ``empty``-shaped output for empty inputs.  ``empty`` types the
    zero-bucket result.  ``require_both`` skips buckets present on only
    one side (correct whenever ``fn`` is inner-join-like).  Size
    ``n_buckets`` so bytes/bucket ≈ a worker-heap-friendly chunk (64 MB);
    equal keys → equal bucket, so skew is bounded by the hottest key, as
    with any hash exchange.  Spill dirs must be on shared storage for a
    multi-node cluster — the same assumption every spill_point makes."""
    import tempfile

    empty_l: pd.DataFrame | None = None
    empty_r: pd.DataFrame | None = None

    def _bucketed(ds: rd.Dataset, key: str) -> str:
        def add_bkt(df: pd.DataFrame) -> pd.DataFrame:
            out = df.copy()
            h = pd.util.hash_pandas_object(df[key].astype(str), index=False)
            out["__bkt"] = (h.to_numpy() % np.uint64(n_buckets)).astype("int64")
            return out

        d = tempfile.mkdtemp(prefix=f"borges_{tag}_")
        ds.map_batches(add_bkt, batch_format="pandas").write_parquet(
            d, partition_cols=["__bkt"])
        return d

    ldir = _bucketed(left, left_on)
    rdir = _bucketed(right, right_on)

    def _bkts(d: str) -> dict[int, str]:
        return {int(e.split("=", 1)[1]): os.path.join(d, e)
                for e in os.listdir(d) if e.startswith("__bkt=")}

    lb, rb = _bkts(ldir), _bkts(rdir)
    bkts = sorted(set(lb) & set(rb) if require_both else set(lb) | set(rb))
    if not bkts:
        # via Arrow: from_pandas drops the schema of a 0-row frame
        return rd.from_arrow(pa.Table.from_pandas(empty, preserve_index=False))

    # typed empties for one-sided buckets, from each side's written schema
    def _empty_of(by_bucket: dict[int, str]) -> pd.DataFrame:
        import pyarrow.parquet as pq

        d = next(iter(by_bucket.values()))
        f = next(p for p in sorted(os.listdir(d)) if p.endswith(".parquet"))
        return pq.ParquetFile(os.path.join(d, f)).schema_arrow.empty_table().to_pandas()

    if not require_both:
        empty_l = _empty_of(lb) if lb else None
        empty_r = _empty_of(rb) if rb else None

    def apply_bucket(df: pd.DataFrame) -> pd.DataFrame:
        import pyarrow.parquet as pq

        outs = []
        for b in df["__bucket"]:
            # a side that wrote NOTHING has no recoverable schema: fn gets a
            # column-less frame (only reachable with require_both=False)
            ldf = (pq.read_table(lb[b]).to_pandas() if b in lb else
                   empty_l if empty_l is not None else pd.DataFrame())
            rdf = (pq.read_table(rb[b]).to_pandas() if b in rb else
                   empty_r if empty_r is not None else pd.DataFrame())
            outs.append(fn(ldf, rdf))
        return pd.concat(outs, ignore_index=True) if outs else empty

    tasks = rd.from_pandas(pd.DataFrame({"__bucket": bkts}))
    return tasks.repartition(len(bkts)).map_batches(
        apply_bucket, batch_format="pandas", batch_size=None)


def filter_batches(ds: rd.Dataset, pred: Callable[[pa.Table], pa.ChunkedArray | pa.Array]) -> rd.Dataset:
    """Vectorized filter: ``pred`` computes a boolean mask per Arrow batch.
    (F1-F8 semantics; never per-row ``ds.filter(fn)`` in a hot path.)"""
    return ds.map_batches(lambda t: t.filter(pred(t)), batch_format="pyarrow")


def with_columns(ds: rd.Dataset, fn: Callable[[pa.Table], pa.Table]) -> rd.Dataset:
    """Arrow-in/Arrow-out projection / computed-column stage (M16/M19)."""
    return ds.map_batches(fn, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# Aggregation with map-side partial aggregation
# ---------------------------------------------------------------------------

_AGG_PANDAS = {"sum": "sum", "count": "count", "min": "min", "max": "max"}


def grouped_agg(
    ds: rd.Dataset,
    keys: list[str],
    aggs: dict[str, tuple[str, str]],
    *,
    preagg_batch_size: int = 65536,
) -> rd.Dataset:
    """``aggs`` maps output-column → (op, input-column); op in
    {sum, count, min, max, mean}.

    Two-phase: per-batch pandas groupby collapses each Arrow batch to ≤
    |distinct keys in batch| rows (the partial/combiner), then one shuffled
    ``groupby`` over the partials merges. ``mean`` is decomposed into
    sum+count partials and finalized after the merge, so it stays exact.
    This keeps the all-to-all exchange proportional to the number of
    groups, not the number of rows.
    """
    # decompose: build partial ops and the final merge ops
    partial_cols: dict[str, tuple[str, str]] = {}  # partial_name -> (op, src)
    finalize: list[tuple[str, str, str | None]] = []  # (out, kind, aux)
    for out, (op, src) in aggs.items():
        if op == "mean":
            partial_cols[f"__{out}_s"] = ("sum", src)
            partial_cols[f"__{out}_c"] = ("count", src)
            finalize.append((out, "mean", None))
        elif op == "count":
            partial_cols[f"__{out}_c"] = ("count", src)
            finalize.append((out, "count", None))
        else:
            partial_cols[f"__{out}_p"] = (op, src)
            finalize.append((out, op, None))

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(keys, sort=False, dropna=False)
        cols = {}
        for name, (op, src) in partial_cols.items():
            if op == "count":
                cols[name] = g[src].count() if src else g.size()
            else:
                cols[name] = getattr(g[src], _AGG_PANDAS[op])()
        return pd.DataFrame(cols).reset_index()

    partials = ds.map_batches(partial, batch_format="pandas", batch_size=preagg_batch_size)

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(keys, sort=False, dropna=False)
        cols = {}
        for name, (op, _src) in partial_cols.items():
            # counts merge by SUM; min/max/sum merge by themselves
            merge_op = "sum" if op in ("count", "sum") else op
            cols[name] = getattr(g[name], merge_op)()
        out = pd.DataFrame(cols).reset_index()
        for out_name, kind, _ in finalize:
            if kind == "mean":
                out[out_name] = out[f"__{out_name}_s"] / out[f"__{out_name}_c"]
            elif kind == "count":
                out[out_name] = out[f"__{out_name}_c"]
            else:
                out[out_name] = out[f"__{out_name}_p"]
        return out[keys + [o for o, _, _ in finalize]]

    # merge the (already small) partials: shuffle by a hash BUCKET of the
    # key, then one vectorized pandas groupby per bucket — one Python call
    # per bucket, not one per distinct key
    return groupby_buckets(partials, keys, merge)


N_KEY_BUCKETS = 32


def _add_key_bucket(df: pd.DataFrame, keys: list[str], n: int = N_KEY_BUCKETS) -> pd.DataFrame:
    # full 64-bit key hash, NOT hash % n: the sort that shuffles buckets
    # samples range boundaries from the key column, and a near-continuous
    # hash space avoids degenerate/empty range partitions (which Ray's sort
    # emits as untyped empty blocks).  Co-location only needs equal keys →
    # equal hash; ``fn`` regroups by the real keys inside the block, so a
    # hash collision merely shares a block, never merges keys.
    out = df.copy()
    if all(pd.api.types.is_integer_dtype(df[k]) for k in keys):
        # hot path: pure-integer keys hash with vectorized splitmix64 —
        # the astype(str) fallback materializes a Python string PER ROW
        # and dominated wide exchanges (e.g. 15M-row pair counts).
        # Bucket layout differs from the string hash, but co-location
        # only needs equal-key → equal-hash; results are invariant.
        h = np.zeros(len(df), dtype=np.uint64)
        GOLD = np.uint64(0x9E3779B97F4A7C15)
        for k in keys:
            v = df[k].to_numpy("int64").astype(np.uint64)
            h ^= v + GOLD + (h << np.uint64(6)) + (h >> np.uint64(2))
        z = h + GOLD
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        z ^= z >> np.uint64(31)
        out["__kb"] = z.view(np.int64)
        return out
    h = pd.util.hash_pandas_object(df[keys].astype(str), index=False)  # deterministic
    out["__kb"] = h.to_numpy().view("int64")
    return out


def groupby_buckets(ds: rd.Dataset, keys: list[str], fn: Callable[[pd.DataFrame], pd.DataFrame],
                    n_buckets: int = N_KEY_BUCKETS) -> rd.Dataset:
    """Hash-bucketed grouped map: co-locates each key's rows into one of
    ``n_buckets`` groups and applies a VECTORIZED ``fn`` per bucket.  ``fn``
    must itself handle multiple keys (pandas groupby inside).  This is the
    scale-safe alternative to ``groupby(key).map_groups`` when the number of
    distinct keys is large (millions of per-group Python calls).

    Implementation: ``sort("__kb")`` range-partitions the bucket ids so every
    bucket's rows land in one block (the same co-location guarantee Ray's
    ``map_groups`` relies on), then ONE whole-block ``fn`` call handles all
    buckets in the block.  This replaces the earlier ``groupby().map_groups``
    shape, whose generator yielded an UNTYPED empty block for empty sort
    partitions (the "RefBundle with a different schema … names=[]" warning);
    here empty blocks flow through ``fn`` and come back typed."""
    bucketed = ds.map_batches(lambda df: _add_key_bucket(df, keys, n_buckets),
                              batch_format="pandas")

    def apply_block(df: pd.DataFrame) -> pd.DataFrame:
        return fn(df.drop(columns="__kb"))

    return bucketed.sort("__kb").map_batches(apply_block, batch_size=None,
                                             batch_format="pandas")


# ---------------------------------------------------------------------------
# Top-k without a global sort
# ---------------------------------------------------------------------------

def topk(
    ds: rd.Dataset,
    sort_cols: list[str],
    k: int,
    *,
    descending: bool | list[bool] = True,
    tiebreak: list[str] | None = None,
) -> pd.DataFrame:
    """Global top-k: per-block partial top-k (map_batches keeps ≤k rows per
    block) then one driver-side final sort of ≤ k·num_blocks rows.  Always
    pass ``tiebreak`` columns for a deterministic result.  Returns pandas
    (top-k results are small by construction)."""
    if isinstance(descending, bool):
        descending = [descending] * len(sort_cols)
    order_cols = sort_cols + (tiebreak or [])
    ascending = [not d for d in descending] + [True] * len(tiebreak or [])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        return df.sort_values(order_cols, ascending=ascending, kind="mergesort").head(k)

    tops = ds.map_batches(partial, batch_format="pandas")
    final = tops.to_pandas()
    if not len(final) and not all(c in final.columns for c in order_cols):
        # to_pandas() on a fully-empty dataset returns a 0-COLUMN frame even
        # when the plan schema is intact; rebuild the typed empty frame from
        # the schema so callers get stable columns.
        schema = ds.schema(fetch_if_missing=True)
        if schema is not None:
            final = pd.DataFrame({
                n: pd.Series(dtype=t.to_pandas_dtype())
                for n, t in zip(schema.names, schema.types)})
    return (
        final.sort_values(order_cols, ascending=ascending, kind="mergesort")
        .head(k)
        .reset_index(drop=True)
    )


def distinct(ds: rd.Dataset, cols: list[str]) -> rd.Dataset:
    """Distinct rows of a column subset: per-block dedup first (combiner), so
    the shuffle only moves already-unique rows (A5/D1 census semantics)."""
    pre = ds.map_batches(
        lambda df: df[cols].drop_duplicates(), batch_format="pandas"
    )
    return groupby_buckets(pre, cols, lambda df: df.drop_duplicates())


def run_pair_indices(sizes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized within-run all-pairs spawn: for runs of the given sizes
    laid out consecutively in one array, return (first, second) GLOBAL
    index arrays of every in-run pair with first-position < second-position
    — the O(#pairs) vector replacement for the per-run Python loop +
    ``np.triu_indices`` shape shared by every bucket pair spawner (MinHash
    bands, Ed-Join grams, triangle wedges).  Runs of size < 2 contribute
    nothing.  Derivation: the element at local index ``l`` pairs as the
    SECOND element with each of the ``l`` elements before it, so its pair
    block starts at ``cumsum(l) − l`` and its firsts are the ``l``
    positions preceding it."""
    sizes = np.asarray(sizes, dtype=np.int64)
    n = int(sizes.sum())
    starts = np.cumsum(sizes) - sizes
    loc = np.arange(n, dtype=np.int64) - np.repeat(starts, sizes)
    total = int(loc.sum())
    if total == 0:
        z = np.empty(0, np.int64)
        return z, z
    pos = np.arange(n, dtype=np.int64)
    second = np.repeat(pos, loc)
    block_start = np.cumsum(loc) - loc
    within = np.arange(total, dtype=np.int64) - np.repeat(block_start, loc)
    first = np.repeat(pos - loc, loc) + within
    return first, second


# ---------------------------------------------------------------------------
# Joins
# ---------------------------------------------------------------------------

# Broadcast small-side guard.  Past these thresholds a "small" side is not
# small: the broadcast itself is still one ray.put, but every map task pins
# the whole table in its heap, and at 100× the dimension that's multi-GB per
# worker.  Over-limit lookups fall back to the distributed hash join (one
# bucketed shuffle, nothing pinned per task).  Read at call time, so tests
# move a site across the guard by patching these module attributes.
BROADCAST_MAX_ROWS = 5_000_000
BROADCAST_MAX_BYTES = 256 << 20


_BCAST_CACHE: "dict[str, object]" = {}


def cached_get(ref):
    """Per-worker memoized ``ray.get`` for broadcast side tables.  Plain
    numpy arrays come out of the object store zero-copy, but dicts and
    object arrays re-DESERIALIZE on every ``ray.get`` — for a
    near-guard-sized side table that cost repeats per batch.  Workers are
    reused across batches, so one module-level cache entry per ref
    amortizes it; a tiny LRU bounds worker memory to the last few
    broadcasts."""
    k = ref.hex()
    v = _BCAST_CACHE.get(k)
    if v is None:
        import ray as _ray

        if len(_BCAST_CACHE) >= 4:
            _BCAST_CACHE.pop(next(iter(_BCAST_CACHE)))
        v = _BCAST_CACHE[k] = _ray.get(ref)
    return v


def schema_anchor(ds: rd.Dataset, template: pd.DataFrame) -> rd.Dataset:
    """Union a ZERO-ROW typed block in front of ``ds`` so the plan keeps a
    schema even when every upstream block is empty.  A ``sort`` over zero
    rows emits a dataset with NO blocks (``schema() is None``), which
    breaks schema-dependent consumers like :func:`hash_join`; the anchor
    costs one empty block and pins the dtypes from ``template`` (only its
    columns/dtypes are used, rows are ignored)."""
    return rd.from_pandas(template.iloc[0:0]).union(ds)


def attach_or_filter(ds: rd.Dataset, small: rd.Dataset, key: str,
                     probes: dict[str, dict[str, str]],
                     how: str) -> rd.Dataset:
    """Look up each probe column of ``ds`` in the lookup table ``small``
    (``key`` unique) — the one size-guarded broadcast-or-shuffle decision.

    ``probes`` maps a probe column of ``ds`` to ``{small column: output
    column}``.  ``how="inner"`` attaches the mapped columns and keeps the
    rows where EVERY probe hits; ``"semi"`` keeps the same rows and
    attaches nothing; ``"anti"`` keeps the rows where NO probe hits (for
    those two, map each probe to ``{}``).

    The small side runs once: a Parquet read keeps its metadata-only
    count, anything else is materialized before the count.  Within
    ``BROADCAST_MAX_ROWS`` rows and ``BROADCAST_MAX_BYTES`` (the
    materialized size estimate) it is pulled once and ``ray.put`` once
    with a hash index on ``key``; each worker deserializes that payload —
    index engine included — once through :func:`cached_get`, and every
    batch probes it with ``Index.get_indexer`` (any key dtype; on a
    1-core x86 host ~8× faster than ``np.searchsorted`` on int64 keys and
    ~25× on strings).  A repeated key raises there.  Past either guard it is one
    :func:`hash_join` (inner) or :func:`hash_semi_join` (semi/anti) per
    probe column, with the small side's columns renamed to the probe's
    names (a repeated key is not checked on this path: that would cost a
    shuffle of the small side).

    The output keeps a typed schema when either side is empty.  A map
    over a ``ds`` with no rows emits no block at all, so unless ``ds``'s
    metadata counts rows (a Parquet read or spill that is not empty) the
    output gets a :func:`schema_anchor` built from ``ds.schema()`` — which
    runs a lazy ``ds`` to its first block, so pass a spilled ``ds`` when
    its plan holds a shuffle.  The anchor is not added otherwise: its
    union stops Ray from fusing the probe with the maps around it
    (~1 s on sf0.1's 150k-row ``join_broadcast``, 1-core x86 host)."""
    if how not in ("inner", "semi", "anti"):
        raise ValueError(f"attach_or_filter: how={how!r}")
    anchor = not ds._meta_count()
    if anchor and ds.schema() is None:
        return ds  # no blocks and no schema: nothing to probe or type
    if small._meta_count() is None:
        small = small.materialize()
    n_rows = small.count()
    n_bytes = (small.size_bytes() or 0) if n_rows <= BROADCAST_MAX_ROWS else None
    cols = list(dict.fromkeys(c for m in probes.values() for c in m))
    sschema = small.schema()
    # an empty small side may have no blocks and so no schema: untyped
    sframe = (_empty_frame(sschema) if sschema is not None
              else pd.DataFrame({c: pd.Series(dtype=object)
                                 for c in [key, *cols]}))

    def typed(out: rd.Dataset) -> rd.Dataset:
        if not anchor:
            return out
        return schema_anchor(out, _empty_frame(ds.schema()).assign(**{
            dst: sframe[src] for m in probes.values() for src, dst in m.items()}))

    if n_bytes is None or n_bytes > BROADCAST_MAX_BYTES:
        import logging
        logging.getLogger(__name__).warning(
            "lookup side is %d rows / ~%s MiB (limits %d rows / %.0f MiB) "
            "— falling back to the distributed hash join", n_rows,
            "?" if n_bytes is None else f"{n_bytes / 2**20:.0f}",
            BROADCAST_MAX_ROWS, BROADCAST_MAX_BYTES / 2**20)
        out = ds
        for p, m in probes.items():
            def rename(t: pa.Table, p=p, m=m) -> pa.Table:
                return t.select([key, *m]).rename_columns([p, *m.values()])

            side = small.map_batches(rename, batch_format="pyarrow")
            out = (hash_join(out, side, on=[p]) if how == "inner"
                   else hash_semi_join(out, side, on=[p], anti=how == "anti"))
        return typed(out)

    refs = small.to_arrow_refs()
    tbl = (pa.concat_tables(ray.get(refs), promote_options="default") if refs
           else pa.Table.from_pandas(sframe, preserve_index=False))
    tbl = tbl.select([key, *cols])
    index = pd.Index(tbl.column(key).to_numpy())
    if not index.is_unique:
        raise ValueError(f"attach_or_filter: lookup key {key!r} repeats")
    ref = ray.put((index, tbl))

    def probe(batch: pa.Table) -> pa.Table:
        idx, side = cached_get(ref)
        hits = [idx.get_indexer(batch.column(p).to_numpy()) for p in probes]
        keep = (~np.logical_or.reduce([q >= 0 for q in hits]) if how == "anti"
                else np.logical_and.reduce([q >= 0 for q in hits]))
        out = batch.filter(pa.array(keep))
        for q, m in zip(hits, probes.values()):
            for src, dst in m.items():
                out = out.append_column(dst, side.column(src).take(q[keep]))
        return out

    return typed(ds.map_batches(probe, batch_format="pyarrow"))


def _empty_frame(schema) -> pd.DataFrame:
    """Zero-row frame typed like a Ray/Arrow schema (non-Arrow types such
    as pandas-block strings come back as ``object``)."""
    return pd.DataFrame({
        n: pd.Series(dtype=t.to_pandas_dtype() if isinstance(t, pa.DataType)
                     else object)
        for n, t in zip(schema.names, schema.types)})


def _pd_dtype(arrow_type) -> str:
    """Arrow type → pandas dtype usable as an all-NA filler that still
    unions consistently with the real column (ints/bools go NULLABLE so NA
    never forces a lossy cast)."""
    t = str(arrow_type)
    if t.startswith("int") or t.startswith("uint"):
        return t.capitalize() if t.startswith("int") else "UInt" + t[4:]
    if t.startswith("float") or t.startswith("double"):
        return "float64"
    if t.startswith("timestamp"):
        return "datetime64[us]"
    if t == "bool":
        return "boolean"
    return "object"


def _na_of(dtype: str):
    return (None if dtype == "object"
            else pd.NaT if dtype.startswith("datetime")
            else float("nan") if dtype == "float64" else pd.NA)


def _dearrow(df: pd.DataFrame) -> pd.DataFrame:
    """pandas extension dtypes (Int64/boolean) don't round-trip to Arrow in
    Ray blocks: downcast — no-NA columns back to native, NA-carrying ones to
    float64/object (vanilla pandas merge semantics)."""
    for c in df.columns:
        name = str(df[c].dtype)
        if name.startswith(("Int", "UInt")):
            df[c] = (df[c].astype(name.lower()) if not df[c].isna().any()
                     else df[c].astype("float64"))
        elif name == "boolean":
            df[c] = (df[c].astype(bool) if not df[c].isna().any()
                     else df[c].astype(object))
    return df


def hash_semi_join(
    left: rd.Dataset,
    right: rd.Dataset,
    on: list[str],
    *,
    anti: bool = False,
) -> rd.Dataset:
    """Distributed semi/anti equi-join: the build side is reduced to
    per-batch DISTINCT KEYS before the shuffle (combiner), both sides
    co-locate via one bucketed shuffle on the key hash, and membership is a
    vectorized merge per block.  This replaces the r01 pattern of reading a
    fact table's keys driver-side and broadcasting them — the driver never
    sees either table, and the shuffle moves only key columns for the build
    side (J2 at 100 TB: keys-only exchange).

    For a SMALL build side use :func:`attach_or_filter` (no shuffle at all
    under the broadcast guard).

    Scale note: the tagged two-side union below meets the bucketed sort in
    one plan, so Ray runs it preserve-order and the UnionOperator buffers
    its whole input before emitting (see :func:`cogroup_spill` for the
    measured livelock).  Safe here because both union legs are KEYS-ONLY
    or key-plus-left-row streams whose bytes stay far under the cluster's
    aggregate execution budget; never route corpus-payload columns
    (text/html/blob) through this — use :func:`cogroup_spill`."""
    keys = right.map_batches(lambda df: df[on].drop_duplicates(),
                             batch_format="pandas")
    lschema = left.schema()
    lcols = list(lschema.names)
    extra = [c for c in lcols if c not in on]
    fill = {c: _pd_dtype(t) for c, t in zip(lschema.names, lschema.types)}
    nullable = {c for c in extra
                if fill[c].startswith(("Int", "UInt")) or fill[c] == "boolean"}

    def tag_left(df: pd.DataFrame) -> pd.DataFrame:
        out = df.copy()
        out["__side"] = 0
        for c in nullable:
            out[c] = out[c].astype(fill[c])
        return out[lcols + ["__side"]]

    def tag_keys(df: pd.DataFrame) -> pd.DataFrame:
        out = df.copy()
        out["__side"] = 1
        for c in extra:
            out[c] = pd.Series(_na_of(fill[c]), index=out.index, dtype=fill[c])
        return out[lcols + ["__side"]]

    both = left.map_batches(tag_left, batch_format="pandas").union(
        keys.map_batches(tag_keys, batch_format="pandas"))

    def member(df: pd.DataFrame) -> pd.DataFrame:
        l = df[df["__side"] == 0][lcols]
        k = df[df["__side"] == 1][on].drop_duplicates()
        hit = l.merge(k.assign(__hit=1), on=on, how="left")["__hit"].notna()
        hit.index = l.index
        return _dearrow((l[~hit] if anti else l[hit]).copy())

    return groupby_buckets(both, on, member)


def hash_join(
    left: rd.Dataset,
    right: rd.Dataset,
    on: list[str],
    *,
    join_type: str = "inner",
    num_partitions: int = 16,
    native: bool = False,
    hot_key_threshold: int | None = None,
    salt_buckets: int = 8,
    hot: pd.DataFrame | None = None,
) -> rd.Dataset:
    """Large×large equi-join, hash-partitioned on the key.

    Default is the explicit bucketed cogroup join: tag each side, align
    schemas, ONE shuffle on the full 64-bit key hash co-locating both
    sides' matching rows, then a vectorized pandas merge per block.  The
    shuffle is a range partition over the hash space, so the number of
    merge partitions SCALES WITH INPUT SIZE automatically (Ray's sort
    splits to its target block size) — no fixed bucket count to OOM a
    single merge task at scale (``num_partitions`` is kept for API
    compatibility but is advisory only).  Equivalent shuffle volume to
    Ray's native ``Dataset.join`` but with plain shuffle tasks instead of a
    separate aggregator-actor pool (whose startup dominates at interactive
    scales).  ``native=True`` delegates to ``Dataset.join`` (useful to
    cross-check).

    Skew: pass ``hot_key_threshold`` to salt hot keys.  Keys whose LEFT-side
    row count exceeds the threshold (found by a keys-only combiner count —
    an extra pass that moves only ``(key, n)`` pairs, or pass a precomputed
    ``hot`` frame to skip it) are spread across ``salt_buckets`` salt values
    on the left and REPLICATED once per salt on the right, so no single
    merge task ever holds more than ~threshold + right-side rows of one key.
    Put the skewed side on the LEFT.  Supported for ``inner`` and
    ``left_outer`` (an unmatched left row occupies exactly one salt;
    replicated right rows can never surface unmatched).  ``right_outer`` /
    ``full_outer`` with salting raise — replicated right rows would emit one
    null-padded duplicate per salt.

    Scale note: the two-side tagged union meets the cogroup sort in one
    plan, so Ray runs it preserve-order and the UnionOperator buffers its
    whole input before emitting (see :func:`cogroup_spill` for the
    measured livelock).  Fine for the relational tables this joins; for
    corpus-payload inputs (text/html/blob columns) at the 100 TB design
    point, project the payload out, join keys, and re-attach via
    :func:`cogroup_spill` — or cogroup directly."""
    if native:
        return left.join(right, join_type=join_type, num_partitions=num_partitions,
                         on=tuple(on))

    lschema, rschema = left.schema(), right.schema()
    lcols = list(lschema.names)
    rcols = list(rschema.names)
    r_only = [c for c in rcols if c not in lcols]
    l_only = [c for c in lcols if c not in rcols]

    # dtype-consistent fillers: the two tagged sides must union to ONE
    # schema (an all-None object filler next to a float64 real column made
    # Ray flag block-schema mismatches).  Integers use pandas' nullable
    # Int64 so filler NA never forces a lossy int→float cast.
    fill_dtype = {}
    for c, t in zip(lschema.names, lschema.types):
        fill_dtype[c] = _pd_dtype(t)
    for c, t in zip(rschema.names, rschema.types):
        fill_dtype.setdefault(c, _pd_dtype(t))
    nullable_int = {c for c, d in fill_dtype.items()
                    if (c in r_only or c in l_only)
                    and (d.startswith(("Int", "UInt")) or d == "boolean")}

    def _tag(df: pd.DataFrame, side: int, missing: list[str]) -> pd.DataFrame:
        out = df.copy()
        out["__side"] = side
        for c in missing:
            d = fill_dtype[c]
            out[c] = pd.Series(_na_of(d), index=out.index, dtype=d)
        for c in nullable_int & set(df.columns):
            out[c] = out[c].astype(fill_dtype[c])
        return out

    def tag_left(df: pd.DataFrame) -> pd.DataFrame:
        return _tag(df, 0, r_only)

    def tag_right(df: pd.DataFrame) -> pd.DataFrame:
        return _tag(df, 1, l_only)

    hot_ref = None
    if hot_key_threshold is not None:
        if join_type not in ("inner", "left_outer"):
            raise ValueError(
                f"salted hash_join supports inner/left_outer, not {join_type}")
        if hot is None:
            hot = hot_keys(left, on, hot_key_threshold)
        if len(hot):
            hot_ref = ray.put(
                set(hot[on].itertuples(index=False, name=None)))

    def add_salt_left(out: pd.DataFrame) -> pd.DataFrame:
        mask = np.asarray(pd.MultiIndex.from_frame(out[on]).isin(ray.get(hot_ref)))
        salt = np.zeros(len(out), dtype=np.int64)
        salt[np.nonzero(mask)[0]] = np.arange(int(mask.sum())) % salt_buckets
        out["__salt"] = salt
        return out

    def add_salt_right(out: pd.DataFrame) -> pd.DataFrame:
        mask = np.asarray(pd.MultiIndex.from_frame(out[on]).isin(ray.get(hot_ref)))
        cold = out[~mask].copy()
        cold["__salt"] = np.int64(0)
        if not mask.any():
            return cold
        hotdf = out[mask]
        reps = [hotdf.assign(__salt=np.int64(s)) for s in range(salt_buckets)]
        return pd.concat([cold, *reps], ignore_index=True)

    salt_cols = ["__salt"] if hot_ref is not None else []
    all_cols = lcols + r_only + ["__side"] + salt_cols

    def prep_left(df: pd.DataFrame) -> pd.DataFrame:
        out = tag_left(df)
        return (add_salt_left(out) if hot_ref is not None else out)[all_cols]

    def prep_right(df: pd.DataFrame) -> pd.DataFrame:
        out = tag_right(df)
        return (add_salt_right(out) if hot_ref is not None else out)[all_cols]

    both = left.map_batches(prep_left, batch_format="pandas").union(
        right.map_batches(prep_right, batch_format="pandas")
    )

    how = {"inner": "inner", "left_outer": "left", "right_outer": "right",
           "full_outer": "outer"}.get(join_type, join_type)

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        l = df[df["__side"] == 0][lcols + salt_cols]
        r = df[df["__side"] == 1][rcols + salt_cols]
        out = l.merge(r, on=on + salt_cols, how=how)
        if salt_cols:
            out = out.drop(columns=salt_cols)
        return _dearrow(out)

    return groupby_buckets(both, on + salt_cols, merge, n_buckets=num_partitions)


def asof_join(
    left: rd.Dataset,
    right: rd.Dataset,
    key: str,
    left_ts: str,
    right_ts: str,
    *,
    direction: str = "backward",
    how: str = "inner",
) -> rd.Dataset:
    """Two-table as-of join (§2.10): each left row picks the right row with
    the greatest ``right_ts`` ≤ its ``left_ts`` (direction="backward"; also
    "forward"/"nearest"), matching DuckDB's ``ASOF JOIN``.  ONE bucketed
    shuffle co-locates each key's rows from both sides, then a vectorized
    ``pandas.merge_asof`` per block.  Right-side column names (other than
    ``key``) must not collide with left's.  For well-defined results,
    de-duplicate the right side per (key, right_ts) upstream — with
    duplicates, "the" as-of row is undefined in SQL too.  ``how="left"``
    keeps unmatched left rows (right columns null, ints as nullable Int64);
    ``how="inner"`` drops them."""
    lschema, rschema = left.schema(), right.schema()
    lcols = list(lschema.names)
    rcols = list(rschema.names)
    rvals = [c for c in rcols if c != key]
    clash = set(lcols) & set(rvals)
    if clash:
        raise ValueError(f"right-side columns collide with left: {sorted(clash)}")

    fill_dtype = {c: _pd_dtype(t) for c, t in
                  list(zip(lschema.names, lschema.types)) +
                  list(zip(rschema.names, rschema.types))}

    def tag(df: pd.DataFrame, side: int, missing: list[str]) -> pd.DataFrame:
        out = df.copy()
        out["__side"] = side
        for c in missing:
            d = fill_dtype[c]
            out[c] = pd.Series(_na_of(d), index=out.index, dtype=d)
        return out[lcols + rvals + ["__side"]]

    both = left.map_batches(lambda df: tag(df, 0, rvals),
                            batch_format="pandas").union(
        right.map_batches(lambda df: tag(df, 1, [c for c in lcols if c != key]),
                          batch_format="pandas"))

    int_rvals = [c for c in rvals
                 if fill_dtype[c].startswith(("Int", "UInt", "int", "uint"))]

    def per_block(df: pd.DataFrame) -> pd.DataFrame:
        l = df[df["__side"] == 0][lcols].sort_values(left_ts, kind="mergesort")
        r = (df[df["__side"] == 1][[key] + rvals]
             .sort_values([right_ts] + [c for c in rvals if c != right_ts],
                          kind="mergesort"))
        if r.empty:
            out = l.copy()
            for c in rvals:
                d = fill_dtype[c]
                d = "Int64" if d.startswith(("int", "uint", "Int", "UInt")) else d
                out[c] = pd.Series(_na_of(d), index=out.index, dtype=d)
        else:
            out = pd.merge_asof(l, r, left_on=left_ts, right_on=right_ts,
                                by=key, direction=direction)
            for c in int_rvals:
                out[c] = out[c].astype("Int64")
        if how == "inner":
            out = out[out[right_ts].notna()]
            for c in int_rvals:
                out[c] = out[c].astype("int64")
        return _dearrow(out.reset_index(drop=True))

    return groupby_buckets(both, [key], per_block)


def topk_per_group(
    ds: rd.Dataset,
    key: str,
    order_cols: list[str],
    k: int,
    *,
    descending: bool | list[bool] = True,
) -> rd.Dataset:
    """Top-k rows PER KEY (the ``row_number() OVER (PARTITION BY ...) <= k``
    shape): per-block partial top-k per key first (a combiner — at most
    k·keys rows leave each block), then the bucketed shuffle and a final
    per-key top-k.  Pass a deterministic full ordering in ``order_cols``."""
    if isinstance(descending, bool):
        descending = [descending] * len(order_cols)
    ascending = [not d for d in descending]

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        return (df.sort_values(order_cols, ascending=ascending,
                               kind="mergesort")
                .groupby(key, sort=False).head(k))

    return groupby_buckets(ds.map_batches(partial, batch_format="pandas"),
                           [key], partial)


def grouped_quantile(
    ds: rd.Dataset,
    key: str,
    value_col: str,
    qs: list[float],
) -> rd.Dataset:
    """Exact per-group DISCRETE quantiles: one bucketed shuffle on the key,
    then a single vectorized numpy pass per block (sort by (key, value),
    group offsets via boundary diff, quantile = ``sorted[ceil(q·n)−1]`` —
    DuckDB's ``quantile_disc`` rule, an exact element with no float
    interpolation, so results hash identically across engines).  Null
    values are dropped first.  Exact quantiles are not map-side
    decomposable, so the value column does shuffle — at the 10^10 design
    point switch to a sketch (t-digest) if the exchange dominates."""

    def per_block(df: pd.DataFrame) -> pd.DataFrame:
        qcols = [f"q{int(q * 100)}" for q in qs]
        df = df[[key, value_col]].dropna(subset=[value_col])
        if df.empty:
            return pd.DataFrame({key: df[key],
                                 **{c: pd.Series(dtype="float64")
                                    for c in qcols}})
        s = df.sort_values([key, value_col], kind="mergesort")
        vals = s[value_col].to_numpy()
        keys_arr = s[key].to_numpy()
        starts = np.nonzero(np.r_[True, keys_arr[1:] != keys_arr[:-1]])[0]
        sizes = np.diff(np.r_[starts, len(keys_arr)])
        out = {key: keys_arr[starts]}
        for q, c in zip(qs, qcols):
            idx = starts + np.maximum(
                0, np.ceil(q * sizes).astype(np.int64) - 1)
            out[c] = vals[idx]
        return pd.DataFrame(out)

    return groupby_buckets(ds, [key], per_block)


def hist_quantile(
    ds: rd.Dataset,
    key: str,
    value_col: str,
    qs: list[float],
    *,
    lo: float,
    hi: float,
    n_bins: int = 128,
) -> rd.Dataset:
    """Approximate per-group quantiles via a MERGEABLE fixed-bin histogram
    sketch — the scale path :func:`grouped_quantile` points to: only
    ``(key, bin)`` COUNTS ever shuffle (≤ keys × n_bins rows regardless of
    input size), never the value column.

    Deterministic rule (SQL-twinnable): ``bin = clip(floor((v - lo) /
    (hi - lo) * n_bins), 0, n_bins - 1)``; the q-quantile estimate is the
    UPPER EDGE of the smallest bin whose cumulative count reaches
    ``ceil(q·n)``.  Error is bounded by one bin width; the answer depends
    only on (lo, hi, n_bins), not on partitioning or merge order."""
    step = (hi - lo) / n_bins

    def binify(df: pd.DataFrame) -> pd.DataFrame:
        v = df[value_col].to_numpy(dtype=np.float64)
        b = np.clip(np.floor((v - lo) / (hi - lo) * n_bins), 0, n_bins - 1)
        return pd.DataFrame({key: df[key], "__bin": b.astype("int64")})

    counts = grouped_agg(ds.map_batches(binify, batch_format="pandas"),
                         [key, "__bin"], {"n": ("count", "__bin")})

    qcols = [f"q{int(q * 100)}" for q in qs]

    def finalize(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return pd.DataFrame({key: df[key],
                                 **{c: pd.Series(dtype="float64") for c in qcols}})
        df = df.sort_values([key, "__bin"], kind="mergesort")
        out_rows = {key: [], **{c: [] for c in qcols}}
        for k, g in df.groupby(key, sort=False):
            cum = g["n"].cumsum().to_numpy()
            total = cum[-1]
            bins = g["__bin"].to_numpy()
            out_rows[key].append(k)
            for q, c in zip(qs, qcols):
                need = int(np.ceil(q * total)) if q > 0 else 1
                idx = int(np.searchsorted(cum, need))
                out_rows[c].append(round(lo + (bins[idx] + 1) * step, 6))
        return pd.DataFrame(out_rows)

    # counts are ≤ keys × n_bins rows — one bucketed pass finishes
    return groupby_buckets(counts, [key], finalize)


def pivot_counts(ds: rd.Dataset, index: str, columns: str,
                 col_values: list[str]) -> rd.Dataset:
    """Crosstab reshape: one row per ``index`` value, one ``n_<v>`` count
    column per value in ``col_values`` (the explicit closed column set
    makes the output schema static — mandatory for a distributed pivot;
    discover the set with ``distinct`` first if unknown).  Counts arrive
    via the keys-only :func:`grouped_agg` combiner; the reshape itself is
    one bucketed pass over ≤ |index| × |columns| tiny rows."""
    counts = grouped_agg(ds.select_columns([index, columns]),
                         [index, columns], {"n": ("count", columns)})

    out_cols = [f"n_{v}" for v in col_values]

    def widen(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return pd.DataFrame({index: df[index],
                                 **{c: pd.Series(dtype="int64") for c in out_cols}})
        w = (df.pivot_table(index=index, columns=columns, values="n",
                            aggfunc="sum", fill_value=0)
             .reindex(columns=col_values, fill_value=0))
        w.columns = [f"n_{v}" for v in w.columns]
        return w.reset_index()[[index] + out_cols].astype(
            {c: "int64" for c in out_cols})

    return groupby_buckets(counts, [index], widen)


def melt(ds: rd.Dataset, id_cols: list[str], value_cols: list[str],
         var_name: str = "variable", value_name: str = "value") -> rd.Dataset:
    """Unpivot (wide → long): one output row per (row, value column) —
    the inverse reshape of :func:`pivot_counts`.  Pure per-batch
    ``pd.melt``; no shuffle."""

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        return pd.melt(df, id_vars=id_cols, value_vars=value_cols,
                       var_name=var_name, value_name=value_name)

    return ds.map_batches(fn, batch_format="pandas")


def hot_keys(ds: rd.Dataset, on: list[str], threshold: int) -> pd.DataFrame:
    """Keys whose total row count exceeds ``threshold`` — the skew-detection
    pass for salted joins.  Per-block ``value_counts`` combiner first, so
    the shuffle moves only already-reduced ``(key, n)`` pairs; the result is
    tiny by definition (≤ total_rows / threshold keys)."""

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby(on, dropna=False, observed=True).size().rename(
            "__n").reset_index()

    def final(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(on, dropna=False, observed=True)["__n"].sum().reset_index()
        return g[g["__n"] > threshold]

    counts = ds.map_batches(partial, batch_format="pandas")
    out = groupby_buckets(counts, on, final).to_pandas()
    return out.reset_index(drop=True)


# ---------------------------------------------------------------------------
# Explode / flat-map (J6) and windowed aggregation (§2.10)
# ---------------------------------------------------------------------------

def explode(ds: rd.Dataset, list_col: str, out_col: str, keep: list[str]) -> rd.Dataset:
    """Explode a ``list<...>`` column to one row per element — vectorized via
    pandas ``explode`` per batch (the reference's issue→papers fan-out,
    ``Borges/spiders/ECS/build_paper_col.py:27-33``)."""

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        out = df[keep + [list_col]].explode(list_col, ignore_index=True)
        out = out.rename(columns={list_col: out_col})
        return out.dropna(subset=[out_col])

    return ds.map_batches(fn, batch_format="pandas")


def windowed_agg(
    ds: rd.Dataset,
    key: str,
    ts_col: str,
    window_us: int,
    aggs: dict[str, tuple[str, str]],
) -> rd.Dataset:
    """Tumbling event-time window aggregate: assign ``window_start`` per
    batch (vectorized), then :func:`grouped_agg` on (key, window_start).
    Ray Data has no native watermarks; this is the batch re-expression
    (ray_guide: streaming-shaped workloads)."""

    def assign(t: pa.Table) -> pa.Table:
        ts = pc.cast(t[ts_col], pa.int64())
        start = pc.multiply(pc.divide(ts, window_us), window_us)
        return t.append_column("window_start", pc.cast(start, pa.timestamp("us")))

    return grouped_agg(ds.map_batches(assign, batch_format="pyarrow"), [key, "window_start"], aggs)


def sliding_window_agg(
    ds: rd.Dataset,
    key: str,
    ts_col: str,
    window_us: int,
    hop_us: int,
    aggs: dict[str, tuple[str, str]],
) -> rd.Dataset:
    """Sliding (hopping) event-time windows: length ``window_us``, hop
    ``hop_us`` (must divide the length).  Each event is replicated into the
    exactly ``window_us/hop_us`` windows covering it — for start
    ``s = (ts//hop - i)*hop``, ``ts - s = ts%hop + i*hop < window`` holds
    for every ``i < window/hop``, so the fan-out is uniform and bounded,
    known before execution (no data-dependent blow-up).  Replication is
    vectorized per batch, then :func:`grouped_agg` on (key, window_start).
    ``window_start`` is emitted as int64 epoch-microseconds (exact across
    engines; timestamp stringification differs between ns/us backends)."""
    if window_us % hop_us:
        raise ValueError("hop_us must divide window_us")
    k = window_us // hop_us

    def assign(df: pd.DataFrame) -> pd.DataFrame:
        ts = df[ts_col].astype("int64").to_numpy()
        base = (ts // hop_us) * hop_us
        parts = []
        for i in range(k):
            p = df.copy()
            p["window_start"] = base - i * hop_us
            parts.append(p)
        return pd.concat(parts, ignore_index=True)

    return grouped_agg(ds.map_batches(assign, batch_format="pandas"),
                       [key, "window_start"], aggs)


def running_agg(
    ds: rd.Dataset,
    key: str,
    ts_col: str,
    cum: dict[str, tuple[str, str]],
    tiebreak: list[str] | None = None,
) -> rd.Dataset:
    """Per-key RUNNING aggregates in event order — the SQL window-function
    analogue (``... OVER (PARTITION BY key ORDER BY ts ROWS UNBOUNDED
    PRECEDING)``).  ``cum`` maps out_name → (op, col) with op one of
    ``row_number | cumsum | cummax | cummin | cumcount | rank |
    dense_rank`` (the rank pair follows SQL tie semantics over the
    ordered column).  One bucketed
    shuffle co-locates each key, then a single vectorized pandas pass per
    block (sort + groupby-cumulative).  Partitioning assumption as
    :func:`sessionize`: one key's events fit in one group block (§2.10);
    always pass ``tiebreak`` for a deterministic order."""

    def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values([key, ts_col] + (tiebreak or []),
                            kind="mergesort").copy()
        g = df.groupby(key, sort=False)
        for name, (op, col) in cum.items():
            if op == "row_number":
                df[name] = (g.cumcount() + 1).astype("int64")
            elif op == "cumcount":
                df[name] = g.cumcount().astype("int64")
            elif op == "rank":          # SQL RANK(): ties share the min rank
                df[name] = g[col].rank(method="min").astype("int64")
            elif op == "dense_rank":    # SQL DENSE_RANK(): no rank gaps
                df[name] = g[col].rank(method="dense").astype("int64")
            else:
                df[name] = getattr(g[col], op)()
        return df

    return groupby_buckets(ds, [key], per_bucket)


def sessionize(
    ds: rd.Dataset,
    key: str,
    ts_col: str,
    gap_us: int,
) -> rd.Dataset:
    """Session windows per key with inactivity gap: groupby(key) →
    per-group sorted pandas scan (``map_groups``).  Partitioning assumption:
    one key's events fit in one group block (documented §2.10)."""

    def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        # fully vectorized sessionization across all keys in the bucket:
        # sort by (key, ts); a session break is a key change or a gap
        df = df.sort_values([key, ts_col], kind="mergesort")
        ts = df[ts_col].astype("int64")
        key_change = df[key] != df[key].shift(1)
        gap = ts.diff() > gap_us
        sid = (key_change | gap).cumsum()
        out = df.assign(__sid=sid).groupby([key, "__sid"], sort=False).agg(
            session_start=(ts_col, "min"), session_end=(ts_col, "max"), n_events=(ts_col, "count")
        ).reset_index().drop(columns="__sid")
        return out[[key, "session_start", "session_end", "n_events"]]

    return groupby_buckets(ds, [key], per_bucket)


def asof_self_lag(ds: rd.Dataset, key: str, ts_col: str, value_cols: list[str], out_prefix: str = "prev_") -> rd.Dataset:
    """Per-key ordered lag (the as-of-join primitive): groupby(key), sort by
    (ts, value_cols) within the group, shift by one.  Deterministic tie order
    via the full sort key."""

    def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values([key, ts_col] + value_cols, kind="mergesort")
        df = df.copy()
        df[out_prefix + ts_col] = df.groupby(key, sort=False)[ts_col].shift(1)
        return df

    return groupby_buckets(ds, [key], per_bucket)


def union_all(datasets: Iterable[rd.Dataset]) -> rd.Dataset:
    """Union of record streams (D4 — Scopus ∪ SciDir writing one sink)."""
    ds_list = list(datasets)
    out = ds_list[0]
    for d in ds_list[1:]:
        out = out.union(d)
    return out


def interval_join_agg(
    left: rd.Dataset,
    right: rd.Dataset,
    on: str,
    *,
    left_id: str,
    left_ts: str,
    right_ts: str,
    lo,
    hi,
    value_col: str | None = None,
    n_buckets: int = 32,
) -> rd.Dataset:
    """Range (interval) join with aggregation: for every left row, count
    — and optionally sum ``value_col`` over — the right rows sharing its
    ``on`` key whose timestamp falls in ``[left_ts + lo, left_ts + hi)``
    (``lo``/``hi`` are signed timedeltas; an attribution window like
    "clicks in the 30 minutes before each purchase" is ``lo=-30min,
    hi=0``).  Left-outer semantics: a left row with no right rows in
    window comes back with ``n_right = 0`` / ``sum_val = 0.0``.

    Scale shape: both sides co-locate by key through the disk-bucketed
    :func:`cogroup_spill` (streaming hash exchange, no union+sort).  The
    per-bucket kernel NEVER builds the key-cartesian product: the right
    side is sorted by time once, per-key cumulative count / value prefix
    sums are taken, and each window aggregate is the difference of two
    vectorized ``merge_asof`` rank lookups — O((|L|+|R|) log |R|) per
    bucket regardless of key skew, so a hot key costs its sort, not its
    square.

    Returns ``(left_id, on, n_right int64, sum_val float64)``.
    """
    lo = pd.Timedelta(lo)
    hi = pd.Timedelta(hi)

    empty = pd.DataFrame({left_id: pd.Series(dtype="int64"),
                          on: pd.Series(dtype="int64"),
                          "n_right": pd.Series(dtype="int64"),
                          "sum_val": pd.Series(dtype="float64")})

    def fn(ldf: pd.DataFrame, rdf: pd.DataFrame) -> pd.DataFrame:
        if not len(ldf):
            return empty
        out = ldf[[left_id, on]].copy()
        if not len(rdf) or on not in rdf.columns:
            out["n_right"] = np.int64(0)
            out["sum_val"] = 0.0
            return out
        r = rdf.sort_values(right_ts, kind="mergesort").reset_index(drop=True)
        # normalize resolution: parquet us-timestamps vs the ns Timedelta
        # arithmetic below must agree for merge_asof's key check
        r[right_ts] = r[right_ts].astype("datetime64[ns]")
        g = r.groupby(on, sort=False)
        r["__cnt"] = (g.cumcount() + 1).astype("int64")
        r["__val"] = (g[value_col].cumsum().astype("float64")
                      if value_col is not None else 0.0)
        l = ldf[[left_id, on, left_ts]].copy()
        l[left_ts] = l[left_ts].astype("datetime64[ns]")
        l["__lo"] = l[left_ts] + lo
        l["__hi"] = l[left_ts] + hi

        def rank_at(col: str) -> pd.DataFrame:
            q = l.sort_values(col, kind="mergesort")
            m = pd.merge_asof(q, r[[on, right_ts, "__cnt", "__val"]],
                              left_on=col, right_on=right_ts, by=on,
                              allow_exact_matches=False)
            m.index = q.index
            return m[["__cnt", "__val"]].fillna(0.0)

        at_hi = rank_at("__hi").reindex(l.index)
        at_lo = rank_at("__lo").reindex(l.index)
        out["n_right"] = (at_hi["__cnt"] - at_lo["__cnt"]).astype("int64")
        out["sum_val"] = (at_hi["__val"] - at_lo["__val"]).astype("float64")
        return out

    return cogroup_spill(left, right, on, on, fn, empty=empty,
                         tag="ivj", n_buckets=n_buckets, require_both=False)


def top_frac_per_group(ds: rd.Dataset, keys: list[str], score_col: str,
                       tiebreak_col: str, num: int, den: int) -> rd.Dataset:
    """Per-group top-fraction pruning — the C4/FineWeb "keep the best X%
    of each source" stage: within every ``keys`` group, keep the
    ``ceil(num/den · group_size)`` highest-``score_col`` rows (ties break
    on ascending ``tiebreak_col``, so the cut is total-ordered and
    deterministic).  The fraction is an EXACT integer ratio —
    ``(num·n + den − 1) // den`` — so a SQL twin needs no float ceil.

    One bucketed exchange: each group's rows co-locate via
    :func:`groupby_buckets`, the quota derives from the group size inside
    the block (no separate count join), and the rank-and-cut is one
    vectorized sorted-groupby pass."""

    def prune(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return df
        df = df.sort_values(keys + [score_col, tiebreak_col],
                            ascending=[True] * len(keys) + [False, True],
                            kind="mergesort")
        g = df.groupby(keys, sort=False)
        n = g[score_col].transform("size").to_numpy(np.int64)
        quota = (num * n + den - 1) // den
        rn = g.cumcount().to_numpy(np.int64)
        return df[rn < quota].reset_index(drop=True)

    return groupby_buckets(ds, keys, prune)


def profile_columns(ds: rd.Dataset, cols: list[str]) -> rd.Dataset:
    """Per-column table profile — the standard pre-training data
    validation pass (row count, null count, exact distinct count,
    min/max) run before a corpus is admitted to a training mix.

    Scale shape: ONE streamed pass computes per-batch partials for
    n / n_null / min / max (reduced through a tiny keys-only
    ``grouped_agg`` — at most one row per column per block moves), plus
    one keys-only distinct-count exchange PER COLUMN for the exact ndv
    (documented alternative: :func:`borges_ray.ops.sketch.hll_count_by`
    for a single-pass estimate when C exchanges are too many).  min/max
    compare on the stringified value so heterogeneous columns profile
    uniformly and a SQL twin can CAST the same way.  Returns one row per
    column: (column, n, n_null, n_distinct, min_str, max_str).
    """

    def partials(df: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for c in cols:
            s = df[c]
            nn = int(s.isna().sum())
            sv = s.dropna().astype(str)
            rows.append({
                "column": c,
                "n": len(s),
                "n_null": nn,
                "min_str": sv.min() if len(sv) else None,
                "max_str": sv.max() if len(sv) else None,
            })
        return pd.DataFrame(rows)

    base = grouped_agg(
        ds.map_batches(partials, batch_format="pandas"), ["column"],
        {"n": ("sum", "n"), "n_null": ("sum", "n_null"),
         "min_str": ("min", "min_str"), "max_str": ("max", "max_str")})

    # exact ndv: one keys-only distinct per column, reduced to a count
    nd_parts = []
    for c in cols:
        def keys(df: pd.DataFrame, _c=c) -> pd.DataFrame:
            return pd.DataFrame({"v": df[_c].dropna().astype(str)})

        d = grouped_agg(ds.map_batches(keys, batch_format="pandas"),
                        ["v"], {"one": ("count", "v")})
        nd_parts.append(d.map_batches(
            lambda df, _c=c: pd.DataFrame({"column": [_c] * (1 if len(df) else 0),
                                           "nd": [len(df)] if len(df) else []}),
            batch_format="pandas"))
    nd = grouped_agg(union_all(nd_parts), ["column"],
                     {"n_distinct": ("sum", "nd")})

    out = hash_join(base, nd, on=["column"], join_type="left_outer")

    def fin(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "column": df["column"],
            "n": df["n"].astype("int64"),
            "n_null": df["n_null"].astype("int64"),
            "n_distinct": pd.to_numeric(df["n_distinct"], errors="coerce")
                            .fillna(0).astype("int64"),
            "min_str": df["min_str"],
            "max_str": df["max_str"],
        })

    return out.map_batches(fin, batch_format="pandas")


def rollup_counts(ds: rd.Dataset, keys: list[str],
                  total_label: str = "__all__") -> rd.Dataset:
    """SQL ``GROUP BY ROLLUP(keys...)`` as one streamed pass: every
    aggregation level — (k1..kn), (k1..kn-1), …, grand total — is
    emitted by the same per-batch combiner (aggregated-out key columns
    take ``total_label``), then ONE keys-only exchange merges partials.
    The exchange is bounded by the sum of distinct group counts across
    levels, never row count — the reporting-rollup shape (per-source ×
    per-lang × total censuses) without one groupby per level.

    Keys must not contain ``total_label`` as a real value (the label
    marks aggregated-out positions, mirroring SQL's NULL-with-COALESCE
    convention).  Returns (keys..., n).
    """

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for lvl in range(len(keys), -1, -1):
            kept = keys[:lvl]
            if kept:
                g = (df.groupby(kept, sort=False, dropna=False)
                     .size().reset_index(name="n"))
            else:
                g = pd.DataFrame({"n": [len(df)]})
            for c in keys[lvl:]:
                g[c] = total_label
            outs.append(g[keys + ["n"]])
        return pd.concat(outs, ignore_index=True)

    return grouped_agg(ds.map_batches(partial, batch_format="pandas"),
                       keys, {"n": ("sum", "n")})


def global_rank(ds: rd.Dataset, value_col: str, tiebreak_col: str, *,
                descending: bool = True, out_col: str = "rank") -> rd.Dataset:
    """Exact global dense row rank by ``(value_col, tiebreak_col)``
    WITHOUT materializing a total order: the rank of a row is
    (#rows with a strictly better value) + (its position among its own
    value's rows ordered by tiebreak) — so a keys-only HISTOGRAM of
    value multiplicities gives every value's rank BASE (tiny driver
    frame, cumsum, broadcast), and one bucketed exchange on the value
    co-locates each value group for a vectorized intra-rank.

    Equals SQL ``row_number() OVER (ORDER BY value [DESC], tiebreak)``.
    Partitioning note: a value shared by many rows lands in one bucket
    (the mode's group is the skew bound) — fine for per-key COUNT
    tables where the mode is the long-tail count, the intended use.
    """

    hist = grouped_agg(ds.select_columns([value_col]), [value_col],
                       {"m": ("count", value_col)}).to_pandas()
    hist = hist.sort_values(value_col, ascending=not descending,
                            kind="mergesort")
    base = dict(zip(hist[value_col],
                    hist["m"].cumsum().shift(fill_value=0).astype("int64")))

    def per_group(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values([value_col, tiebreak_col], kind="mergesort")
        intra = df.groupby(value_col, sort=False).cumcount().to_numpy()
        out = df.copy()
        out[out_col] = (df[value_col].map(base).to_numpy("int64")
                        + intra + 1)
        return out

    return groupby_buckets(ds, [value_col], per_group)


def global_rank_str(ds: rd.Dataset, key_col: str, id_col: str,
                    out_col: str = "rnk") -> rd.Dataset:
    """Exact dense global ``row_number() OVER (ORDER BY key, id) - 1``
    for HIGH-CARDINALITY STRING keys (contrast :func:`global_rank`,
    whose per-distinct-value driver histogram suits count tables):
    here the driver sees only 2-char-PREFIX counts, never values.
    without materializing a global sort on the driver: rows bucket by an
    ORDER-PRESERVING 2-char prefix code of ``key_col`` (UTF-8 byte order
    == code-point order, so per-prefix local sorts concatenate into the
    global order), per-prefix counts make a tiny driver-side offset
    table (≤ distinct-prefixes rows — the only driver contact), and one
    bucketed exchange sorts each prefix group locally and adds its
    offset.  ``(key, id)`` must be unique (id a row key).

    Skew note: a corpus where every key shares one 2-char prefix
    collapses to a single ranking task (the counts table says so up
    front) — widen the prefix there.  This is the rank primitive under
    sorted-neighborhood blocking and stable dictionary-id assignment.
    """
    def add_prefix_code(df: pd.DataFrame) -> pd.DataFrame:
        key = df[key_col].astype(str)
        c0 = key.str.slice(0, 1).map(lambda s: ord(s) if s else -1)
        c1 = key.str.slice(1, 2).map(lambda s: ord(s) if s else -1)
        out = df[[id_col, key_col]].copy()
        out["__pfx"] = ((c0 + 1) * 0x110000 + (c1 + 1)).astype("int64")
        return out

    coded = ds.map_batches(add_prefix_code, batch_format="pandas")

    counts = grouped_agg(
        coded.map_batches(
            lambda df: df.assign(__one=np.int64(1))[["__pfx", "__one"]],
            batch_format="pandas"),
        ["__pfx"], {"n": ("sum", "__one")},
    ).to_pandas().sort_values("__pfx")
    offsets = dict(zip(counts["__pfx"].astype("int64"),
                       (counts["n"].cumsum() - counts["n"]).astype("int64")))

    def rank_block(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            out = df[[id_col, key_col]].copy()
            out[out_col] = pd.Series(dtype="int64")
            return out
        parts = []
        for code, grp in df.groupby("__pfx", sort=False):
            grp = grp.sort_values([key_col, id_col], kind="mergesort")
            grp = grp[[id_col, key_col]].copy()
            grp[out_col] = offsets[int(code)] + np.arange(len(grp),
                                                          dtype=np.int64)
            parts.append(grp)
        return pd.concat(parts, ignore_index=True)

    return groupby_buckets(coded, ["__pfx"], rank_block)
