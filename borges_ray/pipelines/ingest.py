"""Bulk ingest: the throughput-critical inner pipeline of the engine.

At the 100 TB design point the crawl's cost is dominated by exactly this
streaming pipeline — read raw page bytes → extract text (M7/M9/M11/M12) →
language tag (M15) → text features (token counts, quality, fingerprint,
MinHash signature) → exact dedup on the content fingerprint (D1) → write
Parquet.  The BSP frontier loop (``pipelines.crawl``) schedules *which* pages
enter this path; its per-round coordination costs amortize to nothing when a
round covers billions of pages.  Benchmarks therefore measure this pipeline
for "fetched+parsed pages/sec" and the scaling criterion, and the BSP engine
separately for frontier/dedup throughput.

Stage shapes:

- featurize: ``map_batches`` over Arrow batches; the MinHash permutation
  bank is per-actor state (callable class, ``concurrency``-pooled).
- dedup: hash-bucket shuffle on the 64-bit fingerprint (8-byte keys move,
  never the payload), vectorized winner per bucket.
- write: partitioned Parquet under the output dir (resumable layout).
"""

from __future__ import annotations

import functools
import os
import shutil

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads
import pyarrow.parquet as pq
import ray.data as rd


class PageFeaturizer:
    """Extract + featurize one batch of raw pages.  Per-actor state: the
    MinHash permutation bank (built once).  Each text is tokenized once:
    one codepoint-class pass gives every count, one ``str.split`` feeds
    both the fingerprint and the MinHash shingles.

    ``max_payload_bytes`` (None = no cap) applies the reference's
    DocumentTooLarge triage (``Borges/spiders/Elsevier/paper_xml.py:109-120``)
    at the FIRST touch of the payload: an over-cap page is never extracted —
    its row keeps url + byte count, gets ``error="payload_too_large"``, and
    carries empty text/features, so one pathological multi-GB page can't
    inflate a downstream block."""

    def __init__(self, num_perm: int = 128, shingle_k: int = 3,
                 max_payload_bytes: int | None = None):
        from ..ops.dedup import MinHasher

        self.minhash = MinHasher(num_perm=num_perm, shingle_k=shingle_k)
        self.max_payload_bytes = max_payload_bytes

    def __call__(self, t: pa.Table) -> pa.Table:
        from ..extract import extract_text, tag_lang_batch
        from ..ops.textops import fingerprint_splits, quality_ratios, text_counts

        htmls = t["html"].to_pylist()
        # size in BYTES regardless of column type (a string html column
        # measured by len() would under-count multi-byte pages and let an
        # over-cap payload slip the DocumentTooLarge triage)
        sizes = [0 if h is None
                 else len(h) if isinstance(h, (bytes, bytearray))
                 else len(h.encode("utf-8")) for h in htmls]
        cap = self.max_payload_bytes
        over = [cap is not None and s > cap for s in sizes]
        texts = ["" if o else extract_text(h) for o, h in zip(over, htmls)]
        c = text_counts(texts)
        q = quality_ratios(c)
        splits = [x.split() for x in texts]
        sigs = self.minhash.signatures(splits)
        return pa.table(
            {
                "url": t["url"].cast(pa.string()),
                "extracted_text": pa.array(texts, pa.string()),
                "lang": pa.array(tag_lang_batch(texts), pa.string()),
                "n_ws_tokens": pa.array(c["n_ws_tokens"], pa.int64()),
                "n_bpe_tokens": pa.array(c["n_bpe_tokens"], pa.int64()),
                "fingerprint": pa.array(fingerprint_splits(splits), pa.uint64()),
                "punct_ratio": pa.array(q["punct_ratio"], pa.float64()),
                "stopword_ratio": pa.array(q["stopword_ratio"], pa.float64()),
                "mean_word_len": pa.array(q["mean_word_len"], pa.float64()),
                "minhash_sig": pa.array([s.tobytes() for s in sigs], pa.binary()),
                "n_html_bytes": pa.array(sizes, pa.int64()),
                "error": pa.array(["payload_too_large" if o else None for o in over],
                                  pa.string()),
            }
        )


_WORKER_PF: dict = {}


def _featurize_batch(t: pa.Table, max_payload_bytes: int | None = None) -> pa.Table:
    """Task-pool featurize with per-worker-process cached state.

    NOT an actor pool on purpose: a fixed actor pool with ``num_cpus=1``
    reserves CPUs and starves the upstream read on small clusters (observed:
    8 actors on 8 CPUs → idle deadlock).  The featurizer state (the
    permutation bank) is microseconds to build, so a module-global
    cache inside each reused worker process gives the same amortization with
    fully elastic task scheduling.  Reserve real actor pools for expensive
    state (models, sessions) and size them below the node's CPU count.
    """
    pf = _WORKER_PF.get(max_payload_bytes)
    if pf is None:
        pf = _WORKER_PF[max_payload_bytes] = PageFeaturizer(
            max_payload_bytes=max_payload_bytes)
    return pf(t)


def _parquet_files(*dirs: str) -> list[str]:
    return sorted(os.path.join(dp, f) for d in dirs for dp, _dn, fs in os.walk(d)
                  for f in fs if f.endswith(".parquet"))


def _dedup_survivors(feat_files: list[str], out_dir: str) -> int:
    """Exact dedup as a KEYS-ONLY shuffle: re-read just (url, fingerprint)
    of the non-error rows (a coalesced read), keep the smallest url per
    fingerprint, write the survivors manifest to ``out_dir/survivors`` and
    return its row count.  The payload never moves through the shuffle;
    consumers semi-join features against the manifest.  Shards sealed
    before the ``error`` column existed have no error rows to drop."""
    from ..ops.relational import _auto_num_blocks

    has_error = "error" in pq.ParquetFile(feat_files[0]).schema_arrow.names
    keys = rd.read_parquet(
        feat_files, columns=["url", "fingerprint"] + (["error"] if has_error else []),
        override_num_blocks=_auto_num_blocks(feat_files))

    def add_bucket(df: pd.DataFrame) -> pd.DataFrame:
        out = df.loc[df["error"].isna()] if has_error else df
        out = out[["url", "fingerprint"]].copy()
        out["__fb"] = (out["fingerprint"] % np.uint64(64)).astype("int64")
        return out

    def winner(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values("url", kind="mergesort")
        return df.drop_duplicates(subset="fingerprint", keep="first")[["url"]]

    survivors = (
        keys.map_batches(add_bucket, batch_format="pandas")
        .groupby("__fb", num_partitions=32)
        .map_groups(winner, batch_format="pandas")
    )
    surv_dir = os.path.join(out_dir, "survivors")
    shutil.rmtree(surv_dir, ignore_errors=True)
    survivors.write_parquet(surv_dir)
    return pads.dataset(surv_dir, format="parquet").count_rows()


def bulk_ingest(
    pages_path: str,
    out_dir: str,
    *,
    dedup: bool = True,
    num_cpus_hint: int | None = None,
    batch_size: int = 512,
    max_payload_bytes: int | None = None,
) -> dict:
    """Run the ingest pipeline end-to-end; returns counts.

    ``pages_path`` — parquet file/dir with (url, html).  Only those two
    columns are read (prune at the read).

    With ``max_payload_bytes`` set, over-cap pages degrade to ERROR ROWS
    (url + byte count + ``error="payload_too_large"``, payload dropped at
    first touch — reference ``Elsevier/paper_xml.py:109-120``): they are
    written to ``out_dir/missed`` and excluded from the dedup keys, never
    entering the text pipeline.
    """
    # Parallelism note: Ray coalesces small Parquet files into ~128 MB
    # blocks, and a fused read→map task processes ONE block — on a modest
    # corpus that collapses the featurize stage to a handful of tasks.
    # Force enough blocks to keep every CPU busy (cheap: block metadata
    # only; at 100 TB the natural block count is already ≫ CPUs).
    n_blocks = max(4 * (num_cpus_hint or 8), 64)
    ds = rd.read_parquet(pages_path, columns=["url", "html"],
                         override_num_blocks=n_blocks)
    feats = ds.map_batches(
        functools.partial(_featurize_batch, max_payload_bytes=max_payload_bytes),
        batch_format="pyarrow",
        batch_size=batch_size,
    )
    feat_dir = os.path.join(out_dir, "features")
    feats.write_parquet(feat_dir)

    n_feat = pads.dataset(feat_dir, format="parquet").count_rows()
    n_missed = 0
    if max_payload_bytes is not None:
        # missed/error sink: metadata-only re-read (3 small columns), error
        # rows only — the payload bytes were already dropped at featurize
        missed = rd.read_parquet(feat_dir,
                                 columns=["url", "n_html_bytes", "error"])
        missed = missed.map_batches(
            lambda t: t.filter(pc.is_valid(t["error"])),
            batch_format="pyarrow")
        missed_dir = os.path.join(out_dir, "missed")
        n_missed = missed.count()
        if n_missed:
            missed.write_parquet(missed_dir)
        else:
            # an empty Dataset writes no files; keep the sink dir present
            os.makedirs(missed_dir, exist_ok=True)
        n_feat -= n_missed
    if not dedup:
        return {"rows_out": n_feat, "rows_missed": n_missed}
    return {"rows_out": _dedup_survivors(_parquet_files(feat_dir), out_dir),
            "rows_featurized": n_feat, "rows_missed": n_missed}


def bulk_ingest_resumable(
    pages_path: str,
    out_dir: str,
    *,
    dedup: bool = True,
    num_shards: int = 8,
    num_cpus_hint: int | None = None,
    batch_size: int = 512,
    max_payload_bytes: int | None = None,
) -> dict:
    """Shard-resumable variant of :func:`bulk_ingest`: input files are
    deterministically grouped into ``num_shards`` shards, each featurized
    into its own ``features/shard=<k>/`` directory and sealed with a
    ``_SHARD_DONE_<k>`` marker.  A rerun after a crash SKIPS sealed shards
    and reprocesses only unsealed ones (partial shard output is deleted
    first, so the commit is all-or-nothing per shard) — the "resumable
    output" contract: never one giant file, one directory per input shard.

    Within a shard the pipeline streams exactly as :func:`bulk_ingest`;
    at the design point shards are many-GB file groups, so per-shard job
    overhead amortizes.  The dedup pass runs after all shards are sealed
    (keys-only; reads the union of shard dirs)."""
    files = _parquet_files(pages_path) if os.path.isdir(pages_path) else [pages_path]
    num_shards = max(1, min(num_shards, len(files)))
    feat_dir = os.path.join(out_dir, "features")
    os.makedirs(feat_dir, exist_ok=True)

    n_blocks = max(4 * (num_cpus_hint or 8), 64) // num_shards or 1
    skipped = 0
    for k in range(num_shards):
        marker = os.path.join(feat_dir, f"_SHARD_DONE_{k}")
        shard_dir = os.path.join(feat_dir, f"shard={k}")
        if os.path.exists(marker):
            skipped += 1
            continue
        shutil.rmtree(shard_dir, ignore_errors=True)
        shard_files = files[k::num_shards]
        ds = rd.read_parquet(shard_files, columns=["url", "html"],
                             override_num_blocks=n_blocks)
        ds.map_batches(
            functools.partial(_featurize_batch,
                              max_payload_bytes=max_payload_bytes),
            batch_format="pyarrow",
            batch_size=batch_size).write_parquet(shard_dir)
        with open(marker, "w") as fp:
            fp.write("ok")

    shard_dirs = [os.path.join(feat_dir, f"shard={k}") for k in range(num_shards)]
    n_feat = sum(pads.dataset(d, format="parquet").count_rows() for d in shard_dirs)
    if not dedup:
        return {"rows_out": n_feat, "shards_skipped": skipped}
    return {"rows_out": _dedup_survivors(_parquet_files(*shard_dirs), out_dir),
            "rows_featurized": n_feat, "shards_skipped": skipped}


def _main() -> None:
    """CLI: ``python -m borges_ray.pipelines.ingest [--pages DIR]
    [--n-pages N] [--out DIR] [--resumable] [--shards K]`` — runs the bulk
    ingest pipeline (on a synthesized page corpus unless ``--pages`` points
    at an existing (url, html) Parquet layout) and prints the row counts."""
    import argparse
    import tempfile
    import time

    import ray

    ap = argparse.ArgumentParser(description="borges_ray bulk ingest")
    ap.add_argument("--pages", default=None, help="(url, html) parquet dir")
    ap.add_argument("--n-pages", type=int, default=2000)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--out", default=None)
    ap.add_argument("--num-cpus", type=int, default=8)
    ap.add_argument("--resumable", action="store_true")
    ap.add_argument("--shards", type=int, default=8)
    args = ap.parse_args()

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=args.num_cpus,
                 include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    pages_root = args.pages
    if pages_root is None:
        from ..stages.fetch import write_pages_bucketed
        from ..synth import synth_pages

        pages_root = os.path.join(
            tempfile.gettempdir(), f"borges_ingest_pages_{args.seed}_{args.n_pages}")
        if not os.path.isdir(pages_root):
            write_pages_bucketed(
                synth_pages(args.seed, args.n_pages).select(["url", "html"]),
                pages_root, 8)
    out = args.out or tempfile.mkdtemp(prefix="borges_ingest_out_")
    t0 = time.time()
    if args.resumable:
        res = bulk_ingest_resumable(pages_root, out, num_shards=args.shards,
                                    num_cpus_hint=args.num_cpus)
    else:
        res = bulk_ingest(pages_root, out, num_cpus_hint=args.num_cpus)
    wall = round(time.time() - t0, 2)
    print(f"ingest wall={wall}s out={out} {res}")
    ray.shutdown()


if __name__ == "__main__":
    _main()
