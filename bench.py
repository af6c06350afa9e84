"""Benchmark harness.

Two measured workloads over a deterministic synthetic Common-Crawl-style web
sized to the sf tier (sf × 1M pages, Common-Crawl-ish page bodies):

1. **bulk ingest** (headline; ``pipelines.ingest``): read raw pages →
   extract → lang → token/quality/fingerprint/MinHash features → exact
   dedup → write Parquet.  This is the pipeline that dominates cost at the
   100 TB design point, so "fetched+parsed pages/sec" and the two-
   parallelism scaling criterion are measured on it.
2. **BSP crawl** (``pipelines.crawl``): the full frontier engine —
   politeness, URL-seen filters, checkpoints — reported as frontier URLs/sec.
   Its per-round coordination (~seconds) amortizes at real round sizes; see
   BASELINE.md.

Plus timings for a representative subset of ``queries()`` over
``$GRAFT_SF_DIR``.  Prints exactly ONE JSON line on stdout.

Each pipeline runs ``BENCH_REPS`` times (default 3) and reports the MEDIAN
as its headline plus the min and the full rep list — single best-of-reps
numbers do not reproduce on this steal-prone host (BASELINE.md).
``BENCH_MODE`` ∈ {full, ingest, crawl} restricts what runs.

``--scaling``: the bulk-ingest job at 2/8/32 CPUs AND the BSP crawl at
8/32 CPUs in fresh interleaved processes on the SAME corpus (cache warmed
first) → throughput at each level + scaling efficiency (the in-sandbox
stand-in for N vs 4N nodes).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

REPO = str(Path(__file__).resolve().parent)
if REPO not in sys.path:
    sys.path.insert(0, REPO)

SEED = 42
BENCH_ROOT = "/tmp/borges_bench"
WORDS = (400, 1000)  # Common-Crawl-ish page bodies for the bench corpus


def sf_of(sf_dir: str) -> float:
    name = os.path.basename(sf_dir.rstrip("/"))
    try:
        return float(name.replace("sf", ""))
    except ValueError:
        return 0.1


def ensure_corpus(n_pages: int, num_buckets: int) -> str:
    """Generate + bucket the synthetic web once; cache under /tmp."""
    root = os.path.join(BENCH_ROOT, f"web_{SEED}_{n_pages}_{num_buckets}_{WORDS[0]}_{WORDS[1]}")
    pages_root = os.path.join(root, "pages")
    marker = os.path.join(root, "_DONE")
    if os.path.exists(marker):
        return pages_root
    import shutil

    from borges_ray.stages.fetch import write_pages_bucketed_ds
    from borges_ray.synth import synth_pages_dataset

    if os.path.isdir(root):
        shutil.rmtree(root)
    os.makedirs(root, exist_ok=True)
    ds = synth_pages_dataset(SEED, n_pages, chunk=max(2000, n_pages // 256),
                             words_lo=WORDS[0], words_hi=WORDS[1])
    write_pages_bucketed_ds(ds.map_batches(lambda t: t.select(["url", "html"]),
                                           batch_format="pyarrow"),
                            pages_root, num_buckets)
    with open(marker, "w"):
        pass
    return pages_root


def _median(xs: list[float]) -> float:
    s = sorted(xs)
    n = len(s)
    return s[n // 2] if n % 2 else (s[n // 2 - 1] + s[n // 2]) / 2


def _reps() -> int:
    # ≥3 reps by default so a MEDIAN is meaningful: the sandbox hypervisor's
    # bursty steal makes identical runs span 1.5-3× (BASELINE.md), and a
    # best-of-reps headline alone is not reproducible evidence.  The
    # headline is the median; the min is reported alongside as the
    # uncontended approximation.  The scaling harness sets BENCH_REPS=1
    # because it does its own interleaved min-of-reps across levels.
    return int(os.environ.get("BENCH_REPS", "3"))


def bench_ingest(pages_root: str, n_pages: int, num_cpus: int) -> dict:
    import shutil

    from borges_ray.pipelines.ingest import bulk_ingest

    out_dir = os.path.join(BENCH_ROOT, f"ingest_out_{os.getpid()}")
    walls = []
    for _rep in range(_reps()):
        shutil.rmtree(out_dir, ignore_errors=True)
        t0 = time.time()
        res = bulk_ingest(pages_root, out_dir, num_cpus_hint=num_cpus)
        walls.append(time.time() - t0)
    shutil.rmtree(out_dir, ignore_errors=True)
    med = _median(walls)
    return {
        "ingest_wall_sec": round(med, 2),            # headline = median
        "ingest_wall_sec_min": round(min(walls), 2),
        "ingest_wall_all": [round(w, 2) for w in walls],
        "ingest_rows_out": res["rows_out"],
        "ingest_pages_per_sec": round(n_pages / med, 1),
        "ingest_pages_per_sec_best": round(n_pages / min(walls), 1),
    }


def bench_crawl(pages_root: str, n_pages: int, num_buckets: int) -> dict:
    import shutil

    from borges_ray.pipelines.crawl import EngineConfig, run_crawl
    from borges_ray.state import checkpoint as ckpt_mod
    from borges_ray.synth import synth_robots, synth_seeds

    cfg = EngineConfig(
        round_ms=240_000,
        max_rounds=6,
        num_partitions=32,
        num_buckets=num_buckets,
        seen_capacity=max(125_000, n_pages // 8),  # per partition: 4 × n_pages / 32
    )
    ckpt_dir = os.path.join(BENCH_ROOT, f"ckpt_{os.getpid()}")
    seeds = synth_seeds(SEED, n_pages)
    robots = synth_robots(SEED, n_pages).to_pandas()
    # median + min of ≥3 reps (see _reps): the headline is the median, the
    # min approximates uncontended performance on this noisy shared host
    walls = []
    for _rep in range(_reps()):
        shutil.rmtree(ckpt_dir, ignore_errors=True)
        t0 = time.time()
        summary = run_crawl(pages_root, seeds, robots, cfg, ckpt_dir, resume=False)
        walls.append(time.time() - t0)
    last = ckpt_mod.last_committed_round(ckpt_dir)
    m = ckpt_mod.read_all_rounds(ckpt_dir, "metrics", last)
    md = m.to_pandas() if m is not None else None
    fetch_attempts = int(md["selected"].sum()) if md is not None else 0
    links = int(md["links_emitted"].sum()) if md is not None else 0
    shutil.rmtree(ckpt_dir, ignore_errors=True)
    med = _median(walls)
    return {
        "crawl_wall_sec": round(med, 2),             # headline = median
        "crawl_wall_sec_min": round(min(walls), 2),
        "crawl_wall_all": [round(w, 2) for w in walls],
        "crawl_rounds": summary["rounds"],
        "crawl_fetch_attempts": fetch_attempts,
        "crawl_pages_per_sec": round(fetch_attempts / med, 1),
        "frontier_urls_per_sec": round((links + fetch_attempts) / med, 1),
        "frontier_urls_per_sec_best": round((links + fetch_attempts) / min(walls), 1),
    }


QUERY_SUBSET = [
    "pricing_summary", "join_hash", "window_hourly",
    "dedup_docs_exact", "knn_cosine", "sessionize",
    # dedup-family additions (r03): full MinHash→CC→survivors pipeline,
    # corpus-global paragraph dedup, semantic dedup
    "minhash_dedup_survivors", "paragraph_dedup", "semdedup",
    # r04 additions: retrieval over the pruned inverted index, fixed-context
    # sequence packing, hashed-linear model scoring
    "bm25_search", "sequence_pack", "model_score",
    # r04b additions: bigram-LM perplexity, DSIR importance weights,
    # Lloyd k-means, interval-join attribution
    "lm_perplexity", "dsir_weights", "kmeans_clusters",
    "interval_attribution",
    # r04c additions: ExactSubstr duplicate-window removal, seeded epoch
    # shuffle into training shards, anchor-text aggregation
    "exact_substr", "epoch_shuffle", "anchor_text",
    # r04d additions: incremental snapshot admission, per-source pruning
    "minhash_incremental", "quality_prune",
    # r04e additions: C4 line-level cleaning, near-dup cluster-size audit,
    # PMI collocations, normalized exact dedup
    "line_filter", "dup_cluster_sizes", "bigram_pmi", "norm_dedup",
    # r04h additions: BFS crawl-depth labeling, mirror-host detection,
    # positional phrase search, Broder containment pairs
    "crawl_depth", "mirror_detect", "phrase_search", "containment_docs",
    "proximity_search", "pipeline_funnel", "triangle_census",
    "graph_components", "degree_powerlaw", "reciprocity",
    # r04m additions: MOSS winnowing overlap, sorted-neighborhood blocking,
    # k-core peeling, KMV sketch similarity, cluster-aware leak-free split
    "winnow_overlap", "sorted_neighborhood", "kcore",
    "kmv_jaccard", "leakfree_split",
    # r05 additions: real-codec multimodal decode + perceptual near-dup,
    # shard-resumable ingest gate
    "image_features", "audio_features", "image_neardup",
    "video_frame_stats", "bulk_ingest_resumable",
    # strongly connected components (fused forward-backward fixpoint)
    "scc",
    # the remaining size-guarded lookup sites (relational.attach_or_filter)
    "join_broadcast", "clustering_coeff", "degree_assortativity",
    "cocitation", "editdist_join",
]


def bench_queries(sf_dir: str) -> dict:
    import __ray_entry__ as e

    qs = e.queries()
    out = {}
    for name in QUERY_SUBSET:
        t0 = time.time()
        res = qs[name](sf_dir)
        if hasattr(res, "to_pandas"):
            res.to_pandas()
        out[name] = round(time.time() - t0, 2)
    return out


def _init_ray(num_cpus: int) -> None:
    import ray

    if not ray.is_initialized():
        # log_to_driver=False: raylet/worker WARNINGs stream to the driver's
        # stdout otherwise (observed: "(raylet) WARNING: 36 PYTHON worker
        # processes...") and corrupt the one-JSON-line stdout contract
        ray.init(address="local", num_cpus=num_cpus, include_dashboard=False,
                 ignore_reinit_error=True, logging_level="ERROR",
                 log_to_driver=False)
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    # warm the worker pool so measured runs don't pay process startup
    import ray.data as rd

    rd.range(num_cpus * 2).map_batches(lambda b: b).count()


def run_bench() -> dict:
    sf_dir = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
    num_cpus = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
    mode = os.environ.get("BENCH_MODE", "full")
    sf = sf_of(sf_dir)
    n_pages = max(2000, int(1_000_000 * sf))
    num_buckets = 32

    import ray

    _init_ray(num_cpus)
    pages_root = ensure_corpus(n_pages, num_buckets)

    ingest_stats = bench_ingest(pages_root, n_pages, num_cpus) \
        if mode in ("full", "ingest") else {}
    crawl_stats = bench_crawl(pages_root, n_pages, num_buckets) \
        if mode in ("full", "crawl") else {}
    queries = bench_queries(sf_dir) if mode == "full" else {}

    headline = (("bulk_ingest_wall_sec", ingest_stats["ingest_wall_sec"])
                if ingest_stats else
                ("bsp_crawl_wall_sec", crawl_stats["crawl_wall_sec"]))
    result = {
        "metric": headline[0],
        "value": headline[1],
        "unit": "sec",
        "queries": queries,
        "sf": sf,
        "num_cpus": num_cpus,
        "n_pages": n_pages,
        **ingest_stats,
        **crawl_stats,
    }
    ray.shutdown()
    return result


def _burn(_arg):
    t0 = time.time()
    x = 0
    while time.time() - t0 < 2.0:
        for _ in range(10000):
            x += 1
    return x


def _cpu_calibration(levels: tuple[int, ...]) -> dict:
    """Raw multiprocessing CPU-burn throughput per parallelism level — how
    much aggregate compute the HOST actually delivers.  This sandbox runs on
    an oversubscribed hypervisor: per-core throughput degrades with
    occupancy (steal time), so the deliverable speedup from 8→32 procs is
    ~2.5-3.3×, not 4×.  Reported alongside the engine numbers so scaling
    efficiency can be read against the hardware ceiling (BASELINE.md)."""
    import multiprocessing as mp

    out = {}
    for procs in levels:
        with mp.Pool(procs) as p:
            out[procs] = sum(p.map(_burn, range(procs)))
    return out


def _mem_burn(_arg):
    import numpy as np

    a = np.ones(40_000_000, dtype=np.uint8)
    b = np.empty_like(a)
    t0 = time.time()
    n = 0
    while time.time() - t0 < 2.0:
        np.copyto(b, a)
        n += 1
    return n * 40  # MB copied


def _mem_calibration(levels: tuple[int, ...]) -> dict:
    """Aggregate MEMORY-COPY bandwidth per parallelism level.  The spin-loop
    calibration (`_cpu_calibration`) is register-resident and blind to the
    SMT/cache/bandwidth contention that dominates text processing: the
    ingest featurize UDF streams several MB of strings per batch, so its
    real 8→32 ceiling is the bandwidth ratio, not the spin ratio.  Reported
    so scaling efficiency can be read against the ceiling that matches the
    workload class."""
    import multiprocessing as mp

    out = {}
    for procs in levels:
        with mp.Pool(procs) as p:
            out[procs] = sum(p.map(_mem_burn, range(procs)))
    return out


def run_scaling() -> dict:
    """The bulk-ingest job at N and 4N CPUs in fresh processes, same corpus.

    Two pairs: (2,8) — the regime where the host can actually deliver 4×
    compute — and (8,32) — capped by hypervisor oversubscription (see
    ``_cpu_calibration``).  Each level is run twice and the MIN wall is used
    (the standard way to approximate uncontended performance on a noisy
    shared host)."""

    def run(ncpu: int, mode: str = "ingest") -> dict:
        env = dict(os.environ, RAY_GRAFT_CPUS=str(ncpu), BENCH_MODE=mode,
                   BENCH_REPS="1")
        out = subprocess.run([sys.executable, __file__], env=env,
                             capture_output=True, text=True, check=True).stdout
        return json.loads(out.strip().splitlines()[-1])

    warm = run(8)  # corpus generation + OS page cache (untimed)
    # INTERLEAVED repetitions: host interference comes in multi-minute
    # bursts, so alternating levels keeps a bad phase from biasing one
    # level; min-of-reps approximates uncontended performance.
    schedule = [2, 8, 32, 8, 32, 8, 32]
    runs_by_level: dict[int, list[dict]] = {}
    for ncpu in schedule:
        runs_by_level.setdefault(ncpu, []).append(run(ncpu))
    best: dict[int, dict] = {
        ncpu: min(rs, key=lambda r: r["value"]) for ncpu, rs in runs_by_level.items()
    }

    # the BSP crawl at the same two parallelism levels (interleaved) so
    # frontier URLs/s has two-cluster-size evidence too
    crawl_runs: dict[int, list[dict]] = {}
    for ncpu in (8, 32, 8, 32):
        crawl_runs.setdefault(ncpu, []).append(run(ncpu, mode="crawl"))
    crawl_best = {n: min(rs, key=lambda r: r["value"]) for n, rs in crawl_runs.items()}
    crawl_eff = (crawl_best[8]["value"] / crawl_best[32]["value"]) / 4

    calib = _cpu_calibration((2, 8, 32))
    mem_calib = _mem_calibration((2, 8, 32))
    eff_2_8 = (best[2]["value"] / best[8]["value"]) / 4
    eff_8_32 = (best[8]["value"] / best[32]["value"]) / 4
    hw_2_8 = (calib[8] / calib[2]) / 4
    hw_8_32 = (calib[32] / calib[8]) / 4
    return {
        "metric": "scaling_efficiency",
        "value": round(eff_2_8, 3),          # headline: the deliverable-4x regime
        "unit": "ratio",
        "pairs": {
            "2_to_8": {"sec_lo": best[2]["value"], "sec_hi": best[8]["value"],
                        "efficiency": round(eff_2_8, 3),
                        "hw_ceiling": round(hw_2_8, 3)},
            "8_to_32": {"sec_lo": best[8]["value"], "sec_hi": best[32]["value"],
                         "efficiency": round(eff_8_32, 3),
                         "hw_ceiling": round(hw_8_32, 3)},
        },
        "crawl_pair_8_to_32": {
            "sec_lo": crawl_best[8]["value"], "sec_hi": crawl_best[32]["value"],
            "frontier_urls_per_sec": {
                str(n): v["frontier_urls_per_sec"] for n, v in crawl_best.items()},
            "efficiency": round(crawl_eff, 3),
            "all_runs_sec": {str(n): [r["value"] for r in rs]
                             for n, rs in crawl_runs.items()},
        },
        "pages_per_sec": {str(k): v["ingest_pages_per_sec"] for k, v in best.items()},
        "all_runs_sec": {str(k): [r["value"] for r in rs] for k, rs in runs_by_level.items()},
        "cpu_calibration_loops": {str(k): v for k, v in calib.items()},
        "mem_bandwidth_mb": {str(k): v for k, v in mem_calib.items()},
        "mem_hw_ceiling": {
            "2_to_8": round((mem_calib[8] / mem_calib[2]) / 4, 3),
            "8_to_32": round((mem_calib[32] / mem_calib[8]) / 4, 3),
        },
        "warm_sec_8": warm["value"],
        "sf": best[8]["sf"],
        "n_pages": best[8]["n_pages"],
    }


if __name__ == "__main__":
    # fd-level stdout guard: raylet warnings ("WARNING: N PYTHON worker
    # processes...") are written straight to the driver's fd 1 by the log
    # monitor and bypass log_to_driver=False, so point fd 1 at stderr for
    # the duration and write the one JSON line to the saved real stdout.
    real_stdout = os.dup(1)
    os.dup2(2, 1)
    try:
        res = run_scaling() if "--scaling" in sys.argv else run_bench()
    finally:
        os.dup2(real_stdout, 1)
    print(json.dumps(res))
    sys.stdout.flush()
