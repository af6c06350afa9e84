"""Oracle-checked benchmark of the crawl engine and bulk ingest.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see README.md beside this file for why each was chosen):

- ``crawl_fetch``  BSP crawl whose round length never lets politeness bind:
  fetch, parse/extract and the link gate do the work.
- ``crawl_polite`` the same web with 1 s rounds against 250-2000 ms host
  delays: tiny selections, so fixed per-round cost dominates.
- ``ingest``       ``bulk_ingest`` over the ``crawl_fetch`` corpus.

The inputs are the deterministic synthetic Zipf web built from ``--seed``.
The engine is driven only through ``pipelines.crawl.run_crawl`` and
``pipelines.ingest.bulk_ingest``.  One process: start Ray with a fixed
logical CPU count, build the corpus, compute the oracle, make one cold
call (set-up), then time calls back to back for ``--seconds``.  Every call
is checked against the oracle; a call that raises or mismatches counts as
failed.  With ``--trace 1`` the timed calls are followed by a serial replay
of one committed checkpoint through each layer's public functions (see
``replay.py``), and the per-layer metrics are printed instead.

The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (name -> value + unit).  A fuller record (sample
counts, per-call walls, spin calibration, host facts) and, when tracing,
the spans file are written to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import json
import logging
import os
import platform
import shutil
import statistics
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".pbw"
OUT = ROOT / ".perfbench_out"
for p in (str(ROOT), str(HERE)):
    if p not in sys.path:
        sys.path.insert(0, p)

import procs  # noqa: E402

# Ray logical CPUs.  Fixed so every host runs the same schedule.  Not 1: each
# URL-seen shard actor reserves 0.25 CPU, and with one logical CPU the crawl's
# tasks can never be scheduled beside the shards.
NUM_CPUS = 4
NUM_PARTITIONS = 8
NUM_BUCKETS = 8
NUM_SEEN_SHARDS = 2
SEEN_CAPACITY = 200_000
WORDS = (400, 1000)        # Common-Crawl-sized page bodies
DELAY_CYCLE_MS = (250, 500, 1000, 2000)
SETUP_REPEATS = 3
HARD_LIMIT_S = 170         # the process must end within 180 s


@dataclass(frozen=True)
class Workload:
    kind: str              # "crawl" | "ingest"
    n_pages: int
    round_ms: int = 0
    rounds: int = 0


WORKLOADS = {
    "crawl_fetch": Workload("crawl", 3000, round_ms=240_000, rounds=5),
    "crawl_polite": Workload("crawl", 3000, round_ms=1_000, rounds=8),
    "ingest": Workload("ingest", 3000),
}
# A smaller shape for the self-test only; never used for measurement.
SMOKE = {
    "crawl_fetch": Workload("crawl", 400, round_ms=240_000, rounds=3),
    "crawl_polite": Workload("crawl", 400, round_ms=1_000, rounds=3),
    "ingest": Workload("ingest", 400),
}

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "pages_per_s": "1/s",
    "frontier_urls_per_s": "1/s",
    "round_s_p50": "s",
    "round_s_p90": "s",
    "peak_rss_mb": "MB",
}


@dataclass
class Tally:
    """Every engine call made counts as attempted; a call that raised or
    failed its oracle check counts as failed."""
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def record(self, label: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append({"call": label, "problems": problems})
            print(f"[perfbench] {label} FAILED: {problems}", file=sys.stderr)
        return not problems


# ---------------------------------------------------------------- session

def start_ray() -> float:
    """Start a local Ray with a fixed logical CPU count; returns seconds."""
    t0 = time.perf_counter()
    # workers unpickle borges_ray.* and perfbench functions by module path
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT), str(HERE)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    import ray

    temp_dir = WORK / "r"
    kw = {}
    # Ray puts unix sockets ~63 characters below its temp dir (107 max)
    if len(str(temp_dir)) <= 40:
        kw["_temp_dir"] = str(temp_dir)
    ray.init(address="local", num_cpus=NUM_CPUS, include_dashboard=False,
             logging_level="ERROR", log_to_driver=False,
             object_store_memory=512 << 20, **kw)
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)
    import ray.data as rd

    rd.range(NUM_CPUS * 2).map_batches(lambda b: b).count()
    return time.perf_counter() - t0


def wait_idle(timeout_s: float = 60.0) -> float:
    """Drop garbage (the previous call's shard-actor handles) and wait until
    every logical CPU is free again; returns the seconds waited.  Starting
    a call while the last call's actors still exit makes walls drift."""
    import ray

    t0 = time.perf_counter()
    gc.collect()
    total = ray.cluster_resources().get("CPU", 0.0)
    while ray.available_resources().get("CPU", 0.0) < total - 1e-6:
        if time.perf_counter() - t0 > timeout_s:
            raise TimeoutError(f"logical CPUs still busy after {timeout_s} s")
        time.sleep(0.02)
    return time.perf_counter() - t0


def spin_mloops_per_s(seconds: float = 0.05) -> float:
    """Short spin-loop calibration: how fast this core ran just now."""
    n = 0
    t0 = time.perf_counter()
    while (dt := time.perf_counter() - t0) < seconds:
        for _ in range(1000):
            n += 1
    return n / dt / 1e6


# ---------------------------------------------------------------- inputs

@dataclass
class Inputs:
    pages: object          # pa.Table (url, html, text, ...)
    seeds: object
    robots: object
    pages_root: str


def build_inputs(w: Workload, seed: int) -> tuple[Inputs, list[float]]:
    """Generate the web and lay out the bucketed page corpus; the layout
    is written ``SETUP_REPEATS`` times into fresh dirs (its seconds are part
    of ``setup_s``) and the last copy is kept."""
    import pyarrow as pa

    from borges_ray.stages.fetch import write_pages_bucketed
    from borges_ray.synth import synth_pages, synth_robots, synth_seeds

    pages = synth_pages(seed, w.n_pages, words_lo=WORDS[0], words_hi=WORDS[1])
    layout_s = []
    for i in range(SETUP_REPEATS):
        root = str(WORK / f"pages{i}")
        t0 = time.perf_counter()
        write_pages_bucketed(pages.select(["url", "html"]), root, NUM_BUCKETS)
        layout_s.append(time.perf_counter() - t0)
        if i:
            shutil.rmtree(str(WORK / f"pages{i - 1}"))
    robots = synth_robots(seed, w.n_pages)
    # Pin host delays to a fixed 250/500/1000/2000 ms cycle by host rank.
    # Drawn per seed, the hot hosts' delays swing the polite workload's
    # pages per round by +-20% between seeds; pinned, by +-5%.  The seed
    # still drives page bodies, the link graph and the robots rules.
    delays = [DELAY_CYCLE_MS[i % len(DELAY_CYCLE_MS)] for i in range(robots.num_rows)]
    robots = robots.set_column(robots.schema.get_field_index("crawl_delay_ms"),
                               "crawl_delay_ms", pa.array(delays, pa.int64()))
    return Inputs(pages, synth_seeds(seed, w.n_pages), robots, root), layout_s


def engine_config(w: Workload):
    from borges_ray.pipelines.crawl import EngineConfig

    return EngineConfig(round_ms=w.round_ms, max_rounds=w.rounds,
                        num_partitions=NUM_PARTITIONS, num_buckets=NUM_BUCKETS,
                        num_seen_shards=NUM_SEEN_SHARDS, seen_capacity=SEEN_CAPACITY)


# ---------------------------------------------------------------- one call

def committed_round_s(ckpt_dir: str) -> list[float]:
    """Per-round latency seen from outside: the gaps between successive
    ``round=NNNN/_COMMITTED`` mtimes."""
    from borges_ray.state import checkpoint as ckpt

    last = ckpt.last_committed_round(ckpt_dir)
    ts = [os.stat(os.path.join(ckpt.round_dir(ckpt_dir, r), "_COMMITTED")).st_mtime_ns
          for r in range(last + 1)]
    return [(b - a) / 1e9 for a, b in zip(ts, ts[1:])]


def crawl_call(w: Workload, inp: Inputs, oracle, ckpt_dir: str) -> dict:
    from borges_ray.pipelines.crawl import run_crawl

    robots_df = inp.robots.to_pandas()
    with procs.PeakRss() as rss:
        t0 = time.perf_counter()
        run_crawl(inp.pages_root, inp.seeds, robots_df, engine_config(w),
                  ckpt_dir, resume=False)
        wall = time.perf_counter() - t0
    problems = oracle.check(ckpt_dir)
    return {
        "wall_s": wall,
        "pages": oracle.pages_200,
        "frontier_urls": oracle.fetch_attempts + oracle.links_emitted,
        "round_s": committed_round_s(ckpt_dir),
        "peak_rss_mb": rss.peak / 1e6,
        "problems": problems,
    }


def ingest_call(inp: Inputs, oracle, out_dir: str) -> dict:
    from borges_ray.pipelines.ingest import bulk_ingest

    shutil.rmtree(out_dir, ignore_errors=True)
    with procs.PeakRss() as rss:
        t0 = time.perf_counter()
        res = bulk_ingest(inp.pages_root, out_dir, num_cpus_hint=NUM_CPUS)
        wall = time.perf_counter() - t0
    problems = oracle.check(out_dir, res["rows_out"])
    n = res["rows_featurized"]
    return {
        "wall_s": wall,
        "pages": n,
        # ingest has no frontier: every input URL is keyed once through the
        # dedup shuffle, and the caller waits for the whole call as one round
        "frontier_urls": n,
        "round_s": [wall],
        "peak_rss_mb": rss.peak / 1e6,
        "problems": problems,
    }


# ---------------------------------------------------------------- driver

def percentile(xs: list[float], q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(xs, dtype=float), q))


def run(workload: str, seed: int, seconds: float, trace: bool,
        shapes: dict = WORKLOADS) -> dict:
    w = shapes[workload]
    import ray

    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    record: dict = {"workload": workload, "seed": seed, "seconds": seconds,
                    "trace": int(trace), "shape": w.__dict__}
    tally = Tally()

    import borges_ray  # noqa: F401  (fail fast outside a checkout)
    ray_s = start_ray()
    record["host"] = {
        "nproc": len(os.sched_getaffinity(0)),
        "ray_logical_cpus": NUM_CPUS,
        "ray": ray.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
    }
    inp, layout_s = build_inputs(w, seed)
    if w.kind == "crawl":
        from oracle import CrawlOracle

        oracle = CrawlOracle(inp.pages, inp.seeds, inp.robots, w.round_ms,
                             w.rounds, NUM_PARTITIONS)

        def call() -> dict:
            return crawl_call(w, inp, oracle, str(WORK / "ckpt"))
    else:
        from oracle import IngestOracle

        oracle = IngestOracle(inp.pages)

        def call() -> dict:
            return ingest_call(inp, oracle, str(WORK / "ingest_out"))

    def checked(label: str) -> dict | None:
        try:
            res = call()
        except Exception:
            tally.record(label, [traceback.format_exc(limit=3)])
            return None
        tally.record(label, res["problems"])
        return res

    # set-up: Ray start + corpus layout (median of repeats) + the cold call
    cold = checked("cold")
    if cold is None:
        raise RuntimeError("the cold call raised")
    cold_s = cold["wall_s"]
    setup_s = ray_s + statistics.median(layout_s) + cold_s
    record["setup"] = {"ray_start_s": ray_s, "layout_s": layout_s, "cold_call_s": cold_s}

    runs = []
    t_start = time.perf_counter()
    i = 1
    while True:
        idle_s = wait_idle()
        spin = spin_mloops_per_s()
        res = checked(f"run{i}")
        if res is not None:
            res.update(idle_wait_s=idle_s, spin_mloops_per_s=spin)
            res["problems"] = len(res["problems"])
            runs.append(res)
        i += 1
        if time.perf_counter() - t_start >= seconds:
            break
    record["runs"] = runs
    if not runs:
        raise RuntimeError("no timed call completed")

    walls = [r["wall_s"] for r in runs]
    rounds = [s for r in runs for s in r["round_s"]]
    e2e = {
        "setup_s": setup_s,
        "wall_s": statistics.median(walls),
        "pages_per_s": statistics.median(r["pages"] / r["wall_s"] for r in runs),
        "frontier_urls_per_s": statistics.median(
            r["frontier_urls"] / r["wall_s"] for r in runs),
        "round_s_p50": percentile(rounds, 50),
        "round_s_p90": percentile(rounds, 90),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
    }
    record["samples"] = {"calls": len(runs), "rounds": len(rounds),
                         "setup_parts": 2 + len(layout_s)}
    record["end_to_end"] = e2e

    if trace:
        import replay

        wait_idle()
        spans = replay.Spans()
        layer, problems = replay.per_layer(
            w, inp, str(WORK), runs, spans,
            engine_config(w) if w.kind == "crawl" else None, wait_idle, NUM_CPUS)
        tally.record("replay", problems)
        metrics = layer
        units = replay.LAYER_UNITS
        record["per_layer"] = layer
        OUT.mkdir(exist_ok=True)
        spans.write(OUT / f"{workload}-seed{seed}-spans.jsonl")
    else:
        metrics = e2e
        units = E2E_UNITS
    record["attempted"], record["failed"] = tally.attempted, tally.failed
    record["failed_ratio"] = tally.failed / tally.attempted
    record["problems"] = tally.problems
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{workload}-seed{seed}-trace{int(trace)}.json", "w") as f:
        json.dump(record, f, indent=1, default=str)
    ray.shutdown()
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": units[k]} for k in units},
    }


def _abort_after(seconds: float) -> threading.Timer:
    """Last-resort guard: kill everything this process started and exit
    non-zero without a result line."""

    def abort():
        print(f"[perfbench] aborting: still running after {seconds} s",
              file=sys.stderr, flush=True)
        procs.reap_descendants(grace_s=0)
        os._exit(3)

    t = threading.Timer(seconds, abort)
    t.daemon = True
    t.start()
    return t


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    guard = _abort_after(HARD_LIMIT_S)
    # Ray's log monitor can write straight to fd 1; keep stdout for the
    # result line alone
    real_stdout = os.dup(1)
    os.dup2(2, 1)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except Exception:
        traceback.print_exc()
        result = None
    finally:
        try:
            import ray

            ray.shutdown()
        except ImportError:
            pass
        procs.reap_descendants()
        shutil.rmtree(WORK, ignore_errors=True)
        guard.cancel()
        sys.stdout.flush()
        os.dup2(real_stdout, 1)
    if result is None:
        return 1
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
