"""Per-layer numbers for the traced run.

Crawl workloads: take the committed checkpoint of the last timed call and
replay each round's stages serially through the public stage functions,
with a ``materialize()`` after each so a stage's span holds only its own
work: ``select_frontier``, ``defer_frontier``, ``fetch_selected``,
``parse_fetched``, ``link_candidates``, ``gate_candidates`` (on fresh
``create_seen_index`` shards loaded with the seen set entering the round)
and the ``write_parquet`` of the round's selection and crawled rows.  The
replay is checked against the checkpoint's own metrics and seen deltas.

Ingest: the read, a single-process ``PageFeaturizer`` timing, and the
dedup cost as ``bulk_ingest`` minus ``bulk_ingest(dedup=False)``.

Every workload also times the extraction kernels on a fixed page sample in
this process.  Spans (name, start, end, parent) are kept in memory and
written out once at the end.  A metric of a layer the workload never runs
is reported as 0.

Aggregation: a ``*_s`` stage metric is the mean seconds per replayed round;
row and page counts are totals over the replayed rounds.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

import procs

# layer metric -> unit; README.md maps each to the end-to-end metric and
# workload it should move
LAYER_UNITS = {
    "stages.politeness.select_s": "s",
    "stages.politeness.defer_s": "s",
    "stages.politeness.frontier_rows": "count",
    "stages.politeness.selected_rows": "count",
    "stages.fetch.fetch_s": "s",
    "stages.fetch.attempts": "count",
    "stages.fetch.hit_ratio": "ratio",
    "stages.fetch.html_mb": "MB",
    "stages.parse.parse_s": "s",
    "stages.parse.pages": "count",
    "stages.parse.links_out": "count",
    "extract.text_us_per_page": "us",
    "extract.links_us_per_page": "us",
    "extract.lang_us_per_page": "us",
    "canonical.us_per_link": "us",
    "stages.links.candidates_s": "s",
    "stages.links.exploded_rows": "count",
    "stages.links.winner_rows": "count",
    "stages.links.gate_s": "s",
    "stages.links.new_ratio": "ratio",
    "stages.links.robots_blocked": "count",
    "state.urlseen.shard_start_s": "s",
    "state.urlseen.check_and_add_urls_per_s": "1/s",
    "state.urlseen.load_urls_per_s": "1/s",
    "state.urlseen.shard_rss_mb": "MB",
    "state.urlseen.seen_urls": "count",
    "state.checkpoint.files_per_round": "count",
    "state.checkpoint.mb_per_round": "MB",
    "state.checkpoint.write_s": "s",
    "pipelines.crawl.round_overhead_s": "s",
    "pipelines.crawl.overlap_ratio": "ratio",
    "pipelines.ingest.read_s": "s",
    "pipelines.ingest.featurize_us_per_page": "us",
    "pipelines.ingest.dedup_s": "s",
}

# spans whose seconds sum to one replayed round's stage time (shard start
# and seen-set load happen once per crawl, not per round, in the engine)
ROUND_STAGES = (
    "stages.politeness.select", "stages.politeness.defer", "stages.fetch",
    "stages.parse", "stages.links.candidates", "stages.links.gate",
    "state.checkpoint.write_selected", "state.checkpoint.write_crawled",
)
KERNEL_SAMPLE_PAGES = 200


class Spans:
    def __init__(self):
        self.t0 = time.perf_counter()
        self.rows: list[dict] = []

    @contextmanager
    def span(self, name: str, parent: str | None = None):
        row = {"name": name, "parent": parent,
               "start": time.perf_counter() - self.t0}
        try:
            yield row
        finally:
            row["end"] = time.perf_counter() - self.t0
            self.rows.append(row)

    def seconds(self, name: str, parent: str | None = None) -> float:
        return sum(r["end"] - r["start"] for r in self.rows
                   if r["name"] == name and (parent is None or r["parent"] == parent))

    def write(self, path) -> None:
        with open(path, "w") as f:
            for r in sorted(self.rows, key=lambda r: r["start"]):
                f.write(json.dumps(r) + "\n")


def kernel_timings(pages, spans: Spans, repeats: int = 3) -> dict:
    """Single-process extraction-kernel timings over the first
    ``KERNEL_SAMPLE_PAGES`` pages (median of ``repeats``)."""
    from borges_ray.canonical import canonicalize
    from borges_ray.extract import extract_links, extract_text, tag_lang_batch

    sample = pages.slice(0, KERNEL_SAMPLE_PAGES)
    urls = sample["url"].to_pylist()
    htmls = sample["html"].to_pylist()
    n = len(htmls)
    texts = [extract_text(h) for h in htmls]
    hrefs = [(href, u) for u, h in zip(urls, htmls) for href, _c in extract_links(h)]
    runs = defaultdict(list)
    for _ in range(repeats):
        with spans.span("extract.text", "kernels") as s:
            for h in htmls:
                extract_text(h)
        runs["extract.text_us_per_page"].append((s["end"] - s["start"]) / n)
        with spans.span("extract.links", "kernels") as s:
            for h in htmls:
                extract_links(h)
        runs["extract.links_us_per_page"].append((s["end"] - s["start"]) / n)
        with spans.span("extract.lang", "kernels") as s:
            tag_lang_batch(texts)
        runs["extract.lang_us_per_page"].append((s["end"] - s["start"]) / n)
        with spans.span("canonical.canonicalize", "kernels") as s:
            for href, base in hrefs:
                canonicalize(href, base=base)
        runs["canonical.us_per_link"].append((s["end"] - s["start"]) / len(hrefs))
    return {k: statistics.median(v) * 1e6 for k, v in runs.items()}


def per_layer(w, inp, work_dir: str, runs: list[dict], spans: Spans, cfg,
              wait_idle, num_cpus: int) -> tuple[dict, list[str]]:
    """All ``LAYER_UNITS`` metrics for workload ``w``; ``runs`` are the
    timed calls (the last one left its checkpoint in ``work_dir/ckpt``)."""
    out = dict.fromkeys(LAYER_UNITS, 0.0)
    out.update(kernel_timings(inp.pages, spans))
    if w.kind == "crawl":
        layers, problems = crawl_layers(inp, os.path.join(work_dir, "ckpt"),
                                        runs[-1]["round_s"], spans, cfg, wait_idle)
    else:
        layers, problems = ingest_layers(inp, runs, spans, work_dir, num_cpus)
    out.update(layers)
    return out, problems


def crawl_layers(inp, ckpt_dir: str, round_s: list[float], spans: Spans, cfg,
                 wait_idle) -> tuple[dict, list[str]]:
    import pyarrow.dataset as pads
    import pyarrow.parquet as pq
    import ray
    import ray.data as rd

    from borges_ray.stages.fetch import fetch_selected
    from borges_ray.stages.links import gate_candidates, link_candidates
    from borges_ray.stages.parse import parse_fetched
    from borges_ray.stages.politeness import (defer_frontier, delays_from_robots,
                                              select_frontier)
    from borges_ray.state import checkpoint as ckpt
    from borges_ray.state.urlseen import create_seen_index, seen_load

    robots_df = inp.robots.to_pandas()
    delays_ref = ray.put(delays_from_robots(robots_df, cfg.default_delay_ms))
    robots_ref = ray.put({h: (tuple(d), tuple(a)) for h, d, a in zip(
        robots_df["host"], robots_df["disallow_prefixes"], robots_df["allow_prefixes"])})
    scratch = os.path.join(os.path.dirname(ckpt_dir), "replay")
    last = ckpt.last_committed_round(ckpt_dir)
    c = defaultdict(float)
    problems: list[str] = []
    shard_start, shard_rss, stage_sums = [], [], []
    seen_urls: list[str] = []
    for r in range(last):
        rdir, ndir = ckpt.round_dir(ckpt_dir, r), ckpt.round_dir(ckpt_dir, r + 1)
        tag = f"round={r:04d}"
        frontier_path = os.path.join(rdir, "frontier")
        c["frontier_rows"] += pads.dataset(frontier_path, format="parquet").count_rows()
        with spans.span(tag):
            with spans.span("stages.politeness.select", tag):
                selected = select_frontier(
                    rd.read_parquet(frontier_path), delays_ref,
                    os.path.join(rdir, "host_state"), num_partitions=cfg.num_partitions,
                    rnd=r, round_ms=cfg.round_ms).materialize()
            sel_dir = os.path.join(scratch, f"selected{r}")
            with spans.span("state.checkpoint.write_selected", tag):
                selected.repartition(2).write_parquet(sel_dir, partition_cols=["partition"])
            with spans.span("stages.politeness.defer", tag):
                defer_frontier(rd.read_parquet(frontier_path), sel_dir).materialize()
            with spans.span("stages.fetch", tag):
                fetched = fetch_selected(selected, inp.pages_root,
                                         cfg.num_buckets).materialize()
            with spans.span("stages.parse", tag):
                parsed = parse_fetched(fetched.repartition(
                    target_num_rows_per_block=cfg.parse_block_rows), r).materialize()
            with spans.span("stages.links.candidates", tag):
                cands = link_candidates(
                    parsed.select_columns(["url", "status", "priority", "depth", "links"]),
                    r, cfg.num_partitions, cfg.max_depth).materialize()
            with spans.span("state.urlseen.shard_start", tag) as s:
                shards = create_seen_index(cfg.num_seen_shards, cfg.seen_capacity,
                                           filter_kind=cfg.seen_filter)
                ray.get([sh.size.remote() for sh in shards])
            shard_start.append(s["end"] - s["start"])
            seen_urls += pq.read_table(os.path.join(rdir, "seen_delta"),
                                       columns=["url"])["url"].to_pylist()
            with spans.span("state.urlseen.load", tag) as s:
                seen_load(shards, seen_urls)
            c["load_urls"] += len(seen_urls)
            with spans.span("stages.links.gate", tag):
                gated = gate_candidates(cands, shards, robots_ref, r + 1).materialize()
            shard_rss.append(procs.rss_of_matching("UrlSeenShard") / 1e6)
            c["seen_urls"] = sum(ray.get([sh.size.remote() for sh in shards]))
            for sh in shards:
                ray.kill(sh)
            del shards
            with spans.span("state.checkpoint.write_crawled", tag):
                parsed.write_parquet(os.path.join(scratch, f"crawled{r}"))
        stage_sums.append(sum(spans.seconds(n, tag) for n in ROUND_STAGES))

        # counts, taken outside the spans
        c["selected_rows"] += selected.count()
        ft = fetched.select_columns(["status", "html"]).to_pandas()
        c["attempts"] += len(ft)
        c["hits"] += int((ft["status"] == 200).sum())
        c["html_bytes"] += int(ft["html"].dropna().map(len).sum())
        pt = parsed.select_columns(["status", "n_links"]).to_pandas()
        ok = pt["status"] == 200
        c["pages"] += int(ok.sum())
        c["links_out"] += int(pt.loc[ok, "n_links"].sum())
        winners = cands.count()
        c["winner_rows"] += winners
        gt = gated.select_columns(["blocked"]).to_pandas()
        c["new_rows"] += len(gt)
        c["blocked"] += int(gt["blocked"].sum())

        # the replay must reproduce what the engine committed for round r
        m = pq.read_table(os.path.join(ndir, "metrics")).to_pandas()
        delta = pads.dataset(os.path.join(ndir, "seen_delta"), format="parquet").count_rows()
        want = {"selected": int(m["selected"].sum()), "fetched": int(m["fetched"].sum()),
                "blocked": int(m["blocked"].sum()), "new": delta}
        got = {"selected": selected.count(), "fetched": int(ok.sum()),
               "blocked": int(gt["blocked"].sum()), "new": len(gt)}
        if got != want:
            problems.append(f"replay of {tag} gave {got}, checkpoint has {want}")
        del selected, fetched, parsed, cands, gated
        wait_idle()

    n = max(last, 1)
    secs = {name: spans.seconds(name) / n for name in ROUND_STAGES}
    vol = _checkpoint_volume(ckpt_dir)
    load_s = spans.seconds("state.urlseen.load")
    gate_s = spans.seconds("stages.links.gate")
    return {
        "stages.politeness.select_s": secs["stages.politeness.select"],
        "stages.politeness.defer_s": secs["stages.politeness.defer"],
        "stages.politeness.frontier_rows": c["frontier_rows"],
        "stages.politeness.selected_rows": c["selected_rows"],
        "stages.fetch.fetch_s": secs["stages.fetch"],
        "stages.fetch.attempts": c["attempts"],
        "stages.fetch.hit_ratio": c["hits"] / max(c["attempts"], 1),
        "stages.fetch.html_mb": c["html_bytes"] / 1e6,
        "stages.parse.parse_s": secs["stages.parse"],
        "stages.parse.pages": c["pages"],
        "stages.parse.links_out": c["links_out"],
        "stages.links.candidates_s": secs["stages.links.candidates"],
        # explode emits one row per extracted link of a 200 page
        "stages.links.exploded_rows": c["links_out"],
        "stages.links.winner_rows": c["winner_rows"],
        "stages.links.gate_s": secs["stages.links.gate"],
        "stages.links.new_ratio": c["new_rows"] / max(c["winner_rows"], 1),
        "stages.links.robots_blocked": c["blocked"],
        "state.urlseen.shard_start_s": statistics.median(shard_start) if shard_start else 0.0,
        "state.urlseen.check_and_add_urls_per_s": c["winner_rows"] / gate_s if gate_s else 0.0,
        "state.urlseen.load_urls_per_s": c["load_urls"] / load_s if load_s else 0.0,
        "state.urlseen.shard_rss_mb": max(shard_rss, default=0.0),
        "state.urlseen.seen_urls": c["seen_urls"],
        "state.checkpoint.files_per_round": statistics.mean(f for f, _b in vol) if vol else 0.0,
        "state.checkpoint.mb_per_round": statistics.mean(b for _f, b in vol) / 1e6 if vol else 0.0,
        "state.checkpoint.write_s": (secs["state.checkpoint.write_selected"]
                                     + secs["state.checkpoint.write_crawled"]),
        "pipelines.crawl.round_overhead_s": statistics.mean(
            a - b for a, b in zip(round_s, stage_sums)) if stage_sums else 0.0,
        "pipelines.crawl.overlap_ratio": sum(stage_sums) / sum(round_s[:len(stage_sums)])
        if stage_sums else 0.0,
    }, problems


def _checkpoint_volume(ckpt_dir: str) -> list[tuple[int, int]]:
    """(files, bytes) of each ``round=NNNN/`` dir a crawl round wrote,
    measured on disk."""
    from borges_ray.state import checkpoint as ckpt

    out = []
    for r in range(1, ckpt.last_committed_round(ckpt_dir) + 1):
        files = nbytes = 0
        for dp, _dn, fs in os.walk(ckpt.round_dir(ckpt_dir, r)):
            files += len(fs)
            nbytes += sum(os.path.getsize(os.path.join(dp, f)) for f in fs)
        out.append((files, nbytes))
    return out


def ingest_layers(inp, runs, spans: Spans, work_dir: str,
                  num_cpus: int) -> tuple[dict, list[str]]:
    import shutil

    import ray.data as rd

    from borges_ray.pipelines.ingest import PageFeaturizer, bulk_ingest

    with spans.span("pipelines.ingest.read", "ingest") as s:
        rd.read_parquet(inp.pages_root, columns=["url", "html"]).materialize()
    read_s = s["end"] - s["start"]

    sample = inp.pages.select(["url", "html"]).slice(0, KERNEL_SAMPLE_PAGES)
    pf = PageFeaturizer()
    with spans.span("pipelines.ingest.featurize", "ingest") as s:
        feats = pf(sample)
    featurize_us = (s["end"] - s["start"]) / sample.num_rows * 1e6
    problems = []
    golden = inp.pages["text"].slice(0, KERNEL_SAMPLE_PAGES).to_pylist()
    if feats["extracted_text"].to_pylist() != golden:
        problems.append("PageFeaturizer text differs from the golden text")

    nodedup = []
    out_dir = os.path.join(work_dir, "ingest_nodedup")
    for _ in range(2):
        shutil.rmtree(out_dir, ignore_errors=True)
        with spans.span("pipelines.ingest.bulk_ingest_nodedup", "ingest") as s:
            res = bulk_ingest(inp.pages_root, out_dir, dedup=False,
                              num_cpus_hint=num_cpus)
        nodedup.append(s["end"] - s["start"])
        if res["rows_out"] != inp.pages.num_rows:
            problems.append(f"dedup=False rows_out {res['rows_out']} != "
                            f"{inp.pages.num_rows} pages")
    shutil.rmtree(out_dir, ignore_errors=True)
    return {
        "pipelines.ingest.read_s": read_s,
        "pipelines.ingest.featurize_us_per_page": featurize_us,
        "pipelines.ingest.dedup_s": statistics.median(r["wall_s"] for r in runs)
        - statistics.median(nodedup),
    }, problems
