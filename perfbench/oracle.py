"""Output checks: every engine call the benchmark times is compared with an
independent expectation before its numbers count.

- Crawl: the single-process reference crawler (``reference_crawl.crawl``)
  run once per benchmark process on the same web, seed and round length.
  A run must match it on the seen set with each URL's ``seen_round``, the
  per-host fetch order (``host_seq``), every row's status, and
  byte-identical ``extracted_text`` and ``lang``.
- Ingest: the generator's golden ``text`` column.  Every featurized row
  must carry byte-identical ``extracted_text``; ``rows_out`` must equal
  the number of distinct content fingerprints of the golden texts, and
  the survivor URLs must be the smallest URL of each fingerprint group.

Each check returns a list of human-readable problems; empty means correct.
"""

from __future__ import annotations

import os

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq


class CrawlOracle:
    def __init__(self, pages: pa.Table, seeds: pa.Table, robots: pa.Table,
                 round_ms: int, max_rounds: int, num_partitions: int):
        from reference_crawl import CrawlConfig, crawl

        res = crawl(
            dict(zip(pages["url"].to_pylist(), pages["html"].to_pylist())),
            list(zip(seeds["url"].to_pylist(), seeds["priority"].to_pylist())),
            {r["host"]: {"disallow_prefixes": r["disallow_prefixes"],
                         "allow_prefixes": r["allow_prefixes"],
                         "crawl_delay_ms": r["crawl_delay_ms"]}
             for r in robots.to_pylist()},
            CrawlConfig(round_ms=round_ms, max_rounds=max_rounds,
                        num_partitions=num_partitions),
        )
        self.seen = {r["url"]: r["seen_round"] for r in res.seen}
        self.crawled = (pd.DataFrame(res.crawled).set_index("url")
                        .sort_index())
        self.host_order = _host_order(self.crawled)
        self.rounds = len(res.metrics)
        self.fetch_attempts = int(sum(m["selected"] for m in res.metrics))
        self.links_emitted = int(sum(m["links_emitted"] for m in res.metrics))
        self.pages_200 = int((self.crawled["status"] == 200).sum())

    def check(self, ckpt_dir: str) -> list[str]:
        from borges_ray.pipelines.crawl import collect_crawled, collect_seen

        problems = []
        seen = collect_seen(ckpt_dir).to_pandas()
        eng_seen = dict(zip(seen["url"], seen["seen_round"].astype(int)))
        if len(eng_seen) != len(seen):
            problems.append(f"seen set holds {len(seen) - len(eng_seen)} duplicate urls")
        if eng_seen != self.seen:
            diff = set(eng_seen.items()) ^ set(self.seen.items())
            problems.append(f"seen set or seen_round differs on {len(diff)} entries")
        got = collect_crawled(ckpt_dir).to_pandas().set_index("url").sort_index()
        if list(got.index) != list(self.crawled.index):
            problems.append(f"crawled url set differs ({len(got)} rows vs "
                            f"{len(self.crawled)} expected)")
            return problems
        for col in ("status", "extracted_text", "lang"):
            bad = int((got[col].to_numpy() != self.crawled[col].to_numpy()).sum())
            if bad:
                problems.append(f"{bad} rows differ in {col}")
        if _host_order(got) != self.host_order:
            problems.append("per-host fetch order (host_seq) differs")
        return problems


def _host_order(crawled: pd.DataFrame) -> dict[str, list[str]]:
    fetched = crawled[crawled["status"] != 999].reset_index()
    return {h: g.sort_values("host_seq")["url"].tolist()
            for h, g in fetched.groupby("host")}


class IngestOracle:
    def __init__(self, pages: pa.Table):
        from borges_ray.ops.textops import fingerprint_batch

        golden = pd.DataFrame({"url": pages["url"].to_pylist(),
                               "text": pages["text"].to_pylist()})
        golden["fp"] = fingerprint_batch(golden["text"]).to_numpy()
        self.text = dict(zip(golden["url"], golden["text"]))
        self.rows_out = int(golden["fp"].nunique())
        winners = (golden.sort_values("url", kind="mergesort")
                   .drop_duplicates(subset="fp", keep="first"))
        self.survivors = set(winners["url"])

    def check(self, out_dir: str, rows_out: int) -> list[str]:
        problems = []
        feats = pq.read_table(os.path.join(out_dir, "features"),
                              columns=["url", "extracted_text"])
        got = dict(zip(feats["url"].to_pylist(),
                       feats["extracted_text"].to_pylist()))
        if len(got) != feats.num_rows or got.keys() != self.text.keys():
            problems.append(f"featurized url set differs ({feats.num_rows} rows "
                            f"vs {len(self.text)} pages)")
        else:
            bad = sum(got[u] != t for u, t in self.text.items())
            if bad:
                problems.append(f"{bad} rows differ in extracted_text")
        if rows_out != self.rows_out:
            problems.append(f"rows_out {rows_out} != {self.rows_out} distinct fingerprints")
        surv = set(pq.read_table(os.path.join(out_dir, "survivors"),
                                 columns=["url"])["url"].to_pylist())
        if surv != self.survivors:
            problems.append(f"survivor set differs on {len(surv ^ self.survivors)} urls")
        return problems
