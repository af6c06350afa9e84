"""``tools/crawl_report.py`` on a 2-round crawl: one line per round that
ran, whose numbers equal the checkpoint's METRICS, crawled rows and
persisted timings."""

from __future__ import annotations

import importlib.util
import os

import pyarrow.parquet as pq

from borges_ray.pipelines.crawl import EngineConfig, run_crawl
from borges_ray.stages.fetch import write_pages_bucketed
from borges_ray.state import checkpoint as ckpt
from borges_ray.synth import synth_pages, synth_robots, synth_seeds

TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "tools", "crawl_report.py")


def _tool():
    spec = importlib.util.spec_from_file_location("crawl_report", TOOL)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_crawl_report_two_rounds(ray_session, tmp_path, capsys):
    pages_root = str(tmp_path / "pages")
    write_pages_bucketed(synth_pages(42, 300).select(["url", "html"]), pages_root,
                         num_buckets=4)
    ckpt_dir = str(tmp_path / "ckpt")
    summary = run_crawl(pages_root, synth_seeds(42, 300),
                        synth_robots(42, 300).to_pandas(),
                        EngineConfig(max_rounds=2, num_partitions=4, num_buckets=4),
                        ckpt_dir, resume=False)
    tool = _tool()
    rows = tool.report(ckpt_dir)
    assert [r["round"] for r in rows] == [0, 1]
    for r in rows:
        next_dir = ckpt.round_dir(ckpt_dir, r["round"] + 1)
        m = pq.read_table(os.path.join(next_dir, "metrics")).to_pandas()
        assert r["frontier_rows"] == int(m["frontier_size"].iloc[0])
        for col in ("selected", "fetched", "links_new", "blocked"):
            assert r[col] == int(m[col].sum()), col
        crawled = pq.read_table(os.path.join(next_dir, "crawled")).to_pandas()
        assert r["status"] == crawled["status"].value_counts().to_dict()
        assert r["status"].get(999, 0) == r["blocked"]
        assert r["phase_s"] == summary["phase_s"][r["round"]]
        assert r["seen_filter_bytes"] > 0 and r["other_bytes"] > 0
    assert rows[0]["selected"] > 0 and rows[1]["links_new"] > 0

    tool.main([ckpt_dir])
    out = capsys.readouterr().out.splitlines()
    assert out[0].split()[:3] == ["round", "frontier", "selected"]
    assert len(out) == 1 + 2 * len(rows)
