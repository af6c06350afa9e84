"""Resume exactness (SURVEY.md §5 item 4): a crawl killed mid-run and
resumed produces byte-identical final tables to an uninterrupted run."""

from __future__ import annotations

import os
import shutil

import pytest

from borges_ray.pipelines.crawl import EngineConfig, collect_crawled, collect_seen, run_crawl
from borges_ray.stages.fetch import write_pages_bucketed
from borges_ray.state import checkpoint as ckpt
from borges_ray.synth import synth_pages, synth_robots, synth_seeds

N_PAGES = 300
SEED = 42
CFG = dict(max_rounds=4, num_partitions=8, num_buckets=4, num_seen_shards=2)


@pytest.fixture(scope="module")
def web(tmp_path_factory):
    root = tmp_path_factory.mktemp("rweb")
    pages_root = str(root / "pages")
    pages = synth_pages(SEED, N_PAGES)
    write_pages_bucketed(pages.select(["url", "html"]), pages_root, num_buckets=4)
    return pages_root, synth_seeds(SEED, N_PAGES), synth_robots(SEED, N_PAGES).to_pandas(), str(root)


def _tables(ckpt_dir):
    crawled = collect_crawled(ckpt_dir).to_pandas().sort_values("url").reset_index(drop=True)
    seen = collect_seen(ckpt_dir).to_pandas().sort_values("url").reset_index(drop=True)
    return crawled, seen


def test_resume_equals_uninterrupted(web, ray_session):
    pages_root, seeds, robots, root = web

    full_dir = os.path.join(root, "full")
    run_crawl(pages_root, seeds, robots, EngineConfig(**CFG), full_dir, resume=False)

    # interrupted run: stop after 2 rounds, then resume to the end
    part_dir = os.path.join(root, "part")
    run_crawl(pages_root, seeds, robots, EngineConfig(**{**CFG, "max_rounds": 2}), part_dir, resume=False)
    run_crawl(pages_root, seeds, robots, EngineConfig(**CFG), part_dir, resume=True)

    fc, fs = _tables(full_dir)
    pc_, ps = _tables(part_dir)
    assert fc.equals(pc_)
    assert fs.equals(ps)


def test_resume_replays_uncommitted_round(web, ray_session):
    pages_root, seeds, robots, root = web

    full_dir = os.path.join(root, "full")  # built by previous test (module scope)
    if ckpt.last_committed_round(full_dir) < 0:
        run_crawl(pages_root, seeds, robots, EngineConfig(**CFG), full_dir, resume=False)

    # simulate a mid-round crash: copy, strip the last round's commit marker
    # and half-delete its contents
    crash_dir = os.path.join(root, "crash")
    if os.path.isdir(crash_dir):
        shutil.rmtree(crash_dir)
    shutil.copytree(full_dir, crash_dir)
    last = ckpt.last_committed_round(crash_dir)
    rd = ckpt.round_dir(crash_dir, last)
    os.remove(os.path.join(rd, "_COMMITTED"))
    shutil.rmtree(os.path.join(rd, "seen_delta"))  # partial write

    run_crawl(pages_root, seeds, robots, EngineConfig(**CFG), crash_dir, resume=True)

    fc, fs = _tables(full_dir)
    cc, cs = _tables(crash_dir)
    assert fc.equals(cc)
    assert fs.equals(cs)


@pytest.mark.parametrize("field, value", [("num_partitions", 4),
                                          ("seen_filter", "cuckoo"),
                                          ("state_key", None),
                                          ("state_key", "host_bucket")])
def test_resume_with_other_layout_raises(web, ray_session, field, value):
    """``round=0000/_MANIFEST`` records the layout settings; a resume that
    changes one (here the partitioning of the seen filters, or their kind)
    raises naming it instead of mis-routing membership.  A manifest without
    the state key (written before all round state was keyed by host
    bucket), or with the key of the layout whose host state sat in
    ``hb=<b>/`` dirs, raises too."""
    import json

    pages_root, seeds, robots, root = web
    ckpt_dir = os.path.join(root, f"layout_{field}")
    run_crawl(pages_root, seeds, robots, EngineConfig(**{**CFG, "max_rounds": 1}),
              ckpt_dir, resume=False)
    if field == "state_key":
        path = os.path.join(ckpt.round_dir(ckpt_dir, 0), ckpt.MANIFEST)
        with open(path) as f:
            manifest = json.load(f)
        if value is None:
            del manifest["state_key"]
        else:
            manifest["state_key"] = value
        with open(path, "w") as f:
            json.dump(manifest, f)
        cfg = EngineConfig(**CFG)
    else:
        cfg = EngineConfig(**{**CFG, field: value})
    with pytest.raises(ValueError, match=field):
        run_crawl(pages_root, seeds, robots, cfg, ckpt_dir, resume=True)
    assert ckpt.last_committed_round(ckpt_dir) == 1
