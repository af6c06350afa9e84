"""Round phases of ``run_crawl``: per-phase timings come back in the
summary, and an exception raised in any phase of a round surfaces from
``run_crawl`` with no phase still running, after which a resume finishes
the crawl exactly as an uninterrupted run does."""

from __future__ import annotations

import os
import threading

import pytest

from borges_ray.pipelines import crawl
from borges_ray.pipelines.crawl import EngineConfig, collect_crawled, collect_seen, run_crawl
from borges_ray.stages.fetch import fetch_selected, write_pages_bucketed
from borges_ray.state import checkpoint as ckpt
from borges_ray.synth import synth_pages, synth_robots, synth_seeds

N_PAGES = 300
SEED = 42
CFG = dict(max_rounds=4, num_partitions=8, num_buckets=4, num_seen_shards=2)
FAIL_ROUND = 2
# timed in every round; the first round of a call selects and fetches
# in-line, later rounds wait on the prefetch the round before launched
PHASES = {"host_state", "write_sel", "defer", "write_crawled", "gate_split",
          "metrics", "commit", "total"}
PREFETCH = {"prefetch_select", "prefetch_fetch_parse"}


@pytest.fixture(scope="module")
def web(tmp_path_factory):
    root = tmp_path_factory.mktemp("phaseweb")
    pages_root = str(root / "pages")
    pages = synth_pages(SEED, N_PAGES)
    write_pages_bucketed(pages.select(["url", "html"]), pages_root, num_buckets=4)
    return pages_root, synth_seeds(SEED, N_PAGES), synth_robots(SEED, N_PAGES).to_pandas(), str(root)


def _tables(ckpt_dir):
    crawled = collect_crawled(ckpt_dir).to_pandas().sort_values("url").reset_index(drop=True)
    seen = collect_seen(ckpt_dir).to_pandas().sort_values("url").reset_index(drop=True)
    return crawled, seen


@pytest.fixture(scope="module")
def full(web, ray_session):
    pages_root, seeds, robots, root = web
    ckpt_dir = os.path.join(root, "full")
    summary = run_crawl(pages_root, seeds, robots, EngineConfig(**CFG), ckpt_dir,
                        resume=False)
    return summary, _tables(ckpt_dir)


def test_summary_carries_phase_seconds_per_round(full):
    summary, _ = full
    assert summary["rounds"] == CFG["max_rounds"]
    assert len(summary["phase_s"]) == summary["rounds"]
    last = summary["rounds"] - 1
    for r, times in enumerate(summary["phase_s"]):
        in_line = {"select", "fetch_parse"} if r == 0 else {"prefetch_wait"}
        assert set(times) == PHASES | in_line | (PREFETCH if r < last else set())
        assert all(s >= 0 for s in times.values())
        # every in-round phase, futures included, ends before the commit
        assert times["total"] >= max(
            s for k, s in times.items() if k not in PREFETCH)


def _fails_in_round(fn, hit):
    """``fn``, raising an injected error on the call ``hit`` matches."""

    def wrapped(*args, **kw):
        if hit(*args, **kw):
            raise RuntimeError("injected failure")
        return fn(*args, **kw)

    return wrapped


# phase -> (module, attribute, "is this the failing round's call?")
PATCHED = {
    "host_state": (crawl, "_update_host_state", lambda *a: a[5] == FAIL_ROUND),
    "defer": (crawl, "defer_frontier",
              lambda frontier, sel_dir: ckpt.round_dir("", FAIL_ROUND + 1) in sel_dir),
    "gate": (crawl, "gate_links", lambda *a: a[3] == FAIL_ROUND + 1),
    "commit": (ckpt, "commit_round", lambda ckpt_dir, r: r == FAIL_ROUND + 1),
}


@pytest.mark.parametrize("phase", ["fetch", *PATCHED])
def test_phase_failure_surfaces_then_resumes_exactly(phase, web, full, monkeypatch):
    pages_root, seeds, robots, root = web
    ckpt_dir = os.path.join(root, f"fail_{phase}")
    cfg = EngineConfig(**CFG)
    if phase == "fetch":
        cfg.fetcher = _fails_in_round(
            lambda sel, cfg, rnd: fetch_selected(sel, pages_root, cfg.num_buckets),
            lambda sel, cfg, rnd: rnd == FAIL_ROUND)
    else:
        module, name, hit = PATCHED[phase]
        monkeypatch.setattr(module, name, _fails_in_round(getattr(module, name), hit))

    before = set(threading.enumerate())
    with pytest.raises(RuntimeError, match="injected failure"):
        run_crawl(pages_root, seeds, robots, cfg, ckpt_dir, resume=False)
    # every phase of the failed round has finished: none can race the
    # resume's clean-up of the uncommitted round
    alive = [t.name for t in threading.enumerate()
             if t not in before and not t.daemon and t.is_alive()]
    assert alive == []
    assert ckpt.last_committed_round(ckpt_dir) == FAIL_ROUND

    monkeypatch.undo()
    run_crawl(pages_root, seeds, robots, EngineConfig(**CFG), ckpt_dir, resume=True)
    _, (fc, fs) = full
    rc, rs = _tables(ckpt_dir)
    assert fc.equals(rc)
    assert fs.equals(rs)
