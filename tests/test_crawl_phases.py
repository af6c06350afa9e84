"""Round phases of ``run_crawl``: per-phase timings come back in the
summary and persist in each committed round's ``timings/`` table; a round
starts at most two Ray Data executions; and an exception raised in any
phase of a round surfaces from ``run_crawl``, after which a resume
finishes the crawl exactly as an uninterrupted run does."""

from __future__ import annotations

import os
import threading

import pandas as pd
import pyarrow.parquet as pq
import pytest

from borges_ray.pipelines import crawl
from borges_ray.pipelines.crawl import (EngineConfig, collect_crawled, collect_seen,
                                        read_timings, run_crawl)
from borges_ray.stages.fetch import fetch_selected, write_pages_bucketed
from borges_ray.state import checkpoint as ckpt
from borges_ray.synth import synth_pages, synth_robots, synth_seeds

N_PAGES = 300
SEED = 42
CFG = dict(max_rounds=4, num_partitions=8, num_buckets=4, num_seen_shards=2)
FAIL_ROUND = 2
# timed in every round: B (fetch + parse) and CA (per-bucket gate of this
# round's links + selection of the next round); the first round of a call
# also runs a standalone selection
PHASES = {"fetch_parse", "gate_select", "metrics", "total"}
FIRST = {"select"}


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
    for r, times in enumerate(summary["phase_s"]):
        assert set(times) == PHASES | (FIRST if r == 0 else set())
        assert all(s >= 0 for s in times.values())
        # the phases run serially inside the round's total (each value is
        # rounded to 0.1 ms)
        assert times["total"] >= sum(s for k, s in times.items() if k != "total") - 1e-3


def test_timings_persisted_per_round(full):
    """Every committed round >= 1 holds its round's ``timings/`` table
    (``phase: string, seconds: double``), equal to the summary's
    ``phase_s``."""
    summary, _ = full
    last = ckpt.last_committed_round(summary["ckpt_dir"])
    for r in range(1, last + 1):
        t = pq.read_table(os.path.join(ckpt.round_dir(summary["ckpt_dir"], r), "timings"))
        assert [str(f.type) for f in t.schema] == ["string", "double"]
        assert dict(zip(t["phase"].to_pylist(), t["seconds"].to_pylist())) == \
            summary["phase_s"][r - 1]
    assert read_timings(summary["ckpt_dir"]) == summary["phase_s"]


def _documented_layout():
    """subdir ("" for the round dir itself) -> file-name regexes, read from
    the layout tree in ``state/checkpoint.py``'s docstring: ``<b>`` is a
    five-digit host bucket, ``<digest>`` 16 hex digits."""
    import re

    lines = ckpt.__doc__.splitlines()
    start = lines.index("    ckpt/") + 2          # past ckpt/ and round=0000/
    layout: dict[str, list] = {}
    sub = None
    for line in lines[start:]:
        if not line.strip():
            break
        tokens = [t.rstrip(",") for t in line.split()]
        if re.fullmatch(r"[a-z_]+/", tokens[0]):
            sub = tokens.pop(0)[:-1]
        elif re.fullmatch(r"_[A-Z]+", tokens[0]):
            layout.setdefault("", []).append(re.compile(re.escape(tokens[0])))
            continue
        for t in tokens:
            if re.fullmatch(r"[\w<>-]+\.(parquet|arrow|bits)", t):
                layout.setdefault(sub, []).append(re.compile(
                    re.escape(t).replace("<b>", r"\d{5}")
                    .replace("<digest>", "[0-9a-f]{16}")))
    return layout


def test_checkpoint_files_match_documented_layout(full):
    """Every file under every ``round=NNNN/`` of the committed 4-round crawl
    matches a file pattern of its subdir in the checkpoint module's layout
    docstring — no stray tmp file, nested dir or undocumented name."""
    summary, _ = full
    layout = _documented_layout()
    assert {"frontier", "host_state", "seen_delta", "seen_filter", "crawled",
            "cand", "tally", "metrics", "timings", ""} <= set(layout)
    ckpt_dir, seen_subdirs = summary["ckpt_dir"], set()
    for r in range(ckpt.last_committed_round(ckpt_dir) + 1):
        rdir = ckpt.round_dir(ckpt_dir, r)
        for dp, _dn, fs in os.walk(rdir):
            sub = os.path.relpath(dp, rdir)
            sub = "" if sub == "." else sub
            seen_subdirs.add(sub)
            for f in fs:
                assert any(p.fullmatch(f) for p in layout.get(sub, ())), \
                    os.path.join(rdir, sub, f)
    assert seen_subdirs == set(layout)


def test_round_runs_two_executions(web, ray_session, monkeypatch):
    """Counted by wrapping ``StreamingExecutor.execute``: on a 4-round
    crawl every round after the first starts at most two Ray Data
    executions (fetch + parse, then the per-bucket gate + select), the
    first at most three, and the call at most 2·rounds + 1."""
    from ray.data._internal.execution.streaming_executor import StreamingExecutor

    pages_root, seeds, robots, root = web
    started, per_commit = [0], []
    real_execute, real_commit = StreamingExecutor.execute, ckpt.commit_round

    def execute(self, *a, **kw):
        started[0] += 1
        return real_execute(self, *a, **kw)

    def commit(ckpt_dir, r):
        per_commit.append(started[0])
        return real_commit(ckpt_dir, r)

    monkeypatch.setattr(StreamingExecutor, "execute", execute)
    monkeypatch.setattr(ckpt, "commit_round", commit)
    summary = run_crawl(pages_root, seeds, robots, EngineConfig(**CFG),
                        os.path.join(root, "count"), resume=False)
    rounds = summary["rounds"]
    assert rounds == CFG["max_rounds"]
    # per_commit[0] is bootstrap's round-0 commit
    per_round = [b - a for a, b in zip(per_commit, per_commit[1:])]
    assert len(per_round) == rounds
    assert per_round[0] <= 3 and all(n <= 2 for n in per_round[1:]), per_round
    assert started[0] <= 2 * rounds + 1


def _metrics(ckpt_dir):
    last = ckpt.last_committed_round(ckpt_dir)
    return pd.concat([pq.read_table(os.path.join(ckpt.round_dir(ckpt_dir, r), "metrics"))
                      .to_pandas() for r in range(1, last + 1)],
                     ignore_index=True).sort_values(["round", "partition"],
                                                    ignore_index=True)


def test_bucket_task_failure_resumes_exactly(web, full, ray_session, monkeypatch):
    """A failure inside one bucket task of round 2's gate + select
    execution (its candidate file is unreadable), after other bucket tasks
    have written round 3's and round 4's files, surfaces from
    ``run_crawl``; the resume deletes the uncommitted rounds and equals the
    uninterrupted run on crawled, seen and METRICS."""
    pages_root, seeds, robots, root = web
    ckpt_dir = os.path.join(root, "fail_bucket_task")
    real = crawl._bucket_round

    def corrupting(ckpt_dir_, cfg, robots_ref, delays_ref, gate_round, select_round):
        if gate_round == FAIL_ROUND:
            cand = os.path.join(ckpt.round_dir(ckpt_dir_, FAIL_ROUND + 1), "cand")
            victim = max(os.listdir(cand))  # the highest bucket runs last
            with open(os.path.join(cand, victim), "wb") as f:
                f.write(b"not parquet")
        return real(ckpt_dir_, cfg, robots_ref, delays_ref, gate_round, select_round)

    monkeypatch.setattr(crawl, "_bucket_round", corrupting)
    with pytest.raises(Exception):
        run_crawl(pages_root, seeds, robots, EngineConfig(**CFG), ckpt_dir, resume=False)
    assert ckpt.last_committed_round(ckpt_dir) == FAIL_ROUND
    # other buckets' tasks got as far as pre-writing round 4's state
    assert os.listdir(ckpt.round_dir(ckpt_dir, FAIL_ROUND + 2))

    monkeypatch.undo()
    run_crawl(pages_root, seeds, robots, EngineConfig(**CFG), ckpt_dir, resume=True)
    summary, (fc, fs) = full
    rc, rs = _tables(ckpt_dir)
    assert fc.equals(rc)
    assert fs.equals(rs)
    assert _metrics(summary["ckpt_dir"]).equals(_metrics(ckpt_dir))


def _fails_in_round(fn, hit):
    """``fn``, raising an injected error on the call ``hit`` matches."""

    def wrapped(*args, **kw):
        if hit(*args, **kw):
            raise RuntimeError("injected failure")
        return fn(*args, **kw)

    return wrapped


def _fails_after_round(fn, hit):
    """``fn``, raising an injected error AFTER the call ``hit`` matches
    has run (its outputs are written but the round is not committed)."""

    def wrapped(*args, **kw):
        out = fn(*args, **kw)
        if hit(*args, **kw):
            raise RuntimeError("injected failure")
        return out

    return wrapped


def _ca_of(rnd):
    """Is this ``_bucket_round`` call round ``rnd``'s gate + select?"""
    return lambda ckpt_dir, cfg, robots_ref, delays_ref, gate_round, select_round: (
        gate_round == rnd)


# phase -> (wrapper, module, attribute, "is this the failing round's call?").
# Each key names round state that is written but not yet committed when
# the failure fires: before round 2's gate (gate); after round 2's gate +
# select wrote round 3's links and round 4's pre-written host state and
# deferred rows (host_state); in round 2's metrics (defer: every deferred
# row of rounds 3 and 4 is on disk); at the commit (commit).
PATCHED = {
    "host_state": (_fails_after_round, crawl, "_bucket_round", _ca_of(FAIL_ROUND)),
    "defer": (_fails_in_round, crawl, "_write_metrics",
              lambda next_dir, rnd, *a: rnd == FAIL_ROUND),
    "gate": (_fails_in_round, crawl, "_bucket_round", _ca_of(FAIL_ROUND)),
    "commit": (_fails_in_round, ckpt, "commit_round",
               lambda ckpt_dir, r: r == FAIL_ROUND + 1),
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
        wrap, module, name, hit = PATCHED[phase]
        monkeypatch.setattr(module, name, wrap(getattr(module, name), hit))

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
