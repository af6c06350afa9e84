"""Unit tests for the state layer: Bloom filter, seen shards, checkpoints."""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pytest

from borges_ray.state.bloom import BloomFilter
from borges_ray.state import checkpoint as ckpt


def test_bloom_no_false_negatives_and_low_fp():
    bf = BloomFilter(capacity=10_000, fp_rate=0.01)
    keys = [f"http://h{i}.example/p/{i}" for i in range(5000)]
    bf.add_batch(keys)
    assert bf.maybe_contains_batch(keys).all()          # no false negatives
    other = [f"http://other{i}.example/x" for i in range(5000)]
    fp = bf.maybe_contains_batch(other).mean()
    assert fp < 0.03                                     # ~1% target


def test_bloom_empty_and_determinism():
    bf1, bf2 = BloomFilter(1000), BloomFilter(1000)
    assert bf1.maybe_contains_batch([]).shape == (0,)
    bf1.add_batch(["a", "b"]); bf2.add_batch(["a", "b"])
    assert (bf1.bits == bf2.bits).all()


def test_cuckoo_membership_delete_and_determinism():
    from borges_ray.state.cuckoo import CuckooFilter

    cf = CuckooFilter(capacity=10_000)
    keys = [f"http://h{i}.example/p/{i}" for i in range(5000)]
    cf.add_batch(keys)
    assert cf.contains_batch(keys).all()                 # no false negatives
    other = [f"http://other{i}.example/x" for i in range(5000)]
    assert cf.contains_batch(other).mean() < 0.005       # ~0.012% design rate

    # deletion: removed keys become definitely-absent, others unaffected
    gone, kept = keys[:2500], keys[2500:]
    assert cf.delete_batch(gone).all()
    assert not cf.contains_batch(gone).any()
    assert cf.contains_batch(kept).all()
    assert cf.count == len(kept)

    # determinism: same op sequence → identical table (resume rebuild)
    cf2 = CuckooFilter(capacity=10_000)
    cf2.add_batch(keys)
    cf2.delete_batch(gone)
    assert (cf.table == cf2.table).all()


def test_cuckoo_over_capacity_raises():
    from borges_ray.state.cuckoo import CuckooFilter

    cf = CuckooFilter(capacity=1024)  # 1024-min floor → 512 buckets × 4
    with pytest.raises(RuntimeError):
        cf.add_batch([f"k{i}" for i in range(4096)])


@pytest.mark.parametrize("kind", ["bloom", "cuckoo"])
def test_seen_shards_invalidate_readmits(ray_session, kind):
    """Recrawl invalidation: forgotten URLs come back as NEW on the next
    round, untouched URLs stay seen — under either filter backend (cuckoo
    additionally deletes the fingerprint; Bloom just goes stale on the
    fast path, membership truth being the exact set either way)."""
    from borges_ray.state.urlseen import (
        create_seen_index, seen_check_and_add, seen_invalidate)

    shards = create_seen_index(2, 10_000, filter_kind=kind)
    urls = [f"http://h.example/{i}" for i in range(50)]
    assert seen_check_and_add(shards, urls, 1).all()
    stale = urls[::5]
    assert seen_invalidate(shards, stale) == len(stale)
    assert seen_invalidate(shards, stale) == 0           # idempotent
    m = seen_check_and_add(shards, urls, 2)
    assert m.sum() == len(stale)
    assert all(m[i] == (i % 5 == 0) for i in range(50))
    # re-admitted URLs are seen again afterwards
    assert not seen_check_and_add(shards, stale, 3).any()


def test_seen_shards_exactly_once(ray_session):
    from borges_ray.state.urlseen import create_seen_index, seen_check_and_add

    shards = create_seen_index(2, 10_000)
    urls = [f"http://h.example/{i}" for i in range(100)]
    m1 = seen_check_and_add(shards, urls, 1)
    assert m1.all()                                      # all new first time
    m2 = seen_check_and_add(shards, urls + ["http://h.example/new"], 2)
    assert m2[:-1].sum() == 0 and m2[-1]                 # only the new one
    # idempotent retry: same round re-observes its own additions as new
    m3 = seen_check_and_add(shards, ["http://h.example/new"], 2)
    assert m3.tolist() == [True]
    m4 = seen_check_and_add(shards, ["http://h.example/new"], 3)
    assert m4.tolist() == [False]


def test_seen_shards_resume_load(ray_session):
    from borges_ray.state.urlseen import create_seen_index, seen_check_and_add
    import ray

    from borges_ray.canonical import stable_hash

    shards = create_seen_index(2, 10_000)
    preloaded = ["http://a.example/", "http://b.example/"]
    for u in preloaded:  # resume path routes by the same hash as check_and_add
        ray.get(shards[stable_hash(u) % 2].load_keys.remote([u]))
    m = seen_check_and_add(shards, preloaded + ["http://c.example/"], 0)
    assert m.tolist() == [False, False, True]


def test_checkpoint_commit_and_resume(tmp_path):
    d = str(tmp_path / "ck")
    t = pa.table({"x": pa.array([1, 2, 3])})
    for r in range(3):
        os.makedirs(ckpt.round_dir(d, r), exist_ok=True)
        ckpt.write_table(d, r, "crawled", t)
        ckpt.commit_round(d, r)
    # round 3 exists but uncommitted
    os.makedirs(ckpt.round_dir(d, 3), exist_ok=True)
    ckpt.write_table(d, 3, "crawled", t)
    assert ckpt.last_committed_round(d) == 2
    ckpt.clean_uncommitted(d)
    assert not os.path.isdir(ckpt.round_dir(d, 3))
    all_t = ckpt.read_all_rounds(d, "crawled", 2)
    assert all_t.num_rows == 9


def test_checkpoint_gap_invalidates_tail(tmp_path):
    d = str(tmp_path / "ck2")
    t = pa.table({"x": pa.array([1])})
    for r in (0, 1, 2):
        os.makedirs(ckpt.round_dir(d, r), exist_ok=True)
        ckpt.write_table(d, r, "m", t)
        if r != 1:
            ckpt.commit_round(d, r)
    assert ckpt.last_committed_round(d) == 0     # gap at 1 → 2 doesn't count


def test_write_table_atomic_overwrite(tmp_path):
    d = str(tmp_path / "ck3")
    os.makedirs(ckpt.round_dir(d, 0), exist_ok=True)
    ckpt.write_table(d, 0, "m", pa.table({"x": pa.array([1])}))
    ckpt.write_table(d, 0, "m", pa.table({"x": pa.array([7, 8])}))  # idempotent replay
    assert ckpt.read_table(d, 0, "m")["x"].to_pylist() == [7, 8]


# ---- per-partition seen gate (state.seenfilter + stages.links.gate_partition)

P = 4


def _seen_setup(root, kind, history_urls, capacity=10_000):
    """Round-r state of one crawl over ``P`` partitions: a committed
    seen_delta file holding ``history_urls`` and round r's filters built
    from it; returns ``SeenFilters`` writing round r+1's filters."""
    import pyarrow.parquet as pq

    from borges_ray.canonical import partition_of
    from borges_ray.schemas import SEEN
    from borges_ray.state import seenfilter

    by_part: dict[int, list[str]] = {}
    for u in history_urls:
        by_part.setdefault(partition_of(u, P), []).append(u)
    src, dst = os.path.join(root, "src"), os.path.join(root, "dst")
    seenfilter.seed_filters(src, kind, capacity, P, by_part)
    os.makedirs(dst, exist_ok=True)
    hist = os.path.join(root, "seen-0.parquet")
    pq.write_table(pa.table({
        "url": history_urls,
        "partition": [partition_of(u, P) for u in history_urls],
        "seen_round": [0] * len(history_urls)}, schema=SEEN), hist)
    return seenfilter.SeenFilters(kind, capacity, src, dst, (hist,))


def _candidates(urls, part):
    import pandas as pd

    return pd.DataFrame({
        "url": urls, "host": [u.split("/")[2] for u in urls],
        "depth": np.int32(1), "priority": np.int32(3),
        "discovered_round": np.int32(1), "parent_url": "http://s.example/",
        "partition": np.int32(part)})


def _one_partition(history, fresh):
    """History and candidate urls of one partition (the partition of the
    first history url)."""
    from borges_ray.canonical import partition_of

    p = partition_of(history[0], P)
    return (p, [u for u in history if partition_of(u, P) == p],
            [u for u in fresh if partition_of(u, P) == p])


HIST = [f"http://h{i % 7}.example/old/{i}" for i in range(400)]
FRESH = [f"http://h{i % 7}.example/new/{i}" for i in range(400)]


def test_saturated_filter_confirms_every_url_exactly(tmp_path, monkeypatch):
    """Every bit set: each candidate goes down the exact-confirm path, and
    the new rows equal those of a filter built from the same history; with
    no history they equal an empty filter's."""
    from borges_ray.stages.links import gate_partition
    from borges_ray.state import seenfilter

    p, hist, fresh = _one_partition(HIST, FRESH)
    cands = _candidates(hist[::2] + fresh, p)

    exact = _seen_setup(str(tmp_path / "exact"), "bloom", HIST)
    want = gate_partition(cands, exact, {})
    assert sorted(want["url"]) == sorted(fresh)

    confirmed: list[str] = []
    real = seenfilter.in_history
    monkeypatch.setattr(seenfilter, "in_history", lambda files, q, urls: (
        confirmed.extend(urls), real(files, q, urls))[1])
    for hist_urls, name in ((HIST, "sat"), ([], "sat_empty")):
        sat = _seen_setup(str(tmp_path / name), "bloom", hist_urls)
        path = seenfilter.filter_path(sat.src, p)
        with open(path, "rb") as f:
            n = len(f.read())
        with open(path, "wb") as f:
            f.write(b"\xff" * n)
        confirmed.clear()
        got = gate_partition(cands, sat, {})
        assert sorted(confirmed) == sorted(cands["url"])
        if hist_urls:
            assert got.equals(want)
        else:
            empty = _seen_setup(str(tmp_path / "empty"), "bloom", [])
            assert got.equals(gate_partition(cands, empty, {}))
            assert len(got) == len(cands)


@pytest.mark.parametrize("kind", ["bloom", "cuckoo"])
def test_partition_gate_retry_is_byte_identical(tmp_path, kind):
    """A retried partition task (same round, same committed inputs) writes
    byte-identical filter and seen files and returns identical rows; the
    written filter then holds exactly the partition's history + new urls."""
    from borges_ray.pipelines.crawl import _make_split_emit
    from borges_ray.stages.links import gate_partition
    from borges_ray.state import seenfilter

    p, hist, fresh = _one_partition(HIST, FRESH)
    seen = _seen_setup(str(tmp_path), kind, HIST)
    cands = _candidates(hist[1::3] + fresh, p)
    robots = {"h1.example": (("/new/1",), ())}
    runs = []
    for attempt in range(2):
        out = gate_partition(cands.sample(frac=1, random_state=attempt), seen, robots)
        dirs = [str(tmp_path / f"try{attempt}" / d)
                for d in ("frontier", "seen_delta", "crawled")]
        for d in dirs:
            os.makedirs(d)
        _make_split_emit(0, *dirs)(out)
        with open(seenfilter.filter_path(seen.dst, p), "rb") as f:
            bits = f.read()
        base = tmp_path / f"try{attempt}"
        files = {str(f.relative_to(base)): f.read_bytes()
                 for f in base.rglob("*") if f.is_file()}
        runs.append((out.reset_index(drop=True), bits, files))
    (o1, b1, f1), (o2, b2, f2) = runs
    assert o1.equals(o2) and b1 == b2 and f1 == f2
    assert sorted(o1["url"]) == sorted(fresh) and o1["blocked"].any()
    assert any(k.startswith("seen_delta") for k in f1)
    written = seenfilter.read_filter(kind, seen.capacity, seenfilter.filter_path(seen.dst, p))
    assert written.maybe_contains_batch(hist + fresh).all()


def test_seen_filter_bits_round_trip_and_size_check():
    from borges_ray.state.cuckoo import CuckooFilter

    keys = [f"http://h.example/{i}" for i in range(300)]
    for cls in (BloomFilter, CuckooFilter):
        f = cls(5000)
        f.add_batch(keys)
        g = cls.frombytes(5000, f.tobytes())
        assert g.tobytes() == f.tobytes()
        assert g.maybe_contains_batch(keys).all()
        with pytest.raises(ValueError):
            cls.frombytes(50_000, f.tobytes())
    assert CuckooFilter.frombytes(5000, CuckooFilter(5000).tobytes()).count == 0
