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


def _put(d, r, name, t):
    """``t`` as round ``r``'s ``name/`` table, through the checkpoint writer."""
    ckpt.write_file(os.path.join(ckpt.round_dir(d, r), name, "part-0.parquet"), t)


def test_checkpoint_commit_and_resume(tmp_path):
    d = str(tmp_path / "ck")
    t = pa.table({"x": pa.array([1, 2, 3])})
    for r in range(3):
        _put(d, r, "crawled", t)
        ckpt.commit_round(d, r)
    # round 3 exists but uncommitted
    _put(d, 3, "crawled", t)
    assert ckpt.last_committed_round(d) == 2
    ckpt.clean_uncommitted(d)
    assert not os.path.isdir(ckpt.round_dir(d, 3))
    all_t = ckpt.read_all_rounds(d, "crawled", 2)
    assert all_t.num_rows == 9


def test_checkpoint_gap_invalidates_tail(tmp_path):
    d = str(tmp_path / "ck2")
    t = pa.table({"x": pa.array([1])})
    for r in (0, 1, 2):
        _put(d, r, "m", t)
        if r != 1:
            ckpt.commit_round(d, r)
    assert ckpt.last_committed_round(d) == 0     # gap at 1 → 2 doesn't count


def test_write_file_atomic_overwrite(tmp_path):
    """A rewrite (idempotent replay) replaces the file whole, for Parquet,
    Arrow IPC and raw bytes alike, and leaves no tmp file behind."""
    d = str(tmp_path / "ck3" / "sub")
    for ext in ("parquet", "arrow"):
        path = ckpt.bucket_file(d, 3, "m", ext)
        ckpt.write_file(path, pa.table({"x": pa.array([1])}))
        ckpt.write_file(path, pa.table({"x": pa.array([7, 8])}))
        assert ckpt.read_file(path)["x"].to_pylist() == [7, 8]
    path = ckpt.bucket_file(d, 3, "filter", "bits")
    ckpt.write_file(path, b"\x01\x02")
    ckpt.write_file(path, b"\x07")
    with open(path, "rb") as f:
        assert f.read() == b"\x07"
    assert sorted(os.listdir(d)) == ["hb-00003-filter.bits", "hb-00003-m.arrow",
                                     "hb-00003-m.parquet"]
    assert ckpt.bucket_files(d, 3, ext="arrow") == [ckpt.bucket_file(d, 3, "m", "arrow")]
    assert ckpt.bucket_files(d, tag="m") == [ckpt.bucket_file(d, 3, "m")]


# ---- per-bucket seen gate (state.seenfilter + stages.links.gate_bucket)

P = 4


def _bucket_of(url):
    from borges_ray.canonical import stable_hash

    return stable_hash(url.split("/")[2]) % P


def _seen_setup(root, kind, history_urls, b, capacity=10_000):
    """Round-r state of host bucket ``b`` of one crawl over ``P`` buckets:
    round r's filters built from ``history_urls`` and b's committed
    seen_delta file (its history urls, sorted); returns b's
    ``SeenFilters`` writing round r+1's filters."""
    import pyarrow.parquet as pq

    from borges_ray.canonical import partition_of
    from borges_ray.schemas import SEEN
    from borges_ray.state import seenfilter

    by_bucket: dict[int, list[str]] = {}
    for u in history_urls:
        by_bucket.setdefault(_bucket_of(u), []).append(u)
    src, dst = os.path.join(root, "src"), os.path.join(root, "dst")
    seenfilter.seed_filters(src, kind, capacity, P, by_bucket)
    os.makedirs(dst, exist_ok=True)
    mine = sorted(by_bucket.get(b, []))
    hist = ckpt.bucket_file(root, b, "new")
    pq.write_table(pa.table({
        "url": mine, "partition": [partition_of(u, P) for u in mine],
        "seen_round": [0] * len(mine)}, schema=SEEN), hist)
    return seenfilter.SeenFilters(kind, capacity, src, dst, (hist,))


def _candidates(urls):
    from borges_ray.canonical import partition_of
    from borges_ray.schemas import FRONTIER

    n = len(urls)
    return pa.table({
        "url": urls, "host": [u.split("/")[2] for u in urls],
        "depth": [1] * n, "priority": [3] * n, "discovered_round": [1] * n,
        "parent_url": ["http://s.example/"] * n,
        "partition": [partition_of(u, P) for u in urls]}, schema=FRONTIER)


def _one_bucket(history, fresh):
    """History and candidate urls of one host bucket (the bucket of the
    first history url)."""
    b = _bucket_of(history[0])
    return (b, [u for u in history if _bucket_of(u) == b],
            [u for u in fresh if _bucket_of(u) == b])


HIST = [f"http://h{i % 7}.example/old/{i}" for i in range(400)]
FRESH = [f"http://h{i % 7}.example/new/{i}" for i in range(400)]


def test_saturated_filter_confirms_every_url_exactly(tmp_path, monkeypatch):
    """Every bit set: each candidate goes down the exact-confirm path, and
    the new rows equal those of a filter built from the same history; with
    no history they equal an empty filter's."""
    from borges_ray.stages.links import gate_bucket
    from borges_ray.state import seenfilter

    b, hist, fresh = _one_bucket(HIST, FRESH)
    cands = _candidates(hist[::2] + fresh)

    exact = _seen_setup(str(tmp_path / "exact"), "bloom", HIST, b)
    want = gate_bucket(cands, exact, b, {})
    assert sorted(want["url"].to_pylist()) == sorted(fresh)

    confirmed: list[str] = []
    real = seenfilter.in_history
    monkeypatch.setattr(seenfilter, "in_history", lambda files, urls: (
        confirmed.extend(urls), real(files, urls))[1])
    for hist_urls, name in ((HIST, "sat"), ([], "sat_empty")):
        sat = _seen_setup(str(tmp_path / name), "bloom", hist_urls, b)
        path = seenfilter.filter_path(sat.src, b)
        with open(path, "rb") as f:
            n = len(f.read())
        with open(path, "wb") as f:
            f.write(b"\xff" * n)
        confirmed.clear()
        got = gate_bucket(cands, sat, b, {})
        assert sorted(confirmed) == sorted(cands["url"].to_pylist())
        if hist_urls:
            assert got.equals(want)
        else:
            empty = _seen_setup(str(tmp_path / "empty"), "bloom", [], b)
            assert got.equals(gate_bucket(cands, empty, b, {}))
            assert got.num_rows == cands.num_rows


@pytest.mark.parametrize("kind", ["bloom", "cuckoo"])
def test_partition_gate_retry_is_byte_identical(tmp_path, kind):
    """A retried bucket task (same round, same committed inputs, its
    candidates in another order) writes byte-identical filter, frontier,
    seen and blocked files and returns identical rows; the written filter
    then holds exactly the bucket's history + new urls."""
    from borges_ray.pipelines.crawl import _write_gated
    from borges_ray.stages.links import gate_bucket
    from borges_ray.state import seenfilter

    b, hist, fresh = _one_bucket(HIST, FRESH)
    seen = _seen_setup(str(tmp_path), kind, HIST, b)
    cands = _candidates(hist[1::3] + fresh)
    robots = {fresh[0].split("/")[2]: (("/new/1",), ())}
    runs = []
    for attempt in range(2):
        order = np.random.default_rng(attempt).permutation(cands.num_rows)
        out = gate_bucket(cands.take(order), seen, b, robots)
        base = tmp_path / f"try{attempt}"
        _write_gated(out, b, 0, str(base))
        with open(seenfilter.filter_path(seen.dst, b), "rb") as f:
            bits = f.read()
        files = {str(f.relative_to(base)): f.read_bytes()
                 for f in base.rglob("*") if f.is_file()}
        runs.append((out, bits, files))
    (o1, b1, f1), (o2, b2, f2) = runs
    assert o1.equals(o2) and b1 == b2 and f1 == f2
    assert sorted(o1["url"].to_pylist()) == sorted(fresh)
    assert any(o1["blocked"].to_pylist())
    assert any(k.startswith("seen_delta") for k in f1)
    written = seenfilter.read_filter(kind, seen.capacity, seenfilter.filter_path(seen.dst, b))
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


def test_explode_links_keys_candidates_like_host_of():
    """The candidates' host (their bucket key) is ``canonical.host_of`` of
    the url — userinfo, port and IPv6 brackets stripped — so a link and
    the same url enqueued as a seed land in one host bucket; the explode's
    within-block winner keeps each url's max-priority parent."""
    from borges_ray.canonical import host_of
    from borges_ray.stages.links import explode_links

    links = ["http://a.example/x", "http://user:pw@B.example:8080/y",
             "https://[::1]:443/z", "http://x@y@z.example/", "http://h.example?q=1"]
    t = pa.table({
        "url": ["http://p1.example/", "http://p2.example/", "http://p3.example/"],
        "status": pa.array([200, 200, 404], pa.int32()),
        "priority": pa.array([3, 5, 9], pa.int32()),
        "depth": pa.array([0, 2, 0], pa.int32()),
        "links": pa.array([links, links[:1], links], pa.list_(pa.string()))})
    out = explode_links(t, 1, 4, None).to_pylist()
    assert sorted(r["url"] for r in out) == sorted(links)
    assert all(r["host"] == host_of(r["url"]) for r in out)
    a = next(r for r in out if r["url"] == links[0])
    assert (a["parent_url"], a["priority"], a["depth"]) == ("http://p2.example/", 4, 3)
