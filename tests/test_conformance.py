"""Engine ↔ oracle conformance (FIXTURES.md §4): URL-seen set equality,
per-host fetch order equality, byte-identical extracted text, status parity.
"""

from __future__ import annotations

import os

import pandas as pd
import pyarrow as pa
import pytest

from borges_ray.pipelines.crawl import (
    EngineConfig,
    collect_crawled,
    collect_seen,
    run_crawl,
)
from borges_ray.stages.fetch import write_pages_bucketed
from borges_ray.synth import synth_pages, synth_robots, synth_seeds
from reference_crawl import CrawlConfig, crawl

N_PAGES = 600
SEED = 42


@pytest.fixture(scope="module")
def web(tmp_path_factory):
    pages = synth_pages(SEED, N_PAGES)
    seeds = synth_seeds(SEED, N_PAGES)
    robots = synth_robots(SEED, N_PAGES)
    root = tmp_path_factory.mktemp("web")
    pages_root = str(root / "pages")
    write_pages_bucketed(pages.select(["url", "html"]), pages_root, num_buckets=4)
    return pages, seeds, robots, pages_root, str(root)


@pytest.fixture(scope="module")
def oracle_result(web):
    pages, seeds, robots, _, _ = web
    pages_map = dict(zip(pages["url"].to_pylist(), pages["html"].to_pylist()))
    seed_list = list(zip(seeds["url"].to_pylist(), seeds["priority"].to_pylist()))
    robots_map = {
        r["host"]: {"disallow_prefixes": r["disallow_prefixes"],
                    "crawl_delay_ms": r["crawl_delay_ms"]}
        for r in robots.to_pylist()
    }
    return crawl(pages_map, seed_list, robots_map,
                 CrawlConfig(max_rounds=6, num_partitions=8))


@pytest.fixture(scope="module")
def engine_result(web, ray_session):
    _, seeds, robots, pages_root, root = web
    cfg = EngineConfig(max_rounds=6, num_partitions=8, num_buckets=4, num_seen_shards=2)
    ckpt_dir = os.path.join(root, "ckpt")
    run_crawl(pages_root, seeds, robots.to_pandas(), cfg, ckpt_dir, resume=False)
    return collect_crawled(ckpt_dir).to_pandas(), collect_seen(ckpt_dir).to_pandas(), ckpt_dir


def test_seen_set_equality(oracle_result, engine_result):
    _, seen_df, _ = engine_result
    oracle_seen = {r["url"] for r in oracle_result.seen}
    assert set(seen_df["url"]) == oracle_seen
    assert len(seen_df) == len(seen_df["url"].unique())
    # seen_round parity too
    oracle_rounds = {r["url"]: r["seen_round"] for r in oracle_result.seen}
    eng_rounds = dict(zip(seen_df["url"], seen_df["seen_round"]))
    assert eng_rounds == oracle_rounds


def test_crawled_status_and_text_byte_identical(oracle_result, engine_result):
    crawled_df, _, _ = engine_result
    oracle_df = pd.DataFrame(oracle_result.crawled)
    assert len(crawled_df) == len(oracle_df)
    m = crawled_df.set_index("url").sort_index()
    o = oracle_df.set_index("url").sort_index()
    assert list(m.index) == list(o.index)
    assert (m["status"].to_numpy() == o["status"].to_numpy()).all()
    # THE byte-identical invariant
    assert (m["extracted_text"].to_numpy() == o["extracted_text"].to_numpy()).all()
    assert (m["lang"].to_numpy() == o["lang"].to_numpy()).all()
    assert (m["depth"].to_numpy() == o["depth"].to_numpy()).all()
    assert (m["fetch_round"].to_numpy() == o["fetch_round"].to_numpy()).all()
    assert (m["n_links"].to_numpy() == o["n_links"].to_numpy()).all()


def test_per_host_order_equality(oracle_result, engine_result):
    crawled_df, _, _ = engine_result
    oracle_df = pd.DataFrame(oracle_result.crawled)
    eng_fetched = crawled_df[crawled_df.status != 999]
    ora_fetched = oracle_df[oracle_df.status != 999]
    for host, g in ora_fetched.groupby("host"):
        ora_order = g.sort_values("host_seq")["url"].tolist()
        eng_order = (
            eng_fetched[eng_fetched.host == host].sort_values("host_seq")["url"].tolist()
        )
        assert eng_order == ora_order, f"order mismatch for {host}"


def test_crawl_runs_without_seen_actors(web, oracle_result, ray_session,
                                        tmp_path, monkeypatch):
    """URL-seen membership lives in the per-host-bucket gate tasks: with
    the shard-actor entry points made to raise, the crawl still completes
    and matches the oracle's seen set and per-host fetch order."""
    from borges_ray.state import urlseen

    def refuse(*a, **kw):
        raise AssertionError("the crawl must not use URL-seen actors")

    monkeypatch.setattr(urlseen, "create_seen_index", refuse)
    monkeypatch.setattr(urlseen, "seen_check_and_add", refuse)
    _, seeds, robots, pages_root, _ = web
    ck = str(tmp_path / "ckpt")
    run_crawl(pages_root, seeds, robots.to_pandas(),
              EngineConfig(max_rounds=6, num_partitions=8, num_buckets=4), ck,
              resume=False)
    seen = collect_seen(ck).to_pandas()
    assert dict(zip(seen["url"], seen["seen_round"])) == {
        r["url"]: r["seen_round"] for r in oracle_result.seen}
    crawled = collect_crawled(ck).to_pandas()
    oracle_df = pd.DataFrame(oracle_result.crawled)
    for df in (crawled, oracle_df):
        df.sort_values(["host", "host_seq", "url"], inplace=True, ignore_index=True)
    for col in ("url", "status", "host_seq", "fetch_round"):
        assert crawled[col].tolist() == oracle_df[col].tolist(), col


def test_crawl_made_progress(oracle_result):
    statuses = pd.Series([r["status"] for r in oracle_result.crawled])
    # the fixture web must exercise every path: fetches, 404s, robots blocks
    assert (statuses == 200).sum() > 50
    assert (statuses == 404).sum() > 0
    assert (statuses == 999).sum() > 0


def test_attempts_parity(oracle_result, engine_result):
    crawled_df, _, _ = engine_result
    oracle_df = pd.DataFrame(oracle_result.crawled)
    m = crawled_df.set_index("url").sort_index()
    o = oracle_df.set_index("url").sort_index()
    assert (m["attempts"].to_numpy() == o["attempts"].to_numpy()).all()


def test_politeness_fractional_delay_carryover(ray_session, tmp_path):
    """T4 token carryover: a host with ``delay = 1.7 × round_ms`` must
    average ~0.59 fetches/round via the carried virtual clock (rounds
    {0, 1, 3, 5} of 6) — NOT one per round as the old truncated integer
    budget (``max(1, round_ms // delay)``) gave.  Engine ↔ oracle parity
    on the exact fixture where the two rules differ."""
    import pyarrow as pa

    from borges_ray.pipelines.crawl import EngineConfig, collect_crawled, run_crawl
    from reference_crawl import CrawlConfig, crawl

    urls = [f"http://slow.example.test/page/{i}" for i in range(10)]
    html = b"<html><body><div id='content'>slow page text</div></body></html>"
    pages = pa.table({"url": urls, "html": [html] * len(urls)})
    seeds = pa.table({"url": urls, "priority": [5] * len(urls)})
    robots = pd.DataFrame({
        "host": ["slow.example.test"],
        "disallow_prefixes": [[]],
        "crawl_delay_ms": [17_000],      # 1.7 × the 10 000 ms round
    })
    pages_root = str(tmp_path / "pages")
    write_pages_bucketed(pages, pages_root, num_buckets=2)
    cfg = EngineConfig(max_rounds=6, num_partitions=4, num_buckets=2,
                       num_seen_shards=2)
    run_crawl(pages_root, seeds, robots, cfg, str(tmp_path / "ck"), resume=False)
    eng = collect_crawled(str(tmp_path / "ck")).to_pandas()

    ora = crawl(dict(zip(urls, [html] * len(urls))), [(u, 5) for u in urls],
                {"slow.example.test": {"disallow_prefixes": [],
                                       "crawl_delay_ms": 17_000}},
                CrawlConfig(max_rounds=6, num_partitions=4))
    odf = pd.DataFrame(ora.crawled)

    # the carryover signature: one fetch in rounds 0 and 1, a forced skip
    # in round 2 (clock at 34 s > round end 30 s), then 3 and 5
    assert sorted(set(eng["fetch_round"])) == [0, 1, 3, 5]
    m = eng.set_index("url").sort_index()
    o = odf.set_index("url").sort_index()
    assert list(m.index) == list(o.index)
    for col in ("status", "fetch_round", "host_seq", "extracted_text"):
        assert (m[col].to_numpy() == o[col].to_numpy()).all(), col


def test_flaky_and_night_shift_conformance(web, ray_session, tmp_path):
    """T6 retry model + F9 time gating: engine ↔ oracle parity with both
    policies enabled."""
    from borges_ray.pipelines.crawl import EngineConfig, collect_crawled, collect_seen, run_crawl
    from reference_crawl import CrawlConfig, crawl

    pages, seeds, robots, pages_root, _ = web
    pages_map = dict(zip(pages["url"].to_pylist(), pages["html"].to_pylist()))
    seed_list = list(zip(seeds["url"].to_pylist(), seeds["priority"].to_pylist()))
    robots_map = {
        r["host"]: {"disallow_prefixes": r["disallow_prefixes"],
                    "crawl_delay_ms": r["crawl_delay_ms"]}
        for r in robots.to_pylist()
    }
    ora = crawl(pages_map, seed_list, robots_map,
                CrawlConfig(max_rounds=5, num_partitions=8, flaky=True, night_shift=True))
    cfg = EngineConfig(max_rounds=5, num_partitions=8, num_buckets=4,
                       num_seen_shards=2, flaky=True, night_shift=True)
    ck = str(tmp_path / "ck")
    run_crawl(pages_root, seeds, robots.to_pandas(), cfg, ck, resume=False)
    eng_c = collect_crawled(ck).to_pandas()
    eng_s = collect_seen(ck).to_pandas()
    ora_c = pd.DataFrame(ora.crawled)

    assert set(eng_s["url"]) == {r["url"] for r in ora.seen}
    assert len(eng_c) == len(ora_c)
    m = eng_c.set_index("url").sort_index()
    o = ora_c.set_index("url").sort_index()
    assert list(m.index) == list(o.index)
    for col in ("status", "attempts", "extracted_text", "fetch_round", "host_seq"):
        assert (m[col].to_numpy() == o[col].to_numpy()).all(), col
    # the retry model actually fired: some 503s and some attempts > 1
    assert (eng_c["status"] == 503).sum() > 0
    assert (eng_c["attempts"] > 1).sum() > 0


def test_session_fetch_parity_and_key_rotation(web, ray_session, tmp_path):
    """T2/S13: the session-actor fetch path (login bootstrap + key-pool
    rotation) produces byte-identical crawled rows to the stateless path,
    and rotation actually fires on quota-exhausted (503) fetches."""
    import pandas as pd

    from borges_ray.pipelines.crawl import EngineConfig, collect_crawled, run_crawl
    from borges_ray.stages.fetch import FetchSession

    _pages, seeds, robots, pages_root, _ = web
    base = EngineConfig(max_rounds=4, num_partitions=8, num_buckets=4,
                        num_seen_shards=2, flaky=True)
    ck_a = str(tmp_path / "a")
    run_crawl(pages_root, seeds, robots.to_pandas(), base, ck_a, resume=False)
    sess = EngineConfig(max_rounds=4, num_partitions=8, num_buckets=4,
                        num_seen_shards=2, flaky=True,
                        api_keys=("k0", "k1", "k2"))
    ck_b = str(tmp_path / "b")
    run_crawl(pages_root, seeds, robots.to_pandas(), sess, ck_b, resume=False)
    a = collect_crawled(ck_a).to_pandas().set_index("url").sort_index()
    b = collect_crawled(ck_b).to_pandas().set_index("url").sort_index()
    assert list(a.index) == list(b.index)
    for col in ("status", "attempts", "extracted_text", "fetch_round", "host_seq"):
        assert (a[col].to_numpy() == b[col].to_numpy()).all(), col

    # unit-level rotation semantics: one 503 advances the key index; a full
    # wrap counts a pool-exhausted event
    fs = FetchSession(pages_root, 4, api_keys=("k0", "k1"), flaky=True)
    assert fs.key_idx == 0 and fs.session_token != 0
    fs._rotate()
    assert fs.key_idx == 1 and fs.pool_exhausted_events == 0
    fs._rotate()
    assert fs.key_idx == 0 and fs.pool_exhausted_events == 1
    # drive a batch through __call__: statuses match the stateless model
    sel = a.reset_index()[["url"]].head(40).copy()
    sel["host"] = sel["url"].str.split("/", n=3).str[2]
    out = fs(pa.Table.from_pandas(sel, preserve_index=False)).to_pandas()
    flaky_expected = collect_crawled(ck_a).to_pandas().set_index("url")
    for _, r in out.iterrows():
        if r["url"] in flaky_expected.index:
            want = flaky_expected.loc[r["url"], "status"]
            if want == 999:  # robots-blocked rows are never fetched
                continue
            assert r["status"] == want


def test_render_fetch_parity_and_timeout(web, ray_session, tmp_path):
    """S12: the browser-render actor fetch path (per-actor handle state,
    render wait/timeout config — SplashRequest semantics) produces
    byte-identical crawled rows to the plain path at the reference's
    default wait=10s / timeout=90s, and the timeout branch deterministically
    drops pages when the budget is tightened below render times."""
    import pandas as pd

    from borges_ray.pipelines.crawl import EngineConfig, collect_crawled, run_crawl
    from borges_ray.stages.fetch import RenderSession

    _pages, seeds, robots, pages_root, _ = web
    base = EngineConfig(max_rounds=4, num_partitions=8, num_buckets=4,
                        num_seen_shards=2, flaky=True)
    ck_a = str(tmp_path / "plain")
    run_crawl(pages_root, seeds, robots.to_pandas(), base, ck_a, resume=False)
    rend = EngineConfig(max_rounds=4, num_partitions=8, num_buckets=4,
                        num_seen_shards=2, flaky=True, render=True)
    ck_b = str(tmp_path / "render")
    run_crawl(pages_root, seeds, robots.to_pandas(), rend, ck_b, resume=False)
    a = collect_crawled(ck_a).to_pandas().set_index("url").sort_index()
    b = collect_crawled(ck_b).to_pandas().set_index("url").sort_index()
    assert list(a.index) == list(b.index)
    for col in ("status", "attempts", "extracted_text", "fetch_round", "host_seq"):
        assert (a[col].to_numpy() == b[col].to_numpy()).all(), col

    # unit-level browser-handle semantics: handle recycles after
    # pages_per_handle renders; a tight timeout turns renders into 504s
    rs = RenderSession(pages_root, 4, pages_per_handle=5)
    assert rs.handle_gen == 1 and rs.handle_token != 0
    sel = a.reset_index()[["url"]].head(20).copy()
    ok_urls = a[a.status == 200].index
    sel = sel[sel.url.isin(ok_urls)].reset_index(drop=True)
    out = rs(pa.Table.from_pandas(sel, preserve_index=False)).to_pandas()
    assert (out.status == 200).all()
    assert out.handle_gen.max() > 1          # recycled at least once
    assert (out.render_ms < rs.render_wait_ms // 2).all()
    tight = RenderSession(pages_root, 4, timeout_ms=1)
    out2 = tight(pa.Table.from_pandas(sel, preserve_index=False)).to_pandas()
    assert (out2.status == 504).all() and out2.html.isna().all()


def test_cuckoo_seen_filter_parity(web, ray_session, tmp_path):
    """The cuckoo-filter seen backend (deletable fast path — recrawl
    invalidation) produces byte-identical crawled rows and the same seen
    set as the default Bloom backend: the filter only short-circuits the
    confirm path, membership truth is unchanged."""
    from borges_ray.pipelines.crawl import (
        EngineConfig, collect_crawled, collect_seen, run_crawl)

    _pages, seeds, robots, pages_root, _ = web
    base = EngineConfig(max_rounds=4, num_partitions=8, num_buckets=4,
                        num_seen_shards=2)
    ck_a = str(tmp_path / "a")
    run_crawl(pages_root, seeds, robots.to_pandas(), base, ck_a, resume=False)
    cuck = EngineConfig(max_rounds=4, num_partitions=8, num_buckets=4,
                        num_seen_shards=2, seen_filter="cuckoo")
    ck_b = str(tmp_path / "b")
    run_crawl(pages_root, seeds, robots.to_pandas(), cuck, ck_b, resume=False)
    a = collect_crawled(ck_a).to_pandas().set_index("url").sort_index()
    b = collect_crawled(ck_b).to_pandas().set_index("url").sort_index()
    assert list(a.index) == list(b.index)
    for col in ("status", "attempts", "extracted_text", "fetch_round", "host_seq"):
        assert (a[col].to_numpy() == b[col].to_numpy()).all(), col
    assert set(collect_seen(ck_a)["url"]) == set(collect_seen(ck_b)["url"])


def test_render_resource_timeout_partial(web, ray_session):
    """S12 fidelity: Splash's resource_timeout aborts slow SUB-resources
    without failing the page — a tight budget yields 200-status pages
    with resources_skipped > 0 and unchanged html; the reference default
    (90 s) never skips, preserving the plain-path parity contract."""
    from borges_ray.stages.fetch import RenderSession

    _pages, _seeds, _robots, pages_root, _ = web
    sel = pa.table({"url": _pages["url"].to_pylist()[:40]})

    wide = RenderSession(pages_root, 4)(sel).to_pandas()
    assert (wide["resources_skipped"] == 0).all()

    tight = RenderSession(pages_root, 4, resource_timeout_ms=1_000)(sel).to_pandas()
    ok = tight[tight["status"] == 200]
    assert (ok["resources_skipped"] > 0).any()
    m = wide.merge(tight, on="url", suffixes=("_w", "_t"))
    assert (m["status_w"] == m["status_t"]).all()
    assert m["html_w"].equals(m["html_t"])


def test_robots_allow_carveout_conformance(web, ray_session, tmp_path):
    """RFC 9309 Allow carve-outs are LOAD-BEARING in the engine loop:
    one /private/ URL per disallowing host is carved back in via an
    Allow rule; engine and oracle must agree exactly on which URLs are
    fetched vs blocked (status 999), and the carved-in URL must flip
    from blocked to fetched relative to the plain run."""
    import pyarrow as pa

    pages, seeds, robots, pages_root, _ = web

    # carve /private/176 (a real page on host-0.example) back in
    tbl = robots.to_pydict()
    carved = "http://host-0.example/private/176"
    allow = [["/private/176"] if h == "host-0.example" else []
             for h in tbl["host"]]
    tbl["allow_prefixes"] = pa.array(allow, pa.list_(pa.string()))
    robots2 = pa.table(tbl)

    seed_list = list(zip(seeds["url"].to_pylist(),
                         seeds["priority"].to_pylist()))
    pages_map = dict(zip(pages["url"].to_pylist(),
                         pages["html"].to_pylist()))
    robots_map = {
        r["host"]: {"disallow_prefixes": r["disallow_prefixes"],
                    "allow_prefixes": r["allow_prefixes"],
                    "crawl_delay_ms": r["crawl_delay_ms"]}
        for r in robots2.to_pylist()
    }
    oracle = crawl(pages_map, seed_list, robots_map,
                   CrawlConfig(max_rounds=6, num_partitions=8))

    cfg = EngineConfig(max_rounds=6, num_partitions=8, num_buckets=4,
                       num_seen_shards=2)
    ckpt = os.path.join(str(tmp_path), "ckpt_allow")
    run_crawl(pages_root, seeds, robots2.to_pandas(), cfg, ckpt,
              resume=False)
    eng = collect_crawled(ckpt).to_pandas()

    odf = pd.DataFrame(oracle.crawled)
    assert set(eng["url"]) == set(odf["url"])
    m = (eng[["url", "status"]]
         .merge(odf[["url", "status"]], on="url", suffixes=("_e", "_o")))
    assert (m["status_e"] == m["status_o"]).all()
    # the carved-in URL is fetched (200); every OTHER discovered
    # /private/ URL on the carve-out host stays blocked (999)
    st = eng.set_index("url")["status"]
    assert st[carved] == 200
    # ...and the carve-out does not leak: every other discovered
    # /private/ URL (this host or any other disallowing host) stays 999
    sibs = [u for u in st.index if "/private/" in u and u != carved]
    assert sibs, "no other /private/ URLs discovered"
    assert all(st[u] == 999 for u in sibs)


def test_seed_robots_allow_carveout(ray_session, tmp_path):
    """Seeds pass the same robots rule as discovered links: with Disallow
    ``/private/`` and Allow ``/private/x``, the seed ``/private/x`` is
    fetched (200) and ``/private/y`` is blocked (999), exactly as the
    reference's enqueue decides."""
    urls = ["http://a.test/", "http://a.test/private/x", "http://a.test/private/y"]
    html = [f"<html><body><p>page {u}</p></body></html>".encode() for u in urls]
    pages_root = str(tmp_path / "pages")
    write_pages_bucketed(pa.table({"url": urls, "html": pa.array(html, pa.binary())}),
                         pages_root, num_buckets=2)
    seeds = pa.table({"url": urls, "priority": pa.array([3, 2, 1], pa.int32())})
    robots = pd.DataFrame({"host": ["a.test"], "disallow_prefixes": [["/private/"]],
                           "allow_prefixes": [["/private/x"]],
                           "crawl_delay_ms": [100]})
    oracle = crawl(dict(zip(urls, html)), list(zip(urls, [3, 2, 1])),
                   robots.set_index("host").to_dict("index"),
                   CrawlConfig(max_rounds=3, num_partitions=4))
    ck = str(tmp_path / "ckpt")
    run_crawl(pages_root, seeds, robots,
              EngineConfig(max_rounds=3, num_partitions=4, num_buckets=2), ck,
              resume=False)
    got = sorted(zip(*collect_crawled(ck).select(["url", "status"]).to_pydict().values()))
    want = sorted((r["url"], r["status"]) for r in oracle.crawled)
    assert got == want
    assert dict(want) == {"http://a.test/": 200, "http://a.test/private/x": 200,
                          "http://a.test/private/y": 999}


@pytest.fixture(scope="module")
def flaky_result(web, ray_session):
    """Oracle and engine crawls of the same web with the T6 retry model on:
    (oracle result, engine checkpoint dir)."""
    pages, seeds, robots, pages_root, root = web
    pages_map = dict(zip(pages["url"].to_pylist(), pages["html"].to_pylist()))
    seed_list = list(zip(seeds["url"].to_pylist(), seeds["priority"].to_pylist()))
    robots_map = {
        r["host"]: {"disallow_prefixes": r["disallow_prefixes"],
                    "crawl_delay_ms": r["crawl_delay_ms"]}
        for r in robots.to_pylist()
    }
    oracle = crawl(pages_map, seed_list, robots_map,
                   CrawlConfig(max_rounds=6, num_partitions=8, flaky=True))
    cfg = EngineConfig(max_rounds=6, num_partitions=8, num_buckets=4,
                       num_seen_shards=2, flaky=True)
    ckpt_dir = os.path.join(root, "ckpt_flaky")
    run_crawl(pages_root, seeds, robots.to_pandas(), cfg, ckpt_dir, resume=False)
    return oracle, ckpt_dir


@pytest.mark.parametrize("flaky", [False, True], ids=["plain", "flaky"])
def test_metrics_parity(flaky, request):
    """The engine's per-partition METRICS, summed per round, equal the
    oracle's per-round metrics.  ``frontier_size`` is the frontier entering
    the round (max over partitions — every partition row carries it); the
    oracle counts its frontier after the round's enqueue, i.e. plus
    ``links_new``."""
    from borges_ray.state import checkpoint as ckpt

    if flaky:
        oracle, ckpt_dir = request.getfixturevalue("flaky_result")
    else:
        oracle = request.getfixturevalue("oracle_result")
        ckpt_dir = request.getfixturevalue("engine_result")[2]
    m = ckpt.read_all_rounds(ckpt_dir, "metrics",
                             ckpt.last_committed_round(ckpt_dir)).to_pandas()
    counts = ["selected", "fetched", "missed", "blocked", "links_emitted", "links_new"]
    eng = m.groupby("round").agg({**dict.fromkeys(counts, "sum"), "frontier_size": "max"})
    ora = pd.DataFrame(oracle.metrics).set_index("round")
    assert list(eng.index) == list(ora.index)
    for c in counts:
        assert eng[c].tolist() == ora[c].tolist(), c
    assert eng["frontier_size"].tolist() == (ora["frontier_size"] - ora["links_new"]).tolist()
    assert (ora["blocked"] > 0).any() and (ora["missed"] > 0).any()
