"""Pluggable-fetcher seam + downloader-middleware hook points.

The engine selects its fetch stage through ``EngineConfig.fetcher`` and
wraps it with ``request_middlewares`` / ``response_middlewares`` — the
deployment seam for a real HTTP fetcher (reference:
``Borges/spiders/Elsevier/paper_xml.py:73-76``, ``AIP/aip_spider.py:16-64``)
and the Scrapy-middleware surface (``Borges/settings.py:93-104``).  No
outside network: the HTTP skeleton is exercised with injected transports
and, for its default urllib transport, against a loopback ``http.server``.
"""

from __future__ import annotations

import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import quote, unquote

import pyarrow as pa
import pyarrow.compute as pc
import pytest
import ray.data as rd

from borges_ray.pipelines.crawl import EngineConfig, collect_crawled, run_crawl
from borges_ray.stages.fetch import (FetchSession, HttpFetchSession,
                                     RenderSession, fetch_selected,
                                     fetch_selected_http,
                                     transient_fail_count,
                                     write_pages_bucketed)
from borges_ray.synth import synth_pages, synth_robots, synth_seeds

N_PAGES = 400
SEED = 42


@pytest.fixture(scope="module")
def web(tmp_path_factory):
    pages = synth_pages(SEED, N_PAGES)
    seeds = synth_seeds(SEED, N_PAGES)
    robots = synth_robots(SEED, N_PAGES)
    root = tmp_path_factory.mktemp("seamweb")
    pages_root = str(root / "pages")
    write_pages_bucketed(pages.select(["url", "html"]), pages_root,
                         num_buckets=4)
    return pages, seeds, robots, pages_root, str(root)


def _cfg(**kw) -> EngineConfig:
    return EngineConfig(max_rounds=4, num_partitions=8, num_buckets=4,
                        num_seen_shards=2, **kw)


def test_fetcher_seam_conformance(web, ray_session, tmp_path):
    """A config-selected fetcher wrapping the in-corpus probe must produce
    byte-identical crawled rows to the built-in dispatch."""
    _pages, seeds, robots, pages_root, _ = web

    ck_a = str(tmp_path / "a")
    run_crawl(pages_root, seeds, robots.to_pandas(), _cfg(flaky=True),
              ck_a, resume=False)

    def my_fetcher(sel: rd.Dataset, cfg: EngineConfig, rnd: int) -> rd.Dataset:
        return fetch_selected(sel, pages_root, cfg.num_buckets,
                              flaky=cfg.flaky)

    ck_b = str(tmp_path / "b")
    run_crawl(pages_root, seeds, robots.to_pandas(),
              _cfg(flaky=True, fetcher=my_fetcher), ck_b, resume=False)

    a = collect_crawled(ck_a).to_pandas().set_index("url").sort_index()
    b = collect_crawled(ck_b).to_pandas().set_index("url").sort_index()
    assert list(a.index) == list(b.index)
    for col in ("status", "attempts", "extracted_text", "fetch_round",
                "host_seq", "lang", "n_links"):
        assert (a[col].to_numpy() == b[col].to_numpy()).all(), col


def test_middlewares_hook_points(web, ray_session, tmp_path):
    """Request middleware filters the selection before fetch; response
    middleware rewrites fetched rows before parse."""
    _pages, seeds, robots, pages_root, _ = web

    ck_a = str(tmp_path / "a")
    run_crawl(pages_root, seeds, robots.to_pandas(), _cfg(), ck_a,
              resume=False)
    base = collect_crawled(ck_a).to_pandas()
    # pick a host that was actually crawled to block via middleware
    blocked_host = base.loc[base["status"] == 200, "host"].iloc[0]

    def drop_host(t: pa.Table) -> pa.Table:
        return t.filter(pc.not_equal(t["host"], blocked_host))

    def tag_teapot(t: pa.Table) -> pa.Table:
        teapot = pc.if_else(pc.equal(t["status"], 404),
                            pa.scalar(418, pa.int64()), t["status"])
        return t.set_column(t.schema.get_field_index("status"), "status",
                            teapot)

    ck_b = str(tmp_path / "b")
    run_crawl(pages_root, seeds, robots.to_pandas(),
              _cfg(request_middlewares=(drop_host,),
                   response_middlewares=(tag_teapot,)), ck_b, resume=False)
    out = collect_crawled(ck_b).to_pandas()
    assert (out["host"] != blocked_host).all()
    assert (out["status"] != 404).all()
    assert (out["status"] == 418).any() or not (base["status"] == 404).any()


def test_http_fetch_session_contract(ray_session):
    """Interface-level skeleton test with an injected transport: contract
    columns, retry-until-200 semantics, and per-host token-bucket pacing
    recorded on the virtual clock."""
    calls: dict[str, int] = {}

    def transport(url: str):
        n = calls.get(url, 0) + 1
        calls[url] = n
        if url.endswith("/flaky") and n < 3:
            return 500, None
        if url.endswith("/missing"):
            return 404, None
        return 200, f"<html>{url}</html>"

    fs = HttpFetchSession(transport, min_interval_ms=750)
    t = pa.table({
        "url": ["http://a.com/1", "http://a.com/flaky", "http://b.com/1",
                "http://a.com/2", "http://b.com/missing"],
        "host": ["a.com", "a.com", "b.com", "a.com", "b.com"],
    })
    out = fs(t)
    got = out.to_pandas().set_index("url")
    assert got.loc["http://a.com/1", "status"] == 200
    assert got.loc["http://a.com/1", "attempts"] == 1
    assert got.loc["http://a.com/flaky", "status"] == 200
    assert got.loc["http://a.com/flaky", "attempts"] == 3
    assert got.loc["http://b.com/missing", "status"] == 404
    assert got.loc["http://b.com/missing", "html"] is None
    assert got.loc["http://a.com/1", "html"] == b"<html>http://a.com/1</html>"

    # token bucket: per-host schedule gaps >= min_interval_ms
    for host in ("a.com", "b.com"):
        s = sorted(got.loc[got["host"] == host, "sched_ms"])
        assert all(b - a >= 750 for a, b in zip(s, s[1:])), (host, s)


def _timed_transport(latency_ms: dict[str, float], status: dict[str, int]):
    """Transport on the session's virtual clock: logs each send as
    ``(host, send_ms)`` and advances ``fs.clock_ms`` by the host's latency.
    Bind the session with ``transport.fs = fs`` before calling it."""
    log: list[tuple[str, float]] = []

    def transport(url: str):
        host = url.split("/")[2]
        log.append((host, transport.fs.clock_ms))
        transport.fs.clock_ms += latency_ms.get(host, 0.0)
        s = status.get(host, 200)
        return (s, "<x>" if s == 200 else None)

    transport.log = log
    return transport


def _sends(log, host):
    return [at for h, at in log if h == host]


def test_http_fetch_session_paces_retries(ray_session):
    """Every attempt, retries included, takes its host's next slot: a host
    that always answers 503 waits ``min_interval_ms`` between attempts,
    while a healthy host interleaved with it keeps its own schedule."""
    interval = 500
    tr = _timed_transport({"down.com": 200.0}, {"down.com": 503})
    fs = tr.fs = HttpFetchSession(tr, min_interval_ms=interval,
                                  max_attempts=3)
    out = fs(pa.table({
        "url": ["http://down.com/1", "http://up.com/1",
                "http://down.com/2", "http://up.com/2"],
        "host": ["down.com", "up.com", "down.com", "up.com"],
    })).to_pandas().set_index("url")

    down = _sends(tr.log, "down.com")
    assert len(down) == 6  # 2 rows × max_attempts
    assert all(b - a >= interval for a, b in zip(down, down[1:])), down
    # the healthy host is not held behind the 503 host's retries: its
    # first row goes once down.com/1's 200 ms request returns, its second
    # exactly one interval later
    assert _sends(tr.log, "up.com") == [200.0, 200.0 + interval]
    assert list(out["status"]) == [503, 200, 503, 200]
    assert list(out["attempts"]) == [3, 1, 3, 1]
    # down.com's retries wait 1 then 2 intervals (a gap doubling per
    # attempt), so down.com/2 goes one interval after its third attempt
    assert list(out["sched_ms"]) == [0.0, 200.0, 4 * interval,
                                     200.0 + interval]


def test_http_fetch_session_gap_survives_slow_host(ray_session):
    """A slow request on one host delays the next host's first send; that
    host's following send still waits a full interval after it was
    actually sent, not after when it was first due."""
    interval = 1000
    tr = _timed_transport({"b.com": 950.0}, {})
    fs = tr.fs = HttpFetchSession(tr, min_interval_ms=interval)
    fs(pa.table({"url": ["http://b.com/1", "http://a.com/1",
                         "http://a.com/2"],
                 "host": ["b.com", "a.com", "a.com"]}))
    assert _sends(tr.log, "a.com") == [950.0, 950.0 + interval]


def test_http_fetch_session_widens_retry_wait(ray_session):
    """The wait before each retry doubles per attempt from the interval,
    capped at 5 s (never below the interval); with no interval it starts
    at 100 ms — a failing host is never hammered back to back."""
    for interval, gaps in ((1500, [1500, 3000, 5000, 5000]),
                           (0, [100, 200, 400, 800]),
                           (7000, [7000, 7000, 7000, 7000])):
        tr = _timed_transport({}, {"down.com": 503})
        fs = tr.fs = HttpFetchSession(tr, min_interval_ms=interval,
                                      max_attempts=5)
        out = fs(pa.table({"url": ["http://down.com/1"], "host": ["down.com"]}))
        down = _sends(tr.log, "down.com")
        assert [b - a for a, b in zip(down, down[1:])] == gaps, interval
        assert out["attempts"].to_pylist() == [5]


def test_http_fetch_session_honours_retry_after(ray_session):
    """A third transport element is the answer's ``Retry-After`` in
    seconds: the host's next send waits that long after the answer
    arrived, while a 2-tuple transport answer stays valid."""
    interval = 500
    log: list[tuple[str, float]] = []

    def transport(url):
        host = url.split("/")[2]
        log.append((host, fs.clock_ms))
        fs.clock_ms += 100.0
        if host == "busy.com" and len(_sends(log, "busy.com")) == 1:
            return 429, None, 3
        return 200, "<x>"

    fs = HttpFetchSession(transport, min_interval_ms=interval)
    out = fs(pa.table({"url": ["http://busy.com/1", "http://ok.com/1",
                               "http://ok.com/2"],
                       "host": ["busy.com", "ok.com", "ok.com"]}))
    # busy.com answered at 100 ms with Retry-After: 3
    assert _sends(log, "busy.com") == [0.0, 3100.0]
    assert _sends(log, "ok.com") == [100.0, 100.0 + interval]
    assert out["status"].to_pylist() == [200, 200, 200]
    assert out["attempts"].to_pylist() == [2, 1, 1]


def test_http_fetcher_through_engine(web, ray_session, tmp_path):
    """End-to-end: the HTTP skeleton drives a crawl through the seam, with
    the transport answering from the synthetic corpus — identical crawled
    url set to the in-corpus probe path."""
    pages, seeds, robots, pages_root, _ = web
    corpus = dict(zip(pages["url"].to_pylist(), pages["html"].to_pylist()))

    def transport(url: str):
        h = corpus.get(url)
        return (200, h) if h is not None else (404, None)

    def http_fetcher(sel: rd.Dataset, cfg: EngineConfig, rnd: int):
        from borges_ray.stages.fetch import fetch_selected_http
        return fetch_selected_http(sel, transport=transport,
                                   min_interval_ms=0, concurrency=(1, 2))

    ck_a = str(tmp_path / "a")
    run_crawl(pages_root, seeds, robots.to_pandas(), _cfg(), ck_a,
              resume=False)
    ck_b = str(tmp_path / "b")
    run_crawl(pages_root, seeds, robots.to_pandas(),
              _cfg(fetcher=http_fetcher), ck_b, resume=False)
    a = collect_crawled(ck_a).to_pandas().set_index("url").sort_index()
    b = collect_crawled(ck_b).to_pandas().set_index("url").sort_index()
    assert list(a.index) == list(b.index)
    for col in ("status", "extracted_text", "fetch_round", "host_seq"):
        assert (a[col].to_numpy() == b[col].to_numpy()).all(), col


def test_http_fetch_session_real_clock_bucket(ray_session):
    """sleep=True honors the PER-HOST schedule on the real clock: an
    interleaved 2-host batch with min_interval=150ms needs ~1 interval
    total (two hosts proceed in parallel slots), not one interval per
    row — and per-host gaps stay >= the interval."""
    import time as _time

    from borges_ray.stages.fetch import HttpFetchSession

    fs = HttpFetchSession(lambda u: (200, "<x>"), min_interval_ms=150,
                          sleep=True)
    t = pa.table({
        "url": ["http://a.com/1", "http://b.com/1",
                "http://a.com/2", "http://b.com/2"],
        "host": ["a.com", "b.com", "a.com", "b.com"],
    })
    t0 = _time.monotonic()
    out = fs(t).to_pandas()
    elapsed = _time.monotonic() - t0
    # second request per host waits one interval; hosts overlap
    assert 0.10 <= elapsed < 0.60, elapsed
    for host in ("a.com", "b.com"):
        sc = sorted(out.loc[out["host"] == host, "sched_ms"])
        assert all(b - a >= 150 for a, b in zip(sc, sc[1:])), (host, sc)


@pytest.fixture
def loopback(web):
    """A ``ThreadingHTTPServer`` on ``127.0.0.1:0`` answering
    ``GET /<quoted url>`` with the seam web's corpus bytes (plus any
    ``routes`` a test adds) and 404 for everything else.  Yields
    ``(base_url, routes)``; the server is shut down at teardown."""
    pages = web[0]
    routes = {u: h for u, h in zip(pages["url"].to_pylist(),
                                   pages["html"].to_pylist())
              if h is not None}

    class Handler(BaseHTTPRequestHandler):
        def do_GET(self):
            body = routes.get(unquote(self.path[1:]))
            if body is None:
                self.send_error(404)
                return
            self.send_response(200)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *args):
            pass

    srv = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{srv.server_address[1]}/", routes
    srv.shutdown()
    srv.server_close()
    thread.join(timeout=10)
    assert not thread.is_alive()


def test_http_default_transport_over_loopback(loopback):
    """The default urllib transport returns body bytes unchanged (a
    latin-1 page is not re-encoded) and keeps a real 404 as a 404 — one
    attempt, not a retried transport error."""
    base, routes = loopback
    routes["latin"] = b"caf\xe9"
    out = HttpFetchSession(min_interval_ms=0)(pa.table({
        "url": [base + "latin", base + "missing"],
        "host": ["127.0.0.1", "127.0.0.1"],
    })).to_pylist()
    assert (out[0]["status"], out[0]["attempts"]) == (200, 1)
    assert out[0]["html"] == b"caf\xe9"
    assert (out[1]["status"], out[1]["attempts"]) == (404, 1)
    assert out[1]["html"] is None


def test_http_default_transport_reads_retry_after():
    """The default urllib transport returns a 503's ``Retry-After``
    seconds: the session's (virtual) clock holds the retry 2 s after the
    answer, and the retry gets the 200."""
    answers = [(503, b"", {"Retry-After": "2"}), (200, b"ok", {})]

    class Handler(BaseHTTPRequestHandler):
        def do_GET(self):
            code, body, headers = answers.pop(0) if answers else (200, b"ok", {})
            self.send_response(code)
            for k, v in headers.items():
                self.send_header(k, v)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *args):
            pass

    srv = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    try:
        fs = HttpFetchSession(min_interval_ms=0)
        out = fs(pa.table({"url": [f"http://127.0.0.1:{srv.server_address[1]}/p"],
                           "host": ["127.0.0.1"]})).to_pylist()
    finally:
        srv.shutdown()
        srv.server_close()
        thread.join(timeout=10)
    assert (out[0]["status"], out[0]["attempts"], out[0]["html"]) == (200, 2, b"ok")
    assert fs.clock_ms >= 2000.0


def test_http_fetcher_loopback_crawl(web, loopback, ray_session, tmp_path):
    """End-to-end over real sockets: a crawl whose fetcher is
    ``fetch_selected_http`` with the default urllib transport, each
    selected url sent to the loopback server, equals the probe crawl."""
    _pages, seeds, robots, pages_root, _ = web
    base, _routes = loopback

    def to_loopback(t: pa.Table) -> pa.Table:
        sent = pa.array([base + quote(u, safe="") for u in t["url"].to_pylist()],
                        pa.string())
        return (t.append_column("real_url", t["url"])
                .set_column(t.schema.get_field_index("url"), "url", sent))

    def restore_url(t: pa.Table) -> pa.Table:
        return (t.set_column(t.schema.get_field_index("url"), "url",
                             t["real_url"])
                .drop_columns(["real_url"]))

    def loopback_fetcher(sel: rd.Dataset, cfg: EngineConfig, rnd: int):
        sent = sel.map_batches(to_loopback, batch_format="pyarrow")
        return fetch_selected_http(
            sent, transport=None, min_interval_ms=0, concurrency=(1, 2),
        ).map_batches(restore_url, batch_format="pyarrow")

    ck_a = str(tmp_path / "probe")
    run_crawl(pages_root, seeds, robots.to_pandas(), _cfg(), ck_a,
              resume=False)
    ck_b = str(tmp_path / "loopback")
    run_crawl(pages_root, seeds, robots.to_pandas(),
              _cfg(fetcher=loopback_fetcher), ck_b, resume=False)
    a = collect_crawled(ck_a).to_pandas().set_index("url").sort_index()
    b = collect_crawled(ck_b).to_pandas().set_index("url").sort_index()
    assert list(a.index) == list(b.index)
    assert (a["status"] == 404).any()
    for col in ("status", "attempts", "extracted_text", "fetch_round",
                "host_seq"):
        assert (a[col].to_numpy() == b[col].to_numpy()).all(), col


def test_probe_kernel_parity_across_fetch_paths(ray_session, tmp_path):
    """``fetch_selected``, ``FetchSession`` and ``RenderSession`` all run
    the one probe kernel: a batch mixing hits, misses, flaky-failing urls
    and a stored-NULL payload gets equal status/attempts/html per url on
    every path (the NULL row is a 200 with null html), and a zero-row
    batch keeps the contract and bookkeeping column types."""
    cands = [f"http://h{i % 5}.test/p{i}" for i in range(600)]
    by_fails = {k: [u for u in cands if transient_fail_count(u) == k]
                for k in range(4)}
    ok = by_fails[0]
    corpus = ok[:12] + by_fails[1][:2] + by_fails[2][:2] + by_fails[3][:2]
    null_url = ok[12]
    misses = ok[13:16] + by_fails[3][2:3]
    root = str(tmp_path / "pages")
    write_pages_bucketed(pa.table({
        "url": corpus + [null_url],
        "html": pa.array([f"<p>{u}</p>".encode() for u in corpus] + [None],
                         pa.binary()),
    }), root, num_buckets=4)
    urls = sorted(corpus + [null_url] + misses)
    batch = pa.table({"url": urls, "host": [u.split("/")[2] for u in urls]})

    paths = {
        "stateless": fetch_selected(rd.from_arrow(batch), root, 4,
                                    flaky=True).to_pandas(),
        "session": FetchSession(root, 4, api_keys=("k0", "k1"),
                                flaky=True)(batch).to_pandas(),
        "render": RenderSession(root, 4, flaky=True)(batch).to_pandas(),
    }
    assert list(paths["session"]["url"]) == urls
    assert list(paths["render"]["url"]) == urls
    want = paths["stateless"].set_index("url").sort_index()
    assert set(want["status"]) == {200, 404, 503}
    assert (want["attempts"] > 1).any()
    for name, got in paths.items():
        got = got.set_index("url").sort_index()
        for col in ("status", "attempts", "html"):
            assert list(got[col]) == list(want[col]), (name, col)
        assert got.loc[null_url, "status"] == 200, name
        assert got.loc[null_url, "html"] is None, name

    contract = {"url": pa.string(), "host": pa.string(),
                "attempts": pa.int64(), "html": pa.binary(),
                "status": pa.int64()}
    empty = batch.slice(0, 0)
    for out, extra in (
            (FetchSession(root, 4, api_keys=("k0",))(empty),
             {"key_idx": pa.int32()}),
            (RenderSession(root, 4)(empty),
             {"render_ms": pa.int64(), "handle_gen": pa.int32(),
              "resources_skipped": pa.int32()})):
        assert out.num_rows == 0
        assert {f.name: f.type for f in out.schema} == {**contract, **extra}
