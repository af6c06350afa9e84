"""Fetch-as-join: the frontier probes the pages corpus by canonical URL.

The reference's fetch is a live HTTP GET (S10-S12); in this engine the web
IS a Parquet corpus (SURVEY.md §2.5), so fetch = equi-join of the selected
frontier against ``pages`` on canonical url; a miss models a 404.

Scale shape: the corpus is written **hash-bucketed by url**
(``pbucket=<stable_hash(url) % B>/`` hive dirs).  A crawl round fetches a
politeness-bounded set of URLs (per-host budget × hosts), which is orders of
magnitude smaller than the corpus — so the join is: group the selected
frontier by bucket (tiny shuffle), then each group reads ONLY its own
bucket's file, with an ``isin`` filter pushed into the Parquet scan.  The
corpus is never shuffled, but each probed bucket's file IS read in full:
it is one row group, and pyarrow prunes no row group for an ``isin``
filter (measured: a url-sorted bucket file kept 63 of 63 row groups).  So
a round whose selection touches every bucket reads the whole corpus.

:func:`probe_pages` is the ONE probe: the stateless path
(:func:`fetch_selected`) runs it per bucket group, and the session actors
(:class:`FetchSession` key rotation, :class:`RenderSession` render
timing) run it on their Arrow batch and add only their per-row policy.

The fetch stage is PLUGGABLE: ``EngineConfig.fetcher`` selects any
callable ``(selected, cfg, rnd) -> Dataset`` honoring the fetch contract
(status/attempts/html) — :class:`HttpFetchSession` below is the actor-pool
HTTP skeleton (session state in ``__init__``, per-host token bucket) a
real deployment selects; everything downstream is unchanged.  Request /
response middleware hooks (``pa.Table -> pa.Table``) wrap the stage
(``Borges/settings.py:93-104``).
"""

from __future__ import annotations

import os

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads
import pyarrow.parquet as pq
import ray.data as rd

from ..canonical import stable_hash

BUCKET_COL = "pbucket"

#: Deterministic transient-failure model (T6/F5 parity — the reference
#: retries each DOI up to 3 times with widening waits,
#: ``Borges/spiders/Elsevier/paper_xml.py:141-173``, and records hard
#: failures as error rows rather than failing the job).  A url fails its
#: first k attempts where k is a stable function of the url — so the oracle
#: and the engine observe identical outcomes with zero wall-clock sleeps.
MAX_FETCH_ATTEMPTS = 3


def transient_fail_count(url: str) -> int:
    """How many initial attempts fail for this url (0 for ~93%)."""
    h = stable_hash("flaky:" + url) % 100
    if h < 5:
        return 1
    if h < 7:
        return 2
    if h < 8:
        return MAX_FETCH_ATTEMPTS  # permanent: exhausts the retry budget
    return 0


def apply_flaky(url: str, status: int) -> tuple[int, int]:
    """(final_status, attempts) under the retry policy; 404s don't retry."""
    if status != 200:
        return status, 1
    fails = transient_fail_count(url)
    if fails >= MAX_FETCH_ATTEMPTS:
        return 503, MAX_FETCH_ATTEMPTS
    return 200, fails + 1


def _with_bucket(t: pa.Table, num_buckets: int) -> pa.Table:
    """``t`` plus the ``pbucket`` column: each url's stable hash mod
    ``num_buckets`` — the corpus layout and every probe agree on it."""
    b = [stable_hash(u) % num_buckets for u in t["url"].to_pylist()]
    return t.append_column(BUCKET_COL, pa.array(b, pa.int32()))


def write_pages_bucketed(pages: pa.Table, root: str, num_buckets: int = 16) -> None:
    """Lay the corpus out hash-bucketed by url (one dir per bucket)."""
    t = _with_bucket(pages, num_buckets)
    for b in range(num_buckets):
        sub = t.filter(pc.equal(t[BUCKET_COL], pa.scalar(b, pa.int32())))
        d = os.path.join(root, f"{BUCKET_COL}={b}")
        os.makedirs(d, exist_ok=True)
        pq.write_table(sub.drop_columns([BUCKET_COL]), os.path.join(d, "part-0.parquet"))


def write_pages_bucketed_ds(pages_ds: rd.Dataset, root: str, num_buckets: int = 16) -> None:
    """Same layout, written distributed: add the bucket column per batch and
    let ``write_parquet`` partition on it (for the bench-scale corpus)."""
    pages_ds.map_batches(_with_bucket, batch_format="pyarrow",
                         fn_args=(num_buckets,)).write_parquet(
        root, partition_cols=[BUCKET_COL]
    )


def probe_pages(t: pa.Table, pages_root: str, flaky: bool = False) -> pa.Table:
    """THE corpus probe: ``t`` (carrying ``pbucket``) → ``t`` without it,
    plus (attempts, html, status), in input row order.

    Each distinct bucket's Parquet files are scanned once with an ``isin``
    filter pushed into the scan; the hits stay an Arrow column from the
    scan through the output (no Python dict of page payloads) and are
    matched back to the rows with ``index_in`` + ``take`` — nulls are the
    404s.  With ``flaky`` the deterministic retry model applies (T6)."""
    out = t.drop_columns([BUCKET_COL])
    urls = out["url"].combine_chunks()
    buckets = t[BUCKET_COL].combine_chunks()
    hits = []
    for b in pc.unique(buckets).to_pylist():
        path = os.path.join(pages_root, f"{BUCKET_COL}={int(b)}")
        if os.path.isdir(path):
            want = urls.filter(pc.equal(buckets, b))
            hits.append(pads.dataset(path, format="parquet").to_table(
                columns=["url", "html"], filter=pc.field("url").isin(want)))
    hit = pa.concat_tables(hits) if hits else pa.table(
        {"url": pa.array([], pa.string()), "html": pa.array([], pa.binary())})
    idx = pc.index_in(urls, value_set=hit["url"].combine_chunks())
    html = pc.take(hit["html"].combine_chunks(), idx)
    # status comes from URL membership, not html validity: a corpus row
    # with a stored-NULL payload is still a 200
    status = pc.if_else(pc.is_valid(idx), pa.scalar(200, pa.int64()),
                        pa.scalar(404, pa.int64()))
    if flaky:
        # the retry model hashes each url (T6) — per-row by nature, but the
        # selection is politeness-bounded so the loop is tiny relative to
        # the payload column, which never leaves Arrow
        pairs = [apply_flaky(u, s) for u, s in
                 zip(urls.to_pylist(), status.to_pylist())]
        status = pa.array([p[0] for p in pairs], pa.int64())
        attempts = pa.array([p[1] for p in pairs], pa.int64())
        html = pc.if_else(pc.equal(status, 200), html,
                          pa.nulls(len(out), html.type))
    else:
        attempts = pa.array([1] * len(out), pa.int64())
    return (out.append_column("attempts", attempts)
            .append_column("html", html)
            .append_column("status", status))


def fetch_selected(selected: rd.Dataset, pages_root: str, num_buckets: int,
                   flaky: bool = False) -> rd.Dataset:
    """selected(url, host, depth, priority, host_seq, partition) →
    + (status, attempts, html): left-join against the bucketed corpus.

    One ``groupby(bucket)`` over the politeness-bounded selection (tiny
    shuffle), then :func:`probe_pages` per group.  With ``flaky`` the
    deterministic transient-failure + retry model applies (T6):
    exhausted retries become status-503 error rows that flow to metrics
    instead of failing the job (the reference's except-pass ≈
    error-row-and-continue, SURVEY.md §4 Retries).
    """
    bucketed = selected.map_batches(_with_bucket, batch_format="pyarrow",
                                    fn_args=(num_buckets,))
    return bucketed.groupby(BUCKET_COL).map_groups(
        probe_pages, batch_format="pyarrow", fn_args=(pages_root, flaky))


class FetchSession:
    """Stateful fetch-session ACTOR: login bootstrap + API-key pool rotation
    (T2/S13).

    Mirrors the reference's session patterns with deterministic semantics:

    - **Login bootstrap** (``Borges/spiders/AIP/aip_spider.py:16-64``): the
      session token is established ONCE per actor in ``__init__`` — the
      place a real deployment performs the login POST and stores cookies.
    - **Key rotation** (``Borges/spiders/Elsevier/paper_index.py:329-348``):
      when a fetch exhausts its retry budget (the deterministic quota model,
      :func:`transient_fail_count` ≥ MAX), the actor advances to the next
      key in the pool; after the last key it wraps and counts a
      full-pool-exhausted event (the reference prints "Hitting quota for
      all API keys" and stops — we record and continue, SURVEY.md §4
      error-row semantics).

    Output rows are IDENTICAL to :func:`fetch_selected` (status, attempts,
    html) plus a ``key_idx`` column recording which key served each row —
    the parity property the conformance test asserts."""

    def __init__(self, pages_root: str, num_buckets: int,
                 api_keys: tuple[str, ...], flaky: bool = False):
        assert api_keys, "FetchSession needs a non-empty key pool"
        self.pages_root = pages_root
        self.num_buckets = num_buckets
        self.keys = tuple(api_keys)
        self.flaky = flaky
        # login bootstrap — once per actor (real deployment: POST /login,
        # keep the cookie jar / bearer token here)
        self.session_token = stable_hash("session:" + self.keys[0])
        self.key_idx = 0
        self.pool_exhausted_events = 0

    def _rotate(self) -> None:
        self.key_idx += 1
        if self.key_idx >= len(self.keys):
            self.key_idx = 0
            self.pool_exhausted_events += 1

    def __call__(self, t: pa.Table) -> pa.Table:
        out = probe_pages(_with_bucket(t, self.num_buckets), self.pages_root,
                          self.flaky)
        key_idxs = []
        for s in out["status"].to_pylist():
            if s == 503:   # quota-style exhaustion → rotate key
                self._rotate()
            key_idxs.append(self.key_idx)
        return out.append_column("key_idx", pa.array(key_idxs, pa.int32()))


def fetch_selected_sessions(selected: rd.Dataset, pages_root: str,
                            num_buckets: int, api_keys: tuple[str, ...],
                            flaky: bool = False, concurrency=(1, 4)) -> rd.Dataset:
    """Session-actor fetch path: same rows as :func:`fetch_selected`, with
    per-actor login + key-pool state.  The ``key_idx`` bookkeeping column
    is dropped so downstream sees the standard fetch contract.  The pool
    stays small (below node CPUs) so it never starves the upstream stages."""
    return selected.map_batches(
        FetchSession,
        fn_constructor_kwargs={"pages_root": pages_root,
                               "num_buckets": num_buckets,
                               "api_keys": tuple(api_keys), "flaky": flaky},
        batch_format="pyarrow",
        concurrency=concurrency,
        num_cpus=1,
    ).drop_columns(["key_idx"])


class RenderSession:
    """Headless-browser fetch ACTOR (S12): per-actor browser-handle state
    with render wait/timeout config — the semantics of the reference's
    Splash path, ``SplashRequest(args={'wait': 10, 'timeout': 90,
    'images_enabled': False})`` (``Borges/spiders/RSC/metadata.py:36-39``)
    behind the splash middleware stack (``Borges/settings.py:93-104``).

    Deterministic stub: the "browser" is a per-actor handle (opened in
    ``__init__``, recycled every ``pages_per_handle`` renders — real
    headless browsers leak and get restarted) and a page's virtual render
    time is a stable function of its url bounded by ``render_wait_ms``
    (Splash waits ``wait`` seconds for the page to settle).  A render time
    at or past ``timeout_ms`` returns status 504 with no html — with the
    reference's default 10 s wait vs 90 s timeout that branch never fires,
    so crawled rows are byte-identical to :func:`fetch_selected` (the
    parity contract the conformance test asserts) plus ``render_ms`` and
    ``handle_gen`` bookkeeping columns.
    """

    def __init__(self, pages_root: str, num_buckets: int,
                 render_wait_ms: int = 10_000, timeout_ms: int = 90_000,
                 pages_per_handle: int = 64, flaky: bool = False,
                 images_enabled: bool = False,
                 resource_timeout_ms: int = 90_000):
        self.pages_root = pages_root
        self.num_buckets = num_buckets
        self.render_wait_ms = render_wait_ms
        self.timeout_ms = timeout_ms
        self.pages_per_handle = pages_per_handle
        self.flaky = flaky
        self.images_enabled = images_enabled
        # Splash's resource_timeout (settings.py middleware surface): a
        # SUB-resource slower than this is aborted but the page itself
        # still renders (partial) — unlike timeout_ms, it never 504s.
        self.resource_timeout_ms = resource_timeout_ms
        self.handle_gen = 0
        self.pages_rendered = 0
        self._open_handle()

    def _open_handle(self) -> None:
        """(Re)start the browser handle — once per actor init and after
        every ``pages_per_handle`` renders."""
        self.handle_gen += 1
        self.handle_token = stable_hash(f"browser:{self.handle_gen}")
        self.pages_rendered = 0

    def render_ms_of(self, url: str) -> int:
        """Virtual settle time for this page, bounded by the configured
        wait (images-off renders settle in half the budget)."""
        budget = self.render_wait_ms if self.images_enabled else self.render_wait_ms // 2
        return stable_hash("render:" + url) % max(budget, 1)

    def resources_skipped_of(self, url: str) -> int:
        """How many of the page's sub-resources (a stable 0-7 per url)
        exceed ``resource_timeout_ms`` and get aborted mid-render.  Each
        resource's virtual load time is a stable hash in [0, 30 s); at
        the reference default (90 s) nothing ever skips, preserving the
        byte-parity contract with the plain fetch path."""
        n_res = stable_hash("nres:" + url) % 8
        return sum(
            1 for i in range(n_res)
            if stable_hash(f"res:{url}:{i}") % 30_000 >= self.resource_timeout_ms)

    def __call__(self, t: pa.Table) -> pa.Table:
        out = probe_pages(_with_bucket(t, self.num_buckets), self.pages_root,
                          self.flaky)
        render_ms, handle_gens, res_skipped = [], [], []
        for u, s in zip(out["url"].to_pylist(), out["status"].to_pylist()):
            r = skipped = 0
            if s == 200:
                r = self.render_ms_of(u)
                skipped = self.resources_skipped_of(u)
                self.pages_rendered += 1
                if self.pages_rendered >= self.pages_per_handle:
                    self._open_handle()
            render_ms.append(r)
            handle_gens.append(self.handle_gen)
            res_skipped.append(skipped)
        render = pa.array(render_ms, pa.int64())
        # render timeout: the page is dropped — status 504, html null
        late = pc.and_(pc.equal(out["status"], 200),
                       pc.greater_equal(render, self.timeout_ms))
        html = pa.scalar(None, out.schema.field("html").type)
        return (out.drop_columns(["html", "status"])
                .append_column("html", pc.if_else(late, html, out["html"]))
                .append_column("status", pc.if_else(late, 504, out["status"]))
                .append_column("render_ms", render)
                .append_column("handle_gen", pa.array(handle_gens, pa.int32()))
                .append_column("resources_skipped",
                               pa.array(res_skipped, pa.int32())))


def fetch_selected_render(selected: rd.Dataset, pages_root: str,
                          num_buckets: int, *, render_wait_ms: int = 10_000,
                          timeout_ms: int = 90_000,
                          resource_timeout_ms: int = 90_000,
                          flaky: bool = False,
                          concurrency=(1, 4)) -> rd.Dataset:
    """Browser-render fetch path (S12): same rows as :func:`fetch_selected`,
    with per-actor browser-handle state.  The ``render_ms``, ``handle_gen``
    and ``resources_skipped`` bookkeeping columns are dropped so downstream
    sees the standard fetch contract.  Render work is the expensive stage in
    a real deployment — the actor pool bounds concurrent browser handles
    per node."""
    return selected.map_batches(
        RenderSession,
        fn_constructor_kwargs={"pages_root": pages_root,
                               "num_buckets": num_buckets,
                               "render_wait_ms": render_wait_ms,
                               "timeout_ms": timeout_ms,
                               "resource_timeout_ms": resource_timeout_ms,
                               "flaky": flaky},
        batch_format="pyarrow",
        concurrency=concurrency,
        num_cpus=1,
    ).drop_columns(["render_ms", "handle_gen", "resources_skipped"])


# ---------------------------------------------------------------------------
# Pluggable fetcher seam (the "real HTTP" deployment path)
# ---------------------------------------------------------------------------
#
# The engine selects its fetch stage through ``EngineConfig.fetcher`` — any
# callable ``(selected: rd.Dataset, cfg, rnd: int) -> rd.Dataset`` whose
# output carries the fetch contract columns ``status`` (int), ``attempts``
# (int) and ``html`` (string, null on non-200) alongside the selection's
# passthrough columns.  The in-corpus probe (:func:`fetch_selected`) is the
# default implementation; :class:`HttpFetchSession` below is the actor-pool
# HTTP skeleton a real deployment would select (reference:
# ``Borges/spiders/Elsevier/paper_xml.py:73-76``,
# ``AIP/aip_spider.py:16-64`` — session bootstrap + per-request GETs).

FETCH_CONTRACT_COLS = ("status", "attempts", "html")


class HttpFetchSession:
    """Actor-pool HTTP fetch SKELETON (T1/T2 deployment seam).

    One actor = one HTTP session: the session/opener is built ONCE in
    ``__init__`` (the login-bootstrap point — cookies, bearer tokens, the
    reference's ``aip_spider.py:16-64`` POST) and every batch row is
    fetched through it, paced by a per-host token bucket.

    The transport is INJECTABLE: pass ``transport(url) -> (status,
    body)`` or ``(status, body, retry_after_s)``.  With ``transport=None``
    the actor builds a stdlib ``urllib`` opener and performs real GETs —
    the production path: an HTTP error answer keeps its status (a 404 is
    not retried) and its ``Retry-After`` seconds, a transport failure is
    599, and body bytes pass through undecoded.  The tests drive it
    against a loopback ``http.server`` and inject deterministic transports
    to assert pacing + contract.

    Pacing: ``min_interval_ms`` per host, for EVERY attempt.  A host's
    slot is taken when its request is SENT, so consecutive sends to one
    host are at least the interval apart however long other hosts'
    requests took.  Hosts are served in the order they come free, each
    host's rows in selection order; a retry (5xx / transport error) goes
    back to the head of its host's queue and waits behind its failed
    attempt's send a gap that doubles per attempt — ``min_interval_ms``
    (at least ``RETRY_BASE_MS``), then twice that, … capped at
    ``RETRY_CAP_MS`` but never below the interval (the reference widens
    its wait 0.1 → 5 s, ``Borges/spiders/Elsevier/paper_xml.py:137-173``)
    — while other hosts' rows go ahead on their own schedule.  A
    ``Retry-After`` answer holds the host until that many seconds after
    the answer arrived.
    With ``sleep=True`` the actor really waits on the monotonic clock
    (deployment); with ``False`` the clock is virtual (``clock_ms``, which
    an injected transport may advance to model latency) and nothing
    sleeps, so tests assert per-host gaps without wall-clock cost.
    ``sched_ms`` is each row's first send time.  Output rows keep the
    selection order.
    """

    RETRY_BASE_MS = 100.0
    RETRY_CAP_MS = 5000.0

    def __init__(self, transport=None, *, min_interval_ms: int = 1000,
                 max_attempts: int = MAX_FETCH_ATTEMPTS,
                 timeout_s: float = 30.0, sleep: bool = False,
                 headers: tuple = ()):
        if transport is None:
            import urllib.error
            import urllib.request
            opener = urllib.request.build_opener()
            opener.addheaders = list(headers) or opener.addheaders

            def transport(url: str) -> tuple[int, bytes | None, float | None]:
                # raw body bytes; an HTTP error answer keeps its status and
                # its Retry-After (delta-seconds form; an HTTP-date is ignored)
                try:
                    with opener.open(url, timeout=timeout_s) as r:
                        return r.status, r.read(), None
                except urllib.error.HTTPError as e:
                    ra = (e.headers.get("Retry-After") or "").strip()
                    e.close()
                    return e.code, None, float(ra) if ra.isdigit() else None
                except Exception:
                    return 599, None, None

        self.transport = transport
        self.min_interval_ms = int(min_interval_ms)
        self.max_attempts = int(max_attempts)
        self.sleep = bool(sleep)
        self.next_allowed: dict[str, float] = {}
        self.clock_ms = 0.0

    def retry_gap_ms(self, attempt: int) -> float:
        """Wait between failed attempt ``attempt`` (1-based) and the
        retry's send: doubling per attempt from the interval (at least
        ``RETRY_BASE_MS``), capped at ``RETRY_CAP_MS``, never below the
        interval."""
        base = max(self.min_interval_ms, self.RETRY_BASE_MS)
        return max(self.min_interval_ms,
                   min(base * 2 ** (attempt - 1), self.RETRY_CAP_MS))

    def _now(self) -> float:
        import time as _time

        return self.clock_ms if not self.sleep else _time.monotonic() * 1000.0

    def _wait_until(self, at: float) -> float:
        """Wait until ``at`` and return the send time.  With ``sleep=True``
        the clock is the real monotonic clock; with ``False`` it is the
        VIRTUAL ``clock_ms``, which only moves forward to ``at`` here or
        when the transport advances it."""
        import time as _time

        if not self.sleep:
            self.clock_ms = max(self.clock_ms, at)
            return self.clock_ms
        wait = at - self._now()
        if wait > 0:
            _time.sleep(wait / 1000.0)
        return self._now()

    def __call__(self, t: pa.Table) -> pa.Table:
        import heapq
        from collections import deque

        urls = t["url"].to_pylist()
        hosts = (t["host"].to_pylist() if "host" in t.column_names
                 else [u.split("/")[2] if "//" in u else u for u in urls])
        n = len(urls)
        statuses, attempts = [0] * n, [0] * n
        bodies: list = [None] * n
        sched = [0.0] * n
        # each host's pending rows in selection order; a retry goes back to
        # the head of its host's queue
        queues: dict[str, deque] = {}
        for i, h in enumerate(hosts):
            queues.setdefault(h, deque()).append(i)
        # one entry per host with pending rows, keyed (host free, head
        # row): the host's slot is only taken when its request is actually
        # sent — per HOST, so K interleaved hosts proceed at ~K requests
        # per interval and an idle host never waits
        ready = [(self.next_allowed.get(h, 0.0), q[0], h)
                 for h, q in queues.items()]
        heapq.heapify(ready)
        while ready:
            at, i, h = heapq.heappop(ready)
            queues[h].popleft()
            sent = self._wait_until(at)
            if attempts[i] == 0:
                sched[i] = sent
            s, bodies[i], *rest = self.transport(urls[i])
            statuses[i] = int(s)
            attempts[i] += 1
            gap = self.min_interval_ms
            if s not in (200, 404) and attempts[i] < self.max_attempts:
                queues[h].appendleft(i)
                gap = self.retry_gap_ms(attempts[i])
            self.next_allowed[h] = sent + gap
            if rest and rest[0] is not None:  # Retry-After, in seconds
                self.next_allowed[h] = max(self.next_allowed[h],
                                           self._now() + 1000.0 * rest[0])
            if queues[h]:
                heapq.heappush(ready, (self.next_allowed[h], queues[h][0], h))
        htmls = [
            # html is BINARY engine-wide (the corpus column type)
            (b.encode("utf-8") if isinstance(b, str) else bytes(b))
            if s == 200 and b is not None else None
            for s, b in zip(statuses, bodies)
        ]
        return (t.append_column("attempts", pa.array(attempts, pa.int64()))
                .append_column("html", pa.array(htmls, pa.binary()))
                .append_column("status", pa.array(statuses, pa.int64()))
                .append_column("sched_ms", pa.array(sched, pa.float64())))


def fetch_selected_http(selected: rd.Dataset, *, transport=None,
                        min_interval_ms: int = 1000, sleep: bool = False,
                        concurrency=(1, 4)) -> rd.Dataset:
    """HTTP-skeleton fetch path behind the same seam as
    :func:`fetch_selected` — an actor pool of :class:`HttpFetchSession`.
    The ``sched_ms`` bookkeeping column is dropped so downstream sees the
    standard fetch contract."""
    return selected.map_batches(
        HttpFetchSession,
        fn_constructor_kwargs={"transport": transport,
                               "min_interval_ms": min_interval_ms,
                               "sleep": sleep},
        batch_format="pyarrow",
        concurrency=concurrency,
        num_cpus=1,
    ).drop_columns(["sched_ms"])
