"""URL canonicalization, host extraction, and the stable hash partitioner.

The reference resolves relative links ad hoc with ``response.urljoin`` /
``urljoin(base, href)`` (``Borges/spiders/RSC/metadata.py:58,68,98-100``,
``Borges/spiders/ECS/abstract_link.py:39``, ``Borges/spiders/AIP/aip_spider.py:87``)
and dedups on whatever string resulted.  We define ONE canonical form and use
it as the engine-wide dedup / join / partition key:

- scheme and host lowercased
- default ports stripped (``:80`` http, ``:443`` https)
- fragment stripped (a fragment link is the same page)
- dot-segments resolved, empty path -> ``/``
- query parameters sorted by (key, value); empty query dropped

Every stage keys on ``canonicalize(url)``; the partitioner is a **stable**
64-bit blake2b hash (Python's builtin ``hash`` is salted per process and must
never be used for cross-process partitioning).
"""

from __future__ import annotations

import hashlib
from urllib.parse import parse_qsl, urlencode, urljoin, urlsplit, urlunsplit

_DEFAULT_PORTS = {"http": "80", "https": "443"}


def canonicalize(url: str, base: str | None = None) -> str | None:
    """Return the canonical form of ``url`` (resolved against ``base`` if
    relative), or ``None`` for non-http(s) / unparseable URLs."""
    if base is not None:
        url = urljoin(base, url)
    try:
        parts = urlsplit(url)
    except ValueError:
        return None
    scheme = parts.scheme.lower()
    if scheme not in ("http", "https"):
        return None
    host = (parts.hostname or "").lower()
    if not host:
        return None
    netloc = host
    port = parts.port
    if port is not None and str(port) != _DEFAULT_PORTS[scheme]:
        netloc = f"{host}:{port}"
    path = parts.path or "/"
    # resolve dot-segments deterministically
    if "." in path:
        segs: list[str] = []
        for seg in path.split("/"):
            if seg == ".":
                continue
            if seg == "..":
                if segs and segs[-1]:
                    segs.pop()
                continue
            segs.append(seg)
        path = "/".join(segs)
        if not path.startswith("/"):
            path = "/" + path
    query = ""
    if parts.query:
        pairs = sorted(parse_qsl(parts.query, keep_blank_values=True))
        query = urlencode(pairs)
    return urlunsplit((scheme, netloc, path, query, ""))


def host_of(url: str) -> str:
    """Host (lowercased, no port) of an already-canonical URL."""
    return urlsplit(url).hostname or ""


def stable_hash(s: str) -> int:
    """Stable non-negative 64-bit hash of a string (cross-process safe)."""
    return int.from_bytes(hashlib.blake2b(s.encode("utf-8"), digest_size=8).digest(), "big")


def partition_of(url: str, num_partitions: int) -> int:
    """Hash partition for a canonical URL — the engine-wide partitioner used
    by the seen-set shards, the Bloom shards, and the dedup shuffle."""
    return stable_hash(url) % num_partitions


def host_buckets(hosts, num_buckets: int):
    """Host bucket ``stable_hash(host) % num_buckets`` of each entry of the
    Arrow string array ``hosts``, as an int64 numpy array: the crawl's
    state key.  One hash per DISTINCT host, mapped back through the
    dictionary encoding."""
    import numpy as np
    import pyarrow as pa

    if isinstance(hosts, pa.ChunkedArray):
        hosts = hosts.combine_chunks()
    enc = hosts.dictionary_encode()
    lut = np.array([stable_hash(h) % num_buckets
                    for h in enc.dictionary.to_pylist()], dtype=np.int64)
    return lut[enc.indices.to_numpy(zero_copy_only=False)]


def canonicalize_batch(urls: list[str], bases: list[str] | None = None) -> list[str | None]:
    """Canonicalize a batch with memoization (crawl batches repeat hosts and
    frequently repeat whole URLs; the cache removes redundant parses)."""
    cache: dict[tuple[str, str | None], str | None] = {}
    out: list[str | None] = []
    if bases is None:
        for u in urls:
            key = (u, None)
            v = cache.get(key)
            if v is None and key not in cache:
                v = canonicalize(u)
                cache[key] = v
            out.append(v)
    else:
        for u, b in zip(urls, bases):
            key = (u, b)
            v = cache.get(key)
            if v is None and key not in cache:
                v = canonicalize(u, b)
                cache[key] = v
            out.append(v)
    return out


def url_features_batch(urls) -> "pd.DataFrame":  # noqa: F821
    """Vectorized URL structure features — the cheap signals crawl
    schedulers use for frontier prioritization and spam demotion (path
    depth, parameter count, digit-heavy hosts; cf. the reference's
    URL-shape gating of which index pages are worth following,
    ``paper_index.py``).  All counts are exact integers so a SQL oracle
    reproduces every value bit-for-bit.

    Input: pandas Series of raw absolute URL strings.  Output columns:

    - ``scheme``      lowercased scheme
    - ``host``        lowercased host, port stripped
    - ``host_len``    ``len(host)``
    - ``host_digits`` count of ASCII digit chars in host
    - ``path_depth``  number of NON-EMPTY ``/``-separated path segments
    - ``n_params``    query parameters (``&``-separated, 0 when no query)
    - ``url_len``     ``len(url)``

    Pure pandas str kernels (compiled-regex extract/count) — no per-row
    Python parse; this runs inside map_batches as a shuffle-free scan.
    """
    import pandas as pd

    s = pd.Series(urls).fillna("").astype(str)
    scheme = s.str.extract(r"^([A-Za-z][A-Za-z0-9+.-]*)://", expand=False)
    rest = s.str.replace(r"^[A-Za-z][A-Za-z0-9+.-]*://", "", regex=True)
    netloc = rest.str.extract(r"^([^/?#]*)", expand=False).fillna("")
    host = netloc.str.replace(r":\d+$", "", regex=True).str.lower()
    after = rest.str.slice(start=0).str.replace(r"^[^/?#]*", "", regex=True)
    path = after.str.extract(r"^([^?#]*)", expand=False).fillna("")
    query = after.str.extract(r"\?([^#]*)", expand=False)
    core = path.str.replace(r"/+", "/", regex=True).str.strip("/")
    depth = (core.str.count("/") + 1).where(core != "", 0).astype("int64")
    nparams = (query.str.count("&") + 1).fillna(0).astype("int64")
    return pd.DataFrame({
        "scheme": scheme.fillna("").str.lower(),
        "host": host,
        "host_len": host.str.len().astype("int64"),
        "host_digits": host.str.count(r"[0-9]").astype("int64"),
        "path_depth": depth,
        "n_params": nparams,
        "url_len": s.str.len().astype("int64"),
    })


def url_template_batch(urls) -> "pd.DataFrame":  # noqa: F821
    """URL → (host, path template) with digit runs collapsed to ``N`` —
    the classic spider-trap / infinite-URL-space detector input
    (calendar pages, session ids, pagination: one template generating
    unbounded distinct URLs).  Grouping crawl candidates by template and
    counting exposes traps as templates whose URL count explodes
    relative to the rest of the host; the crawl scheduler caps budget
    per template instead of per URL.  Vectorized str kernels; query
    strings are dropped (trap params are normalized away by
    ``canonicalize``'s sort + this collapse)."""
    import pandas as pd

    s = pd.Series(urls).fillna("").astype(str)
    rest = s.str.replace(r"^[A-Za-z][A-Za-z0-9+.-]*://", "", regex=True)
    host = (rest.str.extract(r"^([^/?#]*)", expand=False).fillna("")
            .str.replace(r":\d+$", "", regex=True).str.lower())
    path = (rest.str.replace(r"^[^/?#]*", "", regex=True)
            .str.extract(r"^([^?#]*)", expand=False).fillna(""))
    tpl = path.str.replace(r"[0-9]+", "N", regex=True)
    tpl = tpl.where(tpl != "", "/")
    return pd.DataFrame({"host": host, "template": tpl})
