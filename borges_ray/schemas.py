"""Declared pyarrow schemas for every table in the engine.

The reference is schema-on-write Mongo with per-publisher drift (e.g.
``Published_Year`` is an int at ``Borges/spiders/Elsevier/paper_index.py:56``
but a string in ``Borges/spiders/IOP/scripts/article_xml_extractor.py:146-161``;
the DOI key exists in two casings requiring a double lookup at
``article_xml_extractor.py:66-78``).  We eliminate that drift with one fixed
Arrow schema per logical table.
"""

from __future__ import annotations

import pyarrow as pa

TS = pa.timestamp("us")

#: The synthetic web — one row per reachable page (BASELINE.json input_hint).
#: ``html`` is raw page bytes; ``text`` is the golden extraction
#: (byte-identical contract); ``lang`` the golden language tag.
PAGES = pa.schema(
    [
        ("url", pa.string()),
        ("warc_ts", TS),
        ("html", pa.binary()),
        ("text", pa.string()),
        ("lang", pa.string()),
    ]
)

#: Crawl roots (the reference's ``start_urls.yaml`` loaded at
#: ``Borges/spiders/RSC/metadata.py:27-30``) as a table, not config.
SEEDS = pa.schema(
    [
        ("url", pa.string()),
        ("priority", pa.int32()),
        ("seed_ts", TS),
    ]
)

#: Frontier rows — the reference's Scrapy ``Request`` + ``meta`` dict
#: (``Borges/spiders/RSC/metadata.py:61-63``) flattened to columns.
FRONTIER = pa.schema(
    [
        ("url", pa.string()),          # canonical form — the dedup key
        ("host", pa.string()),
        ("depth", pa.int32()),
        ("priority", pa.int32()),
        ("discovered_round", pa.int32()),
        ("parent_url", pa.string()),
        ("partition", pa.int32()),     # hash(url) % num_partitions
    ]
)

#: One row per fetch attempt — the reference's paper record
#: (``Borges/spiders/IOP/scripts/article_xml_extractor.py:450-468``) with
#: crawl-state flags replaced by a ``status`` column (F5 semantics,
#: ``Borges/spiders/Elsevier/paper_xml.py:79-90``).
CRAWLED = pa.schema(
    [
        ("url", pa.string()),
        ("host", pa.string()),
        ("depth", pa.int32()),
        ("fetch_round", pa.int32()),
        ("host_seq", pa.int32()),      # fetch order within host (per-host ordering contract)
        ("status", pa.int32()),        # 200 ok, 404 miss, 503 retries exhausted, 999 robots-blocked
        ("attempts", pa.int32()),      # fetch attempts consumed (T6 retry model)
        ("extracted_text", pa.string()),
        ("lang", pa.string()),
        ("n_links", pa.int32()),
    ]
)

#: URL-seen delta per round (append-only; the union over rounds is the exact
#: seen set — the reference's insert-if-absent Mongo key check,
#: ``Borges/db_scripts/insert_jl.py:28-41``).
SEEN = pa.schema(
    [
        ("url", pa.string()),
        ("partition", pa.int32()),
        ("seen_round", pa.int32()),
    ]
)

#: Per-host crawl policy (the surface of ``ROBOTSTXT_OBEY`` / ``DOWNLOAD_DELAY``
#: at ``Borges/settings.py:23,31``).  ``disallow_prefixes`` empty + large
#: budget reproduces the reference's robots-off behaviour.
ROBOTS = pa.schema(
    [
        ("host", pa.string()),
        ("disallow_prefixes", pa.list_(pa.string())),
        ("crawl_delay_ms", pa.int64()),
        ("user_agent", pa.string()),
    ]
)

#: Per-partition per-round lineage/metrics rows — the reference's per-journal
#: per-year ledger (``Borges/spiders/Elsevier/paper_index.py:256-283``,
#: ``Borges/db_scripts/journal_scripts.py:39-71``) as a relational table.
#: ``frontier_size`` is the size of the WHOLE frontier entering the round
#: (the same value on every partition row of the round); the oracle's
#: per-round ``frontier_size`` is taken after the round's enqueue, so it
#: equals this value plus the round's summed ``links_new``.
METRICS = pa.schema(
    [
        ("round", pa.int32()),
        ("partition", pa.int32()),
        ("frontier_size", pa.int64()),
        ("selected", pa.int64()),
        ("fetched", pa.int64()),
        ("missed", pa.int64()),
        ("blocked", pa.int64()),
        ("links_emitted", pa.int64()),
        ("links_new", pa.int64()),
    ]
)


def empty_table(schema: pa.Schema) -> pa.Table:
    """An empty pyarrow table with the given schema."""
    return schema.empty_table()
