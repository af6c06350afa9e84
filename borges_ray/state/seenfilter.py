"""Per-host-bucket URL-seen membership, owned by the task that gates the
bucket — no actor, no shared mutable index.

Host bucket ``b = stable_hash(host) % P`` (the crawl's one state key, see
``pipelines/crawl.py``) keeps one filter (Bloom, or cuckoo with
``seen_filter="cuckoo"``) sized by ``seen_capacity``, persisted as raw bits
in ``round=r/seen_filter/hb-<b>-filter.bits``.  In round r the ONE task of
bucket b (:func:`borges_ray.stages.links.gate_bucket`) runs
:func:`check_and_add` on its winners:

- it loads round r's filter file; a filter negative is new;
- a filter positive is confirmed exactly against bucket b's OWN committed
  seen history — its ``seen_delta/hb-<b>-new.parquet`` file of each round
  ≤ r (:func:`history_files`), rows sorted by url.  Each file is read in
  full (pyarrow prunes no row group for the probe's ``isin`` filter), but
  it holds only one round's new urls of one bucket, and no task opens
  another bucket's files;
- it adds the new URLs and writes round r+1's filter file before the
  round's ``_COMMITTED``; with nothing new it hard-links round r's file
  forward (:func:`link_forward`) — a file op, no data read.

The task reads only committed rounds and writes deterministic bytes under a
deterministic name, so a retried task reproduces its own output; resume
loads round r's files and re-hashes no history.  Memory per task: one
filter's bits plus one bucket's probe.

Skew (not handled here): a Zipf-head host's whole seen set lands in one
bucket.  Past ``seen_capacity`` keys its Bloom filter's false-positive rate
rises (positives are still confirmed exactly, so only the confirm cost
grows), and a cuckoo filter raises ``RuntimeError`` — a loud failure, not a
silent one.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads
import pyarrow.fs as pafs

from .. import schemas
from .bloom import BloomFilter
from .checkpoint import bucket_file, link_file, write_file
from .cuckoo import CuckooFilter

FILTERS = {"bloom": BloomFilter, "cuckoo": CuckooFilter}


@dataclass(frozen=True)
class SeenFilters:
    """One bucket's URL-seen state for one round, as its task needs it."""
    kind: str                  # "bloom" | "cuckoo"
    capacity: int              # keys per bucket filter
    src: str                   # seen_filter dir entering the round (read)
    dst: str                   # seen_filter dir of the next round (written)
    history: tuple[str, ...]   # the bucket's committed seen_delta files


def new_filter(kind: str, capacity: int):
    if kind not in FILTERS:
        raise ValueError(f"unknown seen_filter {kind!r}")
    return FILTERS[kind](capacity)


def filter_path(dir_: str, b: int) -> str:
    """Bucket ``b``'s filter file in a round's ``seen_filter/`` dir."""
    return bucket_file(dir_, b, "filter", "bits")


def history_files(seen_delta_dirs, b: int) -> tuple[str, ...]:
    """Bucket ``b``'s committed seen files (sorted by url) among
    ``seen_delta_dirs``."""
    return tuple(p for p in (bucket_file(d, b, "new") for d in seen_delta_dirs)
                 if os.path.exists(p))


def read_filter(kind: str, capacity: int, path: str):
    with open(path, "rb") as f:
        return FILTERS[kind].frombytes(capacity, f.read())


def link_forward(seen: SeenFilters, b: int) -> None:
    """Round r+1's filter of bucket ``b`` is round r's file, hard-linked."""
    link_file(filter_path(seen.src, b), filter_path(seen.dst, b))


def seed_filters(dir_: str, kind: str, capacity: int, num_buckets: int,
                 urls_by_bucket: dict[int, list[str]]) -> None:
    """Round 0's files: one filter per bucket holding its seed URLs."""
    for b in range(num_buckets):
        f = new_filter(kind, capacity)
        f.add_batch(sorted(urls_by_bucket.get(b, ())))
        write_file(filter_path(dir_, b), f.tobytes())


def in_history(files: tuple[str, ...], urls: list[str]) -> np.ndarray:
    """Exact membership of ``urls`` in the seen ``files`` (one bucket's):
    one scan filtered by url."""
    if not files or not urls:
        return np.zeros(len(urls), dtype=bool)
    probe = pa.array(urls, pa.string())
    # explicit paths and schema: no discovery, no footer read until the scan;
    # one scan thread, since the task already holds its own CPU slot
    hits = pads.FileSystemDataset.from_paths(
        list(files), schema=schemas.SEEN, format=pads.ParquetFileFormat(),
        filesystem=pafs.LocalFileSystem(),
    ).to_table(columns=["url"], use_threads=False,
               filter=pc.field("url").isin(probe))
    return pc.is_in(probe, value_set=hits["url"]).to_numpy(zero_copy_only=False)


def check_and_add(seen: SeenFilters, b: int, urls: list[str]) -> np.ndarray:
    """The new-mask of bucket ``b``'s distinct candidate ``urls``; writes
    the bucket's next filter with the new ones added (or links it forward
    when none is new)."""
    if not urls:
        link_forward(seen, b)
        return np.zeros(0, dtype=bool)
    filt = read_filter(seen.kind, seen.capacity, filter_path(seen.src, b))
    maybe = filt.maybe_contains_batch(urls)
    new = ~maybe
    if maybe.any():
        pos = np.flatnonzero(maybe)
        new[pos] = ~in_history(seen.history, [urls[i] for i in pos])
    if not new.any():
        link_forward(seen, b)
        return new
    filt.add_batch(sorted(u for u, n in zip(urls, new) if n))
    write_file(filter_path(seen.dst, b), filt.tobytes())
    return new
