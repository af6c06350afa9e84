"""Per-partition URL-seen membership, owned by the task that gates the
partition — no actor, no shared mutable index.

Partition ``p = partition_of(url, P)`` keeps one filter (Bloom, or cuckoo
with ``seen_filter="cuckoo"``) sized by ``seen_capacity``, persisted as raw
bits in ``round=r/seen_filter/part-<p>.bits``.  In round r the ONE winner
``map_groups`` call of partition p (:func:`borges_ray.stages.links.gate_links`)
runs :func:`check_and_add` on its winners:

- it loads round r's filter file; a filter negative is new;
- a filter positive is confirmed exactly against the partition's committed
  seen history — the ``seen_delta`` files of rounds ≤ r, whose list the
  driver resolves once per round (rows are written sorted by
  ``(partition, url)``, so at design scale the probe prunes row groups by
  their statistics);
- it adds the new URLs and writes round r+1's filter file before the
  round's ``_COMMITTED``.

The task reads only committed rounds and writes deterministic bytes under a
deterministic name, so a retried task reproduces its own output.  A
partition with no candidates in a round carries its file forward by hard
link (:func:`carry_forward`); resume loads round r's files and re-hashes no
history.  Memory per task: one filter's bits plus one partition's probe.
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
from .cuckoo import CuckooFilter

FILTERS = {"bloom": BloomFilter, "cuckoo": CuckooFilter}


@dataclass(frozen=True)
class SeenFilters:
    """One round's URL-seen state, as the partition tasks need it."""
    kind: str                  # "bloom" | "cuckoo"
    capacity: int              # keys per partition filter
    src: str                   # seen_filter dir entering the round (read)
    dst: str                   # seen_filter dir of the next round (written)
    history: tuple[str, ...]   # committed seen_delta parquet files


def new_filter(kind: str, capacity: int):
    if kind not in FILTERS:
        raise ValueError(f"unknown seen_filter {kind!r}")
    return FILTERS[kind](capacity)


def filter_path(dir_: str, p: int) -> str:
    return os.path.join(dir_, f"part-{p:05d}.bits")


def read_filter(kind: str, capacity: int, path: str):
    with open(path, "rb") as f:
        return FILTERS[kind].frombytes(capacity, f.read())


def write_filter(filt, path: str) -> None:
    """Atomic (tmp + rename in the same dir), so a reader or a retried
    writer never sees a partial file."""
    tmp = f"{path}.__tmp.{os.getpid()}"
    with open(tmp, "wb") as f:
        f.write(filt.tobytes())
    os.replace(tmp, path)


def seed_filters(dir_: str, kind: str, capacity: int, num_partitions: int,
                 urls_by_partition: dict[int, list[str]]) -> None:
    """Round 0's files: one filter per partition holding its seed URLs."""
    os.makedirs(dir_, exist_ok=True)
    for p in range(num_partitions):
        f = new_filter(kind, capacity)
        f.add_batch(sorted(urls_by_partition.get(p, ())))
        write_filter(f, filter_path(dir_, p))


def carry_forward(src: str, dst: str, num_partitions: int) -> None:
    """Hard-link round r's file of every partition whose task wrote no
    round r+1 file (no candidates this round) — a file op, no data read."""
    os.makedirs(dst, exist_ok=True)
    for p in range(num_partitions):
        out = filter_path(dst, p)
        if not os.path.exists(out):
            os.link(filter_path(src, p), out)


def in_history(files: tuple[str, ...], p: int, urls: list[str]) -> np.ndarray:
    """Exact membership of ``urls`` (all in partition ``p``) in the seen
    history ``files``: one scan filtered by partition and url."""
    if not files or not urls:
        return np.zeros(len(urls), dtype=bool)
    probe = pa.array(urls, pa.string())
    # explicit paths and schema: no discovery, no footer read until the scan;
    # one scan thread, since the task already holds its own CPU slot
    hits = pads.FileSystemDataset.from_paths(
        list(files), schema=schemas.SEEN, format=pads.ParquetFileFormat(),
        filesystem=pafs.LocalFileSystem(),
    ).to_table(columns=["url"], use_threads=False,
               filter=(pc.field("partition") == p) & pc.field("url").isin(probe))
    return pc.is_in(probe, value_set=hits["url"]).to_numpy(zero_copy_only=False)


def check_and_add(seen: SeenFilters, p: int, urls: list[str]) -> np.ndarray:
    """The new-mask of partition ``p``'s distinct candidate ``urls``;
    writes the partition's next filter with the new ones added."""
    filt = read_filter(seen.kind, seen.capacity, filter_path(seen.src, p))
    maybe = filt.maybe_contains_batch(urls)
    new = ~maybe
    if maybe.any():
        pos = np.flatnonzero(maybe)
        new[pos] = ~in_history(seen.history, p, [urls[i] for i in pos])
    filt.add_batch(sorted(u for u, n in zip(urls, new) if n))
    write_filter(filt, filter_path(seen.dst, p))
    return new
