"""Round checkpoint layout with atomic commit markers — and the one module
that names, writes, reads and hard-links a round's files.

The reference resumes by querying Mongo for ``{'Crawled': False}``
(``Borges/spiders/Elsevier/paper_xml.py:203``) — mutable flags in a DB.  Our
equivalent is immutable round outputs (SURVEY.md §4 "Checkpoint / resume").
Every piece of round state is keyed by the host bucket ``b = stable_hash(host)
% num_partitions`` (``pipelines/crawl.py``), one ``hb-<b>-<tag>.<ext>`` file
per bucket (:func:`bucket_file`; ``<b>`` is five digits, ``<digest>`` 16 hex
digits).  Every subdir is flat:

    ckpt/
      round=0000/
        frontier/     hb-<b>-new.parquet       (the FULL frontier entering
                      hb-<b>-deferred.parquet   round r: b's new links of
                                                round r-1 plus the rows b's
                                                select left over)
        host_state/   hb-<b>-state.parquet     (host, next_seq,
                                                next_allowed_ms) entering r
        seen_delta/   hb-<b>-new.parquet       (URLs first enqueued during
                      empty.parquet             round r-1, sorted by url;
                                                ``empty.parquet`` only in a
                                                round that saw none)
        seen_filter/  hb-<b>-filter.bits       (raw bits of bucket b's
                                                URL-seen filter over its
                                                seen_delta of rounds 0..r;
                                                see state/seenfilter.py)
        crawled/      fetched-<digest>.parquet (round r-1's fetch results)
                      hb-<b>-blocked.parquet   (robots-blocked 999 rows)
        cand/         hb-<b>-<digest>.arrow    (round r-1's link candidates,
                                                Arrow IPC, one file per
                                                parsed block and bucket; the
                                                input of the gate, kept as
                                                lineage)
        tally/        hb-<b>-select.arrow      (per-task counts METRICS is
                      hb-<b>-gate.arrow         built from, Arrow IPC)
        metrics/      part-0.parquet           (METRICS of round r-1)
        timings/      part-0.parquet           (phase, seconds) of round
                                                r-1, ``total`` included
        _MANIFEST                 (round 0 only: the layout settings and
                                   the state key the checkpoint was
                                   written with, JSON)
        _COMMITTED                (empty marker, written LAST)

Round 0 holds the seeds, admitted like any gated link: ``frontier/``,
``seen_delta/``, ``seen_filter/``, the blocked seeds in ``crawled/`` and
the ``_MANIFEST``.

Round r's selection step writes the deferred rows, host state and select
tally of round r+1 — and, when it runs inside round r-1's gate execution,
it does so into round r+1's dir before round r has committed.  That
pre-write is safe to lose: a crash before round r commits leaves round r+1
(and round r) uncommitted, :func:`clean_uncommitted` deletes them, and the
resume re-runs the selection from committed state.

Resume = max round with ``_COMMITTED``; the seen filters load from round
k's ``seen_filter`` files (no history is re-hashed) and confirm against
each bucket's own ``seen_delta`` files of rounds 0..k, the frontier and
host state reload from round k — a killed job replays only the uncommitted
round, and replaying is idempotent because every task-side output is keyed
by its bucket or by a content digest.  A resume whose layout settings (or
state key) differ from ``_MANIFEST`` raises instead of mis-routing state.

Every file lands in a tmp name and then ``os.replace`` (:func:`write_file`,
:func:`link_file`) — the marker never coexists with partial data.
"""

from __future__ import annotations

import glob
import json
import os
import shutil

import pyarrow as pa
import pyarrow.feather as pafeather
import pyarrow.parquet as pq

MANIFEST = "_MANIFEST"


def round_dir(ckpt: str, rnd: int) -> str:
    return os.path.join(ckpt, f"round={rnd:04d}")


def bucket_file(dir_: str, b: int, tag: str, ext: str = "parquet") -> str:
    """Path of host bucket ``b``'s ``tag`` file in the round subdir ``dir_``."""
    return os.path.join(dir_, f"hb-{b:05d}-{tag}.{ext}")


def bucket_files(dir_: str, b: int | None = None, tag: str = "*",
                 ext: str = "parquet") -> list[str]:
    """Sorted paths of the :func:`bucket_file` files in ``dir_`` of bucket
    ``b`` (any bucket if None) whose tag matches the glob ``tag``."""
    hb = "*" if b is None else f"{b:05d}"
    return sorted(glob.glob(os.path.join(glob.escape(dir_), f"hb-{hb}-{tag}.{ext}")))


def _tmp(path: str) -> str:
    d, name = os.path.split(path)
    return os.path.join(d, f".__tmp.{name}.{os.getpid()}")


def write_file(path: str, data: pa.Table | bytes) -> None:
    """THE writer of every round file: atomic (tmp file + ``os.replace`` in
    the same dir), so a reader or a retried writer never sees a partial
    file.  ``data`` is raw bytes (filter bits, the manifest) or a table: an
    uncompressed Arrow IPC file for a ``.arrow`` path (the round's internal
    exchange files, read back once by the engine), Parquet otherwise."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = _tmp(path)
    if isinstance(data, bytes):
        with open(tmp, "wb") as f:
            f.write(data)
    elif path.endswith(".arrow"):
        pafeather.write_feather(data, tmp, compression="uncompressed")
    else:
        pq.write_table(data, tmp)
    os.replace(tmp, path)


def read_file(path: str) -> pa.Table:
    """One table written by :func:`write_file`."""
    if path.endswith(".arrow"):
        return pafeather.read_table(path, memory_map=False)
    return pq.ParquetFile(path).read()


def link_file(src: str, dst: str) -> None:
    """Hard-link ``src`` as ``dst`` (a file op, no data read): atomic, and
    a retried writer relinks the same inode."""
    os.makedirs(os.path.dirname(dst), exist_ok=True)
    tmp = _tmp(dst)
    if os.path.exists(tmp):
        os.remove(tmp)
    os.link(src, tmp)
    os.replace(tmp, dst)


def is_committed(ckpt: str, rnd: int) -> bool:
    return os.path.exists(os.path.join(round_dir(ckpt, rnd), "_COMMITTED"))


def last_committed_round(ckpt: str) -> int:
    """Highest committed round index, or -1."""
    if not os.path.isdir(ckpt):
        return -1
    rounds = sorted(
        int(d.split("=")[1]) for d in os.listdir(ckpt) if d.startswith("round=")
    )
    last = -1
    for r in rounds:
        if is_committed(ckpt, r):
            last = r
        else:
            break  # a gap means everything after is invalid
    return last


def clean_uncommitted(ckpt: str) -> None:
    """Remove any round dirs past the last committed one (idempotent replay)."""
    if not os.path.isdir(ckpt):
        return
    last = last_committed_round(ckpt)
    for d in os.listdir(ckpt):
        if d.startswith("round=") and int(d.split("=")[1]) > last:
            shutil.rmtree(os.path.join(ckpt, d))


def write_manifest(ckpt: str, layout: dict) -> None:
    """Record the settings the checkpoint's layout depends on, in round 0
    (before its ``_COMMITTED``)."""
    write_file(os.path.join(round_dir(ckpt, 0), MANIFEST),
               json.dumps(layout, sort_keys=True).encode())


def check_manifest(ckpt: str, layout: dict) -> None:
    """Raise ``ValueError`` naming the first setting of ``layout`` that
    differs from the one the checkpoint was written with."""
    path = os.path.join(round_dir(ckpt, 0), MANIFEST)
    if not os.path.exists(path):
        raise ValueError(f"checkpoint {ckpt} has no round=0000/{MANIFEST}")
    with open(path) as f:
        stored = json.load(f)
    for k, v in layout.items():
        if k not in stored or stored[k] != v:
            raise ValueError(
                f"checkpoint {ckpt} was written with {k}={stored.get(k)!r}; "
                f"cannot resume it with {k}={v!r}")


def commit_round(ckpt: str, rnd: int) -> None:
    marker = os.path.join(round_dir(ckpt, rnd), "_COMMITTED")
    with open(marker, "w"):
        pass


def read_all_rounds(ckpt: str, name: str, upto: int) -> pa.Table | None:
    """Concatenate one table kind across rounds 0..upto (inclusive)."""
    tables = []
    for r in range(upto + 1):
        p = os.path.join(round_dir(ckpt, r), name)
        if os.path.isdir(p):
            tables.append(pq.read_table(p))
    if not tables:
        return None
    return pa.concat_tables(tables, promote_options="default")
