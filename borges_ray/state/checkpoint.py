"""Round checkpoint layout with atomic commit markers.

The reference resumes by querying Mongo for ``{'Crawled': False}``
(``Borges/spiders/Elsevier/paper_xml.py:203``) — mutable flags in a DB.  Our
equivalent is immutable round outputs (SURVEY.md §4 "Checkpoint / resume").
Every piece of round state is keyed by the host bucket ``b = stable_hash(host)
% num_partitions`` (``pipelines/crawl.py``), one file per bucket:

    ckpt/
      round=0000/
        frontier/     hb-<b>-new.parquet       (the FULL frontier entering
                      hb-<b>-deferred.parquet   round r: b's new links of
                                                round r-1 plus the rows b's
                                                select left over; flat dir)
        host_state/   hb=<b>/state-0.parquet   (host, next_seq,
                                                next_allowed_ms) entering r
        seen_delta/   hb-<b>-new.parquet       (URLs first enqueued during
                                                round r-1, sorted by url;
                                                ``empty.parquet`` in a round
                                                that saw none; flat dir)
        seen_filter/  part-<b>.bits            (raw bits of bucket b's
                                                URL-seen filter over its
                                                seen_delta of rounds 0..r;
                                                see state/seenfilter.py)
        crawled/      fetched-<digest>.parquet (round r-1's fetch results)
                      hb-<b>-blocked.parquet   (robots-blocked 999 rows)
        cand/         hb-<b>-<digest>.parquet  (round r-1's link candidates,
                                                one file per parsed block
                                                and bucket; the input of the
                                                gate, kept as lineage)
        tally/        select-hb-<b>.parquet,   (per-task counts METRICS is
                      gate-hb-<b>.parquet       built from)
        metrics/      part-0.parquet           (METRICS of round r-1)
        timings/      part-0.parquet           (phase, seconds) of round
                                                r-1, ``total`` included
        _MANIFEST                 (round 0 only: the layout settings and
                                   the state key the checkpoint was
                                   written with, JSON)
        _COMMITTED                (empty marker, written LAST)

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

Writes land in a tmp name and then ``os.replace`` — the marker never
coexists with partial data.
"""

from __future__ import annotations

import json
import os
import shutil

import pyarrow as pa
import pyarrow.parquet as pq

SUBDIRS = ("crawled", "seen_delta", "seen_filter", "frontier", "host_state",
           "cand", "tally", "metrics", "timings")
MANIFEST = "_MANIFEST"


def round_dir(ckpt: str, rnd: int) -> str:
    return os.path.join(ckpt, f"round={rnd:04d}")


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


def write_table(ckpt: str, rnd: int, name: str, table: pa.Table) -> str:
    """Write one table into the round dir atomically (tmp + rename)."""
    rd = round_dir(ckpt, rnd)
    tmp = os.path.join(rd, f"_tmp.{name}")
    final = os.path.join(rd, name)
    os.makedirs(tmp, exist_ok=True)
    pq.write_table(table, os.path.join(tmp, "part-0.parquet"))
    if os.path.exists(final):
        shutil.rmtree(final)
    os.rename(tmp, final)
    return final


def write_manifest(ckpt: str, layout: dict) -> None:
    """Record the settings the checkpoint's layout depends on, in round 0
    (before its ``_COMMITTED``)."""
    path = os.path.join(round_dir(ckpt, 0), MANIFEST)
    with open(path + ".__tmp", "w") as f:
        json.dump(layout, f, sort_keys=True)
    os.replace(path + ".__tmp", path)


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


def link_file(src: str, dst: str) -> None:
    """Hard-link ``src`` as ``dst`` (a file op, no data read): atomic, and
    a retried writer relinks the same inode."""
    tmp = os.path.join(os.path.dirname(dst),
                       f".__tmp.{os.path.basename(dst)}.{os.getpid()}")
    if os.path.exists(tmp):
        os.remove(tmp)
    os.link(src, tmp)
    os.replace(tmp, dst)


def commit_round(ckpt: str, rnd: int) -> None:
    marker = os.path.join(round_dir(ckpt, rnd), "_COMMITTED")
    with open(marker, "w"):
        pass


def read_table(ckpt: str, rnd: int, name: str) -> pa.Table:
    return pq.read_table(os.path.join(round_dir(ckpt, rnd), name))


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
