"""Per-round report of a crawl checkpoint, from its files alone (no Ray,
no re-run): for each round r that ran,

- the frontier rows entering it and the status mix of the rows it wrote
  (``round=r+1/crawled``: its fetches, plus the robots-blocked links it
  discovered);
- selected, fetched, new and blocked, summed over METRICS partitions;
- the seconds of each phase, from ``round=r+1/timings``;
- the bytes ``round=r+1`` holds in ``seen_filter/`` and in everything else.

Usage: python tools/crawl_report.py CKPT_DIR
"""

from __future__ import annotations

import os
import sys

import pyarrow.compute as pc
import pyarrow.dataset as pads
import pyarrow.parquet as pq

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from borges_ray.state import checkpoint as ckpt  # noqa: E402

METRICS = ("selected", "fetched", "links_new", "blocked")


def _dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(dp, f))
               for dp, _dn, fs in os.walk(path) for f in fs)


def _rows(path: str, columns=None):
    if not os.path.isdir(path) or not os.listdir(path):
        return None
    return pads.dataset(path, format="parquet").to_table(columns=columns)


def report(ckpt_dir: str) -> list[dict]:
    """One dict per round that ran (0 .. last committed - 1)."""
    out = []
    for r in range(ckpt.last_committed_round(ckpt_dir)):
        this_dir = ckpt.round_dir(ckpt_dir, r)
        next_dir = ckpt.round_dir(ckpt_dir, r + 1)
        frontier = _rows(os.path.join(this_dir, "frontier"), ["url"])
        row = {"round": r, "frontier_rows": frontier.num_rows if frontier else 0}
        crawled = _rows(os.path.join(next_dir, "crawled"), ["status"])
        row["status"] = ({int(s["values"]): int(s["counts"]) for s in
                          pc.value_counts(crawled["status"]).to_pylist()}
                         if crawled else {})
        metrics = pq.read_table(os.path.join(next_dir, "metrics"))
        row.update({m: int(pc.sum(metrics[m]).as_py() or 0) for m in METRICS})
        timings = _rows(os.path.join(next_dir, "timings"))
        row["phase_s"] = (dict(zip(timings["phase"].to_pylist(),
                                   timings["seconds"].to_pylist()))
                          if timings else {})
        seen_filter = _dir_bytes(os.path.join(next_dir, "seen_filter"))
        row["seen_filter_bytes"] = seen_filter
        row["other_bytes"] = _dir_bytes(next_dir) - seen_filter
        out.append(row)
    return out


def format_report(rows: list[dict]) -> str:
    lines = [f"{'round':>5} {'frontier':>8} {'selected':>8} {'fetched':>7} "
             f"{'new':>5} {'blocked':>7} {'filter_kb':>9} {'other_kb':>8}  "
             "status / phase_s"]
    for r in rows:
        lines.append(
            f"{r['round']:>5} {r['frontier_rows']:>8} {r['selected']:>8} "
            f"{r['fetched']:>7} {r['links_new']:>5} {r['blocked']:>7} "
            f"{r['seen_filter_bytes'] / 1024:>9.1f} {r['other_bytes'] / 1024:>8.1f}  "
            + " ".join(f"{k}:{v}" for k, v in sorted(r["status"].items())))
        lines.append(" " * 67 + " ".join(
            f"{k}={v:.3f}" for k, v in r["phase_s"].items()))
    return "\n".join(lines)


def main(argv: list[str]) -> None:
    if len(argv) != 1:
        sys.exit(__doc__)
    print(format_report(report(argv[0])))


if __name__ == "__main__":
    main(sys.argv[1:])
