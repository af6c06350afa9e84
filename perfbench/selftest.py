"""Self-test of the benchmark at a smoke size (about two minutes on one core).

    python3 perfbench/selftest.py

Checks that
1. ``BENCHMARK.json`` names exactly the metrics ``run.py`` prints, with the
   same units;
2. every workload, untraced and traced, prints every one of its metrics by
   name with its unit, as a finite number, and passes its oracle;
3. a copied crawl checkpoint with one flipped byte in one
   ``extracted_text`` fails the oracle and is counted as a failed call.
Exits 0 when all hold.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import procs  # noqa: E402
import replay  # noqa: E402
import run  # noqa: E402


def check_benchmark_json() -> list[str]:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []
    for key, units in (("end_to_end", run.E2E_UNITS), ("per_layer", replay.LAYER_UNITS)):
        listed = {m["name"]: m["unit"] for m in spec[key]}
        if listed != units:
            problems.append(f"BENCHMARK.json {key} {sorted(set(listed.items()) ^ set(units.items()))}")
    if sorted(w["name"] for w in spec["workloads"]) != sorted(run.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from run.WORKLOADS")
    return problems


def check_printed(workload: str, trace: bool) -> list[str]:
    res = run.run(workload, seed=11, seconds=1, trace=trace, shapes=run.SMOKE)
    line = json.loads(json.dumps(res))  # what the driver would parse
    units = replay.LAYER_UNITS if trace else run.E2E_UNITS
    problems = []
    if set(line) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(line)}")
    if not line["correct"] or line["failed"]:
        problems.append(f"oracle failed: {line['failed']} of {line['attempted']}")
    for name, unit in units.items():
        m = line["metrics"].get(name)
        if m is None or m.get("unit") != unit or not math.isfinite(m.get("value", math.nan)):
            problems.append(f"metric {name} printed as {m}")
    if set(line["metrics"]) != set(units):
        problems.append("extra metrics printed")
    return [f"{workload} trace={int(trace)}: {p}" for p in problems]


def flip_one_text_byte(ckpt_dir: str) -> str:
    """Flip the low bit of one ASCII character in the first non-empty
    ``extracted_text`` of the crawled rows; returns the url touched."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    for dp, _dn, fs in sorted(os.walk(ckpt_dir)):
        if os.path.basename(dp) != "crawled":
            continue
        for f in sorted(fs):
            path = os.path.join(dp, f)
            t = pq.read_table(path)
            texts = t["extracted_text"].to_pylist()
            for i, text in enumerate(texts):
                j = next((k for k, ch in enumerate(text or "") if ch.isascii()), None)
                if j is None:
                    continue
                texts[i] = text[:j] + chr(ord(text[j]) ^ 1) + text[j + 1:]
                col = t.schema.get_field_index("extracted_text")
                t = t.set_column(col, t.schema.field(col), pa.array(texts, pa.string()))
                pq.write_table(t, path)
                return t["url"][i].as_py()
    raise RuntimeError("no crawled row with text to corrupt")


def check_corruption_counted() -> list[str]:
    from oracle import CrawlOracle

    w = run.SMOKE["crawl_fetch"]
    shutil.rmtree(run.WORK, ignore_errors=True)
    run.WORK.mkdir(parents=True)
    run.start_ray()
    try:
        inp, _ = run.build_inputs(w, seed=11)
        oracle = CrawlOracle(inp.pages, inp.seeds, inp.robots, w.round_ms,
                             w.rounds, run.NUM_PARTITIONS)
        tally = run.Tally()
        good = str(run.WORK / "ckpt")
        res = run.crawl_call(w, inp, oracle, good)
        tally.record("clean", res["problems"])
        bad = str(run.WORK / "ckpt_flipped")
        shutil.copytree(good, bad)
        url = flip_one_text_byte(bad)
        tally.record("flipped", oracle.check(bad))
    finally:
        import ray

        ray.shutdown()
    problems = []
    if (tally.attempted, tally.failed) != (2, 1):
        problems.append(f"flipped byte in {url}: attempted={tally.attempted} "
                        f"failed={tally.failed}, expected 2 and 1")
    elif tally.problems[0]["call"] != "flipped":
        problems.append("the clean checkpoint was the one reported as failed")
    return problems


def main() -> int:
    problems = check_benchmark_json()
    try:
        for workload in sorted(run.WORKLOADS):
            for trace in (False, True):
                problems += check_printed(workload, trace)
        problems += check_corruption_counted()
    finally:
        procs.reap_descendants()
        shutil.rmtree(run.WORK, ignore_errors=True)
    for p in problems:
        print("FAIL", p)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
