"""Tests for CCNet-style paragraph dedup, repetition metrics, distributed
prefix-sum shard packing, PII redaction, and the WARC source roundtrip."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pytest
import ray.data as rd


@pytest.fixture(scope="module")
def chunk_docs(ray_session):
    # doc 0: "a b c d e f" — unique chunks
    # doc 1: repeats doc 0's first chunk ("a b") and its own chunk twice
    # doc 2: entirely made of already-seen chunks
    df = pd.DataFrame({
        "doc_id": [0, 1, 2],
        "text": ["a b c d e f",
                 "a b x y x y",
                 "a b x y c d"],
    })
    return df, rd.from_pandas(df)


def test_paragraph_dedup_first_occurrence_wins(chunk_docs):
    from borges_ray.ops.ccnet import paragraph_dedup

    _, ds = chunk_docs
    out = paragraph_dedup(ds, width=2).to_pandas().sort_values("doc_id")
    got = dict(zip(out.doc_id, out.text))
    # doc 0 keeps everything; doc 1 loses "a b" and the second "x y";
    # doc 2 loses all chunks and vanishes
    assert got == {0: "a b c d e f", 1: "x y"}
    n = dict(zip(out.doc_id, out.n_paras_kept))
    assert n == {0: 3, 1: 1}


def test_paragraph_dedup_no_surviving_duplicate(chunk_docs):
    """Global invariant: after dedup, every chunk text is unique corpus-wide."""
    from borges_ray.ops.ccnet import chunk_paragraphs, paragraph_dedup

    _, ds = chunk_docs
    out = paragraph_dedup(ds, width=2)
    chunks = chunk_paragraphs(out, width=2).to_pandas()
    assert chunks["para"].is_unique


def test_dup_chunk_metrics(chunk_docs):
    from borges_ray.ops.ccnet import dup_chunk_metrics

    _, ds = chunk_docs
    out = dup_chunk_metrics(ds, width=2).to_pandas().sort_values("doc_id").reset_index(drop=True)
    assert out.n_paras.tolist() == [3, 3, 3]
    # only doc 1 has a WITHIN-doc duplicate chunk ("x y" twice)
    assert out.n_dup_paras.tolist() == [0, 2, 0]
    assert out.dup_para_frac.tolist() == [0.0, round(2 / 3, 6), 0.0]


def test_paragraph_dedup_hot_chunk(ray_session):
    """Adversarial skew: one chunk text repeated across 5000 docs.  The
    min-combiner collapses each block's occurrences before the shuffle,
    so the hot key never concentrates rows; exactly one copy survives,
    in the lowest doc."""
    from borges_ray.ops.ccnet import paragraph_dedup

    n = 5000
    df = pd.DataFrame({
        "doc_id": np.arange(n, dtype=np.int64),
        "text": ["hot chunk " + f"u{i} v{i}" for i in range(n)],
    })
    out = (paragraph_dedup(rd.from_pandas(df).repartition(16), width=2)
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    assert len(out) == n                               # unique tail survives everywhere
    assert out.loc[0, "text"] == "hot chunk u0 v0"     # doc 0 keeps the hot chunk
    assert (out.loc[1:, "text"] == "u" + out.loc[1:, "doc_id"].astype(str)
            + " v" + out.loc[1:, "doc_id"].astype(str)).all()
    assert out.loc[1:, "n_paras_kept"].eq(1).all()


def test_dup_span_coverage(ray_session):
    from borges_ray.ops.ccnet import dup_span_coverage

    # docs 0 and 1 share the exact 3-token span "p q r" (cross-doc dup);
    # doc 2 repeats its own span "m n o m n o" (overlapping windows);
    # doc 3 is clean
    df = pd.DataFrame({
        "doc_id": [0, 1, 2, 3],
        "text": ["a b p q r c d",
                 "e f g p q r h",
                 "m n o m n o",
                 "u v w x y z"],
    })
    out = dup_span_coverage(rd.from_pandas(df), width=3).to_pandas()
    got = {r.doc_id: (r.n_tokens, r.n_covered) for r in out.itertuples()}
    # doc 2: windows "m n o"(0) "n o m"(1) "o m n"(2) "m n o"(3) — "m n o"
    # duplicated at starts 0 and 3 → covered positions 0-2 and 3-5 = all 6
    assert got == {0: (7, 3), 1: (7, 3), 2: (6, 6), 3: (6, 0)}


def _ref_paragraph_dedup(df: pd.DataFrame, width: int) -> pd.DataFrame:
    """Pure-pandas reference: global first-occurrence-wins over chunks."""
    seen: set[str] = set()
    rows = []
    for doc_id in sorted(df.doc_id):
        toks = df.loc[df.doc_id == doc_id, "text"].iloc[0].split()
        kept = []
        for p in range(0, len(toks), width):
            para = " ".join(toks[p : p + width])
            if para not in seen:
                seen.add(para)
                kept.append(para)
        if kept:
            rows.append((doc_id, len(kept), " ".join(kept)))
    return pd.DataFrame(rows, columns=["doc_id", "n_paras_kept", "text"])


def _ref_dup_span_coverage(df: pd.DataFrame, width: int) -> dict[int, int]:
    """Brute-force reference: covered position count per doc."""
    from collections import Counter

    wins: list[tuple[int, int, str]] = []
    for doc_id, text in zip(df.doc_id, df.text):
        toks = text.split()
        for i in range(max(len(toks) - width + 1, 0)):
            wins.append((doc_id, i, " ".join(toks[i : i + width])))
    counts = Counter(w for _, _, w in wins)
    covered: dict[int, set[int]] = {int(d): set() for d in df.doc_id}
    for doc_id, i, w in wins:
        if counts[w] > 1:
            covered[doc_id].update(range(i, i + width))
    return {d: len(s) for d, s in covered.items()}


@pytest.mark.parametrize("seed,n_docs,vocab,width", [
    (1, 40, 6, 2),    # tiny vocab → heavy cross-doc duplication
    (2, 60, 12, 3),
    (3, 25, 4, 1),    # width 1: every repeated token is a dup chunk
])
def test_paragraph_dedup_matches_reference(seed, n_docs, vocab, width, ray_session):
    from borges_ray.ops.ccnet import dup_span_coverage, paragraph_dedup

    rng = np.random.default_rng(seed)
    words = [f"w{j}" for j in range(vocab)]
    df = pd.DataFrame({
        "doc_id": np.arange(n_docs, dtype=np.int64),
        "text": [" ".join(words[k] for k in rng.integers(0, vocab, rng.integers(1, 15)))
                 for _ in range(n_docs)],
    })
    ds = rd.from_pandas(df).repartition(5)
    out = (paragraph_dedup(ds, width=width).to_pandas()
           .sort_values("doc_id").reset_index(drop=True))
    ref = _ref_paragraph_dedup(df, width)
    pd.testing.assert_frame_equal(
        out.astype({"doc_id": "int64", "n_paras_kept": "int64"}), ref)

    cov = dup_span_coverage(rd.from_pandas(df).repartition(5), width=width).to_pandas()
    ref_cov = _ref_dup_span_coverage(df, width)
    assert dict(zip(cov.doc_id, cov.n_covered)) == ref_cov


def test_prefix_sum_matches_pandas(ray_session):
    from borges_ray.ops.pack import prefix_sum

    rng = np.random.default_rng(7)
    df = pd.DataFrame({"k": np.arange(500, dtype=np.int64),
                       "w": rng.integers(1, 50, 500).astype(np.int64)})
    shuffled = df.sample(frac=1.0, random_state=3).reset_index(drop=True)
    ds = rd.from_pandas(shuffled).repartition(8)
    out = prefix_sum(ds, "k", "w", "cum", range_size=32).to_pandas().sort_values("k")
    expect = df.sort_values("k").w.cumsum().to_numpy()
    assert (out.cum.to_numpy() == expect).all()


def test_shard_pack_budget(ray_session):
    from borges_ray.ops.pack import shard_pack

    df = pd.DataFrame({"k": np.arange(100, dtype=np.int64),
                       "w": np.full(100, 10, dtype=np.int64)})
    ds = rd.from_pandas(df).repartition(4)
    out = shard_pack(ds, "k", "w", budget=25, range_size=16).to_pandas().sort_values("k")
    # each row starts at offset 10*k; shard = (10k) // 25
    assert (out.shard_id.to_numpy() == (10 * out.k.to_numpy()) // 25).all()
    # no shard's total weight exceeds budget + one max row weight
    totals = out.groupby("shard_id").w.sum()
    assert (totals <= 25 + 10).all()


def test_semdedup_drops_near_duplicates(ray_session):
    """Planted near-identical vectors in one cluster are pruned to the
    lowest id; the slab-chunked pair scan (pair_chunk=4) must agree with
    the direct rule."""
    from borges_ray.ops.embed import semdedup

    rng = np.random.default_rng(11)
    base = rng.standard_normal((2, 8))
    vecs, ids = [], []
    for i in range(20):
        v = base[i % 2] + 0.3 * rng.standard_normal(8)    # two loose clusters
        vecs.append(v.tolist())
        ids.append(i)
    vecs.append((np.asarray(vecs[7]) * 3.0).tolist())     # scaled copy of id 7
    ids.append(50)
    df = pd.DataFrame({"vec_id": ids, "embedding": vecs})
    cents = np.stack([np.asarray(v) for v in [vecs[0], vecs[1]]])

    out = semdedup(rd.from_pandas(df), cents, 0.999, pair_chunk=4).to_pandas()
    survivors = set(out.vec_id)
    assert 50 not in survivors                 # cos(id50, id7) == 1.0
    assert 7 in survivors
    # exact rule cross-check: drop iff any lower-id same-cluster cos >= t
    m = np.stack([np.asarray(v, dtype=np.float64) for v in df.embedding])
    m = m / np.linalg.norm(m, axis=1, keepdims=True)
    cid = np.argmax(m @ cents.T, axis=1)
    cos = np.round(m @ m.T, 6)
    expect = {int(df.vec_id[i]) for i in range(len(df))
              if not any(cos[i, j] >= 0.999 and cid[j] == cid[i]
                         and df.vec_id[j] < df.vec_id[i] for j in range(len(df)))}
    assert survivors == expect


def test_pii_redactor():
    from borges_ray.ops.textops import PiiRedactor

    df = pd.DataFrame({"text": [
        "mail a.b-c_d@ex-ample.co.uk now",
        "call 555-123-4567 or 555-000-1111",
        "host 10.0.255.1 fake 1234.5.6.7 end",
        "none here",
    ]})
    out = PiiRedactor()(df)
    assert out.n_emails.tolist() == [1, 0, 0, 0]
    assert out.n_phones.tolist() == [0, 2, 0, 0]
    # 1234.5.6.7 must NOT match (leading 1234 breaks \b\d{1,3})
    assert out.n_ips.tolist() == [0, 0, 1, 0]
    assert out.text.tolist() == [
        "mail <EMAIL> now",
        "call <PHONE> or <PHONE>",
        "host <IP> fake 1234.5.6.7 end",
        "none here",
    ]


def test_hist_quantile_bounded_error(ray_session):
    """Sketch quantiles land within one bin width of the exact ones and
    are invariant to repartitioning (mergeability)."""
    from borges_ray.ops.relational import hist_quantile

    rng = np.random.default_rng(3)
    df = pd.DataFrame({"k": np.repeat(["a", "b"], 500),
                       "v": rng.uniform(0, 100, 1000)})
    width = 100.0 / 64
    for parts in (2, 16):
        ds = rd.from_pandas(df).repartition(parts)
        out = hist_quantile(ds, "k", "v", [0.5, 0.9], lo=0.0, hi=100.0,
                            n_bins=64).to_pandas().set_index("k")
        for k, g in df.groupby("k"):
            for q, col in [(0.5, "q50"), (0.9, "q90")]:
                exact = np.quantile(g["v"], q)
                assert abs(out.loc[k, col] - exact) <= width + 1e-9
        if parts == 2:
            first = out.sort_index()
        else:
            assert out.sort_index().equals(first)   # partition-invariant


def test_tfidf_rare_term_outranks_common(ray_session):
    from borges_ray.ops.textops import tfidf_top_terms

    # "rare" appears many times but only in en docs; "common" is everywhere
    df = pd.DataFrame({
        "doc_id": range(6),
        "lang": ["en", "en", "en", "de", "de", "de"],
        "text": ["rare rare common", "rare rare common", "rare common",
                 "common x", "common y", "common z"],
    })
    out = tfidf_top_terms(rd.from_pandas(df), k=2).to_pandas()
    en = out[out.lang == "en"].sort_values("score", ascending=False)
    assert en.iloc[0].token == "rare"
    # common occurs in all 6 docs → idf = ln(1) = 0 → score 0
    assert out[out.token == "common"].score.eq(0).all()


def test_decontaminate_flags(ray_session):
    from borges_ray.ops.ccnet import decontaminate_flags

    train = pd.DataFrame({
        "doc_id": [1, 2, 3],
        "text": ["a b c d e",       # shares "b c d" with eval
                 "x y z w v",       # clean
                 "q b c d r b c d"],  # two hit windows
    })
    ev = pd.DataFrame({"doc_id": [100], "text": ["z b c d z"]})
    out = decontaminate_flags(rd.from_pandas(train), rd.from_pandas(ev),
                              width=3).to_pandas()
    got = {r.doc_id: (r.n_eval_hits, r.contaminated) for r in out.itertuples()}
    assert got == {1: (1, True), 2: (0, False), 3: (2, True)}


def test_bulk_ingest_resumable_skips_sealed_shards(ray_session, tmp_path):
    import os

    from borges_ray.pipelines.ingest import bulk_ingest_resumable

    pages = pd.DataFrame({
        "url": [f"http://h{i%3}.com/p{i}" for i in range(40)],
        "html": [f"<html><body><div class='article'>text {i % 30} body</div></body></html>".encode()
                 for i in range(40)],
    })
    src = tmp_path / "pages"
    src.mkdir()
    for part in range(4):
        pages.iloc[part * 10:(part + 1) * 10].to_parquet(src / f"p{part}.parquet")

    out = str(tmp_path / "out")
    r1 = bulk_ingest_resumable(str(src), out, num_shards=4)
    assert r1["shards_skipped"] == 0 and r1["rows_featurized"] == 40

    # simulate a crash that lost shard 2: unseal it
    os.remove(os.path.join(out, "features", "_SHARD_DONE_2"))
    mtime_before = os.path.getmtime(os.path.join(out, "features", "shard=1"))
    r2 = bulk_ingest_resumable(str(src), out, num_shards=4)
    assert r2["shards_skipped"] == 3                      # only shard 2 redone
    assert r2["rows_featurized"] == 40
    assert r2["rows_out"] == r1["rows_out"]               # identical result
    assert os.path.getmtime(os.path.join(out, "features", "shard=1")) == mtime_before


def test_bulk_ingest_oversized_payload_error_rows(ray_session, tmp_path):
    """DocumentTooLarge semantics (reference Elsevier/paper_xml.py:109-120):
    an over-cap page degrades to an error row — url + byte count kept,
    payload dropped at first touch, routed to the missed sink and excluded
    from dedup — and the oversized bytes never inflate any output block."""
    import os

    import pyarrow.dataset as pads

    from borges_ray.pipelines.ingest import bulk_ingest

    from borges_ray.synth import synth_pages

    big = ("<html><body><div class='article'>" + "xyzzy " * 400_000 +
           "</div></body></html>").encode()          # ~2.4 MB page
    good = synth_pages(7, 20).to_pandas()[["url", "html"]]
    n_good_distinct = 20 - 0  # synth pages are distinct texts by seed
    pages = pd.concat(
        [good, pd.DataFrame({"url": ["http://h.com/huge"], "html": [big]})],
        ignore_index=True)
    src = tmp_path / "pages"
    src.mkdir()
    pages.to_parquet(src / "p0.parquet")

    out = str(tmp_path / "out")
    res = bulk_ingest(str(src), out, max_payload_bytes=1 << 20)
    assert res["rows_missed"] == 1
    assert res["rows_out"] == n_good_distinct        # huge page not deduped in

    missed = pads.dataset(os.path.join(out, "missed"), format="parquet").to_table().to_pandas()
    assert missed.url.tolist() == ["http://h.com/huge"]
    assert missed.error.tolist() == ["payload_too_large"]
    assert int(missed.n_html_bytes.iloc[0]) == len(big)

    # block-size bound: the oversized payload must NOT survive into the
    # features parquet — total output stays far below the input page size
    feat_bytes = sum(
        os.path.getsize(os.path.join(dp, f))
        for dp, _dn, fs in os.walk(os.path.join(out, "features")) for f in fs)
    assert feat_bytes < len(big) // 4, feat_bytes


def test_bulk_ingest_payload_cap_nothing_over(ray_session, tmp_path):
    """Cap set but zero over-cap rows: an empty missed Dataset writes no
    parquet files — the sink must still come out empty-but-present and the
    pipeline must not crash re-reading it (regression: 1M-page run)."""
    import os

    from borges_ray.pipelines.ingest import bulk_ingest
    from borges_ray.synth import synth_pages

    src = tmp_path / "pages"
    src.mkdir()
    synth_pages(11, 30).to_pandas()[["url", "html"]].to_parquet(
        src / "p0.parquet")
    out = str(tmp_path / "out")
    res = bulk_ingest(str(src), out, max_payload_bytes=1 << 30)
    assert res["rows_missed"] == 0
    assert res["rows_out"] == 30
    assert os.path.isdir(os.path.join(out, "missed"))


def test_ledger_upsert_incremental(ray_session, tmp_path):
    """Cross-run insert-if-absent: run 2 admits only keys unseen by run 1,
    run 3 with nothing new admits nothing; the ledger accumulates exactly
    the distinct keys."""
    from borges_ray.state.ledger import ledger_key_count, ledger_upsert

    ldir = str(tmp_path / "ledger")
    b1 = pd.DataFrame({"fp": np.arange(0, 50, dtype=np.int64), "v": "a"})
    b2 = pd.DataFrame({"fp": np.arange(30, 80, dtype=np.int64), "v": "b"})

    n1 = ledger_upsert(rd.from_pandas(b1).repartition(4), ldir, "fp").to_pandas()
    assert sorted(n1.fp) == list(range(50))
    assert ledger_key_count(ldir) == 50

    n2 = ledger_upsert(rd.from_pandas(b2).repartition(4), ldir, "fp").to_pandas()
    assert sorted(n2.fp) == list(range(50, 80))        # overlap filtered
    assert ledger_key_count(ldir) == 80

    n3 = ledger_upsert(rd.from_pandas(b1).repartition(2), ldir, "fp").to_pandas()
    assert len(n3) == 0
    assert ledger_key_count(ldir) == 80


def test_ledger_upsert_dup_key_across_batches(ray_session, tmp_path):
    """A key occurring in MULTIPLE batches of one run is appended to the
    ledger exactly once (run-wide distinct, not per-batch), so
    ledger_key_count equals true distinct keys."""
    from borges_ray.state.ledger import ledger_key_count, ledger_upsert

    ldir = str(tmp_path / "ledger")
    # key 7 appears in every partition
    df = pd.DataFrame({"fp": np.array([7] * 6 + [1, 2, 3], dtype=np.int64),
                       "v": "x"})
    novel = ledger_upsert(rd.from_pandas(df).repartition(3), ldir, "fp")
    assert len(novel.to_pandas()) == 9            # all input rows are novel
    assert ledger_key_count(ldir) == 4            # {1, 2, 3, 7} — 7 once


def test_warc_same_first_url_blocks_and_rerun(ray_session, tmp_path):
    """Two blocks whose FIRST record shares a url must not overwrite each
    other's part file, and a rerun with different batching leaves no stale
    parts behind (idempotent sink)."""
    from borges_ray.sources.warc import read_warc, write_warc

    d = str(tmp_path / "w")
    df = pd.DataFrame({
        "url": ["http://a/hot", "http://b/1", "http://a/hot", "http://b/2"],
        "warc_ts": ["t1", "t2", "t3", "t4"],
        "payload": [b"p1", b"p2", b"p3", b"p4"],
    })
    # 4 partitions of 1 row: partitions 0 and 2 share the first url
    write_warc(rd.from_pandas(df).repartition(4), d)
    back = read_warc(d).to_pandas()
    assert len(back) == 4
    assert sorted(back.payload.tolist()) == [b"p1", b"p2", b"p3", b"p4"]
    # rerun with a different batching: old parts must be cleared
    write_warc(rd.from_pandas(df).repartition(1), d)
    back2 = read_warc(d).to_pandas()
    assert len(back2) == 4
    assert sorted(back2.payload.tolist()) == [b"p1", b"p2", b"p3", b"p4"]


def test_ledger_current_period_refresh_on_resume(ray_session, tmp_path):
    """The reference re-selects the in-progress year on resume
    (Elsevier/paper_index.py:157-160,256-266): run 1 is interrupted midway
    through period 2002 (and its early-2002 rows carried STALE payloads);
    run 2 must re-process ALL of 2002 (not just the unseen keys), skip the
    completed 2001, and after keyed_overwrite the final table equals the
    uninterrupted run."""
    from borges_ray.ops.records import keyed_overwrite
    from borges_ray.state.ledger import ledger_upsert_periods

    def rows(keys, period, payload_tag):
        return pd.DataFrame({
            "doi": [f"10.1/{period}.{k}" for k in keys],
            "year": np.int64(period),
            "content": [f"{payload_tag}-{period}-{k}" for k in keys]})

    # ground truth: what an uninterrupted run over the final corpus yields
    full = pd.concat([rows(range(10), 2001, "final"),
                      rows(range(8), 2002, "final"),
                      rows(range(5), 2003, "final")], ignore_index=True)

    ldir = str(tmp_path / "ledger")
    # run 1: all of 2001 + first 4 keys of 2002, whose payloads were stale
    run1_in = pd.concat([rows(range(10), 2001, "final"),
                         rows(range(4), 2002, "stale")], ignore_index=True)
    out1 = ledger_upsert_periods(rd.from_pandas(run1_in).repartition(3),
                                 ldir, "doi", "year").to_pandas()
    assert len(out1) == 14

    # run 2 (resume): the full final corpus arrives
    out2 = ledger_upsert_periods(rd.from_pandas(full).repartition(4),
                                 ldir, "doi", "year")
    got2 = out2.to_pandas()
    # 2001 is complete → skipped; ALL 8 of 2002 re-selected; 2003 new
    assert set(got2.year) == {2002, 2003}
    assert len(got2[got2.year == 2002]) == 8
    assert len(got2[got2.year == 2003]) == 5

    merged = keyed_overwrite(
        rd.from_pandas(out1), rd.from_pandas(got2), "doi").to_pandas()
    want = full.sort_values("doi", ignore_index=True)
    got = merged.sort_values("doi", ignore_index=True)[want.columns.tolist()]
    pd.testing.assert_frame_equal(got, want)

    # run 3 with nothing new beyond 2003 (now current): only 2003 refreshes
    out3 = ledger_upsert_periods(rd.from_pandas(full).repartition(2),
                                 ldir, "doi", "year").to_pandas()
    assert set(out3.year) == {2003} and len(out3) == 5


def test_hll_accuracy_and_merge_invariance(ray_session):
    """HLL estimate within the expected ~1.04/√m relative error band for
    known cardinalities, identical across partitionings (max-merge)."""
    from borges_ray.ops.sketch import hll_count_by

    rows = []
    for g, n in [("a", 100), ("b", 1000), ("c", 5000)]:
        rows += [{"g": g, "v": f"{g}-{i}"} for i in range(n)]
        rows += [{"g": g, "v": f"{g}-{i}"} for i in range(min(n, 50))]  # dups
    df = pd.DataFrame(rows)
    prev = None
    for parts in (3, 11):
        out = (hll_count_by(rd.from_pandas(df).repartition(parts), "g", "v")
               .to_pandas().sort_values("g").reset_index(drop=True))
        for g, n in [("a", 100), ("b", 1000), ("c", 5000)]:
            est = float(out.loc[out.g == g, "est_distinct"].iloc[0])
            assert abs(est - n) / n < 0.45        # 3.5σ at m=64 (σ≈13%)
        if prev is not None:
            pd.testing.assert_frame_equal(out, prev)
        prev = out


def test_cms_upper_bound_and_exactness(ray_session):
    """CMS estimates are ≥ true counts, exact when the sketch is sparse,
    and partition-invariant (integer sum merge)."""
    from borges_ray.ops.sketch import cms_estimate

    vals = ["a"] * 100 + ["b"] * 7 + [f"noise{i}" for i in range(50)]
    df = pd.DataFrame({"v": vals})
    prev = None
    for parts in (2, 9):
        out = (cms_estimate(rd.from_pandas(df).repartition(parts), "v",
                            ["a", "b", "absent"], depth=4, width=1024)
               .to_pandas().set_index("probe").est_count)
        assert out["a"] >= 100 and out["b"] >= 7 and out["absent"] >= 0
        # width 1024 ≫ 52 distinct values → collisions are astronomically
        # unlikely across all 4 rows; estimates are exact here
        assert out["a"] == 100 and out["b"] == 7 and out["absent"] == 0
        if prev is not None:
            assert out.equals(prev)
        prev = out


def test_pivot_melt_roundtrip(ray_session):
    from borges_ray.ops.relational import melt, pivot_counts

    df = pd.DataFrame({"k": ["x", "x", "y", "y", "y"],
                       "c": ["p", "q", "p", "p", "r"]})
    wide = pivot_counts(rd.from_pandas(df).repartition(3), "k", "c",
                        ["p", "q", "r"]).to_pandas().sort_values("k")
    assert wide.set_index("k").to_dict("index") == {
        "x": {"n_p": 1, "n_q": 1, "n_r": 0},
        "y": {"n_p": 2, "n_q": 0, "n_r": 1},
    }
    long = melt(pivot_counts(rd.from_pandas(df), "k", "c", ["p", "q", "r"]),
                ["k"], ["n_p", "n_q", "n_r"]).to_pandas()
    back = long.pivot(index="k", columns="variable", values="value")
    assert back.loc["y", "n_p"] == 2 and back.loc["x", "n_r"] == 0


def test_parse_robots_text():
    from borges_ray.stages.robots import parse_robots_text

    # specific-agent group beats *, shared-UA groups, defaults
    txt = ("User-agent: a\nUser-agent: b\nDisallow: /shared/\n"
           "User-agent: *\nDisallow: /star/\nCrawl-delay: 9\n"
           "User-agent: borges\nDisallow: /mine/\nDisallow: /mine2/\n"
           "Crawl-delay: 1.5\n")
    assert parse_robots_text(txt, "Borges") == (["/mine/", "/mine2/"], [], 1500)
    assert parse_robots_text(txt, "b") == (["/shared/"], [], 1000)   # no delay in group
    assert parse_robots_text(txt, "zzz") == (["/star/"], [], 9000)   # falls to *
    assert parse_robots_text("", "borges") == ([], [], 1000)         # empty → allow
    # comments, case, empty Disallow, junk lines
    messy = ("# top\nUSER-AGENT: *  # trailing\nDISALLOW:\n"
             "disallow: /p/ # inline\nnoise line\ncrawl-delay: oops\n")
    assert parse_robots_text(messy, "x") == (["/p/"], [], 1000)
    # Allow carve-outs: collected per group, empty values ignored
    carve = ("User-agent: *\nDisallow: /docs/\nAllow: /docs/public/\n"
             "ALLOW:\nAllow: /a/\n")
    assert parse_robots_text(carve, "x") == (
        ["/docs/"], ["/a/", "/docs/public/"], 1000)


def test_robots_allowed_longest_match():
    """RFC 9309 §2.2.2 precedence: longest matching rule wins; allow
    wins length ties; no match → allowed."""
    from borges_ray.stages.robots import robots_allowed

    dis, alw = ["/docs/"], ["/docs/public/"]
    assert not robots_allowed("/docs/secret", dis, alw)
    assert robots_allowed("/docs/public/x", dis, alw)
    assert robots_allowed("/free", dis, alw)
    # length tie -> allow wins
    assert robots_allowed("/p/x", ["/p/"], ["/p/"])
    # longer disallow beats shorter allow
    assert not robots_allowed("/a/b/c", ["/a/b/"], ["/a/"])
    # empty allow list reduces to plain prefix blocking (the crawl gate)
    assert not robots_allowed("/docs/x", ["/docs/"], [])
    assert robots_allowed("/x", [], [])


def test_warc_roundtrip_adversarial_payload(ray_session, tmp_path):
    """Payload bytes containing WARC header text must survive byte-exact
    (Content-Length slicing, not scanning)."""
    from borges_ray.sources.warc import read_warc, write_warc

    evil = b"WARC/1.0\r\nWARC-Target-URI: http://fake\r\n\r\nbinary\x00\xffdata"
    df = pd.DataFrame({
        "url": ["http://a/1", "http://a/2", "http://a/3"],
        "warc_ts": ["t1", "t2", "t3"],
        "payload": [b"hello", evil, b""],
    })
    write_warc(rd.from_pandas(df), str(tmp_path / "w"))
    back = read_warc(str(tmp_path / "w")).to_pandas().sort_values("url").reset_index(drop=True)
    assert back.url.tolist() == df.url.tolist()
    assert back.payload.tolist() == df.payload.tolist()
    assert back.warc_ts.tolist() == df.warc_ts.tolist()


def test_sequence_pack_spans_and_offsets(ray_session):
    """A doc longer than the context window spans multiple sequences; exact
    offsets match a pandas cumsum; empty docs still consume their EOS."""
    from borges_ray.ops.pack import sequence_pack

    n_tokens = [5, 0, 700, 3, 255]           # doc 2 spans 3 sequences at L=256
    df = pd.DataFrame({"doc_id": np.arange(5, dtype=np.int64),
                       "n_tokens": np.asarray(n_tokens, dtype=np.int64)})
    out = (sequence_pack(rd.from_pandas(df).repartition(3), "doc_id",
                         "n_tokens", 256, eos=1)
           .to_pandas().sort_values("doc_id", ignore_index=True))
    w = df["n_tokens"] + 1
    cum = w.cumsum()
    start = cum - w
    assert out["tok_start"].tolist() == start.tolist()
    assert out["seq_first"].tolist() == (start // 256).tolist()
    assert out["seq_last"].tolist() == ((cum - 1) // 256).tolist()
    assert out.loc[2, "n_seqs"] == 3          # 700+1 tokens from offset 7
    assert out.loc[1, "n_seqs"] == 1          # empty doc: one EOS token


def test_hashed_linear_scorer_deterministic(ray_session):
    """Model scoring: same text → same score across batchings; empty text
    scores 0; scores live in (-0.5, 0.5)."""
    from borges_ray.ops.textops import HashedLinearScorer

    df = pd.DataFrame({"doc_id": [0, 1, 2, 3],
                       "text": ["alpha beta gamma", "", "alpha beta gamma",
                                "zeta " * 50]})
    a = HashedLinearScorer()(df)
    assert a.loc[0, "model_score"] == a.loc[2, "model_score"]
    assert a.loc[1, "model_score"] == 0.0
    assert ((a["model_score"] > -0.5) & (a["model_score"] < 0.5)).all()
    b = (rd.from_pandas(df).repartition(4)
         .map_batches(HashedLinearScorer, batch_format="pandas", concurrency=2)
         .to_pandas().sort_values("doc_id", ignore_index=True))
    assert b["model_score"].tolist() == a["model_score"].tolist()


def test_exact_substr_rewrite_planted(ray_session):
    """ExactSubstr semantics: the globally-first occurrence of a
    duplicated window keeps its tokens; every later occurrence is
    spliced out; overlapping loser windows union their intervals."""
    from borges_ray.ops.ccnet import exact_substr_rewrite

    df = pd.DataFrame({
        "doc_id": [0, 1, 2],
        "text": [
            "p q r s t u v",          # contains the winner of "q r s"
            "a q r s b q r s c",      # two loser occurrences of "q r s"
            "x y z w k",              # no duplicated window
        ],
    })
    out = (exact_substr_rewrite(rd.from_pandas(df), width=3, n_buckets=4)
           .to_pandas().sort_values("doc_id").reset_index(drop=True))

    # doc 0 is the winner (doc_id 0 < 1): untouched
    assert out.loc[0, "text_clean"] == "p q r s t u v"
    assert out.loc[0, "n_removed"] == 0
    # doc 1 loses both occurrences: tokens at [1,4) and [5,8) removed
    assert out.loc[1, "text_clean"] == "a b c"
    assert out.loc[1, "n_removed"] == 6
    assert out.loc[1, "n_tokens"] == 9
    # doc 2 untouched
    assert out.loc[2, "text_clean"] == "x y z w k"
    assert out.loc[2, "n_removed"] == 0


def test_exact_substr_rewrite_overlapping_losers(ray_session):
    """Overlapping duplicated windows in the SAME doc merge into one
    removal interval (difference-array union), and a window duplicated
    only WITHIN one doc keeps its first occurrence there."""
    from borges_ray.ops.ccnet import exact_substr_rewrite

    # "m n o m n o m n o": windows (w=3) "m n o"(0,3,6), "n o m"(1,4),
    # "o m n"(2,5).  Winners: positions 0,1,2.  Losers cover [3,9).
    df = pd.DataFrame({"doc_id": [7], "text": ["m n o m n o m n o"]})
    out = exact_substr_rewrite(rd.from_pandas(df), width=3,
                               n_buckets=2).to_pandas()
    assert out.loc[0, "text_clean"] == "m n o"
    assert out.loc[0, "n_removed"] == 6


def test_epoch_shuffle_permutation_and_seeds(ray_session):
    """epoch_shuffle assigns a bijective 0..N-1 position, equals the
    driver-side md5 sort exactly, and different seeds give different
    permutations while identical seeds reproduce bit-for-bit."""
    import hashlib

    from borges_ray.ops.pack import epoch_shuffle

    ids = pd.DataFrame({"doc_id": np.arange(2000, dtype=np.int64)})
    out = (epoch_shuffle(rd.from_pandas(ids), seed=3, shard_size=10)
           .to_pandas().sort_values("pos").reset_index(drop=True))
    assert len(out) == 2000
    assert out["pos"].tolist() == list(range(2000))  # bijective
    assert (out["shard_id"] == out["pos"] // 10).all()
    assert (out["pos_in_shard"] == out["pos"] % 10).all()

    expect = sorted(range(2000),
                    key=lambda d: (hashlib.md5(f"3:{d}".encode()).hexdigest()[:16], d))
    assert out["doc_id"].tolist() == expect

    again = (epoch_shuffle(rd.from_pandas(ids), seed=3, shard_size=10)
             .to_pandas().sort_values("pos").reset_index(drop=True))
    assert again["doc_id"].tolist() == out["doc_id"].tolist()

    other = (epoch_shuffle(rd.from_pandas(ids), seed=4, shard_size=10)
             .to_pandas().sort_values("pos").reset_index(drop=True))
    assert other["doc_id"].tolist() != out["doc_id"].tolist()


def test_exact_substr_heavy_duplication(ray_session):
    """The 30-50% near-duplicate regime real crawl corpora hit: half the
    corpus is a verbatim copy of the other half.  Every copy must come
    back EMPTY (its every window lost to the original), originals come
    back untouched, and unique docs pass through."""
    from borges_ray.ops.ccnet import exact_substr_rewrite

    rng = np.random.RandomState(3)
    vocab = [f"w{i}" for i in range(50)]
    originals = [" ".join(rng.choice(vocab, 30)) for _ in range(40)]
    rows = []
    for i, t in enumerate(originals):
        rows.append({"doc_id": i, "text": t})
        rows.append({"doc_id": 100 + i, "text": t})      # verbatim copy
    rows.append({"doc_id": 999,
                 "text": " ".join(f"u{i}" for i in range(30))})
    df = pd.DataFrame(rows)
    out = (exact_substr_rewrite(rd.from_pandas(df), width=5, n_buckets=8)
           .to_pandas().set_index("doc_id"))

    assert len(out) == len(df)
    for i, t in enumerate(originals):
        # originals may still lose windows duplicated ACROSS originals
        # (random vocab-50 texts can collide), but copies must lose
        # EVERYTHING the original kept and more: a copy's every window
        # exists at a smaller doc_id, so all positions are covered
        assert out.loc[100 + i, "text_clean"] == ""
        assert out.loc[100 + i, "n_removed"] == 30
    assert out.loc[999, "n_removed"] == 0
    assert out.loc[999, "text_clean"] == df.iloc[-1]["text"]


@pytest.mark.parametrize("seed,n_docs,vocab", [(1, 60, 12), (2, 80, 8),
                                               (9, 50, 20)])
def test_exact_substr_matches_pure_reference(seed, n_docs, vocab,
                                             ray_session):
    """Randomized corpora × a pure-pandas reference of the ExactSubstr
    rule (winner = min (doc_id, start) per duplicated window text;
    losers' positions removed; text rebuilt)."""
    from borges_ray.ops.ccnet import exact_substr_rewrite

    W = 4
    rng = np.random.RandomState(seed)
    words = [f"t{i}" for i in range(vocab)]
    texts = [" ".join(rng.choice(words, rng.randint(W, 25)))
             for _ in range(n_docs)]
    df = pd.DataFrame({"doc_id": np.arange(n_docs, dtype=np.int64),
                       "text": texts})

    out = (exact_substr_rewrite(rd.from_pandas(df), width=W, n_buckets=4)
           .to_pandas().sort_values("doc_id").reset_index(drop=True))

    # pure reference
    occ = {}
    for d, t in zip(df["doc_id"], df["text"]):
        toks = t.split()
        for i in range(len(toks) - W + 1):
            occ.setdefault(" ".join(toks[i:i + W]), []).append((d, i))
    losers: dict[int, list[int]] = {}
    for w, lst in occ.items():
        if len(lst) < 2:
            continue
        lst = sorted(lst)
        for d, i in lst[1:]:
            losers.setdefault(d, []).append(i)
    ref_rows = []
    for d, t in zip(df["doc_id"], df["text"]):
        toks = t.split()
        mask = np.zeros(len(toks), dtype=bool)
        for i in losers.get(d, []):
            mask[i:i + W] = True
        ref_rows.append({"doc_id": d, "n_tokens": len(toks),
                         "n_removed": int(mask.sum()),
                         "text_clean": " ".join(
                             tok for tok, m in zip(toks, mask) if not m)})
    ref = pd.DataFrame(ref_rows).sort_values("doc_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(out, ref)


def test_robots_sitemaps_global_directive():
    from borges_ray.stages.robots import robots_sitemaps

    t = ("User-agent: *\nDisallow: /tmp\n"
         "SITEMAP: https://a.com/sitemap.xml  # comment\n"
         "Sitemap: https://a.com/s2.xml\n"
         "Sitemap: https://a.com/sitemap.xml\n"   # duplicate
         "sitemap:\n"                              # empty: skipped
         "User-agent: other\nSitemap: https://a.com/s3.xml\n")
    # global directive: collected across ALL groups, order kept, deduped
    assert robots_sitemaps(t) == [
        "https://a.com/sitemap.xml", "https://a.com/s2.xml",
        "https://a.com/s3.xml"]
    assert robots_sitemaps("User-agent: *\nDisallow:\n") == []


def test_robots_wildcard_rules():
    """RFC 9309 §2.2.3 special characters: * wildcard and $ end anchor,
    with longest-PATTERN precedence; plain prefixes unchanged."""
    from borges_ray.stages.robots import robots_allowed

    assert not robots_allowed("/filename.php", ["/*.php"], [])
    assert not robots_allowed("/folder/any.php.file", ["/*.php"], [])
    assert robots_allowed("/x.php5", ["/*.php$"], [])
    assert not robots_allowed("/x.php", ["/*.php$"], [])
    assert not robots_allowed("/fish/salmon", ["/fish*"], [])
    # wildcard disallow + longer allow carve-out
    assert robots_allowed("/a/keep.php", ["/*.php"], ["/a/keep.php$"])
    # regex metacharacters in rules are literal (only * and $ special)
    assert not robots_allowed("/q?x=1", ["/q?x"], [])
    assert robots_allowed("/qax=1", ["/q?x"], [])


def test_site_chrome_clean(ray_session):
    """Host-scoped frequency threshold: 100%-frequency NAV dropped,
    50%-frequency promo dropped at >40%, 25% line kept, unique bodies
    kept; a doc that is ALL chrome survives with empty text."""
    import ray.data as rd

    from borges_ray.ops.ccnet import site_chrome_clean

    rows = []
    for i in range(8):  # host A: nav on all, promo on half, body unique
        t = "NAV A\nbody A" + str(i)
        if i % 2 == 0:
            t += "\npromo A"
        rows.append({"doc_id": i, "host": "A", "text": t})
    for i in range(8, 16):  # host B: same NAV TEXT but B-scoped; 25% line
        t = "NAV A\nbody B" + str(i)
        if i % 4 == 0:
            t += "\nquarter B"
        rows.append({"doc_id": i, "host": "B", "text": t})
    rows.append({"doc_id": 99, "host": "A", "text": "NAV A"})  # all chrome

    out = (site_chrome_clean(rd.from_pandas(pd.DataFrame(rows))
                             .repartition(3), num=2, den=5)
           .to_pandas().set_index("doc_id").sort_index())
    assert len(out) == 17
    # host A: NAV (9/9) and promo (4/9 = 44% > 40%) dropped
    assert out.loc[0, "text"] == "body A0" and out.loc[0, "n_chrome"] == 2
    assert out.loc[1, "text"] == "body A1" and out.loc[1, "n_chrome"] == 1
    # host B: NAV dropped (host-scoped count, 8/8), quarter (2/8) kept
    assert out.loc[8, "text"] == "body B8\nquarter B"
    assert out.loc[9, "text"] == "body B9"
    # the all-chrome doc survives with empty text
    assert out.loc[99, "text"] == "" and out.loc[99, "n_kept"] == 0


def test_exact_substr_rewrite_planted_shuffle(ray_session, shuffle_guard):
    """The planted rewrite with the loser lookup on its shuffle path."""
    test_exact_substr_rewrite_planted(ray_session)
