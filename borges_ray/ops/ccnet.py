"""CCNet-style paragraph-level corpus deduplication and Gopher-style
repetition metrics, Ray-Data-first.

Large-scale pre-training corpora are deduplicated not only per document
(``dedup.exact_dedup``) but per PARAGRAPH across the whole corpus (the
CCNet recipe: hash every paragraph, drop every occurrence after the
first), and filtered on within-document repetition signals (the Gopher
rules: fraction of duplicate lines, fraction of characters inside
duplicate lines).  The reference corpus' synthetic documents carry no
newlines, so "paragraph" here is a fixed-width non-overlapping window of
whitespace tokens (``width``) — the operator semantics (corpus-global
first-occurrence-wins on the chunk hash; per-doc duplicate-chunk
fractions) are the real thing and independent of the splitter.

Scale shape (10^10 docs):

- the global first-occurrence min is a KEYS-ONLY shuffle — per paragraph
  occurrence only ``(hash u64, rank i64)`` moves (`grouped_agg` partial
  min inside each batch first);
- paragraph text crosses the wire exactly ONCE: the winner ranks encode
  their ``doc_id`` in the high bits, so membership-filter and per-doc
  reassembly share a single bucketed shuffle on ``doc_id``;
- repetition metrics never shuffle at all (a document is one row).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import ray.data as rd

from .relational import cogroup_spill, groupby_buckets, grouped_agg
from .textops import fingerprint_batch

#: max paragraphs per document — rank = doc_id << PIDX_BITS | pidx must fit
#: in int64, so doc_id < 2^(63-PIDX_BITS) = 2^43 (8.8e12 docs).
PIDX_BITS = 20


def _chunk_frame(df: pd.DataFrame, id_col: str, text_col: str, width: int) -> pd.DataFrame:
    """One row per width-token chunk: (id, pidx, para).  Splitting is a
    per-document structural op (ragged output), done with one pass over the
    batch's token lists."""
    ids: list[int] = []
    pidx: list[int] = []
    paras: list[str] = []
    tok_lists = df[text_col].fillna("").str.split()
    for doc_id, toks in zip(df[id_col].to_numpy(), tok_lists):
        for p in range(0, len(toks), width):
            ids.append(doc_id)
            pidx.append(p // width)
            paras.append(" ".join(toks[p : p + width]))
    return pd.DataFrame({id_col: np.asarray(ids, dtype=np.int64),
                         "pidx": np.asarray(pidx, dtype=np.int64),
                         "para": paras})


def chunk_paragraphs(ds: rd.Dataset, id_col: str = "doc_id",
                     text_col: str = "text", width: int = 10) -> rd.Dataset:
    """documents → exploded (id, pidx, para) chunk rows."""
    return ds.map_batches(lambda df: _chunk_frame(df, id_col, text_col, width),
                          batch_format="pandas")


def paragraph_dedup(ds: rd.Dataset, id_col: str = "doc_id",
                    text_col: str = "text", width: int = 10,
                    n_buckets: int = 32) -> rd.Dataset:
    """Corpus-global paragraph dedup, first occurrence wins.

    An occurrence's global order is ``rank = doc_id << PIDX_BITS | pidx``;
    for each distinct paragraph (64-bit content fingerprint) only the
    min-rank occurrence survives.  Surviving chunks are reassembled per
    document in chunk order.  Returns (id_col, n_paras_kept, text_col) —
    documents whose every paragraph already appeared earlier vanish.

    Two exchanges: a keys-only ``(fp, rank)`` min-combine, then ONE
    disk-bucketed cogroup of the chunk text on ``doc_id`` (winner ranks
    are routed to their doc's bucket by decoding ``rank >> PIDX_BITS``).
    Size ``n_buckets`` ≈ corpus text bytes / 64 MB.
    """
    occ = chunk_paragraphs(ds, id_col, text_col, width)

    def add_keys(df: pd.DataFrame) -> pd.DataFrame:
        out = df.copy()
        out["__fp"] = fingerprint_batch(df["para"]).astype("int64")
        pidx_v = df["pidx"].to_numpy(np.int64)
        if len(pidx_v) and int(pidx_v.max()) >= (1 << PIDX_BITS):
            raise ValueError(
                f"paragraph_dedup: document has >= 2^{PIDX_BITS} chunks "
                f"(pidx={int(pidx_v.max())}); rank encoding would bleed into "
                "doc_id bits — raise PIDX_BITS or chunk width")
        dv = df[id_col].to_numpy(np.int64)
        if len(dv) and (int(dv.min()) < 0
                        or int(dv.max()) >= (1 << (63 - PIDX_BITS))):
            raise ValueError(
                f"paragraph_dedup: {id_col} outside [0, 2^{63 - PIDX_BITS}) "
                f"(got min={int(dv.min())}, max={int(dv.max())}); the packed "
                "rank would wrap — remap ids to a dense range first")
        out["__rank"] = (dv << PIDX_BITS) | pidx_v
        return out

    occ = occ.map_batches(add_keys, batch_format="pandas")

    # keys-only global min: (fp u64, rank i64) per occurrence, partial min
    # per batch, one small shuffle on fp
    winners = grouped_agg(occ.select_columns(["__fp", "__rank"]),
                          ["__fp"], {"__rank": ("min", "__rank")})

    def win_docs(df: pd.DataFrame) -> pd.DataFrame:
        # route each winner rank to its document's bucket
        return pd.DataFrame({id_col: (df["__rank"].to_numpy(np.int64) >> PIDX_BITS),
                             "__rank": df["__rank"].astype("int64")})

    empty_out = pd.DataFrame({id_col: pd.Series(dtype="int64"),
                              "n_paras_kept": pd.Series(dtype="int64"),
                              text_col: pd.Series(dtype="object")})

    def reassemble(l: pd.DataFrame, r: pd.DataFrame) -> pd.DataFrame:
        rows = l[l["__rank"].isin(set(r["__rank"].to_numpy()))]
        if rows.empty:
            return empty_out
        rows = rows.sort_values([id_col, "pidx"], kind="mergesort")
        g = rows.groupby(id_col, sort=False)
        out = g.agg(n_paras_kept=("pidx", "count"), __text=("para", " ".join)).reset_index()
        return out.rename(columns={"__text": text_col})

    # the text exchange is a disk-bucketed cogroup, NOT union→sort: a
    # preserve-order union (forced by any Sort in the plan) buffers its
    # whole input before emitting, which livelocks at corpus-scale text
    # volumes (see relational.cogroup_spill for the measured failure)
    return cogroup_spill(
        occ.select_columns([id_col, "pidx", "para", "__rank"]),
        winners.map_batches(win_docs, batch_format="pandas"),
        id_col, id_col, reassemble, empty=empty_out, tag="pdedup",
        n_buckets=n_buckets)


def _window_rows(df: pd.DataFrame, id_col: str, text_col: str,
                 width: int) -> pd.DataFrame:
    """One row per sliding ``width``-token window: (id, i, __wh).

    The window hash is a POLYNOMIAL over per-token 64-bit fingerprints
    (``sum th[i+k]·B^(W-1-k) mod 2^64`` via one ``sliding_window_view``
    dot product per doc) — window text is never materialized, so memory
    is O(tokens), not O(tokens·width).  Token fingerprints are computed
    once per DISTINCT token in the batch.  Equal windows hash equal;
    distinct-window collisions are ~2^-64."""
    from .textops import _pow_table

    tok_lists = df[text_col].fillna("").str.split()
    uniq = sorted({t for toks in tok_lists for t in toks})
    th_map = dict(zip(uniq, fingerprint_batch(
        pd.Series(uniq, dtype="object")).to_numpy())) if uniq else {}
    pv = _pow_table(width)[:width][::-1].copy()  # B^(W-1) ... B^0

    ids: list[np.ndarray] = []
    starts: list[np.ndarray] = []
    hashes: list[np.ndarray] = []
    for doc_id, toks in zip(df[id_col].to_numpy(), tok_lists):
        n_wins = len(toks) - width + 1
        if n_wins <= 0:
            continue
        th = np.fromiter((th_map[t] for t in toks), dtype=np.uint64,
                         count=len(toks))
        win = np.lib.stride_tricks.sliding_window_view(th, width)
        wh = np.multiply(win, pv, dtype=np.uint64).sum(axis=1, dtype=np.uint64)
        ids.append(np.full(n_wins, doc_id, dtype=np.int64))
        starts.append(np.arange(n_wins, dtype=np.int64))
        hashes.append(wh)
    if not ids:
        return pd.DataFrame({id_col: pd.Series(dtype="int64"),
                             "i": pd.Series(dtype="int64"),
                             "__wh": pd.Series(dtype="int64")})
    return pd.DataFrame({id_col: np.concatenate(ids),
                         "i": np.concatenate(starts),
                         "__wh": np.concatenate(hashes).view("int64")})


def decontaminate_flags(train: rd.Dataset, eval_ds: rd.Dataset,
                        id_col: str = "doc_id", text_col: str = "text",
                        width: int = 10) -> rd.Dataset:
    """Train-set decontamination against a held-out eval set (the GPT-3
    appendix-C recipe): a training document is CONTAMINATED if it shares
    any ``width``-token window with any eval document.  Returns one row
    per train doc: (id, n_eval_hits = contaminated window positions,
    contaminated bool).

    Scale shape: eval windows reduce to DISTINCT fingerprints (keys-only
    build side, typically tiny vs the corpus); train windows are
    keys-only (id, i, hash) rows; the overlap is one distributed
    semi-join + a count combine — train text never moves."""
    from .relational import grouped_agg, hash_join, hash_semi_join

    twin = train.map_batches(
        lambda df: _window_rows(df, id_col, text_col, width),
        batch_format="pandas")
    ewin = eval_ds.map_batches(
        lambda df: _window_rows(df, id_col, text_col, width)[["__wh"]],
        batch_format="pandas")

    hits = hash_semi_join(twin, ewin, on=["__wh"])
    hit_counts = grouped_agg(hits.select_columns([id_col]),
                             [id_col], {"n_eval_hits": ("count", id_col)})

    ids = train.select_columns([id_col])
    joined = hash_join(ids, hit_counts, on=[id_col], join_type="left_outer")

    def finalize(df: pd.DataFrame) -> pd.DataFrame:
        out = df.copy()
        out["n_eval_hits"] = out["n_eval_hits"].fillna(0).astype("int64")
        out["contaminated"] = out["n_eval_hits"] > 0
        return out[[id_col, "n_eval_hits", "contaminated"]]

    return joined.map_batches(finalize, batch_format="pandas")


def dup_span_coverage(ds: rd.Dataset, id_col: str = "doc_id",
                      text_col: str = "text", width: int = 10) -> rd.Dataset:
    """Substring-level duplication signal (the Lee et al. 2022
    "Deduplicating Training Data" shape): for every SLIDING window of
    ``width`` tokens, find windows whose text occurs more than once
    anywhere in the corpus, and report per document how many token
    positions are covered by at least one duplicated window
    (``n_covered`` / ``covered_frac``) — the quantity substring dedup
    would trim.

    Distributed shape: window occurrences are ``(doc_id, i, hash u64)``
    rows — keys-only from the start (window text is never even built:
    hashes come from a vectorized polynomial over per-token
    fingerprints, see :func:`_window_rows`).  Duplicate
    detection is a keys-only count combine; membership flows back through
    a distributed semi-join on the hash; interval-union coverage is one
    vectorized sweep per doc bucket.
    """
    from .relational import hash_join, hash_semi_join

    occ = ds.map_batches(
        lambda df: _window_rows(df, id_col, text_col, width),
        batch_format="pandas")

    counts = grouped_agg(occ.select_columns(["__wh"]), ["__wh"],
                         {"m": ("count", "__wh")})
    dup_hashes = counts.map_batches(
        lambda df: df[df["m"] > 1][["__wh"]], batch_format="pandas")

    dup_occ = hash_semi_join(occ, dup_hashes, on=["__wh"])

    def coverage(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return pd.DataFrame({id_col: pd.Series([], dtype="int64"),
                                 "n_covered": pd.Series([], dtype="int64")})
        df = df.sort_values([id_col, "i"], kind="mergesort").copy()
        end = df["i"] + width
        cm = end.groupby(df[id_col], sort=False).cummax()
        prev_end = cm.groupby(df[id_col], sort=False).shift(1)
        lower = np.maximum(prev_end.fillna(df["i"]), df["i"])
        add = np.clip(end - lower, 0, None).astype("int64")
        out = pd.DataFrame({id_col: df[id_col], "__add": add})
        return out.groupby(id_col, sort=False)["__add"].sum().rename("n_covered").reset_index()

    cov = groupby_buckets(dup_occ.select_columns([id_col, "i"]), [id_col], coverage)

    def tokcount(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({id_col: df[id_col],
                             "n_tokens": df[text_col].fillna("").str.split()
                             .str.len().astype("int64")})

    per_doc = ds.map_batches(tokcount, batch_format="pandas")
    joined = hash_join(per_doc, cov, on=[id_col], join_type="left_outer")

    def finalize(df: pd.DataFrame) -> pd.DataFrame:
        out = df.copy()
        out["n_covered"] = out["n_covered"].fillna(0).astype("int64")
        out["covered_frac"] = (out["n_covered"] / out["n_tokens"].clip(lower=1)).round(6)
        return out[[id_col, "n_tokens", "n_covered", "covered_frac"]]

    return joined.map_batches(finalize, batch_format="pandas")


def dup_chunk_metrics(ds: rd.Dataset, id_col: str = "doc_id",
                      text_col: str = "text", width: int = 10) -> rd.Dataset:
    """Gopher-style within-document repetition signals per document:
    ``n_paras``, ``n_dup_paras`` (chunks whose text occurs more than once
    in the SAME document), ``dup_para_frac``, ``dup_char_frac`` (fraction
    of chunk characters inside duplicated chunks).  No shuffle — a
    document is one row, so the whole metric is a per-batch kernel."""

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        chunks = _chunk_frame(df, id_col, text_col, width)
        if chunks.empty:
            return pd.DataFrame({id_col: pd.Series([], dtype="int64"),
                                 "n_paras": pd.Series([], dtype="int64"),
                                 "n_dup_paras": pd.Series([], dtype="int64"),
                                 "dup_para_frac": pd.Series([], dtype="float64"),
                                 "dup_char_frac": pd.Series([], dtype="float64")})
        chunks["plen"] = chunks["para"].str.len().astype("int64")
        m = chunks.groupby([id_col, "para"], sort=False)["para"].transform("size")
        chunks["dup"] = (m > 1)
        chunks["dup_chars"] = np.where(chunks["dup"], chunks["plen"], 0)
        g = chunks.groupby(id_col, sort=False)
        out = g.agg(n_paras=("pidx", "count"),
                    n_dup_paras=("dup", "sum"),
                    __dup_chars=("dup_chars", "sum"),
                    __chars=("plen", "sum")).reset_index()
        out["n_dup_paras"] = out["n_dup_paras"].astype("int64")
        out["dup_para_frac"] = (out["n_dup_paras"] / out["n_paras"]).round(6)
        out["dup_char_frac"] = (out["__dup_chars"] / out["__chars"].clip(lower=1)).round(6)
        return out.drop(columns=["__dup_chars", "__chars"])

    return ds.map_batches(fn, batch_format="pandas")


#: max window START position per document for exact-substring ranks —
#: rank = doc_id << SPAN_POS_BITS | i must fit in int64, so documents up
#: to 2^21 tokens and doc_id < 2^(63-21) = 2^42 (4.4e12 docs).
SPAN_POS_BITS = 21


def exact_substr_rewrite(ds: rd.Dataset, id_col: str = "doc_id",
                         text_col: str = "text", width: int = 5,
                         n_buckets: int = 32) -> rd.Dataset:
    """ExactSubstr removal (the Lee et al. 2022 "Deduplicating Training
    Data Makes Language Models Better" rewrite, at window granularity):
    for every ``width``-token sliding window whose text occurs more than
    once anywhere in the corpus, keep ONLY the globally-first occurrence
    (min ``(doc_id, start)``); every other occurrence's token positions
    are deleted and the document text is rebuilt from the surviving
    tokens.  Returns one row per input document:
    ``(id, n_tokens, n_removed, text_clean)`` — unlike
    :func:`dup_span_coverage` (which only measures what WOULD be
    trimmed), this emits the spliced text itself.

    Distributed shape (10^10 docs):

    - window occurrences are keys-only ``(hash u64, rank i64)`` rows with
      ``rank = doc_id << SPAN_POS_BITS | start`` — so the global
      first-occurrence winner is ONE keys-only min+count combine on the
      hash (`grouped_agg` partials bound the exchange by distinct
      windows, not occurrences);
    - loser occurrences flow back as keys-only ``(id, start)`` intervals
      via a size-guarded lookup on the window hash;
    - document text crosses the wire exactly ONCE: a disk-bucketed
      cogroup on ``doc_id`` co-locates each doc's text with its removal
      intervals and splices per bucket (vectorized interval-union via a
      difference array per doc).
    """
    occ = ds.map_batches(
        lambda df: _window_rows(df, id_col, text_col, width),
        batch_format="pandas")

    id_hi = 1 << (63 - SPAN_POS_BITS)

    def add_rank(df: pd.DataFrame) -> pd.DataFrame:
        iv = df["i"].to_numpy(np.int64)
        if len(iv) and int(iv.max()) >= (1 << SPAN_POS_BITS):
            raise ValueError(
                f"exact_substr_rewrite: document has a window start >= "
                f"2^{SPAN_POS_BITS} (i={int(iv.max())}); rank encoding "
                "would bleed into doc_id bits — raise SPAN_POS_BITS")
        dv = df[id_col].to_numpy(np.int64)
        if len(dv) and (int(dv.min()) < 0 or int(dv.max()) >= id_hi):
            raise ValueError(
                f"exact_substr_rewrite: {id_col} outside [0, 2^"
                f"{63 - SPAN_POS_BITS}) (got min={int(dv.min())}, "
                f"max={int(dv.max())}); the packed (doc_id << "
                f"{SPAN_POS_BITS} | i) rank would wrap — remap ids to a "
                "dense range first (hash ids overflow this)")
        return pd.DataFrame({
            "__wh": df["__wh"],
            "__rank": (dv << SPAN_POS_BITS) | iv,
        })

    # spill the keys-only occurrence table once: it feeds BOTH the winner
    # aggregate and the loser join, and without a pin the expensive window
    # hashing would re-execute per consumer.  32 MB read target: the table
    # is O(corpus tokens) rows — the 4 MB default shreds it into
    # micro-blocks (the measured driver-churn mode in _pruned_spill_read)
    import os
    import tempfile

    from .relational import attach_or_filter, spill_point

    ranked = spill_point(occ.map_batches(add_rank, batch_format="pandas"),
                         "xsubstr_occ", target_bytes=32 << 20)
    agg = grouped_agg(ranked, ["__wh"],
                      {"m": ("count", "__rank"), "rmin": ("min", "__rank")})
    dup = agg.map_batches(lambda df: df[df["m"] > 1][["__wh", "rmin"]],
                          batch_format="pandas")

    def losers(df: pd.DataFrame) -> pd.DataFrame:
        r = df[df["__rank"] != df["rmin"]]
        rv = r["__rank"].to_numpy(np.int64)
        return pd.DataFrame({
            id_col: rv >> SPAN_POS_BITS,
            "i": rv & ((1 << SPAN_POS_BITS) - 1),
        })

    # the dup table is bounded by DISTINCT duplicated windows — usually
    # tiny vs occurrences.  Spill it so the lookup counts it from parquet
    # METADATA: under the broadcast guard it is a map-side probe (no
    # shuffle of the occurrence table); past the guard it stays a
    # distributed hash join.  No files means no duplicated window.
    dup_dir = tempfile.mkdtemp(prefix="borges_xsubstr_dup_")
    dup.write_parquet(dup_dir)
    dup_files = [os.path.join(dup_dir, f) for f in os.listdir(dup_dir)
                 if f.endswith(".parquet")]
    if not dup_files:
        rem = rd.from_pandas(pd.DataFrame({id_col: pd.Series(dtype="int64"),
                                           "i": pd.Series(dtype="int64")}))
    else:
        rem = attach_or_filter(ranked, rd.read_parquet(dup_files), "__wh",
                               {"__wh": {"rmin": "rmin"}}, "inner") \
            .map_batches(losers, batch_format="pandas")

    empty_out = pd.DataFrame({id_col: pd.Series(dtype="int64"),
                              "n_tokens": pd.Series(dtype="int64"),
                              "n_removed": pd.Series(dtype="int64"),
                              "text_clean": pd.Series(dtype="object")})

    def splice(l: pd.DataFrame, r: pd.DataFrame) -> pd.DataFrame:
        if l.empty:
            return empty_out
        starts_by_doc: dict[int, np.ndarray] = {}
        if not r.empty:
            for d, grp in r.groupby(id_col, sort=False)["i"]:
                starts_by_doc[d] = grp.to_numpy(np.int64)
        ids_out, ntok_out, nrem_out, text_out = [], [], [], []
        for doc_id, text in zip(l[id_col].to_numpy(), l[text_col].to_numpy()):
            toks = text.split() if isinstance(text, str) else []
            n = len(toks)
            starts = starts_by_doc.get(doc_id)
            if starts is None or n == 0:
                removed, clean = 0, " ".join(toks)
            else:
                # interval union of [s, s+width) via a difference array
                d = np.zeros(n + 1, dtype=np.int64)
                np.add.at(d, starts, 1)
                np.add.at(d, np.minimum(starts + width, n), -1)
                mask = np.cumsum(d[:-1]) > 0
                removed = int(mask.sum())
                clean = " ".join(np.array(toks, dtype=object)[~mask])
            ids_out.append(doc_id)
            ntok_out.append(n)
            nrem_out.append(removed)
            text_out.append(clean)
        return pd.DataFrame({id_col: np.asarray(ids_out, dtype=np.int64),
                             "n_tokens": np.asarray(ntok_out, dtype=np.int64),
                             "n_removed": np.asarray(nrem_out, dtype=np.int64),
                             "text_clean": text_out})

    return cogroup_spill(ds.select_columns([id_col, text_col]), rem,
                         id_col, id_col, splice, empty=empty_out,
                         tag="xsubstr", n_buckets=n_buckets,
                         require_both=False)


def site_chrome_clean(ds: rd.Dataset, id_col: str = "doc_id",
                      host_col: str = "host", text_col: str = "text",
                      num: int = 3, den: int = 10,
                      n_buckets: int = 32) -> rd.Dataset:
    """Per-HOST boilerplate (site chrome) removal — the RefinedWeb /
    trafilatura line-frequency rule: a line occurring on more than
    ``num/den`` of a host's documents (strict: ``den·n_docs_with_line >
    num·host_docs``, exact integers) is navigation/footer chrome and is
    dropped from every document of that host.  Distinct from
    :func:`paragraph_dedup` (global first-wins): chrome removal keeps NO
    copy, is host-scoped, and is frequency-thresholded.

    Scale shape: line occurrences explode per batch; per-(host, line-fp,
    doc) distinct then per-(host, fp) doc counts are keys-only
    exchanges; host doc totals likewise.  The chrome set joins back to
    the line rows by (host, fp) — a hash join where the chrome side is
    tiny (frequent lines only) — and surviving lines reassemble per
    document through ONE bucketed text exchange on ``id_col``.
    Returns (id_col, n_kept, n_chrome, text_col).
    """
    from .relational import grouped_agg, groupby_buckets, hash_join

    def explode(df: pd.DataFrame) -> pd.DataFrame:
        ids, hosts, lidx, lines = [], [], [], []
        for i, h, t in zip(df[id_col].to_numpy(np.int64), df[host_col],
                           df[text_col].fillna("")):
            for j, ln in enumerate(t.split("\n")):
                ids.append(i)
                hosts.append(h)
                lidx.append(j)
                lines.append(ln)
        out = pd.DataFrame({id_col: pd.Series(ids, dtype="int64"),
                            host_col: hosts,
                            "lidx": pd.Series(lidx, dtype="int64"),
                            "line": lines})
        out["__fp"] = fingerprint_batch(out["line"]).astype("int64")
        return out

    lines = ds.map_batches(explode, batch_format="pandas")

    # distinct (host, fp, doc) -> count docs per (host, fp): keys-only
    per_doc = grouped_agg(
        lines.map_batches(
            lambda df: df[[host_col, "__fp", id_col]].drop_duplicates(),
            batch_format="pandas"),
        [host_col, "__fp", id_col], {"one": ("count", "__fp")})
    counts = grouped_agg(per_doc, [host_col, "__fp"],
                         {"n_docs": ("count", "__fp")})
    totals = grouped_agg(
        ds.map_batches(lambda df: df[[host_col, id_col]].drop_duplicates(),
                       batch_format="pandas"),
        [host_col], {"host_docs": ("count", host_col)})
    joined = hash_join(counts, totals, on=[host_col])
    chrome = joined.map_batches(
        lambda df: df.loc[den * df["n_docs"].astype("int64")
                          > num * df["host_docs"].astype("int64"),
                          [host_col, "__fp"]].assign(__chrome=True),
        batch_format="pandas")

    marked = hash_join(lines, chrome, on=[host_col, "__fp"],
                       join_type="left_outer")

    def keep(df: pd.DataFrame) -> pd.DataFrame:
        ch = df["__chrome"].astype("boolean").fillna(False).to_numpy(bool)
        out = df.loc[~ch, [id_col, "lidx", "line"]].copy()
        out["__dropped"] = 0
        drops = df.loc[ch, [id_col]].copy()
        drops["lidx"] = -1
        drops["line"] = ""
        drops["__dropped"] = 1
        return pd.concat([out, drops], ignore_index=True)

    def rebuild(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return pd.DataFrame({id_col: pd.Series(dtype="int64"),
                                 "n_kept": pd.Series(dtype="int64"),
                                 "n_chrome": pd.Series(dtype="int64"),
                                 text_col: pd.Series(dtype="object")})
        df = df.sort_values([id_col, "lidx"], kind="mergesort")
        g = df.groupby(id_col, sort=False)
        out = pd.DataFrame({
            "n_kept": g["__dropped"].apply(lambda s: int((s == 0).sum())),
            "n_chrome": g["__dropped"].sum().astype("int64"),
            text_col: df[df["__dropped"] == 0].groupby(id_col, sort=False)
            ["line"].agg("\n".join),
        }).reset_index()
        out[text_col] = out[text_col].fillna("")
        return out[[id_col, "n_kept", "n_chrome", text_col]]

    return groupby_buckets(marked.map_batches(keep, batch_format="pandas"),
                           [id_col], rebuild, n_buckets=n_buckets)
