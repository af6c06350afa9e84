"""Statistical language-model scoring over a document corpus.

CCNet-style quality filtering (Wenzek et al. 2019, "CCNet: Extracting
High Quality Monolingual Datasets from Web Crawl Data") buckets web
documents by language-model perplexity: low-perplexity pages read like
edited prose, high-perplexity pages are boilerplate/gibberish.  The
production pipeline trains the LM once and scores every crawled page —
the scoring pass must stream at corpus scale.

Here the LM is a bigram model with add-one smoothing trained ON the
corpus itself (self-perplexity — the same shape CCNet uses for its
paragraph-level filter; an external LM is just a precomputed count
table fed to the same joins):

    P(w2 | w1) = (c(w1, w2) + 1) / (c(w1) + V)

where ``c(w1, w2)`` is the corpus bigram count, ``c(w1) = sum_w2
c(w1, w2)`` (occurrences of ``w1`` as a bigram head, the exact MLE
denominator), and ``V`` is the number of distinct head tokens.  A
document's score is the mean bigram log-probability; its perplexity is
``exp(-mean)``.

Scale shape (the whole point):
  * per-batch combiners collapse each block to distinct
    ``(doc_id, w1, w2, k)`` rows before ANY exchange — the token stream
    itself never shuffles;
  * everything the score needs is a function of the bigram HEAD, so
    ONE disk-bucketed exchange on ``hash(w1)`` co-locates the training
    counts and the scoring rows; count tables are LOCAL groupbys inside
    each bucket task, never a distributed join;
  * per-doc partial sums (≤ docs × buckets rows) reduce through one
    combiner-bounded ``grouped_agg``;
  * the only driver-side value is the scalar vocabulary size ``V``.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import ray
import ray.data as rd


def _doc_bigram_partial(id_col: str, text_col: str):
    """Vectorized per-batch bigram counter: lowercase whitespace tokens,
    explode with an in-doc shift(-1) to pair each token with its
    successor, then collapse to distinct (doc, w1, w2) rows with counts.
    No Python loop over rows; each document's text is one row, so a
    document never straddles batches."""

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        rows = df[[id_col]].copy()
        rows["w1"] = df[text_col].fillna("").str.lower().str.split()
        ex = rows.explode("w1", ignore_index=True).dropna(subset=["w1"])
        ex["w2"] = ex.groupby(id_col, sort=False)["w1"].shift(-1)
        big = ex.dropna(subset=["w2"])
        g = big.groupby([id_col, "w1", "w2"], sort=False).size()
        return g.rename("k").reset_index()

    return fn


def _auto_buckets(ds: rd.Dataset) -> int:
    """Bucket count for :func:`lm_perplexity`, scaled to the input size:
    each bucket task's memory is O(distinct bigrams in bucket), so buckets
    grow with the corpus (one per 64 MB, 8..4096) — but a small corpus
    must not shatter into hundreds of tiny hive files whose open/footer
    overhead dominates both passes (32 fixed buckets cost 2.3x at sf0.1).
    An unknown size (``size_bytes()`` is None or raises, common for lazy
    transformed datasets) keeps 32, not the minimum: it may be large."""
    try:
        sz = ds.size_bytes()
    except Exception:
        sz = None
    if sz is None:
        return 32
    return int(min(4096, max(8, sz // (64 << 20))))


def lm_perplexity(
    ds: rd.Dataset,
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    n_buckets: int | None = None,
) -> rd.Dataset:
    """Score every document's bigram-LM perplexity (add-one smoothing)
    against counts trained on the corpus itself.

    Partition-once shape: because EVERY quantity the score needs — the
    bigram count ``c(w1, w2)``, the head count ``c(w1)``, and the doc's
    own ``(w1, w2, k)`` rows — is a function of the bigram HEAD, ONE
    disk-bucketed exchange on ``hash(w1)`` co-locates all of it.  The
    per-doc bigram rows are spilled hive-partitioned by head hash (a
    linear streaming write, like :func:`~.relational.cogroup_spill`);
    a first tiny pass over the buckets counts distinct heads (the
    vocabulary ``V``, the only driver scalar), then a second pass scores
    each bucket IN PLACE — both count tables are local pandas groupbys,
    no corpus-sized join ever shuffles again.  Only per-``(doc,
    bucket)`` partial sums leave the bucket tasks, reduced by one small
    ``grouped_agg``.  (The previous shape paid five all-to-alls: two
    count shuffles plus two distributed hash joins plus the reduce.)

    Returns ``(id_col, n_bigrams int64, ppl float round-4)``; documents
    with fewer than two tokens carry no bigram and are dropped (same as
    the SQL twin's inner joins).
    """
    import tempfile

    from .relational import grouped_agg

    if n_buckets is None:
        n_buckets = _auto_buckets(ds)

    def add_bkt(df: pd.DataFrame) -> pd.DataFrame:
        out = df.copy()
        h = pd.util.hash_pandas_object(df["w1"].astype(str), index=False)
        out["__bkt"] = (h.to_numpy() % np.uint64(n_buckets)).astype("int64")
        return out

    spill = tempfile.mkdtemp(prefix="borges_lm_")
    (ds.map_batches(_doc_bigram_partial(id_col, text_col),
                    batch_format="pandas")
       .map_batches(add_bkt, batch_format="pandas")
       .write_parquet(spill, partition_cols=["__bkt"]))

    bkt_dirs = sorted(os.path.join(spill, e) for e in os.listdir(spill)
                      if e.startswith("__bkt="))
    if not bkt_dirs:
        return rd.from_arrow(pa.Table.from_pandas(
            pd.DataFrame({id_col: pd.Series(dtype="int64"),
                          "n_bigrams": pd.Series(dtype="int64"),
                          "ppl": pd.Series(dtype="float64")}),
            preserve_index=False))
    paths = rd.from_items([{"d": d} for d in bkt_dirs])

    # Both passes STREAM the bucket file-by-file: a Zipf-hot head (think
    # "the") concentrates O(corpus/20) rows in one bucket, so task memory
    # must be O(distinct bigrams in bucket), never O(rows in bucket).

    def _files(d: str) -> list[str]:
        return [os.path.join(d, f) for f in sorted(os.listdir(d))
                if f.endswith(".parquet")]

    # pass 1 (tiny): distinct heads per bucket → V (buckets partition the
    # head space, so the per-bucket counts just add up)
    def head_count(df: pd.DataFrame) -> pd.DataFrame:
        ns = []
        for d in df["d"]:
            heads: set = set()
            for f in _files(d):
                heads.update(pq.read_table(f, columns=["w1"])
                             .column("w1").unique().to_pylist())
            ns.append(len(heads))
        return pd.DataFrame({"n": pd.Series(ns, dtype="int64")})

    vocab = int(paths.map_batches(head_count, batch_format="pandas")
                .to_pandas()["n"].sum())

    # pass 2: score each bucket in place — c12/c1 are local groupbys over
    # the co-located head partition, folded file-by-file
    def score_bucket(df: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for d in df["d"]:
            files = _files(d)
            c12 = None  # (w1, w2) -> count, folded across files
            for f in files:
                b = pq.read_table(f, columns=["w1", "w2", "k"]).to_pandas()
                part = b.groupby(["w1", "w2"], sort=False)["k"].sum()
                c12 = part if c12 is None else c12.add(part, fill_value=0)
            if c12 is None or not len(c12):
                continue
            c12 = c12.astype("int64")
            c1 = c12.groupby(level="w1", sort=False).sum()
            for f in files:
                b = pq.read_table(f).to_pandas()
                key = pd.MultiIndex.from_arrays([b["w1"], b["w2"]])
                lp = (np.log(c12.loc[key].to_numpy(np.float64) + 1.0)
                      - np.log(c1.loc[b["w1"]].to_numpy(np.float64)
                               + float(vocab)))
                k = b["k"].to_numpy(np.float64)
                part = pd.DataFrame({id_col: b[id_col], "s": k * lp,
                                     "n": b["k"]})
                outs.append(part.groupby(id_col, sort=False)
                            .agg(s=("s", "sum"), n=("n", "sum"))
                            .reset_index())
        if not outs:
            return pd.DataFrame({id_col: pd.Series(dtype="int64"),
                                 "s": pd.Series(dtype="float64"),
                                 "n": pd.Series(dtype="int64")})
        return pd.concat(outs, ignore_index=True)

    sums = grouped_agg(
        paths.repartition(len(bkt_dirs))
             .map_batches(score_bucket, batch_format="pandas"),
        [id_col], {"s": ("sum", "s"), "n": ("sum", "n")})

    def finalize(df: pd.DataFrame) -> pd.DataFrame:
        n = df["n"].to_numpy(dtype=np.float64)
        ppl = np.round(np.exp(-df["s"].to_numpy(dtype=np.float64) / n), 4)
        return pd.DataFrame({id_col: df[id_col],
                             "n_bigrams": df["n"].astype("int64"),
                             "ppl": ppl})

    return sums.map_batches(finalize, batch_format="pandas")


def dsir_log_weights(
    ds: rd.Dataset,
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    target_col: str = "is_target",
    dim: int = 1024,
) -> rd.Dataset:
    """DSIR-style importance weights (Xie et al. 2023, "Data Selection
    for Language Models via Importance Resampling"): hash every token
    into ``dim`` buckets, fit smoothed bucket distributions for the RAW
    corpus and for the TARGET subset (rows where ``target_col`` is
    true), and score each document with the mean per-token
    log-likelihood ratio

        lw(doc) = (1/n) * sum_tok ln( p_target(b(tok)) / p_raw(b(tok)) )

    with add-one smoothing over the ``dim`` buckets.  Resampling then
    keeps documents by Gumbel-top-k / thresholding on ``lw`` — the
    caller picks the rule; this op produces the weights.

    Token→bucket uses the repo-wide md5 gate convention
    (``int(md5(tok)[:8], 16) % dim``) so the scoring is layout- and
    seed-independent AND SQL-twinnable.

    Scale shape: one tokenize pass emits per-batch-combined
    ``(doc_id, b, k, kt)`` rows (md5 computed once per DISTINCT token
    per batch); bucket marginals reduce through a keys-only
    ``grouped_agg`` to ≤ ``dim`` rows — the ONLY driver-side state, a
    ``dim``-float log-ratio array re-broadcast via ``ray.put``; scoring
    re-reads the spilled doc rows, so text is tokenized exactly once.
    Returns ``(id_col, lw float round-4)``; token-less documents drop.
    """
    import hashlib

    from .relational import grouped_agg, spill_point

    def featurize(df: pd.DataFrame) -> pd.DataFrame:
        rows = df[[id_col, target_col]].copy()
        rows["tok"] = df[text_col].fillna("").str.lower().str.split()
        ex = rows.explode("tok", ignore_index=True).dropna(subset=["tok"])
        uniq = pd.unique(ex["tok"])
        lut = {t: int(hashlib.md5(t.encode()).hexdigest()[:8], 16) % dim
               for t in uniq}
        ex["b"] = ex["tok"].map(lut).astype("int64")
        g = (ex.groupby([id_col, target_col, "b"], sort=False)
               .size().rename("k").reset_index())
        g["kt"] = np.where(g[target_col], g["k"], 0).astype("int64")
        return g[[id_col, "b", "k", "kt"]]

    doc_b = spill_point(ds.map_batches(featurize, batch_format="pandas"),
                        "dsir_feat")

    buck = grouped_agg(doc_b.select_columns(["b", "k", "kt"]), ["b"],
                       {"k_raw": ("sum", "k"), "k_tgt": ("sum", "kt")}
                       ).to_pandas()  # ≤ dim rows by construction
    t_raw = float(buck["k_raw"].sum())
    t_tgt = float(buck["k_tgt"].sum())
    lr = np.zeros(dim, dtype=np.float64)
    # unseen buckets get the pure-smoothing ratio (cancels the totals)
    lr[:] = np.log(1.0 / (t_tgt + dim)) - np.log(1.0 / (t_raw + dim))
    bi = buck["b"].to_numpy()
    lr[bi] = (np.log((buck["k_tgt"].to_numpy(np.float64) + 1.0) / (t_tgt + dim))
              - np.log((buck["k_raw"].to_numpy(np.float64) + 1.0) / (t_raw + dim)))
    lr_ref = ray.put(lr)

    def partial(df: pd.DataFrame, _r=lr_ref) -> pd.DataFrame:
        w = ray.get(_r)
        k = df["k"].to_numpy(np.float64)
        return pd.DataFrame({id_col: df[id_col],
                             "s": k * w[df["b"].to_numpy()],
                             "n": df["k"].astype("int64")})

    sums = grouped_agg(doc_b.map_batches(partial, batch_format="pandas"),
                       [id_col], {"s": ("sum", "s"), "n": ("sum", "n")})

    def finalize(df: pd.DataFrame) -> pd.DataFrame:
        lw = np.round(df["s"].to_numpy(np.float64)
                      / df["n"].to_numpy(np.float64), 4)
        return pd.DataFrame({id_col: df[id_col], "lw": lw})

    return sums.map_batches(finalize, batch_format="pandas")


def bigram_pmi(ds: rd.Dataset, id_col: str = "doc_id",
               text_col: str = "text", *, min_count: int = 5,
               k: int = 50) -> pd.DataFrame:
    """Top-k collocations by pointwise mutual information — the classic
    corpus-statistics signal for tokenizer-merge candidates and stock
    phrases (a high-PMI bigram is a unit the vocabulary should own; BPE's
    first merges are exactly the high-count end of this table).

        pmi(w1, w2) = ln( c12 * N / (head(w1) * tail(w2)) )

    with ``c12`` the corpus bigram count, ``head``/``tail`` the bigram
    head/tail marginals, and ``N`` the total bigram count — all exact
    integers, so the only float is one division + log (bit-stable vs the
    SQL twin; rounded to 4 decimals like ``lm_perplexity``).

    Scale shape: the token stream collapses to distinct (w1, w2, k) rows
    inside each batch (combiner) before the ONE count exchange; marginals
    are keys-only aggregates OF that count table (vocab-bounded, never
    back to the corpus); the ``min_count`` prune happens before the two
    marginal joins, so the joined table is heavy-bigrams only; top-k is
    per-block partial + final-k.  The driver sees only k rows.
    """
    from .relational import grouped_agg, hash_join, spill_point, topk

    part = _doc_bigram_partial(id_col, text_col)

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        g = part(df).groupby(["w1", "w2"], sort=False)["k"].sum()
        return g.rename("k").reset_index()

    big = grouped_agg(ds.map_batches(partial, batch_format="pandas"),
                      ["w1", "w2"], {"c12": ("sum", "k")})
    # one count table feeds N, both marginals, and the candidate prune —
    # pin it so the corpus tokenization runs once
    big = spill_point(big, "pmi_bigrams")
    heads = grouped_agg(big.select_columns(["w1", "c12"]),
                        ["w1"], {"c1": ("sum", "c12")})
    tails = grouped_agg(big.select_columns(["w2", "c12"]),
                        ["w2"], {"c2": ("sum", "c12")})
    n_total = int(big.sum("c12"))

    cand = big.map_batches(lambda df: df[df["c12"] >= min_count],
                           batch_format="pandas")
    joined = hash_join(hash_join(cand, heads, on=["w1"]), tails, on=["w2"])

    def score(df: pd.DataFrame) -> pd.DataFrame:
        num = df["c12"].to_numpy(np.int64) * np.int64(n_total)
        den = df["c1"].to_numpy(np.int64) * df["c2"].to_numpy(np.int64)
        out = df[["w1", "w2"]].copy()
        out["c12"] = df["c12"].astype("int64")
        out["pmi"] = np.round(np.log(num / den), 4)
        return out

    return topk(joined.map_batches(score, batch_format="pandas"),
                ["pmi"], k, descending=True, tiebreak=["w1", "w2"])


def skipgram_counts(ds: rd.Dataset, id_col: str = "doc_id",
                    text_col: str = "text", *, window: int = 3,
                    min_count: int = 5, k: int = 100) -> pd.DataFrame:
    """Top-k directional skip-gram co-occurrence counts within a token
    window (``1 ≤ pos(w2) − pos(w1) ≤ window``) — the raw statistic
    word-embedding training consumes (word2vec SGNS positives / GloVe's
    co-occurrence matrix) and the windowed generalization of
    :func:`bigram_pmi`'s adjacent-only table.

    Scale shape: per batch, each document's token list is exploded ONCE and
    paired by ``window`` in-doc shifts (vectorized; a document never
    straddles batches since one row = one doc), collapsed to distinct
    ``(w1, w2, count)`` rows (combiner), then ONE count exchange; the
    ``min_count`` prune runs before top-k, and top-k is per-block
    partial + final-k, so the driver sees k rows only.

    Ties break on (w1, w2) ascending — mirrored by the SQL twin's
    ``ORDER BY n DESC, w1, w2``."""
    from .relational import grouped_agg, topk

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        rows = df[[id_col]].copy()
        rows["w1"] = df[text_col].fillna("").str.lower().str.split()
        ex = rows.explode("w1", ignore_index=True).dropna(subset=["w1"])
        g = ex.groupby(id_col, sort=False)["w1"]
        parts = []
        for d in range(1, window + 1):
            w2 = g.shift(-d)
            m = w2.notna()
            if m.any():
                parts.append(pd.DataFrame({"w1": ex["w1"][m],
                                           "w2": w2[m]}))
        if not parts:
            return pd.DataFrame({"w1": pd.Series(dtype="object"),
                                 "w2": pd.Series(dtype="object"),
                                 "k": pd.Series(dtype="int64")})
        cnt = pd.concat(parts, ignore_index=True).groupby(
            ["w1", "w2"], sort=False).size()
        return cnt.rename("k").reset_index()

    cnts = grouped_agg(ds.map_batches(partial, batch_format="pandas"),
                       ["w1", "w2"], {"n": ("sum", "k")})
    cand = cnts.map_batches(
        lambda df: df[df["n"] >= min_count].astype({"n": "int64"}),
        batch_format="pandas")
    return topk(cand, ["n"], k, descending=True, tiebreak=["w1", "w2"])
