"""Unit tests for the training-data operators (dedup family, embeddings,
text analysis) on small synthesized corpora with planted duplicates."""

from __future__ import annotations

import math
import numpy as np
import pandas as pd
import pytest
import ray.data as rd


@pytest.fixture(scope="module")
def docs(ray_session):
    rng = np.random.default_rng(5)
    vocab = "alpha beta gamma delta epsilon zeta eta theta iota kappa".split()
    texts, ids = [], []
    for i in range(60):
        words = [vocab[j] for j in rng.integers(0, len(vocab), 30)]
        texts.append(" ".join(words))
        ids.append(i)
    # planted exact dup of doc 0 and near-dup of doc 1 (one word changed)
    texts.append(texts[0]); ids.append(100)
    near = texts[1].split(); near[5] = "OMEGA"
    texts.append(" ".join(near)); ids.append(101)
    df = pd.DataFrame({"doc_id": ids, "text": texts})
    return df, rd.from_pandas(df)


def test_exact_dedup(docs):
    df, ds = docs
    from borges_ray.ops.dedup import exact_dedup

    out = exact_dedup(ds, "text", "doc_id").to_pandas()
    assert len(out) == len(df) - 1          # one exact dup removed
    assert 0 in set(out.doc_id) and 100 not in set(out.doc_id)  # min-id wins


def test_minhash_near_dup(docs):
    df, ds = docs
    from borges_ray.ops.dedup import minhash_near_dup_pairs

    pairs = minhash_near_dup_pairs(ds, "doc_id", threshold=0.5)
    got = set(map(tuple, pairs[["id_a", "id_b"]].values))
    assert (0, 100) in got                   # exact dup found
    assert (1, 101) in got                   # near dup found
    assert pairs.loc[(pairs.id_a == 0) & (pairs.id_b == 100), "jaccard"].iloc[0] == 1.0


def test_optimal_bands_threshold_adaptive():
    """FN-capped banding: largest r with miss ≤ 1e-3 at J=threshold.
    threshold 0.5 keeps today's r=2 operating point; higher thresholds
    deepen r so boilerplate-J pairs stop flooding the candidate stream."""
    from borges_ray.ops.dedup import optimal_bands

    assert optimal_bands(64, 0.5) == 32          # r=2 — unchanged behavior
    b7 = optimal_bands(64, 0.7)
    r7 = 64 // b7
    assert r7 >= 3                               # deeper than r=2
    assert (1 - 0.7 ** r7) ** b7 <= 1e-3         # recall bound holds
    b9 = optimal_bands(64, 0.9)
    r9 = 64 // b9
    assert r9 > r7
    assert (1 - 0.9 ** r9) ** b9 <= 1e-3
    # the background-J collision rate must actually collapse at 0.7
    assert b7 * 0.005 ** r7 < 1e-5 < 32 * 0.005 ** 2


def test_simhash_near_dup(docs):
    df, ds = docs
    from borges_ray.ops.dedup import simhash_near_dup_pairs

    pairs = simhash_near_dup_pairs(ds, "doc_id", max_hamming=6)
    got = set(map(tuple, pairs[["id_a", "id_b"]].values))
    assert (0, 100) in got
    h0 = pairs.loc[(pairs.id_a == 0) & (pairs.id_b == 100), "hamming"].iloc[0]
    assert h0 == 0


def test_ngram_jaccard_kernel():
    from borges_ray.ops.dedup import jaccard

    assert jaccard("a b c d e", "a b c d e") == 1.0
    assert jaccard("a b c d e", "x y z w v") == 0.0
    assert 0.0 < jaccard("a b c d e f", "a b c d e g") < 1.0


def test_ngram_jaccard_pairs_exact_vs_brute(docs):
    """The prefix-filtered self-join must return EXACTLY the brute-force
    all-pairs result — completeness is the PPJoin lemma, precision the
    verify stage — including at a threshold (0.3) below what the default
    MinHash banding reliably covers."""
    import itertools

    from borges_ray.ops.dedup import jaccard, ngram_jaccard_pairs

    df, ds = docs
    got = ngram_jaccard_pairs(ds, "doc_id", threshold=0.3)
    exp = []
    for (ia, ta), (ib, tb) in itertools.combinations(
            zip(df.doc_id, df.text), 2):
        j = jaccard(ta, tb, 3)
        if j >= 0.3:
            exp.append((ia, ib, j))
    exp = pd.DataFrame(exp, columns=["id_a", "id_b", "jaccard"]).sort_values(
        ["id_a", "id_b"], ignore_index=True)
    pd.testing.assert_frame_equal(got, exp)
    assert ((0, 100) in set(map(tuple, got[["id_a", "id_b"]].values)))


def test_ngram_jaccard_bucket_cap_keeps_precision(docs):
    """With an adversarially tiny ``max_bucket``, recall may drop (logged)
    but every returned pair still carries its TRUE Jaccard ≥ threshold —
    the verify stage re-computes from text regardless of how candidates
    were generated."""
    from borges_ray.ops.dedup import jaccard, ngram_jaccard_pairs

    df, ds = docs
    got = ngram_jaccard_pairs(ds, "doc_id", threshold=0.3, max_bucket=2)
    texts = dict(zip(df.doc_id, df.text))
    for r in got.itertuples(index=False):
        assert jaccard(texts[r.id_a], texts[r.id_b], 3) == r.jaccard
        assert r.jaccard >= 0.3


@pytest.fixture(scope="module")
def vecs(ray_session):
    rng = np.random.default_rng(6)
    m = rng.standard_normal((80, 16))
    m[70] = m[0] + 0.001 * rng.standard_normal(16)   # planted near-dup of row 0
    df = pd.DataFrame({"vec_id": range(80), "embedding": [list(r) for r in m]})
    return m, rd.from_pandas(df)


def test_knn_brute_matches_numpy(vecs):
    m, ds = vecs
    from borges_ray.ops.embed import knn_brute

    q = m[3]
    out = knn_brute(ds, q, 5)
    mn = m / np.linalg.norm(m, axis=1, keepdims=True)
    qn = q / np.linalg.norm(q)
    cos = np.round(mn @ qn, 6)
    expect = sorted(range(80), key=lambda i: (-cos[i], i))[:5]
    assert out["vec_id"].tolist() == expect
    assert out["cos"].iloc[0] == 1.0  # itself


def test_knn_lsh_finds_near_dup(vecs):
    m, ds = vecs
    from borges_ray.ops.embed import knn_lsh

    out = knn_lsh(ds, m[0], 3, n_planes=4)
    assert 0 in out["vec_id"].tolist() and 70 in out["vec_id"].tolist()


def test_cosine_near_dup_pairs(vecs):
    m, ds = vecs
    from borges_ray.ops.embed import cosine_near_dup_pairs

    pairs = cosine_near_dup_pairs(ds, 0.999)
    assert (0, 70) in set(map(tuple, pairs[["id_a", "id_b"]].values))


def test_lang_id(ray_session):
    from borges_ray.ops.textops import LangId

    df = pd.DataFrame({"text": [
        "the cat and the dog are in that house",
        "der Hund ist nicht mit der Katze",
        "le chat et les chiens est pour une maison",
        "el perro y el gato es para la casa",
        "你好 世界 这是 中文 文本",
    ]})
    out = LangId()(df)
    assert out["pred_lang"].tolist() == ["en", "de", "fr", "es", "zh"]


def test_fingerprint_stability():
    from borges_ray.ops.textops import fingerprint_batch

    a = fingerprint_batch(pd.Series(["hello  world", "hello world", "other"]))
    # whitespace-normalized: runs collapse → first two equal
    assert a.iloc[0] == a.iloc[1]
    assert a.iloc[0] != a.iloc[2]


def test_quality_scorer():
    from borges_ray.ops.textops import QualityScorer

    out = QualityScorer()(pd.DataFrame({"text": ["The cat, the hat!", ""]}))
    assert out["n_words"].tolist() == [4, 0]
    assert out["punct_ratio"].iloc[0] > 0
    assert out["stopword_ratio"].iloc[0] == 0.5


# -- featurize exactness: every batch kernel against per-text scalar
# references written from the original formulas (str.split, the TOKEN_RE /
# punctuation / [A-Za-z]+ regexes, the \s-collapse + polynomial hash and
# blake2b-token shingles), on every code point and on an edge batch.

_EDGE_TEXTS = [
    "", "   \t\n ", "\x0b\x1c\u3000", "x", "12",
    "The Kelvin \u212a sign and \u0130stanbul is the city of a",
    "numbers \u0660\u0661\u0662\u0663 and 12\u06634 mixed_with_underscores \xbd half",
    "\u4e2d\u6587 \u6587\u672c the \u4e2d a",
    "a\x1cb\x0bc\x1fd\x85e\u2028f\xa0g\x1dh\x1ei",
    "THE The tHe OF. of, An-an; IS: is were BEEN from-this that",
    "__init__ ___ _a_ 3_4",
    " leading and trailing  \u3000",
    "\xe9migr\xe9 caf\xe9 na\xefve r\xe9sum\xe9 \xfcber",
    "\uff21\uff22\uff23\uff11\uff12\uff13 \U0001f642 emoji! a\U0001f642b",
    "lorem ipsum, dolor   sit\n" * 5000,  # one text longer than a hash chunk
]


def _all_codepoint_texts(chunk: int = 8192) -> list[str]:
    """Every code point 0..0x10FFFF except surrogates, each set between
    ASCII letters, digits and spaces (cycling separators)."""
    seps = ["a", "1", " ", "Ab", "12", "  "]
    cps = [c for c in range(0x110000) if not 0xD800 <= c <= 0xDFFF]
    return ["".join(seps[i % 6] + chr(c) for i, c in enumerate(cps[lo:lo + chunk]))
            for lo in range(0, len(cps), chunk)]


def _ref_counts(t: str) -> dict:
    import re

    from borges_ray.ops.textops import STOPWORDS, TOKEN_RE

    words = re.findall(r"[A-Za-z]+", t)
    return {"ws": len(t.split()), "bpe": len(TOKEN_RE.findall(t)),
            "punct": len(re.findall(r"[^\w\s]", t)), "n_chars": len(t),
            "n_words": len(words),
            "n_stop": sum(w.lower() in STOPWORDS for w in words),
            "word_chars": sum(len(w) for w in words)}


def _ref_fingerprint(t: str) -> int:
    import re

    h = 0
    for b in re.sub(r"\s+", " ", t.strip()).encode("utf-8"):
        h = (h * 1_000_003 + b) % (1 << 64)
    return h


def _ref_signature(t: str, a: np.ndarray, b: np.ndarray, k: int) -> np.ndarray:
    import hashlib

    toks = t.split()
    if not toks:
        return np.zeros(len(a), dtype=np.uint64)
    th = [int.from_bytes(hashlib.blake2b(w.encode("utf-8"), digest_size=8)
                         .digest(), "big") for w in toks]
    k = min(k, len(toks))
    sh = []
    for i in range(len(toks) - k + 1):
        acc = 0
        for j in range(k):
            acc = (acc * 0x9E3779B97F4A7C15 + th[i + j]) % (1 << 64)
        sh.append(acc)
    sh = np.array(sh, dtype=np.uint64)
    return (a[:, None] * sh[None, :] + b[:, None]).min(axis=1)


def _check_kernels_exact(texts: list[str], num_perm: int) -> None:
    from borges_ray.ops.dedup import MinHasher
    from borges_ray.ops.textops import (QualityScorer, fingerprint_batch,
                                        token_count_batch)

    refs = [_ref_counts(t) for t in texts]
    s = pd.Series(texts)
    ws, bpe = token_count_batch(s)
    assert ws.tolist() == [r["ws"] for r in refs]
    assert bpe.tolist() == [r["bpe"] for r in refs]

    q = QualityScorer()(pd.DataFrame({"text": s}))
    assert q["n_chars"].tolist() == [r["n_chars"] for r in refs]
    assert q["n_words"].tolist() == [r["n_words"] for r in refs]
    for col, num, den in [("punct_ratio", "punct", "n_chars"),
                          ("stopword_ratio", "n_stop", "n_words"),
                          ("mean_word_len", "word_chars", "n_words")]:
        want = [np.round(np.float64(r[num]) / max(r[den], 1), 6) for r in refs]
        assert q[col].tolist() == want, col

    assert fingerprint_batch(s).tolist() == [_ref_fingerprint(t) for t in texts]

    mh = MinHasher(num_perm=num_perm, shingle_k=3)
    got = mh(pd.DataFrame({"text": texts}))["__sig"].tolist()
    assert got == [_ref_signature(t, mh.a, mh.b, 3).tobytes() for t in texts]


def test_featurize_kernels_exact_every_codepoint():
    _check_kernels_exact(_all_codepoint_texts(), num_perm=4)


def test_featurize_kernels_exact_edge_batch():
    _check_kernels_exact(_EDGE_TEXTS, num_perm=16)
    _check_kernels_exact(_EDGE_TEXTS[::-1] + [""], num_perm=16)


def _check_gopher_exact(texts: list[str]) -> None:
    """``GopherRules`` against per-text references of its original regex
    formulas (``\\S+``, ``\\S``, ``\\S*[A-Za-z]\\S*`` counts and one
    whitespace-delimited presence regex per required word)."""
    import re

    from borges_ray.ops.textops import GOPHER_REQUIRED, GopherRules

    # small thresholds so every flag takes both values across the batch
    rules = GopherRules(min_words=2, max_words=40, min_req_hits=1)
    got = rules(pd.DataFrame({"doc_id": range(len(texts) + 1),
                              "text": texts + [None]}))
    want = []
    for t in texts + [""]:
        low = t.lower()
        n_words = len(re.findall(r"\S+", t))
        wc = len(re.findall(r"\S", t))
        n_alpha = len(re.findall(r"\S*[A-Za-z]\S*", t))
        n_sym = len(re.findall("#", t)) + len(re.findall(r"\.\.\.", t))
        hits = sum(bool(re.search(r"(?<!\S)" + re.escape(w) + r"(?!\S)", low))
                   for w in GOPHER_REQUIRED)
        flags = (2 <= n_words <= 40, 3 * n_words <= wc <= 10 * n_words,
                 10 * n_sym < n_words, 5 * n_alpha >= 4 * n_words, hits >= 1)
        want.append((n_words, wc, hits, *flags, all(flags)))
    cols = ["n_words", "word_chars", "req_hits", "ok_words", "ok_mwl",
            "ok_sym", "ok_alpha", "ok_req", "keep"]
    assert list(got[cols].itertuples(index=False, name=None)) == want


def test_gopher_rules_exact_every_codepoint():
    # each code point also as a one-token text, so single-token flags and
    # case folding of every character into the required-word bank show
    _check_gopher_exact(_all_codepoint_texts()
                        + [chr(c) + "he" for c in range(0x10000)
                           if not 0xD800 <= c <= 0xDFFF])


def test_gopher_rules_exact_edge_batch():
    extra = ["the # ... .... #### and", "THE Be tO... with-that have\u3000of",
             "\u0130 \u212a \u0131 the\x1cand\x85of", "a b c d e f g h i j " * 5]
    _check_gopher_exact(_EDGE_TEXTS + extra)
    _check_gopher_exact(_EDGE_TEXTS[::-1] + extra[::-1])


def test_page_featurizer_exact():
    """PageFeaturizer columns == the per-text references on the perfbench
    page shape, with one over-cap row degraded to an error row."""
    import pyarrow as pa

    from borges_ray.extract import extract_text, tag_lang_batch
    from borges_ray.pipelines.ingest import PageFeaturizer
    from borges_ray.synth import synth_pages

    pages = synth_pages(1, 300, words_lo=400, words_hi=1000).select(["url", "html"])
    cap = max(len(h) for h in pages["html"].to_pylist())
    big = pa.table({"url": ["http://big.example/p"],
                    "html": [b"<html><body><p>" + b"word " * cap + b"</p></body></html>"]})
    pages = pa.concat_tables([pages.slice(0, 150), big.cast(pages.schema),
                              pages.slice(150)])
    pf = PageFeaturizer(num_perm=32, shingle_k=3, max_payload_bytes=cap)
    out = pf(pages)
    assert out.column_names == [
        "url", "extracted_text", "lang", "n_ws_tokens", "n_bpe_tokens",
        "fingerprint", "punct_ratio", "stopword_ratio", "mean_word_len",
        "minhash_sig", "n_html_bytes", "error"]
    assert [f.type for f in out.schema] == [
        pa.string(), pa.string(), pa.string(), pa.int64(), pa.int64(),
        pa.uint64(), pa.float64(), pa.float64(), pa.float64(), pa.binary(),
        pa.int64(), pa.string()]
    htmls = pages["html"].to_pylist()
    texts = ["" if len(h) > cap else extract_text(h) for h in htmls]
    assert texts[150] == "" and texts[0]
    c = out.to_pydict()
    assert c["url"] == pages["url"].to_pylist()
    assert c["extracted_text"] == texts
    assert c["lang"] == tag_lang_batch(texts)
    assert c["n_html_bytes"] == [len(h) for h in htmls]
    assert c["error"] == [None] * 150 + ["payload_too_large"] + [None] * 150
    refs = [_ref_counts(t) for t in texts]
    assert c["n_ws_tokens"] == [r["ws"] for r in refs]
    assert c["n_bpe_tokens"] == [r["bpe"] for r in refs]
    assert c["fingerprint"] == [_ref_fingerprint(t) for t in texts]
    for col, num, den in [("punct_ratio", "punct", "n_chars"),
                          ("stopword_ratio", "n_stop", "n_words"),
                          ("mean_word_len", "word_chars", "n_words")]:
        assert c[col] == [np.round(np.float64(r[num]) / max(r[den], 1), 6)
                          for r in refs], col
    a, b = pf.minhash.a, pf.minhash.b
    assert c["minhash_sig"] == [_ref_signature(t, a, b, 3).tobytes() for t in texts]


def test_knn_ivf(vecs):
    m, ds = vecs
    from borges_ray.ops.embed import knn_brute, knn_ivf, train_ivf_centroids

    cents = train_ivf_centroids(ds, n_centroids=8, sample_rows=80)
    assert cents.shape[1] == 16
    out = knn_ivf(ds, m[0], 3, cents, n_probe=4)
    assert 0 in out["vec_id"].tolist()           # finds itself
    # high n_probe → converges to exact brute-force result
    out_full = knn_ivf(ds, m[0], 5, cents, n_probe=8)
    brute = knn_brute(ds, m[0], 5)
    assert out_full["vec_id"].tolist() == brute["vec_id"].tolist()


def test_knn_ivf_partitioned_prunes_reads(ray_session, tmp_path):
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from borges_ray.ops.embed import (
        build_ivf_index,
        knn_brute,
        knn_ivf_partitioned,
        train_ivf_centroids,
    )

    df = pd.read_parquet("/root/testdata/sf0.001/embeddings.parquet")
    ds = rd.from_pandas(df)
    cents = train_ivf_centroids(ds, n_centroids=8)
    idx = str(tmp_path / "ivf")
    build_ivf_index(ds, cents, idx)
    q = np.asarray(df[df.vec_id == 0]["embedding"].iloc[0])
    got, stats = knn_ivf_partitioned(idx, q, 10, cents, n_probe=2)
    # physical pruning: fewer partitions and bytes than the full index
    assert stats["partitions_read"] <= 2 < stats["partitions_total"]
    assert 0 < stats["bytes_read"] < stats["bytes_total"]
    exact = knn_brute(ds, q, 10)

    def recall(frame):
        return len(set(frame.vec_id) & set(exact.vec_id)) / 10

    # probing every partition reads everything → must equal exact top-k
    full, fstats = knn_ivf_partitioned(idx, q, 10, cents, n_probe=8)
    assert fstats["bytes_read"] == fstats["bytes_total"]
    assert full.vec_id.tolist() == exact.vec_id.tolist()
    # recall monotone in probe count; scores on returned ids are exact
    r1, _ = knn_ivf_partitioned(idx, q, 10, cents, n_probe=1)
    assert recall(r1) <= recall(got) <= 1.0
    merged = got.merge(exact, on="vec_id", suffixes=("_a", "_e"))
    assert (merged.cos_a == merged.cos_e).all()


def test_knn_lsh_partitioned_prunes_reads(ray_session, tmp_path):
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from borges_ray.ops.embed import (
        build_lsh_index,
        knn_lsh,
        knn_lsh_partitioned,
        lsh_planes,
    )

    df = pd.read_parquet("/root/testdata/sf0.001/embeddings.parquet")
    ds = rd.from_pandas(df)
    dim = len(df["embedding"].iloc[0])
    planes = lsh_planes(dim, 4, seed=13)
    idx = str(tmp_path / "lshb")
    build_lsh_index(ds, planes, idx)
    q = np.asarray(df[df.vec_id == 0]["embedding"].iloc[0])
    got, stats = knn_lsh_partitioned(idx, q, 10, planes)
    # physical pruning: one bucket dir of up to 2^4, strictly fewer bytes
    assert stats["partitions_read"] == 1
    assert stats["partitions_total"] == 16
    assert 0 < stats["bytes_read"] < stats["bytes_total"]
    # identical rows to the logical (scan-and-mask) variant: same planes →
    # same bucket membership → same candidates and exact scores
    logical = knn_lsh(ds, q, 10, n_planes=4, seed=13)
    assert got[["vec_id", "cos"]].values.tolist() == \
        logical[["vec_id", "cos"]].values.tolist()


def test_knn_lsh_recall_vs_brute(ray_session):
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from borges_ray.ops.embed import knn_brute, knn_lsh

    df = pd.read_parquet("/root/testdata/sf0.001/embeddings.parquet")
    ds = rd.from_pandas(df)
    q = np.asarray(df[df.vec_id == 0]["embedding"].iloc[0])
    exact = knn_brute(ds, q, 10)

    def recall(frame):
        return len(set(frame.vec_id) & set(exact.vec_id)) / 10

    # fewer planes → bigger buckets → recall monotone up; scores exact on
    # whatever the pruned scan returns
    wide = knn_lsh(ds, q, 10, n_planes=1)
    narrow = knn_lsh(ds, q, 10, n_planes=6)
    assert recall(narrow) <= recall(wide) <= 1.0
    assert recall(wide) >= 0.5, recall(wide)  # half-space scan: decent recall
    merged = narrow.merge(exact, on="vec_id", suffixes=("_a", "_e"))
    assert (merged.cos_a == merged.cos_e).all()


def test_near_dup_groups_and_survivors():
    import pandas as pd

    from borges_ray.ops.dedup import dedup_survivors, near_dup_groups

    # chain 1-2, 2-3 (one cluster), pair 7-9, singleton 5 untouched
    pairs = pd.DataFrame({"id_a": [1, 2, 7], "id_b": [2, 3, 9]})
    g = near_dup_groups(pairs)
    got = dict(zip(g["id"], g["group"]))
    assert got == {1: 1, 2: 1, 3: 1, 7: 7, 9: 7}
    surv = dedup_survivors(pd.Series([1, 2, 3, 5, 7, 9]), pairs)
    assert surv.tolist() == [1, 5, 7]


def test_near_dup_groups_ray_matches_pandas(ray_session):
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from borges_ray.ops.dedup import near_dup_groups, near_dup_groups_ray

    rng = np.random.default_rng(5)
    a = rng.integers(0, 40, 60)
    b = a + rng.integers(1, 4, 60)         # random chains → multi-hop clusters
    pairs = pd.DataFrame({"id_a": np.minimum(a, b).astype("int64"),
                          "id_b": np.maximum(a, b).astype("int64")})
    pairs = pairs[pairs.id_a != pairs.id_b].drop_duplicates(ignore_index=True)
    want = near_dup_groups(pairs)
    got = near_dup_groups_ray(rd.from_pandas(pairs))
    pd.testing.assert_frame_equal(got, want.reset_index(drop=True))


def test_half_near_dup_corpus_dataset_end_to_end(ray_session):
    """The regime where "candidates ≪ corpus" FAILS: 50 % of the corpus is
    near-duplicate (every even doc has an odd near-twin), so the candidate
    graph's node set is O(corpus).  The whole chain — pairs → CC labels →
    survivors — runs as Datasets end-to-end (no pandas pair/forest transit)
    and must keep exactly the even (min-id) twin of every pair plus nothing
    else removed."""
    import ray.data as rd

    from borges_ray.ops.dedup import (
        dedup_survivors_ds,
        minhash_near_dup_pairs_ds,
        near_dup_labels_ds,
    )

    rng = np.random.default_rng(11)
    vocab = [f"w{i}" for i in range(500)]
    texts, ids = [], []
    for i in range(0, 400, 2):
        words = [vocab[j] for j in rng.integers(0, len(vocab), 40)]
        texts.append(" ".join(words)); ids.append(i)
        twin = list(words); twin[7] = "PERTURBED"   # ~0.75 Jaccard twin
        texts.append(" ".join(twin)); ids.append(i + 1)
    df = pd.DataFrame({"doc_id": ids, "text": texts})
    ds = rd.from_pandas(df).repartition(8)

    pairs_ds = minhash_near_dup_pairs_ds(ds, "doc_id", threshold=0.5)
    assert isinstance(pairs_ds, rd.Dataset)
    labels = near_dup_labels_ds(pairs_ds).to_pandas()
    # every even doc is its twin's group root
    lab = dict(zip(labels["id"], labels["group"]))
    for i in range(0, 400, 2):
        assert lab.get(i + 1) == i, (i, lab.get(i + 1))

    pairs_ds2 = minhash_near_dup_pairs_ds(ds, "doc_id", threshold=0.5)
    surv = dedup_survivors_ds(
        rd.from_pandas(df[["doc_id"]]).repartition(8), pairs_ds2, "doc_id"
    ).to_pandas()
    kept = set(surv["doc_id"])
    # exactly the 200 even docs survive (plus any odd doc that happened to
    # form no pair — none by construction at threshold 0.5)
    assert kept == set(range(0, 400, 2)), len(kept)


def test_near_dup_groups_empty():
    import pandas as pd

    from borges_ray.ops.dedup import near_dup_groups

    g = near_dup_groups(pd.DataFrame({"id_a": [], "id_b": []}))
    assert len(g) == 0


def test_frame_sampling(ray_session):
    import pandas as pd
    import ray.data as rd

    from borges_ray.ops.multimodal import media_from_documents, sample_video_frames

    docs = rd.from_pandas(pd.DataFrame({"doc_id": range(40)}))
    media = media_from_documents(docs, video=True)
    out = sample_video_frames(media, n_frames=4).to_pandas()
    assert set(out.columns) == {"media_id", "frame_idx", "thumb_mean", "thumb_std"}
    assert out.groupby("media_id")["frame_idx"].count().max() <= 4
    assert len(out) >= 40                      # every payload produced frames
    # golden per-frame thumbnail stats: constant-byte frames
    for _, r in out.head(20).iterrows():
        want = round(((int(r.media_id) + int(r.frame_idx)) % 251) / 255.0, 6)
        assert r.thumb_mean == want and r.thumb_std == 0.0


def test_media_feature_extractor(ray_session):
    import pandas as pd
    import ray.data as rd

    from borges_ray.ops.multimodal import extract_media_features, media_from_documents

    docs = rd.from_pandas(pd.DataFrame({"doc_id": range(30)}))
    media = media_from_documents(docs)
    out = extract_media_features(media, batch_size=8).to_pandas()
    assert len(out) == 30
    # header fields parsed from the actual bytes match the generator rule
    for _, r in out.iterrows():
        d = int(r.media_id)
        assert r.width == 16 + d % 317 and r.height == 16 + d % 211
        assert r.n_bytes == 117 + d % 1000
        assert r.checksum == (100 + d % 1000) * (d % 251)

# ---------------------------------------------------------------------------
# Bounded LSH bucket fan-out (adversarial hot buckets + tiling invariance)
# ---------------------------------------------------------------------------

def test_simhash_hot_bucket_capped(ray_session):
    """Adversarial hot bucket: 10^5 identical-signature docs collapse every
    chunk bucket onto one value; the member cap must bound the pair spawn
    (smallest ids win) and the tiled popcount must complete without an
    O(m^2) allocation."""
    from borges_ray.ops.dedup import simhash_near_dup_pairs

    n, cap = 100_000, 64
    df = pd.DataFrame({"doc_id": np.arange(n, dtype=np.int64),
                       "text": "hot bucket text payload"})
    pairs = simhash_near_dup_pairs(rd.from_pandas(df), "doc_id",
                                   max_hamming=3, max_bucket=cap, tile=16)
    assert len(pairs) == cap * (cap - 1) // 2
    assert pairs["id_a"].max() < cap and pairs["id_b"].max() < cap
    assert (pairs["hamming"] == 0).all()


def test_cosine_hot_bucket_capped(ray_session):
    """Same adversarial shape for the embedding LSH: identical vectors all
    land in one hyperplane bucket in every rep; cap + tiling bound the
    verify matmul."""
    from borges_ray.ops.embed import cosine_near_dup_pairs

    n, cap = 20_000, 48
    rng = np.random.default_rng(9)
    v = list(rng.standard_normal(8))
    df = pd.DataFrame({"vec_id": np.arange(n, dtype=np.int64),
                       "embedding": [v] * n})
    pairs = cosine_near_dup_pairs(rd.from_pandas(df), 0.999,
                                  max_bucket=cap, tile=16)
    assert len(pairs) == cap * (cap - 1) // 2
    assert pairs["id_a"].max() < cap and pairs["id_b"].max() < cap
    assert (pairs["cos"] == 1.0).all()


def test_simhash_tiling_invariant(docs):
    """Tiled pair spawn returns exactly the untiled pair set."""
    from borges_ray.ops.dedup import simhash_near_dup_pairs

    _, ds = docs
    a = simhash_near_dup_pairs(ds, "doc_id", max_hamming=6, tile=8)
    b = simhash_near_dup_pairs(ds, "doc_id", max_hamming=6)
    key = lambda p: sorted(map(tuple, p[["id_a", "id_b", "hamming"]].values))
    assert key(a) == key(b) and len(a) > 0


def test_cosine_tiling_invariant(vecs):
    from borges_ray.ops.embed import cosine_near_dup_pairs

    _, ds = vecs
    a = cosine_near_dup_pairs(ds, 0.5, tile=8)
    b = cosine_near_dup_pairs(ds, 0.5)
    key = lambda p: sorted(map(tuple, p[["id_a", "id_b", "cos"]].values))
    assert key(a) == key(b) and len(a) > 0


def test_broadcast_guard_falls_back_to_hash_join(ray_session, monkeypatch):
    """A 'small' side past the row/byte guard silently becomes a distributed
    hash join (same rows); under the guard it broadcasts as before."""
    from borges_ray.ops import relational
    from borges_ray.ops.relational import attach_or_filter

    fact = pd.DataFrame({"k": [1, 2, 3, 4, 2], "x": [10, 20, 30, 40, 21]})
    dim = pd.DataFrame({"k": [1, 2, 3], "name": ["a", "b", "c"]})
    ds = rd.from_pandas(fact)

    def join() -> pd.DataFrame:
        return (attach_or_filter(ds, rd.from_pandas(dim), "k",
                                 {"k": {"name": "name"}}, "inner")
                .to_pandas().sort_values(["k", "x"]).reset_index(drop=True))

    want = (fact.merge(dim, on="k", how="inner")
            .sort_values(["k", "x"]).reset_index(drop=True))
    got_bc = join()
    with monkeypatch.context() as m:
        m.setattr(relational, "BROADCAST_MAX_ROWS", 2)
        got_fb = join()[want.columns.tolist()]
    pd.testing.assert_frame_equal(got_bc, want)
    pd.testing.assert_frame_equal(got_fb.astype(want.dtypes), want)
    # byte guard trips too
    with monkeypatch.context() as m:
        m.setattr(relational, "BROADCAST_MAX_BYTES", 1)
        got_bytes = join()[want.columns.tolist()]
    pd.testing.assert_frame_equal(got_bytes.astype(want.dtypes), want)

    keys = dim[["k"]]
    want_anti = fact[~fact.k.isin(keys.k)].reset_index(drop=True)
    with monkeypatch.context() as m:
        m.setattr(relational, "BROADCAST_MAX_ROWS", 1)
        got_anti = (attach_or_filter(ds, rd.from_pandas(keys), "k", {"k": {}},
                                     "anti")
                    .to_pandas().reset_index(drop=True))
    pd.testing.assert_frame_equal(
        got_anti.sort_values("k").reset_index(drop=True).astype(want_anti.dtypes),
        want_anti.sort_values("k").reset_index(drop=True))


@pytest.fixture(params=["broadcast", "shuffle"])
def lookup_guard(request):
    """Run a lookup test on each side of the broadcast row guard."""
    if request.param == "shuffle":
        request.getfixturevalue("shuffle_guard")
    return request.param


def _sorted(df: pd.DataFrame) -> pd.DataFrame:
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def test_attach_or_filter_string_key(ray_session, lookup_guard):
    """String keys (the host-table shape) attach like integer keys."""
    from borges_ray.ops.relational import attach_or_filter

    pairs = pd.DataFrame({"a": ["h1", "h2", "h3", "h9"],
                          "b": ["h2", "h3", "h1", "h1"]})
    sizes = pd.DataFrame({"host": ["h1", "h2", "h3"], "n": [5, 7, 11]})
    got = attach_or_filter(rd.from_pandas(pairs), rd.from_pandas(sizes),
                           "host", {"a": {"n": "n_a"}, "b": {"n": "n_b"}},
                           "inner").to_pandas()
    want = (pairs.merge(sizes.rename(columns={"host": "a", "n": "n_a"}))
            .merge(sizes.rename(columns={"host": "b", "n": "n_b"})))
    pd.testing.assert_frame_equal(_sorted(got[want.columns.tolist()]),
                                  _sorted(want), check_dtype=False)


@pytest.mark.parametrize("how", ["inner", "semi", "anti"])
def test_attach_or_filter_two_probes(ray_session, lookup_guard, how):
    """Two probe columns: inner/semi keep rows where BOTH hit (inner also
    attaches both sides' columns); anti keeps rows where NEITHER hits."""
    from borges_ray.ops.relational import attach_or_filter

    edges = pd.DataFrame({"u": [1, 1, 2, 3, 4, 5], "v": [2, 3, 3, 4, 5, 6]})
    nodes = pd.DataFrame({"node": [1, 2, 3, 6], "c": [10, 20, 30, 60]})
    probes = ({"u": {"c": "c_u"}, "v": {"c": "c_v"}} if how == "inner"
              else {"u": {}, "v": {}})
    got = attach_or_filter(rd.from_pandas(edges), rd.from_pandas(nodes),
                           "node", probes, how).to_pandas()
    hu, hv = edges.u.isin(nodes.node), edges.v.isin(nodes.node)
    want = edges[~hu & ~hv] if how == "anti" else edges[hu & hv]
    if how == "inner":
        lut = dict(zip(nodes.node, nodes.c))
        want = want.assign(c_u=want.u.map(lut), c_v=want.v.map(lut))
    assert list(got.columns) == list(want.columns)
    pd.testing.assert_frame_equal(_sorted(got), _sorted(want),
                                  check_dtype=False)


@pytest.mark.parametrize("how", ["inner", "semi", "anti"])
def test_attach_or_filter_empty_sides(ray_session, lookup_guard, how):
    """An empty small side or an empty ``ds`` still yields a typed schema."""
    from borges_ray.ops.relational import attach_or_filter

    fact = pd.DataFrame({"k": [1, 2], "x": [10, 20]})
    dim = pd.DataFrame({"k": [1], "name": ["a"]})
    probes = {"k": {"name": "name"}} if how == "inner" else {"k": {}}
    cols = ["k", "x", "name"] if how == "inner" else ["k", "x"]
    for ds, small in ((fact.iloc[0:0], dim), (fact, dim.iloc[0:0])):
        out = attach_or_filter(rd.from_pandas(ds), rd.from_pandas(small),
                               "k", probes, how)
        schema = out.schema()
        assert schema is not None and schema.names == cols
        assert [str(t) for t in schema.types[:2]] == ["int64", "int64"]
        assert out.count() == (2 if how == "anti" and len(ds) else 0)


def test_attach_or_filter_repeated_key_raises(ray_session):
    """The lookup side is a table keyed by ``key``: a repeat is an error,
    not a silent row multiplication."""
    from borges_ray.ops.relational import attach_or_filter

    fact = pd.DataFrame({"k": [1, 2], "x": [10, 20]})
    dim = pd.DataFrame({"k": [1, 1], "name": ["a", "b"]})
    with pytest.raises(ValueError, match="repeats"):
        attach_or_filter(rd.from_pandas(fact), rd.from_pandas(dim), "k",
                         {"k": {"name": "name"}}, "inner")


def test_salted_hash_join_skew(ray_session):
    """Salted join on an adversarial hot key (J1 skew handling): results
    equal pandas ground truth for inner and left_outer, the hot key is
    detected by the keys-only combiner pass, and the salted shuffle splits
    the hot key across multiple co-location buckets (no single merge task
    holds the whole key)."""
    from borges_ray.ops.relational import groupby_buckets, hash_join, hot_keys

    rng = np.random.default_rng(7)
    n_hot, n_cold = 20_000, 2_000
    left = pd.DataFrame({
        "k": np.concatenate([np.zeros(n_hot, dtype=np.int64),
                             rng.integers(1, 101, n_cold)]),
        "v": np.arange(n_hot + n_cold, dtype=np.int64)})
    right = pd.DataFrame({"k": np.arange(0, 101, dtype=np.int64),
                          "w": np.arange(0, 101, dtype=np.int64) * 10})
    lds = rd.from_pandas(left).repartition(8)
    rds = rd.from_pandas(right).repartition(2)

    hk = hot_keys(lds, ["k"], 5_000)
    assert hk["k"].tolist() == [0] and int(hk["__n"].iloc[0]) == n_hot

    out = (hash_join(lds, rds, on=["k"], hot_key_threshold=5_000,
                     salt_buckets=8)
           .to_pandas().sort_values(["k", "v"]).reset_index(drop=True))
    exp = (left.merge(right, on="k", how="inner")
           .sort_values(["k", "v"]).reset_index(drop=True))
    pd.testing.assert_frame_equal(out[exp.columns.tolist()], exp)

    # left_outer with unmatched hot+cold left rows: exactly one row per
    # left row, no per-salt duplicates from the replicated right side
    right_odd = right[right.k % 2 == 1]
    out2 = (hash_join(lds, rd.from_pandas(right_odd).repartition(2),
                      on=["k"], join_type="left_outer",
                      hot_key_threshold=5_000, salt_buckets=8)
            .to_pandas().sort_values(["k", "v"]).reset_index(drop=True))
    exp2 = (left.merge(right_odd, on="k", how="left")
            .sort_values(["k", "v"]).reset_index(drop=True))
    assert len(out2) == len(left)
    pd.testing.assert_frame_equal(
        out2[exp2.columns.tolist()].astype({"w": "Int64"}),
        exp2.astype({"w": "Int64"}))

    # the salted shuffle splits the hot key: bucket on (k, salt) and count
    # the hot key's rows per (key, salt) GROUP — each merge call handles one
    # group's worth of the hot key, which must be ~n_hot/salt_buckets
    salted = left.copy()
    salted["__salt"] = np.where(salted.k.eq(0),
                                np.arange(len(salted)) % 8, 0).astype(np.int64)
    per_group = groupby_buckets(
        rd.from_pandas(salted).repartition(8), ["k", "__salt"],
        lambda df: (df[df.k == 0].groupby("__salt").size()
                    .rename("hot_rows").reset_index()),
        n_buckets=16).to_pandas()
    assert per_group["hot_rows"].max() <= n_hot // 8 + 8

    with pytest.raises(ValueError):
        hash_join(lds, rds, on=["k"], join_type="full_outer",
                  hot_key_threshold=10)


def test_sliding_and_running_windows(ray_session):
    """sliding_window_agg: every event in exactly window/hop windows,
    counts match a brute-force expansion; running_agg matches pandas
    expanding aggregates."""
    from borges_ray.ops.relational import running_agg, sliding_window_agg

    rng = np.random.default_rng(3)
    n = 4_000
    df = pd.DataFrame({
        "k": rng.integers(0, 5, n),
        "ts": pd.to_datetime(rng.integers(0, 10**10, n) * 1000, unit="us"),
        "eid": np.arange(n, dtype=np.int64),
        "v": rng.normal(size=n)})
    ds = rd.from_pandas(df).repartition(6)

    W, H = 4_000_000_000, 1_000_000_000  # 4 windows per event
    got = (sliding_window_agg(ds, "k", "ts", W, H,
                              {"n": ("count", "eid")})
           .to_pandas().sort_values(["k", "window_start"]).reset_index(drop=True))
    assert got["n"].sum() == 4 * n
    ts = df["ts"].astype("int64")
    rows = []
    for i in range(4):
        rows.append(pd.DataFrame({"k": df["k"], "window_start": (ts // H - i) * H}))
    exp = (pd.concat(rows).groupby(["k", "window_start"]).size().rename("n")
           .reset_index().sort_values(["k", "window_start"]).reset_index(drop=True))
    pd.testing.assert_frame_equal(got.astype(exp.dtypes), exp)

    run = (running_agg(ds, "k", "ts",
                       {"row_n": ("row_number", ""), "run_max": ("cummax", "v")},
                       tiebreak=["eid"])
           .to_pandas().sort_values("eid").reset_index(drop=True))
    sdf = df.sort_values(["k", "ts", "eid"], kind="mergesort")
    sdf = sdf.assign(row_n=sdf.groupby("k", sort=False).cumcount() + 1,
                     run_max=sdf.groupby("k", sort=False)["v"].cummax())
    exp2 = sdf.sort_values("eid").reset_index(drop=True)
    pd.testing.assert_frame_equal(run[["eid", "row_n", "run_max"]],
                                  exp2[["eid", "row_n", "run_max"]])

    with pytest.raises(ValueError):
        sliding_window_agg(ds, "k", "ts", W, 3_000_000_000, {"n": ("count", "eid")})


def test_asof_topk_quantile_ops(ray_session):
    """asof_join matches a per-row brute-force as-of lookup (inner + left,
    incl. keys with no right rows); topk_per_group matches pandas; the
    discrete grouped_quantile implements sorted[ceil(q*n)-1] exactly."""
    from borges_ray.ops.relational import (asof_join, grouped_quantile,
                                           topk_per_group)

    rng = np.random.default_rng(11)
    n = 3_000
    left = pd.DataFrame({
        "k": rng.integers(0, 8, n),          # key 7 has no right rows
        "lts": rng.integers(0, 1000, n).astype("int64"),
        "lid": np.arange(n, dtype=np.int64)})
    right = (pd.DataFrame({
        "k": rng.integers(0, 7, 300),
        "rts": rng.integers(0, 1000, 300).astype("int64")})
        .drop_duplicates(["k", "rts"]).reset_index(drop=True))
    right["rv"] = np.arange(len(right), dtype=np.int64)

    def brute(row):
        cand = right[(right.k == row.k) & (right.rts <= row.lts)]
        if cand.empty:
            return pd.NA
        return cand.loc[cand.rts.idxmax(), "rv"]

    exp_rv = left.apply(brute, axis=1)
    lds = rd.from_pandas(left).repartition(5)
    rds = rd.from_pandas(right).repartition(3)

    inner = (asof_join(lds, rds, "k", "lts", "rts", how="inner")
             .to_pandas().sort_values("lid").reset_index(drop=True))
    exp_inner = left.assign(rv=exp_rv).dropna(subset=["rv"]).reset_index(drop=True)
    assert inner["lid"].tolist() == exp_inner["lid"].tolist()
    assert inner["rv"].astype("int64").tolist() == exp_inner["rv"].astype("int64").tolist()

    louter = (asof_join(lds, rds, "k", "lts", "rts", how="left")
              .to_pandas().sort_values("lid").reset_index(drop=True))
    assert len(louter) == n
    assert louter["rv"].astype("Int64").equals(exp_rv.astype("Int64"))

    # topk per group vs pandas
    df = pd.DataFrame({"g": rng.integers(0, 20, 500),
                       "x": rng.integers(0, 100, 500).astype("int64"),
                       "id": np.arange(500, dtype=np.int64)})
    got = (topk_per_group(rd.from_pandas(df).repartition(4), "g",
                          ["x", "id"], 3, descending=[True, False])
           .to_pandas().sort_values(["g", "id"]).reset_index(drop=True))
    exp = (df.sort_values(["x", "id"], ascending=[False, True], kind="mergesort")
           .groupby("g", sort=False).head(3)
           .sort_values(["g", "id"]).reset_index(drop=True))
    pd.testing.assert_frame_equal(got[["g", "x", "id"]], exp[["g", "x", "id"]])

    # discrete quantile rule
    qd = pd.DataFrame({"g": np.repeat([0, 1], [7, 4]),
                       "v": np.r_[np.arange(7), np.arange(4)].astype("float64")})
    got_q = (grouped_quantile(rd.from_pandas(qd), "g", "v", [0.25, 0.5, 0.75])
             .to_pandas().sort_values("g").reset_index(drop=True))
    # n=7: ceil(.25*7)-1=1, ceil(.5*7)-1=3, ceil(.75*7)-1=5 ; n=4: 0,1,2
    assert got_q.loc[0, ["q25", "q50", "q75"]].tolist() == [1.0, 3.0, 5.0]
    assert got_q.loc[1, ["q25", "q50", "q75"]].tolist() == [0.0, 1.0, 2.0]

    with pytest.raises(ValueError):
        asof_join(lds, rd.from_pandas(right.rename(columns={"rv": "lid"})),
                  "k", "lts", "rts")


def test_token_index_search_prunes_partitions(ray_session, tmp_path):
    """Conjunctive search over the hive-partitioned inverted index reads
    only the query terms' tp= dirs (bytes_read < bytes_total), matches a
    brute-force AND, and an absent term yields zero rows."""
    import ray.data as rd

    from borges_ray.ops.index import build_token_index, search_all_terms

    rng = np.random.default_rng(3)
    vocab = [f"t{i}" for i in range(40)]
    texts = [" ".join(vocab[j] for j in rng.integers(0, 40, 25))
             for _ in range(300)]
    df = pd.DataFrame({"doc_id": np.arange(300, dtype=np.int64), "text": texts})
    idx = str(tmp_path / "idx")
    build_token_index(rd.from_pandas(df).repartition(4), idx, num_parts=16)

    terms = ["t1", "t7"]
    out, stats = search_all_terms(idx, terms, num_parts=16)
    got = sorted(out.to_pandas()["doc_id"])
    want = sorted(int(i) for i, t in zip(df.doc_id, df.text)
                  if all(w in t.split() for w in terms))
    assert got == want and len(want) > 0
    assert stats["partitions_read"] <= 2 < stats["partitions_total"]
    assert 0 < stats["bytes_read"] < stats["bytes_total"]

    # duplicate terms in the query collapse; an absent term empties the AND
    out2, _ = search_all_terms(idx, ["t1", "t1", "t7"], num_parts=16)
    assert sorted(out2.to_pandas()["doc_id"]) == want
    out3, _ = search_all_terms(idx, ["t1", "zzz-absent"], num_parts=16)
    assert len(out3.to_pandas()) == 0


def test_minhash_hot_bucket_cap_keeps_cluster_connected(ray_session):
    """Adversarial boilerplate: 2000 IDENTICAL docs share every band hash.
    Uncapped that is ~2M pairs from one bucket; with a small cap the spawn
    emits capped all-pairs + a connectivity chain, so the survivors path
    still collapses the whole cluster to its min id."""
    from borges_ray.ops.dedup import (
        dedup_survivors_ds,
        minhash_near_dup_pairs_ds,
    )

    n = 2000
    same = "the same boilerplate page text repeated verbatim everywhere"
    df = pd.DataFrame({
        "doc_id": np.arange(n + 3, dtype=np.int64),
        "text": [same] * n + ["unique alpha beta", "unique gamma delta",
                              "unique epsilon zeta"],
    })
    ds = rd.from_pandas(df).repartition(8)
    pairs = minhash_near_dup_pairs_ds(ds, "doc_id", threshold=0.9,
                                      max_bucket=16)
    n_pairs = pairs.count()
    # far below the ~2M uncapped spawn; at least the chain survived verify
    assert (n - 1) <= n_pairs < 20_000, n_pairs
    surv = dedup_survivors_ds(
        rd.from_pandas(df[["doc_id"]]).repartition(4), pairs, "doc_id"
    ).to_pandas()
    # exactly: min id of the identical cluster + the three unique docs
    assert sorted(surv["doc_id"]) == [0, n, n + 1, n + 2]


def test_near_dup_zero_pairs_corpus(ray_session):
    """A corpus with NO near-dups flows through the whole Dataset chain —
    empty pair blocks, empty CC labels — and survivors == the full corpus."""
    from borges_ray.ops.dedup import (
        dedup_survivors_ds,
        minhash_near_dup_pairs_ds,
        near_dup_labels_ds,
    )

    df = pd.DataFrame({"doc_id": np.arange(40, dtype=np.int64),
                       "text": [" ".join(f"w{i}x{j}" for j in range(30))
                                for i in range(40)]})
    ds = rd.from_pandas(df).repartition(6)
    assert minhash_near_dup_pairs_ds(ds, "doc_id", threshold=0.5).count() == 0
    assert near_dup_labels_ds(
        minhash_near_dup_pairs_ds(ds, "doc_id", threshold=0.5)).count() == 0
    surv = dedup_survivors_ds(
        rd.from_pandas(df[["doc_id"]]).repartition(3),
        minhash_near_dup_pairs_ds(ds, "doc_id", threshold=0.5), "doc_id")
    assert sorted(surv.to_pandas()["doc_id"]) == list(range(40))


def test_feat_spill_pruned_reads(docs):
    """The featurize spill re-reads are COLUMN-PRUNED: the banding read
    carries only (id, __sig), the verify read only (id, __blob, __nsh) —
    the blob payload never transits the banding stage (the 1M-doc
    measurement where dragging it cost ~200 s of the spawn stage)."""
    from borges_ray.ops.dedup import _pruned_spill_read, minhash_feat_spill

    df, ds = docs
    files, fb = minhash_feat_spill(ds, "doc_id")
    assert files and fb is None
    sig = _pruned_spill_read(files, ["doc_id", "__sig"], fb)
    blob = _pruned_spill_read(files, ["doc_id", "__blob", "__nsh"], fb)
    assert set(sig.schema().names) == {"doc_id", "__sig"}
    assert set(blob.schema().names) == {"doc_id", "__blob", "__nsh"}
    assert sig.count() == len(df) and blob.count() == len(df)
    # empty corpus: nothing written -> fallback plan, still pruned
    empty = rd.from_pandas(pd.DataFrame({"doc_id": pd.Series(dtype="int64"),
                                         "text": pd.Series(dtype="object")}))
    f2, fb2 = minhash_feat_spill(empty, "doc_id")
    assert f2 == [] and fb2 is not None
    out = _pruned_spill_read(f2, ["doc_id", "__sig"], fb2)
    assert out.count() == 0
    sch = out.schema()
    assert sch is None or set(sch.names) == {"doc_id", "__sig"}


def test_cogroup_spill_inner_and_outer(ray_session):
    """Direct cogroup_spill contract: inner (require_both) drops buckets
    missing a side; require_both=False feeds typed empties for one-sided
    buckets; bucket fan-out is a complete partition (every key pair meets
    exactly once); empty inputs return the typed ``empty`` template."""
    from borges_ray.ops.relational import cogroup_spill

    l = pd.DataFrame({"k": np.arange(50, dtype=np.int64),
                      "x": np.arange(50, dtype=np.int64) * 2})
    # right covers only even keys; adds an extra key 999 unseen on the left
    r = pd.DataFrame({"k": np.concatenate([np.arange(0, 50, 2), [999]]).astype(np.int64),
                      "y": np.concatenate([np.arange(0, 50, 2), [999]]).astype(np.int64) + 7})
    empty = pd.DataFrame({"k": pd.Series(dtype="int64"),
                          "x": pd.Series(dtype="float64"),
                          "y": pd.Series(dtype="float64")})

    def join(ldf, rdf):
        m = ldf.merge(rdf, on="k", how="outer")
        return m[["k", "x", "y"]]

    out = cogroup_spill(rd.from_pandas(l).repartition(4),
                        rd.from_pandas(r).repartition(3),
                        "k", "k", join, empty=empty, tag="t_cg",
                        n_buckets=7).to_pandas().sort_values("k")
    # inner buckets: only keys whose bucket exists on BOTH sides appear, and
    # every shared key appears exactly once with both payloads
    both = out[out["x"].notna() & out["y"].notna()]
    assert sorted(both["k"]) == list(range(0, 50, 2))
    assert (both["y"].to_numpy() == both["k"].to_numpy() + 7).all()
    assert not out["k"].duplicated().any()

    outer = cogroup_spill(rd.from_pandas(l).repartition(4),
                          rd.from_pandas(r).repartition(3),
                          "k", "k", join, empty=empty, tag="t_cg2",
                          n_buckets=7, require_both=False
                          ).to_pandas().sort_values("k")
    assert sorted(outer["k"]) == sorted(list(range(50)) + [999])
    assert outer.loc[outer["k"] == 999, "x"].isna().all()

    # both sides empty -> the typed template comes back (schema asserted on
    # the Dataset: Ray's to_pandas drops columns of a 0-row result)
    e = cogroup_spill(rd.from_pandas(l.iloc[:0]), rd.from_pandas(r.iloc[:0]),
                      "k", "k", join, empty=empty, tag="t_cg3")
    assert e.count() == 0 and list(e.schema().names) == ["k", "x", "y"]


def test_lm_perplexity(ray_session):
    """Bigram-LM self-perplexity: engine matches a hand-rolled reference
    LM (add-one smoothing, V = distinct bigram heads) on a tiny corpus,
    repeated text scores lower perplexity than novel text, and <2-token
    docs drop out."""
    from collections import Counter

    from borges_ray.ops.lm import lm_perplexity

    texts = {
        0: "the cat sat on the mat",
        1: "the cat sat on the mat",        # same bigrams as doc 0
        2: "purple elephant quantum zebra", # all-rare bigrams
        3: "the cat sat on the mat the cat sat on the mat",
        4: "single",                        # no bigram -> dropped
        5: "",                              # empty -> dropped
    }
    df = pd.DataFrame({"doc_id": list(texts), "text": list(texts.values())})
    out = (lm_perplexity(rd.from_pandas(df).repartition(3))
           .to_pandas().set_index("doc_id").sort_index())

    # reference LM computed in plain python
    toks = {i: t.lower().split() for i, t in texts.items()}
    big = {i: list(zip(w[:-1], w[1:])) for i, w in toks.items()}
    c12 = Counter(b for bs in big.values() for b in bs)
    c1 = Counter()
    for (w1, _), c in c12.items():
        c1[w1] += c
    V = len(c1)
    import math
    for i, bs in big.items():
        if not bs:
            assert i not in out.index
            continue
        s = sum(math.log((c12[b] + 1) / (c1[b[0]] + V)) for b in bs)
        assert out.loc[i, "n_bigrams"] == len(bs)
        assert out.loc[i, "ppl"] == pytest.approx(
            round(math.exp(-s / len(bs)), 4), abs=1e-4)
    # identical docs score identically; common text beats rare text
    assert out.loc[0, "ppl"] == out.loc[1, "ppl"]
    assert out.loc[0, "ppl"] < out.loc[2, "ppl"]


def test_lm_auto_buckets_unknown_size_keeps_32(ray_session):
    """Auto-sized lm_perplexity buckets: an unknown input size (None or a
    raising ``size_bytes``) falls back to 32 buckets; a known small size
    still gets the minimum of 8."""
    from borges_ray.ops.lm import _auto_buckets

    class Unknown:
        def size_bytes(self):
            return None

    class Raises:
        def size_bytes(self):
            raise RuntimeError("size not available")

    assert _auto_buckets(Unknown()) == 32
    assert _auto_buckets(Raises()) == 32
    small = rd.from_pandas(pd.DataFrame({"doc_id": [1, 2], "text": ["a b", "c d"]}))
    assert small.size_bytes() is not None
    assert _auto_buckets(small) == 8


def test_kmeans_lloyd(ray_session):
    """Lloyd k-means on three well-separated blobs: every blob lands in
    one cluster, blobs get distinct labels, and the labelling is
    invariant to block layout (determinism across repartition)."""
    from borges_ray.ops.embed import kmeans_lloyd

    rng = np.random.default_rng(7)
    blobs = [rng.normal(c, 0.05, size=(40, 8)) for c in (0.0, 5.0, -5.0)]
    m = np.vstack(blobs)
    df = pd.DataFrame({"vec_id": np.arange(len(m)),
                       "embedding": [r.astype(np.float32) for r in m]})

    out = (kmeans_lloyd(rd.from_pandas(df).repartition(5), k=3, iters=3)
           .to_pandas().sort_values("vec_id").reset_index(drop=True))
    labels = out["cluster"].to_numpy()
    groups = [set(labels[i * 40:(i + 1) * 40]) for i in range(3)]
    assert all(len(g) == 1 for g in groups)          # blob = one cluster
    assert len(set.union(*groups)) == 3              # distinct labels

    out2 = (kmeans_lloyd(rd.from_pandas(df).repartition(2), k=3, iters=3)
            .to_pandas().sort_values("vec_id").reset_index(drop=True))
    assert (out2["cluster"].to_numpy() == labels).all()


def test_interval_join_agg(ray_session):
    """Range-join aggregate vs a brute-force O(n^2) reference on a small
    event log with one hot user, boundary-exact semantics
    ([ts+lo, ts+hi)), and zero-match left rows preserved."""
    from borges_ray.ops.relational import interval_join_agg

    rng = np.random.default_rng(11)
    base = pd.Timestamp("2024-06-01")
    n = 400
    ev = pd.DataFrame({
        "event_id": np.arange(n, dtype=np.int64),
        # user 0 is hot: half of all events
        "user_id": np.where(rng.random(n) < 0.5, 0,
                            rng.integers(1, 8, n)).astype(np.int64),
        "ts": base + pd.to_timedelta(rng.integers(0, 7200, n), unit="s"),
        "value": np.round(rng.random(n) * 10, 3),
    })
    # exact boundary probes on user 9: right rows AT lo (in) and AT hi (out)
    probes = pd.DataFrame({
        "event_id": [1000, 1001, 1002],
        "user_id": [9, 9, 9],
        "ts": [base, base - pd.Timedelta(minutes=30),
               base + pd.Timedelta(minutes=30)],
        "value": [1.0, 2.0, 4.0],
    })
    left = pd.concat([ev.iloc[:150], probes.iloc[:1]], ignore_index=True)
    right = pd.concat([ev.iloc[150:], probes.iloc[1:]], ignore_index=True)

    lo, hi = pd.Timedelta(minutes=-30), pd.Timedelta(0)
    out = interval_join_agg(
        rd.from_pandas(left).repartition(3),
        rd.from_pandas(right).repartition(4),
        "user_id", left_id="event_id", left_ts="ts", right_ts="ts",
        lo=lo, hi=hi, value_col="value", n_buckets=5,
    ).to_pandas().set_index("event_id").sort_index()

    assert len(out) == len(left)            # left-outer: every left row
    for _, lrow in left.iterrows():
        w = right[(right.user_id == lrow.user_id)
                  & (right.ts >= lrow.ts + lo) & (right.ts < lrow.ts + hi)]
        assert out.loc[lrow.event_id, "n_right"] == len(w)
        assert out.loc[lrow.event_id, "sum_val"] == pytest.approx(
            w.value.sum(), abs=1e-9)
    # boundary: the row exactly at ts-30min is IN, the one at ts is OUT
    assert out.loc[1000, "n_right"] == 1
    assert out.loc[1000, "sum_val"] == pytest.approx(2.0)


def test_dsir_log_weights(ray_session):
    """DSIR weights vs a brute-force bucket-distribution reference:
    docs written in the target dialect score higher than off-target
    docs, and every weight matches the reference to 4 dp."""
    import hashlib
    import math
    from collections import Counter

    from borges_ray.ops.lm import dsir_log_weights

    tgt_vocab = "alpha beta gamma delta".split()
    raw_vocab = "omega psi chi phi".split()
    rng = np.random.default_rng(3)
    docs = []
    for i in range(30):
        v = tgt_vocab if i < 15 else raw_vocab
        docs.append((" ".join(rng.choice(v, 20)), i < 15))
    df = pd.DataFrame({"doc_id": range(30),
                       "text": [d for d, _ in docs],
                       "is_target": [t for _, t in docs]})

    out = (dsir_log_weights(rd.from_pandas(df).repartition(4), dim=64)
           .to_pandas().set_index("doc_id").sort_index())

    # brute-force reference
    dim = 64
    bkt = lambda t: int(hashlib.md5(t.encode()).hexdigest()[:8], 16) % dim
    raw, tgt = Counter(), Counter()
    for text, is_t in docs:
        for t in text.lower().split():
            raw[bkt(t)] += 1
            if is_t:
                tgt[bkt(t)] += 1
    t_raw, t_tgt = sum(raw.values()), sum(tgt.values())
    for i, (text, _) in enumerate(docs):
        ks = Counter(bkt(t) for t in text.lower().split())
        s = sum(k * (math.log((tgt[b] + 1) / (t_tgt + dim))
                     - math.log((raw[b] + 1) / (t_raw + dim)))
                for b, k in ks.items())
        assert out.loc[i, "lw"] == pytest.approx(
            round(s / sum(ks.values()), 4), abs=1e-4)
    assert out.loc[:14, "lw"].min() > out.loc[15:, "lw"].max()


def test_lm_perplexity_hot_head(ray_session):
    """Adversarial Zipf head: one token heads ~half of all bigrams, so
    one hash bucket holds O(corpus/2) rows across many spill files — the
    streamed fold must still produce exact counts (verified against the
    same hand LM as the base test)."""
    import math
    from collections import Counter

    from borges_ray.ops.lm import lm_perplexity

    rng = np.random.default_rng(13)
    vocab = ["the"] + [f"w{i}" for i in range(50)]
    texts = []
    for i in range(300):
        # ~every other token is "the" -> "the" heads ~half the bigrams
        words = []
        for j in range(60):
            words.append("the" if j % 2 == 0
                         else vocab[1 + rng.integers(0, 50)])
        texts.append(" ".join(words))
    df = pd.DataFrame({"doc_id": range(300), "text": texts})

    out = (lm_perplexity(rd.from_pandas(df).repartition(16), n_buckets=4)
           .to_pandas().set_index("doc_id").sort_index())

    toks = {i: t.split() for i, t in enumerate(texts)}
    big = {i: list(zip(w[:-1], w[1:])) for i, w in toks.items()}
    c12 = Counter(b for bs in big.values() for b in bs)
    c1 = Counter()
    for (w1, _), c in c12.items():
        c1[w1] += c
    V = len(c1)
    for i in (0, 113, 299):
        bs = big[i]
        s = sum(math.log((c12[b] + 1) / (c1[b[0]] + V)) for b in bs)
        assert out.loc[i, "ppl"] == pytest.approx(
            round(math.exp(-s / len(bs)), 4), abs=1e-4)
    assert len(out) == 300


def test_pagerank(ray_session):
    """Fixed-iteration PageRank vs a dense numpy reference on a small
    multigraph with a dangling node, an in-linkless node, and a
    duplicated edge (multiplicity counts)."""
    from borges_ray.ops.graph import pagerank

    # a->b, a->b (double), a->c, b->c, c->a, d->a ; e is a pure sink
    # reached from c; "lonely" has out-edges but no in-links
    E = [("a", "b"), ("a", "b"), ("a", "c"), ("b", "c"), ("c", "a"),
         ("d", "a"), ("c", "e"), ("lonely", "a")]
    df = pd.DataFrame(E, columns=["src", "dst"])

    out = (pagerank(rd.from_pandas(df).repartition(3), iters=3,
                    damping=0.85, round_to=6, n_buckets=4)
           .to_pandas().set_index("node")["rank"])

    nodes = sorted(set(df.src) | set(df.dst))
    idx = {n: i for i, n in enumerate(nodes)}
    N = len(nodes)
    deg = df.groupby("src").size()
    r = np.full(N, 1.0 / N)
    for _ in range(3):
        nxt = np.full(N, 0.15 / N)
        for s, d in E:
            nxt[idx[d]] += 0.85 * r[idx[s]] / deg[s]
        r = nxt
    for n in nodes:
        assert out[n] == pytest.approx(round(r[idx[n]], 6), abs=1e-6)
    assert len(out) == N
    # in-linkless node holds exactly the teleport mass
    assert out["lonely"] == pytest.approx(round(0.15 / N, 6), abs=1e-6)


def test_anchor_stats_topk_and_skew(ray_session):
    """anchor_stats: top_anchor is the most frequent anchor with
    lexicographic tie-break; a hot target with many duplicate anchors
    reduces to distinct-pair rows in the exchange."""
    import pandas as pd
    import ray.data as rd

    from borges_ray.ops.graph import anchor_stats

    links = pd.DataFrame({
        "target": [1] * 6 + [2] * 3,
        "anchor": ["nav", "nav", "home", "home", "about", "zz",
                   "b", "a", "a"],
    })
    out = (anchor_stats(rd.from_pandas(links))
           .to_pandas().sort_values("target").reset_index(drop=True))
    assert out.loc[0, "n_links"] == 6
    assert out.loc[0, "n_distinct_anchors"] == 4
    assert out.loc[0, "top_anchor"] == "home"  # tie nav/home -> lexicographic
    assert out.loc[1, "n_links"] == 3
    assert out.loc[1, "top_anchor"] == "a"


def test_hits_matches_dense_reference(ray_session):
    """Bucketed HITS equals the dense numpy power iteration (L1 norm)
    exactly after rounding, including multi-edge multiplicity and nodes
    with no in/out links."""
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from borges_ray.ops.graph import hits

    rng = np.random.RandomState(7)
    E = pd.DataFrame({"src": [f"n{i}" for i in rng.randint(0, 30, 200)],
                      "dst": [f"n{i}" for i in rng.randint(0, 30, 200)]})
    out = (hits(rd.from_pandas(E), iters=3, n_buckets=4)
           .to_pandas().sort_values("node").reset_index(drop=True))

    nodes = sorted(set(E["src"]) | set(E["dst"]))
    idx = {n: i for i, n in enumerate(nodes)}
    A = np.zeros((len(nodes), len(nodes)))
    for s, d in zip(E["src"], E["dst"]):
        A[idx[s], idx[d]] += 1
    h = np.full(len(nodes), 1.0 / len(nodes))
    for _ in range(3):
        a = A.T @ h
        a = a / a.sum()
        h = A @ a
        h = h / h.sum()
    ref = pd.DataFrame({"node": nodes, "hub": h.round(6),
                        "authority": a.round(6)}
                       ).sort_values("node").reset_index(drop=True)
    m = out.merge(ref, on="node", suffixes=("", "_ref"))
    assert len(m) == len(nodes) == len(out)
    assert (m["hub"] - m["hub_ref"]).abs().max() <= 1e-9
    assert (m["authority"] - m["authority_ref"]).abs().max() <= 1e-9


def test_crawl_budget_largest_remainder(ray_session):
    """crawl_budget_alloc equals a driver-side largest-remainder
    reference: exact-integer apportionment, remainder top-up order
    (rem desc, host asc), per-host fill by (pr desc, url asc)."""
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from borges_ray.ops.sched import crawl_budget_alloc

    rng = np.random.RandomState(11)
    cand = pd.DataFrame({
        "url": np.arange(500, dtype=np.int64),
        "host": rng.randint(0, 13, 500).astype(np.int64),
        "pr": rng.randint(0, 1000, 500).astype(np.int64),
    })
    B = 37
    out = (crawl_budget_alloc(rd.from_pandas(cand), budget=B)
           .to_pandas().sort_values("url").reset_index(drop=True))

    hs = cand.groupby("host")["pr"].sum().rename("w").reset_index()
    W = int(hs["w"].sum())
    hs["nfloor"] = (B * hs["w"]) // W
    hs["rem"] = (B * hs["w"]) % W
    k = B - int(hs["nfloor"].sum())
    hs = hs.sort_values(["rem", "host"], ascending=[False, True])
    hs["n"] = hs["nfloor"] + np.where(np.arange(len(hs)) < k, 1, 0)
    picks = []
    for h, n in zip(hs["host"], hs["n"]):
        rows = cand[cand["host"] == h].sort_values(
            ["pr", "url"], ascending=[False, True]).head(int(n))
        picks.append(rows)
    ref = (pd.concat(picks)[["url", "host", "pr"]]
           .sort_values("url").reset_index(drop=True))

    assert len(out) <= B
    pd.testing.assert_frame_equal(out, ref)


def test_minhash_incremental_admission(ray_session):
    """Incremental snapshot admission: a new doc near-duplicating an OLD
    doc is dropped; new docs that only duplicate EACH OTHER both survive
    (within-snapshot dedup is the batch path's job); unique docs pass."""
    import pandas as pd
    import ray.data as rd

    from borges_ray.ops.dedup import minhash_dedup_incremental_ds

    base = ("the quick brown fox jumps over the lazy dog and then runs "
            "far away into the deep dark forest tonight")
    other = ("completely different words describing an entirely other "
             "topic with zero overlapping shingle content whatsoever here")
    old = pd.DataFrame({"doc_id": [0, 2],
                        "text": [base, "unrelated ancient corpus text "
                                 "about maritime navigation routes"]})
    new = pd.DataFrame({
        "doc_id": [1, 3, 5, 7],
        "text": [base + " extra",      # near-dup of old doc 0 -> dropped
                 other,                # near-dup only of new doc 5 -> kept
                 other + " tail",      # near-dup only of new doc 3 -> kept
                 "a lone genuinely novel document with its own words"],
    })
    out = (minhash_dedup_incremental_ds(rd.from_pandas(old),
                                        rd.from_pandas(new), "doc_id")
           .to_pandas())
    assert sorted(out["doc_id"]) == [3, 5, 7]

    # an empty accepted corpus admits everything
    empty = rd.from_pandas(pd.DataFrame({"doc_id": pd.Series(dtype="int64"),
                                         "text": pd.Series(dtype="object")}))
    all_in = (minhash_dedup_incremental_ds(empty, rd.from_pandas(new),
                                           "doc_id").to_pandas())
    assert sorted(all_in["doc_id"]) == [1, 3, 5, 7]


def test_top_frac_per_group_exact_quota(ray_session):
    """top_frac_per_group keeps exactly ceil(num/den * n) rows per group
    with a deterministic (score desc, tiebreak asc) cut."""
    import pandas as pd
    import ray.data as rd

    from borges_ray.ops.relational import top_frac_per_group

    df = pd.DataFrame({
        "g": ["a"] * 7 + ["b"] * 3 + ["c"] * 1,
        "score": [5, 5, 4, 3, 2, 1, 0,   9, 9, 9,   2],
        "id": list(range(11)),
    })
    out = (top_frac_per_group(rd.from_pandas(df), ["g"], "score", "id",
                              num=3, den=10)
           .to_pandas().sort_values("id").reset_index(drop=True))
    # quotas: a -> ceil(21/10)=3, b -> ceil(9/10)=1, c -> ceil(3/10)=1
    assert out[out["g"] == "a"]["id"].tolist() == [0, 1, 2]  # tie 5/5 -> ids
    assert out[out["g"] == "b"]["id"].tolist() == [7]        # tie 9s -> id 7
    assert out[out["g"] == "c"]["id"].tolist() == [10]


def test_line_filter_rules_and_rebuild(ray_session):
    from borges_ray.ops.textops import line_filter

    # doc 1: line0 diverse+clean, line1 blocklisted, line2 diverse+clean
    # doc 2: only one clean line -> dropped by the min_lines gate
    # doc 3: all lines too repetitive -> dropped
    l_ok1 = "a b c d e f g h i j"
    l_block = "a b c d e f g h i slow"
    l_ok2 = "k l m n o p q r s t"
    l_rep = "a a a b b b c c c c"
    df = pd.DataFrame({
        "doc_id": [1, 2, 3],
        "text": [" ".join([l_ok1, l_block, l_ok2]),
                 " ".join([l_ok1, l_rep]),
                 " ".join([l_rep, l_rep])],
    })
    out = (line_filter(rd.from_pandas(df), width=10, min_distinct=6,
                       blocklist=("slow",), min_lines=2)
           .to_pandas().sort_values("doc_id", ignore_index=True))
    assert out["doc_id"].tolist() == [1]
    assert out["n_lines_kept"].tolist() == [2]
    # rebuilt in original line order, blocklisted line gone
    assert out["text"].tolist() == [l_ok1 + " " + l_ok2]
    # a short final line (< width tokens) still counts if it passes
    df2 = pd.DataFrame({"doc_id": [4], "text": [l_ok1 + " u v w x y z"]})
    out2 = line_filter(rd.from_pandas(df2), width=10, min_distinct=6,
                       blocklist=("slow",), min_lines=2).to_pandas()
    assert out2["n_lines_kept"].tolist() == [2]


def test_dup_cluster_size_hist(docs):
    from borges_ray.ops.dedup import dup_cluster_size_hist

    df, ds = docs
    # chain 0-100 exact dup (jaccard 1.0) and 1-101 near dup: two 2-clusters
    pairs = rd.from_pandas(pd.DataFrame(
        {"id_a": [0, 1], "id_b": [100, 101]}))
    hist = dup_cluster_size_hist(ds.select_columns(["doc_id"]), pairs)
    assert hist["cluster_size"].tolist() == [1, 2]
    # 62 docs total, 4 in the two pair clusters
    assert hist["n_clusters"].tolist() == [58, 2]
    assert hist["cluster_size"].dtype == np.int64
    # transitive chain a-b, b-c collapses to ONE 3-cluster
    tri = rd.from_pandas(pd.DataFrame({"id_a": [0, 100], "id_b": [100, 101]}))
    hist3 = dup_cluster_size_hist(ds.select_columns(["doc_id"]), tri)
    assert hist3.set_index("cluster_size")["n_clusters"].to_dict() == {1: 59, 3: 1}


def test_bigram_pmi_exact_reference(ray_session):
    import collections
    import math

    from borges_ray.ops.lm import bigram_pmi

    rng = np.random.default_rng(11)
    vocab = "aa bb cc dd ee".split()
    texts = []
    for i in range(40):
        toks = [vocab[j] for j in rng.integers(0, len(vocab), 25)]
        # plant a strong collocation
        if i % 2 == 0:
            toks[3:5] = ["new", "york"]
        texts.append(" ".join(toks))
    df = pd.DataFrame({"doc_id": range(len(texts)), "text": texts})

    out = bigram_pmi(rd.from_pandas(df), min_count=2, k=10)

    # pure-python reference
    big = collections.Counter()
    for t in texts:
        toks = t.lower().split()
        big.update(zip(toks, toks[1:]))
    heads = collections.Counter()
    tails = collections.Counter()
    for (w1, w2), c in big.items():
        heads[w1] += c
        tails[w2] += c
    n = sum(big.values())
    rows = [(w1, w2, c, round(math.log(c * n / (heads[w1] * tails[w2])), 4))
            for (w1, w2), c in big.items() if c >= 2]
    rows.sort(key=lambda r: (-r[3], r[0], r[1]))
    exp = pd.DataFrame(rows[:10], columns=["w1", "w2", "c12", "pmi"])
    pd.testing.assert_frame_equal(out.reset_index(drop=True), exp,
                                  check_dtype=False)
    # the planted collocation dominates
    assert out.iloc[0][["w1", "w2"]].tolist() == ["new", "york"]


def test_normalized_dedup_collapses_variants(ray_session):
    from borges_ray.ops.textops import normalize_text, normalized_dedup

    # normalization semantics: case, digits, punctuation, whitespace
    s = pd.Series(["Hello, WORLD  42!", "hello world 00", None, "  a\tb "])
    assert normalize_text(s).tolist() == [
        "hello world 00", "hello world 00", "", "a b"]

    df = pd.DataFrame({
        "doc_id": [1, 2, 3, 4, 5],
        "text": ["The quick fox.", "the  QUICK fox", "price is 95",
                 "price is 10", "unique text"],
    })
    out = (normalized_dedup(rd.from_pandas(df)).to_pandas()
           .sort_values("doc_id", ignore_index=True))
    # 1+2 collapse (case/punct/ws); 3+4 collapse (digit fold); 5 alone
    assert out["doc_id"].tolist() == [1, 3, 5]
    assert out["n_variants"].tolist() == [2, 2, 1]


def test_ppl_buckets_partitions_corpus(ray_session):
    import __ray_entry__ as e

    out = e.queries()["ppl_buckets"]("/root/testdata/sf0.001")
    df = out.to_pandas()
    assert set(df["bucket"]) == {"head", "middle", "tail"}
    import duckdb

    n_scored = duckdb.sql(
        "SELECT count(*) FROM '/root/testdata/sf0.001/documents.parquet' "
        "WHERE len(list_filter(regexp_split_to_array(text, '\\s+'), "
        "x -> x <> '')) >= 2").fetchone()[0]
    # every scored doc lands in exactly one bucket
    assert int(df["n_docs"].sum()) == n_scored
    # discrete 33/67 split: head holds roughly a third (ties may widen it)
    frac = df.groupby("bucket")["n_docs"].sum() / n_scored
    assert 0.25 <= frac["head"] <= 0.45


def test_gopher_rules_flags(ray_session):
    from borges_ray.ops.textops import gopher_quality

    df = pd.DataFrame({
        "doc_id": [1, 2, 3, 4, 5],
        "text": [
            # passes every rule: 20 words, mwl 87/20 = 4.35 in [4.3,4.7], has 'the'
            " ".join(["the"] * 2 + ["word"] * 9 + ["words"] * 9),
            "too few words here",                       # fails ok_words
            " ".join(["the"] * 25),                     # mwl 3.0 < 4.3
            " ".join(["somewhere"] * 10 + ["the"] * 15), # alpha ok, no-req? has 'the'
            " ".join(["12345"] * 30),                   # no alpha words, no req
        ],
    })
    out = (gopher_quality(rd.from_pandas(df), min_words=20, max_words=90,
                          mwl_lo=(43, 10), mwl_hi=(47, 10), min_req_hits=1)
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    assert out.loc[0, "keep"]
    assert not out.loc[1, "ok_words"]
    assert not out.loc[2, "ok_mwl"]
    assert out.loc[3, "ok_req"] and out.loc[3, "ok_alpha"]
    assert not out.loc[4, "ok_alpha"] and not out.loc[4, "ok_req"]
    # integer-exact mean-word-length boundary: 43*n_words == 10*word_chars
    b = pd.DataFrame({"doc_id": [9], "text": [" ".join(["abcd"] * 7 + ["abc"] * 2 + ["abcde"] * 11)]})
    # 7*4+2*3+11*5 = 89 chars / 20 words = 4.45 -> inside [4.3, 4.7]
    ob = gopher_quality(rd.from_pandas(b), min_words=20, max_words=90,
                        mwl_lo=(43, 10), mwl_hi=(47, 10), min_req_hits=0).to_pandas()
    assert bool(ob.loc[0, "ok_mwl"])


def test_soft_dedup_weights(ray_session):
    from borges_ray.ops.textops import soft_dedup_weights

    df = pd.DataFrame({
        "doc_id": [1, 2, 3, 4, 5, 6],
        "text": ["alpha beta", "ALPHA  beta!", " alpha beta ",
                 "gamma delta", "gamma delta", "unique text"],
    })
    out = (soft_dedup_weights(rd.from_pandas(df)).to_pandas()
           .sort_values("doc_id").reset_index(drop=True))
    assert out["n_dups"].tolist() == [3, 3, 3, 2, 2, 1]
    assert out.loc[0, "weight"] == pytest.approx(1 / 3, abs=1e-6)
    assert out.loc[5, "weight"] == 1.0
    # total training mass = number of distinct contents
    assert out["weight"].sum() == pytest.approx(3.0, abs=1e-5)


def test_compact_parquet_lossless(ray_session, tmp_path):
    from borges_ray.sources.io import compact_parquet

    df = pd.DataFrame({"k": np.arange(1000, dtype=np.int64),
                       "v": np.arange(1000, dtype=np.int64) * 7})
    in_dir, out_dir = str(tmp_path / "in"), str(tmp_path / "out")
    rd.from_pandas(df).repartition(25).write_parquet(in_dir)
    info = compact_parquet(in_dir, out_dir, rows_per_file=400)
    assert info["rows"] == 1000
    assert info["files_out"] < info["files_in"]
    back = rd.read_parquet(out_dir).to_pandas().sort_values("k").reset_index(drop=True)
    pd.testing.assert_frame_equal(back, df)


def test_quantize_int8_roundtrip_error(ray_session):
    from borges_ray.ops.embed import quantize_int8

    rng = np.random.default_rng(3)
    vecs = [rng.normal(size=16).astype(np.float32) for _ in range(20)]
    vecs.append(np.zeros(16, dtype=np.float32))          # all-zero vector
    df = pd.DataFrame({"vec_id": np.arange(21, dtype=np.int64),
                       "embedding": vecs})
    out = (quantize_int8(rd.from_pandas(df)).to_pandas()
           .sort_values("vec_id").reset_index(drop=True))
    # quantized range respected, error bounded by scale/2
    assert (out["q_abs_max"] <= 127).all()
    nz = out[out["scale"] > 0]
    assert (nz["max_err"] <= nz["scale"] / 2 + 1e-9).all()
    z = out[out["scale"] == 0].iloc[0]
    assert z["q_sum"] == 0 and z["max_err"] == 0.0


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_gopher_rules_match_pure_reference(seed, ray_session):
    """Randomized messy strings (punctuation, digits, unicode, '#', '...')
    × a pure-python reference of every Gopher flag."""
    import re as _re

    from borges_ray.ops.textops import GOPHER_REQUIRED, gopher_quality

    rng = np.random.RandomState(seed)
    frag = ["the", "Be", "to", "of", "and", "würde", "a1", "1a", "#tag",
            "...", "12345", "x" * 12, "a.b", "naïve", "CAT", "--", "e",
            "with,", "have!"]
    texts = [" ".join(rng.choice(frag, rng.randint(0, 60))) for _ in range(50)]
    texts += ["", "   ", "\t\n"]
    df = pd.DataFrame({"doc_id": np.arange(len(texts), dtype=np.int64),
                       "text": texts})
    out = (gopher_quality(rd.from_pandas(df), min_words=5, max_words=40,
                          mwl_lo=(3, 1), mwl_hi=(7, 1), min_req_hits=2)
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    for i, t in enumerate(texts):
        toks = t.split()
        n_words = len(toks)
        wchars = sum(len(w) for w in toks)
        n_alpha = sum(1 for w in toks if _re.search("[A-Za-z]", w))
        n_sym = t.count("#") + t.count("...")
        hits = sum(1 for r in GOPHER_REQUIRED
                   if r in {w.lower() for w in toks})
        row = out.iloc[i]
        assert row["n_words"] == n_words, (i, t)
        assert row["word_chars"] == wchars, (i, t)
        assert row["req_hits"] == hits, (i, t)
        assert row["ok_words"] == (5 <= n_words <= 40)
        assert row["ok_mwl"] == (1 * wchars >= 3 * n_words
                                 and 1 * wchars <= 7 * n_words)
        assert row["ok_sym"] == (10 * n_sym < n_words)
        assert row["ok_alpha"] == (5 * n_alpha >= 4 * n_words)
        assert row["ok_req"] == (hits >= 2)


@pytest.mark.parametrize("seed,n_docs", [(5, 80), (6, 120)])
def test_soft_dedup_matches_pure_reference(seed, n_docs, ray_session):
    """Random corpora with planted normalized-duplicate clusters × a pure
    pandas groupby reference: every weight is 1/cluster-size and total
    mass equals the count of distinct normalized contents."""
    from borges_ray.ops.textops import normalize_text, soft_dedup_weights

    rng = np.random.RandomState(seed)
    base = [f"text {i} body {'x' * (i % 5)}" for i in range(20)]
    texts = []
    for _ in range(n_docs):
        t = base[rng.randint(len(base))]
        style = rng.randint(4)
        if style == 1:
            t = t.upper() + "!!"
        elif style == 2:
            t = "  " + t + "\t"
        elif style == 3:
            t = t.replace(" ", "  ")
        texts.append(t)
    df = pd.DataFrame({"doc_id": np.arange(n_docs, dtype=np.int64),
                       "text": texts})
    out = (soft_dedup_weights(rd.from_pandas(df)).to_pandas()
           .sort_values("doc_id").reset_index(drop=True))
    norm = normalize_text(df["text"])
    counts = norm.value_counts()
    exp_n = norm.map(counts).astype("int64")
    assert out["n_dups"].tolist() == exp_n.tolist()
    assert np.allclose(out["weight"], (1.0 / exp_n).round(6))
    assert out["weight"].sum() == pytest.approx(len(counts), abs=1e-4)


def test_redirect_resolve_pointer_doubling():
    """redirect_resolve vs a pure-python chain walk over a random
    functional graph with planted cycles: chains up to ~40 hops (needing
    all 6 doubling rounds), a 2-cycle, a 3-cycle, and feeder chains that
    drain INTO a cycle (unresolvable)."""
    import ray.data as rd

    from borges_ray.ops.graph import redirect_resolve

    edges = {}
    # long chain: 100 -> 99 -> ... -> 61 (terminal), 39 hops
    for i in range(62, 101):
        edges[i] = i - 1
    # short chains to a shared terminal
    for i in (200, 201, 202):
        edges[i] = 300
    # 2-cycle and a feeder into it
    edges[400], edges[401] = 401, 400
    edges[402] = 400
    # 3-cycle, and a degenerate 1-cycle (self-loop)
    edges[500], edges[501], edges[502] = 501, 502, 500
    edges[600] = 600
    # random functional DAG (seeded): 300 nodes each pointing to a
    # strictly smaller random id — arbitrary in-degree fan-in, shared
    # sub-chains, chain lengths ~O(log n) (well under 2^6 - 1)
    rng = np.random.default_rng(7)
    for i in range(10001, 10301):
        edges[i] = int(rng.integers(10000, i))

    def pure(src):
        cur, hops = edges[src], 1
        while cur in edges:
            cur, hops = edges[cur], hops + 1
            if hops > 200:
                return (-1, -1, False)
        return (cur, hops, True)

    expected = {s: pure(s) for s in edges}

    ds = rd.from_pandas(pd.DataFrame(
        {"src": list(edges), "dst": [edges[s] for s in edges]}))
    out = redirect_resolve(ds, max_rounds=6).to_pandas()
    assert len(out) == len(edges)
    got = {int(r.src): (int(r.final_id), int(r.hops), bool(r.resolved))
           for r in out.itertuples()}
    assert got == expected
    # empty redirect map: typed empty result, no crash
    empty = rd.from_pandas(pd.DataFrame({"src": pd.Series(dtype="int64"),
                                         "dst": pd.Series(dtype="int64")}))
    assert len(redirect_resolve(empty, max_rounds=2).to_pandas()) == 0


def test_trustrank_biased_teleport(ray_session):
    """TrustRank vs a dense numpy reference: teleport restricted to the
    trusted set; a spam island unreachable from it decays to exactly 0,
    and a node reachable only FROM spam gets rank only via walk mass."""
    from borges_ray.ops.graph import pagerank

    E = [("t1", "a"), ("t2", "a"), ("a", "b"), ("b", "t1"),
         ("spam1", "spam2"), ("spam2", "spam1"), ("spam1", "b")]
    df = pd.DataFrame(E, columns=["src", "dst"])
    trusted = {"t1", "t2"}

    out = (pagerank(rd.from_pandas(df).repartition(2), iters=3,
                    damping=0.85, round_to=6, n_buckets=4, trusted=trusted)
           .to_pandas().set_index("node")["rank"])

    nodes = sorted(set(df.src) | set(df.dst))
    idx = {n: i for i, n in enumerate(nodes)}
    deg = df.groupby("src").size()
    r = np.array([1.0 / len(trusted) if n in trusted else 0.0
                  for n in nodes])
    for _ in range(3):
        nxt = np.array([0.15 / len(trusted) if n in trusted else 0.0
                        for n in nodes])
        for s, d in E:
            nxt[idx[d]] += 0.85 * r[idx[s]] / deg[s]
        r = nxt
    for n in nodes:
        assert out[n] == pytest.approx(round(r[idx[n]], 6), abs=1e-6)
    # the 2-cycle spam island never receives teleport or walk mass
    assert out["spam1"] == 0.0 and out["spam2"] == 0.0
    assert out["t1"] > out["b"] > 0


def test_profile_columns(ray_session):
    """profile_columns vs pandas: exact n/null/ndv and stringified
    min/max, including an all-null column and duplicate values."""
    from borges_ray.ops.relational import profile_columns

    df = pd.DataFrame({
        "a": [3, 1, 1, 2, None],
        "b": ["x", None, "x", "zz", None],
        "c": [None] * 5,
    })
    out = (profile_columns(rd.from_pandas(df).repartition(3),
                           ["a", "b", "c"])
           .to_pandas().set_index("column"))
    assert out.loc["a", "n"] == 5 and out.loc["a", "n_null"] == 1
    assert out.loc["a", "n_distinct"] == 3
    assert out.loc["a", "min_str"] == "1.0" and out.loc["a", "max_str"] == "3.0"
    assert out.loc["b", "n_null"] == 2 and out.loc["b", "n_distinct"] == 2
    assert out.loc["b", "min_str"] == "x" and out.loc["b", "max_str"] == "zz"
    assert out.loc["c", "n_null"] == 5 and out.loc["c", "n_distinct"] == 0
    assert pd.isna(out.loc["c", "min_str"])


def test_rollup_counts(ray_session):
    """rollup_counts vs pandas at every level, including a grand total
    and a key whose groups split across blocks."""
    from borges_ray.ops.relational import rollup_counts

    df = pd.DataFrame({
        "s": ["a", "a", "a", "b", "b", "c"],
        "l": ["en", "en", "fr", "en", "fr", "fr"],
    })
    out = rollup_counts(rd.from_pandas(df).repartition(3), ["s", "l"]) \
        .to_pandas()
    got = {(r.s, r.l): int(r.n) for r in out.itertuples()}
    assert got[("a", "en")] == 2 and got[("a", "fr")] == 1
    assert got[("a", "__all__")] == 3 and got[("b", "__all__")] == 2
    assert got[("c", "fr")] == 1 and got[("c", "__all__")] == 1
    assert got[("__all__", "__all__")] == 6
    # level counts: 5 leaf groups + 3 per-s + 1 total
    assert len(got) == 9


def test_exact_dedup_keep_best(ray_session):
    """Winner per content group = max score, ties to MIN id; score and
    id round-trip exactly through the packed argmax; guards reject
    out-of-range ids/scores."""
    import pytest as _pytest

    from borges_ray.ops.dedup import exact_dedup_keep_best

    df = pd.DataFrame({
        "doc_id": [1, 2, 3, 10, 11, 20],
        "text":   ["aa", "aa", "aa", "bb", "bb", "cc"],
        "score":  [5, 9, 9, 4, 4, 0],
    })
    out = (exact_dedup_keep_best(rd.from_pandas(df).repartition(3),
                                 "text", "doc_id", "score")
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    # aa: max score 9, tie between ids 2 and 3 -> 2; bb: tie 10/11 -> 10
    assert out[["doc_id", "score", "n_dups"]].values.tolist() == [
        [2, 9, 3], [10, 4, 2], [20, 0, 1]]
    bad = pd.DataFrame({"doc_id": [1], "text": ["x"], "score": [1 << 40]})
    with _pytest.raises(Exception):
        exact_dedup_keep_best(rd.from_pandas(bad), "text", "doc_id",
                              "score").to_pandas()


def test_bfs_depths_min_hop(ray_session):
    """bfs_depths vs a pure-python BFS over a graph with a cycle, a
    diamond (two paths of different length to one node), an unreachable
    island, and a max_hops cutoff."""
    from borges_ray.ops.graph import bfs_depths

    # 0->1->2->3->4 chain; 0->3 shortcut (diamond: 3 at depth 1 not 3);
    # 4->0 closes a cycle; 9->10 unreachable island
    e = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 3), (4, 0), (9, 10)]
    edges = rd.from_pandas(pd.DataFrame(
        {"src": [a for a, _ in e], "dst": [b for _, b in e]})).repartition(3)
    out = bfs_depths(edges, [0], max_hops=3).to_pandas()
    got = dict(zip(out["node"], out["depth"]))
    assert got == {0: 0, 1: 1, 3: 1, 2: 2, 4: 2}

    # max_hops large enough: 4 reached at 2, nothing deeper exists
    out2 = bfs_depths(edges, [0, 9], max_hops=10).to_pandas()
    got2 = dict(zip(out2["node"], out2["depth"]))
    assert got2 == {0: 0, 9: 0, 1: 1, 3: 1, 10: 1, 2: 2, 4: 2}

    # seeds with no outgoing edges: just the seed row
    out3 = bfs_depths(edges, [10], max_hops=2).to_pandas()
    assert dict(zip(out3["node"], out3["depth"])) == {10: 0}


def test_mirror_hosts_jaccard(ray_session):
    """mirror_hosts vs hand-computed set Jaccard: stop-fingerprint
    dropped, min_shared enforced, pair ordering host_a < host_b."""
    from borges_ray.ops.graph import mirror_hosts

    rows = []
    # h1 = {1,2,3,4}; h2 = {2,3,4,5}; h3 = {1,9}; plus fp 7 on ALL hosts
    for h, fps in [("h1", [1, 2, 3, 4, 7]), ("h2", [2, 3, 4, 5, 7]),
                   ("h3", [1, 9, 7]), ("h4", [7]), ("h5", [7])]:
        rows += [{"host": h, "fp": np.uint64(f)} for f in fps]
    # duplicate observations must not inflate counts
    rows.append({"host": "h1", "fp": np.uint64(2)})
    pages = rd.from_pandas(pd.DataFrame(rows)).repartition(4)

    out = mirror_hosts(pages, max_fp_hosts=4, min_shared=2).to_pandas()
    # fp 7 is on 5 hosts > max_fp_hosts=4: dropped. h1∩h2 = {2,3,4},
    # sizes (with fp 7 still counted in the per-host set size) 5 and 5.
    assert len(out) == 1
    r = out.iloc[0]
    assert (r["host_a"], r["host_b"], r["shared"]) == ("h1", "h2", 3)
    assert r["jaccard"] == round(3 / (5 + 5 - 3), 6)

    # min_shared=1 also surfaces the single-shared pair h1-h3 ({1})
    out2 = mirror_hosts(pages, max_fp_hosts=4, min_shared=1).to_pandas()
    pairs = {(a, b): s for a, b, s in
             zip(out2["host_a"], out2["host_b"], out2["shared"])}
    assert pairs == {("h1", "h2"): 3, ("h1", "h3"): 1}


def test_phrase_search_positions(ray_session, tmp_path):
    """phrase_search vs hand counts: overlapping matches, repeated-term
    phrases (slot voting), absent phrase, and partition pruning stats."""
    from borges_ray.ops.index import build_positional_index, phrase_search

    docs = pd.DataFrame({
        "doc_id": [1, 2, 3, 4],
        "text": ["a b a b a b",        # "a b a" at 0 and 2 (overlap)
                 "x x x y",            # "x x" at 0,1; "x x x" at 0
                 "a b c",
                 "b a"],
    })
    idx = str(tmp_path / "pos_idx")
    build_positional_index(rd.from_pandas(docs).repartition(2), idx)

    out, stats = phrase_search(idx, ["a", "b", "a"])
    got = dict(zip(*(out.to_pandas()[c] for c in ["doc_id", "n_matches"])))
    assert got == {1: 2}
    assert 0 < stats["partitions_read"] <= 2  # 'a','b' hash to ≤2 parts
    assert stats["bytes_read"] < stats["bytes_total"]

    out2, _ = phrase_search(idx, ["x", "x"])
    assert dict(zip(*(out2.to_pandas()[c]
                      for c in ["doc_id", "n_matches"]))) == {2: 2}

    out3, _ = phrase_search(idx, ["c", "a"])
    assert len(out3.to_pandas()) == 0

    out4, _ = phrase_search(idx, ["zzz", "a"])  # term absent entirely
    assert len(out4.to_pandas()) == 0


def test_containment_pairs_quote_inclusion(ray_session):
    """containment_pairs vs hand-computed Broder containment: a short doc
    quoted verbatim inside a long one scores cont_short ~1 while Jaccard
    is small; unrelated docs don't pair; stop-shingles drop."""
    from borges_ray.ops.dedup import containment_pairs

    quote = "alpha beta gamma delta epsilon zeta"          # 6 toks, 3 shingles
    long_doc = ("x1 x2 x3 x4 x5 x6 x7 x8 " + quote +
                " y1 y2 y3 y4 y5 y6 y7 y8")
    docs = pd.DataFrame({
        "doc_id": [1, 2, 3],
        "text": [quote, long_doc, "p q r s t u v w"],
    })
    out = (containment_pairs(rd.from_pandas(docs).repartition(2),
                             width=4, min_containment=0.5)
           .to_pandas())
    assert len(out) == 1
    r = out.iloc[0]
    assert (r["id_a"], r["id_b"]) == (1, 2)
    assert r["shared"] == 3          # the 3 shingles fully inside doc 2
    assert r["cont_a"] == 1.0        # quote fully contained
    assert r["cont_b"] < 0.2         # long doc barely contained in quote

    # same corpus but the quote shingles planted on 70 docs: stop rule
    many = pd.DataFrame({
        "doc_id": range(10, 80),
        "text": [quote] * 70,
    })
    both = pd.concat([docs, many], ignore_index=True)
    out2 = (containment_pairs(rd.from_pandas(both).repartition(4),
                              width=4, min_containment=0.5, max_fp_docs=64)
            .to_pandas())
    assert len(out2) == 0  # every shared shingle now exceeds max_fp_docs


def test_containment_pairs_duplicated_doc_row(ray_session):
    """A doc row present twice (same id, same text) yields no self-pair
    and the same pairs and shared counts as the deduplicated input."""
    from borges_ray.ops.dedup import containment_pairs

    quote = "alpha beta gamma delta epsilon zeta"
    docs = pd.DataFrame({
        "doc_id": [1, 2, 3],
        "text": [quote, "x1 x2 " + quote + " y1 y2", "p q r s t u v w"],
    })
    dup = pd.concat([docs, docs.iloc[[1]]], ignore_index=True)

    def run(df):
        out = containment_pairs(rd.from_pandas(df).repartition(2), width=4,
                                min_containment=0.5).to_pandas()
        return out.sort_values(["id_a", "id_b"]).reset_index(drop=True)

    want, got = run(docs), run(dup)
    assert (got["id_a"] != got["id_b"]).all()
    assert len(want) == 1
    pd.testing.assert_frame_equal(got, want)


def test_proximity_search_min_dist(ray_session, tmp_path):
    """proximity_search vs hand distances: nearest-neighbor on both
    sides, max_dist cutoff, docs missing one term excluded."""
    from borges_ray.ops.index import build_positional_index, proximity_search

    docs = pd.DataFrame({
        "doc_id": [1, 2, 3, 4],
        "text": ["a x x x b",        # dist 4
                 "b a",              # dist 1 (b before a)
                 "a x b x x a",      # min dist 2 (first a) ... b at 2, a at 0/5: min 2
                 "a a a"],           # no b
    })
    idx = str(tmp_path / "prox_idx")
    build_positional_index(rd.from_pandas(docs).repartition(2), idx)

    out, stats = proximity_search(idx, "a", "b", max_dist=4)
    got = dict(zip(*(out.to_pandas()[c] for c in ["doc_id", "min_dist"])))
    assert got == {1: 4, 2: 1, 3: 2}
    assert stats["bytes_read"] <= stats["bytes_total"]

    out2, _ = proximity_search(idx, "a", "b", max_dist=1)
    assert dict(zip(*(out2.to_pandas()[c]
                      for c in ["doc_id", "min_dist"]))) == {2: 1}


def test_triangle_counts_brute_force(ray_session):
    """triangle_counts vs itertools brute force on a random graph fed as
    a noisy DIRECTED multi-edge list (both directions + duplicates must
    collapse); plus a planted clique and a triangle-free star."""
    import itertools

    from borges_ray.ops.graph import triangle_counts

    rng = np.random.default_rng(11)
    n, m = 80, 500
    e = set()
    while len(e) < m:
        a, b = rng.integers(0, n, 2)
        if a != b:
            e.add((min(a, b), max(a, b)))
    # planted 5-clique on 100..104 and a star center 200 (no triangles)
    for a, b in itertools.combinations(range(100, 105), 2):
        e.add((a, b))
    for leaf in range(300, 320):
        e.add((200, leaf))
    e = sorted(e)
    adj: dict[int, set] = {}
    for a, b in e:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    want: dict[int, int] = {}
    for x in adj:
        for y, z in itertools.combinations(sorted(adj[x]), 2):
            if y > x and z in adj.get(y, ()):
                for v in (x, y, z):
                    want[v] = want.get(v, 0) + 1
    df = pd.DataFrame({
        "src": [a for a, _ in e] + [b for _, b in e] + [e[0][0]],
        "dst": [b for _, b in e] + [a for a, _ in e] + [e[0][1]]})
    out = triangle_counts(rd.from_pandas(df).repartition(4)).to_pandas()
    got = dict(zip(out["node"], out["n_triangles"]))
    assert got == want
    assert got[100] == 6 + sum(1 for _ in ())  # C(4,2) clique triangles
    assert 200 not in got  # star center: zero triangles


def test_degree_powerlaw_closed_form(ray_session):
    """degree_powerlaw on a histogram that lies EXACTLY on a power law:
    4 nodes of degree 1, 2 of degree 2, 1 of degree 4 → log-log points
    (0, ln4), (ln2, ln2), (ln4, 0) → slope -1, intercept ln4.  Any
    dropped histogram row, double-counted degree, or partial-sum mixup
    moves the fit off the closed form."""
    from borges_ray.ops.graph import degree_powerlaw

    ids = (["a", "b", "c", "d"]          # degree 1
           + ["e", "e", "f", "f"]        # degree 2
           + ["g"] * 4)                  # degree 4
    ds = rd.from_pandas(pd.DataFrame({"node": ids})).repartition(3)
    out = degree_powerlaw(ds).to_pandas()
    assert len(out) == 1
    row = out.iloc[0]
    assert row["n_points"] == 3
    assert row["slope"] == pytest.approx(-1.0, abs=1e-6)
    assert row["intercept"] == pytest.approx(np.log(4.0), abs=1e-6)


def test_degree_powerlaw_degenerate(ray_session):
    """A single-degree histogram has zero x-variance → NaN fit (matching
    SQL regr_slope's NULL), with n_points still reported."""
    from borges_ray.ops.graph import degree_powerlaw

    ds = rd.from_pandas(pd.DataFrame({"node": ["a", "b", "c"]}))
    out = degree_powerlaw(ds).to_pandas()
    assert len(out) == 1 and out.iloc[0]["n_points"] == 1
    assert np.isnan(out.iloc[0]["slope"])


def test_reciprocity_known_graph(ray_session):
    """reciprocity on a hand-checked multigraph: self-loops dropped,
    duplicate edges collapse, and exactly the two mutual pairs (1↔2,
    3↔4) count → 4 of 5 distinct non-loop edges reciprocal."""
    from borges_ray.ops.graph import reciprocity

    E = [(1, 2), (2, 1), (1, 3), (3, 4), (4, 3), (5, 5), (1, 2)]
    ds = rd.from_pandas(pd.DataFrame(E, columns=["src", "dst"])).repartition(3)
    out = reciprocity(ds).to_pandas()
    assert len(out) == 1
    row = out.iloc[0]
    assert (row["n_edges"], row["n_recip"]) == (5, 4)
    assert row["reciprocity"] == pytest.approx(0.8, abs=1e-9)


def test_reciprocity_empty(ray_session):
    """Self-loop-only input → the anchored (0, 0, NaN) row, not a
    schema-less empty dataset."""
    from borges_ray.ops.graph import reciprocity

    ds = rd.from_pandas(pd.DataFrame({"src": [7, 8], "dst": [7, 8]}))
    out = reciprocity(ds).to_pandas()
    assert len(out) == 1
    assert (out.iloc[0]["n_edges"], out.iloc[0]["n_recip"]) == (0, 0)
    assert np.isnan(out.iloc[0]["reciprocity"])


def test_clustering_coefficient_known_graph(ray_session):
    """clustering_coefficient on triangle(a,b,c) + pendant edge c-d, fed
    as noisy directed multi-edges: a and b close their only wedge
    (cc = 1), c has one triangle over three wedges (cc = 1/3), and the
    degree-1 node d is excluded."""
    from borges_ray.ops.graph import clustering_coefficient

    E = [(1, 2), (2, 3), (3, 1), (3, 4), (2, 1), (1, 1)]  # dup + loop noise
    ds = rd.from_pandas(pd.DataFrame(E, columns=["src", "dst"])).repartition(2)
    out = (clustering_coefficient(ds).to_pandas()
           .sort_values("node", ignore_index=True))
    assert out["node"].tolist() == [1, 2, 3]
    assert out["n_triangles"].tolist() == [1, 1, 1]
    assert out["cc"].tolist() == pytest.approx([1.0, 1.0, 0.333333], abs=1e-6)


def test_degree_assortativity_star(ray_session):
    """A perfect star is maximally disassortative: every edge pairs the
    hub (deg 3) with a leaf (deg 1), so the symmetrized degree-pair set
    is {(3,1)}³ ∪ {(1,3)}³ and Pearson r = -1 exactly.  Duplicate and
    self-loop noise must not move it."""
    from borges_ray.ops.graph import degree_assortativity

    E = [(0, 1), (0, 2), (0, 3), (1, 0), (0, 0)]  # dup + loop noise
    ds = rd.from_pandas(pd.DataFrame(E, columns=["src", "dst"])).repartition(2)
    out = degree_assortativity(ds).to_pandas()
    assert len(out) == 1
    assert out.iloc[0]["n_edges"] == 3
    assert out.iloc[0]["r"] == pytest.approx(-1.0, abs=1e-6)


def test_degree_assortativity_regular(ray_session):
    """A 4-cycle is 2-regular: zero degree variance → r is NaN (the SQL
    corr() NULL analogue), with the edge count still reported."""
    from borges_ray.ops.graph import degree_assortativity

    E = [(1, 2), (2, 3), (3, 4), (4, 1)]
    ds = rd.from_pandas(pd.DataFrame(E, columns=["src", "dst"]))
    out = degree_assortativity(ds).to_pandas()
    assert len(out) == 1 and out.iloc[0]["n_edges"] == 4
    assert np.isnan(out.iloc[0]["r"])


def test_adamic_adar_known_graph(ray_session):
    """adamic_adar on triangle(1,2,3) + pendant 3-4: every wedge pair
    inside the triangle is already an edge (dropped by the anti-join);
    only center 3 (deg 3) predicts (1,4) and (2,4), each scoring
    1/ln 3.  Degree-1 node 4 is never a center."""
    from borges_ray.ops.graph import adamic_adar

    E = [(1, 2), (1, 3), (2, 3), (3, 4), (2, 1)]  # one duplicate
    ds = rd.from_pandas(pd.DataFrame(E, columns=["src", "dst"])).repartition(2)
    out = adamic_adar(ds, k=10)
    want = round(1.0 / np.log(3.0), 6)
    assert list(zip(out["x"], out["y"])) == [(1, 4), (2, 4)]
    assert out["score"].tolist() == pytest.approx([want, want], abs=1e-9)


def test_adamic_adar_max_deg_cap(ray_session):
    """The hot-key cap drops centers above max_deg: with max_deg=2 the
    only deg-3 center is excluded and no predictions survive — the
    result is an empty, correctly-typed frame."""
    from borges_ray.ops.graph import adamic_adar

    E = [(1, 2), (1, 3), (2, 3), (3, 4)]
    ds = rd.from_pandas(pd.DataFrame(E, columns=["src", "dst"]))
    out = adamic_adar(ds, k=10, max_deg=2)
    assert len(out) == 0
    assert list(out.columns) == ["x", "y", "score"]


def test_cocitation_known_graph(ray_session):
    """Sources 10 and 11 both cite {1, 2}; source 12 cites {1, 2, 3}.
    Pair (1,2) has 3 common citers, (1,3) and (2,3) only one each
    (below min_count=2).  A degree-1 source (13→1) never fans out, and
    direction matters: 1→2 must not count as citation of 2 by 1's
    citers."""
    from borges_ray.ops.graph import cocitation

    E = [(10, 1), (10, 2), (11, 1), (11, 2), (12, 1), (12, 2), (12, 3),
         (13, 1), (1, 2), (10, 1)]  # one duplicate edge
    ds = rd.from_pandas(pd.DataFrame(E, columns=["src", "dst"])).repartition(2)
    out = cocitation(ds, k=10, min_count=2)
    assert list(zip(out["x"], out["y"], out["n"])) == [(1, 2, 3)]


def test_cocitation_fanout_cap(ray_session):
    """max_fanout drops hub sources: with cap 2 the 3-out-degree source
    12 is excluded, so (1,2) keeps only citers 10 and 11."""
    from borges_ray.ops.graph import cocitation

    E = [(10, 1), (10, 2), (11, 1), (11, 2), (12, 1), (12, 2), (12, 3)]
    ds = rd.from_pandas(pd.DataFrame(E, columns=["src", "dst"]))
    out = cocitation(ds, k=10, min_count=2, max_fanout=2)
    assert list(zip(out["x"], out["y"], out["n"])) == [(1, 2, 2)]


def test_heavy_hitters_exact_counts(ray_session):
    """A skewed stream where 'a' (10×) and 'b' (6×) exceed n/k = 20/4 = 5
    and the tail doesn't: the two-pass MG path must return exactly the
    true heavy hitters with EXACT counts, in (cnt desc, v) order."""
    from borges_ray.ops.sketch import heavy_hitters

    vals = ["a"] * 10 + ["b"] * 6 + ["c", "d", "e", "f"]
    ds = rd.from_pandas(pd.DataFrame({"v": vals})).repartition(4)
    out = heavy_hitters(ds, "v", k=4, summary_size=8)
    assert list(zip(out["v"], out["cnt"])) == [("a", 10), ("b", 6)]


def test_heavy_hitters_no_hitters(ray_session):
    """A uniform stream has no value above n/k: empty, typed result."""
    from borges_ray.ops.sketch import heavy_hitters

    ds = rd.from_pandas(pd.DataFrame({"v": [str(i) for i in range(20)]}))
    out = heavy_hitters(ds, "v", k=4)
    assert len(out) == 0
    assert list(out.columns) == ["v", "cnt"]


def test_heavy_hitters_mg_guarantee_small_summary(ray_session):
    """Adversarial batching: the heavy value is diluted across many
    batches while noise floods each per-batch summary — the merged
    summary must still surface it (the s >= 2k mergeable-MG bound)."""
    from borges_ray.ops.sketch import heavy_hitters

    rows = []
    for b in range(8):
        rows += ["hot"] * 3 + [f"noise{b}_{i}" for i in range(10)]
    ds = rd.from_pandas(pd.DataFrame({"v": rows})).repartition(8)
    out = heavy_hitters(ds, "v", k=8, summary_size=16)  # n/k = 104/8 = 13
    assert list(zip(out["v"], out["cnt"])) == [("hot", 24)]


def test_politeness_audit_gaps(ray_session):
    """Host 1 fetches at t=0,1,10s with a 5s rule: gaps 1s (violation)
    and 9s (ok), min gap 1s.  Host 2 has one fetch → excluded.  Host 3
    has an exact-interval gap (5s): compliant (strict <)."""
    from borges_ray.ops.sched import politeness_audit

    S = 1_000_000
    df = pd.DataFrame({
        "host": [1, 1, 1, 2, 3, 3],
        "ts": pd.to_datetime([0, 1 * S, 10 * S, 0, 0, 5 * S], unit="us")})
    ds = rd.from_pandas(df).repartition(2)
    out = (politeness_audit(ds, min_interval_us=5 * S)
           .to_pandas().sort_values("host").reset_index(drop=True))
    assert out["host"].tolist() == [1, 3]
    assert out["n_fetches"].tolist() == [3, 2]
    assert out["n_violations"].tolist() == [1, 0]
    assert out["min_gap_us"].tolist() == [1 * S, 5 * S]


def test_bib_coupling_known_graph(ray_session):
    """Docs 1 and 2 both cite {10, 11}; doc 3 cites {10} only.  Pair
    (1,2) couples with strength 2; (1,3)/(2,3) share just target 10.
    Swapped-role check vs cocitation: the cap lands on target IN-degree
    (target 10 has in-degree 3, still under the default cap)."""
    from borges_ray.ops.graph import bib_coupling

    E = [(1, 10), (1, 11), (2, 10), (2, 11), (3, 10)]
    ds = rd.from_pandas(pd.DataFrame(E, columns=["src", "dst"])).repartition(2)
    out = bib_coupling(ds, k=10, min_count=1)
    assert list(zip(out["x"], out["y"], out["n"])) == [
        (1, 2, 2), (1, 3, 1), (2, 3, 1)]


def test_bib_coupling_hot_target_cap(ray_session):
    """A target cited by every doc is dropped by max_fanout before the
    quadratic fan-out: with cap 2 only the in-degree-2 target 11
    contributes, so the sole surviving pair is (1,2)."""
    from borges_ray.ops.graph import bib_coupling

    E = [(1, 10), (2, 10), (3, 10), (1, 11), (2, 11)]
    ds = rd.from_pandas(pd.DataFrame(E, columns=["src", "dst"]))
    out = bib_coupling(ds, k=10, min_count=1, max_fanout=2)
    assert list(zip(out["x"], out["y"], out["n"])) == [(1, 2, 1)]


def test_burst_windows_integer_gate(ray_session):
    """Type 'a' has hourly counts [1,1,1,1,9]: mean 2.6, std_pop 3.2 —
    with z=1 only the 9-count window bursts (9 > 2.6+3.2); with z=2 the
    gate (9 > 9.0) must REJECT it — the exact-integer boundary case a
    float z-score could flip either way."""
    from borges_ray.ops.stats import burst_windows

    H = 3_600_000_000
    ts = []
    for w, c in enumerate([1, 1, 1, 1, 9]):
        ts += [w * H + i for i in range(c)]
    df = pd.DataFrame({"event_type": "a",
                       "ts": pd.to_datetime(ts, unit="us")})
    ds = rd.from_pandas(df).repartition(3)
    out1 = burst_windows(ds, z=1)
    assert list(zip(out1["event_type"], out1["win"], out1["cnt"])) == [
        ("a", 4, 9)]
    out2 = burst_windows(ds, z=2)
    assert len(out2) == 0


def test_skew_audit_uniform_vs_concentrated(ray_session):
    """Four keys with equal counts: entropy ln(4), Gini 0, top_share
    1/4.  All mass on one key: entropy 0, top_share 1 (Gini's n=1
    degenerate case is (2·1·T − 2T)/T = 0)."""
    from borges_ray.ops.stats import skew_audit

    uni = rd.from_pandas(pd.DataFrame({"k": [0, 1, 2, 3] * 5})).repartition(2)
    row = skew_audit(uni, "k").iloc[0]
    assert row["n_keys"] == 4 and row["total"] == 20
    assert row["entropy"] == round(math.log(4), 6)
    assert row["gini"] == 0.0 and row["top_share"] == 0.25

    one = rd.from_pandas(pd.DataFrame({"k": [7] * 12}))
    row = skew_audit(one, "k").iloc[0]
    assert row["n_keys"] == 1 and row["entropy"] == 0.0
    assert row["gini"] == 0.0 and row["top_share"] == 1.0


def test_skew_audit_gini_known(ray_session):
    """Counts [1, 3]: sorted ranks give Σr·x = 1·1 + 2·3 = 7, so
    Gini = (14 − 3·4)/(2·4) = 0.25 — checks the histogram rank
    identity against the textbook formula."""
    from borges_ray.ops.stats import skew_audit

    ds = rd.from_pandas(pd.DataFrame({"k": ["a", "b", "b", "b"]}))
    row = skew_audit(ds, "k").iloc[0]
    assert row["gini"] == 0.25 and row["top_share"] == 0.75


def test_robust_outliers_median_mad(ray_session):
    """Group 'a' = [1..9, 100]: disc-median 5; sorted devs
    [0,1,1,2,2,3,3,4,4,95] give disc-MAD 2 (ceil(q·n)−1 rule), so only
    100 (dev 95 > 6) flags — the mean/stddev gate would have been
    dragged by the outlier itself.  Group 'b' constant: MAD 0, every
    row equals the median, zero outliers."""
    from borges_ray.ops.stats import robust_outliers

    df = pd.DataFrame({"k": ["a"] * 10 + ["b"] * 4,
                       "v": list(range(1, 10)) + [100] + [7.0] * 4})
    ds = rd.from_pandas(df).repartition(3)
    out = robust_outliers(ds, "k", "v", z=3.0)
    a = out[out["k"] == "a"].iloc[0]
    assert a["med"] == 5.0 and a["mad"] == 2.0
    assert a["n"] == 10 and a["n_outliers"] == 1
    b = out[out["k"] == "b"].iloc[0]
    assert b["mad"] == 0.0 and b["n_outliers"] == 0


def test_grouped_corr_exact_signs(ray_session):
    """Perfectly linear groups: y = 2x gives r = 1, y = −x gives
    r = −1; a zero-variance y gives NULL (the SQL corr convention)."""
    from borges_ray.ops.stats import grouped_corr

    x = list(range(1, 9))
    df = pd.DataFrame({
        "k": ["up"] * 8 + ["down"] * 8 + ["flat"] * 8,
        "x": x * 3,
        "y": [2.0 * v for v in x] + [-1.0 * v for v in x] + [5.0] * 8})
    ds = rd.from_pandas(df).repartition(4)
    out = grouped_corr(ds, "k", "x", "y").set_index("k")
    assert out.loc["up", "r"] == 1.0
    assert out.loc["down", "r"] == -1.0
    assert pd.isna(out.loc["flat", "r"])
    assert out["n"].tolist() == [8, 8, 8]


def test_retention_cohorts_triangle(ray_session):
    """User 1 first seen week 0, active weeks 0/1/2; user 2 first seen
    week 1, active weeks 1/2; user 3 only week 0.  Cohort 0 size 2,
    retains 1 user at offsets 1 and 2; cohort 1 size 1, retains at
    offset 1.  Duplicate events inside a week must not double-count."""
    from borges_ray.ops.events import retention_cohorts

    W = 7 * 86_400 * 1_000_000
    rows = [(1, 0), (1, 10), (1, W), (1, 2 * W),   # dup in week 0
            (2, W), (2, 2 * W), (3, 0)]
    df = pd.DataFrame({"user_id": [r[0] for r in rows],
                       "ts": pd.to_datetime([r[1] for r in rows],
                                            unit="us")})
    ds = rd.from_pandas(df).repartition(3)
    out = (retention_cohorts(ds).to_pandas()
           .sort_values(["cohort", "offset"]).reset_index(drop=True))
    got = list(zip(out["cohort"].astype(int), out["offset"].astype(int),
                   out["n_users"].astype(int)))
    assert got == [(0, 0, 2), (0, 1, 1), (0, 2, 1), (1, 0, 1), (1, 1, 1)]


def test_transition_counts_order_and_keys(ray_session):
    """User 1's sequence a→b→a yields (a,b) and (b,a); user 2's lone
    event contributes nothing; a tie on ts is broken by event_id so the
    pair set is deterministic."""
    from borges_ray.ops.events import transition_counts

    df = pd.DataFrame({
        "user_id": [1, 1, 1, 2, 3, 3],
        "ts": pd.to_datetime([0, 1, 2, 0, 5, 5], unit="us"),
        "event_id": [10, 11, 12, 13, 15, 14],   # tie at ts=5: 14 first
        "event_type": ["a", "b", "a", "c", "x", "y"]})
    ds = rd.from_pandas(df).repartition(2)
    out = (transition_counts(ds, tiebreak=["event_id"]).to_pandas()
           .sort_values(["prev_type", "next_type"]).reset_index(drop=True))
    got = list(zip(out["prev_type"], out["next_type"],
                   out["n"].astype(int)))
    assert got == [("a", "b", 1), ("b", "a", 1), ("y", "x", 1)]


def test_windowed_unique_dedups_ids(ray_session):
    """Three events by two users in hour 0 count 2 uniques; the same
    user returning in hour 1 counts 1 — per-window distinct, not
    global."""
    from borges_ray.ops.events import windowed_unique

    H = 3_600_000_000
    df = pd.DataFrame({
        "event_type": ["f"] * 4,
        "ts": pd.to_datetime([0, 1, 2, H], unit="us"),
        "user_id": [7, 7, 8, 7]})
    ds = rd.from_pandas(df).repartition(2)
    out = (windowed_unique(ds).to_pandas()
           .sort_values("win").reset_index(drop=True))
    assert list(zip(out["win"].astype(int),
                    out["n_unique"].astype(int))) == [(0, 2), (1, 1)]


def test_link_health_known_graph(ray_session):
    """Graph 1→2, 2→1, 1→3, 3→3 (self-loop), 4→5, plus a duplicate
    edge row: 4 distinct non-loop edges out of 5 distinct rows, nodes
    {1,2,3,4,5}.  Dangling = {3, 5}: node 3's only out-edge is its
    self-loop, which the audit strips before computing degrees, so it
    counts as cited-but-never-crawled alongside 5."""
    from borges_ray.ops.graph import link_health

    E = [(1, 2), (2, 1), (1, 3), (3, 3), (4, 5), (1, 2)]
    ds = rd.from_pandas(pd.DataFrame(E, columns=["src", "dst"])).repartition(2)
    row = link_health(ds).iloc[0]
    assert row["n_edges"] == 4 and row["self_loops"] == 1
    assert row["n_nodes"] == 5          # 1,2,3,4,5
    assert row["dangling"] == 2         # 3 (loop stripped) and 5
    assert row["max_out"] == 2 and row["max_in"] == 1
    assert row["self_loop_frac"] == 0.2     # 1 of 5 distinct rows
    assert row["dangling_frac"] == 0.4 and row["avg_out"] == 0.8


def test_host_coverage_shares(ray_session):
    """Counts 6/3/1 over three hosts: top-1 share 0.6, top-10 share 1.0
    (k larger than #hosts clips).  Tie order: equal counts break by
    host ascending, matching the SQL row_number twin."""
    from borges_ray.ops.stats import host_coverage

    df = pd.DataFrame({"h": ["a"] * 6 + ["b"] * 3 + ["c"]})
    row = host_coverage(rd.from_pandas(df).repartition(2), "h",
                        ks=(1, 10)).iloc[0]
    assert row["total"] == 10
    assert row["share_top1"] == 0.6 and row["share_top10"] == 1.0


def test_kwic_substr_semantics(ray_session):
    """Early match clips the left window to position 1 (SQL greatest);
    a match deep in the text gets the full ±window; non-matching docs
    drop; pos is 1-based first occurrence."""
    from borges_ray.ops.textops import kwic_extract

    df = pd.DataFrame({
        "doc_id": [1, 2, 3],
        "text": ["xdatay" + "z" * 50,
                 "a" * 40 + "data" + "b" * 40,
                 "nothing here"]})
    out = (kwic_extract(rd.from_pandas(df).repartition(2), "data",
                        window=30).to_pandas()
           .sort_values("doc_id").reset_index(drop=True))
    assert out["doc_id"].tolist() == [1, 2]
    assert out["pos"].tolist() == [2, 41]
    # doc 1: start clips to 0 → first 64 chars of the 56-char string
    assert out["snippet"][0] == ("xdatay" + "z" * 50)
    # doc 2: chars 10..73 (0-based) = 30 a's + data + 30 b's
    assert out["snippet"][1] == "a" * 30 + "data" + "b" * 30


def test_char_entropy_closed_forms(ray_session):
    """'aaaa' has entropy 0; 'abab' has exactly ln 2; 'abcd' ln 4; an
    empty doc drops (no distribution to score).  The batched bincount
    kernel must keep per-doc histograms separate."""
    from borges_ray.ops.textops import char_entropy

    df = pd.DataFrame({"doc_id": [1, 2, 3, 4],
                       "text": ["aaaa", "abab", "abcd", ""]})
    out = (char_entropy(rd.from_pandas(df).repartition(2)).to_pandas()
           .sort_values("doc_id").reset_index(drop=True))
    assert out["doc_id"].tolist() == [1, 2, 3]
    assert out["n_chars"].tolist() == [4, 4, 4]
    assert out["entropy"].tolist() == [
        0.0, round(math.log(2), 6), round(math.log(4), 6)]


def test_trimmed_mean_cuts_tails(ray_session):
    """Group 'a' = 1..20 with lo_q=0.25, hi_q=0.75: discrete cuts are
    the 5th and 15th elements (ceil rule), so the band keeps 5..15 and
    the mean is exactly 10.  A singleton group keeps its one value."""
    from borges_ray.ops.stats import trimmed_mean

    df = pd.DataFrame({"k": ["a"] * 20 + ["b"],
                       "v": [float(i) for i in range(1, 21)] + [42.0]})
    out = trimmed_mean(rd.from_pandas(df).repartition(3), "k", "v",
                       lo_q=0.25, hi_q=0.75).set_index("k")
    assert out.loc["a", "tmean"] == 10.0 and out.loc["a", "n_kept"] == 11
    assert out.loc["b", "tmean"] == 42.0 and out.loc["b", "n_kept"] == 1


def test_global_rank_matches_row_number(ray_session):
    """Ranks by (value desc, key asc) must equal SQL row_number: values
    [5, 5, 3, 3, 3, 1] with keys breaking the ties — and the histogram
    rank-base path must survive ties spanning partition boundaries."""
    from borges_ray.ops.relational import global_rank

    df = pd.DataFrame({"k": ["b", "a", "z", "x", "y", "q"],
                       "v": [5, 5, 3, 3, 3, 1]})
    ds = rd.from_pandas(df).repartition(3)
    out = (global_rank(ds, "v", "k").to_pandas()
           .sort_values("rank").reset_index(drop=True))
    assert list(zip(out["rank"].astype(int), out["k"])) == [
        (1, "a"), (2, "b"), (3, "x"), (4, "y"), (5, "z"), (6, "q")]


def test_fetch_shard_plan_snake_balance(ray_session):
    """8 hosts with loads 8..1 dealt snake-wise into 4 shards pair the
    heaviest with the lightest: every shard gets exactly 2 hosts and
    total load 9 — the boustrophedon balance property."""
    from borges_ray.ops.sched import fetch_shard_plan

    df = pd.DataFrame({"host": list(range(8)),
                       "c": [8, 7, 6, 5, 4, 3, 2, 1]})
    ds = rd.from_pandas(df).repartition(2)
    out = (fetch_shard_plan(ds, 4).to_pandas()
           .sort_values("shard").reset_index(drop=True))
    assert out["shard"].astype(int).tolist() == [0, 1, 2, 3]
    assert out["n_hosts"].astype(int).tolist() == [2, 2, 2, 2]
    assert out["load"].astype(int).tolist() == [9, 9, 9, 9]


def test_exact_quantile_small_exact(ray_session):
    """Values 1..100 across partitions: disc quantiles are exact
    elements — q50=50, q99=99 (ceil rule) — and a tiny pull_limit
    forces at least one histogram refinement round."""
    from borges_ray.ops.stats import exact_quantile

    df = pd.DataFrame({"v": [float(i) for i in range(1, 101)]})
    ds = rd.from_pandas(df).repartition(4)
    out = exact_quantile(ds, "v", [0.5, 0.99], n_bins=8, pull_limit=5)
    assert out["q50"].iloc[0] == 50.0
    assert out["q99"].iloc[0] == 99.0


def test_exact_quantile_duplicate_heavy(ray_session):
    """A mode spanning the target rank: 1000 copies of 7.0 around a few
    distinct values — the refinement must terminate via the lo>=hi
    degenerate-interval exit and return the duplicated element."""
    from borges_ray.ops.stats import exact_quantile

    vals = [1.0, 2.0] + [7.0] * 1000 + [9.0]
    ds = rd.from_pandas(pd.DataFrame({"v": vals})).repartition(3)
    out = exact_quantile(ds, "v", [0.5], n_bins=4, pull_limit=10)
    assert out["q50"].iloc[0] == 7.0


def test_percentile_rank_tie_semantics(ray_session):
    """Values [10, 20, 20, 30] in one group: percent_rank gives
    0, 1/3, 1/3, 1 — ties share their first member's rank (SQL RANK,
    not row_number).  A singleton group gets 0."""
    from borges_ray.ops.stats import percentile_rank

    df = pd.DataFrame({"id": [1, 2, 3, 4, 5],
                       "k": ["a"] * 4 + ["b"],
                       "v": [10.0, 20.0, 20.0, 30.0, 99.0]})
    out = (percentile_rank(rd.from_pandas(df).repartition(2), "k", "v",
                           id_col="id").to_pandas()
           .sort_values("id").reset_index(drop=True))
    assert out["prank"].tolist() == [
        0.0, round(1 / 3, 6), round(1 / 3, 6), 1.0, 0.0]


def test_source_kl_identical_vs_divergent(ray_session):
    """A source with exactly the corpus-average bigram mix scores near
    0; a source made of one repeated bigram scores strictly higher —
    and doc boundaries must NOT create phantom bigrams (two docs 'ab',
    'ab' contain no 'ba')."""
    from borges_ray.ops.textops import source_kl

    df = pd.DataFrame({
        "source": ["s1", "s1", "s2"],
        "text": ["ab", "ab", "cdcdcdcdcd"]})
    out = source_kl(rd.from_pandas(df).repartition(2))
    s1 = out[out["source"] == "s1"].iloc[0]
    s2 = out[out["source"] == "s2"].iloc[0]
    # s1: two docs of one 'ab' bigram each → n=2 (no phantom 'ba')
    assert s1["n_bigrams"] == 2 and s2["n_bigrams"] == 9
    # both sources diverge from the mixed global; exact closed forms:
    # s1: p(ab)=1, q(ab)=2/11 → kl = ln(11/2)
    assert s1["kl"] == round(math.log(11 / 2), 6)
    assert s2["kl"] > 0


# ---------------------------------------------------------------------------
# Edit-distance similarity join (Ed-Join)
# ---------------------------------------------------------------------------

def _lev_ref(a: str, b: str) -> int:
    """Pure-python full-matrix Levenshtein reference."""
    dp = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        ndp = [i] + [0] * len(b)
        for j, cb in enumerate(b, 1):
            ndp[j] = min(dp[j] + 1, ndp[j - 1] + 1, dp[j - 1] + (ca != cb))
        dp = ndp
    return dp[-1]


def test_banded_levenshtein_kernel():
    """Banded DP equals the full matrix whenever the true distance ≤ k,
    and reports > k otherwise — over random string pairs from a tiny
    alphabet (forcing many near-misses at the band boundary) plus empty /
    gramless / unicode edges."""
    from borges_ray.ops.dedup import _banded_levenshtein

    rng = np.random.default_rng(11)
    alpha = "abc"
    cases = [("", "", 0), ("", "abc", 3), ("a", "", 1),
             ("kitten", "sitting", 3), ("héllo", "hello", 1)]
    for _ in range(300):
        la, lb = rng.integers(0, 9, 2)
        a = "".join(rng.choice(list(alpha), la))
        b = "".join(rng.choice(list(alpha), lb))
        cases.append((a, b, _lev_ref(a, b)))
    for k in (0, 1, 2, 3):
        for a, b, d in cases:
            got = _banded_levenshtein(a, b, k)
            if d <= k:
                assert got == d, (a, b, k, d, got)
            else:
                assert got > k, (a, b, k, d, got)


def test_editdist_pairs_vs_brute(ray_session):
    """The distributed Ed-Join returns EXACTLY the brute-force all-pairs
    result — completeness from the q-gram prefix lemma plus the sentinel
    bucket for gramless strings, precision from the banded verify.  The
    corpus plants identical strings (dist 0), one-typo variants, strings
    shorter than the gram width, and empties."""
    import itertools

    from borges_ray.ops.dedup import editdist_pairs

    rng = np.random.default_rng(12)
    vocab = ["spark", "sprak", "spa", "s", "", "batch", "bath",
             "window join", "window joib", "windom join"]
    strs = [vocab[i] for i in rng.integers(0, len(vocab), 40)]
    strs += ["".join(rng.choice(list("abcd"), n))
             for n in rng.integers(0, 7, 40)]
    df = pd.DataFrame({"doc_id": range(len(strs)), "title": strs})
    got = editdist_pairs(rd.from_pandas(df), "doc_id", "title", max_dist=2)
    exp = []
    for (ia, sa), (ib, sb) in itertools.combinations(
            zip(df.doc_id, df.title), 2):
        d = _lev_ref(sa, sb)
        if d <= 2:
            exp.append((ia, ib, d))
    exp = pd.DataFrame(exp, columns=["id_a", "id_b", "dist"]).sort_values(
        ["id_a", "id_b"], ignore_index=True)
    pd.testing.assert_frame_equal(got, exp)
    assert len(exp) > 50  # the corpus actually exercises the join


def test_editdist_pairs_none_within_max_dist(ray_session):
    """No pair within ``max_dist`` gives an empty frame that still has the
    typed id_a/id_b/dist columns."""
    from borges_ray.ops.dedup import editdist_pairs

    df = pd.DataFrame({"doc_id": [1, 2], "title": ["abcdefghij", "klmnopqrst"]})
    got = editdist_pairs(rd.from_pandas(df), "doc_id", "title", max_dist=1)
    assert got.empty
    assert list(got.columns) == ["id_a", "id_b", "dist"]
    assert (got.dtypes == "int64").all()


def test_editdist_bucket_cap_keeps_precision(ray_session):
    """An adversarially tiny ``max_bucket`` may drop recall (logged) but
    every returned pair still carries its TRUE distance ≤ k."""
    from borges_ray.ops.dedup import editdist_pairs

    strs = ["aaaa"] * 12 + ["aaab", "aabb", "zzzz"]
    df = pd.DataFrame({"doc_id": range(len(strs)), "title": strs})
    got = editdist_pairs(rd.from_pandas(df), "doc_id", "title",
                         max_dist=2, max_bucket=4)
    titles = dict(zip(df.doc_id, df.title))
    assert len(got)
    for r in got.itertuples(index=False):
        assert _lev_ref(titles[r.id_a], titles[r.id_b]) == r.dist
        assert r.dist <= 2


def test_skipgram_counts(ray_session):
    """Windowed co-occurrence: directional pairs at 1..window token
    distance, count threshold, count-desc/(w1,w2)-asc tie order."""
    from borges_ray.ops.lm import skipgram_counts

    df = pd.DataFrame({
        "doc_id": [0, 1, 2],
        "text": ["a b c a b", "a b a b", "x Y x y"],  # lowercase folding
    })
    got = skipgram_counts(rd.from_pandas(df), window=2, min_count=2, k=10)
    # brute force
    import itertools
    from collections import Counter
    c = Counter()
    for t in df.text:
        toks = t.lower().split()
        for i, j in itertools.combinations(range(len(toks)), 2):
            if 1 <= j - i <= 2:
                c[(toks[i], toks[j])] += 1
    exp = sorted(((w, n) for w, n in c.items() if n >= 2),
                 key=lambda x: (-x[1], x[0]))[:10]
    want = pd.DataFrame({"w1": [w[0] for w, _ in exp],
                         "w2": [w[1] for w, _ in exp],
                         "n": [n for _, n in exp]})
    pd.testing.assert_frame_equal(got.reset_index(drop=True), want)


# ---------------------------------------------------------------------------
# KMV pairwise Jaccard
# ---------------------------------------------------------------------------

def test_kmv_unsaturated_is_exact(ray_session):
    """When every sketch holds its full value set (k >= distinct), the KMV
    estimator degenerates to EXACT Jaccard and exact union size."""
    from borges_ray.ops.sketch import kmv_pairwise_jaccard

    rows = ([("a", f"t{i}") for i in range(40)]
            + [("b", f"t{i}") for i in range(20, 60)]
            + [("c", f"t{i}") for i in range(100, 110)])
    df = pd.DataFrame(rows, columns=["g", "v"])
    ds = rd.from_pandas(df.sample(frac=1.0, random_state=7)).repartition(5)
    out = kmv_pairwise_jaccard(ds, "g", "v", k=256)
    ab = out[(out["src_a"] == "a") & (out["src_b"] == "b")].iloc[0]
    assert ab["m"] == 20 and ab["k_used"] == 60 and ab["est_union"] == 60
    assert ab["j_est"] == 20 / 60
    ac = out[(out["src_a"] == "a") & (out["src_b"] == "c")].iloc[0]
    assert ac["m"] == 0 and ac["est_union"] == 50


def test_kmv_saturated_matches_single_process_replay(ray_session):
    """Saturated sketches (k << distinct) must equal a single-process
    replay of the same estimator regardless of batching/partitioning."""
    from borges_ray.ops.dedup import _md5_u64
    from borges_ray.ops.sketch import kmv_pairwise_jaccard

    k = 16
    va = [f"x{i}" for i in range(300)]
    vb = [f"x{i}" for i in range(150, 450)]
    df = pd.DataFrame([("a", v) for v in va] + [("b", v) for v in vb],
                      columns=["g", "v"])
    ds = rd.from_pandas(df.sample(frac=1.0, random_state=3)).repartition(7)
    out = kmv_pairwise_jaccard(ds, "g", "v", k=k).iloc[0]

    ha = np.sort(np.array([_md5_u64(v) for v in set(va)], dtype=np.uint64))[:k]
    hb = np.sort(np.array([_md5_u64(v) for v in set(vb)], dtype=np.uint64))[:k]
    union = np.union1d(ha, hb)
    top = union[:k]
    m = int(np.isin(top, ha).sum() + np.isin(top, hb).sum()) - len(top)
    assert out["m"] == m
    assert out["k_used"] == k
    assert out["est_union"] == (k - 1) * (1 << 64) // int(top[-1])


# ---------------------------------------------------------------------------
# Sorted-neighborhood blocking
# ---------------------------------------------------------------------------

def _brute_snm(df: pd.DataFrame, window: int, verify_prefix: int) -> set:
    s = df.sort_values(["key", "id"], kind="mergesort").reset_index(drop=True)
    pairs = set()
    for i in range(len(s)):
        for j in range(i + 1, min(i + window + 1, len(s))):
            if s["key"][i][:verify_prefix] == s["key"][j][:verify_prefix]:
                pairs.add((int(s["id"][i]), int(s["id"][j]), j - i))
    return pairs


def test_sorted_neighborhood_vs_brute(ray_session):
    """Random keys across 6 partitions with a tiny pairing-group size so
    ghost rows are load-bearing: the pair set must equal the brute-force
    windowed self-join over the globally sorted order."""
    from borges_ray.ops.dedup import sorted_neighborhood_pairs

    rng = np.random.default_rng(11)
    keys = ["".join(rng.choice(list("abc"), size=10)) for _ in range(200)]
    df = pd.DataFrame({"id": np.arange(200, dtype=np.int64), "key": keys})
    ds = rd.from_pandas(df.sample(frac=1.0, random_state=5)).repartition(6)
    out = sorted_neighborhood_pairs(ds, "id", "key", window=4,
                                    verify_prefix=3, group_rows=16)
    got = set(zip(out["id_a"], out["id_b"], out["gap"]))
    assert got == _brute_snm(df, 4, 3)


def test_sorted_neighborhood_duplicate_and_empty_keys(ray_session):
    """Duplicate keys (rank ties broken by id) and empty-string keys must
    rank deterministically and pair like the brute-force reference."""
    from borges_ray.ops.dedup import sorted_neighborhood_pairs

    df = pd.DataFrame({"id": np.arange(12, dtype=np.int64),
                       "key": ["", "", "aa", "aa", "aa", "ab",
                               "b", "b", "ba", "", "aa", "z"]})
    ds = rd.from_pandas(df).repartition(4)
    out = sorted_neighborhood_pairs(ds, "id", "key", window=3,
                                    verify_prefix=2, group_rows=4)
    got = set(zip(out["id_a"], out["id_b"], out["gap"]))
    assert got == _brute_snm(df, 3, 2)


# ---------------------------------------------------------------------------
# BPE pair counts
# ---------------------------------------------------------------------------

def test_bpe_pair_counts_hand_checked(ray_session):
    """'aaab aaab ab' → vocab {aaab:2, ab:1}; pairs: aa 2×2, ab 1×2+1,
    plus single-char words contribute nothing."""
    from borges_ray.ops.textops import bpe_pair_counts

    ds = rd.from_pandas(pd.DataFrame({
        "text": ["aaab aaab", "ab x", "AAAB"]})).repartition(2)
    out = bpe_pair_counts(ds, top=10)
    got = dict(zip(out["pair"], out["cnt"]))
    # vocab: aaab×3 (case-folded), ab×1, x×1
    assert got == {"aa": 6, "ab": 4}


def test_bpe_pair_counts_multibyte(ray_session):
    """CJK pairs survive the UTF-32 packing round-trip."""
    from borges_ray.ops.textops import bpe_pair_counts

    ds = rd.from_pandas(pd.DataFrame({"text": ["你好世界 你好"]}))
    out = bpe_pair_counts(ds, top=10)
    got = dict(zip(out["pair"], out["cnt"]))
    assert got == {"你好": 2, "好世": 1, "世界": 1}


# ---------------------------------------------------------------------------
# k-core peeling
# ---------------------------------------------------------------------------

def _brute_kcore(edges: list[tuple[int, int]], k: int) -> dict[int, int]:
    import collections
    adj = collections.defaultdict(set)
    for u, v in edges:
        if u != v:
            adj[u].add(v)
            adj[v].add(u)
    changed = True
    while changed:
        changed = False
        for n in list(adj):
            if len(adj[n]) < k:
                for m in adj.pop(n):
                    adj[m].discard(n)
                changed = True
    return {n: len(vs) for n, vs in adj.items() if vs}


def test_kcore_vs_brute(ray_session):
    """Random graph across 5 partitions: the peeled core and its degrees
    must equal the sequential reference."""
    from borges_ray.ops.graph import kcore

    rng = np.random.default_rng(23)
    e = rng.integers(0, 60, size=(400, 2))
    df = pd.DataFrame({"src": e[:, 0].astype("int64"),
                       "dst": e[:, 1].astype("int64")})
    ds = rd.from_pandas(df).repartition(5)
    out = kcore(ds, k=5, max_rounds=30).to_pandas()
    got = dict(zip(out["node"], out["deg"]))
    assert got == _brute_kcore([tuple(r) for r in e.tolist()], 5)


def test_kcore_clique_plus_tail(ray_session):
    """A 6-clique with a pendant chain: the chain peels away over several
    rounds (one node per round — the slow-convergence shape) and only the
    clique survives at k=3."""
    from borges_ray.ops.graph import kcore

    clique = [(a, b) for a in range(6) for b in range(a + 1, 6)]
    chain = [(5, 10), (10, 11), (11, 12), (12, 13)]
    df = pd.DataFrame(clique + chain, columns=["src", "dst"]).astype("int64")
    out = kcore(rd.from_pandas(df).repartition(3), k=3,
                max_rounds=10).to_pandas()
    got = dict(zip(out["node"], out["deg"]))
    assert got == {n: 5 for n in range(6)}


def test_kcore_empty_core(ray_session):
    """A tree has no 2-core: typed empty result."""
    from borges_ray.ops.graph import kcore

    df = pd.DataFrame({"src": [0, 0, 1, 1], "dst": [1, 2, 3, 4]}).astype("int64")
    out = kcore(rd.from_pandas(df), k=2, max_rounds=8).to_pandas()
    assert len(out) == 0


# ---------------------------------------------------------------------------
# Corpus-statistics fits
# ---------------------------------------------------------------------------

def test_zipf_fit_exact_power_law(ray_session):
    """A synthetic corpus with counts exactly 64/32/16/8 over ranks
    1,2,3,4 fits slope = -1 (in log2 ratio terms: ln space slope
    = -ln2/ln2 ... verified against the closed form)."""
    from borges_ray.ops.textops import zipf_fit

    words = ["a"] * 64 + ["b"] * 32 + ["c"] * 16 + ["d"] * 8
    ds = rd.from_pandas(pd.DataFrame({"text": [" ".join(words)] })).repartition(1)
    out = zipf_fit(ds, top=4)
    # closed form: y = ln(64) - x * ln2/... ranks 1..4, counts 64,32,16,8
    x = np.log(np.arange(1, 5)); y = np.log([64, 32, 16, 8])
    n = 4
    den = n * (x * x).sum() - x.sum() ** 2
    slope = (n * (x * y).sum() - x.sum() * y.sum()) / den
    assert out["n_points"][0] == 4
    assert abs(out["slope"][0] - round(slope, 6)) < 1e-9


def test_zipf_fit_partition_invariant(ray_session):
    """Same corpus, different partitioning → identical fit (combiner
    associativity)."""
    from borges_ray.ops.textops import zipf_fit

    rng = np.random.default_rng(5)
    docs = [" ".join(rng.choice([f"w{i}" for i in range(50)],
                                size=200, p=None)) for _ in range(40)]
    a = zipf_fit(rd.from_pandas(pd.DataFrame({"text": docs})).repartition(1), top=30)
    b = zipf_fit(rd.from_pandas(pd.DataFrame({"text": docs})).repartition(13), top=30)
    assert a.equals(b)


def test_heaps_law_hand_checked(ray_session):
    """Two buckets: docs 0-1 (bucket 0) introduce 3 distinct tokens over
    4 tokens; docs 2-3 (bucket 1) add 2 new over 4 more.  Points:
    (4,3), (8,5) → beta = ln(5/3)/ln2."""
    from borges_ray.ops.textops import heaps_law

    df = pd.DataFrame({"doc_id": [0, 1, 2, 3],
                       "text": ["a b", "a c", "d b", "e a"]})
    out = heaps_law(rd.from_pandas(df).repartition(2), step=2)
    x = np.log([4.0, 8.0]); y = np.log([3.0, 5.0])
    den = 2 * (x * x).sum() - x.sum() ** 2
    beta = (2 * (x * y).sum() - x.sum() * y.sum()) / den
    assert out["n_points"][0] == 2
    assert abs(out["beta"][0] - round(beta, 6)) < 1e-9


def test_global_rank_matches_row_number(ray_session):
    """global_rank_str over shuffled partitions equals pandas row_number
    by (key, id), including empty keys and duplicate keys."""
    from borges_ray.ops.relational import global_rank_str

    rng = np.random.default_rng(9)
    keys = ["", "zz", "ab"] + ["".join(rng.choice(list("abz"), size=4))
                               for _ in range(120)]
    df = pd.DataFrame({"id": np.arange(len(keys), dtype=np.int64),
                       "key": keys})
    ds = rd.from_pandas(df.sample(frac=1.0, random_state=1)).repartition(7)
    out = global_rank_str(ds, "key", "id").to_pandas()
    want = df.sort_values(["key", "id"], kind="mergesort").reset_index(drop=True)
    want["rnk"] = np.arange(len(want), dtype=np.int64)
    got = out.sort_values("rnk", ignore_index=True)
    assert got[["id", "key", "rnk"]].equals(want[["id", "key", "rnk"]])


def test_winnow_guarantee_and_density(ray_session):
    """The winnowing guarantee: any shared substring of length ≥ k+w-1
    (= 11 here) yields a shared fingerprint; density ≈ 2/(w+1)."""
    from borges_ray.ops.textops import winnow_fingerprints

    rng = np.random.default_rng(3)
    alph = list("abcdefghij ")
    mk = lambda n: "".join(rng.choice(alph, size=n))
    shared = mk(40)
    df = pd.DataFrame({"doc_id": [1, 2, 3],
                       "text": [mk(120) + shared + mk(80),
                                mk(60) + shared + mk(150),
                                mk(200)]})
    out = winnow_fingerprints(rd.from_pandas(df).repartition(2),
                              k=8, w=4).to_pandas()
    f1 = set(out.loc[out["doc_id"] == 1, "fp"])
    f2 = set(out.loc[out["doc_id"] == 2, "fp"])
    assert f1 & f2, "docs sharing a 40-char substring must share a fp"
    # density: selected fraction of grams near 2/(w+1) = 0.4
    n_grams = len(df.loc[0, "text"].replace("  ", " ")) - 8 + 1
    dens = (out["doc_id"] == 1).sum() / n_grams
    assert 0.2 < dens < 0.6


def test_winnow_short_doc_emits_nothing(ray_session):
    """Docs shorter than k+w-1 normalized bytes emit no fingerprints."""
    from borges_ray.ops.textops import winnow_fingerprints

    df = pd.DataFrame({"doc_id": [1, 2], "text": ["tiny text", "x" * 10]})
    out = winnow_fingerprints(rd.from_pandas(df), k=8, w=4).to_pandas()
    assert len(out) == 0


def test_winnow_overlap_ranks_shared_passage(ray_session):
    """Two docs sharing a long passage must outrank unrelated pairs, and
    a boilerplate string present in EVERY doc must not create pairs by
    itself (stop-fingerprint rule with stop < n_docs)."""
    from borges_ray.ops.dedup import winnow_overlap_pairs

    rng = np.random.default_rng(17)
    alph = list("abcdefgh ")
    mk = lambda n: "".join(rng.choice(alph, size=n))
    boiler = "copyright footer all rights reserved"
    shared = mk(60)
    texts = [mk(150) + boiler, mk(150) + boiler]  # unrelated but for boiler
    texts += [shared + mk(100) + boiler, mk(100) + shared + boiler]  # pair
    df = pd.DataFrame({"doc_id": np.arange(4, dtype=np.int64),
                       "text": texts})
    out = winnow_overlap_pairs(rd.from_pandas(df).repartition(2),
                               stop=3, top=10)
    assert len(out) >= 1
    assert (out.iloc[0]["id_a"], out.iloc[0]["id_b"]) == (2, 3)
    # boiler fps are shared by all 4 docs > stop=3 → dropped; the
    # unrelated pair (0,1) may share random fps but far fewer
    top = out.iloc[0]["shared"]
    rest = out[(out["id_a"] != 2) | (out["id_b"] != 3)]["shared"]
    assert rest.empty or rest.max() < top


def test_rendezvous_minimal_churn(ray_session):
    """HRW resize 16→17 moves ≈ 1/17 of keys (binomial tolerance), and
    shards are deterministically reproducible."""
    from borges_ray.ops.sched import rendezvous_shards

    keys = pd.DataFrame({"url": [f"http://h{i % 50}.com/p{i}"
                                 for i in range(3000)]})
    out = rendezvous_shards(rd.from_pandas(keys).repartition(5),
                            "url", n_old=16, n_new=17).to_pandas()
    assert out["n"].sum() == 3000
    frac = out["n_moved"].sum() / 3000
    assert 0.02 < frac < 0.10   # E = 1/17 ≈ 0.059
    out2 = rendezvous_shards(rd.from_pandas(keys).repartition(11),
                             "url", n_old=16, n_new=17).to_pandas()
    assert out.sort_values("shard", ignore_index=True).equals(
        out2.sort_values("shard", ignore_index=True))


def test_leakfree_split_keeps_clusters_together(ray_session):
    """Near-dup clusters must never straddle splits: plant 10 clusters
    of 4 near-identical docs each; every cluster's members get one
    split, and split sizes are roughly 80/10/10 over groups."""
    import __ray_entry__ as entry_mod
    from borges_ray.ops.dedup import minhash_near_dup_pairs_ds, near_dup_labels_ds

    rng = np.random.default_rng(31)
    vocab = [f"tok{i}" for i in range(500)]
    rows = []
    did = 0
    for c in range(10):
        base = list(rng.choice(vocab, size=120))
        for v in range(4):
            t = list(base)
            t[v] = f"var{c}_{v}"          # 1-token variant → J ≈ 0.98
            rows.append((did, " ".join(t)))
            did += 1
    for _ in range(60):                    # singletons
        rows.append((did, " ".join(rng.choice(vocab, size=60))))
        did += 1
    df = pd.DataFrame(rows, columns=["doc_id", "text"])

    import tempfile, os
    with tempfile.TemporaryDirectory() as d:
        df.to_parquet(os.path.join(d, "documents.parquet"))
        out = entry_mod._q_leakfree_split(d)

    # each planted cluster of 4 shares one grp and one split
    for c in range(10):
        ids = list(range(c * 4, c * 4 + 4))
        sub = out[out["doc_id"].isin(ids)]
        assert sub["grp"].nunique() == 1, f"cluster {c} split across groups"
        assert sub["split"].nunique() == 1, f"cluster {c} leaks across splits"
    assert set(out["split"]) <= {"train", "val", "test"}
    assert (out["split"] == "train").mean() > 0.5


def test_hll_union_merge_equals_global(ray_session):
    """Register-merge union estimate must equal the estimate HLL would
    give over the concatenated corpus, and disjoint vocabularies give
    dup_factor ≈ 1."""
    from borges_ray.ops.sketch import hll_count_by, hll_union_by

    rows = ([("a", f"x{i}") for i in range(800)]
            + [("b", f"y{i}") for i in range(800)])
    df = pd.DataFrame(rows, columns=["g", "v"])
    out = hll_union_by(rd.from_pandas(df).repartition(6), "g", "v")
    glob = hll_count_by(
        rd.from_pandas(df.assign(g="all")).repartition(3),
        "g", "v").to_pandas()
    assert out["union_est"][0] == glob["est_distinct"][0]
    assert 0.8 < out["dup_factor"][0] < 1.3


def test_lang_segments_bilingual_doc(ray_session):
    """An en→de→en document segments into exactly three runs with correct
    chunk extents; a pure-CJK block labels zh."""
    from borges_ray.ops.textops import lang_segments

    en = "the cat and the dog went to the house in"           # 10 toks, en
    de = "der hund und die katze ist mit für nicht von"        # 10 toks, de
    zh = " ".join(["你好世界"] * 10)
    df = pd.DataFrame({"doc_id": [7, 8],
                       "text": [f"{en} {de} {en}", zh]})
    out = lang_segments(rd.from_pandas(df).repartition(2),
                        chunk_tokens=10).to_pandas()
    d7 = out[out["doc_id"] == 7].sort_values("seg_idx")
    assert list(d7["lang"]) == ["en", "de", "en"]
    assert list(d7["start_chunk"]) == [0, 1, 2]
    assert list(d7["n_chunks"]) == [1, 1, 1]
    d8 = out[out["doc_id"] == 8]
    assert list(d8["lang"]) == ["zh"] and list(d8["n_chunks"]) == [1]


def test_encode_docs_roundtrip(ray_session):
    """Ids decode back to the original lowercased tokens; below-min_df
    tokens map to -1 and are counted as OOV."""
    from borges_ray.ops.textops import encode_docs

    df = pd.DataFrame({"doc_id": [0, 1, 2],
                       "text": ["Apple banana apple", "banana Cherry rare",
                                "cherry apple banana"]})
    out = encode_docs(rd.from_pandas(df).repartition(3),
                      min_df=2).to_pandas().sort_values("doc_id",
                                                        ignore_index=True)
    # vocab (cnt>=2, sorted): apple=0, banana=1, cherry=2; 'rare' is OOV
    assert list(out["ids"]) == ["0,1,0", "1,2,-1", "2,0,1"]
    assert list(out["n_tokens"]) == [3, 3, 3]
    assert list(out["n_oov"]) == [0, 1, 0]


def test_global_rank_str_single_prefix_skew(ray_session):
    """Adversarial skew: every key shares one 2-char prefix (single
    ranking task) — results must still be exact."""
    from borges_ray.ops.relational import global_rank_str

    keys = [f"aa{i:05d}" for i in range(500)]
    df = pd.DataFrame({"id": np.arange(500, dtype=np.int64), "key": keys})
    ds = rd.from_pandas(df.sample(frac=1.0, random_state=2)).repartition(8)
    out = global_rank_str(ds, "key", "id").to_pandas()
    assert out.sort_values("rnk")["id"].tolist() == list(range(500))


def test_scc_vs_tarjan(ray_session):
    """Random sparse digraph across 5 partitions: labels must equal the
    SCCs of a sequential Tarjan-style reference (min member id)."""
    import sys
    from borges_ray.ops.graph import scc as scc_op

    rng = np.random.default_rng(41)
    e = rng.integers(0, 40, size=(70, 2))
    df = pd.DataFrame({"src": e[:, 0].astype("int64"),
                       "dst": e[:, 1].astype("int64")})
    out = scc_op(rd.from_pandas(df).repartition(5)).to_pandas()
    got = dict(zip(out["node"], out["scc"]))

    # iterative Tarjan
    adj = {}
    nodes = set()
    for u, v in e.tolist():
        if u != v:
            adj.setdefault(u, set()).add(v)
            nodes.update((u, v))
    index = {}; low = {}; on = set(); stack = []; counter = [0]; comp = {}
    for s in sorted(nodes):
        if s in index:
            continue
        work = [(s, iter(sorted(adj.get(s, ()))))]
        index[s] = low[s] = counter[0]; counter[0] += 1
        stack.append(s); on.add(s)
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = counter[0]; counter[0] += 1
                    stack.append(w); on.add(w)
                    work.append((w, iter(sorted(adj.get(w, ())))))
                    advanced = True
                    break
                elif w in on:
                    low[v] = min(low[v], index[w])
            if not advanced:
                work.pop()
                if work:
                    pv = work[-1][0]
                    low[pv] = min(low[pv], low[v])
                if low[v] == index[v]:
                    members = []
                    while True:
                        w = stack.pop(); on.discard(w); members.append(w)
                        if w == v:
                            break
                    m = min(members)
                    for w in members:
                        comp[w] = m
    assert got == comp


def test_scc_distributed_path(ray_session):
    """Force the BSP fixpoint + color split (local_threshold=0) on a graph
    with planted rings, a one-way tendril chain, and cross links; labels
    must equal the local-Tarjan result of the default path."""
    from borges_ray.ops.graph import scc as scc_op

    rows = []
    # two disjoint directed rings (SCCs of size 6 and 4)
    ring1 = [10, 11, 12, 13, 14, 15]
    ring2 = [30, 31, 32, 33]
    for r in (ring1, ring2):
        rows += [(a, b) for a, b in zip(r, r[1:] + r[:1])]
    # tendril chain into ring1 (never part of an SCC)
    rows += [(50, 51), (51, 52), (52, 10)]
    # cross link between rings (one-way: not an SCC merge)
    rows += [(12, 30)]
    df = pd.DataFrame({"src": [a for a, _ in rows],
                       "dst": [b for _, b in rows]}, dtype="int64")
    ds = rd.from_pandas(df).repartition(3)
    got = (scc_op(ds, local_threshold=0, n_buckets=4)
           .to_pandas().sort_values("node", ignore_index=True))
    want = (scc_op(rd.from_pandas(df))  # default path: single-task Tarjan
            .to_pandas().sort_values("node", ignore_index=True))
    pd.testing.assert_frame_equal(got, want)
    assert set(got.loc[got["node"].isin(ring1), "scc"]) == {min(ring1)}
    assert set(got.loc[got["node"].isin(ring2), "scc"]) == {min(ring2)}
    assert (got.loc[got["node"].isin([50, 51, 52]), "scc"].to_numpy()
            == [50, 51, 52]).all()


def test_ppm_wav_codecs(ray_session):
    """REAL netpbm P6 + RIFF/WAVE codecs: round-trip, comment-tolerant
    headers, error paths, and actor-stage features vs hand computation."""
    import numpy as np

    from borges_ray.ops.multimodal import (PpmFeatures, WavFeatures,
                                           decode_ppm, decode_wav,
                                           synth_ppm, synth_wav)

    img = decode_ppm(synth_ppm(42))
    assert img.shape == (12, 16, 3)
    assert img[5, 7, 2] == (42 * 31 + 7 * 7 + 5 * 13 + 2 * 101) % 256
    # comment + odd whitespace in header per netpbm spec
    wonky = b"P6 # c1\n# c2\n 16\t12 # c3\n255\n" + img.tobytes()
    assert (decode_ppm(wonky) == img).all()
    with pytest.raises(ValueError):
        decode_ppm(b"P5\n1 1\n255\n\x00")
    with pytest.raises(ValueError):
        decode_ppm(synth_ppm(1)[:-5])

    s, rate = decode_wav(synth_wav(7))
    assert rate == 8000 and len(s) == 1024
    assert s[3] == ((7 * 7 + 3 * 13) % 4096) - 2048
    with pytest.raises(ValueError):
        decode_wav(b"RIFFxxxxWAVX")
    # stereo rejected (honest PCM16-mono boundary)
    import struct
    stereo = (b"RIFF" + struct.pack("<I", 40) + b"WAVE"
              + b"fmt " + struct.pack("<IHHIIHH", 16, 1, 2, 8000,
                                      32000, 4, 16)
              + b"data" + struct.pack("<I", 4) + b"\0\0\0\0")
    with pytest.raises(ValueError):
        decode_wav(stereo)

    pf = PpmFeatures()
    out = pf(pd.DataFrame({"doc_id": [3], "payload": [synth_ppm(3)]}))
    want_r = img_mean = sum((3 * 31 + x * 7 + y * 13) % 256
                            for x in range(16) for y in range(12)) / 192.0
    assert abs(out["mean_r"][0] - round(want_r, 6)) < 1e-9
    wf = WavFeatures()
    out = wf(pd.DataFrame({"doc_id": [3], "payload": [synth_wav(3)]}))
    sam = np.array([((3 * 7 + i * 13) % 4096) - 2048 for i in range(1024)])
    assert out["n_samples"][0] == 1024
    assert abs(out["rms"][0]
               - round(float(np.sqrt((sam.astype(float) ** 2).mean())), 6)) \
        < 1e-6
    nn = sam >= 0
    assert out["zero_crossings"][0] == int((nn[1:] != nn[:-1]).sum())


def test_ppm_ahash_keeps_bit_63():
    """The aHash keeps all 64 bits: a gray plane whose only bright cell is
    the last of the 8x8 grid sets bit 63, stored as the int64 view."""
    from borges_ray.ops.multimodal import PpmFeatures

    px = np.zeros((8, 8, 3), dtype=np.uint8)
    px[7, 7] = 255
    bright_last = b"P6\n8 8\n255\n" + px.tobytes()
    px[0, 0] = 255
    both_ends = b"P6\n8 8\n255\n" + px.tobytes()
    out = PpmFeatures()(pd.DataFrame({"doc_id": [1, 2],
                                      "payload": [bright_last, both_ends]}))
    assert out["ahash"].tolist() == [-(1 << 63), 1 - (1 << 63)]


def test_ahash_neardup_exact_recall(ray_session):
    """Multi-index Hamming banding must equal brute-force popcount pairs
    for max_dist < bands (pigeonhole recall)."""
    import numpy as np

    from borges_ray.ops.multimodal import ahash_neardup

    rng = np.random.default_rng(5)
    base = rng.integers(0, 1 << 62, 40, dtype=np.int64)
    # planted near-dups: flip ≤3 random bits of some hashes
    rows = []
    for i, h in enumerate(base.tolist()):
        rows.append((2 * i, h))
        flips = rng.integers(0, 63, rng.integers(0, 4))
        h2 = h
        for f in np.unique(flips):
            h2 ^= 1 << int(f)
        rows.append((2 * i + 1, h2))
    df = pd.DataFrame(rows, columns=["doc_id", "ahash"]).astype("int64")
    got = (ahash_neardup(rd.from_pandas(df).repartition(4),
                         max_dist=3, bands=4).to_pandas()
           .sort_values(["id_a", "id_b"], ignore_index=True))

    want = []
    hs = dict(zip(df["doc_id"], df["ahash"]))
    ids = sorted(hs)
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            d = bin((hs[a] ^ hs[b]) & ((1 << 63) - 1)).count("1") \
                + (1 if ((hs[a] ^ hs[b]) >> 63) & 1 else 0)
            if d <= 3:
                want.append((a, b, d))
    want_df = pd.DataFrame(want, columns=["id_a", "id_b", "dist"]) \
        .astype("int64").sort_values(["id_a", "id_b"], ignore_index=True)
    pd.testing.assert_frame_equal(got, want_df)


def test_triangle_counts_undirected_no_deg(ray_session):
    """Regression: undirected=True without a caller degree table must not
    crash (the broadcast-orient dispatch needs an edge stream) and must
    count exactly."""
    from borges_ray.ops.graph import triangle_counts

    und = pd.DataFrame({"u": [0, 0, 1, 0, 2], "v": [1, 2, 2, 3, 3]})
    out = (triangle_counts(rd.from_pandas(und), undirected=True)
           .to_pandas().sort_values("node", ignore_index=True))
    assert out.to_dict("records") == [
        {"node": 0, "n_triangles": 2}, {"node": 1, "n_triangles": 1},
        {"node": 2, "n_triangles": 2}, {"node": 3, "n_triangles": 1}]


def test_y4m_codec(ray_session):
    """REAL YUV4MPEG2 codec: round-trip vs the pixel formula, truncation
    raises, non-444 chroma rejected, actor-stage means exact."""
    from borges_ray.ops.multimodal import (Y4mFrameFeatures, decode_y4m,
                                           synth_y4m)

    f, w, h = decode_y4m(synth_y4m(9, n_frames=4))
    assert (f.shape, w, h) == ((4, 3, 12, 16), 16, 12)
    assert f[3, 2, 11, 15] == (9 * 31 + 3 * 59 + 15 * 7 + 11 * 13
                               + 2 * 101) % 256
    with pytest.raises(ValueError):
        decode_y4m(synth_y4m(1)[:-3])
    with pytest.raises(ValueError):
        decode_y4m(b"YUV4MPEG2 W2 H2 C420\nFRAME\n" + b"\0" * 6)

    st = Y4mFrameFeatures(stride=3)
    out = st(pd.DataFrame({"doc_id": [5], "payload": [synth_y4m(5)]}))
    assert list(out["frame_idx"]) == [0, 3]
    want = sum((5 * 31 + 0 * 59 + x * 7 + y * 13) % 256
               for x in range(16) for y in range(12)) / 192.0
    assert abs(out["luma_mean"][0] - round(want, 6)) < 1e-9


# Every size-guarded lookup site on the shuffle side of its guard: the
# tests these call run the broadcast side at the default guard.


def test_clustering_coefficient_known_graph_shuffle(ray_session, shuffle_guard):
    test_clustering_coefficient_known_graph(ray_session)


def test_mirror_hosts_jaccard_shuffle(ray_session, shuffle_guard):
    test_mirror_hosts_jaccard(ray_session)


def test_degree_assortativity_star_shuffle(ray_session, shuffle_guard):
    test_degree_assortativity_star(ray_session)


def test_degree_assortativity_regular_shuffle(ray_session, shuffle_guard):
    test_degree_assortativity_regular(ray_session)


def test_cocitation_known_graph_shuffle(ray_session, shuffle_guard):
    test_cocitation_known_graph(ray_session)


def test_kcore_vs_brute_shuffle(ray_session, shuffle_guard):
    test_kcore_vs_brute(ray_session)


def test_scc_distributed_path_shuffle(ray_session, shuffle_guard):
    test_scc_distributed_path(ray_session)


def test_editdist_pairs_vs_brute_shuffle(ray_session, shuffle_guard):
    test_editdist_pairs_vs_brute(ray_session)
