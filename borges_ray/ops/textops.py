"""Text-analysis operators for large-scale training-data pipelines.

All kernels are vectorized (pandas ``.str`` / numpy over codepoints /
compiled regex applied per batch) and pure — no model downloads, no network.
Stateful pieces (compiled patterns, stopword banks) live in callable-class
``__init__`` so they build once per actor, not once per batch.

These generalize the reference's scalar string kernels (SURVEY.md §2.9):
whitespace collapse (``download_abstract.py:71-73``), acronym/stopword banks
(``aip_journals.py:40-59``), CJK char-class language rules
(``article_xml_extractor.py:34-49``).
"""

from __future__ import annotations

import re

import numpy as np
import pandas as pd
import ray.data as rd

from ..extract import CJK_RANGES, _codepoints

STOPWORDS = frozenset(
    "the a an and or of to in on for with at by from as is are was were be been it this that".split()
)

#: BPE-ish token pattern: word pieces, numbers, or single non-space symbols
#: (a public GPT-2-style pre-tokenizer shape, re-implemented with stdlib re).
TOKEN_RE = re.compile(r"[A-Za-z]+|\d+|[^\sA-Za-z\d]")

# codepoint class bits: the exact predicates of the count regexes
_SPACE, _ALPHA, _DIGIT, _WORD = 1, 2, 4, 8
_CLASS_RES = ((_SPACE, re.compile(r"\s")), (_DIGIT, re.compile(r"\d")),
              (_WORD, re.compile(r"\w")))


def _char_class(c: str) -> int:
    bits = sum(bit for bit, rx in _CLASS_RES if rx.match(c))
    return bits | (_ALPHA if "A" <= c <= "Z" or "a" <= c <= "z" else 0)


_ASCII_CLASS = np.array([_char_class(chr(i)) for i in range(128)], dtype=np.uint8)
# stopwords as little-endian packed ASCII bytes
_STOP_MAXLEN = max(map(len, STOPWORDS))
_STOP_KEYS = np.array([int.from_bytes(w.encode(), "little") for w in STOPWORDS], np.int64)


def text_counts(texts: list[str]) -> dict[str, np.ndarray]:
    r"""Every token/quality count per text from ONE codepoint-class pass
    (ASCII table + the batch's distinct non-ASCII codepoints through the
    ``re`` predicates; run starts and class totals summed per text):
    ``n_chars``, ``n_ws_tokens`` (``len(t.split())``), ``n_bpe_tokens``
    (``TOKEN_RE`` matches), ``n_words``/``word_chars``/``n_stop`` (the
    ``[A-Za-z]+`` words, their letters, stopword hits), ``n_punct``
    (``[^\w\s]`` chars)."""
    cp, offsets = _codepoints(texts)
    n_chars = np.diff(offsets)
    filled = n_chars > 0
    first, last = offsets[:-1][filled], offsets[1:][filled] - 1

    cls = _ASCII_CLASS.take(cp, mode="clip")  # non-ASCII rows are set below
    hi = np.flatnonzero(cp > 127)
    if len(hi):
        uniq, inv = np.unique(cp[hi], return_inverse=True)
        cls[hi] = np.array([_char_class(chr(c)) for c in uniq.tolist()],
                           dtype=np.uint8)[inv]
    space, alpha, digit, word = ((cls & bit) != 0 for bit in (_SPACE, _ALPHA, _DIGIT, _WORD))

    # int32 sums are exact while the batch holds < 2^31 codepoints
    acc = np.int32 if len(cp) < 1 << 31 else np.int64

    def per_text(x: np.ndarray) -> np.ndarray:
        out = np.zeros(len(texts), dtype=np.int64)
        if len(first):
            out[filled] = np.add.reduceat(x.view(np.uint8), first, dtype=acc)
        return out

    def run_starts(x: np.ndarray) -> np.ndarray:
        s = x.copy()
        s[1:] &= ~x[:-1]
        s[first] = x[first]
        return s

    alpha_starts = run_starts(alpha)
    n_words = per_text(alpha_starts)
    # stopword hits: letter runs no longer than the longest stopword,
    # lower-cased and packed to integer keys
    alpha_ends = alpha.copy()
    alpha_ends[:-1] &= ~alpha[1:]
    alpha_ends[last] = alpha[last]
    ps, pe = np.flatnonzero(alpha_starts), np.flatnonzero(alpha_ends)
    short = pe - ps < _STOP_MAXLEN
    ps, length = ps[short], pe[short] - ps[short] + 1
    key = np.zeros(len(ps), dtype=np.int64)
    for j in range(_STOP_MAXLEN):
        m = length > j
        key[m] |= (cp[ps[m] + j] | 32).astype(np.int64) << (8 * j)
    hits = ps[np.isin(key, _STOP_KEYS)]

    not_space = ~space
    return {
        "n_chars": n_chars,
        "n_ws_tokens": per_text(run_starts(not_space)),
        "n_bpe_tokens": n_words + per_text(run_starts(digit))
        + per_text(not_space & ~alpha & ~digit),
        "n_words": n_words,
        "word_chars": per_text(alpha),
        "n_stop": np.diff(np.searchsorted(hits, offsets)),
        "n_punct": per_text(not_space & ~word),
    }


def quality_ratios(c: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """punct / stopword / mean-word-length ratios from :func:`text_counts`,
    rounded to 6 dp (zero denominators count as 1)."""
    return {col: np.round(c[num] / np.maximum(c[den], 1), 6) for col, num, den in (
        ("punct_ratio", "n_punct", "n_chars"), ("stopword_ratio", "n_stop", "n_words"),
        ("mean_word_len", "word_chars", "n_words"))}


def token_count_batch(texts: pd.Series) -> tuple[pd.Series, pd.Series]:
    """(whitespace_tokens, bpe_ish_tokens) per text (a view on
    :func:`text_counts`)."""
    c = text_counts(texts.fillna("").tolist())
    return (pd.Series(c["n_ws_tokens"], index=texts.index, name=texts.name),
            pd.Series(c["n_bpe_tokens"], index=texts.index, name=texts.name))


class QualityScorer:
    """Per-document quality signals: length, punctuation ratio, stopword
    ratio, mean word length — the standard cheap pre-training filters
    (a view on :func:`text_counts`)."""

    def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
        c = text_counts(df["text"].fillna("").tolist())
        out = df.copy()
        out["n_chars"] = c["n_chars"]
        out["n_words"] = c["n_words"]
        for col, v in quality_ratios(c).items():
            out[col] = v
        return out


class LangId:
    """Heuristic language ID over Unicode char classes + stopword hits.

    Classes: ``cjk`` (CJK codepoint share ≥ 0.25 of letters), else the
    latin-script language whose marker-word bank hits most (en/de/fr/es),
    else ``und``.  Deterministic; banks built once per actor."""

    BANKS = {
        "en": frozenset("the and of to in that with for is are".split()),
        "de": frozenset("der die das und ist mit für nicht von ein".split()),
        "fr": frozenset("le la les et de des est pour avec une".split()),
        "es": frozenset("el la los y de en que es para con una".split()),
    }

    def __init__(self):
        self.word_re = re.compile(r"[^\W\d_]+", re.UNICODE)

    def _cjk_share(self, texts: pd.Series) -> np.ndarray:
        cp, offsets = _codepoints(texts.tolist())
        is_cjk = np.zeros(len(cp), dtype=bool)
        for lo, hi in CJK_RANGES:
            is_cjk |= (cp >= lo) & (cp <= hi)
        n = np.diff(offsets)
        out = np.zeros(len(texts))
        if n.any():
            out[n > 0] = np.add.reduceat(is_cjk, offsets[:-1][n > 0], dtype=np.int64) / n[n > 0]
        return out

    def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
        texts = df["text"].fillna("")
        share = self._cjk_share(texts)
        words = texts.str.lower().str.findall(self.word_re.pattern)
        preds = []
        for i, ws in enumerate(words):
            if share[i] >= 0.25:
                preds.append("zh")
                continue
            scores = {lang: sum(1 for w in ws if w in bank) for lang, bank in self.BANKS.items()}
            best = max(scores, key=lambda l: (scores[l], l))
            preds.append(best if scores[best] > 0 else "und")
        out = df.copy()
        out["pred_lang"] = preds
        return out


class PiiRedactor:
    """PII scrubbing for web-scale corpora: emails, NANP-style phone
    numbers, and IPv4 addresses are replaced by typed placeholder tokens.

    Patterns are chosen to mean the SAME thing in Python ``re`` and in
    RE2-style engines (DuckDB ``regexp_replace``) so the operator is
    SQL-oracle-checkable: character classes, bounded repetition and ``\\b``
    only — no lookarounds.  Redaction is sequential (email → phone → ip)
    and each count is taken on the text as it stood BEFORE that pattern's
    own pass, so engines agree even when patterns could overlap.

    Compile-once state: use as an actor-pool callable class
    (``map_batches(PiiRedactor, concurrency=N)``)."""

    EMAIL = r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}"
    PHONE = r"\b\d{3}-\d{3}-\d{4}\b"
    IPV4 = r"\b(?:\d{1,3}\.){3}\d{1,3}\b"

    def __init__(self, text_col: str = "text"):
        self.text_col = text_col
        self.steps = [
            ("n_emails", re.compile(self.EMAIL), "<EMAIL>"),
            ("n_phones", re.compile(self.PHONE), "<PHONE>"),
            ("n_ips", re.compile(self.IPV4), "<IP>"),
        ]

    def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
        out = df.copy()
        texts = df[self.text_col].fillna("")
        for count_col, pat, repl in self.steps:
            out[count_col] = texts.str.count(pat.pattern).astype("int64")
            texts = texts.str.replace(pat.pattern, repl, regex=True)
        out[self.text_col] = texts
        return out


FP_BASE = np.uint64(1_000_003)

_POW_CACHE: dict[int, np.ndarray] = {}


def _powers(base: int, n: int) -> np.ndarray:
    """base^k mod 2^64 for k in [0, n) (module-cached per base, extended
    by whole blocks: ``t[m:m+j] = t[:j] · base^m``, wrapping — stable)."""
    t = _POW_CACHE.get(base, np.ones(1, dtype=np.uint64))
    while len(t) < n:
        step = np.uint64(int(t[-1]) * base % (1 << 64))
        t = np.concatenate([t, t[: n - len(t)] * step])
    _POW_CACHE[base] = t
    return t


def _pow_table(n: int) -> np.ndarray:
    """FP_BASE^k mod 2^64 for k in [0, n)."""
    return _powers(int(FP_BASE), n)


def _inv_pow_table(n: int) -> np.ndarray:
    """FP_BASE^-k mod 2^64 for k in [0, n) (the base is odd, hence
    invertible mod 2^64)."""
    return _powers(pow(int(FP_BASE), -1, 1 << 64), n)


_FP_CHUNK_BYTES = 1 << 16


def fingerprint_splits(splits: list[list[str]]) -> np.ndarray:
    """:func:`fingerprint_batch` of whitespace-split texts (normalized text
    ``" ".join(tokens)``), vectorized over the batch's bytes in chunks of
    about ``_FP_CHUNK_BYTES``: byte ``i`` of a chunk ending at ``c`` weighs
    ``FP_BASE^(c-1-i)``; each text's sum is then unshifted by
    ``FP_BASE^-(c-e)`` for its end ``e``."""
    norm = [" ".join(toks).encode("utf-8") for toks in splits]
    lens = np.fromiter(map(len, norm), dtype=np.int64, count=len(norm))
    out = np.zeros(len(norm), dtype=np.uint64)
    nz = np.flatnonzero(lens)
    data = np.frombuffer(b"".join(norm), dtype=np.uint8)
    ends, lens = np.cumsum(lens)[nz], lens[nz]
    starts = ends - lens
    lo = 0
    while lo < len(nz):
        hi = max(lo + 1, int(np.searchsorted(ends, starts[lo] + _FP_CHUNK_BYTES, "right")))
        s0, s1 = starts[lo], ends[hi - 1]
        terms = np.multiply(data[s0:s1], _pow_table(s1 - s0)[s1 - s0 - 1::-1],
                            dtype=np.uint64)  # wraps mod 2^64 — stable
        out[nz[lo:hi]] = (np.add.reduceat(terms, starts[lo:hi] - s0)
                          * _inv_pow_table(s1 - s0)[s1 - ends[lo:hi]])
        lo = hi
    return out


def fingerprint_batch(texts: pd.Series) -> pd.Series:
    """Deterministic polynomial rolling-hash fingerprint (mod 2^64) of the
    whitespace-normalized UTF-8 text (document identity for exact/near
    dedup ledgers) — stable across processes and platforms."""
    fp = fingerprint_splits([t.split() for t in texts.fillna("")])
    return pd.Series(fp, index=texts.index, dtype="uint64")


def tfidf_top_terms(ds: rd.Dataset, *, group_col: str = "lang",
                    id_col: str = "doc_id", text_col: str = "text",
                    k: int = 10) -> rd.Dataset:
    """Top-k TF-IDF terms per group (the corpus-profiling op behind
    keyword dashboards / domain-mix audits): term frequency aggregated
    per (group, token), document frequency corpus-wide,
    ``score = tf_group · ln(N / df)`` rounded to 6 dp, deterministic
    (score desc, token asc) tiebreak.

    Scale shape: per-batch combiners collapse to (group, token, tf) /
    (token, df) partials before the two keys-only count shuffles; the
    tf×df join is a distributed hash join on token; top-k per group uses
    the combiner-bounded :func:`~borges_ray.ops.relational.topk_per_group`.
    The corpus doc count N is FOLDED into the df aggregate (one sentinel
    row per batch under the token ``" "``, which whitespace splitting can
    never produce) — no separate corpus count pass; the driver reads N back
    as one row off the already-spilled df table."""
    from .relational import grouped_agg, hash_join, spill_point, topk_per_group

    _SENT = " "  # impossible token: split() never yields whitespace

    def tok_tf(df: pd.DataFrame) -> pd.DataFrame:
        rows = df[[group_col, id_col]].copy()
        rows["token"] = df[text_col].fillna("").str.split()
        ex = rows.explode("token", ignore_index=True).dropna(subset=["token"])
        g = ex.groupby([group_col, id_col, "token"], sort=False).size()
        out = g.rename("tf").reset_index()
        out["one"] = np.int64(1)
        sent = pd.DataFrame({group_col: [None], id_col: [-1],
                             "token": [_SENT], "tf": [np.int64(0)],
                             "one": [np.int64(len(df))]})
        return pd.concat([out, sent], ignore_index=True)

    per_doc = ds.map_batches(tok_tf, batch_format="pandas")

    tf_group = grouped_agg(per_doc.select_columns([group_col, "token", "tf"]),
                           [group_col, "token"], {"tf_sum": ("sum", "tf")})
    # df per token is the number of (doc, token) rows = sum of `one`; the
    # sentinel's sum is the corpus doc count N
    dfreq = spill_point(
        grouped_agg(per_doc.select_columns(["token", "one"]),
                    ["token"], {"df": ("sum", "one")}), "tfidf_df")
    n_docs = int(dfreq.map_batches(
        lambda df: df[df["token"] == _SENT], batch_format="pandas"
    ).to_pandas()["df"].sum())

    scored = hash_join(tf_group, dfreq, on=["token"])

    def score(df: pd.DataFrame) -> pd.DataFrame:
        out = df[df["token"] != _SENT].copy()
        out["score"] = np.round(
            out["tf_sum"].to_numpy(dtype=np.float64)
            * np.log(float(n_docs) / out["df"].to_numpy(dtype=np.float64)), 6)
        return out[[group_col, "token", "score"]]

    return topk_per_group(scored.map_batches(score, batch_format="pandas"),
                          group_col, ["score", "token"], k,
                          descending=[True, False])


def add_text_stats(ds: rd.Dataset) -> rd.Dataset:
    """documents → + n_ws_tokens, n_bpe_tokens, fingerprint columns."""

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        ws, bpe = token_count_batch(df["text"].fillna(""))
        out = df.copy()
        out["n_ws_tokens"] = ws
        out["n_bpe_tokens"] = bpe
        out["fingerprint"] = fingerprint_batch(df["text"])
        return out

    return ds.map_batches(fn, batch_format="pandas")


class HashedLinearScorer:
    """fasttext-style linear quality classifier over HASHED token features —
    the model-scoring filter stage of LLM data pipelines (CCNet/LLaMA-style
    quality models), expressed as a compile-once stateful class for
    ``map_batches(HashedLinearScorer, concurrency=N)``.

    Features are md5-lower-64 token hashes mod ``dim`` (bit-identical to
    DuckDB ``md5_number_lower``), mean-pooled under a deterministic integer
    weight table ``w[b] = (b·A + B) mod M`` — a stand-in for trained weights
    with the same memory/compute shape (the real model would load its
    weight vector in ``__init__`` exactly like this).  The score is
    ``sum(w[h(tok)]) / (n·M) - 0.5`` with ONE float division, so the SQL
    oracle reproduces it to the last bit (integer sums are exact in both
    engines).  Empty documents score 0.0."""

    A = 2654435761
    B = 97
    M = 1000003

    def __init__(self, dim: int = 4096):
        b = np.arange(dim, dtype=np.int64)
        self.w = (b * self.A + self.B) % self.M          # exact ints
        self.dim = dim

    def score(self, text: str) -> float:
        from .dedup import _md5_token_hashes

        toks = text.split()
        if not toks:
            return 0.0
        h = (_md5_token_hashes(toks) % np.uint64(self.dim)).astype(np.int64)
        s = int(self.w[h].sum())
        return round(s / (len(toks) * float(self.M)) - 0.5, 6)

    def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
        out = df.copy()
        out["model_score"] = [self.score(t) for t in df["text"].fillna("")]
        return out


def line_filter(ds: rd.Dataset, id_col: str = "doc_id",
                text_col: str = "text", *, width: int = 10,
                min_distinct: int = 6, blocklist: tuple[str, ...] = ("slow",),
                min_lines: int = 2) -> rd.Dataset:
    """C4-style LINE-level cleaning (Raffel et al. 2020 §2.2): split each
    document into lines, drop lines failing a per-line predicate (too
    repetitive: fewer than ``min_distinct`` distinct tokens; or containing
    a blocklist term), rebuild the document from surviving lines in
    order, and drop documents left with fewer than ``min_lines`` lines.

    The reference corpus' synthetic text has no newlines, so a "line"
    here is a fixed ``width``-token window (the same splitter
    ``ccnet.paragraph_dedup`` uses); the operator semantics — per-line
    predicate, blocklist, ordered rebuild, min-line document gate — are
    C4's and independent of the splitter.

    Scale shape: lines never leave their document, so this is ONE
    embarrassingly-parallel ``map_batches`` pass — no shuffle at all (vs
    paragraph dedup, whose first-occurrence rule is corpus-global).
    Returns (id_col, n_lines_kept, text_col).
    """
    block = frozenset(blocklist)

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        ids: list[int] = []
        kept_n: list[int] = []
        texts: list[str] = []
        for doc_id, toks in zip(df[id_col].to_numpy(),
                                df[text_col].fillna("").str.split()):
            kept: list[str] = []
            for p in range(0, len(toks), width):
                line = toks[p:p + width]
                if len(set(line)) >= min_distinct and block.isdisjoint(line):
                    kept.append(" ".join(line))
            if len(kept) >= min_lines:
                ids.append(doc_id)
                kept_n.append(len(kept))
                texts.append(" ".join(kept))
        return pd.DataFrame({id_col: np.asarray(ids, dtype=np.int64),
                             "n_lines_kept": np.asarray(kept_n, dtype=np.int64),
                             text_col: texts})

    return ds.map_batches(fn, batch_format="pandas")


#: CCNet-style aggressive normalization before hashing (Wenzek et al.
#: 2019 §3.1: lowercase, digit folding, punctuation/accent stripping) —
#: the canonical form exact dedup should key on so case/punct/digit
#: variants of one page collapse.
def normalize_text(s: pd.Series) -> pd.Series:
    s = s.fillna("").str.lower()
    s = s.str.replace(r"\d", "0", regex=True)
    s = s.str.replace(r"[^\w\s]", "", regex=True, flags=re.ASCII)
    return s.str.replace(r"\s+", " ", regex=True).str.strip()


def normalized_dedup(ds: rd.Dataset, id_col: str = "doc_id",
                     text_col: str = "text") -> rd.Dataset:
    """Exact dedup keyed on the CCNet-NORMALIZED text: for each distinct
    normalized form, the min-id occurrence wins and ``n_variants`` counts
    how many raw documents collapsed onto it.

    Scale shape: normalization and the 64-bit content fingerprint happen
    inside one map_batches pass, so the ONE exchange moves keys-only
    ``(fp u64, id i64)`` rows — the text itself never shuffles (same
    16-byte dedup shuffle as ``dedup.exact_dedup``'s ingest path).
    Returns (id_col, n_variants).
    """
    from .relational import grouped_agg

    def keys(df: pd.DataFrame) -> pd.DataFrame:
        fp = fingerprint_batch(normalize_text(df[text_col]))
        return pd.DataFrame({"__fp": fp.astype(np.uint64),
                             id_col: df[id_col].astype("int64")})

    keyed = ds.map_batches(keys, batch_format="pandas")
    agg = grouped_agg(keyed, ["__fp"],
                      {id_col: ("min", id_col),
                       "n_variants": ("count", id_col)})
    return agg.map_batches(lambda df: df[[id_col, "n_variants"]],
                           batch_format="pandas")


# ---------------------------------------------------------------------------
# Gopher-style document quality rules
# ---------------------------------------------------------------------------

#: Gopher's "required words" bank (Rae et al. 2021 §A1.1: a document must
#: contain at least min_hits of these to survive the rule bundle).
GOPHER_REQUIRED = ("the", "be", "to", "of", "and", "that", "have", "with")
_GOPHER_REQUIRED_SET = frozenset(GOPHER_REQUIRED)
_ASCII_LETTERS = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz")


class GopherRules:
    """Gopher-style heuristic quality-rule bundle (Rae et al. 2021, §A1.1),
    evaluated per document with EXACT integer arithmetic so a SQL oracle can
    reproduce every flag bit-for-bit (no float-boundary ties):

    - ``ok_words``:  min_words <= n_words <= max_words
    - ``ok_mwl``:    mean word length in [mwl_lo, mwl_hi], tested as
                     ``mwl_lo_num*n_words <= mwl_den*word_chars`` etc. with
                     the bounds given as exact rationals (num, den)
    - ``ok_sym``:    (count('#') + count('...')) / n_words < 0.1, tested as
                     ``10*symbols < n_words``
    - ``ok_alpha``:  >= 80% of words contain an ASCII letter, tested as
                     ``5*n_alpha >= 4*n_words``
    - ``ok_req``:    at least ``min_req_hits`` distinct GOPHER_REQUIRED
                     words occur (whitespace-delimited, case-folded)

    ``keep`` is the conjunction.  Every count comes from one whitespace
    split per text (words are the ``\\S+`` runs); the text column is
    dropped on output so only (id, counters, flags) flow on.
    """

    def __init__(self, id_col: str = "doc_id", text_col: str = "text", *,
                 min_words: int = 50, max_words: int = 100000,
                 mwl_lo: tuple[int, int] = (3, 1), mwl_hi: tuple[int, int] = (10, 1),
                 min_req_hits: int = 2):
        self.id_col, self.text_col = id_col, text_col
        self.min_words, self.max_words = min_words, max_words
        self.mwl_lo, self.mwl_hi = mwl_lo, mwl_hi
        self.min_req_hits = min_req_hits

    def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
        texts = df[self.text_col].fillna("").tolist()
        n = len(texts)
        n_words, word_chars, n_alpha, n_sym, hits = (
            np.empty(n, dtype=np.int64) for _ in range(5))
        for i, t in enumerate(texts):
            toks = t.split()  # the \S+ runs: same whitespace class as re's \s
            n_words[i] = len(toks)
            word_chars[i] = sum(map(len, toks))
            n_alpha[i] = sum(not _ASCII_LETTERS.isdisjoint(w) for w in toks)
            n_sym[i] = t.count("#") + t.count("...")
            hits[i] = len(_GOPHER_REQUIRED_SET.intersection(map(str.lower, toks)))
        (lo_n, lo_d), (hi_n, hi_d) = self.mwl_lo, self.mwl_hi
        ok_words = (n_words >= self.min_words) & (n_words <= self.max_words)
        ok_mwl = (lo_d * word_chars >= lo_n * n_words) & (hi_d * word_chars <= hi_n * n_words)
        ok_sym = 10 * n_sym < n_words
        ok_alpha = 5 * n_alpha >= 4 * n_words
        ok_req = hits >= self.min_req_hits
        return pd.DataFrame({
            self.id_col: df[self.id_col].astype("int64"),
            "n_words": n_words,
            "word_chars": word_chars,
            "req_hits": hits,
            "ok_words": ok_words,
            "ok_mwl": ok_mwl,
            "ok_sym": ok_sym,
            "ok_alpha": ok_alpha,
            "ok_req": ok_req,
            "keep": ok_words & ok_mwl & ok_sym & ok_alpha & ok_req,
        })


def gopher_quality(ds: rd.Dataset, **kw) -> rd.Dataset:
    """Apply the Gopher rule bundle as one shuffle-free map_batches pass.
    Purely embarrassingly parallel: at 100 TB this is a single streamed
    scan with no exchange — the text column dies inside the stage."""
    return ds.map_batches(GopherRules(**kw), batch_format="pandas")


def soft_dedup_weights(ds: rd.Dataset, id_col: str = "doc_id",
                       text_col: str = "text") -> rd.Dataset:
    """SoftDeDup-style duplication DOWN-WEIGHTING (He et al. 2024): instead
    of dropping duplicates, every document gets sampling weight
    ``1 / n_dups`` where ``n_dups`` counts the documents sharing its
    CCNet-normalized content fingerprint — a duplicated page contributes
    one document's worth of training mass in total, split across copies.

    Scale shape: TWO keys-only exchanges, text never moves — (a) a 16-byte
    ``(fp, 1)`` count combine, (b) an fp-keyed hash join of (id, fp) rows
    against the tiny per-fp count table.  Returns (id_col, n_dups, weight).
    """
    from .relational import grouped_agg, hash_join

    def keys(df: pd.DataFrame) -> pd.DataFrame:
        fp = fingerprint_batch(normalize_text(df[text_col]))
        # int64 view: join/groupby key dtype kept uniform across the engine
        return pd.DataFrame({"__fp": fp.to_numpy().view(np.int64),
                             id_col: df[id_col].astype("int64")})

    keyed = ds.map_batches(keys, batch_format="pandas")
    counts = grouped_agg(keyed, ["__fp"], {"n_dups": ("count", id_col)})
    joined = hash_join(keyed, counts, on=["__fp"])

    def fin(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            id_col: df[id_col].astype("int64"),
            "n_dups": df["n_dups"].astype("int64"),
            "weight": (1.0 / df["n_dups"].astype("float64")).round(6),
        })

    return joined.map_batches(fin, batch_format="pandas")


def kwic_extract(ds: rd.Dataset, term: str, *, id_col: str = "doc_id",
                 text_col: str = "text", window: int = 30) -> rd.Dataset:
    """Keyword-in-context (KWIC) extraction — the search-result snippet
    op: for every document containing ``term`` (exact, case-sensitive),
    emit the 1-based character position of its FIRST occurrence and the
    ±``window``-character context around it.

    Slicing semantics mirror SQL exactly so the twin hashes identical:
    ``pos = strpos(text, term)`` (1-based, 0 filtered out) and
    ``snippet = substr(text, greatest(1, pos - window),
    window + len(term) + window)`` with end-of-string clipping.  The
    scan (``str.find``) is a vectorized pandas kernel; only the
    variable-offset slice of the MATCHING rows is a Python loop —
    O(matches), not O(corpus), and each slice is ~2·window chars.
    """
    tlen = len(term)

    def per_batch(df: pd.DataFrame) -> pd.DataFrame:
        f = df[text_col].str.find(term)
        hit = f >= 0
        sub = df[hit]
        find0 = f[hit].to_numpy("int64")
        start0 = np.maximum(0, find0 - window)
        snips = [t[s:s + window + tlen + window]
                 for t, s in zip(sub[text_col].tolist(), start0)]
        return pd.DataFrame({id_col: sub[id_col].astype("int64"),
                             "pos": find0 + 1,
                             "snippet": pd.Series(snips, dtype="object",
                                                  index=sub.index)})

    return ds.select_columns([id_col, text_col]).map_batches(
        per_batch, batch_format="pandas")


def char_entropy(ds: rd.Dataset, *, id_col: str = "doc_id",
                 text_col: str = "text") -> rd.Dataset:
    """Per-document character-level Shannon entropy (nats) — the
    gibberish/blob detector: base64 payloads, minified JS and random
    junk sit near ln(64)≈4.16, natural language near ~3, and repeated
    template filler far lower, so both tails of this score are quality
    flags.

    Fully vectorized, no per-document Python loop: each batch's texts
    concatenate into ONE byte buffer (ASCII/UTF-8 bytes), a composite
    key ``doc_index·256 + byte`` is histogrammed with a single
    ``np.bincount``, and the per-doc entropy falls out of the reshaped
    (docs × 256) count matrix:  H = ln(L) − Σ m·ln m / L.  Purely
    per-batch map — no exchange at all.  Empty documents are dropped
    (no characters → no distribution), matching the SQL twin's
    ``length(text) > 0`` gate.

    Returns ``(id_col, n_chars int64, entropy float64 round-6)``.
    """

    def per_batch(df: pd.DataFrame) -> pd.DataFrame:
        texts = df[text_col].fillna("").tolist()
        enc = [t.encode("utf-8") for t in texts]
        lens = np.array([len(b) for b in enc], dtype=np.int64)
        keep = lens > 0
        if not keep.any():
            return pd.DataFrame({id_col: pd.Series(dtype="int64"),
                                 "n_chars": pd.Series(dtype="int64"),
                                 "entropy": pd.Series(dtype="float64")})
        ids = df[id_col].to_numpy("int64")[keep]
        enc = [b for b, k in zip(enc, keep) if k]
        lens = lens[keep]
        buf = np.frombuffer(b"".join(enc), dtype=np.uint8)
        doc_idx = np.repeat(np.arange(len(enc), dtype=np.int64), lens)
        counts = np.bincount(doc_idx * 256 + buf.astype(np.int64),
                             minlength=len(enc) * 256).reshape(-1, 256)
        m = counts.astype(np.float64)
        with np.errstate(divide="ignore", invalid="ignore"):
            mlnm = np.where(m > 0, m * np.log(m), 0.0).sum(axis=1)
        ent = np.log(lens.astype(np.float64)) - mlnm / lens
        return pd.DataFrame({id_col: ids, "n_chars": lens,
                             "entropy": np.round(ent, 6)})

    return ds.select_columns([id_col, text_col]).map_batches(
        per_batch, batch_format="pandas")


def source_kl(ds: rd.Dataset, *, key_col: str = "source",
              text_col: str = "text") -> pd.DataFrame:
    """Per-source KL divergence of the character-BIGRAM distribution
    from the corpus-global one — the drift/contamination detector that
    flags a source whose text stopped looking like the rest of the
    corpus (encoding bug, language flip, template takeover, injected
    spam) without any model: KL(source ‖ corpus) in nats.

    Pipeline: one vectorized bigram-count pass (per batch: texts
    concatenate into a byte buffer, pair keys ``byte·256 + next``
    bincount per source, doc boundaries masked out) collapses to
    (source, bigram, m) rows — ≤ sources × 65 536 regardless of corpus
    size; a keys-only ``grouped_agg`` merges them.  The GLOBAL
    distribution is ≤ 65 536 rows, so it broadcasts whole; per-source
    totals broadcast as a dict; one more scan over the counts computes
    the partial KL sums and a final tiny exchange finishes.

    Returns ``(key_col, kl round-6, n_bigrams int64)`` sorted by key.
    """
    from .relational import grouped_agg

    def bigram_counts(df: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for key, g in df.groupby(key_col, sort=False):
            enc = [t.encode("utf-8") for t in g[text_col].fillna("")]
            enc = [b for b in enc if len(b) >= 2]
            if not enc:
                continue
            buf = np.frombuffer(b"".join(enc), dtype=np.uint8)
            lens = np.array([len(b) for b in enc], dtype=np.int64)
            pair = buf[:-1].astype(np.int64) * 256 + buf[1:]
            ends = np.cumsum(lens) - 1          # last byte index per doc
            mask = np.ones(len(buf) - 1, dtype=bool)
            mask[ends[:-1]] = False             # pairs spanning doc joins
            cnt = np.bincount(pair[mask], minlength=65536)
            nz = np.flatnonzero(cnt)
            outs.append(pd.DataFrame({key_col: key,
                                      "b": nz.astype("int64"),
                                      "m": cnt[nz].astype("int64")}))
        if not outs:
            return pd.DataFrame({key_col: pd.Series(dtype="object"),
                                 "b": pd.Series(dtype="int64"),
                                 "m": pd.Series(dtype="int64")})
        return pd.concat(outs, ignore_index=True)

    counts = grouped_agg(
        ds.select_columns([key_col, text_col])
          .map_batches(bigram_counts, batch_format="pandas"),
        [key_col, "b"], {"m": ("sum", "m")})

    per_source = grouped_agg(counts, [key_col],
                             {"n": ("sum", "m")}).to_pandas()
    n_map = dict(zip(per_source[key_col], per_source["n"].astype("int64")))
    glob = grouped_agg(counts, ["b"], {"gm": ("sum", "m")}).to_pandas()
    gn = int(glob["gm"].sum())
    g_arr = np.zeros(65536, dtype="int64")
    g_arr[glob["b"].astype(int)] = glob["gm"].astype("int64")

    def kl_partial(df: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for key, g in df.groupby(key_col, sort=False):
            n = n_map[key]
            p = g["m"].to_numpy("float64") / n
            q = g_arr[g["b"].astype(int)] / gn
            outs.append(pd.DataFrame({key_col: [key],
                                      "kl": [float((p * np.log(p / q))
                                                   .sum())]}))
        if not outs:
            return pd.DataFrame({key_col: pd.Series(dtype="object"),
                                 "kl": pd.Series(dtype="float64")})
        return pd.concat(outs, ignore_index=True)

    kl = grouped_agg(counts.map_batches(kl_partial, batch_format="pandas"),
                     [key_col], {"kl": ("sum", "kl")}).to_pandas()
    kl["n_bigrams"] = kl[key_col].map(n_map).astype("int64")
    kl["kl"] = kl["kl"].round(6)
    return (kl[[key_col, "kl", "n_bigrams"]]
            .sort_values(key_col, kind="mergesort").reset_index(drop=True))


def bpe_pair_counts(ds: rd.Dataset, *, text_col: str = "text",
                    top: int = 30) -> pd.DataFrame:
    """Frequency of adjacent character pairs over the word-frequency-
    weighted vocabulary — the statistic ONE BPE merge iteration maximizes
    (Sennrich et al. 2016, "Neural machine translation of rare words with
    subword units"): the winning pair is the next merge rule a tokenizer
    trained on this corpus would add.

    Two keys-only exchanges, both vocabulary-bounded (never corpus-sized):

    1. word counts — per-batch ``value_counts`` combiner → grouped sum
       (the ONLY pass that reads the corpus text);
    2. pair counts — each distinct (word, cnt) row expands to its
       ``len(word)-1`` adjacent pairs weighted by ``cnt``, fully
       vectorized through a UTF-32 code-point view (one np.frombuffer per
       batch, pairs packed ``a·0x110000 + b`` into int64 — no per-word
       Python loop), then a grouped sum over ≤ |alphabet|² pair keys.

    Returns the ``top`` pairs as pandas (cnt desc, pair asc) — the merge
    candidates a tokenizer trainer would inspect.
    """
    from .relational import grouped_agg

    def word_counts(df: pd.DataFrame) -> pd.DataFrame:
        toks = df[text_col].astype(str).str.lower().str.split()
        vc = toks.explode().dropna().value_counts()
        return pd.DataFrame({"word": vc.index.astype(str),
                             "cnt": vc.to_numpy(np.int64)})

    vocab = grouped_agg(ds.map_batches(word_counts, batch_format="pandas"),
                        ["word"], {"cnt": ("sum", "cnt")})

    def pair_expand(df: pd.DataFrame) -> pd.DataFrame:
        words = df["word"].astype(str)
        keep = words.str.len() >= 2
        words, cnts = words[keep], df["cnt"].to_numpy(np.int64)[keep.to_numpy()]
        if not len(words):
            return pd.DataFrame({"pair": pd.Series(dtype="object"),
                                 "cnt": pd.Series(dtype="int64")})
        lens = words.str.len().to_numpy(np.int64)
        blob = "".join(words)
        codes = np.frombuffer(blob.encode("utf-32-le"), dtype=np.uint32)
        ends = np.cumsum(lens)
        starts = ends - lens
        # positions of every pair's FIRST char: all indices except each
        # word's last char
        idx = np.arange(len(codes) - 1, dtype=np.int64)
        last = ends - 1
        mask = np.ones(len(codes) - 1, dtype=bool)
        mask[last[last < len(codes) - 1]] = False
        first = idx[mask]
        packed = (codes[first].astype(np.int64) * 0x110000
                  + codes[first + 1].astype(np.int64))
        w = np.repeat(cnts, lens - 1)
        agg = pd.DataFrame({"p": packed, "cnt": w}).groupby("p", sort=False)["cnt"].sum()
        pcodes = agg.index.to_numpy(np.int64)
        pairs = [chr(p // 0x110000) + chr(p % 0x110000) for p in pcodes]
        return pd.DataFrame({"pair": pd.Series(pairs, dtype="object"),
                             "cnt": agg.to_numpy(np.int64)})

    counts = grouped_agg(vocab.map_batches(pair_expand, batch_format="pandas"),
                         ["pair"], {"cnt": ("sum", "cnt")}).to_pandas()
    counts["cnt"] = counts["cnt"].astype("int64")
    return (counts.sort_values(["cnt", "pair"], ascending=[False, True],
                               kind="mergesort")
            .head(top).reset_index(drop=True))


def zipf_fit(ds: rd.Dataset, *, text_col: str = "text", top: int = 1000,
             round_to: int = 6) -> pd.DataFrame:
    """Zipf rank-frequency fit over the corpus vocabulary: least-squares
    slope/intercept of ``ln(count)`` vs ``ln(rank)`` for the ``top``
    most frequent tokens (Zipf's law: slope ≈ -1 for natural language;
    a much flatter or steeper slope flags boilerplate floods or
    synthetic/gibberish corpora — a standard crawl-quality audit).

    Word counts are per-batch combiners → one vocabulary-keyed exchange;
    the rank table is the combiner-bounded global top-k (≤ top rows ever
    reach the driver), and the fit itself is the same five-scalar normal
    equations as :func:`borges_ray.ops.graph.degree_powerlaw`, rounded
    to ``round_to`` to absorb summation-order noise vs the SQL twin's
    ``regr_slope``/``regr_intercept``."""
    from .relational import grouped_agg, topk

    def word_counts(df: pd.DataFrame) -> pd.DataFrame:
        vc = df[text_col].fillna("").astype(str).str.lower().str.split() \
            .explode().dropna().value_counts()
        return pd.DataFrame({"word": vc.index.astype(str),
                             "cnt": vc.to_numpy(np.int64)})

    vocab = grouped_agg(ds.map_batches(word_counts, batch_format="pandas"),
                        ["word"], {"cnt": ("sum", "cnt")})
    head = topk(vocab, ["cnt"], top, tiebreak=["word"])
    n = len(head)
    if n < 2:
        return pd.DataFrame({"slope": [np.nan], "intercept": [np.nan],
                             "n_points": pd.Series([n], dtype="int64")})
    x = np.log(np.arange(1, n + 1, dtype=np.float64))
    y = np.log(head["cnt"].to_numpy(np.float64))
    den = n * (x * x).sum() - x.sum() ** 2
    slope = (n * (x * y).sum() - x.sum() * y.sum()) / den
    intercept = (y.sum() - slope * x.sum()) / n
    # + 0.0 canonicalizes IEEE -0.0 (round() of a tiny negative slope
    # string-hashes differently from 0.0 in the conformance compare)
    return pd.DataFrame({"slope": [round(slope, round_to) + 0.0],
                         "intercept": [round(intercept, round_to) + 0.0],
                         "n_points": pd.Series([n], dtype="int64")})


def heaps_law(ds: rd.Dataset, *, id_col: str = "doc_id",
              text_col: str = "text", step: int = 50,
              round_to: int = 6) -> pd.DataFrame:
    """Heaps-law vocabulary-growth fit: V(N) ≈ K·N^β — slope β of
    ``ln(distinct vocabulary)`` vs ``ln(cumulative tokens)`` sampled at
    every ``step`` documents in ``id_col`` order (β ≈ 0.4-0.6 for
    natural text; tokenizer-budget planning reads vocabulary size at a
    target corpus size straight off this fit).

    Distributed shape: ONE vocabulary-keyed exchange computes each
    token's first-occurrence document (``min(doc_id)`` — keys only);
    both the first-occurrence histogram and the per-bucket token totals
    collapse to ≤ ``n_docs/step`` rows before the driver-side cumsum +
    normal-equations fit.  Pick ``step`` so that points stay bounded
    (64-1000 buckets) at any corpus size — the exchange cost never
    depends on it."""
    from .relational import grouped_agg

    def tok_doc(df: pd.DataFrame) -> pd.DataFrame:
        toks = df.set_index(id_col)[text_col].fillna("").astype(str) \
            .str.lower().str.split().explode().dropna()
        out = pd.DataFrame({"tok": toks.to_numpy(),
                            id_col: toks.index.to_numpy()})
        # per-batch combiner: one row per (tok, min doc) in the batch
        return out.groupby("tok", sort=False)[id_col].min().reset_index()

    first = grouped_agg(ds.map_batches(tok_doc, batch_format="pandas"),
                        ["tok"], {"fd": ("min", id_col)})

    vb = grouped_agg(
        first.map_batches(
            lambda df: pd.DataFrame(
                {"b": df["fd"].to_numpy("int64") // step,
                 "nv": np.ones(len(df), dtype=np.int64)}),
            batch_format="pandas"),
        ["b"], {"nv": ("sum", "nv")}).to_pandas()

    def tok_counts(df: pd.DataFrame) -> pd.DataFrame:
        nt = df[text_col].fillna("").astype(str).str.lower().str.split() \
            .map(len).to_numpy(np.int64)
        out = pd.DataFrame({"b": df[id_col].to_numpy("int64") // step,
                            "nt": nt})
        return out.groupby("b", sort=False)["nt"].sum().reset_index()

    tb = grouped_agg(ds.map_batches(tok_counts, batch_format="pandas"),
                     ["b"], {"nt": ("sum", "nt")}).to_pandas()

    j = tb.merge(vb, on="b", how="outer").fillna(0).sort_values("b")
    N = j["nt"].cumsum().to_numpy(np.float64)
    V = j["nv"].cumsum().to_numpy(np.float64)
    keep = (N > 0) & (V > 0)
    N, V = N[keep], V[keep]
    n = len(N)
    if n < 2:
        return pd.DataFrame({"beta": [np.nan], "lnk": [np.nan],
                             "n_points": pd.Series([n], dtype="int64")})
    x, y = np.log(N), np.log(V)
    den = n * (x * x).sum() - x.sum() ** 2
    beta = (n * (x * y).sum() - x.sum() * y.sum()) / den
    lnk = (y.sum() - beta * x.sum()) / n
    return pd.DataFrame({"beta": [round(beta, round_to) + 0.0],
                         "lnk": [round(lnk, round_to) + 0.0],
                         "n_points": pd.Series([n], dtype="int64")})


def winnow_fingerprints(ds: rd.Dataset, *, id_col: str = "doc_id",
                        text_col: str = "text", k: int = 8,
                        w: int = 4) -> rd.Dataset:
    """Winnowing document fingerprints (Schleimer, Wilkerson & Aiken 2003
    — the MOSS local fingerprinting scheme): polynomial rolling hashes of
    byte ``k``-grams over the whitespace-normalized text, then in every
    window of ``w`` consecutive grams select the minimum hash (RIGHTMOST
    position on ties — the winnowing guarantee needs the deterministic
    tie-break), deduplicating repeated selections.  Guarantees any match
    of length ≥ k + w - 1 shares a fingerprint, with density 2/(w+1) —
    the standard plagiarism/overlap index for corpora too large for
    all-pairs comparison.

    Embarrassingly parallel (one map, no exchange): per document the
    gram hashes come from a Horner PREFIX fold (``h_i = P[i+k] -
    P[i]·B^k`` in wrap-around uint64 — identical to hashing each gram
    directly), and the windowed rightmost-argmin is one
    ``sliding_window_view`` argmin over the reversed window axis.
    Documents shorter than ``k + w - 1`` normalized bytes emit nothing
    (below matchable granularity).  Returns ``(id, pos, fp)`` rows,
    ``pos`` the gram's byte offset."""
    pows = _pow_table(max(k + 1, 2))
    bk = pows[k]

    def per_batch(df: pd.DataFrame) -> pd.DataFrame:
        ids_out, pos_out, fp_out = [], [], []
        texts = df[text_col].fillna("").astype(str)
        ids = df[id_col].to_numpy()
        for i, t in enumerate(texts):
            b = " ".join(t.split()).encode("utf-8")
            n = len(b)
            ng = n - k + 1
            if ng < w:
                continue
            arr = np.frombuffer(b, dtype=np.uint8).astype(np.uint64)
            # vectorized Horner prefix fold in wrap-around uint64: with
            # Q[i] = P[i]·B^-i, Q is a plain cumsum of b[j]·B^-(j+1)
            # (FP_BASE is odd, so it is invertible mod 2^64)
            pows = _pow_table(n + 1)
            ipows = _inv_pow_table(n + 1)
            q = np.cumsum(arr * ipows[1:n + 1], dtype=np.uint64)
            pref = np.empty(n + 1, dtype=np.uint64)
            pref[0] = 0
            pref[1:] = q * pows[1:n + 1]
            h = pref[k:] - pref[:-k] * bk  # wrap-around == per-gram Horner
            sw = np.lib.stride_tricks.sliding_window_view(h, w)
            am = sw[:, ::-1].argmin(axis=1)
            sel = (np.arange(len(sw), dtype=np.int64) + w - 1) - am
            sel = np.unique(sel)
            ids_out.extend([ids[i]] * len(sel))
            pos_out.append(sel)
            fp_out.append(h[sel])
        if not ids_out:
            return pd.DataFrame({id_col: pd.Series(dtype=df[id_col].dtype),
                                 "pos": pd.Series(dtype="int64"),
                                 "fp": pd.Series(dtype="uint64")})
        return pd.DataFrame({id_col: ids_out,
                             "pos": np.concatenate(pos_out),
                             "fp": np.concatenate(fp_out)})

    return ds.map_batches(per_batch, batch_format="pandas")


def lang_segments(ds: rd.Dataset, *, id_col: str = "doc_id",
                  text_col: str = "text",
                  chunk_tokens: int = 10) -> rd.Dataset:
    """CCNet-style language SEGMENTATION: label every ``chunk_tokens``-token
    chunk with the heuristic language ID (CJK share ≥ 0.25 → zh, else
    stopword-bank argmax with the fr>es>en>de tie order — the same rules
    as :class:`LangId`), then merge consecutive same-language chunks into
    maximal segments.  Multilingual pages are routine in web crawls;
    per-DOCUMENT lang tags mislabel half of a bilingual page, and CCNet
    splits on language runs before per-language LM filtering.

    Exchange-free: each document segments inside one ``map_batches`` call
    (token chunking, per-chunk counts and the gaps-and-islands merge are
    all per-doc vectorized).  Returns
    ``(id, seg_idx, lang, start_chunk, n_chunks)``."""
    banks = LangId.BANKS
    order = ["fr", "es", "en", "de"]  # SQL CASE tie order

    def per_batch(df: pd.DataFrame) -> pd.DataFrame:
        rows = {"__id": [], "seg_idx": [], "lang": [],
                "start_chunk": [], "n_chunks": []}
        for rid, text in zip(df[id_col], df[text_col].fillna("").astype(str)):
            toks = text.split()
            if not toks:
                continue
            n_chunks = (len(toks) + chunk_tokens - 1) // chunk_tokens
            preds = []
            for c in range(n_chunks):
                ch = toks[c * chunk_tokens:(c + 1) * chunk_tokens]
                joined = " ".join(ch)
                cp = np.frombuffer(joined.encode("utf-32-le"), dtype=np.uint32)
                is_cjk = np.zeros(len(cp), dtype=bool)
                for lo, hi in CJK_RANGES:
                    is_cjk |= (cp >= lo) & (cp <= hi)
                if len(cp) and is_cjk.mean() >= 0.25:
                    preds.append("zh")
                    continue
                low = [t.lower() for t in ch]
                scores = {g: sum(1 for w in low if w in banks[g])
                          for g in banks}
                best = max(scores.values())
                if best == 0:
                    preds.append("und")
                else:
                    preds.append(next(g for g in order if scores[g] == best))
            # gaps-and-islands over the chunk label sequence
            seg = 0
            start = 0
            for c in range(1, n_chunks + 1):
                if c == n_chunks or preds[c] != preds[start]:
                    rows["__id"].append(rid)
                    rows["seg_idx"].append(seg)
                    rows["lang"].append(preds[start])
                    rows["start_chunk"].append(start)
                    rows["n_chunks"].append(c - start)
                    seg += 1
                    start = c
        out = pd.DataFrame({
            id_col: pd.Series(rows["__id"],
                              dtype=df[id_col].dtype if len(rows["__id"]) else "int64"),
            "seg_idx": pd.Series(rows["seg_idx"], dtype="int64"),
            "lang": pd.Series(rows["lang"], dtype="object"),
            "start_chunk": pd.Series(rows["start_chunk"], dtype="int64"),
            "n_chunks": pd.Series(rows["n_chunks"], dtype="int64")})
        return out

    return ds.map_batches(per_batch, batch_format="pandas")


def encode_docs(ds: rd.Dataset, *, id_col: str = "doc_id",
                text_col: str = "text", min_df: int = 2) -> rd.Dataset:
    """Corpus tokenization to DICTIONARY IDS — the bridge from vocabulary
    construction to sequence packing: lowercase whitespace tokens map to
    the dense ids :func:`global_rank_str` assigns the min_df-pruned
    vocabulary (OOV → -1), and each document comes back as its id
    sequence plus OOV diagnostics.

    Scale shape — no broadcast dictionary (a web-corpus vocabulary does
    not fit a worker): token occurrences join the id table by ONE
    word-keyed hash join, then regroup per document with a bucketed
    exchange, ordered by token position.  The id sequence serializes as
    a comma-joined string (`ids`), the layout a data loader or the SQL
    twin can consume byte-identically.  Returns
    ``(id, ids, n_tokens, n_oov)``."""
    from .relational import (global_rank_str, groupby_buckets, grouped_agg,
                             hash_join)

    def toks(df: pd.DataFrame) -> pd.DataFrame:
        t = df.set_index(id_col)[text_col].fillna("").astype(str) \
            .str.lower().str.split().explode().dropna()
        out = pd.DataFrame({id_col: t.index.to_numpy(), "word": t.to_numpy()})
        out["p"] = out.groupby(id_col, sort=False).cumcount().astype("int64")
        return out

    occ = ds.map_batches(toks, batch_format="pandas")

    def wc(df: pd.DataFrame) -> pd.DataFrame:
        vc = df["word"].value_counts()
        return pd.DataFrame({"word": vc.index.astype(str),
                             "cnt": vc.to_numpy(np.int64)})

    vocab = grouped_agg(occ.map_batches(wc, batch_format="pandas"),
                        ["word"], {"cnt": ("sum", "cnt")})
    kept = vocab.map_batches(
        lambda df: df.loc[df["cnt"] >= min_df, ["word", "cnt"]],
        batch_format="pandas")
    ids = global_rank_str(kept, "word", "cnt", "term_id").map_batches(
        lambda df: df[["word", "term_id"]], batch_format="pandas")

    enc = hash_join(occ, ids, on=["word"], join_type="left")

    def regroup(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame({id_col: pd.Series(dtype="int64"),
                                 "ids": pd.Series(dtype="object"),
                                 "n_tokens": pd.Series(dtype="int64"),
                                 "n_oov": pd.Series(dtype="int64")})
        df = df.sort_values([id_col, "p"], kind="mergesort")
        tid = df["term_id"].fillna(-1).astype("int64")
        out = []
        for did, grp in tid.groupby(df[id_col].to_numpy(), sort=False):
            vals = grp.to_numpy()
            out.append((did, ",".join(map(str, vals)), len(vals),
                        int((vals == -1).sum())))
        return pd.DataFrame(out, columns=[id_col, "ids", "n_tokens", "n_oov"]) \
            .astype({id_col: "int64", "n_tokens": "int64", "n_oov": "int64"})

    return groupby_buckets(enc, [id_col], regroup)
