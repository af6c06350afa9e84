"""Deduplication operators: exact, MinHash+LSH, SimHash, n-gram Jaccard.

Scale shapes (ray_guide "Aggregation at scale" + SURVEY.md §2.8):

- **Exact** (D1): content hash per batch (vectorized) → hash-partitioned
  ``groupby(hash)`` → deterministic winner (min id) per group.  The winner
  rule makes the dedup reproducible — the reference's insert-if-absent keeps
  whichever record arrived first (``Borges/db_scripts/insert_jl.py:28-41``);
  ours keeps the smallest key, which is order-free and hence
  parallelism-invariant.
- **MinHash+LSH**: shingle → minhash signature per batch (numpy universal
  hashing, no Python loop over permutations) → explode to
  ``(band, band_hash, id)`` rows → ``groupby(band, band_hash)`` buckets →
  candidate pairs → exact Jaccard verify.  Only bucket-mates ever pair, so
  the candidate set stays near-linear.
- **SimHash**: 64-bit signature from token hashes; near-dups found by
  banding the signature into 16-bit chunks (any exact chunk match →
  candidate; Hamming verify).

All hashes are stable (blake2b / fixed-constant universal hashing) — never
Python's salted ``hash``.
"""

from __future__ import annotations

import hashlib
import logging
import os

import numpy as np
import pandas as pd
import ray.data as rd

logger = logging.getLogger("borges_ray.dedup")

MERSENNE61 = (1 << 61) - 1

#: byte-popcount lookup (numpy 1.26 has no vectorized bit_count)
_POP8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)


def _popcount_u64(x: np.ndarray) -> np.ndarray:
    """Vectorized popcount of a uint64 array (flattened) via a byte lookup
    table — O(8) bytes scratch per element, no ``unpackbits`` 64× blow-up."""
    flat = np.ascontiguousarray(x).reshape(-1)
    return _POP8[flat.view(np.uint8).reshape(len(flat), 8)].sum(axis=1, dtype=np.int64)


def _hamming_u64(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Vectorized Hamming distance between two equal-shape uint64 arrays."""
    return _popcount_u64(a ^ b)


def _stable_u64(s: str) -> int:
    return int.from_bytes(hashlib.blake2b(s.encode("utf-8"), digest_size=8).digest(), "big")


def _md5_u64(s: str) -> int:
    """Lower 64 bits (little-endian bytes 8..16) of md5 — bit-identical to
    DuckDB's ``md5_number_lower``, so SQL oracles can recompute SimHash
    signatures token-for-token."""
    return int.from_bytes(hashlib.md5(s.encode("utf-8")).digest()[8:16], "little")


_TOKEN_CACHE: dict[str, int] = {}
_MD5_TOKEN_CACHE: dict[str, int] = {}
_TOKEN_CACHE_MAX = 1_000_000
_SHINGLE_MIX = np.uint64(0x9E3779B97F4A7C15)  # splitmix64 constant


def _memo_hashes(toks: list[str], cache: dict[str, int], fn) -> np.ndarray:
    """u64 ``fn(token)`` per token through a memo (natural text is Zipf —
    the hit rate is high): hash the batch's unseen tokens, then fill the
    array from the memo in one ``np.fromiter``."""
    if len(cache) > _TOKEN_CACHE_MAX:
        cache.clear()
    for t in set(toks).difference(cache):
        cache[t] = fn(t)
    return np.fromiter(map(cache.__getitem__, toks), dtype=np.uint64, count=len(toks))


def _md5_token_hashes(toks: list[str]) -> np.ndarray:
    """Memoized md5-u64 per token (separate hash family so SimHash stays
    SQL-checkable while MinHash keeps the cheaper blake2b)."""
    return _memo_hashes(toks, _MD5_TOKEN_CACHE, _md5_u64)


def _token_hashes(toks: list[str]) -> np.ndarray:
    """Stable u64 (blake2b) hash per token, memoized."""
    return _memo_hashes(toks, _TOKEN_CACHE, _stable_u64)


def _shingle_hashes(toks: list[str], k: int) -> np.ndarray:
    """Stable u64 hashes of the word k-shingles of a whitespace-split text:
    per-token hashes (memoized blake2b) combined positionally with a
    vectorized polynomial mix — equivalent identity semantics to hashing
    the joined shingle string, at a fraction of the cost."""
    if not toks:
        return np.zeros(0, np.uint64)
    th = _token_hashes(toks)
    if len(toks) < k:
        k = len(toks)
    n_sh = len(toks) - k + 1
    acc = np.zeros(n_sh, dtype=np.uint64)
    for j in range(k):
        acc = acc * _SHINGLE_MIX + th[j : j + n_sh]  # wraps mod 2^64 — stable
    return acc


# ---------------------------------------------------------------------------
# Exact dedup
# ---------------------------------------------------------------------------

def exact_dedup(ds: rd.Dataset, text_col: str, id_col: str) -> rd.Dataset:
    """Keep one row (min id) per distinct text.  The shuffle key is the
    64-bit content hash, NOT the text itself — at 100 TB the shuffle moves
    8-byte keys + ids, never the payload; survivors re-join content by id
    downstream if needed."""
    from .textops import fingerprint_batch

    def add_hash(df: pd.DataFrame) -> pd.DataFrame:
        out = df.copy()
        out["__h"] = fingerprint_batch(df[text_col])
        return out

    hashed = ds.map_batches(add_hash, batch_format="pandas")

    def winner(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values([id_col], kind="mergesort")
        return df.drop_duplicates(subset="__h", keep="first").drop(columns="__h")

    from .relational import groupby_buckets

    return groupby_buckets(hashed, ["__h"], winner)


def exact_dedup_keep_best(ds: rd.Dataset, text_col: str, id_col: str,
                          score_col: str) -> rd.Dataset:
    """Exact dedup where the WINNER per content group is the
    highest-``score_col`` row (ties break to min id) — the FineWeb/CCNet
    convention of keeping the best-quality copy of duplicated content
    rather than an arbitrary one.

    Same 100 TB shape as :func:`exact_dedup`: the exchange moves
    ``(content-hash u64, score, id)`` keys only, never the payload; the
    winner is an exact-integer lexicographic argmax so a SQL window twin
    (ORDER BY score DESC, id ASC) reproduces it bit-for-bit.  Returns
    ``(id_col, score_col, n_dups)``.
    """
    from .relational import grouped_agg
    from .textops import fingerprint_batch

    SHIFT = np.int64(1) << np.int64(40)  # id must fit in 40 bits

    def keys(df: pd.DataFrame) -> pd.DataFrame:
        ids = df[id_col].to_numpy("int64")
        sc = df[score_col].to_numpy("int64")
        if (ids < 0).any() or (ids >= SHIFT).any():
            raise ValueError(f"{id_col} must be in [0, 2^40) for the "
                             "packed argmax encoding")
        if (sc < 0).any() or (sc >= (np.int64(1) << np.int64(23))).any():
            raise ValueError(f"{score_col} must be in [0, 2^23) so "
                             "score*2^40 fits in int64")
        # argmax(score, then MIN id): pack as score*2^40 + (2^40-1-id)
        return pd.DataFrame({
            "__h": fingerprint_batch(df[text_col]).astype(np.uint64),
            "__r": sc * SHIFT + (SHIFT - np.int64(1) - ids),
            "__s": sc,
        })

    agg = grouped_agg(ds.map_batches(keys, batch_format="pandas"), ["__h"],
                      {"__r": ("max", "__r"), "n_dups": ("count", "__r")})

    def fin(df: pd.DataFrame) -> pd.DataFrame:
        r = df["__r"].to_numpy("int64")
        return pd.DataFrame({
            id_col: (SHIFT - np.int64(1)) - (r % SHIFT),
            score_col: r // SHIFT,
            "n_dups": df["n_dups"].astype("int64"),
        })

    return agg.map_batches(fin, batch_format="pandas")


# ---------------------------------------------------------------------------
# MinHash + LSH
# ---------------------------------------------------------------------------

_HASHER_CACHE: dict[tuple, "MinHasher"] = {}


def _hasher_cache_get(num_perm: int, shingle_k: int) -> "MinHasher":
    key = (num_perm, shingle_k)
    h = _HASHER_CACHE.get(key)
    if h is None:
        h = _HASHER_CACHE[key] = MinHasher(num_perm=num_perm, shingle_k=shingle_k)
    return h


class MinHasher:
    """Per-batch minhash signatures — permutation constants generated once
    per actor from a fixed seed (stateful-stage pattern, T1-analog)."""

    def __init__(self, num_perm: int = 64, shingle_k: int = 3, seed: int = 7):
        rng = np.random.default_rng(seed)
        self.a = rng.integers(1, MERSENNE61, num_perm, dtype=np.uint64)
        self.b = rng.integers(0, MERSENNE61, num_perm, dtype=np.uint64)
        self.num_perm = num_perm
        self.k = shingle_k

    def signatures(self, splits: list[list[str]]) -> np.ndarray:
        """(n, P) signatures of whitespace-split texts (``t.split()`` each)."""
        return self.minhash([_shingle_hashes(toks, self.k) for toks in splits])

    def minhash(self, shs: list[np.ndarray]) -> np.ndarray:
        """(n, P) signatures of per-text shingle-hash arrays (all zeros for
        an empty one): ``min(a·sh + b)`` per permutation in wrap-around
        uint64 (stable), with ONE preallocated (max_shingles, P) work
        buffer reused in-place across the batch: the per-doc working set
        stays cache-hot and no temporaries are allocated per document (a
        wide batch-level (total_shingles, P) product would spill L3 and
        run ~8× slower — measured; memory locality beats call-count
        here).  Rows are shingles so every op runs along a contiguous
        permutation row (about 20% faster than the (P, S) layout)."""
        out = np.zeros((len(shs), self.num_perm), dtype=np.uint64)
        max_len = max((len(s) for s in shs), default=0)
        if max_len == 0:
            return out
        buf = np.empty((max_len, self.num_perm), dtype=np.uint64)
        for i, sh in enumerate(shs):
            if len(sh) == 0:
                continue
            v = buf[: len(sh)]
            np.multiply(sh[:, None], self.a, out=v)  # wraps mod 2^64 — stable
            np.add(v, self.b, out=v)
            v.min(axis=0, out=out[i])
        return out

    def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
        sigs = self.signatures([t.split() for t in df["text"].fillna("")])
        out = df.copy()
        out["__sig"] = [s.tobytes() for s in sigs]
        return out


def jaccard(a: str, b: str, k: int = 3) -> float:
    sa = set(_shingle_hashes(a.split(), k).tolist())
    sb = set(_shingle_hashes(b.split(), k).tolist())
    if not sa and not sb:
        return 1.0
    return len(sa & sb) / max(1, len(sa | sb))


def _make_featurize(id_col: str, num_perm: int, shingle_k: int):
    def featurize(df: pd.DataFrame) -> pd.DataFrame:
        shs = [np.unique(_shingle_hashes(t.split(), shingle_k))
               for t in df["text"].fillna("")]
        sigs = ([s.tobytes() for s in _hasher_cache_get(num_perm, shingle_k).minhash(shs)]
                if num_perm else [b""] * len(shs))
        return pd.DataFrame({id_col: df[id_col].to_numpy(),
                             "__sig": sigs, "__blob": [s.tobytes() for s in shs],
                             "__nsh": np.fromiter(map(len, shs), np.int64, len(shs))})

    return featurize


def minhash_feat_spill(
    ds: rd.Dataset, id_col: str, *, num_perm: int = 64, shingle_k: int = 3,
) -> tuple[list[str], rd.Dataset | None]:
    """ONE tokenize pass over the corpus, parquet-pinned as
    ``(id, __sig, __blob, __nsh)``: the minhash signature bytes AND the
    sorted-unique shingle-hash set as a u64 byte blob.  Banding derives
    from ``__sig`` without re-reading text; exact-Jaccard verification
    intersects ``__blob`` arrays without re-tokenizing — the r03 verify
    stage tokenized every pair endpoint a second time.  ``num_perm=0``
    skips the signature (blobs-only mode for the exact n-gram path).

    Returns ``(files, fallback)``: the spill's parquet files, which each
    consumer re-reads COLUMN-PRUNED via :func:`_pruned_spill_read` — the
    blob column is the corpus-scale payload (~shingle-count × 8 B per doc,
    5.6 GB at 1M synthetic pages) and dragging it through the banding map,
    which needs only the 8·num_perm B signature, dominated that stage's
    wall time in the 1M-doc measurement.  ``fallback`` is the unexecuted
    featurize plan, non-None only when the corpus is empty (nothing was
    written)."""
    import tempfile

    mapped = ds.map_batches(_make_featurize(id_col, num_perm, shingle_k),
                            batch_format="pandas")
    d = tempfile.mkdtemp(prefix="borges_mh_feat_")
    mapped.write_parquet(d)
    files = [os.path.join(d, f) for f in os.listdir(d) if f.endswith(".parquet")]
    if not files:
        return [], mapped
    return sorted(files), None


def _pruned_spill_read(
    files: list[str], cols: list[str], fallback: rd.Dataset | None,
    *, target_bytes: int = 32 << 20,
) -> rd.Dataset:
    """Column-pruned re-read of a featurize spill.  Block count derives
    from the compressed bytes of ONLY the selected columns (parquet
    column-chunk metadata, driver-side) — sizing the sig-only read by
    whole-file bytes would shred it into blob-sized block counts.

    ``target_bytes`` is 32 MB, not the 4 MB used for cheap key-only
    intermediates: the blob column is a corpus-scale payload (5.6 GB at 1M
    synthetic pages) and a 4 MB target turned it into 1408 micro-blocks —
    the verify stage's two sorts then spent more driver scheduling time
    than worker compute (measured: executor churn with all workers idle)."""
    import math

    import pyarrow.parquet as pq

    if not files:
        return fallback.select_columns(cols)
    total = rows = 0
    for p in files:
        md = pq.ParquetFile(p).metadata
        rows += md.num_rows
        for rg in range(md.num_row_groups):
            g = md.row_group(rg)
            for ci in range(g.num_columns):
                c = g.column(ci)
                if c.path_in_schema.split(".")[0] in cols:
                    total += c.total_compressed_size
    nb = max(1, math.ceil(total / target_bytes),
             min(64, math.ceil(rows / 200)))
    return rd.read_parquet(files, columns=list(cols), override_num_blocks=nb)


def minhash_sig_blob_table(
    ds: rd.Dataset, id_col: str, *, num_perm: int = 64, shingle_k: int = 3,
) -> rd.Dataset:
    """All four feature columns as one Dataset (see
    :func:`minhash_feat_spill`; kept for callers that genuinely need sig
    and blob together — the near-dup pipelines use the pruned reads)."""
    files, fallback = minhash_feat_spill(ds, id_col, num_perm=num_perm,
                                         shingle_k=shingle_k)
    return _pruned_spill_read(files, [id_col, "__sig", "__blob", "__nsh"],
                              fallback)


def optimal_bands(num_perm: int, threshold: float, *,
                  max_fn: float = 1e-3) -> int:
    """Threshold-adaptive LSH banding (MMDS banding theory, Leskovec/
    Rajaraman/Ullman ch.3): with b bands of r rows a pair at Jaccard J
    collides with probability 1-(1-J^r)^b, an S-curve centered near
    (1/b)^(1/r).  Downstream verification is EXACT (``verify_pairs_blob``),
    so a false candidate costs compute only while a false negative is a
    missed duplicate — hence the asymmetric rule: the LARGEST r (fewest
    false candidates) whose miss probability at J=threshold stays ≤
    ``max_fn``.

    Why r matters at 100 TB: r=2 puts the S-curve's knee at
    (1/32)^(1/2) ≈ 0.18, so every boilerplate pair at J ≥ 0.2 — routine in
    web corpora, and *all* pairs of a corpus whose shingle space is dense —
    becomes a candidate.  Measured on the 1M-page synthetic corpus
    (40-word vocab → background J ≈ 0.005 between EVERY doc pair): r=2
    spawned 340M candidate pairs; threshold-adaptive banding at 0.7
    collapses the background collision probability to J^r·b ≈ 1e-6.

    For threshold=0.5 the rule keeps r=2 (num_perm=64 → b=32): recall at
    J=0.5 genuinely requires a low knee, and that is today's documented
    operating point, so low-threshold callers see identical results."""
    best = 1
    for r in range(1, num_perm + 1):
        b = num_perm // r
        if b < 1:
            break
        if (1.0 - threshold ** r) ** b <= max_fn:
            best = r
    return num_perm // best


def band_rows_from_sigs(
    sig_ds: rd.Dataset, id_col: str, *, num_perm: int = 64, bands: int = 32,
) -> rd.Dataset:
    """(id, __sig bytes) → (id, band, band_hash) rows — the LSH explode of
    :func:`minhash_band_rows`, but derived from stored signature bytes so
    text is never touched (vectorized reshape + polynomial band mix)."""
    rows_per_band = num_perm // bands

    def band(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame({id_col: pd.Series(dtype="int64"),
                                 "band": pd.Series(dtype="int32"),
                                 "band_hash": pd.Series(dtype="uint64")})
        sigs = np.frombuffer(b"".join(df["__sig"]), dtype=np.uint64).reshape(
            len(df), num_perm)
        # bands*rows_per_band may undershoot num_perm (threshold-adaptive
        # banding picks the largest r with bounded miss prob, e.g. 10×6 of
        # 64) — the trailing permutations are simply unused
        chunks = sigs[:, : bands * rows_per_band].reshape(
            len(df), bands, rows_per_band)
        bh = np.zeros((len(df), bands), dtype=np.uint64)
        for j in range(rows_per_band):
            bh = bh * _SHINGLE_MIX + chunks[:, :, j]
        bh ^= bh >> np.uint64(29)
        bh = bh * _SHINGLE_MIX
        return pd.DataFrame({id_col: np.repeat(df[id_col].to_numpy(), bands),
                             "band": np.tile(np.arange(bands, dtype=np.int32), len(df)),
                             "band_hash": bh.reshape(-1)})

    return sig_ds.map_batches(band, batch_format="pandas")


def _make_band_pairs(id_col: str, max_bucket: int = 4096):
    """Per-bucket-block candidate-pair spawner over (band, band_hash)
    groups: only buckets shared by ≥2 docs spawn pairs; one Python loop over
    *colliding buckets*, pair fan-out vectorized; block-local dedup so the
    downstream distinct shuffle moves fewer rows.

    Hot-bucket bound: a cluster of m near-identical documents (boilerplate
    pages, mirrored sites — routine in web corpora) shares every band
    hash, so an uncapped spawn is O(m²) pairs in ONE task.  Past
    ``max_bucket`` members the bucket emits all-pairs for the smallest
    ``max_bucket`` ids PLUS a consecutive-id CHAIN over the whole bucket —
    O(max_bucket² + m) pairs — so pair recall degrades (logged) but
    cluster CONNECTIVITY never does: the chain keeps a giant duplicate
    cluster one connected component through verify + CC, which is what the
    dedup-survivors path needs (contrast the SimHash cap, which drops
    members outright)."""

    def band_pairs(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"id_a": pd.Series(dtype="int64"),
                              "id_b": pd.Series(dtype="int64")})
        if not len(df):
            return empty
        from .relational import run_pair_indices

        # ONE sort + run-length bucket boundaries + vectorized in-run
        # fan-out: the former per-hot-key ``MultiIndex.loc`` lookup
        # scanned the whole block per bucket — O(buckets × rows), the
        # dominant cost of the spawn stage on collision-dense corpora —
        # and the per-bucket ``triu_indices`` loop that replaced it still
        # paid Python overhead per COLLIDING bucket
        order = np.lexsort((df[id_col].to_numpy(),
                            df["band_hash"].to_numpy(),
                            df["band"].to_numpy()))
        bd = df["band"].to_numpy()[order]
        bh = df["band_hash"].to_numpy()[order]
        ids_all = df[id_col].to_numpy()[order]
        # compress to distinct (band, band_hash, id) rows
        kc = (bd[1:] != bd[:-1]) | (bh[1:] != bh[:-1])
        keep = np.concatenate(([True], kc | (ids_all[1:] != ids_all[:-1])))
        bd, bh, ids = bd[keep], bh[keep], ids_all[keep]
        cut = np.flatnonzero((bd[1:] != bd[:-1]) | (bh[1:] != bh[:-1])) + 1
        starts = np.concatenate(([0], cut))
        sizes = np.concatenate((cut, [len(bd)])) - starts
        over = sizes > max_bucket
        parts_a, parts_b = [], []
        if over.any():
            logger.warning(
                "%d minhash band buckets exceed max_bucket=%d (largest "
                "%d): emitting capped all-pairs + connectivity chains; "
                "pair recall no longer exact for those buckets",
                int(over.sum()), max_bucket, int(sizes.max()))
            run_of = np.repeat(np.arange(len(sizes)), sizes)
            # chain (i, i+1) over ALL members of each capped bucket:
            # recall degrades but cluster CONNECTIVITY never does
            loc = np.arange(len(ids), dtype=np.int64) - np.repeat(starts,
                                                                  sizes)
            cm = (loc[1:] > 0) & over[run_of[1:]]
            parts_a.append(ids[:-1][cm])
            parts_b.append(ids[1:][cm])
            # all-pairs over each bucket's smallest ``max_bucket`` ids
            hm = loc < max_bucket
            ids = ids[hm]
            sizes = np.minimum(sizes, max_bucket)
        fst, snd = run_pair_indices(sizes)
        parts_a.append(ids[fst])
        parts_b.append(ids[snd])
        a = np.concatenate(parts_a)
        if not len(a):
            return empty
        return pd.DataFrame({"id_a": a,
                             "id_b": np.concatenate(parts_b)}
                            ).drop_duplicates()

    return band_pairs


def _blob_jaccard(blob_a, blob_b, na: int, nb: int) -> float:
    """Exact Jaccard from two sorted-unique u64 shingle-set blobs."""
    if na + nb == 0:
        return 1.0  # two empty docs: same convention as jaccard()
    a = np.frombuffer(blob_a, dtype=np.uint64)
    b = np.frombuffer(blob_b, dtype=np.uint64)
    inter = np.intersect1d(a, b, assume_unique=True).size
    return inter / (na + nb - inter)


def _verify_buckets(files: list[str]) -> int:
    """``n_buckets`` for :func:`verify_pairs_blob`, from the featurize
    spill's on-disk bytes: ~64 MB of blob payload per cogroup bucket,
    floor 8 (sandbox corpora), cap 4096."""
    total = sum(os.path.getsize(p) for p in files)
    return int(min(4096, max(8, total // (64 << 20) + 1)))


def verify_pairs_blob(
    pairs: rd.Dataset, feat: rd.Dataset, id_col: str, *, threshold: float,
    n_buckets: int = 32,
) -> rd.Dataset:
    """Exact-Jaccard verification against STORED shingle-set blobs — no
    re-tokenization, no generic join machinery.  Two disk-bucketed
    cogroups (:func:`~borges_ray.ops.relational.cogroup_spill`):

    1. pairs keyed by id_a × feat keyed by id → attach blob_a
    2. result keyed by id_b × feat keyed by id → attach blob_b + verify

    The blob column moves through each exchange once (same volume as the
    text re-join it replaces); the verify itself is a per-pair sorted-array
    intersection on u64s.  Returns (id_a, id_b, jaccard ≥ threshold).

    NOT union→sort shuffles: a Sort anywhere in a plan forces Ray's
    ``preserve_order=True``, under which UnionOperator buffers its ENTIRE
    input before emitting one block — at 1M docs the 11 GB blob union
    exhausted the executor memory budget and livelocked (0/431 blocks out,
    all workers idle).  The cogroup writes each side hive-partitioned by
    key hash (linear plans that stream at any size) and merges per bucket;
    the spills double as resume checkpoints.  Size ``n_buckets`` ≈ blob
    bytes / 64 MB (callers with the featurize spill on disk know this)."""
    from .relational import cogroup_spill

    half_empty = pd.DataFrame({"id_a": pd.Series(dtype="int64"),
                               "id_b": pd.Series(dtype="int64"),
                               "__blob": pd.Series(dtype="object"),
                               "__nsh": pd.Series(dtype="int64")})
    out_empty = pd.DataFrame({"id_a": pd.Series(dtype="int64"),
                              "id_b": pd.Series(dtype="int64"),
                              "jaccard": pd.Series(dtype="float64")})

    def attach_a(l: pd.DataFrame, r: pd.DataFrame) -> pd.DataFrame:
        if not len(l) or not len(r):
            return half_empty
        # pair dedup is FUSED here: duplicate (id_a, id_b) candidates share
        # id_a and therefore this bucket, so a bucket-local drop_duplicates
        # is a complete global dedup — no separate distinct shuffle needed
        l = l.drop_duplicates(subset=["id_a", "id_b"])
        m = l.merge(r[[id_col, "__blob", "__nsh"]],
                    left_on="id_a", right_on=id_col)
        return m[["id_a", "id_b", "__blob", "__nsh"]]

    half = cogroup_spill(pairs, feat, "id_a", id_col, attach_a,
                         empty=half_empty, tag="mh_a", n_buckets=n_buckets)

    def verify(l: pd.DataFrame, r: pd.DataFrame) -> pd.DataFrame:
        if not len(l) or not len(r):
            return out_empty
        r = r.rename(columns={"__blob": "__blob_b", "__nsh": "__nsh_b"})
        m = l.merge(r[[id_col, "__blob_b", "__nsh_b"]],
                    left_on="id_b", right_on=id_col)
        if not len(m):
            return out_empty
        jac = np.array([_blob_jaccard(a, b, na, nb) for a, b, na, nb in
                        zip(m["__blob"], m["__blob_b"], m["__nsh"], m["__nsh_b"])])
        out = m[["id_a", "id_b"]].copy()
        out["jaccard"] = jac
        return out[jac >= threshold]

    return cogroup_spill(half, feat, "id_b", id_col, verify,
                         empty=out_empty, tag="mh_b", n_buckets=n_buckets)


def minhash_near_dup_pairs_ds(
    ds: rd.Dataset,
    id_col: str,
    *,
    threshold: float = 0.7,
    num_perm: int = 64,
    bands: int | None = None,
    shingle_k: int = 3,
    max_bucket: int = 4096,
) -> rd.Dataset:
    """Candidate pairs from LSH buckets, verified with exact Jaccard ≥
    threshold (unrounded compare), as a DATASET — nothing transits the
    driver, so a 30-50 % near-duplicate web corpus (candidate graph
    O(corpus)) flows straight into downstream connected components /
    anti-joins without a driver pandas bottleneck.

    One tokenize pass: signatures and shingle-set blobs are computed
    together (:func:`minhash_sig_blob_table`); banding derives from stored
    sig bytes and verification intersects stored blobs.

    ``bands=None`` (default) picks threshold-adaptive banding via
    :func:`optimal_bands` — miss probability ≤ 1e-3 at J=threshold, fewest
    false candidates subject to that.  At threshold 0.5 this is r=2
    (b=num_perm/2, miss ≤ 1e-8 for J ≥ 0.5); at 0.7 it is r=3-4, which is
    what keeps a web corpus's J≈0.2-0.4 boilerplate pairs from flooding
    the candidate stream (see :func:`optimal_bands` for the measured 1M-doc
    blow-up that motivates this)."""
    from .relational import groupby_buckets

    if bands is None:
        bands = optimal_bands(num_perm, threshold)
    files, fallback = minhash_feat_spill(ds, id_col, num_perm=num_perm,
                                         shingle_k=shingle_k)
    # column-pruned re-reads: banding touches only the 8·num_perm B sig,
    # verification only the blob — neither drags the other's payload
    sig_ds = _pruned_spill_read(files, [id_col, "__sig"], fallback)
    blob_ds = _pruned_spill_read(files, [id_col, "__blob", "__nsh"], fallback)
    band_rows = band_rows_from_sigs(sig_ds, id_col, num_perm=num_perm,
                                    bands=bands)
    # no separate distinct shuffle: verify_pairs_blob dedups candidates
    # block-locally in its first (id_a-keyed) stage
    pairs = groupby_buckets(band_rows, ["band", "band_hash"],
                            _make_band_pairs(id_col, max_bucket))
    return verify_pairs_blob(pairs, blob_ds, id_col, threshold=threshold,
                             n_buckets=_verify_buckets(files))


def minhash_near_dup_pairs(
    ds: rd.Dataset,
    id_col: str,
    *,
    threshold: float = 0.7,
    num_perm: int = 64,
    bands: int | None = None,
    shingle_k: int = 3,
) -> pd.DataFrame:
    """Thin pandas wrapper over :func:`minhash_near_dup_pairs_ds` for
    oracle queries and interactive use — collect ONLY when the caller wants
    a small result table; scale paths consume the Dataset variant."""
    out = minhash_near_dup_pairs_ds(ds, id_col, threshold=threshold,
                                    num_perm=num_perm, bands=bands,
                                    shingle_k=shingle_k).to_pandas()
    out["id_a"] = out["id_a"].astype("int64")
    out["id_b"] = out["id_b"].astype("int64")
    return out.sort_values(["id_a", "id_b"], ignore_index=True)


# ---------------------------------------------------------------------------
# Exact n-gram Jaccard (prefix-filtered set-similarity self-join)
# ---------------------------------------------------------------------------

def shingle_rows_from_blobs(feat: rd.Dataset, id_col: str) -> rd.Dataset:
    """(id, __blob) → distinct (id, shingle u64) rows, decoded from the
    stored sorted-unique blobs — the explode of :func:`ngram_shingle_rows`
    without re-tokenizing text."""

    def explode(df: pd.DataFrame) -> pd.DataFrame:
        ids_out: list[np.ndarray] = []
        sh_out: list[np.ndarray] = []
        for i, blob in zip(df[id_col].to_numpy(), df["__blob"]):
            sh = np.frombuffer(blob, dtype=np.uint64)
            if len(sh):
                ids_out.append(np.full(len(sh), i, dtype=np.int64))
                sh_out.append(sh)
        if not ids_out:
            return pd.DataFrame({id_col: pd.Series(dtype="int64"),
                                 "shingle": pd.Series(dtype="uint64")})
        return pd.DataFrame({id_col: np.concatenate(ids_out),
                             "shingle": np.concatenate(sh_out)})

    return feat.map_batches(explode, batch_format="pandas")


def ngram_jaccard_pairs_ds(
    ds: rd.Dataset,
    id_col: str,
    *,
    threshold: float = 0.3,
    shingle_k: int = 3,
    max_bucket: int | None = None,
) -> rd.Dataset:
    """EXACT word-k-shingle Jaccard self-join (all pairs ≥ ``threshold``) by
    prefix filtering — the PPJoin family's public completeness lemma (Xiao,
    Wang, Lin, Yu, "Efficient Similarity Joins for Near Duplicate
    Detection", WWW'08; also Chaudhuri et al. ICDE'06 SSJoin): order each
    doc's shingles globally by (document-frequency asc, shingle asc) and
    keep only the first ``n - ceil(t*n) + 1`` as its PREFIX; any pair with
    Jaccard ≥ t must share a prefix shingle (its globally-smallest common
    shingle lies in both prefixes), so grouping prefix rows by shingle
    yields a complete candidate set while the hot head of the Zipf
    distribution — the shingles that would make a naive inverted index
    quadratic — never spawns a bucket.

    Unlike :func:`minhash_near_dup_pairs` this has NO probabilistic miss:
    it is the exact-dedup path for thresholds too low for LSH banding to
    cover (at t=0.3 a 32-band/r=2 MinHash misses real pairs).  Contrast
    with the reference's insert-time exact-duplicate gate
    (``Borges/db_scripts/insert_jl.py:28-41``), which has no similarity
    notion at all.

    Distributed shape — ONE tokenize pass (the shared sig/blob table),
    then u64-only shuffles; raw text never moves at all:

    1. blobs → distinct ``(id, shingle)`` rows            (map only)
    2. groupby(shingle): attach per-shingle df            (shuffle 1)
    3. groupby(id): sort by (df, shingle), keep prefix    (shuffle 2)
    4. groupby(shingle) over PREFIX rows: pair spawn      (shuffle 3)
    5. exact verify against the stored shingle-set blobs
       (:func:`verify_pairs_blob` — its id_a-keyed first stage also dedups
       the candidates, so no separate distinct shuffle; re-checks pairs
       whose candidate shingle was df-capped, so precision is always
       exact).

    ``max_bucket`` (None = unbounded = exact) caps a single prefix-shingle
    bucket's pair spawn for memory safety at adversarial skew; capping is
    logged and trades recall only (verify keeps precision exact)."""
    from .relational import groupby_buckets

    files, fallback = minhash_feat_spill(ds, id_col, num_perm=0,
                                         shingle_k=shingle_k)
    feat = _pruned_spill_read(files, [id_col, "__blob", "__nsh"], fallback)
    ex = shingle_rows_from_blobs(feat, id_col)

    # shuffle 1: co-locate by shingle, attach document frequency.  df is
    # computed and attached in ONE grouped pass — no separate count table,
    # no join.
    def attach_df(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            out = df.copy()
            out["df"] = pd.Series(dtype="int64")
            return out
        out = df.copy()
        out["df"] = df.groupby("shingle", sort=False)[id_col].transform("size")
        return out

    with_df = groupby_buckets(ex, ["shingle"], attach_df)

    # shuffle 2: co-locate by doc, keep each doc's prefix under the global
    # (df asc, shingle asc) order.  alpha = ceil(t*n) biased DOWN by 1e-9 so
    # float error can only ENLARGE the prefix (supersets stay complete).
    def prefix(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return df[[id_col, "shingle"]]
        f = df.sort_values([id_col, "df", "shingle"], kind="mergesort")
        n = f.groupby(id_col, sort=False)[id_col].transform("size").to_numpy()
        rank = f.groupby(id_col, sort=False).cumcount().to_numpy()
        alpha = np.ceil(threshold * n - 1e-9).astype(np.int64)
        keep = rank < (n - alpha + 1)
        return f.loc[keep, [id_col, "shingle"]]

    prefix_rows = groupby_buckets(with_df, [id_col], prefix)

    # shuffle 3: candidate pairs from shared PREFIX shingles only.
    def shingle_pairs(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"id_a": pd.Series(dtype="int64"),
                              "id_b": pd.Series(dtype="int64")})
        if not len(df):
            return empty
        from .relational import run_pair_indices

        # ONE sort + run-length bucket boundaries + vectorized in-run
        # fan-out (same shape as _make_band_pairs)
        order = np.lexsort((df[id_col].to_numpy(), df["shingle"].to_numpy()))
        sh = df["shingle"].to_numpy()[order]
        ids_all = df[id_col].to_numpy()[order]
        keep = np.concatenate(([True], (sh[1:] != sh[:-1])
                               | (ids_all[1:] != ids_all[:-1])))
        sh, ids = sh[keep], ids_all[keep]
        cut = np.flatnonzero(sh[1:] != sh[:-1]) + 1
        starts = np.concatenate(([0], cut))
        sizes = np.concatenate((cut, [len(sh)])) - starts
        if max_bucket is not None and (sizes > max_bucket).any():
            logger.warning(
                "%d ngram_jaccard prefix buckets capped at %d members "
                "(largest %d); recall no longer exact",
                int((sizes > max_bucket).sum()), max_bucket,
                int(sizes.max()))
            loc = np.arange(len(ids), dtype=np.int64) - np.repeat(starts,
                                                                  sizes)
            ids = ids[loc < max_bucket]
            sizes = np.minimum(sizes, max_bucket)
        fst, snd = run_pair_indices(sizes)
        if not len(fst):
            return empty
        return pd.DataFrame({"id_a": ids[fst], "id_b": ids[snd]})

    # candidate dedup is fused into verify_pairs_blob's id_a-keyed stage
    cands = groupby_buckets(prefix_rows, ["shingle"], shingle_pairs)
    return verify_pairs_blob(cands, feat, id_col, threshold=threshold,
                             n_buckets=_verify_buckets(files))


def ngram_jaccard_pairs(
    ds: rd.Dataset,
    id_col: str,
    *,
    threshold: float = 0.3,
    shingle_k: int = 3,
    max_bucket: int | None = None,
) -> pd.DataFrame:
    """Thin pandas wrapper over :func:`ngram_jaccard_pairs_ds` (small
    result collection for oracle queries)."""
    out = ngram_jaccard_pairs_ds(ds, id_col, threshold=threshold,
                                 shingle_k=shingle_k,
                                 max_bucket=max_bucket).to_pandas()
    out["id_a"] = out["id_a"].astype("int64")
    out["id_b"] = out["id_b"].astype("int64")
    return out.sort_values(["id_a", "id_b"], ignore_index=True)


# ---------------------------------------------------------------------------
# SimHash
# ---------------------------------------------------------------------------

class SimHasher:
    """64-bit SimHash over whitespace tokens (uniform weights).  Token
    hashes are md5 lower-64 (== DuckDB ``md5_number_lower``) so the full
    signature — per-bit majority vote over token hashes — is reproducible
    by the SQL oracle."""

    def __init__(self):
        self.bits = 64

    def simhash(self, text: str) -> int:
        toks = text.split()
        if not toks:
            return 0
        hashes = _md5_token_hashes(toks)
        bits = ((hashes[:, None] >> np.arange(64, dtype=np.uint64)[None, :]) & 1).astype(np.int64)
        votes = bits.sum(axis=0) * 2 - len(toks)
        return int(((votes > 0).astype(np.uint64) << np.arange(64, dtype=np.uint64)).sum())

    def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
        out = df.copy()
        out["simhash"] = np.array([self.simhash(t) for t in df["text"].fillna("")], dtype=np.uint64)
        return out


def simhash_signatures(ds: rd.Dataset) -> rd.Dataset:
    return ds.map_batches(SimHasher, batch_format="pandas", concurrency=(1, 8))


def simhash_near_dup_pairs_ds(ds: rd.Dataset, id_col: str, *, max_hamming: int = 3,
                              max_bucket: int = 4096, tile: int = 2048) -> rd.Dataset:
    """Near-dup pairs by SimHash: band the 64-bit signature into 4×16-bit
    chunks (pigeonhole: hamming ≤ 3 ⇒ some chunk equal), bucket-join on
    (chunk_idx, chunk_value), verify Hamming distance.

    Bucket fan-out is BOUNDED: at most ``max_bucket`` members per
    (chunk, chunk_val) bucket enter the pair spawn (smallest ids win;
    overflow is logged), and verification runs in ``tile``×``tile`` blocks
    with a byte-popcount Hamming kernel — so one hot 16-bit chunk value
    (the ≥10^8-doc regime, where each value holds ~n/65536 members) costs
    O(max_bucket²) candidate pairs and O(tile²) scratch instead of an
    unbounded O(m²) allocation in a single task."""
    sigs = simhash_signatures(ds)

    def explode_chunks(df: pd.DataFrame) -> pd.DataFrame:
        sigs_v = df["simhash"].to_numpy(dtype=np.uint64)
        n = len(df)
        shifts = (np.arange(4, dtype=np.uint64) * np.uint64(16))
        vals = (sigs_v[:, None] >> shifts[None, :]) & np.uint64(0xFFFF)
        return pd.DataFrame({
            id_col: np.repeat(df[id_col].to_numpy(), 4),
            "simhash": np.repeat(sigs_v, 4),
            "chunk": np.tile(np.arange(4, dtype=np.int32), n),
            "chunk_val": vals.reshape(-1),
        })

    chunks = sigs.map_batches(explode_chunks, batch_format="pandas")

    def chunk_pairs(df: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for (ck, cv), g in df.groupby(["chunk", "chunk_val"], sort=False):
            if len(g) < 2:
                continue
            rows = g[[id_col, "simhash"]].drop_duplicates().sort_values(id_col)
            if len(rows) < 2:
                continue
            if len(rows) > max_bucket:
                logger.warning(
                    "simhash bucket (chunk=%s, val=%s) capped at %d of %d "
                    "members; %d dropped from pair spawn",
                    ck, cv, max_bucket, len(rows), len(rows) - max_bucket)
                rows = rows.head(max_bucket)
            ids = rows[id_col].to_numpy()
            s = rows["simhash"].to_numpy(dtype=np.uint64)
            n = len(ids)
            for i0 in range(0, n, tile):
                ai, si = ids[i0:i0 + tile], s[i0:i0 + tile]
                ia, ib = np.triu_indices(len(ai), k=1)
                ham = _hamming_u64(si[ia], si[ib])
                keep = ham <= max_hamming
                if keep.any():
                    outs.append(pd.DataFrame({"id_a": ai[ia[keep]],
                                              "id_b": ai[ib[keep]],
                                              "hamming": ham[keep]}))
                for j0 in range(i0 + tile, n, tile):
                    aj, sj = ids[j0:j0 + tile], s[j0:j0 + tile]
                    ham = _popcount_u64(si[:, None] ^ sj[None, :]).reshape(
                        len(ai), len(aj))
                    fi, fj = np.nonzero(ham <= max_hamming)
                    if len(fi):
                        outs.append(pd.DataFrame({"id_a": ai[fi],
                                                  "id_b": aj[fj],
                                                  "hamming": ham[fi, fj]}))
        if not outs:
            return pd.DataFrame({"id_a": pd.Series(dtype="int64"),
                                 "id_b": pd.Series(dtype="int64"),
                                 "hamming": pd.Series(dtype="int64")})
        return pd.concat(outs, ignore_index=True)

    from .relational import distinct, groupby_buckets

    pairs = groupby_buckets(chunks, ["chunk", "chunk_val"], chunk_pairs)
    # a pair matching in several chunks recurs with the SAME hamming value:
    # distinct over all three columns is a full pair dedup, distributed
    return distinct(pairs, ["id_a", "id_b", "hamming"])


def simhash_near_dup_pairs(ds: rd.Dataset, id_col: str, *, max_hamming: int = 3,
                           max_bucket: int = 4096, tile: int = 2048) -> pd.DataFrame:
    """Thin pandas wrapper over :func:`simhash_near_dup_pairs_ds` (small
    result collection for oracle queries)."""
    out = simhash_near_dup_pairs_ds(ds, id_col, max_hamming=max_hamming,
                                    max_bucket=max_bucket, tile=tile)
    return out.to_pandas().sort_values(
        ["id_a", "id_b"], ignore_index=True)


# ---------------------------------------------------------------------------
# Near-dup grouping: candidate pairs → connected components → survivors
# ---------------------------------------------------------------------------

def near_dup_groups(pairs: pd.DataFrame) -> pd.DataFrame:
    """Connected components over near-dup pairs via union-find with
    min-root union (exact, O(E·α) — replaces the r01 min-label-propagation
    loop, whose iteration cap silently under-merged long chain components).

    Returns (id, group) where group = min id of the component — the
    deterministic keep-one winner per duplicate cluster (D1 winner rule
    lifted to near-dup clusters)."""
    if pairs.empty:
        return pd.DataFrame({"id": pd.Series(dtype="int64"),
                             "group": pd.Series(dtype="int64")})
    parent: dict = {}

    def find(x):
        root = x
        while parent.get(root, root) != root:
            root = parent[root]
        while parent.get(x, x) != x:  # path compression
            parent[x], x = root, parent[x]
        return root

    edges = pairs[["id_a", "id_b"]].astype("int64")
    for a, b in zip(edges["id_a"], edges["id_b"]):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    ids = pd.unique(pd.concat([edges["id_a"], edges["id_b"]], ignore_index=True))
    out = pd.DataFrame({"id": np.sort(ids)})
    out["group"] = [find(int(i)) for i in out["id"]]
    out["id"] = out["id"].astype("int64")
    out["group"] = out["group"].astype("int64")
    return out


def _spanning_forest_batch(df: pd.DataFrame) -> pd.DataFrame:
    """Collapse an edge block to its spanning forest (≤ nodes-1 edges) with
    a local union-find — the map-side combiner of the distributed CC."""
    parent: dict = {}

    def find(x):
        root = x
        while parent.get(root, root) != root:
            root = parent[root]
        while parent.get(x, x) != x:  # path compression
            parent[x], x = root, parent[x]
        return root

    keep_a, keep_b = [], []
    for a, b in zip(df["id_a"], df["id_b"]):
        ra, rb = find(a), find(b)
        if ra != rb:
            if rb < ra:
                ra, rb = rb, ra
            parent[rb] = ra
            keep_a.append(a)
            keep_b.append(b)
    return pd.DataFrame({"id_a": pd.Series(keep_a, dtype="int64"),
                         "id_b": pd.Series(keep_b, dtype="int64")})


def _forest_labels_batch(df: pd.DataFrame) -> pd.DataFrame:
    """Final CC step: one spanning forest (single block) → (id, group)
    labels via union-find, group = component-min id."""
    parent: dict = {}

    def find(x):
        root = x
        while parent.get(root, root) != root:
            root = parent[root]
        while parent.get(x, x) != x:
            parent[x], x = root, parent[x]
        return root

    for a, b in zip(df["id_a"], df["id_b"]):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    ids = pd.unique(pd.concat([df["id_a"], df["id_b"]], ignore_index=True))
    out = pd.DataFrame({"id": np.sort(ids.astype(np.int64))})
    out["group"] = np.asarray([find(int(i)) for i in out["id"]], dtype=np.int64)
    return out


def near_dup_labels_ds(pairs: rd.Dataset,
                       *, fan_in: tuple[int, ...] = (16, 1)) -> rd.Dataset:
    """Distributed connected components via TREE FOREST MERGE, fully lazy
    and Dataset-out: every input edge block first collapses to its spanning
    forest (union-find combiner — ≤ distinct-nodes-1 edges survive per
    block), then a fixed repartition schedule (``fan_in``) merges forests
    tree-wise until one block holds a spanning forest of the whole
    candidate graph; the final task labels it with one union-find pass and
    emits ``(id, group)`` ROWS — the driver never sees an edge or a label.
    No joins, no unions, no convergence aggregate (an earlier per-iteration
    join/union implementation tripped a Ray 2.49 core ReferenceCounter bug
    and executor deadlocks), and no per-round parquet spill (the r03
    version spilled every halving round — at sf0.1 that was the dominant
    cost of the survivors pipeline).

    Scale bound: the last merge task holds ONE spanning forest —
    O(#distinct ids in any pair) edges, not O(pairs); intermediate tasks
    hold ≤ fan-in forests.  For web corpora that are 30-50 % near-dup the
    node set is O(corpus), so this stays the one place a single task sees
    O(corpus/constant) rows — widen ``fan_in`` (more levels) to push the
    per-task bound down; labels themselves stream out as a Dataset."""
    ds = pairs.map_batches(
        lambda df: _spanning_forest_batch(df[["id_a", "id_b"]].astype("int64")),
        batch_format="pandas")
    for nb in fan_in:
        ds = ds.repartition(nb).map_batches(
            _spanning_forest_batch, batch_size=None, batch_format="pandas")
    return ds.map_batches(_forest_labels_batch, batch_size=None,
                          batch_format="pandas")


def near_dup_groups_ray(pairs: rd.Dataset) -> pd.DataFrame:
    """Thin pandas wrapper over :func:`near_dup_labels_ds` — same output as
    :func:`near_dup_groups` (id-sorted labels)."""
    out = near_dup_labels_ds(pairs).to_pandas()
    return out.sort_values("id", ignore_index=True)



def dedup_survivors(all_ids: pd.Series, pairs: pd.DataFrame,
                    *, distributed_threshold: int = 200_000) -> pd.Series:
    """Keep-set after near-dup collapse: every id not in any cluster, plus
    the min id of each cluster.  Past ``distributed_threshold`` candidate
    pairs, components run as the iterative Ray groupby
    (:func:`near_dup_groups_ray`) instead of driver pandas.

    Driver-side variant (the caller already holds the id column).  For the
    scale path — where the corpus id column must NEVER reach the driver —
    use :func:`dedup_survivors_ds`."""
    if len(pairs) > distributed_threshold:
        import ray.data as _rd

        groups = near_dup_groups_ray(_rd.from_pandas(pairs))
    else:
        groups = near_dup_groups(pairs)
    losers = set(groups.loc[groups["id"] != groups["group"], "id"])
    return all_ids[~all_ids.isin(losers)].reset_index(drop=True)


def dedup_survivors_ds(docs: rd.Dataset, pairs: rd.Dataset | pd.DataFrame,
                       id_col: str, *, distributed_cc: bool = False,
                       distributed_threshold: int = 200_000) -> rd.Dataset:
    """Fully distributed survivor selection: the corpus flows through a
    hash-partitioned ANTI-JOIN against the loser set — the driver never
    reads the id column of the base table.

    Pass ``pairs`` as a DATASET (e.g. :func:`minhash_near_dup_pairs_ds`)
    and the whole chain — pairs → connected-component labels → losers →
    anti-join — stays distributed end-to-end: the driver never holds a
    pair, a forest edge, or a label, so a 30-50 % near-duplicate web corpus
    (candidate graph O(corpus)) cannot blow the driver heap.  A pandas
    ``pairs`` frame is still accepted for small interactive use
    (``distributed_cc=True`` forces even those through the distributed CC
    so the oracle gates that path)."""
    from .relational import hash_semi_join

    if isinstance(pairs, rd.Dataset):
        labels = near_dup_labels_ds(pairs)
        losers_ds = labels.map_batches(
            lambda df: df.loc[df["id"] != df["group"], ["id"]].rename(
                columns={"id": id_col}),
            batch_format="pandas")
        return hash_semi_join(docs, losers_ds, on=[id_col], anti=True)

    if len(pairs) and (distributed_cc or len(pairs) > distributed_threshold):
        groups = near_dup_groups_ray(rd.from_pandas(pairs))
    else:
        groups = near_dup_groups(pairs)
    losers = groups.loc[groups["id"] != groups["group"], ["id"]].rename(
        columns={"id": id_col})
    if losers.empty:
        return docs
    return hash_semi_join(docs, rd.from_pandas(losers.reset_index(drop=True)),
                          on=[id_col], anti=True)


# ---------------------------------------------------------------------------
# Incremental near-dup dedup: a new snapshot against an accepted corpus
# ---------------------------------------------------------------------------

def _make_cross_pairs(id_col: str, max_bucket: int = 4096):
    """Per-bucket-block CROSS-side pair spawner over (band, band_hash)
    groups: emits (id_a = new id, id_b = old id) only — new×new and
    old×old collisions are someone else's job (the batch self-dedup).
    Hot-bucket bound mirrors :func:`_make_band_pairs`: past ``max_bucket``
    members per side the bucket emits the smallest ``max_bucket`` ids of
    each side (logged; recall degrades, O(max_bucket²) pairs max)."""

    def cross_pairs(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame({"id_a": pd.Series(dtype="int64"),
                                 "id_b": pd.Series(dtype="int64")})
        order = np.lexsort((df[id_col].to_numpy(),
                            df["band_hash"].to_numpy(),
                            df["band"].to_numpy()))
        bd = df["band"].to_numpy()[order]
        bh = df["band_hash"].to_numpy()[order]
        ids_all = df[id_col].to_numpy()[order]
        side_all = df["__side"].to_numpy()[order]
        cut = np.flatnonzero((bd[1:] != bd[:-1]) | (bh[1:] != bh[:-1])) + 1
        starts = np.concatenate(([0], cut))
        ends = np.concatenate((cut, [len(bd)]))
        out_a, out_b = [], []
        for s, e in zip(starts, ends):
            if e - s < 2:
                continue
            ids = ids_all[s:e]
            side = side_all[s:e]
            news = np.unique(ids[side == 1])
            olds = np.unique(ids[side == 0])
            if not len(news) or not len(olds):
                continue
            if len(news) > max_bucket or len(olds) > max_bucket:
                logger.warning(
                    "incremental band bucket (%d,%d) has %d new × %d old "
                    "members (> %d): capping each side at its smallest %d "
                    "ids; cross-pair recall no longer exact for this bucket",
                    bd[s], bh[s], len(news), len(olds), max_bucket,
                    max_bucket)
                news = news[:max_bucket]
                olds = olds[:max_bucket]
            ia = np.repeat(news, len(olds))
            ib = np.tile(olds, len(news))
            out_a.append(ia)
            out_b.append(ib)
        if not out_a:
            return pd.DataFrame({"id_a": pd.Series(dtype="int64"),
                                 "id_b": pd.Series(dtype="int64")})
        return pd.DataFrame({"id_a": np.concatenate(out_a),
                             "id_b": np.concatenate(out_b)}).drop_duplicates()

    return cross_pairs


def minhash_dedup_incremental_ds(
    old: rd.Dataset,
    new: rd.Dataset,
    id_col: str,
    *,
    threshold: float = 0.5,
    num_perm: int = 64,
    bands: int | None = None,
    shingle_k: int = 3,
    max_bucket: int = 4096,
) -> rd.Dataset:
    """Incremental near-dup dedup — THE production ingestion shape at the
    100 TB design point: a NEW crawl snapshot is admitted against an
    already-accepted OLD corpus, dropping every new document whose exact
    shingle Jaccard against ANY old document reaches ``threshold``
    (LSH-banded candidates, stored-blob verification).  Returns the
    surviving new ids as a Dataset; within-snapshot duplicates are the
    batch self-dedup's job (:func:`minhash_near_dup_pairs_ds`).

    Ids must be globally unique across both sides (the corpus-wide doc
    id).  The OLD side's featurize spill is exactly the artifact a
    standing corpus would keep on disk between snapshots — re-runs with a
    persisted spill skip the old side's tokenize pass entirely.

    Scale shape: both sides' text is tokenized once into spills; banding
    is keys-only per side; the cross-side pair spawn shares the batch
    path's bucket machinery; verification reads blobs from BOTH spills
    through one disk-bucketed cogroup chain; survivors are a distributed
    anti-join of new ids against verified hits.  Nothing row-scale
    transits the driver."""
    from .relational import hash_semi_join

    if bands is None:
        bands = optimal_bands(num_perm, threshold)

    f_old, _fb_old = minhash_feat_spill(old, id_col, num_perm=num_perm,
                                        shingle_k=shingle_k)
    f_new, _fb_new = minhash_feat_spill(new, id_col, num_perm=num_perm,
                                        shingle_k=shingle_k)
    new_ids = new.select_columns([id_col])
    if not f_old or not f_new:
        return new_ids  # an empty side cannot produce a cross match

    def _tag(side: int):
        def fn(df: pd.DataFrame) -> pd.DataFrame:
            out = df.copy()
            out["__side"] = np.int8(side)
            return out
        return fn

    br_old = band_rows_from_sigs(
        _pruned_spill_read(f_old, [id_col, "__sig"], None),
        id_col, num_perm=num_perm, bands=bands).map_batches(
        _tag(0), batch_format="pandas")
    br_new = band_rows_from_sigs(
        _pruned_spill_read(f_new, [id_col, "__sig"], None),
        id_col, num_perm=num_perm, bands=bands).map_batches(
        _tag(1), batch_format="pandas")

    from .relational import groupby_buckets

    pairs = groupby_buckets(br_old.union(br_new), ["band", "band_hash"],
                            _make_cross_pairs(id_col, max_bucket))

    blob_ds = _pruned_spill_read(f_old + f_new, [id_col, "__blob", "__nsh"],
                                 None)
    verified = verify_pairs_blob(pairs, blob_ds, id_col, threshold=threshold,
                                 n_buckets=_verify_buckets(f_old + f_new))

    hits = verified.map_batches(
        lambda df: pd.DataFrame({id_col: df["id_a"].astype("int64")}),
        batch_format="pandas")
    return hash_semi_join(new_ids, hits, on=[id_col], anti=True)


def dup_cluster_size_hist(docs: rd.Dataset, pairs: rd.Dataset,
                          id_col: str = "doc_id") -> pd.DataFrame:
    """Near-dup AUDIT: histogram of connected-component sizes — the
    standard dedup report (how much of the corpus sits in 2-doc pairs vs
    giant mirror clusters; the cluster-size tail decides whether banding
    parameters need tightening).

    Scale shape: labels come from :func:`near_dup_labels_ds` (tree forest
    merge, Dataset end-to-end); per-group sizes and the size histogram are
    two keys-only ``grouped_agg`` exchanges, and the driver sees only the
    O(distinct sizes) histogram rows.  Singleton count (docs in no pair)
    is derived arithmetically — ``n_docs - Σ size·count`` — without ever
    materializing per-doc labels.  Returns pandas
    (cluster_size, n_clusters), ascending.
    """
    from .relational import grouped_agg

    labels = near_dup_labels_ds(pairs)
    sizes = grouped_agg(labels, ["group"], {"sz": ("count", "id")})
    hist = grouped_agg(sizes.select_columns(["sz"]),
                       ["sz"], {"n_clusters": ("count", "sz")}).to_pandas()
    n_docs = docs.count()
    in_clusters = int((hist["sz"] * hist["n_clusters"]).sum()) if len(hist) else 0
    out = hist.rename(columns={"sz": "cluster_size"})
    singles = n_docs - in_clusters
    if singles > 0:
        out = pd.concat(
            [pd.DataFrame({"cluster_size": [1], "n_clusters": [singles]}), out],
            ignore_index=True)
    out["cluster_size"] = out["cluster_size"].astype("int64")
    out["n_clusters"] = out["n_clusters"].astype("int64")
    return out.sort_values("cluster_size", ignore_index=True)


def containment_pairs(
    docs: rd.Dataset,
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    width: int = 4,
    min_containment: float = 0.5,
    max_fp_docs: int = 64,
    round_to: int = 6,
) -> rd.Dataset:
    """ASYMMETRIC near-dup: document pairs where one side's shingle set is
    largely CONTAINED in the other's — Broder's containment measure
    c(A,B) = |S(A)∩S(B)| / |S(A)| (Broder 1997 §2).  Resemblance
    (Jaccard) misses quote inclusion: a paragraph lifted verbatim into a
    10× longer page scores near-zero Jaccard but containment ≈ 1 — the
    partial-copy / quotation case every web dedup audit needs alongside
    the symmetric MinHash family.

    Shape (all keys-only exchanges): per-doc DISTINCT sliding ``width``-
    token shingles hashed md5-lower-64 (bit-identical to DuckDB
    ``md5_number_lower`` so the SQL twin recomputes them exactly); per-doc
    set sizes via combiner-bounded ``grouped_agg``; a bucketed fp-group
    pair spawn (lexsort + run-length, the MinHash band shape) with the
    Bharat-Broder stop rule — shingles on more than ``max_fp_docs`` docs
    are boilerplate and DROPPED identically in the SQL twin; shared
    counts reduce keys-only; two hash-joins attach |S(A)|,|S(B)|.

    Returns ``(id_a < id_b, shared, cont_a, cont_b)`` for pairs where
    max(cont_a, cont_b) ≥ ``min_containment`` — cont_a = shared/|S(A)|
    (how much of A sits inside B).
    """
    from .relational import grouped_agg, groupby_buckets, schema_anchor

    # Two exchanges TOTAL.  featurize already dedups shingles PER DOC (the
    # per-doc ``seen`` set) and spawn drops the (id, fp) repeats of a
    # duplicated doc row, so no distinct exchange is needed; the per-doc
    # set size is known at featurize time and RIDES ALONG with every fp
    # row, so the pair-count reduce carries (n_a, n_b) in its key and the
    # two size-attach hash joins disappear.
    def featurize(df: pd.DataFrame) -> pd.DataFrame:
        ids, fps, szs = [], [], []
        for did, text in zip(df[id_col].to_numpy("int64"),
                             df[text_col].fillna("")):
            toks = text.split()
            seen = {_md5_u64(" ".join(toks[i:i + width]))
                    for i in range(max(len(toks) - width + 1, 0))}
            ids.append(np.full(len(seen), did, dtype=np.int64))
            fps.append(np.fromiter(seen, dtype=np.uint64, count=len(seen)))
            szs.append(np.full(len(seen), len(seen), dtype=np.int64))
        if not ids:
            return pd.DataFrame({id_col: pd.Series(dtype="int64"),
                                 "fp": pd.Series(dtype="uint64"),
                                 "n": pd.Series(dtype="int64")})
        return pd.DataFrame({id_col: np.concatenate(ids),
                             "fp": np.concatenate(fps),
                             "n": np.concatenate(szs)})

    hf = docs.map_batches(featurize, batch_format="pandas")

    def spawn(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"id_a": pd.Series(dtype="int64"),
                              "id_b": pd.Series(dtype="int64"),
                              "n_a": pd.Series(dtype="int64"),
                              "n_b": pd.Series(dtype="int64"),
                              "shared": pd.Series(dtype="int64")})
        if not len(df):
            return empty
        order = np.lexsort((df[id_col].to_numpy(), df["fp"].to_numpy()))
        fps = df["fp"].to_numpy()[order]
        ids = df[id_col].to_numpy()[order]
        ns = df["n"].to_numpy("int64")[order]
        # a doc row duplicated in the input repeats its (id, fp) rows: keep
        # one, so it neither pairs with itself nor double-counts shared
        keep = np.ones(len(fps), dtype=bool)
        keep[1:] = (fps[1:] != fps[:-1]) | (ids[1:] != ids[:-1])
        fps, ids, ns = fps[keep], ids[keep], ns[keep]
        cut = np.flatnonzero(fps[1:] != fps[:-1]) + 1
        starts = np.concatenate(([0], cut))
        ends = np.concatenate((cut, [len(fps)]))
        out_a, out_b, out_na, out_nb = [], [], [], []
        for s, e in zip(starts, ends):
            m = e - s
            if m < 2 or m > max_fp_docs:
                continue  # singleton or stop-shingle
            grp = ids[s:e]  # sorted, distinct
            gn = ns[s:e]
            ia, ib = np.triu_indices(m, k=1)
            out_a.append(grp[ia])
            out_b.append(grp[ib])
            out_na.append(gn[ia])
            out_nb.append(gn[ib])
        if not out_a:
            return empty
        pairs = pd.DataFrame({"id_a": np.concatenate(out_a),
                              "id_b": np.concatenate(out_b),
                              "n_a": np.concatenate(out_na),
                              "n_b": np.concatenate(out_nb)})
        g = pairs.groupby(["id_a", "id_b", "n_a", "n_b"], sort=False).size()
        return g.rename("shared").reset_index()

    partial = groupby_buckets(hf, ["fp"], spawn)
    counts = schema_anchor(
        grouped_agg(partial, ["id_a", "id_b", "n_a", "n_b"],
                    {"shared": ("sum", "shared")}),
        pd.DataFrame({"id_a": pd.Series(dtype="int64"),
                      "id_b": pd.Series(dtype="int64"),
                      "n_a": pd.Series(dtype="int64"),
                      "n_b": pd.Series(dtype="int64"),
                      "shared": pd.Series(dtype="int64")}))

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        sh = df["shared"].to_numpy("int64")
        ca = np.round(sh / df["n_a"].to_numpy("float64"), round_to)
        cb = np.round(sh / df["n_b"].to_numpy("float64"), round_to)
        keep = np.maximum(ca, cb) >= min_containment
        return pd.DataFrame({
            "id_a": df["id_a"].to_numpy("int64")[keep],
            "id_b": df["id_b"].to_numpy("int64")[keep],
            "shared": sh[keep], "cont_a": ca[keep], "cont_b": cb[keep]})

    return counts.map_batches(finish, batch_format="pandas")


# ---------------------------------------------------------------------------
# Edit-distance similarity join (Ed-Join)
# ---------------------------------------------------------------------------

def _banded_levenshtein(a: str, b: str, k: int) -> int:
    """Exact Levenshtein distance if ≤ ``k``, else any value > ``k``
    (banded DP, O(len(a)·(2k+1)) — the verify step never needs the true
    distance of a non-match)."""
    la, lb = len(a), len(b)
    if abs(la - lb) > k:
        return k + 1
    if la == 0:
        return lb
    if lb == 0:
        return la
    INF = k + 1
    prev = list(range(lb + 1))
    for i in range(1, la + 1):
        cur = [INF] * (lb + 1)
        lo = max(1, i - k)
        hi = min(lb, i + k)
        if i <= k:
            cur[0] = i
        ca = a[i - 1]
        row_best = INF
        for j in range(lo, hi + 1):
            best = prev[j - 1] + (0 if ca == b[j - 1] else 1)
            up = prev[j] + 1
            if up < best:
                best = up
            left = cur[j - 1] + 1
            if left < best:
                best = left
            if best > INF:
                best = INF
            cur[j] = best
            if best < row_best:
                row_best = best
        if row_best > k:
            return INF
        prev = cur
    return prev[lb]


#: sentinel "gram" values for short strings are small ints (lengths);
#: real gram hashes carry a forced top bit, so the two key spaces are
#: disjoint by construction
_EDJOIN_SENT_MAX = np.uint64(64)
_EDJOIN_TOPBIT = np.uint64(1) << np.uint64(63)


def editdist_pairs_ds(
    ds: rd.Dataset,
    id_col: str,
    str_col: str,
    *,
    max_dist: int = 2,
    q: int = 2,
    max_bucket: int | None = None,
) -> rd.Dataset:
    """EXACT edit-distance self-join: all pairs with Levenshtein
    distance ≤ ``max_dist`` — the string-similarity member of the dedup
    family (complements token-level :func:`ngram_jaccard_pairs_ds`,
    which is blind to sub-token typos/OCR noise).  Candidate generation
    is Ed-Join's q-gram prefix filter (Xiao, Wang, Lin, VLDB'08): one
    edit destroys at most ``q`` distinct q-grams, so two strings within
    distance k share a gram among their first ``q·k + 1`` grams under
    ANY global total order (here (document-frequency asc, gram-hash
    asc) — rare grams first, so the Zipf head never spawns a bucket).
    The length filter ``|len_a − len_b| ≤ k`` prunes inside each bucket,
    and a banded-DP verify keeps precision exact.

    The gram lemma is VACUOUS for short strings: a string with ≤ ``q·k``
    grams (``len ≤ q·(k+1) − 1``) can sit within distance k of a string
    sharing NO gram at all (e.g. q=2, k=2: "abcd" vs "xbxd").  Those
    strings — and every possible partner, i.e. anything with
    ``len ≤ q·(k+1) − 1 + k`` — additionally emit length-keyed sentinel
    buckets ``len .. len+k``; a short pair (la ≤ lb ≤ la+k) always meets
    in bucket ``max(la, lb)``, restoring completeness while keeping the
    short tail sharded by length instead of one hot bucket.

    Distributed shape — raw strings move only into the verify join:
    distinct ``(id, gram)`` rows → groupby(gram) attach df →
    groupby(id) keep (df, gram)-smallest ``q·k+1`` prefix →
    groupby(gram) pair spawn with in-bucket length filter → distinct →
    one size-guarded lookup attaches both strings → banded verify.  The reference
    has no fuzzy-string notion at all (its nearest analogue is the
    exact insert gate, ``Borges/db_scripts/insert_jl.py:28-41``).

    Returns ``(id_a, id_b, dist)`` with ``id_a < id_b``, both int64,
    ``dist`` int64 ≤ ``max_dist``.

    ``max_bucket`` (None = exact) caps one gram bucket's pair spawn for
    memory safety under adversarial skew (recall-only trade; verify
    keeps precision exact)."""
    from .relational import (attach_or_filter, distinct, groupby_buckets,
                             schema_anchor, spill_point)

    k = int(max_dist)
    prefix_len = q * k + 1
    # len ≤ unsafe_max → the prefix lemma gives no shared-gram guarantee;
    # len ≤ sent_max → could be within k of such a string
    unsafe_max = q * (k + 1) - 1
    sent_max = unsafe_max + k
    if sent_max + k >= int(_EDJOIN_SENT_MAX):
        raise ValueError(f"max_dist={k}/q={q} exceed the sentinel id space")

    def norm(df: pd.DataFrame) -> pd.DataFrame:
        s = df[str_col].fillna("").astype(str)
        return pd.DataFrame({id_col: df[id_col].astype("int64"),
                             "__s": s,
                             "__ln": s.str.len().astype("int64")})

    strs = spill_point(ds.map_batches(norm, batch_format="pandas"),
                       "edj_strs")

    def gram_rows(df: pd.DataFrame) -> pd.DataFrame:
        """Distinct ``(id, gram, len)`` rows, fully vectorized: the batch's
        strings concatenate into ONE uint32 codepoint array (UTF-32-LE —
        gram semantics stay character-level for any unicode input), a
        polynomial rolling hash covers every position in ``q`` vector
        ops, boundary-crossing and gram-unsafe positions mask out, and
        per-string dedup is one lexsort.  Hash collisions only ADD
        candidates (a merged bucket), never lose a pair."""
        empty = pd.DataFrame({id_col: pd.Series(dtype="int64"),
                              "gram": pd.Series(dtype="uint64"),
                              "__ln": pd.Series(dtype="int64")})
        if not len(df):
            return empty
        ids = df[id_col].to_numpy("int64")
        lns = df["__ln"].to_numpy("int64")
        parts = []
        codes = np.frombuffer("".join(df["__s"]).encode("utf-32-le"),
                              np.uint32).astype(np.uint64)
        n_pos = len(codes) - q + 1
        if n_pos > 0:
            acc = codes[:n_pos].copy()
            for j in range(1, q):
                acc = acc * _SHINGLE_MIX + codes[j:j + n_pos]
            row = np.repeat(np.arange(len(df), dtype=np.int64), lns)
            pos_row = row[:n_pos]
            # a gram is real iff it stays inside one string AND that
            # string is long enough for the prefix lemma to bind
            ok = (row[q - 1:] == pos_row) & (lns[pos_row] > unsafe_max)
            g = acc[ok] | _EDJOIN_TOPBIT
            r = pos_row[ok]
            if len(r):
                order = np.lexsort((g, r))
                r, g = r[order], g[order]
                keep = np.concatenate(
                    ([True], (r[1:] != r[:-1]) | (g[1:] != g[:-1])))
                r = r[keep]
                parts.append((ids[r], g[keep], lns[r]))
        sm = lns <= sent_max
        if sm.any():
            n_s = int(sm.sum())
            parts.append((np.repeat(ids[sm], k + 1),
                          (np.repeat(lns[sm], k + 1)
                           + np.tile(np.arange(k + 1), n_s)).astype(np.uint64),
                          np.repeat(lns[sm], k + 1)))
        if not parts:
            return empty
        return pd.DataFrame(
            {id_col: np.concatenate([p[0] for p in parts]),
             "gram": np.concatenate([p[1] for p in parts]),
             "__ln": np.concatenate([p[2] for p in parts])})

    rows = spill_point(strs.map_batches(gram_rows, batch_format="pandas"),
                       "edj_rows")
    # sentinel rows bypass the prefix selection entirely — a short
    # string must ALWAYS surface in its length-keyed sentinel buckets
    sent = rows.map_batches(
        lambda df: df[df["gram"] <= _EDJOIN_SENT_MAX],
        batch_format="pandas")
    real = rows.map_batches(
        lambda df: df[df["gram"] > _EDJOIN_SENT_MAX],
        batch_format="pandas")

    def attach_df(df: pd.DataFrame) -> pd.DataFrame:
        out = df.copy()
        if not len(df):
            out["df"] = pd.Series(dtype="int64")
            return out
        out["df"] = df.groupby("gram", sort=False)[id_col].transform("size")
        return out

    with_df = groupby_buckets(real, ["gram"], attach_df)

    def prefix(df: pd.DataFrame) -> pd.DataFrame:
        cols = [id_col, "gram", "__ln"]
        if not len(df):
            return df[cols]
        f = df.sort_values([id_col, "df", "gram"], kind="mergesort")
        rank = f.groupby(id_col, sort=False).cumcount().to_numpy()
        return f.loc[rank < prefix_len, cols]

    prefix_rows = groupby_buckets(with_df, [id_col], prefix)
    cand_rows = prefix_rows.union(sent)

    def gram_pairs(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"id_a": pd.Series(dtype="int64"),
                              "id_b": pd.Series(dtype="int64")})
        if not len(df):
            return empty
        from .relational import run_pair_indices

        order = np.lexsort((df[id_col].to_numpy(), df["gram"].to_numpy()))
        g = df["gram"].to_numpy()[order]
        ids_all = df[id_col].to_numpy("int64")[order]
        ln_all = df["__ln"].to_numpy("int64")[order]
        keep = np.concatenate(([True], (g[1:] != g[:-1])
                               | (ids_all[1:] != ids_all[:-1])))
        g, ids, lns = g[keep], ids_all[keep], ln_all[keep]
        cut = np.flatnonzero(g[1:] != g[:-1]) + 1
        starts = np.concatenate(([0], cut))
        sizes = np.concatenate((cut, [len(g)])) - starts
        if max_bucket is not None and (sizes > max_bucket).any():
            logger.warning(
                "%d editdist gram buckets capped at %d members (largest "
                "%d); recall no longer exact",
                int((sizes > max_bucket).sum()), max_bucket,
                int(sizes.max()))
            loc = np.arange(len(ids), dtype=np.int64) - np.repeat(starts,
                                                                  sizes)
            hm = loc < max_bucket
            ids, lns = ids[hm], lns[hm]
            sizes = np.minimum(sizes, max_bucket)
        fst, snd = run_pair_indices(sizes)
        if not len(fst):
            return empty
        km = np.abs(lns[fst] - lns[snd]) <= k
        return pd.DataFrame({"id_a": ids[fst][km], "id_b": ids[snd][km]})

    # candidate pairs spill once so the lookup reads their schema without
    # re-running the two gram exchanges; the string table attaches to both
    # sides through one lookup (the byte guard matters here: strings are
    # the payload)
    cands = spill_point(
        distinct(groupby_buckets(cand_rows, ["gram"], gram_pairs),
                 ["id_a", "id_b"]), "edj_cand")
    j = attach_or_filter(cands, strs, id_col,
                         {"id_a": {"__s": "s_a"}, "id_b": {"__s": "s_b"}},
                         "inner")

    def verify(df: pd.DataFrame) -> pd.DataFrame:
        dist = np.fromiter(
            (_banded_levenshtein(a, b, k)
             for a, b in zip(df["s_a"], df["s_b"])),
            dtype=np.int64, count=len(df))
        keep = dist <= k
        return pd.DataFrame({"id_a": df["id_a"].to_numpy("int64")[keep],
                             "id_b": df["id_b"].to_numpy("int64")[keep],
                             "dist": dist[keep]})

    return schema_anchor(
        j.map_batches(verify, batch_format="pandas"),
        pd.DataFrame({"id_a": pd.Series(dtype="int64"),
                      "id_b": pd.Series(dtype="int64"),
                      "dist": pd.Series(dtype="int64")}))


def editdist_pairs(
    ds: rd.Dataset,
    id_col: str,
    str_col: str,
    *,
    max_dist: int = 2,
    q: int = 2,
    max_bucket: int | None = None,
) -> pd.DataFrame:
    """Thin pandas wrapper over :func:`editdist_pairs_ds` (small result
    collection for oracle queries).  No pair within ``max_dist`` gives a
    typed empty frame: ``to_pandas()`` of all-empty blocks has no columns."""
    res = editdist_pairs_ds(ds, id_col, str_col, max_dist=max_dist, q=q,
                            max_bucket=max_bucket).materialize()
    out = res.to_pandas()
    if out.empty:
        schema = res.schema()
        out = pd.DataFrame({n: pd.Series(dtype=t.to_pandas_dtype())
                            for n, t in zip(schema.names, schema.types)})
    return out.sort_values(["id_a", "id_b"], ignore_index=True)


# ---------------------------------------------------------------------------
# Sorted-neighborhood blocking (Hernandez & Stolfo 1995)
# ---------------------------------------------------------------------------

def sorted_neighborhood_pairs_ds(
    ds: rd.Dataset,
    id_col: str,
    key_col: str,
    *,
    window: int = 8,
    verify_prefix: int = 8,
    group_rows: int = 4096,
) -> rd.Dataset:
    """Sorted-neighborhood blocking: rank every row by ``(key, id)``, pair
    rows whose ranks differ by ≤ ``window``, keep pairs whose keys share a
    ``verify_prefix``-char prefix.  The classic record-linkage blocking
    method (Hernandez & Stolfo, SIGMOD 1995) — O(n·w) candidate pairs vs
    the O(n²) cross product, and the merge phase touches only neighbors.

    Distributed shape (no global sort materialization, no driver rows):

    1. **Rank assignment.** Rows bucket by an ORDER-PRESERVING 2-char key
       prefix code; per-prefix counts make a tiny driver-side offset table
       (≤ distinct-prefixes rows — the only driver contact), and one
       bucketed exchange sorts each prefix group locally and adds its
       offset → exact global ``row_number() OVER (ORDER BY key, id)``.
    2. **Windowed pairing.** Rows regroup by ``rank // group_rows``; each
       group also receives the next group's first ``window`` rows as GHOST
       rows, so every ≤-window pair lies inside exactly one group (a pair
       is emitted only where its lower-rank end is a non-ghost member).
       Per-group pairing is a vectorized shift-compare over rank-sorted
       arrays — each task holds ``group_rows + window`` rows regardless of
       corpus size.

    Skew note: a pathological corpus where every key shares one 2-char
    prefix collapses stage 1 to a single ranking task (the counts table
    says so up front); widen the prefix code there.  Returns
    ``(id_a, id_b, gap)`` with ``id_a`` the lower-RANK endpoint.
    """
    from .relational import global_rank_str, groupby_buckets, schema_anchor

    if window >= group_rows:
        # ghost rows only replicate the NEXT group's first ``window`` rows
        # into the previous group — a window spanning two group boundaries
        # would silently drop candidate pairs, so grow the group instead
        group_rows = window + 1

    ranked = global_rank_str(ds, key_col, id_col, "rnk")

    def to_groups(df: pd.DataFrame) -> pd.DataFrame:
        rnk = df["rnk"].to_numpy("int64")
        base = df.copy()
        base["__pg"] = rnk // group_rows
        base["__ghost"] = np.int64(0)
        ghost_mask = (rnk % group_rows < window) & (rnk >= group_rows)
        ghosts = df.loc[ghost_mask].copy()
        ghosts["__pg"] = (ghosts["rnk"].to_numpy("int64") // group_rows) - 1
        ghosts["__ghost"] = np.int64(1)
        return pd.concat([base, ghosts], ignore_index=True)

    grouped = ranked.map_batches(to_groups, batch_format="pandas")

    def pair_block(df: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for _, grp in df.groupby("__pg", sort=False):
            grp = grp.sort_values("rnk", kind="mergesort")
            ids = grp[id_col].to_numpy("int64")
            keys = grp[key_col].astype(str).to_numpy()
            rnk = grp["rnk"].to_numpy("int64")
            ghost = grp["__ghost"].to_numpy("int64")
            pfx = grp[key_col].astype(str).str.slice(0, verify_prefix).to_numpy()
            n = len(grp)
            for g in range(1, window + 1):
                if n <= g:
                    break
                left = slice(0, n - g)
                right = slice(g, n)
                ok = ((rnk[right] - rnk[left] == g)
                      & (ghost[left] == 0)
                      & (pfx[left] == pfx[right]))
                if ok.any():
                    outs.append(pd.DataFrame({
                        "id_a": ids[left][ok], "id_b": ids[right][ok],
                        "gap": np.full(int(ok.sum()), g, dtype=np.int64)}))
        if not outs:
            return pd.DataFrame({"id_a": pd.Series(dtype="int64"),
                                 "id_b": pd.Series(dtype="int64"),
                                 "gap": pd.Series(dtype="int64")})
        return pd.concat(outs, ignore_index=True)

    return schema_anchor(
        groupby_buckets(grouped, ["__pg"], pair_block),
        pd.DataFrame({"id_a": pd.Series(dtype="int64"),
                      "id_b": pd.Series(dtype="int64"),
                      "gap": pd.Series(dtype="int64")}))


def sorted_neighborhood_pairs(ds: rd.Dataset, id_col: str, key_col: str,
                              **kw) -> pd.DataFrame:
    """Thin pandas wrapper over :func:`sorted_neighborhood_pairs_ds`
    (small result collection for oracle queries)."""
    out = sorted_neighborhood_pairs_ds(ds, id_col, key_col, **kw).to_pandas()
    return out.sort_values(["id_a", "id_b"], ignore_index=True)


def winnow_overlap_pairs(ds: rd.Dataset, *, id_col: str = "doc_id",
                         text_col: str = "text", k: int = 8, w: int = 4,
                         stop: int = 64, top: int = 100) -> pd.DataFrame:
    """MOSS-style overlap ranking: documents paired and scored by how many
    winnowing fingerprints they share (Schleimer et al. 2003, §5 — the
    actual MOSS pipeline: winnow → invert → rank pairs).  Any shared
    passage of ≥ k+w-1 bytes is guaranteed to contribute ≥1 shared
    fingerprint, so the score is a calibrated plagiarism/mirror signal.

    Scale shape: selection is one exchange-free map
    (:func:`~borges_ray.ops.textops.winnow_fingerprints`); the inverted
    index is a keys-only (fp, id) exchange; fingerprints shared by more
    than ``stop`` documents are DROPPED before the quadratic fan-out (the
    stop-word/boilerplate rule — mirrored exactly in the SQL twin, so
    unlike the MinHash chain-cap this stays oracle-exact); per-fp pair
    spawn is the shared vectorized in-run fan-out; pair counts combine
    map-side and the final top-``top`` is combiner-bounded."""
    from .relational import groupby_buckets, grouped_agg, run_pair_indices, topk
    from .textops import winnow_fingerprints

    fps = winnow_fingerprints(ds, id_col=id_col, text_col=text_col, k=k, w=w)
    docfp = grouped_agg(
        fps.map_batches(lambda df: df[["fp", id_col]].drop_duplicates(),
                        batch_format="pandas"),
        ["fp", id_col], {"n": ("count", "fp")}).select_columns(["fp", id_col])

    def spawn(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"id_a": pd.Series(dtype="int64"),
                              "id_b": pd.Series(dtype="int64"),
                              "shared": pd.Series(dtype="int64")})
        if not len(df):
            return empty
        order = np.lexsort((df[id_col].to_numpy(), df["fp"].to_numpy()))
        fp = df["fp"].to_numpy()[order]
        ids = df[id_col].to_numpy("int64")[order]
        cut = np.flatnonzero(fp[1:] != fp[:-1]) + 1
        starts = np.concatenate(([0], cut))
        sizes = np.concatenate((cut, [len(fp)])) - starts
        keep = sizes <= stop          # boilerplate stop-fingerprint rule
        if not keep.all():
            hm = np.repeat(keep, sizes)
            ids, fp = ids[hm], fp[hm]
            sizes = sizes[keep]
        fst, snd = run_pair_indices(sizes)
        if not len(fst):
            return empty
        out = pd.DataFrame({"id_a": ids[fst], "id_b": ids[snd]})
        g = out.groupby(["id_a", "id_b"], sort=False).size()
        return g.rename("shared").reset_index()

    pairs = groupby_buckets(docfp, ["fp"], spawn)
    counts = grouped_agg(pairs, ["id_a", "id_b"], {"shared": ("sum", "shared")})
    out = topk(counts, ["shared"], top, tiebreak=["id_a", "id_b"])
    out["shared"] = out["shared"].astype("int64")
    return out.reset_index(drop=True)
