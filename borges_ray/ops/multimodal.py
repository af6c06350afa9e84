"""Multimodal-column plumbing: binary payloads with typed metadata through
actor-pool decode / feature-extract stages.

The image/audio/video codec libraries are not in this container, so decode
targets a deterministic FAKE CONTAINER FORMAT ("BORG"): a real binary
header (magic, type tag, width, height, body length) followed by frame
records.  The extractors genuinely PARSE the bytes — header fields,
big-endian ints, per-frame records — so the Ray-side shape (schema, actor
``__init__`` state, small batches for wide binary rows, explode-per-frame
output) is exactly what a PIL/ffmpeg deployment needs; swapping the parser
body for ``PIL.Image.open`` / ``av.open`` is a one-function change, and
``try: import`` guard rails mark the swap points.

Payloads derive from the ``documents`` table (doc_id arithmetic), which
makes both stages ORACLE-CHECKABLE: DuckDB recomputes the expected fields
from doc_id while the engine must actually parse the container bytes.

Layout (big-endian):

    0:4   b"BORG"                     magic
    4:5   type tag (0=image, 1=audio, 2=video)
    5:9   width  = 16 + d % 317
    9:13  height = 16 + d % 211
    13:17 body length (bytes)
    17:   body — image/audio: constant byte (d % 251), length 100 + d%1000;
          video: n_total = 1 + d % 9 frame records, each 64 bytes of
          constant (d + frame_idx) % 251
"""

from __future__ import annotations

import struct

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data as rd

import logging

logger = logging.getLogger(__name__)

MEDIA_SCHEMA = pa.schema(
    [
        ("media_id", pa.int64()),
        ("media_type", pa.string()),   # "image/borg", "audio/borg", "video/borg"
        ("payload", pa.binary()),
        ("n_bytes", pa.int64()),
    ]
)

_MAGIC = b"BORG"
_TYPES = ["image/borg", "audio/borg", "video/borg"]
FRAME_BYTES = 64


def synth_media_payload(d: int, video: bool = False) -> tuple[str, bytes]:
    """(media_type, payload) for doc ``d`` in the BORG container format."""
    width = 16 + d % 317
    height = 16 + d % 211
    if video:
        n_total = 1 + d % 9
        body = b"".join(bytes([(d + fi) % 251]) * FRAME_BYTES
                        for fi in range(n_total))
        tag = 2
    else:
        body = bytes([d % 251]) * (100 + d % 1000)
        tag = d % 3 % 2  # 0=image, 1=audio (videos come from video=True)
    header = _MAGIC + struct.pack(">BIII", tag, width, height, len(body))
    return _TYPES[tag], header + body


def media_from_documents(ds: rd.Dataset, *, video: bool = False) -> rd.Dataset:
    """documents → MEDIA_SCHEMA rows (media_id = doc_id)."""

    def gen(df: pd.DataFrame) -> pd.DataFrame:
        types, payloads = [], []
        for d in df["doc_id"]:
            t, p = synth_media_payload(int(d), video=video)
            types.append(t)
            payloads.append(p)
        return pd.DataFrame({"media_id": df["doc_id"].astype("int64"),
                             "media_type": types, "payload": payloads,
                             "n_bytes": [len(p) for p in payloads]})

    return ds.map_batches(gen, batch_format="pandas")


def _parse_header(payload: bytes) -> tuple[int, int, int, int]:
    """Parse the BORG header → (type_tag, width, height, body_len).  This is
    the honest stand-in for a codec's container parse; a real deployment
    replaces callers with PIL / libav open."""
    try:  # the real decoders, if ever present in the image
        import PIL.Image  # noqa: F401

        raise NotImplementedError("real image decode not wired in this environment")
    except ImportError:
        pass
    if payload[:4] != _MAGIC:
        raise ValueError("bad magic")
    return struct.unpack(">BIII", payload[4:17])


class MediaFeatureExtractor:
    """Actor-pool stage: parse binary payloads → typed feature columns.

    Stateful-stage shape (SURVEY.md §2.3): decoder/model handles are built
    ONCE per actor in ``__init__`` (for real codecs: open the model,
    allocate pinned buffers), then ``__call__`` runs per batch.  Use small
    ``batch_size`` — wide binary rows blow out worker heaps otherwise
    (ray_guide "Memory-aware")."""

    def __init__(self):
        self.parse = _parse_header  # per-actor decoder handle

    def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
        widths, heights, checksums = [], [], []
        for p in df["payload"]:
            _tag, w, h, blen = self.parse(p)
            body = np.frombuffer(p, dtype=np.uint8, offset=17)
            widths.append(w)
            heights.append(h)
            checksums.append(int(body.sum(dtype=np.uint64) % (1 << 32)))
        return pd.DataFrame(
            {
                "media_id": df["media_id"].to_numpy(),
                "media_type": df["media_type"].to_numpy(),
                "n_bytes": df["payload"].map(len).astype("int64"),
                "width": pd.Series(widths, dtype="int64"),
                "height": pd.Series(heights, dtype="int64"),
                "checksum": pd.Series(checksums, dtype="int64"),
            }
        )


def extract_media_features(media: rd.Dataset, *, batch_size: int = 256,
                           concurrency=(1, 8)) -> rd.Dataset:
    """media(MEDIA_SCHEMA) → (media_id, media_type, n_bytes, width, height,
    checksum)."""
    return media.map_batches(
        MediaFeatureExtractor,
        batch_format="pandas",
        batch_size=batch_size,      # small: payloads are wide
        concurrency=concurrency,
        num_cpus=1,
    )


def _sample_frames(payload: bytes, n_frames: int) -> list[bytes]:
    """Read ≤ ``n_frames`` frame records from a BORG video container (real
    deployments: ffmpeg/pyav keyframe extraction — same output contract)."""
    try:
        import av  # noqa: F401

        raise NotImplementedError("real frame sampling not wired in this environment")
    except ImportError:
        pass
    _tag, _w, _h, blen = struct.unpack(">BIII", payload[4:17])
    n_total = blen // FRAME_BYTES
    out = []
    for fi in range(min(n_frames, n_total)):
        start = 17 + fi * FRAME_BYTES
        out.append(payload[start: start + FRAME_BYTES])
    return out


def _resize(frame: bytes, side: int = 8) -> np.ndarray:
    """Fold a frame record into a (side × side) float grid (real:
    PIL/libvips resample)."""
    # float64, not float32: the oracle recomputes thumb stats with double
    # division — float32 error (~6e-8) can cross a 6-dp rounding boundary
    arr = np.frombuffer(frame, dtype=np.uint8).astype(np.float64)
    need = side * side
    if len(arr) < need:
        arr = np.pad(arr, (0, need - len(arr)))
    return (arr[:need] / 255.0).reshape(side, side)


class FrameSampler:
    """Actor-pool stage: video payloads → one row per sampled frame with a
    resized thumbnail feature.  Explode happens inside the batch (one row
    in, ≤ n_frames rows out), keeping the stage single-output;
    ``batch_size`` stays small because each input row fans out."""

    def __init__(self, n_frames: int = 4, side: int = 8):
        self.n_frames = n_frames
        self.side = side

    def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for mid, payload in zip(df["media_id"], df["payload"]):
            for fi, frame in enumerate(_sample_frames(payload, self.n_frames)):
                thumb = _resize(frame, self.side)
                rows.append((mid, fi, round(float(thumb.mean()), 6),
                             round(float(thumb.std()), 6)))
        return pd.DataFrame(rows, columns=["media_id", "frame_idx",
                                           "thumb_mean", "thumb_std"])


def sample_video_frames(media: rd.Dataset, *, n_frames: int = 4,
                        batch_size: int = 64, concurrency=(1, 4)) -> rd.Dataset:
    """media(MEDIA_SCHEMA) → (media_id, frame_idx, thumb_mean, thumb_std)."""
    return media.map_batches(
        FrameSampler,
        fn_constructor_kwargs={"n_frames": n_frames},
        batch_format="pandas",
        batch_size=batch_size,
        concurrency=concurrency,
        num_cpus=1,
    )


# ---------------------------------------------------------------------------
# REAL codecs: PPM (P6) images and RIFF/WAVE PCM16 audio — stdlib-only
# ---------------------------------------------------------------------------
#
# Unlike the BORG container above (a deterministic stand-in for opaque
# proprietary formats), these are the actual public binary formats: netpbm
# P6 ("P6\n<w> <h>\n<maxval>\n" + raw RGB triples, comments allowed) and
# canonical RIFF/WAVE with a PCM fmt chunk.  No image/audio library is
# needed to parse either, so the decode stage is REAL in this sandbox —
# the swap point for JPEG/MP3 etc. stays the same actor signature.

def synth_ppm(d: int, width: int = 16, height: int = 12, *,
              base: int | None = None, row0_boost: int = 0) -> bytes:
    """Deterministic REAL P6 PPM for doc ``d``: pixel (x, y) channel c =
    (base*31 + x*7 + y*13 + c*101 + row0_boost·[y=0]) % 256 —
    closed-form, so the SQL twin recomputes every feature from
    generate_series.  ``base`` defaults to ``d``; the near-dup twins use
    ``base = d // 4`` with a per-doc ``row0_boost`` so quads share a base
    image with a small planted perturbation."""
    b = d if base is None else base
    x = np.arange(width, dtype=np.int64)
    y = np.arange(height, dtype=np.int64)
    c = np.arange(3, dtype=np.int64)
    px = (b * 31 + x[None, :, None] * 7 + y[:, None, None] * 13
          + c[None, None, :] * 101
          + row0_boost * (y[:, None, None] == 0)) % 256
    return (f"P6\n{width} {height}\n255\n".encode("ascii")
            + px.astype(np.uint8).tobytes())


def decode_ppm(payload: bytes) -> np.ndarray:
    """REAL netpbm P6 parser → uint8 array (h, w, 3).  Handles arbitrary
    whitespace and ``#`` comments in the header per the netpbm spec."""
    if not payload.startswith(b"P6"):
        raise ValueError("not a P6 PPM")
    # tokenize header: magic, width, height, maxval; '#' starts a comment
    toks: list[bytes] = []
    i = 2
    while len(toks) < 3:
        while i < len(payload) and payload[i:i + 1].isspace():
            i += 1
        if payload[i:i + 1] == b"#":
            while i < len(payload) and payload[i:i + 1] != b"\n":
                i += 1
            continue
        j = i
        while j < len(payload) and not payload[j:j + 1].isspace():
            j += 1
        toks.append(payload[i:j])
        i = j
    i += 1  # single whitespace after maxval
    w, h, maxval = int(toks[0]), int(toks[1]), int(toks[2])
    if maxval != 255:
        raise ValueError("only 8-bit PPM supported")
    body = payload[i:i + w * h * 3]
    if len(body) != w * h * 3:
        raise ValueError("truncated PPM body")
    return np.frombuffer(body, np.uint8).reshape(h, w, 3)


def synth_wav(d: int, n_samples: int = 1024, rate: int = 8000) -> bytes:
    """Deterministic REAL RIFF/WAVE (PCM16 mono) for doc ``d``: sample i =
    ((d*7 + i*13) % 4096) - 2048."""
    import struct

    i = np.arange(n_samples, dtype=np.int64)
    s = ((d * 7 + i * 13) % 4096 - 2048).astype("<i2")
    data = s.tobytes()
    hdr = (b"RIFF" + struct.pack("<I", 36 + len(data)) + b"WAVE"
           + b"fmt " + struct.pack("<IHHIIHH", 16, 1, 1, rate, rate * 2,
                                   2, 16)
           + b"data" + struct.pack("<I", len(data)))
    return hdr + data


def decode_wav(payload: bytes) -> tuple[np.ndarray, int]:
    """REAL RIFF/WAVE chunk walker → (int16 samples, sample_rate).  Walks
    ALL chunks first (word-aligned, so ``fmt`` after ``data`` still
    parses), validates every chunk body against its declared size — a
    payload cut mid-chunk RAISES instead of silently decoding short —
    and accepts only PCM16 mono, the honest boundary of a stdlib
    decoder."""
    import struct

    if payload[:4] != b"RIFF" or payload[8:12] != b"WAVE":
        raise ValueError("not a RIFF/WAVE file")
    pos, rate, bits, channels, data = 12, None, None, None, None
    while pos + 8 <= len(payload):
        cid = payload[pos:pos + 4]
        (size,) = struct.unpack("<I", payload[pos + 4:pos + 8])
        body = payload[pos + 8:pos + 8 + size]
        if len(body) != size:
            raise ValueError(f"truncated {cid!r} chunk "
                             f"({len(body)} of {size} bytes)")
        if cid == b"fmt ":
            fmt, channels, rate = struct.unpack("<HHI", body[:8])
            bits = struct.unpack("<H", body[14:16])[0]
            if fmt != 1:
                raise ValueError("only PCM supported")
        elif cid == b"data":
            data = body
        pos += 8 + size + (size & 1)  # chunks are word-aligned
    if data is None:
        raise ValueError("no data chunk")
    if rate is None or bits != 16 or channels != 1:
        raise ValueError("only PCM16 mono supported")
    return np.frombuffer(data, "<i2"), int(rate)


class PpmFeatures:
    """Actor-pool stage: REAL P6 decode → per-channel integer means, an
    exact 64·gray > sum threshold aHash (average hash, the classic
    near-dup image fingerprint), and dimensions.  All math integer-exact
    so the SQL twin matches bit-for-bit."""

    def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for did, payload in zip(df["doc_id"], df["payload"]):
            img = decode_ppm(payload).astype(np.int64)
            h, w, _ = img.shape
            # exact integer sums first: sum/(h*w) is then ONE float64
            # division with identical operands on both twins
            sums = img.reshape(-1, 3).sum(axis=0)
            means = sums / float(h * w)
            # aHash over the 8x8 nearest-neighbor downsample of the
            # integer gray plane; threshold compares 64*gray to the sum
            # (exact integer arithmetic, no float ties)
            gx = (np.arange(8) * w) // 8
            gy = (np.arange(8) * h) // 8
            gray = img[gy][:, gx].sum(axis=2) // 3
            tot = int(gray.sum())
            bits = (gray.reshape(-1) * 64 > tot).astype(np.uint64)
            # all 64 bits, stored as the int64 two's-complement view
            ah = int((bits << np.arange(64, dtype=np.uint64)).sum()
                     .view(np.int64))
            rows.append((int(did), w, h,
                         round(float(means[0]), 6),
                         round(float(means[1]), 6),
                         round(float(means[2]), 6), ah))
        return pd.DataFrame(rows, columns=[
            "doc_id", "width", "height", "mean_r", "mean_g", "mean_b",
            "ahash"]).astype({"doc_id": "int64", "width": "int64",
                              "height": "int64", "ahash": "int64"})


class WavFeatures:
    """Actor-pool stage: REAL RIFF/WAVE decode → duration, RMS and
    zero-crossing rate (the standard cheap audio-quality trio)."""

    def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for did, payload in zip(df["doc_id"], df["payload"]):
            s, rate = decode_wav(payload)
            # exact integer sum-of-squares: sqrt(ss/n) sees identical
            # float64 operands on both twins (n is a power of two here,
            # and ss < 2^53 stays exact)
            ss = int((s.astype(np.int64) ** 2).sum())
            rms = float(np.sqrt(ss / len(s)))
            nonneg = s >= 0
            zc = int((nonneg[1:] != nonneg[:-1]).sum())
            rows.append((int(did), len(s),
                         round(len(s) / rate, 6), round(rms, 6), zc))
        return pd.DataFrame(rows, columns=[
            "doc_id", "n_samples", "duration_s", "rms", "zero_crossings"]) \
            .astype({"doc_id": "int64", "n_samples": "int64",
                     "zero_crossings": "int64"})


def image_features(docs: rd.Dataset, *, batch_size: int = 256,
                   concurrency=(1, 4)) -> rd.Dataset:
    """documents(doc_id) → synth REAL PPM payloads → decoded features.
    The synth step stands in for a binary-column read; decode + features
    run on the actor pool exactly as a JPEG pipeline would."""

    def gen(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "doc_id": df["doc_id"].astype("int64"),
            "payload": [synth_ppm(int(d)) for d in df["doc_id"]]})

    media = docs.map_batches(gen, batch_format="pandas")
    return media.map_batches(PpmFeatures, batch_format="pandas",
                             batch_size=batch_size, concurrency=concurrency,
                             num_cpus=1)


def audio_features(docs: rd.Dataset, *, batch_size: int = 256,
                   concurrency=(1, 4)) -> rd.Dataset:
    """documents(doc_id) → synth REAL WAV payloads → decoded features."""

    def gen(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "doc_id": df["doc_id"].astype("int64"),
            "payload": [synth_wav(int(d)) for d in df["doc_id"]]})

    media = docs.map_batches(gen, batch_format="pandas")
    return media.map_batches(WavFeatures, batch_format="pandas",
                             batch_size=batch_size, concurrency=concurrency,
                             num_cpus=1)


def ahash_neardup(hashes: rd.Dataset, *, max_dist: int = 3,
                  bands: int = 4, max_bucket: int = 256) -> rd.Dataset:
    """Perceptual-hash image near-dup: pairs of docs whose 64-bit aHash
    differs in ≤ ``max_dist`` bits, via MULTI-INDEX banding (the Hamming
    analogue of MinHash LSH): the hash splits into ``bands`` equal-width
    sub-keys; two hashes within ``max_dist`` ≤ bands-1 bits MUST agree on
    at least one whole band (pigeonhole), so band-bucket pair spawn has
    EXACT recall for that regime — no brute-force pair scan.  Hashes RIDE
    with the band rows (8 B), so verification is a vectorized popcount in
    the spawn output with no re-attach join.

    Buckets over ``max_bucket`` members are capped with a warning (the
    boilerplate-image stop rule — an all-black thumbnail bucket would
    spawn O(n²)).  Returns ``(id_a < id_b, dist int64)``.
    """
    from .relational import distinct, groupby_buckets, schema_anchor

    assert 64 % bands == 0, "bands must divide 64"
    assert max_dist < bands, \
        "multi-index recall is only exact for max_dist < bands"
    width = 64 // bands
    mask = np.uint64((1 << width) - 1)

    def band_rows(df: pd.DataFrame) -> pd.DataFrame:
        h = df["ahash"].to_numpy("int64").view(np.uint64)
        ids = df["doc_id"].to_numpy("int64")
        outs = []
        for b in range(bands):
            key = (h >> np.uint64(b * width)) & mask
            outs.append(pd.DataFrame({
                "band": np.full(len(df), b, dtype="int64"),
                "key": key.view(np.int64),
                "doc_id": ids,
                "h": h.view(np.int64)}))
        return pd.concat(outs, ignore_index=True)

    rows = hashes.map_batches(band_rows, batch_format="pandas")

    def spawn(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"id_a": pd.Series(dtype="int64"),
                              "id_b": pd.Series(dtype="int64"),
                              "dist": pd.Series(dtype="int64")})
        if not len(df):
            return empty
        from .relational import run_pair_indices

        order = np.lexsort((df["doc_id"].to_numpy(),
                            df["key"].to_numpy(), df["band"].to_numpy()))
        band = df["band"].to_numpy("int64")[order]
        key = df["key"].to_numpy("int64")[order]
        ids = df["doc_id"].to_numpy("int64")[order]
        h = df["h"].to_numpy("int64")[order]
        grp = np.concatenate(([True], (band[1:] != band[:-1])
                              | (key[1:] != key[:-1])))
        cut = np.flatnonzero(grp[1:]) + 1
        starts = np.concatenate(([0], cut))
        sizes = np.concatenate((cut, [len(key)])) - starts
        if (sizes > max_bucket).any():
            logger.warning(
                "%d ahash band buckets capped at %d members",
                int((sizes > max_bucket).sum()), max_bucket)
            loc = np.arange(len(ids), dtype=np.int64) - np.repeat(starts,
                                                                  sizes)
            keep = loc < max_bucket
            ids, h = ids[keep], h[keep]
            sizes = np.minimum(sizes, max_bucket)
        fst, snd = run_pair_indices(sizes)
        if not len(fst):
            return empty
        x = np.bitwise_xor(h[fst].view(np.uint64), h[snd].view(np.uint64))
        # vectorized popcount via byte view
        xb = x.view(np.uint8).reshape(-1, 8)
        dist = np.unpackbits(xb, axis=1).sum(axis=1).astype(np.int64)
        km = dist <= max_dist
        lo = np.minimum(ids[fst], ids[snd])[km]
        hi = np.maximum(ids[fst], ids[snd])[km]
        return pd.DataFrame({"id_a": lo, "id_b": hi, "dist": dist[km]})

    pairs = groupby_buckets(rows, ["band", "key"], spawn)
    return schema_anchor(
        distinct(pairs, ["id_a", "id_b", "dist"]),
        pd.DataFrame({"id_a": pd.Series(dtype="int64"),
                      "id_b": pd.Series(dtype="int64"),
                      "dist": pd.Series(dtype="int64")}))


def synth_y4m(d: int, n_frames: int = 6, width: int = 16,
              height: int = 12) -> bytes:
    """Deterministic REAL YUV4MPEG2 (Y4M) clip for doc ``d``, C444: plane
    p ∈ {Y=0, U=1, V=2} pixel (x, y) of frame f =
    (d*31 + f*59 + x*7 + y*13 + p*101) % 256 — closed-form for the SQL
    twin."""
    x = np.arange(width, dtype=np.int64)
    y = np.arange(height, dtype=np.int64)
    p = np.arange(3, dtype=np.int64)
    out = [f"YUV4MPEG2 W{width} H{height} F25:1 Ip A0:0 C444\n"
           .encode("ascii")]
    for f in range(n_frames):
        px = (d * 31 + f * 59 + x[None, None, :] * 7
              + y[None, :, None] * 13 + p[:, None, None] * 101) % 256
        out.append(b"FRAME\n")
        out.append(px.astype(np.uint8).tobytes())
    return b"".join(out)


def decode_y4m(payload: bytes) -> tuple[np.ndarray, int, int]:
    """REAL Y4M parser → (frames uint8 (F, 3, H, W), width, height).
    Parses the stream header's W/H/C parameters (only C444 — full-res
    chroma — is supported, the honest stdlib boundary) and walks FRAME
    markers, validating each frame body length."""
    nl = payload.index(b"\n")
    head = payload[:nl].decode("ascii", "replace").split(" ")
    if head[0] != "YUV4MPEG2":
        raise ValueError("not a YUV4MPEG2 stream")
    w = h = None
    c = "C420"
    for tok in head[1:]:
        if tok.startswith("W"):
            w = int(tok[1:])
        elif tok.startswith("H"):
            h = int(tok[1:])
        elif tok.startswith("C"):
            c = tok
    if w is None or h is None:
        raise ValueError("missing W/H in Y4M header")
    if c != "C444":
        raise ValueError("only C444 supported")
    frame_bytes = 3 * w * h
    frames = []
    pos = nl + 1
    while pos < len(payload):
        if payload[pos:pos + 5] != b"FRAME":
            raise ValueError("bad FRAME marker")
        pos = payload.index(b"\n", pos) + 1  # frame params ignored
        body = payload[pos:pos + frame_bytes]
        if len(body) != frame_bytes:
            raise ValueError(f"truncated frame ({len(body)} of "
                             f"{frame_bytes} bytes)")
        frames.append(np.frombuffer(body, np.uint8).reshape(3, h, w))
        pos += frame_bytes
    return np.stack(frames) if frames else \
        np.empty((0, 3, h, w), np.uint8), w, h


class Y4mFrameFeatures:
    """Actor-pool stage: REAL Y4M decode → one row per SAMPLED frame
    (every ``stride``-th) with integer-exact luma mean and chroma means —
    the real-format counterpart of the BORG FrameSampler."""

    def __init__(self, stride: int = 2):
        self.stride = stride

    def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for did, payload in zip(df["doc_id"], df["payload"]):
            frames, w, h = decode_y4m(payload)
            for fi in range(0, len(frames), self.stride):
                pl = frames[fi].astype(np.int64).reshape(3, -1).sum(axis=1)
                denom = float(w * h)
                rows.append((int(did), fi,
                             round(pl[0] / denom, 6),
                             round(pl[1] / denom, 6),
                             round(pl[2] / denom, 6)))
        return pd.DataFrame(rows, columns=[
            "doc_id", "frame_idx", "luma_mean", "u_mean", "v_mean"]) \
            .astype({"doc_id": "int64", "frame_idx": "int64"})


def video_frame_stats(docs: rd.Dataset, *, stride: int = 2,
                      batch_size: int = 128,
                      concurrency=(1, 4)) -> rd.Dataset:
    """documents(doc_id) → synth REAL Y4M clips → sampled-frame stats."""

    def gen(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "doc_id": df["doc_id"].astype("int64"),
            "payload": [synth_y4m(int(d)) for d in df["doc_id"]]})

    media = docs.map_batches(gen, batch_format="pandas")
    return media.map_batches(Y4mFrameFeatures,
                             fn_constructor_kwargs={"stride": stride},
                             batch_format="pandas", batch_size=batch_size,
                             concurrency=concurrency, num_cpus=1)
