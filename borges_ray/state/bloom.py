"""A plain numpy Bloom filter (no external deps, fully deterministic).

Sized for the 10^10-URL frontier design point: at 1% target false-positive
rate 10^9 keys need ~1.2 GB of bits; the engine therefore keeps one filter
per URL partition (``hash(url) % num_partitions``, see
:mod:`borges_ray.state.seenfilter`) so each bitmap fits comfortably in the
heap of the one task that gates that partition (SURVEY.md §7.4).

The Bloom answers "definitely unseen" / "maybe seen"; exact confirmation
happens against the partition's committed seen-delta Parquet — the seen SET
is always exact, the Bloom only short-circuits the common case (north_rule:
"bloom/cuckoo URL-seen ... matching the reference's URL-seen set").  The
bit array is the filter's whole state: :meth:`BloomFilter.tobytes` /
:meth:`BloomFilter.frombytes` persist it between rounds.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np


class BloomFilter:
    def __init__(self, capacity: int, fp_rate: float = 0.01):
        capacity = max(1024, capacity)
        m = int(-capacity * math.log(fp_rate) / (math.log(2) ** 2))
        self.num_bits = max(64, (m + 63) // 64 * 64)
        self.num_hashes = max(1, int(round(m / capacity * math.log(2))))
        self.bits = np.zeros(self.num_bits // 64, dtype=np.uint64)

    def tobytes(self) -> bytes:
        return self.bits.tobytes()

    @classmethod
    def frombytes(cls, capacity: int, buf: bytes,
                  fp_rate: float = 0.01) -> "BloomFilter":
        """The filter whose bits :meth:`tobytes` returned; a buffer of
        another size (a filter sized by another capacity) raises."""
        f = cls(capacity, fp_rate)
        if len(buf) != f.bits.nbytes:
            raise ValueError(f"bloom bits are {len(buf)} bytes, capacity "
                             f"{capacity} needs {f.bits.nbytes}")
        f.bits = np.frombuffer(buf, dtype=np.uint64).copy()
        return f

    def _positions(self, keys: list[str]) -> np.ndarray:
        """(n, k) bit positions via double hashing of blake2b(key)."""
        h1 = np.empty(len(keys), dtype=np.uint64)
        h2 = np.empty(len(keys), dtype=np.uint64)
        for i, k in enumerate(keys):
            d = hashlib.blake2b(k.encode("utf-8"), digest_size=16).digest()
            h1[i] = int.from_bytes(d[:8], "big")
            h2[i] = int.from_bytes(d[8:], "big") | 1
        i = np.arange(self.num_hashes, dtype=np.uint64)
        return (h1[:, None] + i[None, :] * h2[:, None]) % np.uint64(self.num_bits)

    def add_batch(self, keys: list[str]) -> None:
        if not keys:
            return
        pos = self._positions(keys).ravel()
        np.bitwise_or.at(self.bits, pos >> np.uint64(6),
                         np.uint64(1) << (pos & np.uint64(63)))

    def maybe_contains_batch(self, keys: list[str]) -> np.ndarray:
        if not keys:
            return np.zeros(0, dtype=bool)
        pos = self._positions(keys)
        word = self.bits[(pos >> np.uint64(6))]
        bit = (word >> (pos & np.uint64(63))) & np.uint64(1)
        return bit.all(axis=1).astype(bool)
