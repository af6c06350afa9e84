"""A numpy cuckoo filter (Fan, Andersen, Kaminsky, Mitzenmacher,
"Cuckoo Filter: Practically Better Than Bloom", CoNEXT'14) — the
deletion-capable half of the north_rule's "bloom/cuckoo URL-seen".

Why the engine needs deletion at the design point: the Bloom-backed seen
filter stays CORRECT under invalidation (membership truth lives in the exact
set / seen-Parquet), but a Bloom can never un-set bits, so every
invalidated-then-recrawled URL permanently pays the slow confirm path
(a per-partition Parquet probe at 10^10 URLs).  A cuckoo filter deletes its
fingerprint on invalidation, so the fast-path stays tight across recrawl
epochs — the reference's analogue is dropping a Mongo document so the
insert-if-absent gate re-admits it (``Borges/db_scripts/insert_jl.py:28-41``).

Standard partial-key cuckoo hashing: 16-bit fingerprints, 4 slots per
bucket, power-of-two bucket count so the alternate index is the involution
``i2 = i1 XOR h(fp)``.  All hashing is blake2b / fixed-constant mixing —
deterministic across processes (never Python's salted ``hash``).
"""

from __future__ import annotations

import hashlib

import numpy as np

_FP_MIX = np.uint64(0x5BD1E9955BD1E995)  # odd constant; fp → bucket offset


class CuckooFilter:
    """Deletion-capable approximate membership over string keys.

    ~1 byte/key at load ≤ 0.95 with a false-positive rate ≈ 2·4/2^16 ≈ 0.012%
    (16-bit fingerprints, 4-slot buckets).  ``add_batch`` is amortized O(1)
    per key (bounded eviction kicks); ``contains_batch`` is fully vectorized
    (two gathers + compares per batch).  Deterministic: same op sequence →
    same table, so a resume-rebuilt filter matches the original.
    """

    MAX_KICKS = 500

    def __init__(self, capacity: int, slots_per_bucket: int = 4):
        capacity = max(1024, capacity)
        nb = 1
        while nb * slots_per_bucket * 0.95 < capacity:
            nb <<= 1
        self.num_buckets = nb
        self.slots = slots_per_bucket
        self.table = np.zeros((nb, slots_per_bucket), dtype=np.uint16)  # 0 = empty
        self.count = 0

    def tobytes(self) -> bytes:
        return self.table.tobytes()

    @classmethod
    def frombytes(cls, capacity: int, buf: bytes) -> "CuckooFilter":
        """The filter whose table :meth:`tobytes` returned (``count`` is the
        number of occupied slots); a buffer of another size raises."""
        f = cls(capacity)
        if len(buf) != f.table.nbytes:
            raise ValueError(f"cuckoo table is {len(buf)} bytes, capacity "
                             f"{capacity} needs {f.table.nbytes}")
        f.table = np.frombuffer(buf, dtype=np.uint16).reshape(f.table.shape).copy()
        f.count = int(np.count_nonzero(f.table))
        return f

    # -- hashing ----------------------------------------------------------
    def _fp_i1(self, keys: list[str]) -> tuple[np.ndarray, np.ndarray]:
        """(fingerprint, primary bucket) per key — fingerprints are forced
        nonzero so 0 can be the empty-slot sentinel."""
        f = np.empty(len(keys), dtype=np.uint16)
        i1 = np.empty(len(keys), dtype=np.int64)
        mask = self.num_buckets - 1
        for j, k in enumerate(keys):
            d = hashlib.blake2b(k.encode("utf-8"), digest_size=16).digest()
            f[j] = int.from_bytes(d[:2], "big") % 65535 + 1
            i1[j] = int.from_bytes(d[8:], "big") & mask
        return f, i1

    def _alt(self, f: np.ndarray, i: np.ndarray) -> np.ndarray:
        """Alternate bucket: i XOR mix(fp) — an involution (power-of-two
        bucket count), so alt(alt(i)) == i without knowing which index a
        stored fingerprint currently sits at."""
        mixed = (f.astype(np.uint64) * _FP_MIX) >> np.uint64(32)
        return (i ^ mixed.astype(np.int64)) & (self.num_buckets - 1)

    # -- ops ---------------------------------------------------------------
    def add_batch(self, keys: list[str]) -> None:
        """Insert every key (duplicates insert duplicate fingerprints, which
        keeps delete semantics exact: one delete removes one insert).
        Raises ``RuntimeError`` when an insertion exceeds the kick budget —
        the filter is past its design load; ``seen_capacity`` sizes each
        partition's filter so this never fires in practice."""
        if not keys:
            return
        f_all, i1_all = self._fp_i1(keys)
        t = self.table
        for f, i1 in zip(f_all, i1_all):
            i2 = int(self._alt(np.array([f], np.uint16), np.array([i1]))[0])
            placed = False
            for b in (i1, i2):
                empty = np.nonzero(t[b] == 0)[0]
                if len(empty):
                    t[b, empty[0]] = f
                    placed = True
                    break
            if not placed:
                # deterministic eviction walk: cycle slots by kick counter
                b, cur = i2, f
                for kick in range(self.MAX_KICKS):
                    s = kick % self.slots
                    cur, t[b, s] = t[b, s], cur
                    b = int(self._alt(np.array([cur], np.uint16),
                                      np.array([b]))[0])
                    empty = np.nonzero(t[b] == 0)[0]
                    if len(empty):
                        t[b, empty[0]] = cur
                        placed = True
                        break
                if not placed:
                    raise RuntimeError(
                        f"cuckoo filter over capacity ({self.count} keys, "
                        f"{self.num_buckets * self.slots} slots)")
            self.count += 1

    def contains_batch(self, keys: list[str]) -> np.ndarray:
        """Vectorized membership: True = maybe present (fp rate ~0.012%),
        False = DEFINITELY absent (same one-sided contract as Bloom)."""
        if not keys:
            return np.zeros(0, dtype=bool)
        f, i1 = self._fp_i1(keys)
        i2 = self._alt(f, i1)
        hit1 = (self.table[i1] == f[:, None]).any(axis=1)
        hit2 = (self.table[i2] == f[:, None]).any(axis=1)
        return hit1 | hit2

    def delete_batch(self, keys: list[str]) -> np.ndarray:
        """Remove ONE stored fingerprint per key (the cuckoo-filter deletion
        contract: only delete keys that were inserted).  Returns the mask of
        keys whose fingerprint was found and removed."""
        if not keys:
            return np.zeros(0, dtype=bool)
        f_all, i1_all = self._fp_i1(keys)
        i2_all = self._alt(f_all, i1_all)
        out = np.zeros(len(keys), dtype=bool)
        t = self.table
        for j, (f, i1, i2) in enumerate(zip(f_all, i1_all, i2_all)):
            for b in (i1, i2):
                slot = np.nonzero(t[b] == f)[0]
                if len(slot):
                    t[b, slot[0]] = 0
                    self.count -= 1
                    out[j] = True
                    break
        return out

    # Bloom-interface alias so the seen gate can treat either filter
    # uniformly on the read path.
    maybe_contains_batch = contains_batch
