"""Scale proofs for the round-4 additions that have non-trivial
distributed shapes:

* ``--snm``: sorted-neighborhood blocking at 2M rows — the pair set must
  EXACTLY equal a single-process pandas replay of the windowed self-join
  over the global (key, id) order (ghost rows across thousands of
  rank-group boundaries are load-bearing at this size).
* ``--kcore``: k-core peeling at ~2M edges / 200k nodes — core node set
  + degrees must EXACTLY equal a sequential peeling reference.
* ``--scc``: strongly connected components at ~1.1M edges — 100k planted
  rings under a random id permutation, closed-form ground truth.

Usage: PYTHONPATH=/root/repo python tools/stress_r4_ops.py [--snm] [--kcore]
"""
import os
import sys
import time

import numpy as np
import pandas as pd
import ray
import ray.data as rd


def stress_snm() -> None:
    from borges_ray.ops.dedup import sorted_neighborhood_pairs_ds

    n = 2_000_000
    rng = np.random.default_rng(7)
    # keys from a skewed alphabet so prefix groups vary 100x in size
    letters = np.array(list("aabbbcdefgh"))
    keys = rng.choice(letters, size=(n, 6))
    keys = np.array(["".join(r) for r in keys])
    df = pd.DataFrame({"id": np.arange(n, dtype=np.int64), "key": keys})

    t0 = time.time()
    ds = rd.from_pandas(df.sample(frac=1.0, random_state=3)).repartition(64)
    out = sorted_neighborhood_pairs_ds(ds, "id", "key", window=5,
                                       verify_prefix=4).to_pandas()
    wall = time.time() - t0

    t1 = time.time()
    s = df.sort_values(["key", "id"], kind="mergesort").reset_index(drop=True)
    ids = s["id"].to_numpy()
    pfx = s["key"].str.slice(0, 4).to_numpy()
    want = set()
    for g in range(1, 6):
        ok = pfx[:-g] == pfx[g:]
        want.update(zip(ids[:-g][ok].tolist(), ids[g:][ok].tolist(),
                        [g] * int(ok.sum())))
    ref_wall = time.time() - t1

    got = set(zip(out["id_a"].tolist(), out["id_b"].tolist(),
                  out["gap"].tolist()))
    assert got == want, (len(got), len(want))
    print(f"snm 2M rows: pairs={len(got)} wall={wall:.1f}s "
          f"(single-process ref {ref_wall:.1f}s) EXACT")


def stress_kcore() -> None:
    from borges_ray.ops.graph import kcore

    n_nodes, n_edges = 200_000, 2_000_000
    rng = np.random.default_rng(11)
    # power-lawish: preferential endpoints via squared-uniform skew
    u = (rng.random(n_edges) ** 2 * n_nodes).astype(np.int64)
    v = (rng.random(n_edges) ** 2 * n_nodes).astype(np.int64)
    df = pd.DataFrame({"src": u, "dst": v})

    t0 = time.time()
    out = kcore(rd.from_pandas(df).repartition(64), k=8,
                max_rounds=40).to_pandas()
    wall = time.time() - t0

    t1 = time.time()
    e = df[df["src"] != df["dst"]]
    lo = np.minimum(e["src"], e["dst"])
    hi = np.maximum(e["src"], e["dst"])
    und = pd.DataFrame({"u": lo, "v": hi}).drop_duplicates()
    cur = und
    while True:
        deg = pd.concat([cur["u"], cur["v"]]).value_counts()
        dead = set(deg[deg < 8].index)
        if not dead:
            break
        cur = cur[~cur["u"].isin(dead) & ~cur["v"].isin(dead)]
    deg = pd.concat([cur["u"], cur["v"]]).value_counts().sort_index()
    ref_wall = time.time() - t1

    got = dict(zip(out["node"], out["deg"]))
    want = {int(k): int(c) for k, c in deg.items()}
    assert got == want, (len(got), len(want))
    print(f"kcore 2M edges: core_nodes={len(got)} wall={wall:.1f}s "
          f"(single-process ref {ref_wall:.1f}s) EXACT")


def stress_scc() -> None:
    """SCC at ~1.1M edges with a CLOSED-FORM ground truth: 100k planted
    directed rings (length 10) under a random id permutation, plus one-way
    tendril chains and sparse cross-ring edges (neither may merge or split
    an SCC).  Every ring must come back labeled with its min member id,
    every non-ring node as a singleton.  ``local_threshold=0`` forces the
    distributed FW-BW path (round 0 colors, round 1 settles the rings)."""
    from borges_ray.ops.graph import scc

    rng = np.random.default_rng(11)
    n_rings, ring_len = 100_000, 10
    n_ring_nodes = n_rings * ring_len
    n_tendrils, tendril_len = 30_000, 3
    n_cross = 5_000
    n_nodes = n_ring_nodes + n_tendrils * tendril_len
    perm = rng.permutation(n_nodes).astype(np.int64)

    base = np.arange(n_ring_nodes, dtype=np.int64)
    ring_id = base // ring_len
    nxt = ring_id * ring_len + (base + 1) % ring_len
    src = [perm[base]]
    dst = [perm[nxt]]
    # tendril chains: t0 -> t1 -> t2 -> (random ring node); one-way
    tb = n_ring_nodes + np.arange(n_tendrils * tendril_len,
                                  dtype=np.int64).reshape(n_tendrils,
                                                          tendril_len)
    for i in range(tendril_len - 1):
        src.append(perm[tb[:, i]])
        dst.append(perm[tb[:, i + 1]])
    src.append(perm[tb[:, -1]])
    dst.append(perm[rng.integers(0, n_ring_nodes, n_tendrils)])
    # sparse one-way cross-ring edges (condensation stays a shallow DAG)
    src.append(perm[rng.integers(0, n_ring_nodes, n_cross)])
    dst.append(perm[rng.integers(0, n_ring_nodes, n_cross)])

    df = pd.DataFrame({"src": np.concatenate(src),
                       "dst": np.concatenate(dst)})
    n_edges = len(df)

    # ground truth: ring members -> min permuted member id; others -> self
    ring_min = perm[:n_ring_nodes].reshape(n_rings, ring_len).min(axis=1)
    want = dict(zip(perm[:n_ring_nodes].tolist(),
                    np.repeat(ring_min, ring_len).tolist()))
    for t in perm[n_ring_nodes:].tolist():
        want[t] = t

    t0 = time.time()
    out = scc(rd.from_pandas(df).repartition(64),
              local_threshold=0, max_inner=256).to_pandas()
    wall = time.time() - t0

    got = dict(zip(out["node"].tolist(), out["scc"].tolist()))
    assert got == want, (len(got), len(want))
    print(f"scc {n_edges} edges / {n_nodes} nodes: "
          f"sccs={len(set(got.values()))} wall={wall:.1f}s EXACT")


def stress_triangles() -> None:
    """triangle_counts at ~8M edges / 6M nodes with a CLOSED-FORM ground
    truth, sized past BOTH broadcast guards (node range > BROADCAST_MAX_ROWS
    and closing-edge count > BROADCAST_MAX_ROWS) so the fused
    tagged-exchange orientation AND the packed hash-join closing probe —
    the 100 TB fallback paths — are the ones under test.

    Graph: 1M disjoint K4 cliques (every member is in exactly 3
    triangles) + 2M random bipartite noise edges over 2M fresh nodes
    (bipartite => triangle-free, and the parts are disjoint from the
    cliques so no accidental triangle can form)."""
    from borges_ray.ops.graph import triangle_counts

    rng = np.random.default_rng(23)
    n_cliques = 1_000_000
    base = np.arange(n_cliques, dtype=np.int64) * 4
    src, dst = [], []
    for i in range(4):
        for j in range(i + 1, 4):
            src.append(base + i)
            dst.append(base + j)
    n_clique_nodes = n_cliques * 4
    nL = nR = 1_000_000
    n_noise = 2_000_000
    L0 = n_clique_nodes
    R0 = n_clique_nodes + nL
    src.append(L0 + rng.integers(0, nL, n_noise))
    dst.append(R0 + rng.integers(0, nR, n_noise))
    df = pd.DataFrame({"src": np.concatenate(src),
                       "dst": np.concatenate(dst)})
    n_edges = len(df)

    t0 = time.time()
    out = triangle_counts(rd.from_pandas(df).repartition(64)).to_pandas()
    wall = time.time() - t0

    assert len(out) == n_clique_nodes, (len(out), n_clique_nodes)
    assert (out["n_triangles"].to_numpy("int64") == 3).all()
    assert out["node"].min() >= 0 and out["node"].max() < n_clique_nodes
    assert out["node"].nunique() == n_clique_nodes
    print(f"triangles {n_edges} edges / {n_clique_nodes + nL + nR} nodes: "
          f"core={len(out)} wall={wall:.1f}s EXACT (fallback paths)")


def stress_wcc() -> None:
    """Weakly-connected components (tree forest merge,
    ``near_dup_labels_ds``) at ~10M edges / ~6M nodes with closed-form
    truth: 1M planted chains (length 4), 500k planted rings (length 4,
    redundant edges exercise the in-block union-find), plus 2M extra
    random intra-component edges that must not change any label."""
    from borges_ray.ops.dedup import near_dup_labels_ds

    rng = np.random.default_rng(31)
    n_chain, clen = 1_000_000, 4
    n_ring, rlen = 500_000, 4
    cn = n_chain * clen
    src, dst = [], []
    base = np.arange(n_chain, dtype=np.int64) * clen
    for i in range(clen - 1):
        src.append(base + i)
        dst.append(base + i + 1)
    rbase = cn + np.arange(n_ring, dtype=np.int64) * rlen
    for i in range(rlen):
        src.append(rbase + i)
        dst.append(rbase + (i + 1) % rlen)
    # redundant intra-component noise: random pairs WITHIN a chain
    noise = 2_000_000
    nc = rng.integers(0, n_chain, noise)
    a = rng.integers(0, clen, noise)
    b = rng.integers(0, clen, noise)
    src.append(nc * clen + a)
    dst.append(nc * clen + b)
    df = pd.DataFrame({"id_a": np.concatenate(src),
                       "id_b": np.concatenate(dst)})
    n_edges = len(df)
    n_nodes = cn + n_ring * rlen

    t0 = time.time()
    out = near_dup_labels_ds(
        rd.from_pandas(df).repartition(64)).to_pandas()
    wall = time.time() - t0

    assert len(out) == n_nodes, (len(out), n_nodes)
    node = out["id"].to_numpy("int64")
    grp = out["group"].to_numpy("int64")
    want = np.where(node < cn, (node // clen) * clen,
                    cn + ((node - cn) // rlen) * rlen)
    assert (grp == want).all()
    print(f"wcc {n_edges} edges / {n_nodes} nodes: "
          f"components={n_chain + n_ring} wall={wall:.1f}s EXACT")


def stress_containment() -> None:
    """containment_pairs (round-5 two-exchange shape) at 1M docs with a
    CLOSED-FORM truth: 300k planted partial-copy pairs over pair-unique
    vocabularies (doc B = the first H tokens of doc A + unique filler, so
    the shingle intersection is exactly the shared segment's H-w+1
    shingles and every score is analytic), plus 400k noise docs whose
    vocabularies are globally unique (zero candidate pairs)."""
    from borges_ray.ops.dedup import containment_pairs

    W = 4
    H, F, L = 23, 20, 40  # shared=20, |S(B)|=40, |S(A)|=37
    n_pairs, n_noise = 300_000, 400_000

    def doc_rows(start, count, kind):
        rows = []
        for i in range(start, start + count):
            if kind == "pair":
                s = [f"s{i}_{j}" for j in range(L)]
                rows.append((2 * i, " ".join(s)))
                b = s[:H] + [f"u{i}_{j}" for j in range(F)]
                rows.append((2 * i + 1, " ".join(b)))
            else:
                rows.append((2 * n_pairs + i,
                             " ".join(f"n{i}_{j}" for j in range(30))))
        return rows

    import pyarrow as pa

    chunks = []
    step = 50_000
    for st in range(0, n_pairs, step):
        chunks.append(doc_rows(st, step, "pair"))
    for st in range(0, n_noise, step):
        chunks.append(doc_rows(st, step, "noise"))
    rows = [r for c in chunks for r in c]
    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array([r[0] for r in rows], pa.int64()),
        "text": pa.array([r[1] for r in rows], pa.string()),
    })).repartition(64)

    t0 = time.time()
    out = containment_pairs(ds, width=W, min_containment=0.5).to_pandas()
    wall = time.time() - t0

    assert len(out) == n_pairs, (len(out), n_pairs)
    shared = H - W + 1
    ca = round(shared / (L - W + 1), 6)   # A is the even (lower) id
    cb = round(shared / (H + F - W + 1), 6)
    assert (out["shared"].to_numpy("int64") == shared).all()
    assert (out["id_a"].to_numpy("int64") % 2 == 0).all()
    assert (out["id_b"].to_numpy("int64")
            == out["id_a"].to_numpy("int64") + 1).all()
    assert np.allclose(out["cont_a"], ca) and np.allclose(out["cont_b"], cb)
    print(f"containment {2 * n_pairs + n_noise} docs: pairs={len(out)} "
          f"wall={wall:.1f}s EXACT")


def stress_r5graph() -> None:
    """Closed-form scale proofs for the three graph ops rewritten in
    round 5 (single-exchange reciprocity, fused-dedup mirror_hosts,
    broadcast-spawn adamic_adar)."""
    # --- reciprocity: 2M distinct directed edges, exactly 25% reciprocal
    from borges_ray.ops.graph import adamic_adar, mirror_hosts, reciprocity

    n_one, n_rec = 1_500_000, 250_000
    b1 = np.arange(n_one, dtype=np.int64) * 2
    b2 = (n_one + np.arange(n_rec, dtype=np.int64)) * 2
    src = np.concatenate([b1, b2, b2 + 1])
    dst = np.concatenate([b1 + 1, b2 + 1, b2])
    # 20% duplicated rows exercise the in-exchange dedup
    dup = np.arange(0, len(src), 5)
    df = pd.DataFrame({"src": np.concatenate([src, src[dup]]),
                       "dst": np.concatenate([dst, dst[dup]])})
    t0 = time.time()
    out = reciprocity(rd.from_pandas(df).repartition(64)).to_pandas()
    w1 = time.time() - t0
    assert int(out["n_edges"][0]) == n_one + 2 * n_rec
    assert int(out["n_recip"][0]) == 2 * n_rec
    assert abs(float(out["reciprocity"][0]) - 0.25) < 1e-9
    print(f"reciprocity {len(df)} rows -> {n_one + 2 * n_rec} distinct: "
          f"ratio=0.25 wall={w1:.1f}s EXACT")

    # --- mirror_hosts: 50k planted mirror pairs, shared=5, J=1/3
    n_mp = 50_000
    hosts, fps = [], []
    for i in range(n_mp):
        base = i * 100
        hosts += [f"a{i}"] * 10 + [f"b{i}"] * 10
        fps += list(range(base, base + 10)) +             list(range(base, base + 5)) + list(range(base + 50, base + 55))
    pages = pd.DataFrame({"host": hosts, "fp": np.array(fps, np.uint64)})
    pages = pd.concat([pages, pages.iloc[::3]], ignore_index=True)  # dups
    t0 = time.time()
    out = mirror_hosts(rd.from_pandas(pages).repartition(64),
                       min_shared=2).to_pandas()
    w2 = time.time() - t0
    assert len(out) == n_mp, (len(out), n_mp)
    assert (out["shared"].to_numpy("int64") == 5).all()
    assert np.allclose(out["jaccard"], round(5 / 15, 6))
    print(f"mirror_hosts {len(pages)} obs / {2 * n_mp} hosts: "
          f"pairs={len(out)} wall={w2:.1f}s EXACT")

    # --- adamic_adar: 200k components (x, y share 4 deg-2 neighbors,
    # no x-y edge) -> top-100 = the 100 lowest (x, y) at score 4/ln 2
    n_c = 200_000
    base = np.arange(n_c, dtype=np.int64) * 6
    src, dst = [], []
    for j in range(4):
        z = base + 2 + j
        src += [base, base + 1]
        dst += [z, z]
    df = pd.DataFrame({"src": np.concatenate(src),
                       "dst": np.concatenate(dst)})
    t0 = time.time()
    out = adamic_adar(rd.from_pandas(df).repartition(64), k=100)
    w3 = time.time() - t0
    want_score = round(4 / np.log(2.0), 6)
    assert len(out) == 100
    assert np.allclose(out["score"], want_score)
    assert (out["x"].to_numpy("int64") == base[:100]).all()
    assert (out["y"].to_numpy("int64") == base[:100] + 1).all()
    print(f"adamic_adar {len(df)} edges / {n_c * 6} nodes: top100 "
          f"score={want_score} wall={w3:.1f}s EXACT")


def stress_hits() -> None:
    """HITS at 2M edges with a CLOSED-FORM truth: on the complete
    bipartite graph K(m, n) the L1-normalized iteration is stationary —
    every source holds hub = 1/m with authority 0, every sink holds
    authority = 1/n with hub 0, at every iteration.  Any mass mis-routing
    in the bucket exchange or normalization would break uniformity."""
    from borges_ray.ops.graph import hits

    m, n = 1_000, 2_000
    src = np.repeat(np.arange(m, dtype=np.int64), n)
    dst = m + np.tile(np.arange(n, dtype=np.int64), m)
    df = pd.DataFrame({"src": src, "dst": dst})

    t0 = time.time()
    out = hits(rd.from_pandas(df).repartition(64), iters=2).to_pandas()
    wall = time.time() - t0

    assert len(out) == m + n, (len(out), m + n)
    node = out["node"].to_numpy("int64")
    hub = out["hub"].to_numpy(np.float64)
    auth = out["authority"].to_numpy(np.float64)
    is_src = node < m
    assert np.allclose(hub[is_src], round(1 / m, 6), atol=1e-9)
    assert np.allclose(auth[is_src], 0.0, atol=1e-9)
    assert np.allclose(auth[~is_src], round(1 / n, 6), atol=1e-9)
    assert np.allclose(hub[~is_src], 0.0, atol=1e-9)
    print(f"hits {len(df)} edges / {m + n} nodes: stationary "
          f"hub=1/{m} auth=1/{n} wall={wall:.1f}s EXACT")


if __name__ == "__main__":
    ray.init(address="local", num_cpus=min(32, os.cpu_count()), include_dashboard=False,
             logging_level="ERROR")
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False
    if "--snm" in sys.argv or len(sys.argv) == 1:
        stress_snm()
    if "--kcore" in sys.argv or len(sys.argv) == 1:
        stress_kcore()
    if "--scc" in sys.argv:
        stress_scc()
    if "--triangles" in sys.argv:
        stress_triangles()
    if "--wcc" in sys.argv:
        stress_wcc()
    if "--containment" in sys.argv:
        stress_containment()
    if "--r5graph" in sys.argv:
        stress_r5graph()
    if "--hits" in sys.argv:
        stress_hits()
    ray.shutdown()
