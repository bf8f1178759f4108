"""Acceptance suite: one test per numbered criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS/FAIL lines.
Criterion 9's reduced-path fixture is the level-2 class's reduction of a
level-2 slice (the meet of the class's level-2 slices), which is the
complement of the half-turn image's reduced path; the level-1 class's
reduced path of the same slice keeps {3,5} and is pinned in test_hypertri.
"""

import random
import time
from fractions import Fraction
from math import comb

from full_bfs_oracle import bfs_distances, max_chain_through
from tile_oracle import (
    cross_section,
    extremal_tiling,
    orientation_of,
    strongly_separated,
    tiling_from_heights,
    tiling_of_orientation,
    vert_k,
)
from zonotiling import (
    diameter_report,
    enumerate_tilings,
    expected_level_census,
    graph_diameter,
    hypertri_diameters,
    level_census,
    make_config,
    potential,
    reduced_cross_section,
    sample_chain,
    sigma_k_diameter_formula,
    skeleton,
    standard_config,
    sum_skeleton_diameter_formula,
)
from zonotiling.hypertri import MonotonePath
from zonotiling.oracle import commutation_census
from zonotiling.regularity import _certify


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d} {name}: {status}")
    assert ok, f"criterion {num} ({name}) failed {detail}"


def random_generic_heights(cfg, rng):
    while True:
        h = [Fraction(rng.randint(-90, 90), rng.randint(1, 9)) for _ in range(cfg.n)]
        try:
            return h, tiling_from_heights(cfg, h)
        except ValueError:
            continue


def test_c01_sigma_k_diameter_theorem(graphs, regulars):
    ok = True
    for n in (4, 5, 6):
        g = graphs(n)
        regs = regulars(n)
        for k in range(1, n - 1):
            sk = skeleton(g, k, "sigma_k", regs)
            diam, _ = graph_diameter(sk.adj)
            ok = ok and diam == sigma_k_diameter_formula(n, k)
    report(1, "sigma_k skeleton diameter equals k(n-k-1)", ok)


def test_c02_sum_skeleton_diameter_theorem(graphs, regulars):
    ok = True
    for n in (4, 5, 6):
        g = graphs(n)
        regs = regulars(n)
        for k in range(1, n - 1):
            sk = skeleton(g, k, "sigma_k_plus_prev", regs)
            diam, _ = graph_diameter(sk.adj)
            ok = ok and diam == sum_skeleton_diameter_formula(n, k)
    report(2, "sum-skeleton diameter equals 2k(n-k)-n", ok)


def test_c03_hypertriangulation_diameters(graphs):
    ok = True
    for n in (4, 5, 6):
        g = graphs(n)
        for k in range(1, n - 1):
            rec = hypertri_diameters(g, k)
            ok = ok and rec["lifting"]["match"] and rec["reduced"]["match"]
    report(3, "lifting and reduced path-graph diameters over all tilings", ok)


def test_c04_enumeration_matches_oracle(graphs):
    expected = {2: 1, 3: 2, 4: 8, 5: 62, 6: 908}
    ok = True
    for n, count in expected.items():
        ok = ok and len(graphs(n)) == count
        ok = ok and commutation_census(n).commutation_classes == count
    start = time.monotonic()
    g7 = enumerate_tilings(standard_config(7))
    elapsed = time.monotonic() - start
    ok = ok and len(g7) == 24698 and elapsed < 600
    full = (1 << comb(7, 3)) - 1  # the half-turn image is the mirror id
    ok = ok and all(g7.keys[g7.opposite_node(v)] == g7.keys[v] ^ full for v in range(len(g7)))
    ok = ok and commutation_census(7).commutation_classes == 24698
    report(4, "node counts match the commutation-class oracle", ok,
           detail=f"(n=7 enumeration took {elapsed:.1f}s)")


def test_c05_potential_is_one_lipschitz(graphs):
    g5 = graphs(5)
    rng = random.Random(2024)
    ok = True
    for ref in rng.sample(range(len(g5)), 10):
        for k in (1, 2, 3):
            ok = ok and potential(g5, ref, k).max_edge_delta == 1

    g6 = graphs(6)
    edges = list(g6.undirected_edges())
    refs = [g6.min_id] + rng.sample(range(len(g6)), 2)
    values = {
        (ref, k): potential(g6, ref, k).values
        for ref in refs
        for k in range(1, 5)
    }
    for _ in range(100_000):
        u, v, _level = edges[rng.randrange(len(edges))]
        ref = refs[rng.randrange(len(refs))]
        k = rng.randrange(1, 5)
        vals = values[(ref, k)]
        if abs(vals[u] - vals[v]) > 1:
            ok = False
            break
    report(5, "level potential moves by at most one per flip", ok)


def test_c06_maximal_chain_censuses(graphs):
    ok = True
    for n in (5, 6):
        g = graphs(n)
        expected = expected_level_census(n)
        for seed in range(1000):
            chain = sample_chain(g, seed)
            census = level_census(chain, n)
            ok = ok and census == expected and sum(census) == comb(n, 3)
            if not ok:
                break
    report(6, "every sampled maximal chain has census k(n-k-1)", ok)


def test_c07_regular_chain_lemma(graphs, regulars):
    g = graphs(5)
    regs = regulars(5)
    ok = True
    for v in sorted(regs):
        chain = max_chain_through(g, v, regular_nodes=regs)
        ok = ok and len(chain.levels) == 10 and v in chain.nodes
        ok = ok and set(chain.nodes) <= regs

    induced = [
        [w for w in g.adj[v] if w in regs] if v in regs else []
        for v in range(len(g))
    ]
    from_min = bfs_distances(induced, g.min_id)
    from_max = bfs_distances(induced, g.max_id)
    for v in sorted(regs):
        ok = ok and from_min[v] + from_max[v] == 10
    report(7, "every regular tiling lies on an all-regular maximal chain", ok)


def test_c08_regularity_soundness():
    ok = True
    rng = random.Random(77)
    for n in range(4, 8):
        cfg = standard_config(n)
        for _ in range(100):
            _h, tiling = random_generic_heights(cfg, rng)
            # the integer witness, before the division by det > 0
            h = _certify(cfg, orientation_of(tiling).bits)[0]
            ok = ok and h is not None and tiling_from_heights(cfg, h) == tiling
    for n in range(2, 8):
        cfg = standard_config(n)
        for which in ("min", "max"):
            key = orientation_of(extremal_tiling(cfg, which)).bits
            ok = ok and _certify(cfg, key)[0] is not None
    report(8, "random regular tilings certified with reproducing witnesses", ok)


def test_c09_strong_separation_and_lifting_fixtures(graphs, k_class):
    separated_ok = True
    for n in (2, 3, 4, 5):
        for key in graphs(n).keys:
            verts = sorted(tiling_of_orientation(n, key).vertex_masks())
            for i, a in enumerate(verts):
                for b in verts[i + 1 :]:
                    separated_ok = separated_ok and strongly_separated(a, b)

    paths4 = {cross_section(tiling_of_orientation(4, key), 2).vertices for key in graphs(4).keys}
    nonlifting_absent = ((1, 2), (1, 3), (1, 4), (2, 4), (3, 4)) not in paths4
    lifting_present = ((1, 2), (1, 3), (1, 4), (3, 4)) in paths4

    cfg = make_config([-2, -1, 0, 1, 2])
    g = enumerate_tilings(cfg)
    target = ((1, 2), (1, 3), (3, 4), (3, 5), (4, 5))
    nodes = [
        v for v, key in enumerate(g.keys)
        if cross_section(tiling_of_orientation(5, key), 2).vertices == target
    ]
    slice_occurs = bool(nodes)

    def level_2_reduction(v):
        # Meet of the level-2 slices over v's level-2 class: the half-turn
        # maps it to the reduced path of the (n-1-2)-class of the opposite
        # node, so complement that path's vertices (which reverses the order).
        w = g.opposite_node(v)
        image = reduced_cross_section(g, k_class(g, w, cfg.n - 1 - 2), cfg.n - 1 - 2)
        points = set(range(1, cfg.n + 1))
        return MonotonePath(
            2,
            tuple(tuple(sorted(points - set(s))) for s in reversed(image.vertices)),
        )

    reductions = [level_2_reduction(v) for v in nodes]
    excludes_35 = bool(reductions) and all(
        (3, 5) not in reduced.vertices for reduced in reductions
    )

    ok = separated_ok and nonlifting_absent and lifting_present and slice_occurs and excludes_35
    report(
        9,
        "strong separation and lifting-path fixtures",
        ok,
        detail=(
            f"[separated={separated_ok}, nonlifting_absent={nonlifting_absent}, "
            f"lifting_present={lifting_present}, slice_occurs={slice_occurs}, "
            f"reduced_excludes_35={excludes_35}; level-2 class reductions of "
            f"the slice at nodes {nodes} = {[r.vertices for r in reductions]}]"
        ),
    )


def test_c10_duality_involution(graphs, regulars):
    ok = True
    for n in (3, 4, 5, 6):
        g = graphs(n)
        regs = regulars(n)
        for k in range(1, n - 1):
            ok = ok and all(diameter_report(g, k, regs)["duality"].values())
    report(10, "opposite involution matches sigma_k with sigma_(n-1-k)", ok)


def test_c11_opposite_pair_at_distance_one(graphs, regulars):
    g = graphs(5)
    sk = skeleton(g, 1, "sigma_k", regulars(5))
    hits = []
    for v in range(len(g)):
        w = g.opposite_node(v)
        ok_keys = g.keys[v] ^ g.keys[w] == (1 << comb(5, 3)) - 1
        cv, cw = sk.component_of[v], sk.component_of[w]
        if ok_keys and min(cv, cw) >= 0 and cv != cw and cw in sk.adj[cv]:
            hits.append((v, w))
    report(11, "fully reversed pair with adjacent level-1 classes", bool(hits))


def test_c12_vert_k_transport_and_distinctness(graphs, regulars):
    cfg = standard_config(5)
    g = graphs(5)
    tilings = [tiling_of_orientation(5, key) for key in g.keys]
    vecs = {k: [vert_k(cfg, t, k) for t in tilings] for k in range(1, 4)}
    ok = True
    for u, v, level in g.undirected_edges():
        for k in range(1, 4):
            ok = ok and (vecs[k][u] != vecs[k][v]) == (level == k)
    for k in range(1, 4):
        sk = skeleton(g, k, "sigma_k", regulars(5))
        class_values = set()
        for members in sk.classes:
            member_values = {vecs[k][v] for v in members}
            ok = ok and len(member_values) == 1
            class_values.add(member_values.pop())
        ok = ok and len(class_values) == len(sk.classes)
    report(12, "vert_k changes exactly at its level and separates classes", ok)
