import random

import pytest

from odograph import (
    DisconnectedGraphError,
    Graph,
    block_cut_tree,
    is_valid_nb_walk,
    reveal_all,
    verify_certificate,
    walk_weight,
)
from conftest import (
    brute_articulation_points,
    brute_bridges,
    doublings,
    k4_edges,
    random_min_deg3_edges,
    random_blocky_edges,
    random_sparse_low_degree_edges,
)


def test_k4_single_block_no_cuts(k4):
    bct = block_cut_tree(k4)
    assert len(bct.blocks) == 1
    assert set(bct.blocks[0].edge_ids) == {0, 1, 2, 3, 4, 5}
    assert not bct.blocks[0].is_bridge
    assert bct.cut_vertices == ()


def test_2k4cut_two_blocks_one_cut(g_2k4cut):
    bct = block_cut_tree(g_2k4cut)
    assert len(bct.blocks) == 2
    assert bct.cut_vertices == (3,)
    vertex_sets = sorted((set(b.vertices) for b in bct.blocks), key=sorted)
    assert vertex_sets == [{0, 1, 2, 3}, {3, 4, 5, 6}]
    assert bct.blocks_at(3) == (0, 1)


def test_g_bridge_three_blocks_two_cuts(g_bridge):
    bct = block_cut_tree(g_bridge)
    assert len(bct.blocks) == 3
    assert bct.cut_vertices == (3, 4)
    bridges = [b for b in bct.blocks if b.is_bridge]
    assert len(bridges) == 1
    assert bridges[0].edge_ids == (6,)
    assert bct.is_bridge_edge(6)
    assert not bct.is_bridge_edge(0)


def test_blocks_partition_edges(star_of_k4s):
    bct = block_cut_tree(star_of_k4s)
    all_ids = sorted(e for b in bct.blocks for e in b.edge_ids)
    assert all_ids == list(range(star_of_k4s.edge_count))


def test_disconnected_rejected():
    parts = k4_edges([0, 1, 2, 3]) + k4_edges([4, 5, 6, 7])
    with pytest.raises(DisconnectedGraphError):
        block_cut_tree(Graph(8, parts))


def test_agrees_with_brute_force_oracles():
    rng = random.Random(2024)
    samples = []
    for _ in range(12):
        n = rng.randint(5, 11)
        samples.append(Graph(n, random_min_deg3_edges(rng, n)))
    for _ in range(12):
        samples.append(Graph_from_edges(random_blocky_edges(rng, rng.randint(2, 4))))
    for _ in range(12):
        n = rng.randint(4, 8)
        edges = random_sparse_low_degree_edges(rng, n, rng.randint(1, 2))
        samples.append(Graph(n, edges))
    for g in samples:
        bct = block_cut_tree(g)
        assert set(bct.cut_vertices) == brute_articulation_points(g)
        lib_bridges = {e for e in range(g.edge_count) if bct.is_bridge_edge(e)}
        assert lib_bridges == brute_bridges(g)
        covered = sorted(e for b in bct.blocks for e in b.edge_ids)
        assert covered == list(range(g.edge_count))


def Graph_from_edges(edges):
    n = 1 + max(max(u, v) for u, v in edges)
    return Graph(n, edges)


def detour_path(rec):
    """The cycle's path between the base end's two chosen neighbors."""
    return rec.cycle[1:-1]


def test_path_in_block_avoiding_adjacent(k4):
    """From 3, the walk (3, 0) closes at 0 along the edge {1,2}, avoiding 0."""
    assert detour_path(doublings(k4, 3)[(3, 0)]) == (1, 2)


def test_path_in_block_avoiding_2k4(g_2k4cut):
    """Inside the far block, the detour at 4 joins 5 to 6 without using 4."""
    assert detour_path(doublings(g_2k4cut, 0)[(0, 3, 4)]) == (5, 6)


def test_path_in_block_avoiding_detours():
    # 4-cycle block 0-1-2-3 braced so every degree is >= 3
    edges = [(0, 1), (1, 2), (2, 3), (0, 3)] + [
        (0, 4), (2, 4), (1, 5), (3, 5), (4, 5), (1, 4), (3, 4)
    ]
    g = Graph(6, edges)
    for start in range(6):
        for rec in doublings(g, start).values():
            v, path = rec.base[-1], detour_path(rec)
            assert v not in path
            assert len(set(path)) == len(path)
            assert is_valid_nb_walk(g, rec.cycle)


def test_path_in_block_avoiding_validates(k4):
    """The detour's two end neighbors and the arrival vertex are three
    distinct vertices, and the path between the ends avoids the base's end."""
    for start in range(4):
        for rec in doublings(k4, start).values():
            assert len({rec.cycle[1], rec.cycle[-2], rec.base[-2]}) == 3
            assert rec.base[-1] not in detour_path(rec)


def test_leafward_escape_degenerate(g_2k4cut):
    """A walk into cut vertex 3 from the far block detours in the near block."""
    rec = doublings(g_2k4cut, 4)[(4, 3)]
    assert rec.cycle == (3, 0, 1, 3)


def test_leafward_escape_through_bridge(g_bridge):
    """From the far K4, the walk across the bridge detours in the near K4."""
    rec = doublings(g_bridge, 7)[(7, 4, 3)]
    assert set(rec.cycle) <= {0, 1, 2, 3}
    cert = reveal_all(g_bridge, 7)[6]
    assert verify_certificate(g_bridge, cert)
    value = sum(c * walk_weight(g_bridge, w) for c, w in cert.terms) / cert.target_coefficient
    assert value == g_bridge.weight(6)


def test_leafward_escape_two_block_hop(chain3_k4s):
    """Edges of the last K4 are revealed from 0 through both cut vertices,
    with every detour of the last block inside it."""
    g = chain3_k4s
    certs = reveal_all(g, 0)
    for rec in doublings(g, 0).values():
        if rec.base[-1] in (7, 8, 9):
            assert set(rec.cycle) <= {6, 7, 8, 9}
    for a, b in ((6, 7), (7, 8), (8, 9)):
        cert = certs[g.edge_id(a, b)]
        assert verify_certificate(g, cert)
        value = sum(c * walk_weight(g, w) for c, w in cert.terms) / cert.target_coefficient
        assert value == g.weight(g.edge_id(a, b))
        for _, w in cert.terms:
            assert {3, 6} <= set(w)


def test_leafward_escape_rejects_bridge_avoid_block(h_bridge):
    """Hub 16 touches only bridges; its detours still verify, through the
    arc search, which passes through 16 midway."""
    recs = doublings(h_bridge, 0)
    rec = recs[(0, 16)]
    assert 16 in rec.cycle[1:-1]
    for cert in reveal_all(h_bridge, 0).values():
        assert verify_certificate(h_bridge, cert)


def test_leafward_escape_reverse_is_nb(g_bridge, chain3_k4s):
    for g in (g_bridge, chain3_k4s):
        for rec in doublings(g, 0).values():
            for w in (rec.cycle, rec.conjugate_once, rec.conjugate_twice):
                assert is_valid_nb_walk(g, w)
                assert is_valid_nb_walk(g, w[::-1])


def test_nearest_block_path_n0(g_bridge):
    """From bridge endpoint 3, which sits on a block, one doubling reveals {3,4}."""
    cert = reveal_all(g_bridge, 3)[6]
    assert len(cert.terms) == 2
    assert verify_certificate(g_bridge, cert)
    value = sum(c * walk_weight(g_bridge, w) for c, w in cert.terms) / cert.target_coefficient
    assert value == g_bridge.weight(6)


def test_nearest_block_path_n0_smaller_endpoint_wins():
    # flip block-id order so the larger endpoint owns the smaller block id
    edges = k4_edges([4, 5, 6, 7]) + [(3, 4)] + k4_edges([0, 1, 2, 3])
    g = Graph(8, edges)
    e = g.edge_id(3, 4)
    for start in (3, 4):
        cert = reveal_all(g, start)[e]
        assert len(cert.terms) == 2
        assert verify_certificate(g, cert)


def test_nearest_block_path_n1(h_bridge):
    """Bridge {16,17} touches no 2-connected block; its walks reach past 17."""
    e = h_bridge.edge_id(16, 17)
    cert = reveal_all(h_bridge, 16)[e]
    assert verify_certificate(h_bridge, cert)
    value = sum(c * walk_weight(h_bridge, w) for c, w in cert.terms) / cert.target_coefficient
    assert value == h_bridge.weight(e)
    used = {v for _, w in cert.terms for v in w}
    assert used & {8, 9, 10, 11} and used & {12, 13, 14, 15}
    for _, w in cert.terms:
        assert w[0] == w[-1] == 16 and is_valid_nb_walk(h_bridge, w)
