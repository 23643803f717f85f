import random

import pytest

from odograph import (
    DisconnectedGraphError,
    Graph,
    PreconditionError,
    block_cut_tree,
    is_valid_nb_walk,
    leafward_escape,
    path_in_block_avoiding,
    reveal_all,
    verify_certificate,
    walk_weight,
)
from conftest import (
    brute_articulation_points,
    brute_bridges,
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


def test_path_in_block_avoiding_adjacent(k4):
    bct = block_cut_tree(k4)
    assert path_in_block_avoiding(k4, bct, 0, 1, 2, 0) == (1, 2)


def test_path_in_block_avoiding_2k4(g_2k4cut):
    bct = block_cut_tree(g_2k4cut)
    far = bct.blocks_at(4)[0]
    assert path_in_block_avoiding(g_2k4cut, bct, far, 4, 5, 3) == (4, 5)


def test_path_in_block_avoiding_detours():
    # 4-cycle block 0-1-2-3 braced so every degree is >= 3
    edges = [(0, 1), (1, 2), (2, 3), (0, 3)] + [
        (0, 4), (2, 4), (1, 5), (3, 5), (4, 5), (1, 4), (3, 4)
    ]
    g = Graph(6, edges)
    bct = block_cut_tree(g)
    # inside the single block, going 1 -> 3 while avoiding 0
    walk = path_in_block_avoiding(g, bct, 0, 1, 3, 0)
    assert walk[0] == 1 and walk[-1] == 3
    assert 0 not in walk
    assert len(set(walk)) == len(walk)
    assert is_valid_nb_walk(g, walk)


def test_path_in_block_avoiding_validates(k4):
    bct = block_cut_tree(k4)
    with pytest.raises(PreconditionError):
        path_in_block_avoiding(k4, bct, 0, 1, 1, 2)


def test_leafward_escape_degenerate(g_2k4cut):
    bct = block_cut_tree(g_2k4cut)
    near = [b for b in bct.blocks_at(3) if 0 in bct.blocks[b].vertices][0]
    walk, u_prime, b_prime = leafward_escape(g_2k4cut, bct, 3, near)
    assert walk == (3,)
    assert u_prime == 3
    assert b_prime != near
    assert set(bct.blocks[b_prime].vertices) == {3, 4, 5, 6}


def test_leafward_escape_through_bridge(g_bridge):
    bct = block_cut_tree(g_bridge)
    near = [b for b in bct.blocks_at(3) if 0 in bct.blocks[b].vertices][0]
    walk, u_prime, b_prime = leafward_escape(g_bridge, bct, 3, near)
    assert walk == (3, 4)
    assert u_prime == 4
    assert set(bct.blocks[b_prime].vertices) == {4, 5, 6, 7}


def test_leafward_escape_two_block_hop(chain3_k4s):
    bct = block_cut_tree(chain3_k4s)
    first = [b for b in bct.blocks_at(3) if 0 in bct.blocks[b].vertices][0]
    walk, u_prime, b_prime = leafward_escape(chain3_k4s, bct, 3, first)
    assert walk[0] == 3 and walk[-1] == u_prime == 6
    assert is_valid_nb_walk(chain3_k4s, walk)
    target = bct.blocks[b_prime]
    assert set(target.vertices) == {6, 7, 8, 9}
    # the walk stays out of both the avoided and the destination block
    first_edges = set(bct.blocks[first].edge_ids)
    dest_edges = set(target.edge_ids)
    used = {chain3_k4s.edge_id(a, b) for a, b in zip(walk, walk[1:])}
    assert not (used & first_edges)
    assert not (used & dest_edges)


def test_leafward_escape_rejects_bridge_avoid_block(h_bridge):
    bct = block_cut_tree(h_bridge)
    bridge_block = [b for b in bct.blocks_at(16) if bct.blocks[b].is_bridge][0]
    with pytest.raises(PreconditionError):
        leafward_escape(h_bridge, bct, 16, bridge_block)


def test_leafward_escape_reverse_is_nb(g_bridge, chain3_k4s):
    for g, u in ((g_bridge, 3), (chain3_k4s, 3)):
        bct = block_cut_tree(g)
        near = [b for b in bct.blocks_at(u) if 0 in bct.blocks[b].vertices][0]
        walk, _, _ = leafward_escape(g, bct, u, near)
        assert is_valid_nb_walk(g, walk)
        assert is_valid_nb_walk(g, walk[::-1])


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
