import random

import pytest

from odograph import DisconnectedGraphError, Graph
from odograph.decomposition import block_cut_tree
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
    vertex_sets = [{v for e in b.edge_ids for v in g_2k4cut.endpoints(e)} for b in bct.blocks]
    assert vertex_sets == [{0, 1, 2, 3}, {3, 4, 5, 6}]


def test_g_bridge_three_blocks_two_cuts(g_bridge):
    bct = block_cut_tree(g_bridge)
    assert len(bct.blocks) == 3
    assert bct.cut_vertices == (3, 4)
    bridges = [b for b in bct.blocks if b.is_bridge]
    assert len(bridges) == 1
    assert bridges[0].edge_ids == (6,)


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
        lib_bridges = {b.edge_ids[0] for b in bct.blocks if b.is_bridge}
        assert lib_bridges == brute_bridges(g)
        covered = sorted(e for b in bct.blocks for e in b.edge_ids)
        assert covered == list(range(g.edge_count))


def Graph_from_edges(edges):
    n = 1 + max(max(u, v) for u, v in edges)
    return Graph(n, edges)
