from fractions import Fraction

import pytest

from odograph import Graph, is_connected, is_odometric
from odograph.graph import low_degree_vertices


def test_edge_ids_follow_input_order(k4):
    assert k4.edges == ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
    assert k4.edge_id(0, 1) == 0
    assert k4.edge_id(1, 0) == 0
    assert k4.edge_id(2, 3) == 5
    assert k4.endpoints(5) == (2, 3)


def test_neighbors_sorted_and_degree(k4):
    assert k4.neighbors(0) == (1, 2, 3)
    assert k4.degree(0) == 3
    assert k4.incident(0) == ((1, 0), (2, 1), (3, 2))


def test_rejects_self_loop():
    with pytest.raises(ValueError):
        Graph(3, [(0, 0)])


def test_rejects_duplicate_edge_either_orientation():
    with pytest.raises(ValueError):
        Graph(3, [(0, 1), (1, 0)])


def test_rejects_out_of_range_endpoint():
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])


def test_rejects_weight_count_mismatch():
    with pytest.raises(ValueError):
        Graph(3, [(0, 1), (1, 2)], [1])


def test_rejects_float_weights():
    with pytest.raises(ValueError):
        Graph(2, [(0, 1)], [0.5])


def test_weights_are_exact_rationals(k4):
    assert k4.weight(3) == Fraction(4)
    assert isinstance(k4.weight(3), Fraction)
    g = Graph(2, [(0, 1)], ["7/3"])
    assert g.weight(0) == Fraction(7, 3)


def test_with_and_without_weights(k4):
    bare = k4.without_weights()
    assert not bare.is_weighted
    assert bare.edges == k4.edges
    back = Graph(bare.vertex_count, bare.edges, range(6))
    assert back.weight(5) == 5
    with pytest.raises(ValueError):
        bare.weight(0)


def test_is_connected(k4, c5):
    assert is_connected(k4)
    assert is_connected(c5)
    two_parts = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    assert not is_connected(two_parts)


def test_is_odometric_k4_true(k4):
    assert is_odometric(k4)


def test_is_odometric_c5_false(c5):
    assert not is_odometric(c5)
    assert low_degree_vertices(c5) == (0, 1, 2, 3, 4)


def test_is_odometric_petersen_true(petersen):
    assert is_odometric(petersen)


def test_is_odometric_needs_connectivity():
    # two disjoint K4s: min degree 3 but disconnected
    from conftest import k4_edges

    parts = k4_edges([0, 1, 2, 3]) + k4_edges([4, 5, 6, 7])
    g = Graph(8, parts)
    assert low_degree_vertices(g) == ()
    assert not is_odometric(g)


def test_low_degree_lists_every_offender():
    # path on 3 vertices: degrees 1, 2, 1
    g = Graph(3, [(0, 1), (1, 2)])
    assert low_degree_vertices(g) == (0, 1, 2)
    assert not is_odometric(g)
