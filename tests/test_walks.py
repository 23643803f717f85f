from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from odograph import (
    EndpointMismatchError,
    InvalidWalkError,
    JunctionBacktrackError,
    edge_multiplicities,
    is_valid_nb_walk,
    walk_weight,
)
from odograph.walks import _edge_usage, concat, is_closed, reverse
from conftest import random_min_deg3_edges
import random

from odograph import Graph


def test_is_valid_triangle(k4):
    assert is_valid_nb_walk(k4, (0, 1, 2, 0))


def test_rejects_immediate_backtrack(k4):
    assert not is_valid_nb_walk(k4, (0, 1, 0))


def test_rejects_interior_backtrack(k4):
    assert not is_valid_nb_walk(k4, (0, 1, 2, 1, 0))


def test_rejects_non_edges_and_bad_vertices(k4):
    assert not is_valid_nb_walk(k4, (0, 4))
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)])
    assert not is_valid_nb_walk(g, (1, 3))


def test_empty_walk_is_valid_and_closed(k4):
    assert is_valid_nb_walk(k4, (0,))
    assert is_closed((0,))


def test_closure_allows_equal_first_and_last_edge(g_2k4cut):
    # [3,4,6,4,3] backtracks; [3,4,5,6,4,3]: first edge {3,4} = last edge
    w = (3, 4, 5, 6, 4, 3)
    assert is_valid_nb_walk(g_2k4cut, w)
    assert is_closed(w)


def test_concat_basic(k4):
    assert concat((0, 1, 2), (2, 3, 0)) == (0, 1, 2, 3, 0)


def test_concat_junction_backtrack(k4):
    with pytest.raises(JunctionBacktrackError):
        concat((0, 1, 2), (2, 1, 0))


def test_concat_endpoint_mismatch(k4):
    with pytest.raises(EndpointMismatchError):
        concat((0, 1), (2, 3))


def test_concat_empty_identity(k4):
    assert concat((0, 1), (1,)) == (0, 1)
    assert concat((0,), (0, 1)) == (0, 1)


def test_reverse_examples(k4):
    assert reverse((0, 1, 2, 3)) == (3, 2, 1, 0)
    assert reverse((0,)) == (0,)


def test_walk_weight_triangle(k4):
    assert walk_weight(k4, (0, 1, 2, 0)) == 7


def test_walk_weight_empty_is_zero(k4):
    assert walk_weight(k4, (0,)) == 0


def test_walk_weight_rejects_invalid(k4):
    with pytest.raises(InvalidWalkError):
        walk_weight(k4, (0, 1, 0))


def test_edge_multiplicities_triangle(k4):
    assert edge_multiplicities(k4, (0, 1, 2, 0)) == [1, 1, 0, 1, 0, 0]


def test_edge_multiplicities_doubled_triangle(k4):
    assert edge_multiplicities(k4, (0, 1, 2, 0, 1, 2, 0)) == [2, 2, 0, 2, 0, 0]


def test_edge_multiplicities_empty(k4):
    assert edge_multiplicities(k4, (2,)) == [0] * 6


# ------------------------------------------------------------- properties

_RNG_GRAPHS = []
for _seed in (7, 21, 63):
    _r = random.Random(_seed)
    _n = _r.randint(5, 9)
    _RNG_GRAPHS.append(Graph(_n, random_min_deg3_edges(_r, _n)))


def _nb_walks_up_to(g, length):
    """All non-backtracking walks of g with at most `length` edges."""
    out = []
    stack = [(v,) for v in range(g.vertex_count)]
    while stack:
        w = stack.pop()
        out.append(w)
        if len(w) - 1 == length:
            continue
        for y in g.neighbors(w[-1]):
            if len(w) >= 2 and y == w[-2]:
                continue
            stack.append(w + (y,))
    return out


@st.composite
def graph_and_walk_pair(draw):
    g = draw(st.sampled_from(_RNG_GRAPHS))
    walks = _nb_walks_up_to(g, 4)
    w1 = draw(st.sampled_from(walks))
    w2 = draw(st.sampled_from([w for w in walks if w[0] == w1[-1]]))
    return g, w1, w2


@settings(max_examples=120, deadline=None)
@given(graph_and_walk_pair())
def test_concat_result_is_valid_or_junction_error(data):
    g, w1, w2 = data
    try:
        joined = concat(w1, w2)
    except JunctionBacktrackError:
        assert len(w1) >= 2 and len(w2) >= 2 and w1[-2] == w2[1]
        return
    assert is_valid_nb_walk(g, joined)
    assert len(joined) == len(w1) + len(w2) - 1


@settings(max_examples=120, deadline=None)
@given(graph_and_walk_pair())
def test_weight_additive_and_reverse_invariant(data):
    g, w1, w2 = data
    rng = random.Random(hash((w1, w2)) & 0xFFFF)
    gw = Graph(
        g.vertex_count,
        g.edges,
        [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(g.edge_count)],
    )
    assert walk_weight(gw, reverse(w1)) == walk_weight(gw, w1)
    try:
        joined = concat(w1, w2)
    except JunctionBacktrackError:
        return
    assert walk_weight(gw, joined) == walk_weight(gw, w1) + walk_weight(gw, w2)


@settings(max_examples=120, deadline=None)
@given(graph_and_walk_pair())
def test_reverse_involution_and_multiplicity_identity(data):
    g, w, _ = data
    assert reverse(reverse(w)) == w
    mult = edge_multiplicities(g, w)
    assert mult == edge_multiplicities(g, reverse(w))
    gw = Graph(g.vertex_count, g.edges, range(1, g.edge_count + 1))
    assert walk_weight(gw, w) == sum(
        m * gw.weight(e) for e, m in enumerate(mult)
    )


# ------------------------------------------------------------ usage counts


def _reference_usage(g, w):
    """Dense usage counts, checking each validity condition separately:
    None for an invalid walk."""
    n = g.vertex_count
    if not w or any(not (0 <= v < n) for v in w):
        return None
    if any((min(a, b), max(a, b)) not in g.edges for a, b in zip(w, w[1:])):
        return None
    if any(w[i] == w[i + 2] for i in range(len(w) - 2)):
        return None
    counts = [0] * g.edge_count
    for a, b in zip(w, w[1:]):
        counts[g.edge_id(a, b)] += 1
    return counts


@st.composite
def graphs_and_vertex_sequences(draw):
    """A small graph and a vertex sequence: usually a random walk in it,
    sometimes with one vertex replaced, out of range, negative or repeated
    two steps back."""
    n = draw(st.integers(1, 6))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    g = Graph(n, draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else [])
    w = [draw(st.integers(0, n - 1))]
    for _ in range(draw(st.integers(0, 8))):
        options = [u for u in g.neighbors(w[-1]) if len(w) < 2 or u != w[-2]]
        if not options:
            break
        w.append(draw(st.sampled_from(options)))
    if draw(st.booleans()):
        i = draw(st.integers(0, len(w)))
        w[i:i + 1] = [draw(st.sampled_from([-1, n, 0, n - 1] + w[max(i - 2, 0):i]))]
    if draw(st.integers(0, 9)) == 0:
        w = []
    return g, tuple(w)


@settings(max_examples=300, deadline=None)
@given(graphs_and_vertex_sequences())
def test_edge_usage_matches_reference(case):
    g, w = case
    expected = _reference_usage(g, w)
    assert is_valid_nb_walk(g, w) == (expected is not None)
    if expected is None:
        with pytest.raises(InvalidWalkError, match="not a valid non-backtracking walk"):
            _edge_usage(g, w)
        with pytest.raises(InvalidWalkError):
            edge_multiplicities(g, w)
        return
    usage = _edge_usage(g, w)
    assert all(usage.values())
    assert usage == {e: c for e, c in enumerate(expected) if c}
    assert edge_multiplicities(g, w) == expected
