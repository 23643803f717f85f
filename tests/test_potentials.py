"""Basis selection and the solve in tree-potential coordinates, against
the same greedy and elimination done directly in edge coordinates.

``extract_minimal_basis`` and ``recover_weights`` rewrite each walk's usage
counts with ``solver._potentials`` before eliminating. The map is
invertible, so the chosen walks, the weights and the errors must be the
ones edge coordinates give, on any graph (disconnected ones too) and for
any walks, closed or open, starting anywhere. The rows that ``solver._plan``
composes from a reveal's doubling records (``solver._lasso_row``) must be
the rows those walks read to.
"""

import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from odograph import (
    Graph,
    IdentityTrace,
    InconsistentMeasurementsError,
    RankDeficientError,
    RevealCertificate,
    edge_multiplicities,
    extract_minimal_basis,
    recover_weights,
    reveal_all,
)
from odograph.solver import (
    _Echelon,
    _lasso_row,
    _plan,
    _pool_certificate_walks,
    _potential_row,
    _potentials,
)
from odograph.walks import _edge_ids

from conftest import random_blocky_edges, random_min_deg3_edges
from test_deep_graphs import moebius_ladder, prism


@st.composite
def walk_systems(draw):
    """(graph, walks, weights): a graph on up to 7 vertices, often
    disconnected, and 1..12 random non-backtracking walks of 1..7 edges
    from random vertices, some of them repeated."""
    n = draw(st.integers(2, 7))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True))
    g = Graph(n, edges)
    starts = [v for v in range(n) if g.degree(v)]
    walks = []
    for _ in range(draw(st.integers(1, 12))):
        w = [draw(st.sampled_from(starts))]
        for _ in range(draw(st.integers(1, 7))):
            options = [u for u in g.neighbors(w[-1]) if len(w) < 2 or u != w[-2]]
            if not options:
                break
            w.append(draw(st.sampled_from(options)))
        if len(w) > 1:
            walks.append(tuple(w))
    if not walks:
        walks.append(g.edges[0])
    walks += draw(st.lists(st.sampled_from(walks), max_size=2))
    weights = draw(st.lists(st.fractions(max_denominator=5).filter(lambda q: abs(q) < 9),
                            min_size=len(edges), max_size=len(edges)))
    return g, walks, weights


def _reference_basis(g, pool):
    """Greedy selection over dense edge usage rows."""
    echelon = _Echelon()
    chosen = []
    for w in pool:
        if len(chosen) == g.edge_count:
            break
        if echelon.add(dict(enumerate(edge_multiplicities(g, w)))):
            chosen.append(w)
    return chosen


def _reference_solve(g, walks, measured):
    """Elimination of every walk in edge coordinates, the independent
    walks' readings replayed; rank first, then consistency, checked by
    measuring each walk on the solution."""
    echelon = _Echelon()
    chosen = [b for w, b in zip(walks, measured) if echelon.add(dict(enumerate(edge_multiplicities(g, w))))]
    if echelon.rank < g.edge_count:
        raise RankDeficientError
    d = lcm(*(b.denominator for b in measured))
    rhs, t = echelon.replay([int(b * d) for b in chosen])
    x, s = echelon.back_substitute(rhs=rhs)
    weights = [Fraction(x[e], d * t * s) for e in range(g.edge_count)]
    if any(_measure(g, w, weights) != b for w, b in zip(walks, measured)):
        raise InconsistentMeasurementsError
    return dict(enumerate(weights))


def _measure(g, w, weights):
    return sum((c * x for c, x in zip(edge_multiplicities(g, w), weights)), Fraction(0))


@settings(max_examples=200, deadline=None)
@given(walk_systems())
def test_basis_matches_edge_coordinate_greedy(system):
    g, walks, _ = system
    certs = {i: RevealCertificate(0, 1, w[0], ((1, w),)) for i, w in enumerate(walks)}
    expected = _reference_basis(g, _pool_certificate_walks(certs))
    if len(expected) < g.edge_count:
        with pytest.raises(RankDeficientError):
            extract_minimal_basis(g, certs)
    else:
        assert extract_minimal_basis(g, certs) == expected


@settings(max_examples=200, deadline=None)
@given(walk_systems(), st.data())
def test_solve_matches_edge_coordinate_solve(system, data):
    g, walks, weights = system
    measured = [_measure(g, w, weights) for w in walks]
    change = data.draw(st.sampled_from(("none", "perturb", "conflict")))
    if change != "none":
        i = data.draw(st.integers(0, len(walks) - 1))
        delta = data.draw(st.sampled_from((Fraction(1), Fraction(-1, 3))))
        if change == "conflict":  # a repeated walk read differently
            walks, measured = walks + [walks[i]], measured + [measured[i]]
        measured[i] += delta
    try:
        expected = _reference_solve(g, walks, measured)
    except (RankDeficientError, InconsistentMeasurementsError) as exc:
        with pytest.raises(type(exc)):
            recover_weights(g, walks, measured)
        return
    assert recover_weights(g, walks, measured) == expected


@settings(max_examples=100, deadline=None)
@given(walk_systems(), st.data())
def test_potentials_are_an_invertible_change_of_coordinates(system, data):
    g, _, _ = system
    coords = _potentials(g, data.draw(st.integers(0, g.vertex_count - 1)))
    columns = sorted(j for pair in coords for j in pair if j is not None)
    assert sorted(set(columns)) == list(range(g.edge_count))
    echelon = _Echelon()
    for plus, minus in coords:
        assert minus is None or plus < minus  # a child's column precedes its parent's
        assert echelon.add({plus: 1} if minus is None else {plus: 1, minus: -1})
    assert echelon.rank == g.edge_count


def test_rows_stay_short_however_deep():
    """On a prism with 120 rungs the pool walks run over 100 edges and use
    over 50 distinct edges, but the tree path to each detour telescopes
    out of their rows."""
    g = Graph(*prism(120))
    certs = reveal_all(g, 0)
    pool = _pool_certificate_walks(certs)
    coords = _potentials(g, 0)
    assert max(len(w) for w in pool) > 100
    assert max(len(set(_edge_ids(g, w))) for w in pool) > 50
    for w in pool:
        row = {j: c for j, c in _potential_row(coords, _edge_ids(g, w)).items() if c}
        assert len(row) <= 12


def _nonzero(row):
    return {j: c for j, c in row.items() if c}


def _check_lasso_rows(g, start):
    """Every record's composed rows are the read rows of its two walks, and
    ``_plan``'s selection picks what selection by reading picks."""
    trace = IdentityTrace()
    reveal_all(g, start, trace)
    coords = _potentials(g, start)
    assert trace.doublings
    for rec in trace.doublings:
        cycle_row = _potential_row(coords, _edge_ids(g, rec.cycle))
        for k, walk in ((1, rec.conjugate_once), (2, rec.conjugate_twice)):
            read = _potential_row(coords, _edge_ids(g, walk))
            assert _nonzero(_lasso_row(g, coords, rec.base, cycle_row, k)) == _nonzero(read)
    certs, basis, selection = _plan(g, start)
    assert certs == reveal_all(g, start)
    assert basis == extract_minimal_basis(g, certs)
    assert [_nonzero(row) for row in selection.rows] == [
        _nonzero(_potential_row(coords, _edge_ids(g, w))) for w in basis
    ]


@pytest.mark.parametrize(
    "name", ["k4", "petersen", "g_2k4cut", "g_bridge", "star_of_k4s", "chain3_k4s", "h_bridge"]
)
def test_lasso_rows_are_the_read_rows_from_every_start(name, request):
    g = request.getfixturevalue(name)
    for start in range(g.vertex_count):
        _check_lasso_rows(g, start)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(("random", "blocky", "prism", "moebius")), st.integers(0, 10**6))
def test_lasso_rows_are_the_read_rows_on_sampled_graphs(kind, seed):
    rng = random.Random(seed)
    if kind == "random":
        n = rng.randrange(4, 14)
        g = Graph(n, random_min_deg3_edges(rng, n))
    elif kind == "blocky":
        edges = random_blocky_edges(rng, rng.randrange(1, 5))
        g = Graph(1 + max(v for e in edges for v in e), edges)
    else:
        g = Graph(*(prism if kind == "prism" else moebius_ladder)(rng.randrange(3, 9)))
    for start in range(g.vertex_count):
        _check_lasso_rows(g, start)
