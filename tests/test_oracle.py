import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from odograph import (
    Graph,
    Odometer,
    PreconditionError,
    RejectedWalkError,
    SpanReport,
    edge_multiplicities,
    enumerate_closed_nb_walks,
    iter_closed_nb_walks,
    revealable_span,
    span_report,
    walk_weight,
)
from conftest import brute_closed_nb_walks, random_closed_nb_walk, random_min_deg3_edges


# ---------------------------------------------------------------- odometer


def test_measure_triangle(k4):
    meter = Odometer(k4, 0)
    assert meter.measure((0, 1, 2, 0)) == 7
    assert meter.query_count == 1


def test_measure_rejects_backtracking(k4):
    meter = Odometer(k4, 0)
    with pytest.raises(RejectedWalkError):
        meter.measure((0, 1, 0))
    assert meter.query_count == 0


def test_measure_rejects_wrong_home(k4):
    meter = Odometer(k4, 0)
    with pytest.raises(RejectedWalkError) as info:
        meter.measure((1, 2, 3, 1))
    assert "home vertex 0" in str(info.value)


def test_measure_rejects_empty_trip(k4):
    meter = Odometer(k4, 0)
    with pytest.raises(RejectedWalkError) as info:
        meter.measure((0,))
    assert "never leaves" in str(info.value)


def test_measure_rejects_non_walk(k4):
    meter = Odometer(k4, 0)
    with pytest.raises(RejectedWalkError):
        meter.measure((0, 1, 2, 4, 0))  # 4 is not a vertex edge here


def test_query_count_skips_rejections(k4):
    meter = Odometer(k4, 0)
    for bad in ((0, 1, 0), (1, 2, 3, 1), (0,)):
        with pytest.raises(RejectedWalkError):
            meter.measure(bad)
    meter.measure((0, 1, 2, 0))
    meter.measure((0, 2, 3, 0))
    assert meter.query_count == 2


def test_errors_never_leak_weights():
    # weights chosen so any leak would show up as these digit strings
    g = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)],
              [982451, 982453, 982457, 982459, 982461, 982463])
    meter = Odometer(g, 0)
    for bad in ((0, 1, 0), (1, 2, 3, 1), (0,), (0, 1, 2, 9, 0)):
        with pytest.raises(RejectedWalkError) as info:
            meter.measure(bad)
        assert "98245" not in str(info.value)
        assert "98246" not in str(info.value)


# large coprime denominators make the common denominator a big integer
_PRIMES = (1, 2, 3, 1_000_003, 999_999_937, 2**61 - 1, 2**89 - 1)
_weights = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-(10**12), 10**12), st.sampled_from(_PRIMES)),
)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_integer_readings_equal_walk_weights(data):
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    n = data.draw(st.integers(4, 9))
    edges = random_min_deg3_edges(rng, n)
    g = Graph(n, edges, data.draw(st.lists(_weights, min_size=len(edges), max_size=len(edges))))
    home = data.draw(st.integers(0, n - 1))
    meter = Odometer(g, home)
    for i in range(5):
        walk = random_closed_nb_walk(rng, g, home, max_len=12)
        stepwise = sum((g.weight(g.edge_id(a, b)) for a, b in zip(walk, walk[1:])), Fraction(0))
        assert meter.measure(walk) == walk_weight(g, walk) == stepwise
        assert meter.query_count == i + 1
    # rejections, in their order: too short (even out of range), invalid
    # (even with wrong endpoints), then wrong endpoints
    away = next(v for v in range(n) if v != home)
    cases = [
        ((home,), "never leaves"),
        ((n,), "never leaves"),
        ((away, g.neighbors(away)[0], away), "not a non-backtracking walk"),
        ((home, n, home), "not a non-backtracking walk"),
        (random_closed_nb_walk(rng, g, away, max_len=12), f"home vertex {home}"),
    ]
    for walk, message in cases:
        with pytest.raises(RejectedWalkError, match=message):
            meter.measure(walk)
    assert meter.query_count == 5


def test_topology_has_no_weights(k4):
    meter = Odometer(k4, 0)
    bare = meter.topology
    with pytest.raises(ValueError):
        bare.weight(0)
    assert bare.edges == k4.edges


def test_odometer_rejects_unweighted(k4):
    with pytest.raises(PreconditionError):
        Odometer(k4.without_weights(), 0)


def test_odometer_rejects_bad_home(k4):
    with pytest.raises(PreconditionError):
        Odometer(k4, 4)


def test_fractional_measure():
    g = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)],
              [Fraction(1, 2), Fraction(1, 3), 0, Fraction(1, 5), 1, 2])
    meter = Odometer(g, 0)
    assert meter.measure((0, 1, 2, 0)) == Fraction(1, 2) + Fraction(1, 5) + Fraction(1, 3)


# ------------------------------------------------------------- enumeration


K4_TRIANGLES = [
    (0, 1, 2, 0),
    (0, 1, 3, 0),
    (0, 2, 1, 0),
    (0, 2, 3, 0),
    (0, 3, 1, 0),
    (0, 3, 2, 0),
]


def test_enumerate_k4_cap3(k4):
    assert enumerate_closed_nb_walks(k4, 0, 3) == K4_TRIANGLES


def test_enumerate_c5_short_caps(c5):
    assert enumerate_closed_nb_walks(c5, 0, 4) == []
    assert enumerate_closed_nb_walks(c5, 0, 1) == []
    assert enumerate_closed_nb_walks(c5, 0, 5) == [(0, 1, 2, 3, 4, 0), (0, 4, 3, 2, 1, 0)]


def test_enumerate_is_lazy(k4):
    it = iter_closed_nb_walks(k4, 0, 12)
    first = next(it)
    assert first == (0, 1, 2, 0)


def test_enumerate_rejects_bad_home(k4):
    with pytest.raises(PreconditionError):
        enumerate_closed_nb_walks(k4, 7, 3)


def test_enumerate_matches_brute_force():
    rng = random.Random(23)
    for _ in range(8):
        n = rng.randint(4, 6)
        g = Graph(n, random_min_deg3_edges(rng, n))
        home = rng.randrange(n)
        cap = rng.randint(3, 7)
        got = enumerate_closed_nb_walks(g, home, cap)
        assert got == brute_closed_nb_walks(g, home, cap)
        assert len(set(got)) == len(got)
        assert got == sorted(got)


def test_enumerate_lengths_within_cap(petersen):
    for w in enumerate_closed_nb_walks(petersen, 0, 9):
        assert 3 <= len(w) - 1 <= 9
        assert w[0] == w[-1] == 0


# ---------------------------------------------------------- span reporting


def test_span_k4_full_rank(k4):
    report = revealable_span(k4, 0, 12)
    assert report == SpanReport(rank=6, relations=())


def test_span_k4_exhaustive_agrees(k4):
    eager = revealable_span(k4, 0, 12, stop_at_full_rank=False)
    assert eager.rank == 6 and eager.relations == ()


def test_span_c5_sees_only_cycle_multiples(c5):
    report = revealable_span(c5, 0, 13)
    assert report.rank == 1
    assert len(report.relations) == 4
    # every relation annihilates every observable usage vector
    walks = enumerate_closed_nb_walks(c5, 0, 13)
    assert walks
    for rel in report.relations:
        for w in walks:
            mult = edge_multiplicities(c5, w)
            assert sum(r * m for r, m in zip(rel, mult)) == 0


def test_span_triangle_rank_one(c3):
    report = revealable_span(c3, 0, 9)
    assert report.rank == 1
    assert len(report.relations) == 2


def test_span_subdivided_k4(subdivided_k4):
    g = subdivided_k4
    cap = 2 * g.edge_count + 3
    report = revealable_span(g, 0, cap)
    assert report.rank == 6
    assert report.relations == ((0, 0, 0, 0, 0, -1, 1),)


def test_span_pendant_edge_invisible():
    g = Graph(4, [(0, 1), (0, 2), (1, 2), (0, 3)])
    report = revealable_span(g, 0, 11)
    assert report.rank == 1  # triangle multiples only
    # one relation must isolate the pendant edge {0,3}
    assert (0, 0, 0, 1) in report.relations


def test_span_report_on_explicit_walks(k4):
    report = span_report(k4, [(0, 1, 2, 0), (0, 1, 2, 0), (0, 2, 1, 0)])
    assert report.rank == 1
    assert len(report.relations) == 5


def test_span_random_min_deg3_full_rank():
    rng = random.Random(41)
    for _ in range(10):
        n = rng.randint(4, 10)
        g = Graph(n, random_min_deg3_edges(rng, n))
        home = rng.randrange(n)
        report = revealable_span(g, home, 2 * g.edge_count + 3)
        assert report == SpanReport(rank=g.edge_count, relations=())


def test_span_rank_plus_relations_is_edge_count(c5, subdivided_k4):
    for g in (c5, subdivided_k4):
        report = revealable_span(g, 0, 2 * g.edge_count + 3)
        assert report.rank + len(report.relations) == g.edge_count
