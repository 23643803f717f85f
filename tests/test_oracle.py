import itertools
import math
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from odograph import (
    Graph,
    InvalidWalkError,
    Odometer,
    PreconditionError,
    RejectedWalkError,
    build_walk_matrix,
    edge_multiplicities,
    enumerate_closed_nb_walks,
    extract_minimal_basis,
    is_valid_nb_walk,
    rational_rank,
    reveal_all,
    revealable_span,
    span_report,
    walk_weight,
)
import odograph.oracle
from odograph.oracle import (
    SpanReport,
    _count_closed_nb_walks,
    _report,
    _span,
    iter_closed_nb_walks,
    one_per_reversal,
)
from odograph.solver import _Echelon, _pool_certificate_walks
from conftest import (
    brute_closed_nb_walks,
    random_closed_nb_walk,
    random_min_deg3_edges,
    random_sparse_low_degree_edges,
)


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
    """The topology a solver gets has no weights; stripping them leaves
    the meter's graph weighted."""
    meter = Odometer(k4, 0)
    bare = k4.without_weights()
    with pytest.raises(ValueError):
        bare.weight(0)
    assert bare.edges == k4.edges
    assert meter.measure((0, 1, 2, 0)) == 1 + 4 + 2


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


def unpruned_closed_walks(g, home, max_edges):
    """Depth-first search over every non-backtracking walk from home of at
    most max_edges edges, neighbours in ``g.neighbors`` order, keeping the
    closed ones of 3 or more edges; nothing is pruned."""
    found = []

    def grow(walk):
        if len(walk) >= 4 and walk[-1] == home:
            found.append(tuple(walk))
        if len(walk) > max_edges:
            return
        for y in g.neighbors(walk[-1]):
            if len(walk) < 2 or y != walk[-2]:
                grow(walk + [y])

    grow([home])
    return found


# K4 on 0..3, a triangle on 4..6 and an isolated vertex 7
_DISCONNECTED = Graph(8, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 6)])
_TREE = Graph(7, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)])


@pytest.mark.parametrize("name", ["k4", "petersen", "c5", "subdivided_k4", "tree", "disconnected"])
def test_pruned_enumeration_equals_unpruned_search(name, request):
    """Pruning steps too far from home changes neither the walks nor their
    order, from every start at every cap from 0 to 12."""
    g = {"tree": _TREE, "disconnected": _DISCONNECTED}.get(name) or request.getfixturevalue(name)
    for home in range(g.vertex_count):
        for cap in range(13):
            assert list(iter_closed_nb_walks(g, home, cap)) == unpruned_closed_walks(g, home, cap)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_pruned_enumeration_equals_unpruned_search_on_random_graphs(data):
    # at most 6 * 5**6 walks to search: K7 at cap 7
    n = data.draw(st.integers(1, 7))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = data.draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))) if pairs else []
    g = Graph(n, edges)
    home = data.draw(st.integers(0, n - 1))
    cap = data.draw(st.integers(0, 7))
    assert list(iter_closed_nb_walks(g, home, cap)) == unpruned_closed_walks(g, home, cap)


# ---------------------------------------------------------- span reporting


def test_span_k4_full_rank(k4):
    report = revealable_span(k4, 0, 12)
    assert report == SpanReport(rank=6, relations=())


def test_span_k4_exhaustive_agrees(k4):
    """Stopping at full rank reports what the whole enumeration spans."""
    walks = enumerate_closed_nb_walks(k4, 0, 12)
    assert revealable_span(k4, 0, 12) == span_report(k4, walks)
    assert rational_rank(build_walk_matrix(k4, walks)) == 6


def test_revealable_span_at_a_huge_cap_stops_at_full_rank():
    """The search's first walks from 0 on K4 wind round one triangle up to
    the cap, so one search at cap 10**6 would read walks of up to a million
    edges before the span fills; read at the default cap first, the span
    fills after a few short walks. A subprocess with a timeout makes a
    regression fail instead of hanging."""
    code = (
        "from odograph import Graph, revealable_span\n"
        "from odograph.oracle import SpanReport\n"
        "k4 = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])\n"
        "assert revealable_span(k4, 0, 10**6) == SpanReport(6, ())\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    run = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60,
    )
    assert (run.returncode, run.stderr) == (0, "")


def test_revealable_span_above_the_default_cap_is_the_whole_enumeration(c5, subdivided_k4):
    """Above 2|E| + 3 the search runs at that cap, then at double it, up to
    the cap. Neither span fills, so every pass is read, the subdivided K4's
    through the complement test; the report is still that of the one
    enumeration at the cap."""
    for g, cap in ((subdivided_k4, 18), (c5, 65)):
        walks = one_per_reversal(iter_closed_nb_walks(g, 0, cap))
        assert revealable_span(g, 0, cap) == span_report(g, walks)


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


def test_one_per_reversal_keeps_one_walk_of_each_pair(subdivided_k4, k4):
    for g in (k4, subdivided_k4):
        walks = enumerate_closed_nb_walks(g, 0, 11)
        kept = list(one_per_reversal(walks))
        assert len(kept) * 2 == len(walks)
        assert set(kept) | {w[::-1] for w in kept} == set(walks)
        assert span_report(g, kept) == span_report(g, walks)


def test_revealable_span_keeps_no_walks(subdivided_k4):
    """At cap 17 the enumeration yields 22,204 walks, none of which is kept:
    the traced peak stays far below what holding them would take."""
    tracemalloc.start()
    try:
        report = revealable_span(subdivided_k4, 0, 17)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report == SpanReport(6, ((0, 0, 0, 0, 0, -1, 1),))
    assert peak < 1_000_000


def test_span_report_on_explicit_walks(k4):
    report = span_report(k4, [(0, 1, 2, 0), (0, 1, 2, 0), (0, 2, 1, 0)])
    assert report.rank == 1
    assert len(report.relations) == 5


def test_span_random_min_deg3_full_rank():
    """The walks from home up to 2|E| + 3 edges fill the span. The ten cases
    reach full rank after reading 12 to 82 walks of the lexicographic
    enumeration; the stream is cut at five times the most, so a span_report
    that stops short of full rank fails here in seconds instead of
    enumerating without end."""
    rng = random.Random(41)
    for _ in range(10):
        n = rng.randint(4, 10)
        g = Graph(n, random_min_deg3_edges(rng, n))
        home = rng.randrange(n)
        walks = iter_closed_nb_walks(g, home, 2 * g.edge_count + 3)
        report = span_report(g, itertools.islice(walks, 5 * 82))
        assert report == SpanReport(rank=g.edge_count, relations=())


def test_span_rank_plus_relations_is_edge_count(c5, subdivided_k4):
    for g in (c5, subdivided_k4):
        report = revealable_span(g, 0, 2 * g.edge_count + 3)
        assert report.rank + len(report.relations) == g.edge_count


def reference_span(g, walks):
    """Dense Fraction RREF of every distinct usage vector, with no early
    stop; one primitive relation per free column f, positive at f and zero
    at the other free columns."""
    m = g.edge_count
    rows = [[Fraction(x) for x in v] for v in {tuple(edge_multiplicities(g, w)): None for w in walks}]
    pivots = []
    for col in range(m):
        r = len(pivots)
        found = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if found is None:
            continue
        rows[r], rows[found] = rows[found], rows[r]
        rows[r] = [x / rows[r][col] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                rows[i] = [a - rows[i][col] * b for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
    relations = []
    for f in (c for c in range(m) if c not in pivots):
        vec = [Fraction(0)] * m
        vec[f] = Fraction(1)
        for r, p in enumerate(pivots):
            vec[p] = -rows[r][f]
        scale = math.lcm(*(x.denominator for x in vec))
        ints = [int(x * scale) for x in vec]
        shrink = math.gcd(*ints)
        relations.append(tuple(x // shrink for x in ints))
    return SpanReport(len(pivots), tuple(relations))


def _random_nb_walk(rng, g, u, steps):
    """A non-backtracking walk of up to `steps` edges from u, open or closed."""
    walk = [u]
    for _ in range(steps):
        options = [y for y in g.neighbors(walk[-1]) if len(walk) < 2 or y != walk[-2]]
        if not options:
            break
        walk.append(rng.choice(options))
    return tuple(walk)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_span_report_matches_exhaustive_reference(data):
    """span_report, which stops once the rank reaches |E|, reports what
    eliminating every distinct usage vector reports, on graphs with and
    without vertices of degree 1 or 2."""
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    kind = data.draw(st.sampled_from(["low-degree", "min-degree-3", "full-rank-prefix"]))
    if kind == "low-degree":
        n = data.draw(st.integers(3, 7))
        g = Graph(n, random_sparse_low_degree_edges(rng, n, data.draw(st.integers(0, 4))))
    else:
        n = data.draw(st.integers(4, 7))
        g = Graph(n, random_min_deg3_edges(rng, n))
    home = data.draw(st.integers(0, n - 1))
    walks = []
    if kind == "full-rank-prefix":
        # the certificates' walks span every edge, so the rank is full
        # after this prefix, and more walks follow it
        for cert in reveal_all(g, home).values():
            walks += [w for _, w in cert.terms]
    cap = data.draw(st.integers(3, 10))
    enumerated = list(itertools.islice(iter_closed_nb_walks(g, home, cap), 60))
    walks += rng.sample(enumerated, data.draw(st.integers(0, len(enumerated))))
    for _ in range(data.draw(st.integers(0, 6))):
        walk = _random_nb_walk(rng, g, rng.randrange(n), rng.randint(0, 8))
        walks += [walk] * rng.randint(1, 2)
    report = span_report(g, walks)
    assert report == reference_span(g, walks)
    if kind == "full-rank-prefix":
        assert report == SpanReport(g.edge_count, ())
    for rel in report.relations:
        for w in walks:
            assert sum(r * c for r, c in zip(rel, edge_multiplicities(g, w))) == 0


def span_report_before(g, walks):
    """The span loop before walks were tested against the complement: each
    distinct dense usage vector eliminated once, in order of first
    appearance, until the rank reaches |E|."""
    m = g.edge_count
    echelon = _Echelon()
    seen = set()
    for w in walks:
        vec = tuple(edge_multiplicities(g, w))
        if vec in seen:
            continue
        seen.add(vec)
        echelon.add(dict(enumerate(vec)))
        if echelon.rank == m:
            return SpanReport(m, ())
    return _report(m, echelon)


@pytest.fixture
def report_calls(monkeypatch):
    """The rank at each ``_report`` call; a rank below the one reported
    means the span built its complement there."""
    calls = []

    def counted(m, echelon):
        calls.append(echelon.rank)
        return _report(m, echelon)

    monkeypatch.setattr(odograph.oracle, "_report", counted)
    return calls


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_span_report_matches_the_dense_loop(data):
    """Reading every walk and the complement test report what eliminating
    every distinct usage vector reports, on collections with reversed,
    repeated and list-typed walks, open ones among them."""
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    if data.draw(st.booleans()):
        n = data.draw(st.integers(3, 7))
        g = Graph(n, random_sparse_low_degree_edges(rng, n, data.draw(st.integers(0, 4))))
    else:
        n = data.draw(st.integers(4, 7))
        g = Graph(n, random_min_deg3_edges(rng, n))
    home = data.draw(st.integers(0, n - 1))
    cap = data.draw(st.integers(3, 10))
    enumerated = list(itertools.islice(iter_closed_nb_walks(g, home, cap), 80))
    walks = rng.sample(enumerated, data.draw(st.integers(0, len(enumerated))))
    for _ in range(data.draw(st.integers(0, 6))):
        walks.append(_random_nb_walk(rng, g, rng.randrange(n), rng.randint(0, 8)))
    walks += [w[::-1] for w in rng.sample(walks, len(walks) // 2)]
    walks += rng.sample(walks, len(walks) // 3)
    rng.shuffle(walks)
    walks = [list(w) if rng.random() < 0.3 else w for w in walks]
    assert span_report(g, walks) == span_report_before(g, [tuple(w) for w in walks])


def test_span_report_builds_the_complement_on_a_tall_input(subdivided_k4, report_calls):
    walks = enumerate_closed_nb_walks(subdivided_k4, 0, 12)
    report = span_report(subdivided_k4, walks)
    assert report_calls == [5]
    assert report == span_report_before(subdivided_k4, walks)
    assert report == SpanReport(6, ((0, 0, 0, 0, 0, -1, 1),))


@pytest.mark.parametrize("basis_first", [True, False])
def test_span_report_on_a_full_rank_certificate_pool(basis_first, report_calls):
    """Certificate walks on random m = 254. With the minimal basis first,
    after repeats of its first walks, the only dependent walks come while
    the complement would be larger than the stored rows, so it is never
    built; in edge-id order, dependent walks near full rank build it."""
    g = Graph(150, random_min_deg3_edges(random.Random(1), 150))
    certs = reveal_all(g, 0)
    walks = _pool_certificate_walks(certs)
    if basis_first:
        basis = extract_minimal_basis(g, certs)
        walks = basis[:20] + [list(w) for w in basis[:20]] + basis + walks
    report = span_report(g, walks)
    assert (report_calls == []) == basis_first
    assert report == span_report_before(g, [tuple(w) for w in walks]) == SpanReport(254, ())


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_revealable_span_matches_the_enumeration_from_every_start(data):
    """The span read from the search's edge ids is the span of the listed
    enumeration and of the dense loop, from every start of random graphs
    with and without vertices of degree 1 or 2."""
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    if data.draw(st.booleans()):
        n = data.draw(st.integers(3, 7))
        g = Graph(n, random_sparse_low_degree_edges(rng, n, data.draw(st.integers(0, 4))))
    else:
        n = data.draw(st.integers(4, 6))
        g = Graph(n, random_min_deg3_edges(rng, n))
    cap = data.draw(st.integers(3, 12))
    for home in range(n):
        walks = enumerate_closed_nb_walks(g, home, cap)
        report = revealable_span(g, home, cap)
        assert report == span_report(g, walks) == span_report_before(g, walks)


@pytest.mark.parametrize("name", ["k4", "c5", "petersen", "subdivided_k4", "tree", "disconnected"])
def test_transfer_count_is_the_enumeration_length(name, request):
    """At every cap from 0 to 20, from every start but where a start is like
    one already taken (K4 and Petersen are vertex-transitive, and the
    disconnected graph's K4 is the first case); the enumeration at cap 20
    holds those of every lower cap, so it is read once per start and
    counted by length."""
    g = {"tree": _TREE, "disconnected": _DISCONNECTED}.get(name) or request.getfixturevalue(name)
    starts = {"k4": (0,), "petersen": (0, 7), "disconnected": (4, 5, 7)}.get(name, range(g.vertex_count))
    for home in starts:
        by_length = [0] * 21
        for w in iter_closed_nb_walks(g, home, 20):
            by_length[len(w) - 1] += 1
        for cap in range(21):
            assert _count_closed_nb_walks(g, home, cap) == sum(by_length[: cap + 1])
    if name == "tree":
        assert _count_closed_nb_walks(g, 0, 20) == 0


def test_span_finds_a_walk_with_dot_products_4_and_minus_1_independent(report_calls):
    """Walks as edge ids on 6 edges. The first four span {u : u0 = u1, u2 = u3}
    in 13 stored entries, so the dependent fifth builds the complement
    (-1, 1, 0, 0, 0, 0), (0, 0, -1, 1, 0, 0) and it is not derived again;
    the sixth is in the span. The seventh, 1^4 2, has dot products 4 and -1
    with those relations; it is independent, and the span counts its rank."""
    walks = [[0, 1, 2, 3, 4, 5], [2, 3, 4, 5, 5], [4, 5, 5, 5], [5], [0, 1], [1, 0], [1, 1, 1, 1, 2]]
    echelon = _Echelon()
    for ids in walks:
        echelon.add({e: ids.count(e) for e in ids})
    assert echelon.rank == 5
    assert _span(6, walks) == _report(6, echelon)
    assert report_calls == [4]


def test_negative_first_vertex_is_rejected(k4):
    """-1 would index the last vertex's neighbour map; (3, 0, 1) is a walk."""
    assert not is_valid_nb_walk(k4, (-1, 0, 1))
    meter = Odometer(k4, 0)
    with pytest.raises(RejectedWalkError, match="not a non-backtracking walk"):
        meter.measure((-1, 0, 1))
    with pytest.raises(InvalidWalkError):
        span_report(k4, [(0, 1, 2, 0), (-1, 0, 1)])
