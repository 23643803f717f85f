import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from odograph import (
    Graph,
    IdentityTrace,
    NotOdometricError,
    PreconditionError,
    RevealCertificate,
    edge_multiplicities,
    flatten,
    is_valid_nb_walk,
    reveal_all,
    transfer_neighbor_walk,
    verify_certificate,
    walk_weight,
)
from odograph.errors import CyclicDependencyError, MissingCertificateError
from odograph.revealer import _detour_cycle
from odograph.walks import concat, reverse
from conftest import (
    _GADGETS,
    doublings,
    k4_edges,
    k4_referencing_certificate,
    random_blocky_edges,
    random_closed_nb_walk,
    random_min_deg3_edges,
)


def evaluate(g, cert):
    """Value of a flattened certificate under g's weights."""
    assert not cert.edge_terms
    total = sum(c * walk_weight(g, w) for c, w in cert.terms)
    return total / cert.target_coefficient


def check_unflattened_identity(g, cert):
    """Symbolic identity including edge references, for every edge."""
    acc = [0] * g.edge_count
    for c, w in cert.terms:
        for e, m in enumerate(edge_multiplicities(g, w)):
            acc[e] += c * m
    for d, e in cert.edge_terms:
        acc[e] += d
    acc[cert.target] -= cert.target_coefficient
    return not any(acc)


def audit_walks(g, cert, home):
    for _, w in cert.terms:
        assert w[0] == home and w[-1] == home
        assert is_valid_nb_walk(g, w)


def check_detour(g, rec):
    """The record's cycle closes at the base's end, never backtracks even
    when run twice, and its first and last arcs differ and avoid the
    arrival vertex; both conjugates are closed walks from the base's start,
    and 2 F(base) = 2 F(once) - F(twice) holds edge by edge."""
    v, x = rec.base[-1], rec.base[-2]
    cycle = rec.cycle
    assert cycle[0] == cycle[-1] == v
    assert cycle[1] != cycle[-2]
    assert x not in (cycle[1], cycle[-2])
    assert is_valid_nb_walk(g, cycle) and is_valid_nb_walk(g, concat(cycle, cycle))
    for w in (rec.conjugate_once, rec.conjugate_twice):
        assert w[0] == w[-1] == rec.base[0]
        assert is_valid_nb_walk(g, w)
    base, once, twice = (
        edge_multiplicities(g, w) for w in (rec.base, rec.conjugate_once, rec.conjugate_twice)
    )
    assert [2 * b for b in base] == [2 * o - t for o, t in zip(once, twice)]


def revealed_value(g, rec):
    """F(base) from the record's doubling identity, measured under g's weights."""
    return (2 * walk_weight(g, rec.conjugate_once) - walk_weight(g, rec.conjugate_twice)) / 2


# ---------------------------------------------------------------- detour cycles


def test_detour_cycle_k4(k4):
    """From 0, each walk (0, b) doubles around the cycle through b's two
    smallest other neighbors."""
    recs = doublings(k4, 0)
    assert recs[(0, 1)].cycle == (1, 2, 3, 1)
    assert recs[(0, 2)].cycle == (2, 1, 3, 2)
    for rec in recs.values():
        check_detour(k4, rec)


def test_detour_cycle_2k4_far_block(g_2k4cut):
    """Walks from 0 across cut vertex 3 double inside the far K4."""
    recs = doublings(g_2k4cut, 0)
    assert recs[(0, 3, 4)].cycle == (4, 5, 6, 4)
    for rec in recs.values():
        check_detour(g_2k4cut, rec)
        if rec.base[-1] in (4, 5, 6):
            assert set(rec.cycle) <= {3, 4, 5, 6}


def test_detour_cycle_excluded_neighbor(k4):
    """From 1, the walk (1, 0) doubles around a cycle at 0 that avoids 1."""
    rec = doublings(k4, 1)[(1, 0)]
    assert 1 not in rec.cycle
    assert rec.cycle == (0, 2, 3, 0)


def test_detour_cycle_squares_on_random_graphs():
    rng = random.Random(99)
    for _ in range(50):
        n = rng.randint(5, 11)
        g = Graph(n, random_min_deg3_edges(rng, n))
        for rec in doublings(g, rng.randrange(n)).values():
            check_detour(g, rec)


# ------------------------------------------------------ walks into a cut vertex


def test_reveal_walk_case2_2k4cut(g_2k4cut):
    """The walk (0, 3) ends at cut vertex 3 on an edge of the near block."""
    cert = reveal_all(g_2k4cut, 0)[g_2k4cut.edge_id(0, 3)]
    assert verify_certificate(g_2k4cut, cert)
    assert evaluate(g_2k4cut, cert) == g_2k4cut.weight(g_2k4cut.edge_id(0, 3))
    audit_walks(g_2k4cut, cert, 0)
    rec = doublings(g_2k4cut, 0)[(0, 3)]
    check_detour(g_2k4cut, rec)
    assert revealed_value(g_2k4cut, rec) == walk_weight(g_2k4cut, (0, 3))


def test_reveal_walk_case1_bridge_arrival(g_bridge):
    """The walk (0, 3, 4) reaches cut vertex 4 across the bridge and doubles
    around a detour inside the far K4."""
    rec = doublings(g_bridge, 0)[(0, 3, 4)]
    check_detour(g_bridge, rec)
    assert set(rec.cycle) <= {4, 5, 6, 7}
    assert revealed_value(g_bridge, rec) == 3 + 7  # w{0,3} + the bridge
    cert = reveal_all(g_bridge, 0)[g_bridge.edge_id(4, 5)]
    assert verify_certificate(g_bridge, cert)
    assert evaluate(g_bridge, cert) == g_bridge.weight(g_bridge.edge_id(4, 5))
    audit_walks(g_bridge, cert, 0)
    used = {v for _, w in cert.terms for v in w}
    assert used & {5, 6, 7}


def test_reveal_walk_case1_all_ones_length_identity(g_bridge):
    ones = Graph(g_bridge.vertex_count, g_bridge.edges, [1] * g_bridge.edge_count)
    rec = doublings(ones, 0)[(0, 3, 4)]
    assert revealed_value(ones, rec) == 2  # the target walk has 2 edges


def test_reveal_walk_precondition(c5):
    """Below degree 3 no detour cycle exists, and the search says so."""
    with pytest.raises(PreconditionError):
        _detour_cycle(c5, 0, 1)


# --------------------------------------------------- cut vertices on bridges only


def test_any_cut_delegates_when_two_connected(g_2k4cut):
    """At a cut vertex with a 2-connected block, the search in the graph
    without the vertex succeeds: the cycle never passes through it midway."""
    for rec in doublings(g_2k4cut, 0).values():
        if rec.base[-1] == 3:
            assert 3 not in rec.cycle[1:-1]


def test_any_cut_all_bridges_center(star_of_k4s):
    """The center 12 touches only bridges, so its detour comes from the arc
    search: it passes through 12 midway and through both other K4s."""
    g = star_of_k4s
    rec = doublings(g, 1)[(1, 0, 12)]
    check_detour(g, rec)
    assert 12 in rec.cycle[1:-1]
    assert set(rec.cycle) & {4, 5, 6, 7} and set(rec.cycle) & {8, 9, 10, 11}
    expected = g.weight(g.edge_id(0, 1)) + g.weight(g.edge_id(0, 12))
    assert revealed_value(g, rec) == expected
    cert = reveal_all(g, 1)[g.edge_id(4, 12)]
    assert verify_certificate(g, cert)
    assert evaluate(g, cert) == g.weight(g.edge_id(4, 12))
    audit_walks(g, cert, 1)


def test_any_cut_all_ones(star_of_k4s):
    ones = Graph(star_of_k4s.vertex_count, star_of_k4s.edges, [1] * star_of_k4s.edge_count)
    assert revealed_value(ones, doublings(ones, 1)[(1, 0, 12)]) == 2


@st.composite
def gadget_chains(draw):
    """(graph, start): gadgets glued at shared cut vertices or by bridges,
    plus hubs, vertices whose three edges are all bridges. At a hub, or
    where a walk arrives at a vertex whose other neighbors lie on separate
    sides of it, only the arc search finds a detour."""
    edges: list[tuple[int, int]] = []
    n = 0

    def gadget(at=None):
        """Add a gadget with fresh labels, its vertex 0 merged into `at`."""
        nonlocal n
        size, gadget_edges = _GADGETS[draw(st.sampled_from(sorted(_GADGETS)))]
        fresh = size if at is None else size - 1
        labels = ([] if at is None else [at]) + list(range(n, n + fresh))
        n += fresh
        edges.extend((labels[u], labels[v]) for u, v in gadget_edges)
        return labels

    gadget()
    for _ in range(draw(st.integers(1, 5))):
        anchor = draw(st.integers(0, n - 1))
        kind = draw(st.sampled_from(["merge", "bridge", "hub"]))
        if kind == "merge":
            gadget(at=anchor)
        elif kind == "bridge":
            edges.append((anchor, gadget()[draw(st.integers(0, 3))]))
        else:
            hub = n
            n += 1
            edges.append((anchor, hub))
            for _ in range(2):
                edges.append((hub, gadget()[draw(st.integers(0, 3))]))
    g = Graph(n, edges)
    return g, draw(st.integers(0, n - 1))


@settings(max_examples=120, deadline=None)
@given(gadget_chains())
def test_reveal_all_on_gadget_chains(case):
    g, start = case
    trace = IdentityTrace()
    certs = reveal_all(g, start, trace)
    assert sorted(certs) == list(range(g.edge_count))
    for cert in certs.values():
        assert verify_certificate(g, cert)
        assert cert.target_coefficient == 2
        assert len(cert.terms) <= 4
        audit_walks(g, cert, start)
    for rec in trace.doublings:
        check_detour(g, rec)


# ------------------------------------------------------- far-block reveals


def test_lift_closed_walk_2k4(g_2k4cut):
    """Far-block edges are revealed straight from home, across cut vertex 3."""
    certs = reveal_all(g_2k4cut, 0)
    for e in (g_2k4cut.edge_id(3, 4), g_2k4cut.edge_id(4, 5), g_2k4cut.edge_id(3, 5)):
        assert verify_certificate(g_2k4cut, certs[e])
        assert evaluate(g_2k4cut, certs[e]) == g_2k4cut.weight(e)
        audit_walks(g_2k4cut, certs[e], 0)
    triangle = sum(
        evaluate(g_2k4cut, certs[g_2k4cut.edge_id(a, b)]) for a, b in ((3, 4), (4, 5), (5, 3))
    )
    assert triangle == walk_weight(g_2k4cut, (3, 4, 5, 3))


def test_lift_degenerate_home(k4):
    """An edge at home needs one doubling: the walk to home is empty."""
    certs = reveal_all(k4, 0)
    assert certs[k4.edge_id(0, 1)].terms == (
        (2, (0, 1, 2, 3, 1, 0)),
        (-1, (0, 1, 2, 3, 1, 2, 3, 1, 0)),
    )
    for b in (1, 2, 3):
        cert = certs[k4.edge_id(0, b)]
        assert cert.target_coefficient == 2
        assert [c for c, _ in cert.terms] == [2, -1]
        assert cert.edge_terms == ()


# --------------------------------------------------- transfer_neighbor_walk


def test_transfer_wrap(k4):
    f = k4.edge_id(0, 1)
    assert transfer_neighbor_walk(k4, 0, 1, f, (1, 2, 3, 1)) == ((0, 1, 2, 3, 1, 0), 2)


def test_transfer_rotate(k4):
    f = k4.edge_id(0, 1)
    assert transfer_neighbor_walk(k4, 0, 1, f, (1, 0, 2, 3, 1)) == ((0, 2, 3, 1, 0), 0)


def test_transfer_strip(k4):
    f = k4.edge_id(0, 1)
    assert transfer_neighbor_walk(k4, 0, 1, f, (1, 0, 2, 3, 0, 1)) == ((0, 2, 3, 0), -2)


def test_transfer_identity_random_spot(petersen):
    rng = random.Random(5)
    for _ in range(40):
        u = rng.randrange(10)
        home = rng.choice(petersen.neighbors(u))
        f = petersen.edge_id(home, u)
        w = random_closed_nb_walk(rng, petersen, u)
        out, eps = transfer_neighbor_walk(petersen, home, u, f, w)
        assert eps in (-2, 0, 2)
        assert out[0] == out[-1] == home
        assert is_valid_nb_walk(petersen, out)
        assert walk_weight(petersen, out) == walk_weight(petersen, w) + eps * petersen.weight(f)


def test_transfer_requires_incident_edge(k4):
    with pytest.raises(PreconditionError):
        transfer_neighbor_walk(k4, 0, 1, k4.edge_id(2, 3), (1, 2, 3, 1))


# ------------------------------------------------ walks into a cut vertex


def test_approach_library_two_distinct_final_edges(g_2k4cut):
    """reveal_all reveals walks into cut vertex 3 on two distinct final edges."""
    trace = IdentityTrace()
    reveal_all(g_2k4cut, 0, trace)
    into_cut = [rec for rec in trace.doublings if rec.base[-1] == 3]
    finals = {g_2k4cut.edge_id(rec.base[-2], 3) for rec in into_cut}
    assert len(finals) >= 2
    for rec in into_cut:
        assert rec.base[0] == 0
        assert is_valid_nb_walk(g_2k4cut, rec.base)
        for w in (rec.conjugate_once, rec.conjugate_twice):
            assert w[0] == w[-1] == 0 and is_valid_nb_walk(g_2k4cut, w)
        assert 2 * walk_weight(g_2k4cut, rec.base) == 2 * walk_weight(
            g_2k4cut, rec.conjugate_once
        ) - walk_weight(g_2k4cut, rec.conjugate_twice)


# -------------------------------------------------------------- block sweep


def test_reveal_block_k4_values(k4):
    for start in range(4):
        certs = reveal_all(k4, start)
        assert sorted(certs) == [0, 1, 2, 3, 4, 5]
        assert [evaluate(k4, certs[e]) for e in sorted(certs)] == [1, 2, 3, 4, 5, 6]


def test_reveal_block_petersen_symbolic(petersen):
    certs = reveal_all(petersen, 0)
    assert len(certs) == 15
    for cert in certs.values():
        assert verify_certificate(petersen, cert)
        audit_walks(petersen, cert, 0)


def test_reveal_block_home_audit_g_bridge(g_bridge):
    """From the cut vertex 3, every edge on both sides is audited at 3."""
    certs = reveal_all(g_bridge, 3)
    assert sorted(certs) == list(range(13))
    for cert in certs.values():
        audit_walks(g_bridge, cert, 3)
        assert check_unflattened_identity(g_bridge, cert)


def test_reveal_block_unflattened_identities(petersen):
    for start in range(10):
        for cert in reveal_all(petersen, start).values():
            assert check_unflattened_identity(petersen, cert)


# ------------------------------------------------------------------ bridges


def test_reveal_bridge_from_each_side(g_bridge):
    for home in (0, 7):
        cert = reveal_all(g_bridge, home)[6]
        assert verify_certificate(g_bridge, cert)
        assert evaluate(g_bridge, cert) == 7
        audit_walks(g_bridge, cert, home)


def test_reveal_bridge_distance_one(h_bridge):
    """The middle bridge {16,17} touches no 2-connected block."""
    e = h_bridge.edge_id(16, 17)
    cert = reveal_all(h_bridge, 1)[e]
    assert verify_certificate(h_bridge, cert)
    assert evaluate(h_bridge, cert) == h_bridge.weight(e)
    audit_walks(h_bridge, cert, 1)


# ----------------------------------------------------------------- the whole


def test_reveal_all_k4(k4):
    certs = reveal_all(k4, 0)
    flat = {e: flatten(certs[e], certs) for e in sorted(certs)}
    assert [evaluate(k4, flat[e]) for e in sorted(flat)] == [1, 2, 3, 4, 5, 6]


@pytest.mark.parametrize(
    "name", ["k4", "petersen", "g_2k4cut", "g_bridge", "star_of_k4s", "chain3_k4s", "h_bridge"]
)
def test_reveal_all_certificates_are_direct(request, name):
    """No edge references, c_e = 2, and only closed walks from the start."""
    g = request.getfixturevalue(name)
    for start in range(g.vertex_count):
        for cert in reveal_all(g, start).values():
            assert cert.edge_terms == ()
            assert cert.target_coefficient == 2
            assert cert.home == start
            audit_walks(g, cert, start)
            assert verify_certificate(g, cert)


def test_reveal_all_g_bridge_counts(g_bridge):
    certs = reveal_all(g_bridge, 0)
    assert sorted(certs) == list(range(13))
    flat = {e: flatten(certs[e], certs) for e in sorted(certs)}
    for e, cert in flat.items():
        assert verify_certificate(g_bridge, cert)
        assert evaluate(g_bridge, cert) == g_bridge.weight(e)
        audit_walks(g_bridge, cert, 0)


def test_reveal_all_not_odometric_c5(c5):
    with pytest.raises(NotOdometricError, match="^vertex 0 has degree 2$"):
        reveal_all(c5, 0)


def test_reveal_all_rejects_disconnected():
    from conftest import k4_edges

    g = Graph(8, k4_edges([0, 1, 2, 3]) + k4_edges([4, 5, 6, 7]))
    with pytest.raises(NotOdometricError):
        reveal_all(g, 0)


def test_reveal_all_rejects_bad_start(k4):
    with pytest.raises(PreconditionError):
        reveal_all(k4, 9)


def test_reveal_all_blocky_random():
    rng = random.Random(31)
    for _ in range(6):
        edges = random_blocky_edges(rng, rng.randint(2, 4))
        n = 1 + max(max(u, v) for u, v in edges)
        g = Graph(n, edges, [Fraction(rng.randint(-30, 30), rng.randint(1, 7)) for _ in edges])
        start = rng.randrange(n)
        certs = reveal_all(g, start)
        flat = {e: flatten(certs[e], certs) for e in sorted(certs)}
        for e, cert in flat.items():
            assert verify_certificate(g, cert)
            assert evaluate(g, cert) == g.weight(e)
            audit_walks(g, cert, start)


def test_identity_trace_records_doublings(g_bridge):
    trace = IdentityTrace()
    reveal_all(g_bridge, 0, trace)
    assert trace.doublings
    for rec in trace.doublings:
        base, cycle = rec.base, rec.cycle
        once, twice = rec.conjugate_once, rec.conjugate_twice
        for w in (cycle, once, twice):
            assert is_valid_nb_walk(g_bridge, w)
        lhs = 2 * walk_weight(g_bridge, base)
        rhs = 2 * walk_weight(g_bridge, once) - walk_weight(g_bridge, twice)
        assert lhs == rhs
        assert walk_weight(g_bridge, cycle) == walk_weight(g_bridge, twice) - walk_weight(g_bridge, once)


# ------------------------------------------------------------------- flatten


def test_flatten_no_edge_terms_is_identity(k4):
    cert = RevealCertificate(
        target=0, target_coefficient=2, home=0, terms=((2, (0, 1, 2, 0)),)
    )
    assert flatten(cert, {}) == cert


def test_flatten_unreferenced_certificate_comes_back_as_it_is(k4):
    """Unsorted terms are left in their order, not re-sorted."""
    certs = reveal_all(k4, 0)
    revealed = certs[k4.edge_id(1, 2)]
    cert = RevealCertificate(revealed.target, 2, 0, revealed.terms[::-1])
    assert verify_certificate(k4, cert)
    assert flatten(cert, certs) == cert


def test_flatten_adds_repeated_terms(k4):
    """2*w{1,2} = F[0,1,2,0] + F[0,1,2,0] - 2*w{0,1} - 2*w{0,2}: the repeated
    walk and the repeated edge references count with their summed
    coefficients."""
    triangle = (0, 1, 2, 0)
    cert = RevealCertificate(
        target=k4.edge_id(1, 2),
        target_coefficient=2,
        home=0,
        terms=((1, triangle), (1, triangle)),
        edge_terms=((-1, k4.edge_id(0, 1)), (-2, k4.edge_id(0, 2)), (-1, k4.edge_id(0, 1))),
    )
    assert check_unflattened_identity(k4, cert)
    certs = reveal_all(k4, 0)
    flat = flatten(cert, certs)
    assert not flat.edge_terms
    assert verify_certificate(k4, flat)
    assert evaluate(k4, flat) == 4
    # the same identity, written without repeats, flattens to the same certificate
    assert flat == flatten(k4_referencing_certificate(k4), certs)
    assert math.gcd(flat.target_coefficient, *(c for c, _ in flat.terms)) == 1


def test_flatten_single_reference_symbolic(k4):
    cert = k4_referencing_certificate(k4)
    assert check_unflattened_identity(k4, cert)
    flat = flatten(cert, reveal_all(k4, 0))
    assert not flat.edge_terms
    assert verify_certificate(k4, flat)
    assert evaluate(k4, flat) == 4


def test_flatten_whole_store_k4(k4):
    certs = reveal_all(k4, 0)
    for e, cert in certs.items():
        flat = flatten(cert, certs)
        assert not flat.edge_terms
        assert verify_certificate(k4, flat)


def test_flatten_a_chain_longer_than_the_recursion_limit():
    """2*w_i = T_i + 2*w_{i+1} - T_{i+1}, where 2*w_j = T_j is reveal_all's
    certificate on a prism: each certificate cites the next, deeper than
    Python may recurse, and the head flattens to its own certificate."""
    k = sys.getrecursionlimit() // 3 + 50
    ring = [(i, (i + 1) % k) for i in range(k)]
    g = Graph(2 * k, ring + [(k + a, k + b) for a, b in ring] + [(i, k + i) for i in range(k)])
    certs = reveal_all(g, 0)
    last = g.edge_count - 1
    chain = {
        e: RevealCertificate(
            e, 2, 0, certs[e].terms + tuple((-c, w) for c, w in certs[e + 1].terms), ((2, e + 1),)
        )
        for e in range(last)
    }
    chain[last] = certs[last]
    assert len(chain) > sys.getrecursionlimit()
    flat = flatten(chain[0], chain)
    assert verify_certificate(g, flat)
    assert flat == certs[0]


def test_flatten_missing_certificate():
    cert = RevealCertificate(
        target=0, target_coefficient=1, home=0, terms=(), edge_terms=((1, 5),)
    )
    with pytest.raises(MissingCertificateError):
        flatten(cert, {})


def test_flatten_cycle_detected():
    a = RevealCertificate(
        target=0, target_coefficient=1, home=0, terms=(), edge_terms=((1, 1),)
    )
    b = RevealCertificate(
        target=1, target_coefficient=1, home=0, terms=(), edge_terms=((1, 0),)
    )
    with pytest.raises(CyclicDependencyError):
        flatten(a, {0: a, 1: b})


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
