import random
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
    block_cut_tree,
    concat,
    flatten,
    is_valid_nb_walk,
    reveal_all,
    reverse,
    transfer_neighbor_walk,
    verify_certificate,
    walk_weight,
)
from odograph.errors import CyclicDependencyError, MissingCertificateError
from odograph.revealer import _detour_cycle
from conftest import (
    _GADGETS,
    doublings,
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
        from odograph import edge_multiplicities

        for e, m in enumerate(edge_multiplicities(g, w)):
            acc[e] += c * m
    for d, e in cert.edge_terms:
        acc[e] += d
    target = cert.target_multiplicities(g)
    return all(
        acc[e] == cert.target_coefficient * target[e] for e in range(g.edge_count)
    )


def audit_walks(g, cert, home):
    for _, w in cert.terms:
        assert w[0] == home and w[-1] == home
        assert is_valid_nb_walk(g, w)


def check_detour(g, rec):
    """The record's cycle closes at the base's end, never backtracks even
    when run twice, and its first and last arcs differ and avoid the
    arrival vertex; both conjugates are closed walks from the base's start."""
    v, x = rec.base[-1], rec.base[-2]
    cycle = rec.cycle
    assert cycle[0] == cycle[-1] == v
    assert cycle[1] != cycle[-2]
    assert x not in (cycle[1], cycle[-2])
    assert is_valid_nb_walk(g, cycle) and is_valid_nb_walk(g, concat(cycle, cycle))
    for w in (rec.conjugate_once, rec.conjugate_twice):
        assert w[0] == w[-1] == rec.base[0]
        assert is_valid_nb_walk(g, w)


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
    ones = g_bridge.with_weights([1] * g_bridge.edge_count)
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
    ones = star_of_k4s.with_weights([1] * star_of_k4s.edge_count)
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
    bct = block_cut_tree(petersen)
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
    with pytest.raises(NotOdometricError) as info:
        reveal_all(c5, 0)
    assert info.value.vertex == 0


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
