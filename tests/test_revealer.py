import random
from fractions import Fraction

import pytest

from odograph import (
    Graph,
    IdentityTrace,
    NotOdometricError,
    PreconditionError,
    RevealCertificate,
    block_cut_tree,
    concat,
    detour_cycle,
    flatten,
    is_valid_nb_walk,
    reveal_all,
    reveal_walk_to_any_cut,
    reveal_walk_to_cut,
    reverse,
    transfer_neighbor_walk,
    verify_certificate,
    walk_weight,
)
from odograph.errors import CyclicDependencyError, MissingCertificateError
from conftest import (
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


# ------------------------------------------------------------ detour_cycle


def test_detour_cycle_k4(k4):
    bct = block_cut_tree(k4)
    cycle, first, last = detour_cycle(k4, bct, 0, bct.blocks_at(0)[0])
    assert cycle == (0, 1, 2, 0)
    assert first != last
    assert first == k4.edge_id(0, 1) and last == k4.edge_id(0, 2)


def test_detour_cycle_2k4_far_block(g_2k4cut):
    bct = block_cut_tree(g_2k4cut)
    far = [b for b in bct.blocks_at(3) if 4 in bct.blocks[b].vertices][0]
    cycle, first, last = detour_cycle(g_2k4cut, bct, 3, far)
    assert cycle == (3, 4, 5, 3)
    assert first != last


def test_detour_cycle_excluded_neighbor(k4):
    bct = block_cut_tree(k4)
    cycle, _, _ = detour_cycle(k4, bct, 0, bct.blocks_at(0)[0], exclude_neighbor=1)
    assert 1 not in cycle
    assert cycle == (0, 2, 3, 0)


def test_detour_cycle_squares_on_random_graphs():
    rng = random.Random(99)
    for _ in range(50):
        n = rng.randint(5, 11)
        g = Graph(n, random_min_deg3_edges(rng, n))
        bct = block_cut_tree(g)
        u = rng.randrange(n)
        block = bct.two_connected_blocks_at(u)[0]
        cycle, first, last = detour_cycle(g, bct, u, block)
        assert first != last
        assert is_valid_nb_walk(g, cycle)
        assert is_valid_nb_walk(g, concat(cycle, cycle))


# ------------------------------------------------------- reveal_walk_to_cut


def test_reveal_walk_case2_2k4cut(g_2k4cut):
    bct = block_cut_tree(g_2k4cut)
    near = [b for b in bct.blocks_at(3) if 0 in bct.blocks[b].vertices][0]
    cert = reveal_walk_to_cut(g_2k4cut, bct, 0, (0, 3), 3, near)
    assert cert.target == (0, 3)
    assert verify_certificate(g_2k4cut, cert)
    assert evaluate(g_2k4cut, cert) == g_2k4cut.weight(g_2k4cut.edge_id(0, 3))
    audit_walks(g_2k4cut, cert, 0)


def test_reveal_walk_case1_bridge_arrival(g_bridge):
    bct = block_cut_tree(g_bridge)
    far = [b for b in bct.blocks_at(4) if 5 in bct.blocks[b].vertices][0]
    cert = reveal_walk_to_cut(g_bridge, bct, 0, (0, 3, 4), 4, far)
    assert verify_certificate(g_bridge, cert)
    # target is the walk [0,3,4]: w_{0,3} + bridge weight
    assert evaluate(g_bridge, cert) == 3 + 7
    audit_walks(g_bridge, cert, 0)
    # case 1 uses a detour inside the far K4: the far block's vertices show up
    used = {v for _, w in cert.terms for v in w}
    assert used & {5, 6, 7}


def test_reveal_walk_case1_all_ones_length_identity(g_bridge):
    bct = block_cut_tree(g_bridge)
    ones = g_bridge.with_weights([1] * g_bridge.edge_count)
    far = [b for b in bct.blocks_at(4) if 5 in bct.blocks[b].vertices][0]
    cert = reveal_walk_to_cut(ones, bct, 0, (0, 3, 4), 4, far)
    assert evaluate(ones, cert) == 2  # the target walk has 2 edges


def test_reveal_walk_precondition(g_2k4cut):
    bct = block_cut_tree(g_2k4cut)
    near = [b for b in bct.blocks_at(3) if 0 in bct.blocks[b].vertices][0]
    with pytest.raises(PreconditionError):
        reveal_walk_to_cut(g_2k4cut, bct, 0, (0, 1), 1, near)  # 1 not a cut vertex


# --------------------------------------------------- reveal_walk_to_any_cut


def test_any_cut_delegates_when_two_connected(g_2k4cut):
    bct = block_cut_tree(g_2k4cut)
    near = [b for b in bct.blocks_at(3) if 0 in bct.blocks[b].vertices][0]
    via_any = reveal_walk_to_any_cut(g_2k4cut, bct, 0, (0, 3), 3)
    direct = reveal_walk_to_cut(g_2k4cut, bct, 0, (0, 3), 3, near)
    assert via_any == direct


def test_any_cut_all_bridges_center(star_of_k4s):
    g = star_of_k4s
    bct = block_cut_tree(g)
    cert = reveal_walk_to_any_cut(g, bct, 1, (1, 0, 12), 12)
    assert verify_certificate(g, cert)
    expected = g.weight(g.edge_id(0, 1)) + g.weight(g.edge_id(0, 12))
    assert evaluate(g, cert) == expected
    audit_walks(g, cert, 1)
    # the stitched bridge cycle must pass through the two other K4s
    used = {v for _, w in cert.terms for v in w}
    assert used & {4, 5, 6, 7} and used & {8, 9, 10, 11}


def test_any_cut_all_ones(star_of_k4s):
    ones = star_of_k4s.with_weights([1] * star_of_k4s.edge_count)
    bct = block_cut_tree(ones)
    cert = reveal_walk_to_any_cut(ones, bct, 1, (1, 0, 12), 12)
    assert evaluate(ones, cert) == 2


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
