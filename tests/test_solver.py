import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from odograph import (
    Graph,
    InconsistentMeasurementsError,
    InvalidWalkError,
    Odometer,
    PreconditionError,
    RankDeficientError,
    RevealCertificate,
    build_walk_matrix,
    edge_multiplicities,
    enumerate_closed_nb_walks,
    extract_minimal_basis,
    flatten,
    rational_rank,
    recover_weights,
    reveal_all,
    verify_certificate,
)
from conftest import k4_referencing_certificate, random_closed_nb_walk, random_min_deg3_edges


def flat_store(g, start):
    certs = reveal_all(g, start)
    return {e: flatten(certs[e], certs) for e in certs}


def rank_of(g, walks):
    return rational_rank(build_walk_matrix(g, walks))


# --------------------------------------------------------- walk matrices


def test_build_walk_matrix_triangles(k4):
    m = build_walk_matrix(k4, [(0, 1, 2, 0), (0, 1, 3, 0)])
    assert m.edge_count == 6 and len(m.columns) == 2
    assert m.columns[0] == (1, 1, 0, 1, 0, 0)
    assert m.columns[1] == (1, 0, 1, 0, 1, 0)
    assert m.rows()[0] == [1, 1]  # edge {0,1} appears once in each walk


def test_build_walk_matrix_allows_duplicates(k4):
    m = build_walk_matrix(k4, [(0, 1, 2, 0), (0, 1, 2, 0)])
    assert m.columns[0] == m.columns[1]
    assert rational_rank(m) == 1


def test_build_walk_matrix_doubled_walk(k4):
    w = (0, 1, 2, 0, 1, 2, 0)
    m = build_walk_matrix(k4, [w])
    assert m.columns[0] == (2, 2, 0, 2, 0, 0)


def test_build_walk_matrix_rejects_empty(k4):
    with pytest.raises(InvalidWalkError):
        build_walk_matrix(k4, [(0, 1, 2, 0), (0,)])


# ----------------------------------------------------------------- ranks


def _sympy_rank(columns, edge_count):
    if not columns:
        return 0
    return sympy.Matrix([[col[e] for col in columns] for e in range(edge_count)]).rank()


def test_rank_matches_sympy_on_random_walk_sets(petersen):
    rng = random.Random(17)
    pool = enumerate_closed_nb_walks(petersen, 0, 8)
    for _ in range(25):
        walks = rng.sample(pool, rng.randint(1, min(12, len(pool))))
        m = build_walk_matrix(petersen, walks)
        assert rational_rank(m) == _sympy_rank(m.columns, m.edge_count)


def test_rank_monotone_under_extension(k4):
    pool = enumerate_closed_nb_walks(k4, 0, 9)
    prev = 0
    for i in range(1, len(pool) + 1):
        r = rank_of(k4, pool[:i])
        assert prev <= r <= prev + 1
        prev = r
    assert prev == 6


def test_rank_of_repeats_is_one(k4):
    assert rank_of(k4, [(0, 1, 2, 0)] * 5) == 1


def test_rank_of_empty_set(k4):
    assert rank_of(k4, []) == 0


# ------------------------------------------------------------ extraction


def test_extract_minimal_basis_k4(k4):
    basis = extract_minimal_basis(k4, flat_store(k4, 0))
    assert len(basis) == 6
    assert rank_of(k4, basis) == 6


def test_extract_minimal_basis_petersen(petersen):
    basis = extract_minimal_basis(petersen, flat_store(petersen, 0))
    assert len(basis) == 15
    assert rank_of(petersen, basis) == 15


def test_extract_requires_flattened(k4):
    dirty = k4_referencing_certificate(k4)
    with pytest.raises(PreconditionError):
        extract_minimal_basis(k4, {dirty.target: dirty})


def test_extract_detects_deficiency(k4):
    # a pool whose walks all trace the same triangle cannot span 6 directions
    thin = RevealCertificate(
        target=0,
        target_coefficient=1,
        home=0,
        terms=((1, (0, 1, 2, 0)), (3, (0, 1, 2, 0, 1, 2, 0))),
    )
    with pytest.raises(RankDeficientError):
        extract_minimal_basis(k4, {0: thin})


def test_removing_any_basis_walk_drops_rank(g_bridge):
    basis = extract_minimal_basis(g_bridge, flat_store(g_bridge, 0))
    assert len(basis) == 13
    for i in range(len(basis)):
        rest = basis[:i] + basis[i + 1 :]
        assert rank_of(g_bridge, rest) == 12


# -------------------------------------------------------------- recovery


def test_recover_weights_k4_exact(k4):
    basis = extract_minimal_basis(k4, flat_store(k4, 0))
    meter = Odometer(k4, 0)
    measured = [meter.measure(w) for w in basis]
    recovered = recover_weights(k4.without_weights(), basis, measured)
    assert recovered == {e: Fraction(e + 1) for e in range(6)}


def test_recover_weights_zero_measurements(k4):
    basis = extract_minimal_basis(k4, flat_store(k4, 0))
    zeros = [Fraction(0)] * len(basis)
    recovered = recover_weights(k4.without_weights(), basis, zeros)
    assert recovered == {e: Fraction(0) for e in range(6)}


def test_recover_weights_sympy_cross_check(petersen):
    basis = extract_minimal_basis(petersen, flat_store(petersen, 0))
    meter = Odometer(petersen, 0)
    measured = [meter.measure(w) for w in basis]
    mine = recover_weights(petersen.without_weights(), basis, measured)

    cols = build_walk_matrix(petersen, basis).columns
    a = sympy.Matrix([[col[e] for col in cols] for e in range(15)]).T
    b = sympy.Matrix([sympy.Rational(x) for x in measured])
    sol = a.solve(b)
    assert [mine[e] for e in range(15)] == [Fraction(str(x)) for x in sol]


def test_recover_rejects_length_mismatch(k4):
    with pytest.raises(PreconditionError):
        recover_weights(k4.without_weights(), [(0, 1, 2, 0)], [])


def test_recover_rejects_rank_deficiency(k4):
    walks = [(0, 1, 2, 0)] * 6
    with pytest.raises(RankDeficientError):
        recover_weights(k4.without_weights(), walks, [Fraction(7)] * 6)


def test_recover_rejects_inconsistent_overdetermined(k4):
    basis = extract_minimal_basis(k4, flat_store(k4, 0))
    meter = Odometer(k4, 0)
    walks = basis + [(0, 1, 2, 0)]
    measured = [meter.measure(w) for w in walks]
    measured[-1] += 1  # contradicts the first six equations
    with pytest.raises(InconsistentMeasurementsError):
        recover_weights(k4.without_weights(), walks, measured)


def test_recover_overdetermined_consistent_ok(k4):
    basis = extract_minimal_basis(k4, flat_store(k4, 0))
    meter = Odometer(k4, 0)
    walks = basis + [(0, 1, 2, 0), (0, 2, 3, 0)]
    measured = [meter.measure(w) for w in walks]
    recovered = recover_weights(k4.without_weights(), walks, measured)
    assert recovered == {e: Fraction(e + 1) for e in range(6)}


def test_recover_fractional_weights():
    edges = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    weights = [Fraction(1, 3), Fraction(-5, 7), 0, Fraction(9, 2), -4, Fraction(11)]
    g = Graph(4, edges, weights)
    basis = extract_minimal_basis(g, flat_store(g, 2))
    meter = Odometer(g, 2)
    measured = [meter.measure(w) for w in basis]
    recovered = recover_weights(g.without_weights(), basis, measured)
    assert recovered == {e: Fraction(w) for e, w in enumerate(weights)}


# ----------------------------------------------------------- verification


def test_verify_certificate_accepts_sound(g_2k4cut):
    for cert in flat_store(g_2k4cut, 0).values():
        assert verify_certificate(g_2k4cut, cert)


def test_verify_certificate_catches_corruption(k4):
    flat = flat_store(k4, 0)[0]
    c0, w0 = flat.terms[0]
    from dataclasses import replace

    bad = replace(flat, terms=((c0 + 1, w0),) + flat.terms[1:])
    assert not verify_certificate(k4, bad)


def test_verify_certificate_rejects_edge_terms(k4):
    cert = RevealCertificate(
        target=0, target_coefficient=1, home=0, terms=(), edge_terms=((1, 1),)
    )
    with pytest.raises(PreconditionError):
        verify_certificate(k4, cert)


def dense_verify(g, cert):
    """Reference check with one dense usage vector per walk."""
    acc = [0] * g.edge_count
    for c, w in cert.terms:
        for e, mult in enumerate(edge_multiplicities(g, w)):
            acc[e] += c * mult
    return acc == [cert.target_coefficient * (e == cert.target) for e in range(g.edge_count)]


_TAMPERS = ("none", "coefficient", "drop", "extra walk", "target coefficient", "retarget")


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32), st.sampled_from(_TAMPERS))
def test_verify_certificate_matches_dense_reference(seed, tamper):
    """Sound or tampered certificates: the sparse check agrees with the
    dense one, and accepts exactly the untampered certificates."""
    from dataclasses import replace

    rng = random.Random(seed)
    n = rng.randint(4, 9)
    g = Graph(n, random_min_deg3_edges(rng, n))
    start = rng.randrange(n)
    cert = rng.choice(list(reveal_all(g, start).values()))
    i = rng.randrange(len(cert.terms))
    c, w = cert.terms[i]
    if tamper == "coefficient":
        cert = replace(cert, terms=cert.terms[:i] + ((c + rng.choice((-1, 1)), w),) + cert.terms[i + 1 :])
    elif tamper == "drop":
        cert = replace(cert, terms=cert.terms[:i] + cert.terms[i + 1 :])
    elif tamper == "extra walk":
        extra = random_closed_nb_walk(rng, g, start)
        cert = replace(cert, terms=cert.terms + ((rng.choice((-2, -1, 1, 2)), extra),))
    elif tamper == "target coefficient":
        cert = replace(cert, target_coefficient=cert.target_coefficient + 1)
    elif tamper == "retarget":
        cert = replace(cert, target=(cert.target + 1) % g.edge_count)
    assert verify_certificate(g, cert) == dense_verify(g, cert) == (tamper == "none")
