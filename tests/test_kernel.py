"""Differential tests of the exact elimination kernel against sympy.

Raw integer systems with entries in [-3, 3] exercise the kernel itself;
walk systems on small graphs exercise the public rank, solve and span
calls built on it.
"""

from fractions import Fraction
from math import gcd, lcm

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from odograph import (
    Graph,
    InconsistentMeasurementsError,
    RankDeficientError,
    edge_multiplicities,
    enumerate_closed_nb_walks,
    extract_minimal_basis,
    flatten,
    rational_rank,
    recover_weights,
    reveal_all,
    span_report,
)
from odograph.solver import WalkMatrix, _Echelon

small_fractions = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))


@st.composite
def integer_systems(draw):
    """(rows, rhs): a few rows of length 1..6, some copies of earlier rows
    (so rank deficiency is common), and a right-hand side that is either
    A·x for a drawn x or arbitrary."""
    n = draw(st.integers(1, 6))
    row = st.lists(st.integers(-3, 3), min_size=n, max_size=n)
    rows = draw(st.lists(row, min_size=1, max_size=8))
    for i, sign in draw(st.lists(st.tuples(st.integers(0, 7), st.sampled_from((1, -1))), max_size=3)):
        rows.append([sign * v for v in rows[i % len(rows)]])
    if draw(st.booleans()):
        x = draw(st.lists(small_fractions, min_size=n, max_size=n))
        rhs = [sum((a * b for a, b in zip(r, x)), Fraction(0)) for r in rows]
    else:
        rhs = draw(st.lists(small_fractions, min_size=len(rows), max_size=len(rows)))
    return rows, rhs


@settings(max_examples=150, deadline=None)
@given(integer_systems())
def test_rank_matches_sympy(system):
    rows, _ = system
    m = WalkMatrix(edge_count=len(rows[0]), columns=tuple(map(tuple, rows)))
    assert rational_rank(m) == sympy.Matrix(rows).rank()


@settings(max_examples=150, deadline=None)
@given(integer_systems())
def test_kernel_solve_matches_sympy(system):
    """Rows are added without right-hand sides; the independent rows'
    right-hand sides, scaled to integers, are replayed through the steps
    that reduced them. The system is consistent exactly when the solution
    so found satisfies every row."""
    rows, rhs = system
    echelon = _Echelon()
    chosen = [v for r, v in zip(rows, rhs) if echelon.add(dict(enumerate(r)))]
    d = lcm(*(v.denominator for v in rhs))
    replayed, t = echelon.replay([int(v * d) for v in chosen])
    x, s = echelon.back_substitute(rhs=replayed)
    x = {j: Fraction(v, d * t * s) for j, v in x.items()}
    consistent = all(
        sum((c * x.get(j, 0) for j, c in enumerate(r)), Fraction(0)) == v
        for r, v in zip(rows, rhs)
    )

    a = sympy.Matrix(rows)
    b = sympy.Matrix([sympy.Rational(v.numerator, v.denominator) for v in rhs])
    rank = a.rank()
    assert echelon.rank == rank
    assert consistent == (a.row_join(b).rank() == rank)
    if consistent and rank == len(rows[0]):
        sol, _ = a.gauss_jordan_solve(b)
        assert [x[j] for j in range(rank)] == [Fraction(str(v)) for v in sol]


def _petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph(10, outer + inner + [(i, 5 + i) for i in range(5)])


def _basis(g: Graph) -> list:
    certs = reveal_all(g, 0)
    return extract_minimal_basis(g, {e: flatten(certs[e], certs) for e in certs})


_K4 = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
_PETERSEN = _petersen()
# K4 with {2,3} subdivided: rank 6 of 7
_SUBDIVIDED_K4 = Graph(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 4), (4, 3)])
# a triangle with a pendant edge: only triangle multiples are visible
_PENDANT = Graph(4, [(0, 1), (0, 2), (1, 2), (0, 3)])
# (graph, closed walks from 0, a minimal basis or None when not odometric)
CASES = [
    (_K4, enumerate_closed_nb_walks(_K4, 0, 6), _basis(_K4)),
    (_PETERSEN, enumerate_closed_nb_walks(_PETERSEN, 0, 9), _basis(_PETERSEN)),
    (_SUBDIVIDED_K4, enumerate_closed_nb_walks(_SUBDIVIDED_K4, 0, 9), None),
    (_PENDANT, enumerate_closed_nb_walks(_PENDANT, 0, 9), None),
]


@st.composite
def walk_systems(draw):
    """(graph, walks, measurements): random walks from the pool, after the
    minimal basis when drawn (square or overdetermined full rank), with
    measurements from drawn weights and sometimes one perturbed."""
    g, pool, basis = draw(st.sampled_from(CASES))
    m = g.edge_count
    walks = list(basis) if basis and draw(st.booleans()) else []
    walks += draw(st.lists(st.sampled_from(pool), min_size=0 if walks else 1, max_size=m + 3))
    weights = draw(st.lists(small_fractions, min_size=m, max_size=m))
    measured = [
        sum((c * weights[e] for e, c in enumerate(edge_multiplicities(g, w))), Fraction(0))
        for w in walks
    ]
    if draw(st.booleans()):
        i = draw(st.integers(0, len(walks) - 1))
        measured[i] += draw(st.sampled_from((Fraction(1), Fraction(-1, 2))))
    return g, walks, measured


def _usage(g, walks):
    return sympy.Matrix([edge_multiplicities(g, w) for w in walks])


@settings(max_examples=150, deadline=None)
@given(walk_systems())
def test_recover_weights_matches_sympy(system):
    g, walks, measured = system
    a = _usage(g, walks)
    b = sympy.Matrix([sympy.Rational(v.numerator, v.denominator) for v in measured])
    rank = a.rank()
    if rank < g.edge_count:  # rank is checked before consistency
        with pytest.raises(RankDeficientError):
            recover_weights(g, walks, measured)
    elif a.row_join(b).rank() > rank:
        with pytest.raises(InconsistentMeasurementsError):
            recover_weights(g, walks, measured)
    else:
        sol, _ = a.gauss_jordan_solve(b)
        got = recover_weights(g, walks, measured)
        assert [got[e] for e in range(g.edge_count)] == [Fraction(str(v)) for v in sol]


@settings(max_examples=150, deadline=None)
@given(walk_systems())
def test_span_relations_are_primitive_and_span_sympy_nullspace(system):
    g, walks, _ = system
    a = _usage(g, walks)
    report = span_report(g, walks)
    assert report.rank == a.rank()
    nullspace = a.nullspace()
    assert len(report.relations) == len(nullspace)
    for rel in report.relations:
        assert gcd(*rel) == 1
        assert all(v == 0 for v in a * sympy.Matrix(rel))
    if report.relations:
        rels = sympy.Matrix(report.relations)
        assert rels.rank() == len(report.relations)
        for v in nullspace:
            assert rels.col_join(v.T).rank() == len(report.relations)
