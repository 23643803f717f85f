"""Measurement oracle and exhaustive small-instance enumeration.

The Odometer simulates the only instrument the problem allows: it answers
the total weight of a closed non-backtracking walk submitted from its home
vertex, and counts how many measurements were taken. The enumerator walks
every closed non-backtracking walk from a vertex up to an edge-count cap,
which gives an independent way to check what is and is not recoverable on
small graphs.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterator, NamedTuple, Sequence

from .errors import InvalidWalkError, PreconditionError, RejectedWalkError
from .graph import Graph
from .solver import _Echelon
from .walks import Walk, _edge_usage, edge_multiplicities


class Odometer:
    """Answers walk-weight queries against weights the caller never sees.

    Only closed non-backtracking walks that start and end at the home
    vertex are measurable; anything else is rejected without revealing
    anything about the weights. `query_count` counts successful
    measurements only: rejected trips never left the lot. Weights are held
    as integer numerators over their common denominator, so a reading is
    one integer sum.
    """

    def __init__(self, g: Graph, home: int):
        if not g.is_weighted:
            raise PreconditionError("odometer needs a weighted graph")
        if not 0 <= home < g.vertex_count:
            raise PreconditionError(f"home vertex {home} out of range")
        self._g = g
        self._home = home
        self._count = 0
        self._denom = lcm(*(w.denominator for w in g.weights))
        self._numer = [w.numerator * (self._denom // w.denominator) for w in g.weights]

    @property
    def home(self) -> int:
        return self._home

    @property
    def query_count(self) -> int:
        return self._count

    @property
    def topology(self) -> Graph:
        """The graph with weights stripped; safe to hand to a solver."""
        return self._g.without_weights()

    def measure(self, w: Sequence[int]) -> Fraction:
        walk = tuple(w)
        if len(walk) < 2:
            raise RejectedWalkError("rejected: the trip never leaves the home vertex")
        try:
            usage = _edge_usage(self._g, walk)
        except InvalidWalkError:
            raise RejectedWalkError("rejected: not a non-backtracking walk on this graph") from None
        if walk[0] != self._home or walk[-1] != self._home:
            raise RejectedWalkError(
                f"rejected: walk must start and end at home vertex {self._home}"
            )
        self._count += 1
        return Fraction(sum(c * self._numer[e] for e, c in usage.items()), self._denom)


def iter_closed_nb_walks(g: Graph, home: int, max_edges: int) -> Iterator[Walk]:
    """Yield every closed non-backtracking walk from home, lexicographically.

    Walks use at most max_edges edges. The empty walk is not produced; in a
    simple graph the shortest closed non-backtracking walk has 3 edges.
    """
    if not 0 <= home < g.vertex_count:
        raise PreconditionError(f"vertex {home} out of range")
    if max_edges < 3:
        return
    walk = [home]
    iters = [iter(g.neighbors(home))]
    while iters:
        moved = False
        for y in iters[-1]:
            if len(walk) >= 2 and y == walk[-2]:
                continue
            walk.append(y)
            if y == home and len(walk) >= 4:
                yield tuple(walk)
            if len(walk) - 1 < max_edges:
                iters.append(iter(g.neighbors(y)))
                moved = True
                break
            walk.pop()
        if not moved:
            iters.pop()
            walk.pop()


def enumerate_closed_nb_walks(g: Graph, home: int, max_edges: int) -> list[Walk]:
    """All closed non-backtracking walks from home up to max_edges edges."""
    return list(iter_closed_nb_walks(g, home, max_edges))


class SpanReport(NamedTuple):
    """Rank of the walk matrix plus a basis of the invisible directions.

    Each relation is a primitive integer vector r indexed by edge id with
    r · usage(W) = 0 for every walk considered: shifting the weights along
    r changes no measurable walk weight, so those directions cannot be
    separated. Full rank means no relations.
    """

    rank: int
    relations: tuple[tuple[int, ...], ...]


def _report(edge_count: int, echelon: _Echelon) -> SpanReport:
    """Rank of the echelon's rows and one relation per free column f: the
    primitive integer vector orthogonal to every row that is positive at f
    and zero at every other free column."""
    relations = []
    for f in range(edge_count):
        if f in echelon.rows:
            continue
        x = echelon.back_substitute({f: 1})
        vec = [Fraction(x.get(e, 0)) for e in range(edge_count)]
        scale = lcm(*(v.denominator for v in vec))
        ints = [int(v * scale) for v in vec]
        shrink = gcd(*ints)
        relations.append(tuple(v // shrink for v in ints))
    return SpanReport(echelon.rank, tuple(relations))


def span_report(g: Graph, walks: Sequence[Walk]) -> SpanReport:
    """Rank and invisible directions for an explicit collection of walks."""
    echelon = _Echelon()
    for vec in {tuple(edge_multiplicities(g, w)): None for w in walks}:
        echelon.add(vec)
    return _report(g.edge_count, echelon)


def revealable_span(
    g: Graph, home: int, max_edges: int, *, stop_at_full_rank: bool = True
) -> SpanReport:
    """Span of everything measurable from home within an edge-count cap.

    Enumerates closed non-backtracking walks from home up to max_edges
    edges and reports the rank of their usage matrix together with the
    directions no walk can see. With stop_at_full_rank the enumeration
    aborts as soon as the span provably fills all |E| directions; the
    reported rank is the same either way, since rank never decreases as
    walks are added.
    """
    m = g.edge_count
    echelon = _Echelon()
    seen: set[tuple[int, ...]] = set()
    for w in iter_closed_nb_walks(g, home, max_edges):
        vec = tuple(edge_multiplicities(g, w))
        if vec in seen:
            continue
        seen.add(vec)
        if echelon.rank < m:
            echelon.add(vec)
        if stop_at_full_rank and echelon.rank == m:
            return SpanReport(m, ())
    return _report(m, echelon)
