"""Measurement oracle and exhaustive small-instance enumeration.

The Odometer simulates the only instrument the problem allows: it answers
the total weight of a closed non-backtracking walk submitted from its home
vertex, and counts how many measurements were taken. The enumerator walks
every closed non-backtracking walk from a vertex up to an edge-count cap,
pruning steps too far from home to close in time. Such an enumeration
holds each walk's reverse, which uses every edge as often, so its
consumers read one of each pair (``one_per_reversal``) and remember
nothing. The span report, once the span's orthogonal complement is small,
keeps a basis of it: a walk lies in the span iff it is orthogonal to that
basis, an exact integer test. Together they give an independent way to
check what is and is not recoverable on small graphs.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import InvalidWalkError, PreconditionError, RejectedWalkError
from .graph import Graph, bfs_forest
from .solver import _Echelon
from .walks import Walk, _edge_usage


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
    def query_count(self) -> int:
        return self._count

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
    simple graph the shortest closed non-backtracking walk has 3 edges. A
    step to y is not taken when the edges used so far plus y's breadth-first
    distance home exceed the cap: no walk through it can close in time, so
    the walks yielded, and their order, are those of the unpruned search.
    """
    if not 0 <= home < g.vertex_count:
        raise PreconditionError(f"start vertex {home} out of range")
    if max_edges < 3:
        return
    dist: dict[int, int] = {}
    for v, link in bfs_forest(g, (home,)).items():
        dist[v] = 0 if link is None else dist[link[0]] + 1
    walk = [home]
    iters = [iter(g.neighbors(home))]
    while iters:
        for y in iters[-1]:
            # len(walk) is the edge count once y is stepped to
            if len(walk) + dist[y] > max_edges or (len(walk) >= 2 and y == walk[-2]):
                continue
            walk.append(y)
            if y == home and len(walk) >= 4:
                yield tuple(walk)
            iters.append(iter(g.neighbors(y)))
            break
        else:
            iters.pop()
            walk.pop()


def enumerate_closed_nb_walks(g: Graph, home: int, max_edges: int) -> list[Walk]:
    """All closed non-backtracking walks from home up to max_edges edges."""
    return list(iter_closed_nb_walks(g, home, max_edges))


def one_per_reversal(walks: Iterable[Walk]) -> Iterator[Walk]:
    """The walks w of an enumeration with w <= w[::-1], in order.

    The closed non-backtracking walks from home within a cap include each
    one's reverse, which uses every edge as often; a closed non-backtracking
    walk is never its own reverse, so this keeps exactly one of each pair,
    the one the lexicographic enumeration yields first, and holds no memory.
    """
    return (w for w in walks if w <= w[::-1])


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
        x, _ = echelon.back_substitute({f: 1})
        ints = [x.get(e, 0) for e in range(edge_count)]
        shrink = gcd(*ints)
        relations.append(tuple(v // shrink for v in ints))
    return SpanReport(echelon.rank, tuple(relations))


def span_report(g: Graph, walks: Iterable[Walk]) -> SpanReport:
    """Rank and invisible directions for a collection of walks.

    Every walk given is read, as sparse usage counts, so the answer holds for
    any collection; an enumeration is passed through ``one_per_reversal``
    first, which halves the reads and keeps nothing. Once a walk is
    dependent while the |E| - rank relations of ``_report`` hold no more
    entries than the stored rows, those relations are kept as a basis of the
    span's orthogonal complement: a later walk lies in the span exactly when
    its integer dot product with each is zero, and is then skipped.
    Otherwise it is stored, and one elimination step on a relation it breaks
    keeps the rest a basis. Walks are read only until the rank reaches |E|;
    then the report is (|E|, ()) whatever walks follow.
    """
    m = g.edge_count
    echelon = _Echelon()
    stored = 0  # entries in the echelon's rows
    complement: list[Sequence[int]] | None = None
    for w in walks:
        usage = _edge_usage(g, w)
        if complement is None:
            if echelon.add(usage):
                stored += len(next(reversed(echelon.rows.values())))
            elif (m - echelon.rank) * m <= stored:
                complement = list(_report(m, echelon).relations)
        else:
            dots = [sum(c * r[e] for e, c in usage.items()) for r in complement]
            p = next((i for i, d in enumerate(dots) if d), None)
            if p is None:
                continue
            echelon.add(usage)
            pivot, a = complement.pop(p), dots.pop(p)
            for i, d in enumerate(dots):
                if d:
                    k = gcd(a, d)
                    v = [a // k * x - d // k * y for x, y in zip(complement[i], pivot)]
                    k = gcd(*v)
                    complement[i] = [x // k for x in v]
        if echelon.rank == m:
            return SpanReport(m, ())
    return _report(m, echelon)


def revealable_span(g: Graph, home: int, max_edges: int) -> SpanReport:
    """Span of everything measurable from home within an edge-count cap.

    ``span_report`` over one of each reversed pair of the closed
    non-backtracking walks from home with at most max_edges edges,
    enumerated lazily, so memory does not grow with the enumeration and it
    stops as soon as the span fills all |E| directions.
    """
    return span_report(g, one_per_reversal(iter_closed_nb_walks(g, home, max_edges)))
