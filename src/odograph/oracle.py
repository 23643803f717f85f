"""Measurement oracle and exhaustive small-instance enumeration.

The Odometer simulates the only instrument the problem allows: it answers
the total weight of a closed non-backtracking walk submitted from its home
vertex, and counts how many measurements were taken. One depth-first search
walks every closed non-backtracking walk from a vertex up to an edge-count
cap, pruning steps too far from home to close in time, and knows the edge
id of each step it takes. Such an enumeration holds each walk's reverse,
which uses every edge as often, so its consumers read one of each pair
(``one_per_reversal``) and remember nothing. The span core reads walks as
edge ids; once the span's orthogonal complement is small, it keeps only a
basis of it, tests each walk by its dot product with every relation, one
sum over its steps each, and reads the report off that basis. The number
of walks within a cap is also counted without enumerating them, by a
non-backtracking transfer count that stops once the count is too long to
print. Together they give an independent way to check what is and is not
recoverable on small graphs.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import gcd, inf, lcm
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import InvalidWalkError, PreconditionError, RejectedWalkError
from .graph import Graph, bfs_forest
from .solver import _Echelon
from .walks import Walk, _edge_ids


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
            ids = _edge_ids(self._g, walk)
        except InvalidWalkError:
            raise RejectedWalkError("rejected: not a non-backtracking walk on this graph") from None
        if walk[0] != self._home or walk[-1] != self._home:
            raise RejectedWalkError(
                f"rejected: walk must start and end at home vertex {self._home}"
            )
        self._count += 1
        return Fraction(sum(map(self._numer.__getitem__, ids)), self._denom)


def _closed_walks(g: Graph, home: int, max_edges: int) -> Iterator[tuple[list[int], list[int]]]:
    """The depth-first search behind ``iter_closed_nb_walks``.

    Yields each closed non-backtracking walk from home as its vertices and
    the edge ids of its steps, both read from ``g.incident`` as it steps.
    The two lists are the search's own: they change once it resumes, so a
    consumer copies what it keeps.
    """
    if not 0 <= home < g.vertex_count:
        raise PreconditionError(f"start vertex {home} out of range")
    if max_edges < 3:
        return
    dist: dict[int, int] = {}
    for v, link in bfs_forest(g, (home,)).items():
        dist[v] = 0 if link is None else dist[link[0]] + 1
    walk = [home]
    ids: list[int] = []
    iters = [iter(g.incident(home))]
    while iters:
        for y, e in iters[-1]:
            # len(walk) is the edge count once y is stepped to
            if len(walk) + dist[y] > max_edges or (ids and e == ids[-1]):
                continue
            walk.append(y)
            ids.append(e)
            if y == home and len(walk) >= 4:
                yield walk, ids
            iters.append(iter(g.incident(y)))
            break
        else:
            iters.pop()
            walk.pop()
            if ids:
                ids.pop()


def iter_closed_nb_walks(g: Graph, home: int, max_edges: int) -> Iterator[Walk]:
    """Yield every closed non-backtracking walk from home, lexicographically.

    Walks use at most max_edges edges. The empty walk is not produced; in a
    simple graph the shortest closed non-backtracking walk has 3 edges. A
    step to y is not taken when the edges used so far plus y's breadth-first
    distance home exceed the cap: no walk through it can close in time, so
    the walks yielded, and their order, are those of the unpruned search.
    The search (``_closed_walks``) also knows each step's edge id, which
    ``revealable_span`` reads instead of looking the walk up again; the
    walks are counted without either, by ``_count_closed_nb_walks``.
    """
    return (tuple(walk) for walk, _ in _closed_walks(g, home, max_edges))


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


def _span(m: int, walks: Iterable[Sequence[int]]) -> SpanReport:
    """The span report over walks given as the edge ids of their steps.

    Each walk is eliminated as sparse usage counts until one is dependent
    while the m - rank relations of ``_report`` hold no more entries than
    the stored rows. From then on those relations, a basis of the span's
    orthogonal complement, are all that is kept: a walk with a zero dot
    product with each is skipped, and one that breaks a relation removes
    the first it breaks, after eliminating it from the rest. They stay the
    relations ``_report`` derives from a plain greedy elimination, so the
    report is read off them. Walks are read only until the rank reaches m;
    then the report is (m, ()) whatever walks follow.
    """
    echelon = _Echelon()
    stored = 0  # entries in the echelon's rows
    stream = iter(walks)
    for ids in stream:
        usage: dict[int, int] = {}
        for e in ids:
            usage[e] = usage.get(e, 0) + 1
        if echelon.add(usage):
            stored += len(next(reversed(echelon.rows.values())))
            if echelon.rank == m:
                return SpanReport(m, ())
        elif (m - echelon.rank) * m <= stored:
            break
    else:
        return _report(m, echelon)
    complement = list(_report(m, echelon).relations)
    for ids in stream:
        dots = [sum(map(r.__getitem__, ids)) for r in complement]
        p = next((i for i, d in enumerate(dots) if d), None)
        if p is None:
            continue
        pivot, a = complement.pop(p), dots.pop(p)
        if a < 0:
            pivot, a = [-x for x in pivot], -a
        for i, d in enumerate(dots):
            if d:
                k = gcd(a, d)
                v = [a // k * x - d // k * y for x, y in zip(complement[i], pivot)]
                k = gcd(*v)
                complement[i] = [x // k for x in v]
        if not complement:
            return SpanReport(m, ())
    return SpanReport(m - len(complement), tuple(map(tuple, complement)))


def span_report(g: Graph, walks: Iterable[Walk]) -> SpanReport:
    """Rank and invisible directions for a collection of walks.

    Every walk given is read and validated once, as the edge ids of its
    steps, so the answer holds for any collection; an enumeration is passed
    through ``one_per_reversal`` first, which reads half the walks and
    keeps nothing. ``_span`` eliminates them until the span's orthogonal
    complement is small, then keeps only that complement and tests each
    walk against it; it stops reading at full rank.
    """
    return _span(g.edge_count, (_edge_ids(g, w) for w in walks))


def revealable_span(g: Graph, home: int, max_edges: int) -> SpanReport:
    """Span of everything measurable from home within an edge-count cap.

    The span of the closed non-backtracking walks from home with at most
    max_edges edges, read as one of each reversed pair straight from the
    search's edge ids; nothing is kept, so memory does not grow with the
    enumeration, and the search stops as soon as the span fills all |E|
    directions. Above the default cap 2|E| + 3 the search runs at that cap
    first, then at double it, and so on up to max_edges: the walks within
    a cap are among those within a larger one, so the span is the same, but
    a span that fills early is not read off walks winding up to a large cap.
    """
    caps = [min(max_edges, 2 * g.edge_count + 3)]
    while caps[-1] < max_edges:
        caps.append(min(2 * caps[-1], max_edges))
    one_each = (ids for cap in caps for walk, ids in _closed_walks(g, home, cap) if walk <= walk[::-1])
    return _span(g.edge_count, one_each)


def _count_closed_nb_walks(g: Graph, home: int, max_edges: int) -> int:
    """How many closed non-backtracking walks from home have at most
    max_edges edges: ``len(enumerate_closed_nb_walks(...))`` without the
    enumeration.

    A non-backtracking transfer count in exact integers, one length at a
    time, in O(max_edges * |E|): ends[b] is the number of non-backtracking
    walks from home of the current length whose last step is arc b. Arc 2e
    runs along edge e from its lower endpoint, arc 2e + 1 back. A walk
    ending on arc b goes on along every arc from b's head except b ^ 1, and
    every walk arriving home is closed; none of fewer than 3 edges does.
    The count is exact while it is printable under the int-string digit
    limit (``sys.get_int_max_str_digits``); once it reaches 10**limit the
    loop stops, so a larger count is only known to exceed the limit.
    """
    limit = sys.get_int_max_str_digits()
    unprintable = 10**limit if limit else inf
    tails = [v for edge in g.edges for v in edge]
    heads = [v for lo, hi in g.edges for v in (hi, lo)]
    ends = [int(t == home) for t in tails]
    total = 0
    for _ in range(max_edges):
        arriving = [0] * g.vertex_count
        for h, c in zip(heads, ends):
            arriving[h] += c
        total += arriving[home]
        if total >= unprintable:
            break
        ends = [arriving[t] - ends[b ^ 1] for b, t in enumerate(tails)]
    return total
