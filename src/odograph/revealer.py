"""Constructive reveal certificates.

A quantity (an edge weight or the weight of an open walk) is *revealed* from
a start vertex when some integer combination of closed non-backtracking walk
weights equals an integer multiple of it. Everything here manufactures such
combinations explicitly, so the output is a checkable certificate rather
than a bare number.

The constructions rest on one local fact. Let a walk W from the start end at
v, arriving from x. When every vertex has degree at least 3, v sits on a
closed non-backtracking walk C (a "detour cycle") whose first and last arcs
avoid x and differ from each other: the non-backtracking arc graph
(Hashimoto's edge operator) is strongly connected on such graphs, so a
breadth-first search in the graph itself finds C. Then W.C.rev(W) and
W.C.C.rev(W) never backtrack, and

    2 F(W) = 2 F(W.C.rev(W)) - F(W.C.C.rev(W))

because the detour contributes F(C) once on the left conjugate and twice on
the right. Every edge {a,b} with a no farther from the start than b is then
the difference of two revealed open walks, w_ab = F(P.b) - F(P), where P is
a shortest walk from the start to a. Certificates are built this way
directly from the start, so each one is a pure combination of closed walks.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping

from .errors import (
    CyclicDependencyError,
    MissingCertificateError,
    NotOdometricError,
    PreconditionError,
)
from .graph import Graph, is_connected, low_degree_vertices
from .walks import Walk, concat, edge_multiplicities, is_closed, require_valid_walk, reverse


@dataclass(frozen=True)
class RevealCertificate:
    """An integer identity proving a weight from closed-walk measurements.

    Semantics: with target T (an edge id, meaning its weight, or a walk,
    meaning its total weight),

        target_coefficient * value(T)
            = sum(c * F(walk) for c, walk in terms)
            + sum(d * weight(e) for d, e in edge_terms)

    and the identity holds for every weighting of the graph: the usage
    counts on each side agree edge by edge. Every walk in ``terms`` is a
    closed non-backtracking walk from ``home``. ``edge_terms`` reference
    other edges whose certificates must be substituted in (see ``flatten``)
    before the certificate is directly measurable; ``reveal_all`` never
    emits them.
    """

    target: int | Walk
    target_coefficient: int
    home: int
    terms: tuple[tuple[int, Walk], ...]
    edge_terms: tuple[tuple[int, int], ...] = ()

    @property
    def is_edge_target(self) -> bool:
        return isinstance(self.target, int)

    def target_multiplicities(self, g: Graph) -> list[int]:
        if isinstance(self.target, int):
            vec = [0] * g.edge_count
            vec[self.target] = 1
            return vec
        return edge_multiplicities(g, self.target)


@dataclass(frozen=True)
class DoublingRecord:
    """One instance of the doubling identity, kept for auditing."""

    base: Walk
    cycle: Walk
    conjugate_once: Walk
    conjugate_twice: Walk


@dataclass
class IdentityTrace:
    """Collects every doubling instance a reveal run constructs."""

    doublings: list[DoublingRecord] = field(default_factory=list)


# --- linear forms over closed-walk weights, for flatten ---------------------


class _Form:
    """denom * value == sum(walks[w] * F(w)) + sum(edges[e] * w_e).

    Coefficients are integers, denom is a positive integer, and the whole
    thing is kept gcd-reduced. ``flatten`` substitutes edge references in
    this representation; certificates are its frozen rendering.
    """

    __slots__ = ("denom", "walks", "edges")

    def __init__(self, denom: int, walks: dict[Walk, int], edges: dict[int, int]):
        self.denom = denom
        self.walks = walks
        self.edges = edges


def _atom(walk: Walk) -> _Form:
    return _Form(1, {walk: 1}, {})


def _combine(parts: Iterable[tuple[Fraction | int, _Form]]) -> _Form:
    walk_acc: dict[Walk, Fraction] = {}
    edge_acc: dict[int, Fraction] = {}
    for q, form in parts:
        scale = Fraction(q, form.denom)
        if not scale:
            continue
        for w, a in form.walks.items():
            walk_acc[w] = walk_acc.get(w, Fraction(0)) + a * scale
        for e, b in form.edges.items():
            edge_acc[e] = edge_acc.get(e, Fraction(0)) + b * scale
    walk_acc = {w: c for w, c in walk_acc.items() if c}
    edge_acc = {e: c for e, c in edge_acc.items() if c}
    denom = 1
    for c in walk_acc.values():
        denom = lcm(denom, c.denominator)
    for c in edge_acc.values():
        denom = lcm(denom, c.denominator)
    walks = {w: int(c * denom) for w, c in walk_acc.items()}
    edges = {e: int(c * denom) for e, c in edge_acc.items()}
    shrink = denom
    for v in walks.values():
        shrink = gcd(shrink, v)
    for v in edges.values():
        shrink = gcd(shrink, v)
    if shrink > 1:
        denom //= shrink
        walks = {w: v // shrink for w, v in walks.items()}
        edges = {e: v // shrink for e, v in edges.items()}
    return _Form(denom, walks, edges)


def _form_of(cert: RevealCertificate) -> _Form:
    return _Form(
        cert.target_coefficient,
        {w: c for c, w in cert.terms},
        {e: d for d, e in cert.edge_terms},
    )


def _term_order(term: tuple[int, Walk]) -> tuple[int, Walk]:
    """Certificate terms are listed shortest walk first, then by vertices."""
    return len(term[1]), term[1]


def _freeze(target: int | Walk, home: int, form: _Form) -> RevealCertificate:
    terms = tuple(sorted(((c, w) for w, c in form.walks.items()), key=_term_order))
    edge_terms = tuple((d, e) for e, d in sorted(form.edges.items()))
    return RevealCertificate(
        target=target,
        target_coefficient=form.denom,
        home=home,
        terms=terms,
        edge_terms=edge_terms,
    )


# --- moving a closed walk to a neighboring home -----------------------------


def transfer_neighbor_walk(
    g: Graph, home: int, u: int, f: int, w_closed: Walk
) -> tuple[Walk, int]:
    """Turn a closed walk at u into one at its neighbor home across edge f.

    Returns (walk, epsilon) with F(new) = F(old) + epsilon * weight(f) and
    epsilon in {-2, 0, +2}: wrap with f on both sides when home is not
    adjacent to the walk's ends, rotate when exactly one end touches home
    (the edge multiset is preserved), strip both end edges when both do.
    """
    a, b = g.endpoints(f)
    if {a, b} != {home, u}:
        raise PreconditionError(f"edge id {f} does not join {home} and {u}")
    require_valid_walk(g, w_closed)
    if not is_closed(w_closed) or w_closed[0] != u or len(w_closed) < 2:
        raise PreconditionError(f"need a nonempty closed walk at {u}")
    first_is_home = w_closed[1] == home
    last_is_home = w_closed[-2] == home
    if not first_is_home and not last_is_home:
        return (home,) + w_closed + (home,), 2
    if first_is_home and last_is_home:
        return w_closed[1:-1], -2
    if not first_is_home:
        w_closed = reverse(w_closed)
    return w_closed[1:] + (home,), 0


# --- the full graph ----------------------------------------------------------


def _shortest_walks(g: Graph, start: int) -> dict[int, Walk]:
    """A shortest walk from start to every vertex, by BFS in neighbor order."""
    walks: dict[int, Walk] = {start: (start,)}
    queue = deque([start])
    while queue:
        v = queue.popleft()
        for u in g.neighbors(v):
            if u not in walks:
                walks[u] = walks[v] + (u,)
                queue.append(u)
    return walks


def _detour_cycle(g: Graph, x: int, v: int) -> Walk:
    """Closed non-backtracking walk at v whose first and last arcs differ
    and avoid x, for a vertex v of degree at least 3 with neighbor x.

    For each neighbor y other than x, ascending, a breadth-first search in
    the graph without v runs from y to the first neighbor z of v outside
    {x, y}, closing v.y...z.v. That fails for every y only when v separates
    all its other neighbors from each other; then a breadth-first search
    over non-backtracking arcs from v->y reaches an arc z->v with z outside
    {x, y}, because that arc graph is strongly connected.
    """
    others = [y for y in g.neighbors(v) if y != x]
    for y in others:
        targets = set(others) - {y}
        prev = {y: y, v: v}  # v counts as seen, so the search runs in G - v
        queue = deque([y])
        while queue:
            a = queue.popleft()
            for b in g.neighbors(a):
                if b in prev:
                    continue
                prev[b] = a
                if b in targets:
                    path = [v, b]
                    while b != y:
                        b = prev[b]
                        path.append(b)
                    path.append(v)
                    return tuple(reversed(path))
                queue.append(b)
    first = (v, others[0])
    came_from = {first: first}
    queue = deque([first])
    while queue:
        arc = queue.popleft()
        a, b = arc
        for c in g.neighbors(b):
            nxt = (b, c)
            if c == a or nxt in came_from:
                continue
            came_from[nxt] = arc
            if c == v and b != x and b != first[1]:
                heads = [v]
                while nxt != first:
                    nxt = came_from[nxt]
                    heads.append(nxt[1])
                heads.append(v)
                return tuple(reversed(heads))
            queue.append(nxt)
    raise PreconditionError(f"no detour cycle at {v} avoiding {x}; is the minimum degree 3?")


def reveal_all(
    g: Graph, start: int, trace: IdentityTrace | None = None
) -> dict[int, RevealCertificate]:
    """Reveal every edge of the graph from one start vertex.

    Requires a connected graph of minimum degree 3. For each edge {a,b},
    with a no farther from the start than b, P is the breadth-first walk
    from the start to a; P.b never backtracks, because a's predecessor on P
    is strictly closer than b. The certificate is w_ab = F(P.b) - F(P),
    with F of the empty walk 0 and each open walk W revealed once by the
    doubling identity around a detour cycle C at its far end:

        2 w_ab = 2 F(once(P.b)) - F(twice(P.b)) - 2 F(once(P)) + F(twice(P))

    with once(W) = W.C.rev(W) and twice(W) = W.C.C.rev(W). So every
    certificate has target coefficient 2, no edge references, and at most
    four closed non-backtracking walks from start. The four are distinct,
    because a detour cycle's first and last arcs differ, so no two terms
    ever combine.
    """
    if not (0 <= start < g.vertex_count):
        raise PreconditionError(f"start vertex {start} is out of range")
    low = low_degree_vertices(g)
    if low:
        raise NotOdometricError(
            f"vertex {low[0]} has degree {g.degree(low[0])} < 3", vertex=low[0]
        )
    if not is_connected(g):
        raise NotOdometricError("graph is disconnected")
    paths = _shortest_walks(g, start)
    conjugates: dict[Walk, tuple[Walk, Walk]] = {}

    def conjugate(w: Walk) -> tuple[Walk, Walk]:
        if w not in conjugates:
            cycle = _detour_cycle(g, w[-2], w[-1])
            once = concat(concat(w, cycle), reverse(w))
            twice = concat(concat(concat(w, cycle), cycle), reverse(w))
            if trace is not None:
                trace.doublings.append(DoublingRecord(w, cycle, once, twice))
            conjugates[w] = (once, twice)
        return conjugates[w]

    certs: dict[int, RevealCertificate] = {}
    for e, (a, b) in enumerate(g.edges):
        if len(paths[b]) < len(paths[a]):
            a, b = b, a
        once, twice = conjugate(paths[a] + (b,))
        terms = [(2, once), (-1, twice)]
        if a != start:
            once, twice = conjugate(paths[a])
            terms += [(-2, once), (1, twice)]
        certs[e] = RevealCertificate(e, 2, start, tuple(sorted(terms, key=_term_order)))
    return certs


# --- substitution of edge references ----------------------------------------


def flatten(
    cert: RevealCertificate, store: Mapping[int, RevealCertificate]
) -> RevealCertificate:
    """Substitute away edge references using certificates from the store.

    Scales by the referenced certificates' coefficients (via lcm) so all
    coefficients stay integral. Fails loudly on a missing certificate and
    on cyclic references. A certificate without edge references, such as
    every one ``reveal_all`` returns, comes back unchanged.
    """
    resolved: dict[int, _Form] = {}
    in_progress: set[int] = set()

    def resolve(edge: int) -> _Form:
        if edge in resolved:
            return resolved[edge]
        if edge in in_progress:
            raise CyclicDependencyError(f"edge id {edge} participates in a reference cycle")
        if edge not in store:
            raise MissingCertificateError(f"no certificate for edge id {edge}")
        in_progress.add(edge)
        form = _substitute(_form_of(store[edge]))
        in_progress.discard(edge)
        resolved[edge] = form
        return form

    def _substitute(form: _Form) -> _Form:
        if not form.edges:
            return form
        parts: list[tuple[Fraction, _Form]] = [
            (Fraction(c, form.denom), _atom(w)) for w, c in form.walks.items()
        ]
        for e, d in form.edges.items():
            parts.append((Fraction(d, form.denom), resolve(e)))
        return _combine(parts)

    flat = _substitute(_form_of(cert))
    return _freeze(cert.target, cert.home, flat)
