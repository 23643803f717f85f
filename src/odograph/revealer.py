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
from math import lcm
from typing import Mapping

from .errors import CyclicDependencyError, MissingCertificateError, PreconditionError
from .graph import Graph, bfs_forest, odometric_defect
from .walks import Walk, _edge_ids, concat, is_closed, reverse


@dataclass(frozen=True)
class RevealCertificate:
    """An integer identity proving an edge weight from closed-walk measurements.

    Semantics: with target t, an edge id,

        target_coefficient * weight(t)
            = sum(c * F(walk) for c, walk in terms)
            + sum(d * weight(e) for d, e in edge_terms)

    and the identity holds for every weighting of the graph: the usage
    counts on each side agree edge by edge. Every walk in ``terms`` is a
    closed non-backtracking walk from ``home``. ``edge_terms`` reference
    other edges whose certificates must be substituted in (see ``flatten``)
    before the certificate is directly measurable; ``reveal_all`` never
    emits them.
    """

    target: int
    target_coefficient: int
    home: int
    terms: tuple[tuple[int, Walk], ...]
    edge_terms: tuple[tuple[int, int], ...] = ()


@dataclass(frozen=True)
class DoublingRecord:
    """One instance of the doubling identity, kept for auditing:
    2 F(base) = 2 F(conjugate_once) - F(conjugate_twice)."""

    base: Walk
    cycle: Walk
    conjugate_once: Walk
    conjugate_twice: Walk


@dataclass
class IdentityTrace:
    """Collects every doubling instance a reveal run constructs.

    Every certificate walk of the run is some record's conjugate, so basis
    selection can build the walks' rows from the records' parts.
    """

    doublings: list[DoublingRecord] = field(default_factory=list)


def _term_order(term: tuple[int, Walk]) -> tuple[int, Walk]:
    """Certificate terms are listed shortest walk first, then by vertices."""
    return len(term[1]), term[1]


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
    _edge_ids(g, w_closed)
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
    """A shortest walk from start to every vertex, along ``bfs_forest``."""
    walks: dict[int, Walk] = {}
    for v, link in bfs_forest(g, (start,)).items():
        walks[v] = (v,) if link is None else walks[link[0]] + (v,)
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

    Requires a connected graph of minimum degree 3, and raises the error
    ``graph.odometric_defect`` names otherwise. For each edge {a,b}, with a
    no farther from the start than b, P is the breadth-first walk
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
        raise PreconditionError(f"start vertex {start} out of range")
    defect = odometric_defect(g)
    if defect is not None:
        raise defect
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

    With c*T = sum(k * F(w)) + sum(d * w_e), T is sum((k/c) * F(w)) plus
    sum(d/c) times each referenced edge's own expansion; each edge is
    expanded once and repeated terms add up. The result is scaled by the
    least common denominator, so its coefficients are coprime integers.
    Fails loudly on a missing certificate and on cyclic references. A
    certificate without edge references, such as every one ``reveal_all``
    returns, comes back as it is.
    """
    if not cert.edge_terms:
        return cert
    # Depth first without recursion, so a long chain of references cannot
    # exhaust the stack: a frame is expanded once every edge its certificate
    # cites is, and the edges on the stack are the ones in progress. The
    # expansion of cert itself is kept under None.
    expanded: dict[int | None, dict[Walk, Fraction]] = {}
    in_progress: set[int] = set()
    stack = [(None, cert, iter(cert.edge_terms))]
    while stack:
        e, c, refs = stack[-1]
        for _, f in refs:
            if f in expanded:
                continue
            if f in in_progress:
                raise CyclicDependencyError(f"edge id {f} participates in a reference cycle")
            if f not in store:
                raise MissingCertificateError(f"no certificate for edge id {f}")
            in_progress.add(f)
            stack.append((f, store[f], iter(store[f].edge_terms)))
            break
        else:
            stack.pop()
            in_progress.discard(e)
            combo: dict[Walk, Fraction] = {}
            for k, w in c.terms:
                combo[w] = combo.get(w, 0) + Fraction(k, c.target_coefficient)
            for d, f in c.edge_terms:
                q = Fraction(d, c.target_coefficient)
                for w, p in expanded[f].items():
                    combo[w] = combo.get(w, 0) + q * p
            expanded[e] = {w: q for w, q in combo.items() if q}

    combo = expanded[None]
    scale = lcm(*(q.denominator for q in combo.values()))
    terms = ((q.numerator * (scale // q.denominator), w) for w, q in combo.items())
    return RevealCertificate(cert.target, scale, cert.home, tuple(sorted(terms, key=_term_order)))
