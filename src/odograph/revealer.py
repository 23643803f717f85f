"""Constructive reveal certificates.

A quantity (an edge weight or the weight of an open walk) is *revealed* from
a start vertex when some integer combination of closed non-backtracking walk
weights equals an integer multiple of it. Everything here manufactures such
combinations explicitly, so the output is a checkable certificate rather
than a bare number.

The constructions lean on two facts used over and over:

* In a 2-connected block, every vertex u sits on a short closed walk (a
  "detour cycle") whose first and last edges differ, so the cycle can be
  traversed twice in a row without backtracking.
* Two distinct blocks meeting at a cut vertex u share no other vertex, so a
  walk entering u inside one block and leaving inside another can never
  backtrack at u. Junctions across blocks are therefore always safe.

The central identity: for a walk W from the start to u and a detour cycle C
at u whose junctions with W are safe,

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

from .decomposition import (
    BlockCutTree,
    _escape_toward_leaf,
    block_cut_tree,
    leafward_escape,
    path_in_block_avoiding,
)
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


# --- linear forms over closed-walk weights -------------------------------


class _Form:
    """denom * value == sum(walks[w] * F(w)) + sum(edges[e] * w_e).

    Coefficients are integers, denom is a positive integer, and the whole
    thing is kept gcd-reduced. This is the working representation while
    identities are being combined; certificates are its frozen rendering.
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


def _freeze(target: int | Walk, home: int, form: _Form) -> RevealCertificate:
    terms = tuple(
        (c, w) for w, c in sorted(form.walks.items(), key=lambda kv: (len(kv[0]), kv[0]))
    )
    edge_terms = tuple((d, e) for e, d in sorted(form.edges.items()))
    return RevealCertificate(
        target=target,
        target_coefficient=form.denom,
        home=home,
        terms=terms,
        edge_terms=edge_terms,
    )


# --- elementary constructions ----------------------------------------------


def detour_cycle(
    g: Graph,
    bct: BlockCutTree,
    u: int,
    block: int,
    exclude_neighbor: int | None = None,
) -> tuple[Walk, int, int]:
    """Closed walk at u inside a 2-connected block with distinct end edges.

    Uses the two smallest block-neighbors of u (optionally skipping one
    excluded neighbor) joined by a path that avoids u. Because the first and
    last edges differ, the cycle may be traversed twice in succession.
    Returns (cycle, first edge id, last edge id).
    """
    blk = bct.blocks[block]
    if blk.is_bridge:
        raise PreconditionError("detour cycles live in 2-connected blocks")
    if u not in blk.vertices:
        raise PreconditionError(f"vertex {u} is not in block {block}")
    nbrs = [
        v
        for v, eid in g.incident(u)
        if bct.block_of_edge[eid] == block and v != exclude_neighbor
    ]
    if len(nbrs) < 2:
        raise PreconditionError(f"vertex {u} has too few usable neighbors in block {block}")
    x, y = nbrs[0], nbrs[1]
    path = path_in_block_avoiding(g, bct, block, x, y, u)
    cycle = concat(concat((u, x), path), (y, u))
    return cycle, g.edge_id(u, x), g.edge_id(y, u)


def _doubling_forms(
    w: Walk, cycle: Walk, trace: IdentityTrace | None
) -> tuple[_Form, _Form]:
    """Forms for F(w) and F(cycle) from the two conjugates of w around cycle."""
    once = concat(concat(w, cycle), reverse(w))
    twice = concat(concat(concat(w, cycle), cycle), reverse(w))
    if trace is not None:
        trace.doublings.append(DoublingRecord(w, cycle, once, twice))
    form_w = _combine([(1, _atom(once)), (Fraction(-1, 2), _atom(twice))])
    form_c = _combine([(1, _atom(twice)), (-1, _atom(once))])
    return form_w, form_c


# --- revealing open walks to cut vertices -----------------------------------


def reveal_walk_to_cut(
    g: Graph,
    bct: BlockCutTree,
    home: int,
    w: Walk,
    u: int,
    block: int,
    trace: IdentityTrace | None = None,
) -> RevealCertificate:
    """Reveal an open walk from home to u, a cut vertex of a 2-connected block.

    If the walk arrives on an edge outside the block, a detour cycle at u
    inside the block conjugates safely and the doubling identity applies
    directly. Otherwise the walk first escapes leafward to another block
    where the direct case applies, and the escape is priced separately.
    """
    require_valid_walk(g, w)
    if len(w) < 2:
        raise PreconditionError("reveal_walk_to_cut needs a walk with at least one edge")
    if w[0] != home or w[-1] != u:
        raise PreconditionError(f"walk must run from {home} to {u}")
    blk = bct.blocks[block]
    if blk.is_bridge or u not in blk.vertices or not bct.is_cut_vertex(u):
        raise PreconditionError(f"vertex {u} must be a cut vertex of 2-connected block {block}")
    form = _reveal_walk_form(g, bct, w, u, block, trace)
    return _freeze(w, home, form)


def _reveal_walk_form(
    g: Graph, bct: BlockCutTree, w: Walk, u: int, block: int, trace: IdentityTrace | None
) -> _Form:
    last_edge = g.edge_id(w[-2], w[-1])
    if bct.block_of_edge[last_edge] != block:
        cycle, _, _ = detour_cycle(g, bct, u, block)
        form_w, _ = _doubling_forms(w, cycle, trace)
        return form_w
    # arrival edge inside the block: go around through a neighboring block
    esc, u2, b2 = leafward_escape(g, bct, u, block)
    c2, _, _ = detour_cycle(g, bct, u2, b2)
    ww = concat(w, esc)
    form_ww, form_c2 = _doubling_forms(ww, c2, trace)
    detoured = concat(concat(ww, c2), reverse(esc))
    cycle, _, _ = detour_cycle(g, bct, u, block)
    form_detoured, _ = _doubling_forms(detoured, cycle, trace)
    # F(esc) = F(detoured) - F(ww) - F(c2) and F(w) = F(ww) - F(esc)
    return _combine([(2, form_ww), (1, form_c2), (-1, form_detoured)])


def reveal_walk_to_any_cut(
    g: Graph,
    bct: BlockCutTree,
    home: int,
    w: Walk,
    u: int,
    trace: IdentityTrace | None = None,
) -> RevealCertificate:
    """Reveal an open walk from home to any cut vertex u.

    When u touches a 2-connected block this defers to reveal_walk_to_cut.
    Otherwise every edge at u is a bridge; a closed detour through two
    different bridge-side components of u is stitched together from escape
    walks, and the doubling identity applies to it. Requires minimum
    degree 3 so u has two neighbors besides the walk's arrival vertex.
    """
    require_valid_walk(g, w)
    if len(w) < 2:
        raise PreconditionError("reveal_walk_to_any_cut needs a walk with at least one edge")
    if w[0] != home or w[-1] != u:
        raise PreconditionError(f"walk must run from {home} to {u}")
    if not bct.is_cut_vertex(u):
        raise PreconditionError(f"vertex {u} is not a cut vertex")
    two_conn = bct.two_connected_blocks_at(u)
    if two_conn:
        return reveal_walk_to_cut(g, bct, home, w, u, two_conn[0], trace)
    arrived_from = w[-2]
    others = [v for v in g.neighbors(u) if v != arrived_from]
    if len(others) < 2:
        raise PreconditionError(f"vertex {u} needs degree at least 3")
    x, y = others[0], others[1]
    cycle = concat(
        concat(concat((u, x), _bridge_side_loop(g, bct, u, x)), (x, u, y)),
        concat(_bridge_side_loop(g, bct, u, y), (y, u)),
    )
    form_w, _ = _doubling_forms(w, cycle, trace)
    return _freeze(w, home, form_w)


def _bridge_side_loop(g: Graph, bct: BlockCutTree, u: int, x: int) -> Walk:
    """Closed walk from x that never crosses the bridge {u,x}.

    x has degree >= 3 and its edge to u is a bridge, so x is itself a cut
    vertex; escape from the bridge block toward a leaf block and run its
    detour cycle there.
    """
    bridge_block = bct.block_of_edge[g.edge_id(u, x)]
    esc, u2, b2 = _escape_toward_leaf(g, bct, x, bridge_block)
    c2, _, _ = detour_cycle(g, bct, u2, b2)
    return concat(concat(esc, c2), reverse(esc))


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


def _reveal_open_walk(
    g: Graph, bct: BlockCutTree, w: Walk, trace: IdentityTrace | None
) -> _Form:
    """Form for F(w), an open walk from the start with at least one edge.

    Doubles around a detour cycle at the far end that avoids the arrival
    vertex, inside the first 2-connected block that leaves the end vertex
    two other neighbors. That fails only at a cut vertex, where the
    leafward escape of ``reveal_walk_to_any_cut`` takes over.
    """
    v, x = w[-1], w[-2]
    for block in bct.two_connected_blocks_at(v):
        others = sum(1 for y, eid in g.incident(v) if bct.block_of_edge[eid] == block and y != x)
        if others >= 2:
            cycle, _, _ = detour_cycle(g, bct, v, block, exclude_neighbor=x)
            return _doubling_forms(w, cycle, trace)[0]
    return _form_of(reveal_walk_to_any_cut(g, bct, w[0], w, v, trace))


def reveal_all(
    g: Graph, start: int, trace: IdentityTrace | None = None
) -> dict[int, RevealCertificate]:
    """Reveal every edge of the graph from one start vertex.

    Requires a connected graph of minimum degree 3. For each edge {a,b},
    with a no farther from the start than b, P is the breadth-first walk
    from the start to a; P.b never backtracks, because a's predecessor on P
    is strictly closer than b. The certificate is w_ab = F(P.b) - F(P),
    with F of the empty walk 0 and each open walk revealed once by the
    doubling identity, so every certificate has target coefficient 2, no
    edge references, and only closed non-backtracking walks from start.
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
    bct = block_cut_tree(g)
    paths = _shortest_walks(g, start)
    revealed: dict[Walk, _Form] = {}

    def reveal(w: Walk) -> _Form:
        if w not in revealed:
            revealed[w] = _reveal_open_walk(g, bct, w, trace)
        return revealed[w]

    certs: dict[int, RevealCertificate] = {}
    for e, (a, b) in enumerate(g.edges):
        if len(paths[b]) < len(paths[a]):
            a, b = b, a
        parts = [(1, reveal(paths[a] + (b,)))]
        if a != start:
            parts.append((-1, reveal(paths[a])))
        certs[e] = _freeze(e, start, _combine(parts))
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
