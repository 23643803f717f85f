"""Walk algebra for non-backtracking walks.

A walk is a tuple of vertices; a single vertex ``(v,)`` is the empty walk at
``v``. Non-backtracking means no edge is immediately re-traversed, i.e. the
vertex two steps back never repeats. A closed walk only needs matching
endpoints: its first and last edges are allowed to coincide, because the
start vertex is the one place where turning around is permitted.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import EndpointMismatchError, InvalidWalkError, JunctionBacktrackError
from .graph import Graph

Walk = tuple[int, ...]


def is_closed(w: Walk) -> bool:
    return w[0] == w[-1]


def is_valid_nb_walk(g: Graph, w: Walk) -> bool:
    """Total predicate: vertices in range, edges present, no backtracking."""
    try:
        _edge_usage(g, w)
    except InvalidWalkError:
        return False
    return True


def concat(w1: Walk, w2: Walk) -> Walk:
    """Join two walks at a shared endpoint.

    The junction must not backtrack: the last edge of ``w1`` and the first
    edge of ``w2`` may not be the same edge. Empty walks are identities.
    """
    if w1[-1] != w2[0]:
        raise EndpointMismatchError(
            f"walk ending at {w1[-1]} cannot continue a walk starting at {w2[0]}"
        )
    if len(w1) >= 2 and len(w2) >= 2 and w1[-2] == w2[1]:
        raise JunctionBacktrackError(
            f"junction at {w1[-1]} would immediately return to {w1[-2]}"
        )
    return w1 + w2[1:]


def reverse(w: Walk) -> Walk:
    return w[::-1]


def _edge_ids(g: Graph, w: Walk) -> list[int]:
    """The edge id of each step of the walk, in order.

    Raises InvalidWalkError unless w is a valid non-backtracking walk. Each
    step is one read of the graph's ``{neighbour: edge id}`` map at the
    vertex it leaves: a missing edge fails the read, and so does a step
    straight back along the previous edge. Only the first vertex needs a
    range check, since every later one was found in such a map.
    """
    adjacent = g._adjacent
    ids = []
    back = None
    try:
        if not 0 <= w[0] < len(adjacent):
            raise KeyError(w[0])
        for a, b in zip(w, w[1:]):
            if b == back:
                raise KeyError(b)
            back = a
            ids.append(adjacent[a][b])
    except (KeyError, IndexError):  # IndexError: no vertex at all
        raise InvalidWalkError(f"not a valid non-backtracking walk: {list(w)}") from None
    return ids


def _edge_usage(g: Graph, w: Walk) -> dict[int, int]:
    """How many times the walk uses each edge it uses, as ``{edge id: count}``.

    Raises InvalidWalkError unless w is a valid non-backtracking walk; the
    check and the count take one pass over ``_edge_ids``.
    """
    counts: dict[int, int] = {}
    for e in _edge_ids(g, w):
        counts[e] = counts.get(e, 0) + 1
    return counts


def edge_multiplicities(g: Graph, w: Walk) -> list[int]:
    """How many times the walk uses each edge, indexed by edge id."""
    counts = [0] * g.edge_count
    for e, c in _edge_usage(g, w).items():
        counts[e] = c
    return counts


def walk_weight(g: Graph, w: Walk) -> Fraction:
    """Total weight of the walk: the inner product of usage counts and weights."""
    usage = _edge_usage(g, w)
    if not g.is_weighted:
        raise ValueError("graph has no weights")
    return sum((c * g.weight(e) for e, c in usage.items()), Fraction(0))
