"""Simple undirected graphs with exact rational edge weights.

Vertices are the integers ``0..n-1``. Edges are unordered pairs with stable
integer ids assigned by input order; every multiplicity vector and matrix row
elsewhere in the library is indexed by these ids. Weights, when present, are
:class:`fractions.Fraction` values so downstream identities stay bit-exact.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import NotOdometricError

def _as_rational(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        raise ValueError("floating point weights are not accepted; use a rational")
    return Fraction(value)


class Graph:
    """Immutable simple graph, optionally weighted.

    ``weights=None`` builds a bare topology, which is what the weight
    recovery solver is allowed to see. Construction rejects self-loops,
    duplicate edges, and out-of-range endpoints.
    """

    __slots__ = ("_n", "_edges", "_weights", "_adjacent", "_incident", "_neighbors")

    def __init__(
        self,
        vertex_count: int,
        edges: Iterable[tuple[int, int]],
        weights: Sequence | None = None,
    ):
        if vertex_count < 0:
            raise ValueError("vertex_count must be nonnegative")
        self._n = int(vertex_count)
        normalized: list[tuple[int, int]] = []
        # per vertex {neighbour: edge id}; walks read their steps from these
        adjacent: list[dict[int, int]] = [{} for _ in range(self._n)]
        for u, v in edges:
            if not (0 <= u < self._n and 0 <= v < self._n):
                raise ValueError(f"edge ({u},{v}) has an endpoint outside 0..{self._n - 1}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u} is not allowed")
            key = (u, v) if u < v else (v, u)
            if v in adjacent[u]:
                raise ValueError(f"duplicate edge {{{key[0]},{key[1]}}}")
            adjacent[u][v] = adjacent[v][u] = len(normalized)
            normalized.append(key)
        self._edges = tuple(normalized)
        self._adjacent = tuple(adjacent)
        self._incident = tuple(tuple(sorted(pairs.items())) for pairs in adjacent)
        self._neighbors = tuple(tuple(u for u, _ in pairs) for pairs in self._incident)
        if weights is None:
            self._weights = None
        else:
            ws = tuple(_as_rational(w) for w in weights)
            if len(ws) != len(self._edges):
                raise ValueError(
                    f"got {len(ws)} weights for {len(self._edges)} edges"
                )
            self._weights = ws

    @property
    def vertex_count(self) -> int:
        return self._n

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        return self._edges

    @property
    def edge_count(self) -> int:
        return len(self._edges)

    @property
    def weights(self) -> tuple[Fraction, ...] | None:
        return self._weights

    @property
    def is_weighted(self) -> bool:
        return self._weights is not None

    def edge_id(self, u: int, v: int) -> int:
        if 0 <= u < self._n and v in self._adjacent[u]:
            return self._adjacent[u][v]
        key = (u, v) if u < v else (v, u)
        raise KeyError(f"no edge {{{key[0]},{key[1]}}}")

    def endpoints(self, edge_id: int) -> tuple[int, int]:
        return self._edges[edge_id]

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self._neighbors[v]

    def incident(self, v: int) -> tuple[tuple[int, int], ...]:
        """(neighbor, edge id) pairs in ascending neighbor order."""
        return self._incident[v]

    def degree(self, v: int) -> int:
        return len(self._incident[v])

    def weight(self, edge_id: int) -> Fraction:
        if self._weights is None:
            raise ValueError("graph has no weights")
        return self._weights[edge_id]

    def without_weights(self) -> "Graph":
        # the tables are never mutated after construction, so they are shared
        bare = object.__new__(Graph)
        bare._n, bare._edges, bare._adjacent = self._n, self._edges, self._adjacent
        bare._incident, bare._neighbors = self._incident, self._neighbors
        bare._weights = None
        return bare

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tag = "weighted" if self.is_weighted else "topology"
        return f"Graph({self._n} vertices, {len(self._edges)} edges, {tag})"


def bfs_forest(g: Graph, roots: Iterable[int]) -> dict[int, tuple[int, int] | None]:
    """A breadth-first forest grown from each root, in the given order, that
    no earlier tree reached.

    Maps every reached vertex, in order of discovery, to its (tree parent,
    edge id), or to None for a root. Neighbours are visited ascending, so a
    vertex's tree path from its root is a shortest walk to it, and every
    caller that grows a tree from the same roots gets the same one.
    """
    tree: dict[int, tuple[int, int] | None] = {}
    for r in roots:
        if r in tree:
            continue
        tree[r] = None
        queue = deque([r])
        while queue:
            v = queue.popleft()
            for u, e in g.incident(v):
                if u not in tree:
                    tree[u] = (v, e)
                    queue.append(u)
    return tree


def is_connected(g: Graph) -> bool:
    return g.vertex_count == 0 or len(bfs_forest(g, (0,))) == g.vertex_count


def low_degree_vertices(g: Graph) -> tuple[int, ...]:
    """Vertices of degree < 3, ascending."""
    return tuple(v for v in range(g.vertex_count) if g.degree(v) < 3)


def odometric_defect(g: Graph) -> NotOdometricError | None:
    """Why not every edge weight is recoverable from every start, as the
    error to raise, or None when the graph is odometric.

    That holds exactly when the graph is connected and every vertex has
    degree at least 3. A degree-1 edge is never traversed by a closed walk
    from elsewhere, and the two edges at a degree-2 vertex are only ever
    traversed together, so both defects are fatal; degree 3 everywhere is
    also enough. The reason names the smallest vertex of degree below 3, if
    there is one; otherwise the graph is disconnected, and so is the graph
    with no vertex.
    """
    low = low_degree_vertices(g)
    if low:
        v = low[0]
        return NotOdometricError(f"vertex {v} has degree {g.degree(v)}")
    if g.vertex_count == 0 or not is_connected(g):
        return NotOdometricError("graph is disconnected")
    return None


def is_odometric(g: Graph) -> bool:
    """Whether every edge weight is recoverable from any single start vertex
    (see ``odometric_defect``)."""
    return odometric_defect(g) is None
