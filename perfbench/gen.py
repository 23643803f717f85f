"""Seeded graph generators for the benchmark workloads.

The generators draw from a ``random.Random`` and build an ``Instance``: a
weighted graph plus the start vertex an op runs from. ``Instance.text``
renders it as an ``odometry-graph v1`` file, the only thing the program
under test ever sees. Nothing here imports ``odograph`` or the test suite,
so the inputs do not depend on the code being measured.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

Edge = tuple[int, int]


@dataclass
class Instance:
    """A weighted graph (edge ids in list order, each edge (u, v) with u < v) and a start vertex."""

    n: int
    edges: list[Edge]
    weights: list[Fraction]
    start: int
    # (a, x, b) when the edge {a,b} was subdivided by the degree-2 vertex x
    pair: tuple[int, int, int] | None = None
    edge_index: dict[Edge, int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.edge_index = {e: i for i, e in enumerate(self.edges)}

    def text(self) -> str:
        lines = ["odometry-graph v1", f"n {self.n}"]
        lines += [f"e {u} {v} {w}" for (u, v), w in zip(self.edges, self.weights)]
        return "\n".join(lines) + "\n"


def _norm(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


def random_weights(rng: random.Random, count: int) -> list[Fraction]:
    """Rationals in [-60, 60] with denominators up to 12; zero and negatives occur."""
    return [Fraction(rng.randint(-60, 60), rng.randint(1, 12)) for _ in range(count)]


def permute(rng: random.Random, n: int, edges: list[Edge]) -> tuple[list[int], list[Edge]]:
    """Shuffle vertex labels, keeping the edge order.

    Returns the permutation (old label -> new label) and the new edges.
    """
    perm = list(range(n))
    rng.shuffle(perm)
    return perm, [_norm(perm[u], perm[v]) for u, v in edges]


def relabel(rng: random.Random, n: int, edges: list[Edge]) -> tuple[list[int], list[Edge]]:
    """Shuffle vertex labels and edge order, so ids carry no structure."""
    perm, out = permute(rng, n, edges)
    rng.shuffle(out)
    return perm, out


def random_min_degree3(rng: random.Random, n: int, m: int = 0) -> list[Edge]:
    """Connected graph on n >= 4 vertices, every degree at least 3.

    A random recursive tree makes it connected; then a random vertex of
    degree below 3 is repeatedly joined to a random low-degree non-neighbour
    until none is left, which lands at about 1.65 n edges. Uniformly random
    extra edges then bring the count up to ``m``, when m is larger.
    """
    edges: set[Edge] = set()
    adj: list[set[int]] = [set() for _ in range(n)]

    def add(u: int, v: int) -> None:
        edges.add(_norm(u, v))
        adj[u].add(v)
        adj[v].add(u)

    for v in range(1, n):
        add(v, rng.randrange(v))
    while True:
        low = [v for v in range(n) if len(adj[v]) < 3]
        if not low:
            break
        u = rng.choice(low)
        others = [v for v in range(n) if v != u and v not in adj[u]]
        others.sort(key=lambda v: (len(adj[v]), v))
        add(u, rng.choice(others[: max(3, len(others) // 4)]))
    while len(edges) < m:
        u, v = rng.sample(range(n), 2)
        if v not in adj[u]:
            add(u, v)
    return sorted(edges)


def prism(k: int) -> list[Edge]:
    """C_k x K2: two k-cycles joined by k spokes (m = 3k)."""
    outer = [_norm(i, (i + 1) % k) for i in range(k)]
    inner = [_norm(k + i, k + (i + 1) % k) for i in range(k)]
    spokes = [(i, k + i) for i in range(k)]
    return outer + inner + spokes


def moebius_ladder(k: int) -> list[Edge]:
    """A 2k-cycle with its k long diagonals (m = 3k)."""
    rim = [_norm(i, (i + 1) % (2 * k)) for i in range(2 * k)]
    rungs = [(i, i + k) for i in range(k)]
    return rim + rungs


_GADGETS: dict[str, tuple[int, list[Edge]]] = {
    "k4": (4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]),
    "prism": (6, prism(3)),
    "wheel": (5, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (1, 4), (2, 4), (3, 4)]),
}


def gadget_chain(rng: random.Random, pieces: int) -> tuple[int, list[Edge], list[int]]:
    """Glue small min-degree-3 gadgets into a chain of blocks.

    Each new gadget hangs off a vertex of the previous one, either sharing
    that vertex (a cut vertex) or through a bridge. Returns the vertex
    count, the edges, and the private vertices of the last gadget (the far
    end of the chain), before relabelling.
    """
    name = rng.choice(sorted(_GADGETS))
    size, base = _GADGETS[name]
    edges = list(base)
    prev = list(range(size))
    n = size
    for _ in range(pieces - 1):
        size, gadget = _GADGETS[rng.choice(sorted(_GADGETS))]
        anchor = rng.choice(prev)
        if rng.random() < 0.5:
            label = {0: anchor}
            label.update({v: n + v - 1 for v in range(1, size)})
            n += size - 1
        else:
            label = {v: n + v for v in range(size)}
            edges.append((anchor, label[0]))
            n += size
        edges += [(label[u], label[v]) for u, v in gadget]
        prev = [label[v] for v in range(1, size)]
    return n, [_norm(u, v) for u, v in edges], prev


def subdivide(rng: random.Random, n: int, edges: list[Edge]) -> tuple[int, list[Edge], tuple[int, int, int]]:
    """Replace one random edge {a,b} by the path a-x-b through a new vertex x.

    Returns the new vertex count, edges, and (a, x, b).
    """
    edges = list(edges)
    a, b = edges.pop(rng.randrange(len(edges)))
    x = n
    edges += [_norm(a, x), _norm(x, b)]
    return n + 1, edges, (a, x, b)
