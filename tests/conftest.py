"""Shared fixtures: hand-built graphs, random samplers, brute-force oracles.

The brute-force functions here are deliberately independent
reimplementations (different algorithms, different authors' style) so the
library is never checked against itself.
"""

import random
from collections import deque
from fractions import Fraction

import pytest

from odograph import Graph, IdentityTrace, RevealCertificate, reveal_all


def k4_edges(vs):
    return [(vs[i], vs[j]) for i in range(4) for j in range(i + 1, 4)]


def k4_referencing_certificate(g):
    """On K4 from 0: 1*w{1,2} = F[0,1,2,0] - w{0,1} - w{0,2}, citing two edges."""
    return RevealCertificate(
        target=g.edge_id(1, 2),
        target_coefficient=1,
        home=0,
        terms=((1, (0, 1, 2, 0)),),
        edge_terms=((-1, g.edge_id(0, 1)), (-1, g.edge_id(0, 2))),
    )


@pytest.fixture
def k4():
    # edge ids: {0,1}=0 {0,2}=1 {0,3}=2 {1,2}=3 {1,3}=4 {2,3}=5
    return Graph(4, k4_edges([0, 1, 2, 3]), [1, 2, 3, 4, 5, 6])


@pytest.fixture
def c3():
    return Graph(3, [(0, 1), (1, 2), (0, 2)], [1, 1, 1])


@pytest.fixture
def c5():
    return Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)], [2, 3, 5, 7, 11])


@pytest.fixture
def subdivided_k4():
    # K4 with edge {2,3} subdivided by vertex 4; ids 5={2,4}, 6={3,4}
    edges = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 4), (4, 3)]
    return Graph(5, edges, [1, 1, 1, 1, 1, 1, 1])


@pytest.fixture
def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return Graph(10, outer + inner + spokes, list(range(2, 17)))


@pytest.fixture
def g_2k4cut():
    # two K4s sharing cut vertex 3
    edges = k4_edges([0, 1, 2, 3]) + k4_edges([3, 4, 5, 6])
    return Graph(7, edges, list(range(1, 13)))


@pytest.fixture
def g_bridge():
    # K4 {0..3} (ids 0-5), bridge {3,4} (id 6), K4 {4..7} (ids 7-12)
    edges = k4_edges([0, 1, 2, 3]) + [(3, 4)] + k4_edges([4, 5, 6, 7])
    return Graph(8, edges, list(range(1, 14)))


@pytest.fixture
def star_of_k4s():
    # center 12 of degree 3, one bridge into a corner of each of three K4s
    edges = (
        k4_edges([0, 1, 2, 3])
        + k4_edges([4, 5, 6, 7])
        + k4_edges([8, 9, 10, 11])
        + [(0, 12), (4, 12), (8, 12)]
    )
    return Graph(13, edges, list(range(1, len(edges) + 1)))


@pytest.fixture
def chain3_k4s():
    # K4s {0..3}, {3..6}, {6..9} glued at cut vertices 3 and 6
    edges = k4_edges([0, 1, 2, 3]) + k4_edges([3, 4, 5, 6]) + k4_edges([6, 7, 8, 9])
    return Graph(10, edges, list(range(1, 19)))


@pytest.fixture
def h_bridge():
    # two degree-3 hubs (16, 17) joined by a bridge, each hub bridging into
    # two K4 corners; the middle bridge is at block-tree distance 1 from the
    # nearest 2-connected block
    edges = (
        k4_edges([0, 1, 2, 3])
        + k4_edges([4, 5, 6, 7])
        + k4_edges([8, 9, 10, 11])
        + k4_edges([12, 13, 14, 15])
        + [(0, 16), (4, 16), (8, 17), (12, 17), (16, 17)]
    )
    return Graph(18, edges, list(range(1, len(edges) + 1)))


def doublings(g, start):
    """Every doubling record of reveal_all from start, keyed by its base walk."""
    trace = IdentityTrace()
    reveal_all(g, start, trace)
    return {rec.base: rec for rec in trace.doublings}


# ---------------------------------------------------------------- samplers


def random_min_deg3_edges(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """Random connected graph on n >= 4 vertices with minimum degree 3."""
    while True:
        edges = set()
        order = list(range(n))
        rng.shuffle(order)
        for i in range(1, n):
            u, v = order[i], order[rng.randrange(i)]
            edges.add((min(u, v), max(u, v)))
        deg = [0] * n
        for u, v in edges:
            deg[u] += 1
            deg[v] += 1
        stuck = False
        while min(deg) < 3:
            u = min(range(n), key=lambda x: (deg[x], x))
            candidates = [
                v for v in range(n) if v != u and (min(u, v), max(u, v)) not in edges
            ]
            if not candidates:
                stuck = True
                break
            candidates.sort(key=lambda x: (deg[x], x))
            v = rng.choice(candidates[: max(3, len(candidates) // 3)])
            edges.add((min(u, v), max(u, v)))
            deg[u] += 1
            deg[v] += 1
        if not stuck:
            return sorted(edges)


_GADGETS = {
    # small min-degree-3 pieces used to assemble graphs with cut structure
    "k4": (4, k4_edges([0, 1, 2, 3])),
    "prism": (6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)]),
    "wheel": (5, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (1, 4), (2, 4), (3, 4)]),
}


def random_blocky_edges(rng: random.Random, pieces: int) -> list[tuple[int, int]]:
    """Glue gadgets into one min-degree-3 graph with cut vertices/bridges.

    Each added gadget either shares one vertex with the existing graph (a
    cut vertex) or is attached by a bridge; both keep every degree >= 3.
    """
    name = rng.choice(sorted(_GADGETS))
    size, base = _GADGETS[name]
    edges = list(base)
    n = size
    for _ in range(pieces - 1):
        name = rng.choice(sorted(_GADGETS))
        size, gadget = _GADGETS[name]
        anchor = rng.randrange(n)
        if rng.random() < 0.5:
            # merge: gadget vertex 0 becomes the existing vertex `anchor`
            relabel = {0: anchor}
            for v in range(1, size):
                relabel[v] = n
                n += 1
            edges += [(relabel[u], relabel[v]) for u, v in gadget]
        else:
            # bridge from anchor to gadget vertex 0
            relabel = {v: n + v for v in range(size)}
            edges += [(relabel[u], relabel[v]) for u, v in gadget]
            edges.append((anchor, relabel[0]))
            n += size
    return sorted((min(u, v), max(u, v)) for u, v in edges)


def random_sparse_low_degree_edges(
    rng: random.Random, n: int, extra: int
) -> list[tuple[int, int]]:
    """Connected graph on n <= 8 vertices with cyclomatic number `extra`.

    With extra <= 2 and n >= 3 the handshake bound forces some vertex to
    have degree <= 2, which is exactly what the necessity tests need.
    """
    edges = set()
    order = list(range(n))
    rng.shuffle(order)
    for i in range(1, n):
        u, v = order[i], order[rng.randrange(i)]
        edges.add((min(u, v), max(u, v)))
    missing = [
        (u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in edges
    ]
    rng.shuffle(missing)
    for pair in missing[:extra]:
        edges.add(pair)
    return sorted(edges)


def random_weights(rng: random.Random, count: int) -> list[Fraction]:
    return [Fraction(rng.randint(-60, 60), rng.randint(1, 12)) for _ in range(count)]


# ------------------------------------------------------------ brute oracles


def brute_articulation_points(g: Graph) -> set[int]:
    """Cut vertices by definition: remove, then test connectivity."""
    n = g.vertex_count
    result = set()
    for v in range(n):
        rest = [x for x in range(n) if x != v]
        if len(rest) <= 1:
            continue
        seen = {rest[0]}
        stack = [rest[0]]
        while stack:
            x = stack.pop()
            for y in g.neighbors(x):
                if y != v and y not in seen:
                    seen.add(y)
                    stack.append(y)
        if len(seen) != len(rest):
            result.add(v)
    return result


def brute_bridges(g: Graph) -> set[int]:
    """Bridges by definition: drop the edge, then test connectivity."""
    result = set()
    for e in range(g.edge_count):
        a, b = g.endpoints(e)
        seen = {a}
        queue = deque([a])
        while queue:
            x = queue.popleft()
            for y in g.neighbors(x):
                if (x, y) in ((a, b), (b, a)):
                    continue
                if y not in seen:
                    seen.add(y)
                    queue.append(y)
        if b not in seen:
            result.add(e)
    return result


def random_closed_nb_walk(rng, g, u, max_len=40):
    """Uniform-ish closed non-backtracking walk at u; retries until closure."""
    while True:
        walk = [u]
        for _ in range(max_len):
            options = [
                y for y in g.neighbors(walk[-1]) if len(walk) < 2 or y != walk[-2]
            ]
            walk.append(rng.choice(options))
            if walk[-1] == u and len(walk) >= 4 and rng.random() < 0.4:
                return tuple(walk)
        # no closure in time; retry with fresh randomness


def brute_closed_nb_walks(g: Graph, home: int, max_edges: int) -> list[tuple[int, ...]]:
    """Recursive reference enumeration, sorted lexicographically."""
    found = []

    def grow(walk):
        if len(walk) >= 4 and walk[-1] == home:
            found.append(tuple(walk))
        if len(walk) - 1 == max_edges:
            return
        for y in g.neighbors(walk[-1]):
            if len(walk) >= 2 and y == walk[-2]:
                continue
            walk.append(y)
            grow(walk)
            walk.pop()

    if max_edges >= 1:
        grow([home])
    return sorted(found)
