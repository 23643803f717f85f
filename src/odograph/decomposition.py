"""Blocks, cut vertices, and navigation over the block tree.

Blocks are the maximal subgraphs without a cut vertex of their own: either a
single bridge edge or a 2-connected piece on three or more vertices. They
partition the edge set, and together with the cut vertices they form a tree,
which is what every walk construction in the revealer navigates.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .errors import DisconnectedGraphError, PreconditionError
from .graph import Graph, is_connected
from .walks import Walk, concat


@dataclass(frozen=True)
class Block:
    index: int
    edge_ids: tuple[int, ...]
    vertices: tuple[int, ...]

    @property
    def is_bridge(self) -> bool:
        return len(self.edge_ids) == 1


@dataclass(frozen=True)
class BlockCutTree:
    """Blocks and cut vertices of a connected graph, with tree adjacency.

    Block ids are assigned by the smallest edge id each block contains, so
    the decomposition is stable for a fixed input edge order. The bipartite
    adjacency (block node <-> cut vertex node) is exactly "the cut vertex
    lies in the block". ``cut_set`` holds ``cut_vertices`` for membership
    tests.
    """

    blocks: tuple[Block, ...]
    cut_vertices: tuple[int, ...]
    block_of_edge: tuple[int, ...]
    blocks_by_vertex: tuple[tuple[int, ...], ...]
    cut_set: frozenset[int]

    def blocks_at(self, v: int) -> tuple[int, ...]:
        return self.blocks_by_vertex[v]

    def cut_vertices_of_block(self, block: int) -> tuple[int, ...]:
        return tuple(v for v in self.blocks[block].vertices if v in self.cut_set)

    def is_cut_vertex(self, v: int) -> bool:
        return v in self.cut_set

    def two_connected_blocks_at(self, v: int) -> tuple[int, ...]:
        return tuple(b for b in self.blocks_by_vertex[v] if not self.blocks[b].is_bridge)

    def is_bridge_edge(self, edge_id: int) -> bool:
        return self.blocks[self.block_of_edge[edge_id]].is_bridge


def block_cut_tree(g: Graph) -> BlockCutTree:
    """Decompose a connected graph into blocks and cut vertices."""
    n = g.vertex_count
    if n > 0 and not is_connected(g):
        raise DisconnectedGraphError("block decomposition requires a connected graph")
    m = g.edge_count

    disc = [-1] * n
    low = [0] * n
    parent_edge = [-1] * n
    pushed = [False] * m
    edge_stack: list[int] = []
    raw_blocks: list[list[int]] = []
    cuts: set[int] = set()

    if n > 0:
        root = 0
        timer = 0
        disc[root] = low[root] = timer
        timer += 1
        root_children = 0
        stack: list[tuple[int, int]] = [(root, 0)]
        inc = [g.incident(v) for v in range(n)]
        while stack:
            v, i = stack[-1]
            if i < len(inc[v]):
                stack[-1] = (v, i + 1)
                w, eid = inc[v][i]
                if eid == parent_edge[v]:
                    continue
                if disc[w] == -1:
                    pushed[eid] = True
                    edge_stack.append(eid)
                    parent_edge[w] = eid
                    disc[w] = low[w] = timer
                    timer += 1
                    if v == root:
                        root_children += 1
                    stack.append((w, 0))
                else:
                    if disc[w] < disc[v] and not pushed[eid]:
                        pushed[eid] = True
                        edge_stack.append(eid)
                    if disc[w] < low[v]:
                        low[v] = disc[w]
            else:
                stack.pop()
                if stack:
                    u = stack[-1][0]
                    if low[v] < low[u]:
                        low[u] = low[v]
                    if low[v] >= disc[u]:
                        # closing a block hanging off u through v
                        block: list[int] = []
                        while True:
                            eid = edge_stack.pop()
                            block.append(eid)
                            if eid == parent_edge[v]:
                                break
                        raw_blocks.append(block)
                        if u != root:
                            cuts.add(u)
        if root_children > 1:
            cuts.add(root)

    raw_blocks.sort(key=min)
    blocks: list[Block] = []
    block_of_edge = [-1] * m
    by_vertex: list[set[int]] = [set() for _ in range(n)]
    for idx, edge_ids in enumerate(raw_blocks):
        vertices: set[int] = set()
        for eid in sorted(edge_ids):
            block_of_edge[eid] = idx
            a, b = g.endpoints(eid)
            vertices.add(a)
            vertices.add(b)
        for v in vertices:
            by_vertex[v].add(idx)
        blocks.append(Block(idx, tuple(sorted(edge_ids)), tuple(sorted(vertices))))

    return BlockCutTree(
        blocks=tuple(blocks),
        cut_vertices=tuple(sorted(cuts)),
        block_of_edge=tuple(block_of_edge),
        blocks_by_vertex=tuple(tuple(sorted(s)) for s in by_vertex),
        cut_set=frozenset(cuts),
    )


def _block_adjacency(g: Graph, block: Block) -> dict[int, list[int]]:
    adj: dict[int, list[int]] = {v: [] for v in block.vertices}
    for eid in block.edge_ids:
        a, b = g.endpoints(eid)
        adj[a].append(b)
        adj[b].append(a)
    for v in adj:
        adj[v].sort()
    return adj


def _bfs_path(adj: dict[int, list[int]], source: int, targets: set[int]) -> Walk | None:
    """Deterministic shortest path from source to the nearest target set member."""
    if source in targets:
        return (source,)
    prev: dict[int, int] = {source: source}
    queue = deque([source])
    while queue:
        v = queue.popleft()
        for u in adj[v]:
            if u in prev:
                continue
            prev[u] = v
            if u in targets:
                path = [u]
                while path[-1] != source:
                    path.append(prev[path[-1]])
                path.reverse()
                return tuple(path)
            queue.append(u)
    return None


def path_in_block_avoiding(g: Graph, bct: BlockCutTree, block: int, x: int, y: int, u: int) -> Walk:
    """Simple path from x to y inside the block that never touches u.

    Exists whenever the block is 2-connected, which is the only case this is
    defined for: removing one vertex cannot disconnect such a block.
    """
    blk = bct.blocks[block]
    if blk.is_bridge:
        raise PreconditionError("path_in_block_avoiding needs a 2-connected block")
    if len({x, y, u}) != 3:
        raise PreconditionError("x, y, u must be three distinct vertices")
    for v in (x, y, u):
        if v not in blk.vertices:
            raise PreconditionError(f"vertex {v} is not in block {block}")
    adj = _block_adjacency(g, blk)
    adj.pop(u)
    for v in adj:
        adj[v] = [w for w in adj[v] if w != u]
    path = _bfs_path(adj, x, {y})
    if path is None:
        raise PreconditionError(f"block {block} is not 2-connected around {u}")
    return path


# --- block tree navigation ----------------------------------------------
#
# Tree nodes are ("B", block id) and ("C", cut vertex). Neighbor order is
# sorted, so every search below is deterministic.


def _tree_neighbors(bct: BlockCutTree, node: tuple[str, int]) -> list[tuple[str, int]]:
    kind, key = node
    if kind == "B":
        return [("C", v) for v in bct.cut_vertices_of_block(key)]
    return [("B", b) for b in bct.blocks_at(key)]


def _walk_through_tree_path(g: Graph, bct: BlockCutTree, nodes: list[tuple[str, int]]) -> Walk:
    """Concretize a cut-to-cut tree path as a walk through the listed blocks.

    nodes alternates C, B, C, ..., B, C. Each block segment is a shortest
    path between its two cut vertices using only that block's edges. Distinct
    blocks share no neighbor of a shared cut vertex, so junctions never
    backtrack.
    """
    walk: Walk = (nodes[0][1],)
    for i in range(1, len(nodes) - 1, 2):
        block = bct.blocks[nodes[i][1]]
        a, b = nodes[i - 1][1], nodes[i + 1][1]
        segment = _bfs_path(_block_adjacency(g, block), a, {b})
        assert segment is not None
        walk = concat(walk, segment)
    return walk


def _escape_toward_leaf(
    g: Graph, bct: BlockCutTree, start: int, forbidden_block: int
) -> tuple[Walk, int, int]:
    """Walk from a cut vertex toward the nearest leaf block, away from one block.

    Returns (walk, u_prime, b_prime): the walk ends at u_prime, a cut vertex
    of the 2-connected leaf block b_prime, uses no edge of forbidden_block,
    and its final edge is outside b_prime. The walk is empty when start
    itself sits on a qualifying leaf block.
    """
    if start not in bct.blocks[forbidden_block].vertices:
        raise PreconditionError(f"vertex {start} is not in block {forbidden_block}")
    source = ("C", start)
    banned = (source, ("B", forbidden_block))
    prev: dict[tuple[str, int], tuple[str, int]] = {source: source}
    dist: dict[tuple[str, int], int] = {source: 0}
    queue = deque([source])
    leaves: list[tuple[int, int]] = []
    while queue:
        node = queue.popleft()
        for nxt in _tree_neighbors(bct, node):
            if nxt in prev or (node, nxt) in (banned, banned[::-1]):
                continue
            prev[nxt] = node
            dist[nxt] = dist[node] + 1
            if nxt[0] == "B" and len(bct.cut_vertices_of_block(nxt[1])) <= 1:
                # leaf block; min degree 3 rules out leaf bridges
                if bct.blocks[nxt[1]].is_bridge:
                    raise PreconditionError(
                        "leaf bridge found; escape requires minimum degree 3"
                    )
                leaves.append((dist[nxt], nxt[1]))
            else:
                queue.append(nxt)
    if not leaves:
        raise PreconditionError(
            f"no leaf block reachable from {start} avoiding block {forbidden_block}"
        )
    found = ("B", min(leaves)[1])
    nodes = [found]
    while nodes[-1] != source:
        nodes.append(prev[nodes[-1]])
    nodes.reverse()
    b_prime = found[1]
    u_prime = nodes[-2][1] if len(nodes) > 1 else start
    walk = _walk_through_tree_path(g, bct, nodes[:-1])
    return walk, u_prime, b_prime


def leafward_escape(g: Graph, bct: BlockCutTree, u: int, avoid_block: int) -> tuple[Walk, int, int]:
    """Escape from a cut vertex of a 2-connected block into some other block.

    Returns (walk, u_prime, b_prime) where the walk runs from u to u_prime,
    a cut vertex of the 2-connected block b_prime != avoid_block, without
    using any edge of avoid_block, and the walk's final edge (when there is
    one) lies outside b_prime. Ties between equally near leaf blocks break
    toward the smallest block id.
    """
    if bct.blocks[avoid_block].is_bridge:
        raise PreconditionError("avoid_block must be 2-connected")
    if not bct.is_cut_vertex(u):
        raise PreconditionError(f"vertex {u} is not a cut vertex")
    return _escape_toward_leaf(g, bct, u, avoid_block)
