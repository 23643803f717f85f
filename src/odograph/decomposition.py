"""Blocks and cut vertices: an analysis utility.

Blocks are the maximal subgraphs without a cut vertex of their own: either a
single bridge edge or a 2-connected piece on three or more vertices. They
partition the edge set, and together with the cut vertices they form a tree.
The reveal pipeline does not need them: its detour cycles come from a search
in the graph itself (see ``revealer``). The decomposition is kept for
describing a graph's cut structure.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DisconnectedGraphError
from .graph import Graph, is_connected


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
