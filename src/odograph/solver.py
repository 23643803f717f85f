"""Exact linear algebra over walk usage counts.

A walk matrix has one row per edge (by id) and one column per walk, with
usage counts as entries. Rank, basis selection, solving and the invisible
directions of ``oracle.span_report`` all go through one exact elimination
kernel, ``_Echelon``: it holds each walk's usage counts as a sparse integer
row, clears each measurement's denominator into its row, eliminates
fraction-free, and only back substitutes in rationals. Basis selection and
the solve first rewrite each row in spanning-tree potentials
(``_potentials``), where the tree path to a closed walk's detour telescopes
away, so rows stay short however deep the graph; solved potentials map
back to edge weights as Fractions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Mapping, Sequence

from .errors import (
    InconsistentMeasurementsError,
    InvalidWalkError,
    PreconditionError,
    RankDeficientError,
)
from .graph import Graph, bfs_forest
from .revealer import RevealCertificate
from .walks import Walk, _edge_usage, edge_multiplicities


@dataclass(frozen=True)
class WalkMatrix:
    """Usage-count matrix: rows indexed by edge id, one column per walk."""

    edge_count: int
    walks: tuple[Walk, ...]
    columns: tuple[tuple[int, ...], ...]

    @property
    def walk_count(self) -> int:
        return len(self.walks)

    def rows(self) -> list[list[int]]:
        return [
            [self.columns[j][i] for j in range(len(self.columns))]
            for i in range(self.edge_count)
        ]


def build_walk_matrix(g: Graph, walks: Sequence[Walk]) -> WalkMatrix:
    columns = []
    for w in walks:
        if len(w) < 2:
            raise InvalidWalkError("empty walks have all-zero columns and are not admitted")
        columns.append(tuple(edge_multiplicities(g, w)))
    return WalkMatrix(g.edge_count, tuple(tuple(w) for w in walks), tuple(columns))


class _Echelon:
    """Exact incremental row echelon form over sparse integer equations.

    Each stored row is a ``{column: int}`` dict whose pivot is its smallest
    column, together with an integer right-hand side. A rational right-hand
    side has its denominator cleared into the row once, on entry; from then
    on elimination is fraction-free and each stored equation is divided by
    the gcd of its row and right-hand side. With right-hand side 0, as in
    rank, basis selection and span relations, no Fraction is ever made, and
    rows stay primitive because gcd(v, 0) = gcd(v). Only back substitution
    is rational, with one Fraction made per pivot.
    """

    def __init__(self):
        self.rows: dict[int, dict[int, int]] = {}
        self.rhs: dict[int, int] = {}

    @property
    def rank(self) -> int:
        return len(self.rows)

    def add(self, vec: Mapping[int, int] | Sequence[int], rhs: Fraction | int = 0) -> int | None:
        """Reduce the equation ``vec · x = rhs`` against the stored rows.

        vec is a sparse ``{column: coefficient}`` mapping, such as a walk's
        ``walks._edge_usage``, or a dense row indexed by column. Returns None
        if vec is independent of the stored rows, and stores it. Otherwise
        returns the residual right-hand side, an integer multiple of the
        true residual, which is zero exactly when the equation is consistent
        with the stored ones.
        """
        d, rhs = rhs.denominator, rhs.numerator
        items = vec.items() if isinstance(vec, Mapping) else enumerate(vec)
        v = {j: x * d for j, x in items if x}
        while v:
            c = min(v)
            a = v[c]
            row = self.rows.get(c)
            if row is None:
                content = gcd(*v.values(), rhs)
                if content > 1:
                    v = {j: x // content for j, x in v.items()}
                    rhs //= content
                self.rows[c] = v
                self.rhs[c] = rhs
                return None
            g = gcd(a, row[c])
            scale, factor = row[c] // g, a // g
            if scale != 1:
                for j in v:
                    v[j] *= scale
                rhs *= scale
            for j, x in row.items():
                y = v.get(j, 0) - factor * x
                if y:
                    v[j] = y
                else:
                    del v[j]
            rhs -= factor * self.rhs[c]
        return rhs

    def back_substitute(self, fixed: Mapping[int, int] = {}) -> dict[int, Fraction | int]:
        """A solution of every stored row, as ``{column: value}``.

        Non-pivot columns take their value from fixed, or zero; each pivot
        column is then solved for, from the largest pivot down, summing the
        known terms in integers over their common denominator.
        """
        x: dict[int, Fraction | int] = dict(fixed)
        for c in sorted(self.rows, reverse=True):
            row = self.rows[c]
            known = [(a, x[j]) for j, a in row.items() if j != c and x.get(j)]
            den = lcm(*(v.denominator for _, v in known))
            acc = self.rhs[c] * den - sum(a * v.numerator * (den // v.denominator) for a, v in known)
            x[c] = Fraction(acc, den * row[c])
        return x


def rational_rank(m: WalkMatrix) -> int:
    """Rank of the matrix over the rationals."""
    echelon = _Echelon()
    for col in m.columns:
        if echelon.rank == m.edge_count:
            break
        echelon.add(col)
    return echelon.rank


def _potentials(g: Graph, root: int) -> list[tuple[int, int | None]]:
    """Each edge's weight in tree-potential coordinates, by edge id.

    The tree is ``bfs_forest`` from root, then from every vertex ascending,
    the tree ``revealer._shortest_walks`` follows from the same start. Each
    vertex x with a tree parent p gets a column y_x, the weight of its
    tree path, so the tree edge p-x weighs y_x - y_p (y of a root is 0);
    each non-tree edge gets a column of its own. Entry e is (plus, minus):
    edge e weighs column plus less column minus, if minus is not None. The
    map is invertible, and a closed walk's tree path telescopes out of its
    row. Columns go deepest first, so elimination, which pivots on the
    smallest column, starts far from the roots: vertices in reverse order
    of discovery, each followed by its non-tree edges to earlier vertices.
    """
    tree = bfs_forest(g, (root, *range(g.vertex_count)))
    found = {v: i for i, v in enumerate(tree)}  # vertex -> discovery index
    coords: list[tuple[int, int | None]] = [(0, None)] * g.edge_count
    column: dict[int, int] = {}  # vertex -> column of y
    j = 0
    for v in reversed(found):
        if tree[v] is not None:
            column[v] = j
            j += 1
        for u, e in g.incident(v):
            if found[u] < found[v] and tree[v] != (u, e):
                coords[e] = (j, None)
                j += 1
    for x, link in tree.items():
        if link is not None:
            coords[link[1]] = (column[x], column.get(link[0]))
    return coords


def _potential_row(coords: list[tuple[int, int | None]], usage: Mapping[int, int]) -> dict[int, int]:
    """A walk's usage counts rewritten in the columns of ``_potentials``."""
    row: dict[int, int] = {}
    for e, c in usage.items():
        plus, minus = coords[e]
        row[plus] = row.get(plus, 0) + c
        if minus is not None:
            row[minus] = row.get(minus, 0) - c
    return row


def _pool_certificate_walks(certs: Mapping[int, RevealCertificate]) -> list[Walk]:
    pool: list[Walk] = []
    seen: set[Walk] = set()
    for edge in sorted(certs):
        cert = certs[edge]
        if cert.edge_terms:
            raise PreconditionError(
                f"certificate for edge id {edge} still has edge references; flatten first"
            )
        for _, w in cert.terms:
            if w not in seen:
                seen.add(w)
                pool.append(w)
    return pool


def extract_minimal_basis(g: Graph, certs: Mapping[int, RevealCertificate]) -> list[Walk]:
    """Greedily select |E| independent walks from flattened certificates.

    The pool is every certificate walk in edge-id order; columns that do not
    grow the rank are skipped. The result always has exactly |E| walks of
    full rank, or the pool is genuinely rank deficient and that is an error.
    Rows are eliminated in the tree-potential coordinates of ``_potentials``
    rooted at the first pool walk's start; the map is invertible, so the
    greedy choice is the one edge coordinates would make.
    """
    m = g.edge_count
    pool = _pool_certificate_walks(certs)
    usages = [_edge_usage(g, w) for w in pool]
    coords = _potentials(g, pool[0][0]) if pool else []
    echelon = _Echelon()
    chosen: list[Walk] = []
    for w, usage in zip(pool, usages):
        if len(chosen) == m:
            break
        if echelon.add(_potential_row(coords, usage)) is None:
            chosen.append(w)
    if len(chosen) < m:
        raise RankDeficientError(
            f"certificate walks span only {len(chosen)} of {m} directions"
        )
    return chosen


def recover_weights(
    g_topology: Graph, walks: Sequence[Walk], measurements: Sequence[Fraction]
) -> dict[int, Fraction]:
    """Solve for all edge weights from measured walk weights, exactly.

    Each walk's usage counts in the tree-potential coordinates of
    ``_potentials``, rooted at the first walk's start, form one integer row
    with its measurement as rational right-hand side. The rows are
    eliminated exactly and the potentials back substituted and mapped to
    edge weights. Requires the walks to span all |E| edge directions; then
    every equation is checked against the solution, in integers over the
    weights' common denominator, and measurements that admit no exact
    solution are reported.
    """
    if len(walks) != len(measurements):
        raise PreconditionError("walks and measurements must align one to one")
    m = g_topology.edge_count
    usages = [_edge_usage(g_topology, w) for w in walks]
    rhs = [Fraction(b) for b in measurements]
    coords = _potentials(g_topology, walks[0][0]) if walks else []
    echelon = _Echelon()
    for usage, b in zip(usages, rhs):
        echelon.add(_potential_row(coords, usage), b)
    if echelon.rank < m:
        raise RankDeficientError(
            f"measuring walks span only {echelon.rank} of {m} directions"
        )
    x = echelon.back_substitute()
    weights = [x[plus] if minus is None else x[plus] - x[minus] for plus, minus in coords]
    denom = lcm(*(w.denominator for w in weights))
    numer = [w.numerator * (denom // w.denominator) for w in weights]
    for usage, b in zip(usages, rhs):
        if sum(c * numer[e] for e, c in usage.items()) * b.denominator != b.numerator * denom:
            raise InconsistentMeasurementsError("measurements admit no exact solution")
    return dict(enumerate(weights))


def verify_certificate(g: Graph, cert: RevealCertificate) -> bool:
    """Check the weight-independent identity behind a flattened certificate.

    True iff, for every edge, the summed usage counts of the certificate
    walks equal the target coefficient times the target's usage of that
    edge. This never looks at weights, so it certifies the identity for
    every weighting at once. Usage counts are kept sparse, so the check
    takes time linear in the total length of the walks.
    """
    if cert.edge_terms:
        raise PreconditionError("verify_certificate needs a flattened certificate")
    balance: dict[int, int] = {}
    terms = list(cert.terms)
    if isinstance(cert.target, int):
        balance[cert.target] = -cert.target_coefficient
    else:
        terms.insert(0, (-cert.target_coefficient, cert.target))
    for c, w in terms:
        for e, k in _edge_usage(g, w).items():
            balance[e] = balance.get(e, 0) + c * k
    return not any(balance.values())
