"""Exact linear algebra over walk usage counts.

A walk matrix has one row per edge (by id) and one column per walk, with
usage counts as entries. Rank, basis selection, solving and the invisible
directions of ``oracle.span_report`` all go through one exact elimination
kernel, ``_Echelon``: it holds each walk's usage vector as a sparse integer
row, clears each measurement's denominator into its row, eliminates
fraction-free, and only back substitutes in rationals, so solved weights
come back as Fractions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd
from typing import Mapping, Sequence

from .errors import (
    InconsistentMeasurementsError,
    InvalidWalkError,
    PreconditionError,
    RankDeficientError,
)
from .graph import Graph
from .revealer import RevealCertificate
from .walks import Walk, edge_multiplicities, require_valid_walk


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
    is rational.
    """

    def __init__(self):
        self.rows: dict[int, dict[int, int]] = {}
        self.rhs: dict[int, int] = {}

    @property
    def rank(self) -> int:
        return len(self.rows)

    def add(self, vec: Sequence[int], rhs: Fraction | int = 0) -> int | None:
        """Reduce the equation ``vec · x = rhs`` against the stored rows.

        Returns None if vec is independent of them, and stores it. Otherwise
        returns the residual right-hand side, an integer multiple of the
        true residual, which is zero exactly when the equation is consistent
        with the stored ones.
        """
        d, rhs = rhs.denominator, rhs.numerator
        v = {j: x * d for j, x in enumerate(vec) if x}
        heap = list(v)
        heapify(heap)
        while heap:
            c = heappop(heap)
            a = v.get(c)
            if a is None:
                continue
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
                    if j not in v:
                        heappush(heap, j)
                    v[j] = y
                else:
                    del v[j]
            rhs -= factor * self.rhs[c]
        return rhs

    def back_substitute(self, fixed: Mapping[int, int] = {}) -> dict[int, Fraction | int]:
        """A solution of every stored row, as ``{column: value}``.

        Non-pivot columns take their value from fixed, or zero; each pivot
        column is then solved for, from the largest pivot down.
        """
        x: dict[int, Fraction | int] = dict(fixed)
        for c in sorted(self.rows, reverse=True):
            row = self.rows[c]
            acc = self.rhs[c]
            for j, a in row.items():
                if j != c and x.get(j):
                    acc -= a * x[j]
            x[c] = Fraction(acc, row[c])
        return x


def rational_rank(m: WalkMatrix) -> int:
    """Rank of the matrix over the rationals."""
    echelon = _Echelon()
    for col in m.columns:
        if echelon.rank == m.edge_count:
            break
        echelon.add(col)
    return echelon.rank


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
    """
    m = g.edge_count
    pool = _pool_certificate_walks(certs)
    vectors = [edge_multiplicities(g, w) for w in pool]
    echelon = _Echelon()
    chosen: list[Walk] = []
    for w, vec in zip(pool, vectors):
        if len(chosen) == m:
            break
        if echelon.add(vec) is None:
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

    Each walk's usage counts form one integer row, and its measurement the
    row's rational right-hand side; the rows are eliminated exactly and the
    weights back substituted. Requires the walks to span all |E| edge
    directions. Inconsistent measurements are reported for overdetermined
    systems, and every given equation is checked against the solution.
    """
    if len(walks) != len(measurements):
        raise PreconditionError("walks and measurements must align one to one")
    m = g_topology.edge_count
    rows = [edge_multiplicities(g_topology, w) for w in walks]
    rhs = [Fraction(b) for b in measurements]
    echelon = _Echelon()
    consistent = True
    for row, b in zip(rows, rhs):
        residual = echelon.add(row, b)
        if residual is not None and residual != 0:
            consistent = False
    if echelon.rank < m:
        raise RankDeficientError(
            f"measuring walks span only {echelon.rank} of {m} directions"
        )
    if not consistent:
        raise InconsistentMeasurementsError("measurements admit no exact solution")

    solution = echelon.back_substitute()
    for row, b in zip(rows, rhs):
        total = sum((coeff * solution[j] for j, coeff in enumerate(row) if coeff), Fraction(0))
        if total != b:
            raise InconsistentMeasurementsError("measurements admit no exact solution")
    return {e: solution[e] for e in range(m)}


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
    coeff = cert.target_coefficient
    if isinstance(cert.target, int):
        balance[cert.target] = -coeff
    else:
        _add_usage(g, balance, -coeff, cert.target)
    for c, w in cert.terms:
        _add_usage(g, balance, c, w)
    return not any(balance.values())


def _add_usage(g: Graph, balance: dict[int, int], c: int, w: Walk) -> None:
    """Add c times the walk's usage count of each edge to balance."""
    require_valid_walk(g, w)
    for a, b in zip(w, w[1:]):
        e = g.edge_id(a, b)
        balance[e] = balance.get(e, 0) + c
