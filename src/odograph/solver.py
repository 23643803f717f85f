"""Exact linear algebra over walk usage counts.

A walk matrix has one row per edge (by id) and one column per walk, with
usage counts as entries. Rank, basis selection, solving and the invisible
directions of ``oracle.span_report`` all go through one exact elimination
kernel, ``_Echelon``, though ``span_report`` tests most dependent walks
against the relations it derives rather than eliminating them. It holds
each walk's usage counts as a sparse integer row, eliminates fraction-free
and records the row operations that reduced each row it stores; it works
in integers throughout. Basis selection and the solve first rewrite each
row in spanning-tree potentials (``_potentials``), where the tree path to
a closed walk's detour telescopes away, so rows stay short however deep
the graph. Given the ``IdentityTrace`` of the reveal that built the
certificates, selection does not even read their walks: each is a lasso
W.C^k.rev(W), and its row is composed from the record's parts, the
telescoped stem W and the once-read cycle C. Each row is eliminated once:
``recover_weights`` selects its walks as a basis is selected, ``cli``
reuses its basis's selection, and the solve replays the recorded row
operations on the readings, scaled to integers, and re-checks every
equation in potential coordinates. Solved potentials map back to edge
weights as Fractions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Mapping, NamedTuple, Sequence

from .errors import (
    InconsistentMeasurementsError,
    InvalidWalkError,
    PreconditionError,
    RankDeficientError,
)
from .graph import Graph, bfs_forest
from .revealer import DoublingRecord, IdentityTrace, RevealCertificate
from .walks import Walk, _edge_usage, edge_multiplicities


@dataclass(frozen=True)
class WalkMatrix:
    """Usage-count matrix: rows indexed by edge id, one column per walk."""

    edge_count: int
    columns: tuple[tuple[int, ...], ...]

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
    return WalkMatrix(g.edge_count, tuple(columns))


class _Echelon:
    """Exact incremental row echelon form over sparse integer rows.

    Each stored row is a primitive ``{column: int}`` dict whose pivot is its
    smallest column. Elimination is fraction-free, and each stored row
    keeps the operations that reduced it, so right-hand sides need not be
    carried along: ``replay`` later takes integer readings of the stored
    rows through the same operations. Replay and back substitution stay in
    integers by scaling up what they have found whenever a division is not
    exact, and return that scale; no Fraction is made.
    """

    def __init__(self):
        self.rows: dict[int, dict[int, int]] = {}
        # pivot -> ((pivot, scale, factor) per reduction step, final content)
        self.steps: dict[int, tuple[list[tuple[int, int, int]], int]] = {}

    @property
    def rank(self) -> int:
        return len(self.rows)

    def add(self, vec: dict[int, int] | Sequence[int]) -> bool:
        """Reduce vec against the stored rows; store it if it is independent.

        vec is a sparse ``{column: coefficient}`` dict, such as a walk's
        ``walks._edge_usage``, or a dense row indexed by column. Each step
        v <- scale * v - factor * rows[pivot] clears v's smallest column, and
        a row left nonzero is divided by its content and stored, with its
        steps. Returns whether vec was stored.
        """
        # a dict, not any Mapping: the abstract class check costs about 1 us
        items = vec.items() if isinstance(vec, dict) else enumerate(vec)
        v = {j: x for j, x in items if x}
        steps: list[tuple[int, int, int]] = []
        while v:
            c = min(v)
            a = v[c]
            row = self.rows.get(c)
            if row is None:
                content = gcd(*v.values())
                if content > 1:
                    v = {j: x // content for j, x in v.items()}
                self.rows[c] = v
                self.steps[c] = (steps, content)
                return True
            g = gcd(a, row[c])
            scale, factor = row[c] // g, a // g
            if scale != 1:
                for j in v:
                    v[j] *= scale
            for j, x in row.items():
                y = v.get(j, 0) - factor * x
                if y:
                    v[j] = y
                else:
                    del v[j]
            steps.append((c, scale, factor))
        return False

    def replay(self, readings: Sequence[int]) -> tuple[dict[int, int], int]:
        """Right-hand sides of the stored rows, from integer readings.

        readings[i] is the right-hand side of the i-th row stored, as it was
        added; it goes through that row's steps, using the right-hand sides
        already found, and is divided by the row's content. Where that
        division is not exact, every reading is scaled up by the missing
        factor, which scales every right-hand side found so far by it too,
        so all of them stay integers. Returns ``{pivot: right-hand side}``
        and the total scale t: the right-hand sides are those of the
        readings times t.
        """
        rhs: dict[int, int] = {}
        t = 1
        for (c, (steps, content)), b in zip(self.steps.items(), readings):
            b *= t
            for p, scale, factor in steps:
                b = b * scale - factor * rhs[p]
            if b % content:
                s = content // gcd(b, content)
                t *= s
                b *= s
                for p in rhs:
                    rhs[p] *= s
            rhs[c] = b // content
        return rhs, t

    def back_substitute(
        self, fixed: Mapping[int, int] = {}, rhs: Mapping[int, int] = {}
    ) -> tuple[dict[int, int], int]:
        """A solution of every stored row, as integers over a denominator.

        Row c equals rhs[c], or zero. Non-pivot columns take their value
        from fixed, or zero; each pivot column is then solved for, from the
        largest pivot down. Where a pivot does not divide, every value found
        so far is scaled up by the missing factor, as ``replay`` does.
        Returns ``({column: value}, s)``: the solution is each value over s.
        """
        x = dict(fixed)
        s = 1
        for c in sorted(self.rows, reverse=True):
            row = self.rows[c]
            p = row[c]
            acc = rhs.get(c, 0) * s - sum(a * x.get(j, 0) for j, a in row.items())
            if acc % p:
                k = abs(p) // gcd(acc, p)
                s *= k
                acc *= k
                for j in x:
                    x[j] *= k
            x[c] = acc // p
        return x, s


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


def _lasso_row(
    g: Graph, coords: list[tuple[int, int | None]], base: Walk, cycle_row: Mapping[int, int], k: int
) -> dict[int, int]:
    """The ``_potentials`` row of the lasso base.C^k.rev(base), given C's row.

    The lasso uses each edge of base twice and each of C k times, so its row
    is 2 row(base) + k row(C). base is a tree path of ``_potentials`` from
    its root, possibly plus one edge, as every ``DoublingRecord.base`` of
    ``reveal_all`` is; the tree path to base[-2] telescopes to y at base[-2],
    the plus column of the tree edge into it, so row(base) is that entry
    and the columns of base's last edge.
    """
    row = {j: k * c for j, c in cycle_row.items()}
    adjacent = g._adjacent
    stem = [coords[adjacent[base[-2]][base[-1]]]]
    if len(base) > 2:
        stem.append((coords[adjacent[base[-3]][base[-2]]][0], None))
    for plus, minus in stem:
        row[plus] = row.get(plus, 0) + 2
        if minus is not None:
            row[minus] = row.get(minus, 0) - 2
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


class _Selection(NamedTuple):
    """Walks picked greedily for independence, and what the solve reuses."""

    picks: list[int]  # index of each chosen walk among the walks offered
    rows: list[dict[int, int]]  # each chosen walk's row in the columns of coords
    coords: list[tuple[int, int | None]]  # ``_potentials`` from the first walk's start
    echelon: _Echelon  # the chosen rows, stored in order, with their steps


def _select(
    g: Graph,
    walks: Sequence[Walk],
    what: str,
    lassos: Mapping[Walk, tuple[DoublingRecord, int]] = {},
) -> _Selection:
    """Pick, in order, each walk whose row grows the rank, up to |E| of them.

    Rows are eliminated in the tree-potential coordinates of ``_potentials``
    rooted at the first walk's start; the map is invertible, so the greedy
    choice is the one edge coordinates would make. A walk that lassos maps
    to (record, k) is the lasso W.C^k.rev(W) of the record's base W and
    cycle C, whose row ``_lasso_row`` composes without reading the walk;
    each cycle is read once, which also checks it. Every other walk is
    read, and checked, as it is. Walks are read only until the rank reaches
    |E|. Fewer than |E| independent walks is a RankDeficientError, worded
    with what the walks are.
    """
    m = g.edge_count
    coords: list[tuple[int, int | None]] = []
    echelon = _Echelon()
    picks: list[int] = []
    rows: list[dict[int, int]] = []
    cycle_rows: dict[Walk, dict[int, int]] = {}
    for i, w in enumerate(walks):
        if echelon.rank == m:
            break
        if not i:
            coords = _potentials(g, w[0])
        lasso = lassos.get(w)
        if lasso is None:
            row = _potential_row(coords, _edge_usage(g, w))
        else:
            rec, k = lasso
            cycle_row = cycle_rows.get(rec.cycle)
            if cycle_row is None:
                cycle_row = cycle_rows[rec.cycle] = _potential_row(coords, _edge_usage(g, rec.cycle))
            row = _lasso_row(g, coords, rec.base, cycle_row, k)
        if echelon.add(row):
            picks.append(i)
            rows.append(row)
    if echelon.rank < m:
        raise RankDeficientError(f"{what} span only {echelon.rank} of {m} directions")
    return _Selection(picks, rows, coords, echelon)


def _select_basis(
    g: Graph, certs: Mapping[int, RevealCertificate], trace: IdentityTrace | None = None
) -> tuple[list[Walk], _Selection]:
    """The minimal basis of ``extract_minimal_basis`` and its selection.

    trace, if given, is the one ``reveal_all`` filled while it built certs
    on g; the rows of the walks it records are then composed, not read.
    """
    pool = _pool_certificate_walks(certs)
    lassos = {}
    if trace is not None:
        for rec in trace.doublings:
            lassos[rec.conjugate_once] = (rec, 1)
            lassos[rec.conjugate_twice] = (rec, 2)
    selection = _select(g, pool, "certificate walks", lassos)
    return [pool[i] for i in selection.picks], selection


def _solve(
    selection: _Selection,
    readings: Sequence[Fraction],
    others: Sequence[tuple[Mapping[int, int], Fraction]] = (),
) -> dict[int, Fraction]:
    """Edge weights from the readings of the chosen walks, in order.

    All readings are scaled to integers over their common denominator D.
    The chosen ones are replayed through the operations that reduced their
    rows, and the potentials back substituted, each of which may scale the
    integers up further, by t and by s, so the potentials come out D * t * s
    times too large. Every equation, the chosen walks' and the others'
    ``(row, reading)`` with rows in the selection's columns, is checked
    against those potentials; the map to edge weights is invertible, so
    this is the check in edge weights. Readings that admit no exact
    solution are reported.
    """
    equations = [(row, Fraction(b)) for row, b in (*zip(selection.rows, readings), *others)]
    d = lcm(*(b.denominator for _, b in equations))
    scaled = [b.numerator * (d // b.denominator) for _, b in equations]
    rhs, t = selection.echelon.replay(scaled[: len(selection.rows)])
    x, s = selection.echelon.back_substitute(rhs=rhs)
    weights = [x[plus] if minus is None else x[plus] - x[minus] for plus, minus in selection.coords]
    for (row, _), r in zip(equations, scaled):
        if sum(c * x[j] for j, c in row.items()) != r * t * s:
            raise InconsistentMeasurementsError("measurements admit no exact solution")
    denom = d * t * s
    return {e: Fraction(w, denom) for e, w in enumerate(weights)}


def extract_minimal_basis(g: Graph, certs: Mapping[int, RevealCertificate]) -> list[Walk]:
    """Greedily select |E| independent walks from flattened certificates.

    The pool is every certificate walk in edge-id order; walks that do not
    grow the rank are skipped, and the pool is read only until the rank
    reaches |E|. The result always has exactly |E| walks of full rank, or
    the pool is genuinely rank deficient and that is an error.
    """
    return _select_basis(g, certs)[0]


def recover_weights(
    g_topology: Graph, walks: Sequence[Walk], measurements: Sequence[Fraction]
) -> dict[int, Fraction]:
    """Solve for all edge weights from measured walk weights, exactly.

    The walks are selected as a basis is (``_select``): the first |E| whose
    tree-potential rows are independent, or a RankDeficientError if the
    walks span fewer directions. Their measurements are replayed through
    the selection's row operations and back substituted, and then every
    equation, chosen or not, is checked against the solution in integers;
    measurements that admit no exact solution are reported.
    """
    if len(walks) != len(measurements):
        raise PreconditionError("walks and measurements must align one to one")
    selection = _select(g_topology, walks, "measuring walks")
    chosen = set(selection.picks)
    others = [
        (_potential_row(selection.coords, _edge_usage(g_topology, w)), b)
        for i, (w, b) in enumerate(zip(walks, measurements))
        if i not in chosen
    ]
    return _solve(selection, [measurements[i] for i in selection.picks], others)


def verify_certificate(g: Graph, cert: RevealCertificate) -> bool:
    """Check the weight-independent identity behind a flattened certificate.

    True iff the summed usage counts of the certificate walks are the
    target coefficient on the target edge and zero on every other edge.
    This never looks at weights, so it certifies the identity for every
    weighting at once. Usage counts are kept sparse, so the check takes
    time linear in the total length of the walks.
    """
    if cert.edge_terms:
        raise PreconditionError("verify_certificate needs a flattened certificate")
    balance = {cert.target: -cert.target_coefficient}
    for c, w in cert.terms:
        for e, k in _edge_usage(g, w).items():
            balance[e] = balance.get(e, 0) + c * k
    return not any(balance.values())
