"""Traced replay of one CLI op, for the per-layer metrics.

``replay`` makes the same library calls, in the same order and with the
same arguments, as ``odograph.cli`` does for ``recover``, ``reveal
--minimal`` or ``enumerate``, and records a span around each call. While it
runs, every ``odograph.decomposition`` function that ``odograph.revealer``
imports, and every public ``BlockCutTree`` method, is swapped for a
span-recording wrapper, so ``revealer.reveal_s`` is reveal's self time
with decomposition taken out. Nothing inside the library is changed; the
wrappers are removed when the replay ends, so untraced ops never see them.

After the CLI-equivalent calls, recover and reveal also time
``verify_certificate`` on every certificate. The CLI never calls it, so it
is kept out of the replay's total and out of ``trace.overhead_ratio``.
"""

from __future__ import annotations

import inspect
import time
from types import SimpleNamespace

from checks import usage
from gen import Instance

DECOMPOSITION = "decomposition"

TIME_METRICS = (
    "cli.parse_s",
    "graph.check_s",
    "decomposition.s",
    "revealer.reveal_s",
    "revealer.flatten_s",
    "solver.basis_s",
    "solver.rank_s",
    "solver.solve_s",
    "solver.verify_s",
    "oracle.measure_s",
    "oracle.enumerate_s",
    "oracle.span_s",
)
SUM_COUNTS = (
    "decomposition.calls",
    "decomposition.blocks",
    "decomposition.cut_vertices",
    "decomposition.bridges",
    "revealer.edge_refs",
    "solver.pool_walks",
    "oracle.queries",
    "oracle.walk_edges",
    "oracle.walks_enumerated",
    "oracle.unique_vectors",
)
MAX_COUNTS = (
    "revealer.cert_terms_max",
    "revealer.cert_coef_max",
    "revealer.walk_edges_max",
)


class Tracer:
    """In-memory spans ``[name, parent index, start, end]`` for one op."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._in_decomposition = 0

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, time.perf_counter(), 0.0])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, index: int) -> None:
        self.spans[index][3] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        """A wrapper that records one span per outermost decomposition call."""

        def traced(*args, **kwargs):
            if self._in_decomposition:
                return fn(*args, **kwargs)
            self._in_decomposition += 1
            index = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(index)
                self._in_decomposition -= 1

        return traced


def _patch_decomposition(od: SimpleNamespace, tracer: Tracer) -> list[tuple[object, str, object]]:
    saved = []
    for name, obj in list(vars(od.revealer).items()):
        if inspect.isfunction(obj) and obj.__module__ == od.decomposition.__name__:
            saved.append((od.revealer, name, obj))
    cls = od.decomposition.BlockCutTree
    for name, obj in list(vars(cls).items()):
        if inspect.isfunction(obj) and not name.startswith("_"):
            saved.append((cls, name, obj))
    for owner, name, obj in saved:
        setattr(owner, name, tracer.wrap(f"{DECOMPOSITION}.{name}", obj))
    return saved


def _restore(saved: list[tuple[object, str, object]]) -> None:
    for owner, name, obj in saved:
        setattr(owner, name, obj)


def _certificate_counts(od, g, certs, flat, counts: dict) -> None:
    bct = od.decomposition.block_cut_tree(g)
    counts["decomposition.blocks"] = len(bct.blocks)
    counts["decomposition.cut_vertices"] = len(bct.cut_vertices)
    counts["decomposition.bridges"] = sum(1 for b in bct.blocks if b.is_bridge)
    counts["revealer.edge_refs"] = sum(len(c.edge_terms) for c in certs.values())
    counts["revealer.cert_terms_max"] = max(len(c.terms) for c in flat.values())
    counts["revealer.cert_coef_max"] = max(abs(k) for c in flat.values() for k, _ in c.terms)
    counts["revealer.walk_edges_max"] = max(len(w) - 1 for c in flat.values() for _, w in c.terms)


def _pool_scan(flat, basis, counts: dict) -> None:
    """Pool size, and the pool walks scanned before the basis's last pick."""
    position: dict[tuple, int] = {}
    for e in sorted(flat):
        for _, w in flat[e].terms:
            position.setdefault(w, len(position))
    counts["solver.pool_walks"] = len(position)
    counts["solver.scanned"] = position[basis[-1]] + 1


def replay(od: SimpleNamespace, command: str, inst: Instance, text: str, cap: int | None):
    """Replay one op traced. Returns (outputs, counts, tracer, seconds).

    ``seconds`` covers the CLI-equivalent calls only.
    """
    tracer = Tracer()
    saved = _patch_decomposition(od, tracer)
    counts: dict[str, float] = {"edges": len(inst.edges)}
    start = inst.start
    try:
        t0 = time.perf_counter()
        s = tracer.begin("cli.parse")
        g = od.cli.parse_graph_text(text)
        tracer.end(s)
        if command == "enumerate":
            s = tracer.begin("graph.check")
            ok = 0 <= start < g.vertex_count
            tracer.end(s)
            s = tracer.begin("oracle.enumerate")
            walks = od.oracle.enumerate_closed_nb_walks(g, start, cap)
            tracer.end(s)
            s = tracer.begin("oracle.span")
            report = od.oracle.span_report(g, walks)
            tracer.end(s)
            seconds = time.perf_counter() - t0
            counts["oracle.walks_enumerated"] = len(walks)
            counts["oracle.unique_vectors"] = len(
                {tuple(sorted(usage(inst, w).items())) for w in walks}
            )
            outputs = {
                "ok": ok,
                "walk_count": len(walks),
                "rank": report.rank,
                "relations": [tuple(r) for r in report.relations],
            }
            return outputs, counts, tracer, seconds

        s = tracer.begin("graph.check")
        ok = 0 <= start < g.vertex_count and od.graph.is_odometric(g)
        subject = g.without_weights() if command == "recover" else g
        tracer.end(s)
        s = tracer.begin("revealer.reveal")
        certs = od.revealer.reveal_all(subject, start)
        tracer.end(s)
        s = tracer.begin("revealer.flatten")
        flat = {e: od.revealer.flatten(certs[e], certs) for e in sorted(certs)}
        tracer.end(s)
        s = tracer.begin("solver.basis")
        basis = od.solver.extract_minimal_basis(subject, flat)
        tracer.end(s)
        outputs = {
            "ok": ok,
            "walks": [tuple(w) for w in basis],
            "certificates": [(c.target_coefficient, tuple(c.terms)) for c in flat.values()],
        }
        if command == "recover":
            s = tracer.begin("oracle.measure")
            odo = od.oracle.Odometer(g, start)
            measurements = [odo.measure(w) for w in basis]
            tracer.end(s)
            s = tracer.begin("solver.solve")
            recovered = od.solver.recover_weights(subject, basis, measurements)
            tracer.end(s)
            outputs["measurements"] = measurements
            outputs["recovered"] = [recovered[e] for e in range(g.edge_count)]
            counts["oracle.queries"] = odo.query_count
            counts["oracle.walk_edges"] = sum(len(w) - 1 for w in basis)
        else:
            s = tracer.begin("solver.rank")
            outputs["rank"] = od.solver.rational_rank(od.solver.build_walk_matrix(g, basis))
            tracer.end(s)
        seconds = time.perf_counter() - t0
        s = tracer.begin("solver.verify")
        outputs["verified"] = all(od.solver.verify_certificate(subject, c) for c in flat.values())
        tracer.end(s)
    finally:
        _restore(saved)
    _certificate_counts(od, subject, certs, flat, counts)
    _pool_scan(flat, basis, counts)
    return outputs, counts, tracer, seconds


def layer_times(tracer: Tracer) -> dict[str, float]:
    """Per-layer seconds for one op; reveal is self time net of decomposition."""
    times = dict.fromkeys(TIME_METRICS, 0.0)
    calls = 0
    for name, parent, t0, t1 in tracer.spans:
        if name.startswith(DECOMPOSITION + "."):
            calls += 1
            times["decomposition.s"] += t1 - t0
            if parent >= 0 and tracer.spans[parent][0] == "revealer.reveal":
                times["revealer.reveal_s"] -= t1 - t0
        else:
            times[name + "_s"] += t1 - t0
    times["decomposition.calls"] = calls
    return times
