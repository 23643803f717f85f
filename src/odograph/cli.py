"""Command-line interface: check, reveal, recover, enumerate.

Graph files look like:

    odometry-graph v1
    # K4 with weights 1..6
    n 4
    e 0 1 1
    e 0 2 2
    e 0 3 3
    e 1 2 4
    e 1 3 5
    e 2 3 6

Weights are integers or p/q rationals. A vertex count above 2|E| + 1 is a
parse error, because some vertex would have no edge, and so is a file
that is not valid UTF-8. Exit codes: 0
success/affirmative, 1 domain-negative (not odometric, recovery mismatch),
2 usage or parse error, or stdout closed early. Output ordering is
deterministic, so identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction

from .errors import GraphFormatError, NotOdometricError, OdographError
from .graph import Graph, is_connected, is_odometric, low_degree_vertices
from .oracle import Odometer, enumerate_closed_nb_walks, span_report
from .revealer import reveal_all
from .solver import extract_minimal_basis, recover_weights

_HEADER = "odometry-graph v1"
# ASCII digits only: str.isdigit and int() also accept other Unicode digits
_COUNT_RE = re.compile(r"[0-9]+")
_INDEX_RE = re.compile(r"[+-]?[0-9]+")
_RATIONAL_RE = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def parse_graph_text(text: str) -> Graph:
    """Parse the v1 graph format into a weighted Graph."""
    vertex_count: int | None = None
    count_line = 0
    edges: list[tuple[int, int]] = []
    weights: list[Fraction] = []
    seen: set[tuple[int, int]] = set()
    header_done = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if not header_done:
            if line != _HEADER:
                raise GraphFormatError(f"expected header '{_HEADER}'", lineno)
            header_done = True
            continue
        fields = line.split()
        if fields[0] == "n":
            if vertex_count is not None:
                raise GraphFormatError("repeated vertex-count line", lineno)
            if len(fields) != 2 or not _COUNT_RE.fullmatch(fields[1]):
                raise GraphFormatError("expected 'n <vertex_count>'", lineno)
            vertex_count = int(fields[1])
            count_line = lineno
        elif fields[0] == "e":
            if vertex_count is None:
                raise GraphFormatError("edge line before vertex-count line", lineno)
            if len(fields) != 4:
                raise GraphFormatError("expected 'e <u> <v> <weight>'", lineno)
            if not (_INDEX_RE.fullmatch(fields[1]) and _INDEX_RE.fullmatch(fields[2])):
                raise GraphFormatError("vertex indices must be integers", lineno)
            u, v = int(fields[1]), int(fields[2])
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise GraphFormatError(
                    f"vertex index out of range 0..{vertex_count - 1}", lineno
                )
            if u == v:
                raise GraphFormatError(f"self-loop at vertex {u}", lineno)
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise GraphFormatError(f"duplicate edge {{{key[0]},{key[1]}}}", lineno)
            seen.add(key)
            if not _RATIONAL_RE.fullmatch(fields[3]):
                raise GraphFormatError(f"malformed weight '{fields[3]}'", lineno)
            try:
                w = Fraction(fields[3])
            except ZeroDivisionError:
                raise GraphFormatError("weight has zero denominator", lineno) from None
            edges.append(key)
            weights.append(w)
        else:
            raise GraphFormatError(f"unknown directive '{fields[0]}'", lineno)
    if not header_done:
        raise GraphFormatError(f"missing header '{_HEADER}'", 1)
    if vertex_count is None:
        raise GraphFormatError("missing vertex-count line", 1)
    # m edges touch at most 2m vertices; refusing here also keeps an absurd
    # count from allocating one adjacency list per vertex
    if vertex_count > 2 * len(edges) + 1:
        raise GraphFormatError(
            f"vertex count {vertex_count} exceeds 2|E| + 1 = {2 * len(edges) + 1}: "
            "some vertex would have no edge",
            count_line,
        )
    return Graph(vertex_count, edges, weights)


def _load(path: str) -> Graph:
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise GraphFormatError(f"cannot read '{path}': {exc.strerror}") from None
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise GraphFormatError("file is not valid UTF-8 text", lineno) from None
    return parse_graph_text(text)


def _json(x, indent: str = "\n") -> str:
    """``json.dumps(x, indent=2)``, byte for byte, for dicts with string
    keys, lists, tuples and scalars. The standard indenting encoder is pure
    Python; this one writes a list of ints, such as a walk, in one join."""
    inner = indent + "  "
    if isinstance(x, dict):
        if not x:
            return "{}"
        body = ("," + inner).join(f"{json.dumps(k)}: {_json(v, inner)}" for k, v in x.items())
        return "{" + inner + body + indent + "}"
    if isinstance(x, (list, tuple)):
        if not x:
            return "[]"
        items = map(repr, x) if {*map(type, x)} == {int} else (_json(v, inner) for v in x)
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    return repr(x) if type(x) is int else json.dumps(x)


def _fmt_edge(g: Graph, edge_id: int) -> str:
    u, v = g.endpoints(edge_id)
    return f"{{{u},{v}}}"


def _fmt_walk(w) -> str:
    return "[" + ",".join(str(v) for v in w) + "]"


def _fmt_terms(terms) -> str:
    parts: list[str] = []
    for c, w in terms:
        mag = f"{abs(c)}*F{_fmt_walk(w)}"
        if not parts:
            parts.append(mag if c > 0 else "-" + mag)
        else:
            parts.append(("+ " if c > 0 else "- ") + mag)
    return " ".join(parts)


def _not_odometric_line(g: Graph) -> str:
    low = low_degree_vertices(g)
    if low:
        v = low[0]
        return f"NOT ODOMETRIC (vertex {v} has degree {g.degree(v)})"
    return "NOT ODOMETRIC (graph is disconnected)"


def cmd_check(path: str) -> int:
    g = _load(path)
    print(f"vertices: {g.vertex_count}")
    print(f"edges: {g.edge_count}")
    print(f"connected: {'yes' if g.vertex_count and is_connected(g) else 'no'}")
    if g.vertex_count:
        print(f"minimum degree: {min(g.degree(v) for v in range(g.vertex_count))}")
    low = low_degree_vertices(g)
    if low:
        print("low-degree vertices: " + " ".join(str(v) for v in low))
    if is_odometric(g):
        print("ODOMETRIC")
        return 0
    print(_not_odometric_line(g))
    return 1


def cmd_reveal(path: str, start: int, minimal: bool, fmt: str) -> int:
    g = _load(path)
    if not 0 <= start < g.vertex_count:
        print(f"error: start vertex {start} out of range", file=sys.stderr)
        return 2
    if not is_odometric(g):
        print(_not_odometric_line(g))
        return 1
    certs = reveal_all(g, start)
    basis = None
    if minimal:
        basis = extract_minimal_basis(g, certs)
    if fmt == "json":
        payload: dict = {
            "start": start,
            "edge_count": g.edge_count,
            "certificates": [
                {
                    "edge": list(g.endpoints(e)),
                    "edge_id": e,
                    "c_e": cert.target_coefficient,
                    "terms": [{"c": c, "walk": list(w)} for c, w in cert.terms],
                }
                for e, cert in certs.items()
            ],
        }
        if basis is not None:
            payload["minimal_basis"] = {
                "rank": len(basis),
                "walks": [list(w) for w in basis],
            }
        print(_json(payload))
        return 0
    for e, cert in certs.items():
        print(
            f"edge {_fmt_edge(g, e)}: {cert.target_coefficient}*w = {_fmt_terms(cert.terms)}"
        )
    if basis is not None:
        print(f"minimal basis: {len(basis)} walks, rank {len(basis)}")
        for i, w in enumerate(basis):
            print(f"  walk {i}: {_fmt_walk(w)}")
    return 0


def cmd_recover(path: str, start: int, transcript_path: str | None) -> int:
    g = _load(path)
    if not 0 <= start < g.vertex_count:
        print(f"error: start vertex {start} out of range", file=sys.stderr)
        return 2
    if not is_odometric(g):
        print(_not_odometric_line(g))
        return 1
    topology = g.without_weights()
    basis = extract_minimal_basis(topology, reveal_all(topology, start))
    odo = Odometer(g, start)
    measurements = [odo.measure(w) for w in basis]
    recovered = recover_weights(topology, basis, measurements)
    if transcript_path is not None:
        entries = [
            {"walk": list(w), "measurement": str(m)}
            for w, m in zip(basis, measurements)
        ]
        try:
            with open(transcript_path, "w", encoding="utf-8") as fh:
                fh.write(_json(entries) + "\n")
        except OSError as exc:
            print(f"error: cannot write '{transcript_path}': {exc.strerror}", file=sys.stderr)
            return 2
    exact = True
    for e in range(g.edge_count):
        true_w = g.weight(e)
        got = recovered[e]
        if got != true_w:
            exact = False
        print(f"edge {_fmt_edge(g, e)}: recovered {got}, true {true_w}")
    print(f"queries: {odo.query_count}")
    print("EXACT MATCH" if exact else "MISMATCH")
    return 0 if exact else 1


def _fmt_relation(g: Graph, relation: tuple[int, ...]) -> str:
    parts: list[str] = []
    for e, c in enumerate(relation):
        if not c:
            continue
        mag = f"{abs(c)}*" if abs(c) != 1 else ""
        sym = f"{mag}w{_fmt_edge(g, e)}"
        if not parts:
            parts.append(sym if c > 0 else "-" + sym)
        else:
            parts.append(("+ " if c > 0 else "- ") + sym)
    return " ".join(parts)


def cmd_enumerate(path: str, start: int, max_len: int | None, show_list: bool) -> int:
    g = _load(path)
    if not 0 <= start < g.vertex_count:
        print(f"error: start vertex {start} out of range", file=sys.stderr)
        return 2
    cap = max_len if max_len is not None else 2 * g.edge_count + 3
    walks = enumerate_closed_nb_walks(g, start, cap)
    print(f"closed non-backtracking walks from {start} with at most {cap} edges: {len(walks)}")
    if show_list:
        for w in walks:
            print(f"  {_fmt_walk(w)}")
    report = span_report(g, walks)
    print(f"edges: {g.edge_count}")
    full = " (full)" if report.rank == g.edge_count else ""
    print(f"rank: {report.rank} of {g.edge_count}{full}")
    if report.rank < g.edge_count:
        missing = g.edge_count - report.rank
        print(f"rank deficient: {missing} undetermined direction(s)")
        for rel in report.relations:
            print(f"invisible shift: {_fmt_relation(g, rel)}")
        if report.rank == 1:
            print("note: only cycle multiples observable")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="odograph",
        description="Recover edge weights of a graph from closed non-backtracking walk weights.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="parse a graph file and test odometric-ness")
    p_check.add_argument("file")

    p_reveal = sub.add_parser("reveal", help="emit a reveal certificate for every edge")
    p_reveal.add_argument("file")
    p_reveal.add_argument("--start", type=int, default=0, metavar="V")
    p_reveal.add_argument("--minimal", action="store_true", help="also extract a minimal measuring basis")
    p_reveal.add_argument("--format", choices=("text", "json"), default="text")

    p_recover = sub.add_parser("recover", help="recover all weights via the internal odometer")
    p_recover.add_argument("file")
    p_recover.add_argument("--start", type=int, default=0, metavar="V")
    p_recover.add_argument(
        "--oracle-transcript",
        metavar="PATH",
        help="dump measured (walk, weight) pairs as JSON",
    )

    p_enum = sub.add_parser("enumerate", help="enumerate closed non-backtracking walks and their span")
    p_enum.add_argument("file")
    p_enum.add_argument("--start", type=int, default=0, metavar="V")
    p_enum.add_argument("--max-len", type=int, default=None, metavar="L", help="edge-count cap (default 2|E|+3)")
    p_enum.add_argument("--list", action="store_true", help="print every walk")

    return parser


def _run(argv: list[str] | None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "check":
            return cmd_check(args.file)
        if args.command == "reveal":
            return cmd_reveal(args.file, args.start, args.minimal, args.format)
        if args.command == "recover":
            return cmd_recover(args.file, args.start, args.oracle_transcript)
        if args.command == "enumerate":
            return cmd_enumerate(args.file, args.start, args.max_len, args.list)
    except GraphFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NotOdometricError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OdographError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError("unreachable command dispatch")


def main(argv: list[str] | None = None) -> int:
    try:
        rc = _run(argv)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early (say, `| head -1`). Point stdout at
        # devnull so that the flush at interpreter exit cannot fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 2
    return rc


if __name__ == "__main__":
    raise SystemExit(main())
