r"""Command-line interface: check, reveal, recover, enumerate.

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

Weights are integers or p/q rationals. Lines end at ``\n``, ``\r\n`` or a
lone ``\r``, and at nothing else, so a form feed or other Unicode break
inside a comment stays in the comment. A vertex count above 2|E| + 1 is a
parse error, because some vertex would have no edge, and so are a file
that is not valid UTF-8 and a number past Python's int-string digit
limit.

``_run`` loads the graph file once and hands the parsed Graph and the
parsed arguments to the handler its subcommand names; it alone turns
errors into exit codes: 0 success/affirmative, 1 domain-negative (not
odometric, recovery mismatch), 2 usage or parse error, a transcript that
cannot be written, a walk count too long to print, or stdout closed early.
Output ordering is deterministic, so identical invocations produce
byte-identical output.

``reveal --format json`` and the ``recover --oracle-transcript`` file are
written straight from the certificates, basis and readings by fixed
templates of their two schemas (see the README), one join per walk, and
are byte for byte what ``json.dumps(payload, indent=2)`` writes for the
same lists and dicts.

``enumerate`` reads the span straight from the walk search, which stops
once the span is full, and counts the walks by the non-backtracking
transfer count, so a full span never waits for the rest of an exponential
enumeration; ``--list`` alone runs the whole search, a second time.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction

from .errors import GraphFormatError, NotOdometricError, OdographError
from .graph import Graph, is_connected, low_degree_vertices, odometric_defect
from .oracle import Odometer, _count_closed_nb_walks, iter_closed_nb_walks, revealable_span
from .revealer import reveal_all
from .solver import _plan, _solve

_HEADER = "odometry-graph v1"
# the only line ends; str.splitlines also breaks at \f, \x85, U+2028 and more
_LINE_END = re.compile(r"\r\n?|\n")
# ASCII digits only: str.isdigit and int() also accept other Unicode digits
_COUNT_RE = re.compile(r"[0-9]+")
_INDEX_RE = re.compile(r"[+-]?[0-9]+")
_RATIONAL_RE = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def _int(numeral: str, lineno: int) -> int:
    try:
        return int(numeral)
    except ValueError:  # a checked numeral fails only on the int-string digit limit
        digits = len(numeral.lstrip("+-"))
        raise GraphFormatError(
            f"number of {digits} digits exceeds the {sys.get_int_max_str_digits()}-digit limit",
            lineno,
        ) from None


def parse_graph_text(text: str) -> Graph:
    """Parse the v1 graph format into a weighted Graph."""
    vertex_count: int | None = None
    count_line = 0
    edges: list[tuple[int, int]] = []
    weights: list[Fraction] = []
    seen: set[tuple[int, int]] = set()
    header_done = False
    for lineno, raw in enumerate(_LINE_END.split(text), start=1):
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
            vertex_count = _int(fields[1], lineno)
            count_line = lineno
        elif fields[0] == "e":
            if vertex_count is None:
                raise GraphFormatError("edge line before vertex-count line", lineno)
            if len(fields) != 4:
                raise GraphFormatError("expected 'e <u> <v> <weight>'", lineno)
            if not (_INDEX_RE.fullmatch(fields[1]) and _INDEX_RE.fullmatch(fields[2])):
                raise GraphFormatError("vertex indices must be integers", lineno)
            u, v = _int(fields[1], lineno), _int(fields[2], lineno)
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
            rational = _RATIONAL_RE.fullmatch(fields[3])
            if not rational:
                raise GraphFormatError(f"malformed weight '{fields[3]}'", lineno)
            numerator, denominator = rational.groups()
            denominator = _int(denominator or "1", lineno)
            if not denominator:
                raise GraphFormatError("weight has zero denominator", lineno)
            edges.append(key)
            weights.append(Fraction(_int(numerator, lineno), denominator))
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
        lineno = len(_LINE_END.split(data[: exc.start].decode("utf-8")))
        raise GraphFormatError("file is not valid UTF-8 text", lineno) from None
    return parse_graph_text(text)


def _array(items: list[str], indent: str) -> str:
    """Written JSON items as one array, laid out as ``json.dumps(..., indent=2)``
    lays out an array whose closing bracket sits at indent."""
    if not items:
        return "[]"
    return "[" + indent + "  " + ("," + indent + "  ").join(items) + indent + "]"


def _reveal_json(g: Graph, start: int, certs, basis) -> str:
    """``json.dumps(payload, indent=2)`` of reveal's JSON schema, byte for
    byte; each walk is one join over the graph's vertex numerals."""
    name = [str(v) for v in range(g.vertex_count)].__getitem__
    certificates = []
    for e, cert in certs.items():
        u, v = g.endpoints(e)
        terms = [
            f'{{\n          "c": {c},\n          "walk": [\n            '
            + ",\n            ".join(map(name, w))
            + "\n          ]\n        }"
            for c, w in cert.terms
        ]
        certificates.append(
            f'{{\n      "edge": [\n        {u},\n        {v}\n      ],\n      "edge_id": {e},'
            f'\n      "c_e": {cert.target_coefficient},\n      "terms": '
            + _array(terms, "\n      ")
            + "\n    }"
        )
    text = (
        f'{{\n  "start": {start},\n  "edge_count": {g.edge_count},\n  "certificates": '
        + _array(certificates, "\n  ")
    )
    if basis is not None:
        walks = ["[\n        " + ",\n        ".join(map(name, w)) + "\n      ]" for w in basis]
        text += (
            f',\n  "minimal_basis": {{\n    "rank": {len(basis)},\n    "walks": '
            + _array(walks, "\n    ")
            + "\n  }"
        )
    return text + "\n}"


def _transcript_json(g: Graph, basis, measurements) -> str:
    """``json.dumps(entries, indent=2)`` of the recover transcript, byte for
    byte. A reading with more digits than the int-string limit raises
    ValueError."""
    name = [str(v) for v in range(g.vertex_count)].__getitem__
    entries = [
        '{\n    "walk": [\n      '
        + ",\n      ".join(map(name, w))
        + '\n    ],\n    "measurement": '
        + json.dumps(str(m))
        + "\n  }"
        for w, m in zip(basis, measurements)
    ]
    return _array(entries, "\n")


def _fmt_edge(g: Graph, edge_id: int) -> str:
    u, v = g.endpoints(edge_id)
    return f"{{{u},{v}}}"


def _fmt_walk(w) -> str:
    return "[" + ",".join(str(v) for v in w) + "]"


def _signed_sum(terms) -> str:
    """``a - b + c`` from (coefficient, unsigned term) pairs, leaving out
    zero coefficients; the first term's sign is unspaced, and + is dropped."""
    text = " ".join(("- " if c < 0 else "+ ") + term for c, term in terms if c)
    return ("-" if text.startswith("-") else "") + text[2:]


def cmd_check(g: Graph, args: argparse.Namespace) -> int:
    print(f"vertices: {g.vertex_count}")
    print(f"edges: {g.edge_count}")
    print(f"connected: {'yes' if g.vertex_count and is_connected(g) else 'no'}")
    if g.vertex_count:
        print(f"minimum degree: {min(g.degree(v) for v in range(g.vertex_count))}")
    low = low_degree_vertices(g)
    if low:
        print("low-degree vertices: " + " ".join(str(v) for v in low))
    defect = odometric_defect(g)
    if defect is not None:
        raise defect
    print("ODOMETRIC")
    return 0


def cmd_reveal(g: Graph, args: argparse.Namespace) -> int:
    if args.minimal:
        certs, basis, _ = _plan(g, args.start)
    else:
        certs, basis = reveal_all(g, args.start), None
    if args.format == "json":
        print(_reveal_json(g, args.start, certs, basis))
        return 0
    for e, cert in certs.items():
        terms = _signed_sum((c, f"{abs(c)}*F{_fmt_walk(w)}") for c, w in cert.terms)
        print(f"edge {_fmt_edge(g, e)}: {cert.target_coefficient}*w = {terms}")
    if basis is not None:
        print(f"minimal basis: {len(basis)} walks, rank {len(basis)}")
        for i, w in enumerate(basis):
            print(f"  walk {i}: {_fmt_walk(w)}")
    return 0


def cmd_recover(g: Graph, args: argparse.Namespace) -> int:
    transcript_path = args.oracle_transcript
    topology = g.without_weights()
    # the solve replays this selection's row operations on the readings
    _, basis, selection = _plan(topology, args.start)
    odo = Odometer(g, args.start)
    measurements = [odo.measure(w) for w in basis]
    recovered = _solve(selection, measurements)
    if transcript_path is not None:
        try:
            text = _transcript_json(g, basis, measurements)
        except ValueError:  # str() of an int past the int-string digit limit
            print(
                f"error: cannot write '{transcript_path}': a reading exceeds the "
                f"{sys.get_int_max_str_digits()}-digit limit",
                file=sys.stderr,
            )
            return 2
        try:
            with open(transcript_path, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            print(f"error: cannot write '{transcript_path}': {exc.strerror}", file=sys.stderr)
            return 2
    for e in range(g.edge_count):
        print(f"edge {_fmt_edge(g, e)}: recovered {recovered[e]}, true {g.weight(e)}")
    exact = all(recovered[e] == g.weight(e) for e in range(g.edge_count))
    print(f"queries: {odo.query_count}")
    print("EXACT MATCH" if exact else "MISMATCH")
    return 0 if exact else 1


def cmd_enumerate(g: Graph, args: argparse.Namespace) -> int:
    cap = args.max_len if args.max_len is not None else 2 * g.edge_count + 3
    report = revealable_span(g, args.start, cap)
    count = _count_closed_nb_walks(g, args.start, cap)
    try:
        line = f"closed non-backtracking walks from {args.start} with at most {cap} edges: {count}"
    except ValueError:  # str() of an int past the int-string digit limit
        print(f"error: walk count exceeds the {sys.get_int_max_str_digits()}-digit limit", file=sys.stderr)
        return 2
    print(line)
    if args.list:
        for w in iter_closed_nb_walks(g, args.start, cap):
            print(f"  {_fmt_walk(w)}")
    print(f"edges: {g.edge_count}")
    full = " (full)" if report.rank == g.edge_count else ""
    print(f"rank: {report.rank} of {g.edge_count}{full}")
    if report.rank < g.edge_count:
        print(f"rank deficient: {g.edge_count - report.rank} undetermined direction(s)")
        for rel in report.relations:
            shift = _signed_sum(
                (c, ("" if abs(c) == 1 else f"{abs(c)}*") + f"w{_fmt_edge(g, e)}") for e, c in enumerate(rel)
            )
            print(f"invisible shift: {shift}")
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
    p_check.set_defaults(handler=cmd_check)
    p_check.add_argument("file")

    p_reveal = sub.add_parser("reveal", help="emit a reveal certificate for every edge")
    p_reveal.set_defaults(handler=cmd_reveal)
    p_reveal.add_argument("file")
    p_reveal.add_argument("--start", type=int, default=0, metavar="V")
    p_reveal.add_argument("--minimal", action="store_true", help="also extract a minimal measuring basis")
    p_reveal.add_argument("--format", choices=("text", "json"), default="text")

    p_recover = sub.add_parser("recover", help="recover all weights via the internal odometer")
    p_recover.set_defaults(handler=cmd_recover)
    p_recover.add_argument("file")
    p_recover.add_argument("--start", type=int, default=0, metavar="V")
    p_recover.add_argument(
        "--oracle-transcript",
        metavar="PATH",
        help="dump measured (walk, weight) pairs as JSON",
    )

    p_enum = sub.add_parser("enumerate", help="enumerate closed non-backtracking walks and their span")
    p_enum.set_defaults(handler=cmd_enumerate)
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
        return args.handler(_load(args.file), args)
    except NotOdometricError as exc:
        print(f"NOT ODOMETRIC ({exc})")
        return 1
    except OdographError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


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
