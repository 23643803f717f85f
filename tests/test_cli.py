import contextlib
import io
import json
import os
import random
import re
import subprocess
import sys
import textwrap
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import odograph
from odograph import (
    Graph,
    GraphFormatError,
    Odometer,
    enumerate_closed_nb_walks,
    extract_minimal_basis,
    is_valid_nb_walk,
    recover_weights,
    reveal_all,
    verify_certificate,
)
from odograph.cli import main, parse_graph_text
from odograph.revealer import RevealCertificate

from conftest import random_min_deg3_edges, random_sparse_low_degree_edges, random_weights
from test_acceptance import _graph_text

K4_TEXT = textwrap.dedent(
    """\
    odometry-graph v1
    # complete graph on four vertices
    n 4
    e 0 1 1
    e 0 2 2
    e 0 3 3
    e 1 2 4
    e 1 3 5
    e 2 3 6
    """
)

C5_TEXT = textwrap.dedent(
    """\
    odometry-graph v1
    n 5
    e 0 1 2
    e 1 2 3
    e 2 3 5
    e 3 4 7
    e 0 4 11
    """
)

SUBDIV_K4_TEXT = textwrap.dedent(
    """\
    odometry-graph v1
    n 5
    e 0 1 1
    e 0 2 1
    e 0 3 1
    e 1 2 1
    e 1 3 1
    e 2 4 1
    e 3 4 1
    """
)

TWO_K4S_TEXT = textwrap.dedent(
    """\
    odometry-graph v1
    n 8
    e 0 1 1
    e 0 2 1
    e 0 3 1
    e 1 2 1
    e 1 3 1
    e 2 3 1
    e 4 5 1
    e 4 6 1
    e 4 7 1
    e 5 6 1
    e 5 7 1
    e 6 7 1
    """
)


@pytest.fixture
def graph_file(tmp_path):
    def write(text, name="g.graph"):
        p = tmp_path / name
        p.write_text(text, encoding="utf-8")
        return str(p)

    return write


# ------------------------------------------------------------------ parsing

# str.splitlines breaks at each of these; the format does not
_NOT_LINE_ENDS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


def test_parse_k4(k4):
    g = parse_graph_text(K4_TEXT)
    assert g.vertex_count == 4 and g.edge_count == 6
    assert g.edges == k4.edges
    assert [g.weight(e) for e in range(6)] == [1, 2, 3, 4, 5, 6]


def test_parse_fraction_and_sign():
    g = parse_graph_text("odometry-graph v1\nn 3\ne 0 1 7/3\ne 1 2 -2\ne 0 2 +9/4\n")
    assert g.weight(0) == Fraction(7, 3)
    assert g.weight(g.edge_id(1, 2)) == -2
    assert g.weight(g.edge_id(0, 2)) == Fraction(9, 4)


def test_parse_comments_and_blank_lines():
    text = "# leading comment\n\nodometry-graph v1\n\nn 2 # trailing\ne 0 1 5\n"
    g = parse_graph_text(text)
    assert g.edge_count == 1 and g.weight(0) == 5


@pytest.mark.parametrize(
    "text,lineno,needle",
    [
        ("odograph v2\nn 2\ne 0 1 1\n", 1, "expected header"),
        ("odometry-graph v1\nn 2\ne 0 0 1\n", 3, "self-loop"),
        ("odometry-graph v1\nn 2\ne 0 1 1\ne 1 0 2\n", 4, "duplicate edge {0,1}"),
        ("odometry-graph v1\nn 2\ne 0 1 1.5\n", 3, "malformed weight"),
        ("odometry-graph v1\nn 2\ne 0 1 x\n", 3, "malformed weight"),
        ("odometry-graph v1\nn 2\ne 0 1 1/0\n", 3, "zero denominator"),
        ("odometry-graph v1\nn 2\nq 0 1 1\n", 3, "unknown directive"),
        ("odometry-graph v1\ne 0 1 1\n", 2, "edge line before vertex-count"),
        ("odometry-graph v1\nn 2\ne 0 5 1\n", 3, "out of range"),
        ("odometry-graph v1\nn 2\nn 3\n", 3, "repeated vertex-count"),
        ("odometry-graph v1\nn two\n", 2, "expected 'n <vertex_count>'"),
        ("odometry-graph v1\nn 2\ne 0 1\n", 3, "expected 'e <u> <v> <weight>'"),
        ("odometry-graph v1\n\nn 4\ne 0 1 1\n", 3, "exceeds 2|E| + 1 = 3"),
        ("odometry-graph v1\r\nn 2\r\ne 0 1 x\r\n", 3, "malformed weight 'x'"),
        ("odometry-graph v1\rn 2\re 0 1 x\r", 3, "malformed weight 'x'"),
        *((f"odometry-graph v1\n# page{c}break\nn 2\ne 0 1 x\n", 4, "malformed weight 'x'") for c in _NOT_LINE_ENDS),
    ],
)
def test_parse_errors_carry_line_numbers(text, lineno, needle):
    with pytest.raises(GraphFormatError) as info:
        parse_graph_text(text)
    assert needle in str(info.value)
    assert f"line {lineno}:" in str(info.value)


def test_parse_missing_header():
    with pytest.raises(GraphFormatError):
        parse_graph_text("# only a comment\n")


def test_parse_missing_vertex_count():
    with pytest.raises(GraphFormatError) as info:
        parse_graph_text("odometry-graph v1\n")
    assert "missing vertex-count" in str(info.value)


def test_parse_error_exit_code(graph_file, capsys):
    path = graph_file("odometry-graph v1\nn 2\ne 0 0 1\n")
    assert main(["check", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: line 3:")


@pytest.mark.parametrize(
    "text,lineno",
    [
        ("odometry-graph v1\nn ²\n", 2),  # superscript two
        ("odometry-graph v1\nn 3\ne 0 ¹ 1\n", 3),  # superscript one
        ("odometry-graph v1\nn 2\ne 0 1 ٣\n", 3),  # Arabic-Indic three
    ],
)
def test_non_ascii_digits_are_parse_errors(graph_file, capsys, text, lineno):
    assert main(["check", graph_file(text)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: line {lineno}:")
    assert "Traceback" not in err


def test_absurd_vertex_count_is_rejected_before_allocating(graph_file, capsys, monkeypatch):
    def no_graph(*args, **kwargs):
        raise AssertionError("Graph built for an absurd vertex count")

    monkeypatch.setattr("odograph.cli.Graph", no_graph)
    path = graph_file("odometry-graph v1\nn 1000000000000\ne 0 1 1\ne 1 2 1\n")
    assert main(["check", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: line 2: vertex count 1000000000000 exceeds")
    monkeypatch.undo()
    # 2|E| + 1 vertices is still a graph, if not an odometric one
    assert parse_graph_text("odometry-graph v1\nn 3\ne 0 1 1\n").vertex_count == 3


_FUZZ_TOKENS = st.one_of(
    st.integers(-2, 12).map(str),
    st.sampled_from(["1000000000000", "7/3", "-2/5", "+1", "1/0", "1.5", "x", "²", "٣", "#"]),
)
_FUZZ_LINES = st.one_of(
    st.builds("n {}".format, st.one_of(st.integers(0, 12), st.just(10**12))),
    st.builds("e {} {} {}".format, st.integers(-1, 12), st.integers(-1, 12), _FUZZ_TOKENS),
    st.lists(st.one_of(_FUZZ_TOKENS, st.sampled_from(["n", "e", "q"])), max_size=5).map(" ".join),
)


@st.composite
def graph_texts(draw):
    """Text in the graph format: usually well formed, sometimes slightly off."""
    lines = ["odometry-graph v1"] if draw(st.integers(0, 9)) else []
    n = draw(st.integers(0, 9))
    n = 10**12 if n == 9 else n
    lines.append(f"n {n}")
    top = min(n, 8) - 1
    pairs = st.tuples(st.integers(0, top), st.integers(0, top)).filter(lambda p: p[0] < p[1])
    for u, v in draw(st.sets(pairs, max_size=28)) if top > 0 else ():
        if draw(st.booleans()):
            u, v = v, u
        weight = draw(_FUZZ_TOKENS) if draw(st.integers(0, 15)) == 0 else draw(st.integers(-9, 9))
        lines.append(f"e {u} {v} {weight}")
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(_FUZZ_LINES))
    return "\n".join(lines)


@settings(max_examples=300, deadline=None)
@given(graph_texts())
def test_check_exit_codes_on_format_shaped_text(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "fuzz.graph"
    path.write_text(text, encoding="utf-8")
    assert main(["check", str(path)]) in (0, 1, 2)


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(
        st.binary(max_size=200),
        st.tuples(graph_texts(), st.binary(min_size=1, max_size=4), st.integers(0, 400)).map(
            lambda t: t[0].encode("utf-8")[: t[2]] + t[1] + t[0].encode("utf-8")[t[2] :]
        ),
    )
)
def test_check_exit_codes_on_arbitrary_bytes(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "fuzz.bytes"
    path.write_bytes(data)
    assert main(["check", str(path)]) in (0, 1, 2)


def test_invalid_utf8_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "bad.graph"
    path.write_bytes(b"odometry-graph v1\nn 4\n\xff\n")
    assert main(["check", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == "error: line 3: file is not valid UTF-8 text\n"


@pytest.mark.parametrize("char", _NOT_LINE_ENDS, ids=[f"U+{ord(c):04X}" for c in _NOT_LINE_ENDS])
def test_unicode_breaks_stay_inside_a_comment(graph_file, capsys, char):
    text = K4_TEXT.replace("# complete graph", f"# complete{char}graph")
    assert main(["check", graph_file(text)]) == 0
    assert capsys.readouterr().out.endswith("\nODOMETRIC\n")


@pytest.mark.parametrize("end", ["\r\n", "\r"], ids=["CRLF", "CR"])
def test_crlf_and_lone_cr_end_lines(tmp_path, capsys, end):
    path = tmp_path / "g.graph"
    path.write_bytes(K4_TEXT.replace("\n", end).encode("utf-8"))
    assert main(["check", str(path)]) == 0
    assert capsys.readouterr().out.endswith("\nODOMETRIC\n")
    # the UTF-8 error counts the same line ends as the parser
    path.write_bytes(end.join(["odometry-graph v1", "n 4", "e 0 1 1\xff"]).encode("latin-1"))
    assert main(["check", str(path)]) == 2
    assert capsys.readouterr().err == "error: line 3: file is not valid UTF-8 text\n"


def test_unreadable_file(capsys):
    assert main(["check", "/nonexistent/nowhere.graph"]) == 2
    assert "cannot read" in capsys.readouterr().err


# -------------------------------------------------------------------- check


def test_check_k4(graph_file, capsys):
    assert main(["check", graph_file(K4_TEXT)]) == 0
    out = capsys.readouterr().out
    assert out == (
        "vertices: 4\nedges: 6\nconnected: yes\nminimum degree: 3\nODOMETRIC\n"
    )


def test_check_c5(graph_file, capsys):
    assert main(["check", graph_file(C5_TEXT)]) == 1
    out = capsys.readouterr().out
    assert out == (
        "vertices: 5\nedges: 5\nconnected: yes\nminimum degree: 2\n"
        "low-degree vertices: 0 1 2 3 4\n"
        "NOT ODOMETRIC (vertex 0 has degree 2)\n"
    )


def test_check_disconnected(graph_file, capsys):
    assert main(["check", graph_file(TWO_K4S_TEXT)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[-1] == "NOT ODOMETRIC (graph is disconnected)"


# ------------------------------------------------------------------- reveal


def test_reveal_text(graph_file, capsys):
    assert main(["reveal", graph_file(K4_TEXT)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 6
    assert lines[0].startswith("edge {0,1}: ")
    for line in lines:
        assert "*w = " in line and "F[" in line


def test_reveal_minimal(graph_file, capsys):
    assert main(["reveal", graph_file(K4_TEXT), "--minimal"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "minimal basis: 6 walks, rank 6" in lines
    walk_lines = [ln for ln in lines if ln.startswith("  walk ")]
    assert len(walk_lines) == 6


def test_reveal_json_roundtrip(graph_file, capsys):
    assert main(["reveal", graph_file(K4_TEXT), "--format", "json", "--minimal"]) == 0
    payload = json.loads(capsys.readouterr().out)
    g = parse_graph_text(K4_TEXT)
    assert payload["start"] == 0 and payload["edge_count"] == 6
    assert len(payload["certificates"]) == 6
    for entry in payload["certificates"]:
        cert = RevealCertificate(
            target=entry["edge_id"],
            target_coefficient=entry["c_e"],
            home=payload["start"],
            terms=tuple((t["c"], tuple(t["walk"])) for t in entry["terms"]),
        )
        assert verify_certificate(g, cert)
        assert sorted(entry["edge"]) == list(g.endpoints(entry["edge_id"]))
    basis = payload["minimal_basis"]
    assert basis["rank"] == 6 and len(basis["walks"]) == 6
    for w in basis["walks"]:
        walk = tuple(w)
        assert walk[0] == walk[-1] == 0
        assert is_valid_nb_walk(g, walk)


def test_reveal_respects_start(graph_file, capsys):
    assert main(["reveal", graph_file(K4_TEXT), "--start", "2", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    g = parse_graph_text(K4_TEXT)
    for entry in payload["certificates"]:
        for t in entry["terms"]:
            assert t["walk"][0] == t["walk"][-1] == 2
        cert = RevealCertificate(
            target=entry["edge_id"],
            target_coefficient=entry["c_e"],
            home=2,
            terms=tuple((t["c"], tuple(t["walk"])) for t in entry["terms"]),
        )
        assert verify_certificate(g, cert)


def test_reveal_bad_start(graph_file, capsys):
    assert main(["reveal", graph_file(K4_TEXT), "--start", "9"]) == 2
    assert "start vertex 9 out of range" in capsys.readouterr().err


def test_reveal_not_odometric(graph_file, capsys):
    assert main(["reveal", graph_file(C5_TEXT)]) == 1
    assert "NOT ODOMETRIC" in capsys.readouterr().out


# ------------------------------------------------------------------ recover


def test_recover_k4_exact(graph_file, capsys):
    assert main(["recover", graph_file(K4_TEXT)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "edge {0,1}: recovered 1, true 1"
    assert lines[5] == "edge {2,3}: recovered 6, true 6"
    assert lines[6] == "queries: 6"
    assert lines[7] == "EXACT MATCH"


def test_recover_fractional(graph_file, capsys):
    text = K4_TEXT.replace("e 0 1 1", "e 0 1 -7/3")
    assert main(["recover", graph_file(text), "--start", "3"]) == 0
    out = capsys.readouterr().out
    assert "edge {0,1}: recovered -7/3, true -7/3" in out
    assert out.rstrip().endswith("EXACT MATCH")


def test_recover_transcript(graph_file, tmp_path, capsys):
    transcript = tmp_path / "trips.json"
    assert main(
        ["recover", graph_file(K4_TEXT), "--oracle-transcript", str(transcript)]
    ) == 0
    capsys.readouterr()
    entries = json.loads(transcript.read_text())
    assert len(entries) == 6
    meter = Odometer(parse_graph_text(K4_TEXT), 0)
    for entry in entries:
        assert meter.measure(tuple(entry["walk"])) == Fraction(entry["measurement"])


# the basis and readings of recover --start 2 on K4_TEXT, as the transcript
# has always written them
K4_FROM_2_TRANSCRIPT = [
    ([2, 0, 1, 3, 0, 2], "13"),
    ([2, 0, 1, 2, 3, 1, 0, 2], "21"),
    ([2, 0, 1, 3, 0, 1, 3, 0, 2], "22"),
    ([2, 0, 1, 2, 3, 1, 2, 3, 1, 0, 2], "36"),
    ([2, 0, 3, 1, 2, 3, 0, 2], "25"),
    ([2, 1, 0, 3, 1, 2], "17"),
]


def test_recover_transcript_bytes_on_k4_from_2(graph_file, tmp_path, capsys):
    transcript = tmp_path / "trips.json"
    argv = ["recover", graph_file(K4_TEXT), "--start", "2", "--oracle-transcript", str(transcript)]
    assert main(argv) == 0
    entries = [{"walk": w, "measurement": m} for w, m in K4_FROM_2_TRANSCRIPT]
    assert transcript.read_bytes() == (json.dumps(entries, indent=2) + "\n").encode()
    lines = capsys.readouterr().out.splitlines()
    assert lines[-2:] == ["queries: 6", "EXACT MATCH"]


_RECOVERED_RE = re.compile(r"edge \{(\d+),(\d+)\}: recovered (\S+), true (\S+)")


@pytest.mark.parametrize(
    "name", ["k4", "petersen", "g_2k4cut", "g_bridge", "star_of_k4s", "chain3_k4s", "h_bridge"]
)
def test_recover_solves_from_its_own_basis_selection(name, request, tmp_path):
    """recover solves from the selection that chose its basis, not through
    recover_weights; from every start, what it prints must be exactly
    recover_weights on the basis and readings it wrote, and the true
    weights."""
    topology = request.getfixturevalue(name).without_weights()
    path, transcript = tmp_path / "g.graph", tmp_path / "trips.json"

    @settings(max_examples=8, deadline=None)
    @given(st.lists(st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6)),
                    min_size=topology.edge_count, max_size=topology.edge_count))
    def check(weights):
        g = odograph.Graph(topology.vertex_count, topology.edges, weights)
        path.write_text(_graph_text(g), encoding="utf-8")
        for start in range(g.vertex_count):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                rc = main(["recover", str(path), "--start", str(start),
                           "--oracle-transcript", str(transcript)])
            assert rc == 0
            entries = json.loads(transcript.read_text(encoding="utf-8"))
            basis = [tuple(e["walk"]) for e in entries]
            readings = [Fraction(e["measurement"]) for e in entries]
            assert basis == extract_minimal_basis(topology, reveal_all(topology, start))
            expected = recover_weights(topology, basis, readings)
            printed = [_RECOVERED_RE.fullmatch(line).groups()
                       for line in out.getvalue().splitlines()[: g.edge_count]]
            assert [(int(u), int(v)) for u, v, _, _ in printed] == list(g.edges)
            assert [Fraction(got) for _, _, got, _ in printed] == [expected[e] for e in range(g.edge_count)]
            assert [Fraction(got) for _, _, got, _ in printed] == list(weights)

    check()


@pytest.mark.parametrize("target", ["missing/trips.json", "."])
def test_recover_unwritable_transcript_is_a_usage_error(graph_file, tmp_path, capsys, target):
    path = str(tmp_path / target)  # a missing directory, or a directory itself
    assert main(["recover", graph_file(K4_TEXT), "--oracle-transcript", path]) == 2
    captured = capsys.readouterr()
    assert re.fullmatch(rf"error: cannot write '{re.escape(path)}': [^\n]+\n", captured.err)
    assert "Traceback" not in captured.err and captured.out == ""


def test_json_outputs_match_the_standard_encoder(graph_file, tmp_path, capsys):
    g = graph_file(K4_TEXT.replace("e 1 2 4", "e 1 2 -4/7"))
    transcript = tmp_path / "trips.json"
    assert main(["recover", g, "--start", "2", "--oracle-transcript", str(transcript)]) == 0
    capsys.readouterr()
    written = transcript.read_text(encoding="utf-8")
    assert json.dumps(json.loads(written), indent=2) + "\n" == written
    assert main(["reveal", g, "--start", "1", "--minimal", "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert json.dumps(json.loads(out), indent=2) + "\n" == out


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(argv)
    return rc, out.getvalue()


@settings(max_examples=40, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(4, 9))
def test_json_writer_matches_json_dumps(tmp_path_factory, rng, n):
    """reveal --format json, with and without --minimal, and the recover
    transcript are json.dumps(payload, indent=2) plus a newline, byte for
    byte, with payload the lists and dicts of the documented schemas built
    from the library's own certificates, basis and readings; from every
    start of a small random min-degree-3 graph with rational weights."""
    edges = random_min_deg3_edges(rng, n)
    g = odograph.Graph(n, edges, random_weights(rng, len(edges)))
    topology = g.without_weights()
    path = tmp_path_factory.getbasetemp() / "writer.graph"
    transcript = tmp_path_factory.getbasetemp() / "writer.json"
    path.write_text(_graph_text(g), encoding="utf-8")
    for start in range(n):
        certs = reveal_all(g, start)
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
        reveal = ["reveal", str(path), "--start", str(start), "--format", "json"]
        assert _run(reveal) == (0, json.dumps(payload, indent=2) + "\n")
        basis = extract_minimal_basis(g, certs)
        payload["minimal_basis"] = {"rank": len(basis), "walks": [list(w) for w in basis]}
        assert _run([*reveal, "--minimal"]) == (0, json.dumps(payload, indent=2) + "\n")

        basis = extract_minimal_basis(topology, reveal_all(topology, start))
        meter = Odometer(g, start)
        entries = [{"walk": list(w), "measurement": str(meter.measure(w))} for w in basis]
        rc, _ = _run(["recover", str(path), "--start", str(start), "--oracle-transcript", str(transcript)])
        assert rc == 0
        assert transcript.read_bytes() == (json.dumps(entries, indent=2) + "\n").encode()


_BASIS_WALK_RE = re.compile(r"  walk (\d+): \[([\d,]+)\]")


@settings(max_examples=25, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(10, 40))
def test_reveal_minimal_basis_is_the_reading_selection(tmp_path_factory, rng, n):
    """reveal --minimal composes each walk's row from its lasso parts;
    extract_minimal_basis reads every walk. The basis printed must be the
    one it returns, from several starts of a random min-degree-3 graph."""
    edges = random_min_deg3_edges(rng, n)
    g = odograph.Graph(n, edges, random_weights(rng, len(edges)))
    path = tmp_path_factory.getbasetemp() / "minimal.graph"
    path.write_text(_graph_text(g), encoding="utf-8")
    for start in rng.sample(range(n), 4):
        rc, out = _run(["reveal", str(path), "--start", str(start), "--minimal"])
        assert rc == 0
        printed = [_BASIS_WALK_RE.fullmatch(line) for line in out.splitlines() if line.startswith("  walk ")]
        assert [int(m[1]) for m in printed] == list(range(g.edge_count))
        basis = [tuple(map(int, m[2].split(","))) for m in printed]
        assert basis == extract_minimal_basis(g, reveal_all(g, start))


def test_recover_not_odometric(graph_file, capsys):
    assert main(["recover", graph_file(C5_TEXT)]) == 1
    assert "NOT ODOMETRIC" in capsys.readouterr().out


# ---------------------------------------------------------------- enumerate


def test_enumerate_k4_full(graph_file, capsys):
    assert main(["enumerate", graph_file(K4_TEXT), "--max-len", "5"]) == 0
    out = capsys.readouterr().out
    assert "closed non-backtracking walks from 0 with at most 5 edges:" in out
    assert "rank: 6 of 6 (full)" in out
    assert "rank deficient" not in out


def test_enumerate_c5_cycle_note(graph_file, capsys):
    assert main(["enumerate", graph_file(C5_TEXT)]) == 0
    out = capsys.readouterr().out
    assert "rank: 1 of 5" in out
    assert "rank deficient: 4 undetermined direction(s)" in out
    assert "note: only cycle multiples observable" in out


def test_enumerate_subdivided_k4_relation(graph_file, capsys):
    assert main(["enumerate", graph_file(SUBDIV_K4_TEXT)]) == 0
    out = capsys.readouterr().out
    assert "rank: 6 of 7" in out
    assert "rank deficient: 1 undetermined direction(s)" in out
    assert "invisible shift: -w{2,4} + w{3,4}" in out
    assert "note:" not in out


def test_enumerate_list(graph_file, capsys):
    assert main(["enumerate", graph_file(K4_TEXT), "--max-len", "3", "--list"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].endswith(": 6")
    listed = [ln for ln in lines if ln.startswith("  [")]
    assert listed[0] == "  [0,1,2,0]"
    assert len(listed) == 6


def test_enumerate_bad_start(graph_file, capsys):
    assert main(["enumerate", graph_file(K4_TEXT), "--start", "-1"]) == 2
    assert "out of range" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text,start,cap",
    [(K4_TEXT, 0, 8), (SUBDIV_K4_TEXT, 4, 12), (SUBDIV_K4_TEXT, 0, 12), (K4_TEXT, 0, 2)],
    ids=["K4 full early", "subdivided K4 from 4, full early", "subdivided K4 from 0, never full", "K4 below 3"],
)
def test_enumerate_counts_and_lists_the_whole_enumeration(graph_file, capsys, text, start, cap):
    """The count and the listed walks are the whole enumeration's, also
    when the span fills every direction before the last walk and when the
    cap is too short for any walk."""
    walks = enumerate_closed_nb_walks(parse_graph_text(text), start, cap)
    assert main(["enumerate", graph_file(text), "--start", str(start), "--max-len", str(cap), "--list"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].endswith(f" edges: {len(walks)}")
    assert lines[1 : 1 + len(walks)] == ["  [" + ",".join(map(str, w)) + "]" for w in walks]
    assert lines[1 + len(walks)].startswith("edges: ")


def test_enumerate_holds_no_enumeration(graph_file, capsys):
    """enumerate reads the span straight from the search, which holds one
    walk at a time, and counts the walks by the transfer count, so its
    memory does not grow with the enumeration even when the span never
    fills: 74,032 walks, which would take about 15 MB as a list, peak
    under 2 MB."""
    path = graph_file(SUBDIV_K4_TEXT)
    tracemalloc.start()
    try:
        assert main(["enumerate", path, "--max-len", "19"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert capsys.readouterr().out.startswith(
        "closed non-backtracking walks from 0 with at most 19 edges: 74032\n"
    )
    assert peak < 2 * 2**20


# the graph file and captured output are rewritten and read in each example
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_enumerate_count_is_the_enumeration_length(graph_file, capsys, data):
    """The printed count, the transfer count, is
    len(enumerate_closed_nb_walks(...)) on random graphs with and without
    vertices of degree 1 or 2, whether or not the span fills early."""
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    if data.draw(st.booleans()):
        n = data.draw(st.integers(3, 7))
        edges = random_sparse_low_degree_edges(rng, n, data.draw(st.integers(0, 4)))
    else:
        n = data.draw(st.integers(4, 6))
        edges = random_min_deg3_edges(rng, n)
    g = Graph(n, edges, [1] * len(edges))
    start = data.draw(st.integers(0, n - 1))
    cap = data.draw(st.integers(3, 12))
    path = graph_file(_graph_text(g))
    assert main(["enumerate", path, "--start", str(start), "--max-len", str(cap)]) == 0
    first = capsys.readouterr().out.splitlines()[0]
    assert first.endswith(f" edges: {len(enumerate_closed_nb_walks(g, start, cap))}")


def test_enumerate_petersen_at_the_default_cap_stops_at_full_rank(graph_file):
    """Petersen from 0 at cap 33 has 2,576,968,548 closed walks, which take
    over an hour to enumerate; the span is full after a few dozen, and the
    count comes from the transfer count. A subprocess with a timeout makes
    a regression fail instead of hanging."""
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    text = _graph_text(Graph(10, outer + inner + spokes, range(2, 17)))
    src = str(Path(__file__).resolve().parent.parent / "src")
    run = subprocess.run(
        [sys.executable, "-m", "odograph", "enumerate", graph_file(text)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60,
    )
    assert (run.returncode, run.stderr) == (0, "")
    assert run.stdout == (
        "closed non-backtracking walks from 0 with at most 33 edges: 2576968548\n"
        "edges: 15\n"
        "rank: 15 of 15 (full)\n"
    )


# -------------------------------------------------------------- determinism


def test_reveal_byte_identical_reruns(graph_file, capsys):
    path = graph_file(K4_TEXT)
    main(["reveal", path, "--minimal"])
    first = capsys.readouterr().out
    main(["reveal", path, "--minimal"])
    assert capsys.readouterr().out == first


def test_recover_byte_identical_reruns(graph_file, capsys):
    path = graph_file(K4_TEXT)
    main(["recover", path, "--start", "1"])
    first = capsys.readouterr().out
    main(["recover", path, "--start", "1"])
    assert capsys.readouterr().out == first


# ----------------------------------------------------------- error contract

_N0_TEXT = "odometry-graph v1\nn 0\n"
_N1_TEXT = "odometry-graph v1\nn 1\n"
_C5_LINE = "NOT ODOMETRIC (vertex 0 has degree 2)\n"
_SPLIT_LINE = "NOT ODOMETRIC (graph is disconnected)\n"
# numerals past Python's default int-string limit of 4,300 digits, and six
# weights at it
_LONG_WEIGHT_TEXT = K4_TEXT.replace("e 0 1 1", "e 0 1 " + "7" * 5000)
_LONG_COUNT_TEXT = K4_TEXT.replace("n 4", "n " + "0" * 4400 + "4")
_LONG_INDEX_TEXT = K4_TEXT.replace("e 1 3 5", "e " + "0" * 4400 + "1 3 5")
_LIMIT_WEIGHTS_TEXT = re.sub(r"(?m)^(e \d \d) \d$", r"\1 " + "9" * 4300, K4_TEXT)


@pytest.fixture
def int_digit_limit():
    """Pin Python's int-string digit limit at its default for one test."""
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(saved)


@pytest.mark.parametrize(
    "command,text,extra,rc,out,err",
    [
        *(
            (command, K4_TEXT, ["--start", start], 2, "", f"error: start vertex {start} out of range\n")
            for command in ("reveal", "recover", "enumerate")
            for start in ("9", "-1")
        ),
        ("reveal", C5_TEXT, [], 1, _C5_LINE, ""),
        ("recover", C5_TEXT, [], 1, _C5_LINE, ""),
        ("reveal", TWO_K4S_TEXT, [], 1, _SPLIT_LINE, ""),
        ("recover", TWO_K4S_TEXT, [], 1, _SPLIT_LINE, ""),
        ("check", _N0_TEXT, [], 1, "vertices: 0\nedges: 0\nconnected: no\n" + _SPLIT_LINE, ""),
        (
            "check", _N1_TEXT, [], 1,
            "vertices: 1\nedges: 0\nconnected: yes\nminimum degree: 0\n"
            "low-degree vertices: 0\nNOT ODOMETRIC (vertex 0 has degree 0)\n",
            "",
        ),
        ("reveal", _N0_TEXT, [], 2, "", "error: start vertex 0 out of range\n"),
        ("reveal", _N1_TEXT, [], 1, "NOT ODOMETRIC (vertex 0 has degree 0)\n", ""),
    ],
)
def test_error_contract_is_exact(graph_file, capsys, command, text, extra, rc, out, err):
    """Exit code, stdout and stderr of each refusal, byte for byte."""
    assert main([command, graph_file(text), *extra]) == rc
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (out, err)


@pytest.mark.parametrize("command", ["check", "reveal", "recover", "enumerate"])
@pytest.mark.parametrize(
    "text,line,digits",
    [(_LONG_WEIGHT_TEXT, 4, 5000), (_LONG_COUNT_TEXT, 3, 4401), (_LONG_INDEX_TEXT, 8, 4401)],
    ids=["weight", "vertex-count", "vertex-index"],
)
@pytest.mark.usefixtures("int_digit_limit")
def test_numeral_past_the_int_string_limit_is_a_parse_error(graph_file, capsys, command, text, line, digits):
    assert main([command, graph_file(text)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "", f"error: line {line}: number of {digits} digits exceeds the 4300-digit limit\n"
    )


@pytest.mark.usefixtures("int_digit_limit")
def test_reading_past_the_int_string_limit_is_an_error(graph_file, tmp_path, capsys):
    """Six 4,300-digit weights parse, and recover solves them, but a reading
    sums at least three, too long to write in the transcript."""
    path = graph_file(_LIMIT_WEIGHTS_TEXT)
    assert main(["check", path]) == 0
    assert capsys.readouterr().out.endswith("ODOMETRIC\n")
    transcript = tmp_path / "trips.json"
    assert main(["recover", path, "--oracle-transcript", str(transcript)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cannot write '{transcript}': a reading exceeds the 4300-digit limit\n"
    assert not transcript.exists()
    assert main(["recover", path]) == 0
    assert capsys.readouterr().out.endswith("queries: 6\nEXACT MATCH\n")


def test_walk_count_past_the_int_string_limit_is_an_error(graph_file, capsys):
    """K4 from 0 has a 663-digit walk count at cap 2,200 and a 633-digit one
    at cap 2,100; at the lowest digit limit, 640, the first is an error
    with nothing printed, and the second is printed."""
    path = graph_file(K4_TEXT)
    saved = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(640)
        assert main(["enumerate", path, "--max-len", "2200"]) == 2
        assert capsys.readouterr() == ("", "error: walk count exceeds the 640-digit limit\n")
        assert main(["enumerate", path, "--max-len", "2100"]) == 0
    finally:
        sys.set_int_max_str_digits(saved)
    first = capsys.readouterr().out.splitlines()[0]
    assert len(first.rpartition(" ")[2]) == 633


def test_walk_count_stops_at_the_int_string_limit(graph_file):
    """K4 from 0 passes 4,300 digits at cap 14,285; counting on to cap
    1,000,000 would take minutes, so the count stops at the limit and the
    error comes at once. A subprocess with a timeout makes a regression
    fail instead of hanging."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    run = subprocess.run(
        [sys.executable, "-X", "int_max_str_digits=4300", "-m", "odograph", "enumerate",
         graph_file(K4_TEXT), "--max-len", "1000000"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60,
    )
    assert (run.returncode, run.stdout, run.stderr) == (2, "", "error: walk count exceeds the 4300-digit limit\n")


# -------------------------------------------------------------------- usage


@pytest.mark.parametrize(
    "command,text,rc,last_line",
    [("check", K4_TEXT, 0, "ODOMETRIC"), ("reveal", C5_TEXT, 1, "NOT ODOMETRIC (vertex 0 has degree 2)")],
)
def test_python_m_odograph_runs_the_cli(graph_file, command, text, rc, last_line):
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src}
    run = subprocess.run(
        [sys.executable, "-m", "odograph", command, graph_file(text)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert (run.returncode, run.stderr) == (rc, "")
    assert run.stdout.splitlines()[-1] == last_line


# The CLI with each test dependency unimportable: the library has none at
# run time. Arguments: the K4 file, the C5 file, a transcript path.
_WITHOUT_TEST_DEPENDENCIES = textwrap.dedent(
    """\
    import contextlib, io, json, sys
    for name in ("sympy", "hypothesis", "pytest"):
        sys.modules[name] = None
    from odograph.cli import main
    k4, c5, trips = sys.argv[1:]
    def run(rc, *args):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            got = main(list(args))
        print(*args, "exits", got)
        if got != rc:
            sys.exit(f"expected exit {rc}")
        return out.getvalue()
    def as_dumps(text, what):
        if text != json.dumps(json.loads(text), indent=2) + "\\n":
            sys.exit(f"{what} is not what json.dumps(..., indent=2) writes")
    run(0, "recover", k4, "--start", "2", "--oracle-transcript", trips)
    with open(trips, encoding="utf-8") as fh:
        as_dumps(fh.read(), "the recover transcript")
    run(0, "check", k4)
    as_dumps(run(0, "reveal", k4, "--minimal", "--format", "json"), "reveal --format json")
    run(0, "enumerate", k4, "--max-len", "6")
    if run(1, "reveal", c5) != "NOT ODOMETRIC (vertex 0 has degree 2)\\n":
        sys.exit("reveal on C5 printed the wrong verdict")
    run(2, "recover", k4, "--start", "9")
    """
)


def test_cli_runs_with_no_test_dependency_importable(graph_file, tmp_path):
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src}
    args = [graph_file(K4_TEXT, "k4.graph"), graph_file(C5_TEXT, "c5.graph"), str(tmp_path / "trips.json")]
    run = subprocess.run(
        [sys.executable, "-c", _WITHOUT_TEST_DEPENDENCIES, *args],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
    )
    assert run.returncode == 0, run.stdout + run.stderr
    assert run.stderr == "error: start vertex 9 out of range\n"
    assert [line.rsplit(" ", 1)[1] for line in run.stdout.splitlines()] == ["0", "0", "0", "0", "1", "2"]


def test_no_arguments_is_usage_error(capsys):
    assert main([]) == 2
    capsys.readouterr()


def test_unknown_subcommand(capsys):
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


class _ClosedStdout:
    """A stdout whose reader has gone away, failing on write or on flush."""

    def __init__(self, fd, fails_on):
        self.fd = fd
        self.fails_on = fails_on

    def write(self, text):
        if self.fails_on == "write":
            raise BrokenPipeError(32, "Broken pipe")
        return len(text)

    def flush(self):
        raise BrokenPipeError(32, "Broken pipe")

    def fileno(self):
        return self.fd


@pytest.mark.parametrize("fails_on", ["write", "flush"])
def test_closed_stdout_exits_2_without_traceback(graph_file, tmp_path, monkeypatch, capsys, fails_on):
    path = graph_file(K4_TEXT)
    with open(tmp_path / "stdout", "w") as target:
        monkeypatch.setattr(sys, "stdout", _ClosedStdout(target.fileno(), fails_on))
        assert main(["reveal", path]) == 2
        # the descriptor now writes to devnull, so the flush at exit succeeds
        assert os.path.samestat(os.fstat(target.fileno()), os.stat(os.devnull))
    assert capsys.readouterr().err == ""


# ------------------------------------------------------------------- README


def test_readme_reveal_example_matches_a_run(tmp_path, capsys):
    """The README's `reveal k4.graph --minimal` block, on its K4 file, byte for byte."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```\n(.*?)^```$", readme, flags=re.S | re.M)
    graph = next(b for b in blocks if b.startswith("odometry-graph v1\n"))
    command = "$ odograph reveal k4.graph --minimal\n"
    shown = next(b for b in blocks if b.startswith(command))[len(command):]
    path = tmp_path / "k4.graph"
    path.write_text(graph, encoding="utf-8")
    assert main(["reveal", str(path), "--minimal"]) == 0
    assert capsys.readouterr().out == shown


def test_readme_enumerate_example_matches_a_run(tmp_path, capsys):
    """The README's `enumerate sk4.graph` block, on the subdivided K4 it
    describes, byte for byte: the canonical relation form is pinned."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```\n(.*?)^```$", readme, flags=re.S | re.M)
    command = "$ odograph enumerate sk4.graph\n"
    shown = next(b for b in blocks if b.startswith(command))[len(command):]
    path = tmp_path / "sk4.graph"
    path.write_text(SUBDIV_K4_TEXT, encoding="utf-8")
    assert main(["enumerate", str(path)]) == 0
    assert capsys.readouterr().out == shown


def test_readme_library_example_runs():
    """The README's Python block runs as written; its asserts are the check."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    (code,) = re.findall(r"^```python\n(.*?)^```$", readme, flags=re.S | re.M)
    namespace: dict = {}
    exec(compile(code, "README.md", "exec"), namespace)
    assert len(namespace["walks"]) == namespace["g"].edge_count == 6
    assert namespace["meter"].query_count == 6


def test_every_public_name_is_in_the_readme():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    assert [n for n in odograph.__all__ if not re.search(rf"\b{re.escape(n)}\b", readme)] == []
