import json
import os
import re
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from odograph import (
    GraphFormatError,
    Odometer,
    is_valid_nb_walk,
    parse_graph_text,
    verify_certificate,
)
from odograph.cli import _json, main
from odograph.revealer import RevealCertificate

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


_json_leaves = st.one_of(
    st.integers(-(2**70), 2**70),
    st.text(st.characters(), max_size=6) | st.sampled_from(['"', "\\", "\u00e9", "\U0001f600", ""]),
    st.booleans(),
    st.none(),
    st.fractions().map(float),
)
_json_values = st.recursive(
    _json_leaves,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(st.integers(-9, 9), max_size=5)
    | st.dictionaries(st.text(max_size=4) | st.just('q"\u00fc'), inner, max_size=4),
    max_leaves=20,
)


@settings(max_examples=300, deadline=None)
@given(_json_values)
def test_json_writer_matches_json_dumps(value):
    assert _json(value) == json.dumps(value, indent=2)


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


# -------------------------------------------------------------------- usage


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
