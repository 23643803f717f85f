"""Per-op output checks that do not trust the library.

Every check reads the CLI's printed output (and the oracle transcript) and
tests it against the generated instance with the benchmark's own walk
validator and edge counter. A check returns a ``Result`` whose
``problems`` list is empty when the output is right. Output too malformed
to parse raises ValueError, KeyError or IndexError, which the runner also
counts as a failed op, so a wrong answer never stops the run.
``self_test`` proves each checker rejects corrupted output.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from gen import Instance, prism, random_min_degree3, random_weights, subdivide

Walk = tuple[int, ...]

_RECOVER_LINE = re.compile(r"^edge \{(\d+),(\d+)\}: recovered (\S+), true (\S+)$")
_ENUM_COUNT = re.compile(
    r"^closed non-backtracking walks from (\d+) with at most (\d+) edges: (\d+)$"
)
_ENUM_RANK = re.compile(r"^rank: (\d+) of (\d+)( \(full\))?$")
_RELATION_TERM = re.compile(r"([+-])?\s*(?:(\d+)\*)?w\{(\d+),(\d+)\}")


@dataclass
class Result:
    problems: list[str] = field(default_factory=list)
    # parsed output, for metrics and for comparing against the traced replay
    walks: list[Walk] = field(default_factory=list)
    measurements: list[Fraction] = field(default_factory=list)
    recovered: list[Fraction] = field(default_factory=list)
    certificates: list[tuple[int, tuple[tuple[int, Walk], ...]]] = field(default_factory=list)
    rank: int = -1
    walk_count: int = -1
    relations: list[tuple[int, ...]] = field(default_factory=list)

    def fail(self, message: str) -> "Result":
        self.problems.append(message)
        return self


# --- the benchmark's own walk algebra ----------------------------------------


def walk_problem(inst: Instance, walk: Walk) -> str | None:
    """Why ``walk`` is not a closed non-backtracking walk from the start, if it is not."""
    if len(walk) < 4:
        return f"walk {list(walk)} is too short to be a closed trip"
    if walk[0] != inst.start or walk[-1] != inst.start:
        return f"walk {list(walk)} is not closed at start {inst.start}"
    for a, b in zip(walk, walk[1:]):
        if ((a, b) if a < b else (b, a)) not in inst.edge_index:
            return f"walk {list(walk)} uses a non-edge {{{a},{b}}}"
    for i in range(len(walk) - 2):
        if walk[i] == walk[i + 2]:
            return f"walk {list(walk)} backtracks at position {i + 1}"
    return None


def usage(inst: Instance, walk: Walk) -> dict[int, int]:
    """Sparse edge-usage counts of a (validated) walk."""
    counts: dict[int, int] = {}
    for a, b in zip(walk, walk[1:]):
        e = inst.edge_index[(a, b) if a < b else (b, a)]
        counts[e] = counts.get(e, 0) + 1
    return counts


def walk_sum(inst: Instance, walk: Walk) -> Fraction:
    return sum((inst.weights[e] * c for e, c in usage(inst, walk).items()), Fraction(0))


def closed_walks(inst: Instance, cap: int) -> list[Walk]:
    """Every closed non-backtracking walk from the start with 3..cap edges.

    A plain recursive search, independent of the library's iterator.
    """
    nbrs: dict[int, list[int]] = {v: [] for v in range(inst.n)}
    for u, v in inst.edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    home = inst.start
    found: list[Walk] = []
    path = [home]

    def extend(prev: int) -> None:
        here = path[-1]
        for nxt in nbrs[here]:
            if nxt == prev:
                continue
            path.append(nxt)
            if nxt == home and len(path) >= 4:
                found.append(tuple(path))
            if len(path) <= cap:
                extend(here)
            path.pop()

    extend(-1)
    return found


# --- recover ---------------------------------------------------------------


def check_recover(inst: Instance, rc: int, stdout: str, transcript: str) -> Result:
    res = Result()
    m = len(inst.edges)
    if rc != 0:
        return res.fail(f"exit code {rc}")
    lines = stdout.splitlines()
    if len(lines) != m + 2:
        return res.fail(f"expected {m + 2} output lines, got {len(lines)}")
    for e, line in enumerate(lines[:m]):
        match = _RECOVER_LINE.match(line)
        if not match:
            return res.fail(f"unparsable line {line!r}")
        u, v, got, true = match.groups()
        if (int(u), int(v)) != inst.edges[e]:
            return res.fail(f"line {e} names edge {{{u},{v}}}, expected {inst.edges[e]}")
        got_w = Fraction(got)
        res.recovered.append(got_w)
        if got_w != inst.weights[e] or Fraction(true) != inst.weights[e]:
            res.fail(f"edge {e}: recovered {got}, generated {inst.weights[e]}")
    if lines[m] != f"queries: {m}":
        res.fail(f"expected 'queries: {m}', got {lines[m]!r}")
    if lines[m + 1] != "EXACT MATCH":
        res.fail(f"expected 'EXACT MATCH', got {lines[m + 1]!r}")
    try:
        entries = json.loads(transcript)
        res.walks = [tuple(entry["walk"]) for entry in entries]
        res.measurements = [Fraction(entry["measurement"]) for entry in entries]
    except (ValueError, TypeError, KeyError) as exc:
        return res.fail(f"unreadable transcript: {exc}")
    if len(res.walks) != m:
        res.fail(f"transcript has {len(res.walks)} walks, expected {m}")
    for walk, reading in zip(res.walks, res.measurements):
        problem = walk_problem(inst, walk)
        if problem:
            return res.fail(problem)
        if reading != walk_sum(inst, walk):
            res.fail(f"reading {reading} of {list(walk)} is not the weight sum")
    return res


# --- reveal ----------------------------------------------------------------


def check_reveal(inst: Instance, rc: int, stdout: str, minimal: bool = True) -> Result:
    res = Result()
    m = len(inst.edges)
    if rc != 0:
        return res.fail(f"exit code {rc}")
    try:
        payload = json.loads(stdout)
        certs = payload["certificates"]
        res.certificates = [
            (c["c_e"], tuple((t["c"], tuple(t["walk"])) for t in c["terms"])) for c in certs
        ]
        edges = [tuple(c["edge"]) for c in certs]
        ids = [c["edge_id"] for c in certs]
        if minimal:
            res.walks = [tuple(w) for w in payload["minimal_basis"]["walks"]]
            res.rank = payload["minimal_basis"]["rank"]
    except (ValueError, TypeError, KeyError) as exc:
        return res.fail(f"unreadable reveal output: {exc}")
    if payload.get("start") != inst.start or payload.get("edge_count") != m:
        res.fail("start or edge_count does not match the input")
    if ids != list(range(m)) or edges != inst.edges:
        return res.fail("certificates do not list every edge once, in id order")
    pool: set[Walk] = set()
    for e, (c_e, terms) in enumerate(res.certificates):
        if not isinstance(c_e, int) or c_e == 0 or not terms:
            res.fail(f"edge {e}: degenerate certificate")
            continue
        acc: dict[int, int] = {}
        for c, walk in terms:
            problem = walk_problem(inst, walk)
            if problem:
                return res.fail(f"edge {e}: {problem}")
            pool.add(walk)
            for f, k in usage(inst, walk).items():
                acc[f] = acc.get(f, 0) + c * k
        if {f: k for f, k in acc.items() if k} != {e: c_e}:
            res.fail(f"edge {e}: usage counts do not sum to {c_e} times its unit vector")
    if minimal:
        if len(res.walks) != m or len(set(res.walks)) != m:
            res.fail(f"basis has {len(res.walks)} walks ({len(set(res.walks))} distinct), expected {m}")
        if res.rank != m:
            res.fail(f"basis rank {res.rank}, expected {m}")
        if not pool.issuperset(res.walks):
            res.fail("basis contains a walk that is in no certificate")
    return res


# --- enumerate -------------------------------------------------------------


def _parse_relation(inst: Instance, text: str) -> tuple[int, ...]:
    vec = [0] * len(inst.edges)
    for sign, mag, u, v in _RELATION_TERM.findall(text):
        c = int(mag) if mag else 1
        vec[inst.edge_index[(int(u), int(v))]] += -c if sign == "-" else c
    return tuple(vec)


def _independent_and_spans(rows: list[tuple[int, ...]], target: list[int]) -> tuple[bool, bool]:
    """Whether the rows are independent, and whether target lies in their span."""
    basis: list[tuple[int, list[Fraction]]] = []
    independent = True
    for row in rows:
        r = _reduce([Fraction(x) for x in row], basis)
        pivot = next((j for j, x in enumerate(r) if x), None)
        if pivot is None:
            independent = False
        else:
            basis.append((pivot, [x / r[pivot] for x in r]))
    return independent, not any(_reduce([Fraction(x) for x in target], basis))


def _reduce(vec: list[Fraction], basis: list[tuple[int, list[Fraction]]]) -> list[Fraction]:
    for pivot, row in basis:
        if vec[pivot]:
            c = vec[pivot]
            vec = [a - c * b for a, b in zip(vec, row)]
    return vec


def check_enumerate(inst: Instance, rc: int, stdout: str, cap: int, walks: list[Walk]) -> Result:
    """``walks`` is the benchmark's own enumeration (``closed_walks``)."""
    res = Result()
    m = len(inst.edges)
    if rc != 0:
        return res.fail(f"exit code {rc}")
    lines = stdout.splitlines()
    head = _ENUM_COUNT.match(lines[0]) if lines else None
    rank = _ENUM_RANK.match(lines[2]) if len(lines) > 2 else None
    if not head or not rank or len(lines) < 2 or lines[1] != f"edges: {m}":
        return res.fail("unparsable enumerate output")
    if (int(head[1]), int(head[2])) != (inst.start, cap):
        res.fail("enumerate reports the wrong start or cap")
    res.walk_count = int(head[3])
    res.rank = int(rank[1])
    if res.walk_count != len(walks):
        res.fail(f"{res.walk_count} walks reported, {len(walks)} exist")
    res.relations = [
        _parse_relation(inst, line[len("invisible shift: "):])
        for line in lines
        if line.startswith("invisible shift: ")
    ]
    if res.rank + len(res.relations) != m:
        res.fail(f"rank {res.rank} plus {len(res.relations)} relations is not {m}")
    vectors = {tuple(sorted(usage(inst, w).items())) for w in walks}
    for rel in res.relations:
        if any(sum(rel[e] * k for e, k in vec) for vec in vectors):
            res.fail(f"relation {rel} is seen by some walk")
            break
    if inst.pair is not None and inst.pair[1] != inst.start:
        # every trip from elsewhere crosses x straight through, using {a,x}
        # and {x,b} equally often, so their difference is invisible
        a, x, b = inst.pair
        target = [0] * m
        target[inst.edge_index[(min(a, x), max(a, x))]] = 1
        target[inst.edge_index[(min(x, b), max(x, b))]] = -1
        independent, spans = _independent_and_spans(res.relations, target)
        if not independent:
            res.fail("printed relations are linearly dependent")
        if not spans:
            res.fail("w_ax - w_xb is not in the span of the printed relations")
    return res


# --- self-test -------------------------------------------------------------

RunOp = Callable[[list[str]], tuple[int, str]]


def self_test(run_op: RunOp, workdir: str) -> list[str]:
    """Run the CLI on two small fixed graphs, then corrupt each output.

    Each checker must accept the real output and reject: a flipped weight
    (recover), a backtracking transcript walk whose reading still matches
    (recover), a dropped certificate term (reveal) and a dropped relation
    (enumerate). Returns the list of self-test failures.
    """
    failures: list[str] = []
    rng = random.Random(20121109)
    ring = Instance(8, prism(4), random_weights(rng, 12), start=5)
    path = f"{workdir}/selftest-prism.graph"
    transcript = f"{workdir}/selftest-transcript.json"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(ring.text())

    rc, out = run_op(["recover", path, "--start", "5", "--oracle-transcript", transcript])
    with open(transcript, encoding="utf-8") as fh:
        trans = fh.read()
    if check_recover(ring, rc, out, trans).problems:
        failures.append("recover checker rejects a correct output")
    flipped = out.replace(f"recovered {ring.weights[0]},", f"recovered {ring.weights[0] + 1},", 1)
    if flipped == out or not check_recover(ring, rc, flipped, trans).problems:
        failures.append("recover checker accepts a flipped weight")
    entries = json.loads(trans)
    walk = entries[0]["walk"]
    entries[0]["walk"] = walk[:2] + walk[:2] + walk[2:]
    entries[0]["measurement"] = str(
        Fraction(entries[0]["measurement"]) + 2 * walk_sum(ring, tuple(walk[:2]))
    )
    if not check_recover(ring, rc, out, json.dumps(entries)).problems:
        failures.append("recover checker accepts a backtracking walk")

    rc, out = run_op(["reveal", path, "--start", "5", "--minimal", "--format", "json"])
    if check_reveal(ring, rc, out).problems:
        failures.append("reveal checker rejects a correct output")
    payload = json.loads(out)
    payload["certificates"][3]["terms"].pop()
    if not check_reveal(ring, rc, json.dumps(payload)).problems:
        failures.append("reveal checker accepts a dropped certificate term")

    n, edges, pair = subdivide(rng, 6, random_min_degree3(rng, 6))
    cut = Instance(n, edges, random_weights(rng, len(edges)), start=0, pair=pair)
    path = f"{workdir}/selftest-subdivided.graph"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(cut.text())
    own = closed_walks(cut, 9)
    rc, out = run_op(["enumerate", path, "--start", "0", "--max-len", "9"])
    if check_enumerate(cut, rc, out, 9, own).problems:
        failures.append("enumerate checker rejects a correct output")
    dropped = "\n".join(l for l in out.splitlines() if not l.startswith("invisible shift"))
    if not check_enumerate(cut, rc, dropped, 9, own).problems:
        failures.append("enumerate checker accepts a dropped relation")
    return failures
