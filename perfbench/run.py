"""odograph benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload recover-random --seed 1 --seconds 50 --trace 0

Every op is one in-process call of ``odograph.cli.main`` on a graph file
the benchmark generated from ``--seed`` (the program only ever sees the
files). Ops run back to back in one process and one thread, a closed loop
with a single client, which suits a small shared machine. The loop runs
whole rounds of the workload's inputs, at least five, and starts another
round only while it is expected to end within ``--seconds`` of op time.
Output checks run between ops, outside the timed op. The last stdout line
is one JSON object; the lines before it print every metric by name with
its unit.

Workloads
---------
Each round holds one input per size stratum, so every seed gets the same
mix of sizes. On recover-random and reveal-prism the seed draws
everything else. The cost of a blocky or low-degree op depends so much on
the exact shape and start (walk counts grow exponentially with local
density) that a seed-drawn shape moved op_p50_s by over 20% between
seeds; there the shapes, starts and edge order come from a fixed stream
and the seed draws vertex labels and weights. (Edge order fixes which
basis of invisible shifts ``enumerate`` prints, so it stays fixed too.) The strata sit in a narrow band, so that most ops land near the
median: with a band as wide as n = 70..110 the median was set by the few
ops of the middle size, and it spread by over 20% between seeds. Shares
quoted are from traced runs on the parent commit.

recover-random
    ``recover`` on random connected min-degree-3 graphs, n = 64..72 with
    m = 1.75 n (112..126), rational weights (negative and zero allowed), a
    drawn start. ``solver.recover_weights`` is about 70% of op time, reveal
    plus flatten plus decomposition about 15%: a solve kernel shows here, a
    reveal change barely does.
reveal-prism
    ``reveal --minimal --format json`` on prisms C_k x K2 and Moebius
    ladders, k = 36..44. Depth makes reveal plus flatten about three
    quarters of the op, with no solve. Direct certificates and
    block-adjacency caching show here; a solve-only change predicts no
    change except through ``rational_rank``. k stays below the 40..80 first
    planned: at k = 80 one op takes about 3.6 s, too few ops per run for a
    tail percentile.
recover-blocky
    ``recover`` on chains of 3..10 K4, prism and wheel gadgets glued at cut
    vertices or by bridges (m about 20..90), from three starts each: a
    vertex of the first gadget, a random vertex, and a vertex inside the
    last (far) gadget. Reveal (with approach-library lifting and bridges)
    is about 40%, solve about 35%, decomposition about 5%; hundreds of
    short ops give a real tail percentile.
enumerate-lowdeg
    ``enumerate --max-len 10`` on min-degree-3 graphs with one subdivided
    edge a-x-b (n = 14..18, m about 21..31), from a start other than x. The
    exact RREF in ``oracle.span_report`` is over 90% of the op: the same
    exact-elimination job as the solve, but tall and rank deficient. A
    unified kernel that speeds up recover-random but slows this path shows
    here.

The m ~ 2,000 scale workload is deferred until the solve finishes at that
size; it will come as its own benchmark change.

End-to-end metrics (``--trace 0``)
----------------------------------
setup_s               median of five set-ups: a fresh ``import odograph``
                      (bytecode caching off, so every run compiles the
                      same source) plus one warm-up op on the first input.
op_p50_s              median wall time of one CLI op.
op_tail_s             the highest percentile with at least 10 samples
                      beyond it; the summary names the percentile and N.
edges_per_s           input edges of correct ops per second of op time.
peak_rss_mb           ``ru_maxrss`` of the benchmark process.
walk_edges_per_query  mean edge count of the measured walks: the paper's
                      trip-meter distance per trip. recover: read from
                      ``--oracle-transcript``. reveal: the minimal basis,
                      which is exactly what recover would measure.
                      enumerate: every closed walk up to the cap, counted
                      by the benchmark's own enumerator, whose count must
                      match the CLI's.
cert_terms_per_edge   mean walk terms per certificate. reveal: from the
                      output. recover: from one extra, untimed ``reveal
                      --format json`` call per input of the first round,
                      which builds the same certificates recover measures
                      from. enumerate
                      has no certificates; there it is the mean number of
                      edge terms per printed invisible-shift relation.
failed ops            failed / attempted, as ``failed`` and ``attempted``
                      in the JSON line. An op fails on a wrong exit code,
                      a failed check, an exception or a timeout. It is not
                      a BENCHMARK.json metric, because it is 0 on a correct
                      program.

The last two metrics are exact counts over the first five rounds of
inputs, which every run makes, so they repeat exactly for a seed; they
catch a change that makes trips longer or certificates bigger.

Per-layer metrics (``--trace 1``)
---------------------------------
The traced run repeats passes over the first round of inputs. Each op runs
untraced through the CLI, then through ``replay.replay``, which makes the
same library calls with spans around them; the replay's basis, weights,
readings, certificates, rank and relations must equal the CLI's output, or
the op fails. Times are per-pass totals (median over passes); counts are
per-pass totals (maxima for ``*_max``) and must repeat exactly in every
pass. Layers are the ``odograph`` modules; ``walks`` is a utility every
layer calls, so it is measured through its callers until spans exist
inside the program. No layer has a queue or retries, so time waited does
not apply (N/A). The first pass's spans (op, name, parent index among that
op's spans, start, end) are written to
``.perfbench_out/spans-<workload>-seed<seed>.json``.

Prediction (which end-to-end metric each layer metric should move):

  solver.solve_s                      op_p50_s, edges_per_s on recover-random;
                                      no change on reveal-prism or
                                      enumerate-lowdeg
  solver.rank_s, solver.basis_s,      edges_per_s on reveal-prism and
  solver.pool_walks, solver.basis_yield  recover-random
  revealer.reveal_s (self time),      edges_per_s on reveal-prism and
  revealer.flatten_s,                 recover-blocky; walk_edges_per_query,
  revealer.edge_refs,                 cert_terms_per_edge
  revealer.cert_terms_max,
  revealer.cert_coef_max,
  revealer.walk_edges_max
  decomposition.s, .calls, .blocks,   op_p50_s on recover-blocky,
  .cut_vertices, .bridges             edges_per_s on reveal-prism
  oracle.span_s, oracle.enumerate_s,  op_p50_s on enumerate-lowdeg
  oracle.walks_enumerated,
  oracle.unique_vectors,
  oracle.unique_ratio
  oracle.measure_s, oracle.queries,   2-5% of op time: no end-to-end move;
  oracle.walk_edges                   walk_edges_per_query on recover
  cli.parse_s, graph.check_s          op_p50_s on recover-blocky
  solver.verify_s                     none: the CLI never calls
                                      verify_certificate; it is the cost a
                                      library caller pays to check them
  trace.overhead_ratio                traced over untraced time; how far
                                      the spans distort (below 1 where the
                                      CLI's printing outweighs them)

``solver.basis_yield`` is |E| / (pool walks scanned up to the basis's last
pick); ``oracle.unique_ratio`` is distinct usage vectors / enumerated
walks.

ROADMAP's "at most 4 certificate terms" does not hold on blocky graphs:
recover-blocky certificates reach 7 walk terms, with c_e = 2 throughout.
``revealer.cert_terms_max`` tracks it.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True  # a clean checkout then compiles the same source on every run

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import random
import resource
import shutil
import signal
import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

import checks
import gen
import replay

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_REPEATS = 5
OP_TIMEOUT_S = 30.0
WALL_LIMIT_S = 150.0
# rounds every run makes: the count metrics cover exactly these, and they
# hold the 11 or more samples op_tail_s needs
COUNT_ROUNDS = 5
ENUM_CAP = 10
PROBLEMS_SHOWN = 5


class OpTimeout(Exception):
    """Raised by the watchdog inside an op that ran past OP_TIMEOUT_S."""


def _alarm(signum, frame):
    raise OpTimeout()


# --- workloads ---------------------------------------------------------------


@dataclass(frozen=True)
class Op:
    inst: gen.Instance
    path: str
    argv: tuple[str, ...]  # CLI arguments after the graph file


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    rounds: int
    # (shape rng, seed rng, round index) -> one input per size stratum
    make_round: Callable[[random.Random, random.Random, int], list[gen.Instance]]
    dominant: str  # the layer this workload was chosen for ...
    holds: Callable[[dict[str, float]], bool]  # ... tested on the traced run's time shares


def _random_round(shapes: random.Random, rng: random.Random, r: int) -> list[gen.Instance]:
    out = []
    for n in (64, 68, 72, 66, 70):
        # a fixed m per stratum (the solve grows like m^3.5) keeps seeds comparable
        _, edges = gen.relabel(rng, n, gen.random_min_degree3(rng, n, m=n * 7 // 4))
        out.append(gen.Instance(n, edges, gen.random_weights(rng, len(edges)), rng.randrange(n)))
    return out


def _prism_round(shapes: random.Random, rng: random.Random, r: int) -> list[gen.Instance]:
    out = []
    for i, k in enumerate((36, 40, 44, 38, 42)):
        shape = gen.prism if (i + r) % 2 == 0 else gen.moebius_ladder
        _, edges = gen.relabel(rng, 2 * k, shape(k))
        out.append(gen.Instance(2 * k, edges, gen.random_weights(rng, len(edges)), rng.randrange(2 * k)))
    return out


def _blocky_round(shapes: random.Random, rng: random.Random, r: int) -> list[gen.Instance]:
    out = []
    for pieces in (3, 6, 9, 4, 10, 5, 8, 7):
        n, edges, far = gen.gadget_chain(shapes, pieces)
        starts = (0, shapes.randrange(n), shapes.choice(far))
        shapes.shuffle(edges)
        perm, edges = gen.permute(rng, n, edges)
        weights = gen.random_weights(rng, len(edges))
        out += [gen.Instance(n, edges, weights, perm[v]) for v in starts]
    return out


def _lowdeg_round(shapes: random.Random, rng: random.Random, r: int) -> list[gen.Instance]:
    out = []
    for n0 in (13, 15, 17, 14, 16):
        n, edges, (a, x, b) = gen.subdivide(shapes, n0, gen.random_min_degree3(shapes, n0))
        # from x itself the pair is visible (a trip may leave and return on
        # the same edge), so the start is drawn from the other vertices
        start = shapes.choice([v for v in range(n) if v != x])
        shapes.shuffle(edges)
        perm, edges = gen.permute(rng, n, edges)
        start, pair = perm[start], (perm[a], perm[x], perm[b])
        out.append(gen.Instance(n, edges, gen.random_weights(rng, len(edges)), start, pair))
    return out


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "recover-random", "recover", 24, _random_round,
            "solver.solve_s is the largest share",
            lambda sh: max(sh, key=sh.get) == "solver.solve_s",
        ),
        Workload(
            "reveal-prism", "reveal", 24, _prism_round,
            "revealer.reveal_s + revealer.flatten_s over half",
            lambda sh: sh["revealer.reveal_s"] + sh["revealer.flatten_s"] > 0.5,
        ),
        Workload(
            "recover-blocky", "recover", 24, _blocky_round,
            "solver.solve_s under half",
            lambda sh: sh["solver.solve_s"] < 0.5,
        ),
        Workload(
            "enumerate-lowdeg", "enumerate", 16, _lowdeg_round,
            "oracle.span_s is the largest share",
            lambda sh: max(sh, key=sh.get) == "oracle.span_s",
        ),
    )
}


def build_pool(wl: Workload, seed: int, workdir: Path) -> tuple[list[Op], int, str]:
    """Write the seeded inputs; return (ops, round length, sha256 of the input set)."""
    shapes = random.Random(f"{wl.name}/shapes")
    rng = random.Random(f"{wl.name}/{seed}")
    ops: list[Op] = []
    digest = hashlib.sha256()
    round_len = 0
    for r in range(wl.rounds):
        batch = wl.make_round(shapes, rng, r)
        round_len = len(batch)
        for inst in batch:
            path = workdir / f"g{len(ops)}.graph"
            text = inst.text()
            path.write_text(text, encoding="utf-8")
            argv = ["--start", str(inst.start)]
            if wl.command == "reveal":
                argv += ["--minimal", "--format", "json"]
            elif wl.command == "enumerate":
                argv += ["--max-len", str(ENUM_CAP)]
            digest.update(f"{wl.command} {' '.join(argv)}\n{text}".encode())
            ops.append(Op(inst, str(path), tuple(argv)))
    return ops, round_len, digest.hexdigest()


# --- running ops -------------------------------------------------------------


@dataclass
class Outcome:
    rc: int | None
    stdout: str
    seconds: float
    error: str | None


def run_cli(main, args: list[str]) -> Outcome:
    """One in-process CLI call under a watchdog; never raises."""
    out, err = io.StringIO(), io.StringIO()
    rc, error = None, None
    signal.setitimer(signal.ITIMER_REAL, OP_TIMEOUT_S)
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(args)
    except OpTimeout:
        error = f"timed out after {OP_TIMEOUT_S:g} s"
    except Exception as exc:  # a traceback is a failed op, not a crashed benchmark
        error = f"raised {exc!r}"
    finally:
        t1 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, 0)
    return Outcome(rc, out.getvalue(), t1 - t0, error)


class Runner:
    """Runs and checks ops for one workload against the imported program."""

    def __init__(self, wl: Workload, workdir: Path, main):
        self.wl = wl
        self.main = main
        self.transcript = str(workdir / "transcript.json")
        self._own_walks: dict[str, list[checks.Walk]] = {}

    def args(self, op: Op) -> list[str]:
        args = [self.wl.command, op.path, *op.argv]
        if self.wl.command == "recover":
            args += ["--oracle-transcript", self.transcript]
        return args

    def own_walks(self, op: Op) -> list[checks.Walk]:
        if op.path not in self._own_walks:
            self._own_walks[op.path] = checks.closed_walks(op.inst, ENUM_CAP)
        return self._own_walks[op.path]

    def execute(self, op: Op) -> Outcome:
        with contextlib.suppress(FileNotFoundError):
            Path(self.transcript).unlink()
        return run_cli(self.main, self.args(op))

    def check(self, op: Op, outcome: Outcome) -> checks.Result:
        if outcome.error:
            return checks.Result([outcome.error])
        try:
            return self._check(op, outcome)
        except (ValueError, KeyError, IndexError) as exc:
            return checks.Result([f"unparsable output: {exc!r}"])

    def _check(self, op: Op, outcome: Outcome) -> checks.Result:
        if self.wl.command == "recover":
            try:
                transcript = Path(self.transcript).read_text(encoding="utf-8")
            except OSError:
                transcript = ""
            return checks.check_recover(op.inst, outcome.rc, outcome.stdout, transcript)
        if self.wl.command == "reveal":
            return checks.check_reveal(op.inst, outcome.rc, outcome.stdout)
        return checks.check_enumerate(op.inst, outcome.rc, outcome.stdout, ENUM_CAP, self.own_walks(op))

    def run(self, op: Op) -> tuple[Outcome, checks.Result]:
        outcome = self.execute(op)
        return outcome, self.check(op, outcome)


def import_program():
    """Import odograph afresh from this checkout's src/."""
    for name in [m for m in sys.modules if m == "odograph" or m.startswith("odograph.")]:
        del sys.modules[name]
    package = importlib.import_module("odograph")
    if not Path(package.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"odograph imported from {package.__file__}, not from {SRC}")
    return SimpleNamespace(
        **{m: importlib.import_module(f"odograph.{m}")
           for m in ("cli", "graph", "decomposition", "revealer", "solver", "oracle")}
    )


# --- metrics -----------------------------------------------------------------


def tail(times: list[float]) -> tuple[float, float, int]:
    """(value, percentile, N) for the highest percentile with >= 10 samples beyond it."""
    ordered = sorted(times)
    n = len(ordered)
    k = max(n - 11, 0)
    return ordered[k], 100.0 * (k + 1) / n, n


def count_metrics(
    runner: Runner, counted: list[tuple[Op, checks.Result]], round_len: int
) -> tuple[float, float, list[str]]:
    """walk_edges_per_query and cert_terms_per_edge over the first COUNT_ROUNDS rounds.

    recover prints no certificates, so for it the certificates come from an
    extra untimed ``reveal`` call on each input of the first round only.
    """
    problems: list[str] = []
    walk_edges = walks = terms = certs = 0
    for i, (op, res) in enumerate(counted):
        if runner.wl.command == "enumerate":
            own = runner.own_walks(op)
            walk_edges += sum(len(w) - 1 for w in own)
            walks += len(own)
            terms += sum(sum(1 for c in rel if c) for rel in res.relations)
            certs += len(res.relations)
            continue
        walk_edges += sum(len(w) - 1 for w in res.walks)
        walks += len(res.walks)
        if runner.wl.command == "recover":
            if i >= round_len:
                continue
            outcome = run_cli(runner.main, ["reveal", op.path, *op.argv, "--format", "json"])
            res = checks.check_reveal(op.inst, outcome.rc, outcome.stdout, minimal=False)
            problems += [f"certificate reveal: {p}" for p in ([outcome.error] if outcome.error else res.problems)]
        terms += sum(len(t) for _, t in res.certificates)
        certs += len(res.certificates)
    return walk_edges / max(walks, 1), terms / max(certs, 1), problems


def measure(runner: Runner, ops: list[Op], round_len: int, seconds: float, t_start: float):
    """The untraced closed loop, in whole rounds so every run has the same size mix.

    Returns (op seconds, edges done, failures, results of the counted rounds).
    """
    times: list[float] = []
    edges = 0
    problems: list[str] = []
    counted: list[tuple[Op, checks.Result]] = []
    floor = COUNT_ROUNDS * round_len
    rounds = 0
    # start another round only while it is expected to end within --seconds
    while len(times) < floor or sum(times) * (rounds + 1) / rounds <= seconds:
        base = len(times) % len(ops)
        rounds += 1
        for op in ops[base : base + round_len]:
            outcome, result = runner.run(op)
            if result.problems:
                problems.append(f"op {len(times)}: {result.problems[0]}")
            else:
                edges += len(op.inst.edges)
            if len(times) < COUNT_ROUNDS * round_len:
                counted.append((op, result))
            times.append(outcome.seconds)
        if time.perf_counter() - t_start > WALL_LIMIT_S:
            break
    return times, edges, problems, counted


def _same(replayed: dict, parsed: checks.Result, command: str) -> str | None:
    """Why the traced replay disagrees with the CLI output, if it does."""
    if not replayed["ok"]:
        return "replay refused an input the CLI accepted"
    if command == "enumerate":
        if (replayed["walk_count"], replayed["rank"], replayed["relations"]) != (
            parsed.walk_count, parsed.rank, parsed.relations
        ):
            return "replay walk count, rank or relations differ from the CLI"
        return None
    if replayed["walks"] != parsed.walks:
        return "replay basis differs from the CLI"
    if not replayed["verified"]:
        return "verify_certificate rejects a replayed certificate"
    if command == "recover":
        if replayed["measurements"] != parsed.measurements or replayed["recovered"] != parsed.recovered:
            return "replay readings or weights differ from the CLI"
    elif replayed["certificates"] != parsed.certificates or replayed["rank"] != parsed.rank:
        return "replay certificates or rank differ from the CLI"
    return None


def measure_traced(runner: Runner, od, ops: list[Op], seconds: float, t_start: float):
    """Passes over the first round: untraced CLI op, then traced replay.

    Returns (per-pass totals, ops attempted, failures, spans of the first pass).
    """
    passes: list[dict[str, float]] = []
    spans: list[dict] = []
    attempted = 0
    problems: list[str] = []
    spent = 0.0
    while not passes or (spent < seconds and time.perf_counter() - t_start < WALL_LIMIT_S):
        totals: dict[str, float] = {"cli_s": 0.0, "replay_s": 0.0, "edges": 0, "solver.scanned": 0}
        for i, op in enumerate(ops):
            attempted += 1
            outcome, parsed = runner.run(op)
            totals["cli_s"] += outcome.seconds
            spent += outcome.seconds
            if parsed.problems:
                problems.append(f"op {attempted - 1}: {parsed.problems[0]}")
                continue
            text = Path(op.path).read_text(encoding="utf-8")
            signal.setitimer(signal.ITIMER_REAL, OP_TIMEOUT_S)
            try:
                replayed, counts, tracer, seconds_replay = replay.replay(
                    od, runner.wl.command, op.inst, text, ENUM_CAP
                )
            except Exception as exc:  # includes OpTimeout: the op fails, the run goes on
                problems.append(f"op {attempted - 1}: replay raised {exc!r}")
                continue
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            spent += seconds_replay
            if not passes:
                spans += [
                    {"op": i, "name": name, "parent": parent, "start": t0, "end": t1}
                    for name, parent, t0, t1 in tracer.spans
                ]
            mismatch = _same(replayed, parsed, runner.wl.command)
            if mismatch:
                problems.append(f"op {attempted - 1}: {mismatch}")
            totals["replay_s"] += seconds_replay
            for key, value in {**replay.layer_times(tracer), **counts}.items():
                if key in replay.MAX_COUNTS:
                    totals[key] = max(totals.get(key, 0), value)
                else:
                    totals[key] = totals.get(key, 0) + value
        passes.append(totals)
    return passes, attempted, problems, spans


def per_layer(passes: list[dict[str, float]]) -> tuple[dict[str, float], list[str]]:
    problems = []
    counts = replay.SUM_COUNTS + replay.MAX_COUNTS + ("edges", "solver.scanned")
    for key in counts:
        if len({p.get(key, 0) for p in passes}) > 1:
            problems.append(f"count {key} differs between passes of the same inputs")
    first = passes[0]
    metrics = {key: statistics.median(p.get(key, 0.0) for p in passes) for key in replay.TIME_METRICS}
    metrics.update({key: first.get(key, 0) for key in replay.SUM_COUNTS + replay.MAX_COUNTS})
    metrics["solver.basis_yield"] = first["edges"] / first["solver.scanned"] if first["solver.scanned"] else 0.0
    enumerated = first.get("oracle.walks_enumerated", 0)
    metrics["oracle.unique_ratio"] = first.get("oracle.unique_vectors", 0) / enumerated if enumerated else 0.0
    metrics["trace.overhead_ratio"] = statistics.median(
        p["replay_s"] / p["cli_s"] for p in passes if p["cli_s"] > 0
    )
    return metrics, problems


# --- entry point -------------------------------------------------------------

UNITS = {
    "setup_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "edges_per_s": "edges/s",
    "peak_rss_mb": "MB",
    "walk_edges_per_query": "edges/query",
    "cert_terms_per_edge": "terms/cert",
}


def layer_unit(name: str) -> str:
    if name.endswith("_s") or name == "decomposition.s":
        return "s"
    if name.endswith("_ratio") or name.endswith("_yield"):
        return "ratio"
    return "count"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    t_start = time.perf_counter()
    wl = WORKLOADS[args.workload]

    if not (SRC / "odograph" / "__init__.py").is_file():
        print(f"error: no odograph package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    signal.signal(signal.SIGALRM, _alarm)
    workdir = ROOT / ".perfbench_tmp" / f"{wl.name}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return _run(wl, args, workdir, t_start)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()


def _run(wl: Workload, args, workdir: Path, t_start: float) -> int:
    problems: list[str] = []
    ops, round_len, fingerprint = build_pool(wl, args.seed, workdir)
    recorded = json.loads((Path(__file__).parent / "fingerprints.json").read_text())
    expected = recorded.get(wl.name, {}).get(str(args.seed))
    if expected is not None and expected != fingerprint:
        problems.append(f"input set {fingerprint} differs from the recorded {expected}")

    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        try:
            od = import_program()
        except ImportError as exc:
            print(f"error: cannot import odograph: {exc}", file=sys.stderr)
            return 2
        runner = Runner(wl, workdir, od.cli.main)
        outcome = runner.execute(ops[0])
        setups.append(time.perf_counter() - t0)
        result = runner.check(ops[0], outcome)
        if result.problems:
            problems.append(f"warm-up op: {result.problems[0]}")

    problems += [f"self-test: {f}" for f in checks.self_test(lambda a: _rc_out(runner, a), str(workdir))]

    if args.trace:
        passes, attempted, failures, spans = measure_traced(runner, od, ops[:round_len], args.seconds, t_start)
        out = ROOT / ".perfbench_out" / f"spans-{wl.name}-seed{args.seed}.json"
        out.parent.mkdir(exist_ok=True)
        out.write_text(json.dumps(spans), encoding="utf-8")
        metrics, count_problems = per_layer(passes)
        problems += count_problems
        units = {k: layer_unit(k) for k in metrics}
        shares = _shares(metrics)
        summary = [f"passes over the first round ({round_len} inputs): {len(passes)}"]
        summary += [f"share of replay time: {k} {v:.1%}" for k, v in shares.items() if v]
        verdict = "holds" if shares and wl.holds(shares) else "DOES NOT HOLD"
        summary.append(f"dominant layer ({wl.dominant}): {verdict}")
    else:
        times, edges, failures, counted = measure(runner, ops, round_len, args.seconds, t_start)
        attempted = len(times)
        walk_edges, cert_terms, count_problems = count_metrics(runner, counted, round_len)
        problems += count_problems
        value, pct, n = tail(times)
        metrics = {
            "setup_s": statistics.median(setups),
            "op_p50_s": statistics.median(times),
            "op_tail_s": value,
            "edges_per_s": edges / sum(times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "walk_edges_per_query": walk_edges,
            "cert_terms_per_edge": cert_terms,
        }
        units = UNITS
        summary = [
            f"op_tail_s is p{pct:.1f} of N={n} ops",
            f"failed_ops: {len(failures)}/{attempted} = {len(failures) / attempted:.4f} failed/attempted",
        ]
    print(f"workload {wl.name} seed {args.seed} trace {args.trace}: input set sha256 {fingerprint}")
    for line in summary:
        print(line)
    for key, val in metrics.items():
        print(f"{key}: {val:.6g} {units[key]}")
    for p in (failures + problems)[:PROBLEMS_SHOWN]:
        print(f"problem: {p}")
    print(
        json.dumps(
            {
                "correct": not failures and not problems,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            }
        )
    )
    return 0


def _rc_out(runner: Runner, args: list[str]) -> tuple[int, str]:
    outcome = run_cli(runner.main, args)
    return (outcome.rc if outcome.rc is not None else -1), outcome.stdout


def _shares(metrics: dict[str, float]) -> dict[str, float]:
    """Each layer's share of the replayed CLI calls (verify is not one of them)."""
    replayed = [k for k in replay.TIME_METRICS if k != "solver.verify_s"]
    total = sum(metrics[k] for k in replayed)
    return {k: metrics[k] / total for k in replayed} if total else {}


if __name__ == "__main__":
    sys.exit(main())
