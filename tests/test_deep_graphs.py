"""Recovery on deep graphs: long ladders and long chains of blocks.

The acceptance corpus stops at 20 vertices, so these cover depth: a prism
and a Moebius ladder with 150 rungs and a chain of 25 gadgets, each
recovered through the CLI from a start far from vertex 0. Every run must
match exactly with one query per edge, and within a time limit about ten
times what it takes on a 2-core machine; a construction whose cost grows
cubically with depth takes longer than that.
"""

import random
import signal
from fractions import Fraction

import pytest

from odograph.cli import main
from conftest import _GADGETS

TIME_LIMIT_S = 10


def prism(k):
    """C_k x K2: two k-cycles joined by k rungs."""
    outer = [(i, (i + 1) % k) for i in range(k)]
    inner = [(k + i, k + (i + 1) % k) for i in range(k)]
    return 2 * k, outer + inner + [(i, k + i) for i in range(k)]


def moebius_ladder(k):
    """A 2k-cycle with its k diameters."""
    n = 2 * k
    return n, [(i, (i + 1) % n) for i in range(n)] + [(i, i + k) for i in range(k)]


def gadget_chain(pieces):
    """K4, prism and wheel gadgets in turn, each hung off the last vertex of
    the one before, alternately through a shared cut vertex and a bridge."""
    kinds = [_GADGETS[name] for name in ("k4", "prism", "wheel")]
    size, gadget = kinds[0]
    n, edges, tail = size, list(gadget), size - 1
    for i in range(1, pieces):
        size, gadget = kinds[i % len(kinds)]
        if i % 2:
            relabel = {0: tail, **{v: n + v - 1 for v in range(1, size)}}
            n += size - 1
        else:
            relabel = {v: n + v for v in range(size)}
            edges.append((tail, n))
            n += size
        edges += [(relabel[u], relabel[v]) for u, v in gadget]
        tail = relabel[size - 1]
    return n, edges


def _timed_out(signum, frame):
    raise TimeoutError(f"recover took longer than {TIME_LIMIT_S} s")


@pytest.mark.parametrize(
    "graph,start",
    [(prism(150), 75), (moebius_ladder(150), 150), (gadget_chain(25), None)],
    ids=["prism-150", "moebius-150", "chain-25"],
)
def test_deep_graph_recovers_exactly(tmp_path, capsys, graph, start):
    n, edges = graph
    start = n - 1 if start is None else start
    rng = random.Random(n)
    lines = ["odometry-graph v1", f"n {n}"] + [
        f"e {u} {v} {Fraction(rng.randint(-50, 50), rng.randint(1, 9))}" for u, v in edges
    ]
    path = tmp_path / "deep.graph"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    previous = signal.signal(signal.SIGALRM, _timed_out)
    signal.setitimer(signal.ITIMER_REAL, TIME_LIMIT_S)
    try:
        rc = main(["recover", str(path), "--start", str(start)])
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    out = capsys.readouterr().out.splitlines()
    assert rc == 0
    assert out[-2:] == [f"queries: {len(edges)}", "EXACT MATCH"]
