"""Seeded inputs for the benchmark workloads.

Everything here is the benchmark's own code: graphs, library views and
latency/area bounds are computed without calling relsyn, so the program
under test receives only DFG text and a bound pair.

    python3 perfbench/gen.py synth-random 7     # print one corpus summary
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass

# Operation keywords of the DFG format and the hardware class they run on.
OP_CLASS = {"add": "add", "sub": "add", "cmp": "add", "mul": "mul"}


@dataclass(frozen=True)
class Version:
    name: str
    op: str
    area: float
    delay: int
    reliability: float


@dataclass(frozen=True)
class Graph:
    """A DFG as plain data: node ids in declaration order, class per node."""

    name: str
    nodes: tuple[str, ...]
    op: dict
    edges: tuple[tuple[str, str], ...]

    def text(self) -> str:
        lines = [f"node {nid} {self.op[nid]}" for nid in self.nodes]
        lines += [f"edge {src} {dst}" for src, dst in self.edges]
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Instance:
    """One unit of user work: a graph with its bounds."""

    graph: Graph
    latency: int
    area: float


def _fields(text: str):
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            yield line.split()


def parse_library(text: str) -> dict[str, Version]:
    lib = {}
    for f in _fields(text):
        if f[0] != "resource" or len(f) != 6:
            raise ValueError(f"bad library line {' '.join(f)!r}")
        lib[f[1]] = Version(f[1], OP_CLASS[f[2]], float(f[3]), int(f[4]), float(f[5]))
    return lib


def parse_graph(name: str, text: str) -> Graph:
    nodes, op, edges = [], {}, []
    for f in _fields(text):
        if f[0] == "node":
            nodes.append(f[1])
            op[f[1]] = OP_CLASS[f[2]]
        elif f[0] == "edge":
            edges.append((f[1], f[2]))
        else:
            raise ValueError(f"bad DFG line {' '.join(f)!r}")
    return Graph(name, tuple(nodes), op, tuple(edges))


def longest_path(graph: Graph, delay: dict[str, int]) -> int:
    """Total delay of the heaviest path, `delay` given per class.

    Node ids of generated graphs are declared in topological order; the
    bundled graphs are not, so this relaxes edges until nothing moves.
    """
    finish = {nid: delay[graph.op[nid]] for nid in graph.nodes}
    changed = True
    while changed:
        changed = False
        for src, dst in graph.edges:
            candidate = finish[src] + delay[graph.op[dst]]
            if candidate > finish[dst]:
                finish[dst] = candidate
                changed = True
    return max(finish.values())


def class_delays(lib: dict[str, Version]) -> tuple[dict[str, int], dict[str, int]]:
    """Per class: the fastest delay, and the delay of the most reliable version."""
    fast: dict[str, int] = {}
    reliable: dict[str, Version] = {}
    for v in lib.values():
        fast[v.op] = min(fast.get(v.op, v.delay), v.delay)
        best = reliable.get(v.op)
        if best is None or (v.reliability, -v.area) > (best.reliability, -best.area):
            reliable[v.op] = v
    return fast, {op: v.delay for op, v in reliable.items()}


def random_dag(rng: random.Random, name: str, n: int, window: int = 20) -> Graph:
    """Node i is ADD or MUL with 0-2 predecessors among the previous `window` nodes."""
    nodes = tuple(f"n{i}" for i in range(n))
    op = {nid: rng.choice(("add", "mul")) for nid in nodes}
    edges = []
    for i in range(1, n):
        lo = max(0, i - window)
        k = min(rng.randint(0, 2), i - lo)
        for j in sorted(rng.sample(range(lo, i), k)):
            edges.append((nodes[j], nodes[i]))
    return Graph(name, nodes, op, tuple(edges))


def edge_prob_dag(rng: random.Random, name: str, n: int, p: float = 0.35) -> Graph:
    """Each forward pair (i, j), i < j, is an edge with probability p."""
    nodes = tuple(f"n{i}" for i in range(n))
    op = {nid: rng.choice(("add", "mul")) for nid in nodes}
    edges = tuple(
        (nodes[i], nodes[j]) for j in range(1, n) for i in range(j) if rng.random() < p
    )
    return Graph(name, nodes, op, edges)


def _stratified(rng: random.Random, count: int) -> list[float]:
    """`count` draws in [0, 1), one from each of `count` equal strata, shuffled."""
    draws = [(k + rng.random()) / count for k in range(count)]
    rng.shuffle(draws)
    return draws


def synth_random(seed: int, lib: dict[str, Version], count: int = 480) -> list[Instance]:
    """Random DAGs of 40-160 nodes with latency/area bounds.

    Sizes are spread evenly over 40..160 (each about count/121 times) so
    every seed carries about the same amount of work.  Even-indexed calls
    get loose bounds (the most reliable versions fit: one schedule per
    call); odd-indexed calls get a latency bound between the fastest and
    the most reliable critical path and a tight area bound, which drives
    the repair loops.  Positions within those ranges are stratified.
    """
    rng = random.Random(f"synth-random:{seed}")
    fast, reliable = class_delays(lib)
    area_of = {op: min(v.area for v in lib.values() if v.op == op) for op in fast}
    l_frac = _stratified(rng, count // 2)
    a_frac = _stratified(rng, count // 2)
    out = []
    for i in range(count):
        n = 40 + (i * 121) // count
        g = random_dag(rng, f"r{i}", n)
        l_fast, l_rel = longest_path(g, fast), longest_path(g, reliable)
        # Area if every node had its own unit of the smallest version.
        a_serial = sum(area_of[g.op[nid]] for nid in g.nodes)
        if i % 2 == 0:
            latency = l_rel + rng.randint(0, 2)
            # Room for one unit of the largest version per node, twice over.
            area = 2 * max(v.area for v in lib.values()) * n
        else:
            k = i // 2
            latency = l_fast + int(l_frac[k] * (l_rel - l_fast + 1))
            area = float(max(4, round(a_serial * (0.15 + 0.30 * a_frac[k]))))
        out.append(Instance(g, latency, area))
    order = list(range(count))
    rng.shuffle(order)
    return [out[i] for i in order]


def oracle_small(seed: int, lib: dict[str, Version], count: int = 1800) -> list[Instance]:
    """Small DAGs of 6-8 nodes (edge probability 0.35) within oracle limits.

    Node counts cycle 6, 7, 8 and area bounds cycle through a fixed menu,
    so every seed has the same mix of both.  The latency bound lies
    between one cycle under the fastest critical path and two over the
    most reliable one, capped at 12, at a stratified position.
    """
    rng = random.Random(f"oracle-small:{seed}")
    fast, reliable = class_delays(lib)
    areas = (3, 4, 5, 6, 7, 8, 10, 12, 14, 16)
    l_frac = _stratified(rng, count)
    out = []
    for i in range(count):
        g = edge_prob_dag(rng, f"o{i}", 6 + i % 3)
        lo = max(1, longest_path(g, fast) - 1)
        hi = min(12, longest_path(g, reliable) + 2)
        latency = lo + int(l_frac[i] * (hi - lo + 1))
        out.append(Instance(g, latency, float(areas[(i // 3) % len(areas)])))
    order = list(range(count))
    rng.shuffle(order)
    return [out[i] for i in order]


# Bound grids of the bundled graphs, from latency-infeasible to
# NMR-saturated: (graph, latency lo:hi, area lo:hi, area step).
SWEEP_GRIDS = (
    ("fir16", "9:16", "8:40", "4"),
    ("ew", "14:21", "6:40", "2"),
    ("diffeq", "4:11", "4:36", "4"),
)


def sweep_order(seed: int) -> list[int]:
    """The seed orders the bundled grids; the grids themselves are fixed."""
    order = list(range(len(SWEEP_GRIDS)))
    random.Random(f"sweep-bundled:{seed}").shuffle(order)
    return order


if __name__ == "__main__":
    from pathlib import Path

    lib_text = (Path(__file__).resolve().parent.parent / "src/relsyn/data/table1.lib").read_text()
    lib = parse_library(lib_text)
    make = {"synth-random": synth_random, "oracle-small": oracle_small}[sys.argv[1]]
    for inst in make(int(sys.argv[2]), lib):
        g = inst.graph
        print(g.name, len(g.nodes), len(g.edges), inst.latency, inst.area)
