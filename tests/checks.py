"""Shared test helpers: test graphs, and from-scratch re-validation of
synthesis results.

The validation recomputes invariants directly from schedule/binding
contents using plain loops, independent of the package's scheduling and
binding code paths.
"""

from __future__ import annotations

import math
import random

from relsyn.model import Dfg, DfgNode, OpClass, ResourceLibrary, nmr_reliability, parse_dfg
from relsyn.synthesizer import Design

# Two sources joined into one chain of adders.
FANIN_CHAIN = parse_dfg(
    "node A add\nnode B add\nnode C add\nnode D add\nnode E add\nnode F add\n"
    "edge A C\nedge B C\nedge C D\nedge D E\nedge E F\n"
)


def random_dfg(
    rng: random.Random, max_nodes: int = 8, min_nodes: int = 2, edge_p: float = 0.35
) -> Dfg:
    """`min_nodes` to `max_nodes` nodes n0, n1, ... of random class, and each
    edge ni -> nj (i < j) with probability `edge_p`, drawn in that order."""
    n = rng.randint(min_nodes, max_nodes)
    nodes = tuple(
        DfgNode(f"n{i}", rng.choice((OpClass.ADD, OpClass.MUL))) for i in range(n)
    )
    edges = []
    for j in range(1, n):
        for i in range(j):
            if rng.random() < edge_p:
                edges.append((f"n{i}", f"n{j}"))
    return Dfg(nodes, tuple(edges))


def validate_design(
    dfg: Dfg,
    library: ResourceLibrary,
    design: Design,
    latency_bound: int | None = None,
    area_bound: float | None = None,
) -> None:
    """Assert a design is internally consistent and meets its bounds."""
    # Assignment total and class-consistent.
    assert set(design.assignment) == set(dfg.node_ids)
    for node in dfg.nodes:
        assert design.assignment[node.id].op_class is node.op_class

    # Precedence feasibility and latency accounting.
    starts = design.schedule.starts
    for nid in dfg.node_ids:
        assert starts[nid] >= 1
    for src, dst in dfg.edges:
        assert starts[dst] >= starts[src] + design.assignment[src].delay, (
            f"edge {src}->{dst} violated"
        )
    latency = max(starts[n] + design.assignment[n].delay - 1 for n in dfg.node_ids)
    assert latency == design.schedule.latency == design.latency

    # Binding: version consistency and no overlapping intervals per instance.
    by_instance: dict[int, list[str]] = {}
    for nid, iid in design.binding.node_to_instance.items():
        by_instance.setdefault(iid, []).append(nid)
    for inst in design.binding.instances:
        for nid in by_instance.get(inst.id, []):
            assert design.assignment[nid].name == inst.version
        busy: set[int] = set()
        for nid in by_instance.get(inst.id, []):
            cells = set(range(starts[nid], starts[nid] + design.assignment[nid].delay))
            assert not busy & cells, f"instance {inst.id} double-booked"
            busy |= cells

    # Area and reliability recomputed from first principles.
    area = sum(
        library.by_name(inst.version).area * inst.nmr_factor
        for inst in design.binding.instances
    )
    assert math.isclose(area, design.area, rel_tol=0, abs_tol=1e-9)
    product = 1.0
    for nid in dfg.node_ids:
        r = design.assignment[nid].reliability
        n = design.binding.instance(design.binding.node_to_instance[nid]).nmr_factor
        product *= nmr_reliability(r, n) if n > 1 else r
    assert math.isclose(product, design.reliability, rel_tol=1e-9)

    if latency_bound is not None:
        assert design.latency <= latency_bound
    if area_bound is not None:
        assert design.area <= area_bound + 1e-9
