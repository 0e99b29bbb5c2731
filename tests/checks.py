"""Shared test helpers: test graphs, from-scratch re-validation of
synthesis results, and a reference enumeration of single-version designs.

The validation recomputes invariants directly from schedule/binding
contents using plain loops, independent of the package's scheduling and
binding code paths.  The reference builds each design from the scheduler,
the binder and the reliability model alone, not through the synthesizer.
"""

from __future__ import annotations

import itertools
import math
import random

from relsyn.binder import bind, total_area
from relsyn.model import Dfg, DfgNode, OpClass, ResourceLibrary, evaluate_reliability
from relsyn.model import nmr_reliability, parse_dfg, parse_library
from relsyn.scheduler import InfeasibleBoundError, density_schedule
from relsyn.synthesizer import Design

# Versions of 1-4 cycles, so windows fold over multi-cell intervals and
# starts are scored over up to four cells; the bundled library stops at 2.
WIDE_LIB = parse_library(
    """
    resource A1 add 1 4 0.999
    resource A2 add 2 3 0.99
    resource A3 add 3 2 0.98
    resource A4 add 5 1 0.97
    resource M1 mul 2 4 0.999
    resource M2 mul 3 3 0.99
    resource M3 mul 6 1 0.97
    """
)

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


def successors(dfg: Dfg) -> dict[str, list[str]]:
    """Per node id, in declaration order, its successors' ids in edge order,
    read from the edge list alone."""
    succs: dict[str, list[str]] = {nid: [] for nid in dfg.node_ids}
    for src, dst in dfg.edges:
        succs[src].append(dst)
    return succs


def tails(dfg: Dfg, assignment) -> dict[str, int]:
    """Per node id, the total delay of its heaviest path to a sink, read
    from the edge list alone."""
    succs, tail = successors(dfg), {}

    def of(nid: str) -> int:
        if nid not in tail:
            tail[nid] = assignment[nid].delay + max(map(of, succs[nid]), default=0)
        return tail[nid]

    for nid in succs:
        of(nid)
    return tail


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
    for iid, inst in enumerate(design.binding.instances):
        for nid in by_instance.get(iid, []):
            assert design.assignment[nid].name == inst.version
        busy: set[int] = set()
        for nid in by_instance.get(iid, []):
            cells = set(range(starts[nid], starts[nid] + design.assignment[nid].delay))
            assert not busy & cells, f"instance {iid} double-booked"
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
        n = design.binding.instances[design.binding.node_to_instance[nid]].nmr_factor
        product *= nmr_reliability(r, n) if n > 1 else r
    assert math.isclose(product, design.reliability, rel_tol=1e-9)

    if latency_bound is not None:
        assert design.latency <= latency_bound
    if area_bound is not None:
        assert design.area <= area_bound + 1e-9


def single_version_reference(dfg: Dfg, library: ResourceLibrary, latency_bound: int) -> list:
    """Every single-version-per-class design that meets `latency_bound`, one
    per choice of a version for each class the graph uses (the product of
    their versions in library order, classes in `OpClass` order), each
    density-scheduled, bound and priced anew: no candidate list or memo."""
    used = [cls for cls in OpClass if dfg.class_counts()[cls]]
    designs = []
    for combo in itertools.product(*(library.versions_for(cls) for cls in used)):
        version = dict(zip(used, combo))
        assignment = {node.id: version[node.op_class] for node in dfg.nodes}
        try:
            schedule = density_schedule(dfg, assignment, latency_bound)
        except InfeasibleBoundError:
            continue
        binding = bind(dfg, schedule, assignment)
        area = total_area(binding, library)
        reliability = evaluate_reliability(dfg, assignment, binding)
        designs.append(Design(assignment, schedule, binding, schedule.latency, area, reliability))
    return designs
