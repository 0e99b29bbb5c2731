"""Redundancy flows on top of version selection: the greedy N-modular
redundancy (NMR) upgrade, the single-version redundancy baseline, and
the combined flow.

A design succeeds only if every operation executes correctly, so total
reliability is the product over nodes of their effective per-node
reliability; an instance with redundancy factor N raises the effective
reliability of every node bound to it to the majority-voting value
(`model.nmr_reliability`).
"""

from __future__ import annotations

import math
from typing import Mapping

from .binder import with_nmr
from .model import Bounds, Design, Dfg, Infeasible, ResourceLibrary, nmr_reliability
from .model import _reliability_product, evaluate_reliability  # noqa: F401 (re-export)
from .synthesizer import best_design, find_design, single_version_designs

# Redundancy factors per instance id; all values odd, 1 = no redundancy.
NmrSpec = Mapping[int, int]


def greedy_nmr_upgrade(design: Design, library: ResourceLibrary, area_bound: float) -> Design:
    """Spend leftover area on redundancy, instance by instance.

    Repeatedly applies the nmr upgrade (N -> N+2) with the best
    log-reliability gain per unit area among those that still fit under
    `area_bound` (ties: lowest instance id).  Schedule and latency are
    untouched.
    """
    nmr: dict[int, int] = {inst.id: inst.nmr_factor for inst in design.binding.instances}
    area = design.area
    nodes_on = {
        inst.id: design.binding.nodes_on(inst.id) for inst in design.binding.instances
    }
    while True:
        best = None  # (metric, -instance_id) maximized
        for inst in design.binding.instances:
            extra = 2 * library.by_name(inst.version).area
            if area + extra > area_bound:
                continue
            n = nmr[inst.id]
            gain = sum(
                math.log(nmr_reliability(design.assignment[nid].reliability, n + 2))
                - math.log(nmr_reliability(design.assignment[nid].reliability, n))
                for nid in nodes_on[inst.id]
            )
            key = (gain / extra, -inst.id)
            if best is None or key > best[0]:
                best = (key, inst.id, extra)
        if best is None:
            break
        _, iid, extra = best
        nmr[iid] += 2
        area += extra
    binding = with_nmr(design.binding, nmr)
    return Design(
        assignment=dict(design.assignment),
        schedule=design.schedule,
        binding=binding,
        latency=design.latency,
        area=area,
        reliability=_reliability_product(binding.node_to_instance, design.assignment, binding),
    )


def baseline_nmr_synth(dfg: Dfg, library: ResourceLibrary, bounds: Bounds) -> Design | Infeasible:
    """Redundancy-only reference flow: one version per operation class.

    Enumerates every single-version-per-class assignment, schedules and
    binds each against the latency bound, discards bound violators, and
    spends any leftover area on redundancy.  Returns the surviving
    design with the highest reliability (ties: smaller area, then
    smaller latency, then enumeration order).
    """
    library.check_covers(dfg)
    designs = list(single_version_designs(dfg, library, bounds.latency_bound))
    best = best_design(
        greedy_nmr_upgrade(d, library, bounds.area_bound)
        for d in designs
        if d.area <= bounds.area_bound
    )
    if best is None:
        reason = "area" if designs else "latency"
        return Infeasible(reason, "no single-version combination meets both bounds")
    return best


def combined_synth(dfg: Dfg, library: ResourceLibrary, bounds: Bounds) -> Design | Infeasible:
    """Version selection first, then redundancy on whatever area is left."""
    result = find_design(dfg, library, bounds)
    if isinstance(result, Infeasible):
        return result
    return greedy_nmr_upgrade(result, library, bounds.area_bound)
