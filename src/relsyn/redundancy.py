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
from .synthesizer import Memo, best_design, find_design, single_version_designs

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
    extra = {inst.id: 2 * library.by_name(inst.version).area for inst in design.binding.instances}

    log_voted: dict[tuple[float, int], float] = {}  # (r, N) -> log of its voted reliability

    def log_nmr(r: float, n: int) -> float:
        if (r, n) not in log_voted:
            log_voted[r, n] = math.log(nmr_reliability(r, n))
        return log_voted[r, n]

    def gain_per_area(iid: int) -> float:
        n = nmr[iid]
        gain = 0.0  # left to right, not sum(): see model.nmr_reliability
        for nid in design.binding.nodes_on(iid):
            r = design.assignment[nid].reliability
            gain += log_nmr(r, n + 2) - log_nmr(r, n)
        return gain / extra[iid]

    # Only an upgraded instance's gain changes.  The area only grows, so an
    # instance that no longer fits never fits again.
    ratio = {iid: gain_per_area(iid) for iid in nmr}
    area = design.area
    while True:
        for iid in [iid for iid in ratio if area + extra[iid] > area_bound]:
            del ratio[iid]
        if not ratio:
            break
        iid = max(ratio, key=lambda i: (ratio[i], -i))
        nmr[iid] += 2
        area += extra[iid]
        ratio[iid] = gain_per_area(iid)
    binding = with_nmr(design.binding, nmr)
    return Design(
        assignment=dict(design.assignment),
        schedule=design.schedule,
        binding=binding,
        latency=design.latency,
        area=area,
        reliability=_reliability_product(binding.node_to_instance, design.assignment, binding),
    )


def baseline_nmr_synth(
    dfg: Dfg, library: ResourceLibrary, bounds: Bounds, *, memo: Memo | None = None
) -> Design | Infeasible:
    """Redundancy-only reference flow: one version per operation class.

    Enumerates every single-version-per-class assignment, schedules and
    binds each against the latency bound, discards bound violators, and
    spends any leftover area on redundancy.  Returns the surviving
    design with the highest reliability (ties: smaller area, then
    smaller latency, then enumeration order).  `memo` is as for
    `find_design`.
    """
    library.check_covers(dfg)
    designs = list(single_version_designs(dfg, library, bounds.latency_bound, memo=memo))
    best = best_design(
        greedy_nmr_upgrade(d, library, bounds.area_bound)
        for d in designs
        if d.area <= bounds.area_bound
    )
    if best is None:
        reason = "area" if designs else "latency"
        return Infeasible(reason, "no single-version combination meets both bounds")
    return best


def combined_synth(
    dfg: Dfg, library: ResourceLibrary, bounds: Bounds, *, memo: Memo | None = None
) -> Design | Infeasible:
    """Version selection first, then redundancy on whatever area is left.
    `memo` is as for `find_design`."""
    result = find_design(dfg, library, bounds, memo=memo)
    if isinstance(result, Infeasible):
        return result
    return greedy_nmr_upgrade(result, library, bounds.area_bound)
