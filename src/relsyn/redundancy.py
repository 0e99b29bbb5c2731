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
from dataclasses import replace

from .binder import with_nmr
from .model import Bounds, Design, Dfg, Infeasible, ResourceLibrary, nmr_reliability
from .model import _reliability_product, evaluate_reliability  # noqa: F401 (re-export)
from .synthesizer import Memo, find_design, single_version_designs


def greedy_nmr_upgrade(design: Design, library: ResourceLibrary, area_bound: float) -> Design:
    """Spend leftover area on redundancy, instance by instance.

    Repeatedly applies the nmr upgrade (N -> N+2) with the best
    log-reliability gain per unit area among those that still fit under
    `area_bound` (ties: lowest instance id), while that gain is positive.
    An instance's gain adds, for each node on it, the step
    log R(r, N+2) - log R(r, N) of its version's reliability r, computed
    once per (r, N).  Schedule and latency are untouched.
    """
    return _upgraded(design, *_price_upgrade(design, library, area_bound))


def _price_upgrade(
    design: Design, library: ResourceLibrary, area_bound: float
) -> tuple[dict[int, int], float, float]:
    """What `greedy_nmr_upgrade` makes of `design`, without building it:
    the nmr factor per instance id, the area and the reliability."""
    assignment, binding = design.assignment, design.binding
    nmr: dict[int, int] = {inst.id: inst.nmr_factor for inst in binding.instances}
    extra = {inst.id: 2 * library.by_name(inst.version).area for inst in binding.instances}
    step: dict[tuple[float, int], float] = {}  # (r, N) -> log R(r, N+2) - log R(r, N)

    def gain_per_area(iid: int) -> float:
        n = nmr[iid]
        gain = 0.0  # left to right, not sum(): see model.nmr_reliability
        for nid in binding.nodes_on(iid):
            r = assignment[nid].reliability
            if (r, n) not in step:
                step[r, n] = math.log(nmr_reliability(r, n + 2)) - math.log(nmr_reliability(r, n))
            gain += step[r, n]
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
        if ratio[iid] <= 0:
            break  # no upgrade that fits gains: r < 0.5, no node, or a saturated vote
        nmr[iid] += 2
        area += extra[iid]
        ratio[iid] = gain_per_area(iid)
    to_instance = binding.node_to_instance
    reliability = _reliability_product(to_instance, assignment, lambda nid: nmr[to_instance[nid]])
    return nmr, area, reliability


def _upgraded(design: Design, nmr: dict[int, int], area: float, reliability: float) -> Design:
    return replace(
        design, binding=with_nmr(design.binding, nmr), area=area, reliability=reliability
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
    `find_design`.  Candidates are priced, and only the winner is built.
    """
    library.check_covers(dfg)
    designs = single_version_designs(dfg, library, bounds.latency_bound, memo=memo)
    a_d = bounds.area_bound
    # best_design's order on the upgraded values: the first maximum wins.
    best = max(
        ((d, _price_upgrade(d, library, a_d)) for d in designs if d.area <= a_d),
        key=lambda p: (p[1][2], -p[1][1], -p[0].latency),
        default=None,
    )
    if best is None:
        reason = "area" if designs else "latency"
        return Infeasible(reason, "no single-version combination meets both bounds")
    return _upgraded(best[0], *best[1])


def combined_synth(
    dfg: Dfg, library: ResourceLibrary, bounds: Bounds, *, memo: Memo | None = None
) -> Design | Infeasible:
    """Version selection first, then redundancy on whatever area is left.
    `memo` is as for `find_design`."""
    result = find_design(dfg, library, bounds, memo=memo)
    if isinstance(result, Infeasible):
        return result
    return greedy_nmr_upgrade(result, library, bounds.area_bound)
