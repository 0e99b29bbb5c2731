"""Redundancy flows on top of version selection: the greedy N-modular
redundancy (NMR) upgrade, the single-version redundancy baseline, and
the combined flow.

A design succeeds only if every operation executes correctly, so total
reliability is the product over nodes of their effective per-node
reliability; an instance with redundancy factor N raises the effective
reliability of every node bound to it to the majority-voting value
(`model.nmr_reliability`).

Each design keeps its greedy upgrade per library (`_Pricing`), so pricing
it at many area bounds, as a sweep does, runs the greedy once per
interval of bounds on which the greedy's fit tests all answer the same.
"""

from __future__ import annotations

import functools
import math

from .binder import with_nmr
from .model import Bounds, Design, Dfg, Infeasible, ResourceLibrary, _log_vote
from .model import _reliability_product, evaluate_reliability, nmr_reliability  # noqa: F401
from .synthesizer import Memo, find_design, single_version_designs


def greedy_nmr_upgrade(design: Design, library: ResourceLibrary, area_bound: float) -> Design:
    """Spend leftover area on redundancy, instance by instance.

    Repeatedly applies the nmr upgrade (N -> N+2) with the best
    log-reliability gain per unit area among those that still fit under
    `area_bound` (ties: lowest instance id), while that gain is positive.
    An instance's gain adds, for each node on it, the step
    log R(r, N+2) - log R(r, N) of its version's reliability r, computed
    once per (r, N) and process.  Schedule and latency are untouched.
    """
    return _upgraded(design, *_price_upgrade(design, library, area_bound))


@functools.cache
def _log_step(r: float, n: int) -> float:
    upgraded = _log_vote(r, n + 2)  # -inf where the vote underflows: the greedy stops
    return upgraded - _log_vote(r, n) if upgraded > -math.inf else -math.inf


class _Pricing:
    """The greedy upgrade of one design under one library, at any area bound.

    Each instance's extra area, node reliabilities and initial gain per unit
    area are computed once.  The bound enters the greedy only through its
    fit tests area + extra > bound, so each run is kept with the interval
    [lo, hi) of bounds on which every test it made answers the same: lo is
    the largest tested sum that fit, hi the smallest that did not (None if
    every test fit).  A bound inside a kept interval gets that run's outcome.
    """

    def __init__(self, design: Design, library: ResourceLibrary) -> None:
        binding, assignment = design.binding, design.assignment
        self.assignment, self.to_instance = assignment, binding.node_to_instance
        self.area = design.area
        self.nmr = {inst.id: inst.nmr_factor for inst in binding.instances}
        self.extra = {inst.id: 2 * library.by_name(inst.version).area for inst in binding.instances}
        self.reliabilities = {
            iid: [assignment[nid].reliability for nid in binding.nodes_on(iid)]
            for iid in self.nmr
        }
        # By id, so that max() meets the lowest id of a tie first.
        self.ratio = {iid: self._gain_per_area(iid, self.nmr[iid]) for iid in sorted(self.nmr)}
        self.runs: list[tuple[float, float | None, tuple[dict[int, int], float, float]]] = []

    def _gain_per_area(self, iid: int, n: int) -> float:
        gain = 0.0  # left to right, not sum(): see model.nmr_reliability
        for r in self.reliabilities[iid]:
            gain += _log_step(r, n)
        return gain / self.extra[iid]

    def price(self, area_bound: float) -> tuple[dict[int, int], float, float]:
        for lo, hi, outcome in self.runs:
            if lo <= area_bound and (hi is None or area_bound < hi):
                return outcome
        # Only an upgraded instance's gain changes.  The area only grows, so
        # an instance that no longer fits never fits again.
        nmr, ratio, area, extra = dict(self.nmr), dict(self.ratio), self.area, self.extra
        lo, hi = -math.inf, None
        while True:
            for iid in list(ratio):
                total = area + extra[iid]
                if total > area_bound:
                    if hi is None or total < hi:
                        hi = total
                    del ratio[iid]
                elif total > lo:
                    lo = total
            if not ratio:
                break
            iid = max(ratio, key=ratio.__getitem__)
            if ratio[iid] <= 0:
                break  # no upgrade that fits gains: r < 0.5, no node, or a saturated vote
            nmr[iid] += 2
            area += extra[iid]
            ratio[iid] = self._gain_per_area(iid, nmr[iid])
        assignment, to_instance = self.assignment, self.to_instance
        votes = ((assignment[nid].reliability, nmr[iid]) for nid, iid in to_instance.items())
        outcome = nmr, area, _reliability_product(votes)
        self.runs.append((lo, hi, outcome))
        return outcome


def _price_upgrade(
    design: Design, library: ResourceLibrary, area_bound: float
) -> tuple[dict[int, int], float, float]:
    """What `greedy_nmr_upgrade` makes of `design`, without building it:
    the nmr factor per instance id (read-only: it is kept), the area and
    the reliability."""
    pricing = design._nmr_pricing.get(library)
    if pricing is None:
        pricing = design._nmr_pricing[library] = _Pricing(design, library)
    return pricing.price(area_bound)


def _upgraded(design: Design, nmr: dict[int, int], area: float, reliability: float) -> Design:
    binding = with_nmr(design.binding, nmr)
    return Design(design.assignment, design.schedule, binding, design.latency, area, reliability)


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
    # The docstring's order on the upgraded values: the first maximum wins.
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
