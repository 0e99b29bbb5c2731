"""Redundancy flows on top of version selection: the greedy N-modular
redundancy (NMR) upgrade, the single-version redundancy baseline, and
the combined flow.

A design succeeds only if every operation executes correctly, so total
reliability is the product over nodes of their effective per-node
reliability; an instance with redundancy factor N raises the effective
reliability of every node bound to it to the majority-voting value
(`model.nmr_reliability`).

Each design keeps its greedy upgrade per library (`_Pricing`), so pricing
it at many area bounds, as a sweep does, runs the greedy once per interval
of bounds on which its fit tests all answer the same.  The baseline prices
its candidates best proven ceiling first (`_Pricing.ceiling`) until none can win.
"""

from __future__ import annotations

import functools
import math

from .binder import with_nmr
from .model import Bounds, Design, Dfg, Infeasible, ResourceLibrary, _log_vote
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
    return _upgraded(design, *_pricing(design, library).price(area_bound))


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
        self.area, self.reliability, self.votes = design.area, design.reliability, {}
        self.nmr = {inst.id: inst.nmr_factor for inst in binding.instances}
        self.extra = {inst.id: 2 * library.by_name(inst.version).area for inst in binding.instances}
        # Per instance, its nodes' reliabilities in nodes_on order as [r, count] runs;
        # per node in binding order, its index in `votes`, the distinct (r, instance id).
        self.reliabilities, self.node_votes = {iid: [] for iid in self.nmr}, []
        for nid, iid in binding.node_to_instance.items():
            r, runs = assignment[nid].reliability, self.reliabilities[iid]
            if not runs or runs[-1][0] != r:
                runs.append([r, 0])
            runs[-1][1] += 1
            self.node_votes.append(self.votes.setdefault((r, iid), len(self.votes)))
        # By id, so that the greedy meets the lowest id of a tie first.
        self.ratio = {iid: self._gain_per_area(iid, self.nmr[iid]) for iid in sorted(self.nmr)}
        self.pairs = []  # `ceiling`'s: per instance, its r > 1/2 nodes' (gain per area, most gain)
        for iid, runs in self.reliabilities.items():
            n, up, cap = self.nmr[iid], 0.0, 0.0
            for r, count in runs:
                if r > 0.5:  # a vote of r <= 1/2 never gains
                    up, cap = up + count * _log_step(r, n), cap - count * _log_vote(r, n)
            if up > 0:
                self.pairs.append((up / self.extra[iid], cap))
        self.pairs.sort(reverse=True)
        self.runs: list[tuple[float, float | None, tuple[dict[int, int], float, float]]] = []

    def _gain_per_area(self, iid: int, n: int) -> float:
        gain = 0.0  # node by node, not sum(): see model.nmr_reliability
        for r, count in self.reliabilities[iid]:
            step = _log_step(r, n)
            for _ in range(count):
                gain += step
        return gain / self.extra[iid]

    def price(self, area_bound: float) -> tuple[dict[int, int], float, float]:
        """`greedy_nmr_upgrade`'s outcome at `area_bound`, unbuilt: the nmr factor
        per instance id (read-only: it is kept), the area and the reliability."""
        for lo, hi, outcome in self.runs:
            if lo <= area_bound and (hi is None or area_bound < hi):
                return outcome
        # Only an upgraded instance's gain changes.  The area only grows, so
        # an instance that no longer fits never fits again.
        nmr, ratio, area, extra = dict(self.nmr), dict(self.ratio), self.area, self.extra
        lo, hi = -math.inf, None
        while True:
            iid, top = None, 0.0
            for fit in list(ratio):
                total = area + extra[fit]
                if total > area_bound:
                    if hi is None or total < hi:
                        hi = total
                    del ratio[fit]
                else:
                    if total > lo:
                        lo = total
                    if ratio[fit] > top:  # by id: the lowest id of a tie
                        iid, top = fit, ratio[fit]
            if iid is None:
                break  # no upgrade that fits gains: r < 0.5, no node, or a saturated vote
            nmr[iid] += 2
            area += extra[iid]
            ratio[iid] = self._gain_per_area(iid, nmr[iid])
        logs = [_log_vote(r, nmr[iid]) for r, iid in self.votes]
        log_total = 0.0  # node by node, as model._reliability_product sums it
        for k in self.node_votes:
            log_total += logs[k]
        outcome = nmr, area, math.exp(log_total)
        self.runs.append((lo, hi, outcome))
        return outcome

    def ceiling(self, area_bound: float) -> float:
        """A bound, up to float rounding, on `price(area_bound)`'s reliability
        if the design fits: the fractional knapsack of `pairs` over the area
        left, best ratio first.  For N = 2k+1, R(r, N+2) - R(r, N) = (2r-1)
        C(N, k) (r(1-r))^(k+1) shrinks by 2(2k+3)/(k+2) r(1-r) < 1 a step: so
        for r > 1/2 no log step exceeds the one before (R grows), r <= 1/2
        never gains, and no node gains more than -log of its vote."""
        slack, gain = area_bound - self.area, 0.0
        for ratio, cap in self.pairs:
            if cap >= ratio * slack:
                return self.reliability * math.exp(gain + ratio * slack)
            gain, slack = gain + cap, slack - cap / ratio
        return self.reliability * math.exp(gain)


def _pricing(design: Design, library: ResourceLibrary) -> _Pricing:
    pricings = design._nmr_pricing
    return pricings.get(library) or pricings.setdefault(library, _Pricing(design, library))


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
    a_d, best = bounds.area_bound, ((-math.inf,), None, None)
    fits = [(_pricing(d, library), -i, d) for i, d in enumerate(designs) if d.area <= a_d]
    for ceiling, o, p, d in sorted(((p.ceiling(a_d), o, p, d) for p, o, d in fits), reverse=True):
        if ceiling < best[0][0] * (1 - 1e-9):  # 1e-9: rounding may pass a ceiling
            break  # no candidate left can reach the best priced reliability
        priced = p.price(a_d)  # keyed in the docstring's order:
        best = max(best, ((priced[2], -priced[1], -d.latency, o), d, priced))
    if best[1] is None:
        reason = "area" if designs else "latency"
        return Infeasible(reason, "no single-version combination meets both bounds")
    return _upgraded(best[1], *best[2])


def combined_synth(
    dfg: Dfg, library: ResourceLibrary, bounds: Bounds, *, memo: Memo | None = None
) -> Design | Infeasible:
    """Version selection first, then redundancy on whatever area is left.
    `memo` is as for `find_design`."""
    result = find_design(dfg, library, bounds, memo=memo)
    if isinstance(result, Infeasible):
        return result
    return greedy_nmr_upgrade(result, library, bounds.area_bound)
