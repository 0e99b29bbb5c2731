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
of bounds on which its fit tests all answer the same, and builds each
run's upgraded design once, from interned instances.  The greedy takes
the best gain per unit area first, from gains kept per (id, N).  The
baseline prices its candidates best proven ceiling first
(`_Pricing.ceiling`) until none can win, and builds the winner only.
"""

from __future__ import annotations

import functools
import heapq
import math
import operator

from .binder import Binding, _unit
from .model import Bounds, Design, Dfg, Infeasible, ResourceLibrary, _log_vote
from .synthesizer import Memo, _candidate_at, _candidates, find_design


def greedy_nmr_upgrade(design: Design, library: ResourceLibrary, area_bound: float) -> Design:
    """Spend leftover area on redundancy, instance by instance.

    Repeatedly applies the nmr upgrade (N -> N+2) with the best
    log-reliability gain per unit area among those that still fit under
    `area_bound` (ties: lowest instance id), while that gain is positive.
    An instance's gain adds, for each node on it, the step
    log R(r, N+2) - log R(r, N) of its version's reliability r, computed
    once per (r, N) and process.  Schedule and latency are untouched.
    Bounds that one greedy run answers get the same design: treat it as
    read-only.
    """
    pricing = _pricing(design, library)
    return pricing.design(pricing.price(area_bound))


@functools.cache
def _log_step(r: float, n: int) -> float:
    upgraded = _log_vote(r, n + 2)  # -inf where the vote underflows: the greedy stops
    return upgraded - _log_vote(r, n) if upgraded > -math.inf else -math.inf


@functools.cache
def _doubled(library: ResourceLibrary) -> tuple[dict[str, float], float]:
    """Per version name, twice its area, and `_Pricing.exact_from`: a fit test
    adds one term, exact in any order for whole numbers below 2**53, and from
    `exact_from` on re-sums area x N as binder.total_area does: the area stated."""
    whole = all(v.area.is_integer() for v in library.versions)
    return {v.name: 2 * v.area for v in library.versions}, 2.0**53 if whole else -math.inf


class _Pricing:
    """The greedy upgrade of one design under one library, at any area bound.

    Each instance's extra area and node reliabilities are computed once, in
    lists indexed by instance id, and its gain per unit area once per (id,
    N).  The bound enters the greedy only through its fit tests, stepped
    area > bound, so each run is kept with the interval [lo, hi) of bounds
    on which every test it made answers the same: lo is the largest tested
    sum that fit, hi the smallest that did not (None if every test fit).  A
    bound inside a kept interval gets that run's outcome, and the intervals
    are disjoint.  A run's design is built once, when first asked for: an
    instance whose factor is unchanged is the design's, any other is
    `binder._unit`'s one object per (version, N).
    """

    def __init__(self, design: Design, library: ResourceLibrary) -> None:
        binding, assignment = design.binding, design.assignment
        self.frame = assignment, design.schedule, binding, design.latency  # no Design: no cycle
        self.area, self.reliability, self.votes = design.area, design.reliability, {}
        self.nmr = [inst.nmr_factor for inst in binding.instances]
        doubled, self.exact_from = _doubled(library)
        self.extra = [doubled[inst.version] for inst in binding.instances]
        # Per instance, its nodes' reliabilities in node order as [r, count] runs;
        # per node in binding order, its index in `votes`, the distinct (r, instance id).
        self.reliabilities, self.node_votes = [[] for _ in self.nmr], []
        for nid, iid in binding.node_to_instance.items():
            r, runs = assignment[nid].reliability, self.reliabilities[iid]
            if not runs or runs[-1][0] != r:
                runs.append([r, 0])
            runs[-1][1] += 1
            self.node_votes.append(self.votes.setdefault((r, iid), len(self.votes)))
        # (-gain per area, id) of each instance that gains, as a heap: it pops
        # the best gain first and the lowest id of a tie.  Gains past the
        # design's N are kept per (id, N) as runs meet them.
        per_area = map(self._gain_per_area, range(len(self.nmr)), self.nmr)
        self.heap = [(-g, iid) for iid, g in enumerate(per_area) if g > 0]
        heapq.heapify(self.heap)
        self.gains: dict[tuple[int, int], float] = {}
        self.pairs = []  # `ceiling`'s: per instance, its r > 1/2 nodes' (gain per area, most gain)
        for iid, runs in enumerate(self.reliabilities):
            n, up, cap = self.nmr[iid], 0.0, 0.0
            for r, count in runs:
                if r > 0.5:  # a vote of r <= 1/2 never gains
                    up, cap = up + count * _log_step(r, n), cap - count * _log_vote(r, n)
            if up > 0:
                self.pairs.append((up / self.extra[iid], cap))
        self.pairs.sort(reverse=True)
        self.runs: list[tuple[float, float | None, list]] = []

    def _gain_per_area(self, iid: int, n: int) -> float:
        gain = 0.0  # node by node, not sum(): see model.nmr_reliability
        for r, count in self.reliabilities[iid]:
            step = _log_step(r, n)
            for _ in range(count):
                gain += step
        return gain / self.extra[iid]

    def price(self, area_bound: float) -> list:
        """`greedy_nmr_upgrade`'s outcome at `area_bound`: [nmr factor per
        instance id, area, reliability, the design once `design` has built
        it, else None].  It is kept: treat it as read-only."""
        for lo, hi, outcome in reversed(self.runs):
            if lo <= area_bound and (hi is None or area_bound < hi):
                return outcome
        # The area only grows, so an instance that no longer fits never fits again.
        nmr, heap, area, extra = list(self.nmr), list(self.heap), self.area, self.extra
        lo, hi, gains, exact_from = -math.inf, None, self.gains, self.exact_from
        while heap:
            iid = heap[0][1]
            total = area + extra[iid]
            if total >= exact_from:  # e / 2 is the unit area, exactly
                nmr[iid] += 2
                terms = [e / 2 * n for e, n in zip(extra, nmr)]
                total = functools.reduce(operator.add, terms, 0.0)
                nmr[iid] -= 2
            if total > area_bound:
                hi = total if hi is None or total < hi else hi
                heapq.heappop(heap)
                continue
            lo = area = total
            n = nmr[iid] = nmr[iid] + 2
            if (gain := gains.get((iid, n))) is None:
                gain = gains[iid, n] = self._gain_per_area(iid, n)
            if gain > 0:
                heapq.heapreplace(heap, (-gain, iid))
            else:  # r < 0.5, no node, or a saturated vote
                heapq.heappop(heap)
        logs = [_log_vote(r, nmr[iid]) for r, iid in self.votes]
        # Node by node from 0.0, as model._reliability_product sums it.
        log_total = functools.reduce(operator.add, map(logs.__getitem__, self.node_votes), 0.0)
        outcome = [nmr, area, math.exp(log_total), None]
        self.runs.append((lo, hi, outcome))
        return outcome

    def design(self, outcome: list) -> Design:
        """The upgraded design of a kept `outcome`, built on first use."""
        if outcome[3] is None:
            nmr, area, reliability, _ = outcome
            assignment, schedule, own, latency = self.frame
            instances = tuple([
                i if i.nmr_factor == n else _unit(i.version, n) for i, n in zip(own.instances, nmr)
            ])
            binding = Binding(own.node_to_instance, instances)
            outcome[3] = Design(assignment, schedule, binding, latency, area, reliability)
        return outcome[3]

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
    l_d, a_d, memo = bounds.latency_bound, bounds.area_bound, {} if memo is None else memo
    candidates, best = _candidates(dfg, library, memo)[0], ((-math.inf,), None, None)
    designs = [d for c in candidates if (d := _candidate_at(dfg, library, c, l_d, memo))]
    fits = [(_pricing(d, library), -i, d) for i, d in enumerate(designs) if d.area <= a_d]
    for ceiling, o, p, d in sorted(((p.ceiling(a_d), o, p, d) for p, o, d in fits), reverse=True):
        if ceiling < best[0][0] * (1 - 1e-9):  # 1e-9: rounding may pass a ceiling
            break  # no candidate left can reach the best priced reliability
        priced = p.price(a_d)  # keyed in the docstring's order:
        best = max(best, ((priced[2], -priced[1], -d.latency, o), p, priced))
    if best[1] is None:
        reason = "area" if designs else "latency"
        return Infeasible(reason, "no single-version combination meets both bounds")
    return best[1].design(best[2])


def combined_synth(
    dfg: Dfg, library: ResourceLibrary, bounds: Bounds, *, memo: Memo | None = None
) -> Design | Infeasible:
    """Version selection first, then redundancy on whatever area is left.
    `memo` is as for `find_design`."""
    result = find_design(dfg, library, bounds, memo=memo)
    if isinstance(result, Infeasible):
        return result
    return greedy_nmr_upgrade(result, library, bounds.area_bound)
