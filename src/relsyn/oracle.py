"""Exhaustive reference implementation for small instances.

Ground truth for testing the synthesis heuristic: enumerates every
per-node version assignment in descending reliability order and, for
each, searches all precedence-feasible start vectors under the latency
bound for one whose shared-hardware area fits.  Scheduling, longest
paths, and instance packing are reimplemented here on purpose so the
check does not share code paths with the production scheduler/binder.

The enumeration is best-first: a heap holds prefixes of version
combinations, keyed by an upper bound on the log reliability of their
completions (the prefix's log sum, then each later node's best log,
added left to right; float addition is monotone, so no completion's key
exceeds it) and, on ties, by `itertools.product` order.  Complete
combinations so pop most reliable first, in the order a stable sort
gives, and the walk stops at the first that fits.  A prefix is dropped
with all its completions once its fastest completion misses the latency
bound (one longest path per delay vector met) or its used versions
alone miss the area bound (one area sum per bitmask met).

The start-vector search first refuses a combination whose root bound
exceeds the area bound: Σ area × count over the used versions, where a
version's count is the largest of 1, ⌈Σ delay of its nodes / L⌉ and the
peak overlap of its nodes' compulsory parts [latest start, earliest
start + delay − 1] (the time-table and energetic reasoning of cumulative
scheduling; Baptiste, Le Pape & Nuijten, 2001).  Every start vector
occupies each compulsory part and packs its busy cycles into L cycles,
so each count is at most the version's final peak concurrency; float
products and left-to-right sums are monotone, so the bound never exceeds
the area of a complete start vector.  Otherwise the search places nodes
in topological order and drops a partial start vector once
Σ area × max(peak concurrency, 1) over the used versions exceeds the
area bound; with every node placed, that sum is the area.  Version areas
are always summed in library declaration order, so the result does not
depend on hash order and a returned design's area never exceeds the area
bound.
"""

from __future__ import annotations

import functools
import heapq
import math
import operator
from typing import Callable

from .binder import Binding, Instance
from .model import Assignment, Bounds, Design, Dfg, Infeasible, ResourceLibrary, ResourceVersion
from .model import ValidationError, check_assignment
from .scheduler import Schedule


class OracleLimitError(ValueError):
    """Instance too large for exhaustive search."""


MAX_VERSIONS_PER_CLASS = 3
MAX_LATENCY_BOUND = 12


def _check_limits(dfg: Dfg, max_nodes: int) -> None:
    if len(dfg.nodes) > max_nodes:
        raise OracleLimitError(
            f"{len(dfg.nodes)} nodes exceeds oracle limit {max_nodes}"
        )


def oracle_min_latency(dfg: Dfg, assignment: Assignment, *, max_nodes: int = 8) -> int:
    """Minimum achievable latency by exhaustive path enumeration."""
    _check_limits(dfg, max_nodes)
    check_assignment(dfg, assignment)
    best = 0
    stack: list[tuple[str, int]] = [
        (nid, assignment[nid].delay) for nid in dfg.source_ids
    ]
    while stack:
        nid, weight = stack.pop()
        succs = dfg.succs(nid)
        if not succs:
            best = max(best, weight)
        for succ in succs:
            stack.append((succ, weight + assignment[succ].delay))
    return best


def _critical_paths(dfg: Dfg) -> Callable[[tuple[int, ...]], int]:
    """A memo of the critical path length per delay vector (node k, in
    declaration order, takes delays[k] cycles)."""
    steps = [(k, dfg.pred_positions[k]) for k in dfg.topo_positions]
    sinks = [k for k, succs in enumerate(dfg.succ_positions) if not succs]

    @functools.cache
    def span(delays: tuple[int, ...]) -> int:
        finish = [0] * len(delays)
        for k, preds in steps:
            ready = 0
            for p in preds:
                if finish[p] > ready:
                    ready = finish[p]
            finish[k] = ready + delays[k]
        return max([finish[k] for k in sinks])

    return span


def _left_edge_pack(
    dfg: Dfg, assignment: Assignment, starts: dict[str, int]
) -> tuple[dict[str, int], tuple[Instance, ...]]:
    intervals = sorted(
        ((starts[nid], dfg.declaration_index(nid), nid) for nid in dfg.node_ids)
    )
    free_at: list[int] = []
    versions: list[str] = []
    mapping: dict[str, int] = {}
    for start, _, nid in intervals:
        version = assignment[nid]
        target = None
        for iid, (vname, busy_until) in enumerate(zip(versions, free_at)):
            if vname == version.name and busy_until < start:
                target = iid
                break
        if target is None:
            target = len(versions)
            versions.append(version.name)
            free_at.append(0)
        mapping[nid] = target
        free_at[target] = start + version.delay - 1
    instances = tuple(Instance(i, v) for i, v in enumerate(versions))
    return {nid: mapping[nid] for nid in dfg.node_ids}, instances


def _root_bound(
    used: list[ResourceVersion], slot: list[int], delay: list[int],
    earliest: list[int], latest: list[int], l_d: int,
) -> float:
    """The root bound of the module docstring; node k, of version
    used[slot[k]], takes delay[k] cycles and starts in [earliest[k], latest[k]]."""
    usage = [[0] * l_d for _ in used]  # per used version, its compulsory parts per cycle
    busy = [0] * len(used)
    for k, j in enumerate(slot):
        busy[j] += delay[k]
        for c in range(latest[k] - 1, earliest[k] + delay[k] - 1):
            usage[j][c] += 1
    bound = 0.0  # left to right: sum() of floats is compensated on Python >= 3.12
    for v, row, cycles in zip(used, usage, busy):
        bound += v.area * max(1, -(-cycles // l_d), max(row))
    return bound


def _feasible_starts(
    dfg: Dfg, assignment: Assignment, used: list[ResourceVersion], bounds: Bounds
) -> tuple[dict[str, int], float] | None:
    """Search start vectors in topological order; the first that fits and
    its shared-hardware area, or None if nothing fits.  The module docstring
    gives the root bound that can refuse the search and the bound that
    prunes partial vectors (every used version needs at least one
    instance); `used` lists the assigned versions in library order, the
    order both bounds sum them in."""
    l_d, a_d = bounds.latency_bound, bounds.area_bound
    ids, order, preds = dfg.node_ids, dfg.topo_positions, dfg.pred_positions
    versions = [assignment[nid] for nid in ids]  # by node position
    slot = [used.index(v) for v in versions]
    delay = [v.delay for v in versions]
    earliest, latest = [0] * len(ids), [0] * len(ids)
    for k in order:
        earliest[k] = max([earliest[p] + delay[p] for p in preds[k]], default=1)
    for k in reversed(order):  # the latest start that leaves every successor room
        latest[k] = min([latest[s] for s in dfg.succ_positions[k]], default=l_d + 1) - delay[k]
    if _root_bound(used, slot, delay, earliest, latest, l_d) > a_d:
        return None
    usage = [[0] * l_d for _ in used]  # per used version, placed operations per cycle
    peaks = [0] * len(used)
    starts = [0] * len(ids)

    def area_lower_bound() -> float:
        area = 0.0  # left to right, as the root bound
        for v, peak in zip(used, peaks):
            area += v.area * max(peak, 1)
        return area

    def place(pos: int, bound: float) -> float | None:
        """The area of the first fitting completion of the placed prefix,
        whose area lower bound is `bound`."""
        k = order[pos]
        j, d = slot[k], delay[k]
        row, saved_peak = usage[j], peaks[j]
        first = 1
        for p in preds[k]:
            first = max(first, starts[p] + delay[p])
        for s in range(first, latest[k] + 1):
            cells = range(s - 1, s + d - 1)
            peak = saved_peak
            for c in cells:
                row[c] += 1
                if row[c] > peak:
                    peak = row[c]
            peaks[j] = peak
            starts[k] = s
            # The sum changes only with a term's max(peak, 1).
            area = area_lower_bound() if peak > max(saved_peak, 1) else bound
            if area <= a_d:
                found = area if pos + 1 == len(order) else place(pos + 1, area)
                if found is not None:
                    return found
            for c in cells:
                row[c] -= 1
        peaks[j] = saved_peak
        return None

    area = place(0, area_lower_bound())
    return None if area is None else (dict(zip(ids, starts)), area)


def oracle_best(
    dfg: Dfg,
    library: ResourceLibrary,
    bounds: Bounds,
    *,
    max_nodes: int = 8,
) -> Design | Infeasible:
    """Exhaustively find the most reliable design meeting both bounds."""
    _check_limits(dfg, max_nodes)
    library.check_covers(dfg)
    for cls, positions in dfg.class_positions.items():
        if positions and len(library.versions_for(cls)) > MAX_VERSIONS_PER_CLASS:
            raise OracleLimitError(
                f"class {cls.value} has more than {MAX_VERSIONS_PER_CLASS} versions"
            )
    if bounds.latency_bound > MAX_LATENCY_BOUND:
        raise OracleLimitError(
            f"latency bound {bounds.latency_bound} exceeds oracle limit "
            f"{MAX_LATENCY_BOUND}"
        )

    choices = [library.versions_for(n.op_class) for n in dfg.nodes]
    fastest = tuple(min(v.delay for v in versions) for versions in choices)
    span = _critical_paths(dfg)
    if span(fastest) > bounds.latency_bound:
        return Infeasible("latency", "exhaustive search found no design meeting both bounds")

    @functools.cache
    def area_ok(mask: int) -> bool:
        """Whether one instance of each used version (bit k is
        library.versions[k]) fits the area bound."""
        area = 0.0  # library order, left to right: see _feasible_starts
        for k, v in enumerate(library.versions):
            if mask >> k & 1:
                area += v.area
        return area <= bounds.area_bound

    position = {v.name: k for k, v in enumerate(library.versions)}
    # Per node, per version: (log reliability, used-version mask bit, delay).
    menus = [
        [(math.log(v.reliability), 1 << position[v.name], v.delay) for v in versions]
        for versions in choices
    ]
    best = [max(menu)[0] for menu in menus]
    # Heap entries (-bound, picks, key, delays, mask) for a prefix giving
    # node j < len(picks) version choices[j][picks[j]]: key sums their logs
    # left to right from 0, delays is its fastest completion's delay vector
    # and mask its used versions.  The heap never holds a prefix together
    # with one of its extensions, so ties on the bound pop in product order.
    heap = [(-functools.reduce(operator.add, best, 0), (), 0, fastest, 0)]
    while heap:
        _, picks, key, delays, mask = heapq.heappop(heap)
        depth = len(picks)
        if depth < len(menus):
            for k, (log, bit, delay) in enumerate(menus[depth]):
                child_delays = delays
                if delay != delays[depth]:
                    child_delays = delays[:depth] + (delay,) + delays[depth + 1:]
                if area_ok(mask | bit) and span(child_delays) <= bounds.latency_bound:
                    bound = functools.reduce(operator.add, best[depth + 1:], key + log)
                    child = (-bound, picks + (k,), key + log, child_delays, mask | bit)
                    heapq.heappush(heap, child)
            continue
        assignment = {n.id: versions[k] for n, versions, k in zip(dfg.nodes, choices, picks)}
        used = [v for k, v in enumerate(library.versions) if mask >> k & 1]
        found = _feasible_starts(dfg, assignment, used, bounds)
        if found is None:
            continue
        starts, area = found
        node_to_instance, instances = _left_edge_pack(dfg, assignment, starts)
        latency = max(starts[nid] + assignment[nid].delay - 1 for nid in starts)
        return Design(
            assignment=assignment,
            schedule=Schedule({nid: starts[nid] for nid in dfg.node_ids}, latency),
            binding=Binding(node_to_instance, instances),
            latency=latency,
            area=area,
            reliability=math.exp(key),
        )
    return Infeasible("area", "exhaustive search found no design meeting both bounds")
