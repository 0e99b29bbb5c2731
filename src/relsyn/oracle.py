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
bound (one longest path per delay vector a slower choice creates; a
child that takes its node's fastest version keeps its parent's fastest
completion, which meets the bound) or its used versions alone miss the
area bound (read from a table, built per call, of the area of one
instance of each version per bitmask over the used classes' versions).

The start-vector search first refuses a combination whose root bound
exceeds the area bound: Σ area × count over the used versions, where a
version's count is the largest of 1, ⌈Σ delay of its nodes / L⌉ and the
peak overlap of its nodes' compulsory parts [latest start, earliest
start + delay − 1] (the time-table and energetic reasoning of cumulative
scheduling; Baptiste, Le Pape & Nuijten, 2001).  Every start vector
occupies each compulsory part and packs its busy cycles into L cycles,
so each count is at most the version's final peak concurrency; float
products and left-to-right sums are monotone, so the bound never exceeds
Σ area × peak of a complete start vector.  Otherwise the search places
nodes in topological order and drops a partial start vector once
Σ area × max(peak concurrency, 1) over the used versions exceeds the
area bound (re-summed only when a placement raises a peak).  A complete
vector is packed left edge onto instances, and fits only if the area of
that binding, its instances' areas added in instance order as
`binder.total_area` adds them, is within the area bound; that is the area
reported.  The bounds sum version areas in library declaration order,
so the result does not depend on hash order; as on fractional areas
they can exceed the binding's sum in the last bits (2.6 + 1.1 × 2 + 3.8
is 8.600000000000001, 2.6 + 1.1 + 3.8 + 1.1 is 8.6), they prune only
above the area bound times `_PRUNE_FACTOR`.
"""

from __future__ import annotations

import functools
import heapq
import math
import operator
from typing import Callable

from .binder import Binding, Instance
from .model import Assignment, Bounds, Design, Dfg, Infeasible, OpClass, ResourceLibrary
from .model import ResourceVersion, check_assignment
from .scheduler import Schedule


_PRUNE_FACTOR = 1 + 1e-9  # far above the rounding of a reordered sum of a few areas


class OracleLimitError(ValueError):
    """Instance too large for exhaustive search."""


MAX_VERSIONS_PER_CLASS = 3
MAX_LATENCY_BOUND = 12


def _check_limits(dfg: Dfg, max_nodes: int) -> None:
    if len(dfg.nodes) > max_nodes:
        raise OracleLimitError(
            f"{len(dfg.nodes)} nodes exceeds oracle limit {max_nodes}"
        )


def check_limits(dfg: Dfg, library: ResourceLibrary, latency: int, max_nodes: int = 8) -> None:
    """Raise OracleLimitError (or ValidationError for a class with no
    version) unless `oracle_best` can search `dfg` at latency bounds up to `latency`."""
    _check_limits(dfg, max_nodes)
    library.check_covers(dfg)
    for cls, positions in dfg.class_positions.items():
        if positions and len(library.versions_for(cls)) > MAX_VERSIONS_PER_CLASS:
            raise OracleLimitError(
                f"class {cls.value} has more than {MAX_VERSIONS_PER_CLASS} versions"
            )
    if latency > MAX_LATENCY_BOUND:
        raise OracleLimitError(f"latency bound {latency} exceeds oracle limit {MAX_LATENCY_BOUND}")


def oracle_min_latency(dfg: Dfg, assignment: Assignment, *, max_nodes: int = 8) -> int:
    """Minimum achievable latency by exhaustive path enumeration."""
    _check_limits(dfg, max_nodes)
    check_assignment(dfg, assignment)
    best, delay = 0, [assignment[nid].delay for nid in dfg.node_ids]
    stack = [(k, delay[k]) for k, preds in enumerate(dfg.pred_positions) if not preds]
    while stack:
        k, weight = stack.pop()
        succs = dfg.succ_positions[k]
        if not succs:
            best = max(best, weight)
        for succ in succs:
            stack.append((succ, weight + delay[succ]))
    return best


def _critical_paths(dfg: Dfg) -> Callable[[tuple[int, ...]], int]:
    """A memo of the critical path length per delay vector (node k, in
    declaration order, takes delays[k] cycles)."""
    steps = [(k, dfg.pred_positions[k]) for k in dfg.topo_positions if dfg.pred_positions[k]]
    sinks = [k for k, succs in enumerate(dfg.succ_positions) if not succs]

    @functools.cache
    def span(delays: tuple[int, ...]) -> int:
        finish = list(delays)  # a source finishes after its own delay
        for k, preds in steps:
            ready = 0
            for p in preds:
                if finish[p] > ready:
                    ready = finish[p]
            finish[k] += ready
        return max([finish[k] for k in sinks])

    return span


def _pack(
    versions: list[ResourceVersion], starts: list[int], a_d: float
) -> tuple[list[int], list[int], list[ResourceVersion], float] | None:
    """Left-edge packing: a copy of `starts`, each node position's instance
    id, each instance id's version and their area, added in instance order;
    None if that exceeds `a_d`."""
    free_at: list[int] = []
    packed: list[ResourceVersion] = []
    mapping = [0] * len(starts)
    for start, k in sorted(zip(starts, range(len(starts)))):
        version = versions[k]
        for iid, (v, busy_until) in enumerate(zip(packed, free_at)):
            if v is version and busy_until < start:
                break
        else:
            iid = len(packed)
            packed.append(version)
            free_at.append(0)
        mapping[k] = iid
        free_at[iid] = start + version.delay - 1
    area = functools.reduce(operator.add, [v.area for v in packed], 0.0)
    return None if area > a_d else (list(starts), mapping, packed, area)


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
) -> tuple[list[int], list[int], list[ResourceVersion], float] | None:
    """Search start vectors in topological order; the first that fits, as
    `_pack` returns it, or None if nothing fits.  The module docstring
    gives the root bound that can refuse the search, the bound that prunes
    partial vectors (every used version needs at least one instance) and
    the test a complete vector must pass; `used` lists the assigned
    versions in library order, the order both bounds sum them in."""
    l_d, a_d = bounds.latency_bound, bounds.area_bound
    ids, order, preds = dfg.node_ids, dfg.topo_positions, dfg.pred_positions
    versions = [assignment[nid] for nid in ids]  # by node position
    index = {v.name: j for j, v in enumerate(used)}
    slot = [index[v.name] for v in versions]
    delay = [v.delay for v in versions]
    earliest, latest = [1] * len(ids), [l_d + 1] * len(ids)
    for k in order:
        for p in preds[k]:
            if earliest[p] + delay[p] > earliest[k]:
                earliest[k] = earliest[p] + delay[p]
    for k in reversed(order):  # the latest start that leaves every successor room
        for s in dfg.succ_positions[k]:
            if latest[s] < latest[k]:
                latest[k] = latest[s]
        latest[k] -= delay[k]
    cap = a_d * _PRUNE_FACTOR
    if _root_bound(used, slot, delay, earliest, latest, l_d) > cap:
        return None
    usage = [[0] * l_d for _ in used]  # per used version, placed operations per cycle
    areas = [v.area for v in used]
    peaks = [1] * len(used)  # per used version, max(peak concurrency, 1)
    starts = [0] * len(ids)
    steps = [(k, slot[k], usage[slot[k]], delay[k], preds[k], latest[k] + 1) for k in order]

    def place(pos: int, bound: float) -> tuple | None:
        """The first fitting completion of the placed prefix, as
        `_feasible_starts` returns it; `bound` is the prefix's area bound."""
        k, j, row, d, pk, stop = steps[pos]
        saved_peak = peaks[j]
        first = 1
        for p in pk:
            if starts[p] + delay[p] > first:
                first = starts[p] + delay[p]
        for s in range(first, stop):
            peak = saved_peak
            for c in range(s - 1, s + d - 1):
                row[c] += 1
                if row[c] > peak:
                    peak = row[c]
            peaks[j], starts[k] = peak, s
            area = bound
            if peak > saved_peak:  # left to right, as the root bound
                area = functools.reduce(operator.add, map(operator.mul, areas, peaks), 0.0)
            if area <= cap:
                last = pos + 1 == len(steps)
                found = _pack(versions, starts, a_d) if last else place(pos + 1, area)
                if found is not None:
                    return found
            for c in range(s - 1, s + d - 1):
                row[c] -= 1
        peaks[j] = saved_peak
        return None

    return place(0, functools.reduce(operator.add, areas, 0.0))


def oracle_best(
    dfg: Dfg,
    library: ResourceLibrary,
    bounds: Bounds,
    *,
    max_nodes: int = 8,
) -> Design | Infeasible:
    """Exhaustively find the most reliable design meeting both bounds."""
    check_limits(dfg, library, bounds.latency_bound, max_nodes)
    l_d, cap = bounds.latency_bound, bounds.area_bound * _PRUNE_FACTOR
    choices = [library.versions_for(n.op_class) for n in dfg.nodes]
    fastest = tuple(min(v.delay for v in versions) for versions in choices)
    span = _critical_paths(dfg)
    if span(fastest) > l_d:
        return Infeasible("latency", "exhaustive search found no design meeting both bounds")

    # Per used-version mask (bit k is library.versions[k]), the area of one
    # instance of each, summed in library order, left to right from 0.0; and
    # per class, per version: (log reliability, mask bit, delay).
    areas: dict[int, float] = {0: 0.0}
    menu_of: dict[OpClass, list[tuple[float, int, int]]] = {}
    for k, v in enumerate(library.versions):
        if dfg.class_positions.get(v.op_class):
            areas.update([(mask | 1 << k, area + v.area) for mask, area in areas.items()])
            menu_of.setdefault(v.op_class, []).append((math.log(v.reliability), 1 << k, v.delay))
    menus = [menu_of[n.op_class] for n in dfg.nodes]
    best = [max(menu)[0] for menu in menus]
    rests = [best[depth + 1:] for depth in range(len(best))]  # summed after each key, in order
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
                if areas[mask | bit] > cap:
                    continue
                child_delays = delays  # the parent's fastest completion, which meets L
                if delay != delays[depth]:
                    child_delays = delays[:depth] + (delay,) + delays[depth + 1:]
                    if span(child_delays) > l_d:
                        continue
                bound = functools.reduce(operator.add, rests[depth], key + log)
                heapq.heappush(heap, (-bound, picks + (k,), key + log, child_delays, mask | bit))
            continue
        assignment = {n.id: versions[k] for n, versions, k in zip(dfg.nodes, choices, picks)}
        used = [v for k, v in enumerate(library.versions) if mask >> k & 1]
        found = _feasible_starts(dfg, assignment, used, bounds)
        if found is None:
            continue
        starts, mapping, packed, area = found
        latency = max(s + v.delay - 1 for s, v in zip(starts, assignment.values()))
        instances = tuple(Instance(v.name) for v in packed)
        return Design(
            assignment=assignment,
            schedule=Schedule(dict(zip(dfg.node_ids, starts)), latency),
            binding=Binding(dict(zip(dfg.node_ids, mapping)), instances),
            latency=latency,
            area=area,
            reliability=math.exp(key),
        )
    return Infeasible("area", "exhaustive search found no design meeting both bounds")
