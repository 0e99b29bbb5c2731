"""Reliability-maximizing synthesis under latency and area bounds.

Starts from the most reliable version everywhere, then repairs latency
by speeding up critical-path nodes, exploits leftover latency slack to
share more hardware, and repairs area by moving whole instances to
smaller versions.  A node may be downgraded repeatedly but is never
upgraded again within one run, which bounds the repair loops.

The repair loops only ever shrink a node's version area, so they cannot
discover designs that get cheaper by consolidating operations onto a
shared *larger* version (e.g. serializing every multiplication onto one
fast multiplier).  When area repair dead-ends, a final fallback
enumerates the single-version-per-class assignments and returns the
most reliable one that fits both bounds.

Every schedule and binding goes through a `memo` dict.  Schedules
depend only on the node delays and the latency bound, bindings on the
assignment and the bound, and the latency-repaired assignment on the
bound alone, never on the area bound.  So the memo keeps schedules per
(delays, latency bound), bindings per (assignment, latency bound) and
repair outcomes per latency bound: a move between versions of equal
delay re-binds without re-scheduling.  A caller that solves many bound
pairs on one graph and library (a sweep) may pass the same memo to
every call; without one, each call uses a memo of its own.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, MutableMapping

from .binder import Binding, bind, total_area
from .model import Bounds, Design, Dfg, Infeasible, OpClass, ResourceLibrary, ResourceVersion
from .model import evaluate_reliability
from .scheduler import InfeasibleBoundError, Schedule, critical_path, density_schedule


def prefer_versions(versions: Iterable[ResourceVersion]) -> list[ResourceVersion]:
    """Global preference order: reliability desc, area asc, delay asc, name."""
    return sorted(versions, key=lambda v: (-v.reliability, v.area, v.delay, v.name))


def initial_allocation(dfg: Dfg, library: ResourceLibrary) -> dict[str, ResourceVersion]:
    """Give every node the most reliable version of its class."""
    library.check_covers(dfg)
    best = {
        cls: prefer_versions(library.versions_for(cls))[0]
        for cls in {n.op_class for n in dfg.nodes}
    }
    return {n.id: best[n.op_class] for n in dfg.nodes}


def _build_design(
    dfg: Dfg,
    library: ResourceLibrary,
    assignment: dict[str, ResourceVersion],
    schedule: Schedule,
    binding: Binding,
) -> Design:
    return Design(
        assignment=dict(assignment),
        schedule=schedule,
        binding=binding,
        latency=schedule.latency,
        area=total_area(binding, library),
        reliability=evaluate_reliability(dfg, assignment, binding),
    )


# Shared by the flows of one graph and library: (node delays, latency
# bound) -> Schedule or the InfeasibleBoundError, (version names,
# latency bound) -> (Schedule, Binding), and latency bound ->
# latency-repair outcome.  Delay keys hold ints and name keys strings.
Memo = MutableMapping[object, object]


def _schedule_and_bind(
    dfg: Dfg, assignment: dict[str, ResourceVersion], latency_bound: int, memo: Memo
) -> tuple[Schedule, Binding]:
    """density_schedule then bind, each computed once per memo; raises
    InfeasibleBoundError as the scheduler does.  The scheduler reads only
    delays, so assignments with equal delays share one schedule."""
    names = (tuple(assignment[nid].name for nid in dfg.node_ids), latency_bound)
    pair = memo.get(names)
    if pair is None:
        delays = (tuple(assignment[nid].delay for nid in dfg.node_ids), latency_bound)
        schedule = memo.get(delays)
        if schedule is None:
            try:
                schedule = density_schedule(dfg, assignment, latency_bound)
            except InfeasibleBoundError as exc:
                schedule = exc.with_traceback(None)  # a traceback would pin its frames
            memo[delays] = schedule
        if isinstance(schedule, InfeasibleBoundError):
            # Raise a copy: raising the stored error again would lengthen its traceback.
            raise InfeasibleBoundError(*schedule.args)
        pair = memo[names] = (schedule, bind(dfg, schedule, assignment))
    return pair


def single_version_designs(
    dfg: Dfg, library: ResourceLibrary, latency_bound: int, *, memo: Memo | None = None
) -> Iterator[Design]:
    """Every single-version-per-class design that meets `latency_bound`,
    density-scheduled and bound, with class versions in library order.
    `memo` is as for `find_design`."""
    memo = {} if memo is None else memo
    counts = dfg.class_counts()
    classes = [cls for cls in OpClass if counts[cls]]
    for combo in itertools.product(*(library.versions_for(cls) for cls in classes)):
        chosen = dict(zip(classes, combo))
        assignment = {n.id: chosen[n.op_class] for n in dfg.nodes}
        try:
            schedule, binding = _schedule_and_bind(dfg, assignment, latency_bound, memo)
        except InfeasibleBoundError:
            continue
        yield _build_design(dfg, library, assignment, schedule, binding)


def best_design(designs: Iterable[Design]) -> Design | None:
    """Most reliable design; ties break toward smaller area, then smaller
    latency, then the earliest one."""
    return max(designs, key=lambda d: (d.reliability, -d.area, -d.latency), default=None)


def _repair_latency(
    dfg: Dfg, library: ResourceLibrary, l_d: int
) -> tuple[dict[str, ResourceVersion], int] | Infeasible:
    """Speed up the slowest critical-path node of the initial allocation
    until the latency bound is met; the assignment and its asap latency,
    or Infeasible once no critical-path node can go any faster.  The
    asap latency is the total delay of a critical path."""
    assignment = initial_allocation(dfg, library)
    while True:
        path = critical_path(dfg, assignment)
        latency = sum(assignment[nid].delay for nid in path)
        if latency <= l_d:
            return assignment, latency
        candidates = []
        for nid in path:
            current = assignment[nid]
            faster = [
                v for v in library.versions_for(current.op_class) if v.delay < current.delay
            ]
            if faster:
                candidates.append((-current.delay, dfg.declaration_index(nid), nid, faster))
        if not candidates:
            return Infeasible(
                "latency",
                f"minimum latency {latency} exceeds bound {l_d} and no "
                "critical-path node has a faster version",
            )
        *_, victim, faster = min(candidates)
        assignment[victim] = prefer_versions(faster)[0]


def find_design(
    dfg: Dfg, library: ResourceLibrary, bounds: Bounds, *, memo: Memo | None = None
) -> Design | Infeasible:
    """Synthesize the most reliable design meeting both bounds.

    Any returned Design satisfies latency <= latency_bound and
    area <= area_bound as recomputed from its schedule and binding;
    otherwise an Infeasible with the blocking dimension is returned.
    """
    library.check_covers(dfg)
    l_d, a_d = bounds.latency_bound, bounds.area_bound
    memo = {} if memo is None else memo
    repaired = memo.get(l_d)
    if repaired is None:
        repaired = memo[l_d] = _repair_latency(dfg, library, l_d)
    if isinstance(repaired, Infeasible):
        return repaired
    assignment, latency = dict(repaired[0]), repaired[1]  # area repair edits the copy

    # Schedule against the achieved latency; then share hardware.
    schedule, binding = _schedule_and_bind(dfg, assignment, latency, memo)
    area = total_area(binding, library)

    # Latency slack: relaxing the schedule one cycle at a time lets the
    # binder serialize more operations onto fewer instances.
    while area > a_d and latency < l_d:
        latency += 1
        schedule, binding = _schedule_and_bind(dfg, assignment, latency, memo)
        area = total_area(binding, library)

    # Area repair: move the largest-version node, together with every
    # node sharing its instance, to a smaller version that is no slower.
    while area > a_d:
        candidates = []
        for index, nid in enumerate(dfg.node_ids):
            current = assignment[nid]
            smaller = [
                v
                for v in library.versions_for(current.op_class)
                if v.area < current.area and v.delay <= current.delay
            ]
            if smaller:
                candidates.append((-current.area, index, nid, smaller))
        if not candidates:
            fallback = best_design(
                d
                for d in single_version_designs(dfg, library, l_d, memo=memo)
                if d.area <= a_d
            )
            if fallback is not None:
                return fallback
            return Infeasible(
                "area",
                f"area {area:g} exceeds bound {a_d:g}; no node has a smaller "
                "version that is no slower and no single-version design fits",
            )
        *_, victim, smaller = min(candidates)
        replacement = prefer_versions(smaller)[0]
        for nid in binding.nodes_on(binding.node_to_instance[victim]):
            assignment[nid] = replacement
        schedule, binding = _schedule_and_bind(dfg, assignment, latency, memo)
        area = total_area(binding, library)

    if schedule.latency > l_d:
        return Infeasible("latency", f"latency {schedule.latency} exceeds bound {l_d}")
    return _build_design(dfg, library, assignment, schedule, binding)
