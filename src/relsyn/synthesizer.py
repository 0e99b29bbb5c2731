"""Reliability-maximizing synthesis under latency and area bounds.

Starts from the most reliable version everywhere, then repairs latency
by speeding up critical-path nodes, exploits leftover latency slack to
share more hardware, and repairs area by moving whole instances to
smaller versions.  A node may be downgraded repeatedly but is never
upgraded again within one run, which bounds the repair loops.  Latency
repair walks the critical path off each node's tail, the total delay of
its heaviest path to a sink; the rest of latency is the scheduler's,
whose schedules keep their bound.

The repair loops only ever shrink a node's version area, so they cannot
discover designs that get cheaper by consolidating operations onto a
shared *larger* version (e.g. serializing every multiplication onto one
fast multiplier).  When area repair dead-ends, a final fallback walks
the single-version-per-class designs most reliable first and returns
the most reliable one that fits both bounds.

Every design goes through a `memo` dict.  Nothing in it depends on the
area bound, so the memo keeps (delays, latency bound) -> schedule and
(version names, latency bound) -> scheduled, bound and priced `Design`,
None if the bound is missed.  The flows pass versions by node position,
as these keys hold them, and a design's assignment dict is built once.  A
move between versions of equal delay re-binds without re-scheduling, and
nothing met again is re-built or re-priced.  It keeps "single-version" ->
the version per class of each single-version design, priced from the
objective, with its designs by latency bound, in library order (the NMR
baseline's) and most reliable first (the fallback's); and latency bound ->
walk: latency repair's Infeasible, or the (scheduling latency, design)
pairs that latency repair, slack and area repair have met so far.  The
walk is the same for every area bound, which only picks the design it
stops at, the first that fits; a call grows it only when none fits, and it
becomes a tuple once area repair dead-ends.  A caller that solves many
bound pairs on one graph and library (a sweep) may pass the same memo to
every call; without one, each call uses a memo of its own.  Whatever a
shared memo holds is shared: treat it as read-only.
"""

from __future__ import annotations

import functools
import itertools
from typing import Iterable, MutableMapping

from .binder import bind, total_area
from .model import Bounds, Design, Dfg, Infeasible, OpClass, ResourceLibrary
from .model import ResourceVersion, _reliability_product
from .scheduler import InfeasibleBoundError, _alap_starts, density_schedule


def _best(versions: Iterable[ResourceVersion]) -> ResourceVersion | None:
    """The preferred version: reliability desc, area asc, delay asc, name; None if none."""
    return min(versions, key=lambda v: (-v.reliability, v.area, v.delay, v.name), default=None)


def _by_position(dfg: Dfg, chosen: Iterable) -> list:
    """Per node position, the item chosen for its class; `chosen` follows `OpClass` order."""
    items = [None] * len(dfg.node_ids)
    for positions, item in zip(dfg.class_positions.values(), chosen):
        for k in positions:
            items[k] = item
    return items


@functools.cache
def _preferred(library: ResourceLibrary) -> tuple[ResourceVersion | None, ...]:
    """Each class's preferred version in `OpClass` order, None for a class without one."""
    return tuple(_best(library.versions_for(cls)) for cls in OpClass)


def initial_allocation(dfg: Dfg, library: ResourceLibrary) -> dict[str, ResourceVersion]:
    """Give every node the most reliable version of its class."""
    library.check_covers(dfg)
    return dict(zip(dfg.node_ids, _by_position(dfg, _preferred(library))))


@functools.cache
def _moves(library: ResourceLibrary) -> dict[str, tuple[ResourceVersion | None, ...]]:
    """Per version name, latency repair's move (the preferred faster version)
    and area repair's (the preferred smaller one that is no slower)."""
    moves = {}
    for v in library.versions:
        peers = library.versions_for(v.op_class)
        moves[v.name] = (
            _best(w for w in peers if w.delay < v.delay),
            _best(w for w in peers if w.area < v.area and w.delay <= v.delay),
        )
    return moves


# The memo of the module docstring, for the flows of one graph and library;
# delay keys hold ints and name keys strings, so no two kinds of key collide.
Memo = MutableMapping[object, object]


def _design_at(
    dfg: Dfg, library: ResourceLibrary, versions: list, latency_bound: int, memo: Memo
) -> Design | None:
    """The design of `versions` (by node position) density-scheduled at
    `latency_bound`, bound and priced (bind leaves every N at 1), or None if
    the scheduler misses the bound; built once per memo, its assignment in
    node order.  The scheduler reads only delays; equal ones share a schedule."""
    names = (tuple(v.name for v in versions), latency_bound)
    if names not in memo:
        assignment = dict(zip(dfg.node_ids, versions))
        delays = (tuple(v.delay for v in versions), latency_bound)
        if delays not in memo:
            try:
                memo[delays] = density_schedule(dfg, assignment, latency_bound)
            except InfeasibleBoundError:
                memo[delays] = None
        schedule = memo[delays]
        memo[names] = None
        if schedule is not None:
            binding = bind(dfg, schedule, assignment)
            memo[names] = Design(
                assignment=assignment,
                schedule=schedule,
                binding=binding,
                latency=schedule.latency,
                area=total_area(binding, library),
                reliability=_reliability_product((v.reliability, 1) for v in versions),
            )
    return memo[names]


def _candidates(dfg: Dfg, library: ResourceLibrary, memo: Memo) -> tuple[list, list]:
    """Each single-version-per-class choice as (reliability, version per class
    in `OpClass` order, [(area, nodes x delay) per used version], {latency
    bound: design}), class versions in library order; then the same most
    reliable first.  Priced as `_design_at` prices; checks library coverage."""
    if "single-version" not in memo:
        library.check_covers(dfg)
        classes = dfg.class_positions
        menus = [library.versions_for(cls) if p else (None,) for cls, p in classes.items()]
        slots = _by_position(dfg, range(len(classes)))  # each node's index in a choice
        candidates = []
        for combo in itertools.product(*menus):  # None: a class with no node
            loads = [(v.area, len(p) * v.delay) for v, p in zip(combo, classes.values()) if p]
            reliability = _reliability_product((combo[c].reliability, 1) for c in slots)
            candidates.append((reliability, combo, loads, {}))
        memo["single-version"] = candidates, sorted(candidates, key=lambda c: -c[0])  # stable
    return memo["single-version"]


def _candidate_at(
    dfg: Dfg, library: ResourceLibrary, candidate: tuple, l_d: int, memo: Memo
) -> Design | None:
    """A `_candidates` entry's design at `l_d` by `_design_at`, kept in its {L: design}."""
    if l_d not in candidate[3]:
        candidate[3][l_d] = _design_at(dfg, library, _by_position(dfg, candidate[1]), l_d, memo)
    return candidate[3][l_d]


def _fallback(dfg: Dfg, library: ResourceLibrary, bounds: Bounds, memo: Memo) -> Design | None:
    """The most reliable single-version design that fits both bounds (ties:
    smaller area, smaller latency, library order) or None.  It skips unbuilt
    a candidate whose area floor, ceil(nodes x delay / L) instances per used
    version, exceeds the area bound past a relative 1e-9 rounding margin."""
    l_d, a_d, fits = bounds.latency_bound, bounds.area_bound, []
    for candidate in _candidates(dfg, library, memo)[1]:
        reliability, _, loads, built = candidate
        if fits and reliability < fits[0].reliability:
            break
        if l_d not in built:
            if sum(area * max(1, -(-load // l_d)) for area, load in loads) * (1 - 1e-9) > a_d:
                continue
        if (design := _candidate_at(dfg, library, candidate, l_d, memo)) and design.area <= a_d:
            fits.append(design)
    return min(fits, key=lambda d: (d.area, d.latency), default=None)  # the first minimum


def _heaviest_path(dfg: Dfg, tail: list[int]) -> list[int]:
    """The first heaviest source-to-sink path by node declaration order, as
    node positions, given each node's tail by position: the total delay of
    its heaviest path to a sink."""
    succs = dfg.succ_positions
    # A predecessor's tail exceeds its successor's, so the first largest tail is a source's.
    current = tail.index(max(tail))
    path = [current]
    while succs[current]:
        heaviest = -1
        for s in succs[current]:  # the largest tail; ties: declaration order
            if tail[s] > heaviest or tail[s] == heaviest and s < current:
                heaviest, current = tail[s], s
        path.append(current)
    return path


def _repair_latency(
    dfg: Dfg, library: ResourceLibrary, l_d: int
) -> tuple[list[ResourceVersion], int] | Infeasible:
    """Speed up the slowest critical-path node of the initial allocation
    until the latency bound is met; the versions by node position and
    their asap latency, or Infeasible once no critical-path node can go
    any faster.  The asap latency is the total delay of a critical path."""
    library.check_covers(dfg)
    versions = _by_position(dfg, _preferred(library))
    preds, succs, moves = dfg.pred_positions, dfg.succ_positions, _moves(library)
    # Each node's total delay on its heaviest path to a sink: 1 - its latest start at L 0.
    tail = [1 - start for start in _alap_starts(dfg, [v.delay for v in versions], 0)]
    while True:
        path = _heaviest_path(dfg, tail)
        latency = tail[path[0]]
        if latency <= l_d:
            return versions, latency
        candidates = [(-versions[k].delay, k) for k in path if moves[versions[k].name][0]]
        if not candidates:
            return Infeasible(
                "latency",
                f"minimum latency {latency} exceeds bound {l_d} and no "
                "critical-path node has a faster version",
            )
        victim = min(candidates)[1]
        versions[victim] = moves[versions[victim].name][0]
        # Only the victim's tail and its ancestors' can change; stop where one holds.
        stack = [victim]
        while stack:
            k = stack.pop()
            heaviest = 0
            for s in succs[k]:
                if tail[s] > heaviest:
                    heaviest = tail[s]
            if heaviest + versions[k].delay != tail[k]:
                tail[k] = heaviest + versions[k].delay
                stack.extend(preds[k])


def find_design(
    dfg: Dfg, library: ResourceLibrary, bounds: Bounds, *, memo: Memo | None = None
) -> Design | Infeasible:
    """Synthesize the most reliable design meeting both bounds.

    Any returned Design satisfies latency <= latency_bound and
    area <= area_bound as recomputed from its schedule and binding;
    otherwise an Infeasible with the blocking dimension is returned.
    """
    l_d, a_d = bounds.latency_bound, bounds.area_bound
    memo = {} if memo is None else memo
    walk = memo.get(l_d)
    if walk is None:
        repaired = _repair_latency(dfg, library, l_d)
        if not isinstance(repaired, Infeasible):
            versions, latency = repaired
            repaired = [(latency, _design_at(dfg, library, versions, latency, memo))]
        walk = memo[l_d] = repaired
    if isinstance(walk, Infeasible):
        return walk
    # Stop at the walk's first design that fits; if none does, grow the walk
    # from its last design, which the loop leaves in `latency` and `design`.
    for latency, design in walk:
        if design.area <= a_d:
            return design
    while isinstance(walk, list):
        versions = list(design.assignment.values())  # in node order: `_design_at` built it
        if latency < l_d:
            # Latency slack: relaxing the schedule one cycle at a time lets
            # the binder serialize more operations onto fewer instances.
            latency += 1
        else:
            # Area repair: move the largest-version node, together with every
            # node sharing its instance, to a smaller version that is no slower.
            moves = _moves(library)
            candidates = [(-v.area, k) for k, v in enumerate(versions) if moves[v.name][1]]
            if not candidates:
                memo[l_d] = tuple(walk)
                break
            victim = min(candidates)[1]
            replacement = moves[versions[victim].name][1]
            iids = list(design.binding.node_to_instance.values())  # in node order, as above
            versions = [replacement if iid == iids[victim] else v for v, iid in zip(versions, iids)]
        design = _design_at(dfg, library, versions, latency, memo)
        walk.append((latency, design))
        if design.area <= a_d:
            return design
    return _fallback(dfg, library, bounds, memo) or Infeasible(
        "area",
        f"area {min(d.area for _, d in walk):g} exceeds bound {a_d:g}; no node has a smaller "
        "version that is no slower and no single-version design fits",
    )
