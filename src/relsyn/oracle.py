"""Exhaustive reference implementation for small instances.

Ground truth for testing the synthesis heuristic: enumerates every
per-node version assignment in descending reliability order and, for
each, searches all precedence-feasible start vectors under the latency
bound for one whose shared-hardware area fits.  Scheduling, longest
paths, and instance packing are reimplemented here on purpose so the
check does not share code paths with the production scheduler/binder.

The enumeration runs on per-graph tables built node by node in
`itertools.product` order: each combination's log-reliability sum (the
sort key), its delay vector as one integer code and its set of used
versions as a bitmask.  Longest paths are computed once per delay code
and the area prefilter once per mask; only the combinations that pass
both are sorted and decoded into versions for the start-vector search.
Version areas are always summed in library declaration order, so the
result does not depend on hash order and a returned design's area never
exceeds the area bound.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .binder import Binding, Instance
from .model import Assignment, Bounds, Design, Dfg, Infeasible, ResourceLibrary, ResourceVersion
from .model import ValidationError, check_assignment
from .scheduler import Schedule


class OracleLimitError(ValueError):
    """Instance too large for exhaustive search."""


@dataclass(frozen=True)
class OracleLimit:
    max_nodes: int = 8
    max_versions_per_class: int = 3
    max_latency_bound: int = 12


def _check_limits(dfg: Dfg, limit: OracleLimit) -> None:
    if len(dfg.nodes) > limit.max_nodes:
        raise OracleLimitError(
            f"{len(dfg.nodes)} nodes exceeds oracle limit {limit.max_nodes}"
        )


def oracle_min_latency(dfg: Dfg, assignment: Assignment, limit: OracleLimit | None = None) -> int:
    """Minimum achievable latency by exhaustive path enumeration."""
    _check_limits(dfg, limit or OracleLimit())
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


def _longest_paths(dfg: Dfg, delay_menus: list[list[int]]) -> list[int]:
    """Critical path length of every per-node delay vector, in the order
    itertools.product(*delay_menus) yields them (menus in declaration
    order); one pass over the graph with a list per node."""
    columns = list(zip(*itertools.product(*delay_menus)))
    dist: dict[str, list[int]] = {}
    for nid in dfg.topo_order:
        own = columns[dfg.declaration_index(nid)]
        incoming = list(zip(*(dist[p] for p in dfg.preds(nid))))
        if incoming:
            dist[nid] = [max(ins) + d for ins, d in zip(incoming, own)]
        else:
            dist[nid] = list(own)
    return [max(ends) for ends in zip(*(dist[nid] for nid in dfg.sink_ids))]


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


def _area_of_starts(
    assignment: Assignment, used: list[ResourceVersion], starts: dict[str, int], horizon: int
) -> float:
    # Shared-hardware area equals, per version, the peak number of
    # concurrently executing operations times the version area; summed
    # over `used` (library order), as `_feasible_starts` bounds it.
    usage = {v.name: [0] * horizon for v in used}
    for nid, s in starts.items():
        v = assignment[nid]
        row = usage[v.name]
        for c in range(s, s + v.delay):
            row[c - 1] += 1
    area = 0.0
    for v in used:
        area += v.area * max(usage[v.name])
    return area


def _feasible_starts(
    dfg: Dfg, assignment: Assignment, used: list[ResourceVersion], bounds: Bounds
) -> dict[str, int] | None:
    """Search start vectors in topological order; None if nothing fits.

    Prunes on an area lower bound: placed operations determine current
    per-version concurrency peaks, and every version still awaiting
    placement needs at least one instance.  `used` lists the assigned
    versions in library order, the order the bound sums their areas in.
    """
    l_d, a_d = bounds.latency_bound, bounds.area_bound
    order = dfg.topo_order
    # Latest start allowed for each node so every successor still fits.
    latest: dict[str, int] = {}
    for nid in reversed(order):
        cap = l_d - assignment[nid].delay + 1
        for succ in dfg.succs(nid):
            cap = min(cap, latest[succ] - assignment[nid].delay)
        if cap < 1:
            return None
        latest[nid] = cap
    areas = {v.name: v.area for v in used}
    remaining_versions: list[set[str]] = []
    seen: set[str] = set()
    for nid in reversed(order):
        seen = seen | {assignment[nid].name}
        remaining_versions.append(set(seen))
    remaining_versions.reverse()

    usage: dict[str, list[int]] = {name: [0] * l_d for name in areas}
    peaks: dict[str, int] = {name: 0 for name in areas}
    starts: dict[str, int] = {}

    def area_lower_bound(pos: int) -> float:
        pending = remaining_versions[pos] if pos < len(order) else set()
        area = 0.0  # left to right: sum() of floats is compensated on Python >= 3.12
        for name, peak in peaks.items():
            area += areas[name] * max(peak, 1 if name in pending else 0)
        return area

    def place(pos: int) -> bool:
        if pos == len(order):
            return True
        nid = order[pos]
        v = assignment[nid]
        earliest = 1
        for pred in dfg.preds(nid):
            earliest = max(earliest, starts[pred] + assignment[pred].delay)
        for s in range(earliest, latest[nid] + 1):
            cells = range(s - 1, s + v.delay - 1)
            row = usage[v.name]
            saved_peak = peaks[v.name]
            for c in cells:
                row[c] += 1
                peaks[v.name] = max(peaks[v.name], row[c])
            starts[nid] = s
            if area_lower_bound(pos + 1) <= a_d and place(pos + 1):
                return True
            del starts[nid]
            for c in cells:
                row[c] -= 1
            peaks[v.name] = saved_peak
        return False

    if place(0):
        return dict(starts)
    return None


def _combination(index: int, choices: list[tuple[ResourceVersion, ...]]) -> list[ResourceVersion]:
    """The `index`-th tuple that itertools.product(*choices) yields."""
    combo: list[ResourceVersion] = []
    for versions in reversed(choices):
        index, k = divmod(index, len(versions))
        combo.append(versions[k])
    combo.reverse()
    return combo


def oracle_best(
    dfg: Dfg,
    library: ResourceLibrary,
    bounds: Bounds,
    limit: OracleLimit | None = None,
) -> Design | Infeasible:
    """Exhaustively find the most reliable design meeting both bounds."""
    limit = limit or OracleLimit()
    _check_limits(dfg, limit)
    library.check_covers(dfg)
    for cls in {n.op_class for n in dfg.nodes}:
        if len(library.versions_for(cls)) > limit.max_versions_per_class:
            raise OracleLimitError(
                f"class {cls.value} has more than {limit.max_versions_per_class} versions"
            )
    if bounds.latency_bound > limit.max_latency_bound:
        raise OracleLimitError(
            f"latency bound {bounds.latency_bound} exceeds oracle limit "
            f"{limit.max_latency_bound}"
        )

    choices = [library.versions_for(n.op_class) for n in dfg.nodes]
    position = {v.name: k for k, v in enumerate(library.versions)}
    # Tables over all combinations, indexed in itertools.product order.
    # `keys` adds the logs left to right from 0.
    keys: list[float] = [0]
    codes = [0]  # delay vector; one mixed-radix digit per node
    masks = [0]  # used versions; bit k is library.versions[k]
    delay_menus: list[list[int]] = []
    for versions in choices:
        logs = [math.log(v.reliability) for v in versions]
        menu = sorted({v.delay for v in versions})
        digits = [menu.index(v.delay) for v in versions]
        bits = [1 << position[v.name] for v in versions]
        radix = len(menu)
        keys = [k + g for k in keys for g in logs]
        codes = [c * radix + d for c in codes for d in digits]
        masks = [m | b for m in masks for b in bits]
        delay_menus.append(menu)

    # Codes count up in the order itertools.product yields delay vectors.
    latency_ok = [span <= bounds.latency_bound for span in _longest_paths(dfg, delay_menus)]
    # One instance per used version at least; areas summed in library order.
    area_ok = {}
    for mask in set(masks):
        area = 0.0  # left to right, not sum(): see area_lower_bound
        for k, v in enumerate(library.versions):
            if mask >> k & 1:
                area += v.area
        area_ok[mask] = area <= bounds.area_bound
    in_time = [i for i, code in enumerate(codes) if latency_ok[code]]
    survivors = [i for i in in_time if area_ok[masks[i]]]
    # Descending reliability; the sort is stable, so ties keep product order.
    survivors.sort(key=keys.__getitem__, reverse=True)

    for i in survivors:
        assignment = {n.id: v for n, v in zip(dfg.nodes, _combination(i, choices))}
        used = [v for k, v in enumerate(library.versions) if masks[i] >> k & 1]
        starts = _feasible_starts(dfg, assignment, used, bounds)
        if starts is None:
            continue
        node_to_instance, instances = _left_edge_pack(dfg, assignment, starts)
        binding = Binding(node_to_instance, instances)
        latency = max(starts[nid] + assignment[nid].delay - 1 for nid in starts)
        area = _area_of_starts(assignment, used, starts, bounds.latency_bound)
        return Design(
            assignment=assignment,
            schedule=Schedule({nid: starts[nid] for nid in dfg.node_ids}, latency),
            binding=binding,
            latency=latency,
            area=area,
            reliability=math.exp(keys[i]),
        )
    reason = "area" if in_time else "latency"
    return Infeasible(reason, "exhaustive search found no design meeting both bounds")

