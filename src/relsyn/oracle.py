"""Exhaustive reference implementation for small instances.

Ground truth for testing the synthesis heuristic: enumerates every
per-node version assignment in descending reliability order and, for
each, searches all precedence-feasible start vectors under the latency
bound for one whose shared-hardware area fits.  Scheduling, longest
paths, and instance packing are reimplemented here on purpose so the
check does not share code paths with the production scheduler/binder.

The enumeration walks prefixes of version combinations node by node in
`itertools.product` order, each carrying its log-reliability sum (the
sort key), the delay code of its fastest completion and its set of used
versions as a bitmask.  Longest paths are computed once per delay code
and the area prefilter once per mask met.  Both bounds are monotone in
the prefix, so a prefix that already misses one is dropped together with
all its completions; the survivors, exactly the combinations meeting
both, are sorted and decoded into versions for the start-vector search.
That search places nodes in topological order and drops a partial start
vector once Σ area × max(peak concurrency, 1) over the used versions
exceeds the area bound; with every node placed, that sum is the area.
Version areas are always summed in library declaration order, so the
result does not depend on hash order and a returned design's area never
exceeds the area bound.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Sequence

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
    dist: dict[str, Sequence[int]] = {}
    for nid in dfg.topo_order:
        own = columns[dfg.declaration_index(nid)]
        rows = [dist[p] for p in dfg.preds(nid)]
        if rows:  # one row is its own maximum: max() of a lone int would fail
            own = list(map(operator.add, map(max, *rows) if rows[1:] else rows[0], own))
        dist[nid] = own
    ends = [dist[nid] for nid in dfg.sink_ids]
    return list(map(max, *ends) if ends[1:] else ends[0])


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


def _feasible_starts(
    dfg: Dfg, assignment: Assignment, used: list[ResourceVersion], bounds: Bounds
) -> tuple[dict[str, int], float] | None:
    """Search start vectors in topological order; the first that fits and
    its shared-hardware area, or None if nothing fits.

    Prunes on an area lower bound: per used version, its area times the
    peak number of concurrently executing placed operations, or times one
    while none is placed, since every used version needs at least one
    instance.  Once every node is placed the bound is the area itself.
    `used` lists the assigned versions in library order, the order the
    bound sums them in.
    """
    l_d, a_d = bounds.latency_bound, bounds.area_bound
    order = dfg.topo_order
    # Latest start allowed for each node so every successor still fits.
    latest: dict[str, int] = {}
    for nid in reversed(order):
        cap = l_d - assignment[nid].delay + 1
        for succ in dfg.succs(nid):
            cap = min(cap, latest[succ] - assignment[nid].delay)
        latest[nid] = cap
    usage: dict[str, list[int]] = {v.name: [0] * l_d for v in used}
    peaks: dict[str, int] = {v.name: 0 for v in used}
    starts: dict[str, int] = {}

    def area_lower_bound() -> float:
        area = 0.0  # left to right: sum() of floats is compensated on Python >= 3.12
        for v in used:
            area += v.area * max(peaks[v.name], 1)
        return area

    def place(pos: int) -> float | None:
        """The area of the first fitting completion of the placed prefix."""
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
            area = area_lower_bound()
            if area <= a_d:
                found = area if pos + 1 == len(order) else place(pos + 1)
                if found is not None:
                    return found
            del starts[nid]
            for c in cells:
                row[c] -= 1
            peaks[v.name] = saved_peak
        return None

    area = place(0)
    return None if area is None else (dict(starts), area)


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
    for cls, count in dfg.class_counts().items():
        if count and len(library.versions_for(cls)) > limit.max_versions_per_class:
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
    delay_menus = [sorted({v.delay for v in versions}) for versions in choices]
    # Codes count up in the order itertools.product yields delay vectors.
    latency_ok = [span <= bounds.latency_bound for span in _longest_paths(dfg, delay_menus)]

    @functools.cache
    def area_ok(mask: int) -> bool:
        """Whether one instance of each used version (bit k is
        library.versions[k]) fits the area bound."""
        area = 0.0  # library order, left to right: see _feasible_starts
        for k, v in enumerate(library.versions):
            if mask >> k & 1:
                area += v.area
        return area <= bounds.area_bound

    # Prefixes in product order: (logs summed left to right from 0, product
    # index, delay code, used-version mask); index and code are those of the
    # first completion (later digits 0, the fastest), so extending adds to
    # each.  Both bounds are monotone: a prefix whose fastest completion is
    # late, or whose used versions alone outgrow the area, has no survivor.
    prefixes: list[tuple[float, int, int, int]] = [(0, 0, 0, 0)]
    count, rest = math.prod(map(len, choices)), len(latency_ok)
    for versions, menu in zip(choices, delay_menus):
        count, rest = count // len(versions), rest // len(menu)
        extensions = [
            (math.log(v.reliability), k * count, menu.index(v.delay) * rest, 1 << position[v.name])
            for k, v in enumerate(versions)
        ]
        prefixes = [
            (key + log, index + step, code + shift, mask | bit)
            for key, index, code, mask in prefixes
            for log, step, shift, bit in extensions
            if latency_ok[code + shift] and area_ok(mask | bit)
        ]
    # Descending reliability; the sort is stable, so ties keep product order.
    prefixes.sort(key=operator.itemgetter(0), reverse=True)

    for key, index, _, mask in prefixes:
        assignment = {n.id: v for n, v in zip(dfg.nodes, _combination(index, choices))}
        used = [v for k, v in enumerate(library.versions) if mask >> k & 1]
        found = _feasible_starts(dfg, assignment, used, bounds)
        if found is None:
            continue
        starts, area = found
        node_to_instance, instances = _left_edge_pack(dfg, assignment, starts)
        binding = Binding(node_to_instance, instances)
        latency = max(starts[nid] + assignment[nid].delay - 1 for nid in starts)
        return Design(
            assignment=assignment,
            schedule=Schedule({nid: starts[nid] for nid in dfg.node_ids}, latency),
            binding=binding,
            latency=latency,
            area=area,
            reliability=math.exp(key),
        )
    reason = "area" if any(latency_ok) else "latency"
    return Infeasible(reason, "exhaustive search found no design meeting both bounds")

