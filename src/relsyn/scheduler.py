"""ASAP/ALAP scheduling, mobility windows, the partition-density
scheduler, and critical-path extraction.

Cycles are 1-based.  A node with start s and delay d occupies the
execution interval [s, s+d-1]; functional units are non-pipelined, so a
dependent may start no earlier than s+d.  All tie-breaks resolve by
node declaration order, then by earlier cycle, which makes every
routine here deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .model import Assignment, Dfg, OpClass, check_assignment


class InfeasibleBoundError(ValueError):
    """Latency bound below the minimum achievable (ASAP) latency."""


@dataclass(frozen=True)
class Schedule:
    """Start cycle per node plus the resulting latency."""

    starts: Mapping[str, int]
    latency: int


@dataclass(frozen=True)
class MobilityWindow:
    """Per-node (asap start, alap start) pairs under a latency bound."""

    windows: Mapping[str, tuple[int, int]]

    def width(self, node_id: str) -> int:
        lo, hi = self.windows[node_id]
        return hi - lo + 1


def _delay(assignment: Assignment, node_id: str) -> int:
    return assignment[node_id].delay


def _asap_starts(
    dfg: Dfg, assignment: Assignment, placed: Mapping[str, int] | None = None
) -> dict[str, int]:
    """Earliest starts, with the nodes in `placed` pinned at their starts."""
    starts = dict(placed or {})
    for nid in dfg.topo_order:
        if nid in starts:
            continue
        earliest = 1
        for pred in dfg.preds(nid):
            earliest = max(earliest, starts[pred] + _delay(assignment, pred))
        starts[nid] = earliest
    return starts


def _latency_of(starts: Mapping[str, int], assignment: Assignment) -> int:
    return max(start + _delay(assignment, nid) - 1 for nid, start in starts.items())


def _as_schedule(dfg: Dfg, assignment: Assignment, starts: Mapping[str, int]) -> Schedule:
    ordered = {nid: starts[nid] for nid in dfg.node_ids}
    return Schedule(ordered, _latency_of(ordered, assignment))


def asap(dfg: Dfg, assignment: Assignment) -> Schedule:
    """Earliest-start schedule; its latency is the minimum achievable."""
    check_assignment(dfg, assignment)
    return _as_schedule(dfg, assignment, _asap_starts(dfg, assignment))


def _alap_starts(
    dfg: Dfg,
    assignment: Assignment,
    latency_bound: int,
    placed: Mapping[str, int] | None = None,
) -> dict[str, int]:
    """Latest starts, with the nodes in `placed` pinned at their starts."""
    starts = dict(placed or {})
    for nid in reversed(dfg.topo_order):
        if nid in starts:
            continue
        latest = latency_bound - _delay(assignment, nid) + 1
        for succ in dfg.succs(nid):
            latest = min(latest, starts[succ] - _delay(assignment, nid))
        starts[nid] = latest
    return starts


def _check_latency_bound(dfg: Dfg, assignment: Assignment, latency_bound: int) -> None:
    check_assignment(dfg, assignment)
    minimum = _latency_of(_asap_starts(dfg, assignment), assignment)
    if latency_bound < minimum:
        raise InfeasibleBoundError(
            f"latency bound {latency_bound} below minimum achievable {minimum}"
        )


def alap(dfg: Dfg, assignment: Assignment, latency_bound: int) -> Schedule:
    """Latest-start schedule under `latency_bound`."""
    _check_latency_bound(dfg, assignment, latency_bound)
    return _as_schedule(dfg, assignment, _alap_starts(dfg, assignment, latency_bound))


def mobility(dfg: Dfg, assignment: Assignment, latency_bound: int) -> MobilityWindow:
    """Feasible start window [asap, alap] for every node."""
    lo = asap(dfg, assignment).starts
    hi = alap(dfg, assignment, latency_bound).starts
    return MobilityWindow({nid: (lo[nid], hi[nid]) for nid in dfg.node_ids})


def _constrained_windows(
    dfg: Dfg,
    assignment: Assignment,
    latency_bound: int,
    placed: Mapping[str, int],
) -> dict[str, tuple[int, int]]:
    """Mobility windows with already-placed nodes fixed at their starts."""
    lo = _asap_starts(dfg, assignment, placed)
    hi = _alap_starts(dfg, assignment, latency_bound, placed)
    return {nid: (lo[nid], hi[nid]) for nid in dfg.node_ids}


def occupancy_density(
    dfg: Dfg,
    assignment: Assignment,
    latency_bound: int,
    placed: Mapping[str, int] | None = None,
) -> dict[OpClass, list[float]]:
    """Per-class expected occupancy of each cycle.

    An unplaced node whose window holds w candidate starts contributes
    1/w to every cycle of each of its w candidate execution intervals;
    a placed node contributes exactly 1 over its chosen interval.  The
    returned lists are indexed by cycle-1 and sum (per class) to the
    total delay of that class's nodes.
    """
    placed = placed or {}
    windows = _constrained_windows(dfg, assignment, latency_bound, placed)
    for nid, (lo, hi) in windows.items():
        if hi < lo:
            raise InfeasibleBoundError(
                f"latency bound {latency_bound} leaves no feasible start for {nid!r}"
            )
    density = {cls: [0.0] * latency_bound for cls in OpClass}
    for node in dfg.nodes:
        d = _delay(assignment, node.id)
        row = density[node.op_class]
        if node.id in placed:
            s = placed[node.id]
            for c in range(s, s + d):
                row[c - 1] += 1.0
        else:
            lo, hi = windows[node.id]
            share = 1.0 / (hi - lo + 1)
            for s in range(lo, hi + 1):
                for c in range(s, s + d):
                    row[c - 1] += share
    return density


def density_schedule(dfg: Dfg, assignment: Assignment, latency_bound: int) -> Schedule:
    """Schedule by repeatedly placing the most constrained node into the
    least occupied slot of its class.

    Each round recomputes mobility windows (placed nodes pinned) and the
    per-class occupancy densities, picks the unplaced node with the
    smallest window (ties: declaration order), and starts it where its
    execution interval sees the smallest summed density (ties: earliest
    cycle).  Placement fixes the node's contribution to 1 and tightens
    the windows of everything that depends on it.
    """
    _check_latency_bound(dfg, assignment, latency_bound)
    placed: dict[str, int] = {}
    remaining = list(dfg.node_ids)
    while remaining:
        windows = _constrained_windows(dfg, assignment, latency_bound, placed)
        remaining.sort(key=lambda nid: (windows[nid][1] - windows[nid][0], dfg.declaration_index(nid)))
        nid = remaining.pop(0)
        density = occupancy_density(dfg, assignment, latency_bound, placed)
        row = density[dfg.op_class_of(nid)]
        d = _delay(assignment, nid)
        lo, hi = windows[nid]
        best_start, best_score = lo, None
        for s in range(lo, hi + 1):
            score = sum(row[c - 1] for c in range(s, s + d))
            if best_score is None or score < best_score:
                best_start, best_score = s, score
        placed[nid] = best_start
    return _as_schedule(dfg, assignment, placed)


def critical_path(dfg: Dfg, assignment: Assignment) -> list[str]:
    """One maximum-total-delay source-to-sink path.

    Among equal-weight paths, returns the one that is lexicographically
    first by node declaration order.
    """
    check_assignment(dfg, assignment)
    # Total delay of the heaviest path starting at each node.
    weight_from: dict[str, int] = {}
    for nid in reversed(dfg.topo_order):
        tail = max((weight_from[s] for s in dfg.succs(nid)), default=0)
        weight_from[nid] = _delay(assignment, nid) + tail
    sources = sorted(
        dfg.source_ids,
        key=lambda nid: (-weight_from[nid], dfg.declaration_index(nid)),
    )
    current = sources[0]
    path = [current]
    while dfg.succs(current):
        target = weight_from[current] - _delay(assignment, current)
        nxt = sorted(
            (s for s in dfg.succs(current) if weight_from[s] == target),
            key=dfg.declaration_index,
        )
        current = nxt[0]
        path.append(current)
    return path
