"""ASAP/ALAP scheduling, the density scheduler, and critical-path
extraction.

The density scheduler is force-directed scheduling (Paulin & Knight,
1989) in the incremental form of Verhaegh et al.: windows are computed
once and tightened only where a placement moves them, and each round
folds the occupancy density of one class over one window instead of
rebuilding every window and density; it adds a node's share to whole
slices of cells, with the same float additions per cell as a
start-by-start sum.  Its schedules equal those of the round-by-round
form bit for bit, tie-breaks included.  It reads each node's delay and
class, never its version name.

Cycles are 1-based.  A node with start s and delay d occupies the
execution interval [s, s+d-1]; functional units are non-pipelined, so a
dependent may start no earlier than s+d.  All tie-breaks resolve by
node declaration order, then by earlier cycle, which makes every
routine here deterministic.
"""

from __future__ import annotations

import heapq
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


def _asap_starts(dfg: Dfg, assignment: Assignment) -> dict[str, int]:
    """Earliest starts."""
    starts: dict[str, int] = {}
    for nid in dfg.topo_order:
        earliest = 1
        for pred in dfg.preds(nid):
            earliest = max(earliest, starts[pred] + assignment[pred].delay)
        starts[nid] = earliest
    return starts


def _latency_of(starts: Mapping[str, int], assignment: Assignment) -> int:
    return max(start + assignment[nid].delay - 1 for nid, start in starts.items())


def _as_schedule(dfg: Dfg, assignment: Assignment, starts: Mapping[str, int]) -> Schedule:
    ordered = {nid: starts[nid] for nid in dfg.node_ids}
    return Schedule(ordered, _latency_of(ordered, assignment))


def asap(dfg: Dfg, assignment: Assignment) -> Schedule:
    """Earliest-start schedule; its latency is the minimum achievable."""
    check_assignment(dfg, assignment)
    return _as_schedule(dfg, assignment, _asap_starts(dfg, assignment))


def _alap_starts(dfg: Dfg, assignment: Assignment, latency_bound: int) -> dict[str, int]:
    """Latest starts under `latency_bound`."""
    starts: dict[str, int] = {}
    for nid in reversed(dfg.topo_order):
        latest = latency_bound - assignment[nid].delay + 1
        for succ in dfg.succs(nid):
            latest = min(latest, starts[succ] - assignment[nid].delay)
        starts[nid] = latest
    return starts


def _check_latency_bound(
    dfg: Dfg, assignment: Assignment, latency_bound: int
) -> dict[str, int]:
    """Validate the assignment and the bound; return the earliest starts."""
    check_assignment(dfg, assignment)
    starts = _asap_starts(dfg, assignment)
    minimum = _latency_of(starts, assignment)
    if latency_bound < minimum:
        raise InfeasibleBoundError(
            f"latency bound {latency_bound} below minimum achievable {minimum}"
        )
    return starts


def alap(dfg: Dfg, assignment: Assignment, latency_bound: int) -> Schedule:
    """Latest-start schedule under `latency_bound`."""
    _check_latency_bound(dfg, assignment, latency_bound)
    return _as_schedule(dfg, assignment, _alap_starts(dfg, assignment, latency_bound))


def _fold(
    row: list[float], first: int, nodes: list[int],
    lo: list[int], hi: list[int], delay: list[int], share: list[float],
) -> None:
    """Add the occupancy of `nodes`, in order, to `row`, whose index 0 is
    cycle `first`; `lo`, `hi` and `delay` are indexed by node.

    Each of a node's w = hi-lo+1 candidate starts adds share[w-1] = 1/w
    to every cycle of its execution interval.  Pass j adds it, one slice
    at a time, to the cells the starts reach at offset j, so each cell
    gets one `+ share` per covering start, in a row, node after node:
    the same float sequence as a start-by-start accumulation.  A single
    start adds its 1.0 by index.  Nodes that miss the row add nothing.
    """
    n = len(row)
    for u in nodes:
        a, b, d = lo[u] - first, hi[u] - first, delay[u]
        if a >= n or b + d <= 0:
            continue
        s = share[b - a]
        if a == b:
            for i in range(a if a > 0 else 0, a + d if a + d < n else n):
                row[i] += s
        elif d == 2:
            # Cells a and b+1 see one start each, cells a+1..b see two.
            if a >= 0:
                row[a] += s
            if b + 1 < n:
                row[b + 1] += s
            a = a + 1 if a >= 0 else 0
            row[a : b + 1] = [c + s + s for c in row[a : b + 1]]
        else:
            for j in range(d):
                i = a + j if a + j > 0 else 0
                if i <= b + j:
                    row[i : b + j + 1] = [c + s for c in row[i : b + j + 1]]


def density_schedule(dfg: Dfg, assignment: Assignment, latency_bound: int) -> Schedule:
    """Schedule by repeatedly placing the most constrained node into the
    least occupied slot of its class.

    Force-directed scheduling in its incremental form.  The [asap, alap]
    windows are computed once; placing a node pins its window and raises
    the earliest start of its unplaced descendants and lowers the latest
    start of its unplaced ancestors, only as far as those values move.
    Each round takes the unplaced node with the smallest window (ties:
    declaration order) from a heap and starts it where its execution
    interval sees the smallest summed density of its class (ties:
    earliest cycle).  That density is folded only for the node's class
    over the cycles its window can reach, node by node in declaration
    order, with the float additions of a full recomputation; a node with
    a single candidate start is placed without a fold.  The golden
    digests in tests/test_scheduler.py pin the schedules to those of the
    round-by-round form, which rebuilt every window and density.
    """
    lo_of = _check_latency_bound(dfg, assignment, latency_bound)
    hi_of = _alap_starts(dfg, assignment, latency_bound)
    ids = dfg.node_ids
    index = {nid: i for i, nid in enumerate(ids)}
    delay = [assignment[nid].delay for nid in ids]
    preds = [[index[p] for p in dfg.preds(nid)] for nid in ids]
    succs = [[index[s] for s in dfg.succs(nid)] for nid in ids]
    of_class = {cls: [i for i, n in enumerate(dfg.nodes) if n.op_class is cls] for cls in OpClass}
    lo = [lo_of[nid] for nid in ids]
    hi = [hi_of[nid] for nid in ids]
    share = [1.0 / (width + 1) for width in range(latency_bound)]
    placed = [False] * len(ids)
    heap = [(hi[i] - lo[i], i) for i in range(len(ids))]
    heapq.heapify(heap)
    starts: dict[str, int] = {}
    while heap:
        width, v = heapq.heappop(heap)
        if placed[v] or width != hi[v] - lo[v]:
            continue  # stale entry: placed already, or its window shrank
        best_start = lo[v]
        if width:  # more than one candidate start
            d = delay[v]
            row = [0.0] * (width + d)  # cycles lo[v]..hi[v]+d-1
            _fold(row, lo[v], of_class[dfg.nodes[v].op_class], lo, hi, delay, share)
            # Each start's score adds its cells left to right, as from 0.0.
            scores = row[: width + 1]
            for j in range(1, d):
                scores = [score + c for score, c in zip(scores, row[j:])]
            best_start += scores.index(min(scores))  # ties: earliest cycle
        placed[v] = True
        starts[ids[v]] = lo[v] = hi[v] = best_start
        moved = []
        stack = [v]
        while stack:
            w = stack.pop()
            for u in succs[w]:
                if not placed[u] and lo[u] < lo[w] + delay[w]:
                    lo[u] = lo[w] + delay[w]
                    moved.append(u)
                    stack.append(u)
        stack = [v]
        while stack:
            w = stack.pop()
            for u in preds[w]:
                if not placed[u] and hi[u] > hi[w] - delay[u]:
                    hi[u] = hi[w] - delay[u]
                    moved.append(u)
                    stack.append(u)
        empty = [u for u in moved if hi[u] < lo[u]]
        if empty:
            raise InfeasibleBoundError(
                f"latency bound {latency_bound} leaves no feasible start for {ids[min(empty)]!r}"
            )
        for u in moved:
            heapq.heappush(heap, (hi[u] - lo[u], u))
    return _as_schedule(dfg, assignment, starts)


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
        weight_from[nid] = assignment[nid].delay + tail
    sources = sorted(
        dfg.source_ids,
        key=lambda nid: (-weight_from[nid], dfg.declaration_index(nid)),
    )
    current = sources[0]
    path = [current]
    while dfg.succs(current):
        target = weight_from[current] - assignment[current].delay
        nxt = sorted(
            (s for s in dfg.succs(current) if weight_from[s] == target),
            key=dfg.declaration_index,
        )
        current = nxt[0]
        path.append(current)
    return path
