"""ASAP/ALAP scheduling and the density scheduler.

The density scheduler is force-directed scheduling (Paulin & Knight,
1989) in the incremental form of Verhaegh et al.: windows are computed
once and tightened only where a placement moves them, and each round
scores one node's starts by its class's occupancy density: by a
fixed-point filter where that pays and decides, else by a float fold
with the additions per cell of a start-by-start sum.  Its schedules
equal those of the round-by-round form bit for bit, tie-breaks
included.  It reads each node's delay and class, never its version name.

Cycles are 1-based.  A node with start s and delay d occupies the
execution interval [s, s+d-1]; functional units are non-pipelined, so a
dependent may start no earlier than s+d.  All tie-breaks resolve by
node declaration order, then by earlier cycle, which makes every
routine here deterministic.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import accumulate
from operator import sub
from typing import Mapping

from .model import Assignment, Dfg, check_assignment


class InfeasibleBoundError(ValueError):
    """Latency bound below the minimum achievable (ASAP) latency."""


@dataclass(frozen=True)
class Schedule:
    """Start cycle per node plus the resulting latency."""

    starts: Mapping[str, int]
    latency: int


def _asap_starts(dfg: Dfg, delay: list[int]) -> list[int]:
    """Earliest starts, by node position."""
    starts = [1] * len(delay)
    preds = dfg.pred_positions
    for v in dfg.topo_positions:
        for u in preds[v]:
            if starts[u] + delay[u] > starts[v]:
                starts[v] = starts[u] + delay[u]
    return starts


def _alap_starts(dfg: Dfg, delay: list[int], latency_bound: int) -> list[int]:
    """Latest starts under `latency_bound`, by node position."""
    starts = [latency_bound - d + 1 for d in delay]
    succs = dfg.succ_positions
    for v in reversed(dfg.topo_positions):
        for u in succs[v]:
            if starts[u] - delay[v] < starts[v]:
                starts[v] = starts[u] - delay[v]
    return starts


def _latency_of(starts: list[int], delay: list[int]) -> int:
    return max([start + d for start, d in zip(starts, delay)]) - 1


def _as_schedule(dfg: Dfg, starts: list[int], delay: list[int]) -> Schedule:
    return Schedule(dict(zip(dfg.node_ids, starts)), _latency_of(starts, delay))


def _check_latency_bound(
    dfg: Dfg, assignment: Assignment, latency_bound: int
) -> tuple[list[int], list[int]]:
    """Validate the assignment and the bound; return the delays and the
    earliest starts, by node position."""
    check_assignment(dfg, assignment)
    delay = [assignment[nid].delay for nid in dfg.node_ids]
    starts = _asap_starts(dfg, delay)
    minimum = _latency_of(starts, delay)
    if latency_bound < minimum:
        raise InfeasibleBoundError(
            f"latency bound {latency_bound} below minimum achievable {minimum}"
        )
    return delay, starts


def asap(dfg: Dfg, assignment: Assignment) -> Schedule:
    """Earliest-start schedule; its latency is the minimum achievable."""
    check_assignment(dfg, assignment)
    delay = [assignment[nid].delay for nid in dfg.node_ids]
    return _as_schedule(dfg, _asap_starts(dfg, delay), delay)


def alap(dfg: Dfg, assignment: Assignment, latency_bound: int) -> Schedule:
    """Latest-start schedule under `latency_bound`."""
    delay, _ = _check_latency_bound(dfg, assignment, latency_bound)
    return _as_schedule(dfg, _alap_starts(dfg, delay, latency_bound), delay)


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


def _shift(diff: list[int], a: int, b: int, d: int, sign: int) -> None:
    """Add sign * floor(2**64 / (b-a+1)) per start in [a, b] to its cycles."""
    q = sign * ((1 << 64) // (b - a + 1))
    diff[a] += q
    diff[b + 1] -= q
    diff[a + d] -= q
    diff[b + d + 1] += q


def _slack(score: int, terms: int) -> int:
    """Bound on |2**64 * float score - score| (see density_schedule)."""
    return terms + (terms * (score + terms) >> 52) + 1


def _filter_pick(scores: list[int], terms: int) -> int | None:
    """Index of the start the float fold must pick, or None if unsure."""
    best = min(scores)
    k = scores.index(best)
    runner_up = min(scores[:k] + scores[k + 1 :])
    return k if best + _slack(best, terms) < runner_up - _slack(runner_up, terms) else None


def density_schedule(dfg: Dfg, assignment: Assignment, latency_bound: int) -> Schedule:
    """Schedule by repeatedly placing the most constrained node into the
    least occupied slot of its class.

    Force-directed scheduling in its incremental form.  The [asap, alap]
    windows are computed once; placing a node pins its window and raises
    the earliest start of its unplaced descendants and lowers the latest
    start of its unplaced ancestors, only as far as those values move.
    Each round takes the unplaced node with the smallest window (ties:
    declaration order) from a heap and starts it where its execution
    interval sees the smallest summed float density of its class, folded
    node by node in declaration order with the float additions of a full
    recomputation (ties: earliest cycle).  No window empties once the
    ASAP check passes: a start in [lo, hi] lifts a descendant's earliest
    start to at most hi plus the delays between, within its latest
    start, and lowers an ancestor's latest likewise.

    A filter decides the rounds where class size times starts is 64 or
    more, folding only on near ties.  From its first round, each class
    keeps its density times 2**64 as second differences by cycle: a
    window [lo, hi] of width w and delay d adds q = floor(2**64 / w) at
    lo and hi+d+1 and -q at hi+1 and lo+d.  A start's fixed score F has
    at most N = d * (total delay) terms q, so 0 <= 2**64 E - F < N for
    its exact score E.  The fold rounds each 1/w and adds each term into
    a cell and each cell into the score, at most N roundings per term,
    so its score S has |S - E| <= gamma_N E <= 2**-52 N E (Higham,
    Accuracy and Stability of Numerical Algorithms, sec. 4.2), and
    |2**64 S - F| <= `_slack(F, N)`.  A start whose F beats every other
    by both slacks is the fold's pick; in other rounds float rounding,
    not the exact density, breaks ties.
    """
    delay, lo = _check_latency_bound(dfg, assignment, latency_bound)
    hi = _alap_starts(dfg, delay, latency_bound)
    preds, succs, peers = dfg.pred_positions, dfg.succ_positions, dfg.class_peers
    share = [1.0 / (width + 1) for width in range(latency_bound)]
    diff_of = None  # per node, its class's second differences; built on first use
    placed = [False] * len(delay)
    heap = [(hi[i] - lo[i], i) for i in range(len(delay))]
    heapq.heapify(heap)
    while heap:
        width, v = heapq.heappop(heap)
        if placed[v] or width != hi[v] - lo[v]:
            continue  # stale entry: placed already, or its window shrank
        best_start = lo[v]
        if width:  # more than one candidate start
            d, k = delay[v], None
            if len(peers[v]) * (width + 1) >= 64:  # smaller folds cost less than the filter
                if diff_of is None:
                    diff_of, shown, terms = [], list(zip(lo, hi)), sum(delay)
                    for u, first in enumerate(nodes[0] for nodes in peers):  # a list per class
                        diff_of.append(diff_of[first] if first < u else [0] * (latency_bound + 3))
                        _shift(diff_of[u], lo[u], hi[u], delay[u], 1)
                total = list(accumulate(accumulate(accumulate(diff_of[v][: hi[v] + d]))))
                scores = list(map(sub, total[lo[v] + d - 1 :], total[lo[v] - 1 : hi[v]]))
                k = _filter_pick(scores, d * terms)
            if k is None:
                row = [0.0] * (width + d)  # cycles lo[v]..hi[v]+d-1
                _fold(row, lo[v], peers[v], lo, hi, delay, share)
                # Each start's score adds its cells left to right, as from 0.0.
                scores = row[: width + 1]
                for j in range(1, d):
                    scores = [score + c for score, c in zip(scores, row[j:])]
                k = scores.index(min(scores))  # ties: earliest cycle
            best_start += k
        placed[v] = True
        lo[v] = hi[v] = best_start
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
        for u in moved:
            heapq.heappush(heap, (hi[u] - lo[u], u))
        for u in [v, *moved] if diff_of else ():  # move what diff_of holds (shown)
            a, b = shown[u]
            if a != lo[u] or b != hi[u]:
                _shift(diff_of[u], a, b, delay[u], -1)
                _shift(diff_of[u], lo[u], hi[u], delay[u], 1)
                shown[u] = lo[u], hi[u]
    return _as_schedule(dfg, lo, delay)  # every node placed: lo holds the starts
