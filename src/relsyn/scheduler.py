"""ASAP/ALAP scheduling and the density scheduler.

The density scheduler is force-directed scheduling (Paulin & Knight,
1989) in the incremental form of Verhaegh et al.: windows are computed
once and tightened only where a placement moves them, and each round
scores one node's starts by its class's occupancy density, a float sum
with the additions per cell of a start-by-start sum.  Where that pays,
a fixed-point filter first keeps open only the starts that sum can
pick, and one open start decides the round.  Its schedules equal those
of the round-by-round form bit for bit, tie-breaks included.  It reads
each node's delay and class, never its version name.

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
from operator import add
from typing import Iterable, Mapping

from .model import Assignment, Dfg, check_assignment


SCALE = 1 << 22  # the density filter's fixed point: a window of width w adds SCALE // w


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
    end = first + n
    for u in [u for u in nodes if lo[u] < end and hi[u] + delay[u] > first]:
        a, b, d = lo[u] - first, hi[u] - first, delay[u]
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


def _show(
    diff_of: list, shown: list, nodes: Iterable[int], lo: list[int], hi: list[int], delay: list[int]
) -> None:
    """Move each node's window in its class's second differences (see density_schedule)
    from the (a, b, q) that `shown` holds, (0, 0, 0) for none, to [lo, hi]."""
    for u in nodes:
        a, b, q = shown[u]
        if a != lo[u] or b != hi[u]:
            diff, d = diff_of[u], delay[u]
            diff[a] -= q
            diff[b + 1] += q
            diff[a + d] += q
            diff[b + d + 1] -= q
            a, b = lo[u], hi[u]
            q = SCALE // (b - a + 1)
            diff[a] += q
            diff[b + 1] -= q
            diff[a + d] -= q
            diff[b + d + 1] += q
            shown[u] = a, b, q


def _slack(score: int, terms: int) -> int:
    """Bound on |SCALE * float score - score| (see density_schedule)."""
    return terms + (terms * (score + terms) >> 52) + 1


def _open_span(scores: list[int], terms: int) -> tuple[int, int]:
    """The first and last start whose F exceeds the least by at most its and the largest's slack."""
    best = min(scores)
    cap = best + _slack(best, terms) + _slack(max(scores), terms)
    open_starts = [k for k, score in enumerate(scores) if score <= cap]
    return open_starts[0], open_starts[-1]


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
    start, and lowers an ancestor's latest likewise.  On each edge w -> u
    the windows keep lo[u] >= lo[w] + d_w and hi[u] >= hi[w] + d_w, so a
    node with one start, placed or not, neither moves nor is moved by a
    placement; it never enters the heap.

    A filter bounds the fold where class size times starts is 64 or more.
    From its first round, each class keeps its density times SCALE = 2**22
    as second differences by cycle: a window [lo, hi] of width w and delay
    d adds q = floor(SCALE / w) at lo and hi+d+1 and -q at hi+1 and lo+d,
    so two prefix sums give each cycle's occupancy, and a start's fixed
    score F adds its d cells.  F has at most N = d * (total delay) terms q,
    so 0 <= SCALE E - F < N for its exact score E.  The fold rounds each
    1/w and adds each term into a cell and each cell into the score, at
    most N roundings per term, so its score S has |S - E| <= gamma_N E <=
    2**-52 N E (Higham, Accuracy and Stability of Numerical Algorithms,
    sec. 4.2), and |SCALE S - F| <= `_slack(F, N)`, rising in F, at any
    scale.  So a start whose F tops the least, F_best, by more than the
    slacks of F_best and of the largest F has SCALE S >= F - slack >
    F_best + slack >= SCALE S_best, and only the starts of `_open_span`
    can be the fold's pick: one decides the round, else float rounding,
    not the exact density, may break their tie and the fold scores them
    alone.  At 2**22 a class of 128 delay-2 windows scores in one int digit.
    """
    delay, lo = _check_latency_bound(dfg, assignment, latency_bound)
    hi = _alap_starts(dfg, delay, latency_bound)
    preds, succs, peers = dfg.pred_positions, dfg.succ_positions, dfg.class_peers
    share = [1.0 / (width + 1) for width in range(latency_bound)]
    diff_of = None  # per node, its class's second differences; built on first use
    heap = [(hi[i] - lo[i], i) for i in range(len(delay)) if hi[i] > lo[i]]
    heapq.heapify(heap)
    while heap:
        width, v = heapq.heappop(heap)
        if width != hi[v] - lo[v]:
            continue  # stale entry: placed already, or its window shrank
        d, first, last = delay[v], 0, width
        if len(peers[v]) * (width + 1) >= 64:  # smaller folds cost less than the filter
            if diff_of is None:
                diff_of, shown, terms = [], [(0, 0, 0)] * len(delay), sum(delay)
                for u, head in enumerate(nodes[0] for nodes in peers):  # a list per class
                    diff_of.append(diff_of[head] if head < u else [0] * (latency_bound + 3))
                _show(diff_of, shown, range(len(delay)), lo, hi, delay)
            cells = list(accumulate(accumulate(diff_of[v][: hi[v] + d])))
            scores = cells[lo[v] : hi[v] + 1]
            for j in range(1, d):
                scores = list(map(add, scores, cells[lo[v] + j : hi[v] + j + 1]))
            first, last = _open_span(scores, d * terms)
        if first < last:
            row = [0.0] * (last - first + d)  # cycles lo[v]+first..lo[v]+last+d-1
            _fold(row, lo[v] + first, peers[v], lo, hi, delay, share)
            # Each start's score adds its cells left to right, as from 0.0.
            scores = row[: last - first + 1]
            for j in range(1, d):
                scores = [score + c for score, c in zip(scores, row[j:])]
            first += scores.index(min(scores))  # ties: earliest cycle
        lo[v] = hi[v] = lo[v] + first
        moved = []
        stack = [v]
        while stack:
            w = stack.pop()
            for u in succs[w]:
                if lo[u] < lo[w] + delay[w]:
                    lo[u] = lo[w] + delay[w]
                    moved.append(u)
                    stack.append(u)
        stack = [v]
        while stack:
            w = stack.pop()
            for u in preds[w]:
                if hi[u] > hi[w] - delay[u]:
                    hi[u] = hi[w] - delay[u]
                    moved.append(u)
                    stack.append(u)
        for u in moved:
            if hi[u] > lo[u]:
                heapq.heappush(heap, (hi[u] - lo[u], u))
        if diff_of:
            _show(diff_of, shown, [v, *moved], lo, hi, delay)
    return _as_schedule(dfg, lo, delay)  # every window is one start: lo holds the starts
