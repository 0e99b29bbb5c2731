"""A sweep shares schedules and latency repair across its bound pairs
through one memo; every result must equal the one computed without it."""

import hashlib
import json
import random
import sys
from collections import Counter

import pytest

from relsyn import cli, redundancy, synthesizer
from relsyn.model import Bounds, Dfg, DfgNode, Infeasible, OpClass
from relsyn.model import builtin_benchmark, builtin_library, data_text
from relsyn.redundancy import baseline_nmr_synth, combined_synth
from relsyn.scheduler import InfeasibleBoundError, asap
from relsyn.synthesizer import find_design
from test_scheduler import WIDE_LIB

LIB = builtin_library()
FLOWS = {"ours": find_design, "nmr": baseline_nmr_synth, "combined": combined_synth}


def _random_dag(rng, n):
    nodes = tuple(DfgNode(f"v{i}", rng.choice((OpClass.ADD, OpClass.MUL))) for i in range(n))
    edges = {
        (f"v{rng.randrange(max(0, j - 6), j)}", f"v{j}")
        for j in range(1, n)
        for _ in range(rng.randint(0, 2))
    }
    return Dfg(nodes, tuple(sorted(edges)))


def _grids():
    """(graph, latency bounds, area bounds): small grids of the bundled
    graphs, then seeded random DAGs from one cycle below their fastest
    latency (latency-infeasible) to four above it."""
    yield builtin_benchmark("fir16"), range(9, 14), (8, 10, 12, 16, 24, 40)
    yield builtin_benchmark("ew"), range(14, 19), (6, 10, 16, 24, 40)
    yield builtin_benchmark("diffeq"), range(4, 9), (4, 7, 10, 14, 20, 36)
    rng = random.Random(97)
    fastest = {cls: min(LIB.versions_for(cls), key=lambda v: v.delay) for cls in OpClass}
    for n in (6, 9, 12, 15, 18, 24):
        dfg = _random_dag(rng, n)
        minimum = asap(dfg, {x.id: fastest[x.op_class] for x in dfg.nodes}).latency
        yield dfg, range(minimum - 1, minimum + 5), (2, 4, 6.5, 9, 14, 30)


def _text(result):
    if isinstance(result, Infeasible):
        return repr(result)
    return repr(cli.design_to_json(result))


def test_shared_memo_changes_no_result():
    rng = random.Random(5)
    for dfg, latencies, areas in _grids():
        visits = [(l_d, a_d, m) for l_d in latencies for a_d in areas for m in FLOWS]
        rng.shuffle(visits)
        memo = {}
        for l_d, a_d, method in visits:
            bounds = Bounds(l_d, a_d)
            shared = FLOWS[method](dfg, LIB, bounds, memo=memo)
            alone = FLOWS[method](dfg, LIB, bounds)
            assert _text(shared) == _text(alone), (l_d, a_d, method)


# sha256 of the CSV `relsyn sweep --methods ours,nmr,combined` prints for
# each benchmark grid of perfbench's sweep-bundled workload, captured from
# the sweep that solved every bound pair from scratch.
SWEEP_CSV_SHA256 = {
    ("fir16", "9:16", "8:40", "4"):
        "29fbc1e805908bb5b5b120cb7f614268fe3708bd3cf9359bb138b96cb2ed9f48",
    ("ew", "14:21", "6:40", "2"):
        "1c07e03dec2a22b6441b0c81f6700881d6f9e9a02bec8747d97236f325a8fca2",
    ("diffeq", "4:11", "4:36", "4"):
        "c346d41c2cdd9099231c88175813817a854b62f492ba9413faf14aafcf2dad8f",
}


def _sweep(tmp_path, capsys, name, latency, area, step):
    (tmp_path / f"{name}.dfg").write_text(data_text(f"{name}.dfg"))
    (tmp_path / "table1.lib").write_text(data_text("table1.lib"))
    code = cli.main([
        "sweep",
        "--dfg", str(tmp_path / f"{name}.dfg"),
        "--lib", str(tmp_path / "table1.lib"),
        "--latency", latency,
        "--area", area,
        "--step-a", step,
        "--methods", "ours,nmr,combined",
    ])
    assert code == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("grid", list(SWEEP_CSV_SHA256))
def test_sweep_csv_unchanged(tmp_path, capsys, grid):
    csv = _sweep(tmp_path, capsys, *grid)
    assert hashlib.sha256(csv.encode()).hexdigest() == SWEEP_CSV_SHA256[grid]


def test_bundled_sweeps_price_at_most_743_times(tmp_path, capsys, monkeypatch):
    # The NMR baseline prices its candidates best ceiling first and stops
    # once no ceiling can reach the best: 743 greedy pricings (kept runs
    # included) over the three bundled sweeps, where pricing every candidate
    # that fits took 1,179.
    priced = Counter()
    price = redundancy._Pricing.price

    def counting_price(self, area_bound):
        priced["calls"] += 1
        return price(self, area_bound)

    monkeypatch.setattr(redundancy._Pricing, "price", counting_price)
    for grid in SWEEP_CSV_SHA256:
        _sweep(tmp_path, capsys, *grid)
    assert 0 < priced["calls"] <= 743


def test_sweep_schedules_each_delay_vector_and_bound_once(tmp_path, capsys, monkeypatch):
    dfg = builtin_benchmark("ew")
    calls, infeasible = Counter(), set()
    schedule = synthesizer.density_schedule

    def counting(graph, assignment, latency_bound):
        key = (tuple(assignment[nid].delay for nid in dfg.node_ids), latency_bound)
        calls[key] += 1
        try:
            return schedule(graph, assignment, latency_bound)
        except InfeasibleBoundError:
            infeasible.add(key)
            raise

    monkeypatch.setattr(synthesizer, "density_schedule", counting)
    _sweep(tmp_path, capsys, "ew", "14:18", "6:40", "4")
    assert infeasible and set(calls.values()) == {1}
    # The same keys as the flows schedule one point at a time, each call
    # with its own memo.
    swept = set(calls)
    calls.clear()
    for l_d in range(14, 19):
        for a_d in range(6, 41, 4):
            for flow in FLOWS.values():
                flow(dfg, LIB, Bounds(l_d, a_d))
    assert set(calls) == swept
    assert max(calls.values()) > 1


def _flow_cases():
    """(graph, library, latency bounds, area bounds): the bundled graphs
    over perfbench's sweep-bundled latency ranges, then seeded 20-80 node
    DAGs with the bundled and the 1-4-cycle library, from one cycle
    below their fastest latency (latency-infeasible) to n/6 above it."""
    yield builtin_benchmark("fir16"), LIB, range(9, 17), (8, 12, 20, 40)
    yield builtin_benchmark("ew"), LIB, range(14, 22), (6, 10, 18, 40)
    yield builtin_benchmark("diffeq"), LIB, range(4, 12), (4, 8, 14, 36)
    rng = random.Random(8)
    for n in (20, 29, 37, 46, 54, 63, 71, 80):
        dfg = _random_dag(rng, n)
        for library in (LIB, WIDE_LIB):
            fastest = {c: min(library.versions_for(c), key=lambda v: v.delay) for c in OpClass}
            minimum = asap(dfg, {x.id: fastest[x.op_class] for x in dfg.nodes}).latency
            areas = (round(0.35 * n, 1), round(0.7 * n, 1), round(1.5 * n, 1))
            yield dfg, library, (minimum - 1, minimum, minimum + 2, minimum + n // 6), areas


def _flow_record(result):
    if isinstance(result, Infeasible):
        return f"infeasible {result.reason} {result.detail}"
    return json.dumps(cli.design_to_json(result))


def _flow_digest(memo_for):
    """sha256 over every flow result of `_flow_cases`, in case order; each
    graph's points are visited in a shuffled order with `memo_for()`."""
    rng = random.Random(13)
    records = []
    for dfg, library, latencies, areas in _flow_cases():
        points = [(l_d, a_d, m) for l_d in latencies for a_d in areas for m in FLOWS]
        visits = points[:]
        rng.shuffle(visits)
        memo, results = memo_for(), {}
        for l_d, a_d, method in visits:
            result = FLOWS[method](dfg, library, Bounds(l_d, a_d), memo=memo)
            results[l_d, a_d, method] = _flow_record(result)
        records += [results[point] for point in points]
    assert len(records) == 3 * (3 * 8 * 4 + 16 * 4 * 3)
    return hashlib.sha256("\n".join(records).encode()).hexdigest()


# sha256 of every flow's design JSON (or Infeasible reason and detail) over
# `_flow_cases`, captured from the flow that scheduled and bound in one
# step and priced the design in another.
FLOW_DESIGNS_SHA256 = "201001a18c89b31a5d5e668d2463b07a303adbc1f974b4f97a0981e95e5c31dc"


@pytest.mark.parametrize("shared", [False, True], ids=["no-memo", "shared-memo"])
def test_flow_designs_unchanged(shared):
    assert _flow_digest(dict if shared else lambda: None) == FLOW_DESIGNS_SHA256


def test_sweep_builds_each_design_once(tmp_path, capsys, monkeypatch):
    # Each distinct (assignment, L) of the sweep is bound once, however many
    # area bounds and flows reach it.
    bound = []
    bind = synthesizer.bind

    def counting_bind(dfg, schedule, assignment):
        # The memo holds one schedule object per (delays, L): it stands for L.
        bound.append((tuple(v.name for v in assignment.values()), id(schedule)))
        return bind(dfg, schedule, assignment)

    monkeypatch.setattr(synthesizer, "bind", counting_bind)
    csv = _sweep(tmp_path, capsys, "ew", "14:21", "6:40", "2")
    assert csv.count("\n") == 1 + 432
    assert len(bound) == len(set(bound))
    # The single-version assignments are bound at many L.
    assert len({names for names, _ in bound}) < len(bound)


def _called_from(name):
    """Whether `name` is on the stack above the caller: the NMR baseline
    reaches `_design_at` by way of `_candidate_at` and, before Python 3.12,
    a comprehension's frame."""
    frame = sys._getframe(2)
    while frame is not None and frame.f_code.co_name != name:
        frame = frame.f_back
    return frame is not None


def test_sweep_builds_single_version_designs_once_and_only_nmr_winners(
    tmp_path, capsys, monkeypatch
):
    # The NMR baseline builds each single-version design once per L, however
    # many area bounds and flows read it, and prices its candidates: only a
    # returned design gets built with its NMR binding, once per greedy run,
    # however many rows return it.
    enumerated, built, returned = Counter(), [], {}
    design_at, design, run_method = synthesizer._design_at, redundancy.Design, cli._run_method

    def counting_design_at(dfg, library, versions, latency_bound, memo):
        if _called_from("baseline_nmr_synth"):
            enumerated[tuple(v.name for v in versions), latency_bound] += 1
        return design_at(dfg, library, versions, latency_bound, memo)

    def counting_design(*fields):
        built.append(design(*fields))
        return built[-1]

    def recording_run_method(method, *args):
        result = run_method(method, *args)
        if method != "ours" and not isinstance(result, Infeasible):
            returned[id(result)] = result
        return result

    monkeypatch.setattr(synthesizer, "_design_at", counting_design_at)
    monkeypatch.setattr(redundancy, "Design", counting_design)
    monkeypatch.setattr(cli, "_run_method", recording_run_method)
    csv = _sweep(tmp_path, capsys, "ew", "14:21", "6:40", "2")
    rows = [line.split(",") for line in csv.splitlines()[1:]]
    assert len(rows) == 432
    assert {latency for _, latency in enumerated} == set(range(14, 22))
    assert set(enumerated.values()) == {1}
    feasible = [r for r in rows if r[2] in ("nmr", "combined") and r[3] == "feasible"]
    assert len(feasible) > 100
    assert {id(d) for d in built} == set(returned)
    assert len(built) < len(feasible)  # rows inside one greedy run share its design


def test_sweep_walks_each_latency_bound_once(tmp_path, capsys, monkeypatch):
    # find_design's slack and area-repair walk does not depend on the area
    # bound, so each of its designs is reached once per latency bound L,
    # however many area bounds and flows stop on or pass it.  The NMR
    # baseline's builds are no walk steps.
    reached = Counter()
    design_at = synthesizer._design_at

    def counting_design_at(dfg, library, versions, latency_bound, memo):
        if not _called_from("baseline_nmr_synth"):
            l_d = sys._getframe(1).f_locals["l_d"]  # find_design's or `_candidate_at`'s bound
            reached[l_d, tuple(v.name for v in versions), latency_bound] += 1
        return design_at(dfg, library, versions, latency_bound, memo)

    monkeypatch.setattr(synthesizer, "_design_at", counting_design_at)
    _sweep(tmp_path, capsys, "ew", "14:21", "6:40", "2")
    assert set(reached.values()) == {1}
    assert len(reached) > 2 * len(range(14, 22))  # the walks take steps


def test_walk_grows_as_the_area_bound_falls():
    # Visited in strictly falling area, each call stops beyond the designs
    # of the calls before it, so the shared walk grows call by call; the
    # results are those of calls without a memo.
    grown = 0
    for dfg, latencies, areas in _grids():
        memo = {}
        for l_d in latencies:
            lengths = []
            for a_d in sorted(areas, reverse=True):
                for method in FLOWS:
                    shared = FLOWS[method](dfg, LIB, Bounds(l_d, a_d), memo=memo)
                    alone = FLOWS[method](dfg, LIB, Bounds(l_d, a_d))
                    assert _text(shared) == _text(alone), (l_d, a_d, method)
                walk = memo[l_d]
                lengths.append(0 if isinstance(walk, Infeasible) else len(walk))
            assert lengths == sorted(lengths)
            grown += lengths[-1] > lengths[0]
    assert grown > 10


def test_design_at_stores_none_for_a_missed_bound(monkeypatch):
    # An assignment whose ASAP latency exceeds L has no design at L; the
    # memo keeps that answer, so asking again schedules nothing.
    dfg = builtin_benchmark("ew")
    assignment = synthesizer.initial_allocation(dfg, LIB)
    versions = [assignment[nid] for nid in dfg.node_ids]
    latency_bound = asap(dfg, assignment).latency - 1
    calls = Counter()
    schedule = synthesizer.density_schedule

    def counting(graph, assignment, latency_bound):
        calls["calls"] += 1
        return schedule(graph, assignment, latency_bound)

    monkeypatch.setattr(synthesizer, "density_schedule", counting)
    memo = {}
    assert synthesizer._design_at(dfg, LIB, versions, latency_bound, memo) is None
    assert calls["calls"] == 1
    assert synthesizer._design_at(dfg, LIB, versions, latency_bound, memo) is None
    assert calls["calls"] == 1


def test_shared_memo_holds_no_exception():
    dfg = builtin_benchmark("ew")
    memo = {}
    for l_d in range(14, 19):
        for a_d in (6, 10, 16, 24, 40):
            for flow in FLOWS.values():
                flow(dfg, LIB, Bounds(l_d, a_d), memo=memo)
    assert not any(isinstance(value, BaseException) for value in memo.values())
    assert None in memo.values()
