"""A sweep shares schedules and latency repair across its bound pairs
through one memo; every result must equal the one computed without it."""

import hashlib
import random
from collections import Counter

import pytest

from relsyn import cli, synthesizer
from relsyn.model import Bounds, Dfg, DfgNode, Infeasible, OpClass
from relsyn.model import builtin_benchmark, builtin_library, data_text
from relsyn.redundancy import baseline_nmr_synth, combined_synth
from relsyn.scheduler import InfeasibleBoundError, asap
from relsyn.synthesizer import find_design

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
