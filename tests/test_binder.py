import random

import pytest

from checks import WIDE_LIB
from relsyn.binder import Binding, Instance, bind, total_area, with_nmr
from relsyn.model import (
    Dfg,
    DfgNode,
    OpClass,
    ValidationError,
    builtin_library,
    parse_dfg,
)
from relsyn.scheduler import Schedule, asap, density_schedule

LIB = builtin_library()
ADDER1 = LIB.by_name("Adder1")
ADDER2 = LIB.by_name("Adder2")


def test_serial_nodes_share_one_instance():
    dfg = parse_dfg("node a add\nnode b add\nedge a b\n")
    asg = {"a": ADDER2, "b": ADDER2}
    binding = bind(dfg, Schedule({"a": 1, "b": 2}, 2), asg)
    assert len(binding.instances) == 1
    assert binding.node_to_instance == {"a": 0, "b": 0}


def test_concurrent_nodes_need_two_instances():
    dfg = parse_dfg("node a add\nnode b add\n")
    asg = {"a": ADDER2, "b": ADDER2}
    binding = bind(dfg, Schedule({"a": 1, "b": 1}, 1), asg)
    assert len(binding.instances) == 2


def test_six_adds_two_concurrent_gives_two_instances_area_four():
    dfg = parse_dfg("\n".join(f"node x{i} add" for i in range(6)))
    asg = {nid: ADDER2 for nid in dfg.node_ids}
    starts = {f"x{i}": 1 + i // 2 for i in range(6)}  # two per cycle
    binding = bind(dfg, Schedule(starts, 3), asg)
    assert len(binding.instances) == 2
    assert total_area(binding, LIB) == 4


def test_non_pipelined_units_stay_busy_for_full_delay():
    # A delay-2 unit cannot accept a new operation on its second cycle.
    dfg = parse_dfg("node a add\nnode b add\n")
    asg = {"a": ADDER1, "b": ADDER1}
    binding = bind(dfg, Schedule({"a": 1, "b": 2}, 3), asg)
    assert len(binding.instances) == 2
    binding = bind(dfg, Schedule({"a": 1, "b": 3}, 4), asg)
    assert len(binding.instances) == 1


def test_mixed_versions_never_share():
    dfg = parse_dfg("node a add\nnode b add\nedge a b\n")
    asg = {"a": ADDER1, "b": ADDER2}
    binding = bind(dfg, Schedule({"a": 1, "b": 3}, 3), asg)
    assert len(binding.instances) == 2
    assert total_area(binding, LIB) == 3  # one Adder1 + one Adder2


def test_total_area_empty_binding():
    assert total_area(Binding({}, ()), LIB) == 0


def test_total_area_scales_with_nmr():
    binding = Binding({}, (Instance("Adder2", 3), Instance("Adder2", 1)))
    assert total_area(binding, LIB) == 2 * 3 + 2


def test_total_area_unknown_version():
    binding = Binding({}, (Instance("Widget"),))
    with pytest.raises(ValidationError, match="Widget"):
        total_area(binding, LIB)


def test_instance_rejects_even_nmr():
    with pytest.raises(ValidationError, match="^Adder2: nmr_factor must be odd and >= 1$"):
        Instance("Adder2", 2)
    with pytest.raises(ValidationError):
        with_nmr(Binding({}, (Instance("Adder2"),)), {0: 4})


def test_with_nmr_unknown_instance():
    for spec in ({3: 3}, {-1: 3}):  # past the end, and a negative id
        with pytest.raises(ValidationError, match="unknown instance"):
            with_nmr(Binding({}, (Instance("Adder2"),)), spec)


def _random_case(rng: random.Random):
    n = rng.randint(2, 8)
    nodes = tuple(
        DfgNode(f"n{i}", rng.choice((OpClass.ADD, OpClass.MUL))) for i in range(n)
    )
    edges = []
    for j in range(1, n):
        for i in range(j):
            if rng.random() < 0.3:
                edges.append((f"n{i}", f"n{j}"))
    dfg = Dfg(nodes, tuple(edges))
    asg = {x.id: rng.choice(LIB.versions_for(x.op_class)) for x in dfg.nodes}
    bound = asap(dfg, asg).latency + rng.randint(0, 4)
    sched = density_schedule(dfg, asg, bound)
    return dfg, asg, sched


def test_no_overlap_invariant_on_random_schedules():
    rng = random.Random(37)
    for _ in range(40):
        dfg, asg, sched = _random_case(rng)
        binding = bind(dfg, sched, asg)
        for k, inst in enumerate(binding.instances):
            busy: set[int] = set()
            for nid in [n for n, iid in binding.node_to_instance.items() if iid == k]:
                assert asg[nid].name == inst.version
                cells = set(
                    range(sched.starts[nid], sched.starts[nid] + asg[nid].delay)
                )
                assert not busy & cells
                busy |= cells


def test_left_edge_matches_peak_concurrency():
    # Interval-graph optimality: instances per version equal the maximum
    # number of concurrently executing nodes of that version.
    rng = random.Random(41)
    for _ in range(40):
        dfg, asg, sched = _random_case(rng)
        binding = bind(dfg, sched, asg)
        horizon = sched.latency
        for vname in {v.name for v in asg.values()}:
            occupancy = [0] * horizon
            for nid in dfg.node_ids:
                if asg[nid].name == vname:
                    for c in range(sched.starts[nid], sched.starts[nid] + asg[nid].delay):
                        occupancy[c - 1] += 1
            instance_count = sum(1 for inst in binding.instances if inst.version == vname)
            assert instance_count == max(occupancy)


def test_area_monotone_under_upgrades():
    rng = random.Random(43)
    for _ in range(20):
        dfg, asg, sched = _random_case(rng)
        binding = bind(dfg, sched, asg)
        base = total_area(binding, LIB)
        if binding.instances:
            upgraded = with_nmr(binding, {0: 3})
            assert total_area(upgraded, LIB) > base


def _reference_bind(dfg, sched, asg):
    """Left edge by scanning every instance in id order for a free one of
    the node's version."""
    names, last_busy, mapping = [], [], {}
    for nid in sorted(dfg.node_ids, key=lambda nid: sched.starts[nid]):
        version, start = asg[nid], sched.starts[nid]
        free = [i for i, name in enumerate(names) if name == version.name and last_busy[i] < start]
        iid = free[0] if free else len(names)
        if not free:
            names.append(version.name)
            last_busy.append(0)
        mapping[nid] = iid
        last_busy[iid] = start + version.delay - 1
    return Binding(mapping, tuple(Instance(name) for name in names))


@pytest.mark.parametrize("library", ["LIB", "WIDE_LIB"])
def test_bind_matches_an_all_instances_scan(library):
    # Random start vectors, precedence ignored, over 1-60 nodes of mixed
    # versions: the lowest-id free instance of a node's version wins.
    lib = LIB if library == "LIB" else WIDE_LIB
    rng = random.Random(53)
    for _ in range(200):
        n = rng.randint(1, 60)
        dfg = Dfg(
            tuple(DfgNode(f"n{i}", rng.choice((OpClass.ADD, OpClass.MUL))) for i in range(n)), ()
        )
        asg = {x.id: rng.choice(lib.versions_for(x.op_class)) for x in dfg.nodes}
        starts = {nid: rng.randint(1, 12) for nid in dfg.node_ids}
        sched = Schedule(starts, max(starts[nid] + asg[nid].delay - 1 for nid in starts))
        assert bind(dfg, sched, asg) == _reference_bind(dfg, sched, asg)
