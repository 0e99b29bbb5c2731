import hashlib
import itertools
import math
import random
from collections import Counter

import pytest

from checks import validate_design
from relsyn.binder import bind, total_area
from relsyn.model import (
    Dfg,
    DfgNode,
    OpClass,
    ValidationError,
    builtin_benchmark,
    builtin_library,
    parse_dfg,
)
from relsyn.redundancy import (
    baseline_nmr_synth,
    combined_synth,
    evaluate_reliability,
    greedy_nmr_upgrade,
    nmr_reliability,
)
from relsyn.scheduler import Schedule, asap, density_schedule
from relsyn.synthesizer import Bounds, Design, Infeasible, find_design, single_version_designs

LIB = builtin_library()
ADDER1 = LIB.by_name("Adder1")
ADDER2 = LIB.by_name("Adder2")
MULT2 = LIB.by_name("Mult2")


def _all_add_dfg(n):
    return parse_dfg("\n".join(f"node x{i} add" for i in range(n)))


def test_evaluate_six_adder2_nodes():
    dfg = _all_add_dfg(6)
    asg = {nid: ADDER2 for nid in dfg.node_ids}
    assert evaluate_reliability(dfg, asg) == pytest.approx(0.82783, abs=1e-5)


def test_evaluate_mixed_three_three():
    dfg = _all_add_dfg(6)
    asg = {nid: (ADDER1 if i < 3 else ADDER2) for i, nid in enumerate(dfg.node_ids)}
    assert evaluate_reliability(dfg, asg) == pytest.approx(0.90713, abs=1e-5)


def test_evaluate_fir16_all_low_reliability():
    fir = builtin_benchmark("fir16")
    asg = {
        n.id: (ADDER2 if n.op_class is OpClass.ADD else MULT2) for n in fir.nodes
    }
    assert evaluate_reliability(fir, asg) == pytest.approx(0.48467, abs=2e-4)


def test_evaluate_permutation_invariance_and_multiplicativity():
    rng = random.Random(53)
    for _ in range(20):
        n = rng.randint(2, 9)
        versions = [rng.choice(LIB.versions_for(OpClass.ADD)) for _ in range(n)]
        dfg = _all_add_dfg(n)
        asg = dict(zip(dfg.node_ids, versions))
        base = evaluate_reliability(dfg, asg)
        shuffled = versions[:]
        rng.shuffle(shuffled)
        asg2 = dict(zip(dfg.node_ids, shuffled))
        assert evaluate_reliability(dfg, asg2) == pytest.approx(base, rel=1e-12)
        # Multiplicative over disjoint halves.
        k = n // 2
        if k:
            left = _all_add_dfg(k)
            right = _all_add_dfg(n - k)
            r_left = evaluate_reliability(left, dict(zip(left.node_ids, versions[:k])))
            r_right = evaluate_reliability(
                right, dict(zip(right.node_ids, versions[k:]))
            )
            assert r_left * r_right == pytest.approx(base, rel=1e-12)


def test_nmr_reliability_values():
    assert nmr_reliability(0.7, 1) == 0.7
    assert nmr_reliability(0.5, 3) == pytest.approx(0.5, abs=1e-12)
    assert nmr_reliability(0.5, 7) == pytest.approx(0.5, abs=1e-12)
    assert nmr_reliability(0.969, 3) == pytest.approx(0.997177, abs=1e-6)
    # Direct binomial-sum cross-check for a five-way vote.
    r = 0.9
    expected = sum(
        math.comb(5, i) * r**i * (1 - r) ** (5 - i) for i in range(3, 6)
    )
    assert nmr_reliability(r, 5) == pytest.approx(expected, rel=1e-12)


def test_nmr_reliability_rejects_bad_n():
    for n in (0, -1, 2, 4):
        with pytest.raises(ValidationError):
            nmr_reliability(0.9, n)


def test_nmr_monotonicity_grid():
    grid = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.969, 0.999]
    for r in grid:
        for n in (3, 5, 7):
            value = nmr_reliability(r, n)
            if r > 0.5:
                assert value > r
            elif r < 0.5:
                assert value < r
            else:
                assert value == pytest.approx(0.5, abs=1e-12)
    # Strictly monotone in n on either side of 1/2.
    for r in grid:
        values = [nmr_reliability(r, n) for n in (3, 5, 7)]
        if r > 0.5:
            assert values[0] < values[1] < values[2]
        elif r < 0.5:
            assert values[0] > values[1] > values[2]


def _design_for(dfg, asg, latency_bound):
    sched = density_schedule(dfg, asg, latency_bound)
    binding = bind(dfg, sched, asg)
    return Design(
        assignment=dict(asg),
        schedule=sched,
        binding=binding,
        latency=sched.latency,
        area=total_area(binding, LIB),
        reliability=evaluate_reliability(dfg, asg, binding),
    )


def test_greedy_upgrade_no_slack_returns_unchanged():
    dfg = _all_add_dfg(2)
    asg = {nid: ADDER2 for nid in dfg.node_ids}
    design = _design_for(dfg, asg, 2)
    upgraded = greedy_nmr_upgrade(design, LIB, design.area + 3.9)
    assert upgraded.area == design.area
    assert upgraded.reliability == pytest.approx(design.reliability, rel=1e-12)


def test_greedy_upgrade_triplicates_single_instance():
    dfg = parse_dfg("node a add\n")
    asg = {"a": ADDER2}
    design = _design_for(dfg, asg, 1)
    upgraded = greedy_nmr_upgrade(design, LIB, design.area + 4)
    assert upgraded.binding.instances[0].nmr_factor == 3
    assert upgraded.reliability == pytest.approx(0.997177, abs=1e-6)
    assert upgraded.area == design.area + 4
    assert upgraded.latency == design.latency


def test_greedy_upgrade_never_decreases_reliability_or_breaks_bound():
    rng = random.Random(59)
    for _ in range(25):
        n = rng.randint(1, 7)
        dfg = _all_add_dfg(n)
        asg = {nid: rng.choice(LIB.versions_for(OpClass.ADD)) for nid in dfg.node_ids}
        design = _design_for(dfg, asg, n + rng.randint(0, 2))
        bound = design.area + rng.choice([0, 2, 4, 9, 20])
        upgraded = greedy_nmr_upgrade(design, LIB, bound)
        assert upgraded.area <= bound + 1e-9
        assert upgraded.reliability >= design.reliability - 1e-12


def test_baseline_fir16_single_version_products():
    fir = builtin_benchmark("fir16")
    result = baseline_nmr_synth(fir, LIB, Bounds(11, 9))
    assert isinstance(result, Design)
    assert result.reliability == pytest.approx(0.48467, abs=2e-4)
    assert {v.name for v in result.assignment.values()} == {"Adder2", "Mult2"}

    result = baseline_nmr_synth(fir, LIB, Bounds(10, 13))
    assert isinstance(result, Design)
    assert result.reliability == pytest.approx(0.61856, abs=2e-4)
    assert {v.name for v in result.assignment.values()} == {"Adder2", "Mult1"}


def test_baseline_infeasible_when_area_too_small():
    fir = builtin_benchmark("fir16")
    result = baseline_nmr_synth(fir, LIB, Bounds(11, 2))
    assert isinstance(result, Infeasible)


def test_baseline_uses_one_version_per_class():
    rng = random.Random(61)
    for _ in range(10):
        n = rng.randint(2, 7)
        nodes = tuple(
            DfgNode(f"n{i}", rng.choice((OpClass.ADD, OpClass.MUL)))
            for i in range(n)
        )
        edges = tuple(
            (f"n{i}", f"n{j}")
            for j in range(1, n)
            for i in range(j)
            if rng.random() < 0.3
        )
        dfg = Dfg(nodes, edges)
        result = baseline_nmr_synth(dfg, LIB, Bounds(10, 16))
        if isinstance(result, Design):
            for cls in OpClass:
                names = {
                    result.assignment[x.id].name
                    for x in dfg.nodes
                    if x.op_class is cls
                }
                assert len(names) <= 1
            validate_design(dfg, LIB, result, latency_bound=10, area_bound=16)


def test_combined_equals_find_design_without_slack():
    fir = builtin_benchmark("fir16")
    ours = find_design(fir, LIB, Bounds(11, 11))
    combined = combined_synth(fir, LIB, Bounds(11, 11))
    assert isinstance(ours, Design) and isinstance(combined, Design)
    assert combined.reliability == pytest.approx(ours.reliability, rel=1e-12)
    assert combined.area == ours.area


def test_combined_never_below_find_design():
    fir = builtin_benchmark("fir16")
    for bounds in (Bounds(11, 12), Bounds(11, 16), Bounds(12, 20), Bounds(18, 8)):
        ours = find_design(fir, LIB, bounds)
        combined = combined_synth(fir, LIB, bounds)
        if isinstance(ours, Infeasible):
            assert combined == ours
        else:
            assert isinstance(combined, Design)
            assert combined.reliability >= ours.reliability - 1e-12
            validate_design(
                fir, LIB, combined,
                latency_bound=bounds.latency_bound,
                area_bound=bounds.area_bound,
            )


def test_combined_propagates_infeasible():
    dfg = parse_dfg("node a add\nnode b add\nnode c add\nedge a b\nedge b c\n")
    result = combined_synth(dfg, LIB, Bounds(2, 100))
    assert isinstance(result, Infeasible)
    assert result.reason == "latency"


def test_combined_beats_baseline_where_versions_dominate():
    # Comparison harness on small instances: wherever version selection
    # alone already matches the redundancy-only baseline, adding
    # redundancy on top can only widen the gap.
    rng = random.Random(73)
    compared = 0
    for _ in range(40):
        n = rng.randint(2, 7)
        nodes = tuple(
            DfgNode(f"n{i}", rng.choice((OpClass.ADD, OpClass.MUL)))
            for i in range(n)
        )
        edges = tuple(
            (f"n{i}", f"n{j}")
            for j in range(1, n)
            for i in range(j)
            if rng.random() < 0.3
        )
        dfg = Dfg(nodes, edges)
        bounds = Bounds(rng.randint(2, 10), rng.choice([4, 6, 8, 12, 16]))
        ours = find_design(dfg, LIB, bounds)
        base = baseline_nmr_synth(dfg, LIB, bounds)
        comb = combined_synth(dfg, LIB, bounds)
        if isinstance(ours, Infeasible) or isinstance(base, Infeasible):
            continue
        assert isinstance(comb, Design)
        assert comb.reliability >= ours.reliability - 1e-12
        if ours.reliability >= base.reliability:
            compared += 1
            assert comb.reliability >= base.reliability - 1e-12
    assert compared > 5


# sha256 of greedy_nmr_upgrade's (nmr factors, area, repr(reliability)) for
# every single-version design of the bundled graphs at their sweep latency
# bounds, under each of GREEDY_AREAS; captured from the upgrade that
# recomputed every instance's gain on each move.
GREEDY_AREAS = (4, 7.5, 10, 13, 16.5, 20, 26, 33, 40, 52, 64)
GREEDY_GOLDEN_SHA256 = "d947743b82f2e74f26d18f533c22fc569d55a0ae8a7745cb1628af6ae7828c04"


def test_greedy_upgrade_golden_digest():
    lines = []
    for name, latencies in (
        ("fir16", range(9, 17)), ("ew", range(14, 22)), ("diffeq", range(4, 12))
    ):
        dfg = builtin_benchmark(name)
        for bound in latencies:
            for design in single_version_designs(dfg, LIB, bound):
                for area in GREEDY_AREAS:
                    up = greedy_nmr_upgrade(design, LIB, area)
                    nmr = tuple(inst.nmr_factor for inst in up.binding.instances)
                    lines.append(repr((nmr, up.area, repr(up.reliability))))
    assert len(lines) == 94 * len(GREEDY_AREAS)
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == GREEDY_GOLDEN_SHA256
