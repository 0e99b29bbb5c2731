import hashlib
import itertools
import math
import random
from collections import Counter
from dataclasses import replace

import pytest

from checks import random_dfg, single_version_reference, validate_design
from relsyn import redundancy
from relsyn.binder import Binding, Instance, bind, total_area, with_nmr
from relsyn.cli import design_to_json
from relsyn.model import (
    Dfg,
    DfgNode,
    OpClass,
    ResourceLibrary,
    ResourceVersion,
    ValidationError,
    _log_vote,
    _reliability_product,
    builtin_benchmark,
    builtin_library,
    evaluate_reliability,
    nmr_reliability,
    parse_dfg,
    parse_library,
)
from relsyn.oracle import oracle_best
from relsyn.redundancy import baseline_nmr_synth, combined_synth, greedy_nmr_upgrade
from relsyn.scheduler import Schedule, asap, density_schedule
from relsyn.synthesizer import Bounds, Design, Infeasible, find_design

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


def test_evaluate_refuses_an_instance_id_outside_the_binding():
    # Ids are positions: -1 would otherwise read the last instance.
    dfg = _all_add_dfg(2)
    asg = {nid: ADDER2 for nid in dfg.node_ids}
    instances = (Instance("Adder2", 3), Instance("Adder2"))
    assert evaluate_reliability(dfg, asg, Binding({"x0": 1, "x1": 0}, instances)) == (
        pytest.approx(ADDER2.reliability * nmr_reliability(ADDER2.reliability, 3), rel=1e-12)
    )
    for iid in (-1, len(instances)):
        with pytest.raises(ValidationError, match=f"^unknown instance id {iid}$"):
            evaluate_reliability(dfg, asg, Binding({"x0": 0, "x1": iid}, instances))


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


def test_nmr_reliability_rejects_bad_reliability():
    for r in (-0.1, 1.5, math.nan):
        with pytest.raises(ValidationError, match=r"reliability must be in \[0, 1\]"):
            nmr_reliability(r, 3)


def test_nmr_reliability_keeps_the_exact_sum_up_to_1029():
    # Every C(n, i) converts to float up to n = 1029: each term is the binomial
    # formula, added left to right, to the last bit, and capped at 1.
    rng = random.Random(3)
    for r, n in [(0.6, 1029), (0.999, 1029)] + [
        (rng.random(), rng.randrange(3, 1030, 2)) for _ in range(40)
    ]:
        total = 0.0
        for i in range((n + 1) // 2, n + 1):
            total += math.comb(n, i) * r**i * (1 - r) ** (n - i)
        assert nmr_reliability(r, n) == min(total, 1.0)
    # Sums that rounding carries to 1.0000000000000002 (table1.lib's Adder3 is 0.987).
    for r, n in [(0.987, 137), (0.987, 195), (0.9644652031358405, 37)]:
        assert nmr_reliability(r, n) <= 1


# The binomial sum over Fractions of each float r, rounded once.
EXACT_LARGE_VOTES = {
    (0.3, 1031): 2.6172114155060016e-41,
    (0.6, 1031): 0.9999999999568145,
    (0.3, 2001): 3.5522109950122524e-78,
    (0.5, 2001): 0.5,
    (0.6, 2001): 1.0,
}


def test_nmr_reliability_past_float_binomials():
    # From n = 1031 some C(n, i) overflow a float; those terms come from logs.
    for (r, n), exact in EXACT_LARGE_VOTES.items():
        value = nmr_reliability(r, n)
        assert value == pytest.approx(exact, rel=1e-12)
        assert 0 <= value <= 1
    for n in (1031, 2001):
        assert (nmr_reliability(0.0, n), nmr_reliability(1.0, n)) == (0.0, 1.0)


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


# Upgrade outcomes (nmr factor per instance, area, repr(reliability)) per
# area bound, captured from the upgrade that built a binding and a design
# for every candidate; the 4.5 rows since the upgrade stops at a gain <= 0.
EDGE_LIB = parse_library(
    "resource Fast add 2 1 0.9\nresource Slow add 1 2 0.95\nresource Tiny add 0.5 1 0.6\n"
)
EDGE_NAMES = ("Fast", "Tiny", "Slow")  # instances 0, 1 and 2
GREEDY_EDGE_CASES = {
    # Instance 1 has no node: its gain is 0, so it is not upgraded even
    # when nothing else fits.
    "empty-instance": ({"a": 0, "c": 0, "b": 2}, [
        (3.5, (1, 1, 1), 3.5, "0.7695"),
        (4, (1, 1, 1), 3.5, "0.7695"),
        (4.5, (1, 1, 1), 3.5, "0.7695"),
        (5.5, (1, 1, 3), 5.5, "0.8041275"),
        (6, (1, 1, 3), 5.5, "0.8041275"),
        (7.5, (3, 1, 1), 7.5, "0.8975448000000001"),
        (8, (3, 1, 1), 7.5, "0.8975448000000001"),
        (9.5, (3, 1, 3), 9.5, "0.9379343160000002"),
        (12, (3, 1, 5), 11.5, "0.9436898220300001"),
    ]),
    # Both used instances hold a node of the other version, and the
    # binding lists the nodes out of declaration order.
    "mixed-versions": ({"c": 2, "b": 0, "a": 0}, [
        (4.5, (1, 1, 1), 3.5, "0.7695"),
        (5.5, (1, 1, 3), 5.5, "0.83106"),
        (7.5, (1, 1, 5), 7.5, "0.8476811999999999"),
        (9.5, (3, 1, 3), 9.5, "0.9379343160000002"),
        (12, (3, 1, 5), 11.5, "0.95669300232"),
        (16, (5, 1, 5), 15.5, "0.9818148908400116"),
    ]),
}


def _outcome(design):
    nmr = tuple(inst.nmr_factor for inst in design.binding.instances)
    return nmr, design.area, repr(design.reliability)


def _edge_design(node_to_instance, nmr=(1, 1, 1)):
    dfg = parse_dfg("node a add\nnode b add\nnode c add\nedge a b\n")
    fast, slow = EDGE_LIB.by_name("Fast"), EDGE_LIB.by_name("Slow")
    asg = {"a": fast, "b": slow, "c": fast}
    instances = tuple(Instance(name, n) for name, n in zip(EDGE_NAMES, nmr))
    binding = Binding(node_to_instance, instances)
    return Design(
        asg, Schedule({"a": 1, "b": 2, "c": 2}, 3), binding, 3,
        total_area(binding, EDGE_LIB), evaluate_reliability(dfg, asg, binding),
    )


@pytest.mark.parametrize("case", list(GREEDY_EDGE_CASES))
def test_greedy_upgrade_hand_built_binding(case):
    node_to_instance, expected = GREEDY_EDGE_CASES[case]
    design = _edge_design(node_to_instance)
    for area_bound, *outcome in expected:
        upgraded = greedy_nmr_upgrade(design, EDGE_LIB, area_bound)
        assert _outcome(upgraded) == tuple(outcome), area_bound
        assert upgraded.binding.node_to_instance == node_to_instance


WEAK_LIB = parse_library(
    "resource Weak add 1 1 0.4\nresource Weaker add 2 1 0.3\nresource Mul mul 1 1 0.45\n"
)
WEAK_DFG = parse_dfg("node a add\nnode b add\nnode m mul\nedge a b\nedge b m\n")


def test_baseline_upgrades_below_one_half_lower_reliability():
    # With r < 0.5 a vote is worse than one copy, so every upgrade loses
    # reliability and the greedy spends none of the area.
    expected = [
        (3, (1, 1), 2.0, "0.07200000000000002"),
        (5, (1, 1), 2.0, "0.07200000000000002"),
        (7, (1, 1), 2.0, "0.07200000000000002"),
        (9, (1, 1), 2.0, "0.07200000000000002"),
        (13, (1, 1), 2.0, "0.07200000000000002"),
    ]
    for area_bound, *outcome in expected:
        result = baseline_nmr_synth(WEAK_DFG, WEAK_LIB, Bounds(3, area_bound))
        assert _outcome(result) == tuple(outcome), area_bound
        assert [v.name for v in result.assignment.values()] == ["Weak", "Weak", "Mul"]


def test_greedy_upgrade_past_float_binomials():
    # One 0.6 adder of area 1 gains from every upgrade the bound allows, up to
    # N = 1099, past N = 1031 where C(N, i) no longer converts to float.
    dfg = parse_dfg("node a add\n")
    lib = parse_library("resource A add 1 1 0.6\n")
    for flow in (baseline_nmr_synth, combined_synth):
        design = flow(dfg, lib, Bounds(1, 1100))
        validate_design(dfg, lib, design, latency_bound=1, area_bound=1100)
        assert [inst.nmr_factor for inst in design.binding.instances] == [1099]
        assert design.reliability == nmr_reliability(0.6, 1099) < 1


def test_baseline_reliability_never_falls_as_area_grows():
    # A vote of r = 1 copies gains nothing and one of r < 0.5 copies
    # loses; neither may be bought with area, whichever of them fits.
    lib = parse_library(
        "resource Weak add 1 1 0.4\nresource Sure add 2 1 1.0\nresource Mul mul 1 1 0.45\n"
    )
    dfg = parse_dfg("node a add\nnode b add\nnode m mul\nedge a b\nedge b m\n")
    previous = 0.0
    for area_bound in [a / 2 for a in range(4, 41)]:
        result = baseline_nmr_synth(dfg, lib, Bounds(3, area_bound))
        assert result.area <= area_bound
        assert result.reliability >= previous, area_bound
        previous = result.reliability


def test_baseline_ties_break_by_area_then_latency_then_order():
    # Every version has r = 0.9.  D ties with the rest on upgraded
    # reliability but is larger; B is slower; C comes before A.
    lib = parse_library(
        "resource D add 1.5 1 0.9\nresource B add 1 2 0.9\n"
        "resource C add 1 1 0.9\nresource A add 1 1 0.9\n"
    )
    dfg = parse_dfg("node a add\n")
    expected = [
        (1.5, (1,), 1.0, "0.9"),
        (3, (3,), 3.0, "0.9720000000000001"),
        (4.5, (3,), 3.0, "0.9720000000000001"),
    ]
    for area_bound, *outcome in expected:
        result = baseline_nmr_synth(dfg, lib, Bounds(2, area_bound))
        assert _outcome(result) == tuple(outcome), area_bound
        assert result.assignment["a"].name == "C" and result.latency == 1


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


def test_baseline_refuses_a_library_without_a_used_class():
    # The check runs where the memo's single-version choices are first built.
    dfg = parse_dfg("node a add\nnode m mul\n")
    lib = parse_library("resource only add 3 1 0.5\n")
    memo = {}
    for shared in (None, memo, memo):  # a refusal leaves nothing in the memo to skip it
        with pytest.raises(ValidationError, match="no version for class mul"):
            baseline_nmr_synth(dfg, lib, Bounds(4, 10), memo=shared)
    assert memo == {}


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
# recomputed every instance's gain on each move, and re-captured when the
# upgrade began stopping at a gain <= 0 (one outcome lost an upgrade that
# bought nothing: its vote's reliability no longer changed in floats).
GREEDY_AREAS = (4, 7.5, 10, 13, 16.5, 20, 26, 33, 40, 52, 64)
GREEDY_GOLDEN_SHA256 = "6757eec65cf3367bf85061722c973a9cb5e633238a4811b893b6dd8e369b9bc1"


def test_greedy_upgrade_golden_digest():
    lines = []
    for name, latencies in (
        ("fir16", range(9, 17)), ("ew", range(14, 22)), ("diffeq", range(4, 12))
    ):
        dfg = builtin_benchmark(name)
        for bound in latencies:
            for design in single_version_reference(dfg, LIB, bound):
                for area in GREEDY_AREAS:
                    up = greedy_nmr_upgrade(design, LIB, area)
                    nmr = tuple(inst.nmr_factor for inst in up.binding.instances)
                    lines.append(repr((nmr, up.area, repr(up.reliability))))
    assert len(lines) == 94 * len(GREEDY_AREAS)
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == GREEDY_GOLDEN_SHA256


BUNDLED_LATENCIES = (("fir16", range(9, 17)), ("ew", range(14, 22)), ("diffeq", range(4, 12)))


def _priced_designs():
    """(design, library): every single-version design and every other
    find_design result of the bundled graphs over their sweep latency
    ranges (areas 2-40), then the hand-built ones, also with instances at
    N 3 and 5 already, and the r < 0.5 designs."""
    designs = []
    for name, latencies in BUNDLED_LATENCIES:
        dfg, memo = builtin_benchmark(name), {}
        for bound in latencies:
            designs += [(d, LIB) for d in single_version_reference(dfg, LIB, bound)]
            for area in range(2, 41):
                result = find_design(dfg, LIB, Bounds(bound, area), memo=memo)
                # Equal, not the same object: the reference builds designs of its own.
                if isinstance(result, Design) and not any(result == d for d, _ in designs):
                    designs.append((result, LIB))
    for nmr in [(1, 1, 1), (3, 1, 5)]:
        designs += [(_edge_design(n2i, nmr), EDGE_LIB) for n2i, _ in GREEDY_EDGE_CASES.values()]
    return designs + [(d, WEAK_LIB) for d in single_version_reference(WEAK_DFG, WEAK_LIB, 3)]


def _greedy(pricing, area_bound):
    """A greedy run of its own at `area_bound`: no kept run to hit."""
    pricing.runs.clear()
    return pricing.price(area_bound)


def _scan_greedy(design, library, area_bound):
    """The greedy upgrade as a plain scan over every instance at each step,
    from the design alone: (nmr factor per instance id, area, reliability).
    An instance's gain per area adds its nodes' log steps one by one."""
    binding, assignment = design.binding, design.assignment
    nmr = [inst.nmr_factor for inst in binding.instances]
    extra = [2 * library.by_name(inst.version).area for inst in binding.instances]

    def gain(iid):
        total = 0.0
        for nid in [n for n, i in binding.node_to_instance.items() if i == iid]:
            r, n = assignment[nid].reliability, nmr[iid]
            up = _log_vote(r, n + 2)
            total += up - _log_vote(r, n) if up > -math.inf else -math.inf
        return total / extra[iid]

    ratio, area = {iid: gain(iid) for iid in range(len(nmr))}, design.area
    while True:
        best, top = None, 0.0
        for iid in list(ratio):
            if area + extra[iid] > area_bound:
                del ratio[iid]  # the area only grows
            elif ratio[iid] > top:
                best, top = iid, ratio[iid]
        if best is None:
            return nmr, area, _reliability_product(
                (assignment[nid].reliability, nmr[iid])
                for nid, iid in binding.node_to_instance.items()
            )
        nmr[best] += 2
        area += extra[best]
        ratio[best] = gain(best)


def test_priced_upgrade_equals_a_fresh_greedy():
    # A design keeps each greedy run with the interval of area bounds on
    # which every fit test answers the same.  Whatever order the bounds
    # come in, a kept run must be what a greedy run of its own gets at that
    # bound, and what the plain scan gets, also at the ends of each kept
    # interval.  Bounds inside one run share its design, built as with_nmr
    # builds it, and an instance whose factor the greedy did not change, or
    # met before at the same N, is the same object.
    rng = random.Random(29)
    bounds = [2 + k / 2 for k in range(237)]
    assert bounds[-1] == 120
    runs = shared = 0
    for design, library in _priced_designs():
        pricing = redundancy._Pricing(design, library)
        fresh = {a: _greedy(pricing, a) for a in bounds}
        for area_bound in bounds:
            assert tuple(fresh[area_bound][:3]) == _scan_greedy(design, library, area_bound)
        kept = []
        for order in (bounds, bounds[::-1], rng.sample(bounds, len(bounds))):
            priced = replace(design)
            for area_bound in order:
                assert redundancy._pricing(priced, library).price(area_bound) == fresh[area_bound]
            kept.append(priced._nmr_pricing[library])
        # Each bound has one run, so every order keeps the same runs.
        assert all(sorted(p.runs, key=lambda run: run[0]) == kept[0].runs for p in kept)
        instances = {(k, inst.nmr_factor): inst for k, inst in enumerate(design.binding.instances)}
        for lo, hi, outcome in kept[-1].runs:
            ends = [lo, math.inf if hi is None else math.nextafter(hi, -math.inf)]
            upgraded = set()
            for area_bound in [a for a in ends if a > 0]:
                assert _greedy(pricing, area_bound)[:3] == outcome[:3]
                nmr, area, reliability = _scan_greedy(design, library, area_bound)
                assert outcome[:3] == [nmr, area, reliability]
                up = greedy_nmr_upgrade(priced, library, area_bound)
                upgraded.add(id(up))
                binding = with_nmr(design.binding, dict(enumerate(nmr)))
                built = Design(
                    design.assignment, design.schedule, binding, design.latency, area, reliability
                )
                assert design_to_json(up) == design_to_json(built)
                for k, inst in enumerate(up.binding.instances):
                    key = k, inst.nmr_factor
                    shared += key in instances
                    assert instances.setdefault(key, inst) is inst
            assert len(upgraded) == 1
        runs += len(kept[0].runs)
        unbounded = redundancy._pricing(priced, library).price(math.inf)
        assert unbounded[:3] == _greedy(pricing, math.inf)[:3]
        count = len(kept[-1].runs)
        assert redundancy._pricing(priced, library).price(math.inf) is unbounded
        assert len(kept[-1].runs) == count
    assert runs > 1000 and shared > runs


def test_log_steps_never_grow_with_n():
    # The ceiling's premise: for r > 1/2 no upgrade gains more log
    # reliability than the one before, also past N = 1031, where the vote is
    # summed from logs (steps up to N = 1101).  Once the vote is within a few
    # ulps of 1, its log moves by ulps either way (at most 1.6e-15 here),
    # which the baseline's 1e-9 margin covers.
    rs = {v.reliability for v in LIB.versions} | {0.5000001, 0.51, 0.6, 0.75, 0.9, 0.999999}
    for r in sorted(rs):
        steps = [redundancy._log_step(r, n) for n in range(1, 1100, 2)]
        assert steps[0] > 0, r
        for earlier, later in zip(steps, steps[1:]):
            assert later <= earlier or max(abs(earlier), abs(later)) < 1e-14, (r, earlier, later)


def test_ceiling_bounds_every_priced_upgrade():
    # The ceiling and the priced reliability add the same kind of logs in
    # different orders, so a priced value may pass its ceiling by an ulp or
    # two (24 of 57,200 checks, each by 1 ulp); baseline_nmr_synth therefore
    # stops only at a ceiling below best x (1 - 1e-9).  Area bounds run from
    # the design's area to 99.75 past it.
    checks = over = 0
    for design, library in _priced_designs():
        pricing = redundancy._pricing(design, library)
        for k in range(400):
            area_bound = design.area + k / 4
            reliability = redundancy._pricing(design, library).price(area_bound)[2]
            ceiling = pricing.ceiling(area_bound)
            assert reliability <= ceiling * (1 + 1e-13), (area_bound, reliability, ceiling)
            checks, over = checks + 1, over + (reliability > ceiling)
    assert checks > 50_000 and over < checks / 1000


def _unpruned_baseline(dfg, library, bounds):
    """The NMR baseline as a maximum over every priced candidate that fits."""
    designs = single_version_reference(dfg, library, bounds.latency_bound)
    a_d = bounds.area_bound
    best = max(
        ((d, redundancy._pricing(d, library).price(a_d)) for d in designs if d.area <= a_d),
        key=lambda p: (p[1][2], -p[1][1], -p[0].latency),
        default=None,
    )
    if best is None:
        return None
    d, (nmr, area, reliability, _) = best
    binding = with_nmr(d.binding, dict(enumerate(nmr)))
    return Design(d.assignment, d.schedule, binding, d.latency, area, reliability)


def _design_text(result):
    return repr(result) if isinstance(result, Infeasible) else repr(design_to_json(result))


def test_ranked_scan_equals_the_unpruned_maximum_on_the_bundled_grids(monkeypatch):
    priced = Counter()
    price = redundancy._Pricing.price

    def counting_price(self, area_bound):
        priced["calls"] += 1
        return price(self, area_bound)

    points = 0
    for name, latencies, areas in (
        ("fir16", range(9, 17), range(8, 41, 4)),
        ("ew", range(14, 22), range(6, 41, 2)),
        ("diffeq", range(4, 12), range(4, 37, 4)),
    ):
        dfg, memo = builtin_benchmark(name), {}
        for l_d in latencies:
            for a_d in areas:
                monkeypatch.setattr(redundancy._Pricing, "price", counting_price)
                ranked = baseline_nmr_synth(dfg, LIB, Bounds(l_d, a_d), memo=memo)
                monkeypatch.undo()
                expected = _unpruned_baseline(dfg, LIB, Bounds(l_d, a_d))
                if expected is None:
                    assert isinstance(ranked, Infeasible), (name, l_d, a_d)
                else:
                    assert _design_text(ranked) == _design_text(expected), (name, l_d, a_d)
                    points += 1
    assert points == 261
    assert priced["calls"] < 500  # the ranked scan skips most candidates


def test_ranked_scan_keeps_the_first_of_tied_candidates():
    # B and A are one adder under two names: their ceilings tie, and so do
    # their upgrades, so B, first in library order, must win at every area
    # bound, as in the unpruned maximum.  Slow is worse in every respect.
    lib = parse_library(
        "resource Slow add 1 2 0.9\nresource B add 1 1 0.95\nresource A add 1 1 0.95\n"
    )
    dfg = parse_dfg("node a add\nnode b add\nedge a b\n")
    for area_bound in (1, 2.5, 3, 5, 7.5, 11):
        bounds = Bounds(4, area_bound)
        result = baseline_nmr_synth(dfg, lib, bounds)
        assert _design_text(result) == _design_text(_unpruned_baseline(dfg, lib, bounds))
        assert [v.name for v in result.assignment.values()] == ["B", "B"], area_bound


def test_stated_area_is_the_bindings_own_on_fractional_areas():
    # Areas of one decimal do not add exactly, so a flow that states its
    # area as a running sum in another order than total_area's can state
    # less than its binding gives, and exceed the bound when recomputed.
    # Seeded 3-8 node graphs with two versions per class.
    rng = random.Random(31)
    checked = Counter()
    for _ in range(300):
        dfg = random_dfg(rng, min_nodes=3, max_nodes=8)
        lib = ResourceLibrary(tuple(
            ResourceVersion(
                f"{cls.value}{i}", cls, rng.randint(1, 30) / 10, rng.randint(1, 3),
                rng.uniform(0.9, 0.999),
            )
            for cls in OpClass
            for i in range(2)
        ))
        bounds, memo = Bounds(rng.randint(3, 9), rng.randint(10, 200) / 10), {}
        designs = {
            "nmr": baseline_nmr_synth(dfg, lib, bounds, memo=memo),
            "combined": combined_synth(dfg, lib, bounds, memo=memo),
            "oracle": oracle_best(dfg, lib, bounds),
        }
        found = find_design(dfg, lib, bounds, memo=memo)
        if not isinstance(found, Infeasible):
            designs["greedy"] = greedy_nmr_upgrade(found, lib, bounds.area_bound)
        for flow, d in designs.items():
            if not isinstance(d, Infeasible):
                assert d.area == total_area(d.binding, lib) <= bounds.area_bound, flow
                validate_design(dfg, lib, d, bounds.latency_bound, bounds.area_bound)
                checked[flow] += 1
    assert min(checked.values()) > 150, checked
    # One multiplier of area 0.4: 0.4 × 7 is 2.8000000000000003, above 2.8.
    lib = parse_library("resource A1 add 1.0 1 0.99\nresource M1 mul 0.4 1 0.98\n")
    d = baseline_nmr_synth(parse_dfg("node n0 mul\n"), lib, Bounds(1, 2.8))
    assert [inst.nmr_factor for inst in d.binding.instances] == [5]
    assert d.area == 2
    # Whole areas round too from 2**53 on: 1 × 3 + 2**53 is 2**53 + 4.
    lib = parse_library("resource A add 1 1 0.9\nresource M mul 9007199254740992 1 0.9\n")
    dfg = parse_dfg("node a add\nnode m mul\n")
    for area_bound in [2.0**53 + 2 * k for k in range(40)]:
        d = combined_synth(dfg, lib, Bounds(1, area_bound))
        assert d.area == total_area(d.binding, lib) <= area_bound
    # The oracle prunes on Σ area × peak in library order, 6.3999999999999995
    # for its first fitting start vector here, whose binding sums to 6.4: it
    # must search on, and finds a vector of the same versions on 4 instances.
    dfg = parse_dfg(
        "node n0 mul\nnode n1 mul\nnode n2 add\nnode n3 mul\nnode n4 add\nnode n5 add\n"
        "edge n3 n4\nedge n1 n5\nedge n2 n5\nedge n3 n5\nedge n4 n5\n"
    )
    lib = parse_library(
        "resource a0 add 0.6 1 0.95\nresource a1 add 1.4 3 0.98\n"
        "resource m0 mul 0.1 1 0.91\nresource m1 mul 1.2 1 0.97\n"
    )
    d = oracle_best(dfg, lib, Bounds(8, 6.3999999999999995))
    assert d.area == total_area(d.binding, lib) == 5.199999999999999
