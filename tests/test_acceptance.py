"""Acceptance suite: every criterion prints one pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import itertools
import math
import random
from collections import Counter

import pytest

from checks import FANIN_CHAIN, random_dfg, validate_design
from relsyn import cli
from relsyn.charlib import CharInput, CharModel, calibrate_qs, characterize
from relsyn.model import (
    Dfg,
    DfgNode,
    OpClass,
    builtin_benchmark,
    builtin_library,
    data_text,
    evaluate_reliability,
    nmr_reliability,
    parse_library,
)
from relsyn.oracle import oracle_best
from relsyn.redundancy import baseline_nmr_synth
from relsyn.scheduler import asap
from relsyn.synthesizer import Bounds, Design, Infeasible, find_design, initial_allocation

LIB = builtin_library()


def report(criterion: str, ok: bool, detail: str = "") -> None:
    line = f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)


# -- A1: characterization reproduction ------------------------------------


def test_a1_characterization():
    q_s = calibrate_qs((59.460e-21, 0.999), (29.701e-21, 0.969), 1.0)
    inputs = [
        CharInput("ripple", 59.460e-21),
        CharInput("brentkung", 29.701e-21),
        CharInput("koggestone", 37.291e-21),
    ]
    records = characterize(inputs, CharModel(q_s, "ripple", 0.999))
    kogge = next(r for r in records if r.name == "koggestone")
    ok_qs = abs(q_s - 8.63e-21) / 8.63e-21 <= 0.01
    ok_kogge = abs(kogge.reliability - 0.987) <= 0.001
    report(
        "A1 characterization",
        ok_qs and ok_kogge,
        f"q_s={q_s:.4e}, koggestone={kogge.reliability:.5f}",
    )
    assert ok_qs and ok_kogge


# -- A2: reliability-arithmetic identities ---------------------------------

A2_CASES = [
    (0, 6, 0.82783),
    (3, 3, 0.90713),
    (0, 23, 0.48467),
    (16, 7, 0.78943),
    (15, 8, 0.76572),
    (7, 16, 0.59998),
    (5, 6, 0.82370),
    (8, 3, 0.90260),
]


def test_a2_reliability_identities():
    high = LIB.by_name("Adder1")   # reliability 0.999
    low = LIB.by_name("Adder2")    # reliability 0.969
    failures = []
    for n_high, n_low, expected in A2_CASES:
        n = n_high + n_low
        dfg = Dfg(tuple(DfgNode(f"x{i}", OpClass.ADD) for i in range(n)), ())
        asg = {
            f"x{i}": (high if i < n_high else low) for i in range(n)
        }
        got = evaluate_reliability(dfg, asg)
        if abs(got - expected) > 2e-4:
            failures.append((n_high, n_low, expected, got))
    report(
        "A2 reliability identities",
        not failures,
        f"{len(A2_CASES) - len(failures)}/{len(A2_CASES)} within 2e-4",
    )
    assert not failures, failures


# -- A3: NMR math ----------------------------------------------------------


def test_a3_nmr_math():
    ok = abs(nmr_reliability(0.969, 3) - 0.997177) <= 1e-6
    for r in (0.3, 0.5, 0.7, 0.969):
        ok = ok and nmr_reliability(r, 1) == r
    for n in (1, 3, 5, 7):
        ok = ok and nmr_reliability(0.5, n) == pytest.approx(0.5, abs=1e-12)
    grid = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.969, 0.999]
    for r in grid:
        for n in (3, 5, 7):
            v = nmr_reliability(r, n)
            if r > 0.5:
                ok = ok and v > r
            elif r < 0.5:
                ok = ok and v < r
        if r != 0.5:
            seq = [nmr_reliability(r, n) for n in (3, 5, 7)]
            ordered = seq == sorted(seq) if r > 0.5 else seq == sorted(seq, reverse=True)
            ok = ok and ordered and len(set(seq)) == 3
    report("A3 NMR math", ok, f"nmr(0.969,3)={nmr_reliability(0.969, 3):.7f}")
    assert ok


# -- A4: benchmark feasibility ----------------------------------------------


def test_a4_fir16_feasibility():
    fir = builtin_benchmark("fir16")
    result = find_design(fir, LIB, Bounds(11, 12))
    feasible = isinstance(result, Design)
    if feasible:
        validate_design(fir, LIB, result, latency_bound=11, area_bound=12)
    reliability = result.reliability if feasible else float("nan")
    ok_value = feasible and reliability >= 0.78943 - 1e-4

    slow = parse_library(
        "resource Adder1 add 1 2 0.999\nresource Mult1 mul 2 2 0.999\n"
    )
    min_latency = asap(fir, initial_allocation(fir, slow)).latency
    repair = find_design(fir, slow, Bounds(11, 100))
    ok_slow = min_latency == 18 and isinstance(repair, Infeasible) and repair.reason == "latency"

    report(
        "A4 benchmark feasibility",
        ok_value and ok_slow,
        f"reliability={reliability:.5f}, slow-version min latency={min_latency}",
    )
    assert ok_value and ok_slow


# -- A5: oracle equivalence --------------------------------------------------


def _fastest_assignment(dfg: Dfg):
    return {
        x.id: min(LIB.versions_for(x.op_class), key=lambda v: (v.delay, v.area))
        for x in dfg.nodes
    }


def _a5_instances(count: int = 60):
    rng = random.Random(97)
    for _ in range(count):
        dfg = random_dfg(rng)
        l_init = asap(dfg, initial_allocation(dfg, LIB)).latency
        l_fast = asap(dfg, _fastest_assignment(dfg)).latency
        l_d = rng.randint(max(1, l_fast - 1), min(12, l_init + 2))
        a_d = rng.choice([2, 3, 4, 5, 6, 7, 8, 10, 12, 14, 16])
        yield dfg, Bounds(l_d, a_d)


def test_a5_oracle_equivalence():
    mismatches = []
    gap_violations = []
    checked = 0
    for dfg, bounds in _a5_instances():
        checked += 1
        heuristic = find_design(dfg, LIB, bounds)
        exact = oracle_best(dfg, LIB, bounds)
        h_ok = isinstance(heuristic, Design)
        o_ok = isinstance(exact, Design)
        if h_ok:
            validate_design(
                dfg, LIB, heuristic,
                latency_bound=bounds.latency_bound, area_bound=bounds.area_bound,
            )
        if o_ok:
            validate_design(
                dfg, LIB, exact,
                latency_bound=bounds.latency_bound, area_bound=bounds.area_bound,
            )
        if h_ok != o_ok:
            mismatches.append(
                f"{len(dfg.nodes)} nodes, bounds=({bounds.latency_bound},"
                f"{bounds.area_bound:g}): heuristic="
                f"{'feasible' if h_ok else heuristic.reason}, oracle="
                f"{'feasible' if o_ok else exact.reason}"
            )
        elif h_ok and o_ok and heuristic.reliability > exact.reliability + 1e-12:
            gap_violations.append((heuristic.reliability, exact.reliability))
    ok = not mismatches and not gap_violations
    report(
        "A5 oracle equivalence",
        ok,
        f"{checked} instances, {len(mismatches)} feasibility mismatches, "
        f"{len(gap_violations)} reliability violations",
    )
    for line in mismatches:
        print(f"[acceptance]   A5 mismatch: {line}")
    assert not gap_violations, gap_violations
    assert not mismatches, "heuristic/oracle feasibility diverged:\n" + "\n".join(
        mismatches
    )


# -- A6: tradeoff trends ------------------------------------------------------


def test_a6_tradeoff_trends(tmp_path):
    l_grid = list(range(4, 9))
    a_grid = [2, 4, 6, 8, 10]
    table: dict[tuple[int, float], float | None] = {}
    for l_d, a_d in itertools.product(l_grid, a_grid):
        result = oracle_best(FANIN_CHAIN, LIB, Bounds(l_d, a_d))
        table[(l_d, a_d)] = result.reliability if isinstance(result, Design) else None

    def as_value(x):
        return -math.inf if x is None else x

    monotone = True
    for a_d in a_grid:
        series = [as_value(table[(l_d, a_d)]) for l_d in l_grid]
        monotone = monotone and all(x <= y + 1e-12 for x, y in zip(series, series[1:]))
    for l_d in l_grid:
        series = [as_value(table[(l_d, a_d)]) for a_d in a_grid]
        monotone = monotone and all(x <= y + 1e-12 for x, y in zip(series, series[1:]))

    # Heuristic curves are emitted, not asserted.
    dfg_path = tmp_path / "fanin.dfg"
    lib_path = tmp_path / "table1.lib"
    out_path = tmp_path / "sweep.csv"
    dfg_path.write_text(
        "node A add\nnode B add\nnode C add\nnode D add\nnode E add\nnode F add\n"
        "edge A C\nedge B C\nedge C D\nedge D E\nedge E F\n"
    )
    lib_path.write_text(data_text("table1.lib"))
    code = cli.main(
        [
            "sweep",
            "--dfg", str(dfg_path),
            "--lib", str(lib_path),
            "--latency", "4:8",
            "--area", "2:10",
            "--step-a", "2",
            "--methods", "ours,nmr,combined",
            "--out", str(out_path),
        ]
    )
    rows = out_path.read_text().strip().splitlines()
    report(
        "A6 tradeoff trends",
        monotone and code == 0,
        f"oracle monotone on {len(l_grid)}x{len(a_grid)} grid; "
        f"heuristic CSV rows={len(rows) - 1} (reported, not asserted)",
    )
    assert code == 0
    assert monotone


# -- A7: baseline decomposition ----------------------------------------------


def test_a7_baseline_single_version_products():
    fir = builtin_benchmark("fir16")
    targets = (0.48467, 0.61856, 0.76572)
    hits = []
    for bounds in (Bounds(11, 9), Bounds(10, 13)):
        result = baseline_nmr_synth(fir, LIB, bounds)
        if isinstance(result, Design):
            matched = [t for t in targets if abs(result.reliability - t) <= 2e-4]
            if matched:
                hits.append(
                    f"({bounds.latency_bound},{bounds.area_bound:g})->{matched[0]:.5f}"
                )
    report("A7 baseline decomposition", bool(hits), "; ".join(hits) or "no match")
    assert hits


# -- A8: determinism -----------------------------------------------------------


def _capture(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


def test_a8_determinism(tmp_path, capsys):
    dfg_path = tmp_path / "fir16.dfg"
    lib_path = tmp_path / "table1.lib"
    qcrit_path = tmp_path / "qcrit.txt"
    assign_path = tmp_path / "fir.assign"
    dfg_path.write_text(data_text("fir16.dfg"))
    lib_path.write_text(data_text("table1.lib"))
    qcrit_path.write_text(
        "qcrit ripple 59.460e-21\nqcrit brentkung 29.701e-21\nqcrit koggestone 37.291e-21\n"
    )
    lines = [f"assign s{i} Adder2" for i in range(1, 8)]
    lines += [f"assign a{i} Adder1" for i in range(8)]
    lines += [f"assign m{i} Mult1" for i in range(8)]
    assign_path.write_text("\n".join(lines) + "\n")

    commands = [
        ["synth", "--dfg", str(dfg_path), "--lib", str(lib_path),
         "--latency", "11", "--area", "12"],
        ["synth", "--dfg", str(dfg_path), "--lib", str(lib_path),
         "--latency", "11", "--area", "12", "--format", "json"],
        ["synth", "--dfg", str(dfg_path), "--lib", str(lib_path),
         "--latency", "5", "--area", "12"],
        ["characterize", "--qcrit", str(qcrit_path), "--ref", "ripple=0.999",
         "--calibrate", "brentkung=0.969", "--format", "json"],
        ["eval", "--dfg", str(dfg_path), "--lib", str(lib_path),
         "--assign", str(assign_path)],
    ]
    ok = True
    for argv in commands:
        code1, out1 = _capture(capsys, argv)
        code2, out2 = _capture(capsys, argv)
        ok = ok and code1 == code2 and out1 == out2

    # Sweep twice to files; compare bytes.
    sweep_a = tmp_path / "a.csv"
    sweep_b = tmp_path / "b.csv"
    base = ["sweep", "--dfg", str(dfg_path), "--lib", str(lib_path),
            "--latency", "10:12", "--area", "9:13", "--step-a", "2",
            "--methods", "ours,nmr,combined"]
    assert cli.main(base + ["--out", str(sweep_a)]) == 0
    assert cli.main(base + ["--out", str(sweep_b)]) == 0
    ok = ok and sweep_a.read_bytes() == sweep_b.read_bytes()

    report("A8 determinism", ok, "all subcommands byte-identical across reruns")
    assert ok
