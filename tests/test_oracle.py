import hashlib
import itertools
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import relsyn
from checks import FANIN_CHAIN, random_dfg, validate_design
from relsyn.model import (
    Dfg,
    DfgNode,
    OpClass,
    ResourceLibrary,
    ResourceVersion,
    builtin_benchmark,
    builtin_library,
    parse_dfg,
    parse_library,
)
from relsyn import oracle
from relsyn.oracle import (
    OracleLimitError,
    _critical_paths,
    oracle_best,
    oracle_min_latency,
)
from relsyn.scheduler import asap
from relsyn.synthesizer import Bounds, Design, Infeasible, find_design, initial_allocation

LIB = builtin_library()


def test_oracle_best_fanin_chain():
    result = oracle_best(FANIN_CHAIN, LIB, Bounds(5, 4))
    assert isinstance(result, Design)
    validate_design(FANIN_CHAIN, LIB, result, latency_bound=5, area_bound=4)
    assert result.reliability >= 0.82783 - 1e-9


def test_oracle_best_single_node_picks_most_reliable_fit():
    dfg = parse_dfg("node a add\n")
    result = oracle_best(dfg, LIB, Bounds(2, 10))
    assert isinstance(result, Design)
    assert result.assignment["a"].name == "Adder1"
    # Tighter latency excludes the two-cycle adder.
    result = oracle_best(dfg, LIB, Bounds(1, 10))
    assert isinstance(result, Design)
    assert result.assignment["a"].name == "Adder3"


def test_oracle_best_infeasible_latency():
    lib = parse_library("resource slow add 1 2 0.9\n")
    dfg = parse_dfg("node a add\n")
    result = oracle_best(dfg, lib, Bounds(1, 100))
    assert isinstance(result, Infeasible)
    assert result.reason == "latency"


def test_oracle_best_infeasible_area():
    dfg = parse_dfg("node a add\n")
    result = oracle_best(dfg, LIB, Bounds(4, 0.5))
    assert isinstance(result, Infeasible)
    assert result.reason == "area"


def test_oracle_limits_enforced():
    big = parse_dfg("\n".join(f"node x{i} add" for i in range(9)))
    with pytest.raises(OracleLimitError, match="nodes"):
        oracle_best(big, LIB, Bounds(4, 10))
    small = parse_dfg("node a add\n")
    with pytest.raises(OracleLimitError, match="latency bound"):
        oracle_best(small, LIB, Bounds(13, 10))
    many = parse_library(
        "\n".join(f"resource v{i} add {i + 1} 1 0.9" for i in range(4))
    )
    with pytest.raises(OracleLimitError, match="versions"):
        oracle_best(small, many, Bounds(4, 10))


def test_oracle_min_latency_chain_of_delay_two():
    dfg = parse_dfg("node a add\nnode b add\nnode c add\nedge a b\nedge b c\n")
    asg = {nid: LIB.by_name("Adder1") for nid in dfg.node_ids}
    assert oracle_min_latency(dfg, asg) == 6


def test_oracle_min_latency_single_node():
    dfg = parse_dfg("node a mul\n")
    asg = {"a": LIB.by_name("Mult1")}
    assert oracle_min_latency(dfg, asg) == 2


def test_oracle_min_latency_fir16_with_slow_versions():
    fir = builtin_benchmark("fir16")
    asg = initial_allocation(fir, LIB)  # Adder1/Mult1 everywhere
    assert oracle_min_latency(fir, asg, max_nodes=34) == 18


def test_oracle_min_latency_limit():
    fir = builtin_benchmark("fir16")
    asg = initial_allocation(fir, LIB)
    with pytest.raises(OracleLimitError):
        oracle_min_latency(fir, asg)


def test_oracle_min_latency_cross_checks_asap():
    rng = random.Random(67)
    for _ in range(40):
        dfg = random_dfg(rng)
        asg = {x.id: rng.choice(LIB.versions_for(x.op_class)) for x in dfg.nodes}
        assert oracle_min_latency(dfg, asg) == asap(dfg, asg).latency


def test_critical_paths_match_path_enumeration():
    # The memo's value for a delay vector (declaration order) is the critical
    # path that path enumeration finds for it, asked once or again.
    rng = random.Random(89)
    for _ in range(30):
        dfg = _oracle_dag(rng)
        menus = [sorted(rng.sample(range(1, 5), rng.randint(1, 3))) for _ in dfg.nodes]
        span = _critical_paths(dfg)
        vectors = list(itertools.product(*menus))
        for delays in vectors + rng.sample(vectors, min(len(vectors), 5)):
            asg = {
                n.id: ResourceVersion(f"{n.op_class.value}{d}", n.op_class, 1, d, 0.9)
                for n, d in zip(dfg.nodes, delays)
            }
            assert span(delays) == oracle_min_latency(dfg, asg)


def test_oracle_best_deterministic():
    rng = random.Random(71)
    for _ in range(5):
        dfg = random_dfg(rng)
        bounds = Bounds(rng.randint(2, 10), rng.choice([4, 8, 12]))
        assert oracle_best(dfg, LIB, bounds) == oracle_best(dfg, LIB, bounds)


# -- golden digest ----------------------------------------------------------


def _oracle_dag(rng: random.Random, max_nodes: int = 8) -> Dfg:
    """2 to `max_nodes` nodes with edges from `ni` to `nj` only for i < j;
    about half the graphs declare their nodes shuffled, out of topological
    order."""
    n = rng.randint(2, max_nodes)
    classes = [rng.choice((OpClass.ADD, OpClass.MUL)) for _ in range(n)]
    edges = [
        (f"n{i}", f"n{j}") for j in range(1, n) for i in range(j) if rng.random() < 0.35
    ]
    order = list(range(n))
    if rng.random() < 0.5:
        rng.shuffle(order)
    return Dfg(tuple(DfgNode(f"n{i}", classes[i]) for i in order), tuple(edges))


def _oracle_library(rng: random.Random) -> ResourceLibrary:
    """Three adder and three multiplier versions; two adders tie on
    reliability and one multiplier has reliability 1.0.  Areas are multiples
    of 0.5, so every area sum is exact whatever order it is taken in."""
    tie, other = rng.sample((0.95, 0.97, 0.98, 0.99, 0.995), 2)
    rels = {OpClass.ADD: [tie, tie, other], OpClass.MUL: [1.0] + rng.sample((0.96, 0.98, 0.999), 2)}
    versions = []
    for cls, prefix in ((OpClass.ADD, "a"), (OpClass.MUL, "m")):
        rng.shuffle(rels[cls])
        for k, r in enumerate(rels[cls]):
            area = rng.choice((0.5, 1, 1.5, 2, 3, 4))
            versions.append(ResourceVersion(f"{prefix}{k}", cls, area, rng.randint(1, 3), r))
    rng.shuffle(versions)
    return ResourceLibrary(tuple(versions))


def _oracle_cases(seed: int, graphs: int):
    """(dfg, library, bounds) with latency bounds from one under the
    fastest critical path up to the oracle's limit of 12."""
    rng = random.Random(seed)
    for _ in range(graphs):
        dfg = _oracle_dag(rng)
        for lib in (LIB, _oracle_library(rng)):
            fastest = {
                n.id: min(lib.versions_for(n.op_class), key=lambda v: v.delay) for n in dfg.nodes
            }
            lo = asap(dfg, fastest).latency
            latencies = {max(1, lo - 1), lo, lo + 1, rng.randint(min(lo, 12), 12), 12}
            for latency in sorted(x for x in latencies if x <= 12):
                for area in rng.sample((1.5, 3, 4.5, 6, 8, 11, 16), 2):
                    yield dfg, lib, Bounds(latency, area)


def _oracle_line(dfg: Dfg, result) -> str:
    if isinstance(result, Infeasible):
        return repr(("infeasible", result.reason, result.detail))
    ids = dfg.node_ids
    return repr((
        tuple(result.assignment[nid].name for nid in ids),
        tuple(result.schedule.starts[nid] for nid in ids),
        result.schedule.latency,
        tuple(result.binding.node_to_instance[nid] for nid in ids),
        tuple((k, i.version, i.nmr_factor) for k, i in enumerate(result.binding.instances)),
        result.latency,
        repr(result.area),
        repr(result.reliability),
    ))


# sha256 over oracle_best's results for _oracle_cases(83, 40); captured from
# the oracle that sorted every version combination and ran one longest path
# per combination.
ORACLE_GOLDEN_SHA256 = "2df32db3211417910383fd104931db5e0e8072bb9609f06c2db84eb748c44145"


def test_oracle_best_golden_digest():
    lines = [_oracle_line(dfg, oracle_best(dfg, lib, b)) for dfg, lib, b in _oracle_cases(83, 40)]
    assert any(line.startswith("('infeasible', 'latency'") for line in lines)
    assert any(line.startswith("('infeasible', 'area'") for line in lines)
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert (len(lines), digest) == (730, ORACLE_GOLDEN_SHA256)


# sha256 over oracle_best's results on diffeq at L 4-11 x A 4, 8, ..., 36.
DIFFEQ_ORACLE_SHA256 = "6a27c7e6fbe6555551b8c4ed245b1f220c29b72a36c4b4dbbfae564172b2b6f4"


def test_diffeq_grid_exact_reference():
    # diffeq's 11 nodes are within reach of the oracle once the limit is raised.
    dfg = builtin_benchmark("diffeq")
    points = [Bounds(l_d, a_d) for l_d in range(4, 12) for a_d in range(4, 37, 4)]
    exact = [oracle_best(dfg, LIB, b, max_nodes=11) for b in points]
    lines = [_oracle_line(dfg, result) for result in exact]
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == DIFFEQ_ORACLE_SHA256
    gaps, false_infeasible = [], []
    for bounds, best in zip(points, exact):
        ours = find_design(dfg, LIB, bounds)
        if isinstance(best, Infeasible):
            assert isinstance(ours, Infeasible)  # never a design the oracle misses
        elif isinstance(ours, Infeasible):
            gaps.append(100.0)
            false_infeasible.append((bounds.latency_bound, bounds.area_bound))
        else:
            assert ours.reliability <= best.reliability * (1 + 1e-12)
            gaps.append(100.0 * (1 - ours.reliability / best.reliability))
    # Today's distance from the exact reference; a better `find_design` lowers it.
    assert len(gaps) == 62
    assert math.fsum(gaps) / len(gaps) == pytest.approx(4.73, abs=0.005)
    assert false_infeasible == [(6, 8)]


# Areas 0.1 + 0.2 + 0.3 round to 0.6000000000000001 in some orders and to
# 0.6 in others; string hashes (and so set order) change with the process.
HASH_ORDER_CASE = """
import json
from relsyn.model import Bounds, parse_dfg, parse_library
from relsyn.oracle import OracleLimitError, oracle_best
lib = parse_library(
    "resource A1 add 0.1 2 0.99\\nresource A2 add 0.2 1 0.98\\nresource M1 mul 0.3 1 0.97\\n"
)
dfg = parse_dfg("node x add\\nnode m mul\\nnode y add\\nedge x y\\nedge y m\\n")
d = oracle_best(dfg, lib, Bounds(4, 0.6))
print(json.dumps([{n: v.name for n, v in d.assignment.items()}, d.area]))
# Both classes exceed the version limit; the error names the first in OpClass order.
wide = parse_library(
    "".join(f"resource A{i} add 1 1 0.9\\nresource M{i} mul 1 1 0.9\\n" for i in range(4))
)
try:
    oracle_best(parse_dfg("node a add\\nnode m mul\\nedge a m\\n"), wide, Bounds(4, 10))
except OracleLimitError as exc:
    print(exc)
"""


def test_oracle_best_independent_of_hash_seed():
    outputs = set()
    for seed in range(8):
        env = dict(os.environ, PYTHONHASHSEED=str(seed))
        env["PYTHONPATH"] = str(Path(relsyn.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-c", HASH_ORDER_CASE],
            env=env, capture_output=True, text=True, check=True,
        )
        outputs.add(done.stdout)
    assert len(outputs) == 1, outputs
    design, limit_error = outputs.pop().splitlines()
    assignment, area = json.loads(design)
    assert area <= 0.6
    assert assignment == {"x": "A2", "m": "M1", "y": "A2"}
    assert limit_error == "class add has more than 3 versions"


def test_oracle_infeasible_reason_is_fastest_asap():
    # "latency" exactly when even the all-fastest assignment is late.
    reasons = set()
    for dfg, lib, bounds in _oracle_cases(83, 40):
        result = oracle_best(dfg, lib, bounds)
        if isinstance(result, Infeasible):
            fastest = {
                n.id: min(lib.versions_for(n.op_class), key=lambda v: v.delay) for n in dfg.nodes
            }
            late = asap(dfg, fastest).latency > bounds.latency_bound
            assert result.reason == ("latency" if late else "area")
            reasons.add(result.reason)
    assert reasons == {"latency", "area"}


def _every_combination(dfg: Dfg, lib: ResourceLibrary) -> list[tuple[float, tuple, int, float]]:
    """(log reliability summed left to right from 0, version names, critical
    path, area of one instance per used version) per version combination,
    in itertools.product order."""
    spans: dict[tuple[int, ...], int] = {}
    rows = []
    for combo in itertools.product(*(lib.versions_for(n.op_class) for n in dfg.nodes)):
        key = 0
        for v in combo:
            key += math.log(v.reliability)
        delays = tuple(v.delay for v in combo)
        if delays not in spans:
            spans[delays] = oracle_min_latency(dfg, dict(zip(dfg.node_ids, combo)))
        area = 0.0
        for v in lib.versions:
            if v in combo:
                area += v.area
        rows.append((key, tuple(v.name for v in combo), spans[delays], area))
    return rows


def test_oracle_tries_combinations_most_reliable_first(monkeypatch):
    # The start search sees the combinations whose critical path and single
    # instances fit, by descending log reliability, ties in product order
    # (a stable sort), and stops at the first that fits.
    tried = []
    feasible_starts = oracle._feasible_starts

    def recording(dfg, assignment, used, bounds):
        tried.append(tuple(assignment[nid].name for nid in dfg.node_ids))
        return feasible_starts(dfg, assignment, used, bounds)

    monkeypatch.setattr(oracle, "_feasible_starts", recording)
    cases = list(_oracle_cases(83, 40))  # holds every graph, so ids stay unique
    tables: dict[tuple[int, int], list] = {}
    tied = 0
    for dfg, lib, bounds in cases:
        if (id(dfg), id(lib)) not in tables:
            tables[id(dfg), id(lib)] = _every_combination(dfg, lib)
        rows = tables[id(dfg), id(lib)]
        survivors = [
            (key, names) for key, names, span, area in rows
            if span <= bounds.latency_bound and area <= bounds.area_bound
        ]
        survivors.sort(key=lambda row: row[0], reverse=True)
        tried.clear()
        result = oracle.oracle_best(dfg, lib, bounds)
        assert tried == [names for _, names in survivors[: len(tried)]]
        if isinstance(result, Design):
            assert tried[-1] == tuple(result.assignment[nid].name for nid in dfg.node_ids)
        else:
            assert len(tried) == len(survivors)
        tried_keys = [key for key, _ in survivors[: len(tried)]]
        tied += any(a == b for a, b in zip(tried_keys, tried_keys[1:]))
    assert tied > 0


def test_oracle_work_counts(monkeypatch):
    # The work of the 730 searches of _oracle_cases(83, 40), independent of
    # the machine: start searches, critical paths computed (distinct delay
    # vectors per call) and critical paths asked for.  A child that keeps its
    # parent's fastest completion, which meets L, is not asked for.
    searches, asked = [], []
    feasible_starts, critical_paths = oracle._feasible_starts, oracle._critical_paths

    def counting_starts(*args):
        searches.append(args)
        return feasible_starts(*args)

    def counting_paths(dfg):
        span, vectors = critical_paths(dfg), []
        asked.append(vectors)

        def lookup(delays):
            vectors.append(delays)
            return span(delays)

        return lookup

    monkeypatch.setattr(oracle, "_feasible_starts", counting_starts)
    monkeypatch.setattr(oracle, "_critical_paths", counting_paths)
    for dfg, lib, bounds in _oracle_cases(83, 40):
        oracle.oracle_best(dfg, lib, bounds)
    assert len(searches) == 747
    assert sum(len(set(vectors)) for vectors in asked) == 4566
    assert sum(len(vectors) for vectors in asked) == 6326


def test_oracle_ignores_versions_of_unused_classes():
    # Twenty multipliers declared ahead of the adders put the adders at mask
    # bits 20-22; an area table over every subset would need 2**23 entries.
    adders = LIB.versions_for(OpClass.ADD)
    multipliers = tuple(
        ResourceVersion(f"M{i}", OpClass.MUL, 1 + i / 4, 1 + i % 3, 0.9) for i in range(20)
    )
    wide = ResourceLibrary(multipliers + adders)
    narrow = ResourceLibrary(adders)
    for latency, area in ((4, 2), (5, 4), (8, 3), (12, 10), (7, 2), (5, 0.5)):
        bounds = Bounds(latency, area)
        assert oracle_best(FANIN_CHAIN, wide, bounds) == oracle_best(FANIN_CHAIN, narrow, bounds)


# -- pruning against an unpruned reference ----------------------------------


def _unpruned_best(dfg: Dfg, library: ResourceLibrary, bounds: Bounds) -> float | str:
    """The reliability of the most reliable version combination that has a
    start vector fitting both bounds, or the reason none has: every
    combination and every precedence-feasible start vector in [1, L],
    priced as Σ area × peak concurrency per version.  Areas must sum
    exactly in any order."""
    latency, area_bound = bounds.latency_bound, bounds.area_bound
    pos = {n.id: k for k, n in enumerate(dfg.nodes)}
    edges = [(pos[src], pos[dst]) for src, dst in dfg.edges]
    combos = itertools.product(*(library.versions_for(n.op_class) for n in dfg.nodes))
    reliability = {combo: math.prod(v.reliability for v in combo) for combo in combos}
    meets_latency = False
    for combo in sorted(reliability, key=reliability.__getitem__, reverse=True):
        ranges = [range(1, latency - v.delay + 2) for v in combo]
        for starts in itertools.product(*ranges):
            if any(starts[src] + combo[src].delay > starts[dst] for src, dst in edges):
                continue
            meets_latency = True
            area = 0.0
            for version in set(combo):
                busy = [0] * (latency + 1)
                for v, s in zip(combo, starts):
                    if v == version:
                        for cycle in range(s, s + v.delay):
                            busy[cycle] += 1
                area += version.area * max(busy)
            if area <= area_bound:
                return reliability[combo]
    return "area" if meets_latency else "latency"


def _pruning_cases():
    """(dfg, library, bounds) on DAGs of at most four nodes, within reach of
    `_unpruned_best`, with latency bounds around the fastest critical path."""
    rng = random.Random(97)
    for _ in range(40):
        dfg = _oracle_dag(rng, max_nodes=4)
        for lib in (LIB, _oracle_library(rng)):
            fastest = {
                n.id: min(lib.versions_for(n.op_class), key=lambda v: v.delay) for n in dfg.nodes
            }
            lo = asap(dfg, fastest).latency
            for latency in range(max(1, lo - 1), lo + 3):
                for area in rng.sample((1, 2, 3, 4.5, 6, 8), 2):
                    yield dfg, lib, Bounds(latency, area)


def test_oracle_pruning_keeps_the_optimum():
    # Each bound prunes the oracle's walk and its start search; neither may
    # cut the best design that plain enumeration finds.
    outcomes = []
    for dfg, lib, bounds in _pruning_cases():
        expected = _unpruned_best(dfg, lib, bounds)
        result = oracle_best(dfg, lib, bounds)
        if isinstance(expected, str):
            assert isinstance(result, Infeasible) and result.reason == expected
        else:
            assert isinstance(result, Design)
            validate_design(
                dfg, lib, result, latency_bound=bounds.latency_bound, area_bound=bounds.area_bound
            )
            assert math.isclose(result.reliability, expected, rel_tol=1e-12)
        outcomes.append(expected if isinstance(expected, str) else "design")
    assert set(outcomes) == {"design", "area", "latency"}


def _cheapest_start_vector(dfg: Dfg, versions: list[ResourceVersion], latency: int) -> float:
    """The least area over every precedence-feasible start vector in
    [1, latency], priced as `_unpruned_best` prices it (Σ area × peak
    concurrency per version), with no pruning; node k takes versions[k]."""
    order, preds = dfg.topo_positions, dfg.pred_positions
    kinds = list(dict.fromkeys(versions))
    rows = [[0] * latency for _ in kinds]  # per version, operations per cycle
    row_of = [rows[kinds.index(v)] for v in versions]
    starts = [0] * len(versions)
    cheapest = math.inf

    def place(i: int) -> None:
        nonlocal cheapest
        k = order[i]
        row, delay = row_of[k], versions[k].delay
        first = max([starts[p] + versions[p].delay for p in preds[k]], default=1)
        for s in range(first, latency - delay + 2):
            starts[k] = s
            for c in range(s - 1, s + delay - 1):
                row[c] += 1
            if i + 1 < len(order):
                place(i + 1)
            else:
                area = 0.0
                for v, busy in zip(kinds, rows):
                    area += v.area * max(busy)
                cheapest = min(cheapest, area)
            for c in range(s - 1, s + delay - 1):
                row[c] -= 1

    place(0)
    return cheapest


def test_root_bound_refuses_only_combinations_that_cannot_fit(monkeypatch):
    # On both oracle corpora, brute force finds no start vector that fits the
    # area bound for any version combination the root bound refuses, and the
    # bound refuses some.  Each is checked once, at its largest refused area.
    refused: dict[tuple, tuple] = {}
    current = []
    feasible_starts, root_bound = oracle._feasible_starts, oracle._root_bound

    def recording_starts(dfg, assignment, used, bounds):
        current[:] = [dfg, [assignment[nid] for nid in dfg.node_ids], bounds]
        return feasible_starts(dfg, assignment, used, bounds)

    def recording_root(*args):
        bound = root_bound(*args)
        dfg, versions, bounds = current
        if bound > bounds.area_bound:
            key = (id(dfg), tuple(v.name for v in versions), bounds.latency_bound)
            area = max(bounds.area_bound, refused.get(key, (0,))[0])
            refused[key] = (area, dfg, versions)  # holds the graph, so ids stay unique
        return bound

    monkeypatch.setattr(oracle, "_feasible_starts", recording_starts)
    monkeypatch.setattr(oracle, "_root_bound", recording_root)
    for dfg, lib, bounds in itertools.chain(_oracle_cases(83, 40), _pruning_cases()):
        oracle.oracle_best(dfg, lib, bounds)
    assert len(refused) > 0
    for (_, _, latency), (area, dfg, versions) in refused.items():
        assert _cheapest_start_vector(dfg, versions, latency) > area


def test_oracle_finds_a_design_whose_binding_sums_to_the_area_bound():
    # Library order sums add1's two instances first, 2.6 + 1.1 * 2 + 3.8 =
    # 8.600000000000001; find_design's binding sums 2.6 + 1.1 + 3.8 + 1.1 =
    # 8.6.  Pruning on the library-order sum at A 8.6 would drop that
    # design and return one of reliability 0.80470.
    dfg = parse_dfg("node v0 add\nnode v1 mul\nnode v2 add\nnode v3 add\nedge v0 v1\nedge v0 v3\n")
    lib = parse_library(
        "resource add0 add 2.6 1 0.9194\nresource add1 add 1.1 3 0.9583\n"
        "resource mul0 mul 3.8 1 0.9934\n"
    )
    heuristic = find_design(dfg, lib, Bounds(5, 8.6))
    assert isinstance(heuristic, Design) and heuristic.area == 8.6
    result = oracle_best(dfg, lib, Bounds(5, 8.6))
    assert isinstance(result, Design)
    validate_design(dfg, lib, result, latency_bound=5, area_bound=8.6)
    assert result.area <= 8.6
    assert result.reliability >= heuristic.reliability
    assert round(result.reliability, 5) == 0.83875
