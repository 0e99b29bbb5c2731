import hashlib
import itertools
import math
import random
from fractions import Fraction

import pytest

from checks import WIDE_LIB, random_dfg, successors, tails
from relsyn import scheduler
from relsyn.model import Dfg, DfgNode, OpClass, builtin_benchmark, builtin_library, parse_dfg
from relsyn.scheduler import InfeasibleBoundError, alap, asap, density_schedule
from relsyn.synthesizer import _heaviest_path

LIB = builtin_library()
ADDER1 = LIB.by_name("Adder1")
ADDER2 = LIB.by_name("Adder2")
MULT1 = LIB.by_name("Mult1")
MULT2 = LIB.by_name("Mult2")


def chain(n, version):
    dfg = parse_dfg(
        "\n".join(f"node c{i} add" for i in range(n))
        + "\n"
        + "\n".join(f"edge c{i} c{i + 1}" for i in range(n - 1))
    )
    return dfg, {nid: version for nid in dfg.node_ids}


def critical_path(dfg, asg):
    """`_heaviest_path` on tails computed here from the edge list: each
    node's delay plus its heaviest successor's tail; node positions mapped
    back to ids."""
    tail = tails(dfg, asg)
    path = _heaviest_path(dfg, [tail[nid] for nid in dfg.node_ids])
    return [dfg.node_ids[k] for k in path]


def uniform(dfg, add_version=ADDER2, mul_version=MULT2):
    return {
        n.id: add_version if n.op_class is OpClass.ADD else mul_version
        for n in dfg.nodes
    }


def test_asap_unit_chain():
    dfg, asg = chain(3, ADDER2)
    sched = asap(dfg, asg)
    assert [sched.starts[f"c{i}"] for i in range(3)] == [1, 2, 3]
    assert sched.latency == 3


def test_asap_accumulates_delay():
    dfg, asg = chain(3, ADDER1)
    sched = asap(dfg, asg)
    assert [sched.starts[f"c{i}"] for i in range(3)] == [1, 3, 5]
    assert sched.latency == 6


def test_asap_fir16_with_slow_versions_is_18():
    fir = builtin_benchmark("fir16")
    sched = asap(fir, uniform(fir, ADDER1, MULT1))
    assert sched.latency == 18


def test_alap_chain_with_slack():
    dfg, asg = chain(3, ADDER2)
    sched = alap(dfg, asg, 5)
    assert [sched.starts[f"c{i}"] for i in range(3)] == [3, 4, 5]


def test_alap_infeasible_bound():
    dfg, asg = chain(3, ADDER2)
    with pytest.raises(InfeasibleBoundError):
        alap(dfg, asg, 2)


def test_zero_mobility_on_critical_path_at_asap_bound():
    fir = builtin_benchmark("fir16")
    asg = uniform(fir)
    lo = asap(fir, asg)
    hi = alap(fir, asg, lo.latency)
    for nid in critical_path(fir, asg):
        assert lo.starts[nid] == hi.starts[nid]


def test_density_schedule_respects_windows():
    fir = builtin_benchmark("fir16")
    asg = uniform(fir)
    bound = asap(fir, asg).latency + 2
    lo, hi = asap(fir, asg).starts, alap(fir, asg, bound).starts
    sched = density_schedule(fir, asg, bound)
    for nid in fir.node_ids:
        assert lo[nid] <= sched.starts[nid] <= hi[nid]
    assert sched.latency <= bound


def test_density_spreads_independent_nodes():
    dfg = parse_dfg("node x add\nnode y add\nnode z add\n")
    asg = uniform(dfg)
    sched = density_schedule(dfg, asg, 3)
    assert sorted(sched.starts.values()) == [1, 2, 3]
    # Brute force: peak concurrency 1 is the best any placement can do,
    # and only all-distinct placements reach it.
    best_peak = min(
        max(list(combo).count(c) for c in combo)
        for combo in itertools.product([1, 2, 3], repeat=3)
    )
    assert best_peak == 1


def test_density_schedule_fir16_two_adders_two_mults():
    # With the single-cycle versions and an 11-cycle bound the schedule
    # must need at most two concurrent adds and two concurrent muls.
    fir = builtin_benchmark("fir16")
    asg = uniform(fir, ADDER2, MULT2)
    sched = density_schedule(fir, asg, 11)
    assert sched.latency <= 11
    for cls in OpClass:
        occupancy = [0] * 11
        for node in fir.nodes:
            if node.op_class is cls:
                start = sched.starts[node.id]
                for c in range(start, start + asg[node.id].delay):
                    occupancy[c - 1] += 1
        assert max(occupancy) <= 2, (cls, occupancy)


def test_density_infeasible_bound():
    dfg, asg = chain(3, ADDER1)
    with pytest.raises(InfeasibleBoundError):
        density_schedule(dfg, asg, 5)


def test_density_schedule_deterministic():
    fir = builtin_benchmark("fir16")
    asg = uniform(fir)
    a = density_schedule(fir, asg, 12)
    b = density_schedule(fir, asg, 12)
    assert a == b


def test_critical_path_chain():
    dfg, asg = chain(3, ADDER2)
    assert critical_path(dfg, asg) == ["c0", "c1", "c2"]


def _diamond(delay_b, delay_c):
    dfg = parse_dfg(
        "node a add\nnode b add\nnode c add\nnode d add\n"
        "edge a b\nedge a c\nedge b d\nedge c d\n"
    )
    by_delay = {1: ADDER2, 2: ADDER1}
    asg = {
        "a": ADDER2,
        "b": by_delay[delay_b],
        "c": by_delay[delay_c],
        "d": ADDER2,
    }
    return dfg, asg


def test_critical_path_heavier_branch():
    dfg, asg = _diamond(delay_b=2, delay_c=1)
    assert critical_path(dfg, asg) == ["a", "b", "d"]


def test_critical_path_tie_break_declaration_order():
    dfg, asg = _diamond(delay_b=1, delay_c=1)
    assert critical_path(dfg, asg) == ["a", "b", "d"]


def test_critical_path_ties_follow_declaration_not_edge_order():
    # Sources b and c tie as the heaviest, both declared after the lighter
    # a; b's successors x and y tie, and the edge to y is listed first.
    dfg = parse_dfg(
        "node a add\nnode b add\nnode c add\nnode x add\nnode y add\nnode z add\n"
        "edge c x\nedge b y\nedge a z\nedge b x\n"
    )
    asg = {nid: ADDER2 for nid in dfg.node_ids} | {"b": ADDER1, "c": ADDER1}
    assert critical_path(dfg, asg) == ["b", "x"]


def test_critical_path_is_first_heaviest_path_by_enumeration():
    # Every source-to-sink path of small random DAGs, with edges listed in
    # shuffled order: the result is the heaviest path whose declaration
    # indices come first lexicographically.
    rng = random.Random(37)
    for _ in range(200):
        base = random_dfg(rng)
        edges = list(base.edges)
        rng.shuffle(edges)
        dfg = Dfg(base.nodes, tuple(edges))
        asg = _random_assignment(dfg, rng, WIDE_LIB)
        succs, index = successors(dfg), {nid: k for k, nid in enumerate(dfg.node_ids)}
        paths = [[nid] for nid in dfg.node_ids if all(dst != nid for _, dst in dfg.edges)]
        complete = []
        while paths:
            path = paths.pop()
            if succs[path[-1]]:
                paths += [path + [s] for s in succs[path[-1]]]
            else:
                complete.append(path)
        expected = min(
            complete, key=lambda p: (-sum(asg[n].delay for n in p), [index[n] for n in p])
        )
        assert critical_path(dfg, asg) == expected


def _random_assignment(dfg, rng: random.Random, library=LIB):
    return {
        n.id: rng.choice(library.versions_for(n.op_class)) for n in dfg.nodes
    }


def test_asap_latency_is_minimal_by_exhaustive_enumeration():
    # On small graphs, no precedence-feasible start vector finishes
    # earlier than the ASAP schedule.
    rng = random.Random(29)
    for _ in range(15):
        dfg = random_dfg(rng, max_nodes=5)
        asg = _random_assignment(dfg, rng)
        minimum = asap(dfg, asg).latency
        horizon = minimum + 2
        node_ids = list(dfg.node_ids)
        best = None
        for starts in itertools.product(range(1, horizon + 1), repeat=len(node_ids)):
            vec = dict(zip(node_ids, starts))
            if any(
                vec[dst] < vec[src] + asg[src].delay for src, dst in dfg.edges
            ):
                continue
            latency = max(vec[n] + asg[n].delay - 1 for n in node_ids)
            best = latency if best is None else min(best, latency)
        assert best == minimum


def test_density_start_within_original_windows():
    # Placements never empty a window, so any bound the ASAP check admits
    # gets a schedule, within the original windows and the bound.
    rng = random.Random(31)
    for case in range(400):
        dfg = random_dfg(rng, max_nodes=12)
        asg = _random_assignment(dfg, rng, (LIB, WIDE_LIB)[case % 2])
        bound = asap(dfg, asg).latency + rng.randint(0, 5)
        lo, hi = asap(dfg, asg).starts, alap(dfg, asg, bound).starts
        sched = density_schedule(dfg, asg, bound)
        assert sched.latency <= bound
        for nid in dfg.node_ids:
            assert lo[nid] <= sched.starts[nid] <= hi[nid]
        for src, dst in dfg.edges:
            assert sched.starts[dst] >= sched.starts[src] + asg[src].delay


def _golden_cases():
    """Every single-version assignment of the bundled graphs at L from the
    minimum to the minimum + 6, then the seeded random corpus."""
    for name in ("fir16", "ew", "diffeq"):
        dfg = builtin_benchmark(name)
        for add, mul in itertools.product(
            LIB.versions_for(OpClass.ADD), LIB.versions_for(OpClass.MUL)
        ):
            asg = uniform(dfg, add, mul)
            minimum = asap(dfg, asg).latency
            for bound in range(minimum, minimum + 7):
                yield dfg, asg, bound
    yield from _random_golden_cases(random.Random(41), LIB)


def _random_golden_cases(rng, library):
    """Seeded 40-160 node DAGs (node i gets 0-2 predecessors among the
    previous 20) with mixed versions of `library` at the minimum (tight)
    and the minimum + n/8 (loose) bound."""
    for n in (40, 57, 74, 91, 108, 125, 142, 160):
        nodes = tuple(
            DfgNode(f"v{i}", rng.choice((OpClass.ADD, OpClass.MUL))) for i in range(n)
        )
        edges = set()
        for j in range(1, n):
            for _ in range(rng.randint(0, 2)):
                edges.add((f"v{rng.randrange(max(0, j - 20), j)}", f"v{j}"))
        dfg = Dfg(nodes, tuple(sorted(edges)))
        asg = _random_assignment(dfg, rng, library)
        minimum = asap(dfg, asg).latency
        yield dfg, asg, minimum
        yield dfg, asg, minimum + n // 8


# sha256 of every golden case's (starts, latency), captured from the
# round-by-round scheduler that recomputed all windows and densities.
GOLDEN_SCHEDULES_SHA256 = "c56f13b1ecb0e4bf29d4dab40f8ad7991f74360064863cde278e9e4e24328cec"


def _schedules_digest(cases):
    lines = []
    for dfg, asg, bound in cases:
        sched = density_schedule(dfg, asg, bound)
        lines.append(repr((tuple(sched.starts.items()), sched.latency)))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_density_schedule_golden_digest():
    cases = list(_golden_cases())
    assert len(cases) == 3 * 6 * 7 + 16
    assert _schedules_digest(cases) == GOLDEN_SCHEDULES_SHA256


# sha256 of the wide-delay cases' (starts, latency), captured from the
# scheduler that folded every covering start with its own `+=`.
GOLDEN_WIDE_SCHEDULES_SHA256 = "4cdcf4b25c852de44f86d895b8e634469382403ab5e16785dcb9fec5dbc6e4ef"


def test_density_schedule_golden_digest_wide_delays():
    cases = list(_random_golden_cases(random.Random(43), WIDE_LIB))
    assert len(cases) == 16
    assert _schedules_digest(cases) == GOLDEN_WIDE_SCHEDULES_SHA256


def test_infeasible_bound_messages():
    dfg, asg = chain(3, ADDER1)
    with pytest.raises(InfeasibleBoundError) as exc:
        density_schedule(dfg, asg, 5)
    assert str(exc.value) == "latency bound 5 below minimum achievable 6"


def _filtered_rounds(monkeypatch, cases):
    """Schedule `cases` with every open span recorded and then widened to
    the whole window, so each filtered round folds every start.  Per
    filtered round: the fixed scores, the term bound, the start a one-start
    open span decides (else None), the open span (first, last), the fold's
    float scores, the open-span fold's float scores and the exact scores
    times the lcm of the widths (the same fold on integers), with that lcm.
    Returns them and the schedules' digest."""
    real_span, real_fold = scheduler._open_span, scheduler._fold
    pending, rounds = [], []

    def span(scores, terms):
        pending.append((scores, terms, real_span(scores, terms)))
        return 0, len(scores) - 1

    def left_to_right(row, starts, d):  # as density_schedule adds
        scores = []
        for j in range(starts):
            score = row[j]
            for c in row[j + 1 : j + d]:
                score += c
            scores.append(score)
        return scores

    def fold(row, first, nodes, lo, hi, delay, share):
        real_fold(row, first, nodes, lo, hi, delay, share)
        if not pending:
            return  # a round the filter does not score: a small class or few starts
        fixed, terms, (first_open, last_open) = pending.pop()
        k = first_open if first_open == last_open else None
        width = len(fixed) - 1
        d = len(row) - width
        lcm = math.lcm(*range(1, len(share) + 1))
        exact = [0] * len(row)
        real_fold(exact, first, nodes, lo, hi, delay, [lcm // (w + 1) for w in range(len(share))])
        narrow = [0.0] * (last_open - first_open + d)
        real_fold(narrow, first + first_open, nodes, lo, hi, delay, share)
        exact_scores = [sum(exact[j : j + d]) for j in range(width + 1)]
        rounds.append((
            fixed, terms, k, (first_open, last_open), left_to_right(row, width + 1, d),
            left_to_right(narrow, last_open - first_open + 1, d), exact_scores, lcm,
        ))

    monkeypatch.setattr(scheduler, "_open_span", span)
    monkeypatch.setattr(scheduler, "_fold", fold)
    digest = _schedules_digest(cases)
    assert not pending
    return rounds, digest


def _sixteen_adds():
    """Sixteen independent two-cycle adds, whose third round at L 8 is an
    exact tie that float rounding breaks."""
    dfg = parse_dfg("".join(f"node v{i} add\n" for i in range(16)))
    return dfg, {nid: ADDER1 for nid in dfg.node_ids}


# sha256 of the LIB golden cases' (starts, latency) at 8 times their bound,
# captured from the scheduler that scored filter rounds at 2**64.
GOLDEN_LONG_SCHEDULES_SHA256 = "7526bc3ecf50b7549094333329f13f57aa2f1aa55b78c5e9316484c279a3f7b7"


def _corpus(name):
    """The filtered corpus `name` and the golden digest of its schedules."""
    if name == "LIB":
        return list(_golden_cases()), GOLDEN_SCHEDULES_SHA256
    if name == "LIB_LONG":  # wide windows: many starts per round
        cases = [(dfg, asg, 8 * bound) for dfg, asg, bound in _golden_cases()]
        return cases, GOLDEN_LONG_SCHEDULES_SHA256
    if name == "WIDE_LIB":
        return list(_random_golden_cases(random.Random(43), WIDE_LIB)), GOLDEN_WIDE_SCHEDULES_SHA256
    return [(*_sixteen_adds(), 8)], None


@pytest.mark.parametrize("library", ["LIB", "WIDE_LIB", "LIB_LONG"])
def test_filter_margin_is_sound(monkeypatch, library):
    # Every round the fixed-point filter scores, over the golden corpora:
    # each fixed score F is floor-weighted, 0 <= SCALE E - F < N for the
    # exact score E; each float fold score S is within the stated slack,
    # |SCALE S - F| <= _slack(F, N); a one-start open span is the fold's
    # argmin; and such a span decides at least half the rounds.
    cases, golden = _corpus(library)
    rounds, digest = _filtered_rounds(monkeypatch, cases)
    assert digest == golden  # the fold alone gives the golden schedules
    decided = 0
    for fixed, terms, k, _, floats, _, exact, lcm in rounds:
        for f, s, e in zip(fixed, floats, exact):
            assert 0 <= e * scheduler.SCALE - f * lcm < terms * lcm
            assert abs(Fraction(s) * scheduler.SCALE - f) <= scheduler._slack(f, terms)
        if k is not None:
            decided += 1
            assert floats.index(min(floats)) == k
    assert len(rounds) > 1000
    assert decided >= len(rounds) / 2, (decided, len(rounds))


@pytest.mark.parametrize("corpus", ["LIB", "WIDE_LIB", "tie"])
def test_open_span_fold_picks_the_full_fold_argmin(monkeypatch, corpus):
    # Every round the filter scores, folded over the whole window and over
    # the open span alone: the span's floats are the whole window's, bit
    # for bit, so the span fold picks the full fold's argmin, and every
    # start outside the span scores strictly above the minimum.
    cases, _ = _corpus(corpus)
    rounds, _ = _filtered_rounds(monkeypatch, cases)
    starts = spanned = 0
    for fixed, _, _, (first, last), floats, open_floats, _, _ in rounds:
        best = min(floats)
        assert open_floats == floats[first : last + 1]
        assert first + open_floats.index(min(open_floats)) == floats.index(best)
        assert all(s > best for s in floats[:first] + floats[last + 1 :])
        starts, spanned = starts + len(fixed), spanned + last - first + 1
    if corpus == "tie":  # v2's tied starts 1, 3, 4, 5 and 7 all stay open
        assert rounds[2][3] == (0, 6)
    else:  # the span leaves out most starts
        assert spanned < starts / 2, (spanned, starts)


def test_fold_breaks_an_exact_tie_the_filter_leaves_open(monkeypatch):
    # Sixteen independent two-cycle adds at L 8.  v0 goes to cycle 1 and
    # v1 to cycle 7; every other window is still [1, 7].  v2's exact
    # scores by start 1..7 are then 8, 9, 8, 8, 8, 9, 8, so exact
    # densities would start it at 1.  The float fold's sums at 3-5 round
    # to 7.999999999999997, below its 8.0 at 1, and v2 starts at 3.
    dfg, asg = _sixteen_adds()
    cells = [
        (c in (1, 2)) + (c in (7, 8)) + 14 * Fraction(min(7, c) - max(1, c - 1) + 1, 7)
        for c in range(1, 9)
    ]
    assert [cells[s - 1] + cells[s] for s in range(1, 8)] == [8, 9, 8, 8, 8, 9, 8]
    rounds, _ = _filtered_rounds(monkeypatch, [(dfg, asg, 8)])
    fixed, terms, k, _, floats, _, exact, lcm = rounds[2]
    assert k is None and [e / lcm for e in exact] == [8, 9, 8, 8, 8, 9, 8]
    assert floats.index(min(floats)) == 2
    monkeypatch.undo()
    sched = density_schedule(dfg, asg, 8)
    assert [sched.starts[f"v{i}"] for i in range(3)] == [1, 7, 3]


def _sparse_large_cases():
    """Seeded 300-400 node DAGs where node i has, with probability 1/10, one
    predecessor among all the earlier nodes: wide classes whose fixed
    scores pass 2**30.  Mixed versions of LIB and WIDE_LIB at the minimum,
    the minimum + 2 and the minimum + n/8 bound."""
    rng = random.Random(47)
    for library in (LIB, WIDE_LIB):
        for n in (300, 350, 400):
            nodes = tuple(
                DfgNode(f"v{i}", rng.choice((OpClass.ADD, OpClass.MUL))) for i in range(n)
            )
            edges = [(f"v{rng.randrange(j)}", f"v{j}") for j in range(1, n) if rng.random() < 0.1]
            dfg = Dfg(nodes, tuple(edges))
            asg = _random_assignment(dfg, rng, library)
            minimum = asap(dfg, asg).latency
            for bound in (minimum, minimum + 2, minimum + n // 8):
                yield dfg, asg, bound


def test_filtered_schedules_equal_fold_only_on_large_graphs(monkeypatch):
    # Scores past one 30-bit digit take the same filter path: the open
    # span gives the schedules of folding every start of every round.
    cases = list(_sparse_large_cases())
    real_span, high = scheduler._open_span, []

    def span(scores, terms):
        high.append(max(scores) >= 2**30)
        return real_span(scores, terms)

    monkeypatch.setattr(scheduler, "_open_span", span)
    filtered = _schedules_digest(cases)
    assert any(high) and len(high) > 1000
    monkeypatch.setattr(scheduler, "_open_span", lambda scores, terms: (0, len(scores) - 1))
    assert _schedules_digest(cases) == filtered


# Per filtered corpus: filtered rounds, rounds decided without a fold and
# the open spans' total starts, captured from the scheduler that ran a
# separate pick rule before the open span.
FILTER_WORK = {
    "LIB": (2470, 1516, 8806), "WIDE_LIB": (1323, 901, 7686), "LIB_LONG": (3633, 1843, 191527)
}


@pytest.mark.parametrize("library", list(FILTER_WORK))
def test_filter_work_per_corpus(monkeypatch, library):
    # A one-start open span places its node without a fold, so widening
    # every span to the whole window adds one fold per decided round.  A
    # looser span would show here as fewer decided rounds or more starts.
    cases, golden = _corpus(library)
    real_span, real_fold = scheduler._open_span, scheduler._fold

    def run(widen):
        spans, folds = [], []

        def span(scores, terms):
            spans.append(real_span(scores, terms))
            return (0, len(scores) - 1) if widen else spans[-1]

        monkeypatch.setattr(scheduler, "_open_span", span)
        monkeypatch.setattr(scheduler, "_fold", lambda *args: folds.append(real_fold(*args)))
        assert _schedules_digest(cases) == golden
        return spans, len(folds)

    spans, folds = run(widen=False)
    _, widened_folds = run(widen=True)
    starts = sum(last - first + 1 for first, last in spans)
    assert (len(spans), widened_folds - folds, starts) == FILTER_WORK[library]
