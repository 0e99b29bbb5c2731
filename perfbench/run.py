#!/usr/bin/env python3
"""Benchmark for relsyn: one workload per process, one caller, one thread.

    python3 perfbench/run.py --workload synth-random --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15

Workloads (README.md says why each was chosen):
  sweep-bundled  `relsyn sweep` in-process through relsyn.cli.main over the
                 bundled graphs' bound grids, methods ours,nmr,combined;
                 a call is one CSV row
  synth-random   find_design on seeded random DAGs of 40-160 nodes;
                 a call is one find_design
  oracle-small   oracle_best and find_design on seeded 6-8 node DAGs;
                 a call is one instance solved by both

The program is imported from src/ next to this directory.  Timed calls
repeat in whole passes over the seed's inputs while another pass should
end within --seconds (at least one pass).  Every pass must reproduce the
first byte for byte, and the first is re-verified independently
(verify.py).  Times are scaled to a nominal machine speed measured with a
reference kernel between calls (see Meter).  --trace 0 prints the
end-to-end metrics.  --trace 1 runs untraced passes for half the time,
then one pass with every public relsyn function wrapped (spans.py), and
prints the per-layer metrics and the tracing overhead.  `all` runs each
workload both ways, each in its own process, and prints every report.
The last stdout line is one JSON object; full results go to
perfbench/out/.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import functools
import gc
import hashlib
import importlib
import io
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DATA = SRC / "relsyn" / "data"
OUT = HERE / "out"

sys.dont_write_bytecode = True  # leave the checkout as found; every set-up compiles alike

import gen  # noqa: E402  (the script's directory is on sys.path)
import spans  # noqa: E402
import verify  # noqa: E402

WORKLOADS = ("sweep-bundled", "synth-random", "oracle-small")
SETUP_REPEATS = 7
REFERENCE_S = 0.0025  # nominal duration of reference_kernel()
SAMPLE_EVERY_S = 0.1
SPEED_WINDOW_S = 1.0  # a call's speed: samples within this of its end

UNITS = {
    "setup_s": "s",
    "calls_per_s": "1/s",
    "call_ms_p50": "ms",
    "call_ms_p90": "ms",
    "peak_rss_mb": "MB",
    "feasible_share": "share",
    "mean_reliability": "prob",
    "failed_share": "share",
    "oracle_gap_mean_pct": "%",
    "false_infeasible_share": "share",
    "combined_loss_share": "share",
}
# The end-to-end metrics of the final JSON line.  The ones after them in
# UNITS can be 0, so they are printed and saved but not gated.
GATED = ("setup_s", "calls_per_s", "call_ms_p50", "call_ms_p90", "peak_rss_mb",
         "feasible_share", "mean_reliability")

PER_LAYER = {
    "scheduler.density_schedule": ("calls", "total_s", "self_s"),
    "scheduler.occupancy_density": ("calls", "total_s"),
    "scheduler.asap": ("calls", "total_s"),
    "scheduler.critical_path": ("calls", "total_s"),
    "synthesizer.find_design": ("calls", "total_s", "self_s"),
    "binder.bind": ("calls", "total_s"),
    "binder.total_area": ("calls", "total_s"),
    "redundancy.baseline_nmr_synth": ("calls", "total_s", "self_s"),
    "redundancy.combined_synth": ("calls", "total_s", "self_s"),
    "redundancy.greedy_nmr_upgrade": ("calls", "total_s", "self_s"),
    "redundancy.evaluate_reliability": ("calls", "total_s"),
    "oracle.oracle_best": ("calls", "total_s"),
    "model.parse_dfg": ("calls", "total_s"),
    "model.parse_library": ("total_s",),
    "cli.main": ("total_s", "self_s"),
}


class BenchError(Exception):
    """The benchmark cannot run here (e.g. no program source)."""


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def load_program():
    """Import relsyn and its CLI from this checkout, dropping any earlier import."""
    for name in [m for m in sys.modules if m == "relsyn" or m.startswith("relsyn.")]:
        del sys.modules[name]
    return importlib.import_module("relsyn"), importlib.import_module("relsyn.cli")


def result_text(cli, result) -> str:
    """What `relsyn synth --format json` prints for a result."""
    if isinstance(result, Exception):
        return f"raised {result!r}"
    if hasattr(result, "reason"):
        return json.dumps({"status": "infeasible", "reason": result.reason})
    return json.dumps(cli.design_to_json(result), indent=2)


def reference_kernel() -> int:
    """Fixed pure-Python work (strings, dicts, sorting) that shares no code
    with relsyn, so its duration tracks only the machine's current speed."""
    rng = random.Random(7)
    counts: dict[str, int] = {}
    for i in range(3000):
        key = f"n{rng.randrange(500)}"
        counts[key] = counts.get(key, 0) + i
    ranked = sorted(counts.items(), key=lambda kv: (kv[1] % 97, kv[0]))
    return sum(len(k) * v for k, v in ranked)


class Meter:
    """The clock of timed calls, and the machine's speed while they ran.

    On a shared 2-vCPU VM the same code ran up to 1.8x slower for minutes
    at a time.  Between calls, at most every SAMPLE_EVERY_S, the meter times
    reference_kernel(); that time is left out of now().  A call's wall time
    times its local speed (REFERENCE_S over the median sample within
    SPEED_WINDOW_S of its end) is its time at nominal speed, where the
    kernel takes REFERENCE_S.  A traced meter also opens a root span per call.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.at: list[float] = []  # sample times, on the now() clock
        self.samples: list[float] = []
        self.paused = 0.0
        self.last = -math.inf

    def now(self) -> float:
        return time.perf_counter() - self.paused

    def sample(self, force: bool = False) -> None:
        t = time.perf_counter()
        if not force and t - self.last < SAMPLE_EVERY_S:
            return
        collecting = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            reference_kernel()
            self.samples.append(time.perf_counter() - t0)
        finally:
            if collecting:
                gc.enable()
        self.at.append(self.now())
        self.last = time.perf_counter()
        self.paused += self.last - t

    def speed(self, around: float | None = None) -> float:
        """REFERENCE_S over the median sample (near `around`, if given)."""
        picked = self.samples
        if around is not None:
            lo = bisect.bisect_left(self.at, around - SPEED_WINDOW_S)
            hi = bisect.bisect_right(self.at, around + SPEED_WINDOW_S)
            if hi > lo:
                picked = self.samples[lo:hi]
        return REFERENCE_S / statistics.median(picked)

    def nominal(self, ends, lats) -> list[float]:
        """Call times at nominal speed, from their end times and wall times."""
        return [lat * self.speed(end) for end, lat in zip(ends, lats)]

    def start(self) -> float:
        if self.tracer:
            self.tracer.begin_call()
        return self.now()

    def stop(self) -> float:
        t = self.now()
        if self.tracer:
            self.tracer.end_call()
        self.sample()
        return t


def design_quality(reliabilities) -> dict:
    """Per call: the reliability of a verified design, or None."""
    n = len(reliabilities)
    return {
        "feasible_share": sum(r is not None for r in reliabilities) / n,
        "mean_reliability": sum(r or 0.0 for r in reliabilities) / n,
    }


# -- workloads ------------------------------------------------------------
#
# Each workload has `texts` (the DFGs parsed at set-up), `prepare()`,
# `one_pass(meter)` -> (results, call end times, call seconds), `digests(results)`
# (one per call, cheap), `check(results)` -> [(failed, reliability
# or payload)] per call (re-verification), and `quality(checked)`.


class SynthRandom:
    """find_design on seeded random DAGs; one call per DAG."""

    artifacts: dict = {}  # digests beyond one per call, filled by check()

    def __init__(self, seed: int, lib_view):
        self.lib_view = lib_view
        self.corpus = self.make_corpus(seed)
        self.texts = [inst.graph.text() for inst in self.corpus]
        self.fast, _ = gen.class_delays(lib_view)

    def make_corpus(self, seed):
        return gen.synth_random(seed, self.lib_view)

    def prepare(self, relsyn, cli, lib, dfgs):
        self.relsyn, self.cli, self.lib = relsyn, cli, lib
        self.jobs = [
            (dfg, relsyn.Bounds(inst.latency, inst.area)) for dfg, inst in zip(dfgs, self.corpus)
        ]

    def solve(self, dfg, bounds):
        return self.relsyn.find_design(dfg, self.lib, bounds)

    def one_pass(self, meter):
        results, ends, lat = [], [], []
        for dfg, bounds in self.jobs:
            t0 = meter.start()
            try:
                result = self.solve(dfg, bounds)
            except Exception as exc:  # a call that raises is a failed call
                result = exc
            ends.append(meter.stop())
            lat.append(ends[-1] - t0)
            results.append(result)
        return results, ends, lat

    def text(self, result) -> str:
        return result_text(self.cli, result)

    def digests(self, results):
        return [sha(self.text(r)) for r in results]

    def judge(self, inst, result):
        """(failed, reliability of a verified design or None) for one result."""
        if hasattr(result, "reason"):
            # With the all-fastest assignment inside the latency bound,
            # latency repair cannot fail.
            fits = inst.latency >= gen.longest_path(inst.graph, self.fast)
            bad = result.reason not in ("latency", "area") or (result.reason == "latency" and fits)
            return bad, None
        design = self.cli.design_to_json(result)
        if verify.problems(inst.graph, self.lib_view, design, inst.latency, inst.area):
            return True, None
        return False, design["reliability"]

    def check(self, results):
        return [
            (True, None) if isinstance(r, Exception) else self.judge(inst, r)
            for inst, r in zip(self.corpus, results)
        ]

    def quality(self, checked):
        return design_quality([r for _, r in checked])


class OracleSmall(SynthRandom):
    """oracle_best and find_design on seeded small DAGs; one call per instance."""

    def make_corpus(self, seed):
        return gen.oracle_small(seed, self.lib_view)

    def solve(self, dfg, bounds):
        return (
            self.relsyn.oracle_best(dfg, self.lib, bounds),
            self.relsyn.find_design(dfg, self.lib, bounds),
        )

    def text(self, result) -> str:
        if isinstance(result, Exception):
            return f"raised {result!r}"
        return "\n".join(result_text(self.cli, r) for r in result)

    def check(self, results):
        out = []
        for inst, result in zip(self.corpus, results):
            if isinstance(result, Exception):
                out.append((True, None))
                continue
            (bad_o, exact), (bad_h, ours) = (self.judge(inst, r) for r in result)
            # Ours may never beat the exhaustive oracle, nor find a design it missed.
            beats = ours is not None and (exact is None or ours > exact * (1 + 1e-12))
            out.append((bad_o or bad_h or beats, (exact, ours)))
        return out

    def quality(self, checked):
        pairs = [p or (None, None) for _, p in checked]
        solved = [(o, h) for o, h in pairs if o is not None]
        gaps = [100.0 if h is None else 100.0 * (1 - h / o) for o, h in solved]
        false_inf = sum(1 for _, h in solved if h is None)
        return {
            **design_quality([h for _, h in pairs]),
            "oracle_gap_mean_pct": statistics.fmean(gaps) if gaps else 0.0,
            "false_infeasible_share": false_inf / len(solved) if solved else 0.0,
            "oracle_solved": len(solved),
            "oracle_suboptimal": sum(1 for g in gaps if 0 < g < 100),
            "false_infeasible": false_inf,
        }


class SweepBundled:
    """`relsyn sweep` through relsyn.cli.main on each bundled grid; a call is a CSV row."""

    FLOWS = {"ours": "find_design", "nmr": "baseline_nmr_synth", "combined": "combined_synth"}
    HEADER = "L_d,A_d,method,status,latency,area,reliability"

    def __init__(self, seed: int, lib_view):
        self.lib_view = lib_view
        self.grids = [gen.SWEEP_GRIDS[i] for i in gen.sweep_order(seed)]
        self.texts = [(DATA / f"{g[0]}.dfg").read_text(encoding="utf-8") for g in self.grids]
        self.graphs = [gen.parse_graph(g[0], t) for g, t in zip(self.grids, self.texts)]
        self.expected = [self.grid_rows(g) for g in self.grids]

    @staticmethod
    def grid_rows(grid):
        _, lat, area, step = grid
        l_lo, l_hi = map(int, lat.split(":"))
        a_lo, a_hi = map(float, area.split(":"))
        areas = [a_lo + k * float(step) for k in range(int((a_hi - a_lo) / float(step) + 1e-9) + 1)]
        return [(l_d, a_d, m) for l_d in range(l_lo, l_hi + 1) for a_d in areas for m in SweepBundled.FLOWS]

    def prepare(self, relsyn, cli, lib, dfgs):
        self.relsyn, self.cli, self.lib, self.dfgs = relsyn, cli, lib, dfgs
        self.argv = [
            ["sweep", "--dfg", str(DATA / f"{name}.dfg"), "--lib", str(DATA / "table1.lib"),
             "--latency", lat, "--area", area, "--step-a", step,
             "--methods", ",".join(self.FLOWS)]
            for name, lat, area, step in self.grids
        ]
        # The CLI writes its CSV only when a sweep ends.  A row's latency is
        # the gap between completions of the outermost flow calls; if those
        # do not match the rows one to one, the invocation time is spread
        # evenly over its rows.  Untraced, the meter samples machine speed
        # at those completions too, since one invocation lasts seconds.
        self.done: list[float] = []
        self.depth = 0
        self.meter = None
        modules = spans.relsyn_modules()
        targets = {}
        for mod in modules.values():
            for name in self.FLOWS.values():
                fn = getattr(mod, name, None)
                if callable(fn):
                    targets[id(fn)] = fn
        spans.patch_everywhere(modules, targets, {k: self.completion(f) for k, f in targets.items()})

    def completion(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self.depth -= 1
                if self.depth == 0 and self.meter:
                    self.done.append(self.meter.now())
                    if not self.meter.tracer:
                        self.meter.sample()

        return wrapper

    def one_pass(self, meter):
        results, ends, lat = [], [], []
        self.meter = meter
        for argv, expected in zip(self.argv, self.expected):
            buf = io.StringIO()
            self.done = []
            t0 = meter.start()
            try:
                with contextlib.redirect_stdout(buf):
                    code = self.cli.main(argv)
            except Exception as exc:
                code = exc
            t1 = meter.stop()
            rows = len(buf.getvalue().splitlines()) - 1 if code == 0 else 0
            if rows > 0 and len(self.done) == rows:
                marks = [t0] + self.done[:-1] + [t1]
            else:
                marks = [t0 + (t1 - t0) * k / len(expected) for k in range(len(expected) + 1)]
            ends += marks[1:]
            lat += [b - a for a, b in zip(marks, marks[1:])]
            results.append((code, buf.getvalue()))
        self.meter = None
        return results, ends, lat

    def rows(self, result, expected):
        """The CSV's data rows, or None for each expected row if the shape is wrong."""
        code, csv = result
        lines = csv.splitlines()
        if code == 0 and lines[:1] == [self.HEADER] and len(lines) - 1 == len(expected):
            return lines[1:]
        return [None] * len(expected)

    def digests(self, results):
        return [
            sha(f"{i}:{row}")
            for result, expected in zip(results, self.expected)
            for i, row in enumerate(self.rows(result, expected))
        ]

    def check(self, results):
        """Re-run the public flow for each row's bound pair; verify and compare."""
        out, self.points = [], []
        self.artifacts = {"csv_sha256": {}, "design_sha256": []}
        for result, expected, graph, dfg in zip(results, self.expected, self.graphs, self.dfgs):
            self.artifacts["csv_sha256"][graph.name] = sha(result[1])
            by_point: dict = {}
            for row, (l_d, a_d, method) in zip(self.rows(result, expected), expected):
                flow = getattr(self.relsyn, self.FLOWS[method])
                try:
                    design = flow(dfg, self.lib, self.relsyn.Bounds(l_d, a_d))
                except Exception as exc:  # the flow itself is broken: the row fails
                    design = exc
                if isinstance(design, Exception):
                    reliability, want, bad = None, [], True
                elif hasattr(design, "reason"):
                    reliability = None
                    want = [f"infeasible:{design.reason}", "", "", ""]
                    bad = False
                else:
                    d = self.cli.design_to_json(design)
                    want = ["feasible", str(d["latency"]), d["area"], f"{d['reliability']:.5f}"]
                    bad = bool(verify.problems(graph, self.lib_view, d, l_d, a_d))
                    reliability = None if bad else d["reliability"]
                bad |= not row_matches(row, (l_d, a_d, method), want)
                by_point.setdefault((l_d, a_d), {})[method] = reliability
                self.artifacts["design_sha256"].append(sha(result_text(self.cli, design)))
                out.append((bad, reliability))
            self.points += by_point.values()
        return out

    def quality(self, checked):
        nmr_ok = [p for p in self.points if p["nmr"] is not None]
        losses = sum(1 for p in nmr_ok if p["combined"] is None or p["combined"] < p["nmr"] * (1 - 1e-12))
        return {
            **design_quality([r for _, r in checked]),
            "combined_loss_share": losses / len(nmr_ok) if nmr_ok else 0.0,
            "combined_losses": losses,
            "nmr_feasible_points": len(nmr_ok),
        }


def row_matches(row, key, want) -> bool:
    """Does a CSV row `L_d,A_d,method,...` carry `key` and then `want`?
    A float in `want` is compared numerically (the CLI prints 8, not 8.0)."""
    fields = row.split(",") if row else []
    if len(fields) != 3 + len(want):
        return False
    try:
        if (float(fields[0]), float(fields[1]), fields[2]) != key:
            return False
        return all(
            math.isclose(float(got), exp, abs_tol=1e-9) if isinstance(exp, float) else got == exp
            for got, exp in zip(fields[3:], want)
        )
    except ValueError:
        return False


MAKERS = {"sweep-bundled": SweepBundled, "synth-random": SynthRandom, "oracle-small": OracleSmall}


# -- one run --------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    if not (SRC / "relsyn" / "__init__.py").is_file():
        raise BenchError(f"no program source at {SRC / 'relsyn'}")
    sys.path.insert(0, str(SRC))
    lib_text = (DATA / "table1.lib").read_text(encoding="utf-8")
    lib_view = gen.parse_library(lib_text)
    work = MAKERS[name](seed, lib_view)

    # Set-up: import relsyn, parse the library and every workload DFG.
    setups, setup_meter = [], Meter()
    for _ in range(SETUP_REPEATS):
        gc.collect()  # each set-up starts from the same heap
        setup_meter.sample(force=True)
        t0 = time.perf_counter()
        relsyn, cli = load_program()
        lib = relsyn.parse_library(lib_text)
        dfgs = [relsyn.parse_dfg(text) for text in work.texts]
        setups.append(time.perf_counter() - t0)
    setup_meter.sample(force=True)
    if Path(relsyn.__file__).resolve().parent != (SRC / "relsyn").resolve():
        raise BenchError(f"relsyn was imported from {relsyn.__file__}, not from {SRC}")
    work.prepare(relsyn, cli, lib, dfgs)

    # The verifier must reject corrupted designs before it is trusted.
    fir = (DATA / "fir16.dfg").read_text(encoding="utf-8")
    sample = relsyn.find_design(relsyn.parse_dfg(fir), lib, relsyn.Bounds(11, 12))
    selftest = verify.self_test(gen.parse_graph("fir16", fir), lib_view, cli.design_to_json(sample), (11, 12))

    # Timed passes: another one starts only if it should end within the
    # budget.  Each must reproduce the first pass's outputs.
    gc.collect()
    meter = Meter()
    budget = seconds / 2 if traced else seconds
    timed, latencies, nominal, first, reference, changed = 0.0, [], [], None, None, []
    while first is None or timed * (len(changed) + 1) / len(changed) <= budget:
        t0 = meter.now()
        results, ends, lat = work.one_pass(meter)
        timed += meter.now() - t0
        latencies += lat
        nominal += meter.nominal(ends, lat)
        digests = work.digests(results)
        if first is None:
            first, reference = results, digests
        changed.append({i for i, (d, r) in enumerate(zip(digests, reference)) if d != r})
        del results
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    calls_per_s = len(nominal) / sum(nominal)

    report = {"workload": name, "seed": seed, "trace": int(traced), "seconds": seconds}
    if traced:
        tracer = spans.Tracer()
        report["metrics"], results = traced_pass(work, tracer, lib_text, calls_per_s)
        digests = work.digests(results)
        changed.append({i for i, (d, r) in enumerate(zip(digests, reference)) if d != r})
        OUT.mkdir(exist_ok=True)
        tracer.dump(OUT / f"spans-{name}-seed{seed}.csv.gz")

    # A call fails if it raised, its result fails re-verification, or a
    # later pass did not reproduce it.
    checked = work.check(first)
    bad = {i for i, (b, _) in enumerate(checked) if b}
    attempted = len(reference) * len(changed)
    failed = sum(len(bad | c) for c in changed)
    quality = work.quality(checked)
    quality["failed_share"] = failed / attempted
    if not traced:
        raw = {
            "setup_s": statistics.median(setups),
            "calls_per_s": len(latencies) / timed,
            "call_ms_p50": 1e3 * statistics.median(latencies),
            "call_ms_p90": 1e3 * statistics.quantiles(latencies, n=10)[8],
        }
        report["metrics"] = {
            "setup_s": raw["setup_s"] * setup_meter.speed(),
            "calls_per_s": calls_per_s,
            "call_ms_p50": 1e3 * statistics.median(nominal),
            "call_ms_p90": 1e3 * statistics.quantiles(nominal, n=10)[8],
            "peak_rss_mb": peak_rss_mb,
            "feasible_share": quality["feasible_share"],
            "mean_reliability": quality["mean_reliability"],
        }
        report["wall_clock"] = raw
    report.update(
        correct=failed == 0 and not selftest,
        attempted=attempted,
        failed=failed,
        passes=len(changed),
        latency_samples=len(latencies),
        timed_s=timed,
        speed={"setup": setup_meter.speed(), "timed": meter.speed(), "samples": len(meter.samples)},
        setup_s_samples=setups,
        selftest_failures=selftest,
        quality=quality,
        digest=sha("".join(reference)),
        digests=reference,
        artifacts=work.artifacts,
        machine=machine(),
    )
    return report


def machine() -> dict:
    return {"python": platform.python_version(), "cpus": os.cpu_count(),
            "arch": platform.machine(), "system": platform.system()}


def traced_pass(work, tracer, lib_text, untraced_cps):
    """One pass with every public relsyn function wrapped -> per-layer metrics."""
    tracer.install()
    try:
        tracer.begin_call(setup=True)
        work.relsyn.parse_library(lib_text)
        for text in work.texts:
            work.relsyn.parse_dfg(text)
        tracer.end_call()
        meter = Meter(tracer)
        results, ends, lat = work.one_pass(meter)
        traced_cps = len(lat) / sum(meter.nominal(ends, lat))
    finally:
        tracer.uninstall()

    stats = tracer.layer_stats()
    label = {name.rsplit(".", 1)[-1]: name for name in stats}  # by bare function name
    zero = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    metrics = {}
    for metric, fields in PER_LAYER.items():
        s = stats.get(label.get(metric.rsplit(".", 1)[-1], ""), zero)
        metrics.update({f"{metric}.{f}": s[f] for f in fields})
    sched = metrics["scheduler.density_schedule.calls"]
    finds = metrics["synthesizer.find_design.calls"]
    parse_s = metrics["model.parse_dfg.total_s"]
    under = tracer.count_under(label.get("density_schedule", ""), label.get("find_design", ""))
    metrics.update({
        "scheduler.density_schedule.distinct_ratio": len(tracer.sched_keys) / sched if sched else 0.0,
        "synthesizer.find_design.sched_calls_per_call": under / finds if finds else 0.0,
        "binder.bind.instances_mean": statistics.fmean(tracer.instances) if tracer.instances else 0.0,
        "model.parse_dfg.nodes_per_s": tracer.parsed_nodes / parse_s if parse_s else 0.0,
        "trace.untraced_calls_per_s": untraced_cps,
        "trace.traced_calls_per_s": traced_cps,
        "trace.overhead_pct": 100.0 * (untraced_cps / traced_cps - 1),
    })
    return metrics, results


# -- reporting ------------------------------------------------------------


def print_report(report: dict) -> None:
    name, m, q = report["workload"], report["metrics"], report["quality"]
    print(f"{name} seed {report['seed']} trace {report['trace']}: {report['attempted']} calls in "
          f"{report['passes']} passes, {report['failed']} failed, correct={report['correct']}")
    if report["trace"]:
        for key, value in m.items():
            print(f"  {key:<48} {value:<14.6g} {unit_of(key)}")
        return
    wall, n = report["wall_clock"], report["latency_samples"]
    notes = {
        "setup_s": f"median of {len(report['setup_s_samples'])} set-ups",
        "calls_per_s": f"{n} calls in {report['timed_s']:.2f} s",
        "call_ms_p50": f"{n} samples",
        "call_ms_p90": f"{n} samples",
    }
    for key in UNITS:
        value = m.get(key, q.get(key))
        if value is not None:
            note = f"wall clock {wall[key]:<10.6g} {notes[key]}" if key in wall else ""
            print(f"  {key:<24} {value:<14.6g} {UNITS[key]:<6} {note}")
    print(f"  {'machine speed':<24} {report['speed']['timed']:<14.6g} {'x':<6} "
          f"{report['speed']['samples']} reference samples; set-up {report['speed']['setup']:.6g}")
    print(f"  {'output digest':<24} {report['digest']}")
    for line in report["selftest_failures"]:
        print(f"  verifier self-test: {line}")


def result_line(report: dict) -> str:
    """The JSON line: traced runs carry every per-layer metric, untraced
    runs the gated end-to-end ones."""
    return json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in report["metrics"].items()
                    if report["trace"] or k in GATED},
    })


LAYER_UNITS = {"calls": "count", "total_s": "s", "self_s": "s", "distinct_ratio": "ratio",
               "sched_calls_per_call": "count", "instances_mean": "count", "nodes_per_s": "1/s",
               "untraced_calls_per_s": "1/s", "traced_calls_per_s": "1/s", "overhead_pct": "%"}


def unit_of(key: str) -> str:
    return UNITS.get(key) or LAYER_UNITS[key.rsplit(".", 1)[-1]]


def run_all(args) -> int:
    """Every workload, untraced then traced, each in its own process."""
    reports = {}
    for name in WORKLOADS:
        for traced in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(traced)]
            proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
            sys.stdout.write(proc.stdout.rsplit("\n", 2)[0] + "\n" if proc.stdout else "")
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                print(f"error: {name} trace {traced} exited {proc.returncode}", file=sys.stderr)
                return proc.returncode or 1
            path = OUT / f"{name}-seed{args.seed}-trace{traced}.json"
            reports[f"{name}/trace{traced}"] = json.loads(path.read_text())
    summary = {
        key: {k: r[k] for k in ("workload", "seed", "trace", "seconds", "passes", "attempted",
                                "failed", "correct", "latency_samples", "metrics", "wall_clock",
                                "speed", "quality", "digest", "machine") if k in r}
        for key, r in reports.items()
    }
    (OUT / f"all-seed{args.seed}.json").write_text(json.dumps(summary, indent=1) + "\n")
    ok = all(r["correct"] for r in reports.values())
    print(json.dumps({"correct": ok, "attempted": sum(r["attempted"] for r in reports.values()),
                      "failed": sum(r["failed"] for r in reports.values()), "metrics": {}}))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=1) + "\n")
    print_report(report)
    print(result_line(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
