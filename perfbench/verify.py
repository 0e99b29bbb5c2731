"""Independent re-verification of synthesis results.

A design is checked in its documented JSON form (the keys emitted by
`relsyn synth --format json`: assignment, schedule, binding, instances,
latency, area, reliability) against the benchmark's own view of the
graph and library.  Nothing here imports relsyn: precedence, instance
double-booking, latency, area and reliability are all recomputed with
plain loops.

    python3 perfbench/verify.py      # self-test: corrupted designs are rejected
"""

from __future__ import annotations

import copy
import math

from gen import Graph, Version

REL_TOL = 1e-9
AREA_TOL = 1e-9


def majority_reliability(r: float, n: int) -> float:
    """Reliability of n voted copies of a unit of reliability r."""
    k = (n + 1) // 2
    return sum(math.comb(n, i) * r**i * (1 - r) ** (n - i) for i in range(k, n + 1))


def problems(
    graph: Graph,
    lib: dict[str, Version],
    design: dict,
    latency_bound: int | None = None,
    area_bound: float | None = None,
) -> list[str]:
    """Every way `design` is inconsistent or misses a bound; [] if none."""
    out: list[str] = []
    try:
        _check(graph, lib, design, latency_bound, area_bound, out)
    except (KeyError, TypeError, ValueError) as exc:
        out.append(f"malformed design: {exc!r}")
    return out


def _check(graph, lib, design, latency_bound, area_bound, out) -> None:
    nodes = set(graph.nodes)
    assignment = design["assignment"]
    if set(assignment) != nodes:
        out.append("assignment does not cover exactly the graph's nodes")
        return
    version = {}
    for nid in graph.nodes:
        v = lib.get(assignment[nid])
        if v is None:
            out.append(f"{nid}: unknown version {assignment[nid]!r}")
            return
        if v.op != graph.op[nid]:
            out.append(f"{nid}: {v.name} does not implement {graph.op[nid]}")
        version[nid] = v

    starts = design["schedule"]
    if set(starts) != nodes:
        out.append("schedule does not cover exactly the graph's nodes")
        return
    for nid in graph.nodes:
        if not (isinstance(starts[nid], int) and starts[nid] >= 1):
            out.append(f"{nid}: start {starts[nid]!r} is not a cycle >= 1")
    for src, dst in graph.edges:
        if starts[dst] < starts[src] + version[src].delay:
            out.append(f"precedence {src}->{dst} violated")
    latency = max(starts[nid] + version[nid].delay - 1 for nid in graph.nodes)
    if latency != design["latency"]:
        out.append(f"latency {design['latency']} but schedule ends at {latency}")

    instances = {}
    for inst in design["instances"]:
        if inst["id"] in instances:
            out.append(f"instance id {inst['id']} repeated")
        n = inst["nmr"]
        if not (isinstance(n, int) and n >= 1 and n % 2 == 1):
            out.append(f"instance {inst['id']}: redundancy {n!r} is not odd and >= 1")
        if inst["version"] not in lib:
            out.append(f"instance {inst['id']}: unknown version {inst['version']!r}")
            return
        instances[inst["id"]] = inst
    binding = design["binding"]
    if set(binding) != nodes:
        out.append("binding does not cover exactly the graph's nodes")
        return
    busy: dict[int, dict[int, str]] = {}
    for nid in graph.nodes:
        inst = instances.get(binding[nid])
        if inst is None:
            out.append(f"{nid}: bound to unknown instance {binding[nid]!r}")
            return
        if inst["version"] != version[nid].name:
            out.append(f"{nid}: {version[nid].name} bound to a {inst['version']} instance")
        cycles = busy.setdefault(inst["id"], {})
        for c in range(starts[nid], starts[nid] + version[nid].delay):
            if c in cycles:
                out.append(f"instance {inst['id']} double-booked at cycle {c}: {cycles[c]}, {nid}")
            cycles[c] = nid

    area = sum(lib[i["version"]].area * i["nmr"] for i in instances.values())
    if abs(area - design["area"]) > AREA_TOL:
        out.append(f"area {design['area']} but instances add up to {area}")
    reliability = 1.0
    for nid in graph.nodes:
        n = instances[binding[nid]]["nmr"]
        r = version[nid].reliability
        reliability *= r if n == 1 else majority_reliability(r, n)
    if not math.isclose(reliability, design["reliability"], rel_tol=REL_TOL):
        out.append(f"reliability {design['reliability']} but recomputed {reliability}")

    if latency_bound is not None and latency > latency_bound:
        out.append(f"latency {latency} exceeds bound {latency_bound}")
    if area_bound is not None and area > area_bound + AREA_TOL:
        out.append(f"area {area} exceeds bound {area_bound}")


def corruptions(graph: Graph, design: dict) -> dict[str, tuple[dict, str]]:
    """Copies of a valid design, each broken in one way, with a phrase the
    verifier's report must contain for it."""

    def variant(edit, expect):
        d = copy.deepcopy(design)
        edit(d)
        return d, expect

    src, dst = graph.edges[0]
    first = graph.nodes[0]
    by_version: dict[str, list[str]] = {}
    for nid in graph.nodes:
        by_version.setdefault(design["assignment"][nid], []).append(nid)
    a, b = next(v for v in by_version.values() if len(v) > 1)[:2]

    def double_book(d):
        d["binding"][b] = d["binding"][a]
        d["schedule"][b] = d["schedule"][a]

    return {
        "precedence": variant(
            lambda d: d["schedule"].__setitem__(dst, d["schedule"][src]), "precedence"
        ),
        "double-booking": variant(double_book, "double-booked"),
        "latency-field": variant(lambda d: d.__setitem__("latency", d["latency"] - 1), "latency"),
        "area-field": variant(lambda d: d.__setitem__("area", d["area"] - 1), "area"),
        "reliability-field": variant(
            lambda d: d.__setitem__("reliability", d["reliability"] * 1.001), "reliability"
        ),
        "redundancy": variant(lambda d: d["instances"][0].__setitem__("nmr", 2), "redundancy"),
        "unbound-node": variant(lambda d: d["binding"].pop(first), "binding"),
    }


def self_test(graph: Graph, lib: dict[str, Version], design: dict, bounds: tuple) -> list[str]:
    """Failures of the verifier itself: a valid design rejected, or a
    corrupted one (or one over its bounds) not reported as such."""
    out = []
    found = problems(graph, lib, design, *bounds)
    if found:
        out.append(f"valid design rejected: {found}")
    cases = dict(corruptions(graph, design))
    cases["latency-bound"] = (design, "exceeds bound")
    cases["area-bound"] = (design, "exceeds bound")
    tight = {"latency-bound": (design["latency"] - 1, None), "area-bound": (None, design["area"] - 0.5)}
    for what, (bad, expect) in cases.items():
        report = problems(graph, lib, bad, *tight.get(what, (None, None)))
        if not any(expect in line for line in report):
            out.append(f"{what} not detected (report: {report})")
    return out


if __name__ == "__main__":
    import sys

    # Two additions serialized on one adder, feeding one multiplication:
    # latency 6, area 1 + 2, reliability 0.999^3.
    lib = {
        "Adder1": Version("Adder1", "add", 1.0, 2, 0.999),
        "Mult1": Version("Mult1", "mul", 2.0, 2, 0.999),
    }
    graph = Graph("fixture", ("a", "b", "c"), {"a": "add", "b": "add", "c": "mul"},
                  (("a", "c"), ("b", "c")))
    design = {
        "assignment": {"a": "Adder1", "b": "Adder1", "c": "Mult1"},
        "schedule": {"a": 1, "b": 3, "c": 5},
        "binding": {"a": 0, "b": 0, "c": 1},
        "instances": [{"id": 0, "version": "Adder1", "nmr": 1},
                      {"id": 1, "version": "Mult1", "nmr": 1}],
        "latency": 6,
        "area": 3.0,
        "reliability": 0.999**3,
    }
    failures = self_test(graph, lib, design, (6, 3.0))
    for line in failures:
        print(f"FAIL {line}")
    print("verifier self-test:", "FAIL" if failures else "ok")
    sys.exit(1 if failures else 0)
