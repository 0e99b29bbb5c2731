"""Command-line driver.

Subcommands:
  synth        synthesize one design under latency/area bounds
  sweep        grid of bounds -> CSV, one row per (bound pair, method)
  characterize critical charges -> SER ratios, failure rates, reliabilities
  eval         reliability of an explicit assignment or serialized design

Exit codes: 0 success/feasible, 1 infeasible, 2 usage or input error,
141 (128 + SIGPIPE) when the reader of stdout closes it early.
Diagnostics go to stderr; data goes to stdout or --out.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction
from typing import IO, Sequence

from . import charlib, model, oracle, redundancy, synthesizer
from .binder import Binding, Instance, total_area
from .model import Bounds, Design, Dfg, Infeasible, ParseError, ResourceLibrary, ValidationError
from .model import evaluate_reliability

METHODS = ("ours", "nmr", "combined", "oracle")

# Largest (L, A) grid and largest L (the scheduler keeps a table entry per cycle) that
# `sweep` and `synth` accept: a typo fails at once, not after days or all of memory.
MAX_SWEEP_POINTS = 100_000
MAX_LATENCY_BOUND = 10_000
# Largest NMR factor `eval` accepts: a vote's exact binomials cost time quadratic in N.
MAX_NMR_FACTOR = 10_001

# Keys `eval --design` needs; `reliability` is recomputed, never read.
_DESIGN_KEYS = ("assignment", "schedule", "binding", "instances", "latency", "area")


class InputError(Exception):
    """User-facing input problem; maps to exit code 2."""


def _read_file(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _run_method(
    method: str,
    dfg: Dfg,
    library: ResourceLibrary,
    bounds: Bounds,
    memo: synthesizer.Memo | None = None,
) -> Design | Infeasible:
    if method == "ours":
        return synthesizer.find_design(dfg, library, bounds, memo=memo)
    if method == "nmr":
        return redundancy.baseline_nmr_synth(dfg, library, bounds, memo=memo)
    if method == "combined":
        return redundancy.combined_synth(dfg, library, bounds, memo=memo)
    if method == "oracle":
        return oracle.oracle_best(dfg, library, bounds)
    raise InputError(f"unknown method {method!r}")


# -- design serialization -------------------------------------------------


def design_to_json(design: Design) -> dict:
    return {
        "assignment": {nid: v.name for nid, v in design.assignment.items()},
        "schedule": dict(design.schedule.starts),
        "binding": dict(design.binding.node_to_instance),
        "instances": [
            {"id": iid, "version": inst.version, "nmr": inst.nmr_factor}
            for iid, inst in enumerate(design.binding.instances)
        ],
        "latency": design.latency,
        "area": design.area,
        "reliability": design.reliability,
    }


def _print_design_text(design: Design, out: IO[str]) -> None:
    print(f"latency {design.latency}", file=out)
    print(f"area {design.area:g}", file=out)
    print(f"reliability {design.reliability:.5f}", file=out)
    record = design_to_json(design)
    for key in ("assignment", "schedule", "binding"):
        print(f"{key}:", file=out)
        for nid, value in record[key].items():
            print(f"  {nid} {value}", file=out)
    print("instances:", file=out)
    for iid, inst in enumerate(design.binding.instances):
        print(f"  {iid} {inst.version} nmr {inst.nmr_factor}", file=out)


def _emit_result(result: Design | Infeasible, fmt: str, out: IO[str]) -> int:
    if isinstance(result, Infeasible):
        if fmt == "json":
            record = {"status": "infeasible", "reason": result.reason, "detail": result.detail}
            print(json.dumps(record), file=out)
        else:
            print(f"infeasible: {result.reason}", file=out)
        if result.detail:
            print(f"infeasible: {result.reason}: {result.detail}", file=sys.stderr)
        return 1
    if fmt == "json":
        print(json.dumps(design_to_json(result), indent=2), file=out)
    else:
        _print_design_text(result, out)
    return 0


# -- subcommands ----------------------------------------------------------


def _cmd_synth(args: argparse.Namespace) -> int:
    if args.latency > MAX_LATENCY_BOUND:
        raise InputError(f"latency bound {args.latency} is above {MAX_LATENCY_BOUND}")
    dfg = model.parse_dfg(_read_file(args.dfg))
    library = model.parse_library(_read_file(args.lib))
    result = _run_method(args.method, dfg, library, Bounds(args.latency, args.area))
    return _emit_result(result, args.format, sys.stdout)


def _parse_range(spec: str, what: str, integral: bool = False) -> tuple[float, float]:
    parts = spec.split(":")
    if len(parts) != 2:
        raise InputError(f"{what} range must look like <lo>:<hi>, got {spec!r}")
    try:
        convert = int if integral else float
        lo, hi = convert(parts[0]), convert(parts[1])
    except ValueError as exc:
        raise InputError(f"bad {what} range {spec!r}: {exc}") from exc
    if not integral and not (math.isfinite(lo) and math.isfinite(hi)):
        raise InputError(f"{what} range {spec!r} must be finite")
    if hi < lo:
        raise InputError(f"empty {what} range {spec!r}")
    return lo, hi


def _grid_count(lo: float, hi: float, step: float) -> int:
    """How many of lo, lo + step, ... lie within hi in exact decimals, as in
    `_grid`: huge for a bad range, which the sweep refuses before `_grid`."""
    lo_q, hi_q, step_q = (Fraction(repr(x)) for x in (lo, hi, step))
    return (hi_q - lo_q) // step_q + 1


def _grid(lo: float, hi: float, step: float) -> list[float]:
    """lo, lo + step, ... up to hi, each the float nearest to its exact
    decimal value: adding `step` repeatedly drifts (10 + 0.1 + 0.1 + 0.1
    is 10.299999999999999, which a design of area 10.3 exceeds)."""
    lo_q, step_q = Fraction(repr(lo)), Fraction(repr(step))
    return [float(lo_q + k * step_q) for k in range(_grid_count(lo, hi, step))]


def _fmt_num(x: float) -> str:
    return str(int(x)) if float(x).is_integer() else repr(float(x))


def _cmd_sweep(args: argparse.Namespace) -> int:
    dfg = model.parse_dfg(_read_file(args.dfg))
    library = model.parse_library(_read_file(args.lib))
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    for m in methods:
        if m not in METHODS:
            raise InputError(f"unknown method {m!r}; choose from {', '.join(METHODS)}")
        if methods.count(m) > 1:
            raise InputError(f"method {m!r} given twice")
    if not methods:
        raise InputError("no methods given")
    l_lo, l_hi = _parse_range(args.latency, "latency", integral=True)
    a_lo, a_hi = _parse_range(args.area, "area")
    if args.step_l < 1:
        raise InputError(f"--step-l must be >= 1, got {args.step_l}")
    if not (math.isfinite(args.step_a) and args.step_a > 0):
        raise InputError(f"--step-a must be finite and > 0, got {args.step_a:g}")
    # Sized before any grid is built.
    l_count = (l_hi - l_lo) // args.step_l + 1
    if l_count * _grid_count(a_lo, a_hi, args.step_a) > MAX_SWEEP_POINTS:
        raise InputError(f"sweep grid has more than {MAX_SWEEP_POINTS} (L, A) points")
    if l_hi > MAX_LATENCY_BOUND:
        raise InputError(f"latency bound {l_hi} is above {MAX_LATENCY_BOUND}")
    if a_lo + args.step_a == a_lo or a_hi + args.step_a == a_hi:
        raise InputError(f"area step {args.step_a:g} is below the precision of {args.area!r}")
    if "oracle" in methods:  # before the first row, not after every row the limits allow
        oracle.check_limits(dfg, library, int(l_lo) + (l_count - 1) * args.step_l)
    # Schedules, latency repair and the area-repair walk depend on the latency
    # bound but not on the area bound: every point of a sweep shares them.
    memo: synthesizer.Memo = {}
    lines = ["L_d,A_d,method,status,latency,area,reliability"]
    areas = _grid(a_lo, a_hi, args.step_a)
    for l_d in range(int(l_lo), int(l_hi) + 1, args.step_l):
        for a_d in areas:
            point, bounds = f"{l_d},{_fmt_num(a_d)},", Bounds(l_d, a_d)
            for method in methods:
                result = _run_method(method, dfg, library, bounds, memo)
                if isinstance(result, Infeasible):
                    tail = f"infeasible:{result.reason},,,"
                else:
                    area, rel = _fmt_num(result.area), f"{result.reliability:.5f}"
                    tail = f"feasible,{result.latency},{area},{rel}"
                lines.append(f"{point}{method},{tail}")
    text = "\n".join(lines) + "\n"
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise InputError(f"cannot write {args.out}: {exc}") from exc
    else:
        sys.stdout.write(text)
    return 0


def _parse_name_value(spec: str, what: str) -> tuple[str, float]:
    if "=" not in spec:
        raise InputError(f"{what} must look like <name>=<value>, got {spec!r}")
    name, _, value = spec.partition("=")
    try:
        return name, float(value)
    except ValueError as exc:
        raise InputError(f"bad {what} {spec!r}: {exc}") from exc


def _cmd_characterize(args: argparse.Namespace) -> int:
    inputs = charlib.parse_qcrit(_read_file(args.qcrit))
    by_name = {inp.name: inp for inp in inputs}
    ref_name, ref_rel = _parse_name_value(args.ref, "--ref")
    if ref_name not in by_name:
        raise InputError(f"reference {ref_name!r} not found in {args.qcrit}")
    if args.qs is not None:
        q_s = args.qs
    else:
        cal_name, cal_rel = _parse_name_value(args.calibrate, "--calibrate")
        if cal_name not in by_name:
            raise InputError(f"calibration component {cal_name!r} not found in {args.qcrit}")
        q_s = charlib.calibrate_qs(
            (by_name[ref_name].q_critical, ref_rel),
            (by_name[cal_name].q_critical, cal_rel),
            args.time,
        )
    records = charlib.characterize(inputs, charlib.CharModel(q_s, ref_name, ref_rel, args.time))
    if args.format == "json":
        payload = {
            "q_s": q_s,
            "reference": ref_name,
            "reference_reliability": ref_rel,
            "t": args.time,
            "records": [
                {
                    "name": r.name,
                    "q_critical": r.q_critical,
                    "ser_ratio": r.ser_ratio_to_reference,
                    "failure_rate": r.failure_rate,
                    "reliability": r.reliability,
                }
                for r in records
            ],
        }
        print(json.dumps(payload, indent=2))
    else:
        print(f"q_s {q_s:.6g}")
        print(f"{'name':<16} {'q_critical':>12} {'ser_ratio':>12} {'failure_rate':>14} {'reliability':>12}")
        for r in records:
            print(
                f"{r.name:<16} {r.q_critical:>12.6g} {r.ser_ratio_to_reference:>12.6g} "
                f"{r.failure_rate:>14.6g} {r.reliability:>12.5f}"
            )
    return 0


def _parse_assignment_file(text: str, dfg: Dfg, library: ResourceLibrary):
    """Lines 'assign <node-id> <version-name> [nmr <odd-int>]'."""
    assignment: dict[str, model.ResourceVersion] = {}
    nmr: dict[str, int] = {}
    node_ids = set(dfg.node_ids)
    for lineno, fields in model._content_lines(text):
        if fields[0] != "assign" or len(fields) not in (3, 5):
            raise ParseError(
                f"line {lineno}: expected 'assign <node-id> <version-name> [nmr <odd-int>]'"
            )
        nid, vname = fields[1], fields[2]
        if nid not in node_ids:
            raise ParseError(f"line {lineno}: node {nid!r} is not in the graph")
        if nid in assignment:
            raise ParseError(f"line {lineno}: node {nid!r} is assigned twice")
        if len(fields) == 5:
            if fields[3] != "nmr":
                raise ParseError(f"line {lineno}: expected 'nmr <odd-int>'")
            try:
                nmr[nid] = int(fields[4])
            except ValueError as exc:
                raise ParseError(f"line {lineno}: {exc}") from exc
            if nmr[nid] > MAX_NMR_FACTOR:
                raise ParseError(f"line {lineno}: nmr factor {nmr[nid]} is above {MAX_NMR_FACTOR}")
            if nmr[nid] < 1 or nmr[nid] % 2 == 0:
                raise ParseError(f"line {lineno}: nmr factor {nmr[nid]} must be odd and >= 1")
        try:
            assignment[nid] = library.by_name(vname)
        except KeyError as exc:
            raise ParseError(f"line {lineno}: {exc.args[0]}") from exc
    model.check_assignment(dfg, assignment)
    # Each node gets its own instance; nmr applies per node.
    ids = {nid: i for i, nid in enumerate(dfg.node_ids)}
    instances = tuple(Instance(assignment[nid].name, nmr.get(nid, 1)) for nid in ids)
    return assignment, Binding(ids, instances)


def _node_table(payload: dict, key: str, dfg: Dfg) -> dict:
    """payload[key] as a dict over exactly the graph's nodes, in graph order."""
    table = payload[key]
    if not isinstance(table, dict) or set(table) != set(dfg.node_ids):
        raise InputError(f"design {key} must list exactly the graph's nodes")
    return {nid: table[nid] for nid in dfg.node_ids}


def _int(value: object) -> int:
    """`value` if it is a JSON integer: not a bool, a float or a string."""
    if type(value) is not int:
        raise ValueError(f"{value!r} is not an integer")
    return value


def _design_reliability(payload: object, dfg: Dfg, library: ResourceLibrary) -> float:
    """The reliability of a design emitted by `synth --format json`; raise
    InputError unless it is complete and consistent with `dfg` and `library`."""
    if not isinstance(payload, dict) or any(k not in payload for k in _DESIGN_KEYS):
        raise InputError(f"design JSON needs the keys {', '.join(_DESIGN_KEYS)}")
    try:
        names = _node_table(payload, "assignment", dfg)
        assignment = {nid: library.by_name(name) for nid, name in names.items()}
        for key in ("id", "version"):  # named here: a KeyError below is a lookup's message
            if any(key not in it for it in payload["instances"]):
                raise ValueError(f"missing key {key!r}")
        listed = {  # per JSON id, its instance; the binding refers to positions
            _int(it["id"]): Instance(library.by_name(it["version"]).name, _int(it.get("nmr", 1)))
            for it in payload["instances"]
        }
        ids = {nid: _int(iid) for nid, iid in _node_table(payload, "binding", dfg).items()}
        for iid in ids.values():
            if iid not in listed:
                raise KeyError(f"unknown instance id {iid}")
        position = {iid: k for k, iid in enumerate(listed)}
        binding = Binding({nid: position[iid] for nid, iid in ids.items()}, tuple(listed.values()))
        bound = {nid: listed[iid] for nid, iid in ids.items()}
        starts = {nid: _int(s) for nid, s in _node_table(payload, "schedule", dfg).items()}
        stated_latency, stated_area = _int(payload["latency"]), payload["area"]
        if type(stated_area) not in (int, float):
            raise ValueError(f"area {stated_area!r} is not a JSON number")
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        detail = exc.args[0] if isinstance(exc, KeyError) else exc  # a lookup's message, unquoted
        raise InputError(f"bad design JSON: {detail}") from exc
    if len(listed) != len(payload["instances"]):
        raise InputError("design instances repeat an id")
    if any(inst.nmr_factor > MAX_NMR_FACTOR for inst in listed.values()):
        raise InputError(f"design has an nmr factor above {MAX_NMR_FACTOR}")
    for nid, inst in bound.items():
        if inst.version != assignment[nid].name:
            raise InputError(f"node {nid!r} is {assignment[nid].name}, its instance {inst.version}")
        if starts[nid] < 1:
            raise InputError(f"node {nid!r} starts before cycle 1")
    last: dict[int, int] = {}  # per instance, its last busy cycle: its nodes share one delay
    for nid, iid in sorted(ids.items(), key=lambda item: starts[item[0]]):
        if starts[nid] <= last.get(iid, 0):
            raise InputError(f"instance {iid} is double-booked at node {nid!r}")
        last[iid] = starts[nid] + assignment[nid].delay - 1
    for src, dst in dfg.edges:
        if starts[dst] < starts[src] + assignment[src].delay:
            raise InputError(f"schedule breaks edge {src} -> {dst}")
    latency = max(starts[nid] + assignment[nid].delay - 1 for nid in dfg.node_ids)
    area = total_area(binding, library)
    if stated_latency != latency or stated_area != area:  # every flow states total_area exactly
        raise InputError(
            f"design states latency {stated_latency} and area {stated_area!r}, "
            f"its schedule and binding give {latency} and {area!r}"
        )
    return evaluate_reliability(dfg, assignment, binding)


def _cmd_eval(args: argparse.Namespace) -> int:
    dfg = model.parse_dfg(_read_file(args.dfg))
    library = model.parse_library(_read_file(args.lib))
    if args.design:
        try:
            payload = json.loads(_read_file(args.design))
        except (json.JSONDecodeError, RecursionError) as exc:  # too deeply nested
            raise InputError(f"bad design JSON {args.design}: {exc}") from exc
        reliability = _design_reliability(payload, dfg, library)
    else:
        assignment, binding = _parse_assignment_file(_read_file(args.assign), dfg, library)
        reliability = evaluate_reliability(dfg, assignment, binding)
    if args.format == "json":
        print(json.dumps({"reliability": reliability}))
    else:
        print(f"reliability {reliability:.5f}")
    return 0


# -- argument parsing -----------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relsyn",
        description="Reliability-aware scheduling, binding, and module selection.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # Options shared by several subcommands, declared once.
    inputs = argparse.ArgumentParser(add_help=False)
    inputs.add_argument("--dfg", required=True, help="data-flow graph file")
    inputs.add_argument("--lib", required=True, help="resource library file")
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("text", "json"), default="text")

    synth = sub.add_parser(
        "synth", parents=[inputs, fmt], help="synthesize one design under bounds"
    )
    synth.add_argument("--latency", required=True, type=int, help="latency bound (cycles)")
    synth.add_argument("--area", required=True, type=float, help="area bound (units)")
    synth.add_argument("--method", choices=METHODS, default="ours")
    synth.set_defaults(func=_cmd_synth)

    sweep = sub.add_parser("sweep", parents=[inputs], help="evaluate a grid of bounds to CSV")
    sweep.add_argument("--latency", required=True, help="latency range <lo>:<hi>")
    sweep.add_argument("--area", required=True, help="area range <lo>:<hi>")
    sweep.add_argument("--step-l", dest="step_l", type=int, default=1)
    sweep.add_argument("--step-a", dest="step_a", type=float, default=1)
    sweep.add_argument("--methods", required=True, help="comma-separated method list")
    sweep.add_argument("--out", default=None, help="CSV output path (default stdout)")
    sweep.set_defaults(func=_cmd_sweep)

    char = sub.add_parser("characterize", parents=[fmt], help="critical charges -> reliabilities")
    char.add_argument("--qcrit", required=True, help="critical-charge file")
    char.add_argument("--ref", required=True, help="<name>=<reliability> anchor")
    group = char.add_mutually_exclusive_group(required=True)
    group.add_argument("--qs", type=float, help="charge-collection efficiency (C)")
    group.add_argument("--calibrate", help="<name>=<reliability> second fit point")
    char.add_argument("--time", type=float, default=1.0, help="mission time (default 1)")
    char.set_defaults(func=_cmd_characterize)

    ev = sub.add_parser(
        "eval", parents=[inputs, fmt], help="evaluate an explicit assignment or design"
    )
    group = ev.add_mutually_exclusive_group(required=True)
    group.add_argument("--assign", help="assignment file")
    group.add_argument("--design", help="design JSON file (as emitted by synth)")
    ev.set_defaults(func=_cmd_eval)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        status = args.func(args)
        sys.stdout.flush()  # a closed stdout fails here, not in the flush at exit
        return status
    except BrokenPipeError:
        # The reader went away (`relsyn synth ... | head -1`): point stdout at
        # devnull so the flush at exit stays quiet too.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (
        InputError,
        ParseError,
        ValidationError,
        oracle.OracleLimitError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
