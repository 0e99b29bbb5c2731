import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from relsyn import cli, oracle
from relsyn.model import data_text, nmr_reliability

QCRIT = (
    "qcrit ripple 59.460e-21\n"
    "qcrit brentkung 29.701e-21\n"
    "qcrit koggestone 37.291e-21\n"
)


@pytest.fixture
def workspace(tmp_path):
    (tmp_path / "fir16.dfg").write_text(data_text("fir16.dfg"))
    (tmp_path / "diffeq.dfg").write_text(data_text("diffeq.dfg"))
    (tmp_path / "one.dfg").write_text("node a add\n")
    (tmp_path / "table1.lib").write_text(data_text("table1.lib"))
    (tmp_path / "qcrit.txt").write_text(QCRIT)
    return tmp_path


@pytest.fixture
def relsyn(workspace, capsys, monkeypatch):
    """Run `relsyn <command> <options>` in the workspace and return (exit code,
    stdout, stderr).  synth, sweep and eval also get `--dfg dfg --lib lib`
    first; None leaves one out."""
    monkeypatch.chdir(workspace)

    def run(command, *options, dfg="fir16.dfg", lib="table1.lib"):
        argv = [command]
        for flag, name in (("--dfg", dfg), ("--lib", lib)):
            if name is not None and command != "characterize":
                argv += [flag, name]
        code = cli.main([*argv, *options])
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return run


def test_synth_feasible_text(relsyn):
    code, out, _ = relsyn("synth", "--latency", "11", "--area", "12")
    assert code == 0
    assert "reliability 0.78943" in out
    assert "latency 11" in out


def test_synth_infeasible_latency_exit_one(relsyn):
    code, out, err = relsyn("synth", "--latency", "1", "--area", "1", dfg="diffeq.dfg")
    assert code == 1
    assert "infeasible: latency" in out
    assert err.splitlines() == [
        "infeasible: latency: minimum latency 4 exceeds bound 1 and no "
        "critical-path node has a faster version"
    ]


def test_synth_infeasible_json_carries_detail(relsyn):
    code, out, _ = relsyn(
        "synth", "--latency", "1", "--area", "1", "--format", "json", dfg="diffeq.dfg"
    )
    assert code == 1
    assert json.loads(out) == {
        "status": "infeasible",
        "reason": "latency",
        "detail": "minimum latency 4 exceeds bound 1 and no "
        "critical-path node has a faster version",
    }


def test_synth_missing_lib_exit_two(relsyn):
    code, _, _ = relsyn("synth", "--latency", "11", "--area", "8", lib=None)
    assert code == 2


def test_synth_bad_input_file_exit_two(relsyn):
    code, _, err = relsyn("synth", "--latency", "11", "--area", "8", dfg="missing.dfg")
    assert code == 2
    assert "error" in err


def test_synth_into_a_closed_pipe_exits_141_without_a_traceback(workspace):
    # `relsyn synth ... | head -1`: 3,000 nodes, the second half each fed by one
    # of the first, print about 136 kB, more than a pipe holds, so a write
    # after the reader closes fails.
    lines = [f"node v{k} {('add', 'mul')[k % 3 == 0]}" for k in range(3000)]
    lines += [f"edge v{k} v{k + 1500}" for k in range(1500)]
    (workspace / "wide.dfg").write_text("\n".join(lines) + "\n")
    argv = [sys.executable, "-m", "relsyn.cli", "synth", "--dfg", "wide.dfg"]
    argv += ["--lib", "table1.lib", "--latency", "4", "--area", "100000"]
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    with open(workspace / "stderr.txt", "wb") as err:
        proc = subprocess.Popen(argv, cwd=workspace, env=env, stdout=subprocess.PIPE, stderr=err)
        try:
            assert proc.stdout.readline() == b"latency 4\n"
            proc.stdout.close()
            assert proc.wait(timeout=120) == 141
        finally:
            proc.kill()
            proc.wait()
    assert (workspace / "stderr.txt").read_bytes() == b""


def test_synth_empty_dfg_exit_two(relsyn, workspace):
    (workspace / "empty.dfg").write_text("# no nodes\n")
    code, _, err = relsyn("synth", "--latency", "11", "--area", "8", dfg="empty.dfg")
    assert code == 2
    assert "no nodes declared" in err


def test_synth_json_schema(relsyn):
    code, out, _ = relsyn("synth", "--latency", "11", "--area", "12", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {
        "assignment", "schedule", "binding", "instances",
        "latency", "area", "reliability",
    }
    assert payload["latency"] <= 11
    assert payload["area"] <= 12
    for item in payload["instances"]:
        assert set(item) == {"id", "version", "nmr"}


def test_synth_oracle_method_respects_limits(relsyn):
    # fir16 exceeds the oracle node limit: input error.
    code, _, err = relsyn("synth", "--latency", "11", "--area", "12", "--method", "oracle")
    assert code == 2
    assert "oracle" in err or "nodes" in err


def test_sweep_row_count_and_order(relsyn):
    code, out, _ = relsyn(
        "sweep", "--latency", "10:12", "--area", "9:13", "--step-a", "2", "--methods", "ours,nmr"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "L_d,A_d,method,status,latency,area,reliability"
    assert len(lines) == 1 + 18  # 3 x 3 grid x 2 methods
    keys = [tuple(line.split(",")[:3]) for line in lines[1:]]
    assert keys == sorted(keys, key=lambda k: (int(k[0]), float(k[1]), k[2] == "nmr"))
    # Feasible rows respect their bounds.
    for line in lines[1:]:
        l_d, a_d, method, status, latency, area, reliability = line.split(",")
        if status == "feasible":
            assert int(latency) <= int(l_d)
            assert float(area) <= float(a_d)
            assert 0 < float(reliability) <= 1


def test_sweep_with_oracle_method_on_small_graph(relsyn, workspace):
    small = "node a add\nnode b add\nnode c mul\nedge a b\nedge b c\n"
    (workspace / "small.dfg").write_text(small)
    code, out, _ = relsyn(
        "sweep", "--latency", "3:5", "--area", "4:8", "--step-a", "4", "--methods", "oracle,ours",
        dfg="small.dfg",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 1 + 3 * 2 * 2
    # The exhaustive method is never worse than the heuristic on any
    # grid point where both are feasible.
    rows = [line.split(",") for line in lines[1:]]
    by_point = {}
    for l_d, a_d, method, status, _, _, reliability in rows:
        by_point.setdefault((l_d, a_d), {})[method] = (status, reliability)
    for point, methods in by_point.items():
        o_status, o_rel = methods["oracle"]
        h_status, h_rel = methods["ours"]
        if o_status == "feasible" and h_status == "feasible":
            assert float(o_rel) >= float(h_rel) - 1e-5


EIGHT_NODES = (
    "node a add\nnode b add\nnode c mul\nnode d mul\nnode e add\nnode f add\nnode g mul\n"
    "node h add\nedge a c\nedge b c\nedge c e\nedge d e\nedge e g\nedge f g\nedge g h\n"
)


@pytest.mark.parametrize(
    "dfg, latency, message",
    [
        ("eight.dfg", ("--latency", "3:13"), "error: latency bound 13 exceeds oracle limit 12\n"),
        (  # L 3 and 14 only
            "eight.dfg", ("--latency", "3:14", "--step-l", "11"),
            "error: latency bound 14 exceeds oracle limit 12\n",
        ),
        ("diffeq.dfg", ("--latency", "4:6"), "error: 11 nodes exceeds oracle limit 8\n"),
    ],
)
def test_sweep_refuses_oracle_limits_before_the_first_row(
    relsyn, workspace, monkeypatch, dfg, latency, message
):
    # The rows below the oracle's limits used to run first, and were then
    # thrown away with the exit code 2.
    (workspace / "eight.dfg").write_text(EIGHT_NODES)
    calls = []
    oracle_best = oracle.oracle_best

    def counting(*args, **kwargs):
        calls.append(args)
        return oracle_best(*args, **kwargs)

    monkeypatch.setattr(oracle, "oracle_best", counting)
    code, out, err = relsyn(
        "sweep", *latency, "--area", "1:60", "--step-a", "0.25", "--methods", "ours,oracle",
        "--out", "rows.csv", dfg=dfg,
    )
    assert (code, out, err) == (2, "", message)
    assert calls == []
    assert not (workspace / "rows.csv").exists()


def test_sweep_with_oracle_checks_the_last_latency_it_sweeps(relsyn, workspace):
    # With step 3, L 6:13 sweeps 6, 9 and 12: every row is within the limit.
    (workspace / "eight.dfg").write_text(EIGHT_NODES)
    code, out, _ = relsyn(
        "sweep", "--latency", "6:13", "--step-l", "3", "--area", "8:8", "--methods", "oracle",
        dfg="eight.dfg",
    )
    assert code == 0
    assert [line.split(",")[0] for line in out.splitlines()[1:]] == ["6", "9", "12"]


def test_sweep_empty_range_is_input_error(relsyn):
    code, _, err = relsyn("sweep", "--latency", "12:10", "--area", "9:13", "--methods", "ours")
    assert code == 2
    assert "empty" in err


@pytest.mark.parametrize(
    "latency, area, step, message",
    [
        ("11:11", "6:40", "1e-9", "sweep grid has more than 100000"),
        ("1:" + "9" * 400, "6:6", "1", "sweep grid has more than 100000"),
        ("11:11", "1e17:1e17", "1", "below the precision"),  # the step would not advance
        ("11:11", "6:inf", "1", "must be finite"),
    ],
)
def test_sweep_refuses_unbounded_grid(relsyn, latency, area, step, message):
    code, out, err = relsyn(
        "sweep", "--latency", latency, "--area", area, "--step-a", step, "--methods", "ours"
    )
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert message in err


@pytest.mark.parametrize(
    "command, options, latency",
    [
        ("synth", ("--latency", "1" + "0" * 20, "--area", "10", "--method", "nmr"), "1" + "0" * 20),
        ("sweep", ("--latency", "9999:10001", "--area", "10:10", "--methods", "ours,nmr"), "10001"),
    ],
)
def test_latency_bound_above_the_cap_is_refused(relsyn, command, options, latency):
    # Each latency bound costs a table entry per cycle, so an unbounded one
    # would fill memory before it failed.
    code, out, err = relsyn(command, *options)
    assert code == 2
    assert out == ""
    assert err == f"error: latency bound {latency} is above 10000\n"


def test_latency_bound_at_the_cap_is_accepted(relsyn):
    code, out, _ = relsyn(
        "synth", "--latency", str(cli.MAX_LATENCY_BOUND), "--area", "10", "--method", "nmr"
    )
    assert code == 0
    assert "reliability" in out


def test_sweep_area_grid_has_exact_decimal_values(relsyn, workspace):
    # One adder of area exactly 10.3: feasible from the fourth grid value on,
    # which must be 10.3 itself, not 10 + 0.1 + 0.1 + 0.1 = 10.299999999999999.
    (workspace / "one.lib").write_text("resource A103 add 10.3 1 0.99\n")
    code, out, _ = relsyn(
        "sweep", "--latency", "1:1", "--area", "10:11", "--step-a", "0.1", "--methods", "ours",
        dfg="one.dfg", lib="one.lib",
    )
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert [row[1] for row in rows] == [
        "10", "10.1", "10.2", "10.3", "10.4", "10.5", "10.6", "10.7", "10.8", "10.9", "11",
    ]
    assert [row[3] for row in rows] == ["infeasible:area"] * 3 + ["feasible"] * 8
    assert rows[3][5] == "10.3"
    # The grid holds as many values as the sweep's size check counts.
    assert cli._grid(0.0, 0.3, 0.1) == [0.0, 0.1, 0.2, 0.3]
    assert cli._grid_count(0.0, 0.3, 0.1) == 4
    assert cli._grid(8.0, 40.0, 4.0) == [8.0 + 4 * k for k in range(9)]
    # A range that ends just short of a grid value leaves that value out.
    assert cli._grid(0.5, 0.9999999999, 0.5) == [0.5]
    assert cli._grid_count(0.5, 0.9999999999, 0.5) == 1


def test_sweep_unwritable_out_path(relsyn):
    code, _, err = relsyn(
        "sweep", "--latency", "11:11", "--area", "9:9", "--methods", "ours",
        "--out", "no-such-dir/x.csv",
    )
    assert code == 2
    assert "cannot write" in err


def test_characterize_calibrate(relsyn):
    code, out, _ = relsyn(
        "characterize", "--qcrit", "qcrit.txt", "--ref", "ripple=0.999",
        "--calibrate", "brentkung=0.969", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["q_s"] == pytest.approx(8.63e-21, rel=1e-2)
    by_name = {r["name"]: r for r in payload["records"]}
    assert by_name["koggestone"]["reliability"] == pytest.approx(0.987, abs=1e-3)
    assert by_name["ripple"]["reliability"] == 0.999


def test_characterize_direct_qs(relsyn):
    code, out, _ = relsyn(
        "characterize", "--qcrit", "qcrit.txt", "--ref", "ripple=0.999", "--qs", "8.6278e-21"
    )
    assert code == 0
    assert "q_s 8.6278e-21" in out


def test_characterize_unknown_reference(relsyn):
    code, _, err = relsyn(
        "characterize", "--qcrit", "qcrit.txt", "--ref", "carrylook=0.999", "--qs", "8.6278e-21"
    )
    assert code == 2
    assert "carrylook" in err


def test_characterize_reliability_that_underflows_to_zero_is_json(relsyn, workspace):
    # exp(500) times ln 2 is a finite failure rate whose reliability is 0.0.
    (workspace / "q.txt").write_text("qcrit a 1\nqcrit b 2\n")
    code, out, err = relsyn(
        "characterize", "--qcrit", "q.txt", "--ref", "b=0.5", "--qs", "0.002", "--format", "json"
    )
    assert (code, err) == (0, "")

    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    records = json.loads(out, parse_constant=refuse)["records"]
    assert [r["reliability"] for r in records] == [0.0, 0.5]


def _write_fir16_assignment(path, chain_version="Adder2"):
    # 16 nodes on 0.999 versions, 7 accumulations on the given version.
    lines = [f"assign s{i} {chain_version}" for i in range(1, 8)]
    lines += [f"assign a{i} Adder1" for i in range(8)]
    lines += [f"assign m{i} Mult1" for i in range(8)]
    path.write_text("\n".join(lines) + "\n")


def test_eval_fir16_all_low(relsyn, workspace):
    assign = workspace / "low.assign"
    lines = [f"assign s{i} Adder2" for i in range(1, 8)]
    lines += [f"assign a{i} Adder2" for i in range(8)]
    lines += [f"assign m{i} Mult2" for i in range(8)]
    assign.write_text("\n".join(lines) + "\n")
    code, out, _ = relsyn("eval", "--assign", str(assign))
    assert code == 0
    assert "reliability 0.48467" in out


def test_eval_fir16_mixed(relsyn, workspace):
    assign = workspace / "mixed.assign"
    _write_fir16_assignment(assign)
    code, out, _ = relsyn("eval", "--assign", str(assign))
    assert code == 0
    assert "reliability 0.78943" in out


def test_eval_diffeq_mixed(relsyn, workspace):
    assign = workspace / "diffeq.assign"
    lines = [f"assign m{i} Mult1" for i in range(1, 7)]
    lines += ["assign a1 Adder1", "assign a2 Adder1"]
    lines += ["assign s1 Adder2", "assign s2 Adder2", "assign c1 Adder2"]
    assign.write_text("\n".join(lines) + "\n")
    code, out, _ = relsyn("eval", "--assign", str(assign), dfg="diffeq.dfg")
    assert code == 0
    assert "reliability 0.90260" in out


def test_eval_with_nmr_per_node(relsyn, workspace):
    assign = workspace / "tmr.assign"
    assign.write_text("assign a Adder2 nmr 3\n")
    code, out, _ = relsyn("eval", "--assign", str(assign), dfg="one.dfg")
    assert code == 0
    assert "reliability 0.99718" in out


def test_eval_partial_assignment_is_error(relsyn, workspace):
    assign = workspace / "partial.assign"
    assign.write_text("assign s1 Adder2\n")
    code, _, err = relsyn("eval", "--assign", str(assign))
    assert code == 2
    assert "missing" in err


def test_eval_class_mismatch_is_error(relsyn, workspace):
    assign = workspace / "bad.assign"
    _write_fir16_assignment(assign, chain_version="Mult1")
    code, _, err = relsyn("eval", "--assign", str(assign))
    assert code == 2
    assert "assigned" in err


@pytest.mark.parametrize(
    "extra, message",
    [
        ("assign a1 Adder3", "line 12: node 'a1' is assigned twice"),
        ("assign zzz Adder1", "line 12: node 'zzz' is not in the graph"),
    ],
    ids=["assigned-twice", "unknown-node"],
)
def test_eval_rejects_bad_assignment_line(relsyn, workspace, extra, message):
    # diffeq on Adder1 and Mult1 everywhere (eleven lines), then `extra`.
    assign = workspace / "diffeq.assign"
    lines = [f"assign m{i} Mult1" for i in range(1, 7)]
    lines += [f"assign {nid} Adder1" for nid in ("a1", "a2", "s1", "s2", "c1")]
    assign.write_text("\n".join(lines + [extra]) + "\n")
    code, out, err = relsyn("eval", "--assign", str(assign), dfg="diffeq.dfg")
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_design_json_round_trip(relsyn, tmp_path):
    code, out, _ = relsyn("synth", "--latency", "11", "--area", "12", "--format", "json")
    assert code == 0
    design_path = tmp_path / "design.json"
    design_path.write_text(out)
    code, out2, _ = relsyn("eval", "--design", str(design_path), "--format", "json")
    assert code == 0
    original = json.loads(out)["reliability"]
    reevaluated = json.loads(out2)["reliability"]
    assert reevaluated == pytest.approx(original, rel=1e-10)


def _renumbered(design):
    """`design` with instance id k renamed 100 + 3k and its instances listed in reverse."""
    design["binding"] = {nid: 100 + 3 * iid for nid, iid in design["binding"].items()}
    for inst in design["instances"]:
        inst["id"] = 100 + 3 * inst["id"]
    design["instances"].reverse()
    return design


def test_eval_design_reads_instance_ids_as_names(relsyn, tmp_path):
    # A design file may number its instances in any order: eval maps them to positions.
    code, out, _ = relsyn("synth", "--latency", "11", "--area", "16", "--method", "combined",
                          "--format", "json")
    assert code == 0
    design = _renumbered(json.loads(out))
    assert any(inst["nmr"] > 1 for inst in design["instances"])
    design_path = tmp_path / "design.json"
    design_path.write_text(json.dumps(design))
    code, out2, err = relsyn("eval", "--design", str(design_path), "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out2)["reliability"] == json.loads(out)["reliability"]
    # The double-booking names the file's id, not the instance's position.
    nodes = list(design["binding"].items())
    nid, iid = next((n, i) for k, (n, i) in enumerate(nodes) if i in dict(nodes[:k]).values())
    _double_book(design)
    design_path.write_text(json.dumps(design))
    code, out2, err = relsyn("eval", "--design", str(design_path))
    assert (code, out2, err) == (2, "", f"error: instance {iid} is double-booked at node {nid!r}\n")


def _double_book(design):
    """Start a node with the first node that shares its instance."""
    first = {}
    for nid, iid in design["binding"].items():
        if iid in first:
            design["schedule"][nid] = design["schedule"][first[iid]]
            return
        first[iid] = nid
    raise AssertionError("no shared instance")


def _break_edge(design):
    """Start m1 with its predecessor a1 (fir16 edge a1 -> m1) on a fresh instance."""
    iid = max(inst["id"] for inst in design["instances"]) + 1
    design["instances"].append({"id": iid, "version": design["assignment"]["m1"], "nmr": 1})
    design["binding"]["m1"] = iid
    design["schedule"]["m1"] = design["schedule"]["a1"]


def _wrong_instance_version(design):
    nid = next(iter(design["binding"]))
    other = "Adder1" if design["assignment"][nid] != "Adder1" else "Adder2"
    for inst in design["instances"]:
        if inst["id"] == design["binding"][nid]:
            inst["version"] = other


def _shift_before_cycle_one(design):
    first = min(design["schedule"].values())
    for nid in design["schedule"]:
        design["schedule"][nid] -= first


BAD_DESIGNS = {
    "empty": (lambda d: d.clear(), "needs the keys"),
    "missing-key": (lambda d: d.pop("instances"), "needs the keys"),
    "unknown-instance": (lambda d: d["binding"].update(m1=99), "unknown instance id 99"),
    "unknown-version": (lambda d: d["assignment"].update(m1="NoSuch"), "unknown resource version"),
    "unknown-version-unquoted": (
        lambda d: d["assignment"].update(m1="NoSuch"),
        "error: bad design JSON: unknown resource version 'NoSuch'\n",
    ),
    "instance-without-id": (
        lambda d: d["instances"][0].pop("id"), "error: bad design JSON: missing key 'id'\n"
    ),
    "unknown-node": (lambda d: d["schedule"].update(zz=1), "exactly the graph's nodes"),
    "other-version-instance": (_wrong_instance_version, "its instance"),
    "double-booked": (_double_book, "double-booked"),
    "broken-edge": (_break_edge, "breaks edge a1 -> m1"),
    "before-cycle-one": (_shift_before_cycle_one, "before cycle 1"),
    "false-latency": (lambda d: d.update(latency=d["latency"] + 1), "states latency"),
    "false-area": (lambda d: d.update(area=d["area"] + 1), "states latency"),
    "nearly-equal-area": (  # 5e-10 off in relative terms; both areas shown by repr
        lambda d: d.update(area=d["area"] + 5.5e-9),
        "area 11.0000000055, its schedule and binding give 11 and 11.0\n",
    ),
    "fractional-latency": (lambda d: d.update(latency=d["latency"] + 0.5), "not an integer"),
    "fractional-start": (
        lambda d: d["schedule"].update(m1=d["schedule"]["m1"] + 0.9), "not an integer"
    ),
    "fractional-nmr": (lambda d: d["instances"][0].update(nmr=1.5), "not an integer"),
    "even-nmr": (lambda d: d["instances"][0].update(nmr=2), "bad design JSON"),
    "string-area": (lambda d: d.update(area=str(d["area"])), "bad design JSON"),
    "bool-area": (lambda d: d.update(area=True), "bad design JSON"),
}


@pytest.mark.parametrize("case", sorted(BAD_DESIGNS))
def test_eval_rejects_inconsistent_design(relsyn, tmp_path, case):
    mutate, message = BAD_DESIGNS[case]
    code, out, _ = relsyn("synth", "--latency", "11", "--area", "12", "--format", "json")
    assert code == 0
    design = json.loads(out)
    mutate(design)
    design_path = tmp_path / "design.json"
    design_path.write_text(json.dumps(design))
    code, out, err = relsyn("eval", "--design", str(design_path))
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert message in err


@pytest.mark.parametrize(
    "b_start, code, out, err",
    [
        (10**12 + 1, 0, "reliability 0.98010\n", ""),
        (10**12, 2, "", "error: instance 0 is double-booked at node 'b'\n"),
    ],
    ids=["back-to-back", "double-booked"],
)
def test_eval_design_on_a_huge_delay(relsyn, workspace, b_start, code, out, err):
    # Two nodes on one instance of a 10^12-cycle adder: the bookings are
    # compared by their first and last cycles, not cycle by cycle.
    delay = 10**12
    (workspace / "two.dfg").write_text("node a add\nnode b add\n")
    (workspace / "slow.lib").write_text(f"resource Slow add 1 {delay} 0.99\n")
    design = {
        "assignment": {"a": "Slow", "b": "Slow"}, "schedule": {"a": 1, "b": b_start},
        "binding": {"a": 0, "b": 0}, "instances": [{"id": 0, "version": "Slow", "nmr": 1}],
        "latency": b_start + delay - 1, "area": 1.0,
    }
    (workspace / "slow.json").write_text(json.dumps(design))
    result = relsyn("eval", "--design", "slow.json", dfg="two.dfg", lib="slow.lib")
    assert result == (code, out, err)


# -- input errors: exit 2 and one `error:` line, never a traceback ----------

SYNTH = ("synth", "--latency", "11", "--area", "12")
SWEEP = ("sweep", "--latency", "10:12", "--area", "9:13", "--methods", "ours")
EVAL = ("eval", "--dfg", "one.dfg", "--assign", "bad.assign")
CHAR_QS = ("characterize", "--qcrit", "qcrit.txt", "--ref", "ripple=0.999", "--qs", "8.6e-21")
CHAR_CAL = (
    "characterize", "--qcrit", "qcrit.txt", "--ref", "ripple=0.999", "--calibrate", "brentkung=0.9"
)
REPEATED_ID_DESIGN = {
    "assignment": {"a": "Adder1"}, "schedule": {"a": 1}, "binding": {"a": 0},
    "latency": 2, "area": 1, "instances": [{"id": 0, "version": "Adder1", "nmr": 1}] * 2,
}
HUGE_NMR_INSTANCE = {"id": 0, "version": "Adder1", "nmr": 1_000_000_001}

# Each case is an argv, the files it writes into the workspace first, and a
# part of its message.  An option given again replaces the earlier one
# (argparse keeps the last), so `SWEEP + ("--step-l", "0")` sweeps with step 0.
INPUT_ERRORS = {
    "latency-range-shape": (
        SWEEP + ("--latency", "10"), {}, "latency range must look like <lo>:<hi>, got '10'"
    ),
    "area-range-number": (SWEEP + ("--area", "9:x"), {}, "bad area range '9:x'"),
    "unknown-method": (
        SWEEP + ("--methods", "ours,best"), {},
        "unknown method 'best'; choose from ours, nmr, combined, oracle",
    ),
    "no-methods": (SWEEP + ("--methods", ","), {}, "no methods given"),
    "method-twice": (SWEEP + ("--methods", "ours,nmr, ours"), {}, "method 'ours' given twice"),
    "step-l-zero": (SWEEP + ("--step-l", "0"), {}, "--step-l must be >= 1, got 0"),
    "step-a-inf": (SWEEP + ("--step-a", "inf"), {}, "--step-a must be finite and > 0, got inf"),
    "step-a-nan": (SWEEP + ("--step-a", "nan"), {}, "--step-a must be finite and > 0, got nan"),
    "ref-shape": (CHAR_QS + ("--ref", "ripple"), {}, "--ref must look like <name>=<value>"),
    "ref-value": (CHAR_QS + ("--ref", "ripple=x"), {}, "bad --ref 'ripple=x'"),
    "calibrate-shape": (
        CHAR_CAL + ("--calibrate", "brentkung"), {}, "--calibrate must look like <name>=<value>"
    ),
    "calibrate-value": (CHAR_CAL + ("--calibrate", "brentkung=x"), {}, "bad --calibrate"),
    "calibrate-unknown": (
        CHAR_CAL + ("--calibrate", "carrylook=0.9"), {},
        "calibration component 'carrylook' not found in qcrit.txt",
    ),
    "assign-shape": (
        EVAL, {"bad.assign": "assign a\n"},
        "line 1: expected 'assign <node-id> <version-name> [nmr <odd-int>]'",
    ),
    "assign-nmr-keyword": (
        EVAL, {"bad.assign": "assign a Adder1 tmr 3\n"}, "line 1: expected 'nmr <odd-int>'"
    ),
    "assign-nmr-factor": (
        EVAL, {"bad.assign": "assign a Adder1 nmr three\n"},
        "line 1: invalid literal for int() with base 10: 'three'",
    ),
    "assign-unknown-version": (
        EVAL, {"bad.assign": "assign a Adder9\n"}, "line 1: unknown resource version 'Adder9'"
    ),
    "assign-nmr-above-cap": (
        EVAL, {"bad.assign": "assign a Adder1 nmr 1000000001\n"},
        "line 1: nmr factor 1000000001 is above 10001",
    ),
    # Node a is the graph's first node (instance 0) but the file's line 2.
    "assign-nmr-even": (
        EVAL + ("--dfg", "two.dfg"),
        {
            "two.dfg": "node a add\nnode b add\n",
            "bad.assign": "assign b Adder1\nassign a Adder1 nmr 2\n",
        },
        "line 2: nmr factor 2 must be odd and >= 1",
    ),
    "assign-nmr-zero": (
        EVAL, {"bad.assign": "assign a Adder1 nmr 0\n"}, "line 1: nmr factor 0 must be odd and >= 1"
    ),
    "assign-nmr-negative": (
        EVAL, {"bad.assign": "assign a Adder1 nmr -3\n"},
        "line 1: nmr factor -3 must be odd and >= 1",
    ),
    "design-repeated-id": (
        ("eval", "--dfg", "one.dfg", "--design", "bad.json"),
        {"bad.json": json.dumps(REPEATED_ID_DESIGN)}, "design instances repeat an id",
    ),
    "design-nmr-above-cap": (
        ("eval", "--dfg", "one.dfg", "--design", "bad.json"),
        {"bad.json": json.dumps(dict(REPEATED_ID_DESIGN, instances=[HUGE_NMR_INSTANCE]))},
        "design has an nmr factor above 10001",
    ),
    "design-malformed": (
        ("eval", "--design", "bad.json"), {"bad.json": "{"},
        "bad design JSON bad.json: Expecting property name",
    ),
    "design-nested": (
        ("eval", "--design", "bad.json"), {"bad.json": "[" * 100_000 + "]" * 100_000},
        "bad design JSON bad.json: maximum recursion depth exceeded",
    ),
    "not-utf8": (
        SYNTH + ("--dfg", "bad.dfg"), {"bad.dfg": b"node \xe9 add\n"},
        "cannot read bad.dfg: 'utf-8' codec can't decode byte 0xe9",
    ),
    "dfg-node-arity": (
        SYNTH + ("--dfg", "bad.dfg"), {"bad.dfg": "node a\n"}, "line 1: expected 'node <id> <op>'"
    ),
    "dfg-unknown-directive": (
        SYNTH + ("--dfg", "bad.dfg"), {"bad.dfg": "vertex a add\n"},
        "line 1: unknown directive 'vertex'",
    ),
    "dfg-edge-unknown-source": (
        SYNTH + ("--dfg", "bad.dfg"), {"bad.dfg": "node a add\nedge zz a\n"},
        "edge references unknown node 'zz'",
    ),
    "lib-arity": (
        SYNTH + ("--lib", "bad.lib"), {"bad.lib": "resource A add 1 1\n"},
        "line 1: expected 'resource <name> <op> <area> <delay> <reliability>'",
    ),
    "lib-unknown-operation": (
        SYNTH + ("--lib", "bad.lib"), {"bad.lib": "resource A div 1 1 0.9\n"},
        "line 1: unknown operation 'div'",
    ),
    "lib-non-numeric": (
        SYNTH + ("--lib", "bad.lib"), {"bad.lib": "resource A add one 1 0.9\n"},
        "line 1: could not convert string to float: 'one'",
    ),
    "lib-area-inf": (
        SYNTH + ("--lib", "bad.lib"), {"bad.lib": "resource A1 add inf 1 0.99\n"},
        "line 1: version 'A1': area must be finite and > 0",
    ),
    "lib-area-overflow": (
        SYNTH + ("--lib", "bad.lib"), {"bad.lib": "resource A1 add 1e400 1 0.99\n"},
        "line 1: version 'A1': area must be finite and > 0",
    ),
    "sweep-lib-area-inf": (
        SWEEP + ("--lib", "bad.lib"), {"bad.lib": "resource A1 add inf 1 0.99\n"},
        "line 1: version 'A1': area must be finite and > 0",
    ),
    "eval-lib-area-overflow": (
        EVAL + ("--lib", "bad.lib"),
        {"bad.lib": "resource A1 add 1e400 1 0.99\n", "bad.assign": "assign a A1\n"},
        "line 1: version 'A1': area must be finite and > 0",
    ),
    "qcrit-number": (
        CHAR_QS + ("--qcrit", "bad.txt"), {"bad.txt": "qcrit ripple many\n"},
        "line 1: could not convert string to float: 'many'",
    ),
    "qcrit-value": (
        CHAR_QS + ("--qcrit", "bad.txt"), {"bad.txt": "qcrit ripple -1e-21\n"},
        "line 1: 'ripple': q_critical must be > 0",
    ),
    "qcrit-inf": (  # printed "q_critical": Infinity
        CHAR_QS + ("--qcrit", "bad.txt"), {"bad.txt": "qcrit ripple inf\n"},
        "line 1: 'ripple': q_critical must be > 0 and finite",
    ),
    "qs-negative": (CHAR_QS + ("--qs", "-1"), {}, "q_s must be > 0"),
    "ref-reliability": (
        CHAR_QS + ("--ref", "ripple=1"), {}, "reference reliability must be in (0, 1)"
    ),
    "time-zero": (CHAR_QS + ("--time", "0"), {}, "time horizon must be finite and > 0"),
    "calibrate-time-zero": (CHAR_CAL + ("--time", "0"), {}, "time horizon must be finite and > 0"),
    "calibrate-time-inf": (
        CHAR_CAL + ("--time", "inf"), {}, "time horizon must be finite and > 0"
    ),
    "calibrate-reliability": (
        CHAR_CAL + ("--calibrate", "brentkung=1"), {},
        "calibration reliabilities must be in (0, 1)",
    ),
    # Past the float range these raised OverflowError (exit 1) or printed
    # Infinity, which is not JSON.
    "ser-ratio-overflow": (
        CHAR_QS + ("--qcrit", "q.txt", "--ref", "b=0.999", "--qs", "0.001"),
        {"q.txt": "qcrit a 1\nqcrit b 1000\n"},
        "'a': SER ratio inf and failure rate inf must be finite",
    ),
    "failure-rate-inf": (
        CHAR_QS + ("--qcrit", "q.txt", "--ref", "b=0.5", "--qs", "0.02", "--time", "1e-300"),
        {"q.txt": "qcrit a 1\nqcrit b 2\n"},
        "'a': SER ratio 5.18471e+21 and failure rate inf must be finite",
    ),
    "ser-ratio-inf": (
        CHAR_QS + ("--qcrit", "q.txt", "--ref", "b=0.5", "--qs", "1e-320", "--format", "json"),
        {"q.txt": "qcrit a 1\nqcrit b 2\n"},
        "'a': SER ratio inf and failure rate inf must be finite",
    ),
    "calibrated-qs-inf": (
        CHAR_CAL + ("--qcrit", "q.txt", "--ref", "a=0.5", "--calibrate", "b=0.5000000001"),
        {"q.txt": "qcrit a 1e-300\nqcrit b 1e300\n"},
        "calibration gives a q_s past the float range",
    ),
}


@pytest.mark.parametrize("case", INPUT_ERRORS)
def test_input_error_exits_two(relsyn, workspace, case):
    argv, files, message = INPUT_ERRORS[case]
    for name, content in files.items():
        (workspace / name).write_bytes(content if isinstance(content, bytes) else content.encode())
    code, out, err = relsyn(*argv)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert message in err


# -- NMR past the float range of C(N, i) (N >= 1031) ------------------------

HALF_LIB = "resource A add 1 1 0.6\nresource M mul 1 1 0.6\n"


@pytest.mark.parametrize("factor", [1029, 1031])
def test_eval_nmr_beyond_float_binomials(relsyn, workspace, factor):
    (workspace / "half.lib").write_text(HALF_LIB)
    (workspace / "big.assign").write_text(f"assign a A nmr {factor}\n")
    code, out, err = relsyn(
        "eval", "--assign", "big.assign", "--format", "json", dfg="one.dfg", lib="half.lib"
    )
    assert (code, err) == (0, "")
    assert json.loads(out) == {"reliability": nmr_reliability(0.6, factor)}


@pytest.mark.parametrize("method", ["nmr", "combined"])
def test_synth_upgrades_past_float_binomials(relsyn, workspace, method):
    # With ample area the greedy upgrade keeps gaining past N = 1031.
    (workspace / "half.lib").write_text(HALF_LIB)
    code, out, err = relsyn(
        "synth", "--latency", "20", "--area", "100000", "--method", method,
        dfg="diffeq.dfg", lib="half.lib",
    )
    assert (code, err) == (0, "")
    factors = [int(line.split()[-1]) for line in out.splitlines() if " nmr " in line]
    assert max(factors) > 1031


@pytest.mark.parametrize("method", ["nmr", "combined"])
def test_synth_stops_upgrading_at_a_vote_that_underflows(relsyn, workspace, method):
    # Three copies of a 1e-200 unit vote below the smallest float: no upgrade gains.
    (workspace / "tiny.lib").write_text("resource T add 1 1 1e-200\n")
    code, out, err = relsyn(
        "synth", "--latency", "1", "--area", "10", "--method", method,
        dfg="one.dfg", lib="tiny.lib",
    )
    assert (code, err) == (0, "")
    assert "reliability 0.00000\n" in out and out.endswith("  0 T nmr 1\n")


def test_eval_vote_that_underflows_to_zero(relsyn, workspace):
    # 999 copies of a 0.01 unit: the vote's reliability is below the smallest float.
    (workspace / "weak.lib").write_text("resource W add 1 1 0.01\n")
    (workspace / "weak.assign").write_text("assign a W nmr 999\n")
    code, out, err = relsyn("eval", "--assign", "weak.assign", dfg="one.dfg", lib="weak.lib")
    assert (code, out, err) == (0, "reliability 0.00000\n", "")
