import random

import pytest

from checks import random_dfg
from relsyn.model import (
    Bounds,
    Dfg,
    OpClass,
    ParseError,
    ValidationError,
    builtin_benchmark,
    builtin_library,
    parse_dfg,
    parse_library,
    render_dfg,
)
from relsyn.oracle import oracle_best
from relsyn.redundancy import baseline_nmr_synth
from relsyn.scheduler import density_schedule
from relsyn.synthesizer import find_design


def test_parse_minimal_chain():
    dfg = parse_dfg("node a add\nnode b add\nedge a b\n")
    assert [n.id for n in dfg.nodes] == ["a", "b"]
    assert dfg.edges == (("a", "b"),)
    assert dfg.nodes[0].op_class is OpClass.ADD


def test_parse_comments_and_blank_lines():
    dfg = parse_dfg("# header\n\nnode a add  # trailing\n\nnode b mul\nedge a b\n")
    assert len(dfg.nodes) == 2
    assert dfg.nodes[1].op_class is OpClass.MUL


def test_sub_and_cmp_alias_to_add_class():
    dfg = parse_dfg("node s sub\nnode c cmp\n")
    assert dfg.nodes[0].op_class is OpClass.ADD
    assert dfg.nodes[1].op_class is OpClass.ADD


def test_self_loop_is_a_cycle_error():
    with pytest.raises(ValidationError, match="cycle"):
        parse_dfg("node a add\nedge a a\n")


def test_cycle_detected():
    with pytest.raises(ValidationError, match="cycle"):
        parse_dfg("node a add\nnode b add\nedge a b\nedge b a\n")


def test_duplicate_node_id_rejected():
    with pytest.raises(ValidationError, match="duplicate node"):
        parse_dfg("node a add\nnode a mul\n")


def test_dangling_edge_rejected():
    with pytest.raises(ValidationError, match="unknown node"):
        parse_dfg("node a add\nedge a ghost\n")


def test_duplicate_edge_rejected():
    with pytest.raises(ValidationError, match="duplicate edge"):
        parse_dfg("node a add\nnode b add\nedge a b\nedge a b\n")


# Each entry point used to fail on an empty graph with an IndexError or
# ValueError of its own; the constructor now refuses the graph first.
EMPTY_GRAPH_CALLS = {
    "Dfg": lambda dfg: dfg,
    "oracle_best": lambda dfg: oracle_best(dfg, builtin_library(), Bounds(2, 4)),
    "find_design": lambda dfg: find_design(dfg, builtin_library(), Bounds(2, 4)),
    "baseline_nmr_synth": lambda dfg: baseline_nmr_synth(dfg, builtin_library(), Bounds(2, 4)),
    "density_schedule": lambda dfg: density_schedule(dfg, {}, 2),
}


@pytest.mark.parametrize("entry", list(EMPTY_GRAPH_CALLS))
def test_empty_graph_rejected(entry):
    with pytest.raises(ValidationError, match="data-flow graph has no nodes"):
        EMPTY_GRAPH_CALLS[entry](Dfg((), ()))


def test_syntax_error_reports_line_number():
    with pytest.raises(ParseError, match="line 3"):
        parse_dfg("node a add\nnode b add\nedge a\n")
    with pytest.raises(ParseError, match="line 1"):
        parse_dfg("node x frobnicate\n")


# (text, error type, whole message).  Every malformed line is reported
# before any graph check, then duplicate nodes, then each edge in order
# (unknown src, unknown dst, repeat), then cycles.
DFG_ERRORS = {
    "unknown directive": ("nod a add\n", ParseError, "line 1: unknown directive 'nod'"),
    "short node": ("node a\n", ParseError, "line 1: expected 'node <id> <op>'"),
    "long edge": ("node a add\nedge a a a\n", ParseError, "line 2: expected 'edge <src> <dst>'"),
    "unknown op": ("node a frob\n", ParseError, "line 1: unknown operation 'frob'"),
    "no nodes": ("# only a comment\n  \n", ParseError, "no nodes declared"),
    "edges only": ("edge a b\n", ParseError, "no nodes declared"),
    "malformed beats later duplicate": (
        "node a add\nnode b\nnode a add\n", ParseError, "line 2: expected 'node <id> <op>'"
    ),
    "malformed beats earlier duplicate": (
        "node a add\nnode a add\nedge a\n", ParseError, "line 3: expected 'edge <src> <dst>'"
    ),
    "unknown src before unknown dst": (
        "node a add\nedge x y\n", ValidationError, "edge references unknown node 'x'"
    ),
    "unknown dst": ("node a add\nedge a y\n", ValidationError, "edge references unknown node 'y'"),
    "duplicate node before dangling edge": (
        "node a add\nedge a ghost\nnode a mul\n", ValidationError, "duplicate node id 'a'"
    ),
    "first duplicate node wins": (
        "node b add\nnode a add\nnode a mul\nnode b mul\n",
        ValidationError,
        "duplicate node id 'a'",
    ),
    "duplicate edge before later unknown node": (
        "node a add\nnode b add\nedge a b\nedge a b\nedge a ghost\n",
        ValidationError,
        "duplicate edge 'a' -> 'b'",
    ),
    "unknown node before cycle": (
        "node a add\nedge a a\nedge a ghost\n",
        ValidationError,
        "edge references unknown node 'ghost'",
    ),
    "cycle": (
        "node a add\nnode b add\nedge a b\nedge b a\n",
        ValidationError,
        "cycle detected in data-flow graph",
    ),
    "CRLF line numbers": (
        "node a add\r\n\r\nedge a\r\n", ParseError, "line 3: expected 'edge <src> <dst>'"
    ),
    "comment and blank lines counted": (
        "# c\n   \n\t\nnode a add\n  # indented\nnode b frob\n",
        ParseError,
        "line 6: unknown operation 'frob'",
    ),
    "# glued to an id": ("node a#b add\n", ParseError, "line 1: expected 'node <id> <op>'"),
}


@pytest.mark.parametrize("case", list(DFG_ERRORS))
def test_parse_dfg_error_messages_verbatim(case):
    text, error, message = DFG_ERRORS[case]
    with pytest.raises(ValueError) as info:
        parse_dfg(text)
    assert type(info.value) is error
    assert str(info.value) == message


def test_parse_dfg_accepts_crlf_tabs_comments_and_edges_first():
    texts = (
        "node a add\nnode b mul\nedge a b\n",
        "node a add\r\nnode\tb\tmul \r\n\r\nedge a b\r\n",
        "# header\n   \n\t\nnode a add#glued\n  # indented\nnode b mul # trailing\nedge a b#\n",
        "edge a b\nnode a add\nnode b mul\n",
    )
    parsed = [parse_dfg(text) for text in texts]
    assert all(dfg == parsed[0] for dfg in parsed)
    assert [(n.id, n.op_class) for n in parsed[0].nodes] == [
        ("a", OpClass.ADD),
        ("b", OpClass.MUL),
    ]
    assert parsed[0].edges == (("a", "b"),)


def test_parse_library_table1():
    lib = builtin_library()
    got = [(v.name, v.area, v.delay, v.reliability) for v in lib.versions]
    assert got == [
        ("Adder1", 1.0, 2, 0.999),
        ("Adder2", 2.0, 1, 0.969),
        ("Adder3", 4.0, 1, 0.987),
        ("Mult1", 2.0, 2, 0.999),
        ("Mult2", 4.0, 1, 0.969),
    ]


def test_parse_library_single_line():
    lib = parse_library("resource x add 1 1 1.0\n")
    assert len(lib.versions) == 1
    assert lib.by_name("x").reliability == 1.0


@pytest.mark.parametrize(
    "line,message",
    [
        ("resource x add 1 0 0.9", "delay"),
        ("resource x add 1 2 1.5", "reliability"),
        ("resource x add 1 2 0", "reliability"),
        ("resource x add 0 2 0.9", "area"),
        ("resource x add inf 1 0.99", "^line 1: version 'x': area must be finite and > 0$"),
        ("resource x add 1e400 1 0.99", "^line 1: version 'x': area must be finite and > 0$"),
    ],
)
def test_parse_library_field_validation(line, message):
    with pytest.raises(ParseError, match=message):
        parse_library(line + "\n")


def test_parse_library_duplicate_name():
    with pytest.raises(ValidationError, match="duplicate resource"):
        parse_library("resource x add 1 1 0.9\nresource x add 2 1 0.9\n")


def test_library_covers_check():
    lib = parse_library("resource x add 1 1 0.9\n")
    dfg = parse_dfg("node a mul\n")
    with pytest.raises(ValidationError, match="no version"):
        lib.check_covers(dfg)


def test_builtin_benchmark_counts():
    fir = builtin_benchmark("fir16")
    assert len(fir.nodes) == 23
    assert fir.class_counts() == {OpClass.ADD: 15, OpClass.MUL: 8}
    diffeq = builtin_benchmark("diffeq")
    assert len(diffeq.nodes) == 11
    assert diffeq.class_counts() == {OpClass.ADD: 5, OpClass.MUL: 6}
    ew = builtin_benchmark("ew")
    assert len(ew.nodes) == 34
    assert ew.class_counts() == {OpClass.ADD: 26, OpClass.MUL: 8}


def test_builtin_benchmark_unknown_name():
    with pytest.raises(ValidationError, match="unknown benchmark"):
        builtin_benchmark("fir32")


def test_render_parse_round_trip():
    rng = random.Random(7)
    graphs = [random_dfg(rng, min_nodes=1, max_nodes=10, edge_p=0.3) for _ in range(30)]
    graphs += [builtin_benchmark(name) for name in ("fir16", "ew", "diffeq")]
    for dfg in graphs:
        assert parse_dfg(render_dfg(dfg)) == dfg


def test_parsed_graphs_are_compact():
    # 2,000 nodes n0, n1, ...; node j has up to two predecessors among the 20 before it.
    rng = random.Random(31)
    node_lines = [f"node n{k} {rng.choice(('add', 'mul'))}" for k in range(2000)]
    edge_lines = [
        f"edge n{i} n{j}"
        for j in range(1, 2000)
        for i in rng.sample(range(max(0, j - 20), j), min(j, 2))
    ]
    text = "\n".join(node_lines + edge_lines) + "\n"
    dfg = parse_dfg(text)
    assert render_dfg(dfg) == text
    assert not hasattr(dfg.nodes[0], "__dict__")
    # One str object per id, shared by its node and every edge naming it,
    # also where edges come before the nodes they name.
    for parsed in (dfg, parse_dfg("\n".join(edge_lines + node_lines))):
        ids = {node.id: node.id for node in parsed.nodes}
        assert all(src is ids[src] and dst is ids[dst] for src, dst in parsed.edges)


def test_position_arrays_match_the_id_lookups():
    # Node k is dfg.nodes[k]; nodes and edges are declared in shuffled order.
    rng = random.Random(23)
    for _ in range(40):
        base = random_dfg(rng, min_nodes=1, max_nodes=12, edge_p=0.3)
        nodes, edges = list(base.nodes), list(base.edges)
        rng.shuffle(nodes)
        rng.shuffle(edges)
        dfg = Dfg(tuple(nodes), tuple(edges))
        ids = dfg.node_ids
        for k, nid in enumerate(ids):
            preds = tuple(ids[p] for p in dfg.pred_positions[k])
            succs = tuple(ids[s] for s in dfg.succ_positions[k])
            assert preds == tuple(src for src, dst in edges if dst == nid)
            assert succs == tuple(dst for src, dst in edges if src == nid)
        # Kahn's algorithm over the edge list, ties in declaration order.
        indeg = {nid: sum(dst == nid for _, dst in edges) for nid in ids}
        ready, order = [nid for nid in ids if not indeg[nid]], []
        while ready:
            order.append(ready.pop(0))
            for src, dst in edges:
                if src == order[-1]:
                    indeg[dst] -= 1
                    if not indeg[dst]:
                        ready.append(dst)
        assert [ids[k] for k in dfg.topo_positions] == order
        assert list(dfg.class_positions) == list(OpClass)
        for cls, positions in dfg.class_positions.items():
            assert positions == tuple(k for k, n in enumerate(dfg.nodes) if n.op_class is cls)
            assert len(positions) == dfg.class_counts()[cls]


def test_topological_order_exists_for_accepted_graphs():
    rng = random.Random(8)
    for _ in range(30):
        dfg = random_dfg(rng, min_nodes=1, max_nodes=10, edge_p=0.3)
        order = [dfg.node_ids[k] for k in dfg.topo_positions]
        assert sorted(order) == sorted(dfg.node_ids)
        position = {nid: i for i, nid in enumerate(order)}
        for src, dst in dfg.edges:
            assert position[src] < position[dst]
