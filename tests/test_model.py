import random

import pytest

from relsyn.model import (
    Dfg,
    DfgNode,
    OpClass,
    ParseError,
    ValidationError,
    builtin_benchmark,
    builtin_library,
    parse_dfg,
    parse_library,
    render_dfg,
)


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


def test_syntax_error_reports_line_number():
    with pytest.raises(ParseError, match="line 3"):
        parse_dfg("node a add\nnode b add\nedge a\n")
    with pytest.raises(ParseError, match="line 1"):
        parse_dfg("node x frobnicate\n")


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


def _random_dfg(rng: random.Random) -> Dfg:
    n = rng.randint(1, 10)
    nodes = tuple(
        DfgNode(f"n{i}", rng.choice((OpClass.ADD, OpClass.MUL))) for i in range(n)
    )
    edges = []
    for j in range(1, n):
        for i in range(j):
            if rng.random() < 0.3:
                edges.append((f"n{i}", f"n{j}"))
    return Dfg(nodes, tuple(edges))


def test_render_parse_round_trip():
    rng = random.Random(7)
    graphs = [_random_dfg(rng) for _ in range(30)]
    graphs += [builtin_benchmark(name) for name in ("fir16", "ew", "diffeq")]
    for dfg in graphs:
        assert parse_dfg(render_dfg(dfg)) == dfg


def test_topological_order_exists_for_accepted_graphs():
    rng = random.Random(8)
    for _ in range(30):
        dfg = _random_dfg(rng)
        order = dfg.topo_order
        assert sorted(order) == sorted(dfg.node_ids)
        position = {nid: i for i, nid in enumerate(order)}
        for src, dst in dfg.edges:
            assert position[src] < position[dst]
