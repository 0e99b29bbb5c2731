"""Core domain types, input file parsing, and bundled benchmark graphs.

Data-flow graphs (DFGs) are DAGs of typed operations; resource libraries
list hardware versions per operation class with area, delay, and
reliability.  Both come from small line-oriented text formats:

    node <id> <op>          op in {add, mul, sub, cmp}; sub/cmp alias to add
    edge <src-id> <dst-id>

    resource <name> <op> <area> <delay> <reliability>

Also holds the synthesis result types shared by every flow (`Bounds`,
`Design`, `Infeasible`) and the one reliability objective: the product
of per-node reliabilities, each raised by majority voting when its
instance is N-modular redundant.

All types are immutable after construction and safe to share.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from importlib import resources
from typing import TYPE_CHECKING, Any, Iterable, Mapping

if TYPE_CHECKING:
    from .binder import Binding
    from .scheduler import Schedule


class ParseError(ValueError):
    """Malformed input text; message carries the offending line number."""


class ValidationError(ValueError):
    """Structurally invalid domain object (cycle, dangling edge, ...)."""


class OpClass(Enum):
    ADD = "add"
    MUL = "mul"


# Operation keywords accepted in DFG files.  Subtraction and comparison
# run on adder-class hardware, so they alias to ADD.
_OP_ALIASES = {
    "add": OpClass.ADD,
    "sub": OpClass.ADD,
    "cmp": OpClass.ADD,
    "mul": OpClass.MUL,
}


@dataclass(frozen=True, slots=True)
class DfgNode:
    id: str
    op_class: OpClass


@dataclass(frozen=True)
class Dfg:
    """Directed acyclic graph of operations; declaration order is preserved
    and serves as the deterministic tie-break order everywhere downstream.
    It is read by position only (k is nodes[k], node_ids[k] its id), from
    arrays built once: `pred_positions` and `succ_positions` (in edge
    order) and `topo_positions` with the edge and cycle checks,
    `class_positions` and `class_peers` on first use."""

    nodes: tuple[DfgNode, ...]
    edges: tuple[tuple[str, str], ...]

    def __post_init__(self) -> None:
        if not self.nodes:
            raise ValidationError("data-flow graph has no nodes")
        index = {node.id: pos for pos, node in enumerate(self.nodes)}
        if len(index) != len(self.nodes):
            declared: set[str] = set()
            for node in self.nodes:
                if node.id in declared:
                    raise ValidationError(f"duplicate node id {node.id!r}")
                declared.add(node.id)
        preds: list[list[int]] = [[] for _ in self.nodes]
        succs: list[list[int]] = [[] for _ in self.nodes]
        # Edges seen, by position pair: a successor-list scan is quadratic in fan-out.
        n, seen = len(index), set[int]()
        for src, dst in self.edges:
            if src not in index:
                raise ValidationError(f"edge references unknown node {src!r}")
            if dst not in index:
                raise ValidationError(f"edge references unknown node {dst!r}")
            s, d = index[src], index[dst]
            if s * n + d in seen:
                raise ValidationError(f"duplicate edge {src!r} -> {dst!r}")
            seen.add(s * n + d)
            succs[s].append(d)
            preds[d].append(s)
        object.__setattr__(self, "_ids", tuple(index))
        object.__setattr__(self, "pred_positions", tuple(map(tuple, preds)))
        object.__setattr__(self, "succ_positions", tuple(map(tuple, succs)))
        object.__setattr__(self, "topo_positions", self._toposort())

    def _toposort(self) -> tuple[int, ...]:
        # Kahn's algorithm, FIFO over `order`, ties in declaration order; also the acyclicity check.
        indeg = [len(preds) for preds in self.pred_positions]
        order = [k for k, n in enumerate(indeg) if not n]
        for k in order:
            for succ in self.succ_positions[k]:
                indeg[succ] -= 1
                if indeg[succ] == 0:
                    order.append(succ)
        if len(order) != len(self.nodes):
            raise ValidationError("cycle detected in data-flow graph")
        return tuple(order)

    @cached_property
    def class_positions(self) -> dict[OpClass, tuple[int, ...]]:
        """Per operation class, in `OpClass` order, its nodes' positions in
        declaration order; built on first use."""
        classes = [n.op_class for n in self.nodes]
        return {cls: tuple(k for k, c in enumerate(classes) if c is cls) for cls in OpClass}

    @cached_property
    def class_peers(self) -> tuple[tuple[int, ...], ...]:
        """Per node position, its class's tuple from `class_positions`."""
        peers = {k: positions for positions in self.class_positions.values() for k in positions}
        return tuple(peers[k] for k in range(len(self.nodes)))

    @property
    def node_ids(self) -> tuple[str, ...]:
        return self._ids

    def class_counts(self) -> dict[OpClass, int]:
        """Nodes per operation class, every class in `OpClass` order."""
        return {cls: len(positions) for cls, positions in self.class_positions.items()}


@dataclass(frozen=True)
class ResourceVersion:
    """One hardware implementation of an operation class."""

    name: str
    op_class: OpClass
    area: float
    delay: int
    reliability: float

    def __post_init__(self) -> None:
        if not 0 < self.area < math.inf:
            raise ValidationError(f"version {self.name!r}: area must be finite and > 0")
        if not (isinstance(self.delay, int) and self.delay >= 1):
            raise ValidationError(f"version {self.name!r}: delay must be an integer >= 1")
        if not 0 < self.reliability <= 1:
            raise ValidationError(f"version {self.name!r}: reliability must be in (0, 1]")


@dataclass(frozen=True)
class ResourceLibrary:
    versions: tuple[ResourceVersion, ...]

    def __post_init__(self) -> None:
        by_name: dict[str, ResourceVersion] = {}
        for v in self.versions:
            if v.name in by_name:
                raise ValidationError(f"duplicate resource name {v.name!r}")
            by_name[v.name] = v
        object.__setattr__(self, "_by_name", by_name)
        by_class = {cls: tuple(v for v in self.versions if v.op_class == cls) for cls in OpClass}
        object.__setattr__(self, "_by_class", by_class)
        object.__setattr__(self, "_hash", hash(self.versions))

    def __hash__(self) -> int:  # hashed once: designs key their NMR pricing by library
        return self._hash

    def by_name(self, name: str) -> ResourceVersion:
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(f"unknown resource version {name!r}") from None

    def versions_for(self, op_class: OpClass) -> tuple[ResourceVersion, ...]:
        return self._by_class.get(op_class, ())

    def check_covers(self, dfg: Dfg) -> None:
        """Every operation class used by the graph needs at least one version."""
        for cls, positions in dfg.class_positions.items():
            if positions and not self.versions_for(cls):
                raise ValidationError(f"library has no version for class {cls.value}")


# An assignment maps every node id to the version that implements it.
Assignment = Mapping[str, ResourceVersion]


def check_assignment(dfg: Dfg, assignment: Assignment) -> None:
    """Raise unless `assignment` is total over `dfg` and class-consistent."""
    for node in dfg.nodes:
        version = assignment.get(node.id)
        if version is None:
            raise ValidationError(f"assignment missing node {node.id!r}")
        if version.op_class is not node.op_class:
            raise ValidationError(
                f"node {node.id!r} ({node.op_class.value}) assigned "
                f"{version.name!r} ({version.op_class.value})"
            )


# -- synthesis results and the reliability objective -------------------


@dataclass(frozen=True)
class Bounds:
    latency_bound: int
    area_bound: float

    def __post_init__(self) -> None:
        if not (isinstance(self.latency_bound, int) and self.latency_bound >= 1):
            raise ValidationError("latency bound must be an integer >= 1")
        if not self.area_bound > 0:
            raise ValidationError("area bound must be > 0")


@dataclass(frozen=True)
class Design:
    """A complete synthesis result."""

    assignment: dict[str, ResourceVersion]
    schedule: Schedule
    binding: Binding
    latency: int
    area: float
    reliability: float

    # The greedy NMR upgrade's state per library (see redundancy), built on
    # first use like Binding's index: fields, equality and repr ignore it.
    @cached_property
    def _nmr_pricing(self) -> dict[ResourceLibrary, Any]:
        return {}


@dataclass(frozen=True)
class Infeasible:
    """First-class negative result; reason is 'latency' or 'area'."""

    reason: str
    detail: str = ""


def nmr_reliability(reliability: float, n: int) -> float:
    """Reliability of N voted copies where a strict majority must agree.

    With k = (n+1)/2, returns sum_{i=k..n} C(n,i) r^i (1-r)^(n-i), capped at 1;
    for n = 1 that is r itself, returned unchanged.  From n = 1031 on, a term
    whose C(n, i) is beyond the float range comes from logs.
    """
    if type(n) is not int or n < 1 or n % 2 == 0:
        raise ValidationError("redundancy factor must be odd and >= 1")
    if not 0 <= reliability <= 1:
        raise ValidationError("reliability must be in [0, 1]")
    # Added left to right from 0.0; sum() of floats is compensated on
    # Python >= 3.12 and would change the last bits.
    total = 0.0
    c = math.comb(n, (n + 1) // 2)
    for i in range((n + 1) // 2, n + 1):
        try:
            total += c * reliability**i * (1 - reliability) ** (n - i)
        except OverflowError:  # C(n, i) exceeds the float range, from n = 1031 on
            if 0 < reliability < 1:  # else the term is 0
                log_r, log_q = math.log(reliability), math.log1p(-reliability)
                total += math.exp(math.log(c) + i * log_r + (n - i) * log_q)
        c = c * (n - i) // (i + 1)  # C(n, i + 1), exactly
    return min(total, 1.0)


@functools.cache
def _log_vote(reliability: float, n: int) -> float:
    """log nmr_reliability(reliability, n), -inf where the vote underflows to 0."""
    vote = nmr_reliability(reliability, n)
    return math.log(vote) if vote > 0 else -math.inf


def evaluate_reliability(
    dfg: Dfg, assignment: Assignment, binding: Binding | None = None
) -> float:
    """Product over nodes of their effective reliability.

    Without a binding every node counts with its bare version
    reliability.  Accumulated in log space for numerical stability.
    """
    check_assignment(dfg, assignment)
    if binding is None:
        return _reliability_product(_log_vote(assignment[n].reliability, 1) for n in dfg.node_ids)
    ids, instances = binding.node_to_instance, binding.instances
    if missing := [nid for nid in dfg.node_ids if nid not in ids]:
        raise ValidationError(f"binding missing node {missing[0]!r}")
    if bad := [ids[nid] for nid in dfg.node_ids if ids[nid] not in range(len(instances))]:
        raise ValidationError(f"unknown instance id {bad[0]}")
    return _reliability_product(
        _log_vote(assignment[n].reliability, instances[ids[n]].nmr_factor) for n in dfg.node_ids
    )


def _reliability_product(logs: Iterable[float]) -> float:
    """exp of the nodes' vote logs, added left to right from 0.0, as nmr_reliability adds."""
    return math.exp(functools.reduce(operator.add, logs, 0.0))


# -- parsing ------------------------------------------------------------


def _content_lines(text: str) -> list[tuple[int, list[str]]]:
    lines = enumerate(text.splitlines(), start=1)
    return [(lineno, fields) for lineno, raw in lines if (fields := raw.split("#", 1)[0].split())]


def parse_dfg(text: str) -> Dfg:
    """Parse the line-oriented DFG format into a validated graph."""
    nodes: list[DfgNode] = []
    edges: list[tuple[str, str]] = []
    # One str object per id, shared by its node and every edge naming it.
    ids: dict[str, str] = {}
    for lineno, fields in _content_lines(text):
        kind = fields[0]
        if kind == "node":
            if len(fields) != 3:
                raise ParseError(f"line {lineno}: expected 'node <id> <op>'")
            nid, op = fields[1], fields[2]
            if op not in _OP_ALIASES:
                raise ParseError(f"line {lineno}: unknown operation {op!r}")
            nodes.append(DfgNode(ids.setdefault(nid, nid), _OP_ALIASES[op]))
        elif kind == "edge":
            if len(fields) != 3:
                raise ParseError(f"line {lineno}: expected 'edge <src> <dst>'")
            src, dst = fields[1], fields[2]
            edges.append((ids.setdefault(src, src), ids.setdefault(dst, dst)))
        else:
            raise ParseError(f"line {lineno}: unknown directive {kind!r}")
    if not nodes:
        raise ParseError("no nodes declared")
    return Dfg(tuple(nodes), tuple(edges))


def render_dfg(dfg: Dfg) -> str:
    """Serialize a graph back to the DFG format (inverse of parse_dfg)."""
    lines = [f"node {n.id} {n.op_class.value}" for n in dfg.nodes]
    lines += [f"edge {src} {dst}" for src, dst in dfg.edges]
    return "\n".join(lines) + "\n"


def parse_library(text: str) -> ResourceLibrary:
    """Parse the line-oriented resource library format."""
    versions: list[ResourceVersion] = []
    for lineno, fields in _content_lines(text):
        if fields[0] != "resource" or len(fields) != 6:
            raise ParseError(
                f"line {lineno}: expected 'resource <name> <op> <area> <delay> <reliability>'"
            )
        _, name, op, area_s, delay_s, rel_s = fields
        if op not in _OP_ALIASES:
            raise ParseError(f"line {lineno}: unknown operation {op!r}")
        try:
            area = float(area_s)
            delay = int(delay_s)
            reliability = float(rel_s)
        except ValueError as exc:
            raise ParseError(f"line {lineno}: {exc}") from exc
        try:
            versions.append(ResourceVersion(name, _OP_ALIASES[op], area, delay, reliability))
        except ValidationError as exc:
            raise ParseError(f"line {lineno}: {exc}") from exc
    return ResourceLibrary(tuple(versions))


# -- bundled data -------------------------------------------------------

BENCHMARK_NAMES = ("fir16", "ew", "diffeq")


def data_text(filename: str) -> str:
    """Return the content of a bundled data file (e.g. 'table1.lib')."""
    return resources.files(__package__).joinpath("data", filename).read_text(encoding="utf-8")


def builtin_benchmark(name: str) -> Dfg:
    """Load one of the bundled benchmark graphs: fir16, ew, or diffeq."""
    if name not in BENCHMARK_NAMES:
        raise ValidationError(f"unknown benchmark {name!r}; choose from {BENCHMARK_NAMES}")
    return parse_dfg(data_text(f"{name}.dfg"))


def builtin_library() -> ResourceLibrary:
    """Load the bundled five-version adder/multiplier library."""
    return parse_library(data_text("table1.lib"))
