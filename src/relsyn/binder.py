"""Resource sharing: pack scheduled operations onto functional-unit
instances and account for total area.

Binding uses the left-edge method per version, which is optimal for
interval sharing: the instance count per version equals the maximum
number of concurrently executing operations of that version.  Units are
non-pipelined, so an instance is busy for the full execution interval
of each operation bound to it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

from .model import Assignment, Dfg, ResourceLibrary, ValidationError, check_assignment
from .scheduler import Schedule


@dataclass(frozen=True)
class Instance:
    """A functional unit; nmr_factor N > 1 means N voted copies."""

    id: int
    version: str
    nmr_factor: int = 1

    def __post_init__(self) -> None:
        if self.nmr_factor < 1 or self.nmr_factor % 2 == 0:
            raise ValidationError(f"instance {self.id}: nmr_factor must be odd and >= 1")


@dataclass(frozen=True)
class Binding:
    node_to_instance: Mapping[str, int]
    instances: tuple[Instance, ...]

    # Lookup index, built on first use (many bindings are never queried).
    # cached_property writes the instance __dict__ directly, so it works on
    # this frozen, unslotted dataclass; fields, equality and repr ignore it.
    @cached_property
    def _by_id(self) -> dict[int, Instance]:
        by_id: dict[int, Instance] = {}
        for inst in self.instances:
            by_id.setdefault(inst.id, inst)
        return by_id

    def instance(self, instance_id: int) -> Instance:
        try:
            return self._by_id[instance_id]
        except KeyError:
            raise KeyError(f"unknown instance id {instance_id}") from None


def bind(dfg: Dfg, schedule: Schedule, assignment: Assignment) -> Binding:
    """Pack nodes onto the minimum number of instances per version.

    Nodes are processed by start cycle (ties: declaration order); each
    goes to the lowest-id instance of its version that is free again
    before its start, otherwise a new instance is opened.
    """
    check_assignment(dfg, assignment)
    ids = dfg.node_ids
    starts = [schedule.starts[nid] for nid in ids]
    names: list[str] = []  # version name per instance id
    last_busy: list[int] = []  # last busy cycle per instance id
    ids_of: dict[str, list[int]] = {}  # per version name, its instance ids in ascending order
    node_to_instance = [0] * len(ids)
    for k in sorted(range(len(ids)), key=starts.__getitem__):  # stable: ties by position
        version, start = assignment[ids[k]], starts[k]
        own = ids_of.setdefault(version.name, [])
        for iid in own:
            if last_busy[iid] < start:
                break
        else:
            iid = len(names)
            names.append(version.name)
            last_busy.append(start)
            own.append(iid)
        node_to_instance[k] = iid
        last_busy[iid] = start + version.delay - 1
    instances = tuple(Instance(iid, name) for iid, name in enumerate(names))
    return Binding(dict(zip(ids, node_to_instance)), instances)


def total_area(binding: Binding, library: ResourceLibrary) -> float:
    """Sum of instance areas scaled by their redundancy factors.

    Voter/checker circuitry is excluded from the accounting.
    """
    area = 0.0
    for inst in binding.instances:
        try:
            version = library.by_name(inst.version)
        except KeyError as exc:
            raise ValidationError(str(exc)) from exc
        area += version.area * inst.nmr_factor
    return area


def with_nmr(binding: Binding, nmr_spec: Mapping[int, int]) -> Binding:
    """Return a copy of `binding` with redundancy factors applied (Instance checks each change)."""
    known = {inst.id for inst in binding.instances}
    for iid in nmr_spec:
        if iid not in known:
            raise ValidationError(f"nmr spec references unknown instance {iid}")
    instances = tuple(
        inst if nmr_spec.get(inst.id, inst.nmr_factor) == inst.nmr_factor
        else Instance(inst.id, inst.version, nmr_spec[inst.id])
        for inst in binding.instances
    )
    return Binding(binding.node_to_instance, instances)
