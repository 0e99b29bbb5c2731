"""Resource sharing: pack scheduled operations onto functional-unit
instances and account for total area.

Binding uses the left-edge method per version, which is optimal for
interval sharing: the instance count per version equals the maximum
number of concurrently executing operations of that version.  Units are
non-pipelined, so an instance is busy for the full execution interval
of each operation bound to it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Mapping

from .model import Assignment, Dfg, ResourceLibrary, ValidationError, check_assignment
from .scheduler import Schedule


@dataclass(frozen=True)
class Instance:
    """A functional unit; nmr_factor N > 1 means N voted copies."""

    version: str
    nmr_factor: int = 1

    def __post_init__(self) -> None:
        if type(self.nmr_factor) is not int or self.nmr_factor < 1 or self.nmr_factor % 2 == 0:
            raise ValidationError(f"{self.version}: nmr_factor must be odd and >= 1")


# One shared object per (version, N), called with both arguments; typed: N 3.0 is not N 3.
_unit = functools.lru_cache(maxsize=None, typed=True)(Instance)


@dataclass(frozen=True)
class Binding:
    """Nodes on functional units: instance ids are positions in `instances`."""

    node_to_instance: Mapping[str, int]
    instances: tuple[Instance, ...]


def bind(dfg: Dfg, schedule: Schedule, assignment: Assignment) -> Binding:
    """Pack nodes onto the minimum number of instances per version.

    Nodes are processed by start cycle (ties: declaration order); each
    goes to the lowest-id instance of its version that is free again
    before its start, otherwise a new instance is opened.
    """
    check_assignment(dfg, assignment)
    ids = dfg.node_ids
    try:
        starts = [schedule.starts[nid] for nid in ids]
    except KeyError as exc:
        raise ValidationError(f"schedule missing node {exc.args[0]!r}") from None
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
    instances = tuple(_unit(name, 1) for name in names)
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


def with_nmr(binding: Binding, nmr: list[int] | tuple[int, ...]) -> Binding:
    """A copy of `binding` with N per instance position (Instance checks each change)."""
    if not isinstance(nmr, (list, tuple)) or len(nmr) != len(binding.instances):
        raise ValidationError(f"nmr must list {len(binding.instances)} factors, one per instance")
    instances = tuple([
        i if i.nmr_factor == n and type(n) is int else _unit(i.version, n)
        for i, n in zip(binding.instances, nmr)
    ])
    return Binding(binding.node_to_instance, instances)
