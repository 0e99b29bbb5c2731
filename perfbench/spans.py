"""Spans around calls into relsyn, recorded from outside the program.

`Tracer.install()` wraps every public function of the layer modules in
every relsyn namespace that holds it: modules import functions by name
(`from .scheduler import density_schedule` in both synthesizer and
redundancy), so wrapping only the defining module would miss calls.
Each call becomes a span (name, start, end, parent, call id) kept in
flat arrays and written out by `dump()`; `layer_stats()` folds them
into per-layer counts, total time and self time.
"""

from __future__ import annotations

import gzip
import inspect
import sys
import time
from array import array

# Layers are the modules of relsyn; charlib is on no workload's path.
LAYERS = ("model", "scheduler", "binder", "redundancy", "synthesizer", "oracle", "cli")


def relsyn_modules(package: str = "relsyn") -> dict:
    return {
        name: mod
        for name, mod in sys.modules.items()
        if mod is not None and (name == package or name.startswith(package + "."))
    }


def patch_everywhere(modules, targets: dict[int, object], wrappers: dict[int, object]):
    """Replace each target function by its wrapper in every module that
    holds it; returns (module, attribute, original) for undoing."""
    patches = []
    for mod in modules.values():
        for attr, obj in list(vars(mod).items()):
            if id(obj) in wrappers and obj is targets[id(obj)]:
                patches.append((mod, attr, obj))
                setattr(mod, attr, wrappers[id(obj)])
    return patches


def unpatch(patches) -> None:
    for mod, attr, obj in reversed(patches):
        setattr(mod, attr, obj)


class Tracer:
    ROOTS = ("bench.call", "bench.setup")

    def __init__(self, package: str = "relsyn"):
        self.package = package
        self.names: list[str] = list(self.ROOTS)
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.call = array("i")
        self.stack: list[int] = []
        self.call_id = -1
        self.patches: list[tuple[object, str, object]] = []
        # Observed from arguments and results: density_schedule keys,
        # instance counts of bind, nodes parsed by parse_dfg.
        self.sched_keys: set = set()
        self.graphs: dict[int, object] = {}
        self.instances: list[int] = []
        self.parsed_nodes = 0

    # -- spans ----------------------------------------------------------

    def _open(self, name_idx: int) -> int:
        idx = len(self.start)
        self.name.append(name_idx)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.call.append(self.call_id)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    def begin_call(self, setup: bool = False) -> None:
        """Open the benchmark's span for one unit of user work (or for
        the set-up parse)."""
        self.call_id += 1
        self._open(1 if setup else 0)

    def end_call(self) -> None:
        self._close(self.stack[-1])

    # -- wrapping -------------------------------------------------------

    def _wrap(self, label: str, fn):
        name_idx = len(self.names)
        self.names.append(label)
        bare = fn.__name__
        tracer = self
        if bare == "density_schedule":
            params = inspect.signature(fn)

            def observe(args, kwargs):
                # (graph, assignment, latency bound): what a schedule depends on.
                dfg, assignment, latency = list(params.bind(*args, **kwargs).arguments.values())[:3]
                tracer.graphs[id(dfg)] = dfg  # pinned, so ids stay unique
                key = frozenset((nid, v.name) for nid, v in assignment.items())
                tracer.sched_keys.add((id(dfg), key, latency))
        else:
            observe = None

        def wrapper(*args, **kwargs):
            if observe is not None:
                observe(args, kwargs)
            idx = tracer._open(name_idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if bare == "bind":
                tracer.instances.append(len(result.instances))
            elif bare == "parse_dfg":
                tracer.parsed_nodes += len(result.nodes)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = bare
        return wrapper

    def install(self) -> None:
        """Wrap each public layer function in every namespace holding it."""
        modules = relsyn_modules(self.package)
        layer_modules = {f"{self.package}.{layer}" for layer in LAYERS}
        targets: dict[int, object] = {}
        for name in sorted(layer_modules & modules.keys()):
            for attr, obj in vars(modules[name]).items():
                if (
                    inspect.isfunction(obj)
                    and not attr.startswith("_")
                    and obj.__module__ in layer_modules
                ):
                    targets[id(obj)] = obj
        wrappers = {
            fid: self._wrap(f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}", fn)
            for fid, fn in targets.items()
        }
        self.patches = patch_everywhere(modules, targets, wrappers)

    def uninstall(self) -> None:
        unpatch(self.patches)
        self.patches = []

    # -- results --------------------------------------------------------

    def layer_stats(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total_s and self_s (total minus direct children)."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        stats: dict[str, dict[str, float]] = {}
        for i in range(n):
            s = stats.setdefault(self.names[self.name[i]], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            dur = self.end[i] - self.start[i]
            s["calls"] += 1
            s["total_s"] += dur
            s["self_s"] += dur - child[i]
        return stats

    def count_under(self, name: str, ancestor: str) -> int:
        """Spans called `name` that run inside a span called `ancestor`."""
        want = self.names.index(name) if name in self.names else None
        anc = self.names.index(ancestor) if ancestor in self.names else None
        if want is None or anc is None:
            return 0
        count = 0
        for i in range(len(self.start)):
            if self.name[i] != want:
                continue
            p = self.parent[i]
            while p >= 0 and self.name[p] != anc:
                p = self.parent[p]
            count += p >= 0
        return count

    def dump(self, path) -> None:
        """Write spans as gzip'd CSV: name,start_s,end_s,parent,call."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("name,start_s,end_s,parent,call\n")
            t0 = self.start[0] if len(self.start) else 0.0
            for i in range(len(self.start)):
                fh.write(
                    f"{self.names[self.name[i]]},{self.start[i] - t0:.7f},"
                    f"{self.end[i] - t0:.7f},{self.parent[i]},{self.call[i]}\n"
                )
