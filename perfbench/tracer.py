"""Span tracer that wraps porstore's public functions from the outside.

Every public function of a traced module is replaced, in every porstore
module that binds it (``porstore.sim.verify_sampling`` as well as
``porstore.pos.verify_sampling``, and the package re-exports), by a wrapper
that records a span: name, start, end, parent span and run id.  Per-name
aggregates (calls, inclusive and self seconds, bytes) are kept exactly for
every call; individual spans are kept in memory up to a cap and written out
when the traced run ends.

A few leaf functions run millions of times (SHA-256 in the seal chain), so
they are counted but get no span: their time stays in the caller's self
time.  ``restore`` puts every original binding back and reports any that did
not come back.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
import types

TRACED_MODULES = ("merkle", "pos", "erasure", "shamir", "porep", "post", "sim", "cli")
COUNT_ONLY = frozenset({"merkle.hash_bytes", "merkle.leaf_digest", "merkle.inner_digest"})
# Methods that carry a layer's work but are not module-level functions.
METHODS = (("sim", "SimWorld", "__init__", "sim.world_build"), ("sim", "SimWorld", "run_audit_epoch", "sim.epoch"))
SPAN_CAP = 50_000


# Bytes (or leaves) attributed to one call, for rates and sizes.
VOLUME = {
    "merkle.build_tree": lambda args, result: len(args[0]),
    "post.canonical_encode": lambda args, result: len(result),
    "erasure.encode": lambda args, result: sum(len(b) for b in args[0]),
    "erasure.decode": lambda args, result: sum(len(b) for b in result),
    "shamir.split_secret": lambda args, result: len(args[0]),
    "shamir.reconstruct": lambda args, result: len(result),
}


def span_name(module: str, func: str) -> str:
    if module == "cli" and func.startswith("cmd_"):
        return f"cli.{func[4:]}"
    return f"{module}.{func}"


class Aggregate:
    __slots__ = ("calls", "total", "self_time", "volume")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.volume = 0


class Tracer:
    """Install, collect, restore; one instance per traced run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.aggregates: dict[str, Aggregate] = {}
        self.spans: list[tuple] = []
        self.spans_dropped = 0
        self._stack: list[list] = []
        self._next_id = 0
        self._bindings: list[tuple[object, str, object]] = []
        self._wrappers: dict[int, object] = {}  # id -> wrapper, kept alive so ids stay unique

    # -- installation -------------------------------------------------------

    def _targets(self) -> dict[int, tuple[str, object]]:
        """id(original function) -> (span name, function) for every target."""
        targets = {}
        for mod_name in TRACED_MODULES:
            module = importlib.import_module(f"porstore.{mod_name}")
            for attr, obj in vars(module).items():
                if attr.startswith("_") or not isinstance(obj, types.FunctionType):
                    continue
                if obj.__module__ != module.__name__:
                    continue  # imported here; traced under its home module
                targets[id(obj)] = (span_name(mod_name, attr), obj)
        return targets

    def install(self) -> None:
        if self._bindings:
            raise RuntimeError("tracer already installed")
        targets = self._targets()
        wrappers = {key: self._wrap(name, fn) for key, (name, fn) in targets.items()}
        modules = [m for n, m in sorted(sys.modules.items()) if n == "porstore" or n.startswith("porstore.")]
        for module in modules:
            for attr, obj in list(vars(module).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None and obj is targets[id(obj)][1]:
                    self._bindings.append((module, attr, obj))
                    setattr(module, attr, wrapper)
        for mod_name, cls_name, attr, name in METHODS:
            cls = getattr(importlib.import_module(f"porstore.{mod_name}"), cls_name)
            original = cls.__dict__[attr]
            self._bindings.append((cls, attr, original))
            setattr(cls, attr, self._wrap(name, original))

    def restore(self) -> list[str]:
        """Put every original binding back; return any binding that still
        holds a wrapper afterwards."""
        for owner, attr, original in reversed(self._bindings):
            setattr(owner, attr, original)
        self._bindings = []
        owners = [m for n, m in sys.modules.items() if n == "porstore" or n.startswith("porstore.")]
        owners += [getattr(importlib.import_module(f"porstore.{m}"), c) for m, c, _, _ in METHODS]
        return [f"{getattr(owner, '__name__', owner)}.{attr}" for owner in owners
                for attr, obj in vars(owner).items() if id(obj) in self._wrappers]

    # -- wrappers -------------------------------------------------------------

    def _wrap(self, name: str, fn):
        agg = self.aggregates.setdefault(name, Aggregate())
        if name in COUNT_ONLY:
            def counted(*args, **kwargs):
                agg.calls += 1
                return fn(*args, **kwargs)

            counted.__wrapped__ = fn
            self._wrappers[id(counted)] = counted
            return counted

        stack = self._stack
        clock = time.perf_counter
        volume = VOLUME.get(name)
        tracer = self

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            span_id = tracer._next_id
            tracer._next_id += 1
            frame = [span_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                agg.calls += 1
                agg.total += duration
                agg.self_time += duration - frame[1]
                if parent is not None:
                    parent[1] += duration
                if len(tracer.spans) < SPAN_CAP:
                    tracer.spans.append((span_id, name, start, end,
                                         None if parent is None else parent[0], tracer.run_id))
                else:
                    tracer.spans_dropped += 1
            if volume is not None:
                agg.volume += volume(args, result)
            return result

        traced.__wrapped__ = fn
        self._wrappers[id(traced)] = traced
        return traced

    # -- results ----------------------------------------------------------------

    def self_total(self) -> float:
        return sum(a.self_time for a in self.aggregates.values())

    def write(self, path: str) -> None:
        """Spans as JSON lines, then one line of per-name aggregates."""
        with open(path, "w") as fh:
            for span_id, name, start, end, parent, run_id in self.spans:
                fh.write(json.dumps({"run": run_id, "id": span_id, "name": name,
                                     "start": start, "end": end, "parent": parent}) + "\n")
            fh.write(json.dumps({"spans_dropped": self.spans_dropped, "aggregates": {
                name: {"calls": a.calls, "total_s": a.total, "self_s": a.self_time, "volume": a.volume}
                for name, a in sorted(self.aggregates.items())}}) + "\n")
