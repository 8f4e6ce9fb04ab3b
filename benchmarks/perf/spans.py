"""Wall-clock spans recorded from outside the program.

The harness wraps the public entry points of each layer (one layer = one
module family of ``src/repro``) with ``perf_counter_ns`` spans for the
duration of a traced pass and restores the originals afterwards; nothing
in ``src/`` knows it is being timed. A span is ``(name, start, end,
parent)``; a layer's *self time* is its spans' duration minus the part
their child spans cover, so the self times of all layers plus the
harness's own root spans add up to the traced wall time exactly.

Spans live in four parallel ``array``s (32 bytes per span) and are only
aggregated — with numpy — after the traced pass ends.
"""

from __future__ import annotations

import contextlib
import json
import time
from array import array
from typing import Any, Callable, Iterator

import numpy as np

from repro.core.admission import AdmissionController
from repro.core.client_node import ClientNode
from repro.core.durability import DurabilityManager
from repro.descriptions.semantic import SemanticModel
from repro.netsim.disk import SimDisk
from repro.netsim.messages import SizeModel
from repro.netsim.network import Network
from repro.netsim.node import Node
from repro.netsim.simulator import Simulator
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.tracing import TraceRecorder
from repro.registry.index import SemanticConceptIndex
from repro.registry.leases import LeaseManager
from repro.registry.matching import QueryEvaluator
from repro.registry.store import AdvertisementStore

#: Name of the harness's own root span around one traced operation.
ROOT_SPAN = "bench.op"


class SpanRecorder:
    """In-memory span storage for one traced pass (single-threaded)."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        #: Index of the innermost open span (-1 = none).
        self.cur = -1
        #: Timer-callback wrappers are installed before the deployment is
        #: built (so periodic tasks created at start-up carry them) and
        #: only record while this flag is set.
        self.on = False
        self.wal_bytes = 0

    def __len__(self) -> int:
        return len(self.start)

    def name(self, name: str) -> int:
        """Intern a span name."""
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self.cur)
        self.end.append(0)
        self.cur = idx
        self.start.append(time.perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self.cur = self.parent[idx]

    # -- aggregation -------------------------------------------------------

    def aggregate(self, root: str = ROOT_SPAN) -> dict[str, dict[str, float]]:
        """Per span name: ``count``, ``total_ns`` and ``self_ns``.

        Only spans under a ``root`` span count: what the oracle checks
        between two operations call into the program is recorded too, but
        it is the harness's work, not the operation's.
        """
        n = len(self)
        if n == 0:
            return {}
        name_id = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        duration = (np.frombuffer(self.end, dtype=np.int64)
                    - np.frombuffer(self.start, dtype=np.int64)).astype(np.float64)
        nested = parent >= 0
        covered = np.bincount(parent[nested], weights=duration[nested], minlength=n)
        self_time = duration - covered
        # Spans are appended in call order, so the top-level span a span
        # belongs to is the latest top-level span at or before it.
        top = np.maximum.accumulate(np.where(nested, -1, np.arange(n)))
        keep = name_id[top] == self.name(root)
        name_id, duration, self_time = name_id[keep], duration[keep], self_time[keep]
        k = len(self.names)
        count = np.bincount(name_id, minlength=k)
        total = np.bincount(name_id, weights=duration, minlength=k)
        own = np.bincount(name_id, weights=self_time, minlength=k)
        return {
            name: {"count": int(count[i]), "total_ns": float(total[i]),
                   "self_ns": float(own[i])}
            for i, name in enumerate(self.names) if count[i]
        }

    def durations_ns(self, name: str) -> list[int]:
        """Every recorded duration of one span name, in recording order."""
        nid = self._ids.get(name)
        if nid is None:
            return []
        return [self.end[i] - self.start[i]
                for i in range(len(self)) if self.name_id[i] == nid]

    def dump(self, path: str, *, meta: dict[str, Any]) -> None:
        """Write every span, columnar, as JSON."""
        with open(path, "w") as fh:
            json.dump({
                "meta": meta,
                "names": self.names,
                "name": self.name_id.tolist(),
                "start_ns": self.start.tolist(),
                "end_ns": self.end.tolist(),
                "parent": self.parent.tolist(),
            }, fh, separators=(",", ":"))


# -- wrappers -----------------------------------------------------------------

def _call_span(rec: SpanRecorder, fn: Callable, label: str) -> Callable:
    nid = rec.name(label)

    def wrapper(*args: Any, **kwargs: Any) -> Any:
        idx = rec.open(nid)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.close(idx)
    return wrapper


def _by_role(rec: SpanRecorder, label: str) -> Callable[[Node], int]:
    """Span-name id of ``label`` split by a node's ``role``."""
    ids: dict[str, int] = {}

    def nid(node: Node) -> int:
        found = ids.get(node.role)
        if found is None:
            found = ids[node.role] = rec.name(f"{label}[{node.role}]")
        return found
    return nid


def _role_span(rec: SpanRecorder, fn: Callable, label: str) -> Callable:
    """``Node.receive`` split by the receiving node's ``role``."""
    nid = _by_role(rec, label)

    def wrapper(self: Node, *args: Any, **kwargs: Any) -> Any:
        idx = rec.open(nid(self))
        try:
            return fn(self, *args, **kwargs)
        finally:
            rec.close(idx)
    return wrapper


def _iter_span(rec: SpanRecorder, fn: Callable, label: str) -> Callable:
    """A call returning a lazy iterator (or ``None``): every ``next()`` on
    the result is a span of the same name, closed before the item is handed
    to the consumer, so consumer time is never charged to the producer."""
    nid = rec.name(label)

    def advance(it: Iterator) -> Iterator:
        while True:
            idx = rec.open(nid)
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                rec.close(idx)
            yield item

    def wrapper(*args: Any, **kwargs: Any) -> Any:
        idx = rec.open(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(idx)
        return None if result is None else advance(iter(result))
    return wrapper


def _timer_span(rec: SpanRecorder, fn: Callable, label: str) -> Callable:
    """``Node.after`` / ``Node.every``: wrap the *callback* handed in, so a
    node's timer-driven work is charged to the node's role and not to the
    scheduler that fires it."""
    by_role = _by_role(rec, label)

    def wrapper(self: Node, delay: float, callback: Callable, **kwargs: Any) -> Any:
        nid = by_role(self)
        # A bound method handed over at start-up (``self.snapshot``) would
        # keep pointing at the unwrapped function; look it up when it fires.
        owner = getattr(callback, "__self__", None)
        method = getattr(callback, "__name__", "")

        def fired() -> None:
            if not rec.on:
                callback()
                return
            idx = rec.open(nid)
            try:
                if owner is None:
                    callback()
                else:
                    getattr(owner, method)()
            finally:
                rec.close(idx)
        return fn(self, delay, fired, **kwargs)
    return wrapper


def _wal_bytes(rec: SpanRecorder, fn: Callable, label: str) -> Callable:
    """``SimDisk.append``: no span (the append stays part of the durability
    layer's self time), only a count of the bytes appended."""
    def wrapper(self: SimDisk, name: str, data: bytes) -> None:
        rec.wal_bytes += len(data)
        fn(self, name, data)
    return wrapper


#: ``(class, attribute, wrapper factory)``. Installed before the deployment
#: is built; records only while ``SpanRecorder.on``.
TIMER_TARGETS = (
    (Node, "after", _timer_span),
    (Node, "every", _timer_span),
)

#: The layer boundaries. ``Network._deliver`` is the one private name: it
#: is the callback through which the scheduler hands an envelope back to
#: the transport, i.e. the simulator/network boundary on the receive side.
HOT_TARGETS = (
    (Simulator, "step", _call_span),
    (Simulator, "run", _call_span),
    (Simulator, "schedule_at", _call_span),
    (Network, "unicast", _call_span),
    (Network, "multicast", _call_span),
    (Network, "_deliver", _call_span),
    (SizeModel, "message_size", _call_span),
    (SimDisk, "append", _wal_bytes),
    (Node, "receive", _role_span),
    (ClientNode, "discover", _call_span),
    (AdmissionController, "intercept", _call_span),
    (DurabilityManager, "log_store", _call_span),
    (DurabilityManager, "log_renew", _call_span),
    (DurabilityManager, "log_remove", _call_span),
    (DurabilityManager, "log_expire", _call_span),
    (DurabilityManager, "snapshot", _call_span),
    (QueryEvaluator, "evaluate", _call_span),
    (QueryEvaluator, "merge", _call_span),
    (AdvertisementStore, "put", _call_span),
    (AdvertisementStore, "discard", _call_span),
    (AdvertisementStore, "ranked_candidates", _iter_span),
    (AdvertisementStore, "candidates", _call_span),
    (SemanticConceptIndex, "add", _call_span),
    (SemanticConceptIndex, "discard", _call_span),
    (SemanticConceptIndex, "candidate_buckets", _iter_span),
    (SemanticConceptIndex, "candidate_ids", _call_span),
    (SemanticModel, "evaluate", _call_span),
    (SemanticModel, "prefilter", _call_span),
    (LeaseManager, "grant", _call_span),
    (LeaseManager, "renew", _call_span),
    (LeaseManager, "cancel_for_ad", _call_span),
    (LeaseManager, "expired_ads", _call_span),
    (TraceRecorder, "start_span", _call_span),
    (TraceRecorder, "end_span", _call_span),
    (TraceRecorder, "event", _call_span),
    (MetricsRegistry, "histogram", _call_span),
    (MetricsRegistry, "counter", _call_span),
    (MetricsRegistry, "gauge", _call_span),
    (Histogram, "observe", _call_span),
)

#: Replay is timed on its own (the restarts run outside the traced pass).
RECOVER_TARGETS = (
    (DurabilityManager, "recover", _call_span),
)


@contextlib.contextmanager
def patched(rec: SpanRecorder, targets: tuple) -> Iterator[SpanRecorder]:
    """Install span wrappers on ``targets``; restore the originals on exit."""
    originals = []
    try:
        for cls, attr, factory in targets:
            raw = cls.__dict__[attr]
            originals.append((cls, attr, raw))
            label = f"{cls.__name__}.{attr}"
            if isinstance(raw, staticmethod):
                wrapper = staticmethod(factory(rec, raw.__func__, label))
            else:
                wrapper = factory(rec, raw, label)
            setattr(cls, attr, wrapper)
        yield rec
    finally:
        for cls, attr, raw in reversed(originals):
            setattr(cls, attr, raw)


# -- layers --------------------------------------------------------------------

#: Span name -> layer (one layer per module family of ``src/repro``).
LAYER_OF = {
    ROOT_SPAN: "bench",
    "Node.receive[bench]": "bench",
    "Simulator.step": "netsim.sim",
    "Simulator.run": "netsim.sim",
    "Simulator.schedule_at": "netsim.sim",
    "Network.unicast": "netsim.net",
    "Network.multicast": "netsim.net",
    "Network._deliver": "netsim.net",
    "SizeModel.message_size": "netsim.size_model",
    "Node.receive[client]": "core.client",
    "Node.after[client]": "core.client",
    "Node.every[client]": "core.client",
    "ClientNode.discover": "core.client",
    "Node.receive[registry]": "core.registry",
    "Node.after[registry]": "core.registry",
    "Node.every[registry]": "core.registry",
    "Node.receive[service]": "core.service",
    "Node.after[service]": "core.service",
    "Node.every[service]": "core.service",
    "AdmissionController.intercept": "core.admission",
    "DurabilityManager.log_store": "core.durability",
    "DurabilityManager.log_renew": "core.durability",
    "DurabilityManager.log_remove": "core.durability",
    "DurabilityManager.log_expire": "core.durability",
    "DurabilityManager.snapshot": "core.durability",
    "QueryEvaluator.evaluate": "registry.evaluate",
    "QueryEvaluator.merge": "registry.merge",
    "AdvertisementStore.put": "registry.store",
    "AdvertisementStore.discard": "registry.store",
    "AdvertisementStore.ranked_candidates": "registry.store",
    "AdvertisementStore.candidates": "registry.store",
    "SemanticConceptIndex.add": "registry.index",
    "SemanticConceptIndex.discard": "registry.index",
    "SemanticConceptIndex.candidate_buckets": "registry.index",
    "SemanticConceptIndex.candidate_ids": "registry.index",
    "SemanticModel.evaluate": "semantics.match",
    "SemanticModel.prefilter": "semantics.match",
    "LeaseManager.grant": "registry.leases",
    "LeaseManager.renew": "registry.leases",
    "LeaseManager.cancel_for_ad": "registry.leases",
    "LeaseManager.expired_ads": "registry.leases",
    "TraceRecorder.start_span": "obs.trace",
    "TraceRecorder.end_span": "obs.trace",
    "TraceRecorder.event": "obs.trace",
    "MetricsRegistry.histogram": "obs.metrics",
    "MetricsRegistry.counter": "obs.metrics",
    "MetricsRegistry.gauge": "obs.metrics",
    "Histogram.observe": "obs.metrics",
}


def layer_self_ns(aggregate: dict[str, dict[str, float]]) -> dict[str, float]:
    """Self time per layer, summed over the layer's span names."""
    layers: dict[str, float] = {}
    for name, row in aggregate.items():
        layer = LAYER_OF[name]
        layers[layer] = layers.get(layer, 0.0) + row["self_ns"]
    return layers
