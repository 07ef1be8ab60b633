"""Host-time span tracer for the benchmark's per-layer run.

The tracer knows nothing about the simulator.  It replaces named
functions with wrappers that open a span around each call, keeps the
spans in memory as compact arrays, and accounts host *self-time*: a
span's duration minus the part of it covered by its child spans.
Because every span's self-time excludes exactly the time its children
report, the self-times of all spans inside a root span add up to the
root's duration — no host second is counted twice.

Functions that return generators (simulator processes) are timed per
resumption: the wrapper hands back a generator that opens one span each
time the simulator resumes it, so a process's time is charged to its
layer while it runs and to nobody while it waits on simulated events.
"""

from __future__ import annotations

import array
import inspect
import json
import os
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["Tracer"]

_now = time.perf_counter


class Tracer:
    """Span recorder with per-layer call counts and self-time totals."""

    def __init__(self) -> None:
        self.layers: List[str] = []
        self._layer_ids: Dict[str, int] = {}
        # Open spans: [layer id, start, child seconds, span index].
        self._stack: List[list] = []
        # Closed spans, one entry per span in the four parallel arrays.
        self._layer = array.array("i")
        self._parent = array.array("i")
        self._start = array.array("d")
        self._end = array.array("d")
        self.self_s: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- spans ---------------------------------------------------------------
    def layer_id(self, layer: str) -> int:
        lid = self._layer_ids.get(layer)
        if lid is None:
            lid = self._layer_ids[layer] = len(self.layers)
            self.layers.append(layer)
            self.self_s[layer] = 0.0
            self.calls[layer] = 0
        return lid

    def enter(self, lid: int) -> None:
        index = len(self._layer)
        self._layer.append(lid)
        self._parent.append(self._stack[-1][3] if self._stack else -1)
        self._start.append(0.0)
        self._end.append(0.0)
        self._stack.append([lid, _now(), 0.0, index])

    def exit(self) -> None:
        end = _now()
        lid, start, child, index = self._stack.pop()
        duration = end - start
        self._start[index] = start
        self._end[index] = end
        layer = self.layers[lid]
        self.self_s[layer] += duration - child
        if self._stack:
            self._stack[-1][2] += duration

    def span(self, layer: str) -> "_Span":
        """Context manager opening one span (the benchmark's own phases)."""
        return _Span(self, self.layer_id(layer))

    def snapshot(self) -> Dict[str, float]:
        """Copy of the per-layer self-time totals so far."""
        return dict(self.self_s)

    # -- wrapping ------------------------------------------------------------
    def wrap(self, owner: Any, attr: str, layer: str) -> None:
        """Replace ``owner.attr`` (a module function or a class's own
        method) with a traced wrapper; :meth:`unwrap_all` restores it."""
        self.patch(owner, attr, self.traced(_lookup(owner, attr), layer))

    def wrap_everywhere(self, fn: Callable, layer: str,
                        package: str) -> None:
        """Wrap ``fn`` under every name a loaded module of ``package``
        binds it to (``from x import fn`` copies the reference)."""
        traced = self.traced(fn, layer)
        for name, module in list(sys.modules.items()):
            if module is None or not (name == package
                                      or name.startswith(package + ".")):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self.patch(module, attr, traced)

    def traced(self, fn: Callable, layer: str) -> Callable:
        """A wrapper of ``fn`` that records spans in ``layer``."""
        lid = self.layer_id(layer)
        tracer = self
        if inspect.isgeneratorfunction(fn):
            def traced_gen(*args, **kwargs):
                tracer.calls[layer] += 1
                return tracer.resumptions(fn(*args, **kwargs), lid)
            return _named(traced_gen, fn)

        def traced_call(*args, **kwargs):
            tracer.calls[layer] += 1
            tracer.enter(lid)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.exit()
        return _named(traced_call, fn)

    def resumptions(self, gen, lid: int):
        """Drive ``gen``, opening one span per resumption."""
        send: Any = None
        error: Optional[BaseException] = None
        while True:
            self.enter(lid)
            try:
                if error is not None:
                    target = gen.throw(error)
                else:
                    target = gen.send(send)
            except StopIteration as stop:
                return stop.value
            finally:
                self.exit()
            try:
                send, error = (yield target), None
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:  # forwarded into ``gen``
                send, error = None, exc

    def patch(self, owner: Any, attr: str, value: Any) -> None:
        """Set ``owner.attr``; :meth:`unwrap_all` restores the original."""
        self._patches.append((owner, attr, _lookup(owner, attr)))
        setattr(owner, attr, value)

    def unwrap_all(self) -> None:
        """Restore every wrapped name, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output --------------------------------------------------------------
    def write(self, path: str) -> int:
        """Write every closed span as a binary file; returns the count.

        Layout: a text header line (JSON list of layer names) followed
        by the four little-endian arrays (layer id int32, parent span
        int32, start float64, end float64), each prefixed by its length.
        """
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "wb") as fh:
            fh.write(json.dumps(self.layers).encode() + b"\n")
            for arr in (self._layer, self._parent, self._start, self._end):
                fh.write(len(arr).to_bytes(8, "little"))
                if sys.byteorder != "little":
                    arr = array.array(arr.typecode, arr)
                    arr.byteswap()
                arr.tofile(fh)
        return len(self._layer)

    def __len__(self) -> int:
        return len(self._layer)

    @property
    def depth(self) -> int:
        """Number of spans still open."""
        return len(self._stack)


class _Span:
    """One span around a ``with`` block; ``seconds`` is set on exit."""

    __slots__ = ("tracer", "lid", "index", "seconds")

    def __init__(self, tracer: Tracer, lid: int):
        self.tracer, self.lid = tracer, lid
        self.index, self.seconds = -1, 0.0

    def __enter__(self) -> "_Span":
        self.index = len(self.tracer)
        self.tracer.enter(self.lid)
        return self

    def __exit__(self, *exc) -> None:
        tracer = self.tracer
        tracer.exit()
        self.seconds = tracer._end[self.index] - tracer._start[self.index]


def _lookup(owner: Any, attr: str) -> Any:
    """A class's own attribute (not an inherited one) or a module's."""
    return owner.__dict__[attr] if isinstance(owner, type) \
        else getattr(owner, attr)


def _named(wrapper: Callable, fn: Callable) -> Callable:
    wrapper.__name__ = getattr(fn, "__name__", wrapper.__name__)
    wrapper.__qualname__ = getattr(fn, "__qualname__", wrapper.__qualname__)
    wrapper.__doc__ = fn.__doc__
    wrapper.__wrapped__ = fn
    return wrapper
