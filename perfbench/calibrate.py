"""An in-process calibration workload for normalising host time.

On a shared machine the speed a process gets drifts by tens of percent
over tens of seconds (other tenants on the same cores and caches), which
is far more than the changes the benchmark must resolve.  The runner
therefore times one calibration slice after every step of a phase and
reports the phase's host time scaled by ``REFERENCE_SLICE_S`` over the
calibration slices' own time: host time at the calibration's reference
speed.

The calibration imitates the program's kind of work, a message-passing
discrete-event loop over frozen dataclass messages, dicts, closures and
a heap, because only work of the same kind slows down the same way.  It
shares no code with the program.  It is deterministic and keeps a fixed
working set.  Garbage collection is paused during a slice, so the
program's heap never makes a slice slower.

The step before a slice still leaves the caches and the allocator in a
state of its own: a step that walks tens of MB made the next slice about
10% slower.  So each slice first brings the calibration to a fixed
state, untimed: it reads its whole working set and runs one slice of
events, and only then runs the timed slice.  ``check_calibration.py``
measures what is left of the effect (at most about 2.5%; see NOTES.md).
"""

from __future__ import annotations

import gc
import heapq
import random
import time
from dataclasses import dataclass, field

#: Events per slice, and a primed slice's host time on the reference
#: machine (a 2-vCPU cloud sandbox with no other load), so that scaled
#: figures read about as plain host time there.
SLICE_EVENTS = 700
REFERENCE_SLICE_S = 0.0044
#: The calibration's fixed working set: nodes, entries per node, and the
#: seed of its event schedule.  Every host figure is scaled to the
#: reference these define, so they are not parameters.
NODES = 100
ENTRIES = 200
SEED = 3


@dataclass(frozen=True)
class _Msg:
    kind: str
    sender: str
    receiver: str
    content: object = None
    extras: dict = field(default_factory=dict)

    def reply(self, kind: str, content=None) -> "_Msg":
        return _Msg(kind, self.receiver, self.sender, content,
                    {"in-reply-to": id(self)})


class _Node:
    def __init__(self, name: str, entries: int):
        self.name = name
        self.store = {f"{name}-k{i}": {"v": i, "tags": (i % 7, i % 11)}
                      for i in range(entries)}

    def handle(self, msg: _Msg, out: list) -> None:
        if msg.kind == "ask":
            hits = [value for value in self.store.values()
                    if value["tags"][0] == msg.content][:5]
            out.append(msg.reply("tell", hits))


class Calibration:
    """A steady-state event loop; :meth:`slice` runs and times one slice."""

    def __init__(self):
        self._rng = random.Random(SEED)
        self._nodes = {f"n{i}": _Node(f"n{i}", ENTRIES) for i in range(NODES)}
        self._names = list(self._nodes)
        self._queue: list = []
        self._seq = 0
        self._now = 0.0
        for _ in range(10):  # warm up
            self.slice()

    def _run(self, events: int) -> None:
        rng, queue, nodes = self._rng, self._queue, self._nodes
        for _ in range(events):
            if not queue or rng.random() < 0.3:
                self._seq += 1
                heapq.heappush(queue, (
                    self._now + rng.random(), self._seq,
                    _Msg("ask", "client", rng.choice(self._names),
                         rng.randrange(7))))
            self._now, _, msg = heapq.heappop(queue)
            out: list = []
            node = nodes.get(msg.receiver)
            if node is not None:
                node.handle(msg, out)
            for reply in out:
                self._seq += 1
                heapq.heappush(queue, (self._now + rng.random(), self._seq,
                                       reply))

    def _prime(self) -> None:
        """Bring caches and allocator to the calibration's own state."""
        for node in self._nodes.values():
            for value in node.store.values():
                value["tags"]
        self._run(SLICE_EVENTS)

    def slice(self) -> float:
        """Prime, then run one slice; return the slice's host time in
        seconds."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            self._prime()
            start = time.perf_counter()
            self._run(SLICE_EVENTS)
            return time.perf_counter() - start
        finally:
            if enabled:
                gc.enable()
