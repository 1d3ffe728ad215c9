"""Canonical message traces for flow-equality tests.

A trace is the ordered list of every message a bus sent and delivered,
each reduced to a comparable tuple.  Two runs with equal traces sent the
same messages, between the same agents, at the same virtual instants,
with the same KQML extras.
"""

import hashlib
import re

from repro.obs.metrics import MetricsObserver

_GLOBAL_ID = re.compile(r"\bid\d+\b")


class TraceObserver(MetricsObserver):
    """Records every sent/delivered message as a comparable tuple.

    KQML reply ids come from a process-global counter, so two runs in
    one process mint different ``idN`` strings even when the flows are
    identical.  Ids are interned in order of first appearance, which
    still detects any reordering, addition, or loss of messages.

    It is also a full :class:`MetricsObserver`, so a harness that reads
    its observer's registry back runs under it unchanged."""

    def __init__(self):
        super().__init__()
        self.events = []
        self._ids = {}

    def _canon(self, value):
        if not isinstance(value, str):
            return value
        return _GLOBAL_ID.sub(
            lambda m: self._ids.setdefault(m.group(0),
                                           f"id#{len(self._ids)}"),
            value,
        )

    def _key(self, kind, time, message):
        extras = tuple((k, self._canon(v)) for k, v in message.extras)
        return (kind, time, message.sender, message.receiver,
                message.performative.value, self._canon(message.reply_with),
                self._canon(message.in_reply_to), extras)

    def message_sent(self, time, message, size_bytes, cause=None):
        super().message_sent(time, message, size_bytes, cause)
        self.events.append(self._key("sent", time, message))

    def message_delivered(self, time, message, queue_time=0.0, size_bytes=0.0,
                          dedup=False):
        super().message_delivered(time, message, queue_time, size_bytes, dedup)
        self.events.append(self._key("delivered", time, message))


def trace_digest(events) -> str:
    """SHA-256 of a trace's canonical text."""
    return hashlib.sha256(repr(events).encode()).hexdigest()
