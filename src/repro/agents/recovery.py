"""Broker crash recovery: advertisement journal + anti-entropy protocol.

Two recovery paths beyond "wait for agents to re-advertise":

* **Journal replay** — :class:`AdvertisementJournal` is an append-only
  write-ahead log of advertise/unadvertise records.  Each record is one
  s-expression line (see :mod:`repro.core.advertisement` for the
  advertisement codec), so an optionally file-backed journal is both
  durable and human-readable.  Periodic :meth:`compaction
  <AdvertisementJournal.compact>` keeps only the newest record per
  advertiser.  On restart a broker replays the journal to rebuild its
  repository before accepting traffic.

* **Anti-entropy** — a recovering (or periodically syncing) broker sends
  a :class:`SyncDigest` of per-advertiser ``(agent, at, seq)`` keys to
  its consortium peers; each peer answers with a :class:`SyncDelta`
  containing only the records the requester is missing or holds stale
  copies of.  Conflicts resolve last-writer-wins by the
  ``(advertised_at, seq)`` key — virtual time dominates, so a restarted
  advertiser (whose sequence counter reset) still supersedes stale
  copies of its earlier incarnation.
"""

from __future__ import annotations

import contextlib
import os
import shutil
import tempfile
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.advertisement import (
    Advertisement,
    advertisement_from_sexpr,
    advertisement_to_sexpr,
)
from repro.core.errors import BrokeringError
from repro.kqml.sexpr import brief_sexpr, parse_sexpr, render_sexpr
from repro.obs.profiler import PROFILER

OP_ADVERTISE = "advertise"
OP_UNADVERTISE = "unadvertise"


@dataclass(frozen=True)
class JournalRecord:
    """One journal line / one replication unit.

    An ``unadvertise`` record is a *tombstone*: it carries no
    advertisement but still participates in last-writer-wins ordering,
    so a peer that purged an agent can propagate the purge.
    """

    op: str
    agent: str
    seq: int
    at: float
    ad: Optional[Advertisement] = None

    def __post_init__(self):
        if self.op not in (OP_ADVERTISE, OP_UNADVERTISE):
            raise BrokeringError(f"unknown journal op {self.op!r}")
        if self.op == OP_ADVERTISE and self.ad is None:
            raise BrokeringError("advertise records need an advertisement")
        if self.op == OP_UNADVERTISE and self.ad is not None:
            raise BrokeringError("tombstones carry no advertisement")

    @property
    def lww_key(self) -> Tuple[float, int]:
        return (self.at, self.seq)

    @property
    def deleted(self) -> bool:
        return self.op == OP_UNADVERTISE


def record_to_sexpr(record: JournalRecord) -> list:
    expr = [record.op, record.agent, record.seq, record.at]
    if record.ad is not None:
        expr.append(advertisement_to_sexpr(record.ad))
    return expr


def record_from_sexpr(expr) -> JournalRecord:
    """Inverse of :func:`record_to_sexpr`; malformed input raises
    :class:`BrokeringError`."""
    if (not isinstance(expr, list) or len(expr) not in (4, 5)
            or any(isinstance(field, list) for field in expr[:4])):
        raise BrokeringError(f"malformed journal record: {brief_sexpr(expr)}")
    ad = advertisement_from_sexpr(expr[4]) if len(expr) == 5 else None
    try:
        seq, at = int(expr[2]), float(expr[3])
    except (TypeError, ValueError) as exc:
        raise BrokeringError(f"malformed journal record: {exc}") from exc
    return JournalRecord(
        op=str(expr[0]), agent=str(expr[1]), seq=seq, at=at, ad=ad,
    )


@dataclass
class JournalStats:
    appended: int = 0
    replayed: int = 0
    compactions: int = 0
    records_dropped: int = 0
    #: Partial last lines (a crash mid-append) cut off the file on open.
    torn_tail: int = 0


class AdvertisementJournal:
    """Append-only log of advertise/unadvertise records.

    In-memory by default (the simulator's "durable" storage survives a
    strict crash because the journal object outlives the agent's
    volatile state); pass *path* to additionally persist each line to a
    real file — an existing file is loaded, so a journal survives even
    process restarts.  Every append writes one whole line, so a file
    not ending in a newline was cut mid-append: the partial last line is
    dropped and the file truncated to its last complete line (counted
    in :attr:`JournalStats.torn_tail`), so the next append starts on a
    clean line.  A malformed complete line still fails :meth:`replay`.
    """

    def __init__(self, path: Optional[str] = None):
        self.path = path
        self.stats = JournalStats()
        self._lines: List[str] = []
        if path is not None and os.path.exists(path):
            with open(path, "rb") as handle:
                data = handle.read()
            complete = data.rfind(b"\n") + 1
            if complete < len(data):
                os.truncate(path, complete)
                self.stats.torn_tail += 1
            self._lines = [
                line for line in data[:complete].decode("utf-8").split("\n")
                if line.strip()
            ]

    def __len__(self) -> int:
        return len(self._lines)

    def append(self, record: JournalRecord) -> None:
        if PROFILER.enabled:
            PROFILER.begin("journal.append")
        try:
            line = render_sexpr(record_to_sexpr(record))
            self._lines.append(line)
            self.stats.appended += 1
            if self.path is not None:
                with open(self.path, "a", encoding="utf-8") as handle:
                    handle.write(line + "\n")
        finally:
            if PROFILER.enabled:
                PROFILER.end("journal.append")

    def record_advertise(self, ad: Advertisement) -> None:
        self.append(
            JournalRecord(
                op=OP_ADVERTISE,
                agent=ad.agent_name,
                seq=ad.seq,
                at=ad.advertised_at,
                ad=ad,
            )
        )

    def record_unadvertise(self, agent: str, seq: int, at: float) -> None:
        self.append(
            JournalRecord(op=OP_UNADVERTISE, agent=agent, seq=seq, at=at)
        )

    def replay(self) -> List[JournalRecord]:
        """All records in append order."""
        records = [record_from_sexpr(parse_sexpr(line)) for line in self._lines]
        self.stats.replayed += len(records)
        return records

    def compact(self) -> int:
        """Keep only the newest record per advertiser (live advertisement
        or tombstone) and return the number of lines dropped."""
        newest: Dict[str, JournalRecord] = {}
        order: List[str] = []
        for record in self.replay():
            if record.agent not in newest:
                order.append(record.agent)
            current = newest.get(record.agent)
            if current is None or record.lww_key >= current.lww_key:
                newest[record.agent] = record
        kept = [render_sexpr(record_to_sexpr(newest[a])) for a in order]
        if self.path is not None:
            self._replace_file(kept)
        dropped = len(self._lines) - len(kept)
        self._lines = kept
        self.stats.compactions += 1
        self.stats.records_dropped += dropped
        return dropped

    def _replace_file(self, lines: List[str]) -> None:
        """Swap the journal file for one holding *lines*, atomically.

        The new file is written and fsynced beside the old one, then
        renamed over it, so a crash or write error at any point leaves
        either the old journal or the new one, each whole; on an error
        the temporary file is removed and the old journal stays.
        """
        directory, name = os.path.split(os.path.abspath(self.path))
        fd, tmp = tempfile.mkstemp(prefix=name + ".", suffix=".tmp", dir=directory)
        try:
            with open(fd, "w", encoding="utf-8") as handle:
                for line in lines:
                    handle.write(line + "\n")
                handle.flush()
                os.fsync(handle.fileno())
            if os.path.exists(self.path):
                shutil.copymode(self.path, tmp)
            os.replace(tmp, self.path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise


# ----------------------------------------------------------------------
# anti-entropy payloads (in-process message content)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SyncDigest:
    """What the requester already knows: one ``(agent, at, seq,
    deleted)`` entry per advertiser it holds a record for.  A peer
    answers with records for advertisers absent from the digest or whose
    entries are newer than the digest's by the LWW key."""

    entries: Tuple[Tuple[str, float, int, bool], ...] = ()

    #: Anti-entropy rides the bus's maintenance priority lane: bounded
    #: mailboxes never shed it, so convergence survives overload.
    maintenance_lane = True

    def as_map(self) -> Dict[str, Tuple[float, int]]:
        return {agent: (at, seq) for agent, at, seq, _deleted in self.entries}


@dataclass(frozen=True)
class SyncDelta:
    """A peer's answer: the records the requester was missing."""

    records: Tuple[JournalRecord, ...] = ()

    #: See :attr:`SyncDigest.maintenance_lane`.
    maintenance_lane = True

    @property
    def size_mb(self) -> float:
        return sum(r.ad.size_mb for r in self.records if r.ad is not None)
