"""The four benchmark workloads.

Each workload builds a seeded community through the program's public
entry points, runs a set-up phase (construction plus catalog ingest),
and then a measured phase.  A workload instance is one repetition: the
runner builds a fresh one per repetition, so every repetition replays
the same seeded inputs.

Correctness is judged against the generator, never against the code
under test: the simulator's ``expected_matches`` (which resources the
generator assigned to each domain) and, for ``mrq``, the base table the
generator produced before it was fragmented.
"""

from __future__ import annotations

import functools
import math
import os
import random
from collections import Counter
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro import obs
from repro.agents import (AgentConfig, BrokerAgent, CostModel, MessageBus,
                          MultiResourceQueryAgent, ResourceAgent, UserAgent)
from repro.agents.base import Agent
from repro.agents.recovery import AdvertisementJournal
from repro.core.matcher import MatchContext
from repro.experiments.workload import workload_config
from repro.ontology import demo_ontology
from repro.relational import vertical_fragments
from repro.relational.generate import generate_table
from repro.sim.simulator import Simulation

#: ``flashcrowd``: the stock ``repro load`` shape, run for 8 virtual hours.
FLASHCROWD_DURATION_S = 28_800.0

#: ``catalog``/``catalog-churn``: the ROADMAP's 5k scale point.
CATALOG_RESOURCES = 5_000
#: Resources start uniformly within one ping interval (the simulator's
#: stagger), so ingest is over by then; the margin lets the last
#: advertisements be acknowledged before the measured phase starts.
CATALOG_INGEST_S = 300.0
CATALOG_INGEST_MARGIN_S = 60.0
CATALOG_MEASURE_S = 1_200.0
CATALOG_QUERY_INTERVAL_S = 1.0
#: Broker virtual costs divided by this, and 1 kB advertisements, keep
#: the five brokers unsaturated in virtual time at 5k resources (at
#: stock costs 2k resources already shed most messages).
CATALOG_PROCESSOR_SPEED = 100.0
CATALOG_AD_SIZE_MB = 0.001
#: Per-resource exponential crash/repair means for ``catalog-churn``:
#: about one recovery (and so one re-advertisement to two brokers) per
#: virtual second across the catalog.
CHURN_MTTF_S = 4_000.0
CHURN_MTTR_S = 1_000.0

#: ``mrq``: one class, two vertical fragments, three replicas each.
MRQ_ROWS = 200
MRQ_QUERIES = 200
MRQ_REPLICAS = 3
#: Responses take about 0.26 virtual s, so queries seldom overlap and
#: ``virtual_p95_s`` is the MRQ service time on every seed.
MRQ_MEAN_INTERVAL_S = 20.0
MRQ_SQL = "select * from C1"
#: Virtual time after the last submission: longer than the user's query
#: timeout, so every query is answered or timed out by the end.
MRQ_DRAIN_S = 300.0

#: Where ``catalog-churn`` keeps its brokers' journal files.
JOURNAL_DIR = Path(__file__).resolve().parent / "out" / "journals"

#: Each phase runs as this many equal virtual-time slices, which the
#: runner times one by one (see ``run.least_total``).
SETUP_SLICES = 4
MEASURE_SLICES = 40


def slices(advance: Callable[[float], None], start: float, end: float,
           count: int) -> List[Callable[[], None]]:
    """*count* steps advancing virtual time from *start* to *end*."""
    stops = [start + (end - start) * k / count for k in range(1, count)]
    return [functools.partial(advance, stop) for stop in (*stops, end)]


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (0.0 for an empty list)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def bus_counters(bus: MessageBus) -> Dict[str, float]:
    """The bus's public counters as a flat dict."""
    stats = bus.stats
    return {
        "messages_delivered": stats.messages_delivered,
        "dropped_offline": stats.dropped_offline,
        "dropped_injected": stats.dropped_injected,
        "timers_fired": stats.timers_fired,
        "bytes_transferred": stats.bytes_transferred,
        "shed_reject": stats.shed_reject,
        "shed_oldest": stats.shed_oldest,
        "shed_new": stats.shed_new,
        "shed_expired": stats.shed_expired,
        "mailbox_offered": stats.mailbox_offered,
        "mailbox_accepted": stats.mailbox_accepted,
        "maintenance_bypass": stats.maintenance_bypass,
    }


def delta(after: Dict[str, float], before: Dict[str, float]) -> Dict[str, float]:
    return {key: after[key] - before.get(key, 0) for key in after}


class Workload:
    """One repetition of a workload.

    Subclasses give the set-up phase (construction and ingest) and the
    measured phase as lists of steps, run in order, and expose the
    outcome through :meth:`outcome`.
    """

    name = ""
    #: The observer the workload attaches (None: the program default).
    observer: Optional[obs.Observer] = None

    def __init__(self, seed: int):
        self.seed = seed
        self.bus: Optional[MessageBus] = None
        self._start_counters: Dict[str, float] = {}
        self._start_repo: Dict[str, Dict[str, int]] = {}
        self._start_journal: Dict[str, int] = {}

    # -- phases -----------------------------------------------------------
    def setup_steps(self) -> List[Callable[[], None]]:
        raise NotImplementedError

    def after_setup(self) -> None:
        """Untimed checks and bookkeeping between the two phases."""
        self.mark_measure_start()

    def measure_steps(self) -> List[Callable[[], None]]:
        raise NotImplementedError

    def record_replies(self) -> None:
        """Start capturing what :meth:`outcome` needs beyond the public
        results (call before the measured phase)."""

    def close(self) -> None:
        """Remove whatever the repetition left on disk."""

    def mark_measure_start(self) -> None:
        self._start_counters = bus_counters(self.bus)
        self._start_repo = self._repo_counters()
        self._start_journal = self._journal_lengths()

    # -- counters -----------------------------------------------------------
    def brokers(self) -> List[BrokerAgent]:
        return [agent for name in self.bus.agent_names()
                if isinstance(agent := self.bus.agent(name), BrokerAgent)]

    def _repo_counters(self) -> Dict[str, Dict[str, int]]:
        return {broker.name: dict(vars(broker.repository.stats))
                for broker in self.brokers()}

    def _journal_lengths(self) -> Dict[str, int]:
        return {broker.name: len(broker.journal) for broker in self.brokers()
                if broker.journal is not None}

    def counters(self) -> Dict[str, object]:
        """Measured-phase deltas of every public stats object."""
        repo_now = self._repo_counters()
        journal_now = self._journal_lengths()
        return {
            "bus": delta(bus_counters(self.bus), self._start_counters),
            "repository": {
                name: delta(stats, self._start_repo.get(name, {}))
                for name, stats in repo_now.items()
            },
            "journal_appends": {
                name: length - self._start_journal.get(name, 0)
                for name, length in journal_now.items()
            },
        }

    def messages(self) -> int:
        return (self.bus.stats.messages_delivered
                - self._start_counters["messages_delivered"])

    # -- outcomes -------------------------------------------------------------
    def answered_in_phase(self) -> int:
        """User-level queries answered during the measured phase."""
        raise NotImplementedError

    def queries_in_phase(self) -> int:
        """User-level queries issued during the measured phase."""
        raise NotImplementedError

    def outcome(self) -> Dict[str, object]:
        """Per-query outcomes over the evaluation window: ``attempted``,
        ``answered`` (correct and complete), ``failures`` by reason,
        ``violations`` (wrong or silently incomplete answers), response
        times, and the matched/returned set per query."""
        raise NotImplementedError

    def replay_key(self) -> Tuple:
        """What a repetition of the same seed must reproduce exactly."""
        raise NotImplementedError

    def sizes(self) -> Dict[str, object]:
        raise NotImplementedError


# ----------------------------------------------------------------------
# the three simulator workloads
# ----------------------------------------------------------------------
class SimWorkload(Workload):
    """A :class:`~repro.sim.simulator.Simulation` split at ``config.warmup``.

    Queries issued in ``[warmup, stop - query_reply_timeout]`` are
    judged, so every judged query had its full timeout inside the run.
    """

    def __init__(self, seed: int):
        super().__init__(seed)
        self.sim_config = self.config()
        self.measure_to = self.stop(self.sim_config)

    def config(self):
        raise NotImplementedError

    def stop(self, config) -> float:
        return config.duration

    def make_observer(self) -> Optional[obs.Observer]:
        return None

    def _build(self) -> None:
        self.observer = self.make_observer()
        self.simulation = Simulation(self.sim_config, observer=self.observer)
        self.bus = self.simulation.bus
        self.query_agent = self.bus.agent("query-agent")

    def _advance(self, until: float) -> None:
        self.simulation.advance(until)

    def setup_steps(self) -> List[Callable[[], None]]:
        return [self._build, *slices(self._advance, 0.0,
                                     self.sim_config.warmup, SETUP_SLICES)]

    def after_setup(self) -> None:
        config = self.sim_config
        self.measure_from = self.bus.now
        self.window = (config.warmup,
                       self.measure_to - config.query_reply_timeout)
        self.check_ingest()
        super().after_setup()

    def check_ingest(self) -> None:
        """Raise unless every resource advertised during set-up."""

    def measure_steps(self) -> List[Callable[[], None]]:
        return slices(self._advance, self.sim_config.warmup, self.measure_to,
                      MEASURE_SLICES)

    def record_replies(self) -> None:
        """Capture the reply each recommend received (None on timeout),
        for :meth:`outcome`; call before :meth:`measure`."""
        replies: Dict[int, object] = {}
        agent = self.query_agent
        original = agent._broker_replied

        def capture(record, complexity, coverage, reply, result):
            replies[id(record)] = reply
            return original(record, complexity, coverage, reply, result)

        agent._broker_replied = capture
        self.replies = replies

    def _window_records(self):
        low, high = self.window
        return [record for record in self.simulation.metrics.broker_queries
                if low <= record.issued_at <= high]

    def answered_in_phase(self) -> int:
        return sum(1 for record in self.simulation.metrics.broker_queries
                   if record.replied_at is not None
                   and record.replied_at > self.measure_from)

    def queries_in_phase(self) -> int:
        return sum(1 for record in self.simulation.metrics.broker_queries
                   if record.issued_at > self.measure_from)

    def outcome(self) -> Dict[str, object]:
        """Needs :meth:`record_replies` installed before the measured
        phase, to tell timeouts, refusals and partial answers apart."""
        expected = self.simulation.expected_matches
        failures: Counter = Counter()
        violations: List[str] = []
        answered = flagged_complete = 0
        times: List[float] = []
        matched: List[list] = []
        records = self._window_records()
        for record in records:
            want = expected.get(record.domain, set())
            got = set(record.matched_agents)
            matched.append([repr(record.issued_at), record.domain,
                            sorted(got) if record.replied else None])
            if id(record) not in self.replies:
                failures["unresolved"] += 1
                continue
            reply = self.replies[id(record)]
            if reply is None:
                failures["timeout"] += 1
                continue
            if not record.replied:
                reason = reply.extra("reason") or reply.content
                failures[f"{reply.performative.value}:{reason}"] += 1
                continue
            times.append(record.response_time)
            partial = reply.extra("partial")
            if got - want:
                violations.append(
                    f"query at t={record.issued_at:.3f} on {record.domain} "
                    f"returned unexpected resources {sorted(got - want)}")
            elif got == want:
                answered += 1
                flagged_complete += bool(partial)
            elif partial:
                failures["partial"] += 1
            else:
                violations.append(
                    f"query at t={record.issued_at:.3f} on {record.domain} "
                    f"silently incomplete: missing {sorted(want - got)}")
        return {
            "attempted": len(records),
            "answered": answered,
            "answered_but_flagged_partial": flagged_complete,
            "failures": dict(sorted(failures.items())),
            "violations": violations,
            "response_times": times,
            "matched": matched,
        }

    def replay_key(self) -> Tuple:
        records = tuple(
            (record.issued_at, record.replied_at, record.matched_agents)
            for record in self.simulation.metrics.broker_queries)
        return (tuple(sorted(bus_counters(self.bus).items())), records)


class FlashcrowdWorkload(SimWorkload):
    name = "flashcrowd"

    def make_observer(self) -> obs.Observer:
        # Attached exactly as ``python -m repro load`` attaches it.
        return obs.TimeSeriesObserver(window_s=60.0, capacity=720)

    def config(self):
        return workload_config("flashcrowd", duration=FLASHCROWD_DURATION_S,
                               seed=self.seed)

    def sizes(self) -> Dict[str, object]:
        config = self.sim_config
        return {"brokers": config.n_brokers, "resources": config.n_resources,
                "virtual_s": FLASHCROWD_DURATION_S}


class CatalogWorkload(SimWorkload):
    name = "catalog"
    churn = False

    def config(self):
        warmup = CATALOG_INGEST_S + CATALOG_INGEST_MARGIN_S
        overrides = dict(
            n_resources=CATALOG_RESOURCES,
            ping_interval=CATALOG_INGEST_S,
            # Resources advertise once and never ping, so the measured
            # phase carries recommends (plus, under churn, the
            # re-advertisements of recovering resources) and nothing else.
            fixed_broker_assignment=True,
            processor_speed=CATALOG_PROCESSOR_SPEED,
            advertisement_size_mb=CATALOG_AD_SIZE_MB,
            mean_query_interval=CATALOG_QUERY_INTERVAL_S,
            warmup=warmup,
        )
        if self.churn:
            overrides.update(
                resource_mttf=CHURN_MTTF_S,
                resource_mttr=CHURN_MTTR_S,
                crash_mode="strict",
                broker_journal=True,
            )
        # The failure schedules end every outage at the horizon, so the
        # measured phase stops one second before it.
        duration = warmup + CATALOG_MEASURE_S + 60.0 + 1.0
        return workload_config("steady", duration=duration, seed=self.seed,
                               **overrides)

    def stop(self, config) -> float:
        return config.duration - 1.0

    def _build(self) -> None:
        super()._build()
        self.journal_files: List[Path] = []
        if self.churn:
            self._file_journals()

    def _file_journals(self) -> None:
        """Give each broker a file-backed journal in place of the
        in-memory one ``broker_journal`` builds, before any advertisement
        arrives, so that every append also runs the journal's file path.
        Each repetition starts from empty files."""
        JOURNAL_DIR.mkdir(parents=True, exist_ok=True)
        for broker in self.brokers():
            path = JOURNAL_DIR / f"{os.getpid()}-{broker.name}.log"
            path.unlink(missing_ok=True)
            broker.journal = AdvertisementJournal(path=str(path))
            self.journal_files.append(path)

    def close(self) -> None:
        for path in self.journal_files:
            path.unlink(missing_ok=True)

    def check_ingest(self) -> None:
        config = self.sim_config
        held: Counter = Counter()
        for broker in self.brokers():
            held.update(broker.repository.agent_names())
        want = config.effective_redundancy()
        missing = [f"resource{i}" for i in range(config.n_resources)
                   if held[f"resource{i}"] != want]
        if missing:
            raise AssertionError(
                f"{len(missing)} resources are not held by {want} brokers "
                f"after ingest (first: {missing[0]})")

    def sizes(self) -> Dict[str, object]:
        config = self.sim_config
        return {"brokers": config.n_brokers, "resources": config.n_resources,
                "advertisements": config.n_resources
                * config.effective_redundancy(),
                "virtual_measure_s": CATALOG_MEASURE_S}


class CatalogChurnWorkload(CatalogWorkload):
    name = "catalog-churn"
    churn = True


# ----------------------------------------------------------------------
# the multi-resource query workload
# ----------------------------------------------------------------------
class MrqWorkload(Workload):
    """Vertically fragmented, replicated C1 queried through the MRQ agent."""

    name = "mrq"

    def __init__(self, seed: int):
        super().__init__(seed)
        # Open loop: Poisson submissions on a seeded schedule.
        rng = random.Random(f"perfbench-mrq:{seed}")
        at, self.arrivals = 10.0, []
        for _ in range(MRQ_QUERIES):
            self.arrivals.append(at)
            at += rng.expovariate(1.0 / MRQ_MEAN_INTERVAL_S)
        self.measure_to = self.arrivals[-1] + MRQ_DRAIN_S

    def setup_steps(self) -> List[Callable[[], None]]:
        return [self._build, functools.partial(self._advance, 5.0),
                self._submit]

    def _advance(self, until: float) -> None:
        self.bus.run_until(until)

    def _build(self) -> None:
        onto = demo_ontology(1, slots_per_class=5)
        self.base = generate_table(onto, "C1", MRQ_ROWS, seed=self.seed)
        self.key = onto.key_of("C1")
        fragments = vertical_fragments(
            self.base, [["c1_s1", "c1_s2"], ["c1_s3", "c1_s4"]])
        bus = MessageBus(CostModel(
            broker_seconds_per_mb=0.01,
            resource_seconds_per_mb=0.01,
            base_handling_seconds=0.001,
            latency_seconds=0.01,
            bandwidth_bytes_per_second=1e9,
        ))
        self.bus = bus
        brokers = ("broker1", "broker2")
        context = MatchContext(ontologies={"demo": onto})
        for name in brokers:
            bus.register(BrokerAgent(
                name, context=context,
                peer_brokers=[b for b in brokers if b != name]))
        self.resources: List[ResourceAgent] = []
        for index, fragment in enumerate(fragments):
            for replica in range(MRQ_REPLICAS):
                agent = ResourceAgent(
                    f"vf{index}r{replica}", {"C1": fragment}, "demo",
                    config=AgentConfig(
                        preferred_brokers=(brokers[replica % 2],),
                        redundancy=2),
                    advertised_slots=tuple(fragment.schema.column_names()))
                self.resources.append(agent)
                bus.register(agent)
        bus.register(MultiResourceQueryAgent(
            "mrq", "demo", ontology=onto,
            config=AgentConfig(preferred_brokers=brokers, redundancy=1)))
        self.user = UserAgent(
            "alice",
            config=AgentConfig(preferred_brokers=(brokers[0],), redundancy=1),
            query_timeout=240.0)
        bus.register(self.user)

    def _submit(self) -> None:
        for at in self.arrivals:
            self.user.submit(MRQ_SQL, at=at)

    def after_setup(self) -> None:
        self.expected_rows = self._sorted_rows(self.base.rows())
        super().after_setup()

    def measure_steps(self) -> List[Callable[[], None]]:
        return slices(self._advance, self.bus.now, self.measure_to,
                      MEASURE_SLICES)

    def _sorted_rows(self, rows) -> List[dict]:
        return sorted((dict(row) for row in rows),
                      key=lambda row: row.get(self.key) or 0)

    def subqueries(self) -> int:
        return sum(agent.queries_answered for agent in self.resources)

    def answered_in_phase(self) -> int:
        return sum(1 for done in self.user.completed if done.succeeded)

    def queries_in_phase(self) -> int:
        return MRQ_QUERIES

    def outcome(self) -> Dict[str, object]:
        failures: Counter = Counter()
        violations: List[str] = []
        answered = flagged_complete = 0
        times: List[float] = []
        returned: List[list] = []
        for done in self.user.completed:
            returned.append([repr(done.submitted_at),
                             None if done.result is None
                             else done.result.row_count,
                             done.error, done.partial])
            if not done.succeeded:
                failures["timeout" if done.error == "timeout"
                         else f"sorry:{done.error}"] += 1
                continue
            times.append(done.response_time)
            full = self._sorted_rows(done.result.rows) == self.expected_rows
            if full:
                answered += 1
                flagged_complete += done.partial is not None
            elif done.partial is not None:
                failures["partial"] += 1
            else:
                violations.append(
                    f"query submitted at t={done.submitted_at:.3f} returned "
                    f"{done.result.row_count} rows that differ from the base "
                    f"table without a :partial annotation")
        missing = MRQ_QUERIES - len(self.user.completed)
        if missing:
            failures["never-completed"] += missing
        return {
            "attempted": MRQ_QUERIES,
            "answered": answered,
            "answered_but_flagged_partial": flagged_complete,
            "failures": dict(sorted(failures.items())),
            "violations": violations,
            "response_times": times,
            "matched": returned,
        }

    def replay_key(self) -> Tuple:
        completed = tuple(
            (done.submitted_at, done.completed_at, done.error, done.partial,
             None if done.result is None else done.result.row_count)
            for done in self.user.completed)
        return (tuple(sorted(bus_counters(self.bus).items())), completed,
                self.subqueries())

    def counters(self) -> Dict[str, object]:
        counters = super().counters()
        counters["mrq_subqueries"] = self.subqueries()
        counters["user_completed"] = len(self.user.completed)
        return counters

    def sizes(self) -> Dict[str, object]:
        return {"rows": MRQ_ROWS, "fragments": 2, "replicas": MRQ_REPLICAS,
                "queries": MRQ_QUERIES}


WORKLOADS = {
    workload.name: workload
    for workload in (FlashcrowdWorkload, CatalogWorkload,
                     CatalogChurnWorkload, MrqWorkload)
}


def count_deliveries() -> Tuple[Counter, Callable[[], None]]:
    """Count deliveries per performative by wrapping
    :meth:`Agent.handle_message` (the bus calls it once per delivered
    message).  Returns the counter and an uninstall function."""
    counts: Counter = Counter()
    original = Agent.handle_message

    def counting(self, message, now):
        counts[message.performative.value] += 1
        return original(self, message, now)

    Agent.handle_message = counting

    def uninstall():
        Agent.handle_message = original

    return counts, uninstall
