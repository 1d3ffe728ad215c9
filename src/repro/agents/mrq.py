"""The multiresource query (MRQ) agent.

The MRQ agent implements the Figure 6/7 flow: it receives a user SQL
query, asks the broker for the resource agents relevant to the query's
class and constraints, fans the (rewritten) query out to them, and
assembles the answers:

* resources holding *vertical fragments* are reassembled by joining on
  the class key (VF stream);
* resources holding *subclass extents* or horizontal fragments are
  reassembled by union over the shared columns (CH stream);
* both at once (FH stream) unions within fragment shape, then joins
  across shapes.

WHERE clauses are pushed down to a resource only when that resource
holds every predicate column; otherwise the MRQ fetches the needed
columns and filters after assembly, so fragmented predicates still
evaluate correctly.

One executor runs every query; a *planner* first turns the broker's
recommendation into fragments, each a rewritten sub-query plus the
providers that can answer it.  There are two plans:

* the *fan-out plan* (no :class:`MrqResilienceConfig`, or one with
  failover and hedging off) makes one fragment per usable recommended
  resource — the paper's query-every-match flow;
* the *equivalence plan* groups interchangeable resources into one
  fragment — same rewritten sub-query, same advertised constraints,
  confirmed by the broker's ``equivalence`` hint — so the executor can
  fail over to the next-ranked provider on timeout / ``sorry`` /
  overload shed, and optionally hedge stragglers with a duplicate
  sub-query to the runner-up (first reply wins).

The executor sends each fragment to its best-scored provider and keeps
per-provider health (latency EWMA, failure streaks, breaker state)
across queries.  Under either plan, answers assembled with fragments
missing carry a ``:partial`` annotation with machine-readable detail
instead of masquerading as complete.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.agents.base import Agent, AgentConfig, HandlerResult
from repro.agents.broker import RecommendRequest
from repro.agents.errors import AgentError
from repro.constraints import Constraint
from repro.core.matcher import Match
from repro.core.policy import SearchPolicy
from repro.core.query import BrokerQuery
from repro.kqml import KqmlMessage, Performative
from repro.ontology.model import Ontology
from repro.ontology.service import (
    AgentLocation,
    Capabilities,
    ContentInfo,
    ServiceDescription,
    SyntacticInfo,
)
from repro.relational.fragmentation import join_on_key, union_all
from repro.relational.schema import Column, Schema, SchemaError
from repro.relational.table import Table
from repro.sql.ast import Select, predicate_columns
from repro.sql.errors import SqlError
from repro.sql.executor import (
    QueryResult,
    evaluate_predicate,
    parse_select_cached,
    where_to_constraint,
)
from repro.sql.render import render_select


@dataclass(frozen=True)
class MrqResilienceConfig:
    """Resilient execution knobs (ZBroker-style server selection).

    The default-constructed config enables failover only.  A config with
    failover and hedging both off, like ``None`` on the agent (the
    default), selects the query-every-match fan-out plan.
    """

    #: Send each fragment to the best provider and retry the next-ranked
    #: one on timeout / sorry / overload shed.
    failover: bool = True
    #: Duplicate straggler fragments to the runner-up provider after a
    #: latency-quantile trigger; first reply wins.
    hedge: bool = False
    #: Per-provider sub-query timeout (seconds, virtual time).
    provider_timeout: float = 15.0
    #: Total providers tried per fragment (including hedges).
    max_providers_per_fragment: int = 3
    #: EWMA smoothing for observed provider latency.
    ewma_alpha: float = 0.3
    #: Assumed latency for providers never observed (seconds).
    initial_latency_s: float = 10.0
    #: Score multiplier per consecutive failure (capped at 6 failures).
    failure_penalty: float = 4.0
    #: Consecutive failures before a provider's breaker opens.
    breaker_threshold: int = 3
    #: Seconds an opened provider is deprioritized before retry.
    breaker_cooldown_s: float = 120.0
    #: Hedge trigger before enough latency samples exist (seconds).
    hedge_delay_s: float = 8.0
    #: Latency quantile that arms the hedge trigger once warmed up.
    hedge_quantile: float = 0.95
    #: Samples required before the quantile replaces ``hedge_delay_s``.
    hedge_min_samples: int = 8

    def __post_init__(self):
        if self.provider_timeout <= 0:
            raise AgentError("provider_timeout must be positive")
        if self.max_providers_per_fragment < 1:
            raise AgentError("max_providers_per_fragment must be >= 1")
        if not 0.0 < self.ewma_alpha <= 1.0:
            raise AgentError("ewma_alpha must be in (0, 1]")
        if self.failure_penalty < 1.0:
            raise AgentError("failure_penalty must be >= 1")
        if self.breaker_threshold < 1:
            raise AgentError("breaker_threshold must be >= 1")
        if self.breaker_cooldown_s < 0 or self.hedge_delay_s <= 0:
            raise AgentError("breaker/hedge delays must be positive")
        if not 0.0 < self.hedge_quantile <= 1.0:
            raise AgentError("hedge_quantile must be in (0, 1]")

    @property
    def active(self) -> bool:
        return self.failover or self.hedge


@dataclass
class ProviderHealth:
    """Observed health of one resource agent, persisted across queries."""

    ewma_latency_s: Optional[float] = None
    successes: int = 0
    failures: int = 0
    consecutive_failures: int = 0
    #: Simple circuit breaker: until this instant the provider ranks
    #: behind every closed provider (it is still eligible as a last
    #: resort, which doubles as the half-open probe).
    open_until: float = 0.0
    last_failure_reason: Optional[str] = None

    def record_success(self, latency_s: float, cfg: MrqResilienceConfig) -> None:
        self.successes += 1
        self.consecutive_failures = 0
        self.open_until = 0.0
        if self.ewma_latency_s is None:
            self.ewma_latency_s = latency_s
        else:
            alpha = cfg.ewma_alpha
            self.ewma_latency_s = alpha * latency_s + (1 - alpha) * self.ewma_latency_s

    def record_failure(
        self,
        reason: str,
        now: float,
        cfg: MrqResilienceConfig,
        retry_after: object = None,
    ) -> None:
        self.failures += 1
        self.consecutive_failures += 1
        self.last_failure_reason = reason
        if self.consecutive_failures >= cfg.breaker_threshold:
            self.open_until = max(self.open_until, now + cfg.breaker_cooldown_s)
        if retry_after is not None:
            # PR 8 pairing: an overload shed names its own cooldown.
            try:
                delay = float(retry_after)
            except (TypeError, ValueError):
                delay = 0.0
            self.open_until = max(self.open_until, now + delay)

    def available(self, now: float) -> bool:
        return now >= self.open_until

    def score(self, cfg: MrqResilienceConfig, now: float) -> float:
        base = (
            self.ewma_latency_s
            if self.ewma_latency_s is not None
            else cfg.initial_latency_s
        )
        return base * (cfg.failure_penalty ** min(self.consecutive_failures, 6))


class _Answer(NamedTuple):
    """A provider's reply, validated once where it entered the MRQ."""

    provider: str
    table: Table
    rows_scanned: int


#: The fan-out plan's policy.  Each fragment has one provider, so there is
#: nothing to fail over to or hedge with; only the health bookkeeping
#: reads it.
_FANOUT = MrqResilienceConfig(failover=False)


@dataclass
class _Fragment:
    """A rewritten sub-query plus the providers that can answer it: one
    in the fan-out plan, an equivalence set of interchangeable ones
    otherwise (broker-rank order preserved)."""

    fragment_id: str
    rendered: str
    providers: List[str]
    pushed_down: bool


@dataclass
class _FragmentRun:
    """Executor state for one fragment of one query."""

    fragment: _Fragment
    started: float = 0.0
    tried: List[str] = field(default_factory=list)
    #: provider -> (reply id, send time) for copies still in flight.
    outstanding: Dict[str, Tuple[str, float]] = field(default_factory=dict)
    failures: List[Tuple[str, str]] = field(default_factory=list)
    winner: Optional[str] = None
    answer: Optional[_Answer] = None
    hedged: bool = False
    exhausted: bool = False

    @property
    def done(self) -> bool:
        return self.winner is not None or self.exhausted


@dataclass
class _Execution:
    """One user query, from the broker's recommendation to its answer."""

    original: KqmlMessage
    select: Select
    ontology: Optional[Ontology]
    brokers_tried: Tuple[str, ...]
    #: The fan-out plan (one fragment per recommended resource) rather
    #: than the equivalence plan.
    fanout: bool
    exec_id: int = 0
    runs: List[_FragmentRun] = field(default_factory=list)
    #: Runs that won an answer, in the order the answers arrived.
    answered: List[_FragmentRun] = field(default_factory=list)


class MultiResourceQueryAgent(Agent):
    """Decomposes queries over fragmented/replicated/hierarchical classes."""

    agent_type = "query"

    def __init__(
        self,
        name: str,
        ontology_name: str,
        ontology: Optional[Ontology] = None,
        config: Optional[AgentConfig] = None,
        specialty_classes: Sequence[str] = (),
        broker_hop_count: int = 8,
        extra_ontologies: Sequence[Ontology] = (),
        ontology_agent: Optional[str] = None,
        resilience: Optional[MrqResilienceConfig] = None,
        ontology_retry_interval: float = 300.0,
    ):
        super().__init__(name, config)
        self.ontology_name = ontology_name
        self.ontology = ontology
        self.extra_ontologies = tuple(extra_ontologies)
        self.specialty_classes = tuple(specialty_classes)
        self.broker_hop_count = broker_hop_count
        #: When set, unknown classes trigger an ``ask-one
        #: (ontology-for-class <name>)`` to this agent, and the fetched
        #: ontology is cached for subsequent queries.
        self.ontology_agent = ontology_agent
        #: Negative cache of failed ontology fetches: class name -> the
        #: instant the entry expires and a fetch may be retried.
        self._ontology_fetch_failed: Dict[str, float] = {}
        self.ontology_retry_interval = ontology_retry_interval
        self.ontologies_fetched = 0
        self.queries_processed = 0
        #: Selects the plan: None or a config with failover and hedging
        #: off runs the query-every-match fan-out plan, an active config
        #: the equivalence plan with its failover/hedging policy.
        self.resilience = resilience
        #: Resource name -> observed health, persisted across queries.
        self.provider_health: Dict[str, ProviderHealth] = {}
        self._latency_samples: Deque[float] = deque(maxlen=128)
        self._executions: Dict[int, _Execution] = {}
        self._exec_counter = 0

    def _resolve_ontology(self, class_name: str):
        """The (name, Ontology) pair whose vocabulary covers *class_name*,
        or None when unknown (the caller may fetch it on demand).
        """
        candidates = []
        if self.ontology is not None:
            candidates.append(self.ontology)
        candidates.extend(self.extra_ontologies)
        for ontology in candidates:
            if class_name in ontology:
                return ontology.name, ontology
        return None

    def _knows_class(self, class_name: str) -> bool:
        return self._resolve_ontology(class_name) is not None

    # ------------------------------------------------------------------
    # advertisement
    # ------------------------------------------------------------------
    def build_description(self) -> ServiceDescription:
        return ServiceDescription(
            location=AgentLocation(name=self.name, agent_type="query"),
            syntax=SyntacticInfo(content_languages=("SQL 2.0",)),
            capabilities=Capabilities(
                conversations=("ask-all", "ask-one", "ping"),
                functions=("multiresource-query-processing",),
            ),
            content=ContentInfo(
                ontology_name=self.ontology_name if self.specialty_classes else "",
                classes=self.specialty_classes,
            ),
        )

    # ------------------------------------------------------------------
    # the Figure 6/7 flow
    # ------------------------------------------------------------------
    def on_ask_all(self, message: KqmlMessage, result: HandlerResult, now: float) -> None:
        if not isinstance(message.content, str):
            result.send(message.reply(Performative.SORRY, content="expected SQL text"))
            return
        try:
            select = parse_select_cached(message.content)
        except SqlError as exc:
            result.send(message.reply(Performative.SORRY, content=str(exc)))
            return
        broker = self._pick_broker()
        if broker is None:
            result.send(message.reply(Performative.SORRY, content="no broker connected"))
            return

        self.queries_processed += 1
        if (
            not self._knows_class(select.table)
            and self.ontology_agent is not None
            and not self._fetch_blocked(select.table, now)
        ):
            self._fetch_ontology_then_continue(message, select, broker, result)
            return
        self._dispatch_query(message, select, broker, result)

    def _fetch_blocked(self, class_name: str, now: float) -> bool:
        """True while the class sits in the negative fetch cache.  Entries
        expire after ``ontology_retry_interval`` so a transiently dead
        ontology agent no longer poisons the class forever."""
        expires = self._ontology_fetch_failed.get(class_name)
        if expires is None:
            return False
        if now >= expires:
            del self._ontology_fetch_failed[class_name]
            return False
        return True

    def _fetch_ontology_then_continue(
        self, message: KqmlMessage, select: Select, broker: str, result: HandlerResult
    ) -> None:
        """Ask the ontology agent for the vocabulary covering the query's
        class, cache it, and resume query processing (Section 1.1: agents
        "service requests over a set of common ontologies, accessed via
        the ontology agents")."""
        ask = KqmlMessage(
            Performative.ASK_ONE,
            sender=self.name,
            receiver=self.ontology_agent,
            content=("ontology-for-class", select.table),
        )
        self.ask(
            ask,
            lambda reply, res: self._ontology_fetched(message, select, broker,
                                                      reply, res),
            result,
        )

    def _ontology_fetched(
        self,
        message: KqmlMessage,
        select: Select,
        broker: str,
        reply: Optional[KqmlMessage],
        result: HandlerResult,
    ) -> None:
        fetched = (
            reply.content
            if reply is not None and reply.performative is Performative.TELL
            else None
        )
        if isinstance(fetched, Ontology):
            self.extra_ontologies = (*self.extra_ontologies, fetched)
            self.ontologies_fetched += 1
        else:
            self._ontology_fetch_failed[select.table] = (
                self.bus.now + self.ontology_retry_interval
            )
        self._dispatch_query(message, select, broker, result)

    def _dispatch_query(
        self,
        message: KqmlMessage,
        select: Select,
        broker: str,
        result: HandlerResult,
        brokers_tried: Tuple[str, ...] = (),
    ) -> None:
        resolved = self._resolve_ontology(select.table)
        if resolved is None:
            ontology_name, ontology = self.ontology_name, self.ontology
        else:
            ontology_name, ontology = resolved
        constraints = where_to_constraint(select.where) or Constraint.unconstrained()
        broker_query = BrokerQuery(
            agent_type="resource",
            content_language="SQL 2.0",
            ontology_name=ontology_name,
            classes=(select.table,),
            slots=tuple(select.columns) if select.columns else (),
            constraints=constraints,
        )
        request = RecommendRequest(
            query=broker_query,
            policy=SearchPolicy(hop_count=self.broker_hop_count),
        )
        recommend_extras = {"complexity": message.extra("complexity", 1.0)}
        deadline = message.extra("x-deadline")
        if deadline is not None:
            # Thread the requester's remaining budget through the
            # decomposition: the broker (and the bus) shed dead work.
            recommend_extras["x-deadline"] = deadline
        execution = _Execution(original=message, select=select,
                               ontology=ontology,
                               brokers_tried=(*brokers_tried, broker),
                               fanout=not self._policy.active)
        if not execution.fanout:
            # Ask the broker to annotate which matches are interchangeable.
            recommend_extras["x-equivalence"] = "1"
        recommend = KqmlMessage(
            Performative.RECOMMEND_ALL,
            sender=self.name,
            receiver=broker,
            content=request,
            ontology="service",
            extras=recommend_extras,
        )
        self.ask(
            recommend,
            lambda reply, res, e=execution: self._resources_found(e, reply, res),
            result,
        )

    @property
    def _policy(self) -> MrqResilienceConfig:
        """The active resilience config, else the fan-out plan's."""
        resilience = self.resilience
        if resilience is not None and resilience.active:
            return resilience
        return _FANOUT

    def _pick_broker(self) -> Optional[str]:
        if self.connected_broker_list:
            return self.connected_broker_list[0]
        if self.known_broker_list:
            return self.known_broker_list[0]
        return None

    def _next_broker(self, tried: Tuple[str, ...]) -> Optional[str]:
        for name in (*self.connected_broker_list, *self.known_broker_list):
            if name not in tried:
                return name
        return None

    # ------------------------------------------------------------------
    # the broker's recommendation
    # ------------------------------------------------------------------
    def _resources_found(
        self,
        execution: _Execution,
        reply: Optional[KqmlMessage],
        result: HandlerResult,
    ) -> None:
        matches = _match_list(reply)
        if matches is None:
            # The broker died, refused, or answered with something other
            # than a match list: fail over to the next known broker
            # instead of treating one broker as a single point of
            # failure.  An empty *match list* from a live broker is a
            # semantic answer and is not retried.
            next_broker = self._next_broker(execution.brokers_tried)
            if next_broker is not None:
                obs = self.observer
                if obs.enabled:
                    obs.inc("mrq.broker_failover.count")
                    obs.annotate(self.bus.now, execution.original,
                                 "mrq-broker-failover",
                                 failed=execution.brokers_tried[-1],
                                 next=next_broker)
                self._dispatch_query(execution.original, execution.select,
                                     next_broker, result,
                                     brokers_tried=execution.brokers_tried)
                return
            matches = []
        if not matches:
            result.send(
                execution.original.reply(Performative.SORRY,
                                         content="no matching resources")
            )
            return
        self._execute(execution, matches, reply, result)

    def _rewrite_for(
        self, match: Match, select: Select, ontology: Optional[Ontology]
    ) -> Optional[Select]:
        """The per-resource query: right class name, available columns,
        WHERE pushed down only when the resource can evaluate it."""
        content = match.advertisement.description.content
        target_class = self._target_class(content.classes, select.table, ontology)
        available = set(content.slots) if content.slots else None  # None = all

        where = select.where
        if where is not None and available is not None:
            if not predicate_columns(where) <= available:
                where = None  # cannot evaluate here; filter after assembly

        columns: Optional[Tuple[str, ...]]
        if available is None:
            columns = select.columns  # resource is unrestricted: pass through
        else:
            wanted = list(select.columns) if select.columns else sorted(available)
            keep = [c for c in wanted if c in available]
            for extra in sorted(self._assembly_columns(select, content, ontology)):
                if extra in available and extra not in keep:
                    keep.append(extra)
            if not keep:
                return None
            columns = tuple(keep)
        return Select(table=target_class, columns=columns, where=where)

    def _target_class(
        self, advertised: Tuple[str, ...], requested: str, ontology: Optional[Ontology]
    ) -> str:
        if not advertised or requested in advertised:
            return requested
        if ontology is not None:
            for cls in advertised:
                if cls in ontology and requested in ontology and (
                    ontology.is_subclass(cls, requested)
                    or ontology.is_subclass(requested, cls)
                ):
                    return cls
        return advertised[0]

    def _assembly_columns(
        self, select: Select, content, ontology: Optional[Ontology]
    ) -> set:
        """Columns needed beyond the projection: the key (for fragment
        joins) and any post-filter predicate columns."""
        needed = set()
        needed.update(content.keys)
        if ontology is not None and select.table in ontology:
            key = ontology.key_of(select.table)
            if key:
                needed.add(key)
        if select.where is not None:
            needed.update(predicate_columns(select.where))
        return needed

    # ------------------------------------------------------------------
    # planner
    # ------------------------------------------------------------------
    def _plan_fragments(
        self,
        matches: List[Match],
        select: Select,
        ontology: Optional[Ontology],
        hints: Optional[Dict[str, int]],
    ) -> List[_Fragment]:
        """The fragments to execute, in broker order.

        With *hints* None (the fan-out plan) every usable match is a
        fragment of its own.  Otherwise matches form equivalence sets:
        providers whose rewritten sub-query AND advertised constraints
        agree are interchangeable, confirmed by the broker's
        ``equivalence`` hint when present."""
        fragments: Dict[object, _Fragment] = {}
        for index, match in enumerate(matches):
            sub_select = self._rewrite_for(match, select, ontology)
            if sub_select is None:
                continue
            rendered = render_select(sub_select)
            if hints is None:
                key: object = index
            else:
                content = match.advertisement.description.content
                key = (hints.get(match.agent_name), rendered,
                       content.constraints.cache_key())
            fragment = fragments.get(key)
            if fragment is None:
                fragment = _Fragment(
                    fragment_id=_fragment_label(sub_select),
                    rendered=rendered,
                    providers=[],
                    pushed_down=sub_select.where is not None,
                )
                fragments[key] = fragment
            fragment.providers.append(match.agent_name)
        ordered = list(fragments.values())
        if hints is not None:
            # Equivalence sets of one shape are told apart by id suffix.
            seen_ids: Dict[str, int] = {}
            for fragment in ordered:
                count = seen_ids.get(fragment.fragment_id, 0)
                seen_ids[fragment.fragment_id] = count + 1
                if count:
                    fragment.fragment_id = f"{fragment.fragment_id}#{count + 1}"
        return ordered

    # ------------------------------------------------------------------
    # executor
    # ------------------------------------------------------------------
    def _execute(
        self,
        execution: _Execution,
        matches: List[Match],
        reply: KqmlMessage,
        result: HandlerResult,
    ) -> None:
        cfg = self._policy
        hints = (None if execution.fanout
                 else _parse_equivalence(reply.extra("equivalence")))
        fragments = self._plan_fragments(matches, execution.select,
                                         execution.ontology, hints)
        if not fragments:
            result.send(
                execution.original.reply(Performative.SORRY,
                                         content="no usable resources")
            )
            return
        self._exec_counter += 1
        execution.exec_id = self._exec_counter
        execution.runs = [_FragmentRun(fragment=f, started=self.bus.now)
                          for f in fragments]
        self._executions[execution.exec_id] = execution
        obs = self.observer
        if obs.enabled:
            obs.observe("mrq.fanout", float(len(fragments)))
            # Only the equivalence plan flags its fan-out as resilient.
            flag = {} if execution.fanout else {"resilient": True}
            obs.annotate(self.bus.now, execution.original, "mrq-fanout",
                         resources=len(fragments), recommended=len(matches),
                         **flag)
        for index, run in enumerate(execution.runs):
            self._send_fragment(execution, index, result)
            if (
                cfg.hedge
                and not run.done
                and len(run.fragment.providers) > 1
            ):
                result.arm(self._hedge_delay(),
                           ("mrq-hedge", execution.exec_id, index))

    def _ranked_candidates(self, run: _FragmentRun) -> List[str]:
        """Untried providers for *run*, best first: closed breakers before
        open ones, then by health score, then broker rank."""
        cfg = self._policy
        budget = cfg.max_providers_per_fragment - len(run.tried)
        if budget <= 0:
            return []
        now = self.bus.now
        pool = [
            (provider, rank)
            for rank, provider in enumerate(run.fragment.providers)
            if provider not in run.tried and provider not in run.outstanding
        ]

        def sort_key(item):
            provider, rank = item
            health = self.provider_health.get(provider)
            if health is None:
                return (0, cfg.initial_latency_s, rank, provider)
            opened = 0 if health.available(now) else 1
            return (opened, health.score(cfg, now), rank, provider)

        return [provider for provider, _ in sorted(pool, key=sort_key)]

    def _send_fragment(
        self,
        execution: _Execution,
        index: int,
        result: HandlerResult,
        hedge: bool = False,
    ) -> bool:
        run = execution.runs[index]
        candidates = self._ranked_candidates(run)
        if not candidates:
            return False
        provider = candidates[0]
        run.tried.append(provider)
        ask_extras = {"complexity": execution.original.extra("complexity", 1.0)}
        deadline = execution.original.extra("x-deadline")
        if deadline is not None:
            ask_extras["x-deadline"] = deadline
        ask = KqmlMessage(
            Performative.ASK_ALL,
            sender=self.name,
            receiver=provider,
            content=run.fragment.rendered,
            language="SQL 2.0",
            extras=ask_extras,
        )
        run.outstanding[provider] = (ask.reply_with, self.bus.now)
        if execution.fanout:
            # The sole provider gets the agent's own timeout and retries.
            timeout, attempts = None, None
        else:
            # Another provider may take over: fail fast, no retries.
            timeout, attempts = self._policy.provider_timeout, 1
        self.ask(
            ask,
            lambda r, res, e=execution, i=index, p=provider: self._fragment_reply(
                e, i, p, r, res
            ),
            result,
            timeout=timeout,
            attempts=attempts,
        )
        if hedge:
            run.hedged = True
            obs = self.observer
            if obs.enabled:
                obs.inc("mrq.hedge.count")
                obs.annotate(self.bus.now, execution.original, "mrq-hedge",
                             fragment=run.fragment.fragment_id, provider=provider)
        return True

    def _fragment_reply(
        self,
        execution: _Execution,
        index: int,
        provider: str,
        reply: Optional[KqmlMessage],
        result: HandlerResult,
    ) -> None:
        if self._executions.get(execution.exec_id) is not execution:
            return  # execution already assembled or wiped by a crash
        run = execution.runs[index]
        entry = run.outstanding.pop(provider, None)
        if entry is None or run.winner is not None:
            return
        _reply_id, sent_at = entry
        now = self.bus.now
        cfg = self._policy
        obs = self.observer
        health = self.provider_health.setdefault(provider, ProviderHealth())

        answer, reason = _receive(provider, reply)
        if answer is not None:
            latency = now - sent_at
            health.record_success(latency, cfg)
            self._latency_samples.append(latency)
            run.winner = provider
            run.answer = answer
            execution.answered.append(run)
            # First reply wins: abandon the losing duplicate(s).
            for other, (other_id, _sent) in list(run.outstanding.items()):
                self.cancel_ask(other_id)
                if obs.enabled:
                    obs.inc("mrq.hedge.cancelled")
            run.outstanding.clear()
            if run.hedged and run.tried and provider != run.tried[0] and obs.enabled:
                obs.inc("mrq.hedge.win")
            self._finish_run(execution, run, now, "ok")
            self._maybe_assemble(execution, result)
            return

        retry_after = reply.extra("retry-after") if reply is not None else None
        health.record_failure(reason, now, cfg, retry_after)
        run.failures.append((provider, reason))
        # Per-fragment telemetry describes equivalence sets; the fan-out
        # plan reports only its fan-out and its assembled answers.
        per_fragment = obs.enabled and not execution.fanout
        if per_fragment:
            obs.inc("mrq.provider.failure")
        if run.outstanding:
            return  # a hedge copy is still racing
        if cfg.failover and self._send_fragment(execution, index, result):
            if obs.enabled:
                obs.inc("mrq.failover.count")
                obs.annotate(now, execution.original, "mrq-failover",
                             fragment=run.fragment.fragment_id,
                             failed=provider, reason=reason,
                             next=run.tried[-1])
            return
        run.exhausted = True
        if per_fragment:
            obs.inc("mrq.fragment.exhausted")
        self._finish_run(execution, run, now, "exhausted")
        self._maybe_assemble(execution, result)

    def _finish_run(
        self, execution: _Execution, run: _FragmentRun, now: float, status: str
    ) -> None:
        obs = self.observer
        if obs.enabled and not execution.fanout:
            obs.region(self.name, "mrq-fragment", run.started, now,
                       fragment=run.fragment.fragment_id, status=status,
                       provider=run.winner or "", attempts=len(run.tried))

    def _hedge_delay(self) -> float:
        cfg = self._policy
        if len(self._latency_samples) >= cfg.hedge_min_samples:
            ordered = sorted(self._latency_samples)
            rank = max(1, math.ceil(cfg.hedge_quantile * len(ordered)))
            return max(ordered[rank - 1], 1e-3)
        return cfg.hedge_delay_s

    def on_custom_timer(self, token: object, result: HandlerResult, now: float) -> None:
        if (
            isinstance(token, tuple)
            and len(token) == 3
            and token[0] == "mrq-hedge"
        ):
            execution = self._executions.get(token[1])
            if execution is None:
                return
            run = execution.runs[token[2]]
            if run.done or not run.outstanding:
                return
            self._send_fragment(execution, token[2], result, hedge=True)

    def on_crash(self) -> None:
        super().on_crash()
        # In-flight executions die with the process; learned provider
        # health is a soft cache and survives (it only biases ranking).
        self._executions.clear()

    def _maybe_assemble(self, execution: _Execution, result: HandlerResult) -> None:
        if any(not run.done for run in execution.runs):
            return
        if self._executions.pop(execution.exec_id, None) is None:
            return
        # The fan-out plan assembles answers in arrival order, the
        # equivalence plan in fragment order.
        answered = execution.answered
        if not execution.fanout:
            answered = [run for run in execution.runs if run.winner is not None]
        results, rejected = _admit([run.answer for run in answered])
        for answer, reason in rejected:
            run = next(r for r in answered if r.answer is answer)
            run.failures.append((run.winner, reason))
            run.winner = run.answer = None
        partial_extras = _partial_extras(execution)
        if not results:
            result.send(
                execution.original.reply(
                    Performative.SORRY,
                    content="all resources failed",
                    **{"partial-detail": partial_extras["partial-detail"]},
                )
            )
            return
        post_filter = not all(
            run.fragment.pushed_down for run in answered if run.winner is not None
        )
        self._assemble_answer(execution, results, post_filter, partial_extras,
                              result)

    # ------------------------------------------------------------------
    # assembly
    # ------------------------------------------------------------------
    def _assemble_answer(
        self,
        execution: _Execution,
        answers: List[_Answer],
        post_filter: bool,
        partial_extras: Dict[str, object],
        result: HandlerResult,
    ) -> None:
        # Every row was validated once on arrival and the answers agree on
        # column types (_admit), so the algebra below re-validates and
        # copies nothing; only the final projection builds new rows.
        original, select = execution.original, execution.select
        key = self._query_key(select, execution.ontology)
        groups: Dict[frozenset, List[Table]] = {}
        total_bytes = 0
        for answer in answers:
            total_bytes += answer.table.size_bytes()
            groups.setdefault(frozenset(answer.table.schema.names), []).append(
                answer.table
            )

        shapes = [union_all(tables, name=f"shape{i}") for i, tables in
                  enumerate(groups.values())]
        if len(shapes) == 1:
            assembled = shapes[0]
            if key is not None and key in assembled.schema:
                # Replicated resources return the same rows: one per key.
                assembled = _rekey(assembled, key)
        elif key is not None and all(key in t.schema for t in shapes):
            assembled = join_on_key([_rekey(t, key) for t in shapes])
        else:
            assembled = union_all(shapes, name="assembled")

        rows = list(assembled.rows_view())
        where = select.where
        if where is not None and post_filter:
            rows = [row for row in rows if evaluate_predicate(where, row)]

        columns = self._final_columns(select, assembled)
        if select.order_by is not None and select.order_by.column in assembled.schema:
            order = select.order_by
            rows.sort(key=lambda r: (r[order.column] is None, r[order.column]),
                      reverse=order.descending)
        if select.limit is not None:
            rows = rows[: select.limit]
        projected = tuple(
            {name: row.get(name) for name in columns} for row in rows
        )
        final = QueryResult(columns=tuple(columns), rows=projected,
                            rows_scanned=sum(a.rows_scanned for a in answers))

        result.cost_seconds += self.cost_model.resource_query_seconds(
            total_bytes / 1_000_000.0
        )
        obs = self.observer
        if obs.enabled:
            obs.inc("mrq.assembled.count")
            obs.observe("mrq.assemble.bytes", float(total_bytes))
            if partial_extras:
                obs.inc("mrq.partial.count")
                obs.annotate(self.bus.now, original, "mrq-partial",
                             missing=partial_extras.get("partial", ""))
        result.send(
            original.reply(Performative.TELL, content=final, **partial_extras),
            size_bytes=max(final.bytes_returned, self.cost_model.control_message_bytes),
        )

    def _query_key(self, select: Select, ontology: Optional[Ontology]) -> Optional[str]:
        if ontology is not None and select.table in ontology:
            return ontology.key_of(select.table)
        return None

    def _final_columns(self, select: Select, assembled: Table) -> List[str]:
        if select.columns:
            return list(select.columns)
        return assembled.schema.column_names()


def _fragment_label(sub_select: Select) -> str:
    """A stable human/machine-readable fragment identity: the target
    class plus the column shape the sub-query covers."""
    columns = ",".join(sub_select.columns) if sub_select.columns else "*"
    return f"{sub_select.table}[{columns}]"


def _failure_reason(reply: Optional[KqmlMessage]) -> str:
    """The machine-readable reason a sub-query yielded no answer."""
    if reply is None:
        return "timeout"
    detail = reply.extra("reason")
    if detail is None and isinstance(reply.content, str):
        detail = reply.content
    return f"sorry:{detail}" if detail else "sorry"


def _parse_equivalence(value: object) -> Dict[str, int]:
    """Decode the broker's ``equivalence`` hint (groups joined by ``|``,
    members by ``,``) into provider -> group index."""
    groups: Dict[str, int] = {}
    if not isinstance(value, str) or not value:
        return groups
    for index, part in enumerate(value.split("|")):
        for name in part.split(","):
            if name:
                groups[name] = index
    return groups


def _partial_extras(execution: _Execution) -> Dict[str, object]:
    """The ``:partial`` and ``:partial-detail`` extras naming the runs of
    *execution* that yielded no answer; empty when none is missing.

    ``:partial`` lists each missing run under its provider's name in the
    fan-out plan (a lost resource may hold rows nobody else returned)
    and under its fragment id in the equivalence plan.  The detail's
    ``failed`` entries are sorted by provider and reason in the fan-out
    plan and kept in run order in the equivalence plan; its
    ``missing-fragments`` are the fragment shapes no run answered."""
    missing = [run for run in execution.runs if run.winner is None]
    if not missing:
        return {}
    failed = [
        (provider, run.fragment.fragment_id, reason)
        for run in missing
        for provider, reason in run.failures
    ]
    if execution.fanout:
        failed.sort(key=lambda entry: (entry[0], entry[2]))
        labels = [provider for provider, _fragment, _reason in failed]
    else:
        labels = [run.fragment.fragment_id for run in missing]
    answered = {
        run.fragment.fragment_id for run in execution.runs if run.winner is not None
    }
    return {
        "partial": "missing:" + ",".join(sorted(labels)),
        "partial-detail": {
            "class": execution.select.table,
            "missing-fragments": tuple(sorted(
                {run.fragment.fragment_id for run in missing} - answered
            )),
            "failed": tuple(
                {"provider": provider, "fragment": fragment, "reason": reason}
                for provider, fragment, reason in failed
            ),
        },
    }


def _match_list(reply: Optional[KqmlMessage]) -> Optional[List[Match]]:
    """The broker's recommendation, or None when the broker died,
    refused, or answered with something other than a list of matches."""
    if reply is None or reply.performative is not Performative.TELL:
        return None
    content = reply.content
    if not isinstance(content, (list, tuple)):
        return None
    if not all(isinstance(match, Match) for match in content):
        return None
    return list(content)


def _receive(
    provider: str, reply: Optional[KqmlMessage]
) -> Tuple[Optional[_Answer], Optional[str]]:
    """Validate a sub-query reply once, where it enters the MRQ: the
    answer, or ``None`` and the reason the provider counts as failed."""
    if reply is None or reply.performative is not Performative.TELL:
        return None, _failure_reason(reply)
    content = reply.content
    if not isinstance(content, QueryResult):
        return None, "invalid:reply is not a query result"
    try:
        table = _table_from_result(provider, content)
    except SchemaError as exc:
        return None, f"invalid:{exc}"
    return _Answer(provider, table, content.rows_scanned), None


def _table_from_result(name: str, query_result: QueryResult) -> Table:
    """Materialize a resource's reply as a typed table (types inferred
    from each column's first non-null value).  Each row is validated
    here, once, and stored without a copy when it holds every column.
    Raises :class:`SchemaError` for unknown columns or mistyped values."""
    rows = query_result.rows
    if not all(isinstance(row, dict) for row in rows):
        raise SchemaError("reply rows must be mappings")
    schema = Schema(tuple(
        Column(column, _inferred_type(_first_value(rows, column)))
        for column in query_result.columns
    ))
    schema.validate_rows(rows)
    # No row names an unknown column, so the lengths fall short of the
    # full width exactly when some row omits a column: fill those in.
    if sum(map(len, rows)) != len(schema.columns) * len(rows):
        rows = [{name: row.get(name) for name in schema.names} for row in rows]
    return Table.from_valid_rows(name, schema, rows)


def _first_value(rows, column: str):
    """The first non-null value of *column*, or None."""
    for row in rows:
        value = row.get(column)
        if value is not None:
            return value
    return None


def _inferred_type(value) -> str:
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, (int, float)):
        return "number"
    return "string"


def _admit(answers: List[_Answer]) -> Tuple[List[_Answer], List[Tuple[_Answer, str]]]:
    """Check the answers against each other: a column's type is set by
    the first answer holding a non-null value in it, and a later answer
    whose values there have another type is rejected (a provider
    failure, with the reason).  Columns holding only nulls agree with
    any type; the kept answers declare the agreed type for them, so
    reassembly finds matching declarations everywhere."""
    agreed: Dict[str, Column] = {}
    kept: List[_Answer] = []
    rejected: List[Tuple[_Answer, str]] = []
    for answer in answers:
        typed = []  # (column, its first non-null value)
        for col in answer.table.schema.columns:
            value = _first_value(answer.table.rows_view(), col.name)
            if value is not None:
                typed.append((col, value))
        clash = _type_clash(typed, agreed)
        if clash is not None:
            rejected.append((answer, clash))
            continue
        for col, _value in typed:
            agreed.setdefault(col.name, col)
        kept.append(answer)
    return [_retyped(answer, agreed) for answer in kept], rejected


def _type_clash(typed, agreed: Dict[str, Column]) -> Optional[str]:
    for col, value in typed:
        other = agreed.get(col.name)
        if other is not None and other.col_type != col.col_type:
            return f"invalid:column {col.name!r} ({other.col_type}) rejects {value!r}"
    return None


def _retyped(answer: _Answer, agreed: Dict[str, Column]) -> _Answer:
    """*answer* with its null-only columns declared as the agreed type."""
    schema = answer.table.schema
    columns = tuple(agreed.get(col.name, col) for col in schema.columns)
    if columns == schema.columns:
        return answer
    table = Table.from_valid_rows(
        answer.table.name, Schema(columns), answer.table.rows_view()
    )
    return answer._replace(table=table)


def _rekey(table: Table, key: str) -> Table:
    """A copy of *table* whose schema declares *key*, keeping each key's
    first row (replicated resources return the same rows) and dropping
    rows without a key.  Rows are shared, not copied."""
    first: Dict[object, dict] = {}
    for row in table.rows_view():
        value = row.get(key)
        if value is not None:
            first.setdefault(value, row)
    return Table.from_valid_rows(
        table.name, Schema(table.schema.columns, key=key), first.values()
    )
