"""Per-layer tracing from outside the program.

:meth:`Tracer.install` wraps the public entry points of each layer so
that every call records a span into a private
:class:`~repro.obs.profiler.PhaseProfiler`, which aggregates self and
total time by stack path.  Nothing under ``src/`` changes, and the
process-wide ``PROFILER`` stays off, so the program's own built-in
phases do not mix in.  Span names are ``<layer>:<entry point>``.

Wrappers are installed only around the measured phase and removed
afterwards, so set-up runs untraced.  Entry points are looked up at call
time everywhere they are used (class attributes, and module globals in
the modules that import them by name), so installing after the community
was built reaches every call.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.agents import base as agents_base
from repro.agents import bus as agents_bus
from repro.agents import mrq as agents_mrq
from repro.agents import resource as agents_resource
from repro.agents import user as agents_user
from repro.agents import broker as agents_broker
from repro.agents import recovery as agents_recovery
from repro.core import columnar as core_columnar
from repro.core import repository as core_repository
from repro.kqml import Performative
from repro.kqml import message as kqml_message
from repro.obs.events import Observer
from repro.obs.profiler import PhaseProfiler
from repro.relational import table as relational_table
from repro.sim import agents as sim_agents

#: Layers in report order; ``unattributed`` is the measured-phase wall
#: time outside every span.
LAYERS = ("bus", "dispatch", "kqml", "broker", "repo", "columnar", "journal",
          "mrq", "relational", "sql", "obs", "loadgen")

#: (owner class, method names, layer) for the class-level entry points.
_METHODS = (
    (agents_bus.MessageBus, ("run_until", "run", "send"), "bus"),
    (agents_base.Agent, ("ask",), "dispatch"),
    (kqml_message.KqmlMessage, ("__init__", "reply"), "kqml"),
    (agents_broker.BrokerAgent, ("on_advertise", "on_unadvertise"), "broker"),
    (core_repository.BrokerRepository, ("query", "query_batch", "advertise",
                                        "unadvertise", "size_mb"), "repo"),
    (core_columnar.ColumnarPlane, ("compile", "match", "match_batch"),
     "columnar"),
    (agents_recovery.AdvertisementJournal, ("append", "replay", "compact"),
     "journal"),
    (agents_resource.ResourceAgent, ("on_ask_all",), "mrq"),
    (relational_table.Table, ("__init__", "insert", "insert_many", "rows",
                              "lookup", "scan", "size_bytes"), "relational"),
    (sim_agents.SimQueryAgent, ("on_custom_timer",), "loadgen"),
    (agents_user.UserAgent, ("on_custom_timer",), "loadgen"),
)

#: (module, function names, layer) for functions the agents imported by
#: name: patched in the importing module's globals.
_FUNCTIONS = (
    (agents_mrq, ("join_on_key", "union_all"), "relational"),
    (agents_mrq, ("evaluate_predicate", "parse_select_cached",
                  "where_to_constraint", "render_select"), "sql"),
    (agents_resource, ("execute_select", "parse_select_cached"), "sql"),
)

#: Hooks of an attached observer (everything the bus and agents call).
_OBSERVER_HOOKS = tuple(
    name for name, value in vars(Observer).items()
    if callable(value) and not name.startswith("_"))


def _timed(profiler: PhaseProfiler, span: str, fn: Callable) -> Callable:
    begin, end = profiler.begin, profiler.end

    def wrapper(*args, **kwargs):
        begin(span)
        try:
            return fn(*args, **kwargs)
        finally:
            end()

    return wrapper


def _timed_iterator(profiler: PhaseProfiler, span: str, fn: Callable) -> Callable:
    """For functions returning a lazy iterator: drain it inside the span
    so the layer that produces the rows is charged for copying them."""
    begin, end = profiler.begin, profiler.end

    def wrapper(*args, **kwargs):
        begin(span)
        try:
            return iter(list(fn(*args, **kwargs)))
        finally:
            end()

    return wrapper


def _dispatch(profiler: PhaseProfiler, verb: str, fn: Callable) -> Callable:
    """``Agent.handle_message``/``on_timer``: charged to ``mrq`` when the
    receiver is the MRQ agent, to ``dispatch`` otherwise."""
    begin, end = profiler.begin, profiler.end
    mrq_class = agents_mrq.MultiResourceQueryAgent
    plain, mrq = f"dispatch:Agent.{verb}", f"mrq:MultiResourceQueryAgent.{verb}"

    def wrapper(self, *args, **kwargs):
        begin(mrq if isinstance(self, mrq_class) else plain)
        try:
            return fn(self, *args, **kwargs)
        finally:
            end()

    return wrapper


class Tracer:
    """Installs and removes the wrappers; owns the private profiler."""

    def __init__(self):
        self.profiler = PhaseProfiler()
        #: Recommends the broker refused with ``sorry (:reason overload)``.
        self.admission_sheds = 0
        self._undo: List[Tuple[object, str, object]] = []

    def _recommend(self, verb: str, fn: Callable) -> Callable:
        """``BrokerAgent.on_recommend_*``, also counting admission sheds
        (an overload sorry the handler put in its own outbox)."""
        begin, end = self.profiler.begin, self.profiler.end
        span = f"broker:BrokerAgent.{verb}"
        sorry = Performative.SORRY

        def wrapper(agent, message, result, now):
            begin(span)
            try:
                before = len(result.outbox)
                fn(agent, message, result, now)
                for reply, _size in result.outbox[before:]:
                    if (reply.performative is sorry
                            and reply.extra("reason") == "overload"):
                        self.admission_sheds += 1
            finally:
                end()

        return wrapper

    def _patch(self, owner, name: str, replacement) -> None:
        # Remember what the owner itself defined (None: inherited).
        self._undo.append((owner, name, vars(owner).get(name)))
        setattr(owner, name, replacement)

    def install(self, observer: Optional[Observer] = None) -> None:
        prof = self.profiler
        for owner, names, layer in _METHODS:
            for name in names:
                raw = vars(owner)[name]
                span = f"{layer}:{owner.__name__}.{name}"
                if isinstance(raw, classmethod):
                    self._patch(owner, name,
                                classmethod(_timed(prof, span, raw.__func__)))
                elif name == "rows":
                    self._patch(owner, name, _timed_iterator(prof, span, raw))
                else:
                    self._patch(owner, name, _timed(prof, span, raw))
        broker = agents_broker.BrokerAgent
        for verb in ("on_recommend_all", "on_recommend_one"):
            self._patch(broker, verb, self._recommend(verb, vars(broker)[verb]))
        for verb in ("handle_message", "on_timer"):
            self._patch(agents_base.Agent, verb,
                        _dispatch(prof, verb, vars(agents_base.Agent)[verb]))
        for module, names, layer in _FUNCTIONS:
            short = module.__name__.rsplit(".", 1)[-1]
            for name in names:
                self._patch(module, name, _timed(
                    prof, f"{layer}:{short}.{name}", getattr(module, name)))
        if observer is not None and type(observer) is not Observer:
            cls = type(observer)
            for name in _OBSERVER_HOOKS:
                self._patch(cls, name, _timed(
                    prof, f"obs:{cls.__name__}.{name}", getattr(cls, name)))

    def uninstall(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            if original is None:
                delattr(owner, name)
            else:
                setattr(owner, name, original)

    # -- aggregation ------------------------------------------------------
    def spans(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, self seconds, total seconds (summed
        over every stack path the span appeared in)."""
        return {
            name: {"calls": stat.calls, "self_s": stat.self_time,
                   "total_s": stat.total}
            for name, stat in sorted(self.profiler.self_times().items())
        }

    def layer_self(self) -> Dict[str, float]:
        """Self seconds per layer."""
        totals = {layer: 0.0 for layer in LAYERS}
        for name, stat in self.profiler.self_times().items():
            totals[name.split(":", 1)[0]] += stat.self_time
        return totals


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer_metrics(tracer: Tracer, traced: List[dict], overhead_ratio: float,
                      scale: float) -> Dict[str, float]:
    """The per-layer split of the traced repetitions, by metric name.

    Times are self times summed over all traced repetitions and divided
    by the summed messages delivered, queries issued or calls made.
    Counts of one repetition (``bus.expired``, ``columnar.compiles``,
    ``journal.appends``) are reported per repetition: repetitions replay
    each other exactly.  Times are multiplied by *scale*, the factor to
    the calibration's reference speed.
    """
    spans = tracer.spans()
    reps = len(traced)
    wall = sum(rep["wall_s"] for rep in traced) * scale
    msgs = sum(rep["messages"] for rep in traced)
    queries = sum(rep["queries"] for rep in traced)

    def calls(*names: str) -> float:
        return sum(spans.get(name, {}).get("calls", 0) for name in names)

    def self_s(*names: str) -> float:
        return scale * sum(spans.get(name, {}).get("self_s", 0.0)
                           for name in names)

    def us_per_call(*names: str) -> float:
        return _ratio(self_s(*names) * 1e6, calls(*names))

    def bus_total(key: str) -> float:
        return sum(rep["counters"]["bus"][key] for rep in traced)

    def repo_total(key: str) -> float:
        return sum(stats[key] for rep in traced
                   for stats in rep["counters"]["repository"].values())

    layer_self = {layer: seconds * scale
                  for layer, seconds in tracer.layer_self().items()}
    unattributed = wall - sum(layer_self.values())
    recommend = ("broker:BrokerAgent.on_recommend_all",
                 "broker:BrokerAgent.on_recommend_one")
    repo_query = ("repo:BrokerRepository.query",
                  "repo:BrokerRepository.query_batch")
    sheds = sum(bus_total(key) for key in
                ("shed_reject", "shed_oldest", "shed_new", "shed_expired"))
    lookups = repo_total("cache_hits") + repo_total("cache_misses")
    obs_calls = sum(stat["calls"] for name, stat in spans.items()
                    if name.startswith("obs:"))
    values = {
        "bus.self_us_per_msg": _ratio(layer_self["bus"] * 1e6, msgs),
        "bus.sends_per_msg": _ratio(calls("bus:MessageBus.send"), msgs),
        "bus.shed_fraction": _ratio(sheds, bus_total("mailbox_offered")),
        "bus.expired": traced[0]["counters"]["bus"]["shed_expired"],
        "dispatch.self_us_per_msg": _ratio(layer_self["dispatch"] * 1e6, msgs),
        "ask.self_us_per_call": us_per_call("dispatch:Agent.ask"),
        "ask.calls_per_query": _ratio(calls("dispatch:Agent.ask"), queries),
        "kqml.self_us_per_msg": _ratio(layer_self["kqml"] * 1e6, msgs),
        "kqml.built_per_msg": _ratio(calls("kqml:KqmlMessage.__init__"), msgs),
        "broker.recommend.self_us_per_call": us_per_call(*recommend),
        "broker.recommend.calls_per_query": _ratio(calls(*recommend), queries),
        "broker.advertise.self_us_per_call": us_per_call(
            "broker:BrokerAgent.on_advertise",
            "broker:BrokerAgent.on_unadvertise"),
        "admission.shed_fraction": _ratio(tracer.admission_sheds,
                                          calls(*recommend)),
        "repo.query.us_per_call": us_per_call(*repo_query),
        "repo.size_mb.us_per_call": us_per_call(
            "repo:BrokerRepository.size_mb"),
        "repo.write.us_per_call": us_per_call(
            "repo:BrokerRepository.advertise",
            "repo:BrokerRepository.unadvertise"),
        "repo.cache_hit_ratio": _ratio(repo_total("cache_hits"), lookups),
        "repo.reasoned_per_query": _ratio(
            repo_total("advertisements_reasoned_over"), queries),
        "repo.pruned_per_query": _ratio(repo_total("candidates_pruned"),
                                        queries),
        "columnar.compiles": _ratio(calls("columnar:ColumnarPlane.compile"),
                                    reps),
        "columnar.compile_us_per_query": _ratio(
            self_s("columnar:ColumnarPlane.compile") * 1e6, queries),
        "columnar.match.us_per_call": us_per_call(
            "columnar:ColumnarPlane.match",
            "columnar:ColumnarPlane.match_batch"),
        "journal.append.us_per_call": us_per_call(
            "journal:AdvertisementJournal.append"),
        "journal.appends": sum(
            traced[0]["counters"]["journal_appends"].values()),
        "mrq.self_us_per_query": _ratio(layer_self["mrq"] * 1e6, queries),
        "mrq.subqueries_per_query": _ratio(
            calls("mrq:ResourceAgent.on_ask_all"), queries),
        "relational.us_per_query": _ratio(layer_self["relational"] * 1e6,
                                          queries),
        "sql.us_per_query": _ratio(layer_self["sql"] * 1e6, queries),
        "obs.us_per_msg": _ratio(layer_self["obs"] * 1e6, msgs),
        "obs.hook_calls_per_msg": _ratio(obs_calls, msgs),
        "loadgen.us_per_query": _ratio(layer_self["loadgen"] * 1e6, queries),
        "unattributed.us_per_msg": _ratio(unattributed * 1e6, msgs),
        "trace.overhead_ratio": overhead_ratio,
    }
    for layer in LAYERS:
        values[f"{layer}.share"] = _ratio(layer_self[layer], wall)
    values["unattributed.share"] = _ratio(unattributed, wall)
    return values
