"""Broker crash recovery: amnesia-correct restarts, the advertisement
journal, and consortium anti-entropy.

The headline invariant: a broker killed mid-run and restarted converges
back to the surviving ground truth — the advertisements every live agent
still holds — through any of the three recovery paths (agent ping cycles
alone, durable journal replay, anti-entropy digest exchange), and once
reconverged it answers recommend queries exactly as a never-crashed
broker would.  ``crash_mode="lenient"`` keeps the legacy network-blip
semantics untouched.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.agents import (
    Agent,
    AgentConfig,
    AdvertisementJournal,
    BrokerAgent,
    CostModel,
    JournalRecord,
    MessageBus,
    ResourceAgent,
    SyncDelta,
    SyncDigest,
)
from repro.agents.broker import RecommendRequest
from repro.agents.recovery import (
    OP_ADVERTISE,
    OP_UNADVERTISE,
    record_from_sexpr,
    record_to_sexpr,
)
from repro.constraints import Complement, Constraint, DiscreteSet, Interval, IntervalSet
from repro.core import BrokerQuery
from repro.core.advertisement import (
    Advertisement,
    advertisement_from_sexpr,
    advertisement_to_sexpr,
)
from repro.core.errors import BrokeringError
from repro.core.matcher import MatchContext
from repro.core.policy import SearchPolicy
from repro.experiments.robustness import (
    RECOVERY_PATHS,
    measure_reconvergence,
    recovery_config,
)
from repro.kqml import KqmlMessage, KqmlParseError, Performative
from repro.kqml.sexpr import parse_sexpr, render_sexpr
from repro.obs import ConversationTracer, MetricsObserver
from repro.ontology import demo_ontology
from repro.ontology.service import (
    AgentLocation,
    AgentProperties,
    BrokerExtensions,
    Capabilities,
    ContentInfo,
    ServiceDescription,
    SyntacticInfo,
)
from repro.relational.generate import generate_table
from repro.sim.simulator import Simulation


def fast_costs():
    return CostModel(latency_seconds=0.01, base_handling_seconds=0.001,
                     bandwidth_bytes_per_second=1e9)


def full_description(name="R9", broker=False):
    """A service description exercising every codec block: broker
    extensions, tagged booleans, open and infinite interval endpoints,
    heterogeneous discrete sets, numeric-looking strings."""
    constraints = Constraint({
        "price": IntervalSet([
            Interval(10.0, None, lo_open=True),       # (10, +inf)
            Interval(None, -2.5),                     # (-inf, -2.5]
        ]),
        "color": DiscreteSet(frozenset({"red", "42", True, 7})),
        "state": Complement(frozenset({"closed", False})),
    })
    return ServiceDescription(
        location=AgentLocation(name=name, address="tcp://h:1234",
                               transport="tcp",
                               agent_type="broker" if broker else "resource"),
        syntax=SyntacticInfo(content_languages=("SQL 2.0", "LDL"),
                             communication_languages=("KQML",)),
        capabilities=Capabilities(conversations=("ask-all", "subscribe"),
                                  functions=("brokering",),
                                  restrictions=("weekdays only",)),
        content=ContentInfo(ontology_name="demo", classes=("C1", "C2"),
                            slots=("price", "color", "state"),
                            keys=("price",), constraints=constraints),
        properties=AgentProperties(mobile=True, cloneable=False,
                                   estimated_response_time=1.5,
                                   throughput=None),
        broker=BrokerExtensions(community="mcc", consortia=("west",),
                                specializations=("demo",),
                                supported_ontologies=("demo", "service"),
                                ) if broker else None,
    )


class TestAdvertisementCodec:
    """The journal's textual form must be lossless."""

    @pytest.mark.parametrize("broker", [False, True])
    def test_round_trip_through_rendered_text(self, broker):
        ad = Advertisement(full_description(broker=broker), size_mb=0.25,
                           advertised_at=123.5, home_broker="b7", seq=3)
        line = render_sexpr(advertisement_to_sexpr(ad))
        assert isinstance(line, str)
        back = advertisement_from_sexpr(parse_sexpr(line))
        assert back == ad

    def test_defaults_round_trip(self):
        ad = Advertisement(
            ServiceDescription(location=AgentLocation(name="r0")),
            size_mb=0.01,
        )
        back = advertisement_from_sexpr(
            parse_sexpr(render_sexpr(advertisement_to_sexpr(ad))))
        assert back == ad
        assert back.home_broker is None
        assert back.seq == 0

    def test_booleans_stay_booleans(self):
        """``True`` and the string ``"true"`` survive distinctly — a raw
        s-expression atom could not tell them apart."""
        desc = full_description()
        ad = Advertisement(desc, size_mb=0.1)
        back = advertisement_from_sexpr(
            parse_sexpr(render_sexpr(advertisement_to_sexpr(ad))))
        allowed = back.description.content.constraints.domain("color").allowed
        assert True in allowed and "42" in allowed and 7 in allowed
        assert back.description.properties.mobile is True
        assert back.description.properties.cloneable is False

    def test_open_and_infinite_endpoints(self):
        ad = Advertisement(full_description(), size_mb=0.1)
        back = advertisement_from_sexpr(
            parse_sexpr(render_sexpr(advertisement_to_sexpr(ad))))
        price = back.description.content.constraints.domain("price")
        unbounded = [iv for iv in price.intervals if iv.hi is None]
        assert unbounded and unbounded[0].lo == 10.0 and unbounded[0].lo_open

    def test_malformed_raises(self):
        with pytest.raises(BrokeringError):
            advertisement_from_sexpr(["not-an-ad"])
        with pytest.raises(BrokeringError):
            advertisement_from_sexpr(["ad", ["meta"]])

    @pytest.mark.parametrize("site", [
        "{deep}",                                    # the whole expression
        "(ad {deep} (loc n a b c) (syn () ()) (cap () () ()) "
        "(con o () () () (cst)) (prp (b 0) (b 0) () ()) (brk))",
        "(ad (meta 1 0.1 2.0 ()) (loc {deep} a b c) (syn () ()) "
        "(cap () () ()) (con o () () () (cst)) (prp (b 0) (b 0) () ()) (brk))",
        "(ad (meta 1 0.1 2.0 ()) (loc n a b c) (syn ({deep}) ()) "
        "(cap () () ()) (con o () () () (cst)) (prp (b 0) (b 0) () ()) (brk))",
        "(ad (meta 1 0.1 2.0 ()) (loc n a b c) (syn () ()) (cap () () ()) "
        "(con o () () () (cst (s (set {deep})))) (prp (b 0) (b 0) () ()) (brk))",
        "(ad (meta 1 0.1 2.0 ()) (loc n a b c) (syn () ()) (cap () () ()) "
        "(con o () () () (cst (s ({deep})))) (prp (b 0) (b 0) () ()) (brk))",
        "(ad (meta 1 0.1 2.0 ({deep})) (loc n a b c) (syn () ()) "
        "(cap () () ()) (con o () () () (cst)) (prp (b 0) (b 0) () ()) (brk))",
    ])
    def test_deep_nesting_raises_brokering_error(self, site):
        """Regression: error messages used ``repr``, which recursed, so
        depth-5,000 input raised RecursionError instead of the declared
        BrokeringError."""
        deep = "(" * 5_000 + "x" + ")" * 5_000
        expr = parse_sexpr(site.format(deep=deep))
        with pytest.raises(BrokeringError) as info:
            advertisement_from_sexpr(expr)
        assert len(str(info.value)) < 200
        with pytest.raises(BrokeringError):
            record_from_sexpr(["advertise", "n", 1, 2.0, expr])

    def test_deep_journal_record_raises_brokering_error(self):
        deep = parse_sexpr("(" * 5_000 + ")" * 5_000)
        for expr in (deep, [deep, "a", 1, 2.0], ["advertise", deep, 1, 2.0],
                     ["unadvertise", "a", "one", 2.0]):
            with pytest.raises(BrokeringError):
                record_from_sexpr(expr)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_mutated_advertisement_raises_only_brokering_error(self, data):
        """Replace one node of a valid encoding with arbitrary
        s-expression data: decoding succeeds or raises BrokeringError,
        never another exception type."""
        broker = data.draw(st.booleans())
        expr = advertisement_to_sexpr(
            Advertisement(full_description(broker=broker), size_mb=0.1))
        parent = expr
        while True:
            index = data.draw(st.integers(0, len(parent) - 1))
            child = parent[index]
            if not isinstance(child, list) or not child or data.draw(st.booleans()):
                break
            parent = child
        parent[index] = data.draw(st.recursive(
            st.text(max_size=4) | st.integers() | st.floats(),
            lambda children: st.lists(children, max_size=4), max_leaves=12))
        try:
            advertisement_from_sexpr(expr)
        except BrokeringError:
            pass

    def test_journal_record_round_trip(self):
        ad = Advertisement(full_description(), size_mb=0.1,
                           advertised_at=50.0, seq=2)
        record = JournalRecord(op=OP_ADVERTISE, agent=ad.agent_name,
                               seq=2, at=50.0, ad=ad)
        back = record_from_sexpr(parse_sexpr(render_sexpr(
            record_to_sexpr(record))))
        assert back == record
        tomb = JournalRecord(op=OP_UNADVERTISE, agent="R9", seq=3, at=60.0)
        assert record_from_sexpr(parse_sexpr(render_sexpr(
            record_to_sexpr(tomb)))) == tomb

    def test_record_validation(self):
        with pytest.raises(BrokeringError):
            JournalRecord(op="bogus", agent="a", seq=1, at=0.0)
        with pytest.raises(BrokeringError):
            JournalRecord(op=OP_ADVERTISE, agent="a", seq=1, at=0.0)  # no ad
        with pytest.raises(BrokeringError):
            JournalRecord(op=OP_UNADVERTISE, agent="a", seq=1, at=0.0,
                          ad=Advertisement(full_description(), size_mb=0.1))


def _ad(name, at, seq, size=0.1):
    return Advertisement(
        ServiceDescription(location=AgentLocation(name=name)),
        size_mb=size, advertised_at=at, seq=seq,
    )


class TestJournal:
    def test_append_replay_preserves_order(self):
        journal = AdvertisementJournal()
        journal.record_advertise(_ad("r1", 10.0, 1))
        journal.record_advertise(_ad("r2", 11.0, 1))
        journal.record_unadvertise("r1", 2, 20.0)
        records = journal.replay()
        assert [(r.op, r.agent) for r in records] == [
            (OP_ADVERTISE, "r1"), (OP_ADVERTISE, "r2"), (OP_UNADVERTISE, "r1"),
        ]
        assert records[2].deleted
        assert journal.stats.appended == 3

    def test_compact_keeps_newest_per_advertiser(self):
        journal = AdvertisementJournal()
        journal.record_advertise(_ad("r1", 10.0, 1))
        journal.record_advertise(_ad("r1", 40.0, 2))   # supersedes
        journal.record_advertise(_ad("r2", 11.0, 1))
        journal.record_unadvertise("r3", 1, 12.0)      # tombstone survives
        journal.record_advertise(_ad("r3", 5.0, 1))    # older than tombstone
        dropped = journal.compact()
        assert dropped == 2
        records = journal.replay()
        # first-seen advertiser order is preserved
        assert [r.agent for r in records] == ["r1", "r2", "r3"]
        by_agent = {r.agent: r for r in records}
        assert by_agent["r1"].at == 40.0
        assert by_agent["r3"].deleted
        assert journal.stats.records_dropped == 2

    def test_file_backed_journal_survives_reload(self, tmp_path):
        path = str(tmp_path / "broker0.journal")
        journal = AdvertisementJournal(path)
        journal.record_advertise(
            Advertisement(full_description(), size_mb=0.1,
                          advertised_at=9.0, seq=1))
        journal.record_unadvertise("gone", 1, 10.0)

        reloaded = AdvertisementJournal(path)
        assert len(reloaded) == 2
        assert [r.agent for r in reloaded.replay()] == ["R9", "gone"]

        reloaded.record_advertise(_ad("gone", 30.0, 1))
        reloaded.compact()
        rewritten = AdvertisementJournal(path)
        assert len(rewritten) == 2
        assert not {r.agent: r for r in rewritten.replay()}["gone"].deleted


    @pytest.mark.parametrize("failure", ["write", "fsync", "replace"])
    def test_failed_compaction_keeps_old_journal(self, tmp_path, monkeypatch, failure):
        """Regression: compaction rewrote the file in place, so a crash
        mid-rewrite lost every record.  Inject a failure at each step of
        the rewrite: the old file must reopen with every record."""
        from repro.agents import recovery

        path = tmp_path / "broker0.journal"
        journal = AdvertisementJournal(str(path))
        for i in range(6):
            journal.record_advertise(_ad(f"r{i % 3}", 10.0 + i, i))
        before = path.read_bytes()

        def fail(*args, **kwargs):
            raise OSError(f"injected {failure} failure")

        if failure == "write":
            class FailingHandle:
                """Writes the first line, then fails."""

                def __init__(self, handle):
                    self.handle, self.writes = handle, 0

                def write(self, text):
                    self.writes += 1
                    if self.writes > 1:
                        fail()
                    return self.handle.write(text)

                def __enter__(self):
                    return self

                def __exit__(self, *exc):
                    return self.handle.__exit__(*exc)

                def __getattr__(self, name):
                    return getattr(self.handle, name)

            monkeypatch.setattr(
                recovery, "open",
                lambda *a, **k: FailingHandle(open(*a, **k)), raising=False)
        else:
            monkeypatch.setattr(recovery.os, failure, fail)
        with pytest.raises(OSError, match="injected"):
            journal.compact()
        monkeypatch.undo()

        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["broker0.journal"]
        assert len(journal) == 6 and journal.stats.compactions == 0
        reopened = AdvertisementJournal(str(path))
        assert [(r.agent, r.seq) for r in reopened.replay()] == [
            (f"r{i % 3}", i) for i in range(6)]
        assert reopened.compact() == 3
        assert [r.seq for r in AdvertisementJournal(str(path)).replay()] == [3, 4, 5]

    def test_compaction_keeps_file_mode(self, tmp_path):
        path = tmp_path / "broker0.journal"
        journal = AdvertisementJournal(str(path))
        journal.record_advertise(_ad("r1", 1.0, 1))
        journal.record_advertise(_ad("r1", 2.0, 2))
        path.chmod(0o640)
        journal.compact()
        assert path.stat().st_mode & 0o777 == 0o640

    def test_torn_tail_is_cut_at_every_offset(self, tmp_path):
        """Regression: a file whose last append was cut short could not
        be reopened (``unterminated list``).  Cut a 4-record journal at
        every byte offset of its last record: each reopen replays the
        first 3 records, and the next append lands on a clean line."""
        path = tmp_path / "broker0.journal"
        journal = AdvertisementJournal(str(path))
        for i in range(4):
            journal.record_advertise(_ad(f"r{i}", 10.0 + i, 1))
        data = path.read_bytes()
        last_start = data.rstrip(b"\n").rfind(b"\n") + 1
        for offset in range(last_start, len(data)):
            path.write_bytes(data[:offset])
            reopened = AdvertisementJournal(str(path))
            assert [r.agent for r in reopened.replay()] == ["r0", "r1", "r2"]
            assert reopened.stats.torn_tail == (offset > last_start)
            assert path.read_bytes() == data[:last_start]
            reopened.record_advertise(_ad("r9", 50.0, 1))
            again = AdvertisementJournal(str(path))
            assert [r.agent for r in again.replay()] == ["r0", "r1", "r2", "r9"]
            assert again.stats.torn_tail == 0

    def test_bad_interior_line_still_raises(self, tmp_path):
        path = tmp_path / "broker0.journal"
        journal = AdvertisementJournal(str(path))
        journal.record_advertise(_ad("r0", 10.0, 1))
        journal.record_advertise(_ad("r1", 11.0, 1))
        lines = path.read_text().splitlines(keepends=True)
        path.write_text(lines[0][:-5] + "\n" + lines[1])
        with pytest.raises(KqmlParseError):
            AdvertisementJournal(str(path)).replay()


class TestLastWriterWins:
    """The replication merge rule, exercised directly on a broker."""

    @staticmethod
    def _broker(name="b1"):
        onto = demo_ontology(1)
        return BrokerAgent(
            name, context=MatchContext(ontologies={"demo": onto}))

    @staticmethod
    def _record(agent, at, seq):
        return JournalRecord(op=OP_ADVERTISE, agent=agent, seq=seq, at=at,
                             ad=_ad(agent, at, seq))

    def test_newer_record_wins(self):
        broker = self._broker()
        assert broker._apply_record(self._record("r1", 10.0, 1), journal=False)
        assert broker._apply_record(self._record("r1", 20.0, 1), journal=False)
        assert not broker._apply_record(self._record("r1", 15.0, 9),
                                        journal=False)
        assert broker._replication["r1"].at == 20.0

    def test_seq_breaks_same_instant_ties(self):
        broker = self._broker()
        broker._apply_record(self._record("r1", 10.0, 1), journal=False)
        assert broker._apply_record(self._record("r1", 10.0, 2), journal=False)
        assert not broker._apply_record(self._record("r1", 10.0, 2),
                                        journal=False)

    def test_restarted_advertiser_supersedes_despite_reset_seq(self):
        """A crashed advertiser's sequence counter resets to 1; its fresh
        advertisement must still beat the old incarnation's seq=7 copy
        because virtual time dominates the key."""
        broker = self._broker()
        broker._apply_record(self._record("r1", 100.0, 7), journal=False)
        assert broker._apply_record(self._record("r1", 200.0, 1),
                                    journal=False)

    def test_tombstone_removes_and_blocks_stale_copy(self):
        broker = self._broker()
        broker._apply_record(self._record("r1", 10.0, 1), journal=False)
        tomb = JournalRecord(op=OP_UNADVERTISE, agent="r1", seq=2, at=30.0)
        assert broker._apply_record(tomb, journal=False)
        assert not broker.repository.knows("r1")
        assert not broker._apply_record(self._record("r1", 20.0, 5),
                                        journal=False)

    def test_records_about_self_never_apply(self):
        broker = self._broker("b1")
        assert not broker._apply_record(self._record("b1", 10.0, 1),
                                        journal=False)
        assert "b1" not in broker._replication

    def test_applied_records_reach_the_journal(self):
        broker = self._broker()
        broker.journal = AdvertisementJournal()
        broker._apply_record(self._record("r1", 10.0, 1), journal=True)
        broker._apply_record(self._record("r1", 5.0, 1), journal=True)  # stale
        assert len(broker.journal) == 1


def strict_community(crash_mode="strict", journal=None, sync=False,
                     observer=None, table_seed=1):
    """One recoverable broker, one always-on peer, one resource
    advertising to both."""
    onto = demo_ontology(1)
    context = MatchContext(ontologies={"demo": onto})
    bus = MessageBus(fast_costs(), observer=observer)
    bus.register(BrokerAgent(
        "b1", context=context, peer_brokers=["b2"],
        journal=journal, sync_on_start=sync,
        config=AgentConfig(redundancy=0, crash_mode=crash_mode,
                           reply_timeout=5.0),
    ))
    bus.register(BrokerAgent(
        "b2", context=context, peer_brokers=["b1"],
        config=AgentConfig(redundancy=0, reply_timeout=5.0),
    ))
    bus.register(ResourceAgent(
        "R1", {"C1": generate_table(onto, "C1", 4, seed=table_seed)}, "demo",
        config=AgentConfig(preferred_brokers=("b1", "b2"), redundancy=2,
                           ping_interval=60.0, reply_timeout=5.0,
                           advertisement_size_mb=0.01),
    ))
    bus.run_until(1.0)
    assert bus.agent("b1").repository.knows("R1")
    return bus


class _Prober(Agent):
    """Sends one prepared recommend when poked; records replies."""

    agent_type = "prober"

    def __init__(self, name):
        super().__init__(name, AgentConfig(redundancy=0))
        self.replies = []

    def recommend(self, bus, broker, tag):
        self._message = KqmlMessage(
            Performative.RECOMMEND_ALL, sender=self.name, receiver=broker,
            content=RecommendRequest(
                query=BrokerQuery(agent_type="resource", ontology_name="demo"),
                policy=SearchPolicy(hop_count=0),
            ),
            reply_with=f"{self.name}-rec-{tag}",
        )
        bus.schedule_timer(self.name, bus.now, f"go-{tag}")

    def on_custom_timer(self, token, result, now):
        self.ask(self._message, lambda r, res: self.replies.append(r), result,
                 timeout=30.0)


class TestStrictCrashSemantics:
    def test_strict_crash_wipes_repository(self):
        bus = strict_community("strict")
        broker = bus.agent("b1")
        bus.set_offline("b1", True)
        assert broker.repository.agent_names() == []
        assert broker._replication == {}
        assert broker.connected_broker_list == []

    def test_revived_strict_broker_does_not_answer_from_precrash_state(self):
        """The regression the hook exists for: before the fix a revived
        broker kept its repository and answered as if it never died."""
        bus = strict_community("strict")
        bus.set_offline("b1", True)
        bus.set_offline("b1", False)
        prober = _Prober("probe")
        bus.register(prober)
        prober.recommend(bus, "b1", "post-crash")
        bus.run_until(bus.now + 10.0)
        reply = prober.replies[0]
        assert reply is not None and reply.performative is Performative.TELL
        assert reply.content == []  # amnesia: no matches until re-advertised

    def test_lenient_crash_preserves_repository(self):
        bus = strict_community("lenient")
        broker = bus.agent("b1")
        bus.set_offline("b1", True)
        assert broker.repository.knows("R1")
        bus.set_offline("b1", False)
        prober = _Prober("probe")
        bus.register(prober)
        prober.recommend(bus, "b1", "post-blip")
        bus.run_until(bus.now + 10.0)
        reply = prober.replies[0]
        assert reply.performative is Performative.TELL
        assert [m.agent_name for m in reply.content] == ["R1"]

    def test_ping_cycle_heals_strict_crash(self):
        """Cold path: the resource's next ping discovers the broker
        forgot it and re-advertises."""
        bus = strict_community("strict")
        bus.set_offline("b1", True)
        bus.set_offline("b1", False)
        bus.run_until(bus.now + 130.0)  # two 60 s ping cycles
        assert bus.agent("b1").repository.knows("R1")

    def test_journal_replay_heals_immediately(self):
        journal = AdvertisementJournal()
        bus = strict_community("strict", journal=journal)
        assert len(journal) > 0
        bus.set_offline("b1", True)
        assert not bus.agent("b1").repository.knows("R1")
        bus.set_offline("b1", False)
        bus.run_until(bus.now + 2.0)  # well before any ping cycle
        assert bus.agent("b1").repository.knows("R1")

    def test_anti_entropy_heals_from_peer(self):
        observer = MetricsObserver()
        bus = strict_community("strict", sync=True, observer=observer)
        assert bus.agent("b2").repository.knows("R1")
        bus.set_offline("b1", True)
        bus.set_offline("b1", False)
        bus.run_until(bus.now + 5.0)  # one digest round trip
        assert bus.agent("b1").repository.knows("R1")
        pulled = sum(
            c.value for key, c in observer.registry._counters.items()
            if key.startswith("broker.recovery.sync_pulled"))
        assert pulled >= 1

    def test_sync_digest_suppresses_known_records(self):
        """A peer answers only with what the digest is missing."""
        bus = strict_community("strict", sync=True)
        peer = bus.agent("b2")
        record = peer._replication["R1"]
        message = KqmlMessage(
            Performative.ASK_ALL, sender="b1", receiver="b2",
            content=SyncDigest(
                entries=(("R1", record.at, record.seq, False),)),
            reply_with="digest-probe",
        )
        from repro.agents.base import HandlerResult
        result = HandlerResult()
        peer.on_ask_all(message, result, bus.now)
        delta = result.outbox[0][0].content
        assert isinstance(delta, SyncDelta)
        assert all(r.agent != "R1" for r in delta.records)

    def test_non_digest_ask_all_gets_sorry(self):
        bus = strict_community("strict")
        peer = bus.agent("b2")
        from repro.agents.base import HandlerResult
        result = HandlerResult()
        peer.on_ask_all(
            KqmlMessage(Performative.ASK_ALL, sender="x", receiver="b2",
                        content="what do you know", reply_with="rw-1"),
            result, bus.now)
        reply = result.outbox[0][0]
        assert reply.performative is Performative.SORRY


class _TokenRecorder(Agent):
    agent_type = "recorder"

    def __init__(self, name, crash_mode="strict"):
        super().__init__(name, AgentConfig(redundancy=0,
                                           crash_mode=crash_mode))
        self.fired = []

    def on_custom_timer(self, token, result, now):
        self.fired.append((token, now))


class TestTimerEpochs:
    def test_precrash_timers_never_fire_into_revived_agent(self):
        bus = MessageBus(fast_costs())
        agent = _TokenRecorder("a1", "strict")
        bus.register(agent)
        bus.run_until(1.0)
        bus.schedule_timer("a1", 10.0, "old-incarnation")
        bus.set_offline("a1", True)
        bus.set_offline("a1", False)
        bus.schedule_timer("a1", 12.0, "new-incarnation")
        bus.run_until(20.0)
        assert [token for token, _ in agent.fired] == ["new-incarnation"]

    def test_lenient_agents_keep_their_timers(self):
        bus = MessageBus(fast_costs())
        agent = _TokenRecorder("a1", "lenient")
        bus.register(agent)
        bus.run_until(1.0)
        bus.schedule_timer("a1", 10.0, "survives")
        bus.set_offline("a1", True)
        bus.set_offline("a1", False)
        bus.run_until(20.0)
        assert [token for token, _ in agent.fired] == ["survives"]


class TestImmediateReadvertise:
    """Satellite fix: a broken redundancy target starts re-advertising at
    ping-failure time, not a full ping interval later."""

    @staticmethod
    def _community(observer=None):
        onto = demo_ontology(1)
        context = MatchContext(ontologies={"demo": onto})
        bus = MessageBus(fast_costs(), observer=observer)
        for name in ("bA", "bB"):
            bus.register(BrokerAgent(
                name, context=context,
                config=AgentConfig(redundancy=0, reply_timeout=5.0)))
        bus.register(ResourceAgent(
            "R1", {"C1": generate_table(onto, "C1", 3, seed=1)}, "demo",
            config=AgentConfig(preferred_brokers=("bA", "bB"), redundancy=1,
                               ping_interval=60.0, reply_timeout=5.0,
                               advertisement_size_mb=0.01),
        ))
        bus.run_until(1.0)
        return bus

    def test_reconnects_within_one_ping_cycle_of_detection(self):
        bus = self._community()
        resource = bus.agent("R1")
        assert resource.connected_broker_list == ["bA"]
        bus.set_offline("bA", True)

        state = {"reconnected_at": None}
        probe_at = 2.0
        while probe_at < 130.0:
            def probe(at=probe_at):
                if state["reconnected_at"] is None and \
                        "bB" in resource.connected_broker_list:
                    state["reconnected_at"] = at
            bus.schedule_callback(probe_at, probe)
            probe_at += 1.0
        bus.run_until(130.0)

        # Ping cycle at t=60 fails by t=65 (5 s timeout); the immediate
        # re-advertise connects bB right there.  The old behaviour sat
        # dormant until the *next* cycle at t=120.
        assert state["reconnected_at"] is not None
        assert state["reconnected_at"] < 70.0

    def test_dropped_broker_is_not_hammered_immediately(self):
        """The just-dropped broker only becomes a candidate again at the
        next ping cycle — one full retry budget already failed."""
        tracer = ConversationTracer()
        bus = self._community(observer=tracer)
        bus.set_offline("bA", True)
        bus.run_until(100.0)  # detection ~65, next cycle at 120
        advertises_to_dead = [
            s for s in tracer.spans
            if s.performative == "advertise" and s.receiver == "bA"
            and s.start > 60.0
        ]
        assert advertises_to_dead == []

    def test_readvertise_counter_tracks_rounds(self):
        observer = MetricsObserver()
        bus = self._community(observer=observer)
        bus.set_offline("bA", True)
        bus.run_until(130.0)
        counted = sum(
            c.value for key, c in observer.registry._counters.items()
            if key.startswith("agent.readvertise.count"))
        assert counted >= 2  # start-up round + post-detection round


class TestHealLoop:
    """The full crash -> restart -> reconverge loop under a hostile
    FaultPlan (link loss + a pre-crash partition), across seeds and all
    three recovery paths."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("path", RECOVERY_PATHS)
    def test_repository_reconverges(self, path, seed):
        row = measure_reconvergence(path, loss=0.05, partition_duration=60.0,
                                    seed=seed)
        assert row["pre_crash_converged"], (path, seed)
        assert not math.isnan(row["reconvergence_s"]), (path, seed)
        if path == "replay":
            assert row["replayed"] > 0
            assert row["sync_pulled"] == 0
        elif path == "sync":
            assert row["sync_pulled"] > 0
            assert row["replayed"] == 0
        else:
            assert row["replayed"] == 0 and row["sync_pulled"] == 0

    @pytest.mark.parametrize("seed", [0])
    def test_fast_paths_beat_ping_cycle_recovery(self, seed):
        times = {
            path: measure_reconvergence(path, seed=seed)["reconvergence_s"]
            for path in RECOVERY_PATHS
        }
        assert times["replay"] < times["cold"]
        assert times["sync"] < times["cold"]


class TestRecommendEquivalence:
    """Acceptance: after recovery a crashed-and-restarted broker answers
    recommend queries equivalently to a never-crashed baseline."""

    def test_recovered_repository_matches_baseline(self):
        config = recovery_config("replay", duration=1_500.0)
        baseline = Simulation(config)
        baseline.bus.run_until(config.duration)

        crashed = Simulation(config)
        crashed.bus.schedule_callback(
            600.0, lambda: crashed.bus.set_offline("broker0", True))
        crashed.bus.schedule_callback(
            900.0, lambda: crashed.bus.set_offline("broker0", False))
        crashed.bus.run_until(config.duration)

        base_broker = baseline.bus.agent("broker0")
        reco_broker = crashed.bus.agent("broker0")
        assert sorted(reco_broker.repository.agent_names()) == \
            sorted(base_broker.repository.agent_names())

        for domain in sorted(baseline.expected_matches):
            query = BrokerQuery(agent_type="resource", ontology_name=domain)
            base = {m.agent_name for m in base_broker.repository.query(query)}
            reco = {m.agent_name for m in reco_broker.repository.query(query)}
            assert reco == base, domain


class TestRecoveryObservability:
    def test_metrics_and_spans_for_replay(self):
        registry_obs = MetricsObserver()
        tracer = ConversationTracer()
        from repro.obs import CompositeObserver
        observer = CompositeObserver([registry_obs, tracer])
        row = measure_reconvergence("replay", observer=observer)
        assert row["replayed"] > 0
        histograms = registry_obs.registry._histograms
        assert any(k.startswith("broker.recovery.time") and "replay" in k
                   for k in histograms)
        replay_spans = [s for s in tracer.spans
                        if s.performative == "region"
                        and s.name.startswith("journal-replay")]
        assert replay_spans and replay_spans[0].status == "ok"
        assert replay_spans[0].attrs["records"] > 0

    def test_metrics_and_spans_for_sync(self):
        registry_obs = MetricsObserver()
        tracer = ConversationTracer()
        from repro.obs import CompositeObserver
        observer = CompositeObserver([registry_obs, tracer])
        row = measure_reconvergence("sync", observer=observer)
        assert row["sync_pulled"] > 0
        histograms = registry_obs.registry._histograms
        assert any(k.startswith("broker.recovery.time") and "sync" in k
                   for k in histograms)
        sync_spans = [s for s in tracer.spans
                      if s.performative == "region"
                      and s.name.startswith("anti-entropy")]
        assert sync_spans
        assert any(s.attrs.get("pulled", 0) > 0 for s in sync_spans)

    def test_region_histogram_records_duration(self):
        observer = MetricsObserver()
        observer.region("b1", "journal-replay", 10.0, 12.5)
        hist = observer.registry._histograms[
            "region.seconds{region=journal-replay}"]
        assert hist.count == 1 and hist.sum == 2.5
