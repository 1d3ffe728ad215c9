"""MRQ answer assembly: replies are validated once, where they enter the
MRQ agent, and reassembled without re-validation or row copies.

Covers the checks the copy-free path must keep (unknown columns and
mistyped values in a reply, type clashes across replies), the public
row accessors still returning copies, the regressions for a
heterogeneous source and for replicated full tables, and a Hypothesis
property: with no faults, any keyed table split into vertical fragments
and replicated comes back exactly, under both MRQ executors.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.agents import (
    AgentConfig,
    BrokerAgent,
    CostModel,
    MessageBus,
    MultiResourceQueryAgent,
    ResourceAgent,
    UserAgent,
)
from repro.agents.mrq import (
    MrqResilienceConfig,
    _admit,
    _receive,
    _table_from_result,
)
from repro.core.matcher import MatchContext
from repro.kqml import KqmlMessage, Performative
from repro.ontology import demo_ontology
from repro.ontology.model import OntClass, Ontology, Slot
from repro.relational import (
    Column,
    Schema,
    SchemaError,
    Table,
    union_all,
    vertical_fragments,
)
from repro.relational.generate import generate_table
from repro.sql.executor import QueryResult, execute_select, parse_select_cached


def fast_costs():
    return CostModel(
        broker_seconds_per_mb=0.01,
        resource_seconds_per_mb=0.01,
        base_handling_seconds=0.0001,
        latency_seconds=0.001,
        bandwidth_bytes_per_second=1e9,
    )


def build_community(onto, resources, resilience=None):
    """One broker, the given (name, tables, advertised slots, agent class)
    resources, an MRQ agent and a user; everyone has advertised."""
    context = MatchContext(ontologies={onto.name: onto})
    bus = MessageBus(fast_costs())
    bus.register(BrokerAgent("broker1", context=context))
    cfg = AgentConfig(preferred_brokers=("broker1",), redundancy=1)
    for name, tables, slots, cls in resources:
        bus.register(cls(name, tables, onto.name, config=cfg,
                         advertised_slots=slots))
    bus.register(MultiResourceQueryAgent("mrq", onto.name, ontology=onto,
                                         config=cfg, resilience=resilience))
    user = UserAgent("alice", config=cfg, query_timeout=300.0)
    bus.register(user)
    bus.run_until(1.0)
    return bus, user


def ask(bus, user, sql):
    user.submit(sql)
    bus.run()
    return user.completed[-1]


def by_key(rows, key):
    return sorted((dict(row) for row in rows), key=lambda row: row[key])


def reply_of(rows, columns):
    return KqmlMessage(Performative.TELL, sender="r", receiver="mrq",
                       content=QueryResult(columns, tuple(rows), len(rows)))


# ----------------------------------------------------------------------
# the reply boundary keeps today's checks
# ----------------------------------------------------------------------
class TestReplyBoundary:
    def test_unknown_column_rejected(self):
        result = QueryResult(("id",), ({"id": 1, "ghost": 2},), 1)
        with pytest.raises(SchemaError, match="unknown columns"):
            _table_from_result("t", result)
        answer, reason = _receive("r", reply_of([{"id": 1, "ghost": 2}], ("id",)))
        assert answer is None
        assert reason == "invalid:row has unknown columns: ['ghost']"

    def test_type_clash_inside_one_reply_rejected(self):
        rows = [{"v": 1}, {"v": "x"}]
        with pytest.raises(SchemaError, match=r"column 'v' \(number\) rejects 'x'"):
            _table_from_result("t", QueryResult(("v",), tuple(rows), 2))
        answer, reason = _receive("r", reply_of(rows, ("v",)))
        assert answer is None and reason.startswith("invalid:column 'v'")

    def test_non_mapping_row_rejected(self):
        answer, reason = _receive("r", reply_of([(1, 2)], ("a", "b")))
        assert answer is None and reason.startswith("invalid:")

    def test_non_query_result_tell_rejected(self):
        message = KqmlMessage(Performative.TELL, sender="r", receiver="mrq",
                              content="not rows")
        assert _receive("r", message) == (
            None, "invalid:reply is not a query result")

    def test_short_rows_are_filled_with_nulls(self):
        result = QueryResult(("id", "v"), ({"id": 1},), 1)
        table = _table_from_result("t", result)
        assert list(table.rows()) == [{"id": 1, "v": None}]

    def test_valid_reply_rows_are_not_copied(self):
        rows = ({"id": 1, "v": 2}, {"id": 2, "v": None})
        answer, reason = _receive("r", reply_of(rows, ("id", "v")))
        assert reason is None and answer.rows_scanned == 2
        assert all(a is b for a, b in zip(answer.table.rows_view(), rows))
        # The public accessors still hand out copies.
        assert all(a is not b for a, b in zip(answer.table.rows(), rows))


class TestAdmission:
    def answer(self, provider, rows, columns):
        answer, reason = _receive(provider, reply_of(rows, columns))
        assert reason is None
        return answer._replace(provider=provider)

    def test_clash_across_replies_rejects_the_later_reply(self):
        first = self.answer("a", [{"id": 1, "v": 644}], ("id", "v"))
        second = self.answer("b", [{"id": 2, "v": "644"}], ("id", "v"))
        kept, rejected = _admit([first, second])
        assert [a.provider for a in kept] == ["a"]
        [(answer, reason)] = rejected
        assert answer is second
        assert reason == "invalid:column 'v' (number) rejects '644'"

    def test_null_only_column_agrees_with_any_type(self):
        nulls = self.answer("a", [{"id": 1, "v": None}], ("id", "v"))
        typed = self.answer("b", [{"id": 2, "v": 5}], ("id", "v"))
        kept, rejected = _admit([nulls, typed])
        assert rejected == []
        # The null-only column now declares the agreed type, so the
        # union below needs no re-validation and raises nothing.
        assert kept[0].table.schema.column("v").col_type == "number"
        merged = union_all([a.table for a in kept])
        assert by_key(merged.rows(), "id") == [{"id": 1, "v": None},
                                               {"id": 2, "v": 5}]


# ----------------------------------------------------------------------
# the copy-free algebra still hands out copies
# ----------------------------------------------------------------------
class TestPublicRowsAreCopies:
    def test_fast_union_output_is_independent_of_inputs(self):
        schema = Schema((Column("id", "number"), Column("v", "number")))
        first = Table("a", schema, [{"id": 1, "v": 10}])
        merged = union_all([first, Table("b", schema, [{"id": 2, "v": 20}])])
        for row in merged.rows():
            row["v"] = -1
        merged.scan()[0]["v"] = -1
        assert [r["v"] for r in merged.rows()] == [10, 20]
        assert list(first.rows()) == [{"id": 1, "v": 10}]

    def test_execute_select_returns_fresh_rows(self):
        onto = demo_ontology(1)
        table = generate_table(onto, "C1", 3, seed=1)
        before = list(table.rows())
        result = execute_select(parse_select_cached("select * from C1"),
                                {"C1": table})
        for row in result.rows:
            row["c1_s1"] = "changed"
        assert list(table.rows()) == before
        assert result.rows_scanned == 3


# ----------------------------------------------------------------------
# regressions
# ----------------------------------------------------------------------
class NotRowsResource(ResourceAgent):
    """A resource whose every answer is a ``tell`` without a query result."""

    def on_ask_all(self, message, result, now):
        self.queries_answered += 1
        result.send(message.reply(Performative.TELL, content="not rows"))


class TestHeterogeneousSource:
    def build(self, rogue_cls=ResourceAgent):
        onto = demo_ontology(1)
        numbers = generate_table(onto, "C1", 6, seed=4)
        schema = Schema(tuple(
            Column(c.name, "string") if c.name == "c1_s1" else c
            for c in numbers.schema.columns), key="c1_id")
        strings = Table("C1", schema, [
            dict(row, c1_id=row["c1_id"] + 100, c1_s1=str(row["c1_s1"]))
            for row in numbers.rows()])
        bus, user = build_community(onto, [
            ("num", {"C1": numbers}, (), ResourceAgent),
            ("str", {"C1": strings}, (), rogue_cls),
        ])
        return bus, user, numbers

    def test_type_clash_is_an_honest_partial_not_a_crash(self):
        bus, user, numbers = self.build()
        done = ask(bus, user, "select * from C1")
        # Which reply lands first decides which provider loses the clash;
        # either way the run survives and the answer says what it lacks.
        assert done.succeeded, done.error
        assert done.partial is not None and done.partial.startswith("missing:")
        [failed] = done.partial_detail["failed"]
        assert failed["reason"].startswith("invalid:column 'c1_s1'")
        assert "rejects" in failed["reason"]
        assert done.result.row_count == 6
        if failed["provider"] == "str":
            assert by_key(done.result.rows, "c1_id") == by_key(
                numbers.rows(), "c1_id")

    def test_tell_without_query_result_is_an_honest_partial(self):
        bus, user, numbers = self.build(rogue_cls=NotRowsResource)
        done = ask(bus, user, "select * from C1")
        assert done.succeeded, done.error
        assert done.partial == "missing:str"
        [failed] = done.partial_detail["failed"]
        assert failed == {"provider": "str", "fragment": "C1[*]",
                          "reason": "invalid:reply is not a query result"}
        assert by_key(done.result.rows, "c1_id") == by_key(numbers.rows(), "c1_id")

    def test_only_invalid_replies_is_a_sorry_with_detail(self):
        onto = demo_ontology(1)
        table = generate_table(onto, "C1", 3, seed=1)
        bus, user = build_community(
            onto, [("bad", {"C1": table}, (), NotRowsResource)])
        done = ask(bus, user, "select * from C1")
        assert not done.succeeded
        [failed] = done.partial_detail["failed"]
        assert failed["reason"] == "invalid:reply is not a query result"

    def test_invalid_reply_fails_over_under_resilience(self):
        onto = demo_ontology(1)
        table = generate_table(onto, "C1", 5, seed=2)
        bus, user = build_community(onto, [
            ("bad", {"C1": table}, (), NotRowsResource),
            ("good", {"C1": table}, (), ResourceAgent),
        ], resilience=MrqResilienceConfig())
        done = ask(bus, user, "select * from C1")
        assert done.complete, (done.error, done.partial)
        assert by_key(done.result.rows, "c1_id") == by_key(table.rows(), "c1_id")


class TestReplicatedFullTables:
    @pytest.mark.parametrize("resilience", [None, MrqResilienceConfig()])
    def test_replicas_do_not_duplicate_rows(self, resilience):
        onto = demo_ontology(1)
        table = generate_table(onto, "C1", 5, seed=9)
        bus, user = build_community(onto, [
            (f"r{i}", {"C1": table}, (), ResourceAgent) for i in range(3)
        ], resilience=resilience)
        done = ask(bus, user, "select * from C1")
        assert done.complete, (done.error, done.partial)
        assert done.result.row_count == 5
        assert by_key(done.result.rows, "c1_id") == by_key(table.rows(), "c1_id")


# ----------------------------------------------------------------------
# property: fault-free reassembly is exact under both executors
# ----------------------------------------------------------------------
_VALUES = {
    "number": st.one_of(st.none(), st.integers(-1000, 1000)),
    "string": st.one_of(st.none(), st.text("abcxyz", max_size=4)),
    "bool": st.one_of(st.none(), st.booleans()),
}


@st.composite
def fragmented_tables(draw):
    types = draw(st.lists(st.sampled_from(sorted(_VALUES)), min_size=1,
                          max_size=4))
    names = [f"p_c{i}" for i in range(len(types))]
    onto = Ontology("prop")
    onto.add_class(OntClass("P", (
        Slot("p_id", "number"),
        *(Slot(name, col_type) for name, col_type in zip(names, types)),
    ), key="p_id"))
    keys = draw(st.lists(st.integers(0, 10_000), max_size=50, unique=True))
    rows = [
        {"p_id": key, **{name: draw(_VALUES[col_type])
                         for name, col_type in zip(names, types)}}
        for key in keys
    ]
    base = Table("P", Schema.from_class(onto, "P"), rows)
    order = draw(st.permutations(names))
    n_fragments = draw(st.integers(1, min(3, len(names))))
    cuts = sorted(draw(st.lists(st.integers(1, len(names) - 1), min_size=n_fragments - 1,
                                max_size=n_fragments - 1, unique=True))
                  ) if n_fragments > 1 else []
    bounds = [0, *cuts, len(names)]
    groups = [list(order[a:b]) for a, b in zip(bounds, bounds[1:])]
    replicas = draw(st.integers(1, 3))
    return onto, base, groups, replicas


@pytest.mark.parametrize("resilience", [None, MrqResilienceConfig()],
                         ids=["legacy", "resilient"])
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=fragmented_tables())
def test_fault_free_assembly_returns_the_base_table(resilience, case):
    onto, base, groups, replicas = case
    fragments = vertical_fragments(base, groups)
    resources = [
        (f"f{index}r{replica}", {"P": fragment},
         tuple(fragment.schema.column_names()), ResourceAgent)
        for index, fragment in enumerate(fragments)
        for replica in range(replicas)
    ]
    bus, user = build_community(onto, resources, resilience=resilience)
    done = ask(bus, user, "select * from P")
    assert done.complete, (done.error, done.partial)
    assert set(done.result.columns) == set(base.schema.column_names())
    assert by_key(done.result.rows, "p_id") == by_key(base.rows(), "p_id")
