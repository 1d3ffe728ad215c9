"""Tests for the repository's matching fast path and match cache.

Covers pruning through the columnar plane's posting lists (ontology,
class closure, capability closure, conversation), the fingerprint-keyed
match cache with its generation-counter invalidation, and plane
consistency across advertise → unadvertise → re-advertise cycles —
including agent/broker type flips.  Every answer is checked against
the reference scan, :func:`~repro.core.matcher.match_advertisements`.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import BrokerQuery, BrokerRepository, BrokeringError, MatchContext
from repro.core.matcher import match_advertisements
from repro.ontology import healthcare_ontology
from tests.test_core_matcher import make_ad
from tests.test_core_infrastructure import broker_ad

ONTOLOGIES = ["healthcare", "aerospace", "finance", ""]


def build_repo(ads, **kwargs):
    """A default repository holding *ads*."""
    context = MatchContext(ontologies={"healthcare": healthcare_ontology()})
    repo = BrokerRepository(context, **kwargs)
    for ad in ads:
        repo.advertise(ad)
    return repo


def scan(repo, query):
    """The reference answer: the scan matcher over *repo*'s ads."""
    return match_advertisements(query, repo.agent_ads(), repo.context)


def sample_ads():
    return [
        make_ad(f"agent{i}", ontology=ONTOLOGIES[i % len(ONTOLOGIES)],
                classes=("patient",) if ONTOLOGIES[i % len(ONTOLOGIES)] == "healthcare" else ())
        for i in range(12)
    ]


def names(matches):
    return [m.agent_name for m in matches]


class TestCandidateIndex:
    def test_same_results_with_and_without_index(self):
        repo = build_repo(sample_ads())
        query = BrokerQuery(ontology_name="healthcare", classes=("patient",))
        assert names(scan(repo, query)) == names(repo.query(query))

    def test_index_reduces_work(self):
        repo = build_repo(sample_ads())
        repo.query(BrokerQuery(ontology_name="healthcare"))
        assert repo.stats.advertisements_reasoned_over < repo.agent_count
        assert repo.stats.candidates_pruned > 0

    def test_unrestricted_ads_always_candidates(self):
        repo = build_repo(sample_ads())
        query = BrokerQuery(ontology_name="finance")
        matched = set(names(repo.query(query)))
        # agents with ontology "" (content-unrestricted) must appear.
        assert any(
            ad.agent_name in matched for ad in sample_ads()
            if not ad.description.content.ontology_name
        )

    def test_no_indexed_dimension_scans_everything(self):
        repo = build_repo(sample_ads())
        repo.query(BrokerQuery(agent_type="resource"))
        assert repo.stats.advertisements_reasoned_over == 12

    def test_class_index_expands_subclass_closure(self):
        # A query over the superclass must reach subclass advertisers
        # and vice versa (is-a both ways), while unrelated classes prune.
        onto = healthcare_ontology()
        roots = onto.roots()
        parent = roots[0]
        children = onto.descendants(parent)
        ads = [make_ad("up", classes=(parent,)),
               make_ad("down", classes=(children[0],)) if children else None,
               make_ad("none", classes=())]
        repo = build_repo([ad for ad in ads if ad is not None])
        for requested in [parent] + children[:1]:
            query = BrokerQuery(ontology_name="healthcare", classes=(requested,))
            assert names(scan(repo, query)) == names(repo.query(query))

    def test_capability_index_expands_cover_closure(self):
        repo = build_repo([
            make_ad("general", functions=("query-processing",)),
            make_ad("special", functions=("select",)),
            make_ad("other", functions=("data-mining",)),
        ])
        # "select" is served by the exact advertiser and by the
        # query-processing generalist, not by the data miner.
        query = BrokerQuery(capabilities=("select",))
        assert set(names(repo.query(query))) == {"general", "special"}
        assert names(scan(repo, query)) == names(repo.query(query))
        # An agent advertising only a *descendant* does not cover the
        # more general request.
        general = BrokerQuery(capabilities=("relational",))
        assert "special" not in names(repo.query(general))

    def test_conversation_index(self):
        repo = build_repo([make_ad("a", conversations=("ask-all", "subscribe")),
                           make_ad("b", conversations=("ask-all",))])
        query = BrokerQuery(conversations=("subscribe",))
        assert names(repo.query(query)) == ["a"]
        assert repo.stats.advertisements_reasoned_over == 1
        assert names(scan(repo, query)) == names(repo.query(query))

    def test_removed_direct_engine_rejected(self):
        # The candidate-index engine is gone; naming it is an error.
        with pytest.raises(BrokeringError):
            BrokerRepository(engine="direct")


class TestAdvertisementLifecycle:
    def test_index_tracks_updates_and_removal(self):
        repo = build_repo(sample_ads())
        # Re-advertise agent0 under a different ontology.
        repo.advertise(make_ad("agent0", ontology="finance"))
        healthcare = set(names(repo.query(BrokerQuery(ontology_name="healthcare"))))
        assert "agent0" not in healthcare
        finance = set(names(repo.query(BrokerQuery(ontology_name="finance"))))
        assert "agent0" in finance
        repo.unadvertise("agent0")
        finance = set(names(repo.query(BrokerQuery(ontology_name="finance"))))
        assert "agent0" not in finance

    def test_readvertise_cycles_keep_indexes_consistent(self):
        repo = BrokerRepository(MatchContext())
        for _ in range(3):
            repo.advertise(make_ad("a1", ontology="finance",
                                   functions=("select",), classes=()))
            assert names(repo.query(BrokerQuery(ontology_name="finance"))) == ["a1"]
            repo.advertise(make_ad("a1", ontology="aerospace",
                                   functions=("join",), classes=()))
            # The old index entries must be gone in every dimension.
            assert repo.query(BrokerQuery(ontology_name="finance")) == []
            assert repo.query(BrokerQuery(capabilities=("select",))) == []
            assert names(repo.query(BrokerQuery(capabilities=("join",)))) == ["a1"]
            assert repo.unadvertise("a1")
            assert repo.query(BrokerQuery(ontology_name="aerospace")) == []

    def test_agent_to_broker_readvertisement_clears_agent_store(self):
        repo = BrokerRepository(MatchContext())
        repo.advertise(make_ad("flip", ontology="finance", classes=()))
        assert repo.agent_names() == ["flip"]
        repo.advertise(broker_ad("flip"))
        # The old agent entry and its index postings must be gone.
        assert repo.agent_names() == []
        assert repo.broker_names() == ["flip"]
        assert repo.query(BrokerQuery(ontology_name="finance")) == []
        # And back again.
        repo.advertise(make_ad("flip", ontology="finance", classes=()))
        assert repo.agent_names() == ["flip"]
        assert repo.broker_names() == []
        assert names(repo.query(BrokerQuery(ontology_name="finance"))) == ["flip"]

    def test_broker_to_agent_flip_in_datalog_backend(self):
        repo = BrokerRepository(MatchContext(), engine="datalog")
        repo.advertise(make_ad("flip", ontology="finance", classes=()))
        repo.advertise(broker_ad("flip"))
        assert repo.query(BrokerQuery(ontology_name="finance")) == []
        repo.advertise(make_ad("flip", ontology="finance", classes=()))
        assert names(repo.query(BrokerQuery(ontology_name="finance"))) == ["flip"]


class TestMatchCache:
    def test_repeated_query_hits_cache(self):
        repo = build_repo(sample_ads())
        query = BrokerQuery(ontology_name="healthcare")
        first = repo.query(query)
        reasoned = repo.stats.advertisements_reasoned_over
        second = repo.query(query)
        assert names(first) == names(second)
        assert repo.stats.cache_hits == 1
        # A hit does no matching work at all.
        assert repo.stats.advertisements_reasoned_over == reasoned

    def test_equivalent_queries_share_cache_entry(self):
        repo = build_repo(sample_ads())
        repo.query(BrokerQuery(capabilities=("select", "join")))
        repo.query(BrokerQuery(capabilities=("join", "select")))
        assert repo.stats.cache_hits == 1

    def test_advertise_bumps_generation_and_invalidates(self):
        repo = build_repo(sample_ads())
        query = BrokerQuery(ontology_name="healthcare", classes=("patient",))
        before = set(names(repo.query(query)))
        generation = repo.generation
        repo.advertise(make_ad("late", classes=("patient",)))
        assert repo.generation > generation
        after = set(names(repo.query(query)))
        assert "late" in after
        assert after == before | {"late"}
        assert repo.stats.cache_hits == 0

    def test_unadvertise_bumps_generation_and_invalidates(self):
        repo = build_repo(sample_ads())
        query = BrokerQuery(ontology_name="healthcare")
        matched = names(repo.query(query))
        assert matched
        generation = repo.generation
        assert repo.unadvertise(matched[0])
        assert repo.generation > generation
        assert matched[0] not in names(repo.query(query))

    def test_broker_ad_churn_also_invalidates(self):
        # Conservative: any repository mutation bumps the generation.
        repo = build_repo(sample_ads())
        generation = repo.generation
        repo.advertise(broker_ad("b-late"))
        assert repo.generation > generation

    @pytest.mark.parametrize("engine", ["columnar"])
    def test_ontology_mutation_bumps_generation_and_invalidates(self, engine):
        """Regression: the generation stamp must also move when the
        shared ontology mutates, not only on advertise traffic — a
        cached match list built under the old class hierarchy would
        otherwise survive an ontology update and serve stale answers.
        (The plane itself stores only exact class names, so it needs no
        rebuild.)"""
        from repro.ontology import OntClass

        ontology = healthcare_ontology()
        context = MatchContext(ontologies={"healthcare": ontology})
        repo = BrokerRepository(context, engine=engine)
        # The advertised class is unknown to the ontology, so it is
        # unrelated to "patient" — the query caches an empty answer.
        repo.advertise(make_ad("late-vocab", classes=("telemetry-record",)))
        query = BrokerQuery(ontology_name="healthcare", classes=("patient",))
        assert names(repo.query(query)) == []
        generation = repo.generation
        # An ontology update makes the advertised class a subclass of
        # "patient"; the cached empty answer is now wrong.
        ontology.add_class(OntClass("telemetry-record", (), parent="patient"))
        assert repo.generation > generation
        assert names(repo.query(query)) == ["late-vocab"]

    @pytest.mark.parametrize("engine", ["columnar"])
    def test_ontology_reload_bumps_generation(self, engine):
        """Swapping in a *new* ontology object under the same name (an
        ontology-server reload) must invalidate too, even though no
        repository mutation happened."""
        context = MatchContext(ontologies={"healthcare": healthcare_ontology()})
        repo = BrokerRepository(context, engine=engine)
        repo.advertise(make_ad("steady", classes=("patient",)))
        query = BrokerQuery(ontology_name="healthcare", classes=("patient",))
        assert names(repo.query(query)) == ["steady"]
        generation = repo.generation
        context.ontologies["healthcare"] = healthcare_ontology()
        assert repo.generation > generation
        # Same semantics, fresh closures: the answer is recomputed, not
        # served from a cache keyed to the dead ontology object.
        assert names(repo.query(query)) == ["steady"]
        assert repo.stats.cache_hits == 0

    def test_cache_disabled(self):
        repo = build_repo(sample_ads(), match_cache_size=0)
        query = BrokerQuery(ontology_name="healthcare")
        repo.query(query)
        repo.query(query)
        assert repo.stats.cache_hits == 0
        assert repo.stats.cache_misses == 0

    def test_cache_eviction_is_bounded(self):
        repo = build_repo(sample_ads(), match_cache_size=2)
        for ontology in ("healthcare", "aerospace", "finance"):
            repo.query(BrokerQuery(ontology_name=ontology))
        assert len(repo._match_cache) <= 2
        # The oldest entry was evicted; re-querying it misses.
        repo.query(BrokerQuery(ontology_name="healthcare"))
        assert repo.stats.cache_hits == 0

    def test_cached_results_are_copies(self):
        repo = build_repo(sample_ads())
        query = BrokerQuery(ontology_name="healthcare")
        first = repo.query(query)
        first.append("sentinel")
        assert "sentinel" not in repo.query(query)


@settings(max_examples=40, deadline=None)
@given(
    ontologies=st.lists(st.sampled_from(ONTOLOGIES), min_size=1, max_size=10),
    query_ontology=st.sampled_from(["healthcare", "aerospace", "finance"]),
)
def test_property_index_is_invisible(ontologies, query_ontology):
    repo = build_repo([make_ad(f"a{i}", ontology=o, classes=())
                       for i, o in enumerate(ontologies)])
    for query in (
        BrokerQuery(ontology_name=query_ontology),
        BrokerQuery(agent_type="resource"),
        BrokerQuery(ontology_name=query_ontology, content_language="SQL 2.0"),
    ):
        assert names(scan(repo, query)) == names(repo.query(query))
