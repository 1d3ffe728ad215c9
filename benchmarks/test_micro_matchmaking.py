"""Microbenchmark — the matchmaking hot path at community scale.

Times a repeated query batch against repositories of 100 / 1 000 /
5 000 advertisements under three variants:

* ``scan``            — :func:`~repro.core.matcher.match_advertisements`
  over every advertisement, no repository (the reference oracle);
* ``indexed``         — the default repository (the columnar plane's
  posting-list index) with its match cache off;
* ``indexed+cache``   — the production default: the plane plus the
  fingerprint-keyed match cache.

The ontology distribution is *skewed* (Zipf-ish: a few big domains,
a long tail), the realistic shape for an InfoSleuth deployment and the
regime where posting-list intersection pays most.  Every variant must
return byte-identical ranked results; the timing table is written to
``benchmarks/BENCH_match.json`` (consumed by the README performance
table and the CI matchmaking smoke job).

Set ``REPRO_BENCH_QUICK=1`` (the CI smoke job does) to drop the 5 000-ad
tier and the speedup floor and just verify agreement + artifact shape.
"""

import json
import os
import time

from repro.constraints import parse_constraint
from repro.core import BrokerQuery, BrokerRepository, MatchContext
from repro.core.matcher import match_advertisements
from repro.experiments import format_table
from repro.ontology import healthcare_ontology
from tests.test_core_matcher import make_ad

QUICK = os.environ.get("REPRO_BENCH_QUICK", "") == "1"

SIZES = [100, 1_000] if QUICK else [100, 1_000, 5_000]
#: Queries per batch; the batch repeats so the cache variant can hit.
N_QUERIES = 60
BATCH_REPEATS = 3
#: Skewed domain popularity: domain0 holds ~half the community.
DOMAIN_WEIGHTS = [50, 20, 10, 8, 5, 3, 2, 1, 1]

#: Variant -> repository kwargs; ``None`` is the scan oracle.
VARIANTS = {
    "scan": None,
    "indexed": dict(match_cache_size=0),
    "indexed+cache": {},
}

#: The acceptance floor: indexed+cache vs scan at the largest tier.
SPEEDUP_FLOOR = 5.0


def _domain_of(i):
    total = sum(DOMAIN_WEIGHTS)
    slot = i % total
    acc = 0
    for domain, weight in enumerate(DOMAIN_WEIGHTS):
        acc += weight
        if slot < acc:
            return domain
    return 0


def build_ads(n):
    ads = []
    for i in range(n):
        domain = _domain_of(i)
        ontology = "healthcare" if domain == 0 else f"domain{domain}"
        ads.append(
            make_ad(
                f"agent{i}",
                ontology=ontology,
                classes=("patient",) if domain == 0 and i % 2 == 0 else (),
                functions=("relational",) if i % 3 else ("query-processing",),
                conversations=("ask-all", "subscribe") if i % 4 else ("ask-all",),
                constraints="age between 20 and 60" if i % 5 == 0 else "",
            )
        )
    return ads


def build_queries():
    """Query batch uniform over domains: most queries target a narrow
    tail domain (the Section 3.2 "reasoning over a narrower domain"
    case), a few hit the big one."""
    queries = []
    for i in range(N_QUERIES):
        domain = i % len(DOMAIN_WEIGHTS)
        ontology = "healthcare" if domain == 0 else f"domain{domain}"
        queries.append(
            BrokerQuery(
                ontology_name=ontology,
                classes=("patient",) if domain == 0 and i % 2 == 0 else (),
                capabilities=("select",) if i % 3 == 0 else (),
                conversations=("subscribe",) if i % 4 == 0 else (),
            )
        )
    return queries


def make_context():
    return MatchContext(ontologies={"healthcare": healthcare_ontology()})


def build_repo(ads, **kwargs):
    repo = BrokerRepository(make_context(), **kwargs)
    for ad in ads:
        repo.advertise(ad)
    return repo


def answerer(ads, kwargs):
    """The query function of one variant over *ads*."""
    if kwargs is None:
        context = make_context()
        return lambda query: match_advertisements(query, ads, context)
    return build_repo(ads, **kwargs).query


def run_batch(answer, queries, repeats=BATCH_REPEATS):
    """Total wall seconds for *repeats* passes over the query batch,
    plus the (variant-independent) ranked results of the final pass."""
    results = None
    started = time.perf_counter()
    for _ in range(repeats):
        results = [
            tuple(m.agent_name for m in answer(query)) for query in queries
        ]
    return time.perf_counter() - started, results


def test_micro_matchmaking(once):
    def run_all():
        queries = build_queries()
        table = {}
        for size in SIZES:
            ads = build_ads(size)
            reference = None
            for variant, kwargs in VARIANTS.items():
                wall, results = run_batch(answerer(ads, kwargs), queries)
                if reference is None:
                    reference = results
                else:
                    # Zero result-set differences, in ranked order.
                    assert results == reference, (
                        f"{variant} diverged from scan at {size} ads"
                    )
                table.setdefault(variant, {})[f"{size} ads"] = wall
        return table

    table = once(run_all)

    columns = [f"{size} ads" for size in SIZES]
    speedups = {
        column: table["scan"][column] / table["indexed+cache"][column]
        for column in columns
    }
    table["speedup (cache)"] = speedups
    print()
    print(format_table(
        f"Matchmaking hot path: {N_QUERIES}-query batch x{BATCH_REPEATS}, "
        "skewed domains",
        table, column_order=columns, row_label="variant",
        value_format="{:.4f}",
    ))

    path = os.path.join(os.path.dirname(__file__), "BENCH_match.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(
            {
                "quick": QUICK,
                "sizes": SIZES,
                "queries_per_batch": N_QUERIES,
                "batch_repeats": BATCH_REPEATS,
                "wall_seconds": {
                    variant: {
                        str(size): table[variant][f"{size} ads"]
                        for size in SIZES
                    }
                    for variant in VARIANTS
                },
                "speedup_cache_vs_scan": {
                    str(size): speedups[f"{size} ads"] for size in SIZES
                },
            },
            handle, indent=2, sort_keys=True,
        )
        handle.write("\n")

    # Timing assertions are skipped in quick mode: the CI smoke job
    # only guards result agreement and the artifact shape.
    if not QUICK:
        # The plane alone must already beat the scan at every tier...
        for column in columns:
            assert table["indexed"][column] < table["scan"][column]
        # ...and at the 5 000-ad tier the production configuration
        # clears the acceptance floor.
        top = f"{SIZES[-1]} ads"
        assert speedups[top] >= SPEEDUP_FLOOR, (
            f"indexed+cache only {speedups[top]:.1f}x faster at {top}"
        )


# ----------------------------------------------------------------------
# Columnar tier: constraint-rich workload at 50 000 ads
# ----------------------------------------------------------------------
#
# The skewed-domain workload above stresses posting-list pruning; this
# tier stresses the constraint columns: a community where every
# advertisement carries its own numeric data-range summary (the
# ZBroker-style per-source "price between lo and hi" advertisements) and
# queries ask narrow windows.  The scan pays the full Python matcher —
# including a per-ad constraint-overlap check — for every stored
# advertisement; the columnar plane ANDs posting bitsets and sweeps
# only the surviving ids through the interval arrays.
#
# Every advertise and unadvertise updates the plane, so the tier also
# times that upkeep: microseconds per advertise while the repository is
# ingested, and per unadvertise + re-advertise once it is full.

COLUMNAR_SIZE = 5_000 if QUICK else 50_000
COLUMNAR_QUERIES = 30
COLUMNAR_REPEATS = 2
#: Distinct market segments (class posting buckets).
SEGMENTS = 40
#: Acceptance floor for columnar vs scan, asserted in BOTH modes.
COLUMNAR_SPEEDUP_FLOOR = 15.0 if QUICK else 50.0
#: Advertisements taken off and put back to time plane upkeep.
CHURNED_ADS = 2_000

COLUMNAR_VARIANTS = {
    "scan": None,
    "columnar": dict(match_cache_size=0),
    "columnar+cache": {},
}


def build_columnar_ads(n):
    """n resource agents, each advertising one market segment and a
    distinct price range over a wide span."""
    ads = []
    span = n  # price axis grows with the community
    for i in range(n):
        lo = (i * 37) % span
        ads.append(
            make_ad(
                f"agent{i}",
                ontology="pricing",
                classes=(f"segment{i % SEGMENTS}",),
                functions=("relational",) if i % 3 else ("query-processing",),
                constraints=f"price between {lo} and {lo + 40}",
            )
        )
    return ads


def build_columnar_queries(n):
    """Narrow price windows over single segments: every query prunes
    hard on both the posting and the constraint dimension."""
    queries = []
    span = n
    for i in range(COLUMNAR_QUERIES):
        lo = (i * 911) % span
        queries.append(
            BrokerQuery(
                ontology_name="pricing",
                classes=(f"segment{i % SEGMENTS}",),
                constraints=parse_constraint(
                    f"price between {lo} and {lo + 25}"
                ),
            )
        )
    return queries


def time_upkeep(ads):
    """Microseconds per advertise while ingesting *ads* into a fresh
    default repository, and per unadvertise + re-advertise of
    ``CHURNED_ADS`` of them once it is full."""
    repo = BrokerRepository(make_context())
    started = time.perf_counter()
    for ad in ads:
        repo.advertise(ad)
    ingest = time.perf_counter() - started
    churned = ads[:: max(1, len(ads) // CHURNED_ADS)][:CHURNED_ADS]
    started = time.perf_counter()
    for ad in churned:
        repo.unadvertise(ad.agent_name)
        repo.advertise(ad)
    readvertise = time.perf_counter() - started
    return {
        "advertise": ingest / len(ads) * 1e6,
        "readvertise": readvertise / len(churned) * 1e6,
    }


def test_micro_matchmaking_columnar(once):
    def run_all():
        ads = build_columnar_ads(COLUMNAR_SIZE)
        queries = build_columnar_queries(COLUMNAR_SIZE)
        table = {}
        reference = None
        for variant, kwargs in COLUMNAR_VARIANTS.items():
            wall, results = run_batch(answerer(ads, kwargs), queries,
                                      repeats=COLUMNAR_REPEATS)
            if reference is None:
                reference = results
            else:
                assert results == reference, (
                    f"{variant} diverged from scan at {COLUMNAR_SIZE} ads"
                )
            table[variant] = {f"{COLUMNAR_SIZE} ads": wall}
        return table, time_upkeep(ads)

    table, upkeep = once(run_all)
    column = f"{COLUMNAR_SIZE} ads"
    speedup = table["scan"][column] / table["columnar"][column]
    table["speedup (columnar)"] = {column: speedup}
    print()
    print(format_table(
        f"Columnar matchmaking: {COLUMNAR_QUERIES}-query batch "
        f"x{COLUMNAR_REPEATS}, per-ad price ranges (plane upkeep: "
        f"{upkeep['advertise']:.1f} us/advertise, "
        f"{upkeep['readvertise']:.1f} us/unadvertise+advertise)",
        table, column_order=[column], row_label="variant",
        value_format="{:.4f}",
    ))

    # Merge into the artifact the skewed-domain tiers just wrote (this
    # test runs after test_micro_matchmaking in the same session;
    # standalone runs update the committed artifact in place).
    path = os.path.join(os.path.dirname(__file__), "BENCH_match.json")
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    data["columnar_size"] = COLUMNAR_SIZE
    data["columnar_queries_per_batch"] = COLUMNAR_QUERIES
    data["columnar_batch_repeats"] = COLUMNAR_REPEATS
    data["columnar_upkeep_us"] = {
        op: {str(COLUMNAR_SIZE): us} for op, us in upkeep.items()
    }
    data["columnar_wall_seconds"] = {
        variant: {str(COLUMNAR_SIZE): table[variant][column]}
        for variant in COLUMNAR_VARIANTS
    }
    data["speedup_columnar_vs_scan"] = {str(COLUMNAR_SIZE): speedup}
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=2, sort_keys=True)
        handle.write("\n")

    # Asserted in both modes: the quick 5 000-ad tier must clear 15x,
    # the full 50 000-ad tier 50x.
    assert speedup >= COLUMNAR_SPEEDUP_FLOOR, (
        f"columnar only {speedup:.1f}x faster than scan at {column} "
        f"(floor {COLUMNAR_SPEEDUP_FLOOR}x)"
    )
