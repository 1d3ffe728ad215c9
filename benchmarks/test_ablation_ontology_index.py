"""Ablation — the columnar plane and the match cache.

The seed repository scanned every advertisement, with an ontology index
as its one optimisation ("optimized reasoning over a narrower domain",
Section 3.2).  Today every repository keeps a columnar plane — posting
bitsets over every dimension, ontology included — current on each
write, with a fingerprint-keyed match cache on top.  This ablation
isolates each step on a 600-advertisement, 8-domain repository:

* ``full scan``      — :func:`~repro.core.matcher.match_advertisements`
  over every advertisement;
* ``columnar``       — the default repository, match cache off;
* ``columnar + cache`` — the production default.

Match results are identical across all variants; only the work changes.
"""

import time

from repro.core import BrokerQuery, BrokerRepository, MatchContext
from repro.core.matcher import match_advertisements
from repro.experiments import format_table
from tests.test_core_matcher import make_ad

N_ADS = 600
N_DOMAINS = 8
N_QUERIES = 100

#: Variant -> repository kwargs; ``None`` is the scan.
VARIANTS = {
    "full scan": None,
    "columnar": dict(match_cache_size=0),
    "columnar + cache": {},
}


def build_ads():
    return [
        make_ad(
            f"agent{i}",
            ontology=f"domain{i % N_DOMAINS}",
            classes=(),
            # (i // N_DOMAINS) decorrelates the conversation split
            # from the domain assignment: half of *every* domain.
            conversations=(
                ("ask-all", "subscribe")
                if (i // N_DOMAINS) % 2
                else ("ask-all",)
            ),
        )
        for i in range(N_ADS)
    ]


def build(kwargs):
    """The query function of one variant."""
    ads = build_ads()
    context = MatchContext()
    if kwargs is None:
        return lambda query: match_advertisements(query, ads, context)
    repo = BrokerRepository(context, **kwargs)
    for ad in ads:
        repo.advertise(ad)
    return repo.query


def run_queries(answer) -> float:
    started = time.perf_counter()
    for i in range(N_QUERIES):
        # Half the queries constrain a non-ontology dimension too.
        query = BrokerQuery(
            ontology_name=f"domain{i % N_DOMAINS}",
            conversations=("subscribe",) if i % 2 else (),
        )
        matches = answer(query)
        per_domain = N_ADS // N_DOMAINS
        expected = per_domain // 2 if i % 2 else per_domain
        assert len(matches) == expected
    return time.perf_counter() - started


def test_ablation_index_dimensions(once):
    def run_all():
        return {
            name: {"wall (s)": run_queries(build(kwargs))}
            for name, kwargs in VARIANTS.items()
        }

    rows = once(run_all)
    scan = rows["full scan"]["wall (s)"]
    for name in list(VARIANTS)[1:]:
        rows[f"speedup: {name}"] = {"wall (s)": scan / rows[name]["wall (s)"]}
    print()
    print(format_table(
        f"Ablation: columnar plane and cache, {N_ADS} ads / {N_DOMAINS} "
        f"domains / {N_QUERIES} queries",
        rows, column_order=["wall (s)"], row_label="variant",
        value_format="{:.4f}",
    ))

    # Identical answers were asserted inside run_queries.  Each added
    # layer must beat the one below it on a many-domain repository.
    assert rows["columnar"]["wall (s)"] < rows["full scan"]["wall (s)"]
    assert rows["columnar + cache"]["wall (s)"] < rows["columnar"]["wall (s)"]
