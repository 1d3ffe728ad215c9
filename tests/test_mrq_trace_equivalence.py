"""Message-trace equality of MRQ flows against recorded digests.

The MRQ agent runs every query through one executor; the resilience
config only selects the plan it executes (one fragment per recommended
resource, or equivalence sets with failover and hedging).  Each case
below records the canonical message trace of a whole community run and
compares its SHA-256 with a digest recorded before the query-every-match
fan-out became a plan of that executor, so any change to which messages
flow, when, or with which KQML extras shows up here.

To re-record after an intended flow change, run this module as a script
(``PYTHONPATH=src:. python tests/test_mrq_trace_equivalence.py``) and
paste its output over ``DIGESTS``.
"""

import pytest

from repro import obs as obs_mod
from repro.agents.mrq import MrqResilienceConfig
from repro.experiments.robustness import MRQ_CELLS, mrq_resilience_run
from repro.experiments.streams import STREAMS, build_experiment_community
from tests.message_trace import TraceObserver, trace_digest
from tests.test_mrq_resilience import traced_run

SEEDS = (0, 1, 2)
#: One stream per Table 1 resource group: A, VF, CH, FH.
STREAM_NAMES = ("4A", "VF", "CH", "FH")
RESILIENCE_CELLS = ("calm", "lossy", "harsh")
RESILIENCE = {
    "none": None,
    "failover": MrqResilienceConfig(),
    "hedge": MrqResilienceConfig(hedge=True),
}
QUERY_INTERVAL = 12.0
QUERIES = 5


def stream_trace(stream, n_brokers, seed):
    """*stream* (or every stream when None) on the experiment 5
    community, which holds all four resource groups."""
    tracer = TraceObserver()
    with obs_mod.installed(tracer):
        community = build_experiment_community(5, n_brokers=n_brokers,
                                               seed=seed)
        bus = community.bus
        names = community.streams if stream is None else (stream,)
        for offset, name in enumerate(names):
            for k in range(QUERIES):
                community.users[name].submit(
                    STREAMS[name].sql,
                    at=bus.now + offset + k * QUERY_INTERVAL)
        bus.run()
    return tracer.events


def resilience_trace(cell, protected, seed):
    _tag, loss, partition_s, churn = next(c for c in MRQ_CELLS if c[0] == cell)
    tracer = TraceObserver()
    row = mrq_resilience_run(loss=loss, partition_s=partition_s, churn=churn,
                             protected=protected, seed=seed, observer=tracer)
    assert row["dishonest"] == 0, row
    return tracer.events


def replicated_trace(resilience, seed):
    events, _now = traced_run(seed, RESILIENCE[resilience], loss=0.25)
    return events


def cases():
    """Case id -> zero-argument trace recorder."""
    table = {}
    for seed in SEEDS:
        for n_brokers in (1, 4):
            for stream in (*STREAM_NAMES, None):
                table[f"stream-{stream or 'all'}-b{n_brokers}-s{seed}"] = (
                    lambda s=stream, n=n_brokers, sd=seed:
                    stream_trace(s, n, sd))
        for cell in RESILIENCE_CELLS:
            for protected in (False, True):
                variant = "protected" if protected else "baseline"
                table[f"grid-{cell}-{variant}-s{seed}"] = (
                    lambda c=cell, p=protected, sd=seed:
                    resilience_trace(c, p, sd))
        for resilience in RESILIENCE:
            table[f"replicated-{resilience}-loss25-s{seed}"] = (
                lambda r=resilience, sd=seed: replicated_trace(r, sd))
    return table


CASES = cases()

DIGESTS = {
    'grid-calm-baseline-s0': '9498a717f32a2eec969db179f10bba5661220ef6536eab77c23d41ecf0f7a41f',
    'grid-calm-baseline-s1': '9498a717f32a2eec969db179f10bba5661220ef6536eab77c23d41ecf0f7a41f',
    'grid-calm-baseline-s2': '9498a717f32a2eec969db179f10bba5661220ef6536eab77c23d41ecf0f7a41f',
    'grid-calm-protected-s0': '7fd1297f7c0873556072fcc6fd450d9bbc0fa8f8e54839a190528e06590bb911',
    'grid-calm-protected-s1': '7fd1297f7c0873556072fcc6fd450d9bbc0fa8f8e54839a190528e06590bb911',
    'grid-calm-protected-s2': '7fd1297f7c0873556072fcc6fd450d9bbc0fa8f8e54839a190528e06590bb911',
    'grid-harsh-baseline-s0': 'eafaa2255358033e53117399295ce65554ae323fff79bcc4b892f7d0efb2c015',
    'grid-harsh-baseline-s1': 'df42705dbc11a6146d73d62b09e21358fdf3470b995dcc06f92e5a3eec3645ae',
    'grid-harsh-baseline-s2': '353d2c7525005cfab65976d50cb8aa5ec4d2e13086994c2c24157614e6b16ad4',
    'grid-harsh-protected-s0': '8bd288009ce2f133e1597c0826f249785d74063a900271340ec23506363b60de',
    'grid-harsh-protected-s1': '1bcf340669d1283dd060eed7cc01f090ab29a49ca03bc882c9461878707a006c',
    'grid-harsh-protected-s2': '272de8f808b31dc244f5e042043d3fc44dcf12de18643b54f5f46b36038f909c',
    'grid-lossy-baseline-s0': '73bbc8f375375bb840867edf6c35dc849034dd86c7f2a35e20cc287d65ab360d',
    'grid-lossy-baseline-s1': 'f2abbfccdf18f27095c6d72db29fcf747fb1f8dabc0178e355af6c5b10145892',
    'grid-lossy-baseline-s2': '314c067d65e0bb7ac783121bc42c52e332ec182f01477670988666cfeda91366',
    'grid-lossy-protected-s0': '210afa84fcca7a843e827eb111b12a3b874b9816425b8d74a50068c69bb0e679',
    'grid-lossy-protected-s1': 'cea78635bb873d0d4a51b6bb19c96c297341b8efd317b775643877af49931799',
    'grid-lossy-protected-s2': '51f3e51cee04661301bfb23523f3031599c31390c0896b01779463120fa1a82c',
    'replicated-failover-loss25-s0': 'b04d3fef779ea45d030d85b3186aaf784e292437cf6b6c7c66723352a4297da2',
    'replicated-failover-loss25-s1': '1a80a633165e7637e4b86a444b4c599c43227fbe9aeaae054fdd681b2df876de',
    'replicated-failover-loss25-s2': 'fb4b527fb466d3fe78b2c5a003c1e0e5393e82aa943184d62b46820cfc66433e',
    'replicated-hedge-loss25-s0': 'b04d3fef779ea45d030d85b3186aaf784e292437cf6b6c7c66723352a4297da2',
    'replicated-hedge-loss25-s1': '184b275949835a1f7f04f1586203ab0c830b78d8bbd11daca9415efe945a92fd',
    'replicated-hedge-loss25-s2': 'b1641b62d6d2a8222df398b5361b86ad07c7c463b3f19b17963b8c0bb3f9573e',
    'replicated-none-loss25-s0': '0d971c1cca687f5977442aef6d94a63ea9f4a1c156d050cd6f5e7a158dbcf20b',
    'replicated-none-loss25-s1': 'b42f73281c68ff7afd2b2f465fb39bfd4c19a211253c40cb69c96089c9f4e1ed',
    'replicated-none-loss25-s2': 'ef61ef270bd17f1362b885bd5f840014b9799499bfc14aabbc7757373bbcd3c7',
    'stream-4A-b1-s0': '5c6d18e797ec61930e39765e3a9883874ed8f62e604c5f9d99dbb17c1bf7a849',
    'stream-4A-b1-s1': '5c6d18e797ec61930e39765e3a9883874ed8f62e604c5f9d99dbb17c1bf7a849',
    'stream-4A-b1-s2': '5c6d18e797ec61930e39765e3a9883874ed8f62e604c5f9d99dbb17c1bf7a849',
    'stream-4A-b4-s0': '199d791f74f4f5654ce0199fc5624acc378447a743459675165af55efc8e2266',
    'stream-4A-b4-s1': 'f395c51a413896f0b1bfa3850ae658926a879bf3cf0d93ce51bf79e8badbdeea',
    'stream-4A-b4-s2': 'e10e1e08b002f222c64ca957d63328256d06a8c7152a6c5db3371f0b4c2ce387',
    'stream-CH-b1-s0': '160c5a6519573d4bec844d9f254fc0461b215f3816fba03260529726de17430b',
    'stream-CH-b1-s1': '160c5a6519573d4bec844d9f254fc0461b215f3816fba03260529726de17430b',
    'stream-CH-b1-s2': '160c5a6519573d4bec844d9f254fc0461b215f3816fba03260529726de17430b',
    'stream-CH-b4-s0': 'a75c37b4d514f44179ebfa72ec13ec2892f9e2c6d2b380c2c88d81d42f2a1de0',
    'stream-CH-b4-s1': '7588dbff6c6ca550e1c4a00e308901bd780d55b2d2fc4e790330c236d28b2698',
    'stream-CH-b4-s2': 'e320cabe7172452851bfaf23070c9cb9572db790217675f6e8c3dc9755708098',
    'stream-FH-b1-s0': '28243c77491516652be53531b1fefe28e4eb3bd5d59d4c9d4dcd439c0f514a29',
    'stream-FH-b1-s1': '28243c77491516652be53531b1fefe28e4eb3bd5d59d4c9d4dcd439c0f514a29',
    'stream-FH-b1-s2': '28243c77491516652be53531b1fefe28e4eb3bd5d59d4c9d4dcd439c0f514a29',
    'stream-FH-b4-s0': 'fc1f0f2862dd7e9dbcd7482dc2c4e9f53b3f81cb4675dbaa02971a604e67971f',
    'stream-FH-b4-s1': '67c81baae1ecc2f7d995e4803ccd3c365d1d146007d1248a1a76b418102733f4',
    'stream-FH-b4-s2': '7d051d5c79e45205aae60e1dbfc3fd98963f7d4309d14601ae31e9aaf60a36ca',
    'stream-VF-b1-s0': '733b012b8d669a945f308e725b72383e4a5080af9be277c3a9c6c38ec2ad580d',
    'stream-VF-b1-s1': '733b012b8d669a945f308e725b72383e4a5080af9be277c3a9c6c38ec2ad580d',
    'stream-VF-b1-s2': '733b012b8d669a945f308e725b72383e4a5080af9be277c3a9c6c38ec2ad580d',
    'stream-VF-b4-s0': '02e1a79d0bb651ffb095aa747c9e37140d1de3ddace6f616d38595ee312e0634',
    'stream-VF-b4-s1': 'b09d30d5f5096c2b0092598cbd633ce1f089a9491a5ed4ce5478c567fbae6cf7',
    'stream-VF-b4-s2': 'fab7443c89a87194da1d122edff268d2c5350925218248e04d2341a8d21f8aab',
    'stream-all-b1-s0': 'a86448b8f5ed7e9b1cab3eb462bcbd3ba92b321154abc1b3eeda47fdb7df28f1',
    'stream-all-b1-s1': 'a86448b8f5ed7e9b1cab3eb462bcbd3ba92b321154abc1b3eeda47fdb7df28f1',
    'stream-all-b1-s2': 'a86448b8f5ed7e9b1cab3eb462bcbd3ba92b321154abc1b3eeda47fdb7df28f1',
    'stream-all-b4-s0': 'ec7506e8d550a01bbad89a9d069523f6f9680a7c22ade9b74a7c197110f144aa',
    'stream-all-b4-s1': '27248875f78b4f90f9d97f7846c24091ed64c996cf6b0c82aa5180dbf9ef677f',
    'stream-all-b4-s2': 'd4ea8485922cf8dc867e8eaa07ed2804e5006cbf4bcc99da1490ed82edca698e',
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_trace_matches_recorded_digest(case):
    assert trace_digest(CASES[case]()) == DIGESTS[case]


def test_every_case_has_a_digest():
    assert set(DIGESTS) == set(CASES)


if __name__ == "__main__":
    for case in sorted(CASES):
        print(f"    {case!r}: {trace_digest(CASES[case]())!r},")
