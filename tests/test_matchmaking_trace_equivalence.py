"""Message-trace equality of whole communities against recorded digests.

Every broker answers recommends through one fast matchmaking path, the
columnar plane, kept current on each advertise and unadvertise.  The
digests below were recorded while brokers still pruned with per-dimension
candidate indexes.  Equal digests mean the repository change is
invisible on the wire: the same messages flow between the same agents at
the same virtual instants with the same KQML extras.

Cases, each for seeds 0-2:

* the four ``repro load`` workload shapes at a short duration;
* one :class:`~repro.sim.simulator.Simulation` config behind Tables 5-6
  and one behind each of Figures 14-17;
* one community whose brokers keep their repository in SQLite
  (``broker_store=":memory:"``).

To re-record after an intended flow change, run this module as a script
(``PYTHONPATH=src:. python tests/test_matchmaking_trace_equivalence.py``)
and paste its output over ``DIGESTS``.
"""

from dataclasses import replace

import pytest

from repro.experiments.figures import FIGURE17_RESOURCES_PER_BROKER, _base_config
from repro.experiments.robustness import FAILURE_MEANS, robustness_config
from repro.experiments.workload import WORKLOAD_SHAPES, workload_config
from repro.sim.config import BrokerStrategy, SimConfig
from repro.sim.simulator import Simulation
from tests.message_trace import TraceObserver, trace_digest

SEEDS = (0, 1, 2)
LOAD_DURATION = 900.0
SIM_DURATION = 1_800.0


def simulation_trace(config):
    tracer = TraceObserver()
    Simulation(config, observer=tracer).run()
    return tracer.events


def paper_configs(seed):
    """Case name -> SimConfig for the paper's simulation experiments."""
    base = replace(_base_config(SIM_DURATION), seed=seed)
    fig17_resources = 50
    return {
        # Tables 5 and 6 read two metrics off the same runs.
        "table5-6": robustness_config(FAILURE_MEANS[-1], 2,
                                      duration=SIM_DURATION, seed=seed),
        "fig14": replace(base, strategy=BrokerStrategy.SINGLE,
                         mean_query_interval=10.0),
        "fig15": replace(base, strategy=BrokerStrategy.REPLICATED,
                         mean_query_interval=15.0),
        "fig16": replace(base, n_brokers=5,
                         strategy=BrokerStrategy.SPECIALIZED,
                         mean_query_interval=15.0),
        "fig17": SimConfig(
            n_brokers=fig17_resources // FIGURE17_RESOURCES_PER_BROKER,
            n_resources=fig17_resources,
            strategy=BrokerStrategy.SPECIALIZED,
            advertisement_size_mb=1.0,
            mean_query_interval=40.0,
            duration=SIM_DURATION,
            warmup=600.0,
            seed=seed,
        ),
    }


def cases():
    """Case id -> SimConfig."""
    table = {}
    for seed in SEEDS:
        for shape in WORKLOAD_SHAPES:
            table[f"load-{shape}-s{seed}"] = workload_config(
                shape, duration=LOAD_DURATION, seed=seed)
        for name, config in paper_configs(seed).items():
            table[f"{name}-s{seed}"] = config
        table[f"sqlite-store-s{seed}"] = workload_config(
            "churn", duration=LOAD_DURATION, seed=seed, broker_store=":memory:")
    return table


CASES = cases()

DIGESTS = {
    'fig14-s0': '50154b8a5d2afcd7dbdc2bad6aa5988f7743187667e7cd70a3126f663081b4ef',
    'fig14-s1': '8b8eea4544a94941522ce22fac64d4b85e4cb4aba1b945d54f3bfdc615ff1fd4',
    'fig14-s2': 'afbdfe29b2731e1827c4bc7a3ed4d9780ba75f30cb54473f49903ae6f16f067c',
    'fig15-s0': '75e4536d6f3b1643e3ef7463a88268ac337bd607e22d8a5dd7f2e48f3ebf88e7',
    'fig15-s1': '00b74ca507f1facd779ca2431b332180a34100058bfaa252913ed9d5298b5146',
    'fig15-s2': '77324f88a8926cbab78ccdd8b1e33df0f435be616fc60477b6a22c4fffca116e',
    'fig16-s0': 'db9c601636e2b3749a143ba41cee0df39e5268a14b180f80adf55a7b4892170c',
    'fig16-s1': 'd5e8046352c4c1749a00f7c52426e45c024ed97453cd9aa94548e4a9ac5981d2',
    'fig16-s2': '86b77071034834b91e10f85d1172e7b3ebfe4160594d41d272ccd26509fe464e',
    'fig17-s0': '0a8364117a88a4cbf9c9b262a74e0cff492eeffd76c1f0b917d3526eeba2ca3c',
    'fig17-s1': '8f791d56c2eab23984893abdca5043325ddc8b1f8ebe553dc0e684450974a203',
    'fig17-s2': 'a331b8e56a7c42712b20e02b2e07ff30791f819b9198854ff67400a994fe8fc5',
    'load-bursty-s0': '32890eea2efb6c641854d0199d1b1fa497e81d240351f86e6b2b9514c2845c33',
    'load-bursty-s1': '5fd4a8fd1b66be97eb3a24d6da9305d56e9b98423d7b259a97a30d1eb96cf9f2',
    'load-bursty-s2': '86fb66d1174637532075def3257ceedc970beb0740235513510c018c3adef3bd',
    'load-churn-s0': '6b6493e3198afe604d3a1596e8434f153604fd80548fbb536ccef111d3bfed41',
    'load-churn-s1': '135d40b4408d9aee145e9fa85f846d94b6681fc778a6f6129c26a887e089a037',
    'load-churn-s2': '66d416bfdd67340e331f41125438342f23319debb4e32ffd8dfcc01b3fc19dc1',
    'load-flashcrowd-s0': '54f3ba673f13c030699320c09e1afc87c026abb019205373f91af2b14d3fd869',
    'load-flashcrowd-s1': 'f786251bf59520c0ff3448e6451955d4ea9386b74394094a247595b4c24f40b0',
    'load-flashcrowd-s2': 'efeaab1e00d0eedc31d6eaf931acc224d6c726f1fb8e5d7d4bdcae7b0373fc3a',
    'load-steady-s0': 'b5cef0b60dd59d4d63cc9340d650f055d54b644147d97a849bdc3fb084307e0b',
    'load-steady-s1': '2df96000f060974171182b3de742cad94b5a8e4c89c311b3034f8c0af18af10d',
    'load-steady-s2': '256cd247efad1988c8322ef72c0106e5254e80ec3b22160d4a07b539efa27871',
    'sqlite-store-s0': '6b6493e3198afe604d3a1596e8434f153604fd80548fbb536ccef111d3bfed41',
    'sqlite-store-s1': '135d40b4408d9aee145e9fa85f846d94b6681fc778a6f6129c26a887e089a037',
    'sqlite-store-s2': '66d416bfdd67340e331f41125438342f23319debb4e32ffd8dfcc01b3fc19dc1',
    'table5-6-s0': '7b7f627eb3f69984267534a9bbbac8a1d04c9902dfbe6f513cdae3bc4b169c35',
    'table5-6-s1': '155dfaf1a18628b2f8094c25bda32b0d9b536f3230a218c9f779de33396c370b',
    'table5-6-s2': '3bd68069ade72dd7b19cbf0dfdfadc0a5b970468d4165b4f558b5e8e8156136e',
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_trace_matches_recorded_digest(case):
    assert trace_digest(simulation_trace(CASES[case])) == DIGESTS[case]


def test_every_case_has_a_digest():
    assert set(DIGESTS) == set(CASES)


if __name__ == "__main__":
    for case in sorted(CASES):
        print(f"    {case!r}: {trace_digest(simulation_trace(CASES[case]))!r},")
