"""Does the program's step before a calibration slice move the slice?

Every host figure is a step time scaled by the reference time of the
calibration slice run after the step over that slice's own time.  If a
step with a larger memory footprint made the following slice slower, a
change to the program's footprint would move the divisor too.  This
script runs the calibration after steps that build and walk working
sets of different sizes, in a seeded random order in each round, and
prints, per step size, the median over rounds of the slice's time over
that of the round's ``ctrl-a`` slice (a step that does nothing).
``ctrl-b`` is a second do-nothing step and shows the noise floor.  A
ratio r moves every scaled figure by a factor 1/r.

Run from the repository root (about a minute; at most ~100 MB)::

    python3 perfbench/check_calibration.py [--rounds 120] [--live-mb 0]

``--live-mb`` keeps that much extra heap alive throughout, as a large
community would.
"""

from __future__ import annotations

import argparse
import random
import statistics

from calibrate import Calibration

#: Step name -> MB of small dicts the step builds, walks and frees.
STEPS = {"ctrl-a": 0, "ctrl-b": 0, "walk4mb": 4, "walk16mb": 16,
         "walk64mb": 64}
#: Rough bytes per dict built by a step.
_DICT_BYTES = 300


def _walk(mb: int) -> None:
    data = [{"k": i, "v": (i, i + 1)} for i in range(mb * 10**6 // _DICT_BYTES)]
    total = 0
    for item in data:
        total += item["k"]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--rounds", type=int, default=120)
    parser.add_argument("--live-mb", type=int, default=0)
    args = parser.parse_args()
    live = [{"k": i} for i in range(args.live_mb * 10**6 // _DICT_BYTES)]
    calibration = Calibration()
    rng = random.Random(1)
    ratios = {name: [] for name in STEPS}
    for _ in range(args.rounds):
        order = list(STEPS)
        rng.shuffle(order)
        times = {}
        for name in order:
            _walk(STEPS[name])
            times[name] = calibration.slice()
        for name in STEPS:
            ratios[name].append(times[name] / times["ctrl-a"])
    print(f"{args.rounds} rounds, {len(live)} live dicts")
    for name in STEPS:
        ratio = statistics.median(ratios[name])
        print(f"  {name:<9} slice / ctrl-a slice {ratio:.3f}  "
              f"scaled figures move by {1 / ratio - 1:+.1%}")


if __name__ == "__main__":
    main()
