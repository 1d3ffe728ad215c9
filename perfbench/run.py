"""Host-time benchmark for the broker community.

Usage (from the repository root)::

    python3 perfbench/run.py --workload catalog --seed 0 --seconds 8 --trace 0

Workloads: ``flashcrowd``, ``catalog``, ``catalog-churn``, ``mrq`` (see
``perfbench/NOTES.md``).  Everything runs in this one process, single-
threaded.  One run:

1. a *checked* repetition: set-up, then the measured phase with
   per-performative delivery counters and reply capture installed.  It
   yields the correctness verdict, the failure accounting, the exact
   counters, the virtual-time metrics and the simulated-behaviour
   digest;
2. *timed* repetitions, each a fresh set-up plus measured phase, until
   the measured phases add up to ``--seconds`` (at least four).  Each
   must replay the checked repetition exactly;
3. extra set-ups until there are enough set-up samples.

Each phase is a fixed list of steps (virtual-time slices) timed one by
one; a phase's host time is :func:`least_total` over its repetitions.

With ``--trace 0`` the last stdout line reports the end-to-end metrics.
With ``--trace 1`` the timed repetitions alternate untraced and traced
(see ``perfbench/layers.py``), and the last line reports the per-layer
split of the traced ones.  The full report, including the digest and
the spans by stack path, is written to ``perfbench/out/``.  The exit
code is non-zero when any correctness check fails.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

from calibrate import REFERENCE_SLICE_S, Calibration

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

MIN_TIMED_REPS = 4
#: Set-up samples: at least this many, and at least this much set-up
#: time in total (cheap set-ups get more samples), at most the cap.
MIN_SETUP_SAMPLES = 4
MIN_SETUP_SECONDS = 1.0
MAX_SETUP_SAMPLES = 40


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _sha256(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def least_total(samples):
    """Each sample is a list of per-step times for the same steps
    (repetitions replay each other exactly); the total is the sum over
    steps of the step's least time.  Interference from other processes
    only ever adds time, so a slowdown that hits one repetition's step
    does not move the figure."""
    return sum(min(step) for step in zip(*samples))


def phase_time(samples) -> float:
    """A phase's host time over repetitions, at the calibration's
    reference speed: the least total of the program's steps, scaled by
    the reference time of the calibration slices run after those steps
    over the slices' own least total."""
    steps = least_total([sample["step_s"] for sample in samples])
    slices = least_total([sample["cal_s"] for sample in samples])
    return steps * len(samples[0]["cal_s"]) * REFERENCE_SLICE_S / slices


class Runner:
    def __init__(self, workloads, layers, name: str, seed: int, seconds: float):
        self.workloads = workloads
        self.layers = layers
        self.calibration = Calibration()
        self.cls = workloads.WORKLOADS[name]
        self.seed = seed
        self.seconds = seconds
        self.setup_samples = []  # one _steps() result per set-up
        self.violations = []
        self.replay = None
        self.check = {"attempted": 0, "answered": 0}

    # -- one repetition ---------------------------------------------------
    def _steps(self, steps):
        """Run and time *steps*, with one calibration slice after each."""
        times, slices = [], []
        for step in steps:
            start = time.perf_counter()
            step()
            times.append(time.perf_counter() - start)
            slices.append(self.calibration.slice())
        return {"step_s": times, "cal_s": slices}

    def _setup(self):
        gc.collect()
        workload = self.cls(self.seed)
        self.setup_samples.append(self._steps(workload.setup_steps()))
        workload.after_setup()
        return workload

    def checked(self):
        """The checked repetition: correctness, counts and digest."""
        workload = self._setup()
        workload.record_replies()
        delivered, uninstall = self.workloads.count_deliveries()
        try:
            for step in workload.measure_steps():
                step()
        finally:
            uninstall()
        outcome = workload.outcome()
        counters = workload.counters()
        self.violations.extend(outcome["violations"])
        if sum(delivered.values()) != counters["bus"]["messages_delivered"]:
            self.violations.append("per-performative deliveries do not add "
                                   "up to BusStats.messages_delivered")
        self.replay = workload.replay_key()
        workload.close()
        attempted = outcome["attempted"]
        p95 = self.workloads.percentile(outcome["response_times"], 0.95)
        digest = {
            "workload": self.cls.name,
            "seed": self.seed,
            "sizes": workload.sizes(),
            "delivered_by_performative": dict(sorted(delivered.items())),
            "counters": counters,
            "queries_attempted": attempted,
            "queries_answered": outcome["answered"],
            "answered_but_flagged_partial":
                outcome["answered_but_flagged_partial"],
            "failures": outcome["failures"],
            "virtual_p95_s": p95,
            "matched_sha256": _sha256(outcome["matched"]),
        }
        self.check = {
            "attempted": attempted,
            "answered": outcome["answered"],
            "answered_fraction": outcome["answered"] / attempted,
            "virtual_p95_s": p95,
            "digest": digest,
            "digest_sha256": _sha256(digest),
        }
        del workload

    def timed(self, tracer=None):
        """One timed repetition; returns its measured-phase figures."""
        workload = self._setup()
        if tracer is not None:
            tracer.install(workload.observer)
        try:
            figures = self._steps(workload.measure_steps())
        finally:
            if tracer is not None:
                tracer.uninstall()
        workload.close()
        if workload.replay_key() != self.replay:
            self.violations.append("a repetition did not replay the checked "
                                   "repetition exactly")
        figures.update(
            wall_s=sum(figures["step_s"]),
            messages=workload.messages(),
            answered=workload.answered_in_phase(),
            queries=workload.queries_in_phase(),
            counters=workload.counters(),
        )
        del workload
        return figures

    def extra_setups(self):
        while len(self.setup_samples) < MAX_SETUP_SAMPLES and (
                len(self.setup_samples) < MIN_SETUP_SAMPLES
                or sum(sum(sample["step_s"]) for sample in self.setup_samples)
                < MIN_SETUP_SECONDS):
            self._setup().close()

    # -- the two kinds of run -----------------------------------------------
    def end_to_end(self):
        reps = []
        while (len(reps) < MIN_TIMED_REPS
               or sum(rep["wall_s"] for rep in reps) < self.seconds):
            reps.append(self.timed())
        self.extra_setups()
        measured = phase_time(reps)
        metrics = {
            "setup_s": phase_time(self.setup_samples),
            "host_us_per_msg": measured / reps[0]["messages"] * 1e6,
            "queries_per_s": reps[0]["answered"] / measured,
            "peak_rss_mb": peak_rss_mb(),
            "answered_fraction": self.check["answered_fraction"],
            "virtual_p95_s": self.check["virtual_p95_s"],
        }
        details = {
            "timed_reps": [{key: rep[key] for key in
                            ("wall_s", "step_s", "cal_s", "messages",
                             "answered", "queries")}
                           for rep in reps],
            "setup_samples_s": [sum(sample["step_s"])
                                for sample in self.setup_samples],
            "uncalibrated": {
                "setup_s": least_total([sample["step_s"] for sample
                                        in self.setup_samples]),
                "measured_s": least_total([rep["step_s"] for rep in reps]),
            },
        }
        return metrics, details

    def per_layer(self):
        tracer = self.layers.Tracer()
        plain, traced = [], []
        while not traced or sum(rep["wall_s"] for rep in traced) < self.seconds:
            plain.append(self.timed())
            traced.append(self.timed(tracer))
        # Per-layer times are sums over the traced repetitions, scaled to
        # the reference speed by those repetitions' calibration slices.
        slices = [s for rep in traced for s in rep["cal_s"]]
        metrics = self.layers.per_layer_metrics(
            tracer, traced,
            overhead_ratio=phase_time(traced) / phase_time(plain),
            scale=len(slices) * REFERENCE_SLICE_S / sum(slices))
        details = {
            "traced_reps": [{key: rep[key] for key in
                             ("wall_s", "messages", "answered", "queries")}
                            for rep in traced],
            "untraced_walls_s": [rep["wall_s"] for rep in plain],
            "layer_self_s": tracer.layer_self(),
            "spans": tracer.spans(),
            "collapsed_stacks": tracer.profiler.collapsed().splitlines(),
        }
        return metrics, details


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    args = _parse(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: the program's sources are not at {src}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import layers
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    # Metric names, their order and units are those BENCHMARK.json declares.
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[
        "per_layer" if args.trace else "end_to_end"]
    runner = Runner(workloads, layers, args.workload, args.seed, args.seconds)
    try:
        runner.checked()
        if args.trace:
            values, details = runner.per_layer()
        else:
            values, details = runner.end_to_end()
        metrics = {metric["name"]: (float(values[metric["name"]]),
                                    metric["unit"]) for metric in declared}
    except AssertionError as exc:  # a workload's set-up check failed
        runner.violations.append(f"set-up: {exc}")
        metrics, details = {}, {}
    correct = not runner.violations

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": correct,
        "violations": runner.violations[:50],
        "check": runner.check,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
        **details,
    }
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")

    check = runner.check
    print(f"workload {args.workload} seed {args.seed}: "
          f"{check['answered']}/{check['attempted']} queries answered "
          f"correctly and completely")
    if "digest" in check:
        digest = check["digest"]
        print(f"  failures by reason: {digest['failures']}")
        print(f"  delivered by performative: "
              f"{digest['delivered_by_performative']}")
        print(f"  simulated-behaviour digest: {check['digest_sha256']}")
    for violation in runner.violations[:10]:
        print(f"  VIOLATION: {violation}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<36} {value:>14.6g} {unit}")
    print(f"  full report: {out.relative_to(ROOT)}")
    attempted = check["attempted"]
    print(json.dumps({
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": max(attempted, 1) - check["answered"],
        "metrics": report["metrics"],
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
