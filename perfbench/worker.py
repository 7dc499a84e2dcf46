"""One benchmark client: a fresh single-threaded interpreter for one workload.

It imports ksw from the checkout's ``src``, makes the seeded inputs, prints
``READY`` (the parent times set-up up to that line), then runs closed-loop
passes over every case and prints one ``RESULT`` JSON line.  With
``--setup-only`` it prints ``REF`` (the reference loop's time, timed
right after set-up) and stops.

A traced run makes untraced passes for half the time and traced passes
for the other half, so it can report tracing overhead; its spans are
written to ``--out`` when the run ends.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

import speed

ROOT = Path(__file__).resolve().parent.parent

#: reference loops a set-up-only worker times after READY
SETUP_REFS = 5


def import_ksw() -> None:
    """Import ksw from this checkout's src only; exit 3 if that fails."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import ksw
    except ImportError as exc:
        print("worker: cannot import ksw from %s: %s" % (src, exc), file=sys.stderr)
        raise SystemExit(3)
    if not Path(ksw.__file__).resolve().is_relative_to(src.resolve()):
        print("worker: ksw resolved outside %s: %s" % (src, ksw.__file__), file=sys.stderr)
        raise SystemExit(3)


def run_passes(cases, tracer, budget: float, min_passes: int, order: random.Random) -> dict:
    """Closed loop: pass after pass until the next one would overrun ``budget``.

    Each pass visits the cases in a fresh seeded order, so the samples of
    every case group are spread over the run instead of meeting one phase
    of the machine's speed.  Each sample is (pass, case index, raw s,
    speed-corrected s, ok).  Traced passes take no speed samples inside a
    case, which would land inside its spans.
    """
    walls, raw_walls, samples, errors = [], [], [], []
    meter = speed.Meter()
    start = perf_counter()
    while True:
        indices = list(range(len(cases)))
        order.shuffle(indices)
        pass_start = perf_counter()
        wall = raw_wall = 0.0
        for index in indices:
            case = cases[index]
            tracer.case = case.id
            outcome = []

            def attempt():
                try:
                    case.run(case, tracer)
                    outcome.append(True)
                except Exception as exc:  # a failing case is counted and the run goes on
                    outcome.append(False)
                    if len(errors) < 5:
                        errors.append("%s: %s" % (case.id, "".join(traceback.format_exception_only(exc)).strip()))

            seconds, fixed = meter.time(attempt, inside=not tracer.enabled)
            samples.append((len(walls), index, seconds, fixed, outcome[0]))
            wall += fixed
            raw_wall += seconds
        walls.append(wall)
        raw_walls.append(raw_wall)
        elapsed = perf_counter() - start
        if len(walls) >= min_passes and elapsed + (perf_counter() - pass_start) > budget:
            return {"walls": walls, "raw_walls": raw_walls, "samples": samples, "errors": errors,
                    "refs": meter.loop_times}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--grid", choices=("full", "tiny"), default="full")
    parser.add_argument("--negative-control", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--out", required=True, help="directory for fixtures and spans")
    args = parser.parse_args(argv)

    import_ksw()
    import workloads
    from tracing import Tracer

    fixture_dir = tempfile.mkdtemp(prefix="fixtures-", dir=args.out)
    try:
        cases = workloads.make_cases(args.workload, args.seed, args.grid, fixture_dir, args.negative_control)
        print("READY %d" % len(cases), flush=True)
        if args.setup_only:
            # the machine's speed as this process sees it, right after set-up
            print("REF %r" % statistics.median(speed.reference_seconds() for _ in range(SETUP_REFS)), flush=True)
            return 0
        tracer = Tracer()
        order = random.Random("order:%s:%d" % (args.workload, args.seed))
        min_passes = workloads.MIN_PASSES[args.workload]
        if args.trace:
            half = args.seconds / 2
            result = run_passes(cases, tracer, half, 1, order)
            tracer.install()
            try:
                traced = run_passes(cases, tracer, half, 1, order)
            finally:
                tracer.uninstall()
            spans_path = os.path.join(args.out, "spans-%s-seed%d.jsonl" % (args.workload, args.seed))
            tracer.write(spans_path)
            result.update(
                traced_walls=traced["walls"],
                traced_raw_walls=traced["raw_walls"],
                traced_refs=traced["refs"],
                top_level_s=tracer.top_level_seconds(),
                layers=tracer.layer_metrics(),
                spans_path=spans_path,
            )
            result["samples"] += traced["samples"]
            result["errors"] += traced["errors"]
        else:
            result = run_passes(cases, tracer, args.seconds, min_passes, order)
        result.update(
            cases=[c.id for c in cases],
            latency_passes=min_passes,
            peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        )
        print("RESULT " + json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(fixture_dir, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
