"""ksw benchmark: seeded workloads, checked outputs, end-to-end and per-layer metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload ks_battery --seed 1 --seconds 30 --trace 0

Workloads and metrics are declared in BENCHMARK.json.  Each run starts
fresh single-threaded interpreters (perfbench/worker.py): several that only
set up, for ``setup_s``, and one that sets up and then measures.  With
``--trace 0`` the last line of output is a JSON object with the end-to-end
metrics; with ``--trace 1`` it carries the per-layer metrics of a traced run.
Every line before it is a human-readable rendering plus a ``# meta`` record
(Python version, nproc, git rev, source hash, seed, case count).  Results
and spans are also written under perfbench/out/.  Times are seconds at a
reference machine speed (see speed.py); raw seconds are printed beside them.

Exit codes: 0 when the run completed (``correct`` says whether every check
held), 1 when a worker failed, 2 when the checkout has no ksw sources.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: interpreters started per run to time set-up (the measuring one included)
SETUP_RUNS = 7

class WorkerFailed(Exception):
    pass


def spawn_worker(args, *extra: str) -> tuple[float, float, int, dict | None]:
    """Run one worker; return (raw and speed-corrected seconds to READY, case count, RESULT)."""
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--grid", args.grid,
        "--out", str(OUT),
        *extra,
    ]
    if args.negative_control:
        cmd.append("--negative-control")
    env = dict(os.environ, PYTHONHASHSEED="0", OMP_NUM_THREADS="1")
    ready = cases = result = ref = None
    start = perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT) as proc:
        for line in proc.stdout:
            if line.startswith("READY ") and ready is None:
                ready = perf_counter() - start
                cases = int(line.split()[1])
            elif line.startswith("REF "):
                ref = float(line.split()[1])
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
    if proc.returncode != 0 or ready is None:
        raise WorkerFailed("worker exited with code %d" % proc.returncode)
    if ref is None and result is not None:
        # a measuring worker times the loop first thing after set-up
        ref = result["refs"][0]
    if ref is None:
        raise WorkerFailed("worker timed no reference loop")
    # the loop timed inside the worker right after set-up: the machine's speed
    # as that process saw it, where a loop in this process could see another
    return ready, speed.corrected(ready, ref), cases, result


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile): the highest percentile with at least ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def git_rev() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def source_hash() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def end_to_end(result: dict, setup: list[tuple[float, float]]) -> tuple[dict, dict]:
    """Speed-corrected end-to-end metrics, plus the raw seconds and notes beside them.

    Case latencies come from the first ``latency_passes`` passes only, so
    their sample count (and so the tail percentile) does not depend on how
    many passes the machine's speed allowed.
    """
    latency = [s for s in result["samples"] if s[0] < result["latency_passes"]]
    tail_s, tail_pct = tail([s[3] for s in latency])
    failed = sum(1 for *_, ok in result["samples"] if not ok)
    values = {
        "wall_s": statistics.median(result["walls"]),
        "case_p50_s": statistics.median(s[3] for s in latency),
        "case_tail_s": tail_s,
        "setup_s": statistics.median(fixed for _, fixed in setup),
        "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
    }
    raw = {
        "wall_s": statistics.median(result["raw_walls"]),
        "case_p50_s": statistics.median(s[2] for s in latency),
        "case_tail_s": tail([s[2] for s in latency])[0],
        "setup_s": statistics.median(r for r, _ in setup),
        "reference_loop_s": statistics.median(result["refs"]),
    }
    notes = {
        "case_tail_s": "p%.1f of %d case samples (%d cases x %d passes)"
        % (tail_pct, len(latency), len(result["cases"]), result["latency_passes"]),
        "failed_ratio": "%d of %d" % (failed, len(result["samples"])),
    }
    values["failed_ratio"] = failed / len(result["samples"])
    return values, {"raw": raw, "notes": notes}


def per_layer(result: dict, names: list[str]) -> dict:
    """Traced-run metrics: span seconds at the reference speed, counts as counted."""
    layers = result["layers"]
    scale = speed.NOMINAL_S / statistics.median(result["traced_refs"])
    values = {
        "trace_overhead": statistics.median(result["traced_walls"]) / statistics.median(result["walls"]) - 1.0,
        "trace_coverage": result["top_level_s"] / sum(result["traced_raw_walls"]),
    }
    for name in names:
        if name not in values:
            # a span that never opened measured zero seconds (or zero work)
            value = layers.get(name, 0.0)
            values[name] = value * scale if name.endswith(".s") else value
    return values


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description="ksw benchmark")
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--grid", choices=("full", "tiny"), default="full",
                        help="tiny: a small case grid for the smoke check")
    parser.add_argument("--negative-control", action="store_true",
                        help="expect one wrong value, so the run must report a failure")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "ksw" / "__init__.py").is_file():
        print("run.py: no ksw sources under %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    try:
        setup = [spawn_worker(args, "--setup-only")[:2] for _ in range(SETUP_RUNS - 1)]
        ready, ready_fixed, cases, result = spawn_worker(args)
    except WorkerFailed as exc:
        print("run.py: %s" % exc, file=sys.stderr)
        return 1
    if result is None:
        print("run.py: worker printed no result", file=sys.stderr)
        return 1
    setup.append((ready, ready_fixed))

    e2e, extra = end_to_end(result, setup)
    if args.trace:
        specs_used = spec["per_layer"]
        values = per_layer(result, [m["name"] for m in specs_used])
    else:
        specs_used = spec["end_to_end"]
        values = e2e
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs_used}

    failed = sum(1 for *_, ok in result["samples"] if not ok)
    attempted = len(result["samples"])
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "grid": args.grid,
        "cases": cases,
        "passes": len(result["walls"]) + len(result.get("traced_walls", [])),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_rev": git_rev(),
        "src_sha256": source_hash(),
    }
    meta["reference_loop_s"] = extra["raw"]["reference_loop_s"]
    for name, m in metrics.items():
        raw = extra["raw"].get(name) if not args.trace else None
        print("%-40s %14.6g %s%s" % (name, m["value"], m["unit"], "" if raw is None else "  (raw %.6g s)" % raw))
    if not args.trace:
        print("%-40s %14.6g %s  (%s)" % ("failed_ratio", e2e["failed_ratio"], "ratio", extra["notes"]["failed_ratio"]))
        print("%-40s %s" % ("case_tail_s is", extra["notes"]["case_tail_s"]))
    print("times are seconds at the reference speed (reference loop %.4g s here, %.4g s nominal)"
          % (extra["raw"]["reference_loop_s"], speed.NOMINAL_S))
    for error in result["errors"]:
        print("FAILED " + error)
    print("# meta " + json.dumps(meta, sort_keys=True))
    per_case: dict[str, list[float]] = {}
    for _, index, _, fixed, _ in result["samples"]:
        per_case.setdefault(result["cases"][index], []).append(fixed)
    record = dict(meta, metrics=metrics, end_to_end=e2e, raw=extra["raw"], notes=extra["notes"],
                  errors=result["errors"], case_median_s={c: statistics.median(v) for c, v in per_case.items()},
                  spans_path=result.get("spans_path"))
    name = "result-%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)
    with open(OUT / name, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
