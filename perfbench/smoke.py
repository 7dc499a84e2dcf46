"""Smoke check for the benchmark at a tiny grid (about a minute).

For every workload it runs perfbench/run.py with ``--grid tiny``, untraced
and traced, and requires exit 0, ``correct: true``, no failed case, and
every metric BENCHMARK.json names printed with its unit.  A negative
control then expects one wrong value on each workload and requires the
run to report the failure (``correct: false``, ``failed`` > 0), which
shows the checks can fail.

    python3 perfbench/smoke.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SECONDS = "3"


def run(workload: str, trace: int, *extra: str) -> tuple[dict, str]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
           "--seconds", SECONDS, "--trace", str(trace), "--grid", "tiny", *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit("smoke: %s exited %d\n%s" % (" ".join(cmd), proc.returncode, proc.stderr))
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), "\n".join(lines[:-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result, text = run(workload, trace)
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append("%s trace %d: result keys %s" % (workload, trace, sorted(result)))
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append("%s trace %d: not correct: %s" % (workload, trace, text))
            for m in spec[key]:
                got = result["metrics"].get(m["name"])
                if got is None or got["unit"] != m["unit"] or not isinstance(got["value"], (int, float)):
                    problems.append("%s trace %d: metric %s missing or wrong unit" % (workload, trace, m["name"]))
                elif not any(line.split()[:1] == [m["name"]] and line.split()[2:3] == [m["unit"]]
                             for line in text.splitlines()):
                    problems.append("%s trace %d: %s not printed with its unit" % (workload, trace, m["name"]))
            if trace == 0 and "failed_ratio" not in text:
                problems.append("%s: failed_ratio not printed" % workload)
        negative, _ = run(workload, 0, "--negative-control")
        if negative["correct"] or negative["failed"] < 1:
            problems.append("%s: negative control reported no failure" % workload)
        print("smoke: %s ok (negative control: %d of %d failed)"
              % (workload, negative["failed"], negative["attempted"]), flush=True)
    for p in problems:
        print("smoke: " + p)
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
