#!/usr/bin/env python3
"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Run from the repository root. For every workload in BENCHMARK.json it
makes a tiny-budget smoke run with --trace 0 and --trace 1 and checks
the result line's schema: exactly the keys correct/attempted/failed/
metrics, zero failed runs, and every end-to-end (trace 0) or per-layer
(trace 1) metric present under its name with its unit. It then shows
that the result digest check fires on a deliberately mismatched pair
of results, and that a set engine-changing environment variable makes
the benchmark program refuse to run. Exits non-zero on the first failure.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402  (the build helper)


def fail(msg):
    print(f"selftest: FAIL: {msg}")
    sys.exit(1)


def check_result(line, expected, label):
    try:
        res = json.loads(line)
    except json.JSONDecodeError:
        fail(f"{label}: last line is not JSON: {line!r}")
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{label}: result keys {sorted(res)}")
    if res["correct"] is not True or res["failed"] != 0:
        fail(f"{label}: correct={res['correct']} failed={res['failed']}")
    if not isinstance(res["attempted"], int) or res["attempted"] < 1:
        fail(f"{label}: attempted={res['attempted']}")
    got = res["metrics"]
    if set(got) != set(expected):
        fail(f"{label}: missing {sorted(set(expected) - set(got))}, "
             f"unexpected {sorted(set(got) - set(expected))}")
    for name, unit in expected.items():
        m = got[name]
        if set(m) != {"value", "unit"} or m["unit"] != unit:
            fail(f"{label}: {name} is {m}, expected unit {unit}")
        if not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
            fail(f"{label}: {name} value {m['value']!r}")


def main():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        bench = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    for wl in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            label = f"{wl} --trace {trace}"
            out = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 wl, "--seed", "1", "--seconds", "1", "--trace", str(trace),
                 "--smoke"], capture_output=True, text=True, check=False)
            if out.returncode != 0:
                fail(f"{label}: exit {out.returncode}\n{out.stderr[-2000:]}")
            check_result(out.stdout.strip().splitlines()[-1],
                         expected[trace], label)
            print(f"selftest: {label}: schema ok")

    exe = os.path.join(run.build_dir(), "perfbench")
    out = subprocess.run([exe, "--digest-selftest"], capture_output=True,
                         text=True, check=False)
    print(out.stdout.strip())
    if out.returncode != 0 or "mismatched pair detected" not in out.stdout:
        fail("digest check did not fire on a mismatched pair")

    env = dict(os.environ, ATHENA_STEP_THREADS="1")
    out = subprocess.run([exe, "--workload", "mc4_athena_lowbw", "--seed",
                          "1", "--seconds", "1", "--trace", "0", "--smoke"],
                         capture_output=True, text=True, env=env, check=False)
    if out.returncode == 0 or out.stdout.strip():
        fail("perfbench ran with ATHENA_STEP_THREADS set")
    print(f"selftest: refused with ATHENA_STEP_THREADS set: "
          f"{out.stderr.strip()}")
    print("selftest: passed")


if __name__ == "__main__":
    main()
