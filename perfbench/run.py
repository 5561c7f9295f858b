#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The simulator library (src/) and the
benchmark program (perfbench/*.cc) are built with CMake into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); the
program's output is passed through unchanged, so the last stdout line is
the result JSON. Build output goes to stderr. Exits non-zero, printing
no result, when the build fails (for example when src/ is absent).
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("sc_athena_zoo", "mc4_athena_lowbw", "fig7_sweep")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
JOBS = "4"


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(root), "perfbench")


def local_env():
    """The environment with TMPDIR inside the build tree, so the
    compiler's (and LTO's) temporary files stay in the checkout."""
    tmp = os.path.join(build_dir(), "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def run_group(cmd, timeout, **kwargs):
    """Run cmd in its own process group; on timeout, or when this
    script is stopped, kill the whole group (make and compiler children
    included) and wait for it. Returns the exit code, or None on
    timeout."""
    with subprocess.Popen(cmd, start_new_session=True, **kwargs) as proc:
        try:
            return proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            return None
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise


def build():
    """Configure (once) and build; returns the program path or None."""
    out = build_dir()
    env = local_env()
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "perfbench",
                  "-j", JOBS])
    for cmd in steps:
        try:
            rc = run_group(cmd, BUILD_TIMEOUT_S, stdout=sys.stderr,
                           stderr=sys.stderr, env=env)
        except OSError as err:
            rc = err
        if rc != 0:
            print(f"perfbench: build step failed ({rc}): {' '.join(cmd)}",
                  file=sys.stderr)
            return None
    return os.path.join(out, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--smoke", action="store_true",
                    help="tiny instruction budgets (self-test only)")
    args = ap.parse_args()
    # SIGTERM unwinds through run_group, which stops the child group.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    exe = build()
    if exe is None:
        return 1
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--tmp-dir", os.path.join(build_dir(), "tmp")]
    if args.smoke:
        cmd.append("--smoke")
    sys.stdout.flush()
    rc = run_group(cmd, RUN_TIMEOUT_S, env=local_env())
    if rc is None:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    return rc


if __name__ == "__main__":
    sys.exit(main())
