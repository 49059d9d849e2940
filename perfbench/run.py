#!/usr/bin/env python3
"""Build and run the gossip-reduce time-to-accuracy benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the `perfbench` crate in release mode (offline, into
$CARGO_TARGET_DIR, default `.bench_build`), runs it, and passes its output
through. The last stdout line is the result JSON. The exit code is
nonzero when the build fails, the benchmark fails, or any output is wrong.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["dmgs-qr", "scale-faults", "batch-tenants", "mem-drivers"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    env = dict(os.environ)
    target = env.get("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(ROOT, target)
    env["CARGO_TARGET_DIR"] = target
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        sys.exit("perfbench: build failed")

    # Keep freed memory in the process (mmap only above 32 MiB, never trim
    # the heap), so that each set-up reuses pages the process has already
    # touched. Fresh pages cost a fault whose price on a virtual machine
    # swings with the host's load, and set-up times spread accordingly.
    env["MALLOC_MMAP_THRESHOLD_"] = str(32 << 20)
    env["MALLOC_TRIM_THRESHOLD_"] = str(1 << 40)
    cmd = [os.path.join(target, "release", "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    run = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    print(run.stdout, end="")
    if run.returncode != 0:
        sys.exit(f"perfbench: benchmark exited with {run.returncode}")
    result = json.loads(run.stdout.splitlines()[-1])
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
