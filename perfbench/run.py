#!/usr/bin/env python3
"""Builds the repository's `reproduce` binary and the benchmark, then
makes one benchmark run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. Both builds are release builds into
$CARGO_TARGET_DIR (default `.bench_build`). The benchmark's arguments are
passed through to `perfbench` (see perfbench/src/main.rs); a traced run
also writes its spans to $CARGO_TARGET_DIR/perfbench-spans-NAME.jsonl.
The last line on stdout is the run's JSON result. The exit status is
perfbench's: 1 when a correctness gate failed, 2 on bad usage.
"""

import os
import subprocess
import sys

# A run must end within 180 s; builds come before this limit starts.
RUN_TIMEOUT_S = 170

BUILDS = [
    ["-p", "sentinel-bench", "--bin", "reproduce"],
    ["--manifest-path", os.path.join("perfbench", "Cargo.toml")],
]


def arg(args, flag):
    """The value following `flag` in `args`, or None."""
    if flag in args[:-1]:
        return args[args.index(flag) + 1]
    return None


def main():
    if not (os.path.isfile("Cargo.toml") and os.path.isdir("crates")):
        print("error: run from the repository root: Cargo.toml and crates/ not found",
              file=sys.stderr)
        return 2
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for extra in BUILDS:
        cmd = ["cargo", "build", "--release", "--offline", "--quiet", *extra]
        # Build output goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            print(f"error: build failed: {' '.join(cmd)}", file=sys.stderr)
            return 1

    release = os.path.join(target, "release")
    args = sys.argv[1:]
    cmd = [os.path.join(release, "perfbench"), *args,
           "--reproduce", os.path.join(release, "reproduce")]
    if arg(args, "--trace") == "1":
        workload = "".join(c for c in arg(args, "--workload") or "" if c.isalnum() or c in "-_")
        cmd += ["--spans", os.path.join(target, f"perfbench-spans-{workload}.jsonl")]
    sys.stdout.flush()
    proc = subprocess.Popen(cmd, env=env)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"error: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
