#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload load-cc --seed 1 --seconds 20 --trace 0

The executable (perfbench/bench.exe) is built with dune into the directory
named by CARGO_TARGET_DIR (default .bench_build), with dune's shared cache
off, so nothing is written outside the checkout.  This process then becomes
the executable, with all arguments passed through; a traced run (--trace 1)
also writes its spans as a Chrome trace under <build dir>/perfbench-spans/.
The last line of stdout is the result object described in BENCHMARK.json.
"""

import os
import subprocess
import sys


def arg(args, name, default):
    if name in args:
        i = args.index(name)
        if i + 1 < len(args):
            return args[i + 1]
    return default


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print(
            "perfbench: run from the root of a checkout "
            "(no dune-project or lib/ here)",
            file=sys.stderr,
        )
        return 2
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build = subprocess.run(
        [
            "dune", "build", "--root", ".", "--build-dir", build_dir,
            "--profile", "release", "--cache", "disabled",
            "./perfbench/bench.exe",
        ],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    exe = os.path.join(build_dir, "default", "perfbench", "bench.exe")
    args = sys.argv[1:]
    if arg(args, "--trace", "0") == "1" and "--spans-out" not in args:
        spans_dir = os.path.join(build_dir, "perfbench-spans")
        os.makedirs(spans_dir, exist_ok=True)
        name = "%s-seed%s.json" % (
            arg(args, "--workload", "none"), arg(args, "--seed", "1"))
        args = args + ["--spans-out", os.path.join(spans_dir, name)]
    sys.stdout.flush()
    os.execv(exe, [exe] + args)


if __name__ == "__main__":
    sys.exit(main())
