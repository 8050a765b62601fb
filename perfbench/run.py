#!/usr/bin/env python3
"""Build the DECISIVE benchmark from source and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout. The first run configures and builds
perfbench/ (which builds the repository's libraries) under the directory
named by $CARGO_TARGET_DIR, or .bench_build by default; later runs reuse
that build. Build output goes to stderr, so the last line of stdout is the
benchmark's JSON result.

Seeds: DEFAULT_SEED is the one to tune against; HELD_OUT_SEED is kept back
to confirm a claimed gain on inputs nobody tuned for.
"""

import argparse
import hashlib
import os
import subprocess
import sys

WORKLOADS = ("rail_campaign", "paper_loop", "edit_loop", "deploy_search")
DEFAULT_SEED = 1
HELD_OUT_SEED = 9001

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def source_digest():
    """Digest of every file the benchmark builds from (the checkout is not
    necessarily a git repository, so this stands in for the commit)."""
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()[:16]


def build(build_dir):
    """Configure on first use, then build; returns the driver's path."""
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("run.py: no DECISIVE sources next to perfbench/; run from a "
              "source checkout", file=sys.stderr)
        return 2

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    try:
        driver = build(build_dir)
    except (subprocess.CalledProcessError, OSError) as error:
        print(f"run.py: build failed: {error}", file=sys.stderr)
        return 2

    env = dict(os.environ, PERFBENCH_SOURCE=source_digest())
    command = [driver,
               "--workload", args.workload,
               "--seed", str(args.seed),
               "--seconds", str(args.seconds),
               "--trace", str(args.trace),
               "--assets", os.path.join(ROOT, "assets"),
               "--data", os.path.join(HERE, "data"),
               "--work", os.path.join(build_dir, "work")]
    return subprocess.run(command, env=env, check=False).returncode


if __name__ == "__main__":
    sys.exit(main())
