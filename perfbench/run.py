#!/usr/bin/env python3
"""Builds the repository benchmark from the checkout's sources and runs it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The C++ benchmark (perfbench/main.cpp) is compiled on first use into
.bench_build/ at the root of the checkout, through perfbench/CMakeLists.txt,
which builds the library with the repository's own CMakeLists.txt. Build
output goes to stderr. The benchmark's own output goes to stdout unchanged;
its last line is the JSON result. The exit status is the benchmark's, or 1
when the sources are missing, the build fails or the run overruns.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 170


def build():
    """Configures once, then brings the benchmark binary up to date."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        raise RuntimeError("no DistrEdge sources beside the benchmark "
                           "(expected CMakeLists.txt and src/ in %s)" % ROOT)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(os.cpu_count() or 1, 4))
    subprocess.run(["cmake", "--build", BUILD, "--target", "perfbench",
                    "-j", jobs], stdout=sys.stderr, check=True)
    return os.path.join(BUILD, "perfbench")


def main():
    try:
        binary = build()
    except (OSError, RuntimeError, subprocess.CalledProcessError) as err:
        print("perfbench: build failed: %s" % err, file=sys.stderr)
        return 1
    try:
        # subprocess.run kills and reaps the benchmark if it overruns.
        return subprocess.run([binary] + sys.argv[1:],
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
