#!/usr/bin/env python3
"""Build and run the jgrebench campaign benchmark.

Run from the repository root:

    python3 jgrebench/run.py --workload fleet-census --seed 42 \
        --seconds 30 --trace 0

Configures and builds the benchmark (the simulator libraries from src/ plus
the jgrebench program, Release) into .bench_build/ — or into
$CARGO_TARGET_DIR when that is set — then runs it with the given arguments.
The program's last stdout line is the JSON result; see jgrebench/README.md.
Exits non-zero without a result if the build fails.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "--build", build_dir, "--target", "jgrebench",
              "-j", jobs]]
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.insert(0, ["cmake", "-S", HERE, "-B", build_dir,
                         "-DCMAKE_BUILD_TYPE=Release"] + generator)
    # The compiler's temporary files stay inside the build tree.
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    for step in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              env=env)
        if done.returncode != 0:
            sys.stderr.write("jgrebench: build step failed: %s\n"
                             % " ".join(step))
            return False
    return True


def main():
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                or ".bench_build")
    if not build(build_dir):
        return 1
    binary = os.path.join(build_dir, "jgrebench")
    return subprocess.run([binary] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
