#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \\
        --trace <0|1>

Run from the repository root. Configures and builds perfbench/ (and the
library sources under src/ it links) with CMake into the directory named
by CARGO_TARGET_DIR, or .bench_build, then runs one measurement. Build
output goes to stderr; the benchmark's last stdout line is the JSON
result. Exits non-zero, without a result line, if the build fails.
"""

import os
import subprocess
import sys


def main():
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binary = os.path.join(build, "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # The compiler's temporary files stay inside the build directory.
    env = dict(os.environ, TMPDIR=os.path.join(build, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    for cmd in (["cmake", "-S", here, "-B", build,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                ["cmake", "--build", build, "-j", jobs, "--target", "perfbench"]):
        if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env) != 0:
            sys.stderr.write("perfbench: build failed: %s\n" % " ".join(cmd))
            return 1
    out = os.path.join(build, "results")
    work = os.path.join(build, "work")
    os.makedirs(work, exist_ok=True)
    cmd = [binary] + sys.argv[1:] + ["--out", out, "--work", work]
    return subprocess.call(cmd)


if __name__ == "__main__":
    sys.exit(main())
