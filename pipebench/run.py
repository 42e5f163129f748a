#!/usr/bin/env python3
"""Builds the pipebench runner from source and runs it.

    python3 pipebench/run.py --workload batch_motif --seed 1 --seconds 20 \
        --trace 0
    python3 pipebench/run.py --smoke       # every workload, a few seconds
    python3 pipebench/run.py --selftest    # every correctness gate must fire

Run it from the root of a checkout. The build goes to $CARGO_TARGET_DIR
(default .bench_build) as a Release build of pipebench/CMakeLists.txt,
which compiles the library from ../src. Build output goes to stderr; the
last line of stdout is the runner's JSON result. The runner's files go
to <build dir>/work: serve_durable's state dirs, removed when the run
ends, and the Chrome trace-event files of traced runs (--trace 1), under
traces/.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(message):
    print("pipebench: " + message, file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("the library sources (src/) are not next to pipebench/; "
             "run from a full checkout")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--target", "pipebench",
                    "-j", jobs], stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "pipebench")


def git_describe():
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def main():
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                or os.path.join(ROOT, ".bench_build"))
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as error:
        fail("build failed: %s" % error)
    args = sys.argv[1:] + ["--work-dir", os.path.join(build_dir, "work")]
    sys.stdout.flush()
    result = subprocess.run([binary] + args + ["--git", git_describe()],
                            cwd=ROOT)
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
