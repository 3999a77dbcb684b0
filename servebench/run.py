#!/usr/bin/env python3
"""Builds the served-ledger benchmark from source and runs one measurement.

    python3 servebench/run.py --workload ingest|audit_read|mixed \
        --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR
(default .bench_build) under servebench/, and so do the run's ledger
directories, which are removed when the run ends. The last line of stdout
is the run's JSON result; build output and the human-readable summary go
to stderr.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(msg):
    print("servebench: " + msg, file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("ledger sources not found under " + os.path.join(ROOT, "src"))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "-j4",
                    "--target", "servebench"],
                   stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "servebench")


def main(argv):
    workdir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    # Relative paths keep the unix socket path short whatever the checkout.
    workdir = os.path.relpath(os.path.abspath(workdir))
    os.makedirs(workdir, exist_ok=True)
    try:
        binary = build(os.path.join(workdir, "servebench"))
    except (subprocess.CalledProcessError, OSError) as e:
        fail("build failed: %s" % e)
    proc = subprocess.run([binary] + argv + ["--workdir", workdir])
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
