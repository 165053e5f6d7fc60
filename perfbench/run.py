#!/usr/bin/env python3
"""Build and run the repository's end-to-end benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

The first call configures and builds entk_perfbench (and the toolkit
libraries it links) from source under .bench_build/ at the repository root,
or under $CARGO_TARGET_DIR when that is set; later calls rebuild only what
changed. Build output goes to standard error. The flags are passed to
entk_perfbench, which validates them; the last line of its standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
--self-test builds and runs the benchmark's own tests instead.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir, target):
    """Configure once, then let the build tool rebuild only what changed."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    generated = ("Makefile", "build.ninja")
    if not any(os.path.exists(os.path.join(build_dir, f)) for f in generated):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "--target", target,
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print(f"perfbench: build step failed: {' '.join(cmd)}",
                  file=sys.stderr)
            sys.exit(3)
    return os.path.join(build_dir, target)


def main():
    out_root = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or
                            ".bench_build")
    build_dir = os.path.join(out_root, "perfbench")
    if sys.argv[1:] == ["--self-test"]:
        build(build_dir, "perfbench_tests")
        sys.exit(subprocess.run(["ctest", "--test-dir", build_dir,
                                 "--output-on-failure"]).returncode)
    binary = build(build_dir, "entk_perfbench")
    out_dir = os.path.join(out_root, "perfbench-out", str(os.getpid()))
    cmd = [binary, "--out-dir", out_dir] + sys.argv[1:]
    sys.exit(subprocess.run(cmd, cwd=ROOT).returncode)


if __name__ == "__main__":
    main()
