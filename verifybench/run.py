#!/usr/bin/env python3
"""Entry point of the end-to-end `relaxc verify` benchmark.

Usage (from the root of a checkout):

    python3 verifybench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 verifybench/run.py --selftest

Configures and builds relaxc and the harness (CMake, Release) into the
directory named by CARGO_TARGET_DIR (default `.bench_build`), then replaces
itself with the harness, whose last stdout line is the JSON result. Build
output goes to stderr. Without relaxc sources around it, the build fails and
this exits nonzero without printing a result.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
CHECKOUT = os.path.dirname(HERE)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(d):
        d = os.path.join(CHECKOUT, d)
    return os.path.join(d, "verifybench")


def build(out):
    cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        cmd += ["-G", "Ninja"]
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(os.cpu_count() or 1)
    subprocess.run(["cmake", "--build", out, "-j", jobs], check=True,
                   stdout=sys.stderr, stderr=sys.stderr)


def main():
    out = build_dir()
    try:
        build(out)
    except (subprocess.CalledProcessError, OSError) as e:
        sys.stderr.write("verifybench: build failed: %s\n" % e)
        return 2
    if sys.argv[1:] == ["--selftest"]:
        exe = os.path.join(out, "verifybench_selftest")
        os.execv(exe, [exe])
    exe = os.path.join(out, "verifybench")
    os.execv(exe, [exe] + sys.argv[1:] + ["--repo", CHECKOUT])


if __name__ == "__main__":
    sys.exit(main())
