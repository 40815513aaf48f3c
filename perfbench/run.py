#!/usr/bin/env python3
"""Builds the serving benchmark from source and runs one pass of it.

    python3 perfbench/run.py --workload short-block --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selfcheck

Run from the repository root. The build (Release: qols library, qols_server,
perfbench) goes to .bench_build/ and is incremental; its output goes to
stderr so that the last line of stdout is the benchmark's JSON result.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
WORKDIR = os.path.join(BUILD, "perfbench-run")


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        sys.exit("perfbench: no CMakeLists.txt at the repository root; "
                 "run from a full checkout")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                        "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1),
                    "--target", "perfbench", "qols_server"],
                   check=True, stdout=sys.stderr)


def git_commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except OSError:
        return "unknown"


def main():
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit(f"perfbench: build failed: {e}")
    os.makedirs(WORKDIR, exist_ok=True)
    cmd = [os.path.join(BUILD, "perfbench"),
           "--server", os.path.join(BUILD, "qols", "src", "qols_server"),
           "--workdir", WORKDIR, "--commit", git_commit()] + sys.argv[1:]
    env = dict(os.environ, TMPDIR=WORKDIR)
    sys.exit(subprocess.run(cmd, env=env).returncode)


if __name__ == "__main__":
    main()
