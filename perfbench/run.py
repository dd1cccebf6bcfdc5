#!/usr/bin/env python3
"""Build the whiteboard benchmark from source and run it.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source tree.  The driver is built with dune into the
tree's own _build directory (the shared dune cache is switched off, so
nothing is written outside the tree), then executed with the same
arguments; its last line of output is the result object.  Exits non-zero,
without a result, when the tree holds no whiteboard sources or the build
fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TARGET = "./" + os.path.basename(HERE) + "/wb_perf.exe"


def main():
    if not (
        os.path.isfile(os.path.join(ROOT, "dune-project"))
        and os.path.isdir(os.path.join(ROOT, "lib"))
    ):
        print("run.py: no whiteboard sources (dune-project, lib/) beside the benchmark",
              file=sys.stderr)
        return 2
    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "--cache=disabled", "--display=quiet", TARGET],
        cwd=ROOT,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return build.returncode
    exe = os.path.join(ROOT, "_build", "default", TARGET)
    return subprocess.run([exe] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
