#!/usr/bin/env python3
"""Build and run the Clarify benchmark.

Usage, from the repository root:

    python3 clarifybench/run.py --workload session|fleet-sim|audit \
        --seed N --seconds S --trace 0|1

Builds clarifybench/main.exe with dune (into _build/), then runs it with
the same arguments. Build output and the run's notes go to standard
error; the last line of standard output is the run's JSON result. Exits
non-zero, printing no result, when the build or the run fails.
"""

import glob
import os
import shutil
import subprocess
import sys

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
EXE = os.path.join("_build", "default", "clarifybench", "main.exe")


def dune():
    found = shutil.which("dune")
    if found:
        return found
    candidates = sorted(glob.glob(os.path.expanduser("~/.opam/*/bin/dune")))
    if candidates:
        return candidates[-1]
    sys.exit("run.py: dune not found")


def main():
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        [dune(), "build", "--root", ".", "--display", "quiet", "./clarifybench/main.exe"],
        stdout=sys.stderr,
        stderr=sys.stderr,
        env=env,
        timeout=BUILD_TIMEOUT_S,
    )
    if build.returncode != 0:
        sys.exit("run.py: build failed")
    run = subprocess.run(
        [EXE] + sys.argv[1:],
        stdout=subprocess.PIPE,
        env=env,
        timeout=RUN_TIMEOUT_S,
    )
    if run.returncode != 0:
        sys.exit("run.py: benchmark exited with %d" % run.returncode)
    sys.stdout.write(run.stdout.decode())


if __name__ == "__main__":
    main()
