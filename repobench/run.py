#!/usr/bin/env python3
"""Build the benchmark program from source, then run it.

Run from the root of a checkout:

    python3 repobench/run.py --workload NAME --seed N --seconds S --trace 0|1

Build output goes to standard error, so the last line of standard output
is the program's result. Exits non-zero, printing no result, when the
checkout holds no sources to build.
"""

import os
import shutil
import subprocess
import sys


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("repobench: no dune-project and lib/ here; run from the root "
              "of a checkout", file=sys.stderr)
        return 2
    dune = shutil.which("dune")
    cmd = [dune] if dune else ["opam", "exec", "--", "dune"]
    # the shared dune cache lives outside the checkout
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        cmd + ["build", "--root", ".", "./repobench/main.exe"],
        stdout=sys.stderr, stderr=sys.stderr, env=env)
    if build.returncode != 0:
        return build.returncode
    exe = os.path.join("_build", "default", "repobench", "main.exe")
    return subprocess.run([exe] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
