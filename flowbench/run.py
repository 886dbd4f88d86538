#!/usr/bin/env python3
"""Build the flow-setup benchmark from source and run one workload.

    python3 flowbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout: it builds flowbench/main.exe with
dune (output on standard error), then runs it with the same arguments
and exits with its status. The last line of standard output is the
benchmark's JSON result; see flowbench/README.md.
"""

import os
import subprocess
import sys


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print(
            "flowbench: run from the root of a checkout "
            "(no dune-project or lib/ here)",
            file=sys.stderr,
        )
        return 2
    # The shared dune cache lives outside the checkout: keep it off so
    # the build reads and writes nothing but the checkout.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--profile", "release",
         "./flowbench/main.exe"],
        stdout=sys.stderr,
        stderr=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        print("flowbench: build failed", file=sys.stderr)
        return build.returncode
    exe = os.path.join("_build", "default", "flowbench", "main.exe")
    return subprocess.run([exe] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
