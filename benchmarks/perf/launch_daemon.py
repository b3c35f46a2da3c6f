"""Start ``repro serve`` with the benchmark's layer wrappers installed.

    python benchmarks/perf/launch_daemon.py --socket S --jobs 2 --spool-dir D

Takes the arguments of ``repro serve``.  Used only for the traced pass;
forked pool workers inherit the wrappers.
"""

import sys

import layers

if __name__ == "__main__":
    from repro.cli import main

    layers.install_wrappers()
    raise SystemExit(main(["serve", *sys.argv[1:]]))
