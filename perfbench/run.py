#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload serve_warm --seed 1 --seconds 30 --trace 0

Workloads (see BENCHMARK.json for why each was chosen):

* ``serve_warm``    -- resident programs re-sent with their SDFG body to
  ``python -m repro.serve`` over one closed-loop connection;
* ``serve_cold``    -- a never-seen 4-link GEMM chain on every request,
  over two connections;
* ``paper_kernels`` -- the paper's kernels, compiled once and called
  round-robin in process.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` makes the
separate traced run and prints the per-layer metrics, writing its spans
to ``.perfbench_out/``.  ``--requests N`` replaces the time limit by a
fixed count (requests per connection, or kernel rounds), which the
self-tests use.  The last stdout line is the result object; the line
before it records the host and the run's sample counts.
"""

from __future__ import annotations

import argparse
import os
import sys

# Run as a script: import the benchmark as a package from the checkout.
sys.path[0] = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

from perfbench import common  # noqa: E402

WORKLOADS = ("serve_warm", "serve_cold", "paper_kernels")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench/run.py",
                                     description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--requests", type=int, default=None,
                        help="fixed count instead of --seconds: requests per "
                             "connection, or kernel rounds (self-tests)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    run = common.make_hermetic(args.workload)
    try:
        from perfbench import layers, paper, served

        if args.workload == "paper_kernels":
            runner = paper.run_traced if args.trace else paper.run_e2e
            result = runner(args.seed, args.seconds, args.requests)
        else:
            runner = served.run_traced if args.trace else served.run_e2e
            result = runner(args.workload, args.seed, args.seconds, run, args.requests)
        if args.trace:
            attempted, failed, table, info, tracer = result
            metrics = layers.complete(table)
            info["spans_file"] = os.path.relpath(
                common.write_spans(args.workload, args.seed, tracer.records()),
                common.ROOT)
        else:
            attempted, failed, metrics, info = result
        info.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                    trace=args.trace, host=common.host_record())
        common.emit(info, attempted, failed, metrics)
    finally:
        run.cleanup()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
