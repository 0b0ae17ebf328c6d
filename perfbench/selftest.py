#!/usr/bin/env python3
"""Self-tests of the benchmark.

    python3 perfbench/selftest.py

1. Two traced runs with the same seed and a fixed request count report
   exactly equal counts: ``protocol.request_kb``,
   ``worker.artifact_hit_ratio`` and ``pool.recycled`` on serve_warm,
   ``progcache.stores`` on serve_cold and ``transformations.applied`` on
   paper_kernels.
2. A deliberately wrong expected value makes the operation count as
   failed, on the served path and in the kernel suite.

Exits 0 when every check holds and prints one line per check.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

sys.path[0] = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

from perfbench import common  # noqa: E402

SEED = 11

#: workload -> (fixed count, counts that must repeat exactly).  520
#: requests on serve_warm's one connection put each of the two workers
#: well past its 200th request and well short of its 400th, so
#: pool.recycled is 2.
REPEATS = {
    "serve_warm": (520, ("protocol.request_kb", "worker.artifact_hit_ratio",
                         "pool.recycled")),
    "serve_cold": (15, ("progcache.stores",)),
    "paper_kernels": (2, ("transformations.applied",)),
}


def traced_counts(workload: str, count: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(common.ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(SEED), "--seconds", "1",
         "--trace", "1", "--requests", str(count)],
        cwd=common.ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise AssertionError(f"{workload} traced run failed:\n{proc.stderr[-3000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise AssertionError(f"{workload} traced run reported failures: {result}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def check_counts_repeat() -> None:
    for workload, (count, names) in REPEATS.items():
        first, second = traced_counts(workload, count), traced_counts(workload, count)
        for name in names:
            if first[name] != second[name] or first[name] <= 0:
                raise AssertionError(
                    f"{workload} {name}: {first[name]} then {second[name]}")
            print(f"ok  {workload} {name} repeats: {first[name]}")


def check_wrong_expected_fails() -> None:
    run = common.make_hermetic("selftest")
    try:
        from perfbench import paper, served

        daemon = served.Daemon(run)
        try:
            daemon.wait_ready()
            served.warm_up(daemon, "serve_warm", SEED)
            tally, _ = served.drive(daemon, "serve_warm", SEED, 0.0,
                                    per_connection=3, wrong=True)
        finally:
            daemon.stop()
        sent = 3 * served.CONNECTIONS["serve_warm"]
        if tally.failed != tally.attempted or tally.attempted != sent:
            raise AssertionError(f"served: {tally.failed} of {tally.attempted} failed")
        print("ok  served: wrong expected values count as failed")

        suite, _ = paper.set_up(SEED)
        matmul = suite[0]
        wrong = matmul.data["A"] @ matmul.data["B"] + 1.0
        matmul.check = paper.output_check(wrong, "C")
        rounds = paper.run_rounds(suite, 0.0, rounds=1)
        if rounds.failed != 1:
            raise AssertionError(f"paper_kernels: {rounds.failed} of 1 rounds failed")
        print("ok  paper_kernels: a wrong expected value fails the round")
    finally:
        run.cleanup()


if __name__ == "__main__":
    check_counts_repeat()
    check_wrong_expected_fails()
