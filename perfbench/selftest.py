#!/usr/bin/env python3
"""The harness's own test.

    python3 perfbench/selftest.py

1. BENCHMARK.json passes the schema check.
2. The failure reproducer (FedAvg + DP at ε=1 on vgg11_mini/cifar100_like:
   every update goes non-finite, the coordinator throws "no client updates to
   aggregate" and the trainers block in broadcast recv) is reported as failed
   runs, by name, within the watchdog limit, and the harness goes on to its
   next child and still prints a well-formed result.
3. A short traced sync_dp run is correct, well-formed, and its per-node
   attribution adds up to the round wall time within 5%.
Exit code 0 when all pass. The driver is built first, so the time limits
below cover runs only.
"""

import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
sys.path.insert(0, HERE)
import run  # noqa: E402
import schema  # noqa: E402

RUN = [sys.executable, os.path.join(HERE, "run.py")]


def harness(args, timeout):
    """Run the harness; returns (exit code, report, result, seconds, error)."""
    t0 = time.monotonic()
    try:
        p = subprocess.run(RUN + args, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, None, None, time.monotonic() - t0, "no exit within %.0f s" % timeout
    took = time.monotonic() - t0
    lines = [l for l in p.stdout.splitlines() if l.strip()]
    try:
        report = json.loads(lines[-2])["report"]
        result = json.loads(lines[-1])
    except (IndexError, KeyError, TypeError, ValueError):
        return p.returncode, None, None, took, "no report and result lines (exit %d)" % p.returncode
    return p.returncode, report, result, took, None


def main():
    bench = schema.load_benchmark()
    failures = []

    def expect(cond, what):
        print("%s %s" % ("ok  " if cond else "FAIL", what))
        if not cond:
            failures.append(what)

    expect(not schema.check_benchmark(bench), "BENCHMARK.json passes the schema check")
    expect(run.build() is not None, "driver builds")
    if failures:
        return 1

    # Two children (the harness's minimum), each killed by the watchdog.
    limit = 2 * run.WATCHDOG_S + 60
    rc, report, result, took, err = harness(["--workload", "dp_eps1_repro", "--seed", "1",
                                           "--seconds", "1", "--trace", "0"], timeout=limit)
    expect(rc == 0 and result is not None,
           "reproducer: harness exits 0 with a result (%s)" % (err or "ok"))
    if result is not None:
        expect(not schema.validate(result, bench, 0), "reproducer: result is well-formed")
        expect(result["correct"] is False and result["failed"] >= 1,
               "reproducer: counted as failed (failed=%d of %d)"
               % (result["failed"], result["attempted"]))
        named = [f for f in report["failures"] if f.startswith("dp_eps1_repro child")]
        expect(len(named) >= 2, "reproducer: each failed child is named, and the harness "
               "went on past the first (%s)" % named)
        expect(took < limit, "reproducer: done within the watchdog limit "
               "(%.1f s, watchdog %.0f s per child)" % (took, run.WATCHDOG_S))

    rc, report, result, _, err = harness(["--workload", "sync_dp", "--seed", "1", "--seconds", "4",
                                        "--trace", "1"], timeout=170)
    expect(rc == 0 and result is not None,
           "sync_dp traced: harness exits 0 with a result (%s)" % (err or "ok"))
    if result is not None:
        expect(not schema.validate(result, bench, 1), "sync_dp traced: result is well-formed")
        expect(result["correct"] is True, "sync_dp traced: correct (%s)" % report["failures"])
        err = result["metrics"]["attribution.max_err_frac"]["value"]
        expect(err <= 0.05, "sync_dp traced: per-node attribution within 5%% (%.4f)" % err)

    print("selftest: %s" % ("ok" if not failures else "%d failure(s)" % len(failures)))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
