#!/usr/bin/env python3
"""End-to-end benchmark harness for the OmniFed engine (see README.md).

    python3 perfbench/run.py --workload sync_train --seed 1 --seconds 30 --trace 0

Builds the framework and the `of_perfbench` driver from source (CMake, into
$CARGO_TARGET_DIR or .bench_build), then runs the workload's federations in
child processes under a watchdog until --seconds have passed. A child that
throws, stalls or ends non-finite is counted as failed and named in the
report; the harness carries on with the next child.

stdout: a human-readable metric table, one `report` JSON line (build stamp,
correctness verdict with named failures, sample counts, model hashes), and
as the last line the result object {correct, attempted, failed, metrics}.
--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones (traced federations, an untraced comparison, layer probes).
"""

import argparse
import hashlib
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
sys.path.insert(0, HERE)
import schema  # noqa: E402

# Rounds of one measured federation: global rounds (lockstep) or virtual
# rounds of 3 accepted updates (serve). Sized so one child's federation takes
# one to three seconds on a 4-core host.
ROUNDS = {"sync_train": 60, "sync_dp": 60, "serve_qsgd": 60, "dp_eps1_repro": 5}
# Final accuracy sync_train must reach (~0.96 is typical at 40-60 rounds).
ACCURACY_FLOOR = {"sync_train": 0.90}
CLIENTS = 3
ATTRIBUTION_TOLERANCE = 0.05
# Seconds before a stalled child is killed and counted failed: well above a
# healthy fed child's few seconds (warm-up, allocation base and measured
# federation). A probe child gets its measuring time on top.
WATCHDOG_S = 20.0


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# --- build -------------------------------------------------------------------


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    """Configure (once) and build the driver; returns its path or None."""
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: framework sources (src/) not found next to perfbench/")
        return None
    bdir = build_dir()
    # Keep the compiler's temporary files inside the checkout too.
    env = dict(os.environ, TMPDIR=os.path.join(bdir, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    cache = os.path.join(bdir, "CMakeCache.txt")
    if os.path.exists(cache):
        with open(cache) as f:
            home = [l for l in f if l.startswith("CMAKE_HOME_DIRECTORY:")]
        if not home or home[0].split("=", 1)[1].strip() != HERE:
            os.remove(cache)  # configured from another checkout
    if not os.path.exists(cache):
        cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env).returncode != 0:
            return None
    cmd = ["cmake", "--build", bdir, "-j", str(os.cpu_count() or 1), "--target", "of_perfbench"]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env).returncode != 0:
        return None
    exe = os.path.join(bdir, "of_perfbench")
    return exe if os.path.exists(exe) else None


# --- children under a watchdog -----------------------------------------------


def run_child(exe, args, watchdog_s):
    """Run one child; returns (record, None) or (None, failure description)."""
    p = subprocess.Popen([exe] + args, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                         text=True, start_new_session=True)
    try:
        out, err = p.communicate(timeout=watchdog_s)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.communicate()
        return None, "watchdog: no result after %.0f s (killed)" % watchdog_s
    if p.returncode != 0:
        lines = [l for l in err.splitlines() if l.strip()]
        why = lines[-1] if lines else "no stderr"
        return None, "exit %d: %s" % (p.returncode, why)
    try:
        return json.loads(out.strip().splitlines()[-1]), None
    except (ValueError, IndexError):
        return None, "unparseable child output"


class Session:
    """All children of one benchmark invocation and what they reported."""

    def __init__(self, exe, workload, seed):
        self.exe, self.workload, self.seed = exe, workload, seed
        self.records = []   # successful fed records
        self.failures = []  # named failure strings
        self.attempted = 0  # operations: every round plus every federation run
        self.failed = 0
        self.children = 0

    def fed(self, traced):
        rounds = ROUNDS[self.workload]
        args = ["fed", "--workload", self.workload, "--seed", str(self.seed),
                "--rounds", str(rounds)] + (["--trace"] if traced else [])
        self.children += 1
        label = "%s child %d%s" % (self.workload, self.children, " (traced)" if traced else "")
        rec, why = run_child(self.exe, args, WATCHDOG_S)
        if rec is None:
            self.attempted += rounds + 1
            self.failed += rounds + 1
            self.failures.append("%s: %s" % (label, why))
            return None
        for run in rec["runs"]:
            self.attempted += run["rounds_target"] + 1
            missing = run["rounds_target"] - run["rounds_done"]
            bad = max(0, missing) + run["nonfinite_rejected"] + run["frames_dropped"]
            self.failed += bad
            if bad:
                self.failures.append("%s: %s run lost %d rounds, %d non-finite updates, %d frames"
                                     % (label, run["role"], missing, run["nonfinite_rejected"],
                                        run["frames_dropped"]))
        self.check(rec, label)
        self.records.append(rec)
        return rec

    def check(self, rec, label):
        """Per-run correctness: finite loss and model, accuracy floor, serve
        completion, and (traced) attribution that adds up."""
        def fail(msg):
            self.failures.append("%s: %s" % (label, msg))
            self.failed += 1

        if not rec["loss_finite"]:
            fail("non-finite training loss")
        if not rec["model_finite"]:
            fail("non-finite final model")
        floor = ACCURACY_FLOOR.get(self.workload)
        if floor is not None and rec["final_accuracy"] < floor:
            fail("final accuracy %.4f below floor %.2f" % (rec["final_accuracy"], floor))
        if self.workload == "serve_qsgd":
            # The serve loop returns only after accepting exactly the target
            # and collecting every trainer's Final frame; the last record's
            # accuracy is set from those Finals.
            if rec["final_accuracy"] < 0:
                fail("no Final frames reached the coordinator")
            health = rec.get("serve_health", {})
            target = ROUNDS[self.workload] * CLIENTS
            if rec["traced"] and health.get("accepted") != target:
                fail("accepted %s updates, target %d" % (health.get("accepted"), target))
        attr = rec.get("attribution")
        if attr:
            for node in attr["nodes"]:
                if node["err_frac"] > ATTRIBUTION_TOLERANCE:
                    fail("node %d phases + unattributed = %.4f s vs round wall %.4f s"
                         % (node["node"], sum(node["phase_s"].values()) + node["unattributed_s"],
                            attr["root_wall_s"]))
            for problem in attr["span_problems"]:
                fail("missing spans: " + problem)

    def check_determinism(self):
        """Lockstep runs with one seed must end in identical model bytes."""
        hashes = sorted({r["model_hash"] for r in self.records})
        if self.workload.startswith("sync_") and len(hashes) > 1:
            self.failures.append("%s: final_model_bytes differ across runs of seed %d: %s"
                                 % (self.workload, self.seed, ", ".join(hashes)))
            self.failed += 1
        return hashes


# --- statistics ----------------------------------------------------------------


def percentile(values, q):
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[max(0, math.ceil(q * len(s)) - 1)]


def run_fed_loop(session, traced, until, min_children):
    """Start children one after another until `until`, at least `min_children`."""
    started = 0
    while started < min_children or time.monotonic() < until:
        session.fed(traced)
        started += 1


def end_to_end(session, seconds):
    run_fed_loop(session, False, time.monotonic() + seconds, 2)
    recs = session.records
    hashes = session.check_determinism()
    if not recs:
        return {}, {"hashes": hashes}
    round_s = [x for r in recs for x in r["round_s"]]
    mains = [run for r in recs for run in r["runs"] if run["role"] == "main"]
    setups = [run["setup_s"] for r in recs for run in r["runs"] if run["role"] != "warm"]
    metrics = {
        # Median over federations: one federation whose threads landed badly
        # moves the pooled ratio more than the median.
        "rounds_per_s": statistics.median(m["rounds_done"] / m["total_s"] for m in mains),
        "round_p50_s": statistics.median(round_s),
        # Per federation, then the median: a pooled p95 follows the few
        # federations a noisy host slowed down, and spreads twice as wide.
        "round_p95_s": statistics.median(percentile(r["round_s"], 0.95) for r in recs),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["peak_rss_kb"] for r in recs) / 1024.0,
        "wire_bytes_per_round": statistics.median(
            r["root_bytes"] / max(1, len(r["round_s"])) for r in recs),
        "allocs_per_round": statistics.median(r["allocs_per_round"] for r in recs),
        "ops_ok_frac": 1.0 - min(1.0, session.failed / max(1, session.attempted)),
    }
    info = {"round_samples": len(round_s), "setup_samples": len(setups),
            "federations": len(mains), "hashes": hashes}
    return metrics, info


def per_layer(session, seconds):
    start = time.monotonic()
    run_fed_loop(session, True, start + 0.45 * seconds, 1)
    traced = list(session.records)
    run_fed_loop(session, False, start + 0.7 * seconds, 1)
    untraced = session.records[len(traced):]
    hashes = session.check_determinism()
    probe_s = max(1.0, start + seconds - time.monotonic())
    probe, why = run_child(session.exe, ["probe", "--workload", session.workload, "--seed",
                                         str(session.seed), "--seconds", "%.2f" % probe_s],
                           WATCHDOG_S + probe_s)
    session.attempted += 1
    if probe is None:
        session.failed += 1
        session.failures.append("%s probes: %s" % (session.workload, why))
    if not traced or not untraced or probe is None:
        return {}, {"hashes": hashes}

    def client_mean(rec, fn):
        nodes = [n for n in rec["attribution"]["nodes"] if n["role"] == "trainer"]
        return sum(fn(n) for n in nodes) / len(nodes)

    def coord(rec):
        return rec["attribution"]["nodes"][0]

    def per_round(fn):
        # Over the rounds the attribution checked (lockstep leaves out round 0).
        return statistics.mean(fn(r) / r["attribution"]["rounds"] for r in traced)

    serve = session.workload == "serve_qsgd"
    metrics = {
        "algorithms.local_train_s": per_round(
            lambda r: client_mean(r, lambda n: n["phase_s"]["local_train"])),
        "core.encode_s": per_round(lambda r: client_mean(r, lambda n: n["phase_s"]["encode"])),
        "tensor.decode_s": per_round(lambda r: client_mean(r, lambda n: n["phase_s"]["decode"])),
        "comm.send_s": per_round(lambda r: client_mean(r, lambda n: n["phase_s"]["send"])),
        "comm.client_wait_s": per_round(
            lambda r: client_mean(r, lambda n: n["phase_s"]["recv"])),
        # Serve invites are the coordinator's model sends.
        "comm.broadcast_s": per_round(
            lambda r: coord(r)["phase_s"]["send" if serve else "broadcast"]),
        "comm.coord_wait_s": per_round(lambda r: coord(r)["phase_s"]["recv"]),
        "core.aggregate_s": per_round(lambda r: coord(r)["phase_s"]["aggregate"]),
        "core.coord_unattributed_s": per_round(lambda r: coord(r)["unattributed_s"]),
        "core.client_unattributed_s": per_round(
            lambda r: client_mean(r, lambda n: n["unattributed_s"])),
        "core.pool_hit_rate": statistics.mean(r["pool_hit_rate"] for r in traced),
        "comm.msgs_per_round": statistics.mean(r["root_msgs"] / len(r["round_s"])
                                               for r in traced),
        "obs.trace_overhead_frac": statistics.median(x for r in traced for x in r["round_s"]) /
        statistics.median(x for r in untraced for x in r["round_s"]) - 1.0,
        "attribution.max_err_frac": max(r["attribution"]["max_err_frac"] for r in traced),
    }
    if serve:
        h = [r["serve_health"] for r in traced]
        metrics["serve.rejected_frac"] = statistics.mean(
            x["rejected"] / (x["accepted"] + x["rejected"]) for x in h)
        metrics["serve.mean_staleness"] = statistics.mean(x["mean_staleness"] for x in h)
        metrics["serve.invites_per_update"] = statistics.mean(
            coord(r)["phase_count"]["send"] / r["serve_health"]["accepted"] for r in traced)
    else:
        # Lockstep: nothing is rejected or stale, and each update answers one
        # broadcast copy of the model.
        metrics["serve.rejected_frac"] = 0.0
        metrics["serve.mean_staleness"] = 0.0
        metrics["serve.invites_per_update"] = statistics.mean(
            coord(r)["phase_count"]["broadcast"] * CLIENTS / (len(r["round_s"]) * CLIENTS)
            for r in traced)
    metrics.update(probe["metrics"])
    info = {"traced_federations": len(traced), "untraced_federations": len(untraced),
            "hashes": hashes}
    return metrics, info


# --- stamp ---------------------------------------------------------------------


def source_digest():
    """sha256 over the framework and benchmark sources (the checkout may not
    be a git repository)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(files):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"
    except (OSError, subprocess.SubprocessError):
        return "unknown (git unavailable)"


def cpu_ticks():
    """(steal, total) jiffies from /proc/stat, or None off Linux."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return fields[7] if len(fields) > 7 else 0, sum(fields)


def stamp(exe):
    rec, why = run_child(exe, ["stamp"], WATCHDOG_S)
    s = rec or {"simd": "unknown", "compiler": "unknown", "build_type": "unknown"}
    s.pop("kind", None)
    s["nproc"] = os.cpu_count()
    s["git_commit"] = git_commit()
    s["source_digest"] = source_digest()
    s["release_build"] = s["build_type"] == "Release"
    if not s["release_build"]:
        s["warning"] = "non-Release build (%s): timings are not comparable" % s["build_type"]
    return s


# --- main ------------------------------------------------------------------------


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(ROUNDS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    bench = schema.load_benchmark()
    exe = build()
    if exe is None:
        log("perfbench: build failed; no result")
        return 1
    session = Session(exe, args.workload, args.seed)
    ticks0 = cpu_ticks()
    if args.trace:
        values, info = per_layer(session, args.seconds)
        specs = bench["per_layer"]
    else:
        values, info = end_to_end(session, args.seconds)
        specs = bench["end_to_end"]
    metrics = {}
    for spec in specs:
        v = values.get(spec["name"])
        if v is None:
            continue
        metrics[spec["name"]] = {"value": v, "unit": spec["unit"]}
        print("%-34s %16.6g %s" % (spec["name"], v, spec["unit"]))
    correct = not session.failures and len(metrics) == len(specs)
    if len(metrics) != len(specs):
        session.failures.append("%s: metrics missing (no successful run)" % args.workload)
        # Report every metric anyway so the result stays well-formed.
        for spec in specs:
            metrics.setdefault(spec["name"], {"value": 0.0, "unit": spec["unit"]})
    ticks1 = cpu_ticks()
    if ticks0 and ticks1 and ticks1[1] > ticks0[1]:
        # Share of CPU time the hypervisor gave to other guests during the
        # run, one outside reason for a run that is slow across the board.
        info["host_steal_frac"] = (ticks1[0] - ticks0[0]) / (ticks1[1] - ticks0[1])
    report = {"report": {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                         "correct": correct, "failures": session.failures,
                         "stamp": stamp(exe), **info}}
    print(json.dumps(report))
    result = {"correct": correct, "attempted": max(1, session.attempted),
              "failed": session.failed, "metrics": metrics}
    errors = schema.validate(result, bench, args.trace)
    if errors:
        log("perfbench: result fails its schema: " + "; ".join(errors))
        return 1
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
