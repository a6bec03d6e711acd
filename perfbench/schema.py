#!/usr/bin/env python3
"""Schema checks for the benchmark: BENCHMARK.json itself and the result
object run.py prints as its last stdout line.

    python3 perfbench/schema.py                  # check BENCHMARK.json
    python3 perfbench/run.py ... | python3 perfbench/schema.py --trace 0

run.py validates every result against this before printing it.
"""

import argparse
import json
import math
import os
import re
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK_JSON = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH_RE = re.compile(r"^[A-Za-z0-9_.\-/]{1,200}$")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def load_benchmark(path=BENCHMARK_JSON):
    with open(path) as f:
        return json.load(f)


def check_benchmark(b):
    """Errors in BENCHMARK.json against the benchmark contract."""
    errs = []
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(b) != keys:
        errs.append("top-level keys %s, expected %s" % (sorted(b), sorted(keys)))
        return errs
    cmd = b["command"]
    if not (isinstance(cmd, list) and 1 <= len(cmd) <= 32 and
            all(isinstance(c, str) and len(c) <= 200 for c in cmd)):
        errs.append("command must be 1-32 strings of at most 200 characters")
    elif any(c.startswith("/") or ".." in c.split("/") for c in cmd):
        errs.append("command names an absolute path or leaves the repository")
    paths = b["paths"]
    if not (isinstance(paths, list) and 1 <= len(paths) <= 16 and
            all(isinstance(p, str) and PATH_RE.match(p) and ".." not in p.split("/")
                for p in paths)):
        errs.append("paths must be 1-16 relative directory names")
    rs = b["run_seconds"]
    if not (isinstance(rs, int) and not isinstance(rs, bool) and 1 <= rs <= 60):
        errs.append("run_seconds must be a whole number in [1, 60]")
    wl = b["workloads"]
    if not (isinstance(wl, list) and 2 <= len(wl) <= 8):
        errs.append("workloads: 2 to 8 entries")
    else:
        for w in wl:
            if set(w) != {"name", "why"} or "\n" in w["why"] or len(w["why"]) > 200:
                errs.append("workload %r: exactly name and a one-line why" % w.get("name"))
    names = [w.get("name") for w in wl] if isinstance(wl, list) else []
    for sect, lo, hi, metric_keys in (("end_to_end", 1, 16, {"name", "unit", "better", "bound"}),
                                      ("per_layer", 1, 128, {"name", "unit", "better"})):
        ms = b[sect]
        if not (isinstance(ms, list) and lo <= len(ms) <= hi):
            errs.append("%s: %d to %d metrics" % (sect, lo, hi))
            continue
        for m in ms:
            if set(m) != metric_keys:
                errs.append("%s metric %r: keys %s" % (sect, m.get("name"), sorted(m)))
                continue
            if not UNIT_RE.match(m["unit"]):
                errs.append("metric %s: bad unit %r" % (m["name"], m["unit"]))
            if m["better"] not in ("lower", "higher"):
                errs.append("metric %s: better must be lower or higher" % m["name"])
            if "bound" in m and not (isinstance(m["bound"], (int, float)) and
                                     0 < m["bound"] <= 0.25):
                errs.append("metric %s: bound must be in (0, 0.25]" % m["name"])
        names += [m.get("name") for m in ms]
    for n in names:
        if not (isinstance(n, str) and NAME_RE.match(n)):
            errs.append("bad name %r" % (n,))
    if len(names) != len(set(names)):
        errs.append("names must be unique across workloads and metrics")
    setup = [m for m in b["end_to_end"] if m.get("name") == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        errs.append("end_to_end needs setup_s in s, lower is better")
    elif setup[0]["bound"] < max(m["bound"] for m in b["end_to_end"]):
        errs.append("setup_s should carry the largest bound")
    return errs


def validate(result, bench, trace):
    """Errors in one result object for a --trace `trace` run."""
    errs = []
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        return ["result keys must be exactly %s" % sorted(RESULT_KEYS)]
    if not isinstance(result["correct"], bool):
        errs.append("correct must be a boolean")
    for k in ("attempted", "failed"):
        if not isinstance(result[k], int) or isinstance(result[k], bool) or result[k] < 0:
            errs.append("%s must be a whole number" % k)
    if isinstance(result["attempted"], int) and result["attempted"] < 1:
        errs.append("attempted must be at least 1")
    specs = bench["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in specs}
    got = result["metrics"]
    if not isinstance(got, dict) or set(got) != set(want):
        missing = sorted(set(want) - set(got or {}))
        extra = sorted(set(got or {}) - set(want))
        return errs + ["metrics differ from BENCHMARK.json: missing %s, extra %s"
                       % (missing, extra)]
    for name, m in got.items():
        if not isinstance(m, dict) or set(m) != {"value", "unit"}:
            errs.append("metric %s: exactly value and unit" % name)
            continue
        v = m["value"]
        if not isinstance(v, (int, float)) or isinstance(v, bool) or not math.isfinite(v):
            errs.append("metric %s: value must be a finite number" % name)
        if m["unit"] != want[name]:
            errs.append("metric %s: unit %r, BENCHMARK.json says %r" % (name, m["unit"], want[name]))
    return errs


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--trace", type=int, choices=(0, 1),
                    help="validate the last line of stdin as a result of this mode")
    args = ap.parse_args()
    bench = load_benchmark()
    errs = check_benchmark(bench)
    if args.trace is not None:
        lines = [l for l in sys.stdin.read().splitlines() if l.strip()]
        try:
            errs += validate(json.loads(lines[-1]), bench, args.trace)
        except (ValueError, IndexError):
            errs.append("last line of input is not a JSON object")
    for e in errs:
        print("schema: " + e, file=sys.stderr)
    print("schema: %s" % ("ok" if not errs else "%d error(s)" % len(errs)))
    return 1 if errs else 0


if __name__ == "__main__":
    sys.exit(main())
