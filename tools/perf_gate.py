#!/usr/bin/env python3
"""Benchmark regression gate: a base checkout against a head checkout.

    python3 tools/perf_gate.py <base-checkout> <head-checkout>

For each gated workload, runs PAIRS interleaved base/head pairs of

    python3 perfbench/run.py --workload W --seed 1 --seconds 5 --trace 0

inside each checkout, alternating which side runs first so that slow
drift of the host is shared by both sides. The gate fails when any run
exits non-zero or prints "correct": false, or when, for any end_to_end
metric of the head's BENCHMARK.json, the head median is worse than the
base median by more than that metric's bound in its "better" direction.

Each checkout builds perfbench into its own .bench_build/ (CARGO_TARGET_DIR
is dropped from the environment so the two builds cannot share a directory).

Exit status: 0 when the gate passes, 1 when it fails, 2 on a usage error.
"""

import json
import os
import statistics
import subprocess
import sys

WORKLOADS = ("stateful-scale", "bug-hunt")
SEED = 1
SECONDS = 5
PAIRS = 3


def run_perfbench(checkout, workload):
    """Runs one perfbench workload in `checkout`; returns (errors, metrics)."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(SEED),
           "--seconds", str(SECONDS), "--trace", "0"]
    env = dict(os.environ)
    env.pop("CARGO_TARGET_DIR", None)
    proc = subprocess.run(cmd, cwd=checkout, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            pass
    errors = []
    if proc.returncode != 0:
        errors.append("exit status %d" % proc.returncode)
    if not isinstance(result, dict):
        errors.append("no result line")
        result = {}
    elif result.get("correct") is not True:
        errors.append('"correct": %s' % json.dumps(result.get("correct")))
    if errors:
        sys.stdout.write("\n".join(lines[-20:]) + "\n")
    metrics = {name: m["value"]
               for name, m in result.get("metrics", {}).items()}
    return errors, metrics


def main():
    if len(sys.argv) != 3:
        print("usage: python3 tools/perf_gate.py <base-checkout> "
              "<head-checkout>", file=sys.stderr)
        return 2
    checkouts = {"base": sys.argv[1], "head": sys.argv[2]}
    for side, path in checkouts.items():
        if not os.path.isfile(os.path.join(path, "perfbench", "run.py")):
            print("perf_gate: %s checkout %s has no perfbench/run.py" %
                  (side, path), file=sys.stderr)
            return 2
    with open(os.path.join(checkouts["head"], "BENCHMARK.json")) as f:
        gated = json.load(f)["end_to_end"]

    failures = []
    for workload in WORKLOADS:
        samples = {"base": [], "head": []}
        for pair in range(PAIRS):
            order = ("base", "head") if pair % 2 == 0 else ("head", "base")
            for side in order:
                errors, metrics = run_perfbench(checkouts[side], workload)
                print("%s pair %d %s: %s" % (
                    workload, pair + 1, side,
                    "; ".join(errors) if errors else
                    " ".join("%s=%g" % kv for kv in sorted(metrics.items()))),
                    flush=True)
                failures += ["%s %s run %d: %s" % (workload, side, pair + 1, e)
                             for e in errors]
                samples[side].append(metrics)

        print("\n%s: median of %d runs per side" % (workload, PAIRS))
        print("  %-12s %-7s %6s %14s %14s %9s" %
              ("metric", "better", "bound", "base", "head", "worse by"))
        for spec in gated:
            name = spec["name"]
            values = {side: [m[name] for m in runs if name in m]
                      for side, runs in samples.items()}
            if any(len(v) < PAIRS for v in values.values()):
                print("  %-12s missing from some runs" % name)
                continue
            base = statistics.median(values["base"])
            head = statistics.median(values["head"])
            # Every gated metric is a positive rate, duration or size.
            worse = (head - base if spec["better"] == "lower"
                     else base - head) / base
            verdict = ""
            if worse > spec["bound"]:
                verdict = "  FAIL"
                failures.append("%s %s: head median %g vs base median %g, "
                                "%.1f%% worse (bound %.0f%%)" %
                                (workload, name, head, base, 100 * worse,
                                 100 * spec["bound"]))
            print("  %-12s %-7s %5.0f%% %14g %14g %8.1f%%%s" %
                  (name, spec["better"], 100 * spec["bound"], base, head,
                   100 * worse, verdict))
        print(flush=True)

    if failures:
        print("perf gate FAILED:")
        for failure in failures:
            print("  " + failure)
        return 1
    print("perf gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
