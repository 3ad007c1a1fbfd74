#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds perfbench/ (a CMake project over the
repository's src/) in Release mode into $CARGO_TARGET_DIR or .bench_build,
runs the arithmetic self-test, then runs the workload. Its human-readable
tables pass through; the last stdout line is one JSON object with the keys
correct, attempted, failed and metrics, where metrics holds every
end-to-end metric of BENCHMARK.json (--trace 0) or every per-layer metric
(--trace 1), each as {"value": ..., "unit": ...}. The full report (bases of
every ratio, provenance, trial seeds, check failures) is written to
.bench_out/report-<workload>-seed<n>-trace<t>.json.

Exit status: 0 when every output check passed; 1 when a check failed (the
result line then says "correct": false); 2 when the benchmark could not be
built or run, in which case no result line is printed.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPORT_PREFIX = "PERFBENCH_REPORT "


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "engine.h")):
        fail("no SysTest sources under src/ next to perfbench/")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                      build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            fail("build step failed: " + " ".join(cmd))


def source_id():
    """The git commit when there is one, else a digest of src/."""
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True)
        if proc.returncode == 0 and proc.stdout.strip():
            return proc.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha256()
    for base, dirs, files in os.walk(os.path.join(ROOT, "src")):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--force", action="store_true",
                        help="measure even a non-Release build")
    args = parser.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(spec_path) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload " + args.workload)

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_dir)
    build(build_dir)
    selftest = subprocess.run([os.path.join(build_dir, "perfbench_selftest")],
                              stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True)
    if selftest.returncode != 0:
        sys.stderr.write(selftest.stdout)
        fail("arithmetic self-test failed")

    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [os.path.join(build_dir, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out-dir", out_dir,
           "--commit", source_id()]
    if args.force:
        cmd.append("--force")
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    report = None
    for line in proc.stdout:
        if line.startswith(REPORT_PREFIX):
            report = json.loads(line[len(REPORT_PREFIX):])
        else:
            sys.stdout.write(line)
    code = proc.wait()
    if report is None or code not in (0, 1):
        fail("benchmark exited with status %d and no report" % code)

    path = os.path.join(out_dir, "report-%s-seed%d-trace%d.json" %
                        (args.workload, args.seed, args.trace))
    with open(path, "w") as f:
        json.dump(report, f, indent=1)

    metrics = {}
    for m in wanted:
        got = report["metrics"].get(m["name"])
        if got is None:
            fail("workload %s reported no %s" % (args.workload, m["name"]))
        if got["unit"] != m["unit"]:
            fail("%s: unit %s, BENCHMARK.json says %s" %
                 (m["name"], got["unit"], m["unit"]))
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    correct = bool(report["correct"]) and code == 0
    print(json.dumps({"correct": correct, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    sys.stdout.flush()
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
