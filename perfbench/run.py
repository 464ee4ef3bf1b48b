#!/usr/bin/env python3
"""symfail benchmark: run one workload, check its output, print its metrics.

    python3 perfbench/run.py --workload wide_fleet [--seed 2007]
                             [--seconds 1] [--trace 0|1] [--smoke]

Run from the root of a source checkout.  The first run configures and
builds perfbench/ (the symfail libraries plus the driver binary) into
.bench_build/; later runs only check that the build is current.

Every line but the last is for people: the machine fingerprint, the
correctness verdict and one "name value unit" line per metric.  The last
line is one JSON object: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones (README.md says which workload each applies to).  The exit
status is 0 only when every correctness check passed.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build"
CMAKE_DIR = BUILD_DIR / "cmake"
BINARY = CMAKE_DIR / "symfail_perfbench"
BUILD_TYPE = "RelWithDebInfo"

# The workloads BENCHMARK.json names.
WORKLOADS = ("wide_fleet", "sweep")
# Runnable by hand, not named in BENCHMARK.json: on a shared host its time
# swings too far between runs to gate a change (README.md says why).
MANUAL_WORKLOADS = ("paper_campaign",)

END_TO_END = (
    ("wall_s", "s"),
    ("phone_hours_per_s", "phone-h/s"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
)

PER_LAYER = (
    ("simkernel.events", "count"),
    ("simkernel.queue_depth_peak", "count"),
    ("simkernel.queue_s", "s"),
    ("symbos.ao.ns_per_dispatch", "ns"),
    ("symbos.ao.share", "ratio"),
    ("symbos.timer.ns_per_dispatch", "ns"),
    ("phone.dispatch_s", "s"),
    ("phone.bytes_per_phone", "B"),
    ("logger.heartbeats", "count"),
    ("logger.runapp_snapshots", "count"),
    ("logger.bytes_per_phone", "B"),
    ("faults.injected", "count"),
    ("osfault.activations", "count"),
    ("osfault.trial_s_p50", "s"),
    ("transport.frames_sent", "count"),
    ("transport.retransmit_ratio", "ratio"),
    ("transport.wire_bytes_per_record", "B"),
    ("transport.dispatch_s", "s"),
    ("transport.bytes_per_phone", "B"),
    ("fleet.build_s", "s"),
    ("fleet.run_s", "s"),
    ("fleet.collect_s", "s"),
    ("server.bytes_per_phone", "B"),
    ("monitor.overhead_pct", "%"),
    ("obs.provenance_overhead_pct", "%"),
    ("analysis.dataset_build_s", "s"),
    ("analysis.pipeline_s", "s"),
    ("analysis.evaluate_s", "s"),
    ("crash.cluster_s", "s"),
    ("core.render_s", "s"),
    ("srgm.analyze_s", "s"),
    ("experiment.trial_s_p50", "s"),
    ("experiment.pool_utilisation", "ratio"),
    ("experiment.aggregate_s", "s"),
    ("obs.tracing_overhead_pct", "%"),
)

# Process start-ups timed per run for setup_s, besides the measured run.
SETUP_PROBES = 30
BUILD_TIMEOUT_S = 850


# A traced paper_campaign (an untraced and a stride-1 profiled pass) takes
# about 80 s; untraced runs repeat passes until --seconds have passed, and
# the last pass may start just before that.
def run_timeout_s(seconds):
    return max(170, seconds + 130)


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_jobs():
    return max(1, min(os.cpu_count() or 1, 4))


def build():
    """Configures (a no-op once done) and brings the binary up to date."""
    BUILD_DIR.mkdir(exist_ok=True)
    log_path = BUILD_DIR / "build.log"
    steps = [["cmake", "-S", str(HERE), "-B", str(CMAKE_DIR),
              f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"],
             ["cmake", "--build", str(CMAKE_DIR), "-j", str(build_jobs()),
              "--target", "symfail_perfbench"]]
    with open(log_path, "w") as log:
        for step in steps:
            try:
                done = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                      cwd=ROOT, timeout=BUILD_TIMEOUT_S)
            except (OSError, subprocess.TimeoutExpired) as error:
                fail(f"build step {step[:2]} did not finish: {error}")
            if done.returncode != 0:
                log.flush()
                tail = log_path.read_text(errors="replace").splitlines()[-20:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed (full log: {log_path})")


def fingerprint():
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    compiler = "unknown"
    try:
        for line in (CMAKE_DIR / "CMakeCache.txt").read_text().splitlines():
            if line.startswith("CMAKE_CXX_COMPILER:"):
                path = line.split("=", 1)[1]
                version = subprocess.run([path, "-dumpfullversion"], capture_output=True,
                                         text=True, timeout=30).stdout.strip()
                compiler = f"{Path(path).name} {version}"
    except (OSError, subprocess.TimeoutExpired):
        pass
    return f"nproc={os.cpu_count()} cpu=\"{cpu}\" build={BUILD_TYPE} compiler=\"{compiler}\""


def run_binary(args, timeout_s):
    """Runs the driver binary; returns (spawn time ns, parsed last line)."""
    spawn_ns = time.monotonic_ns()
    try:
        done = subprocess.run([str(BINARY), *args], stdout=subprocess.PIPE,
                              cwd=ROOT, timeout=timeout_s, text=True)
    except (OSError, subprocess.TimeoutExpired) as error:
        fail(f"workload run did not finish: {error}")
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail(f"workload binary exited with status {done.returncode}")
    return spawn_ns, json.loads(lines[-1])


def setup_seconds(spawn_ns, report):
    """Process start to the first timed call, in seconds."""
    return (report["first_call_ns"] - spawn_ns) / 1e9


def sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def check_outputs(args, report):
    """Compares every rendered output with the committed golden digest for
    this workload, scale and seed; without a golden, all outputs of the
    run must still agree.  Returns (failed outputs, verdict line)."""
    goldens = json.loads((HERE / "goldens.json").read_text())
    scale = "smoke" if args.smoke else "full"
    expected = goldens.get(args.workload, {}).get(scale, {}).get(str(args.seed))
    digests = [sha256(ROOT / path) for path in report["outputs"]]
    if not digests:
        return 1, "correctness: FAIL (no output rendered)"
    reference = expected or digests[0]
    mismatched = sum(1 for digest in digests if digest != reference)
    source = "golden" if expected else "first pass (no golden for this seed)"
    verdict = "match" if mismatched == 0 else f"{mismatched} MISMATCH"
    return mismatched, (f"correctness: {len(digests)} output(s) vs {source} "
                        f"sha256 {reference[:16]}: {verdict}")


def metric_lines(values, table, missing_note):
    metrics = {}
    for name, unit in table:
        value = values.get(name)
        if value is None:
            print(f"{name} n/a {unit} ({missing_note})")
            value = 0.0
        else:
            print(f"{name} {value:.6g} {unit}")
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + MANUAL_WORKLOADS)
    parser.add_argument("--seed", type=int, default=2007)
    parser.add_argument("--seconds", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="scaled-down shapes (self-test)")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    build()
    out_dir = BUILD_DIR / "out"
    workload_args = ["--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        workload_args.append("--smoke")
    timeout_s = run_timeout_s(args.seconds)
    setups = [setup_seconds(*run_binary([*workload_args, "--setup-only"], timeout_s))
              for _ in range(SETUP_PROBES)]
    spawn_ns, report = run_binary([*workload_args, "--seconds", str(args.seconds),
                                   "--trace", str(args.trace), "--out-dir",
                                   str(out_dir.relative_to(ROOT))], timeout_s)
    setups.append(setup_seconds(spawn_ns, report))

    print(f"machine: {fingerprint()}")
    print(f"workload: {args.workload} seed={args.seed} "
          f"scale={'smoke' if args.smoke else 'full'} trace={args.trace} "
          f"jobs={report['jobs']} timed_passes={len(report['wall_s'])}")
    mismatched, verdict = check_outputs(args, report)
    print(verdict)
    for error in report["errors"]:
        print(f"correctness: FAIL {error}")
    attempted = report["attempted"]
    failed = min(attempted, report["failed"] + mismatched)
    correct = failed == 0
    print(f"error_rate {failed / attempted if attempted else 1.0:.6g} ratio "
          f"({failed} failed / {attempted} attempted)")

    if args.trace:
        if report["spans"]:
            print(f"spans: {report['spans']}")
        metrics = metric_lines(report["layers"], PER_LAYER,
                               "not exercised by this workload; reported as 0")
    else:
        wall = statistics.median(report["wall_s"])
        metrics = metric_lines({
            "wall_s": wall,
            "phone_hours_per_s": report["phone_hours"] / wall,
            "peak_rss_mb": statistics.median(report["peak_rss_bytes"]) / 2**20,
            "setup_s": statistics.median(setups),
        }, END_TO_END, "missing")

    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
