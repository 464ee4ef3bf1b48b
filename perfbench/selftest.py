#!/usr/bin/env python3
"""Self-test of the benchmark itself (about a minute after the build).

    python3 perfbench/selftest.py

Checks that BENCHMARK.json is well formed and agrees with run.py's metric
tables, then runs every workload (those BENCHMARK.json names and the one
run by hand) at smoke scale, untraced and traced, and checks that each run
passes its correctness check (smoke goldens in goldens.json) and prints
every metric of its mode by name with its unit.
Exits 1 on the first failure.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402  (the driver's metric tables)

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def check(condition, message):
    if not condition:
        print(f"selftest: FAIL {message}")
        sys.exit(1)


def check_manifest():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check(set(bench) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}, "BENCHMARK.json keys")
    names = []
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        entries = bench[key]
        check([(e["name"], e["unit"]) for e in entries] == list(table),
              f"{key} in BENCHMARK.json differs from run.py")
        for entry in entries:
            check(NAME.fullmatch(entry["name"]), f"bad metric name {entry['name']}")
            check(UNIT.fullmatch(entry["unit"]), f"bad unit {entry['unit']}")
            check(entry["better"] in ("lower", "higher"), f"bad direction {entry['name']}")
            if key == "end_to_end":
                check(0 < entry["bound"] <= 0.25, f"bad bound {entry['name']}")
            names.append(entry["name"])
    workloads = [w["name"] for w in bench["workloads"]]
    check(workloads == list(run.WORKLOADS), "workloads differ from run.py")
    names += workloads
    check(len(names) == len(set(names)), "a name is used twice")
    check(all(NAME.fullmatch(n) for n in workloads), "bad workload name")


def check_smoke_run(workload, trace):
    done = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--smoke", "--trace", str(trace)],
                          capture_output=True, text=True, timeout=run.BUILD_TIMEOUT_S + 300)
    label = f"{workload} trace={trace}"
    check(done.returncode == 0, f"{label} exited {done.returncode}: {done.stderr[-2000:]}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label} keys")
    check(result["correct"] and result["attempted"] >= 1 and result["failed"] == 0,
          f"{label} correctness: {result}")
    check(any(line.startswith("correctness:") and "golden" in line and line.endswith("match")
              for line in lines), f"{label} did not match its smoke golden")
    table = run.PER_LAYER if trace else run.END_TO_END
    check(list(result["metrics"]) == [name for name, _ in table], f"{label} metric set")
    for name, unit in table:
        check(result["metrics"][name]["unit"] == unit, f"{label} unit of {name}")
        check(any(re.fullmatch(rf"{re.escape(name)} \S+ {re.escape(unit)}( .*)?", line)
                  for line in lines), f"{label} does not print {name} with its unit")
    print(f"selftest: {label} ok ({result['attempted']} operations)")


def main():
    check_manifest()
    print("selftest: BENCHMARK.json ok")
    for workload in run.WORKLOADS + run.MANUAL_WORKLOADS:
        for trace in (0, 1):
            check_smoke_run(workload, trace)
    print("selftest: ok")


if __name__ == "__main__":
    main()
