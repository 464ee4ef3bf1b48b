#!/usr/bin/env python3
"""Regenerates perfbench/goldens.json from the symfail CLI.

    python3 perfbench/goldens.py --cli build/tools/symfail_cli/symfail \\
        --scale full --seeds 2007 1729

Each digest is the sha256 of what the CLI itself prints or exports for the
workload's shape, so the benchmark's own pipeline is checked against the
shipped command, not against itself:

    paper_campaign  stdout of `symfail campaign`
    wide_fleet      stdout of `symfail campaign --phones 2000 --days 1`
    sweep           `symfail sweep --json` of the idle cell, then of the
                    planes cell (8 phones x 60 days, 16 trials)

Digests for the given seeds replace existing ones; others are kept.
"""

import argparse
import hashlib
import json
import subprocess
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDENS = HERE / "goldens.json"

# (phones, days) per workload and scale; sweep also has trials per cell.
SHAPES = {
    "full": {"paper_campaign": (25, 425), "wide_fleet": (2000, 1), "sweep": (8, 60, 16)},
    "smoke": {"paper_campaign": (3, 20), "wide_fleet": (100, 1), "sweep": (3, 10, 2)},
}
PLANES = ["--flash-fault", "20", "--mem-pressure", "4", "--clock-skew", "200",
          "--radio-fault", "10"]


def cli_output(cli, workload, shape, seed):
    if workload != "sweep":
        phones, days = shape
        return subprocess.run([cli, "campaign", "--phones", str(phones), "--days",
                               str(days), "--seed", str(seed)],
                              capture_output=True, check=True).stdout
    phones, days, trials = shape
    out = b""
    with tempfile.TemporaryDirectory() as tmp:
        for extra in ([], PLANES):
            path = Path(tmp) / "sweep.json"
            subprocess.run([cli, "sweep", "--phones", str(phones), "--days", str(days),
                            "--seed", str(seed), "--trials", str(trials), "--jobs", "2",
                            "--json", str(path), *extra],
                           capture_output=True, check=True)
            out += path.read_bytes()
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--cli", required=True, help="path to the symfail binary")
    parser.add_argument("--scale", choices=sorted(SHAPES), default="full")
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args()

    goldens = json.loads(GOLDENS.read_text()) if GOLDENS.exists() else {}
    for workload, shape in SHAPES[args.scale].items():
        for seed in args.seeds:
            digest = hashlib.sha256(cli_output(args.cli, workload, shape, seed)).hexdigest()
            goldens.setdefault(workload, {}).setdefault(args.scale, {})[str(seed)] = digest
            print(f"{workload} {args.scale} seed {seed}: {digest}")
    GOLDENS.write_text(json.dumps(goldens, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
