#!/usr/bin/env python3
"""Append one measured entry to a BENCH_*.json history.

    python3 scripts/bench_history.py simcore --label "<what changed>"
    python3 scripts/bench_history.py scale --label "<what changed>"

Build the bench targets into `build/` first (`cmake --build build -j
--target bench_micro_simcore bench_macro_scale`).  `simcore` runs
micro_simcore's Scheduler benchmarks (median of 3 repetitions) and
appends to BENCH_simcore.json; `scale` runs macro_scale at 1k and 10k
nodes for 5 simulated seconds (median of 3) and appends to
BENCH_scale.json, with the 1k/10k events/s ratio.  Each entry records
the commands it ran, the host and the commit (`git describe --dirty`),
so history is generated, not typed.  The packet plane's end-to-end
record is the mtsbench paper50 workload; BENCH_packetplane.json is
frozen history.
"""

import argparse
import datetime
import json
import os
import platform
import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = Path("build")
SCALE_ENV = {"MTS_BENCH_NODES": "1000,10000", "MTS_BENCH_SIM_TIME": "5",
             "MTS_BENCH_REPS": "3"}


def host():
    model = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return f"{model}, {os.cpu_count()} logical CPUs, {platform.system()}"


def commit():
    return subprocess.run(["git", "describe", "--always", "--dirty"],
                          cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def google_benchmark(cmd):
    """Median items/s per benchmark of a Google Benchmark JSON run."""
    out = json.loads(subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                    text=True, check=True).stdout)
    return {b["run_name"]: round(b["items_per_second"])
            for b in out["benchmarks"] if b.get("aggregate_name") == "median"}


def run_simcore():
    cmd = [str(BUILD / "micro_simcore"), "--benchmark_filter=Scheduler",
           "--benchmark_min_time=0.5", "--benchmark_repetitions=3",
           "--benchmark_report_aggregates_only=true",
           "--benchmark_format=json"]
    return [(cmd, {})], {"results": google_benchmark(cmd)}


def number(cell):
    return int(cell) if cell.isdigit() else float(cell)


def run_scale():
    cmd = [str(BUILD / "macro_scale")]
    out = subprocess.run(cmd, cwd=ROOT, env={**os.environ, **SCALE_ENV},
                         capture_output=True, text=True, check=True).stdout
    rows, header = {}, None
    for line in out.splitlines():
        cells = line.split()
        if cells and cells[0] == "nodes":
            header = cells[1:]
        elif header and cells and cells[0].isdigit():
            rows[cells[0]] = dict(zip(header, map(number, cells[1:])))
    sim_time = SCALE_ENV["MTS_BENCH_SIM_TIME"]
    measured = {f"macro_scale_{sim_time}s_sim": rows}
    if "1000" in rows and "10000" in rows:
        measured["events_per_s_ratio_1000_over_10000"] = round(
            rows["1000"]["events_per_s"] / rows["10000"]["events_per_s"], 2)
    return [(cmd, SCALE_ENV)], measured


BENCHES = {"simcore": ("BENCH_simcore.json", run_simcore),
           "scale": ("BENCH_scale.json", run_scale)}


def shell(cmd, env):
    return " ".join([*(f"{k}={v}" for k, v in env.items()), *cmd])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("bench", choices=sorted(BENCHES))
    ap.add_argument("--label", required=True)
    args = ap.parse_args()
    path, run = BENCHES[args.bench]
    commands, measured = run()
    entry = {"date": datetime.date.today().isoformat(), "label": args.label,
             "command": " ; ".join(shell(c, e) for c, e in commands),
             "host": host(), "commit": commit(), **measured}
    history_file = ROOT / path
    doc = json.loads(history_file.read_text())
    doc["history"].append(entry)
    history_file.write_text(json.dumps(doc, indent=2, ensure_ascii=False) + "\n")
    print(json.dumps(entry, indent=2, ensure_ascii=False))


if __name__ == "__main__":
    main()
