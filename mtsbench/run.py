#!/usr/bin/env python3
"""mtsbench: the simulator's benchmark.

    python3 mtsbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 mtsbench/run.py --all [--seed <n>] [--seconds <s>]

Run from the repository root.  The first call builds the simulator and the
workload runner from source (Release) into $CARGO_TARGET_DIR, default
`.bench_build`; later calls reuse that build.  The script turns the
workload name and seed into a runner config, runs the runner, checks its
outputs (the correctness gate) and prints the metrics by name with units.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Exit code 0 only when every
output is correct.

--trace 0 reports the end-to-end metrics (untraced runs); --trace 1 runs
the traced pass and reports the per-layer metrics.  Workloads, metric
names and what each metric should move are in BENCHMARK.json and
mtsbench/meta.json.
"""

import argparse
import fcntl
import hashlib
import json
import math
import os
import random
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import benchstats  # noqa: E402

ROOT = HERE.parent
BUILD_TIMEOUT_S = 850
RUN_DEADLINE_S = 175
# wall_s is host time rescaled to a host on which the runner's frozen
# reference loop takes this long (its typical time on the 4-vCPU VM the
# benchmark was tuned on).  The loop is benchmark code, so a change to
# the simulator moves wall_s exactly as it moves host time; a host that
# runs everything slower for a while moves both and cancels.  Each
# repetition is rescaled by the loop timed just before it, then the
# median is taken.  On that VM, over 20-25 runs per workload, the
# run-to-run spread (IQR over median) went from 0.19 raw to 0.07 on
# paper50 and from 0.11 to 0.07 on arena1k; rescaling by the median loop
# of the whole run instead left arena1k at 0.10.
REFERENCE_NOMINAL_S = 0.035

# Scenario seeds are part of each workload's definition, not drawn from
# --seed: at a fixed size the host time of a scenario moves by up to 2x
# between mobility seeds (meta.json, "seed_policy"), which would swamp
# any change under test.  --seed draws what varies without changing the
# simulated work: the order in which the runs are issued and, on paper50,
# the passive coalition's members.

WORKLOADS = {
    "paper50": {
        "kind": "scenarios", "nodes": 50, "field_m": 1000.0,
        "sim_time_s": 200, "flows": 1, "protocols": "dsr,aodv,mts,smr",
        "speeds": "10", "adversary": "colluding", "adversary_count": 4,
        "secrecy": 1, "traffic": 0, "reps": 1, "seed_base": 42,
    },
    "arena1k": {
        "kind": "scenarios", "nodes": 1000,
        "field_m": 1000.0 * math.sqrt(1000 / 50), "sim_time_s": 20,
        "flows": 10, "protocols": "mts", "speeds": "10",
        "adversary": "none", "secrecy": 0, "traffic": 0, "reps": 1,
        "seed_base": 42,
    },
    "userplane": {
        "kind": "scenarios", "nodes": 100,
        "field_m": 1000.0 * math.sqrt(100 / 50), "sim_time_s": 60,
        "flows": 1, "protocols": "mts", "speeds": "10",
        "adversary": "none", "secrecy": 0, "traffic": 1,
        "traffic_rate": 4.0, "traffic_gateways": 8, "traffic_pool": 64,
        "reps": 1, "seed_base": 42,
    },
    "sweep": {
        "kind": "sweep", "nodes": 50, "field_m": 1000.0, "sim_time_s": 10,
        "flows": 1, "protocols": "dsr,aodv,mts", "speeds": "2,5,10,15,20",
        "adversary": "none", "secrecy": 0, "traffic": 0, "reps": 4,
        "seed_base": 1,
        # Two workers, not nproc: on a shared 4-vCPU host a pass that
        # keeps every core busy spread 26% (IQR over median) across runs,
        # against 8% with two.
        "workers": 2,
    },
}

def fail(msg, code=2):
    print(f"mtsbench: {msg}", file=sys.stderr)
    sys.exit(code)


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def build_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build").resolve()


def source_digest():
    """Content hash of the simulator sources and the benchmark: the commit
    identity when the checkout is not a git repository."""
    h = hashlib.sha256()
    files = sorted(p for d in (ROOT / "src", HERE) for p in d.rglob("*")
                   if p.is_file() and "__pycache__" not in p.parts)
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        return None


def local_env(out_dir, **extra):
    """Environment that keeps compiler and runner temp files in out_dir."""
    tmp = out_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    return dict(os.environ, TMPDIR=str(tmp), **extra)


def build(out_dir):
    """Configure and build the runner; returns its path."""
    if not (ROOT / "src" / "harness" / "scenario.hpp").is_file():
        fail("simulator sources not found next to mtsbench/ "
             "(run from the repository root)")
    out_dir.mkdir(parents=True, exist_ok=True)
    env = local_env(out_dir)
    log = out_dir / "build.log"
    with open(out_dir / ".lock", "w") as lock, open(log, "a") as logf:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (out_dir / "CMakeCache.txt").exists():
            steps.append(["cmake", "-S", str(HERE), "-B", str(out_dir),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(out_dir), "-j", str(nproc()),
                      "--target", "mtsbench_runner"])
        for cmd in steps:
            try:
                r = subprocess.run(cmd, stdout=logf, stderr=subprocess.STDOUT,
                                   env=env, timeout=BUILD_TIMEOUT_S)
            except (OSError, subprocess.SubprocessError) as e:
                fail(f"build step {cmd[:2]} failed: {e}", 1)
            if r.returncode != 0:
                tail = log.read_text(errors="replace").splitlines()[-20:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed (see {log})", 1)
    return out_dir / "mtsbench_runner"


def make_config(name, seed, seconds, trace, work_dir):
    """The runner's whole input, drawn from (workload, seed) only."""
    spec = dict(WORKLOADS[name])
    rng = random.Random(f"{name}:{seed}")
    cfg = {"workload": name, "trace": int(trace), "seconds": seconds,
           "work_dir": str(work_dir)}
    cfg.update(spec)
    cfg["workers"] = min(spec.get("workers", 4), nproc())
    if spec["kind"] == "sweep":
        # The fabric issues units in grid order; permuting the axes
        # permutes that order and leaves every cell's scenarios alone.
        for axis in ("protocols", "speeds"):
            values = spec[axis].split(",")
            rng.shuffle(values)
            cfg[axis] = ",".join(values)
        cfg["order"] = ""
    else:
        n_runs = len(spec["protocols"].split(",")) * len(spec["speeds"].split(","))
        order = list(range(n_runs * spec["reps"]))
        rng.shuffle(order)
        cfg["order"] = ",".join(map(str, order))
    if spec["adversary"] == "colluding":
        members = rng.sample(range(spec["nodes"]), spec["adversary_count"])
        cfg["adversary_members"] = ",".join(map(str, sorted(members)))
    else:
        cfg["adversary_count"] = 0
        cfg["adversary_members"] = ""
    for key in ("traffic_rate", "traffic_gateways", "traffic_pool"):
        cfg.setdefault(key, 0)
    return cfg


def run_runner(runner, cfg, out_dir, deadline):
    work = Path(cfg["work_dir"])
    work.mkdir(parents=True, exist_ok=True)
    cfg_path = work / "config.txt"
    cfg_path.write_text("".join(f"{k}={v}\n" for k, v in cfg.items()))
    env = local_env(out_dir, MTS_BENCH_CACHE_DIR=str(work / "cache"),
                    MTS_BENCH_NO_CACHE="1")
    # Own session, so a timeout also stops the fabric's forked workers.
    proc = subprocess.Popen([str(runner), str(cfg_path)], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, env=env,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(10.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("workload runner exceeded its deadline", 1)
    if proc.returncode != 0:
        sys.stderr.write(err)
        fail(f"workload runner exited with {proc.returncode}", 1)
    (work / "out.json").write_text(out)
    return json.loads(out.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

def run_counts(data):
    """Per-run RunMetrics counts; runs that threw have none."""
    if "run_counts" in data:
        return data["run_counts"]
    return [r["counts"] for r in data["runs"] if r["counts"]]


def sim_delivery_rate(counts):
    """TCP packets received over sent (paper Fig. 10), mean over runs."""
    return sum(c["delivery_rate"] for c in counts) / len(counts)


def sim_interception_ratio(counts):
    """MTS's Pe/Pr under the paper's eavesdropper (Eq. 1), mean over the
    MTS runs; None without an MTS run."""
    mts = [c["interception_ratio"] for c in counts if c["protocol"] == "MTS"]
    return sum(mts) / len(mts) if mts else None


def msg_delay(counts):
    """p95 messaging delay and its sample-size proxy (userplane)."""
    flows = sum(c["msg_flows_completed"] for c in counts)
    p95 = max((c["msg_delay_p95_ms"] for c in counts), default=0.0)
    return p95, flows


def rep_walls(data):
    """Host seconds of each whole repetition (every scenario once, or one
    cold + resume pass), for the within-run quartiles."""
    if "cold_s" in data:
        return [a + b for a, b in zip(data["cold_s"], data["ingest_s"])]
    reps = min(len(r["walls"]) for r in data["runs"])
    return [sum(r["walls"][k] for r in data["runs"]) for k in range(reps)]


def wall_host_s(data):
    """Host seconds for one run of the workload: per scenario the median
    over repetitions, summed; for the sweep the median cold + resume pass."""
    if "cold_s" in data:
        return benchstats.median(
            [a + b for a, b in zip(data["cold_s"], data["ingest_s"])])
    return sum(benchstats.median(r["walls"]) for r in data["runs"])


def setup_host_s(data):
    """Host seconds per set-up pass: the median over the set-up batches."""
    return benchstats.median(data["setup_samples"])


def reference_loops(data):
    """Every reference loop timed beside a repetition."""
    if "cold_s" in data:
        return data["reference_s"]
    return [x for r in data["runs"] for x in r["refs"]]


def wall_s(data):
    """wall_host_s with each repetition rescaled for host speed."""
    if "cold_s" in data:
        return benchstats.host_rescaled(rep_walls(data), data["reference_s"],
                                        REFERENCE_NOMINAL_S)
    return sum(benchstats.host_rescaled(r["walls"], r["refs"], REFERENCE_NOMINAL_S)
               for r in data["runs"])


def end_to_end(data):
    setup = benchstats.host_rescaled(data["setup_samples"],
                                     data["setup_reference_s"],
                                     REFERENCE_NOMINAL_S)
    return {"wall_s": wall_s(data),
            "setup_s": setup,
            "peak_rss_mib": data["peak_rss_mib"],
            "sim_delivery_rate": sim_delivery_rate(run_counts(data))}


def gate_timed(data, gate):
    """Fingerprint gate: every repetition at one seed reproduces."""
    if "runs" in data:
        for r in data["runs"]:
            if not r["fingerprints"] or not benchstats.all_equal(r["fingerprints"]):
                gate.append(f"{r['label']}: fingerprints differ across "
                            f"repetitions: {sorted(set(r['fingerprints']))}")
    elif not data["fingerprints"] or not benchstats.all_equal(data["fingerprints"]):
        gate.append("sweep: merged rows differ across repetitions")
    for c in run_counts(data):
        if c["heap_fallback_closures"] != 0:
            gate.append(f"{c['protocol']}: heap_fallback_closures="
                        f"{c['heap_fallback_closures']}")


def sum_of(counts, key):
    return sum(c[key] for c in counts)


def per_layer(data, spans):
    counts = data["run_counts"]
    own = benchstats.self_time_by_name(spans)
    events = sum_of(counts, "events")
    m = {"sim.events": events}
    for cat in ("channel", "phy", "mac", "routing", "transport", "security"):
        m[f"sim.events.{cat}"] = sum_of(counts, f"events.{cat}")
    untraced_s = benchstats.median(data["untraced_s"])
    m["sim.events_per_s"] = events / untraced_s
    m["sim.heap_fallback_closures"] = sum_of(counts, "heap_fallback_closures")
    m["phy.index_rebuilds"] = sum_of(counts, "index_rebuilds")
    m["phy.index_rebuild_allocs"] = sum_of(counts, "index_rebuild_allocs")
    m["mobility.peak_live_legs"] = max(c["peak_live_legs"] for c in counts)
    m["phy.index_query_ns"] = data["index_query_ns"]
    m["mac.drops.queue_full"] = sum_of(counts, "drops.queue_full")
    m["mac.drops.retry_exceeded"] = sum_of(counts, "drops.mac_retry_exceeded")
    m["phy.drops.collision"] = sum_of(counts, "drops.collision")
    m["routing.control_packets"] = sum_of(counts, "control_packets")
    m["routing.forwards"] = data["trace_forwards"]
    m["routing.delivers"] = data["trace_delivers"]
    fwd, dlv = data["trace_data_forwards"], data["trace_data_delivers"]
    m["routing.hops_per_delivery"] = (fwd + dlv) / dlv if dlv else 0.0
    m["routing.hop_latency_ms_p50"] = data["hop_latency_ms_p50"]
    m["routing.hop_latency_ms_p95"] = data["hop_latency_ms_p95"]
    for reason in ("no_route", "send_buffer_timeout", "stale_route"):
        m[f"routing.drops.{reason}"] = sum_of(counts, f"drops.{reason}")
    m["core.route_switches"] = sum_of(counts, "route_switches")
    m["tcp.retransmits"] = sum_of(counts, "retransmits")
    m["tcp.timeouts"] = sum_of(counts, "timeouts")
    sent = sum_of(counts, "data_packets_sent")
    m["tcp.useful_ratio"] = sum_of(counts, "segments_delivered") / sent if sent else 0.0
    m["security.sniffed"] = sum_of(counts, "pe")
    m["security.shares_captured"] = sum_of(counts, "shares_captured")
    m["security.keys_recovered"] = sum_of(counts, "keys_recovered")
    for proto in ("DSR", "AODV", "MTS", "SMR"):
        rows = [c for c in counts if c["protocol"] == proto]
        m[f"security.interception_ratio.{proto.lower()}"] = (
            sum(c["interception_ratio"] for c in rows) / len(rows) if rows else 0.0)
    m["net.wire_encode_ns"] = data["wire_encode_ns"]
    m["net.wire_decode_ns"] = data["wire_decode_ns"]
    started = sum_of(counts, "sessions_started")
    m["traffic.sessions_started"] = started
    m["traffic.sessions_completed"] = sum_of(counts, "sessions_completed")
    rejected = sum_of(counts, "sessions_rejected")
    m["traffic.rejected_frac"] = rejected / (started + rejected) if started + rejected else 0.0
    p95, flows = msg_delay(counts)
    m["traffic.msg_delay_p95_ms"] = p95
    m["traffic.msg_flows_completed"] = flows
    m["stats.digest_add_ns"] = data["digest_add_ns"]
    # Self time of the traced run_scenario spans, per round.
    m["harness.run_scenario_s"] = (own.get("harness.run_scenario", 0.0) /
                                   len(data["traced_s"]))
    m["harness.fabric_cold_s"] = data["fabric_cold_s"]
    m["harness.fabric_ingest_s"] = data["fabric_ingest_s"]
    m["harness.units"] = data["fabric_units"]
    m["harness.units_failed"] = data["fabric_units_failed"]
    m["harness.attempts"] = data["fabric_attempts"]
    m["harness.csv_write_ns_per_row"] = data["csv_write_ns_per_row"]
    m["harness.csv_parse_ns_per_row"] = data["csv_parse_ns_per_row"]
    m["harness.cache_key_us"] = data["cache_key_us"]
    m["trace.overhead_frac"] = benchstats.median(overhead_pairs(data))
    return m


def overhead_pairs(data):
    """Traced over untraced host time minus 1, per back-to-back pair of
    runs of one scenario."""
    return [t / u - 1.0 for t, u in zip(data["pair_traced_s"],
                                         data["pair_untraced_s"]) if u > 0]


def gate_traced(data, gate):
    if data["fingerprints"] != data["traced_fingerprints"]:
        gate.append("subscribing a TraceHub sink changed a fingerprint")
    for c in data["run_counts"]:
        if c["heap_fallback_closures"] != 0:
            gate.append(f"{c['protocol']}: heap_fallback_closures != 0")


def load_spans(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------

def run_one(name, seed, seconds, trace, runner, out_dir, deadline):
    work = out_dir / "work" / f"{name}-s{seed}-t{int(trace)}"
    cfg = make_config(name, seed, seconds, trace, work)
    raw = run_runner(runner, cfg, out_dir, deadline)
    data = raw["data"]
    gate = list(raw["errors"])
    units = meta_units("per_layer" if trace else "end_to_end")
    try:
        if trace:
            gate_traced(data, gate)
            metrics = per_layer(data, load_spans(data["spans_file"]))
        else:
            gate_timed(data, gate)
            metrics = end_to_end(data)
    except (ValueError, ZeroDivisionError, KeyError) as e:
        # Every run threw: there is nothing to aggregate.
        gate.append(f"metrics could not be computed: {e!r}")
        metrics = {}
    attempted = int(raw["attempted"])
    failed = int(raw["failed"])
    counts = run_counts(data)
    p95, flows = msg_delay(counts)
    if name == "userplane" and not benchstats.percentile_supported(flows, 0.95):
        gate.append(f"p95 messaging delay over {flows} flows has fewer than "
                    f"ten samples beyond it")
    if gate and failed == 0:
        failed = 1  # a correctness-gate failure fails at least one operation
    failed = min(failed, attempted)
    provenance = {
        "workload": name, "seed": seed, "trace": int(trace),
        "commit": git_commit(), "source_digest": source_digest(),
        "build_type": raw["build_type"], "compiler": raw["compiler"],
        "nproc": nproc(), "seconds": seconds,
        "sim_time_s": cfg["sim_time_s"], "config": cfg,
        "repetitions": data.get("reps", 1),
        "reference_loop_s": reference_loops(data) if not trace else None,
        "fingerprints": data.get("fingerprints") or
        [f for r in data.get("runs", []) for f in r["fingerprints"][:1]],
    }
    report = {
        "correct": not gate, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]}
                    for k in units if k in metrics},
    }
    print("provenance: " + json.dumps(provenance, sort_keys=True))
    for r in data.get("runs", []):
        print(f"fingerprint {r['label']}: {r['fingerprints'][0] if r['fingerprints'] else '-'}")
    if "cold_s" in data and data["fingerprints"]:
        print(f"fingerprint merged rows (FNV-1a): {data['fingerprints'][0]}")
    if not trace:
        print(f"  failed_frac = {benchstats.failed_frac(attempted, failed):.6g} "
              f"({failed}/{attempted} operations)")
        if metrics:
            ref = benchstats.median(reference_loops(data))
            print(f"  wall_host_s = {wall_host_s(data):.6g} s (reference loop "
                  f"{ref * 1e3:.4g} ms; wall_s rescales to "
                  f"{REFERENCE_NOMINAL_S * 1e3:.4g} ms)")
            print(f"  setup_host_s = {setup_host_s(data):.6g} s per pass over "
                  f"{len(data['setup_samples'])} batches (reference loop "
                  f"{benchstats.median(data['setup_reference_s']) * 1e3:.4g} ms)")
            reps = rep_walls(data)
            if len(reps) >= 2:
                q1, q2, q3 = benchstats.quartiles(reps)
                print(f"  repetitions: n={len(reps)} host s median {q2:.4g}, "
                      f"quartiles {q1:.4g} / {q3:.4g}")
        # Fidelity outputs defined on one workload each: printed, not
        # bounded, since they are zero or meaningless on the others.
        ratio = sim_interception_ratio(counts)
        if name == "paper50" and ratio is not None:
            print(f"  sim_interception_ratio = {ratio:.6g} ratio")
        if name == "userplane":
            print(f"  sim_msg_delay_p95_ms = {p95:.6g} ms over {flows} "
                  f"messaging flows")
    if trace and "pair_traced_s" in data:
        ratios = overhead_pairs(data)
        line = (f"  trace.overhead_frac over {len(ratios)} untraced/traced pairs "
                f"in {len(data['traced_s'])} rounds")
        if len(ratios) >= 2:
            q1, _, q3 = benchstats.quartiles(ratios)
            line += f", quartiles {q1:.4g} / {q3:.4g}"
        print(line)
    for k in report["metrics"]:
        print(f"  {k} = {metrics[k]:.6g} {units[k]}")
    for g in gate:
        print(f"GATE: {g}")
    results = out_dir / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{name}-s{seed}-t{int(trace)}.json").write_text(
        json.dumps({"provenance": provenance, "result": report}, indent=1))
    return report


def benchmark_json():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def default_seconds():
    """The measuring window the bounds were proven on."""
    return float(benchmark_json()["run_seconds"])


def meta_units(section):
    return {m["name"]: m["unit"] for m in benchmark_json()[section]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--all", action="store_true",
                    help="run every workload, untraced then traced")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float,
                    help="measuring window (default: BENCHMARK.json run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not args.all and not args.workload:
        ap.error("--workload or --all is required")
    if not (ROOT / "BENCHMARK.json").is_file():
        fail("BENCHMARK.json not found at the repository root")
    if args.seconds is None:
        args.seconds = default_seconds()
    deadline = time.monotonic() + RUN_DEADLINE_S
    out_dir = build_dir()
    runner = build(out_dir)
    # The build may take the first call's extra allowance; the run itself
    # still gets its full deadline.
    deadline = max(deadline, time.monotonic() + RUN_DEADLINE_S - 10)
    if args.all:
        ok = True
        for name in WORKLOADS:
            for trace in (0, 1):
                print(f"== {name} trace={trace}")
                rep = run_one(name, args.seed, args.seconds, trace, runner,
                              out_dir, time.monotonic() + RUN_DEADLINE_S)
                ok = ok and rep["correct"] and rep["failed"] == 0
                print(json.dumps(rep))
        sys.exit(0 if ok else 1)
    rep = run_one(args.workload, args.seed, args.seconds, args.trace, runner,
                  out_dir, deadline)
    print(json.dumps(rep))
    sys.exit(0 if rep["correct"] and rep["failed"] == 0 else 1)


if __name__ == "__main__":
    main()
