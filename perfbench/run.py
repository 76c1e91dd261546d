#!/usr/bin/env python3
"""The repository benchmark: one command for every workload and metric.

Builds the simulator library and the measuring binary from source (a
Release build under .bench_build/ at the checkout root), runs one workload
for a wall-clock budget, checks the simulated outputs, and prints every
metric by name with its unit. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

    python3 perfbench/run.py --workload udp_prio --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload udp_prio --seed 1 --seconds 10 --trace 1
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

--trace 0 reports the end-to-end metrics of untraced runs. --trace 1 runs
untraced and traced repetitions alternately and reports the per-layer
metrics; the benchmark's own spans go to .bench_build/traces/. --workload
all runs every workload both ways and writes .bench_build/results.json.

Exit status: 0 on success; 1 when the correctness gate fails (the result
line is still printed, with "correct": false); 2 when the simulator
sources are missing or the build fails; 3 when the build is a Debug or
sanitizer build, whose timings are refused.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC = os.path.join(ROOT, "BENCHMARK.json")
WORKLOADS = ["udp_prio", "udp_cached", "tcp_web", "cluster_lanes"]
RUN_TIMEOUT_S = 170
# Calibration speeds that throughput is scaled to: the random-access loop
# in M ops per CPU second and the streaming loop in GB per CPU second. The
# 4-core VM the benchmark was defined on ran them at 70-130 and 9-15.
NOMINAL_RANDOM_MOPS = 100.0
NOMINAL_STREAM_GBPS = 12.0


def fail(code, msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "cmake")


def build():
    """Configures once, then builds incrementally; returns the binary."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(2, "simulator sources (src/) not found next to perfbench/")
    if shutil.which("cmake") is None:
        fail(2, "cmake not found")
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail(2, "build failed: " + " ".join(cmd))
    return os.path.join(out, "prism_perfbench")


def git_commit():
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
        if r.returncode == 0:
            return r.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def measure(binary, args, workload, seed, trace, spans_out=None):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(args.seconds), "--trace", "1" if trace else "0",
           "--profile", args.profile]
    if args.inject_violation:
        cmd.append("--inject-violation")
    if spans_out:
        cmd += ["--spans-out", spans_out]
    try:
        r = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(2, "measuring binary timed out: " + " ".join(cmd))
    if r.returncode != 0:
        sys.stderr.write(r.stderr)
        fail(2, "measuring binary failed: " + " ".join(cmd))
    return json.loads(r.stdout)


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def gate(doc):
    """Correctness gate over one invocation's repetitions.

    A repetition fails when it reports a conservation violation or when
    its digest differs from the reference repetition's (same seed; on the
    cluster the reference ran on one thread). Returns (attempted, failed,
    problems).
    """
    reps = doc["reps"]
    ref = reps[0]["digest"]
    attempted = failed = 0
    problems = []
    for i, r in enumerate(reps):
        bad = list(r["violations"])
        if r["digest"] != ref:
            bad.append("digest differs from the reference repetition "
                       "(%s, %d thread(s))" % (reps[0]["kind"],
                                               reps[0]["threads"]))
        attempted += r["attempted"]
        if bad:
            failed += r["attempted"]
            problems += ["rep %d (%s): %s" % (i, r["kind"], b) for b in bad]
        else:
            failed += r["attempted"] - r["answered"]
    return attempted, failed, problems


def digest_id(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def manifest(doc, seed):
    m = dict(doc["build"])
    m["sanitizer"] = m["sanitizer"] or "none"
    m.update({"nproc": os.cpu_count(), "seed": seed,
              "threads": doc["threads"], "git_commit": git_commit(),
              "profile": doc["profile"], "machine": platform.machine()})
    return m


def refuse_unfit_build(m):
    if (m["sanitizer"] != "none"
            or m["build_type"] not in ("Release", "RelWithDebInfo")):
        fail(3, "refusing to report timings from a %s build (sanitizer: %s)"
             % (m["build_type"], m["sanitizer"]))


def print_reps(doc):
    print("%-4s %-7s %3s %9s %8s %8s %8s %6s %6s %12s  %s" % (
        "rep", "kind", "thr", "setup_ms", "wall_s", "cpu_s", "wall/cpu",
        "steal", "speed", "frames/s", "digest"))
    for i, r in enumerate(doc["reps"]):
        print("%-4d %-7s %3d %9.3f %8.3f %8.3f %8.3f %6s %6.3f %12.0f  %s" % (
            i, r["kind"], r["threads"], 1e3 * r["setup_s"], r["run_wall_s"],
            r["run_cpu_s"], r["run_wall_s"] / r["run_cpu_s"],
            r["steal_ticks"], speed_factor(r),
            r["server_frames"] / r["run_wall_s"], digest_id(r["digest"])))


def speed_factor(rep):
    """The core's speed around a repetition relative to the nominal one:
    the geometric mean of the two calibration loops' relative speeds."""
    return math.sqrt(rep["cal_random_mops"] / NOMINAL_RANDOM_MOPS
                     * rep["cal_stream_gbps"] / NOMINAL_STREAM_GBPS)


def calibrated(frames, seconds, rep):
    """Frames per second at the nominal calibration speed."""
    return frames / seconds / speed_factor(rep)


def throughput(timed, seconds):
    """Per-repetition frames per second, and how the run reports them.

    Other tenants of a shared VM slow the host in phases lasting a minute
    or more, enough to swallow a whole run. A single-threaded run is
    scaled, repetition by repetition, by the speed the calibration loop
    (one core) measured around it, and reports the median. A
    multi-threaded run's speed rests on cross-core handoffs the loop does
    not measure, so it is left unscaled and reports its best repetition:
    interference only ever slows a repetition down.
    """
    if all(r["threads"] == 1 for r in timed):
        return [calibrated(r["server_frames"], r[seconds], r)
                for r in timed], statistics.median
    return [r["server_frames"] / r[seconds] for r in timed], max


def end_to_end(doc):
    """Each metric's (value, q1, median, q3, n) over the run.

    Set-up time is the median of the set-ups sampled over the run; the
    simulated metrics are deterministic per seed.
    """
    timed = [r for r in doc["reps"] if r["kind"] == "timed"]
    ref = doc["reps"][0]
    wall, wall_value = throughput(timed, "run_wall_s")
    cpu, cpu_value = throughput(timed, "run_cpu_s")
    series = {
        "frames_per_s": wall,
        "frames_per_cpu_s": cpu,
        "setup_s": doc["setup_s"],
        "peak_rss_mib": [doc["peak_rss_mib"]],
        "probe_p50_us": [ref["probe_p50_us"]],
        "probe_p99_us": [ref["probe_p99_us"]],
        "bg_goodput_frac": [ref["bg_delivered"] / ref["bg_sent"]],
    }
    value = {"frames_per_s": wall_value, "frames_per_cpu_s": cpu_value}
    return {k: (value.get(k, statistics.median)(v),) + quartiles(v)
            + (len(v),) for k, v in series.items()}


def per_layer(doc):
    reps = doc["reps"]
    traced = [r for r in reps if r["kind"] == "traced"]
    untraced = [r for r in reps if r["kind"] == "timed"]
    t = traced[-1]
    c = t["counts"]
    L = doc["layers"]
    frames = t["server_frames"]

    def per_frame(x):
        return x / frames if frames else 0.0

    def frac(a, b):
        return a / b if b else 0.0

    cpu_untraced = statistics.median(r["run_cpu_s"] for r in untraced)
    cpu_traced = statistics.median(r["run_cpu_s"] for r in traced)
    fc_lookups = c["overlay.flowcache_hits"] + c["overlay.flowcache_misses"]
    # Estimated CPU seconds spent in each timed layer: calls per run (from
    # the program's own counters) times ns per call (timed from outside).
    attributed_ns = (
        t["events"] * L["sim.queue_op_ns"]
        + (t["server_frames"] + t["client_frames"])
        * (L["frame.parse_ns"] + L["frame.csum_ns"])
        + c["overlay.fdb_lookups"] * L["overlay.fdb_lookup_ns"]
        + fc_lookups * L["overlay.flowcache_probe_ns"]
        + c["overlay.flowcache_insertions"] * L["overlay.flowcache_fill_ns"]
        + c["telemetry.counter_incs"] * L["telemetry.counter_inc_ns"]
        + c["telemetry.ledger_records"]
        * (L["telemetry.ledger_record_ns"] + L["telemetry.should_trace_ns"]))
    attributed = attributed_ns * 1e-9 / cpu_untraced

    m = {
        "sim.events_per_frame": per_frame(t["events"]),
        "sim.queue_op_ns": L["sim.queue_op_ns"],
        "sim.mean_pending_events": t["mean_pending"],
        "sim.lane_windows": c.get("sim.lane_windows", 0.0),
        "sim.lane_barrier_frac": c.get("sim.lane_barrier_frac", 0.0),
        "sim.lane_busy_frac": c.get("sim.lane_busy_frac", 0.0),
        "sim.lane_spills": c.get("sim.lane_spills", 0.0),
        "nic.ring_drops": c["nic.ring_drops"],
        "nic.irqs_per_frame": per_frame(c["nic.irqs"]),
        "kernel.polls_per_frame": per_frame(c["kernel.polls"]),
        "kernel.time_squeeze": c["kernel.time_squeeze"],
        "kernel.backlog_drops": c["kernel.backlog_drops"],
        "kernel.rx_cpu_util": c["kernel.rx_busy_ns"]
        / (t["servers"] * t["sim_end_ns"]),
        "kernel.ring_wait_p99_us": t["ring_wait_p99_us"],
        "kernel.stage2_wait_p99_us": t["stage2_wait_p99_us"],
        "kernel.stage3_wait_p99_us": t["stage3_wait_p99_us"],
        "kernel.gro_frames_per_skb": frac(frames,
                                          frames - c["kernel.gro_merged"]),
        "kernel.skb_pool_reuse_frac": frac(t["skb_reused"],
                                           t["skb_acquired"]),
        "kernel.buffer_pool_reuse_frac": frac(t["buf_reused"],
                                              t["buf_acquired"]),
        "net.parse_ns_64B": L["net.parse_ns_64B"],
        "net.parse_ns_mtu": L["net.parse_ns_mtu"],
        "net.csum_ns_64B": L["net.csum_ns_64B"],
        "net.csum_ns_mtu": L["net.csum_ns_mtu"],
        "overlay.fdb_lookup_ns": L["overlay.fdb_lookup_ns"],
        "overlay.fdb_lookups_per_frame": per_frame(c["overlay.fdb_lookups"]),
        "overlay.flowcache_hit_frac": frac(c["overlay.flowcache_hits"],
                                           fc_lookups),
        "overlay.flowcache_probe_ns": L["overlay.flowcache_probe_ns"],
        "overlay.flowcache_fill_ns": L["overlay.flowcache_fill_ns"],
        "telemetry.counter_incs_per_frame": per_frame(
            c["telemetry.counter_incs"]),
        "telemetry.counter_inc_ns": L["telemetry.counter_inc_ns"],
        "telemetry.ledger_record_ns": L["telemetry.ledger_record_ns"],
        "telemetry.should_trace_ns": L["telemetry.should_trace_ns"],
        "telemetry.recorder_events_per_frame": per_frame(
            c["telemetry.recorder_events"]),
        "harness.build_s": statistics.median(r["build_s"] for r in reps),
        "harness.containers_s": statistics.median(r["containers_s"]
                                                  for r in reps),
        "harness.apps_s": statistics.median(r["apps_s"] for r in reps),
        "trace.attributed_frac": attributed,
        "trace.unattributed_frac": 1.0 - attributed,
        "trace.overhead_frac": cpu_traced / cpu_untraced - 1.0,
    }
    return m


def load_spec():
    with open(SPEC) as f:
        return json.load(f)


def run_one(binary, args, workload, trace):
    """One invocation of the measuring binary; prints the report and
    returns (result, problems, manifest)."""
    spec = load_spec()
    spans_out = None
    if trace:
        traces = os.path.join(os.path.dirname(os.path.dirname(binary)),
                              "traces")
        os.makedirs(traces, exist_ok=True)
        spans_out = os.path.join(traces, "%s-seed%d.json"
                                 % (workload, args.seed))
    doc = measure(binary, args, workload, args.seed, trace, spans_out)
    m = manifest(doc, args.seed)
    refuse_unfit_build(m)
    attempted, failed, problems = gate(doc)

    print("== %s seed=%d trace=%d" % (workload, args.seed, int(trace)))
    print("manifest: " + " ".join("%s=%s" % kv for kv in m.items()))
    print_reps(doc)
    ref = doc["reps"][0]
    same = all(r["digest"] == ref["digest"] for r in doc["reps"])
    print("digest %s: %s across %d repetitions (reference: %s on %d "
          "thread(s))" % (digest_id(ref["digest"]),
                          "identical" if same else "MISMATCH",
                          len(doc["reps"]), ref["kind"], ref["threads"]))
    print("fail_frac = %d / %d = %.6f" % (failed, attempted,
                                          failed / max(1, attempted)))
    for p in problems:
        print("FAIL: " + p)

    metrics = {}
    if not trace:
        units = {e["name"]: e["unit"] for e in spec["end_to_end"]}
        e2e = end_to_end(doc)
        print("%-18s %14s %14s %14s %14s %5s %s" % (
            "metric", "value", "q1", "median", "q3", "n", "unit"))
        for name, unit in units.items():
            value, q1, med, q3, n = e2e[name]
            print("%-18s %14.6g %14.6g %14.6g %14.6g %5d %s" % (
                name, value, q1, med, q3, n, unit))
            metrics[name] = {"value": value, "unit": unit}
        timed = [r for r in doc["reps"] if r["kind"] == "timed"]
        raw = [r["server_frames"] / r["run_wall_s"] for r in timed]
        print("unscaled frames/s: median %.6g, best %.6g; median speed "
              "factor %.3f" % (statistics.median(raw), max(raw),
                               statistics.median(speed_factor(r)
                                                 for r in timed)))
        beyond = ref["probe_samples"] - int(0.99 * ref["probe_samples"])
        print("probe samples: %d (%d beyond p99)" % (ref["probe_samples"],
                                                     beyond))
    else:
        units = {e["name"]: e["unit"] for e in spec["per_layer"]}
        layers = per_layer(doc)
        for name, unit in units.items():
            print("%-36s %14.6g %s" % (name, layers[name], unit))
            metrics[name] = {"value": layers[name], "unit": unit}
        if spans_out:
            print("spans: " + os.path.relpath(spans_out, ROOT))
    result = {"correct": not problems, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return result, problems, m


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--profile", choices=["full", "short"], default="full",
                    help="short: ~10x shorter simulated runs (self-tests)")
    ap.add_argument("--inject-violation", action="store_true",
                    help="self-test: report one background packet more "
                         "than was sent, breaking conservation")
    args = ap.parse_args()

    binary = build()
    if args.workload != "all":
        result, problems, _ = run_one(binary, args, args.workload,
                                      bool(args.trace))
        print(json.dumps(result))
        return 1 if problems else 0

    # Every workload, untraced then traced; one results file.
    results = {"claim": None, "runs": []}
    status = 0
    for w in WORKLOADS:
        for trace in (False, True):
            result, problems, m = run_one(binary, args, w, trace)
            results["runs"].append({"workload": w, "trace": int(trace),
                                    "manifest": m, "result": result})
            status = status or (1 if problems else 0)
            print()
    out = os.path.join(os.path.dirname(os.path.dirname(binary)),
                       "results.json")
    with open(out, "w") as f:
        json.dump(results, f, indent=1)
    summary = {"correct": status == 0,
               "attempted": sum(r["result"]["attempted"]
                                for r in results["runs"]),
               "failed": sum(r["result"]["failed"] for r in results["runs"]),
               "metrics": {}}
    print("results: " + os.path.relpath(out, ROOT))
    print(json.dumps(summary))
    return status


if __name__ == "__main__":
    sys.exit(main())
