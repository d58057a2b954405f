#!/usr/bin/env python3
"""Repository benchmark: builds perfbench from source, runs one workload for a
time budget, checks its outputs, and prints one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The perfbench binary is built with CMake into
$CARGO_TARGET_DIR (default .bench_build) on first use; the build log goes to
stderr.

Each iteration is one perfbench process (one workload per process, so peak
RSS is per iteration). Iterations repeat with the same seed until --seconds
have passed. Host figures are reported as medians over the iterations;
simulated figures must come out identical in every iteration.

--trace 0 reports the end-to-end metrics from untraced iterations.
--trace 1 alternates untraced and traced iterations (metrics, spans and the
wallclock profiler on) and reports the per-layer metrics, all taken from the
traced iterations, plus the tracing overhead. Tracing must not perturb the
simulation: the traced iterations' simulated outputs must equal the
untraced ones.

The last stdout line is {"correct", "attempted", "failed", "metrics"}; the
lines before it state the pinned environment, host metadata and the sample
count behind every quantile. perfbench/README.md maps each per-layer metric
to the end-to-end metric it should move.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("offload_bulk", "control_storm", "lease_churn", "mp2c_parallel")
QR_REFERENCE = ("BENCH_fig09.json", "fig09/qr/net3/8064")
ITERATION_TIMEOUT_S = 150

# name -> unit. Simulated metrics repeat exactly for a seed; host ones are
# medians over the iterations.
END_TO_END = {
    "wall_s": "s", "setup_s": "s", "peak_rss_mib": "MiB", "sim_s": "s",
    "req_p50_us": "us", "req_p99_us": "us", "h2d_mib_s": "MiB/s",
    "d2h_mib_s": "MiB/s", "assign_wait_p50_us": "us",
    "assign_wait_p99_us": "us",
}
HOST_E2E = ("wall_s", "setup_s", "peak_rss_mib")

OPS = ("alloc", "h2d", "d2h", "launch", "free")
PER_LAYER = {
    "sim.events": "count", "sim.switches": "count",
    "sim.host_ns_per_event": "ns",
    "sim.shard_busy_s": "s", "sim.shard_stall_s": "s", "sim.inbox_s": "s",
    "sim.stall_ratio": "ratio", "sim.windows": "count",
    "sim.merged_fallbacks": "count",
    "net.tx_bytes": "B", "net.tx_busy_s": "s",
    "net.tx_queue_delay_p99_us": "us",
    "dmpi.msgs": "count", "dmpi.eager": "count", "dmpi.rendezvous": "count",
    "daemon.requests": "count", "daemon.busy_s": "s",
    "daemon.h2d_overlap_p50_pct": "%",
    "rpc.msgs": "count", "rpc.ops": "count", "rpc.msgs_per_op": "ratio",
    "rpc.batch_size_p50": "ops",
    **{f"core.op_sim_us.{op}.{q}": "us" for op in OPS for q in ("p50", "p99")},
    "core.retries": "count",
    "gpu.compute_util": "ratio", "gpu.copy_util": "ratio",
    "la.qr_gflops": "GFLOP/s",
    "mdsim.run_sim_us": "us",
    "arm.grants": "count", "arm.preemptions": "count",
    "arm.queued_peak": "count", "arm.lease_util": "ratio",
    "raft.msgs": "count", "raft.commit_lag_p99_us": "us",
    "raft.elections": "count",
    "obs.series": "count", "obs.export_s": "s",
    "rt.cluster_ctor_s": "s", "rt.submit_s": "s", "rt.jobs": "count",
    "rt.backlog": "count",
    "trace.overhead_pct": "%", "trace.spans": "count",
    "samples.req": "count", "samples.assign": "count",
    "samples.copies": "count",
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, d) if not os.path.isabs(d) else d


def build():
    """Configures and builds perfbench; returns the binary path or None."""
    if shutil.which("cmake") is None:
        log("perfbench: cmake not found")
        return None
    bdir = os.path.join(build_dir(), "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    configure = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")) and \
            shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    compile_ = ["cmake", "--build", bdir, "--target", "perfbench", "-j", jobs]
    for cmd in (configure, compile_):
        r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True)
        if r.returncode != 0:
            log(r.stdout[-4000:])
            log("perfbench: build failed: " + " ".join(cmd))
            return None
    exe = os.path.join(bdir, "perfbench")
    return exe if os.path.exists(exe) else None


def qr_reference_ns():
    path, name = QR_REFERENCE
    with open(os.path.join(ROOT, path)) as f:
        for point in json.load(f)["results"]:
            if point["name"] == name:
                return int(point["sim_ns"])
    raise KeyError(name)


def pinned_env(workload, traced):
    """Sets every DACC_* knob the cluster defaults read, so the caller's
    environment cannot change what is measured. perfbench also sets each
    ClusterConfig field explicitly; these values agree with it."""
    env = dict(os.environ)
    env["DACC_RPC_BATCH"] = "16" if workload == "control_storm" else "0"
    env["DACC_PROF"] = "1" if traced else "0"
    env["DACC_SIM_BACKEND"] = \
        "parallel:4" if workload == "mp2c_parallel" else "coroutine"
    # One worker thread: the sharded engine (horizons, inboxes, band-gap
    # eras) runs in full, inline. With two workers on a shared 4-core host,
    # mp2c_parallel's wall time spread 25 % across runs, mostly horizon
    # stalls of a descheduled worker.
    env["DACC_SIM_PARALLEL_WORKERS"] = "1"
    env["DACC_SIM_SHARD_MAP"] = ""
    return env


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")) or not shutil.which("git"):
        return "unknown"
    r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                       stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                       text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def iterate(exe, workload, seed, traced, qr_ns, extra=()):
    cmd = [exe, "--workload", workload, "--seed", str(seed),
           "--expect-qr-ns", str(qr_ns), *extra]
    if traced:
        cmd.append("--traced")
    r = subprocess.run(cmd, cwd=ROOT, env=pinned_env(workload, traced),
                       stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                       text=True, timeout=ITERATION_TIMEOUT_S)
    if r.returncode != 0:
        raise RuntimeError(f"perfbench exited {r.returncode}: "
                           f"{r.stderr.strip()[-2000:]}")
    return json.loads(r.stdout.strip().splitlines()[-1])


def simulated_digest(it):
    """Every simulated output of one iteration; equal across iterations of a
    seed and between traced and untraced runs."""
    e2e = {k: v for k, v in it["e2e"].items() if k not in HOST_E2E}
    layer = {k: it["layer"][k] for k in (
        "sim.events", "sim.windows", "sim.merged_fallbacks", "arm.grants",
        "arm.preemptions", "mdsim.run_sim_us", "la.qr_gflops")}
    return json.dumps([it["input_digest"], e2e, it["counts"], it["ops"],
                       layer], sort_keys=True)


# Per-layer figures that are host times: medians over the traced iterations.
# perfbench reports every other per-layer figure itself, identical in every
# traced iteration.
HOST_LAYER = ("sim.shard_busy_s", "sim.shard_stall_s", "sim.inbox_s",
              "sim.stall_ratio", "obs.export_s", "rt.cluster_ctor_s",
              "rt.submit_s")


def layer_metrics(traced, untraced):
    """Per-layer metrics of the traced iterations, plus the two figures that
    compare them with the untraced ones."""
    m = {k: traced[0]["layer"][k] for k in PER_LAYER
         if k in traced[0]["layer"]}
    for k in HOST_LAYER:
        m[k] = statistics.median(t["layer"][k] for t in traced)
    wall_plain = statistics.median(u["e2e"]["wall_s"] for u in untraced)
    wall_traced = statistics.median(t["e2e"]["wall_s"] for t in traced)
    m["sim.host_ns_per_event"] = wall_plain * 1e9 / max(1, m["sim.events"])
    m["trace.overhead_pct"] = (wall_traced - wall_plain) / wall_plain * 100.0
    missing = set(PER_LAYER) - set(m)
    if missing:
        raise ValueError(f"perfbench did not report {sorted(missing)}")
    return m


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    exe = build()
    if exe is None:
        return 1
    try:
        qr_ns = qr_reference_ns()
    except (OSError, KeyError, ValueError) as e:
        log(f"perfbench: QR reference {QR_REFERENCE} unavailable: {e}")
        return 1

    traced_mode = args.trace == 1
    untraced, traced, problems = [], [], []
    start = time.monotonic()
    try:
        while True:
            for traced_run in (False, True) if traced_mode else (False,):
                (traced if traced_run else untraced).append(iterate(
                    exe, args.workload, args.seed, traced_run, qr_ns))
            if time.monotonic() - start >= args.seconds:
                break
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as e:
        log(f"perfbench: {e}")
        return 1

    runs = untraced + traced
    for it in runs:
        for name, c in it["checks"].items():
            msg = f"check {name} failed: {c['detail']}"
            if not c["ok"] and msg not in problems:
                problems.append(msg)
    digests = {simulated_digest(it) for it in untraced}
    if len(digests) != 1:
        problems.append("simulated outputs differ between iterations")
    if traced and {simulated_digest(it) for it in traced} != digests:
        problems.append("tracing perturbed the simulated outputs")

    first = untraced[0]
    if traced_mode:
        values = layer_metrics(traced, untraced)
        units = PER_LAYER
    else:
        values = {k: first["e2e"][k] for k in END_TO_END}
        for k in HOST_E2E:
            values[k] = statistics.median(u["e2e"][k] for u in untraced)
        units = END_TO_END

    meta = {
        "workload": args.workload, "seed": args.seed,
        "iterations": {"untraced": len(untraced), "traced": len(traced)},
        "host": {"nproc": os.cpu_count(), "git_sha": git_sha(),
                 "compiler": first["env"].get("compiler"),
                 "build_type": first["env"].get("build_type")},
        "pinned_env": {k: v for k, v in pinned_env(args.workload, traced_mode)
                       .items() if k.startswith("DACC_")},
        "resolved": first["env"],
        "sample_counts": first["counts"],
        "ops_sample_counts": {k: v["n"] for k, v in first["ops"].items()},
    }
    print("meta " + json.dumps(meta, sort_keys=True))
    for k in units:
        print(f"  {k:34s} {values[k]:>18.6f} {units[k]}")
    for p in problems:
        print("FAIL " + p)

    result = {
        "correct": not problems,
        "attempted": sum(it["attempted"] for it in runs),
        "failed": sum(it["failed"] for it in runs),
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
