#!/usr/bin/env python3
"""Build and run bench_step, and print its metrics.

Three ways to run it, all from any directory of a checkout:

  python3 bench/step/run.py --workload gravity --seed 3 --seconds 15 --trace 0
      One workload. The last line of stdout is one JSON object:
      {"correct", "attempted", "failed", "metrics"} with the end-to-end
      metrics of BENCHMARK.json (--trace 0) or its per-layer metrics
      (--trace 1).

  python3 bench/step/run.py --out=result.json [--seed N] [--seconds S]
      A full pass: every workload untraced and traced, each in its own
      process. Prints every metric with its unit and writes them, with
      the machine they ran on, to result.json (input of compare.py).

  python3 bench/step/run.py --smoke [--out=result.json]
      Every workload at 5000 particles and 4 timed steps. Asserts that
      every metric of BENCHMARK.json is reported with its unit and that
      every correctness check ran and passed.

The exit status is nonzero when the build fails, a run fails, or a
check fails. See README.md for the metric definitions.
"""

import argparse
import fcntl
import json
import math
import os
import platform
import re
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BUILD = ROOT / ".bench_build" / "step"
BINARY = BUILD / "bench_step"
WORKLOADS = ["gravity", "sph", "disk", "gravity_durable"]
# Checks each workload must run (and pass) in every full run.
EXPECTED_CHECKS = {
    "gravity": ["accel_rms_rel_err"],
    "sph": ["density_max_rel_err"],
    "disk": ["partner_mismatch_frac"],
    "gravity_durable": ["accel_rms_rel_err", "durable_newest_step"],
}
# Workloads on which each layer does work. A metric whose counter or span
# is missing there is reported as null with a warning (the program's
# instrumentation changed); missing elsewhere it is 0 (the layer did no
# work). Unlisted prefixes are expected on every workload.
HOME = {
    "kernel.": {"gravity"},
    "checkpoint.": {"gravity_durable"},
}
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(code)


def load_benchmark():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        fail("no BENCHMARK.json at " + str(ROOT))
    return json.loads(path.read_text())


def build():
    """Configure and build bench_step from this checkout's sources."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail("the library sources (CMakeLists.txt, src/) are not in " + str(ROOT))
    BUILD.mkdir(parents=True, exist_ok=True)
    log = BUILD / "build.log"
    with open(BUILD / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        jobs = str(min(4, os.cpu_count() or 1))
        steps = [
            ["cmake", "-S", str(HERE), "-B", str(BUILD),
             "-DCMAKE_BUILD_TYPE=Release"],
            ["cmake", "--build", str(BUILD), "--target", "bench_step",
             "-j", jobs],
        ]
        with open(log, "w") as out:
            for cmd in steps:
                if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                                  cwd=ROOT).returncode != 0:
                    tail = log.read_text().splitlines()[-30:]
                    print("\n".join(tail), file=sys.stderr)
                    fail("build failed (full log: %s)" % log, 3)


def run_binary(workload, seed, trace, extra):
    """Run bench_step once; returns its raw result dict, or None."""
    out_dir = BUILD / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    out = out_dir / ("%s-%d-%s.json" % (workload, seed, "trace" if trace else "e2e"))
    if out.exists():
        out.unlink()
    cmd = [str(BINARY), "--workload=" + workload, "--seed=%d" % seed,
           "--out=" + str(out), "--work-dir=" + str(BUILD / "tmp")] + extra
    if trace:
        cmd.append("--trace")
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    try:
        proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # The TCP workload forks rank processes: stop the whole group.
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("run.py: %s timed out after %d s" % (workload, RUN_TIMEOUT_S),
              file=sys.stderr)
        return None
    if not out.is_file():
        print("run.py: %s exited %d without a result" % (workload, proc.returncode),
              file=sys.stderr)
        return None
    return json.loads(out.read_text())


def percentile(values, q):
    """Nearest-rank percentile: with 40 samples p75 has 10 beyond it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def full_jobs(raw):
    return [j for j in raw["jobs"] if j["name"] != "setup_only"]


def tally(raw):
    """(attempted, failed) over steps, set-ups and checks."""
    attempted = failed = 0
    for job in raw["jobs"]:
        if job["name"] == "setup_only":
            attempted += 1
        else:
            attempted += max(1, len(job["step_s"])) + len(job["checks"])
            failed += sum(1 for c in job["checks"] if not c["passed"])
        failed += 1 if job["error"] else 0
    return attempted, failed


def checks_ok(raw, workload):
    """Every expected check ran in every checked run, and all passed."""
    for job in full_jobs(raw):
        if job["name"] == "serial_1x1":
            continue
        names = [c["name"] for c in job["checks"]]
        if names != EXPECTED_CHECKS[workload]:
            return False
        if not all(c["passed"] for c in job["checks"]):
            return False
    return all(not j["error"] for j in raw["jobs"])


def end_to_end(raw):
    main = raw["jobs"][0]
    steps = main["step_s"]
    return {
        "step_s.p50": statistics.median(steps),
        "step_s.p75": percentile(steps, 0.75),
        "particle_steps_per_s":
            raw["n_particles"] * len(steps) / main["timed_wall_s"],
        "setup_s": statistics.median(j["setup_s"] for j in raw["jobs"]),
        "peak_rss_mb": raw["peak_rss_mb"],
    }


class Layers:
    """Per-step readings of the traced run's spans and counters."""

    def __init__(self, raw, workload, warnings):
        self.jobs = {j["name"]: j for j in raw["jobs"]}
        self.traced = self.jobs["traced"]
        self.steps = len(self.traced["step_s"])
        self.workload = workload
        self.warnings = warnings

    def _missing(self, metric, what):
        home = next((h for p, h in HOME.items() if metric.startswith(p)), None)
        if home is None or self.workload in home:
            self.warnings.append("%s: %s not recorded; reported as null"
                                 % (metric, what))
            return None
        return 0.0

    def span(self, metric, *names, field="total_s"):
        """Summed seconds per step of the named spans."""
        spans = self.traced["spans"]
        found = [spans[n][field] for n in names if n in spans]
        if not found:
            return self._missing(metric, "span " + "/".join(names))
        return sum(found) / self.steps

    def counter(self, metric, name):
        """Counter delta per step."""
        counters = self.traced["counters"]
        if name not in counters:
            return self._missing(metric, "counter " + name)
        return counters[name] / self.steps

    def counters(self, metric, pattern):
        """Sum per step of the counters whose names match `pattern`."""
        hits = [v for k, v in self.traced["counters"].items()
                if re.fullmatch(pattern, k)]
        if not hits:
            return self._missing(metric, "counters " + pattern)
        return sum(hits) / self.steps


def ratio(a, b):
    if a is None or b is None:
        return None
    return a / b if b else 0.0


def per_layer(raw, workload, warnings):
    L = Layers(raw, workload, warnings)
    m = {}
    m["decomp.decompose_s"] = L.span("decomp.decompose_s", "decompose")
    m["decomp.splitters_s"] = L.span("decomp.splitters_s", "decompose.splitters")
    m["decomp.scatter_s"] = L.span("decomp.scatter_s", "decompose.scatter")
    m["tree.build_s"] = L.span("tree.build_s", "build")
    m["traversal.traverse_s"] = L.span(
        "traversal.traverse_s", "traverse.top_down", "traverse.up_and_down",
        "traverse.dual_tree", "traverse.priority")
    pp = L.counter("traversal.pp_interactions", "traversal.interactions.pp")
    pn = L.counter("traversal.pn_interactions", "traversal.interactions.pn")
    m["traversal.pp_interactions"] = pp
    m["traversal.pn_interactions"] = pn
    m["traversal.interactions_per_s"] = (
        None if pp is None or pn is None else ratio(pp + pn, m["traversal.traverse_s"]))

    m["kernel.node_s"] = L.span("kernel.node_s", "kernel.node_phase")
    m["kernel.leaf_s"] = L.span("kernel.leaf_s", "kernel.leaf_phase")
    m["kernel.record_s"] = L.span("kernel.record_s", "kernel.record_phase")
    m["kernel.drain_s"] = L.span("kernel.drain_s", "kernel.drain_overlap",
                                 "kernel.batch_eval")
    sealed = L.counter("kernel.eager_frac", "kernel.sealed_total")
    m["kernel.eager_frac"] = ratio(
        L.counter("kernel.eager_frac", "kernel.sealed_early"), sealed)
    # Flops of the batched kernel, with GravityVisitor's per-interaction
    # estimates as the binary reports them: zero when it did not run.
    if pp is None or pn is None or sealed is None:
        m["kernel.flops"] = None
    elif sealed:
        m["kernel.flops"] = pp * raw["flops_per_pp"] + pn * raw["flops_per_pn"]
    else:
        m["kernel.flops"] = 0.0
    kernel_s = (None if m["kernel.node_s"] is None or m["kernel.leaf_s"] is None
                else m["kernel.node_s"] + m["kernel.leaf_s"])
    gflops = ratio(m["kernel.flops"], kernel_s)
    m["kernel.gflops_est"] = None if gflops is None else gflops / 1e9

    m["cache.fills"] = L.counter("cache.fills", "cache.fills")
    m["cache.pauses"] = L.counter("cache.pauses", "cache.pauses")
    m["cache.shared_waits"] = L.counter("cache.shared_waits", "cache.shared_waits")
    m["cache.dedup_ratio"] = ratio(m["cache.shared_waits"], m["cache.pauses"])
    m["cache.bytes_received"] = L.counter("cache.bytes_received",
                                          "cache.bytes_received")
    m["cache.fill_s"] = L.span("cache.fill_s", "cache.fill")

    m["rts.tasks"] = L.counter("rts.tasks", "rts.tasks_executed")
    m["rts.messages"] = L.counter("rts.messages", "rts.messages")
    m["rts.message_bytes"] = L.counter("rts.message_bytes", "rts.message_bytes")
    busy = L.counters("rts.busy_frac", r"rts\.worker\..*\.busy_ns")
    idle = L.counters("rts.busy_frac", r"rts\.worker\..*\.idle_ns")
    m["rts.busy_frac"] = (None if busy is None or idle is None
                          else ratio(busy, busy + idle))
    m["rts.starved_s"] = None if idle is None else idle / 1e9
    p50 = statistics.median(L.jobs["reference"]["step_s"])
    serial = L.jobs.get("serial_1x1")
    m["rts.speedup_vs_1x1"] = (statistics.median(serial["step_s"]) / p50
                               if serial else 0.0)

    m["checkpoint.s"] = L.span("checkpoint.s", "checkpoint")
    m["checkpoint.persist_s"] = L.span("checkpoint.persist_s", "checkpoint.persist")
    m["checkpoint.bytes"] = L.counter("checkpoint.bytes", "checkpoint.bytes")
    m["checkpoint.disk_bytes"] = L.counter("checkpoint.disk_bytes",
                                           "checkpoint.disk_bytes")

    m["driver.flush_gather_s"] = L.span("driver.flush_gather_s", "flush.gather")
    m["app.traversal_hook_s"] = L.span("app.traversal_hook_s", "app.traversal",
                                       field="self_s")
    m["app.post_traversal_s"] = L.span("app.post_traversal_s",
                                       "app.post_traversal", field="self_s")
    parts = [m["decomp.decompose_s"], m["tree.build_s"], m["traversal.traverse_s"],
             m["checkpoint.s"], m["driver.flush_gather_s"],
             m["app.traversal_hook_s"], m["app.post_traversal_s"]]
    step_mean = L.traced["timed_wall_s"] / L.steps
    m["step.unattributed_s"] = (None if any(p is None for p in parts)
                                else step_mean - sum(parts))

    m["trace.overhead"] = statistics.median(L.traced["step_s"]) / p50
    m["trace.dropped"] = float(L.traced["trace_dropped"])
    m["result_err"] = L.jobs["reference"]["checks"][0]["value"]
    attempted, failed = tally(raw)
    m["failed_frac"] = failed / attempted
    return m


def measure(workload, seed, trace, extra):
    """Run one workload; returns (correct, attempted, failed, metrics,
    checks, warnings) with metrics as {name: value} (None when unknown)."""
    raw = run_binary(workload, seed, trace, extra)
    if raw is None:
        return False, 1, 1, {}, [], ["no result"]
    attempted, failed = tally(raw)
    correct = failed == 0 and checks_ok(raw, workload)
    warnings = []
    if not correct:
        metrics = {}
    elif trace:
        metrics = per_layer(raw, workload, warnings)
    else:
        metrics = end_to_end(raw)
    checks = [dict(c, run=j["name"]) for j in raw["jobs"] for c in j["checks"]]
    return correct, attempted, failed, metrics, checks, warnings


def with_units(values, specs):
    return {s["name"]: {"value": values.get(s["name"]), "unit": s["unit"]}
            for s in specs}


def machine():
    info = {"nproc": os.cpu_count(), "kernel": platform.release()}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu_model"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    l3 = Path("/sys/devices/system/cpu/cpu0/cache/index3/size")
    info["l3_cache"] = l3.read_text().strip() if l3.is_file() else "unknown"
    # gravity_durable checkpoints under BUILD/tmp: label the disk numbers.
    fs = subprocess.run(["stat", "-f", "-c", "%T", str(BUILD)],
                        capture_output=True, text=True)
    info["fs_type"] = fs.stdout.strip() or "unknown"
    return info


def print_metrics(workload, metrics, specs, stream):
    for s in specs:
        v = metrics.get(s["name"])
        text = "null" if v is None else "%.6g" % v
        print("  %-16s %-30s %14s %s" % (workload, s["name"], text, s["unit"]),
              file=stream)


def driver_run(args, bench):
    build()
    trace = args.trace == 1
    specs = bench["per_layer"] if trace else bench["end_to_end"]
    extra = [] if trace else ["--seconds=%g" % args.seconds]
    correct, attempted, failed, metrics, _, warnings = measure(
        args.workload, args.seed, trace, extra)
    for w in warnings:
        print("warning: " + w, file=sys.stderr)
    print_metrics(args.workload, metrics, specs, sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": with_units(metrics, specs)}))
    return 0 if correct else 1


def full_pass(args, bench, smoke):
    build()
    if smoke:
        # 4 timed steps after 2 warm-ups; 1 set-up per run.
        e2e_extra = ["--n=5000", "--steps=4", "--setups=1", "--seconds=0"]
        trace_extra = ["--n=5000", "--steps=4"]
    else:
        e2e_extra = ["--seconds=%g" % args.seconds]
        trace_extra = []
    started = time.time()
    result = {"schema": "bench_step.v1", "seed": args.seed,
              "seconds": 0 if smoke else args.seconds, "smoke": smoke,
              "machine": machine(), "workloads": {}}
    ok = True
    problems = []
    for workload in WORKLOADS:
        entry = {"checks": [], "warnings": []}
        attempted_total = failed_total = 0
        for trace, extra, key, specs in (
                (False, e2e_extra, "end_to_end", bench["end_to_end"]),
                (True, trace_extra, "per_layer", bench["per_layer"])):
            correct, attempted, failed, metrics, checks, warnings = measure(
                workload, args.seed, trace, extra)
            ok = ok and correct
            attempted_total += attempted
            failed_total += failed
            entry[key] = with_units(metrics, specs)
            entry["checks"] += checks
            entry["warnings"] += warnings
            if not correct:
                problems.append("%s (%s): a run or check failed"
                                % (workload, key))
            if smoke:
                # `correct` already covers the checks (checks_ok).
                for s in specs:
                    if metrics.get(s["name"]) is None:
                        problems.append("%s: %s not reported"
                                        % (workload, s["name"]))
        entry["correct"] = failed_total == 0
        entry["attempted"] = attempted_total
        entry["failed"] = failed_total
        # Whole-workload share of failed steps and checks.
        entry["end_to_end"]["failed_frac"] = {
            "value": failed_total / attempted_total, "unit": "1"}
        result["workloads"][workload] = entry
        print("%s:" % workload)
        print_metrics(workload, {k: v["value"] for k, v in entry["end_to_end"].items()},
                      bench["end_to_end"] + [{"name": "failed_frac", "unit": "1"}],
                      sys.stdout)
        print_metrics(workload, {k: v["value"] for k, v in entry["per_layer"].items()},
                      bench["per_layer"], sys.stdout)
        for w in entry["warnings"]:
            print("  warning: " + w)
        sys.stdout.flush()
    if args.out:
        Path(args.out).write_text(json.dumps(result) + "\n")
        print("results written to " + args.out)
    elapsed = time.time() - started
    print("%s pass took %.1f s" % ("smoke" if smoke else "full", elapsed))
    if smoke and elapsed > 30:
        problems.append("smoke pass took %.1f s (limit 30 s)" % elapsed)
    for p in problems:
        print("FAILED: " + p, file=sys.stderr)
    return 0 if ok and not problems else 1


def main():
    bench = load_benchmark()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", help="full pass: write results here")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if args.workload:
        return driver_run(args, bench)
    if args.out or args.smoke:
        return full_pass(args, bench, args.smoke)
    parser.error("give --workload (one run), --out (full pass) or --smoke")


if __name__ == "__main__":
    sys.exit(main())
