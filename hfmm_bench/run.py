#!/usr/bin/env python3
"""The hfmm benchmark: one run of one workload (see METRICS.md).

    python3 hfmm_bench/run.py --workload uniform|plummer|merger \
        --seed N --seconds S --trace 0|1

Builds hfmm_bench (this directory's CMake package, which compiles the
libraries from the parent directory) into $CARGO_TARGET_DIR or
.bench_build, runs it, checks every operation, and prints the metrics of
BENCHMARK.json as the last line of stdout. --trace 0 gives the end-to-end
metrics, --trace 1 the per-layer ones. A per-run report with the host, the
sample counts and any crashed process's stderr goes to .bench_out/.
"""

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("uniform", "plummer", "merger")
SETUP_PROCESSES = 5  # set-up samples, each from a fresh process
DEADLINE_S = 170.0   # after the build, every child process is stopped by then


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures and builds the measurement binary; returns its path."""
    subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                    "-DCMAKE_BUILD_TYPE=Release"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "--target", "hfmm_bench",
                    "-j", str(os.cpu_count() or 1)],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "hfmm_bench")


def source_id():
    """The git commit, or a digest of the sources when not in a git tree."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "include", "hfmm_bench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            digest.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                digest.update(fh.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


class Process:
    """One run of the measurement binary: its events and how it ended."""

    def __init__(self, argv, env, timeout, stderr_path):
        self.events = []
        self.crashed = False
        try:
            proc = subprocess.run(argv, env=env, capture_output=True,
                                  text=True, timeout=max(timeout, 1.0))
            stdout, stderr, code = proc.stdout, proc.stderr, proc.returncode
        except subprocess.TimeoutExpired as e:  # run() has killed and reaped it
            stdout = e.stdout.decode() if isinstance(e.stdout, bytes) else (e.stdout or "")
            stderr = e.stderr.decode() if isinstance(e.stderr, bytes) else (e.stderr or "")
            stderr += "\nhfmm_bench: stopped after %.0f s\n" % timeout
            code = None
        for line in stdout.splitlines():
            if line.startswith("{"):
                self.events.append(json.loads(line))
        finished = any(e["ev"] == "end" for e in self.events)
        if code != 0 or not finished:
            # An aborted process is a failed operation, never a missing one.
            self.crashed = True
            with open(stderr_path, "w") as fh:
                fh.write(stderr)
            log("hfmm_bench exited with %s; stderr kept in %s:\n%s"
                % (code, stderr_path, stderr[-2000:]))

    def of(self, kind):
        return [e["data"] for e in self.events if e["ev"] == kind]


def median(values):
    return statistics.median(values) if values else None


def tail(values):
    """Highest nearest-rank percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return None, None
    k = n - 10
    return sorted(values)[k - 1], 100.0 * k / n


def metric(value, unit):
    return {"value": value, "unit": unit}


# ---------------------------------------------------------------- end to end

def end_to_end(main, setups):
    ops = main.of("op")
    threads = [o["s"] for o in ops if o["leg"] == "threads"]
    seq = [o["s"] for o in ops if o["leg"] == "seq"]
    # Errors from the operations checked on the large target sample.
    most = max([o["targets"] for o in ops] or [0])
    checked = [o for o in ops if o["targets"] == most]
    phi = [o["phi_err"] for o in checked if not math.isnan(o["phi_err"])]
    grad = [o["grad_err"] for o in checked if not math.isnan(o["grad_err"])]
    setup = [s["s"] for p in [main] + setups for s in p.of("setup")
             if s["leg"] == "threads"]
    # Peak memory of a process that only sets up and solves once, as a user's
    # does; the main process also holds the sequential leg's solver.
    rss = [e["peak_rss_mib"] for p in setups for e in p.of("end")]
    tail_value, tail_pct = tail(threads)
    metrics = {
        "solve_s": metric(median(threads), "s"),
        "solve_s_tail": metric(tail_value, "s"),
        "seq_solve_s": metric(median(seq), "s"),
        "setup_s": metric(median(setup), "s"),
        "phi_rel_err": metric(median(phi), "1"),
        "grad_rel_err": metric(median(grad), "1"),
        "peak_rss_mb": metric(median(rss), "MiB"),
    }
    info = {"solve_samples": len(threads), "solve_s_tail_percentile": tail_pct,
            "seq_samples": len(seq), "setup_samples": setup,
            "error_targets": most, "error_samples": len(phi)}
    return metrics, info


# ---------------------------------------------------------------- per layer

def union_length(intervals, lo, hi):
    total, end = 0.0, lo
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


class Op:
    """One operation's spans: the root and its descendants."""

    def __init__(self, root, spans):
        self.root = root
        self.spans = spans
        self.children = {}
        for s in spans:
            self.children.setdefault(s["parent"], []).append(s)
        self.phases = {s["name"]: s for s in self.children.get(root["id"], [])}
        phase_ids = {p["id"] for p in self.phases.values()}
        self.stages = [s for s in spans if s["parent"] in phase_ids]

    def dur(self, s=None):
        s = s or self.root
        return s["t1"] - s["t0"]

    def self_time(self, s):
        kids = self.children.get(s["id"], [])
        return self.dur(s) - union_length([(k["t0"], k["t1"]) for k in kids],
                                          s["t0"], s["t1"])

    def phase(self, name, key="seconds"):
        p = self.phases.get(name)
        return p["attrs"].get(key, 0.0) if p else 0.0

    def layer_self(self, layer):
        return sum(self.self_time(s) for s in self.spans
                   if s["layer"] == layer and s is not self.root)

    def critical_path(self):
        """Busy time along the chain of stages that blocked the result, and
        the longest stage on it.

        The stage graph's edges are not reported, so each stage's blocking
        predecessor is taken to be the stage that finished last before it
        started. Phases run before the graph are serial and block it.
        """
        pre = sum(self.dur(p) for p in self.phases.values()
                  if not self.children.get(p["id"]))
        stages = sorted(self.stages, key=lambda s: s["t1"])
        chain = []
        pos = len(stages) - 1
        while pos >= 0:
            cur = stages[pos]
            chain.append(cur)
            pos -= 1
            while pos >= 0 and stages[pos]["t1"] > cur["t0"] + 1e-9:
                pos -= 1
        longest = max(chain, key=self.dur)["name"] if chain else None
        return pre + sum(self.dur(s) for s in chain), longest

    def serial_time(self):
        """Time with one worker busy: serial phases before the graph, plus
        graph time when a single one-worker stage runs alone."""
        pre = sum(self.dur(p) for p in self.phases.values()
                  if not self.children.get(p["id"]))
        edges = sorted({t for s in self.stages for t in (s["t0"], s["t1"])})
        serial = 0.0
        for a, b in zip(edges, edges[1:]):
            running = [s for s in self.stages if s["t0"] <= a and s["t1"] >= b]
            busy = sum(min(s["attrs"]["workers"], s["attrs"]["chunks"])
                       for s in running)
            if busy == 1:
                serial += b - a
        return pre + serial


def per_layer(main, spans, host, workload):
    roots = [s for s in spans if s["parent"] == 0]
    by_op = {}
    for s in spans:
        by_op.setdefault(s["op"], []).append(s)
    ops = [Op(r, by_op[r["op"]]) for r in roots]

    def named(*names):
        return [o for o in ops if o.root["name"] in names]

    def med(values):
        values = [v for v in values if v is not None]
        return median(values) if values else 0.0

    dynamic = workload == "merger"
    op_name = "core.step" if dynamic else "core.solve"
    warm = [o for o in named(op_name) if o.root["attrs"].get("warm")]
    threaded = [o for o in warm if o.root["attrs"]["threads"]]
    sequential = [o for o in warm if not o.root["attrs"]["threads"]]
    # Threaded solves with their stage timeline and the solver's result
    # counters. The integrator does not hand out its solves' timelines, so on
    # merger these are the checking solves of the threaded leg's states.
    with_timeline = [o for o in named("core.solve")
                     if o.root["attrs"].get("threads") and o.stages]
    results = [o.root["attrs"] for o in with_timeline]
    setups = [o for o in named("core.setup") if o.root["attrs"]["threads"]]
    workers = host["workers"]
    peak = host["peak_gflops_1core"]

    def iso(name, flops=False):
        """Median per-call seconds (or GF/s) of an isolated layer call."""
        spans_ = [o.root for o in named(name)]
        per_call = [(s["t1"] - s["t0"]) / s["attrs"]["calls"] for s in spans_]
        if flops:
            return med([s["attrs"]["flops"] / t * 1e-9
                        for s, t in zip(spans_, per_call)])
        return med(per_call)

    def rate(o, names):
        secs = sum(o.phase(n) for n in names)
        return sum(o.phase(n, "flops") for n in names) / secs * 1e-9 if secs else None

    far = ("upward", "interactive", "downward")
    ops_ = main.of("op")
    untraced = [o["s"] for o in ops_ if o["leg"] == "threads" and not o["traced"]]
    traced = [o["s"] for o in ops_ if o["leg"] == "threads" and o["traced"]]
    seq = [o["s"] for o in ops_ if o["leg"] == "seq"]
    speedup = median(seq) / median(untraced) if seq and untraced else 0.0
    steps = len(threaded)
    energy = main.of("energy")

    m = {
        "tree.active_s": (med([o.phase("active") for o in threaded]), "s"),
        "tree.build_iso_s": (iso("tree.build_iso"), "s"),
        "tree.active_boxes": (med([r["active_boxes"] for r in results]), "count"),
        "tree.front_leaves": (med([r["front_leaves"] for r in results]), "count"),
        "tree.ncrit": (med([r["ncrit"] for r in results]), "count"),
        "tree.active_reuse": (sum(o.phase("active", "plan_reuse") > 0 for o in threaded)
                              / steps if dynamic and steps else 0.0, "1/step"),
        "tree.chunks_rebuilt": (med([o.phase("active", "chunks_rebuilt")
                                     for o in threaded]), "count/step"),
        "tree.self_s": (med([o.layer_self("tree") for o in with_timeline]), "s"),
        "dp.sort_s": (med([o.phase("sort") for o in threaded]), "s"),
        "dp.sort_iso_s": (iso("dp.sort_iso"), "s"),
        "dp.movers": (med([o.phase("sort", "movers") for o in threaded]), "count/step"),
        "dp.sort_repairs": (sum(o.phase("sort", "plan_reuse") > 0 for o in threaded)
                            / steps if dynamic and steps else 0.0, "1/step"),
        "dp.self_s": (med([o.layer_self("dp") for o in with_timeline]), "s"),
        "pkern.near_s": (med([o.phase("near") for o in threaded]), "s"),
        "pkern.near_pairs": (med([o.phase("near", "pairs") for o in threaded]), "count"),
        "pkern.near_gflops": (med([rate(o, ("near",)) for o in threaded]), "GF/s"),
        "pkern.near_peak_frac": (med([rate(o, ("near",)) for o in threaded])
                                 / (workers * peak), "1"),
        "pkern.p2p_iso_gflops": (iso("pkern.p2p_iso", True), "GF/s"),
        "pkern.self_s": (med([o.layer_self("pkern") for o in with_timeline]), "s"),
        "blas.interactive_s": (med([o.phase("interactive") for o in threaded]), "s"),
        "blas.far_gflops": (med([rate(o, far) for o in threaded]), "GF/s"),
        "blas.far_peak_frac": (med([rate(o, far) for o in threaded])
                               / (workers * peak), "1"),
        "blas.gemm_iso_gflops": (iso("blas.gemm_iso", True), "GF/s"),
        "blas.peak_gflops": (peak, "GF/s"),
        "blas.self_s": (med([o.layer_self("blas") for o in with_timeline]), "s"),
        "exec.critical_path_s": (med([o.critical_path()[0] for o in with_timeline]), "s"),
        "exec.serial_s": (med([o.serial_time() for o in with_timeline]), "s"),
        "exec.speedup": (speedup, "x"),
        "exec.utilization": (speedup / workers, "1"),
        "anderson.precompute_s": (med([o.dur(o.phases["anderson.translations"])
                                       for o in setups]), "s"),
        "core.cold_solve_s": (med([o.dur(o.phases.get("core.solve")
                                         or o.phases["core.initialize"])
                                   for o in setups]), "s"),
        "core.workspace_mb": (med([r["workspace_mib"] for r in results]), "MiB"),
        "core.warm_allocs": (max([sum(o.phase(p, "allocs") for p in o.phases)
                                  for o in warm] or [0.0]), "count"),
        "core.integrator_s": (med([o.self_time(o.root) for o in sequential])
                              if dynamic else 0.0, "s"),
        "core.energy_drift": (energy[0]["drift"] if energy else 0.0, "1"),
        "core.self_s": (med([o.self_time(o.root) for o in with_timeline]), "s"),
        "trace.overhead_frac": (median(traced) / median(untraced) - 1.0
                                if traced and untraced else 0.0, "1"),
    }
    critical = [o.critical_path()[1] for o in with_timeline]
    info = {"critical_stage": max(set(critical), key=critical.count) if critical else None,
            "spans": len(spans), "traced_samples": len(traced), "untraced_samples": len(untraced),
            "timeline_solves": len(with_timeline)}
    return {k: metric(v, u) for k, (v, u) in m.items()}, info


# ---------------------------------------------------------------- main

def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    started = time.monotonic()
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    out_dir = os.path.abspath(".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        log("run.py: cannot build the benchmark: %s" % e)
        return 1

    # The library reads defaults from HFMM_* variables; the workloads set
    # their configuration explicitly and run on the library's own defaults.
    env = {k: v for k, v in os.environ.items() if not k.startswith("HFMM_")}
    stem = os.path.join(out_dir, "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace))
    base = [binary, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    spans_path = stem + ".spans.json"
    if os.path.exists(spans_path):
        os.remove(spans_path)
    if args.trace:
        base += ["--spans", spans_path]

    built = time.monotonic()

    def remaining():
        return DEADLINE_S - (time.monotonic() - built)

    main_proc = Process(base, env, remaining(), stem + ".stderr")
    setups = []
    if not args.trace:
        for k in range(1, SETUP_PROCESSES):
            setups.append(Process(base + ["--setup-only", "1"], env, remaining(),
                                  "%s.setup%d.stderr" % (stem, k)))
    procs = [main_proc] + setups

    ops = [o for p in procs for o in p.of("op")] + main_proc.of("energy")
    crashed = sum(p.crashed for p in procs)
    attempted = len(ops) + crashed
    failed = sum(not o["ok"] for o in ops) + crashed
    hosts = main_proc.of("host")
    host = hosts[0] if hosts else {}
    host["source"] = source_id()

    if args.trace:
        spans = []
        if os.path.exists(spans_path) and not main_proc.crashed:
            with open(spans_path) as fh:
                spans = json.load(fh)
        metrics, info = per_layer(main_proc, spans, host, args.workload) if spans and host \
            else ({}, {})
    else:
        metrics, info = end_to_end(main_proc, setups)
        metrics["ok_frac"] = metric(1.0 - failed / attempted if attempted else 0.0, "1")

    correct = (failed == 0 and attempted > 0 and bool(metrics)
               and all(v["value"] is not None for v in metrics.values()))
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "host": host, "correct": correct,
              "attempted": attempted, "failed": failed,
              "fail_frac": failed / attempted if attempted else None,
              "crashed_processes": crashed, "info": info, "metrics": metrics,
              "elapsed_s": time.monotonic() - started}
    with open(stem + ".json", "w") as fh:
        json.dump(report, fh, indent=1)

    print("host: %s" % json.dumps(host))
    print("info: %s" % json.dumps(info))
    print("operations: %d attempted, %d failed (fail_frac %s)"
          % (attempted, failed, report["fail_frac"]))
    for name, v in metrics.items():
        print("%-24s %s %s" % (name, v["value"], v["unit"]))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
