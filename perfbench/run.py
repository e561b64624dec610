#!/usr/bin/env python3
"""End-to-end benchmark of the Lumiere reproduction (see perfbench/README.md).

Benchmark contract, run from the root of a checkout:

  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

builds perfbench/ (the protocol library from src/ plus the benchmark) into
$CARGO_TARGET_DIR (default .bench_build), runs the workload in its own
process and prints one JSON object as the last line of standard output:
end-to-end metrics with --trace 0, per-layer metrics with --trace 1.

Other commands:

  --selftest               feed each correctness check a corrupted input
  --determinism [--seed n] two same-seed traced runs of each sim workload
                           must report identical per-layer counts and
                           client request traces
  --refcounts [--seed n]   print the deterministic per-layer counts of the
                           sim workloads (the README's reference counts)
  --steadiness [--runs k] [--workload name ...]
                           run workloads k times on seeds 1..k and print each
                           end-to-end metric's median, quartiles and spread
                           beside its bound in BENCHMARK.json
"""

import argparse
import fcntl
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SIM_WORKLOADS = ["sim-n64-byz", "sim-n16-dissem-faults"]
CHILD_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build():
    """Configures and builds both binaries; returns the build directory."""
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    with open(out / ".build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # one build at a time per checkout
        jobs = str(min(4, os.cpu_count() or 1))
        steps = [
            ["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            ["cmake", "--build", str(out), "-j", jobs, "--target", "perfbench", "perfbench_traced"],
        ]
        # The compiler's temporary files stay inside the checkout too.
        env = dict(os.environ, TMPDIR=str(out / "tmp"))
        (out / "tmp").mkdir(exist_ok=True)
        for step in steps:
            done = subprocess.run(step, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
                                  env=env)
            if done.returncode != 0:
                log(done.stdout[-4000:])
                raise SystemExit("perfbench: build failed: " + " ".join(step))
    return out


def run_binary(out, name, args):
    """Runs one benchmark binary; returns its parsed last JSON line."""
    cmd = [str(out / name)] + args
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"perfbench: {' '.join(cmd)} did not finish in {CHILD_TIMEOUT_S} s")
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"perfbench: {' '.join(cmd)} printed no result (exit {done.returncode})")
    return json.loads(lines[-1])


def measure(out, workload, seed, seconds, trace):
    """One benchmark run in the contract's output form."""
    common = ["--workload", workload, "--seed", str(seed)]
    if not trace:
        r = run_binary(out, "perfbench", common + ["--seconds", str(seconds)])
        return {"correct": r["correct"], "attempted": r["attempted"], "failed": r["failed"],
                "metrics": r["metrics"]}
    # The traced run and an untraced run of the same single round: their
    # ratio is the tracing overhead (wall time of the measured window on
    # the simulator; CPU per committed request on TCP, whose window is a
    # fixed wall span).
    base = run_binary(out, "perfbench", common + ["--rounds", "1"])
    traced = run_binary(out, "perfbench_traced", common + ["--rounds", "1"])
    if workload.startswith("tcp"):
        num, den = traced["window_cpu_ms_per_kreq"], base["window_cpu_ms_per_kreq"]
    else:
        num, den = traced["window_wall_s"], base["window_wall_s"]
    metrics = dict(traced["metrics"])
    metrics["trace.overhead"] = {"value": num / den if den > 0 else 0.0, "unit": "ratio"}
    return {"correct": base["correct"] and traced["correct"],
            "attempted": base["attempted"] + traced["attempted"],
            "failed": base["failed"] + traced["failed"],
            "metrics": metrics}


# Per-layer metrics that repeat exactly on the simulator for one seed.
SIM_CLOCK_METRICS = {"workload.sim_commit_p50_ms", "workload.sim_commit_p99_ms",
                     "workload.sim_max_commit_gap_ms", "dissem.cert_p50_ms"}


def deterministic_counts(metrics):
    return {k: v["value"] for k, v in sorted(metrics.items())
            if k in SIM_CLOCK_METRICS or
            (v["unit"] not in ("ms", "s", "KB/req") and not k.startswith(("proc.", "trace.")))}


def determinism(out, seed):
    ok = True
    for workload in SIM_WORKLOADS:
        args = ["--workload", workload, "--seed", str(seed), "--rounds", "1"]
        a = run_binary(out, "perfbench_traced", args)
        b = run_binary(out, "perfbench_traced", args)
        u = run_binary(out, "perfbench", args)
        ca, cb = deterministic_counts(a["metrics"]), deterministic_counts(b["metrics"])
        diff = [k for k in ca if ca[k] != cb.get(k)]
        same_digest = a["digest"] == b["digest"] == u["digest"]
        print(f"{workload}: {len(ca)} per-layer counts, {len(diff)} differ; request-trace digests "
              f"{'identical' if same_digest else 'DIFFER'} ({a['digest'][:16]})")
        for k in diff:
            print(f"  {k}: {ca[k]} vs {cb.get(k)}")
        ok = ok and not diff and same_digest and a["correct"] and b["correct"]
    print("determinism:", "ok" if ok else "FAILED")
    return 0 if ok else 1


def fmt(value):
    return str(int(value)) if float(value).is_integer() else f"{value:.6g}"


def refcounts(out, seed):
    results = {w: deterministic_counts(run_binary(
        out, "perfbench_traced", ["--workload", w, "--seed", str(seed), "--rounds", "1"])["metrics"])
        for w in SIM_WORKLOADS}
    print(f"| metric (seed {seed}, one round) | " + " | ".join(SIM_WORKLOADS) + " |")
    print("|---|" + "---:|" * len(SIM_WORKLOADS))
    for k in results[SIM_WORKLOADS[0]]:
        print(f"| `{k}` | " + " | ".join(fmt(results[w][k]) for w in SIM_WORKLOADS) + " |")
    return 0


def steadiness(out, runs, workloads, seconds, trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    workloads = workloads or [w["name"] for w in spec["workloads"]]
    ok = True
    for workload in workloads:
        values, shares, correct = {}, set(), True
        for seed in range(1, runs + 1):
            r = measure(out, workload, seed, seconds, trace)
            correct = correct and r["correct"]
            shares.add((r["failed"], r["attempted"]) if r["failed"] else 0)
            for k, v in r["metrics"].items():
                values.setdefault(k, []).append(v["value"])
        print(f"== {workload}: {runs} runs, seeds 1..{runs}, correct={correct}, "
              f"failed shares={sorted(map(str, shares))}")
        print(f"   {'metric':<28} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for k, vs in sorted(values.items()):
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0], 0, vs[0])
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(k)
            flag = ""
            if bound is not None and k != "setup_s":
                flag = "ok" if spread < bound / 3 else ("WIDE" if spread <= bound else "OVER")
                ok = ok and spread <= bound
            print(f"   {k:<28} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>8.4f} "
                  f"{bound if bound is not None else '-':>6} {flag}")
        ok = ok and correct
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", action="append")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--selftest", action="store_true")
    p.add_argument("--determinism", action="store_true")
    p.add_argument("--refcounts", action="store_true")
    p.add_argument("--steadiness", action="store_true")
    p.add_argument("--runs", type=int, default=10)
    a = p.parse_args()

    out = build()
    if a.selftest:
        return subprocess.run([str(out / "perfbench"), "--selftest"], timeout=CHILD_TIMEOUT_S).returncode
    if a.determinism:
        return determinism(out, a.seed)
    if a.refcounts:
        return refcounts(out, a.seed)
    if a.steadiness:
        return steadiness(out, a.runs, a.workload, a.seconds, a.trace == 1)
    if not a.workload or len(a.workload) != 1:
        p.error("exactly one --workload is required")
    result = measure(out, a.workload[0], a.seed, a.seconds, a.trace == 1)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
