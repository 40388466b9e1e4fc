#!/usr/bin/env python3
"""gridsim benchmark: end-to-end and per-layer cost of regenerating the paper.

Run from the repository root:

  python3 gridbench/run.py --workload nas_grid --seed 1 --seconds 30 --trace 0
  python3 gridbench/run.py --workload scale_mg --seed 1 --seconds 30 --trace 1
  python3 gridbench/run.py --steadiness --workload paper_small --runs 10
  python3 gridbench/run.py --pin

The first call builds the `gridbench` binary (this directory's CMake
package, which compiles ../src) into $CARGO_TARGET_DIR or .bench_build.

Untraced runs (--trace 0) start a fresh gridbench process per pass and keep
starting passes while the next one is expected to end within --seconds (at
least one pass); each end-to-end metric is the median over the passes
(plus set-up-only processes for catalog set-up time). Traced runs
(--trace 1) run the untraced reference, the campaign-option variants and
one traced pass, and print the per-layer metrics. Every pass's outputs are checked against the pins in pins/; the
last stdout line is one JSON object with correct/attempted/failed/metrics.
README.md in this directory documents the workloads and metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PINS = os.path.join(HERE, "pins")

WORKLOADS = ("nas_grid", "paper_small", "scale_mg")
CATALOG = ("nas_grid", "paper_small")

# The benchmark seed picks one of the pinned campaign seeds; the hold-out
# seed is pinned too but only used with --holdout.
POOL_SEEDS = (1, 2, 3, 4, 5, 6, 7, 8)
HOLDOUT_SEED = 9973

# Catalog set-up is sub-millisecond and a nas_grid run has one pass, so
# catalog runs add set-up-only processes until they have this many samples.
SETUP_SAMPLES = 10

END_TO_END = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# Per-layer metrics in print order, with units. `gridbench trace` reports
# all but the last three, which are differences of whole-pass walls.
PER_LAYER = (
    ("simcore.events", "count"),
    ("simcore.sim_span_s", "s"),
    ("simcore.events_per_s", "1/s"),
    ("simcore.peak_queue_depth", "count"),
    ("simcore.callback_heap_payloads", "count"),
    ("topology.build_s", "s"),
    ("topology.hosts", "count"),
    ("topology.rss_mb", "MB"),
    ("simnet.solves", "count"),
    ("simnet.fast_solves", "count"),
    ("simnet.fast_ratio", "ratio"),
    ("simnet.peak_component_flows", "count"),
    ("simnet.flow_events", "count"),
    ("simtcp.cwnd_samples", "count"),
    ("simtcp.loss_events", "count"),
    ("simfault.fault_events", "count"),
    ("mpi.job_build_s", "s"),
    ("mpi.p2p_messages", "count"),
    ("mpi.p2p_bytes", "bytes"),
    ("mpi.collective_messages", "count"),
    ("mpi.control_messages", "count"),
    ("mpi.comm_events", "count"),
    ("mpi.wildcard_recvs", "count"),
    ("harness.scenarios", "count"),
    ("harness.simulations", "count"),
    ("harness.trace_events", "count"),
    ("harness.scenario_self_s", "s"),
    ("simlint.analyze_s", "s"),
    ("simlint.hb_edges", "count"),
    ("simlint.races", "count"),
    ("harness.digest_s", "s"),
    ("simlint.record_s", "s"),
    ("tracing.overhead_s", "s"),
)


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def campaign_seed(seed, holdout):
    return HOLDOUT_SEED if holdout else POOL_SEEDS[seed % len(POOL_SEEDS)]


# ---------------------------------------------------------------------------
# Build and gridbench processes


def build_root():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR")
                        or ".bench_build")


def build():
    """Configures (once) and builds gridbench; returns its path."""
    build_dir = os.path.join(build_root(), "gridbench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", "3"],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "gridbench")


def invoke(binary, *args):
    """Runs one gridbench process and returns its JSON report."""
    proc = subprocess.run([binary, *args], stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise RuntimeError("gridbench %s exited with %d"
                           % (" ".join(args), proc.returncode))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_pass(binary, workload, cseed, digests=1, lint=1):
    return invoke(binary, "pass", "--workload", workload, "--seed", str(cseed),
                  "--digests", str(digests), "--lint", str(lint))


# ---------------------------------------------------------------------------
# Pins


def pin_path(workload):
    return os.path.join(PINS, workload + ".json")


def pinned_fields(result):
    return {k: v for k, v in result.items() if k not in ("status", "error")}


def load_pins(workload, cseed):
    with open(pin_path(workload)) as f:
        pins = json.load(f)
    cells = pins["seeds"].get(str(cseed))
    if cells is None:
        raise RuntimeError("no pins for %s at campaign seed %d"
                           % (workload, cseed))
    return {c["name"]: c for c in cells}


def check(results, pins, digests=True, lint=True):
    """Returns (attempted, failed) for one pass against the pins."""
    skip = set()
    if not digests:
        skip.add("digest")
    if not lint:
        skip.update(("hb_edges", "races"))
    failed = 0
    seen = set()
    for r in results:
        want = pins.get(r["name"])
        seen.add(r["name"])
        bad = r["status"] != "ok" or want is None or any(
            r.get(k) != v for k, v in want.items() if k not in skip)
        if bad:
            failed += 1
            log("MISMATCH %s: got %s, pinned %s" % (r["name"], r, want))
    missing = [name for name in pins if name not in seen]
    for name in missing:
        log("MISSING %s" % name)
    return len(results) + len(missing), failed + len(missing)


def write_pins(binary):
    os.makedirs(PINS, exist_ok=True)
    for workload in WORKLOADS:
        seeds = {}
        for cseed in POOL_SEEDS + (HOLDOUT_SEED,):
            log("pinning %s at campaign seed %d" % (workload, cseed))
            report = run_pass(binary, workload, cseed)
            bad = [r["name"] for r in report["results"] if r["status"] != "ok"]
            if bad:
                raise RuntimeError("cannot pin failed cells: %s" % bad)
            seeds[str(cseed)] = [pinned_fields(r) for r in report["results"]]
        with open(pin_path(workload), "w") as f:
            json.dump({"workload": workload,
                       "pool_seeds": list(POOL_SEEDS),
                       "holdout_seed": HOLDOUT_SEED,
                       "seeds": seeds}, f, indent=1, sort_keys=True)
            f.write("\n")


# ---------------------------------------------------------------------------
# Runs


def measure(binary, workload, cseed, seconds):
    """Untraced run: fresh-process passes for `seconds`, medians per metric."""
    pins = load_pins(workload, cseed)
    passes = []
    attempted = failed = 0
    t0 = time.monotonic()
    longest = 0.0
    # Start another pass only while it is expected to end within the
    # budget, so a run lasts about `seconds` (or one pass, if longer).
    while not passes or time.monotonic() - t0 + longest <= seconds:
        start = time.monotonic()
        report = run_pass(binary, workload, cseed)
        longest = max(longest, time.monotonic() - start)
        a, f = check(report["results"], pins)
        attempted += a
        failed += f
        passes.append(report)
    samples = {name: [p[name] for p in passes] for name, _ in END_TO_END}
    while workload in CATALOG and len(samples["setup_s"]) < SETUP_SAMPLES:
        report = invoke(binary, "setup", "--workload", workload,
                        "--seed", str(cseed))
        samples["setup_s"].append(report["setup_s"])
    metrics = {name: {"value": statistics.median(samples[name]), "unit": unit}
               for name, unit in END_TO_END}
    return {"passes": len(passes), "attempted": attempted, "failed": failed,
            "metrics": metrics}


def measure_traced(binary, workload, cseed):
    """Traced run plus the untraced passes it is compared with."""
    pins = load_pins(workload, cseed)
    attempted = failed = 0

    def checked(report, digests=True, lint=True):
        nonlocal attempted, failed
        a, f = check(report["results"], pins, digests, lint)
        attempted += a
        failed += f
        return report

    reference = checked(run_pass(binary, workload, cseed))
    spans_dir = os.path.join(build_root(), "spans")
    os.makedirs(spans_dir, exist_ok=True)
    spans = os.path.join(spans_dir, "%s-%d.jsonl" % (workload, cseed))
    traced = checked(invoke(binary, "trace", "--workload", workload,
                            "--seed", str(cseed), "--spans", spans))
    if traced["results"] != reference["results"]:
        failed += 1
        log("TRACED RUN NOT PASSIVE: traced results differ from untraced")

    layers = dict(traced["layers"])
    layers["harness.digest_s"] = 0.0
    layers["simlint.record_s"] = 0.0
    if workload in CATALOG:
        no_lint = checked(run_pass(binary, workload, cseed, lint=0), lint=False)
        bare = checked(run_pass(binary, workload, cseed, digests=0, lint=0),
                       digests=False, lint=False)
        layers["harness.digest_s"] = no_lint["wall_s"] - bare["wall_s"]
        layers["simlint.record_s"] = reference["wall_s"] - no_lint["wall_s"]
    layers["tracing.overhead_s"] = traced["wall_s"] - reference["wall_s"]

    print("traced wall %.3f s, untraced %.3f s, overhead %.3f s; spans in %s"
          % (traced["wall_s"], reference["wall_s"],
             layers["tracing.overhead_s"], os.path.relpath(spans, ROOT)))
    print("self time by span: " + ", ".join(
        "%s %.3f s" % kv for kv in sorted(traced["self_s"].items())))
    metrics = {name: {"value": layers[name], "unit": unit}
               for name, unit in PER_LAYER}
    return {"passes": 1, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def print_result(workload, seed, cseed, out):
    print("workload %s  seed %d (campaign seed %d)  passes %d"
          % (workload, seed, cseed, out["passes"]))
    for name, m in out["metrics"].items():
        print("  %-32s %14.6g %s" % (name, m["value"], m["unit"]))
    print("  %-32s %14.6g ratio (%d failed / %d attempted)"
          % ("error_rate", out["failed"] / out["attempted"], out["failed"],
             out["attempted"]))
    print(json.dumps({"correct": out["failed"] == 0,
                      "attempted": out["attempted"],
                      "failed": out["failed"],
                      "metrics": out["metrics"]}))


def steadiness(binary, workload, runs, first_seed, seconds, holdout):
    """Repeats the untraced run and prints each metric's quartiles."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bounds = {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}
    values = {name: [] for name, _ in END_TO_END}
    failed = 0
    for i in range(runs):
        seed = first_seed + i
        out = measure(binary, workload, campaign_seed(seed, holdout), seconds)
        failed += out["failed"]
        for name in values:
            values[name].append(out["metrics"][name]["value"])
        log("run %d/%d seed %d: %s" % (i + 1, runs, seed, " ".join(
            "%s=%.4g" % (n, v[-1]) for n, v in values.items())))
    print("steadiness %s: %d runs, seeds %d..%d, %d failed outputs"
          % (workload, runs, first_seed, first_seed + runs - 1, failed))
    print("  %-12s %12s %12s %12s %8s %8s" %
          ("metric", "q1", "median", "q3", "spread", "bound"))
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        print("  %-12s %12.6g %12.6g %12.6g %8.4f %8.4f"
              % (name, q1, med, q3, (q3 - q1) / med, bounds.get(name, 0)))
    return 1 if failed else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--holdout", action="store_true",
                    help="use the hold-out campaign seed instead of --seed")
    ap.add_argument("--steadiness", action="store_true",
                    help="repeat the untraced run --runs times and print "
                         "quartiles per end-to-end metric")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--pin", action="store_true",
                    help="regenerate pins/ from this checkout")
    args = ap.parse_args()
    if not args.pin and args.workload is None:
        ap.error("--workload is required")

    binary = build()
    if args.pin:
        write_pins(binary)
        return 0
    if args.steadiness:
        return steadiness(binary, args.workload, args.runs, args.seed,
                          args.seconds, args.holdout)
    cseed = campaign_seed(args.seed, args.holdout)
    if args.trace:
        out = measure_traced(binary, args.workload, cseed)
    else:
        out = measure(binary, args.workload, cseed, args.seconds)
    print_result(args.workload, args.seed, cseed, out)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (OSError, RuntimeError, subprocess.CalledProcessError) as e:
        log("gridbench: %s" % e)
        sys.exit(1)
