#!/usr/bin/env python3
"""fcqss benchmark: build the driver from source, run one workload, and
report its metrics as one JSON line (see perfbench/README.md).

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py sweep --workload W --seeds 1-10 [--seconds S]
                                   [--trace 0|1] [--out runs.jsonl]
    python3 perfbench/run.py compare before.jsonl after.jsonl
    python3 perfbench/run.py test [--full]
    python3 perfbench/run.py describe --workload W --seed N

Run from the root of a checkout.  The build goes to $CARGO_TARGET_DIR
(default .bench_build) under the checkout; nothing is written elsewhere.
"""

import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["synth_fc", "serve_mix", "explore_full", "explore_budget"]
DEFAULT_SEEDS = {"synth_fc": 7, "serve_mix": 13, "explore_full": 3, "explore_budget": 3}
HELD_OUT_SEEDS = {"synth_fc": 101, "serve_mix": 113, "explore_full": 103, "explore_budget": 107}
# Counts that must repeat exactly across runs and worker counts.
DETERMINISTIC = ["qss.allocations", "qss.reductions", "qss.resource_limits",
                 "codegen.c_bytes", "explore.states", "explore.edges"]


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, path) if not os.path.isabs(path) else path


def build():
    """Configures and builds the driver; returns its path or None."""
    out = os.path.join(build_dir(), "perfbench")
    log = sys.stderr
    steps = [
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out, "-j4", "--target", "perfbench_driver"],
    ]
    if os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps = steps[1:]
    for step in steps:
        if subprocess.run(step, stdout=log, stderr=log).returncode != 0:
            return None
    return os.path.join(out, "perfbench_driver")


def driver_env():
    env = dict(os.environ)
    tmp = os.path.join(build_dir(), "tmp")  # spill files of the chunk pager
    os.makedirs(tmp, exist_ok=True)
    env["TMPDIR"] = tmp
    return env


def run_driver(driver, args, capture=False):
    proc = subprocess.run([driver] + args, env=driver_env(), cwd=ROOT,
                          stdout=subprocess.PIPE if capture else None, text=True)
    return proc.returncode, proc.stdout


def last_json(stdout):
    lines = (stdout or "").strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def options(argv):
    opts = {}
    i = 0
    while i < len(argv):
        if not argv[i].startswith("--"):
            raise SystemExit("unexpected argument " + argv[i])
        key = argv[i][2:]
        if key in ("smoke", "full"):
            opts[key] = True
            i += 1
        elif i + 1 < len(argv):
            opts[key] = argv[i + 1]
            i += 2
        else:
            raise SystemExit("missing value for " + argv[i])
    return opts


def spread(values):
    """Distance between the first and third quartile, as a share of the median."""
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q[2] - q[0]) / med if med else 0.0


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


# -- sweep ---------------------------------------------------------------------

def cmd_sweep(driver, opts):
    workloads = opts.get("workload", ",".join(WORKLOADS)).split(",")
    seeds = parse_seeds(opts.get("seeds", "1-10"))
    seconds = opts.get("seconds", str(load_benchmark()["run_seconds"]))
    trace = opts.get("trace", "0")
    out = open(opts["out"], "a") if "out" in opts else None
    ok = True
    for workload in workloads:
        values = {}
        for seed in seeds:
            start = time.time()
            code, stdout = run_driver(driver, ["--workload", workload, "--seed", str(seed),
                                               "--seconds", seconds, "--trace", trace],
                                      capture=True)
            result = last_json(stdout) if code in (0, 1) else None
            wall = time.time() - start
            if result is None:
                print(f"{workload} seed {seed}: exit {code}, no result", flush=True)
                ok = False
                continue
            ok = ok and code == 0 and result["correct"]
            metrics = {k: v["value"] for k, v in result["metrics"].items()}
            print(f"{workload} seed {seed}: exit {code} wall {wall:.1f}s correct "
                  f"{result['correct']} " + " ".join(f"{k}={v:.6g}" for k, v in metrics.items()),
                  flush=True)
            for k, v in metrics.items():
                values.setdefault(k, []).append(v)
            if out:
                out.write(json.dumps({"workload": workload, "seed": seed, "trace": int(trace),
                                      "wall_s": round(wall, 2), "result": result}) + "\n")
                out.flush()
        for k, v in values.items():
            print(f"  {workload:15s} {k:30s} median {statistics.median(v):14.6g} "
                  f"spread {spread(v):.3f}")
    return 0 if ok else 1


# -- compare -------------------------------------------------------------------

def read_runs(path):
    runs = {}
    with open(path) as f:
        for line in f:
            record = json.loads(line)
            if record.get("trace", 0):
                continue
            for name, metric in record["result"]["metrics"].items():
                runs.setdefault(record["workload"], {}).setdefault(name, []).append(
                    metric["value"])
    return runs


def verdict(before, after, better, bound):
    """better / no worse / worse / unresolved, by the benchmark's bound."""
    sign = 1 if better == "lower" else -1
    med_b, med_a = statistics.median(before), statistics.median(after)
    worsening = sign * (med_a - med_b) / med_b if med_b else 0.0
    spread_b, spread_a = spread(before), spread(after)
    all_better = all(sign * a < sign * b for a in after for b in before)
    if all_better or (worsening < 0 and -worsening > spread_b and spread_b <= bound):
        return "better"
    if max(spread_b, spread_a) > bound:
        return "unresolved"
    return "worse" if worsening > bound else "no worse"


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def cmd_compare(paths):
    metrics = {m["name"]: m for m in load_benchmark()["end_to_end"]}
    before, after = read_runs(paths[0]), read_runs(paths[1])
    print(f"{'workload':15s} {'metric':18s} {'before q1/med/q3':>36s} "
          f"{'after q1/med/q3':>36s}  verdict")
    worse = False
    for workload in sorted(set(before) & set(after)):
        for name, spec in metrics.items():
            b, a = before[workload].get(name), after[workload].get(name)
            if not b or not a:
                continue
            v = verdict(b, a, spec["better"], spec["bound"])
            worse = worse or v == "worse"
            fmt = lambda q: "/".join(f"{x:.5g}" for x in q)
            print(f"{workload:15s} {name:18s} {fmt(quartiles(b)):>36s} "
                  f"{fmt(quartiles(a)):>36s}  {v}")
    return 1 if worse else 0


# -- the benchmark's own tests ------------------------------------------------

def traced_counts(driver, workload, seed, jobs, smoke):
    args = ["--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", "1",
            "--jobs", str(jobs)] + (["--smoke"] if smoke else [])
    code, stdout = run_driver(driver, args, capture=True)
    result = last_json(stdout)
    if code != 0 or not result or not result["correct"]:
        return None
    return {k: result["metrics"][k]["value"] for k in DETERMINISTIC}


def cmd_test(driver, opts):
    failures = []

    def check(ok, message):
        print(("ok   " if ok else "FAIL ") + message, flush=True)
        if not ok:
            failures.append(message)

    # Smoke size of every workload, plain and traced, on the default and the
    # held-out seed: each finishes in seconds with every check passing.
    for workload in WORKLOADS:
        for seed in (DEFAULT_SEEDS[workload], HELD_OUT_SEEDS[workload]):
            for trace in ("0", "1"):
                start = time.time()
                code, stdout = run_driver(driver, ["--workload", workload, "--seed", str(seed),
                                                   "--seconds", "1", "--trace", trace,
                                                   "--smoke"], capture=True)
                result = last_json(stdout)
                wall = time.time() - start
                check(code == 0 and result is not None and result["correct"] and wall < 60,
                      f"smoke {workload} seed {seed} trace {trace} ({wall:.1f}s)")

    # Deterministic counts repeat across two runs and across 1 vs 4 workers.
    for workload in ("synth_fc", "explore_full", "explore_budget"):
        seed = DEFAULT_SEEDS[workload]
        runs = [traced_counts(driver, workload, seed, jobs, True) for jobs in (4, 4, 1)]
        check(runs[0] is not None and runs[0] == runs[1] == runs[2],
              f"deterministic counts {workload} (4, 4, 1 workers): {runs}")

    if opts.get("full"):
        # Full size on the default seeds: the counts the benchmark doc quotes.
        synth = traced_counts(driver, "synth_fc", 7, 4, False)
        check(synth is not None and synth["qss.allocations"] == 3713617
              and synth["qss.reductions"] == 5459,
              f"synth_fc seed 7 allocations/reductions: {synth}")
        explore = traced_counts(driver, "explore_full", 3, 4, False)
        check(explore is not None and explore["explore.states"] == 1078272,
              f"explore_full seed 3 states: {explore}")
        for workload in WORKLOADS:
            seed = HELD_OUT_SEEDS[workload]
            code, stdout = run_driver(driver, ["--workload", workload, "--seed", str(seed),
                                               "--seconds", "2", "--trace", "0"], capture=True)
            result = last_json(stdout)
            check(code == 0 and result is not None and result["correct"],
                  f"held-out seed {seed} on {workload}")
    print(f"{len(failures)} failed")
    return 1 if failures else 0


def main(argv):
    command = argv[0] if argv and not argv[0].startswith("--") else "run"
    rest = argv[1:] if command != "run" else argv
    if command == "compare":
        return cmd_compare(rest)
    driver = build()
    if driver is None:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    if command == "run":
        code, _ = run_driver(driver, rest)
        return code
    opts = options(rest)
    if command == "sweep":
        return cmd_sweep(driver, opts)
    if command == "test":
        return cmd_test(driver, opts)
    if command == "describe":
        code, _ = run_driver(driver, ["--describe", "--workload", opts["workload"],
                                      "--seed", opts["seed"]] +
                             (["--smoke"] if opts.get("smoke") else []))
        return code
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
