#!/usr/bin/env python3
"""The repository benchmark: one command per workload.

    python3 perfbench/run.py --workload hidden_tora --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. It builds perfbench_driver (and the
simulator library from src/) into .bench_build/, runs the workload, checks
the program's outputs (the driver's correctness gate), and prints:

* one `perfbench record:` line with provenance, every figure it measured
  by name and unit, and the correctness checks;
* as the last line, one JSON object with `correct`, `attempted`, `failed`
  and `metrics`: the end-to-end metrics of BENCHMARK.json with --trace 0,
  its per-layer metrics with --trace 1.

It exits non-zero when a check failed, and without a result line when the
build or the run cannot happen (for example outside a checkout).

Steadiness mode runs one workload back to back and prints each metric's
median, quartiles and spread against its bound:

    python3 perfbench/run.py --steady --workload ess_poisson --runs 10
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import metrics  # noqa: E402

WORKLOADS = ("hidden_tora", "dynamic_wtop", "ess_poisson", "sweep_resume")
BUILD_DIR = ".bench_build"


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def load_spec():
    try:
        with open("BENCHMARK.json") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json in the working directory: %s" % e)


def scratch_env():
    """The environment the build and the driver see: temporary files stay
    inside the checkout."""
    tmp = os.path.abspath(os.path.join(BUILD_DIR, "tmp"))
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env["TMPDIR"] = tmp
    return env


def build():
    """Configures (once) and builds the driver; exits on failure."""
    log_path = os.path.join(BUILD_DIR, "build.log")
    os.makedirs(BUILD_DIR, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--parallel",
                  str(os.cpu_count() or 2), "--target", "perfbench_driver"])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              env=scratch_env()).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed (%s); see %s" % (" ".join(cmd), log_path))
    return os.path.join(BUILD_DIR, "perfbench_driver")


def provenance(raw, args):
    """Host fingerprint, compiler, build type, source revision and seed."""
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    revision = "none (not a git checkout)"
    if os.path.isdir(".git"):
        r = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                           text=True)
        if r.returncode == 0:
            revision = r.stdout.strip()
    digest = hashlib.sha256()
    for root, dirs, files in os.walk("src"):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(root, name)
            digest.update(path.encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return {
        "host": {"nproc": os.cpu_count(), "cpu_model": model},
        "compiler": raw["info"].get("compiler"),
        "build_type": raw["info"].get("build_type"),
        "git_revision": revision,
        "src_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def run_once(args, spec):
    driver = build()
    # Scratch left by a perfbench_driver that was killed: it names its
    # directories by pid, so nothing else cleans them up.
    shutil.rmtree(os.path.join(BUILD_DIR, "tmp"), ignore_errors=True)
    raw_path = os.path.join(BUILD_DIR, "raw_%d.json" % os.getpid())
    log_path = os.path.join(BUILD_DIR, "driver.log")
    cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", raw_path]
    try:
        with open(log_path, "w") as log:
            code = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                  env=scratch_env()).returncode
        if code == 2 or not os.path.exists(raw_path):
            with open(log_path) as f:
                sys.stderr.write(f.read()[-4000:])
            fail("driver could not run (exit %d)" % code)
        with open(raw_path) as f:
            raw = json.load(f)
    finally:
        if os.path.exists(raw_path):
            os.remove(raw_path)

    checks_ok = code == 0 and all(c["ok"] for c in raw["checks"])
    correct = checks_ok and raw["failed"] == 0
    if args.trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        reported = metrics.per_layer(raw, units)
    else:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        reported = metrics.end_to_end(raw, units)
    extras = metrics.record_extras(raw)

    record = {
        "provenance": provenance(raw, args),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in reported.items()},
        "also_measured": {k: {"value": v, "unit": u} for k, (v, u) in extras.items()},
        "workload_shape": raw["info"],
        "checks": {
            "run": len(raw["checks"]),
            "failed": [c for c in raw["checks"] if not c["ok"]],
        },
    }
    results = os.path.join(BUILD_DIR, "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, "%s-seed%d-trace%d.json" % (
            args.workload, args.seed, args.trace)), "w") as f:
        json.dump(record, f, indent=1)
    print("perfbench record: " + json.dumps(record))
    for name, (value, unit) in sorted({**reported, **extras}.items()):
        print("  %-28s %16.6g %s" % (name, value, unit))
    print(json.dumps({
        "correct": correct,
        "attempted": int(raw["attempted"]),
        "failed": int(raw["failed"]),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in reported.items()},
    }))
    return 0 if correct else 1


def steady(args, spec):
    """Runs the workload `runs` times with seeds first_seed, first_seed+1,
    ... and prints each metric's median, quartiles and spread (IQR as a
    share of the median) against its bound."""
    kind = "per_layer" if args.trace else "end_to_end"
    values = {m["name"]: [] for m in spec[kind]}
    for k in range(args.runs):
        seed = args.first_seed + k
        r = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], capture_output=True, text=True)
        if r.returncode != 0:
            sys.stderr.write(r.stdout[-2000:] + r.stderr[-2000:])
            fail("run with seed %d failed" % seed, 1)
        result = json.loads(r.stdout.strip().splitlines()[-1])
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print("seed %d: %s" % (seed, " ".join(
            "%s=%.6g" % (n, v[-1]) for n, v in values.items())), flush=True)
    bounds = {m["name"]: m.get("bound") for m in spec[kind]}
    worst_ok = True
    print("%-28s %12s %12s %12s %8s %6s" % ("metric", "q1", "median", "q3",
                                           "spread", "bound"))
    for name, xs in values.items():
        q1, med, q3 = statistics.quantiles(xs, n=4)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds[name]
        flag = ""
        if bound is not None and name != "setup_s":
            flag = "ok" if spread < bound / 3 else (
                "WIDE" if spread < bound else "FAIL")
            worst_ok &= spread < bound
        print("%-28s %12.6g %12.6g %12.6g %8.4f %6s %s" % (
            name, q1, med, q3, spread, "-" if bound is None else bound, flag))
    return 0 if worst_ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None,
                   help="measuring time (default: BENCHMARK.json run_seconds)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--steady", action="store_true",
                   help="run the workload back to back and report spreads")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    args = p.parse_args()
    spec = load_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if not os.path.isdir("src"):
        fail("no src/ here: run from the root of a repository checkout")
    sys.exit(steady(args, spec) if args.steady else run_once(args, spec))


if __name__ == "__main__":
    main()
