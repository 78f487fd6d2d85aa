#!/usr/bin/env python3
"""The CECI benchmark: one command for every workload.

  python3 perfbench/run.py --workload adhoc-labeled --seed 1 --seconds 10 --trace 0
  python3 perfbench/run.py --workload dist-batch --seconds 10 --steadiness 5

Builds the driver and the repository's libraries from ../src into
.bench_build (or $CARGO_TARGET_DIR), generates the workload's inputs from
--seed, runs it, and prints every metric by name with its unit. The last
stdout line is one JSON object: {"correct", "attempted", "failed",
"metrics"}; --trace 0 gives the end-to-end metrics of BENCHMARK.json,
--trace 1 its per-layer metrics, from an untraced run and then a traced
run on the same seed. Any wrong answer makes the run exit 1.

--steadiness N runs the workload N times with seeds seed..seed+N-1 and
prints each end-to-end metric's median, quartiles and (q3-q1)/median
against its bound. perfbench/README.md describes the workloads.
"""

import argparse
import json
import math
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import stats  # noqa: E402

# Whole runs must end within this many seconds, build excluded.
RUN_DEADLINE_S = 170


def log(*parts):
    print("perfbench:", *parts, file=sys.stderr, flush=True)


def load_json(path):
    with open(path) as f:
        return json.load(f)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Configures once and rebuilds the three binaries the workloads use."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise SystemExit("perfbench: CECI sources not found under src/")
    out = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j4", "--target",
                  "ceci_perfbench", "ceci_serve", "ceci_worker"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            raise SystemExit("perfbench: build failed: " + " ".join(step))
    return out


def run_processes(argvs, deadline):
    """Runs every argv at once, each in its own process group, and returns
    their stdouts. Kills every group still running at `deadline` (a
    time.monotonic() value) or once one of them fails."""
    procs = [subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, start_new_session=True)
             for argv in argvs]
    outs = []
    try:
        for argv, proc in zip(argvs, procs):
            try:
                out, _ = proc.communicate(
                    timeout=max(1.0, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                raise SystemExit("perfbench: %s timed out" %
                                 os.path.basename(argv[0]))
            if proc.returncode != 0:
                raise SystemExit("perfbench: %s exited %d" %
                                 (os.path.basename(argv[0]), proc.returncode))
            outs.append(out)
    finally:
        for proc in procs:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
    return outs


def run_once(out, workload, seed, seconds, trace, deadline):
    """One measured run, killed at `deadline` (a time.monotonic() value);
    returns the driver's raw samples."""
    spec = load_json(os.path.join(HERE, "workloads.json"))[workload]
    driver = os.path.join(out, "ceci_perfbench")
    work = os.path.join(out, "work")
    os.makedirs(work, exist_ok=True)
    graph = spec["graph"]
    argv = [driver, "run", "--workload", workload, "--seed", str(seed),
            "--ops", str(max(1, math.ceil(seconds * spec["ops_per_second"]))),
            "--bin-dir", os.path.join(out, "ceci_src"), "--work-dir", work]
    for flag, value in spec["driver"].items():
        argv += ["--" + flag, str(value)]
    if trace:
        argv.append("--trace")
    files = [os.path.join(work, "%s-%d-%d.txt" % (workload, seed, g))
             for g in range(graph["graphs"])]
    gens = [[driver, "gen", "--seed", str(seed * 1000 + g),
             "--n", str(graph["n"]), "--attach", str(graph["attach"]),
             "--labels", str(graph["labels"]), "--out", files[g]]
            for g in range(graph["graphs"])]
    try:
        # Four generators at a time, one per core.
        for first in range(0, len(gens), 4):
            run_processes(gens[first:first + 4], deadline)
        for f in files:
            argv += ["--data", f]
        stdout = run_processes([argv], deadline)[0]
    finally:
        for f in files:
            if os.path.exists(f):
                os.remove(f)
    return json.loads(stdout.strip().splitlines()[-1])


def metrics_of(raw, bench, untraced=None):
    """End-to-end metrics of an untraced run, or, given the untraced run
    on the same seed, per-layer metrics of a traced one."""
    if untraced is None:
        listed = bench["end_to_end"]
        values = stats.end_to_end(raw)
    else:
        listed = bench["per_layer"]
        values = stats.per_layer(raw, [m["name"] for m in listed], untraced)
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in listed}


# Per-query stages of a traced run and the metric holding what they leave
# of the wall time; the two always sum to the wall.
DECOMPOSITIONS = {
    "adhoc-labeled": (["preprocess.ms", "build.ms", "refine.ms",
                       "freeze_flat.ms", "enumerate.ms"], "adhoc.other_ms"),
    "dist-batch": (["dist.preprocess_ms", "dist.partition_build_ms_max",
                    "dist.worker_enum_ms_max"], "dist.residual_ms"),
}


def report(raw, bench, untraced=None):
    """Prints the metrics for people, then the result line; returns it.
    A traced run's result covers the untraced run made for it too."""
    trace = untraced is not None
    metrics = metrics_of(raw, bench, untraced)
    if trace:
        raw = dict(raw, attempted=raw["attempted"] + untraced["attempted"],
                   failed=raw["failed"] + untraced["failed"],
                   errors=untraced["errors"] + raw["errors"])
    for name, m in metrics.items():
        print("%-28s %14.6g %s" % (name, m["value"], m["unit"]))
    if trace and raw["workload"] in DECOMPOSITIONS:
        stages, rest = DECOMPOSITIONS[raw["workload"]]
        staged = sum(metrics[s]["value"] for s in stages)
        print("%-28s stages %.3f ms + %s %.3f ms = wall %.3f ms" %
              ("decomposition", staged, rest, metrics[rest]["value"],
               staged + metrics[rest]["value"]))
    print("%-28s %14.6g %s" % ("failed_frac",
                               stats.failed_frac(raw["failed"],
                                                 raw["attempted"]),
                               "(failed %d of %d)" % (raw["failed"],
                                                      raw["attempted"])))
    for error in raw["errors"]:
        log("failure:", error)
    correct = raw["failed"] == 0 and raw["attempted"] > 0
    result = {"correct": correct, "attempted": raw["attempted"],
              "failed": raw["failed"], "metrics": metrics}
    print(json.dumps(result), flush=True)
    return result


def steal_ticks():
    """CPU time the hypervisor gave to other guests (Linux /proc/stat)."""
    try:
        with open("/proc/stat") as f:
            return int(f.readline().split()[8])
    except (OSError, IndexError, ValueError):
        return 0


def steadiness(out, args, bench):
    """N seeded runs; per metric: median, quartiles, spread vs bound."""
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {name: [] for name in bounds}
    steals = []
    failed = 0
    for i in range(args.steadiness):
        # Steal time shows when a shared host, not the change, moved a run.
        start, stolen = time.monotonic(), steal_ticks()
        raw = run_once(out, args.workload, args.seed + i, args.seconds, False,
                       start + RUN_DEADLINE_S)
        steals.append((steal_ticks() - stolen) / (time.monotonic() - start) /
                      (os.sysconf("SC_CLK_TCK") * os.cpu_count()))
        failed += raw["failed"]
        for name, m in metrics_of(raw, bench).items():
            values[name].append(m["value"])
        log("seed %d:" % (args.seed + i),
            " ".join("%s=%.5g" % (k, v[-1]) for k, v in values.items()),
            "host_steal=%.1f%%" % (100 * steals[-1]))
    summary = {}
    print("%-16s %12s %12s %12s %8s %6s" %
          ("metric", "q1", "median", "q3", "spread", "bound"))
    for name, series in values.items():
        q1, median, q3, spread = stats.spread(series)
        summary[name] = {"q1": q1, "median": median, "q3": q3,
                         "spread": spread, "bound": bounds[name],
                         "values": series}
        verdict = ("steady" if spread <= bounds[name] / 3 else
                   "within" if spread <= bounds[name] else "UNSTEADY")
        print("%-16s %12.6g %12.6g %12.6g %8.4f %6.3f %s" %
              (name, q1, median, q3, spread, bounds[name], verdict))
    print(json.dumps({"workload": args.workload, "runs": args.steadiness,
                      "failed": failed, "host_steal": steals,
                      "metrics": summary}), flush=True)
    return failed == 0


def main():
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", type=int, default=0, metavar="N",
                        help="run N seeds and report each metric's spread")
    args = parser.parse_args()
    if args.steadiness and args.steadiness < 2:
        parser.error("--steadiness needs at least 2 runs")

    out = build()
    if args.steadiness:
        return 0 if steadiness(out, args, bench) else 1
    deadline = time.monotonic() + RUN_DEADLINE_S
    raw = run_once(out, args.workload, args.seed, args.seconds, False,
                   deadline)
    if not args.trace:
        return 0 if report(raw, bench)["correct"] else 1
    # trace.overhead_ms compares the traced run with this untraced one. The
    # traced run does half the work, so the pair ends by the deadline even
    # though tracing adhoc-labeled replays every query stage by stage.
    traced = run_once(out, args.workload, args.seed, args.seconds / 2, True,
                      deadline)
    return 0 if report(traced, bench, untraced=raw)["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
