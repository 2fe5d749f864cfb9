#!/usr/bin/env python3
"""The study benchmark: build studybench, run a workload, print its metrics.

Run from the root of a checkout:

    python3 studybench/run.py --workload sim_study --seed 20151115 --seconds 20 --trace 0
    python3 studybench/run.py --workload all [--trace 1]   # every workload, with units
    python3 studybench/run.py --aa 5                       # A/A: two sets of 5 runs each
    python3 studybench/run.py --selftest                   # statistics and digest tests

A single-workload run prints, as the last line of stdout, one JSON object
with the keys correct, attempted, failed and metrics: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1.  Progress
and human-readable tables go to stderr.  See README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import threading
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import benchstats  # noqa: E402

ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "studybench"
GOLDEN = ROOT / "tests" / "golden"
SPEC = ROOT / "BENCHMARK.json"

WORKLOADS = ("sim_study", "dataset_analyze", "sharded_roundtrip")
DEFAULT_SEED = 20151115
# Study seeds of one size (README.md, "Study seeds"): no shed jobs, and
# job-index entries, console events and xid_matrix window pairs each
# within 9% of the panel's median.
PANEL = (189, 261, 360, 486, 586, 768, 880, 904)
THREADS = min(4, os.cpu_count() or 1)
# Seconds the calibration loop (studybench.cpp, calibrate_s) takes at the
# reference machine speed.  Reported times are wall times scaled to it.
CAL_REFERENCE_S = 0.18
SETUP_TIMEOUT_S = 100
MEASURE_SLACK_S = 100


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Configure (once) and build studybench into .bench_build."""
    if not (BUILD / "CMakeCache.txt").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release", *generator],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD), "-j", str(THREADS)],
                   check=True, stdout=sys.stderr)


def run_child(args, timeout_s):
    """Run studybench in a child, returning (exit code, peak RSS MiB) read
    with wait4.  The child is killed when it outlives `timeout_s`."""
    env = dict(os.environ, TITANREL_THREADS=str(THREADS))
    proc = subprocess.Popen([str(BINARY), *map(str, args)], env=env, stdout=sys.stderr)
    timer = threading.Timer(timeout_s, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0  # Linux reports KiB


def study_seed(seed):
    """The study seed a --seed selects: itself when vetted (the default or a
    PANEL entry), else the panel entry it indexes."""
    return seed if seed == DEFAULT_SEED or seed in PANEL else PANEL[seed % len(PANEL)]


def run_once(workload, seed, seconds, trace):
    """One run: a set-up child, then a measuring child.  Returns a dict of
    raw samples and checks, or raises RuntimeError."""
    seed = study_seed(seed)
    log(f"-- {workload}: study seed {seed}")
    work = BUILD / "work" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        code, _ = run_child(["setup", "--workload", workload, "--seed", seed, "--work", work,
                             "--golden", GOLDEN,
                             "--out", work / "setup.json"], SETUP_TIMEOUT_S)
        if code != 0:
            raise RuntimeError(f"{workload}: set-up exited with {code}")
        setup = json.loads((work / "setup.json").read_text())
        code, rss = run_child(["measure", "--workload", workload, "--seed", seed,
                               "--seconds", seconds, "--trace", int(trace), "--work", work,
                               "--out", work / "measure.json"], seconds + MEASURE_SLACK_S)
        if code != 0:
            raise RuntimeError(f"{workload}: measure exited with {code}")
        measure = json.loads((work / "measure.json").read_text())
        if trace:
            kept = BUILD / "traces" / f"{workload}-seed{seed}.json"
            kept.parent.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(measure["trace_file"], kept)
            measure["trace_file"] = str(kept.relative_to(ROOT))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {"setup": setup, "measure": measure, "peak_rss_mib": rss}


def summarize(raw):
    """End-to-end metrics and the correctness verdict of one run."""
    measure = raw["measure"]
    units = [u for u in measure["units"] if u["ok"]]
    attempted = int(measure["attempted"])
    failed = int(measure["failed"])
    correct = (raw["setup"]["golden"] and measure["cross_check"] and measure["decomposes"]
               and failed == 0 and bool(units))
    # Times are scaled to the reference machine speed, measured by the
    # calibration loop run beside the timed work in the same child.
    speed = CAL_REFERENCE_S / benchstats.median(measure["cal_s"])
    setup_speed = CAL_REFERENCE_S / benchstats.median(raw["setup"]["cal_s"])
    metrics = {}
    if units:
        metrics["study_s"] = {"value": speed * benchstats.median([u["unit_s"] for u in units]),
                              "unit": "s"}
        metrics["source_s"] = {"value": speed * benchstats.median([u["source_s"] for u in units]),
                               "unit": "s"}
    metrics["setup_s"] = {"value": setup_speed * benchstats.median(raw["setup"]["setup_s"]),
                          "unit": "s"}
    metrics["peak_rss_mib"] = {"value": raw["peak_rss_mib"], "unit": "MiB"}
    return {"correct": bool(correct), "attempted": attempted, "failed": failed,
            "metrics": metrics, "unit_s": [u["unit_s"] for u in units], "speed": speed}


def print_table(workload, summary, raw):
    measure = raw["measure"]
    n = len(summary["unit_s"])
    tail = benchstats.tail_percentile(summary["unit_s"])
    tail_text = (f"p{tail[0]:g} {tail[1]:.4f} s" if tail
                 else "no tail percentile (fewer than 10 units beyond p90)")
    log(f"== {workload}: {n} units, {tail_text}")
    log("   raw unit wall s: " + " ".join(f"{s:.3f}" for s in summary["unit_s"])
        + f"; speed factor {summary['speed']:.4f}")
    for name, m in summary["metrics"].items():
        log(f"   {name:<14} {m['value']:>12.4f} {m['unit']}")
    fail_frac = summary["failed"] / summary["attempted"]
    log(f"   {'fail_frac':<14} {fail_frac:>12.4f} ({summary['failed']}/{summary['attempted']})")
    log(f"   checks: golden={raw['setup']['golden']} cross_check={measure['cross_check']} "
        f"decomposes={measure['decomposes']} correct={summary['correct']}")
    for name, m in measure.get("layers", {}).items():
        log(f"   {name:<30} {m['value']:>16.4f} {m['unit']}")
    if "trace_file" in measure:
        log(f"   trace: {measure['trace_file']}")


def single(args):
    raw = run_once(args.workload, args.seed, args.seconds, args.trace)
    summary = summarize(raw)
    print_table(args.workload, summary, raw)
    metrics = raw["measure"]["layers"] if args.trace else summary["metrics"]
    print(json.dumps({"correct": summary["correct"], "attempted": summary["attempted"],
                      "failed": summary["failed"], "metrics": metrics}))
    return 0


def every_workload(args):
    """All workloads untraced; with --trace 1 also traced, with overhead."""
    ok = True
    for workload in WORKLOADS:
        raw = run_once(workload, args.seed, args.seconds, False)
        summary = summarize(raw)
        print_table(workload, summary, raw)
        ok = ok and summary["correct"]
        if args.trace:
            traced = run_once(workload, args.seed, args.seconds, True)
            print_table(workload + " (traced)", summarize(traced), traced)
            traced_s = traced["measure"]["layers"]["trace.unit_ms"]["value"] / 1e3
            untraced_s = benchstats.median(summary["unit_s"])
            log(f"   tracing overhead: {traced_s - untraced_s:+.4f} s "
                f"(traced unit {traced_s:.4f} s, untraced unit {untraced_s:.4f} s, raw wall)")
    return 0 if ok else 1


def aa(args):
    """A/A: two sets of the same build; each metric's second median must
    stay within its bound of the first, per workload."""
    spec = json.loads(SPEC.read_text())
    ok = True
    for workload in [w["name"] for w in spec["workloads"]]:
        sets = []
        for set_index in range(2):
            runs = []
            for i in range(args.aa):
                run = summarize(run_once(workload, args.seed + i, args.seconds, False))
                log(f"{workload} set {set_index + 1} seed {args.seed + i}: correct={run['correct']} "
                    + " ".join(f"{k}={m['value']:.4f}" for k, m in run["metrics"].items()))
                ok = ok and run["correct"]
                runs.append(run)
            sets.append(runs)
        for metric in spec["end_to_end"]:
            name = metric["name"]
            first, second = ([r["metrics"][name]["value"] for r in one_set] for one_set in sets)
            m1, m2 = benchstats.median(first), benchstats.median(second)
            agree = benchstats.within_bound(m1, m2, metric["bound"], metric["better"])
            ok = ok and agree
            log(f"{workload:<18} {name:<13} median {m1:.4f} -> {m2:.4f} {metric['unit']:<4} "
                f"spread {benchstats.spread(first):.3f}/{benchstats.spread(second):.3f} "
                f"bound {metric['bound']}: {'agree' if agree else 'DISAGREE'}")
    return 0 if ok else 1


def selftest():
    code, _ = run_child(["selftest"], 60)
    result = subprocess.run([sys.executable, "-m", "unittest", "discover", "-s", str(HERE),
                             "-p", "test_*.py"], stdout=sys.stderr)
    return 0 if code == 0 and result.returncode == 0 else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--aa", type=int, default=0, metavar="N",
                        help="A/A mode: two sets of N runs per workload")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    try:
        build()
        if args.selftest:
            return selftest()
        if args.aa:
            return aa(args)
        if args.workload == "all":
            return every_workload(args)
        return single(args)
    except (subprocess.CalledProcessError, RuntimeError, OSError, KeyError, ValueError) as e:
        log(f"studybench: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
