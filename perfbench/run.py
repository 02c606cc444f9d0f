#!/usr/bin/env python3
"""perfbench: the repository benchmark.

    python3 perfbench/run.py --workload solve --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all          # every workload in turn

Run it from the root of a checkout. The first run builds the C++ binary and
the library from this checkout's sources into .bench_build/. Each
invocation runs one workload for --seconds of timed ops and prints
human-readable lines, then one JSON object as the last stdout line:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end-to-end metrics of BENCHMARK.json, measured untraced; with
--trace 1 they are its per-layer metrics, from a separate span-traced
re-drive (spans go to .bench_build/trace-<workload>-<seed>.json as Chrome
trace-event JSON). The exit code is nonzero when a correctness gate fails.
"""
import argparse
import json
import os
import pathlib
import subprocess
import sys
import unittest

sys.dont_write_bytecode = True  # keep the checkout free of __pycache__
HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
sys.path.insert(0, str(HERE))
import perfstats  # noqa: E402

RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850
# Each end-to-end metric under the name a user of each workload knows it by.
OP_NAMES = {
    "solve": ("solve_s", "solves"),
    "dist_solve": ("solve_s", "distributed solves"),
    "train": ("epoch_s", "epochs"),
    "serve": ("latency_p50_ms", "requests"),
}


def die(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def refuse_mf_environment():
    # MF_PRECISION, MF_DISABLE_*, MF_PLAN_THREADS, MF_SERVE_*, MF_FAULT_SPEC,
    # MF_HEALTH_CHECKS and the rest each silently change the measured program.
    names = sorted(k for k in os.environ if k.startswith("MF_"))
    if names:
        die("refusing to run with %s set: MF_* variables change the measured "
            "program; unset them and rerun" % ", ".join(names), code=2)


def self_test():
    suite = unittest.defaultTestLoader.loadTestsFromName("test_perfstats")
    with open(os.devnull, "w") as sink:
        result = unittest.TextTestRunner(stream=sink, verbosity=0).run(suite)
    if not result.wasSuccessful():
        die("statistics self-test failed; run python3 perfbench/test_perfstats.py")
    return result.testsRun


def build():
    if not (ROOT / "src").is_dir() or not (ROOT / "CMakeLists.txt").is_file():
        die("no library sources under %s; run from the root of a full checkout"
            % ROOT)
    tmp = BUILD / "tmp"  # compiler scratch files stay inside the checkout
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    log_path = BUILD / "build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "perfbench",
                  "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                proc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                      env=env, timeout=BUILD_TIMEOUT_S)
            except (OSError, subprocess.TimeoutExpired) as e:
                die("build step %s failed: %s" % (cmd[:2], e))
            if proc.returncode != 0:
                log.flush()
                tail = log_path.read_text(errors="replace").splitlines()[-25:]
                die("build failed (see %s):\n%s" % (log_path, "\n".join(tail)))
    return BUILD / "perfbench"


def run_binary(binary, workload, seed, seconds, trace):
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", repr(float(seconds)), "--trace", "1" if trace else "0"]
    if trace:
        cmd += ["--trace-file", str(BUILD / ("trace-%s-%d.json" % (workload, seed)))]
    env = dict(os.environ, OMP_NUM_THREADS="1")
    cpu0 = perfstats.read_cpu_times()
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    cpu1 = perfstats.read_cpu_times()
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        die("%s binary exited with code %d" % (workload, proc.returncode))
    for line in lines[:-1]:
        print(line)
    steal = perfstats.steal_frac(cpu0, cpu1) if cpu0 and cpu1 else 0.0
    return json.loads(lines[-1]), steal


def describe(workload, rec, values, units, trace):
    """Human-readable lines: each metric with its unit and sample count."""
    out = []
    for gate in rec["gates"]:
        out.append("gate %-34s %s  %s" % (gate["name"], "ok" if gate["ok"] else "FAILED",
                                          gate["detail"]))
    frac = perfstats.failed_frac(rec["attempted"], rec["failed"])
    out.append("failed_frac      = %.6g  (%d failed / %d attempted)"
               % (frac, rec["failed"], rec["attempted"]))
    if trace:
        for name, v in values.items():
            zero = "" if v or name in rec["layers"] else "   (layer not exercised)"
            out.append("%-34s = %.6g %s%s" % (name, v, units[name], zero))
        return out
    op_name, op_units = OP_NAMES[workload]
    n_ops = len(rec["op_s"])
    out.append("setup_s          = %.4f s  (median of %d set-ups)"
               % (values["setup_s"], len(rec["setup_s"])))
    if workload == "serve":
        out.append("requests_per_s   = %.1f 1/s  (%d requests in %.2f s of closed loop)"
                   % (values["ops_per_s"], rec["ops"], rec["timed_wall_s"]))
        ms = [v * 1e3 for v in rec["op_s"]]
        tail = perfstats.tail_percentile(n_ops)
        for p in sorted({50.0, 99.0, tail or 50.0}):
            beyond = perfstats.samples_beyond(n_ops, p)
            if beyond < perfstats.MIN_BEYOND:
                continue
            out.append("%-16s = %.4f ms  (%d requests, %d beyond it; admission to "
                       "completion)" % ("latency_p%g_ms" % p, perfstats.percentile(ms, p),
                                        n_ops, beyond))
    else:
        out.append("%-16s = %.4f s  (median of %d %s)"
                   % (op_name, values["op_s"], n_ops, op_units))
        out.append("ops_per_s        = %.4f 1/s  (%d %s in %.2f s)"
                   % (values["ops_per_s"], rec["ops"], op_units, rec["timed_wall_s"]))
    out.append("peak_rss_mb      = %.1f MB" % values["peak_rss_mb"])
    out.append("gp.dataset_s     = %.4f s  (input generation, before set-up)"
               % rec["dataset_s"])
    return out


def run_workload(binary, spec, workload, seed, seconds, trace):
    rec, steal = run_binary(binary, workload, seed, seconds, trace)
    if trace:
        metrics = spec["per_layer"]
        values = perfstats.per_layer(rec, [m["name"] for m in metrics], steal)
    else:
        metrics = spec["end_to_end"]
        values = perfstats.end_to_end(rec)
    units = {m["name"]: m["unit"] for m in metrics}
    print("== %s (seed %d, %s)" % (workload, seed, "traced" if trace else "untraced"))
    for line in describe(workload, rec, values, units, trace):
        print("  " + line)
    if not trace:
        print("  host.steal_frac  = %.4f  (hypervisor steal over the run)" % steal)
    correct = rec["failed"] == 0 and all(g["ok"] for g in rec["gates"])
    return correct, rec["attempted"], rec["failed"], values, units


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    refuse_mf_environment()
    spec_path = ROOT / "BENCHMARK.json"
    try:
        spec = perfstats.check_spec(json.loads(spec_path.read_text()))
    except (OSError, ValueError, KeyError) as e:
        die("cannot use %s: %s" % (spec_path, e))
    workloads = {w["name"]: w for w in spec["workloads"]}
    if args.workload != "all" and args.workload not in workloads:
        die("unknown workload %r (have: %s, all)"
            % (args.workload, ", ".join(workloads)), code=2)
    if args.seed is not None and args.seed < 0:
        die("--seed must be non-negative", code=2)
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    if seconds < 1:
        die("--seconds must be at least 1", code=2)
    tests = self_test()
    binary = build()
    print("perfbench: %d statistics self-tests passed; binary %s" % (tests, binary))

    names = list(workloads) if args.workload == "all" else [args.workload]
    correct, attempted, failed, values, units = True, 0, 0, {}, {}
    for name in names:
        seed = args.seed if args.seed is not None else perfstats.default_seed(workloads[name])
        ok, a, f, v, u = run_workload(binary, spec, name, seed, seconds, args.trace)
        correct, attempted, failed = correct and ok, attempted + a, failed + f
        prefix = name + "." if len(names) > 1 else ""
        values.update({prefix + k: x for k, x in v.items()})
        units.update({prefix + k: x for k, x in u.items()})
    print(json.dumps(perfstats.result_line(correct, attempted, failed, values, units)))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
