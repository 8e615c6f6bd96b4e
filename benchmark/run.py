#!/usr/bin/env python3
"""kindiff benchmark: time to a checked Monte Carlo result, end to end and per layer.

Run from the repository root.  Each workload runs in this one process (the
sweep also starts the converge worker pool) and checks its outputs on every
run; see BENCHMARK.json for the workloads and why each was chosen.

  untraced run, end-to-end metrics (medians over the runs that fit in --seconds):
      python3 benchmark/run.py --workload sweep --seed 0 --seconds 30 --trace 0

  traced run, per-layer metrics (one worker: one untraced run for reference,
  then two traced runs whose exact counts must agree):
      python3 benchmark/run.py --workload sweep --seed 0 --trace 1

  quick self-check at the smallest ensemble sizes the checks accept:
      python3 benchmark/run.py --workload limit --quick --seconds 1

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it are a readable table and
the environment (nproc, CPU, versions, commit, seed, ensemble sizes), which
is also written with the per-run details to benchmark/_work/results/.  Set-up
time is the median over SETUP_SAMPLES fresh processes, each timed from its
start until it would make its first call into the program's run entry point.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK_DIR = os.path.join(HERE, "_work")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 7
SWEEP_WORKERS = 2
COVERAGE_TOL = 0.05        # layer self times must account for the traced wall time


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=("sweep", "martingale", "limit"))
    p.add_argument("--seed", type=int, default=0,
                   help="sets experiment.base_seed; reference means exist for seed 0")
    p.add_argument("--seconds", type=float, default=30.0,
                   help="keep starting runs until this much time has been measured")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="0: end-to-end metrics; 1: per-layer metrics")
    p.add_argument("--quick", action="store_true",
                   help="smallest ensembles the output checks accept")
    p.add_argument("--record-reference", action="store_true",
                   help="run once at seed 0 and store the ensemble means in reference.json")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def git_commit():
    """HEAD of the checkout's .git, or None where the checkout is not a repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def cpu_seconds() -> float:
    """User plus system CPU of this process and of its waited-for children."""
    return sum(r.ru_utime + r.ru_stime for r in
               (resource.getrusage(resource.RUSAGE_SELF),
                resource.getrusage(resource.RUSAGE_CHILDREN)))


def peak_rss_mb() -> float:
    """Larger of the peak resident sets of this process and of its children, MiB."""
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def measure_setup(args) -> list:
    """Wall time of SETUP_SAMPLES fresh processes, start to end of set-up."""
    argv = [sys.executable, os.path.abspath(__file__), "--setup-probe",
            "--workload", args.workload, "--seed", str(args.seed)]
    if args.quick:
        argv.append("--quick")
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
        finally:
            proc.stdout.close()
            rc = proc.wait(timeout=120)
        if rc != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed with exit code {rc}")
        samples.append(elapsed)
    return samples


def run_once(wl, workers, iteration, reference):
    """One workload run with its output checks: (outcome, wall_s, cpu_s)."""
    from workloads import Outcome, reference_matches

    cpu0 = cpu_seconds()
    t0 = time.perf_counter()
    try:
        out = wl.run(workers, iteration)
    except Exception:  # a run that raises is a failed operation; keep measuring
        traceback.print_exc(file=sys.stderr)
        out = Outcome(error=traceback.format_exc(limit=1).strip())
    if reference is not None and out.error is None:
        out.checks["reference_means"] = reference_matches(reference, out.means)
    wall = time.perf_counter() - t0
    return out.close(), wall, cpu_seconds() - cpu0


def untraced(args, wl, workers, reference):
    setup = measure_setup(args)
    runs = []
    start = time.perf_counter()
    while not runs or time.perf_counter() - start < args.seconds:
        runs.append(run_once(wl, workers, len(runs), reference))
    walls = [w for _, w, _ in runs]
    series = {
        "setup_s": (setup, "s"),
        "wall_s": (walls, "s"),
        "traj_per_s": ([o.trajectories / w for o, w, _ in runs], "1/s"),
        "cpu_s": ([c for _, _, c in runs], "s"),
        "peak_rss_mb": ([peak_rss_mb()], "MiB"),
    }
    metrics = {k: (statistics.median(v), u) for k, (v, u) in series.items()}
    for k, (v, u) in series.items():
        q1, q3 = quartiles(v)
        print(f"{k:<14} {metrics[k][0]:12.6g} {u:<5} median of {len(v)}, "
              f"quartiles {q1:.6g} .. {q3:.6g}")
    return [o for o, _, _ in runs], metrics, {"wall_s": walls, "setup_s": setup}


def traced(wl, reference):
    from tracing import Tracer

    base = run_once(wl, 1, 0, reference)
    runs = []
    for k in (1, 2):
        tracer = Tracer()
        with tracer.installed():
            out, wall, _ = run_once(wl, 1, k, reference)
        runs.append((out, wall, tracer))
    (_, wall, tracer), (_, _, tracer2) = runs
    metrics = tracer.metrics()
    repeat = tracer.counts_only() == tracer2.counts_only()
    coverage = tracer.self_total / wall
    metrics.update({
        "trace.wall_s": (wall, "s"),
        "trace.overhead_s": (wall - base[1], "s"),
        "trace.self_coverage": (coverage, "ratio"),
        "trace.counts_repeat": (int(repeat), "bool"),
    })
    for k, (v, u) in metrics.items():
        print(f"{k:<28} {v:14.6g} {u}")
    checks_ok = repeat and abs(coverage - 1.0) <= COVERAGE_TOL
    if not checks_ok:
        print(f"trace check failed: counts repeat {repeat}, self-time coverage "
              f"{coverage:.4f}", file=sys.stderr)
    outcomes = [base[0]] + [o for o, _, _ in runs]
    return outcomes, metrics, {"untraced_wall_s": base[1], "checks_ok": checks_ok}


def check_declared(metrics, trace):
    """The reported metrics are exactly the ones BENCHMARK.json declares."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    reported = {k: u for k, (_, u) in metrics.items()}
    if declared != reported:
        raise RuntimeError(f"metrics disagree with BENCHMARK.json: {sorted(set(declared) ^ set(reported))}")


def record_reference(wl, sizes):
    from workloads import REFERENCE_PATH

    out, _, _ = run_once(wl, 1, 0, None)
    if not out.ok:
        raise RuntimeError(f"run failed its checks: {out.checks} {out.error}")
    refs = {"seed": 0, "workloads": {}}
    if os.path.exists(REFERENCE_PATH):
        with open(REFERENCE_PATH) as fh:
            refs = json.load(fh)
    refs["workloads"][wl.name] = {"sizes": sizes, "means": out.means}
    with open(REFERENCE_PATH, "w") as fh:
        json.dump(refs, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(out.means)} means for {wl.name} in {REFERENCE_PATH}")


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:            # before numpy is imported, inherited by workers
        os.environ[var] = "1"
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "kindiff")) or not os.path.isdir(
            os.path.join(ROOT, "configs")):
        print(f"error: no kindiff sources under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import numpy as np
    import workloads

    wl_cls = workloads.WORKLOADS[args.workload]
    sizes = dict(wl_cls.quick_sizes if args.quick else wl_cls.sizes)
    os.makedirs(WORK_DIR, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR)
    try:
        wl = wl_cls(args.seed, sizes, run_dir)
        if args.setup_probe:
            print("ready", flush=True)
            return 0
        if args.record_reference:
            if args.seed != 0 or args.quick:
                print("error: reference means are recorded at seed 0 and full sizes",
                      file=sys.stderr)
                return 2
            record_reference(wl, sizes)
            return 0
        refs = workloads.load_reference()
        entry = refs["workloads"].get(args.workload)
        reference = (entry if args.seed == refs["seed"] and entry is not None
                     and entry["sizes"] == sizes else None)
        workers = min(SWEEP_WORKERS, nproc()) if args.workload == "sweep" else 1
        if args.trace:
            outcomes, metrics, extra = traced(wl, reference)
        else:
            outcomes, metrics, extra = untraced(args, wl, workers, reference)
            extra["checks_ok"] = True
        check_declared(metrics, args.trace)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    correct = extra.pop("checks_ok") and all(o.ok for o in outcomes)
    print(f"{'failed_frac':<14} {failed / attempted:12.6g} ratio "
          f"({failed} failed of {attempted} operations)")
    env = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "sizes": sizes,
        "workers": 1 if args.trace else workers, "nproc": nproc(),
        "cpu_model": cpu_model(), "python": platform.python_version(),
        "numpy": np.__version__, "git_commit": git_commit(),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "reference_checked": reference is not None,
    }
    print("env " + json.dumps(env, sort_keys=True))
    detail = {"env": env, "extra": extra,
              "runs": [{"checks": o.checks, "means": o.means, "error": o.error,
                        "attempted": o.attempted, "failed": o.failed} for o in outcomes]}
    os.makedirs(os.path.join(WORK_DIR, "results"), exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(WORK_DIR, "results", name), "w") as fh:
        json.dump(detail, fh, indent=1, sort_keys=True)
    print(json.dumps({
        "correct": bool(correct), "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
