"""gibbschain benchmark: cold-process time-to-certificate per workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs repetitions of one workload, each in a fresh interpreter started one
at a time, with BLAS pinned to one thread in the child's environment.  A
fresh process per repetition keeps the library's in-process caches (the
eigendecomposition cache, chain matrix caches, filter splines) from
carrying over, so every repetition pays the cold cost a command-line user
pays.  Repetitions continue while the next one fits in S seconds (at least
two with --trace 0).

--trace 0 reports the end-to-end metrics as medians over repetitions:
certify_s (first library call to last verified result), setup_s (child
start to ready: imports plus input generation) and peak_rss_mb.  The two
timings are the child's CPU seconds, scaled toward a reference speed by
calibration readings taken in fresh processes between repetitions (see
scale_to_reference and perfbench/README.md); raw CPU and wall medians are
printed beside them.
--trace 1 runs untraced repetitions and one traced repetition and reports
the per-layer metrics of perfbench/spans.py.

Every repetition is gated (see perfbench/workloads.py); the CSV body digest
must agree across repetitions and between the traced and untraced runs.
The last line of standard output is one JSON object; a run record with
quartiles, sample counts, versions and gate failures is written to
.bench_build/perfbench/.  Use --workload all to print every workload.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("qbp_window", "qbp_small", "gibbs_lightcone", "cluster_gamma")
END_TO_END = (("certify_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
# recorded and printed beside the metrics, not reported in the JSON
RAW = (("certify_cpu_s", "s"), ("certify_wall_s", "s"), ("setup_cpu_s", "s"),
       ("setup_wall_s", "s"))
# CPU seconds calibrate.py's work takes at the reference speed: a 2-core Intel Xeon
# virtual machine with BLAS on one thread, where it measured 0.76-0.96 s
CALIBRATION_REF_S = 0.8
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
MIN_REPS = 2
# every run, its repetitions included, ends well inside 180 seconds
HARD_LIMIT_S = 170.0


def child_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("GIBBSCHAIN_")}
    env.update(BLAS_PIN)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def calibration():
    """CPU seconds of perfbench/calibrate.py's reference work, in a fresh interpreter."""
    proc = subprocess.run([sys.executable, str(HERE / "calibrate.py")], env=child_env(),
                          cwd=ROOT, timeout=60, check=True, capture_output=True, text=True)
    return float(proc.stdout)


def run_child(workload, seed, rep_dir, trace, smoke, timeout, before=None):
    """One cold repetition between two calibration readings.

    ``before`` is the reading taken right before, if the caller has one (the
    previous repetition's ``calibration_cpu[1]``).  Returns the result dict,
    or None if the repetition crashed.
    """
    rep_dir.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "child.py"), workload, str(seed), str(rep_dir),
           "1" if trace else "0", "1" if smoke else "0"]
    start = time.perf_counter()
    if before is None:
        before = calibration()
    spawn = time.perf_counter()
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, timeout=timeout,
                              stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    except subprocess.TimeoutExpired:
        return None
    result_path = rep_dir / "result.json"
    if proc.returncode != 0 or not result_path.exists():
        sys.stderr.write(proc.stdout.decode(errors="replace")[-4000:])
        return None
    after = calibration()
    result = json.loads(result_path.read_text())
    result["calibration_cpu"] = [before, after]
    result["setup_cpu_s"] = result["ready_cpu"]
    result["certify_cpu_s"] = result["done_cpu"] - result["ready_cpu"]
    result["setup_wall_s"] = result["ready"] - spawn
    result["certify_wall_s"] = result["done"] - result["ready"]
    result["wall_s"] = time.perf_counter() - start
    return result


def scale_to_reference(results):
    """Add setup_s and certify_s: CPU seconds, scaled toward the reference speed.

    The shared host's speed drifts by tens of percent over minutes, and the
    run's calibration readings follow it; their median is the run's reading.
    Timings are scaled by the square root of reference over reading, half of a
    full correction: a reading is itself noisy (about 10%, from second-scale
    jitter that a longer repetition averages out), and in the sets of runs made
    while the benchmark was defined a run's CPU time moved by 0.19 to 0.89
    (median 0.46) of its reading's relative change.  Returns the median reading.
    """
    readings = [results[0]["calibration_cpu"][0]] + [r["calibration_cpu"][1] for r in results]
    reading = statistics.median(readings)
    scale = math.sqrt(CALIBRATION_REF_S / reading)
    for r in results:
        r["setup_s"] = r["setup_cpu_s"] * scale
        r["certify_s"] = r["certify_cpu_s"] * scale
    return reading


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def load_reference(workload, seed):
    """CSV digest recorded for this workload and seed in baseline.json, if any."""
    path = HERE / "baseline.json"
    if not path.exists():
        return None
    digests = json.loads(path.read_text()).get(workload, {}).get("csv_digest", {})
    return digests.get("any") or digests.get(str(seed))


def run_workload(workload, seed, seconds, trace, smoke):
    out = ROOT / ".bench_build" / "perfbench" / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(out, ignore_errors=True)
    start = time.perf_counter()
    attempted = failed = 0
    failures = []
    reps = []

    def account(result, label):
        nonlocal attempted, failed
        if result is None or result["error"] or not result["items"]:
            attempted += 1
            failed += 1
            failures.append((label, "raised or crashed", (result or {}).get("error") or ""))
            return
        for item in result["items"]:
            attempted += 1
            if not item[1]:
                failed += 1
                failures.append((label,) + tuple(item))

    # with --trace 1, keep room for the traced repetition after the untraced ones
    reserve = 2 if trace else 1
    min_reps = 1 if trace else MIN_REPS
    reading = None  # the calibration reading after one repetition is the next one's before
    while True:
        elapsed = time.perf_counter() - start
        res = run_child(workload, seed, out / f"rep{len(reps)}", False, smoke,
                        max(10.0, HARD_LIMIT_S - elapsed), before=reading)
        account(res, f"rep{len(reps)}")
        reps.append(res)
        if res is None:
            break
        reading = res["calibration_cpu"][1]
        elapsed = time.perf_counter() - start
        if len(reps) >= min_reps and (
            elapsed + reserve * res["wall_s"] > seconds
            or elapsed + (reserve + 1) * res["wall_s"] > HARD_LIMIT_S
        ):
            break
    good = [r for r in reps if r is not None]

    digests = sorted({r["digest"] for r in good})
    for r in good[1:]:
        attempted += 1
        if r["digest"] != good[0]["digest"]:
            failed += 1
            failures.append(("digest", "csv bodies differ between repetitions", ""))

    traced = None
    if trace and good:
        elapsed = time.perf_counter() - start
        traced = run_child(workload, seed, out / "traced", True, smoke,
                           max(10.0, HARD_LIMIT_S - elapsed), before=reading)
        account(traced, "traced")
        attempted += 1
        if traced is None or traced["digest"] != good[0]["digest"]:
            failed += 1
            failures.append(("traced", "traced csv bodies differ from untraced", ""))

    calibration_cpu = None
    if good:
        calibration_cpu = scale_to_reference(good + ([traced] if traced else []))

    stats = {}
    for name, unit in END_TO_END + RAW:
        values = [r[name] for r in good]
        if values:
            q1, med, q3 = quartiles(values)
            stats[name] = {"median": med, "q1": q1, "q3": q3, "n": len(values), "unit": unit,
                           "values": values}

    if trace:
        import spans

        if traced is not None:
            span_list = json.loads((out / "traced" / "spans.json").read_text())
            layer = spans.derive(span_list, traced["certify_s"] - stats["certify_s"]["median"])
        else:
            layer = {name: 0.0 for name, _ in spans.metric_names()}
        metrics = {name: {"value": layer[name], "unit": unit}
                   for name, unit in spans.metric_names()}
    else:
        metrics = {name: {"value": stats[name]["median"] if name in stats else 0.0,
                          "unit": unit} for name, unit in END_TO_END}

    reference = None if smoke else load_reference(workload, seed)
    digest = digests[0] if len(digests) == 1 else None
    record = {
        "workload": workload,
        "seed": seed,
        "seed_changes_inputs": good[0]["seed_changes_inputs"] if good else None,
        "seconds": seconds,
        "trace": trace,
        "smoke": smoke,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_pin": BLAS_PIN,
        "versions": good[0]["versions"] if good else None,
        "repetitions": len(reps),
        "end_to_end": stats,
        "calibration_median_cpu_s": calibration_cpu,
        "calibration_readings": [r["calibration_cpu"] for r in good],
        "ops_failed_frac": failed / attempted,
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:50],
        "csv_digest": digest,
        "csv_digest_vs_baseline": (
            "no reference" if reference is None or digest is None
            else "same" if reference == digest else "differs"
        ),
        "metrics": metrics,
    }
    (out.parent / f"{out.name}.json").write_text(json.dumps(record, indent=1))
    return record


def summary_line(record):
    parts = [f"workload={record['workload']}", f"seed={record['seed']}"]
    for name, s in record["end_to_end"].items():
        parts.append(f"{name}={s['median']:.4f} {s['unit']} "
                     f"(q1 {s['q1']:.4f}, q3 {s['q3']:.4f}, n={s['n']})")
    parts.append(f"ops_failed_frac={record['ops_failed_frac']:.4f} fraction "
                 f"({record['failed']} of {record['attempted']} failed)")
    parts.append(f"csv_digest_vs_baseline={record['csv_digest_vs_baseline']}")
    return "  ".join(parts)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "gibbschain" / "__init__.py").is_file():
        print(f"no gibbschain sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        record = run_workload(name, args.seed, args.seconds, bool(args.trace), args.smoke)
        for label, *detail in record["failures"]:
            print(f"FAILED {label}: {detail}", file=sys.stderr)
        print(summary_line(record))
        print(json.dumps({
            "correct": record["failed"] == 0,
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": record["metrics"],
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
