"""switchsim benchmark: one workload (or all three) in one process.

    python3 perfbench/run.py --workload roundtrip --seed 1 --seconds 20 --trace 0

Closed loop, one client: each job starts when the previous one ends, with
no worker threads or processes and BLAS/OpenMP pinned to one thread.  Jobs
run in whole cycles of the workload's job mix until --seconds have passed.
Set-up (import, input generation, one untimed warm-up job) is timed apart.

--trace 0 prints the end-to-end metrics.  --trace 1 repeats the timed jobs
with every layer wrapped (see tracing.py) and prints the per-layer metrics
plus the tracing overhead.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  The run record
(machine, versions, seed, checks, every metric) goes to perfbench/out/.
"""

import time

STARTED = time.perf_counter()

import os  # noqa: E402

THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TMP = HERE / "tmp"
OUT = HERE / "out"
SETUP_REPEATS = 3  # input generation is repeated and its median kept


def _quantile(values, q):
    ordered = sorted(values)
    return ordered[min(int(q * len(ordered)), len(ordered) - 1)]


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unavailable (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unavailable"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def run_record(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": _git_sha(),
        "seed": seed,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def run_job(wl, job, tracer=None, index=None):
    """Run one job in a fresh directory; return (seconds, ops, err).

    Outputs are checked only when the job is not traced."""
    out = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=TMP))
    try:
        if tracer is None:
            started = time.perf_counter()
            raw = wl.run(job, out)
            seconds = time.perf_counter() - started
            return (seconds, *wl.check(job, raw, out))
        with tracer.job_span(index):
            started = time.perf_counter()
            wl.run(job, out)
            seconds = time.perf_counter() - started
        return seconds, [], 0.0
    finally:
        shutil.rmtree(out, ignore_errors=True)


def timed_loop(wl, seconds: float, n_jobs=None, tracer=None):
    """Jobs in whole cycles until `seconds` pass (or exactly n_jobs)."""
    times, ops, errs = [], [], []
    started = time.perf_counter()
    i = 0
    while True:
        for _ in range(wl.cycle):
            s, o, e = run_job(wl, wl.job_at(i), tracer, i)
            times.append(s)
            ops += o
            errs.append(e)
            i += 1
        if (n_jobs is None and time.perf_counter() - started >= seconds) or (n_jobs is not None and i >= n_jobs):
            break
    return times, ops, errs, time.perf_counter() - started


def run_workload(name: str, args, cli, modules, import_s: float) -> dict:
    from workloads import WORKLOADS

    wl = WORKLOADS[name](args.seed, cli)
    gen = []
    for k in range(SETUP_REPEATS):
        area = Path(tempfile.mkdtemp(prefix=f"{name}-inputs-", dir=TMP))
        started = time.perf_counter()
        wl.make_inputs(area)
        gen.append(time.perf_counter() - started)
        if k + 1 < SETUP_REPEATS:
            shutil.rmtree(area)
    try:
        started = time.perf_counter()
        _, warm_ops, _ = run_job(wl, wl.warmup)
        warmup_s = time.perf_counter() - started
        setup_s = import_s + statistics.median(gen) + warmup_s

        times, ops, errs, wall = timed_loop(wl, args.seconds)
        result = {
            "workload": name,
            "jobs": len(times),
            "setup": {"import_s": import_s, "inputs_s": gen, "warmup_s": warmup_s},
            "warmup_failures": [vars(o) for o in warm_ops if not o.ok and not o.known],
            "attempted": len(ops),
            "failed": sum(not o.ok for o in ops),
            "unexpected": sum(not o.ok and not o.known for o in ops),
            "failures": sorted({(o.name, o.detail, o.known) for o in ops if not o.ok}),
            "end_to_end": {
                "jobs_per_s": (len(times) / wall, "1/s"),
                "job_p50_s": (statistics.median(times), "s"),
                "setup_s": (setup_s, "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
                "fail_frac": (sum(not o.ok for o in ops) / max(len(ops), 1), "fraction"),
                "result_err": (max(errs), "1"),
            },
        }
        # the highest percentile with at least ten samples beyond it
        if len(times) >= 100:
            result["end_to_end"]["job_p90_s"] = (_quantile(times, 0.9), "s")

        if args.trace:
            from tracing import Tracer

            tracer = Tracer()
            tracer.install(modules)
            try:
                traced, _, _, _ = timed_loop(wl, args.seconds, n_jobs=len(times), tracer=tracer)
            finally:
                tracer.uninstall()
            per_layer, absent = tracer.metrics(len(traced))
            per_layer["trace.overhead_s"] = statistics.median(traced) - statistics.median(times)
            result["per_layer"] = per_layer
            result["absent_metrics"] = absent
            result["absent_names"] = tracer.absent
            result["traced_job_p50_s"] = statistics.median(traced)
            tracer.write_spans(OUT / f"spans-{name}-seed{args.seed}.jsonl")
    finally:
        shutil.rmtree(area, ignore_errors=True)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=["roundtrip", "tomo_batch", "curves", "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    args = parser.parse_args(argv)

    if not (SRC / "switchsim" / "__init__.py").is_file():
        print(f"switchsim sources not found in {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import switchsim
    from switchsim import cli, coherent, detector, mat2, measurement, scurves, tomography, trajectory

    import_s = time.perf_counter() - STARTED
    if Path(switchsim.__file__).resolve().parent != (SRC / "switchsim").resolve():
        print(f"imported switchsim from {switchsim.__file__}, not {SRC}", file=sys.stderr)
        return 2
    modules = {
        "cli": cli, "trajectory": trajectory, "detector": detector, "tomography": tomography,
        "measurement": measurement, "scurves": scurves, "coherent": coherent, "mat2": mat2,
    }
    TMP.mkdir(exist_ok=True)
    OUT.mkdir(exist_ok=True)

    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    # ascending memory, so each workload's ru_maxrss is its own high-water mark
    names = ["curves", "tomo_batch", "roundtrip"] if args.workload == "all" else [args.workload]
    record = run_record(args.seed)
    print("# run record: " + json.dumps(record))
    results = [run_workload(name, args, cli, modules, import_s) for name in names]

    metrics = {}
    for res in results:
        print(f"# workload {res['workload']}: {res['jobs']} jobs, {res['attempted']} operations, "
              f"{res['failed']} failed ({res['unexpected']} unexpected)")
        for name, (value, unit) in res["end_to_end"].items():
            print(f"#   {name:<34} {value:>14.6g} {unit}")
        for op_name, detail, known in res["failures"]:
            print(f"#   FAILED {op_name}: {detail}{' (known defect)' if known else ''}")
        for op in res["warmup_failures"]:
            print(f"#   FAILED in warm-up {op['name']}: {op['detail']}")
        values = dict(res.get("per_layer", {}))
        values.update({k: v for k, (v, _) in res["end_to_end"].items()})
        if args.trace:
            for m in wanted:
                mark = "absent" if m["name"] in res["absent_metrics"] else ""
                print(f"#   {m['name']:<34} {values[m['name']]:>14.6g} {m['unit']} {mark}")
        prefix = "" if len(results) == 1 else res["workload"] + "."
        for m in wanted:
            metrics[prefix + m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"record": record, "args": vars(args), "results": results}, fh, indent=1, default=str)
    print(json.dumps({
        "correct": all(r["unexpected"] == 0 and not r["warmup_failures"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
