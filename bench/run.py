"""torusrep benchmark: one process, one client, closed loop.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from `src/`. Each job is
one CLI invocation, `torusrep.cli.main(argv)` in-process, issued only after
the previous one returned, with every functools cache in the package cleared
first so that each job pays what a fresh CLI process pays. Outputs are checked
outside the timed region (see `refcheck`).

A run repeats the workload's job list (a "pass") until `--seconds` have
elapsed; an untraced run stops at the first job due after that, once every job
has run at least once. Every time below is converted to reference host speed
(see `speed`); the raw seconds are kept in the record. With `--trace 0` it
prints the end-to-end metrics:

  setup_s          median of the set-up samples: fresh import of the package,
                   job generation and warm-up, three before every pass
  wall_s           sum over the job list of each job's median time
  job_s.p50        median over the job list of each job's median time
                   (job and sample counts in the record)
  peak_rss_mb      peak resident memory of the process
  passed_frac      share of checked outputs that passed (1 - failed/attempted)
  accuracy_digits  mean agreement digits of the float rows (see `refcheck`)

With `--trace 1` it alternates untraced and traced passes and prints the
per-layer metrics of the traced ones (see `spans`). `attempted` and `failed`
count the jobs of the untraced passes. A job fails, and makes `correct`
false, when it raised or exited with an unexpected status, an output is
missing or malformed, or an exact check failed. A float row that disagrees
with the reference is a failed checked output, counted in `passed_frac` and
`accuracy_digits`, not a failed job.

The last line of standard output is the JSON result; the full record, with
provenance and per-job times, and the spans of a traced run are written under
`.bench_out/`.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import pkgutil
import platform
import resource
import statistics
import sys
import time
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUPS_PER_PASS = 3
WARM_UP = (
    ("verify", "--N", "3"),
    ("amu", "--word", "y z^-1", "--N", "3", "--pmax", "15", "--format", "json"),
)


def _drop_torusrep_modules():
    for name in [n for n in sys.modules if n == "torusrep" or n.startswith("torusrep.")]:
        del sys.modules[name]


def fresh_import(src: Path) -> dict[str, types.ModuleType]:
    """Import every torusrep module anew from `src` and return them by short name."""
    _drop_torusrep_modules()
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    pkg = importlib.import_module("torusrep")
    if Path(pkg.__file__).resolve().parent != (src / "torusrep").resolve():
        raise RuntimeError(f"torusrep was imported from {pkg.__file__}, not from {src}")
    return {
        info.name: importlib.import_module(f"torusrep.{info.name}")
        for info in pkgutil.iter_modules(pkg.__path__)
    }


def find_caches(modules) -> list:
    """Every functools cache reachable from the modules' namespaces, including
    methods of the classes they define."""
    caches, seen = [], set()

    def visit(obj):
        obj = getattr(obj, "__func__", obj)  # staticmethod / classmethod
        if hasattr(obj, "cache_clear") and id(obj) not in seen:
            seen.add(id(obj))
            caches.append(obj)

    for mod in modules.values():
        for obj in vars(mod).values():
            visit(obj)
            if isinstance(obj, type) and obj.__module__ == mod.__name__:
                for member in vars(obj).values():
                    visit(member)
    return caches


@contextlib.contextmanager
def own_torusrep_modules():
    """Restore the caller's torusrep modules afterwards, so that an in-process
    run (the smoke test) leaves the importing process as it found it."""
    saved = {n: m for n, m in sys.modules.items() if n == "torusrep" or n.startswith("torusrep.")}
    try:
        yield
    finally:
        _drop_torusrep_modules()
        sys.modules.update(saved)


def run_job(main, argv, caches):
    for cache in caches:
        cache.cache_clear()
    gc.collect()
    out, err = io.StringIO(), io.StringIO()
    error = rc = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(list(argv))
    except Exception as exc:  # a crashing job is a counted failure, not a crashed benchmark
        error = exc
    return (t0, time.perf_counter()), rc, out.getvalue(), error


def pin_to_quietest_cpu():
    """Pin this process to the allowed CPU on which a short fixed loop runs
    fastest now. The benchmark is single-threaded, and on a shared host the
    CPUs can differ in speed by a third from co-tenant load; pinning removes
    the noise of migrating between them."""
    if not hasattr(os, "sched_setaffinity"):
        return None

    def loop():
        t0 = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i
        return time.perf_counter() - t0

    allowed = sorted(os.sched_getaffinity(0))
    speed = {}
    for cpu in allowed:
        os.sched_setaffinity(0, {cpu})
        speed[cpu] = statistics.median(loop() for _ in range(7))
    best = min(speed, key=speed.get)
    os.sched_setaffinity(0, {best})
    return {"cpu": best, "calibration_s": speed}


def git_sha(root: Path):
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(numpy):
    return {
        "git_sha": git_sha(ROOT),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": {k: os.environ.get(k) for k in BLAS_ENV},
        "machine": platform.machine(),
    }


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False,
                  spans_path: Path | None = None):
    """One run; returns (result line, full record) and writes the spans of a
    traced run to `spans_path`. `tiny` shrinks every job for the smoke test."""
    import numpy

    import refcheck
    import spans
    import speed
    import workloads

    src = ROOT / "src"
    if not (src / "torusrep" / "__init__.py").is_file():
        raise FileNotFoundError(f"no torusrep sources under {src}")

    setup_times = []

    def set_up():
        """Fresh import, job generation and warm-up, repeated and timed."""
        for _ in range(SETUPS_PER_PASS):
            t0 = time.perf_counter()
            mods = fresh_import(src)
            mcg = mods["mcg"]

            def is_pa(text):
                return mcg.classify(mcg.parse_word(text)) is mcg.NTClass.PSEUDO_ANOSOV

            jobs = workloads.generate(workload, seed, is_pa, tiny)
            caches = find_caches(mods)
            for argv in WARM_UP:
                run_job(mods["cli"].main, argv, caches)
            setup_times.append((t0, time.perf_counter()))
        return mods, jobs, caches

    with own_torusrep_modules(), speed.Speedometer() as meter:
        mods, jobs, caches = set_up()
        t0 = time.perf_counter()
        refs = refcheck.References(mods["numeric"], jobs)
        ref_s = time.perf_counter() - t0

        tracer = spans.Tracer()
        tally = refcheck.Tally()
        plain, traced_passes = [], []  # per pass: ([(t0, t1) per job run], tracer marks)
        deadline = time.perf_counter() + seconds
        while True:
            traced = trace and len(traced_passes) < len(plain)
            if time.perf_counter() >= deadline and plain and (traced_passes or not trace):
                break
            if plain:  # set-up is sampled before every pass, spread over the run
                mods, again, caches = set_up()
                if again != jobs:
                    raise RuntimeError("job generation is not deterministic")
            if traced:
                tracer.bind(mods)
                tracer.install()
            before = tracer.mark()
            intervals = []
            for job in jobs:
                if not trace and plain and time.perf_counter() >= deadline:
                    break
                interval, rc, out, error = run_job(mods["cli"].main, job.argv, caches)
                intervals.append(interval)
                if not traced:
                    refcheck.check(job, rc, out, error, refs, tally)
            after = tracer.mark()
            if traced:
                tracer.uninstall()
            (traced_passes if traced else plain).append((intervals, before, after))

    def seconds_of(passes, i, norm=True):
        return [meter.normalise(*p[0][i]) if norm else p[0][i][1] - p[0][i][0]
                for p in passes if i < len(p[0])]

    job_times = [seconds_of(plain, i) for i in range(len(jobs))]
    setup_s = [meter.normalise(*t) for t in setup_times]
    record = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "provenance": provenance(numpy),
        "jobs": [{"argv": " ".join(j.argv), "seconds": t, "raw_seconds": seconds_of(plain, i, False)}
                 for i, (j, t) in enumerate(zip(jobs, job_times))],
        "passes": len(plain),
        "job_samples": sum(len(t) for t in job_times),
        "setup_samples": setup_s,
        "raw_setup_samples": [t1 - t0 for t0, t1 in setup_times],
        "speed_samples": len(meter.loop_s),
        "loop_s": {"min": min(meter.loop_s), "median": statistics.median(meter.loop_s),
                   "max": max(meter.loop_s), "reference": speed.REF_LOOP_S},
        "reference_rows": len(refs.rows),
        "reference_s": ref_s,
        "checked": {"jobs": tally.jobs, "failed_jobs": tally.failed_jobs,
                    "attempted": tally.attempted, "failed": tally.failed,
                    "worst_rel": tally.worst_rel, "flagged": tally.flagged,
                    "problems": tally.problems[:20]},
    }
    if trace:
        per_pass = [tracer.layer_metrics(p[1], p[2]) for p in traced_passes]
        metrics = {k: statistics.median_low(m[k] for m in per_pass) for k in per_pass[0]}
        traced_wall = statistics.median(sum(meter.normalise(*t) for t in p[0]) for p in traced_passes)
        plain_wall = statistics.median(sum(meter.normalise(*t) for t in p[0]) for p in plain)
        metrics["trace.overhead_frac"] = traced_wall / plain_wall - 1.0
        units = {name: unit for name, unit, _, _ in spans.LAYER_METRICS}
        record["spans"] = len(tracer.start)
        if spans_path is not None:
            spans_path.parent.mkdir(exist_ok=True)
            tracer.dump(spans_path)
    else:
        metrics = {
            "setup_s": statistics.median(setup_s),
            "wall_s": sum(statistics.median(t) for t in job_times),
            "job_s.p50": statistics.median(statistics.median(t) for t in job_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "passed_frac": tally.passed_frac,
            "accuracy_digits": tally.accuracy_digits,
        }
        units = {"setup_s": "s", "wall_s": "s", "job_s.p50": "s", "peak_rss_mb": "MB",
                 "passed_frac": "frac", "accuracy_digits": "digits"}
    result = {
        "correct": not tally.problems,
        "attempted": tally.jobs,
        "failed": tally.failed_jobs,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record["result"] = result
    return result, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("exact_checks", "level_scan", "long_words"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    pinned = pin_to_quietest_cpu()
    out_dir = ROOT / ".bench_out"
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        result, record = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace),
                                       spans_path=out_dir / f"{stem}.spans.json")
    except (FileNotFoundError, RuntimeError, ImportError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    record["provenance"]["affinity"] = pinned
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    checked = record["checked"]
    print(f"# {stem}: {record['passes']} passes, {record['job_samples']} job samples, "
          f"{record['reference_rows']} reference rows in {record['reference_s']:.2f} s, "
          f"{checked['failed_jobs']}/{checked['jobs']} jobs failed, "
          f"{checked['failed']}/{checked['attempted']} checked outputs failed")
    print("# provenance " + json.dumps(record["provenance"], sort_keys=True))
    for problem in record["checked"]["problems"]:
        print(f"# problem: {problem}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    for var in BLAS_ENV:  # before numpy is imported
        os.environ[var] = "1"
    sys.exit(main())
