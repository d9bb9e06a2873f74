"""ncprob benchmark: one closed-loop client running jobs back to back.

    python3 perfbench/run.py --workload limits|density|convolve \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; ncprob is imported from ./src.
With --trace 0 the run measures the end-to-end metrics for S seconds; with
--trace 1 it runs a fixed list of jobs once untraced and once traced and
reports per-layer metrics.  The last line of standard output is the result
object; the line before it is a detailed report, also written, with the
spans of a traced run, under perfbench/out/.  Workloads, metrics and the
reasons for them are described in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

# one BLAS thread, set before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

#: fresh processes timed for setup_s; the median is reported
SETUP_SAMPLES = 7
#: the tail percentile reported as job_s.tail
TAIL_PERCENT = 90
#: seconds the reference kernel takes on the nominal machine; timings are
#: reported as seconds on a machine of that speed (see Speed)
REFERENCE_S = 0.025


def reference_work():
    """Fixed pure-Python complex arithmetic, like the engines' inner loops.

    About 25 ms and independent of ncprob.  A numpy part (small polynomial
    roots) tracked the engines' speed worse than this loop alone did.
    """
    z, acc = 0.3 + 1.0j, 0j
    for _ in range(50000):
        z = z + 0.01 * (1.0 + 0.5 * z) / (0.7 - z) - 0.0001j * z
        acc += z
    return acc


class Speed:
    """The machine's speed during one phase of a run, from a reference kernel.

    On a shared VM the same work runs up to 45% faster or slower from one
    minute to the next.  The kernel is timed between jobs (three times, at
    most once a second); the median over a phase gives the factor that
    scales that phase's wall times to the nominal machine, on which the
    kernel takes REFERENCE_S.
    """

    def __init__(self):
        self.samples = []
        self._last = -math.inf

    def sample(self, min_gap=1.0, repeat=3):
        if time.perf_counter() - self._last < min_gap:
            return
        for _ in range(repeat):
            start = time.perf_counter()
            reference_work()
            self.samples.append(time.perf_counter() - start)
        self._last = time.perf_counter()

    @property
    def factor(self):
        return REFERENCE_S / statistics.median(self.samples)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("limits", "density", "convolve"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="import ncprob and generate the inputs, then exit (times setup_s)")
    return p.parse_args(argv)


def import_ncprob():
    """ncprob from this checkout's src/, never from an installed copy."""
    if not os.path.isfile(os.path.join(SRC, "ncprob", "__init__.py")):
        sys.exit(f"benchmark: no ncprob sources under {SRC}")
    sys.path.insert(0, SRC)
    import ncprob
    import ncprob.cli

    if os.path.dirname(os.path.abspath(ncprob.__file__)) != os.path.join(SRC, "ncprob"):
        sys.exit(f"benchmark: imported ncprob from {ncprob.__file__}, not {SRC}")
    return ncprob


def make_workload(name, ncprob, work):
    import workloads

    cli = workloads.Cli(ncprob.cli, os.path.dirname(ncprob.__file__))
    return workloads.WORKLOADS[name](ncprob, cli, work)


def first_inputs(wl, seed):
    """Input generation counted in setup_s: the jobs of one cycle."""
    return [wl.inputs(seed, i) for i in range(wl.cycle)]


def setup_probe(args):
    ncprob = import_ncprob()
    with tempfile.TemporaryDirectory(dir=OUT) as work:
        first_inputs(make_workload(args.workload, ncprob, work), args.seed)
    return 0


def measure_setup(args, speed):
    """Wall time of fresh processes that import ncprob and generate inputs."""
    argv = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    samples = []
    for _ in range(SETUP_SAMPLES):
        speed.sample(min_gap=0.0)
        start = time.perf_counter()
        subprocess.run(argv, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - start)
    speed.sample(min_gap=0.0)
    return samples


def cycles_per_run(wl, seconds):
    """Whole cycles that fill ``seconds`` on the nominal machine, at least one."""
    return max(1, math.ceil(seconds / wl.cycle_s))


def run_job(wl, seed, index, tracer=None):
    inputs = wl.inputs(seed, index)
    if tracer is not None:
        tracer.active = True
    try:
        job = wl.run(index, inputs)
    finally:
        if tracer is not None:
            tracer.active = False
    for op in job.ops:
        if op.check is not None:
            op.gap, op.correct = op.check()
            op.check = None
    return job


def quartiles(values):
    if len(values) < 2:
        return list(values) * 3
    q = statistics.quantiles(values, n=4, method="inclusive")
    return [q[0], q[1], q[2]]


def percentile(values, pct):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def provenance(ncprob):
    import numpy

    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30).stdout.strip() or None
    except OSError:
        rev = None
    digest = hashlib.sha256()
    pkg = os.path.dirname(ncprob.__file__)
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {"nproc": os.cpu_count(), "git_rev": rev, "src_sha256": digest.hexdigest(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "machine": platform.machine()}


def summarize(jobs):
    """Shares, failure accounting and oracle gaps over every job of a run."""
    ops = [op for job in jobs for op in job.ops]
    done = [op for op in ops if op.ok]
    failures = {}
    for op in ops:
        if not op.ok:
            key = f"{op.name}:{op.error}@{op.layer}"
            failures[key] = failures.get(key, 0) + 1
    wrong = [op for op in done if op.correct is False]
    gaps = [op.gap for op in done if op.gap is not None]
    worst = {}
    for op in done:
        if op.gap is not None:
            worst[op.name] = max(worst.get(op.name, 0.0), op.gap)
    return {
        "attempted": len(ops), "completed": len(done), "failed": len(ops) - len(done),
        "wrong": len(wrong), "failed_share": (len(ops) - len(done)) / len(ops),
        "wrong_share": len(wrong) / len(done) if done else 0.0,
        "failures": dict(sorted(failures.items())),
        "wrong_ops": sorted({f"{op.name}" for op in wrong}),
        "worst_gap": max(gaps) if gaps else None,
        "worst_gap_by_op": worst,
    }


def end_to_end(args, wl):
    setup_speed, job_speed = Speed(), Speed()
    setup = measure_setup(args, setup_speed)
    wl.warmup()
    # a fixed number of whole cycles, so every run sees the same mix of job
    # kinds and the same seed and seconds give the same operations
    jobs = []
    for _ in range(cycles_per_run(wl, args.seconds) * wl.cycle):
        job_speed.sample()
        jobs.append(run_job(wl, args.seed, len(jobs)))
    job_speed.sample(min_gap=0.0)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    detail = summarize(jobs)
    # if nothing completed, completed_share reads 0 and times are of all jobs
    raw = [job.seconds for job in jobs if job.completed] or [job.seconds for job in jobs]
    times = [t * job_speed.factor for t in raw]
    busy = sum(job.seconds for job in jobs) * job_speed.factor
    worst = detail["worst_gap"]
    metrics = {
        "setup_s": (statistics.median(setup) * setup_speed.factor, "s"),
        "job_s.p50": (statistics.median(times), "s"),
        "job_s.tail": (percentile(times, TAIL_PERCENT), "s"),
        "ok_ops_per_s": (detail["completed"] / busy, "1/s"),
        "completed_share": (detail["completed"] / detail["attempted"], "ratio"),
        "correct_share": (1.0 - detail["wrong_share"], "ratio"),
        "oracle_digits": (-math.log10(max(worst, 1e-17)) if worst is not None else 17.0,
                          "digits"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    detail.update({
        "jobs": len(jobs), "cycles": cycles_per_run(wl, args.seconds),
        "completed_jobs": sum(job.completed for job in jobs),
        "job_s_quartiles": quartiles(times),
        "tail_percentile": TAIL_PERCENT,
        "jobs_beyond_tail": sum(t > metrics["job_s.tail"][0] for t in times),
        "speed_factor": {"setup": setup_speed.factor, "jobs": job_speed.factor},
        "reference_s": {"setup": setup_speed.samples, "jobs": job_speed.samples},
        "wall": {"setup_s": setup, "job_s_quartiles": quartiles(raw),
                 "busy_s": sum(job.seconds for job in jobs)},
        "jobs_by_kind": _by_kind(jobs),
    })
    return metrics, detail


def _by_kind(jobs):
    kinds = {}
    for job in jobs:
        entry = kinds.setdefault(job.kind, {"jobs": 0, "seconds": 0.0, "failed_ops": 0})
        entry["jobs"] += 1
        entry["seconds"] += job.seconds
        entry["failed_ops"] += sum(not op.ok for op in job.ops)
    return kinds


def traced(args, wl, stem):
    import tracing

    wl.warmup()
    indices = range(wl.trace_jobs)
    plain = [run_job(wl, args.seed, i) for i in indices]
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        jobs = [run_job(wl, args.seed, i, tracer) for i in indices]
    finally:
        uninstall()
    metrics = tracing.layer_metrics(tracer)
    overhead = sum(j.seconds for j in jobs) - sum(j.seconds for j in plain)
    metrics["trace_overhead_s"] = (overhead, "s")
    detail = summarize(jobs)
    detail.update({"jobs": len(jobs), "spans": len(tracer.span_start),
                   "untraced_s": sum(j.seconds for j in plain),
                   "traced_s": sum(j.seconds for j in jobs)})
    tracer.write(os.path.join(OUT, stem + "-spans.json.gz"),
                 {"workload": args.workload, "seed": args.seed})
    return metrics, detail


def main(argv=None):
    args = parse_args(argv)
    if args.setup_probe:
        return setup_probe(args)
    ncprob = import_ncprob()
    os.makedirs(OUT, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = tempfile.mkdtemp(prefix=stem + "-", dir=OUT)
    try:
        wl = make_workload(args.workload, ncprob, work)
        if args.trace:
            metrics, detail = traced(args, wl, stem)
        else:
            metrics, detail = end_to_end(args, wl)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "provenance": provenance(ncprob),
              "metrics": {k: v for k, (v, _) in metrics.items()}, **detail}
    with open(os.path.join(OUT, stem + ".json"), "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1, sort_keys=True)
    print(json.dumps(detail, sort_keys=True))
    result = {
        "correct": detail["wrong"] == 0,
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
