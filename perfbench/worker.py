"""One timed run of one workload, in a fresh interpreter.

Started by ``run.py``; prints one JSON object on stdout.  Set-up (import
of latincrit plus writing the grid files) runs first and is then repeated
between jobs throughout the run, timed on its own; an untimed warm-up job
follows the first set-up, then whole passes over the job list run back to
back, one client in a closed loop, until the time budget (which covers
the whole run) would be exceeded by another pass; with ``--trace 1``
untraced and traced passes alternate.  Every job's exit code and stdout
are checked against the frozen expectation.  The speed probe
(``speed.py``) runs right before and after every set-up and job, and
during long jobs; each time goes out raw with its scale to the reference
speed, and ``run.py`` multiplies them.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import sys
import time
from collections import Counter
from pathlib import Path

from jobs import WARMUP_ARGV, load_pool, run_job, select_jobs, write_inputs
from speed import Sampler, factor, probe

SETUP_EVERY_JOBS = 3


def _latincrit_modules() -> list[str]:
    return [m for m in sys.modules if m == "latincrit" or m.startswith("latincrit.")]


def set_up(root: Path, workload: str, seed: int):
    """Import latincrit from scratch and write this seed's grid files.
    Returns the time taken, the fresh ``latincrit.cli``, the jobs and
    their argv lists."""
    for name in _latincrit_modules():
        del sys.modules[name]
    gc.collect()  # every set-up starts from the same heap, left untimed
    start = time.perf_counter()
    cli = importlib.import_module("latincrit.cli")
    jobs = select_jobs(load_pool(workload), seed)
    argvs = write_inputs(jobs, root / ".perfbench_out" / "grids" / f"{workload}-seed{seed}")
    return time.perf_counter() - start, cli, jobs, argvs


class SetUps:
    """Repeats the set-up after every SETUP_EVERY_JOBS-th job, so that its
    samples spread over the whole run like the jobs' do.  Each repeat is
    timed between two probe readings, and afterwards the modules of the
    first import are put back, so the jobs keep running on one import with
    its caches warm (and its tracing, if installed)."""

    def __init__(self, root: Path, workload: str, seed: int):
        self.args = (root, workload, seed)
        self.setup_s, self.scale = [], []
        self.jobs_since = 0

    def run(self):
        before = probe()
        seconds, *prepared = set_up(*self.args)
        self.scale.append(factor([before, probe()]))
        self.setup_s.append(seconds)
        return prepared

    def after_job(self) -> bool:
        """Repeat the set-up if it is due; returns whether it ran."""
        self.jobs_since += 1
        if self.jobs_since < SETUP_EVERY_JOBS:
            return False
        self.jobs_since = 0
        first = {name: sys.modules[name] for name in _latincrit_modules()}
        self.run()
        for name in _latincrit_modules():
            del sys.modules[name]
        sys.modules.update(first)
        return True


def run_pass(main_fn, jobs, argvs, tracer, setups, failures) -> tuple[list[float], list[float]]:
    """Run every job once.  Returns each job's latency and its scale to the
    reference speed, from the probe readings right before and after it and
    those the sampler took during it (``speed.py``).  The sampler's own
    time is taken out of the latency."""
    times, scales = [], []
    sampler = Sampler()
    before = probe()
    for job, argv in zip(jobs, argvs):
        if tracer:
            tracer.job += 1
        sampler.start()
        t0 = time.perf_counter()
        rc, out = run_job(main_fn, argv)
        seconds = time.perf_counter() - t0
        during, overhead = sampler.stop()
        after = probe()
        times.append(seconds - overhead)
        scales.append(factor([before, *during, after]))
        if (rc, out) != (job["rc"], job["stdout"]):
            failures.append({"job": job["label"], "argv": job["argv"], "rc": rc, "want_rc": job["rc"]})
        before = probe() if setups.after_job() else after
    return times, scales


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", type=Path, required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--budget", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    sys.path.insert(0, str(args.root / "src"))
    start = time.perf_counter()

    setups = SetUps(args.root, args.workload, args.seed)
    cli, jobs, argvs = setups.run()
    run_job(cli.main, WARMUP_ARGV)

    # With tracing, untraced and traced passes alternate, so that both see
    # the same machine conditions and their difference is the overhead.
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        traced_main = tracer.wrap("cli", "main", cli.main)
    passes, failures = [], []
    traced = False
    while True:
        pass_start = time.perf_counter()
        if traced:
            tracer.install()
            times, scales = run_pass(traced_main, jobs, argvs, tracer, setups, failures)
            tracer.uninstall()
        else:
            times, scales = run_pass(cli.main, jobs, argvs, None, setups, failures)
        passes.append({"traced": traced, "job_s": times, "scale": scales})
        seconds = time.perf_counter() - pass_start
        may_stop = tracer is None or any(p["traced"] for p in passes)
        if may_stop and time.perf_counter() - start + seconds > args.budget:
            break
        traced = tracer is not None and not traced

    result = {
        "setup_s": setups.setup_s,
        "setup_scale": setups.scale,
        "passes": passes,
        "attempted": len(jobs) * len(passes),
        "failed": len(failures),
        "failures": failures[:5],
        "jobs": [job["label"] for job in jobs],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer:
        traced_passes = [p for p in passes if p["traced"]]
        n = len(traced_passes)
        # one scale per traced job run, in the order of the tracer's job ids
        result["layers"] = tracer.summary(n, [scale for p in traced_passes for scale in p["scale"]])
        by_job = Counter()
        for run, calls in tracer.solver_calls_by_job().items():
            by_job[run % len(jobs)] += calls
        result["solver_calls_by_job"] = {jobs[k]["label"]: by_job[k] // n for k in range(len(jobs))}
        tracer.dump(args.root / ".perfbench_out" / f"spans-{args.workload}.jsonl")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
