"""The latincrit benchmark: seeded CLI job lists, timed end to end and per layer.

    python3 perfbench/run.py --workload count --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout (the program is imported from
``src/``).  Each workload runs in a fresh child interpreter
(``worker.py``), single process, one thread, one client in a closed loop.

``--trace 0`` reports the end-to-end metrics, measured with tracing off.
``--trace 1`` alternates untraced and traced passes in one child and
reports the per-layer metrics from the traced passes, plus
``trace.overhead_s``: the median traced pass time minus the untraced one.

Human-readable lines come first; the last line of stdout is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  Times are scaled to a fixed reference machine speed by a
probe run right before and after every job and set-up (``speed.py``),
because the speed of a shared host drifts by more than a change worth
detecting; the unscaled medians are printed beside them.  A copy with
the environment stamp is written to ``.perfbench_out/``.  Exit code 0
means the run completed (``correct`` says whether every output matched);
nonzero means no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from jobs import WORKLOADS, pool_path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD_TIMEOUT_S = 170  # the whole run must end within 180 s


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def run_child(workload: str, seed: int, budget: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT), "--workload", workload,
           "--seed", str(seed), "--budget", str(budget), "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        fail(f"{workload} child exceeded {CHILD_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"{workload} child exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def stamp(trace: int) -> dict:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                              text=True, env=env, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        head = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"git_head": head, "python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu_model": cpu, "tracing": bool(trace)}


def declared_units(kind: str) -> dict:
    """Metric name -> unit for "end_to_end" or "per_layer", from BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def scaled_jobs(one_pass: dict) -> list[float]:
    """A pass's job latencies at the reference speed (``speed.py``)."""
    return [t * f for t, f in zip(one_pass["job_s"], one_pass["scale"])]


def end_to_end(res: dict, lines: list[str]) -> dict:
    passes = [scaled_jobs(p) for p in res["passes"]]
    per_job_ms = [[1000 * s for s in job] for job in zip(*passes)]
    samples_ms = [v for job in per_job_ms for v in job]
    p90 = statistics.quantiles(samples_ms, n=10)[-1]
    beyond = sum(1 for v in samples_ms if v > p90)
    metrics = {
        "wall_s": statistics.median(sum(p) for p in passes),
        # each job's median over passes, then the median over jobs: every
        # job weighs the same and one slow pass cannot move it alone
        "job_ms.p50": statistics.median(statistics.median(job) for job in per_job_ms),
        "setup_s": statistics.median(t * f for t, f in zip(res["setup_s"], res["setup_scale"])),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    lines.append(f"passes {len(passes)}, jobs per pass {len(res['jobs'])}, "
                 f"job samples {len(samples_ms)}, set-ups {len(res['setup_s'])}")
    lines.append(f"times are scaled to the reference speed (speed.py); unscaled medians: "
                 f"wall_s {statistics.median(sum(p['job_s']) for p in res['passes']):.6g} s, "
                 f"setup_s {statistics.median(res['setup_s']):.6g} s")
    if beyond >= 10:
        lines.append(f"job_ms.p90 {p90:.4f} ms ({len(samples_ms)} samples, {beyond} beyond)")
    else:
        lines.append(f"job_ms.p90 not reported: {beyond} of {len(samples_ms)} samples lie beyond it, "
                     f"at least 10 are needed")
    lines.append(f"failed_ratio {res['failed'] / res['attempted']:.4f} ratio")
    return metrics


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "latincrit" / "cli.py").is_file():
        fail(f"no latincrit sources under {ROOT / 'src'}; run from a source checkout")
    if not pool_path(args.workload).is_file():
        fail(f"missing job pool {pool_path(args.workload)}")
    (ROOT / ".perfbench_out").mkdir(exist_ok=True)

    lines = [f"workload {args.workload}, seed {args.seed}, seconds {args.seconds}, trace {args.trace}"]
    res = run_child(args.workload, args.seed, args.seconds, args.trace)
    if args.trace:
        metrics = dict(res["layers"])
        pass_s = {traced: [sum(scaled_jobs(p)) for p in res["passes"] if p["traced"] == traced]
                  for traced in (False, True)}
        metrics["trace.overhead_s"] = statistics.median(pass_s[True]) - statistics.median(pass_s[False])
        units = declared_units("per_layer")
        lines.append(f"passes untraced {len(pass_s[False])}, traced {len(pass_s[True])}, alternating; "
                     f"times are scaled to the reference speed (speed.py)")
        lines += [f"solver.calls in job '{job}': {calls}" for job, calls in res["solver_calls_by_job"].items() if calls]
    else:
        metrics = end_to_end(res, lines)
        units = declared_units("end_to_end")
    attempted, failed = res["attempted"], res["failed"]
    lines += [f"FAILED {f}" for f in res["failures"]]
    env = stamp(args.trace)
    lines.append("environment " + json.dumps(env))
    lines += [f"{name} {metrics[name]:.6g} {unit}" for name, unit in units.items()]

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds, environment=env)
    out = ROOT / ".perfbench_out" / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print("\n".join(lines))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
