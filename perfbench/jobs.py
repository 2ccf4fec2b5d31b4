"""Frozen job pools, seeded job selection and the in-process job runner.

A pool (``data/<workload>.json``) is a list of slots.  Each slot holds a
few variants of one job: the same command on inputs that differ only by a
symbol relabeling (or, for seed-taking commands, by the seed), each with
its expected exit code and stdout frozen by ``freeze.py``.  A benchmark
seed picks one variant per slot and the order of the jobs, so the same
seed always gives the same job list while the amount of work stays
nearly the same from seed to seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from pathlib import Path

DATA_DIR = Path(__file__).resolve().parent / "data"
WORKLOADS = ("lcs-exhaustive", "count", "verify", "tables")
GRID_PLACEHOLDER = "{grid}"
# Untimed first job of every run: exercises argparse, core and the output path.
WARMUP_ARGV = ["construct", "back-circulant", "--n", "3"]


def pool_path(workload: str) -> Path:
    return DATA_DIR / f"{workload}.json"


def load_pool(workload: str) -> dict:
    with open(pool_path(workload), encoding="utf-8") as fh:
        return json.load(fh)


def select_jobs(pool: dict, seed: int) -> list[dict]:
    """One variant per slot, in a seeded order.  Each job keeps its slot
    index as ``slot`` so results can be reported per slot."""
    rng = random.Random(f"{pool['workload']}/{seed}")
    jobs = []
    for slot, entry in enumerate(pool["slots"]):
        variant = entry["variants"][rng.randrange(len(entry["variants"]))]
        jobs.append(dict(variant, slot=slot, label=entry["label"]))
    rng.shuffle(jobs)
    return jobs


def write_inputs(jobs: list[dict], grid_dir: Path) -> list[list[str]]:
    """Write each job's grid file and return the argv lists that name them."""
    grid_dir.mkdir(parents=True, exist_ok=True)
    argvs = []
    for k, job in enumerate(jobs):
        argv = list(job["argv"])
        if job.get("grid") is not None:
            path = grid_dir / f"job{k:03d}.lsq"
            path.write_text(job["grid"], encoding="utf-8")
            argv = [str(path) if a == GRID_PLACEHOLDER else a for a in argv]
        argvs.append(argv)
    return argvs


def run_job(main, argv: list[str]) -> tuple[int | str, str]:
    """Run one CLI command in process.  Returns (exit code, stdout); stderr
    is discarded.  A traceback from the program is reported as the exit
    code "exception: <type>" so it counts as a failed job."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code
        except Exception as exc:  # noqa: BLE001 - a crash is a failed job, not a failed run
            rc = f"exception: {type(exc).__name__}"
    return rc, out.getvalue()
