"""Build the frozen job pools in ``data/``: inputs plus expected outputs.

Run from the repository root, on the commit whose output is taken as
correct:

    python3 perfbench/freeze.py

Inputs come from the benchmark's own seeded generators, never from the
program.  Expected stdout and exit codes of small jobs (order <= 5 and few
completions) are derived with the independent naive enumerator in
``tests/oracle.py`` and must match the program's output; the rest are the
program's output at this commit.  The pools are rebuilt only when a
workload changes, never to make a failing run pass.
"""

from __future__ import annotations

import json
import math
import random
import statistics
import subprocess
import sys
from itertools import combinations
from pathlib import Path

from jobs import DATA_DIR, GRID_PLACEHOLDER, WORKLOADS, pool_path, run_job, write_inputs

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import latincrit.solver  # noqa: E402
from latincrit.cli import main  # noqa: E402
from oracle import naive_completions, naive_count  # noqa: E402

VARIANTS = 8  # relabelings (or seeds) per slot
CANDIDATES = 32  # generated per slot, narrowed to the VARIANTS of most typical work
ORACLE_MAX_ORDER = 5
ORACLE_MAX_COMPLETIONS = 2000
WORK_DIR = ROOT / ".perfbench_out" / "freeze"
NODES = [0]


def _counting(propagate):
    def counted(*args):
        NODES[0] += 1
        return propagate(*args)

    return counted


# ---------------------------------------------------------------- inputs


def random_square(n: int, rng: random.Random) -> list[list[int]]:
    """Complete Latin square by backtracking with shuffled symbols."""
    grid = [[0] * n for _ in range(n)]

    def fill(idx: int) -> bool:
        if idx == n * n:
            return True
        r, c = divmod(idx, n)
        used = set(grid[r]) | {grid[i][c] for i in range(r)}
        symbols = [s for s in range(1, n + 1) if s not in used]
        rng.shuffle(symbols)
        for s in symbols:
            grid[r][c] = s
            if fill(idx + 1):
                return True
        grid[r][c] = 0
        return False

    fill(0)
    return grid


def relabel(grid: list[list[int]], perm: list[int]) -> list[list[int]]:
    return [[perm[v - 1] if v else 0 for v in row] for row in grid]


def symbol_perms(n: int, rng: random.Random, count: int = CANDIDATES) -> list[list[int]]:
    return [rng.sample(range(1, n + 1), n) for _ in range(count)]


def serialize(grid) -> str:
    rows = (" ".join(str(v) if v else "." for v in row) for row in grid)
    return f"{len(grid)}\n" + "\n".join(rows) + "\n"


class Partial:
    """The attributes of a partial square that the oracle reads."""

    def __init__(self, grid):
        self.order = len(grid)
        self.grid = tuple(tuple(row) for row in grid)


def nelder(n: int) -> list[list[int]]:
    return [[(i + j) % n + 1 if i + j <= n - 2 else 0 for j in range(n)] for i in range(n)]


CLASSIC_5X5 = [[2, 0, 4, 3, 0], [0, 0, 1, 2, 0], [0, 2, 3, 1, 0], [3, 1, 2, 0, 0], [0, 0, 0, 0, 0]]


def count_program(grid, cap: int) -> int:
    """Capped completion count through the CLI, used only to pick hole counts."""
    (WORK_DIR / "probe.lsq").write_text(serialize(grid), encoding="utf-8")
    rc, out = run_job(main, ["complete", str(WORK_DIR / "probe.lsq"), "--count-cap", str(cap)])
    if rc != 0:
        raise SystemExit(f"complete failed on a generated input: {rc} {out}")
    return int(out.split()[1])


def punch(square, order, k):
    grid = [row[:] for row in square]
    for idx in order[:k]:
        grid[idx // len(square)][idx % len(square)] = 0
    return grid


def count_instance(n: int, target: float, rng: random.Random):
    """A partial square of order n whose completion count lies within a
    factor 1.6 of target: remove cells of a random square in a random
    order, bisecting on how many (the count only grows with removals)."""
    lo_band, hi_band = target / 1.6, target * 1.6
    while True:
        square = random_square(n, rng)
        order = rng.sample(range(n * n), n * n)
        lo, hi = 0, n * n
        while lo < hi:  # smallest k with count >= lo_band
            k = (lo + hi) // 2
            if count_program(punch(square, order, k), math.ceil(lo_band)) >= lo_band:
                hi = k
            else:
                lo = k + 1
        grid = punch(square, order, lo)
        count = count_program(grid, math.ceil(hi_band) + 1)
        if lo_band <= count <= hi_band:
            return grid, lo, count


# ---------------------------------------------------------------- oracle


def oracle_complete(grid, witnesses: bool) -> str:
    comps = naive_completions(Partial(grid))
    out = f"completions: {len(comps)}\n"
    if len(comps) == 1:
        out += "completion:\n" + serialize(comps[0])
    elif witnesses:
        out += "".join("witness:\n" + serialize(c) for c in comps[:2])
    return out


def _unique(grid) -> bool:
    return naive_count(Partial(grid), limit=2) == 1


def _without(grid, r, c):
    g = [row[:] for row in grid]
    g[r][c] = 0
    return g


def oracle_verify(grid) -> tuple[int, str]:
    size = sum(1 for row in grid for v in row if v)
    filled = [(r, c) for r, row in enumerate(grid) for c, v in enumerate(row) if v]
    uc = _unique(grid)
    removable = [(r, c) for r, c in filled if _unique(_without(grid, r, c))] if uc else []
    minimal = uc and not removable
    yn = lambda b: "yes" if b else "no"  # noqa: E731
    out = f"uniquely completable: {yn(uc)}\nminimal: {yn(minimal)}\ncritical: {yn(minimal)} (size {size})\n"
    if removable:
        out += "removable: " + " ".join(f"({r + 1},{c + 1};{grid[r][c]})" for r, c in removable) + "\n"
    return (0 if minimal else 1), out


def oracle_reduced(n: int) -> list:
    border = [[(c + 1 if r == 0 else r + 1 if c == 0 else 0) for c in range(n)] for r in range(n)]
    return naive_completions(Partial(border))


def oracle_lcs(n: int) -> str:
    """Largest critical set over reduced squares by a full subset scan,
    with the program's witness rule: the lexicographically smallest
    maximum set in triple order, first square on ties."""
    best = None
    for square in oracle_reduced(n):
        triples = [(r + 1, c + 1, v) for r, row in enumerate(square) for c, v in enumerate(row)]
        for size in range(len(triples), -1, -1):
            found = None
            for subset in combinations(triples, size):
                grid = [[0] * n for _ in range(n)]
                for r, c, v in subset:
                    grid[r - 1][c - 1] = v
                if _unique(grid) and not any(_unique(_without(grid, r - 1, c - 1)) for r, c, _ in subset):
                    found = subset  # combinations come in lexicographic order
                    break
            if found is not None:
                break
        if best is None or size > best[0] or (size == best[0] and found < best[1]):
            best = (size, found, square)
    size, subset, square = best
    witness = [[0] * n for _ in range(n)]
    for r, c, v in subset:
        witness[r - 1][c - 1] = v
    return f"lcs({n}) = {size}\nwitness square:\n{serialize(square)}witness set:\n{serialize(witness)}"


def oracle_count_list(n: int) -> str:
    return "\n".join(serialize(s) for s in oracle_reduced(n))


# ---------------------------------------------------------------- pools


def _job(argv, grid) -> dict:
    return {"argv": argv, "grid": None if grid is None else serialize(grid)}


def search_nodes(argv, grid=None) -> int:
    """Solver search nodes (propagation rounds) the job takes: the work
    measure used to pick variants of equal cost."""
    NODES[0] = 0
    (argv_run,) = write_inputs([_job(argv, grid)], WORK_DIR)
    run_job(main, argv_run)
    return NODES[0]


def typical(candidates: list[tuple]) -> list[tuple]:
    """The VARIANTS (argv, grid) candidates whose search-node count is
    closest to the median, in their original order, each with its count.
    Relabeling an input changes the path of a capped search, so without
    this pick the work per pass would depend on the benchmark seed."""
    work = [search_nodes(*c) for c in candidates]
    mid = statistics.median(work)
    keep = sorted(sorted(range(len(candidates)), key=lambda k: abs(work[k] - mid))[:VARIANTS])
    return [(*candidates[k], work[k]) for k in keep]


def variant(argv, grid=None, oracle=None, nodes=None) -> dict:
    """A job with its expected output.  `oracle` is a function of the grid
    returning (rc, stdout) from the naive enumerator, or None to take the
    program's output; when given, the program must agree with it."""
    job = _job(argv, grid)
    (argv_run,) = write_inputs([job], WORK_DIR)
    rc, out = run_job(main, argv_run)
    if oracle is not None:
        want = oracle(grid)
        if want != (rc, out):
            raise SystemExit(f"program disagrees with the oracle on {argv}:\n{want!r}\n{(rc, out)!r}")
    return dict(job, rc=rc, stdout=out, source="oracle" if oracle else "program", search_nodes=nodes)


def slot(label: str, candidates: list[tuple], oracle=None, **props) -> dict:
    """A slot from (argv, grid) candidates; several are narrowed to VARIANTS."""
    print(f"  {label}", file=sys.stderr)
    picked = typical(candidates) if len(candidates) > 1 else [(*candidates[0], None)]
    variants = [variant(argv, grid, oracle, nodes) for argv, grid, nodes in picked]
    return dict(label=label, variants=variants, **props)


SMALL_LCS_REPEATS = 8


def pool_lcs() -> tuple[list, dict]:
    """lcs 4 once and the millisecond-scale lcs 1..3 SMALL_LCS_REPEATS times
    each per pass: with one sample per pass the small jobs' latency, and so
    job_ms.p50, would rest on three or four samples a run."""
    slots = [slot("lcs 4 --exhaustive", [(["lcs", "4", "--exhaustive"], None)])]
    for n in range(1, 4):
        small = slot(f"lcs {n} --exhaustive", [(["lcs", str(n), "--exhaustive"], None)], lambda _, n=n: (0, oracle_lcs(n)))
        slots += [dict(small, label=f"{small['label']} #{k + 1}") for k in range(SMALL_LCS_REPEATS)]
    return slots, {"orders": [1, 2, 3, 4], "repeats_of_lcs_1_to_3": SMALL_LCS_REPEATS}


def pool_count() -> tuple[list, dict]:
    slots = []
    jobs = 30
    for i in range(jobs):
        n = (5, 6, 7)[i % 3]
        target = 10 ** (1 + 3 * i / (jobs - 1))
        rng = random.Random(f"count/{i}")
        base, holes, count = count_instance(n, target, rng)
        witnesses = i % 4 == 1
        argv = ["complete", GRID_PLACEHOLDER, "--count-cap", "0"] + (["--witnesses"] if witnesses else [])
        small = n <= ORACLE_MAX_ORDER and count <= ORACLE_MAX_COMPLETIONS
        oracle = (lambda g, w=witnesses: (0, oracle_complete(g, w))) if small else None
        # uncapped search visits the same tree under any symbol relabeling,
        # so every relabeling has the same work and no narrowing is needed
        candidates = [(argv, relabel(base, p)) for p in symbol_perms(n, rng, VARIANTS)]
        label = f"{' '.join(argv[:1] + argv[2:])} n={n} holes={holes}/{n * n} count={count}"
        slots.append(slot(label, candidates, oracle, order=n, hole_fraction=round(holes / (n * n), 3),
                          completions=count))
    props = {
        "orders": sorted({s["order"] for s in slots}),
        "hole_fractions": [min(s["hole_fraction"] for s in slots), max(s["hole_fraction"] for s in slots)],
        "completions_per_pass": sum(s["completions"] for s in slots),
        "completions_range": [min(s["completions"] for s in slots), max(s["completions"] for s in slots)],
    }
    return slots, props


def pool_verify() -> tuple[list, dict]:
    rng = random.Random("verify")
    slots = []
    verify = ["verify", GRID_PLACEHOLDER]
    for n in (8, 9, 10, 11, 12):
        slots.append(slot(f"verify nelder-triangle n={n}", [(verify, relabel(nelder(n), p)) for p in symbol_perms(n, rng)]))
    slots.append(slot("verify classic 5x5", [(verify, relabel(CLASSIC_5X5, p)) for p in symbol_perms(5, rng)],
                      oracle_verify))
    base = random_square(5, rng)
    base = [[v if r and c else 0 for c, v in enumerate(row)] for r, row in enumerate(base)]
    slots.append(slot("verify minus-first-rc n=5 (not minimal)",
                      [(verify, relabel(base, p)) for p in symbol_perms(5, rng)], oracle_verify))
    for n in (8, 10, 12):
        base = random_square(n, rng)
        perms = symbol_perms(n, rng)
        for extra in ([], ["--order", "random", "--seed", "1"]):
            argv = ["minimize", GRID_PLACEHOLDER] + extra
            slots.append(slot(f"minimize n={n} {' '.join(extra) or 'row-major'}", [(argv, relabel(base, p)) for p in perms]))
    for argv in (["construct", "nelder-triangle", "--n", "10", "--verify"],
                 ["construct", "classic-5x5", "--verify"],
                 ["construct", "back-circulant", "--n", "9", "--verify"]):
        slots.append(slot(" ".join(argv), [(argv, None)]))
    base = random_square(9, rng)
    argv = ["construct", "minus-first-rc", "--in", GRID_PLACEHOLDER, "--verify"]
    slots.append(slot("construct minus-first-rc n=9 --verify", [(argv, relabel(base, p)) for p in symbol_perms(9, rng)]))
    for n in (5, 6, 7):
        slots.append(slot(f"lcs {n} --heuristic --starts 2", [
            (["lcs", str(n), "--heuristic", "--starts", "2", "--seed", str(s)], None) for s in range(CANDIDATES)]))
    return slots, {"orders": [5, 6, 7, 8, 9, 10, 11, 12]}


def pool_tables() -> tuple[list, dict]:
    slots = [
        slot("count 6 --allow-large", [(["count", "6", "--allow-large"], None)]),
        slot("count 5 --list", [(["count", "5", "--list"], None)], lambda _: (0, oracle_count_list(5))),
    ]
    for n in range(1, 6):
        slots.append(slot(f"check-chain {n}", [(["check-chain", str(n)], None)]))
    starts = [2 + 25 * k for k in range(VARIANTS)]
    slots.append(slot("bounds N N+199 --csv", [(["bounds", str(a), str(a + 199), "--csv"], None) for a in starts]))
    slots.append(slot("bounds --crossover", [(["bounds", "--crossover"], None)]))
    slots.append(slot("check-stirling 300", [(["check-stirling", "300"], None)]))
    return slots, {"orders": [1, 2, 3, 4, 5, 6], "bounds_orders": [2, starts[-1] + 199]}


POOLS = {"lcs-exhaustive": pool_lcs, "count": pool_count, "verify": pool_verify, "tables": pool_tables}


def head_commit() -> str:
    try:
        return subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main_freeze(names) -> None:
    # every search node of the solver starts with one propagation round
    latincrit.solver._propagate_flat = _counting(latincrit.solver._propagate_flat)
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    DATA_DIR.mkdir(exist_ok=True)
    for name in names:
        print(f"freezing {name}", file=sys.stderr)
        slots, props = POOLS[name]()
        props["jobs"] = len(slots)
        pool = {"workload": name, "frozen_at": head_commit(), "properties": props, "slots": slots}
        with open(pool_path(name), "w", encoding="utf-8") as fh:
            json.dump(pool, fh, indent=1)
            fh.write("\n")


if __name__ == "__main__":
    main_freeze(sys.argv[1:] or WORKLOADS)
