"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line with its elapsed time (run pytest with -s to see them inline)."""

import contextlib
import io
import math
import time

from latincrit.bounds import (
    LOG_TOL,
    check_chain,
    crossover,
    exact_counting_lower,
    nelder_bound,
    stirling_check,
    svr_bound,
    theorem1_lower,
)
from latincrit.cli import main
from latincrit.constructions import (
    all_but_first_row_col,
    classic_5x5,
    nelder_triangle,
    random_latin_square,
)
from latincrit.core import PartialLatinSquare
from latincrit.criticality import minimize_uc, verify_critical
from latincrit.enumeration import count_all
from latincrit.solver import (
    FIXED_POINT,
    _search_count,
    _state,
    count_completions,
    is_uniquely_completable,
    propagate,
)


def _report(num: int, label: str, ok: bool, elapsed: float, budget: float):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"criterion {num} {status}: {label} [{elapsed:.2f}s / budget {budget:.0f}s]")
    assert ok, f"criterion {num} failed: {label}"
    assert elapsed < budget, f"criterion {num} overran budget: {elapsed:.2f}s >= {budget}s"


def test_criterion_1_exhaustive_lcs():
    t0 = time.time()
    values = {}
    for n in (1, 2, 3, 4):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(["lcs", str(n), "--exhaustive"])
        assert code == 0
        values[n] = int(buf.getvalue().splitlines()[0].split("=")[1])
    ok = values == {1: 0, 2: 1, 3: 3, 4: 7}
    _report(1, "exhaustive lcs(1..4) = 0, 1, 3, 7", ok, time.time() - t0, 300)


def test_criterion_2_classic_5x5():
    t0 = time.time()
    example = classic_5x5()
    rep = verify_critical(example)
    ok = rep.critical and example.size == 11
    propagated, status = propagate(example)
    ok = ok and status == FIXED_POINT and propagated.is_complete()
    ok = ok and propagated == rep.completion
    for t in example.triples():
        without_t = PartialLatinSquare.from_triples(5, [u for u in example.triples() if u != t])
        sub = count_completions(without_t, cap=2)
        ok = ok and sub.count == 2 and sub.capped
    _report(2, "classic 5x5 set: critical, size 11, forced-move completion", ok, time.time() - t0, 1)


def test_criterion_3_nelder_triangles():
    t0 = time.time()
    ok = True
    for n in range(2, 9):
        tri = nelder_triangle(n)
        ok = ok and tri.size == n * (n - 1) // 2
        ok = ok and verify_critical(tri).critical
    _report(3, "nelder triangle critical with size n(n-1)/2 for n = 2..8", ok, time.time() - t0, 120)


def test_criterion_4_first_row_col_premise():
    t0 = time.time()
    ok = True
    for n in (4, 5, 6, 7):
        for s in range(50):
            square = random_latin_square(n, seed=n * 1000 + s)
            p = all_but_first_row_col(square)
            ok = ok and is_uniquely_completable(p)
            c = minimize_uc(p)
            ok = ok and verify_critical(c).critical
            ok = ok and all(t.row > 1 and t.col > 1 for t in c.triples())
    _report(4, "200 random squares: minus-first-rc is UC, minimizes off row/col 1", ok, time.time() - t0, 300)


def test_criterion_5_enumeration():
    t0 = time.time()
    expected_total = {1: 1, 2: 2, 3: 12, 4: 576, 5: 161280}
    ok = all(count_all(n).total_count == v for n, v in expected_total.items())
    ok = ok and count_all(5).reduced_count == 56
    for n in (1, 2, 3, 4, 5):
        ok = ok and count_completions(PartialLatinSquare.empty(n)).count == expected_total[n]
    for n in (1, 2, 3, 4):
        ok = ok and _search_count(n, _state(n, [0] * (n * n)), None)[0] == expected_total[n]
    _report(5, "L(1..5) = 1, 2, 12, 576, 161280 and R(5) = 56, solver-cross-checked", ok, time.time() - t0, 60)


def test_criterion_6_inequality_chain():
    t0 = time.time()
    fixtures = {1: 0, 2: 1, 3: 3, 4: 7, 5: 11}
    ok = all(check_chain(n, lcs).holds for n, lcs in fixtures.items())
    _report(6, "counting chain holds for n = 1..5 at log tolerance 1e-9", ok, time.time() - t0, 60)


def test_criterion_7_stirling():
    t0 = time.time()
    ok = all(stirling_check(n) for n in range(1, 301))
    _report(7, "Stirling substitute below exact ln n! for n = 1..300", ok, time.time() - t0, 1)


def test_criterion_8_crossover():
    t0 = time.time()
    ok = crossover() == 195
    ok = ok and theorem1_lower(194) < nelder_bound(194)
    ok = ok and theorem1_lower(195) > nelder_bound(195)
    _report(8, "analytic bound first beats (n^2-n)/2 at n = 195", ok, time.time() - t0, 1)


def test_criterion_9_formula_coherence():
    t0 = time.time()
    # the proof's n-coefficient 1 + (2 ln 2 + ln 2 pi)/ln n is the same number
    ok = math.isclose(math.log(8 * math.pi), 2 * math.log(2) + math.log(2 * math.pi), rel_tol=1e-12)
    for n in range(2, 10001):
        if exact_counting_lower(n) < theorem1_lower(n) - LOG_TOL:
            ok = False
            break
    for m in range(2, 21):
        if not svr_bound(m) > theorem1_lower(2**m):
            ok = False
            break
    _report(9, "bound forms agree; exact-log form dominates; 4^m-3^m beats it at n=2^m", ok, time.time() - t0, 10)
