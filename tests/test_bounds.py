import math

import pytest

from latincrit.bounds import (
    BOUNDS_MAX_N,
    LOG_TOL,
    bm_upper,
    bounds_table,
    check_chain,
    crossover,
    exact_counting_lower,
    log_factorial,
    log_Ln_lower,
    nelder_bound,
    stirling_check,
    svr_bound,
    theorem1_lower,
)
from latincrit.criticality import KNOWN_LCS


def test_log_factorial_matches_lgamma():
    for n in (0, 1, 2, 10, 50, 300, 5000):
        assert math.isclose(log_factorial(n), math.lgamma(n + 1), rel_tol=1e-12)


def test_theorem1_values():
    # frozen from direct evaluation, confirmed at 50-digit precision
    assert abs(theorem1_lower(195) - 18918.1017) < 1e-3
    assert abs(theorem1_lower(194) - 18707.5240) < 1e-3
    assert abs(theorem1_lower(6) - (-1.7009)) < 1e-3
    assert theorem1_lower(195) > nelder_bound(195) == 18915
    assert theorem1_lower(194) < nelder_bound(194) == 18721
    assert theorem1_lower(6) < KNOWN_LCS[6] == 18


def test_theorem1_undefined_below_2():
    with pytest.raises(ValueError):
        theorem1_lower(1)
    with pytest.raises(ValueError):
        theorem1_lower(0)


def test_nelder_bound_values():
    assert nelder_bound(1) == 0
    assert nelder_bound(5) == 10 < 11  # the classic 5x5 set is bigger
    assert nelder_bound(195) == 18915


def test_bm_upper_values():
    assert bm_upper(4) == 7 == KNOWN_LCS[4]  # tight here
    assert bm_upper(5) == 13 >= KNOWN_LCS[5]
    assert bm_upper(1) == 1 >= KNOWN_LCS[1]


def test_svr_bound_values():
    assert svr_bound(1) == 1 == KNOWN_LCS[2]
    assert svr_bound(2) == 7 == KNOWN_LCS[4]
    assert svr_bound(3) == 37
    assert svr_bound(40) == 4**40 - 3**40  # exact at any size


def test_log_Ln_lower_values():
    assert log_Ln_lower(1) == 0.0
    assert abs(log_Ln_lower(2)) < 1e-12  # 4 ln 2 - 4 ln 2
    assert log_Ln_lower(2) <= math.log(2)
    assert abs(log_Ln_lower(5) - 7.6390) < 1e-4
    assert log_Ln_lower(5) <= math.log(161280)


def test_check_chain_known_orders():
    fixtures = {1: 0, 2: 1, 3: 3, 4: 7, 5: 11, 6: 18}
    for n, lcs in fixtures.items():
        assert check_chain(n, lcs).holds


def test_check_chain_order_1_degenerates_to_zeroes():
    chk = check_chain(1, 0)
    assert chk.lhs_log == chk.mid_log == chk.rhs_log == 0.0
    assert chk.holds


def test_check_chain_order_5_logs():
    chk = check_chain(5, 11)
    assert abs(chk.lhs_log - 7.6390) < 1e-4
    assert abs(chk.mid_log - math.log(161280)) < 1e-12
    assert abs(chk.rhs_log - (16 * math.log(2) + 11 * math.log(5))) < 1e-12
    assert chk.lhs_log <= chk.mid_log <= chk.rhs_log


def test_check_chain_rejects_large_orders():
    # the limit of count_all, which computes L(n)
    with pytest.raises(ValueError):
        check_chain(8, 37)


def test_stirling_check_range():
    assert stirling_check(1)  # ln sqrt(2 pi) - 1 = -0.081 <= 0
    assert 0.5 * math.log(2 * math.pi) - 1 < 0
    assert stirling_check(10)
    assert stirling_check(300)
    with pytest.raises(ValueError):
        stirling_check(0)
    with pytest.raises(ValueError):
        stirling_check(301)


def test_crossover_is_195():
    assert crossover() == 195


def test_crossover_certificate():
    # from n = 219 on, ln n >= 2 (2 + ln 2) makes the n^2 coefficient of
    # theorem1_lower(n) - (n^2 - n)/2 non-negative, so the bound wins there
    threshold = 2 * (2 + math.log(2))
    assert math.log(218) < threshold <= math.log(219)
    for n in (219, 220, 500, 10**4, 10**6):
        assert theorem1_lower(n) - nelder_bound(n) > 1.5 * n - 1
    # below 219 the bound wins exactly on 195..218
    assert all(theorem1_lower(n) > nelder_bound(n) for n in range(195, 219))
    assert not any(theorem1_lower(n) > nelder_bound(n) for n in range(2, 195))


def test_form_equivalence_sampled():
    # the proof writes the n-coefficient as 1 + (2 ln 2 + ln 2 pi)/ln n
    assert math.isclose(math.log(8 * math.pi), 2 * math.log(2) + math.log(2 * math.pi), rel_tol=1e-12)


def test_exact_counting_dominates_theorem1_sampled():
    for n in (2, 3, 10, 100, 1000, 10000):
        assert exact_counting_lower(n) >= theorem1_lower(n) - LOG_TOL


def test_svr_beats_theorem1_at_powers_of_two():
    for m in range(2, 21):
        assert svr_bound(m) > theorem1_lower(2**m)


def test_fixture_consistency():
    for n in range(2, 7):
        assert theorem1_lower(n) <= KNOWN_LCS[n] <= bm_upper(n)
        assert nelder_bound(n) <= KNOWN_LCS[n]


def test_bounds_table_single_rows():
    (row,) = bounds_table(4, 4)
    assert row.nelder == 6 and row.bm_upper == 7 and row.svr == 7
    (row,) = bounds_table(2, 2)
    assert row.nelder == 1 == KNOWN_LCS[2]
    (row,) = bounds_table(195, 195)
    assert row.theorem1 > row.nelder
    (row,) = bounds_table(1, 1)  # ln 1 = 0 leaves the bounds divided by ln n undefined
    assert row.theorem1 is None and row.exact_counting_lower is None
    assert (row.nelder, row.bm_upper, row.svr) == (0, 1, None)


def test_bounds_table_svr_only_at_powers_of_two():
    rows = bounds_table(2, 9)
    by_order = {r.order: r for r in rows}
    assert by_order[2].svr == 1 and by_order[4].svr == 7 and by_order[8].svr == 37
    for n in (3, 5, 6, 7, 9):
        assert by_order[n].svr is None


def test_bounds_table_coeffs():
    (row,) = bounds_table(5, 5)
    assert abs(row.log_cs_count_upper_coeffs[0] - 16 * math.log(2)) < 1e-12
    assert abs(row.log_cs_count_upper_coeffs[1] - math.log(5)) < 1e-12
    assert abs(row.log_Ln_lower - log_Ln_lower(5)) < 1e-12


def test_bounds_table_rejects_bad_ranges():
    with pytest.raises(ValueError):
        bounds_table(0, 4)
    with pytest.raises(ValueError):
        bounds_table(5, 4)
    with pytest.raises(ValueError):
        bounds_table(1, BOUNDS_MAX_N + 1)


def test_bounds_table_takes_the_maximum_order():
    (row,) = bounds_table(BOUNDS_MAX_N, BOUNDS_MAX_N)
    assert row.order == BOUNDS_MAX_N and row.theorem1 > row.nelder
