import random
from collections import Counter

import pytest

from latincrit.core import LatinSquare, PartialLatinSquare, Triple, relabel, with_entry
from latincrit.bounds import bm_upper, nelder_bound
from latincrit.constructions import (
    all_but_first_row_col,
    back_circulant,
    classic_5x5,
    random_latin_square,
)
from latincrit.criticality import (
    KNOWN_LCS,
    _all_squares,
    _critical_sets,
    largest_critical_in,
    lcs_exhaustive,
    minimize_uc,
    verify_critical,
)
from latincrit.enumeration import iter_reduced
from latincrit.solver import NotUniqueError, is_uniquely_completable, unique_completion

from oracle import naive_completions, naive_critical_sets


def test_classic_5x5_is_critical():
    rep = verify_critical(classic_5x5())
    assert rep.uniquely_completable
    assert rep.minimal
    assert rep.critical
    assert classic_5x5().size == 11
    assert rep.violations == ()
    # every removal check carries a genuine second completion
    for check in rep.removal_checks:
        assert not check.still_unique
        assert check.second_completion is not None
        assert check.second_completion.grid != rep.completion.grid


def test_empty_order_1_is_critical():
    rep = verify_critical(PartialLatinSquare.empty(1))
    assert rep.critical
    assert PartialLatinSquare.empty(1).size == 0


def test_complete_order_2_square_not_minimal():
    rep = verify_critical(LatinSquare([[1, 2], [2, 1]]))
    assert rep.uniquely_completable
    assert not rep.minimal
    assert not rep.critical
    # every entry of a complete order-2 square is removable
    assert len(rep.violations) == 4


def test_not_uc_report_contains_second_completion():
    rep = verify_critical(PartialLatinSquare.empty(2))
    assert not rep.uniquely_completable
    assert not rep.critical
    assert rep.completion is None
    assert rep.second_completion is not None


def test_minimize_full_order_1():
    assert minimize_uc(back_circulant(1)) == PartialLatinSquare.empty(1)


def test_minimize_classic_5x5_is_identity():
    assert minimize_uc(classic_5x5()) == classic_5x5()


def test_minimize_back_circulant_4_minus_first_rc():
    p = all_but_first_row_col(back_circulant(4))
    c = minimize_uc(p)
    rep = verify_critical(c)
    assert rep.critical
    assert all(t.row > 1 and t.col > 1 for t in c.triples())
    assert unique_completion(c) == back_circulant(4)


def test_minimize_rejects_non_uc_input():
    with pytest.raises(NotUniqueError):
        minimize_uc(PartialLatinSquare.empty(3))


def test_minimize_random_order_is_seeded():
    p = all_but_first_row_col(back_circulant(5))
    a = minimize_uc(p, removal_order="random", seed=11)
    b = minimize_uc(p, removal_order="random", seed=11)
    assert a == b
    assert verify_critical(a).critical


def test_minimize_outputs_verify_critical():
    rng = random.Random(31)
    for trial in range(12):
        n = rng.randint(2, 5)
        c = minimize_uc(all_but_first_row_col(random_latin_square(n, seed=trial)))
        assert verify_critical(c).critical


def test_largest_critical_order_1():
    res = largest_critical_in(back_circulant(1))
    assert res.size == 0


def test_largest_critical_back_circulant_3():
    res = largest_critical_in(back_circulant(3))
    assert res.size == 3
    assert verify_critical(res.witness).critical


def test_largest_critical_rejects_big_orders():
    with pytest.raises(ValueError):
        largest_critical_in(back_circulant(5))


def test_largest_critical_heuristic_is_lower_bound():
    # each start of the lcs --heuristic portfolio is a seeded random-order
    # minimization; its critical set never beats the exact per-square maximum
    square = back_circulant(4)
    exact = largest_critical_in(square).size
    for seed in range(4):
        c = minimize_uc(square, removal_order="random", seed=seed)
        assert verify_critical(c).critical
        assert c.size <= exact


def test_lcs_small_orders():
    assert lcs_exhaustive(1).value == 0
    assert lcs_exhaustive(2).value == 1
    assert lcs_exhaustive(3).value == 3


def test_lcs_2_witness():
    rec = lcs_exhaustive(2)
    assert rec.witness_square == LatinSquare([[1, 2], [2, 1]])
    assert rec.witness_set.triples() == (Triple(1, 1, 1),)


def test_lcs_witnesses_round_trip():
    for n in (1, 2, 3):
        rec = lcs_exhaustive(n)
        assert rec.witness_set.size == rec.value
        rep = verify_critical(rec.witness_set)
        assert rep.critical
        assert rep.completion == rec.witness_square
        # the witness set really sits inside the witness square
        for t in rec.witness_set.triples():
            assert rec.witness_square.grid[t.row - 1][t.col - 1] == t.sym


def test_lcs_4_and_its_extremal_square():
    rec = lcs_exhaustive(4)
    assert rec.value == 7
    assert verify_critical(rec.witness_set).critical
    # the per-square maximum on the extremal square agrees
    res = largest_critical_in(rec.witness_square)
    assert res.size == 7


def test_lcs_rejects_big_orders():
    with pytest.raises(ValueError):
        lcs_exhaustive(5)
    with pytest.raises(ValueError):
        lcs_exhaustive(6, allow_large=True)


def test_uc_monotone_under_supersets():
    rng = random.Random(8)
    for trial in range(15):
        n = rng.randint(2, 4)
        square = random_latin_square(n, seed=trial)
        c = minimize_uc(square)
        assert is_uniquely_completable(c)
        # add back random entries of the completion: still uniquely completable
        extra = [t for t in square.triples() if c.grid[t.row - 1][t.col - 1] == 0]
        rng.shuffle(extra)
        grown = c
        for t in extra[: max(1, len(extra) // 2)]:
            grown = with_entry(grown, t)
        assert is_uniquely_completable(grown)


def test_relabeling_preserves_criticality_at_order_4():
    rng = random.Random(21)
    square = random_latin_square(4, seed=0)
    c = minimize_uc(square)
    assert verify_critical(c).critical
    for _ in range(10):
        perms = [list(range(4)) for _ in range(3)]
        for perm in perms:
            rng.shuffle(perm)
        c2 = relabel(c, *perms)
        s2 = relabel(square, *perms)
        rep = verify_critical(c2)
        assert rep.critical
        assert rep.completion == s2


def test_known_lcs_fixtures_sit_between_bounds():
    for n in (5, 6):
        assert nelder_bound(n) <= KNOWN_LCS[n] <= bm_upper(n)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_critical_sets_match_subset_scan_oracle(n):
    squares = _all_squares(n)
    # every square of order n, listed by the naive enumerator
    for rows in naive_completions(PartialLatinSquare.empty(n)):
        square = LatinSquare(rows)
        found = list(_critical_sets(square, squares))
        assert len(found) == len(set(found))
        assert set(found) == naive_critical_sets(square)


def test_critical_sets_order_4_verify_and_spectra():
    squares = _all_squares(4)
    spectra = []
    for square in iter_reduced(4):
        found = list(_critical_sets(square, squares))
        for c in found:
            rep = verify_critical(PartialLatinSquare.from_triples(4, c))
            assert rep.critical and rep.completion == square
        sizes = Counter(len(c) for c in found)
        spectra.append((len(found), sorted(sizes)))
        # relabeling carries critical sets to critical sets one to one
        rng = random.Random(len(spectra))
        for _ in range(3):
            perms = [rng.sample(range(4), 4) for _ in range(3)]
            moved = set(_critical_sets(relabel(square, *perms), squares))
            assert Counter(len(c) for c in moved) == sizes
            assert moved == {
                relabel(PartialLatinSquare.from_triples(4, c), *perms).triples() for c in found
            }
    assert sorted(spectra) == [(576, [5, 6, 7]), (736, [4, 5, 6]), (736, [4, 5, 6]), (736, [4, 5, 6])]
