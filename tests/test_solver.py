import random

import pytest

from latincrit import solver
from latincrit.core import LatinSquare, PartialLatinSquare, serialize
from latincrit.constructions import (
    all_but_first_row_col,
    back_circulant,
    classic_5x5,
    nelder_triangle,
    random_latin_square,
)
from latincrit.criticality import minimize_uc, verify_critical
from latincrit.solver import (
    CONTRADICTION,
    FIXED_POINT,
    NotUniqueError,
    count_completions,
    is_uniquely_completable,
    propagate,
    unique_completion,
)

from oracle import naive_completions, naive_count, naive_propagate

# Derived by brute force (tests/oracle.py): the single completion of the
# classic 5x5 critical set.
CLASSIC_5X5_COMPLETION = (
    (2, 5, 4, 3, 1),
    (5, 4, 1, 2, 3),
    (4, 2, 3, 1, 5),
    (3, 1, 2, 5, 4),
    (1, 3, 5, 4, 2),
)

# Derived by brute force: this order-3 partial square has 0 completions
# (cells (1,3) and (2,3) both need symbol 3).
CONTRADICTION_3X3 = [[1, 2, 0], [2, 1, 0], [0, 0, 0]]


def _random_partial(n, seed, fill=0.5):
    rng = random.Random(seed)
    square = random_latin_square(n, seed=seed)
    return PartialLatinSquare(
        [[v if rng.random() < fill else 0 for v in row] for row in square.grid]
    )


def test_propagate_fills_empty_order_1():
    out, status = propagate(PartialLatinSquare.empty(1))
    assert status == FIXED_POINT
    assert out.grid == ((1,),)


def test_propagate_completes_classic_5x5():
    out, status = propagate(classic_5x5())
    assert status == FIXED_POINT
    assert out.is_complete()
    assert out.grid == CLASSIC_5X5_COMPLETION


def test_propagate_on_complete_square_is_identity():
    sq = back_circulant(4)
    out, status = propagate(sq)
    assert status == FIXED_POINT
    assert out == sq


def test_propagate_detects_contradiction():
    p = PartialLatinSquare(CONTRADICTION_3X3)
    assert naive_count(p) == 0
    _, status = propagate(p)
    assert status == CONTRADICTION


def test_propagate_preserves_completion_set():
    rng = random.Random(17)
    for trial in range(60):
        p = _random_partial(rng.randint(1, 4), seed=trial)
        out, _ = propagate(p)
        assert naive_count(out) == naive_count(p)


# Propagation checks row 1 first, in one walk over its free columns.  The
# walk forces (1,2) = 3 and (1,4) = 4, and counts symbols 1 and 2 once
# each, both in column 3.  After the walk symbol 1 is a hidden single at
# (1,3), which takes the one cell counted for symbol 2: symbol 2 has no
# cell left, and must fail rather than go to (1,3) as well.
STALE_COUNT_OF_ONE = [[0, 0, 0, 0], [1, 2, 0, 0], [0, 1, 0, 2], [2, 4, 0, 1]]
# Row 1's walk counts symbol 2 twice (columns 1 and 2), forces (1,4) = 3,
# and after the walk places symbol 1, a hidden single, at (1,1).  Symbol 2
# is then left with (1,2) only, though counted twice; row 1 is dirty
# again, and its second check reaches the closure.
STALE_COUNT_OF_TWO = [[0, 0, 4, 0], [0, 0, 0, 1], [0, 0, 0, 2], [0, 1, 0, 0]]


def test_propagate_stale_count_of_one_fails():
    p = PartialLatinSquare(STALE_COUNT_OF_ONE)
    assert naive_propagate(p)[1] == CONTRADICTION
    assert propagate(p)[1] == CONTRADICTION
    # the tables still describe the grid: no cell was written twice
    state = solver._state(4, p.cells())
    assert not solver._propagate_flat(4, *state)
    assert state == solver._state(4, state[0])


def test_propagate_stale_count_of_two_reaches_closure():
    p = PartialLatinSquare(STALE_COUNT_OF_TWO)
    out, status = propagate(p)
    assert (out.grid, status) == naive_propagate(p)
    assert status == FIXED_POINT and out.grid[0] == (1, 2, 4, 3)
    # with only row 1 dirty, no other value's check can place (1,2) = 2
    state = solver._state(4, p.cells())
    assert solver._propagate_flat(4, *state, 1, 0, 0)
    assert state[0][:4] == [1, 2, 4, 3]


def test_count_empty_order_3():
    assert count_completions(PartialLatinSquare.empty(3)).count == 12


def test_count_empty_order_1():
    rep = count_completions(PartialLatinSquare.empty(1))
    assert rep.count == 1 and not rep.capped


def test_count_classic_5x5_cap_2():
    rep = count_completions(classic_5x5(), cap=2)
    assert rep.count == 1
    assert not rep.capped
    assert rep.witnesses[0].grid == CLASSIC_5X5_COMPLETION


def test_count_classic_5x5_minus_any_entry_cap_2():
    p = classic_5x5()
    for t in p.triples():
        rep = count_completions(PartialLatinSquare.from_triples(5, [u for u in p.triples() if u != t]), cap=2)
        assert rep.count == 2 and rep.capped
        assert len(rep.witnesses) == 2
        assert rep.witnesses[0].grid != rep.witnesses[1].grid


def test_capped_counting_saturates():
    rep = count_completions(PartialLatinSquare.empty(3), cap=5)
    assert rep.count == 5 and rep.capped


def test_cap_must_be_positive():
    with pytest.raises(ValueError):
        count_completions(PartialLatinSquare.empty(2), cap=0)


def test_oracle_equivalence_random_suite():
    rng = random.Random(99)
    for trial in range(150):
        n = rng.randint(1, 4)
        p = _random_partial(n, seed=trial, fill=rng.choice([0.3, 0.5, 0.8]))
        rep = count_completions(p)
        ref = naive_completions(p)
        assert rep.count == len(ref)
        assert not rep.capped
        # witness soundness: valid squares extending the input
        for w in rep.witnesses:
            assert isinstance(w, LatinSquare)
            assert all(
                w.grid[i][j] == p.grid[i][j]
                for i in range(n)
                for j in range(n)
                if p.grid[i][j]
            )
        if ref:
            assert rep.witnesses[0].grid in ref


def test_count_is_deterministic():
    p = _random_partial(4, seed=5, fill=0.3)
    first = count_completions(p, cap=10)
    second = count_completions(p, cap=10)
    assert first == second


def test_witnesses_are_two_smallest_serialized():
    rep = count_completions(PartialLatinSquare.empty(3))
    ref = sorted(naive_completions(PartialLatinSquare.empty(3)))
    assert [w.grid for w in rep.witnesses] == ref[:2]


def test_witnesses_follow_text_order_from_order_10():
    # Emptying an intercalate of back_circulant(10) leaves two completions:
    # row 0 ends "... 5 ... 10" or "... 10 ... 5".  As text "10" < "5".
    rows = [list(row) for row in back_circulant(10).grid]
    for r, c in ((0, 4), (0, 9), (5, 4), (5, 9)):
        rows[r][c] = 0
    rep = count_completions(PartialLatinSquare(rows))
    assert rep.count == 2
    assert rep.witnesses[0].grid[0] == (1, 2, 3, 4, 10, 6, 7, 8, 9, 5)
    assert rep.witnesses[1].grid == back_circulant(10).grid
    assert serialize(rep.witnesses[0]) < serialize(rep.witnesses[1])


def test_uniquely_completable_cases():
    assert is_uniquely_completable(back_circulant(4))
    assert not is_uniquely_completable(PartialLatinSquare.empty(2))
    assert is_uniquely_completable(classic_5x5())


def test_all_but_first_row_col_uc_at_order_5():
    for seed in range(10):
        assert is_uniquely_completable(all_but_first_row_col(random_latin_square(5, seed=seed)))


def test_unique_completion_of_classic_5x5():
    assert unique_completion(classic_5x5()).grid == CLASSIC_5X5_COMPLETION


def test_unique_completion_of_full_square_is_itself():
    sq = back_circulant(3)
    assert unique_completion(sq) == sq


def test_unique_completion_rejects_ambiguous():
    with pytest.raises(NotUniqueError) as exc:
        unique_completion(PartialLatinSquare.empty(2))
    assert exc.value.count == 2


def test_unique_completion_rejects_unsatisfiable():
    with pytest.raises(NotUniqueError) as exc:
        unique_completion(PartialLatinSquare(CONTRADICTION_3X3))
    assert exc.value.count == 0


# Search nodes (calls to solver._propagate_flat) of each _search_count
# call, recorded with propagation by plain full sweeps.  Any firing order
# of forced moves reaches the same closure, so the search trees, and with
# them the capped witnesses, must not depend on how propagation is
# scheduled.
# verify_critical(nelder_triangle(8)): the cap-2 check of the whole set,
# then one per removed entry.
NELDER_8_VERIFY_NODES = [1, 3, 8, 10, 8, 9, 8, 3, 8, 9, 10, 9, 8, 8, 10, 8, 9, 8, 10, 8, 9, 10,
                         9, 10, 9, 8, 8, 7, 3]
# minimize_uc(random_latin_square(8, 0)): the cap-2 check, then its cap-1 calls.
MINIMIZE_8_NODES = [1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 3, 1, 2, 1, 2, 2, 1, 4, 2, 2, 1, 1, 1,
                    2, 1, 1, 1, 1, 1, 1, 1, 2, 1, 2, 5, 3, 3, 5, 2]
# Uncapped: random_latin_square(8, seed) with 38 cells emptied, chosen by
# random.Random(seed); (count, nodes) for seeds 0-3.
UNCAPPED_8_COUNT_NODES = [(199, 407), (80, 167), (30, 59), (324, 665)]


def _nodes_per_search(monkeypatch, run):
    """Calls run() and returns its result and the search-node count of
    each _search_count call it made: the _propagate_flat calls made while
    it ran.  Both names are patched in solver, where their callers look
    them up, and propagation outside a search, such as the closures that
    verify_critical's removal checks share, is not counted."""
    nodes = []
    searching = False
    propagate_flat, search_count = solver._propagate_flat, solver._search_count

    def counted_propagate(*args):
        if searching:
            nodes[-1] += 1
        return propagate_flat(*args)

    def counted_search(*args):
        nonlocal searching
        nodes.append(0)
        searching = True
        try:
            return search_count(*args)
        finally:
            searching = False

    monkeypatch.setattr(solver, "_propagate_flat", counted_propagate)
    monkeypatch.setattr(solver, "_search_count", counted_search)
    return run(), nodes


def test_search_trees_are_frozen(monkeypatch):
    _, nodes = _nodes_per_search(monkeypatch, lambda: verify_critical(nelder_triangle(8)))
    assert nodes == NELDER_8_VERIFY_NODES
    # the one removal check at order 1 starts from the closure of the empty
    # grid, which is full, as a search of the empty grid reaches at its root
    _, nodes = _nodes_per_search(monkeypatch, lambda: verify_critical(PartialLatinSquare([[1]])))
    assert nodes == [1, 1]
    _, nodes = _nodes_per_search(monkeypatch, lambda: minimize_uc(random_latin_square(8, 0)))
    assert nodes == MINIMIZE_8_NODES
    for seed, (count, search_nodes) in enumerate(UNCAPPED_8_COUNT_NODES):
        cells = random_latin_square(8, seed).cells()
        for idx in random.Random(seed).sample(range(64), 38):
            cells[idx] = 0
        state = solver._state(8, cells)
        (found, _), nodes = _nodes_per_search(monkeypatch, lambda: solver._search_count(8, state, None))
        assert (found, nodes) == (count, [search_nodes])
