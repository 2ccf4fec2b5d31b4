import hashlib
import sys

import pytest

from latincrit.core import GridError, LatinSquare, PartialLatinSquare, Triple, serialize
from latincrit.bounds import nelder_bound
from latincrit.constructions import (
    all_but_first_row_col,
    back_circulant,
    classic_5x5,
    nelder_triangle,
    random_latin_square,
)
from latincrit.criticality import verify_critical
from latincrit.solver import count_completions, is_uniquely_completable

from oracle import naive_is_latin


# Frozen output of random_latin_square, as the rows of serialize() per
# (n, seed).  The frozen `lcs --heuristic` witnesses depend on these.
RANDOM_SQUARES = {
    (4, 0): (
        "3 1 2 4",
        "1 4 3 2",
        "4 2 1 3",
        "2 3 4 1",
    ),
    (4, 1): (
        "4 3 1 2",
        "1 2 4 3",
        "3 1 2 4",
        "2 4 3 1",
    ),
    (4, 2): (
        "2 4 1 3",
        "4 2 3 1",
        "3 1 2 4",
        "1 3 4 2",
    ),
    (7, 0): (
        "5 6 3 7 2 1 4",
        "4 7 1 3 6 2 5",
        "3 2 7 5 4 6 1",
        "7 5 4 2 1 3 6",
        "1 3 6 4 5 7 2",
        "6 4 2 1 7 5 3",
        "2 1 5 6 3 4 7",
    ),
    (7, 1): (
        "4 2 7 6 5 3 1",
        "2 6 1 5 4 7 3",
        "7 4 6 1 3 2 5",
        "1 3 4 2 7 5 6",
        "6 1 5 3 2 4 7",
        "5 7 3 4 1 6 2",
        "3 5 2 7 6 1 4",
    ),
    (7, 2): (
        "3 2 4 1 5 6 7",
        "7 1 6 5 4 3 2",
        "6 3 1 7 2 4 5",
        "1 4 2 3 7 5 6",
        "5 6 3 2 1 7 4",
        "2 5 7 4 6 1 3",
        "4 7 5 6 3 2 1",
    ),
    (12, 0): (
        "2 3 10 1 7 6 5 4 11 8 12 9",
        "1 8 3 9 2 11 10 12 5 7 4 6",
        "7 4 2 10 5 9 12 8 6 1 11 3",
        "11 9 1 3 10 2 6 5 4 12 8 7",
        "6 5 7 8 1 10 9 11 3 4 2 12",
        "4 2 9 7 11 1 8 10 12 6 3 5",
        "9 1 5 2 6 12 7 3 8 11 10 4",
        "12 10 11 6 4 8 3 7 1 9 5 2",
        "8 11 12 4 9 5 1 6 2 3 7 10",
        "5 7 4 11 12 3 2 1 9 10 6 8",
        "3 12 6 5 8 7 4 9 10 2 1 11",
        "10 6 8 12 3 4 11 2 7 5 9 1",
    ),
    (12, 1): (
        "8 2 4 9 5 11 3 1 7 12 6 10",
        "11 3 9 8 4 1 10 7 12 5 2 6",
        "3 8 1 12 11 7 4 5 2 6 10 9",
        "10 11 3 2 12 6 9 8 5 1 4 7",
        "7 1 10 4 3 9 2 12 6 8 11 5",
        "5 7 6 11 9 3 12 4 8 10 1 2",
        "12 9 2 3 6 4 1 11 10 7 5 8",
        "9 4 11 10 7 8 5 6 3 2 12 1",
        "1 10 7 6 8 5 11 2 9 4 3 12",
        "4 6 12 5 10 2 7 9 1 11 8 3",
        "6 12 5 1 2 10 8 3 11 9 7 4",
        "2 5 8 7 1 12 6 10 4 3 9 11",
    ),
    (12, 2): (
        "10 12 6 4 11 1 2 3 5 7 8 9",
        "5 7 2 6 4 12 3 8 9 1 11 10",
        "8 9 10 11 6 2 1 5 12 3 7 4",
        "6 3 1 12 9 11 10 2 4 8 5 7",
        "11 2 4 7 5 8 6 9 10 12 3 1",
        "9 11 8 2 1 6 12 4 7 5 10 3",
        "1 10 3 8 7 9 5 12 6 11 4 2",
        "7 4 11 1 8 3 9 10 2 6 12 5",
        "4 5 12 3 2 7 8 1 11 10 9 6",
        "3 6 7 5 12 10 4 11 1 9 2 8",
        "12 8 5 9 10 4 7 6 3 2 1 11",
        "2 1 9 10 3 5 11 7 8 4 6 12",
    ),
}


def test_back_circulant_order_1():
    assert back_circulant(1).grid == ((1,),)


def test_back_circulant_order_3():
    assert back_circulant(3).grid == ((1, 2, 3), (2, 3, 1), (3, 1, 2))


def test_back_circulant_formula_corner():
    assert back_circulant(5).grid[4][4] == 4  # ((5+5-2) mod 5) + 1


def test_back_circulant_valid_and_symmetric_up_to_31():
    for n in range(1, 32):
        sq = back_circulant(n)
        assert naive_is_latin(sq.grid)
        assert all(sq.grid[i][j] == sq.grid[j][i] for i in range(n) for j in range(n))


def test_back_circulant_order_out_of_range():
    with pytest.raises(GridError):
        back_circulant(0)
    with pytest.raises(GridError):
        back_circulant(32)


def test_nelder_triangle_order_2():
    assert nelder_triangle(2).triples() == (Triple(1, 1, 1),)
    assert nelder_triangle(2).size == nelder_bound(2) == 1


def test_nelder_triangle_order_3():
    assert nelder_triangle(3).triples() == (
        Triple(1, 1, 1),
        Triple(1, 2, 2),
        Triple(2, 1, 2),
    )


def test_nelder_triangle_size_and_containment():
    for n in range(2, 32):
        tri = nelder_triangle(n)
        full = back_circulant(n)
        assert tri.size == n * (n - 1) // 2
        assert all(full.grid[t.row - 1][t.col - 1] == t.sym for t in tri.triples())
        # exactly the cells above the back diagonal
        assert all((t.row - 1) + (t.col - 1) <= n - 2 for t in tri.triples())


def test_nelder_triangle_critical_small_orders():
    for n in range(2, 6):
        assert verify_critical(nelder_triangle(n)).critical


def test_nelder_triangle_order_out_of_range():
    with pytest.raises(GridError):
        nelder_triangle(1)


def test_classic_5x5_layout():
    p = classic_5x5()
    assert p.size == 11
    assert p.triples() == (
        Triple(1, 1, 2),
        Triple(1, 3, 4),
        Triple(1, 4, 3),
        Triple(2, 3, 1),
        Triple(2, 4, 2),
        Triple(3, 2, 2),
        Triple(3, 3, 3),
        Triple(3, 4, 1),
        Triple(4, 1, 3),
        Triple(4, 2, 1),
        Triple(4, 3, 2),
    )
    # beats the triangular construction at the same order
    assert p.size == 11 > nelder_bound(5) == 10


def test_all_but_first_row_col_order_1():
    p = all_but_first_row_col(back_circulant(1))
    assert p.size == 0
    assert count_completions(p).count == 1


def test_all_but_first_row_col_order_2():
    p = all_but_first_row_col(LatinSquare([[1, 2], [2, 1]]))
    assert p.triples() == (Triple(2, 2, 1),)
    assert is_uniquely_completable(p)


def test_all_but_first_row_col_back_circulant_5():
    p = all_but_first_row_col(back_circulant(5))
    assert p.size == 16
    assert is_uniquely_completable(p)


def test_random_latin_square_is_seeded_and_valid():
    for n in (1, 2, 5, 9):
        a = random_latin_square(n, seed=4)
        b = random_latin_square(n, seed=4)
        assert a == b
        assert naive_is_latin(a.grid)
    assert random_latin_square(5, seed=1) != random_latin_square(5, seed=2)


def test_random_latin_square_output_is_pinned():
    for (n, seed), rows in RANDOM_SQUARES.items():
        assert serialize(random_latin_square(n, seed=seed)) == f"{n}\n" + "".join(r + "\n" for r in rows)


def test_random_latin_square_digest_is_pinned():
    # sha256 of the serialized squares of orders 1..16, seeds 0..7, frozen
    # before the filler read the solver state
    stream = "".join(serialize(random_latin_square(n, seed=s)) for n in range(1, 17) for s in range(8))
    assert hashlib.sha256(stream.encode()).hexdigest() == (
        "bcd246f011d6fa4d83201aea7d632e81aa22d7dd5dc7f5dfe36dd012108c1143")


def _with_headroom(call, frames=100):
    """call() run with only `frames` frames left below the recursion limit."""
    def stack_depth():
        frame, depth = sys._getframe(), 0
        while frame is not None:
            frame, depth = frame.f_back, depth + 1
        return depth

    def nested(levels):
        return nested(levels - 1) if levels else call()

    return nested(sys.getrecursionlimit() - frames - stack_depth())


def test_random_latin_square_31_runs_near_the_recursion_limit():
    # a frame per cell would need 961
    deep = _with_headroom(lambda: random_latin_square(31, seed=3))
    assert deep == random_latin_square(31, seed=3)
    assert naive_is_latin(deep.grid)


def test_search_of_the_empty_31_runs_near_the_recursion_limit():
    # a frame per branching node needed about 790 here
    report = _with_headroom(lambda: count_completions(PartialLatinSquare.empty(31), cap=2))
    assert report.count == 2 and report.capped
    assert all(naive_is_latin(w.grid) for w in report.witnesses)


def test_random_suite_premise_small():
    # spot check of the first-row/first-column removal premise
    for n in (2, 3, 4, 5, 6, 7):
        for seed in range(4):
            square = random_latin_square(n, seed=seed)
            p = all_but_first_row_col(square)
            assert p.size == (n - 1) ** 2
            assert is_uniquely_completable(p)


def test_constructions_serialize_round_trip():
    from latincrit.core import parse_partial

    for p in (back_circulant(6), nelder_triangle(5), classic_5x5()):
        assert parse_partial(serialize(p)) == PartialLatinSquare(p.grid)
