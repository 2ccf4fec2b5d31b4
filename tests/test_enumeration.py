import hashlib
import math
import random
from itertools import islice
from pathlib import Path

import pytest

from latincrit.constructions import random_latin_square
from latincrit.core import PartialLatinSquare, _state, parse_partial, serialize
from latincrit.enumeration import (
    _count_by_rows,
    _layout,
    _reduced_border,
    _row_layers,
    _row_major_fills,
    count_all,
    iter_reduced,
)
from latincrit.solver import _search_count, propagate

from oracle import conjugate, naive_completions, naive_count

DATA = Path(__file__).parent / "data"

# Derived by brute force (tests/oracle.py) over squares with first row
# and column pinned to 1..n.
REDUCED_COUNTS = {1: 1, 2: 1, 3: 1, 4: 4, 5: 56}
TOTAL_COUNTS = {1: 1, 2: 2, 3: 12, 4: 576, 5: 161280}


def test_iter_reduced_order_1():
    squares = list(iter_reduced(1))
    assert len(squares) == 1
    assert squares[0].grid == ((1,),)


def test_iter_reduced_counts_match_oracle():
    for n, expected in REDUCED_COUNTS.items():
        assert sum(1 for _ in iter_reduced(n)) == expected
        if n <= 4:
            rows = [[0] * n for _ in range(n)]
            for k in range(n):
                rows[0][k] = k + 1
                rows[k][0] = k + 1
            assert naive_count(PartialLatinSquare(rows)) == expected


def test_iter_reduced_yields_reduced_valid_squares():
    for n in (2, 3, 4, 5):
        for sq in iter_reduced(n):
            assert sq.grid[0] == tuple(range(1, n + 1))
            assert tuple(sq.grid[i][0] for i in range(n)) == tuple(range(1, n + 1))


def test_iter_reduced_lexicographic_and_duplicate_free():
    for n in (4, 5):
        seen = [serialize(sq) for sq in iter_reduced(n)]
        assert seen == sorted(seen)
        assert len(seen) == len(set(seen))


def test_iter_reduced_6_digest_is_pinned():
    # sha256 of the serialized stream of all 9,408 reduced squares of
    # order 6, frozen before the filler read the solver state
    stream = "".join(serialize(sq) for sq in iter_reduced(6))
    assert hashlib.sha256(stream.encode()).hexdigest() == (
        "ce255dce90a8911bf835c3c0a09db55dd3b31a874106270456e0570359d035f5")


def _filler_grids():
    """Seeded partial grids of orders 1..5, each with at least one given:
    random squares with some cells emptied, and one with no completion."""
    for n in range(1, 6):
        for seed in range(4):
            cells = random_latin_square(n, seed=seed).cells()
            rng = random.Random(100 * n + seed)
            for idx in rng.sample(range(n * n), rng.randint(n * n // 2, min(n * n - 1, 18))):
                cells[idx] = 0
            yield PartialLatinSquare.from_cells(n, cells)
    # (1, 3) needs the 3 that column 3 already holds
    yield PartialLatinSquare([[1, 2, 0], [0, 0, 3], [0, 0, 0]])


def test_row_major_fills_lists_completions_in_row_major_order():
    for p in _filler_grids():
        n = p.order
        fills = [tuple(cells) for cells in _row_major_fills(n, _state(n, p.cells()))]
        expected = [tuple(v for row in grid for v in row) for grid in naive_completions(p)]
        assert fills == expected


def test_row_major_fills_with_rng_yields_the_same_completions():
    for k, p in enumerate(_filler_grids()):
        n = p.order
        fills = [tuple(cells) for cells in _row_major_fills(n, _state(n, p.cells()), random.Random(k))]
        assert len(fills) == len(set(fills))
        assert sorted(fills) == [tuple(v for row in grid for v in row) for grid in naive_completions(p)]


def test_count_all_small_orders():
    for n in (1, 2, 3, 4, 5):
        result = count_all(n)
        assert result.reduced_count == REDUCED_COUNTS[n]
        assert result.total_count == TOTAL_COUNTS[n]
        assert result.total_count == (
            math.factorial(n) * math.factorial(n - 1) * result.reduced_count
        )


def test_row_count_matches_listing():
    for n in range(1, 7):
        assert count_all(n).reduced_count == sum(1 for _ in iter_reduced(n))


def test_row_count_of_empty_grid_is_total_count():
    # every square, not just reduced ones: no use of L(n) = n!(n-1)!R(n)
    for n, expected in TOTAL_COUNTS.items():
        assert _count_by_rows(n, _state(n, [0] * n * n)[1:]) == expected


def test_count_all_join_matches_full_walk():
    # from order 4 on count_all joins two middle layers; the full walk
    # goes through every row but the last
    for n in range(1, 7):
        assert count_all(n).reduced_count == _count_by_rows(n, _state(n, _reduced_border(n))[1:])


# Layer sizes of the row program, measured with the group sort in place.
# The count of a partial grid does not depend on merging (only count_all's
# join of sorted states does), so these are the one check that the states
# a column swap relates are merged there.  On the reduced border columns
# 2..n form one group; this order-7 partial grid, 11 cells of
# random_latin_square(7, 2), also has groups of two columns.
PARTIAL_7 = [
    [0, 0, 4, 1, 0, 0, 0],
    [0, 0, 0, 0, 4, 0, 0],
    [0, 0, 0, 0, 0, 4, 5],
    [1, 0, 0, 0, 0, 0, 0],
    [5, 6, 0, 2, 0, 0, 0],
    [2, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 6, 0, 0, 0],
]
MERGED_LAYER_SIZES = [
    (_reduced_border(4), [1, 1, 3, 4]),
    (_reduced_border(5), [1, 1, 10, 10, 8]),
    (_reduced_border(6), [1, 1, 46, 148, 46, 30]),
    (_reduced_border(7), [1, 1, 252, 3152, 3152, 252, 94]),
    (PartialLatinSquare(PARTIAL_7).cells(), [1, 6, 220, 1272, 1128, 295, 46]),
]


@pytest.mark.parametrize("cells, sizes", MERGED_LAYER_SIZES,
                         ids=["border-4", "border-5", "border-6", "border-7", "partial-7"])
def test_row_program_merges_its_layers(cells, sizes):
    n = len(sizes)
    assert [len(layer) for layer in _row_layers(n, _state(n, cells)[1:])] == sizes


def test_row_program_merges_the_first_layers_at_order_8():
    tables = _state(8, _reduced_border(8))[1:]
    assert [len(layer) for layer in islice(_row_layers(8, tables), 3)] == [1, 1, 1642]


def test_row_count_never_fills_the_last_row():
    # the layer after n - 1 rows is summed as is: each of its states has
    # one completion, with or without givens in the forced row
    grids = [
        [[0]],
        [[1]],
        # the most-free row (the last filled) keeps its given 2
        [[1, 0, 3, 4, 5],
         [0, 3, 0, 5, 1],
         [3, 0, 5, 0, 2],
         [0, 5, 0, 2, 0],
         [0, 0, 2, 0, 0]],
        # no completion: the 5s of rows 1-4 would share columns 2-4, since
        # column 5 is full and column 1 holds its 5 in row 5
        [[0, 0, 0, 0, 1],
         [0, 0, 0, 0, 2],
         [0, 0, 0, 0, 3],
         [0, 0, 0, 0, 4],
         [5, 0, 0, 0, 0]],
    ]
    counts = []
    for rows in grids:
        p = PartialLatinSquare(rows)
        counts.append(_count_by_rows(p.order, _state(p.order, p.cells())[1:]))
        assert counts[-1] == naive_count(p)
    assert counts[0] == counts[1] == 1 and counts[2] > 0 and counts[3] == 0


def test_count_all_cross_checks_solver():
    # the search, since uncapped counts of these orders use the row program too
    for n in (1, 2, 3, 4):
        assert _search_count(n, _state(n, [0] * n * n), None)[0] == count_all(n).total_count


def test_orders_past_the_limits_are_refused():
    with pytest.raises(ValueError):
        count_all(8)
    with pytest.raises(ValueError):
        iter_reduced(7)  # at the call, before the first square


def test_order_6_counts():
    result = count_all(6)
    assert result.reduced_count == 9408
    assert result.total_count == 812_851_200


def test_order_7_counts():
    # the largest order count_all accepts; under a second with merged states
    result = count_all(7)
    assert result.reduced_count == 16_942_080
    assert result.total_count == 61_479_419_904_000


def test_row_program_refuses_orders_above_8():
    # a state holds one byte per column
    with pytest.raises(ValueError):
        _count_by_rows(9, _state(9, [0] * 81)[1:])


def test_order_must_be_positive():
    with pytest.raises(ValueError):
        count_all(0)


# The (axes, rows) that `_layout` picks on grids closed under forced
# moves, frozen when it still read a flat grid.  The time of an uncapped
# count depends on the layout, not only on the count, so no choice may
# change unseen.  complete_8_46.lsq and two of its conjugates, stored
# beside it, with the axis order that gives each from the grid:
COMPLETE_8_46_LAYOUTS = [
    ("complete_8_46", (0, 1, 2), (2, 0, 1)),
    ("complete_8_46_row_sym_col", (0, 2, 1), (1, 0, 2)),
    ("complete_8_46_sym_row_col", (2, 0, 1), (0, 1, 2)),
]
# Random squares of orders 6 and 7 with `holes` cells emptied, each axis
# chosen once per order: (n, seed, holes, axes, rows).
SEEDED_LAYOUTS = [
    (6, 3, 28, (0, 1, 2), [2, 1, 0, 4, 3, 5]),
    (6, 0, 28, (1, 0, 2), [0, 3, 1, 4, 2, 5]),
    (6, 4, 28, (2, 0, 1), [2, 4, 5, 0, 1, 3]),
    (7, 1, 36, (0, 1, 2), [4, 6, 1, 0, 2, 3, 5]),
    (7, 5, 36, (1, 0, 2), [0, 4, 2, 3, 5, 6, 1]),
    (7, 0, 36, (2, 0, 1), [3, 0, 1, 5, 2, 4, 6]),
]


def test_layout_choices_are_frozen():
    grid = parse_partial((DATA / "complete_8_46.lsq").read_text()).cells()
    for name, axes, chosen in COMPLETE_8_46_LAYOUTS:
        p = parse_partial((DATA / f"{name}.lsq").read_text())
        assert p.cells() == conjugate(8, grid, axes)
        closed = propagate(p)[0].cells()
        assert _layout(8, _state(8, closed)[1:]) == (chosen, [5, 4, 6, 7, 1, 2, 3, 0])
    for n, seed, holes, axes, rows in SEEDED_LAYOUTS:
        cells = random_latin_square(n, seed).cells()
        for idx in random.Random(seed).sample(range(n * n), holes):
            cells[idx] = 0
        closed = propagate(PartialLatinSquare.from_cells(n, cells))[0].cells()
        assert _layout(n, _state(n, closed)[1:]) == (axes, rows)
