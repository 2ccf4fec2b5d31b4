"""Property tests: the solver and its search path against the naive
oracle, its witnesses and propagation, and completion counts under
relabeling and the six conjugates, on random partial squares of order
<= 4; propagation against the oracle's full sweeps at orders up to 31
(every branch of a cell up to order 8, one drawn branch above), its root
sweep of rows and columns against a sweep of every axis at
orders up to 8, and under conjugation (also on a fixed seeded set of
half-empty grids of orders 6 and 7); `solver._set_cell` edits against
the one-pass table builder `core._state` at orders up to 8; minimize_uc against the oracle on
uniquely completable partial squares of order <= 5; criticality under
relabeling and conjugation at orders up to 6; verify_critical's removal
checks against counts from scratch at orders up to 7 and on the order-13
Nelder triangle; the search against the row dynamic program of
`enumeration`, and uncapped counts against the search, at orders up to
7; the row program on every conjugate, in any row order and in the
layout its chooser picks, against the search at orders up to 8; the row
program's merging of interchangeable columns against the search and the
oracle at orders up to 6; conjugation again
at orders 5 to 8; the flat-cell codec of `core`, and its text writer
against the parser at orders up to 12; and grid text parsing on
arbitrary input."""

import functools
import random
from itertools import permutations

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from latincrit import solver
from latincrit.constructions import classic_5x5, nelder_triangle, random_latin_square
from latincrit.core import (
    GridError,
    LatinSquare,
    PartialLatinSquare,
    parse_partial,
    relabel,
    _serialize_cells,
    _state,
    serialize,
)
from latincrit.criticality import minimize_uc, verify_critical
from latincrit.enumeration import _LAYOUT_MIN_HOLES, _count_by_rows, _layout, _row_layers
from latincrit.solver import (
    CONTRADICTION,
    FIXED_POINT,
    _search_count,
    count_completions,
    is_uniquely_completable,
    propagate,
)

from oracle import conjugate, naive_completions, naive_count, naive_propagate

MAX_ORDER = 4


@st.composite
def partial_squares(draw, max_order=MAX_ORDER):
    """Either a random subset of a complete square (always completable),
    or symbols dropped into cells one by one, skipping any that would
    repeat in its row or column (often not completable)."""
    n = draw(st.integers(1, max_order))
    if draw(st.booleans()):
        square = random_latin_square(n, seed=draw(st.integers(0, 10**6)))
        keep = draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))
        return PartialLatinSquare(
            [[v if keep[r * n + c] else 0 for c, v in enumerate(row)] for r, row in enumerate(square.grid)]
        )
    symbols = draw(st.lists(st.integers(0, n), min_size=n * n, max_size=n * n))
    rows = [[0] * n for _ in range(n)]
    for idx, v in enumerate(symbols):
        r, c = divmod(idx, n)
        if v not in rows[r] and all(rows[i][c] != v for i in range(n)):
            rows[r][c] = v
    return PartialLatinSquare(rows)


@st.composite
def uniquely_completable_squares(draw):
    """Cells of a random square of order <= 5 taken in a drawn order: a
    drawn number of them, then more until the set is uniquely completable."""
    n = draw(st.integers(1, 5))
    square = random_latin_square(n, seed=draw(st.integers(0, 10**6)))
    order = draw(st.permutations(range(n * n)))
    start = draw(st.integers(0, n * n))
    rows = [[0] * n for _ in range(n)]
    for k, idx in enumerate(order):
        if k >= start and is_uniquely_completable(PartialLatinSquare(rows)):
            break
        r, c = divmod(idx, n)
        rows[r][c] = square.grid[r][c]
    return PartialLatinSquare(rows)


# Most holes per order: up to these, a search takes at most tens of ms
# (an order-6 grid with 30 holes can take it seconds).
MAX_HOLES = {5: 20, 6: 26, 7: 30, 8: 34}


@st.composite
def dense_subsets(draw, orders=(5, 6, 7)):
    """A random square of one of `orders` with a drawn number of cells emptied."""
    n = draw(st.sampled_from(orders))
    square = random_latin_square(n, seed=draw(st.integers(0, 10**6)))
    cells = square.cells()
    holes = draw(st.integers(0, MAX_HOLES[n]))
    for idx in draw(st.permutations(range(n * n)))[:holes]:
        cells[idx] = 0
    return n, cells


@st.composite
def grouped_column_subsets(draw):
    """A random square of order <= 6 whose columns fall into up to three
    groups, each group emptied in one drawn set of rows, so the columns of
    a group are free in the same rows; in a row it keeps, a group's columns
    hold different symbols, as in any Latin square.  Group row sets are a
    shared base plus at most one row each, so groups often differ in one
    row only."""
    n = draw(st.integers(2, 6))
    square = random_latin_square(n, seed=draw(st.integers(0, 10**6)))
    group = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    base = draw(st.sets(st.integers(0, n - 1)))
    emptied = [base | draw(st.sets(st.integers(0, n - 1), max_size=1)) for _ in range(3)]
    cells = [0 if r in emptied[group[c]] else v
             for r, row in enumerate(square.grid) for c, v in enumerate(row)]
    assume(cells.count(0) <= MAX_HOLES.get(n, n * n))
    return n, cells


@st.composite
def half_empty_subsets(draw):
    """A random square of order 5 to 8 with at least half of its cells
    emptied, which forced moves seldom complete."""
    n = draw(st.integers(5, 8))
    square = random_latin_square(n, seed=draw(st.integers(0, 10**6)))
    cells = square.cells()
    holes = draw(st.integers(n * n // 2, n * n))
    for idx in draw(st.permutations(range(n * n)))[:holes]:
        cells[idx] = 0
    return n, cells


@functools.cache
def _seed_0_square(n):
    return random_latin_square(n, seed=0).cells()


@st.composite
def large_subsets(draw):
    """A square of order 9 to 31, `random_latin_square(n, 0)` with its
    rows, columns and symbols permuted by a drawn seed, with a drawn number
    of cells emptied.  The solver reads set bits from its dense table up to
    order 12 and from its on-demand map above.  One base square per order,
    since near order 30 the filler's time depends heavily on the seed:
    `random_latin_square(30, 1)` takes about 50 s."""
    n = draw(st.integers(9, 31))
    rng = random.Random(draw(st.integers(0, 10**6)))
    rows, cols, syms = (rng.sample(range(n), n) for _ in range(3))
    base = _seed_0_square(n)
    cells = [syms[base[rows[r] * n + cols[c]] - 1] + 1 for r in range(n) for c in range(n)]
    for idx in rng.sample(range(n * n), draw(st.integers(0, n * n))):
        cells[idx] = 0
    return n, cells


def flat_partial_squares(max_order=MAX_ORDER):
    return partial_squares(max_order).map(lambda p: (p.order, p.cells()))


_square = PartialLatinSquare.from_cells


def _conjugate(p, axes):
    return _square(p.order, conjugate(p.order, p.cells(), axes))


@st.composite
def grid_texts(draw):
    """Arbitrary text, or text shaped like a grid file of order <= 4, with
    wrong orders, row counts, row lengths, tokens and separators mixed in."""
    if draw(st.integers(0, 3)) == 0:
        return draw(st.text())
    n = draw(st.integers(1, 4))
    odd = st.one_of(st.sampled_from(["-1", "+2", "5", "10", "x", "1.0", "\u0663"]), st.text(max_size=2))
    token = st.sampled_from([".", ".", "0"] + [str(v) for v in range(1, n + 1)])
    if draw(st.booleans()):
        token = st.one_of(token, odd)
    head = draw(st.one_of(st.just(str(n)), odd)) if draw(st.integers(0, 4)) == 0 else str(n)
    rows = []
    for _ in range(n if draw(st.integers(0, 4)) else draw(st.integers(0, n + 1))):
        length = n if draw(st.integers(0, 4)) else draw(st.integers(0, n + 1))
        rows.append(draw(st.lists(token, min_size=length, max_size=length)))
    sep = draw(st.sampled_from([" ", "  ", "\t"]))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join([head] + [sep.join(row) for row in rows]) + draw(st.sampled_from(["", newline, newline * 2]))


@st.composite
def relabelings(draw):
    p = draw(partial_squares())
    perms = [draw(st.permutations(range(p.order))) for _ in range(3)]
    return p, perms


@settings(max_examples=200, deadline=None)
@given(partial_squares())
def test_solver_count_matches_oracle(p):
    report = count_completions(p)
    assert report.count == naive_count(p)
    assert not report.capped


@settings(max_examples=200, deadline=None)
@given(partial_squares())
def test_search_matches_oracle(p):
    # count_completions reaches the search only when capped or from order
    # 9 on, so the search path gets its own oracle check
    n = p.order
    cells = p.cells()
    count, flats = _search_count(n, _state(n, cells), None)
    ref = sorted(naive_completions(p), key=lambda grid: serialize(LatinSquare(grid)))
    assert count == len(ref)
    assert [_square(n, flat).grid for flat in flats] == ref[:2]
    assert _search_count(n, _state(n, cells), 2)[0] == min(count, 2)


@settings(max_examples=100, deadline=None)
@given(dense_subsets())
def test_solver_count_matches_row_dynamic_program(case):
    n, cells = case
    assert _search_count(n, _state(n, cells), None)[0] == _count_by_rows(n, _state(n, cells)[1:])


def _rows_count(n, tables, rows):
    """The row program's count of the grid of `tables`, rows taken in the
    order `rows`."""
    for states in _row_layers(n, tables, rows):
        pass
    return sum(states.values())


@settings(max_examples=100, deadline=None)
@given(st.one_of(flat_partial_squares(), dense_subsets(orders=(5, 6, 7, 8))), st.permutations(range(3)), st.data())
def test_row_program_counts_every_conjugate_in_every_row_order(case, axes, data):
    # the count of a conjugate is the grid's count, in any row order, and in
    # the conjugate and row order the layout chooser picks for it (which
    # `_count_by_rows` asks for at the most holes `dense_subsets` leaves)
    n, cells = case
    image = conjugate(n, cells, axes)
    tables = _state(n, image)[1:]
    count = _count_by_rows(n, tables)
    assert count == _search_count(n, _state(n, cells), None)[0]
    if n <= 5:
        assert count == naive_count(_square(n, cells))
    assert _rows_count(n, tables, data.draw(st.permutations(range(n)))) == count
    chosen, rows = _layout(n, tables)
    assert sorted(rows) == list(range(n))
    assert _rows_count(n, _state(n, conjugate(n, image, chosen))[1:], rows) == count


def test_layout_chooser_keeps_the_grids_own_witnesses():
    # an order-7 grid whose closure has more holes than the chooser's
    # threshold, on which it counts another conjugate; the witnesses still
    # come from the grid as given, the two smallest
    rng = random.Random(4)
    cells = random_latin_square(7, 4).cells()
    for idx in rng.sample(range(49), 33):
        cells[idx] = 0
    closed = propagate(_square(7, cells))[0].cells()
    assert closed.count(0) >= _LAYOUT_MIN_HOLES[7]
    axes, rows = _layout(7, _state(7, closed)[1:])
    assert axes == (2, 0, 1)  # symbols as rows
    report = count_completions(_square(7, cells))
    count, flats = _search_count(7, _state(7, cells), None)
    assert report.count == count == _rows_count(7, _state(7, conjugate(7, closed, axes))[1:], rows)
    assert [tuple(w.cells()) for w in report.witnesses] == flats


@settings(max_examples=200, deadline=None)
@given(grouped_column_subsets())
def test_row_program_merges_only_interchangeable_columns(case):
    # columns free in the same rows still to fill are interchangeable, and
    # the row program merges states that differ by swapping them
    n, cells = case
    count = _count_by_rows(n, _state(n, cells)[1:])
    assert count == _search_count(n, _state(n, cells), None)[0]
    if n <= 5:
        assert count == naive_count(_square(n, cells))


@settings(max_examples=150, deadline=None)
@given(st.one_of(flat_partial_squares(), dense_subsets()))
def test_uncapped_count_matches_search(case):
    n, cells = case
    report = count_completions(_square(n, cells))
    count, flats = _search_count(n, _state(n, cells), None)
    assert report.count == count
    assert not report.capped
    assert [tuple(w.cells()) for w in report.witnesses] == flats


@settings(max_examples=100, deadline=None)
@given(st.one_of(flat_partial_squares(), dense_subsets(orders=(5, 6, 7, 8))), st.permutations(range(3)))
def test_transpose_preserves_completion_count(case, axes):
    # any of the six conjugates, the transpose among them
    n, cells = case
    image = conjugate(n, cells, axes)
    assert count_completions(_square(n, image)).count == count_completions(_square(n, cells)).count


@settings(max_examples=200, deadline=None)
@given(partial_squares())
def test_cells_codec_round_trips_and_validates(p):
    n = p.order
    cells = p.cells()
    assert PartialLatinSquare.from_cells(n, cells) == p
    assert all(cells[r * n + c] == p.grid[r][c] for r in range(n) for c in range(n))
    for grid in naive_completions(p, limit=1):
        square = LatinSquare.from_cells(n, LatinSquare(grid).cells())
        assert type(square) is LatinSquare and square.grid == grid
    # row 1 a copy of row 0 repeats each of row 0's symbols in its column
    first = cells[:n]
    if n >= 2 and any(first):
        with pytest.raises(GridError, match="repeated in column"):
            PartialLatinSquare.from_cells(n, first + first + [0] * (n * n - 2 * n))
    with pytest.raises(GridError):
        PartialLatinSquare.from_cells(n, cells + [0])


@settings(max_examples=200, deadline=None)
@given(partial_squares(max_order=12))
@example(random_latin_square(12, 0))
def test_text_writer_round_trips_through_the_parser(p):
    # from order 10 on, symbols have two digits
    n, cells = p.order, p.cells()
    text = _serialize_cells(n, cells)
    assert parse_partial(text) == PartialLatinSquare.from_cells(n, cells)
    assert serialize(p) == text


@settings(max_examples=200, deadline=None)
@given(grid_texts())
def test_grid_text_round_trips_or_raises_grid_error(text):
    try:
        p = parse_partial(text)
    except GridError:
        return
    canonical = serialize(p)
    assert parse_partial(canonical) == p
    assert serialize(parse_partial(canonical)) == canonical


@settings(max_examples=100, deadline=None)
@given(relabelings())
def test_relabel_preserves_completion_count(case):
    p, perms = case
    assert count_completions(relabel(p, *perms)).count == count_completions(p).count


@settings(max_examples=100, deadline=None)
@given(partial_squares())
def test_witnesses_are_the_two_smallest_in_text_order(p):
    report = count_completions(p)
    ref = sorted(naive_completions(p), key=lambda grid: serialize(LatinSquare(grid)))
    assert [w.grid for w in report.witnesses] == ref[:2]


@settings(max_examples=100, deadline=None)
@given(partial_squares(), st.permutations(range(3)))
def test_propagate_is_idempotent_and_keeps_completions(p, axes):
    out, status = propagate(p)
    assert naive_count(out) == naive_count(p)
    again, status_again = propagate(out)
    assert status_again == status
    # one rule read on all three conjugates: conjugating the square
    # conjugates its closure
    image, image_status = propagate(_conjugate(p, axes))
    assert image_status == status
    # a contradiction stops wherever propagation got to, so only a fixed
    # point must repeat exactly
    if status == FIXED_POINT:
        assert again == out
        assert image == _conjugate(out, axes)


def test_propagation_commutes_with_conjugation_at_orders_6_and_7():
    # below order 6 the rules overlap so much that dropping one of them
    # (say the symbol axis's column rule) still reaches the same closure,
    # so 100 fixed half-empty grids per order, with 1/2 to 3/4 of the
    # cells emptied, go through all six conjugates
    for n in (6, 7):
        rng = random.Random(n)
        for _ in range(100):
            square = random_latin_square(n, seed=rng.randrange(10**6))
            cells = square.cells()
            for idx in rng.sample(range(n * n), rng.randint(n * n // 2, 3 * n * n // 4)):
                cells[idx] = 0
            p = _square(n, cells)
            # a subset of a square is completable, so no rule fails
            out, status = propagate(p)
            assert status == FIXED_POINT
            assert propagate(out) == (out, FIXED_POINT)
            for axes in permutations(range(3)):
                assert propagate(_conjugate(p, axes)) == (_conjugate(out, axes), FIXED_POINT)


# 300 examples: about 200 of orders up to 8, as before orders 9-31 joined
@settings(max_examples=300, deadline=None)
@given(st.one_of(flat_partial_squares(max_order=8), half_empty_subsets(), large_subsets()), st.data())
def test_propagation_matches_naive_sweeps(case, data):
    # forced moves reach one closure in any firing order, so checking only
    # dirty lines and symbols must agree with plain full sweeps on the
    # status, and on the grid unless propagation stopped at a contradiction
    n, cells = case
    p = _square(n, cells)
    out, status = propagate(p)
    grid, naive_status = naive_propagate(p)
    assert status == naive_status
    if status == CONTRADICTION:
        return
    assert out.grid == grid
    if out.is_complete():
        return
    # the branches of a search node: each candidate of one cell placed on
    # the fixed point, with only its row, column and symbol marked dirty
    fixed = out.cells()
    idx = data.draw(st.sampled_from([i for i, v in enumerate(fixed) if not v]))
    r, c = divmod(idx, n)
    taken = fixed[r * n : (r + 1) * n] + fixed[c::n]
    branches = [v for v in range(1, n + 1) if v not in taken]
    if n > 8:  # a sweep of the oracle costs O(n^4): one drawn branch
        branches = [data.draw(st.sampled_from(branches))]
    for v in branches:
        branch = fixed.copy()
        branch[idx] = v
        state = solver._state(n, branch)
        ok = solver._propagate_flat(n, *state, 1 << r, 1 << c, 1 << (v - 1))
        grid, naive_status = naive_propagate(_square(n, branch))
        assert (FIXED_POINT if ok else CONTRADICTION) == naive_status
        if ok:
            assert _square(n, state[0]).grid == grid


@settings(max_examples=200, deadline=None)
@given(flat_partial_squares(max_order=8), st.data())
def test_set_cell_agrees_with_the_state_builder(case, data):
    # core._state builds the tables in one pass and solver._set_cell edits
    # them: one write per given from the empty grid, then overwriting or
    # clearing a filled cell, each give the tables _state builds
    n, cells = case
    state = _state(n, [0] * (n * n))
    for idx, v in enumerate(cells):
        if v:
            solver._set_cell(n, state, *divmod(idx, n), v)
    assert state == _state(n, cells)
    filled = [idx for idx, v in enumerate(cells) if v]
    if not filled:
        return
    idx = data.draw(st.sampled_from(filled))
    r, c = divmod(idx, n)
    taken = set(cells[r * n : (r + 1) * n] + cells[c::n]) - {0, cells[idx]}
    edited = cells.copy()
    edited[idx] = data.draw(st.sampled_from([v for v in range(n + 1) if v not in taken]))
    assert solver._set_cell(n, state, r, c, edited[idx]) == _state(n, edited)


@settings(max_examples=200, deadline=None)
@given(st.one_of(flat_partial_squares(max_order=8), half_empty_subsets()))
def test_root_sweep_of_rows_and_columns_matches_a_sweep_of_every_axis(case):
    # a row's walk checks its column and symbol pairs and a column's walk
    # its row and symbol pairs, so the root needs no symbol dirty
    n, cells = case
    root, every_axis = solver._state(n, cells), solver._state(n, cells)
    ok = solver._propagate_flat(n, *root)
    assert ok == solver._propagate_flat(n, *every_axis, -1, -1, -1)
    if ok:
        assert root == every_axis


@settings(max_examples=100, deadline=None)
@given(uniquely_completable_squares(), st.sampled_from(["row-major", "random"]), st.integers(0, 100))
def test_minimize_uc_gives_a_critical_subset_with_the_same_completion(p, removal_order, seed):
    c = minimize_uc(p, removal_order, seed)
    assert all(v in (0, w) for row, prow in zip(c.grid, p.grid) for v, w in zip(row, prow))
    completion = naive_completions(p, limit=2)
    assert len(completion) == 1
    assert naive_completions(c, limit=2) == completion
    for t in c.triples():
        without_t = PartialLatinSquare.from_triples(c.order, [u for u in c.triples() if u != t])
        assert naive_count(without_t, limit=2) == 2
    # critical sets are fixed points, the monotonicity behind one pass
    assert minimize_uc(c, removal_order, seed) == c


@st.composite
def near_critical_sets(draw):
    """A random-order minimize_uc critical set of a random square of order
    <= 7, with up to n drawn entries of that square put back."""
    n = draw(st.integers(1, 7))
    square = random_latin_square(n, seed=draw(st.integers(0, 10**6)))
    rows = [list(row) for row in minimize_uc(square, "random", draw(st.integers(0, 100))).grid]
    for idx in draw(st.lists(st.integers(0, n * n - 1), max_size=n)):
        r, c = divmod(idx, n)
        rows[r][c] = square.grid[r][c]
    return PartialLatinSquare(rows)


@settings(max_examples=100, deadline=None)
@given(st.one_of(uniquely_completable_squares(), near_critical_sets()))
# 78 entries, halved over 7 levels down to the leaves
@example(nelder_triangle(13))
# one entry: the one leaf is the closure of the empty grid
@example(PartialLatinSquare([[1]]))
# 5 removable entries, whose removed cells the shared closures refill
@example(PartialLatinSquare.from_triples(5, classic_5x5().triples() + ((5, 5, 2),)))
def test_removal_checks_match_fresh_counts(p):
    # every removal check searches a closure shared down the halving of
    # the entries, and must answer as a count of the reduced grid built
    # from scratch
    report = verify_critical(p)
    assert report.uniquely_completable
    assert [ch.triple for ch in report.removal_checks] == list(p.triples())
    for ch in report.removal_checks:
        rest = [u for u in p.triples() if u != ch.triple]
        fresh = count_completions(PartialLatinSquare.from_triples(p.order, rest), cap=2)
        assert ch.still_unique == (fresh.count == 1)
        others = [w for w in fresh.witnesses if w != report.completion]
        assert ch.second_completion == (others[0] if others else None)


@st.composite
def critical_sets_and_relabelings(draw):
    """A random-order minimize_uc critical set of a random square of
    order <= 6, that square, three permutations for relabel, and a
    permutation of the three axes for conjugate."""
    n = draw(st.integers(1, 6))
    square = random_latin_square(n, seed=draw(st.integers(0, 10**6)))
    c = minimize_uc(square, "random", draw(st.integers(0, 100)))
    return c, square, [draw(st.permutations(range(n))) for _ in range(3)], draw(st.permutations(range(3)))


@settings(max_examples=100, deadline=None)
@given(critical_sets_and_relabelings())
def test_isotopic_images_and_transposes_of_critical_sets_are_critical(case):
    # the fact exhaustive lcs rests on: an isotopism (and any conjugate)
    # carries a critical set of L to a critical set of the image of L
    c, square, perms, axes = case
    for image, completion in ((relabel(c, *perms), relabel(square, *perms)),
                              (_conjugate(c, axes), _conjugate(square, axes))):
        report = verify_critical(image)
        assert report.critical
        assert report.completion == completion
        assert image.size == c.size
