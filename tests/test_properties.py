"""Property tests: the solver against the naive oracle, its witnesses and
propagation, and completion counts under relabeling, on random partial
squares of order <= 4; minimize_uc against the oracle on uniquely
completable partial squares of order <= 5; and the solver against the
row dynamic program of `enumeration` at orders 5 and 6."""

from hypothesis import given, settings
from hypothesis import strategies as st

from latincrit.constructions import random_latin_square
from latincrit.core import LatinSquare, PartialLatinSquare, relabel, remove_entry, serialize
from latincrit.criticality import minimize_uc
from latincrit.enumeration import _count_by_rows
from latincrit.solver import FIXED_POINT, count_completions, is_uniquely_completable, propagate

from oracle import naive_completions, naive_count

MAX_ORDER = 4


@st.composite
def partial_squares(draw):
    """Either a random subset of a complete square (always completable),
    or symbols dropped into cells one by one, skipping any that would
    repeat in its row or column (often not completable)."""
    n = draw(st.integers(1, MAX_ORDER))
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


# Most holes per order: up to these, a count takes at most tens of ms on
# either side (an order-6 grid with 30 holes can take the solver seconds).
MAX_HOLES = {5: 20, 6: 26}


@st.composite
def dense_subsets(draw):
    """A random square of order 5 or 6 with a drawn number of cells emptied."""
    n = draw(st.sampled_from(sorted(MAX_HOLES)))
    square = random_latin_square(n, seed=draw(st.integers(0, 10**6)))
    cells = [v for row in square.grid for v in row]
    holes = draw(st.integers(0, MAX_HOLES[n]))
    for idx in draw(st.permutations(range(n * n)))[:holes]:
        cells[idx] = 0
    return n, cells


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


@settings(max_examples=100, deadline=None)
@given(dense_subsets())
def test_solver_count_matches_row_dynamic_program(case):
    n, cells = case
    p = PartialLatinSquare([cells[r * n : (r + 1) * n] for r in range(n)])
    assert count_completions(p).count == _count_by_rows(n, cells)


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
@given(partial_squares())
def test_propagate_is_idempotent_and_keeps_completions(p):
    out, status = propagate(p)
    assert naive_count(out) == naive_count(p)
    again, status_again = propagate(out)
    assert status_again == status
    # a contradiction stops mid-sweep, so only a fixed point must repeat exactly
    if status == FIXED_POINT:
        assert again == out


@settings(max_examples=100, deadline=None)
@given(uniquely_completable_squares(), st.sampled_from(["row-major", "random"]), st.integers(0, 100))
def test_minimize_uc_gives_a_critical_subset_with_the_same_completion(p, removal_order, seed):
    c = minimize_uc(p, removal_order, seed)
    assert all(v in (0, w) for row, prow in zip(c.grid, p.grid) for v, w in zip(row, prow))
    completion = naive_completions(p, limit=2)
    assert len(completion) == 1
    assert naive_completions(c, limit=2) == completion
    for t in c.triples():
        assert naive_count(remove_entry(c, (t.row, t.col)), limit=2) == 2
    # critical sets are fixed points, the monotonicity behind one pass
    assert minimize_uc(c, removal_order, seed) == c
