import random
import sys
from collections import Counter
from pathlib import Path

import pytest

from latincrit import criticality
from latincrit.core import LatinSquare, PartialLatinSquare, Triple, _relabel_triples, parse_partial, relabel, serialize
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
    _isotopy_classes,
    _largest_critical_sets,
    _least_image,
    _minimal_trades,
    _reduced_squares,
    largest_critical_in,
    lcs_exhaustive,
    minimize_uc,
    verify_critical,
)
from latincrit.enumeration import iter_reduced
from latincrit.cli import main
from latincrit.solver import NotUniqueError, count_completions, is_uniquely_completable, unique_completion

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


def test_report_of_a_set_with_no_completion(tmp_path, capsys):
    p = PartialLatinSquare([[1, 2, 0], [2, 1, 0], [0, 0, 0]])  # (1,3) and (2,3) need the same symbol
    rep = verify_critical(p)
    assert (rep.uniquely_completable, rep.minimal, rep.completion) == (False, False, None)
    assert (rep.second_completion, rep.removal_checks) == (None, ())
    path = tmp_path / "none.lsq"
    path.write_text(serialize(p))
    assert main(["verify", str(path)]) == 1
    assert capsys.readouterr().out == "uniquely completable: no\nminimal: no\ncritical: no (size 4)\n"


@pytest.mark.parametrize("p", [
    PartialLatinSquare.empty(2),
    PartialLatinSquare.from_triples(5, classic_5x5().triples()[1:]),
])
def test_report_of_a_set_with_two_completions_names_the_second(p):
    rep = verify_critical(p)
    assert not rep.uniquely_completable and rep.removal_checks == ()
    assert rep.second_completion == count_completions(p, cap=2).witnesses[1]


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


# Frozen output of minimize_uc as kept-cell masks (bit r*n + c), on
# random_latin_square(n, s) ("full") and its all_but_first_row_col
# ("minus"), row-major and in the random order seeded by s.
MINIMIZED_MASKS = {
    (5, 0, "full", "row-major"): 0x1a51300,
    (5, 0, "full", "random"): 0x29b202,
    (5, 0, "minus", "row-major"): 0x1a51300,
    (5, 0, "minus", "random"): 0x693300,
    (5, 1, "full", "row-major"): 0xe56200,
    (5, 1, "full", "random"): 0x8d11a,
    (5, 1, "minus", "row-major"): 0xe56200,
    (5, 1, "minus", "random"): 0x636a80,
    (5, 2, "full", "row-major"): 0xec3200,
    (5, 2, "full", "random"): 0x808b26,
    (5, 2, "minus", "row-major"): 0xec3200,
    (5, 2, "minus", "random"): 0x18e1b80,
    (8, 0, "full", "row-major"): 0x76e2ca7c9468c000,
    (8, 0, "full", "random"): 0x73700f0c64d2350,
    (8, 0, "minus", "row-major"): 0x76e2ca7c9468c000,
    (8, 0, "minus", "random"): 0x3ae23c66489cb000,
    (8, 1, "full", "row-major"): 0x9eeeeae0d0649000,
    (8, 1, "full", "random"): 0x2a4d0278c91320d3,
    (8, 1, "minus", "row-major"): 0x9eeeeae0d0649000,
    (8, 1, "minus", "random"): 0xee452b8d896a400,
    (8, 2, "full", "row-major"): 0x3ebcea72c824c000,
    (8, 2, "full", "random"): 0x55688563188914a4,
    (8, 2, "minus", "row-major"): 0x3ebcea72c824c000,
    (8, 2, "minus", "random"): 0x2ed038aaca145a00,
    (12, 0, "full", "row-major"): 0x38e9b69d6feaff0ecaea2170c28700c00000,
    (12, 0, "full", "random"): 0x162e54b91acc3c8261d1338827885505be23,
    (12, 0, "minus", "row-major"): 0x38e9b69d6feaff0ecaea2170c28700c00000,
    (12, 0, "minus", "random"): 0x8b4f08eea81eb7adce5546d6ce01b6744000,
    (12, 1, "full", "row-major"): 0xfcafae7bcf6649c72c730ce0f409c0a00000,
    (12, 1, "full", "random"): 0xfe8557d516a12cd087b01614164b8c13087,
    (12, 1, "minus", "row-major"): 0xfcafae7bcf6649c72c730ce0f409c0a00000,
    (12, 1, "minus", "random"): 0x38e65e176cd2c9cb5ac7a524fe08ac29e000,
    (12, 2, "full", "row-major"): 0xd7633efcafe2f9c7a46f2838b800d0e00000,
    (12, 2, "full", "random"): 0x61754e8ec47a9862499a4e495b24f0e24218,
    (12, 2, "minus", "row-major"): 0xd7633efcafe2f9c7a46f2838b800d0e00000,
    (12, 2, "minus", "random"): 0xf6d5a1e2a7a654aace38786f46eb2930000,
}


def test_minimize_output_is_pinned():
    for (n, s, kind, order), mask in MINIMIZED_MASKS.items():
        square = random_latin_square(n, seed=s)
        p = square if kind == "full" else all_but_first_row_col(square)
        kept = PartialLatinSquare(
            [[v if mask >> (r * n + c) & 1 else 0 for c, v in enumerate(row)] for r, row in enumerate(p.grid)]
        )
        assert kept.size == mask.bit_count()
        assert serialize(minimize_uc(p, order, seed=s)) == serialize(kept)


# Frozen removal_checks of verify_critical as (triple, rows of the second
# completion), with None where the entry is removable.
CLASSIC_REMOVAL_CHECKS = [
    ((1, 1, 2), "15432 54123 42315 31254 23541"),
    ((1, 3, 4), "24531 45123 52314 31245 13452"),
    ((1, 4, 3), "23451 45123 52314 31245 14532"),
    ((2, 3, 1), "25431 14523 42315 31254 53142"),
    ((2, 4, 2), "25431 43152 52314 31245 14523"),
    ((3, 2, 2), "25431 43125 54312 31254 12543"),
    ((3, 3, 3), "25431 53124 42513 31245 14352"),
    ((3, 4, 1), "25431 54123 12345 31254 43512"),
    ((4, 1, 3), "25431 34125 52314 41253 13542"),
    ((4, 2, 1), "21435 45123 52314 34251 13542"),
    ((4, 3, 2), "25431 43125 52314 31542 14253"),
]
CLASSIC_PLUS_5_5_REMOVAL_CHECKS = [
    ((1, 1, 2), None),
    ((1, 3, 4), "24531 45123 52314 31245 13452"),
    ((1, 4, 3), "23451 45123 52314 31245 14532"),
    ((2, 3, 1), "25431 14523 42315 31254 53142"),
    ((2, 4, 2), None),
    ((3, 2, 2), None),
    ((3, 3, 3), "25431 53124 42513 31245 14352"),
    ((3, 4, 1), "25431 54123 12345 31254 43512"),
    ((4, 1, 3), "25431 34125 52314 41253 13542"),
    ((4, 2, 1), "21435 45123 52314 34251 13542"),
    ((4, 3, 2), None),
    ((5, 5, 2), None),
]


@pytest.mark.parametrize(
    "p, expected",
    [
        (classic_5x5(), CLASSIC_REMOVAL_CHECKS),
        (
            PartialLatinSquare.from_triples(5, classic_5x5().triples() + ((5, 5, 2),)),
            CLASSIC_PLUS_5_5_REMOVAL_CHECKS,
        ),
    ],
)
def test_verify_critical_removal_checks_are_pinned(p, expected):
    rep = verify_critical(p)
    got = []
    for ch in rep.removal_checks:
        assert ch.still_unique == (ch.second_completion is None)
        rows = None if ch.still_unique else " ".join("".join(map(str, row)) for row in ch.second_completion.grid)
        got.append((tuple(ch.triple), rows))
    assert got == expected
    assert rep.minimal == all(rows is not None for _, rows in expected)


def test_largest_critical_order_1():
    assert largest_critical_in(back_circulant(1)).size == 0


def test_largest_critical_back_circulant_3():
    res = largest_critical_in(back_circulant(3))
    assert res.size == 3
    assert verify_critical(res).critical


def test_largest_critical_rejects_big_orders():
    with pytest.raises(ValueError):
        largest_critical_in(back_circulant(6))


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
        assert largest_critical_in(rec.witness_square) == rec.witness_set


def test_lcs_4_and_its_extremal_square():
    rec = lcs_exhaustive(4)
    assert rec.value == 7
    assert verify_critical(rec.witness_set).critical
    # the per-square maximum on the extremal square agrees, witness included
    res = largest_critical_in(rec.witness_square)
    assert res.size == 7 and res == rec.witness_set


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_lcs_matches_the_scan_over_every_reduced_square(n):
    # the scan lcs_exhaustive replaced: every critical set of every
    # reduced square, the largest with the smallest triple tuple as the
    # witness
    squares = _all_squares(_reduced_squares(n))
    witness, square = min(
        ((c, s) for s in iter_reduced(n) for c in _critical_sets(s, squares)),
        key=lambda cs: (-len(cs[0]), cs[0]),
    )
    rec = lcs_exhaustive(n)
    assert rec.value == len(witness)
    assert rec.witness_square == square
    assert rec.witness_set.triples() == witness


def _intercalates(l: LatinSquare) -> int:
    """Number of 2x2 subsquares, an isotopy invariant."""
    g, n = l.grid, l.order
    return sum(
        g[r][c] == g[s][d] and g[r][d] == g[s][c]
        for r in range(n) for s in range(r + 1, n) for c in range(n) for d in range(c + 1, n)
    )


@pytest.mark.parametrize(
    "n, classes",
    [
        # the Klein square alone, and the class of the cyclic group
        (4, [(1, 12), (3, 4)]),
        (5, [(50, 4), (6, 0)]),
        # the 22 classes of McKay, Meynert & Myrvold (2007), about 0.5 s
        (6, [
            (60, 9), (180, 9), (120, 9), (1080, 5), (20, 27), (540, 19), (360, 15), (36, 15),
            (360, 15), (1080, 11), (540, 7), (360, 15), (36, 15), (540, 7), (1080, 5),
            (1080, 4), (120, 9), (1080, 5), (120, 9), (540, 7), (36, 15), (40, 0),
        ]),
    ],
)
def test_isotopy_classes_of_reduced_squares(n, classes):
    squares = list(iter_reduced(n))
    found = _isotopy_classes(squares)
    assert [(len(members), _intercalates(rep)) for rep, members in found] == classes
    assert sorted(m.grid for _, members in found for m, _ in members) == sorted(s.grid for s in squares)
    for rep, members in found:
        assert members[0][0] == rep
        for member, iso in members:
            assert relabel(rep, *iso) == member


def test_isotopisms_carry_largest_critical_sets_onto_the_members():
    squares = _all_squares(_reduced_squares(4))
    for rep, members in _isotopy_classes(list(iter_reduced(4))):
        sets = _largest_critical_sets(rep, squares)
        for member, iso in members:
            assert sorted(_relabel_triples(c, *iso) for c in sets) == sorted(_largest_critical_sets(member, squares))


def test_least_image_is_the_smallest_carried_set():
    # the class members' isotopisms and seeded random ones, on the critical
    # sets of every size of both order-4 representatives
    squares = _all_squares(_reduced_squares(4))
    rng = random.Random(5)
    for rep, members in _isotopy_classes(_reduced_squares(4)):
        every = list(_critical_sets(rep, squares))
        isos = [iso for _, iso in members] + [[rng.sample(range(4), 4) for _ in range(3)] for _ in range(8)]
        for size in set(map(len, every)):
            by_mask = {sum(1 << (r - 1) * 4 + c - 1 for r, c, _ in s): s for s in every if len(s) == size}
            for iso in isos:
                least = by_mask[_least_image(list(by_mask), 4, *iso[:2])]
                assert _relabel_triples(least, *iso) == min(_relabel_triples(c, *iso) for c in by_mask.values())


def test_klein_square_is_not_isotopic_to_the_cyclic_square():
    klein = LatinSquare([[1, 2, 3, 4], [2, 1, 4, 3], [3, 4, 1, 2], [4, 3, 2, 1]])
    class_of = {
        member: number
        for number, (_, members) in enumerate(_isotopy_classes(list(iter_reduced(4))))
        for member, _ in members
    }
    assert class_of[klein] != class_of[back_circulant(4)]


def test_lcs_rejects_big_orders():
    for n in (0, 6):
        with pytest.raises(ValueError, match=r"orders 1\.\.5\b"):
            lcs_exhaustive(n)


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
        grown = PartialLatinSquare.from_triples(n, c.triples() + tuple(extra[: max(1, len(extra) // 2)]))
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


# A critical set of size 18 at order 6, found by a trade-guided search:
# the computed half of lcs(6) = 18.
LCS_6_WITNESS = Path(__file__).parent / "data" / "lcs_6_witness_18.txt"


def test_lcs_6_lower_bound_witness_is_critical():
    c = parse_partial(LCS_6_WITNESS.read_text())
    rep = verify_critical(c)
    assert rep.critical
    assert c.size == KNOWN_LCS[6]
    rows = ["".join(map(str, row)) for row in rep.completion.grid]
    assert rows == ["123456", "214365", "351624", "462513", "536142", "645231"]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_critical_sets_match_subset_scan_oracle(n):
    squares = _all_squares(_reduced_squares(n))
    # every square of order n, listed by the naive enumerator
    for rows in naive_completions(PartialLatinSquare.empty(n)):
        square = LatinSquare(rows)
        found = list(_critical_sets(square, squares))
        assert len(found) == len(set(found))
        assert set(found) == naive_critical_sets(square)


def test_critical_sets_order_4_verify_and_spectra():
    squares = _all_squares(_reduced_squares(4))
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


# MMCS search nodes, the `mmcs` generators that _critical_sets enters, of
# _largest_critical_sets on the two order-4 class representatives at the
# floors lcs_exhaustive gives them, 0 and then 7.  A search that lists the
# same sets over a larger tree fails here.
ORDER_4_MMCS_NODES = [413, 427]


def _mmcs_nodes(run) -> int:
    """Calls run() and returns the number of mmcs generators it entered.
    A generator reports a call event at its start and at every resume, so
    the frames are counted once each, and held so that none is reused."""
    frames = []

    def tracer(frame, event, arg):
        if event == "call" and frame.f_code.co_name == "mmcs" and frame.f_code.co_filename == criticality.__file__:
            frames.append(frame)

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        run()
    finally:
        sys.settrace(previous)
    return len(set(frames))


def test_mmcs_search_effort_is_frozen():
    squares = _all_squares(_reduced_squares(4))
    nodes, floor = [], 0
    for rep, _ in _isotopy_classes(_reduced_squares(4)):
        found = []
        nodes.append(_mmcs_nodes(lambda: found.extend(_largest_critical_sets(rep, squares, floor))))
        floor = max([floor, *map(len, found)])
    assert (nodes, floor) == (ORDER_4_MMCS_NODES, 7)


def _per_cell_trades(l: LatinSquare, squares: list) -> list:
    """The minimal trades of l by the per-cell difference formula that the
    bit-parallel one replaced, sorted by (size, mask)."""
    n2 = l.order ** 2
    cells = l.cells()
    diffs = {
        sum(1 << i for i, (a, b) in enumerate(zip(cells, s.to_bytes(n2, "little"))) if a != b)
        for s in squares
    }
    trades = []
    for d in sorted(diffs - {0}, key=int.bit_count):
        if all(t & d != t for t in trades):
            trades.append(d)
    return sorted(trades, key=lambda t: (t.bit_count(), t))


@pytest.mark.parametrize("n, count", [(1, 1), (2, 2), (3, 12), (4, 576), (5, 161_280)])
def test_bit_parallel_trades_match_the_per_cell_formula(n, count):
    squares = _all_squares(_reduced_squares(n))
    assert len(set(squares)) == len(squares) == count
    # every square up to order 4; one at order 5, the first order where two
    # symbols (1 and 5) differ in bit 2 alone
    for s in squares if n < 5 else squares[:1]:
        flat = s.to_bytes(n * n, "little")
        square = LatinSquare.from_cells(n, flat)
        assert _minimal_trades(square, squares) == _per_cell_trades(square, squares)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_size_bound_keeps_every_set_it_may_keep(n):
    squares = _all_squares(_reduced_squares(n))
    for square in iter_reduced(n):
        every = list(_critical_sets(square, squares))
        top = max(map(len, every))
        for floor in range(top + 2):
            # a fixed floor lists exactly the sets at least that large ...
            assert list(_critical_sets(square, squares, [floor])) == [c for c in every if len(c) >= floor]
            # ... and a rising one exactly the largest, or none above them
            largest = [c for c in every if len(c) == top] if floor <= top else []
            assert _largest_critical_sets(square, squares, floor) == largest
