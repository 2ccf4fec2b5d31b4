import os
import random
import re
import subprocess
import sys
from itertools import permutations
from pathlib import Path

import pytest

import latincrit
from latincrit import core
from latincrit.core import (
    GridError,
    LatinSquare,
    PartialLatinSquare,
    Triple,
    _relabel_triples,
    _state,
    parse_partial,
    relabel,
    serialize,
)
from latincrit.constructions import classic_5x5, random_latin_square
from latincrit.enumeration import _conjugate

import oracle


def test_parse_complete_cyclic():
    p = parse_partial("3\n1 2 3\n2 3 1\n3 1 2\n")
    assert p.order == 3
    assert p.grid == ((1, 2, 3), (2, 3, 1), (3, 1, 2))
    assert p.is_complete()


def test_parse_partial_single_entry():
    p = parse_partial("2\n1 .\n. .\n")
    assert p.size == 1
    assert p.triples() == (Triple(1, 1, 1),)


def _rejects(message, text, rows=None):
    """parse_partial(text), and the constructor on `rows` if given, raise
    GridError with exactly `message`."""
    pattern = f"^{re.escape(message)}$"
    with pytest.raises(GridError, match=pattern):
        parse_partial(text)
    if rows is not None:
        with pytest.raises(GridError, match=pattern):
            PartialLatinSquare(rows)


def test_parse_rejects_row_duplicate():
    _rejects("symbol 1 repeated in row 1", "2\n1 1\n. .\n", [[1, 1], [0, 0]])


def test_parse_rejects_column_duplicate():
    _rejects("symbol 1 repeated in column 1", "2\n1 .\n1 .\n", [[1, 0], [1, 0]])


def test_parse_rejects_bad_dimensions():
    _rejects("expected 3 grid rows, got 2", "3\n1 2 3\n2 3 1\n")
    _rejects("row 1: expected 2 entries, got 3", "2\n1 2 .\n. .\n", [[1, 2, 0], [0, 0]])
    _rejects("row 2: expected 2 entries, got 1", "2\n1 .\n.\n", [[1, 0], [0]])
    _rejects("order 40 outside supported range 1..31", "40\n", [[0] * 40 for _ in range(40)])
    _rejects("empty input", " \n\n")
    _rejects("first line must contain only the order", "2 2\n1 .\n. .\n")
    _rejects("order is not an integer: 'two'", "two\n1 .\n. .\n")


def test_parse_rejects_out_of_range_symbol():
    _rejects("row 1: symbol 3 out of range 1..2", "2\n3 .\n. .\n", [[3, 0], [0, 0]])
    _rejects("row 1: bad token '-1'", "2\n-1 .\n. .\n")
    _rejects("row 1: symbol 0 out of range 1..2", "2\n00 .\n. .\n")  # "0" is empty, "00" is not


def test_first_defect_in_row_major_order_is_reported():
    # a column repeat at (2,1), a row repeat at (2,2), symbol 5 in row 3 and
    # a short row 4: the first cell in row-major order decides
    rows = [[1, 0, 0, 0], [1, 1, 0, 0], [0, 0, 5, 0], [0, 0]]
    _rejects("symbol 1 repeated in column 1", "4\n1 . . .\n1 1 . .\n. . 5 .\n. .\n", rows)


@pytest.mark.parametrize("text", [
    "2\n+1 .\n. .\n",
    "2\n1 .\n. 0_1\n",
    "2\n\u0661 .\n. .\n",  # ARABIC-INDIC DIGIT ONE
    "2\n1 .\n. \uff12\n",  # FULLWIDTH DIGIT TWO
    "2\n\u00b9 .\n. .\n",  # SUPERSCRIPT ONE: a digit to str.isdigit, not to int()
    "+2\n1 .\n. .\n",
    "0_2\n1 .\n. .\n",
    "\u0662\n1 .\n. .\n",  # ARABIC-INDIC DIGIT TWO
])
def test_parse_accepts_only_ascii_decimal_numbers(text):
    with pytest.raises(GridError):
        parse_partial(text)


def test_parse_zero_means_empty():
    assert parse_partial("2\n1 0\n0 0\n") == parse_partial("2\n1 .\n. .\n")


def test_serialize_empty_order_1():
    assert serialize(PartialLatinSquare.empty(1)) == "1\n.\n"


def test_serialize_complete_order_2():
    assert serialize(LatinSquare([[1, 2], [2, 1]])) == "2\n1 2\n2 1\n"


def test_classic_5x5_serializes_byte_identically():
    text = "5\n2 . 4 3 .\n. . 1 2 .\n. 2 3 1 .\n3 1 2 . .\n. . . . .\n"
    assert serialize(classic_5x5()) == text
    assert serialize(parse_partial(text)) == text


def test_parse_serialize_round_trip_random_suite():
    rng = random.Random(7)
    for trial in range(120):
        n = rng.randint(1, 8)
        square = random_latin_square(n, seed=trial)
        rows = [[v if rng.random() < 0.6 else 0 for v in row] for row in square.grid]
        p = PartialLatinSquare(rows)
        assert parse_partial(serialize(p)) == p


def test_constructor_rejects_duplicates():
    with pytest.raises(GridError, match=r"^symbol 1 repeated in row 1$"):
        PartialLatinSquare([[1, 1], [0, 0]])
    with pytest.raises(GridError, match=r"^symbol 1 repeated in column 1$"):
        PartialLatinSquare([[1, 0], [1, 0]])


def test_constructor_rejects_entries_that_are_not_integers():
    with pytest.raises(GridError, match=r"^row 1: entry 1\.9 is not an integer$"):
        PartialLatinSquare([[1.9, 0], [0, 2.5]])
    with pytest.raises(GridError, match=r"^row 2: entry '2' is not an integer$"):
        LatinSquare([[1, 2], ["2", 1]])
    assert PartialLatinSquare([[None, 2], [2, None]]).grid == ((0, 2), (2, 0))


def test_order_limits():
    with pytest.raises(GridError):
        PartialLatinSquare([])
    with pytest.raises(GridError):
        PartialLatinSquare([[0] * 32 for _ in range(32)])


def test_complete_partial_converts_to_latin_and_back():
    p = parse_partial("3\n1 2 3\n2 3 1\n3 1 2\n")
    sq = p.to_latin()
    assert isinstance(sq, LatinSquare)
    assert sq == p  # same order and grid
    assert serialize(sq) == serialize(p)


def test_incomplete_square_cannot_convert():
    with pytest.raises(GridError):
        classic_5x5().to_latin()


def test_latin_square_rejects_empty_cell():
    with pytest.raises(GridError):
        LatinSquare([[1, 2], [2, 0]])


def test_relabel_preserves_latin_property():
    rng = random.Random(3)
    for trial in range(30):
        n = rng.randint(2, 6)
        sq = random_latin_square(n, seed=trial)
        perms = [list(range(n)) for _ in range(3)]
        for perm in perms:
            rng.shuffle(perm)
        out = relabel(sq, *perms)
        assert isinstance(out, LatinSquare)
        assert out.size == n * n


def test_relabel_triples_moves_each_cell_by_the_maps():
    # cell (i, j) holding s moves to (row_perm[i], col_perm[j]) holding
    # sym_perm[s-1]+1; the moved triples come back in row-major order
    rng = random.Random(5)
    for n in range(1, 7):
        square = random_latin_square(n, seed=n)
        for _ in range(5):
            triples = [t for t in square.triples() if rng.random() < 0.5]
            rng.shuffle(triples)
            row_perm, col_perm, sym_perm = [rng.sample(range(n), n) for _ in range(3)]
            moved = {(row_perm[t.row - 1], col_perm[t.col - 1]): sym_perm[t.sym - 1] + 1 for t in triples}
            expected = tuple(Triple(i + 1, j + 1, moved[i, j]) for i in range(n) for j in range(n) if (i, j) in moved)
            assert _relabel_triples(triples, row_perm, col_perm, sym_perm) == expected


def test_conjugate_agrees_with_the_oracle_on_all_six_axis_orders():
    # a conjugate's free-value tables are the grid's, reindexed
    rng = random.Random(7)
    for n in range(1, 8):
        cells = random_latin_square(n, seed=n).cells()
        for _ in range(4):
            partial = [v if rng.random() < 0.6 else 0 for v in cells]
            tables = _state(n, partial)[1:]
            for axes in permutations(range(3)):
                assert _conjugate(tables, axes) == _state(n, oracle.conjugate(n, partial, axes))[1:]


def _bits_of(mask):
    return tuple(i for i, digit in enumerate(reversed(f"{mask:b}")) if digit == "1")


def test_set_bits_lists_each_mask_ascending():
    # up to order 12 one dense list, which order 12 grows to every mask below
    # 2^12; above it one map of masks up to 31 bits, filled on demand and
    # cleared at its limit
    dense = core._set_bits(12)
    assert core._set_bits(1) is dense and len(dense) == 1 << 12
    assert all(dense[mask] == _bits_of(mask) for mask in range(1 << 12))
    sparse = core._set_bits(13)
    assert core._set_bits(31) is sparse is not dense
    rng = random.Random(0)
    for mask in [0, 1, 1 << 12, 1 << 30, (1 << 31) - 1] + [rng.getrandbits(rng.randint(1, 31)) for _ in range(2000)]:
        assert sparse[mask] == _bits_of(mask)
    bits = core._SparseBits()
    for mask in range(2 * core._SPARSE_BITS_MAX + 1):
        assert bits[mask] == _bits_of(mask)
        assert len(bits) <= core._SPARSE_BITS_MAX


def test_dense_set_bits_grow_only_to_the_largest_order_used():
    # a fresh process: importing holds mask 0's entry only, R(7) reads
    # masks of 7 bits only, and a count at order 12 grows the list to its limit
    src = str(Path(latincrit.__file__).resolve().parents[1])
    probe = (
        "from latincrit import core\n"
        "from latincrit.enumeration import count_all\n"
        "from latincrit.solver import count_completions\n"
        "sizes = [len(core._dense_bits)]\n"
        "count_all(7)\n"
        "sizes.append(len(core._dense_bits))\n"
        "count_completions(core.PartialLatinSquare.empty(12), cap=2)\n"
        "sizes.append(len(core._dense_bits))\n"
        "print(*sizes)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        check=True,
        env=dict(os.environ, PYTHONPATH=src),
        timeout=60,
    )
    assert out.stdout.split() == ["1", "128", "4096"]


@pytest.mark.parametrize(
    "perms",
    [
        ([0, 0], [0, 1], [0, 1]),  # would merge both entries into row 1
        ([0, 1], [0, -1], [0, 1]),  # negative column index
        ([0, 1], [0, 1], [0, -1]),  # would drop the entry holding 2
        ([0, 1], [0, 1], [0, 0]),  # would turn symbol 2 into 1
        ([0, 1, 2], [0, 1], [0, 1]),  # wrong length
    ],
)
def test_relabel_rejects_maps_that_are_not_permutations(perms):
    with pytest.raises(GridError):
        relabel(PartialLatinSquare([[1, 0], [0, 2]]), *perms)


def test_public_names_resolve_once():
    assert len(latincrit.__all__) == len(set(latincrit.__all__))
    for name in latincrit.__all__:
        assert hasattr(latincrit, name), name
