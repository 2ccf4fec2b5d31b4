"""Latin square and partial Latin square types plus the grid text format.

Grid text format (the unit of exchange for the CLI and all fixtures):
line 1 is the order n, lines 2..n+1 hold n whitespace-separated tokens,
each "." (empty) or an integer 1..n.  Numbers are ASCII decimal digits
only, with no sign, underscore or other script.  "0" is accepted as a
synonym for "." on input; canonical output uses ".", single spaces, and
a trailing newline.  `parse_partial` checks only what the text alone
shows (header, row count, tokens); the `PartialLatinSquare` constructor
checks all the rest.

Coordinates are 1-indexed in all external formats and in Triple values;
the internal grid tuples are 0-indexed with 0 marking an empty cell.
`cells()` and `from_cells()` are the one codec between a grid and its
flat row-major list, cell (r, c) at index r * n + c, and
`_serialize_cells` is the one text writer, which writes that list.  All
squares are immutable after construction and safe to share.  `_state` is
the one builder of the solver state, that list and its free-value
tables, which every exact check reads and the solver edits in place.
`_set_bits(n)` is the one walk over the set bits of a mask of n bits:
`bits[mask]`, an ascending tuple of indices, which the solver, the
row-major filler and the row program read in place of bit tricks looped
in Python.
"""

from __future__ import annotations

import functools
import operator
from typing import Iterable, NamedTuple, Sequence

# Symbol masks for rows/columns must fit a machine word.
MAX_ORDER = 31

# The axes of a triple are row 0, column 1 and symbol 2.  A solver state
# holds the six tables free[X][Y] in the order of these pairs (X, Y).
_PAIRS = ((0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1))
# Per axis X, the axis order that takes X as rows and the other two in order.
_ROW_AXES = ((0, 1, 2), (1, 0, 2), (2, 0, 1))


class GridError(ValueError):
    """Malformed grid: bad dimensions, an entry that is not an integer,
    out-of-range symbol, row/column duplicate, a cell outside the grid or
    assigned twice, or a relabeling by a map that is not a permutation."""


def _entry(row: int, v) -> int:
    """A grid entry that is not an int: None is an empty cell, and any
    other value must be of an integer type."""
    if v is None:
        return 0
    try:
        return operator.index(v)
    except TypeError:
        raise GridError(f"row {row}: entry {v!r} is not an integer") from None


class Triple(NamedTuple):
    """One filled cell, 1-indexed: symbol `sym` in cell (`row`, `col`)."""

    row: int
    col: int
    sym: int


class PartialLatinSquare:
    """An n x n grid over 1..n where each symbol occurs at most once per
    row and at most once per column.  The constructor, the one grid
    validator, rejects violations in one row-major pass that reports the
    first defect, so an instance is always Latin-property-respecting.

    `grid` is a tuple of row tuples with 0 for empty cells.
    """

    __slots__ = ("order", "grid")

    def __init__(self, rows: Iterable[Iterable[int | None]]):
        grid = tuple([tuple([v if type(v) is int else _entry(i, v) for v in row])
                      for i, row in enumerate(rows, start=1)])
        n = len(grid)
        if not 1 <= n <= MAX_ORDER:
            raise GridError(f"order {n} outside supported range 1..{MAX_ORDER}")
        cols = [0] * n  # symbols seen so far in each column, one bit each
        for i, row in enumerate(grid, start=1):
            if len(row) != n:
                raise GridError(f"row {i}: expected {n} entries, got {len(row)}")
            seen = 0
            for j, v in enumerate(row):
                if v:
                    if not 1 <= v <= n:
                        raise GridError(f"row {i}: symbol {v} out of range 1..{n}")
                    bit = 1 << (v - 1)
                    if seen & bit:
                        raise GridError(f"symbol {v} repeated in row {i}")
                    if cols[j] & bit:
                        raise GridError(f"symbol {v} repeated in column {j + 1}")
                    seen |= bit
                    cols[j] |= bit
        self.order = n
        self.grid = grid

    @classmethod
    def empty(cls, order: int) -> "PartialLatinSquare":
        return cls([[0] * order for _ in range(order)])

    @classmethod
    def from_triples(cls, order: int, triples: Iterable[Triple | tuple]) -> "PartialLatinSquare":
        rows = [[0] * order for _ in range(order)]
        for row, col, sym in triples:
            if not (1 <= row <= order and 1 <= col <= order):
                raise GridError(f"cell ({row},{col}) outside order-{order} grid")
            if rows[row - 1][col - 1]:
                raise GridError(f"cell ({row},{col}) assigned twice")
            rows[row - 1][col - 1] = sym
        return cls(rows)

    @classmethod
    def from_cells(cls, order: int, cells: Sequence[int]) -> "PartialLatinSquare":
        """The square of the flat row-major list `cells` (0 = empty), the
        inverse of `cells()`; validated like any other construction."""
        if len(cells) != order * order:
            raise GridError(f"expected {order * order} cells for order {order}, got {len(cells)}")
        return cls([cells[r * order : (r + 1) * order] for r in range(order)])

    def cells(self) -> list[int]:
        """The grid as a new flat row-major list, 0 for empty cells: the
        layout of every exact check's solver state."""
        return [v for row in self.grid for v in row]

    @property
    def size(self) -> int:
        """Number of filled cells."""
        return sum(1 for row in self.grid for v in row if v)

    def triples(self) -> tuple[Triple, ...]:
        """Filled cells as 1-indexed triples in row-major order."""
        return tuple(
            Triple(i + 1, j + 1, v)
            for i, row in enumerate(self.grid)
            for j, v in enumerate(row)
            if v
        )

    def is_complete(self) -> bool:
        return all(v for row in self.grid for v in row)

    def to_latin(self) -> "LatinSquare":
        if not self.is_complete():
            raise GridError(f"square is incomplete ({self.size} of {self.order ** 2} cells)")
        return LatinSquare(self.grid)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PartialLatinSquare):
            return NotImplemented
        return self.order == other.order and self.grid == other.grid

    def __hash__(self) -> int:
        return hash((self.order, self.grid))

    def __repr__(self) -> str:
        return f"{self.__class__.__name__}(order={self.order}, size={self.size})"


class LatinSquare(PartialLatinSquare):
    """A complete square: every row and column is a permutation of 1..n."""

    __slots__ = ()

    def __init__(self, rows: Iterable[Iterable[int | None]]):
        super().__init__(rows)
        for i, row in enumerate(self.grid):
            if 0 in row:
                raise GridError(f"row {i + 1}: empty cell in a complete square")
        # n distinct symbols per row/column and no empties already imply
        # each row and column is a permutation of 1..n.


def _is_decimal(tok: str) -> bool:
    """ASCII digits only: int() would also take a sign, underscores and
    the digits of other scripts."""
    return tok.isascii() and tok.isdigit()


def parse_partial(text: str) -> PartialLatinSquare:
    """Parse grid text.  Checks only what the constructor cannot see: an
    empty input, the header (one order in 1..MAX_ORDER), the row count and
    the tokens ("." or "0" for empty, else a nonzero ASCII decimal)."""
    lines = text.splitlines()
    while lines and not lines[-1].strip():
        lines.pop()
    if not lines:
        raise GridError("empty input")
    head = lines[0].split()
    if len(head) != 1:
        raise GridError("first line must contain only the order")
    if not _is_decimal(head[0]):
        raise GridError(f"order is not an integer: {head[0]!r}")
    n = int(head[0])
    if not 1 <= n <= MAX_ORDER:
        raise GridError(f"order {n} outside supported range 1..{MAX_ORDER}")
    if len(lines) - 1 != n:
        raise GridError(f"expected {n} grid rows, got {len(lines) - 1}")
    rows = [line.split() for line in lines[1:]]
    for i, row in enumerate(rows, start=1):
        for j, tok in enumerate(row):
            if tok in (".", "0"):
                row[j] = 0
            elif not _is_decimal(tok):
                raise GridError(f"row {i}: bad token {tok!r}")
            elif not tok.strip("0"):  # "00" is the symbol 0, not an empty cell
                raise GridError(f"row {i}: symbol 0 out of range 1..{n}")
            else:
                row[j] = int(tok)
    return PartialLatinSquare(rows)


def serialize(p: PartialLatinSquare) -> str:
    """Canonical grid text: single spaces, "." for empty, trailing newline.
    Round-trips byte-identically through parse_partial."""
    return _serialize_cells(p.order, p.cells())


@functools.cache
def _text_form(n: int) -> tuple:
    """The %-format of an order-n grid's text, one "%s" per cell, and the
    lookup from a symbol (0 = empty) to its token."""
    return f"{n}\n" + ("%s " * (n - 1) + "%s\n") * n, (".", *map(str, range(1, n + 1))).__getitem__


def _serialize_cells(n: int, cells: Sequence[int]) -> str:
    """The canonical grid text of the flat row-major list `cells` (0 =
    empty), unchecked: the one text writer, which `serialize` calls and
    the command line uses on the solver's and the filler's flat grids."""
    form, token = _text_form(n)
    return form % tuple(map(token, cells))


def relabel(
    p: PartialLatinSquare,
    row_perm: Sequence[int],
    col_perm: Sequence[int],
    sym_perm: Sequence[int],
) -> PartialLatinSquare:
    """Apply row, column, and symbol permutations (0-indexed images):
    cell (i, j) holding s moves to (row_perm[i], col_perm[j]) holding
    sym_perm[s-1]+1.  Preserves the Latin property, size, and criticality.
    Raises GridError unless each of the three maps is a permutation of
    0..n-1.
    """
    n = p.order
    for name, perm in (("row", row_perm), ("column", col_perm), ("symbol", sym_perm)):
        if sorted(perm) != list(range(n)):
            raise GridError(f"{name} map {list(perm)} is not a permutation of 0..{n - 1}")
    return p.__class__.from_triples(n, _relabel_triples(p.triples(), row_perm, col_perm, sym_perm))


def _relabel_triples(triples: Iterable[tuple], row_perm, col_perm, sym_perm) -> tuple[tuple, ...]:
    """The triples moved as `relabel` moves cells, in row-major order, as
    plain tuples (half the cost of Triples); the maps are not checked."""
    return tuple(sorted([(row_perm[r - 1] + 1, col_perm[c - 1] + 1, sym_perm[s - 1] + 1)
                         for r, c, s in triples]))


# The set bits of a mask, `bits[mask]`, as an ascending tuple of indices:
# up to order _DENSE_BITS_MAX_ORDER, one list of every mask below 2^n,
# grown by doubling to the largest order asked for (at most 4,096 tuples,
# about 0.4 MB); above it, a map filled on demand and cleared at
# _SPARSE_BITS_MAX entries, since a dense table there would hold 2^n.
_DENSE_BITS_MAX_ORDER = 12
_SPARSE_BITS_MAX = 1 << 14
_dense_bits = [()]


class _SparseBits(dict):
    """`bits[mask]` for masks of any width, each entry built when first read."""

    def __missing__(self, mask: int) -> tuple[int, ...]:
        if len(self) >= _SPARSE_BITS_MAX:
            self.clear()
        bits = self[mask] = tuple(i for i in range(mask.bit_length()) if mask >> i & 1)
        return bits


# Every entry is a function of its key alone, so one map serves every caller.
_sparse_bits = _SparseBits()


def _set_bits(n: int):
    """The `bits[mask]` mapping for masks of n bits."""
    if n > _DENSE_BITS_MAX_ORDER:
        return _sparse_bits
    while len(_dense_bits) < 1 << n:  # masks below 2^k, then each with bit k set
        k = len(_dense_bits).bit_length() - 1
        _dense_bits.extend([bits + (k,) for bits in _dense_bits])
    return _dense_bits


def _state(n: int, cells: Sequence[int]) -> list:
    """The solver state of the flat grid `cells` (0 = empty), which it
    copies: `[cells, rc, rv, cr, cv, vr, vc]`, the grid and its six tables
    free[X][Y] in `_PAIRS` order, where `free[X][Y][a]` holds the values
    of axis Y in no triple with value a of axis X (symbol v at bit v - 1).
    Every value starts free of every other, and each given is XORed out
    of the six tables."""
    full = (1 << n) - 1
    tables = [[full] * n for _ in range(6)]
    rc, rv, cr, cv, vr, vc = tables
    for idx, v in enumerate(cells):
        if v:
            r, c = divmod(idx, n)
            v -= 1
            rbit, cbit, vbit = 1 << r, 1 << c, 1 << v
            rc[r] ^= cbit
            rv[r] ^= vbit
            cr[c] ^= rbit
            cv[c] ^= vbit
            vr[v] ^= rbit
            vc[v] ^= cbit
    return [list(cells), *tables]
