"""Command-line entry point.

Exit codes: 0 success / property holds, 1 property fails (e.g. verify on
a non-critical set), 2 usage or parse error.  A reader that closes the
output early (`| head`) ends the command quietly with exit code 0.
Grids read and written in the canonical grid text format; all randomized
subcommands default to seed 0 so runs are reproducible by default.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from . import bounds as bounds_mod
from .constructions import (
    all_but_first_row_col,
    back_circulant,
    classic_5x5,
    nelder_triangle,
    random_latin_square,
)
from .core import GridError, _serialize_cells, parse_partial, serialize
from .criticality import KNOWN_LCS, _removal_checks, lcs_exhaustive, minimize_uc
from .enumeration import _from_reduced, _reduced_fills, count_all
from .solver import NotUniqueError, _count, is_uniquely_completable

DEFAULT_COUNT_CAP = 1_000_000


def _load(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_partial(fh.read())


def _cmd_complete(args) -> int:
    p = _load(args.file)
    cap = None if args.count_cap == 0 else args.count_cap
    count, capped, flats = _count(p, cap=cap)  # witnesses are filled only as they are read
    print(f"completions: {count}{' (capped)' if capped else ''}")
    if count == 1 and not capped:
        print("completion:")
        print(_serialize_cells(p.order, next(flats)), end="")
    elif args.witnesses:
        for flat in flats:
            print("witness:")
            print(_serialize_cells(p.order, flat), end="")
    return 0


def _criticality(p) -> tuple[bool, list]:
    """Whether `p` is uniquely completable, and its removable entries,
    read from the flat grids of the removal checks."""
    completion, _, others = _removal_checks(p)
    return completion is not None, [t for t, other in zip(p.triples(), others) if other is None]


def _cmd_verify(args) -> int:
    p = _load(args.file)
    unique, removable = _criticality(p)
    critical = unique and not removable
    print(f"uniquely completable: {'yes' if unique else 'no'}")
    print(f"minimal: {'yes' if critical else 'no'}")  # a set with no unique completion is not minimal
    print(f"critical: {'yes' if critical else 'no'} (size {p.size})")
    if removable:
        print("removable:", " ".join(f"({t.row},{t.col};{t.sym})" for t in removable))
    return 0 if critical else 1


def _cmd_minimize(args) -> int:
    p = _load(args.file)
    try:
        c = minimize_uc(p, removal_order=args.order, seed=args.seed)
    except NotUniqueError as exc:
        print(f"error: input is not uniquely completable ({exc})", file=sys.stderr)
        return 1
    print(serialize(c), end="")
    return 0


def _cmd_lcs(args) -> int:
    n = args.n
    if args.heuristic:
        if args.starts < 1:
            raise ValueError(f"--starts must be >= 1, got {args.starts}")

        def start(seed: int):
            square = random_latin_square(n, seed=seed)
            return minimize_uc(square, removal_order="random", seed=seed), square

        witness, square = min(
            map(start, range(args.seed, args.seed + args.starts)),
            key=lambda ws: (-ws[0].size, ws[0].triples()),
        )
        head = f"lcs({n}) >= {witness.size} (heuristic lower bound)"
    else:
        rec = lcs_exhaustive(n)
        head, square, witness = f"lcs({n}) = {rec.value}", rec.witness_square, rec.witness_set
    print(head)
    print("witness square:")
    print(serialize(square), end="")
    print("witness set:")
    print(serialize(witness), end="")
    return 0


def _cmd_construct(args) -> int:
    which = args.what
    takes = {"classic-5x5": None, "minus-first-rc": "--in"}.get(which, "--n")
    for option, value in (("--n", args.n), ("--in", args.infile)):
        if value is not None and option != takes:
            raise ValueError(f"construct {which} takes no {option}")
    if which == "back-circulant":
        if args.n is None:
            raise GridError("back-circulant needs --n")
        obj = back_circulant(args.n)
    elif which == "nelder-triangle":
        if args.n is None:
            raise GridError("nelder-triangle needs --n")
        obj = nelder_triangle(args.n)
    elif which == "classic-5x5":
        obj = classic_5x5()
    else:  # minus-first-rc
        if args.infile is None:
            raise GridError("minus-first-rc needs --in FILE with a complete square")
        obj = all_but_first_row_col(_load(args.infile).to_latin())
    print(serialize(obj), end="")
    if not args.verify:
        return 0
    if which == "back-circulant":
        ok = True  # construction validated as a Latin square on creation
        label = "latin"
    elif which == "minus-first-rc":
        ok = is_uniquely_completable(obj)
        label = "uniquely completable"
    else:
        unique, removable = _criticality(obj)
        ok = unique and not removable
        label = "critical"
    print(f"verified {label}: {'yes' if ok else 'NO'}", file=sys.stderr)
    return 0 if ok else 1


def _cmd_count(args) -> int:
    n = args.n
    if args.list:  # R(n) is the number of grids listed; stdout holds only the grids
        listed = 0
        for cells in _reduced_fills(n):  # refuses a large order before any output
            print(("\n" if listed else "") + _serialize_cells(n, cells), end="")
            listed += 1
        result, out = _from_reduced(n, listed), sys.stderr
    else:
        result, out = count_all(n), sys.stdout
    print(f"R({n}) = {result.reduced_count}", file=out)
    print(f"L({n}) = {result.total_count}", file=out)
    return 0


def _fmt_svr(v) -> str:
    return "" if v is None else str(v)


def _fmt_log(v) -> str:
    return "undefined" if v is None else f"{v:.4f}"


def _cmd_bounds(args) -> int:
    if args.crossover:
        if args.n_from is not None or args.csv:
            raise ValueError("bounds --crossover takes no N_FROM, N_TO or --csv")
        print(bounds_mod.crossover())
        return 0
    if args.n_from is None or args.n_to is None:
        raise ValueError("bounds needs N_FROM and N_TO (or --crossover)")
    header = [
        "n", "nelder", "bm_upper", "svr", "theorem1",
        "exact_counting_lower", "log_Ln_lower", "log2_shape_term", "ln_n",
    ]
    table = [
        [
            str(r.order),
            str(r.nelder),
            str(r.bm_upper),
            _fmt_svr(r.svr),
            _fmt_log(r.theorem1),
            _fmt_log(r.exact_counting_lower),
            f"{r.log_Ln_lower:.4f}",
            f"{r.log_cs_count_upper_coeffs[0]:.4f}",
            f"{r.log_cs_count_upper_coeffs[1]:.4f}",
        ]
        for r in bounds_mod.bounds_table(args.n_from, args.n_to)
    ]
    if args.csv:
        print(",".join(header))
        for row in table:
            print(",".join(row))
    else:
        widths = [max(len(h), *(len(row[i]) for row in table)) for i, h in enumerate(header)]
        print("  ".join(h.rjust(w) for h, w in zip(header, widths)))
        for row in table:
            print("  ".join(v.rjust(w) for v, w in zip(row, widths)))
    return 0


def _cmd_check_chain(args) -> int:
    n = args.n
    if n not in KNOWN_LCS:
        raise ValueError(f"no known lcs value for order {n}")
    chk = bounds_mod.check_chain(n, KNOWN_LCS[n])
    verdict = "holds" if chk.holds else "FAILS"
    print(
        f"chain({n}): lhs {chk.lhs_log:.4f} <= mid {chk.mid_log:.4f} "
        f"<= rhs {chk.rhs_log:.4f} -> {verdict}"
    )
    return 0 if chk.holds else 1


def _cmd_check_stirling(args) -> int:
    if not 1 <= args.n_max <= bounds_mod.STIRLING_MAX_N:
        raise ValueError(f"n_max must be in 1..{bounds_mod.STIRLING_MAX_N}, got {args.n_max}")
    failures = [n for n in range(1, args.n_max + 1) if not bounds_mod.stirling_check(n)]
    if failures:
        print(f"stirling FAILS at n = {failures}")
        return 1
    print(f"stirling holds for all n in 1..{args.n_max}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latincrit",
        description="Critical sets of Latin squares: solve, verify, enumerate, bound.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("complete", help="count completions of a grid file")
    p.add_argument("file")
    p.add_argument("--count-cap", type=int, default=DEFAULT_COUNT_CAP,
                   help=f"stop counting here (0 = unbounded; default {DEFAULT_COUNT_CAP})")
    p.add_argument("--witnesses", action="store_true", help="print up to two completions")
    p.set_defaults(func=_cmd_complete)

    p = sub.add_parser("verify", help="criticality report; exit 0 iff critical")
    p.add_argument("file")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("minimize", help="critical subset of a uniquely completable grid")
    p.add_argument("file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--order", choices=["row-major", "random"], default="row-major")
    p.set_defaults(func=_cmd_minimize)

    p = sub.add_parser("lcs", help="largest critical set size at one order")
    p.add_argument("n", type=int)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--exhaustive", action="store_true", default=True,
                      help="no effect, the default; kept for old command lines")
    mode.add_argument("--heuristic", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--starts", type=int, default=32, help="heuristic portfolio size")
    p.set_defaults(func=_cmd_lcs)

    p = sub.add_parser("construct", help="emit a named construction")
    p.add_argument("what", choices=["back-circulant", "nelder-triangle", "classic-5x5", "minus-first-rc"])
    p.add_argument("--n", type=int)
    p.add_argument("--in", dest="infile")
    p.add_argument("--verify", action="store_true",
                   help="check the construction's defining property; exit 1 on violation")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("count", help="exact reduced and total square counts")
    p.add_argument("n", type=int)
    p.add_argument("--list", action="store_true", help="stream the reduced squares")
    p.add_argument("--allow-large", action="store_true", help="no effect; kept for old command lines")
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("bounds", help="bound formula table, or the crossover order")
    p.add_argument("n_from", type=int, nargs="?")
    p.add_argument("n_to", type=int, nargs="?")
    p.add_argument("--csv", action="store_true")
    p.add_argument("--crossover", action="store_true",
                   help="print the order from which the analytic bound beats (n^2-n)/2")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("check-chain", help="counting inequality chain at one order")
    p.add_argument("n", type=int)
    p.set_defaults(func=_cmd_check_chain)

    p = sub.add_parser("check-stirling", help="Stirling lower substitute up to n_max")
    p.add_argument("n_max", type=int)
    p.set_defaults(func=_cmd_check_stirling)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
        return code
    except BrokenPipeError:
        # The reader has gone.  Point stdout at devnull so that the flush at
        # exit does not fail on the same pipe again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (ValueError, OSError) as exc:  # GridError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
