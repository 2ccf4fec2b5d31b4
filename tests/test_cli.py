import os
import subprocess
import sys
from pathlib import Path

import pytest

import latincrit
from latincrit import bounds as bounds_mod
from latincrit import cli, solver
from latincrit.cli import main
from latincrit.core import LatinSquare, PartialLatinSquare, parse_partial, serialize
from latincrit.criticality import KNOWN_LCS, minimize_uc, verify_critical
from latincrit.constructions import back_circulant, classic_5x5, nelder_triangle, random_latin_square


DATA = Path(__file__).parent / "data"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_grid(tmp_path, name, square):
    path = tmp_path / name
    path.write_text(serialize(square))
    return str(path)


def test_verify_classic_5x5(tmp_path, capsys):
    path = write_grid(tmp_path, "classic.lsq", classic_5x5())
    code, out, _ = run(capsys, "verify", path)
    assert code == 0
    assert "critical: yes (size 11)" in out


def test_verify_non_critical_exits_1(tmp_path, capsys):
    path = write_grid(tmp_path, "full.lsq", back_circulant(2))
    code, out, _ = run(capsys, "verify", path)
    assert code == 1
    assert "critical: no" in out
    assert "removable:" in out


@pytest.mark.parametrize("rows, size", [
    ([[0, 0, 0], [0, 0, 0], [0, 0, 0]], 0),  # twelve completions
    ([[1, 2, 0], [2, 1, 0], [0, 0, 0]], 4),  # none: test_solver's CONTRADICTION_3X3
])
def test_verify_not_uniquely_completable_exits_1(tmp_path, capsys, rows, size):
    path = write_grid(tmp_path, "grid.lsq", PartialLatinSquare(rows))
    code, out, _ = run(capsys, "verify", path)
    assert code == 1
    assert out == f"uniquely completable: no\nminimal: no\ncritical: no (size {size})\n"


def _counting_squares(monkeypatch) -> list:
    """Counts the `LatinSquare.from_cells` calls made from now on."""
    built = []
    from_cells = LatinSquare.from_cells.__func__

    def counted(cls, order, cells):
        built.append(order)
        return from_cells(cls, order, cells)

    monkeypatch.setattr(LatinSquare, "from_cells", classmethod(counted))
    return built


@pytest.mark.parametrize("grid, argv, printed", [
    (nelder_triangle(8), ["verify"], 0),
    (PartialLatinSquare.empty(3), ["complete", "--count-cap", "0"], 0),
    (PartialLatinSquare.empty(3), ["complete", "--count-cap", "0", "--witnesses"], 2),
    (PartialLatinSquare.empty(3), ["complete", "--count-cap", "5", "--witnesses"], 2),
    (classic_5x5(), ["complete"], 1),
])
def test_commands_build_only_the_squares_they_print(tmp_path, capsys, monkeypatch, grid, argv, printed):
    # the printed grids are written from the solver's flat grids: no square is built
    path = write_grid(tmp_path, "grid.lsq", grid)
    built = _counting_squares(monkeypatch)
    code, out, _ = run(capsys, argv[0], path, *argv[1:])
    assert code == 0
    assert built == []
    assert out.count("completion:\n") + out.count("witness:\n") == printed


def test_unique_uncapped_completion_comes_from_the_search(tmp_path, capsys, monkeypatch):
    # a critical set of order 8 whose first row-major fill backtracks far
    # longer than its count takes; its one completion is the square itself
    square = random_latin_square(8, 15)
    path = write_grid(tmp_path, "uc8.lsq", minimize_uc(square))
    monkeypatch.setattr(solver, "_row_major_fills", lambda *a: pytest.fail("filled a unique completion"))
    expected = "completions: 1\ncompletion:\n" + serialize(square)
    assert run(capsys, "complete", path, "--count-cap", "0") == (0, expected, "")


def test_complete_rejects_a_negative_cap(tmp_path, capsys):
    path = write_grid(tmp_path, "empty3.lsq", PartialLatinSquare.empty(3))
    code, out, err = run(capsys, "complete", path, "--count-cap", "-1")
    assert (code, out, err) == (2, "", "error: cap must be positive, got -1\n")


def test_complete_prints_unique_completion(tmp_path, capsys):
    path = write_grid(tmp_path, "classic.lsq", classic_5x5())
    code, out, _ = run(capsys, "complete", path)
    assert code == 0
    assert "completions: 1" in out
    grid_text = out.split("completion:\n", 1)[1]
    assert parse_partial(grid_text).is_complete()


def test_complete_with_cap_and_witnesses(tmp_path, capsys):
    path = write_grid(tmp_path, "empty3.lsq", parse_partial("3\n. . .\n. . .\n. . .\n"))
    code, out, _ = run(capsys, "complete", path, "--count-cap", "5", "--witnesses")
    assert code == 0
    assert "completions: 5 (capped)" in out
    assert out.count("witness:") == 2


def test_complete_cap_1_on_ambiguous_grid_prints_no_completion(tmp_path, capsys):
    path = write_grid(tmp_path, "empty2.lsq", parse_partial("2\n. .\n. .\n"))
    code, out, _ = run(capsys, "complete", path, "--count-cap", "1")
    assert code == 0
    assert out == "completions: 1 (capped)\n"


def test_minimize_emits_critical_subset(tmp_path, capsys):
    path = write_grid(tmp_path, "full4.lsq", back_circulant(4))
    code, out, _ = run(capsys, "minimize", path)
    assert code == 0
    assert verify_critical(parse_partial(out)).critical


def test_minimize_rejects_ambiguous_input(tmp_path, capsys):
    path = write_grid(tmp_path, "empty2.lsq", parse_partial("2\n. .\n. .\n"))
    code, _, err = run(capsys, "minimize", path)
    assert code == 1
    assert "not uniquely completable" in err


# Full stdout of `latincrit lcs n`, frozen: the witness is the first
# largest set, by its triple tuple, over every reduced square.
LCS_STDOUT = {
    1: "lcs(1) = 0\nwitness square:\n1\n1\nwitness set:\n1\n.\n",
    2: "lcs(2) = 1\nwitness square:\n2\n1 2\n2 1\nwitness set:\n2\n1 .\n. .\n",
    3: "lcs(3) = 3\nwitness square:\n3\n1 2 3\n2 3 1\n3 1 2\nwitness set:\n3\n1 2 .\n2 . .\n. . .\n",
    4: (
        "lcs(4) = 7\nwitness square:\n4\n1 2 3 4\n2 1 4 3\n3 4 1 2\n4 3 2 1\n"
        "witness set:\n4\n1 2 3 .\n2 1 . .\n3 . 1 .\n. . . .\n"
    ),
}

# Stdout of `latincrit lcs 5` (about 2 s), frozen; CI recomputes it and
# compares.
LCS_5_STDOUT = DATA / "lcs_5.out"


@pytest.mark.parametrize("n", [1, 2, 3])
def test_lcs_exhaustive_small_orders(capsys, n):
    assert run(capsys, "lcs", str(n), "--exhaustive") == (0, LCS_STDOUT[n], "")


def test_lcs_exhaustive_4(capsys):
    assert run(capsys, "lcs", "4", "--exhaustive") == (0, LCS_STDOUT[4], "")


def test_lcs_5_pinned_stdout_names_the_known_value():
    text = LCS_5_STDOUT.read_text()
    assert text.splitlines()[0] == f"lcs(5) = {KNOWN_LCS[5]}"
    square_text = text.split("witness square:\n", 1)[1].split("witness set:\n", 1)[0]
    witness = parse_partial(text.split("witness set:\n", 1)[1])
    assert witness.size == KNOWN_LCS[5]
    rep = verify_critical(witness)
    assert rep.critical and rep.completion == parse_partial(square_text)


def test_lcs_heuristic_reports_lower_bound(capsys):
    code, out, _ = run(capsys, "lcs", "5", "--heuristic", "--starts", "4")
    assert code == 0
    assert "heuristic lower bound" in out
    square_text = out.split("witness square:\n", 1)[1].split("witness set:\n", 1)[0]
    witness = parse_partial(out.split("witness set:\n", 1)[1])
    assert out.startswith(f"lcs(5) >= {witness.size} ")
    assert verify_critical(witness).critical
    # the witness set sits inside the witness square
    square = parse_partial(square_text)
    assert square.is_complete()
    for t in witness.triples():
        assert square.grid[t.row - 1][t.col - 1] == t.sym


# Full stdout of `latincrit lcs 4 --heuristic --starts 2`, frozen: the
# largest of the sets minimize_uc keeps from the squares of seeds 0 and 1.
LCS_4_HEURISTIC_STDOUT = (
    "lcs(4) >= 4 (heuristic lower bound)\nwitness square:\n4\n3 1 2 4\n1 4 3 2\n4 2 1 3\n2 3 4 1\n"
    "witness set:\n4\n3 . 2 .\n. . 3 .\n. . . .\n. . . 1\n"
)


def test_lcs_heuristic_whole_output(capsys):
    assert run(capsys, "lcs", "4", "--heuristic", "--starts", "2") == (0, LCS_4_HEURISTIC_STDOUT, "")


def test_lcs_heuristic_rejects_non_positive_starts(capsys):
    for starts in ("0", "-3"):
        code, out, err = run(capsys, "lcs", "5", "--heuristic", "--starts", starts)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "--starts" in err


def test_lcs_too_large_is_usage_error(capsys):
    code, _, err = run(capsys, "lcs", "6", "--exhaustive")
    assert code == 2
    assert "error" in err


def test_orders_past_each_limit_are_usage_errors(capsys, monkeypatch):
    for argv in (("lcs", "6"), ("count", "8"), ("count", "7", "--list")):
        if argv[-1] == "--list":
            # refused before R(7), which takes seconds, is counted
            monkeypatch.setattr(cli, "count_all", lambda n: pytest.fail(f"counted order {n}"))
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error:")


def test_lcs_allow_large_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["lcs", "4", "--allow-large"])
    assert exc.value.code == 2
    assert "--allow-large" in capsys.readouterr().err


def test_count_6_allow_large_has_no_effect(capsys):
    expected = (0, "R(6) = 9408\nL(6) = 812851200\n", "")
    assert run(capsys, "count", "6") == expected
    assert run(capsys, "count", "6", "--allow-large") == expected


@pytest.mark.parametrize("command, flag", [("lcs", "--exhaustive"), ("count", "--allow-large")])
def test_no_op_flags_say_so_in_their_help(capsys, command, flag):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    lines = [line for line in capsys.readouterr().out.splitlines() if line.split()[:1] == [flag]]
    assert len(lines) == 1 and "no effect" in lines[0]


def test_construct_round_trips(capsys):
    code, out, _ = run(capsys, "construct", "back-circulant", "--n", "7")
    assert code == 0
    assert parse_partial(out) == back_circulant(7)
    code, out, _ = run(capsys, "construct", "nelder-triangle", "--n", "6")
    assert code == 0
    assert parse_partial(out).size == nelder_triangle(6).size
    code, out, _ = run(capsys, "construct", "classic-5x5")
    assert code == 0
    assert parse_partial(out) == classic_5x5()


def test_construct_verify_nelder(capsys):
    code, out, err = run(capsys, "construct", "nelder-triangle", "--n", "5", "--verify")
    assert code == 0
    assert "verified critical: yes" in err
    assert parse_partial(out).size == 10


def test_construct_minus_first_rc(tmp_path, capsys):
    path = write_grid(tmp_path, "bc5.lsq", back_circulant(5))
    code, out, err = run(capsys, "construct", "minus-first-rc", "--in", path, "--verify")
    assert code == 0
    assert parse_partial(out).size == 16
    assert "verified uniquely completable: yes" in err


def test_construct_missing_argument_is_usage_error(capsys):
    code, _, err = run(capsys, "construct", "back-circulant")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize(
    "which, argv, refused",
    [
        ("classic-5x5", ("--n", "9"), "--n"),
        ("minus-first-rc", ("--n", "5", "--in", "GRID"), "--n"),
        ("back-circulant", ("--n", "5", "--in", "GRID"), "--in"),
        ("nelder-triangle", ("--n", "5", "--in", "GRID"), "--in"),
        ("classic-5x5", ("--in", "GRID"), "--in"),
    ],
)
def test_construct_refuses_an_option_it_does_not_take(tmp_path, capsys, which, argv, refused):
    # each construction reads --n, --in or neither; the other is an error,
    # refused before the input file is read
    path = write_grid(tmp_path, "bc5.lsq", back_circulant(5))
    argv = [path if a == "GRID" else a for a in argv]
    expected = f"error: construct {which} takes no {refused}\n"
    assert run(capsys, "construct", which, *argv) == (2, "", expected)


def test_count_outputs(capsys):
    code, out, _ = run(capsys, "count", "5")
    assert code == 0
    assert "R(5) = 56" in out
    assert "L(5) = 161280" in out


# `latincrit count 4 --list`: the reduced squares on stdout, blank-line
# separated, and the counts on stderr.
COUNT_4_LIST_STDOUT = (
    "4\n1 2 3 4\n2 1 4 3\n3 4 1 2\n4 3 2 1\n\n"
    "4\n1 2 3 4\n2 1 4 3\n3 4 2 1\n4 3 1 2\n\n"
    "4\n1 2 3 4\n2 3 4 1\n3 4 1 2\n4 1 2 3\n\n"
    "4\n1 2 3 4\n2 4 1 3\n3 1 4 2\n4 3 2 1\n"
)


def test_count_list_whole_output(capsys):
    assert run(capsys, "count", "4", "--list") == (0, COUNT_4_LIST_STDOUT, "R(4) = 4\nL(4) = 576\n")


# `latincrit count N --list` at the other listed orders up to 5, frozen
# before R(n) was taken from the number of grids listed
@pytest.mark.parametrize("n, stdout, stderr", [
    (1, "1\n1\n", "R(1) = 1\nL(1) = 1\n"),
    (2, "2\n1 2\n2 1\n", "R(2) = 1\nL(2) = 2\n"),
    (3, "3\n1 2 3\n2 3 1\n3 1 2\n", "R(3) = 1\nL(3) = 12\n"),
    (5, (DATA / "count_5_list.out").read_text(), "R(5) = 56\nL(5) = 161280\n"),
])
def test_count_list_whole_output_at_orders_1_to_5(capsys, n, stdout, stderr):
    assert run(capsys, "count", str(n), "--list") == (0, stdout, stderr)


def test_count_list_counts_what_it_lists(capsys, monkeypatch):
    # R(5) is the number of grids listed, each written from the filler's
    # flat grid: no square is built and the row program does not run
    built = _counting_squares(monkeypatch)
    monkeypatch.setattr(cli, "count_all", lambda n: pytest.fail(f"counted order {n}"))
    code, _, err = run(capsys, "count", "5", "--list")
    assert (code, err) == (0, "R(5) = 56\nL(5) = 161280\n")
    assert built == []


def test_bounds_crossover(capsys):
    code, out, _ = run(capsys, "bounds", "--crossover")
    assert code == 0
    assert out.strip() == "195"


def test_bounds_table_text_and_csv(capsys):
    code, out, _ = run(capsys, "bounds", "2", "6")
    assert code == 0
    assert out.splitlines()[0].split()[0] == "n"
    code, out, _ = run(capsys, "bounds", "4", "4", "--csv")
    assert code == 0
    header, row = out.splitlines()
    assert header.startswith("n,nelder,bm_upper,svr")
    fields = row.split(",")
    assert fields[0] == "4" and fields[1] == "6" and fields[2] == "7" and fields[3] == "7"


BOUNDS_1_3 = """\
n  nelder  bm_upper  svr   theorem1  exact_counting_lower  log_Ln_lower  log2_shape_term    ln_n
1       0         1       undefined             undefined        0.0000           0.0000  0.0000
2       1         1    1    -1.2386               -1.0000        0.0000           0.6931  0.6931
3       3         3         -1.8893               -1.7381        0.8630           2.7726  1.0986
"""

BOUNDS_1_3_CSV = """\
n,nelder,bm_upper,svr,theorem1,exact_counting_lower,log_Ln_lower,log2_shape_term,ln_n
1,0,1,,undefined,undefined,0.0000,0.0000,0.0000
2,1,1,1,-1.2386,-1.0000,0.0000,0.6931,0.6931
3,3,3,,-1.8893,-1.7381,0.8630,2.7726,1.0986
"""


@pytest.mark.parametrize("argv, expected", [((), BOUNDS_1_3), (("--csv",), BOUNDS_1_3_CSV)])
def test_bounds_1_3_whole_output(capsys, argv, expected):
    assert run(capsys, "bounds", "1", "3", *argv) == (0, expected, "")


@pytest.mark.parametrize("argv", [("2", "10", "--crossover"), ("--crossover", "--csv"), ("5", "--crossover")])
def test_bounds_crossover_refuses_other_arguments(capsys, argv):
    # --crossover prints one number, so a range or --csv beside it is an error
    expected = "error: bounds --crossover takes no N_FROM, N_TO or --csv\n"
    assert run(capsys, "bounds", *argv) == (2, "", expected)


def test_bounds_needs_range_or_crossover(capsys):
    code, _, err = run(capsys, "bounds")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("n_from, n_to", [("0", "5"), ("5", "2")])
def test_bounds_bad_range_is_bounds_tables_error(capsys, n_from, n_to):
    expected = f"error: need 1 <= n_from <= n_to, got {n_from}..{n_to}\n"
    assert run(capsys, "bounds", n_from, n_to) == (2, "", expected)


def test_bounds_above_the_maximum_order_exits_2_before_computing(capsys):
    # a range past BOUNDS_MAX_N is refused before any row or ln(n!) prefix
    # is computed, so a huge range exits 2 instead of filling memory
    top = bounds_mod.BOUNDS_MAX_N
    prefix = len(bounds_mod._log_fact)
    for n_from, n_to in ((1, top + 1), (top + 1, top + 1), (1, 10**9)):
        expected = f"error: n_to must be at most {top}, got {n_to}\n"
        assert run(capsys, "bounds", str(n_from), str(n_to), "--csv") == (2, "", expected)
    assert len(bounds_mod._log_fact) == prefix


def test_check_chain(capsys):
    for n in ("5", "6"):  # order 6 uses the cited KNOWN_LCS[6]
        code, out, _ = run(capsys, "check-chain", n)
        assert code == 0
        assert out.endswith("-> holds\n")


def test_check_stirling(capsys):
    code, out, _ = run(capsys, "check-stirling", "300")
    assert code == 0
    assert "holds for all n in 1..300" in out


def test_check_stirling_names_an_n_max_above_the_range(capsys):
    code, out, err = run(capsys, "check-stirling", "400")
    assert (code, out) == (2, "")
    assert err == "error: n_max must be in 1..300, got 400\n"


def test_check_stirling_rejects_non_positive_n_max(capsys):
    for n_max in ("0", "-5"):
        code, out, err = run(capsys, "check-stirling", n_max)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")


def test_parse_error_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.lsq"
    path.write_text("2\n1 1\n. .\n")
    code, _, err = run(capsys, "verify", str(path))
    assert code == 2
    assert "error" in err


def test_signed_and_underscored_symbols_exit_2(tmp_path, capsys):
    path = tmp_path / "signed.lsq"
    path.write_text("2\n+1 .\n. 0_1\n")
    code, out, err = run(capsys, "complete", str(path))
    assert (code, out) == (2, "")
    assert err == "error: row 1: bad token '+1'\n"


def test_missing_file_exits_2(capsys):
    code, _, err = run(capsys, "verify", "/nonexistent/grid.lsq")
    assert code == 2
    assert "error" in err


def test_closed_pipe_ends_quietly_with_exit_0():
    # the 9,408 listed 6x6 squares (about 690 kB) overfill a default pipe
    # buffer (64 KiB on Linux), so the command is still writing when the
    # reader goes away
    src = str(Path(latincrit.__file__).resolve().parents[1])
    proc = subprocess.Popen(
        [sys.executable, "-m", "latincrit.cli", "count", "6", "--list"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.stdout.readline() == b"6\n"  # the order line of the first grid
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert err == b""
