"""The result records: immutable NamedTuples with a fixed field order,
keyword construction and a `Name(field=value, ...)` repr, and a package
import that loads neither `dataclasses` nor `inspect`."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import latincrit
from latincrit.bounds import BoundsRow, ChainCheck
from latincrit.core import LatinSquare, PartialLatinSquare, Triple
from latincrit.criticality import CriticalityReport, LcsRecord, RemovalCheck, lcs_exhaustive, verify_critical
from latincrit.solver import CompletionReport, count_completions

FIELDS = {
    CompletionReport: ("count", "capped", "witnesses"),
    RemovalCheck: ("triple", "still_unique", "second_completion"),
    CriticalityReport: ("uniquely_completable", "minimal", "completion", "second_completion", "removal_checks"),
    LcsRecord: ("order", "value", "witness_square", "witness_set"),
    BoundsRow: (
        "order",
        "nelder",
        "bm_upper",
        "theorem1",
        "exact_counting_lower",
        "svr",
        "log_Ln_lower",
        "log_cs_count_upper_coeffs",
    ),
    ChainCheck: ("order", "lhs_log", "mid_log", "rhs_log", "holds"),
}

SQUARE = LatinSquare([[1, 2], [2, 1]])
ONE_ENTRY = PartialLatinSquare([[1, 0], [0, 0]])  # critical: lcs(2) = 1


@pytest.mark.parametrize("record", FIELDS, ids=lambda record: record.__name__)
def test_fields_keep_their_order(record):
    assert record._fields == FIELDS[record]
    assert issubclass(record, tuple)


@pytest.mark.parametrize("record", FIELDS, ids=lambda record: record.__name__)
def test_keyword_construction_and_immutability(record):
    values = {name: k for k, name in enumerate(FIELDS[record])}
    r = record(**values)
    assert tuple(r) == tuple(range(len(values)))
    assert r == record(*range(len(values)))
    for name, k in values.items():
        assert getattr(r, name) == k
    with pytest.raises(AttributeError):
        setattr(r, FIELDS[record][0], -1)
    with pytest.raises(AttributeError):
        r.extra = -1


def test_reprs_name_every_field():
    assert repr(count_completions(ONE_ENTRY)) == (
        "CompletionReport(count=1, capped=False, witnesses=(LatinSquare(order=2, size=4),))"
    )
    assert repr(RemovalCheck(Triple(1, 1, 1), False, SQUARE)) == (
        "RemovalCheck(triple=Triple(row=1, col=1, sym=1), still_unique=False, "
        "second_completion=LatinSquare(order=2, size=4))"
    )
    assert repr(verify_critical(ONE_ENTRY)) == (
        "CriticalityReport(uniquely_completable=True, minimal=True, "
        "completion=LatinSquare(order=2, size=4), second_completion=None, "
        "removal_checks=(RemovalCheck(triple=Triple(row=1, col=1, sym=1), still_unique=False, "
        "second_completion=LatinSquare(order=2, size=4)),))"
    )
    assert repr(lcs_exhaustive(2)) == (
        "LcsRecord(order=2, value=1, witness_square=LatinSquare(order=2, size=4), "
        "witness_set=PartialLatinSquare(order=2, size=1))"
    )
    row = BoundsRow(4, 6, 7, -2.5, -2.0, 7, 3.25, (6.0, 1.5))
    assert repr(row) == (
        "BoundsRow(order=4, nelder=6, bm_upper=7, theorem1=-2.5, exact_counting_lower=-2.0, "
        "svr=7, log_Ln_lower=3.25, log_cs_count_upper_coeffs=(6.0, 1.5))"
    )
    assert repr(ChainCheck(order=4, lhs_log=1.5, mid_log=2.0, rhs_log=3.25, holds=True)) == (
        "ChainCheck(order=4, lhs_log=1.5, mid_log=2.0, rhs_log=3.25, holds=True)"
    )


def test_criticality_report_properties():
    critical = verify_critical(ONE_ENTRY)
    assert critical.critical
    assert critical.violations == ()
    redundant = RemovalCheck(Triple(2, 2, 1), True, None)
    kept = RemovalCheck(Triple(1, 1, 1), False, SQUARE)
    report = CriticalityReport(True, False, SQUARE, None, (kept, redundant))
    assert not report.critical
    assert report.violations == (Triple(2, 2, 1),)
    assert not verify_critical(PartialLatinSquare([[0, 0], [0, 0]])).critical


def test_count_field_shadows_tuple_count():
    # the field named count is read, not tuple.count; the tracer in
    # perfbench reads it the same way
    report = CompletionReport(count=5, capped=True, witnesses=())
    assert report.count == 5
    assert not callable(report.count)
    assert count_completions(PartialLatinSquare([[0, 0], [0, 0]]), cap=1).count == 1


def test_package_import_loads_no_dataclasses_or_inspect():
    # the record classes are NamedTuples, so a fresh start-up generates no
    # dataclass code and pulls in neither module
    src = str(Path(latincrit.__file__).resolve().parents[1])
    probe = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import latincrit.cli\n"
        "print(' '.join(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before))))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        check=True,
        env=dict(os.environ, PYTHONPATH=src),
        timeout=60,
    )
    assert out.stdout.strip() == ""
