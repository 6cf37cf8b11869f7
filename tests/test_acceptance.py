"""The acceptance gate: one test per criterion, each printing its own
pass/fail line.

Criterion 7 is a known, analyzed red: the quoted fold bound (k+5)n+4 is
inconsistent with the fold's own list and folder protocols, under which one
accumulator round trip costs k+6 units.  The criterion is implemented
faithfully and fails for n >= 1; the corrected bound (k+6)n+4 is exercised
in test_corpus via fold_rs.tss.  See "Criterion 7: the fold bound" in
README.md.
"""

import pytest

from tss import acceptance


def _run(number):
    crit = next(c for c in acceptance.CRITERIA if c.number == number)
    ok, detail = crit.fn()
    mark = "pass" if ok else "FAIL"
    print(f"[{mark}] criterion {crit.number}: {crit.title}: {detail}")
    assert ok, detail


def test_criterion_01_six_trace():
    _run(1)


def test_criterion_02_golden_verdicts():
    _run(2)


def test_criterion_03_stack_queue_response():
    _run(3)


def test_criterion_04_append_grid():
    _run(4)


def test_criterion_05_alternate_rates():
    _run(5)


def test_criterion_06_tree_span():
    _run(6)


@pytest.mark.xfail(strict=True, reason="stated fold bound (k+5)n+4 is "
                   "inconsistent with the fold's own list/folder protocols "
                   "(one round trip costs k+6); see 'Criterion 7: the "
                   "fold bound' in README.md")
def test_criterion_07_fold_bound():
    _run(7)


def test_criterion_08_subtyping_identity():
    _run(8)


def test_criterion_09_subtyping_laws():
    _run(9)


def test_criterion_10_preservation():
    _run(10)


def test_criterion_11_progress():
    _run(11)


def test_criterion_12_reconstruction_round_trip():
    _run(12)


def test_criterion_13_oracle_equivalence():
    _run(13)
