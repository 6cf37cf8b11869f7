import pytest

from tss import corpus
from tss.runtime import is_poised


@pytest.mark.parametrize("spec", corpus.check_specs(),
                         ids=lambda s: f"{s.file}:{s.root}{s.bind}")
def test_expected_verdict(spec):
    prog = corpus.load(spec.file, spec.root, spec.bind, spec.cost)
    assert prog.verdict == spec.expect


@pytest.mark.parametrize("spec", corpus.run_specs(),
                         ids=lambda s: f"{s.file}:{s.main}{s.bind}")
def test_runs_do_not_get_stuck(spec):
    prog = corpus.load(spec.file, spec.main, spec.bind, spec.cost)
    final, status, _ = prog.run(steps=spec.steps)
    if status == "quiescent":
        assert is_poised(final)
